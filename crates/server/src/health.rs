//! `GET /v1/debug/health`: the health document — each engine's index
//! footprint, and each session's shard balance (occupancy, ghost rates
//! and skews) from the pipeline's health barrier.
//!
//! Sessions carry no graph section: a session's shards count their
//! windows exhaustively and keep no graph.
//!
//! The document is deliberately *byte-stable*: two scrapes with no
//! intervening ingest answer identical bytes. Everything rendered here
//! is either configuration or a lifetime counter that only moves on
//! ingest, and the health barrier itself books no work, so the scrape
//! cannot perturb what it reports. That property is what lets an
//! operator (or a test) diff two scrapes and read any change as real
//! work, not measurement noise.
//!
//! Like `/v1/debug/traces`, the query string is strict: `?engine=` and
//! `?session=` restrict the document to one resource, unknown keys are
//! named 400s, and a well-formed id that matches nothing is a 404 — a
//! typo must never quietly answer the unfiltered document.

use crate::http::Request;
use crate::registry::SessionEntry;
use crate::routes::{bad_request, no_engine, no_session, parse_debug_filter, Response};
use crate::State;
use dod_shard::HealthReport;
use dod_wire::JsonValue;

/// One engine's row: static identity plus size — engines have no
/// streaming health, their indexes are immutable once built.
fn engine_health(name: &str, entry: &crate::registry::EngineEntry) -> JsonValue {
    JsonValue::obj([
        ("name", JsonValue::from(name)),
        ("index", JsonValue::from(entry.index.as_str())),
        ("points", JsonValue::from(entry.engine.len() as u64)),
        (
            "index_bytes",
            JsonValue::from(entry.engine.index_bytes() as u64),
        ),
    ])
}

/// The shard-balance section: occupancy and work skews plus one row per
/// shard. `slide_nanos` is a lifetime counter booked only while sliding,
/// so it is scrape-stable like everything else here.
fn balance_json(report: &HealthReport) -> JsonValue {
    let shards: Vec<JsonValue> = report
        .shards
        .iter()
        .map(|s| {
            JsonValue::obj([
                ("owned", JsonValue::from(s.owned)),
                ("ghosts", JsonValue::from(s.ghosts)),
                ("ghost_rate", JsonValue::from(s.ghost_rate())),
                ("slide_nanos", JsonValue::from(s.slide_nanos())),
            ])
        })
        .collect();
    let (owned, ghosts) = report
        .shards
        .iter()
        .fold((0usize, 0usize), |(o, g), s| (o + s.owned, g + s.ghosts));
    JsonValue::obj([
        ("owned", JsonValue::from(owned)),
        ("ghosts", JsonValue::from(ghosts)),
        ("owned_skew", JsonValue::from(report.owned_skew())),
        ("slide_skew", JsonValue::from(report.slide_skew())),
        ("shards", JsonValue::Arr(shards)),
    ])
}

/// One session's row. A dead pipeline (router thread gone) degrades to
/// `"alive": false` with the health sections absent — the endpoint keeps
/// answering for every other session, same policy as `/metrics`.
fn session_health(id: &str, entry: &SessionEntry) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("id".into(), JsonValue::from(id)),
        ("metric".into(), JsonValue::from(entry.metric)),
        ("shards".into(), JsonValue::from(entry.shards)),
        ("durable".into(), JsonValue::Bool(entry.durable.is_some())),
    ];
    match entry.pipeline.health() {
        Ok(report) => {
            fields.push(("alive".into(), JsonValue::Bool(true)));
            fields.push(("balance".into(), balance_json(&report)));
        }
        Err(_) => fields.push(("alive".into(), JsonValue::Bool(false))),
    }
    JsonValue::obj(fields)
}

/// `GET /v1/debug/health[?engine=..][&session=..]`.
pub(crate) fn handle_debug_health(state: &State, req: &Request) -> Response {
    let filter = match parse_debug_filter(&req.query, &["engine", "session"]) {
        Ok(f) => f,
        Err(msg) => return bad_request(&msg),
    };
    // Snapshot both registries (peek semantics: a health scrape must not
    // keep a cold engine warm), then render with no lock held — the
    // per-session health barrier is a pipeline round-trip that must not
    // block creates and deletes.
    let mut engines = state.engines().sorted();
    let mut sessions = state.sessions().sorted();
    if let Some(want) = &filter.engine {
        engines.retain(|(name, _)| name == want);
        if engines.is_empty() {
            return no_engine(want);
        }
    }
    if let Some(want) = &filter.session {
        sessions.retain(|(id, _)| id == want);
        if sessions.is_empty() {
            return no_session(want);
        }
    }
    let engines: Vec<JsonValue> = engines
        .iter()
        .map(|(name, entry)| engine_health(name, entry))
        .collect();
    let sessions: Vec<JsonValue> = sessions
        .iter()
        .map(|(id, entry)| session_health(id, entry))
        .collect();
    Response::json(
        200,
        JsonValue::obj([
            ("engines", JsonValue::Arr(engines)),
            ("sessions", JsonValue::Arr(sessions)),
        ])
        .render(),
    )
}

#[cfg(test)]
mod tests {
    use crate::routes::{parse_debug_filter, DebugFilter};

    /// The health filter is strict, like the traces filter: every
    /// accepted spelling and every rejection is pinned.
    #[test]
    fn health_filters_parse_strictly() {
        let parse = |q: &str| parse_debug_filter(q, &["engine", "session"]);
        assert_eq!(parse(""), Ok(DebugFilter::default()));
        assert_eq!(
            parse("engine=prod&session=s1"),
            Ok(DebugFilter {
                engine: Some("prod".to_string()),
                session: Some("s1".to_string()),
                ..DebugFilter::default()
            })
        );
        // Percent-encoded values decode like every other query string.
        assert_eq!(
            parse("session=s%31").unwrap().session,
            Some("s1".to_string())
        );
        // A malformed resource name is a named 400, not a silent
        // no-match 404 (the name could never exist).
        let err = parse("session=bad name").unwrap_err();
        assert!(err.starts_with("session must be a resource name"), "{err}");
        let err = parse("engine=").unwrap_err();
        assert!(err.starts_with("engine must be a resource name"), "{err}");
        // Unknown keys are named, supported ones listed.
        let err = parse("sesion=s1").unwrap_err();
        assert_eq!(
            err,
            "unknown query parameter \"sesion\"; supported: engine, session"
        );
        // The first offending pair wins; valid ones before it are fine.
        assert!(parse("engine=prod&oops=1").is_err());
    }
}
