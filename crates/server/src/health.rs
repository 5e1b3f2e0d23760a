//! `GET /v1/debug/health`: the index-health document — discovery-recall
//! estimates, tombstone ratios and degree distributions from the recall
//! auditor, and shard-balance skews from the pipeline's health barrier.
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
use crate::routes::{bad_request, no_engine, no_session, query_params, valid_name, Response};
use crate::State;
use dod_shard::HealthReport;
use dod_wire::JsonValue;

/// The validated filter of a `GET /v1/debug/health` request.
#[derive(Debug, PartialEq, Eq)]
struct HealthFilter {
    engine: Option<String>,
    session: Option<String>,
}

/// Parses and strictly validates the health query string, in the same
/// spirit as the traces filter: every parameter checked, mistakes named.
fn parse_health_filter(query: &str) -> Result<HealthFilter, String> {
    let mut filter = HealthFilter {
        engine: None,
        session: None,
    };
    for (k, v) in query_params(query) {
        match k.as_str() {
            "engine" if valid_name(&v) => filter.engine = Some(v),
            "session" if valid_name(&v) => filter.session = Some(v),
            "engine" | "session" => {
                return Err(format!(
                "{k} must be a resource name (1-64 alphanumeric, '_' or '-' characters), got {v:?}"
            ))
            }
            _ => {
                return Err(format!(
                    "unknown query parameter {k:?}; supported: engine, session"
                ))
            }
        }
    }
    Ok(filter)
}

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

/// The recall-auditor section: the sampled discovery-recall estimate
/// and the raw audit tallies behind it.
fn recall_json(report: &HealthReport) -> JsonValue {
    let stats = report.stats();
    JsonValue::obj([
        ("estimate", JsonValue::from(stats.recall_estimate())),
        ("audits", JsonValue::from(stats.recall_audits)),
        ("hits", JsonValue::from(stats.recall_hits)),
        ("expected", JsonValue::from(stats.recall_expected)),
    ])
}

/// The index-structure section: the absorbed [`IndexHealth`] document
/// across shards (degree histogram bucket bounds are in
/// `dod_stream::DEGREE_BUCKET_BOUNDS`, last slot = overflow).
fn index_json(report: &HealthReport) -> JsonValue {
    let idx = report.index();
    JsonValue::obj([
        ("exact", JsonValue::Bool(idx.exact)),
        ("live", JsonValue::from(idx.live)),
        ("tombstones", JsonValue::from(idx.tombstones)),
        ("tombstone_ratio", JsonValue::from(idx.tombstone_ratio())),
        ("compactions", JsonValue::from(idx.compactions)),
        ("bridge_edges", JsonValue::from(idx.bridge_edges)),
        ("prunes", JsonValue::from(idx.prunes)),
        (
            "degree_hist",
            JsonValue::arr(idx.degree_hist.iter().copied()),
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
            fields.push(("recall".into(), recall_json(&report)));
            fields.push(("index".into(), index_json(&report)));
            fields.push(("balance".into(), balance_json(&report)));
        }
        Err(_) => fields.push(("alive".into(), JsonValue::Bool(false))),
    }
    JsonValue::obj(fields)
}

/// `GET /v1/debug/health[?engine=..][&session=..]`.
pub(crate) fn handle_debug_health(state: &State, req: &Request) -> Response {
    let filter = match parse_health_filter(&req.query) {
        Ok(f) => f,
        Err(msg) => return bad_request(&msg),
    };
    // Snapshot both registries (peek semantics: a health scrape must not
    // keep a cold engine warm), then render with no lock held — recall
    // aggregation and the per-session health barrier are pipeline
    // round-trips that must not block creates and deletes.
    let mut engines = {
        let reg = state.engines.read().expect("engine registry lock");
        reg.sorted()
    };
    let mut sessions = {
        let reg = state.sessions.read().expect("session registry lock");
        reg.sorted()
    };
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
    use super::*;

    /// The health filter is strict, like the traces filter: every
    /// accepted spelling and every rejection is pinned.
    #[test]
    fn health_filters_parse_strictly() {
        assert_eq!(
            parse_health_filter(""),
            Ok(HealthFilter {
                engine: None,
                session: None
            })
        );
        assert_eq!(
            parse_health_filter("engine=prod&session=s1"),
            Ok(HealthFilter {
                engine: Some("prod".to_string()),
                session: Some("s1".to_string())
            })
        );
        // Percent-encoded values decode like every other query string.
        assert_eq!(
            parse_health_filter("session=s%31").unwrap().session,
            Some("s1".to_string())
        );
        // A malformed resource name is a named 400, not a silent
        // no-match 404 (the name could never exist).
        let err = parse_health_filter("session=bad name").unwrap_err();
        assert!(err.starts_with("session must be a resource name"), "{err}");
        let err = parse_health_filter("engine=").unwrap_err();
        assert!(err.starts_with("engine must be a resource name"), "{err}");
        // Unknown keys are named, supported ones listed.
        let err = parse_health_filter("sesion=s1").unwrap_err();
        assert_eq!(
            err,
            "unknown query parameter \"sesion\"; supported: engine, session"
        );
        // The first offending pair wins; valid ones before it are fine.
        assert!(parse_health_filter("engine=prod&oops=1").is_err());
    }
}
