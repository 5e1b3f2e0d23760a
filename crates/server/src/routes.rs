//! Route dispatch and the JSON protocol: request routing, request
//! decoding, response encoding, and the uniform
//! `{"error": {"kind", "message"}}` bodies.
//!
//! [`API_ROUTES`] is the one description of what the server mounts. A
//! request path resolves against its patterns segment by segment (no
//! regex, no allocation): collection routes (`/v1/engines`,
//! `/v1/sessions`) carry no path parameter, item routes carry one
//! (`/v1/engines/{name}`, `/v1/sessions/{id}/ingest`, …). A method the
//! table does not list for a mounted path answers `405`, naming the
//! listed methods in its message and its `Allow` header.

use crate::http::Request;
use crate::registry::SessionEntry;
use crate::streams::{self, OpenSession};
use crate::State;
use dod_core::trace::TraceContext;
use dod_core::{DodError, IndexSpec, OutlierReport, Query};
use dod_datasets::{EngineSpec, Family};
use dod_metrics::MetricKind;
use dod_wire::shapes::{EngineCreateRequest, EngineSummary, SessionCreateRequest, SessionSummary};
use dod_wire::{parse_json, JsonValue};

/// A served route *shape*: one variant per mounted path pattern plus two
/// synthetic labels. It indexes the HTTP metrics and labels traces and
/// access-log lines, so it carries no path parameter and the label
/// cardinality is bounded by construction. The methods each route serves
/// are listed in [`API_ROUTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    Engines,
    Engine,
    EngineQuery,
    Sessions,
    Session,
    SessionIngest,
    SessionReport,
    Healthz,
    Metrics,
    DebugTraces,
    DebugHealth,
    /// Requests rejected before routing (framing failures, timeouts,
    /// oversized bodies) — a synthetic label so `/metrics` error rates
    /// include requests that never reached a handler.
    Parse,
    /// Every path that matches no mounted pattern.
    Other,
}

impl Route {
    pub(crate) const ALL: [Route; 13] = [
        Route::Engines,
        Route::Engine,
        Route::EngineQuery,
        Route::Sessions,
        Route::Session,
        Route::SessionIngest,
        Route::SessionReport,
        Route::Healthz,
        Route::Metrics,
        Route::DebugTraces,
        Route::DebugHealth,
        Route::Parse,
        Route::Other,
    ];

    /// The route's path pattern — the `route` label in `/metrics`,
    /// access-log lines and traces. Path parameters appear as
    /// placeholders, and the two synthetic labels (`<parse>`, `<other>`)
    /// are spelled so they can never collide with a real path.
    pub(crate) fn pattern(self) -> &'static str {
        match self {
            Route::Engines => "/v1/engines",
            Route::Engine => "/v1/engines/{name}",
            Route::EngineQuery => "/v1/engines/{name}/query",
            Route::Sessions => "/v1/sessions",
            Route::Session => "/v1/sessions/{id}",
            Route::SessionIngest => "/v1/sessions/{id}/ingest",
            Route::SessionReport => "/v1/sessions/{id}/report",
            Route::Healthz => "/healthz",
            Route::Metrics => "/metrics",
            Route::DebugTraces => "/v1/debug/traces",
            Route::DebugHealth => "/v1/debug/health",
            Route::Parse => "<parse>",
            Route::Other => "<other>",
        }
    }

    /// Resolves a request path to the mounted route whose pattern it
    /// matches segment by segment, with the path parameter borrowed from
    /// the path (`""` for a pattern without one). A `{name}` or `{id}`
    /// segment must be a [`valid_name`]; a path matching no pattern is
    /// [`Route::Other`].
    pub(crate) fn resolve(path: &str) -> (Route, &str) {
        Route::ALL
            .into_iter()
            // The synthetic labels are not paths, so they mount nothing.
            .filter(|route| route.pattern().starts_with('/'))
            .find_map(|route| {
                let mut segments = path.split('/');
                let mut param = "";
                for want in route.pattern().split('/') {
                    let got = segments.next()?;
                    match want.starts_with('{') {
                        true if valid_name(got) => param = got,
                        false if want == got => {}
                        _ => return None,
                    }
                }
                segments.next().is_none().then_some((route, param))
            })
            .unwrap_or((Route::Other, ""))
    }
}

/// Every route the server mounts, as `(method, path pattern)`. Dispatch
/// answers a mounted pattern's other methods with `405` and these
/// methods in table order, and the README's API table is checked against
/// this list by the root package's `readme_api_table` test.
pub const API_ROUTES: &[(&str, &str)] = &[
    ("GET", "/v1/engines"),
    ("PUT", "/v1/engines/{name}"),
    ("GET", "/v1/engines/{name}"),
    ("DELETE", "/v1/engines/{name}"),
    ("POST", "/v1/engines/{name}/query"),
    ("POST", "/v1/sessions"),
    ("GET", "/v1/sessions"),
    ("GET", "/v1/sessions/{id}"),
    ("DELETE", "/v1/sessions/{id}"),
    ("POST", "/v1/sessions/{id}/ingest"),
    ("GET", "/v1/sessions/{id}/report"),
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/v1/debug/traces"),
    ("GET", "/v1/debug/health"),
];

/// Resource names are short identifiers — no separators, no escapes —
/// so a name is also safe to echo into error messages and metric labels
/// (and, for durable sessions, to use as a directory name).
pub(crate) fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// A computed response, ready for the framing layer.
#[derive(Debug)]
pub(crate) struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// The `Allow` header a `405` carries: the route's methods.
    pub allow: Option<String>,
}

impl Response {
    pub(crate) fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            allow: None,
        }
    }

    fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            allow: None,
        }
    }
}

/// Upper bound on queries per batch and points per ingest call — the body
/// size limit bounds bytes, this bounds amplification (a tiny body
/// requesting enormous per-item work).
const MAX_BATCH_ITEMS: usize = 4096;

/// Upper bound on the `"n"` of a `PUT /v1/engines/{name}` body: index
/// construction is super-linear work triggered by a ~50-byte request, so
/// it gets its own amplification bound.
const MAX_ENGINE_POINTS: usize = 100_000;

/// Upper bound on a wire session's vector dimension.
const MAX_SESSION_DIM: usize = 4096;

/// The `{"error": {"kind": …, "message": …}}` body every non-2xx answer
/// carries.
pub fn error_body(kind: &str, message: &str) -> String {
    JsonValue::obj([(
        "error",
        JsonValue::obj([("kind", kind), ("message", message)]),
    )])
    .render()
}

/// The error-body `kind` for a [`DodError`]: its variant, snake-cased.
pub fn dod_error_kind(e: &DodError) -> &'static str {
    match e {
        DodError::InvalidRadius { .. } => "invalid_radius",
        DodError::InvalidWindow { .. } => "invalid_window",
        DodError::InvalidSpec { .. } => "invalid_spec",
        DodError::InvalidShardSpec { .. } => "invalid_shard_spec",
        DodError::SizeMismatch { .. } => "size_mismatch",
        DodError::FamilyMismatch { .. } => "family_mismatch",
        DodError::Corrupt { .. } => "corrupt",
        DodError::Io(_) => "io",
        _ => "error",
    }
}

/// The HTTP status a [`DodError`] maps to: validation failures are the
/// caller's fault (400), I/O and corruption are the server's (5xx).
pub fn dod_error_status(e: &DodError) -> u16 {
    match e {
        DodError::InvalidRadius { .. }
        | DodError::InvalidWindow { .. }
        | DodError::InvalidSpec { .. }
        | DodError::InvalidShardSpec { .. }
        | DodError::SizeMismatch { .. }
        | DodError::FamilyMismatch { .. } => 400,
        DodError::Corrupt { .. } => 500,
        DodError::Io(_) => 503,
        _ => 500,
    }
}

/// The error-body `kind` for a failure the HTTP layer itself diagnosed
/// (framing, limits, timeouts), keyed by the status it answers with —
/// the counterpart of [`dod_error_kind`] for errors that never were a
/// [`DodError`].
pub fn http_error_kind(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "timeout",
        413 => "payload_too_large",
        429 => "too_many_requests",
        431 => "headers_too_large",
        501 => "not_implemented",
        503 => "unavailable",
        505 => "unsupported_version",
        _ => "http",
    }
}

fn dod_error_response(e: &DodError) -> Response {
    Response::json(
        dod_error_status(e),
        error_body(dod_error_kind(e), &e.to_string()),
    )
}

/// Deterministic wire encodings, public so integration tests (and other
/// clients of the protocol) can assert byte-identity between HTTP answers
/// and in-process calls.
pub mod encode {
    use super::*;

    /// One [`OutlierReport`] as its wire object. Timing fields are
    /// deliberately absent: they vary run to run, and the protocol's
    /// contract is that the same data and query produce the same bytes —
    /// latency belongs to `/metrics`.
    pub fn report_json(rep: &OutlierReport) -> JsonValue {
        JsonValue::obj([
            ("outliers", JsonValue::arr(rep.outliers.iter().copied())),
            ("candidates", JsonValue::from(rep.candidates)),
            ("false_positives", JsonValue::from(rep.false_positives)),
            ("decided_in_filter", JsonValue::from(rep.decided_in_filter)),
        ])
    }

    /// The `POST /v1/engines/{name}/query` response body for a batch of
    /// reports.
    pub fn query_response(reports: &[OutlierReport]) -> String {
        JsonValue::obj([(
            "results",
            JsonValue::Arr(reports.iter().map(report_json).collect()),
        )])
        .render()
    }

    /// One [`CostReport`](dod_core::CostReport) as its wire object, with
    /// the derived totals precomputed: pruning power is measured against
    /// the query's own nested-loop baseline `n·(n−1)`, so the caller
    /// supplies the dataset size `n`. Deterministic — counts, not
    /// timings — so explained responses stay byte-stable per dataset
    /// and query.
    pub fn query_cost_json(cost: &dod_core::CostReport, n: usize) -> JsonValue {
        dod_wire::shapes::QueryCostShape {
            filter_dist_evals: cost.filter_dist_evals,
            verify_dist_evals: cost.verify_dist_evals,
            total_dist_evals: cost.total_dist_evals(),
            hops: cost.hops,
            pruning_power: cost.pruning_power(n),
        }
        .to_json()
    }

    /// The explained query response: [`report_json`] plus a `"cost"`
    /// plan per result. Served only when the body carries
    /// `"explain": true` — without it, [`query_response`] answers the
    /// exact pre-EXPLAIN bytes.
    pub fn query_response_explained(reports: &[OutlierReport], n: usize) -> String {
        JsonValue::obj([(
            "results",
            JsonValue::Arr(
                reports
                    .iter()
                    .map(|rep| {
                        let JsonValue::Obj(mut fields) = report_json(rep) else {
                            unreachable!("report_json renders an object");
                        };
                        fields.push(("cost".to_string(), query_cost_json(&rep.cost, n)));
                        JsonValue::Obj(fields)
                    })
                    .collect(),
            ),
        )])
        .render()
    }

    /// The report response body: current outliers as global stream
    /// seqs, ascending (the
    /// [`ShardedStreamDetector::outliers`](dod_shard::ShardedStreamDetector::outliers)
    /// shape).
    pub fn stream_report_response(outlier_seqs: &[u64]) -> String {
        JsonValue::obj([("outliers", JsonValue::arr(outlier_seqs.iter().copied()))]).render()
    }

    /// The ingest response body.
    pub fn ingest_response(accepted: usize) -> String {
        JsonValue::obj([("accepted", JsonValue::from(accepted))]).render()
    }

    /// The durable-session ingest response body. `durable` reports the
    /// commit barrier's verdict: `true` means the batch is WAL-committed
    /// per the session's sync policy, `false` means the WAL has latched
    /// into fail-open and the batch lives only in memory.
    pub fn durable_ingest_response(accepted: usize, durable: bool) -> String {
        JsonValue::obj([
            ("accepted", JsonValue::from(accepted)),
            ("durable", JsonValue::Bool(durable)),
        ])
        .render()
    }
}

/// Decodes a query body into validated queries plus the `"explain"`
/// flag. A wire-supplied `"threads"` is clamped to `max_threads`: the
/// body size limit bounds bytes and [`MAX_BATCH_ITEMS`] bounds items,
/// this bounds the third amplification axis (one tiny query demanding
/// millions of OS threads from `dod_graph::parallel::par_map_with`).
///
/// Validation is strict: unknown keys — top-level or per-query — are
/// named 400s, never silently ignored. A client that typos `"explian"`
/// must not get its queries answered *without* the plan it asked for.
fn parse_queries(body: &[u8], max_threads: usize) -> Result<(Vec<Query>, bool), Response> {
    let doc = parse_body(body)?;
    let Some(items) = doc.get("queries").and_then(JsonValue::as_arr) else {
        return Err(bad_request("body must be {\"queries\": [...]}"));
    };
    if let JsonValue::Obj(fields) = &doc {
        for (key, _) in fields {
            if key != "queries" && key != "explain" {
                return Err(bad_request(&format!(
                    "unknown key {key:?} in query body; supported: queries, explain"
                )));
            }
        }
    }
    let explain = match doc.get("explain") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(v) => {
            return Err(bad_request(&format!(
                "\"explain\" must be a boolean, not {}",
                kind_of(v)
            )))
        }
    };
    if items.len() > MAX_BATCH_ITEMS {
        return Err(bad_request(&format!(
            "batch of {} queries exceeds the limit of {MAX_BATCH_ITEMS}",
            items.len()
        )));
    }
    let mut queries = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if let JsonValue::Obj(fields) = item {
            for (key, _) in fields {
                if !matches!(key.as_str(), "r" | "k" | "threads") {
                    return Err(bad_request(&format!(
                        "query #{i}: unknown key {key:?}; supported: r, k, threads"
                    )));
                }
            }
        }
        let r = item.get("r").and_then(JsonValue::as_f64);
        let k = item.get("k").and_then(JsonValue::as_usize);
        let (Some(r), Some(k)) = (r, k) else {
            return Err(bad_request(&format!(
                "query #{i} must carry a numeric \"r\" and a non-negative integer \"k\""
            )));
        };
        let mut q = Query::new(r, k).map_err(|e| dod_error_response(&e))?;
        if let Some(threads) = item.get("threads") {
            let Some(threads) = threads.as_usize() else {
                return Err(bad_request(&format!(
                    "query #{i}: \"threads\" must be a non-negative integer"
                )));
            };
            q = q.with_threads(threads.min(max_threads));
        }
        queries.push(q);
    }
    Ok((queries, explain))
}

/// Decodes an ingest body into dimension-checked points.
fn parse_points(body: &[u8], dim: usize) -> Result<Vec<Vec<f32>>, Response> {
    let doc = parse_body(body)?;
    let Some(items) = doc.get("points").and_then(JsonValue::as_arr) else {
        return Err(bad_request("body must be {\"points\": [[...], ...]}"));
    };
    if items.len() > MAX_BATCH_ITEMS {
        return Err(bad_request(&format!(
            "batch of {} points exceeds the limit of {MAX_BATCH_ITEMS}",
            items.len()
        )));
    }
    let mut points = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Some(coords) = item.as_arr() else {
            // A string (or object) where a vector belongs is a family
            // mismatch in protocol form.
            return Err(Response::json(
                400,
                error_body(
                    "family_mismatch",
                    &format!(
                        "point #{i}: this stream serves {dim}-d vectors, not {}",
                        kind_of(item)
                    ),
                ),
            ));
        };
        if coords.len() != dim {
            return Err(Response::json(
                400,
                error_body(
                    "family_mismatch",
                    &format!(
                        "point #{i} has dimension {}, the stream's space is {dim}-d",
                        coords.len()
                    ),
                ),
            ));
        }
        let mut p = Vec::with_capacity(dim);
        for c in coords {
            let v = c.as_f64().unwrap_or(f64::NAN) as f32;
            if !v.is_finite() {
                return Err(bad_request(&format!(
                    "point #{i} carries a non-finite or non-numeric coordinate"
                )));
            }
            p.push(v);
        }
        points.push(p);
    }
    Ok(points)
}

fn kind_of(v: &JsonValue) -> &'static str {
    match v {
        JsonValue::Num(_) => "a number",
        JsonValue::Str(_) => "a string",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Null => "null",
        JsonValue::Arr(_) => "an array",
        JsonValue::Obj(_) => "an object",
    }
}

fn parse_body(body: &[u8]) -> Result<JsonValue, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, error_body("bad_json", "body is not UTF-8")))?;
    parse_json(text).map_err(|e| Response::json(400, error_body("bad_json", &e)))
}

pub(crate) fn bad_request(message: &str) -> Response {
    Response::json(400, error_body("bad_request", message))
}

fn invalid_spec(message: &str) -> Response {
    Response::json(400, error_body("invalid_spec", message))
}

/// The `405` for a mounted route: the methods [`API_ROUTES`] lists for
/// it, in table order, in the message and in the `Allow` header.
fn method_not_allowed(route: Route) -> Response {
    let methods: Vec<&str> = API_ROUTES
        .iter()
        .filter(|(_, pattern)| *pattern == route.pattern())
        .map(|(method, _)| *method)
        .collect();
    let (last, rest) = methods
        .split_last()
        .expect("a mounted route serves some method");
    let message = if rest.is_empty() {
        format!("use {last}")
    } else {
        format!("use {} or {last}", rest.join(", "))
    };
    Response {
        allow: Some(methods.join(", ")),
        ..Response::json(405, error_body("method_not_allowed", &message))
    }
}

fn unavailable(what: &str) -> Response {
    Response::json(
        503,
        error_body(
            "unavailable",
            &format!("this server was started without {what}"),
        ),
    )
}

fn not_found(message: &str) -> Response {
    Response::json(404, error_body("not_found", message))
}

/// Answers one request, recording handler-level spans (engine compute,
/// filter/verify, ingest) into the request's trace. Infallible by
/// construction: every failure path is a 4xx/5xx response, so a
/// malformed request can never take the worker (or the connection pool)
/// down.
pub(crate) fn dispatch(state: &State, req: &Request, ctx: &mut TraceContext) -> (Route, Response) {
    let (route, param) = Route::resolve(&req.path);
    let resp = match (route, req.method.as_str()) {
        (Route::Engines, "GET") => handle_engine_list(state),
        (Route::Engine, "PUT") => handle_engine_put(state, param, req),
        (Route::Engine, "GET") => handle_engine_get(state, param),
        (Route::Engine, "DELETE") => handle_engine_delete(state, param),
        (Route::EngineQuery, "POST") => handle_engine_query(state, param, req, ctx),
        (Route::Sessions, "POST") => handle_session_create(state, req),
        (Route::Sessions, "GET") => handle_session_list(state),
        (Route::Session, "GET") => handle_session_get(state, param),
        (Route::Session, "DELETE") => handle_session_delete(state, param),
        (Route::SessionIngest, "POST") => handle_session_ingest(state, param, req, ctx),
        (Route::SessionReport, "GET") => handle_session_report(state, param),
        (Route::Healthz, "GET") => handle_healthz(state),
        (Route::Metrics, "GET") => Response::text(200, crate::prom::render(state)),
        (Route::DebugTraces, "GET") => handle_debug_traces(state, req),
        (Route::DebugHealth, "GET") => crate::health::handle_debug_health(state, req),
        (Route::Other | Route::Parse, _) => not_found(&format!("no route {}", req.path)),
        _ => method_not_allowed(route),
    };
    (route, resp)
}

pub(crate) fn no_engine(name: &str) -> Response {
    not_found(&format!("no engine named {name:?}"))
}

pub(crate) fn no_session(id: &str) -> Response {
    not_found(&format!("no session {id:?}"))
}

fn handle_healthz(state: &State) -> Response {
    let engines = state.engines().len();
    let sessions = state.sessions().len();
    Response::json(
        200,
        JsonValue::obj([
            ("status", JsonValue::from("ok")),
            ("engines", JsonValue::from(engines)),
            ("sessions", JsonValue::from(sessions)),
        ])
        .render(),
    )
}

// ---- engines -------------------------------------------------------------

fn engine_summary(name: &str, entry: &crate::registry::EngineEntry) -> JsonValue {
    EngineSummary {
        name: name.to_string(),
        index: entry.index.clone(),
        points: entry.engine.len() as u64,
        index_bytes: entry.engine.index_bytes() as u64,
    }
    .to_json()
}

fn handle_engine_list(state: &State) -> Response {
    let reg = state.engines();
    let engines: Vec<JsonValue> = reg
        .sorted()
        .iter()
        .map(|(name, entry)| engine_summary(name, entry))
        .collect();
    let capacity = reg.capacity();
    drop(reg);
    Response::json(
        200,
        JsonValue::obj([
            ("engines", JsonValue::Arr(engines)),
            ("capacity", JsonValue::from(capacity)),
        ])
        .render(),
    )
}

fn handle_engine_get(state: &State, name: &str) -> Response {
    // peek, not get: inspecting an engine is not using it, so a listing
    // crawler must not keep a cold engine warm.
    let Some(entry) = state.engines().peek(name) else {
        return no_engine(name);
    };
    Response::json(200, engine_summary(name, &entry).render())
}

fn handle_engine_put(state: &State, name: &str, req: &Request) -> Response {
    let doc = match parse_body(&req.body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let create = match EngineCreateRequest::from_json(&doc) {
        Ok(c) => c,
        Err(msg) => return bad_request(&msg),
    };
    let Some(family) = Family::parse(&create.family) else {
        let known: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        return invalid_spec(&format!(
            "unknown dataset family {:?}; one of: {}",
            create.family,
            known.join(", ")
        ));
    };
    if create.n == 0 || create.n as usize > MAX_ENGINE_POINTS {
        return bad_request(&format!(
            "\"n\" must be between 1 and {MAX_ENGINE_POINTS}, got {}",
            create.n
        ));
    }
    let index: IndexSpec = match &create.index {
        Some(s) => match s.parse() {
            Ok(spec) => spec,
            Err(e) => return dod_error_response(&e),
        },
        // The serving default: exact, cheap to build, no parameters.
        None => IndexSpec::VpTree,
    };
    let spec = EngineSpec {
        family,
        n: create.n as usize,
        seed: create.seed,
        index,
    };
    // The expensive part — dataset generation plus index construction
    // (or restore) — runs with no lock held: a slow build must not block
    // queries against resident engines.
    let built = match &create.load {
        Some(path) => std::fs::File::open(path)
            .map_err(DodError::from)
            .and_then(|f| spec.load(std::io::BufReader::new(f))),
        None => spec.build(),
    };
    let engine = match built {
        Ok(engine) => engine,
        Err(e) => return dod_error_response(&e),
    };
    let index_text = spec.index.to_string();
    let (created, evicted) = state.engines_mut().insert(name, engine.into(), index_text);
    let entry = state
        .engines()
        .peek(name)
        .expect("just inserted; capacity ≥ 1 keeps the newest entry");
    Response::json(
        if created { 201 } else { 200 },
        JsonValue::obj([
            ("engine", engine_summary(name, &entry)),
            ("created", JsonValue::from(created)),
            (
                "evicted",
                JsonValue::Arr(
                    evicted
                        .iter()
                        .map(|n| JsonValue::from(n.as_str()))
                        .collect(),
                ),
            ),
        ])
        .render(),
    )
}

fn handle_engine_delete(state: &State, name: &str) -> Response {
    let removed = state.engines_mut().remove(name);
    match removed {
        // The entry drops here, outside the lock.
        Some(_) => Response::json(
            200,
            JsonValue::obj([("deleted", JsonValue::from(name))]).render(),
        ),
        None => no_engine(name),
    }
}

fn handle_engine_query(
    state: &State,
    name: &str,
    req: &Request,
    ctx: &mut TraceContext,
) -> Response {
    // get, not peek: answering queries is exactly what "recently used"
    // means for the LRU bound.
    let Some(entry) = state.engines().get(name) else {
        return no_engine(name);
    };
    let (queries, explain) = match parse_queries(&req.body, state.max_query_threads) {
        Ok(parsed) => parsed,
        Err(resp) => return resp,
    };
    let span = ctx
        .child("engine")
        .with_field("queries", queries.len() as u64);
    let answered = entry.engine.query_many(&queries);
    span.finish(ctx);
    match answered {
        Ok(reports) => {
            // The engine's own phase split, surfaced as sibling spans: the
            // reports carry wall-clock filter/verify timings, counts and
            // distance evaluations, so the trace shows the paper's cost
            // split per request, time and work side by side.
            // `query_many` answers a repeated query once and clones the
            // report into every copy, so only the first copy did the work.
            let (mut filter_secs, mut verify_secs) = (0.0f64, 0.0f64);
            let (mut candidates, mut decided, mut false_pos) = (0u64, 0u64, 0u64);
            let mut cost = dod_core::CostReport::default();
            for (i, rep) in reports.iter().enumerate() {
                if queries[..i].contains(&queries[i]) {
                    continue;
                }
                filter_secs += rep.filter_secs;
                verify_secs += rep.verify_secs;
                candidates += rep.candidates as u64;
                decided += rep.decided_in_filter as u64;
                false_pos += rep.false_positives as u64;
                cost.absorb(&rep.cost);
            }
            ctx.record(
                "filter",
                std::time::Duration::from_secs_f64(filter_secs.max(0.0)),
                vec![
                    ("candidates", candidates),
                    ("decided_in_filter", decided),
                    ("dist_evals", cost.filter_dist_evals),
                    ("hops", cost.hops),
                ],
            );
            ctx.record(
                "verify",
                std::time::Duration::from_secs_f64(verify_secs.max(0.0)),
                vec![
                    ("verified", candidates.saturating_sub(decided)),
                    ("false_positives", false_pos),
                    ("dist_evals", cost.verify_dist_evals),
                ],
            );
            let body = if explain {
                encode::query_response_explained(&reports, entry.engine.len())
            } else {
                encode::query_response(&reports)
            };
            Response::json(200, body)
        }
        Err(e) => dod_error_response(&e),
    }
}

// ---- sessions ------------------------------------------------------------

fn session_summary(id: &str, entry: &SessionEntry) -> JsonValue {
    SessionSummary {
        id: id.to_string(),
        metric: entry.metric.to_string(),
        dim: entry.dim as u64,
        shards: entry.shards as u64,
        ingested: entry.ingested.get(),
        durable: entry.durable.is_some(),
        // Clients relying on the durability promise read the health here
        // rather than scraping dod_wal_io_errors_total off /metrics.
        durability: entry
            .durable
            .as_ref()
            .map(|d| if d.degraded() { "degraded" } else { "ok" }.to_string()),
    }
    .to_json()
}

fn handle_session_list(state: &State) -> Response {
    let reg = state.sessions();
    let sessions: Vec<JsonValue> = reg
        .sorted()
        .iter()
        .map(|(id, entry)| session_summary(id, entry))
        .collect();
    let capacity = reg.capacity();
    drop(reg);
    Response::json(
        200,
        JsonValue::obj([
            ("sessions", JsonValue::Arr(sessions)),
            ("capacity", JsonValue::from(capacity)),
        ])
        .render(),
    )
}

fn handle_session_get(state: &State, id: &str) -> Response {
    let Some(entry) = state.sessions().get(id) else {
        return no_session(id);
    };
    Response::json(200, session_summary(id, &entry).render())
}

fn handle_session_create(state: &State, req: &Request) -> Response {
    let doc = match parse_body(&req.body) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let create = match SessionCreateRequest::from_json(&doc) {
        Ok(c) => c,
        Err(msg) => return bad_request(&msg),
    };
    // The wire checks that run before anything is reserved — for a
    // durable session, before its id and directory exist. The session
    // itself is derived once, by `streams::open`.
    if MetricKind::parse_wire(&create.metric).is_none() {
        return invalid_spec(&streams::unknown_metric(&create.metric));
    }
    if create.dim as usize > MAX_SESSION_DIM {
        return bad_request(&format!(
            "\"dim\" of {} exceeds the limit of {MAX_SESSION_DIM}",
            create.dim
        ));
    }
    if let Err(e) = Query::new(create.r, create.k as usize) {
        return dod_error_response(&e);
    }
    if create.durable {
        return handle_durable_session_create(state, &create);
    }
    let session = match streams::open(&create, None) {
        Ok(session) => session,
        Err(e) => return dod_error_response(&e),
    };
    // Only a fully validated spec may consume a slot. The slot is
    // reserved *before* the pipeline spins up, so a create refused at
    // capacity never spawns threads.
    let Some(id) = state.sessions_mut().reserve() else {
        return session_capacity_response(state);
    };
    mount_session(state, &id, session)
}

fn session_capacity_response(state: &State) -> Response {
    let capacity = state.sessions().capacity();
    Response::json(
        429,
        error_body(
            "too_many_requests",
            &format!("session capacity of {capacity} reached; delete a session first"),
        ),
    )
}

/// `POST /v1/sessions` with `"durable": true`: reserve the id (the
/// session's directory is named after it), build the WAL-backed session
/// and write its manifest with no registry lock held, then mount it.
fn handle_durable_session_create(state: &State, create: &SessionCreateRequest) -> Response {
    let Some(data_dir) = &state.data_dir else {
        return unavailable("a data directory (durable sessions)");
    };
    let Some(id) = state.sessions_mut().reserve() else {
        return session_capacity_response(state);
    };
    let dir = data_dir.join("sessions").join(&id);
    // The expensive, fallible part — creating the directory, fsyncing
    // the log header and first snapshot — runs with no lock held. On any
    // failure the half-made directory is reclaimed before answering.
    let opened = streams::open(create, Some(&dir))
        .and_then(|session| crate::durable::write_manifest(&dir, create).map(|()| session));
    match opened {
        Ok(session) => mount_session(state, &id, session),
        Err(e) => {
            crate::durable::reclaim_session_dir(&dir, &state.cleanup_errors);
            dod_error_response(&e)
        }
    }
}

/// Starts an opened session's pipeline and mounts it under its reserved
/// id.
fn mount_session(state: &State, id: &str, session: OpenSession) -> Response {
    let entry = session.start(state.pipeline_queue);
    let mounted = state.sessions_mut().mount(id, entry);
    match mounted {
        Ok(entry) => Response::json(201, session_summary(id, &entry).render()),
        Err(refused) => {
            // Concurrent creates filled the registry between reserve and
            // mount. Dropping the entry joins its pipeline threads (for a
            // durable session, the final WAL close) outside the lock;
            // then a durable session's freshly made files are reclaimed.
            let dir = refused.durable.as_ref().map(|d| d.dir.clone());
            drop(refused);
            if let Some(dir) = dir {
                crate::durable::reclaim_session_dir(&dir, &state.cleanup_errors);
            }
            session_capacity_response(state)
        }
    }
}

fn handle_session_delete(state: &State, id: &str) -> Response {
    let removed = state.sessions_mut().remove(id);
    match removed {
        Some(entry) => {
            let resp = Response::json(
                200,
                JsonValue::obj([("deleted", JsonValue::from(id))]).render(),
            );
            let dir = entry.durable.as_ref().map(|d| d.dir.clone());
            // The last Arc drop joins the pipeline's threads — after the
            // lock is gone, and possibly deferred to an in-flight handler
            // still holding a clone.
            drop(entry);
            // DELETE means the stream state is no longer wanted: the WAL,
            // snapshot and manifest go with the session, so a restart
            // does not resurrect it. (If an in-flight handler deferred
            // the drop above, the files are unlinked while the pipeline
            // winds down — its writes land on anonymous inodes and the
            // directory itself is swept on a later delete or by the
            // operator; nothing recoverable remains either way.)
            if let Some(dir) = dir {
                crate::durable::reclaim_session_dir(&dir, &state.cleanup_errors);
            }
            resp
        }
        None => no_session(id),
    }
}

fn handle_session_ingest(
    state: &State,
    id: &str,
    req: &Request,
    ctx: &mut TraceContext,
) -> Response {
    let Some(entry) = state.sessions().get(id) else {
        return no_session(id);
    };
    let points = match parse_points(&req.body, entry.dim) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let accepted = points.len();
    let span = ctx
        .child("ingest")
        .with_field("points", accepted as u64)
        .with_field("queue_depth", entry.pipeline.gauges().queue_depth());
    // For a durable session the 200 is a durability promise, so the
    // handler blocks on a commit barrier: the router flushes every op
    // enqueued before the barrier through the WAL (append + sync per
    // policy) before answering. Volatile sessions skip the round-trip.
    let result = entry.pipeline.insert_many(points).and_then(|()| {
        if entry.durable.is_some() {
            entry.pipeline.commit().map(Some)
        } else {
            Ok(None)
        }
    });
    span.finish(ctx);
    match result {
        Ok(ack) => {
            // Counted only once the pipeline has the points: a dead
            // pipeline answering 5xx must not inflate the accept counter.
            entry.ingested.add(accepted as u64);
            let body = match ack {
                None => encode::ingest_response(accepted),
                Some(a) => {
                    encode::durable_ingest_response(accepted, a == dod_shard::CommitAck::Durable)
                }
            };
            Response::json(200, body)
        }
        Err(e) => dod_error_response(&e),
    }
}

// ---- debug traces --------------------------------------------------------

/// Decodes `k=v&k2=v2` pairs with minimal percent-decoding (`%XX` and
/// `+` → space). Bad escapes pass through literally — a debug endpoint
/// should show what the client sent, not reject it.
pub(crate) fn query_params(query: &str) -> Vec<(String, String)> {
    fn pct_decode(s: &str) -> String {
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'+' => {
                    out.push(b' ');
                    i += 1;
                }
                b'%' if i + 2 < bytes.len() => {
                    let hex = |b: u8| (b as char).to_digit(16);
                    match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                        (Some(hi), Some(lo)) => {
                            out.push((hi * 16 + lo) as u8);
                            i += 3;
                        }
                        _ => {
                            out.push(b'%');
                            i += 1;
                        }
                    }
                }
                b => {
                    out.push(b);
                    i += 1;
                }
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (pct_decode(k), pct_decode(v))
        })
        .collect()
}

/// The validated query string of a `GET /v1/debug/*` request; each
/// endpoint accepts a subset of the keys.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct DebugFilter {
    pub min_nanos: u64,
    pub route: Option<String>,
    pub engine: Option<String>,
    pub session: Option<String>,
}

/// Parses and strictly validates a debug endpoint's query string; the
/// endpoint passes the keys it accepts as `supported`. Every parameter is
/// checked: unknown keys, malformed values and route values that match no
/// mounted pattern are 400s rather than silently ignored — on a debug
/// endpoint, a typoed `?min_mss=5` quietly returning *everything* (or a
/// misspelled route returning nothing) sends the operator down the wrong
/// path exactly when they are debugging. `engine` and `session` accept
/// any registry-valid name: whether it exists is the endpoint's call.
pub(crate) fn parse_debug_filter(query: &str, supported: &[&str]) -> Result<DebugFilter, String> {
    let mut filter = DebugFilter::default();
    for (k, v) in query_params(query) {
        let known = supported.contains(&k.as_str());
        match k.as_str() {
            "min_ms" if known => match v.parse::<f64>() {
                Ok(ms) if ms.is_finite() && ms >= 0.0 => filter.min_nanos = (ms * 1e6) as u64,
                _ => return Err(format!("min_ms must be a non-negative number, got {v:?}")),
            },
            "route" if known => {
                if !Route::ALL.iter().any(|r| r.pattern() == v) {
                    let known: Vec<&str> = Route::ALL.iter().map(|r| r.pattern()).collect();
                    return Err(format!("unknown route {v:?}; one of: {}", known.join(", ")));
                }
                filter.route = Some(v);
            }
            "engine" | "session" if known => {
                if !valid_name(&v) {
                    return Err(format!(
                        "{k} must be a resource name (1-64 alphanumeric, '_' or '-' characters), got {v:?}"
                    ));
                }
                if k == "engine" {
                    filter.engine = Some(v);
                } else {
                    filter.session = Some(v);
                }
            }
            _ => {
                return Err(format!(
                    "unknown query parameter {k:?}; supported: {}",
                    supported.join(", ")
                ))
            }
        }
    }
    Ok(filter)
}

/// `GET /v1/debug/traces[?min_ms=..][&route=..]`: the ring buffer of
/// recently completed traces, newest first, optionally filtered to slow
/// requests (`min_ms`) and/or one route pattern (`route`, exact match on
/// the pattern spelling — percent-encode the slashes or not, both work).
/// Malformed or unknown parameters answer 400 with the mistake named.
fn handle_debug_traces(state: &State, req: &Request) -> Response {
    let filter = match parse_debug_filter(&req.query, &["min_ms", "route"]) {
        Ok(f) => f,
        Err(msg) => return bad_request(&msg),
    };
    let mut traces = state.trace_ring.snapshot();
    traces.retain(|t| {
        t.duration_nanos >= filter.min_nanos
            && filter.route.as_deref().is_none_or(|want| want == t.route)
    });
    traces.reverse(); // ring order is oldest-first; debugging wants newest
    Response::json(
        200,
        JsonValue::obj([
            (
                "traces",
                JsonValue::Arr(traces.iter().map(|t| crate::sink::trace_json(t)).collect()),
            ),
            ("capacity", JsonValue::from(state.trace_ring.capacity())),
        ])
        .render(),
    )
}

fn handle_session_report(state: &State, id: &str) -> Response {
    let Some(entry) = state.sessions().get(id) else {
        return no_session(id);
    };
    match entry.pipeline.outliers() {
        Ok(seqs) => Response::json(200, encode::stream_report_response(&seqs)),
        Err(e) => dod_error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `DodError` variant's wire kind and status, pinned: a new
    /// variant (or a remapping) must consciously edit this table, because
    /// clients branch on these strings.
    #[test]
    fn dod_error_kinds_and_statuses_are_pinned() {
        let io = DodError::from(std::io::Error::other("x"));
        let cases: Vec<(DodError, &str, u16)> = vec![
            (
                Query::new(-1.0, 3).expect_err("negative radius"),
                "invalid_radius",
                400,
            ),
            (
                DodError::InvalidWindow {
                    reason: "w".to_string(),
                },
                "invalid_window",
                400,
            ),
            (
                DodError::InvalidSpec {
                    reason: "s".to_string(),
                },
                "invalid_spec",
                400,
            ),
            (
                DodError::InvalidShardSpec {
                    reason: "s".to_string(),
                },
                "invalid_shard_spec",
                400,
            ),
            (
                DodError::SizeMismatch { index: 1, data: 2 },
                "size_mismatch",
                400,
            ),
            (
                DodError::FamilyMismatch {
                    expected: "a",
                    found: "b",
                },
                "family_mismatch",
                400,
            ),
            (
                DodError::Corrupt {
                    offset: 0,
                    reason: "c",
                },
                "corrupt",
                500,
            ),
            (io, "io", 503),
        ];
        for (e, kind, status) in &cases {
            assert_eq!(dod_error_kind(e), *kind, "{e}");
            assert_eq!(dod_error_status(e), *status, "{e}");
        }
    }

    /// Every HTTP-layer status the server can answer with has a stable
    /// envelope kind — including the framing failures (408/413/431/505)
    /// that never touch a route handler.
    #[test]
    fn http_error_kinds_are_pinned() {
        let table = [
            (400, "bad_request"),
            (404, "not_found"),
            (405, "method_not_allowed"),
            (408, "timeout"),
            (413, "payload_too_large"),
            (429, "too_many_requests"),
            (431, "headers_too_large"),
            (501, "not_implemented"),
            (503, "unavailable"),
            (505, "unsupported_version"),
        ];
        for (status, kind) in table {
            assert_eq!(http_error_kind(status), kind, "status {status}");
        }
        assert_eq!(http_error_kind(599), "http", "unknown statuses degrade");
    }

    /// The error body is the uniform envelope — and parses as one.
    #[test]
    fn error_bodies_are_envelopes() {
        let body = error_body("not_found", "no engine named \"x\"");
        let doc = parse_json(&body).expect("valid json");
        let envelope = dod_wire::shapes::ErrorEnvelope::from_json(&doc).expect("envelope");
        assert_eq!(envelope.kind, "not_found");
        assert_eq!(envelope.message, "no engine named \"x\"");
    }

    #[test]
    fn resource_paths_parse() {
        use Route::*;
        let cases: Vec<(&str, Route, &str)> = vec![
            ("/v1/engines", Engines, ""),
            ("/v1/engines/prod", Engine, "prod"),
            ("/v1/engines/prod/query", EngineQuery, "prod"),
            ("/v1/engines/a-b_3", Engine, "a-b_3"),
            ("/v1/sessions", Sessions, ""),
            ("/v1/sessions/s1", Session, "s1"),
            ("/v1/sessions/s1/ingest", SessionIngest, "s1"),
            ("/v1/sessions/s1/report", SessionReport, "s1"),
            ("/healthz", Healthz, ""),
            ("/metrics", Metrics, ""),
            ("/v1/debug/traces", DebugTraces, ""),
            ("/v1/debug/health", DebugHealth, ""),
            // Malformed or hostile paths all fall to Other (→ 404).
            ("/", Other, ""),
            ("/v1/engines/", Other, ""),
            ("/v1/engines/a/b", Other, ""),
            ("/v1/engines/prod/query/extra", Other, ""),
            ("/v1/engines/bad name", Other, ""),
            ("/v1/engines/../etc", Other, ""),
            ("/v1/engines/{name}", Other, ""),
            ("/v1/sessions/s1/flush", Other, ""),
            ("/v2/engines", Other, ""),
            // The synthetic labels are not mounted paths.
            ("<parse>", Other, ""),
            ("<other>", Other, ""),
            // The retired routes are unknown paths like any other.
            ("/v1/query", Other, ""),
            ("/v1/ingest", Other, ""),
            ("/v1/report", Other, ""),
            ("/v1/debug/slow", Other, ""),
        ];
        for (path, route, param) in cases {
            assert_eq!(Route::resolve(path), (route, param), "{path}");
        }
        let long = format!("/v1/engines/{}", "a".repeat(65));
        assert_eq!(
            Route::resolve(&long),
            (Other, ""),
            "names are length-capped"
        );
    }

    /// Each mounted pattern resolves to the Route labelled with it, and
    /// each Route but the synthetic labels is mounted — the API table
    /// and the label set cannot drift apart.
    #[test]
    fn api_routes_cover_the_resource_space() {
        for (method, pattern) in API_ROUTES {
            let concrete = pattern.replace("{name}", "x").replace("{id}", "s1");
            let (route, _) = Route::resolve(&concrete);
            assert_eq!(route.pattern(), *pattern, "{method} {pattern}");
        }
        for route in Route::ALL {
            let mounted = API_ROUTES.iter().any(|(_, p)| *p == route.pattern());
            assert_eq!(
                mounted,
                !matches!(route, Route::Parse | Route::Other),
                "{route:?}"
            );
        }
    }

    #[test]
    fn query_params_decode_pairs_and_escapes() {
        assert_eq!(query_params(""), vec![]);
        assert_eq!(
            query_params("min_ms=1.5&route=%2Fv1%2Fengines"),
            vec![
                ("min_ms".to_string(), "1.5".to_string()),
                ("route".to_string(), "/v1/engines".to_string()),
            ]
        );
        assert_eq!(query_params("a+b=c+d"), vec![("a b".into(), "c d".into())]);
        assert_eq!(query_params("flag"), vec![("flag".into(), String::new())]);
        // Bad escapes pass through literally, truncated ones included.
        assert_eq!(query_params("x=%zz"), vec![("x".into(), "%zz".into())]);
        assert_eq!(query_params("x=%2"), vec![("x".into(), "%2".into())]);
    }

    /// The traces filter is strict: every accepted spelling and every
    /// rejection is pinned here, because operators curl this endpoint by
    /// hand and a silently-ignored typo misleads a debugging session.
    #[test]
    fn trace_filters_parse_strictly() {
        let parse = |q: &str| parse_debug_filter(q, &["min_ms", "route"]);
        assert_eq!(parse(""), Ok(DebugFilter::default()));
        assert_eq!(
            parse("min_ms=1.5&route=%2Fv1%2Fengines"),
            Ok(DebugFilter {
                min_nanos: 1_500_000,
                route: Some("/v1/engines".to_string()),
                ..DebugFilter::default()
            })
        );
        // Unencoded slashes and the synthetic labels work too.
        assert_eq!(
            parse("route=/v1/sessions/{id}/ingest")
                .unwrap()
                .route
                .as_deref(),
            Some("/v1/sessions/{id}/ingest")
        );
        assert!(parse("route=%3Cparse%3E").is_ok());
        // A non-numeric min_ms is a named 400, not a silent zero.
        let err = parse("min_ms=abc").unwrap_err();
        assert_eq!(err, "min_ms must be a non-negative number, got \"abc\"");
        for bad in ["min_ms=-1", "min_ms=inf", "min_ms="] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        // A route matching no mounted pattern is a named 400, not an
        // empty 200.
        let err = parse("route=/v1/engnes").unwrap_err();
        assert!(
            err.starts_with("unknown route \"/v1/engnes\"; one of: "),
            "{err}"
        );
        assert!(err.contains("/v1/engines/{name}/query"), "{err}");
        // Unknown keys are named too (the old behavior ignored them).
        let err = parse("min_mss=5").unwrap_err();
        assert_eq!(
            err,
            "unknown query parameter \"min_mss\"; supported: min_ms, route"
        );
        // The first offending pair wins; valid ones before it are fine.
        assert!(parse("min_ms=2&oops=1").is_err());
    }

    /// The query body is strict end to end: unknown keys at either level
    /// and a non-boolean `"explain"` are named 400s, and the explain
    /// flag round-trips. (The silent-ignore behavior this replaces let a
    /// typoed `"explian"` run the query without its plan.)
    #[test]
    fn query_bodies_parse_strictly() {
        let ok = parse_queries(br#"{"queries": [{"r": 1.0, "k": 2}]}"#, 4).expect("plain body");
        assert_eq!(ok.0.len(), 1);
        assert!(!ok.1, "explain defaults off");
        let ok = parse_queries(br#"{"queries": [{"r": 1.0, "k": 2}], "explain": true}"#, 4)
            .expect("explained body");
        assert!(ok.1);
        let message = |resp: Response| {
            let doc = parse_json(std::str::from_utf8(&resp.body).expect("utf8")).expect("json");
            assert_eq!(resp.status, 400);
            dod_wire::shapes::ErrorEnvelope::from_json(&doc)
                .expect("envelope")
                .message
        };
        let err = parse_queries(br#"{"queries": [], "explian": true}"#, 4).unwrap_err();
        assert_eq!(
            message(err),
            "unknown key \"explian\" in query body; supported: queries, explain"
        );
        let err = parse_queries(br#"{"queries": [], "explain": 1}"#, 4).unwrap_err();
        assert_eq!(message(err), "\"explain\" must be a boolean, not a number");
        let err =
            parse_queries(br#"{"queries": [{"r": 1.0, "k": 2, "radius": 3}]}"#, 4).unwrap_err();
        assert_eq!(
            message(err),
            "query #0: unknown key \"radius\"; supported: r, k, threads"
        );
        // A body with no "queries" key keeps its original diagnosis.
        let err = parse_queries(br#"{"nope": 1}"#, 4).unwrap_err();
        assert_eq!(message(err), "body must be {\"queries\": [...]}");
    }

    #[test]
    fn route_patterns_are_unique_and_bounded() {
        let mut seen = std::collections::HashSet::new();
        for route in Route::ALL {
            assert!(
                seen.insert(route.pattern()),
                "duplicate {}",
                route.pattern()
            );
        }
        // The synthetic labels can never collide with a served path.
        assert!(Route::Parse.pattern().starts_with('<'));
        assert!(Route::Other.pattern().starts_with('<'));
    }
}
