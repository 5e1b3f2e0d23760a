//! End-to-end observability tests: request ids echoed over real
//! sockets, the `/v1/debug/traces` ring, per-route `/metrics` series,
//! and the JSON-lines access log — all driven with hand-written
//! HTTP/1.1 against a server on an ephemeral port.

use dod_server::{DodServer, ServerBuilder, ServerHandle};
use dod_wire::JsonValue;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP/1.1 exchange on a fresh connection, returning
/// `(status, headers, body)` with header names lower-cased.
fn exchange(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
    conn.write_all(raw.as_bytes()).expect("send");
    read_response(&mut BufReader::new(conn))
}

/// Reads one response off a connection, leaving it open for the next.
fn read_response(r: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut line = String::new();
    r.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        r.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').expect("header colon");
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().expect("content-length value");
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(r, &mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf8 body"))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra: &str,
) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n{extra}connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    extra: &str,
) -> (u16, Vec<(String, String)>, String) {
    send(addr, "POST", path, body, extra)
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

fn builder() -> ServerBuilder {
    DodServer::builder().workers(2)
}

/// Binds and starts the server, then creates engine `e` and session `s1`
/// over the wire. Both setup requests are traced like any other, so
/// the ring and the access log see them first.
fn serve(builder: ServerBuilder) -> ServerHandle {
    let handle = builder.bind("127.0.0.1:0").expect("bind").start();
    let (status, _, body) = send(
        handle.addr(),
        "PUT",
        "/v1/engines/e",
        r#"{"family":"sift","n":300,"seed":11,"index":"mrpg:6"}"#,
        "",
    );
    assert_eq!(status, 201, "{body}");
    let (status, _, body) = post(
        handle.addr(),
        "/v1/sessions",
        r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":64},"shards":2,"warmup":4,"pivots_per_shard":1}"#,
        "",
    );
    assert_eq!(status, 201, "{body}");
    handle
}

/// A trace object's span by name, if present.
fn span<'a>(trace: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    trace
        .get("spans")
        .and_then(JsonValue::as_arr)?
        .iter()
        .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
}

/// A span's count field, e.g. the `filter` span's `dist_evals`.
fn span_field(trace: &JsonValue, name: &str, field: &str) -> u64 {
    span(trace, name)
        .and_then(|s| s.get("fields"))
        .and_then(|f| f.get(field))
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("span {name} has no {field}: {trace:?}")) as u64
}

fn span_duration_ns(trace: &JsonValue, name: &str) -> u64 {
    span(trace, name)
        .and_then(|s| s.get("duration_ns"))
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("span {name} missing: {trace:?}")) as u64
}

#[test]
fn a_query_is_traced_from_queue_wait_to_filter_and_verify() {
    let handle = serve(builder());
    let addr = handle.addr();

    let (status, headers, _) = post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":100.0,"k":40}]}"#,
        "x-request-id: trace-me-42\r\n",
    );
    assert_eq!(status, 200);
    // The inbound id is echoed on the response.
    assert_eq!(header(&headers, "x-request-id"), Some("trace-me-42"));

    let (status, _, body) = get(addr, "/v1/debug/traces");
    assert_eq!(status, 200, "{body}");
    let doc = dod_wire::parse_json(&body).expect("traces json");
    assert!(doc.get("capacity").and_then(JsonValue::as_usize).unwrap() >= 1);
    let traces = doc
        .get("traces")
        .and_then(JsonValue::as_arr)
        .expect("traces");
    let trace = traces
        .iter()
        .find(|t| t.get("request_id").and_then(JsonValue::as_str) == Some("trace-me-42"))
        .expect("the query's trace is in the ring");
    assert_eq!(
        trace.get("route").and_then(JsonValue::as_str),
        Some("/v1/engines/{name}/query")
    );
    assert_eq!(trace.get("status").and_then(JsonValue::as_usize), Some(200));
    // The whole path is covered: pool queue wait, socket read, dispatch,
    // and the paper's filter/verify phase split — all with real time in
    // them.
    for name in [
        "queue_wait",
        "read",
        "dispatch",
        "engine",
        "filter",
        "verify",
    ] {
        assert!(
            span_duration_ns(trace, name) > 0,
            "span {name} has zero duration: {trace:?}"
        );
    }
    // Each phase span carries its work next to its time: the filter its
    // candidates, distance evaluations and graph hops, the verify phase
    // its distance evaluations.
    span_field(trace, "filter", "candidates");
    assert!(span_field(trace, "filter", "dist_evals") > 0, "{trace:?}");
    assert!(span_field(trace, "filter", "hops") > 0, "{trace:?}");
    span_field(trace, "verify", "dist_evals");

    // The same request shows up in the per-route×status counters.
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains(
            "dod_http_requests_total{route=\"/v1/engines/{name}/query\",status=\"200\"} 1"
        ),
        "{metrics}"
    );

    // The trace ring is the one debug ring: the slow-query log is gone.
    let (status, _, body) = get(addr, "/v1/debug/slow");
    assert_eq!(status, 404, "{body}");
    let doc = dod_wire::parse_json(&body).expect("json");
    let env = dod_wire::shapes::ErrorEnvelope::from_json(&doc).expect("envelope");
    assert_eq!(env.kind, "not_found");
    handle.shutdown();
}

/// A request's clock starts at its first byte: a keep-alive client's
/// think time before its second request is connection idle time, so it
/// must not land in that request's trace. The response write, after the
/// trace closes, is booked on its own counter.
#[test]
fn keep_alive_think_time_is_not_request_time() {
    let handle = serve(builder());
    let addr = handle.addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    for (i, think) in [(1, 0), (2, 300)] {
        std::thread::sleep(Duration::from_millis(think));
        write!(
            conn,
            "GET /healthz HTTP/1.1\r\nx-request-id: think-{i}\r\n\r\n"
        )
        .expect("send");
        let (status, _, _) = read_response(&mut reader);
        assert_eq!(status, 200);
    }
    // The connection's worker wrote the responses above before it read
    // this scrape, so the scrape already counts their write time.
    write!(conn, "GET /metrics HTTP/1.1\r\n\r\n").expect("send");
    let (status, _, metrics) = read_response(&mut reader);
    assert_eq!(status, 200);
    let written: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("dod_http_response_write_seconds_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no response-write counter: {metrics}"));
    assert!(written > 0.0, "response writes went untimed: {metrics}");
    // The connection stays open: its idle worker notices the shutdown
    // below within one idle poll.

    let (_, _, body) = get(addr, "/v1/debug/traces?route=/healthz");
    let doc = dod_wire::parse_json(&body).expect("traces json");
    let trace = doc
        .get("traces")
        .and_then(JsonValue::as_arr)
        .and_then(|ts| {
            ts.iter()
                .find(|t| t.get("request_id").and_then(JsonValue::as_str) == Some("think-2"))
        })
        .unwrap_or_else(|| panic!("second request not traced: {body}"));
    let nanos = trace
        .get("duration_ns")
        .and_then(JsonValue::as_usize)
        .expect("duration");
    assert!(
        nanos < 100_000_000,
        "300 ms of think time leaked into the trace: {nanos} ns"
    );
    handle.shutdown();
}

#[test]
fn inbound_request_ids_are_sanitized_not_trusted() {
    let handle = serve(builder());
    let (status, headers, _) = post(
        handle.addr(),
        "/v1/engines/e/query",
        r#"{"queries":[{"r":100.0,"k":40}]}"#,
        "x-request-id: bad id\"with{junk}\r\n",
    );
    assert_eq!(status, 200);
    // The hostile id is replaced by a generated one, never echoed.
    let echoed = header(&headers, "x-request-id").expect("some id is echoed");
    assert_ne!(echoed, "bad id\"with{junk}");
    assert!(echoed
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b"-_.:".contains(&b)));
    handle.shutdown();
}

#[test]
fn debug_traces_filter_by_route_and_min_ms() {
    let handle = serve(builder());
    let addr = handle.addr();
    let (status, _, _) = post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":100.0,"k":40}]}"#,
        "",
    );
    assert_eq!(status, 200);
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/v1/debug/traces?route=/v1/engines/{name}/query");
    assert_eq!(status, 200, "{body}");
    let doc = dod_wire::parse_json(&body).expect("json");
    let traces = doc
        .get("traces")
        .and_then(JsonValue::as_arr)
        .expect("traces");
    assert!(!traces.is_empty());
    for t in traces {
        assert_eq!(
            t.get("route").and_then(JsonValue::as_str),
            Some("/v1/engines/{name}/query")
        );
    }

    // An absurd floor filters everything out (requests here are fast).
    let (status, _, body) = get(addr, "/v1/debug/traces?min_ms=3600000");
    assert_eq!(status, 200);
    let doc = dod_wire::parse_json(&body).expect("json");
    assert_eq!(
        doc.get("traces")
            .and_then(JsonValue::as_arr)
            .map(<[_]>::len),
        Some(0)
    );

    // A malformed floor is a client error, not a shrug.
    let (status, _, body) = get(addr, "/v1/debug/traces?min_ms=soon");
    assert_eq!(status, 400, "{body}");

    // Unknown parameters and routes matching no mounted pattern are
    // named 400 envelopes too — not silently ignored filters.
    for q in ["?min_mss=5", "?route=/v1/quary"] {
        let (status, _, body) = get(addr, &format!("/v1/debug/traces{q}"));
        assert_eq!(status, 400, "{q}: {body}");
        let doc = dod_wire::parse_json(&body).expect("json");
        let env = dod_wire::shapes::ErrorEnvelope::from_json(&doc).expect("envelope");
        assert_eq!(env.kind, "bad_request", "{q}");
    }
    handle.shutdown();
}

/// `Engine::query_many` answers a repeated query once and clones the
/// report into every copy, so a batch of four copies does one query's
/// work: the trace's phase spans book exactly what `/metrics` booked,
/// and they fit inside the engine span that timed them.
#[test]
fn a_repeated_query_books_its_work_once() {
    let handle = serve(builder());
    let addr = handle.addr();
    let engine_series = |metrics: &str, name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}{{engine=\"e\"}} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name}: {metrics}"))
    };
    let (_, _, before) = get(addr, "/metrics");
    let q = r#"{"r":100.0,"k":40}"#;
    let (status, _, body) = post(
        addr,
        "/v1/engines/e/query",
        &format!(r#"{{"queries":[{q},{q},{q},{q}],"explain":true}}"#),
        "x-request-id: repeated\r\n",
    );
    assert_eq!(status, 200, "{body}");
    let (_, _, after) = get(addr, "/metrics");

    let (_, _, body) = get(addr, "/v1/debug/traces");
    let doc = dod_wire::parse_json(&body).expect("traces json");
    let trace = doc
        .get("traces")
        .and_then(JsonValue::as_arr)
        .and_then(|ts| {
            ts.iter()
                .find(|t| t.get("request_id").and_then(JsonValue::as_str) == Some("repeated"))
        })
        .unwrap_or_else(|| panic!("the batch is not traced: {body}"));
    assert_eq!(span_field(trace, "engine", "queries"), 4);
    for (span_name, field, series) in [
        ("filter", "dist_evals", "dod_cost_filter_dist_evals_total"),
        ("filter", "hops", "dod_cost_hops_total"),
        ("verify", "dist_evals", "dod_cost_verify_dist_evals_total"),
    ] {
        let booked = engine_series(&after, series) - engine_series(&before, series);
        let traced = span_field(trace, span_name, field);
        assert_eq!(traced, booked, "{span_name}.{field}: trace vs /metrics");
    }
    assert!(engine_series(&after, "dod_cost_filter_dist_evals_total") > 0);
    let phases = span_duration_ns(trace, "filter") + span_duration_ns(trace, "verify");
    let engine = span_duration_ns(trace, "engine");
    assert!(
        phases <= engine,
        "filter + verify ({phases} ns) outlast the engine span ({engine} ns): {trace:?}"
    );
    handle.shutdown();
}

/// The per-session cost series: a session books one window scan per
/// insert, visible as `dod_cost_insert_dist_evals_total`.
#[test]
fn metrics_expose_stream_cost_series() {
    let handle = serve(builder());
    let addr = handle.addr();
    let (status, _, _) = post(
        addr,
        "/v1/sessions/s1/ingest",
        r#"{"points":[[0.5],[0.6],[0.7],[0.8],[50.0]]}"#,
        "",
    );
    assert_eq!(status, 200);
    let (status, _, report) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 200, "{report}");
    let (_, _, metrics) = get(addr, "/metrics");
    let series_value = |name: &str| {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name}{{session=\"s1\"}}")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("missing {name}: {metrics}"))
    };
    assert!(
        series_value("dod_cost_insert_dist_evals_total") > 0.0,
        "exhaustive discovery scans the window: {metrics}"
    );
    assert!(series_value("dod_cost_query_decided_in_filter_total") >= 0.0);
    handle.shutdown();
}

#[test]
fn the_access_log_records_every_request_parsably() {
    let path = std::env::temp_dir().join(format!(
        "dod_access_log_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let log = std::fs::File::create(&path).expect("create log");
    let handle = serve(builder().access_log(log));
    let addr = handle.addr();

    let (status, headers, _) = post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":100.0,"k":40}]}"#,
        "x-request-id: logged-query\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("logged-query"));
    let (status, _, _) = post(
        addr,
        "/v1/sessions/s1/ingest",
        r#"{"points":[[0.5],[0.6],[0.7]]}"#,
        "x-request-id: logged-ingest\r\n",
    );
    assert_eq!(status, 200);
    // A routed client error: invalid JSON body on a real route.
    let (status, _, _) = post(
        addr,
        "/v1/engines/e/query",
        "{not json",
        "x-request-id: logged-bad\r\n",
    );
    assert_eq!(status, 400);
    // A pre-routing parse failure: no such method/target shape at all.
    let (status, _, _) = exchange(addr, "BOGUS\r\n\r\n");
    assert_eq!(status, 400);
    handle.shutdown();

    let text = std::fs::read_to_string(&path).expect("read log");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    // The two setup requests (engine and session creation) come first.
    assert_eq!(lines.len(), 6, "one line per request: {text}");
    let mut logged = Vec::new();
    for line in &lines[2..] {
        let doc = dod_wire::parse_json(line)
            .unwrap_or_else(|e| panic!("unparsable access-log line {line:?}: {e:?}"));
        assert!(
            doc.get("duration_ns")
                .and_then(JsonValue::as_usize)
                .unwrap()
                > 0,
            "{line}"
        );
        logged.push((
            doc.get("request_id")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string(),
            doc.get("route")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string(),
            doc.get("status").and_then(JsonValue::as_usize).unwrap() as u16,
        ));
    }
    assert_eq!(
        logged[0],
        (
            "logged-query".to_string(),
            "/v1/engines/{name}/query".to_string(),
            200
        )
    );
    assert_eq!(
        logged[1],
        (
            "logged-ingest".to_string(),
            "/v1/sessions/{id}/ingest".to_string(),
            200
        )
    );
    assert_eq!(
        logged[2],
        (
            "logged-bad".to_string(),
            "/v1/engines/{name}/query".to_string(),
            400
        )
    );
    // The unparsable request got a generated id and the synthetic route.
    assert_eq!(logged[3].1, "<parse>");
    assert_eq!(logged[3].2, 400);
    assert!(!logged[3].0.is_empty());
}

#[test]
fn parse_failures_are_counted_under_the_synthetic_route() {
    let handle = serve(builder());
    let addr = handle.addr();
    let (status, headers, _) = exchange(addr, "gibberish\r\n\r\n");
    assert_eq!(status, 400);
    // Even rejects carry a (generated) request id.
    assert!(header(&headers, "x-request-id").is_some());
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("dod_http_requests_total{route=\"<parse>\",status=\"400\"} 1"),
        "{metrics}"
    );
    handle.shutdown();
}
