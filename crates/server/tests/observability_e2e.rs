//! End-to-end observability tests: request ids echoed over real
//! sockets, the `/v1/debug/traces` ring, per-route `/metrics` series,
//! and the JSON-lines access log — all driven with hand-written
//! HTTP/1.1 against a server on an ephemeral port.

use dod_core::{IndexSpec, Query};
use dod_datasets::Family;
use dod_metrics::L2;
use dod_server::DodServer;
use dod_shard::{ShardSpec, ShardedStreamDetector};
use dod_stream::{Backend, VectorSpace, WindowSpec};
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

fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    extra: &str,
) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n{extra}connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

fn builder() -> dod_server::ServerBuilder {
    let engine = Family::Sift
        .generate(300, 11)
        .data
        .into_engine()
        .index(IndexSpec::Mrpg(dod_graph::MrpgParams::new(6)))
        .build()
        .expect("engine");
    let stream = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        Query::new(1.0, 2).expect("query"),
        WindowSpec::Count(64),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4).with_pivots_per_shard(1),
    )
    .expect("detector");
    DodServer::builder()
        .engine(engine)
        .stream(stream)
        .workers(2)
}

/// A trace object's span by name, if present.
fn span<'a>(trace: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    trace
        .get("spans")
        .and_then(JsonValue::as_arr)?
        .iter()
        .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
}

fn span_duration_ns(trace: &JsonValue, name: &str) -> u64 {
    span(trace, name)
        .and_then(|s| s.get("duration_ns"))
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("span {name} missing: {trace:?}")) as u64
}

#[test]
fn a_query_is_traced_from_queue_wait_to_filter_and_verify() {
    let handle = builder().bind("127.0.0.1:0").expect("bind").start();
    let addr = handle.addr();

    let (status, headers, _) = post(
        addr,
        "/v1/query",
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
        Some("/v1/query")
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
    let filter = span(trace, "filter")
        .unwrap()
        .get("fields")
        .expect("fields");
    assert!(filter
        .get("candidates")
        .and_then(JsonValue::as_usize)
        .is_some());

    // The same request shows up in the per-route×status counters.
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("dod_http_requests_total{route=\"/v1/query\",status=\"200\"} 1"),
        "{metrics}"
    );
    handle.shutdown();
}

/// A request's clock starts at its first byte: a keep-alive client's
/// think time before its second request is connection idle time, so it
/// must not land in that request's trace.
#[test]
fn keep_alive_think_time_is_not_request_time() {
    let handle = builder().bind("127.0.0.1:0").expect("bind").start();
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
    // Close before shutdown: an open keep-alive socket would hold its
    // worker until the read timeout.
    drop(reader);
    drop(conn);

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
    let handle = builder().bind("127.0.0.1:0").expect("bind").start();
    let (status, headers, _) = post(
        handle.addr(),
        "/v1/query",
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
    let handle = builder().bind("127.0.0.1:0").expect("bind").start();
    let addr = handle.addr();
    let (status, _, _) = post(addr, "/v1/query", r#"{"queries":[{"r":100.0,"k":40}]}"#, "");
    assert_eq!(status, 200);
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/v1/debug/traces?route=/v1/query");
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
            Some("/v1/query")
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

/// The slow-query log: bounded, slowest-first, filterable, and joined
/// to the trace ring through the request id each entry records.
#[test]
fn debug_slow_serves_the_bounded_ring_with_request_id_linkage() {
    let handle = builder()
        .slow_query_capacity(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();

    // Empty before any query — and the capacity knob is echoed.
    let (status, _, body) = get(addr, "/v1/debug/slow");
    assert_eq!(status, 200, "{body}");
    let doc = dod_wire::parse_json(&body).expect("json");
    assert_eq!(
        doc.get("slow").and_then(JsonValue::as_arr).map(<[_]>::len),
        Some(0)
    );
    assert_eq!(doc.get("capacity").and_then(JsonValue::as_usize), Some(2));

    for id in ["slow-a", "slow-b", "slow-c"] {
        let (status, _, _) = post(
            addr,
            "/v1/query",
            r#"{"queries":[{"r":100.0,"k":40}]}"#,
            &format!("x-request-id: {id}\r\n"),
        );
        assert_eq!(status, 200);
    }

    let (status, _, body) = get(addr, "/v1/debug/slow");
    assert_eq!(status, 200);
    let doc = dod_wire::parse_json(&body).expect("json");
    let slow = doc.get("slow").and_then(JsonValue::as_arr).expect("slow");
    assert_eq!(slow.len(), 2, "capacity bounds the log: {body}");
    let duration = |e: &JsonValue| {
        e.get("duration_ns")
            .and_then(JsonValue::as_usize)
            .expect("duration_ns")
    };
    assert!(
        duration(&slow[0]) >= duration(&slow[1]),
        "slowest first: {body}"
    );
    let (_, _, traces_body) = get(addr, "/v1/debug/traces");
    let traces_doc = dod_wire::parse_json(&traces_body).expect("traces json");
    let traces = traces_doc
        .get("traces")
        .and_then(JsonValue::as_arr)
        .expect("traces");
    for e in slow {
        assert_eq!(e.get("engine").and_then(JsonValue::as_str), Some("default"));
        assert_eq!(e.get("queries").and_then(JsonValue::as_usize), Some(1));
        let cost = e.get("cost").expect("cost plan");
        assert!(
            cost.get("total_dist_evals")
                .and_then(JsonValue::as_usize)
                .expect("total_dist_evals")
                > 0,
            "{body}"
        );
        let power = cost
            .get("pruning_power")
            .and_then(JsonValue::as_f64)
            .expect("pruning_power");
        assert!((0.0..=1.0).contains(&power), "{power}");
        // The entry's request id resolves in the trace ring: the two
        // debug endpoints join on it.
        let id = e
            .get("request_id")
            .and_then(JsonValue::as_str)
            .expect("request_id");
        assert!(id.starts_with("slow-"), "{id}");
        assert!(
            traces
                .iter()
                .any(|t| t.get("request_id").and_then(JsonValue::as_str) == Some(id)),
            "{id} not found in the trace ring: {traces_body}"
        );
    }

    // Filters mirror the traces ring: an absurd floor empties the view,
    // an unknown engine matches nothing, and mistakes are named 400s.
    for (query, expect_empty) in [("?min_ms=3600000", true), ("?engine=absent", true)] {
        let (status, _, body) = get(addr, &format!("/v1/debug/slow{query}"));
        assert_eq!(status, 200, "{query}: {body}");
        let doc = dod_wire::parse_json(&body).expect("json");
        let len = doc.get("slow").and_then(JsonValue::as_arr).map(<[_]>::len);
        assert_eq!(len == Some(0), expect_empty, "{query}: {body}");
    }
    for q in ["?min_ms=soon", "?route=/v1/query", "?engine=bad%20name"] {
        let (status, _, body) = get(addr, &format!("/v1/debug/slow{q}"));
        assert_eq!(status, 400, "{q}: {body}");
        let doc = dod_wire::parse_json(&body).expect("json");
        let env = dod_wire::shapes::ErrorEnvelope::from_json(&doc).expect("envelope");
        assert_eq!(env.kind, "bad_request", "{q}");
    }
    handle.shutdown();
}

/// The per-session cost series: an exhaustive-backend session books one
/// window scan per insert, visible as `dod_cost_insert_dist_evals_total`.
#[test]
fn metrics_expose_stream_cost_series() {
    let handle = builder().bind("127.0.0.1:0").expect("bind").start();
    let addr = handle.addr();
    let (status, _, _) = post(
        addr,
        "/v1/ingest",
        r#"{"points":[[0.5],[0.6],[0.7],[0.8],[50.0]]}"#,
        "",
    );
    assert_eq!(status, 200);
    let (status, _, report) = get(addr, "/v1/report");
    assert_eq!(status, 200, "{report}");
    let (_, _, metrics) = get(addr, "/metrics");
    let series_value = |name: &str| {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name}{{session=\"default\"}}")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("missing {name}: {metrics}"))
    };
    assert!(
        series_value("dod_cost_insert_dist_evals_total") > 0.0,
        "exhaustive discovery scans the window: {metrics}"
    );
    // An exact backend never walks a graph and needs no repair.
    assert_eq!(series_value("dod_cost_insert_hops_total"), 0.0);
    assert_eq!(series_value("dod_cost_query_dist_evals_total"), 0.0);
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
    let handle = builder()
        .access_log(log)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();

    let (status, headers, _) = post(
        addr,
        "/v1/query",
        r#"{"queries":[{"r":100.0,"k":40}]}"#,
        "x-request-id: logged-query\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("logged-query"));
    let (status, _, _) = post(
        addr,
        "/v1/ingest",
        r#"{"points":[[0.5],[0.6],[0.7]]}"#,
        "x-request-id: logged-ingest\r\n",
    );
    assert_eq!(status, 200);
    // A routed client error: invalid JSON body on a real route.
    let (status, _, _) = post(
        addr,
        "/v1/query",
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
    assert_eq!(lines.len(), 4, "one line per request: {text}");
    let mut logged = Vec::new();
    for line in &lines {
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
        ("logged-query".to_string(), "/v1/query".to_string(), 200)
    );
    assert_eq!(
        logged[1],
        ("logged-ingest".to_string(), "/v1/ingest".to_string(), 200)
    );
    assert_eq!(
        logged[2],
        ("logged-bad".to_string(), "/v1/query".to_string(), 400)
    );
    // The unparsable request got a generated id and the synthetic route.
    assert_eq!(logged[3].1, "<parse>");
    assert_eq!(logged[3].2, 400);
    assert!(!logged[3].0.is_empty());
}

#[test]
fn parse_failures_are_counted_under_the_synthetic_route() {
    let handle = builder().bind("127.0.0.1:0").expect("bind").start();
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
