//! End-to-end tests over real sockets: a server on an ephemeral port,
//! driven with hand-written HTTP/1.1, pinned byte-for-byte against the
//! in-process engines it fronts.

use dod_core::{IndexSpec, Query};
use dod_datasets::{EngineSpec, Family};
use dod_metrics::{Angular, VectorMetric, L1, L2, L4};
use dod_server::{encode, DodServer, ServerHandle};
use dod_shard::{ShardSpec, ShardedStreamDetector};
use dod_stream::{Backend, VectorSpace, WindowSpec};
use dod_wire::JsonValue;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A minimal test client: one HTTP/1.1 exchange on an existing
/// connection, returning `(status, body)`.
fn roundtrip(conn: &mut TcpStream, raw: &str) -> (u16, String) {
    conn.write_all(raw.as_bytes()).expect("send");
    read_response(&mut BufReader::new(conn.try_clone().expect("clone")))
}

fn read_response<R: BufRead>(r: &mut R) -> (u16, String) {
    let mut line = String::new();
    r.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        r.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
    roundtrip(&mut conn, raw)
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    send(addr, "POST", path, body)
}

/// Creates engine `e` over the wire; `spec` is the `PUT` body.
fn create_engine(addr: SocketAddr, spec: &str) {
    let (status, body) = send(addr, "PUT", "/v1/engines/e", spec);
    assert_eq!(status, 201, "{body}");
}

/// Opens session `s1` over the wire; `spec` is the `POST /v1/sessions`
/// body.
fn open_session(addr: SocketAddr, spec: &str) {
    let (status, body) = post(addr, "/v1/sessions", spec);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"id\":\"s1\""), "{body}");
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

/// A server with engine `e` plus an identically-specified in-process
/// twin.
fn engine_server() -> (ServerHandle, dod_datasets::AnyEngine) {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    create_engine(
        handle.addr(),
        r#"{"family":"sift","n":400,"seed":11,"index":"mrpg:6"}"#,
    );
    let twin = EngineSpec {
        family: Family::Sift,
        n: 400,
        seed: 11,
        index: IndexSpec::Mrpg(dod_graph::MrpgParams::new(6)),
    }
    .build()
    .expect("twin");
    (handle, twin)
}

/// The wire spelling of [`stream_detector`]'s parameters.
const SESSION_SPEC: &str = r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":64},"shards":2,"warmup":4,"pivots_per_shard":1}"#;

fn stream_detector() -> ShardedStreamDetector<VectorSpace<L2>> {
    ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        Query::new(1.0, 2).expect("query"),
        WindowSpec::Count(64),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4).with_pivots_per_shard(1),
    )
    .expect("detector")
}

/// Two far clusters plus boundary points, so a 2-shard partition must
/// ghost across the pair, and isolated points are outliers.
fn stream_points() -> Vec<Vec<f32>> {
    let mut pts = Vec::new();
    for i in 0..40 {
        pts.push(vec![if i % 2 == 0 {
            (i % 5) as f32 * 0.3
        } else {
            100.0 + (i % 5) as f32 * 0.3
        }]);
        if i % 10 == 9 {
            pts.push(vec![50.0 + (i % 3) as f32 * 0.1]); // boundary drifter
        }
    }
    pts.push(vec![-500.0]); // isolated: a certain outlier
    pts
}

/// The outliers of the in-process twin of the parity proptest's wire
/// session: a sharded detector over `metric` after ingesting `points`.
fn twin_outliers<M: VectorMetric + Clone + 'static>(
    metric: M,
    shards: usize,
    points: &[Vec<f32>],
) -> Vec<u64> {
    let mut twin = ShardedStreamDetector::open(
        VectorSpace::new(metric, 2),
        Query::new(0.8, 2).expect("query"),
        WindowSpec::Count(32),
        Backend::Exhaustive,
        ShardSpec::new(shards).with_warmup(8),
    )
    .expect("detector");
    for p in points {
        twin.insert(p.clone());
    }
    twin.outliers()
}

fn points_body(points: &[Vec<f32>]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            let cs: Vec<String> = p.iter().map(|c| format!("{c}")).collect();
            format!("[{}]", cs.join(","))
        })
        .collect();
    format!("{{\"points\":[{}]}}", rows.join(","))
}

#[test]
fn query_route_is_byte_identical_to_in_process_query_many() {
    let (handle, twin) = engine_server();
    let queries = [
        Query::new(60.0, 40).unwrap(),
        Query::new(120.0, 40).unwrap(),
        Query::new(60.0, 40).unwrap(), // duplicate: exercises batch dedupe
    ];
    let body = r#"{"queries":[{"r":60,"k":40},{"r":120,"k":40},{"r":60,"k":40}]}"#;
    let (status, http_body) = post(handle.addr(), "/v1/engines/e/query", body);
    assert_eq!(status, 200, "{http_body}");
    let expected = encode::query_response(&twin.query_many(&queries).expect("in-process"));
    assert_eq!(http_body, expected, "HTTP answer must be byte-identical");
    // The answer is meaningful, not vacuous: some outliers exist at the
    // tighter radius.
    assert!(http_body.contains("\"outliers\":["), "{http_body}");
    handle.shutdown();
}

/// EXPLAIN is additive and opt-in: `"explain": false` answers the exact
/// pre-EXPLAIN bytes (the absent-key case is pinned above), `"explain": true`
/// appends a deterministic `"cost"` plan to every result.
#[test]
fn explain_adds_a_cost_plan_and_off_stays_byte_identical() {
    let (handle, twin) = engine_server();
    let addr = handle.addr();
    let queries = [
        Query::new(80.0, 30).unwrap(),
        Query::new(120.0, 10).unwrap(),
    ];
    let reports = twin.query_many(&queries).expect("in-process");

    let body = r#"{"queries":[{"r":80,"k":30},{"r":120,"k":10}],"explain":false}"#;
    let (status, plain) = post(addr, "/v1/engines/e/query", body);
    assert_eq!(status, 200, "{plain}");
    assert_eq!(
        plain,
        encode::query_response(&reports),
        "explain: false answers the pre-EXPLAIN bytes"
    );

    let body = r#"{"queries":[{"r":80,"k":30},{"r":120,"k":10}],"explain":true}"#;
    let (status, explained) = post(addr, "/v1/engines/e/query", body);
    assert_eq!(status, 200, "{explained}");
    assert_eq!(
        explained,
        encode::query_response_explained(&reports, twin.len()),
        "the explained body is deterministic too"
    );
    let doc = dod_wire::parse_json(&explained).expect("json");
    let results = doc
        .get("results")
        .and_then(JsonValue::as_arr)
        .expect("results");
    assert_eq!(results.len(), 2);
    for (res, rep) in results.iter().zip(&reports) {
        let cost = res.get("cost").expect("each result carries its plan");
        let evals = |key: &str| {
            cost.get(key)
                .and_then(JsonValue::as_usize)
                .unwrap_or_else(|| panic!("missing {key}: {explained}")) as u64
        };
        assert_eq!(evals("filter_dist_evals"), rep.cost.filter_dist_evals);
        assert_eq!(evals("verify_dist_evals"), rep.cost.verify_dist_evals);
        assert_eq!(
            evals("total_dist_evals"),
            rep.cost.filter_dist_evals + rep.cost.verify_dist_evals
        );
        assert_eq!(evals("hops"), rep.cost.hops);
        assert!(
            evals("total_dist_evals") > 0,
            "a real query burns distances"
        );
        let power = cost
            .get("pruning_power")
            .and_then(JsonValue::as_f64)
            .expect("pruning_power");
        assert!((0.0..=1.0).contains(&power), "{power}");
    }
    handle.shutdown();
}

/// Typos anywhere in a query body are named 400s, not silent no-ops: a
/// client that misspells `"explain"` must not get an answer without the
/// plan it asked for.
#[test]
fn unknown_query_body_keys_answer_400_envelopes() {
    let (handle, _twin) = engine_server();
    let addr = handle.addr();
    for (body, needle) in [
        (r#"{"queries":[{"r":60,"k":40}],"explian":true}"#, "explian"),
        (r#"{"queries":[{"r":60,"k":40,"radius":2}]}"#, "radius"),
        (
            r#"{"queries":[{"r":60,"k":40}],"explain":"yes"}"#,
            "explain",
        ),
    ] {
        let (status, resp) = post(addr, "/v1/engines/e/query", body);
        assert_eq!(status, 400, "{body} -> {resp}");
        let doc = dod_wire::parse_json(&resp).expect("json");
        let env = dod_wire::shapes::ErrorEnvelope::from_json(&doc).expect("envelope");
        assert_eq!(env.kind, "bad_request");
        assert!(env.message.contains(needle), "{}", env.message);
    }
    // After the rejections, valid queries still answer.
    let (status, _) = post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":60,"k":40}]}"#,
    );
    assert_eq!(status, 200);
    handle.shutdown();
}

/// The `/metrics` cost series agree with the in-process twin's reports:
/// cumulative distance evaluations by phase, hops, filter effectiveness,
/// and a live pruning-power gauge.
#[test]
fn metrics_expose_cost_series_matching_the_twin() {
    let (handle, twin) = engine_server();
    let addr = handle.addr();
    let queries = [
        Query::new(60.0, 40).unwrap(),
        Query::new(120.0, 40).unwrap(),
    ];
    let reports = twin.query_many(&queries).expect("in-process");
    let (status, _) = post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":60,"k":40},{"r":120,"k":40}]}"#,
    );
    assert_eq!(status, 200);
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let mut expected = dod_core::CostReport::default();
    let (mut candidates, mut decided, mut false_pos) = (0usize, 0usize, 0usize);
    for rep in &reports {
        expected.absorb(&rep.cost);
        candidates += rep.candidates;
        decided += rep.decided_in_filter;
        false_pos += rep.false_positives;
    }
    let series = [
        (
            "dod_cost_filter_dist_evals_total",
            expected.filter_dist_evals,
        ),
        (
            "dod_cost_verify_dist_evals_total",
            expected.verify_dist_evals,
        ),
        ("dod_cost_hops_total", expected.hops),
        ("dod_cost_candidates_total", candidates as u64),
        ("dod_cost_decided_in_filter_total", decided as u64),
        ("dod_cost_false_positives_total", false_pos as u64),
    ];
    for (metric, want) in series {
        let got = metric_value(&text, &format!("{metric}{{engine=\"e\"}}")) as u64;
        assert_eq!(got, want, "{metric}: {text}");
    }
    let power = metric_value(&text, "dod_cost_pruning_power{engine=\"e\"}");
    let n = twin.len() as f64;
    let baseline = reports.len() as f64 * n * (n - 1.0);
    let want = (1.0 - expected.total_dist_evals() as f64 / baseline).max(0.0);
    assert!(
        (power - want).abs() < 1e-9,
        "pruning power {power} != twin's {want}"
    );
    handle.shutdown();
}

#[test]
fn wire_supplied_threads_are_clamped_server_side() {
    let (handle, twin) = engine_server();
    // A hostile thread count must not spawn 4 billion OS threads — the
    // server clamps it to its cap, and the (exact) answer is unchanged.
    let body = r#"{"queries":[{"r":60,"k":40,"threads":4000000000}]}"#;
    let (status, http_body) = post(handle.addr(), "/v1/engines/e/query", body);
    assert_eq!(status, 200, "{http_body}");
    let expected =
        encode::query_response(&twin.query_many(&[Query::new(60.0, 40).unwrap()]).unwrap());
    assert_eq!(http_body, expected, "clamping must not change the answer");
    handle.shutdown();
}

#[test]
fn whole_request_deadline_caps_slow_requests() {
    // Per-read timeout far above the request deadline: only the deadline
    // can explain a fast 408.
    let handle = DodServer::builder()
        .read_timeout(Duration::from_secs(5))
        .request_timeout(Duration::from_millis(300))
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let started = std::time::Instant::now();
    conn.write_all(b"GET /healthz HTT").expect("send");
    std::thread::sleep(Duration::from_millis(100));
    conn.write_all(b"P/1.1\r\nx-drip: 1\r\n").expect("send");
    // …then silence mid-headers: a slowloris client pacing bytes inside
    // the per-read timeout must still be cut off at the deadline.
    let (status, _body) = read_response(&mut BufReader::new(conn.try_clone().expect("clone")));
    assert_eq!(status, 408);
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the deadline, not the 5s read timeout, must answer: {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn http10_requests_default_to_connection_close() {
    let handle = DodServer::builder()
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
    conn.write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .expect("send");
    let mut all = String::new();
    std::io::Read::read_to_string(&mut conn, &mut all).expect("server must close after answering");
    assert!(all.starts_with("HTTP/1.1 200"), "{all}");
    assert!(all.contains("connection: close"), "{all}");
    handle.shutdown();
}

#[test]
fn ingest_and_report_match_the_in_process_sharded_detector() {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    open_session(handle.addr(), SESSION_SPEC);
    let mut twin = stream_detector();

    let points = stream_points();
    // Ingest in two chunks, with a mid-stream report in between — the
    // snapshot must reflect exactly the first chunk.
    let (first, rest) = points.split_at(points.len() / 2);
    for chunk in [first, rest] {
        let (status, body) = post(handle.addr(), "/v1/sessions/s1/ingest", &points_body(chunk));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, encode::ingest_response(chunk.len()));
        for p in chunk {
            twin.insert(p.clone());
        }
        let (status, http_report) = get(handle.addr(), "/v1/sessions/s1/report");
        assert_eq!(status, 200, "{http_report}");
        let expected = encode::stream_report_response(&twin.outliers());
        assert_eq!(http_report, expected, "snapshot must match the twin");
    }
    // The planted isolated point is among the reported outliers.
    let (_, http_report) = get(handle.addr(), "/v1/sessions/s1/report");
    let isolated_seq = points.len() as u64 - 1;
    assert!(
        http_report.contains(&isolated_seq.to_string()),
        "isolated point must be reported: {http_report}"
    );
    // And the twin agrees with its own from-scratch audit.
    assert_eq!(twin.outliers(), twin.audit());
    handle.shutdown();
}

#[test]
fn metrics_expose_query_counters_latency_buckets_and_ghost_rates() {
    let (handle, _twin) = engine_server();
    let addr = handle.addr();
    // Drive the query route: 1 batch of 3 (one duplicate) + 1 batch of 1.
    post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":60,"k":40},{"r":120,"k":40},{"r":60,"k":40}]}"#,
    );
    post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":60,"k":40}]}"#,
    );
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // Engine series are labeled by registry name.
    assert!(
        text.contains("dod_engine_queries_total{engine=\"e\"} 4"),
        "{text}"
    );
    assert!(
        text.contains("dod_engine_batches_total{engine=\"e\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("dod_engine_query_errors_total{engine=\"e\"} 0"),
        "{text}"
    );
    assert!(text.contains("dod_engine_resident 1"), "{text}");
    // Histogram: buckets, +Inf, sum and count; 3 timed observations (the
    // duplicate was answered by clone, not re-timed).
    assert!(
        text.contains("dod_engine_query_latency_seconds_bucket{engine=\"e\",le=\"+Inf\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("dod_engine_query_latency_seconds_bucket{engine=\"e\",le=\"0.000001\"}"),
        "{text}"
    );
    assert!(
        text.contains("dod_engine_query_latency_seconds_sum{engine=\"e\"}"),
        "{text}"
    );
    assert!(
        text.contains("dod_engine_query_latency_seconds_count{engine=\"e\"} 3"),
        "{text}"
    );
    // Request accounting by route pattern and status, plus the per-route
    // latency histogram and pool gauges that ride along.
    assert!(
        text.contains(
            "dod_http_requests_total{route=\"/v1/engines/{name}/query\",status=\"200\"} 2"
        ),
        "{text}"
    );
    assert!(
        text.contains("dod_http_request_seconds_count{route=\"/v1/engines/{name}/query\"} 2"),
        "{text}"
    );
    assert!(text.contains("dod_http_queue_wait_seconds_count"), "{text}");
    assert!(text.contains("dod_pool_workers "), "{text}");
    handle.shutdown();

    // Stream-backed server: ghost-pair counters and rates after load.
    let handle = DodServer::builder()
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    open_session(handle.addr(), SESSION_SPEC);
    let (status, body) = post(
        handle.addr(),
        "/v1/sessions/s1/ingest",
        &points_body(&stream_points()),
    );
    assert_eq!(status, 200, "{body}");
    let (_, _) = get(handle.addr(), "/v1/sessions/s1/report"); // barrier: drain queues
    let (status, text) = get(handle.addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("dod_stream_inserts_total{session=\"s1\"}"),
        "{text}"
    );
    assert!(
        text.contains("dod_stream_ghost_inserts_total{session=\"s1\"}"),
        "{text}"
    );
    assert!(text.contains("dod_session_active 1"), "{text}");
    // The boundary drifters must have ghosted across the shard pair, in
    // at least one direction.
    let ghost_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("dod_shard_ghost_routes_total{"))
        .collect();
    assert_eq!(
        ghost_lines.len(),
        2,
        "S=2 has two off-diagonal pairs: {text}"
    );
    let total_ghosts: u64 = ghost_lines
        .iter()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(total_ghosts > 0, "boundary points must replicate: {text}");
    assert!(
        text.contains("dod_shard_ghost_rate{session=\"s1\",owner=\"0\",target=\"1\"}"),
        "{text}"
    );
    assert!(
        text.contains("dod_shard_ghost_rate{session=\"s1\",owner=\"1\",target=\"0\"}"),
        "{text}"
    );
    // Ghost rates are per-owner: rate[o][t] = routes[o][t] / owned[o],
    // and the owned counts partition the stream exactly.
    let owned0 = metric_value(
        &text,
        "dod_shard_owned_points_total{session=\"s1\",shard=\"0\"}",
    );
    let owned1 = metric_value(
        &text,
        "dod_shard_owned_points_total{session=\"s1\",shard=\"1\"}",
    );
    assert_eq!((owned0 + owned1) as usize, stream_points().len(), "{text}");
    let routes01 = metric_value(
        &text,
        "dod_shard_ghost_routes_total{session=\"s1\",owner=\"0\",target=\"1\"}",
    );
    let rate01 = metric_value(
        &text,
        "dod_shard_ghost_rate{session=\"s1\",owner=\"0\",target=\"1\"}",
    );
    assert!(owned0 > 0.0 && owned1 > 0.0, "{text}");
    assert!(
        (rate01 - routes01 / owned0).abs() < 1e-9,
        "rate must divide by the owner shard's owned count: {text}"
    );
    handle.shutdown();
}

/// The numeric value of the first metric line starting with `line_start`.
fn metric_value(text: &str, line_start: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(line_start))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing metric {line_start}: {text}"))
}

#[test]
fn malformed_requests_get_typed_4xx_and_the_server_survives() {
    let handle = DodServer::builder()
        .max_body_bytes(1024)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    create_engine(
        addr,
        r#"{"family":"sift","n":120,"seed":3,"index":"vptree"}"#,
    );
    open_session(addr, SESSION_SPEC);

    // Bad JSON.
    let (status, body) = post(addr, "/v1/engines/e/query", "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("\"kind\":\"bad_json\""), "{body}");
    // Wrong shape.
    let (status, body) = post(addr, "/v1/engines/e/query", r#"{"nope":1}"#);
    assert_eq!(status, 400, "{body}");
    // Invalid radius: the DodError variant comes through as the kind.
    let (status, body) = post(
        addr,
        "/v1/engines/e/query",
        r#"{"queries":[{"r":-2,"k":3}]}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("\"kind\":\"invalid_radius\""), "{body}");
    assert!(body.contains("finite non-negative"), "{body}");
    // Wrong family: a string where this stream's vectors belong.
    let (status, body) = post(addr, "/v1/sessions/s1/ingest", r#"{"points":["hello"]}"#);
    assert_eq!(status, 400);
    assert!(body.contains("\"kind\":\"family_mismatch\""), "{body}");
    // Wrong dimension.
    let (status, body) = post(addr, "/v1/sessions/s1/ingest", r#"{"points":[[1.0,2.0]]}"#);
    assert_eq!(status, 400);
    assert!(body.contains("\"kind\":\"family_mismatch\""), "{body}");
    // Oversized body: rejected from the Content-Length alone.
    let big = format!("{{\"points\":[{}]}}", "[1.0],".repeat(400) + "[1.0]");
    let (status, body) = post(addr, "/v1/sessions/s1/ingest", &big);
    assert_eq!(status, 413, "{body}");
    // Unknown route, wrong method, garbage request line, chunked bodies.
    let (status, _) = get(addr, "/v2/nope");
    assert_eq!(status, 404);
    // The retired singleton route is an unknown path like any other.
    let (status, body) = post(addr, "/v1/query", r#"{"queries":[{"r":1,"k":1}]}"#);
    assert_eq!(status, 404, "{body}");
    let doc = dod_wire::parse_json(&body).expect("json");
    let env = dod_wire::shapes::ErrorEnvelope::from_json(&doc).expect("envelope");
    assert_eq!(env.kind, "not_found");
    let (status, _) = get(addr, "/v1/engines/e/query");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "total garbage\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _) = request(
        addr,
        "POST /v1/engines/e/query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 501);

    // After all of that abuse the server still answers.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok","engines":1,"sessions":1}"#);
    // The stream session survived the rejected ingests untouched: no
    // point ever reached it.
    let (status, report) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 200);
    assert_eq!(report, encode::stream_report_response(&[]));
    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (handle, twin) = engine_server();
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let body = r#"{"queries":[{"r":60,"k":40}]}"#;
    let expected =
        encode::query_response(&twin.query_many(&[Query::new(60.0, 40).unwrap()]).unwrap());
    for _ in 0..3 {
        let (status, resp) = roundtrip(
            &mut conn,
            &format!(
                "POST /v1/engines/e/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(status, 200);
        assert_eq!(resp, expected);
    }
    // healthz on the same connection, then an explicit close.
    let (status, _) = roundtrip(
        &mut conn,
        "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    handle.shutdown();
}

/// Idle clients must not starve new connections: a worker parked on an
/// idle connection gives itself back once another connection is queued,
/// instead of holding out until the read timeout. That holds between
/// requests and before the first one (a pre-opened pool, a slowloris
/// opener).
#[test]
fn idle_keep_alive_clients_do_not_block_new_connections() {
    let handle = DodServer::builder()
        .workers(2)
        .read_timeout(Duration::from_secs(5))
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    for served_once in [true, false] {
        // As many idle clients as workers, left open.
        let idle: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut conn = TcpStream::connect(handle.addr()).expect("connect");
                conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
                if served_once {
                    let (status, _) = roundtrip(&mut conn, "GET /healthz HTTP/1.1\r\n\r\n");
                    assert_eq!(status, 200);
                }
                conn
            })
            .collect();
        let started = std::time::Instant::now();
        let (status, _) = get(handle.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a new connection waited {:?} behind idle clients (served once: {served_once})",
            started.elapsed()
        );
        drop(idle);
    }
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary (r, k) batches, the HTTP answer equals the wire
    /// encoding of the in-process `query_many` answer, byte for byte.
    #[test]
    fn http_query_parity_for_arbitrary_batches(
        rs in proptest::collection::vec(0.0f64..200.0, 1..4),
        ks in proptest::collection::vec(0usize..60, 1..4),
        seed in 0u64..100,
    ) {
        let handle = DodServer::builder()
            .workers(1)
            .bind("127.0.0.1:0")
            .expect("bind")
            .start();
        create_engine(
            handle.addr(),
            &format!(r#"{{"family":"sift","n":150,"seed":{seed},"index":"vptree"}}"#),
        );
        let twin = EngineSpec {
            family: Family::Sift,
            n: 150,
            seed,
            index: IndexSpec::VpTree,
        }
        .build()
        .expect("twin");
        let queries: Vec<Query> = rs
            .iter()
            .zip(&ks)
            .map(|(&r, &k)| Query::new(r, k).expect("valid"))
            .collect();
        let items: Vec<String> = queries
            .iter()
            .map(|q| format!("{{\"r\":{},\"k\":{}}}", q.r(), q.k()))
            .collect();
        let (status, http_body) = post(
            handle.addr(),
            "/v1/engines/e/query",
            &format!("{{\"queries\":[{}]}}", items.join(",")),
        );
        prop_assert_eq!(status, 200);
        let expected = encode::query_response(&twin.query_many(&queries).expect("in-process"));
        prop_assert_eq!(http_body, expected);
        handle.shutdown();
    }

    /// For arbitrary streams, shard counts and served metrics,
    /// ingest→report over HTTP matches the in-process sharded detector,
    /// byte for byte.
    #[test]
    fn http_stream_parity_for_arbitrary_streams(
        shards in 1usize..4,
        n in 20usize..80,
        seed in 0u64..100,
        metric in 0usize..4,
    ) {
        let metric = ["l1", "l2", "l4", "angular"][metric];
        let points = dod_datasets::StreamScenario {
            clusters: 2,
            outlier_rate: 0.1,
            ..dod_datasets::StreamScenario::new(2)
        }
        .generate(n, seed);
        let handle = DodServer::builder()
            .workers(1)
            .bind("127.0.0.1:0")
            .expect("bind")
            .start();
        open_session(
            handle.addr(),
            &format!(
                r#"{{"metric":"{metric}","dim":2,"r":0.8,"k":2,"window":{{"count":32}},"shards":{shards},"warmup":8}}"#
            ),
        );
        let twin = match metric {
            "l1" => twin_outliers(L1, shards, &points),
            "l2" => twin_outliers(L2, shards, &points),
            "l4" => twin_outliers(L4, shards, &points),
            _ => twin_outliers(Angular, shards, &points),
        };
        let (status, body) = post(
            handle.addr(),
            "/v1/sessions/s1/ingest",
            &points_body(&points),
        );
        prop_assert_eq!(status, 200, "{}", body);
        let (status, http_report) = get(handle.addr(), "/v1/sessions/s1/report");
        prop_assert_eq!(status, 200);
        prop_assert_eq!(http_report, encode::stream_report_response(&twin));
        handle.shutdown();
    }
}
