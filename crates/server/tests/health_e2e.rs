//! End-to-end tests for the index-health surface: the
//! `GET /v1/debug/health` document (recall audits, index structure,
//! shard balance), its strict query validation, its byte-stability
//! across idle scrapes, the `dod_graph_*` / `dod_shard_balance_*`
//! metric families next to the exact phase-time counters, and the audit
//! knobs' journey through session creation and recovery.

use dod_server::DodServer;
use dod_wire::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(raw.as_bytes()).expect("send");
    let mut r = BufReader::new(conn);
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

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, "")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, body)
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dod_health_e2e_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn parse(body: &str) -> JsonValue {
    dod_wire::parse_json(body).unwrap_or_else(|e| panic!("not JSON ({e}): {body}"))
}

fn assert_envelope(body: &str, kind: &str) {
    let doc = parse(body);
    let envelope =
        dod_wire::shapes::ErrorEnvelope::from_json(&doc).unwrap_or_else(|| panic!("{body}"));
    assert_eq!(envelope.kind, kind, "{body}");
}

/// A session spec that audits every insert against brute force, so a
/// short stream still accumulates a meaningful audit count.
const AUDITED: &str = r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":32},"shards":2,"warmup":4,"sample_rate":1,"audit_sample":4}"#;

fn ingest_grid(addr: SocketAddr, path: &str, n: usize) {
    let rows: Vec<String> = (0..n)
        .map(|i| format!("[{},{}]", (i % 7) as f64 * 0.1, (i % 5) as f64 * 0.1))
        .collect();
    let (status, body) = post(addr, path, &format!("{{\"points\":[{}]}}", rows.join(",")));
    assert_eq!(status, 200, "{body}");
}

#[test]
fn health_reports_recall_audits_index_structure_and_balance() {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let (status, body) = post(addr, "/v1/sessions", AUDITED);
    assert_eq!(status, 201, "{body}");
    ingest_grid(addr, "/v1/sessions/s1/ingest", 24);
    let (status, body) = get(addr, "/v1/debug/health");
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body);
    let sessions = doc
        .get("sessions")
        .and_then(JsonValue::as_arr)
        .expect("sessions");
    assert_eq!(sessions.len(), 1);
    let s = &sessions[0];
    assert_eq!(s.get("id").and_then(JsonValue::as_str), Some("s1"));
    assert_eq!(s.get("alive").and_then(JsonValue::as_bool), Some(true));
    let recall = s.get("recall").expect("recall section");
    let audits = recall.get("audits").and_then(JsonValue::as_usize).unwrap();
    assert!(audits > 0, "sample_rate=1 must audit: {body}");
    // Wire sessions run the exhaustive backend: discovery *is* the
    // brute-force scan, so the audited recall is exactly 1.
    assert_eq!(
        recall.get("estimate").and_then(JsonValue::as_f64),
        Some(1.0)
    );
    let index = s.get("index").expect("index section");
    assert_eq!(index.get("exact").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        index.get("tombstone_ratio").and_then(JsonValue::as_f64),
        Some(0.0),
        "exhaustive backends carry no tombstones"
    );
    let hist = index
        .get("degree_hist")
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert_eq!(hist.len(), 9, "bucket count is pinned");
    let balance = s.get("balance").expect("balance section");
    assert_eq!(
        balance
            .get("shards")
            .and_then(JsonValue::as_arr)
            .map(<[JsonValue]>::len),
        Some(2)
    );
    let owned = balance.get("owned").and_then(JsonValue::as_usize).unwrap();
    assert!(owned > 0 && owned <= 24, "{body}");
    assert!(
        balance
            .get("owned_skew")
            .and_then(JsonValue::as_f64)
            .unwrap()
            >= 1.0,
        "skew is max/mean"
    );
    handle.shutdown();
}

#[test]
fn health_filters_are_strict_and_name_their_mistakes() {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let (status, body) = post(addr, "/v1/sessions", AUDITED);
    assert_eq!(status, 201, "{body}");
    // A matching filter narrows the document to that resource.
    let (status, body) = get(addr, "/v1/debug/health?session=s1");
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body);
    assert_eq!(
        doc.get("sessions")
            .and_then(JsonValue::as_arr)
            .map(<[JsonValue]>::len),
        Some(1)
    );
    // A well-formed id that matches nothing is a 404, not an empty 200.
    let (status, body) = get(addr, "/v1/debug/health?session=s99");
    assert_eq!(status, 404, "{body}");
    assert_envelope(&body, "not_found");
    let (status, body) = get(addr, "/v1/debug/health?engine=nope");
    assert_eq!(status, 404, "{body}");
    assert_envelope(&body, "not_found");
    // Unknown keys and malformed names are named 400s.
    let (status, body) = get(addr, "/v1/debug/health?sesion=s1");
    assert_eq!(status, 400, "{body}");
    assert_envelope(&body, "bad_request");
    assert!(body.contains("sesion"), "{body}");
    let (status, body) = get(addr, "/v1/debug/health?session=bad%20name");
    assert_eq!(status, 400, "{body}");
    assert_envelope(&body, "bad_request");
    // Wrong method.
    let (status, body) = post(addr, "/v1/debug/health", "{}");
    assert_eq!(status, 405, "{body}");
    handle.shutdown();
}

/// The acceptance bar for the whole document: with no intervening
/// ingest, two scrapes answer *identical bytes*, however much wall time
/// passes in between. Everything rendered is ingest-driven (counters,
/// balance), and the health barrier itself books no work.
#[test]
fn health_is_byte_stable_across_idle_scrapes() {
    let data_dir = scratch("stable");
    let handle = DodServer::builder()
        .workers(2)
        .data_dir(&data_dir)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let create = r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":32},"shards":2,"warmup":4,"durable":true,"sample_rate":1,"audit_sample":4}"#;
    let (status, body) = post(addr, "/v1/sessions", create);
    assert_eq!(status, 201, "{body}");
    ingest_grid(addr, "/v1/sessions/s1/ingest", 24);
    let (status, first) = get(addr, "/v1/debug/health");
    assert_eq!(status, 200, "{first}");
    // Let wall time pass: if the scrape or anything time-driven
    // perturbed the document, this window would catch it.
    std::thread::sleep(Duration::from_millis(120));
    let (status, second) = get(addr, "/v1/debug/health");
    assert_eq!(status, 200);
    assert_eq!(first, second, "idle scrapes must be byte-identical");
    // Ingest is what moves the document.
    ingest_grid(addr, "/v1/sessions/s1/ingest", 4);
    let (_, third) = get(addr, "/v1/debug/health");
    assert_ne!(second, third, "ingest must move the document");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn audit_knobs_are_validated_and_survive_recovery() {
    let data_dir = scratch("knobs");
    let handle = DodServer::builder()
        .workers(2)
        .data_dir(&data_dir)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    // sample_rate=0 is a typed 400 at creation, not a silent clamp —
    // and no session slot is consumed by the refusal.
    let zero =
        r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":32},"shards":1,"sample_rate":0}"#;
    let (status, body) = post(addr, "/v1/sessions", zero);
    assert_eq!(status, 400, "{body}");
    assert_envelope(&body, "invalid_spec");
    assert!(
        body.contains("audit_sample"),
        "hints the off switch: {body}"
    );
    // A durable session's audit cadence lives in its manifest…
    let create = r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":32},"shards":2,"warmup":4,"durable":true,"sample_rate":1,"audit_sample":4}"#;
    let (status, body) = post(addr, "/v1/sessions", create);
    assert_eq!(status, 201, "{body}");
    ingest_grid(addr, "/v1/sessions/s1/ingest", 16);
    let audits_of = |body: &str| {
        parse(body)
            .get("sessions")
            .and_then(JsonValue::as_arr)
            .and_then(|s| s.first()?.get("recall")?.get("audits")?.as_usize())
            .unwrap_or_else(|| panic!("no audit count in {body}"))
    };
    let (_, body) = get(addr, "/v1/debug/health?session=s1");
    assert!(audits_of(&body) > 0, "{body}");
    handle.shutdown();
    // …so recovery re-applies it: the replayed window plus fresh ingest
    // keep auditing without the client re-sending the knobs.
    let handle = DodServer::builder()
        .workers(2)
        .data_dir(&data_dir)
        .bind("127.0.0.1:0")
        .expect("rebind")
        .start();
    let addr = handle.addr();
    let (_, before) = get(addr, "/v1/debug/health?session=s1");
    ingest_grid(addr, "/v1/sessions/s1/ingest", 8);
    let (_, after) = get(addr, "/v1/debug/health?session=s1");
    assert!(
        audits_of(&after) > audits_of(&before),
        "recovered session keeps auditing: {before} -> {after}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
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
fn metrics_carry_graph_balance_and_profile_series() {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let (status, body) = post(addr, "/v1/sessions", AUDITED);
    assert_eq!(status, 201, "{body}");
    ingest_grid(addr, "/v1/sessions/s1/ingest", 24);
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "dod_graph_recall_estimate{session=\"s1\"} 1",
        "dod_graph_recall_audits_total{session=\"s1\"}",
        "dod_graph_tombstone_ratio{session=\"s1\"} 0",
        "dod_graph_live_nodes{session=\"s1\"}",
        "dod_graph_degree_nodes{session=\"s1\",le=\"+Inf\"}",
        "dod_shard_balance_owned_skew{session=\"s1\"}",
        "dod_shard_balance_slide_skew{session=\"s1\"}",
        "dod_shard_balance_ghost_rate{session=\"s1\",shard=\"0\"}",
        "dod_shard_balance_ghost_rate{session=\"s1\",shard=\"1\"}",
        "dod_pool_busy_workers ",
    ] {
        assert!(metrics.contains(series), "missing {series}");
    }
    // The exact counters that carry each pipeline phase's wall time:
    // routing on the router thread, inserts on the shard pumps. The
    // scrape's stats barrier runs behind the ingest, so both have moved.
    for phase in [
        "dod_shard_route_seconds_total{session=\"s1\"} ",
        "dod_stream_insert_seconds_total{session=\"s1\"} ",
    ] {
        assert!(metric_value(&metrics, phase) > 0.0, "{phase}not timed");
    }
    handle.shutdown();
}
