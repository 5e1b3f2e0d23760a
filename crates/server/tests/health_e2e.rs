//! End-to-end tests for the health surface: the `GET /v1/debug/health`
//! document (engine footprints, per-session shard balance), its strict
//! query validation, its byte-stability across idle scrapes, the
//! `dod_shard_balance_*` metric families next to the exact phase-time
//! counters, one consistent cut per scrape under live ingest, and the
//! absence of graph and recall-audit output for wire sessions, which
//! all run the exhaustive backend — in a scrape, in the health document,
//! and in a durable manifest written when sessions still took audit
//! knobs.

use dod_server::DodServer;
use dod_wire::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// A 2-shard session whose short warm-up partitions a short stream.
const SHARDED: &str =
    r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":32},"shards":2,"warmup":4}"#;

fn ingest_grid(addr: SocketAddr, path: &str, n: usize) {
    let rows: Vec<String> = (0..n)
        .map(|i| format!("[{},{}]", (i % 7) as f64 * 0.1, (i % 5) as f64 * 0.1))
        .collect();
    let (status, body) = post(addr, path, &format!("{{\"points\":[{}]}}", rows.join(",")));
    assert_eq!(status, 200, "{body}");
}

#[test]
fn health_reports_shard_balance_per_session() {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let (status, body) = post(addr, "/v1/sessions", SHARDED);
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
    // Wire sessions run the exhaustive backend: no graph to describe and
    // no recall audit, so the row carries no section about either.
    let JsonValue::Obj(fields) = s else {
        panic!("session row is not an object: {body}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["id", "metric", "shards", "durable", "alive", "balance"],
        "{body}"
    );
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
    let (status, body) = post(addr, "/v1/sessions", SHARDED);
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
    let create = r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":32},"shards":2,"warmup":4,"durable":true}"#;
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

/// Sessions no longer take audit knobs, but a durable session created
/// when they did has them in its manifest (written by the request's
/// `to_json`, after every other field). Recovery must still bring it
/// back, while a new creation body naming either knob is refused.
#[test]
fn audit_knobs_are_validated_and_survive_recovery() {
    let data_dir = scratch("knobs");
    let serve = || {
        DodServer::builder()
            .workers(2)
            .data_dir(&data_dir)
            .bind("127.0.0.1:0")
            .expect("bind")
            .start()
    };
    let handle = serve();
    let addr = handle.addr();
    let create = r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":32},"shards":2,"warmup":4,"durable":true}"#;
    let (status, body) = post(addr, "/v1/sessions", create);
    assert_eq!(status, 201, "{body}");
    ingest_grid(addr, "/v1/sessions/s1/ingest", 40);
    let (status, report) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 200, "{report}");
    handle.shutdown();

    // Rewrite the manifest the way an older server wrote it.
    let manifest = data_dir.join("sessions").join("s1").join("manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let old = text
        .strip_suffix('}')
        .map(|head| format!("{head},\"sample_rate\":1,\"audit_sample\":4}}"))
        .unwrap_or_else(|| panic!("manifest is not an object: {text}"));
    std::fs::write(&manifest, &old).expect("rewrite manifest");

    let handle = serve();
    let addr = handle.addr();
    let (status, listing) = get(addr, "/v1/sessions");
    assert_eq!(status, 200, "{listing}");
    assert!(listing.contains("\"id\":\"s1\""), "{listing}");
    let (status, recovered) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 200, "{recovered}");
    assert_eq!(recovered, report, "recovery changed the answer");

    // A creation body carrying either knob is a 400 that names it, and
    // consumes no session slot.
    for knob in ["sample_rate", "audit_sample"] {
        let body = create.replace(r#""durable":true"#, &format!(r#""{knob}":4"#));
        let (status, reply) = post(addr, "/v1/sessions", &body);
        assert_eq!(status, 400, "{reply}");
        let envelope = dod_wire::shapes::ErrorEnvelope::from_json(&parse(&reply))
            .unwrap_or_else(|| panic!("{reply}"));
        assert_eq!(envelope.kind, "bad_request", "{reply}");
        assert!(
            envelope
                .message
                .starts_with(&format!("unknown key {knob:?}")),
            "{reply}"
        );
    }
    let (_, after) = get(addr, "/v1/sessions");
    assert_eq!(after, listing, "a refused body created a session");
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
fn metrics_carry_balance_and_profile_series() {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let (status, body) = post(addr, "/v1/sessions", SHARDED);
    assert_eq!(status, 201, "{body}");
    ingest_grid(addr, "/v1/sessions/s1/ingest", 24);
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
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
    // scrape's health barrier runs behind the ingest, so both have moved.
    for phase in [
        "dod_shard_route_seconds_total{session=\"s1\"} ",
        "dod_stream_insert_seconds_total{session=\"s1\"} ",
    ] {
        assert!(metric_value(&metrics, phase) > 0.0, "{phase}not timed");
    }
    handle.shutdown();
}

/// A session holding 1,024 residents after 2,048 points runs the
/// exhaustive backend: its scrape must carry no graph-structure or
/// audit series at all, rather than series that can only read 0.
#[test]
fn exact_sessions_export_no_graph_or_audit_series() {
    let handle = DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let create = r#"{"metric":"l2","dim":2,"r":0.5,"k":2,"window":{"count":1024},"shards":1}"#;
    let (status, body) = post(addr, "/v1/sessions", create);
    assert_eq!(status, 201, "{body}");
    for _ in 0..4 {
        ingest_grid(addr, "/v1/sessions/s1/ingest", 512);
    }
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        metric_value(&metrics, "dod_stream_inserts_total{session=\"s1\"} "),
        2048.0
    );
    let stray: Vec<&str> = metrics
        .lines()
        .filter(|l| l.contains("dod_graph_") || l.contains("dod_cost_audit_"))
        .collect();
    assert!(stray.is_empty(), "graph or audit series: {stray:?}");
    handle.shutdown();
}

/// The sum of every metric line starting with `line_start` (one family's
/// labeled series for one session).
fn metric_sum(text: &str, line_start: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(line_start))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// One scrape, one cut: a session's stream counters and the router's
/// ghost and owned accounting come from the same barrier, so they agree
/// in every scrape, however fast a producer ingests around it.
#[test]
fn every_scrape_reads_one_cut_of_a_session() {
    const SCRAPES: usize = 300;
    // A short pipeline queue keeps the producer's backlog small, so each
    // scrape waits behind a few batches, not thousands.
    let handle = DodServer::builder()
        .workers(2)
        .queue(4)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let create =
        r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":256},"shards":2,"warmup":16}"#;
    let (status, body) = post(addr, "/v1/sessions", create);
    assert_eq!(status, 201, "{body}");
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut batches = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let rows: Vec<String> = (0..32u64)
                    .map(|i| {
                        let t = batches * 32 + i;
                        format!(
                            "[{},{}]",
                            (t * 37 % 97) as f64 * 0.4,
                            (t * 11 % 5) as f64 * 0.3
                        )
                    })
                    .collect();
                let body = format!("{{\"points\":[{}]}}", rows.join(","));
                let (status, reply) = post(addr, "/v1/sessions/s1/ingest", &body);
                assert_eq!(status, 200, "{reply}");
                batches += 1;
            }
            batches
        })
    };
    let mut broken = Vec::new();
    let mut ghosted = false;
    for scrape in 0..SCRAPES {
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200, "{metrics}");
        let inserts = metric_value(&metrics, "dod_stream_inserts_total{session=\"s1\"} ");
        let ghosts = metric_value(&metrics, "dod_stream_ghost_inserts_total{session=\"s1\"} ");
        let routed = metric_sum(&metrics, "dod_shard_ghost_routes_total{session=\"s1\",");
        let owned = metric_sum(&metrics, "dod_shard_owned_points_total{session=\"s1\",");
        ghosted |= ghosts > 0.0;
        if ghosts != routed || inserts - ghosts != owned {
            broken.push(format!(
                "scrape {scrape}: inserts {inserts}, ghost inserts {ghosts}, \
                 ghost routes {routed}, owned points {owned}"
            ));
        }
    }
    stop.store(true, Ordering::SeqCst);
    let batches = producer.join().expect("producer");
    handle.shutdown();
    assert!(batches > 0 && ghosted, "the stream must route ghosts");
    assert!(
        broken.is_empty(),
        "{} of {SCRAPES} scrapes mixed slide boundaries; first: {}",
        broken.len(),
        broken[0]
    );
}
