//! End-to-end durability: a `"durable": true` wire session writes a WAL
//! under the server's data directory, survives a full server restart
//! with an identical report, exports `dod_wal_*` metrics, and `DELETE`
//! reclaims its files. A server without a data directory refuses
//! durable creation with a 503.

use dod_server::DodServer;
use dod_wire::shapes::{ErrorEnvelope, SessionSummary};
use dod_wire::JsonValue;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("recv");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, "")
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dod_durable_e2e_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve(data_dir: &PathBuf) -> dod_server::ServerHandle {
    DodServer::builder()
        .workers(2)
        .data_dir(data_dir)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start()
}

/// A low-warmup spec so both the pre-restart and the recovered detector
/// are past warm-up (partitioned) when reports are compared — warm-up
/// reports account their work differently, so equality across a restart
/// is only meaningful on the partitioned side.
const CREATE: &str = r#"{"metric":"l2","dim":2,"r":0.5,"k":3,"window":{"count":24},"shards":2,"warmup":4,"durable":true,"sync":"always","snapshot_ops":16}"#;

/// Deterministic stream: a tight cluster with a planted far point.
fn points_body(offset: usize, n: usize) -> String {
    let mut pts = Vec::new();
    for i in offset..offset + n {
        if i % 13 == 7 {
            pts.push(format!("[{}.0,100.0]", i));
        } else {
            let x = (i % 5) as f64 * 0.1;
            let y = (i % 7) as f64 * 0.1;
            pts.push(format!("[{x:.1},{y:.1}]"));
        }
    }
    format!("{{\"points\":[{}]}}", pts.join(","))
}

#[test]
fn durable_sessions_survive_a_server_restart_byte_for_byte() {
    let data_dir = scratch("restart");

    let handle = serve(&data_dir);
    let addr = handle.addr();
    let (status, body) = post(addr, "/v1/sessions", CREATE);
    assert_eq!(status, 201, "{body}");
    let summary =
        SessionSummary::from_json(&dod_wire::parse_json(&body).expect("json")).expect("summary");
    assert_eq!(summary.id, "s1");
    assert!(summary.durable, "{body}");

    let (status, body) = post(addr, "/v1/sessions/s1/ingest", &points_body(0, 60));
    assert_eq!(status, 200, "{body}");
    let (status, before) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 200, "{before}");
    assert!(before.contains("\"outliers\":["), "{before}");

    // The session's directory holds log, snapshot and manifest.
    let dir = data_dir.join("sessions").join("s1");
    assert!(dir.join("wal.log").is_file());
    assert!(dir.join("manifest.json").is_file());

    // WAL counters are scraped per session.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("dod_session_durable{session=\"s1\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dod_wal_appended_records_total{session=\"s1\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dod_wal_io_errors_total{session=\"s1\"} 0"),
        "{metrics}"
    );
    // The acked ingest was appended (and synced) before its 200, so its
    // wall time is already on the clock.
    let append_secs: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("dod_wal_append_seconds_total{session=\"s1\"} "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no append seconds: {metrics}"));
    assert!(append_secs > 0.0, "{metrics}");

    handle.shutdown();

    // A new server over the same data directory recovers the session —
    // same id, same window, byte-identical report.
    let handle = serve(&data_dir);
    let addr = handle.addr();
    let (status, body) = get(addr, "/v1/sessions/s1");
    assert_eq!(status, 200, "{body}");
    let summary =
        SessionSummary::from_json(&dod_wire::parse_json(&body).expect("json")).expect("summary");
    assert!(summary.durable);
    assert_eq!(
        (summary.metric.as_str(), summary.dim, summary.shards),
        ("l2", 2, 2)
    );
    let (status, after) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 200, "{after}");
    assert_eq!(after, before, "recovered report must match pre-restart");

    // The recovered session keeps streaming, and fresh ids never collide
    // with recovered ones.
    let (status, body) = post(addr, "/v1/sessions/s1/ingest", &points_body(60, 20));
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(
        addr,
        "/v1/sessions",
        r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":8},"warmup":2}"#,
    );
    assert_eq!(status, 201, "{body}");
    let fresh =
        SessionSummary::from_json(&dod_wire::parse_json(&body).expect("json")).expect("summary");
    assert_ne!(fresh.id, "s1", "{body}");
    assert!(!fresh.durable);

    // DELETE reclaims the durable session's files.
    let (status, body) = request(addr, "DELETE", "/v1/sessions/s1", "");
    assert_eq!(status, 200, "{body}");
    assert!(!dir.join("wal.log").exists());
    assert!(!dir.join("manifest.json").exists());
    let (status, _) = get(addr, "/v1/sessions/s1");
    assert_eq!(status, 404);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn recovered_reports_match_an_uninterrupted_session() {
    // Twin streams: one server restarted mid-stream, one never
    // restarted. Their final reports must agree — recovery is invisible.
    let data_a = scratch("twin_a");
    let data_b = scratch("twin_b");

    let handle_b = serve(&data_b);
    let (status, _) = post(handle_b.addr(), "/v1/sessions", CREATE);
    assert_eq!(status, 201);

    let handle_a = serve(&data_a);
    let (status, _) = post(handle_a.addr(), "/v1/sessions", CREATE);
    assert_eq!(status, 201);
    // Interrupted side: half the stream, restart, the other half.
    let (status, _) = post(
        handle_a.addr(),
        "/v1/sessions/s1/ingest",
        &points_body(0, 37),
    );
    assert_eq!(status, 200);
    handle_a.shutdown();
    let handle_a = serve(&data_a);
    let (status, _) = post(
        handle_a.addr(),
        "/v1/sessions/s1/ingest",
        &points_body(37, 43),
    );
    assert_eq!(status, 200);

    // Uninterrupted side: the whole stream in one life.
    let (status, _) = post(
        handle_b.addr(),
        "/v1/sessions/s1/ingest",
        &points_body(0, 80),
    );
    assert_eq!(status, 200);

    let (_, report_a) = get(handle_a.addr(), "/v1/sessions/s1/report");
    let (_, report_b) = get(handle_b.addr(), "/v1/sessions/s1/report");
    assert_eq!(report_a, report_b);

    handle_a.shutdown();
    handle_b.shutdown();
    let _ = std::fs::remove_dir_all(&data_a);
    let _ = std::fs::remove_dir_all(&data_b);
}

#[test]
fn durable_creation_without_a_data_dir_is_503() {
    let handle = DodServer::builder()
        .workers(1)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let (status, body) = post(handle.addr(), "/v1/sessions", CREATE);
    assert_eq!(status, 503, "{body}");
    let env = ErrorEnvelope::from_json(&dod_wire::parse_json(&body).expect("json")).expect("env");
    assert_eq!(env.kind, "unavailable");
    assert!(env.message.contains("data directory"), "{body}");
    handle.shutdown();
}

#[test]
fn volatile_sessions_do_not_survive_restarts() {
    let data_dir = scratch("volatile");
    let handle = serve(&data_dir);
    let (status, body) = post(
        handle.addr(),
        "/v1/sessions",
        r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":8},"warmup":2}"#,
    );
    assert_eq!(status, 201, "{body}");
    handle.shutdown();
    let handle = serve(&data_dir);
    let (status, _) = get(handle.addr(), "/v1/sessions/s1");
    assert_eq!(status, 404, "volatile sessions leave nothing to recover");
    // And nothing was written for them.
    assert!(!data_dir.join("sessions").join("s1").exists());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn mistyped_durability_fields_are_named_400s() {
    let data_dir = scratch("badfields");
    let handle = serve(&data_dir);
    let addr = handle.addr();
    for (body, needle) in [
        (
            r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":8},"durable":"yes"}"#,
            "durable",
        ),
        (
            r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":8},"durable":true,"sync":"lazy"}"#,
            "sync",
        ),
        (
            r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":8},"durable":true,"sync":0}"#,
            "sync",
        ),
    ] {
        let (status, resp) = post(addr, "/v1/sessions", body);
        assert_eq!(status, 400, "{body}: {resp}");
        let env =
            ErrorEnvelope::from_json(&dod_wire::parse_json(&resp).expect("json")).expect("env");
        assert!(env.message.contains(needle), "{body}: {resp}");
    }
    // Nothing half-made stays on disk after rejected creations.
    let leftovers = std::fs::read_dir(data_dir.join("sessions"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn acked_ingests_report_their_durability() {
    let data_dir = scratch("ack");
    let handle = serve(&data_dir);
    let addr = handle.addr();
    let (status, _) = post(addr, "/v1/sessions", CREATE);
    assert_eq!(status, 201);
    // A durable session's 200 carries the barrier's verdict: these
    // points are WAL-committed by the time the ack is on the wire.
    let (status, body) = post(addr, "/v1/sessions/s1/ingest", &points_body(0, 12));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, r#"{"accepted":12,"durable":true}"#);
    // And the session reports healthy durability.
    let (_, body) = get(addr, "/v1/sessions/s1");
    assert!(body.contains(r#""durability":"ok""#), "{body}");

    // Volatile sessions make no such promise, so their ack carries no
    // durability verdict at all.
    let (status, _) = post(
        addr,
        "/v1/sessions",
        r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":8},"warmup":2}"#,
    );
    assert_eq!(status, 201);
    let (status, body) = post(addr, "/v1/sessions/s2/ingest", &points_body(0, 5));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, r#"{"accepted":5}"#);
    let (_, body) = get(addr, "/v1/sessions/s2");
    assert!(!body.contains("durability"), "{body}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn wal_failures_degrade_acks_listing_and_metrics() {
    let data_dir = scratch("degraded");
    let handle = serve(&data_dir);
    let addr = handle.addr();
    // snapshot_ops=1: the first committed batch triggers a snapshot.
    let create = CREATE.replace(r#""snapshot_ops":16"#, r#""snapshot_ops":1"#);
    let (status, body) = post(addr, "/v1/sessions", &create);
    assert_eq!(status, 201, "{body}");
    let (_, body) = get(addr, "/v1/sessions/s1");
    assert!(body.contains(r#""durability":"ok""#), "{body}");

    // Sabotage the WAL's snapshot path: `snapshot.tmp` is now a
    // directory, so the snapshot install fails and the WAL latches into
    // fail-open. (Works as root, where permission bits would not.)
    std::fs::create_dir(data_dir.join("sessions").join("s1").join("snapshot.tmp"))
        .expect("plant tmp dir");

    // The ingest still answers 200 — fail-open keeps the stream alive —
    // but the ack must say the batch is *not* durable.
    let (status, body) = post(addr, "/v1/sessions/s1/ingest", &points_body(0, 12));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, r#"{"accepted":12,"durable":false}"#);

    // The degradation is visible on the resource and on /metrics.
    let (_, body) = get(addr, "/v1/sessions/s1");
    assert!(body.contains(r#""durability":"degraded""#), "{body}");
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        !metrics.contains("dod_wal_io_errors_total{session=\"s1\"} 0"),
        "{metrics}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn aborted_creations_are_swept_at_bind() {
    let data_dir = scratch("sweep");
    // A session directory with WAL files but no manifest is an aborted
    // creation: no 201 ever went out for it (the manifest write is what
    // completes creation), so recovery reclaims it instead of stranding
    // the files forever.
    let orphan = data_dir.join("sessions").join("s3");
    std::fs::create_dir_all(&orphan).expect("orphan dir");
    std::fs::write(orphan.join("wal.log"), b"half-made").expect("orphan log");
    // A non-session name in the same tree is not ours to touch.
    let foreign = data_dir.join("sessions").join("not a session!");
    std::fs::create_dir_all(&foreign).expect("foreign dir");

    let handle = serve(&data_dir);
    assert!(!orphan.exists(), "aborted creation reclaimed at bind");
    assert!(foreign.exists(), "foreign directory left alone");
    let (status, _) = get(handle.addr(), "/v1/sessions/s3");
    assert_eq!(status, 404);
    let (_, metrics) = get(handle.addr(), "/metrics");
    assert!(
        metrics.contains("dod_session_cleanup_errors_total 0"),
        "{metrics}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn failed_session_cleanup_is_counted() {
    let data_dir = scratch("cleanup_err");
    let handle = serve(&data_dir);
    let addr = handle.addr();
    let (status, _) = post(addr, "/v1/sessions", CREATE);
    assert_eq!(status, 201);
    // Make the directory unreclaimable: `manifest.tmp` as a directory
    // cannot be `remove_file`d.
    std::fs::create_dir(data_dir.join("sessions").join("s1").join("manifest.tmp"))
        .expect("plant tmp dir");
    // DELETE still succeeds — the session is gone from the registry —
    // but the leftover files are an alarm, not a silence.
    let (status, body) = request(addr, "DELETE", "/v1/sessions/s1", "");
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("dod_session_cleanup_errors_total 1"),
        "{metrics}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn listing_marks_durable_and_volatile_sessions() {
    let data_dir = scratch("listing");
    let handle = serve(&data_dir);
    let addr = handle.addr();
    let (status, _) = post(addr, "/v1/sessions", CREATE);
    assert_eq!(status, 201);
    let (status, _) = post(
        addr,
        "/v1/sessions",
        r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":8},"warmup":2}"#,
    );
    assert_eq!(status, 201);
    let (_, listing) = get(addr, "/v1/sessions");
    let doc = dod_wire::parse_json(&listing).expect("json");
    let sessions: Vec<SessionSummary> = doc
        .get("sessions")
        .and_then(JsonValue::as_arr)
        .expect("sessions")
        .iter()
        .map(|s| SessionSummary::from_json(s).expect("summary"))
        .collect();
    assert_eq!(sessions.len(), 2, "{listing}");
    assert!(sessions[0].durable, "{listing}");
    assert!(!sessions[1].durable, "{listing}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
