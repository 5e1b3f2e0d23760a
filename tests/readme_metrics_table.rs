//! The README's Prometheus metrics table lists exactly the series a live
//! `/metrics` scrape declares: every `(series, kind)` row between the
//! `metrics-table` markers has a matching `# TYPE` line, and vice versa,
//! so docs and exposition cannot drift apart silently.
//!
//! The scrape comes from a server with one queried engine and one
//! durable session that has ingested points, which makes every
//! per-engine, per-session and WAL family render.

use dod::server::DodServer;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

const README: &str = include_str!("../README.md");

/// The `(series, kind)` cells of the table's rows, backticks stripped.
fn readme_series() -> Vec<(String, String)> {
    let begin = README
        .find("<!-- metrics-table:begin -->")
        .expect("README has a metrics-table:begin marker");
    let end = README
        .find("<!-- metrics-table:end -->")
        .expect("README has a metrics-table:end marker");
    README[begin..end]
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line
                .split('|')
                .map(|c| c.trim().trim_matches('`'))
                .collect();
            (cells[1].to_string(), cells[2].to_string())
        })
        .collect()
}

/// One HTTP/1.1 exchange on a fresh connection, returning
/// `(status, body)`.
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// A data directory removed on drop, so the test leaves nothing behind
/// whether it passes or fails.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `(series, kind)` pairs of the scrape's `# TYPE` lines.
fn scraped_series() -> Vec<(String, String)> {
    let data_dir = DataDir(
        std::env::temp_dir().join(format!("dod-readme-metrics-table-{}", std::process::id())),
    );
    let handle = DodServer::builder()
        .workers(2)
        .data_dir(&data_dir.0)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    for (method, path, body, want) in [
        (
            "PUT",
            "/v1/engines/e",
            r#"{"family":"sift","n":200,"seed":1,"index":"mrpg:6"}"#,
            201,
        ),
        (
            "POST",
            "/v1/engines/e/query",
            r#"{"queries":[{"r":60,"k":5}]}"#,
            200,
        ),
        (
            "POST",
            "/v1/sessions",
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":16},"shards":2,"warmup":4,"durable":true}"#,
            201,
        ),
        (
            "POST",
            "/v1/sessions/s1/ingest",
            r#"{"points":[[0,0],[0,1],[5,5],[1,0],[9,9],[0.5,0.5],[7,1],[1,1]]}"#,
            200,
        ),
    ] {
        let (status, answer) = send(addr, method, path, body);
        assert_eq!(status, want, "{method} {path}: {answer}");
    }
    let (status, scrape) = send(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{scrape}");
    handle.shutdown();
    scrape
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (name, kind) = rest.split_once(' ').expect("# TYPE name kind");
            (name.to_string(), kind.to_string())
        })
        .collect()
}

#[test]
fn readme_metrics_table_matches_a_live_scrape() {
    let mut documented = readme_series();
    documented.sort();
    let mut scraped = scraped_series();
    scraped.sort();
    assert!(!scraped.is_empty(), "the scrape declares no series");
    assert_eq!(
        documented, scraped,
        "README metrics table (left) disagrees with the /metrics # TYPE lines (right)"
    );
}
