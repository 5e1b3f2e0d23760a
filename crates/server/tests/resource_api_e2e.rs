//! End-to-end tests for the resource-oriented `/v1` API over real
//! sockets: named engines (create, list, query, LRU-evict, delete) and
//! concurrent ingest sessions (isolation, capacity, lifecycle).

use dod_core::{IndexSpec, Query};
use dod_datasets::{EngineSpec, Family};
use dod_metrics::L2;
use dod_server::routes::API_ROUTES;
use dod_server::{encode, DodServer, ServerHandle};
use dod_shard::{ShardSpec, ShardedStreamDetector};
use dod_stream::{Backend, VectorSpace, WindowSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

// ---- minimal test client -------------------------------------------------

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

/// One-shot exchange on a fresh connection.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(raw.as_bytes()).expect("send");
    read_response(&mut BufReader::new(conn))
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(addr, "GET", path, None)
}

fn put(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(addr, "PUT", path, Some(body))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(addr, "POST", path, Some(body))
}

fn delete(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(addr, "DELETE", path, None)
}

/// Asserts the error envelope's kind and returns its message.
fn assert_envelope(body: &str, kind: &str) -> String {
    let doc = dod_wire::parse_json(body).unwrap_or_else(|e| panic!("not JSON ({e}): {body}"));
    let envelope =
        dod_wire::shapes::ErrorEnvelope::from_json(&doc).unwrap_or_else(|| panic!("{body}"));
    assert_eq!(envelope.kind, kind, "{body}");
    assert!(!envelope.message.is_empty(), "{body}");
    envelope.message
}

fn bare_server() -> ServerHandle {
    DodServer::builder()
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start()
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

// ---- routing -------------------------------------------------------------

/// Every mounted pattern serves exactly the methods `API_ROUTES` lists
/// for it. Any other method is a 405 naming those methods, in the
/// message and in the `Allow` header; a path matching no pattern is a 404.
#[test]
fn unlisted_methods_answer_405_with_allow_and_unknown_paths_404() {
    let handle = bare_server();
    let addr = handle.addr();
    // One exchange: status, the `allow` header if any, and the body.
    let send = |method: &str, path: &str| -> (u16, Option<String>, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(60))).ok();
        write!(
            conn,
            "{method} {path} HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
        )
        .expect("send");
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("reply");
        let (head, body) = reply.split_once("\r\n\r\n").expect("head and body");
        let status = head[9..12].parse().expect("status code");
        let allow = head
            .lines()
            .find_map(|l| l.strip_prefix("allow: "))
            .map(str::to_string);
        (status, allow, body.to_string())
    };
    let mut patterns: Vec<&str> = API_ROUTES.iter().map(|&(_, p)| p).collect();
    patterns.dedup();
    for pattern in patterns {
        let listed: Vec<&str> = API_ROUTES
            .iter()
            .filter(|&&(_, p)| p == pattern)
            .map(|&(m, _)| m)
            .collect();
        let allow = listed.join(", ");
        let message = match allow.rsplit_once(", ") {
            Some((head, last)) => format!("use {head} or {last}"),
            None => format!("use {allow}"),
        };
        let path = pattern.replace("{name}", "e").replace("{id}", "s1");
        for method in ["GET", "PUT", "POST", "DELETE", "PATCH"] {
            let (status, got_allow, body) = send(method, &path);
            if listed.contains(&method) {
                assert_ne!(status, 405, "{method} {path}: {body}");
                assert!(!body.contains("no route"), "{method} {path}: {body}");
                continue;
            }
            assert_eq!(status, 405, "{method} {path}: {body}");
            assert_eq!(assert_envelope(&body, "method_not_allowed"), message);
            assert_eq!(
                got_allow.as_deref(),
                Some(allow.as_str()),
                "{method} {path}"
            );
        }
    }
    // The multi-method spellings, byte for byte.
    let (_, _, body) = send("POST", "/v1/engines/e");
    assert!(body.contains("\"use PUT, GET or DELETE\""), "{body}");
    let (_, _, body) = send("DELETE", "/v1/sessions");
    assert!(body.contains("\"use POST or GET\""), "{body}");
    for path in ["/nope", "<parse>", "<other>"] {
        let (status, allow, body) = send("GET", path);
        assert_eq!(status, 404, "{path}: {body}");
        assert_eq!(
            assert_envelope(&body, "not_found"),
            format!("no route {path}")
        );
        assert_eq!(allow, None, "{path}");
    }
    handle.shutdown();
}

// ---- named engines -------------------------------------------------------

#[test]
fn named_engines_create_list_query_and_delete() {
    let handle = bare_server();
    let addr = handle.addr();

    // A bare server holds no resources, and an empty registry lists
    // empty.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok","engines":0,"sessions":0}"#);
    let (status, body) = get(addr, "/v1/engines");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"engines":[],"capacity":8}"#);

    // Create two engines with different families and indexes.
    let (status, body) = put(
        addr,
        "/v1/engines/prod",
        r#"{"family":"sift","n":300,"seed":7,"index":"mrpg:6"}"#,
    );
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"created\":true"), "{body}");
    assert!(body.contains("\"evicted\":[]"), "{body}");
    assert!(body.contains("\"index\":\"mrpg:6\""), "{body}");
    assert!(body.contains("\"points\":300"), "{body}");
    let (status, body) = put(
        addr,
        "/v1/engines/glove-exp",
        r#"{"family":"glove","n":200,"seed":3,"index":"vptree"}"#,
    );
    assert_eq!(status, 201, "{body}");

    // The listing carries both, name-sorted, each with its spec and a
    // positive memory estimate.
    let (status, body) = get(addr, "/v1/engines");
    assert_eq!(status, 200);
    let doc = dod_wire::parse_json(&body).expect("json");
    let engines = doc
        .get("engines")
        .and_then(dod_wire::JsonValue::as_arr)
        .expect("engines array");
    let summaries: Vec<_> = engines
        .iter()
        .map(|e| dod_wire::shapes::EngineSummary::from_json(e).expect("summary"))
        .collect();
    assert_eq!(summaries.len(), 2);
    assert_eq!(summaries[0].name, "glove-exp");
    assert_eq!(summaries[1].name, "prod");
    assert_eq!(summaries[1].index, "mrpg:6");
    assert!(summaries.iter().all(|s| s.index_bytes > 0), "{body}");

    // Querying each named engine answers the exact bytes of an
    // identically-specified in-process engine.
    let prod_twin = EngineSpec {
        family: Family::Sift,
        n: 300,
        seed: 7,
        index: "mrpg:6".parse().expect("spec"),
    }
    .build()
    .expect("twin");
    let queries = [
        Query::new(60.0, 40).unwrap(),
        Query::new(120.0, 40).unwrap(),
    ];
    let (status, body) = post(
        addr,
        "/v1/engines/prod/query",
        r#"{"queries":[{"r":60,"k":40},{"r":120,"k":40}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        encode::query_response(&prod_twin.query_many(&queries).expect("in-process")),
        "named-engine answers must be byte-identical to in-process"
    );
    let glove_twin = EngineSpec {
        family: Family::Glove,
        n: 200,
        seed: 3,
        index: IndexSpec::VpTree,
    }
    .build()
    .expect("twin");
    let gq = [Query::new(0.5, 20).unwrap()];
    let (status, body) = post(
        addr,
        "/v1/engines/glove-exp/query",
        r#"{"queries":[{"r":0.5,"k":20}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        encode::query_response(&glove_twin.query_many(&gq).expect("in-process"))
    );

    // GET one engine's summary; DELETE it; then every route 404s with
    // the envelope.
    let (status, body) = get(addr, "/v1/engines/prod");
    assert_eq!(status, 200);
    let summary =
        dod_wire::shapes::EngineSummary::from_json(&dod_wire::parse_json(&body).expect("json"))
            .expect("summary");
    assert_eq!((summary.name.as_str(), summary.points), ("prod", 300));
    let (status, body) = delete(addr, "/v1/engines/prod");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"deleted":"prod"}"#);
    for (s, b) in [
        get(addr, "/v1/engines/prod"),
        delete(addr, "/v1/engines/prod"),
        post(addr, "/v1/engines/prod/query", r#"{"queries":[]}"#),
    ] {
        assert_eq!(s, 404, "{b}");
        assert_envelope(&b, "not_found");
    }
    let (_, body) = get(addr, "/v1/engines");
    assert!(!body.contains("\"prod\""), "{body}");

    // Replacing an existing engine answers 200, not 201.
    let (status, body) = put(
        addr,
        "/v1/engines/glove-exp",
        r#"{"family":"glove","n":100,"index":"vptree"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"created\":false"), "{body}");
    assert!(body.contains("\"points\":100"), "{body}");
    handle.shutdown();
}

#[test]
fn engine_creation_is_validated_and_save_load_round_trips() {
    let handle = bare_server();
    let addr = handle.addr();

    // Unknown family, malformed index, zero n, oversized n, bad body.
    let (status, body) = put(addr, "/v1/engines/e", r#"{"family":"netflix","n":10}"#);
    assert_eq!(status, 400);
    assert_envelope(&body, "invalid_spec");
    let (status, body) = put(
        addr,
        "/v1/engines/e",
        r#"{"family":"sift","n":10,"index":"hnsw:16"}"#,
    );
    assert_eq!(status, 400);
    assert_envelope(&body, "invalid_spec");
    let (status, body) = put(addr, "/v1/engines/e", r#"{"family":"sift","n":0}"#);
    assert_eq!(status, 400);
    assert_envelope(&body, "bad_request");
    let (status, body) = put(addr, "/v1/engines/e", r#"{"family":"sift","n":99000000}"#);
    assert_eq!(status, 400);
    assert_envelope(&body, "bad_request");
    let (status, body) = put(addr, "/v1/engines/e", r#"{"n":10}"#);
    assert_eq!(status, 400);
    assert_envelope(&body, "bad_request");
    // An unknown key is named, never dropped: "indx" must not build the
    // default index.
    let (status, body) = put(
        addr,
        "/v1/engines/e",
        r#"{"family":"sift","n":10,"indx":"mrpg:8"}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        assert_envelope(&body, "bad_request"),
        "unknown key \"indx\" in engine body; supported: family, n, seed, index, load"
    );
    // None of that created anything.
    let (_, body) = get(addr, "/v1/engines");
    assert_eq!(body, r#"{"engines":[],"capacity":8}"#);

    // Save an engine in-process, then create the resident engine from
    // the payload: answers must match a freshly built twin exactly.
    let spec = EngineSpec {
        family: Family::Sift,
        n: 250,
        seed: 9,
        index: IndexSpec::VpTree,
    };
    let engine = spec.build().expect("build");
    let dir = std::env::temp_dir().join(format!("dod_server_load_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sift250.dod");
    let mut file = std::fs::File::create(&path).expect("create");
    engine.save(&mut file).expect("save");
    drop(file);
    let body = format!(
        r#"{{"family":"sift","n":250,"seed":9,"index":"vptree","load":{}}}"#,
        dod_wire::JsonValue::from(path.to_str().expect("utf8 path")).render()
    );
    let (status, resp) = put(addr, "/v1/engines/restored", &body);
    assert_eq!(status, 201, "{resp}");
    let q = [Query::new(80.0, 40).unwrap()];
    let (status, http_body) = post(
        addr,
        "/v1/engines/restored/query",
        r#"{"queries":[{"r":80,"k":40}]}"#,
    );
    assert_eq!(status, 200, "{http_body}");
    assert_eq!(
        http_body,
        encode::query_response(&engine.query_many(&q).expect("in-process"))
    );

    // A load path that does not exist is the server's I/O failure (503),
    // not a client error.
    let (status, body) = put(
        addr,
        "/v1/engines/ghost",
        r#"{"family":"sift","n":250,"seed":9,"load":"/nonexistent/nope.dod"}"#,
    );
    assert_eq!(status, 503, "{body}");
    assert_envelope(&body, "io");
    std::fs::remove_dir_all(&dir).ok();
    handle.shutdown();
}

/// A mistyped key in a session body, top-level or inside `"window"`, is a
/// 400 naming it: `"shard"` must not open one shard, `"durabel"` must
/// not open a volatile session.
#[test]
fn session_bodies_reject_unknown_keys() {
    let handle = bare_server();
    let addr = handle.addr();
    let top = "supported: metric, dim, r, k, window, shards, warmup, pivots_per_shard, \
               durable, sync, snapshot_ops";
    for (req, want) in [
        (
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":16},"shard":4}"#,
            format!("unknown key \"shard\" in session body; {top}"),
        ),
        (
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":16},"durabel":true}"#,
            format!("unknown key \"durabel\" in session body; {top}"),
        ),
        (
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":16,"tme":5}}"#,
            "unknown key \"tme\" in \"window\"; supported: count, time".to_string(),
        ),
    ] {
        let (status, body) = post(addr, "/v1/sessions", req);
        assert_eq!(status, 400, "{req} -> {body}");
        assert_eq!(assert_envelope(&body, "bad_request"), want, "{req}");
    }
    let (_, body) = get(addr, "/v1/sessions");
    assert!(body.starts_with(r#"{"sessions":[]"#), "{body}");
    handle.shutdown();
}

#[test]
fn engine_registry_evicts_least_recently_used_at_capacity() {
    let handle = DodServer::builder()
        .max_engines(2)
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    for name in ["a", "b"] {
        let (status, body) = put(
            addr,
            &format!("/v1/engines/{name}"),
            r#"{"family":"sift","n":120,"index":"vptree"}"#,
        );
        assert_eq!(status, 201, "{body}");
    }
    // Touch "a" with a query: "b" becomes the least recently used.
    let (status, _) = post(
        addr,
        "/v1/engines/a/query",
        r#"{"queries":[{"r":80,"k":10}]}"#,
    );
    assert_eq!(status, 200);
    // A third engine must evict exactly "b" — and say so.
    let (status, body) = put(
        addr,
        "/v1/engines/c",
        r#"{"family":"sift","n":120,"index":"vptree"}"#,
    );
    assert_eq!(status, 201, "{body}");
    assert!(body.contains(r#""evicted":["b"]"#), "{body}");
    let (_, listing) = get(addr, "/v1/engines");
    assert!(
        listing.contains("\"a\"") && listing.contains("\"c\""),
        "{listing}"
    );
    assert!(!listing.contains("\"b\""), "{listing}");
    // The evicted engine is gone: queries against it are a 404 envelope.
    let (status, body) = post(
        addr,
        "/v1/engines/b/query",
        r#"{"queries":[{"r":80,"k":10}]}"#,
    );
    assert_eq!(status, 404);
    assert_envelope(&body, "not_found");
    // GET info must NOT count as use. "a" was last *used* (queried)
    // before "c" was created, so "a" is now the coldest entry; if the
    // two inspections below refreshed its clock, the next insert would
    // evict "c" instead. The eviction naming "a" is the proof that
    // inspection leaves the LRU order alone.
    let (_, _) = get(addr, "/v1/engines/a");
    let (_, _) = get(addr, "/v1/engines/a");
    let (status, body) = put(
        addr,
        "/v1/engines/d",
        r#"{"family":"sift","n":120,"index":"vptree"}"#,
    );
    assert_eq!(status, 201, "{body}");
    assert!(
        body.contains(r#""evicted":["a"]"#),
        "GET info must not refresh the LRU clock: {body}"
    );
    handle.shutdown();
}

// ---- sessions ------------------------------------------------------------

#[test]
fn concurrent_sessions_are_isolated() {
    let handle = bare_server();
    let addr = handle.addr();

    // Two sessions with different spaces: 1-d vectors at r=1 and 2-d
    // vectors at r=0.8, different shard counts.
    let (status, body) = post(
        addr,
        "/v1/sessions",
        r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":64},"shards":2,"warmup":4,"pivots_per_shard":1}"#,
    );
    assert_eq!(status, 201, "{body}");
    let s1 =
        dod_wire::shapes::SessionSummary::from_json(&dod_wire::parse_json(&body).expect("json"))
            .expect("summary");
    assert_eq!((s1.id.as_str(), s1.metric.as_str()), ("s1", "l2"));
    assert_eq!((s1.dim, s1.shards, s1.ingested), (1, 2, 0));
    let (status, body) = post(
        addr,
        "/v1/sessions",
        r#"{"metric":"l2","dim":2,"r":0.8,"k":2,"window":{"count":32},"shards":3,"warmup":8}"#,
    );
    assert_eq!(status, 201, "{body}");
    let s2 =
        dod_wire::shapes::SessionSummary::from_json(&dod_wire::parse_json(&body).expect("json"))
            .expect("summary");
    assert_eq!((s2.id.as_str(), s2.dim, s2.shards), ("s2", 2, 3));

    // In-process twins, opened with the same parameters.
    let mut twin1 = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        Query::new(1.0, 2).expect("query"),
        WindowSpec::Count(64),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4).with_pivots_per_shard(1),
    )
    .expect("twin");
    let mut twin2 = ShardedStreamDetector::open(
        VectorSpace::new(L2, 2),
        Query::new(0.8, 2).expect("query"),
        WindowSpec::Count(32),
        Backend::Exhaustive,
        ShardSpec::new(3).with_warmup(8),
    )
    .expect("twin");

    // Clustered 1-d stream with one isolated point; clustered 2-d stream
    // from the scenario generator.
    let mut pts1: Vec<Vec<f32>> = Vec::new();
    for i in 0..50 {
        pts1.push(vec![if i % 2 == 0 {
            (i % 7) as f32 * 0.2
        } else {
            40.0 + (i % 7) as f32 * 0.2
        }]);
    }
    pts1.push(vec![-300.0]);
    let pts2 = dod_datasets::StreamScenario {
        clusters: 2,
        outlier_rate: 0.1,
        ..dod_datasets::StreamScenario::new(2)
    }
    .generate(60, 17);

    // Ingest both sessions concurrently, interleaved in chunks from two
    // client threads — isolation means neither stream contaminates the
    // other's window.
    fn ingest_chunks(addr: SocketAddr, id: &str, pts: &[Vec<f32>]) {
        for chunk in pts.chunks(10) {
            let (status, body) = post(
                addr,
                &format!("/v1/sessions/{id}/ingest"),
                &points_body(chunk),
            );
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, encode::ingest_response(chunk.len()));
        }
    }
    std::thread::scope(|scope| {
        scope.spawn(|| ingest_chunks(addr, "s1", &pts1));
        scope.spawn(|| ingest_chunks(addr, "s2", &pts2));
    });
    for p in &pts1 {
        twin1.insert(p.clone());
    }
    for p in &pts2 {
        twin2.insert(p.clone());
    }

    // Each session's report matches its own twin, byte for byte.
    let (status, report1) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 200, "{report1}");
    assert_eq!(report1, encode::stream_report_response(&twin1.outliers()));
    let (status, report2) = get(addr, "/v1/sessions/s2/report");
    assert_eq!(status, 200, "{report2}");
    assert_eq!(report2, encode::stream_report_response(&twin2.outliers()));
    // s1's planted isolated point is reported — and only by s1.
    let isolated_seq = (pts1.len() - 1).to_string();
    assert!(report1.contains(&isolated_seq), "{report1}");

    // The listing counts every ingested point per session.
    let (_, listing) = get(addr, "/v1/sessions");
    let doc = dod_wire::parse_json(&listing).expect("json");
    let sessions = doc
        .get("sessions")
        .and_then(dod_wire::JsonValue::as_arr)
        .expect("sessions array");
    let summaries: Vec<_> = sessions
        .iter()
        .map(|s| dod_wire::shapes::SessionSummary::from_json(s).expect("summary"))
        .collect();
    assert_eq!(summaries.len(), 2);
    assert_eq!(summaries[0].ingested, pts1.len() as u64, "{listing}");
    assert_eq!(summaries[1].ingested, pts2.len() as u64, "{listing}");

    // Unknown ids are 404 envelopes on every session route.
    for (s, b) in [
        get(addr, "/v1/sessions/s99"),
        get(addr, "/v1/sessions/s99/report"),
        post(addr, "/v1/sessions/s99/ingest", r#"{"points":[[1]]}"#),
        delete(addr, "/v1/sessions/s99"),
    ] {
        assert_eq!(s, 404, "{b}");
        assert_envelope(&b, "not_found");
    }

    // Deleting s1 leaves s2 serving.
    let (status, body) = delete(addr, "/v1/sessions/s1");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"deleted":"s1"}"#);
    let (status, body) = get(addr, "/v1/sessions/s1/report");
    assert_eq!(status, 404, "{body}");
    let (status, report2_again) = get(addr, "/v1/sessions/s2/report");
    assert_eq!(status, 200);
    assert_eq!(
        report2_again, report2,
        "s2 must be untouched by s1's delete"
    );
    handle.shutdown();
}

#[test]
fn sessions_are_refused_at_capacity_and_validated() {
    let handle = DodServer::builder()
        .max_sessions(1)
        .bind("127.0.0.1:0")
        .expect("bind")
        .start();
    let addr = handle.addr();
    let open_body = r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":16},"shards":1}"#;
    let (status, body) = post(addr, "/v1/sessions", open_body);
    assert_eq!(status, 201, "{body}");
    // At capacity: refused with a 429 envelope, never evicted.
    let (status, body) = post(addr, "/v1/sessions", open_body);
    assert_eq!(status, 429, "{body}");
    assert_envelope(&body, "too_many_requests");
    // The resident session still works.
    let (status, _) = post(addr, "/v1/sessions/s1/ingest", r#"{"points":[[0,0]]}"#);
    assert_eq!(status, 200);
    // Freeing the slot lets the next open through, under a fresh id.
    let (status, _) = delete(addr, "/v1/sessions/s1");
    assert_eq!(status, 200);
    let (status, body) = post(addr, "/v1/sessions", open_body);
    assert_eq!(status, 201, "{body}");
    assert!(
        body.contains("\"id\":\"s2\""),
        "ids are never reused: {body}"
    );

    // Validation: unknown metric, unservable metric, bad window, bad
    // radius, zero dim — each a typed envelope.
    for (req, kind) in [
        (
            r#"{"metric":"cosine","dim":2,"r":1,"k":2,"window":{"count":16}}"#,
            "invalid_spec",
        ),
        (
            r#"{"metric":"edit","dim":2,"r":1,"k":2,"window":{"count":16}}"#,
            "invalid_spec",
        ),
        (
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{}}"#,
            "bad_request",
        ),
        (
            r#"{"metric":"l2","dim":2,"r":-3,"k":2,"window":{"count":16}}"#,
            "invalid_radius",
        ),
        (
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":0}}"#,
            "invalid_window",
        ),
        (
            r#"{"metric":"l2","dim":0,"r":1,"k":2,"window":{"count":16}}"#,
            "invalid_spec",
        ),
        (
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":16},"shards":0}"#,
            "invalid_shard_spec",
        ),
    ] {
        let (status, body) = post(addr, "/v1/sessions", req);
        assert!((400..=429).contains(&status), "{req} -> {status} {body}");
        assert_envelope(&body, kind);
    }
    handle.shutdown();
}
