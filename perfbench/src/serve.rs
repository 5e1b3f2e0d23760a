//! The `serve-stream` workload: HTTP/1.1 over loopback to an in-process
//! `DodServer`, driven by one closed-loop keep-alive client.
//!
//! One volatile session (`l2`, dim 8, count window 1024, one shard,
//! exhaustive backend). Each op is `POST /v1/sessions/{id}/ingest` with
//! 16–48 points, then `GET /v1/sessions/{id}/report`. A volatile session acks an
//! ingest before its pump inserts the points, so every op ends with the
//! report, which waits for all earlier ingests: no work crosses an op
//! boundary. This is the only workload that runs the connection layer,
//! JSON parsing and encoding, the shard pipeline threads and the stream
//! detector; it writes (a large request body) beside reading (a response
//! body), so a change that speeds one up at the other's cost shows.

use crate::client::Client;
use crate::mix::SplitMix64;
use crate::spans::{kernel_ns, Tracer};
use crate::stats::{mean, percentile, sorted};
use crate::{end_to_end, keep_measuring, Args, Outcome, Phases};
use dod_core::Query;
use dod_datasets::calibrate_r;
use dod_metrics::{Fnv1a, VectorSet, L2};
use dod_server::{encode, DodServer};
use dod_shard::{ShardSpec, ShardedStreamDetector};
use dod_stream::{Backend, VectorSpace, WindowSpec};
use dod_wire::JsonValue;
use std::fmt::Write as _;
use std::time::Instant;

const DIM: usize = 8;
const WINDOW: usize = 1024;
/// Points per ingest request: a seeded spread with mean 32. Host speed
/// flips between states; with one fixed op size each state is a narrow
/// latency mode and the median jumps between modes as their shares shift.
/// A spread of sizes makes the modes overlap, so the median moves
/// smoothly instead. The window fill uses the mean.
const BATCH: std::ops::RangeInclusive<usize> = 16..=48;
const FILL_BATCH: usize = 32;
const K: usize = 8;
/// Share of arrivals drawn from the far tail, and the outlier ratio the
/// radius is calibrated for.
const TAIL_RATE: f64 = 0.01;
const CLUSTERS: usize = 4;
/// Coordinates lie on a 1/256 grid: each prints as a short exact decimal,
/// so the server parses back exactly the `f32` the reference detector gets.
const GRID: f64 = 256.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The server's default ingest-pipeline queue.
const PIPELINE_QUEUE: usize = 1024;
/// Timed ops run in blocks of this many seconds, each followed by the
/// exactness replay of its ops. Host speed changes in periods of seconds;
/// spreading the timed phase over the whole run samples more of them than
/// one contiguous block would.
const BLOCK_SECONDS: f64 = 1.0;
/// Distance pairs timed for `metrics.dist_ns`.
const DIST_PAIRS: usize = 200_000;

/// A lazy, seeded stream of arrivals: stationary Gaussian clusters plus a
/// uniform far tail. Stationary, so an op costs the same early and late in
/// a run; lazy, so the generator holds one op's input at a time. The
/// cluster centers are the workload's fixed geometry; `--seed` draws the
/// arrivals.
pub struct PointStream {
    rng: SplitMix64,
    centers: Vec<[f64; DIM]>,
}

impl PointStream {
    pub fn new(seed: u64) -> Self {
        let mut geometry = SplitMix64::new(0x7374_7265_616d);
        let centers = (0..CLUSTERS)
            .map(|_| std::array::from_fn(|_| 20.0 * geometry.unit() - 10.0))
            .collect();
        PointStream {
            rng: SplitMix64::new(seed),
            centers,
        }
    }

    fn point(&mut self) -> Vec<f32> {
        let coords: [f64; DIM] = if self.rng.unit() < TAIL_RATE {
            std::array::from_fn(|_| 160.0 * self.rng.unit() - 80.0)
        } else {
            let c = self.centers[self.rng.between(0, CLUSTERS - 1)];
            std::array::from_fn(|d| c[d] + self.rng.normal())
        };
        coords
            .iter()
            .map(|x| ((x * GRID).round() / GRID) as f32)
            .collect()
    }

    pub fn take(&mut self, n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|_| self.point()).collect()
    }

    /// The points of the next op's ingest request.
    pub fn next_op(&mut self) -> Vec<Vec<f32>> {
        let n = self.rng.between(*BATCH.start(), *BATCH.end());
        self.take(n)
    }
}

/// `{"points":[[x,…],…]}` with every coordinate printed exactly.
pub fn ingest_body(points: &[Vec<f32>]) -> String {
    let mut s = String::with_capacity(16 + points.len() * DIM * 12);
    s.push_str("{\"points\":[");
    for (i, p) in points.iter().enumerate() {
        s.push_str(if i == 0 { "[" } else { ",[" });
        for (j, x) in p.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            write!(s, "{}", f64::from(*x)).expect("writing to a String");
        }
        s.push(']');
    }
    s.push_str("]}");
    s
}

fn digest(bytes: &[u8]) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

/// A running server with one filled session.
struct Live {
    server: dod_server::ServerHandle,
    client: Client,
    ingest_path: String,
    report_path: String,
    session_path: String,
}

fn expect_status(reply: &crate::client::Reply, want: u16, what: &str) -> Result<(), String> {
    if reply.status == want {
        Ok(())
    } else {
        Err(format!(
            "{what} answered {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ))
    }
}

/// Binds a server, creates the session, fills its window and reads the
/// first report.
fn set_up(fill: &[Vec<f32>], create: &str) -> Result<Live, String> {
    let server = DodServer::builder()
        .workers(1)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?
        .start();
    let mut client = Client::new(server.addr());
    let reply = client.request("POST", "/v1/sessions", create.as_bytes())?;
    expect_status(&reply, 201, "session create")?;
    let doc = dod_wire::parse_json(&String::from_utf8_lossy(&reply.body))?;
    let id = doc
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or("session summary without an id")?;
    let session_path = format!("/v1/sessions/{id}");
    let mut live = Live {
        server,
        client,
        ingest_path: format!("{session_path}/ingest"),
        report_path: format!("{session_path}/report"),
        session_path,
    };
    for chunk in fill.chunks(FILL_BATCH) {
        let reply =
            live.client
                .request("POST", &live.ingest_path, ingest_body(chunk).as_bytes())?;
        expect_status(&reply, 200, "fill ingest")?;
    }
    let reply = live.client.request("GET", &live.report_path, b"")?;
    expect_status(&reply, 200, "first report")?;
    Ok(live)
}

/// Deletes the session (joining its pipeline threads) and stops the server.
fn tear_down(mut live: Live) -> Result<(), String> {
    let reply = live.client.request("DELETE", &live.session_path, b"")?;
    live.server.shutdown();
    expect_status(&reply, 200, "session delete")
}

fn open_twin(query: Query) -> Result<ShardedStreamDetector<VectorSpace<L2>>, String> {
    ShardedStreamDetector::open(
        VectorSpace::new(L2, DIM),
        query,
        WindowSpec::Count(WINDOW),
        Backend::Exhaustive,
        ShardSpec::new(1),
    )
    .map_err(|e| format!("reference detector: {e}"))
}

/// The result of one timed op: the report body's digest, or `None` when a
/// request failed or answered non-2xx.
type OpResult = Option<u64>;

/// Runs one op: ingest `body`, then read the report.
fn op(live: &mut Live, body: &str, tr: Option<(&mut Tracer, u64)>) -> OpResult {
    let Live {
        client,
        ingest_path,
        report_path,
        ..
    } = live;
    let mut ingest = || client.request("POST", ingest_path, body.as_bytes());
    let (a, b) = match tr {
        None => {
            let a = ingest();
            (a, client.request("GET", report_path, b""))
        }
        Some((tr, i)) => {
            tr.enter("http.ingest", i);
            let a = ingest();
            tr.exit();
            tr.enter("http.report", i);
            let b = client.request("GET", report_path, b"");
            tr.exit();
            (a, b)
        }
    };
    match (a, b) {
        (Ok(a), Ok(b)) if a.status == 200 && b.status == 200 => Some(digest(&b.body)),
        _ => None,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut phases = Phases::start();
    // Generator: the window-filling prefix and the radius calibrated on it.
    let mut stream = PointStream::new(args.seed);
    let fill = stream.take(WINDOW);
    let prefix = VectorSet::from_rows(&fill, L2);
    let r = calibrate_r(&prefix, K, TAIL_RATE, 400, args.seed ^ 0x7261_6469);
    let query = Query::new(r, K).map_err(|e| format!("calibrated query: {e}"))?;
    let create = JsonValue::obj([
        ("metric", JsonValue::from("l2")),
        ("dim", JsonValue::from(DIM)),
        ("r", JsonValue::from(r)),
        ("k", JsonValue::from(K)),
        (
            "window",
            JsonValue::obj([("count", JsonValue::from(WINDOW))]),
        ),
        ("shards", JsonValue::from(1usize)),
    ])
    .render();
    phases.mark("generate");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            tear_down(old)?;
        }
        let t = Instant::now();
        live = Some(set_up(&fill, &create)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("SETUPS > 0");
    phases.mark("setup");

    // Timed blocks alternate with the exactness replay of the ops just
    // timed. In a traced run even ops carry spans and odd ops do not,
    // which gives the tracing overhead.
    let mut tr = args.trace.then(Tracer::new);
    let mut reference = Reference::new(args.seed, query, &fill, args.trace)?;
    let before = reference.twin.stats();
    let mut latencies_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut pending: Vec<OpResult> = Vec::new();
    let mut failed = 0u64;
    let (mut timed_s, mut check_s) = (0.0, 0.0);
    let reconnects_before = live.client.reconnects();
    while keep_measuring(timed_s, latencies_ms.len(), args.seconds) {
        let block = Instant::now();
        loop {
            let elapsed = block.elapsed().as_secs_f64();
            if elapsed >= BLOCK_SECONDS
                || !keep_measuring(timed_s + elapsed, latencies_ms.len(), args.seconds)
            {
                break;
            }
            let i = latencies_ms.len() as u64;
            // The body is built just before its op and dropped after it.
            let body = ingest_body(&stream.next_op());
            let (result, ms) = match tr.as_mut().filter(|_| i.is_multiple_of(2)) {
                Some(tr) => {
                    tr.enter("op", i);
                    let result = op(&mut live, &body, Some((&mut *tr, i)));
                    (result, tr.exit() as f64 / 1e6)
                }
                None => {
                    let t = Instant::now();
                    let result = op(&mut live, &body, None);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    if tr.is_some() {
                        untraced_ms.push(ms);
                    }
                    (result, ms)
                }
            };
            latencies_ms.push(ms);
            pending.push(result);
        }
        timed_s += block.elapsed().as_secs_f64();
        let check = Instant::now();
        for served in pending.drain(..) {
            failed += u64::from(served.is_none());
            reference.check(served, tr.as_mut())?;
        }
        check_s += check.elapsed().as_secs_f64();
    }
    let reconnects = live.client.reconnects() - reconnects_before;
    tear_down(live)?;
    let after = reference.twin.stats();
    phases.mark("measure_and_check");

    let ops = latencies_ms.len();
    let mut out = Outcome {
        attempted: ops as u64,
        failed: failed + reference.wrong,
        ..Outcome::default()
    };
    out.diag = vec![
        ("r", JsonValue::from(r)),
        ("ops", JsonValue::from(ops)),
        ("reconnects", JsonValue::from(reconnects)),
        ("measure_wall_s", JsonValue::from(timed_s)),
        ("check_wall_s", JsonValue::from(check_s)),
        ("phases_s", phases.to_json()),
        ("setups_s", JsonValue::arr(setups.iter().copied())),
    ];

    let Some(tr) = tr else {
        end_to_end(&mut out, &setups, &latencies_ms, timed_s)?;
        return Ok(out);
    };
    let mut tr = tr;
    reference
        .layers
        .expect("traced runs replay the layers")
        .finish()?;

    // The kernel, timed on a seeded sample of the window's own pairs.
    let dist_ns = kernel_ns(&mut tr, &prefix, DIST_PAIRS, args.seed);

    let ms = |ns: &[u64]| mean(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>());
    let op_ms = ms(&tr.durations("op"));
    let ingest = tr.durations("http.ingest");
    let report = tr.durations("http.report");
    let http_ms = ms(&ingest) + ms(&report);
    let parse_ms = ms(&tr.durations("wire.parse"));
    let encode_ms = ms(&tr.durations("wire.encode"));
    let insert_ms = ms(&tr.durations("stream.insert"));
    let stream_report_ms = ms(&tr.durations("stream.report"));
    let pipeline_ms = ms(&tr.durations("shard.pipeline_op"));
    let p50 = |ns: &[u64]| {
        percentile(
            &sorted(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>()),
            50,
        )
        .unwrap_or(0.0)
    };
    let evals = (after.insert_dist_evals
        + after.expiry_dist_evals
        + after.audit_dist_evals
        + after.query_dist_evals)
        - (before.insert_dist_evals
            + before.expiry_dist_evals
            + before.audit_dist_evals
            + before.query_dist_evals);
    let evals_per_op = evals as f64 / ops as f64;
    let stream_ms = insert_ms + stream_report_ms;
    let bench_ms = op_ms - http_ms;
    let residual_ms = http_ms - pipeline_ms - parse_ms - encode_ms;

    let mx = &mut out.metrics;
    mx.insert("metrics.dist_ns", dist_ns);
    mx.insert("metrics.dist_evals_per_op", evals_per_op);
    mx.insert(
        "metrics.kernel_share",
        evals_per_op * dist_ns / (op_ms * 1e6),
    );
    mx.insert(
        "stream.insert_us",
        insert_ms * 1e3 * ops as f64 / reference.inserted as f64,
    );
    mx.insert("stream.report_ms", stream_report_ms);
    mx.insert(
        "stream.dist_evals_per_insert",
        (after.insert_dist_evals - before.insert_dist_evals) as f64
            / (after.inserts - before.inserts).max(1) as f64,
    );
    mx.insert("stream.self_ms", stream_ms);
    mx.insert("shard.pipeline_op_ms", pipeline_ms);
    mx.insert("shard.self_ms", pipeline_ms - stream_ms);
    mx.insert("wire.parse_us", parse_ms * 1e3);
    mx.insert("wire.encode_us", encode_ms * 1e3);
    mx.insert("server.ingest_ms_p50", p50(&ingest));
    mx.insert("server.report_ms_p50", p50(&report));
    mx.insert("server.residual_ms", residual_ms);
    mx.insert("server.reconnects", reconnects as f64);
    mx.insert("bench.self_ms", bench_ms);
    mx.insert("bench.trace_overhead", mean(&untraced_ms) / op_ms);
    mx.insert(
        "trace.closure",
        (bench_ms + residual_ms + parse_ms + encode_ms + (pipeline_ms - stream_ms) + stream_ms)
            / op_ms,
    );
    let spans_file = format!(".bench_out/spans-{}-{}.tsv", args.workload, args.seed);
    tr.write_tsv(std::path::Path::new(&spans_file))
        .map_err(|e| format!("writing {spans_file}: {e}"))?;
    out.diag.push(("traced_ops", JsonValue::from(ingest.len())));
    out.diag.push(("spans_file", JsonValue::from(spans_file)));
    Ok(out)
}

/// The exactness reference: a twin detector fed the same arrivals as the
/// server, plus the layer replay in a traced run.
struct Reference {
    stream: PointStream,
    twin: ShardedStreamDetector<VectorSpace<L2>>,
    layers: Option<LayerReplay>,
    next_op: u64,
    /// Points replayed after the fill.
    inserted: u64,
    wrong: u64,
}

impl Reference {
    fn new(seed: u64, query: Query, fill: &[Vec<f32>], traced: bool) -> Result<Self, String> {
        let mut stream = PointStream::new(seed);
        stream.take(WINDOW);
        let mut twin = open_twin(query)?;
        for p in fill {
            twin.insert(p.clone());
        }
        let layers = if traced {
            Some(LayerReplay::new(query, fill)?)
        } else {
            None
        };
        Ok(Reference {
            stream,
            twin,
            layers,
            next_op: 0,
            inserted: 0,
            wrong: 0,
        })
    }

    /// Replays the next op and counts it wrong when the served report's
    /// digest differs from the reference body's.
    fn check(&mut self, served: OpResult, tr: Option<&mut Tracer>) -> Result<(), String> {
        let i = self.next_op;
        self.next_op += 1;
        let points = self.stream.next_op();
        self.inserted += points.len() as u64;
        let want = match (self.layers.as_mut(), tr) {
            (Some(layers), Some(tr)) => layers.op(tr, i, points, &mut self.twin)?,
            _ => {
                for p in points {
                    self.twin.insert(p);
                }
                Some(encode::stream_report_response(&self.twin.outliers()))
            }
        };
        if served.is_some() && want.map(|w| digest(w.as_bytes())) != served {
            self.wrong += 1;
        }
        Ok(())
    }
}

/// The traced run's replay of every op through the layers the server
/// stacks: `dod_wire` parsing and encoding, the synchronous sharded
/// detector (the stream layer, and the exactness reference) and an
/// `IngestPipeline` with the server's spec (the shard layer's threads).
struct LayerReplay {
    pipeline: dod_shard::IngestPipeline<VectorSpace<L2>>,
}

impl LayerReplay {
    fn new(query: Query, fill: &[Vec<f32>]) -> Result<Self, String> {
        let pipeline = open_twin(query)?.into_pipeline(PIPELINE_QUEUE);
        pipeline
            .insert_many(fill.to_vec())
            .and_then(|()| pipeline.outliers())
            .map_err(|e| format!("pipeline fill: {e}"))?;
        Ok(LayerReplay { pipeline })
    }

    /// Replays op `i`; returns the reference report body, or `None` when
    /// the pipeline disagrees with the synchronous detector.
    fn op(
        &mut self,
        tr: &mut Tracer,
        i: u64,
        points: Vec<Vec<f32>>,
        twin: &mut ShardedStreamDetector<VectorSpace<L2>>,
    ) -> Result<Option<String>, String> {
        let body = ingest_body(&points);
        tr.enter("wire.parse", i);
        let parsed = dod_wire::parse_json(&body);
        tr.exit();
        parsed.map_err(|e| format!("replay parse: {e}"))?;
        tr.enter("stream.insert", i);
        for p in &points {
            twin.insert(p.clone());
        }
        tr.exit();
        tr.enter("stream.report", i);
        let seqs = twin.outliers();
        tr.exit();
        tr.enter("wire.encode", i);
        let want = encode::stream_report_response(&seqs);
        tr.exit();
        tr.enter("shard.pipeline_op", i);
        let piped = self
            .pipeline
            .insert_many(points)
            .and_then(|()| self.pipeline.outliers());
        tr.exit();
        let piped = piped.map_err(|e| format!("replay pipeline: {e}"))?;
        Ok((piped == seqs).then_some(want))
    }

    fn finish(self) -> Result<(), String> {
        self.pipeline
            .finish()
            .map(drop)
            .map_err(|e| format!("pipeline finish: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_round_trip_points_exactly() {
        let points = PointStream::new(3).take(200);
        let doc = dod_wire::parse_json(&ingest_body(&points)).unwrap();
        let parsed: Vec<Vec<f32>> = doc
            .get("points")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|p| {
                p.as_arr()
                    .unwrap()
                    .iter()
                    .map(|c| c.as_f64().unwrap() as f32)
                    .collect()
            })
            .collect();
        assert_eq!(parsed, points);
    }

    #[test]
    fn the_stream_is_seeded() {
        assert_eq!(PointStream::new(5).take(50), PointStream::new(5).take(50));
        assert_ne!(PointStream::new(5).take(50), PointStream::new(6).take(50));
    }

    /// The server answers what the twin answers, and a tampered body is a
    /// failed op.
    #[test]
    fn served_reports_match_the_twin_and_a_wrong_body_fails() {
        let mut stream = PointStream::new(8);
        let fill = stream.take(WINDOW);
        let r = calibrate_r(&VectorSet::from_rows(&fill, L2), K, TAIL_RATE, 200, 1);
        let query = Query::new(r, K).unwrap();
        let create = format!(
            r#"{{"metric":"l2","dim":{DIM},"r":{},"k":{K},"window":{{"count":{WINDOW}}}}}"#,
            dod_wire::render_number(r)
        );
        let mut live = set_up(&fill, &create).unwrap();
        let mut twin = open_twin(query).unwrap();
        for p in fill {
            twin.insert(p);
        }
        for _ in 0..20 {
            let points = stream.next_op();
            let got = op(&mut live, &ingest_body(&points), None).expect("op succeeds");
            for p in points {
                twin.insert(p);
            }
            let want = encode::stream_report_response(&twin.outliers());
            assert_eq!(got, digest(want.as_bytes()));
            assert_ne!(got, digest(format!("{want} ").as_bytes()));
        }
        tear_down(live).unwrap();
    }
}
