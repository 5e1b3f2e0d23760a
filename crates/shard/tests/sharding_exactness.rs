//! The sharded engine's defining property: for any shard count, the
//! merged answer after **every** slide equals the single
//! `StreamDetector`'s answer — which is itself pinned to the
//! `nested_loop` batch ground truth over the window snapshot.
//!
//! Streams come from `dod_datasets::StreamScenario` with drift, outlier
//! bursts and cluster churn compressed into short runs, so pivots picked
//! from the warm-up prefix are stale by mid-stream (churn teleports
//! clusters) — exactness must never depend on pivot quality.

use dod_core::{nested_loop, DodError, DodParams, Query};
use dod_datasets::StreamScenario;
use dod_metrics::{Angular, VectorMetric, L2};
use dod_shard::{ShardSpec, ShardedStreamDetector};
use dod_stream::{Backend, GraphParams, Space, StreamDetector, VectorSpace, WindowSpec};
use proptest::prelude::*;

const DIM: usize = 2;

/// A hostile short stream: tight drift/burst/churn cadence.
fn scenario_points(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let scenario = StreamScenario {
        clusters: 3,
        drift: 0.05,
        outlier_rate: 0.08,
        burst_every: 25,
        burst_len: 4,
        burst_rate: 0.6,
        churn_every: 30,
        ..StreamScenario::new(DIM)
    };
    scenario.generate(n, seed)
}

/// Batch ground truth over the single detector's live window, as seqs.
fn batch_outliers(det: &StreamDetector<VectorSpace<L2>>, r: f64, k: usize) -> Vec<u64> {
    let view = det.window_view();
    nested_loop::detect(&view, &DodParams::new(r, k), 3)
        .outliers
        .into_iter()
        .map(|pos| view.seq_at(pos as usize))
        .collect()
}

fn check_sharding(shards: usize, backend: Backend, r: f64, k: usize, w: usize, seed: u64) {
    let query = Query::new(r, k).expect("valid query");
    let mut single = StreamDetector::open(
        VectorSpace::new(L2, DIM),
        query,
        WindowSpec::Count(w),
        backend.clone(),
    )
    .expect("single detector");
    // A short warm-up relative to the stream, so the partitioned regime
    // (and ghost expiry across it) is what the test mostly exercises.
    let spec = ShardSpec::new(shards).with_warmup((w / 2).max(2));
    let mut sharded = ShardedStreamDetector::open(
        VectorSpace::new(L2, DIM),
        query,
        WindowSpec::Count(w),
        backend,
        spec,
    )
    .expect("sharded detector");

    for (i, p) in scenario_points(70, seed).into_iter().enumerate() {
        let s_rep = single.insert(p.clone());
        let sh_rep = sharded.insert(p);
        assert_eq!(s_rep.seq, sh_rep.seq, "seq assignment must agree");
        assert_eq!(s_rep.expired, sh_rep.expired, "expiry must agree at {i}");
        assert_eq!(s_rep.window_len, sh_rep.window_len);

        let want = single.outliers();
        let got = sharded.outliers();
        assert_eq!(
            got, want,
            "S={shards} r={r} k={k} w={w} seed={seed} slide={i}"
        );
        // Ground truth and the independent recount agree too.
        assert_eq!(want, batch_outliers(&single, r, k));
        assert_eq!(got, sharded.audit(), "audit disagrees at slide {i}");
        // The merged report speaks the same positions as the single one.
        assert_eq!(sharded.report().outliers, single.report().outliers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_exhaustive_matches_single_after_every_slide(
        shard_pick in 0usize..3, // S ∈ {1, 2, 4}
        r in 0.5f64..4.0,
        k in 1usize..5,
        w in 4usize..40,
        seed in 0u64..10_000,
    ) {
        check_sharding([1, 2, 4][shard_pick], Backend::Exhaustive, r, k, w, seed);
    }

    #[test]
    fn sharded_graph_backend_matches_single_after_every_slide(
        shard_pick in 0usize..2, // S ∈ {2, 4}
        r in 0.5f64..4.0,
        k in 1usize..5,
        w in 4usize..40,
        seed in 0u64..10_000,
    ) {
        check_sharding(
            [2, 4][shard_pick],
            Backend::Graph(GraphParams::default()),
            r,
            k,
            w,
            seed,
        );
    }
}

/// SplitMix64: a seeded stream for the probe below, so every run
/// replays the same shuffles and windows.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Feeds `rows` to a single detector and to an `S`-shard one (warm-up 8,
/// exhaustive backend) over the same space, and describes the first
/// slide at which their answers differ.
fn first_disagreement<M: VectorMetric + Clone + 'static>(
    space: VectorSpace<M>,
    rows: &[Vec<f32>],
    r: f64,
    k: usize,
    shards: usize,
    w: usize,
) -> Option<String> {
    let query = Query::new(r, k).expect("valid query");
    let mut single = StreamDetector::open(
        space.clone(),
        query,
        WindowSpec::Count(w),
        Backend::Exhaustive,
    )
    .expect("single detector");
    let mut sharded = ShardedStreamDetector::open(
        space,
        query,
        WindowSpec::Count(w),
        Backend::Exhaustive,
        ShardSpec::new(shards).with_warmup(8),
    )
    .expect("sharded detector");
    for (i, p) in rows.iter().enumerate() {
        single.insert(p.clone());
        sharded.insert(p.clone());
        let (want, got) = (single.outliers(), sharded.outliers());
        if want != got {
            return Some(format!(
                "r={r:e} S={shards} k={k} W={w} slide={i}: single {want:?}, sharded {got:?}"
            ));
        }
    }
    None
}

fn assert_all_agree(wrong: &[String], streams: usize) {
    assert!(
        wrong.is_empty(),
        "{} of {streams} streams disagree; first: {}",
        wrong.len(),
        wrong[0]
    );
}

#[test]
fn collinear_integer_streams_stay_exact_under_rounding() {
    // Points t·(a, b) on a line: every distance is |t − u|·|(a, b)| up to
    // rounding, and r = |m·(a, b)| is one of them, so the stream is full
    // of d == r ties. Rounded distances break the triangle inequality by
    // an ulp here (√32 − √2 > √18 in f64), which is exactly the slack a
    // ghost bound needs to keep every ghost a neighbour count depends on.
    let mut rng = 0x5EED_u64;
    let mut streams = 0;
    let mut wrong = Vec::new();
    for a in 1u32..=3 {
        for b in 1u32..=4 {
            for m in 1u32..=6 {
                let r = L2.dist(&[0.0, 0.0], &[(m * a) as f32, (m * b) as f32]);
                for shards in 2usize..=4 {
                    for k in 1usize..=4 {
                        let w = 20 + (splitmix(&mut rng) % 30) as usize;
                        let mut ts: Vec<u32> = (0..60).collect();
                        for i in (1..ts.len()).rev() {
                            ts.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
                        }
                        let rows: Vec<Vec<f32>> = ts
                            .iter()
                            .map(|&t| vec![(t * a) as f32, (t * b) as f32])
                            .collect();
                        streams += 1;
                        let space = VectorSpace::new(L2, 2);
                        if let Some(at) = first_disagreement(space, &rows, r, k, shards, w) {
                            wrong.push(format!("a={a} b={b} m={m} {at}"));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(streams, 864);
    assert_all_agree(&wrong, streams);
}

#[test]
fn near_parallel_angular_streams_stay_exact_under_rounding() {
    // Rows t·(b0, b1 + ε, b2) along one to four integer directions, with
    // t in 1..50 and ε in {0, …, 4}·1e-3: identical directions measure
    // up to 4.2e-4 rad apart, and r is one of the measured distances, so
    // the stream is full of d == r ties inside the angular kernel's
    // rounding. A ghost bound with a relative slack drops a ghost that a
    // count needs, and a shard that normalizes a row a second time
    // measures different distances from the single window.
    let mut rng = 0xA06_u64;
    const STREAMS: usize = 600;
    let mut wrong = Vec::new();
    for _ in 0..STREAMS {
        let dirs: Vec<[f64; 3]> = (0..1 + splitmix(&mut rng) % 4)
            .map(|_| {
                [
                    (1 + splitmix(&mut rng) % 7) as f64,
                    (splitmix(&mut rng) % 7) as f64,
                    (splitmix(&mut rng) % 7) as f64,
                ]
            })
            .collect();
        let rows: Vec<Vec<f32>> = (0..60)
            .map(|_| {
                let b = dirs[(splitmix(&mut rng) % dirs.len() as u64) as usize];
                let t = (1 + splitmix(&mut rng) % 49) as f64;
                let eps = (splitmix(&mut rng) % 5) as f64 * 1e-3;
                vec![
                    (t * b[0]) as f32,
                    (t * (b[1] + eps)) as f32,
                    (t * b[2]) as f32,
                ]
            })
            .collect();
        let space = VectorSpace::new(Angular, 3);
        let p = space.prepare(rows[(splitmix(&mut rng) % 60) as usize].clone());
        let q = space.prepare(rows[(splitmix(&mut rng) % 60) as usize].clone());
        let r = space.dist(&p, &q);
        let k = 1 + (splitmix(&mut rng) % 4) as usize;
        let shards = 2 + (splitmix(&mut rng) % 3) as usize;
        let w = 20 + (splitmix(&mut rng) % 30) as usize;
        if let Some(at) = first_disagreement(space, &rows, r, k, shards, w) {
            wrong.push(at);
        }
    }
    assert_all_agree(&wrong, STREAMS);
}

#[test]
fn dense_streams_spread_over_every_shard() {
    // 400 uniform points in [0, 10)² with r = 1: farthest-first pivots
    // sit within 3r of their neighbours, so closeness alone chains every
    // pivot into one group. That group must not land on one shard.
    let mut rng = 0xD0D_u64;
    let mut coord = || (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
    let points: Vec<Vec<f32>> = (0..400)
        .map(|_| vec![coord() as f32, coord() as f32])
        .collect();
    let query = Query::new(1.0, 4).expect("valid query");
    for shards in [3, 4] {
        let mut single = StreamDetector::open(
            VectorSpace::new(L2, 2),
            query,
            WindowSpec::Count(256),
            Backend::Exhaustive,
        )
        .expect("single detector");
        let mut sharded = ShardedStreamDetector::open(
            VectorSpace::new(L2, 2),
            query,
            WindowSpec::Count(256),
            Backend::Exhaustive,
            ShardSpec::new(shards),
        )
        .expect("sharded detector");
        for p in &points {
            single.insert(p.clone());
            sharded.insert(p.clone());
        }
        assert_eq!(sharded.outliers(), single.outliers(), "S={shards}");
        let health = sharded.health();
        let owned: Vec<usize> = health.shards.iter().map(|s| s.owned).collect();
        assert!(
            owned.iter().all(|&o| o > 0),
            "S={shards}: a shard owns nothing: {owned:?}"
        );
        assert!(
            health.owned_skew() < 2.0,
            "S={shards}: owned {owned:?}, skew {}",
            health.owned_skew()
        );
    }
}

#[test]
fn ghost_expiry_keeps_boundary_counts_exact() {
    // Two clusters around 0 and 10; the pivots land one per cluster.
    // Boundary points near 5 are ghosted both ways; as the tiny window
    // slides, ghosts expire and the counts they fed must decay exactly.
    let query = Query::new(1.2, 2).expect("valid");
    let mut single = StreamDetector::open(
        VectorSpace::new(L2, 1),
        query,
        WindowSpec::Count(6),
        Backend::Exhaustive,
    )
    .expect("single");
    let mut sharded = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        query,
        WindowSpec::Count(6),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(2),
    )
    .expect("sharded");
    // Alternate cluster points with boundary points at 4.8/5.2/5.0 so
    // ghosts are created and then expired while their neighbors live on.
    let xs: [f32; 16] = [
        0.0, 10.0, 4.8, 5.2, 0.3, 9.7, 5.0, 4.6, 10.2, 0.1, 5.4, 5.1, 9.9, 0.2, 4.9, 5.3,
    ];
    for (i, &x) in xs.iter().enumerate() {
        single.insert(vec![x]);
        sharded.insert(vec![x]);
        assert_eq!(sharded.outliers(), single.outliers(), "slide {i}");
        assert_eq!(sharded.audit(), single.outliers(), "audit at slide {i}");
    }
    let health = sharded.health();
    let ghost_routes: u64 = health.routes.pairs.iter().flatten().sum();
    assert!(
        ghost_routes > 0,
        "the scenario must actually exercise ghosts"
    );
    assert_eq!(health.stats().ghost_inserts, ghost_routes);
}

#[test]
fn time_windows_expire_consistently_under_advance() {
    let query = Query::new(1.0, 1).expect("valid");
    let mut single = StreamDetector::open(
        VectorSpace::new(L2, 1),
        query,
        WindowSpec::Time(10.0),
        Backend::Exhaustive,
    )
    .expect("single");
    let mut sharded = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        query,
        WindowSpec::Time(10.0),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(2),
    )
    .expect("sharded");
    let events: [(f32, f64); 6] = [
        (0.0, 0.0),
        (9.0, 2.0),
        (0.2, 5.0),
        (9.1, 8.0),
        (0.4, 11.0), // expires seq 0
        (20.0, 14.0),
    ];
    for &(x, t) in &events {
        single.insert_at(vec![x], t);
        sharded.insert_at(vec![x], t);
        assert_eq!(sharded.outliers(), single.outliers(), "t={t}");
        assert_eq!(sharded.window_seqs(), single.window_seqs(), "t={t}");
    }
    // A quiet stream: pure clock advances expire the same seqs.
    assert_eq!(single.advance_to(20.0), sharded.advance_to(20.0));
    assert_eq!(sharded.outliers(), single.outliers());
    assert_eq!(single.advance_to(100.0), sharded.advance_to(100.0));
    assert!(sharded.is_empty());
    assert!(sharded.outliers().is_empty());
}

#[test]
fn early_reports_answer_from_the_warmup_buffer() {
    let query = Query::new(1.0, 1).expect("valid");
    let mut sharded = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        query,
        WindowSpec::Count(16),
        Backend::Exhaustive,
        ShardSpec::new(4).with_warmup(4),
    )
    .expect("sharded");
    sharded.insert(vec![0.0]);
    assert!(!sharded.is_partitioned());
    // Queries during warm-up are answered by brute force over the
    // buffer — they never freeze the partition on a tiny prefix. One
    // point with k=1: an outlier.
    assert_eq!(sharded.outliers(), vec![0]);
    assert_eq!(sharded.report().outliers, vec![0]);
    assert!(
        !sharded.is_partitioned(),
        "early query must not force pivots"
    );
    sharded.insert(vec![0.1]);
    sharded.insert(vec![50.0]);
    assert_eq!(sharded.outliers(), vec![2]);
    assert_eq!(sharded.audit(), vec![2]);
    // The 4th point completes the warm-up: pivots freeze, shards answer.
    sharded.insert(vec![50.2]);
    assert!(sharded.is_partitioned());
    assert_eq!(sharded.outliers(), Vec::<u64>::new());
    assert_eq!(sharded.audit(), Vec::<u64>::new());
}

#[test]
fn empty_and_k_zero_edge_cases() {
    let mut det = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        Query::new(1.0, 0).expect("k = 0 is legal"),
        WindowSpec::Count(8),
        Backend::Exhaustive,
        ShardSpec::new(2),
    )
    .expect("open");
    assert!(det.outliers().is_empty(), "empty window");
    det.insert(vec![0.0]);
    det.insert(vec![100.0]);
    assert!(det.outliers().is_empty(), "k = 0 flags nothing");
    assert!(det.audit().is_empty());
}

#[test]
fn invalid_specs_surface_as_typed_errors() {
    let query = Query::new(1.0, 1).expect("valid");
    let bad = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        query,
        WindowSpec::Count(8),
        Backend::Exhaustive,
        ShardSpec::new(0),
    );
    assert!(matches!(bad, Err(DodError::InvalidShardSpec { .. })));
    let bad_window = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        query,
        WindowSpec::Count(0),
        Backend::Exhaustive,
        ShardSpec::new(2),
    );
    assert!(matches!(bad_window, Err(DodError::InvalidWindow { .. })));
}

#[test]
fn pipeline_reports_are_snapshot_consistent_and_finish_reassembles() {
    let query = Query::new(1.5, 2).expect("valid");
    let mk = |backend: Backend| {
        ShardedStreamDetector::open(
            VectorSpace::new(L2, DIM),
            query,
            WindowSpec::Count(32),
            backend,
            ShardSpec::new(4).with_warmup(8),
        )
        .expect("open")
    };
    for backend in [Backend::Exhaustive, Backend::Graph(GraphParams::default())] {
        // A synchronous twin consumes the same stream for reference.
        let mut twin = StreamDetector::open(
            VectorSpace::new(L2, DIM),
            query,
            WindowSpec::Count(32),
            backend.clone(),
        )
        .expect("twin");
        let pipeline = mk(backend).into_pipeline(64);
        let handle = pipeline.handle();
        let points = scenario_points(150, 99);
        for (i, p) in points.iter().enumerate() {
            twin.insert(p.clone());
            handle.insert(p.clone()).expect("pipeline alive");
            if i % 37 == 0 {
                // A report enqueued here must reflect exactly i+1 inserts.
                assert_eq!(
                    pipeline.outliers().expect("report"),
                    twin.outliers(),
                    "checkpoint at {i}"
                );
            }
        }
        let report = pipeline.report().expect("final report");
        assert_eq!(report.outliers, twin.report().outliers);
        let stats = pipeline.health().expect("health").stats();
        assert!(stats.inserts >= points.len() as u64);

        // finish() hands back the synchronous detector with all state.
        let mut back = pipeline.finish().expect("finish");
        assert_eq!(back.outliers(), twin.outliers());
        assert_eq!(back.audit(), twin.outliers());
        assert_eq!(back.len(), twin.len());
    }
}

#[test]
fn pipeline_handles_are_cloneable_and_fail_after_finish() {
    let det = ShardedStreamDetector::open(
        VectorSpace::new(L2, 1),
        Query::new(1.0, 1).expect("valid"),
        WindowSpec::Count(8),
        Backend::Exhaustive,
        ShardSpec::new(2),
    )
    .expect("open");
    let pipeline = det.into_pipeline(4);
    let h1 = pipeline.handle();
    let h2 = h1.clone();
    h1.insert(vec![0.0]).expect("alive");
    h2.insert(vec![50.0]).expect("alive");
    assert_eq!(pipeline.outliers().expect("report"), vec![0, 1]);
    let _det = pipeline.finish().expect("finish");
    assert!(h1.insert(vec![1.0]).is_err(), "pipeline is gone");
}
