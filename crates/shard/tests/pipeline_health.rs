//! The pipeline's health barrier: the document must be
//! snapshot-consistent with every preceding insert and agree with the
//! synchronous detector's aggregation.

use dod_core::Query;
use dod_datasets::StreamScenario;
use dod_metrics::L2;
use dod_shard::{ShardSpec, ShardedStreamDetector};
use dod_stream::{Backend, GraphParams, VectorSpace, WindowSpec};

const DIM: usize = 2;

fn points(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let scenario = StreamScenario {
        clusters: 3,
        drift: 0.05,
        outlier_rate: 0.08,
        burst_every: 25,
        burst_len: 4,
        burst_rate: 0.5,
        churn_every: 40,
        ..StreamScenario::new(DIM)
    };
    scenario.generate(n, seed)
}

fn open(shards: usize, backend: Backend) -> ShardedStreamDetector<VectorSpace<L2>> {
    ShardedStreamDetector::open(
        VectorSpace::new(L2, DIM),
        Query::new(0.35, 3).expect("valid query"),
        WindowSpec::Count(128),
        backend,
        ShardSpec::new(shards),
    )
    .expect("valid spec")
}

/// The barrier-collected pipeline document equals the synchronous
/// detector's over the same stream state, and its numbers cover the
/// whole window.
#[test]
fn pipeline_health_matches_synchronous_and_covers_the_window() {
    let mut det = open(4, Backend::Graph(GraphParams::default()));
    let stream = points(300, 17);
    for p in &stream {
        det.insert(p.clone());
    }
    // Health is a read-only scrape: it never advances shard clocks, so
    // bring every shard to the slide boundary the way a query would.
    let _ = det.outliers();
    let sync_health = det.health();

    let pipeline = det.into_pipeline(64);
    let health = pipeline.health().expect("live pipeline");
    assert_eq!(health.shards.len(), 4);
    // Same per-shard occupancy and counters as the synchronous view —
    // the pipeline changed the threading, not the state.
    for (a, b) in health.shards.iter().zip(sync_health.shards.iter()) {
        assert_eq!((a.owned, a.ghosts), (b.owned, b.ghosts));
        assert_eq!(a.stats.inserts, b.stats.inserts);
    }
    assert_eq!(health.routes, sync_health.routes);

    // The window is fully accounted for: owned residents across shards
    // sum to the global window, and rates/skews are well-formed.
    let owned: usize = health.shards.iter().map(|s| s.owned).sum();
    assert_eq!(owned, 128);
    assert!(health.owned_skew() >= 1.0);
    assert!(health.slide_skew() >= 1.0);
    for rate in health.ghost_rates() {
        assert!((0.0..=1.0).contains(&rate), "ghost rate {rate}");
    }

    // The barrier sees every insert enqueued before it.
    pipeline.insert_many(stream[..64].to_vec()).expect("live");
    let after = pipeline.health().expect("live pipeline");
    assert_eq!(
        after.stats().inserts,
        health.stats().inserts + 64 + (after.stats().ghost_inserts - health.stats().ghost_inserts)
    );
    drop(pipeline);
}

/// A line whose distance panics between two poisoned points, so a test
/// can kill exactly one shard's pump: the router only measures points
/// against (healthy) pivots, while the owning shard measures a new point
/// against its residents.
#[derive(Clone)]
struct Tripwire;

impl dod_stream::Space for Tripwire {
    type Point = (f64, bool);

    fn dist(&self, a: &(f64, bool), b: &(f64, bool)) -> f64 {
        assert!(!(a.1 && b.1), "tripwire: two poisoned points met");
        (a.0 - b.0).abs()
    }
}

/// A dead pump fails every read barrier as a whole: its shard's state is
/// gone, so a report or health document from the surviving shards alone
/// would be silently partial.
#[test]
fn a_dead_pump_fails_every_read_barrier() {
    let det = ShardedStreamDetector::open(
        Tripwire,
        Query::new(1.0, 1).expect("valid query"),
        WindowSpec::Count(16),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(2).with_pivots_per_shard(1),
    )
    .expect("valid spec");
    let pipeline = det.into_pipeline(8);
    // Pivots land on the two warm-up points, one shard each.
    pipeline
        .insert_many(vec![(0.0, false), (100.0, false)])
        .expect("live");
    assert_eq!(pipeline.health().expect("both pumps alive").shards.len(), 2);
    // Both poisoned points belong to the shard around 0: its pump panics
    // on the second insert, the shard around 100 lives on.
    pipeline
        .insert_many(vec![(1.0, true), (1.5, true)])
        .expect("the router accepts the batch");
    assert!(pipeline.health().is_err(), "partial health document");
    assert!(pipeline.report().is_err(), "partial report");
    assert!(pipeline.outliers().is_err(), "partial outliers");
}
