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
    // Audit every slide so a 300-point stream accumulates real samples.
    let gp = GraphParams {
        sample_rate: 1,
        audit_sample: 4,
        ..GraphParams::default()
    };
    let mut det = open(4, Backend::Graph(gp));
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
        assert_eq!(a.index.live, b.index.live);
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
    // Graph backend everywhere: the absorbed index document is inexact
    // and audited (audit_sample > 0 ran on every shard slide).
    let idx = health.index();
    assert!(!idx.exact);
    assert!(health.stats().recall_audits > 0, "auditors never ran");

    // The barrier sees every insert enqueued before it.
    pipeline.insert_many(stream[..64].to_vec()).expect("live");
    let after = pipeline.health().expect("live pipeline");
    assert_eq!(
        after.stats().inserts,
        health.stats().inserts + 64 + (after.stats().ghost_inserts - health.stats().ghost_inserts)
    );
    drop(pipeline);
}
