//! The sampled discovery-recall auditor belongs to the graph backend:
//! exact backends are never audited (their discovery is the brute-force
//! scan an audit compares against), a healthy graph stays near 1.0, a
//! deliberately degraded graph falls measurably — and exactness holds
//! throughout, because verdicts are repaired against the window, never
//! the graph.

use dod_core::DodError;
use dod_metrics::L2;
use dod_stream::{Backend, GraphParams, StreamDetector, StreamParams, VectorSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn clustered_stream(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.08) {
                vec![rng.gen_range(30.0f32..60.0), rng.gen_range(30.0f32..60.0)]
            } else {
                let c = [0.0f32, 3.0, 6.0][rng.gen_range(0usize..3)];
                vec![c + rng.gen_range(-0.6f32..0.6), rng.gen_range(-0.6f32..0.6)]
            }
        })
        .collect()
}

fn detector(backend: Backend, w: usize) -> StreamDetector<VectorSpace<L2>> {
    StreamDetector::try_with_backend(
        VectorSpace::new(L2, 2),
        StreamParams::count(1.0, 3, w),
        backend,
    )
    .expect("valid params")
}

/// A graph detector that audits every slide, so short test streams
/// accumulate real samples.
fn audited_graph(w: usize) -> StreamDetector<VectorSpace<L2>> {
    detector(
        Backend::Graph(GraphParams {
            sample_rate: 1,
            audit_sample: 8,
            ..GraphParams::default()
        }),
        w,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// When discovery is complete, the full `audit()` agrees with
    /// `outliers()` after every slide, and the recall estimate is exactly
    /// 1.0 because nothing was sampled: an exact backend never audits,
    /// so it spends no distance evaluation on it either.
    #[test]
    fn exact_discovery_pins_the_estimate_to_one(
        seed in 0u64..10_000,
        w in 4usize..48,
    ) {
        let mut det = detector(Backend::Exhaustive, w);
        for p in clustered_stream(80, seed) {
            det.insert(p);
            prop_assert_eq!(det.outliers(), det.audit());
        }
        let stats = det.stats();
        prop_assert_eq!(stats.recall_audits, 0, "exact backend audited");
        prop_assert_eq!((stats.recall_hits, stats.recall_expected), (0, 0));
        prop_assert_eq!((stats.audit_dist_evals, stats.audit_hops), (0, 0));
        prop_assert_eq!(stats.recall_estimate(), 1.0);
    }

    /// The graph backend's estimate is a true recall: within [0, 1],
    /// with exactness pinned independently of it.
    #[test]
    fn graph_estimate_is_a_recall_and_exactness_holds(
        seed in 0u64..10_000,
    ) {
        let mut det = audited_graph(32);
        for p in clustered_stream(80, seed) {
            det.insert(p);
            prop_assert_eq!(det.outliers(), det.audit());
        }
        let stats = det.stats();
        prop_assert!(stats.recall_audits > 0);
        prop_assert!(stats.recall_hits <= stats.recall_expected);
        let est = stats.recall_estimate();
        prop_assert!((0.0..=1.0).contains(&est), "estimate {est} outside [0,1]");
    }
}

/// Dropping the graph's edges by hand must show up in the estimate —
/// and must NOT show up in the answers.
#[test]
fn injected_edge_loss_degrades_the_estimate_but_not_the_answers() {
    let mut det = audited_graph(64);
    let points = clustered_stream(400, 7);
    let (warm, rest) = points.split_at(200);
    for p in warm {
        det.insert(p.clone());
    }
    let healthy = det.stats();
    assert!(healthy.recall_audits > 0, "no audits during warm-up");
    let healthy_est = healthy.recall_estimate();
    assert!(
        healthy_est > 0.8,
        "healthy graph discovery unexpectedly weak: {healthy_est}"
    );

    // Sever every link. New insertions re-link themselves, but the
    // existing window's residents become near-undiscoverable.
    det.inject_edge_loss(0);
    for p in rest {
        det.insert(p.clone());
        // Exactness is untouched: repairs scan the window, not the graph.
        assert_eq!(det.outliers(), det.audit());
    }
    let after = det.stats();
    let degraded_hits = after.recall_hits - healthy.recall_hits;
    let degraded_expected = after.recall_expected - healthy.recall_expected;
    assert!(
        degraded_expected > 0,
        "post-degradation audits found nobody"
    );
    let degraded_est = degraded_hits as f64 / degraded_expected as f64;
    assert!(
        degraded_est < healthy_est,
        "estimate did not fall: healthy {healthy_est} vs degraded {degraded_est}"
    );
    // The lifetime gauge (what /metrics exports) moves too.
    assert!(
        after.recall_estimate() < healthy_est,
        "exported estimate did not move: {} vs {healthy_est}",
        after.recall_estimate()
    );
}

/// The graph's structural health document tracks the window and its
/// maintenance history.
#[test]
fn graph_health_document_tracks_structure() {
    let mut det = audited_graph(48);
    for p in clustered_stream(300, 11) {
        det.insert(p);
    }
    let h = det.index_health();
    assert!(!h.exact);
    assert_eq!(h.live, 48, "live vertices = window residents");
    let ratio = h.tombstone_ratio();
    assert!((0.0..1.0).contains(&ratio), "tombstone ratio {ratio}");
    assert!(h.compactions > 0, "252 expirations never compacted");
    assert!(h.bridge_edges > 0, "compaction never bridged");
    let hist_total: u64 = h.degree_hist.iter().sum();
    assert_eq!(hist_total, h.live + h.tombstones, "histogram covers arena");

    // The exhaustive backend has no structure to degrade.
    let det = detector(Backend::Exhaustive, 48);
    let h = det.index_health();
    assert!(h.exact);
    assert_eq!((h.live, h.tombstones), (0, 0));
    assert_eq!(h.tombstone_ratio(), 0.0);
}

/// An exhaustive detector runs the full scan per slide and never an
/// audit, at any stream length: 2,048 points through a 256-point window
/// cross the graph backend's default cadence (1,024 slides) twice.
#[test]
fn exact_backends_never_audit() {
    let mut det = StreamDetector::try_with_backend(
        VectorSpace::new(L2, 2),
        StreamParams::count(1.0, 2, 256),
        Backend::Exhaustive,
    )
    .expect("valid params");
    for p in clustered_stream(2048, 5) {
        det.insert(p);
    }
    let stats = det.stats();
    assert_eq!(stats.inserts, 2048);
    assert_eq!(stats.recall_audits, 0, "exact backend audited");
    assert_eq!(stats.audit_dist_evals, 0, "audit work on an exact backend");
    assert_eq!(det.outliers(), det.audit());
}

/// Audit knobs reject nonsense with typed errors instead of clamping,
/// and `GraphParams` is the only place to set them.
#[test]
fn audit_knobs_are_validated_not_clamped() {
    let gp = GraphParams {
        sample_rate: 0,
        ..GraphParams::default()
    };
    match StreamDetector::try_with_backend(
        VectorSpace::new(L2, 2),
        StreamParams::count(1.0, 3, 16),
        Backend::Graph(gp),
    ) {
        Err(err) => assert!(matches!(err, DodError::InvalidSpec { .. }), "{err}"),
        Ok(_) => panic!("zero sample_rate must not construct"),
    }

    // audit_sample = 0 is the documented off switch, not an error.
    let mut det = detector(
        Backend::Graph(GraphParams {
            sample_rate: 1,
            audit_sample: 0,
            ..GraphParams::default()
        }),
        16,
    );
    for p in clustered_stream(40, 3) {
        det.insert(p);
    }
    assert_eq!(det.stats().recall_audits, 0, "disabled auditor ran");
}
