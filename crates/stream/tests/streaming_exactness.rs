//! The streaming engine's defining property: after **every** slide, the
//! incremental outlier set equals a from-scratch batch detection over the
//! current window contents — for both backends, across `(r, k, W)` and
//! seeds.

use dod_core::nested_loop;
use dod_core::DodParams;
use dod_metrics::L2;
use dod_stream::{Backend, GraphParams, StreamDetector, StreamParams, VectorSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small clustered stream with planted far points: roughly 10% of
/// arrivals land far from the three drifting cluster centers.
fn stream_points(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers = [0.0f32, 4.0, 8.0];
    (0..n)
        .map(|_| {
            // Slow concentration drift.
            for c in &mut centers {
                *c += rng.gen_range(-0.05f32..0.05);
            }
            if rng.gen_bool(0.1) {
                vec![rng.gen_range(40.0f32..80.0), rng.gen_range(40.0f32..80.0)]
            } else {
                let c = centers[rng.gen_range(0usize..3)];
                vec![c + rng.gen_range(-0.7f32..0.7), rng.gen_range(-0.7f32..0.7)]
            }
        })
        .collect()
}

/// Batch ground truth over the live window, as seqs.
fn batch_outliers(det: &StreamDetector<VectorSpace<L2>>, r: f64, k: usize) -> Vec<u64> {
    let view = det.window_view();
    let res = nested_loop::detect(&view, &DodParams::new(r, k), 7);
    res.outliers
        .into_iter()
        .map(|pos| view.seq_at(pos as usize))
        .collect()
}

fn check_backend(backend: Backend, r: f64, k: usize, w: usize, seed: u64) {
    let params = StreamParams::count(r, k, w);
    let mut det = StreamDetector::try_with_backend(VectorSpace::new(L2, 2), params, backend)
        .expect("valid params");
    for p in stream_points(90, seed) {
        det.insert(p);
        let got = det.outliers();
        let want = batch_outliers(&det, r, k);
        assert_eq!(
            got,
            want,
            "backend={} r={r} k={k} w={w} seed={seed} len={}",
            det.backend_name(),
            det.len()
        );
        assert_eq!(got, det.audit(), "audit disagrees ({})", det.backend_name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn exhaustive_backend_matches_batch_after_every_slide(
        r in 0.3f64..3.0,
        k in 1usize..6,
        w in 2usize..48,
        seed in 0u64..10_000,
    ) {
        check_backend(Backend::Exhaustive, r, k, w, seed);
    }

    #[test]
    fn graph_backend_matches_batch_after_every_slide(
        r in 0.3f64..3.0,
        k in 1usize..6,
        w in 2usize..48,
        seed in 0u64..10_000,
    ) {
        check_backend(Backend::Graph(GraphParams::default()), r, k, w, seed);
    }

    #[test]
    fn graph_backend_stays_exact_with_hostile_tuning(
        seed in 0u64..10_000,
        m in 1usize..4,
        ef in 1usize..6,
        cap in 1usize..4,
    ) {
        // A deliberately starved graph (tiny beam, tiny degree, tiny
        // discovery cap) must still be exact — quality only moves work to
        // the lazy repair.
        let gp = GraphParams { m, ef, discover_cap: cap, prune_above: 4 * m };
        check_backend(Backend::Graph(gp), 1.2, 3, 24, seed);
    }
}

#[test]
fn backends_agree_with_each_other_throughout() {
    let params = StreamParams::count(1.0, 3, 64);
    let mut a =
        StreamDetector::try_with_backend(VectorSpace::new(L2, 2), params, Backend::Exhaustive)
            .expect("valid params");
    let mut b = StreamDetector::try_with_backend(
        VectorSpace::new(L2, 2),
        params,
        Backend::Graph(GraphParams::default()),
    )
    .expect("valid params");
    for p in stream_points(300, 42) {
        a.insert(p.clone());
        b.insert(p);
        assert_eq!(a.outliers(), b.outliers(), "at len {}", a.len());
    }
    // The graph backend should have promoted plenty of safe inliers along
    // the way (the whole point of succeeding-neighbor tracking).
    assert!(b.stats().safe_promotions > 0);
}
