//! The streaming engine's defining property: after **every** slide, the
//! incremental outlier set equals a from-scratch batch detection over the
//! current window contents, across `(r, k, W)` and seeds.

use dod_core::nested_loop;
use dod_core::DodParams;
use dod_metrics::L2;
use dod_stream::{StreamDetector, StreamParams, VectorSpace};
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

fn check_detector(r: f64, k: usize, w: usize, seed: u64) {
    let params = StreamParams::count(r, k, w);
    let mut det = StreamDetector::try_new(VectorSpace::new(L2, 2), params).expect("valid params");
    for p in stream_points(90, seed) {
        det.insert(p);
        let got = det.outliers();
        let want = batch_outliers(&det, r, k);
        assert_eq!(got, want, "r={r} k={k} w={w} seed={seed} len={}", det.len());
        assert_eq!(got, det.audit(), "audit disagrees");
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
        check_detector(r, k, w, seed);
    }
}
