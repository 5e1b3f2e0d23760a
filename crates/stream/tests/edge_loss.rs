//! A graph backend's quality is the repair work it leaves to queries:
//! discovery returns a certified subset of the true neighbors, so a
//! neighbor it misses costs a query-time repair, never an answer. A
//! deliberately degraded graph must therefore book more false positives
//! and more repair evaluations, with the answers exact throughout.

use dod_metrics::L2;
use dod_stream::{Backend, GraphParams, StreamDetector, StreamParams, StreamStats, VectorSpace};
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

#[test]
fn injected_edge_loss_costs_repairs_but_not_answers() {
    let mut det = StreamDetector::try_with_backend(
        VectorSpace::new(L2, 2),
        StreamParams::count(1.0, 3, 64),
        Backend::Graph(GraphParams::default()),
    )
    .expect("valid params");
    let points = clustered_stream(600, 7);
    let feed = |det: &mut StreamDetector<VectorSpace<L2>>, phase: &[Vec<f32>]| {
        for p in phase {
            det.insert(p.clone());
            // Exactness is untouched: repairs scan the window, not the graph.
            assert_eq!(det.outliers(), det.audit());
        }
        det.stats()
    };
    let warm = feed(&mut det, &points[..200]);
    let healthy = feed(&mut det, &points[200..400]);
    // Sever every link. New insertions re-link themselves, but the
    // existing window's residents become near-undiscoverable.
    det.inject_edge_loss(0);
    let degraded = feed(&mut det, &points[400..]);

    let booked = |from: &StreamStats, to: &StreamStats| {
        (
            to.query_false_positives - from.query_false_positives,
            to.query_dist_evals - from.query_dist_evals,
        )
    };
    let (healthy_fp, healthy_evals) = booked(&warm, &healthy);
    let (degraded_fp, degraded_evals) = booked(&healthy, &degraded);
    assert!(
        degraded_fp > healthy_fp,
        "false positives did not rise: healthy {healthy_fp}, degraded {degraded_fp}"
    );
    assert!(
        degraded_evals > healthy_evals,
        "repair evaluations did not rise: healthy {healthy_evals}, degraded {degraded_evals}"
    );
}
