//! Ties the paper's causal story together: MRPG's construction phases
//! raise *reachability of neighbors* (§5), and higher reachability means
//! fewer filtering false positives (Table 7). Both ends are measured here
//! on the same data.

use dod::core::{greedy_walk, EdgeLengths, Engine, Query, TraversalBuffer};
use dod::datasets::{calibrate_r, Family};
use dod::graph::{mrpg, MrpgParams, ProximityGraph};
use dod::metrics::{Dataset, VectorSet, L2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reachability of neighbors over sampled objects.
struct Reach {
    /// Mean over sampled objects of (reached neighbors / true neighbors).
    mean_recall: f64,
    /// Sampled objects that reached fewer than all their neighbors: the
    /// potential false positives of the filtering phase.
    deficient_objects: usize,
}

/// Measures, for every `n / sample`-th object with at least one true
/// `r`-neighbor, how many of those neighbors Greedy-Counting reaches
/// without the early `k` cutoff. It runs the detector's own walk
/// ([`greedy_walk`] over measured edge lengths), pivot-expansion rule
/// included.
fn neighbor_reach<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    data: &D,
    r: f64,
    sample: usize,
) -> Reach {
    let n = data.len();
    let mut buf = TraversalBuffer::new(n);
    let lengths = EdgeLengths::measure(g, data, 1);
    let (mut recall_sum, mut deficient_objects, mut sampled) = (0.0, 0, 0);
    for p in (0..n).step_by((n / sample.max(1)).max(1)) {
        let truth = (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count();
        if truth == 0 {
            continue;
        }
        let reached = greedy_walk(g, Some(&lengths), data, p, r, usize::MAX, &mut buf);
        recall_sum += reached.len() as f64 / truth as f64;
        deficient_objects += usize::from(reached.len() < truth);
        sampled += 1;
    }
    Reach {
        mean_recall: if sampled == 0 {
            1.0
        } else {
            recall_sum / sampled as f64
        },
        deficient_objects,
    }
}

#[test]
fn mrpg_reaches_neighbors_at_least_as_well_as_kgraph() {
    let gen = Family::Glove.generate(2000, 11);
    let data = &gen.data;
    let k = 12;
    let r = calibrate_r(data, k, 0.01, 400, 2);

    let kgraph = mrpg::build_kgraph(data, 12, 2, 0);
    let (full, _) = mrpg::build(data, &{
        let mut p = MrpgParams::new(12);
        p.threads = 2;
        p
    });

    let kg_reach = neighbor_reach(&kgraph, data, r, 200);
    let mrpg_reach = neighbor_reach(&full, data, r, 200);
    assert!(
        mrpg_reach.mean_recall >= kg_reach.mean_recall - 0.01,
        "MRPG recall {} below KGraph {}",
        mrpg_reach.mean_recall,
        kg_reach.mean_recall
    );
    assert!(
        mrpg_reach.mean_recall > 0.9,
        "MRPG should reach the vast majority of neighbors, got {}",
        mrpg_reach.mean_recall
    );
}

#[test]
fn deficient_reachability_upper_bounds_false_positives() {
    // Every filtering false positive is an inlier whose traversal missed
    // some neighbors; the reachability probe (run exhaustively) must
    // therefore flag at least as many deficient objects as there are false
    // positives.
    let gen = Family::Sift.generate(1200, 19);
    let data = &gen.data;
    let k = 10;
    let r = calibrate_r(data, k, 0.02, 300, 4);

    let kgraph = mrpg::build_kgraph(data, 8, 2, 0);
    let reach = neighbor_reach(&kgraph, data, r, 1200); // every object
    let report = Engine::builder(data)
        .prebuilt_graph(kgraph)
        .build()
        .expect("engine")
        .query(Query::new(r, k).expect("valid"))
        .expect("query");
    assert!(
        reach.deficient_objects >= report.false_positives,
        "{} deficient objects cannot explain {} false positives",
        reach.deficient_objects,
        report.false_positives
    );
}

#[test]
fn mrpg_reaches_at_least_as_much_as_its_aknn_core() {
    let mut rng = StdRng::seed_from_u64(3);
    let rows: Vec<Vec<f32>> = (0..300)
        .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
        .collect();
    let data = VectorSet::from_rows(&rows, L2);
    let mut p = MrpgParams::new(5);
    p.enable_connect = false;
    p.enable_detours = false;
    p.enable_remove_links = false;
    let (bare, _) = mrpg::build(&data, &p);
    let (full, _) = mrpg::build(&data, &MrpgParams::new(5));
    let r = 0.3;
    let bare_reach = neighbor_reach(&bare, &data, r, 100);
    let full_reach = neighbor_reach(&full, &data, r, 100);
    assert!(
        full_reach.mean_recall >= bare_reach.mean_recall - 1e-9,
        "full {} < bare {}",
        full_reach.mean_recall,
        bare_reach.mean_recall
    );
}
