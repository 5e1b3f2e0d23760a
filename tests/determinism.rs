//! Reproducibility guarantees: fixed seeds give identical datasets, graphs
//! and results, regardless of thread count. The experiment harness (and
//! anyone debugging a production incident) depends on this.

use dod::core::{Engine, Query};
use dod::datasets::Family;
use dod::graph::MrpgParams;
use dod::metrics::Dataset;
use std::collections::BTreeMap;

#[test]
fn dataset_generation_is_reproducible() {
    for family in Family::ALL {
        let a = family.generate(150, 99);
        let b = family.generate(150, 99);
        for i in (0..150).step_by(13) {
            for j in (0..150).step_by(17) {
                assert_eq!(
                    a.data.dist(i, j),
                    b.data.dist(i, j),
                    "{family}: dist({i},{j}) differs between runs"
                );
            }
        }
    }
}

#[test]
fn mrpg_build_is_reproducible_across_thread_counts() {
    // The strided parallel map must leave every graph unchanged: the same
    // links, pivots and exact-K' distance lists at any thread count.
    let gen = Family::Glove.generate(400, 5);
    let build = |threads: usize| {
        let mut p = MrpgParams::new(8);
        p.seed = 21;
        p.threads = threads;
        dod::graph::mrpg::build(&gen.data, &p).0
    };
    let exact_lists = |g: &dod::graph::ProximityGraph| {
        g.exact
            .iter()
            .map(|(&p, e)| (p, e.dists.clone()))
            .collect::<BTreeMap<_, _>>()
    };
    let g1 = build(1);
    let kg1 = dod::graph::mrpg::build_kgraph(&gen.data, 8, 1, 21);
    for threads in [2, 3] {
        let g = build(threads);
        assert_eq!(g1.adj, g.adj, "threads={threads}");
        assert_eq!(g1.pivot, g.pivot, "threads={threads}");
        assert_eq!(exact_lists(&g1), exact_lists(&g), "threads={threads}");
        let kg = dod::graph::mrpg::build_kgraph(&gen.data, 8, threads, 21);
        assert_eq!(kg1.adj, kg.adj, "kgraph threads={threads}");
    }
}

#[test]
fn detection_reports_are_reproducible() {
    let gen = Family::Sift.generate(400, 8);
    let (g, _) = dod::graph::mrpg::build(&gen.data, &MrpgParams::new(8));
    let engine = Engine::builder(&gen.data)
        .prebuilt_graph(g)
        .build()
        .expect("engine");
    let q = Query::new(300.0, 10).expect("valid query");
    let a = engine.query(q).expect("query");
    let b = engine.query(q).expect("query");
    assert_eq!(a.outliers, b.outliers);
    assert_eq!(a.candidates, b.candidates);
    assert_eq!(a.false_positives, b.false_positives);
    assert_eq!(a.decided_in_filter, b.decided_in_filter);
}

#[test]
fn different_seeds_build_different_graphs() {
    // Sanity check that the seed actually reaches the RNGs.
    let gen = Family::Deep.generate(300, 4);
    let build = |seed: u64| {
        let mut p = MrpgParams::new(6);
        p.seed = seed;
        dod::graph::mrpg::build(&gen.data, &p).0
    };
    let a = build(1);
    let b = build(2);
    assert_ne!(a.adj, b.adj, "seeds 1 and 2 built identical graphs");
    // ... but both must give the same (exact) detection result.
    let q = Query::new(10.0, 8).expect("valid query");
    let ea = Engine::builder(&gen.data)
        .prebuilt_graph(a)
        .build()
        .expect("engine");
    let eb = Engine::builder(&gen.data)
        .prebuilt_graph(b)
        .build()
        .expect("engine");
    assert_eq!(
        ea.query(q).expect("query").outliers,
        eb.query(q).expect("query").outliers
    );
}
