//! Filtering-phase benchmark: Greedy-Counting cost per object on each
//! proximity graph (the quantity Table 8 decomposes), walking without
//! edge lengths (every vertex met is evaluated, Algorithm 2 as printed)
//! and with them (`_lengths` rows: bounds decide most vertices), plus the
//! exact-K\' shortcut path.

use criterion::{criterion_group, criterion_main, Criterion};
use dod_core::{greedy_walk, EdgeLengths, TraversalBuffer};
use dod_datasets::{calibrate_r, Family};
use dod_graph::mrpg;
use dod_graph::MrpgParams;
use std::hint::black_box;

fn bench_filtering(c: &mut Criterion) {
    let n = 4000;
    let gen = Family::Sift.generate(n, 5);
    let data = &gen.data;
    let k = Family::Sift.default_k();
    let r = calibrate_r(data, k, Family::Sift.target_outlier_ratio(), 200, 1);

    let kgraph = mrpg::build_kgraph(data, 16, 2, 0);
    let mut params = MrpgParams::new(16);
    params.threads = 2;
    let (mrpg_graph, _) = mrpg::build(data, &params);

    let mut g = c.benchmark_group("greedy_counting_sift4k");
    g.sample_size(20);
    for (name, graph) in [("kgraph", &kgraph), ("mrpg", &mrpg_graph)] {
        let measured = EdgeLengths::measure(graph, data, 2);
        for (row, lengths) in [
            (name.to_string(), None),
            (format!("{name}_lengths"), Some(&measured)),
        ] {
            g.bench_function(&row, |b| {
                let mut buf = TraversalBuffer::new(n);
                let mut q = 0;
                b.iter(|| {
                    q = (q + 131) % n;
                    black_box(greedy_walk(graph, lengths, data, q, r, k, &mut buf).len())
                })
            });
        }
    }
    // The shortcut path for exact-K' nodes (no graph walk at all).
    let exact_ids: Vec<u32> = mrpg_graph.exact.keys().copied().collect();
    assert!(!exact_ids.is_empty());
    g.bench_function("exact_shortcut", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % exact_ids.len();
            let e = &mrpg_graph.exact[&exact_ids[i]];
            black_box(e.dists.partition_point(|&d| d <= r))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_filtering);
criterion_main!(benches);
