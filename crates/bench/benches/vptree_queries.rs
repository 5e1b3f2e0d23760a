//! VP-tree vs linear scan: build cost and range counting with early
//! termination — the primitives behind the VP-tree baseline and the
//! verification phase.

use criterion::{criterion_group, criterion_main, Criterion};
use dod_datasets::Family;
use dod_metrics::Dataset;
use dod_vptree::VpTree;
use std::hint::black_box;

fn bench_vptree(c: &mut Criterion) {
    let n = 4000;
    let gen = Family::Pamap2.generate(n, 1);
    let data = &gen.data;
    let tree = VpTree::build(data, 0);
    // A radius in the meaningful range: ~ the 20-NN distance of object 0.
    let r = dod_datasets::exact_knn_distance(data, 0, 20);

    let mut g = c.benchmark_group("vptree");
    g.sample_size(20);
    g.bench_function("build_4k_pamap2", |b| {
        b.iter(|| black_box(VpTree::build(data, 0)))
    });
    g.bench_function("range_count_limit20", |b| {
        let mut q = 0;
        b.iter(|| {
            q = (q + 97) % n;
            black_box(tree.range_count(data, q, r, 20))
        })
    });
    g.bench_function("range_count_unlimited", |b| {
        let mut q = 0;
        b.iter(|| {
            q = (q + 97) % n;
            black_box(tree.range_count(data, q, r, usize::MAX))
        })
    });
    g.bench_function("linear_scan_count_limit20", |b| {
        let mut q = 0;
        b.iter(|| {
            q = (q + 97) % n;
            let mut count = 0;
            for j in 0..n {
                if j != q && data.dist(q, j) <= r {
                    count += 1;
                    if count >= 20 {
                        break;
                    }
                }
            }
            black_box(count)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_vptree);
criterion_main!(benches);
