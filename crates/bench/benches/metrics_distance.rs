//! Microbenchmark: distance-function throughput at the paper's Table 1
//! dimensionalities. Distance evaluations are the cost unit of every DOD
//! algorithm, so these numbers calibrate all other results.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dod_metrics::{edit_distance, Angular, Dataset, VectorMetric, VectorSet, L1, L2, L4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_pair(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (a, b)
}

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("distance");
    g.sample_size(30);

    // The dimension of the `serve-stream` benchmark workload.
    let (a, b) = random_pair(8, 8);
    g.bench_function("l2_8d", |bench| {
        bench.iter(|| black_box(L2.dist(black_box(&a), black_box(&b))))
    });
    let (a, b) = random_pair(96, 1);
    g.bench_function("l2_96d_deep", |bench| {
        bench.iter(|| black_box(L2.dist(black_box(&a), black_box(&b))))
    });
    let (a, b) = random_pair(27, 2);
    g.bench_function("l1_27d_hepmass", |bench| {
        bench.iter(|| black_box(L1.dist(black_box(&a), black_box(&b))))
    });
    let (a, b) = random_pair(784, 3);
    g.bench_function("l4_784d_mnist", |bench| {
        bench.iter(|| black_box(L4.dist(black_box(&a), black_box(&b))))
    });
    let (a, b) = random_pair(128, 4);
    g.bench_function("l2_128d_sift", |bench| {
        bench.iter(|| black_box(L2.dist(black_box(&a), black_box(&b))))
    });

    // Angular goes through the dataset so rows are pre-normalized.
    let set = VectorSet::from_rows(&[random_pair(25, 5).0, random_pair(25, 6).1], Angular);
    g.bench_function("angular_25d_glove", |bench| {
        bench.iter(|| black_box(set.dist(black_box(0), black_box(1))))
    });

    let mut rng = StdRng::seed_from_u64(7);
    let word = |len: usize, rng: &mut StdRng| -> Vec<u8> {
        (0..len).map(|_| b'a' + rng.gen_range(0..26u8)).collect()
    };
    let (wa, wb) = (word(12, &mut rng), word(12, &mut rng));
    g.bench_function("edit_12x12_words", |bench| {
        bench.iter(|| black_box(edit_distance(black_box(&wa), black_box(&wb))))
    });
    let (wa, wb) = (word(45, &mut rng), word(45, &mut rng));
    g.bench_function("edit_45x45_words_tail", |bench| {
        bench.iter_batched(
            || (wa.clone(), wb.clone()),
            |(a, b)| black_box(edit_distance(&a, &b)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
