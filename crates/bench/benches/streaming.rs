//! Streaming slide cost: incremental maintenance vs per-slide batch
//! re-detection, at the acceptance workload n=4000, W=1024.
//!
//! Each timed iteration is one *slide*: ingest the next point of a
//! drift/burst stream into a pre-warmed window and answer "current
//! outliers". The batch baseline answers the same question by re-running
//! the randomized nested loop over a window snapshot. The final
//! `speedup_summary` "benchmark" feeds the whole stream through both
//! engines and prints the end-to-end ratio the acceptance criterion asks
//! for (incremental ≥ 5x cheaper than batch).

use criterion::{criterion_group, criterion_main, Criterion};
use dod_bench::BatchSlideBaseline;
use dod_core::{DodParams, Query};
use dod_datasets::{calibrate_r, StreamScenario};
use dod_metrics::{VectorSet, L2};
use dod_stream::{StreamDetector, VectorSpace, WindowSpec};
use std::hint::black_box;

const N: usize = 4000;
const W: usize = 1024;
const DIM: usize = 8;
const K: usize = 8;

fn workload() -> (Vec<Vec<f32>>, f64) {
    let points = StreamScenario::new(DIM).generate(N, 42);
    let prefix = VectorSet::from_rows(&points[..W], L2);
    let r = calibrate_r(&prefix, K, 0.01, 400, 7);
    (points, r)
}

fn detector(r: f64) -> StreamDetector<VectorSpace<L2>> {
    StreamDetector::open(
        VectorSpace::new(L2, DIM),
        Query::new(r, K).expect("calibrated query is valid"),
        WindowSpec::Count(W),
    )
    .expect("valid stream parameters")
}

fn bench_slides(c: &mut Criterion) {
    let (points, r) = workload();
    let mut g = c.benchmark_group("streaming_slide_n4000_w1024");
    g.sample_size(10);

    {
        let mut det = detector(r);
        for p in &points[..W] {
            det.insert(p.clone());
        }
        let mut i = W;
        g.bench_function("incremental_exhaustive", |b| {
            b.iter(|| {
                det.insert(points[i % N].clone());
                i += 1;
                black_box(det.outliers())
            })
        });
    }

    {
        let mut baseline = BatchSlideBaseline::new(W, DodParams::new(r, K), 0);
        for p in &points[..W] {
            baseline.slide(p);
        }
        let mut i = W;
        g.bench_function("batch_per_slide", |b| {
            b.iter(|| {
                let out = baseline.slide(&points[i % N]);
                i += 1;
                black_box(out)
            })
        });
    }
    g.finish();
}

/// Not a micro-benchmark: one full pass of the stream through every
/// engine, printing the end-to-end speedup (this is the ≥5x acceptance
/// number).
fn speedup_summary(_c: &mut Criterion) {
    let (points, r) = workload();

    let t0 = std::time::Instant::now();
    let mut baseline = BatchSlideBaseline::new(W, DodParams::new(r, K), 0);
    let mut batch_out = 0usize;
    for p in &points {
        batch_out += baseline.slide(p).len();
    }
    let batch_secs = t0.elapsed().as_secs_f64();

    println!("\n== streaming end-to-end (n={N}, W={W}, r={r:.4}, k={K}) ==");
    println!(
        "batch_per_slide              {batch_secs:>9.3}s total ({:.0} us/slide, {batch_out} outlier-slides)",
        batch_secs / N as f64 * 1e6
    );
    let mut det = detector(r);
    let t0 = std::time::Instant::now();
    let mut out = 0usize;
    for p in &points {
        det.insert(p.clone());
        out += det.outliers().len();
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        out, batch_out,
        "incremental_exhaustive disagrees with batch"
    );
    println!(
        "incremental_exhaustive       {secs:>9.3}s total ({:.0} us/slide) -> {:.1}x cheaper than batch",
        secs / N as f64 * 1e6,
        batch_secs / secs
    );
}

criterion_group!(benches, bench_slides, speedup_summary);
criterion_main!(benches);
