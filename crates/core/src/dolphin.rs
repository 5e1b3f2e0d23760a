//! DOLPHIN \[Angiulli & Fassetti, TKDD'09\] adapted to main memory, as
//! described in the paper's §3.
//!
//! Two scans over the data. The first maintains an index of *candidate*
//! objects: each incoming object probes the index, incrementing mutual
//! neighbor counts; an object that accumulates `k` neighbors during its
//! probe is proved an inlier on the spot and — with a small retention
//! probability — may stay in the index anyway purely to help prune later
//! objects. The second scan verifies the surviving candidates exactly
//! (early-terminated linear count), so the algorithm is exact.
//!
//! The index probe is a linear scan of the candidate list: with few true
//! outliers the list stays short and the first scan is cheap, but the
//! verification scan still costs `O(candidates · n)` — the `O(n²)`-class
//! behavior the paper's Table 5 reports.

use crate::params::{assert_valid, DodParams, OutlierReport};
use dod_graph::parallel::par_map;
use dod_metrics::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Probability of keeping a proved inlier in the index as a pruning helper
/// (DOLPHIN's `pinliers` parameter; the original paper recommends small
/// values).
const KEEP_PROB: f64 = 0.05;

/// Runs DOLPHIN. Exact for any metric.
pub fn detect<D: Dataset + ?Sized>(data: &D, params: &DodParams, seed: u64) -> OutlierReport {
    detect_with_stats(data, params, seed).0
}

/// Like [`detect`], additionally reporting the peak candidate-index bytes
/// (the paper's Table 6 "index size" for DOLPHIN).
pub fn detect_with_stats<D: Dataset + ?Sized>(
    data: &D,
    params: &DodParams,
    seed: u64,
) -> (OutlierReport, usize) {
    assert_valid(params);
    let n = data.len();
    let (r, k) = (params.r, params.k);
    let t = Instant::now();
    if n == 0 || k == 0 {
        return (
            OutlierReport::from_outliers(Vec::new(), t.elapsed().as_secs_f64()),
            0,
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);

    struct Entry {
        id: u32,
        /// Neighbors seen so far (among scanned objects).
        count: usize,
        /// Proved inlier, kept only to prune others.
        helper: bool,
    }

    // ---- First scan: build the candidate index ---------------------------
    let mut index: Vec<Entry> = Vec::new();
    let mut peak_index = 0usize;
    for p in 0..n {
        let mut found = 0usize;
        let mut i = 0;
        while i < index.len() {
            let e = &mut index[i];
            if data.dist(p, e.id as usize) <= r {
                found += 1;
                if !e.helper {
                    e.count += 1;
                    if e.count >= k {
                        // Proved inlier: drop it, or keep as helper rarely.
                        if rng.gen_bool(KEEP_PROB) {
                            e.helper = true;
                        } else {
                            index.swap_remove(i);
                            continue; // re-examine the swapped-in entry
                        }
                    }
                }
                if found >= k {
                    break;
                }
            }
            i += 1;
        }
        if found >= k {
            // p proved inlier during its probe; occasionally keep it to
            // prune later objects.
            if rng.gen_bool(KEEP_PROB) {
                index.push(Entry {
                    id: p as u32,
                    count: found,
                    helper: true,
                });
            }
        } else {
            index.push(Entry {
                id: p as u32,
                count: found,
                helper: false,
            });
        }
        peak_index = peak_index.max(index.len());
    }

    // ---- Second scan: verify surviving candidates exactly ----------------
    let candidates: Vec<u32> = index
        .into_iter()
        .filter(|e| !e.helper && e.count < k)
        .map(|e| e.id)
        .collect();
    let verdicts: Vec<bool> = par_map(candidates.len(), params.threads, |ci| {
        let p = candidates[ci] as usize;
        let mut count = 0usize;
        for j in 0..n {
            if j != p && data.dist(p, j) <= r {
                count += 1;
                if count >= k {
                    return false;
                }
            }
        }
        true
    });
    let outliers: Vec<u32> = candidates
        .into_iter()
        .zip(verdicts)
        .filter(|&(_, v)| v)
        .map(|(id, _)| id)
        .collect();
    (
        OutlierReport::from_outliers(outliers, t.elapsed().as_secs_f64()),
        peak_index * std::mem::size_of::<Entry>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop;
    use dod_metrics::{VectorSet, L2};

    fn random_blobs(n: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i % 40 == 39 {
                    vec![rng.gen_range(60.0f32..99.0), rng.gen_range(60.0f32..99.0)]
                } else {
                    let c = (i % 3) as f32 * 7.0;
                    vec![c + rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)]
                }
            })
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    #[test]
    fn matches_nested_loop() {
        let data = random_blobs(400, 1);
        for (r, k) in [(1.5, 4), (2.5, 8), (0.8, 2)] {
            let p = DodParams::new(r, k);
            assert_eq!(
                detect(&data, &p, 5).outliers,
                nested_loop::detect(&data, &p, 0).outliers,
                "r={r} k={k}"
            );
        }
    }

    #[test]
    fn independent_of_retention_seed() {
        let data = random_blobs(300, 2);
        let p = DodParams::new(1.5, 5);
        assert_eq!(
            detect(&data, &p, 0).outliers,
            detect(&data, &p, 77).outliers
        );
    }

    #[test]
    fn all_duplicates_no_outliers() {
        let data = VectorSet::from_rows(&vec![vec![3.0f32]; 50], L2);
        let res = detect(&data, &DodParams::new(0.0, 10), 0);
        assert!(res.outliers.is_empty());
    }

    #[test]
    fn everything_isolated_all_outliers() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![(i * i) as f32 * 100.0]).collect();
        let data = VectorSet::from_rows(&rows, L2);
        let res = detect(&data, &DodParams::new(1.0, 1), 0);
        assert_eq!(res.outliers.len(), 20);
    }

    #[test]
    fn parallel_verification_matches() {
        let data = random_blobs(300, 4);
        let p = DodParams::new(1.5, 5);
        assert_eq!(
            detect(&data, &p, 3).outliers,
            detect(&data, &p.with_threads(4), 3).outliers
        );
    }
}
