//! SNIF \[Tao, Xiao & Zhou, KDD'06\] adapted to main memory, as described
//! in the paper's §3.
//!
//! Objects are grouped into clusters of radius `r/2` around randomly
//! arising centers; the triangle inequality then gives three prunes:
//!
//! 1. any two members of one cluster are within `r` of each other, so a
//!    cluster with more than `k` objects proves all its members inliers;
//! 2. a whole cluster is within `r` of `p` when
//!    `dist(p, center) + r/2 <= r` — count it wholesale;
//! 3. a whole cluster is beyond `r` when `dist(p, center) - r/2 > r` —
//!    skip it wholesale.
//!
//! All three compare sums of rounded distances, so each is widened by the
//! metric's [`Rounding`](dod_metrics::Rounding) (reached through
//! [`Dataset::rounding`]): the cluster radius shrinks to
//! `(r − slack(r)) / 2`, so any two members still measure within `r`, and
//! prunes 2 and 3 count or skip a cluster wholesale only when rounding
//! cannot change the verdict. When the slack exceeds `r` the radius is
//! negative and every object is a cluster of its own.
//!
//! Remaining objects get exact counts with early termination, so the
//! result is exact. The cluster structure loses its bite in high
//! dimensions (everything is "far"), which is exactly the weakness the
//! paper's Table 5 exposes.

use crate::params::{assert_valid, DodParams, OutlierReport};
use dod_graph::parallel::par_map;
use dod_metrics::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Runs SNIF. Exact for any metric.
pub fn detect<D: Dataset + ?Sized>(data: &D, params: &DodParams, seed: u64) -> OutlierReport {
    detect_with_stats(data, params, seed).0
}

/// Like [`detect`], additionally reporting the bytes of the cluster
/// structure (the paper's Table 6 "index size" for SNIF).
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

    // ---- Clustering pass: random-order first-fit with radius r/2 --------
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let rounding = data.rounding();
    let half = (r - rounding.triangle_slack(r)) / 2.0;
    let mut centers: Vec<u32> = Vec::new();
    let mut members: Vec<Vec<u32>> = Vec::new(); // cluster -> members (incl. center)
    let mut cluster_of: Vec<u32> = vec![0; n];
    for &p in &order {
        let mut placed = false;
        for (ci, &c) in centers.iter().enumerate() {
            if data.dist(p as usize, c as usize) <= half {
                members[ci].push(p);
                cluster_of[p as usize] = ci as u32;
                placed = true;
                break;
            }
        }
        if !placed {
            cluster_of[p as usize] = centers.len() as u32;
            centers.push(p);
            members.push(vec![p]);
        }
    }

    // ---- Pruning and exact counting --------------------------------------
    let flags: Vec<bool> = par_map(n, params.threads, |p| {
        let own = cluster_of[p] as usize;
        // Prune 1: a big cluster proves all members inliers (> k objects
        // means >= k neighbors for each member).
        if members[own].len() > k {
            return false;
        }
        // Members of p's own cluster are all within r (prune 1's geometry).
        let mut count = members[own].len() - 1;
        if count >= k {
            return false;
        }
        for (ci, &c) in centers.iter().enumerate() {
            if ci == own {
                continue;
            }
            let dc = data.dist(p, c as usize);
            let slack = rounding.triangle_slack(dc + half + r);
            if dc - half > r + slack {
                continue; // prune 3: entire cluster out of range
            }
            if dc + half <= r - slack {
                count += members[ci].len(); // prune 2: entire cluster in range
            } else {
                for &q in &members[ci] {
                    if data.dist(p, q as usize) <= r {
                        count += 1;
                        if count >= k {
                            return false;
                        }
                    }
                }
            }
            if count >= k {
                return false;
            }
        }
        true
    });

    let outliers: Vec<u32> = flags
        .iter()
        .enumerate()
        .filter(|(_, &f)| f)
        .map(|(p, _)| p as u32)
        .collect();
    // Cluster structure footprint: center list, membership lists, and the
    // per-object cluster assignment.
    let index_bytes = centers.len() * std::mem::size_of::<u32>()
        + members.iter().map(|m| m.len() * 4 + 24).sum::<usize>()
        + cluster_of.len() * std::mem::size_of::<u32>();
    (
        OutlierReport::from_outliers(outliers, t.elapsed().as_secs_f64()),
        index_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop;
    use dod_metrics::{VectorSet, L2};
    use rand::Rng;

    fn random_blobs(n: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i % 50 == 49 {
                    vec![rng.gen_range(50.0f32..90.0), rng.gen_range(50.0f32..90.0)]
                } else {
                    let c = (i % 3) as f32 * 8.0;
                    vec![c + rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)]
                }
            })
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    #[test]
    fn matches_nested_loop_on_random_blobs() {
        let data = random_blobs(400, 1);
        for (r, k) in [(1.5, 5), (3.0, 10), (0.5, 2)] {
            let p = DodParams::new(r, k);
            assert_eq!(
                detect(&data, &p, 3).outliers,
                nested_loop::detect(&data, &p, 0).outliers,
                "r={r} k={k}"
            );
        }
    }

    #[test]
    fn independent_of_clustering_seed() {
        let data = random_blobs(300, 2);
        let p = DodParams::new(2.0, 6);
        let a = detect(&data, &p, 0);
        let b = detect(&data, &p, 12345);
        assert_eq!(a.outliers, b.outliers);
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = random_blobs(300, 3);
        let p = DodParams::new(2.0, 6);
        assert_eq!(
            detect(&data, &p, 1).outliers,
            detect(&data, &p.with_threads(4), 1).outliers
        );
    }

    #[test]
    fn whole_cluster_pruning_is_sound_at_boundaries() {
        // Members exactly at r/2 from the center and queries exactly at r:
        // <= comparisons everywhere per Definition 1.
        let data = VectorSet::from_rows(&[vec![0.0f32], vec![0.5], vec![1.0], vec![10.0]], L2);
        let p = DodParams::new(1.0, 2);
        assert_eq!(
            detect(&data, &p, 7).outliers,
            nested_loop::detect(&data, &p, 0).outliers
        );
    }

    #[test]
    fn degenerate_inputs() {
        let empty = VectorSet::from_rows(&[], L2);
        assert!(detect(&empty, &DodParams::new(1.0, 2), 0)
            .outliers
            .is_empty());
        let single = VectorSet::from_rows(&[vec![1.0f32]], L2);
        assert_eq!(
            detect(&single, &DodParams::new(1.0, 1), 0).outliers,
            vec![0]
        );
    }
}
