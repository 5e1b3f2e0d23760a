//! Nested-loop DOD \[Knorr & Ng, VLDB'98; Bay & Schwabacher, KDD'03\]: the
//! `O(n²)` baseline and the ground truth every other algorithm is tested
//! against.
//!
//! For each object, scan the dataset counting neighbors and stop the scan
//! once `k` are found. Following \[8\], the scan visits objects in a
//! randomized order: with a random order the expected scan length for an
//! inlier depends on its neighbor density, not on where its neighbors sit
//! in id order, which is what gives the algorithm its "near linear time in
//! practice" behavior on mostly-inlier datasets.

use crate::params::{assert_valid, DodParams, OutlierReport};
use dod_graph::parallel::par_map;
use dod_metrics::{Dataset, DistanceCounter};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Runs the randomized nested loop. Exact for any metric.
pub fn detect<D: Dataset + ?Sized>(data: &D, params: &DodParams, seed: u64) -> OutlierReport {
    assert_valid(params);
    let n = data.len();
    let (r, k) = (params.r, params.k);
    let t = Instant::now();
    if n == 0 || k == 0 {
        return OutlierReport::from_outliers(Vec::new(), t.elapsed().as_secs_f64());
    }
    // One shared random scan order (the per-object offset de-correlates
    // objects without paying for n shuffles).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));

    // The baseline counts its own evaluations too: early termination
    // makes even brute force cheaper than n·(n−1), and the report's
    // pruning power shows exactly how much.
    let counted = DistanceCounter::new(data);
    let flags: Vec<bool> = par_map(n, params.threads, |p| {
        let mut count = 0usize;
        let start = p % n; // stagger scan starts across objects
        for idx in 0..n {
            let j = order[(start + idx) % n] as usize;
            if j != p && counted.dist(p, j) <= r {
                count += 1;
                if count >= k {
                    return false; // inlier
                }
            }
        }
        true // outlier
    });
    let outliers: Vec<u32> = flags
        .iter()
        .enumerate()
        .filter(|(_, &f)| f)
        .map(|(p, _)| p as u32)
        .collect();
    let mut report = OutlierReport::from_outliers(outliers, t.elapsed().as_secs_f64());
    report.cost.verify_dist_evals = counted.calls();
    report
}

/// Brute-force neighbor count without early termination — test helper.
pub fn neighbor_count<D: Dataset + ?Sized>(data: &D, p: usize, r: f64) -> usize {
    (0..data.len())
        .filter(|&j| j != p && data.dist(p, j) <= r)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_metrics::{StringSet, VectorSet, L2};

    fn line(points: &[f32]) -> VectorSet<L2> {
        VectorSet::from_rows(&points.iter().map(|&p| vec![p]).collect::<Vec<_>>(), L2)
    }

    #[test]
    fn finds_the_isolated_point() {
        // Cluster at 0..5, singleton at 100.
        let data = line(&[0.0, 1.0, 2.0, 3.0, 4.0, 100.0]);
        let res = detect(&data, &DodParams::new(5.0, 2), 0);
        assert_eq!(res.outliers, vec![5]);
    }

    #[test]
    fn k_one_means_no_neighbor_at_all() {
        let data = line(&[0.0, 0.5, 10.0, 20.0]);
        let res = detect(&data, &DodParams::new(1.0, 1), 1);
        assert_eq!(res.outliers, vec![2, 3]);
    }

    #[test]
    fn k_zero_yields_nothing() {
        let data = line(&[0.0, 100.0]);
        let res = detect(&data, &DodParams::new(1.0, 0), 0);
        assert!(res.outliers.is_empty());
    }

    #[test]
    fn k_geq_n_yields_everything() {
        let data = line(&[0.0, 1.0, 2.0]);
        let res = detect(&data, &DodParams::new(100.0, 3), 0);
        assert_eq!(res.outliers, vec![0, 1, 2]);
    }

    #[test]
    fn boundary_distance_counts_as_neighbor() {
        // dist == r must count (Definition 1 uses <=).
        let data = line(&[0.0, 1.0]);
        let res = detect(&data, &DodParams::new(1.0, 1), 0);
        assert!(res.outliers.is_empty());
    }

    #[test]
    fn result_is_independent_of_seed_and_threads() {
        let data = line(&[0.0, 0.2, 0.4, 5.0, 5.1, 30.0, 31.0, 90.0]);
        let p = DodParams::new(1.5, 2);
        let a = detect(&data, &p, 0);
        let b = detect(&data, &p, 999);
        let c = detect(&data, &p.with_threads(4), 7);
        assert_eq!(a.outliers, b.outliers);
        assert_eq!(a.outliers, c.outliers);
    }

    #[test]
    fn works_on_strings() {
        let data = StringSet::new(["cat", "bat", "hat", "zzzzzzzzzz"]);
        let res = detect(&data, &DodParams::new(1.0, 1), 0);
        assert_eq!(res.outliers, vec![3]);
    }

    #[test]
    fn empty_dataset() {
        let data = line(&[]);
        let res = detect(&data, &DodParams::new(1.0, 3), 0);
        assert!(res.outliers.is_empty());
    }

    #[test]
    fn cost_is_bounded_by_the_pairwise_baseline() {
        let data = line(&[0.0, 0.2, 0.4, 5.0, 5.1, 30.0, 31.0, 90.0]);
        let n = 8u64;
        let res = detect(&data, &DodParams::new(1.5, 2), 0);
        assert!(res.cost.verify_dist_evals > 0);
        assert!(res.cost.verify_dist_evals <= n * (n - 1));
        assert_eq!(res.cost.filter_dist_evals, 0);
        assert_eq!(res.cost.hops, 0);
        // Early termination on the dense prefix keeps pruning power > 0.
        assert!(res.cost.pruning_power(8) >= 0.0);
    }
}
