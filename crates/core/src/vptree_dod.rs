//! VP-tree DOD baseline \[Yianilos, SODA'93\]: build the strongest metric
//! range index offline, then answer one early-terminated range count per
//! object (the paper's §3 "simple and practical solution").
//!
//! The detection loop lives in a crate-internal `detect_on_tree` function
//! served through the [`Engine`](crate::Engine) front door
//! ([`IndexSpec::VpTree`](crate::IndexSpec::VpTree)).

use crate::params::OutlierReport;
use dod_graph::parallel::par_map;
use dod_metrics::{Dataset, DistanceCounter};
use dod_vptree::VpTree;
use std::time::Instant;

/// One early-terminated range count per object over a prebuilt tree.
/// The caller guarantees `tree.len() == data.len()`.
pub(crate) fn detect_on_tree<D: Dataset + ?Sized>(
    tree: &VpTree,
    data: &D,
    r: f64,
    k: usize,
    threads: usize,
) -> OutlierReport {
    let n = data.len();
    let t = Instant::now();
    if n == 0 || k == 0 {
        return OutlierReport::from_outliers(Vec::new(), t.elapsed().as_secs_f64());
    }
    // Filter-less baseline: every evaluation books as verification cost.
    let counted = DistanceCounter::new(data);
    let flags: Vec<bool> = par_map(n, threads, |p| tree.range_count(&counted, p, r, k) < k);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, IndexSpec};
    use crate::nested_loop;
    use crate::params::DodParams;
    use crate::Query;
    use dod_metrics::{StringSet, VectorSet, L2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A VP-tree engine over `data` — the only VP-tree detection entry
    /// point since the deprecated `VpTreeDod` shim was removed.
    fn vp_engine<D: Dataset>(data: D) -> Engine<D> {
        Engine::builder(data)
            .index(IndexSpec::VpTree)
            .build()
            .expect("VP-tree engines build for any dataset")
    }

    fn query(p: &DodParams) -> Query {
        Query::new(p.r, p.k)
            .expect("valid query")
            .with_threads(p.threads)
    }

    fn random_blobs(n: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i % 30 == 29 {
                    vec![rng.gen_range(40.0f32..80.0), rng.gen_range(40.0f32..80.0)]
                } else {
                    let c = (i % 4) as f32 * 6.0;
                    vec![c + rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)]
                }
            })
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    #[test]
    fn matches_nested_loop() {
        let data = random_blobs(500, 1);
        let engine = vp_engine(&data);
        for (r, k) in [(1.5, 4), (2.5, 9), (0.6, 1)] {
            let p = DodParams::new(r, k);
            assert_eq!(
                engine.query(query(&p)).expect("query").outliers,
                nested_loop::detect(&data, &p, 0).outliers,
                "r={r} k={k}"
            );
        }
    }

    #[test]
    fn reusable_across_queries() {
        let data = random_blobs(200, 2);
        let engine = vp_engine(&data);
        let a = engine.query(query(&DodParams::new(1.0, 3))).expect("query");
        let b = engine.query(query(&DodParams::new(2.0, 3))).expect("query");
        // Larger r can only shrink the outlier set.
        assert!(b.outliers.len() <= a.outliers.len());
        assert!(b.outliers.iter().all(|o| a.outliers.contains(o)));
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = random_blobs(300, 3);
        let engine = vp_engine(&data);
        let p = DodParams::new(1.5, 5);
        assert_eq!(
            engine.query(query(&p)).expect("query").outliers,
            engine
                .query(query(&p.with_threads(4)))
                .expect("query")
                .outliers
        );
    }

    #[test]
    fn works_on_strings() {
        let data = StringSet::new(["cat", "bat", "hat", "rat", "qqqqqqqqqqqq"]);
        let engine = vp_engine(&data);
        let res = engine.query(query(&DodParams::new(1.0, 2))).expect("query");
        assert_eq!(res.outliers, vec![4]);
    }

    #[test]
    fn empty_dataset() {
        let data = VectorSet::from_rows(&[], L2);
        let engine = vp_engine(&data);
        assert!(engine
            .query(query(&DodParams::new(1.0, 2)))
            .expect("query")
            .outliers
            .is_empty());
    }

    #[test]
    fn build_time_and_size_are_recorded() {
        let data = random_blobs(100, 4);
        let engine = vp_engine(&data);
        assert!(engine.build_secs() >= 0.0);
        assert!(engine.index_bytes() > 0);
        assert_eq!(engine.index_name(), "VP-tree");
    }
}
