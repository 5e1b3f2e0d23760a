//! The paper's DOD algorithm (Algorithm 1): proximity-graph filtering plus
//! exact verification, with the §5.5 exact-`K'` shortcut.
//!
//! The algorithm itself lives in a crate-internal `detect_on_graph`
//! function served through the [`Engine`](crate::Engine) front door, which
//! adds buffer pooling, verification-engine caching and typed errors.

use crate::error::DodError;
use crate::greedy::{greedy_walk, BufferPool, EdgeLengths, TraversalBuffer};
use crate::params::{CostReport, DodParams, OutlierReport};
use crate::verify::{ExactCounter, VerifyStrategy};
use dod_graph::parallel::{par_map, par_map_with};
use dod_graph::ProximityGraph;
use dod_metrics::{Dataset, DistanceCounter};
use std::sync::OnceLock;
use std::time::Instant;

/// Per-object outcome of the filtering phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterOutcome {
    /// Greedy count reached `k` — provably an inlier (Lemma 1).
    Inlier,
    /// Count stayed below `k` — outlier candidate, must be verified.
    Candidate,
    /// Decided outlier via the exact-`K'` shortcut, no verification needed.
    ExactOutlier,
    /// Decided inlier via the exact-`K'` shortcut.
    ExactInlier,
}

/// Runs Algorithm 1 over a prebuilt graph, whose edge `lengths` were
/// measured over `data`.
///
/// `pool` supplies reusable traversal buffers and `counter` caches the
/// resolved verification engine across queries — both are per-engine state
/// so repeated queries stop re-allocating; one-shot callers pass fresh
/// ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn detect_on_graph<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    lengths: &EdgeLengths,
    data: &D,
    r: f64,
    k: usize,
    threads: usize,
    verify: VerifyStrategy,
    seed: u64,
    pool: &BufferPool,
    counter: &OnceLock<ExactCounter>,
) -> Result<OutlierReport, DodError> {
    DodParams::new(r, k).validate()?;
    let n = data.len();
    if g.node_count() != n {
        return Err(DodError::SizeMismatch {
            index: g.node_count(),
            data: n,
        });
    }
    if n == 0 || k == 0 {
        // k = 0: no object can have "fewer than 0" neighbors.
        return Ok(OutlierReport::from_outliers(Vec::new(), 0.0));
    }

    // ---- Filtering phase (parallel, strided for load balance) -------
    // Every worker owns one pooled traversal buffer for the whole phase;
    // the buffers' cost tallies are drained as they go back to the pool.
    let t = Instant::now();
    let use_shortcut = g.use_exact_shortcut;
    let (outcomes, bufs) = par_map_with(
        n,
        threads,
        || pool.take(n),
        |buf, p| filter_one(g, lengths, data, p, r, k, use_shortcut, buf),
    );
    let (mut filter_dist_evals, mut hops) = (0, 0);
    for mut buf in bufs {
        let (d, h) = buf.take_cost();
        filter_dist_evals += d;
        hops += h;
        pool.put(buf);
    }
    let filter_secs = t.elapsed().as_secs_f64();

    // ---- Verification phase ------------------------------------------
    let t = Instant::now();
    let candidates: Vec<u32> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == FilterOutcome::Candidate)
        .map(|(p, _)| p as u32)
        .collect();
    let decided_in_filter = outcomes
        .iter()
        .filter(|&&o| o == FilterOutcome::ExactOutlier)
        .count();

    let mut outliers: Vec<u32> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == FilterOutcome::ExactOutlier)
        .map(|(p, _)| p as u32)
        .collect();
    let mut false_positives = 0;
    // Only stand up the exact-counting engine when filtering actually
    // left candidates: resolving `Auto` samples the dataset and the
    // VP-tree engine builds an index, both of which cost real distance
    // evaluations that would be pure waste on an empty workload. Once
    // built it is cached on the engine for every later query.
    let mut verify_dist_evals = 0;
    if !candidates.is_empty() {
        let counter = counter.get_or_init(|| ExactCounter::build(verify, data, seed));
        // Count only the verification itself: `ExactCounter::build` above
        // is cached engine state, excluded from per-query cost by design.
        let counted = DistanceCounter::new(data);
        let verdicts: Vec<bool> = par_map(candidates.len(), threads, |ci| {
            counter.count(&counted, candidates[ci] as usize, r, k) < k
        });
        verify_dist_evals = counted.calls();
        for (ci, &is_outlier) in verdicts.iter().enumerate() {
            if is_outlier {
                outliers.push(candidates[ci]);
            } else {
                false_positives += 1;
            }
        }
    }
    outliers.sort_unstable();
    let verify_secs = t.elapsed().as_secs_f64();

    Ok(OutlierReport {
        outliers,
        candidates: candidates.len(),
        false_positives,
        decided_in_filter,
        filter_secs,
        verify_secs,
        cost: CostReport {
            filter_dist_evals,
            verify_dist_evals,
            hops,
        },
    })
}

/// Filter decision for one object (Algorithm 1 lines 3–5, with the §5.5
/// replacement for exact-`K'` nodes).
#[allow(clippy::too_many_arguments)]
fn filter_one<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    lengths: &EdgeLengths,
    data: &D,
    p: usize,
    r: f64,
    k: usize,
    use_shortcut: bool,
    buf: &mut TraversalBuffer,
) -> FilterOutcome {
    if use_shortcut {
        if let Some(exact) = g.exact.get(&(p as u32)) {
            if k <= exact.dists.len() {
                // The prefix holds the exact K' nearest distances: the
                // number of them within r below k decides p outright.
                let within = exact.dists.partition_point(|&d| d <= r);
                return if within < k {
                    FilterOutcome::ExactOutlier
                } else {
                    FilterOutcome::ExactInlier
                };
            }
        }
    }
    if greedy_walk(g, Some(lengths), data, p, r, k, buf).len() < k {
        FilterOutcome::Candidate
    } else {
        FilterOutcome::Inlier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::nested_loop;
    use dod_graph::MrpgParams;
    use dod_metrics::{VectorSet, L2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Algorithm 1 over a prebuilt graph, through the `Engine` front door
    /// (the only entry point since the deprecated `GraphDod` shim was
    /// removed).
    fn detect(g: ProximityGraph, data: &VectorSet<L2>, params: &DodParams) -> OutlierReport {
        Engine::builder(data)
            .prebuilt_graph(g)
            .build()
            .expect("graph covers the dataset")
            .query(
                crate::Query::new(params.r, params.k)
                    .expect("valid query")
                    .with_threads(params.threads),
            )
            .expect("query")
    }

    fn clustered_with_outliers(n: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i < n - n / 20 {
                    let c = (i % 4) as f32 * 10.0;
                    vec![c + rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)]
                } else {
                    // planted outliers, far from the clusters
                    vec![
                        rng.gen_range(100.0f32..200.0),
                        rng.gen_range(100.0f32..200.0),
                    ]
                }
            })
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    #[test]
    fn matches_nested_loop_ground_truth_on_mrpg() {
        let data = clustered_with_outliers(500, 1);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let params = DodParams::new(2.0, 6);
        let report = detect(g, &data, &params);
        let truth = nested_loop::detect(&data, &params, 0);
        assert_eq!(report.outliers, truth.outliers);
    }

    #[test]
    fn matches_ground_truth_on_kgraph_and_nsw() {
        let data = clustered_with_outliers(400, 2);
        let params = DodParams::new(2.0, 5);
        let truth = nested_loop::detect(&data, &params, 0);
        let kg = dod_graph::mrpg::build_kgraph(&data, 8, 1, 0);
        assert_eq!(detect(kg, &data, &params).outliers, truth.outliers);
        let nsw = dod_graph::mrpg::build_nsw(&data, 8, 0);
        assert_eq!(detect(nsw, &data, &params).outliers, truth.outliers);
    }

    #[test]
    fn parallel_equals_sequential() {
        let data = clustered_with_outliers(400, 3);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let engine = Engine::builder(&data)
            .prebuilt_graph(g)
            .build()
            .expect("build");
        let q = crate::Query::new(2.0, 6).expect("valid");
        let seq = engine.query(q).expect("query");
        let par = engine.query(q.with_threads(4)).expect("query");
        assert_eq!(seq.outliers, par.outliers);
        assert_eq!(seq.candidates, par.candidates);
        assert_eq!(seq.false_positives, par.false_positives);
        // Same walks, same verifications — the cost tally is
        // thread-count-invariant.
        assert_eq!(seq.cost, par.cost);
    }

    #[test]
    fn shortcut_decides_planted_outliers_in_filter() {
        let data = clustered_with_outliers(600, 4);
        let mut p = MrpgParams::new(8);
        p.exact_m = Some(64); // cover the 30 planted outliers
        let (g, _) = dod_graph::mrpg::build(&data, &p);
        let report = detect(g, &data, &DodParams::new(2.0, 6));
        assert!(
            report.decided_in_filter > 0,
            "no outlier decided by the K' shortcut"
        );
        // Shortcut decisions are final: they never appear as candidates.
        let truth = nested_loop::detect(&data, &DodParams::new(2.0, 6), 0);
        assert_eq!(report.outliers, truth.outliers);
    }

    #[test]
    fn k_zero_returns_no_outliers() {
        let data = clustered_with_outliers(100, 5);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(5));
        let report = detect(g, &data, &DodParams::new(1.0, 0));
        assert!(report.outliers.is_empty());
    }

    #[test]
    fn k_larger_than_n_makes_everything_an_outlier() {
        let data = clustered_with_outliers(50, 6);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(5));
        let report = detect(g, &data, &DodParams::new(1e9, 50));
        assert_eq!(report.outliers.len(), 50);
    }

    #[test]
    fn r_zero_with_duplicates() {
        // Exact duplicates are neighbors at distance 0.
        let mut rows = vec![vec![1.0f32, 1.0]; 30];
        rows.push(vec![50.0, 50.0]); // singleton
        let data = VectorSet::from_rows(&rows, L2);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(4));
        let report = detect(g, &data, &DodParams::new(0.0, 1));
        assert_eq!(report.outliers, vec![30]);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let data = clustered_with_outliers(400, 8);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let report = detect(g, &data, &DodParams::new(2.0, 6));
        // candidates = verified outliers + false positives.
        let verified_outliers = report.outliers.len() - report.decided_in_filter;
        assert_eq!(
            report.candidates,
            verified_outliers + report.false_positives
        );
    }

    #[test]
    fn cost_report_reflects_both_phases() {
        let data = clustered_with_outliers(400, 9);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let report = detect(g, &data, &DodParams::new(2.0, 6));
        assert!(report.cost.filter_dist_evals > 0, "filter walked for free?");
        assert!(report.cost.hops > 0, "walks expand at least their seeds");
        if report.candidates > 0 {
            assert!(report.cost.verify_dist_evals > 0);
        }
        // The graph filter must beat brute force on a clustered set.
        let pp = report.cost.pruning_power(data.len());
        assert!(pp > 0.0 && pp <= 1.0, "pruning power {pp} out of range");
    }

    #[test]
    fn k_zero_report_has_zero_cost() {
        let data = clustered_with_outliers(100, 10);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(5));
        let report = detect(g, &data, &DodParams::new(1.0, 0));
        assert_eq!(report.cost, CostReport::default());
    }
}
