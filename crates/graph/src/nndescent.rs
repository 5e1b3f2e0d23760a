//! NNDescent and NNDescent+ — approximate K-NN graph construction (§5.1).
//!
//! NNDescent \[Dong et al., WWW'11\] refines random initial neighbor lists
//! by the rule "my neighbors' neighbors are probably my neighbors". The
//! paper's **NNDescent+** adds three things:
//!
//! 1. **Ball-partitioning initialization** ([`crate::partition`]): objects
//!    start with near-correct lists, cutting the number of iterations, and
//!    the partition's vantage objects become MRPG's pivots.
//! 2. **Update-status skipping**: a node's similar-object list is only
//!    examined if that list changed in the previous iteration.
//! 3. **Exact `K'`-NN retrieval** for the `m` objects with the largest AKNN
//!    distance sums (the suspected outliers), enabling the §5.5 shortcut.
//!
//! The iteration is double-buffered: every node's new list is computed from
//! the previous iteration's lists only, so the parallel build is
//! deterministic for any thread count.
//!
//! **Candidate set.** Node `p`'s similar objects are the members of its
//! AKNN and reverse-AKNN lists. Its candidates are those objects and the
//! members of their own two lists (NNDescent+ takes the lists only of the
//! objects whose list changed last iteration), minus `p` and its current
//! list. The raw lists repeat ids heavily: on Deep (n 2400, K 25) the
//! first iteration names 3.4M ids for 645k distinct candidates. So each
//! worker keeps one [`VisitMarks`] over the `n` ids for the iteration:
//! `p` and its list are marked first, and every other id enters the
//! candidate list only the first time it is marked. Duplicates and current
//! members never cost more than the mark.
//!
//! The distinct candidates are then sorted and evaluated in ascending id
//! order. The order is part of the output: `insert_capped` keeps the
//! first of equal distances, so where candidates tie (edit distance,
//! integer grids, duplicate points) it decides which of them a full list
//! keeps.

use crate::parallel::{par_map, par_map_with};
use crate::partition::partition_initialize;
use crate::visit::VisitMarks;
use dod_metrics::{Dataset, OrdF64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, HashMap};

/// Parameters for [`build`]; see module docs.
#[derive(Debug, Clone)]
pub struct NnDescentParams {
    /// Graph degree `K` (paper: 40 for PAMAP2, 25 otherwise).
    pub k: usize,
    /// Iteration cap (the loop stops earlier once no list changes).
    pub max_iters: usize,
    /// Enable the NNDescent+ extensions (partition init + skipping +
    /// exact refinement). `false` reproduces plain NNDescent / KGraph.
    pub plus: bool,
    /// Ball-partitioning rounds (plus only).
    pub partition_rounds: usize,
    /// Leaf capacity `c` of the partitioning; `0` means `2K` (plus only).
    pub capacity: usize,
    /// Number of suspected outliers refined with exact lists (plus only).
    pub exact_m: usize,
    /// Exact list length `K' >= K` (plus only; MRPG uses `4K`,
    /// MRPG-basic uses `K`).
    pub k_prime: usize,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed (builds are deterministic per seed and thread count).
    pub seed: u64,
}

impl NnDescentParams {
    /// Plain NNDescent, the KGraph construction.
    pub fn kgraph(k: usize) -> Self {
        NnDescentParams {
            k,
            max_iters: 15,
            plus: false,
            partition_rounds: 0,
            capacity: 0,
            exact_m: 0,
            k_prime: k,
            threads: 1,
            seed: 0,
        }
    }

    /// NNDescent+ as used for MRPG (`K' = 4K`) or MRPG-basic (`K' = K`).
    pub fn plus(k: usize, k_prime: usize, exact_m: usize) -> Self {
        assert!(k_prime >= k, "K' must be at least K");
        NnDescentParams {
            k,
            max_iters: 15,
            plus: true,
            partition_rounds: 2,
            capacity: 0,
            exact_m,
            k_prime,
            threads: 1,
            seed: 0,
        }
    }
}

/// An approximate K-NN graph: per node an ascending `(distance, id)` list.
pub struct AknnGraph {
    /// Per node: approximate (or exact, see [`AknnGraph::exact_len`])
    /// nearest neighbors, ascending by distance.
    pub knn: Vec<Vec<(f64, u32)>>,
    /// Ball-partitioning pivots (empty/false for plain NNDescent).
    pub pivots: Vec<bool>,
    /// Nodes whose whole list is exact, with the list length `K'`.
    pub exact_len: HashMap<u32, usize>,
    /// Number of refinement iterations executed.
    pub iterations: usize,
}

impl AknnGraph {
    /// Average of the stored neighbor distances — a cheap quality signal
    /// used by tests (lower is better for a fixed dataset and K).
    pub fn mean_neighbor_distance(&self) -> f64 {
        let (mut sum, mut cnt) = (0.0, 0usize);
        for l in &self.knn {
            for &(d, _) in l {
                sum += d;
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }
}

/// Inserts `(d, id)` into an ascending list capped at `k`. Returns `true`
/// if the list changed. Callers guarantee `id` is not already present.
fn insert_capped(list: &mut Vec<(f64, u32)>, d: f64, id: u32, k: usize) -> bool {
    if list.len() == k && d >= list[k - 1].0 {
        return false;
    }
    let pos = list.partition_point(|&(ld, _)| ld <= d);
    list.insert(pos, (d, id));
    if list.len() > k {
        list.pop();
    }
    true
}

/// Builds the AKNN graph. See module docs for the algorithm.
pub fn build<D: Dataset + ?Sized>(data: &D, params: &NnDescentParams) -> AknnGraph {
    let n = data.len();
    let k = params.k.min(n.saturating_sub(1));
    if n == 0 || k == 0 {
        return AknnGraph {
            knn: vec![Vec::new(); n],
            pivots: vec![false; n],
            exact_len: HashMap::new(),
            iterations: 0,
        };
    }

    // ---- Initialization -------------------------------------------------
    let mut pivots = vec![false; n];
    let mut knn: Vec<Vec<(f64, u32)>> = vec![Vec::new(); n];
    if params.plus {
        let capacity = if params.capacity == 0 {
            2 * params.k
        } else {
            params.capacity
        };
        let part = partition_initialize(data, k, capacity, params.partition_rounds, params.seed);
        pivots = part.pivots;
        knn = part.initial;
    }
    // Fill uncovered nodes with distinct random neighbors (both the plain
    // initialization and the plus fallback for objects no round covered).
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x9e37_79b9);
    for (p, list) in knn.iter_mut().enumerate() {
        if !list.is_empty() {
            continue;
        }
        if n - 1 <= k {
            for q in 0..n {
                if q != p {
                    insert_capped(list, data.dist(p, q), q as u32, k);
                }
            }
            continue;
        }
        while list.len() < k {
            let q = rng.gen_range(0..n);
            if q != p && !list.iter().any(|&(_, id)| id as usize == q) {
                insert_capped(list, data.dist(p, q), q as u32, k);
            }
        }
    }

    // ---- Refinement iterations ------------------------------------------
    let mut updated = vec![true; n];
    let mut iterations = 0;
    for _ in 0..params.max_iters {
        iterations += 1;
        // Reverse AKNN lists, capped at K deterministic entries (the first
        // K in node order — the paper caps the similar-object list at O(K)).
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, list) in knn.iter().enumerate() {
            for &(_, v) in list {
                let rl = &mut rev[v as usize];
                if rl.len() < k {
                    rl.push(u as u32);
                }
            }
        }

        // Each worker keeps one set of marks and one candidate buffer for
        // the whole iteration (see the module docs).
        let (results, _) = par_map_with(
            n,
            params.threads,
            || (VisitMarks::new(n), Vec::new()),
            |(marks, candidates): &mut (VisitMarks, Vec<u32>), p| {
                // p and its current list are never candidates.
                marks.begin();
                marks.mark(p as u32);
                for &(_, id) in &knn[p] {
                    marks.mark(id);
                }
                // p's similar objects are its list and its reverse list;
                // those outside its list are candidates themselves.
                candidates.clear();
                candidates.extend(rev[p].iter().copied().filter(|&q| marks.mark(q)));
                let reverse_only = candidates.len();
                // Each similar object whose list changed last iteration
                // (NNDescent+ skips the rest; plain NNDescent takes all)
                // adds its own list and reverse list.
                let mut admit_lists_of = |q: u32, candidates: &mut Vec<u32>| {
                    if params.plus && !updated[q as usize] {
                        return;
                    }
                    let q = q as usize;
                    for x in knn[q]
                        .iter()
                        .map(|&(_, id)| id)
                        .chain(rev[q].iter().copied())
                    {
                        if marks.mark(x) {
                            candidates.push(x);
                        }
                    }
                };
                for &(_, q) in &knn[p] {
                    admit_lists_of(q, candidates);
                }
                for i in 0..reverse_only {
                    admit_lists_of(candidates[i], candidates);
                }
                // Ascending ids: the order decides insert_capped's ties.
                candidates.sort_unstable();
                let mut list = knn[p].clone();
                let mut changed = false;
                for &x in candidates.iter() {
                    changed |= insert_capped(&mut list, data.dist(p, x as usize), x, k);
                }
                (list, changed)
            },
        );

        let mut any = false;
        for (p, (list, changed)) in results.into_iter().enumerate() {
            knn[p] = list;
            updated[p] = changed;
            any |= changed;
        }
        if !any {
            break;
        }
    }

    // ---- Exact K'-NN retrieval for suspected outliers (plus only) -------
    let mut exact_len = HashMap::new();
    if params.plus && params.exact_m > 0 && n > 1 {
        let k_prime = params.k_prime.max(k).min(n - 1);
        // Suspicion score: sum of distances to the current AKNNs (short
        // lists are maximally suspicious). Descending, ties by id for
        // determinism.
        let mut scored: Vec<(f64, u32)> = knn
            .iter()
            .enumerate()
            .map(|(p, l)| {
                let s = if l.len() < k {
                    f64::INFINITY
                } else {
                    l.iter().map(|&(d, _)| d).sum()
                };
                (s, p as u32)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let chosen: Vec<u32> = scored
            .into_iter()
            .take(params.exact_m.min(n))
            .map(|(_, p)| p)
            .collect();
        let exact_lists: Vec<Vec<(f64, u32)>> = par_map(chosen.len(), params.threads, |ci| {
            let p = chosen[ci] as usize;
            // Linear-scan K'-NN with a capped max-heap.
            let mut heap: BinaryHeap<(OrdF64, u32)> = BinaryHeap::with_capacity(k_prime + 1);
            for q in 0..n {
                if q == p {
                    continue;
                }
                let d = data.dist(p, q);
                if heap.len() < k_prime {
                    heap.push((OrdF64(d), q as u32));
                } else if d < heap.peek().expect("non-empty").0 .0 {
                    heap.pop();
                    heap.push((OrdF64(d), q as u32));
                }
            }
            let mut l: Vec<(f64, u32)> = heap.into_iter().map(|(OrdF64(d), q)| (d, q)).collect();
            l.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            l
        });
        for (ci, &p) in chosen.iter().enumerate() {
            knn[p as usize] = exact_lists[ci].clone();
            exact_len.insert(p, exact_lists[ci].len());
        }
    }

    AknnGraph {
        knn,
        pivots,
        exact_len,
        iterations,
    }
}

/// Recall of the AKNN lists against brute-force K-NN, over a sample of
/// nodes. Test/diagnostic helper — O(sample · n) distance evaluations.
pub fn knn_recall<D: Dataset + ?Sized>(data: &D, g: &AknnGraph, k: usize, sample: usize) -> f64 {
    let n = data.len();
    if n < 2 {
        return 1.0;
    }
    let step = (n / sample.max(1)).max(1);
    let (mut hit, mut total) = (0usize, 0usize);
    for p in (0..n).step_by(step) {
        let mut all: Vec<(f64, u32)> = (0..n)
            .filter(|&q| q != p)
            .map(|q| (data.dist(p, q), q as u32))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kk = k.min(all.len());
        // Compare by distance (ties make id comparison unfair).
        let true_kth = all[kk - 1].0;
        for &(d, _) in g.knn[p].iter().take(kk) {
            if d <= true_kth + 1e-12 {
                hit += 1;
            }
        }
        total += kk;
    }
    hit as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_metrics::{VectorSet, L2};

    fn random_points(n: usize, dim: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    #[test]
    fn insert_capped_keeps_ascending_order() {
        let mut l = Vec::new();
        assert!(insert_capped(&mut l, 2.0, 1, 3));
        assert!(insert_capped(&mut l, 1.0, 2, 3));
        assert!(insert_capped(&mut l, 3.0, 3, 3));
        assert!(!insert_capped(&mut l, 5.0, 4, 3)); // full, too far
        assert!(insert_capped(&mut l, 0.5, 5, 3));
        let ids: Vec<u32> = l.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![5, 2, 1]);
    }

    #[test]
    fn kgraph_reaches_high_recall() {
        let data = random_points(400, 4, 3);
        let g = build(&data, &NnDescentParams::kgraph(10));
        let recall = knn_recall(&data, &g, 10, 50);
        assert!(recall > 0.90, "recall = {recall}");
    }

    #[test]
    fn plus_is_cheaper_than_plain_on_clustered_data() {
        // The paper's claim (§5.1): partition initialization plus
        // update-skipping makes NNDescent+ empirically cheaper. Distance
        // evaluations are the cost model, so count them on data where
        // clustering exists to be exploited.
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<f32>> = (0..500)
            .map(|i| {
                let c = (i % 5) as f32 * 20.0;
                (0..4).map(|_| c + rng.gen_range(-1.0f32..1.0)).collect()
            })
            .collect();
        let data = VectorSet::from_rows(&rows, L2);

        let counted = dod_metrics::DistanceCounter::new(&data);
        let plain = build(&counted, &NnDescentParams::kgraph(10));
        let plain_calls = counted.calls();
        counted.reset();
        let plus = build(
            &counted,
            &NnDescentParams {
                seed: 0,
                ..NnDescentParams::plus(10, 10, 0)
            },
        );
        let plus_calls = counted.calls();

        let plain_recall = knn_recall(&data, &plain, 10, 50);
        let plus_recall = knn_recall(&data, &plus, 10, 50);
        assert!(plus_recall > 0.90, "recall = {plus_recall}");
        assert!(plain_recall > 0.90, "recall = {plain_recall}");
        assert!(
            plus_calls < plain_calls,
            "plus used {plus_calls} distance calls, plain {plain_calls}"
        );
    }

    #[test]
    fn lists_are_sorted_unique_and_self_free() {
        let data = random_points(200, 3, 1);
        let g = build(&data, &NnDescentParams::kgraph(8));
        for (p, l) in g.knn.iter().enumerate() {
            assert_eq!(l.len(), 8);
            assert!(l.windows(2).all(|w| w[0].0 <= w[1].0));
            let mut ids: Vec<u32> = l.iter().map(|&(_, id)| id).collect();
            assert!(!ids.contains(&(p as u32)));
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 8, "duplicate ids at {p}");
        }
    }

    #[test]
    fn exact_refinement_produces_true_knn() {
        let data = random_points(250, 3, 5);
        let g = build(
            &data,
            &NnDescentParams {
                threads: 2,
                ..NnDescentParams::plus(6, 12, 10)
            },
        );
        assert_eq!(g.exact_len.len(), 10);
        for (&p, &len) in &g.exact_len {
            assert_eq!(len, 12);
            let list = &g.knn[p as usize];
            assert_eq!(list.len(), 12);
            // Compare against brute force.
            let mut all: Vec<(f64, u32)> = (0..250)
                .filter(|&q| q != p as usize)
                .map(|q| (data.dist(p as usize, q), q as u32))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (i, &(d, _)) in list.iter().enumerate() {
                assert!((d - all[i].0).abs() < 1e-12, "node {p} rank {i}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = random_points(300, 3, 8);
        let mut p1 = NnDescentParams::plus(8, 16, 5);
        p1.threads = 1;
        let mut p4 = p1.clone();
        p4.threads = 4;
        let a = build(&data, &p1);
        let b = build(&data, &p4);
        assert_eq!(a.iterations, b.iterations);
        for p in 0..300 {
            assert_eq!(a.knn[p], b.knn[p], "node {p} differs");
        }
    }

    #[test]
    fn small_datasets_get_complete_graphs() {
        let data = random_points(5, 2, 0);
        let g = build(&data, &NnDescentParams::kgraph(10));
        for (p, l) in g.knn.iter().enumerate() {
            assert_eq!(l.len(), 4, "node {p} should link all others");
        }
    }

    #[test]
    fn empty_dataset_is_fine() {
        let data = random_points(0, 2, 0);
        let g = build(&data, &NnDescentParams::kgraph(5));
        assert!(g.knn.is_empty());
    }

    #[test]
    fn k_prime_below_k_is_rejected() {
        let r = std::panic::catch_unwind(|| NnDescentParams::plus(10, 5, 3));
        assert!(r.is_err());
    }
}
