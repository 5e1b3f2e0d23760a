//! Remove-Detours (paper Algorithm 5): approximate monotonic paths.
//!
//! A path `p → … → w` is a *detour* if the distance to `p` ever decreases
//! along it: Greedy-Counting, which only expands vertices within `r`, can
//! then miss `w` even though `dist(p, w) ≤ r`. Building a full monotonic
//! search graph costs Ω(n²) (Theorem 3, see [`crate::msg`]), so the paper
//! uses a heuristic: for a sample of targets (weighted toward pivots), run
//! hop-bounded BFS, collect vertices whose BFS path is non-monotonic, and
//! chain-link them in ascending distance order — which *is* a monotonic
//! path from the target through all of them.
//!
//! Every BFS records what it has seen in [`VisitMarks`], so testing a
//! vertex costs `O(1)` however far the BFS got (the 3-hop budget is
//! `min(K³, 50,000)` visits). Each worker of the parallel pass owns one
//! set of marks for all its targets; a build runs `n / K` targets of up to
//! `1 + pivots_per_target` BFSs each and allocates no `O(n)` array per BFS.

use crate::graph::ProximityGraph;
use crate::parallel::par_map_with;
use crate::visit::VisitMarks;
use dod_metrics::{Dataset, OrdF64};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Tuning knobs for [`remove_detours`].
#[derive(Debug, Clone)]
pub struct DetourParams {
    /// Number of target objects `|P'|`; `0` means the paper's `n / K`.
    pub targets: usize,
    /// Pivots examined per target (`|P_piv|`). The paper allows `O(K)`;
    /// the default trades a little reachability for build time — the
    /// ablation bench (`experiments ablation`) quantifies the effect.
    pub pivots_per_target: usize,
    /// Cap on a target's non-monotonic list `|A|` (paper: `O(K²)`).
    pub max_list: usize,
    /// Node-visit budget of the 3-hop BFS (paper cost model: `O(K³)`).
    pub visit_cap3: usize,
    /// Node-visit budget of each 2-hop BFS (paper cost model: `O(K²)`).
    pub visit_cap2: usize,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DetourParams {
    /// Paper-shaped defaults for degree `k`.
    pub fn for_degree(k: usize) -> Self {
        let k = k.max(2);
        DetourParams {
            targets: 0,
            pivots_per_target: 6,
            max_list: k * k,
            visit_cap3: (k * k * k).min(50_000),
            visit_cap2: k * k,
            threads: 1,
            seed: 0,
        }
    }
}

/// Hop- and visit-bounded BFS from `start` that reports vertices whose BFS
/// path is non-monotonic w.r.t. the distance to `anchor`
/// (`Get-Non-Monotonic` in the paper, with the Algorithm 5 hop constraint).
///
/// Returns `(dist_to_anchor, vertex)` pairs, at most `max_list`, keeping
/// those closest to the anchor. `marks` must cover the graph's vertices.
#[allow(clippy::too_many_arguments)]
pub fn get_non_monotonic<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    data: &D,
    anchor: usize,
    start: u32,
    max_hops: usize,
    visit_cap: usize,
    max_list: usize,
    marks: &mut VisitMarks,
) -> Vec<(f64, u32)> {
    // (vertex, its distance to anchor, hop count)
    let mut queue: VecDeque<(u32, f64, usize)> = VecDeque::new();
    marks.begin();
    let start_d = if start as usize == anchor {
        0.0
    } else {
        data.dist(anchor, start as usize)
    };
    queue.push_back((start, start_d, 0));
    marks.mark(start);
    // Max-heap keeps the `max_list` smallest anchor distances.
    let mut worst: BinaryHeap<(OrdF64, u32)> = BinaryHeap::with_capacity(max_list + 1);
    let mut visits = 0usize;
    while let Some((v, v_d, hops)) = queue.pop_front() {
        if hops == max_hops {
            continue;
        }
        for &w in &g.adj[v as usize] {
            if w as usize == anchor || !marks.mark(w) {
                continue;
            }
            visits += 1;
            if visits > visit_cap {
                break;
            }
            let w_d = data.dist(anchor, w as usize);
            if v_d > w_d && max_list > 0 {
                // The BFS path reached w through a vertex farther from the
                // anchor than w itself: no monotonic path witnessed.
                if worst.len() < max_list {
                    worst.push((OrdF64(w_d), w));
                } else if w_d < worst.peek().expect("non-empty").0 .0 {
                    worst.pop();
                    worst.push((OrdF64(w_d), w));
                }
            }
            queue.push_back((w, w_d, hops + 1));
        }
        if visits > visit_cap {
            break;
        }
    }
    let mut out: Vec<(f64, u32)> = worst.into_iter().map(|(OrdF64(d), w)| (d, w)).collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    out
}

/// Pivots encountered within `max_hops` of `target`, ascending by distance,
/// excluding 1-hop neighbors, exact-`K'` nodes and the target itself
/// (Algorithm 5's pivot sampling rule).
fn nearby_pivots<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    data: &D,
    target: usize,
    max_hops: usize,
    visit_cap: usize,
    want: usize,
    marks: &mut VisitMarks,
) -> Vec<u32> {
    let mut queue: VecDeque<(u32, usize)> = VecDeque::new();
    marks.begin();
    marks.mark(target as u32);
    queue.push_back((target as u32, 0));
    let one_hop = &g.adj[target];
    let mut found: Vec<(f64, u32)> = Vec::new();
    let mut visits = 0usize;
    'outer: while let Some((v, hops)) = queue.pop_front() {
        if hops == max_hops {
            continue;
        }
        for &w in &g.adj[v as usize] {
            if !marks.mark(w) {
                continue;
            }
            visits += 1;
            if visits > visit_cap {
                break 'outer;
            }
            if g.pivot[w as usize] && !one_hop.contains(&w) && !g.exact.contains_key(&w) {
                found.push((data.dist(target, w as usize), w));
            }
            queue.push_back((w, hops + 1));
        }
    }
    found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    found.truncate(want);
    found.into_iter().map(|(_, w)| w).collect()
}

/// Runs Algorithm 5 in place: samples targets, finds vertices with no
/// witnessed monotonic path, and adds ascending chain links for them.
pub fn remove_detours<D: Dataset + ?Sized>(
    g: &mut ProximityGraph,
    data: &D,
    k: usize,
    params: &DetourParams,
) {
    let n = g.node_count();
    if n < 3 {
        return;
    }
    let want_targets = if params.targets == 0 {
        (n / k.max(1)).max(1)
    } else {
        params.targets
    };

    // Target sample: pivots first (Greedy-Counting traverses them), then
    // random objects; exact-K' nodes are excluded (their lists are final).
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xdead_beef);
    let mut targets: Vec<u32> = g
        .pivot_ids()
        .into_iter()
        .filter(|p| !g.exact.contains_key(p))
        .collect();
    targets.shuffle(&mut rng);
    targets.truncate(want_targets);
    if targets.len() < want_targets {
        let mut rest: Vec<u32> = (0..n as u32)
            .filter(|v| !g.pivot[*v as usize] && !g.exact.contains_key(v))
            .collect();
        rest.shuffle(&mut rng);
        targets.extend(rest.into_iter().take(want_targets - targets.len()));
    }

    // Collect every target's non-monotonic list in parallel (read-only on
    // the graph, one set of marks per worker), then apply the chain links
    // sequentially.
    let g_ref: &ProximityGraph = g;
    let (lists, _) = par_map_with(
        targets.len(),
        params.threads,
        || VisitMarks::new(n),
        |marks, ti| {
            let p = targets[ti] as usize;
            let pivots = nearby_pivots(
                g_ref,
                data,
                p,
                3,
                params.visit_cap3,
                params.pivots_per_target,
                marks,
            );
            let mut non_monotonic = |start: u32, hops: usize, visit_cap: usize| {
                get_non_monotonic(
                    g_ref,
                    data,
                    p,
                    start,
                    hops,
                    visit_cap,
                    params.max_list,
                    marks,
                )
            };
            let mut a = non_monotonic(p as u32, 3, params.visit_cap3);
            for piv in pivots {
                a.extend(non_monotonic(piv, 2, params.visit_cap2));
            }
            // Merge, dedup by vertex, keep closest `max_list`.
            a.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            a.dedup_by_key(|e| e.1);
            a.truncate(params.max_list);
            a
        },
    );

    for (ti, list) in lists.into_iter().enumerate() {
        let mut prev = targets[ti];
        for (_, w) in list {
            if w != prev {
                g.add_undirected(prev, w);
                prev = w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;
    use dod_metrics::{VectorSet, L2};

    fn marks(g: &ProximityGraph) -> VisitMarks {
        VisitMarks::new(g.node_count())
    }

    /// A deliberate detour: p=0 at origin, w=2 nearby, but the only path
    /// runs through far-away node 1.
    fn detour_triangle() -> (VectorSet<L2>, ProximityGraph) {
        let data = VectorSet::from_rows(
            &[
                vec![0.0, 0.0],  // 0 = p
                vec![10.0, 0.0], // 1 = far relay
                vec![1.0, 0.0],  // 2 = near p, only reachable via 1
                vec![0.5, 0.5],  // 3 = filler linked to p
            ],
            L2,
        );
        let mut g = ProximityGraph::new(4, GraphKind::Mrpg);
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        g.add_undirected(0, 3);
        (data, g)
    }

    #[test]
    fn detects_the_detour() {
        let (data, g) = detour_triangle();
        let non_mono = get_non_monotonic(&g, &data, 0, 0, 3, 1000, 100, &mut marks(&g));
        let ids: Vec<u32> = non_mono.iter().map(|&(_, w)| w).collect();
        assert!(ids.contains(&2), "vertex 2 should be flagged: {ids:?}");
        assert!(!ids.contains(&1), "vertex 1 is reached monotonically");
    }

    #[test]
    fn remove_detours_adds_the_shortcut() {
        let (data, mut g) = detour_triangle();
        g.pivot[0] = true; // make node 0 a sampled target
        let mut params = DetourParams::for_degree(2);
        params.targets = 4;
        remove_detours(&mut g, &data, 2, &params);
        // After the chain links, 0 must reach 2 without going through 1:
        // specifically the 0 -> 3 -> 2 or direct 0 -> 2 link must exist.
        let direct = g.has_link(0, 2) || (g.has_link(0, 3) && g.has_link(3, 2));
        assert!(direct, "no monotonic shortcut added: {:?}", g.adj);
        g.assert_invariants();
    }

    #[test]
    fn respects_the_list_cap() {
        let (data, g) = detour_triangle();
        let non_mono = get_non_monotonic(&g, &data, 0, 0, 3, 1000, 0, &mut marks(&g));
        assert!(non_mono.is_empty());
    }

    #[test]
    fn hop_bound_limits_reach() {
        // Chain 0-1-2-3-4 where distances decrease after 1 (detours at 2+).
        let data = VectorSet::from_rows(
            &[vec![0.0], vec![10.0], vec![9.0], vec![8.0], vec![7.0]],
            L2,
        );
        let mut g = ProximityGraph::new(5, GraphKind::Mrpg);
        for i in 0..4u32 {
            g.add_undirected(i, i + 1);
        }
        let hop1 = get_non_monotonic(&g, &data, 0, 0, 1, 1000, 100, &mut marks(&g));
        assert!(hop1.is_empty(), "1 hop sees only vertex 1 (monotone)");
        let hop2 = get_non_monotonic(&g, &data, 0, 0, 2, 1000, 100, &mut marks(&g));
        assert_eq!(hop2.iter().map(|&(_, w)| w).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn nearby_pivots_excludes_one_hop_and_exact() {
        let data =
            VectorSet::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]], L2);
        let mut g = ProximityGraph::new(5, GraphKind::Mrpg);
        for i in 0..4u32 {
            g.add_undirected(i, i + 1);
        }
        g.pivot = vec![false, true, true, true, false];
        g.exact.insert(3, crate::graph::ExactNn { dists: vec![] });
        let piv = nearby_pivots(&g, &data, 0, 4, 1000, 10, &mut marks(&g));
        // 1 is one-hop (excluded), 3 is exact (excluded) => only 2.
        assert_eq!(piv, vec![2]);
    }

    #[test]
    fn noop_on_tiny_graphs() {
        let data = VectorSet::from_rows(&[vec![0.0], vec![1.0]], L2);
        let mut g = ProximityGraph::new(2, GraphKind::Mrpg);
        g.add_undirected(0, 1);
        remove_detours(&mut g, &data, 5, &DetourParams::for_degree(5));
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn deterministic_across_threads() {
        let mut rng = StdRng::seed_from_u64(3);
        use rand::Rng;
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let data = VectorSet::from_rows(&rows, L2);
        let base = crate::nndescent::build(&data, &crate::nndescent::NnDescentParams::kgraph(5));
        let make = |threads: usize| {
            let mut g = ProximityGraph::new(120, GraphKind::Mrpg);
            for (p, l) in base.knn.iter().enumerate() {
                for &(_, q) in l {
                    g.add_undirected(p as u32, q);
                }
            }
            g.pivot = (0..120).map(|i| i % 10 == 0).collect();
            let mut params = DetourParams::for_degree(5);
            params.threads = threads;
            remove_detours(&mut g, &data, 5, &params);
            g.adj
        };
        assert_eq!(make(1), make(4));
    }
}
