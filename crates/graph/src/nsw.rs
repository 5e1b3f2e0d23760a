//! NSW — navigable small-world proximity graph \[Malkov et al., Inf. Syst.
//! 2014\], the strongest pre-existing metric proximity graph the paper
//! compares against.
//!
//! Built by incremental insertion: each new object runs a beam search over
//! the graph built so far (restarted from a few random entry points) and
//! links bidirectionally to the `m` nearest objects found. Insertion order
//! dependence makes the build inherently sequential — the paper highlights
//! exactly this as NSW's scalability weakness (Table 3's NA rows).

use crate::graph::{GraphKind, ProximityGraph};
use crate::visit::VisitMarks;
use dod_metrics::{Dataset, OrdF64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Parameters for [`build`].
#[derive(Debug, Clone)]
pub struct NswParams {
    /// Links created per inserted object. The paper sizes NSW "so that its
    /// memory is almost the same as that of KGraph", i.e. `m = K`.
    pub m: usize,
    /// Beam width of the insertion-time search (candidate pool size).
    pub ef: usize,
    /// Independent search restarts per insertion.
    pub restarts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl NswParams {
    /// Memory-matched to a KGraph of degree `k` (see paper §6): each
    /// insertion adds `k/2` undirected links, i.e. ~`k` adjacency entries
    /// per object, and runs the original algorithm's multi-restart greedy
    /// search (`w` restarts) to find them.
    pub fn matching_kgraph(k: usize) -> Self {
        NswParams {
            m: (k / 2).max(3),
            ef: k.max(8),
            restarts: 16,
            seed: 0,
        }
    }
}

/// Beam search over `adj`: the one search behind NSW insertion, HNSW's
/// layer search and the stream graph backend.
///
/// `first_visit(v)` marks `v` visited and answers whether it was unmarked.
/// `dist(v)` is `v`'s distance to the query, or `None` for a vertex that
/// holds no object (a recycled stream slot); such a vertex is skipped.
/// Every start enters the result, even past `ef`. The search then expands
/// the nearest unexpanded vertex, keeping the best `ef` vertices seen,
/// and stops once it holds `ef` results and that vertex lies farther than
/// the worst of them (`ef = 0` acts as 1).
///
/// Returns the kept `(dist, id)` pairs ascending by `(dist, id)`, and the
/// number of vertices taken for expansion, the stopping one included.
pub fn beam_search(
    adj: &[Vec<u32>],
    starts: &[u32],
    ef: usize,
    mut first_visit: impl FnMut(u32) -> bool,
    mut dist: impl FnMut(u32) -> Option<f64>,
) -> (Vec<(f64, u32)>, u64) {
    // `candidates`: min-heap of vertices to expand; `found`: max-heap of
    // the kept results (top = worst kept).
    let mut candidates: BinaryHeap<(Reverse<OrdF64>, u32)> = BinaryHeap::new();
    let mut found: BinaryHeap<(OrdF64, u32)> = BinaryHeap::with_capacity(ef + 1);
    for &s in starts {
        if !first_visit(s) {
            continue;
        }
        let Some(d) = dist(s) else { continue };
        candidates.push((Reverse(OrdF64(d)), s));
        found.push((OrdF64(d), s));
    }
    let mut expanded = 0u64;
    while let Some((Reverse(OrdF64(d)), v)) = candidates.pop() {
        expanded += 1;
        if found.len() >= ef && d > found.peek().expect("non-empty").0 .0 {
            break;
        }
        for &w in &adj[v as usize] {
            if !first_visit(w) {
                continue;
            }
            let Some(dw) = dist(w) else { continue };
            if found.len() < ef || dw < found.peek().expect("non-empty").0 .0 {
                candidates.push((Reverse(OrdF64(dw)), w));
                found.push((OrdF64(dw), w));
                if found.len() > ef {
                    found.pop();
                }
            }
        }
    }
    let mut out: Vec<(f64, u32)> = found.into_iter().map(|(OrdF64(d), v)| (d, v)).collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    (out, expanded)
}

/// Builds an NSW graph over all objects of `data`.
pub fn build<D: Dataset + ?Sized>(data: &D, params: &NswParams) -> ProximityGraph {
    let n = data.len();
    let mut g = ProximityGraph::new(n, GraphKind::Nsw);
    if n == 0 {
        return g;
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut marks = VisitMarks::new(n);
    let ef = params.ef.max(params.m);
    let mut found: Vec<(f64, u32)> = Vec::new();
    for i in 1..n {
        // The original algorithm runs `w` independent searches from random
        // entry points and merges their result sets; independence is what
        // lets it escape local minima of a partially-built graph (and is
        // the cost that makes NSW construction the slowest of the compared
        // graphs, paper Table 3).
        found.clear();
        for _ in 0..params.restarts.max(1) {
            let start = rng.gen_range(0..i) as u32;
            marks.begin();
            let (beam, _) = beam_search(
                &g.adj,
                &[start],
                ef,
                |v| marks.mark(v),
                |v| Some(data.dist(i, v as usize)),
            );
            found.extend(beam);
        }
        found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        found.dedup_by_key(|e| e.1);
        for &(_, v) in found.iter().take(params.m) {
            g.add_undirected(i as u32, v);
        }
    }
    g
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

    /// Runs [`beam_search`] over a hand-built graph with given vertex
    /// distances (`None` = no object), returning the result, the expansion
    /// count and the visit order.
    fn search(
        adj: &[Vec<u32>],
        dists: &[Option<f64>],
        starts: &[u32],
        ef: usize,
    ) -> (Vec<(f64, u32)>, u64, Vec<u32>) {
        let mut visited = Vec::new();
        let (found, expanded) = beam_search(
            adj,
            starts,
            ef,
            |v| {
                let first = !visited.contains(&v);
                if first {
                    visited.push(v);
                }
                first
            },
            |v| dists[v as usize],
        );
        (found, expanded, visited)
    }

    #[test]
    fn beam_keeps_every_start_even_past_ef() {
        // A triangle of starts: nothing new is discovered, and all three
        // stay in the result although ef is 1.
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let dists = [Some(3.0), Some(1.0), Some(2.0)];
        let (found, expanded, _) = search(&adj, &dists, &[0, 1, 2], 1);
        assert_eq!(found, vec![(1.0, 1), (2.0, 2), (3.0, 0)]);
        assert_eq!(expanded, 3);
    }

    #[test]
    fn beam_skips_vertices_without_an_object() {
        // 0 - 1 - 2 and 0 - 3, where slot 1 holds no object: it is never
        // returned, and never expanded, so 2 behind it stays unvisited.
        let adj = vec![vec![1, 3], vec![0, 2], vec![1], vec![0]];
        let dists = [Some(0.0), None, Some(0.1), Some(1.0)];
        let (found, expanded, visited) = search(&adj, &dists, &[0], 4);
        assert_eq!(found, vec![(0.0, 0), (1.0, 3)]);
        assert_eq!(expanded, 2);
        assert!(!visited.contains(&2), "expanded through an empty slot");
    }

    #[test]
    fn beam_results_ascend_by_distance_then_id() {
        let adj = vec![vec![4, 3, 2, 1], vec![0], vec![0], vec![0], vec![0]];
        let dists = [Some(5.0), Some(2.0), Some(1.0), Some(1.0), Some(2.0)];
        let (found, _, _) = search(&adj, &dists, &[0], 10);
        assert_eq!(
            found,
            vec![(1.0, 2), (1.0, 3), (2.0, 1), (2.0, 4), (5.0, 0)]
        );
    }

    #[test]
    fn beam_counts_the_stopping_pop_as_an_expansion() {
        // From 0, ef 1: 2 (at 3) then 1 (at 1) are discovered. 1 is
        // expanded; popping 2, now worse than the kept 1, stops the search
        // before 2's neighbor 3 is seen. That pop is the third expansion.
        let adj = vec![vec![2, 1], vec![0], vec![0, 3], vec![2]];
        let dists = [Some(5.0), Some(1.0), Some(3.0), Some(0.5)];
        let (found, expanded, visited) = search(&adj, &dists, &[0], 1);
        assert_eq!(found, vec![(1.0, 1)]);
        assert_eq!(expanded, 3);
        assert!(!visited.contains(&3));
    }

    #[test]
    fn build_produces_connected_undirected_graph() {
        let data = random_points(300, 3, 1);
        let g = build(&data, &NswParams::matching_kgraph(8));
        g.assert_invariants();
        // Incremental insertion always links into the existing component.
        assert_eq!(g.connected_components(), 1);
        // Undirected by construction.
        for u in 0..300u32 {
            for &v in &g.adj[u as usize] {
                assert!(g.has_link(v, u), "asymmetric link {u} <-> {v}");
            }
        }
    }

    #[test]
    fn links_point_to_nearby_objects() {
        let data = random_points(400, 2, 3);
        let g = build(&data, &NswParams::matching_kgraph(6));
        // Mean link distance must beat the mean pairwise distance by a lot.
        let mut link_sum = 0.0;
        let mut link_cnt = 0usize;
        for u in 0..400 {
            for &v in &g.adj[u] {
                link_sum += data.dist(u, v as usize);
                link_cnt += 1;
            }
        }
        let mut all_sum = 0.0;
        let mut all_cnt = 0usize;
        for u in (0..400).step_by(7) {
            for v in (1..400).step_by(11) {
                if u != v {
                    all_sum += data.dist(u, v);
                    all_cnt += 1;
                }
            }
        }
        let link_mean = link_sum / link_cnt as f64;
        let all_mean = all_sum / all_cnt as f64;
        assert!(
            link_mean < all_mean * 0.5,
            "links not local: {link_mean} vs {all_mean}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = random_points(150, 2, 5);
        let p = NswParams::matching_kgraph(5);
        let a = build(&data, &p);
        let b = build(&data, &p);
        assert_eq!(a.adj, b.adj);
    }

    #[test]
    fn degree_is_bounded_by_insertion_math() {
        let data = random_points(200, 2, 7);
        let g = build(&data, &NswParams::matching_kgraph(4));
        let (_, mean, _) = g.degree_stats();
        // Each insertion adds at most m undirected edges: mean degree <= 2m.
        assert!(mean <= 8.0 + 1e-9, "mean degree {mean}");
    }

    #[test]
    fn tiny_inputs() {
        let data = random_points(1, 2, 0);
        let g = build(&data, &NswParams::matching_kgraph(4));
        assert_eq!(g.node_count(), 1);
        let data = random_points(2, 2, 0);
        let g = build(&data, &NswParams::matching_kgraph(4));
        assert!(g.has_link(0, 1) && g.has_link(1, 0));
    }
}
