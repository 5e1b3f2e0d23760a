//! VP-tree (vantage-point tree) metric index.
//!
//! The paper uses the VP-tree [Yianilos, SODA'93] in three roles:
//!
//! 1. as the strongest tree baseline for the DOD problem (per \[13\], the
//!    most efficient metric range-search index),
//! 2. as the `Exact-Counting` engine of Algorithm 1's verification phase on
//!    data with low intrinsic dimensionality,
//! 3. (a ball-partitioning variant, in `dod-graph`) to initialize
//!    NNDescent+.
//!
//! This implementation builds by recursive *median* splits on the distance
//! to a randomly chosen vantage point, which keeps the tree balanced even
//! with duplicated objects (ties are split positionally). Each internal
//! node stores the exact `[min, max]` distance interval of both children to
//! the vantage point, giving strictly tighter pruning than the single
//! `mu` radius described in §3 of the paper.
//!
//! The one query, [`VpTree::range_count`], takes an *object id* (queries
//! in the DOD problem are themselves members of the dataset) and excludes
//! the query id from the count, matching Definition 1 (a neighbor of `p`
//! is drawn from `P \ {p}`).

use dod_metrics::{Dataset, Rounding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NONE: u32 = u32::MAX;

/// The ring `[d - r, d + r]` of distances to a vantage point at which
/// objects within `r` of a query at distance `d` can lie, widened by the
/// metric's [`Rounding::triangle_slack`] so rounding never prunes a child
/// that holds one.
fn search_ring(d: f64, r: f64, rounding: Rounding) -> (f64, f64) {
    let slack = rounding.triangle_slack(d + r);
    (d - r - slack, d + r + slack)
}

/// Number of objects at which recursion stops and a leaf is emitted.
/// Scanning a few objects linearly beats further indirection (perf-book:
/// handle small sizes specially).
const LEAF_CAP: usize = 16;

#[derive(Debug, Clone)]
struct Node {
    /// Vantage point object id (internal nodes) or `NONE` for leaves.
    vp: u32,
    /// Children (internal) or `NONE`.
    left: u32,
    right: u32,
    /// Exact distance interval of the left child's objects to `vp`.
    left_lo: f64,
    left_hi: f64,
    /// Exact distance interval of the right child's objects to `vp`.
    right_lo: f64,
    right_hi: f64,
    /// Leaf payload: range into `leaf_ids` (leaves only).
    leaf_start: u32,
    leaf_len: u32,
}

impl Node {
    fn leaf(start: u32, len: u32) -> Self {
        Node {
            vp: NONE,
            left: NONE,
            right: NONE,
            left_lo: 0.0,
            left_hi: 0.0,
            right_lo: 0.0,
            right_hi: 0.0,
            leaf_start: start,
            leaf_len: len,
        }
    }

    fn is_leaf(&self) -> bool {
        self.vp == NONE
    }
}

/// A VP-tree over all objects of a dataset.
pub struct VpTree {
    nodes: Vec<Node>,
    leaf_ids: Vec<u32>,
    root: u32,
    n: usize,
}

impl VpTree {
    /// Builds the tree over every object of `data`. Vantage points are
    /// chosen with the seeded RNG, so builds are deterministic per seed.
    ///
    /// Runs in `O(n log n)` expected time (median selection per level).
    pub fn build<D: Dataset + ?Sized>(data: &D, seed: u64) -> Self {
        let n = data.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut tree = VpTree {
            nodes: Vec::with_capacity(n / LEAF_CAP * 2 + 1),
            leaf_ids: Vec::with_capacity(n),
            root: NONE,
            n,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch: Vec<(f64, u32)> = Vec::with_capacity(n);
        tree.root = tree.build_rec(data, &mut ids[..], &mut rng, &mut scratch);
        tree
    }

    fn build_rec<D: Dataset + ?Sized>(
        &mut self,
        data: &D,
        ids: &mut [u32],
        rng: &mut StdRng,
        scratch: &mut Vec<(f64, u32)>,
    ) -> u32 {
        if ids.is_empty() {
            return NONE;
        }
        if ids.len() <= LEAF_CAP {
            let start = self.leaf_ids.len() as u32;
            self.leaf_ids.extend_from_slice(ids);
            self.nodes.push(Node::leaf(start, ids.len() as u32));
            return (self.nodes.len() - 1) as u32;
        }
        // Random vantage point, removed from the id set.
        let pick = rng.gen_range(0..ids.len());
        ids.swap(0, pick);
        let vp = ids[0];
        scratch.clear();
        scratch.extend(
            ids[1..]
                .iter()
                .map(|&id| (data.dist(vp as usize, id as usize), id)),
        );
        // Positional median split: balanced regardless of ties.
        let mid = scratch.len() / 2;
        scratch.select_nth_unstable_by(mid, |a, b| a.0.total_cmp(&b.0));
        let (left_half, right_half) = scratch.split_at(mid);
        let bounds = |part: &[(f64, u32)]| -> (f64, f64) {
            part.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |acc, &(d, _)| {
                    (acc.0.min(d), acc.1.max(d))
                })
        };
        let (left_lo, left_hi) = bounds(left_half);
        let (right_lo, right_hi) = bounds(right_half);
        // Copy the partitioned ids out before recursing (scratch is reused).
        let mut left_ids: Vec<u32> = left_half.iter().map(|&(_, id)| id).collect();
        let mut right_ids: Vec<u32> = right_half.iter().map(|&(_, id)| id).collect();

        let node_idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            vp,
            left: NONE,
            right: NONE,
            left_lo,
            left_hi,
            right_lo,
            right_hi,
            leaf_start: 0,
            leaf_len: 0,
        });
        let left = self.build_rec(data, &mut left_ids[..], rng, scratch);
        let right = self.build_rec(data, &mut right_ids[..], rng, scratch);
        self.nodes[node_idx as usize].left = left;
        self.nodes[node_idx as usize].right = right;
        node_idx
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap footprint of the index in bytes (paper Table 6 reports index
    /// sizes; object storage is accounted separately by the dataset).
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.leaf_ids.len() * std::mem::size_of::<u32>()
    }

    /// Counts objects within distance `r` of object `query` (excluding
    /// `query` itself), stopping early once the count reaches `limit`.
    ///
    /// With `limit = k` this is exactly the paper's `Exact-Counting`
    /// primitive: the return value is `min(true_count, limit)`.
    pub fn range_count<D: Dataset + ?Sized>(
        &self,
        data: &D,
        query: usize,
        r: f64,
        limit: usize,
    ) -> usize {
        if limit == 0 || self.root == NONE {
            return 0;
        }
        let mut count = 0;
        let rounding = data.rounding();
        // Explicit stack; depth is O(log n) but recursion would thread the
        // early-exit flag awkwardly.
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            if node.is_leaf() {
                let ids = &self.leaf_ids
                    [node.leaf_start as usize..(node.leaf_start + node.leaf_len) as usize];
                for &id in ids {
                    if id as usize != query && data.dist(query, id as usize) <= r {
                        count += 1;
                        if count >= limit {
                            return count;
                        }
                    }
                }
                continue;
            }
            let d = data.dist(query, node.vp as usize);
            if d <= r && node.vp as usize != query {
                count += 1;
                if count >= limit {
                    return count;
                }
            }
            // A child can contain a neighbor only if its distance interval
            // to the vantage point intersects [d - r, d + r] (triangle
            // inequality both ways, widened for rounding).
            let (lo, hi) = search_ring(d, r, rounding);
            if node.left != NONE && lo <= node.left_hi && hi >= node.left_lo {
                stack.push(node.left);
            }
            if node.right != NONE && lo <= node.right_hi && hi >= node.right_lo {
                stack.push(node.right);
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_metrics::{VectorSet, L2};
    use rand::Rng;

    fn grid(n: usize) -> VectorSet<L2> {
        // n points on a 1-d line at integer coordinates.
        VectorSet::from_rows(&(0..n).map(|i| vec![i as f32]).collect::<Vec<_>>(), L2)
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    fn brute_count(data: &impl Dataset, q: usize, r: f64) -> usize {
        (0..data.len())
            .filter(|&j| j != q && data.dist(q, j) <= r)
            .count()
    }

    #[test]
    fn range_count_matches_brute_force_on_grid() {
        let data = grid(200);
        let tree = VpTree::build(&data, 0);
        for q in [0, 13, 99, 199] {
            for r in [0.5, 1.0, 3.5, 10.0] {
                assert_eq!(
                    tree.range_count(&data, q, r, usize::MAX),
                    brute_count(&data, q, r),
                    "q={q} r={r}"
                );
            }
        }
    }

    #[test]
    fn range_count_matches_brute_force_random() {
        let data = random_points(300, 4, 7);
        let tree = VpTree::build(&data, 1);
        for q in 0..30 {
            for r in [0.1, 0.4, 0.9] {
                assert_eq!(
                    tree.range_count(&data, q, r, usize::MAX),
                    brute_count(&data, q, r),
                    "q={q} r={r}"
                );
            }
        }
    }

    #[test]
    fn early_termination_caps_count() {
        let data = grid(100);
        let tree = VpTree::build(&data, 0);
        assert_eq!(tree.range_count(&data, 50, 30.0, 5), 5);
        assert_eq!(tree.range_count(&data, 50, 30.0, 0), 0);
    }

    #[test]
    fn query_is_never_its_own_neighbor() {
        let data = grid(10);
        let tree = VpTree::build(&data, 0);
        assert_eq!(tree.range_count(&data, 5, 100.0, usize::MAX), 9);
    }

    #[test]
    fn handles_duplicate_objects() {
        // 100 identical points: any ball of radius 0 holds all others.
        let data = VectorSet::from_rows(&vec![vec![1.0, 1.0]; 100], L2);
        let tree = VpTree::build(&data, 0);
        assert_eq!(tree.range_count(&data, 0, 0.0, usize::MAX), 99);
    }

    #[test]
    fn empty_and_singleton_datasets() {
        let empty = VectorSet::from_rows(&[], L2);
        let tree = VpTree::build(&empty, 0);
        assert!(tree.is_empty());
        assert_eq!(tree.range_count(&empty, 0, 10.0, usize::MAX), 0);

        let one = grid(1);
        let tree = VpTree::build(&one, 0);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.range_count(&one, 0, 10.0, usize::MAX), 0);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let data = random_points(100, 2, 3);
        let a = VpTree::build(&data, 42);
        let b = VpTree::build(&data, 42);
        assert_eq!(a.size_bytes(), b.size_bytes());
        for q in 0..10 {
            assert_eq!(
                a.range_count(&data, q, 0.5, usize::MAX),
                b.range_count(&data, q, 0.5, usize::MAX)
            );
        }
    }

    #[test]
    fn size_bytes_is_linear_ish() {
        let small = VpTree::build(&grid(100), 0);
        let large = VpTree::build(&grid(1000), 0);
        let ratio = large.size_bytes() as f64 / small.size_bytes() as f64;
        assert!(ratio > 5.0 && ratio < 20.0, "ratio = {ratio}");
    }

    #[test]
    fn works_with_strings_too() {
        let data = dod_metrics::StringSet::new(["cat", "cut", "dog", "caterpillar"]);
        let tree = VpTree::build(&data, 0);
        // Within edit distance 1 of "cat": only "cut".
        assert_eq!(tree.range_count(&data, 0, 1.0, usize::MAX), 1);
    }
}
