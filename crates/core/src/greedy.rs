//! Greedy-Counting (paper Algorithm 2): graph-bounded range counting with
//! early termination.
//!
//! From object `p`, BFS the proximity graph expanding only vertices within
//! distance `r` of `p` — plus pivots beyond `r` when the graph asks for it
//! (lines 13–14; MRPG needs this because `Remove-Links` re-routes
//! non-pivot/non-pivot connectivity through pivots). Each vertex is decided
//! at most once, and the walk stops the moment `k` neighbors are confirmed,
//! so inliers in dense regions cost `O(k)` work regardless of `n` or
//! dimensionality.
//!
//! **Deciding from edge lengths.** Algorithm 2 evaluates `d(p, w)` for
//! every vertex it meets, yet most of those verdicts follow from distances
//! already known. [`greedy_walk`] queues each vertex `v` with bounds
//! `[lo, hi]` on the computed `d(p, v)`: `[0, 0]` for `p` itself, the value
//! once evaluated. Given the stored length of edge `(v, w)`
//! ([`EdgeLengths`]), it derives bounds on `d(p, w)` from
//! `|d(p,v) − d(v,w)| ≤ d(p,w) ≤ d(p,v) + d(v,w)` and evaluates `d(p, w)`
//! only when they straddle `r`:
//!
//! - a length is the computed `d(v, w)` rounded to `f32`, so the walk
//!   widens it to its two `f32` neighbours, between which the computed
//!   distance lies;
//! - the triangle step is [`Rounding::triangle`] under the dataset's own
//!   error model ([`Dataset::rounding`]), which widens every step by the
//!   rounding of the three distances it combines, so bounds derived from
//!   derived bounds stay sound;
//! - `w` is counted unevaluated only when its upper bound is `<= r`, and
//!   rejected unevaluated only when its lower bound is `> r`.
//!
//! The bounds hold the *computed* `d(p, w)`, the value the nested loop
//! compares against `r`, so every verdict is the one an evaluation would
//! give. The walk therefore reaches the same vertices in the same order,
//! with the same hops, whether or not it has lengths; only the number of
//! evaluations falls. Without lengths every bound is `[0, ∞)` and each
//! vertex met is evaluated, exactly as Algorithm 2 does.
//!
//! The returned count never exceeds the true neighbor count (Lemma 1):
//! outliers can never be filtered, which is what makes Algorithm 1 exact.
//!
//! [`Rounding::triangle`]: dod_metrics::Rounding::triangle

use dod_graph::parallel::par_map;
use dod_graph::{ProximityGraph, VisitMarks};
use dod_metrics::{Dataset, DistBounds};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Reusable traversal state: visit marks, the BFS queue and the reached
/// ids. One buffer per worker thread avoids a fresh allocation per object
/// (the filtering phase runs `n` traversals).
pub struct TraversalBuffer {
    visited: VisitMarks,
    /// Vertices to expand, each with bounds on its distance to the
    /// walk's origin.
    queue: VecDeque<(u32, DistBounds)>,
    /// Neighbors reached by the current walk, in the order reached.
    reached: Vec<u32>,
    /// Distance evaluations since the last [`take_cost`](Self::take_cost)
    /// — accumulated across traversals, *not* reset by [`begin`](Self::begin),
    /// so one drain per query phase captures every walk of that phase.
    dist_evals: u64,
    /// Vertices expanded (queue pops) since the last `take_cost`.
    hops: u64,
}

impl TraversalBuffer {
    /// A buffer for graphs of `n` vertices.
    pub fn new(n: usize) -> Self {
        TraversalBuffer {
            visited: VisitMarks::new(n),
            queue: VecDeque::new(),
            reached: Vec::new(),
            dist_evals: 0,
            hops: 0,
        }
    }

    /// Drains the `(dist_evals, hops)` tally of the [`greedy_walk`]s run
    /// on this buffer, resetting both to zero. Other walks that borrow the
    /// buffer's visited marks (the stream graph backend's beam search)
    /// keep their own tallies.
    pub fn take_cost(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.dist_evals),
            std::mem::take(&mut self.hops),
        )
    }

    /// Starts a new traversal: all vertices become unvisited in O(1).
    ///
    /// Public so other walk implementations (e.g. the streaming crate's
    /// insertion-time beam search) can reuse the buffer's
    /// [`VisitMarks`].
    pub fn begin(&mut self) {
        self.visited.begin();
        self.queue.clear();
        self.reached.clear();
    }

    /// Marks `v` visited; `true` iff it was unvisited this traversal.
    #[inline]
    pub fn mark(&mut self, v: u32) -> bool {
        self.visited.mark(v)
    }
}

/// A shared pool of [`TraversalBuffer`]s so repeated queries on one engine
/// stop re-allocating the `O(n)` visited array per call.
///
/// All pooled buffers are sized for the same graph (an engine's vertex
/// count never changes), so `take` can hand out any of them. `Sync` by
/// construction: workers take a buffer before spawning and return it after
/// joining, so the mutex is only touched outside the hot loop.
pub(crate) struct BufferPool {
    bufs: Mutex<Vec<TraversalBuffer>>,
}

impl BufferPool {
    /// An empty pool; buffers are created on first use.
    pub(crate) fn new() -> Self {
        BufferPool {
            bufs: Mutex::new(Vec::new()),
        }
    }

    /// A buffer for graphs of `n` vertices — pooled if available, fresh
    /// otherwise.
    pub(crate) fn take(&self, n: usize) -> TraversalBuffer {
        let pooled = self.lock().pop();
        match pooled {
            Some(buf) if buf.visited.len() == n => buf,
            _ => TraversalBuffer::new(n),
        }
    }

    /// Returns a buffer to the pool for the next query.
    pub(crate) fn put(&self, buf: TraversalBuffer) {
        self.lock().push(buf);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraversalBuffer>> {
        // A poisoned pool only means a worker panicked mid-query; the
        // buffers themselves are always reusable.
        self.bufs.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The length of every edge of one graph, in `f32` lists aligned with its
/// adjacency: `of(v)[i]` is the computed `d(v, g.adj[v][i])` rounded to
/// `f32`.
///
/// Lengths are only ever [`measure`](Self::measure)d from the dataset the
/// walk runs over, never read from a file or taken from a caller, so
/// [`greedy_walk`] trusts no distance it did not compute itself.
///
/// An undirected edge is one evaluation: the entry `(v, w)` with `w < v`
/// holds the `d(w, v)` its reverse entry measured. The built-in kernels
/// give `d(a, b) == d(b, a)` bit for bit (README "Exactness contract"),
/// so for them the copy is the value `d(v, w)` would have given. For any
/// other [`Dataset`], the computed `d(w, v)` still lies within the
/// metric's rounding model of the true `d(v, w)`, and that is all
/// [`Rounding::triangle`](dod_metrics::Rounding::triangle) assumes of a
/// length.
pub struct EdgeLengths {
    lists: Vec<Vec<f32>>,
}

impl EdgeLengths {
    /// Measures the edges of `g` over `data` on `threads` workers: one
    /// distance evaluation per undirected edge, and one per entry whose
    /// reverse entry is missing.
    pub fn measure<D: Dataset + ?Sized>(g: &ProximityGraph, data: &D, threads: usize) -> Self {
        // Pass 1: an entry (v, w) with w < v whose reverse entry exists
        // notes that entry's index (`Err`); every other entry is
        // evaluated (`Ok`).
        let measured: Vec<Vec<Result<f32, u32>>> = par_map(g.adj.len(), threads, |v| {
            g.adj[v]
                .iter()
                .map(|&w| {
                    let w = w as usize;
                    let reverse = if w < v {
                        g.adj[w].iter().position(|&x| x as usize == v)
                    } else {
                        None
                    };
                    match reverse {
                        Some(j) => Err(j as u32),
                        None => Ok(data.dist(v, w) as f32),
                    }
                })
                .collect()
        });
        // Pass 2: copy each noted length from the entry that measured it.
        let lists = par_map(g.adj.len(), threads, |v| {
            measured[v]
                .iter()
                .zip(&g.adj[v])
                .map(|(&len, &w)| {
                    len.unwrap_or_else(|j| {
                        measured[w as usize][j as usize]
                            .expect("an entry toward a higher id is evaluated")
                    })
                })
                .collect()
        });
        EdgeLengths { lists }
    }

    /// The lengths of `v`'s edges, aligned with `g.adj[v]`.
    fn of(&self, v: usize) -> &[f32] {
        &self.lists[v]
    }

    /// Heap footprint in bytes, counted the way
    /// [`ProximityGraph::size_bytes`] counts adjacency lists.
    pub(crate) fn size_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|l| l.len() * std::mem::size_of::<f32>() + std::mem::size_of::<Vec<f32>>())
            .sum()
    }
}

/// Bounds on the computed distance a stored length was rounded from:
/// rounding to nearest leaves it between the length's `f32` neighbours.
#[inline]
fn stored(len: f32) -> DistBounds {
    DistBounds {
        lo: f64::from(len.next_down()),
        hi: f64::from(len.next_up()),
    }
}

/// Greedy-Counting from `p`: walks `g` from `p` through the vertices
/// within `r` of it (and through pivots, when `g` expands them) and
/// returns the neighbors reached, in the order reached, stopping once
/// `limit` are reached.
///
/// With `lengths` (measured from `g` over `data`), each vertex's verdict
/// is derived from bounds where they decide it and evaluated otherwise;
/// without, every vertex met is evaluated. Both return the same ids in the
/// same order with the same hops (see the [module docs](self)). Cost is
/// tallied on `buf` (see [`TraversalBuffer::take_cost`]).
///
/// Lemma 1: every reached id is a true neighbor, so `len() >= k` with
/// `limit = k` proves `p` is an inlier while `< k` only makes it a
/// *candidate* outlier.
pub fn greedy_walk<'b, D: Dataset + ?Sized>(
    g: &ProximityGraph,
    lengths: Option<&EdgeLengths>,
    data: &D,
    p: usize,
    r: f64,
    limit: usize,
    buf: &'b mut TraversalBuffer,
) -> &'b [u32] {
    buf.begin();
    if limit == 0 {
        return &buf.reached;
    }
    let rounding = data.rounding();
    buf.mark(p as u32);
    buf.queue.push_back((p as u32, DistBounds::exact(0.0)));
    while let Some((v, to_v)) = buf.queue.pop_front() {
        buf.hops += 1;
        let v = v as usize;
        let lens = lengths.map(|l| l.of(v));
        for (i, &w) in g.adj[v].iter().enumerate() {
            if !buf.mark(w) {
                continue;
            }
            let mut to_w = match lens {
                Some(lens) => rounding.triangle(to_v, stored(lens[i])),
                None => DistBounds::UNKNOWN,
            };
            let within = match to_w.within(r) {
                Some(within) => within,
                None => {
                    buf.dist_evals += 1;
                    let d = data.dist(p, w as usize);
                    to_w = DistBounds::exact(d);
                    d <= r
                }
            };
            if within {
                buf.reached.push(w);
                if buf.reached.len() == limit {
                    return &buf.reached;
                }
                buf.queue.push_back((w, to_w));
            } else if g.expand_pivots && g.pivot[w as usize] {
                // Line 13: pivots bridge regions even when they themselves
                // lie outside the query ball.
                buf.queue.push_back((w, to_w));
            }
        }
    }
    &buf.reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_graph::GraphKind;
    use dod_metrics::{VectorSet, L2};

    /// A path graph over integer points 0..n on a line.
    fn line_graph(n: usize) -> (VectorSet<L2>, ProximityGraph) {
        let data = VectorSet::from_rows(&(0..n).map(|i| vec![i as f32]).collect::<Vec<_>>(), L2);
        let mut g = ProximityGraph::new(n, GraphKind::KGraph);
        for i in 0..n as u32 - 1 {
            g.add_undirected(i, i + 1);
        }
        (data, g)
    }

    /// Walks without and then with measured edge lengths, checks that both
    /// reach the same ids in the same order, and returns them.
    fn walk(
        g: &ProximityGraph,
        data: &VectorSet<L2>,
        p: usize,
        r: f64,
        limit: usize,
        buf: &mut TraversalBuffer,
    ) -> Vec<u32> {
        let lengths = EdgeLengths::measure(g, data, 1);
        let plain = greedy_walk(g, None, data, p, r, limit, buf).to_vec();
        let bounded = greedy_walk(g, Some(&lengths), data, p, r, limit, buf);
        assert_eq!(plain, bounded, "p={p} r={r} limit={limit}");
        plain
    }

    #[test]
    fn counts_reachable_neighbors() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        // From point 10 with r = 3: neighbors are 7..13 minus itself = 6.
        assert_eq!(walk(&g, &data, 10, 3.0, 100, &mut buf).len(), 6);
    }

    #[test]
    fn early_termination_at_k() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        assert_eq!(walk(&g, &data, 10, 3.0, 4, &mut buf).len(), 4);
    }

    #[test]
    fn k_zero_returns_zero() {
        let (data, g) = line_graph(5);
        let mut buf = TraversalBuffer::new(5);
        assert!(walk(&g, &data, 2, 10.0, 0, &mut buf).is_empty());
        assert_eq!(buf.take_cost(), (0, 0), "a zero limit walks nowhere");
    }

    #[test]
    fn never_overcounts_lemma1() {
        let (data, g) = line_graph(30);
        let mut buf = TraversalBuffer::new(30);
        for p in 0..30 {
            for r in [0.5, 1.0, 2.5, 7.0] {
                let truth = (0..30).filter(|&j| j != p && data.dist(p, j) <= r).count();
                let got = walk(&g, &data, p, r, usize::MAX, &mut buf).len();
                assert!(got <= truth, "p={p} r={r}: {got} > {truth}");
            }
        }
    }

    #[test]
    fn detour_blocks_reachability_without_pivot_rule() {
        // 0 at origin; 2 within r of 0 but only reachable through 1, which
        // is beyond r. Without pivot expansion the walk misses 2.
        let data = VectorSet::from_rows(&[vec![0.0], vec![10.0], vec![1.0]], L2);
        let mut g = ProximityGraph::new(3, GraphKind::KGraph);
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        let mut buf = TraversalBuffer::new(3);
        assert!(walk(&g, &data, 0, 2.0, 10, &mut buf).is_empty());
    }

    #[test]
    fn pivot_rule_bridges_far_relays() {
        // Same topology, but vertex 1 is a pivot and the graph expands
        // pivots: vertex 2 becomes countable.
        let data = VectorSet::from_rows(&[vec![0.0], vec![10.0], vec![1.0]], L2);
        let mut g = ProximityGraph::new(3, GraphKind::Mrpg);
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        g.pivot[1] = true;
        let mut buf = TraversalBuffer::new(3);
        assert_eq!(walk(&g, &data, 0, 2.0, 10, &mut buf).len(), 1);
    }

    #[test]
    fn isolated_vertex_counts_nothing() {
        let data = VectorSet::from_rows(&[vec![0.0], vec![0.1]], L2);
        let g = ProximityGraph::new(2, GraphKind::KGraph);
        let mut buf = TraversalBuffer::new(2);
        assert!(walk(&g, &data, 0, 1.0, 5, &mut buf).is_empty());
    }

    #[test]
    fn buffer_reuse_is_clean_across_queries() {
        let (data, g) = line_graph(15);
        let mut buf = TraversalBuffer::new(15);
        let a = walk(&g, &data, 3, 2.0, 100, &mut buf);
        // Re-run the same query with the same buffer: same answer.
        let b = walk(&g, &data, 3, 2.0, 100, &mut buf);
        assert_eq!(a, b);
        // And an unrelated query is unaffected by stale marks.
        assert_eq!(walk(&g, &data, 12, 2.0, 100, &mut buf).len(), 4);
    }

    #[test]
    fn collect_returns_exactly_the_reached_ids() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        // Breadth first: both sides of 10 at each distance in turn.
        assert_eq!(
            walk(&g, &data, 10, 3.0, usize::MAX, &mut buf),
            vec![9, 11, 8, 12, 7, 13]
        );
    }

    #[test]
    fn collect_respects_the_limit() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        assert_eq!(walk(&g, &data, 10, 3.0, 2, &mut buf).len(), 2);
        assert!(
            walk(&g, &data, 10, 3.0, 0, &mut buf).is_empty(),
            "limit 0 must clear and collect nothing"
        );
    }

    #[test]
    fn collect_agrees_with_count() {
        // An early-terminated walk reaches a prefix of the full flood.
        let (data, g) = line_graph(30);
        let mut buf = TraversalBuffer::new(30);
        for p in (0..30).step_by(5) {
            for r in [0.5, 2.0, 6.5] {
                let flood = walk(&g, &data, p, r, usize::MAX, &mut buf);
                assert!(flood.iter().all(|&w| data.dist(p, w as usize) <= r));
                for k in 0..=flood.len() {
                    assert_eq!(
                        walk(&g, &data, p, r, k, &mut buf),
                        flood[..k],
                        "p={p} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn collect_honors_the_pivot_rule() {
        let data = VectorSet::from_rows(&[vec![0.0], vec![10.0], vec![1.0]], L2);
        let mut g = ProximityGraph::new(3, GraphKind::Mrpg);
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        g.pivot[1] = true;
        let mut buf = TraversalBuffer::new(3);
        assert_eq!(walk(&g, &data, 0, 2.0, usize::MAX, &mut buf), vec![2]);
    }

    #[test]
    fn buffer_pool_reuses_matching_sizes_only() {
        let pool = BufferPool::new();
        let mut b = pool.take(10);
        b.begin();
        assert!(b.mark(3));
        pool.put(b);
        let b2 = pool.take(10);
        assert_eq!(b2.visited.len(), 10, "same-size buffer must be reused");
        pool.put(b2);
        let b3 = pool.take(5);
        assert_eq!(b3.visited.len(), 5, "mismatched size must not be reused");
    }

    #[test]
    fn cost_tally_counts_dists_and_hops_across_walks() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        assert_eq!(buf.take_cost(), (0, 0));
        greedy_walk(&g, None, &data, 10, 3.0, 100, &mut buf);
        let (d1, h1) = buf.take_cost();
        // From 10 with r=3 the walk evaluates each ball vertex (7..13)
        // plus the two boundary rejections (6 and 14), and expands every
        // in-ball vertex.
        assert_eq!(d1, 8);
        assert_eq!(h1, 7);
        // The tally accumulates across walks and drains to zero.
        greedy_walk(&g, None, &data, 10, 3.0, 100, &mut buf);
        greedy_walk(&g, None, &data, 10, 3.0, 100, &mut buf);
        assert_eq!(buf.take_cost(), (2 * d1, 2 * h1));
        assert_eq!(buf.take_cost(), (0, 0));
        // Early termination at k does less work than the full flood.
        greedy_walk(&g, None, &data, 10, 3.0, 1, &mut buf);
        let (d_early, _) = buf.take_cost();
        assert!(d_early < d1, "{d_early} >= {d1}");
        // With lengths, 9, 11, 8 and 12 are decided from their bounds; the
        // ties at r (7, 13) and the boundary rejections (6, 14) straddle r
        // once widened, so they are evaluated. Hops are unchanged.
        let lengths = EdgeLengths::measure(&g, &data, 1);
        greedy_walk(&g, Some(&lengths), &data, 10, 3.0, 100, &mut buf);
        assert_eq!(buf.take_cost(), (4, h1));
    }

    #[test]
    fn lengths_are_aligned_with_the_adjacency_and_sized_like_it() {
        let (data, g) = line_graph(6);
        let one = EdgeLengths::measure(&g, &data, 1);
        for v in 0..6 {
            let want: Vec<f32> = g.adj[v]
                .iter()
                .map(|&w| data.dist(v, w as usize) as f32)
                .collect();
            assert_eq!(one.of(v), want);
        }
        assert_eq!(EdgeLengths::measure(&g, &data, 3).lists, one.lists);
        let entries: usize = g.adj.iter().map(Vec::len).sum();
        assert_eq!(
            one.size_bytes(),
            entries * 4 + 6 * std::mem::size_of::<Vec<f32>>()
        );
    }

    #[test]
    fn lengths_evaluate_each_undirected_edge_once() {
        // The line graph is symmetric: 19 edges in 38 entries.
        let (data, mut g) = line_graph(20);
        let counted = dod_metrics::DistanceCounter::new(&data);
        EdgeLengths::measure(&g, &counted, 2);
        assert_eq!(counted.calls(), 19);
        // Two one-sided entries, toward a higher and a lower id: each is
        // evaluated on its own.
        g.adj[0].push(5);
        g.adj[7].push(2);
        counted.reset();
        let lengths = EdgeLengths::measure(&g, &counted, 2);
        assert_eq!(counted.calls(), 21);
        for (v, list) in g.adj.iter().enumerate() {
            let want: Vec<f32> = list
                .iter()
                .map(|&w| data.dist(v, w as usize) as f32)
                .collect();
            assert_eq!(lengths.of(v), want, "vertex {v}");
        }
    }

    #[test]
    fn stored_bounds_hold_the_rounded_distance() {
        let max = f64::from(f32::MAX);
        let tiny = [0.0, 1e-46, 1e-40];
        let huge = [max, max * (1.0 + 1e-8), 1e39];
        for d in tiny
            .into_iter()
            .chain([0.1, 1.0 / 3.0, 3.0, 1e20])
            .chain(huge)
        {
            // Round-to-nearest's worst case, both ways.
            for d in [d, d * (1.0 + 2f64.powi(-24)), d * (1.0 - 2f64.powi(-24))] {
                let b = stored(d as f32);
                assert!(b.lo <= d && d <= b.hi, "{d:e}: {b:?}");
            }
        }
    }
}
