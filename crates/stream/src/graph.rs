//! Graph-assisted neighbor discovery: a lazily-repaired proximity graph
//! over the window.
//!
//! New points are wired in NSW-style (the shared
//! [`dod_graph::nsw::beam_search`] over the partial graph, link to the
//! nearest discoveries), then their in-range neighbors are
//! collected with [`dod_core::greedy_walk`] — the paper's Greedy
//! walk restricted to the query ball, run without edge lengths, so it
//! evaluates every vertex it meets. Expired vertices are *tombstoned*:
//! they keep routing traffic (their point data is retained) but are never
//! reported as neighbors, and once tombstones reach a quarter of the live
//! window the arena is compacted — dead vertices are bridged out and their
//! slots recycled.
//!
//! Discovery through a graph walk is a certified *subset* of the true
//! neighbor set (Lemma 1 of the paper), so every count it maintains is a
//! lower bound; the engine's lazy exact repair restores exactness before
//! any outlier verdict is trusted. Graph quality therefore affects only
//! speed, never correctness.

use crate::index::{IndexHealth, StreamIndex, DEGREE_BUCKETS, DEGREE_BUCKET_BOUNDS};
use crate::seqmap::SeqMap;
use crate::space::Space;
use crate::window::WindowView;
use dod_core::{greedy_walk, DodError, TraversalBuffer};
use dod_graph::nsw::beam_search;
use dod_graph::{GraphKind, ProximityGraph};
use dod_metrics::{Dataset, OrdF64};

/// Tuning knobs for [`GraphIndex`].
#[derive(Debug, Clone)]
pub struct GraphParams {
    /// Links created per inserted point (NSW's `m`).
    pub m: usize,
    /// Beam width of the insertion-time search.
    pub ef: usize,
    /// Cap on neighbors reported per insertion (`0` = automatic:
    /// `max(2k, 16)`). Capping keeps dense-region insertions `O(k)` —
    /// undiscovered neighbors only shift work to the lazy repair.
    pub discover_cap: usize,
    /// Degree at which a vertex's adjacency is pruned back to the nearest
    /// `2·m` entries (bridging and inbound links grow lists over time).
    pub prune_above: usize,
    /// Slides between sampled discovery-recall audits (must be ≥ 1; see
    /// [`GraphParams::validate`]). Each audit re-discovers a few window
    /// residents read-only and compares against a brute-force count, so
    /// [`StreamStats::recall_estimate`](crate::StreamStats::recall_estimate)
    /// tracks graph degradation live. The only place the audit cadence
    /// is set: the exhaustive backend is never audited.
    pub sample_rate: u64,
    /// Residents re-checked per audit (`0` disables auditing entirely).
    pub audit_sample: usize,
}

impl Default for GraphParams {
    fn default() -> Self {
        GraphParams {
            m: 12,
            ef: 32,
            discover_cap: 0,
            prune_above: 48,
            sample_rate: 1024,
            audit_sample: 4,
        }
    }
}

impl GraphParams {
    /// Validates the audit knobs: a zero `sample_rate` is a typed
    /// [`DodError::InvalidSpec`], not a silent clamp — disable auditing
    /// with `audit_sample = 0`, not by dividing by zero.
    pub fn validate(&self) -> Result<(), DodError> {
        if self.sample_rate == 0 {
            return Err(DodError::InvalidSpec {
                reason: "sample_rate must be >= 1 (set audit_sample = 0 to disable audits)"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// Arena slots as an id-addressed dataset (tombstones keep their data so
/// walks can route through them until compaction).
struct ArenaView<'a, S: Space> {
    space: &'a S,
    points: &'a [Option<S::Point>],
}

impl<S: Space> Dataset for ArenaView<'_, S> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        // Freed slots are unreachable in a consistent graph, but a stale
        // link must degrade (infinitely far → never in range, never
        // expanded), not crash.
        match (self.points[i].as_ref(), self.points[j].as_ref()) {
            (Some(a), Some(b)) => self.space.dist(a, b),
            _ => f64::INFINITY,
        }
    }
}

/// The graph-assisted [`StreamIndex`] backend.
pub struct GraphIndex<S: Space> {
    params: GraphParams,
    discover_cap: usize,
    graph: ProximityGraph,
    /// Per-slot point data; `None` = recycled slot.
    points: Vec<Option<S::Point>>,
    seqs: Vec<u64>,
    alive: Vec<bool>,
    slot_of: SeqMap<u32>,
    free: Vec<u32>,
    dead: usize,
    live: usize,
    /// Recent insertion slots: beam-search entry points.
    recent: Vec<u32>,
    buf: TraversalBuffer,
    buf_cap: usize,
    scratch: Vec<u32>,
    /// Heap bytes of retained point payloads (live + tombstoned).
    payload_bytes: usize,
    /// Lifetime compaction passes.
    compactions: u64,
    /// Lifetime bridge edges added while compacting.
    bridge_edges: u64,
    /// Lifetime adjacency prunes.
    prunes: u64,
    /// Distance evaluations outside the shared walk buffer (beam search,
    /// pruning) since the last [`StreamIndex::take_cost`] drain.
    dist_evals: u64,
    /// Beam-search vertex expansions since the last drain (greedy-walk
    /// hops live in `buf` and are drained alongside).
    hops: u64,
}

impl<S: Space> GraphIndex<S> {
    /// A backend for queries with count threshold `k`.
    pub fn new(params: GraphParams, k: usize) -> Self {
        let discover_cap = if params.discover_cap > 0 {
            params.discover_cap
        } else {
            (2 * k).max(16)
        };
        GraphIndex {
            params,
            discover_cap,
            graph: ProximityGraph::new(0, GraphKind::KGraph),
            points: Vec::new(),
            seqs: Vec::new(),
            alive: Vec::new(),
            slot_of: SeqMap::default(),
            free: Vec::new(),
            dead: 0,
            live: 0,
            recent: Vec::new(),
            buf: TraversalBuffer::new(0),
            buf_cap: 0,
            scratch: Vec::new(),
            payload_bytes: 0,
            compactions: 0,
            bridge_edges: 0,
            prunes: 0,
            dist_evals: 0,
            hops: 0,
        }
    }

    /// Live vertices currently indexed.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Tombstoned vertices awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.dead
    }

    fn alloc(&mut self, space: &S, point: S::Point, seq: u64) -> u32 {
        self.payload_bytes += space.point_bytes(&point);
        let slot = if let Some(s) = self.free.pop() {
            self.points[s as usize] = Some(point);
            self.seqs[s as usize] = seq;
            self.alive[s as usize] = true;
            debug_assert!(self.graph.adj[s as usize].is_empty());
            s
        } else {
            self.points.push(Some(point));
            self.seqs.push(seq);
            self.alive.push(true);
            self.graph.adj.push(Vec::new());
            self.graph.pivot.push(false);
            (self.points.len() - 1) as u32
        };
        self.slot_of.insert(seq, slot);
        self.live += 1;
        if self.points.len() > self.buf_cap {
            self.buf_cap = (self.points.len() * 2).max(64);
            // Salvage the retiring buffer's undrained cost tally before
            // replacing it.
            let (d, h) = self.buf.take_cost();
            self.dist_evals += d;
            self.hops += h;
            self.buf = TraversalBuffer::new(self.buf_cap);
        }
        slot
    }

    /// Beam search for the nearest allocated slots to `q`; ascending
    /// `(dist, slot)`. Runs before `greedy_walk` in `on_insert`, so the
    /// two walks share one [`TraversalBuffer`] serially.
    fn beam_search(&mut self, space: &S, q: &S::Point, exclude: u32) -> Vec<(f64, u32)> {
        let ef = self.params.ef.max(self.params.m);
        self.buf.begin();
        self.buf.mark(exclude);
        let mut starts: Vec<u32> = self
            .recent
            .iter()
            .copied()
            .filter(|&s| s != exclude && self.points[s as usize].is_some())
            .collect();
        if starts.is_empty() {
            // All recent entries expired: restart from any allocated slot.
            starts.extend(
                (0..self.points.len() as u32)
                    .find(|&s| s != exclude && self.points[s as usize].is_some()),
            );
        }
        let (found, expanded) = beam_search(
            &self.graph.adj,
            &starts,
            ef,
            |v| self.buf.mark(v),
            |v| {
                let p = self.points[v as usize].as_ref()?;
                self.dist_evals += 1;
                Some(space.dist(q, p))
            },
        );
        self.hops += expanded;
        found
    }

    /// Keeps only the nearest `2·m` links of an over-full vertex, removing
    /// the backlinks of dropped edges so adjacency stays symmetric (a
    /// stale one-way link would keep a future tombstone reachable after
    /// its slot is recycled). Dropping links can only reduce discovery,
    /// never exactness.
    fn prune(&mut self, space: &S, slot: u32) {
        self.prunes += 1;
        let own = self.points[slot as usize]
            .clone()
            .expect("pruned slot allocated");
        let keep = (2 * self.params.m).max(1);
        let dist_evals = &mut self.dist_evals;
        let points = &self.points;
        let mut ranked: Vec<(OrdF64, u32)> = self.graph.adj[slot as usize]
            .iter()
            .map(|&w| {
                let d = points[w as usize].as_ref().map_or(f64::INFINITY, |p| {
                    *dist_evals += 1;
                    space.dist(&own, p)
                });
                (OrdF64(d), w)
            })
            .collect();
        ranked.sort_by(|a, b| a.0 .0.total_cmp(&b.0 .0).then(a.1.cmp(&b.1)));
        let dropped: Vec<u32> = ranked.iter().skip(keep).map(|&(_, w)| w).collect();
        ranked.truncate(keep);
        self.graph.adj[slot as usize] = ranked.into_iter().map(|(_, w)| w).collect();
        for w in dropped {
            self.graph.adj[w as usize].retain(|&x| x != slot);
        }
    }

    /// The discovery step shared by `on_insert` and `audit_discover`:
    /// the paper's greedy ball walk from `slot`, unioned with the
    /// in-range entries of the beam result `found`, filtered to live
    /// vertices and mapped to seqs (excluding `slot` itself).
    fn collect_in_range(&mut self, space: &S, slot: u32, r: f64, found: &[(f64, u32)]) -> Vec<u64> {
        let arena = ArenaView {
            space,
            points: &self.points,
        };
        let mut discovered = std::mem::take(&mut self.scratch);
        // Tombstones in range are collected by the walk too; widen the cap
        // by their count so they cannot crowd out live discoveries.
        let limit = self.discover_cap.saturating_add(self.dead);
        discovered.extend_from_slice(greedy_walk(
            &self.graph,
            None,
            &arena,
            slot as usize,
            r,
            limit,
            &mut self.buf,
        ));
        for &(d, s) in found {
            if d <= r {
                discovered.push(s);
            }
        }
        discovered.sort_unstable();
        discovered.dedup();
        let result: Vec<u64> = discovered
            .iter()
            .filter(|&&s| s != slot && self.alive[s as usize])
            .map(|&s| self.seqs[s as usize])
            .collect();
        discovered.clear();
        self.scratch = discovered;
        result
    }

    /// Removes every tombstone: bridge its neighbors (so routes survive),
    /// unlink it everywhere, recycle the slot.
    fn compact(&mut self, space: &S) {
        self.compactions += 1;
        for s in 0..self.points.len() {
            if self.points[s].is_none() || self.alive[s] {
                continue;
            }
            let nbrs = std::mem::take(&mut self.graph.adj[s]);
            let anchors: Vec<u32> = nbrs
                .iter()
                .copied()
                .filter(|&w| self.points[w as usize].is_some())
                .collect();
            for pair in anchors.windows(2) {
                self.graph.add_undirected(pair[0], pair[1]);
                self.bridge_edges += 1;
            }
            for &w in &anchors {
                self.graph.adj[w as usize].retain(|&x| x != s as u32);
            }
            self.slot_of.remove(&self.seqs[s]);
            if let Some(p) = self.points[s].take() {
                self.payload_bytes -= space.point_bytes(&p);
            }
            self.free.push(s as u32);
        }
        self.dead = 0;
        self.recent
            .retain(|&s| self.points[s as usize].is_some() && self.alive[s as usize]);
        // Bridging fattens surviving vertices; trim the worst offenders.
        for s in 0..self.points.len() as u32 {
            if self.points[s as usize].is_some()
                && self.graph.adj[s as usize].len() > self.params.prune_above
            {
                self.prune(space, s);
            }
        }
    }
}

impl<S: Space> StreamIndex<S> for GraphIndex<S> {
    fn on_insert(&mut self, view: &WindowView<'_, S>, seq: u64, r: f64) -> Vec<u64> {
        let space = view.space();
        let q = view
            .point_of(seq)
            .expect("inserted point is in the window")
            .clone();
        let slot = self.alloc(space, q.clone(), seq);
        if self.live + self.dead == 1 {
            self.recent = vec![slot];
            return Vec::new();
        }

        // Wire the new vertex in: link to the nearest beam discoveries.
        let found = self.beam_search(space, &q, slot);
        for &(_, s) in found.iter().take(self.params.m) {
            self.graph.add_undirected(slot, s);
            if self.graph.adj[s as usize].len() > self.params.prune_above {
                self.prune(space, s);
            }
        }

        // Discover in-range neighbors with the paper's greedy ball walk,
        // then union in whatever the beam already certified.
        let result = self.collect_in_range(space, slot, r, &found);

        self.recent.push(slot);
        if self.recent.len() > 3 {
            self.recent.remove(0);
        }
        result
    }

    fn on_expire(&mut self, view: &WindowView<'_, S>, seq: u64) {
        let Some(&slot) = self.slot_of.get(&seq) else {
            return;
        };
        if self.alive[slot as usize] {
            self.alive[slot as usize] = false;
            self.live -= 1;
            self.dead += 1;
        }
        // Compact once tombstones reach a quarter of the live window.
        if self.dead >= (self.live / 4).max(8) {
            self.compact(view.space());
        }
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "graph"
    }

    fn size_bytes(&self) -> usize {
        self.graph.size_bytes()
            + self.payload_bytes
            + self.points.capacity() * std::mem::size_of::<Option<S::Point>>()
            + self.seqs.capacity() * std::mem::size_of::<u64>()
            + self.alive.capacity()
            + self.slot_of.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
            + self.buf_cap * std::mem::size_of::<u32>()
    }

    fn health(&self) -> IndexHealth {
        let mut degree_hist = [0u64; DEGREE_BUCKETS];
        for s in 0..self.points.len() {
            if self.points[s].is_none() {
                continue;
            }
            let deg = self.graph.adj[s].len();
            let bucket = DEGREE_BUCKET_BOUNDS
                .iter()
                .position(|&b| deg <= b)
                .unwrap_or(DEGREE_BUCKETS - 1);
            degree_hist[bucket] += 1;
        }
        IndexHealth {
            exact: false,
            live: self.live as u64,
            tombstones: self.dead as u64,
            compactions: self.compactions,
            bridge_edges: self.bridge_edges,
            prunes: self.prunes,
            degree_hist,
        }
    }

    fn audit_discover(&mut self, view: &WindowView<'_, S>, seq: u64, r: f64) -> Vec<u64> {
        let Some(&slot) = self.slot_of.get(&seq) else {
            return Vec::new();
        };
        let Some(q) = self.points[slot as usize].clone() else {
            return Vec::new();
        };
        // The same beam + greedy-walk discovery an insertion runs, but
        // read-only: no links are added, so a degraded graph stays
        // degraded and the audit measures what it would actually find.
        let space = view.space();
        let found = self.beam_search(space, &q, slot);
        self.collect_in_range(space, slot, r, &found)
    }

    fn inject_edge_loss(&mut self, keep: usize) {
        for s in 0..self.graph.adj.len() {
            let dropped: Vec<u32> = self.graph.adj[s].iter().skip(keep).copied().collect();
            self.graph.adj[s].truncate(keep);
            for w in dropped {
                self.graph.adj[w as usize].retain(|&x| x != s as u32);
            }
        }
    }

    fn take_cost(&mut self) -> (u64, u64) {
        // Greedy ball walks tally into the shared traversal buffer; beam
        // search and prunes tally into the index directly.
        let (d, h) = self.buf.take_cost();
        (
            d + std::mem::take(&mut self.dist_evals),
            h + std::mem::take(&mut self.hops),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VectorSpace;
    use crate::window::WindowStore;
    use dod_metrics::L2;

    fn feed(
        idx: &mut GraphIndex<VectorSpace<L2>>,
        win: &mut WindowStore<Vec<f32>>,
        space: &VectorSpace<L2>,
        xs: &[f32],
        r: f64,
    ) -> Vec<Vec<u64>> {
        let mut discoveries = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            let seq = win.push(vec![x], i as f64);
            let view = WindowView::new(win, space);
            discoveries.push(idx.on_insert(&view, seq, r));
        }
        discoveries
    }

    #[test]
    fn discovery_is_a_certified_neighbor_subset() {
        let space = VectorSpace::new(L2, 1);
        let mut win = WindowStore::new();
        let mut idx = GraphIndex::new(GraphParams::default(), 3);
        let xs: Vec<f32> = (0..40).map(|i| (i % 10) as f32 * 0.3).collect();
        let discoveries = feed(&mut idx, &mut win, &space, &xs, 0.5);
        for (i, found) in discoveries.iter().enumerate() {
            let own = win.point(i as u64).unwrap().clone();
            for &s in found {
                assert_ne!(s, i as u64);
                let d = space.dist(&own, win.point(s).unwrap());
                assert!(d <= 0.5, "reported non-neighbor: {i} ~ {s} at {d}");
            }
        }
        // Dense line: most points should discover someone.
        let hits = discoveries.iter().filter(|d| !d.is_empty()).count();
        assert!(hits > 30, "graph discovery too weak: {hits}/40");
    }

    #[test]
    fn tombstones_never_reported_and_compaction_recycles() {
        let space = VectorSpace::new(L2, 1);
        let mut win = WindowStore::new();
        let mut idx = GraphIndex::new(GraphParams::default(), 2);
        let xs: Vec<f32> = (0..30).map(|i| i as f32 * 0.1).collect();
        feed(&mut idx, &mut win, &space, &xs, 0.25);
        // Expire the oldest 20.
        for _ in 0..20 {
            let e = win.pop_front().unwrap();
            let view = WindowView::new(&win, &space);
            idx.on_expire(&view, e.seq);
        }
        assert_eq!(idx.live_count(), 10);
        // Threshold is max(live/4, 8) = 8, so at least one compaction ran.
        assert!(idx.tombstone_count() < 8, "compaction never triggered");
        // New discoveries must never name the expired seqs.
        // Live residents are x = 2.0..2.9 (seqs 20..30).
        let seq = win.push(vec![2.45], 40.0);
        let view = WindowView::new(&win, &space);
        let found = idx.on_insert(&view, seq, 0.3);
        assert!(!found.is_empty(), "live neighbors exist in range");
        assert!(
            found.iter().all(|&s| s >= 20),
            "tombstone reported: {found:?}"
        );
    }

    #[test]
    fn cost_tally_accumulates_and_drains() {
        let space = VectorSpace::new(L2, 1);
        let mut win = WindowStore::new();
        let mut idx = GraphIndex::new(GraphParams::default(), 3);
        let xs: Vec<f32> = (0..40).map(|i| (i % 10) as f32 * 0.3).collect();
        feed(&mut idx, &mut win, &space, &xs, 0.5);
        let (d, h) = StreamIndex::<VectorSpace<L2>>::take_cost(&mut idx);
        assert!(d > 0, "40 insertions evaluated no distances?");
        assert!(h > 0, "40 insertions expanded no vertices?");
        // Draining resets the tally.
        assert_eq!(StreamIndex::<VectorSpace<L2>>::take_cost(&mut idx), (0, 0));
    }

    #[test]
    fn single_point_window_discovers_nothing() {
        let space = VectorSpace::new(L2, 1);
        let mut win = WindowStore::new();
        let mut idx = GraphIndex::new(GraphParams::default(), 2);
        let seq = win.push(vec![0.0], 0.0);
        let view = WindowView::new(&win, &space);
        assert!(idx.on_insert(&view, seq, 10.0).is_empty());
        assert!(!StreamIndex::<VectorSpace<L2>>::is_exact(&idx));
    }
}
