//! The routing core shared by the synchronous detector and the async
//! pipeline: warm-up buffering, pivot selection, per-point shard routing
//! and the global window occupancy record.
//!
//! The router never touches a shard — it only *decides*. Its output is a
//! list of [`ShardOp`]s, applied by whoever owns the shards (inline in
//! the synchronous detector, or on per-shard pump threads).

use crate::spec::ShardSpec;
use dod_datasets::farthest_first;
use dod_metrics::TRIANGLE_SLACK;
use dod_stream::{Space, StreamParams, WindowSpec};
use std::collections::VecDeque;

/// One unit of per-shard work. Points are pre-prepared
/// ([`Space::prepare`]) by the router, which is why `prepare` must be
/// idempotent.
pub(crate) enum ShardOp<P> {
    /// Insert a point this shard owns (it may be reported from here).
    Owned {
        /// Global sequence number.
        global: u64,
        /// The prepared point.
        point: P,
        /// Shard-clock timestamp (global seq for count windows).
        time: f64,
    },
    /// Insert a boundary replica: counts toward neighbors, never reported.
    Ghost {
        /// Global sequence number.
        global: u64,
        /// The prepared point.
        point: P,
        /// Shard-clock timestamp.
        time: f64,
    },
}

/// What one router ingestion decided.
pub(crate) struct Ingestion<P> {
    /// Global seq assigned to the point.
    pub seq: u64,
    /// Global seqs expired by this slide, oldest first.
    pub expired: Vec<u64>,
    /// Global window size after the slide.
    pub window_len: usize,
    /// Per-shard work, in application order. Contains the whole warm-up
    /// replay when this ingestion triggered pivot selection.
    pub ops: Vec<(usize, ShardOp<P>)>,
    /// `(owner shard, ghost replicas)` of the ingested point, `None`
    /// while the point went to the warm-up buffer.
    pub routed: Option<(usize, usize)>,
}

/// Routing telemetry snapshot: per-shard owned-point counts and the
/// `(owner, target)` ghost-replication matrix, taken together so rates
/// computed from them are self-consistent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GhostRouteStats {
    /// `owned[s]` counts the points shard `s` has owned (lifetime).
    pub owned: Vec<u64>,
    /// `pairs[o][t]` counts points owned by shard `o` replicated into
    /// shard `t` (the diagonal is always zero).
    pub pairs: Vec<Vec<u64>>,
}

pub(crate) struct Router<S: Space> {
    space: S,
    params: StreamParams,
    spec: ShardSpec,
    /// The pivot cells once selected (`spec.pivot_count()` of them, or
    /// fewer for tiny prefixes); `pivot_shard[c]` is the shard cell `c`
    /// maps onto.
    pivots: Option<Vec<S::Point>>,
    pivot_shard: Vec<usize>,
    /// Warm-up prefix: prepared points and their arrival times, in seq
    /// order starting at seq `next_seq - buffer.len()`.
    buffer: Vec<(S::Point, f64)>,
    next_seq: u64,
    now: f64,
    /// Global window occupancy `(seq, time)`, oldest first.
    live: VecDeque<(u64, f64)>,
    /// Ghost replicas per `(owner, target)` shard pair, flattened
    /// owner-major (`owner * shards + target`). The telemetry a future
    /// re-pivoting policy needs: a hot pair means the partition split a
    /// neighborhood between those two shards.
    ghost_pairs: Vec<u64>,
    /// Points routed to each shard as owner (lifetime) — the per-owner
    /// denominator that turns `ghost_pairs` into rates.
    owned_routes: Vec<u64>,
    /// Per-point routing scratch (pivot distances / shards-hit mask),
    /// reused so the hot path allocates nothing.
    dist_scratch: Vec<f64>,
    hit_scratch: Vec<bool>,
}

impl<S: Space> Router<S> {
    pub fn new(space: S, params: StreamParams, spec: ShardSpec) -> Self {
        Router {
            space,
            params,
            spec,
            pivots: None,
            pivot_shard: Vec::new(),
            buffer: Vec::new(),
            next_seq: 0,
            now: f64::NEG_INFINITY,
            live: VecDeque::new(),
            ghost_pairs: vec![0; spec.shards * spec.shards],
            owned_routes: vec![0; spec.shards],
            dist_scratch: Vec::new(),
            hit_scratch: Vec::new(),
        }
    }

    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    pub fn space(&self) -> &S {
        &self.space
    }

    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Latest observed timestamp (−∞ before the first event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The timestamp [`StreamDetector::insert`] semantics assign to the
    /// next auto-ticked insertion.
    pub fn next_tick(&self) -> f64 {
        if self.now.is_finite() {
            self.now + 1.0
        } else {
            0.0
        }
    }

    /// Global window size.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Oldest live global seq (== next seq for an empty window).
    pub fn front_seq(&self) -> u64 {
        self.live.front().map_or(self.next_seq, |&(s, _)| s)
    }

    /// Live global seqs, ascending.
    pub fn window_seqs(&self) -> Vec<u64> {
        self.live.iter().map(|&(s, _)| s).collect()
    }

    /// Whether pivots have been fixed yet.
    pub fn is_partitioned(&self) -> bool {
        self.pivots.is_some()
    }

    /// Restarts the global seq clock at `seq`, so points replayed by
    /// durable-session recovery reacquire their original seqs (reports
    /// are keyed by global seq; recovery must not renumber the window).
    ///
    /// # Panics
    /// Panics if anything was already ingested — the origin is a
    /// construction-time property.
    pub fn set_seq_origin(&mut self, seq: u64) {
        assert!(
            self.next_seq == 0 && self.live.is_empty() && self.buffer.is_empty(),
            "seq origin must be set before any ingestion"
        );
        self.next_seq = seq;
    }

    /// The routing-telemetry snapshot: ghost replicas per `(owner,
    /// target)` shard pair (the diagonal is always zero — a point never
    /// ghosts into its own shard) plus each shard's lifetime owned-point
    /// count, so `pairs[o][t] / owned[o]` is the per-owner replication
    /// rate.
    pub fn ghost_route_stats(&self) -> GhostRouteStats {
        GhostRouteStats {
            owned: self.owned_routes.clone(),
            pairs: self
                .ghost_pairs
                .chunks(self.spec.shards.max(1))
                .map(<[u64]>::to_vec)
                .collect(),
        }
    }

    /// The shard clock every per-shard op and report runs on: the global
    /// sequence number for count windows (so "keep the last `w` global
    /// arrivals" becomes a per-shard time horizon of `w`), wall time for
    /// time windows.
    fn shard_time(&self, seq: u64, time: f64) -> f64 {
        match self.params.window {
            WindowSpec::Count(_) => seq as f64,
            WindowSpec::Time(_) => time,
        }
    }

    /// The timestamp shards must be advanced to before a consistent
    /// report; `None` when nothing was ever ingested.
    pub fn shard_now(&self) -> Option<f64> {
        if self.next_seq == 0 {
            return None;
        }
        Some(match self.params.window {
            // The last assigned seq, exactly: advancing a count-mode
            // shard any further would expire residents the global count
            // window still holds.
            WindowSpec::Count(_) => (self.next_seq - 1) as f64,
            WindowSpec::Time(_) => self.now,
        })
    }

    /// The per-shard window spec: count windows become time windows over
    /// the global-seq clock so that ghosts and owners expire on the same
    /// global slide regardless of how many points each shard holds.
    pub fn shard_window(&self) -> WindowSpec {
        match self.params.window {
            WindowSpec::Count(w) => WindowSpec::Time(w as f64),
            WindowSpec::Time(h) => WindowSpec::Time(h),
        }
    }

    fn advance_clock(&mut self, time: f64) {
        WindowSpec::assert_clock_advance(self.now, time);
        self.now = time;
    }

    /// Expires due occupancy entries; `incoming` counts the point about
    /// to be pushed (count windows never exceed capacity). Uses the same
    /// [`WindowSpec::front_due`] predicate as every shard's window, so
    /// the global occupancy and the shards expire on identical slides —
    /// the invariant merged reports depend on.
    fn expire_due(&mut self, incoming: bool) -> Vec<u64> {
        let mut expired = Vec::new();
        while let Some(&(seq, t)) = self.live.front() {
            if !self
                .params
                .window
                .front_due(t, self.live.len(), self.now, incoming)
            {
                break;
            }
            self.live.pop_front();
            expired.push(seq);
        }
        expired
    }

    /// Ingests one point: assigns its seq, slides the global occupancy,
    /// and either routes it (partitioned) or buffers it — triggering
    /// pivot selection and a full replay once the warm-up target is hit.
    ///
    /// # Panics
    /// Panics if `time` regresses.
    pub fn ingest(&mut self, point: S::Point, time: f64) -> Ingestion<S::Point> {
        let point = self.space.prepare(point);
        self.advance_clock(time);
        let expired = self.expire_due(true);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push_back((seq, time));

        let (ops, routed) = if self.pivots.is_some() {
            let mut ops = Vec::new();
            let routed = self.route_into(seq, point, time, &mut ops);
            (ops, Some(routed))
        } else {
            self.buffer.push((point, time));
            if self.buffer.len() >= self.spec.warmup {
                let (ops, routed) = self.promote();
                (ops, routed)
            } else {
                (Vec::new(), None)
            }
        };
        Ingestion {
            seq,
            expired,
            window_len: self.live.len(),
            ops,
            routed,
        }
    }

    /// Advances the clock without inserting (time windows expire).
    ///
    /// # Panics
    /// Panics if `time` regresses.
    pub fn advance(&mut self, time: f64) -> Vec<u64> {
        self.advance_clock(time);
        self.expire_due(false)
    }

    /// The pre-partition query path: while the warm-up prefix is still
    /// buffering, reports are answered by brute force over the live
    /// window slice of the buffer (it holds every point seen so far), so
    /// an early query never freezes pivots on an unrepresentative
    /// prefix. Returns `None` once the partition exists — the shards
    /// answer from then on.
    pub fn warmup_outliers(&self) -> Option<Vec<u64>> {
        if self.pivots.is_some() {
            return None;
        }
        let (r, k) = (self.params.r, self.params.k);
        let mut out = Vec::new();
        if k == 0 || self.live.is_empty() {
            return Some(out);
        }
        // While warming, nothing has been drained: buffer index 0 is the
        // stream's first point, so seq s lives at buffer[s - base].
        let base = self.next_seq - self.buffer.len() as u64;
        let live: Vec<(u64, &S::Point)> = self
            .live
            .iter()
            .map(|&(s, _)| (s, &self.buffer[(s - base) as usize].0))
            .collect();
        for &(s, p) in &live {
            let mut count = 0;
            for &(s2, q) in &live {
                if s2 != s && self.space.dist(p, q) <= r {
                    count += 1;
                    if count >= k {
                        break;
                    }
                }
            }
            if count < k {
                out.push(s);
            }
        }
        Some(out)
    }

    /// Selects pivots from the buffered prefix, assigns their cells to
    /// shards, and replays the buffer through the fixed partition.
    /// Returns the ops plus the routing of the final (most recent)
    /// buffered point.
    ///
    /// Selection is farthest-first **with outlier trimming**: plain
    /// farthest-first would crown the prefix's outliers as pivots (they
    /// are, by definition, the farthest points), leaving one shard
    /// owning the whole stream. So it over-samples 3× the pivot budget,
    /// then keeps the pivots whose Voronoi cells own the most prefix
    /// points — outlier candidates own almost nothing and are dropped.
    ///
    /// Packing is **geometry-aware**: nearby cells ghost into each other
    /// constantly, so splitting them across shards would replicate whole
    /// neighborhoods. Shard seeds are picked by farthest-first over the
    /// pivots themselves, and each cell (largest first) joins the shard
    /// of its nearest seed — skipping shards already loaded past ~1.5×
    /// the mean, so one dense region cannot swallow a shard. Balance and
    /// ghost volume are all that is at stake: any pivot set and any
    /// cell→shard assignment is exact.
    #[allow(clippy::type_complexity)]
    fn promote(&mut self) -> (Vec<(usize, ShardOp<S::Point>)>, Option<(usize, usize)>) {
        debug_assert!(self.pivots.is_none() && !self.buffer.is_empty());
        let budget = self.spec.pivot_count();
        let (chosen, pivot_shard) = {
            let pts: Vec<&S::Point> = self.buffer.iter().map(|(p, _)| p).collect();
            let dist = |a: &&S::Point, b: &&S::Point| self.space.dist(a, b);
            let mut candidates = farthest_first(&pts, 3 * budget, dist);
            let mut cell_sizes = vec![0usize; candidates.len()];
            for p in &pts {
                let nearest = candidates
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        let da = self.space.dist(p, pts[*a.1]);
                        let db = self.space.dist(p, pts[*b.1]);
                        da.total_cmp(&db).then(a.0.cmp(&b.0))
                    })
                    .expect("candidates are non-empty")
                    .0;
                cell_sizes[nearest] += 1;
            }
            if candidates.len() > budget {
                let mut ranked: Vec<usize> = (0..candidates.len()).collect();
                // Largest cell first; earlier (more central) candidate on
                // ties, so selection stays deterministic.
                ranked.sort_by_key(|&c| (std::cmp::Reverse(cell_sizes[c]), c));
                ranked.truncate(budget);
                ranked.sort_unstable();
                cell_sizes = ranked.iter().map(|&c| cell_sizes[c]).collect();
                candidates = ranked.into_iter().map(|c| candidates[c]).collect();
            }

            // Geometry-aware packing. First, pivots within 3r of each
            // other are fused into atomic groups (union-find): two cells
            // that close ghost each other's neighborhoods across any
            // shard boundary, so splitting them buys parallelism at the
            // price of near-total replication. On dense data closeness
            // chains every pivot into one group that no shard can take,
            // so a fusion is skipped when the merged group would exceed
            // the ~1.5× mean load cap or hold two farthest-first seeds.
            // Groups then join the shard of their nearest seed, heaviest
            // group first, under that cap; each seed's own group sits at
            // distance 0 from it, so no shard is left empty.
            let pivot_pts: Vec<&S::Point> = candidates.iter().map(|&i| pts[i]).collect();
            let np = pivot_pts.len();
            let total: usize = cell_sizes.iter().sum();
            let cap = (total.div_ceil(self.spec.shards) * 3).div_ceil(2).max(1);
            let seeds = farthest_first(&pivot_pts, self.spec.shards, dist);
            let mut parent: Vec<usize> = (0..np).collect();
            // Group weight and whether the group holds a seed, kept at
            // each union-find root.
            let mut weight = cell_sizes.clone();
            let mut seeded = vec![false; np];
            for &s in &seeds {
                seeded[s] = true;
            }
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            let tau = 3.0 * self.params.r;
            for i in 0..np {
                for j in (i + 1)..np {
                    if self.space.dist(pivot_pts[i], pivot_pts[j]) <= tau {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        if ri != rj && !(seeded[ri] && seeded[rj]) && weight[ri] + weight[rj] <= cap
                        {
                            let (root, child) = (ri.min(rj), ri.max(rj));
                            parent[child] = root;
                            weight[root] += weight[child];
                            seeded[root] |= seeded[child];
                        }
                    }
                }
            }
            let mut group_of = vec![0usize; np];
            let mut group_members: Vec<Vec<usize>> = Vec::new();
            let mut root_group: Vec<Option<usize>> = vec![None; np];
            for (c, slot) in group_of.iter_mut().enumerate() {
                let r = find(&mut parent, c);
                let g = *root_group[r].get_or_insert_with(|| {
                    group_members.push(Vec::new());
                    group_members.len() - 1
                });
                *slot = g;
                group_members[g].push(c);
            }
            let group_weight: Vec<usize> = group_members
                .iter()
                .map(|m| m.iter().map(|&c| cell_sizes[c]).sum())
                .collect();
            let mut order: Vec<usize> = (0..group_members.len()).collect();
            order.sort_by_key(|&g| (std::cmp::Reverse(group_weight[g]), g));
            let mut load = vec![0usize; self.spec.shards];
            let mut group_shard = vec![0usize; group_members.len()];
            for g in order {
                // Group-to-seed distance: the closest member decides.
                let mut ranked: Vec<usize> = (0..seeds.len()).collect();
                let d_to = |s: usize| {
                    group_members[g]
                        .iter()
                        .map(|&c| self.space.dist(pivot_pts[c], pivot_pts[seeds[s]]))
                        .fold(f64::INFINITY, f64::min)
                };
                ranked.sort_by(|&a, &b| d_to(a).total_cmp(&d_to(b)).then(a.cmp(&b)));
                let target = ranked
                    .iter()
                    .copied()
                    .find(|&s| load[s] + group_weight[g] <= cap)
                    .unwrap_or_else(|| (0..load.len()).min_by_key(|&s| (load[s], s)).expect(">=1"));
                group_shard[g] = target;
                load[target] += group_weight[g];
            }
            let assignment: Vec<usize> = group_of.iter().map(|&g| group_shard[g]).collect();
            (candidates, assignment)
        };
        self.pivots = Some(
            chosen
                .iter()
                .map(|&i| self.buffer[i].0.clone())
                .collect::<Vec<_>>(),
        );
        self.pivot_shard = pivot_shard;

        let buffer = std::mem::take(&mut self.buffer);
        let base = self.next_seq - buffer.len() as u64;
        let mut ops = Vec::with_capacity(buffer.len());
        let mut last_routed = None;
        for (i, (p, t)) in buffer.into_iter().enumerate() {
            last_routed = Some(self.route_into(base + i as u64, p, t, &mut ops));
        }
        (ops, last_routed)
    }

    /// Routes one prepared point: one `Owned` op for the shard holding
    /// its nearest pivot's cell, one `Ghost` op for every *other* shard
    /// holding a pivot within `2r` of beating that distance. Returns
    /// `(owner, ghost count)`.
    fn route_into(
        &mut self,
        seq: u64,
        point: S::Point,
        time: f64,
        ops: &mut Vec<(usize, ShardOp<S::Point>)>,
    ) -> (usize, usize) {
        let pivots = self.pivots.as_ref().expect("routing requires pivots");
        let t = self.shard_time(seq, time);
        if self.spec.shards == 1 || pivots.len() == 1 {
            let owner = self.pivot_shard.first().copied().unwrap_or(0);
            self.owned_routes[owner] += 1;
            ops.push((
                owner,
                ShardOp::Owned {
                    global: seq,
                    point,
                    time: t,
                },
            ));
            return (owner, 0);
        }
        // Reused scratch: routing a point must not allocate.
        let mut dists = std::mem::take(&mut self.dist_scratch);
        dists.clear();
        dists.extend(pivots.iter().map(|c| self.space.dist(&point, c)));
        let mut hit = std::mem::take(&mut self.hit_scratch);
        hit.clear();
        hit.resize(self.spec.shards, false);
        let nearest = dists
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .expect("at least one pivot")
            .0;
        let owner = self.pivot_shard[nearest];
        // The ghost bound is the triangle inequality, which rounded
        // distances break by an ulp, so it carries the shared slack. A
        // spare ghost is harmless: it adds to a count only after an exact
        // `d <= r` check.
        let bound = (dists[nearest] + 2.0 * self.params.r) * (1.0 + TRIANGLE_SLACK);
        let mut ghosts = 0;
        hit[owner] = true;
        for (c, &d) in dists.iter().enumerate() {
            let s = self.pivot_shard[c];
            if hit[s] {
                continue;
            }
            if d <= bound {
                hit[s] = true;
                ghosts += 1;
                self.ghost_pairs[owner * self.spec.shards + s] += 1;
                ops.push((
                    s,
                    ShardOp::Ghost {
                        global: seq,
                        point: point.clone(),
                        time: t,
                    },
                ));
            }
        }
        self.dist_scratch = dists;
        self.hit_scratch = hit;
        self.owned_routes[owner] += 1;
        ops.push((
            owner,
            ShardOp::Owned {
                global: seq,
                point,
                time: t,
            },
        ));
        (owner, ghosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_metrics::L2;
    use dod_stream::VectorSpace;

    fn router(shards: usize, warmup: usize, r: f64, w: usize) -> Router<VectorSpace<L2>> {
        Router::new(
            VectorSpace::new(L2, 1),
            StreamParams::count(r, 2, w),
            ShardSpec::new(shards).with_warmup(warmup),
        )
    }

    fn op_kind<P>(op: &ShardOp<P>) -> (&'static str, u64) {
        match op {
            ShardOp::Owned { global, .. } => ("owned", *global),
            ShardOp::Ghost { global, .. } => ("ghost", *global),
        }
    }

    #[test]
    fn warmup_buffers_then_replays_everything() {
        let mut r = router(2, 3, 0.1, 8);
        assert!(r.ingest(vec![0.0], 0.0).ops.is_empty());
        assert!(r.ingest(vec![10.0], 1.0).ops.is_empty());
        assert!(!r.is_partitioned());
        let ing = r.ingest(vec![0.2], 2.0);
        assert!(r.is_partitioned());
        // The replay routes all three buffered points, seqs 0, 1, 2.
        let owned: Vec<u64> = ing
            .ops
            .iter()
            .filter(|(_, op)| op_kind(op).0 == "owned")
            .map(|(_, op)| op_kind(op).1)
            .collect();
        assert_eq!(owned, vec![0, 1, 2]);
        assert_eq!(ing.routed.map(|(_, g)| g), Some(0));
    }

    #[test]
    fn each_point_is_owned_exactly_once() {
        let mut r = router(3, 2, 0.5, 16);
        let mut owned_counts = std::collections::HashMap::new();
        for i in 0..20 {
            let ing = r.ingest(vec![(i % 7) as f32], i as f64);
            for (_, op) in &ing.ops {
                let (kind, seq) = op_kind(op);
                if kind == "owned" {
                    *owned_counts.entry(seq).or_insert(0usize) += 1;
                }
            }
        }
        assert_eq!(owned_counts.len(), 20, "every seq routed");
        assert!(owned_counts.values().all(|&c| c == 1));
    }

    #[test]
    fn boundary_points_ghost_and_interior_points_do_not() {
        // Pivots will land on the extremes of [0, 100] after warm-up.
        let mut r = router(2, 2, 1.0, 64);
        r.ingest(vec![0.0], 0.0);
        r.ingest(vec![100.0], 1.0);
        assert!(r.is_partitioned());
        // Interior of a cell: no ghost.
        let ing = r.ingest(vec![3.0], 2.0);
        assert_eq!(ing.routed, Some((0, 0)));
        // Midpoint: within 2r of the tie → ghosted to the other shard.
        let ing = r.ingest(vec![50.5], 3.0);
        let (owner, ghosts) = ing.routed.expect("partitioned");
        assert_eq!(ghosts, 1, "boundary point must replicate");
        assert!(owner < 2);
    }

    #[test]
    fn ghost_pair_counts_track_owner_to_target_replication() {
        // Two far cells; boundary points replicate across the pair.
        let mut r = router(2, 2, 1.0, 64);
        r.ingest(vec![0.0], 0.0);
        r.ingest(vec![100.0], 1.0);
        assert!(r.is_partitioned());
        let before: u64 = r.ghost_route_stats().pairs.iter().flatten().sum();
        let ing = r.ingest(vec![50.5], 2.0);
        let (owner, ghosts) = ing.routed.expect("partitioned");
        assert_eq!(ghosts, 1);
        let stats = r.ghost_route_stats();
        let pairs = &stats.pairs;
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().enumerate().all(|(o, row)| row[o] == 0));
        let after: u64 = pairs.iter().flatten().sum();
        assert_eq!(after - before, 1);
        assert_eq!(pairs[owner][1 - owner], 1, "{pairs:?}");
        // The snapshot pairs owned counts with the matrix: every routed
        // point is owned by exactly one shard, warm-up replay included.
        assert_eq!(stats.owned.iter().sum::<u64>(), 3);
        assert_eq!(stats.owned[owner], 2, "{stats:?}");
    }

    #[test]
    fn count_occupancy_matches_window_capacity() {
        let mut r = router(1, 1, 0.5, 3);
        for i in 0..5 {
            let ing = r.ingest(vec![i as f32], i as f64);
            assert!(ing.window_len <= 3);
        }
        assert_eq!(r.window_seqs(), vec![2, 3, 4]);
        assert_eq!(r.front_seq(), 2);
    }

    #[test]
    fn time_occupancy_expires_on_advance() {
        let mut r = Router::new(
            VectorSpace::new(L2, 1),
            StreamParams::timed(0.5, 1, 10.0),
            ShardSpec::new(2).with_warmup(1),
        );
        r.ingest(vec![0.0], 0.0);
        r.ingest(vec![1.0], 5.0);
        assert_eq!(r.advance(12.0), vec![0]);
        assert_eq!(r.window_seqs(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_regression_is_rejected() {
        let mut r = router(1, 1, 0.5, 4);
        r.ingest(vec![0.0], 5.0);
        r.ingest(vec![1.0], 4.0);
    }
}
