//! The streaming front door: [`StreamDetector`].
//!
//! One object owns the window, the per-resident neighbor knowledge and a
//! [`StreamIndex`] backend. Each insertion expires due residents, runs the
//! backend's discovery and folds the result into the incremental counts;
//! [`outliers`](StreamDetector::outliers) then answers from the maintained
//! state, exactly — candidates whose knowledge is incomplete get a lazy
//! exact repair that scans only the window suffix that arrived since their
//! last repair, so repeated queries between slides cost `O(changed
//! objects)`, not `O(W²)`.

use crate::counts::NeighborState;
use crate::graph::{GraphIndex, GraphParams};
use crate::index::{ExhaustiveIndex, StreamIndex};
use crate::seqmap::SeqMap;
use crate::space::Space;
use crate::window::{WindowSpec, WindowStore, WindowView};
use dod_core::verify::ExactCounter;
use dod_core::{CostReport, DodError, OutlierReport, Query, VerifyStrategy};
use dod_metrics::Dataset;
use std::time::Instant;

/// The streaming query: Definition 2's `(r, k)` plus the window bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// Distance threshold.
    pub r: f64,
    /// Count threshold: a window resident is an outlier iff fewer than `k`
    /// other residents lie within `r` of it.
    pub k: usize,
    /// What bounds the window.
    pub window: WindowSpec,
}

impl StreamParams {
    /// A count-based window of the `w` most recent points.
    pub fn count(r: f64, k: usize, w: usize) -> Self {
        StreamParams {
            r,
            k,
            window: WindowSpec::Count(w),
        }
    }

    /// A time-based window with the given horizon.
    pub fn timed(r: f64, k: usize, horizon: f64) -> Self {
        StreamParams {
            r,
            k,
            window: WindowSpec::Time(horizon),
        }
    }

    /// Binds a batch-vocabulary [`Query`] to a window — the same `(r, k)`
    /// type [`dod_core::Engine::query`] takes. A `Query` is validated at
    /// construction, so only the window needs checking afterwards.
    ///
    /// Only `r` and `k` carry over: a [`Query::with_threads`] override is
    /// ignored, because one window is single-threaded by design —
    /// parallelism comes from partitioning the stream across windows
    /// (`dod_shard`'s sharded detector), not from threading one window.
    pub fn from_query(query: Query, window: WindowSpec) -> Self {
        StreamParams {
            r: query.r(),
            k: query.k(),
            window,
        }
    }

    /// Validates the query, surfacing a negative/NaN radius as
    /// [`DodError::InvalidRadius`] and a bad window as
    /// [`DodError::InvalidWindow`].
    pub fn validate(&self) -> Result<(), DodError> {
        if !(self.r >= 0.0 && self.r.is_finite()) {
            return Err(DodError::InvalidRadius { r: self.r });
        }
        self.window.validate()
    }
}

/// Which [`StreamIndex`] backend a detector runs on.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Exact incremental counter (`O(W)` distances per slide, zero
    /// verification).
    Exhaustive,
    /// Lazily-repaired proximity graph (sublinear discovery, lazy exact
    /// repair).
    Graph(GraphParams),
}

/// What one insertion did to the window.
#[derive(Debug, Clone)]
pub struct SlideReport {
    /// Seq assigned to the inserted point.
    pub seq: u64,
    /// Seqs expired by this slide, oldest first.
    pub expired: Vec<u64>,
    /// Window size after the slide.
    pub window_len: usize,
    /// What this slide cost: distance evaluations and graph hops spent
    /// on neighbor discovery and expiry maintenance. Slide-time work is
    /// all discovery (filter-side); verification cost appears on query
    /// reports, not slides.
    pub cost: CostReport,
}

impl SlideReport {
    /// Resolves the slide into the unified batch-vocabulary
    /// [`OutlierReport`] — the same shape [`dod_core::Engine::query`]
    /// returns, so batch and stream answers compare through one type.
    /// Equivalent to [`StreamDetector::report`]; see there for the id
    /// mapping (window positions, not seqs).
    ///
    /// The report always describes the detector's *current* window, so
    /// call this on the `SlideReport` you were just handed, before any
    /// further insert. A stale handle (the detector has slid past
    /// `self.seq`) is rejected as `Err(self)` rather than silently
    /// answering for a window this slide did not produce.
    pub fn into_outlier_report<S: Space>(
        self,
        det: &mut StreamDetector<S>,
    ) -> Result<OutlierReport, SlideReport> {
        if self.seq + 1 != det.win.next_seq() {
            return Err(self);
        }
        Ok(det.report())
    }
}

/// Per-query filter/verify accounting collected by
/// `outliers_instrumented`.
#[derive(Debug, Clone, Copy, Default)]
struct QueryCounters {
    candidates: usize,
    false_positives: usize,
    decided_in_filter: usize,
    repair_secs: f64,
}

/// Lifetime counters (cheap, always on).
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Points ingested (owned and ghost alike).
    pub inserts: u64,
    /// Ghost points ingested via
    /// [`insert_ghost_at`](StreamDetector::insert_ghost_at) — replicas
    /// that feed neighbor counts but are never reported.
    pub ghost_inserts: u64,
    /// Points expired.
    pub expirations: u64,
    /// Objects promoted to safe inliers (≥ `k` succeeding neighbors —
    /// tracking stopped forever).
    pub safe_promotions: u64,
    /// Full-window exact repairs performed by queries.
    pub full_repairs: u64,
    /// Suffix-only exact repairs performed by queries.
    pub incremental_repairs: u64,
    /// Wall time spent inside [`ingest`](StreamDetector::insert)
    /// (neighbor discovery, index insert) *excluding* expiry, in
    /// nanoseconds. With [`expiry_nanos`](Self::expiry_nanos) this gives
    /// scrapes the per-slide insert/expiry time split.
    pub insert_nanos: u64,
    /// Wall time spent expiring due residents, in nanoseconds.
    pub expiry_nanos: u64,
    /// Distance evaluations spent in insertion-time neighbor discovery.
    pub insert_dist_evals: u64,
    /// Graph hops spent in insertion-time neighbor discovery.
    pub insert_hops: u64,
    /// Distance evaluations spent on expiry maintenance (compaction,
    /// re-pruning). Zero on structureless backends.
    pub expiry_dist_evals: u64,
    /// Graph hops spent on expiry maintenance.
    pub expiry_hops: u64,
    /// Always 0: a detector runs no audits. The field stays so callers
    /// that sum every phase's evaluations keep compiling.
    pub audit_dist_evals: u64,
    /// Distance evaluations spent by query-time exact repairs. On the
    /// graph backend this and
    /// [`query_false_positives`](Self::query_false_positives) are the
    /// graph's quality: every neighbor discovery misses is paid for
    /// here, never in the answers.
    pub query_dist_evals: u64,
    /// Query-time candidates: residents whose verdict needed an exact
    /// repair before it was trusted.
    pub query_candidates: u64,
    /// Query-time candidates whose repair came back inlier.
    pub query_false_positives: u64,
    /// Query-time outliers decided from already-exact maintained
    /// knowledge (no repair).
    pub query_decided_in_filter: u64,
}

impl StreamStats {
    /// Folds another detector's counters into this one — the one place
    /// multi-detector aggregation (the sharded engine) sums stats, so a
    /// new counter field cannot be forgotten in one of the call sites.
    pub fn absorb(&mut self, other: &StreamStats) {
        let StreamStats {
            inserts,
            ghost_inserts,
            expirations,
            safe_promotions,
            full_repairs,
            incremental_repairs,
            insert_nanos,
            expiry_nanos,
            insert_dist_evals,
            insert_hops,
            expiry_dist_evals,
            expiry_hops,
            audit_dist_evals,
            query_dist_evals,
            query_candidates,
            query_false_positives,
            query_decided_in_filter,
        } = other;
        self.inserts += inserts;
        self.ghost_inserts += ghost_inserts;
        self.expirations += expirations;
        self.safe_promotions += safe_promotions;
        self.full_repairs += full_repairs;
        self.incremental_repairs += incremental_repairs;
        self.insert_nanos += insert_nanos;
        self.expiry_nanos += expiry_nanos;
        self.insert_dist_evals += insert_dist_evals;
        self.insert_hops += insert_hops;
        self.expiry_dist_evals += expiry_dist_evals;
        self.expiry_hops += expiry_hops;
        self.audit_dist_evals += audit_dist_evals;
        self.query_dist_evals += query_dist_evals;
        self.query_candidates += query_candidates;
        self.query_false_positives += query_false_positives;
        self.query_decided_in_filter += query_decided_in_filter;
    }
}

/// A sliding-window exact distance-based outlier detector.
///
/// ```
/// use dod_core::Query;
/// use dod_stream::{Backend, StreamDetector, VectorSpace, WindowSpec};
/// use dod_metrics::L2;
///
/// let mut det = StreamDetector::open(
///     VectorSpace::new(L2, 1),
///     Query::new(1.5, 2)?,
///     WindowSpec::Count(64),
///     Backend::Exhaustive,
/// )?;
/// for i in 0..64 {
///     det.insert(vec![(i % 8) as f32 * 0.5]);
/// }
/// det.insert(vec![100.0]); // far from everything
/// let out = det.outliers();
/// assert_eq!(out, vec![64]);
/// assert_eq!(out, det.audit()); // from-scratch cross-check agrees
/// # Ok::<(), dod_core::DodError>(())
/// ```
pub struct StreamDetector<S: Space> {
    space: S,
    params: StreamParams,
    win: WindowStore<S::Point>,
    /// Neighbor knowledge for live, non-safe residents.
    states: SeqMap<NeighborState>,
    index: Box<dyn StreamIndex<S> + Send>,
    stats: StreamStats,
}

impl<S: Space> StreamDetector<S> {
    /// Opens a detector in the batch vocabulary: the same [`Query`] type
    /// [`dod_core::Engine::query`] takes, bound to a window, on the chosen
    /// backend. Only the query's `r` and `k` apply — see
    /// [`StreamParams::from_query`] for why a thread override is ignored.
    ///
    /// ```
    /// use dod_core::Query;
    /// use dod_stream::{Backend, StreamDetector, VectorSpace, WindowSpec};
    /// use dod_metrics::L2;
    ///
    /// let mut det = StreamDetector::open(
    ///     VectorSpace::new(L2, 1),
    ///     Query::new(1.5, 2)?,
    ///     WindowSpec::Count(64),
    ///     Backend::Exhaustive,
    /// )?;
    /// det.insert(vec![0.0]);
    /// # Ok::<(), dod_core::DodError>(())
    /// ```
    pub fn open(
        space: S,
        query: Query,
        window: WindowSpec,
        backend: Backend,
    ) -> Result<Self, DodError>
    where
        S: 'static,
    {
        Self::try_with_backend(space, StreamParams::from_query(query, window), backend)
    }

    /// A detector on the [`Backend::Exhaustive`] backend, or a
    /// [`DodError`] for invalid parameters.
    pub fn try_new(space: S, params: StreamParams) -> Result<Self, DodError>
    where
        S: 'static,
    {
        Self::try_with_backend(space, params, Backend::Exhaustive)
    }

    /// A detector on the chosen backend, or a [`DodError`] for invalid
    /// parameters.
    pub fn try_with_backend(
        space: S,
        params: StreamParams,
        backend: Backend,
    ) -> Result<Self, DodError>
    where
        S: 'static,
    {
        params.validate()?;
        let index: Box<dyn StreamIndex<S> + Send> = match backend {
            Backend::Exhaustive => Box::new(ExhaustiveIndex::default()),
            Backend::Graph(gp) => Box::new(GraphIndex::new(gp, params.k)),
        };
        Ok(StreamDetector {
            space,
            params,
            win: WindowStore::new(),
            states: SeqMap::default(),
            index,
            stats: StreamStats::default(),
        })
    }

    /// Ingests a point at the next unit-spaced tick (`0, 1, 2, …`).
    pub fn insert(&mut self, point: S::Point) -> SlideReport {
        let t = if self.win.now().is_finite() {
            self.win.now() + 1.0
        } else {
            0.0
        };
        self.insert_at(point, t)
    }

    /// Ingests a point at an explicit timestamp.
    ///
    /// # Panics
    /// Panics if `time` is NaN or behind the latest observed timestamp
    /// (streams are ordered by definition; reorder upstream).
    pub fn insert_at(&mut self, point: S::Point, time: f64) -> SlideReport {
        self.ingest(point, time, false)
    }

    /// Ingests a *ghost* at an explicit timestamp: a replica of a point
    /// owned by another detector, inserted so this window's neighbor
    /// counts stay exact across a partition boundary.
    ///
    /// A ghost is a first-class window resident for every count it feeds —
    /// discovery sees it, repairs scan it, it expires on schedule, and its
    /// arrival can promote residents to safe inliers — but it gets no
    /// neighbor state of its own, so [`outliers`](Self::outliers) and
    /// [`report`](Self::report) never name it. ([`audit`](Self::audit)
    /// recounts *every* resident, ghosts included; a sharded caller
    /// filters those out, as `dod_shard` does.)
    ///
    /// # Panics
    /// Panics if `time` regresses, as for [`insert_at`](Self::insert_at).
    pub fn insert_ghost_at(&mut self, point: S::Point, time: f64) -> SlideReport {
        self.ingest(point, time, true)
    }

    /// Shared insertion path: expire, push, discover, fold counts. `ghost`
    /// skips only the new point's own neighbor state.
    fn ingest(&mut self, point: S::Point, time: f64, ghost: bool) -> SlideReport {
        let t0 = std::time::Instant::now();
        let expiry_before = self.stats.expiry_nanos;
        let cost_before = self.slide_cost_totals();
        let point = self.space.prepare(point);
        self.win.advance_clock(time);
        let expired = self.expire_due(true);
        let seq = self.win.push(point, time);
        self.stats.inserts += 1;
        if ghost {
            self.stats.ghost_inserts += 1;
        }

        let discovered = {
            let view = WindowView::new(&self.win, &self.space);
            self.index.on_insert(&view, seq, self.params.r)
        };
        let (d, h) = self.index.take_cost();
        self.stats.insert_dist_evals += d;
        self.stats.insert_hops += h;
        let k = self.params.k;
        if k > 0 {
            for &d in &discovered {
                let Some(st) = self.states.get_mut(&d) else {
                    continue;
                };
                st.add_succ(seq);
                if st.succ_count() >= k {
                    self.states.remove(&d);
                    self.stats.safe_promotions += 1;
                }
            }
            if !ghost {
                self.states.insert(
                    seq,
                    NeighborState::new(seq, discovered, self.index.is_exact()),
                );
            }
        }
        // Insert time is the slide minus whatever expire_due just booked,
        // so the two phase counters partition the slide's wall time.
        let expiry_within = self.stats.expiry_nanos - expiry_before;
        self.stats.insert_nanos += (t0.elapsed().as_nanos() as u64).saturating_sub(expiry_within);
        let cost_after = self.slide_cost_totals();
        SlideReport {
            seq,
            expired,
            window_len: self.win.len(),
            cost: CostReport {
                filter_dist_evals: cost_after.0 - cost_before.0,
                verify_dist_evals: 0,
                hops: cost_after.1 - cost_before.1,
            },
        }
    }

    /// Lifetime `(dist_evals, hops)` of both slide-time phases (insert,
    /// expiry); a slide's own cost is the delta across `ingest`.
    fn slide_cost_totals(&self) -> (u64, u64) {
        (
            self.stats.insert_dist_evals + self.stats.expiry_dist_evals,
            self.stats.insert_hops + self.stats.expiry_hops,
        )
    }

    /// Fault injection for degradation tests: drop all but `keep` links
    /// per vertex in the backend (no-op on the exhaustive backend).
    /// Discovery finds fewer neighbors, so queries book more repairs and
    /// false positives; outlier verdicts stay exact — the lazy repair
    /// never trusts the graph.
    #[doc(hidden)]
    pub fn inject_edge_loss(&mut self, keep: usize) {
        self.index.inject_edge_loss(keep);
    }

    /// Advances the clock without inserting, expiring due residents
    /// (useful for time-based windows when the stream goes quiet).
    ///
    /// # Panics
    /// Panics if `time` regresses.
    pub fn advance_to(&mut self, time: f64) -> Vec<u64> {
        self.win.advance_clock(time);
        self.expire_due(false)
    }

    fn expire_due(&mut self, incoming: bool) -> Vec<u64> {
        let t0 = std::time::Instant::now();
        let mut expired = Vec::new();
        while self.win.front_due(self.params.window, incoming) {
            let e = self.win.pop_front().expect("due implies non-empty");
            self.states.remove(&e.seq);
            {
                let view = WindowView::new(&self.win, &self.space);
                self.index.on_expire(&view, e.seq);
            }
            self.stats.expirations += 1;
            expired.push(e.seq);
        }
        if !expired.is_empty() {
            // Compaction and re-pruning triggered by expiry book here.
            let (d, h) = self.index.take_cost();
            self.stats.expiry_dist_evals += d;
            self.stats.expiry_hops += h;
        }
        self.stats.expiry_nanos += t0.elapsed().as_nanos() as u64;
        expired
    }

    /// Seqs of the current window's outliers, ascending. Exact for both
    /// backends: inexact candidates are repaired against the window before
    /// their verdict is trusted.
    pub fn outliers(&mut self) -> Vec<u64> {
        self.outliers_instrumented().0
    }

    /// The current window's outliers as the unified batch-vocabulary
    /// [`OutlierReport`] — the same shape [`dod_core::Engine::query`]
    /// returns, so the bench harness, examples and tests compare batch
    /// and stream answers through one type.
    ///
    /// Ids are **window positions** (`0..len()`, oldest first), i.e. ids
    /// into [`window_view`](StreamDetector::window_view) — directly
    /// comparable to a batch detector run over that view. Map a position
    /// back to its seq with [`WindowView::seq_at`]. The filter/verify
    /// accounting follows the batch report's vocabulary: `candidates` are
    /// residents that needed an exact repair, `false_positives` the
    /// repairs that came back inlier, `decided_in_filter` outliers decided
    /// from already-exact maintained knowledge.
    pub fn report(&mut self) -> OutlierReport {
        let t = Instant::now();
        let repairs_before = self.stats.query_dist_evals;
        let (seqs, counters) = self.outliers_instrumented();
        let total = t.elapsed().as_secs_f64();
        let front = self.win.front_seq();
        let verify_secs = counters.repair_secs.min(total);
        OutlierReport {
            outliers: seqs.into_iter().map(|s| (s - front) as u32).collect(),
            candidates: counters.candidates,
            false_positives: counters.false_positives,
            decided_in_filter: counters.decided_in_filter,
            filter_secs: (total - verify_secs).max(0.0),
            verify_secs,
            cost: CostReport {
                // Query-time filtering answers from maintained counts —
                // zero distances; repairs are the verification work.
                filter_dist_evals: 0,
                verify_dist_evals: self.stats.query_dist_evals - repairs_before,
                hops: 0,
            },
        }
    }

    /// Shared implementation of [`outliers`](StreamDetector::outliers) and
    /// [`report`](StreamDetector::report): the answer plus the
    /// filter/verify accounting of how it was reached.
    fn outliers_instrumented(&mut self) -> (Vec<u64>, QueryCounters) {
        let k = self.params.k;
        let mut out = Vec::new();
        let mut counters = QueryCounters::default();
        if k == 0 {
            return (out, counters);
        }
        let front = self.win.front_seq();
        let next = self.win.next_seq();
        let trusted = self.index.is_exact();
        let (win, space, states, stats) =
            (&self.win, &self.space, &mut self.states, &mut self.stats);
        let r = self.params.r;
        let mut promoted = Vec::new();
        for (&seq, st) in states.iter_mut() {
            if st.live_count(front) >= k {
                continue; // certified inlier (counts are lower bounds)
            }
            if !trusted && !st.is_exact(next) {
                // Below k on a lower bound only: a candidate, verified by
                // an exact (incremental) repair against the window.
                counters.candidates += 1;
                let t = Instant::now();
                repair(win, space, seq, st, r, stats);
                counters.repair_secs += t.elapsed().as_secs_f64();
                if st.succ_count() >= k {
                    promoted.push(seq);
                    counters.false_positives += 1;
                    continue;
                }
                if st.live_count(front) >= k {
                    counters.false_positives += 1;
                    continue;
                }
            } else {
                // The maintained knowledge is already exact: decided
                // without verification, like the batch K' shortcut.
                counters.decided_in_filter += 1;
            }
            out.push(seq);
        }
        for seq in promoted {
            self.states.remove(&seq);
            self.stats.safe_promotions += 1;
        }
        self.stats.query_candidates += counters.candidates as u64;
        self.stats.query_false_positives += counters.false_positives as u64;
        self.stats.query_decided_in_filter += counters.decided_in_filter as u64;
        out.sort_unstable();
        (out, counters)
    }

    /// Recomputes the outlier set from scratch over the current window
    /// through the batch verification engine
    /// ([`dod_core::verify::ExactCounter`]) — an independent code path the
    /// incremental result can be cross-checked against.
    pub fn audit(&self) -> Vec<u64> {
        let (r, k) = (self.params.r, self.params.k);
        let mut out = Vec::new();
        if k == 0 {
            return out;
        }
        let view = WindowView::new(&self.win, &self.space);
        let counter = ExactCounter::build(VerifyStrategy::Linear, &view, 0);
        for pos in 0..view.len() {
            if counter.count(&view, pos, r, k) < k {
                out.push(view.seq_at(pos));
            }
        }
        out
    }

    /// Number of points currently in the window.
    pub fn len(&self) -> usize {
        self.win.len()
    }

    /// `true` when the window holds no points.
    pub fn is_empty(&self) -> bool {
        self.win.is_empty()
    }

    /// The window contents as a read-only [`dod_metrics::Dataset`] view.
    pub fn window_view(&self) -> WindowView<'_, S> {
        WindowView::new(&self.win, &self.space)
    }

    /// Seqs currently in the window, ascending.
    pub fn window_seqs(&self) -> Vec<u64> {
        self.win.iter().map(|e| e.seq).collect()
    }

    /// The live point with seq `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&S::Point> {
        self.win.point(seq)
    }

    /// Latest observed timestamp (−∞ before the first insertion).
    pub fn now(&self) -> f64 {
        self.win.now()
    }

    /// The query parameters.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    /// The backend's display name.
    pub fn backend_name(&self) -> &'static str {
        self.index.name()
    }

    /// Residents still tracked (live and not yet safe).
    pub fn tracked(&self) -> usize {
        self.states.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Approximate heap bytes of engine state (neighbor lists + backend).
    pub fn size_bytes(&self) -> usize {
        self.states.values().map(|s| s.size_bytes()).sum::<usize>()
            + self.states.len()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<NeighborState>())
            + self.index.size_bytes()
    }
}

/// Makes `st`'s knowledge exact for the current window: a full window scan
/// the first time, a scan of only the arrivals since `exact_upto`
/// afterwards.
fn repair<S: Space>(
    win: &WindowStore<S::Point>,
    space: &S,
    seq: u64,
    st: &mut NeighborState,
    r: f64,
    stats: &mut StreamStats,
) {
    let own = win.point(seq).expect("tracked seq is live");
    if !st.pred_exact {
        let mut pred = Vec::new();
        let mut succ = Vec::new();
        for e in win.iter() {
            if e.seq == seq {
                continue;
            }
            stats.query_dist_evals += 1;
            if space.dist(own, &e.point) <= r {
                if e.seq < seq {
                    pred.push(e.seq);
                } else {
                    succ.push(e.seq);
                }
            }
        }
        st.set_exact(pred, succ, win.next_seq());
        stats.full_repairs += 1;
    } else {
        let from = st.exact_upto.max(win.front_seq());
        for e in win.iter_from(from) {
            stats.query_dist_evals += 1;
            if space.dist(own, &e.point) <= r {
                st.add_succ(e.seq);
            }
        }
        st.exact_upto = win.next_seq();
        stats.incremental_repairs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VectorSpace;
    use dod_metrics::L2;

    fn det(r: f64, k: usize, w: usize, backend: Backend) -> StreamDetector<VectorSpace<L2>> {
        StreamDetector::try_with_backend(
            VectorSpace::new(L2, 1),
            StreamParams::count(r, k, w),
            backend,
        )
        .expect("valid params")
    }

    fn both() -> [Backend; 2] {
        [Backend::Exhaustive, Backend::Graph(GraphParams::default())]
    }

    #[test]
    fn isolated_point_is_flagged_and_expires_away() {
        for backend in both() {
            let mut d = det(1.0, 2, 4, backend);
            for x in [0.0f32, 0.3, 0.6, 50.0] {
                d.insert(vec![x]);
            }
            assert_eq!(d.outliers(), vec![3], "{}", d.backend_name());
            // Four more clustered points push the outlier out of the window.
            for x in [0.1f32, 0.2, 0.4, 0.5] {
                d.insert(vec![x]);
            }
            assert!(!d.outliers().contains(&3));
            assert_eq!(d.outliers(), d.audit(), "{}", d.backend_name());
        }
    }

    #[test]
    fn expiry_can_create_outliers() {
        for backend in both() {
            // Window of 3: [0.0, 0.1, 9.0] — 9.0 alone is an outlier; when
            // 0.0 and 0.1 expire, the window [9.0, 20.0, 30.0] makes
            // everything an outlier.
            let mut d = det(0.5, 1, 3, backend);
            for x in [0.0f32, 0.1, 9.0, 20.0, 30.0] {
                d.insert(vec![x]);
            }
            assert_eq!(d.outliers(), vec![2, 3, 4], "{}", d.backend_name());
            assert_eq!(d.outliers(), d.audit());
        }
    }

    #[test]
    fn repeated_queries_are_stable_and_cheap() {
        for backend in both() {
            let mut d = det(0.5, 2, 16, backend);
            for i in 0..40 {
                d.insert(vec![(i % 5) as f32 * 0.2]);
            }
            let a = d.outliers();
            let before = d.stats();
            let b = d.outliers();
            let after = d.stats();
            assert_eq!(a, b);
            // The second query repaired nothing new.
            assert_eq!(before.full_repairs, after.full_repairs);
        }
    }

    #[test]
    fn phase_timing_counters_accumulate_and_absorb() {
        let mut d = det(0.5, 2, 4, Backend::Exhaustive);
        for i in 0..12 {
            d.insert(vec![i as f32 * 0.1]);
        }
        let s = d.stats();
        assert!(s.insert_nanos > 0, "inserts took measurable time");
        assert!(
            s.expirations > 0,
            "window of 4 after 12 inserts must have expired"
        );
        let mut total = StreamStats::default();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.insert_nanos, 2 * s.insert_nanos);
        assert_eq!(total.expiry_nanos, 2 * s.expiry_nanos);
    }

    #[test]
    fn safe_inliers_stop_being_tracked() {
        let mut d = det(1.0, 2, 8, Backend::Exhaustive);
        for _ in 0..8 {
            d.insert(vec![0.0]);
        }
        // Every early point has ≥2 succeeding duplicates: safe.
        assert!(d.stats().safe_promotions >= 4);
        assert!(d.tracked() < 8);
        assert!(d.outliers().is_empty());
    }

    #[test]
    fn k_zero_reports_nothing() {
        for backend in both() {
            let mut d = det(1.0, 0, 4, backend);
            for x in [0.0f32, 100.0, 200.0] {
                d.insert(vec![x]);
            }
            assert!(d.outliers().is_empty());
            assert!(d.audit().is_empty());
            assert_eq!(d.tracked(), 0);
        }
    }

    #[test]
    fn timed_window_expires_by_horizon() {
        let space = VectorSpace::new(L2, 1);
        let mut d =
            StreamDetector::try_new(space, StreamParams::timed(1.0, 1, 10.0)).expect("valid");
        d.insert_at(vec![0.0], 0.0);
        d.insert_at(vec![0.2], 5.0);
        d.insert_at(vec![0.3], 9.0);
        assert_eq!(d.len(), 3);
        let expired = d.advance_to(12.0);
        assert_eq!(expired, vec![0]); // time 0.0 <= 12 - 10
        assert_eq!(d.window_seqs(), vec![1, 2]);
        let expired = d.advance_to(30.0);
        assert_eq!(expired, vec![1, 2]);
        assert!(d.is_empty());
        assert!(d.outliers().is_empty());
    }

    #[test]
    fn reports_describe_the_slide() {
        let mut d = det(1.0, 1, 2, Backend::Exhaustive);
        let r0 = d.insert(vec![0.0]);
        assert_eq!((r0.seq, r0.window_len), (0, 1));
        assert!(r0.expired.is_empty());
        d.insert(vec![1.0]);
        let r2 = d.insert(vec![2.0]);
        assert_eq!(r2.expired, vec![0]);
        assert_eq!(r2.window_len, 2);
    }

    #[test]
    fn invalid_params_surface_as_typed_errors() {
        let bad_r =
            StreamDetector::try_new(VectorSpace::new(L2, 1), StreamParams::count(f64::NAN, 1, 4));
        assert!(matches!(bad_r, Err(DodError::InvalidRadius { .. })));
        let bad_w =
            StreamDetector::try_new(VectorSpace::new(L2, 1), StreamParams::count(1.0, 1, 0));
        assert!(matches!(bad_w, Err(DodError::InvalidWindow { .. })));
    }

    #[test]
    fn ghosts_feed_counts_but_are_never_reported() {
        for backend in both() {
            let name = format!("{backend:?}");
            // r = 1, k = 2, window 8. Two owned points at 0.0 and 0.3 plus
            // one far owned point; without ghosts both near points have
            // only one neighbor each and all three are outliers.
            let mut d = det(1.0, 2, 8, backend);
            d.insert_at(vec![0.0], 0.0);
            d.insert_at(vec![0.3], 1.0);
            d.insert_at(vec![50.0], 2.0);
            assert_eq!(d.outliers(), vec![0, 1, 2], "{name}");
            // A ghost at 0.5 gives both near points their second neighbor,
            // but is itself never reported — even though its own ghost
            // count (2 neighbors) would make no difference here, a ghost
            // with < k neighbors must stay unreported too.
            let g = d.insert_ghost_at(vec![0.5], 3.0);
            assert_eq!(g.seq, 3);
            assert_eq!(d.outliers(), vec![2], "{name}");
            assert_eq!(d.stats().ghost_inserts, 1);
            // audit() counts every resident, ghosts included: the ghost is
            // an inlier here, the far point is not.
            assert_eq!(d.audit(), vec![2], "{name}");
            // Ghosts expire like any resident: push the window forward.
            for i in 0..8 {
                d.insert_at(vec![100.0 + i as f32 * 0.1], 4.0 + i as f64);
            }
            assert!(d.window_seqs().iter().all(|&s| s >= 4), "{name}");
        }
    }

    #[test]
    fn ghost_arrivals_promote_safe_inliers() {
        let mut d = det(1.0, 2, 16, Backend::Exhaustive);
        d.insert(vec![0.0]);
        let before = d.stats().safe_promotions;
        // Two succeeding ghosts within r promote seq 0 to a safe inlier.
        d.insert_ghost_at(vec![0.1], 1.0);
        d.insert_ghost_at(vec![0.2], 2.0);
        assert_eq!(d.stats().safe_promotions, before + 1);
        assert!(d.outliers().is_empty());
    }

    #[test]
    fn open_uses_the_batch_query_vocabulary() {
        let mut d = StreamDetector::open(
            VectorSpace::new(L2, 1),
            Query::new(1.0, 2).expect("valid query"),
            WindowSpec::Count(4),
            Backend::Exhaustive,
        )
        .expect("open");
        for x in [0.0f32, 0.3, 0.6, 50.0] {
            d.insert(vec![x]);
        }
        assert_eq!(d.outliers(), vec![3]);
        assert!(Query::new(-1.0, 2).is_err(), "bad radius dies at Query");
    }

    #[test]
    fn report_matches_a_batch_engine_over_the_window_view() {
        for backend in both() {
            let mut d = det(0.5, 2, 16, backend);
            let mut last = None;
            for i in 0..40 {
                let slide = d.insert(vec![(i % 7) as f32 * 0.3]);
                last = Some(slide);
            }
            let name = d.backend_name();
            let report = last
                .expect("slid")
                .into_outlier_report(&mut d)
                .expect("handle from the latest slide is fresh");
            // Same result shape, same answer as a batch engine over the
            // window snapshot.
            let view = d.window_view();
            let batch = dod_core::nested_loop::detect(&view, &dod_core::DodParams::new(0.5, 2), 0);
            assert_eq!(report.outliers, batch.outliers, "{name}");
            // Accounting obeys the batch invariant.
            assert_eq!(
                report.candidates,
                report.outliers.len() - report.decided_in_filter + report.false_positives,
                "{name}"
            );
        }
    }

    #[test]
    fn slide_cost_tracks_the_exhaustive_window_scan() {
        let mut d = det(0.5, 2, 4, Backend::Exhaustive);
        // First insertion sees an empty window: nothing to scan.
        let r0 = d.insert(vec![0.0]);
        assert_eq!(r0.cost, CostReport::default());
        // Each later insertion scans every other resident exactly once.
        let r1 = d.insert(vec![0.1]);
        assert_eq!(r1.cost.filter_dist_evals, 1);
        d.insert(vec![0.2]);
        d.insert(vec![0.3]);
        let r4 = d.insert(vec![0.4]); // window full: expire 1, scan 3
        assert_eq!(r4.cost.filter_dist_evals, 3);
        assert_eq!(r4.cost.hops, 0, "structureless backend never hops");
        assert_eq!(r4.cost.verify_dist_evals, 0, "slides never verify");
        let s = d.stats();
        assert_eq!(s.insert_dist_evals, 1 + 2 + 3 + 3);
        // Exact counts are always trusted: queries repair nothing.
        let rep = d.report();
        assert_eq!(rep.cost, CostReport::default());
        assert_eq!(s.query_dist_evals, 0);
    }

    #[test]
    fn graph_backend_books_slide_and_query_cost() {
        let mut d = det(0.5, 2, 16, Backend::Graph(GraphParams::default()));
        let mut slide_dists = 0;
        let mut slide_hops = 0;
        for i in 0..40 {
            let s = d.insert(vec![(i % 7) as f32 * 0.3]);
            slide_dists += s.cost.filter_dist_evals;
            slide_hops += s.cost.hops;
        }
        assert!(slide_dists > 0, "graph discovery evaluated no distances?");
        assert!(slide_hops > 0, "graph discovery expanded no vertices?");
        let stats = d.stats();
        assert_eq!(
            slide_dists,
            stats.insert_dist_evals + stats.expiry_dist_evals,
            "per-slide deltas must sum to the lifetime phase counters"
        );
        let rep = d.report();
        // Inexact backend: whatever repairs ran are booked as verify cost,
        // and query effectiveness counters mirror the report.
        assert_eq!(rep.cost.verify_dist_evals, d.stats().query_dist_evals);
        assert_eq!(d.stats().query_candidates, rep.candidates as u64);
    }

    #[test]
    fn stale_slide_handles_are_rejected() {
        let mut d = det(0.5, 1, 4, Backend::Exhaustive);
        let stale = d.insert(vec![0.0]);
        d.insert(vec![10.0]); // the window has slid past `stale`
        let back = d.insert(vec![20.0]);
        assert!(stale.into_outlier_report(&mut d).is_err());
        assert!(back.into_outlier_report(&mut d).is_ok());
    }
}
