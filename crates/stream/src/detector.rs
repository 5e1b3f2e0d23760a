//! The streaming front door: [`StreamDetector`].
//!
//! One object owns the window and the per-resident neighbor counts. Each
//! insertion expires due residents, scans the window once for the new
//! point's neighbors and folds them into the counts. The scan finds every
//! neighbor, so the counts are exact and
//! [`outliers`](StreamDetector::outliers) answers from them without
//! evaluating a distance.

use crate::counts::NeighborState;
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

/// How a window discovers a new point's neighbors. There is one way, the
/// exhaustive scan; `dod_shard`'s `ShardedStreamDetector::open` takes it
/// as an argument.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Exact incremental counter (`O(W)` distances per slide, zero
    /// verification).
    Exhaustive,
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
    /// What this slide cost: the distance evaluations of its window scan,
    /// booked as filter work. A slide takes no hops and verifies nothing.
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
    /// Wall time spent inside [`ingest`](StreamDetector::insert)
    /// (the window scan and count updates) *excluding* expiry, in
    /// nanoseconds. With [`expiry_nanos`](Self::expiry_nanos) this gives
    /// scrapes the per-slide insert/expiry time split.
    pub insert_nanos: u64,
    /// Wall time spent expiring due residents, in nanoseconds.
    pub expiry_nanos: u64,
    /// Distance evaluations spent in insertion-time neighbor discovery:
    /// one per other resident per insertion.
    pub insert_dist_evals: u64,
    /// Always 0: expiry evaluates no distance. The field stays so callers
    /// that sum every phase's evaluations keep compiling.
    pub expiry_dist_evals: u64,
    /// Always 0: a detector runs no audits. The field stays so callers
    /// that sum every phase's evaluations keep compiling.
    pub audit_dist_evals: u64,
    /// Always 0: the counts are exact, so a query evaluates no distance.
    /// The field stays so callers that sum every phase's evaluations keep
    /// compiling.
    pub query_dist_evals: u64,
    /// Query-time outliers, each decided from the maintained counts.
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
            insert_nanos,
            expiry_nanos,
            insert_dist_evals,
            expiry_dist_evals,
            audit_dist_evals,
            query_dist_evals,
            query_decided_in_filter,
        } = other;
        self.inserts += inserts;
        self.ghost_inserts += ghost_inserts;
        self.expirations += expirations;
        self.safe_promotions += safe_promotions;
        self.insert_nanos += insert_nanos;
        self.expiry_nanos += expiry_nanos;
        self.insert_dist_evals += insert_dist_evals;
        self.expiry_dist_evals += expiry_dist_evals;
        self.audit_dist_evals += audit_dist_evals;
        self.query_dist_evals += query_dist_evals;
        self.query_decided_in_filter += query_decided_in_filter;
    }
}

/// A sliding-window exact distance-based outlier detector.
///
/// ```
/// use dod_core::Query;
/// use dod_stream::{StreamDetector, VectorSpace, WindowSpec};
/// use dod_metrics::L2;
///
/// let mut det = StreamDetector::open(
///     VectorSpace::new(L2, 1),
///     Query::new(1.5, 2)?,
///     WindowSpec::Count(64),
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
    /// Neighbor counts for live, non-safe residents.
    states: SeqMap<NeighborState>,
    stats: StreamStats,
}

impl<S: Space> StreamDetector<S> {
    /// Opens a detector in the batch vocabulary: the same [`Query`] type
    /// [`dod_core::Engine::query`] takes, bound to a window. Only the
    /// query's `r` and `k` apply — see [`StreamParams::from_query`] for
    /// why a thread override is ignored.
    ///
    /// ```
    /// use dod_core::Query;
    /// use dod_stream::{StreamDetector, VectorSpace, WindowSpec};
    /// use dod_metrics::L2;
    ///
    /// let mut det = StreamDetector::open(
    ///     VectorSpace::new(L2, 1),
    ///     Query::new(1.5, 2)?,
    ///     WindowSpec::Count(64),
    /// )?;
    /// det.insert(vec![0.0]);
    /// # Ok::<(), dod_core::DodError>(())
    /// ```
    pub fn open(space: S, query: Query, window: WindowSpec) -> Result<Self, DodError> {
        Self::try_new(space, StreamParams::from_query(query, window))
    }

    /// A detector, or a [`DodError`] for invalid parameters.
    pub fn try_new(space: S, params: StreamParams) -> Result<Self, DodError> {
        params.validate()?;
        Ok(StreamDetector {
            space,
            params,
            win: WindowStore::new(),
            states: SeqMap::default(),
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
    /// discovery sees it, it expires on schedule, and its arrival can
    /// promote residents to safe inliers — but it gets no neighbor state
    /// of its own, so [`outliers`](Self::outliers) and
    /// [`report`](Self::report) never name it. ([`audit`](Self::audit)
    /// recounts *every* resident, ghosts included; a sharded caller
    /// filters those out, as `dod_shard` does.)
    ///
    /// # Panics
    /// Panics if `time` regresses, as for [`insert_at`](Self::insert_at).
    pub fn insert_ghost_at(&mut self, point: S::Point, time: f64) -> SlideReport {
        self.ingest(point, time, true)
    }

    /// Shared insertion path: expire, push, scan, fold counts. `ghost`
    /// skips only the new point's own neighbor state.
    fn ingest(&mut self, point: S::Point, time: f64, ghost: bool) -> SlideReport {
        let t0 = Instant::now();
        let expiry_before = self.stats.expiry_nanos;
        let point = self.space.prepare(point);
        self.win.advance_clock(time);
        let expired = self.expire_due(true);
        let seq = self.win.push(point, time);
        self.stats.inserts += 1;
        if ghost {
            self.stats.ghost_inserts += 1;
        }

        let discovered = neighbors_of(&self.win, &self.space, seq, self.params.r);
        let dist_evals = (self.win.len() - 1) as u64;
        self.stats.insert_dist_evals += dist_evals;
        let k = self.params.k;
        if k > 0 {
            for &d in &discovered {
                let Some(st) = self.states.get_mut(&d) else {
                    continue;
                };
                st.add_succ();
                if st.succ_count() >= k {
                    self.states.remove(&d);
                    self.stats.safe_promotions += 1;
                }
            }
            if !ghost {
                self.states.insert(seq, NeighborState::new(seq, discovered));
            }
        }
        // Insert time is the slide minus whatever expire_due just booked,
        // so the two phase counters partition the slide's wall time.
        let expiry_within = self.stats.expiry_nanos - expiry_before;
        self.stats.insert_nanos += (t0.elapsed().as_nanos() as u64).saturating_sub(expiry_within);
        SlideReport {
            seq,
            expired,
            window_len: self.win.len(),
            cost: CostReport {
                filter_dist_evals: dist_evals,
                verify_dist_evals: 0,
                hops: 0,
            },
        }
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
        let t0 = Instant::now();
        let mut expired = Vec::new();
        while self.win.front_due(self.params.window, incoming) {
            let e = self.win.pop_front().expect("due implies non-empty");
            self.states.remove(&e.seq);
            self.stats.expirations += 1;
            expired.push(e.seq);
        }
        self.stats.expiry_nanos += t0.elapsed().as_nanos() as u64;
        expired
    }

    /// Seqs of the current window's outliers, ascending, read off the
    /// maintained counts.
    pub fn outliers(&mut self) -> Vec<u64> {
        let k = self.params.k;
        if k == 0 {
            return Vec::new();
        }
        let front = self.win.front_seq();
        let mut out: Vec<u64> = self
            .states
            .iter_mut()
            .filter_map(|(&seq, st)| (st.live_count(front) < k).then_some(seq))
            .collect();
        self.stats.query_decided_in_filter += out.len() as u64;
        out.sort_unstable();
        out
    }

    /// The current window's outliers as the unified batch-vocabulary
    /// [`OutlierReport`] — the same shape [`dod_core::Engine::query`]
    /// returns, so the bench harness, examples and tests compare batch
    /// and stream answers through one type.
    ///
    /// Ids are **window positions** (`0..len()`, oldest first), i.e. ids
    /// into [`window_view`](StreamDetector::window_view) — directly
    /// comparable to a batch detector run over that view. Map a position
    /// back to its seq with [`WindowView::seq_at`]. In the batch report's
    /// vocabulary every outlier is `decided_in_filter`: the maintained
    /// counts are exact, so nothing is a candidate and nothing is
    /// verified.
    pub fn report(&mut self) -> OutlierReport {
        let t = Instant::now();
        let seqs = self.outliers();
        let filter_secs = t.elapsed().as_secs_f64();
        let front = self.win.front_seq();
        OutlierReport {
            decided_in_filter: seqs.len(),
            outliers: seqs.into_iter().map(|s| (s - front) as u32).collect(),
            candidates: 0,
            false_positives: 0,
            filter_secs,
            verify_secs: 0.0,
            cost: CostReport::default(),
        }
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

    /// Residents still tracked (live and not yet safe).
    pub fn tracked(&self) -> usize {
        self.states.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Approximate heap bytes of engine state (neighbor lists).
    pub fn size_bytes(&self) -> usize {
        self.states.values().map(|s| s.size_bytes()).sum::<usize>()
            + self.states.len()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<NeighborState>())
    }
}

/// The exhaustive neighbor discovery: the seqs of every other resident
/// within `r` of the resident `seq`, ascending. It evaluates the distance
/// to every other resident, so it misses no neighbor and every count built
/// from it is exact — the streaming form of DOLPHIN's candidate index with
/// retention probability 1.
fn neighbors_of<S: Space>(win: &WindowStore<S::Point>, space: &S, seq: u64, r: f64) -> Vec<u64> {
    let own = win.point(seq).expect("the new point is live");
    win.iter()
        .filter(|e| e.seq != seq && space.dist(own, &e.point) <= r)
        .map(|e| e.seq)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VectorSpace;
    use dod_metrics::L2;

    fn det(r: f64, k: usize, w: usize) -> StreamDetector<VectorSpace<L2>> {
        StreamDetector::try_new(VectorSpace::new(L2, 1), StreamParams::count(r, k, w))
            .expect("valid params")
    }

    #[test]
    fn exhaustive_discovery_is_complete() {
        let space = VectorSpace::new(L2, 1);
        let mut win = WindowStore::new();
        for (i, x) in [0.0f32, 0.5, 3.0, 0.6].into_iter().enumerate() {
            win.push(vec![x], i as f64);
        }
        // Point 3 (x = 0.6) has in-range neighbors 0 and 1 at r = 1.
        assert_eq!(neighbors_of(&win, &space, 3, 1.0), vec![0, 1]);
    }

    #[test]
    fn isolated_point_is_flagged_and_expires_away() {
        let mut d = det(1.0, 2, 4);
        for x in [0.0f32, 0.3, 0.6, 50.0] {
            d.insert(vec![x]);
        }
        assert_eq!(d.outliers(), vec![3]);
        // Four more clustered points push the outlier out of the window.
        for x in [0.1f32, 0.2, 0.4, 0.5] {
            d.insert(vec![x]);
        }
        assert!(!d.outliers().contains(&3));
        assert_eq!(d.outliers(), d.audit());
    }

    #[test]
    fn expiry_can_create_outliers() {
        // Window of 3: [0.0, 0.1, 9.0] — 9.0 alone is an outlier; when
        // 0.0 and 0.1 expire, the window [9.0, 20.0, 30.0] makes
        // everything an outlier.
        let mut d = det(0.5, 1, 3);
        for x in [0.0f32, 0.1, 9.0, 20.0, 30.0] {
            d.insert(vec![x]);
        }
        assert_eq!(d.outliers(), vec![2, 3, 4]);
        assert_eq!(d.outliers(), d.audit());
    }

    #[test]
    fn repeated_queries_are_stable_and_cheap() {
        let mut d = det(0.5, 2, 16);
        for i in 0..40 {
            d.insert(vec![(i % 5) as f32 * 0.2]);
        }
        let a = d.outliers();
        let b = d.outliers();
        assert_eq!(a, b);
        // Queries read the maintained counts: no distance is evaluated.
        assert_eq!(d.report().cost, CostReport::default());
        assert_eq!(d.stats().query_dist_evals, 0);
    }

    #[test]
    fn phase_timing_counters_accumulate_and_absorb() {
        let mut d = det(0.5, 2, 4);
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
        let mut d = det(1.0, 2, 8);
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
        let mut d = det(1.0, 0, 4);
        for x in [0.0f32, 100.0, 200.0] {
            d.insert(vec![x]);
        }
        assert!(d.outliers().is_empty());
        assert!(d.audit().is_empty());
        assert_eq!(d.tracked(), 0);
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
        let mut d = det(1.0, 1, 2);
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
        // r = 1, k = 2, window 8. Two owned points at 0.0 and 0.3 plus
        // one far owned point; without ghosts both near points have
        // only one neighbor each and all three are outliers.
        let mut d = det(1.0, 2, 8);
        d.insert_at(vec![0.0], 0.0);
        d.insert_at(vec![0.3], 1.0);
        d.insert_at(vec![50.0], 2.0);
        assert_eq!(d.outliers(), vec![0, 1, 2]);
        // A ghost at 0.5 gives both near points their second neighbor,
        // but is itself never reported — even though its own ghost
        // count (2 neighbors) would make no difference here, a ghost
        // with < k neighbors must stay unreported too.
        let g = d.insert_ghost_at(vec![0.5], 3.0);
        assert_eq!(g.seq, 3);
        assert_eq!(d.outliers(), vec![2]);
        assert_eq!(d.stats().ghost_inserts, 1);
        // audit() counts every resident, ghosts included: the ghost is
        // an inlier here, the far point is not.
        assert_eq!(d.audit(), vec![2]);
        // Ghosts expire like any resident: push the window forward.
        for i in 0..8 {
            d.insert_at(vec![100.0 + i as f32 * 0.1], 4.0 + i as f64);
        }
        assert!(d.window_seqs().iter().all(|&s| s >= 4));
    }

    #[test]
    fn ghost_arrivals_promote_safe_inliers() {
        let mut d = det(1.0, 2, 16);
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
        let mut d = det(0.5, 2, 16);
        let mut last = None;
        for i in 0..40 {
            let slide = d.insert(vec![(i % 7) as f32 * 0.3]);
            last = Some(slide);
        }
        let report = last
            .expect("slid")
            .into_outlier_report(&mut d)
            .expect("handle from the latest slide is fresh");
        // Same result shape, same answer as a batch engine over the
        // window snapshot.
        let view = d.window_view();
        let batch = dod_core::nested_loop::detect(&view, &dod_core::DodParams::new(0.5, 2), 0);
        assert_eq!(report.outliers, batch.outliers);
        // Accounting obeys the batch invariant.
        assert_eq!(
            report.candidates,
            report.outliers.len() - report.decided_in_filter + report.false_positives
        );
    }

    #[test]
    fn slide_cost_tracks_the_exhaustive_window_scan() {
        let mut d = det(0.5, 2, 4);
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
        assert_eq!(r4.cost.hops, 0, "a window scan takes no hops");
        assert_eq!(r4.cost.verify_dist_evals, 0, "slides never verify");
        let s = d.stats();
        assert_eq!(s.insert_dist_evals, 1 + 2 + 3 + 3);
        // Exact counts: queries evaluate nothing.
        let rep = d.report();
        assert_eq!(rep.cost, CostReport::default());
        assert_eq!(s.query_dist_evals, 0);
    }

    #[test]
    fn stale_slide_handles_are_rejected() {
        let mut d = det(0.5, 1, 4);
        let stale = d.insert(vec![0.0]);
        d.insert(vec![10.0]); // the window has slid past `stale`
        let back = d.insert(vec![20.0]);
        assert!(stale.into_outlier_report(&mut d).is_err());
        assert!(back.into_outlier_report(&mut d).is_ok());
    }
}
