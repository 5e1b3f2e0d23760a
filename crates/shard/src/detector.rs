//! [`ShardedStreamDetector`] — the synchronous sharded front door.

use crate::health::HealthReport;
use crate::router::{Ingestion, Router};
use crate::shard::{Shard, ShardAnswer};
use crate::spec::ShardSpec;
use dod_core::{DodError, OutlierReport, Query};
use dod_stream::{Backend, Space, StreamParams, StreamStats, WindowSpec};

/// What one sharded insertion did to the global window.
#[derive(Debug, Clone)]
pub struct ShardSlideReport {
    /// Global seq assigned to the inserted point.
    pub seq: u64,
    /// Global seqs expired by this slide, oldest first.
    pub expired: Vec<u64>,
    /// Global window size after the slide.
    pub window_len: usize,
    /// Shard that owns the point, `None` while it sits in the warm-up
    /// buffer (it will be routed when pivots are fixed).
    pub owner: Option<usize>,
    /// Ghost replicas created for the point.
    pub ghosts: usize,
}

/// A sliding-window exact detector partitioned across `S` per-shard
/// windows, answering identically to a single
/// [`StreamDetector`](dod_stream::StreamDetector) over the same stream.
///
/// See the [crate docs](crate) for the partitioning scheme and the
/// exactness argument; see
/// [`into_pipeline`](ShardedStreamDetector::into_pipeline) for the
/// asynchronous ingestion path.
pub struct ShardedStreamDetector<S: Space + Clone> {
    router: Router<S>,
    shards: Vec<Shard<S>>,
}

impl<S: Space + Clone + 'static> ShardedStreamDetector<S> {
    /// Opens a sharded detector in the batch vocabulary — the same
    /// arguments as [`StreamDetector::open`](dod_stream::StreamDetector::open)
    /// plus the [`ShardSpec`]. Every shard runs the exhaustive window
    /// scan; [`Backend::Exhaustive`], its one value, names it.
    pub fn open(
        space: S,
        query: Query,
        window: WindowSpec,
        _backend: Backend,
        spec: ShardSpec,
    ) -> Result<Self, DodError> {
        let params = StreamParams::from_query(query, window);
        params.validate()?;
        spec.validate()?;
        let router = Router::new(space.clone(), params, spec);
        let shard_params = StreamParams {
            r: params.r,
            k: params.k,
            window: router.shard_window(),
        };
        let shards = (0..spec.shards)
            .map(|_| Shard::new(space.clone(), shard_params))
            .collect::<Result<_, _>>()?;
        Ok(ShardedStreamDetector { router, shards })
    }

    /// Ingests a point at the next unit-spaced tick (`0, 1, 2, …`).
    pub fn insert(&mut self, point: S::Point) -> ShardSlideReport {
        let t = self.next_tick();
        self.insert_at(point, t)
    }

    /// The timestamp [`insert`](Self::insert) would assign next — what a
    /// durable session logs for auto-ticked insertions so replay can use
    /// the explicit-timestamp path.
    pub(crate) fn next_tick(&self) -> f64 {
        self.router.next_tick()
    }

    /// Ingests a point at an explicit timestamp.
    ///
    /// # Panics
    /// Panics if `time` is NaN or behind the latest observed timestamp.
    pub fn insert_at(&mut self, point: S::Point, time: f64) -> ShardSlideReport {
        let Ingestion {
            seq,
            expired,
            window_len,
            ops,
            routed,
        } = self.router.ingest(point, time);
        for (s, op) in ops {
            self.shards[s].apply(op);
        }
        ShardSlideReport {
            seq,
            expired,
            window_len,
            owner: routed.map(|(o, _)| o),
            ghosts: routed.map_or(0, |(_, g)| g),
        }
    }

    /// Advances the clock without inserting, expiring due residents of a
    /// time-based window. Returns the expired global seqs.
    ///
    /// # Panics
    /// Panics if `time` regresses.
    pub fn advance_to(&mut self, time: f64) -> Vec<u64> {
        // Shards expire lazily: their clocks catch up at the next op or
        // report, which is when expiry becomes observable.
        self.router.advance(time)
    }

    /// Brings every shard to the current slide boundary and collects the
    /// per-shard answers. Callers check the warm-up path first — before
    /// the partition exists, the shards are empty.
    fn collect(&mut self) -> Vec<ShardAnswer> {
        let Some(now) = self.router.shard_now() else {
            return Vec::new();
        };
        self.shards
            .iter_mut()
            .map(|shard| {
                shard.advance(now);
                shard.collect()
            })
            .collect()
    }

    /// Global seqs of the current window's outliers, ascending — exactly
    /// the single-detector answer. While the warm-up prefix is still
    /// buffering, the answer comes from a brute-force count over the
    /// buffer (early queries never freeze the partition early).
    pub fn outliers(&mut self) -> Vec<u64> {
        if let Some(seqs) = self.router.warmup_outliers() {
            return seqs;
        }
        let mut out: Vec<u64> = self
            .collect()
            .into_iter()
            .flat_map(|a| a.outliers)
            .collect();
        out.sort_unstable();
        out
    }

    /// The current window's outliers as the unified batch-vocabulary
    /// [`OutlierReport`], merged across shards. Ids are global **window
    /// positions** (`0..len()`, oldest first), identical to
    /// [`StreamDetector::report`](dod_stream::StreamDetector::report)
    /// over the same stream; the filter/verify accounting is the sum of
    /// the per-shard accountings (zeros for a pre-partition warm-up
    /// answer, which is one brute-force count).
    pub fn report(&mut self) -> OutlierReport {
        let front = self.router.front_seq();
        if let Some(seqs) = self.router.warmup_outliers() {
            return OutlierReport::from_outliers(
                seqs.into_iter().map(|s| (s - front) as u32).collect(),
                0.0,
            );
        }
        let answers = self.collect();
        merge_answers(answers, front)
    }

    /// Recomputes the outlier set from scratch: every shard recounts its
    /// owned residents against its full local window through the batch
    /// verification engine. An independent code path from the
    /// incremental `outliers` (pre-partition, both reduce to the same
    /// brute-force count over the warm-up buffer).
    pub fn audit(&mut self) -> Vec<u64> {
        if let Some(seqs) = self.router.warmup_outliers() {
            return seqs;
        }
        if let Some(now) = self.router.shard_now() {
            for shard in &mut self.shards {
                shard.advance(now);
            }
        }
        let mut out: Vec<u64> = self.shards.iter().flat_map(|s| s.audit_owned()).collect();
        out.sort_unstable();
        out
    }

    /// Number of points currently in the global window.
    pub fn len(&self) -> usize {
        self.router.len()
    }

    /// `true` when the global window holds no points.
    pub fn is_empty(&self) -> bool {
        self.router.len() == 0
    }

    /// Live global seqs, ascending.
    pub fn window_seqs(&self) -> Vec<u64> {
        self.router.window_seqs()
    }

    /// Latest observed timestamp (−∞ before the first insertion).
    pub fn now(&self) -> f64 {
        self.router.now()
    }

    /// The query parameters (global window vocabulary).
    pub fn params(&self) -> &StreamParams {
        self.router.params()
    }

    /// The metric space points flow through (serving layers read its
    /// shape — e.g. the pinned vector dimension — to validate wire input
    /// before it reaches a shard thread).
    pub fn space(&self) -> &S {
        self.router.space()
    }

    /// The shard configuration.
    pub fn spec(&self) -> &ShardSpec {
        self.router.spec()
    }

    /// Whether pivots have been fixed (the warm-up prefix has been
    /// consumed and replayed through the partition).
    pub fn is_partitioned(&self) -> bool {
        self.router.is_partitioned()
    }

    /// The topology's health document: every shard's `(owned, ghost)`
    /// occupancy, lifetime counters, and index-structure snapshot, plus
    /// the router's ghost accounting ([`HealthReport::routes`]: the
    /// `(owner, target)` ghost matrix and each shard's lifetime owned
    /// count) — the input to the balance gauges
    /// ([`HealthReport::owned_skew`] etc.) that `dod_server` exports.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            shards: self.shards.iter().map(|s| s.health()).collect(),
            routes: self.router.ghost_route_stats(),
        }
    }

    /// Summed lifetime counters across shards. `inserts` counts owned +
    /// ghost insertions, so it exceeds the number of stream points by the
    /// replication overhead.
    pub fn stats(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for s in &self.shards {
            total.absorb(&s.stats());
        }
        total
    }

    /// Approximate heap bytes across all shard state.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum()
    }

    /// Oldest live global seq (the next seq to assign when the window is
    /// empty) — the base durable snapshots are keyed on.
    pub(crate) fn front_seq(&self) -> u64 {
        self.router.front_seq()
    }

    /// Restarts the global seq clock for durable-session recovery (see
    /// [`Router::set_seq_origin`]).
    pub(crate) fn set_seq_origin(&mut self, seq: u64) {
        self.router.set_seq_origin(seq);
    }

    pub(crate) fn into_parts(self) -> (Router<S>, Vec<Shard<S>>) {
        (self.router, self.shards)
    }

    pub(crate) fn from_parts(router: Router<S>, shards: Vec<Shard<S>>) -> Self {
        ShardedStreamDetector { router, shards }
    }
}

/// Merges per-shard answers into one global [`OutlierReport`]: outlier
/// seqs become positions relative to the global window front, accounting
/// fields are summed.
pub(crate) fn merge_answers(answers: Vec<ShardAnswer>, front: u64) -> OutlierReport {
    let mut merged = OutlierReport::from_outliers(Vec::new(), 0.0);
    merged.verify_secs = 0.0;
    let mut outliers: Vec<u64> = Vec::new();
    for a in answers {
        outliers.extend(a.outliers);
        merged.candidates += a.report.candidates;
        merged.false_positives += a.report.false_positives;
        merged.decided_in_filter += a.report.decided_in_filter;
        merged.filter_secs += a.report.filter_secs;
        merged.verify_secs += a.report.verify_secs;
        merged.cost.absorb(&a.report.cost);
    }
    outliers.sort_unstable();
    merged.outliers = outliers.into_iter().map(|s| (s - front) as u32).collect();
    merged
}
