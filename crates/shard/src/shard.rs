//! One shard: a `StreamDetector` window plus the local↔global bookkeeping
//! (which local seq is which global point, and which residents are
//! ghosts).

use crate::health::ShardHealth;
use crate::router::ShardOp;
use dod_core::{DodError, OutlierReport};
use dod_metrics::Rounding;
use dod_stream::{Backend, SlideReport, Space, StreamDetector, StreamParams, StreamStats};
use std::collections::VecDeque;

/// A shard's view of the stream's space: the router has already prepared
/// every point it routes, so `prepare` stores it as it is. Preparing it
/// again would change its bits on a metric whose `prepare` is not
/// idempotent (a second angular normalization moves some rows by an
/// ulp), and the shard would then measure different distances from the
/// single window it must agree with.
pub(crate) struct Prepared<S>(S);

impl<S: Space> Space for Prepared<S> {
    type Point = S::Point;

    #[inline]
    fn dist(&self, a: &S::Point, b: &S::Point) -> f64 {
        self.0.dist(a, b)
    }

    fn point_bytes(&self, p: &S::Point) -> usize {
        self.0.point_bytes(p)
    }

    fn rounding(&self) -> Rounding {
        self.0.rounding()
    }
}

/// One shard's contribution to a merged report.
pub(crate) struct ShardAnswer {
    /// Global seqs of this shard's *owned* outliers, ascending.
    pub outliers: Vec<u64>,
    /// The shard's filter/verify accounting (summed into the merged
    /// report).
    pub report: OutlierReport,
}

pub(crate) struct Shard<S: Space> {
    det: StreamDetector<Prepared<S>>,
    /// `(global seq, is_ghost)` per live local seq, oldest first;
    /// `meta[0]` describes local seq `meta_front`.
    meta: VecDeque<(u64, bool)>,
    meta_front: u64,
}

impl<S: Space + 'static> Shard<S> {
    /// A shard over a fresh window, or the detector's [`DodError`] for
    /// invalid parameters.
    pub fn new(space: S, params: StreamParams, backend: Backend) -> Result<Self, DodError> {
        Ok(Shard {
            det: StreamDetector::try_with_backend(Prepared(space), params, backend)?,
            meta: VecDeque::new(),
            meta_front: 0,
        })
    }

    /// Applies one routed op.
    pub fn apply(&mut self, op: ShardOp<S::Point>) {
        let (rep, global, ghost) = match op {
            ShardOp::Owned {
                global,
                point,
                time,
            } => (self.det.insert_at(point, time), global, false),
            ShardOp::Ghost {
                global,
                point,
                time,
            } => (self.det.insert_ghost_at(point, time), global, true),
        };
        self.note_slide(&rep);
        debug_assert_eq!(rep.seq, self.meta_front + self.meta.len() as u64);
        self.meta.push_back((global, ghost));
    }

    /// Drops meta entries for the local seqs a slide expired.
    fn note_slide(&mut self, rep: &SlideReport) {
        self.note_expired(&rep.expired);
    }

    fn note_expired(&mut self, expired: &[u64]) {
        for &e in expired {
            debug_assert_eq!(e, self.meta_front);
            self.meta.pop_front();
            self.meta_front += 1;
        }
    }

    /// Advances the shard clock (expiring due residents) so a following
    /// report describes the global slide boundary `now`.
    pub fn advance(&mut self, now: f64) {
        let expired = self.det.advance_to(now);
        self.note_expired(&expired);
    }

    /// The shard's owned outliers at its current clock, as global seqs,
    /// plus the accounting of how they were decided.
    pub fn collect(&mut self) -> ShardAnswer {
        let report = self.det.report();
        let outliers = if report.outliers.is_empty() {
            Vec::new()
        } else {
            let view = self.det.window_view();
            report
                .outliers
                .iter()
                .map(|&pos| {
                    let local = view.seq_at(pos as usize);
                    let (global, ghost) = self.meta[(local - self.meta_front) as usize];
                    debug_assert!(!ghost, "ghosts carry no neighbor state");
                    global
                })
                .collect()
        };
        ShardAnswer { outliers, report }
    }

    /// From-scratch recount of this shard's *owned* residents (the
    /// independent cross-check; ghosts are skipped because their local
    /// neighborhood is not their global one).
    pub fn audit_owned(&self) -> Vec<u64> {
        self.det
            .audit()
            .into_iter()
            .filter_map(|local| {
                let (global, ghost) = self.meta[(local - self.meta_front) as usize];
                (!ghost).then_some(global)
            })
            .collect()
    }

    /// `(owned, ghost)` resident counts.
    pub fn occupancy(&self) -> (usize, usize) {
        let ghosts = self.meta.iter().filter(|&&(_, g)| g).count();
        (self.meta.len() - ghosts, ghosts)
    }

    pub fn stats(&self) -> StreamStats {
        self.det.stats()
    }

    /// The shard's health snapshot: occupancy and lifetime counters.
    pub fn health(&self) -> ShardHealth {
        let (owned, ghosts) = self.occupancy();
        ShardHealth {
            owned,
            ghosts,
            stats: self.det.stats(),
        }
    }

    pub fn size_bytes(&self) -> usize {
        self.det.size_bytes() + self.meta.len() * std::mem::size_of::<(u64, bool)>()
    }
}
