//! The sliding window itself: seq-addressed FIFO storage plus a
//! [`Dataset`] view for batch cross-checks.
//!
//! Every ingested point gets a monotonically increasing sequence number.
//! Because timestamps are required to be non-decreasing, *arrival order is
//! expiry order* for both window kinds — the window is always a contiguous
//! seq interval `[front_seq, next_seq)`, which is what makes the engine's
//! preceding/succeeding neighbor split well-defined (a succeeding neighbor
//! can never expire before the object it was counted for).

use crate::space::Space;
use dod_core::DodError;
use dod_metrics::{Dataset, Rounding};
use std::collections::VecDeque;

/// What bounds the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSpec {
    /// Keep the most recent `w` points (a slide per insertion).
    Count(usize),
    /// Keep points with `time > now − horizon` (time units are the
    /// caller's; insertion timestamps must be non-decreasing).
    Time(f64),
}

impl WindowSpec {
    /// Validates the specification: a zero-capacity count window or a
    /// non-positive/non-finite horizon surfaces as
    /// [`DodError::InvalidWindow`].
    pub fn validate(&self) -> Result<(), DodError> {
        match *self {
            WindowSpec::Count(w) if w < 1 => Err(DodError::InvalidWindow {
                reason: "count window needs capacity >= 1".into(),
            }),
            WindowSpec::Time(h) if !(h > 0.0 && h.is_finite()) => Err(DodError::InvalidWindow {
                reason: format!("time window needs a positive finite horizon, got {h}"),
            }),
            _ => Ok(()),
        }
    }

    /// The expiry predicate: whether a window of `len` residents whose
    /// oldest carries `front_time`, observed at `now`, must drop that
    /// oldest resident. `incoming` counts a point about to be inserted
    /// (count windows expire *before* the insertion so capacity is never
    /// exceeded).
    ///
    /// This is **the** boundary every window in the workspace expires on
    /// — [`WindowStore`](crate::StreamDetector) and the sharded engine's
    /// global occupancy record both call it, so they cannot drift apart
    /// (sharding exactness depends on them agreeing on every slide).
    pub fn front_due(&self, front_time: f64, len: usize, now: f64, incoming: bool) -> bool {
        match *self {
            WindowSpec::Count(w) => len + usize::from(incoming) > w,
            WindowSpec::Time(h) => front_time <= now - h,
        }
    }

    /// Panics unless `time` is a valid next timestamp (non-NaN and not
    /// behind `now`) — the shared non-decreasing-clock contract of every
    /// streaming clock in the workspace.
    pub fn assert_clock_advance(now: f64, time: f64) {
        assert!(
            !time.is_nan() && time >= now,
            "stream time must be non-decreasing (got {time}, now {now})"
        );
    }
}

/// One window resident.
pub(crate) struct Entry<P> {
    pub seq: u64,
    pub time: f64,
    pub point: P,
}

/// FIFO storage for the current window contents, addressed by seq.
pub(crate) struct WindowStore<P> {
    entries: VecDeque<Entry<P>>,
    next_seq: u64,
    now: f64,
}

impl<P> WindowStore<P> {
    pub fn new() -> Self {
        WindowStore {
            entries: VecDeque::new(),
            next_seq: 0,
            now: f64::NEG_INFINITY,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Seq the next insertion will receive; the window is `[front_seq,
    /// next_seq)`.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Oldest live seq (== `next_seq` for an empty window).
    pub fn front_seq(&self) -> u64 {
        self.entries.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Latest timestamp observed.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock without inserting.
    ///
    /// # Panics
    /// Panics if `time` is NaN or behind the latest observed timestamp.
    pub fn advance_clock(&mut self, time: f64) {
        WindowSpec::assert_clock_advance(self.now, time);
        self.now = time;
    }

    /// Appends a point at `time`, returning its seq.
    ///
    /// # Panics
    /// Panics if `time` regresses (see [`advance_clock`](Self::advance_clock)).
    pub fn push(&mut self, point: P, time: f64) -> u64 {
        self.advance_clock(time);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(Entry { seq, time, point });
        seq
    }

    /// Removes and returns the oldest resident.
    pub fn pop_front(&mut self) -> Option<Entry<P>> {
        self.entries.pop_front()
    }

    /// `true` when the oldest resident is due for expiry under `spec`
    /// (the shared [`WindowSpec::front_due`] predicate).
    pub fn front_due(&self, spec: WindowSpec, incoming: bool) -> bool {
        let Some(front) = self.entries.front() else {
            return false;
        };
        spec.front_due(front.time, self.len(), self.now, incoming)
    }

    pub fn get(&self, seq: u64) -> Option<&Entry<P>> {
        let front = self.entries.front()?.seq;
        if seq < front {
            return None;
        }
        self.entries.get((seq - front) as usize)
    }

    pub fn point(&self, seq: u64) -> Option<&P> {
        self.get(seq).map(|e| &e.point)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Entry<P>> {
        self.entries.iter()
    }
}

/// The current window contents as an id-addressed [`Dataset`]: position
/// `i` is the `i`-th oldest resident.
///
/// This is the bridge back to the batch world — the engine's
/// [`audit`](crate::StreamDetector::audit) and the exactness property
/// tests run the batch detectors over this view and compare seq-mapped
/// results.
pub struct WindowView<'a, S: Space> {
    win: &'a WindowStore<S::Point>,
    space: &'a S,
}

impl<'a, S: Space> WindowView<'a, S> {
    pub(crate) fn new(win: &'a WindowStore<S::Point>, space: &'a S) -> Self {
        WindowView { win, space }
    }

    /// Seq of the resident at view position `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    pub fn seq_at(&self, pos: usize) -> u64 {
        self.win.front_seq() + pos as u64
    }

    /// The point at view position `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    pub fn point_at(&self, pos: usize) -> &S::Point {
        &self
            .win
            .get(self.seq_at(pos))
            .expect("position in bounds")
            .point
    }

    /// The live point with sequence number `seq`, if still in the window.
    pub fn point_of(&self, seq: u64) -> Option<&S::Point> {
        self.win.point(seq)
    }

    /// The metric space distances are measured in.
    pub fn space(&self) -> &S {
        self.space
    }
}

impl<S: Space> Dataset for WindowView<'_, S> {
    fn len(&self) -> usize {
        self.win.len()
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.space.dist(self.point_at(i), self.point_at(j))
    }

    fn rounding(&self) -> Rounding {
        self.space.rounding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VectorSpace;
    use dod_metrics::L2;

    fn store123() -> WindowStore<Vec<f32>> {
        let mut w = WindowStore::new();
        w.push(vec![1.0], 0.0);
        w.push(vec![2.0], 1.0);
        w.push(vec![3.0], 2.0);
        w
    }

    #[test]
    fn seqs_are_contiguous_and_fifo() {
        let mut w = store123();
        assert_eq!((w.front_seq(), w.next_seq()), (0, 3));
        assert_eq!(w.pop_front().unwrap().seq, 0);
        assert_eq!(w.front_seq(), 1);
        assert!(w.get(0).is_none());
        assert_eq!(w.get(2).unwrap().point, vec![3.0]);
    }

    #[test]
    fn count_due_includes_the_incoming_point() {
        let w = store123();
        assert!(!w.front_due(WindowSpec::Count(3), false));
        assert!(w.front_due(WindowSpec::Count(3), true));
        assert!(w.front_due(WindowSpec::Count(2), false));
    }

    #[test]
    fn time_due_uses_the_horizon() {
        let mut w = store123();
        assert!(!w.front_due(WindowSpec::Time(5.0), false));
        w.advance_clock(5.5);
        // front.time = 0.0 <= 5.5 - 5.0.
        assert!(w.front_due(WindowSpec::Time(5.0), false));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_regression_is_rejected() {
        let mut w = store123();
        w.push(vec![4.0], 1.5);
    }

    #[test]
    fn view_is_a_dataset_over_live_points() {
        let w = store123();
        let space = VectorSpace::new(L2, 1);
        let v = WindowView::new(&w, &space);
        assert_eq!(v.len(), 3);
        assert_eq!(v.dist(0, 2), 2.0);
        assert_eq!(v.dist(1, 1), 0.0);
        assert_eq!(v.seq_at(2), 2);
    }

    #[test]
    fn spec_validation() {
        assert!(WindowSpec::Count(1).validate().is_ok());
        assert!(WindowSpec::Time(0.5).validate().is_ok());
        for bad in [
            WindowSpec::Count(0),
            WindowSpec::Time(0.0),
            WindowSpec::Time(f64::NAN),
            WindowSpec::Time(f64::INFINITY),
        ] {
            assert!(
                matches!(bad.validate(), Err(DodError::InvalidWindow { .. })),
                "{bad:?} accepted"
            );
        }
    }
}
