//! Durable sessions: a [`ShardedStreamDetector`] whose accepted
//! operations are written through a [`SessionWal`] before they are
//! acknowledged, and which [`DurableSession::open`] rebuilds from disk to
//! the exact pre-crash state.
//!
//! # Why replay is exact
//!
//! A recovered detector does **not** restore pivots or the cell→shard
//! assignment — it re-runs warm-up over the replayed window and will, in
//! general, choose a different partition. That is deliberate: the crate's
//! exactness argument (see the [crate docs](crate)) holds for *any* fixed
//! partition, so the outlier set over the replayed window is identical no
//! matter how points land on shards. What replay must preserve exactly is
//! the *inputs* the report is a function of: the window's points, their
//! timestamps, their global seqs (hence [`Router::set_seq_origin`] —
//! reports are keyed by seq-derived positions), and the clock. All four
//! travel through the log and the snapshot.
//!
//! # The shadow window
//!
//! Snapshots need the live window's raw points, but after routing those
//! live inside the shards (possibly on other threads). Rather than
//! barrier-collecting them, the durable state maintains a *shadow*: a
//! `(time, point)` deque updated from the same
//! [`Ingestion`](crate::router::Ingestion) records that drive the global
//! occupancy, so it is always byte-equal to the window without touching a
//! shard. Snapshots are therefore synchronous, local, and taken at batch
//! boundaries — which are slide boundaries, hence window-consistent cuts.
//!
//! # Failure policy
//!
//! WAL I/O failure (disk full, permission lost) is **fail-open**: the
//! session keeps serving from memory, appends stop, and
//! `dod_wal_io_errors` counts the degradation for scrapers to alarm on.
//! Refusing ingest would turn a disk hiccup into an outage for a feature
//! whose entire purpose is surviving restarts.

use crate::detector::ShardedStreamDetector;
use crate::spec::ShardSpec;
use dod_core::{DodError, OutlierReport, Query};
use dod_stream::{Backend, Space, WindowSpec};
use dod_wal::{Recovered, SessionWal, SnapshotState, SyncPolicy, WalOp, WalPoint, WalTelemetry};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

/// How a durable session trades throughput for crash safety.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityPolicy {
    /// When appended frames are forced to disk.
    pub sync: SyncPolicy,
    /// Take a window snapshot (and truncate the log) after this many
    /// logged operations. Smaller = faster recovery, more snapshot I/O.
    pub snapshot_ops: u64,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            sync: SyncPolicy::EveryN(32),
            snapshot_ops: 4096,
        }
    }
}

impl DurabilityPolicy {
    /// A policy with the given sync behavior and the default snapshot
    /// cadence.
    pub fn with_sync(sync: SyncPolicy) -> Self {
        DurabilityPolicy {
            sync,
            ..Default::default()
        }
    }
}

/// The reply of an explicit commit barrier
/// ([`crate::IngestPipeline::commit`]): what "everything enqueued before
/// the barrier" now means on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitAck {
    /// The pipeline has no durability configured — nothing to persist,
    /// the barrier only proves the router processed the preceding ops.
    Volatile,
    /// Every operation enqueued before the barrier is appended to the
    /// WAL and synced per the session's [`SyncPolicy`] (under
    /// [`SyncPolicy::Always`], on stable storage).
    Durable,
    /// The WAL failed earlier (disk full, permission lost): the session
    /// still serves from memory, but nothing is being logged anymore.
    Degraded,
}

/// What [`DurableSession::open`] found and replayed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Window entries restored from the snapshot.
    pub snapshot_entries: usize,
    /// Post-snapshot operations replayed from the log.
    pub replayed_ops: usize,
    /// Wall time of the replay (building the detector back up).
    pub replay_secs: f64,
    /// Whether a torn log tail was truncated.
    pub truncated_tail: bool,
}

impl RecoveryStats {
    /// `true` when nothing was on disk — a fresh session.
    pub fn is_fresh(&self) -> bool {
        self.snapshot_entries == 0 && self.replayed_ops == 0 && !self.truncated_tail
    }
}

/// The durable bookkeeping that rides next to a detector (on the caller's
/// thread for the synchronous session, on the router thread for a
/// pipeline): the WAL, the un-committed op batch, and the shadow window.
pub(crate) struct DurableState<P: WalPoint> {
    wal: SessionWal<P>,
    policy: DurabilityPolicy,
    /// Ops accepted since the last commit, in order.
    pending: Vec<WalOp<P>>,
    /// `(time, raw point)` mirror of the global window, oldest first.
    shadow: VecDeque<(f64, P)>,
    ops_since_snapshot: u64,
    /// Set on the first WAL I/O failure: the session keeps serving, the
    /// log stops growing (fail-open).
    failed: bool,
}

/// The hook `router_loop` drives. A trait (object) so the pipeline stays
/// free of `WalPoint` bounds for spaces whose points are not loggable.
pub(crate) trait DurabilityHook<P>: Send {
    /// An insert was accepted at `time`; `expired` window entries fell
    /// off the front.
    fn note_insert(&mut self, time: f64, point: P, expired: usize);
    /// The clock advanced without inserting; `expired` entries fell off.
    fn note_advance(&mut self, time: f64, expired: usize);
    /// Persist everything accepted so far — the ack barrier. Runs before
    /// any effect of the pending ops becomes observable.
    fn commit(&mut self, now: f64, front_seq: u64);
    /// `false` once a WAL I/O failure latched the session into
    /// fail-open: it keeps serving, but appends have stopped.
    fn healthy(&self) -> bool;
    /// Final commit + snapshot + sync at shutdown.
    fn close(&mut self, now: f64, front_seq: u64);
}

impl<P: WalPoint + Send> DurabilityHook<P> for DurableState<P> {
    fn note_insert(&mut self, time: f64, point: P, expired: usize) {
        for _ in 0..expired {
            self.shadow.pop_front();
        }
        self.shadow.push_back((time, point.clone()));
        self.pending.push(WalOp::Insert { time, point });
    }

    fn note_advance(&mut self, time: f64, expired: usize) {
        for _ in 0..expired {
            self.shadow.pop_front();
        }
        self.pending.push(WalOp::Advance { time });
    }

    fn commit(&mut self, now: f64, front_seq: u64) {
        if self.pending.is_empty() {
            return;
        }
        if self.failed {
            self.pending.clear();
            return;
        }
        let n = self.pending.len() as u64;
        match self.wal.append(&self.pending) {
            Ok(()) => {
                self.pending.clear();
                self.ops_since_snapshot += n;
            }
            Err(_) => {
                // io_errors was counted by the WAL; degrade, keep serving.
                self.pending.clear();
                self.failed = true;
                return;
            }
        }
        if self.ops_since_snapshot >= self.policy.snapshot_ops.max(1) {
            self.snapshot(now, front_seq);
        }
    }

    fn healthy(&self) -> bool {
        !self.failed
    }

    fn close(&mut self, now: f64, front_seq: u64) {
        self.commit(now, front_seq);
        if !self.failed {
            self.snapshot(now, front_seq);
        }
    }
}

impl<P: WalPoint> DurableState<P> {
    fn snapshot(&mut self, now: f64, front_seq: u64) {
        let snap = SnapshotState {
            ops_applied: self.wal.ops_appended(),
            base_seq: front_seq,
            now,
            entries: self.shadow.iter().cloned().collect(),
        };
        if self.wal.install_snapshot(&snap).is_err() {
            self.failed = true;
        } else {
            self.ops_since_snapshot = 0;
        }
    }

    pub(crate) fn telemetry(&self) -> Arc<WalTelemetry> {
        self.wal.telemetry()
    }
}

/// A [`ShardedStreamDetector`] with write-ahead durability: every
/// accepted operation is logged before its effects are acknowledged, and
/// [`open`](DurableSession::open) replays the log to rebuild the exact
/// pre-crash window. Use synchronously, or move onto threads with
/// [`into_pipeline`](DurableSession::into_pipeline) (the WAL rides on the
/// router thread).
pub struct DurableSession<S: Space + Clone + 'static>
where
    S::Point: WalPoint,
{
    det: ShardedStreamDetector<S>,
    state: DurableState<S::Point>,
}

impl<S: Space + Clone + 'static> DurableSession<S>
where
    S::Point: WalPoint + Send,
{
    /// Opens (or recovers) a durable session in `dir`: the detector is
    /// built fresh, the snapshot's window is replayed into it with its
    /// original seqs, surviving log operations are applied on top, and a
    /// fresh snapshot is installed so the next open starts from a clean
    /// cut no matter how this one found the directory.
    pub fn open(
        space: S,
        query: Query,
        window: WindowSpec,
        backend: Backend,
        spec: ShardSpec,
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> Result<(Self, RecoveryStats), DodError> {
        let (wal, recovered): (SessionWal<S::Point>, Recovered<S::Point>) =
            SessionWal::open(dir, policy.sync)?;
        let telemetry = wal.telemetry();
        let t0 = std::time::Instant::now();
        let mut det = ShardedStreamDetector::open(space, query, window, backend, spec)?;
        let mut shadow: VecDeque<(f64, S::Point)> = VecDeque::new();
        let Recovered {
            snapshot,
            ops,
            truncated_at,
        } = recovered;
        let mut stats = RecoveryStats {
            snapshot_entries: snapshot.as_ref().map_or(0, |s| s.entries.len()),
            replayed_ops: ops.len(),
            truncated_tail: truncated_at.is_some(),
            ..Default::default()
        };
        if let Some(snap) = snapshot {
            det.set_seq_origin(snap.base_seq);
            for (time, point) in snap.entries {
                let rep = det.insert_at(point.clone(), time);
                for _ in 0..rep.expired.len() {
                    shadow.pop_front();
                }
                shadow.push_back((time, point));
            }
            if snap.now.is_finite() && snap.now > det.now() {
                let expired = det.advance_to(snap.now);
                for _ in 0..expired.len() {
                    shadow.pop_front();
                }
            }
        }
        for op in ops {
            match op {
                WalOp::Insert { time, point } => {
                    let rep = det.insert_at(point.clone(), time);
                    for _ in 0..rep.expired.len() {
                        shadow.pop_front();
                    }
                    shadow.push_back((time, point));
                }
                WalOp::Advance { time } => {
                    let expired = det.advance_to(time);
                    for _ in 0..expired.len() {
                        shadow.pop_front();
                    }
                }
            }
        }
        stats.replay_secs = t0.elapsed().as_secs_f64();
        telemetry.replay_nanos.add(t0.elapsed().as_nanos() as u64);

        let mut state = DurableState {
            wal,
            policy,
            pending: Vec::new(),
            shadow,
            ops_since_snapshot: 0,
            failed: false,
        };
        // Normalize: whatever mix of snapshot + log survived, the next
        // open starts from one clean snapshot. Also makes open idempotent
        // (open → crash → open replays the same state).
        state.snapshot(det.now(), det.front_seq());
        Ok((DurableSession { det, state }, stats))
    }

    /// The session's WAL counters (shareable with `/metrics` scrapers).
    pub fn telemetry(&self) -> Arc<WalTelemetry> {
        self.state.telemetry()
    }

    /// The underlying detector, read-only. Mutation must go through the
    /// logged paths ([`insert_at`](Self::insert_at) etc.) or the log
    /// would diverge from the state it claims to reproduce.
    pub fn detector(&self) -> &ShardedStreamDetector<S> {
        &self.det
    }

    /// Reconfigures the sampled recall auditor on every shard (see
    /// [`ShardedStreamDetector::set_audit_params`]). Audit cadence is
    /// *not* logged: it shapes observability, not window state, so a
    /// recovered session re-applies it from its manifest, not the WAL.
    pub fn set_audit_params(
        &mut self,
        sample_rate: u64,
        audit_sample: usize,
    ) -> Result<(), dod_core::DodError> {
        self.det.set_audit_params(sample_rate, audit_sample)
    }

    /// Ingests at the next unit-spaced tick, logged and committed.
    pub fn insert(&mut self, point: S::Point) -> crate::ShardSlideReport {
        let t = self.det.next_tick();
        self.insert_at(point, t)
    }

    /// Ingests at an explicit timestamp, logged and committed before
    /// returning — after this returns, the operation survives a crash
    /// (modulo the sync policy's window).
    ///
    /// # Panics
    /// Panics if `time` regresses.
    pub fn insert_at(&mut self, point: S::Point, time: f64) -> crate::ShardSlideReport {
        let keep = point.clone();
        let rep = self.det.insert_at(point, time);
        self.state.note_insert(time, keep, rep.expired.len());
        self.state.commit(self.det.now(), self.det.front_seq());
        rep
    }

    /// Advances the clock without inserting, logged and committed.
    ///
    /// # Panics
    /// Panics if `time` regresses.
    pub fn advance_to(&mut self, time: f64) -> Vec<u64> {
        let expired = self.det.advance_to(time);
        self.state.note_advance(time, expired.len());
        self.state.commit(self.det.now(), self.det.front_seq());
        expired
    }

    /// The merged report (see [`ShardedStreamDetector::report`]).
    pub fn report(&mut self) -> OutlierReport {
        self.det.report()
    }

    /// Current outliers as global seqs, ascending.
    pub fn outliers(&mut self) -> Vec<u64> {
        self.det.outliers()
    }

    /// Commits pending state and a final snapshot, consuming the session.
    /// Dropping without `close` is crash-equivalent (the log still holds
    /// everything committed; recovery replays it).
    pub fn close(mut self) {
        let (now, front) = (self.det.now(), self.det.front_seq());
        self.state.close(now, front);
    }

    /// Moves the session onto threads: same topology as
    /// [`ShardedStreamDetector::into_pipeline`], with the WAL riding on
    /// the router thread — appends happen at batch boundaries, before
    /// the batch is handed to any pump, and a final commit + snapshot
    /// runs when the pipeline stops. Note that enqueueing alone is *not*
    /// durable: a producer that must promise persistence follows its
    /// inserts with [`IngestPipeline::commit`](crate::IngestPipeline::commit)
    /// and acknowledges only on the barrier's reply.
    pub fn into_pipeline(self, queue: usize) -> crate::IngestPipeline<S> {
        self.det.into_pipeline_durable(queue, Box::new(self.state))
    }
}
