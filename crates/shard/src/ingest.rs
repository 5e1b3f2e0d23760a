//! Asynchronous ingestion: a bounded-queue [`IngestHandle`] feeding a
//! single-writer pump thread per shard.
//!
//! Topology (all channels are bounded `std::sync::mpsc::sync_channel`s,
//! so a slow consumer backpressures producers instead of buffering
//! without limit):
//!
//! ```text
//! IngestHandle ─┐
//! IngestHandle ─┼─▶ router thread ──▶ pump 0 (owns Shard 0)
//! IngestPipeline┘      (routes)   ├─▶ pump 1 (owns Shard 1)
//!                                 └─▶ …
//! ```
//!
//! The router thread owns the routing core (pivot selection, warm-up
//! replay, the global occupancy record); each pump thread owns one shard
//! and is its only writer. Commands are processed strictly in arrival
//! order on every channel, which is what makes the two read barriers
//! **snapshot-consistent**: a [`report`](IngestPipeline::report) or
//! [`health`](IngestPipeline::health) command reaches each pump *after*
//! every insert enqueued before it, so the answer describes exactly the
//! slide boundary at which it was requested. `health` is the one way to
//! read a running pipeline's counters and routing accounting; every
//! number in its [`HealthReport`] comes from the same cut.

use crate::detector::{merge_answers, ShardedStreamDetector};
use crate::durable::{CommitAck, DurabilityHook};
use crate::health::{HealthReport, ShardHealth};
use crate::router::{Router, ShardOp};
use crate::shard::{Shard, ShardAnswer};
use dod_core::{DodError, OutlierReport};
use dod_stream::Space;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

enum RouterCmd<P> {
    /// Insert at the next unit-spaced tick.
    Insert(P),
    /// Insert a run of points at consecutive unit-spaced ticks — one
    /// queue handoff for the whole run (the high-throughput producer
    /// path).
    InsertMany(Vec<P>),
    /// Insert at an explicit timestamp.
    InsertAt(P, f64),
    /// Advance the clock without inserting.
    Advance(f64),
    /// Collect a snapshot-consistent merged report; replies with the
    /// global window front and the merged report.
    Report(Sender<(u64, OutlierReport)>),
    /// Collect the full health document: per-shard occupancy and
    /// counters, plus the router's ghost accounting, all under one
    /// barrier.
    Health(Sender<HealthReport>),
    /// Commit barrier: replies once every op enqueued before it has
    /// passed through the durability hook's WAL commit (append + sync
    /// per policy). The ack-before-disk gap closes here — a durable
    /// producer that must promise persistence sends this after its
    /// inserts and acknowledges only on the reply.
    Commit(Sender<CommitAck>),
    /// Tear down: drain, stop pumps, return state to `finish`.
    Stop,
}

enum PumpCmd<P> {
    /// Apply a batch of ops in order. The router groups everything it
    /// drained in one scheduling round into one message per shard, so
    /// channel synchronization amortizes over the batch.
    Apply(Vec<ShardOp<P>>),
    /// Advance to the slide boundary and report; replies with the shard
    /// index and its answer.
    Collect(Option<f64>, Sender<(usize, ShardAnswer)>),
    /// Snapshot the shard's health; replies with the shard index and its
    /// document.
    Health(Sender<(usize, ShardHealth)>),
}

fn closed() -> DodError {
    DodError::Io(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "ingest pipeline is shut down (a worker panicked or finish() ran)",
    ))
}

/// Live telemetry of a pipeline's bounded command queue, shared (`Arc`)
/// between every handle, the router thread, and scrapers. Relaxed
/// atomics: monitoring signals, not synchronization edges.
#[derive(Debug, Default)]
pub struct PipelineGauges {
    queued: AtomicU64,
    route_nanos: AtomicU64,
}

impl PipelineGauges {
    /// Commands enqueued but not yet taken by the router thread (a
    /// producer blocked on the full channel counts too, so this can read
    /// queue-capacity + 1 under saturation).
    pub fn queue_depth(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Cumulative wall time the router thread has spent routing points
    /// (pivot distances, ghost-replication decisions), in nanoseconds.
    pub fn route_nanos(&self) -> u64 {
        self.route_nanos.load(Ordering::Relaxed)
    }
}

/// The one enqueue path: counts the command before the (possibly
/// blocking) send so a full queue is visible as nonzero depth, and
/// un-counts on failure so a dead pipeline settles back to its true
/// backlog.
fn send_counted<P>(
    tx: &SyncSender<RouterCmd<P>>,
    gauges: &PipelineGauges,
    cmd: RouterCmd<P>,
) -> Result<(), DodError> {
    gauges.queued.fetch_add(1, Ordering::Relaxed);
    tx.send(cmd).map_err(|_| {
        gauges.queued.fetch_sub(1, Ordering::Relaxed);
        closed()
    })
}

/// A cloneable, bounded-queue producer handle onto an
/// [`IngestPipeline`]. `insert` blocks when the queue is full — that is
/// the backpressure contract — and fails only when the pipeline is gone.
pub struct IngestHandle<P> {
    tx: SyncSender<RouterCmd<P>>,
    gauges: Arc<PipelineGauges>,
}

impl<P> Clone for IngestHandle<P> {
    fn clone(&self) -> Self {
        IngestHandle {
            tx: self.tx.clone(),
            gauges: Arc::clone(&self.gauges),
        }
    }
}

impl<P> IngestHandle<P> {
    /// Enqueues a point for the next unit-spaced tick.
    pub fn insert(&self, point: P) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::Insert(point))
    }

    /// Enqueues a run of points for consecutive unit-spaced ticks with a
    /// single queue handoff — the path for producers whose throughput
    /// would otherwise be bounded by per-point queue synchronization.
    pub fn insert_many(&self, points: Vec<P>) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::InsertMany(points))
    }

    /// Enqueues a point at an explicit timestamp. Timestamps must be
    /// non-decreasing *in queue order*: with several handles racing, the
    /// arrival order at the router is the order that counts.
    pub fn insert_at(&self, point: P, time: f64) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::InsertAt(point, time))
    }

    /// Enqueues a clock advance (time-based windows).
    pub fn advance_to(&self, time: f64) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::Advance(time))
    }

    /// Commit barrier: blocks until every op this handle (or any other
    /// producer) enqueued before the call is WAL-committed — see
    /// [`IngestPipeline::commit`].
    pub fn commit(&self) -> Result<CommitAck, DodError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        send_counted(&self.tx, &self.gauges, RouterCmd::Commit(reply_tx))?;
        reply_rx.recv().map_err(|_| closed())
    }
}

/// The running asynchronous engine: a router thread plus one pump thread
/// per shard, all fed through bounded queues. Created by
/// [`ShardedStreamDetector::into_pipeline`]; dissolved back into the
/// synchronous detector by [`finish`](IngestPipeline::finish).
pub struct IngestPipeline<S: Space + Clone + 'static> {
    tx: SyncSender<RouterCmd<S::Point>>,
    gauges: Arc<PipelineGauges>,
    router_thread: Option<JoinHandle<Router<S>>>,
    pump_threads: Vec<JoinHandle<Shard<S>>>,
}

impl<S: Space + Clone + 'static> ShardedStreamDetector<S> {
    /// Moves the detector onto threads: each shard gets a single-writer
    /// pump, routing gets its own thread, and the caller keeps a bounded
    /// queue of `queue` pending commands (clamped to ≥ 1).
    ///
    /// The detector may already hold window state — the threads simply
    /// continue from it.
    pub fn into_pipeline(self, queue: usize) -> IngestPipeline<S> {
        self.spawn_pipeline(queue, None)
    }

    /// The durable variant: the WAL hook rides on the router thread and
    /// commits each batch before it is handed to any pump.
    pub(crate) fn into_pipeline_durable(
        self,
        queue: usize,
        durable: Box<dyn DurabilityHook<S::Point>>,
    ) -> IngestPipeline<S> {
        self.spawn_pipeline(queue, Some(durable))
    }

    fn spawn_pipeline(
        self,
        queue: usize,
        durable: Option<Box<dyn DurabilityHook<S::Point>>>,
    ) -> IngestPipeline<S> {
        let queue = queue.max(1);
        let (router, shards) = self.into_parts();
        let (tx, rx) = sync_channel::<RouterCmd<S::Point>>(queue);
        let mut pump_txs = Vec::new();
        let mut pump_threads = Vec::new();
        for (idx, mut shard) in shards.into_iter().enumerate() {
            let (ptx, prx) = sync_channel::<PumpCmd<S::Point>>(queue);
            pump_txs.push(ptx);
            pump_threads.push(std::thread::spawn(move || {
                pump_loop(idx, &mut shard, prx);
                shard
            }));
        }
        let gauges = Arc::new(PipelineGauges::default());
        let router_gauges = Arc::clone(&gauges);
        let router_thread = std::thread::spawn(move || {
            let mut router = router;
            let mut durable = durable;
            router_loop(&mut router, rx, pump_txs, &router_gauges, &mut durable);
            router
        });
        IngestPipeline {
            tx,
            gauges,
            router_thread: Some(router_thread),
            pump_threads,
        }
    }
}

impl<S: Space + Clone + 'static> IngestPipeline<S> {
    /// A cloneable producer handle sharing this pipeline's bounded queue.
    pub fn handle(&self) -> IngestHandle<S::Point> {
        IngestHandle {
            tx: self.tx.clone(),
            gauges: Arc::clone(&self.gauges),
        }
    }

    /// The pipeline's live queue/routing telemetry, shareable with a
    /// scraper (outlives the pipeline harmlessly — the gauges just stop
    /// moving).
    pub fn gauges(&self) -> Arc<PipelineGauges> {
        Arc::clone(&self.gauges)
    }

    /// Enqueues a point for the next unit-spaced tick (blocking when the
    /// queue is full).
    pub fn insert(&self, point: S::Point) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::Insert(point))
    }

    /// Enqueues a run of points for consecutive unit-spaced ticks with a
    /// single queue handoff (see [`IngestHandle::insert_many`]).
    pub fn insert_many(&self, points: Vec<S::Point>) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::InsertMany(points))
    }

    /// Enqueues a point at an explicit timestamp.
    pub fn insert_at(&self, point: S::Point, time: f64) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::InsertAt(point, time))
    }

    /// Enqueues a clock advance (time-based windows).
    pub fn advance_to(&self, time: f64) -> Result<(), DodError> {
        send_counted(&self.tx, &self.gauges, RouterCmd::Advance(time))
    }

    /// A snapshot-consistent merged [`OutlierReport`] at the current
    /// slide boundary: every insert enqueued before this call is
    /// reflected, none enqueued after it is. Blocks until the queues
    /// have drained up to the request.
    pub fn report(&self) -> Result<OutlierReport, DodError> {
        Ok(self.collect()?.1)
    }

    /// The current outliers as global seqs, ascending (the
    /// [`StreamDetector::outliers`](dod_stream::StreamDetector::outliers)
    /// shape), snapshot-consistent like [`report`](Self::report).
    pub fn outliers(&self) -> Result<Vec<u64>, DodError> {
        let (front, report) = self.collect()?;
        Ok(report
            .outliers
            .iter()
            .map(|&pos| front + u64::from(pos))
            .collect())
    }

    fn collect(&self) -> Result<(u64, OutlierReport), DodError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        send_counted(&self.tx, &self.gauges, RouterCmd::Report(reply_tx))?;
        reply_rx.recv().map_err(|_| closed())
    }

    /// The full health document — per-shard occupancy and lifetime
    /// counters, plus the router's ghost accounting — collected under
    /// one barrier, so every number describes the same slide boundary
    /// (snapshot-consistent with every insert enqueued before the call).
    /// This is the one read barrier for a running pipeline's accounting:
    /// [`HealthReport::stats`] sums the shards' lifetime counters and
    /// [`HealthReport::routes`] carries the ghost matrix and owned
    /// counts. The same shape as [`ShardedStreamDetector::health`].
    pub fn health(&self) -> Result<HealthReport, DodError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        send_counted(&self.tx, &self.gauges, RouterCmd::Health(reply_tx))?;
        reply_rx.recv().map_err(|_| closed())
    }

    /// Commit barrier: blocks until every operation enqueued before this
    /// call has passed through the WAL commit on the router thread —
    /// appended and synced per the session's [`dod_wal::SyncPolicy`].
    /// This is the durability ack: a producer that must promise "your
    /// point is on disk" (e.g. an HTTP 200 on a durable session) calls
    /// this after its inserts and answers only on the reply.
    ///
    /// On a pipeline without durability the barrier still drains the
    /// router up to the call and replies [`CommitAck::Volatile`];
    /// [`CommitAck::Degraded`] means a WAL I/O failure latched the
    /// session into fail-open — it keeps serving, but nothing is logged
    /// anymore.
    pub fn commit(&self) -> Result<CommitAck, DodError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        send_counted(&self.tx, &self.gauges, RouterCmd::Commit(reply_tx))?;
        reply_rx.recv().map_err(|_| closed())
    }

    /// Drains the queues, stops every thread and reassembles the
    /// synchronous [`ShardedStreamDetector`] with all its window state —
    /// ready for `audit()`, further synchronous use, or a later
    /// `into_pipeline` again.
    pub fn finish(mut self) -> Result<ShardedStreamDetector<S>, DodError> {
        let _ = send_counted(&self.tx, &self.gauges, RouterCmd::Stop);
        let router = self
            .router_thread
            .take()
            .expect("finish runs once")
            .join()
            .map_err(|_| closed())?;
        let mut shards = Vec::with_capacity(self.pump_threads.len());
        for t in self.pump_threads.drain(..) {
            shards.push(t.join().map_err(|_| closed())?);
        }
        Ok(ShardedStreamDetector::from_parts(router, shards))
    }
}

impl<S: Space + Clone + 'static> Drop for IngestPipeline<S> {
    fn drop(&mut self) {
        // finish() already detached the threads; otherwise stop and join
        // so no detached worker outlives the pipeline.
        let _ = send_counted(&self.tx, &self.gauges, RouterCmd::Stop);
        if let Some(t) = self.router_thread.take() {
            let _ = t.join();
        }
        for t in self.pump_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Cap on ops batched into one scheduling round, bounding both the
/// router's memory and the latency before pumps see work.
const MAX_BATCH_OPS: usize = 4096;

/// Sends one barrier command to every pump and gathers the replies in
/// shard order. `None` when a pump is dead (it panicked): its shard's
/// state is gone, so any merged answer would be silently partial, and
/// the caller drops its reply unanswered to surface a pipeline error.
fn fan_out<P, T>(
    pump_txs: &[SyncSender<PumpCmd<P>>],
    cmd: impl Fn(Sender<(usize, T)>) -> PumpCmd<P>,
) -> Option<Vec<T>> {
    let (ans_tx, ans_rx) = std::sync::mpsc::channel();
    for ptx in pump_txs {
        ptx.send(cmd(ans_tx.clone())).ok()?;
    }
    drop(ans_tx);
    let mut answers: Vec<(usize, T)> = ans_rx.iter().collect();
    if answers.len() < pump_txs.len() {
        return None;
    }
    answers.sort_by_key(|&(idx, _)| idx);
    Some(answers.into_iter().map(|(_, a)| a).collect())
}

/// The router thread: applies commands in arrival order, forwarding
/// per-shard work to the pumps. Data commands are drained greedily and
/// forwarded as one batch per shard per round, so queue synchronization
/// amortizes when producers run hot; control commands (report, health,
/// commit, stop) act as barriers — the batch in flight is flushed
/// first, which preserves snapshot consistency. Ends on `Stop` or when
/// every sender is gone; dropping the pump senders ends the pumps in
/// turn.
fn router_loop<S: Space>(
    router: &mut Router<S>,
    rx: Receiver<RouterCmd<S::Point>>,
    pump_txs: Vec<SyncSender<PumpCmd<S::Point>>>,
    gauges: &PipelineGauges,
    durable: &mut Option<Box<dyn DurabilityHook<S::Point>>>,
) {
    type Hook<P> = Option<Box<dyn DurabilityHook<P>>>;
    let mut batches: Vec<Vec<ShardOp<S::Point>>> =
        (0..pump_txs.len()).map(|_| Vec::new()).collect();
    let batch_up = |router: &mut Router<S>,
                    batches: &mut Vec<Vec<ShardOp<S::Point>>>,
                    durable: &mut Hook<S::Point>,
                    cmd: RouterCmd<S::Point>|
     -> Option<RouterCmd<S::Point>> {
        // Every dequeued command settles the queue-depth gauge here, the
        // single entry point of the loop bodies below.
        gauges.queued.fetch_sub(1, Ordering::Relaxed);
        // Data commands accumulate into the per-shard batches; control
        // commands bounce back to the main loop. Routing work (pivot
        // distances, ghost decisions) is timed into the gauges. A durable
        // hook sees every accepted op (with its resolved timestamp, so
        // replay never depends on auto-tick state) before the batch can
        // be flushed.
        let route = |router: &mut Router<S>,
                     batches: &mut Vec<Vec<ShardOp<S::Point>>>,
                     durable: &mut Hook<S::Point>,
                     p: S::Point,
                     t: f64| {
            let keep = durable.as_ref().map(|_| p.clone());
            let t0 = std::time::Instant::now();
            let ing = router.ingest(p, t);
            gauges
                .route_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if let (Some(d), Some(keep)) = (durable.as_mut(), keep) {
                d.note_insert(t, keep, ing.expired.len());
            }
            for (s, op) in ing.ops {
                batches[s].push(op);
            }
        };
        match cmd {
            RouterCmd::Insert(p) => {
                let t = router.next_tick();
                route(router, batches, durable, p, t);
                None
            }
            RouterCmd::InsertMany(points) => {
                for p in points {
                    let t = router.next_tick();
                    route(router, batches, durable, p, t);
                }
                None
            }
            RouterCmd::InsertAt(p, t) => {
                route(router, batches, durable, p, t);
                None
            }
            RouterCmd::Advance(t) => {
                let expired = router.advance(t);
                if let Some(d) = durable.as_mut() {
                    d.note_advance(t, expired.len());
                }
                None
            }
            ctrl => Some(ctrl),
        }
    };
    let flush = |router: &Router<S>,
                 batches: &mut Vec<Vec<ShardOp<S::Point>>>,
                 durable: &mut Hook<S::Point>| {
        // Append-before-ack: the WAL commit lands before any pump can
        // make this batch's effects observable. Control barriers (report,
        // health) flush first, so everything they describe is durable.
        if let Some(d) = durable.as_mut() {
            d.commit(router.now(), router.front_seq());
        }
        for (s, batch) in batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                // A dead pump means a pump panicked; the router keeps
                // going so finish() can still harvest healthy shards.
                let _ = pump_txs[s].send(PumpCmd::Apply(std::mem::take(batch)));
            }
        }
    };

    'outer: while let Ok(cmd) = rx.recv() {
        let mut ctrl = batch_up(router, &mut batches, durable, cmd);
        // Greedy drain: keep batching while more data is instantly
        // available and no control command is pending.
        while ctrl.is_none() {
            if batches.iter().map(Vec::len).sum::<usize>() >= MAX_BATCH_OPS {
                break;
            }
            match rx.try_recv() {
                Ok(cmd) => ctrl = batch_up(router, &mut batches, durable, cmd),
                Err(_) => break,
            }
        }
        flush(router, &mut batches, durable);
        match ctrl {
            None => {}
            Some(RouterCmd::Report(reply)) => {
                if let Some(seqs) = router.warmup_outliers() {
                    // Pre-partition: answered straight from the warm-up
                    // buffer, no shard involvement.
                    let front = router.front_seq();
                    let merged = OutlierReport::from_outliers(
                        seqs.into_iter().map(|s| (s - front) as u32).collect(),
                        0.0,
                    );
                    let _ = reply.send((front, merged));
                    continue;
                }
                let now = router.shard_now();
                let Some(answers) = fan_out(&pump_txs, |tx| PumpCmd::Collect(now, tx)) else {
                    continue;
                };
                let front = router.front_seq();
                let _ = reply.send((front, merge_answers(answers, front)));
            }
            Some(RouterCmd::Health(reply)) => {
                let Some(shards) = fan_out(&pump_txs, PumpCmd::Health) else {
                    continue;
                };
                let _ = reply.send(HealthReport {
                    shards,
                    routes: router.ghost_route_stats(),
                });
            }
            Some(RouterCmd::Commit(reply)) => {
                // The flush above already ran the WAL commit for every
                // op enqueued before this barrier; only the verdict is
                // left to report.
                let _ = reply.send(match durable.as_ref() {
                    None => CommitAck::Volatile,
                    Some(d) if d.healthy() => CommitAck::Durable,
                    Some(_) => CommitAck::Degraded,
                });
            }
            Some(RouterCmd::Stop) => break 'outer,
            Some(_) => unreachable!("data commands never bounce"),
        }
    }
    // A clean stop is not a crash: commit anything still pending, cut a
    // final snapshot, and sync, so the next open replays nothing.
    if let Some(d) = durable.as_mut() {
        d.close(router.now(), router.front_seq());
    }
    // Dropping the pump senders closes the pump channels; the pumps
    // finish their queues and return their shards.
}

/// One shard's single-writer pump: applies its queue in order, answers
/// collects at slide boundaries.
fn pump_loop<S: Space + 'static>(
    idx: usize,
    shard: &mut Shard<S>,
    rx: Receiver<PumpCmd<S::Point>>,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            PumpCmd::Apply(ops) => {
                for op in ops {
                    shard.apply(op);
                }
            }
            PumpCmd::Collect(now, reply) => {
                if let Some(now) = now {
                    shard.advance(now);
                }
                let _ = reply.send((idx, shard.collect()));
            }
            PumpCmd::Health(reply) => {
                let _ = reply.send((idx, shard.health()));
            }
        }
    }
}
