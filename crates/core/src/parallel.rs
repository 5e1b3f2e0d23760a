//! The server's worker pool.
//!
//! Known workloads (graph builds, Algorithm 1's filter and verify, the
//! baselines) fan out through [`dod_graph::parallel`]'s strided map and
//! join; this module holds only the long-lived [`WorkerPool`] that a
//! serving loop feeds one job at a time.

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Live saturation gauges of a [`WorkerPool`], shared with scrapers via
/// `Arc` so a metrics endpoint can read them without touching the pool.
///
/// All counters are relaxed: the gauges are monitoring signals, not
/// synchronization edges, and a scrape may observe a job as neither
/// queued nor busy (or, briefly, both) while it moves between states.
#[derive(Debug)]
pub struct PoolStats {
    queued: std::sync::atomic::AtomicU64,
    busy: std::sync::atomic::AtomicU64,
    workers: u64,
}

impl PoolStats {
    fn new(workers: u64) -> Self {
        PoolStats {
            queued: std::sync::atomic::AtomicU64::new(0),
            busy: std::sync::atomic::AtomicU64::new(0),
            workers,
        }
    }

    /// Jobs submitted but not yet started (a submitter blocked on the
    /// full channel counts too, so this can read queue-capacity + 1).
    pub fn queue_depth(&self) -> u64 {
        self.queued.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Workers currently running a job.
    pub fn busy_workers(&self) -> u64 {
        self.busy.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total workers in the pool (constant over its lifetime).
    pub fn workers(&self) -> u64 {
        self.workers
    }
}

/// A fixed pool of worker threads consuming jobs from one bounded queue.
///
/// [`dod_graph::parallel::par_map`] fans a *known* workload over scoped
/// threads and joins; a serving loop has the opposite shape — an
/// unbounded stream of independent jobs (connections) arriving one at a
/// time. The pool keeps `threads` long-lived workers behind a bounded
/// `sync_channel`, so a burst beyond `queue` pending jobs backpressures
/// the submitter (the accept loop) instead of buffering without limit.
///
/// A panicking job is caught and discarded: one poisoned request must not
/// take a worker (and eventually the whole pool) down with it.
pub struct WorkerPool {
    tx: Option<std::sync::mpsc::SyncSender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: std::sync::Arc<PoolStats>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to ≥ 1) sharing a queue of
    /// `queue` pending jobs (clamped to ≥ 1).
    pub fn new(threads: usize, queue: usize) -> Self {
        let threads = threads.max(1);
        let stats = std::sync::Arc::new(PoolStats::new(threads as u64));
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(queue.max(1));
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                let stats = std::sync::Arc::clone(&stats);
                std::thread::spawn(move || loop {
                    // Hold the lock only for the dequeue, never the job.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(poisoned) => poisoned.into_inner().recv(),
                    };
                    match job {
                        Ok(job) => {
                            use std::sync::atomic::Ordering::Relaxed;
                            stats.queued.fetch_sub(1, Relaxed);
                            stats.busy.fetch_add(1, Relaxed);
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            stats.busy.fetch_sub(1, Relaxed);
                        }
                        Err(_) => break, // pool dropped: queue drained, exit
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            stats,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The pool's live saturation gauges, shareable with a scraper.
    pub fn stats(&self) -> std::sync::Arc<PoolStats> {
        std::sync::Arc::clone(&self.stats)
    }

    /// Submits a job, blocking while the queue is full. Returns `false`
    /// only when the pool is shutting down.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        match &self.tx {
            Some(tx) => {
                // Count before the (possibly blocking) send so a full
                // queue shows up as depth > capacity, not as depth 0.
                self.stats.queued.fetch_add(1, Relaxed);
                let ok = tx.send(Box::new(job)).is_ok();
                if !ok {
                    self.stats.queued.fetch_sub(1, Relaxed);
                }
                ok
            }
            None => false,
        }
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: closes the queue (workers finish what is
    /// pending) and joins every worker.
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_runs_every_job_and_joins_on_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3, 4);
            assert_eq!(pool.threads(), 3);
            for _ in 0..50 {
                let done = Arc::clone(&done);
                assert!(pool.execute(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }));
            }
        } // drop = drain + join
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn worker_pool_stats_track_queue_and_busy_workers() {
        use std::sync::atomic::Ordering;
        use std::sync::{Arc, Barrier};
        let pool = WorkerPool::new(1, 4);
        let stats = pool.stats();
        assert_eq!(stats.workers(), 1);
        assert_eq!(stats.busy_workers(), 0);
        assert_eq!(stats.queue_depth(), 0);
        // Gate the single worker so one job is busy and one is queued.
        let gate = Arc::new(Barrier::new(2));
        let entered = Arc::new(Barrier::new(2));
        {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            assert!(pool.execute(move || {
                entered.wait();
                gate.wait();
            }));
        }
        entered.wait(); // the worker is now inside the job
        assert!(pool.execute(|| {}));
        assert_eq!(stats.busy_workers(), 1, "gated job occupies the worker");
        assert_eq!(stats.queue_depth(), 1, "second job waits in the queue");
        gate.wait();
        drop(pool); // drain + join
        assert_eq!(stats.busy_workers(), 0);
        assert_eq!(stats.queue_depth(), 0);
        // The counters never wrapped (fetch_sub underflow would leave
        // huge values behind).
        assert!(stats.queued.load(Ordering::Relaxed) < u64::MAX / 2);
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1, 2);
            assert!(pool.execute(|| panic!("poisoned request")));
            let done = Arc::clone(&done);
            assert!(pool.execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker outlived the panic");
    }
}
