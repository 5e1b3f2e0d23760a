//! The session manager's state: named resident engines under an LRU
//! bound, and identified ingest sessions under a hard capacity.
//!
//! Both registries live behind a `RwLock` in [`crate::State`] and keep
//! their *contents* in `Arc`s, so the serving path is: take the read
//! lock, clone the `Arc`, drop the lock, then do the actual work
//! (a batch query, an ingest enqueue) with no lock held at all. Only
//! create and delete take the write lock, and even there the expensive
//! step — building an index, joining a pipeline's threads — happens
//! outside it.
//!
//! The two registries bound memory differently on purpose:
//!
//! * **Engines are evicted.** An engine is a pure function of its spec —
//!   rebuilding an evicted one loses nothing but time — so the registry
//!   keeps the `max_engines` most recently *used* (queried or created)
//!   and silently drops the rest, like any cache.
//! * **Sessions are refused.** A session's sliding window is
//!   irreplaceable state accumulated over its stream; evicting one
//!   destroys data the client cannot re-send. At capacity, opening a new
//!   session fails with `429` until the client deletes one.

use crate::streams::SessionPipeline;
use dod_core::telemetry::Counter;
use dod_datasets::AnyEngine;
use dod_shard::WalTelemetry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A resident engine: the queryable object plus the listing metadata it
/// was created with.
pub(crate) struct EngineEntry {
    /// The engine itself, shared with in-flight query handlers.
    pub engine: Arc<AnyEngine>,
    /// Canonical index spelling for listings (`mrpg:8`, `vptree`, …).
    pub index: String,
    /// LRU tick of the last create or query (relaxed: the LRU order is a
    /// heuristic, not a happens-before edge).
    last_used: AtomicU64,
}

/// Named engines under an LRU bound.
pub(crate) struct EngineRegistry {
    capacity: usize,
    clock: AtomicU64,
    entries: HashMap<String, Arc<EngineEntry>>,
}

impl EngineRegistry {
    pub fn new(capacity: usize) -> Self {
        EngineRegistry {
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            entries: HashMap::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks an engine up *for use*: clones the `Arc` and touches the
    /// LRU clock. Takes `&self`, so the serving path runs under the read
    /// lock.
    pub fn get(&self, name: &str) -> Option<Arc<EngineEntry>> {
        let entry = self.entries.get(name)?;
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        Some(Arc::clone(entry))
    }

    /// Looks an engine up *for inspection* (listings, `GET` info)
    /// without touching the LRU clock — reading about an engine is not
    /// using it.
    pub fn peek(&self, name: &str) -> Option<Arc<EngineEntry>> {
        self.entries.get(name).map(Arc::clone)
    }

    /// Installs (or replaces) an engine, evicting least-recently-used
    /// entries if the insert would exceed capacity. Returns whether the
    /// name was newly created and the evicted names, eviction order.
    pub fn insert(
        &mut self,
        name: &str,
        engine: Arc<AnyEngine>,
        index: String,
    ) -> (bool, Vec<String>) {
        let entry = Arc::new(EngineEntry {
            engine,
            index,
            last_used: AtomicU64::new(self.tick()),
        });
        let created = self.entries.insert(name.to_string(), entry).is_none();
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            // The new entry holds the freshest tick, so it is never the
            // minimum: an insert at capacity cannot evict itself.
            let coldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(n, _)| n.clone())
                .expect("len > capacity ≥ 1 implies entries");
            self.entries.remove(&coldest);
            evicted.push(coldest);
        }
        (created, evicted)
    }

    pub fn remove(&mut self, name: &str) -> Option<Arc<EngineEntry>> {
        self.entries.remove(name)
    }

    /// All entries, name-sorted, for deterministic listings and scrapes.
    pub fn sorted(&self) -> Vec<(String, Arc<EngineEntry>)> {
        let mut all: Vec<_> = self
            .entries
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(e)))
            .collect();
        all.sort_by(|(a, _), (b, _)| a.cmp(b));
        all
    }
}

/// A live ingest session: its pipeline plus the wire-side metadata a
/// listing reports.
pub(crate) struct SessionEntry {
    /// The running pipeline. Channel-fed with `&self` methods, so
    /// concurrent handlers share the entry without locking.
    pub pipeline: Box<dyn SessionPipeline>,
    /// The pinned vector dimension — the validation boundary for wire
    /// points. (A wrong-length point must be rejected at the route,
    /// because `Space::prepare` enforces the dimension with an assert on
    /// the pipeline's router thread.)
    pub dim: usize,
    /// Wire name of the session's metric (`l1`, `l2`, …).
    pub metric: &'static str,
    /// Shards the window is partitioned across.
    pub shards: usize,
    /// Points this session accepted over HTTP.
    pub ingested: Counter,
    /// Present iff the session is durable: its WAL counters (shared with
    /// the router thread) and the on-disk directory `DELETE` reclaims.
    pub durable: Option<DurableInfo>,
}

/// The server-side face of a durable session's WAL.
pub(crate) struct DurableInfo {
    /// The session's WAL counters, scraped by `/metrics`.
    pub telemetry: Arc<WalTelemetry>,
    /// Directory holding `wal.log`, `snapshot.bin` and `manifest.json`.
    pub dir: PathBuf,
}

impl DurableInfo {
    /// `true` once the session's WAL has failed and latched into
    /// fail-open: every append and snapshot error bumps `io_errors`, and
    /// the first one stops the log for the session's lifetime.
    pub fn degraded(&self) -> bool {
        self.telemetry.io_errors.get() > 0
    }
}

/// Identified ingest sessions under a hard capacity bound.
pub(crate) struct SessionRegistry {
    capacity: usize,
    next_id: u64,
    entries: HashMap<String, Arc<SessionEntry>>,
}

impl SessionRegistry {
    pub fn new(capacity: usize) -> Self {
        SessionRegistry {
            capacity: capacity.max(1),
            next_id: 1,
            entries: HashMap::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Reserves the next `s{n}` id without inserting anything — both
    /// create paths claim a slot *before* the entry exists (a durable
    /// session's directory is named after the id, and a create refused
    /// at capacity should spawn no pipeline threads), and must not hold
    /// the registry lock through the disk or thread-spawn work. At
    /// capacity the reservation is refused (the later
    /// [`mount`](Self::mount) re-checks anyway, in case sessions were
    /// created in between). Skipped ids are fine: ids are opaque, only
    /// uniqueness matters.
    pub fn reserve(&mut self) -> Option<String> {
        if self.entries.len() >= self.capacity {
            return None;
        }
        let id = format!("s{}", self.next_id);
        self.next_id += 1;
        Some(id)
    }

    /// Mounts a session under a caller-chosen id (a reserved id, or an
    /// id recovered from disk). Same capacity rule as
    /// [`reserve`](Self::reserve).
    /// A recovered `s{n}` id pushes `next_id` past `n`, so fresh opens
    /// can never collide with sessions that survived a restart.
    pub fn mount(
        &mut self,
        id: &str,
        entry: SessionEntry,
    ) -> Result<Arc<SessionEntry>, Box<SessionEntry>> {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(id) {
            return Err(Box::new(entry));
        }
        if let Some(n) = id.strip_prefix('s').and_then(|n| n.parse::<u64>().ok()) {
            self.next_id = self.next_id.max(n + 1);
        }
        let entry = Arc::new(entry);
        self.entries.insert(id.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    pub fn get(&self, id: &str) -> Option<Arc<SessionEntry>> {
        self.entries.get(id).map(Arc::clone)
    }

    /// Removes a session. The caller drops the returned `Arc` outside
    /// the registry lock — the last drop joins the pipeline's threads.
    pub fn remove(&mut self, id: &str) -> Option<Arc<SessionEntry>> {
        self.entries.remove(id)
    }

    /// All sessions in id order (`s1`, `s2`, …, `s10` — numeric, not
    /// lexicographic), for deterministic listings and scrapes.
    pub fn sorted(&self) -> Vec<(String, Arc<SessionEntry>)> {
        let mut all: Vec<_> = self
            .entries
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(e)))
            .collect();
        all.sort_by(|(a, _), (b, _)| (a.len(), a.as_str()).cmp(&(b.len(), b.as_str())));
        all
    }
}
