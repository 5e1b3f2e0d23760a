//! `dod_server` — the std-only HTTP/1.1 front door over the detection
//! stack.
//!
//! Every entry point below this crate is in-process: [`dod_core::Engine`]
//! answers batch queries, [`dod_shard::IngestPipeline`] runs a sharded
//! sliding window. This crate puts both behind one TCP listener so the
//! system can actually *serve* — no framework, no async runtime, no
//! dependencies beyond `std` (matching the workspace's vendored-stubs
//! constraint): a blocking accept loop fans connections out to a fixed
//! [`dod_core::parallel::WorkerPool`], requests are content-length framed
//! HTTP/1.1 with keep-alive, and every response body speaks the shared
//! [`dod_wire`] JSON dialect.
//!
//! # Resources and routes
//!
//! The `/v1` API is resource-oriented: a registry of **named engines**
//! (batch detectors over generated datasets, LRU-bounded) and a registry
//! of **ingest sessions** (sharded sliding windows, capacity-bounded),
//! each with its own lifecycle routes. Every engine and session is
//! created and addressed through these routes; the builder only
//! configures the server.
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `PUT /v1/engines/{name}` | `{"family", "n", "seed"?, "index"?, "load"?}` | `201`/`200` with the engine summary (+ LRU `"evicted"` names); an unknown key is a `400` naming it |
//! | `GET /v1/engines` | — | `{"engines": [{name, index, points, index_bytes}, …], "capacity"}` |
//! | `GET /v1/engines/{name}` | — | one engine summary |
//! | `DELETE /v1/engines/{name}` | — | `{"deleted": name}` |
//! | `POST /v1/engines/{name}/query` | `{"queries": [{"r": 2.0, "k": 5}, …]}` | `{"results": [{"outliers": […], …}, …]}` via [`Engine::query_many`](dod_core::Engine::query_many) |
//! | `POST /v1/sessions` | `{"metric", "dim", "r", "k", "window", "shards"?, …}` | `201` with the session summary (server-assigned id); an unknown key is a `400` naming it |
//! | `GET /v1/sessions` | — | `{"sessions": [{id, metric, dim, shards, ingested, durable, durability?}, …], "capacity"}` |
//! | `GET /v1/sessions/{id}` | — | one session summary |
//! | `DELETE /v1/sessions/{id}` | — | `{"deleted": id}` — joins the session's pipeline |
//! | `POST /v1/sessions/{id}/ingest` | `{"points": [[…], …]}` | `{"accepted": n}` — enqueued into the [`IngestPipeline`](dod_shard::IngestPipeline); durable sessions add `"durable": bool` and answer only after a WAL commit barrier |
//! | `GET /v1/sessions/{id}/report` | — | `{"outliers": [seq, …]}`, snapshot-consistent with every prior ingest |
//! | `GET /healthz` | — | `{"status": "ok", "engines": n, "sessions": n}` |
//! | `GET /metrics` | — | Prometheus text: per-route×status HTTP counters + latency histograms, worker-pool and pipeline gauges, per-engine query telemetry, per-session stream counters, ghost rates and WAL counters |
//! | `GET /v1/debug/traces` | — | the most recent request traces (`?min_ms=`, `?route=` filters) from an in-memory ring |
//! | `GET /v1/debug/health` | — | the health document: engine footprints and each session's shard balance — owned and ghost counts, skews (`?engine=`, `?session=` filters) |
//!
//! [`routes::API_ROUTES`] lists these routes, and dispatch serves exactly
//! them. Another method on a listed path answers `405`, naming the
//! path's methods in table order in its message (`use PUT, GET or
//! DELETE`) and in an `Allow` header; a path matching no pattern answers
//! `404`.
//!
//! # Observability
//!
//! Every request is traced end to end with
//! [`dod_core::trace`]: the worker-pool queue wait, socket
//! read, route dispatch, and — inside the engine and session handlers —
//! the paper's filter/verify phase split and per-slide ingest work, each
//! as a named span with count fields. The request id is taken from an
//! inbound `X-Request-Id` header (sanitized) or generated, and echoed on
//! every response. An engine query's `filter` span carries its distance
//! evaluations and graph hops and its `verify` span its distance
//! evaluations, so one trace says both how long a query took and what
//! work it did. Each completed trace goes to
//!
//! * a bounded in-memory ring served by `GET /v1/debug/traces`
//!   ([`ServerBuilder::trace_capacity`]),
//! * and an optional JSON-lines access log ([`ServerBuilder::access_log`],
//!   off by default) — one `dod_wire` object per line.
//!
//! Requests rejected before routing (timeouts, oversized bodies, parse
//! failures) are traced and counted too, under the synthetic route label
//! `<parse>`, so `/metrics` totals add up to connections served.
//!
//! Responses are **deterministic**: query and report bodies carry no
//! timings (latency lives in `/metrics`), so the HTTP answer for a given
//! dataset and query is byte-identical to encoding the in-process answer
//! with [`routes::encode`] — which is exactly what the integration tests
//! assert. Malformed input — bad JSON, an oversized body, a point of the
//! wrong dimension or family — answers 4xx with a
//! [`DodError`]-derived `{"error": {"kind", "message"}}`
//! body; route handlers cannot panic, and a worker that somehow does is
//! caught by the pool.
//!
//! # Quickstart
//!
//! ```
//! use dod_server::DodServer;
//! use std::io::{Read, Write};
//!
//! let handle = DodServer::builder()
//!     .workers(2)
//!     .bind("127.0.0.1:0")? // ephemeral port
//!     .start();
//! // One request per connection; answers the whole raw response.
//! let send = |method: &str, path: &str, body: &str| -> std::io::Result<String> {
//!     let mut conn = std::net::TcpStream::connect(handle.addr())?;
//!     let len = body.len();
//!     write!(conn, "{method} {path} HTTP/1.1\r\ncontent-length: {len}\r\nconnection: close\r\n\r\n{body}")?;
//!     let mut reply = String::new();
//!     conn.read_to_string(&mut reply)?;
//!     Ok(reply)
//! };
//! let spec = r#"{"family": "sift", "n": 300, "seed": 7, "index": "vptree"}"#;
//! let reply = send("PUT", "/v1/engines/sift", spec)?;
//! assert!(reply.starts_with("HTTP/1.1 201 Created"), "{reply}");
//! let reply = send("POST", "/v1/engines/sift/query", r#"{"queries": [{"r": 100.0, "k": 40}]}"#)?;
//! assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
//! assert!(reply.contains("\"results\""), "{reply}");
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod durable;
mod health;
mod http;
mod prom;
mod registry;
pub mod routes;
mod sink;
mod streams;

pub use routes::{dod_error_kind, dod_error_status, encode, error_body, http_error_kind};

use dod_core::parallel::{PoolStats, WorkerPool};
use dod_core::telemetry::{Counter, Histogram};
use dod_core::trace::{generate_request_id, sanitize_request_id, Trace, TraceContext, TraceRing};
use dod_core::DodError;
use registry::{EngineRegistry, SessionRegistry};
use routes::Route;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Everything the route handlers see: the resource registries plus the
/// serving counters. Shared across workers; the registries are the only
/// mutable parts, each behind its own `RwLock` so the hot serving paths
/// (query, ingest, report) take a read lock just long enough to clone an
/// `Arc`. The locks are taken only through [`State::engines`],
/// [`State::engines_mut`], [`State::sessions`] and
/// [`State::sessions_mut`].
pub(crate) struct State {
    engines: RwLock<EngineRegistry>,
    sessions: RwLock<SessionRegistry>,
    pub(crate) http: HttpMetrics,
    pub(crate) max_query_threads: usize,
    /// Queue depth new wire-opened sessions inherit for their pipelines.
    pub(crate) pipeline_queue: usize,
    /// Root of durable-session storage (`{data_dir}/sessions/{id}`);
    /// `None` means durable session creation answers 503.
    pub(crate) data_dir: Option<PathBuf>,
    /// The last-N completed request traces, served by
    /// `GET /v1/debug/traces`.
    pub(crate) trace_ring: TraceRing,
    /// The optional JSON-lines access log: one line per completed trace.
    access_log: Option<sink::AccessLog>,
    /// Saturation gauges of the connection worker pool.
    pub(crate) pool_stats: Arc<PoolStats>,
    /// Failed removals of durable-session directories (DELETE or the
    /// bind-time sweep of aborted creations). Non-zero means on-disk
    /// state the operator believes deleted may still exist.
    pub(crate) cleanup_errors: Counter,
    shutting_down: AtomicBool,
}

// A panic under a registry lock poisons it, but every registry update
// keeps the map valid at each step, so the accessors take a poisoned
// guard over instead of failing every later request on that registry.
impl State {
    pub(crate) fn engines(&self) -> RwLockReadGuard<'_, EngineRegistry> {
        self.engines.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn engines_mut(&self) -> RwLockWriteGuard<'_, EngineRegistry> {
        self.engines.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn sessions(&self) -> RwLockReadGuard<'_, SessionRegistry> {
        self.sessions.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn sessions_mut(&self) -> RwLockWriteGuard<'_, SessionRegistry> {
        self.sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Books a completed request under `route` in the HTTP metrics and
    /// hands its trace to the ring and the access log.
    fn publish(&self, route: Route, trace: &Arc<Trace>) {
        self.http
            .record(route, trace.status, trace.duration_nanos as f64 / 1e9);
        self.trace_ring.record(Arc::clone(trace));
        if let Some(log) = &self.access_log {
            log.record(trace);
        }
    }
}

/// The exact response statuses this server emits, each its own
/// `/metrics` label; anything else (future statuses) lands in the
/// shared `"other"` slot, so cardinality stays `routes × 14` by
/// construction.
pub(crate) const TRACKED_STATUSES: [u16; 13] = [
    200, 201, 400, 404, 405, 408, 413, 429, 431, 500, 501, 503, 505,
];

/// HTTP-layer telemetry: connections, requests by route × status, and
/// request latency by route — plus the worker-pool queue wait, which
/// has no route (it is paid before the request is even read), and the
/// response-write time, which falls after the request's trace closes.
pub(crate) struct HttpMetrics {
    pub(crate) connections: Counter,
    requests: Vec<[Counter; TRACKED_STATUSES.len() + 1]>, // indexed by Route as usize
    latency: Vec<Histogram>,                              // indexed by Route as usize
    pub(crate) queue_wait: Histogram,
    pub(crate) response_write_nanos: Counter,
}

impl HttpMetrics {
    fn new() -> Self {
        HttpMetrics {
            connections: Counter::new(),
            requests: Route::ALL
                .iter()
                .map(|_| std::array::from_fn(|_| Counter::new()))
                .collect(),
            latency: Route::ALL.iter().map(|_| Histogram::new()).collect(),
            queue_wait: Histogram::new(),
            response_write_nanos: Counter::new(),
        }
    }

    fn status_slot(status: u16) -> usize {
        TRACKED_STATUSES
            .iter()
            .position(|&s| s == status)
            .unwrap_or(TRACKED_STATUSES.len())
    }

    fn record(&self, route: Route, status: u16, duration_secs: f64) {
        self.requests[route as usize][Self::status_slot(status)].inc();
        self.latency[route as usize].observe_secs(duration_secs);
    }

    /// Books the time since `start` as response-write time.
    fn record_write(&self, start: Instant) {
        self.response_write_nanos
            .add(start.elapsed().as_nanos() as u64);
    }

    /// `(status label, count)` per tracked status of the route; the
    /// final slot is labeled `other`.
    pub(crate) fn by_status(&self, route: Route) -> impl Iterator<Item = (String, u64)> + '_ {
        self.requests[route as usize]
            .iter()
            .enumerate()
            .map(|(i, counter)| {
                let label = TRACKED_STATUSES
                    .get(i)
                    .map_or_else(|| "other".to_string(), u16::to_string);
                (label, counter.get())
            })
    }

    pub(crate) fn latency(&self, route: Route) -> &Histogram {
        &self.latency[route as usize]
    }
}

/// Configures a [`DodServer`]. Created by [`DodServer::builder`].
pub struct ServerBuilder {
    workers: usize,
    queue: usize,
    max_body_bytes: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    request_timeout: Duration,
    keep_alive_requests: usize,
    max_query_threads: usize,
    max_engines: usize,
    max_sessions: usize,
    data_dir: Option<PathBuf>,
    access_log: Option<Box<dyn std::io::Write + Send>>,
    trace_capacity: usize,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        ServerBuilder {
            workers: cores,
            queue: 1024,
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(30),
            keep_alive_requests: 1000,
            max_query_threads: cores,
            max_engines: 8,
            max_sessions: 16,
            data_dir: None,
            access_log: None,
            trace_capacity: 256,
        }
    }
}

impl ServerBuilder {
    /// Resident-engine capacity (default 8, clamped to ≥ 1). Creating an
    /// engine past the bound evicts the least recently *used* one — an
    /// engine is a pure function of its spec, so eviction costs a
    /// rebuild, never data.
    pub fn max_engines(mut self, n: usize) -> Self {
        self.max_engines = n.max(1);
        self
    }

    /// Concurrent ingest-session capacity (default 16, clamped to ≥ 1).
    /// Sessions are *refused* past the bound, never evicted: a session's
    /// sliding window is stream state the client cannot re-send.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n.max(1);
        self
    }

    /// Enables **durable sessions**: a `POST /v1/sessions` body carrying
    /// `"durable": true` gets a write-ahead log, periodic window
    /// snapshots and a spec manifest under `{dir}/sessions/{id}`, and
    /// [`bind`](Self::bind) recovers every session found there — same
    /// id, same window, same clock — before the server accepts a single
    /// connection. Without a data directory, durable creation answers
    /// `503`. Recovery failures (structural corruption, capacity
    /// exhaustion — *not* torn log tails, which are truncated as normal
    /// crash artifacts) fail the bind rather than silently dropping
    /// state.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Worker threads handling connections (default: the machine's
    /// parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Pending-connection queue depth before the accept loop blocks
    /// (backpressure; default 1024). Also the ingest pipeline's queue.
    pub fn queue(mut self, queue: usize) -> Self {
        self.queue = queue.max(1);
        self
    }

    /// Maximum request-body bytes (default 8 MiB); larger bodies answer
    /// `413` before a single body byte is buffered.
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Socket read timeout — bounds how long a slow or idle client can
    /// hold a worker between bytes (default 10s; zero disables the
    /// per-read cap, leaving only the
    /// [`request_timeout`](Self::request_timeout) deadline).
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Socket write timeout for responses (default 10s; zero disables
    /// the per-send cap, leaving only the
    /// [`request_timeout`](Self::request_timeout) deadline).
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = t;
        self
    }

    /// Whole-exchange deadline: the total time a client gets to deliver
    /// one complete request (head and body), and separately to accept
    /// its response (default 30s; clamped to ≥ 1ms — the deadline is
    /// always enforced, zero does not disable it). The per-read
    /// [`read_timeout`](Self::read_timeout) and per-send
    /// [`write_timeout`](Self::write_timeout) alone would let a client
    /// dribble or drain one byte per interval and hold a worker
    /// indefinitely — this bounds each sum.
    pub fn request_timeout(mut self, t: Duration) -> Self {
        self.request_timeout = t.max(Duration::from_millis(1));
        self
    }

    /// Upper bound on the per-query `"threads"` a query body may
    /// request (default: the machine's parallelism; clamped to ≥ 1).
    /// Wire values above the cap are clamped, not rejected, so the cap
    /// bounds resource use without breaking portable clients.
    pub fn max_query_threads(mut self, n: usize) -> Self {
        self.max_query_threads = n.max(1);
        self
    }

    /// Requests served per connection before it is closed (default 1000).
    pub fn keep_alive_requests(mut self, n: usize) -> Self {
        self.keep_alive_requests = n.max(1);
        self
    }

    /// Writes a JSON-lines access log: one object per completed request
    /// (request id, route, status, duration, and every span) in the
    /// `dod_wire` dialect, flushed per line. Off by default — request
    /// traces still reach the in-memory ring without it.
    pub fn access_log(mut self, writer: impl std::io::Write + Send + 'static) -> Self {
        self.access_log = Some(Box::new(writer));
        self
    }

    /// Completed traces retained for `GET /v1/debug/traces` (default
    /// 256, clamped to ≥ 1). Memory is bounded by this times the spans
    /// per request, which the handlers keep small and fixed.
    pub fn trace_capacity(mut self, n: usize) -> Self {
        self.trace_capacity = n.max(1);
        self
    }

    /// Binds the listener (use port `0` for an ephemeral port) and
    /// recovers any durable sessions under the data directory. The server
    /// is not accepting yet — call [`DodServer::start`] or
    /// [`DodServer::run`].
    pub fn bind(self, addr: &str) -> Result<DodServer, DodError> {
        let listener = TcpListener::bind(addr)?;
        let mut sessions = SessionRegistry::new(self.max_sessions);
        let cleanup_errors = Counter::new();
        if let Some(data_dir) = &self.data_dir {
            durable::recover_sessions(data_dir, self.queue, &mut sessions, &cleanup_errors)?;
        }
        // The pool is created at bind time (not in run()) so its
        // saturation gauges are part of State and visible to /metrics
        // from the first scrape.
        let pool = WorkerPool::new(self.workers, self.queue);
        let state = Arc::new(State {
            engines: RwLock::new(EngineRegistry::new(self.max_engines)),
            sessions: RwLock::new(sessions),
            http: HttpMetrics::new(),
            max_query_threads: self.max_query_threads,
            pipeline_queue: self.queue,
            data_dir: self.data_dir,
            trace_ring: TraceRing::new(self.trace_capacity),
            access_log: self.access_log.map(sink::AccessLog::new),
            pool_stats: pool.stats(),
            cleanup_errors,
            shutting_down: AtomicBool::new(false),
        });
        Ok(DodServer {
            listener,
            state,
            pool,
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            request_timeout: self.request_timeout,
            max_body_bytes: self.max_body_bytes,
            keep_alive_requests: self.keep_alive_requests,
        })
    }
}

/// A bound (but not yet accepting) server. See the [crate docs](self)
/// for the protocol and a quickstart.
pub struct DodServer {
    listener: TcpListener,
    state: Arc<State>,
    pool: WorkerPool,
    read_timeout: Duration,
    write_timeout: Duration,
    request_timeout: Duration,
    max_body_bytes: usize,
    keep_alive_requests: usize,
}

impl DodServer {
    /// Starts configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The bound address (read the ephemeral port here after binding
    /// `127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has an address")
    }

    /// Serves until [`ServerHandle::shutdown`] — blocking the calling
    /// thread. Most callers want [`start`](Self::start) instead.
    pub fn run(self) {
        let pool = self.pool;
        let conn_cfg = ConnConfig {
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            request_timeout: self.request_timeout,
            max_body_bytes: self.max_body_bytes,
            keep_alive_requests: self.keep_alive_requests,
        };
        for conn in self.listener.incoming() {
            if self.state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = Arc::clone(&self.state);
            let submitted = Instant::now();
            let accepted =
                pool.execute(move || handle_connection(stream, &state, conn_cfg, submitted));
            if !accepted {
                break;
            }
        }
        // WorkerPool::drop drains the queue and joins every worker: all
        // accepted connections finish before run() returns.
    }

    /// Spawns the accept loop on a background thread and returns the
    /// handle that owns graceful shutdown.
    pub fn start(self) -> ServerHandle {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            state,
            thread: Some(thread),
        }
    }
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (in-flight requests finish; the listener closes).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // The accept loop is blocked in accept(): wake it with one
        // throwaway connection so it observes the flag. A listener bound
        // to the unspecified address (0.0.0.0 / [::]) is not connectable
        // at that address on every platform — aim at loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The slice a worker waits in for a connection's next request. Between
/// slices it checks whether it is needed elsewhere (queued connections,
/// shutdown), so an idle client holds a worker for at most this long once
/// someone else wants it.
const IDLE_POLL: Duration = Duration::from_millis(10);

#[derive(Clone, Copy)]
struct ConnConfig {
    read_timeout: Duration,
    write_timeout: Duration,
    request_timeout: Duration,
    max_body_bytes: usize,
    keep_alive_requests: usize,
}

/// A whole-exchange deadline over per-op socket timeouts: a socket
/// timeout only bounds the gap between bytes, so a slowloris client
/// dribbling (or a slow reader draining) one byte per interval would
/// hold a worker of the fixed pool forever. Armed once per request or
/// response; every op first shrinks its socket timeout to the time left.
#[derive(Clone, Copy)]
struct Deadline {
    /// Per-op cap between bytes (the configured read/write timeout).
    per_op: Duration,
    /// Absolute deadline for the exchange phase in progress.
    at: std::time::Instant,
}

impl Deadline {
    fn new(per_op: Duration, budget: Duration) -> Self {
        Deadline {
            per_op,
            at: std::time::Instant::now() + budget,
        }
    }

    /// Starts the clock for the next request or response.
    fn arm(&mut self, budget: Duration) {
        self.at = std::time::Instant::now() + budget;
    }

    /// The socket timeout for the next op, or `TimedOut` once spent.
    /// Never zero: a zero socket timeout means "no timeout". A zero
    /// *per-op* cap keeps its historical meaning — no per-op timeout,
    /// the whole-exchange deadline alone bounds the op.
    fn op_budget(&self, what: &str) -> std::io::Result<Duration> {
        let remaining = self.at.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("{what} deadline exceeded"),
            ));
        }
        let capped = if self.per_op.is_zero() {
            remaining
        } else {
            remaining.min(self.per_op)
        };
        Ok(capped.max(Duration::from_millis(1)))
    }
}

/// The read half of a connection under its request [`Deadline`].
struct DeadlineStream {
    inner: TcpStream,
    deadline: Deadline,
}

impl std::io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner
            .set_read_timeout(Some(self.deadline.op_budget("request")?))?;
        self.inner.read(buf)
    }
}

/// The write half under its response [`Deadline`] — otherwise `write_all`
/// makes partial progress inside every per-send timeout and never errors.
struct DeadlineWriter {
    inner: TcpStream,
    deadline: Deadline,
}

impl std::io::Write for DeadlineWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner
            .set_write_timeout(Some(self.deadline.op_budget("response")?))?;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Waits for the first byte of a connection's next request — its first
/// one included — in [`IDLE_POLL`] slices, so an idle client cannot park
/// a worker that others need: after each empty slice the connection
/// closes without a response (`Ok(false)`, as if the client had hung up)
/// when a connection is queued for a worker or the server is shutting
/// down. A client idle for the whole read budget — `read_timeout`, or the
/// request deadline when that is shorter or the per-read cap is disabled
/// — gets a single 408.
fn await_next_request(
    reader: &mut BufReader<DeadlineStream>,
    state: &State,
) -> Result<bool, http::HttpError> {
    let deadline = reader.get_ref().deadline;
    // The budget one blocking read would have had.
    let idle_until = Instant::now() + deadline.op_budget("request").unwrap_or_default();
    reader.get_mut().deadline.per_op = IDLE_POLL;
    let waited = loop {
        match http::await_request(reader) {
            Err(e) if e.status == 408 && Instant::now() < idle_until => {
                if state.pool_stats.queue_depth() > 0 || state.shutting_down.load(Ordering::SeqCst)
                {
                    break Ok(false);
                }
            }
            other => break other,
        }
    };
    reader.get_mut().deadline.per_op = deadline.per_op;
    waited
}

/// Serves one connection: a keep-alive loop of read → dispatch → write,
/// each request traced from the socket in. Never panics on client
/// input; on protocol errors it answers once and closes.
///
/// `submitted` is when the accept loop enqueued the connection: its
/// elapsed time at entry is the worker-pool queue wait, recorded once
/// per connection (as a histogram observation and as the first
/// request's `queue_wait` span).
fn handle_connection(stream: TcpStream, state: &State, cfg: ConnConfig, submitted: Instant) {
    state.http.connections.inc();
    let queue_wait = submitted.elapsed();
    state.http.queue_wait.observe_secs(queue_wait.as_secs_f64());
    let mut first_request = true;
    let _ = stream.set_nodelay(true);
    // Socket timeouts are armed per op by the Deadline wrappers below.
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(DeadlineStream {
        inner: read_half,
        deadline: Deadline::new(cfg.read_timeout, cfg.request_timeout),
    });
    let mut writer = DeadlineWriter {
        inner: stream,
        deadline: Deadline::new(cfg.write_timeout, cfg.request_timeout),
    };
    for served in 0..cfg.keep_alive_requests {
        // Honor shutdown between requests: in-flight requests finish, but
        // an open keep-alive connection must not demand service forever.
        // (A worker waiting for a request observes this within
        // IDLE_POLL; see await_next_request.)
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // Each request gets a fresh deadline; within it, every read is
        // still individually bounded by cfg.read_timeout.
        reader.get_mut().deadline.arm(cfg.request_timeout);
        // The request's clock starts at its first byte: the wait before
        // it is the connection idling, not request time.
        let waited = await_next_request(&mut reader, state);
        let read_start = Instant::now();
        let read = match waited {
            Ok(true) => http::read_request(&mut reader, cfg.max_body_bytes),
            Ok(false) => Ok(None),
            Err(e) => Err(e),
        };
        match read {
            Ok(None) => break, // clean close between requests
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive()
                    && served + 1 < cfg.keep_alive_requests
                    && !state.shutting_down.load(Ordering::SeqCst);
                let request_id = req
                    .header("x-request-id")
                    .and_then(sanitize_request_id)
                    .map(str::to_string)
                    .unwrap_or_else(generate_request_id);
                let mut ctx = TraceContext::starting_at(request_id, read_start);
                if std::mem::take(&mut first_request) {
                    ctx.record("queue_wait", queue_wait, Vec::new());
                }
                ctx.record(
                    "read",
                    read_start.elapsed(),
                    vec![("body_bytes", req.body.len() as u64)],
                );
                let dispatch_span = ctx.child("dispatch");
                let (route, resp) = routes::dispatch(state, &req, &mut ctx);
                dispatch_span.finish(&mut ctx);
                // Account and publish the trace *before* the response
                // goes out: once the client has its answer, a scrape of
                // /metrics or /v1/debug/traces must already see this
                // request. The traced duration therefore excludes the
                // response write, which is booked on its own below.
                let trace = Arc::new(ctx.finish(route.pattern(), resp.status));
                state.publish(route, &trace);
                writer.deadline.arm(cfg.request_timeout);
                let write_start = Instant::now();
                let wrote = http::write_response(
                    &mut writer,
                    resp.status,
                    resp.content_type,
                    &resp.body,
                    keep_alive,
                    Some(&trace.request_id),
                    resp.allow.as_deref(),
                );
                state.http.record_write(write_start);
                if wrote.is_err() || !keep_alive {
                    break;
                }
            }
            Err(e) => {
                // One typed answer (408 on timeouts, 4xx/5xx otherwise),
                // then close: framing is unreliable after a parse error.
                // The request never reached routing, so it is traced and
                // counted under the synthetic `<parse>` route — totals
                // still add up.
                let mut ctx = TraceContext::starting_at(generate_request_id(), read_start);
                if std::mem::take(&mut first_request) {
                    ctx.record("queue_wait", queue_wait, Vec::new());
                }
                ctx.record("read", read_start.elapsed(), Vec::new());
                let trace = Arc::new(ctx.finish(Route::Parse.pattern(), e.status));
                state.publish(Route::Parse, &trace);
                let body = error_body(http_error_kind(e.status), &e.message);
                writer.deadline.arm(cfg.request_timeout);
                let write_start = Instant::now();
                let _ = http::write_response(
                    &mut writer,
                    e.status,
                    "application/json",
                    body.as_bytes(),
                    false,
                    Some(&trace.request_id),
                    None,
                );
                state.http.record_write(write_start);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic while a registry's write lock is held poisons the lock.
    /// The registry itself is still valid, so every later request that
    /// takes either lock is answered as before, not failed.
    #[test]
    fn a_panic_under_a_registry_lock_fails_no_later_request() {
        let server = DodServer::builder().workers(1).bind("127.0.0.1:0");
        let state = Arc::clone(&server.expect("bind").state);
        let poisoner = Arc::clone(&state);
        let panicked = std::thread::spawn(move || {
            let _engines = poisoner.engines.write();
            let _sessions = poisoner.sessions.write();
            panic!("a handler panics under both registry locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(state.engines.is_poisoned() && state.sessions.is_poisoned());
        let session = r#"{"metric":"l2","dim":1,"r":1,"k":2,"window":{"count":16}}"#;
        for (method, path, body) in [
            (
                "PUT",
                "/v1/engines/e",
                r#"{"family":"sift","n":100,"seed":1}"#,
            ),
            ("POST", "/v1/sessions", session),
            ("GET", "/v1/engines", ""),
            ("GET", "/metrics", ""),
            ("GET", "/v1/debug/health", ""),
        ] {
            let req = http::Request {
                method: method.to_string(),
                path: path.to_string(),
                query: String::new(),
                http10: false,
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            };
            let (_, resp) = routes::dispatch(&state, &req, &mut TraceContext::new("poisoned"));
            let text = String::from_utf8_lossy(&resp.body);
            assert!(resp.status < 300, "{method} {path}: {} {text}", resp.status);
            if path == "/v1/engines" {
                assert!(text.contains(r#""name":"e""#), "{text}");
            }
        }
    }
}
