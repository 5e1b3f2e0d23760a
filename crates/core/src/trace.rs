//! Request-scoped tracing: spans, trace contexts and a bounded ring of
//! completed traces.
//!
//! A serving layer builds one [`TraceContext`] per request, carries the
//! request id (taken from the client or generated here), records
//! [`Span`]s for the stages the request passes through — socket read,
//! queue wait, dispatch, filter, verify — and finally resolves the
//! context into an immutable [`Trace`], which it keeps in a
//! [`TraceRing`].
//!
//! The design is std-only and allocation-light on purpose: span names
//! and field keys are `&'static str`, field values are counts (`u64`),
//! durations are monotonic ([`std::time::Instant`]) nanoseconds, and the
//! only per-request heap traffic is the span vector itself plus the id
//! string. Nothing here locks on the request path; the [`TraceRing`]
//! takes one short mutex per *completed* request, never per span.
//!
//! ```
//! use dod_core::trace::{TraceContext, TraceRing};
//! use std::sync::Arc;
//!
//! let ring = TraceRing::new(8);
//! let mut ctx = TraceContext::new("req-1");
//! let span = ctx.child("filter").with_field("candidates", 12);
//! span.finish(&mut ctx);
//! ring.record(Arc::new(ctx.finish("/v1/engines/{name}/query", 200)));
//! let traces = ring.snapshot();
//! assert_eq!(traces[0].spans[0].name, "filter");
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One finished span inside a [`Trace`]: what happened, when relative to
/// the request's start, for how long, and its counts.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (`"read"`, `"queue_wait"`, `"filter"`, …).
    pub name: &'static str,
    /// Monotonic offset from the trace's origin, in nanoseconds
    /// (clamped to the origin for spans that began before it, e.g. a
    /// queue wait).
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Key/count fields (candidates filtered, distance evaluations,
    /// bytes), in record order.
    pub fields: Vec<(&'static str, u64)>,
}

/// An in-flight span: created by [`TraceContext::child`], closed by
/// [`Span::finish`], which computes the monotonic duration and appends
/// the [`SpanRecord`] to the context.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    started: Instant,
    fields: Vec<(&'static str, u64)>,
}

impl Span {
    /// Attaches a count field (builder style).
    #[must_use]
    pub fn with_field(mut self, key: &'static str, value: u64) -> Span {
        self.fields.push((key, value));
        self
    }

    /// Closes the span now and appends its record to `ctx`.
    pub fn finish(self, ctx: &mut TraceContext) {
        let duration = self.started.elapsed();
        ctx.push(self.name, self.started, duration, self.fields);
    }
}

/// The per-request tracing state: the request id, the monotonic origin
/// every span offset is relative to, and the spans recorded so far.
/// Resolved into an immutable [`Trace`] by [`finish`](Self::finish).
#[derive(Debug)]
pub struct TraceContext {
    request_id: String,
    origin: Instant,
    spans: Vec<SpanRecord>,
}

impl TraceContext {
    /// A context whose clock starts now.
    pub fn new(request_id: impl Into<String>) -> Self {
        Self::starting_at(request_id, Instant::now())
    }

    /// A context whose clock started at `origin` (e.g. the instant the
    /// socket read began, captured before the request id was known).
    pub fn starting_at(request_id: impl Into<String>, origin: Instant) -> Self {
        TraceContext {
            request_id: request_id.into(),
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now.
    pub fn child(&self, name: &'static str) -> Span {
        Span {
            name,
            started: Instant::now(),
            fields: Vec::new(),
        }
    }

    /// Records an already-elapsed stage ending now — the shape for
    /// durations measured elsewhere (a queue wait observed at dequeue, a
    /// filter phase timed inside the engine) that should still appear as
    /// spans of this trace.
    pub fn record(
        &mut self,
        name: &'static str,
        duration: Duration,
        fields: Vec<(&'static str, u64)>,
    ) {
        let end = Instant::now();
        let start = end.checked_sub(duration).unwrap_or(end);
        self.push(name, start, duration, fields);
    }

    fn push(
        &mut self,
        name: &'static str,
        started: Instant,
        duration: Duration,
        fields: Vec<(&'static str, u64)>,
    ) {
        let start_nanos = started
            .checked_duration_since(self.origin)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64;
        self.spans.push(SpanRecord {
            name,
            start_nanos,
            duration_nanos: duration.as_nanos() as u64,
            fields,
        });
    }

    /// Resolves the context into its immutable [`Trace`]: total duration
    /// measured from the origin to now, spans in record order.
    pub fn finish(self, route: &'static str, status: u16) -> Trace {
        Trace {
            request_id: self.request_id,
            route,
            status,
            duration_nanos: self.origin.elapsed().as_nanos() as u64,
            spans: self.spans,
        }
    }
}

/// One completed, immutable request trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The id the request was answered under (`X-Request-Id`).
    pub request_id: String,
    /// The bounded-cardinality route label (a path pattern like
    /// `/v1/engines/{name}/query`, or a synthetic label like `<parse>`
    /// for requests rejected before routing).
    pub route: &'static str,
    /// The HTTP status answered.
    pub status: u16,
    /// End-to-end duration in nanoseconds, socket read to response
    /// written.
    pub duration_nanos: u64,
    /// The spans recorded along the way, in completion order.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// The span named `name`, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// A bounded in-memory ring of the most recent completed traces — the
/// store behind a debug endpoint. One short mutex around a `VecDeque` of
/// `Arc`s: push and evict are O(1), and a snapshot clones `Arc`s, not
/// spans.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<Arc<Trace>>>,
}

impl TraceRing {
    /// A ring keeping the `capacity` most recent traces (clamped to
    /// ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<Trace>> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.iter().cloned().collect()
    }

    /// Keeps one completed trace (shared, so the caller can still hand
    /// it on), evicting the oldest once the ring is full. Runs on the
    /// serving path, once per request.
    pub fn record(&self, trace: Arc<Trace>) {
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if guard.len() == self.capacity {
            guard.pop_front();
        }
        guard.push_back(trace);
    }
}

/// Validates a client-supplied request id: 1–128 bytes of ASCII
/// letters, digits, `-`, `_`, `.` or `:` — safe to echo into a response
/// header, a JSON log line and a debug endpoint without escaping.
/// Anything else returns `None` and the server generates an id instead.
pub fn sanitize_request_id(raw: &str) -> Option<&str> {
    let ok = (1..=128).contains(&raw.len())
        && raw
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'));
    ok.then_some(raw)
}

/// Generates a process-unique request id: a per-process random-ish seed
/// (wall clock ⊕ pid, fixed at first use) plus a monotone counter, so
/// ids are unique within a process and almost surely across restarts —
/// without any dependency on a randomness crate.
pub fn generate_request_id() -> String {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        // splitmix64 finalizer: spreads the timestamp bits so two close
        // restarts do not share a prefix.
        let mut z = nanos ^ (u64::from(std::process::id()) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{seed:016x}-{n:08x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_order_fields_and_parents() {
        let mut ctx = TraceContext::new("req-7");
        let outer = ctx.child("dispatch");
        let inner = ctx.child("engine").with_field("queries", 3);
        std::thread::sleep(Duration::from_millis(2));
        inner.finish(&mut ctx);
        outer.finish(&mut ctx);
        ctx.record(
            "filter",
            Duration::from_micros(250),
            vec![("candidates", 9)],
        );
        let trace = ctx.finish("/v1/engines/{name}/query", 200);
        assert_eq!(trace.request_id, "req-7");
        assert_eq!(trace.route, "/v1/engines/{name}/query");
        assert_eq!(trace.status, 200);
        assert!(trace.duration_nanos >= 2_000_000);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["engine", "dispatch", "filter"], "completion order");
        let engine = trace.span("engine").expect("recorded");
        assert_eq!(engine.fields, vec![("queries", 3)]);
        assert!(engine.duration_nanos >= 2_000_000);
        let dispatch = trace.span("dispatch").expect("recorded");
        assert!(dispatch.duration_nanos >= engine.duration_nanos);
        let filter = trace.span("filter").expect("recorded");
        assert_eq!(filter.duration_nanos, 250_000);
    }

    #[test]
    fn recorded_durations_longer_than_the_trace_clamp_to_origin() {
        let mut ctx = TraceContext::new("r");
        // A queue wait that predates the trace origin must clamp its
        // start offset to zero, never underflow.
        ctx.record("queue_wait", Duration::from_secs(5), Vec::new());
        let trace = ctx.finish("/x", 200);
        assert_eq!(trace.span("queue_wait").unwrap().start_nanos, 0);
        assert_eq!(
            trace.span("queue_wait").unwrap().duration_nanos,
            5_000_000_000
        );
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_traces() {
        let ring = TraceRing::new(3);
        assert_eq!(ring.capacity(), 3);
        for i in 0..5u16 {
            let ctx = TraceContext::new(format!("req-{i}"));
            ring.record(Arc::new(ctx.finish("/x", 200 + i)));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        let ids: Vec<&str> = snap.iter().map(|t| t.request_id.as_str()).collect();
        assert_eq!(ids, ["req-2", "req-3", "req-4"], "oldest evicted first");
    }

    #[test]
    fn request_id_sanitization_is_strict() {
        assert_eq!(sanitize_request_id("abc-123_X.y:z"), Some("abc-123_X.y:z"));
        for bad in ["", "has space", "crlf\r\n", "quote\"", "emoji🎈", "näh"] {
            assert_eq!(sanitize_request_id(bad), None, "{bad:?} accepted");
        }
        let long = "a".repeat(129);
        assert_eq!(sanitize_request_id(&long), None, "length is capped");
        let ok = "a".repeat(128);
        assert!(sanitize_request_id(&ok).is_some());
    }

    #[test]
    fn generated_ids_are_unique_and_sanitizable() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let id = generate_request_id();
            assert!(sanitize_request_id(&id).is_some(), "{id:?}");
            assert!(seen.insert(id), "duplicate id generated");
        }
    }
}
