//! The ingest sessions behind `/v1/sessions/{id}`: a
//! [`ShardedStreamDetector`] over any served vector metric, running on
//! its [`IngestPipeline`] threads.
//!
//! The metric is chosen once per session. [`open`] holds the server's one
//! per-metric `match` and hands the metric type to the generic
//! [`open_with`], which derives the session from its creation body — for
//! a volatile create, a durable create and bind-time recovery alike.
//! From then on the session is a [`SessionPipeline`] trait object: a
//! request pays one virtual call, while every distance evaluation stays
//! compiled for its metric.
//!
//! Every shard of a session counts its window exhaustively, so answers
//! are exact without a verification step.
//!
//! Only vector spaces are served — points travel as JSON number arrays;
//! a string-space session has no natural wire shape here and stays an
//! in-process API.

use crate::registry::{DurableInfo, SessionEntry};
use dod_core::telemetry::Counter;
use dod_core::{DodError, Query};
use dod_metrics::{Angular, MetricKind, VectorMetric, L1, L2, L4};
use dod_shard::{
    CommitAck, DurableSession, HealthReport, IngestPipeline, PipelineGauges, ShardSpec,
    ShardedStreamDetector,
};
use dod_stream::{Backend, VectorSpace, WindowSpec};
use dod_wire::shapes::{SessionCreateRequest, WindowShape};
use std::path::Path;
use std::sync::Arc;

/// A running session, as route handlers and `/metrics` scrapers call it.
/// Every call takes `&self`: the pipeline is channel-fed, so concurrent
/// handlers need no lock. Two calls are read barriers: `outliers` for the
/// answer and `health` for every counter; `gauges` reads without one.
pub(crate) trait SessionPipeline: Send + Sync {
    /// Enqueues a run of points (dimension already validated by the
    /// route) at consecutive ticks.
    fn insert_many(&self, points: Vec<Vec<f32>>) -> Result<(), DodError>;

    /// Commit barrier: blocks until every op enqueued before the call is
    /// WAL-committed (see [`IngestPipeline::commit`]). The durable ingest
    /// route answers 200 only after this returns — the ack *is* the
    /// durability promise.
    fn commit(&self) -> Result<CommitAck, DodError>;

    /// Snapshot-consistent outliers as global stream seqs, ascending.
    fn outliers(&self) -> Result<Vec<u64>, DodError>;

    /// The topology's health document — per-shard occupancy and
    /// counters plus ghost routing — collected at a read-only
    /// barrier (never advances shard clocks; see
    /// [`IngestPipeline::health`]). One call is one consistent cut:
    /// summed counters ([`HealthReport::stats`]) and ghost accounting
    /// ([`HealthReport::routes`]) describe the same slide boundary.
    fn health(&self) -> Result<HealthReport, DodError>;

    /// The pipeline's live queue/routing gauges (lock-free reads, never
    /// block on the pipeline threads).
    fn gauges(&self) -> Arc<PipelineGauges>;
}

impl<M: VectorMetric + Clone + 'static> SessionPipeline for IngestPipeline<VectorSpace<M>> {
    fn insert_many(&self, points: Vec<Vec<f32>>) -> Result<(), DodError> {
        IngestPipeline::insert_many(self, points)
    }

    fn commit(&self) -> Result<CommitAck, DodError> {
        IngestPipeline::commit(self)
    }

    fn outliers(&self) -> Result<Vec<u64>, DodError> {
        IngestPipeline::outliers(self)
    }

    fn health(&self) -> Result<HealthReport, DodError> {
        IngestPipeline::health(self)
    }

    fn gauges(&self) -> Arc<PipelineGauges> {
        IngestPipeline::gauges(self)
    }
}

/// Moves an opened session onto its pipeline threads, given the bounded
/// queue length.
type Spawn = Box<dyn FnOnce(usize) -> Box<dyn SessionPipeline>>;

/// A session opened from its creation body whose pipeline threads have
/// not started yet, so a volatile create can reserve its id between
/// validation and spawn.
pub(crate) struct OpenSession {
    metric: &'static str,
    dim: usize,
    shards: usize,
    durable: Option<DurableInfo>,
    spawn: Spawn,
}

impl OpenSession {
    /// Starts the pipeline threads (`queue` pending commands) and wraps
    /// the session as a registry entry. `ingested` starts at zero on
    /// every open: it counts points accepted over HTTP *by this process*
    /// — the window itself is what recovery restores.
    pub(crate) fn start(self, queue: usize) -> SessionEntry {
        SessionEntry {
            pipeline: (self.spawn)(queue),
            dim: self.dim,
            metric: self.metric,
            shards: self.shards,
            ingested: Counter::new(),
            durable: self.durable,
        }
    }
}

/// The error message for a metric name no space answers to.
pub(crate) fn unknown_metric(name: &str) -> String {
    format!("unknown metric {name:?}; one of: l1, l2, l4, angular")
}

/// Opens the session a creation body describes: volatile when `dir` is
/// `None`, otherwise durable in `dir` (created fresh, or recovered from
/// the WAL and snapshot it holds). The body's wire limits are the
/// caller's; the checks here run in the order `POST /v1/sessions` has
/// always made them.
///
/// Only the vector metrics are servable ([`MetricKind::Edit`] has no
/// JSON point shape, and no served space uses
/// [`MetricKind::Chebyshev`]); others answer [`DodError::InvalidSpec`].
pub(crate) fn open(
    create: &SessionCreateRequest,
    dir: Option<&Path>,
) -> Result<OpenSession, DodError> {
    let Some(kind) = MetricKind::parse_wire(&create.metric) else {
        return Err(DodError::InvalidSpec {
            reason: unknown_metric(&create.metric),
        });
    };
    let query = Query::new(create.r, create.k as usize)?;
    if create.dim == 0 {
        return Err(DodError::InvalidSpec {
            reason: "a session's vector dimension must be at least 1".to_string(),
        });
    }
    match kind {
        MetricKind::L1 => open_with(L1, kind, query, create, dir),
        MetricKind::L2 => open_with(L2, kind, query, create, dir),
        MetricKind::L4 => open_with(L4, kind, query, create, dir),
        MetricKind::Angular => open_with(Angular, kind, query, create, dir),
        other => Err(DodError::InvalidSpec {
            reason: format!(
                "metric {:?} is not servable over HTTP; use one of l1, l2, l4, angular",
                other.wire_name()
            ),
        }),
    }
}

/// [`open`] once the metric is a type: derives the window and shard
/// spec, and opens the detector (or the durable session around it) over
/// `VectorSpace<M>`.
fn open_with<M: VectorMetric + Clone + 'static>(
    metric: M,
    kind: MetricKind,
    query: Query,
    create: &SessionCreateRequest,
    dir: Option<&Path>,
) -> Result<OpenSession, DodError> {
    let space = VectorSpace::new(metric, create.dim as usize);
    let window = match create.window {
        WindowShape::Count(w) => WindowSpec::Count(w as usize),
        WindowShape::Time(horizon) => WindowSpec::Time(horizon),
    };
    let mut spec = ShardSpec::new(create.shards as usize);
    if let Some(warmup) = create.warmup {
        spec = spec.with_warmup(warmup as usize);
    }
    if let Some(pivots) = create.pivots_per_shard {
        spec = spec.with_pivots_per_shard(pivots as usize);
    }
    let (spawn, durable) = match dir {
        None => {
            let det = ShardedStreamDetector::open(space, query, window, Backend::Exhaustive, spec)?;
            let spawn: Spawn = Box::new(move |queue| Box::new(det.into_pipeline(queue)));
            (spawn, None)
        }
        Some(dir) => {
            let policy = crate::durable::policy_from(create);
            let (session, _recovery) =
                DurableSession::open(space, query, window, spec, dir, policy)?;
            let durable = DurableInfo {
                telemetry: session.telemetry(),
                dir: dir.to_path_buf(),
            };
            let spawn: Spawn = Box::new(move |queue| Box::new(session.into_pipeline(queue)));
            (spawn, Some(durable))
        }
    };
    Ok(OpenSession {
        metric: kind.wire_name(),
        dim: create.dim as usize,
        shards: spec.shards,
        durable,
        spawn,
    })
}
