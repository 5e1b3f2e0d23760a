//! The ingest sessions behind `/v1/sessions/{id}`: a
//! [`ShardedStreamDetector`] over any vector metric, erased into one
//! server-side type and moved onto its [`IngestPipeline`] threads.
//!
//! The erasure mirrors `dod_datasets::AnyDataset` (a small enum over the
//! concrete spaces, not a trait object), because the pipeline type is
//! generic over the space and the server must pick it from configuration
//! at runtime. Only vector spaces are served — points travel as JSON
//! number arrays; a string-space session has no natural wire shape here
//! and stays an in-process API.

use dod_core::{DodError, Query};
use dod_metrics::{Angular, MetricKind, L1, L2, L4};
use dod_shard::{
    CommitAck, DurabilityPolicy, DurableSession, GhostRouteStats, HealthReport, IngestPipeline,
    RecoveryStats, ShardSpec, ShardedStreamDetector, WalTelemetry,
};
use dod_stream::{Backend, StreamStats, VectorSpace, WindowSpec};
use std::path::Path;
use std::sync::Arc;

/// A volatile wire session: a sharded sliding-window detector over any
/// served vector metric, before it moves onto its pipeline threads.
pub(crate) enum AnyStreamDetector {
    L1(ShardedStreamDetector<VectorSpace<L1>>),
    L2(ShardedStreamDetector<VectorSpace<L2>>),
    L4(ShardedStreamDetector<VectorSpace<L4>>),
    Angular(ShardedStreamDetector<VectorSpace<Angular>>),
}

impl AnyStreamDetector {
    /// Opens a sharded detector from wire-level configuration: the
    /// metric by [`MetricKind`] instead of by type. This is how
    /// `POST /v1/sessions` builds a session — the metric arrives as a
    /// string, so the type dispatch has to happen at runtime, here.
    ///
    /// Only the vector metrics are servable ([`MetricKind::Edit`] has no
    /// JSON point shape, and no served space uses
    /// [`MetricKind::Chebyshev`]); others answer
    /// [`DodError::InvalidSpec`].
    pub(crate) fn open(
        kind: MetricKind,
        dim: usize,
        query: Query,
        window: WindowSpec,
        backend: Backend,
        spec: ShardSpec,
    ) -> Result<Self, DodError> {
        if dim == 0 {
            return Err(DodError::InvalidSpec {
                reason: "a session's vector dimension must be at least 1".to_string(),
            });
        }
        Ok(match kind {
            MetricKind::L1 => AnyStreamDetector::L1(ShardedStreamDetector::open(
                VectorSpace::new(L1, dim),
                query,
                window,
                backend,
                spec,
            )?),
            MetricKind::L2 => AnyStreamDetector::L2(ShardedStreamDetector::open(
                VectorSpace::new(L2, dim),
                query,
                window,
                backend,
                spec,
            )?),
            MetricKind::L4 => AnyStreamDetector::L4(ShardedStreamDetector::open(
                VectorSpace::new(L4, dim),
                query,
                window,
                backend,
                spec,
            )?),
            MetricKind::Angular => AnyStreamDetector::Angular(ShardedStreamDetector::open(
                VectorSpace::new(Angular, dim),
                query,
                window,
                backend,
                spec,
            )?),
            other => {
                return Err(DodError::InvalidSpec {
                    reason: format!(
                        "metric {:?} is not servable over HTTP; use one of l1, l2, l4, angular",
                        other.wire_name()
                    ),
                })
            }
        })
    }

    /// Wire name of the session's metric (`l1`, `l2`, `l4`, `angular`).
    pub(crate) fn metric_name(&self) -> &'static str {
        match self {
            AnyStreamDetector::L1(_) => MetricKind::L1.wire_name(),
            AnyStreamDetector::L2(_) => MetricKind::L2.wire_name(),
            AnyStreamDetector::L4(_) => MetricKind::L4.wire_name(),
            AnyStreamDetector::Angular(_) => MetricKind::Angular.wire_name(),
        }
    }

    /// Shards the window is partitioned across (listing metadata,
    /// captured before the detector moves onto its pipeline threads).
    pub(crate) fn shard_count(&self) -> usize {
        match self {
            AnyStreamDetector::L1(det) => det.spec().shards,
            AnyStreamDetector::L2(det) => det.spec().shards,
            AnyStreamDetector::L4(det) => det.spec().shards,
            AnyStreamDetector::Angular(det) => det.spec().shards,
        }
    }

    /// The pinned vector dimension of the session's space — the
    /// validation boundary for wire points. (A wrong-length point must be
    /// rejected at the route, because `Space::prepare` enforces the
    /// dimension with an assert on the pipeline's router thread.)
    pub(crate) fn dim(&self) -> usize {
        match self {
            AnyStreamDetector::L1(det) => det.space().dim(),
            AnyStreamDetector::L2(det) => det.space().dim(),
            AnyStreamDetector::L4(det) => det.space().dim(),
            AnyStreamDetector::Angular(det) => det.space().dim(),
        }
    }

    /// Reconfigures the sampled recall auditor on every shard (see
    /// [`ShardedStreamDetector::set_audit_params`]); wire knobs are
    /// validated here with typed errors, never clamped.
    pub(crate) fn set_audit_params(
        &mut self,
        sample_rate: u64,
        audit_sample: usize,
    ) -> Result<(), DodError> {
        match self {
            AnyStreamDetector::L1(det) => det.set_audit_params(sample_rate, audit_sample),
            AnyStreamDetector::L2(det) => det.set_audit_params(sample_rate, audit_sample),
            AnyStreamDetector::L4(det) => det.set_audit_params(sample_rate, audit_sample),
            AnyStreamDetector::Angular(det) => det.set_audit_params(sample_rate, audit_sample),
        }
    }

    /// Moves the detector onto its pipeline threads.
    pub(crate) fn into_pipeline(self, queue: usize) -> AnyPipeline {
        let dim = self.dim();
        let inner = match self {
            AnyStreamDetector::L1(det) => InnerPipeline::L1(det.into_pipeline(queue)),
            AnyStreamDetector::L2(det) => InnerPipeline::L2(det.into_pipeline(queue)),
            AnyStreamDetector::L4(det) => InnerPipeline::L4(det.into_pipeline(queue)),
            AnyStreamDetector::Angular(det) => InnerPipeline::Angular(det.into_pipeline(queue)),
        };
        AnyPipeline { dim, inner }
    }
}

/// A *durable* wire session: the same metric erasure as
/// [`AnyStreamDetector`], wrapped around [`DurableSession`] so every
/// accepted operation is WAL-logged and the session can be rebuilt from
/// its directory after a restart (see `dod_shard::DurableSession`).
pub(crate) enum AnyDurableSession {
    L1(DurableSession<VectorSpace<L1>>),
    L2(DurableSession<VectorSpace<L2>>),
    L4(DurableSession<VectorSpace<L4>>),
    Angular(DurableSession<VectorSpace<Angular>>),
}

impl AnyDurableSession {
    /// Opens (or recovers) a durable sharded session in `dir` from
    /// wire-level configuration — the durable twin of
    /// [`AnyStreamDetector::open`], with identical validation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        kind: MetricKind,
        dim: usize,
        query: Query,
        window: WindowSpec,
        backend: Backend,
        spec: ShardSpec,
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> Result<(Self, RecoveryStats), DodError> {
        if dim == 0 {
            return Err(DodError::InvalidSpec {
                reason: "a session's vector dimension must be at least 1".to_string(),
            });
        }
        Ok(match kind {
            MetricKind::L1 => {
                let (s, stats) = DurableSession::open(
                    VectorSpace::new(L1, dim),
                    query,
                    window,
                    backend,
                    spec,
                    dir,
                    policy,
                )?;
                (AnyDurableSession::L1(s), stats)
            }
            MetricKind::L2 => {
                let (s, stats) = DurableSession::open(
                    VectorSpace::new(L2, dim),
                    query,
                    window,
                    backend,
                    spec,
                    dir,
                    policy,
                )?;
                (AnyDurableSession::L2(s), stats)
            }
            MetricKind::L4 => {
                let (s, stats) = DurableSession::open(
                    VectorSpace::new(L4, dim),
                    query,
                    window,
                    backend,
                    spec,
                    dir,
                    policy,
                )?;
                (AnyDurableSession::L4(s), stats)
            }
            MetricKind::Angular => {
                let (s, stats) = DurableSession::open(
                    VectorSpace::new(Angular, dim),
                    query,
                    window,
                    backend,
                    spec,
                    dir,
                    policy,
                )?;
                (AnyDurableSession::Angular(s), stats)
            }
            other => {
                return Err(DodError::InvalidSpec {
                    reason: format!(
                        "metric {:?} is not servable over HTTP; use one of l1, l2, l4, angular",
                        other.wire_name()
                    ),
                })
            }
        })
    }

    /// Wire name of the session's metric.
    pub(crate) fn metric_name(&self) -> &'static str {
        match self {
            AnyDurableSession::L1(_) => MetricKind::L1.wire_name(),
            AnyDurableSession::L2(_) => MetricKind::L2.wire_name(),
            AnyDurableSession::L4(_) => MetricKind::L4.wire_name(),
            AnyDurableSession::Angular(_) => MetricKind::Angular.wire_name(),
        }
    }

    /// Shards the window is partitioned across.
    pub(crate) fn shard_count(&self) -> usize {
        match self {
            AnyDurableSession::L1(s) => s.detector().spec().shards,
            AnyDurableSession::L2(s) => s.detector().spec().shards,
            AnyDurableSession::L4(s) => s.detector().spec().shards,
            AnyDurableSession::Angular(s) => s.detector().spec().shards,
        }
    }

    /// The session's WAL counters, shareable with `/metrics` scrapers
    /// after the session moves onto its pipeline threads.
    pub(crate) fn telemetry(&self) -> Arc<WalTelemetry> {
        match self {
            AnyDurableSession::L1(s) => s.telemetry(),
            AnyDurableSession::L2(s) => s.telemetry(),
            AnyDurableSession::L4(s) => s.telemetry(),
            AnyDurableSession::Angular(s) => s.telemetry(),
        }
    }

    /// Reconfigures the sampled recall auditor on every shard. Applied
    /// on every open (create *and* recovery), since audit cadence lives
    /// in the manifest, not the WAL.
    pub(crate) fn set_audit_params(
        &mut self,
        sample_rate: u64,
        audit_sample: usize,
    ) -> Result<(), DodError> {
        match self {
            AnyDurableSession::L1(s) => s.set_audit_params(sample_rate, audit_sample),
            AnyDurableSession::L2(s) => s.set_audit_params(sample_rate, audit_sample),
            AnyDurableSession::L4(s) => s.set_audit_params(sample_rate, audit_sample),
            AnyDurableSession::Angular(s) => s.set_audit_params(sample_rate, audit_sample),
        }
    }

    /// Moves the session onto its pipeline threads; the WAL rides on the
    /// router thread (append-before-ack at batch boundaries).
    pub(crate) fn into_pipeline(self, queue: usize) -> AnyPipeline {
        let dim = match &self {
            AnyDurableSession::L1(s) => s.detector().space().dim(),
            AnyDurableSession::L2(s) => s.detector().space().dim(),
            AnyDurableSession::L4(s) => s.detector().space().dim(),
            AnyDurableSession::Angular(s) => s.detector().space().dim(),
        };
        let inner = match self {
            AnyDurableSession::L1(s) => InnerPipeline::L1(s.into_pipeline(queue)),
            AnyDurableSession::L2(s) => InnerPipeline::L2(s.into_pipeline(queue)),
            AnyDurableSession::L4(s) => InnerPipeline::L4(s.into_pipeline(queue)),
            AnyDurableSession::Angular(s) => InnerPipeline::Angular(s.into_pipeline(queue)),
        };
        AnyPipeline { dim, inner }
    }
}

enum InnerPipeline {
    L1(IngestPipeline<VectorSpace<L1>>),
    L2(IngestPipeline<VectorSpace<L2>>),
    L4(IngestPipeline<VectorSpace<L4>>),
    Angular(IngestPipeline<VectorSpace<Angular>>),
}

/// The running ingest session: one [`IngestPipeline`] plus the wire-side
/// dimension check. All methods take `&self` — the pipeline is channel
///-fed, so concurrent route handlers need no lock.
pub(crate) struct AnyPipeline {
    dim: usize,
    inner: InnerPipeline,
}

impl AnyPipeline {
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Enqueues a run of points (dimension already validated by the
    /// route) at consecutive ticks.
    pub fn insert_many(&self, points: Vec<Vec<f32>>) -> Result<(), DodError> {
        match &self.inner {
            InnerPipeline::L1(p) => p.insert_many(points),
            InnerPipeline::L2(p) => p.insert_many(points),
            InnerPipeline::L4(p) => p.insert_many(points),
            InnerPipeline::Angular(p) => p.insert_many(points),
        }
    }

    /// Commit barrier: blocks until every op enqueued before the call is
    /// WAL-committed (see [`IngestPipeline::commit`]). The durable ingest
    /// route answers 200 only after this returns — the ack *is* the
    /// durability promise.
    pub fn commit(&self) -> Result<CommitAck, DodError> {
        match &self.inner {
            InnerPipeline::L1(p) => p.commit(),
            InnerPipeline::L2(p) => p.commit(),
            InnerPipeline::L4(p) => p.commit(),
            InnerPipeline::Angular(p) => p.commit(),
        }
    }

    /// Snapshot-consistent outliers as global stream seqs, ascending.
    pub fn outliers(&self) -> Result<Vec<u64>, DodError> {
        match &self.inner {
            InnerPipeline::L1(p) => p.outliers(),
            InnerPipeline::L2(p) => p.outliers(),
            InnerPipeline::L4(p) => p.outliers(),
            InnerPipeline::Angular(p) => p.outliers(),
        }
    }

    /// Summed per-shard lifetime counters.
    pub fn stats(&self) -> Result<StreamStats, DodError> {
        match &self.inner {
            InnerPipeline::L1(p) => p.stats(),
            InnerPipeline::L2(p) => p.stats(),
            InnerPipeline::L4(p) => p.stats(),
            InnerPipeline::Angular(p) => p.stats(),
        }
    }

    /// The topology's health document — per-shard occupancy, counters
    /// and index structure plus ghost routing — collected at a read-only
    /// barrier (never advances shard clocks; see
    /// [`IngestPipeline::health`]).
    pub fn health(&self) -> Result<HealthReport, DodError> {
        match &self.inner {
            InnerPipeline::L1(p) => p.health(),
            InnerPipeline::L2(p) => p.health(),
            InnerPipeline::L4(p) => p.health(),
            InnerPipeline::Angular(p) => p.health(),
        }
    }

    /// Ghost replicas per `(owner, target)` shard pair plus per-shard
    /// owned-point counts, one self-consistent snapshot.
    pub fn ghost_route_stats(&self) -> Result<GhostRouteStats, DodError> {
        match &self.inner {
            InnerPipeline::L1(p) => p.ghost_route_stats(),
            InnerPipeline::L2(p) => p.ghost_route_stats(),
            InnerPipeline::L4(p) => p.ghost_route_stats(),
            InnerPipeline::Angular(p) => p.ghost_route_stats(),
        }
    }

    /// The pipeline's live queue/routing gauges (lock-free reads, never
    /// block on the pipeline threads).
    fn gauges(&self) -> std::sync::Arc<dod_shard::PipelineGauges> {
        match &self.inner {
            InnerPipeline::L1(p) => p.gauges(),
            InnerPipeline::L2(p) => p.gauges(),
            InnerPipeline::L4(p) => p.gauges(),
            InnerPipeline::Angular(p) => p.gauges(),
        }
    }

    /// Commands enqueued but not yet routed — the per-session queue
    /// depth gauge.
    pub fn queue_depth(&self) -> u64 {
        self.gauges().queue_depth()
    }

    /// Cumulative router-thread routing time, in nanoseconds.
    pub fn route_nanos(&self) -> u64 {
        self.gauges().route_nanos()
    }
}
