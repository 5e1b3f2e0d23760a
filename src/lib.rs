//! # dod — fast and exact distance-based outlier detection in metric spaces
//!
//! A from-scratch Rust reproduction of *"Fast and Exact Outlier Detection
//! in Metric Spaces: A Proximity Graph-based Approach"* (Amagata, Onizuka
//! & Hara, SIGMOD 2021; full version arXiv:2110.08959).
//!
//! Given a set `P` of objects in any metric space, a radius `r` and a
//! count threshold `k`, an object is a **distance-based outlier** iff
//! fewer than `k` objects lie within distance `r` of it. This crate finds
//! *exactly* those objects, fast.
//!
//! ## The front door: [`Engine`](core::Engine)
//!
//! The paper's operational model — build an index once offline, answer
//! any `(r, k)` query online — is one owned value: an `Engine` holds the
//! dataset, the index ([`IndexSpec`](core::IndexSpec) picks MRPG, NSW,
//! KGraph, a VP-tree, or no index at all), and per-session query state.
//! Invalid input surfaces as [`DodError`](core::DodError) instead of
//! panicking.
//!
//! ```
//! use dod::prelude::*;
//!
//! // 2-d points: three dense blobs plus two isolated points.
//! let mut rows: Vec<Vec<f32>> = Vec::new();
//! for i in 0..300 {
//!     let c = (i % 3) as f32 * 10.0;
//!     let o = (i as f32 * 0.618).fract() - 0.5;
//!     rows.push(vec![c + o, (i as f32 * 0.382).fract() - 0.5]);
//! }
//! rows.push(vec![500.0, 500.0]);
//! rows.push(vec![-400.0, 300.0]);
//! let data = VectorSet::from_rows(&rows, L2);
//!
//! // Offline: build the engine (MRPG index) once.
//! let engine = Engine::builder(data)
//!     .index(IndexSpec::Mrpg(MrpgParams::new(8)))
//!     .build()?;
//!
//! // Online: any (r, k) query, through one validated type.
//! let report = engine.query(Query::new(2.0, 5)?)?;
//! assert_eq!(report.outliers, vec![300, 301]);
//! # Ok::<(), DodError>(())
//! ```
//!
//! ## Serving from `Arc<Engine>`
//!
//! An `Engine` is `Send + Sync` and immutable after build, so a service
//! shares one behind an [`std::sync::Arc`] across request handlers; its
//! traversal buffers and verification engine are pooled internally, so
//! concurrent queries do not re-allocate:
//!
//! ```
//! use dod::prelude::*;
//! use std::sync::Arc;
//!
//! # let rows: Vec<Vec<f32>> = (0..200).map(|i| vec![(i % 10) as f32, (i / 10) as f32]).collect();
//! # let data = VectorSet::from_rows(&rows, L2);
//! let engine = Arc::new(
//!     Engine::builder(data)
//!         .index(IndexSpec::Mrpg(MrpgParams::new(8)))
//!         .threads(2)
//!         .build()?,
//! );
//! let handlers: Vec<_> = (0..4)
//!     .map(|i| {
//!         let engine = Arc::clone(&engine);
//!         std::thread::spawn(move || {
//!             // Each "request" runs its own (r, k) query.
//!             let q = Query::new(1.5, 2 + i)?;
//!             engine.query(q).map(|rep| rep.outliers.len())
//!         })
//!     })
//!     .collect();
//! for h in handlers {
//!     h.join().expect("handler panicked")?;
//! }
//! # Ok::<(), DodError>(())
//! ```
//!
//! `Engine::save`/`Engine::load` persist the index and parameters, so a
//! restarted service skips the offline build (see
//! `examples/persist_index.rs`).
//!
//! ## Crate map
//!
//! * [`metrics`] — the [`metrics::Dataset`] abstraction plus L1/L2/L4,
//!   angular and edit distances (paper Table 1).
//! * [`datasets`] — synthetic generators mirroring the paper's seven
//!   evaluation datasets, plus radius calibration.
//! * [`vptree`] — VP-tree index (baseline + verification engine).
//! * [`graph`] — proximity graphs: KGraph (NNDescent), NSW, and MRPG with
//!   its full §5 pipeline (NNDescent+, Connect-SubGraphs, Remove-Detours,
//!   Remove-Links).
//! * [`core`] — [`core::Engine`] plus the DOD algorithms behind it:
//!   Algorithm 1 and the nested-loop, SNIF, DOLPHIN and VP-tree
//!   baselines, all exact and all pinned to the same ground truth.
//! * [`stream`] — sliding-window streaming detection: ingest points one at
//!   a time, maintain neighbor counts incrementally, answer "current
//!   outliers" exactly after every slide.
//! * [`shard`] — the streaming engine partitioned across cores:
//!   pivot-based metric sharding with ghost replication (still exact),
//!   parallel slides, and bounded-queue async ingestion
//!   ([`IngestHandle`](shard::IngestHandle) feeding one pump thread per
//!   shard).
//! * [`wire`] — the shared std-only JSON wire format (parser +
//!   serializer) spoken by the server, the bench artifacts and their
//!   comparison tooling.
//! * [`server`] — the std-only HTTP/1.1 serving layer:
//!   [`DodServer`](server::DodServer) exposes `Engine::query_many`,
//!   sharded ingest/report sessions, `/healthz` and Prometheus
//!   `/metrics` over TCP with a fixed worker pool, keep-alive and
//!   graceful shutdown.
//!
//! ## Streaming
//!
//! The streaming side speaks the same vocabulary: construction takes the
//! same [`Query`](core::Query) (and fails with the same
//! [`DodError`](core::DodError)), and
//! [`StreamDetector::report`](stream::StreamDetector::report) answers in
//! the same [`OutlierReport`](core::OutlierReport) shape as
//! `Engine::query`, so batch and stream results compare directly.
//!
//! ```
//! use dod::prelude::*;
//!
//! // Flag points with < 2 neighbors within 1.5 among the 32 most recent.
//! let mut det = StreamDetector::open(
//!     VectorSpace::new(L2, 1),
//!     Query::new(1.5, 2)?,
//!     WindowSpec::Count(32),
//! )?;
//! for i in 0..32 {
//!     det.insert(vec![(i % 4) as f32]);
//! }
//! det.insert(vec![500.0]);
//! assert_eq!(det.outliers(), vec![32]);
//! # Ok::<(), DodError>(())
//! ```
//!
//! When one window outgrows one core, the same stream runs **sharded**:
//! the window splits across per-shard detectors by nearest pivot, points
//! near a boundary are replicated as ghosts so every answer stays exact,
//! and an [`IngestPipeline`](shard::IngestPipeline) moves each shard onto
//! its own pump thread behind a bounded queue:
//!
//! ```
//! use dod::prelude::*;
//!
//! let det = ShardedStreamDetector::open(
//!     VectorSpace::new(L2, 1),
//!     Query::new(1.5, 2)?,
//!     WindowSpec::Count(32),
//!     Backend::Exhaustive,
//!     ShardSpec::new(4),
//! )?;
//! let pipeline = det.into_pipeline(64); // bounded queue of 64
//! let producer = pipeline.handle();     // cloneable, backpressured
//! for i in 0..32 {
//!     producer.insert(vec![(i % 4) as f32])?;
//! }
//! producer.insert(vec![500.0])?;
//! // Snapshot-consistent: reflects every insert enqueued above.
//! assert_eq!(pipeline.outliers()?, vec![32]);
//! # Ok::<(), DodError>(())
//! ```
//!
//! ## Serving over HTTP
//!
//! [`server`] turns all of the above into a network service — std-only,
//! no framework. Clients create named engines from a dataset spec
//! (`PUT /v1/engines/{name}`) and query them in batches through
//! [`Engine::query_many`](core::Engine::query_many)
//! (`POST /v1/engines/{name}/query`), open sharded sliding-window
//! sessions (`POST /v1/sessions`) and feed and read them
//! (`/v1/sessions/{id}/ingest`, `/v1/sessions/{id}/report`), and scrape
//! `GET /metrics` for per-engine query counters and latency histograms
//! plus per-shard-pair ghost rates in Prometheus text format:
//!
//! ```
//! use dod::prelude::*;
//!
//! let handle = DodServer::builder()
//!     .workers(2)
//!     .bind("127.0.0.1:0")? // ephemeral port; production binds e.g. 0.0.0.0:8080
//!     .start();
//! // curl -X PUT -d '{"family":"sift","n":1000,"index":"mrpg:8"}' http://<addr>/v1/engines/prod
//! // curl -d '{"queries":[{"r":60,"k":40}]}' http://<addr>/v1/engines/prod/query
//! let addr = handle.addr();
//! assert_ne!(addr.port(), 0);
//! handle.shutdown(); // graceful: in-flight requests finish
//! # Ok::<(), DodError>(())
//! ```
//!
//! The `dod-bench` crate (workspace-internal) regenerates every table and
//! figure of the paper's evaluation; see `EXPERIMENTS.md`.

pub use dod_core as core;
pub use dod_datasets as datasets;
pub use dod_graph as graph;
pub use dod_metrics as metrics;
pub use dod_server as server;
pub use dod_shard as shard;
pub use dod_stream as stream;
pub use dod_vptree as vptree;
pub use dod_wal as wal;
pub use dod_wire as wire;

/// One-stop imports for typical use.
pub mod prelude {
    pub use dod_core::{
        DodError, DodParams, Engine, EngineBuilder, EngineMetrics, IndexSpec, OutlierReport, Query,
        VerifyStrategy,
    };
    pub use dod_datasets::{AnyDataset, AnyEngine, Family};
    pub use dod_graph::{GraphKind, MrpgParams, ProximityGraph};
    pub use dod_metrics::{Angular, Dataset, StringSet, VectorSet, L1, L2, L4};
    pub use dod_server::{DodServer, ServerHandle};
    pub use dod_shard::{
        DurabilityPolicy, DurableSession, IngestHandle, IngestPipeline, RecoveryStats, ShardSpec,
        ShardedStreamDetector, SyncPolicy,
    };
    pub use dod_stream::{
        Backend, SlideReport, StreamDetector, StreamParams, StringSpace, VectorSpace, WindowSpec,
    };
}
