//! Exact **sharded** sliding-window outlier detection.
//!
//! One `dod_stream::StreamDetector` window is one core: every slide scans
//! one monolithic window, and one thread owns it. This
//! crate partitions the stream across `S` per-shard detectors — with the
//! partition chosen so the merged answer is *identical* to the single
//! window's, slide for slide — and layers a bounded-queue asynchronous
//! ingestion pipeline on top, so slides on different shards proceed in
//! parallel and producers are decoupled from queries.
//!
//! # Pivot partitioning with ghost replication — why it stays exact
//!
//! Pivots `c_1 … c_P` (several per shard, [`ShardSpec::pivots_per_shard`])
//! are sampled from a warm-up prefix of the stream by greedy
//! farthest-first traversal with outlier trimming
//! ([`dod_datasets::farthest_first`], the k-center heuristic that metric
//! partitioning schemes for low doubling dimension build on). Their
//! Voronoi cells are packed onto the `S` shards geometry-first: cells
//! within `3r` of each other are fused into atomic groups (they would
//! ghost each other's neighborhoods across any boundary) as long as a
//! group stays within a ~1.5× mean load cap, and each group joins the
//! shard of its nearest farthest-first seed under that cap.
//! Every arriving point `p` is **owned** by the shard holding its nearest
//! pivot's cell, and additionally **ghosted** into every other shard
//! holding some pivot `c_j` with
//!
//! ```text
//! d(p, c_j) ≤ d(p, c_own(p)) + 2r ,
//! ```
//!
//! where `c_own(p)` is `p`'s nearest pivot. A ghost is a full window
//! resident of the foreign shard — discovery finds it and it expires on
//! schedule — but it is never *reported* from there (it
//! carries no neighbor state of its own; see
//! [`dod_stream::StreamDetector::insert_ghost_at`]).
//!
//! **Claim.** Every shard holds *all* true `r`-neighbors of each point it
//! owns, so per-shard neighbor counts of owned points equal the global
//! window counts, and the union of per-shard outlier sets equals the
//! single-window outlier set.
//!
//! **Proof.** Let `q` be any window point with nearest pivot `c_b`
//! (so `q` is owned by the shard holding `c_b`'s cell), and let `p` with
//! nearest pivot `c_a` be any window point with `d(p, q) ≤ r`.
//! Nearest-pivot choice for `q` gives `d(q, c_b) ≤ d(q, c_a)`, so by the
//! triangle inequality
//!
//! ```text
//! d(p, c_b) ≤ d(p, q) + d(q, c_b)
//!           ≤ r + d(q, c_a)
//!           ≤ r + d(q, p) + d(p, c_a)
//!           ≤ d(p, c_a) + 2r ,
//! ```
//!
//! which is exactly the ghost condition for pivot `c_b`: `p` is present
//! in `q`'s shard (as owner-resident if that shard also holds `c_a`'s
//! cell, as ghost otherwise). Conversely no non-window point is ever
//! present, so counts cannot overshoot. ∎
//!
//! Computed distances obey the two triangle inequalities above only up
//! to rounding, so the router widens each by the space's error model
//! ([`dod_stream::Space::rounding`], through
//! [`dod_metrics::Rounding::triangle`]): about 1e-9 relative for the
//! vector norms, 1.5e-3 rad per inequality for the angular metric. A
//! point is prepared ([`dod_stream::Space::prepare`]) once, by the
//! router, and shards store it as it is, so every shard measures the
//! same distances as the single window.
//!
//! Neither the pivot *choice* nor the cell→shard *assignment* appears in
//! the argument — any fixed partition is exact; both only move load
//! around. That is why sampling pivots from a prefix is safe: the
//! warm-up buffer is replayed through the chosen partition, the
//! partition never changes afterwards, and queries arriving *before* the
//! prefix completes are answered by brute force over the buffer rather
//! than freezing pivots early. Oversampling pivots (several cells per
//! shard) keeps `d(p, c_own)` at cluster scale even when clusters far
//! outnumber shards, which is what keeps the `2r` ghost band — and with
//! it the replication overhead — tight.
//!
//! Expiry is kept globally consistent by driving every shard's window on
//! the *global* clock (for count windows, the global sequence number), so
//! owned points and their ghost replicas leave all shards on the same
//! slide.
//!
//! # The two front doors
//!
//! * [`ShardedStreamDetector`] — the synchronous core: same call shapes as
//!   `StreamDetector` (`insert`, `outliers`, `report`, `audit`), applying
//!   every slide's per-shard work inline on the caller's thread.
//! * [`IngestPipeline`] / [`IngestHandle`] — the asynchronous path and
//!   the only one that runs shards concurrently:
//!   [`ShardedStreamDetector::into_pipeline`] moves each shard onto its
//!   own single-writer pump thread behind a bounded queue; producers
//!   `insert` through cloneable handles with backpressure, and
//!   [`IngestPipeline::report`] returns a snapshot-consistent answer at
//!   the current slide boundary. [`IngestPipeline::health`] is the one
//!   read barrier for everything else — per-shard occupancy and
//!   counters and ghost routing, all from one cut.
//!   [`IngestPipeline::finish`] reassembles the synchronous detector.
//!
//! ```
//! use dod_core::Query;
//! use dod_shard::{ShardSpec, ShardedStreamDetector};
//! use dod_stream::{Backend, VectorSpace, WindowSpec};
//! use dod_metrics::L2;
//!
//! let mut det = ShardedStreamDetector::open(
//!     VectorSpace::new(L2, 1),
//!     Query::new(1.5, 2)?,
//!     WindowSpec::Count(64),
//!     Backend::Exhaustive,
//!     ShardSpec::new(4),
//! )?;
//! for i in 0..64 {
//!     det.insert(vec![(i % 8) as f32 * 0.5]);
//! }
//! det.insert(vec![100.0]); // far from everything
//! assert_eq!(det.outliers(), vec![64]);
//! assert_eq!(det.outliers(), det.audit());
//! # Ok::<(), dod_core::DodError>(())
//! ```

mod detector;
mod durable;
mod health;
mod ingest;
mod router;
mod shard;
mod spec;

pub use detector::{ShardSlideReport, ShardedStreamDetector};
pub use durable::{CommitAck, DurabilityPolicy, DurableSession, RecoveryStats};
pub use health::{HealthReport, ShardHealth};
pub use ingest::{IngestHandle, IngestPipeline, PipelineGauges};
pub use router::GhostRouteStats;
pub use spec::ShardSpec;
// Durable sessions are configured in the WAL's vocabulary; re-exported so
// callers need not depend on `dod_wal` directly.
pub use dod_wal::{SyncPolicy, WalPoint, WalTelemetry};
