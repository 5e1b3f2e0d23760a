//! Metric proximity graphs for distance-based outlier detection.
//!
//! This crate builds the three graph families compared in the paper's
//! evaluation, all from scratch:
//!
//! * **KGraph** — an approximate K-NN graph built by NNDescent
//!   \[Dong et al., WWW'11\] ([`nndescent`]).
//! * **NSW** — a navigable small-world graph built by incremental insertion
//!   \[Malkov et al., 2014\] ([`nsw`]).
//! * **MRPG / MRPG-basic** — the paper's contribution (§5): NNDescent+
//!   ([`nndescent`] with [`NnDescentParams::plus`]), then
//!   [`connect`]`::connect_subgraphs` (Algorithm 4), then
//!   [`detours`]`::remove_detours` (Algorithm 5), then
//!   [`prune`]`::remove_links` (§5.4). Assembled by [`mrpg`]`::build`.
//!
//! An exact monotonic-search-graph builder ([`msg`]) is included as the
//! Ω(n²) reference point of Theorem 3 (used in tests and ablations only),
//! along with an [`hnsw`] extension (the paper's §3 argues DOD cannot
//! benefit from HNSW's hierarchy; we include it so the claim is testable)
//! and binary index persistence ([`serialize`]).
//!
//! Three primitives below the builders have one implementation each:
//! [`nsw::beam_search`], the insertion-time search of NSW and HNSW;
//! [`parallel::par_map_with`], the
//! strided parallel map behind the graph builds, Algorithm 1's filter and
//! verify phases and the baselines; and [`visit::VisitMarks`], the
//! epoch-stamped visited set of every repeated walk. Greedy-Counting, the
//! walk the detector runs over these graphs, lives in `dod_core`.
//!
//! All builders are deterministic for a fixed seed, including the
//! multi-threaded ones (they double-buffer instead of sharing state).

pub mod connect;
pub mod detours;
pub mod graph;
pub mod hnsw;
pub mod mrpg;
pub mod msg;
pub mod nndescent;
pub mod nsw;
pub mod parallel;
pub mod partition;
pub mod prune;
pub mod serialize;
pub mod visit;

pub use graph::{GraphKind, ProximityGraph};
pub use mrpg::{BuildBreakdown, MrpgParams};
pub use nndescent::{AknnGraph, NnDescentParams};
pub use nsw::NswParams;
pub use visit::VisitMarks;
