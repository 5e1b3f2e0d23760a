//! Exact distance-based outlier detection (DOD) algorithms.
//!
//! The primary API is [`Engine`]: an owned, `Send + Sync`, fallible
//! detection session — build an index once ([`IndexSpec`]), answer any
//! number of validated [`Query`]s, persist/restore with
//! [`Engine::save`]/[`Engine::load`], and read every answer through the
//! unified [`OutlierReport`]. See the [`engine`] module docs for the
//! build-once/query-many example.
//!
//! Under the hood the crate implements the paper's proximity-graph
//! algorithm and all four baselines of its evaluation, each returning
//! exactly the same outlier set:
//!
//! | Algorithm | Paper ref | Served by |
//! |---|---|---|
//! | Proximity-graph filter/verify (Algorithm 1) | §4 | [`IndexSpec::Mrpg`] / [`IndexSpec::Nsw`] / [`IndexSpec::KGraph`] |
//! | VP-tree range counting | \[35\] | [`IndexSpec::VpTree`] |
//! | Nested loop (randomized, early termination) | \[8, 21\] | [`IndexSpec::None`], [`nested_loop::detect`] |
//! | SNIF (r/2-clustering, group pruning) | \[30\] | [`snif::detect`] |
//! | DOLPHIN (two-scan candidate index) | \[4\] | [`dolphin::detect`] |
//!
//! An object is reported iff it has fewer than `k` neighbors within
//! distance `r` (Definition 2). The integration tests pin every algorithm
//! to the nested-loop ground truth. Errors — invalid radii, size
//! mismatches, corrupt persisted indexes — surface as [`DodError`].

pub mod dolphin;
pub mod engine;
pub mod error;
pub mod graph_dod;
pub mod greedy;
pub mod nested_loop;
pub mod parallel;
pub mod params;
pub mod snif;
pub mod telemetry;
pub mod trace;
pub mod verify;
pub mod vptree_dod;

pub use engine::{Engine, EngineBuilder, IndexSpec};
pub use error::DodError;
pub use greedy::{greedy_collect, greedy_count, TraversalBuffer};
pub use params::{CostReport, DodParams, OutlierReport, Query};
pub use telemetry::EngineMetrics;
pub use verify::VerifyStrategy;
