//! Streaming sliding-window exact distance-based outlier detection.
//!
//! The batch crates answer one `(r, k)` query over one fixed dataset. Real
//! deployments watch *streams*: points arrive continuously, old ones age
//! out, and "who are the outliers right now?" is asked after every slide.
//! Rebuilding an index and recounting from scratch per slide costs
//! `O(W²)`-ish work for a window of `W` points; this crate maintains the
//! answer incrementally instead.
//!
//! # How it stays exact and cheap
//!
//! * **Arrival order is expiry order** (timestamps must be non-decreasing),
//!   so each resident's neighbors split into *preceding* ones — which
//!   expire in a known order, making expiry a pointer bump — and
//!   *succeeding* ones, which can never expire first. A resident with ≥ `k`
//!   succeeding neighbors is a **safe inlier** (DOLPHIN's observation,
//!   carried over from `dod_core::dolphin`): it can never become an outlier,
//!   so all tracking stops.
//! * **Two discovery backends** ([`Backend`]): the [`ExhaustiveIndex`]
//!   scans the window once per insertion and keeps every count exact;
//!   the [`GraphIndex`] wires new points into a lazily-repaired proximity
//!   graph (tombstoned expiries, periodic compaction) and discovers
//!   neighbors with the paper's greedy ball walk
//!   ([`dod_core::greedy_walk`]) — a certified subset, so counts are
//!   lower bounds. Only the graph backend can miss a neighbor, and what
//!   it misses shows up as query-time repair work
//!   ([`StreamStats::query_dist_evals`],
//!   [`StreamStats::query_false_positives`]), never in an answer. Those
//!   two counters are the graph's quality, as filter false positives
//!   rank graphs in the paper.
//! * **Verdicts are verified** the way the paper's Algorithm 1 verifies
//!   filter survivors: a candidate whose maintained count is below `k` and
//!   not known-exact gets a lazy exact repair against the window before it
//!   is reported. Repairs remember how far they got (`exact_upto`), so a
//!   candidate re-checked after one slide rescans one point, not the
//!   window; [`StreamDetector::audit`] recomputes everything from scratch
//!   through `dod_core::verify` as an independent cross-check.
//!
//! Both backends therefore return the *identical, exact* outlier set — the
//! property tests pin them to `dod_core::nested_loop` over a window
//! snapshot after every slide.
//!
//! ```
//! use dod_core::Query;
//! use dod_stream::{Backend, GraphParams, StreamDetector, VectorSpace, WindowSpec};
//! use dod_metrics::L2;
//!
//! // Keep the 128 most recent readings; flag points with < 3 neighbors
//! // within 0.8 — the same (r, k) Query type the batch Engine takes.
//! let mut det = StreamDetector::open(
//!     VectorSpace::new(L2, 2),
//!     Query::new(0.8, 3)?,
//!     WindowSpec::Count(128),
//!     Backend::Graph(GraphParams::default()),
//! )?;
//! for i in 0..200u32 {
//!     let phase = (i % 16) as f32 / 16.0;
//!     det.insert(vec![phase.sin(), phase.cos()]);
//! }
//! det.insert(vec![40.0, 40.0]); // a reading far off the manifold
//! assert_eq!(det.outliers(), vec![200]);
//! // Or in the unified batch result shape: ids become window positions,
//! // and seq 200 is the window's last resident (position 127 of 128).
//! assert_eq!(det.report().outliers, vec![127]);
//! # Ok::<(), dod_core::DodError>(())
//! ```

mod counts;
pub mod detector;
pub mod graph;
pub mod index;
mod seqmap;
pub mod space;
pub mod window;

pub use detector::{Backend, SlideReport, StreamDetector, StreamParams, StreamStats};
pub use graph::{GraphIndex, GraphParams};
pub use index::{ExhaustiveIndex, StreamIndex};
pub use space::{Space, StringSpace, VectorSpace};
pub use window::{WindowSpec, WindowView};
