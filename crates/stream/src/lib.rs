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
//! * **One window scan per insertion** discovers every neighbor of the new
//!   point (`O(W)` distances per slide, none per expiry), so every
//!   maintained count is exact at all times. This is the streaming form of
//!   the paper's DOLPHIN baseline: unlike a graph walk, whose discoveries
//!   are a certified subset that must be verified (Lemma 1), the scan needs
//!   no verification, and a report answers from the maintained counts
//!   alone. [`StreamDetector::audit`] recomputes everything from scratch
//!   through `dod_core::verify` as an independent cross-check.
//!
//! The property tests pin the answer to `dod_core::nested_loop` over a
//! window snapshot after every slide.
//!
//! ```
//! use dod_core::Query;
//! use dod_stream::{StreamDetector, VectorSpace, WindowSpec};
//! use dod_metrics::L2;
//!
//! // Keep the 128 most recent readings; flag points with < 3 neighbors
//! // within 0.8 — the same (r, k) Query type the batch Engine takes.
//! let mut det = StreamDetector::open(
//!     VectorSpace::new(L2, 2),
//!     Query::new(0.8, 3)?,
//!     WindowSpec::Count(128),
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
mod seqmap;
pub mod space;
pub mod window;

pub use detector::{Backend, SlideReport, StreamDetector, StreamParams, StreamStats};
pub use space::{Space, StringSpace, VectorSpace};
pub use window::{WindowSpec, WindowView};
