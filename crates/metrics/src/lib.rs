//! Metric spaces and distance functions for distance-based outlier detection.
//!
//! Everything downstream (VP-trees, proximity graphs, the DOD algorithms)
//! accesses data through the [`Dataset`] trait: objects are addressed by
//! dense `usize` ids and the only operation is an exact metric distance
//! between two ids. This is the contract the SIGMOD'21 paper relies on — the
//! algorithms never look inside an object, which is what makes them work for
//! multi-dimensional points, embedding vectors and strings alike.
//!
//! Provided spaces (mirroring Table 1 of the paper):
//!
//! | Space | Distance | Paper dataset |
//! |---|---|---|
//! | [`VectorSet<L2>`] | Euclidean norm | Deep, PAMAP2, SIFT |
//! | [`VectorSet<L1>`] | Manhattan norm | HEPMASS |
//! | [`VectorSet<L4>`] | Minkowski p=4 | MNIST |
//! | [`VectorSet<Angular>`] | angular (arc-cosine) distance | Glove |
//! | [`StringSet`] | Levenshtein edit distance | Words |
//!
//! All distances satisfy the metric axioms (identity, symmetry, triangle
//! inequality); the property tests in this crate check them on random data.
//! Computed distances obey the triangle inequality only up to rounding, so
//! each metric also states its rounding error ([`Rounding`], reached
//! through [`Dataset::rounding`]); the [`rounding`] module documents the
//! model per metric.

pub mod dataset;
pub mod rounding;
pub mod string;
pub mod util;
pub mod vector;

pub use dataset::{Dataset, DistanceCounter, Fnv1a, Subset};
pub use rounding::{DistBounds, Rounding, ANGULAR_ERROR, TRIANGLE_SLACK};
pub use string::{edit_distance, StringSet};
pub use util::OrdF64;
pub use vector::{Angular, Chebyshev, Minkowski, VectorMetric, VectorSet, L1, L2, L4};

use serde::{Deserialize, Serialize};

/// Identifies a distance function, e.g. in dataset descriptors and
/// experiment configuration files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// Manhattan (`L1`) norm.
    L1,
    /// Euclidean (`L2`) norm.
    L2,
    /// Minkowski norm with `p = 4`.
    L4,
    /// Chebyshev (`L∞`) norm.
    Chebyshev,
    /// Angular (arc-cosine of cosine similarity) distance.
    Angular,
    /// Levenshtein edit distance over strings.
    Edit,
}

impl MetricKind {
    /// Human-readable name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::L1 => "L1-norm",
            MetricKind::L2 => "L2-norm",
            MetricKind::L4 => "L4-norm",
            MetricKind::Chebyshev => "Linf-norm",
            MetricKind::Angular => "Angular distance",
            MetricKind::Edit => "Edit distance",
        }
    }

    /// Short machine-readable spelling used on the wire (`dod_server`
    /// session bodies and listings): `l1`, `l2`, `l4`, `chebyshev`,
    /// `angular`, `edit`.
    pub fn wire_name(self) -> &'static str {
        match self {
            MetricKind::L1 => "l1",
            MetricKind::L2 => "l2",
            MetricKind::L4 => "l4",
            MetricKind::Chebyshev => "chebyshev",
            MetricKind::Angular => "angular",
            MetricKind::Edit => "edit",
        }
    }

    /// Parses a [`wire_name`](Self::wire_name) spelling back to the kind.
    pub fn parse_wire(s: &str) -> Option<MetricKind> {
        [
            MetricKind::L1,
            MetricKind::L2,
            MetricKind::L4,
            MetricKind::Chebyshev,
            MetricKind::Angular,
            MetricKind::Edit,
        ]
        .into_iter()
        .find(|k| k.wire_name() == s)
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod kind_tests {
    use super::MetricKind;

    #[test]
    fn wire_names_round_trip() {
        for k in [
            MetricKind::L1,
            MetricKind::L2,
            MetricKind::L4,
            MetricKind::Chebyshev,
            MetricKind::Angular,
            MetricKind::Edit,
        ] {
            assert_eq!(MetricKind::parse_wire(k.wire_name()), Some(k));
        }
        assert_eq!(
            MetricKind::parse_wire("L2"),
            None,
            "wire names are lowercase"
        );
        assert_eq!(MetricKind::parse_wire("cosine"), None);
    }
}
