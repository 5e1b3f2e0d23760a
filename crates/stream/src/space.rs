//! Point-level metric spaces for streaming ingestion.
//!
//! The batch crates address objects through [`dod_metrics::Dataset`] — a
//! *finite, fixed* id-addressed set. A stream has no fixed set: points
//! arrive forever and the engine must measure a fresh point against window
//! residents before any dataset exists. [`Space`] is the point-level
//! counterpart: it owns nothing, it only knows how to compare two owned
//! points (and to normalize one on ingestion, which is how the angular
//! metric's unit-length preprocessing carries over).

use dod_metrics::{edit_distance, Rounding, VectorMetric};

/// A metric over owned points, used by the streaming engine to compare an
/// incoming point against window residents.
///
/// `dist` must satisfy the metric axioms, exactly like
/// [`dod_metrics::Dataset::dist`]. `Sync` (on both the space and its
/// points) lets window snapshots implement [`dod_metrics::Dataset`] so the
/// batch algorithms can run on them for cross-checking; `Send` lets a
/// detector (and therefore its space and points) move onto the per-shard
/// pump threads of the sharded engine.
pub trait Space: Send + Sync {
    /// The object type flowing through the stream.
    type Point: Clone + Send + Sync;

    /// Exact metric distance between two points.
    fn dist(&self, a: &Self::Point, b: &Self::Point) -> f64;

    /// One-time transform applied when a point enters the window (identity
    /// by default). Mirrors [`VectorMetric::preprocess`]: the angular
    /// metric normalizes to unit length here so every later distance is a
    /// single dot product.
    fn prepare(&self, p: Self::Point) -> Self::Point {
        p
    }

    /// Approximate heap + inline bytes one stored point occupies (state
    /// size reporting; the default counts only the inline size).
    fn point_bytes(&self, _p: &Self::Point) -> usize {
        std::mem::size_of::<Self::Point>()
    }

    /// The rounding error of [`dist`](Self::dist), for rules that bound a
    /// distance by the triangle inequality instead of evaluating it (see
    /// [`dod_metrics::rounding`]). The default, [`Rounding::RELATIVE`], is
    /// [`dod_metrics::Dataset::rounding`]'s default too.
    fn rounding(&self) -> Rounding {
        Rounding::RELATIVE
    }
}

/// Fixed-dimension `f32` vectors under any [`VectorMetric`].
///
/// The dimension is pinned at construction; `prepare` asserts every
/// inserted point matches it, so a malformed producer fails at the
/// insertion boundary instead of deep inside a distance evaluation.
/// `Clone` exists so the sharded engine can hand every shard its own
/// copy of the space.
#[derive(Debug, Clone)]
pub struct VectorSpace<M> {
    metric: M,
    dim: usize,
}

impl<M: VectorMetric> VectorSpace<M> {
    /// A vector space of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(metric: M, dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        VectorSpace { metric, dim }
    }

    /// The pinned dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }
}

impl<M: VectorMetric> Space for VectorSpace<M> {
    type Point = Vec<f32>;

    #[inline]
    fn dist(&self, a: &Vec<f32>, b: &Vec<f32>) -> f64 {
        self.metric.dist(a, b)
    }

    /// # Panics
    /// Panics if the point's length differs from the space's dimension.
    fn prepare(&self, mut p: Vec<f32>) -> Vec<f32> {
        assert_eq!(
            p.len(),
            self.dim,
            "point dimension {} does not match space dimension {}",
            p.len(),
            self.dim
        );
        self.metric.preprocess(&mut p, self.dim);
        p
    }

    fn point_bytes(&self, p: &Vec<f32>) -> usize {
        std::mem::size_of::<Vec<f32>>() + p.capacity() * std::mem::size_of::<f32>()
    }

    fn rounding(&self) -> Rounding {
        self.metric.rounding()
    }
}

/// Strings under Levenshtein edit distance (the paper's Words space).
#[derive(Debug, Clone, Copy, Default)]
pub struct StringSpace;

impl Space for StringSpace {
    type Point = String;

    #[inline]
    fn dist(&self, a: &String, b: &String) -> f64 {
        f64::from(edit_distance(a.as_bytes(), b.as_bytes()))
    }

    fn point_bytes(&self, p: &String) -> usize {
        std::mem::size_of::<String>() + p.capacity()
    }

    fn rounding(&self) -> Rounding {
        Rounding::EXACT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_metrics::{Angular, L2};

    #[test]
    fn vector_space_measures_like_the_metric() {
        let s = VectorSpace::new(L2, 2);
        let a = s.prepare(vec![0.0, 0.0]);
        let b = s.prepare(vec![3.0, 4.0]);
        assert_eq!(s.dist(&a, &b), 5.0);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.metric().name(), "L2");
    }

    #[test]
    fn angular_space_normalizes_on_prepare() {
        let s = VectorSpace::new(Angular, 2);
        let a = s.prepare(vec![2.0, 0.0]);
        let b = s.prepare(vec![0.0, 7.0]);
        assert!((a[0] - 1.0).abs() < 1e-6, "prepare must normalize");
        assert!((s.dist(&a, &b) - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "does not match space dimension")]
    fn wrong_dimension_is_rejected_at_the_boundary() {
        let s = VectorSpace::new(L2, 3);
        let _ = s.prepare(vec![1.0, 2.0]);
    }

    #[test]
    fn spaces_state_their_metric_rounding() {
        assert_eq!(VectorSpace::new(Angular, 2).rounding(), Rounding::ANGULAR);
        assert_eq!(VectorSpace::new(L2, 2).rounding(), Rounding::RELATIVE);
        assert_eq!(StringSpace.rounding(), Rounding::EXACT);
    }

    #[test]
    fn string_space_is_edit_distance() {
        let s = StringSpace;
        assert_eq!(s.dist(&"cat".into(), &"hat".into()), 1.0);
        assert_eq!(s.dist(&"".into(), &"abc".into()), 3.0);
    }
}
