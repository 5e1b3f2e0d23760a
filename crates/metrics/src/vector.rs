//! Vector spaces: flat `f32` storage with pluggable Minkowski-family and
//! angular metrics.

use crate::dataset::Dataset;

/// A distance function over equal-length `f32` slices.
///
/// Implementations must be metrics (identity, symmetry, triangle
/// inequality). `preprocess` runs once per dataset at construction and may
/// normalize the stored rows (the angular metric uses it to pre-normalize to
/// unit length so each distance evaluation is a single dot product).
///
/// The sum-based metrics here ([`L1`], [`L2`], [`L4`], [`Minkowski`] and
/// [`Angular`]'s dot product) widen every coordinate to `f64` and add the
/// per-coordinate terms in one fixed order: coordinate `i` goes to
/// accumulator lane `i % 4`, in increasing `i`, and the four lanes fold as
/// `(l0 + l2) + (l1 + l3)`. Independent lanes let the compiler keep several
/// additions in flight and pack them into SIMD registers, a reassociation
/// it may not do on its own. The order depends only on the dimension, so a
/// distance is a pure function of its two rows: every consumer, the
/// nested-loop ground truth included, sees the same bits for the same
/// pair, which is what lets "exact" mean "the same outlier set as the
/// nested loop". Swapping the arguments gives the same bits too, since
/// `fl(x − y) = −fl(y − x)` and `x·y = y·x`.
pub trait VectorMetric: Send + Sync {
    /// Exact distance between `a` and `b` (same length), summed in the
    /// fixed lane order above for the sum-based metrics.
    fn dist(&self, a: &[f32], b: &[f32]) -> f64;

    /// One-time hook to transform stored rows at dataset construction.
    fn preprocess(&self, _data: &mut [f32], _dim: usize) {}

    /// Human-readable metric name.
    fn name(&self) -> &'static str;
}

/// Number of independent `f64` accumulators in [`lane_sum`]. Part of every
/// sum-based distance's definition: changing it changes rounding, so saved
/// indexes holding exact-K′ distances must then be refused (`dod_core`'s
/// engine format version).
const LANES: usize = 4;

/// `Σ term(a_i, b_i)` over the common prefix of `a` and `b`, in the fixed
/// order of [`VectorMetric`]: coordinate `i` accumulates into lane
/// `i % LANES` in increasing `i` (so the tail past the last full group of
/// `LANES` goes to lanes `0..`), then the lanes fold pairwise, each halving
/// adding lane `l + w` into lane `l`.
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], term: impl Fn(f64, f64) -> f64) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (a[..n].chunks_exact(LANES), b[..n].chunks_exact(LANES));
    let (tail_a, tail_b) = (a.remainder(), b.remainder());
    let mut acc = [0.0f64; LANES];
    for (xs, ys) in a.zip(b) {
        for ((s, &x), &y) in acc.iter_mut().zip(xs).zip(ys) {
            *s += term(f64::from(x), f64::from(y));
        }
    }
    for ((s, &x), &y) in acc.iter_mut().zip(tail_a).zip(tail_b) {
        *s += term(f64::from(x), f64::from(y));
    }
    let mut w = LANES;
    while w > 1 {
        w /= 2;
        for l in 0..w {
            acc[l] += acc[l + w];
        }
    }
    acc[0]
}

/// Manhattan (`L1`) norm: `Σ |a_i − b_i|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1;

impl VectorMetric for L1 {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        lane_sum(a, b, |x, y| (x - y).abs())
    }

    fn name(&self) -> &'static str {
        "L1"
    }
}

/// Euclidean (`L2`) norm: `sqrt(Σ (a_i − b_i)²)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2;

impl VectorMetric for L2 {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        lane_sum(a, b, |x, y| {
            let d = x - y;
            d * d
        })
        .sqrt()
    }

    fn name(&self) -> &'static str {
        "L2"
    }
}

/// Minkowski norm with `p = 4`: `(Σ (a_i − b_i)⁴)^(1/4)`.
///
/// The paper evaluates MNIST under this metric; the quartic power penalizes
/// large per-coordinate differences more than L2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L4;

impl VectorMetric for L4 {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        lane_sum(a, b, |x, y| {
            let d = x - y;
            let d2 = d * d;
            d2 * d2
        })
        .powf(0.25)
    }

    fn name(&self) -> &'static str {
        "L4"
    }
}

/// Chebyshev (`L∞`) norm: `max |a_i − b_i|`. Provided for completeness of
/// the Minkowski family; not used by the paper's evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl VectorMetric for Chebyshev {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .fold(0.0, f64::max)
    }

    fn name(&self) -> &'static str {
        "Linf"
    }
}

/// General Minkowski norm with arbitrary `p ≥ 1` (a metric only for `p ≥ 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// A Minkowski metric with the given order.
    ///
    /// # Panics
    /// Panics if `p < 1` (the triangle inequality fails below 1).
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "Minkowski order must be >= 1, got {p}");
        Self { p }
    }

    /// The order `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl VectorMetric for Minkowski {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        lane_sum(a, b, |x, y| (x - y).abs().powf(self.p)).powf(1.0 / self.p)
    }

    fn name(&self) -> &'static str {
        "Minkowski"
    }
}

/// Angular distance: `arccos(cos_similarity(a, b))`, the geodesic distance
/// on the unit sphere (a true metric, unlike raw cosine similarity).
///
/// Stored rows are normalized to unit length at construction, so each
/// distance evaluation is one dot product plus an `acos`. Zero vectors are
/// left untouched and are at distance `π/2` from everything (their dot
/// product is zero), which keeps the function total and symmetric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Angular;

impl VectorMetric for Angular {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        let dot = lane_sum(a, b, |x, y| x * y);
        dot.clamp(-1.0, 1.0).acos()
    }

    fn preprocess(&self, data: &mut [f32], dim: usize) {
        assert!(dim > 0, "angular metric requires dim > 0");
        for row in data.chunks_exact_mut(dim) {
            let norm: f64 = row.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
            let norm = norm.sqrt();
            if norm > 0.0 {
                for x in row {
                    *x = (*x as f64 / norm) as f32;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "Angular"
    }
}

/// A set of equal-dimension vectors stored in one flat, cache-friendly
/// buffer, paired with a [`VectorMetric`].
pub struct VectorSet<M> {
    data: Vec<f32>,
    dim: usize,
    metric: M,
}

impl<M: VectorMetric> VectorSet<M> {
    /// Builds a set from a flat row-major buffer of `n × dim` values.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(mut data: Vec<f32>, dim: usize, metric: M) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        metric.preprocess(&mut data, dim);
        Self { data, dim, metric }
    }

    /// Builds a set from per-object rows. All rows must share one length.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or the first row is empty.
    pub fn from_rows(rows: &[Vec<f32>], metric: M) -> Self {
        let dim = rows.first().map_or(1, |r| r.len());
        assert!(dim > 0, "vector dimension must be positive");
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            assert_eq!(row.len(), dim, "all rows must have the same dimension");
            data.extend_from_slice(row);
        }
        Self::from_flat(data, dim, metric)
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The (possibly preprocessed) row for object `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Bytes of object storage (used by the index-size experiment).
    pub fn data_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl<M: VectorMetric> Dataset for VectorSet<M> {
    fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        // An object is at distance zero from itself by definition; skipping
        // the evaluation also sidesteps `acos` rounding for the angular
        // metric, where `dot(x, x)` of an f32-normalized row can land at
        // `1 - ulp` and `acos` blows the error up to ~3e-4.
        if i == j {
            return 0.0;
        }
        self.metric.dist(self.row(i), self.row(j))
    }

    /// FNV-1a over the stored (preprocessed) point bytes plus the
    /// dimensionality — any changed coordinate changes the digest.
    fn content_digest(&self) -> u64 {
        let mut h = crate::Fnv1a::new();
        h.write_u64(self.dim as u64);
        for v in &self.data {
            h.write(&v.to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set2<M: VectorMetric>(metric: M) -> VectorSet<M> {
        VectorSet::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![-1.0, 1.0]], metric)
    }

    #[test]
    fn l1_matches_hand_computation() {
        let s = set2(L1);
        assert_eq!(s.dist(0, 1), 7.0);
        assert_eq!(s.dist(1, 2), 4.0 + 3.0);
    }

    #[test]
    fn l2_matches_hand_computation() {
        let s = set2(L2);
        assert_eq!(s.dist(0, 1), 5.0);
        assert!((s.dist(0, 2) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn l4_matches_hand_computation() {
        let s = set2(L4);
        let expected = (3f64.powi(4) + 4f64.powi(4)).powf(0.25);
        assert!((s.dist(0, 1) - expected).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_takes_max_coordinate() {
        let s = set2(Chebyshev);
        assert_eq!(s.dist(0, 1), 4.0);
    }

    #[test]
    fn minkowski_p2_equals_l2() {
        let m = Minkowski::new(2.0);
        let s = set2(m);
        let e = set2(L2);
        for i in 0..3 {
            for j in 0..3 {
                assert!((s.dist(i, j) - e.dist(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "Minkowski order must be >= 1")]
    fn minkowski_rejects_p_below_one() {
        let _ = Minkowski::new(0.5);
    }

    #[test]
    fn angular_normalizes_rows() {
        let s = VectorSet::from_rows(&[vec![2.0, 0.0], vec![0.0, 5.0]], Angular);
        // After normalization the rows are unit vectors; the angle is π/2.
        assert!((s.dist(0, 1) - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
        assert!((s.row(0)[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn angular_identical_directions_are_at_distance_zero() {
        let s = VectorSet::from_rows(&[vec![1.0, 1.0], vec![10.0, 10.0]], Angular);
        assert!(s.dist(0, 1).abs() < 1e-3);
    }

    #[test]
    fn angular_opposite_directions_are_at_distance_pi() {
        let s = VectorSet::from_rows(&[vec![1.0, 0.0], vec![-3.0, 0.0]], Angular);
        assert!((s.dist(0, 1) - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn angular_zero_vector_is_quarter_turn_from_everything() {
        let s = VectorSet::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0]], Angular);
        assert!((s.dist(0, 1) - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
        // Self-distance is still zero thanks to the i == j shortcut.
        assert_eq!(s.dist(0, 0), 0.0);
    }

    #[test]
    fn from_flat_round_trips_rows() {
        let s = VectorSet::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2, L2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(1), &[3.0, 4.0]);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.data_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "not a multiple of dim")]
    fn from_flat_rejects_ragged_buffer() {
        let _ = VectorSet::from_flat(vec![1.0, 2.0, 3.0], 2, L2);
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn from_rows_rejects_ragged_rows() {
        let _ = VectorSet::from_rows(&[vec![1.0], vec![1.0, 2.0]], L2);
    }

    #[test]
    fn empty_set_has_len_zero() {
        let s = VectorSet::from_rows(&[], L2);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    /// The summation order [`VectorMetric`] documents, spelled out for four
    /// lanes. A change to [`LANES`] or the fold fails against this on
    /// purpose: it changes every distance's rounding.
    fn documented_order(terms: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 4];
        for (i, t) in terms.iter().enumerate() {
            lanes[i % 4] += t;
        }
        (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    }

    /// Neumaier's compensated sum: error at most about `2u·|Σ t|` plus a
    /// term in `n²u²·Σ|t|`, far below the lane sum's own error.
    fn compensated(terms: &[f64]) -> f64 {
        let (mut sum, mut comp) = (0.0f64, 0.0f64);
        for &t in terms {
            let next = sum + t;
            comp += if sum.abs() >= t.abs() {
                (sum - next) + t
            } else {
                (t - next) + sum
            };
            sum = next;
        }
        sum + comp
    }

    #[test]
    fn lane_sums_follow_the_documented_order_within_a_stated_bound() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        type Term = fn(f64, f64) -> f64;
        let terms: [(&str, Term); 4] = [
            ("abs", |x, y| (x - y).abs()),
            ("square", |x, y| (x - y) * (x - y)),
            ("quartic", |x, y| {
                let d2 = (x - y) * (x - y);
                d2 * d2
            }),
            ("dot", |x, y| x * y),
        ];
        // Mixed signs and magnitudes over 2^±12, so partial sums cancel.
        let mut rng = StdRng::seed_from_u64(29);
        let coord = |rng: &mut StdRng| {
            let m: f32 = rng.gen_range(-1.0..1.0);
            m * 2f32.powi(rng.gen_range(-12..13))
        };
        for dim in 0..=130usize {
            for _ in 0..4 {
                let a: Vec<f32> = (0..dim).map(|_| coord(&mut rng)).collect();
                let b: Vec<f32> = (0..dim).map(|_| coord(&mut rng)).collect();
                for (name, term) in terms {
                    let ts: Vec<f64> = a
                        .iter()
                        .zip(&b)
                        .map(|(&x, &y)| term(f64::from(x), f64::from(y)))
                        .collect();
                    let got = lane_sum(&a, &b, term);
                    assert_eq!(got.to_bits(), documented_order(&ts).to_bits(), "{name}");
                    // Every term passes through at most
                    // ⌈n/LANES⌉ − 1 + log2(LANES) roundings, so
                    // |got − Σt| ≤ γ_h·Σ|t| with γ_h ≈ h·u; the reference
                    // adds its own ≤ 2u·Σ|t|.
                    let h = dim.div_ceil(LANES) + LANES.ilog2() as usize;
                    let bound = (h + 3) as f64
                        * (f64::EPSILON / 2.0)
                        * ts.iter().map(|t| t.abs()).sum::<f64>();
                    let err = (got - compensated(&ts)).abs();
                    assert!(
                        err <= bound,
                        "{name} at dim {dim}: error {err:e} > {bound:e}"
                    );
                }
                let sum = |term: Term| lane_sum(&a, &b, term);
                assert_eq!(L1.dist(&a, &b), sum(terms[0].1));
                assert_eq!(L2.dist(&a, &b), sum(terms[1].1).sqrt());
                assert_eq!(L4.dist(&a, &b), sum(terms[2].1).powf(0.25));
                assert_eq!(
                    Angular.dist(&a, &b),
                    sum(terms[3].1).clamp(-1.0, 1.0).acos()
                );
                let p3 = Minkowski::new(3.0);
                let cube: Term = |x, y| (x - y).abs().powf(3.0);
                assert_eq!(p3.dist(&a, &b), sum(cube).powf(1.0 / 3.0));
            }
        }
    }

    #[test]
    fn self_distance_is_zero_for_all_metrics() {
        assert_eq!(set2(L1).dist(1, 1), 0.0);
        assert_eq!(set2(L2).dist(1, 1), 0.0);
        assert_eq!(set2(L4).dist(1, 1), 0.0);
        assert_eq!(set2(Chebyshev).dist(1, 1), 0.0);
    }
}
