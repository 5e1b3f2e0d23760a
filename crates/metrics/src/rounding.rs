//! Rounding-safe triangle-inequality bounds: the per-metric error model.
//!
//! Computed distances are rounded, so they obey the triangle inequality
//! only up to rounding (in `f64`, `√32 − √2 > √18` on collinear points).
//! A rule that decides `d(p, w) <= r` from other distances instead of
//! evaluating it — a VP-tree child test, a Greedy-Counting hop over a
//! stored edge length, SNIF's cluster radius and whole-cluster prunes,
//! the shard router's ghost bound — must widen its bound by the error of
//! every distance it combines, or a pair at `d == r` is decided by
//! rounding and an inlier is reported as an outlier. [`Rounding`] is that
//! error for one metric, reached through
//! [`Dataset::rounding`](crate::Dataset::rounding) (and, for streams, the
//! stream `Space`'s `rounding`):
//!
//! | Metric | Model | Why it holds |
//! |---|---|---|
//! | L1, L2, L4, Minkowski, Chebyshev | relative, [`Rounding::RELATIVE`] (1e-9 of the magnitudes a bound adds) | the lane sum's error is at most `(⌈dim/4⌉ + 5)·2⁻⁵³` of the sum (`vector.rs` tests it), and `sqrt`/`powf` add about an ulp: under 1e-9 for `dim` below 10⁷ |
//! | Angular | absolute, [`ANGULAR_ERROR`] (5e-4 rad) per distance | see below |
//! | Edit distance | exact | distances are small integers, so every bound is exact in `f64` |
//!
//! **Angular.** [`Angular`](crate::Angular) stores rows normalized to
//! `f32`, so each norm is within about 2⁻²⁴ of 1 and a dot product is off
//! its true cosine by up to about 2⁻²³. `acos` is steepest at 1, where that
//! becomes `acos(1 − 2⁻²³) ≈ 2⁻¹¹ ≈ 4.883e-4` rad whatever the angle: two
//! identical normalized rows can measure 4.2e-4 apart. [`ANGULAR_ERROR`]
//! rounds this up to 5e-4, which also covers the `f64` dot product's own
//! rounding (below `dim·2⁻⁵²`, under 5% of 2⁻²³ for `dim` below 10⁷). A
//! relative slack cannot model this: the error does not shrink with the
//! distance.

/// Relative slack of the vector norms' model ([`Rounding::RELATIVE`]):
/// the error per unit of the magnitudes a triangle bound adds.
const TRIANGLE_SLACK: f64 = 1e-9;

/// The error of one computed angular distance, in radians: `acos(1 − 2⁻²³)`
/// rounded up (derivation in the [module docs](self)).
pub const ANGULAR_ERROR: f64 = 5e-4;

/// How far a metric's computed distances may stray from the metric they
/// round, so that triangle-inequality bounds over them can be trusted.
///
/// The per-metric models are in the [module docs](self). Sound bounds on
/// computed distances come from [`Rounding::triangle`]; a rule that only
/// needs the width uses [`Rounding::triangle_slack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rounding {
    /// Error per unit of distance magnitude.
    relative: f64,
    /// Error of any one computed distance, whatever its size.
    absolute: f64,
}

impl Rounding {
    /// No rounding: integer-valued metrics such as edit distance.
    pub const EXACT: Rounding = Rounding {
        relative: 0.0,
        absolute: 0.0,
    };

    /// 1e-9 of the magnitudes a bound adds: the vector norms, and the
    /// default for any [`Dataset`](crate::Dataset).
    pub const RELATIVE: Rounding = Rounding {
        relative: TRIANGLE_SLACK,
        absolute: 0.0,
    };

    /// [`ANGULAR_ERROR`] per computed distance: the angular metric.
    pub const ANGULAR: Rounding = Rounding {
        relative: 0.0,
        absolute: ANGULAR_ERROR,
    };

    /// The width by which one triangle inequality over computed distances
    /// must be widened. `magnitude` is the sum of the distances the bound
    /// adds (`d + r` for a VP-tree ring). The width covers the rounding of
    /// all three distances of the triangle.
    #[inline]
    pub fn triangle_slack(self, magnitude: f64) -> f64 {
        self.relative * magnitude + 3.0 * self.absolute
    }

    /// Bounds on the computed `d(x, z)`, given bounds on the computed
    /// `d(x, y)` and `d(y, z)`: the triangle inequality both ways, widened
    /// by [`triangle_slack`](Self::triangle_slack). Bounds derived from
    /// derived bounds stay sound, because every step widens again.
    #[inline]
    pub fn triangle(self, xy: DistBounds, yz: DistBounds) -> DistBounds {
        let hi = xy.hi + yz.hi;
        let slack = self.triangle_slack(hi);
        DistBounds {
            lo: (xy.lo - yz.hi).max(yz.lo - xy.hi) - slack,
            hi: hi + slack,
        }
    }
}

/// Bounds `[lo, hi]` on one computed distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistBounds {
    /// No computed distance in the bounds is below this.
    pub lo: f64,
    /// No computed distance in the bounds is above this.
    pub hi: f64,
}

impl DistBounds {
    /// Nothing known: `[0, ∞)`.
    pub const UNKNOWN: DistBounds = DistBounds {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    /// An evaluated distance.
    #[inline]
    pub fn exact(d: f64) -> Self {
        DistBounds { lo: d, hi: d }
    }

    /// Decides `d <= r` for the bounded distance `d`: `Some(true)` when it
    /// is surely within `r`, `Some(false)` when surely beyond, and `None`
    /// when only evaluating `d` can tell.
    #[inline]
    pub fn within(self, r: f64) -> Option<bool> {
        if self.hi <= r {
            Some(true)
        } else if self.lo > r {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_relative_model_is_todays_slack_bit_for_bit() {
        for m in [0.0, 1e-300, 0.5, 3.0, 1e12, f64::MAX / 2.0] {
            assert_eq!(
                Rounding::RELATIVE.triangle_slack(m).to_bits(),
                (TRIANGLE_SLACK * m).to_bits()
            );
        }
        assert_eq!(Rounding::EXACT.triangle_slack(7.0), 0.0);
        assert_eq!(Rounding::ANGULAR.triangle_slack(7.0), 3.0 * ANGULAR_ERROR);
    }

    #[test]
    fn relative_slack_covers_the_lane_sum_error_below_ten_million_dims() {
        // The lane-sum bound `vector.rs` tests, plus an ulp each for the
        // root and the comparison, for the three distances of a triangle.
        let dim = 10_000_000usize;
        let per_distance = (dim.div_ceil(4) + 5 + 2) as f64 * f64::EPSILON / 2.0;
        assert!(3.0 * per_distance < TRIANGLE_SLACK, "{per_distance:e}");
    }

    #[test]
    fn angular_error_is_acos_at_the_normalization_bound_rounded_up() {
        let at_bound = (1.0 - 2f64.powi(-23)).acos();
        assert!(
            (at_bound / 2f64.powi(-11) - 1.0).abs() < 1e-7,
            "{at_bound:e}"
        );
        assert!(ANGULAR_ERROR >= at_bound);
        // Headroom for the f64 dot product's own rounding: the cosine
        // error may exceed 2⁻²³ by 4.8% before acos passes the constant.
        let cos_headroom = (1.0 - ANGULAR_ERROR.cos()) / 2f64.powi(-23) - 1.0;
        assert!(
            cos_headroom > 0.045 && cos_headroom < 0.05,
            "{cos_headroom}"
        );
    }

    #[test]
    fn triangle_bounds_hold_both_ways_and_decide_only_outside_the_slack() {
        let r = Rounding::RELATIVE;
        // d(x, y) = 3 exactly, d(y, z) somewhere in [1, 2].
        let b = r.triangle(DistBounds::exact(3.0), DistBounds { lo: 1.0, hi: 2.0 });
        assert!(b.lo < 1.0 && b.lo > 1.0 - 1e-8, "{b:?}");
        assert!(b.hi > 5.0 && b.hi < 5.0 + 1e-8, "{b:?}");
        assert_eq!(b.within(5.0), None, "a tie at the upper bound is evaluated");
        assert_eq!(b.within(5.1), Some(true));
        assert_eq!(b.within(1.0), None, "a tie at the lower bound is evaluated");
        assert_eq!(b.within(0.9), Some(false));
        // Symmetric in which side is longer.
        let swapped = r.triangle(DistBounds { lo: 1.0, hi: 2.0 }, DistBounds::exact(3.0));
        assert_eq!(swapped, b);
        // Exact metrics decide right at the bound.
        let e = Rounding::EXACT.triangle(DistBounds::exact(3.0), DistBounds::exact(2.0));
        assert_eq!(e, DistBounds { lo: 1.0, hi: 5.0 });
        assert_eq!(e.within(5.0), Some(true));
        assert_eq!(e.within(0.5), Some(false));
    }

    #[test]
    fn unknown_bounds_never_decide() {
        for rounding in [Rounding::EXACT, Rounding::RELATIVE, Rounding::ANGULAR] {
            let b = rounding.triangle(DistBounds::exact(1.0), DistBounds::UNKNOWN);
            for r in [0.0, 0.5, 1.0, 1e300] {
                assert_eq!(DistBounds::UNKNOWN.within(r), None);
                assert_eq!(b.within(r), None, "{rounding:?} r={r}: {b:?}");
            }
        }
        // NaN bounds never decide either.
        let nan = DistBounds::exact(f64::NAN);
        assert_eq!(nan.within(1.0), None);
        assert_eq!(
            Rounding::EXACT
                .triangle(nan, DistBounds::exact(1.0))
                .within(1.0),
            None
        );
        assert_eq!(DistBounds::exact(2.0).within(2.0), Some(true));
        assert_eq!(DistBounds::exact(2.0).within(1.5), Some(false));
    }
}
