//! Property tests: every distance function must satisfy the metric axioms
//! (identity of indiscernibles relaxed to `d(x,x) = 0`, symmetry, triangle
//! inequality). The DOD algorithms' correctness proofs (Lemma 1 etc.) assume
//! these properties, so violating them would silently break exactness.

use dod_metrics::{
    edit_distance, Angular, Chebyshev, Dataset, Minkowski, StringSet, VectorMetric, VectorSet, L1,
    L2, L4,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dimensions around the vector kernels' four accumulator lanes: a tail
/// only (1), one group plus a three-wide tail (7), whole groups (8, and
/// Deep's 96), groups plus one tail coordinate (9), and a long body plus a
/// three-wide tail (99).
const DIMS: [usize; 6] = [1, 7, 8, 9, 96, 99];

/// Three vectors of one dimension drawn from [`DIMS`].
fn triple_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    let max = DIMS[DIMS.len() - 1];
    let coords = || prop::collection::vec(-100.0f32..100.0, max);
    (0..DIMS.len(), coords(), coords(), coords()).prop_map(|(d, mut a, mut b, mut c)| {
        for v in [&mut a, &mut b, &mut c] {
            v.truncate(DIMS[d]);
        }
        (a, b, c)
    })
}

/// Absolute slack for floating-point triangle-inequality checks.
const EPS: f64 = 1e-6;

fn check_axioms<M: VectorMetric>(
    metric: M,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
) -> Result<(), TestCaseError> {
    check_axioms_eps(metric, a, b, c, EPS)
}

fn check_axioms_eps<M: VectorMetric>(
    metric: M,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    eps: f64,
) -> Result<(), TestCaseError> {
    let s = VectorSet::from_rows(&[a, b, c], metric);
    for i in 0..3 {
        let d_ii = s.dist(i, i);
        prop_assert!(d_ii.abs() <= eps, "d(x,x) = {} != 0", d_ii);
        for j in 0..3 {
            let d_ij = s.dist(i, j);
            prop_assert!(d_ij >= 0.0, "negative distance {}", d_ij);
            // Bit-exact: fl(x − y) = −fl(y − x) and x·y = y·x, and the
            // summation order depends only on the dimension.
            prop_assert!(
                d_ij == s.dist(j, i),
                "asymmetric: d({},{})={} d({},{})={}",
                i,
                j,
                d_ij,
                j,
                i,
                s.dist(j, i)
            );
            for k in 0..3 {
                let lhs = s.dist(i, k);
                let rhs = d_ij + s.dist(j, k);
                prop_assert!(
                    lhs <= rhs + eps,
                    "triangle violated: d({},{})={} > {}",
                    i,
                    k,
                    lhs,
                    rhs
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn l1_is_a_metric((a, b, c) in triple_strategy()) {
        check_axioms(L1, a, b, c)?;
    }

    #[test]
    fn l2_is_a_metric((a, b, c) in triple_strategy()) {
        check_axioms(L2, a, b, c)?;
    }

    #[test]
    fn l4_is_a_metric((a, b, c) in triple_strategy()) {
        check_axioms(L4, a, b, c)?;
    }

    #[test]
    fn chebyshev_is_a_metric((a, b, c) in triple_strategy()) {
        check_axioms(Chebyshev, a, b, c)?;
    }

    #[test]
    fn minkowski_p3_is_a_metric((a, b, c) in triple_strategy()) {
        check_axioms(Minkowski::new(3.0), a, b, c)?;
    }

    #[test]
    fn angular_is_a_metric((a, b, c) in triple_strategy()) {
        // Skip near-zero vectors: normalization leaves them at the origin,
        // where angular distance degenerates to a constant π/2 (still
        // symmetric but d(x,x) != 0, which the generator never produces).
        let big = |v: &[f32]| v.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt() > 1.0;
        prop_assume!(big(&a) && big(&b) && big(&c));
        // f32 row normalization + acos near 1 keeps errors ~1e-4.
        check_axioms_eps(Angular, a, b, c, 2e-3)?;
    }

    #[test]
    fn l2_agrees_with_minkowski_p2((a, b, _) in triple_strategy()) {
        let s2 = VectorSet::from_rows(&[a.clone(), b.clone()], L2);
        let sm = VectorSet::from_rows(&[a, b], Minkowski::new(2.0));
        prop_assert!((s2.dist(0, 1) - sm.dist(0, 1)).abs() < 1e-6);
    }

    #[test]
    fn edit_distance_is_a_metric(
        a in "[a-d]{0,12}",
        b in "[a-d]{0,12}",
        c in "[a-d]{0,12}",
    ) {
        let s = StringSet::new([a.as_str(), b.as_str(), c.as_str()]);
        for i in 0..3 {
            prop_assert_eq!(s.dist(i, i), 0.0);
            for j in 0..3 {
                prop_assert_eq!(s.dist(i, j), s.dist(j, i));
                for k in 0..3 {
                    prop_assert!(s.dist(i, k) <= s.dist(i, j) + s.dist(j, k));
                }
            }
        }
    }

    #[test]
    fn edit_distance_bounded_by_longer_string(
        a in "[a-z]{0,16}",
        b in "[a-z]{0,16}",
    ) {
        let d = edit_distance(a.as_bytes(), b.as_bytes());
        let lower = (a.len() as i64 - b.len() as i64).unsigned_abs() as u32;
        let upper = a.len().max(b.len()) as u32;
        prop_assert!(d >= lower, "distance {d} below length-difference bound {lower}");
        prop_assert!(d <= upper, "distance {d} above max-length bound {upper}");
    }

    #[test]
    fn edit_distance_zero_iff_equal(a in "[a-c]{0,10}", b in "[a-c]{0,10}") {
        let d = edit_distance(a.as_bytes(), b.as_bytes());
        prop_assert_eq!(d == 0, a == b);
    }
}

/// Integer offsets whose squares sum to a perfect square, spread from the
/// last coordinate backwards so they land in several accumulator lanes and
/// in the tail, if any: `(offsets, L2 norm, L1 norm)`.
fn pythagorean_offsets(dim: usize, rng: &mut StdRng) -> (Vec<f32>, f64, f64) {
    // 2² + 3² + 6² = 7², so four copies sum to 4·7² = 14².
    let (terms, l2): (&[f32], f64) = match dim {
        1 => (&[5.0], 5.0),
        2 => (&[3.0, 4.0], 5.0),
        3..=11 => (&[2.0, 3.0, 6.0], 7.0),
        _ => (
            &[2.0, 3.0, 6.0, 2.0, 3.0, 6.0, 2.0, 3.0, 6.0, 2.0, 3.0, 6.0],
            14.0,
        ),
    };
    let mut offsets = vec![0.0; dim];
    for (j, &t) in terms.iter().enumerate() {
        let sign = if rng.gen_range(0..2u8) == 0 {
            -1.0
        } else {
            1.0
        };
        offsets[dim - 1 - j * dim / terms.len()] = sign * t;
    }
    (offsets, l2, terms.iter().map(|&t| f64::from(t)).sum())
}

#[test]
fn integer_ties_are_exact_across_lanes() {
    // Integer coordinates keep every partial sum an exact integer, so the
    // distance is exactly the integer norm whatever the summation order,
    // and a pair at that distance is a `dist == r` tie.
    let mut rng = StdRng::seed_from_u64(13);
    for dim in DIMS.into_iter().chain([2, 3, 4, 5, 12, 13]) {
        for _ in 0..20 {
            let a: Vec<f32> = (0..dim)
                .map(|_| rng.gen_range(-1000..1000) as f32)
                .collect();
            let (offsets, l2, l1) = pythagorean_offsets(dim, &mut rng);
            let b: Vec<f32> = a.iter().zip(&offsets).map(|(x, o)| x + o).collect();
            assert_eq!(L2.dist(&a, &b), l2, "L2 at dim {dim}");
            assert_eq!(L1.dist(&a, &b), l1, "L1 at dim {dim}");
            let s = VectorSet::from_rows(&[a, b], L2);
            assert_eq!((s.dist(0, 1), s.dist(1, 0)), (l2, l2), "dim {dim}");
        }
    }
}
