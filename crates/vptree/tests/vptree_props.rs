//! Property tests: the VP-tree must agree with brute force on arbitrary
//! data — vectors and strings — for range counting.
//! The verification phase of Algorithm 1 leans on this index, so an
//! incorrect prune here would silently break the paper's exactness claim.

use dod_metrics::{Dataset, StringSet, VectorSet, L2};
use dod_vptree::VpTree;
use proptest::prelude::*;

fn points(max_n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0).prop_map(|(x, y, z)| vec![x, y, z]),
        1..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_count_matches_brute_force(
        rows in points(120),
        r in 0.0f64..30.0,
        seed in 0u64..100,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let tree = VpTree::build(&data, seed);
        for q in 0..data.len().min(20) {
            let truth = (0..data.len())
                .filter(|&j| j != q && data.dist(q, j) <= r)
                .count();
            prop_assert_eq!(tree.range_count(&data, q, r, usize::MAX), truth);
        }
    }

    #[test]
    fn early_termination_never_changes_the_verdict(
        rows in points(100),
        r in 0.0f64..20.0,
        k in 1usize..10,
    ) {
        // The DOD decision is count < k; capping the count at k must give
        // the same verdict as the full count.
        let data = VectorSet::from_rows(&rows, L2);
        let tree = VpTree::build(&data, 2);
        for q in 0..data.len().min(15) {
            let full = tree.range_count(&data, q, r, usize::MAX);
            let capped = tree.range_count(&data, q, r, k);
            prop_assert_eq!(full < k, capped < k, "q={}", q);
            prop_assert!(capped <= k);
        }
    }

    #[test]
    fn works_on_random_strings(
        words in prop::collection::vec("[a-e]{0,10}", 2..50),
        r in 0.0f64..6.0,
    ) {
        let data = StringSet::new(words.iter().map(String::as_str));
        let tree = VpTree::build(&data, 4);
        for q in 0..data.len().min(10) {
            let truth = (0..data.len())
                .filter(|&j| j != q && data.dist(q, j) <= r)
                .count();
            prop_assert_eq!(tree.range_count(&data, q, r, usize::MAX), truth);
        }
    }
}
