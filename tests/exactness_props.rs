//! Property-based exactness: on arbitrary random instances and queries,
//! every algorithm agrees with the brute-force definition, and the
//! filtering phase never produces false negatives (Lemma 1).

use dod::core::{dolphin, nested_loop, snif, DodParams, Engine, IndexSpec, Query};
use dod::core::{greedy_count, TraversalBuffer};
use dod::graph::MrpgParams;
use dod::prelude::*;
use proptest::prelude::*;

/// Random 2-d points in a box, as flat pairs to keep shrinking cheap.
fn points_strategy(max_n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        (-50.0f32..50.0, -50.0f32..50.0).prop_map(|(x, y)| vec![x, y]),
        2..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_algorithm_matches_the_definition(
        rows in points_strategy(120),
        r in 0.0f64..60.0,
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let n = data.len();
        // Ground truth straight from Definition 2.
        let truth: Vec<u32> = (0..n)
            .filter(|&p| {
                (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count() < k
            })
            .map(|p| p as u32)
            .collect();

        let params = DodParams::new(r, k);
        let q = Query::new(r, k).expect("valid query");
        prop_assert_eq!(&nested_loop::detect(&data, &params, seed).outliers, &truth);
        prop_assert_eq!(&snif::detect(&data, &params, seed).outliers, &truth);
        prop_assert_eq!(&dolphin::detect(&data, &params, seed).outliers, &truth);

        for spec in [
            IndexSpec::VpTree,
            IndexSpec::Mrpg(MrpgParams::new(5)),
            IndexSpec::KGraph { degree: 5 },
        ] {
            let engine = Engine::builder(&data).index(spec).seed(seed).build().expect("engine");
            prop_assert_eq!(&engine.query(q).expect("query").outliers, &truth);
        }
    }

    #[test]
    fn greedy_count_is_a_lower_bound_lemma1(
        rows in points_strategy(100),
        r in 0.0f64..40.0,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let n = data.len();
        let (g, _) = dod::graph::mrpg::build(&data, &MrpgParams::new(4));
        let mut buf = TraversalBuffer::new(n);
        for p in 0..n {
            let truth = (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count();
            let counted = greedy_count(&g, &data, p, r, usize::MAX, &mut buf);
            prop_assert!(
                counted <= truth,
                "greedy overcounted at p={}: {} > {}", p, counted, truth
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree(
        rows in points_strategy(100),
        r in 0.0f64..40.0,
        k in 1usize..6,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let engine = Engine::builder(&data)
            .index(IndexSpec::Mrpg(MrpgParams::new(4)))
            .build()
            .expect("engine");
        let q = Query::new(r, k).expect("valid query");
        let seq = engine.query(q).expect("query");
        let par = engine.query(q.with_threads(4)).expect("query");
        prop_assert_eq!(seq.outliers, par.outliers);
        prop_assert_eq!(seq.candidates, par.candidates);
    }

    #[test]
    fn outlier_sets_are_monotone_in_r_and_k(
        rows in points_strategy(80),
        r in 1.0f64..30.0,
        k in 2usize..6,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let base = nested_loop::detect(&data, &DodParams::new(r, k), 0).outliers;
        // Growing r can only remove outliers.
        let wider = nested_loop::detect(&data, &DodParams::new(r * 1.5, k), 0).outliers;
        prop_assert!(wider.iter().all(|o| base.contains(o)));
        // Growing k can only add outliers.
        let stricter = nested_loop::detect(&data, &DodParams::new(r, k + 1), 0).outliers;
        prop_assert!(base.iter().all(|o| stricter.contains(o)));
    }

    #[test]
    fn mrpg_is_connected_on_random_data(rows in points_strategy(150)) {
        let data = VectorSet::from_rows(&rows, L2);
        let (g, _) = dod::graph::mrpg::build(&data, &MrpgParams::new(5));
        prop_assert_eq!(g.connected_components(), 1);
        g.assert_invariants();
    }

    #[test]
    fn strings_follow_the_same_contract(
        words in prop::collection::vec("[a-c]{1,8}", 3..40),
        r in 0.0f64..5.0,
        k in 1usize..4,
    ) {
        let data = StringSet::new(words.iter().map(String::as_str));
        let n = data.len();
        let truth: Vec<u32> = (0..n)
            .filter(|&p| {
                (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count() < k
            })
            .map(|p| p as u32)
            .collect();
        let params = DodParams::new(r, k);
        prop_assert_eq!(&nested_loop::detect(&data, &params, 0).outliers, &truth);
        prop_assert_eq!(&snif::detect(&data, &params, 0).outliers, &truth);
        let engine = Engine::builder(&data)
            .index(IndexSpec::Mrpg(MrpgParams::new(4)))
            .build()
            .expect("engine");
        prop_assert_eq!(&engine.query(Query::new(r, k).expect("valid")).expect("query").outliers, &truth);
    }
}

/// SplitMix64: a seeded stream, so the probe below replays exactly.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn collinear_integer_points_stay_exact_under_rounding() {
    // Points t·(a, b) on a line: every distance is |t − u|·|(a, b)| up to
    // rounding, and r is one of them, so the datasets are full of d == r
    // ties. Rounded distances break the triangle inequality by an ulp here
    // (√32 − √2 > √18 in f64); a pruning rule that trusts it bare drops a
    // neighbour at exactly r and reports an inlier as an outlier.
    let mut rng = 0x5EED_u64;
    let mut datasets = 0;
    let mut wrong = Vec::new();
    for a in 1u32..=3 {
        for b in 0u32..=3 {
            for _ in 0..60 {
                let n = 6 + (splitmix(&mut rng) % 30) as usize;
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|_| {
                        let t = (splitmix(&mut rng) % 40) as u32;
                        vec![(t * a) as f32, (t * b) as f32]
                    })
                    .collect();
                let data = VectorSet::from_rows(&rows, L2);
                let p = (splitmix(&mut rng) % n as u64) as usize;
                let q = (splitmix(&mut rng) % n as u64) as usize;
                let r = data.dist(p, q);
                let k = 1 + (splitmix(&mut rng) % 4) as usize;
                datasets += 1;
                let params = DodParams::new(r, k);
                let truth = nested_loop::detect(&data, &params, 0).outliers;
                let mut answers = vec![("snif", snif::detect(&data, &params, 0).outliers)];
                for (name, spec) in [
                    ("vptree", IndexSpec::VpTree),
                    ("mrpg", IndexSpec::Mrpg(MrpgParams::new(4))),
                ] {
                    let engine = Engine::builder(&data).index(spec).build().expect("engine");
                    let query = Query::new(r, k).expect("valid query");
                    answers.push((name, engine.query(query).expect("query").outliers));
                }
                for (name, got) in answers {
                    if got != truth {
                        wrong.push(format!(
                            "{name}: a={a} b={b} n={n} r={r} k={k}: want {truth:?}, got {got:?}"
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(datasets, 720);
    assert!(
        wrong.is_empty(),
        "{} wrong answers over {datasets} datasets; first: {}",
        wrong.len(),
        wrong[0]
    );
}
