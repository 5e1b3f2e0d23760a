//! Property-based exactness: on arbitrary random instances and queries,
//! every algorithm agrees with the brute-force definition, and the
//! filtering phase never produces false negatives (Lemma 1).

use dod::core::{dolphin, nested_loop, snif, DodParams, Engine, IndexSpec, Query};
use dod::core::{greedy_walk, EdgeLengths, TraversalBuffer, VerifyStrategy};
use dod::graph::{mrpg, MrpgParams};
use dod::metrics::DistanceCounter;
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
        let lengths = EdgeLengths::measure(&g, &data, 1);
        for p in 0..n {
            let truth = (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count();
            let counted = greedy_walk(&g, Some(&lengths), &data, p, r, usize::MAX, &mut buf).len();
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

/// Rows `t·(b0, b1 + ε, b2)` along one to four integer directions `b`
/// (`b0` in 1..=7, `b1` and `b2` in 0..=6), with `t` in 1..50 and `ε` in
/// {0, …, 4}·1e-3 per row: most pairs are parallel or nearly so, where
/// `acos` turns the `f32` row normalization into up to 4.9e-4 rad of
/// error.
fn near_parallel_rows(rng: &mut u64) -> Vec<Vec<f32>> {
    let dirs: Vec<[f64; 3]> = (0..1 + splitmix(rng) % 4)
        .map(|_| {
            [
                (1 + splitmix(rng) % 7) as f64,
                (splitmix(rng) % 7) as f64,
                (splitmix(rng) % 7) as f64,
            ]
        })
        .collect();
    let n = 6 + (splitmix(rng) % 40) as usize;
    (0..n)
        .map(|_| {
            let b = dirs[(splitmix(rng) % dirs.len() as u64) as usize];
            let t = (1 + splitmix(rng) % 49) as f64;
            let eps = (splitmix(rng) % 5) as f64 * 1e-3;
            vec![
                (t * b[0]) as f32,
                (t * (b[1] + eps)) as f32,
                (t * b[2]) as f32,
            ]
        })
        .collect()
}

#[test]
fn near_parallel_angular_points_stay_exact_under_rounding() {
    // Identical directions measure up to 4.2e-4 rad apart, and r is one
    // of the measured distances, so d == r ties sit inside the angular
    // kernel's rounding. A triangle rule with a relative slack prunes
    // such a neighbour and reports an inlier as an outlier.
    let mut rng = 0xA06_u64;
    let mut wrong = Vec::new();
    const DATASETS: usize = 1000;
    for _ in 0..DATASETS {
        let rows = near_parallel_rows(&mut rng);
        let data = VectorSet::from_rows(&rows, Angular);
        let n = data.len();
        let p = (splitmix(&mut rng) % n as u64) as usize;
        let q = (splitmix(&mut rng) % n as u64) as usize;
        let r = data.dist(p, q);
        let k = 1 + (splitmix(&mut rng) % 4) as usize;
        let params = DodParams::new(r, k);
        let truth = nested_loop::detect(&data, &params, 0).outliers;
        let query = Query::new(r, k).expect("valid query");
        let got = snif::detect(&data, &params, 0).outliers;
        if got != truth {
            wrong.push(format!(
                "snif: n={n} r={r:e} k={k}: want {truth:?}, got {got:?}"
            ));
        }
        // A batch engine over a stream window must measure with the
        // window's metric, rounding model included.
        let mut det =
            StreamDetector::open(VectorSpace::new(Angular, 3), query, WindowSpec::Count(64))
                .expect("stream detector");
        for row in &rows {
            det.insert(row.clone());
        }
        let view_truth = nested_loop::detect(&det.window_view(), &params, 0).outliers;
        let got = Engine::builder(det.window_view())
            .index(IndexSpec::VpTree)
            .build()
            .expect("engine")
            .query(query)
            .expect("query")
            .outliers;
        if got != view_truth {
            wrong.push(format!(
                "window-view: n={n} r={r:e} k={k}: want {view_truth:?}, got {got:?}"
            ));
        }
        for (name, spec, verify) in [
            ("vptree", IndexSpec::VpTree, VerifyStrategy::Auto),
            (
                "mrpg",
                IndexSpec::Mrpg(MrpgParams::new(4)),
                VerifyStrategy::Auto,
            ),
            (
                "mrpg+vptree",
                IndexSpec::Mrpg(MrpgParams::new(4)),
                VerifyStrategy::VpTree,
            ),
            ("nsw", IndexSpec::Nsw { degree: 4 }, VerifyStrategy::Auto),
            (
                "kgraph",
                IndexSpec::KGraph { degree: 4 },
                VerifyStrategy::Auto,
            ),
        ] {
            let engine = Engine::builder(&data)
                .index(spec)
                .verify(verify)
                .build()
                .expect("engine");
            let got = engine.query(query).expect("query").outliers;
            if got != truth {
                wrong.push(format!(
                    "{name}: n={n} r={r:e} k={k}: want {truth:?}, got {got:?}"
                ));
            }
        }
    }
    let per_spec = [
        "vptree:",
        "mrpg:",
        "mrpg+vptree:",
        "nsw:",
        "kgraph:",
        "snif:",
        "window-view:",
    ]
    .map(|spec| (spec, wrong.iter().filter(|w| w.starts_with(spec)).count()));
    assert!(
        wrong.is_empty(),
        "{} wrong answers over {DATASETS} datasets {per_spec:?}; first: {}",
        wrong.len(),
        wrong[0]
    );
}

/// Integer points `t·(a, b)` on a line through the origin, as in
/// `collinear_integer_points_stay_exact_under_rounding`.
fn collinear_rows(rng: &mut u64) -> Vec<Vec<f32>> {
    let (a, b) = (1 + splitmix(rng) % 3, splitmix(rng) % 4);
    let n = 20 + (splitmix(rng) % 20) as usize;
    (0..n)
        .map(|_| {
            let t = splitmix(rng) % 40;
            vec![(t * a) as f32, (t * b) as f32]
        })
        .collect()
}

/// Points on a small integer grid: many repeated distances.
fn grid_rows(rng: &mut u64) -> Vec<Vec<f32>> {
    let n = 20 + (splitmix(rng) % 20) as usize;
    (0..n)
        .map(|_| (0..3).map(|_| (splitmix(rng) % 5) as f32).collect())
        .collect()
}

#[test]
fn walk_with_lengths_matches_the_walk_without() {
    // The walk over measured edge lengths must make every verdict an
    // evaluation would: the same reached ids in the same order and the
    // same hops, never more evaluations. It runs through `AnyDataset` and
    // `DistanceCounter`, so a wrapper that drops the metric's rounding
    // model (and falls back to a relative slack on angular data) fails.
    let mut rng = 0x3A1C_u64;
    let mut cases: Vec<(&str, AnyDataset)> = Vec::new();
    for _ in 0..4 {
        cases.push((
            "l1",
            AnyDataset::L1(VectorSet::from_rows(&grid_rows(&mut rng), L1)),
        ));
        cases.push((
            "l2",
            AnyDataset::L2(VectorSet::from_rows(&grid_rows(&mut rng), L2)),
        ));
        cases.push((
            "l4",
            AnyDataset::L4(VectorSet::from_rows(&grid_rows(&mut rng), L4)),
        ));
        cases.push((
            "l2-collinear",
            AnyDataset::L2(VectorSet::from_rows(&collinear_rows(&mut rng), L2)),
        ));
        cases.push((
            "angular",
            AnyDataset::Angular(VectorSet::from_rows(&near_parallel_rows(&mut rng), Angular)),
        ));
        let words: Vec<String> = (0..30)
            .map(|_| {
                let len = 1 + splitmix(&mut rng) % 8;
                (0..len)
                    .map(|_| char::from(b'a' + (splitmix(&mut rng) % 3) as u8))
                    .collect()
            })
            .collect();
        cases.push(("edit", AnyDataset::Strings(StringSet::new(&words))));
    }
    let mut evals = std::collections::BTreeMap::<&str, (u64, u64)>::new();
    for (name, data) in &cases {
        let n = data.len();
        let counted = DistanceCounter::new(data);
        let graphs = [
            ("mrpg", mrpg::build(data, &MrpgParams::new(4)).0),
            ("nsw", mrpg::build_nsw(data, 4, 1)),
            ("kgraph", mrpg::build_kgraph(data, 4, 1, 1)),
        ];
        let mut buf = TraversalBuffer::new(n);
        for (graph_name, g) in &graphs {
            let lengths = EdgeLengths::measure(g, &counted, 1);
            for p in 0..n {
                // Every distance from p is a radius: ties at d == r.
                for q in 0..n {
                    let r = data.dist(p, q);
                    for limit in [1 + q % 4, usize::MAX] {
                        let mut walk = |lengths| {
                            counted.reset();
                            let ids =
                                greedy_walk(g, lengths, &counted, p, r, limit, &mut buf).to_vec();
                            let (d, hops) = buf.take_cost();
                            assert_eq!(d, counted.calls(), "the tally books every evaluation");
                            (ids, d, hops)
                        };
                        let (plain, plain_evals, plain_hops) = walk(None);
                        let (bounded, bounded_evals, bounded_hops) = walk(Some(&lengths));
                        let at = format!("{name} on {graph_name}: p={p} r={r:e} limit={limit}");
                        assert_eq!(bounded, plain, "{at}");
                        assert_eq!(bounded_hops, plain_hops, "{at}");
                        assert!(bounded_evals <= plain_evals, "{at}");
                        let tally = evals.entry(name).or_default();
                        tally.0 += plain_evals;
                        tally.1 += bounded_evals;
                    }
                }
            }
        }
    }
    for (name, (plain, bounded)) in evals {
        assert!(
            bounded < plain,
            "{name}: lengths saved nothing ({bounded} of {plain})"
        );
    }
}
