//! The `Engine` acceptance suite: for every `IndexSpec`, `engine.query`
//! must equal `nested_loop::detect` on arbitrary proptest datasets; the
//! save → load → re-query round trip preserves answers; and no input
//! reachable through the public query path can panic — every error is a
//! typed `DodError`.

use dod::core::nested_loop;
use dod::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Random 2-d points in a box.
fn points_strategy(max_n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        (-50.0f32..50.0, -50.0f32..50.0).prop_map(|(x, y)| vec![x, y]),
        2..max_n,
    )
}

/// Points on the integer grid `[-3, 3]^dim` for a `dim` in 9..=40, so
/// squared distances are small integers: many pairs tie at each realized
/// distance, and the exact sums make `dist == r` ties reproducible in every
/// summation order.
fn grid_strategy(max_n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    let row = prop::collection::vec(-3i32..4, 40);
    (9usize..41, prop::collection::vec(row, 2..max_n)).prop_map(|(dim, rows)| {
        rows.into_iter()
            .map(|r| r[..dim].iter().map(|&c| c as f32).collect())
            .collect()
    })
}

/// Every index spec the engine supports, smallest-degree variants.
fn all_specs(degree: usize) -> Vec<IndexSpec> {
    vec![
        IndexSpec::Mrpg(MrpgParams::new(degree)),
        IndexSpec::Nsw { degree },
        IndexSpec::KGraph { degree },
        IndexSpec::VpTree,
        IndexSpec::None,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_index_spec_matches_nested_loop(
        rows in points_strategy(110),
        r in 0.0f64..60.0,
        k in 1usize..8,
        seed in 0u64..500,
    ) {
        check_every_spec(&VectorSet::from_rows(&rows, L2), r, k, seed)?;
    }

    #[test]
    fn every_index_spec_matches_nested_loop_on_grid_ties(
        rows in grid_strategy(90),
        (p, m) in (0usize..90, 0usize..16),
        k in 1usize..8,
        seed in 0u64..500,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        // r is a realized distance, p's to its m-th nearest neighbor, so
        // at least one pair sits exactly on it and r is near the k-NN
        // scale, where some points are outliers and some are not.
        let p = p % data.len();
        let mut near: Vec<f64> = (0..data.len())
            .filter(|&q| q != p)
            .map(|q| data.dist(p, q))
            .collect();
        near.sort_by(f64::total_cmp);
        let r = near[m % near.len()];
        check_every_spec(&data, r, k, seed)?;
    }

    #[test]
    fn save_load_requery_round_trips(
        rows in points_strategy(90),
        r in 0.5f64..40.0,
        k in 1usize..6,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let q = Query::new(r, k).expect("valid query");
        for spec in all_specs(4) {
            let name = format!("{spec:?}");
            let engine = Engine::builder(&data).index(spec).build().expect("build");
            let want = engine.query(q).expect("query");
            let mut bytes = Vec::new();
            engine.save(&mut bytes).expect("save");
            let loaded = Engine::load(&data, &bytes[..]).expect("load");
            let got = loaded.query(q).expect("query");
            prop_assert_eq!(&got.outliers, &want.outliers, "{}", name.clone());
            prop_assert_eq!(got.candidates, want.candidates, "{}", name.clone());
            prop_assert_eq!(got.decided_in_filter, want.decided_in_filter, "{}", name);
        }
    }
}

/// Every index spec's `(r, k)` answer over `data` equals the nested loop's.
fn check_every_spec(
    data: &VectorSet<L2>,
    r: f64,
    k: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let truth = nested_loop::detect(data, &DodParams::new(r, k), seed).outliers;
    let q = Query::new(r, k).expect("valid query");
    for spec in all_specs(5) {
        let name = format!("{spec:?}");
        let engine = Engine::builder(data)
            .index(spec)
            .seed(seed)
            .build()
            .expect("build");
        prop_assert_eq!(
            &engine.query(q).expect("query").outliers,
            &truth,
            "{} disagrees with the definition",
            name
        );
    }
    Ok(())
}

#[test]
fn the_query_path_cannot_panic_on_bad_input() {
    // Input errors surface as DodError at the earliest boundary...
    assert!(matches!(
        Query::new(-1.0, 3),
        Err(DodError::InvalidRadius { .. })
    ));
    assert!(matches!(
        Query::new(f64::NAN, 3),
        Err(DodError::InvalidRadius { .. })
    ));
    assert!(matches!(
        Query::new(f64::INFINITY, 3),
        Err(DodError::InvalidRadius { .. })
    ));

    // ...and everything a valid Query can express is served without
    // panicking, across every spec and degenerate dataset shape.
    let shapes: Vec<VectorSet<L2>> = vec![
        VectorSet::from_rows(&[], L2),
        VectorSet::from_rows(&[vec![1.0, 1.0]], L2),
        VectorSet::from_rows(&vec![vec![2.0f32, 2.0]; 12], L2),
    ];
    for data in &shapes {
        for spec in all_specs(3) {
            let engine = Engine::builder(data).index(spec).build().expect("build");
            for (r, k) in [(0.0, 0), (0.0, 1), (1e18, 5), (f64::MAX, 1)] {
                let q = Query::new(r, k).expect("valid query");
                let report = engine.query(q).expect("query must not fail");
                assert!(report.outliers.len() <= data.len());
            }
        }
    }
}

#[test]
fn engine_errors_are_typed_not_panics() {
    let data = VectorSet::from_rows(&vec![vec![0.0f32, 0.0]; 30], L2);

    // Unusable specs fail at build.
    assert!(matches!(
        Engine::builder(&data)
            .index(IndexSpec::KGraph { degree: 0 })
            .build(),
        Err(DodError::InvalidSpec { .. })
    ));

    // A prebuilt graph over the wrong cardinality fails at build.
    let other = VectorSet::from_rows(&vec![vec![0.0f32, 0.0]; 10], L2);
    let (g, _) = dod::graph::mrpg::build(&other, &MrpgParams::new(3));
    assert!(matches!(
        Engine::builder(&data).prebuilt_graph(g).build(),
        Err(DodError::SizeMismatch {
            index: 10,
            data: 30
        })
    ));

    // Loading against the wrong dataset fails on the embedded checksum
    // (before any size check); corrupt bytes fail with an
    // offset-carrying Corrupt.
    let engine = Engine::builder(&data)
        .index(IndexSpec::Mrpg(MrpgParams::new(3)))
        .build()
        .expect("build");
    let mut bytes = Vec::new();
    engine.save(&mut bytes).expect("save");
    assert!(matches!(
        Engine::load(&other, &bytes[..]),
        Err(DodError::Corrupt { .. })
    ));
    match Engine::load(&data, &bytes[..bytes.len() / 2]) {
        Err(DodError::Corrupt { offset, .. }) => assert!(offset <= bytes.len()),
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("truncated engine accepted"),
    }
}

#[test]
fn batch_and_stream_share_one_result_shape() {
    // The unifying claim of the API: a streaming window and a batch engine
    // over the same points produce the same OutlierReport content.
    let mut det = StreamDetector::open(
        VectorSpace::new(L2, 1),
        Query::new(0.75, 2).expect("valid"),
        WindowSpec::Count(16),
    )
    .expect("open");
    for i in 0..24 {
        det.insert(vec![(i % 5) as f32 * 0.5]);
    }
    det.insert(vec![100.0]);
    let stream_report: OutlierReport = det.report();

    let batch_report = Engine::builder(det.window_view())
        .index(IndexSpec::None)
        .build()
        .expect("build")
        .query(Query::new(0.75, 2).expect("valid"))
        .expect("query");
    assert_eq!(stream_report.outliers, batch_report.outliers);
    assert!(!stream_report.outliers.is_empty());
}
