//! Window-semantics edge cases: expiry ordering, duplicates, windows
//! smaller than `k`, empty windows, and time-based horizons.

use dod_metrics::{Dataset, L2};
use dod_stream::{StreamDetector, StreamParams, StringSpace, VectorSpace, WindowSpec};

#[test]
fn expiry_is_strictly_fifo() {
    let params = StreamParams::count(1.0, 1, 5);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    let mut expired_log = Vec::new();
    for i in 0..20 {
        let report = d.insert(vec![i as f32]);
        assert_eq!(report.seq, i);
        assert!(report.window_len <= 5);
        expired_log.extend(report.expired);
    }
    // Every expiry in arrival order, exactly the seqs that must be gone.
    assert_eq!(expired_log, (0..15).collect::<Vec<u64>>());
    assert_eq!(d.window_seqs(), vec![15, 16, 17, 18, 19]);
    assert!(d.get(14).is_none());
    assert!(d.get(15).is_some());
}

#[test]
fn duplicate_points_count_each_other() {
    // Window full of identical points: everyone has W−1 neighbors at
    // distance zero, so nothing is an outlier even at r = 0.
    let params = StreamParams::count(0.0, 3, 8);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    for _ in 0..12 {
        d.insert(vec![7.0]);
    }
    assert!(d.outliers().is_empty());
    assert_eq!(d.outliers(), d.audit());
}

#[test]
fn window_smaller_than_k_flags_everything() {
    // W = 4 but k = 10: nobody can ever reach 10 neighbors.
    let params = StreamParams::count(100.0, 10, 4);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    for i in 0..9 {
        d.insert(vec![i as f32 * 0.01]);
    }
    assert_eq!(d.outliers(), vec![5, 6, 7, 8]);
    assert_eq!(d.outliers(), d.audit());
}

#[test]
fn empty_window_has_no_outliers() {
    let params = StreamParams::timed(1.0, 2, 5.0);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    assert!(d.is_empty());
    assert!(d.outliers().is_empty());
    assert!(d.audit().is_empty());
    d.insert_at(vec![1.0], 0.0);
    d.insert_at(vec![1.1], 1.0);
    assert_eq!(d.len(), 2);
    // The stream goes quiet; everything ages out.
    let expired = d.advance_to(100.0);
    assert_eq!(expired, vec![0, 1]);
    assert!(d.is_empty());
    assert!(d.outliers().is_empty());
    // And the detector keeps working afterwards.
    d.insert_at(vec![2.0], 101.0);
    assert_eq!(d.outliers(), vec![2]);
}

#[test]
fn time_window_keeps_exactly_the_horizon() {
    let params = StreamParams::timed(0.5, 1, 10.0);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    // One point every 4 time units; horizon 10 keeps at most 3 alive.
    for i in 0..8u64 {
        let report = d.insert_at(vec![(i % 2) as f32], 4.0 * i as f64);
        assert!(report.window_len <= 3, "window too long at t={}", 4 * i);
    }
    // t = 28: alive are t ∈ {20, 24, 28} → seqs 5, 6, 7.
    assert_eq!(d.window_seqs(), vec![5, 6, 7]);
    assert_eq!(d.outliers(), d.audit());
}

#[test]
fn boundary_distance_counts_as_neighbor() {
    // dist == r must count (Definition 1 uses <=), streaming included.
    let params = StreamParams::count(1.0, 1, 4);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    d.insert(vec![0.0]);
    d.insert(vec![1.0]);
    assert!(d.outliers().is_empty());
}

#[test]
fn string_space_streams_work() {
    let params = StreamParams::count(1.0, 1, 6);
    let mut d = StreamDetector::try_new(StringSpace, params).expect("valid params");
    for w in ["cat", "bat", "hat", "rat", "zzzzzzzzzz"] {
        d.insert(w.to_string());
    }
    assert_eq!(d.outliers(), vec![4]);
    assert_eq!(d.outliers(), d.audit());
}

#[test]
fn window_view_matches_window_contents() {
    let params = StreamParams::count(1.0, 1, 3);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    for x in [1.0f32, 2.0, 3.0, 4.0] {
        d.insert(vec![x]);
    }
    let view = d.window_view();
    assert_eq!(view.len(), 3);
    assert_eq!(view.seq_at(0), 1);
    assert_eq!(view.dist(0, 2), 2.0);
    assert_eq!(d.window_seqs(), vec![1, 2, 3]);
}

#[test]
#[should_panic(expected = "non-decreasing")]
fn out_of_order_timestamps_are_rejected() {
    let params = StreamParams::timed(1.0, 1, 5.0);
    let mut d = StreamDetector::try_new(VectorSpace::new(L2, 1), params).expect("valid params");
    d.insert_at(vec![0.0], 10.0);
    d.insert_at(vec![1.0], 9.0);
}

#[test]
fn zero_capacity_window_is_rejected() {
    let params = StreamParams {
        r: 1.0,
        k: 1,
        window: WindowSpec::Count(0),
    };
    let err = StreamDetector::try_new(VectorSpace::new(L2, 1), params)
        .err()
        .expect("zero-capacity window must be rejected");
    assert!(err.to_string().contains("capacity >= 1"), "{err}");
}
