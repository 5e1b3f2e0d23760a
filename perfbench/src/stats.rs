//! Order statistics for latency samples.

/// Samples that must lie beyond a reported percentile, so that one slow
/// sample cannot decide it on its own.
pub const MIN_BEYOND: usize = 10;

/// The fewest ops a run may time: with 200 samples, 10 lie beyond p95.
pub const MIN_OPS: usize = 20 * MIN_BEYOND;

/// Nearest-rank `p`-th percentile of the ascending `sorted`: the smallest
/// sample with at least `p`% of the samples at or below it. `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: usize) -> Option<f64> {
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let n = sorted.len();
    // 1-based rank ceil(p·n/100), in integers so that no rounding moves it.
    let rank = (p * n).div_ceil(100);
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of a small set of repeats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_of_200_leaves_exactly_ten_beyond() {
        let s = ramp(MIN_OPS);
        assert_eq!(percentile(&s, 95), Some(190.0));
        assert_eq!(s.iter().filter(|&&v| v > 190.0).count(), MIN_BEYOND);
    }

    #[test]
    fn p95_is_refused_below_the_ten_beyond_rule() {
        assert_eq!(percentile(&ramp(MIN_OPS - 1), 95), None);
        assert_eq!(percentile(&ramp(5), 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn nearest_rank_picks_a_sample_never_an_interpolation() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 50), Some(500.0));
        assert_eq!(percentile(&s, 95), Some(950.0));
        assert_eq!(percentile(&s, 99), Some(990.0));
        let odd = ramp(201);
        assert_eq!(percentile(&odd, 50), Some(101.0));
        assert_eq!(percentile(&odd, 95), Some(191.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
