//! Order statistics: the quantile picker and the reductions over
//! repetitions every reported value goes through.

/// Nearest-rank quantile of an ascending slice: the smallest element
/// with at least `q` of the sample at or below it (`q = 0.5` of ten
/// samples is the fifth, `q = 0.9` the ninth, `q = 1.0` the last).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `(0, 1]`.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// Median of the repetitions (mean of the middle two when even).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repetitions");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The repetition a tenth of the way in from the better end (nearest
/// rank: the best of up to 10 repetitions, the second best of 11 to 20,
/// the fifth best of 41 to 50).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn best_decile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if higher_is_better {
        sorted.reverse();
    }
    quantile_sorted(&sorted, 0.1)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver uses to judge a metric's run-to-run spread.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// driver compares with a metric's bound.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    (q3 - q1) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let ten: Vec<u32> = (1..=10).collect();
        assert_eq!(quantile_sorted(&ten, 0.5), 5);
        assert_eq!(quantile_sorted(&ten, 0.9), 9);
        assert_eq!(quantile_sorted(&ten, 0.99), 10);
        assert_eq!(quantile_sorted(&ten, 1.0), 10);
        assert_eq!(quantile_sorted(&ten, 0.01), 1);
        assert_eq!(quantile_sorted(&[7u32], 0.5), 7);
    }

    #[test]
    fn best_decile_counts_in_from_the_better_end() {
        let reps: Vec<f64> = (1..=45).map(f64::from).collect();
        assert_eq!(best_decile(&reps, false), 5.0);
        assert_eq!(best_decile(&reps, true), 41.0);
        assert_eq!(best_decile(&[3.0, 1.0, 2.0], false), 1.0);
        assert_eq!(best_decile(&reps[..15], true), 14.0);
    }

    #[test]
    fn quantile_sorts_first() {
        let mut samples = vec![9.0, 1.0, 5.0, 3.0];
        assert_eq!(quantile(&mut samples, 0.5), 3.0);
        assert_eq!(samples, vec![1.0, 3.0, 5.0, 9.0]);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread_share(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
