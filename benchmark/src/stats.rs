//! Order statistics for small samples. Every timing the benchmark reports
//! is one of these taken over the stated sample, never a mean: a single
//! stalled round on a two-core box must not move the number.

/// The `q`-quantile (0 ≤ `q` ≤ 1) of `values` by linear interpolation
/// between closest ranks — `median` is `quantile(.., 0.5)`. `None` for an
/// empty sample. Sorts a copy; NaNs are not expected and sort last.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    let weight = rank - below as f64;
    Some(sorted[below] * (1.0 - weight) + sorted[above] * weight)
}

/// The median, or NaN for an empty sample (which the result line's
/// finite-number check then reports as a failed run).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(f64::NAN)
}

/// The smallest value, or NaN for an empty sample.
#[must_use]
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method) — the run-to-run spread the benchmark contract
/// checks against each metric's bound. `None` below two values.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Python's exclusive method, integer for integer: rank k(n+1)/4
    // clamped to 1..n-1, and a remainder that extrapolates when clamped.
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = quantile(&sorted, 0.5)?;
    Some((cut(3) - cut(1)) / mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantiles_interpolate_between_closest_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        // 101 values 0..=100: the 95th percentile is exactly 95.
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), Some(95.0));
        // Rank 0.95 × 3 = 2.85 between 30 and 40.
        assert!((quantile(&[10.0, 20.0, 30.0, 40.0], 0.95).unwrap() - 38.5).abs() < 1e-9);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn min_ignores_order() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let v = [16.0, 1.0, 4.0, 2.0, 8.0];
        assert!((quartile_spread(&v).unwrap() - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
