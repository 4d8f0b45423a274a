//! Order statistics used for every reported timing.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `sorted`, or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a tail percentile
/// resting on a handful of samples is noise, so it is refused rather than
/// reported.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!((0.0..100.0).contains(&p));
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps an exact product such as 0.99 × 1000 from being
    // rounded up a rank by floating-point error.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    let beyond = sorted.len() - 1 - index;
    (p <= 50.0 || beyond >= MIN_SAMPLES_BEYOND).then(|| sorted[index])
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(first quartile, median, third quartile)`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), which is
/// what the acceptance check applies to the ten calibration runs. Fewer
/// than two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                // Position k·(n+1)/4 in 1-based ranks, interpolated and
                // clamped to the sample range.
                let pos = k as f64 * (n as f64 + 1.0) / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 99.0), None, "only 9 samples beyond");
        assert_eq!(percentile(&short, 95.0), Some(950));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn the_median_is_never_refused() {
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), Some(2));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }
}
