//! Order statistics for the end-to-end metrics.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric is measured at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie
/// above the chosen rank: a p95 needs at least 200 samples.
pub fn percentile(samples: &[f64], pct: usize) -> Result<f64, String> {
    assert!((1..100).contains(&pct), "percentile {pct} out of range");
    let n = samples.len();
    let rank = (pct * n).div_ceil(100);
    let beyond = n - rank;
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})"
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let ok: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&ok, 95), Ok(190.0));
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&short, 95).is_err());
        assert!(percentile(&[], 50).is_err());
        assert!(percentile(&short, 50).is_ok());
    }
}
