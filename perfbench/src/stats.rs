//! Order statistics over samples.

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks; `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median; `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The geometric mean of positive samples; `0.0` for no samples.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let log_mean = samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64;
    log_mean.exp()
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 95.0) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_weighs_small_samples_like_large_ones() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
