//! Summary statistics with the benchmark's percentile rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it;
//! otherwise only the median is.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Number of the `n` samples that lie strictly beyond the nearest-rank
/// `p`-quantile (`0 < p < 1`).
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).max(1);
    n.saturating_sub(rank)
}

/// Nearest-rank `p`-quantile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if beyond(xs.len(), p) < MIN_BEYOND {
        return None;
    }
    let sorted = sorted(xs);
    let rank = ((p * xs.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Arithmetic mean; `0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples has 9 beyond it: withheld. Of 100: 10 beyond.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // The median itself needs 20 samples to count as a percentile.
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(beyond(0, 0.5), 0);
    }
}
