//! Streaming and slice statistics.
//!
//! Used throughout the workspace: equilibrium detection averages force
//! norms, the experiment harness averages multi-information curves over
//! random type-matrix draws (paper Figs. 8–10), tests compare empirical
//! moments against analytic values, and the sweep layer's seed-axis
//! summaries aggregate per-seed ΔI values into standard errors,
//! confidence intervals ([`t_confidence_interval`],
//! [`bootstrap_mean_interval`]) and significance verdicts
//! ([`permutation_test_mean_diff`]).
//!
//! Every resampling routine here draws from a private [`SplitMix64`]
//! stream seeded by the caller and accumulates in a fixed index order, so
//! results are bit-identical across runs, platforms and worker counts —
//! the same determinism contract the simulation and estimation engines
//! honour.

use crate::rng::SplitMix64;
use crate::special::student_t_quantile;

/// Welford online mean/variance accumulator: a numerically stable
/// single-pass sample variance.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Adds one observation.
    pub(crate) fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Unbiased sample variance; `NaN` with fewer than two observations.
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::default();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Arithmetic mean of a slice; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance of a slice; `NaN` with fewer than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<RunningStats>().variance()
}

/// Unbiased sample covariance between two equally long slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub(crate) fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance: length mismatch");
    let n = xs.len();
    if n < 2 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut acc = 0.0;
    for i in 0..n {
        acc += (xs[i] - mx) * (ys[i] - my);
    }
    acc / (n - 1) as f64
}

/// Pearson correlation coefficient; `NaN` if either variance vanishes.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let c = covariance(xs, ys);
    let sx = variance(xs).sqrt();
    let sy = variance(ys).sqrt();
    c / (sx * sy)
}

/// Empirical `q`-quantile (linear interpolation between order statistics).
///
/// `q` is clamped to `[0, 1]`. Returns `NaN` for an empty slice. The input
/// need not be sorted.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in data"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Coefficient of variation `σ/μ` of a slice.
///
/// Used as the grid-regularity metric for Fig. 3: a perfectly regular
/// particle grid has near-zero CV of nearest-neighbour distances.
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    variance(xs).sqrt() / mean(xs)
}

/// Ordinary least squares slope of `y` against `x`.
///
/// Used by tests and experiment summaries to assert that a
/// multi-information time series is increasing (self-organization) or flat.
///
/// Degenerate x-axes — fewer than two points, or zero spread — have no
/// defined slope; this returns `0.0` for them (matching
/// `MiSeries::increase` on an empty series: "no evidence of change"),
/// rather than the `NaN`/`±∞` the raw covariance ratio would produce.
pub fn ols_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let var = variance(xs);
    if !var.is_finite() || var == 0.0 {
        return 0.0;
    }
    covariance(xs, ys) / var
}

/// Standard error of the mean `σ/√n`; `NaN` with fewer than two
/// observations (the sample standard deviation is undefined).
pub fn std_error(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    (variance(xs) / xs.len() as f64).sqrt()
}

/// A closed confidence interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Half the interval width — the `± ci` of a `mean ± ci` report.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// Whether `x` lies inside the closed interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }
}

/// Student-t confidence interval for the mean at the given two-sided
/// `confidence` level (e.g. `0.95`).
///
/// Degenerate inputs: an empty slice yields a `NaN` interval; a single
/// observation yields the zero-width interval at that value (no spread
/// information — downstream tolerance users should apply their own
/// floor).
pub fn t_confidence_interval(xs: &[f64], confidence: f64) -> Interval {
    assert!(
        (0.0..1.0).contains(&confidence),
        "t_confidence_interval: confidence must be in [0, 1), got {confidence}"
    );
    match xs.len() {
        0 => Interval {
            lo: f64::NAN,
            hi: f64::NAN,
        },
        1 => Interval {
            lo: xs[0],
            hi: xs[0],
        },
        n => {
            let m = mean(xs);
            let half = student_t_quantile(0.5 + 0.5 * confidence, (n - 1) as f64) * std_error(xs);
            Interval {
                lo: m - half,
                hi: m + half,
            }
        }
    }
}

/// Percentile-bootstrap confidence interval for the mean: `resamples`
/// with-replacement redraws of `xs` under a deterministic
/// [`SplitMix64`] stream seeded by `seed`, interval = the
/// `(1±confidence)/2` quantiles of the resampled means.
///
/// Fully sequential and index-ordered, so the result is bit-identical
/// for any caller thread count. An empty slice — or one containing a
/// non-finite observation, whose resampled means are meaningless —
/// yields a `NaN` interval; a single finite observation yields the
/// zero-width interval at that value.
pub fn bootstrap_mean_interval(
    xs: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Interval {
    assert!(
        (0.0..1.0).contains(&confidence),
        "bootstrap_mean_interval: confidence must be in [0, 1), got {confidence}"
    );
    assert!(resamples > 0, "bootstrap_mean_interval: zero resamples");
    if xs.is_empty() || xs.iter().any(|x| !x.is_finite()) {
        return Interval {
            lo: f64::NAN,
            hi: f64::NAN,
        };
    }
    if xs.len() == 1 {
        return Interval {
            lo: xs[0],
            hi: xs[0],
        };
    }
    let mut rng = SplitMix64::new(seed);
    let n = xs.len();
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += xs[rng.next_below(n as u64) as usize];
        }
        means.push(acc / n as f64);
    }
    let tail = 0.5 * (1.0 - confidence);
    Interval {
        lo: quantile(&means, tail),
        hi: quantile(&means, 1.0 - tail),
    }
}

/// Two-sample permutation test for a difference in means.
///
/// Statistic: `|mean(xs) − mean(ys)|`. The pooled sample is re-split
/// `resamples` times by a deterministic seeded Fisher–Yates shuffle; the
/// returned two-sided p-value uses the add-one correction
/// `(extreme + 1) / (resamples + 1)`, so it is always in
/// `(0, 1]` and exact under H₀. `NaN` if either sample is empty.
///
/// Like the bootstrap, the shuffle stream depends only on `seed` and the
/// input order — never on thread scheduling.
pub fn permutation_test_mean_diff(xs: &[f64], ys: &[f64], resamples: usize, seed: u64) -> f64 {
    assert!(resamples > 0, "permutation_test_mean_diff: zero resamples");
    if xs.is_empty() || ys.is_empty() {
        return f64::NAN;
    }
    let observed = (mean(xs) - mean(ys)).abs();
    let mut pool: Vec<f64> = xs.iter().chain(ys).copied().collect();
    let n = xs.len();
    let mut rng = SplitMix64::new(seed);
    let mut extreme = 0usize;
    for _ in 0..resamples {
        for i in (1..pool.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            pool.swap(i, j);
        }
        let d = (mean(&pool[..n]) - mean(&pool[n..])).abs();
        if d >= observed {
            extreme += 1;
        }
    }
    (extreme + 1) as f64 / (resamples + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn running_stats_small_case() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!(close(s.variance(), 32.0 / 7.0, 1e-12));
    }

    #[test]
    fn empty_stats_are_nan() {
        assert!(RunningStats::default().variance().is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn covariance_and_correlation_of_linear_data() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!(close(correlation(&xs, &ys), 1.0, 1e-12));
        assert!(close(ols_slope(&xs, &ys), 3.0, 1e-12));
        let neg: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!(close(correlation(&xs, &neg), -1.0, 1e-12));
    }

    #[test]
    fn quantiles_of_known_slice() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(close(quantile(&xs, 0.5), 2.5, 1e-12));
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn cv_of_constant_is_zero() {
        let xs = [3.0; 10];
        assert!(coefficient_of_variation(&xs).abs() < 1e-12);
    }

    #[test]
    fn ols_slope_degenerate_inputs_are_zero() {
        // Fewer than two points: no slope evidence → 0.0, not NaN.
        assert_eq!(ols_slope(&[1.0], &[5.0]), 0.0);
        assert_eq!(ols_slope(&[], &[]), 0.0);
        // Zero x-spread: vertical "line" → 0.0, not ±∞/NaN.
        assert_eq!(ols_slope(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]), 0.0);
        // Regular inputs unchanged.
        assert!(close(
            ols_slope(&[0.0, 1.0, 2.0], &[0.0, 2.0, 4.0]),
            2.0,
            1e-12
        ));
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let se = std_error(&xs);
        assert!(close(se, (32.0 / 7.0f64 / 8.0).sqrt(), 1e-12));
        assert!(std_error(&[1.0]).is_nan());
        assert!(std_error(&[]).is_nan());
    }

    #[test]
    fn t_interval_covers_mean_and_degenerates() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let ci = t_confidence_interval(&xs, 0.95);
        assert!(ci.contains(mean(&xs)));
        assert!(close(0.5 * (ci.lo + ci.hi), 5.0, 1e-12));
        // t(0.975, 7) ≈ 2.3646: half-width = t · se.
        assert!(close(
            ci.half_width(),
            2.364_624_251_6 * std_error(&xs),
            1e-3
        ));
        // Wider confidence → wider interval.
        let ci99 = t_confidence_interval(&xs, 0.99);
        assert!(ci99.half_width() > ci.half_width());
        // Degenerates.
        let one = t_confidence_interval(&[3.0], 0.95);
        assert_eq!((one.lo, one.hi), (3.0, 3.0));
        assert!(t_confidence_interval(&[], 0.95).lo.is_nan());
    }

    #[test]
    fn bootstrap_interval_is_deterministic_and_sane() {
        let xs: Vec<f64> = (0..24)
            .map(|i| (i as f64 * 0.7).sin() * 3.0 + 5.0)
            .collect();
        let a = bootstrap_mean_interval(&xs, 0.95, 500, 42);
        let b = bootstrap_mean_interval(&xs, 0.95, 500, 42);
        assert_eq!(
            (a.lo.to_bits(), a.hi.to_bits()),
            (b.lo.to_bits(), b.hi.to_bits())
        );
        // Interval brackets the sample mean and sits inside the data range.
        assert!(a.contains(mean(&xs)));
        assert!(a.lo >= xs.iter().cloned().fold(f64::INFINITY, f64::min));
        assert!(a.hi <= xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        // Another seed resamples differently.
        let c = bootstrap_mean_interval(&xs, 0.95, 500, 43);
        assert!(a.lo != c.lo || a.hi != c.hi);
        // Degenerates.
        let one = bootstrap_mean_interval(&[2.5], 0.95, 100, 1);
        assert_eq!((one.lo, one.hi), (2.5, 2.5));
        assert!(bootstrap_mean_interval(&[], 0.95, 100, 1).lo.is_nan());
    }

    #[test]
    fn permutation_test_separates_and_calibrates() {
        // Cleanly separated samples: p pinned at the add-one floor.
        let lo: Vec<f64> = (0..8).map(|i| i as f64 * 0.01).collect();
        let hi: Vec<f64> = (0..8).map(|i| 10.0 + i as f64 * 0.01).collect();
        let p = permutation_test_mean_diff(&lo, &hi, 999, 7);
        assert!(p <= 0.005, "separated samples must be significant: p = {p}");
        // Identical samples: every permutation is at least as extreme.
        let p_same = permutation_test_mean_diff(&lo, &lo, 999, 7);
        assert!(close(p_same, 1.0, 1e-12));
        // Deterministic under a fixed seed.
        let p2 = permutation_test_mean_diff(&lo, &hi, 999, 7);
        assert_eq!(p.to_bits(), p2.to_bits());
        // Empty samples are undefined.
        assert!(permutation_test_mean_diff(&[], &hi, 99, 1).is_nan());
    }

    proptest! {
        #[test]
        fn shifting_leaves_variance_unchanged(xs in proptest::collection::vec(-100.0..100.0f64, 2..50), shift in -10.0..10.0f64) {
            let base: RunningStats = xs.iter().copied().collect();
            let shifted: RunningStats = xs.iter().map(|x| x + shift).collect();
            prop_assert!(close(shifted.variance(), base.variance(), 1e-7));
        }

        #[test]
        fn variance_is_nonnegative(xs in proptest::collection::vec(-1e3..1e3f64, 2..100)) {
            prop_assert!(variance(&xs) >= -1e-9);
        }

        #[test]
        fn correlation_bounded(xs in proptest::collection::vec(-1e3..1e3f64, 3..50),
                               ys in proptest::collection::vec(-1e3..1e3f64, 3..50)) {
            let n = xs.len().min(ys.len());
            let r = correlation(&xs[..n], &ys[..n]);
            if r.is_finite() {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }

        #[test]
        fn t_interval_contains_sample_mean(xs in proptest::collection::vec(-1e3..1e3f64, 2..60), conf in 0.5..0.999f64) {
            let ci = t_confidence_interval(&xs, conf);
            prop_assert!(ci.contains(mean(&xs)));
            prop_assert!(ci.half_width() >= 0.0);
        }

        #[test]
        fn permutation_p_value_in_unit_interval(xs in proptest::collection::vec(-10.0..10.0f64, 2..12),
                                                ys in proptest::collection::vec(-10.0..10.0f64, 2..12),
                                                seed in 0..1000u64) {
            let p = permutation_test_mean_diff(&xs, &ys, 99, seed);
            prop_assert!(p > 0.0 && p <= 1.0, "p = {p}");
        }

        #[test]
        fn quantile_within_range(xs in proptest::collection::vec(-1e3..1e3f64, 1..100), q in 0.0..1.0f64) {
            let v = quantile(&xs, q);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}
