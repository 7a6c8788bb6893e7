//! Analytic Gaussian multi-information and correlated Gaussian sampling.
//!
//! For a multivariate Gaussian with covariance `Σ` partitioned into blocks
//! `Σ_bb`, the multi-information has the closed form
//!
//! ```text
//! I = ½ (Σ_b ln det Σ_bb − ln det Σ)  nats
//! ```
//!
//! This is the ground truth every continuous estimator in this crate is
//! validated against, and the generator produces the test ensembles.

use sops_math::{Matrix, SplitMix64, NATS_TO_BITS};

/// Analytic multi-information (bits) of a Gaussian with covariance `cov`
/// under the given block partition.
///
/// # Panics
///
/// Panics if the block sizes don't tile the covariance or `cov` is not
/// symmetric positive definite.
pub fn gaussian_multi_information(cov: &Matrix, block_sizes: &[usize]) -> f64 {
    let d: usize = block_sizes.iter().sum();
    assert_eq!(cov.rows(), d, "gaussian_multi_information: size mismatch");
    assert_eq!(cov.cols(), d);
    let ln_det_joint = cov
        .ln_det_spd()
        .expect("gaussian_multi_information: covariance not SPD");
    let mut sum_blocks = 0.0;
    let mut off = 0;
    for &b in block_sizes {
        let mut sub = Matrix::zeros(b, b);
        for i in 0..b {
            for j in 0..b {
                sub[(i, j)] = cov[(off + i, off + j)];
            }
        }
        sum_blocks += sub
            .ln_det_spd()
            .expect("gaussian_multi_information: block not SPD");
        off += b;
    }
    0.5 * (sum_blocks - ln_det_joint) * NATS_TO_BITS
}

/// Differential entropy (bits) of a d-dimensional Gaussian:
/// `h = ½ ln((2πe)^d det Σ)`.
pub fn gaussian_entropy(cov: &Matrix) -> f64 {
    let d = cov.rows() as f64;
    let ln_det = cov.ln_det_spd().expect("gaussian_entropy: not SPD");
    0.5 * (d * (1.0 + (2.0 * std::f64::consts::PI).ln()) + ln_det) * NATS_TO_BITS
}

/// Draws `rows` samples from `N(0, cov)` via the Cholesky factor,
/// returning a row-major `rows × d` matrix.
///
/// # Panics
///
/// Panics if `cov` is not SPD.
pub fn sample_gaussian(cov: &Matrix, rows: usize, seed: u64) -> Vec<f64> {
    let d = cov.rows();
    let l = cov.cholesky().expect("sample_gaussian: covariance not SPD");
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(rows * d);
    let mut z = vec![0.0f64; d];
    for _ in 0..rows {
        for v in z.iter_mut() {
            *v = rng.next_standard_normal();
        }
        for i in 0..d {
            let mut acc = 0.0;
            for j in 0..=i {
                acc += l[(i, j)] * z[j];
            }
            out.push(acc);
        }
    }
    out
}

/// Estimates the multi-information (bits) between the observer blocks of
/// `view` under a Gaussian model: the empirical covariance is plugged
/// into the closed form `½ (Σ_b ln det Σ_bb − ln det Σ)`.
///
/// This is the parametric baseline of the estimator comparison — exact
/// when the ensemble really is Gaussian, blind to any non-linear
/// dependence, and `O(m d² + d³)` (by far the cheapest continuous
/// estimator). Driven through the [`crate::measure::Estimator`] trait via
/// [`crate::measure::MeasureConfig::Gaussian`].
///
/// Returns `NaN` when the empirical covariance (or a block of it) is not
/// positive definite — fewer samples than joint dimensions, or
/// degenerate coordinates — where the Gaussian model is undefined. A
/// pipeline worker driving this selection therefore reports `NaN` for
/// the affected step instead of aborting the run (mirroring
/// [`crate::binning::shrink_entropy`]'s defined degenerate semantics).
///
/// # Panics
///
/// Panics if `view.rows < 2`.
pub(crate) fn multi_information_gaussian(view: &crate::SampleView<'_>) -> f64 {
    if view.blocks() < 2 {
        return 0.0;
    }
    let m = view.rows;
    assert!(m >= 2, "gaussian estimator: need at least 2 samples");
    let d = view.stride();
    let mut mean = vec![0.0f64; d];
    for r in 0..m {
        for (acc, &v) in mean.iter_mut().zip(view.row(r)) {
            *acc += v;
        }
    }
    for v in &mut mean {
        *v /= m as f64;
    }
    let mut cov = Matrix::zeros(d, d);
    for r in 0..m {
        let row = view.row(r);
        for i in 0..d {
            let di = row[i] - mean[i];
            for j in i..d {
                cov[(i, j)] += di * (row[j] - mean[j]);
            }
        }
    }
    let denom = (m - 1) as f64;
    for i in 0..d {
        for j in i..d {
            cov[(i, j)] /= denom;
            cov[(j, i)] = cov[(i, j)];
        }
    }
    // Same closed form as `gaussian_multi_information`, but a singular
    // empirical covariance yields NaN instead of a panic (doc above).
    let Some(ln_det_joint) = cov.ln_det_spd() else {
        return f64::NAN;
    };
    let mut sum_blocks = 0.0;
    let mut off = 0;
    for &b in view.block_sizes {
        let mut sub = Matrix::zeros(b, b);
        for i in 0..b {
            for j in 0..b {
                sub[(i, j)] = cov[(off + i, off + j)];
            }
        }
        let Some(ln_det) = sub.ln_det_spd() else {
            return f64::NAN;
        };
        sum_blocks += ln_det;
        off += b;
    }
    0.5 * (sum_blocks - ln_det_joint) * NATS_TO_BITS
}

/// Convenience: an equicorrelated covariance (unit variances, constant
/// correlation `rho` off the diagonal).
pub fn equicorrelated_cov(d: usize, rho: f64) -> Matrix {
    let mut cov = Matrix::identity(d);
    for i in 0..d {
        for j in 0..d {
            if i != j {
                cov[(i, j)] = rho;
            }
        }
    }
    cov
}

/// Analytic mutual information (bits) of a bivariate Gaussian with
/// correlation `rho`: `I = −½ log₂(1 − ρ²)`.
#[cfg(test)]
pub(crate) fn bivariate_gaussian_mi(rho: f64) -> f64 {
    assert!(rho.abs() < 1.0, "bivariate_gaussian_mi: |rho| must be < 1");
    -0.5 * (1.0 - rho * rho).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bivariate_formula_matches_block_formula() {
        for rho in [0.0, 0.3, -0.6, 0.9] {
            let cov = equicorrelated_cov(2, rho);
            let via_blocks = gaussian_multi_information(&cov, &[1, 1]);
            let direct = bivariate_gaussian_mi(rho);
            assert!(
                (via_blocks - direct).abs() < 1e-12,
                "rho={rho}: {via_blocks} vs {direct}"
            );
        }
    }

    #[test]
    fn independence_gives_zero() {
        let cov = Matrix::identity(5);
        assert!(gaussian_multi_information(&cov, &[2, 2, 1]).abs() < 1e-12);
    }

    #[test]
    fn multi_information_grows_with_correlation() {
        let low = gaussian_multi_information(&equicorrelated_cov(4, 0.2), &[1, 1, 1, 1]);
        let high = gaussian_multi_information(&equicorrelated_cov(4, 0.6), &[1, 1, 1, 1]);
        assert!(high > low && low > 0.0);
    }

    #[test]
    fn block_partition_ignores_within_block_correlation() {
        // Correlation only *within* the single 2-d block: no
        // multi-information across blocks of sizes [2, 1].
        let mut cov = Matrix::identity(3);
        cov[(0, 1)] = 0.8;
        cov[(1, 0)] = 0.8;
        let i = gaussian_multi_information(&cov, &[2, 1]);
        assert!(i.abs() < 1e-12, "within-block correlation leaked: {i}");
        // The same covariance under scalar observers does see it.
        let scalar = gaussian_multi_information(&cov, &[1, 1, 1]);
        assert!(scalar > 0.5);
    }

    #[test]
    fn entropy_of_standard_normal() {
        // h = 0.5 log2(2*pi*e) ≈ 2.0471 bits per dimension.
        let h1 = gaussian_entropy(&Matrix::identity(1));
        assert!((h1 - 2.047_095_585_180_641).abs() < 1e-9);
        let h3 = gaussian_entropy(&Matrix::identity(3));
        assert!((h3 - 3.0 * h1).abs() < 1e-9);
    }

    #[test]
    fn sampler_matches_target_covariance() {
        let cov = equicorrelated_cov(3, 0.5);
        let data = sample_gaussian(&cov, 50_000, 123);
        let rows: Vec<&[f64]> = data.chunks(3).collect();
        let emp = Matrix::covariance_of(&rows);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (emp[(i, j)] - cov[(i, j)]).abs() < 0.03,
                    "cov[{i}{j}] = {} vs {}",
                    emp[(i, j)],
                    cov[(i, j)]
                );
            }
        }
    }

    #[test]
    fn empirical_estimator_recovers_gaussian_truth() {
        let cov = equicorrelated_cov(3, 0.5);
        let truth = gaussian_multi_information(&cov, &[1, 1, 1]);
        let data = sample_gaussian(&cov, 3000, 42);
        let sizes = [1usize, 1, 1];
        let view = crate::SampleView::new(&data, 3000, &sizes);
        let est = multi_information_gaussian(&view);
        assert!((est - truth).abs() < 0.05, "est {est} vs truth {truth}");
        // Single block: zero by convention.
        let one = [3usize];
        let view1 = crate::SampleView::new(&data, 3000, &one);
        assert_eq!(multi_information_gaussian(&view1), 0.0);
    }

    #[test]
    fn empirical_estimator_degenerate_covariance_is_nan_not_panic() {
        // Fewer samples than joint dimensions: rank-deficient covariance.
        let cov = equicorrelated_cov(6, 0.3);
        let data = sample_gaussian(&cov, 4, 1);
        let sizes = [1usize; 6];
        let view = crate::SampleView::new(&data, 4, &sizes);
        assert!(multi_information_gaussian(&view).is_nan());
        // A constant coordinate degenerates a block the same way.
        let flat: Vec<f64> = (0..20).flat_map(|i| [i as f64, 7.0]).collect();
        let two = [1usize, 1];
        let view2 = crate::SampleView::new(&flat, 20, &two);
        assert!(multi_information_gaussian(&view2).is_nan());
    }

    #[test]
    fn sampler_deterministic_in_seed() {
        let cov = equicorrelated_cov(2, 0.3);
        assert_eq!(sample_gaussian(&cov, 10, 7), sample_gaussian(&cov, 10, 7));
        assert_ne!(sample_gaussian(&cov, 10, 7), sample_gaussian(&cov, 10, 8));
    }
}
