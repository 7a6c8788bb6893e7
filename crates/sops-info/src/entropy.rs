//! Kozachenko–Leonenko k-NN differential entropy.
//!
//! The paper's discussion of *why* multi-information rises (§6: "the
//! marginal entropies decrease, however the overall entropy decreases even
//! faster") needs direct estimates of marginal and joint differential
//! entropies. The Kozachenko–Leonenko estimator is the entropy-side
//! sibling of the KSG family:
//!
//! ```text
//! ĥ = −ψ(k) + ψ(m) + ln V_d + (d/m) Σᵢ ln εᵢ      (nats)
//! ```
//!
//! with `εᵢ` the distance from sample `i` to its k-th nearest neighbour
//! and `V_d` the unit-ball volume of the chosen norm.

use sops_math::special::{digamma, unit_ball_volume_l2};
use sops_math::NATS_TO_BITS;
use sops_spatial::block_max::{knn_block_max_into, BlockPoints};

/// Estimates the differential entropy (bits) of `rows` samples of a
/// `dim`-dimensional variable under the L2 norm.
///
/// # Panics
///
/// Panics if `k == 0` or `k >= rows` or the data layout is inconsistent.
pub fn kl_entropy(data: &[f64], rows: usize, dim: usize, k: usize) -> f64 {
    assert!(k >= 1, "kl_entropy: k must be >= 1");
    assert!(k < rows, "kl_entropy: need more than k samples");
    assert_eq!(data.len(), rows * dim, "kl_entropy: data shape");
    // Single block of size `dim` makes block-max == plain L2.
    let sizes = [dim];
    let points = BlockPoints::new(data, rows, &sizes);
    let mut neighbours = Vec::with_capacity(k);
    let mut log_sum = 0.0;
    for i in 0..rows {
        // `k < rows`, so every row has exactly `k` neighbours.
        knn_block_max_into(&points, i, k, &mut neighbours);
        let eps = neighbours[k - 1].1;
        // Duplicated samples give eps = 0; floor at a tiny value so the
        // estimate stays finite (standard practical guard).
        log_sum += eps.max(1e-300).ln();
    }
    let d = dim as f64;
    let nats = -digamma(k as f64)
        + digamma(rows as f64)
        + unit_ball_volume_l2(dim).ln()
        + d / rows as f64 * log_sum;
    nats * NATS_TO_BITS
}

/// Marginal and joint entropies of a blocked sample set, plus the implied
/// multi-information `Σ h(Wᵢ) − h(W)` — the entropy-based cross-check of
/// the KSG estimate used by the `estimator_shootout` example.
#[derive(Debug, Clone)]
pub struct EntropyBreakdown {
    /// Per-block marginal differential entropies (bits).
    pub marginals: Vec<f64>,
    /// Joint differential entropy (bits).
    pub joint: f64,
}

impl EntropyBreakdown {
    /// `Σ h(Wᵢ) − h(W₁,…,W_n)` in bits.
    pub fn multi_information(&self) -> f64 {
        self.marginals.iter().sum::<f64>() - self.joint
    }
}

/// Computes [`EntropyBreakdown`] for a blocked view with the given `k`.
pub fn entropy_breakdown(view: &crate::SampleView<'_>, k: usize) -> EntropyBreakdown {
    let marginals: Vec<f64> = (0..view.blocks())
        .map(|b| {
            let cols = view.block_columns(b);
            kl_entropy(&cols, view.rows, view.block_sizes[b], k)
        })
        .collect();
    let joint = kl_entropy(view.data, view.rows, view.stride(), k);
    EntropyBreakdown { marginals, joint }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{equicorrelated_cov, gaussian_entropy, sample_gaussian};
    use crate::SampleView;
    use sops_math::Matrix;

    #[test]
    fn standard_normal_entropy_recovered() {
        let data = sample_gaussian(&Matrix::identity(1), 4000, 3);
        let est = kl_entropy(&data, 4000, 1, 4);
        let truth = gaussian_entropy(&Matrix::identity(1));
        assert!((est - truth).abs() < 0.05, "est {est} vs {truth}");
    }

    #[test]
    fn uniform_entropy_recovered() {
        // h(U[0, 2]) = log2(2) = 1 bit.
        let mut rng = sops_math::SplitMix64::new(8);
        let data: Vec<f64> = (0..4000).map(|_| rng.next_range(0.0, 2.0)).collect();
        let est = kl_entropy(&data, 4000, 1, 4);
        assert!((est - 1.0).abs() < 0.05, "est {est} vs 1.0");
    }

    #[test]
    fn bivariate_gaussian_entropy_recovered() {
        let cov = equicorrelated_cov(2, 0.6);
        let data = sample_gaussian(&cov, 4000, 5);
        let est = kl_entropy(&data, 4000, 2, 4);
        let truth = gaussian_entropy(&cov);
        assert!((est - truth).abs() < 0.1, "est {est} vs {truth}");
    }

    #[test]
    fn scaling_shifts_entropy_by_log_scale() {
        // h(aX) = h(X) + log2 a.
        let data = sample_gaussian(&Matrix::identity(1), 3000, 17);
        let scaled: Vec<f64> = data.iter().map(|x| 4.0 * x).collect();
        let base = kl_entropy(&data, 3000, 1, 4);
        let shifted = kl_entropy(&scaled, 3000, 1, 4);
        assert!(
            (shifted - base - 2.0).abs() < 0.05,
            "{shifted} - {base} should be 2 bits"
        );
    }

    #[test]
    fn breakdown_mi_matches_ksg_roughly() {
        let cov = equicorrelated_cov(2, 0.7);
        let data = sample_gaussian(&cov, 2000, 29);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 2000, &sizes);
        let breakdown = entropy_breakdown(&view, 4);
        let via_entropies = breakdown.multi_information();
        let via_ksg = crate::workspace::InfoWorkspace::new()
            .multi_information(&view, &crate::KsgConfig::default());
        assert!(
            (via_entropies - via_ksg).abs() < 0.2,
            "entropy route {via_entropies} vs KSG {via_ksg}"
        );
    }

    #[test]
    fn duplicated_points_stay_finite() {
        let data = vec![1.0; 50];
        let est = kl_entropy(&data, 50, 1, 4);
        assert!(est.is_finite());
    }
}
