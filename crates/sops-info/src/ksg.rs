//! Kraskov–Stögbauer–Grassberger multi-information estimation
//! (paper Eq. 18–20).
//!
//! The estimator for `m` samples of `n` observer variables is
//!
//! ```text
//! I(W₁,…,W_n) = ψ(k) + (n−1) ψ(m) − ⟨ψ(c₁) + … + ψ(c_n)⟩
//! ```
//!
//! where for each sample the `k`-th nearest neighbour is found under the
//! max-over-blocks metric `‖w′ − w‖ = maxᵢ ‖w′ᵢ − wᵢ‖₂` (Eq. 19) and `cᵢ`
//! counts, per observer `i`, the samples strictly closer than the `i`-th
//! block of that `k`-th neighbour (Eq. 20).
//!
//! Three variants are provided:
//!
//! * [`KsgVariant::Paper`] — Eq. 18–20 exactly as printed: *per-block*
//!   radii equal to the distance from `wᵢ` to the k-th neighbour's block
//!   `i`, strict counts, self included then subtracted, no correction
//!   term. Measured on independent Gaussians this literal transcription
//!   carries a positive bias of several bits that grows with `n` — the
//!   printed equation is a loose rendering of Kraskov's estimator 2,
//!   whose radii span the *rectangle over all k neighbours*. Since the
//!   paper's own figures start near zero at `t = 0` (i.i.d. initial
//!   conditions), the authors clearly ran a calibrated estimator; we keep
//!   the literal formula for fidelity but default to KSG1.
//! * [`KsgVariant::Ksg1`] (default) — Kraskov's estimator 1 generalized
//!   to `n` variables: one joint radius `ε` per sample, strict counts,
//!   `⟨Σ ψ(cᵢ + 1)⟩`. Bias ≈ 0 on independent data at all tested `n`.
//! * [`KsgVariant::Ksg2`] — Kraskov's estimator 2: rectangle per-block
//!   radii over all `k` neighbours, inclusive counts, `−(n−1)/k`
//!   correction.
//!
//! The `estimators` bench and `estimator_shootout` example reproduce the
//! calibration comparison.
//!
//! The estimator runs through [`crate::MeasureWorkspace`]: select it with
//! [`crate::MeasureConfig::Ksg`], and use
//! [`crate::MeasureWorkspace::pairwise_mi_matrix`] and
//! [`crate::MeasureWorkspace::decompose`] for the pairwise matrix and the
//! Eq. 5 decomposition.
//!
//! All variants share the SoA joint-kNN kernels of
//! `sops_spatial::block_max` (lane-transposed pruned scan in high joint
//! dimension, batched leaf kd-tree descent in low) — routing between
//! them changes throughput only, never bits.

/// Which KSG formula to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KsgVariant {
    /// Paper Eq. 18–20, verbatim (per-block radii from the k-th neighbour
    /// alone, strict counts, no correction term). Carries a large positive
    /// bias that grows with the number of observers — kept for
    /// transcription fidelity and exercised by the `estimators` bench; see
    /// the module docs for why the calibrated variants are preferred.
    Paper,
    /// Kraskov estimator 1 generalized to n variables (single joint
    /// radius, strict counts, `ψ(c+1)` terms). Well calibrated — the
    /// pipeline default.
    #[default]
    Ksg1,
    /// Kraskov estimator 2 (rectangle per-block radii over all k
    /// neighbours, inclusive counts, `−(n−1)/k` correction).
    Ksg2,
}

/// KSG configuration.
///
/// It names the estimate only. The joint k-NN search routes itself by
/// the term's joint dimension and sample count (a kd-tree descent for
/// small joint spaces, the pruned scan beyond), and every route returns
/// the same bits; the engine runs on its caller's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KsgConfig {
    /// Neighbour order `k`. The paper quotes `k = 5` in §5.3 and `k = 4`
    /// in §6; results are insensitive in `k ∈ [2, 10]` (§5.3). Default 4.
    pub k: usize,
    /// Formula variant.
    pub variant: KsgVariant,
}

impl Default for KsgConfig {
    fn default() -> Self {
        KsgConfig {
            k: 4,
            variant: KsgVariant::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{
        bivariate_gaussian_mi, equicorrelated_cov, gaussian_multi_information, sample_gaussian,
    };
    use crate::workspace::InfoWorkspace;
    use crate::SampleView;
    use sops_math::Matrix;

    const M: usize = 1500;

    fn multi_information(view: &SampleView<'_>, cfg: &KsgConfig) -> f64 {
        InfoWorkspace::new().multi_information(view, cfg)
    }

    fn estimate_on_gaussian(cov: &Matrix, block_sizes: &[usize], variant: KsgVariant) -> f64 {
        let data = sample_gaussian(cov, M, 2024);
        let view = SampleView::new(&data, M, block_sizes);
        multi_information(&view, &KsgConfig { k: 4, variant })
    }

    #[test]
    fn independent_gaussians_give_near_zero() {
        let cov = Matrix::identity(4);
        for variant in [KsgVariant::Ksg1, KsgVariant::Ksg2] {
            let i = estimate_on_gaussian(&cov, &[1, 1, 1, 1], variant);
            assert!(i.abs() < 0.12, "{variant:?}: {i} should be ~0");
        }
    }

    #[test]
    fn paper_literal_variant_carries_documented_positive_bias() {
        // The verbatim Eq. 18-20 transcription over-counts (module docs);
        // its bias on independent data is large, positive, and grows with
        // the number of observers.
        let bias2 = estimate_on_gaussian(&Matrix::identity(2), &[1, 1], KsgVariant::Paper);
        let bias4 = estimate_on_gaussian(&Matrix::identity(4), &[1, 1, 1, 1], KsgVariant::Paper);
        assert!(bias2 > 0.5, "n=2 bias {bias2}");
        assert!(
            bias4 > bias2 + 0.5,
            "bias must grow with n: {bias2} -> {bias4}"
        );
    }

    #[test]
    fn bivariate_gaussian_mi_recovered() {
        for rho in [0.5, 0.8] {
            let truth = bivariate_gaussian_mi(rho);
            let cov = equicorrelated_cov(2, rho);
            for variant in [KsgVariant::Ksg1, KsgVariant::Ksg2] {
                let est = estimate_on_gaussian(&cov, &[1, 1], variant);
                assert!(
                    (est - truth).abs() < 0.15,
                    "{variant:?} rho={rho}: est {est} vs truth {truth}"
                );
            }
        }
    }

    #[test]
    fn trivariate_equicorrelated_recovered() {
        let cov = equicorrelated_cov(3, 0.6);
        let truth = gaussian_multi_information(&cov, &[1, 1, 1]);
        let est = estimate_on_gaussian(&cov, &[1, 1, 1], KsgVariant::Ksg1);
        assert!((est - truth).abs() < 0.2, "est {est} vs truth {truth}");
    }

    #[test]
    fn vector_blocks_recovered() {
        // Two 2-d blocks with cross-correlation only between dims (0,2):
        // like two particles whose x-coordinates are correlated.
        let mut cov = Matrix::identity(4);
        cov[(0, 2)] = 0.7;
        cov[(2, 0)] = 0.7;
        let truth = gaussian_multi_information(&cov, &[2, 2]);
        let est = estimate_on_gaussian(&cov, &[2, 2], KsgVariant::Ksg1);
        assert!((est - truth).abs() < 0.15, "est {est} vs truth {truth}");
    }

    #[test]
    fn stronger_coupling_increases_estimate() {
        let weak = estimate_on_gaussian(&equicorrelated_cov(2, 0.3), &[1, 1], KsgVariant::Ksg1);
        let strong = estimate_on_gaussian(&equicorrelated_cov(2, 0.9), &[1, 1], KsgVariant::Ksg1);
        assert!(strong > weak + 0.5);
    }

    #[test]
    fn invariant_under_rigid_shift_and_scale_of_all_samples() {
        // MI is invariant under any invertible per-block transform; check
        // shift + uniform scale.
        let cov = equicorrelated_cov(2, 0.7);
        let data = sample_gaussian(&cov, 800, 55);
        let sizes = [1usize, 1];
        let base = multi_information(&SampleView::new(&data, 800, &sizes), &KsgConfig::default());
        let transformed: Vec<f64> = data
            .chunks(2)
            .flat_map(|r| [3.0 * r[0] + 10.0, 3.0 * r[1] - 5.0])
            .collect();
        let shifted = multi_information(
            &SampleView::new(&transformed, 800, &sizes),
            &KsgConfig::default(),
        );
        assert!(
            (base - shifted).abs() < 1e-9,
            "uniform scaling + shift must not change the estimate: {base} vs {shifted}"
        );
    }

    #[test]
    fn insensitive_to_k_in_paper_range() {
        // The paper reports similar results for k in {2, 5, 10}.
        let cov = equicorrelated_cov(2, 0.6);
        let data = sample_gaussian(&cov, M, 31);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, M, &sizes);
        let estimates: Vec<f64> = [2, 5, 10]
            .iter()
            .map(|&k| {
                multi_information(
                    &view,
                    &KsgConfig {
                        k,
                        ..KsgConfig::default()
                    },
                )
            })
            .collect();
        let spread = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - estimates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.12, "k-sensitivity too high: {estimates:?}");
    }

    #[test]
    fn single_block_returns_zero() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let sizes = [1usize];
        let view = SampleView::new(&data, 4, &sizes);
        assert_eq!(multi_information(&view, &KsgConfig::default()), 0.0);
    }

    #[test]
    #[should_panic(expected = "more than")]
    fn k_must_be_less_than_rows() {
        let data = vec![0.0; 6];
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 3, &sizes);
        multi_information(
            &view,
            &KsgConfig {
                k: 3,
                ..KsgConfig::default()
            },
        );
    }
}

#[cfg(test)]
mod pairwise_tests {
    use super::*;
    use crate::gaussian::{bivariate_gaussian_mi, sample_gaussian};
    use crate::workspace::InfoWorkspace;
    use crate::SampleView;
    use sops_math::{Matrix, PairMatrix};

    fn multi_information(view: &SampleView<'_>, cfg: &KsgConfig) -> f64 {
        InfoWorkspace::new().multi_information(view, cfg)
    }

    fn pairwise_mi_matrix(view: &SampleView<'_>, cfg: &KsgConfig) -> PairMatrix {
        InfoWorkspace::new().pairwise_mi_matrix(view, cfg)
    }

    #[test]
    fn matrix_matches_bivariate_truths() {
        // Three scalars: (0,1) strongly coupled, (0,2)/(1,2) independent.
        let mut cov = Matrix::identity(3);
        cov[(0, 1)] = 0.8;
        cov[(1, 0)] = 0.8;
        let data = sample_gaussian(&cov, 1200, 41);
        let sizes = [1usize, 1, 1];
        let view = SampleView::new(&data, 1200, &sizes);
        let m = pairwise_mi_matrix(&view, &KsgConfig::default());
        let truth = bivariate_gaussian_mi(0.8);
        assert!(
            (m.get(0, 1) - truth).abs() < 0.12,
            "{} vs {truth}",
            m.get(0, 1)
        );
        assert!(
            m.get(0, 2).abs() < 0.08,
            "independent pair: {}",
            m.get(0, 2)
        );
        assert!(m.get(1, 2).abs() < 0.08);
        // Symmetry by construction + zero diagonal.
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn single_block_gives_empty_structure() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let sizes = [1usize];
        let view = SampleView::new(&data, 6, &sizes);
        let m = pairwise_mi_matrix(&view, &KsgConfig::default());
        assert_eq!(m.types(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn pairwise_matches_per_pair_multi_information() {
        // The flat matrix must agree exactly with independent two-block
        // estimates over merged pair views (the old implementation).
        let mut cov = Matrix::identity(4);
        cov[(0, 3)] = 0.6;
        cov[(3, 0)] = 0.6;
        let data = sample_gaussian(&cov, 350, 23);
        let sizes = [1usize, 2, 1];
        let view = SampleView::new(&data, 350, &sizes);
        let cfg = KsgConfig::default();
        let m = pairwise_mi_matrix(&view, &cfg);
        for i in 0..3 {
            for j in (i + 1)..3 {
                let merged = view.merged_blocks(&[i, j]);
                let pair_sizes = [sizes[i], sizes[j]];
                let pair_view = SampleView::new(&merged, 350, &pair_sizes);
                let want = multi_information(&pair_view, &cfg);
                assert_eq!(
                    m.get(i, j).to_bits(),
                    want.to_bits(),
                    "pair ({i},{j}): {} vs {want}",
                    m.get(i, j)
                );
            }
        }
    }
}
