//! The coarse-graining decomposition of multi-information (paper Eq. 4–5).
//!
//! Grouping the `n` observers into `g` coarse observers `W̃₁, …, W̃_g`
//! decomposes the multi-information as
//!
//! ```text
//! I(W₁,…,W_n) = I(W̃₁,…,W̃_g) + Σ_j I(observers inside group j)
//! ```
//!
//! The left term is the *between-group* organization; the sum collects the
//! organization *within* each group. §6.1.1 applies this with one group
//! per particle type to ask where organization is localized (Fig. 11).
//!
//! [`crate::MeasureWorkspace::decompose`] estimates every term with the
//! configured KSG estimator, sharing the per-block count indexes between
//! the total and every within-group term. Each term is estimated
//! independently, so the identity holds only in expectation — the
//! `decomposition` integration test checks the residual on analytic
//! Gaussians.

/// A partition of observer blocks into coarse groups.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// `groups[g]` lists the block indices belonging to coarse observer
    /// `g`. Every block must appear in exactly one group.
    pub groups: Vec<Vec<usize>>,
}

impl Grouping {
    /// Builds a grouping from per-block group labels (e.g. particle
    /// types): block `i` joins group `labels[i]`. Empty groups are
    /// dropped.
    pub fn from_labels(labels: &[usize]) -> Self {
        let g = labels.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut groups = vec![Vec::new(); g];
        for (block, &label) in labels.iter().enumerate() {
            groups[label].push(block);
        }
        groups.retain(|members| !members.is_empty());
        Grouping { groups }
    }

    /// Validates against a block count: the groups must partition
    /// `0..blocks` exactly.
    pub fn validate(&self, blocks: usize) {
        let mut seen = vec![false; blocks];
        for members in &self.groups {
            for &b in members {
                assert!(b < blocks, "Grouping: block {b} out of range");
                assert!(!seen[b], "Grouping: block {b} appears twice");
                seen[b] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "Grouping: not all blocks are covered"
        );
    }
}

/// The estimated terms of Eq. 5.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// `I(W₁,…,W_n)` over all fine-grained observers.
    pub total: f64,
    /// `I(W̃₁,…,W̃_g)` between the coarse observers.
    pub between: f64,
    /// Within-group multi-information, one entry per group (0 for
    /// singleton groups).
    pub within: Vec<f64>,
}

impl Decomposition {
    /// Sum of the right-hand side of Eq. 5 — equals `total` in
    /// expectation.
    pub fn reconstructed_total(&self) -> f64 {
        self.between + self.within.iter().sum::<f64>()
    }

    /// The terms normalized by the reconstructed total, in the order
    /// `(between, within…)` — the quantity plotted in Fig. 11. Returns
    /// `None` when the total is below `floor` (ratio would be noise).
    pub fn normalized(&self, floor: f64) -> Option<Vec<f64>> {
        let denom = self.reconstructed_total();
        if denom.abs() < floor {
            return None;
        }
        let mut out = Vec::with_capacity(1 + self.within.len());
        out.push(self.between / denom);
        for &w in &self.within {
            out.push(w / denom);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{equicorrelated_cov, gaussian_multi_information, sample_gaussian};
    use crate::workspace::InfoWorkspace;
    use crate::{KsgConfig, SampleView};
    use sops_math::Matrix;

    fn decompose(view: &SampleView<'_>, grouping: &Grouping, cfg: &KsgConfig) -> Decomposition {
        InfoWorkspace::new().decompose(view, grouping, cfg)
    }

    #[test]
    fn grouping_from_labels() {
        let g = Grouping::from_labels(&[0, 1, 0, 2, 1]);
        assert_eq!(g.groups, vec![vec![0, 2], vec![1, 4], vec![3]]);
        g.validate(5);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn validate_rejects_overlap() {
        Grouping {
            groups: vec![vec![0, 1], vec![1]],
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "not all blocks")]
    fn validate_rejects_gaps() {
        Grouping {
            groups: vec![vec![0]],
        }
        .validate(2);
    }

    #[test]
    fn decomposition_identity_on_gaussians() {
        // 4 scalar observers, groups {0,1} and {2,3}, equicorrelated.
        let cov = equicorrelated_cov(4, 0.5);
        let data = sample_gaussian(&cov, 1500, 2025);
        let sizes = [1usize, 1, 1, 1];
        let view = SampleView::new(&data, 1500, &sizes);
        let grouping = Grouping::from_labels(&[0, 0, 1, 1]);
        let d = decompose(&view, &grouping, &KsgConfig::default());

        // Analytic values for the identity check.
        let total_truth = gaussian_multi_information(&cov, &[1, 1, 1, 1]);
        let between_truth = gaussian_multi_information(&cov, &[2, 2]);
        assert!(
            (d.total - total_truth).abs() < 0.25,
            "total {} vs {total_truth}",
            d.total
        );
        assert!(
            (d.between - between_truth).abs() < 0.2,
            "between {} vs {between_truth}",
            d.between
        );
        // Identity: total ≈ between + sum(within).
        let residual = (d.total - d.reconstructed_total()).abs();
        assert!(residual < 0.25, "Eq. 5 residual {residual}");
    }

    #[test]
    fn independent_groups_have_zero_between_term() {
        // Correlation only within groups: between-term ~ 0.
        let mut cov = Matrix::identity(4);
        cov[(0, 1)] = 0.7;
        cov[(1, 0)] = 0.7;
        cov[(2, 3)] = 0.7;
        cov[(3, 2)] = 0.7;
        let data = sample_gaussian(&cov, 1500, 11);
        let sizes = [1usize, 1, 1, 1];
        let view = SampleView::new(&data, 1500, &sizes);
        let grouping = Grouping {
            groups: vec![vec![0, 1], vec![2, 3]],
        };
        let d = decompose(&view, &grouping, &KsgConfig::default());
        assert!(d.between.abs() < 0.15, "between {}", d.between);
        assert!(d.within[0] > 0.2 && d.within[1] > 0.2);
    }

    #[test]
    fn singleton_groups_have_zero_within_term() {
        let cov = equicorrelated_cov(3, 0.4);
        let data = sample_gaussian(&cov, 600, 5);
        let sizes = [1usize, 1, 1];
        let view = SampleView::new(&data, 600, &sizes);
        let grouping = Grouping::from_labels(&[0, 1, 2]);
        let d = decompose(&view, &grouping, &KsgConfig::default());
        assert!(d.within.iter().all(|&w| w == 0.0));
        // With singleton groups, between == total by construction.
        assert!((d.between - d.total).abs() < 1e-9);
    }

    #[test]
    fn normalized_terms_sum_to_one() {
        let cov = equicorrelated_cov(4, 0.6);
        let data = sample_gaussian(&cov, 800, 99);
        let sizes = [1usize, 1, 1, 1];
        let view = SampleView::new(&data, 800, &sizes);
        let d = decompose(
            &view,
            &Grouping::from_labels(&[0, 0, 1, 1]),
            &KsgConfig::default(),
        );
        let norm = d.normalized(1e-6).expect("total is large enough");
        let sum: f64 = norm.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_returns_none_for_tiny_totals() {
        let d = Decomposition {
            total: 1e-9,
            between: 5e-10,
            within: vec![4e-10],
        };
        assert!(d.normalized(1e-6).is_none());
    }
}
