//! Information-theoretic estimators (paper §2, §3.1, §5.3).
//!
//! The paper quantifies self-organization as an increase over time of the
//! multi-information
//!
//! ```text
//! I(W₁, …, W_n) = Σᵢ H(Wᵢ) − H(W₁, …, W_n)
//! ```
//!
//! between observer variables (the aligned, permutation-reduced particle
//! positions), estimated from `m` ensemble samples with the
//! Kraskov–Stögbauer–Grassberger (KSG) k-NN estimator.
//!
//! Every estimate runs through one engine, [`MeasureWorkspace`] (module
//! [`measure`]): [`MeasureWorkspace::estimator_mut`] maps a
//! [`MeasureConfig`] to a persistent engine behind the [`Estimator`]
//! trait, so `ws.estimator_mut(&cfg).measure(&view)` is the one way to
//! get a multi-information, and the pairwise matrix, the Eq. 5
//! decomposition, conditional mutual information and transfer entropy
//! are methods of the same workspace (its docs carry an example). Every
//! engine runs on its caller's thread; the pipeline parallelizes over
//! evaluation steps, and its evaluation workers hold one workspace each.
//! The other modules hold each method's configuration and
//! documentation:
//!
//! * [`ksg`] — the paper's exact formula (Eq. 18–20) plus the two
//!   canonical KSG variants as ablations; the engine shares per-block
//!   indexes and picks its joint k-NN path adaptively, with the same
//!   bits on every path;
//! * [`KdeConfig`] — the kernel-density baseline the paper found "multiple
//!   orders of magnitudes slower" with larger variance (§5.3);
//! * [`binning`] — the James–Stein shrinkage binning baseline the paper
//!   found to overestimate in high dimension (§5.3), with a hash-free
//!   engine;
//! * [`entropy`] — Kozachenko–Leonenko differential entropy, used for the
//!   marginal/joint entropy evolution discussion (§6, §7.1);
//! * [`gaussian`] — analytic Gaussian multi-information + correlated
//!   samplers (validation ground truth); the empirical-covariance
//!   Gaussian baseline is [`MeasureConfig::Gaussian`];
//! * [`decomposition`] — the coarse-graining decomposition of Eq. 4–5;
//! * [`CmiConfig`] — Frenzel–Pompe conditional mutual information and
//!   transfer entropy (§7.3 tooling).
//!
//! All public estimators report **bits**.

pub mod binning;
mod conditional;
pub mod decomposition;
mod discrete;
pub mod entropy;
pub mod gaussian;
mod kde;
pub mod ksg;
pub mod measure;
mod workspace;

pub use binning::{BinningConfig, SupportModel};
pub use conditional::CmiConfig;
pub use decomposition::{Decomposition, Grouping};
pub use kde::KdeConfig;
pub use ksg::{KsgConfig, KsgVariant};
pub use measure::{Estimator, MeasureConfig, MeasureWorkspace, StridedFamily};

/// A borrowed view of `rows` joint samples, each a concatenation of
/// observer blocks with the given sizes — the common input format of every
/// estimator in this crate.
///
/// For `n` particles in 2-D, `block_sizes = [2; n]` and a row is
/// `(x₀, y₀, x₁, y₁, …)`.
#[derive(Debug, Clone, Copy)]
pub struct SampleView<'a> {
    /// Row-major data, `rows × Σ block_sizes` values.
    pub data: &'a [f64],
    /// Number of samples `m`.
    pub rows: usize,
    /// Dimensions of each observer variable.
    pub block_sizes: &'a [usize],
}

impl<'a> SampleView<'a> {
    /// Creates a view, validating the layout.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent sizes, zero rows or zero blocks.
    pub fn new(data: &'a [f64], rows: usize, block_sizes: &'a [usize]) -> Self {
        assert!(rows > 0, "SampleView: no samples");
        assert!(!block_sizes.is_empty(), "SampleView: no blocks");
        let stride: usize = block_sizes.iter().sum();
        assert!(stride > 0, "SampleView: zero total dimension");
        assert_eq!(
            data.len(),
            rows * stride,
            "SampleView: data length {} != rows {rows} × stride {stride}",
            data.len()
        );
        SampleView {
            data,
            rows,
            block_sizes,
        }
    }

    /// Joint dimension (row stride).
    pub fn stride(&self) -> usize {
        self.block_sizes.iter().sum()
    }

    /// Number of observer blocks.
    pub fn blocks(&self) -> usize {
        self.block_sizes.len()
    }

    /// One row.
    pub fn row(&self, r: usize) -> &[f64] {
        let s = self.stride();
        &self.data[r * s..(r + 1) * s]
    }

    /// Extracts the columns of block `b` as a contiguous `rows × size_b`
    /// matrix (copies).
    pub fn block_columns(&self, b: usize) -> Vec<f64> {
        let s = self.stride();
        let start: usize = self.block_sizes[..b].iter().sum();
        let len = self.block_sizes[b];
        let mut out = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            out.extend_from_slice(&self.data[r * s + start..r * s + start + len]);
        }
        out
    }

    /// Extracts several blocks merged into one contiguous matrix, in the
    /// given order — used by the decomposition to form coarse observers.
    pub fn merged_blocks(&self, blocks: &[usize]) -> Vec<f64> {
        let s = self.stride();
        let offsets: Vec<usize> = self
            .block_sizes
            .iter()
            .scan(0, |acc, &b| {
                let off = *acc;
                *acc += b;
                Some(off)
            })
            .collect();
        let total: usize = blocks.iter().map(|&b| self.block_sizes[b]).sum();
        let mut out = Vec::with_capacity(self.rows * total);
        for r in 0..self.rows {
            let row = &self.data[r * s..(r + 1) * s];
            for &b in blocks {
                out.extend_from_slice(&row[offsets[b]..offsets[b] + self.block_sizes[b]]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_accessors() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let sizes = [2usize, 1];
        let v = SampleView::new(&data, 2, &sizes);
        assert_eq!(v.stride(), 3);
        assert_eq!(v.blocks(), 2);
        assert_eq!(v.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(v.block_columns(0), vec![1.0, 2.0, 4.0, 5.0]);
        assert_eq!(v.block_columns(1), vec![3.0, 6.0]);
        assert_eq!(v.merged_blocks(&[1, 0]), vec![3.0, 1.0, 2.0, 6.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn view_rejects_bad_layout() {
        SampleView::new(&[1.0, 2.0, 3.0], 2, &[2]);
    }
}
