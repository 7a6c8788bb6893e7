//! Kernel-density multi-information — the baseline the paper compared
//! against (§5.3: "multiple orders of magnitudes slower and showed a
//! larger variance in higher dimensions").
//!
//! Leave-one-out Gaussian-product-kernel estimate:
//!
//! ```text
//! Î = (1/m) Σᵢ log [ p̂(wᵢ) / Π_b p̂_b(wᵢ_b) ]
//! p̂(wᵢ)   = 1/(m−1) Σ_{j≠i} K_H(wᵢ − w_j)
//! ```
//!
//! with per-dimension Silverman bandwidths. `O(m² d)` with a large
//! constant — the `estimators` bench reproduces the paper's speed
//! comparison against KSG.
//!
//! The estimate runs through [`crate::MeasureWorkspace`]
//! ([`crate::MeasureConfig::Kde`]). Its engine keeps persistent
//! log-sum-exp scratch partitioned into the same fixed sample spans as
//! the KSG engine, per-sample log ratios reduced in sample order —
//! allocation-free once warm and **bit-identical for any worker count**
//! to the sequential pre-workspace implementation (frozen in
//! `crates/sops-info/tests/workspace_measure.rs`).

use crate::workspace::{resolve_threads, INFO_CHUNKS};
use crate::SampleView;
use sops_math::stats;
use sops_math::NATS_TO_BITS;

/// KDE configuration.
#[derive(Debug, Clone, Copy)]
pub struct KdeConfig {
    /// Multiplier on the Silverman rule-of-thumb bandwidth (1.0 = rule of
    /// thumb).
    pub bandwidth_factor: f64,
    /// Worker threads (0 = default). Results are bit-identical for any
    /// thread count.
    pub threads: usize,
}

impl Default for KdeConfig {
    fn default() -> Self {
        KdeConfig {
            bandwidth_factor: 1.0,
            threads: 0,
        }
    }
}

/// Per-span scratch of the KDE engine: one log-sum-exp buffer plus the
/// span's per-sample log ratios.
#[derive(Debug, Clone, Default)]
struct KdeChunk {
    /// Per-sample `log p̂(wᵢ) − Σ_b log p̂_b(wᵢ_b)` values of this span.
    vals: Vec<f64>,
    /// Kernel log-weights of the current (sample, term) pair.
    logs: Vec<f64>,
}

impl KdeChunk {
    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.vals.capacity());
        sig.push(self.logs.capacity());
    }
}

/// Persistent buffers for the leave-one-out KDE estimator — the
/// KDE-side sibling of [`crate::workspace::InfoWorkspace`]. One
/// workspace serves repeated calls over views of any shape; all scratch
/// is reused, so a warmed-up workspace allocates nothing per call
/// (enforced by `crates/sops-info/tests/workspace_measure.rs`).
#[derive(Debug, Clone)]
pub(crate) struct KdeWorkspace {
    /// Per-dimension Silverman bandwidths of the current view.
    bandwidths: Vec<f64>,
    /// Column gather scratch for the bandwidth pass.
    column: Vec<f64>,
    /// Block column ranges `[start, end)` of the current view.
    ranges: Vec<(usize, usize)>,
    /// Fixed per-span scratch.
    chunks: Vec<KdeChunk>,
}

impl Default for KdeWorkspace {
    fn default() -> Self {
        KdeWorkspace::new()
    }
}

impl KdeWorkspace {
    /// An empty workspace; buffers grow to the workload size on first use.
    pub(crate) fn new() -> Self {
        KdeWorkspace {
            bandwidths: Vec::new(),
            column: Vec::new(),
            ranges: Vec::new(),
            chunks: vec![KdeChunk::default(); INFO_CHUNKS],
        }
    }

    /// Estimates the multi-information (bits) between the observer blocks
    /// of `view` with the leave-one-out KDE ratio — the engine behind
    /// [`crate::MeasureConfig::Kde`] in [`crate::MeasureWorkspace`],
    /// allocation-free once warm.
    ///
    /// # Panics
    ///
    /// Panics if `view.rows < 3`.
    pub(crate) fn multi_information(&mut self, view: &SampleView<'_>, cfg: &KdeConfig) -> f64 {
        if view.blocks() < 2 {
            return 0.0;
        }
        assert!(view.rows >= 3, "KDE: need at least 3 samples");
        let stride = view.stride();
        self.bandwidths.clear();
        silverman_bandwidths_into(
            view,
            cfg.bandwidth_factor,
            &mut self.column,
            &mut self.bandwidths,
        );
        self.ranges.clear();
        let mut off = 0;
        for &b in view.block_sizes {
            self.ranges.push((off, off + b));
            off += b;
        }
        let threads = resolve_threads(cfg.threads);
        let m = view.rows;
        let nchunks = self.chunks.len();
        let bandwidths = &self.bandwidths;
        let ranges = &self.ranges;
        sops_par::parallel_chunks_mut(&mut self.chunks, nchunks, threads, |c, bufs| {
            let KdeChunk { vals, logs } = &mut bufs[0];
            vals.clear();
            let lo = c * m / nchunks;
            let hi = (c + 1) * m / nchunks;
            for i in lo..hi {
                let joint = loo_log_density(view, bandwidths, i, 0, stride, logs);
                let marginals: f64 = ranges
                    .iter()
                    .map(|&(s, e)| loo_log_density(view, bandwidths, i, s, e, logs))
                    .sum();
                vals.push(joint - marginals);
            }
        });
        // Sample-order reduction: bit-identical to the sequential fold for
        // any worker count.
        let mut total = 0.0;
        for chunk in &self.chunks {
            for &v in &chunk.vals {
                total += v;
            }
        }
        total / m as f64 * NATS_TO_BITS
    }

    /// Capacities of every internal buffer — constant for a warmed-up
    /// workspace (the zero-allocation contract).
    pub(crate) fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.bandwidths.capacity(),
            self.column.capacity(),
            self.ranges.capacity(),
        ];
        for chunk in &self.chunks {
            chunk.capacity_signature(&mut sig);
        }
        sig
    }
}

/// Per-dimension Silverman bandwidth, `h_d = σ_d (4/((d+2) m))^{1/(d+4)}`,
/// written into `out` (`column` is gather scratch).
fn silverman_bandwidths_into(
    view: &SampleView<'_>,
    factor: f64,
    column: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    let d = view.stride();
    let m = view.rows as f64;
    let exponent = 1.0 / (d as f64 + 4.0);
    let scale = (4.0 / ((d as f64 + 2.0) * m)).powf(exponent) * factor;
    for col in 0..d {
        column.clear();
        column.extend((0..view.rows).map(|r| view.row(r)[col]));
        let sd = stats::variance(column).sqrt();
        // Degenerate (constant) dimensions get a tiny positive
        // bandwidth so the density stays proper.
        out.push((sd * scale).max(1e-12));
    }
}

/// Leave-one-out log-density (nats, up to the normalization constant
/// cancelled in the MI ratio) of row `i` over the dimensions in
/// `[start, end)`. `logs` is the log-sum-exp scratch (cleared first).
#[inline]
fn loo_log_density(
    view: &SampleView<'_>,
    bandwidths: &[f64],
    i: usize,
    start: usize,
    end: usize,
    logs: &mut Vec<f64>,
) -> f64 {
    let mut acc = 0.0f64;
    let ri = view.row(i);
    // log-sum-exp over j != i for numerical stability.
    let mut max_log = f64::NEG_INFINITY;
    logs.clear();
    for j in 0..view.rows {
        if j == i {
            continue;
        }
        let rj = view.row(j);
        let mut e = 0.0;
        for c in start..end {
            let z = (ri[c] - rj[c]) / bandwidths[c];
            e -= 0.5 * z * z;
        }
        logs.push(e);
        if e > max_log {
            max_log = e;
        }
    }
    for &e in logs.iter() {
        acc += (e - max_log).exp();
    }
    // Normalization by bandwidth product and (2π)^{d/2} cancels between
    // joint and marginals only partially; keep it exact:
    let d = (end - start) as f64;
    let log_norm: f64 = bandwidths[start..end].iter().map(|h| h.ln()).sum::<f64>()
        + 0.5 * d * (2.0 * std::f64::consts::PI).ln();
    max_log + acc.ln() - ((view.rows - 1) as f64).ln() - log_norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{bivariate_gaussian_mi, equicorrelated_cov, sample_gaussian};
    use sops_math::Matrix;

    fn kde(view: &SampleView<'_>, cfg: &KdeConfig) -> f64 {
        KdeWorkspace::new().multi_information(view, cfg)
    }

    #[test]
    fn independent_gaussians_near_zero() {
        let data = sample_gaussian(&Matrix::identity(2), 600, 3);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 600, &sizes);
        let i = kde(&view, &KdeConfig::default());
        assert!(i.abs() < 0.1, "KDE on independent data: {i}");
    }

    #[test]
    fn correlated_gaussians_recovered_roughly() {
        let rho = 0.8;
        let data = sample_gaussian(&equicorrelated_cov(2, rho), 800, 5);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 800, &sizes);
        let est = kde(&view, &KdeConfig::default());
        let truth = bivariate_gaussian_mi(rho);
        // KDE carries more bias than KSG — the paper's point; accept ±0.25.
        assert!((est - truth).abs() < 0.25, "KDE est {est} vs truth {truth}");
    }

    #[test]
    fn monotone_in_coupling() {
        let sizes = [1usize, 1];
        let weak_data = sample_gaussian(&equicorrelated_cov(2, 0.2), 500, 7);
        let strong_data = sample_gaussian(&equicorrelated_cov(2, 0.9), 500, 7);
        let weak = kde(
            &SampleView::new(&weak_data, 500, &sizes),
            &KdeConfig::default(),
        );
        let strong = kde(
            &SampleView::new(&strong_data, 500, &sizes),
            &KdeConfig::default(),
        );
        assert!(strong > weak + 0.3);
    }

    #[test]
    fn bit_identical_across_threads() {
        let data = sample_gaussian(&equicorrelated_cov(2, 0.5), 300, 9);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 300, &sizes);
        let mut ws = KdeWorkspace::new();
        let one = ws.multi_information(
            &view,
            &KdeConfig {
                threads: 1,
                ..KdeConfig::default()
            },
        );
        let many = ws.multi_information(
            &view,
            &KdeConfig {
                threads: 8,
                ..KdeConfig::default()
            },
        );
        assert_eq!(one.to_bits(), many.to_bits());
    }

    #[test]
    fn workspace_reuse_across_shapes_matches_fresh() {
        let mut ws = KdeWorkspace::new();
        for (blocks, rows, seed) in [(2usize, 300usize, 1u64), (4, 150, 2), (3, 220, 3)] {
            let data = sample_gaussian(&equicorrelated_cov(blocks, 0.4), rows, seed);
            let sizes = vec![1usize; blocks];
            let view = SampleView::new(&data, rows, &sizes);
            let reused = ws.multi_information(&view, &KdeConfig::default());
            let fresh = KdeWorkspace::new().multi_information(&view, &KdeConfig::default());
            assert_eq!(reused.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn constant_dimension_does_not_blow_up() {
        // One coordinate constant: degenerate bandwidth path.
        let mut data = Vec::new();
        let mut rng = sops_math::SplitMix64::new(4);
        for _ in 0..200 {
            data.push(rng.next_range(-1.0, 1.0));
            data.push(7.0);
        }
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 200, &sizes);
        let est = kde(&view, &KdeConfig::default());
        assert!(est.is_finite());
    }
}
