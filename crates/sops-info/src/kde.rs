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
//! ([`crate::MeasureConfig::Kde`]), on its caller's thread, and is
//! **bit-identical** to the pre-workspace implementation, which computed
//! row `i`'s log-sum-exp over its partners `j ≠ i` in ascending order,
//! once for the joint term and once per block (frozen in
//! `crates/sops-info/tests/workspace_measure.rs`). The engine does the
//! same floating-point operations on the same inputs with less repeated
//! work:
//!
//! * **Each unordered pair once.** Pairs are visited `j` ascending, then
//!   `i < j`, which hands every row its partners in ascending order. One
//!   exponent feeds both rows: `(r_j − r_i)/h` is `−((r_i − r_j)/h)` bit
//!   for bit, so `(0.5·z)·z` and every fold are equal.
//! * **One pass over a pair's columns**, in column order, feeds the
//!   joint exponent and its block's exponent together.
//! * **Two sweeps.** The first takes every (row, term) maximum, the
//!   second adds the `exp` terms in partner order. The maxima do not
//!   depend on the order, because an exponent is at most `+0` and never
//!   `−0` (and `f64::max` passes over a NaN exponent as the old strict
//!   `>` did). Each sweep recomputes the exponents, so nothing is stored
//!   per pair.
//! * **Normalisation constants once per call**, not per (row, term).
//!
//! Scratch is `O(m·(stride + blocks))`: the bandwidths, a column gather,
//! and per row a maximum, an `exp` sum and a pair exponent per term.
//! There is no `m × m` buffer, so a huge sample is a slow request, not an
//! allocation failure. A warmed-up workspace allocates nothing per call.

use crate::SampleView;
use sops_math::stats;
use sops_math::NATS_TO_BITS;

/// KDE configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KdeConfig {
    /// Multiplier on the Silverman rule-of-thumb bandwidth (1.0 = rule of
    /// thumb).
    pub bandwidth_factor: f64,
}

impl Default for KdeConfig {
    fn default() -> Self {
        KdeConfig {
            bandwidth_factor: 1.0,
        }
    }
}

/// The two sweeps' state of one row.
#[derive(Debug, Clone, Default)]
struct KdeRow {
    /// Three runs of one value per term (the joint first, then one per
    /// block): the maximum exponent over the row's partners, the `exp`
    /// sum, and the exponents of the pair being visited.
    terms: Vec<f64>,
    /// `log p̂(wᵢ) − Σ_b log p̂_b(wᵢ_b)`.
    ratio: f64,
}

impl KdeRow {
    /// The maxima, the `exp` sums and the pair exponents of a view with
    /// `t` terms.
    fn parts(&mut self, t: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
        let (max, rest) = self.terms.split_at_mut(t);
        let (sum, pair) = rest.split_at_mut(t);
        (max, sum, pair)
    }
}

/// Persistent buffers for the leave-one-out KDE estimator — the
/// KDE-side sibling of [`crate::workspace::InfoWorkspace`]. One
/// workspace serves repeated calls over views of any shape; all scratch
/// is reused, so a warmed-up workspace allocates nothing per call
/// (enforced by `crates/sops-info/tests/workspace_measure.rs`).
#[derive(Debug, Clone, Default)]
pub(crate) struct KdeWorkspace {
    /// Per-dimension Silverman bandwidths of the current view.
    bandwidths: Vec<f64>,
    /// Column gather scratch for the bandwidth pass.
    column: Vec<f64>,
    /// Block column ranges `[start, end)` of the current view.
    ranges: Vec<(usize, usize)>,
    /// Normalisation constant of each term, the joint first.
    log_norms: Vec<f64>,
    /// Per-row sweep state, grown to the largest view seen.
    rows: Vec<KdeRow>,
}

impl KdeWorkspace {
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
        self.log_norms.clear();
        for &(s, e) in std::iter::once(&(0, stride)).chain(&self.ranges) {
            self.log_norms.push(log_norm(&self.bandwidths[s..e]));
        }
        let m = view.rows;
        if self.rows.len() < m {
            self.rows.resize_with(m, KdeRow::default);
        }
        let pairs = Pairs {
            data: view.data,
            stride,
            bandwidths: &self.bandwidths,
            ranges: &self.ranges,
        };
        let terms = self.log_norms.len();
        let log_partners = ((m - 1) as f64).ln();
        let rows = &mut self.rows[..m];
        for row in rows.iter_mut() {
            row.terms.clear();
            row.terms.resize(terms, f64::NEG_INFINITY);
            row.terms.resize(3 * terms, 0.0);
        }
        pairs.sweep(rows, terms, |max, _, pair| {
            for (m, &e) in max.iter_mut().zip(pair) {
                *m = m.max(e);
            }
        });
        pairs.sweep(rows, terms, |max, sum, pair| {
            for ((s, &m), &e) in sum.iter_mut().zip(&*max).zip(pair) {
                *s += (e - m).exp();
            }
        });
        for row in rows.iter_mut() {
            let (maxes, sums, _) = row.parts(terms);
            let log_density = |t: usize| maxes[t] + sums[t].ln() - log_partners - self.log_norms[t];
            let marginals: f64 = (1..terms).map(log_density).sum();
            row.ratio = log_density(0) - marginals;
        }
        // Sample-order reduction, as the sequential reference folds.
        let mut total = 0.0;
        for row in &self.rows[..m] {
            total += row.ratio;
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
            self.log_norms.capacity(),
            self.rows.capacity(),
        ];
        sig.extend(self.rows.iter().map(|row| row.terms.capacity()));
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

/// Log normalisation of a Gaussian product kernel with bandwidths `h`:
/// `Σ ln h + (d/2) ln 2π`. It cancels between the joint and the marginals
/// only partially, so it is kept exact.
fn log_norm(h: &[f64]) -> f64 {
    let d = h.len() as f64;
    h.iter().map(|h| h.ln()).sum::<f64>() + 0.5 * d * (2.0 * std::f64::consts::PI).ln()
}

/// The rows of a view with their bandwidths: the exponents of the
/// leave-one-out log-sum-exp, `−½ Σ_c ((r_i,c − r_j,c)/h_c)²` per term.
struct Pairs<'a> {
    data: &'a [f64],
    stride: usize,
    bandwidths: &'a [f64],
    ranges: &'a [(usize, usize)],
}

impl Pairs<'_> {
    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Writes the exponents of the pair `(a, b)` into `out`: the joint as
    /// term 0, block `b` as term `b + 1`. One pass over the columns in
    /// order subtracts each column's `(0.5·z)·z` from both.
    #[inline(always)]
    fn exponents(&self, a: usize, b: usize, out: &mut [f64]) {
        let (ra, rb) = (self.row(a), self.row(b));
        let mut joint = 0.0;
        for (slot, &(s, e)) in out[1..].iter_mut().zip(self.ranges) {
            let mut block = 0.0;
            for ((&x, &y), &h) in ra[s..e].iter().zip(&rb[s..e]).zip(&self.bandwidths[s..e]) {
                let z = (x - y) / h;
                let q = 0.5 * z * z;
                joint -= q;
                block -= q;
            }
            *slot = block;
        }
        out[0] = joint;
    }

    /// One sweep over every row of a view with `t` terms: each pair
    /// `(i, j)` is computed once, `j` ascending, then `i < j`, which hands
    /// every row its partners in ascending order, and `update(max, sum,
    /// pair)` takes both rows' maxima and `exp` sums with that pair's
    /// exponents.
    #[inline(always)]
    fn sweep(
        &self,
        rows: &mut [KdeRow],
        t: usize,
        update: impl Fn(&mut [f64], &mut [f64], &[f64]),
    ) {
        for j in 0..rows.len() {
            let (head, tail) = rows.split_at_mut(j);
            let (max_j, sum_j, pair) = tail[0].parts(t);
            for (i, row_i) in head.iter_mut().enumerate() {
                self.exponents(i, j, pair);
                let (max_i, sum_i, _) = row_i.parts(t);
                update(max_i, sum_i, pair);
                update(max_j, sum_j, pair);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{bivariate_gaussian_mi, equicorrelated_cov, sample_gaussian};
    use sops_math::Matrix;

    fn kde(view: &SampleView<'_>, cfg: &KdeConfig) -> f64 {
        KdeWorkspace::default().multi_information(view, cfg)
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
    fn workspace_reuse_across_shapes_matches_fresh() {
        let mut ws = KdeWorkspace::default();
        for (blocks, rows, seed) in [(2usize, 300usize, 1u64), (4, 150, 2), (3, 220, 3)] {
            let data = sample_gaussian(&equicorrelated_cov(blocks, 0.4), rows, seed);
            let sizes = vec![1usize; blocks];
            let view = SampleView::new(&data, rows, &sizes);
            let reused = ws.multi_information(&view, &KdeConfig::default());
            let fresh = KdeWorkspace::default().multi_information(&view, &KdeConfig::default());
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
