//! Shrinkage (James–Stein) binning multi-information — the second
//! baseline of §5.3, reported to "overestimate the multi-information in
//! higher dimension due to the sparse sampling, so much that almost no
//! change in information could be seen".
//!
//! Each coordinate is discretized into `bins` equal-width bins over its
//! sample range; entropies are computed from the binned histograms with
//! the Hausser–Strimmer James–Stein shrinkage toward the uniform
//! distribution, and combined as `Î = Σ_b Ĥ_b − Ĥ_joint`.
//!
//! For the *joint* histogram in high dimension the full product alphabet
//! `B^d` is astronomically larger than the sample count; shrinking toward
//! the uniform over it drives the shrinkage intensity to 1 and the
//! estimate degenerates to `log B^d`. The estimator therefore supports two
//! support models: [`SupportModel::Full`] (exact Hausser–Strimmer,
//! sensible for the low-dimensional marginals) and
//! [`SupportModel::Observed`] (alphabet = observed cells), the practical
//! choice for the sparse joint — which caps `Ĥ_joint` near `log m` and
//! reproduces exactly the overestimation-and-saturation the paper
//! describes (see the `estimator_shootout` example and `estimators`
//! bench).
//!
//! The estimate runs through [`crate::MeasureWorkspace`]
//! ([`crate::MeasureConfig::Binned`]). Its engine builds histograms
//! without hashing — a dense count array when the cell space is
//! small (every marginal at realistic widths), an index sort otherwise —
//! and every buffer is reused across calls. Counts are emitted in
//! **canonical (lexicographic bin-tuple) order**, making the estimate a
//! pure function of the data; the historical `HashMap` implementation
//! summed the same counts in a randomized iteration order, so its output
//! jittered at the last ulp across *runs of the same binary*.

use crate::SampleView;

/// How large the alphabet behind a histogram is assumed to be.
///
/// # Edge-case semantics (see [`shrink_entropy`])
///
/// * [`SupportModel::Full`] with many dimensions can overflow `f64`
///   (`bins^dims = ∞`); the shrunk entropy then diverges and is reported
///   as `+∞` — the honest limit of spreading shrinkage mass over an
///   unbounded alphabet.
/// * [`SupportModel::Observed`] always yields a finite alphabet (the
///   non-empty cells), so it is the safe choice for sparse joints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupportModel {
    /// The full product alphabet `bins^dims`.
    Full,
    /// Only the observed cells.
    Observed,
}

/// Binning estimator configuration.
#[derive(Debug, Clone, Copy)]
pub struct BinningConfig {
    /// Bins per coordinate.
    pub bins: usize,
    /// Apply James–Stein shrinkage (false = maximum-likelihood plug-in).
    pub shrinkage: bool,
    /// Support model for the marginal (per-block) histograms.
    pub marginal_support: SupportModel,
    /// Support model for the joint histogram.
    pub joint_support: SupportModel,
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig {
            bins: 8,
            shrinkage: true,
            marginal_support: SupportModel::Full,
            joint_support: SupportModel::Observed,
        }
    }
}

/// Entropy (bits) of a count histogram under James–Stein shrinkage toward
/// the uniform distribution over an alphabet of `alphabet` cells.
///
/// With `shrinkage = false` this reduces to the ML plug-in entropy.
///
/// # Degenerate inputs
///
/// * An empty or all-zero `counts` slice yields `0.0`.
/// * Zero entries in `counts` are treated exactly like unobserved
///   alphabet cells (they carry `p̂ = 0`), so `[3, 0, 5]` and `[3, 5]`
///   give identical results for the same `alphabet`.
/// * `alphabet` is clamped up to the number of *non-zero* cells — an
///   alphabet smaller than the observed support is inconsistent (the
///   historical implementation produced garbage there in release builds).
/// * A non-finite `alphabet` (e.g. [`SupportModel::Full`] overflowing
///   `bins^dims`) yields `+∞` unless the histogram is a point mass
///   (shrinkage intensity 0): the James–Stein mass `λ` spread over an
///   unbounded alphabet has unbounded entropy. The historical code
///   returned `NaN` here.
/// * `m = 1` (a single observation) falls back to the ML plug-in, whose
///   entropy is 0 — the shrinkage intensity `λ*` divides by `m − 1`.
pub fn shrink_entropy(counts: &[u64], alphabet: f64, shrinkage: bool) -> f64 {
    let m: u64 = counts.iter().sum();
    if m == 0 {
        return 0.0;
    }
    let m_f = m as f64;
    if !shrinkage || m <= 1 {
        return crate::discrete::entropy_from_counts(counts);
    }
    let observed = counts.iter().filter(|&&c| c > 0).count() as f64;
    let alphabet = alphabet.max(observed);
    // Shrinkage intensity λ* (Hausser & Strimmer 2009, Eq. 5):
    // λ = (1 − Σ p̂²) / ((m−1) Σ (t − p̂)²), clipped to [0, 1].
    let mut sum_p_sq = 0.0;
    for &c in counts {
        let p = c as f64 / m_f;
        sum_p_sq += p * p;
    }
    if !alphabet.is_finite() {
        // t → 0: λ* → (1 − Σp̂²)/((m−1) Σp̂²). Unless the distribution is
        // a point mass (λ* = 0), shrinkage mass λ spread over an infinite
        // alphabet carries infinite entropy.
        return if sum_p_sq >= 1.0 {
            crate::discrete::entropy_from_counts(counts)
        } else {
            f64::INFINITY
        };
    }
    let t = 1.0 / alphabet;
    let mut sum_dev_sq = 0.0;
    for &c in counts {
        if c == 0 {
            continue; // zero cells join the unobserved bulk term below
        }
        let p = c as f64 / m_f;
        sum_dev_sq += (t - p) * (t - p);
    }
    sum_dev_sq += (alphabet - observed) * t * t; // unobserved cells (p̂ = 0)
    let lambda = if sum_dev_sq <= 0.0 {
        1.0
    } else {
        ((1.0 - sum_p_sq) / ((m_f - 1.0) * sum_dev_sq)).clamp(0.0, 1.0)
    };
    // Entropy of the shrunk distribution p = λ t + (1 − λ) p̂.
    let mut h = 0.0;
    for &c in counts {
        if c == 0 {
            continue;
        }
        let p = lambda * t + (1.0 - lambda) * c as f64 / m_f;
        if p > 0.0 {
            h -= p * p.log2();
        }
    }
    let unobserved = alphabet - observed;
    if unobserved > 0.0 && lambda > 0.0 {
        let q = lambda * t;
        h -= unobserved * q * q.log2();
    }
    h
}

/// Histogram cell spaces at most this large take the dense-count path;
/// larger spaces (sparse joints) take the index sort. Both emit counts in
/// the same canonical lexicographic order.
const DENSE_HISTOGRAM_MAX_CELLS: usize = 4096;

/// Persistent buffers for the shrinkage-binning estimator — the
/// binning-side sibling of [`crate::workspace::InfoWorkspace`]. A
/// warmed-up workspace allocates nothing per call (enforced by
/// `crates/sops-info/tests/workspace_measure.rs`).
#[derive(Debug, Clone, Default)]
pub(crate) struct BinnedWorkspace {
    /// Per-coordinate sample range.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Discretized samples (`rows × stride` bin indices).
    binned: Vec<u16>,
    /// Row-index sort buffer (sparse histogram path).
    perm: Vec<u32>,
    /// Dense cell counts (dense histogram path).
    dense: Vec<u64>,
    /// Emitted non-zero counts, canonical (lexicographic cell) order.
    counts: Vec<u64>,
}

impl BinnedWorkspace {
    /// Estimates the multi-information (bits) between the observer blocks
    /// of `view` with the shrinkage binning estimator — the engine behind
    /// [`crate::MeasureConfig::Binned`] in [`crate::MeasureWorkspace`],
    /// allocation-free once warm.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.bins < 2` or `cfg.bins > 65536` (bin indices are
    /// `u16`).
    pub(crate) fn multi_information(&mut self, view: &SampleView<'_>, cfg: &BinningConfig) -> f64 {
        assert!(cfg.bins >= 2, "binning: need at least 2 bins");
        assert!(cfg.bins <= 1 << 16, "binning: bins exceed u16 indices");
        if view.blocks() < 2 {
            return 0.0;
        }
        let stride = view.stride();
        self.discretize(view, cfg.bins);

        let alphabet = |dims: usize, support: SupportModel, observed: usize| -> f64 {
            match support {
                SupportModel::Full => (cfg.bins as f64).powi(dims as i32),
                SupportModel::Observed => observed as f64,
            }
        };

        let mut sum_marginals = 0.0;
        let mut off = 0;
        for &b in view.block_sizes {
            self.histogram(view.rows, stride, off, off + b, cfg.bins);
            let a = alphabet(b, cfg.marginal_support, self.counts.len());
            sum_marginals += shrink_entropy(&self.counts, a, cfg.shrinkage);
            off += b;
        }
        self.histogram(view.rows, stride, 0, stride, cfg.bins);
        let a = alphabet(stride, cfg.joint_support, self.counts.len());
        let joint = shrink_entropy(&self.counts, a, cfg.shrinkage);
        sum_marginals - joint
    }

    /// Discretizes every coordinate of `view` into `bins` equal-width bins
    /// over its own range, into `self.binned`.
    fn discretize(&mut self, view: &SampleView<'_>, bins: usize) {
        let d = view.stride();
        self.lo.clear();
        self.lo.resize(d, f64::INFINITY);
        self.hi.clear();
        self.hi.resize(d, f64::NEG_INFINITY);
        for r in 0..view.rows {
            for (c, &v) in view.row(r).iter().enumerate() {
                self.lo[c] = self.lo[c].min(v);
                self.hi[c] = self.hi[c].max(v);
            }
        }
        self.binned.clear();
        for r in 0..view.rows {
            for (c, &v) in view.row(r).iter().enumerate() {
                let width = self.hi[c] - self.lo[c];
                let idx = if width <= 0.0 {
                    0
                } else {
                    (((v - self.lo[c]) / width * bins as f64) as usize).min(bins - 1)
                };
                self.binned.push(idx as u16);
            }
        }
    }

    /// Histogram of the bin tuples restricted to columns `[start, end)`,
    /// into `self.counts` (non-zero counts, canonical lexicographic cell
    /// order). Dense counting when the cell space is small, index sort +
    /// run-length otherwise — both orders coincide.
    fn histogram(&mut self, rows: usize, stride: usize, start: usize, end: usize, bins: usize) {
        let dims = end - start;
        self.counts.clear();
        let mut cells: usize = 1;
        for _ in 0..dims {
            cells = cells.saturating_mul(bins);
        }
        if cells <= DENSE_HISTOGRAM_MAX_CELLS {
            self.dense.clear();
            self.dense.resize(cells, 0);
            for r in 0..rows {
                let key = &self.binned[r * stride + start..r * stride + end];
                let mut idx = 0usize;
                for &b in key {
                    idx = idx * bins + b as usize;
                }
                self.dense[idx] += 1;
            }
            self.counts
                .extend(self.dense.iter().copied().filter(|&c| c > 0));
        } else {
            let binned = &self.binned;
            let key = |r: u32| {
                let r = r as usize;
                &binned[r * stride + start..r * stride + end]
            };
            self.perm.clear();
            self.perm.extend(0..rows as u32);
            self.perm.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
            let mut run_start = 0usize;
            for i in 1..=rows {
                if i == rows || key(self.perm[i]) != key(self.perm[run_start]) {
                    self.counts.push((i - run_start) as u64);
                    run_start = i;
                }
            }
        }
    }

    /// Capacities of every internal buffer — constant for a warmed-up
    /// workspace (the zero-allocation contract).
    pub(crate) fn capacity_signature(&self) -> Vec<usize> {
        vec![
            self.lo.capacity(),
            self.hi.capacity(),
            self.binned.capacity(),
            self.perm.capacity(),
            self.dense.capacity(),
            self.counts.capacity(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{bivariate_gaussian_mi, equicorrelated_cov, sample_gaussian};
    use crate::workspace::InfoWorkspace;
    use crate::KsgConfig;
    use sops_math::Matrix;

    fn binned_mi(view: &SampleView<'_>, cfg: &BinningConfig) -> f64 {
        BinnedWorkspace::default().multi_information(view, cfg)
    }

    #[test]
    fn shrink_entropy_uniform_counts() {
        // Uniform observed over full alphabet: exactly log2(K) with or
        // without shrinkage.
        let h = shrink_entropy(&[10, 10, 10, 10], 4.0, true);
        assert!((h - 2.0).abs() < 1e-12);
        let h_ml = shrink_entropy(&[10, 10, 10, 10], 4.0, false);
        assert!((h_ml - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shrinkage_pulls_toward_uniform() {
        // Skewed counts over a 4-cell alphabet: shrunk entropy must lie
        // between ML entropy and log2(4).
        let counts = [97u64, 1, 1, 1];
        let ml = shrink_entropy(&counts, 4.0, false);
        let js = shrink_entropy(&counts, 4.0, true);
        assert!(js > ml);
        assert!(js < 2.0);
    }

    #[test]
    fn sparse_counts_with_huge_alphabet_saturate() {
        // All singletons, alphabet enormous: lambda -> 1 and entropy ->
        // log2(alphabet). This is the degeneracy that motivates
        // SupportModel::Observed for the joint.
        let counts = vec![1u64; 100];
        let h = shrink_entropy(&counts, 1e12, true);
        assert!(h > 30.0, "entropy {h} should approach log2(1e12) ≈ 39.9");
    }

    #[test]
    fn shrink_entropy_empty_and_all_zero_slices() {
        assert_eq!(shrink_entropy(&[], 8.0, true), 0.0);
        assert_eq!(shrink_entropy(&[], 8.0, false), 0.0);
        assert_eq!(shrink_entropy(&[0, 0, 0], 8.0, true), 0.0);
    }

    #[test]
    fn shrink_entropy_zero_cells_equal_unobserved_cells() {
        // [3, 0, 5] over alphabet 4 must equal [3, 5] over alphabet 4:
        // an explicit zero cell is the same thing as an unobserved cell.
        for shrinkage in [true, false] {
            let padded = shrink_entropy(&[3, 0, 5], 4.0, shrinkage);
            let compact = shrink_entropy(&[3, 5], 4.0, shrinkage);
            assert_eq!(padded.to_bits(), compact.to_bits(), "shrinkage={shrinkage}");
        }
    }

    #[test]
    fn shrink_entropy_clamps_undersized_alphabet() {
        // An alphabet below the observed support is inconsistent; it is
        // clamped up to the observed cell count.
        let clamped = shrink_entropy(&[1, 1, 1], 2.0, true);
        let exact = shrink_entropy(&[1, 1, 1], 3.0, true);
        assert_eq!(clamped.to_bits(), exact.to_bits());
    }

    #[test]
    fn shrink_entropy_single_observation_is_ml_plugin() {
        // m = 1: λ* divides by m − 1; falls back to plug-in (entropy 0).
        assert_eq!(shrink_entropy(&[1], 8.0, true), 0.0);
        assert_eq!(shrink_entropy(&[0, 1, 0], 1e6, true), 0.0);
    }

    #[test]
    fn shrink_entropy_infinite_alphabet_diverges_unless_point_mass() {
        // Full support overflowing f64 (bins^dims = ∞): the shrunk
        // entropy diverges — the honest limit, where the historical code
        // returned NaN.
        assert_eq!(shrink_entropy(&[5, 5], f64::INFINITY, true), f64::INFINITY);
        // A point mass has shrinkage intensity 0: stays the ML entropy.
        assert_eq!(shrink_entropy(&[7], f64::INFINITY, true), 0.0);
        // And the estimator surfaces it without NaN: 400 samples of 400
        // dims under Full joint support.
        let rows = 16;
        let d = 400; // 8^400 overflows f64
        let mut rng = sops_math::SplitMix64::new(5);
        let data: Vec<f64> = (0..rows * d).map(|_| rng.next_range(0.0, 1.0)).collect();
        let sizes = vec![1usize; d];
        let view = SampleView::new(&data, rows, &sizes);
        let cfg = BinningConfig {
            joint_support: SupportModel::Full,
            ..BinningConfig::default()
        };
        let est = binned_mi(&view, &cfg);
        assert!(est == f64::NEG_INFINITY, "Ĥ_joint = ∞ ⇒ Î = −∞, got {est}");
    }

    #[test]
    fn low_dim_gaussian_mi_roughly_recovered() {
        let rho = 0.8;
        let data = sample_gaussian(&equicorrelated_cov(2, rho), 2000, 3);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 2000, &sizes);
        let est = binned_mi(&view, &BinningConfig::default());
        let truth = bivariate_gaussian_mi(rho);
        // Binning is coarse; accept a generous band but demand the signal.
        assert!(
            (est - truth).abs() < 0.35,
            "binned est {est} vs truth {truth}"
        );
    }

    #[test]
    fn independent_low_dim_is_small() {
        let data = sample_gaussian(&Matrix::identity(2), 2000, 7);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 2000, &sizes);
        let est = binned_mi(&view, &BinningConfig::default());
        assert!(est.abs() < 0.15, "independent: {est}");
    }

    #[test]
    fn overestimates_in_high_dimension() {
        // The paper's §5.3 observation: 10 independent scalar observers,
        // 300 samples. KSG stays near 0; the binning estimate explodes
        // because every joint cell is a singleton.
        let d = 10;
        let m = 300;
        let data = sample_gaussian(&Matrix::identity(d), m, 13);
        let sizes = vec![1usize; d];
        let view = SampleView::new(&data, m, &sizes);
        let binned = binned_mi(&view, &BinningConfig::default());
        let ksg = InfoWorkspace::new().multi_information(&view, &KsgConfig::default());
        assert!(
            binned > ksg + 5.0,
            "binned {binned} should vastly exceed KSG {ksg} in high-d"
        );
        // And it saturates: joint entropy is pinned near log2(m), so the
        // estimate is insensitive to actual coupling ("almost no change in
        // information could be seen").
        let coupled = sample_gaussian(&equicorrelated_cov(d, 0.5), m, 14);
        let view_c = SampleView::new(&coupled, m, &sizes);
        let binned_c = binned_mi(&view_c, &BinningConfig::default());
        assert!(
            (binned_c - binned).abs() < 0.15 * binned,
            "saturation: {binned} (indep) vs {binned_c} (coupled) should be close"
        );
    }

    #[test]
    fn ml_plugin_matches_discrete_reference() {
        // With shrinkage off and observed support, the estimator reduces
        // to the plug-in discrete multi-information of the bin tuples.
        let mut rng = sops_math::SplitMix64::new(21);
        let m = 400;
        let mut data = Vec::with_capacity(m * 2);
        for _ in 0..m {
            let x = rng.next_range(0.0, 1.0);
            data.push(x);
            data.push(x + rng.next_range(0.0, 0.2));
        }
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, m, &sizes);
        let cfg = BinningConfig {
            shrinkage: false,
            ..BinningConfig::default()
        };
        let est = binned_mi(&view, &cfg);

        let mut ws = BinnedWorkspace::default();
        ws.discretize(&view, cfg.bins);
        let tuples: Vec<Vec<u32>> = (0..m)
            .map(|r| vec![ws.binned[2 * r] as u32, ws.binned[2 * r + 1] as u32])
            .collect();
        let reference = crate::discrete::multi_information_from_tuples(&tuples);
        assert!((est - reference).abs() < 1e-9, "{est} vs {reference}");
    }

    #[test]
    fn histogram_paths_bit_reproducible_across_calls() {
        // bins = 64 keeps the joint space dense (64² = 4096 cells);
        // bins = 65 pushes it onto the sort path (4225 cells). Each path
        // must be a pure function of the data — bit-equal across repeat
        // calls on a reused workspace (the HashMap implementation this
        // replaced was not, across runs). Cross-path *agreement* on the
        // canonical count order is pinned against the frozen reference in
        // tests/workspace_measure.rs (`binned_bit_identical_across_bin_counts`,
        // which covers bins 8 / dense and 65 / sort).
        let m = 500;
        let mut rng = sops_math::SplitMix64::new(33);
        let data: Vec<f64> = (0..m * 2).map(|_| rng.next_range(0.0, 1.0)).collect();
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, m, &sizes);
        for bins in [64usize, 65] {
            let cfg = BinningConfig {
                bins,
                ..BinningConfig::default()
            };
            let mut ws = BinnedWorkspace::default();
            let a = ws.multi_information(&view, &cfg);
            let b = ws.multi_information(&view, &cfg);
            assert_eq!(a.to_bits(), b.to_bits(), "bins={bins}");
            assert!(a.is_finite());
        }
    }

    #[test]
    fn constant_column_handled() {
        let mut data = Vec::new();
        let mut rng = sops_math::SplitMix64::new(2);
        for _ in 0..100 {
            data.push(rng.next_range(0.0, 1.0));
            data.push(5.0);
        }
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 100, &sizes);
        let est = binned_mi(&view, &BinningConfig::default());
        assert!(est.is_finite());
    }
}
