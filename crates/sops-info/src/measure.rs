//! The unified measurement engine: one trait, one workspace, every
//! estimator.
//!
//! [`MeasureWorkspace`] is the crate's only public engine. Every
//! estimate this crate makes runs through it:
//!
//! * [`Estimator`] — the two-phase `prepare(view)` / `estimate()` trait
//!   every multi-information estimator implements. `prepare` binds a
//!   sample view (copying it into owned scratch and building whatever
//!   per-view indexes the method needs); `estimate` runs on the prepared
//!   state. Adding an estimator to the workspace means implementing this
//!   one trait.
//! * [`MeasureConfig`] — the closed set of estimator selections the
//!   pipeline understands (KSG, KDE, shrinkage binning, discrete plug-in,
//!   Gaussian, and a strided form of each continuous family), carrying
//!   each method's own config.
//! * [`MeasureWorkspace`] — owns one persistent engine per estimator
//!   family plus the Frenzel–Pompe CMI engine.
//!   [`MeasureWorkspace::estimator_mut`] is the one dispatch table from a
//!   [`MeasureConfig`] to an engine (it hands out `&mut dyn Estimator`);
//!   [`MeasureWorkspace::pairwise_mi_matrix`],
//!   [`MeasureWorkspace::decompose`] and
//!   [`MeasureWorkspace::conditional_mutual_information`] (transfer
//!   entropy included) reach the KSG and CMI engines for the analyses
//!   that are not a single multi-information. The pipeline's evaluation
//!   workers hold one workspace each (`sops_par::parallel_map_with`), so
//!   every estimator family enjoys scratch reuse across the time steps a
//!   worker claims.
//!
//! Every engine keeps two contracts: results **bit-identical for any
//! worker count** and to the respective pre-workspace reference (frozen
//! in `crates/sops-info/tests/workspace_info.rs` and
//! `crates/sops-info/tests/workspace_measure.rs`), and zero steady-state
//! allocations on a bounded workload (capacity tests, same files). The
//! Gaussian baseline is the one exception to the allocation contract: it
//! builds a `d × d` covariance matrix per call (the method is `O(m d²)`
//! with a trivial constant, so the allocation is irrelevant — and
//! excluded from [`MeasureWorkspace::capacity_signature`]).

use crate::binning::{BinnedWorkspace, BinningConfig, SupportModel};
use crate::conditional::{CmiConfig, CmiWorkspace};
use crate::decomposition::{Decomposition, Grouping};
use crate::gaussian::multi_information_gaussian;
use crate::kde::{KdeConfig, KdeWorkspace};
use crate::ksg::KsgConfig;
use crate::workspace::InfoWorkspace;
use crate::SampleView;
use sops_math::PairMatrix;

/// A two-phase multi-information estimator over a [`SampleView`].
///
/// `prepare` binds the view — engines copy the samples into owned scratch
/// (so the trait needs no lifetime parameter) and build per-view indexes;
/// `estimate` evaluates on the prepared state and may be called again
/// without re-preparing (same result). Engines are persistent: buffers
/// grow to the workload on first use and are reused afterwards.
pub trait Estimator {
    /// Binds `view` as the estimation target.
    fn prepare(&mut self, view: &SampleView<'_>);

    /// Multi-information (bits) of the prepared view.
    ///
    /// # Panics
    ///
    /// Panics if no view has been prepared, or on the estimator family's
    /// own invalid-parameter conditions (e.g. `k >= rows` for KSG).
    fn estimate(&mut self) -> f64;

    /// Convenience: `prepare` + `estimate` in one call.
    fn measure(&mut self, view: &SampleView<'_>) -> f64 {
        self.prepare(view);
        self.estimate()
    }
}

/// Which estimator the pipeline's measurement stage runs, with the
/// method's own configuration.
#[derive(Debug, Clone, Copy)]
pub enum MeasureConfig {
    /// Kraskov–Stögbauer–Grassberger k-NN estimator (the paper's method
    /// and the default).
    Ksg(KsgConfig),
    /// Leave-one-out Gaussian-kernel density ratio (§5.3 baseline).
    Kde(KdeConfig),
    /// James–Stein shrinkage binning (§5.3 baseline).
    Binned(BinningConfig),
    /// Maximum-likelihood plug-in over equal-width bin tuples — the
    /// discrete baseline (binning with shrinkage off, observed support).
    DiscretePlugin {
        /// Bins per coordinate.
        bins: usize,
    },
    /// Closed-form Gaussian multi-information of the empirical covariance
    /// — the parametric baseline. Yields `NaN` (not a panic) on steps
    /// whose empirical covariance is singular — fewer ensemble runs than
    /// joint dimensions, or degenerate coordinates.
    Gaussian,
    /// A base family evaluated on a row-subsampled view: only every
    /// `every`-th ensemble sample reaches the estimator. The estimator-side
    /// escape hatch for schedules/ensembles too large for the base cost
    /// (KSG is `O(m log m)` per evaluation but with a heavy constant at
    /// large `m`). `every == 1` is bit-identical to the base family.
    Strided {
        /// The base family to run on the subsampled rows.
        family: StridedFamily,
        /// Row stride: rows `0, every, 2·every, …` are kept. Must be ≥ 1.
        every: usize,
    },
}

/// The base estimator family a [`MeasureConfig::Strided`] selection
/// delegates to after subsampling rows. A mirror of the continuous
/// [`MeasureConfig`] variants (the discrete plug-in is reachable via
/// [`Binned`](StridedFamily::Binned) with [`discrete_plugin_config`]).
#[derive(Debug, Clone, Copy)]
pub enum StridedFamily {
    /// KSG on the subsampled view.
    Ksg(KsgConfig),
    /// KDE on the subsampled view.
    Kde(KdeConfig),
    /// Shrinkage binning on the subsampled view.
    Binned(BinningConfig),
    /// Closed-form Gaussian on the subsampled view.
    Gaussian,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig::Ksg(KsgConfig::default())
    }
}

impl MeasureConfig {
    /// The canonical measure family names, in the order the CLI and the
    /// sweep service advertise them (each is accepted by
    /// [`MeasureConfig::parse`]).
    pub const FAMILIES: [&'static str; 5] = ["ksg", "kde", "binned", "discrete", "gaussian"];

    /// Parses a measure selection by name: a family from
    /// [`MeasureConfig::FAMILIES`], optionally suffixed `@EVERY` for the
    /// strided form (`ksg@4` keeps every 4th ensemble sample; `discrete`
    /// has no strided form). `None` for unknown names or a stride < 1.
    /// Shared by `sops-repro` and `sops-serve` so the two front ends
    /// cannot drift.
    pub fn parse(name: &str) -> Option<MeasureConfig> {
        if let Some((base, every)) = name.split_once('@') {
            let every: usize = every.parse().ok().filter(|&e| e >= 1)?;
            let family = match base {
                "ksg" => StridedFamily::Ksg(KsgConfig::default()),
                "kde" => StridedFamily::Kde(KdeConfig::default()),
                "binned" => StridedFamily::Binned(BinningConfig::default()),
                "gaussian" => StridedFamily::Gaussian,
                _ => return None,
            };
            return Some(MeasureConfig::Strided { family, every });
        }
        Some(match name {
            "ksg" => MeasureConfig::default(),
            "kde" => MeasureConfig::Kde(KdeConfig::default()),
            "binned" => MeasureConfig::Binned(BinningConfig::default()),
            "discrete" => MeasureConfig::DiscretePlugin { bins: 6 },
            "gaussian" => MeasureConfig::Gaussian,
            _ => return None,
        })
    }

    /// The same selection with the worker-thread count overridden where
    /// the method has one (KSG, KDE; the other methods are sequential —
    /// they run in microseconds at ensemble sizes).
    pub fn with_threads(self, threads: usize) -> Self {
        match self {
            MeasureConfig::Ksg(cfg) => MeasureConfig::Ksg(KsgConfig { threads, ..cfg }),
            MeasureConfig::Kde(cfg) => MeasureConfig::Kde(KdeConfig { threads, ..cfg }),
            MeasureConfig::Strided { family, every } => MeasureConfig::Strided {
                family: match family {
                    StridedFamily::Ksg(cfg) => StridedFamily::Ksg(KsgConfig { threads, ..cfg }),
                    StridedFamily::Kde(cfg) => StridedFamily::Kde(KdeConfig { threads, ..cfg }),
                    other => other,
                },
                every,
            },
            other => other,
        }
    }

    /// Short display label (figures, benches).
    pub fn label(&self) -> &'static str {
        match self {
            MeasureConfig::Ksg(_) => "ksg",
            MeasureConfig::Kde(_) => "kde",
            MeasureConfig::Binned(_) => "binned",
            MeasureConfig::DiscretePlugin { .. } => "discrete",
            MeasureConfig::Gaussian => "gaussian",
            MeasureConfig::Strided { family, .. } => match family {
                StridedFamily::Ksg(_) => "strided_ksg",
                StridedFamily::Kde(_) => "strided_kde",
                StridedFamily::Binned(_) => "strided_binned",
                StridedFamily::Gaussian => "strided_gaussian",
            },
        }
    }
}

/// An owned copy of the last prepared view — what lets the two-phase
/// trait avoid a lifetime parameter while staying allocation-free once
/// warm.
#[derive(Debug, Clone, Default)]
struct PreparedView {
    data: Vec<f64>,
    sizes: Vec<usize>,
    rows: usize,
}

impl PreparedView {
    fn set(&mut self, view: &SampleView<'_>) {
        self.data.clear();
        self.data.extend_from_slice(view.data);
        self.sizes.clear();
        self.sizes.extend_from_slice(view.block_sizes);
        self.rows = view.rows;
    }

    fn view(&self) -> SampleView<'_> {
        assert!(self.rows > 0, "Estimator: estimate() before prepare()");
        SampleView::new(&self.data, self.rows, &self.sizes)
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.data.capacity());
        sig.push(self.sizes.capacity());
    }
}

/// [`Estimator`] over the persistent KSG engine ([`InfoWorkspace`]).
#[derive(Debug, Clone, Default)]
struct KsgEstimator {
    /// Estimator parameters (reconfigured freely between calls; the
    /// scratch is shape-keyed, not config-keyed).
    cfg: KsgConfig,
    ws: InfoWorkspace,
    input: PreparedView,
}

impl Estimator for KsgEstimator {
    fn prepare(&mut self, view: &SampleView<'_>) {
        self.input.set(view);
    }

    fn estimate(&mut self) -> f64 {
        self.ws.multi_information(&self.input.view(), &self.cfg)
    }
}

/// [`Estimator`] over the persistent KDE engine ([`KdeWorkspace`]).
#[derive(Debug, Clone, Default)]
struct KdeEstimator {
    cfg: KdeConfig,
    ws: KdeWorkspace,
    input: PreparedView,
}

impl Estimator for KdeEstimator {
    fn prepare(&mut self, view: &SampleView<'_>) {
        self.input.set(view);
    }

    fn estimate(&mut self) -> f64 {
        self.ws.multi_information(&self.input.view(), &self.cfg)
    }
}

/// [`Estimator`] over the persistent binning engine ([`BinnedWorkspace`]).
#[derive(Debug, Clone, Default)]
struct BinnedEstimator {
    cfg: BinningConfig,
    ws: BinnedWorkspace,
    input: PreparedView,
}

impl Estimator for BinnedEstimator {
    fn prepare(&mut self, view: &SampleView<'_>) {
        self.input.set(view);
    }

    fn estimate(&mut self) -> f64 {
        self.ws.multi_information(&self.input.view(), &self.cfg)
    }
}

/// [`Estimator`] over the closed-form Gaussian baseline
/// ([`multi_information_gaussian`]).
#[derive(Debug, Clone, Default)]
struct GaussianEstimator {
    input: PreparedView,
}

impl Estimator for GaussianEstimator {
    fn prepare(&mut self, view: &SampleView<'_>) {
        self.input.set(view);
    }

    fn estimate(&mut self) -> f64 {
        multi_information_gaussian(&self.input.view())
    }
}

/// [`Estimator`] that forwards a row-subsampled copy of the prepared
/// view (rows `0, every, 2·every, …`) to a base family's own persistent
/// engine — the [`MeasureConfig::Strided`] implementation.
///
/// Owns one engine per base family so stride scratch and base scratch
/// both stay warm across calls; `every == 1` forwards the view verbatim
/// and is bit-identical to the plain selection.
#[derive(Debug, Clone)]
struct StridedEstimator {
    /// Row stride (`max(1)` applied at prepare time).
    every: usize,
    /// Base family to run on the subsampled rows.
    family: StridedFamily,
    scratch: Vec<f64>,
    sizes: Vec<usize>,
    ksg: KsgEstimator,
    kde: KdeEstimator,
    binned: BinnedEstimator,
    gaussian: GaussianEstimator,
}

impl Default for StridedEstimator {
    fn default() -> Self {
        StridedEstimator {
            every: 1,
            family: StridedFamily::Ksg(KsgConfig::default()),
            scratch: Vec::new(),
            sizes: Vec::new(),
            ksg: KsgEstimator::default(),
            kde: KdeEstimator::default(),
            binned: BinnedEstimator::default(),
            gaussian: GaussianEstimator::default(),
        }
    }
}

impl StridedEstimator {
    fn inner_mut(&mut self) -> &mut dyn Estimator {
        match self.family {
            StridedFamily::Ksg(cfg) => {
                self.ksg.cfg = cfg;
                &mut self.ksg
            }
            StridedFamily::Kde(cfg) => {
                self.kde.cfg = cfg;
                &mut self.kde
            }
            StridedFamily::Binned(cfg) => {
                self.binned.cfg = cfg;
                &mut self.binned
            }
            StridedFamily::Gaussian => &mut self.gaussian,
        }
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.scratch.capacity());
        sig.push(self.sizes.capacity());
        sig.extend(self.ksg.ws.capacity_signature());
        self.ksg.input.capacity_signature(sig);
        sig.extend(self.kde.ws.capacity_signature());
        self.kde.input.capacity_signature(sig);
        sig.extend(self.binned.ws.capacity_signature());
        self.binned.input.capacity_signature(sig);
        self.gaussian.input.capacity_signature(sig);
    }
}

impl Estimator for StridedEstimator {
    fn prepare(&mut self, view: &SampleView<'_>) {
        let every = self.every.max(1);
        let stride: usize = view.block_sizes.iter().sum();
        self.scratch.clear();
        let mut rows = 0;
        for row in (0..view.rows).step_by(every) {
            self.scratch
                .extend_from_slice(&view.data[row * stride..(row + 1) * stride]);
            rows += 1;
        }
        self.sizes.clear();
        self.sizes.extend_from_slice(view.block_sizes);
        let strided = SampleView::new(&self.scratch, rows, &self.sizes);
        match self.family {
            StridedFamily::Ksg(cfg) => {
                self.ksg.cfg = cfg;
                self.ksg.prepare(&strided);
            }
            StridedFamily::Kde(cfg) => {
                self.kde.cfg = cfg;
                self.kde.prepare(&strided);
            }
            StridedFamily::Binned(cfg) => {
                self.binned.cfg = cfg;
                self.binned.prepare(&strided);
            }
            StridedFamily::Gaussian => self.gaussian.prepare(&strided),
        }
    }

    fn estimate(&mut self) -> f64 {
        self.inner_mut().estimate()
    }
}

/// The binning parameters [`MeasureConfig::DiscretePlugin`] maps to: the
/// ML plug-in over observed bin tuples (no shrinkage), which equals the
/// plug-in discrete multi-information of the binned data.
pub fn discrete_plugin_config(bins: usize) -> BinningConfig {
    BinningConfig {
        bins,
        shrinkage: false,
        marginal_support: SupportModel::Observed,
        joint_support: SupportModel::Observed,
    }
}

/// One persistent engine per estimator family, behind one polymorphic
/// surface — the crate's only public engine.
///
/// Long-running callers (the pipeline's evaluation workers, parameter
/// sweeps, the `estimator_shootout` example) hold one workspace and
/// drive any sequence of estimator selections through it:
///
/// ```
/// use sops_info::measure::{MeasureConfig, MeasureWorkspace};
/// use sops_info::gaussian::{equicorrelated_cov, sample_gaussian};
/// use sops_info::SampleView;
///
/// let data = sample_gaussian(&equicorrelated_cov(2, 0.8), 500, 7);
/// let view = SampleView::new(&data, 500, &[1, 1]);
/// let mut ws = MeasureWorkspace::new();
/// for cfg in [MeasureConfig::default(), MeasureConfig::Gaussian] {
///     let est = ws.estimator_mut(&cfg);
///     est.prepare(&view);
///     assert!((est.estimate() - 0.74).abs() < 0.3);
/// }
/// ```
///
/// A one-off estimate is
/// `MeasureWorkspace::new().estimator_mut(&cfg).measure(&view)`; it pays
/// for cold scratch on every call.
#[derive(Debug, Clone, Default)]
pub struct MeasureWorkspace {
    ksg: KsgEstimator,
    kde: KdeEstimator,
    binned: BinnedEstimator,
    gaussian: GaussianEstimator,
    strided: StridedEstimator,
    cmi: CmiWorkspace,
}

impl MeasureWorkspace {
    /// An empty workspace; every engine's buffers grow to the workload
    /// size on first use and are reused afterwards.
    pub fn new() -> Self {
        MeasureWorkspace::default()
    }

    /// The engine `cfg` selects, with the engine's parameters set from
    /// `cfg`, as a trait object — the one dispatch table from a
    /// [`MeasureConfig`] to an engine. `DiscretePlugin` runs on the
    /// binning engine under [`discrete_plugin_config`].
    pub fn estimator_mut(&mut self, cfg: &MeasureConfig) -> &mut dyn Estimator {
        match *cfg {
            MeasureConfig::Ksg(c) => {
                self.ksg.cfg = c;
                &mut self.ksg
            }
            MeasureConfig::Kde(c) => {
                self.kde.cfg = c;
                &mut self.kde
            }
            MeasureConfig::Binned(c) => {
                self.binned.cfg = c;
                &mut self.binned
            }
            MeasureConfig::DiscretePlugin { bins } => {
                self.binned.cfg = discrete_plugin_config(bins);
                &mut self.binned
            }
            MeasureConfig::Gaussian => &mut self.gaussian,
            MeasureConfig::Strided { family, every } => {
                self.strided.family = family;
                self.strided.every = every;
                &mut self.strided
            }
        }
    }

    /// Pairwise KSG mutual-information matrix between all observer blocks
    /// of `view`: entry `(i, j)` is `I(Wᵢ; Wⱼ)` in bits, diagonal 0,
    /// returned as a flat symmetric [`PairMatrix`].
    ///
    /// §7.3 points at interaction-structure analyses (Kahle et al.); the
    /// pairwise matrix is their first-order ingredient and a useful
    /// diagnostic of *where* in the collective the correlation sits. Runs
    /// on the owned KSG engine: per-block count indexes are built once and
    /// shared by every pair, and pairs run in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.k == 0` or `cfg.k >= view.rows` (with two or more
    /// blocks).
    pub fn pairwise_mi_matrix(&mut self, view: &SampleView<'_>, cfg: &KsgConfig) -> PairMatrix {
        self.ksg.ws.pairwise_mi_matrix(view, cfg)
    }

    /// Every term of the Eq. 5 decomposition of `view` under `grouping`
    /// (see [`crate::decomposition`]), estimated with the KSG estimator.
    /// The total and every within-group term share the owned KSG engine's
    /// per-block count indexes.
    ///
    /// # Panics
    ///
    /// Panics if `grouping` does not partition the blocks of `view`, or if
    /// `cfg.k == 0` or `cfg.k >= view.rows`.
    pub fn decompose(
        &mut self,
        view: &SampleView<'_>,
        grouping: &Grouping,
        cfg: &KsgConfig,
    ) -> Decomposition {
        self.ksg.ws.decompose(view, grouping, cfg)
    }

    /// Frenzel–Pompe `I(X;Y|Z)` (bits) from `rows` joint samples (see
    /// [`crate::CmiConfig`]); `x`, `y`, `z` are row-major `rows × dim`
    /// matrices with `dims = (dim_x, dim_y, dim_z)`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes, `k = 0`, or `k >= rows`.
    pub fn conditional_mutual_information(
        &mut self,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        rows: usize,
        dims: (usize, usize, usize),
        cfg: &CmiConfig,
    ) -> f64 {
        self.cmi
            .conditional_mutual_information(x, y, z, rows, dims, cfg)
    }

    /// Capacities of every internal buffer of the allocation-free engines
    /// (KSG, KDE, binning/discrete, CMI) — constant for a warmed-up
    /// workspace driving a bounded workload, the contract enforced by
    /// `crates/sops-info/tests/workspace_measure.rs`. The Gaussian
    /// baseline's per-call `d × d` covariance is documented out of the
    /// contract (module docs).
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = self.ksg.ws.capacity_signature();
        self.ksg.input.capacity_signature(&mut sig);
        sig.extend(self.kde.ws.capacity_signature());
        self.kde.input.capacity_signature(&mut sig);
        sig.extend(self.binned.ws.capacity_signature());
        self.binned.input.capacity_signature(&mut sig);
        self.gaussian.input.capacity_signature(&mut sig);
        self.strided.capacity_signature(&mut sig);
        sig.extend(self.cmi.capacity_signature());
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{bivariate_gaussian_mi, equicorrelated_cov, sample_gaussian};

    fn measure(ws: &mut MeasureWorkspace, view: &SampleView<'_>, cfg: &MeasureConfig) -> f64 {
        ws.estimator_mut(cfg).measure(view)
    }

    #[test]
    fn every_selection_tracks_gaussian_truth() {
        let rho = 0.8;
        let truth = bivariate_gaussian_mi(rho);
        let data = sample_gaussian(&equicorrelated_cov(2, rho), 1200, 7);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 1200, &sizes);
        let mut ws = MeasureWorkspace::new();
        let selections = [
            MeasureConfig::Ksg(KsgConfig::default()),
            MeasureConfig::Kde(KdeConfig::default()),
            MeasureConfig::Binned(BinningConfig::default()),
            MeasureConfig::DiscretePlugin { bins: 8 },
            MeasureConfig::Gaussian,
        ];
        for cfg in selections {
            let est = measure(&mut ws, &view, &cfg);
            assert!(
                (est - truth).abs() < 0.4,
                "{}: est {est} vs truth {truth}",
                cfg.label()
            );
        }
    }

    #[test]
    fn trait_dispatch_matches_direct_engines() {
        let data = sample_gaussian(&equicorrelated_cov(3, 0.5), 400, 3);
        let sizes = [1usize, 1, 1];
        let view = SampleView::new(&data, 400, &sizes);
        let mut ws = MeasureWorkspace::new();

        let via_trait = measure(&mut ws, &view, &MeasureConfig::default());
        let direct = InfoWorkspace::new().multi_information(&view, &KsgConfig::default());
        assert_eq!(via_trait.to_bits(), direct.to_bits());

        let kde_cfg = KdeConfig::default();
        let via_trait = measure(&mut ws, &view, &MeasureConfig::Kde(kde_cfg));
        let direct = KdeWorkspace::default().multi_information(&view, &kde_cfg);
        assert_eq!(via_trait.to_bits(), direct.to_bits());

        let bin_cfg = BinningConfig::default();
        let via_trait = measure(&mut ws, &view, &MeasureConfig::Binned(bin_cfg));
        let direct = BinnedWorkspace::default().multi_information(&view, &bin_cfg);
        assert_eq!(via_trait.to_bits(), direct.to_bits());
    }

    #[test]
    fn estimate_is_repeatable_without_reprepare() {
        let data = sample_gaussian(&equicorrelated_cov(2, 0.6), 300, 5);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 300, &sizes);
        let mut ws = MeasureWorkspace::new();
        let est = ws.estimator_mut(&MeasureConfig::default());
        est.prepare(&view);
        let a = est.estimate();
        let b = est.estimate();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn discrete_plugin_equals_shrinkage_free_binning() {
        let data = sample_gaussian(&equicorrelated_cov(2, 0.7), 500, 9);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 500, &sizes);
        let mut ws = MeasureWorkspace::new();
        let plugin = measure(&mut ws, &view, &MeasureConfig::DiscretePlugin { bins: 6 });
        let binned = measure(
            &mut ws,
            &view,
            &MeasureConfig::Binned(discrete_plugin_config(6)),
        );
        assert_eq!(plugin.to_bits(), binned.to_bits());
    }

    #[test]
    fn with_threads_overrides_parallel_methods_only() {
        let cfg = MeasureConfig::Ksg(KsgConfig::default()).with_threads(3);
        assert!(matches!(
            cfg,
            MeasureConfig::Ksg(KsgConfig { threads: 3, .. })
        ));
        let cfg = MeasureConfig::Kde(KdeConfig::default()).with_threads(2);
        assert!(matches!(
            cfg,
            MeasureConfig::Kde(KdeConfig { threads: 2, .. })
        ));
        assert!(matches!(
            MeasureConfig::Gaussian.with_threads(5),
            MeasureConfig::Gaussian
        ));
    }

    #[test]
    #[should_panic(expected = "before prepare")]
    fn estimate_before_prepare_panics() {
        MeasureWorkspace::new()
            .estimator_mut(&MeasureConfig::default())
            .estimate();
    }

    #[test]
    fn stride_one_is_bit_identical_to_the_base_family() {
        let data = sample_gaussian(&equicorrelated_cov(3, 0.6), 600, 11);
        let sizes = [1usize, 1, 1];
        let view = SampleView::new(&data, 600, &sizes);
        let mut ws = MeasureWorkspace::new();
        let cases = [
            (
                MeasureConfig::Ksg(KsgConfig::default()),
                StridedFamily::Ksg(KsgConfig::default()),
            ),
            (
                MeasureConfig::Kde(KdeConfig::default()),
                StridedFamily::Kde(KdeConfig::default()),
            ),
            (
                MeasureConfig::Binned(BinningConfig::default()),
                StridedFamily::Binned(BinningConfig::default()),
            ),
            (MeasureConfig::Gaussian, StridedFamily::Gaussian),
        ];
        for (base, family) in cases {
            let plain = measure(&mut ws, &view, &base);
            let strided = measure(&mut ws, &view, &MeasureConfig::Strided { family, every: 1 });
            assert_eq!(
                plain.to_bits(),
                strided.to_bits(),
                "stride 1 must be bit-identical for {}",
                base.label()
            );
        }
    }

    #[test]
    fn strided_equals_the_base_family_on_a_manually_subsampled_view() {
        let every = 3;
        let data = sample_gaussian(&equicorrelated_cov(2, 0.7), 500, 13);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 500, &sizes);
        let manual: Vec<f64> = (0..500)
            .step_by(every)
            .flat_map(|r| data[r * 2..(r + 1) * 2].to_vec())
            .collect();
        let manual_view = SampleView::new(&manual, manual.len() / 2, &sizes);
        let mut ws = MeasureWorkspace::new();
        let strided = measure(
            &mut ws,
            &view,
            &MeasureConfig::Strided {
                family: StridedFamily::Ksg(KsgConfig::default()),
                every,
            },
        );
        let reference = measure(&mut ws, &manual_view, &MeasureConfig::default());
        assert_eq!(strided.to_bits(), reference.to_bits());
    }

    #[test]
    fn parse_covers_every_family_and_rejects_junk() {
        for name in MeasureConfig::FAMILIES {
            let cfg = MeasureConfig::parse(name).unwrap();
            assert_eq!(cfg.label(), name, "family name round-trips as its label");
        }
        assert!(matches!(
            MeasureConfig::parse("ksg@4"),
            Some(MeasureConfig::Strided {
                family: StridedFamily::Ksg(_),
                every: 4,
            })
        ));
        assert!(matches!(
            MeasureConfig::parse("gaussian@2"),
            Some(MeasureConfig::Strided {
                family: StridedFamily::Gaussian,
                every: 2,
            })
        ));
        assert!(MeasureConfig::parse("ksg@0").is_none(), "stride 0 rejected");
        assert!(MeasureConfig::parse("ksg@").is_none());
        assert!(MeasureConfig::parse("discrete@2").is_none());
        assert!(MeasureConfig::parse("bogus").is_none());
        assert!(MeasureConfig::parse("bogus@3").is_none());
    }

    #[test]
    fn strided_labels_and_thread_override() {
        let cfg = MeasureConfig::Strided {
            family: StridedFamily::Kde(KdeConfig::default()),
            every: 4,
        };
        assert_eq!(cfg.label(), "strided_kde");
        assert!(matches!(
            cfg.with_threads(6),
            MeasureConfig::Strided {
                family: StridedFamily::Kde(KdeConfig { threads: 6, .. }),
                every: 4,
            }
        ));
        assert_eq!(
            MeasureConfig::Strided {
                family: StridedFamily::Gaussian,
                every: 2,
            }
            .label(),
            "strided_gaussian"
        );
    }
}
