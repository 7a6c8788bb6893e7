//! # sops — Self-Organizing Particle Systems
//!
//! A Rust reproduction of Harder & Polani, *"Self-organizing particle
//! systems"*, Advances in Complex Systems 16, 1250089 (2012): an
//! information-theoretic measure of self-organization (increase of
//! multi-information between observer variables) applied to interacting
//! particle collectives that mimic differential cell adhesion.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`sim`] — the particle model: force-scaling families `F¹`/`F²`,
//!   Euler–Maruyama integration, equilibrium detection, parallel
//!   streamed ensembles.
//! * [`shape`] — factoring out the shape symmetries `ISO⁺(2) × S*_n`:
//!   2-D rigid fits, type-aware ICP, Hungarian permutation reduction.
//! * [`info`] — estimators: KSG multi-information (paper Eq. 18–20 and
//!   the two Kraskov variants), KDE and shrinkage-binning baselines,
//!   Kozachenko–Leonenko entropy, the Eq. 5 decomposition.
//! * [`core`] — the end-to-end measurement: the scenario registry and
//!   one-pass sweep engine (one ensemble fanned over many measures; a
//!   single measurement is a one-cell sweep), and the per-figure
//!   reproduction generators.
//! * [`math`], [`spatial`], [`cluster`], [`par`] — numeric, spatial,
//!   clustering and parallelism substrates.
//!
//! ## Quickstart
//!
//! ```
//! use sops::prelude::*;
//!
//! // 12 particles of 2 types, F1 law, preferred distances forcing
//! // same-type clustering.
//! let k = PairMatrix::constant(2, 1.0);
//! let mut r = PairMatrix::constant(2, 1.0);
//! r.set(0, 1, 2.5);
//! let model = Model::balanced(12, ForceModel::Linear(LinearForce::new(k, r)), f64::INFINITY);
//!
//! let spec = EnsembleSpec {
//!     model,
//!     integrator: IntegratorConfig::default(),
//!     init_radius: 2.0,
//!     t_max: 20,
//!     samples: 40,
//!     seed: 1,
//!     criterion: None,
//! };
//! // One scenario under the default (KSG) measure: a one-cell sweep.
//! let mut scenario = ScenarioSpec::new("quickstart", spec);
//! scenario.eval_every = 10;
//! let plan = SweepPlan::new(vec![scenario], vec![MeasureConfig::default()]);
//! let cell = run_sweep(&plan).expect("valid plan").cells.remove(0);
//! assert!(cell.status.is_ok(), "{:?}", cell.status);
//! let result = cell.result;
//! // Self-organization = the multi-information series rises.
//! assert!(result.mi.values.iter().all(|v| v.is_finite()));
//! ```

pub use sops_cluster as cluster;
pub use sops_core as core;
pub use sops_info as info;
pub use sops_math as math;
pub use sops_par as par;
pub use sops_shape as shape;
pub use sops_sim as sim;
pub use sops_spatial as spatial;

/// The most common imports in one place.
pub mod prelude {
    pub use sops_core::{
        run_sweep, BrokerStats, CacheStats, CellCache, CellProvenance, CellStatus, EnsembleStorage,
        MiSeries, ObserverMode, PipelineResult, RunOptions, ScenarioRegistry, ScenarioSpec,
        SweepBaseline, SweepBroker, SweepCell, SweepError, SweepPlan, SweepReport, SweepRunner,
        SweepSummary,
    };
    pub use sops_info::{
        KnnMode, KsgConfig, KsgVariant, MeasureConfig, MeasureWorkspace, SampleView, StridedFamily,
    };
    pub use sops_math::{Matrix, PairMatrix, SplitMix64, Vec2};
    pub use sops_shape::{icp_align_with, IcpConfig, IcpScratch, RigidTransform};
    pub use sops_sim::{
        run_streaming_ensemble, EnsembleFrames, EnsembleSpec, EquilibriumCriterion, ForceModel,
        ForceWorkspace, GaussianForce, IntegratorConfig, LinearForce, Model, Simulation,
        StreamingConfig, StreamingEnsemble,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_resolve() {
        use crate::prelude::*;
        let v = Vec2::new(1.0, 2.0);
        assert_eq!(v.x, 1.0);
        let m = PairMatrix::constant(2, 1.0);
        assert_eq!(m.types(), 2);
        let _ = KsgConfig::default();
        let _ = IcpConfig::default();
        let _ = IntegratorConfig::default();
    }
}
