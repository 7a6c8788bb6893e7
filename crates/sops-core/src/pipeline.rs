//! Measurement results: the multi-information series of one sweep cell
//! ([`MiSeries`] inside a [`PipelineResult`]) and the Eq. 5 decomposition
//! series behind Fig. 11.
//!
//! A ΔI cell is computed one way: as a cell of a
//! [`crate::scenario::SweepPlan`], run by
//! [`crate::scenario::SweepRunner`] (`run` for a plan, `run_cells` for
//! one ensemble, `evaluate_frames` for an already-simulated one). The
//! estimator is polymorphic: each cell carries a
//! [`sops_info::MeasureConfig`] selection and drives it through the
//! [`sops_info::Estimator`] trait.
//! [`decomposition_series`] is the one analysis outside that engine,
//! because it decomposes rather than estimates.

use crate::observers::build_observers;
use crate::scenario::{eval_pass, EvalWorker, ScenarioSpec};
use sops_info::decomposition::{Decomposition, Grouping};
use sops_info::KsgConfig;
use sops_shape::ensemble::{reduce_configurations_with, ReduceConfig};
use sops_sim::ensemble::Ensemble;

/// A time-indexed series of estimates.
#[derive(Debug, Clone)]
pub struct MiSeries {
    /// Recorded time steps.
    pub times: Vec<usize>,
    /// Multi-information estimates (bits) at those steps.
    pub values: Vec<f64>,
}

impl MiSeries {
    /// `I(t_last) − I(t_first)` — the self-organization increase the
    /// paper's Fig. 8 reports as ΔI.
    pub fn increase(&self) -> f64 {
        match (self.values.first(), self.values.last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// Ordinary-least-squares slope of the series in bits per step — a
    /// robust "is it organizing" statistic used by tests. Degenerate
    /// series (empty, single-point, or constant-time) have slope `0.0`,
    /// matching [`MiSeries::increase`] — not NaN.
    pub fn slope(&self) -> f64 {
        let xs: Vec<f64> = self.times.iter().map(|&t| t as f64).collect();
        sops_math::stats::ols_slope(&xs, &self.values)
    }

    /// Largest value of the series.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// One sweep cell's measured output.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The multi-information time series.
    pub mi: MiSeries,
    /// Mean ICP alignment cost at each evaluated step (diagnostic).
    pub mean_icp_cost: Vec<f64>,
    /// Fraction of runs that met the equilibrium criterion (if one was
    /// configured on the ensemble).
    pub equilibrated_fraction: f64,
}

impl PipelineResult {
    /// The result of a cell that produced nothing: empty series, zero
    /// equilibrated fraction. This is the payload of a quarantined
    /// [`crate::scenario::CellStatus::Failed`] cell.
    pub fn empty() -> Self {
        PipelineResult {
            mi: MiSeries {
                times: Vec::new(),
                values: Vec::new(),
            },
            mean_icp_cost: Vec::new(),
            equilibrated_fraction: 0.0,
        }
    }
}

/// A decomposition (Eq. 5) evaluated along the time axis, grouping
/// observers by particle type — the data behind Fig. 11.
#[derive(Debug, Clone)]
pub struct DecompositionSeries {
    /// Evaluated time steps.
    pub times: Vec<usize>,
    /// Per-step decompositions (between-types term + within-type terms).
    pub terms: Vec<Decomposition>,
}

impl DecompositionSeries {
    /// Normalized contributions per step (Fig. 11's y-axis):
    /// `(between, within_1, …, within_l) / reconstructed total`. Steps
    /// whose total is below `floor` yield `None`.
    pub fn normalized(&self, floor: f64) -> Vec<Option<Vec<f64>>> {
        self.terms.iter().map(|d| d.normalized(floor)).collect()
    }
}

/// Runs `scenario`'s shape reduction and observers over a simulated
/// ensemble and evaluates the type-grouped decomposition at each of its
/// evaluation steps, on up to `threads` workers (0 = default; the result
/// does not depend on it).
///
/// The decomposition is a KSG-specific analysis; it runs with
/// [`KsgConfig::default`].
pub fn decomposition_series(
    ensemble: &Ensemble,
    scenario: &ScenarioSpec,
    threads: usize,
) -> DecompositionSeries {
    let types = scenario.ensemble.model.types().to_vec();
    let type_count = scenario.ensemble.model.type_count();
    let times = scenario.eval_times();
    let inner_reduce = ReduceConfig {
        threads: 1,
        ..scenario.reduce
    };
    let inner_est = KsgConfig {
        threads: 1,
        ..KsgConfig::default()
    };
    let seed = scenario.ensemble.seed;
    let mut workers: Vec<EvalWorker> = Vec::new();
    let terms: Vec<Decomposition> = eval_pass(
        &mut workers,
        sops_sim::streaming::EnsembleFrames::Retained(ensemble),
        &times,
        threads,
        |w, slice, _ti| {
            let reduced = reduce_configurations_with(&mut w.reduce, slice, &types, &inner_reduce);
            let observers = build_observers(&reduced, &types, type_count, scenario.observers, seed);
            let grouping = Grouping::from_labels(&observers.block_types);
            w.measure
                .decompose(&observers.view(), &grouping, &inner_est)
        },
    );
    DecompositionSeries { times, terms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::ObserverMode;
    use crate::scenario::{EnsembleStorage, SweepRunner};
    use sops_info::measure::MeasureConfig;
    use sops_math::PairMatrix;
    use sops_sim::ensemble::{run_ensemble, EnsembleSpec};
    use sops_sim::force::{ForceModel, LinearForce};
    use sops_sim::streaming::EnsembleFrames;
    use sops_sim::{IntegratorConfig, Model};

    /// A small 2-type attracting system that visibly organizes.
    fn small_spec(samples: usize, t_max: usize) -> EnsembleSpec {
        let k = PairMatrix::constant(2, 1.0);
        let mut r = PairMatrix::constant(2, 1.0);
        r.set(0, 1, 2.0); // cross-type preferred distance larger: sorting
        EnsembleSpec {
            model: Model::balanced(8, ForceModel::Linear(LinearForce::new(k, r)), f64::INFINITY),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max,
            samples,
            seed: 99,
            criterion: None,
        }
    }

    fn small_scenario() -> ScenarioSpec {
        let mut sc = ScenarioSpec::new("small", small_spec(60, 30));
        sc.eval_every = 15;
        sc
    }

    fn ksg3() -> MeasureConfig {
        MeasureConfig::Ksg(KsgConfig {
            k: 3,
            ..KsgConfig::default()
        })
    }

    /// One cell through the sweep engine, on a fresh runner.
    fn run_cell(sc: &ScenarioSpec, measure: MeasureConfig, threads: usize) -> PipelineResult {
        let labels = [measure.label().to_string()];
        let cell = SweepRunner::new()
            .run_cells(sc, &[measure], &labels, EnsembleStorage::default(), threads)
            .pop()
            .expect("one measure in, one cell out");
        assert!(cell.status.is_ok(), "{:?}", cell.status);
        cell.result
    }

    /// `measure` over an already-simulated ensemble.
    fn evaluate(
        ensemble: &Ensemble,
        sc: &ScenarioSpec,
        measure: MeasureConfig,
        threads: usize,
    ) -> PipelineResult {
        SweepRunner::new()
            .evaluate_frames(EnsembleFrames::Retained(ensemble), sc, &[measure], threads)
            .pop()
            .expect("one measure in, one result out")
    }

    #[test]
    fn eval_times_cover_endpoints() {
        let sc = small_scenario();
        let times = sc.eval_times();
        assert_eq!(times.first(), Some(&0));
        assert_eq!(times.last(), Some(&30));
        // Non-divisible horizon still ends exactly at t_max.
        let mut sc2 = small_scenario();
        sc2.ensemble.t_max = 31;
        assert_eq!(*sc2.eval_times().last().unwrap(), 31);
    }

    #[test]
    fn organizing_system_shows_mi_increase() {
        let result = run_cell(&small_scenario(), ksg3(), 0);
        assert_eq!(result.mi.times.len(), result.mi.values.len());
        assert!(
            result.mi.increase() > 0.5,
            "attracting collective should organize: {:?}",
            result.mi.values
        );
        assert!(result.mi.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn series_helpers() {
        let s = MiSeries {
            times: vec![0, 10, 20],
            values: vec![1.0, 2.0, 4.0],
        };
        assert_eq!(s.increase(), 3.0);
        assert_eq!(s.max(), 4.0);
        assert!(s.slope() > 0.0);
    }

    #[test]
    fn thread_counts_do_not_change_series() {
        let mut sc = small_scenario();
        sc.ensemble.samples = 40;
        let a = run_cell(&sc, ksg3(), 1);
        let b = run_cell(&sc, ksg3(), 4);
        for (x, y) in a.mi.values.iter().zip(&b.mi.values) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn decomposition_series_shape_and_identity() {
        let sc = small_scenario();
        let ensemble = run_ensemble(&sc.ensemble, 0);
        let d = decomposition_series(&ensemble, &sc, 0);
        assert_eq!(d.times.len(), d.terms.len());
        for term in &d.terms {
            assert_eq!(term.within.len(), 2, "one within-term per type");
            assert!(term.total.is_finite());
        }
        // Normalized entries sum to 1 where defined.
        for norm in d.normalized(1e-3).into_iter().flatten() {
            let sum: f64 = norm.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn type_means_observer_path_runs() {
        let mut sc = small_scenario();
        sc.observers = ObserverMode::TypeMeans { k_per_type: 2 };
        let result = run_cell(&sc, ksg3(), 0);
        assert!(result.mi.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn every_measure_selection_drives_the_pipeline() {
        // The polymorphic dispatch point: the same evaluation loop must
        // run any estimator family. The calibrated estimators (KSG, KDE)
        // must see the organizing trend; the binned/discrete baselines
        // only need to run — at 16 joint dimensions over 80 samples they
        // saturate, which is exactly the §5.3 artifact this repo
        // reproduces ("almost no change in information could be seen").
        let ensemble = run_ensemble(&small_spec(80, 30), 0);
        let selections = [
            (MeasureConfig::default(), true),
            (MeasureConfig::Kde(sops_info::KdeConfig::default()), true),
            (
                MeasureConfig::Binned(sops_info::BinningConfig::default()),
                false,
            ),
            (MeasureConfig::DiscretePlugin { bins: 6 }, false),
            // 80 runs over 16 joint dims: covariance is well-conditioned,
            // so the parametric baseline runs too (it reports NaN, not a
            // panic, when a step's covariance is singular).
            (MeasureConfig::Gaussian, false),
        ];
        for (measure, sees_trend) in selections {
            let mut sc = small_scenario();
            sc.ensemble.samples = 80;
            let result = evaluate(&ensemble, &sc, measure, 0);
            assert!(
                result.mi.values.iter().all(|v| v.is_finite()),
                "{}: {:?}",
                measure.label(),
                result.mi.values
            );
            if sees_trend {
                assert!(
                    result.mi.increase() > 0.0,
                    "{} must see the organization: {:?}",
                    measure.label(),
                    result.mi.values
                );
            }
        }
    }

    #[test]
    fn non_ksg_measure_bit_matches_direct_estimator() {
        // The trait-driven worker must produce exactly what the direct
        // engine produces on the same reduced observers.
        let ensemble = run_ensemble(&small_spec(50, 20), 0);
        let mut sc = ScenarioSpec::new("small", small_spec(50, 20));
        sc.eval_every = 20;
        let measure = MeasureConfig::Binned(sops_info::BinningConfig::default());
        let via_pipeline = evaluate(&ensemble, &sc, measure, 1);

        let types = sc.ensemble.model.types().to_vec();
        let type_count = sc.ensemble.model.type_count();
        let inner_reduce = ReduceConfig {
            threads: 1,
            ..sc.reduce
        };
        for (ti, &t) in sc.eval_times().iter().enumerate() {
            let slice = ensemble.at_time(t);
            let reduced =
                sops_shape::ensemble::reduce_configurations(&slice, &types, &inner_reduce);
            let observers =
                build_observers(&reduced, &types, type_count, sc.observers, sc.ensemble.seed);
            let want = sops_info::MeasureWorkspace::new()
                .estimator_mut(&measure)
                .measure(&observers.view());
            assert_eq!(via_pipeline.mi.values[ti].to_bits(), want.to_bits());
        }
    }
}
