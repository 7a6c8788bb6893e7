//! Parallel ensembles of independent simulation runs (paper §5.1).
//!
//! Estimating multi-information at time `t` requires the distribution of
//! configurations across `m` independent runs of the same experiment
//! (Eq. 17: `z = (z̄₁, …, z̄_m)`). Runs are embarrassingly parallel; each
//! gets its RNG seed *derived* from the master seed and its sample index,
//! so the ensemble is bit-identical no matter how many threads execute it.

use crate::integrator::IntegratorConfig;
use crate::model::Model;
use crate::sim::{EquilibriumCriterion, Simulation, Trajectory};
use sops_math::rng::derive_seed;
use sops_math::Vec2;

/// Everything needed to run one ensemble experiment.
#[derive(Debug, Clone)]
pub struct EnsembleSpec {
    /// The particle system.
    pub model: Model,
    /// Integration parameters.
    pub integrator: IntegratorConfig,
    /// Radius of the uniform-disc initial distribution.
    pub init_radius: f64,
    /// Number of recorded steps per run (`t_max`; paper: 100–250).
    pub t_max: usize,
    /// Number of independent runs (`m`; paper: 500–1000).
    pub samples: usize,
    /// Master seed; sample `s` uses `derive_seed(seed, s)`.
    pub seed: u64,
    /// Optional equilibrium bookkeeping per run.
    pub criterion: Option<EquilibriumCriterion>,
}

impl EnsembleSpec {
    /// Typed validation: `Err` carries the first violated constraint, in
    /// the same wording [`run_ensemble`] and
    /// [`crate::run_streaming_ensemble`] panic with. Sweep entry points
    /// surface this as `SweepError::InvalidPlan` up front instead of
    /// quarantining the panic per ensemble.
    pub fn check(&self) -> Result<(), String> {
        self.integrator.check()?;
        if self.init_radius.is_nan() || self.init_radius <= 0.0 {
            return Err("EnsembleSpec: init radius".into());
        }
        if self.t_max == 0 {
            return Err("EnsembleSpec: t_max must be >= 1".into());
        }
        if self.samples == 0 {
            return Err("EnsembleSpec: need at least one sample".into());
        }
        Ok(())
    }

    /// Validates the specification; called by [`run_ensemble`] and
    /// [`crate::run_streaming_ensemble`].
    pub(crate) fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }
}

/// The collected runs of one experiment.
#[derive(Debug, Clone)]
pub struct Ensemble {
    /// Per-sample trajectories, index = sample id.
    pub runs: Vec<Trajectory>,
}

impl Ensemble {
    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        self.runs.len()
    }

    /// Number of recorded frames per run (`t_max + 1`), 0 if empty.
    pub fn frames(&self) -> usize {
        self.runs.first().map_or(0, |r| r.len())
    }

    /// Number of particles, 0 if empty.
    pub fn particles(&self) -> usize {
        self.runs
            .first()
            .and_then(|r| r.frames.first())
            .map_or(0, |f| f.len())
    }

    /// The cross-sample slice at time `t`: `slice[s]` is sample `s`'s
    /// configuration at recorded step `t` — the raw material for the
    /// per-time-step statistics of §5.2.
    ///
    /// Analyses that read only some steps should not keep whole
    /// trajectories: [`crate::run_streaming_ensemble`] retains just the
    /// steps they name, with the same bits.
    pub fn at_time(&self, t: usize) -> Vec<&[Vec2]> {
        self.runs.iter().map(|r| r.frames[t].as_slice()).collect()
    }
}

/// Runs the ensemble on up to `threads` worker threads (pass 0 to use the
/// default; see `sops_par::default_threads`).
///
/// Each sample owns a private [`crate::ForceWorkspace`], so its grid and
/// scratch buffers are allocated once at the start of the run and reused
/// across every substep; the inner force sweep stays sequential because
/// the sample-level parallelism here already saturates the cores.
pub fn run_ensemble(spec: &EnsembleSpec, threads: usize) -> Ensemble {
    spec.validate();
    let threads = if threads == 0 {
        sops_par::default_threads()
    } else {
        threads
    };
    let runs = sops_par::parallel_map(spec.samples, threads, |s| {
        let sample_seed = derive_seed(spec.seed, s as u64);
        let mut sim = Simulation::with_disc_init(
            spec.model.clone(),
            spec.integrator,
            spec.init_radius,
            sample_seed,
        );
        sim.run(spec.t_max, spec.criterion)
    });
    Ensemble { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{ForceModel, LinearForce};

    fn spec(samples: usize, t_max: usize) -> EnsembleSpec {
        EnsembleSpec {
            model: Model::balanced(
                6,
                ForceModel::Linear(LinearForce::uniform(1.0, 1.0)),
                f64::INFINITY,
            ),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max,
            samples,
            seed: 1234,
            criterion: None,
        }
    }

    #[test]
    fn ensemble_shape() {
        let e = run_ensemble(&spec(10, 15), 4);
        assert_eq!(e.samples(), 10);
        assert_eq!(e.frames(), 16);
        assert_eq!(e.particles(), 6);
        assert_eq!(e.at_time(0).len(), 10);
        assert_eq!(e.at_time(15)[3].len(), 6);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let a = run_ensemble(&spec(8, 10), 1);
        let b = run_ensemble(&spec(8, 10), 8);
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.frames, rb.frames);
        }
    }

    #[test]
    fn samples_are_distinct() {
        let e = run_ensemble(&spec(4, 5), 2);
        for s in 1..e.samples() {
            assert_ne!(
                e.runs[0].frames[0], e.runs[s].frames[0],
                "initial conditions must differ across samples"
            );
        }
    }

    #[test]
    fn master_seed_changes_everything() {
        let mut s2 = spec(3, 5);
        s2.seed = 999;
        let a = run_ensemble(&spec(3, 5), 2);
        let b = run_ensemble(&s2, 2);
        assert_ne!(a.runs[0].frames[0], b.runs[0].frames[0]);
    }

    #[test]
    fn equilibrated_fraction_with_loose_criterion() {
        let mut s = spec(5, 400);
        s.integrator = s.integrator.deterministic();
        s.criterion = Some(EquilibriumCriterion {
            threshold: 0.05,
            patience: 3,
        });
        let e = run_ensemble(&s, 4);
        let steps: Vec<Option<usize>> = e.runs.iter().map(|r| r.equilibrium_step).collect();
        assert!(
            steps.iter().all(Option::is_some),
            "deterministic attracting collectives equilibrate: {steps:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        run_ensemble(&spec(0, 5), 1);
    }
}
