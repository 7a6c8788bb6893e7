//! The specification of an ensemble of independent simulation runs
//! (paper §5.1).
//!
//! Estimating multi-information at time `t` requires the distribution of
//! configurations across `m` independent runs of the same experiment
//! (Eq. 17: `z = (z̄₁, …, z̄_m)`). Runs are embarrassingly parallel; each
//! gets its RNG seed *derived* from the master seed and its sample index,
//! so the ensemble is bit-identical no matter how many threads execute it.
//! [`crate::run_streaming_ensemble`] runs an [`EnsembleSpec`], keeping the
//! steps its caller names.

use crate::integrator::IntegratorConfig;
use crate::model::Model;
use crate::sim::EquilibriumCriterion;

/// Everything needed to run one ensemble experiment.
#[derive(Debug, Clone)]
pub struct EnsembleSpec {
    /// The particle system.
    pub model: Model,
    /// Integration parameters.
    pub integrator: IntegratorConfig,
    /// Radius of the uniform-disc initial distribution (finite, positive).
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
    /// the same wording [`crate::run_streaming_ensemble`] panics with.
    /// Sweep entry points surface this as `SweepError::InvalidPlan` up
    /// front instead of quarantining the panic per ensemble.
    pub fn check(&self) -> Result<(), String> {
        self.integrator.check()?;
        if !(self.init_radius > 0.0 && self.init_radius.is_finite()) {
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

    /// Validates the specification; called by
    /// [`crate::run_streaming_ensemble`].
    pub(crate) fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{ForceModel, LinearForce};
    use crate::streaming::{run_streaming_ensemble, StreamingConfig, StreamingEnsemble};
    use sops_math::Vec2;

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

    /// `spec` streamed at every step on `threads` workers.
    fn run_every_step(spec: &EnsembleSpec, threads: usize) -> StreamingEnsemble {
        let steps: Vec<usize> = (0..=spec.t_max).collect();
        run_streaming_ensemble(spec, &steps, threads, &StreamingConfig::default())
    }

    /// The cross-sample slice at step `t`, one owned configuration per
    /// sample.
    fn at_time(e: &StreamingEnsemble, t: usize) -> Vec<Vec<Vec2>> {
        let (mut buf, mut out) = (Vec::new(), Vec::new());
        e.at_time_into(t, &mut buf, &mut out);
        out.iter().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn ensemble_shape() {
        let e = run_every_step(&spec(10, 15), 4);
        assert_eq!(e.samples(), 10);
        assert_eq!(e.times().len(), 16);
        assert_eq!(e.particles(), 6);
        assert_eq!(at_time(&e, 0).len(), 10);
        assert_eq!(at_time(&e, 15)[3].len(), 6);
    }

    /// Bits of every coordinate of a cross-sample slice.
    fn bits(slice: &[Vec<Vec2>]) -> Vec<u64> {
        slice
            .iter()
            .flatten()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let a = run_every_step(&spec(8, 10), 1);
        let b = run_every_step(&spec(8, 10), 8);
        for t in 0..=10 {
            assert_eq!(bits(&at_time(&a, t)), bits(&at_time(&b, t)), "t={t}");
        }
    }

    #[test]
    fn samples_are_distinct() {
        let e = run_every_step(&spec(4, 5), 2);
        let initial = at_time(&e, 0);
        for s in 1..e.samples() {
            assert_ne!(
                initial[0], initial[s],
                "initial conditions must differ across samples"
            );
        }
    }

    #[test]
    fn master_seed_changes_everything() {
        let mut s2 = spec(3, 5);
        s2.seed = 999;
        let a = run_every_step(&spec(3, 5), 2);
        let b = run_every_step(&s2, 2);
        assert_ne!(at_time(&a, 0)[0], at_time(&b, 0)[0]);
    }

    #[test]
    fn equilibrated_fraction_with_loose_criterion() {
        let mut s = spec(5, 400);
        s.integrator = s.integrator.deterministic();
        s.criterion = Some(EquilibriumCriterion {
            threshold: 0.05,
            patience: 3,
        });
        let e = run_streaming_ensemble(&s, &[400], 4, &StreamingConfig::default());
        let steps = e.equilibrium_steps();
        assert!(
            steps.iter().all(Option::is_some),
            "deterministic attracting collectives equilibrate: {steps:?}"
        );
    }

    #[test]
    fn check_rejects_a_non_finite_noise_variance() {
        for variance in [f64::INFINITY, f64::NAN, -1.0] {
            let mut s = spec(4, 5);
            s.integrator.noise_variance = variance;
            assert_eq!(
                s.check(),
                Err("noise variance must be finite and non-negative".to_string()),
                "noise variance {variance}"
            );
        }
        // An infinite drift cap means "never clamp" and stays legal.
        let mut s = spec(4, 5);
        s.integrator.max_step = f64::INFINITY;
        assert_eq!(s.check(), Ok(()));
    }

    #[test]
    fn check_rejects_a_non_finite_init_radius() {
        for radius in [f64::INFINITY, f64::NAN, 0.0, -2.0] {
            let mut s = spec(4, 5);
            s.init_radius = radius;
            assert_eq!(
                s.check(),
                Err("EnsembleSpec: init radius".to_string()),
                "radius {radius}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        run_streaming_ensemble(&spec(0, 5), &[5], 1, &StreamingConfig::default());
    }
}
