//! A single simulation run: trajectory recording and equilibrium
//! detection.

use crate::integrator::{step, IntegratorConfig};
use crate::model::Model;
use crate::workspace::ForceWorkspace;
use sops_math::{SplitMix64, Vec2};

/// The paper's stopping criterion (§4.1): the collective "is considered to
/// be in equilibrium, if for several time steps the sum of the L2 norm of
/// the sum of all forces acting on each particle is below a specific
/// threshold".
#[derive(Debug, Clone, Copy)]
pub struct EquilibriumCriterion {
    /// Threshold on `Σ_i ‖f_i‖₂` (drift forces only, noise excluded).
    pub threshold: f64,
    /// Number of consecutive recorded steps the indicator must stay below
    /// the threshold.
    pub patience: usize,
}

impl Default for EquilibriumCriterion {
    fn default() -> Self {
        EquilibriumCriterion {
            threshold: 0.5,
            patience: 10,
        }
    }
}

/// The recorded output of one simulation run — the sample `z̄ = (z⁽¹⁾, …,
/// z⁽ᵗᵐᵃˣ⁾)` of paper Eq. 15.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// `frames[t][i]` is the position of particle `i` at recorded step `t`
    /// (including the initial configuration at `t = 0`).
    pub frames: Vec<Vec<Vec2>>,
    /// First recorded step at which the equilibrium criterion held, if any.
    pub equilibrium_step: Option<usize>,
}

impl Trajectory {
    /// The final configuration.
    pub fn last(&self) -> &[Vec2] {
        self.frames.last().expect("Trajectory: no frames")
    }
}

/// A running simulation bundling model, integrator configuration, state,
/// RNG and the persistent force-evaluation workspace (grid, scratch and
/// accumulator buffers reused across every substep — a warmed-up
/// [`Simulation::step`] allocates nothing).
#[derive(Debug, Clone)]
pub struct Simulation {
    model: Model,
    cfg: IntegratorConfig,
    positions: Vec<Vec2>,
    workspace: ForceWorkspace,
    rng: SplitMix64,
}

impl Simulation {
    /// Creates a simulation from an explicit initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size does not match the model or the
    /// integrator configuration is invalid.
    pub fn from_initial(
        model: Model,
        cfg: IntegratorConfig,
        initial: Vec<Vec2>,
        seed: u64,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            initial.len(),
            model.particles(),
            "Simulation: initial configuration size mismatch"
        );
        Simulation {
            model,
            cfg,
            positions: initial,
            workspace: ForceWorkspace::new(),
            rng: SplitMix64::new(seed),
        }
    }

    /// Creates a simulation with the paper's uniform-disc initial
    /// distribution of the given radius.
    pub fn with_disc_init(
        model: Model,
        cfg: IntegratorConfig,
        disc_radius: f64,
        seed: u64,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let initial = crate::init::uniform_disc(model.particles(), disc_radius, &mut rng);
        let mut sim = Simulation::from_initial(model, cfg, initial, 0);
        // Continue with the same stream so init and dynamics share one
        // seed but never reuse draws.
        sim.rng = rng;
        sim
    }

    /// Current particle positions.
    pub fn positions(&self) -> &[Vec2] {
        &self.positions
    }

    /// The persistent force-evaluation workspace.
    pub fn workspace(&self) -> &ForceWorkspace {
        &self.workspace
    }

    /// Drift force-norm sum `Σ_i ‖f_i‖₂` at the current configuration,
    /// computed in the simulation's own workspace without allocating.
    pub fn total_force_norm(&mut self) -> f64 {
        self.workspace
            .total_force_norm(&self.model, &self.positions)
    }

    /// Advances one recorded step; returns the drift force-norm sum at the
    /// start of the step.
    pub fn step(&mut self) -> f64 {
        step(
            &self.model,
            &self.cfg,
            &mut self.positions,
            &mut self.workspace,
            &mut self.rng,
        )
    }

    /// Runs `t_max` recorded steps, collecting every frame (including the
    /// initial one) and applying the equilibrium criterion if given.
    ///
    /// The run always completes all `t_max` steps — the paper's analyses
    /// need fixed-length ensembles — but the first step satisfying the
    /// criterion is recorded in [`Trajectory::equilibrium_step`].
    pub fn run(&mut self, t_max: usize, criterion: Option<EquilibriumCriterion>) -> Trajectory {
        let mut frames = Vec::with_capacity(t_max + 1);
        frames.push(self.positions.clone());
        let mut watch = EquilibriumWatch::new(criterion);
        let mut equilibrium_step = None;
        for t in 0..t_max {
            let fnorm = self.step();
            frames.push(self.positions.clone());
            equilibrium_step = watch.observe(t + 1, fnorm);
        }
        Trajectory {
            frames,
            equilibrium_step,
        }
    }

    /// Runs until the equilibrium criterion holds or `max_steps` elapse,
    /// without recording intermediate frames. Returns the number of steps
    /// taken and whether equilibrium was reached.
    pub fn run_to_equilibrium(
        &mut self,
        criterion: EquilibriumCriterion,
        max_steps: usize,
    ) -> (usize, bool) {
        let mut watch = EquilibriumWatch::new(Some(criterion));
        for t in 0..max_steps {
            let fnorm = self.step();
            if watch.observe(t + 1, fnorm).is_some() {
                return (t + 1, true);
            }
        }
        (max_steps, false)
    }
}

/// The equilibrium bookkeeping of one run: the patience counter of an
/// optional [`EquilibriumCriterion`] and the first recorded step at which
/// it held. [`Simulation::run`], [`Simulation::run_to_equilibrium`] and
/// the streaming ensemble's sample loop all feed one, so they agree by
/// construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EquilibriumWatch {
    criterion: Option<EquilibriumCriterion>,
    /// Consecutive recorded steps below the threshold so far.
    below: usize,
    first: Option<usize>,
}

impl EquilibriumWatch {
    pub(crate) fn new(criterion: Option<EquilibriumCriterion>) -> Self {
        EquilibriumWatch {
            criterion,
            below: 0,
            first: None,
        }
    }

    /// Records `fnorm`, the drift force-norm sum at the start of the step
    /// into recorded step `t`, and returns the first equilibrium step so
    /// far (always `None` without a criterion).
    pub(crate) fn observe(&mut self, t: usize, fnorm: f64) -> Option<usize> {
        if let Some(c) = self.criterion {
            if fnorm < c.threshold {
                self.below += 1;
                if self.below >= c.patience && self.first.is_none() {
                    self.first = Some(t);
                }
            } else {
                self.below = 0;
            }
        }
        self.first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{ForceModel, LinearForce};

    fn small_model(n: usize) -> Model {
        Model::balanced(
            n,
            ForceModel::Linear(LinearForce::uniform(1.0, 1.0)),
            f64::INFINITY,
        )
    }

    #[test]
    fn run_records_all_frames() {
        let mut sim =
            Simulation::with_disc_init(small_model(5), IntegratorConfig::default(), 2.0, 42);
        let traj = sim.run(20, None);
        assert_eq!(traj.frames.len(), 21);
        assert_eq!(traj.last().len(), 5);
    }

    #[test]
    fn same_seed_reproduces_trajectory() {
        let make = || {
            Simulation::with_disc_init(small_model(8), IntegratorConfig::default(), 3.0, 7)
                .run(30, None)
        };
        let a = make();
        let b = make();
        let bits = |frame: &[Vec2]| -> Vec<u64> {
            frame
                .iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
                .collect()
        };
        assert_eq!(a.frames.len(), b.frames.len());
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(bits(fa), bits(fb));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Simulation::with_disc_init(small_model(8), IntegratorConfig::default(), 3.0, 1)
            .run(5, None);
        let b = Simulation::with_disc_init(small_model(8), IntegratorConfig::default(), 3.0, 2)
            .run(5, None);
        assert_ne!(a.frames[0], b.frames[0], "different initial conditions");
    }

    #[test]
    fn attracting_collective_reaches_equilibrium() {
        let cfg = IntegratorConfig::default().deterministic();
        let mut sim = Simulation::with_disc_init(small_model(6), cfg, 2.0, 11);
        let (steps, reached) = sim.run_to_equilibrium(
            EquilibriumCriterion {
                threshold: 1e-3,
                patience: 5,
            },
            5000,
        );
        assert!(reached, "no equilibrium after {steps} steps");
        // Once in equilibrium, all pair distances should be near the
        // preferred distance or a packing compatible with it.
        let final_norm = sim.total_force_norm();
        assert!(final_norm < 1e-3);
    }

    #[test]
    fn equilibrium_step_recorded_in_run() {
        let cfg = IntegratorConfig::default().deterministic();
        let mut sim = Simulation::with_disc_init(small_model(4), cfg, 1.5, 3);
        let traj = sim.run(
            800,
            Some(EquilibriumCriterion {
                threshold: 1e-3,
                patience: 5,
            }),
        );
        let eq = traj.equilibrium_step.expect("should equilibrate");
        assert!(eq >= 5, "patience must elapse first");
        assert!(eq < 800);
    }

    #[test]
    fn noisy_system_does_not_report_spurious_equilibrium_with_tight_threshold() {
        // With noise, positions jitter; drift forces at a noisy packing
        // stay above an extremely tight threshold.
        let mut sim =
            Simulation::with_disc_init(small_model(10), IntegratorConfig::default(), 2.0, 5);
        let traj = sim.run(
            100,
            Some(EquilibriumCriterion {
                threshold: 1e-12,
                patience: 3,
            }),
        );
        assert!(traj.equilibrium_step.is_none());
    }

    #[test]
    fn run_to_equilibrium_agrees_with_run() {
        // One run that reaches equilibrium (noise-free, loose threshold)
        // and one that does not (noisy, extremely tight threshold).
        let cases = [
            (IntegratorConfig::default().deterministic(), 1e-3, true),
            (IntegratorConfig::default(), 1e-12, false),
        ];
        for (cfg, threshold, reaches) in cases {
            let c = EquilibriumCriterion {
                threshold,
                patience: 5,
            };
            let make = || Simulation::with_disc_init(small_model(4), cfg, 1.5, 3);
            let traj = make().run(800, Some(c));
            let (steps, reached) = make().run_to_equilibrium(c, 800);
            assert_eq!(reached, reaches, "threshold {threshold}");
            assert_eq!(traj.equilibrium_step, reached.then_some(steps));
            if !reached {
                assert_eq!(steps, 800);
            }
        }
    }
}
