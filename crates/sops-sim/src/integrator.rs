//! Stochastic integration of the overdamped dynamics (paper §4.1).
//!
//! One *recorded* step of length `dt` is split into `substeps` internal
//! Euler–Maruyama substeps (the paper's integrator for Eq. 6):
//! `z ← z + h·f(z) + √h·σ_w·ξ`, strong order 0.5.
//!
//! `σ_w = √noise_variance` (the paper's `w ~ N(0, 0.05)`, which does not
//! say whether 0.05 is the variance or the std; the default
//! [`IntegratorConfig`] reads it as the variance). The per-substep *drift*
//! displacement is clamped to `max_step` to keep `F¹`'s `1/x` pole from
//! catapulting particles in the rare event that two of them nearly
//! coincide — the clamp engages only in that regime and is configurable
//! (and benchmarked) as an ablation.

use crate::model::Model;
use crate::workspace::ForceWorkspace;
use sops_math::{SplitMix64, Vec2};

/// Integration parameters for one recorded time step.
#[derive(Debug, Clone, Copy)]
pub struct IntegratorConfig {
    /// Length of one recorded time step (the paper's unit of `t`).
    pub dt: f64,
    /// Internal substeps per recorded step.
    pub substeps: usize,
    /// Noise variance per unit time; the paper uses 0.05. Must be finite.
    pub noise_variance: f64,
    /// Per-substep cap on the *drift* displacement norm of any particle;
    /// `f64::INFINITY` never clamps.
    pub max_step: f64,
}

impl Default for IntegratorConfig {
    fn default() -> Self {
        IntegratorConfig {
            dt: 0.1,
            substeps: 4,
            noise_variance: crate::DEFAULT_NOISE_VARIANCE,
            max_step: 0.5,
        }
    }
}

impl IntegratorConfig {
    /// Typed validation: `Err` carries the first violated constraint, in
    /// the same wording [`IntegratorConfig::validate`] panics with. Sweep
    /// entry points surface this as `SweepError::InvalidPlan` instead of
    /// unwinding.
    pub(crate) fn check(&self) -> Result<(), String> {
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err("dt must be positive".into());
        }
        if self.substeps == 0 {
            return Err("substeps must be >= 1".into());
        }
        if !(self.noise_variance >= 0.0 && self.noise_variance.is_finite()) {
            return Err("noise variance must be finite and non-negative".into());
        }
        if self.max_step.is_nan() || self.max_step <= 0.0 {
            return Err("max_step must be positive".into());
        }
        Ok(())
    }

    /// Validates the configuration; called by [`crate::Simulation`].
    pub(crate) fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }

    /// A noiseless copy — used by deterministic tests and by the
    /// equilibrium analysis, where noise would mask vanishing drift.
    pub fn deterministic(mut self) -> Self {
        self.noise_variance = 0.0;
        self
    }
}

/// Advances `positions` by one recorded step. All scratch (the force
/// buffer, the cell grid) lives in `ws` and is reused across calls — a
/// warmed-up step allocates nothing.
///
/// Returns the drift force-norm sum `Σ_i ‖f_i‖₂` measured at the *start*
/// of the step, which the caller feeds to equilibrium detection.
pub(crate) fn step(
    model: &Model,
    cfg: &IntegratorConfig,
    positions: &mut [Vec2],
    ws: &mut ForceWorkspace,
    rng: &mut SplitMix64,
) -> f64 {
    let h = cfg.dt / cfg.substeps as f64;
    let noise_scale = (cfg.noise_variance * h).sqrt();
    let mut first_force_norm = 0.0;
    for sub in 0..cfg.substeps {
        ws.compute(model, positions);
        if sub == 0 {
            first_force_norm = ws.forces().iter().map(|f| f.norm()).sum();
        }
        for (z, f) in positions.iter_mut().zip(ws.forces()) {
            advance_particle(z, *f, h, cfg.max_step, noise_scale, rng);
        }
    }
    first_force_norm
}

/// One particle's Euler–Maruyama substep: `z ← z + (clamp(f·h) + noise)`,
/// the noise drawn x then y from `rng` (nothing drawn when `noise_scale`
/// is zero). The lockstep lanes call this per lane, so both paths run
/// the same operations.
#[inline]
pub(crate) fn advance_particle(
    z: &mut Vec2,
    f: Vec2,
    h: f64,
    max_step: f64,
    noise_scale: f64,
    rng: &mut SplitMix64,
) {
    let drift = (f * h).clamp_norm(max_step);
    *z += drift + sample_noise(noise_scale, rng);
}

#[inline]
fn sample_noise(noise_scale: f64, rng: &mut SplitMix64) -> Vec2 {
    if noise_scale > 0.0 {
        Vec2::new(
            noise_scale * rng.next_standard_normal(),
            noise_scale * rng.next_standard_normal(),
        )
    } else {
        Vec2::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{ForceModel, LinearForce};

    fn pair_model(k: f64, r: f64) -> Model {
        Model::new(
            vec![0, 0],
            ForceModel::Linear(LinearForce::uniform(k, r)),
            f64::INFINITY,
        )
    }

    #[test]
    fn two_attracting_particles_approach_preferred_distance() {
        let model = pair_model(1.0, 1.0);
        let cfg = IntegratorConfig::default().deterministic();
        let mut pos = vec![Vec2::new(-2.0, 0.0), Vec2::new(2.0, 0.0)];
        let mut ws = ForceWorkspace::new();
        let mut rng = SplitMix64::new(0);
        for _ in 0..500 {
            step(&model, &cfg, &mut pos, &mut ws, &mut rng);
        }
        let sep = pos[0].dist(pos[1]);
        assert!(
            (sep - 1.0).abs() < 1e-3,
            "separation {sep} should settle at r = 1"
        );
    }

    #[test]
    fn repelling_pair_separates_to_preferred_distance() {
        let model = pair_model(1.0, 2.0);
        let cfg = IntegratorConfig::default().deterministic();
        let mut pos = vec![Vec2::new(-0.2, 0.0), Vec2::new(0.2, 0.0)];
        let mut ws = ForceWorkspace::new();
        let mut rng = SplitMix64::new(0);
        for _ in 0..1000 {
            step(&model, &cfg, &mut pos, &mut ws, &mut rng);
        }
        let sep = pos[0].dist(pos[1]);
        assert!((sep - 2.0).abs() < 1e-3, "separation {sep}");
    }

    #[test]
    fn force_norm_decreases_toward_equilibrium() {
        let model = pair_model(1.0, 1.0);
        let cfg = IntegratorConfig::default().deterministic();
        let mut pos = vec![Vec2::new(-3.0, 0.0), Vec2::new(3.0, 0.0)];
        let mut ws = ForceWorkspace::new();
        let mut rng = SplitMix64::new(0);
        let early = step(&model, &cfg, &mut pos, &mut ws, &mut rng);
        for _ in 0..300 {
            step(&model, &cfg, &mut pos, &mut ws, &mut rng);
        }
        let late = step(&model, &cfg, &mut pos, &mut ws, &mut rng);
        assert!(late < early * 1e-3, "early {early}, late {late}");
    }

    #[test]
    fn euler_matches_the_closed_form_relaxation_in_the_small_step_limit() {
        // Two F¹ particles close their gap at rate 2k(x − r), so
        // x(t) = r + (x₀ − r)·e^{−2kt}. Euler follows the recurrence
        // x ← r + (x − r)(1 − 2kh); at h = dt/4096 that lands 7.6e-5 from
        // x(0.4).
        let (k, r, x0) = (4.0, 1.0, 4.0);
        let model = pair_model(k, r);
        let cfg = IntegratorConfig {
            dt: 0.2,
            substeps: 4096,
            noise_variance: 0.0,
            max_step: 10.0,
        };
        let mut pos = vec![Vec2::new(-x0 / 2.0, 0.0), Vec2::new(x0 / 2.0, 0.0)];
        let mut ws = ForceWorkspace::new();
        let mut rng = SplitMix64::new(0);
        for _ in 0..2 {
            step(&model, &cfg, &mut pos, &mut ws, &mut rng);
        }
        let x = pos[0].dist(pos[1]);
        let h = cfg.dt / cfg.substeps as f64;
        let recurrence = r + (x0 - r) * (1.0 - 2.0 * k * h).powi(2 * cfg.substeps as i32);
        let exact = r + (x0 - r) * (-2.0 * k * 2.0 * cfg.dt).exp();
        assert!(
            (x - recurrence).abs() < 1e-9,
            "{x} vs recurrence {recurrence}"
        );
        assert!((x - exact).abs() < 2e-4, "{x} vs exact {exact}");
    }

    #[test]
    fn noise_moves_isolated_particle_diffusively() {
        // A single particle feels no force; its displacement over many
        // steps should have variance ~ noise_variance * elapsed_time per
        // coordinate.
        let model = Model::new(
            vec![0],
            ForceModel::Linear(LinearForce::uniform(1.0, 1.0)),
            f64::INFINITY,
        );
        let cfg = IntegratorConfig {
            dt: 0.1,
            substeps: 1,
            noise_variance: 0.05,
            max_step: 0.5,
        };
        let trials = 2000;
        let steps = 50;
        let mut sum_sq = 0.0;
        for t in 0..trials {
            let mut rng = SplitMix64::new(t);
            let mut pos = vec![Vec2::ZERO];
            let mut ws = ForceWorkspace::new();
            for _ in 0..steps {
                step(&model, &cfg, &mut pos, &mut ws, &mut rng);
            }
            sum_sq += pos[0].x * pos[0].x;
        }
        let var = sum_sq / trials as f64;
        let expected = 0.05 * cfg.dt * steps as f64; // = 0.25
        assert!(
            (var - expected).abs() < 0.15 * expected,
            "empirical {var} vs expected {expected}"
        );
    }

    #[test]
    fn deterministic_copy_disables_noise() {
        let cfg = IntegratorConfig::default().deterministic();
        assert_eq!(cfg.noise_variance, 0.0);
        let model = pair_model(1.0, 1.0);
        let mut a = vec![Vec2::new(-2.0, 0.0), Vec2::new(2.0, 0.0)];
        let mut b = a.clone();
        let mut wa = ForceWorkspace::new();
        let mut wb = ForceWorkspace::new();
        step(&model, &cfg, &mut a, &mut wa, &mut SplitMix64::new(1));
        step(&model, &cfg, &mut b, &mut wb, &mut SplitMix64::new(999));
        assert_eq!(a, b, "noiseless integration ignores the RNG");
    }

    #[test]
    fn max_step_bounds_drift_displacement() {
        // Enormous force scale; displacement must still be bounded by
        // max_step per substep.
        let model = pair_model(1e9, 1.0);
        let cfg = IntegratorConfig {
            dt: 0.1,
            substeps: 1,
            noise_variance: 0.0,
            max_step: 0.3,
        };
        let mut pos = vec![Vec2::new(-5.0, 0.0), Vec2::new(5.0, 0.0)];
        let before = pos.clone();
        let mut ws = ForceWorkspace::new();
        step(&model, &cfg, &mut pos, &mut ws, &mut SplitMix64::new(0));
        for (p, q) in pos.iter().zip(&before) {
            assert!(p.dist(*q) <= 0.3 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "substeps")]
    fn validate_rejects_zero_substeps() {
        IntegratorConfig {
            substeps: 0,
            ..IntegratorConfig::default()
        }
        .validate();
    }
}
