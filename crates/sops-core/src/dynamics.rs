//! Particle-level information dynamics (paper §7.3, future work).
//!
//! The paper proposes measuring information *transfer* between individual
//! particles over time. This module implements that proposal on top of
//! the workspace's ensembles: for a pair of particles `(a, b)`, the
//! transfer entropy
//!
//! ```text
//! T_{b→a}(t) = I( Z_a(t+lag) ; Z_b(t) | Z_a(t) )
//! ```
//!
//! estimated *across ensemble runs* with the Frenzel–Pompe conditional-MI
//! estimator. Per §5.2, this uses the raw trajectories — particle
//! identity over time is only meaningful before permutation reduction.
//!
//! To remove the shared translation/rotation drift (which would register
//! as spurious transfer), positions are expressed relative to each run's
//! instantaneous centroid.

use sops_info::{CmiConfig, MeasureWorkspace};
use sops_math::Vec2;
use sops_sim::ensemble::Ensemble;

/// Configuration for ensemble transfer-entropy estimates.
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Time lag between past and successor state (recorded steps).
    pub lag: usize,
    /// Neighbour order of the underlying CMI estimator.
    pub k: usize,
    /// Worker threads (0 = default).
    pub threads: usize,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            lag: 1,
            k: 4,
            threads: 0,
        }
    }
}

/// Extracts particle `i`'s centred position at time `t` across all runs
/// as a `samples × 2` row-major matrix.
fn centred_positions(ensemble: &Ensemble, i: usize, t: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(ensemble.samples() * 2);
    for run in &ensemble.runs {
        let frame = &run.frames[t];
        let c = Vec2::centroid(frame);
        let p = frame[i] - c;
        out.push(p.x);
        out.push(p.y);
    }
    out
}

/// Transfer entropy `T_{b→a}` (bits) at time `t` across the ensemble.
/// Repeated callers should use [`transfer_matrix`], which shares one
/// estimator workspace across all pairs.
///
/// # Panics
///
/// Panics if `t + cfg.lag` exceeds the recorded horizon or the particle
/// indices are out of range.
pub fn particle_transfer_entropy(
    ensemble: &Ensemble,
    a: usize,
    b: usize,
    t: usize,
    cfg: &TransferConfig,
) -> f64 {
    assert!(a < ensemble.particles() && b < ensemble.particles());
    assert!(
        t + cfg.lag < ensemble.frames(),
        "particle_transfer_entropy: t + lag beyond horizon"
    );
    let x_next = centred_positions(ensemble, a, t + cfg.lag);
    let x_past = centred_positions(ensemble, a, t);
    let y_past = centred_positions(ensemble, b, t);
    MeasureWorkspace::new().transfer_entropy(
        &x_next,
        &y_past,
        &x_past,
        ensemble.samples(),
        (2, 2, 2),
        &cmi_config(cfg),
    )
}

/// The Frenzel–Pompe configuration of a transfer-entropy estimate.
fn cmi_config(cfg: &TransferConfig) -> CmiConfig {
    CmiConfig {
        k: cfg.k,
        threads: cfg.threads,
        ..CmiConfig::default()
    }
}

/// The full pairwise transfer matrix at time `t`: entry `(a, b)` is
/// `T_{b→a}` (information flowing *into* `a` *from* `b`); the diagonal is
/// zero by convention. All `n(n−1)` estimates share one
/// [`MeasureWorkspace`], and each particle's centred past/successor
/// positions are gathered once for the whole sweep rather than once per
/// pair.
pub fn transfer_matrix(ensemble: &Ensemble, t: usize, cfg: &TransferConfig) -> Vec<Vec<f64>> {
    let n = ensemble.particles();
    assert!(
        t + cfg.lag < ensemble.frames(),
        "transfer_matrix: t + lag beyond horizon"
    );
    let past: Vec<Vec<f64>> = (0..n).map(|i| centred_positions(ensemble, i, t)).collect();
    let next: Vec<Vec<f64>> = (0..n)
        .map(|i| centred_positions(ensemble, i, t + cfg.lag))
        .collect();
    let cmi_cfg = cmi_config(cfg);
    let mut ws = MeasureWorkspace::new();
    let mut out = vec![vec![0.0; n]; n];
    for (a, row) in out.iter_mut().enumerate() {
        for (b, cell) in row.iter_mut().enumerate() {
            if a != b {
                *cell = ws.transfer_entropy(
                    &next[a],
                    &past[b],
                    &past[a],
                    ensemble.samples(),
                    (2, 2, 2),
                    &cmi_cfg,
                );
            }
        }
    }
    out
}

/// Net directed flow `T_{b→a} − T_{a→b}` summed over all partners — a
/// per-particle "information source/sink" score.
pub fn net_flow(matrix: &[Vec<f64>]) -> Vec<f64> {
    let n = matrix.len();
    (0..n)
        .map(|a| (0..n).map(|b| matrix[a][b] - matrix[b][a]).sum::<f64>())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_math::PairMatrix;
    use sops_sim::ensemble::{run_ensemble, EnsembleSpec};
    use sops_sim::force::{ForceModel, LinearForce};
    use sops_sim::{IntegratorConfig, Model};

    fn interacting_ensemble(n: usize, force_scale: f64, cutoff: f64, samples: usize) -> Ensemble {
        let law = ForceModel::Linear(LinearForce::new(
            PairMatrix::constant(1, force_scale),
            PairMatrix::constant(1, 2.0),
        ));
        let spec = EnsembleSpec {
            model: Model::balanced(n, law, cutoff),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max: 12,
            samples,
            seed: 77,
            criterion: None,
        };
        run_ensemble(&spec, 0)
    }

    #[test]
    fn interacting_particles_transfer_information() {
        // Small, strongly coupled collective during the transient: the
        // neighbour's past visibly shapes the successor state.
        let ensemble = interacting_ensemble(3, 5.0, f64::INFINITY, 800);
        let te = particle_transfer_entropy(
            &ensemble,
            0,
            1,
            1,
            &TransferConfig {
                lag: 3,
                ..TransferConfig::default()
            },
        );
        assert!(
            te > 0.3,
            "coupled particles must show positive transfer: {te}"
        );
    }

    #[test]
    fn decoupled_particles_show_no_transfer() {
        // Cut-off far below the typical separation: particles diffuse
        // independently, so no information flows between them.
        let ensemble = interacting_ensemble(3, 5.0, 0.05, 800);
        let te = particle_transfer_entropy(
            &ensemble,
            0,
            1,
            1,
            &TransferConfig {
                lag: 3,
                ..TransferConfig::default()
            },
        );
        assert!(te.abs() < 0.1, "decoupled particles: TE = {te}");
    }

    #[test]
    fn transfer_entropy_finite_and_symmetric_setup_near_symmetric_values() {
        let ensemble = interacting_ensemble(3, 5.0, f64::INFINITY, 300);
        let cfg = TransferConfig {
            lag: 3,
            ..TransferConfig::default()
        };
        let ab = particle_transfer_entropy(&ensemble, 0, 1, 1, &cfg);
        let ba = particle_transfer_entropy(&ensemble, 1, 0, 1, &cfg);
        assert!(ab.is_finite() && ba.is_finite());
        // Identical roles => similar (not necessarily equal) transfer.
        assert!((ab - ba).abs() < 0.3, "{ab} vs {ba}");
    }

    #[test]
    fn transfer_matrix_shape_and_net_flow_antisymmetry() {
        let ensemble = interacting_ensemble(6, 1.0, f64::INFINITY, 150);
        let m = transfer_matrix(
            &ensemble,
            3,
            &TransferConfig {
                k: 3,
                ..TransferConfig::default()
            },
        );
        assert_eq!(m.len(), 6);
        assert!(m.iter().enumerate().all(|(i, row)| row[i] == 0.0));
        let flow = net_flow(&m);
        // Net flows sum to ~0 by antisymmetry of the construction.
        let total: f64 = flow.iter().sum();
        assert!(total.abs() < 1e-9, "net flow total {total}");
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn lag_beyond_horizon_panics() {
        let ensemble = interacting_ensemble(6, 1.0, f64::INFINITY, 50);
        particle_transfer_entropy(
            &ensemble,
            0,
            1,
            12,
            &TransferConfig {
                lag: 1,
                ..TransferConfig::default()
            },
        );
    }
}
