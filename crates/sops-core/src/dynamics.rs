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
//! estimator. Per §5.2, this uses the raw runs — particle identity over
//! time is only meaningful before permutation reduction.
//!
//! An estimate reads two recorded steps, `t` and `t + lag`, so callers
//! stream just those: `run_streaming_ensemble(spec, &[t, t + lag], …)`.
//!
//! To remove the shared translation/rotation drift (which would register
//! as spurious transfer), positions are expressed relative to each run's
//! instantaneous centroid.

use sops_info::{CmiConfig, MeasureWorkspace};
use sops_math::Vec2;
use sops_sim::streaming::{EnsembleFrames, StreamingEnsemble};

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

/// Every particle's centred position at recorded step `t` across all
/// runs: entry `i` is particle `i`'s `samples × 2` row-major matrix.
///
/// The step is gathered whole before the caller reads another, so a
/// spilled store stages one cross-sample slice at a time in `buf`.
fn centred_positions(ensemble: &StreamingEnsemble, t: usize, buf: &mut Vec<Vec2>) -> Vec<Vec<f64>> {
    let frames = EnsembleFrames::Streaming(ensemble);
    let mut slice = Vec::with_capacity(frames.samples());
    frames.at_time_into(t, buf, &mut slice);
    let mut out: Vec<Vec<f64>> = (0..slice[0].len())
        .map(|_| Vec::with_capacity(slice.len() * 2))
        .collect();
    for frame in &slice {
        let c = Vec2::centroid(frame);
        for (row, &p) in out.iter_mut().zip(frame.iter()) {
            let p = p - c;
            row.push(p.x);
            row.push(p.y);
        }
    }
    out
}

/// Transfer entropy `T_{b→a}` (bits) at time `t` across the ensemble.
/// Repeated callers should use [`transfer_matrix`], which shares one
/// estimator workspace across all pairs.
///
/// # Panics
///
/// Panics if `ensemble` did not retain step `t` or step `t + cfg.lag`
/// (see [`EnsembleFrames::at_time_into`]), or if a particle index is out
/// of range.
pub fn particle_transfer_entropy(
    ensemble: &StreamingEnsemble,
    a: usize,
    b: usize,
    t: usize,
    cfg: &TransferConfig,
) -> f64 {
    let mut buf = Vec::new();
    let past = centred_positions(ensemble, t, &mut buf);
    assert!(
        a < past.len() && b < past.len(),
        "particle_transfer_entropy: particle index out of range"
    );
    let next = centred_positions(ensemble, t + cfg.lag, &mut buf);
    MeasureWorkspace::new().conditional_mutual_information(
        &next[a],
        &past[b],
        &past[a],
        EnsembleFrames::Streaming(ensemble).samples(),
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
///
/// # Panics
///
/// Panics if `ensemble` did not retain step `t` or step `t + cfg.lag`
/// (see [`EnsembleFrames::at_time_into`]).
pub fn transfer_matrix(
    ensemble: &StreamingEnsemble,
    t: usize,
    cfg: &TransferConfig,
) -> Vec<Vec<f64>> {
    let mut buf = Vec::new();
    let past = centred_positions(ensemble, t, &mut buf);
    let next = centred_positions(ensemble, t + cfg.lag, &mut buf);
    let n = past.len();
    let rows = EnsembleFrames::Streaming(ensemble).samples();
    let cmi_cfg = cmi_config(cfg);
    let mut ws = MeasureWorkspace::new();
    let mut out = vec![vec![0.0; n]; n];
    for (a, row) in out.iter_mut().enumerate() {
        for (b, cell) in row.iter_mut().enumerate() {
            if a != b {
                // T_{b→a} = I(a′ ; b | a).
                *cell = ws.conditional_mutual_information(
                    &next[a],
                    &past[b],
                    &past[a],
                    rows,
                    (2, 2, 2),
                    &cmi_cfg,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_math::PairMatrix;
    use sops_sim::ensemble::EnsembleSpec;
    use sops_sim::force::{ForceModel, LinearForce};
    use sops_sim::streaming::{run_streaming_ensemble, StreamingConfig};
    use sops_sim::{IntegratorConfig, Model};

    fn interacting_spec(n: usize, force_scale: f64, cutoff: f64, samples: usize) -> EnsembleSpec {
        let law = ForceModel::Linear(LinearForce::new(
            PairMatrix::constant(1, force_scale),
            PairMatrix::constant(1, 2.0),
        ));
        EnsembleSpec {
            model: Model::balanced(n, law, cutoff),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max: 12,
            samples,
            seed: 77,
            criterion: None,
        }
    }

    /// The interacting ensemble streamed at `steps`, the steps a query
    /// reads.
    fn interacting_ensemble(
        n: usize,
        force_scale: f64,
        cutoff: f64,
        samples: usize,
        steps: &[usize],
    ) -> StreamingEnsemble {
        let spec = interacting_spec(n, force_scale, cutoff, samples);
        run_streaming_ensemble(&spec, steps, 0, &StreamingConfig::default())
    }

    #[test]
    fn interacting_particles_transfer_information() {
        // Small, strongly coupled collective during the transient: the
        // neighbour's past visibly shapes the successor state.
        let ensemble = interacting_ensemble(3, 5.0, f64::INFINITY, 800, &[1, 4]);
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
        let ensemble = interacting_ensemble(3, 5.0, 0.05, 800, &[1, 4]);
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
        let ensemble = interacting_ensemble(3, 5.0, f64::INFINITY, 300, &[1, 4]);
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
    fn transfer_matrix_shape_and_zero_diagonal() {
        let ensemble = interacting_ensemble(6, 1.0, f64::INFINITY, 150, &[3, 4]);
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
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn lag_beyond_horizon_panics() {
        // Streaming the steps the query reads refuses step 13 of a
        // 12-step horizon.
        let ensemble = interacting_ensemble(6, 1.0, f64::INFINITY, 50, &[12, 13]);
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

    /// An ensemble streamed at only `[t, t + lag]` gives the matrix of one
    /// streamed at every step, bit for bit — on 1 and 4 threads, in memory
    /// and spilled (where both steps pass through one staging buffer).
    #[test]
    fn transfer_matrix_reads_only_the_steps_it_names() {
        let spec = interacting_spec(4, 5.0, f64::INFINITY, 60);
        let (t, lag) = (3, 2);
        let every_step: Vec<usize> = (0..=spec.t_max).collect();
        let bits =
            |m: &[Vec<f64>]| -> Vec<u64> { m.iter().flatten().map(|v| v.to_bits()).collect() };
        let cfg = TransferConfig {
            lag,
            k: 3,
            threads: 1,
        };
        let whole = run_streaming_ensemble(&spec, &every_step, 1, &StreamingConfig::default());
        let want = bits(&transfer_matrix(&whole, t, &cfg));
        for threads in [1usize, 4] {
            for budget in [usize::MAX, 1] {
                let store = StreamingConfig {
                    max_resident_bytes: budget,
                };
                let named = run_streaming_ensemble(&spec, &[t, t + lag], threads, &store);
                let cfg = TransferConfig { threads, ..cfg };
                assert_eq!(
                    bits(&transfer_matrix(&named, t, &cfg)),
                    want,
                    "threads={threads} budget={budget}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "was not retained")]
    fn unretained_step_panics() {
        let ensemble = interacting_ensemble(4, 1.0, f64::INFINITY, 20, &[3]);
        transfer_matrix(&ensemble, 3, &TransferConfig::default());
    }
}
