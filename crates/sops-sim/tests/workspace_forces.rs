//! Contracts of the persistent force-evaluation engine:
//!
//! * the workspace path (direct and cell-grid half sweep) matches an
//!   all-pairs brute reference for every law family, multi-type
//!   interaction matrices included, across the 64-particle grid threshold;
//! * Euler–Maruyama driven through the workspace matches a brute-force
//!   reference integrator;
//! * the grid path's output bits, fixed by its chunk accumulation order,
//!   match recorded digests;
//! * a warmed-up `Simulation::step` performs zero heap allocations
//!   (buffer-capacity stability over 100 steps).

use proptest::prelude::*;
use sops_math::{PairMatrix, SplitMix64, Vec2};
use sops_sim::{
    ForceLaw, ForceModel, ForceWorkspace, GaussianForce, IntegratorConfig, LinearForce, Model,
    Simulation,
};

/// All-pairs reference: the literal Eq. 6 drift sum, no grid, no
/// Newton's-third-law sharing.
fn brute_forces(model: &Model, pos: &[Vec2]) -> Vec<Vec2> {
    let law = model.law();
    let cutoff = model.cutoff();
    let mut out = vec![Vec2::ZERO; pos.len()];
    for i in 0..pos.len() {
        for j in 0..pos.len() {
            if i == j {
                continue;
            }
            let delta = pos[i] - pos[j];
            let d = delta.norm();
            if d <= cutoff {
                let x = d.max(1e-9);
                out[i] -= delta * law.scale(model.type_of(i), model.type_of(j), x);
            }
        }
    }
    out
}

fn assert_forces_match(fast: &[Vec2], slow: &[Vec2], what: &str) {
    assert_eq!(fast.len(), slow.len());
    for (i, (f, s)) in fast.iter().zip(slow).enumerate() {
        let tol = 1e-9 * (1.0 + s.norm());
        assert!(
            (*f - *s).norm() < tol,
            "{what}: particle {i}: {f:?} vs {s:?}"
        );
    }
}

fn cloud(n: usize, half_extent: f64, seed: u64) -> Vec<Vec2> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            Vec2::new(
                rng.next_range(-half_extent, half_extent),
                rng.next_range(-half_extent, half_extent),
            )
        })
        .collect()
}

/// Three particle types with distinct scales and preferred distances —
/// the regime the old `grid_path_matches_direct_path` test never covered.
fn three_type_linear() -> ForceModel {
    let k = PairMatrix::from_full(3, &[1.0, 2.0, 0.5, 2.0, 1.5, 3.0, 0.5, 3.0, 1.0]);
    let r = PairMatrix::from_full(3, &[1.0, 2.5, 1.5, 2.5, 1.2, 0.8, 1.5, 0.8, 2.0]);
    ForceModel::Linear(LinearForce::new(k, r))
}

#[test]
fn grid_path_matches_brute_with_multi_type_law() {
    let n = 150; // comfortably above the grid threshold
    let model = Model::balanced(n, three_type_linear(), 2.5);
    let pos = cloud(n, 9.0, 41);
    let mut ws = ForceWorkspace::new();
    let mut fast = Vec::new();
    ws.net_forces_into(&model, &pos, &mut fast);
    assert_forces_match(&fast, &brute_forces(&model, &pos), "multi-type grid");
}

#[test]
fn grid_path_matches_brute_with_multi_type_gaussian() {
    let n = 120;
    let k = PairMatrix::from_full(3, &[1.0, 0.4, 2.0, 0.4, 1.5, 0.9, 2.0, 0.9, 0.7]);
    let r = PairMatrix::from_full(3, &[2.0, 1.0, 1.5, 1.0, 2.5, 2.0, 1.5, 2.0, 1.0]);
    let model = Model::balanced(
        n,
        ForceModel::Gaussian(GaussianForce::from_preferred_distance(k, &r)),
        3.0,
    );
    let pos = cloud(n, 8.0, 7);
    let mut ws = ForceWorkspace::new();
    let mut fast = Vec::new();
    ws.net_forces_into(&model, &pos, &mut fast);
    assert_forces_match(&fast, &brute_forces(&model, &pos), "multi-type gaussian");
}

#[test]
fn euler_through_grid_path_matches_brute_reference() {
    // Drive Euler–Maruyama through the workspace on a grid-path model and
    // replay the identical deterministic dynamics with brute-force
    // evaluations.
    let n = 100;
    let model = Model::balanced(n, three_type_linear(), 2.5);
    let cfg = IntegratorConfig {
        dt: 0.05,
        substeps: 2,
        noise_variance: 0.0,
        max_step: 0.5,
    };
    let initial = cloud(n, 7.0, 3);

    let mut sim = Simulation::from_initial(model.clone(), cfg, initial.clone(), 0);
    for _ in 0..10 {
        sim.step();
    }

    let mut reference = initial;
    let h = cfg.dt / cfg.substeps as f64;
    for _ in 0..10 * cfg.substeps {
        let f = brute_forces(&model, &reference);
        for (z, f) in reference.iter_mut().zip(&f) {
            *z += (*f * h).clamp_norm(cfg.max_step);
        }
    }

    for (i, (a, b)) in sim.positions().iter().zip(&reference).enumerate() {
        assert!(
            (*a - *b).norm() < 1e-7,
            "particle {i} drifted: {a:?} vs {b:?}"
        );
    }
}

/// FNV-1a 64 over the bit patterns of every force component.
fn force_digest(forces: &[Vec2]) -> u64 {
    forces
        .iter()
        .flat_map(|f| [f.x, f.y])
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn grid_path_bits_are_pinned() {
    // The grid path sums each particle's force over `FORCE_CHUNKS` (8)
    // fixed cell spans in chunk order, and that order fixes the output
    // bits. n straddling the power-of-two sweep size exercises uneven
    // span partitions and odd cell populations. F¹ needs only + − × ÷ √,
    // which IEEE 754 rounds exactly, so these digests hold on any libm,
    // with or without AVX-512.
    let pinned = [
        (511usize, 0x74fd_7c22_8ba7_3b9d_u64),
        (512, 0x176c_0335_4aa2_bd9e),
        (513, 0xb1ba_f1c0_7edc_3dd3),
    ];
    for (n, digest) in pinned {
        let model = Model::balanced(n, three_type_linear(), 3.0);
        let pos = cloud(n, 22.0, 99);
        let mut out = Vec::new();
        ForceWorkspace::new().net_forces_into(&model, &pos, &mut out);
        assert_eq!(force_digest(&out), digest, "n = {n}: grid-path bits moved");
    }
}

#[test]
fn warmed_up_step_is_allocation_free_euler() {
    // Attracting collective on the grid path, default noise: after a
    // warm-up, every buffer capacity must stay frozen across 100 steps.
    let model = Model::balanced(100, ForceModel::Linear(LinearForce::uniform(1.0, 1.0)), 2.5);
    let mut sim = Simulation::with_disc_init(model, IntegratorConfig::default(), 7.0, 5);
    for _ in 0..50 {
        sim.step();
    }
    let sig = sim.workspace().capacity_signature();
    for s in 0..100 {
        sim.step();
        assert_eq!(
            sim.workspace().capacity_signature(),
            sig,
            "allocation at step {s}"
        );
    }
    // The equilibrium probe shares the same buffers.
    let _ = sim.total_force_norm();
    assert_eq!(sim.workspace().capacity_signature(), sig);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The workspace engine (whichever path it picks) matches brute force
    /// across law families, cut-offs and particle counts spanning the
    /// grid threshold.
    #[test]
    fn workspace_matches_brute(
        n in 8usize..150,
        family in 0usize..2,
        cutoff in 0.8..6.0f64,
        seed in 0u64..1000,
    ) {
        let law = if family == 1 {
            let k = PairMatrix::from_full(2, &[1.0, 0.6, 0.6, 1.4]);
            let r = PairMatrix::from_full(2, &[2.0, 1.2, 1.2, 1.6]);
            ForceModel::Gaussian(GaussianForce::from_preferred_distance(k, &r))
        } else {
            let k = PairMatrix::from_full(2, &[1.0, 2.0, 2.0, 0.5]);
            let r = PairMatrix::from_full(2, &[1.0, 2.2, 2.2, 1.4]);
            ForceModel::Linear(LinearForce::new(k, r))
        };
        let model = Model::balanced(n, law, cutoff);
        let pos = cloud(n, 1.5 * (n as f64).sqrt(), seed);
        let mut ws = ForceWorkspace::new();
        let mut fast = Vec::new();
        ws.net_forces_into(&model, &pos, &mut fast);
        let slow = brute_forces(&model, &pos);
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            let tol = 1e-9 * (1.0 + s.norm());
            prop_assert!((*f - *s).norm() < tol, "particle {}: {:?} vs {:?}", i, f, s);
        }
    }

    /// Workspace reuse across heterogeneous workloads (different particle
    /// counts, cut-offs and paths in sequence) never corrupts results.
    #[test]
    fn workspace_reuse_across_workloads(
        sizes in proptest::collection::vec((8usize..120, 0.9..4.0f64, 0u64..100), 1..5)
    ) {
        let mut ws = ForceWorkspace::new();
        let mut fast = Vec::new();
        for &(n, cutoff, seed) in &sizes {
            let model = Model::balanced(
                n,
                ForceModel::Linear(LinearForce::uniform(1.0, 1.3)),
                cutoff,
            );
            let pos = cloud(n, (n as f64).sqrt() + 1.0, seed);
            ws.net_forces_into(&model, &pos, &mut fast);
            let slow = brute_forces(&model, &pos);
            for (f, s) in fast.iter().zip(&slow) {
                prop_assert!((*f - *s).norm() < 1e-9 * (1.0 + s.norm()));
            }
        }
    }
}
