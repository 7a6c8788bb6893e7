//! Shared fixtures for the Criterion benches.
//!
//! Benchmarks live in `benches/`:
//!
//! * `substrates` — kd-tree build and range count, the cell grid's warm
//!   `rebuild_lanes`, Hungarian assignment, k-means, ICP (restart-count
//!   ablation), shape reduction (the ICP kernel and a whole-slice
//!   reduction), parallel map scaling.
//! * `estimators` — KSG variants (incl. the literal paper formula),
//!   scaling, the pairwise matrix, workspace reuse, 2-D observer blocks
//!   and k sensitivity; KDE and shrinkage-binning baselines (§5.3 speed
//!   comparison) through persistent and one-shot workspaces; a sweep
//!   cell; Kozachenko–Leonenko entropy.
//! * `simulation` — force evaluation paths (grid vs direct), workspace
//!   reuse, force-law families, integrator substep ablation, ensemble
//!   and lockstep-lane throughput, the 10⁵-particle streaming cell, and
//!   the cell cache's cold, warm and coalesced paths.
//! * `figures` — one kernel per paper figure at reduced scale
//!   (`RunOptions::fast`).

use sops_math::{SplitMix64, Vec2};

/// Deterministic uniform point cloud used across benches.
pub fn cloud(n: usize, half_extent: f64, seed: u64) -> Vec<Vec2> {
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

/// Flattens a point cloud to interleaved coordinates.
pub fn flat(points: &[Vec2]) -> Vec<f64> {
    points.iter().flat_map(|p| [p.x, p.y]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_deterministic() {
        assert_eq!(cloud(10, 5.0, 1), cloud(10, 5.0, 1));
        assert_eq!(flat(&cloud(3, 1.0, 2)).len(), 6);
    }
}
