//! Shape-space reduction (paper §4.2 and §5.2).
//!
//! The observable *shape* of a particle configuration is invariant under
//! the group `F = ISO⁺(2) × S*_n`: direct isometries (translation +
//! rotation, no reflection) and permutations of same-type particles. To
//! measure multi-information over shapes, every sample of an ensemble is
//! mapped to a canonical representative:
//!
//! 1. **centre** on the centroid ([`center`]),
//! 2. **rotate** into alignment with a reference sample using a type-aware
//!    ICP ([`icp`]) built on closed-form 2-D rigid fits ([`kabsch`]),
//! 3. **re-index** particles by optimal same-type correspondence with the
//!    reference ([`permutation`], Hungarian assignment in [`assignment`]).
//!
//! The paper used the PCL ICP implementation with types embedded as a
//! scaled third coordinate; per-type nearest-neighbour correspondence is
//! mathematically identical once the type offset exceeds the collective's
//! diameter (the nearest neighbour of any point is then of its own
//! type), and is what [`icp`] implements directly.

pub mod assignment;
pub mod distance;
pub mod ensemble;
pub mod icp;
pub mod kabsch;
pub mod permutation;

pub use assignment::{hungarian, hungarian_with, HungarianScratch};
pub use distance::{cluster_shapes, shape_distance};
pub use ensemble::{
    reduce_configurations, reduce_configurations_with, ReduceConfig, ReduceMode, ReduceWorkspace,
};
pub use icp::{icp_align, icp_align_with, IcpConfig, IcpResult, IcpScratch};
pub use kabsch::{fit_rigid, RigidTransform};
pub use permutation::{match_types, match_types_into, MatchScratch};

use sops_math::Vec2;

/// Translates a configuration so its centroid is at the origin, returning
/// the removed centroid.
pub fn center(points: &mut [Vec2]) -> Vec2 {
    let c = Vec2::centroid(points);
    for p in points.iter_mut() {
        *p -= c;
    }
    c
}

#[cfg(test)]
/// Whether the AVX-512 scans can run here; otherwise notes, once per
/// test process, that the wide-vs-scalar checks are skipped.
fn wide_or_skip_note() -> bool {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let wide = sops_math::wide_available();
    if !wide {
        NOTE.call_once(|| {
            eprintln!("note: no AVX-512 on this CPU; the wide-vs-scalar scan checks are skipped")
        });
    }
    wide
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_moves_centroid_to_origin() {
        let mut pts = vec![Vec2::new(1.0, 1.0), Vec2::new(3.0, 5.0)];
        let c = center(&mut pts);
        assert_eq!(c, Vec2::new(2.0, 3.0));
        assert!(Vec2::centroid(&pts).norm() < 1e-12);
    }
}
