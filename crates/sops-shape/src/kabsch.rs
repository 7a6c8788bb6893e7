//! Closed-form 2-D rigid alignment (the planar Kabsch / Procrustes fit).
//!
//! Given paired points `(p_i, q_i)`, find the rotation `R(θ)` and
//! translation `t` minimizing `Σ w_i ‖R p_i + t − q_i‖²`. In 2-D the
//! optimum has the closed form
//!
//! ```text
//! θ = atan2( Σ w_i p̃_i × q̃_i , Σ w_i p̃_i · q̃_i )
//! t = q̄ − R(θ) p̄
//! ```
//!
//! with `p̃, q̃` the centred points. The solution is always a *direct*
//! isometry (det R = +1), matching the paper's invariance group `ISO⁺(2)`
//! which excludes reflections.

use sops_math::Vec2;

/// A direct planar isometry `x ↦ R(θ) x + t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidTransform {
    /// Rotation angle θ in radians.
    pub rotation: f64,
    /// Translation applied after the rotation.
    pub translation: Vec2,
}

impl RigidTransform {
    /// A pure rotation about the origin.
    pub fn rotation(angle: f64) -> Self {
        RigidTransform {
            rotation: angle,
            translation: Vec2::ZERO,
        }
    }

    /// A pure translation.
    pub fn translation(t: Vec2) -> Self {
        RigidTransform {
            rotation: 0.0,
            translation: t,
        }
    }

    /// Applies the transform to one point.
    #[inline]
    pub fn apply(&self, p: Vec2) -> Vec2 {
        p.rotated(self.rotation) + self.translation
    }

    /// Applies the transform to every point in place.
    pub fn apply_all(&self, points: &mut [Vec2]) {
        for p in points.iter_mut() {
            *p = self.apply(*p);
        }
    }

    /// Composition: `(self ∘ other)(x) = self(other(x))`.
    pub fn compose(&self, other: &RigidTransform) -> RigidTransform {
        RigidTransform {
            rotation: self.rotation + other.rotation,
            translation: other.translation.rotated(self.rotation) + self.translation,
        }
    }

    /// The inverse transform.
    pub fn inverse(&self) -> RigidTransform {
        RigidTransform {
            rotation: -self.rotation,
            translation: (-self.translation).rotated(-self.rotation),
        }
    }
}

/// Fits the rigid transform minimizing `Σ ‖T(p_i) − q_i‖²` over paired
/// slices.
///
/// Degenerate inputs (all points coincident, or a single pair) yield the
/// pure translation mapping the `p` centroid onto the `q` centroid.
///
/// ```
/// use sops_math::Vec2;
/// use sops_shape::fit_rigid;
/// let p = [Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)];
/// let q = [Vec2::new(2.0, 0.0), Vec2::new(2.0, 1.0)]; // p rotated 90° and shifted
/// let t = fit_rigid(&p, &q);
/// assert!((t.apply(p[1]) - q[1]).norm() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the slices are empty or differ in length.
pub fn fit_rigid(p: &[Vec2], q: &[Vec2]) -> RigidTransform {
    assert!(!p.is_empty(), "fit_rigid: empty point sets");
    assert_eq!(p.len(), q.len(), "fit_rigid: length mismatch");
    fit_rigid_about(p, Vec2::centroid(p), q).0
}

/// [`fit_rigid`] given `pc`, the centroid of `p`: ICP refits the same
/// moving points every pass, so it computes their centroid once. Also
/// returns the `sin_cos` of the fitted rotation, which the translation
/// needs and the next correspondence pass reuses.
pub(crate) fn fit_rigid_about(p: &[Vec2], pc: Vec2, q: &[Vec2]) -> (RigidTransform, (f64, f64)) {
    let qc = Vec2::centroid(q);
    let mut dot = 0.0;
    let mut cross = 0.0;
    for (a, b) in p.iter().zip(q) {
        let pa = *a - pc;
        let qb = *b - qc;
        dot += pa.dot(qb);
        cross += pa.cross(qb);
    }
    let rotation = if dot == 0.0 && cross == 0.0 {
        0.0
    } else {
        cross.atan2(dot)
    };
    let sin_cos = rotation.sin_cos();
    let translation = qc - rotate(pc, sin_cos);
    let t = RigidTransform {
        rotation,
        translation,
    };
    (t, sin_cos)
}

/// `p.rotated(θ)` from `θ.sin_cos()`: the same operations, so the same
/// bits.
#[inline]
pub(crate) fn rotate(p: Vec2, (s, c): (f64, f64)) -> Vec2 {
    Vec2::new(c * p.x - s * p.y, s * p.x + c * p.y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_3, PI};

    /// Mean squared residual `⟨‖T(p_i) − q_i‖²⟩` of a fit.
    fn alignment_cost(t: &RigidTransform, p: &[Vec2], q: &[Vec2]) -> f64 {
        assert_eq!(p.len(), q.len());
        if p.is_empty() {
            return 0.0;
        }
        p.iter()
            .zip(q)
            .map(|(a, b)| t.apply(*a).dist_sq(*b))
            .sum::<f64>()
            / p.len() as f64
    }

    fn sample_cloud() -> Vec<Vec2> {
        vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 2.0),
            Vec2::new(-1.5, 0.5),
            Vec2::new(0.7, -1.1),
        ]
    }

    #[test]
    fn identity_on_matching_sets() {
        let p = sample_cloud();
        let t = fit_rigid(&p, &p);
        assert!(t.rotation.abs() < 1e-12);
        assert!(t.translation.norm() < 1e-12);
        assert!(alignment_cost(&t, &p, &p) < 1e-24);
    }

    #[test]
    fn recovers_known_rotation_translation() {
        let p = sample_cloud();
        let truth = RigidTransform {
            rotation: FRAC_PI_3,
            translation: Vec2::new(3.0, -2.0),
        };
        let q: Vec<Vec2> = p.iter().map(|&x| truth.apply(x)).collect();
        let fitted = fit_rigid(&p, &q);
        assert!((fitted.rotation - truth.rotation).abs() < 1e-12);
        assert!((fitted.translation - truth.translation).norm() < 1e-12);
        assert!(alignment_cost(&fitted, &p, &q) < 1e-20);
    }

    #[test]
    fn single_pair_gives_translation() {
        let t = fit_rigid(&[Vec2::new(1.0, 1.0)], &[Vec2::new(4.0, 5.0)]);
        assert_eq!(t.rotation, 0.0);
        assert_eq!(t.translation, Vec2::new(3.0, 4.0));
    }

    #[test]
    fn coincident_cloud_degenerate_case() {
        let p = vec![Vec2::new(2.0, 2.0); 4];
        let q = vec![Vec2::new(-1.0, 0.0); 4];
        let t = fit_rigid(&p, &q);
        assert_eq!(t.rotation, 0.0);
        assert!((t.apply(p[0]) - q[0]).norm() < 1e-12);
    }

    #[test]
    fn compose_and_inverse() {
        let a = RigidTransform {
            rotation: 0.7,
            translation: Vec2::new(1.0, -2.0),
        };
        let b = RigidTransform {
            rotation: -1.3,
            translation: Vec2::new(0.5, 0.5),
        };
        let x = Vec2::new(3.0, 4.0);
        let via_compose = a.compose(&b).apply(x);
        let sequential = a.apply(b.apply(x));
        assert!((via_compose - sequential).norm() < 1e-12);

        let round_trip = a.inverse().apply(a.apply(x));
        assert!((round_trip - x).norm() < 1e-12);
    }

    #[test]
    fn no_reflection_even_when_reflection_fits_better() {
        // q is p mirrored; the best direct isometry cannot achieve zero
        // cost, and the fit must still return a proper rotation.
        let p = sample_cloud();
        let q: Vec<Vec2> = p.iter().map(|v| Vec2::new(-v.x, v.y)).collect();
        let t = fit_rigid(&p, &q);
        let cost = alignment_cost(&t, &p, &q);
        assert!(cost > 1e-3, "mirror cannot be matched by rotation: {cost}");
    }

    #[test]
    fn half_turn_recovered() {
        let p = sample_cloud();
        let truth = RigidTransform::rotation(PI);
        let q: Vec<Vec2> = p.iter().map(|&x| truth.apply(x)).collect();
        let fitted = fit_rigid(&p, &q);
        assert!(alignment_cost(&fitted, &p, &q) < 1e-20);
    }

    proptest! {
        #[test]
        fn recovers_random_transforms(
            angle in -PI..PI,
            tx in -10.0..10.0f64,
            ty in -10.0..10.0f64,
            seed in 0..u64::MAX
        ) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let p: Vec<Vec2> = (0..12)
                .map(|_| Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)))
                .collect();
            let truth = RigidTransform { rotation: angle, translation: Vec2::new(tx, ty) };
            let q: Vec<Vec2> = p.iter().map(|&x| truth.apply(x)).collect();
            let fitted = fit_rigid(&p, &q);
            prop_assert!(alignment_cost(&fitted, &p, &q) < 1e-16);
        }

        #[test]
        fn cost_is_optimal_vs_perturbations(
            angle in -PI..PI,
            seed in 0..u64::MAX,
            d_angle in -0.3..0.3f64
        ) {
            prop_assume!(d_angle.abs() > 1e-6);
            let mut rng = sops_math::SplitMix64::new(seed);
            let p: Vec<Vec2> = (0..10)
                .map(|_| Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)))
                .collect();
            // Noisy target so the optimum is non-trivial.
            let truth = RigidTransform { rotation: angle, translation: Vec2::new(1.0, 1.0) };
            let q: Vec<Vec2> = p
                .iter()
                .map(|&x| truth.apply(x) + Vec2::new(rng.next_range(-0.1, 0.1), rng.next_range(-0.1, 0.1)))
                .collect();
            let fitted = fit_rigid(&p, &q);
            let perturbed = RigidTransform {
                rotation: fitted.rotation + d_angle,
                translation: fitted.translation,
            };
            // Re-optimize translation for the perturbed rotation to make the
            // comparison fair (translation optimum depends on rotation).
            let pc = Vec2::centroid(&p);
            let qc = Vec2::centroid(&q);
            let perturbed = RigidTransform {
                rotation: perturbed.rotation,
                translation: qc - pc.rotated(perturbed.rotation),
            };
            prop_assert!(
                alignment_cost(&fitted, &p, &q) <= alignment_cost(&perturbed, &p, &q) + 1e-12
            );
        }
    }
}
