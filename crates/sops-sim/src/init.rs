//! Initial conditions (paper §5.1).
//!
//! Particles are initialized "with a uniform distribution on a disc of
//! fixed radius" centred at the origin. The paper argues (§4.2) that this
//! choice keeps the ensemble rotation- and permutation-invariant while
//! avoiding the impractically sparse sampling a translation-invariant
//! initialization over all of ℝ² would require.

use sops_math::{SplitMix64, Vec2};

/// Samples `n` points uniformly (by area) on the disc of radius `radius`
/// centred at the origin.
///
/// Uses the inverse-CDF radius transform `r = R √u`, which is exact.
pub(crate) fn uniform_disc(n: usize, radius: f64, rng: &mut SplitMix64) -> Vec<Vec2> {
    assert!(radius > 0.0, "uniform_disc: radius must be positive");
    (0..n)
        .map(|_| {
            let r = radius * rng.next_f64().sqrt();
            let theta = rng.next_f64() * std::f64::consts::TAU;
            Vec2::from_polar(r, theta)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disc_points_inside_radius() {
        let mut rng = SplitMix64::new(3);
        let pts = uniform_disc(5000, 4.0, &mut rng);
        assert_eq!(pts.len(), 5000);
        assert!(pts.iter().all(|p| p.norm() <= 4.0 + 1e-12));
    }

    #[test]
    fn disc_is_uniform_by_area() {
        // Under area-uniformity, the fraction inside radius R/2 is 1/4.
        let mut rng = SplitMix64::new(17);
        let pts = uniform_disc(40_000, 2.0, &mut rng);
        let inner = pts.iter().filter(|p| p.norm() <= 1.0).count();
        let frac = inner as f64 / pts.len() as f64;
        assert!(
            (frac - 0.25).abs() < 0.01,
            "inner-disc fraction {frac}, want ~0.25"
        );
    }

    #[test]
    fn disc_is_isotropic() {
        let mut rng = SplitMix64::new(23);
        let pts = uniform_disc(40_000, 1.0, &mut rng);
        let mean = Vec2::centroid(&pts);
        assert!(
            mean.norm() < 0.02,
            "centroid {mean:?} should be near origin"
        );
        let right = pts.iter().filter(|p| p.x > 0.0).count() as f64;
        assert!((right / pts.len() as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn disc_reproducible_per_seed() {
        let a = uniform_disc(10, 1.0, &mut SplitMix64::new(7));
        let b = uniform_disc(10, 1.0, &mut SplitMix64::new(7));
        assert_eq!(a, b);
    }
}
