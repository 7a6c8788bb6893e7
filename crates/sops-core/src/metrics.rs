//! Shape diagnostics for the gallery figures and the single-type analyses.
//!
//! * nearest-neighbour distance CV — grid regularity (Fig. 3's "regular
//!   grid" claim);
//! * ring decomposition + angular statistics — the concentric-polygon
//!   configurations of Figs. 5 and 7;
//! * per-particle cross-sample dispersion — Fig. 7's tight outer ring vs
//!   smeared inner ring;
//! * radial type stratification — Fig. 12's "balls enclosed in circles,
//!   layers of different types".

use sops_math::{stats, Vec2};
use sops_spatial::KdTree;

/// Coefficient of variation of nearest-neighbour distances — near zero
/// for a regular grid, larger for irregular configurations.
pub(crate) fn nn_distance_cv(points: &[Vec2]) -> f64 {
    assert!(points.len() >= 2, "nn_distance_cv: need at least 2 points");
    let flat: Vec<f64> = points.iter().flat_map(|p| [p.x, p.y]).collect();
    let tree = KdTree::build(2, &flat);
    let dists: Vec<f64> = (0..points.len())
        .map(|i| {
            let (_, d2) = tree
                .nearest_excluding(&[points[i].x, points[i].y], |j| j == i)
                .expect("nn_distance_cv: isolated point");
            d2.sqrt()
        })
        .collect();
    stats::coefficient_of_variation(&dists)
}

/// Radius of gyration about the centroid.
pub(crate) fn radius_of_gyration(points: &[Vec2]) -> f64 {
    let c = Vec2::centroid(points);
    let ms: f64 = points.iter().map(|p| p.dist_sq(c)).sum::<f64>() / points.len() as f64;
    ms.sqrt()
}

/// Splits a centred configuration into radial rings: particles are sorted
/// by distance from the centroid and cut where consecutive radii jump by
/// more than `gap_factor` × median radius step.
///
/// Returns per-ring particle indices, innermost first. The two concentric
/// polygons of Fig. 7 come out as two rings.
pub fn ring_decomposition(points: &[Vec2], gap_factor: f64) -> Vec<Vec<usize>> {
    let c = Vec2::centroid(points);
    let mut order: Vec<(usize, f64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p.dist(c)))
        .collect();
    order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    if order.len() <= 1 {
        return vec![order.iter().map(|&(i, _)| i).collect()];
    }
    let steps: Vec<f64> = order.windows(2).map(|w| w[1].1 - w[0].1).collect();
    let median_step = stats::quantile(&steps, 0.5).max(1e-12);
    let mut rings = vec![Vec::new()];
    rings[0].push(order[0].0);
    for (w, &step) in order.windows(2).zip(&steps) {
        if step > gap_factor * median_step {
            rings.push(Vec::new());
        }
        rings.last_mut().unwrap().push(w[1].0);
    }
    rings
}

/// Mean radius of a set of particles about the collective centroid.
pub fn ring_radius(points: &[Vec2], ring: &[usize]) -> f64 {
    let c = Vec2::centroid(points);
    ring.iter().map(|&i| points[i].dist(c)).sum::<f64>() / ring.len() as f64
}

/// Per-particle cross-sample dispersion: for each particle index, the
/// root-mean-square distance of its position across samples from its
/// cross-sample mean. Input layout: `samples[s][i]`.
///
/// Fig. 7's observation is that outer-ring particles have small dispersion
/// (well aligned) while inner-ring particles are smeared by the free
/// relative rotation.
pub fn cross_sample_dispersion(samples: &[Vec<Vec2>]) -> Vec<f64> {
    assert!(!samples.is_empty());
    let n = samples[0].len();
    let m = samples.len() as f64;
    (0..n)
        .map(|i| {
            let mean: Vec2 = samples.iter().map(|s| s[i]).sum::<Vec2>() / m;
            let ms: f64 = samples.iter().map(|s| s[i].dist_sq(mean)).sum::<f64>() / m;
            ms.sqrt()
        })
        .collect()
}

/// Radial type stratification: Spearman-like association between a
/// particle's type id and the rank of its distance from the centroid.
///
/// Near ±1 when types form concentric layers (Fig. 12), near 0 when types
/// are radially mixed. Uses the correlation of type value with radius
/// rank.
pub(crate) fn radial_stratification(points: &[Vec2], types: &[u16]) -> f64 {
    assert_eq!(points.len(), types.len());
    let c = Vec2::centroid(points);
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .dist_sq(c)
            .partial_cmp(&points[b].dist_sq(c))
            .unwrap()
    });
    let mut rank = vec![0.0; points.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r as f64;
    }
    let tvals: Vec<f64> = types.iter().map(|&t| t as f64).collect();
    stats::correlation(&tvals, &rank)
}

/// Mean distance between the centroids of each type's particles —
/// "sortedness" of a multi-type collective (differential adhesion demo).
pub fn type_separation(points: &[Vec2], types: &[u16], type_count: usize) -> f64 {
    let mut centroids = Vec::with_capacity(type_count);
    for t in 0..type_count {
        let members: Vec<Vec2> = points
            .iter()
            .zip(types)
            .filter(|(_, &ty)| ty as usize == t)
            .map(|(&p, _)| p)
            .collect();
        assert!(!members.is_empty(), "type_separation: empty type {t}");
        centroids.push(Vec2::centroid(&members));
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for a in 0..type_count {
        for b in (a + 1)..type_count {
            total += centroids[a].dist(centroids[b]);
            pairs += 1;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_grid(side: usize, spacing: f64) -> Vec<Vec2> {
        let mut pts = Vec::new();
        for i in 0..side {
            for j in 0..side {
                pts.push(Vec2::new(i as f64 * spacing, j as f64 * spacing));
            }
        }
        pts
    }

    fn ring(n: usize, radius: f64, phase: f64) -> Vec<Vec2> {
        (0..n)
            .map(|i| Vec2::from_polar(radius, phase + std::f64::consts::TAU * i as f64 / n as f64))
            .collect()
    }

    #[test]
    fn grid_has_low_nn_cv() {
        let grid = square_grid(6, 1.0);
        assert!(nn_distance_cv(&grid) < 1e-9, "perfect grid CV ~ 0");
    }

    #[test]
    fn random_cloud_has_high_nn_cv() {
        let mut rng = sops_math::SplitMix64::new(12);
        let pts: Vec<Vec2> = (0..100)
            .map(|_| Vec2::new(rng.next_range(0.0, 10.0), rng.next_range(0.0, 10.0)))
            .collect();
        assert!(nn_distance_cv(&pts) > 0.2);
    }

    #[test]
    fn radius_of_gyration_of_ring() {
        let pts = ring(16, 3.0, 0.0);
        assert!((radius_of_gyration(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_rings_detected() {
        let mut pts = ring(6, 1.0, 0.3);
        pts.extend(ring(12, 3.0, 0.0));
        let rings = ring_decomposition(&pts, 4.0);
        assert_eq!(rings.len(), 2, "rings: {rings:?}");
        assert_eq!(rings[0].len(), 6);
        assert_eq!(rings[1].len(), 12);
        assert!(ring_radius(&pts, &rings[0]) < ring_radius(&pts, &rings[1]));
    }

    #[test]
    fn single_ring_not_split() {
        let pts = ring(10, 2.0, 0.0);
        let rings = ring_decomposition(&pts, 4.0);
        assert_eq!(rings.len(), 1);
    }

    #[test]
    fn dispersion_detects_smeared_particles() {
        // Particle 0 fixed across samples; particle 1 jitters.
        let mut rng = sops_math::SplitMix64::new(5);
        let samples: Vec<Vec<Vec2>> = (0..200)
            .map(|_| {
                vec![
                    Vec2::new(1.0, 1.0),
                    Vec2::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)),
                ]
            })
            .collect();
        let disp = cross_sample_dispersion(&samples);
        assert!(disp[0] < 1e-12);
        assert!(disp[1] > 0.3);
    }

    #[test]
    fn stratified_types_score_high() {
        // Type 0 inner ring, type 1 outer ring.
        let mut pts = ring(8, 1.0, 0.0);
        pts.extend(ring(8, 4.0, 0.0));
        let types: Vec<u16> = (0..16).map(|i| u16::from(i >= 8)).collect();
        let s = radial_stratification(&pts, &types);
        // Point-biserial correlation of a balanced binary label against
        // uniform ranks tops out at sqrt(3)/2 ≈ 0.866.
        assert!(s > 0.8, "stratification {s}");
    }

    #[test]
    fn mixed_types_score_low() {
        let mut rng = sops_math::SplitMix64::new(77);
        let pts: Vec<Vec2> = (0..200)
            .map(|_| Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)))
            .collect();
        let types: Vec<u16> = (0..200).map(|i| (i % 2) as u16).collect();
        let s = radial_stratification(&pts, &types);
        assert!(s.abs() < 0.25, "mixed stratification {s}");
    }

    #[test]
    fn separation_of_sorted_vs_mixed() {
        // Sorted: types in separate blobs far apart.
        let mut sorted_pts = Vec::new();
        let mut types = Vec::new();
        for i in 0..10 {
            sorted_pts.push(Vec2::new(i as f64 * 0.1, 0.0));
            types.push(0u16);
        }
        for i in 0..10 {
            sorted_pts.push(Vec2::new(10.0 + i as f64 * 0.1, 0.0));
            types.push(1u16);
        }
        let sep_sorted = type_separation(&sorted_pts, &types, 2);
        // Mixed: interleaved.
        let mixed_pts: Vec<Vec2> = (0..20).map(|i| Vec2::new(i as f64 * 0.1, 0.0)).collect();
        let mixed_types: Vec<u16> = (0..20).map(|i| (i % 2) as u16).collect();
        let sep_mixed = type_separation(&mixed_pts, &mixed_types, 2);
        assert!(sep_sorted > 5.0 * sep_mixed);
    }
}
