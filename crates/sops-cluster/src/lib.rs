//! k-means clustering (paper §5.3.1).
//!
//! For large collectives the paper approximates the observer set: "we
//! perform a k-means clustering on the particles of each type and thus
//! recover `l · k` mean variables". This crate provides a deterministic
//! k-means++ / Lloyd implementation over 2-D points and the per-type
//! coarse-observer helper.
//!
//! Cross-sample correspondence of cluster means is established by
//! canonical ordering (lexicographic by centre coordinates) — valid
//! because every sample has already been ICP-aligned into a common frame
//! when the approximation is applied. The ordering is this library's
//! choice; the paper does not specify one.

use sops_math::{SplitMix64, Vec2};

/// Parameters for [`kmeans`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iterations: usize,
    /// Independent k-means++ restarts; the lowest-inertia result wins.
    pub restarts: usize,
    /// Stop when inertia improves by less than this relative amount.
    pub tolerance: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 2,
            max_iterations: 50,
            restarts: 4,
            tolerance: 1e-9,
        }
    }
}

/// Result of a clustering.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centres in canonical order (lexicographic by `(x, y)`).
    pub centers: Vec<Vec2>,
    /// `assignment[i]` — index into `centers` for point `i`.
    pub assignment: Vec<usize>,
    /// Sum of squared distances of points to their assigned centre.
    pub inertia: f64,
}

/// Runs k-means++ / Lloyd on `points`.
///
/// If `k >= points.len()`, every point becomes its own centre (and empty
/// clusters are avoided by construction). Deterministic in `seed`.
///
/// ```
/// use sops_cluster::{kmeans, KMeansConfig};
/// use sops_math::Vec2;
/// let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(0.1, 0.0), Vec2::new(9.0, 0.0)];
/// let result = kmeans(&pts, &KMeansConfig { k: 2, ..Default::default() }, 1);
/// assert_eq!(result.assignment, vec![0, 0, 1]); // canonical order: left centre first
/// ```
///
/// # Panics
///
/// Panics if `points` is empty or `cfg.k == 0`.
pub fn kmeans(points: &[Vec2], cfg: &KMeansConfig, seed: u64) -> KMeans {
    assert!(!points.is_empty(), "kmeans: no points");
    assert!(cfg.k > 0, "kmeans: k must be >= 1");
    let k = cfg.k.min(points.len());

    let mut best: Option<KMeans> = None;
    for restart in 0..cfg.restarts.max(1) {
        let mut rng = SplitMix64::new(sops_math::rng::derive_seed(seed, restart as u64));
        let candidate = lloyd(points, k, cfg, &mut rng);
        if best.as_ref().is_none_or(|b| candidate.inertia < b.inertia) {
            best = Some(candidate);
        }
    }
    let mut result = best.expect("kmeans: at least one restart");
    canonicalize(&mut result);
    result
}

fn lloyd(points: &[Vec2], k: usize, cfg: &KMeansConfig, rng: &mut SplitMix64) -> KMeans {
    let mut centers = plus_plus_init(points, k, rng);
    let mut assignment = vec![0usize; points.len()];
    let mut prev_inertia = f64::INFINITY;
    for it in 0..cfg.max_iterations {
        // Assign.
        let mut inertia = 0.0;
        for (i, &p) in points.iter().enumerate() {
            let (ci, d2) = nearest_center(&centers, p);
            assignment[i] = ci;
            inertia += d2;
        }
        if it > 0 && prev_inertia - inertia <= cfg.tolerance * prev_inertia {
            break;
        }
        prev_inertia = inertia;
        // Update.
        let mut sums = vec![Vec2::ZERO; k];
        let mut counts = vec![0usize; k];
        for (&p, &a) in points.iter().zip(&assignment) {
            sums[a] += p;
            counts[a] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centers[c] = sums[c] / counts[c] as f64;
            } else {
                // Re-seed an empty cluster at the point farthest from its
                // centre — the standard fix keeping exactly k clusters.
                let (far_i, _) = points
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (i, nearest_center(&centers, p).1))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                centers[c] = points[far_i];
            }
        }
    }
    // Final assignment pass so `assignment`/`inertia` always correspond to
    // the returned centres, even when the iteration cap was hit right
    // after a centre update.
    let mut inertia = 0.0;
    for (i, &p) in points.iter().enumerate() {
        let (ci, d2) = nearest_center(&centers, p);
        assignment[i] = ci;
        inertia += d2;
    }
    KMeans {
        centers,
        assignment,
        inertia,
    }
}

/// k-means++ seeding: first centre uniform, subsequent centres sampled
/// with probability proportional to squared distance to the nearest
/// chosen centre.
fn plus_plus_init(points: &[Vec2], k: usize, rng: &mut SplitMix64) -> Vec<Vec2> {
    let mut centers = Vec::with_capacity(k);
    centers.push(points[rng.next_below(points.len() as u64) as usize]);
    let mut d2: Vec<f64> = points.iter().map(|&p| p.dist_sq(centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centres; any point works.
            points[rng.next_below(points.len() as u64) as usize]
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = points.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            points[chosen]
        };
        centers.push(next);
        for (i, &p) in points.iter().enumerate() {
            d2[i] = d2[i].min(p.dist_sq(next));
        }
    }
    centers
}

fn nearest_center(centers: &[Vec2], p: Vec2) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, &c) in centers.iter().enumerate() {
        let d2 = p.dist_sq(c);
        if d2 < best.1 {
            best = (i, d2);
        }
    }
    best
}

/// Sorts centres lexicographically and remaps assignments accordingly.
fn canonicalize(result: &mut KMeans) {
    let k = result.centers.len();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let ca = result.centers[a];
        let cb = result.centers[b];
        ca.x.partial_cmp(&cb.x)
            .unwrap()
            .then(ca.y.partial_cmp(&cb.y).unwrap())
    });
    let mut rank = vec![0usize; k];
    for (new_idx, &old_idx) in order.iter().enumerate() {
        rank[old_idx] = new_idx;
    }
    result.centers = order.iter().map(|&i| result.centers[i]).collect();
    for a in result.assignment.iter_mut() {
        *a = rank[*a];
    }
}

/// The coarse observers of §5.3.1: clusters each type's particles into
/// `k_per_type` clusters and returns the `l · k` centres ordered by
/// `(type, canonical centre order)`.
///
/// Types with fewer than `k_per_type` particles contribute one centre per
/// particle, *padded* by repeating their last centre so every sample yields
/// the same observer count (required for cross-sample estimation).
pub fn per_type_means(
    points: &[Vec2],
    types: &[u16],
    type_count: usize,
    k_per_type: usize,
    cfg: &KMeansConfig,
    seed: u64,
) -> Vec<Vec2> {
    assert_eq!(points.len(), types.len(), "per_type_means: length mismatch");
    assert!(k_per_type > 0);
    let mut out = Vec::with_capacity(type_count * k_per_type);
    for t in 0..type_count {
        let members: Vec<Vec2> = points
            .iter()
            .zip(types)
            .filter(|(_, &ty)| ty as usize == t)
            .map(|(&p, _)| p)
            .collect();
        assert!(
            !members.is_empty(),
            "per_type_means: type {t} has no particles"
        );
        let sub = kmeans(
            &members,
            &KMeansConfig {
                k: k_per_type,
                ..*cfg
            },
            sops_math::rng::derive_seed(seed, t as u64),
        );
        let got = sub.centers.len();
        out.extend_from_slice(&sub.centers);
        for _ in got..k_per_type {
            out.push(*sub.centers.last().unwrap());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_blobs(n_each: usize, sep: f64, seed: u64) -> Vec<Vec2> {
        let mut rng = SplitMix64::new(seed);
        let mut pts = Vec::new();
        for _ in 0..n_each {
            pts.push(Vec2::new(
                rng.next_range(-0.5, 0.5) - sep / 2.0,
                rng.next_range(-0.5, 0.5),
            ));
        }
        for _ in 0..n_each {
            pts.push(Vec2::new(
                rng.next_range(-0.5, 0.5) + sep / 2.0,
                rng.next_range(-0.5, 0.5),
            ));
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs(50, 10.0, 1);
        let res = kmeans(&pts, &KMeansConfig::default(), 42);
        assert_eq!(res.centers.len(), 2);
        // Canonical order: left blob first.
        assert!(res.centers[0].x < -4.0);
        assert!(res.centers[1].x > 4.0);
        // All left points in cluster 0, right points in cluster 1.
        for (i, &a) in res.assignment.iter().enumerate() {
            assert_eq!(a, usize::from(i >= 50), "point {i}");
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blobs(40, 6.0, 3);
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let res = kmeans(
                &pts,
                &KMeansConfig {
                    k,
                    ..KMeansConfig::default()
                },
                7,
            );
            assert!(
                res.inertia <= last + 1e-9,
                "k={k}: inertia {} did not decrease from {last}",
                res.inertia
            );
            last = res.inertia;
        }
    }

    #[test]
    fn k_equal_points_gives_zero_inertia() {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(5.0, 0.0),
            Vec2::new(0.0, 5.0),
        ];
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..KMeansConfig::default()
            },
            5,
        );
        assert!(res.inertia < 1e-18);
    }

    #[test]
    fn k_larger_than_point_count_clamped() {
        let pts = vec![Vec2::new(1.0, 1.0), Vec2::new(2.0, 2.0)];
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 10,
                ..KMeansConfig::default()
            },
            5,
        );
        assert_eq!(res.centers.len(), 2);
    }

    #[test]
    fn deterministic_in_seed() {
        let pts = two_blobs(30, 4.0, 9);
        let a = kmeans(&pts, &KMeansConfig::default(), 11);
        let b = kmeans(&pts, &KMeansConfig::default(), 11);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn canonical_center_order() {
        let pts = two_blobs(20, 8.0, 13);
        let res = kmeans(&pts, &KMeansConfig::default(), 17);
        for w in res.centers.windows(2) {
            assert!(
                w[0].x < w[1].x || (w[0].x == w[1].x && w[0].y <= w[1].y),
                "centers not canonically ordered"
            );
        }
    }

    #[test]
    fn identical_points_do_not_crash() {
        let pts = vec![Vec2::new(3.0, 3.0); 10];
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..KMeansConfig::default()
            },
            23,
        );
        assert!(res.inertia < 1e-18);
        assert_eq!(res.assignment.len(), 10);
    }

    #[test]
    fn per_type_means_layout() {
        // Type 0: two blobs near x = ±5; type 1: single blob at y = 10.
        let mut pts = two_blobs(20, 10.0, 31);
        let mut types = vec![0u16; pts.len()];
        for i in 0..10 {
            pts.push(Vec2::new(i as f64 * 0.01, 10.0));
            types.push(1);
        }
        let obs = per_type_means(&pts, &types, 2, 2, &KMeansConfig::default(), 3);
        assert_eq!(obs.len(), 4);
        // Type-0 centres around ±5.
        assert!(obs[0].x < -4.0 && obs[1].x > 4.0);
        // Type-1 centres near y = 10 (k=2 splits the strip; both near 10).
        assert!((obs[2].y - 10.0).abs() < 0.5);
        assert!((obs[3].y - 10.0).abs() < 0.5);
    }

    #[test]
    fn per_type_means_pads_small_types() {
        let pts = vec![
            Vec2::new(1.0, 2.0),
            Vec2::new(5.0, 5.0),
            Vec2::new(5.5, 5.0),
        ];
        let types = vec![0u16, 1, 1];
        let obs = per_type_means(&pts, &types, 2, 2, &KMeansConfig::default(), 3);
        assert_eq!(obs.len(), 4);
        // Type 0 has one particle: centre repeated.
        assert_eq!(obs[0], obs[1]);
        assert_eq!(obs[0], Vec2::new(1.0, 2.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn every_point_assigned_to_nearest_center(seed in 0..u64::MAX, n in 5..60usize, k in 1..5usize) {
            let mut rng = SplitMix64::new(seed);
            let pts: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.next_range(-10.0, 10.0), rng.next_range(-10.0, 10.0)))
                .collect();
            let res = kmeans(&pts, &KMeansConfig { k, ..KMeansConfig::default() }, seed);
            for (i, &a) in res.assignment.iter().enumerate() {
                let assigned = pts[i].dist_sq(res.centers[a]);
                for &c in &res.centers {
                    prop_assert!(assigned <= pts[i].dist_sq(c) + 1e-9);
                }
            }
        }

        #[test]
        fn inertia_matches_assignment(seed in 0..u64::MAX, n in 5..40usize) {
            let mut rng = SplitMix64::new(seed);
            let pts: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)))
                .collect();
            let res = kmeans(&pts, &KMeansConfig { k: 3, ..KMeansConfig::default() }, seed);
            let recomputed: f64 = pts
                .iter()
                .zip(&res.assignment)
                .map(|(&p, &a)| p.dist_sq(res.centers[a]))
                .sum();
            prop_assert!((recomputed - res.inertia).abs() <= 1e-6 * (1.0 + res.inertia));
        }
    }
}
