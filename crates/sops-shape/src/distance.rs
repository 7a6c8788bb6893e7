//! Shape distance and shape-category clustering.
//!
//! The Procrustes-style distance between two typed configurations is the
//! root-mean-square residual after the optimal rigid alignment (type-aware
//! ICP) and same-type re-indexing — i.e. distance in the quotient space
//! `Z / (ISO⁺(2) × S*_n)` the paper's observers live in (§4.2).
//!
//! On top of it, [`cluster_shapes`] groups an ensemble's final
//! configurations into shape categories by single-linkage clustering at a
//! distance threshold — making Fig. 6's "several visually distinguishable
//! categories" a measurable quantity.

use crate::icp::{icp_align_with, IcpConfig, IcpScratch};
use crate::permutation::{match_types_into, matching_cost, MatchScratch};
use sops_math::Vec2;

/// Single-linkage clustering of configurations at a shape-distance
/// threshold; returns a category label per configuration (labels are
/// 0-based, ordered by first occurrence).
///
/// `O(m²)` distance evaluations with a union-find merge — fine for the
/// gallery-sized inputs it serves (m ≤ a few hundred). One ICP and one
/// matching scratch serve every pair.
pub fn cluster_shapes(
    configs: &[&[Vec2]],
    types: &[u16],
    threshold: f64,
    cfg: &IcpConfig,
) -> Vec<usize> {
    let m = configs.len();
    let mut uf = UnionFind::new(m);
    let mut scratch = DistanceScratch::default();
    for i in 0..m {
        for j in (i + 1)..m {
            if uf.find(i) == uf.find(j) {
                continue; // already linked through another sample
            }
            if shape_distance(&mut scratch, configs[i], configs[j], types, cfg) <= threshold {
                uf.union(i, j);
            }
        }
    }
    // Canonical labels by first occurrence.
    let mut label_of_root = std::collections::HashMap::new();
    let mut labels = Vec::with_capacity(m);
    for i in 0..m {
        let root = uf.find(i);
        let next = label_of_root.len();
        labels.push(*label_of_root.entry(root).or_insert(next));
    }
    labels
}

/// The ICP and matching buffers [`shape_distance`] reuses across pairs.
#[derive(Default)]
struct DistanceScratch {
    icp: IcpScratch,
    matching: MatchScratch,
    perm: Vec<usize>,
}

/// Root-mean-square distance between two configurations after optimal
/// alignment and type-preserving matching.
///
/// Symmetric up to ICP local optima (alignment runs from `b` onto `a`);
/// callers needing guaranteed symmetry can average both directions.
fn shape_distance(
    scratch: &mut DistanceScratch,
    a: &[Vec2],
    b: &[Vec2],
    types: &[u16],
    cfg: &IcpConfig,
) -> f64 {
    assert_eq!(a.len(), b.len(), "shape_distance: size mismatch");
    assert_eq!(a.len(), types.len(), "shape_distance: types mismatch");
    let mut a_c = a.to_vec();
    let mut b_c = b.to_vec();
    crate::center(&mut a_c);
    crate::center(&mut b_c);
    let res = icp_align_with(&mut scratch.icp, &a_c, &b_c, types, cfg);
    res.transform.apply_all(&mut b_c);
    match_types_into(&mut scratch.matching, &a_c, &b_c, types, &mut scratch.perm);
    (matching_cost(&a_c, &b_c, &scratch.perm) / a.len() as f64).sqrt()
}

/// Number of distinct categories in a label vector.
pub fn category_count(labels: &[usize]) -> usize {
    let mut seen: Vec<usize> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Path-compressed union-find.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kabsch::RigidTransform;
    use sops_math::SplitMix64;

    /// [`shape_distance`] on a fresh scratch with the default ICP.
    fn distance(a: &[Vec2], b: &[Vec2], types: &[u16]) -> f64 {
        shape_distance(
            &mut DistanceScratch::default(),
            a,
            b,
            types,
            &IcpConfig::default(),
        )
    }

    fn blob(seed: u64) -> Vec<Vec2> {
        let mut rng = SplitMix64::new(seed);
        (0..10)
            .map(|_| Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0)))
            .collect()
    }

    #[test]
    fn identical_shapes_have_zero_distance() {
        let a = blob(1);
        let types = vec![0u16; a.len()];
        let d = distance(&a, &a, &types);
        assert!(d < 1e-9, "self distance {d}");
        // Rigid copies too.
        let t = RigidTransform {
            rotation: 1.3,
            translation: Vec2::new(5.0, -2.0),
        };
        let moved: Vec<Vec2> = a.iter().map(|&p| t.apply(p)).collect();
        let d = distance(&a, &moved, &types);
        assert!(d < 1e-6, "rigid-copy distance {d}");
    }

    #[test]
    fn different_shapes_have_positive_distance() {
        let a = blob(1);
        let b = blob(2);
        let types = vec![0u16; a.len()];
        let d = distance(&a, &b, &types);
        assert!(d > 0.1, "distinct blobs: {d}");
    }

    #[test]
    fn distance_scales_with_perturbation() {
        let a = blob(3);
        let types = vec![0u16; a.len()];
        let mut rng = SplitMix64::new(9);
        let perturb = |scale: f64, rng: &mut SplitMix64| -> Vec<Vec2> {
            a.iter()
                .map(|&p| {
                    p + Vec2::new(rng.next_range(-scale, scale), rng.next_range(-scale, scale))
                })
                .collect()
        };
        let small = distance(&a, &perturb(0.05, &mut rng), &types);
        let large = distance(&a, &perturb(1.0, &mut rng), &types);
        assert!(small < large, "{small} !< {large}");
        assert!(small < 0.1);
    }

    #[test]
    fn clustering_separates_two_shape_families() {
        // Family A: rigid+noise copies of blob(1); family B: of blob(20).
        let base_a = blob(1);
        let base_b = blob(20);
        let types = vec![0u16; base_a.len()];
        let mut rng = SplitMix64::new(5);
        let mut configs: Vec<Vec<Vec2>> = Vec::new();
        for i in 0..4 {
            let t = RigidTransform {
                rotation: rng.next_range(-3.0, 3.0),
                translation: Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)),
            };
            let base = if i % 2 == 0 { &base_a } else { &base_b };
            configs.push(
                base.iter()
                    .map(|&p| {
                        t.apply(p)
                            + Vec2::new(rng.next_range(-0.02, 0.02), rng.next_range(-0.02, 0.02))
                    })
                    .collect(),
            );
        }
        let views: Vec<&[Vec2]> = configs.iter().map(|c| c.as_slice()).collect();
        let labels = cluster_shapes(&views, &types, 0.2, &IcpConfig::default());
        assert_eq!(category_count(&labels), 2, "labels {labels:?}");
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[1], labels[3]);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn everything_merges_at_huge_threshold() {
        let configs = [blob(1), blob(2), blob(3)];
        let types = vec![0u16; configs[0].len()];
        let views: Vec<&[Vec2]> = configs.iter().map(|c| c.as_slice()).collect();
        let labels = cluster_shapes(&views, &types, 1e6, &IcpConfig::default());
        assert_eq!(category_count(&labels), 1);
    }

    #[test]
    fn nothing_merges_at_zero_threshold() {
        let configs = [blob(1), blob(2), blob(3)];
        let types = vec![0u16; configs[0].len()];
        let views: Vec<&[Vec2]> = configs.iter().map(|c| c.as_slice()).collect();
        let labels = cluster_shapes(&views, &types, 0.0, &IcpConfig::default());
        assert_eq!(category_count(&labels), 3);
    }
}
