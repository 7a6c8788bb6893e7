//! Observer variables over reduced configurations (paper §3.1, §5.3.1).
//!
//! The natural observers are the individual (reduced) particle positions:
//! `n` blocks of dimension 2. For large collectives (the paper switches
//! above 60 particles) the k-means approximation replaces each type's
//! particles by `k` cluster means: `l·k` blocks of dimension 2.

use sops_math::Vec2;
use sops_shape::ensemble::ReducedSet;

/// How reduced configurations are turned into observer blocks.
#[derive(Debug, Clone, Copy)]
pub enum ObserverMode {
    /// One observer per particle (blocks `[2; n]`).
    PerParticle,
    /// §5.3.1: per-type k-means centres as observers (blocks
    /// `[2; l·k_per_type]`). Cross-sample correspondence of centres comes
    /// from canonical ordering in the common aligned frame.
    TypeMeans {
        /// Clusters per type.
        k_per_type: usize,
    },
}

/// Flattened observer matrix: `rows × Σ block_sizes` values plus the block
/// structure, ready for [`sops_info::SampleView`].
#[derive(Debug, Clone)]
pub struct ObserverMatrix {
    /// Row-major sample data.
    pub data: Vec<f64>,
    /// Number of samples.
    pub rows: usize,
    /// Observer block dimensions.
    pub block_sizes: Vec<usize>,
    /// Group label (particle type) of each observer block, for the Eq. 5
    /// decomposition.
    pub block_types: Vec<usize>,
}

impl ObserverMatrix {
    /// A borrowed estimator view of this matrix.
    pub fn view(&self) -> sops_info::SampleView<'_> {
        sops_info::SampleView::new(&self.data, self.rows, &self.block_sizes)
    }
}

/// Builds the observer matrix for one reduced time slice.
///
/// `types[i]` is particle `i`'s type; `type_count` the number of types
/// `l`; `seed` feeds the k-means restarts in [`ObserverMode::TypeMeans`].
pub fn build_observers(
    reduced: &ReducedSet,
    types: &[u16],
    type_count: usize,
    mode: ObserverMode,
    seed: u64,
) -> ObserverMatrix {
    let rows = reduced.configs.len();
    match mode {
        ObserverMode::PerParticle => {
            let n = types.len();
            let mut data = Vec::with_capacity(rows * n * 2);
            for cfg in &reduced.configs {
                debug_assert_eq!(cfg.len(), n);
                for p in cfg {
                    data.push(p.x);
                    data.push(p.y);
                }
            }
            ObserverMatrix {
                data,
                rows,
                block_sizes: vec![2; n],
                block_types: types.iter().map(|&t| t as usize).collect(),
            }
        }
        ObserverMode::TypeMeans { k_per_type } => {
            assert!(k_per_type >= 1, "TypeMeans: k_per_type must be >= 1");
            let blocks = type_count * k_per_type;
            let mut data = Vec::with_capacity(rows * blocks * 2);
            for cfg in &reduced.configs {
                // Same seed for every sample: clustering must be a
                // deterministic function of the configuration alone so
                // that observers are comparable across samples.
                let means: Vec<Vec2> =
                    sops_cluster::per_type_means(cfg, types, type_count, k_per_type, seed);
                for m in means {
                    data.push(m.x);
                    data.push(m.y);
                }
            }
            let mut block_types = Vec::with_capacity(blocks);
            for t in 0..type_count {
                for _ in 0..k_per_type {
                    block_types.push(t);
                }
            }
            ObserverMatrix {
                data,
                rows,
                block_sizes: vec![2; blocks],
                block_types,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced_fixture() -> (ReducedSet, Vec<u16>) {
        // Two samples, 4 particles, 2 types.
        let configs = vec![
            vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(1.0, 0.0),
                Vec2::new(5.0, 5.0),
                Vec2::new(6.0, 5.0),
            ],
            vec![
                Vec2::new(0.1, 0.0),
                Vec2::new(1.1, 0.0),
                Vec2::new(5.1, 5.0),
                Vec2::new(6.1, 5.0),
            ],
        ];
        (
            ReducedSet {
                configs,
                icp_costs: vec![0.0, 0.0],
            },
            vec![0u16, 0, 1, 1],
        )
    }

    #[test]
    fn per_particle_layout() {
        let (reduced, types) = reduced_fixture();
        let m = build_observers(&reduced, &types, 2, ObserverMode::PerParticle, 1);
        assert_eq!(m.rows, 2);
        assert_eq!(m.block_sizes, vec![2, 2, 2, 2]);
        assert_eq!(m.block_types, vec![0, 0, 1, 1]);
        assert_eq!(m.data.len(), 16);
        assert_eq!(&m.data[0..4], &[0.0, 0.0, 1.0, 0.0]);
        // View round-trips.
        let v = m.view();
        assert_eq!(v.blocks(), 4);
    }

    #[test]
    fn type_means_layout_and_determinism() {
        let (reduced, types) = reduced_fixture();
        let mode = ObserverMode::TypeMeans { k_per_type: 1 };
        let a = build_observers(&reduced, &types, 2, mode, 7);
        let b = build_observers(&reduced, &types, 2, mode, 7);
        assert_eq!(a.data, b.data);
        assert_eq!(a.block_sizes, vec![2, 2]);
        assert_eq!(a.block_types, vec![0, 1]);
        // k = 1 means are the per-type centroids.
        assert!((a.data[0] - 0.5).abs() < 1e-12); // type-0 mean x of sample 0
        assert!((a.data[2] - 5.5).abs() < 1e-12); // type-1 mean x of sample 0
    }

    #[test]
    fn type_means_two_clusters() {
        let (reduced, types) = reduced_fixture();
        let mode = ObserverMode::TypeMeans { k_per_type: 2 };
        let m = build_observers(&reduced, &types, 2, mode, 3);
        assert_eq!(m.block_sizes.len(), 4);
        assert_eq!(m.block_types, vec![0, 0, 1, 1]);
        // Each particle is its own cluster; canonical order sorts by x.
        assert_eq!(&m.data[0..4], &[0.0, 0.0, 1.0, 0.0]);
    }
}
