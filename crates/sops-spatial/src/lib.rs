//! Spatial indexing substrate.
//!
//! Three consumers in the workspace need neighbourhood queries:
//!
//! * the **simulator** sums forces over all particles within the cut-off
//!   radius `r_c` (paper Eq. 6) — served by [`CellGrid`], a uniform-grid
//!   neighbour list rebuilt per step in `O(n)`;
//! * the **grid-regularity metrics** (`sops_core::metrics`, Fig. 3) need
//!   each particle's nearest other particle — served by
//!   [`KdTree::nearest_excluding`];
//! * the **KSG estimator** (paper Eq. 18–20) needs per-variable strict
//!   range counts and joint-space k-NN under a max-over-blocks metric —
//!   served by [`KdTree::count_within`] per block and, for the joint
//!   search, [`block_max::knn_block_max_into`] (pruned scan, high joint
//!   dimension) or [`block_max::knn_block_max_tree_into`] (iterative
//!   kd-tree descent, low joint dimension). [`KdTree::rebuild`] re-indexes
//!   in place so persistent engines never reallocate.
//!
//! [`brute`] holds the obviously-correct `O(n²)` references that the
//! property tests compare against and that small inputs fall back to.
//!
//! The ICP alignment (paper §5.2) is not a consumer: its per-type point
//! sets hold at most 40 points in shipped use, where `sops_shape::icp`'s
//! flat lane scan beats a kd-tree.

pub mod block_max;
pub mod brute;
mod cellgrid;
mod kdtree;

pub use cellgrid::CellGrid;
pub use kdtree::KdTree;

/// Squared Euclidean distance between two equal-length coordinate slices.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_sq_basic() {
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist_sq(&[1.0], &[1.0]), 0.0);
    }
}
