//! Spatial indexing substrate.
//!
//! Three consumers in the workspace need neighbourhood queries, and the
//! crate ships what they call and nothing else:
//!
//! * the **simulator** (`sops_sim::ForceWorkspace`) sums forces over all
//!   particles within the cut-off radius `r_c` (paper Eq. 6). It rebuilds
//!   a [`CellGrid`] every substep with [`CellGrid::rebuild_lanes`] and
//!   sweeps half of each cell's 3×3 neighbourhood over the cell-ordered
//!   lanes the rebuild writes, reading the layout back through
//!   [`CellGrid::order`], [`CellGrid::cell_bounds`], [`CellGrid::shape`]
//!   and [`CellGrid::cells`];
//! * the **grid-regularity metrics** (`sops_core::metrics`, Fig. 3) need
//!   each particle's nearest other particle — [`KdTree::build`] and
//!   [`KdTree::nearest_excluding`];
//! * the **information estimators** (`sops_info`): the KSG estimator
//!   (paper Eq. 18–20) needs per-variable strict range counts and
//!   joint-space k-NN under a max-over-blocks metric, and the
//!   Frenzel–Pompe CMI engine the same k-NN plus conjunctive range
//!   counts. The joint search is [`block_max::knn_block_max_into`]
//!   (pruned scan, high joint dimension), [`block_max::knn_block_max_lanes_into`]
//!   (its lane form) or [`block_max::knn_block_max_tree_into`] (iterative
//!   kd-tree descent, low joint dimension); [`KdTree::rebuild`]
//!   re-indexes in place so persistent engines never reallocate, and
//!   [`KdTree::for_each_within`] serves the CMI counts. The KSG per-block
//!   counts stay in `sops_info`'s engine, a sorted column per scalar
//!   block and one pass over the columns per vector block: the radius a
//!   many-block joint space hands a marginal covers most of its cloud, so
//!   a tree would visit nearly every leaf. Both apply the leaf test of
//!   [`KdTree::count_within`], which stays their test reference.
//!
//! The frozen ICP, KSG and CMI references in the `sops-shape` and
//! `sops-info` tests call [`KdTree::nearest`], [`KdTree::count_within`]
//! and [`KdTree::range_indices`]. The crate's own property tests compare
//! the tree against the `O(n²)` scans of a test-only `brute` module.
//!
//! The ICP alignment (paper §5.2) is not a consumer: its per-type point
//! sets hold at most 40 points in shipped use, where `sops_shape::icp`'s
//! flat lane scan beats a kd-tree.

pub mod block_max;
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

// The `O(n²)` references the kd-tree's property tests compare against.
#[cfg(test)]
mod brute;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_sq_basic() {
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist_sq(&[1.0], &[1.0]), 0.0);
    }
}
