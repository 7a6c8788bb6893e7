//! Dynamic-dimension kd-tree.
//!
//! A classic median-split kd-tree over points stored in a flat `Vec<f64>`.
//! Dimensions in this workspace are small (2 for particle positions, up to
//! ~10 for coarse observer blocks), where kd-trees shine. Queries:
//!
//! * [`KdTree::nearest`] / [`KdTree::knn`] — nearest-neighbour queries,
//!   e.g. the grid-regularity metrics of `sops_core::metrics`;
//! * [`KdTree::count_within`] — the strict range count `cᵢ` of paper
//!   Eq. 20 (one call per sample per observer inside the KSG estimator);
//! * [`KdTree::range_indices`] — neighbourhood retrieval for diagnostics.
//!
//! The tree is immutable after construction; the simulator's per-step
//! neighbour search uses [`crate::CellGrid`] instead, which is cheaper to
//! rebuild every step.

use crate::dist_sq;

/// Maximum number of points in a leaf node; below this, linear scan beats
/// further splitting (measured with the `kdtree` Criterion bench).
pub(crate) const LEAF_SIZE: usize = 12;

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        /// Range into `KdTree::order`.
        start: u32,
        end: u32,
    },
    Split {
        axis: u8,
        value: f64,
        /// Index of the right child in `KdTree::nodes`; the left child is
        /// always `self + 1` (pre-order layout).
        right: u32,
    },
}

/// Immutable kd-tree over `n` points of dimension `dim`.
///
/// The tree cannot be mutated point-by-point, but it can be
/// [rebuilt in place](KdTree::rebuild) over a fresh point set without
/// giving up its buffers — the contract persistent engines
/// (`sops_sim::ForceWorkspace`, `sops_info::MeasureWorkspace`) rely on
/// for zero steady-state allocations.
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    pub(crate) points: Vec<f64>,
    /// Permutation of point indices, partitioned recursively.
    pub(crate) order: Vec<u32>,
    /// The point rows permuted into `order` order, so every leaf's points
    /// are one contiguous `(end − start) × dim` slab. Leaf scans over
    /// this copy (`sops_spatial::block_max`'s tree descent) read a
    /// straight stream instead of gathering `order`-indirected rows —
    /// the values are bitwise copies, so distances are unchanged.
    pub(crate) sorted: Vec<f64>,
    pub(crate) nodes: Vec<Node>,
    /// Per-axis bound scratch for `widest_axis` (2 × dim), reused across
    /// `build_node` calls so rebuilding never allocates.
    bounds_scratch: Vec<f64>,
}

impl KdTree {
    /// Builds a tree from `n * dim` coordinates in row-major layout.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `dim > 255`, or `points.len()` is not a
    /// multiple of `dim`.
    pub fn build(dim: usize, points: &[f64]) -> Self {
        let mut tree = KdTree {
            dim: dim.max(1),
            points: Vec::new(),
            order: Vec::new(),
            sorted: Vec::new(),
            nodes: Vec::with_capacity(2 * (points.len() / dim.max(1) / LEAF_SIZE + 1)),
            bounds_scratch: Vec::new(),
        };
        tree.rebuild(dim, points);
        tree
    }

    /// Re-indexes the tree over a new point set (possibly of a different
    /// dimension), reusing every internal buffer. Allocation-free once the
    /// buffers have grown to the workload size.
    ///
    /// # Panics
    ///
    /// Same contract as [`KdTree::build`].
    pub fn rebuild(&mut self, dim: usize, points: &[f64]) {
        assert!(dim > 0 && dim <= 255, "KdTree: unsupported dimension {dim}");
        assert_eq!(
            points.len() % dim,
            0,
            "KdTree: coordinate count not a multiple of dim"
        );
        let n = points.len() / dim;
        self.dim = dim;
        self.points.clear();
        self.points.extend_from_slice(points);
        self.order.clear();
        self.order.extend(0..n as u32);
        self.nodes.clear();
        if n > 0 {
            self.build_node(0, n);
        }
        self.sorted.clear();
        self.sorted.reserve(self.points.len());
        for &i in &self.order {
            let i = i as usize;
            self.sorted
                .extend_from_slice(&self.points[i * dim..(i + 1) * dim]);
        }
    }

    /// Capacities of the internal buffers — constant for a warmed-up tree
    /// driving a bounded workload (the zero-allocation contract).
    pub fn capacity_signature(&self) -> [usize; 5] {
        [
            self.points.capacity(),
            self.order.capacity(),
            self.sorted.capacity(),
            self.nodes.capacity(),
            self.bounds_scratch.capacity(),
        ]
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len() / self.dim
    }

    /// `true` if the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimension of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i` (original indexing).
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    fn build_node(&mut self, start: usize, end: usize) -> u32 {
        let id = self.nodes.len() as u32;
        if end - start <= LEAF_SIZE {
            self.nodes.push(Node::Leaf {
                start: start as u32,
                end: end as u32,
            });
            return id;
        }
        // Pick the axis with the largest spread — better balance than
        // cycling axes when the data is anisotropic (e.g. ring
        // configurations from the F1 force law).
        let axis = self.widest_axis(start, end);
        let mid = start + (end - start) / 2;
        let dim = self.dim;
        let pts = &self.points;
        self.order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
            let va = pts[a as usize * dim + axis];
            let vb = pts[b as usize * dim + axis];
            va.partial_cmp(&vb).expect("KdTree: NaN coordinate")
        });
        let value = self.points[self.order[mid] as usize * dim + axis];
        self.nodes.push(Node::Split {
            axis: axis as u8,
            value,
            right: 0, // patched after the left subtree is built
        });
        let _left = self.build_node(start, mid);
        let right = self.build_node(mid, end);
        if let Node::Split { right: r, .. } = &mut self.nodes[id as usize] {
            *r = right;
        }
        id
    }

    fn widest_axis(&mut self, start: usize, end: usize) -> usize {
        let dim = self.dim;
        self.bounds_scratch.clear();
        self.bounds_scratch.resize(2 * dim, 0.0);
        let KdTree {
            points,
            order,
            bounds_scratch,
            ..
        } = self;
        let (lo, hi) = bounds_scratch.split_at_mut(dim);
        lo.fill(f64::INFINITY);
        hi.fill(f64::NEG_INFINITY);
        for &i in &order[start..end] {
            let p = &points[i as usize * dim..(i as usize + 1) * dim];
            for d in 0..dim {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let mut best = 0;
        let mut spread = -1.0;
        for d in 0..dim {
            let s = hi[d] - lo[d];
            if s > spread {
                spread = s;
                best = d;
            }
        }
        best
    }

    /// Index and squared distance of the nearest point to `query`,
    /// excluding indices for which `skip` returns `true`. Exact distance
    /// ties resolve to the smallest index, as in [`crate::brute::nearest`].
    pub fn nearest_excluding(
        &self,
        query: &[f64],
        skip: impl Fn(usize) -> bool,
    ) -> Option<(usize, f64)> {
        assert_eq!(query.len(), self.dim);
        if self.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        self.nearest_rec(0, query, &skip, &mut best);
        best
    }

    /// Index and squared distance of the nearest point to `query`.
    pub fn nearest(&self, query: &[f64]) -> Option<(usize, f64)> {
        self.nearest_excluding(query, |_| false)
    }

    fn nearest_rec(
        &self,
        node: u32,
        query: &[f64],
        skip: &impl Fn(usize) -> bool,
        best: &mut Option<(usize, f64)>,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                for &i in &self.order[*start as usize..*end as usize] {
                    let i = i as usize;
                    if skip(i) {
                        continue;
                    }
                    let d = dist_sq(self.point(i), query);
                    if best.is_none_or(|(bi, bd)| d < bd || (d == bd && i < bi)) {
                        *best = Some((i, d));
                    }
                }
            }
            Node::Split { axis, value, right } => {
                let delta = query[*axis as usize] - value;
                let (near, far) = if delta < 0.0 {
                    (node + 1, *right)
                } else {
                    (*right, node + 1)
                };
                self.nearest_rec(near, query, skip, best);
                // `<=`, as in `knn_rec`: an equal-distance point across
                // the split may have the smaller, canonically winning
                // index.
                if best.is_none_or(|(_, bd)| delta * delta <= bd) {
                    self.nearest_rec(far, query, skip, best);
                }
            }
        }
    }

    /// The `k` nearest points to `query`, sorted by ascending squared
    /// distance (ties broken by index).
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.knn_into(query, k, &mut out);
        out
    }

    /// [`KdTree::knn`] into a caller-provided buffer (cleared first) —
    /// allocation-free once the buffer has capacity `k`.
    pub fn knn_into(&self, query: &[f64], k: usize, out: &mut Vec<(usize, f64)>) {
        assert_eq!(query.len(), self.dim);
        out.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        // `out` doubles as the bounded max-heap (worst candidate at the
        // root) during traversal, stored as `(index, dist_sq)`.
        self.knn_rec(0, query, k, out);
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    }

    fn knn_rec(&self, node: u32, query: &[f64], k: usize, heap: &mut Vec<(usize, f64)>) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                for &i in &self.order[*start as usize..*end as usize] {
                    let i = i as usize;
                    let d = dist_sq(self.point(i), query);
                    heap_offer(heap, k, (i, d));
                }
            }
            Node::Split { axis, value, right } => {
                let delta = query[*axis as usize] - value;
                let (near, far) = if delta < 0.0 {
                    (node + 1, *right)
                } else {
                    (*right, node + 1)
                };
                self.knn_rec(near, query, k, heap);
                // `<=`, not `<`: a far subtree at axis distance exactly
                // equal to the current worst can still hold an
                // equal-distance point with a smaller index, which
                // canonically wins the tie (same rule as the block-max
                // tree search).
                if heap.len() < k || delta * delta <= heap[0].1 {
                    self.knn_rec(far, query, k, heap);
                }
            }
        }
    }

    /// Number of points with distance to `query` strictly less than
    /// `radius` (`strict = true`) or ≤ `radius` (`strict = false`).
    ///
    /// The strict variant is the count `cᵢ` of paper Eq. 20.
    pub fn count_within(&self, query: &[f64], radius: f64, strict: bool) -> usize {
        assert_eq!(query.len(), self.dim);
        if self.is_empty() || radius < 0.0 {
            return 0;
        }
        let r2 = radius * radius;
        let mut count = 0;
        self.count_rec(0, query, radius, r2, strict, &mut count);
        count
    }

    fn count_rec(
        &self,
        node: u32,
        query: &[f64],
        radius: f64,
        r2: f64,
        strict: bool,
        count: &mut usize,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                for &i in &self.order[*start as usize..*end as usize] {
                    let d = dist_sq(self.point(i as usize), query);
                    if if strict { d < r2 } else { d <= r2 } {
                        *count += 1;
                    }
                }
            }
            Node::Split { axis, value, right } => {
                let delta = query[*axis as usize] - value;
                // Left subtree holds coordinates <= value; right >= value.
                if delta - radius <= 0.0 {
                    self.count_rec(node + 1, query, radius, r2, strict, count);
                }
                if delta + radius >= 0.0 {
                    self.count_rec(*right, query, radius, r2, strict, count);
                }
            }
        }
    }

    /// Indices of all points within `radius` of `query` (inclusive), in
    /// ascending index order.
    pub fn range_indices(&self, query: &[f64], radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.range_indices_into(query, radius, &mut out);
        out
    }

    /// [`KdTree::range_indices`] into a caller-provided buffer (cleared
    /// first) — the allocation-free form persistent engines use.
    pub fn range_indices_into(&self, query: &[f64], radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_within(query, radius, |i| out.push(i));
        out.sort_unstable();
    }

    /// Visits every point within `radius` of `query` (inclusive), in
    /// *tree* order — no result buffer and no sort, the form for range
    /// consumers whose statistic is order-independent (e.g. the
    /// conjunctive counts of the Frenzel–Pompe estimator). The visited
    /// set is exactly that of [`KdTree::range_indices`], which is a
    /// collect-and-sort wrapper over this visit.
    pub fn for_each_within(&self, query: &[f64], radius: f64, mut f: impl FnMut(usize)) {
        assert_eq!(query.len(), self.dim);
        if self.is_empty() || radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        self.for_each_rec(0, query, radius, r2, &mut f);
    }

    fn for_each_rec(
        &self,
        node: u32,
        query: &[f64],
        radius: f64,
        r2: f64,
        f: &mut impl FnMut(usize),
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                for &i in &self.order[*start as usize..*end as usize] {
                    if dist_sq(self.point(i as usize), query) <= r2 {
                        f(i as usize);
                    }
                }
            }
            Node::Split { axis, value, right } => {
                let delta = query[*axis as usize] - value;
                if delta - radius <= 0.0 {
                    self.for_each_rec(node + 1, query, radius, r2, f);
                }
                if delta + radius >= 0.0 {
                    self.for_each_rec(*right, query, radius, r2, f);
                }
            }
        }
    }
}

/// Lexicographically "worse" candidate ordering for the bounded max-heap:
/// larger squared distance first, distance ties broken by larger index.
#[inline]
fn heap_worse(a: (usize, f64), b: (usize, f64)) -> bool {
    a.1 > b.1 || (a.1 == b.1 && a.0 > b.0)
}

/// Offers a candidate to a bounded max-heap (worst entry at the root) that
/// keeps the `k` lexicographically smallest `(dist, index)` entries seen.
///
/// A single `O(log k)` sift replaces the full `sort_by` of the candidate
/// buffer the old leaf insertion performed on every accepted point — the
/// `kdtree/knn*` bench rows quantify the win.
#[inline]
fn heap_offer(heap: &mut Vec<(usize, f64)>, k: usize, cand: (usize, f64)) {
    if heap.len() < k {
        heap.push(cand);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap_worse(heap[i], heap[parent]) {
                heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    } else if heap_worse(heap[0], cand) {
        heap[0] = cand;
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut m = i;
            if l < heap.len() && heap_worse(heap[l], heap[m]) {
                m = l;
            }
            if r < heap.len() && heap_worse(heap[r], heap[m]) {
                m = r;
            }
            if m == i {
                break;
            }
            heap.swap(i, m);
            i = m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use proptest::prelude::*;

    fn grid_points(side: usize) -> Vec<f64> {
        let mut pts = Vec::new();
        for i in 0..side {
            for j in 0..side {
                pts.push(i as f64);
                pts.push(j as f64);
            }
        }
        pts
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::build(2, &[]);
        assert!(t.is_empty());
        assert!(t.nearest(&[0.0, 0.0]).is_none());
        assert!(t.knn(&[0.0, 0.0], 3).is_empty());
        assert_eq!(t.count_within(&[0.0, 0.0], 1.0, true), 0);
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(3, &[1.0, 2.0, 3.0]);
        assert_eq!(t.len(), 1);
        let (i, d) = t.nearest(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(i, 0);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_on_grid() {
        let pts = grid_points(10);
        let t = KdTree::build(2, &pts);
        let (i, d) = t.nearest(&[3.2, 7.4]).unwrap();
        assert_eq!(t.point(i), &[3.0, 7.0]);
        assert!((d - (0.2f64 * 0.2 + 0.4 * 0.4)).abs() < 1e-12);
    }

    #[test]
    fn nearest_excluding_self_match() {
        let pts = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0];
        let t = KdTree::build(2, &pts);
        let (i, _) = t.nearest_excluding(&[0.0, 0.0], |i| i == 0).unwrap();
        assert_eq!(i, 1);
    }

    #[test]
    fn knn_matches_brute_on_grid() {
        let pts = grid_points(8);
        let t = KdTree::build(2, &pts);
        for k in [1, 3, 7, 64, 100] {
            let got = t.knn(&[2.7, 3.1], k);
            let want = brute::knn(2, &pts, &[2.7, 3.1], k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-12, "k={k}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn duplicate_points_counted_individually() {
        let pts = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let t = KdTree::build(2, &pts);
        assert_eq!(t.count_within(&[1.0, 1.0], 0.5, true), 3);
        let nn = t.knn(&[1.0, 1.0], 2);
        assert_eq!(nn.len(), 2);
    }

    #[test]
    fn strict_vs_inclusive_boundary() {
        let pts = [0.0, 0.0, 1.0, 0.0];
        let t = KdTree::build(2, &pts);
        assert_eq!(t.count_within(&[0.0, 0.0], 1.0, true), 1);
        assert_eq!(t.count_within(&[0.0, 0.0], 1.0, false), 2);
    }

    #[test]
    fn range_indices_sorted_and_complete() {
        let pts = grid_points(6);
        let t = KdTree::build(2, &pts);
        let got = t.range_indices(&[2.0, 2.0], 1.5);
        let want: Vec<usize> = (0..pts.len() / 2)
            .filter(|&i| crate::dist_sq(&pts[2 * i..2 * i + 2], &[2.0, 2.0]) <= 1.5 * 1.5)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn collinear_points() {
        // Degenerate geometry: all on the x-axis.
        let pts: Vec<f64> = (0..100).flat_map(|i| [i as f64, 0.0]).collect();
        let t = KdTree::build(2, &pts);
        let (i, _) = t.nearest(&[42.3, 0.0]).unwrap();
        assert_eq!(i, 42);
        assert_eq!(t.count_within(&[50.0, 0.0], 2.5, true), 5);
    }

    #[test]
    fn higher_dimension_queries() {
        // 4-D lattice corner points.
        let mut pts = Vec::new();
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    for d in 0..3 {
                        pts.extend_from_slice(&[a as f64, b as f64, c as f64, d as f64]);
                    }
                }
            }
        }
        let t = KdTree::build(4, &pts);
        let q = [1.1, 0.9, 1.0, 1.0];
        let got = t.knn(&q, 5);
        let want = brute::knn(4, &pts, &q, 5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.1 - w.1).abs() < 1e-12);
        }
    }

    #[test]
    fn rebuild_matches_fresh_build_and_never_allocates_when_warm() {
        let mut tree = KdTree::build(2, &grid_points(12));
        // Warm across the workload shapes, largest first.
        for side in [12usize, 8, 10] {
            tree.rebuild(2, &grid_points(side));
        }
        let sig = tree.capacity_signature();
        for round in 0..20 {
            let side = [12usize, 8, 10][round % 3];
            tree.rebuild(2, &grid_points(side));
            let fresh = KdTree::build(2, &grid_points(side));
            for k in [1usize, 5, 17] {
                assert_eq!(tree.knn(&[3.3, 4.1], k), fresh.knn(&[3.3, 4.1], k));
            }
            assert_eq!(
                tree.count_within(&[5.0, 5.0], 2.5, true),
                fresh.count_within(&[5.0, 5.0], 2.5, true)
            );
            assert_eq!(tree.capacity_signature(), sig, "rebuild must not allocate");
        }
    }

    #[test]
    fn rebuild_across_dimensions() {
        let mut tree = KdTree::build(2, &grid_points(4));
        tree.rebuild(3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(tree.dim(), 3);
        assert_eq!(tree.len(), 2);
        let (i, _) = tree.nearest(&[4.0, 5.0, 6.1]).unwrap();
        assert_eq!(i, 1);
    }

    #[test]
    fn knn_ties_resolve_to_smallest_indices() {
        // Duplicated points force exact distance ties, including across
        // splitting planes: the canonical result keeps the smallest
        // indices, whatever the tree shape.
        let mut pts = Vec::new();
        for _ in 0..8 {
            pts.extend_from_slice(&[1.0, 1.0]);
        }
        for _ in 0..8 {
            pts.extend_from_slice(&[2.0, 2.0]);
        }
        let t = KdTree::build(2, &pts);
        let got = t.knn(&[1.0, 1.0], 3);
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Query equidistant from both clusters: ties span the split.
        let mid = t.knn(&[1.5, 1.5], 10);
        let idx: Vec<usize> = mid.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, (0..10).collect::<Vec<_>>(), "canonical tie set");
    }

    #[test]
    fn knn_into_reuses_buffer() {
        let pts = grid_points(8);
        let t = KdTree::build(2, &pts);
        let mut buf = Vec::new();
        t.knn_into(&[2.7, 3.1], 7, &mut buf);
        assert_eq!(buf, t.knn(&[2.7, 3.1], 7));
        let cap = buf.capacity();
        for _ in 0..10 {
            t.knn_into(&[1.2, 5.9], 7, &mut buf);
        }
        assert_eq!(buf.capacity(), cap);
    }

    prop_compose! {
        fn arb_points(max_n: usize)(n in 1..max_n)(
            coords in proptest::collection::vec(-50.0..50.0f64, n * 2)
        ) -> Vec<f64> {
            coords
        }
    }

    // 13–32 points on a 5×5 integer lattice, repeats allowed.
    prop_compose! {
        fn arb_lattice_points()(n in 13..33usize)(
            cells in proptest::collection::vec(0..5i32, n * 2)
        ) -> Vec<f64> {
            cells.into_iter().map(f64::from).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn nearest_index_matches_brute_on_lattice_ties(pts in arb_lattice_points()) {
            // Half-integer queries over and around the lattice: exact
            // distance ties everywhere, many of them across a split.
            let t = KdTree::build(2, &pts);
            for qx in -2..11 {
                for qy in -2..11 {
                    let q = [f64::from(qx) / 2.0, f64::from(qy) / 2.0];
                    let got = t.nearest(&q).unwrap();
                    let want = brute::nearest(2, &pts, &q).unwrap();
                    prop_assert_eq!(got.0, want.0, "query {:?}", q);
                    prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
                }
            }
        }

        #[test]
        fn nearest_matches_brute(pts in arb_points(120), qx in -60.0..60.0f64, qy in -60.0..60.0f64) {
            let t = KdTree::build(2, &pts);
            let got = t.nearest(&[qx, qy]).unwrap();
            let want = brute::nearest(2, &pts, &[qx, qy]).unwrap();
            prop_assert!((got.1 - want.1).abs() < 1e-9);
        }

        #[test]
        fn knn_matches_brute(pts in arb_points(120), qx in -60.0..60.0f64, qy in -60.0..60.0f64, k in 1..20usize) {
            let t = KdTree::build(2, &pts);
            let got = t.knn(&[qx, qy], k);
            let want = brute::knn(2, &pts, &[qx, qy], k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.1 - w.1).abs() < 1e-9);
            }
        }

        #[test]
        fn count_matches_brute(pts in arb_points(120), qx in -60.0..60.0f64, qy in -60.0..60.0f64, r in 0.0..80.0f64) {
            let t = KdTree::build(2, &pts);
            prop_assert_eq!(
                t.count_within(&[qx, qy], r, true),
                brute::count_within_strict(2, &pts, &[qx, qy], r)
            );
            prop_assert_eq!(
                t.count_within(&[qx, qy], r, false),
                brute::count_within_inclusive(2, &pts, &[qx, qy], r)
            );
        }
    }
}
