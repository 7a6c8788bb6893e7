//! k-NN search under the max-over-blocks metric of paper Eq. 19.
//!
//! The KSG multi-information estimator treats a joint sample
//! `w = (w₁, …, w_n)` (n observer variables, each a small vector) and uses
//! the metric
//!
//! ```text
//! ‖w′ − w‖ := max_i ‖w′_i − w_i‖₂
//! ```
//!
//! i.e. the L∞ product metric over blocks whose internal distance is
//! Euclidean. Two search strategies are provided, because the right tool
//! depends on the *joint* dimension:
//!
//! * [`knn_block_max`] / [`knn_block_max_into`] — a cache-friendly
//!   brute-force scan with an early-exit block loop. When the joint
//!   dimension is large (per-particle observers: 2n ≥ 40) space
//!   partitioning degenerates to a linear scan anyway (this matches
//!   standard KSG implementations, e.g. Kraskov's MILCA and JIDT in high
//!   dimension), and the pruned scan wins.
//! * [`knn_block_max_tree_into`] — an iterative (explicit-stack) kd-tree
//!   descent over the joint points. The splitting plane on any axis lower
//!   bounds the block-max metric (`‖w′ − w‖ ≥ |w′[a] − w[a]|` for every
//!   coordinate `a`), so standard pruning is sound. In low joint dimension
//!   (pairwise scalar MI is dim-2) this turns the `O(m²)` scan into
//!   `O(m log m)` — the adaptive choice is made by `sops-info`'s KSG
//!   engine.
//!
//! Both searches lean on SoA layouts for the common all-scalar-blocks
//! case: the bounded distance kernel processes rows in fixed-width
//! dimension chunks, the tree descent scans leaf-contiguous row slabs
//! with a branch-free batch kernel, and [`ScalarLanes`] /
//! [`knn_block_max_lanes_into`] run the pruned scan over a
//! lane-transposed tile (eight candidates per vector op). Every variant
//! is **bit-identical** to the row-at-a-time reference — same
//! lexicographic `(distance, index)` tie-breaking, pinned by this
//! module's frozen-reference proptests — so callers route purely on
//! throughput.

use crate::kdtree::{KdTree, Node};

/// Prefix-offset storage for [`BlockPoints`]: owned by default, borrowed
/// from a caller scratch buffer on the allocation-free path.
#[derive(Debug, Clone)]
enum Offsets<'a> {
    Owned(Vec<usize>),
    Borrowed(&'a [usize]),
}

/// A set of `m` joint samples, each a concatenation of `blocks` blocks of
/// sizes `block_sizes` (in order), stored row-major.
#[derive(Debug, Clone)]
pub struct BlockPoints<'a> {
    data: &'a [f64],
    /// Prefix offsets into one row; `offsets[b]..offsets[b+1]` is block
    /// `b`. Last entry is the row stride.
    block_offsets: Offsets<'a>,
    rows: usize,
    /// `true` when every block is one-dimensional (the per-scalar-observer
    /// case) — enables the stride-direct Chebyshev fast path.
    all_scalar: bool,
}

/// Fills `out` with the prefix offsets of `block_sizes` (cleared first)
/// and returns the row stride.
fn fill_offsets(block_sizes: &[usize], out: &mut Vec<usize>) -> usize {
    assert!(!block_sizes.is_empty(), "BlockPoints: no blocks");
    out.clear();
    out.reserve(block_sizes.len() + 1);
    let mut acc = 0;
    out.push(0);
    for &s in block_sizes {
        assert!(s > 0, "BlockPoints: empty block");
        acc += s;
        out.push(acc);
    }
    acc
}

impl<'a> BlockPoints<'a> {
    /// Wraps `rows` samples with the given per-block sizes.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * Σ block_sizes` or a block is empty.
    pub fn new(data: &'a [f64], rows: usize, block_sizes: &[usize]) -> Self {
        let mut block_offsets = Vec::new();
        let acc = fill_offsets(block_sizes, &mut block_offsets);
        assert_eq!(
            data.len(),
            rows * acc,
            "BlockPoints: data length does not match rows × stride"
        );
        BlockPoints {
            data,
            block_offsets: Offsets::Owned(block_offsets),
            rows,
            all_scalar: block_sizes.iter().all(|&s| s == 1),
        }
    }

    /// Like [`BlockPoints::new`] but writing the prefix offsets into a
    /// caller-owned scratch buffer instead of allocating — the form used
    /// by per-pair loops that construct thousands of views per call.
    pub fn with_offset_buf(
        offset_buf: &'a mut Vec<usize>,
        data: &'a [f64],
        rows: usize,
        block_sizes: &[usize],
    ) -> Self {
        let acc = fill_offsets(block_sizes, offset_buf);
        assert_eq!(
            data.len(),
            rows * acc,
            "BlockPoints: data length does not match rows × stride"
        );
        BlockPoints {
            data,
            block_offsets: Offsets::Borrowed(offset_buf),
            rows,
            all_scalar: block_sizes.iter().all(|&s| s == 1),
        }
    }

    /// The prefix offsets (last entry is the row stride).
    #[inline]
    fn offs(&self) -> &[usize] {
        match &self.block_offsets {
            Offsets::Owned(v) => v,
            Offsets::Borrowed(s) => s,
        }
    }

    /// Number of samples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of blocks per sample.
    pub(crate) fn blocks(&self) -> usize {
        self.offs().len() - 1
    }

    /// Row stride (joint dimension).
    pub(crate) fn stride(&self) -> usize {
        *self.offs().last().unwrap()
    }

    /// One whole joint sample.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        let s = self.stride();
        &self.data[r * s..(r + 1) * s]
    }

    /// Block `b` of sample `r`.
    #[inline]
    pub fn block(&self, r: usize, b: usize) -> &[f64] {
        let offs = self.offs();
        let s = *offs.last().unwrap();
        let row = &self.data[r * s..(r + 1) * s];
        &row[offs[b]..offs[b + 1]]
    }

    /// `true` when every block is one-dimensional — callers may then take
    /// the stride-direct Chebyshev lane paths ([`ScalarLanes`]).
    #[inline]
    pub fn all_scalar(&self) -> bool {
        self.all_scalar
    }

    /// Max-over-blocks distance between samples `a` and `b` (not squared —
    /// block distances are L2 norms), returning early with
    /// `f64::INFINITY` as soon as the running max exceeds `bound` — the
    /// pruning that makes the brute-force k-NN loop competitive.
    #[inline]
    pub(crate) fn block_max_dist_bounded(&self, a: usize, b: usize, bound: f64) -> f64 {
        let s = self.stride();
        self.row_dist_bounded(
            &self.data[a * s..(a + 1) * s],
            &self.data[b * s..(b + 1) * s],
            bound,
        )
    }

    /// [`BlockPoints::block_max_dist_bounded`] over two explicit rows of
    /// this layout — the form the kd-tree descent uses to scan its
    /// leaf-contiguous row copies. The rows must have length `stride()`.
    #[inline]
    pub(crate) fn row_dist_bounded(&self, ra: &[f64], rb: &[f64], bound: f64) -> f64 {
        let bound_sq = bound * bound;
        let max_sq = if self.all_scalar {
            cheb_max_sq_bounded(ra, rb, bound_sq)
        } else {
            block_rows_max_sq_bounded(self.offs(), ra, rb, bound_sq)
        };
        // `√INFINITY = INFINITY`, so the pruned sentinel passes through.
        max_sq.sqrt()
    }

    /// Per-block L2 distances between samples `a` and `b`.
    pub fn block_dists(&self, a: usize, b: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.blocks()];
        self.block_dists_into(a, b, &mut out);
        out
    }

    /// [`BlockPoints::block_dists`] into a caller-provided slice of length
    /// `blocks()` — the allocation-free form the KSG hot loop uses.
    pub fn block_dists_into(&self, a: usize, b: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.blocks(), "block_dists_into: output len");
        if self.all_scalar {
            // One coordinate per block: skip the per-block slicing and run
            // the whole row as contiguous lanes. `dist_sq` on a 1-element
            // slice computes `0.0 + d·d = d·d`, so this is the identical
            // floating-point expression.
            let s = self.stride();
            let ra = &self.data[a * s..(a + 1) * s];
            let rb = &self.data[b * s..(b + 1) * s];
            for ((x, y), slot) in ra.iter().zip(rb).zip(out) {
                let d = x - y;
                *slot = (d * d).sqrt();
            }
            return;
        }
        for (blk, slot) in out.iter_mut().enumerate() {
            *slot = crate::dist_sq(self.block(a, blk), self.block(b, blk)).sqrt();
        }
    }
}

/// Width of the fixed dimension chunks the Chebyshev kernels process: 8
/// `f64` lanes, one 512-bit vector on AVX-512 and two 256-bit ops on AVX2.
const DIM_CHUNK: usize = 8;

/// Chebyshev (all-scalar-blocks) squared distance between two rows with
/// the bounded early exit, computed over fixed-width dimension chunks:
/// each chunk's `d²` lanes max-reduce first, then fold into the running
/// max. Bit-identical to the dimension-at-a-time loop because `max` over
/// the non-negative `d²` values is exact and commutative, `f64::max`
/// skips NaN exactly like the `d2 > max` predicate, and the running max
/// is monotone — it ends above `bound_sq` iff it ever exceeds it, so the
/// chunk-boundary prune returns `INFINITY` in exactly the same cases as
/// the per-dimension check.
#[inline]
fn cheb_max_sq_bounded(ra: &[f64], rb: &[f64], bound_sq: f64) -> f64 {
    let mut max_sq: f64 = 0.0;
    let mut chunks = ra.chunks_exact(DIM_CHUNK).zip(rb.chunks_exact(DIM_CHUNK));
    for (ca, cb) in &mut chunks {
        let mut chunk_max: f64 = 0.0;
        for (x, y) in ca.iter().zip(cb) {
            let d = x - y;
            chunk_max = chunk_max.max(d * d);
        }
        if chunk_max > max_sq {
            max_sq = chunk_max;
            if max_sq > bound_sq {
                return f64::INFINITY;
            }
        }
    }
    let tail = ra.len() - ra.len() % DIM_CHUNK;
    for (x, y) in ra[tail..].iter().zip(&rb[tail..]) {
        let d = x - y;
        let d2 = d * d;
        if d2 > max_sq {
            max_sq = d2;
            if max_sq > bound_sq {
                return f64::INFINITY;
            }
        }
    }
    max_sq
}

/// Generic (mixed block sizes) squared block-max distance with the
/// bounded early exit. The per-block L2 sums accumulate in coordinate
/// order — reassociating them would change bits, so they stay scalar.
#[inline]
fn block_rows_max_sq_bounded(offs: &[usize], ra: &[f64], rb: &[f64], bound_sq: f64) -> f64 {
    let mut max_sq: f64 = 0.0;
    for w in offs.windows(2) {
        let mut d2 = 0.0;
        for (x, y) in ra[w[0]..w[1]].iter().zip(&rb[w[0]..w[1]]) {
            let d = x - y;
            d2 += d * d;
        }
        if d2 > max_sq {
            max_sq = d2;
            if max_sq > bound_sq {
                return f64::INFINITY;
            }
        }
    }
    max_sq
}

/// Candidate lanes per tile group of [`ScalarLanes`].
pub const LANES: usize = 8;

/// A lane-transposed copy of an all-scalar [`BlockPoints`] set for the
/// SoA k-NN scan ([`knn_block_max_lanes_into`]).
///
/// Samples are tiled in groups of [`LANES`]: group `g` stores dimension
/// `d` of candidates `g·LANES..(g+1)·LANES` as one contiguous 8-lane row
/// at `tile[(g·stride + d)·LANES..]`, so the scan kernel streams one
/// vector load per dimension instead of strided row gathers. Groups past
/// the end are padded with `INFINITY`, which every query prunes.
///
/// The transpose costs one pass over the data and is built once per KSG
/// term, amortized over the `m` queries that share it. Buffers are
/// reused across rebuilds (zero allocations once warm).
#[derive(Debug, Clone, Default)]
pub struct ScalarLanes {
    tile: Vec<f64>,
    rows: usize,
    stride: usize,
}

impl ScalarLanes {
    /// An empty tile; [`ScalarLanes::rebuild`] fills it.
    pub fn new() -> Self {
        ScalarLanes::default()
    }

    /// Re-tiles `points` (which must be all-scalar) into lane layout,
    /// reusing the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `points` has a non-scalar block.
    pub fn rebuild(&mut self, points: &BlockPoints<'_>) {
        assert!(
            points.all_scalar(),
            "ScalarLanes: only all-scalar block sets have a lane layout"
        );
        let rows = points.rows();
        let stride = points.stride();
        self.rows = rows;
        self.stride = stride;
        let groups = rows.div_ceil(LANES);
        self.tile.clear();
        self.tile.resize(groups * stride * LANES, f64::INFINITY);
        for r in 0..rows {
            let (g, l) = (r / LANES, r % LANES);
            let base = g * stride * LANES;
            for (d, &v) in points.row(r).iter().enumerate() {
                self.tile[base + d * LANES + l] = v;
            }
        }
    }

    /// Buffer capacity (the zero-allocation contract hook).
    pub fn capacity_signature(&self) -> usize {
        self.tile.capacity()
    }
}

/// For sample `q`, the indices and distances of its `k` nearest other
/// samples under the max-over-blocks metric, sorted ascending.
///
/// Self is excluded. The result is **canonical**: the `k`
/// lexicographically smallest `(distance, index)` pairs, in that order —
/// ties at the boundary always resolve toward the smaller sample index,
/// independent of scan or traversal order. The scan and
/// [tree](knn_block_max_tree_into) searches therefore agree on *every*
/// input, duplicated/quantized samples included.
pub fn knn_block_max(points: &BlockPoints<'_>, q: usize, k: usize) -> Vec<(usize, f64)> {
    let mut best = Vec::new();
    knn_block_max_into(points, q, k, &mut best);
    best
}

/// [`knn_block_max`] into a caller-provided buffer (cleared first) — the
/// allocation-free form used per sample by the KSG hot loop.
pub fn knn_block_max_into(
    points: &BlockPoints<'_>,
    q: usize,
    k: usize,
    best: &mut Vec<(usize, f64)>,
) {
    best.clear();
    let m = points.rows();
    assert!(q < m);
    let k = k.min(m.saturating_sub(1));
    if k == 0 {
        return;
    }
    // Bounded insertion into a small sorted buffer: k is tiny (≤ 10 in all
    // experiments), so insertion beats a heap.
    let mut worst = f64::INFINITY;
    for j in 0..m {
        if j == q {
            continue;
        }
        let d = points.block_max_dist_bounded(q, j, worst);
        if d.is_finite() {
            offer_candidate(best, k, j, d, &mut worst);
        }
    }
}

/// [`knn_block_max_into`] over a [`ScalarLanes`] tile — the SoA form of
/// the pruned scan for all-scalar block sets, **bit-identical** to the
/// row-at-a-time scan on every input.
///
/// Per tile group the kernel accumulates all [`LANES`] running Chebyshev
/// maxima dimension-by-dimension (one contiguous 8-lane stream per
/// dimension — no branches, so the autovectorizer widens it), checking
/// every `DIM_CHUNK` dimensions whether *all* lanes already exceed the
/// group-entry bound `worst²` (then the whole group is pruned: `worst`
/// only shrinks, so the sequential scan returned `INFINITY` for each of
/// those candidates too). Surviving groups replay the sequential scan's
/// accept/skip decision per candidate in ascending index order with the
/// *current* `worst` — `acc > worst·worst` is exactly the condition under
/// which `block_max_dist_bounded` returns `INFINITY` (its running max is
/// monotone), and the exact `d²` values are bitwise equal to the scalar
/// loop's (commutative exact max of identical products). The offers
/// therefore arrive as the identical `(distance, index)` stream and the
/// result heap evolves identically — ties, quantized data and all.
pub fn knn_block_max_lanes_into(
    points: &BlockPoints<'_>,
    lanes: &ScalarLanes,
    q: usize,
    k: usize,
    best: &mut Vec<(usize, f64)>,
) {
    best.clear();
    let m = points.rows();
    assert!(q < m);
    assert!(
        lanes.rows == m && lanes.stride == points.stride(),
        "knn_block_max_lanes_into: lane tile does not match the point set"
    );
    let k = k.min(m.saturating_sub(1));
    if k == 0 {
        return;
    }
    let stride = lanes.stride;
    let qr = points.row(q);
    let mut worst = f64::INFINITY;
    let groups = m.div_ceil(LANES);
    for g in 0..groups {
        let tile = &lanes.tile[g * stride * LANES..(g + 1) * stride * LANES];
        let entry_bound_sq = worst * worst;
        let mut acc = [0.0f64; LANES];
        let mut pruned = false;
        let mut dim = 0;
        while dim < stride {
            let dend = (dim + DIM_CHUNK).min(stride);
            for d in dim..dend {
                let qd = qr[d];
                let lane = &tile[d * LANES..(d + 1) * LANES];
                for (a, &x) in acc.iter_mut().zip(lane) {
                    let diff = qd - x;
                    *a = a.max(diff * diff);
                }
            }
            dim = dend;
            // Group prune: partial maxima only grow, and `worst` only
            // shrinks below its group-entry value, so every lane already
            // above `entry_bound_sq` is a candidate the sequential
            // bounded scan rejected. (The query's own lane sits at 0 and
            // the padding lanes at INFINITY, so self never forces a
            // group to complete nor padding to survive.)
            if dim < stride && acc.iter().all(|&a| a > entry_bound_sq) {
                pruned = true;
                break;
            }
        }
        if pruned {
            continue;
        }
        for (l, &a) in acc.iter().enumerate() {
            let j = g * LANES + l;
            if j >= m {
                break;
            }
            if j == q {
                continue;
            }
            // Replay of `block_max_dist_bounded(q, j, worst)`'s outcome:
            // it returns INFINITY iff the full max exceeds worst².
            if a > worst * worst {
                continue;
            }
            let d = a.sqrt();
            if d.is_finite() {
                offer_candidate(best, k, j, d, &mut worst);
            }
        }
    }
}

/// Canonical bounded insertion shared by the scan and tree searches: keeps
/// the `k` lexicographically smallest `(distance, index)` pairs in sorted
/// order, whatever order candidates arrive in.
#[inline]
fn offer_candidate(best: &mut Vec<(usize, f64)>, k: usize, j: usize, d: f64, worst: &mut f64) {
    if best.len() == k {
        let (tail_j, tail_d) = best[k - 1];
        if d > tail_d || (d == tail_d && j > tail_j) {
            return;
        }
    }
    // Insert after equal-distance entries with smaller indices.
    let pos = best.partition_point(|&(bj, bd)| bd < d || (bd == d && bj < j));
    best.insert(pos, (j, d));
    if best.len() > k {
        best.pop();
    }
    if best.len() == k {
        *worst = best[k - 1].1;
    }
}

/// [`knn_block_max`] via an iterative kd-tree descent over the joint
/// points — the low-joint-dimension fast path.
///
/// `tree` must index the same `m` joint rows as `points` (same order,
/// `dim == points.stride()`). Pruning is sound because any splitting plane
/// lower-bounds the block-max metric: a point on the far side of a plane
/// at axis distance `|δ|` has some coordinate at least `|δ|` away, hence
/// a block L2 distance — and so a block-max distance — of at least `|δ|`.
/// The traversal is iterative with an explicit stack (`stack`, reused by
/// callers) rather than recursive, so deep unbalanced trees cost no call
/// frames and the scratch is visible to the zero-allocation contract.
pub fn knn_block_max_tree_into(
    points: &BlockPoints<'_>,
    tree: &KdTree,
    q: usize,
    k: usize,
    stack: &mut Vec<(u32, f64)>,
    best: &mut Vec<(usize, f64)>,
) {
    best.clear();
    let m = points.rows();
    assert!(q < m);
    assert_eq!(
        tree.dim(),
        points.stride(),
        "knn_block_max_tree_into: tree dimension must equal the joint stride"
    );
    assert_eq!(
        tree.len(),
        m,
        "knn_block_max_tree_into: tree must index the same samples"
    );
    let k = k.min(m.saturating_sub(1));
    if k == 0 {
        return;
    }
    let query = points.row(q);
    let mut worst = f64::INFINITY;
    stack.clear();
    stack.push((0u32, 0.0f64));
    while let Some((start_node, lower)) = stack.pop() {
        // The bound was computed when the node was deferred; the candidate
        // set has only tightened since. `>` not `>=`: a subtree at axis
        // distance exactly `worst` can still hold an equal-distance
        // candidate with a smaller index, which canonically wins the tie.
        if best.len() == k && lower > worst {
            continue;
        }
        let mut node = start_node;
        loop {
            match &tree.nodes[node as usize] {
                Node::Leaf { start, end } => {
                    let (s, e) = (*start as usize, *end as usize);
                    let sdim = points.stride();
                    // The tree's `sorted` copy lays this leaf's rows out
                    // contiguously — same values as `points.row(j)` bit
                    // for bit, without the `order`-indirected gather, so
                    // the scan streams instead of cache-missing.
                    let slab = &tree.sorted[s * sdim..e * sdim];
                    if points.all_scalar() {
                        // Batched leaf: compute every row's exact
                        // Chebyshev `d²` branch-free (the max over the
                        // non-negative squares is exact and commutative,
                        // so the values match the bounded scan's bit for
                        // bit), then replay the bounded scan's
                        // accept/skip decision per candidate in visit
                        // order — `d² > worst²` is exactly the condition
                        // under which it returned `INFINITY`.
                        let cnt = e - s;
                        let mut d2s = [0.0f64; crate::kdtree::LEAF_SIZE];
                        for (t, mx) in d2s[..cnt].iter_mut().enumerate() {
                            let row = &slab[t * sdim..(t + 1) * sdim];
                            let mut m: f64 = 0.0;
                            for (qd, x) in query.iter().zip(row) {
                                let diff = qd - x;
                                m = m.max(diff * diff);
                            }
                            *mx = m;
                        }
                        for (t, &i) in tree.order[s..e].iter().enumerate() {
                            let j = i as usize;
                            if j == q {
                                continue;
                            }
                            let a = d2s[t];
                            if a > worst * worst {
                                continue;
                            }
                            let d = a.sqrt();
                            if d.is_finite() {
                                offer_candidate(best, k, j, d, &mut worst);
                            }
                        }
                        break;
                    }
                    for (t, &i) in tree.order[s..e].iter().enumerate() {
                        let j = i as usize;
                        if j == q {
                            continue;
                        }
                        let row = &slab[t * sdim..(t + 1) * sdim];
                        let d = points.row_dist_bounded(query, row, worst);
                        if d.is_finite() {
                            offer_candidate(best, k, j, d, &mut worst);
                        }
                    }
                    break;
                }
                Node::Split { axis, value, right } => {
                    let delta = query[*axis as usize] - value;
                    let (near, far) = if delta < 0.0 {
                        (node + 1, *right)
                    } else {
                        (*right, node + 1)
                    };
                    let axis_dist = delta.abs();
                    if best.len() < k || axis_dist <= worst {
                        stack.push((far, axis_dist));
                    }
                    node = near;
                }
            }
        }
    }
}

/// Distance from sample `q` to its `k`-th nearest neighbour under the
/// max-over-blocks metric (`k = 1` is the nearest other sample).
pub fn kth_dist_block_max(points: &BlockPoints<'_>, q: usize, k: usize) -> f64 {
    knn_block_max(points, q, k)
        .last()
        .map(|&(_, d)| d)
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
impl BlockPoints<'_> {
    /// Max-over-blocks distance between samples `a` and `b`, unpruned.
    fn block_max_dist(&self, a: usize, b: usize) -> f64 {
        self.block_max_dist_bounded(a, b, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_layout_accessors() {
        // 2 samples, blocks of sizes [2, 1].
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let p = BlockPoints::new(&data, 2, &[2, 1]);
        assert_eq!(p.rows(), 2);
        assert_eq!(p.blocks(), 2);
        assert_eq!(p.stride(), 3);
        assert_eq!(p.block(0, 0), &[1.0, 2.0]);
        assert_eq!(p.block(0, 1), &[3.0]);
        assert_eq!(p.block(1, 0), &[4.0, 5.0]);
        assert_eq!(p.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn block_max_is_max_of_block_norms() {
        // Block 0 differs by (3,4) -> 5; block 1 differs by 1.
        let data = [0.0, 0.0, 0.0, 3.0, 4.0, 1.0];
        let p = BlockPoints::new(&data, 2, &[2, 1]);
        assert!((p.block_max_dist(0, 1) - 5.0).abs() < 1e-12);
        let dists = p.block_dists(0, 1);
        assert!((dists[0] - 5.0).abs() < 1e-12);
        assert!((dists[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_dist_early_exit() {
        let data = [0.0, 0.0, 0.0, 3.0, 4.0, 1.0];
        let p = BlockPoints::new(&data, 2, &[2, 1]);
        assert!(p.block_max_dist_bounded(0, 1, 1.0).is_infinite());
        assert!((p.block_max_dist_bounded(0, 1, 10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn knn_excludes_self_and_sorts() {
        // 4 samples on a line, single block of dim 1.
        let data = [0.0, 1.0, 3.0, 7.0];
        let p = BlockPoints::new(&data, 4, &[1]);
        let nn = knn_block_max(&p, 0, 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].0, 1);
        assert_eq!(nn[1].0, 2);
        assert_eq!(nn[2].0, 3);
        assert!((kth_dist_block_max(&p, 0, 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn knn_caps_at_available_points() {
        let data = [0.0, 1.0];
        let p = BlockPoints::new(&data, 2, &[1]);
        let nn = knn_block_max(&p, 0, 10);
        assert_eq!(nn.len(), 1);
    }

    /// Frozen pre-SoA `block_max_dist_bounded`: the dimension-at-a-time
    /// loop, verbatim. The chunked kernels must reproduce it bit for bit.
    fn frozen_bounded_dist(p: &BlockPoints<'_>, a: usize, b: usize, bound: f64) -> f64 {
        let bound_sq = bound * bound;
        let ra = p.row(a);
        let rb = p.row(b);
        let mut max_sq: f64 = 0.0;
        if p.all_scalar() {
            for (x, y) in ra.iter().zip(rb) {
                let d = x - y;
                let d2 = d * d;
                if d2 > max_sq {
                    max_sq = d2;
                    if max_sq > bound_sq {
                        return f64::INFINITY;
                    }
                }
            }
        } else {
            for w in p.offs().windows(2) {
                let mut d2 = 0.0;
                for (x, y) in ra[w[0]..w[1]].iter().zip(&rb[w[0]..w[1]]) {
                    let d = x - y;
                    d2 += d * d;
                }
                if d2 > max_sq {
                    max_sq = d2;
                    if max_sq > bound_sq {
                        return f64::INFINITY;
                    }
                }
            }
        }
        max_sq.sqrt()
    }

    /// Frozen pre-SoA scan kNN (the row-at-a-time pruned loop, verbatim),
    /// kept as the reference the lane kernel is pinned against.
    fn frozen_scan_knn(p: &BlockPoints<'_>, q: usize, k: usize) -> Vec<(usize, f64)> {
        let mut best = Vec::new();
        let m = p.rows();
        let k = k.min(m.saturating_sub(1));
        if k == 0 {
            return best;
        }
        let mut worst = f64::INFINITY;
        for j in 0..m {
            if j == q {
                continue;
            }
            let d = frozen_bounded_dist(p, q, j, worst);
            if d.is_finite() {
                offer_candidate(&mut best, k, j, d, &mut worst);
            }
        }
        best
    }

    #[test]
    fn lanes_knn_remainder_sizes_match_scan_exactly() {
        // Row counts straddling the lane width and strides straddling the
        // dim chunk — every padding/remainder combination of the tile.
        let mut rng = sops_math::SplitMix64::new(41);
        for rows in [LANES - 1, LANES, LANES + 1, 3 * LANES - 1, 3 * LANES + 1] {
            for stride in [1usize, DIM_CHUNK - 1, DIM_CHUNK, DIM_CHUNK + 1, 40] {
                let data: Vec<f64> = (0..rows * stride)
                    .map(|_| rng.next_range(-5.0, 5.0))
                    .collect();
                let sizes = vec![1usize; stride];
                let p = BlockPoints::new(&data, rows, &sizes);
                let mut lanes = ScalarLanes::new();
                lanes.rebuild(&p);
                let mut best = Vec::new();
                for q in 0..rows {
                    for k in [1usize, 4, rows] {
                        knn_block_max_lanes_into(&p, &lanes, q, k, &mut best);
                        let want = frozen_scan_knn(&p, q, k);
                        assert_eq!(best.len(), want.len(), "rows={rows} stride={stride}");
                        for (g, w) in best.iter().zip(&want) {
                            assert_eq!(g.0, w.0, "rows={rows} stride={stride} q={q} k={k}");
                            assert_eq!(g.1.to_bits(), w.1.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_lanes_rebuild_is_allocation_stable() {
        let mut rng = sops_math::SplitMix64::new(7);
        let data: Vec<f64> = (0..90 * 11).map(|_| rng.next_range(-1.0, 1.0)).collect();
        let sizes = vec![1usize; 11];
        let mut lanes = ScalarLanes::new();
        lanes.rebuild(&BlockPoints::new(&data, 90, &sizes));
        let cap = lanes.capacity_signature();
        for rows in [90usize, 64, 81, 90] {
            lanes.rebuild(&BlockPoints::new(&data[..rows * 11], rows, &sizes));
            assert_eq!(lanes.capacity_signature(), cap, "rebuild must not allocate");
        }
    }

    /// Reference implementation: full sort of the max-block distances.
    fn knn_reference(p: &BlockPoints<'_>, q: usize, k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = (0..p.rows())
            .filter(|&j| j != q)
            .map(|j| (j, p.block_max_dist(q, j)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let data = [0.0, 0.0, 0.0, 3.0, 4.0, 1.0, 1.0, 1.0, 2.0];
        let p = BlockPoints::new(&data, 3, &[2, 1]);
        let mut dists = [0.0f64; 2];
        p.block_dists_into(0, 1, &mut dists);
        assert_eq!(dists.to_vec(), p.block_dists(0, 1));
        let mut best = Vec::new();
        knn_block_max_into(&p, 0, 2, &mut best);
        assert_eq!(best, knn_block_max(&p, 0, 2));
    }

    #[test]
    fn offset_buf_constructor_matches_owned() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut buf = Vec::new();
        let p = BlockPoints::with_offset_buf(&mut buf, &data, 2, &[2, 1]);
        let q = BlockPoints::new(&data, 2, &[2, 1]);
        assert_eq!(p.stride(), q.stride());
        assert_eq!(p.blocks(), q.blocks());
        assert_eq!(p.block(1, 0), q.block(1, 0));
        assert_eq!(
            p.block_max_dist(0, 1).to_bits(),
            q.block_max_dist(0, 1).to_bits()
        );
    }

    #[test]
    fn tree_search_matches_scan_on_line() {
        let data = [0.0, 1.0, 3.0, 7.0, 2.5];
        let p = BlockPoints::new(&data, 5, &[1]);
        let tree = KdTree::build(1, &data);
        let mut stack = Vec::new();
        let mut best = Vec::new();
        for q in 0..5 {
            for k in 1..5 {
                knn_block_max_tree_into(&p, &tree, q, k, &mut stack, &mut best);
                assert_eq!(best, knn_block_max(&p, q, k), "q={q} k={k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tree_search_matches_scan(
            rows in 2..60usize,
            k in 1..8usize,
            seed in 0..u64::MAX
        ) {
            let mut rng = sops_math::SplitMix64::new(seed);
            // 2 blocks of sizes 1, 2 -> stride 3 (mixed scalar/vector).
            let data: Vec<f64> = (0..rows * 3).map(|_| rng.next_range(-10.0, 10.0)).collect();
            let p = BlockPoints::new(&data, rows, &[1, 2]);
            let tree = KdTree::build(3, &data);
            let mut stack = Vec::new();
            let mut best = Vec::new();
            for q in 0..rows.min(6) {
                knn_block_max_tree_into(&p, &tree, q, k, &mut stack, &mut best);
                let want = knn_block_max(&p, q, k);
                prop_assert_eq!(best.len(), want.len());
                for (g, w) in best.iter().zip(&want) {
                    prop_assert_eq!(g.0, w.0, "{:?} vs {:?}", best, want);
                    prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
                }
            }
        }

        /// Quantized coordinates force massive distance ties: the scan,
        /// the tree descent, and the canonical sort-based reference must
        /// still agree exactly — indices included.
        #[test]
        fn tree_and_scan_agree_canonically_under_ties(
            rows in 4..50usize,
            k in 1..8usize,
            seed in 0..u64::MAX
        ) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let data: Vec<f64> = (0..rows * 2)
                .map(|_| (rng.next_range(-3.0, 3.0)).round())
                .collect();
            let p = BlockPoints::new(&data, rows, &[1, 1]);
            let tree = KdTree::build(2, &data);
            let mut stack = Vec::new();
            let mut best = Vec::new();
            for q in 0..rows.min(8) {
                let scan = knn_block_max(&p, q, k);
                let want = knn_reference(&p, q, k);
                prop_assert_eq!(&scan, &want, "scan vs canonical reference, q={}", q);
                knn_block_max_tree_into(&p, &tree, q, k, &mut stack, &mut best);
                prop_assert_eq!(&best, &want, "tree vs canonical reference, q={}", q);
            }
        }

        #[test]
        fn knn_matches_reference(
            rows in 2..40usize,
            k in 1..8usize,
            seed in 0..u64::MAX
        ) {
            let mut rng = sops_math::SplitMix64::new(seed);
            // 3 blocks of sizes 2, 2, 1 -> stride 5.
            let data: Vec<f64> = (0..rows * 5).map(|_| rng.next_range(-10.0, 10.0)).collect();
            let p = BlockPoints::new(&data, rows, &[2, 2, 1]);
            for q in 0..rows.min(5) {
                let got = knn_block_max(&p, q, k);
                let want = knn_reference(&p, q, k);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!((g.1 - w.1).abs() < 1e-9, "{:?} vs {:?}", g, w);
                }
            }
        }

        /// The chunked bounded-distance kernels (scalar Chebyshev lanes
        /// and the generic block loop) against the frozen pre-SoA
        /// dimension-at-a-time implementation, bit for bit — bounds
        /// included, on continuous and quantized (tie-heavy) data.
        #[test]
        fn chunked_bounded_dist_bit_identical_to_frozen(
            rows in 2..24usize,
            stride in 1..24usize,
            seed in 0..u64::MAX
        ) {
            let quantize = seed & 1 == 0;
            let mut rng = sops_math::SplitMix64::new(seed);
            let data: Vec<f64> = (0..rows * stride)
                .map(|_| {
                    let v = rng.next_range(-4.0, 4.0);
                    if quantize { v.round() } else { v }
                })
                .collect();
            let scalar_sizes = vec![1usize; stride];
            let mixed_sizes = if stride >= 3 {
                vec![1usize, 2, stride - 3].into_iter().filter(|&s| s > 0).collect()
            } else {
                scalar_sizes.clone()
            };
            for sizes in [scalar_sizes, mixed_sizes] {
                let p = BlockPoints::new(&data, rows, &sizes);
                for a in 0..rows.min(4) {
                    for b in 0..rows {
                        for bound in [f64::INFINITY, 2.0, 0.5, 0.0] {
                            prop_assert_eq!(
                                p.block_max_dist_bounded(a, b, bound).to_bits(),
                                frozen_bounded_dist(&p, a, b, bound).to_bits(),
                                "a={} b={} bound={} sizes={:?}", a, b, bound, &sizes
                            );
                        }
                    }
                }
            }
        }

        /// The SoA lane scan against the frozen row-at-a-time scan:
        /// identical indices and bit-identical distances on continuous
        /// and quantized data, all remainder geometries.
        #[test]
        fn lanes_knn_bit_identical_to_frozen_scan(
            rows in 2..40usize,
            stride in 1..20usize,
            k in 1..8usize,
            seed in 0..u64::MAX
        ) {
            let quantize = seed & 1 == 0;
            let mut rng = sops_math::SplitMix64::new(seed);
            let data: Vec<f64> = (0..rows * stride)
                .map(|_| {
                    let v = rng.next_range(-3.0, 3.0);
                    if quantize { v.round() } else { v }
                })
                .collect();
            let sizes = vec![1usize; stride];
            let p = BlockPoints::new(&data, rows, &sizes);
            let mut lanes = ScalarLanes::new();
            lanes.rebuild(&p);
            let mut best = Vec::new();
            for q in 0..rows.min(6) {
                knn_block_max_lanes_into(&p, &lanes, q, k, &mut best);
                let want = frozen_scan_knn(&p, q, k);
                prop_assert_eq!(best.len(), want.len());
                for (g, w) in best.iter().zip(&want) {
                    prop_assert_eq!(g.0, w.0, "{:?} vs {:?}", &best, &want);
                    prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
                }
            }
        }

        #[test]
        fn block_max_is_a_metric(
            seed in 0..u64::MAX
        ) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let data: Vec<f64> = (0..3 * 4).map(|_| rng.next_range(-5.0, 5.0)).collect();
            let p = BlockPoints::new(&data, 3, &[2, 2]);
            // Symmetry and triangle inequality on three points.
            let d01 = p.block_max_dist(0, 1);
            let d10 = p.block_max_dist(1, 0);
            let d02 = p.block_max_dist(0, 2);
            let d12 = p.block_max_dist(1, 2);
            prop_assert!((d01 - d10).abs() < 1e-12);
            prop_assert!(d02 <= d01 + d12 + 1e-9);
        }
    }
}
