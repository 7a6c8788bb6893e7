//! The persistent, allocation-free information-estimation engine.
//!
//! The KSG estimator is the measurement loop's hottest kernel: the
//! pipeline runs it at every evaluation step, `pairwise_mi_matrix` runs
//! it once per block pair, and the Eq. 5 decomposition once per grouping
//! term. The free-function implementations rebuilt every per-block
//! kd-tree, copied `merged_blocks` matrices per pair, and allocated three
//! vectors per *sample* (k-NN result, per-block distances, Ksg2 radii).
//! [`InfoWorkspace`] — the information-stack sibling of
//! `sops_sim::ForceWorkspace`, reached through
//! [`crate::MeasureWorkspace`] — removes all of that:
//!
//! * **Shared per-block indexes** — the strict/inclusive range-count
//!   structure of every observer block (a sorted column for scalar
//!   blocks, coordinate-major columns for vector blocks) is built once
//!   per sample view and shared across the joint term, all `n(n−1)/2`
//!   pairs of the MI matrix, and every within-group term of
//!   [`InfoWorkspace::decompose`]: block `b`'s index is no longer rebuilt
//!   `n−1` times per matrix. A vector block counts with one branch-free
//!   pass over all its points rather than a kd-tree: the radius a
//!   many-block joint space hands a marginal covers most of the marginal
//!   cloud (63–85% of it on per-particle views of 20–40 two-dimensional
//!   blocks with m = 120–2,000), so a tree visits nearly every leaf
//!   anyway, and the plain loop took 0.06–0.11× of the tree's time per
//!   count there.
//! * **Adaptive joint k-NN** — high joint dimension keeps the pruned
//!   brute-force scan (where space partitioning degenerates, per the
//!   `sops_spatial::block_max` docs), run over a lane-transposed SoA
//!   tile ([`sops_spatial::block_max::ScalarLanes`]) when every block is
//!   scalar; low joint dimension (pairwise scalar MI is dim-2) routes
//!   through an iterative kd-tree descent under the block-max metric
//!   ([`sops_spatial::block_max::knn_block_max_tree_into`]) whose leaves
//!   are scanned as contiguous row slabs, turning each pair's `O(m²)`
//!   scan into `O(m log m)`. All paths are bit-identical.
//! * **Per-worker scratch, zero steady-state allocations** — samples are
//!   partitioned into [`INFO_CHUNKS`] fixed spans; each span owns its
//!   scratch (neighbour buffer, radii, traversal stack, per-sample ψ
//!   terms, per-pair gather + joint tree) and is reused across calls. A
//!   warmed-up workspace allocates nothing per call beyond its return
//!   value (enforced by `tests/workspace_info.rs`).
//! * **Determinism** — per-sample ψ terms are written into span slots and
//!   reduced in sample order, so results are **bit-identical for any
//!   worker count** and equal to the sequential reference — a stronger
//!   contract than the old `parallel_reduce` path, which reassociated
//!   the sum under parallelism. The pipeline's bit-identity suite rides
//!   on this.

use crate::decomposition::{Decomposition, Grouping};
use crate::ksg::{KnnMode, KsgConfig, KsgVariant};
use crate::SampleView;
use sops_math::special::digamma;
use sops_math::{PairMatrix, NATS_TO_BITS};
use sops_spatial::block_max::{
    knn_block_max_into, knn_block_max_lanes_into, knn_block_max_tree_into, BlockPoints,
    ScalarLanes, LANES,
};
use sops_spatial::KdTree;

/// Number of fixed sample spans the estimator loop is partitioned into
/// — and therefore the maximum useful estimator worker count.
///
/// The span partition only decides which scratch buffer serves which
/// sample; the ψ reduction always runs in global sample order, so the
/// result is bit-identical for *any* span count or thread count (unlike
/// the force engine, whose chunk partition fixes the accumulation
/// order). 64 spans keep many-core machines busy while per-span scratch
/// stays tiny.
pub(crate) const INFO_CHUNKS: usize = 64;

/// Joint dimensions up to this use the kd-tree k-NN descent under
/// [`KnnMode::Auto`]; beyond it the pruned scan wins. Measured with the
/// `estimators` bench on correlated-Gaussian fixtures: at joint dim 10
/// the tree is ~1.6× faster than the scan (`ksg_scaling/m500_n10`), at
/// dim 40 it is ~1.1× slower (`ksg_scaling/m1000_n40`) — the boundary
/// sits between, and 16 keeps both regimes on their winning path.
const MAX_TREE_JOINT_DIM: usize = 16;

/// Minimum sample count for the tree path to amortize its build.
const MIN_TREE_ROWS: usize = 64;

/// Minimum sample count for the scan path to amortize the [`ScalarLanes`]
/// transpose (one pass over the data, repaid across the `m` queries that
/// share the tile).
const MIN_LANES_ROWS: usize = 2 * LANES;

pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        sops_par::default_threads()
    } else {
        threads
    }
}

/// [`KdTree::build`] supports at most this many dimensions; joint spaces
/// beyond it always take the scan, even under [`KnnMode::KdTree`].
const KDTREE_MAX_DIM: usize = 255;

pub(crate) fn use_tree(mode: KnnMode, joint_dim: usize, rows: usize) -> bool {
    match mode {
        KnnMode::BruteForce => false,
        KnnMode::KdTree => joint_dim <= KDTREE_MAX_DIM,
        KnnMode::Auto => joint_dim <= MAX_TREE_JOINT_DIM && rows >= MIN_TREE_ROWS,
    }
}

/// Strict/inclusive range-count index over one observer block's columns:
/// a sorted value array for scalar blocks (two binary searches per
/// count), the coordinate-major columns for vector blocks (one
/// branch-free pass per count, [`count_columns`]). Counts equal
/// [`KdTree::count_within`]'s wherever the tree's split prune agrees with
/// its own leaf test — both compare the same floating-point squared
/// distance against `radius²` — which holds for every finite radius whose
/// square is normal.
///
/// A NaN coordinate panics in [`CountIndex::prepare`] for every block
/// width and sample count, so NaN observer data quarantines its cell.
#[derive(Debug, Clone)]
struct CountIndex {
    dim: usize,
    rows: usize,
    /// Vector blocks: the block's `dim × rows` columns, coordinate-major
    /// (unused for scalar blocks).
    cols: Vec<f64>,
    /// Scalar blocks: the column values, sorted ascending.
    sorted: Vec<f64>,
}

impl CountIndex {
    fn new() -> Self {
        CountIndex {
            dim: 0,
            rows: 0,
            cols: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Re-indexes the block at `offset` (width `dim`) of the row-major
    /// `data` matrix. Allocation-free once warm.
    ///
    /// # Panics
    ///
    /// Panics on a NaN coordinate.
    fn prepare(&mut self, data: &[f64], rows: usize, stride: usize, offset: usize, dim: usize) {
        self.dim = dim;
        self.rows = rows;
        if dim == 1 {
            self.sorted.clear();
            self.sorted
                .extend((0..rows).map(|r| data[r * stride + offset]));
            self.sorted
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("CountIndex: NaN sample"));
        } else {
            self.cols.clear();
            for k in offset..offset + dim {
                self.cols.extend((0..rows).map(|r| data[r * stride + k]));
            }
            assert!(
                !self.cols.iter().any(|v| v.is_nan()),
                "CountIndex: NaN sample"
            );
        }
    }

    /// Number of block points within `radius` of `q` (strict or
    /// inclusive).
    #[inline]
    fn count_within(&self, q: &[f64], radius: f64, strict: bool) -> usize {
        if self.dim == 1 {
            count_sorted(&self.sorted, q[0], radius, strict)
        } else {
            count_columns(&self.cols, self.rows, q, radius, strict)
        }
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.cols.capacity());
        sig.push(self.sorted.capacity());
    }
}

/// Range count over coordinate-major columns (`cols[k * rows + r]` is
/// coordinate `k` of point `r`): every point's squared distance to `q` is
/// summed as `sops_spatial::dist_sq(point, q)` sums it — `(point − q)²`
/// per coordinate, in coordinate order, from `0.0` — and compared with
/// `radius²` by `<` (strict) or `<=`, the test a [`KdTree`] leaf applies.
/// The pass has no branch on the data; a negative radius counts nothing,
/// as in the tree.
fn count_columns(cols: &[f64], rows: usize, q: &[f64], radius: f64, strict: bool) -> usize {
    if radius < 0.0 {
        return 0;
    }
    let r2 = radius * radius;
    if strict {
        count_columns_by(cols, rows, q, |d| d < r2)
    } else {
        count_columns_by(cols, rows, q, |d| d <= r2)
    }
}

#[inline(always)]
fn count_columns_by(cols: &[f64], rows: usize, q: &[f64], hit: impl Fn(f64) -> bool) -> usize {
    let cols = &cols[..q.len() * rows];
    if let [q0, q1] = *q {
        // Two-dimensional blocks, the per-particle observers every sweep
        // measures: one loop over both columns.
        let (xs, ys) = cols.split_at(rows);
        return xs
            .iter()
            .zip(ys)
            .filter(|&(&x, &y)| {
                let (dx, dy) = (x - q0, y - q1);
                hit(0.0 + dx * dx + dy * dy)
            })
            .count();
    }
    // Wider blocks: eight points at a time keep their sums in registers.
    const LANES: usize = 8;
    let full = rows - rows % LANES;
    let mut count = 0;
    for r in (0..full).step_by(LANES) {
        let mut acc = [0.0f64; LANES];
        for (k, &qk) in q.iter().enumerate() {
            let col = &cols[k * rows + r..k * rows + r + LANES];
            for (a, &x) in acc.iter_mut().zip(col) {
                let d = x - qk;
                *a += d * d;
            }
        }
        count += acc.iter().filter(|&&d| hit(d)).count();
    }
    for r in full..rows {
        let mut acc = 0.0;
        for (k, &qk) in q.iter().enumerate() {
            let d = cols[k * rows + r] - qk;
            acc += d * d;
        }
        count += usize::from(hit(acc));
    }
    count
}

/// Range count on a sorted scalar column. The qualifying set
/// `{x : (x−q)² ⋚ r²}` is contiguous in sorted order ( `(x−q)²` is
/// monotone in `|x−q|`, and floating-point squaring preserves the
/// ordering), so two binary searches bound it exactly — the same
/// comparison the kd-tree leaf performs, hence identical counts.
fn count_sorted(sorted: &[f64], q: f64, radius: f64, strict: bool) -> usize {
    if radius < 0.0 {
        return 0;
    }
    let r2 = radius * radius;
    let qualify = |x: f64| {
        let d = x - q;
        let d2 = d * d;
        if strict {
            d2 < r2
        } else {
            d2 <= r2
        }
    };
    let pos = sorted.partition_point(|&x| x < q);
    let lo = sorted[..pos].partition_point(|&x| !qualify(x));
    let hi = pos + sorted[pos..].partition_point(|&x| qualify(x));
    hi - lo
}

/// Per-span scratch: everything one worker needs to evaluate samples (or
/// whole pairs) without touching the allocator.
#[derive(Debug, Clone)]
struct ChunkScratch {
    /// Per-sample ψ terms for this span, reduced in sample order.
    psi: Vec<f64>,
    /// k-NN result buffer.
    neigh: Vec<(usize, f64)>,
    /// Per-block radii (Paper / Ksg2 variants).
    radii: Vec<f64>,
    /// Per-block distance scratch (Ksg2 rectangle update).
    dists: Vec<f64>,
    /// Explicit stack for the kd-tree descent.
    stack: Vec<(u32, f64)>,
    /// Gathered joint columns of the pair under evaluation.
    gather: Vec<f64>,
    /// Prefix-offset buffer for the pair view.
    offsets: Vec<usize>,
    /// Joint kd-tree over `gather`.
    tree: KdTree,
    /// Per-pair MI values produced by this span.
    values: Vec<f64>,
}

impl ChunkScratch {
    fn new() -> Self {
        ChunkScratch {
            psi: Vec::new(),
            neigh: Vec::new(),
            radii: Vec::new(),
            dists: Vec::new(),
            stack: Vec::new(),
            gather: Vec::new(),
            offsets: Vec::new(),
            tree: KdTree::build(1, &[]),
            values: Vec::new(),
        }
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.psi.capacity());
        sig.push(self.neigh.capacity());
        sig.push(self.radii.capacity());
        sig.push(self.dists.capacity());
        sig.push(self.stack.capacity());
        sig.push(self.gather.capacity());
        sig.push(self.offsets.capacity());
        sig.push(self.values.capacity());
        sig.extend(self.tree.capacity_signature());
    }
}

/// Persistent buffers and shared indexes for the KSG estimator family.
///
/// One workspace serves [`InfoWorkspace::multi_information`],
/// [`InfoWorkspace::pairwise_mi_matrix`] and [`InfoWorkspace::decompose`]
/// back to back. [`crate::MeasureWorkspace`] owns one and is its only
/// public face: the KSG selection of
/// [`crate::MeasureWorkspace::estimator_mut`], the pairwise matrix and
/// the decomposition all forward here.
#[derive(Debug, Clone)]
pub(crate) struct InfoWorkspace {
    /// Per-block count indexes of the current view.
    fine: Vec<CountIndex>,
    /// Per-coarse-block indexes (decomposition between-term).
    coarse: Vec<CountIndex>,
    /// Joint kd-tree shared by the spans of a chunked term.
    joint_tree: KdTree,
    /// Lane-transposed joint samples for the SoA pruned scan (all-scalar
    /// block sets on the brute-force path), shared by the spans of a
    /// chunked term.
    scan_lanes: ScalarLanes,
    /// Identity block→index maps.
    identity_map: Vec<usize>,
    coarse_map: Vec<usize>,
    /// Prefix offsets of the view's blocks (pair/group gathering).
    view_offsets: Vec<usize>,
    /// Flattened (i, j) pair list of the MI matrix.
    pairs: Vec<(usize, usize)>,
    /// Fixed per-span scratch.
    chunks: Vec<ChunkScratch>,
    /// Decomposition gathers.
    coarse_data: Vec<f64>,
    coarse_sizes: Vec<usize>,
    coarse_offsets: Vec<usize>,
    group_data: Vec<f64>,
    group_sizes: Vec<usize>,
    group_offsets: Vec<usize>,
}

impl Default for InfoWorkspace {
    fn default() -> Self {
        InfoWorkspace::new()
    }
}

impl InfoWorkspace {
    /// An empty workspace. Buffers grow to the workload size on first use
    /// and are reused afterwards.
    pub(crate) fn new() -> Self {
        InfoWorkspace {
            fine: Vec::new(),
            coarse: Vec::new(),
            joint_tree: KdTree::build(1, &[]),
            scan_lanes: ScalarLanes::new(),
            identity_map: Vec::new(),
            coarse_map: Vec::new(),
            view_offsets: Vec::new(),
            pairs: Vec::new(),
            chunks: vec![ChunkScratch::new(); INFO_CHUNKS],
            coarse_data: Vec::new(),
            coarse_sizes: Vec::new(),
            coarse_offsets: Vec::new(),
            group_data: Vec::new(),
            group_sizes: Vec::new(),
            group_offsets: Vec::new(),
        }
    }

    /// Multi-information (bits) between the observer blocks of `view`,
    /// allocation-free once warm. Returns 0 for a single block
    /// (multi-information of one variable is 0 by convention).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.k == 0` or `cfg.k >= view.rows`.
    pub(crate) fn multi_information(&mut self, view: &SampleView<'_>, cfg: &KsgConfig) -> f64 {
        let n = view.blocks();
        if n < 2 {
            return 0.0;
        }
        assert_ksg_bounds(cfg, view.rows);
        let m = view.rows;
        let stride = view.stride();
        let threads = resolve_threads(cfg.threads);
        let InfoWorkspace {
            fine,
            joint_tree,
            scan_lanes,
            identity_map,
            chunks,
            ..
        } = self;
        prepare_indexes(fine, view.data, m, stride, view.block_sizes);
        identity_map.clear();
        identity_map.extend(0..n);
        let points = BlockPoints::new(view.data, m, view.block_sizes);
        let tree = if use_tree(cfg.knn, stride, m) {
            joint_tree.rebuild(stride, view.data);
            Some(&*joint_tree)
        } else {
            None
        };
        let lanes = prepare_lanes(scan_lanes, &points, tree.is_some());
        let psi_sum = chunked_psi_sum(
            &points,
            fine,
            identity_map,
            tree,
            lanes,
            cfg.k,
            cfg.variant,
            m,
            chunks,
            threads,
        );
        mi_bits(psi_sum, m, n, cfg.k, cfg.variant)
    }

    /// Pairwise mutual-information matrix between all observer blocks:
    /// entry `(i, j)` is `I(Wᵢ; Wⱼ)` in bits, diagonal 0. Per-block
    /// indexes are built once and shared by every pair, and each pair's
    /// joint search takes the kd-tree path (its joint dimension is small).
    pub(crate) fn pairwise_mi_matrix(
        &mut self,
        view: &SampleView<'_>,
        cfg: &KsgConfig,
    ) -> PairMatrix {
        let n = view.blocks();
        let mut out = PairMatrix::constant(n, 0.0);
        if n < 2 {
            return out;
        }
        assert_ksg_bounds(cfg, view.rows);
        let m = view.rows;
        let stride = view.stride();
        let threads = resolve_threads(cfg.threads);
        let InfoWorkspace {
            fine,
            view_offsets,
            pairs,
            chunks,
            ..
        } = self;
        prepare_indexes(fine, view.data, m, stride, view.block_sizes);
        fill_prefix_offsets(view.block_sizes, view_offsets);
        pairs.clear();
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j));
            }
        }
        let npairs = pairs.len();
        let nchunks = chunks.len();
        let fine = &*fine;
        let pairs = &*pairs;
        let view_offsets = &*view_offsets;
        let data = view.data;
        let sizes = view.block_sizes;
        sops_par::parallel_chunks_mut(chunks, nchunks, threads, |c, bufs| {
            let scratch = &mut bufs[0];
            scratch.values.clear();
            let lo = c * npairs / nchunks;
            let hi = (c + 1) * npairs / nchunks;
            let ChunkScratch {
                psi,
                neigh,
                radii,
                dists,
                stack,
                gather,
                offsets,
                tree,
                values,
            } = scratch;
            for &(bi, bj) in &pairs[lo..hi] {
                let (oi, di) = (view_offsets[bi], sizes[bi]);
                let (oj, dj) = (view_offsets[bj], sizes[bj]);
                gather.clear();
                for r in 0..m {
                    let row = &data[r * stride..(r + 1) * stride];
                    gather.extend_from_slice(&row[oi..oi + di]);
                    gather.extend_from_slice(&row[oj..oj + dj]);
                }
                let pair_sizes = [di, dj];
                let pair_stride = di + dj;
                let tree_ref = if use_tree(cfg.knn, pair_stride, m) {
                    tree.rebuild(pair_stride, gather);
                    Some(&*tree)
                } else {
                    None
                };
                let points = BlockPoints::with_offset_buf(offsets, gather, m, &pair_sizes);
                let map = [bi, bj];
                term_psi_span(
                    &points,
                    fine,
                    &map,
                    tree_ref,
                    None,
                    cfg.k,
                    cfg.variant,
                    0,
                    m,
                    neigh,
                    radii,
                    dists,
                    stack,
                    psi,
                );
                let psi_sum = psi.iter().fold(0.0, |a, &v| a + v);
                values.push(mi_bits(psi_sum, m, 2, cfg.k, cfg.variant));
            }
        });
        for (c, scratch) in self.chunks.iter().enumerate() {
            let lo = c * npairs / nchunks;
            for (off, &v) in scratch.values.iter().enumerate() {
                let (i, j) = self.pairs[lo + off];
                out.set(i, j, v);
            }
        }
        out
    }

    /// Every term of the Eq. 5 decomposition of `view` under `grouping`.
    /// The total and every within-group term share the fine per-block
    /// indexes; only the between-group term builds (reusable) coarse
    /// indexes.
    pub(crate) fn decompose(
        &mut self,
        view: &SampleView<'_>,
        grouping: &Grouping,
        cfg: &KsgConfig,
    ) -> Decomposition {
        grouping.validate(view.blocks());
        let total = self.multi_information(view, cfg);

        let m = view.rows;
        let stride = view.stride();
        let threads = resolve_threads(cfg.threads);
        let InfoWorkspace {
            fine,
            coarse,
            joint_tree,
            scan_lanes,
            coarse_map,
            view_offsets,
            chunks,
            coarse_data,
            coarse_sizes,
            coarse_offsets,
            group_data,
            group_sizes,
            group_offsets,
            ..
        } = self;
        fill_prefix_offsets(view.block_sizes, view_offsets);

        // Between-group term: merge each group's blocks into one coarse
        // block (same row layout as the old `decompose`, gathered into a
        // reusable buffer). A single group has a between-term of 0 by
        // convention, so the gather is skipped entirely.
        let g = grouping.groups.len();
        let between = if g < 2 {
            0.0
        } else {
            coarse_sizes.clear();
            coarse_sizes.extend(
                grouping
                    .groups
                    .iter()
                    .map(|members| members.iter().map(|&b| view.block_sizes[b]).sum::<usize>()),
            );
            coarse_data.clear();
            for r in 0..m {
                let row = &view.data[r * stride..(r + 1) * stride];
                for members in &grouping.groups {
                    for &b in members {
                        coarse_data.extend_from_slice(
                            &row[view_offsets[b]..view_offsets[b] + view.block_sizes[b]],
                        );
                    }
                }
            }
            prepare_indexes(coarse, coarse_data, m, stride, coarse_sizes);
            coarse_map.clear();
            coarse_map.extend(0..g);
            let tree = if use_tree(cfg.knn, stride, m) {
                joint_tree.rebuild(stride, coarse_data);
                Some(&*joint_tree)
            } else {
                None
            };
            let points = BlockPoints::with_offset_buf(coarse_offsets, coarse_data, m, coarse_sizes);
            let lanes = prepare_lanes(scan_lanes, &points, tree.is_some());
            let psi_sum = chunked_psi_sum(
                &points,
                coarse,
                coarse_map,
                tree,
                lanes,
                cfg.k,
                cfg.variant,
                m,
                chunks,
                threads,
            );
            mi_bits(psi_sum, m, g, cfg.k, cfg.variant)
        };

        // Within-group terms share the fine indexes built by the total.
        let mut within = Vec::with_capacity(g);
        for members in &grouping.groups {
            if members.len() < 2 {
                within.push(0.0);
                continue;
            }
            group_sizes.clear();
            group_sizes.extend(members.iter().map(|&b| view.block_sizes[b]));
            let gstride: usize = group_sizes.iter().sum();
            group_data.clear();
            for r in 0..m {
                let row = &view.data[r * stride..(r + 1) * stride];
                for &b in members {
                    group_data.extend_from_slice(
                        &row[view_offsets[b]..view_offsets[b] + view.block_sizes[b]],
                    );
                }
            }
            let tree = if use_tree(cfg.knn, gstride, m) {
                joint_tree.rebuild(gstride, group_data);
                Some(&*joint_tree)
            } else {
                None
            };
            let points = BlockPoints::with_offset_buf(group_offsets, group_data, m, group_sizes);
            let lanes = prepare_lanes(scan_lanes, &points, tree.is_some());
            let psi_sum = chunked_psi_sum(
                &points,
                fine,
                members,
                tree,
                lanes,
                cfg.k,
                cfg.variant,
                m,
                chunks,
                threads,
            );
            within.push(mi_bits(psi_sum, m, members.len(), cfg.k, cfg.variant));
        }

        Decomposition {
            total,
            between,
            within,
        }
    }

    /// Capacities of every internal buffer. A warmed-up workspace driving
    /// a bounded workload must keep this signature constant — the
    /// zero-allocation contract tested in
    /// `crates/sops-info/tests/workspace_info.rs`.
    pub(crate) fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.fine.len(),
            self.coarse.len(),
            self.identity_map.capacity(),
            self.coarse_map.capacity(),
            self.view_offsets.capacity(),
            self.pairs.capacity(),
            self.coarse_data.capacity(),
            self.coarse_sizes.capacity(),
            self.coarse_offsets.capacity(),
            self.group_data.capacity(),
            self.group_sizes.capacity(),
            self.group_offsets.capacity(),
        ];
        sig.extend(self.joint_tree.capacity_signature());
        sig.push(self.scan_lanes.capacity_signature());
        for idx in self.fine.iter().chain(&self.coarse) {
            idx.capacity_signature(&mut sig);
        }
        for chunk in &self.chunks {
            chunk.capacity_signature(&mut sig);
        }
        sig
    }
}

/// Retiles `scan_lanes` for a term that will take the pruned scan:
/// all-scalar block sets with enough rows to amortize the transpose get
/// the SoA lane kernel; everything else keeps the row-at-a-time scan.
/// Results are bit-identical either way (`sops_spatial::block_max` pins
/// this), so the routing is purely a throughput decision.
fn prepare_lanes<'l>(
    scan_lanes: &'l mut ScalarLanes,
    points: &BlockPoints<'_>,
    has_tree: bool,
) -> Option<&'l ScalarLanes> {
    if has_tree || !points.all_scalar() || points.rows() < MIN_LANES_ROWS {
        return None;
    }
    scan_lanes.rebuild(points);
    Some(scan_lanes)
}

fn assert_ksg_bounds(cfg: &KsgConfig, rows: usize) {
    assert!(cfg.k >= 1, "KSG: k must be >= 1");
    assert!(
        cfg.k < rows,
        "KSG: k = {} needs more than {} samples",
        cfg.k,
        rows
    );
}

/// Ensures `indexes` holds (at least) one prepared index per block of the
/// row-major `data` matrix. Never shrinks, so capacities persist across
/// heterogeneous workloads.
fn prepare_indexes(
    indexes: &mut Vec<CountIndex>,
    data: &[f64],
    rows: usize,
    stride: usize,
    block_sizes: &[usize],
) {
    while indexes.len() < block_sizes.len() {
        indexes.push(CountIndex::new());
    }
    let mut offset = 0;
    for (idx, &dim) in indexes.iter_mut().zip(block_sizes) {
        idx.prepare(data, rows, stride, offset, dim);
        offset += dim;
    }
}

/// Prefix offsets of a block-size list (no trailing stride entry).
fn fill_prefix_offsets(block_sizes: &[usize], out: &mut Vec<usize>) {
    out.clear();
    let mut acc = 0;
    for &s in block_sizes {
        out.push(acc);
        acc += s;
    }
}

/// Evaluates one KSG term over the fixed span partition, reducing the
/// per-sample ψ terms in sample order (bit-identical for any `threads`).
#[allow(clippy::too_many_arguments)]
fn chunked_psi_sum(
    points: &BlockPoints<'_>,
    indexes: &[CountIndex],
    index_map: &[usize],
    joint_tree: Option<&KdTree>,
    lanes: Option<&ScalarLanes>,
    k: usize,
    variant: KsgVariant,
    m: usize,
    chunks: &mut [ChunkScratch],
    threads: usize,
) -> f64 {
    let nchunks = chunks.len();
    sops_par::parallel_chunks_mut(chunks, nchunks, threads, |c, bufs| {
        let ChunkScratch {
            psi,
            neigh,
            radii,
            dists,
            stack,
            ..
        } = &mut bufs[0];
        let lo = c * m / nchunks;
        let hi = (c + 1) * m / nchunks;
        term_psi_span(
            points, indexes, index_map, joint_tree, lanes, k, variant, lo, hi, neigh, radii, dists,
            stack, psi,
        );
    });
    let mut sum = 0.0;
    for chunk in chunks.iter() {
        for &v in &chunk.psi {
            sum += v;
        }
    }
    sum
}

/// The per-sample KSG kernel for samples `lo..hi` of a term: joint k-NN
/// (scan or tree descent), then the variant's per-block ψ counts. One ψ
/// value per sample is pushed into `psi` (cleared first); the numeric
/// semantics are exactly those of the pre-workspace implementation.
#[allow(clippy::too_many_arguments)]
fn term_psi_span(
    points: &BlockPoints<'_>,
    indexes: &[CountIndex],
    index_map: &[usize],
    joint_tree: Option<&KdTree>,
    lanes: Option<&ScalarLanes>,
    k: usize,
    variant: KsgVariant,
    lo: usize,
    hi: usize,
    neigh: &mut Vec<(usize, f64)>,
    radii: &mut Vec<f64>,
    dists: &mut Vec<f64>,
    stack: &mut Vec<(u32, f64)>,
    psi: &mut Vec<f64>,
) {
    let n = index_map.len();
    psi.clear();
    for i in lo..hi {
        match (joint_tree, lanes) {
            (Some(tree), _) => knn_block_max_tree_into(points, tree, i, k, stack, neigh),
            (None, Some(lanes)) => knn_block_max_lanes_into(points, lanes, i, k, neigh),
            (None, None) => knn_block_max_into(points, i, k, neigh),
        }
        let kth = neigh.last().expect("KSG: k-th neighbour must exist").0;
        let mut local = 0.0;
        match variant {
            KsgVariant::Paper => {
                // Literal Eq. 20: per-block radius taken from the k-th
                // neighbour alone, strict count, self subtracted.
                radii.clear();
                radii.resize(n, 0.0);
                points.block_dists_into(i, kth, radii);
                for (b, &bi) in index_map.iter().enumerate() {
                    let q = points.block(i, b);
                    // Strict count includes self (distance 0), then −1
                    // removes it. Clamped at 1: a zero count occurs when
                    // the k-th neighbour's block coincides with the
                    // nearest, where ψ would diverge.
                    let c = indexes[bi]
                        .count_within(q, radii[b], true)
                        .saturating_sub(1)
                        .max(1);
                    local += digamma(c as f64);
                }
            }
            KsgVariant::Ksg2 => {
                // Rectangle geometry of Kraskov's estimator 2: the
                // per-block radius is the largest block-b distance over
                // *all* k nearest neighbours, counts inclusive.
                radii.clear();
                radii.resize(n, 0.0);
                dists.clear();
                dists.resize(n, 0.0);
                for &(j, _) in neigh.iter() {
                    points.block_dists_into(i, j, dists);
                    for (r, d) in radii.iter_mut().zip(dists.iter()) {
                        if *d > *r {
                            *r = *d;
                        }
                    }
                }
                for (b, &bi) in index_map.iter().enumerate() {
                    let q = points.block(i, b);
                    // Inclusive count; the radius-realizing neighbour is
                    // inside except in one rounding edge (√d² re-squared
                    // can land just below d²), where the clamp keeps ψ
                    // finite — the pre-workspace code fed ψ(0) there.
                    let c = indexes[bi]
                        .count_within(q, radii[b], false)
                        .saturating_sub(1)
                        .max(1);
                    local += digamma(c as f64);
                }
            }
            KsgVariant::Ksg1 => {
                // One joint radius ε = block-max distance to the k-th
                // neighbour; strict per-block counts, ψ(c + 1). The
                // saturating self-subtraction only differs from the plain
                // `- 1` when ε = 0 (duplicated joint samples), where the
                // old code underflowed.
                let eps = neigh.last().unwrap().1;
                for (b, &bi) in index_map.iter().enumerate() {
                    let q = points.block(i, b);
                    let c = indexes[bi].count_within(q, eps, true).saturating_sub(1);
                    local += digamma((c + 1) as f64);
                }
            }
        }
        psi.push(local);
    }
}

/// The KSG closed form from a ψ sum — shared by every term so the
/// floating-point expression matches the pre-workspace implementation
/// exactly.
fn mi_bits(psi_sum: f64, m: usize, n: usize, k: usize, variant: KsgVariant) -> f64 {
    let mean_psi = psi_sum / m as f64;
    let nm1 = (n - 1) as f64;
    let nats = match variant {
        KsgVariant::Paper => digamma(k as f64) + nm1 * digamma(m as f64) - mean_psi,
        KsgVariant::Ksg1 => digamma(k as f64) + nm1 * digamma(m as f64) - mean_psi,
        KsgVariant::Ksg2 => digamma(k as f64) - nm1 / k as f64 + nm1 * digamma(m as f64) - mean_psi,
    };
    nats * NATS_TO_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{equicorrelated_cov, sample_gaussian};
    use proptest::prelude::*;

    /// A `CountIndex` over `rows` points of width `dim`, gathered from a
    /// wider row-major matrix (one column before the block, one after).
    fn vector_index(points: &[f64], rows: usize, dim: usize) -> CountIndex {
        let stride = dim + 2;
        let mut data = vec![7.0; rows * stride];
        for r in 0..rows {
            data[r * stride + 1..r * stride + 1 + dim]
                .copy_from_slice(&points[r * dim..(r + 1) * dim]);
        }
        let mut index = CountIndex::new();
        index.prepare(&data, rows, stride, 1, dim);
        index
    }

    /// The per-point count `count_columns` claims to compute.
    fn per_point(points: &[f64], dim: usize, q: &[f64], radius: f64, strict: bool) -> usize {
        if radius < 0.0 {
            return 0;
        }
        let r2 = radius * radius;
        points
            .chunks_exact(dim)
            .filter(|p| {
                let d = sops_spatial::dist_sq(p, q);
                if strict {
                    d < r2
                } else {
                    d <= r2
                }
            })
            .count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn vector_count_index_matches_kd_tree(
            dim in 2usize..6,
            rows in 1usize..71,
            layout in 0usize..3,
            radius_pick in 0usize..6,
            query_pick in 0usize..2,
            seed in 0..u64::MAX,
        ) {
            // Continuous points, points repeated in runs (duplicates), or
            // half-integer lattice points, whose squared distances are
            // exact multiples of 1/4 and meet the lattice radii below
            // with exact `d² = r²` ties.
            let mut rng = sops_math::SplitMix64::new(seed);
            let coord = |rng: &mut sops_math::SplitMix64| match layout {
                0 => rng.next_range(-3.0, 3.0),
                _ => (rng.next_u64() % 9) as f64 * 0.5 - 2.0,
            };
            let mut points = Vec::with_capacity(rows * dim);
            for r in 0..rows {
                if layout == 1 && r % 3 != 0 {
                    let prev = points[(r - 1) * dim..r * dim].to_vec();
                    points.extend_from_slice(&prev);
                } else {
                    for _ in 0..dim {
                        points.push(coord(&mut rng));
                    }
                }
            }
            let q: Vec<f64> = if query_pick == 0 {
                let r = (rng.next_u64() % rows as u64) as usize;
                points[r * dim..(r + 1) * dim].to_vec()
            } else {
                (0..dim).map(|_| coord(&mut rng)).collect()
            };
            let radius = match radius_pick {
                0 => 0.0,
                1 => -0.5,
                2 => f64::NAN,
                3 => (rng.next_u64() % 7) as f64 * 0.5,
                4 => {
                    // The KSG way: a radius realized by one of the points.
                    let r = (rng.next_u64() % rows as u64) as usize;
                    sops_spatial::dist_sq(&points[r * dim..(r + 1) * dim], &q).sqrt()
                }
                _ => rng.next_range(0.0, 6.0),
            };
            let index = vector_index(&points, rows, dim);
            let tree = KdTree::build(dim, &points);
            for strict in [true, false] {
                let got = index.count_within(&q, radius, strict);
                prop_assert_eq!(got, tree.count_within(&q, radius, strict), "strict {}", strict);
                prop_assert_eq!(got, per_point(&points, dim, &q, radius, strict));
            }
        }
    }

    #[test]
    fn vector_count_index_departs_from_kd_tree_only_where_the_prune_does() {
        // The tree prunes a subtree when the query's distance to the split
        // plane exceeds `radius`, where its leaves compare `d²` with
        // `radius²`. The two tests disagree only when `radius²` loses
        // what `radius` holds: an inclusive count whose `radius²`
        // underflows, is subnormal or overflows, or an infinite radius
        // (`∞ − ∞` is NaN in the prune). The column count applies the
        // leaf test to every point, so it keeps the points the prune
        // loses.
        //
        // Six points at the origin and seven at `(a, 0)`: the tree splits
        // once, at `x = a`, so a query at the origin with `radius < a`
        // prunes the far side.
        let split = |a: f64| -> Vec<f64> {
            (0..13)
                .flat_map(|i| [if i < 6 { 0.0 } else { a }, 0.0])
                .collect()
        };
        let cases = [
            (split(3e-200), 1e-200), // radius² underflows to 0
            // radius² is subnormal, and the far side's d² rounds to it
            (split(1.5e-160 * (1.0 + 1e-9)), 1.5e-160),
            (split(3e200), 1e200),                 // radius² overflows to +∞
            (split(f64::INFINITY), f64::INFINITY), // the prune's ∞ − ∞
        ];
        let q = [0.0, 0.0];
        for (points, radius) in &cases {
            let (points, radius) = (points.as_slice(), *radius);
            let index = vector_index(points, 13, 2);
            let tree = KdTree::build(2, points);
            let want = per_point(points, 2, &q, radius, false);
            assert_eq!(index.count_within(&q, radius, false), want);
            assert!(
                tree.count_within(&q, radius, false) < want,
                "radius {radius}"
            );
            // Strict counts never depart: a point beyond the plane has
            // `d² ≥ radius²` after rounding, so the prune drops only
            // misses.
            assert_eq!(
                index.count_within(&q, radius, true),
                tree.count_within(&q, radius, true)
            );
        }
    }

    #[test]
    fn count_sorted_matches_tree_semantics() {
        let mut vals = vec![0.0, 1.0, 1.0, 2.5, -3.0, 0.5, 4.0];
        let tree_input = vals.clone();
        let tree = KdTree::build(1, &tree_input);
        vals.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [-3.5, -3.0, 0.0, 0.75, 1.0, 5.0] {
            for r in [0.0, 0.5, 1.0, 2.0, 10.0, -1.0] {
                for strict in [true, false] {
                    assert_eq!(
                        count_sorted(&vals, q, r, strict),
                        tree.count_within(&[q], r, strict),
                        "q={q} r={r} strict={strict}"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_tree_mode_falls_back_to_scan_beyond_kdtree_dim_limit() {
        assert!(use_tree(KnnMode::KdTree, 255, 1000));
        assert!(
            !use_tree(KnnMode::KdTree, 256, 1000),
            "joint spaces beyond the kd-tree dim limit must take the scan"
        );
        // End to end: a 300-dim joint view under forced KdTree must not
        // panic and must match the scan.
        let rows = 40;
        let blocks = 300;
        let mut rng = sops_math::SplitMix64::new(4);
        let data: Vec<f64> = (0..rows * blocks)
            .map(|_| rng.next_range(-1.0, 1.0))
            .collect();
        let sizes = vec![1usize; blocks];
        let view = SampleView::new(&data, rows, &sizes);
        let mut ws = InfoWorkspace::new();
        let run = |ws: &mut InfoWorkspace, knn| {
            ws.multi_information(
                &view,
                &KsgConfig {
                    knn,
                    ..KsgConfig::default()
                },
            )
        };
        let tree = run(&mut ws, KnnMode::KdTree);
        let brute = run(&mut ws, KnnMode::BruteForce);
        assert_eq!(tree.to_bits(), brute.to_bits());
    }

    #[test]
    fn workspace_reuse_across_shapes_matches_fresh() {
        let mut ws = InfoWorkspace::new();
        let cfg = KsgConfig::default();
        for (blocks, rows, seed) in [(4usize, 300usize, 1u64), (2, 500, 2), (6, 200, 3)] {
            let data = sample_gaussian(&equicorrelated_cov(blocks, 0.4), rows, seed);
            let sizes = vec![1usize; blocks];
            let view = SampleView::new(&data, rows, &sizes);
            let reused = ws.multi_information(&view, &cfg);
            let fresh = InfoWorkspace::new().multi_information(&view, &cfg);
            assert_eq!(reused.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn auto_routes_low_dim_through_tree_and_matches_brute() {
        let data = sample_gaussian(&equicorrelated_cov(2, 0.6), 400, 9);
        let sizes = [1usize, 1];
        let view = SampleView::new(&data, 400, &sizes);
        let mut ws = InfoWorkspace::new();
        let run = |ws: &mut InfoWorkspace, knn| {
            ws.multi_information(
                &view,
                &KsgConfig {
                    knn,
                    ..KsgConfig::default()
                },
            )
        };
        let auto = run(&mut ws, KnnMode::Auto);
        let brute = run(&mut ws, KnnMode::BruteForce);
        let tree = run(&mut ws, KnnMode::KdTree);
        assert_eq!(auto.to_bits(), brute.to_bits());
        assert_eq!(auto.to_bits(), tree.to_bits());
        assert!(use_tree(KnnMode::Auto, 2, 400), "dim-2 must take the tree");
        assert!(
            !use_tree(KnnMode::Auto, 40, 1000),
            "high joint dimension keeps the scan"
        );
    }
}
