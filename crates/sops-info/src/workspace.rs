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
//! * **Adaptive joint k-NN** — one rule, [`use_tree`], routes every
//!   term. High joint dimension keeps the pruned brute-force scan (where
//!   space partitioning degenerates, per the `sops_spatial::block_max`
//!   docs), run over a lane-transposed SoA tile
//!   ([`sops_spatial::block_max::ScalarLanes`]) when every block is
//!   scalar; low joint dimension (pairwise scalar MI is dim-2) routes
//!   through an iterative kd-tree descent under the block-max metric
//!   ([`sops_spatial::block_max::knn_block_max_tree_into`]) whose leaves
//!   are scanned as contiguous row slabs, turning each pair's `O(m²)`
//!   scan into `O(m log m)`. All routes return the same bits
//!   (`sops_spatial::block_max` pins that they agree on any input).
//! * **One scratch, zero steady-state allocations** — the engine runs on
//!   its caller's thread with one set of per-sample buffers (neighbour
//!   buffer, radii, traversal stack) and reusable gathers and joint tree.
//!   A warmed-up workspace allocates nothing per call beyond its return
//!   value (enforced by `tests/workspace_info.rs`). Callers parallelize
//!   over evaluation steps, one workspace per worker.
//! * **Determinism** — per-sample ψ terms are summed in sample order, the
//!   order of the sequential reference frozen in
//!   `tests/workspace_info.rs`, which the pipeline's bit-identity suite
//!   rides on.

use crate::decomposition::{Decomposition, Grouping};
use crate::ksg::{KsgConfig, KsgVariant};
use crate::SampleView;
use sops_math::special::digamma;
use sops_math::{PairMatrix, NATS_TO_BITS};
use sops_spatial::block_max::{
    knn_block_max_into, knn_block_max_lanes_into, knn_block_max_tree_into, BlockPoints,
    ScalarLanes, LANES,
};
use sops_spatial::KdTree;

/// Joint dimensions up to this take the kd-tree k-NN descent; beyond it
/// the pruned scan wins. Measured with the `estimators` bench on
/// correlated-Gaussian fixtures: at joint dim 10 the tree is ~1.6×
/// faster than the scan (`ksg_scaling/m500_n10`), at dim 40 it is ~1.1×
/// slower (`ksg_scaling/m1000_n40`) — the boundary sits between, and 16
/// keeps both regimes on their winning path.
const MAX_TREE_JOINT_DIM: usize = 16;

/// Minimum sample count for the tree path to amortize its build.
const MIN_TREE_ROWS: usize = 64;

/// Minimum sample count for the scan path to amortize the [`ScalarLanes`]
/// transpose (one pass over the data, repaid across the `m` queries that
/// share the tile).
const MIN_LANES_ROWS: usize = 2 * LANES;

/// The k-NN route of a term with `rows` samples in a `joint_dim`-wide
/// joint space: the kd-tree descent when the space is small enough for
/// the tree to prune and the sample large enough to repay its build,
/// the pruned scan otherwise. The KSG and CMI engines route every term
/// through this one rule; the routes return the same bits.
pub(crate) fn use_tree(joint_dim: usize, rows: usize) -> bool {
    joint_dim <= MAX_TREE_JOINT_DIM && rows >= MIN_TREE_ROWS
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

/// Per-sample scratch of the KSG kernel.
#[derive(Debug, Clone, Default)]
struct KnnScratch {
    /// k-NN result buffer.
    neigh: Vec<(usize, f64)>,
    /// Per-block radii (Paper / Ksg2 variants).
    radii: Vec<f64>,
    /// Per-block distance scratch (Ksg2 rectangle update).
    dists: Vec<f64>,
    /// Explicit stack for the kd-tree descent.
    stack: Vec<(u32, f64)>,
}

/// Everything one KSG term needs besides the count indexes: the joint
/// kd-tree or scan lanes of its route, its block offsets and the
/// per-sample k-NN scratch.
#[derive(Debug, Clone)]
struct TermScratch {
    /// Joint kd-tree of the term (tree route).
    joint_tree: KdTree,
    /// Lane-transposed joint samples of the term (all-scalar block sets
    /// on the scan route).
    scan_lanes: ScalarLanes,
    /// Prefix offsets of the term's blocks.
    offsets: Vec<usize>,
    knn: KnnScratch,
}

impl TermScratch {
    fn new() -> Self {
        TermScratch {
            joint_tree: KdTree::build(1, &[]),
            scan_lanes: ScalarLanes::new(),
            offsets: Vec::new(),
            knn: KnnScratch::default(),
        }
    }

    /// One KSG term in bits: the multi-information among the blocks
    /// (`sizes`) of the row-major `rows`-sample matrix `data`, block `b`
    /// counting in `indexes[index_map[b]]`. The term takes the route
    /// [`use_tree`] picks for its joint dimension and sample count.
    fn bits(
        &mut self,
        data: &[f64],
        rows: usize,
        sizes: &[usize],
        indexes: &[CountIndex],
        index_map: &[usize],
        cfg: &KsgConfig,
    ) -> f64 {
        let stride: usize = sizes.iter().sum();
        let TermScratch {
            joint_tree,
            scan_lanes,
            offsets,
            knn,
        } = self;
        let tree = if use_tree(stride, rows) {
            joint_tree.rebuild(stride, data);
            Some(&*joint_tree)
        } else {
            None
        };
        let points = BlockPoints::with_offset_buf(offsets, data, rows, sizes);
        let lanes = prepare_lanes(scan_lanes, &points, tree.is_some());
        let psi_sum = psi_sum(&points, indexes, index_map, tree, lanes, cfg, knn);
        mi_bits(psi_sum, rows, index_map.len(), cfg.k, cfg.variant)
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.extend(self.joint_tree.capacity_signature());
        sig.push(self.scan_lanes.capacity_signature());
        sig.push(self.offsets.capacity());
        sig.push(self.knn.neigh.capacity());
        sig.push(self.knn.radii.capacity());
        sig.push(self.knn.dists.capacity());
        sig.push(self.knn.stack.capacity());
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
    /// Identity block→index maps.
    identity_map: Vec<usize>,
    coarse_map: Vec<usize>,
    /// Prefix offsets of the view's blocks (pair/group gathering).
    view_offsets: Vec<usize>,
    /// Route and k-NN scratch of the term under evaluation.
    term: TermScratch,
    /// Decomposition between-term gather.
    coarse_data: Vec<f64>,
    coarse_sizes: Vec<usize>,
    /// Pair and within-group gathers.
    group_data: Vec<f64>,
    group_sizes: Vec<usize>,
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
            identity_map: Vec::new(),
            coarse_map: Vec::new(),
            view_offsets: Vec::new(),
            term: TermScratch::new(),
            coarse_data: Vec::new(),
            coarse_sizes: Vec::new(),
            group_data: Vec::new(),
            group_sizes: Vec::new(),
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
        prepare_indexes(
            &mut self.fine,
            view.data,
            m,
            view.stride(),
            view.block_sizes,
        );
        self.identity_map.clear();
        self.identity_map.extend(0..n);
        self.term.bits(
            view.data,
            m,
            view.block_sizes,
            &self.fine,
            &self.identity_map,
            cfg,
        )
    }

    /// Pairwise mutual-information matrix between all observer blocks:
    /// entry `(i, j)` is `I(Wᵢ; Wⱼ)` in bits, diagonal 0. Per-block
    /// indexes are built once and shared by every pair, and each pair's
    /// joint search takes the kd-tree path whenever [`use_tree`] allows
    /// (a pair's joint dimension is small).
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
        let sizes = view.block_sizes;
        prepare_indexes(&mut self.fine, view.data, m, stride, sizes);
        fill_prefix_offsets(sizes, &mut self.view_offsets);
        for i in 0..n {
            for j in (i + 1)..n {
                gather_blocks(view, &self.view_offsets, &[i, j], &mut self.group_data);
                let pair_sizes = [sizes[i], sizes[j]];
                let mi = self
                    .term
                    .bits(&self.group_data, m, &pair_sizes, &self.fine, &[i, j], cfg);
                out.set(i, j, mi);
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
        fill_prefix_offsets(view.block_sizes, &mut self.view_offsets);

        // Between-group term: merge each group's blocks into one coarse
        // block (same row layout as the old `decompose`, gathered into a
        // reusable buffer). A single group has a between-term of 0 by
        // convention, so the gather is skipped entirely.
        let g = grouping.groups.len();
        let between = if g < 2 {
            0.0
        } else {
            self.coarse_sizes.clear();
            self.coarse_sizes.extend(
                grouping
                    .groups
                    .iter()
                    .map(|members| members.iter().map(|&b| view.block_sizes[b]).sum::<usize>()),
            );
            gather_blocks(
                view,
                &self.view_offsets,
                grouping.groups.iter().flatten(),
                &mut self.coarse_data,
            );
            prepare_indexes(
                &mut self.coarse,
                &self.coarse_data,
                m,
                stride,
                &self.coarse_sizes,
            );
            self.coarse_map.clear();
            self.coarse_map.extend(0..g);
            self.term.bits(
                &self.coarse_data,
                m,
                &self.coarse_sizes,
                &self.coarse,
                &self.coarse_map,
                cfg,
            )
        };

        // Within-group terms share the fine indexes built by the total.
        let mut within = Vec::with_capacity(g);
        for members in &grouping.groups {
            if members.len() < 2 {
                within.push(0.0);
                continue;
            }
            self.group_sizes.clear();
            self.group_sizes
                .extend(members.iter().map(|&b| view.block_sizes[b]));
            gather_blocks(view, &self.view_offsets, members, &mut self.group_data);
            within.push(self.term.bits(
                &self.group_data,
                m,
                &self.group_sizes,
                &self.fine,
                members,
                cfg,
            ));
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
            self.coarse_data.capacity(),
            self.coarse_sizes.capacity(),
            self.group_data.capacity(),
            self.group_sizes.capacity(),
        ];
        for idx in self.fine.iter().chain(&self.coarse) {
            idx.capacity_signature(&mut sig);
        }
        self.term.capacity_signature(&mut sig);
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

/// Writes the columns of `blocks`, in that order, of every row of `view`
/// into `out` (cleared first): the row-major matrix of a pair, a group or
/// the coarse view. `offsets` are the view's block prefix offsets.
fn gather_blocks<'b>(
    view: &SampleView<'_>,
    offsets: &[usize],
    blocks: impl IntoIterator<Item = &'b usize, IntoIter: Clone>,
    out: &mut Vec<f64>,
) {
    let blocks = blocks.into_iter();
    out.clear();
    for row in view.data.chunks_exact(view.stride()) {
        for &b in blocks.clone() {
            out.extend_from_slice(&row[offsets[b]..offsets[b] + view.block_sizes[b]]);
        }
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

/// The per-sample KSG kernel over every sample of a term: joint k-NN
/// (scan or tree descent), then the variant's per-block ψ counts, the
/// per-sample ψ values summed in sample order. The numeric semantics are
/// exactly those of the pre-workspace implementation.
fn psi_sum(
    points: &BlockPoints<'_>,
    indexes: &[CountIndex],
    index_map: &[usize],
    joint_tree: Option<&KdTree>,
    lanes: Option<&ScalarLanes>,
    cfg: &KsgConfig,
    knn: &mut KnnScratch,
) -> f64 {
    let KnnScratch {
        neigh,
        radii,
        dists,
        stack,
    } = knn;
    let (n, k) = (index_map.len(), cfg.k);
    let mut sum = 0.0;
    for i in 0..points.rows() {
        match (joint_tree, lanes) {
            (Some(tree), _) => knn_block_max_tree_into(points, tree, i, k, stack, neigh),
            (None, Some(lanes)) => knn_block_max_lanes_into(points, lanes, i, k, neigh),
            (None, None) => knn_block_max_into(points, i, k, neigh),
        }
        let kth = neigh.last().expect("KSG: k-th neighbour must exist").0;
        let mut local = 0.0;
        match cfg.variant {
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
        sum += local;
    }
    sum
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
    fn route_rule_splits_at_joint_dim_16_and_64_rows() {
        // The tree route needs a joint space of at most 16 dimensions and
        // at least 64 samples; everything else takes the scan.
        assert!(use_tree(16, 64));
        assert!(!use_tree(17, 64), "joint dimension 17 takes the scan");
        assert!(!use_tree(16, 63), "63 rows take the scan");
        assert!(use_tree(2, 400), "pairwise scalar MI takes the tree");
        assert!(!use_tree(40, 1000), "high joint dimension keeps the scan");
    }
}
