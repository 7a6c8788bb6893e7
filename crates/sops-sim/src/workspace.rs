//! The persistent, allocation-free force-evaluation engine.
//!
//! Force evaluation ([`ForceWorkspace::net_forces_into`]) is the
//! simulator's hottest kernel: it runs once per substep per particle
//! system, thousands of times per ensemble.
//! The naive implementation rebuilt a [`CellGrid`] from scratch each call
//! (three allocations plus a full point clone) and evaluated every
//! interacting pair twice. [`ForceWorkspace`] removes all of that:
//!
//! * **Buffer reuse** — the grid is [rebuilt in place](CellGrid::rebuild)
//!   and every scratch vector (cell-sorted coordinate lanes, per-chunk
//!   accumulators, hit batches, the force output) lives in the
//!   workspace, so a warmed-up `step()` performs zero heap allocations.
//! * **SoA lanes + branchless hit compaction** — positions are gathered
//!   into cell order as separate x/y slices during the grid rebuild
//!   ([`CellGrid::rebuild_lanes`] fuses the scatter and the gather into
//!   one pass); each candidate row computes `d²` from the coordinate
//!   lanes and compacts the cut-off survivors into a per-chunk
//!   `HitBatch` with a single branchless store per candidate (the old
//!   per-pair `d² ≤ r²` branch was data-random and mispredict-bound).
//!   The row traversal itself stays *scalar*: at this workload's typical
//!   4–8-candidate rows a hand-SIMD masked-load/compress-store kernel
//!   measured ~10% slower (see the `x86` module doc), so explicit
//!   512-bit code is reserved for the long contiguous streams below.
//! * **Batched hit evaluation** — the expensive per-hit tail
//!   (`√d²`, clamp, law scaling) runs over the whole batch as contiguous
//!   lanes (one `vsqrtpd`/`vdivpd` stream instead of serial scalar
//!   latency chains); the batch replays hits in exactly the order the
//!   scalar kernel visited them, so results are bit-identical to the
//!   pre-SoA code.
//! * **Fixed accumulation order** — the cell range is split into
//!   `FORCE_CHUNKS` fixed spans, swept one after another. Each chunk
//!   scatters into its own accumulator (indexed in *cell order*, so a
//!   chunk only ever touches its own span plus one cell row below) and
//!   the accumulators are reduced in chunk order. Touched-range tracking
//!   keeps the zero + reduce cost proportional to each span instead of
//!   `8 n`. `tests/workspace_forces.rs`'s `grid_path_bits_are_pinned`
//!   holds every output bit of this order to a recorded digest.
//!
//! Small systems (`n < GRID_THRESHOLD`, 64) and unbounded cut-offs
//! take the direct `O(n²)` pair loop (monomorphized per law family),
//! which already halves via Newton's third law and touches no grid state.

use crate::force::{ForceLaw, ForceModel};
use crate::model::Model;
use sops_math::Vec2;
use sops_spatial::CellGrid;

/// Number of fixed cell spans the half sweep is partitioned into.
///
/// The partition defines the floating-point accumulation order of the
/// grid path, so it is a compile-time constant: changing it changes the
/// output bits.
pub(crate) const FORCE_CHUNKS: usize = 8;

/// Hit-batch capacity. A batch is flushed (distance + law lanes, then the
/// ordered Newton-3 scatter) whenever the next candidate row might not
/// fit, and once at the end of each chunk's sweep — flush boundaries
/// never affect the scatter order, only how much contiguous lane work
/// each `√`/`scale` pass gets.
const HIT_CAP: usize = 4096;

/// One chunk's compacted cut-off survivors, stored as parallel lanes.
/// The candidate kernel writes both pair indices and `d²` at the
/// compacted position and advances the live length branchlessly on the
/// cut-off mask. The flush then works on contiguous hits-only lanes,
/// recovering each row's `a` run by scanning the `a`-index lane for
/// equal-value runs (hits are pushed row by row, so runs are contiguous)
/// and re-deriving the pair deltas from the coordinate lanes
/// (`xa − xs[b]` is the identical floating-point op either way, so
/// nothing is lost by not storing them).
///
/// The batch deliberately has no `len` field: the sweep keeps the live
/// length (and the run count) in locals and borrows every lane as a
/// local slice up front. Indexing through `&mut self` fields instead
/// would force LLVM to reload each `Vec`'s data pointer and bounds after
/// every store (a store through one field may alias another field's
/// metadata), which measured ~2× on the whole kernel.
#[derive(Debug, Clone)]
struct HitBatch {
    /// Cell-order index of particle `b` per hit.
    bidx: Vec<u32>,
    /// Cell-order index of particle `a` per hit (constant within a row,
    /// so the lane is a sequence of equal-value runs).
    aidx: Vec<u32>,
    /// `d²` at push time, rewritten in place to the clamped `√d²` by the
    /// flush.
    x: Vec<f64>,
    /// Law scaling per hit, plus gathered per-hit types and linear-law
    /// parameters (multi-type laws only).
    f: Vec<f64>,
    ta: Vec<u16>,
    tb: Vec<u16>,
    kbuf: Vec<f64>,
    rbuf: Vec<f64>,
}

impl HitBatch {
    fn new() -> Self {
        HitBatch {
            bidx: Vec::new(),
            aidx: Vec::new(),
            x: Vec::new(),
            f: Vec::new(),
            ta: Vec::new(),
            tb: Vec::new(),
            kbuf: Vec::new(),
            rbuf: Vec::new(),
        }
    }

    /// Sizes every lane to `HIT_CAP` (idempotent once warm).
    fn prepare(&mut self) {
        self.bidx.resize(HIT_CAP, 0);
        self.aidx.resize(HIT_CAP, 0);
        self.x.resize(HIT_CAP, 0.0);
        self.f.resize(HIT_CAP, 0.0);
        self.ta.resize(HIT_CAP, 0);
        self.tb.resize(HIT_CAP, 0);
        self.kbuf.resize(HIT_CAP, 0.0);
        self.rbuf.resize(HIT_CAP, 0.0);
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.bidx.capacity());
        sig.push(self.aidx.capacity());
        sig.push(self.x.capacity());
        sig.push(self.f.capacity());
        sig.push(self.ta.capacity());
        sig.push(self.tb.capacity());
        sig.push(self.kbuf.capacity());
        sig.push(self.rbuf.capacity());
    }
}

/// Per-chunk sweep state: a cell-order force accumulator plus the hit
/// batch that feeds it. The accumulator is all-zero between calls; the
/// sweep records the index range it scattered into so the reduce and the
/// re-zero touch only that span.
#[derive(Debug, Clone)]
struct ForceChunk {
    /// Force accumulator in *cell-order* index space (`acc[j]` belongs to
    /// particle `order[j]`).
    acc: Vec<Vec2>,
    /// Touched range `[lo, hi)` of `acc` from the last sweep.
    lo: usize,
    hi: usize,
    hits: HitBatch,
}

impl ForceChunk {
    fn new() -> Self {
        ForceChunk {
            acc: Vec::new(),
            lo: 0,
            hi: 0,
            hits: HitBatch::new(),
        }
    }

    fn prepare(&mut self, n: usize) {
        // `acc` is kept all-zero between calls (the reduce re-zeroes the
        // touched range), so only a size change needs a full clear.
        if self.acc.len() != n {
            self.acc.clear();
            self.acc.resize(n, Vec2::ZERO);
        }
        self.lo = 0;
        self.hi = 0;
        self.hits.prepare();
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.acc.capacity());
        self.hits.capacity_signature(sig);
    }
}

/// Reusable buffers for force evaluation and integration.
///
/// Owned by [`crate::Simulation`] (one per independent run) and threaded
/// through every integrator step. Create one explicitly to drive
/// [`Model`] force evaluations without a full simulation:
///
/// ```
/// use sops_sim::{ForceModel, ForceWorkspace, LinearForce, Model};
/// use sops_math::Vec2;
///
/// let model = Model::balanced(
///     3,
///     ForceModel::Linear(LinearForce::uniform(1.0, 1.0)),
///     f64::INFINITY,
/// );
/// let mut ws = ForceWorkspace::new();
/// let mut out = Vec::new();
/// let pos = [Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0), Vec2::new(4.0, 0.0)];
/// ws.net_forces_into(&model, &pos, &mut out);
/// assert_eq!(out.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ForceWorkspace {
    grid: CellGrid,
    /// Cell-ordered coordinate lanes (`sorted_x[k] =
    /// positions[grid.order()[k]].x`) — the SoA layout the chunked
    /// distance kernel reads.
    sorted_x: Vec<f64>,
    sorted_y: Vec<f64>,
    /// Particle types in the same cell order.
    sorted_types: Vec<u16>,
    /// Per-chunk sweep state, reduced in chunk order.
    chunks: Vec<ForceChunk>,
    /// Force output of the last [`ForceWorkspace::compute`].
    forces: Vec<Vec2>,
}

impl Default for ForceWorkspace {
    fn default() -> Self {
        ForceWorkspace::new()
    }
}

impl ForceWorkspace {
    /// An empty workspace. Buffers grow to the workload size on first use
    /// and are reused afterwards.
    pub fn new() -> Self {
        ForceWorkspace {
            grid: CellGrid::build(&[], 1.0),
            sorted_x: Vec::new(),
            sorted_y: Vec::new(),
            sorted_types: Vec::new(),
            chunks: vec![ForceChunk::new(); FORCE_CHUNKS],
            forces: Vec::new(),
        }
    }

    /// Computes the drift forces into the workspace's own buffer; read
    /// them back with [`ForceWorkspace::forces`].
    pub(crate) fn compute(&mut self, model: &Model, positions: &[Vec2]) {
        let mut forces = std::mem::take(&mut self.forces);
        self.net_forces_into(model, positions, &mut forces);
        self.forces = forces;
    }

    /// The forces written by the last [`ForceWorkspace::compute`].
    pub(crate) fn forces(&self) -> &[Vec2] {
        &self.forces
    }

    /// Sum of per-particle force norms `Σ_i ‖f_i‖₂` — the equilibrium
    /// indicator of paper §4.1 — without allocating.
    pub(crate) fn total_force_norm(&mut self, model: &Model, positions: &[Vec2]) -> f64 {
        self.compute(model, positions);
        self.forces.iter().map(|f| f.norm()).sum()
    }

    /// Drift term of Eq. 6 for every particle: `f_i = Σ_j −F(‖Δz_ij‖) Δz_ij`
    /// over neighbours within the cut-off, written into a caller-provided
    /// buffer (cleared and resized). Allocation-free once the workspace is
    /// warm, so anything evaluating forces repeatedly should hold one
    /// workspace.
    pub fn net_forces_into(&mut self, model: &Model, positions: &[Vec2], out: &mut Vec<Vec2>) {
        let n = positions.len();
        assert_eq!(n, model.particles(), "net_forces: position count mismatch");
        let cutoff = model.cutoff();
        let law = model.law();
        if model.direct_pairs() {
            out.clear();
            out.resize(n, Vec2::ZERO);
            let r2 = model.cutoff_sq();
            // Monomorphize the direct loop per law family so the per-pair
            // scaling call inlines without the enum match.
            match law {
                ForceModel::Linear(l) => direct_sweep(l, model.types(), positions, r2, out),
                ForceModel::Gaussian(g) => direct_sweep(g, model.types(), positions, r2, out),
                ForceModel::Custom(c) => {
                    direct_sweep(c.as_ref(), model.types(), positions, r2, out)
                }
            }
            return;
        }
        // The chunk reduce assigns on first touch (see below), so `out`
        // only needs its length fixed — stale contents are fully
        // overwritten.
        if out.len() != n {
            out.clear();
            out.resize(n, Vec2::ZERO);
        }

        // Grid path: rebuild in place with the SoA coordinate lanes
        // gathered by the same counting-sort scatter pass, then half sweep
        // the lanes.
        let ForceWorkspace {
            grid,
            sorted_x,
            sorted_y,
            sorted_types,
            chunks,
            ..
        } = self;
        grid.rebuild_lanes(positions, cutoff, sorted_x, sorted_y);
        let grid = &*grid;
        let order = grid.order();
        sorted_types.clear();
        // A type-blind law never reads the type lane (`scale_lanes` hoists
        // the two parameters), so skip the gather entirely.
        let type_blind = matches!(law, ForceModel::Linear(l) if l.k.types() == 1);
        if !type_blind {
            let types = model.types();
            sorted_types.extend(order.iter().map(|&i| types[i as usize]));
        }

        // Each chunk sweeps a fixed span of cells into its own accumulator;
        // the partition depends only on the grid shape.
        let ncells = grid.cells();
        let (nx, ny) = grid.shape();
        let r2 = cutoff * cutoff;
        let nchunks = chunks.len();
        for (c, chunk) in chunks.iter_mut().enumerate() {
            chunk.prepare(n);
            let clo = c * ncells / nchunks;
            let chi = (c + 1) * ncells / nchunks;
            sweep_span(
                grid,
                clo,
                chi,
                nx,
                ny,
                sorted_x,
                sorted_y,
                sorted_types,
                r2,
                law,
                chunk,
            );
        }

        // Ordered reduction: per particle, chunk 0 + chunk 1 + … Only each
        // chunk's touched cell-order span carries non-zero entries;
        // entries outside it are exactly +0.0, whose addition the scalar
        // reduce performed as a bitwise no-op (no accumulator here is ever
        // −0.0), so skipping them leaves every output bit unchanged. The
        // chunk spans tile the cell range, so every cell-order index is
        // covered and the first chunk to touch an index *assigns* (`v` is
        // bitwise `0.0 + v` because, again, no accumulator is ever −0.0) —
        // `out` needs no zeroing pass.
        let mut covered = 0usize;
        for chunk in chunks.iter_mut() {
            let (lo, hi) = (chunk.lo, chunk.hi);
            // Split at the already-covered boundary so neither loop carries
            // a per-element branch: below it this chunk overlaps its
            // predecessors (+=), above it it is the first writer (=).
            let mid = hi.min(covered.max(lo));
            for (&p, &a) in order[lo..mid].iter().zip(&chunk.acc[lo..mid]) {
                out[p as usize] += a;
            }
            for (&p, &a) in order[mid..hi].iter().zip(&chunk.acc[mid..hi]) {
                out[p as usize] = a;
            }
            // Restore the all-zero invariant for the next call while the
            // span is still cache-hot.
            chunk.acc[lo..hi].fill(Vec2::ZERO);
            chunk.lo = 0;
            chunk.hi = 0;
            covered = covered.max(hi);
        }
    }

    /// Capacities of every internal buffer. A warmed-up workspace driving
    /// a bounded workload must keep this signature constant — the
    /// zero-allocation contract tested in `tests/workspace_forces.rs`.
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.sorted_x.capacity(),
            self.sorted_y.capacity(),
            self.sorted_types.capacity(),
            self.forces.capacity(),
        ];
        for chunk in &self.chunks {
            chunk.capacity_signature(&mut sig);
        }
        sig.extend(self.grid.capacity_signature());
        sig
    }
}

/// Direct `O(n²)` Newton-3 loop (unbounded cut-off / small systems),
/// monomorphized over the law family. `fi` keeps particle `i`'s row
/// accumulation in a register — the same additions in the same order as
/// `out[i] -= …` per pair, without the store-to-load chain.
pub(crate) fn direct_sweep<L: ForceLaw + ?Sized>(
    law: &L,
    types: &[u16],
    positions: &[Vec2],
    r2: f64,
    out: &mut [Vec2],
) {
    let n = positions.len();
    for i in 0..n {
        let ti = types[i] as usize;
        let zi = positions[i];
        let mut fi = out[i];
        for j in (i + 1)..n {
            let delta = zi - positions[j];
            let d2 = delta.norm_sq();
            if d2 > r2 {
                continue;
            }
            let x = d2.sqrt().max(crate::model::MIN_DISTANCE);
            let f = law.scale(ti, types[j] as usize, x);
            let contrib = delta * f;
            fi -= contrib;
            out[j] += contrib;
        }
        out[i] = fi;
    }
}

/// Sweeps cells `clo..chi` into the chunk's accumulator.
///
/// Per occupied cell, each particle `a` interacts with two fused
/// CSR-contiguous candidate ranges: `a+1 .. end(E)` (rest of its own
/// cell, then the east neighbour — adjacent in cell order) and
/// `start(SW) .. end(SE)` (the three south-row neighbours, adjacent in
/// cell order). This visits exactly the half-neighbourhood pair set of
/// the scalar kernel, and although rows interleave differently than the
/// old per-neighbour-cell loops, every individual accumulator sees its
/// updates in the same order (per fixed `a`, candidates stay in
/// within→E→SW→S→SE ascending-`b` order; per fixed `b`, contributing
/// `a`s stay ascending) — so the result is bit-identical while the
/// per-segment overhead amortizes over ranges 2–3× longer.
#[allow(clippy::too_many_arguments)]
fn sweep_span(
    grid: &CellGrid,
    clo: usize,
    chi: usize,
    nx: usize,
    ny: usize,
    xs: &[f64],
    ys: &[f64],
    ts: &[u16],
    r2: f64,
    law: &ForceModel,
    chunk: &mut ForceChunk,
) {
    if clo >= chi {
        return;
    }
    let ForceChunk { acc, lo, hi, hits } = chunk;
    let acc = acc.as_mut_slice();
    // Borrow every batch lane as a local slice once; the live length and
    // run count live in registers. See the `HitBatch` doc for why this
    // (rather than indexing through the struct) is load-bearing.
    let bidx = hits.bidx.as_mut_slice();
    let aidx = hits.aidx.as_mut_slice();
    let d2v = hits.x.as_mut_slice();
    let fv = hits.f.as_mut_slice();
    let tav = hits.ta.as_mut_slice();
    let tbv = hits.tb.as_mut_slice();
    let kbuf = hits.kbuf.as_mut_slice();
    let rbuf = hits.rbuf.as_mut_slice();
    // The sweep-entry assert the unsafe candidate kernel relies on: cell
    // bounds index `grid.order`, so every candidate index is
    // `< grid.len()`, and the flush discipline keeps `len + row_len ≤
    // HIT_CAP` — together these bound every unchecked access in
    // `push_row`.
    assert!(
        xs.len() >= grid.len()
            && ys.len() >= grid.len()
            && bidx.len() >= HIT_CAP
            && aidx.len() >= HIT_CAP
            && d2v.len() >= HIT_CAP,
        "sweep_span: lane buffers too small for this grid"
    );
    let mut len = 0usize;
    macro_rules! flush {
        () => {
            if len > 0 {
                flush_batch(
                    len, bidx, aidx, d2v, fv, tav, tbv, kbuf, rbuf, xs, ys, ts, law, acc,
                );
                len = 0;
            }
        };
    }
    let mut cx = clo % nx;
    let mut cy = clo / nx;
    for cell in clo..chi {
        let (a0, a1) = grid.cell_bounds(cell);
        if a0 < a1 {
            let east = cx + 1 < nx;
            let south = cy + 1 < ny;
            // Fused forward ranges (CSR keeps adjacent cells adjacent):
            // own-cell tail + east, and the full south row SW..SE.
            let e1 = if east {
                grid.cell_bounds(cell + 1).1
            } else {
                a1
            };
            let (s0, s1) = if south {
                let sw = if cx > 0 { cell + nx - 1 } else { cell + nx };
                let se = if east { cell + nx + 1 } else { cell + nx };
                (grid.cell_bounds(sw).0, grid.cell_bounds(se).1)
            } else {
                (0, 0)
            };
            for a in a0..a1 {
                let row_len = (e1 - (a + 1)) + (s1 - s0);
                if len + row_len > HIT_CAP {
                    flush!();
                    if row_len > HIT_CAP {
                        // A single row larger than the whole batch
                        // (pathological occupancy): walk it in
                        // batch-sized pieces with a flush between each.
                        // Flush boundaries never change the op order, so
                        // placement is free.
                        let (xa, ya) = (xs[a], ys[a]);
                        for (b0, b1) in [(a + 1, e1), (s0, s1)] {
                            let mut b = b0;
                            while b < b1 {
                                let take = (b1 - b).min(HIT_CAP - len);
                                if take == 0 {
                                    flush!();
                                    continue;
                                }
                                let piece = len;
                                // SAFETY: `take ≤ HIT_CAP − len` and the
                                // sweep-entry assert bounds the lanes.
                                len = unsafe {
                                    push_row(xa, ya, b, b + take, xs, ys, r2, bidx, d2v, len)
                                };
                                for slot in &mut aidx[piece..len] {
                                    *slot = a as u32;
                                }
                                b += take;
                            }
                        }
                        continue;
                    }
                }
                let (xa, ya) = (xs[a], ys[a]);
                let row_start = len;
                // SAFETY: the flush above guarantees `len + row_len ≤
                // HIT_CAP` and the sweep-entry assert bounds the lanes.
                len = unsafe { push_row(xa, ya, a + 1, e1, xs, ys, r2, bidx, d2v, len) };
                len = unsafe { push_row(xa, ya, s0, s1, xs, ys, r2, bidx, d2v, len) };
                // `a` is constant per row: survivors get their `a` index
                // in one short post-row fill instead of a third
                // compress-store inside the candidate kernel.
                for slot in &mut aidx[row_start..len] {
                    *slot = a as u32;
                }
            }
        }
        cx += 1;
        if cx == nx {
            cx = 0;
            cy += 1;
        }
    }
    if len > 0 {
        flush_batch(
            len, bidx, aidx, d2v, fv, tav, tbv, kbuf, rbuf, xs, ys, ts, law, acc,
        );
    }
    // Everything this span scatters to lies between the first particle of
    // its first cell and the last particle of its last south-east
    // neighbour — record that window for the touched-range reduce.
    *lo = grid.cell_bounds(clo).0;
    let last = (chi - 1 + nx + 1).min(grid.cells() - 1);
    *hi = grid.cell_bounds(last).1;
}

/// Runtime-detected AVX-512 versions of the hot lane kernels.
///
/// Everything here is bit-identical to the portable fall-backs: the
/// distance kernel uses separate multiply and add (never FMA — the
/// fused rounding would change bits), compress-stores preserve the
/// ascending candidate order, and the `√`/`scale` passes are the same
/// element-wise expressions the autovectorizer widens to 512-bit under
/// the granted target features. Vector lane width never reorders any
/// floating-point *accumulation* — those all happen in the scalar
/// scatter — so results match the portable path exactly.
#[cfg(target_arch = "x86_64")]
mod x86 {
    /// `x[i] = max(√x[i], floor)` with 512-bit `vsqrtpd` streams.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`].
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(crate) unsafe fn sqrt_clamp(x: &mut [f64], floor: f64) {
        for xi in x {
            *xi = xi.sqrt().max(floor);
        }
    }

    /// `fv[i] = k[i]·(1 − r[i]/x[i])` with 512-bit `vdivpd` streams —
    /// the multi-type linear family over per-hit gathered parameters.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`].
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(crate) unsafe fn linear_scale(fv: &mut [f64], x: &[f64], k: &[f64], r: &[f64]) {
        for (i, fo) in fv.iter_mut().enumerate() {
            *fo = k[i] * (1.0 - r[i] / x[i]);
        }
    }

    /// Fused `√`+clamp+linear-scale stream for the type-blind fast path:
    /// `fv[i] = k·(1 − r/max(√d2[i], floor))`, skipping the intermediate
    /// write-back of the clamped distance (nothing downstream reads it).
    /// Same per-element op sequence as the two separate passes, so the
    /// result is bit-identical.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`].
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(crate) unsafe fn sqrt_linear_scale(fv: &mut [f64], d2: &[f64], k: f64, r: f64, floor: f64) {
        for (fo, &d2i) in fv.iter_mut().zip(d2) {
            let xi = d2i.sqrt().max(floor);
            *fo = k * (1.0 - r / xi);
        }
    }
}

/// The candidate kernel: particle `a` at `(xa, ya)` against the
/// cell-order coordinate lanes `b0..b1`. Computes `d²` lane-wise over
/// the two SoA slices and appends survivors branchlessly
/// (`len += (d² ≤ r²)` after an unconditional compacted store) in
/// ascending `b` order — the old per-pair `d² ≤ r²` branch was
/// data-random and mispredict-bound. The compacted store position is
/// data-dependent, so its bounds check cannot be hoisted by the
/// compiler; the caller's invariants replace it.
///
/// # Safety
///
/// Caller guarantees `b1 ≤ xs.len() = ys.len()` (row bounds come from
/// `cell_bounds`, which never exceeds the point count — asserted once
/// per sweep) and `len + (b1 − b0) ≤ bidx.len() = d2v.len()` (the sweep
/// flushes before any row that might not fit its `HIT_CAP` lanes).
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn push_row(
    xa: f64,
    ya: f64,
    b0: usize,
    b1: usize,
    xs: &[f64],
    ys: &[f64],
    r2: f64,
    bidx: &mut [u32],
    d2v: &mut [f64],
    mut len: usize,
) -> usize {
    debug_assert!(b1 <= xs.len() && b1 <= ys.len());
    debug_assert!(len + (b1 - b0) <= bidx.len() && len + (b1 - b0) <= d2v.len());
    for b in b0..b1 {
        // SAFETY: `b < b1 ≤ xs.len() = ys.len()`; `len` grows by at most
        // one per candidate, so the capacity precondition bounds every
        // store.
        unsafe {
            let dx = xa - *xs.get_unchecked(b);
            let dy = ya - *ys.get_unchecked(b);
            let d2 = dx * dx + dy * dy;
            *bidx.get_unchecked_mut(len) = b as u32;
            *d2v.get_unchecked_mut(len) = d2;
            len += (d2 <= r2) as usize;
        }
    }
    len
}

/// Evaluates and scatters a batch of `h` hits: distance lanes (`√d²`,
/// clamp), law lanes, then the Newton-3 scatter replaying hits in push
/// (= pair visit) order — the floating-point op sequence per particle is
/// exactly the scalar kernel's (each row's `acc[a]` run, recovered as an
/// equal-value run of the `a`-index lane, accumulates in a register,
/// performing the same subtractions in the same order). The pair deltas
/// are re-derived from the coordinate lanes (`xa − xs[b]`, bit-identical
/// to the push-time value) so the hot compaction loop stores three small
/// lanes per candidate and nothing else.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    h: usize,
    bidx: &[u32],
    aidx: &[u32],
    d2v: &mut [f64],
    fv: &mut [f64],
    tav: &mut [u16],
    tbv: &mut [u16],
    kbuf: &mut [f64],
    rbuf: &mut [f64],
    xs: &[f64],
    ys: &[f64],
    ts: &[u16],
    law: &ForceModel,
    acc: &mut [Vec2],
) {
    let wide = sops_math::wide_available();
    // Type-blind linear fast path: one fused √+clamp+scale stream,
    // without the intermediate distance write-back (nothing after the
    // scale reads it). Bit-identical: same per-element op sequence.
    let mut fused = false;
    if let ForceModel::Linear(l) = law {
        if l.k.types() == 1 {
            let k = l.k.get(0, 0);
            let r = l.r.get(0, 0);
            let floor = crate::model::MIN_DISTANCE;
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: `wide` certifies the target features.
                unsafe { x86::sqrt_linear_scale(&mut fv[..h], &d2v[..h], k, r, floor) };
                fused = true;
            }
            if !fused {
                for (fo, &d2i) in fv[..h].iter_mut().zip(&d2v[..h]) {
                    let xi = d2i.sqrt().max(floor);
                    *fo = k * (1.0 - r / xi);
                }
                fused = true;
            }
        }
    }
    if !fused {
        // Distance lanes — one contiguous √/clamp stream.
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` certifies the target features.
            unsafe { x86::sqrt_clamp(&mut d2v[..h], crate::model::MIN_DISTANCE) };
        }
        if !wide {
            for xi in &mut d2v[..h] {
                *xi = xi.sqrt().max(crate::model::MIN_DISTANCE);
            }
        }
        // Law lanes.
        scale_lanes(law, h, bidx, aidx, d2v, fv, tav, tbv, kbuf, rbuf, ts, wide);
    }
    // Ordered Newton-3 scatter. Row runs are contiguous in the `a` lane,
    // so `acc[a]` accumulates in a register across each run — the same
    // op order as per-row scattering.
    let bidx = &bidx[..h];
    let aidx = &aidx[..h];
    let fv = &fv[..h];
    let mut i = 0usize;
    while i < h {
        let a = aidx[i] as usize;
        let (xa, ya) = (xs[a], ys[a]);
        let mut fax = acc[a].x;
        let mut fay = acc[a].y;
        loop {
            let b = bidx[i] as usize;
            let cx = (xa - xs[b]) * fv[i];
            let cy = (ya - ys[b]) * fv[i];
            fax -= cx;
            fay -= cy;
            acc[b].x += cx;
            acc[b].y += cy;
            i += 1;
            if i >= h || aidx[i] as usize != a {
                break;
            }
        }
        acc[a] = Vec2::new(fax, fay);
    }
}

/// Lane-wise [`ForceLaw::scale`] over a hit batch: fills
/// `fv[i] = scale(ta[i], tb[i], x[i])` with the same floating-point
/// expression as the per-pair call, so results are bit-identical. The
/// linear family evaluates as contiguous lanes (type-blind laws hoist
/// the two parameters; multi-type gathers them per hit first); the
/// Gaussian and custom families stay scalar per hit (`exp` has no lane
/// form) but still skip the per-pair enum dispatch.
#[allow(clippy::too_many_arguments)]
fn scale_lanes(
    law: &ForceModel,
    h: usize,
    bidx: &[u32],
    aidx: &[u32],
    x: &[f64],
    fv: &mut [f64],
    tav: &mut [u16],
    tbv: &mut [u16],
    kbuf: &mut [f64],
    rbuf: &mut [f64],
    ts: &[u16],
    wide: bool,
) {
    #[cfg(not(target_arch = "x86_64"))]
    let _ = wide;
    let x = &x[..h];
    let fv = &mut fv[..h];
    // Typed laws (the type-blind linear family takes the fused
    // √+scale stream in `flush_batch` and never reaches here): gather
    // both particle types per hit through the index lanes, then
    // evaluate as lanes.
    let bidx = &bidx[..h];
    let aidx = &aidx[..h];
    let tav = &mut tav[..h];
    let tbv = &mut tbv[..h];
    for i in 0..h {
        tav[i] = ts[aidx[i] as usize];
        tbv[i] = ts[bidx[i] as usize];
    }
    match law {
        ForceModel::Linear(l) => {
            let kbuf = &mut kbuf[..h];
            let rbuf = &mut rbuf[..h];
            for i in 0..h {
                let (a, b) = (tav[i] as usize, tbv[i] as usize);
                kbuf[i] = l.k.get(a, b);
                rbuf[i] = l.r.get(a, b);
            }
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: `wide` certifies the target features.
                unsafe { x86::linear_scale(fv, x, kbuf, rbuf) };
                return;
            }
            for i in 0..h {
                fv[i] = kbuf[i] * (1.0 - rbuf[i] / x[i]);
            }
        }
        ForceModel::Gaussian(g) => {
            for i in 0..h {
                fv[i] = g.scale(tav[i] as usize, tbv[i] as usize, x[i]);
            }
        }
        ForceModel::Custom(c) => {
            for i in 0..h {
                fv[i] = c.scale(tav[i] as usize, tbv[i] as usize, x[i]);
            }
        }
    }
}
