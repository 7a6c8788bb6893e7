//! The persistent, allocation-free force-evaluation engine.
//!
//! Force evaluation ([`ForceWorkspace::net_forces_into`]) is the
//! simulator's hottest kernel: it runs once per substep per particle
//! system, thousands of times per ensemble.
//! The naive implementation rebuilt a [`CellGrid`] from scratch each call
//! (three allocations plus a full point clone) and evaluated every
//! interacting pair twice. [`ForceWorkspace`] removes all of that:
//!
//! * **Buffer reuse** — the grid is
//!   [rebuilt in place](CellGrid::rebuild_lanes) and every scratch
//!   vector (cell-sorted coordinate lanes, per-chunk accumulators, hit
//!   batches, the law's pair tables, the force output) lives in the
//!   workspace, so a warmed-up `step()` performs zero heap allocations.
//! * **SoA lanes + branchless hit compaction** — positions are gathered
//!   into cell order as separate x/y slices during the grid rebuild
//!   ([`CellGrid::rebuild_lanes`] fuses the scatter and the gather into
//!   one pass); each candidate row computes `d²` from the coordinate
//!   lanes and compacts the cut-off survivors into a per-chunk
//!   `HitBatch` without a per-pair branch (the old per-pair `d² ≤ r²`
//!   branch was data-random and mispredict-bound). On AVX-512 hosts a
//!   row runs eight candidates per step: masked loads, an ordered `≤`
//!   mask and an in-register compaction of `d²` and the `b` index (see
//!   the `x86` module); elsewhere the scalar kernel appends one
//!   candidate per step. Both write the same batch.
//! * **One hit pass** — `√d²`, the clamp and the law's scaling run over
//!   the whole batch as one contiguous stream. A typed `F¹` law reads
//!   `k` and `r` from flat `l × l` tables resolved once per call, indexed
//!   by the pair class `ts[a]·l + ts[b]`; the batch replays hits in
//!   exactly the order the scalar kernel visited them, so results are
//!   bit-identical to the pre-SoA code.
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

use crate::force::{ForceLaw, ForceModel, GaussianForce};
use crate::model::{Model, MIN_DISTANCE};
use sops_math::Vec2;
use sops_spatial::CellGrid;

/// Number of fixed cell spans the half sweep is partitioned into.
///
/// The partition defines the floating-point accumulation order of the
/// grid path, so it is a compile-time constant: changing it changes the
/// output bits.
pub(crate) const FORCE_CHUNKS: usize = 8;

/// Hit-batch capacity. A batch is flushed (the hit pass, then the
/// ordered Newton-3 scatter) whenever the next candidate row might not
/// fit, and once at the end of each chunk's sweep — flush boundaries
/// never affect the scatter order, only how much contiguous lane work
/// each hit pass gets.
const HIT_CAP: usize = 4096;

/// Slots past `HIT_CAP` in the three lanes the row kernel writes. The
/// AVX-512 row kernel stores a full 8-lane vector at the live length, so
/// up to seven slots past the last hit are scratch.
const ROW_PAD: usize = 8;

/// One chunk's compacted cut-off survivors, stored as parallel lanes.
/// The candidate kernel writes both pair indices and `d²` at the
/// compacted position and advances the live length on the cut-off mask.
/// The flush then works on contiguous hits-only lanes, recovering each
/// row's `a` run by scanning the `a`-index lane for equal-value runs
/// (hits are pushed row by row, so runs are contiguous) and re-deriving
/// the pair deltas from the coordinate lanes (`xa − xs[b]` is the
/// identical floating-point op either way, so nothing is lost by not
/// storing them).
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
    /// `d²` per hit.
    d2: Vec<f64>,
    /// Law scaling per hit, written by the hit pass.
    f: Vec<f64>,
}

impl HitBatch {
    fn new() -> Self {
        HitBatch {
            bidx: Vec::new(),
            aidx: Vec::new(),
            d2: Vec::new(),
            f: Vec::new(),
        }
    }

    /// Sizes every lane (idempotent once warm).
    fn prepare(&mut self) {
        self.bidx.resize(HIT_CAP + ROW_PAD, 0);
        self.aidx.resize(HIT_CAP + ROW_PAD, 0);
        self.d2.resize(HIT_CAP + ROW_PAD, 0.0);
        self.f.resize(HIT_CAP, 0.0);
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.bidx.capacity());
        sig.push(self.aidx.capacity());
        sig.push(self.d2.capacity());
        sig.push(self.f.capacity());
    }
}

/// The force law as the hit pass evaluates it, resolved once per
/// [`ForceWorkspace::net_forces_into`] call.
#[derive(Clone, Copy)]
enum HitLaw<'a> {
    /// Type-blind `F¹`: its one `k` and `r`.
    Blind { k: f64, r: f64 },
    /// Typed `F¹`: `k` and `r` as flat `l × l` tables, entry
    /// `a·l + b` holding the law's value for the type pair `(a, b)`.
    Typed {
        l: usize,
        k: &'a [f64],
        r: &'a [f64],
    },
    /// `F²`: `scale` per hit (libm `exp` is its cost).
    Gaussian(&'a GaussianForce),
    /// A user law: `scale` per hit.
    Custom(&'a dyn ForceLaw),
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
    /// Particle types in the same cell order, widened to `u32` so the
    /// hit pass can gather them eight at a time.
    sorted_types: Vec<u32>,
    /// A typed `F¹` law's `k` and `r` as flat `l × l` tables, resolved
    /// once per call (see `HitLaw::Typed`).
    law_k: Vec<f64>,
    law_r: Vec<f64>,
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
            grid: CellGrid::default(),
            sorted_x: Vec::new(),
            sorted_y: Vec::new(),
            sorted_types: Vec::new(),
            law_k: Vec::new(),
            law_r: Vec::new(),
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
            law_k,
            law_r,
            chunks,
            ..
        } = self;
        grid.rebuild_lanes(positions, cutoff, sorted_x, sorted_y);
        let grid = &*grid;
        let order = grid.order();
        let hit_law = resolve_hit_law(law, law_k, law_r);
        sorted_types.clear();
        // A type-blind law never reads the type lane (the hit pass hoists
        // its two parameters), so skip the gather entirely.
        if !matches!(hit_law, HitLaw::Blind { .. }) {
            let types = model.types();
            sorted_types.extend(order.iter().map(|&i| u32::from(types[i as usize])));
        }

        // Each chunk sweeps a fixed span of cells into its own accumulator;
        // the partition depends only on the grid shape.
        let input = SweepInput {
            grid,
            xs: sorted_x,
            ys: sorted_y,
            ts: sorted_types,
            r2: cutoff * cutoff,
            law: hit_law,
        };
        let ncells = grid.cells();
        let nchunks = chunks.len();
        let wide = sops_math::wide_available();
        for (c, chunk) in chunks.iter_mut().enumerate() {
            chunk.prepare(n);
            let clo = c * ncells / nchunks;
            let chi = (c + 1) * ncells / nchunks;
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: `wide` certifies the target features.
                unsafe { x86::sweep_span(&input, clo, chi, chunk) };
                continue;
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = wide;
            // SAFETY: without `WIDE` the sweep runs portable code only.
            unsafe { sweep_span::<false>(&input, clo, chi, chunk) };
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
            self.law_k.capacity(),
            self.law_r.capacity(),
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

/// Resolves the law for the hit pass. A typed `F¹` law's `k` and `r`
/// are written into the flat `l × l` tables `k_tab`/`r_tab` (cleared and
/// refilled, so allocation-free once warm); entry `a·l + b` is
/// `PairMatrix::get(a, b)`, the very values `LinearForce::scale` reads.
fn resolve_hit_law<'a>(
    law: &'a ForceModel,
    k_tab: &'a mut Vec<f64>,
    r_tab: &'a mut Vec<f64>,
) -> HitLaw<'a> {
    match law {
        ForceModel::Linear(lin) if lin.k.types() == 1 => HitLaw::Blind {
            k: lin.k.get(0, 0),
            r: lin.r.get(0, 0),
        },
        ForceModel::Linear(lin) => {
            let l = lin.k.types();
            k_tab.clear();
            r_tab.clear();
            for a in 0..l {
                for b in 0..l {
                    k_tab.push(lin.k.get(a, b));
                    r_tab.push(lin.r.get(a, b));
                }
            }
            HitLaw::Typed {
                l,
                k: k_tab,
                r: r_tab,
            }
        }
        ForceModel::Gaussian(g) => HitLaw::Gaussian(g),
        ForceModel::Custom(c) => HitLaw::Custom(c.as_ref()),
    }
}

/// What every chunk's sweep reads: the grid, its cell-ordered coordinate
/// and type lanes, the squared cut-off and the resolved law.
struct SweepInput<'a> {
    grid: &'a CellGrid,
    xs: &'a [f64],
    ys: &'a [f64],
    ts: &'a [u32],
    r2: f64,
    law: HitLaw<'a>,
}

/// Sweeps cells `clo..chi` into the chunk's accumulator, with the
/// AVX-512 row and hit kernels when `WIDE` (`x86::sweep_span`, the only
/// caller that sets it, compiles this body with those features, so the
/// row kernel inlines into the cell loop).
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
///
/// # Safety
///
/// With `WIDE`, the caller must have verified
/// [`sops_math::wide_available`]; without it the sweep runs portable
/// code only.
#[inline(always)]
unsafe fn sweep_span<const WIDE: bool>(
    input: &SweepInput,
    clo: usize,
    chi: usize,
    chunk: &mut ForceChunk,
) {
    if clo >= chi {
        return;
    }
    let &SweepInput {
        grid,
        xs,
        ys,
        ts,
        r2,
        law,
    } = input;
    let (nx, ny) = grid.shape();
    let wide = WIDE;
    let ForceChunk { acc, lo, hi, hits } = chunk;
    let acc = acc.as_mut_slice();
    // Borrow every batch lane as a local slice once; the live length
    // lives in a register. See the `HitBatch` doc for why this (rather
    // than indexing through the struct) is load-bearing.
    let bidx = hits.bidx.as_mut_slice();
    let aidx = hits.aidx.as_mut_slice();
    let d2v = hits.d2.as_mut_slice();
    let fv = hits.f.as_mut_slice();
    // The sweep-entry assert the unsafe candidate kernels rely on: cell
    // bounds index `grid.order`, so every candidate index is
    // `< grid.order().len()`, and the flush discipline keeps `len +
    // row_len ≤ HIT_CAP` — together with the `ROW_PAD` slots these bound
    // every unchecked access in `push_row` and `x86::push_row`.
    assert!(
        xs.len() >= grid.order().len()
            && ys.len() >= grid.order().len()
            && bidx.len() >= HIT_CAP + ROW_PAD
            && aidx.len() >= HIT_CAP + ROW_PAD
            && d2v.len() >= HIT_CAP + ROW_PAD,
        "sweep_span: lane buffers too small for this grid"
    );
    let mut len = 0usize;
    macro_rules! flush {
        () => {
            if len > 0 {
                flush_batch(len, bidx, aidx, d2v, fv, xs, ys, ts, law, wide, acc);
                len = 0;
            }
        };
    }
    // SAFETY (every use): the caller keeps `len + (b1 − b0) ≤ HIT_CAP`,
    // and the sweep-entry assert bounds the lanes.
    macro_rules! row {
        ($a:expr, $b0:expr, $b1:expr) => {
            unsafe { push_row_on(wide, $a, $b0, $b1, xs, ys, r2, bidx, aidx, d2v, len) }
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
                        for (b0, b1) in [(a + 1, e1), (s0, s1)] {
                            let mut b = b0;
                            while b < b1 {
                                let take = (b1 - b).min(HIT_CAP - len);
                                if take == 0 {
                                    flush!();
                                    continue;
                                }
                                len = row!(a, b, b + take);
                                b += take;
                            }
                        }
                        continue;
                    }
                }
                len = row!(a, a + 1, e1);
                len = row!(a, s0, s1);
            }
        }
        cx += 1;
        if cx == nx {
            cx = 0;
            cy += 1;
        }
    }
    if len > 0 {
        flush_batch(len, bidx, aidx, d2v, fv, xs, ys, ts, law, wide, acc);
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
/// fused rounding would change bits) and an ordered `≤` compare (a NaN
/// `d²` fails it, as it fails the scalar `<=`), the compaction keeps the
/// ascending candidate order, and the hit passes evaluate the same
/// element-wise expressions on the same values. Vector lane width never
/// reorders any floating-point *accumulation* — those all happen in the
/// scalar scatter — so results match the portable path exactly.
///
/// The row kernel pays off because a grid row at the simulator's working
/// densities holds several vectors of candidates: at `cell_sorting_xl`'s
/// ~1.4 particles per unit² and `r_c = 3`, ~19–24 (own-cell tail + east)
/// and ~31–38 (south row). At ~2 particles per cell (rows of 2–7, under
/// one vector) it costs a few percent more than the scalar kernel (see
/// README *Performance*).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ForceChunk, SweepInput};
    use core::arch::x86_64::*;

    /// `COMPRESS[m]` lists the set bits of `m` in ascending order: the
    /// lane order that moves a mask's selected lanes to the front. The
    /// row kernel permutes with it rather than calling the
    /// `vcompresspd`/`vpcompressd` intrinsics, which LLVM fails to
    /// compile ("Cannot emit physreg copy instruction") when thin LTO
    /// generates code at opt-level 0, as `cargo test --release` does for
    /// doctests.
    static COMPRESS: [[u8; 8]; 256] = {
        let mut table = [[0u8; 8]; 256];
        let mut m = 0;
        while m < 256 {
            let (mut lane, mut k) = (0, 0);
            while lane < 8 {
                if (m >> lane) & 1 == 1 {
                    table[m][k] = lane as u8;
                    k += 1;
                }
                lane += 1;
            }
            m += 1;
        }
        table
    };

    /// [`super::sweep_span`] compiled for AVX-512. The row kernel inlines
    /// into the cell loop here: at ~2 particles per cell a row holds 2–7
    /// candidates, and a call per row cost about as much as the row.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`].
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn sweep_span(
        input: &SweepInput,
        clo: usize,
        chi: usize,
        chunk: &mut ForceChunk,
    ) {
        // SAFETY: the caller verified the target features `WIDE` needs.
        unsafe { super::sweep_span::<true>(input, clo, chi, chunk) }
    }

    /// [`super::push_row`] eight candidates per step: masked 8-wide
    /// loads of the coordinate lanes (nothing past `b1` is read), `d² =
    /// dx·dx + dy·dy` as a separate multiply and add, an ordered
    /// `_CMP_LE_OQ` mask against `r²`, and a permute that moves the
    /// selected lanes of `d²` and the `b` index to the front
    /// (`COMPRESS`), stored full width at `len` beside a broadcast of
    /// `a`; `len` then advances by the mask's popcount.
    /// Survivors keep ascending `b` order, so the batch equals the scalar
    /// kernel's.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`]; the
    /// bounds of [`super::push_row`] hold, and `bidx`, `aidx` and `d2v`
    /// hold `ROW_PAD` (8) slots past `len + (b1 − b0)`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(crate) unsafe fn push_row(
        a: usize,
        b0: usize,
        b1: usize,
        xs: &[f64],
        ys: &[f64],
        r2: f64,
        bidx: &mut [u32],
        aidx: &mut [u32],
        d2v: &mut [f64],
        mut len: usize,
    ) -> usize {
        debug_assert!(a < xs.len() && a < ys.len() && b1 <= xs.len() && b1 <= ys.len());
        debug_assert!(
            len + (b1 - b0) + super::ROW_PAD <= bidx.len().min(aidx.len()).min(d2v.len())
        );
        let xav = _mm512_set1_pd(*xs.get_unchecked(a));
        let yav = _mm512_set1_pd(*ys.get_unchecked(a));
        let r2v = _mm512_set1_pd(r2);
        let av = _mm256_set1_epi32(a as i32);
        let step = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut b = b0;
        while b < b1 {
            let live = (b1 - b).min(8);
            let m: __mmask8 = (0xffu32 >> (8 - live)) as u8;
            let xv = _mm512_maskz_loadu_pd(m, xs.as_ptr().add(b));
            let yv = _mm512_maskz_loadu_pd(m, ys.as_ptr().add(b));
            let dx = _mm512_sub_pd(xav, xv);
            let dy = _mm512_sub_pd(yav, yv);
            let d2 = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
            let hit = _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(m, d2, r2v);
            let idx = _mm256_add_epi32(_mm256_set1_epi32(b as i32), step);
            let order = _mm_loadl_epi64(COMPRESS[hit as usize].as_ptr().cast());
            _mm512_storeu_pd(
                d2v.as_mut_ptr().add(len),
                _mm512_permutexvar_pd(_mm512_cvtepu8_epi64(order), d2),
            );
            _mm256_storeu_si256(
                bidx.as_mut_ptr().add(len).cast(),
                _mm256_permutevar8x32_epi32(idx, _mm256_cvtepu8_epi32(order)),
            );
            _mm256_storeu_si256(aidx.as_mut_ptr().add(len).cast(), av);
            len += hit.count_ones() as usize;
            b += 8;
        }
        len
    }

    /// Fused `√`+clamp+linear-scale stream for the type-blind fast path:
    /// `fv[i] = k·(1 − r/max(√d2[i], floor))`, the autovectorizer's
    /// 512-bit `vsqrtpd`/`vdivpd` form of the portable loop.
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

    /// The typed `F¹` hit pass eight hits per step: gathers both types
    /// through the index lanes, forms the pair class `ta·l + tb`,
    /// gathers `k` and `r` from the flat tables and evaluates
    /// `k·(1 − r/max(√d², floor))` — the portable loop's expression on
    /// the same values. `vmaxpd` returns its second operand when the
    /// first is NaN, as `f64::max` returns the non-NaN one.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`];
    /// `aidx`, `bidx`, `d2` hold at least `fv.len()` entries, every index
    /// is `< ts.len()`, every type is `< l`, and `k`, `r` hold `l²`
    /// entries.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(crate) unsafe fn typed_linear_scale(
        fv: &mut [f64],
        d2: &[f64],
        aidx: &[u32],
        bidx: &[u32],
        ts: &[u32],
        l: usize,
        k: &[f64],
        r: &[f64],
        floor: f64,
    ) {
        let h = fv.len();
        debug_assert!(aidx.len() >= h && bidx.len() >= h && d2.len() >= h);
        debug_assert!(k.len() == l * l && r.len() == l * l);
        let lv = _mm256_set1_epi32(l as i32);
        let floorv = _mm512_set1_pd(floor);
        let one = _mm512_set1_pd(1.0);
        let tsp = ts.as_ptr().cast::<i32>();
        let mut i = 0usize;
        while i < h {
            let live = (h - i).min(8);
            let m: __mmask8 = (0xffu32 >> (8 - live)) as u8;
            let ai = _mm256_maskz_loadu_epi32(m, aidx.as_ptr().add(i).cast());
            let bi = _mm256_maskz_loadu_epi32(m, bidx.as_ptr().add(i).cast());
            let zero = _mm256_setzero_si256();
            let ta = _mm256_mmask_i32gather_epi32::<4>(zero, m, ai, tsp);
            let tb = _mm256_mmask_i32gather_epi32::<4>(zero, m, bi, tsp);
            let class = _mm256_add_epi32(_mm256_mullo_epi32(ta, lv), tb);
            let kv = _mm512_mask_i32gather_pd::<8>(one, m, class, k.as_ptr());
            let rv = _mm512_mask_i32gather_pd::<8>(one, m, class, r.as_ptr());
            let x = _mm512_max_pd(
                _mm512_sqrt_pd(_mm512_maskz_loadu_pd(m, d2.as_ptr().add(i))),
                floorv,
            );
            let f = _mm512_mul_pd(kv, _mm512_sub_pd(one, _mm512_div_pd(rv, x)));
            _mm512_mask_storeu_pd(fv.as_mut_ptr().add(i), m, f);
            i += 8;
        }
    }
}

/// The candidate kernel: particle `a` against the cell-order coordinate
/// lanes `b0..b1`. Computes `d²` lane-wise over the two SoA slices and
/// appends survivors branchlessly (`len += (d² ≤ r²)` after an
/// unconditional compacted store of `b`, `a` and `d²`) in ascending `b`
/// order — the old per-pair `d² ≤ r²` branch was data-random and
/// mispredict-bound. The compacted store position is data-dependent, so
/// its bounds check cannot be hoisted by the compiler; the caller's
/// invariants replace it. The portable path and the reference for
/// `x86::push_row`.
///
/// # Safety
///
/// Caller guarantees `a < xs.len()` and `b1 ≤ xs.len() = ys.len()` (row
/// bounds come from `cell_bounds`, which never exceeds the point count —
/// asserted once per sweep) and `len + (b1 − b0)` at most the length of
/// `bidx`, `aidx` and `d2v` (the sweep flushes before any row that might
/// not fit its `HIT_CAP` lanes).
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn push_row(
    a: usize,
    b0: usize,
    b1: usize,
    xs: &[f64],
    ys: &[f64],
    r2: f64,
    bidx: &mut [u32],
    aidx: &mut [u32],
    d2v: &mut [f64],
    mut len: usize,
) -> usize {
    debug_assert!(a < xs.len() && a < ys.len() && b1 <= xs.len() && b1 <= ys.len());
    debug_assert!(len + (b1 - b0) <= bidx.len().min(aidx.len()).min(d2v.len()));
    // SAFETY: `a < xs.len() = ys.len()`.
    let (xa, ya) = unsafe { (*xs.get_unchecked(a), *ys.get_unchecked(a)) };
    for b in b0..b1 {
        // SAFETY: `b < b1 ≤ xs.len() = ys.len()`; `len` grows by at most
        // one per candidate, so the capacity precondition bounds every
        // store.
        unsafe {
            let dx = xa - *xs.get_unchecked(b);
            let dy = ya - *ys.get_unchecked(b);
            let d2 = dx * dx + dy * dy;
            *bidx.get_unchecked_mut(len) = b as u32;
            *aidx.get_unchecked_mut(len) = a as u32;
            *d2v.get_unchecked_mut(len) = d2;
            len += (d2 <= r2) as usize;
        }
    }
    len
}

/// One candidate row through `x86::push_row` when `wide`, else through
/// the scalar [`push_row`]; both append the same hits.
///
/// # Safety
///
/// As [`push_row`], and `bidx`, `aidx`, `d2v` hold `ROW_PAD` slots past
/// `len + (b1 − b0)`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn push_row_on(
    wide: bool,
    a: usize,
    b0: usize,
    b1: usize,
    xs: &[f64],
    ys: &[f64],
    r2: f64,
    bidx: &mut [u32],
    aidx: &mut [u32],
    d2v: &mut [f64],
    len: usize,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if wide {
        // SAFETY: `wide` certifies the target features; the caller's
        // bounds are the kernel's.
        return unsafe { x86::push_row(a, b0, b1, xs, ys, r2, bidx, aidx, d2v, len) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = wide;
    // SAFETY: the caller's bounds are the kernel's.
    unsafe { push_row(a, b0, b1, xs, ys, r2, bidx, aidx, d2v, len) }
}

/// Evaluates and scatters a batch of `h` hits: the hit pass, then the
/// Newton-3 scatter replaying hits in push (= pair visit) order — the
/// floating-point op sequence per particle is exactly the scalar
/// kernel's (each row's `acc[a]` run, recovered as an equal-value run of
/// the `a`-index lane, accumulates in a register, performing the same
/// subtractions in the same order). The pair deltas are re-derived from
/// the coordinate lanes (`xa − xs[b]`, bit-identical to the push-time
/// value) so the hot compaction loop stores three small lanes per
/// candidate and nothing else.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    h: usize,
    bidx: &[u32],
    aidx: &[u32],
    d2v: &[f64],
    fv: &mut [f64],
    xs: &[f64],
    ys: &[f64],
    ts: &[u32],
    law: HitLaw,
    wide: bool,
    acc: &mut [Vec2],
) {
    let bidx = &bidx[..h];
    let aidx = &aidx[..h];
    let fv = &mut fv[..h];
    hit_pass(law, bidx, aidx, &d2v[..h], fv, ts, wide);
    // Ordered Newton-3 scatter. Row runs are contiguous in the `a` lane,
    // so `acc[a]` accumulates in a register across each run — the same
    // op order as per-row scattering.
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

/// The hit pass: `fv[i] = scale(ts[aidx[i]], ts[bidx[i]], x)` with `x =
/// max(√d2[i], MIN_DISTANCE)` for every hit, in one pass over the batch,
/// with the same floating-point expression as [`ForceLaw::scale`] on
/// the same values, so results are bit-identical to the per-pair call.
/// `F¹` evaluates as lanes (a type-blind law hoists its two parameters,
/// a typed one reads its flat tables at the pair class `ts[a]·l +
/// ts[b]`); `F²` and custom laws read both types inline and call
/// `scale` per hit, since `exp` (or user code) has no lane form.
fn hit_pass(
    law: HitLaw,
    bidx: &[u32],
    aidx: &[u32],
    d2: &[f64],
    fv: &mut [f64],
    ts: &[u32],
    wide: bool,
) {
    #[cfg(not(target_arch = "x86_64"))]
    let _ = wide;
    let h = fv.len();
    let (bidx, aidx, d2) = (&bidx[..h], &aidx[..h], &d2[..h]);
    let x = |i: usize| d2[i].sqrt().max(MIN_DISTANCE);
    let types = |i: usize| (ts[aidx[i] as usize] as usize, ts[bidx[i] as usize] as usize);
    match law {
        HitLaw::Blind { k, r } => {
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: `wide` certifies the target features.
                unsafe { x86::sqrt_linear_scale(fv, d2, k, r, MIN_DISTANCE) };
                return;
            }
            for (i, fo) in fv.iter_mut().enumerate() {
                *fo = k * (1.0 - r / x(i));
            }
        }
        HitLaw::Typed { l, k, r } => {
            // The lane pass gathers with `i32` indices: particle indices
            // and pair classes (`< l²`) must fit them.
            #[cfg(target_arch = "x86_64")]
            if wide && ts.len() <= i32::MAX as usize && l * l <= i32::MAX as usize {
                // SAFETY: `wide` certifies the target features; index
                // lanes come from the grid (`< ts.len()`), `Model::new`
                // keeps every type `< l`, `resolve_hit_law` sizes both
                // tables `l²`, and both fit an `i32` gather index.
                unsafe { x86::typed_linear_scale(fv, d2, aidx, bidx, ts, l, k, r, MIN_DISTANCE) };
                return;
            }
            for (i, fo) in fv.iter_mut().enumerate() {
                let (ta, tb) = types(i);
                let class = ta * l + tb;
                *fo = k[class] * (1.0 - r[class] / x(i));
            }
        }
        HitLaw::Gaussian(g) => {
            for (i, fo) in fv.iter_mut().enumerate() {
                let (ta, tb) = types(i);
                *fo = g.scale(ta, tb, x(i));
            }
        }
        HitLaw::Custom(c) => {
            for (i, fo) in fv.iter_mut().enumerate() {
                let (ta, tb) = types(i);
                *fo = c.scale(ta, tb, x(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::LinearForce;
    use sops_math::{PairMatrix, SplitMix64};

    #[test]
    fn wide_row_kernel_matches_scalar_push_row() {
        if !sops_math::wide_available() {
            eprintln!("skipped: no AVX-512 on this CPU");
            return;
        }
        let mut rng = SplitMix64::new(0x5eed);
        let n = 160;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.next_range(-3.0, 3.0)).collect();
        let mut ys: Vec<f64> = (0..n).map(|_| rng.next_range(-3.0, 3.0)).collect();
        // Non-finite lanes: a NaN `d²` fails the ordered mask as it fails
        // the scalar `<=`, and an infinite one is out of range.
        xs[17] = f64::NAN;
        ys[60] = f64::NAN;
        xs[101] = f64::INFINITY;
        for row_len in 0..=40usize {
            for trial in 0..16 {
                let b0 = rng.next_below((n - row_len + 1) as u64) as usize;
                let b1 = b0 + row_len;
                let a = rng.next_below(n as u64) as usize;
                let start = rng.next_below(48) as usize;
                // Half the trials put `r²` exactly on a candidate's `d²`,
                // so the `≤` boundary is hit.
                let r2 = if trial % 2 == 0 && row_len > 0 {
                    let b = b0 + trial % row_len;
                    let (dx, dy) = (xs[a] - xs[b], ys[a] - ys[b]);
                    dx * dx + dy * dy
                } else {
                    rng.next_range(0.5, 9.0)
                };
                let size = start + row_len + ROW_PAD;
                let mut scalar = (vec![0u32; size], vec![0u32; size], vec![0.0f64; size]);
                let mut wide = (vec![7u32; size], vec![7u32; size], vec![7.0f64; size]);
                // SAFETY: every lane holds `start + row_len + ROW_PAD`
                // slots, `a < n` and `b1 ≤ n`.
                let (sl, wl) = unsafe {
                    let (sb, sa, sd) = &mut scalar;
                    let (wb, wa, wd) = &mut wide;
                    (
                        push_row(a, b0, b1, &xs, &ys, r2, sb, sa, sd, start),
                        x86::push_row(a, b0, b1, &xs, &ys, r2, wb, wa, wd, start),
                    )
                };
                let row = format!("a = {a}, row {b0}..{b1}");
                assert_eq!(wl, sl, "{row}: hit count");
                assert_eq!(wide.0[start..wl], scalar.0[start..sl], "{row}: b indices");
                assert_eq!(wide.1[start..wl], scalar.1[start..sl], "{row}: a indices");
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&wide.2[start..wl]),
                    bits(&scalar.2[start..sl]),
                    "{row}: d²"
                );
            }
        }
    }

    #[test]
    fn typed_hit_pass_matches_linear_scale() {
        let mut rng = SplitMix64::new(0x7ab1e);
        for l in 1..=5usize {
            let law = LinearForce::new(
                PairMatrix::from_fn(l, |_, _| rng.next_range(0.5, 3.0)),
                PairMatrix::from_fn(l, |_, _| rng.next_range(0.8, 3.5)),
            );
            let model = ForceModel::Linear(law.clone());
            let (mut k_tab, mut r_tab) = (Vec::new(), Vec::new());
            // One type resolves to the type-blind pass, more to the
            // tables.
            let hit_law = resolve_hit_law(&model, &mut k_tab, &mut r_tab);
            assert_eq!(matches!(hit_law, HitLaw::Typed { .. }), l > 1);
            let n = 300;
            let ts: Vec<u32> = (0..n).map(|_| rng.next_below(l as u64) as u32).collect();
            let h = 1_003;
            let aidx: Vec<u32> = (0..h).map(|_| rng.next_below(n as u64) as u32).collect();
            let bidx: Vec<u32> = (0..h).map(|_| rng.next_below(n as u64) as u32).collect();
            // `d²` spans the clamp (0, sub-floor values) and the cut-off.
            let d2: Vec<f64> = (0..h)
                .map(|i| match i % 7 {
                    0 => 0.0,
                    1 => 1e-20 * rng.next_f64(),
                    _ => rng.next_range(0.0, 9.0),
                })
                .collect();
            let expected: Vec<u64> = (0..h)
                .map(|i| {
                    let (a, b) = (ts[aidx[i] as usize], ts[bidx[i] as usize]);
                    let x = d2[i].sqrt().max(MIN_DISTANCE);
                    law.scale(a as usize, b as usize, x).to_bits()
                })
                .collect();
            for wide in [false, sops_math::wide_available()] {
                let mut fv = vec![0.0; h];
                hit_pass(hit_law, &bidx, &aidx, &d2, &mut fv, &ts, wide);
                let got: Vec<u64> = fv.iter().map(|f| f.to_bits()).collect();
                assert_eq!(got, expected, "l = {l}, wide = {wide}");
            }
        }
    }
}
