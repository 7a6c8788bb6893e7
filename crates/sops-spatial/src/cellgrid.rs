//! The simulator's cell index.
//!
//! The force sum of paper Eq. 6 runs over every pair within the cut-off
//! radius `r_c`. A uniform grid with cells no smaller than `r_c` turns
//! that into an `O(n)` rebuild plus a sweep over each cell's 3×3
//! neighbourhood — the "cell list" method from molecular dynamics.
//! `sops_sim::ForceWorkspace` rebuilds the grid every substep with
//! [`CellGrid::rebuild_lanes`] and runs the half-neighbourhood sweep
//! itself, over the cell-ordered coordinate lanes the rebuild writes; the
//! grid holds cell ids and point ids, never positions. For unbounded
//! interactions (`r_c = ∞`, used by Figs. 9 and 10) the simulator takes
//! the all-pairs loop instead.

use sops_math::Vec2;

/// A uniform grid over 2-D points, as a CSR layout (offsets + packed
/// point ids) that needs no per-cell allocation.
///
/// [`CellGrid::rebuild_lanes`] re-indexes the grid in place every
/// simulation substep: all internal buffers (offsets, the packed id list,
/// the counting-sort cursor and the per-point cell ids) are reused, so a
/// warmed-up grid performs zero heap allocations while the particle count
/// and cell occupancy stay within previously seen bounds. The default
/// grid is empty and has no cells until the first rebuild.
#[derive(Debug, Clone, Default)]
pub struct CellGrid {
    nx: usize,
    ny: usize,
    /// CSR offsets: cell c holds indices `items[offsets[c]..offsets[c+1]]`.
    offsets: Vec<u32>,
    items: Vec<u32>,
    /// Counting-sort cursor, kept around so a rebuild allocates nothing.
    cursor: Vec<u32>,
    /// Per-point cell ids from the counting pass, reused by the scatter
    /// pass (the cell computation costs two f64 divisions per point).
    cellid: Vec<u32>,
}

impl CellGrid {
    /// Re-indexes the grid over `points` with square cells of side
    /// `cell_size` covering their bounding box, and writes the points'
    /// coordinates in [`CellGrid::order`] to `xs`/`ys` in the same
    /// counting-sort scatter pass, so the simulator's per-substep rebuild
    /// makes one pass over the points.
    ///
    /// Point `i` lands in the cell `floor((points[i] − lo) / cell_size)`
    /// of the bounding box's low corner `lo`, clamped to the grid; within
    /// a cell, ids stay ascending. `cell_size` must be at least the
    /// cut-off radius of the caller's sweep so that the 3×3 neighbourhood
    /// is exhaustive; larger cells only add candidates.
    ///
    /// Afterwards `xs[k] = points[order()[k]].x` (and likewise `ys`): each
    /// cell's coordinates are contiguous, so a cell-pair segment of the
    /// simulator's chunked force kernel is two slice windows the
    /// autovectorizer can stream over. Allocation-free once every buffer,
    /// `xs` and `ys` included, is warm.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not finite and positive.
    pub fn rebuild_lanes(
        &mut self,
        points: &[Vec2],
        cell_size: f64,
        xs: &mut Vec<f64>,
        ys: &mut Vec<f64>,
    ) {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "CellGrid: cell size must be positive and finite"
        );
        // The scatter pass overwrites every slot, so warm rebuilds only
        // need the length fixed, not a zero fill.
        if xs.len() != points.len() {
            xs.clear();
            xs.resize(points.len(), 0.0);
        }
        if ys.len() != points.len() {
            ys.clear();
            ys.resize(points.len(), 0.0);
        }
        if points.is_empty() {
            self.nx = 1;
            self.ny = 1;
            self.offsets.clear();
            self.offsets.extend_from_slice(&[0, 0]);
            self.items.clear();
            return;
        }
        debug_assert!(points.len() <= u32::MAX as usize, "CellGrid: u32 indices");
        let has_wide = sops_math::wide_available();
        let (lo, hi) = if has_wide {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `has_wide` certifies the target features; the empty
            // case returned above.
            unsafe {
                x86::bbox(points)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!()
        } else {
            let mut lo = points[0];
            let mut hi = points[0];
            for &p in points {
                lo = lo.min(p);
                hi = hi.max(p);
            }
            (lo, hi)
        };
        let nx = (((hi.x - lo.x) / cell_size).floor() as usize + 1).max(1);
        let ny = (((hi.y - lo.y) / cell_size).floor() as usize + 1).max(1);
        let ncells = nx * ny;
        self.nx = nx;
        self.ny = ny;

        // Counting sort into cells, entirely within reused buffers. The
        // cell id needs two f64 divisions per point, so it is computed
        // once and cached for the scatter pass.
        // u32 cell coordinates: `f64 as u32` saturates exactly like the
        // `as usize` + `.min()` pair for the in-range values the bounding
        // box guarantees, and the narrower cast is the one SSE2/AVX can
        // vectorize (`cvttpd2dq`). Cell counts are u32-bounded already
        // (`items`/`offsets` are u32).
        let (nxm1, nym1) = ((nx - 1) as u32, (ny - 1) as u32);
        let cell_of = |p: Vec2| -> u32 {
            let cx = (((p.x - lo.x) / cell_size) as u32).min(nxm1);
            let cy = (((p.y - lo.y) / cell_size) as u32).min(nym1);
            cy * nx as u32 + cx
        };
        self.offsets.clear();
        self.offsets.resize(ncells + 1, 0);
        // The cell-id pass is kept free of the histogram's random-access
        // increments so the divisions and float→int casts can vectorize;
        // the counting pass then runs over the cached ids.
        self.cellid.clear();
        self.cellid.resize(points.len(), 0);
        let wide = has_wide && nx <= i32::MAX as usize && ny <= i32::MAX as usize;
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` certifies the target features and the
            // `i32::MAX` grid bounds; `cellid` was just sized to the
            // point count.
            unsafe {
                x86::cell_ids(
                    points,
                    lo,
                    cell_size,
                    nxm1,
                    nym1,
                    nx as u32,
                    &mut self.cellid,
                );
            }
        }
        if !wide {
            for (cid, &p) in self.cellid.iter_mut().zip(points) {
                *cid = cell_of(p);
            }
        }
        for &c in &self.cellid {
            self.offsets[c as usize + 1] += 1;
        }
        for c in 0..ncells {
            self.offsets[c + 1] += self.offsets[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets);
        self.items.clear();
        self.items.resize(points.len(), 0);
        for (i, &c) in self.cellid.iter().enumerate() {
            let c = c as usize;
            let dst = self.cursor[c] as usize;
            self.items[dst] = i as u32;
            let p = points[i];
            xs[dst] = p.x;
            ys[dst] = p.y;
            self.cursor[c] += 1;
        }
    }

    /// Grid shape `(nx, ny)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Number of grid cells `nx · ny`. Cell `c` sits at column `c % nx`,
    /// row `c / nx`.
    #[inline]
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// The indexed point ids in cell order — the CSR payload. Cell `c`
    /// owns the slice `order()[a..b]` with `(a, b) = cell_bounds(c)`.
    ///
    /// This doubles as a cache-coherent iteration order: gathering
    /// positions as `order().map(|i| points[i])` yields a layout where
    /// each cell's points are contiguous, which is what the simulator's
    /// half-neighbourhood force sweep iterates over.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.items
    }

    /// Half-open range `(start, end)` into [`CellGrid::order`] for cell
    /// `c`.
    #[inline]
    pub fn cell_bounds(&self, c: usize) -> (usize, usize) {
        (self.offsets[c] as usize, self.offsets[c + 1] as usize)
    }

    /// Capacities of every internal buffer, for allocation-stability
    /// assertions: a warmed-up grid rebuilt over a workload of bounded
    /// size must keep this signature constant.
    pub fn capacity_signature(&self) -> [usize; 4] {
        [
            self.offsets.capacity(),
            self.items.capacity(),
            self.cursor.capacity(),
            self.cellid.capacity(),
        ]
    }
}

/// Runtime-detected AVX-512 version of the cell-index pass — the only
/// long contiguous stream in the rebuild (two `f64` divisions per point
/// dominate it; `vdivpd` retires eight per instruction and IEEE division
/// is exact, so the vector form is bit-identical to the scalar one).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;
    use sops_math::Vec2;

    /// Bounding box over the interleaved point stream, four points per
    /// `vminpd`/`vmaxpd` pair. For finite coordinates this equals the
    /// scalar `Vec2::min`/`max` fold exactly (min/max are exact and
    /// order-independent); on ties between `−0.0` and `+0.0` either sign
    /// may win, which cannot change any cell assignment (`x − ±0.0`
    /// differs only for `x = ±0.0`, where the quotient truncates to cell
    /// 0 either way).
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`]; `points`
    /// non-empty.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(crate) unsafe fn bbox(points: &[Vec2]) -> (Vec2, Vec2) {
        let n = points.len();
        debug_assert!(n > 0);
        let base = points.as_ptr() as *const f64;
        let first = _mm512_castpd128_pd512(_mm_loadu_pd(base));
        // Broadcast the first point to every 128-bit lane: the
        // accumulators stay in interleaved `x y x y …` shape.
        let seed = _mm512_shuffle_f64x2::<0>(first, first);
        let mut lov = seed;
        let mut hiv = seed;
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm512_loadu_pd(base.add(2 * i));
            lov = _mm512_min_pd(lov, v);
            hiv = _mm512_max_pd(hiv, v);
            i += 4;
        }
        let lo256 = _mm256_min_pd(
            _mm512_castpd512_pd256(lov),
            _mm512_extractf64x4_pd::<1>(lov),
        );
        let hi256 = _mm256_max_pd(
            _mm512_castpd512_pd256(hiv),
            _mm512_extractf64x4_pd::<1>(hiv),
        );
        let lo128 = _mm_min_pd(
            _mm256_castpd256_pd128(lo256),
            _mm256_extractf128_pd::<1>(lo256),
        );
        let hi128 = _mm_max_pd(
            _mm256_castpd256_pd128(hi256),
            _mm256_extractf128_pd::<1>(hi256),
        );
        let mut lob = [0.0f64; 2];
        let mut hib = [0.0f64; 2];
        _mm_storeu_pd(lob.as_mut_ptr(), lo128);
        _mm_storeu_pd(hib.as_mut_ptr(), hi128);
        let mut lo = Vec2::new(lob[0], lob[1]);
        let mut hi = Vec2::new(hib[0], hib[1]);
        for j in i..n {
            let p = *points.get_unchecked(j);
            lo = lo.min(p);
            hi = hi.max(p);
        }
        (lo, hi)
    }

    /// `out[i] = cell_of(points[i])` for the grid parameters given —
    /// exactly the portable expression
    /// `(((p.x − lo.x)/cell) as u32).min(nxm1)` (and likewise `y`),
    /// eight points per iteration.
    ///
    /// Equivalence holds for *every* input, not just well-behaved ones:
    /// a negative or NaN quotient converts to 0 (the `≥ 0` ordered mask
    /// zeroes the lane, matching the scalar saturating cast), and any
    /// quotient ≥ 2³¹ — where `vcvttpd2dq` yields `0x8000_0000` instead
    /// of the scalar cast's exact truncation — still clamps to the same
    /// `nxm1`/`nym1` because the caller guarantees `nx, ny ≤ i32::MAX`,
    /// making both values larger than the clamp.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`] and
    /// `nx ≤ i32::MAX`, `ny ≤ i32::MAX`; `out.len() == points.len()`.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(crate) unsafe fn cell_ids(
        points: &[Vec2],
        lo: Vec2,
        cell_size: f64,
        nxm1: u32,
        nym1: u32,
        nx: u32,
        out: &mut [u32],
    ) {
        debug_assert_eq!(points.len(), out.len());
        let n = points.len();
        // `Vec2` is `repr(C)`, so the point slice is an interleaved
        // `x y x y …` f64 stream.
        let base = points.as_ptr() as *const f64;
        let xsel = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let ysel = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let lox = _mm512_set1_pd(lo.x);
        let loy = _mm512_set1_pd(lo.y);
        let cs = _mm512_set1_pd(cell_size);
        let zero = _mm512_setzero_pd();
        let nxv = _mm256_set1_epi32(nxm1 as i32);
        let nyv = _mm256_set1_epi32(nym1 as i32);
        let nxw = _mm256_set1_epi32(nx as i32);
        let mut i = 0usize;
        while i + 8 <= n {
            let a = _mm512_loadu_pd(base.add(2 * i));
            let b = _mm512_loadu_pd(base.add(2 * i + 8));
            let xv = _mm512_permutex2var_pd(a, xsel, b);
            let yv = _mm512_permutex2var_pd(a, ysel, b);
            let qx = _mm512_div_pd(_mm512_sub_pd(xv, lox), cs);
            let qy = _mm512_div_pd(_mm512_sub_pd(yv, loy), cs);
            let mx = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(qx, zero);
            let my = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(qy, zero);
            let cx = _mm256_maskz_mov_epi32(mx, _mm512_cvttpd_epi32(qx));
            let cy = _mm256_maskz_mov_epi32(my, _mm512_cvttpd_epi32(qy));
            let cx = _mm256_min_epu32(cx, nxv);
            let cy = _mm256_min_epu32(cy, nyv);
            let cell = _mm256_add_epi32(_mm256_mullo_epi32(cy, nxw), cx);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), cell);
            i += 8;
        }
        for j in i..n {
            let p = *points.get_unchecked(j);
            let cx = (((p.x - lo.x) / cell_size) as u32).min(nxm1);
            let cy = (((p.y - lo.y) / cell_size) as u32).min(nym1);
            *out.get_unchecked_mut(j) = cy * nx + cx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The from-scratch reference for [`CellGrid::rebuild_lanes`]: the
    /// grid shape and each point's cell, `floor((p − lo) / cell)` of the
    /// bounding box's low corner `lo`, clamped to the grid.
    fn reference_cells(points: &[Vec2], cell: f64) -> ((usize, usize), Vec<usize>) {
        let Some(&first) = points.first() else {
            return ((1, 1), Vec::new());
        };
        let (mut lo, mut hi) = (first, first);
        for &p in points {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let nx = ((hi.x - lo.x) / cell).floor() as usize + 1;
        let ny = ((hi.y - lo.y) / cell).floor() as usize + 1;
        let cells = points
            .iter()
            .map(|p| {
                let cx = (((p.x - lo.x) / cell).floor() as usize).min(nx - 1);
                let cy = (((p.y - lo.y) / cell).floor() as usize).min(ny - 1);
                cy * nx + cx
            })
            .collect();
        ((nx, ny), cells)
    }

    /// Checks a rebuilt grid and its lanes against [`reference_cells`].
    fn check_against_reference(
        g: &CellGrid,
        points: &[Vec2],
        cell: f64,
        xs: &[f64],
        ys: &[f64],
    ) -> Result<(), TestCaseError> {
        let ((nx, ny), cells) = reference_cells(points, cell);
        prop_assert_eq!(g.shape(), (nx, ny));
        prop_assert_eq!(g.cells(), nx * ny);
        let order = g.order();
        prop_assert_eq!(order.len(), points.len());
        // `cell_bounds` tile `0..n` in cell order; every id sits in its
        // reference cell, ascending within the cell, so `order()` is a
        // permutation of `0..n`.
        let mut next = 0;
        for c in 0..g.cells() {
            let (a, b) = g.cell_bounds(c);
            prop_assert_eq!(a, next, "cell {} starts past a gap or overlap", c);
            prop_assert!(a <= b);
            let ids = &order[a..b];
            for &i in ids {
                prop_assert_eq!(cells[i as usize], c, "point {} in cell {}", i, c);
            }
            prop_assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "cell {} ids not ascending",
                c
            );
            next = b;
        }
        prop_assert_eq!(next, points.len());
        // The lanes are the points gathered in `order()`.
        prop_assert_eq!(xs.len(), points.len());
        prop_assert_eq!(ys.len(), points.len());
        for (k, &i) in order.iter().enumerate() {
            let p = points[i as usize];
            prop_assert_eq!(xs[k].to_bits(), p.x.to_bits());
            prop_assert_eq!(ys[k].to_bits(), p.y.to_bits());
        }
        Ok(())
    }

    /// Points from `(kind, i, j, x, y)` draws: kind 0 sits on the lattice
    /// of cell corners (`(i, j) · cell`), kind 1 repeats the previous
    /// point, any other kind is free in `[-20, 20)²`.
    fn points_from(draws: &[(u8, i32, i32, f64, f64)], cell: f64) -> Vec<Vec2> {
        let mut points: Vec<Vec2> = Vec::with_capacity(draws.len());
        for &(kind, i, j, x, y) in draws {
            let p = match (kind, points.last()) {
                (0, _) => Vec2::new(f64::from(i) * cell, f64::from(j) * cell),
                (1, Some(&prev)) => prev,
                _ => Vec2::new(x, y),
            };
            points.push(p);
        }
        points
    }

    #[test]
    fn empty_rebuild_leaves_one_empty_cell() {
        let mut g = CellGrid::default();
        assert_eq!(g.cells(), 0, "the default grid has no cells");
        let (mut xs, mut ys) = (vec![1.0; 3], vec![2.0; 3]);
        g.rebuild_lanes(&[Vec2::ZERO, Vec2::new(3.0, 4.0)], 1.0, &mut xs, &mut ys);
        g.rebuild_lanes(&[], 2.0, &mut xs, &mut ys);
        assert_eq!(g.shape(), (1, 1));
        assert_eq!(g.cell_bounds(0), (0, 0));
        assert!(g.order().is_empty() && xs.is_empty() && ys.is_empty());
    }

    #[test]
    fn rebuild_lanes_is_allocation_stable() {
        let pts: Vec<Vec2> = (0..120)
            .map(|i| Vec2::new((i % 12) as f64 * 0.9, (i / 12) as f64 * 0.9))
            .collect();
        let mut g = CellGrid::default();
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        g.rebuild_lanes(&pts, 1.5, &mut xs, &mut ys);
        let sig = g.capacity_signature();
        let lane_caps = (xs.capacity(), ys.capacity());
        for _ in 0..50 {
            g.rebuild_lanes(&pts, 1.5, &mut xs, &mut ys);
            assert_eq!(
                g.capacity_signature(),
                sig,
                "rebuild_lanes must not allocate"
            );
            assert_eq!((xs.capacity(), ys.capacity()), lane_caps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One grid rebuilt in place over two point sets (0–200 points,
        /// with duplicates, points on cell corners and negative
        /// coordinates) matches the from-scratch reference after each
        /// rebuild, lanes included.
        #[test]
        fn rebuild_lanes_matches_from_scratch_reference(
            first in proptest::collection::vec(
                (0u8..4, -40i32..40, -40i32..40, -20.0..20.0f64, -20.0..20.0f64),
                0..201,
            ),
            second in proptest::collection::vec(
                (0u8..4, -40i32..40, -40i32..40, -20.0..20.0f64, -20.0..20.0f64),
                0..201,
            ),
            cells in (0.25..6.0f64, 0.25..6.0f64),
        ) {
            let mut g = CellGrid::default();
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for (draws, cell) in [(&first, cells.0), (&second, cells.1)] {
                let points = points_from(draws, cell);
                g.rebuild_lanes(&points, cell, &mut xs, &mut ys);
                check_against_reference(&g, &points, cell, &xs, &ys)?;
            }
        }
    }
}
