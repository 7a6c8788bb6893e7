//! Uniform-grid neighbour lists for the simulator.
//!
//! The particle simulator needs, at every step, all pairs within the
//! cut-off radius `r_c` (paper Eq. 6). A uniform grid with cell size `r_c`
//! turns that into an `O(n)` build plus an `O(n · density)` sweep over the
//! 3×3 cell neighbourhood — the standard "cell list" method from molecular
//! dynamics. For unbounded interactions (`r_c = ∞`, used by Figs. 9 and 10)
//! the caller falls back to the all-pairs loop.

use sops_math::Vec2;

/// A uniform grid over 2-D points supporting radius-bounded neighbour
/// iteration. Uses a CSR layout (offsets + packed indices) to avoid
/// per-cell allocations.
///
/// The grid can be [rebuilt in place](CellGrid::rebuild) every simulation
/// substep: all internal buffers (offsets, the packed index list, the
/// point copy and the counting-sort cursor) are reused, so a warmed-up
/// grid performs zero heap allocations while the particle count and cell
/// occupancy stay within previously seen bounds.
#[derive(Debug, Clone)]
pub struct CellGrid {
    cell: f64,
    origin: Vec2,
    nx: usize,
    ny: usize,
    /// CSR offsets: cell c holds indices `items[offsets[c]..offsets[c+1]]`.
    offsets: Vec<u32>,
    items: Vec<u32>,
    points: Vec<Vec2>,
    /// Counting-sort cursor, kept around so `rebuild` allocates nothing.
    cursor: Vec<u32>,
    /// Per-point cell ids from the counting pass, reused by the scatter
    /// pass (the cell computation costs two f64 divisions per point).
    cellid: Vec<u32>,
}

impl CellGrid {
    /// Builds a grid with cells of size `cell_size` covering the bounding
    /// box of `points`.
    ///
    /// `cell_size` must be ≥ the query radius used later so that the 3×3
    /// neighbourhood sweep is exhaustive — strictly larger cells are
    /// first-class (queries with a radius *smaller* than the cell size
    /// stay exact, they just scan more candidates per cell);
    /// [`CellGrid::for_neighbors`] checks the invariant in debug builds.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not finite and positive.
    pub fn build(points: &[Vec2], cell_size: f64) -> Self {
        let mut grid = CellGrid {
            cell: cell_size,
            origin: Vec2::ZERO,
            nx: 1,
            ny: 1,
            offsets: Vec::new(),
            items: Vec::new(),
            points: Vec::new(),
            cursor: Vec::new(),
            cellid: Vec::new(),
        };
        grid.rebuild(points, cell_size);
        grid
    }

    /// Re-indexes the grid over a new point set, reusing every internal
    /// buffer. Semantically identical to `*self = CellGrid::build(points,
    /// cell_size)` but allocation-free once the buffers have grown to the
    /// workload's steady-state size — this is the per-substep entry point
    /// of the simulator's force workspace.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not finite and positive.
    pub fn rebuild(&mut self, points: &[Vec2], cell_size: f64) {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        self.rebuild_impl::<false>(points, cell_size, &mut xs, &mut ys);
    }

    /// [`CellGrid::rebuild`] fused with [`CellGrid::gather_lanes`]: the
    /// counting-sort scatter pass writes the cell-ordered `xs`/`ys`
    /// coordinate lanes directly, so the simulator's per-substep rebuild
    /// needs one pass over the points instead of two (the separate gather
    /// re-reads every point through the `order()` indirection).
    ///
    /// Equivalent to `rebuild(points, cell_size)` followed by
    /// `gather_lanes(points, xs, ys)` — same grid, same lanes, bit for
    /// bit — and allocation-free once all buffers are warm.
    pub fn rebuild_lanes(
        &mut self,
        points: &[Vec2],
        cell_size: f64,
        xs: &mut Vec<f64>,
        ys: &mut Vec<f64>,
    ) {
        self.rebuild_impl::<true>(points, cell_size, xs, ys);
    }

    fn rebuild_impl<const GATHER: bool>(
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
        self.cell = cell_size;
        self.points.clear();
        self.points.extend_from_slice(points);
        if GATHER {
            // The scatter pass overwrites every slot, so warm rebuilds
            // only need the length fixed, not a zero fill.
            if xs.len() != points.len() {
                xs.clear();
                xs.resize(points.len(), 0.0);
            }
            if ys.len() != points.len() {
                ys.clear();
                ys.resize(points.len(), 0.0);
            }
        }
        if points.is_empty() {
            self.origin = Vec2::ZERO;
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
        self.origin = lo;
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
            if GATHER {
                let p = points[i];
                xs[dst] = p.x;
                ys[dst] = p.y;
            }
            self.cursor[c] += 1;
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
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

    /// Gathers `points` into cell order as SoA coordinate lanes:
    /// `xs[k] = points[order()[k]].x` (and likewise `ys`), with both
    /// outputs cleared first.
    ///
    /// This is the layout contract of the simulator's chunked force
    /// kernel: each cell's coordinates land contiguous in `xs`/`ys`, so a
    /// cell-pair segment is two slice windows the autovectorizer can
    /// stream over. `points` must be the slice the grid was last
    /// [rebuilt](CellGrid::rebuild) over (same length and order);
    /// callers keeping auxiliary per-point lanes (types, charges) must
    /// gather them through [`CellGrid::order`] with the same indexing so
    /// every lane stays aligned with `xs`/`ys`.
    pub fn gather_lanes(&self, points: &[Vec2], xs: &mut Vec<f64>, ys: &mut Vec<f64>) {
        assert_eq!(
            points.len(),
            self.items.len(),
            "CellGrid::gather_lanes: point count must match the indexed set"
        );
        xs.clear();
        ys.clear();
        xs.reserve(points.len());
        ys.reserve(points.len());
        for &i in &self.items {
            let p = points[i as usize];
            xs.push(p.x);
            ys.push(p.y);
        }
    }

    /// Capacities of every internal buffer, for allocation-stability
    /// assertions: a warmed-up grid rebuilt over a workload of bounded
    /// size must keep this signature constant.
    pub fn capacity_signature(&self) -> [usize; 5] {
        [
            self.offsets.capacity(),
            self.items.capacity(),
            self.points.capacity(),
            self.cursor.capacity(),
            self.cellid.capacity(),
        ]
    }

    #[inline]
    fn cell_coords(&self, p: Vec2) -> (usize, usize) {
        let cx = (((p.x - self.origin.x) / self.cell) as usize).min(self.nx - 1);
        let cy = (((p.y - self.origin.y) / self.cell) as usize).min(self.ny - 1);
        (cx, cy)
    }

    /// Calls `f(j, dist_sq)` for every indexed point `j ≠ exclude` within
    /// `radius` (inclusive) of `query`.
    ///
    /// `exclude` is typically the queried particle's own index; pass
    /// `usize::MAX` to exclude nothing.
    ///
    /// Any `radius ≤ cell_size` is supported — the grid need not be built
    /// with a cell size exactly equal to the query radius. A cut-off
    /// *smaller* than the cell stays exact (the 3×3 sweep over-scans and
    /// the distance test filters); only `radius > cell_size` would make
    /// the sweep non-exhaustive, which the debug assertion rejects.
    pub fn for_neighbors(
        &self,
        query: Vec2,
        radius: f64,
        exclude: usize,
        mut f: impl FnMut(usize, f64),
    ) {
        debug_assert!(
            radius <= self.cell * (1.0 + 1e-12),
            "CellGrid: query radius {radius} exceeds cell size {} (the 3×3 \
             sweep would miss neighbours; rebuild with cell_size >= radius)",
            self.cell
        );
        if self.is_empty() {
            return;
        }
        let r2 = radius * radius;
        let (cx, cy) = self.cell_coords(query);
        let x0 = cx.saturating_sub(1);
        let x1 = (cx + 1).min(self.nx - 1);
        let y0 = cy.saturating_sub(1);
        let y1 = (cy + 1).min(self.ny - 1);
        for gy in y0..=y1 {
            for gx in x0..=x1 {
                let c = gy * self.nx + gx;
                let lo = self.offsets[c] as usize;
                let hi = self.offsets[c + 1] as usize;
                for &j in &self.items[lo..hi] {
                    let j = j as usize;
                    if j == exclude {
                        continue;
                    }
                    let d2 = self.points[j].dist_sq(query);
                    if d2 <= r2 {
                        f(j, d2);
                    }
                }
            }
        }
    }

    /// Collects all unordered pairs `(i, j)`, `i < j`, within `radius`
    /// (inclusive), in lexicographic order.
    ///
    /// Convenience wrapper for tests and diagnostics; the simulator's hot
    /// loop uses [`CellGrid::for_neighbors`] per particle instead to
    /// accumulate asymmetric per-type forces directly.
    pub fn pairs_within(&self, radius: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.len() {
            self.for_neighbors(self.points[i], radius, i, |j, _| {
                if i < j {
                    out.push((i, j));
                }
            });
        }
        out.sort_unstable();
        out
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
    pub unsafe fn bbox(points: &[Vec2]) -> (Vec2, Vec2) {
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
    pub unsafe fn cell_ids(
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
    use crate::brute;
    use proptest::prelude::*;

    fn to_flat(points: &[Vec2]) -> Vec<f64> {
        points.iter().flat_map(|p| [p.x, p.y]).collect()
    }

    #[test]
    fn empty_grid() {
        let g = CellGrid::build(&[], 1.0);
        assert!(g.is_empty());
        let mut called = false;
        g.for_neighbors(Vec2::ZERO, 1.0, usize::MAX, |_, _| called = true);
        assert!(!called);
        assert!(g.pairs_within(1.0).is_empty());
    }

    #[test]
    fn single_cell_all_points() {
        let pts = vec![
            Vec2::new(0.1, 0.1),
            Vec2::new(0.2, 0.2),
            Vec2::new(0.3, 0.3),
        ];
        let g = CellGrid::build(&pts, 10.0);
        assert_eq!(g.shape(), (1, 1));
        let mut found = Vec::new();
        g.for_neighbors(pts[0], 10.0, 0, |j, _| found.push(j));
        found.sort_unstable();
        assert_eq!(found, vec![1, 2]);
    }

    #[test]
    fn neighbor_search_respects_radius() {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.5, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(0.0, 0.9),
        ];
        let g = CellGrid::build(&pts, 1.0);
        let mut found = Vec::new();
        g.for_neighbors(pts[0], 1.0, 0, |j, d2| found.push((j, d2)));
        found.sort_by_key(|a| a.0);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, 1);
        assert_eq!(found[1].0, 3);
    }

    #[test]
    fn pairs_match_brute_on_cluster() {
        let pts: Vec<Vec2> = (0..40)
            .map(|i| Vec2::new((i % 7) as f64 * 0.6, (i / 7) as f64 * 0.6))
            .collect();
        let g = CellGrid::build(&pts, 1.25);
        assert_eq!(
            g.pairs_within(1.25),
            brute::pairs_within(2, &to_flat(&pts), 1.25)
        );
    }

    #[test]
    fn exclusion_skips_self_not_duplicates() {
        // Two particles at the same location: the query for particle 0 must
        // still see particle 1.
        let pts = vec![Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0)];
        let g = CellGrid::build(&pts, 1.0);
        let mut found = Vec::new();
        g.for_neighbors(pts[0], 1.0, 0, |j, d2| found.push((j, d2)));
        assert_eq!(found, vec![(1, 0.0)]);
    }

    #[test]
    fn query_radius_smaller_than_cell_is_exact() {
        // A grid built with cells much larger than the cut-off must answer
        // small-radius queries exactly (the sweep over-scans, the distance
        // test filters).
        let pts: Vec<Vec2> = (0..60)
            .map(|i| Vec2::new((i % 10) as f64 * 0.4, (i / 10) as f64 * 0.4))
            .collect();
        let g = CellGrid::build(&pts, 3.0);
        let radius = 0.45;
        assert_eq!(
            g.pairs_within(radius),
            brute::pairs_within(2, &to_flat(&pts), radius)
        );
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut g = CellGrid::build(&[Vec2::ZERO], 1.0);
        for seed in 0..4u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 50.0 - 10.0
            };
            let pts: Vec<Vec2> = (0..50 + seed as usize * 17)
                .map(|_| Vec2::new(next(), next()))
                .collect();
            let cell = 1.0 + seed as f64 * 0.7;
            g.rebuild(&pts, cell);
            let fresh = CellGrid::build(&pts, cell);
            assert_eq!(g.shape(), fresh.shape());
            assert_eq!(g.order(), fresh.order());
            assert_eq!(g.pairs_within(cell), fresh.pairs_within(cell));
        }
        // Shrinking back to the empty set must also work in place.
        g.rebuild(&[], 2.0);
        assert!(g.is_empty());
        assert!(g.pairs_within(2.0).is_empty());
    }

    #[test]
    fn rebuild_is_allocation_stable() {
        let pts: Vec<Vec2> = (0..120)
            .map(|i| Vec2::new((i % 12) as f64 * 0.9, (i / 12) as f64 * 0.9))
            .collect();
        let mut g = CellGrid::build(&pts, 1.5);
        let sig = g.capacity_signature();
        for _ in 0..50 {
            g.rebuild(&pts, 1.5);
            assert_eq!(g.capacity_signature(), sig, "rebuild must not allocate");
        }
    }

    #[test]
    fn rebuild_lanes_matches_rebuild_plus_gather() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 50.0 - 10.0
        };
        for n in [0usize, 1, 7, 120] {
            let pts: Vec<Vec2> = (0..n).map(|_| Vec2::new(next(), next())).collect();
            let mut fused = CellGrid::build(&[], 1.0);
            let (mut fx, mut fy) = (Vec::new(), Vec::new());
            fused.rebuild_lanes(&pts, 1.3, &mut fx, &mut fy);
            let mut two_pass = CellGrid::build(&[], 1.0);
            two_pass.rebuild(&pts, 1.3);
            let (mut gx, mut gy) = (Vec::new(), Vec::new());
            two_pass.gather_lanes(&pts, &mut gx, &mut gy);
            assert_eq!(fused.order(), two_pass.order());
            assert_eq!(fx, gx);
            assert_eq!(fy, gy);
        }
    }

    #[test]
    fn rebuild_lanes_is_allocation_stable() {
        let pts: Vec<Vec2> = (0..120)
            .map(|i| Vec2::new((i % 12) as f64 * 0.9, (i / 12) as f64 * 0.9))
            .collect();
        let mut g = CellGrid::build(&pts, 1.5);
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

    #[test]
    fn cell_order_accessors_are_consistent() {
        let pts: Vec<Vec2> = (0..33)
            .map(|i| Vec2::new((i % 6) as f64, (i / 6) as f64))
            .collect();
        let g = CellGrid::build(&pts, 1.0);
        let mut seen = vec![false; pts.len()];
        let mut total = 0usize;
        for c in 0..g.cells() {
            let (a, b) = g.cell_bounds(c);
            assert!(a <= b && b <= g.len());
            for &i in &g.order()[a..b] {
                assert!(!seen[i as usize], "point {i} listed twice");
                seen[i as usize] = true;
                total += 1;
            }
        }
        assert_eq!(total, pts.len(), "every point appears in exactly one cell");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pairs_with_radius_below_cell_match_brute(
            coords in proptest::collection::vec((-15.0..15.0f64, -15.0..15.0f64), 1..60),
            radius in 0.1..2.0f64,
            slack in 1.0..4.0f64
        ) {
            // Build with cell size >= radius (not exactly equal): queries
            // must stay exhaustive and exact.
            let pts: Vec<Vec2> = coords.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
            let g = CellGrid::build(&pts, radius * slack);
            prop_assert_eq!(g.pairs_within(radius), brute::pairs_within(2, &to_flat(&pts), radius));
        }

        #[test]
        fn pairs_match_brute(
            coords in proptest::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 1..80),
            radius in 0.1..5.0f64
        ) {
            let pts: Vec<Vec2> = coords.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
            let g = CellGrid::build(&pts, radius);
            prop_assert_eq!(g.pairs_within(radius), brute::pairs_within(2, &to_flat(&pts), radius));
        }

        #[test]
        fn neighbors_match_brute_counts(
            coords in proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..60),
            radius in 0.1..3.0f64,
            qi in 0..60usize
        ) {
            let pts: Vec<Vec2> = coords.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
            let qi = qi % pts.len();
            let g = CellGrid::build(&pts, radius);
            let mut count = 0;
            g.for_neighbors(pts[qi], radius, qi, |_, _| count += 1);
            // Brute count includes the query point itself (distance 0), so subtract 1.
            let brute_count = brute::count_within_inclusive(2, &to_flat(&pts), &[pts[qi].x, pts[qi].y], radius) - 1;
            prop_assert_eq!(count, brute_count);
        }
    }
}
