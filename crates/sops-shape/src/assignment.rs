//! Minimum-cost perfect matching (Hungarian algorithm).
//!
//! The permutation-reduction step (paper §5.2) needs a *bijective*
//! correspondence between same-type particles of a sample and the
//! reference. Greedy nearest-neighbour matching — what a plain ICP
//! correspondence search yields — can map two particles onto the same
//! reference particle; re-indexing then loses particles. The Hungarian
//! algorithm provides the optimal bijection in `O(n³)`, which is trivial
//! at the paper's scales (n ≤ 120 per type).
//!
//! Implementation: Jonker–Volgenant-style shortest augmenting paths with
//! row/column potentials (the standard `O(n³)` formulation).
//!
//! Each augmenting step scans the unused columns once: it lowers their
//! slack `minv` and picks the first column of least slack. On a CPU with
//! AVX-512 ([`sops_math::wide_available`], probed once per solve) the
//! scan runs eight columns at a time without the scalar loop's
//! data-dependent branches and returns the same slack bits and column;
//! the potential update stays scalar. The scalar scan is the fallback
//! elsewhere, and the unit tests run the two side by side.

/// Reusable buffers for [`hungarian_with`]: the potentials, matching and
/// path arrays the solver needs, grown on demand and reused across calls.
///
/// The historical entry point allocated six vectors per call — two of
/// them (`minv`, `used`) *per augmenting row*, i.e. `O(n)` allocations
/// per solve. The shape-reduction loop solves one assignment per sample
/// per evaluated time step, so the eval workers hold this scratch in
/// their [`crate::ensemble::ReduceWorkspace`].
#[derive(Debug, Clone, Default)]
pub struct HungarianScratch {
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
}

impl HungarianScratch {
    /// Empty scratch; buffers grow to the problem size on first use.
    pub fn new() -> Self {
        HungarianScratch::default()
    }

    /// Capacities of the internal buffers (zero-allocation contract).
    pub fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.u.capacity());
        sig.push(self.v.capacity());
        sig.push(self.p.capacity());
        sig.push(self.way.capacity());
        sig.push(self.minv.capacity());
        sig.push(self.used.capacity());
    }
}

/// Solves the square assignment problem for the given row-major `n × n`
/// cost matrix.
///
/// Returns `(assignment, total_cost)` where `assignment[row] = col`.
/// Deterministic for ties (lowest augmenting column wins by scan order).
///
/// ```
/// use sops_shape::hungarian;
/// // Cheapest matching of [[4, 1], [2, 3]] picks the anti-diagonal.
/// let (assignment, cost) = hungarian(2, &[4.0, 1.0, 2.0, 3.0]);
/// assert_eq!(assignment, vec![1, 0]);
/// assert_eq!(cost, 3.0);
/// ```
///
/// Convenience shim over [`hungarian_with`]; repeated callers should hold
/// a [`HungarianScratch`].
///
/// # Panics
///
/// Panics if `costs.len() != n * n`, if `n == 0`, or if any cost is NaN.
pub fn hungarian(n: usize, costs: &[f64]) -> (Vec<usize>, f64) {
    let mut scratch = HungarianScratch::new();
    let mut assignment = Vec::new();
    let cost = hungarian_with(&mut scratch, n, costs, &mut assignment);
    (assignment, cost)
}

/// [`hungarian`] with caller-provided scratch and output buffer — the
/// allocation-free form. `assignment` is cleared and filled with
/// `assignment[row] = col`; the total cost is returned. Results are
/// identical to [`hungarian`].
pub fn hungarian_with(
    scratch: &mut HungarianScratch,
    n: usize,
    costs: &[f64],
    assignment: &mut Vec<usize>,
) -> f64 {
    solve(scratch, n, costs, assignment, sops_math::wide_available())
}

/// [`hungarian_with`] with the column scan's form chosen by `wide` (see
/// [`scan_columns`]).
fn solve(
    scratch: &mut HungarianScratch,
    n: usize,
    costs: &[f64],
    assignment: &mut Vec<usize>,
    wide: bool,
) -> f64 {
    assert!(n > 0, "hungarian: empty problem");
    assert_eq!(costs.len(), n * n, "hungarian: cost matrix shape");
    assert!(
        costs.iter().all(|c| !c.is_nan()),
        "hungarian: NaN cost entry"
    );

    // Potentials u (rows, 1-based) and v (columns, 0 = virtual start).
    let HungarianScratch {
        u,
        v,
        p,
        way,
        minv,
        used,
    } = scratch;
    reset(u, n + 1, 0.0);
    reset(v, n + 1, 0.0);
    // p[j] = row matched to column j (0 = unmatched), 1-based rows.
    reset(p, n + 1, 0usize);
    // way[j] = previous column on the augmenting path.
    reset(way, n + 1, 0usize);

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        reset(minv, n + 1, f64::INFINITY);
        reset(used, n + 1, false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let row = &costs[(i0 - 1) * n..i0 * n];
            let (delta, j1) = scan_columns(wide, row, u[i0], v, used, minv, way, j0);
            debug_assert!(delta.is_finite(), "hungarian: no augmenting column");
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    reset(assignment, n, usize::MAX);
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| costs[r * n + c])
        .sum()
}

/// The column scan of one augmenting-path step from row `i0` (cost row
/// `row`, potential `ui0`), reached through column `j0`. For every unused
/// column `j` (1-based, like `v`, `used`, `minv` and `way`) it lowers
/// `minv[j]` to the reduced cost `row[j − 1] − ui0 − v[j]`, recording
/// `way[j] = j0`, and returns `(delta, j1)`: the smallest `minv` over the
/// unused columns and the first column holding it (a strict-`<` running
/// minimum), or `(+∞, 0)` when none is below +∞. `wide`
/// ([`sops_math::wide_available`], probed once per solve) selects the
/// AVX-512 form, which returns the same bits.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scan_columns(
    wide: bool,
    row: &[f64],
    ui0: f64,
    v: &[f64],
    used: &[bool],
    minv: &mut [f64],
    way: &mut [usize],
    j0: usize,
) -> (f64, usize) {
    let n = row.len();
    let (v, used, minv, way) = (&v[..=n], &used[..=n], &mut minv[..=n], &mut way[..=n]);
    #[cfg(target_arch = "x86_64")]
    if wide {
        // SAFETY: `wide` certifies the target features, and the slices
        // above give every column array `row.len() + 1` entries.
        return unsafe { x86::scan_columns(row, ui0, v, used, minv, way, j0) };
    }
    let _ = wide;
    let mut delta = f64::INFINITY;
    let mut j1 = 0usize;
    for j in 1..=n {
        if used[j] {
            continue;
        }
        let cur = row[j - 1] - ui0 - v[j];
        if cur < minv[j] {
            minv[j] = cur;
            way[j] = j0;
        }
        if minv[j] < delta {
            delta = minv[j];
            j1 = j;
        }
    }
    (delta, j1)
}

/// The AVX-512 column scan.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// [`super::scan_columns`]'s scalar scan, eight columns at a time, the
    /// last partial block under a mask. The `minv`/`way` update is
    /// lane-wise (reduced costs subtract in the scalar order, so they
    /// have its bits); each lane keeps a strict-`<` running minimum of
    /// its columns' `minv` with the column, and the answer is the
    /// smallest column among the lanes holding the overall minimum — the
    /// scalar loop's first minimum. `delta` is read back from
    /// `minv[j1]`, so a `−0`/`+0` tie returns the first column's zero,
    /// as the scalar loop does. NaN never compares below anything in
    /// either form.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`]; `v`,
    /// `used`, `minv` and `way` hold `row.len() + 1` entries.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn scan_columns(
        row: &[f64],
        ui0: f64,
        v: &[f64],
        used: &[bool],
        minv: &mut [f64],
        way: &mut [usize],
        j0: usize,
    ) -> (f64, usize) {
        let n = row.len();
        let uv = _mm512_set1_pd(ui0);
        let j0v = _mm512_set1_epi64(j0 as i64);
        let mut best = _mm512_set1_pd(f64::INFINITY);
        let mut best_j = _mm512_setzero_si512();
        let mut js = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8);
        let eight = _mm512_set1_epi64(8);
        // Column `j` (1-based) is lane `j − 1 − c` of the block at `c`.
        let mut c = 0;
        while c < n {
            let width = (n - c).min(8);
            let live: __mmask8 = if width == 8 { 0xff } else { (1u8 << width) - 1 };
            // The block's `used` flags, one `bool` byte (0 or 1) per lane,
            // zero past the end.
            let flags = if width == 8 {
                used.as_ptr().add(1 + c).cast::<u64>().read_unaligned()
            } else {
                let mut bytes = [0u8; 8];
                for (b, &u) in bytes.iter_mut().zip(&used[1 + c..=n]) {
                    *b = u8::from(u);
                }
                u64::from_le_bytes(bytes)
            };
            let flags = _mm512_cvtepu8_epi64(_mm_cvtsi64_si128(flags as i64));
            let free = live & !_mm512_test_epi64_mask(flags, flags);
            let cost = _mm512_maskz_loadu_pd(live, row.as_ptr().add(c));
            let vj = _mm512_maskz_loadu_pd(live, v.as_ptr().add(1 + c));
            let cur = _mm512_sub_pd(_mm512_sub_pd(cost, uv), vj);
            let mut m = _mm512_maskz_loadu_pd(live, minv.as_ptr().add(1 + c));
            let lower = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(free, cur, m);
            m = _mm512_mask_mov_pd(m, lower, cur);
            _mm512_mask_storeu_pd(minv.as_mut_ptr().add(1 + c), lower, cur);
            _mm512_mask_storeu_epi64(way.as_mut_ptr().add(1 + c).cast(), lower, j0v);
            let better = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(free, m, best);
            best = _mm512_mask_mov_pd(best, better, m);
            best_j = _mm512_mask_mov_epi64(best_j, better, js);
            js = _mm512_add_epi64(js, eight);
            c += 8;
        }
        let min = _mm512_reduce_min_pd(best);
        if min == f64::INFINITY {
            return (f64::INFINITY, 0);
        }
        let holders = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(best, _mm512_set1_pd(min));
        let j1 = _mm512_mask_reduce_min_epi64(holders, best_j) as usize;
        (minv[j1], j1)
    }
}

/// Clears and refills a scratch vector with `len` copies of `value` —
/// allocation-free once the capacity has grown to the workload size.
fn reset<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Brute-force optimal assignment by permutation enumeration — test
/// reference, usable up to n ≈ 8.
#[doc(hidden)]
pub fn brute_force_assignment(n: usize, costs: &[f64]) -> (Vec<usize>, f64) {
    assert!(n <= 9, "brute force assignment explodes past n = 9");
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best_perm = perm.clone();
    let mut best = f64::INFINITY;
    permute(&mut perm, 0, &mut |p| {
        let cost: f64 = p.iter().enumerate().map(|(r, &c)| costs[r * n + c]).sum();
        if cost < best {
            best = cost;
            best_perm = p.to_vec();
        }
    });
    (best_perm, best)
}

fn permute(arr: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == arr.len() {
        f(arr);
        return;
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        permute(arr, k + 1, f);
        arr.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_by_one() {
        let (a, c) = hungarian(1, &[5.0]);
        assert_eq!(a, vec![0]);
        assert_eq!(c, 5.0);
    }

    #[test]
    fn classic_three_by_three() {
        // Optimal: 0->1 (2), 1->0 (3), 2->2 (2) = 7? Let's use a known case:
        // [[4, 1, 3], [2, 0, 5], [3, 2, 2]] -> optimum 1 + 2 + 2 = 5.
        let costs = [4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0];
        let (a, c) = hungarian(3, &costs);
        assert_eq!(c, 5.0);
        assert_eq!(a, vec![1, 0, 2]);
    }

    #[test]
    fn identity_is_optimal_for_diagonal_dominance() {
        // Zero diagonal, positive off-diagonal.
        let n = 5;
        let mut costs = vec![1.0; n * n];
        for i in 0..n {
            costs[i * n + i] = 0.0;
        }
        let (a, c) = hungarian(n, &costs);
        assert_eq!(a, (0..n).collect::<Vec<_>>());
        assert_eq!(c, 0.0);
    }

    #[test]
    fn anti_diagonal_case() {
        // Cheapest is the reversal permutation.
        let n = 4;
        let mut costs = vec![10.0; n * n];
        for i in 0..n {
            costs[i * n + (n - 1 - i)] = 1.0;
        }
        let (a, c) = hungarian(n, &costs);
        assert_eq!(a, vec![3, 2, 1, 0]);
        assert_eq!(c, 4.0);
    }

    #[test]
    fn negative_costs_supported() {
        let costs = [-5.0, 0.0, 0.0, -5.0];
        let (a, c) = hungarian(2, &costs);
        assert_eq!(a, vec![0, 1]);
        assert_eq!(c, -10.0);
    }

    #[test]
    fn reused_scratch_matches_fresh_solver() {
        let mut rng = sops_math::SplitMix64::new(77);
        let mut scratch = HungarianScratch::new();
        let mut assignment = Vec::new();
        // Mixed problem sizes through one scratch: identical to fresh.
        for n in [5usize, 12, 3, 9, 12] {
            let costs: Vec<f64> = (0..n * n).map(|_| rng.next_range(-5.0, 5.0)).collect();
            let cost = hungarian_with(&mut scratch, n, &costs, &mut assignment);
            let (fresh_assignment, fresh_cost) = hungarian(n, &costs);
            assert_eq!(assignment, fresh_assignment, "n={n}");
            assert_eq!(cost.to_bits(), fresh_cost.to_bits(), "n={n}");
        }
    }

    #[test]
    fn assignment_is_a_permutation() {
        let mut rng = sops_math::SplitMix64::new(5);
        let n = 20;
        let costs: Vec<f64> = (0..n * n).map(|_| rng.next_range(0.0, 100.0)).collect();
        let (a, _) = hungarian(n, &costs);
        let mut seen = vec![false; n];
        for &c in &a {
            assert!(!seen[c], "column {c} assigned twice");
            seen[c] = true;
        }
    }

    /// An integer-valued cost, potential or `minv` entry (so ties are
    /// common), or now and then one of `specials`.
    fn entry(rng: &mut sops_math::SplitMix64, specials: &[f64]) -> f64 {
        let r = rng.next_u64();
        if !specials.is_empty() && r.is_multiple_of(6) {
            specials[(r >> 3) as usize % specials.len()]
        } else {
            ((r >> 8) % 9) as f64 - 4.0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wide_column_scan_matches_scalar(
            n in 1usize..41,
            special in 0usize..4,
            j0 in 0usize..41,
            seed in 0..u64::MAX,
        ) {
            if !crate::wide_or_skip_note() {
                return Ok(());
            }
            let mut rng = sops_math::SplitMix64::new(seed);
            let used: Vec<bool> = (0..=n).map(|_| rng.next_u64().is_multiple_of(3)).collect();
            let way: Vec<usize> = (0..=n).map(|_| (rng.next_u64() % 41) as usize).collect();
            let (row, v, minv, ui0): (Vec<f64>, Vec<f64>, Vec<f64>, f64) = if special == 3 {
                // Reduced costs of at least 1 against `minv` ties between
                // +0 and −0: `delta` must be the first column's zero.
                let zeros = [0.0, -0.0, 0.0, -0.0, 1.0, f64::INFINITY];
                (
                    (0..n).map(|_| (rng.next_u64() % 4) as f64 + 1.0).collect(),
                    vec![0.0; n + 1],
                    (0..=n).map(|_| zeros[(rng.next_u64() % 6) as usize]).collect(),
                    0.0,
                )
            } else {
                let specials: &[f64] = match special {
                    0 => &[],
                    1 => &[0.0, -0.0],
                    _ => &[f64::INFINITY, -0.0, 0.0],
                };
                (
                    (0..n).map(|_| entry(&mut rng, &[])).collect(),
                    (0..=n).map(|_| entry(&mut rng, specials)).collect(),
                    (0..=n).map(|_| entry(&mut rng, specials)).collect(),
                    entry(&mut rng, specials),
                )
            };
            let (mut minv_w, mut way_w) = (minv.clone(), way.clone());
            let (mut minv_s, mut way_s) = (minv, way);
            let (dw, jw) = scan_columns(true, &row, ui0, &v, &used, &mut minv_w, &mut way_w, j0);
            let (ds, js) = scan_columns(false, &row, ui0, &v, &used, &mut minv_s, &mut way_s, j0);
            prop_assert_eq!((jw, dw.to_bits()), (js, ds.to_bits()));
            let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&minv_w), bits(&minv_s));
            prop_assert_eq!(way_w, way_s);
        }

        #[test]
        fn wide_solves_match_scalar_on_tied_integer_costs(n in 1usize..41, range in 1u64..6, seed in 0..u64::MAX) {
            if !crate::wide_or_skip_note() {
                return Ok(());
            }
            let mut rng = sops_math::SplitMix64::new(seed);
            let costs: Vec<f64> = (0..n * n).map(|_| (rng.next_u64() % range) as f64).collect();
            let (mut wide, mut scalar) = (Vec::new(), Vec::new());
            let cw = solve(&mut HungarianScratch::new(), n, &costs, &mut wide, true);
            let cs = solve(&mut HungarianScratch::new(), n, &costs, &mut scalar, false);
            prop_assert_eq!(wide, scalar, "n {}", n);
            prop_assert_eq!(cw.to_bits(), cs.to_bits(), "n {}", n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_brute_force(n in 1..7usize, seed in 0..u64::MAX) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let costs: Vec<f64> = (0..n * n).map(|_| rng.next_range(-10.0, 10.0)).collect();
            let (_, fast) = hungarian(n, &costs);
            let (_, slow) = brute_force_assignment(n, &costs);
            prop_assert!((fast - slow).abs() < 1e-9, "hungarian {fast} vs brute {slow}");
        }

        #[test]
        fn cost_no_worse_than_identity_and_reversal(n in 2..12usize, seed in 0..u64::MAX) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let costs: Vec<f64> = (0..n * n).map(|_| rng.next_range(0.0, 50.0)).collect();
            let (_, best) = hungarian(n, &costs);
            let identity: f64 = (0..n).map(|i| costs[i * n + i]).sum();
            let reversal: f64 = (0..n).map(|i| costs[i * n + (n - 1 - i)]).sum();
            prop_assert!(best <= identity + 1e-9);
            prop_assert!(best <= reversal + 1e-9);
        }
    }
}
