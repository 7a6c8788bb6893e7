//! Type-aware Iterative Closest Point alignment (paper §5.2).
//!
//! Aligns a *moving* configuration onto a *reference* configuration of the
//! same particle system by alternating nearest-neighbour correspondence
//! search with closed-form rigid fits. Correspondences are restricted to
//! particles of the same type — the paper achieved this by embedding the
//! type as a third coordinate scaled "a magnitude larger than the diameter
//! of the collective", which makes cross-type matches impossible; scanning
//! only the same-type reference points is the same thing without the
//! embedding.
//!
//! ICP only converges to the nearest local optimum in rotation, so the
//! alignment is restarted from several initial rotation angles and the
//! lowest-cost result wins. The restart count is an ablation knob
//! (`icp_restarts` bench).
//!
//! # Kernel
//!
//! The correspondence search is a flat scan over per-type SoA coordinate
//! lanes: strict `<` in type-local (= ascending global index) order picks
//! the canonical `(distance, index)` minimum, the same point a
//! tie-canonical kd-tree returns, and the scanned squared distance is the
//! pass cost term. On a CPU with AVX-512 ([`sops_math::wide_available`],
//! probed once per alignment) the scan runs eight points at a time
//! without the running minimum's data-dependent branch and returns the
//! same `(index, d²)` bits; the scalar loop is the fallback elsewhere,
//! and the unit tests run the two side by side.
//!
//! The scan is linear in the type's size where a tree query is
//! logarithmic. Timed as whole alignments against the per-type kd-tree
//! kernel on the `reduce` bench fixture (2-vCPU AVX-512 host), the
//! eight-lane scan wins 3.8× at 20 points per type, 3.7× at 96, 2.8× at
//! 128 and 2.0× at 256, and breaks even near 768; the scalar scan wins
//! 2.1× at 20, breaks even near 96 and loses 1.6× at 128. Every shipped
//! full-mode reduction stays at or below 40 per type — the builtin
//! scenarios 20, full-scale Fig. 8 40 — and the 10⁵-particle tier
//! reduces in `Centred` mode without ICP, so the scan is the only path.
//!
//! A restart also ends at a *fixed point*: once a pass selects the same
//! correspondences as the pass before, the refit reproduces the current
//! transform bit for bit, so every later pass would repeat this one. The
//! repeat pass's outcome (its convergence test, `iterations`, `cost`,
//! transform) is then known without running it. Both shortcuts leave
//! every result bit-identical to the pass-by-pass kd-tree loop
//! (`crates/sops-shape/tests/workspace_shape.rs` pins this against a
//! frozen copy of it).

use crate::kabsch::{fit_rigid, RigidTransform};
use sops_math::Vec2;

/// ICP parameters.
#[derive(Debug, Clone, Copy)]
pub struct IcpConfig {
    /// Maximum correspondence/fit iterations per restart.
    pub max_iterations: usize,
    /// Stop when the mean squared correspondence cost improves by less
    /// than this relative amount between iterations.
    pub tolerance: f64,
    /// Number of evenly spaced initial rotation angles tried.
    pub restarts: usize,
}

impl Default for IcpConfig {
    fn default() -> Self {
        IcpConfig {
            max_iterations: 40,
            tolerance: 1e-9,
            restarts: 8,
        }
    }
}

/// Outcome of an alignment.
#[derive(Debug, Clone, Copy)]
pub struct IcpResult {
    /// Transform mapping the original moving configuration onto the
    /// reference.
    pub transform: RigidTransform,
    /// Final mean squared nearest-neighbour distance.
    pub cost: f64,
    /// Iterations used by the winning restart.
    pub iterations: usize,
}

/// The centred reference points of one type as SoA coordinate lanes, in
/// ascending global-index order.
#[derive(Debug, Clone, Default)]
struct TypeLane {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl TypeLane {
    /// Type-local index and squared distance of the point nearest to `p`:
    /// the first minimum in lane order, i.e. the smallest index among
    /// exact ties, kept by a strict-`<` running minimum. `wide`
    /// ([`sops_math::wide_available`], probed once per alignment) selects
    /// the AVX-512 scan, which returns the same bits.
    #[inline]
    fn nearest(&self, p: Vec2, wide: bool) -> (usize, f64) {
        let xs = &self.x[..];
        let ys = &self.y[..xs.len()];
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` certifies the target features, and the lanes
            // have equal lengths; `nearest` reads point 0 first, so an
            // empty lane panics as the scalar scan does.
            return unsafe { x86::nearest(xs, ys, p) };
        }
        let _ = wide;
        let dist_sq = |j: usize| {
            let (dx, dy) = (p.x - xs[j], p.y - ys[j]);
            dx * dx + dy * dy
        };
        let mut best = (0, dist_sq(0));
        for j in 1..xs.len() {
            let d = dist_sq(j);
            if d < best.1 {
                best = (j, d);
            }
        }
        best
    }
}

/// The AVX-512 correspondence scan.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;
    use sops_math::Vec2;

    /// [`super::TypeLane::nearest`]'s scalar scan, eight lanes at a time.
    /// Lane `k` keeps a strict-`<` running minimum of the points
    /// `j ≡ k (mod 8)` with its index, the last partial block under a
    /// mask; the answer is the smallest index among the lanes holding the
    /// overall minimum — the scalar loop's first minimum. `d²` uses
    /// separate multiplies and an add (never FMA), so every distance has
    /// the scalar rounding, and it is never `−0`, so lanes that hold the
    /// minimum hold the same bits. The lanes start at +∞ and skip NaN
    /// (`<` is false); a NaN at index 0, where the scalar loop starts,
    /// returns `(0, NaN)` as it does, and a scan with nothing below +∞
    /// returns index 0.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`]; `xs` and
    /// `ys` have the same length.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn nearest(xs: &[f64], ys: &[f64], p: Vec2) -> (usize, f64) {
        let n = xs.len();
        let (dx, dy) = (p.x - xs[0], p.y - ys[0]);
        let first = dx * dx + dy * dy;
        if first.is_nan() {
            return (0, first);
        }
        let (px, py) = (_mm512_set1_pd(p.x), _mm512_set1_pd(p.y));
        let mut best = _mm512_set1_pd(f64::INFINITY);
        let mut best_j = _mm512_setzero_si512();
        let mut js = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        let eight = _mm512_set1_epi64(8);
        let mut j = 0;
        while j < n {
            let live: __mmask8 = if n - j >= 8 {
                0xff
            } else {
                (1u8 << (n - j)) - 1
            };
            let x = _mm512_maskz_loadu_pd(live, xs.as_ptr().add(j));
            let y = _mm512_maskz_loadu_pd(live, ys.as_ptr().add(j));
            let dx = _mm512_sub_pd(px, x);
            let dy = _mm512_sub_pd(py, y);
            let d = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
            let lower = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(live, d, best);
            best = _mm512_mask_mov_pd(best, lower, d);
            best_j = _mm512_mask_mov_epi64(best_j, lower, js);
            js = _mm512_add_epi64(js, eight);
            j += 8;
        }
        let min = _mm512_reduce_min_pd(best);
        if min == f64::INFINITY {
            // Nothing below +∞, so `first` is +∞ and index 0 stands.
            return (0, first);
        }
        let holders = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(best, _mm512_set1_pd(min));
        (_mm512_mask_reduce_min_epi64(holders, best_j) as usize, min)
    }
}

/// Reusable buffers for [`icp_align_with`]: the centred moving points,
/// the per-type reference lanes, and the correspondence targets and
/// indices of the current pass. One alignment runs `restarts × iterations`
/// correspondence passes over the same lanes — and the reduction loop
/// runs one alignment per sample per evaluated time step, so the eval
/// workers hold this scratch in a [`crate::ensemble::ReduceWorkspace`].
#[derive(Debug, Clone, Default)]
pub struct IcpScratch {
    mov_c: Vec<Vec2>,
    lanes: Vec<TypeLane>,
    targets: Vec<Vec2>,
    matches: Vec<u32>,
}

impl IcpScratch {
    /// Empty scratch; buffers grow to the workload size on first use.
    pub fn new() -> Self {
        IcpScratch::default()
    }

    /// Capacities of the internal buffers (zero-allocation contract).
    pub(crate) fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.mov_c.capacity());
        sig.push(self.targets.capacity());
        sig.push(self.matches.capacity());
        sig.push(self.lanes.capacity());
        for lane in &self.lanes {
            sig.push(lane.x.capacity());
            sig.push(lane.y.capacity());
        }
    }
}

/// Aligns `moving` onto `reference` with caller-provided scratch — the
/// allocation-free form; `types[i]` is particle `i`'s type in *both*
/// configurations (they are states of the same system).
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or a type id has no
/// particles in the reference.
pub fn icp_align_with(
    scratch: &mut IcpScratch,
    reference: &[Vec2],
    moving: &[Vec2],
    types: &[u16],
    cfg: &IcpConfig,
) -> IcpResult {
    assert_eq!(reference.len(), moving.len(), "icp_align: size mismatch");
    assert_eq!(reference.len(), types.len(), "icp_align: types mismatch");
    assert!(!reference.is_empty(), "icp_align: empty configurations");
    assert!(cfg.restarts >= 1 && cfg.max_iterations >= 1);

    let type_count = types.iter().map(|&t| t as usize + 1).max().unwrap_or(1);
    let wide = sops_math::wide_available();
    // Work in centred frames; the centring translations are composed back
    // into the final transform.
    let ref_centroid = Vec2::centroid(reference);
    let mov_centroid = Vec2::centroid(moving);
    let IcpScratch {
        mov_c,
        lanes,
        targets,
        matches,
    } = scratch;
    mov_c.clear();
    mov_c.extend(moving.iter().map(|&p| p - mov_centroid));
    lanes.resize_with(lanes.len().max(type_count), TypeLane::default);
    for lane in lanes.iter_mut() {
        lane.x.clear();
        lane.y.clear();
    }
    for (&p, &t) in reference.iter().zip(types) {
        let p = p - ref_centroid;
        lanes[t as usize].x.push(p.x);
        lanes[t as usize].y.push(p.y);
    }
    targets.clear();
    targets.resize(mov_c.len(), Vec2::ZERO);
    matches.clear();
    matches.resize(mov_c.len(), 0);

    // The per-pass stopping rule: relative cost improvement at most
    // `tolerance`.
    let converged = |prev: f64, cost: f64| prev - cost <= cfg.tolerance * prev;
    let mut best: Option<IcpResult> = None;
    for restart in 0..cfg.restarts {
        let angle = std::f64::consts::TAU * restart as f64 / cfg.restarts as f64;
        let mut t = RigidTransform::rotation(angle);
        let mut prev_cost = f64::INFINITY;
        let mut cost = f64::INFINITY;
        let mut iterations = 0;
        for it in 0..cfg.max_iterations {
            iterations = it + 1;
            // Correspondence phase: measure the cost of the current
            // transform and collect same-type nearest-neighbour targets.
            let mut acc = 0.0;
            let mut rematched = false;
            for (i, (&p, &ty)) in mov_c.iter().zip(types).enumerate() {
                let lane = &lanes[ty as usize];
                let (j, d) = lane.nearest(t.apply(p), wide);
                rematched |= matches[i] != j as u32;
                matches[i] = j as u32;
                targets[i] = Vec2::new(lane.x[j], lane.y[j]);
                acc += d;
            }
            cost = acc / mov_c.len() as f64;
            if it > 0 && converged(prev_cost, cost) {
                break; // `cost` belongs to the current `t`
            }
            if it > 0 && !rematched {
                // Fixed point: the refit would return `t` bit for bit, so
                // the next pass repeats this one and its convergence test
                // compares `cost` with itself. It stops there if that test
                // passes; otherwise every pass up to the cap repeats.
                iterations = if converged(cost, cost) {
                    (it + 2).min(cfg.max_iterations)
                } else {
                    cfg.max_iterations
                };
                break;
            }
            prev_cost = cost;
            // Fit phase: refit from the *original* moving points to the
            // current targets (avoids compounding numerical drift).
            t = fit_rigid(mov_c, targets);
        }
        let candidate = IcpResult {
            transform: t,
            cost,
            iterations,
        };
        if best.is_none_or(|b| candidate.cost < b.cost) {
            best = Some(candidate);
        }
    }
    let mut result = best.expect("icp_align: at least one restart ran");
    // Compose: x ↦ T(x − mov_centroid) + ref_centroid.
    let centring = RigidTransform::translation(-mov_centroid);
    let uncentring = RigidTransform::translation(ref_centroid);
    result.transform = uncentring.compose(&result.transform.compose(&centring));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    /// One alignment on a fresh scratch.
    fn icp_align_fresh(
        reference: &[Vec2],
        moving: &[Vec2],
        types: &[u16],
        cfg: &IcpConfig,
    ) -> IcpResult {
        icp_align_with(&mut IcpScratch::new(), reference, moving, types, cfg)
    }

    /// An asymmetric single-type cloud (no rotational symmetry, so the
    /// alignment optimum is unique).
    fn cloud() -> Vec<Vec2> {
        vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(3.0, 1.0),
            Vec2::new(-1.0, 2.5),
            Vec2::new(0.5, -1.5),
            Vec2::new(-2.0, -0.5),
        ]
    }

    #[test]
    fn aligns_rotated_copy_exactly() {
        let reference = cloud();
        let types = vec![0u16; reference.len()];
        let truth = RigidTransform {
            rotation: 2.1,
            translation: Vec2::new(5.0, -3.0),
        };
        // moving = truth^{-1}(reference): aligning moving back should find
        // a zero-cost transform.
        let moving: Vec<Vec2> = reference
            .iter()
            .map(|&p| truth.inverse().apply(p))
            .collect();
        let res = icp_align_fresh(&reference, &moving, &types, &IcpConfig::default());
        assert!(res.cost < 1e-18, "cost {}", res.cost);
        for (&m, &r) in moving.iter().zip(&reference) {
            assert!((res.transform.apply(m) - r).norm() < 1e-9);
        }
    }

    #[test]
    fn restarts_escape_large_rotations() {
        // A single ICP run from angle 0 gets stuck for a near-π rotation of
        // an elongated cloud; restarts must recover it.
        let reference = cloud();
        let types = vec![0u16; reference.len()];
        let truth = RigidTransform::rotation(PI * 0.95);
        let moving: Vec<Vec2> = reference
            .iter()
            .map(|&p| truth.inverse().apply(p))
            .collect();

        let no_restart = icp_align_fresh(
            &reference,
            &moving,
            &types,
            &IcpConfig {
                restarts: 1,
                ..IcpConfig::default()
            },
        );
        let with_restarts = icp_align_fresh(&reference, &moving, &types, &IcpConfig::default());
        assert!(with_restarts.cost < 1e-12);
        assert!(with_restarts.cost <= no_restart.cost);
    }

    #[test]
    fn types_prevent_cross_type_matching() {
        // Two types whose point clouds would align wrongly if types were
        // ignored: a type-0 pair and a type-1 pair arranged in a square so
        // the typeless optimum is a 90° rotation but the typed optimum is
        // identity.
        let reference = vec![
            Vec2::new(1.0, 0.0),
            Vec2::new(-1.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(0.0, -1.0),
        ];
        let types = vec![0u16, 0, 1, 1];
        // moving: slightly perturbed reference.
        let moving: Vec<Vec2> = reference
            .iter()
            .map(|&p| p + Vec2::new(0.01, -0.01))
            .collect();
        let res = icp_align_fresh(&reference, &moving, &types, &IcpConfig::default());
        // Rotation must be near 0, not near ±π/2 (which cross-type
        // matching would prefer equally).
        let wrapped = res.rotation_normalized();
        assert!(
            wrapped.abs() < 0.2,
            "typed alignment should be near identity, got {wrapped}"
        );
    }

    impl IcpResult {
        /// Rotation wrapped to (−π, π] for test assertions.
        fn rotation_normalized(&self) -> f64 {
            let mut a = self.transform.rotation % std::f64::consts::TAU;
            if a > PI {
                a -= std::f64::consts::TAU;
            }
            if a <= -PI {
                a += std::f64::consts::TAU;
            }
            a
        }
    }

    #[test]
    fn noisy_alignment_has_bounded_cost() {
        let reference = cloud();
        let types = vec![0u16; reference.len()];
        let mut rng = sops_math::SplitMix64::new(77);
        let truth = RigidTransform::rotation(1.0);
        let moving: Vec<Vec2> = reference
            .iter()
            .map(|&p| {
                truth.inverse().apply(p)
                    + Vec2::new(rng.next_range(-0.05, 0.05), rng.next_range(-0.05, 0.05))
            })
            .collect();
        let res = icp_align_fresh(&reference, &moving, &types, &IcpConfig::default());
        assert!(res.cost < 0.01, "cost {} too high for 0.05 noise", res.cost);
    }

    #[test]
    fn single_particle_alignment() {
        let res = icp_align_fresh(
            &[Vec2::new(3.0, 4.0)],
            &[Vec2::new(-1.0, 2.0)],
            &[0],
            &IcpConfig::default(),
        );
        assert!((res.transform.apply(Vec2::new(-1.0, 2.0)) - Vec2::new(3.0, 4.0)).norm() < 1e-12);
        assert!(res.cost < 1e-20);
    }

    /// A coordinate on a coarse grid (so exact duplicate points and tied
    /// distances are common), or now and then one of `specials`.
    fn coord(rng: &mut sops_math::SplitMix64, specials: &[f64]) -> f64 {
        let r = rng.next_u64();
        if !specials.is_empty() && r.is_multiple_of(8) {
            specials[(r >> 3) as usize % specials.len()]
        } else {
            ((r >> 8) % 7) as f64 * 0.5 - 1.5
        }
    }

    /// Asserts that both scans pick the same `(index, d²)`, bit for bit.
    fn assert_scans_agree(lane: &TypeLane, p: Vec2) {
        let (jw, dw) = lane.nearest(p, true);
        let (js, ds) = lane.nearest(p, false);
        assert_eq!(
            (jw, dw.to_bits()),
            (js, ds.to_bits()),
            "{} points, query {p:?}",
            lane.x.len()
        );
    }

    #[test]
    fn wide_nearest_matches_scalar_at_every_tail_width() {
        if !crate::wide_or_skip_note() {
            return;
        }
        let mut rng = sops_math::SplitMix64::new(11);
        for n in 1..=70 {
            let mut lane = TypeLane::default();
            for _ in 0..n {
                lane.x.push(coord(&mut rng, &[]));
                lane.y.push(coord(&mut rng, &[]));
            }
            let queries = [
                Vec2::new(0.2, -0.4),
                Vec2::new(-0.0, 0.0),
                Vec2::new(1.5, 1.5),
            ];
            for nan_at in [None, Some(0), Some(n / 2), Some(n - 1)] {
                let mut lane = lane.clone();
                if let Some(j) = nan_at {
                    lane.y[j] = f64::NAN;
                }
                for &p in &queries {
                    assert_scans_agree(&lane, p);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wide_nearest_matches_scalar(
            n in 1usize..71,
            special in 0usize..4,
            nan_at in 0usize..140,
            seed in 0..u64::MAX,
        ) {
            if !crate::wide_or_skip_note() {
                return Ok(());
            }
            let specials: &[f64] = match special {
                0 => &[],
                1 => &[0.0, -0.0],
                2 => &[f64::INFINITY, f64::NEG_INFINITY, -0.0],
                _ => &[f64::NAN, f64::INFINITY, -0.0],
            };
            let mut rng = sops_math::SplitMix64::new(seed);
            let mut lane = TypeLane::default();
            for _ in 0..n {
                lane.x.push(coord(&mut rng, specials));
                lane.y.push(coord(&mut rng, specials));
            }
            // Half the cases put a NaN point in the lane, index 0 included.
            if nan_at < 70 {
                lane.x[nan_at % n] = f64::NAN;
            }
            for _ in 0..8 {
                assert_scans_agree(&lane, Vec2::new(coord(&mut rng, specials), coord(&mut rng, specials)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn random_rigid_motions_recovered(angle in -PI..PI, tx in -5.0..5.0f64, ty in -5.0..5.0f64, seed in 0..u64::MAX) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let reference: Vec<Vec2> = (0..15)
                .map(|_| Vec2::new(rng.next_range(-4.0, 4.0), rng.next_range(-4.0, 4.0)))
                .collect();
            let types: Vec<u16> = (0..15).map(|i| (i % 3) as u16).collect();
            let truth = RigidTransform { rotation: angle, translation: Vec2::new(tx, ty) };
            let moving: Vec<Vec2> = reference.iter().map(|&p| truth.inverse().apply(p)).collect();
            let res = icp_align_fresh(&reference, &moving, &types, &IcpConfig::default());
            prop_assert!(res.cost < 1e-10, "cost {}", res.cost);
        }
    }
}
