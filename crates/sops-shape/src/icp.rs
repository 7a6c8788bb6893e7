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
//! The correspondence search scans flat per-type SoA coordinate lanes:
//! each moving point keeps a strict-`<` running minimum from index 0 over
//! its type's reference points in type-local (= ascending global index)
//! order, which picks the canonical `(distance, index)` minimum, the same
//! point a tie-canonical kd-tree returns, and the scanned squared distance
//! is the pass cost term.
//!
//! The vector lanes hold *queries*, not candidates ("query lanes"). On a
//! CPU with AVX-512 ([`sops_math::wide_available`], probed once per
//! alignment) a pass takes a type's moving points 32 at a time, in four
//! interleaved groups of eight lanes, maps them through the pass transform
//! lane by lane, and broadcasts the type's reference points to them one at
//! a time. Each lane keeps its own running minimum, so there is no
//! horizontal reduction, and each lane's `(index, d²)` has the bits of the
//! scalar loop, which is the fallback on other CPUs and the unit tests'
//! reference. The pass cost and the fit targets are then folded in global
//! point order.
//!
//! The scan is linear in the type's size where a tree query is
//! logarithmic. Timed as whole alignments against the frozen per-type
//! kd-tree kernel on the `reduce` bench fixture (2 types, 2-vCPU AVX-512
//! host), the query lanes win 7.7–8.6× at 20 points per type, 5.1–5.5×
//! at 128, 2.1–2.2× at 512 and 1.4–1.7× at 1,024, and lose at 2,048
//! (0.78–0.93×); the scalar scan wins 2.3–2.7× at 20 and 1.2–1.5× at 64
//! and loses at 128 (0.69–0.78×). Every shipped full-mode reduction stays
//! at or below 40 per type — the builtin scenarios 20, full-scale Fig. 8
//! 40 — and the 10⁵-particle tier reduces in `Centred` mode without ICP,
//! so the scan is the only path.
//!
//! A restart also ends at a *fixed point*: once a pass selects the same
//! correspondences as the pass before, the refit reproduces the current
//! transform bit for bit, so every later pass would repeat this one. The
//! repeat pass's outcome (its convergence test, `iterations`, `cost`,
//! transform) is then known without running it. Both shortcuts leave
//! every result bit-identical to the pass-by-pass kd-tree loop
//! (`crates/sops-shape/tests/workspace_shape.rs` pins this against a
//! frozen copy of it).

use crate::kabsch::{fit_rigid_about, rotate, RigidTransform};
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

/// One type's points as SoA coordinate lanes, in ascending global-index
/// order.
#[derive(Debug, Clone, Copy)]
struct TypeLane<'a> {
    x: &'a [f64],
    y: &'a [f64],
}

impl TypeLane<'_> {
    /// Type-local index and squared distance of the point nearest to `p`:
    /// the first minimum in lane order, i.e. the smallest index among
    /// exact ties, kept by a strict-`<` running minimum.
    #[inline]
    fn nearest(self, p: Vec2) -> (usize, f64) {
        let xs = self.x;
        let ys = &self.y[..xs.len()];
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

/// A pass transform `p ↦ R(θ) p + shift`, carrying `θ.sin_cos()` so a
/// pass computes it once rather than once per point.
#[derive(Debug, Clone, Copy)]
struct Pose {
    sin_cos: (f64, f64),
    shift: Vec2,
}

impl Pose {
    /// [`RigidTransform::apply`]'s operations, so its bits.
    #[inline]
    fn apply(self, p: Vec2) -> Vec2 {
        rotate(p, self.sin_cos) + self.shift
    }
}

/// For every query `k`, [`TypeLane::nearest`] of `pose.apply(query k)` in
/// `lane`, written to `hit_j[k]` and `hit_d[k]`. `wide`
/// ([`sops_math::wide_available`]) selects the AVX-512 query lanes, which
/// return the same bits.
fn nearest_all(
    lane: TypeLane<'_>,
    queries: TypeLane<'_>,
    pose: Pose,
    wide: bool,
    hit_j: &mut [u32],
    hit_d: &mut [f64],
) {
    let n = queries.x.len();
    let queries = TypeLane {
        x: queries.x,
        y: &queries.y[..n],
    };
    let (hit_j, hit_d) = (&mut hit_j[..n], &mut hit_d[..n]);
    #[cfg(target_arch = "x86_64")]
    if wide {
        // SAFETY: `wide` certifies the target features, and the query and
        // output slices have been cut to `n` entries; the kernel reads
        // reference point 0 first, so an empty lane panics as the scalar
        // scan does.
        unsafe { x86::nearest_all(lane, queries, pose, hit_j, hit_d) };
        return;
    }
    let _ = wide;
    for k in 0..n {
        let (j, d) = lane.nearest(pose.apply(Vec2::new(queries.x[k], queries.y[k])));
        hit_j[k] = j as u32;
        hit_d[k] = d;
    }
}

/// The AVX-512 query lanes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Pose, TypeLane};
    use core::arch::x86_64::*;

    /// [`super::nearest_all`]'s scalar loop, 32 queries per block. A block
    /// runs only the 8-lane groups it needs, and masks the last one's
    /// tail.
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`]; `queries.y`,
    /// `hit_j` and `hit_d` have `queries.x.len()` entries.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn nearest_all(
        lane: TypeLane<'_>,
        queries: TypeLane<'_>,
        pose: Pose,
        hit_j: &mut [u32],
        hit_d: &mut [f64],
    ) {
        let n = queries.x.len();
        for k in (0..n).step_by(32) {
            let end = n.min(k + 32);
            let q = TypeLane {
                x: &queries.x[k..end],
                y: &queries.y[k..end],
            };
            let (j, d) = (&mut hit_j[k..end], &mut hit_d[k..end]);
            match (end - k).div_ceil(8) {
                1 => block::<1>(lane, q, pose, j, d),
                2 => block::<2>(lane, q, pose, j, d),
                3 => block::<3>(lane, q, pose, j, d),
                _ => block::<4>(lane, q, pose, j, d),
            }
        }
    }

    /// One block of `live = q.x.len()` queries (`8G − 8 < live ≤ 8G`) in
    /// `G` groups of eight lanes. Each lane maps its query to
    /// `(c·x − s·y) + tx`, `(s·x + c·y) + ty` and takes `d²` to every
    /// reference point, all with separate multiplies and adds (never FMA),
    /// so each value has the scalar rounding. The running minimum starts
    /// at reference point 0 and moves only on `d² < best` (`_CMP_LT_OQ`,
    /// false when either side is NaN), the scalar loop's rule: a NaN at
    /// index 0 keeps index 0, and later NaNs never win.
    ///
    /// # Safety
    ///
    /// As [`nearest_all`], with `q.y`, `hit_j` and `hit_d` of `live`
    /// entries.
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn block<const G: usize>(
        lane: TypeLane<'_>,
        q: TypeLane<'_>,
        pose: Pose,
        hit_j: &mut [u32],
        hit_d: &mut [f64],
    ) {
        let (xs, ys) = (lane.x, &lane.y[..lane.x.len()]);
        let (s, c) = pose.sin_cos;
        let (s, c) = (_mm512_set1_pd(s), _mm512_set1_pd(c));
        let (tx, ty) = (_mm512_set1_pd(pose.shift.x), _mm512_set1_pd(pose.shift.y));
        let mut masks = [0xff as __mmask8; G];
        masks[G - 1] = (0xffu16 >> (8 * G - q.x.len())) as __mmask8;
        let mut px = [_mm512_setzero_pd(); G];
        let mut py = [_mm512_setzero_pd(); G];
        for g in 0..G {
            let x = _mm512_maskz_loadu_pd(masks[g], q.x.as_ptr().add(8 * g));
            let y = _mm512_maskz_loadu_pd(masks[g], q.y.as_ptr().add(8 * g));
            let rx = _mm512_sub_pd(_mm512_mul_pd(c, x), _mm512_mul_pd(s, y));
            let ry = _mm512_add_pd(_mm512_mul_pd(s, x), _mm512_mul_pd(c, y));
            px[g] = _mm512_add_pd(rx, tx);
            py[g] = _mm512_add_pd(ry, ty);
        }
        let (x0, y0) = (_mm512_set1_pd(xs[0]), _mm512_set1_pd(ys[0]));
        let mut best = [_mm512_setzero_pd(); G];
        for g in 0..G {
            let dx = _mm512_sub_pd(px[g], x0);
            let dy = _mm512_sub_pd(py[g], y0);
            best[g] = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
        }
        let mut best_j = [_mm256_setzero_si256(); G];
        for j in 1..xs.len() {
            let (xj, yj) = (_mm512_set1_pd(xs[j]), _mm512_set1_pd(ys[j]));
            let jv = _mm256_set1_epi32(j as i32);
            for g in 0..G {
                let dx = _mm512_sub_pd(px[g], xj);
                let dy = _mm512_sub_pd(py[g], yj);
                let d = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
                let lower = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, best[g]);
                best[g] = _mm512_mask_mov_pd(best[g], lower, d);
                best_j[g] = _mm256_mask_mov_epi32(best_j[g], lower, jv);
            }
        }
        for g in 0..G {
            _mm512_mask_storeu_pd(hit_d.as_mut_ptr().add(8 * g), masks[g], best[g]);
            let out = hit_j.as_mut_ptr().add(8 * g).cast();
            _mm256_mask_storeu_epi32(out, masks[g], best_j[g]);
        }
    }
}

/// Reusable buffers for [`icp_align_with`]: the centred moving points,
/// both centred configurations regrouped by type as SoA lanes, and the
/// per-pass correspondences. One alignment runs `restarts × iterations`
/// correspondence passes over the same lanes — and the reduction loop
/// runs one alignment per sample per evaluated time step, so the eval
/// workers hold this scratch in a [`crate::ensemble::ReduceWorkspace`].
#[derive(Debug, Clone, Default)]
pub struct IcpScratch {
    /// Centred moving points in global order (the fit's input).
    mov_c: Vec<Vec2>,
    /// Centred reference (`ref_*`) and moving (`mov_*`) coordinates
    /// grouped by type, each type's points in ascending global order;
    /// type `t` spans `starts[t]..starts[t + 1]` in both.
    ref_x: Vec<f64>,
    ref_y: Vec<f64>,
    mov_x: Vec<f64>,
    mov_y: Vec<f64>,
    starts: Vec<usize>,
    /// `slot[i]`: moving point `i`'s position in the grouped lanes.
    slot: Vec<u32>,
    /// Per grouped moving point, the type-local index and squared
    /// distance of its nearest reference point in the current pass.
    hit_j: Vec<u32>,
    hit_d: Vec<f64>,
    /// Per moving point (global order), the current pass's target and
    /// type-local match.
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
        sig.extend([
            self.mov_c.capacity(),
            self.ref_x.capacity(),
            self.ref_y.capacity(),
            self.mov_x.capacity(),
            self.mov_y.capacity(),
            self.starts.capacity(),
            self.slot.capacity(),
            self.hit_j.capacity(),
            self.hit_d.capacity(),
            self.targets.capacity(),
            self.matches.capacity(),
        ]);
    }

    /// Regroups both centred configurations by type (see the fields).
    fn group(&mut self, reference: &[Vec2], ref_centroid: Vec2, types: &[u16], type_count: usize) {
        let IcpScratch {
            mov_c,
            ref_x,
            ref_y,
            mov_x,
            mov_y,
            starts,
            slot,
            ..
        } = self;
        for buf in [&mut *ref_x, ref_y, mov_x, mov_y] {
            buf.clear();
        }
        starts.clear();
        slot.clear();
        slot.resize(types.len(), 0);
        for t in 0..type_count {
            starts.push(ref_x.len());
            for (i, &ty) in types.iter().enumerate() {
                if ty as usize == t {
                    let p = reference[i] - ref_centroid;
                    slot[i] = ref_x.len() as u32;
                    ref_x.push(p.x);
                    ref_y.push(p.y);
                    mov_x.push(mov_c[i].x);
                    mov_y.push(mov_c[i].y);
                }
            }
        }
        starts.push(ref_x.len());
    }

    /// One correspondence pass under `pose`: every moving point's nearest
    /// same-type reference point into `hit_j`/`hit_d`.
    fn correspond(&mut self, pose: Pose, wide: bool) {
        let IcpScratch {
            ref_x,
            ref_y,
            mov_x,
            mov_y,
            starts,
            hit_j,
            hit_d,
            ..
        } = self;
        hit_j.resize(mov_x.len(), 0);
        hit_d.resize(mov_x.len(), 0.0);
        for span in starts.windows(2) {
            let (lo, hi) = (span[0], span[1]);
            if lo == hi {
                continue;
            }
            let lane = TypeLane {
                x: &ref_x[lo..hi],
                y: &ref_y[lo..hi],
            };
            let queries = TypeLane {
                x: &mov_x[lo..hi],
                y: &mov_y[lo..hi],
            };
            nearest_all(
                lane,
                queries,
                pose,
                wide,
                &mut hit_j[lo..hi],
                &mut hit_d[lo..hi],
            );
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
    scratch.mov_c.clear();
    scratch
        .mov_c
        .extend(moving.iter().map(|&p| p - mov_centroid));
    scratch.group(reference, ref_centroid, types, type_count);
    // Every fit refits the same centred moving points: their centroid
    // (close to, but not exactly, zero) is computed once.
    let fit_centroid = Vec2::centroid(&scratch.mov_c);
    let n = moving.len();
    scratch.targets.clear();
    scratch.targets.resize(n, Vec2::ZERO);
    scratch.matches.clear();
    scratch.matches.resize(n, 0);

    // The per-pass stopping rule: relative cost improvement at most
    // `tolerance`.
    let converged = |prev: f64, cost: f64| prev - cost <= cfg.tolerance * prev;
    let mut best: Option<IcpResult> = None;
    for restart in 0..cfg.restarts {
        let angle = std::f64::consts::TAU * restart as f64 / cfg.restarts as f64;
        let mut t = RigidTransform::rotation(angle);
        let mut sin_cos = angle.sin_cos();
        let mut prev_cost = f64::INFINITY;
        let mut cost = f64::INFINITY;
        let mut iterations = 0;
        for it in 0..cfg.max_iterations {
            iterations = it + 1;
            // Correspondence phase: measure the cost of the current
            // transform and collect same-type nearest-neighbour targets,
            // folded in global point order.
            let pose = Pose {
                sin_cos,
                shift: t.translation,
            };
            scratch.correspond(pose, wide);
            let IcpScratch {
                ref_x,
                ref_y,
                starts,
                slot,
                hit_j,
                hit_d,
                targets,
                matches,
                ..
            } = &mut *scratch;
            let mut acc = 0.0;
            let mut rematched = false;
            for (i, (&at, &ty)) in slot.iter().zip(types).enumerate() {
                let (j, d) = (hit_j[at as usize], hit_d[at as usize]);
                rematched |= matches[i] != j;
                matches[i] = j;
                let k = starts[ty as usize] + j as usize;
                targets[i] = Vec2::new(ref_x[k], ref_y[k]);
                acc += d;
            }
            cost = acc / n as f64;
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
            (t, sin_cos) = fit_rigid_about(&scratch.mov_c, fit_centroid, &scratch.targets);
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

    /// Asserts that the query lanes (and the scalar form of
    /// [`nearest_all`]) return, for every query, the `(index, d²)` bits of
    /// `lane.nearest(t.apply(p))`. Rust leaves the sign and payload of a
    /// NaN result unspecified (the compiler may commute an add, and the
    /// operand order picks which NaN survives), so any NaN `d²` matches
    /// any other; every other value compares bit for bit.
    fn assert_lanes_agree(lane_x: &[f64], lane_y: &[f64], queries: &[Vec2], t: &RigidTransform) {
        let lane = TypeLane {
            x: lane_x,
            y: lane_y,
        };
        let qx: Vec<f64> = queries.iter().map(|p| p.x).collect();
        let qy: Vec<f64> = queries.iter().map(|p| p.y).collect();
        let pose = Pose {
            sin_cos: t.rotation.sin_cos(),
            shift: t.translation,
        };
        for wide in [true, false] {
            let mut hit_j = vec![u32::MAX; queries.len()];
            let mut hit_d = vec![f64::MIN; queries.len()];
            let q = TypeLane { x: &qx, y: &qy };
            nearest_all(lane, q, pose, wide, &mut hit_j, &mut hit_d);
            let bits = |d: f64| if d.is_nan() { f64::NAN } else { d }.to_bits();
            for (k, &p) in queries.iter().enumerate() {
                let (j, d) = lane.nearest(t.apply(p));
                assert_eq!(
                    (hit_j[k] as usize, bits(hit_d[k])),
                    (j, bits(d)),
                    "wide {wide}: query {k} of {} ({p:?}), {} points, {t:?}",
                    queries.len(),
                    lane_x.len()
                );
            }
        }
    }

    /// Pass transforms: the identity, a restart angle, and fitted-looking
    /// transforms with ±0 and nonzero shifts.
    const TRANSFORMS: [RigidTransform; 4] = [
        RigidTransform {
            rotation: 0.0,
            translation: Vec2::ZERO,
        },
        RigidTransform {
            rotation: std::f64::consts::FRAC_PI_4,
            translation: Vec2::ZERO,
        },
        RigidTransform {
            rotation: -2.3,
            translation: Vec2::new(-0.0, 0.25),
        },
        RigidTransform {
            rotation: 1e-17,
            translation: Vec2::new(0.5, -0.0),
        },
    ];

    #[test]
    fn query_lanes_match_scalar_nearest_at_every_tail_width() {
        if !crate::wide_or_skip_note() {
            return;
        }
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let mut rng = sops_math::SplitMix64::new(11);
        for queries in 1..=70 {
            for points in [1usize, 2, 9, 33] {
                let lane_x: Vec<f64> = (0..points).map(|_| coord(&mut rng, &specials)).collect();
                let lane_y: Vec<f64> = (0..points).map(|_| coord(&mut rng, &specials)).collect();
                // Half the queries duplicate a reference point (exact
                // ties at d² = 0 before the transform moves them).
                let qs: Vec<Vec2> = (0..queries)
                    .map(|k| {
                        if k % 2 == 0 {
                            let j = k % points;
                            Vec2::new(lane_x[j], lane_y[j])
                        } else {
                            Vec2::new(coord(&mut rng, &specials), coord(&mut rng, &specials))
                        }
                    })
                    .collect();
                for t in &TRANSFORMS {
                    assert_lanes_agree(&lane_x, &lane_y, &qs, t);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn query_lanes_match_scalar_nearest(
            points in 1usize..71,
            queries in 1usize..71,
            special in 0usize..4,
            nan_at in 0usize..140,
            transform in 0usize..4,
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
            let mut lane_x: Vec<f64> = (0..points).map(|_| coord(&mut rng, specials)).collect();
            let lane_y: Vec<f64> = (0..points).map(|_| coord(&mut rng, specials)).collect();
            // Half the cases put a NaN point in the lane, index 0 included.
            if nan_at < 70 {
                lane_x[nan_at % points] = f64::NAN;
            }
            let qs: Vec<Vec2> = (0..queries)
                .map(|_| Vec2::new(coord(&mut rng, specials), coord(&mut rng, specials)))
                .collect();
            assert_lanes_agree(&lane_x, &lane_y, &qs, &TRANSFORMS[transform]);
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
