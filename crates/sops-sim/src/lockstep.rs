//! Lockstep sample lanes: up to [`LANES`] samples of one ensemble
//! stepped together, bit for bit as each would step alone.
//!
//! An ensemble's samples are independent runs of one model, so every
//! sample visits the same particle pairs in the same order
//! ([`crate::workspace`]'s direct loop: `i` ascending, then `j > i`),
//! with the same types and force coefficients. Positions are stored
//! particle-major and sample-minor — one [`Lanes`] row per coordinate per
//! particle — so one 8-wide instruction performs one scalar operation of
//! eight samples at once.
//!
//! Each lane repeats its sample's scalar operations exactly:
//!
//! * `F¹` (`k(1 − r/x)`) needs only `+ − × ÷ √` and `max`, which lanes
//!   round exactly as scalar code does; nothing is fused into an FMA.
//! * A cut-off miss is a masked blend, not an added zero: the
//!   accumulator keeps every bit, whatever the lane computed for the pair
//!   (an infinite or NaN contribution times zero would be NaN). The hit
//!   mask is `_CMP_NGT_UQ`, so a NaN `d²` counts as a hit, just as the
//!   scalar `d2 > r2` test is false.
//! * The distance floor is `_mm512_max_pd(√d², MIN_DISTANCE)`, which
//!   returns the floor for a NaN root, as `f64::max` does.
//! * The first-substep force norm is summed per lane in particle order,
//!   and the particle update (the `clamp_norm` of the drift, then the
//!   noise, x then y, from the lane's own [`SplitMix64`]) runs lane by
//!   lane through the per-sample step's own per-particle function. The
//!   scalar `ln` and `cos` calls of the noise dominate that loop, so a
//!   vector form of it would gain little before lane transcendentals.
//!
//! NaN payloads are the one exception. IEEE 754 leaves open which
//! operand's NaN an operation returns, x86 returns the first source's,
//! and LLVM may swap the operands of a `+` or `×` in scalar and vector
//! code alike; so a NaN lands where the scalar run has one, but its
//! payload bits may differ.
//!
//! [`run_streaming_ensemble`](crate::run_streaming_ensemble) takes this
//! path for `F¹` models on the direct pair loop when every worker gets
//! at least four lanes ([`applies`]); everything else keeps the
//! per-sample loop, which is also the reference every lockstep test
//! compares against. The pair kernel is AVX-512 when
//! [`sops_math::wide_available`] says so, and a portable per-lane loop
//! otherwise.

use crate::ensemble::EnsembleSpec;
use crate::force::{ForceModel, LinearForce};
use crate::integrator::{advance_particle, IntegratorConfig};
use crate::model::MIN_DISTANCE;
use crate::sim::EquilibriumWatch;
use sops_math::rng::derive_seed;
use sops_math::{SplitMix64, Vec2};

/// Samples per lane group: one `__m512d` of `f64`s.
const LANES: usize = 8;

/// Fewest lanes per worker for which lockstep beats the per-sample loop.
/// On fast-scale fig 6 (4 samples, 2 threads), one group of 4 and two
/// groups of 2 both ran slower than one sample per worker.
const MIN_LANES_PER_WORKER: usize = 4;

/// One coordinate of one particle across the group's samples, aligned to
/// a cache line so every row is a single aligned 512-bit load.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C, align(64))]
struct Lanes([f64; LANES]);

/// Whether [`run_streaming_ensemble`](crate::run_streaming_ensemble)
/// steps `spec` in lockstep on `threads` workers: an `F¹` law (`F²` and
/// custom laws call `exp` or user code, which has no lane form), the
/// direct pair loop (the grid path's pair order depends on each sample's
/// positions), and at least four samples per worker.
pub(crate) fn applies(spec: &EnsembleSpec, threads: usize) -> bool {
    matches!(spec.model.law(), ForceModel::Linear(_))
        && spec.model.direct_pairs()
        && spec.samples >= MIN_LANES_PER_WORKER * threads
}

/// Splits `samples` into `max(⌈samples/8⌉, threads)` runs of consecutive
/// samples, as even as possible (earlier groups take the remainder), as
/// `(first sample, lanes)` pairs. [`applies`] guarantees at least four
/// samples per worker, so no group is empty.
pub(crate) fn groups(samples: usize, threads: usize) -> Vec<(usize, usize)> {
    let count = samples.div_ceil(LANES).max(threads);
    let (base, extra) = (samples / count, samples % count);
    let mut first = 0;
    (0..count)
        .map(|g| {
            let len = base + usize::from(g < extra);
            let group = (first, len);
            first += len;
            group
        })
        .collect()
}

/// Steps samples `first .. first + len` of `spec` in lockstep through the
/// horizon, handing each retained frame to `sink(lane, frame_index,
/// positions)`, lanes in order within a frame. Returns each lane's
/// equilibrium step: the per-sample loop's results, bit for bit.
pub(crate) fn stream_group(
    spec: &EnsembleSpec,
    first: usize,
    len: usize,
    times: &[usize],
    mut sink: impl FnMut(usize, usize, &[Vec2]),
) -> Vec<Option<usize>> {
    assert!((1..=LANES).contains(&len), "stream_group: {len} lanes");
    let ForceModel::Linear(law) = spec.model.law() else {
        panic!("stream_group: lockstep lanes need the F¹ law");
    };
    let mut group = LaneGroup::new(spec, first, len);
    let r2 = spec.model.cutoff_sq();
    let wide = sops_math::wide_available();
    let mut frame = vec![Vec2::ZERO; spec.model.particles()];
    let mut emit = |group: &LaneGroup, fi: usize| {
        for lane in 0..len {
            group.transpose_into(lane, &mut frame);
            sink(lane, fi, &frame);
        }
    };
    let mut next = 0usize;
    if times[next] == 0 {
        emit(&group, next);
        next += 1;
    }
    let mut watches = vec![EquilibriumWatch::new(spec.criterion); len];
    let mut equilibrium_steps = vec![None; len];
    for t in 0..spec.t_max {
        let fnorm = group.step(law, spec.model.types(), r2, &spec.integrator, wide);
        for (lane, watch) in watches.iter_mut().enumerate() {
            equilibrium_steps[lane] = watch.observe(t + 1, fnorm.0[lane]);
        }
        if next < times.len() && times[next] == t + 1 {
            emit(&group, next);
            next += 1;
        }
    }
    debug_assert_eq!(next, times.len(), "all retained times visited");
    equilibrium_steps
}

/// The state of one lane group: positions and forces, one [`Lanes`] row
/// per particle each, plus each active lane's generator. Lanes past
/// `rngs.len()` are idle: they hold zeros, never move and are never read
/// back.
struct LaneGroup {
    x: Vec<Lanes>,
    y: Vec<Lanes>,
    fx: Vec<Lanes>,
    fy: Vec<Lanes>,
    rngs: Vec<SplitMix64>,
}

impl LaneGroup {
    /// Lane `l` starts where sample `first + l`'s
    /// [`Simulation::with_disc_init`](crate::Simulation::with_disc_init)
    /// does: the uniform disc drawn from `derive_seed(seed, first + l)`,
    /// with the generator left where the draw ended.
    fn new(spec: &EnsembleSpec, first: usize, len: usize) -> Self {
        let n = spec.model.particles();
        let zeros = vec![Lanes::default(); n];
        let mut group = LaneGroup {
            x: zeros.clone(),
            y: zeros.clone(),
            fx: zeros.clone(),
            fy: zeros,
            rngs: Vec::with_capacity(len),
        };
        for lane in 0..len {
            let mut rng = SplitMix64::new(derive_seed(spec.seed, (first + lane) as u64));
            let initial = crate::init::uniform_disc(n, spec.init_radius, &mut rng);
            for (p, z) in initial.iter().enumerate() {
                group.x[p].0[lane] = z.x;
                group.y[p].0[lane] = z.y;
            }
            group.rngs.push(rng);
        }
        group
    }

    /// Lane `lane`'s configuration, written into `out` (one position per
    /// particle).
    fn transpose_into(&self, lane: usize, out: &mut [Vec2]) {
        for ((z, x), y) in out.iter_mut().zip(&self.x).zip(&self.y) {
            *z = Vec2::new(x.0[lane], y.0[lane]);
        }
    }

    /// One recorded step of every lane: `integrator::step`'s
    /// Euler–Maruyama substeps, the pair sweep across lanes and the
    /// particle updates lane by lane. Returns each lane's drift
    /// force-norm sum at the start of the step, summed as
    /// `integrator::step` sums it.
    fn step(
        &mut self,
        law: &LinearForce,
        types: &[u16],
        r2: f64,
        cfg: &IntegratorConfig,
        wide: bool,
    ) -> Lanes {
        let h = cfg.dt / cfg.substeps as f64;
        let noise_scale = (cfg.noise_variance * h).sqrt();
        let mut first_force_norm = Lanes::default();
        for sub in 0..cfg.substeps {
            self.fx.fill(Lanes::default());
            self.fy.fill(Lanes::default());
            pair_forces(
                law,
                types,
                &self.x,
                &self.y,
                r2,
                &mut self.fx,
                &mut self.fy,
                wide,
            );
            if sub == 0 {
                first_force_norm = Lanes(std::array::from_fn(|lane| {
                    let forces = self.fx.iter().zip(&self.fy);
                    forces
                        .map(|(fx, fy)| Vec2::new(fx.0[lane], fy.0[lane]).norm())
                        .sum()
                }));
            }
            // Each active lane moves its particles in order through the
            // per-sample step's own particle update, so its noise draws
            // come from its generator in the per-sample order.
            for (lane, rng) in self.rngs.iter_mut().enumerate() {
                for p in 0..self.x.len() {
                    let mut z = Vec2::new(self.x[p].0[lane], self.y[p].0[lane]);
                    let f = Vec2::new(self.fx[p].0[lane], self.fy[p].0[lane]);
                    advance_particle(&mut z, f, h, cfg.max_step, noise_scale, rng);
                    (self.x[p].0[lane], self.y[p].0[lane]) = (z.x, z.y);
                }
            }
        }
        first_force_norm
    }
}

/// The direct `F¹` pair loop over lane rows, accumulating into `fx`/`fy`
/// (zeroed by the caller): `direct_sweep`'s operations per lane, in its
/// pair order. Picks the AVX-512 kernel when `wide` says the CPU has it.
#[allow(clippy::too_many_arguments)]
fn pair_forces(
    law: &LinearForce,
    types: &[u16],
    x: &[Lanes],
    y: &[Lanes],
    r2: f64,
    fx: &mut [Lanes],
    fy: &mut [Lanes],
    wide: bool,
) {
    let n = x.len();
    assert!(
        y.len() == n && fx.len() == n && fy.len() == n && types.len() == n,
        "pair_forces: lane rows disagree on the particle count"
    );
    #[cfg(target_arch = "x86_64")]
    if wide {
        // SAFETY: `wide` certifies the target features; the assert above
        // bounds every row index the kernel forms.
        unsafe { x86::pair_forces(law, types, x, y, r2, fx, fy) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = wide;
    pair_forces_portable(law, types, x, y, r2, fx, fy);
}

/// The portable form of [`pair_forces`]: `direct_sweep`'s pair body for
/// each lane in turn, a miss skipped as the scalar loop skips it.
fn pair_forces_portable(
    law: &LinearForce,
    types: &[u16],
    x: &[Lanes],
    y: &[Lanes],
    r2: f64,
    fx: &mut [Lanes],
    fy: &mut [Lanes],
) {
    let n = x.len();
    for i in 0..n {
        let ti = types[i] as usize;
        let (xi, yi) = (x[i], y[i]);
        let (mut fix, mut fiy) = (fx[i], fy[i]);
        for j in (i + 1)..n {
            let tj = types[j] as usize;
            let (k, r) = (law.k.get(ti, tj), law.r.get(ti, tj));
            let (xj, yj) = (&x[j], &y[j]);
            let (fjx, fjy) = (&mut fx[j], &mut fy[j]);
            for l in 0..LANES {
                let dx = xi.0[l] - xj.0[l];
                let dy = yi.0[l] - yj.0[l];
                let d2 = dx * dx + dy * dy;
                if d2 > r2 {
                    continue;
                }
                let f = k * (1.0 - r / d2.sqrt().max(MIN_DISTANCE));
                let (cx, cy) = (dx * f, dy * f);
                fix.0[l] -= cx;
                fiy.0[l] -= cy;
                fjx.0[l] += cx;
                fjy.0[l] += cy;
            }
        }
        fx[i] = fix;
        fy[i] = fiy;
    }
}

/// The AVX-512 pair kernel: one `__m512d` per lane row.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, LinearForce};
    use crate::model::MIN_DISTANCE;
    use core::arch::x86_64::*;

    /// [`super::pair_forces_portable`] eight lanes per instruction:
    /// separate multiply and add (never FMA), the hit mask
    /// `d² NGT_UQ r²` (NaN is a hit), `max(√d², MIN_DISTANCE)` with the
    /// floor second (NaN gives the floor), and masked add/sub blends for
    /// the accumulators (a miss keeps every bit).
    ///
    /// # Safety
    ///
    /// Caller must have verified [`sops_math::wide_available`] and that
    /// `y`, `fx`, `fy` and `types` have `x.len()` entries.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn pair_forces(
        law: &LinearForce,
        types: &[u16],
        x: &[Lanes],
        y: &[Lanes],
        r2: f64,
        fx: &mut [Lanes],
        fy: &mut [Lanes],
    ) {
        let n = x.len();
        let (xp, yp) = (x.as_ptr().cast::<f64>(), y.as_ptr().cast::<f64>());
        let (fxp, fyp) = (fx.as_mut_ptr().cast::<f64>(), fy.as_mut_ptr().cast::<f64>());
        let r2v = _mm512_set1_pd(r2);
        let floor = _mm512_set1_pd(MIN_DISTANCE);
        let one = _mm512_set1_pd(1.0);
        for i in 0..n {
            let ti = *types.get_unchecked(i) as usize;
            let xi = _mm512_load_pd(xp.add(i * 8));
            let yi = _mm512_load_pd(yp.add(i * 8));
            let mut fix = _mm512_load_pd(fxp.add(i * 8));
            let mut fiy = _mm512_load_pd(fyp.add(i * 8));
            for j in (i + 1)..n {
                let tj = *types.get_unchecked(j) as usize;
                let k = _mm512_set1_pd(law.k.get(ti, tj));
                let r = _mm512_set1_pd(law.r.get(ti, tj));
                let dx = _mm512_sub_pd(xi, _mm512_load_pd(xp.add(j * 8)));
                let dy = _mm512_sub_pd(yi, _mm512_load_pd(yp.add(j * 8)));
                let d2 = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
                let hit = _mm512_cmp_pd_mask::<_CMP_NGT_UQ>(d2, r2v);
                let dist = _mm512_max_pd(_mm512_sqrt_pd(d2), floor);
                let f = _mm512_mul_pd(k, _mm512_sub_pd(one, _mm512_div_pd(r, dist)));
                let cx = _mm512_mul_pd(dx, f);
                let cy = _mm512_mul_pd(dy, f);
                fix = _mm512_mask_sub_pd(fix, hit, fix, cx);
                fiy = _mm512_mask_sub_pd(fiy, hit, fiy, cy);
                let fjx = _mm512_load_pd(fxp.add(j * 8));
                let fjy = _mm512_load_pd(fyp.add(j * 8));
                _mm512_store_pd(fxp.add(j * 8), _mm512_mask_add_pd(fjx, hit, fjx, cx));
                _mm512_store_pd(fyp.add(j * 8), _mm512_mask_add_pd(fjy, hit, fjy, cy));
            }
            _mm512_store_pd(fxp.add(i * 8), fix);
            _mm512_store_pd(fyp.add(i * 8), fiy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::GaussianForce;
    use crate::model::Model;
    use crate::sim::{EquilibriumCriterion, Simulation, Trajectory};
    use crate::streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig};
    use proptest::prelude::*;
    use sops_math::PairMatrix;

    fn linear(types: usize, k: f64, r: f64) -> ForceModel {
        ForceModel::Linear(LinearForce::new(
            PairMatrix::constant(types, k),
            PairMatrix::constant(types, r),
        ))
    }

    fn spec(model: Model, samples: usize) -> EnsembleSpec {
        EnsembleSpec {
            model,
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max: 6,
            samples,
            seed: 77,
            criterion: None,
        }
    }

    #[test]
    fn groups_split_samples_evenly_in_order() {
        let sizes = |samples, threads| -> Vec<usize> {
            let g = groups(samples, threads);
            let mut next = 0;
            for &(first, len) in &g {
                assert_eq!(first, next, "groups are consecutive");
                next += len;
            }
            assert_eq!(next, samples, "groups cover every sample");
            g.into_iter().map(|(_, len)| len).collect()
        };
        assert_eq!(sizes(120, 2), [8; 15]);
        assert_eq!(sizes(150, 2), [[8; 17].as_slice(), &[7; 2]].concat());
        assert_eq!(sizes(17, 1), [6, 6, 5]);
        assert_eq!(sizes(9, 1), [5, 4]);
        assert_eq!(sizes(8, 2), [4, 4]);
        assert_eq!(sizes(4, 1), [4]);
        assert_eq!(sizes(20, 1), [7, 7, 6]);
        assert_eq!(sizes(32, 8), [4; 8]);
    }

    #[test]
    fn lanes_take_only_direct_f1_ensembles_with_four_samples_per_worker() {
        let f1 = spec(Model::balanced(20, linear(2, 1.0, 1.5), 3.0), 8);
        assert!(applies(&f1, 1) && applies(&f1, 2));
        assert!(!applies(&f1, 3), "fewer than four lanes per worker");
        let unbounded = spec(Model::balanced(200, linear(1, 1.0, 1.5), f64::INFINITY), 8);
        assert!(applies(&unbounded, 2), "r_c = ∞ takes the direct loop");
        let grid = spec(Model::balanced(64, linear(1, 1.0, 1.5), 3.0), 8);
        assert!(!applies(&grid, 1), "the grid path stays per sample");
        let f2 = ForceModel::Gaussian(GaussianForce::uniform(1.0, 2.0));
        assert!(!applies(&spec(Model::balanced(20, f2, 3.0), 8), 1));
        struct Spring;
        impl crate::force::ForceLaw for Spring {
            fn types(&self) -> usize {
                1
            }
            fn scale(&self, _: usize, _: usize, x: f64) -> f64 {
                x - 1.0
            }
            fn preferred_distance(&self, _: usize, _: usize) -> Option<f64> {
                Some(1.0)
            }
        }
        let custom = ForceModel::custom(Spring);
        assert!(!applies(&spec(Model::balanced(20, custom, 3.0), 8), 1));
    }

    /// Bits of every coordinate of a configuration, with every NaN read
    /// as `f64::NAN`. IEEE 754 leaves open which operand's NaN an
    /// operation returns; x86 returns the first source's, and LLVM may
    /// swap the operands of a commutative `+` or `×` in scalar and vector
    /// code alike, so NaN payloads are not part of the contract. Signed
    /// zeros, infinities and every finite bit are.
    fn bits(c: &[Vec2]) -> Vec<u64> {
        let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
        c.iter()
            .flat_map(|p| [canonical(p.x), canonical(p.y)])
            .collect()
    }

    /// One lane's configuration as positions.
    fn lane_positions(x: &[Lanes], y: &[Lanes], lane: usize) -> Vec<Vec2> {
        x.iter()
            .zip(y)
            .map(|(x, y)| Vec2::new(x.0[lane], y.0[lane]))
            .collect()
    }

    /// The pair kernels on adversarial lanes: coordinates drawn from a
    /// small integer grid (coincident particles, `d² = r²` exactly at
    /// `r_c = 2`, `±0` deltas) with NaN and `±∞` mixed in, `k = 0` rows
    /// among the coefficients, finite and unbounded cut-offs. Every lane
    /// of the portable loop and of the AVX-512 kernel must equal the
    /// scalar `direct_sweep` on that lane's positions, bit for bit.
    #[test]
    fn pair_kernels_match_scalar_direct_sweep_lane_by_lane() {
        let wide = sops_math::wide_available();
        if !wide {
            println!("skip: no AVX-512 on this CPU; checking the portable lane loop only");
        }
        let values = [
            -2.0,
            -1.0,
            -0.0,
            0.0,
            1.0,
            2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = SplitMix64::new(2024);
        for case in 0..400 {
            let n = 1 + case % 23;
            let types = 1 + case % 3;
            let k = PairMatrix::from_fn(types, |a, b| [0.0, 1.0, 2.5][(a + 2 * b + case) % 3]);
            let r = PairMatrix::from_fn(types, |a, b| [1.0, 2.0, 0.5][(2 * a + b + case) % 3]);
            let law = LinearForce::new(k, r);
            let kinds: Vec<u16> = (0..n).map(|i| (i % types) as u16).collect();
            let r2 = [4.0, 1.0, f64::INFINITY][case % 3];
            // NaN or ±∞ in about one coordinate in sixteen, so most pairs
            // stay finite.
            let coord = |rng: &mut SplitMix64| {
                let i = rng.next_below(48) as usize;
                if i < values.len() {
                    values[i]
                } else {
                    values[i % 6]
                }
            };
            let x: Vec<Lanes> = (0..n)
                .map(|_| Lanes(std::array::from_fn(|_| coord(&mut rng))))
                .collect();
            let y: Vec<Lanes> = (0..n)
                .map(|_| Lanes(std::array::from_fn(|_| coord(&mut rng))))
                .collect();
            let zeros = vec![Lanes::default(); n];
            let (mut px, mut py) = (zeros.clone(), zeros.clone());
            pair_forces_portable(&law, &kinds, &x, &y, r2, &mut px, &mut py);
            let (mut wx, mut wy) = (zeros.clone(), zeros);
            if wide {
                pair_forces(&law, &kinds, &x, &y, r2, &mut wx, &mut wy, true);
            }
            for lane in 0..LANES {
                let positions = lane_positions(&x, &y, lane);
                let mut scalar = vec![Vec2::ZERO; n];
                crate::workspace::direct_sweep(&law, &kinds, &positions, r2, &mut scalar);
                let want = bits(&scalar);
                let tag = format!("case {case}, lane {lane}, n {n}, r2 {r2}");
                assert_eq!(
                    bits(&lane_positions(&px, &py, lane)),
                    want,
                    "portable: {tag}"
                );
                if wide {
                    assert_eq!(
                        bits(&lane_positions(&wx, &wy, lane)),
                        want,
                        "avx-512: {tag}"
                    );
                }
            }
        }
    }

    /// A lane group and its samples' own simulations, stepped side by
    /// side: each step's force-norm sum (what the equilibrium watch
    /// reads) and positions agree lane by lane, bit for bit, with the
    /// clamp engaged, with noise, and in a ragged group.
    #[test]
    fn group_step_matches_simulation_step_lane_by_lane() {
        for (len, max_step) in [(8, 0.5), (5, 0.01), (3, f64::INFINITY)] {
            let mut s = spec(Model::balanced(17, linear(3, 1.5, 1.0), 2.5), len);
            s.integrator.max_step = max_step;
            s.integrator.substeps = 3;
            let ForceModel::Linear(law) = s.model.law() else {
                unreachable!("an F¹ model");
            };
            let mut group = LaneGroup::new(&s, 4, len);
            let mut sims: Vec<Simulation> = (0..len)
                .map(|lane| {
                    Simulation::with_disc_init(
                        s.model.clone(),
                        s.integrator,
                        s.init_radius,
                        derive_seed(s.seed, (4 + lane) as u64),
                    )
                })
                .collect();
            let mut frame = vec![Vec2::ZERO; s.model.particles()];
            for step in 0..20 {
                let wide = step % 2 == 0 && sops_math::wide_available();
                let fnorm = group.step(
                    law,
                    s.model.types(),
                    s.model.cutoff_sq(),
                    &s.integrator,
                    wide,
                );
                for (lane, sim) in sims.iter_mut().enumerate() {
                    let want = sim.step();
                    assert_eq!(
                        fnorm.0[lane].to_bits(),
                        want.to_bits(),
                        "step {step}, lane {lane}"
                    );
                    group.transpose_into(lane, &mut frame);
                    assert_eq!(
                        bits(&frame),
                        bits(sim.positions()),
                        "step {step}, lane {lane}"
                    );
                }
            }
        }
    }

    /// Every sample's whole trajectory from its own [`Simulation::run`].
    fn whole_runs(spec: &EnsembleSpec) -> Vec<Trajectory> {
        (0..spec.samples)
            .map(|s| {
                Simulation::with_disc_init(
                    spec.model.clone(),
                    spec.integrator,
                    spec.init_radius,
                    derive_seed(spec.seed, s as u64),
                )
                .run(spec.t_max, spec.criterion)
            })
            .collect()
    }

    /// Streams `spec` at every step on `threads` workers under a resident
    /// budget of `budget` bytes and compares every frame (by bits) and
    /// every equilibrium step with the per-sample runs. Returns whether
    /// the lockstep lanes ran.
    fn assert_matches_per_sample_runs(spec: &EnsembleSpec, threads: usize, budget: usize) -> bool {
        let whole = whole_runs(spec);
        let steps: Vec<usize> = (0..=spec.t_max).collect();
        let cfg = StreamingConfig {
            max_resident_bytes: budget,
        };
        let streamed = run_streaming_ensemble(spec, &steps, threads, &cfg);
        let frames = EnsembleFrames::Streaming(&streamed);
        let tag = format!(
            "n {}, samples {}, threads {threads}, budget {budget}",
            spec.model.particles(),
            spec.samples
        );
        for &t in &steps {
            let (mut buf, mut out) = (Vec::new(), Vec::new());
            frames.at_time_into(t, &mut buf, &mut out);
            assert_eq!(out.len(), whole.len(), "{tag}");
            for (s, (a, run)) in out.iter().zip(&whole).enumerate() {
                assert_eq!(bits(a), bits(&run.frames[t]), "{tag}, t {t}, sample {s}");
            }
        }
        let want: Vec<Option<usize>> = whole.iter().map(|r| r.equilibrium_step).collect();
        assert_eq!(streamed.equilibrium_steps(), want.as_slice(), "{tag}");
        applies(spec, threads)
    }

    /// The sample counts at the group edges (one lane, one full group,
    /// one lane past it, two full groups, one past those) on both sides
    /// of the four-lanes-per-worker rule.
    #[test]
    fn edge_sample_counts_match_per_sample_runs() {
        let mut took_lanes = 0;
        for samples in [1, 8, 9, 16, 17] {
            for threads in [1, 2, 8] {
                let mut s = spec(Model::balanced(13, linear(2, 1.0, 1.2), 1.5), samples);
                s.criterion = Some(EquilibriumCriterion {
                    threshold: 20.0,
                    patience: 2,
                });
                took_lanes += usize::from(assert_matches_per_sample_runs(&s, threads, 1 << 30));
            }
        }
        assert_eq!(took_lanes, 8, "lanes at samples ≥ 4 × threads only");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lockstep against per-sample runs over random ensembles:
        /// 1–3 types with `k = 0` entries, finite cut-offs that some
        /// pairs cross (n ≤ 63) and unbounded ones (n ≤ 80), noise and
        /// the equilibrium criterion on and off, clamped and unclamped
        /// drift, in memory and spill-forced, on 1, 2 and 8 workers.
        #[test]
        fn lanes_match_per_sample_runs(
            samples in 1usize..18,
            thread_pick in 0usize..3,
            unbounded in 0usize..2,
            n_pick in 1usize..81,
            types in 1usize..4,
            law_seed in 0u64..1_000_000,
            cutoff in 0.4..3.0f64,
            noise in 0usize..2,
            criterion_pick in 0usize..3,
            clamp_pick in 0usize..3,
            spill in 0usize..2,
            t_max in 1usize..9,
            substeps in 1usize..4,
            init_radius in 0.3..3.0f64,
            seed in 0u64..1_000_000,
        ) {
            let threads = [1, 2, 8][thread_pick];
            let (n, cutoff) = if unbounded == 1 {
                (n_pick, f64::INFINITY)
            } else {
                (1 + (n_pick - 1) % 63, cutoff)
            };
            let mut rng = SplitMix64::new(law_seed);
            let k = PairMatrix::from_fn(types, |_, _| {
                if rng.next_below(4) == 0 { 0.0 } else { rng.next_range(0.2, 3.0) }
            });
            let r = PairMatrix::from_fn(types, |_, _| rng.next_range(0.3, 2.5));
            let law = ForceModel::Linear(LinearForce::new(k, r));
            let spec = EnsembleSpec {
                model: Model::balanced(n, law, cutoff),
                integrator: IntegratorConfig {
                    dt: 0.05,
                    substeps,
                    noise_variance: [0.0, 0.05][noise],
                    max_step: [0.5, 0.01, f64::INFINITY][clamp_pick],
                },
                init_radius,
                t_max,
                samples,
                seed,
                criterion: [
                    None,
                    Some(EquilibriumCriterion { threshold: 5.0, patience: 1 }),
                    Some(EquilibriumCriterion { threshold: 50.0, patience: 3 }),
                ][criterion_pick],
            };
            let budget = if spill == 1 { 1 } else { 1 << 30 };
            assert_matches_per_sample_runs(&spec, threads, budget);
        }
    }
}
