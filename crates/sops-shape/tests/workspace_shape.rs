//! Contracts of the persistent shape-reduction scratch:
//!
//! * `icp_align_with`, `match_types_into` and `reduce_configurations_with`
//!   on a reused scratch are bit-identical to a fresh scratch, for any
//!   worker count;
//! * the lane-scan `icp_align_with` is bit-identical (cost, transform
//!   bits, iterations) to [`frozen`], a copy of the per-type kd-tree
//!   kernel it replaced — on continuous and tie-heavy lattice clouds,
//!   1–3 types, per-type sizes 1–64, the `IcpConfig` edges of the
//!   fixed-point exit, and real builtin-scenario slices;
//! * a warmed-up `ReduceWorkspace` performs zero heap allocations across
//!   100 reduction calls (buffer-capacity stability, à la
//!   `crates/sops-info/tests/workspace_measure.rs`).

use proptest::prelude::*;
use sops_core::ScenarioRegistry;
use sops_math::{SplitMix64, Vec2};
use sops_shape::ensemble::flatten_reduced;
use sops_shape::{
    center, icp_align_with, match_types_into, reduce_configurations_with, IcpConfig, IcpResult,
    IcpScratch, MatchScratch, ReduceConfig, ReduceWorkspace, RigidTransform,
};
use sops_sim::streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig};

/// The per-type kd-tree `icp_align_with` as it stood before the lane
/// scan, frozen verbatim (minus the capacity bookkeeping). It is the
/// bit-identity reference of the live kernel: every correspondence pass
/// queries a `KdTree` per type and every restart runs pass by pass until
/// the tolerance test or the iteration cap stops it.
mod frozen {
    use sops_math::Vec2;
    use sops_shape::{fit_rigid, IcpConfig, IcpResult, RigidTransform};
    use sops_spatial::KdTree;

    /// Per-type view of a configuration: kd-trees over the reference points of
    /// each type plus the type-local → global index maps. Rebuilt in place —
    /// trees, coordinate gathers and index maps all keep their buffers.
    #[derive(Debug, Clone, Default)]
    struct TypedIndex {
        trees: Vec<KdTree>,
        globals: Vec<Vec<u32>>,
        coords: Vec<Vec<f64>>,
    }

    impl TypedIndex {
        fn rebuild(&mut self, points: &[Vec2], types: &[u16], type_count: usize) {
            while self.trees.len() < type_count {
                self.trees.push(KdTree::build(2, &[]));
                self.globals.push(Vec::new());
                self.coords.push(Vec::new());
            }
            for t in 0..type_count {
                self.coords[t].clear();
                self.globals[t].clear();
            }
            for (i, (&p, &t)) in points.iter().zip(types).enumerate() {
                self.coords[t as usize].extend_from_slice(&[p.x, p.y]);
                self.globals[t as usize].push(i as u32);
            }
            for t in 0..type_count {
                self.trees[t].rebuild(2, &self.coords[t]);
            }
        }

        /// Global index of the same-type nearest reference point.
        fn nearest(&self, p: Vec2, t: usize) -> usize {
            let (local, _) = self.trees[t]
                .nearest(&[p.x, p.y])
                .expect("TypedIndex: type has no reference points");
            self.globals[t][local] as usize
        }
    }

    /// Reusable buffers of the frozen kernel.
    #[derive(Debug, Clone, Default)]
    pub struct IcpScratch {
        ref_c: Vec<Vec2>,
        mov_c: Vec<Vec2>,
        targets: Vec<Vec2>,
        index: TypedIndex,
    }

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
        // Work in centred frames; the centring translations are composed back
        // into the final transform.
        let ref_centroid = Vec2::centroid(reference);
        let mov_centroid = Vec2::centroid(moving);
        let IcpScratch {
            ref_c,
            mov_c,
            targets,
            index,
        } = scratch;
        ref_c.clear();
        ref_c.extend(reference.iter().map(|&p| p - ref_centroid));
        mov_c.clear();
        mov_c.extend(moving.iter().map(|&p| p - mov_centroid));
        index.rebuild(ref_c, types, type_count);

        let mut best: Option<IcpResult> = None;
        targets.clear();
        targets.resize(mov_c.len(), Vec2::ZERO);
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
                for (i, &p) in mov_c.iter().enumerate() {
                    let tp = t.apply(p);
                    let j = index.nearest(tp, types[i] as usize);
                    targets[i] = ref_c[j];
                    acc += tp.dist_sq(ref_c[j]);
                }
                cost = acc / mov_c.len() as f64;
                if it > 0 && prev_cost - cost <= cfg.tolerance * prev_cost {
                    break; // converged: `cost` belongs to the current `t`
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
}

/// Bit-exact comparison of two alignments: cost, rotation, translation
/// and the winning restart's iteration count.
fn assert_same_bits(got: &IcpResult, want: &IcpResult, context: &str) {
    let bits = |r: &IcpResult| {
        (
            r.cost.to_bits(),
            r.transform.rotation.to_bits(),
            r.transform.translation.x.to_bits(),
            r.transform.translation.y.to_bits(),
            r.iterations,
        )
    };
    assert_eq!(bits(got), bits(want), "{context}: {got:?} vs {want:?}");
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Indices of the type-`k` particles, ascending.
fn slots_of(types: &[u16], k: usize) -> Vec<usize> {
    (0..types.len())
        .filter(|&i| types[i] as usize == k)
        .collect()
}

/// A reference/moving pair over `sizes[k]` points of type `k`, with the
/// types interleaved in a shuffled global order.
///
/// Continuous clouds are uniform in `[−4, 4]²`; the moving cloud is an
/// independent one, or a noisy rigid copy of the reference re-indexed
/// within each type. Lattice (`quantized`) clouds come in mirrored pairs
/// `±p` of integer points in `−3..=3` (the odd point of a type at the
/// origin), so every cloud sums to exactly zero: centring leaves the
/// integers untouched and the first pass from angle 0 meets exact
/// distance ties everywhere.
fn icp_case(seed: u64, quantized: bool, sizes: &[usize]) -> (Vec<Vec2>, Vec<Vec2>, Vec<u16>) {
    let mut rng = SplitMix64::new(seed);
    let mut types: Vec<u16> = sizes
        .iter()
        .enumerate()
        .flat_map(|(k, &size)| std::iter::repeat_n(k as u16, size))
        .collect();
    shuffle(&mut types, &mut rng);
    let cloud = |rng: &mut SplitMix64| {
        let mut points = vec![Vec2::ZERO; types.len()];
        for k in 0..sizes.len() {
            let slots = slots_of(&types, k);
            if quantized {
                for pair in slots.chunks_exact(2) {
                    let mut coord = || (rng.next_u64() % 7) as f64 - 3.0;
                    let p = Vec2::new(coord(), coord());
                    points[pair[0]] = p;
                    points[pair[1]] = -p;
                }
            } else {
                for i in slots {
                    points[i] = Vec2::new(rng.next_range(-4.0, 4.0), rng.next_range(-4.0, 4.0));
                }
            }
        }
        points
    };
    let reference = cloud(&mut rng);
    let moving = if quantized || rng.next_u64().is_multiple_of(3) {
        cloud(&mut rng)
    } else {
        let t = RigidTransform {
            rotation: rng.next_range(-3.0, 3.0),
            translation: Vec2::new(rng.next_range(-8.0, 8.0), rng.next_range(-8.0, 8.0)),
        };
        let noise = if rng.next_u64().is_multiple_of(2) {
            0.05
        } else {
            0.5
        };
        let copy: Vec<Vec2> = reference
            .iter()
            .map(|&p| {
                t.apply(p) + Vec2::new(rng.next_range(-noise, noise), rng.next_range(-noise, noise))
            })
            .collect();
        let mut moving = copy.clone();
        for k in 0..sizes.len() {
            let slots = slots_of(&types, k);
            let mut order = slots.clone();
            shuffle(&mut order, &mut rng);
            for (&to, &from) in slots.iter().zip(&order) {
                moving[to] = copy[from];
            }
        }
        moving
    };
    (reference, moving, types)
}

/// Per-type sizes of the frozen-reference cases: a lone point, one
/// kd-tree leaf (12), the first split (13), the largest shipped traffic
/// (40) and the lane-scan crossover (64).
const PER_TYPE_SIZES: [usize; 5] = [1, 12, 13, 40, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_scan_icp_is_bit_identical_to_frozen_kd_tree_icp(
        seed in 0..u64::MAX,
        quantized in 0..2u8,
        size_picks in proptest::collection::vec(0..5usize, 1..4),
        max_iterations_pick in 0..3usize,
        tolerance_pick in 0..3usize,
        restarts in 1..9usize,
    ) {
        let sizes: Vec<usize> = size_picks.iter().map(|&k| PER_TYPE_SIZES[k]).collect();
        let (reference, moving, types) = icp_case(seed, quantized == 1, &sizes);
        // Caps 1 and 2 and tolerances 0 and negative reach every branch
        // of the fixed-point exit: no second pass, a fixed point on the
        // last pass, a repeat pass that stops, one that never does.
        let cfg = IcpConfig {
            max_iterations: [1, 2, 40][max_iterations_pick],
            tolerance: [1e-9, 0.0, -1e-3][tolerance_pick],
            restarts,
        };
        let got = icp_align_with(&mut IcpScratch::new(), &reference, &moving, &types, &cfg);
        let want = frozen::icp_align_with(
            &mut frozen::IcpScratch::default(),
            &reference,
            &moving,
            &types,
            &cfg,
        );
        assert_same_bits(&got, &want, &format!("sizes {sizes:?} {cfg:?}"));
    }
}

#[test]
fn lane_scan_icp_is_bit_identical_to_frozen_kd_tree_icp_on_builtin_slices() {
    // Every builtin scenario at smoke scale, every evaluated step, every
    // sample aligned onto sample 0 — the centred inputs the reduction
    // feeds ICP, through one reused scratch per kernel.
    let cfg = IcpConfig::default();
    let mut lanes = IcpScratch::new();
    let mut kd = frozen::IcpScratch::default();
    let mut checked = 0;
    for spec in ScenarioRegistry::builtin().iter() {
        let spec = spec.clone().with_scale(12, 40);
        let times = spec.eval_times();
        let ensemble =
            run_streaming_ensemble(&spec.ensemble, &times, 1, &StreamingConfig::default());
        let frames = EnsembleFrames::Streaming(&ensemble);
        let types = spec.ensemble.model.types();
        for t in times {
            let (mut stage, mut slice) = (Vec::new(), Vec::new());
            frames.at_time_into(t, &mut stage, &mut slice);
            let mut reference = slice[0].to_vec();
            center(&mut reference);
            for (s, sample) in slice.iter().enumerate().skip(1) {
                let mut moving = sample.to_vec();
                center(&mut moving);
                let got = icp_align_with(&mut lanes, &reference, &moving, types, &cfg);
                let want = frozen::icp_align_with(&mut kd, &reference, &moving, types, &cfg);
                assert_same_bits(&got, &want, &format!("{} t={t} sample {s}", spec.name));
                checked += 1;
            }
        }
    }
    assert!(checked >= 3 * 2 * 11, "only {checked} alignments compared");
}

/// A deterministic ensemble slice: `samples` rigid+noisy copies of one
/// asymmetric multi-type shape.
fn slice(n: usize, samples: usize, seed: u64) -> (Vec<Vec<Vec2>>, Vec<u16>) {
    let mut rng = SplitMix64::new(seed);
    let base: Vec<Vec2> = (0..n)
        .map(|_| Vec2::new(rng.next_range(-4.0, 4.0), rng.next_range(-4.0, 4.0)))
        .collect();
    let types: Vec<u16> = (0..n).map(|i| (i % 3) as u16).collect();
    let slices = (0..samples)
        .map(|_| {
            let t = RigidTransform {
                rotation: rng.next_range(-3.0, 3.0),
                translation: Vec2::new(rng.next_range(-8.0, 8.0), rng.next_range(-8.0, 8.0)),
            };
            base.iter()
                .map(|&p| {
                    t.apply(p) + Vec2::new(rng.next_range(-0.05, 0.05), rng.next_range(-0.05, 0.05))
                })
                .collect()
        })
        .collect();
    (slices, types)
}

#[test]
fn icp_scratch_bit_identical_to_fresh_scratch_across_reuse() {
    let mut scratch = IcpScratch::new();
    for seed in 0..5u64 {
        let (samples, types) = slice(12, 2, seed);
        let reference = &samples[0];
        let moving = &samples[1];
        let with = icp_align_with(
            &mut scratch,
            reference,
            moving,
            &types,
            &IcpConfig::default(),
        );
        let fresh = icp_align_with(
            &mut IcpScratch::new(),
            reference,
            moving,
            &types,
            &IcpConfig::default(),
        );
        assert_eq!(with.cost.to_bits(), fresh.cost.to_bits(), "seed {seed}");
        assert_eq!(
            with.transform.rotation.to_bits(),
            fresh.transform.rotation.to_bits()
        );
        assert_eq!(
            with.transform.translation.x.to_bits(),
            fresh.transform.translation.x.to_bits()
        );
        assert_eq!(with.iterations, fresh.iterations);
    }
}

#[test]
fn match_scratch_bit_identical_to_fresh_scratch_across_reuse() {
    let mut scratch = MatchScratch::new();
    let mut perm = Vec::new();
    for (n, seed) in [(8usize, 1u64), (20, 2), (5, 3), (20, 4)] {
        let (samples, types) = slice(n, 2, seed);
        match_types_into(&mut scratch, &samples[0], &samples[1], &types, &mut perm);
        let mut fresh = Vec::new();
        match_types_into(
            &mut MatchScratch::new(),
            &samples[0],
            &samples[1],
            &types,
            &mut fresh,
        );
        assert_eq!(perm, fresh, "n={n} seed={seed}");
    }
}

#[test]
fn reduce_with_workspace_bit_identical_for_any_worker_count() {
    let (samples, types) = slice(10, 12, 9);
    let views: Vec<&[Vec2]> = samples.iter().map(|s| s.as_slice()).collect();
    let fresh = reduce_configurations_with(
        &mut ReduceWorkspace::new(),
        &views,
        &types,
        &ReduceConfig::default(),
    );
    for threads in [1usize, 4, 8] {
        let mut ws = ReduceWorkspace::new();
        let cfg = ReduceConfig {
            threads,
            ..ReduceConfig::default()
        };
        let got = reduce_configurations_with(&mut ws, &views, &types, &cfg);
        assert_eq!(got.configs, fresh.configs, "threads={threads}");
        for (a, b) in got.icp_costs.iter().zip(&fresh.icp_costs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Flattened layout is what the estimators consume.
        assert_eq!(flatten_reduced(&got), flatten_reduced(&fresh));
    }
}

#[test]
fn warmed_up_reduce_workspace_is_allocation_free_over_100_calls() {
    let mut ws = ReduceWorkspace::new();
    let cfg = ReduceConfig {
        threads: 1,
        ..ReduceConfig::default()
    };
    let (warm, types) = slice(9, 20, 77);
    let views: Vec<&[Vec2]> = warm.iter().map(|s| s.as_slice()).collect();
    for _ in 0..3 {
        reduce_configurations_with(&mut ws, &views, &types, &cfg);
    }
    let sig = ws.capacity_signature();
    for call in 0..100u64 {
        // Fresh data every call (capacities depend on shape, not values).
        let (samples, types) = slice(9, 20, 1000 + call);
        let views: Vec<&[Vec2]> = samples.iter().map(|s| s.as_slice()).collect();
        reduce_configurations_with(&mut ws, &views, &types, &cfg);
        assert_eq!(
            ws.capacity_signature(),
            sig,
            "reduce workspace allocated at call {call}"
        );
    }
}

#[test]
fn reduce_workspace_survives_shape_changes_between_calls() {
    let mut ws = ReduceWorkspace::new();
    for (round, (n, samples)) in [(6usize, 10usize), (15, 4), (3, 25), (15, 10)]
        .into_iter()
        .enumerate()
    {
        let (slices, types) = slice(n, samples, round as u64);
        let views: Vec<&[Vec2]> = slices.iter().map(|s| s.as_slice()).collect();
        let reused = reduce_configurations_with(&mut ws, &views, &types, &ReduceConfig::default());
        let fresh = reduce_configurations_with(
            &mut ReduceWorkspace::new(),
            &views,
            &types,
            &ReduceConfig::default(),
        );
        assert_eq!(reused.configs, fresh.configs, "round {round}");
    }
}
