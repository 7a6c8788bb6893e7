//! Contracts of the streamed ensemble, the one ensemble form the sweep
//! engine evaluates (`sops_sim::streaming` threaded through the sweep
//! engine):
//!
//! * **same frames** — `run_streaming_ensemble` keeps, bit for bit, the
//!   frames that each sample's own `Simulation::run` trajectory holds at
//!   the same steps, and the same equilibrated fraction: in memory and
//!   spill-forced, for worker counts 1 and 8 and for dense and sparse
//!   evaluation schedules (property-tested over random shapes);
//! * **same cells** — sweep cells are bit-identical across residency
//!   budgets and worker counts;
//! * **bounded steady state** — a warmed-up `SweepRunner` driving a
//!   spill-forced workload does not grow any internal buffer (the
//!   capacity-signature contract extended to the streaming eval loop's
//!   staging buffers).

use proptest::prelude::*;
use sops::math::rng::derive_seed;
use sops::prelude::*;
use sops::sim::force::{ForceModel, LinearForce};
use sops::sim::Trajectory;

/// A small 2-type attracting system that visibly organizes, evaluated
/// every `eval_every` steps. Its equilibrium criterion is loose enough
/// that some runs meet it, so the equilibrated fraction is not trivially
/// zero.
fn scenario(samples: usize, t_max: usize, eval_every: usize) -> ScenarioSpec {
    let k = PairMatrix::constant(2, 1.0);
    let mut r = PairMatrix::constant(2, 1.0);
    r.set(0, 1, 2.0);
    let mut sc = ScenarioSpec::new(
        "attract",
        EnsembleSpec {
            model: Model::balanced(8, ForceModel::Linear(LinearForce::new(k, r)), f64::INFINITY),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max,
            samples,
            seed: 42,
            criterion: Some(EquilibriumCriterion {
                threshold: 3.0,
                patience: 3,
            }),
        },
    );
    sc.eval_every = eval_every;
    sc
}

fn plan(
    samples: usize,
    t_max: usize,
    eval_every: usize,
    threads: usize,
    storage: EnsembleStorage,
) -> SweepPlan {
    SweepPlan {
        scenarios: vec![scenario(samples, t_max, eval_every)],
        measures: vec![
            MeasureConfig::Ksg(KsgConfig {
                k: 3,
                ..KsgConfig::default()
            }),
            MeasureConfig::Gaussian,
            MeasureConfig::Strided {
                family: StridedFamily::Ksg(KsgConfig {
                    k: 3,
                    ..KsgConfig::default()
                }),
                every: 3,
            },
        ],
        seeds: vec![],
        threads,
        storage,
    }
}

/// The independent reference: every sample's whole trajectory from its
/// own `Simulation::run`, one sample after another.
fn whole_trajectories(spec: &EnsembleSpec) -> Vec<Trajectory> {
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

/// Streams `sc` over its evaluation schedule under a residency budget of
/// `budget` bytes and checks every kept frame, and the equilibrated
/// fraction, against the per-sample whole trajectories, bit for bit.
fn assert_frames_match_trajectories(sc: &ScenarioSpec, threads: usize, budget: usize, tag: &str) {
    let whole = whole_trajectories(&sc.ensemble);
    let cfg = StreamingConfig {
        max_resident_bytes: budget,
    };
    let streamed = run_streaming_ensemble(&sc.ensemble, &sc.eval_times(), threads, &cfg);
    let frames = EnsembleFrames::Streaming(&streamed);
    assert_eq!(frames.samples(), whole.len(), "{tag}");
    let bits = |c: &[Vec2]| -> Vec<u64> {
        c.iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
            .collect()
    };
    for t in sc.eval_times() {
        let (mut stage, mut slice) = (Vec::new(), Vec::new());
        frames.at_time_into(t, &mut stage, &mut slice);
        assert_eq!(slice.len(), whole.len(), "{tag} t={t}");
        for (s, (a, run)) in slice.iter().zip(&whole).enumerate() {
            assert_eq!(bits(a), bits(&run.frames[t]), "{tag} t={t} sample={s}");
        }
    }
    let equilibrated = whole
        .iter()
        .filter(|r| r.equilibrium_step.is_some())
        .count() as f64
        / whole.len() as f64;
    assert_eq!(
        frames.equilibrated_fraction().to_bits(),
        equilibrated.to_bits(),
        "{tag}"
    );
}

fn assert_reports_bit_identical(a: &SweepReport, b: &SweepReport, tag: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{tag}");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.status, cb.status, "{tag}");
        assert_eq!(ca.result.mi.times, cb.result.mi.times, "{tag}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&ca.result.mi.values),
            bits(&cb.result.mi.values),
            "{tag}/{}",
            ca.measure_label
        );
        assert_eq!(
            bits(&ca.result.mean_icp_cost),
            bits(&cb.result.mean_icp_cost),
            "{tag}/{}",
            ca.measure_label
        );
        assert_eq!(
            ca.result.equilibrated_fraction.to_bits(),
            cb.result.equilibrated_fraction.to_bits(),
            "{tag}/{}",
            ca.measure_label
        );
    }
}

/// The explicit grid: dense and sparse schedules × threads 1/8 ×
/// {in memory, spill forced by a 1-byte budget}. Streamed frames equal
/// the per-sample whole trajectories', and every sweep cell equals the
/// one-thread in-memory reference.
#[test]
fn streaming_matches_retained_across_schedules_threads_and_spill() {
    for &(samples, t_max, every) in &[(40usize, 20usize, 1usize), (40, 20, 10)] {
        let reference = run_sweep(&plan(samples, t_max, every, 1, EnsembleStorage::default()))
            .expect("valid plan");
        for &threads in &[1usize, 8] {
            for &budget in &[usize::MAX, 1] {
                let tag = format!("every={every} threads={threads} budget={budget}");
                assert_frames_match_trajectories(
                    &scenario(samples, t_max, every),
                    threads,
                    budget,
                    &tag,
                );
                let streamed = run_sweep(&plan(
                    samples,
                    t_max,
                    every,
                    threads,
                    EnsembleStorage::Streaming {
                        max_resident_bytes: budget,
                    },
                ))
                .expect("valid plan");
                assert_reports_bit_identical(&reference, &streamed, &tag);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random shapes: for any (samples, horizon, cadence, worker count,
    /// spill budget) the streamed frames equal the per-sample whole
    /// trajectories' bit for bit, and the sweep cells equal the one-thread
    /// in-memory reference.
    #[test]
    fn streaming_matches_retained_for_random_grids(
        samples in 25usize..40,
        t_max in 6usize..20,
        every in 1usize..12,
        threads in 1usize..9,
        spill in 0usize..2
    ) {
        let spill = spill == 1;
        let budget = if spill { 1 } else { usize::MAX };
        let tag = format!("m={samples} T={t_max} every={every} threads={threads} spill={spill}");
        assert_frames_match_trajectories(&scenario(samples, t_max, every), threads, budget, &tag);
        let reference =
            run_sweep(&plan(samples, t_max, every, 1, EnsembleStorage::default()))
                .expect("valid plan");
        let streamed = run_sweep(&plan(
            samples,
            t_max,
            every,
            threads,
            EnsembleStorage::Streaming { max_resident_bytes: budget },
        ))
        .expect("valid plan");
        assert_reports_bit_identical(&reference, &streamed, &tag);
    }
}

/// Capacity-stable steady state of the streaming evaluation loop: after
/// a warm-up pass over a spill-forced plan, repeated sweeps must not
/// grow any persistent runner buffer — the spill staging buffer of the
/// streaming view materialization included. (Each step's cross-sample
/// slice vector borrows that buffer, so it is allocated per step and is
/// not a persistent buffer.)
#[test]
fn warm_streaming_runner_does_not_allocate() {
    let plan = plan(
        30,
        16,
        4,
        1,
        EnsembleStorage::Streaming {
            max_resident_bytes: 1, // force the spill path every run
        },
    );
    let mut runner = SweepRunner::new();
    runner.run(&plan).expect("valid plan");
    runner.run(&plan).expect("valid plan");
    let warm = runner.capacity_signature();
    for _ in 0..6 {
        runner.run(&plan).expect("valid plan");
        assert_eq!(
            runner.capacity_signature(),
            warm,
            "warm streaming SweepRunner must not grow any internal buffer"
        );
    }
}
