//! Streaming-vs-retained contracts of the out-of-core ensemble layer
//! (`sops_sim::streaming` threaded through the sweep engine):
//!
//! * **bit-identity** — a sweep run under `EnsembleStorage::Streaming`
//!   (in-memory and spill-forced) produces cells bit-identical to the
//!   retained-trajectory reference, for worker counts 1 and 8 and for
//!   dense and sparse evaluation schedules (property-tested over random
//!   grid shapes);
//! * **bounded steady state** — a warmed-up `SweepRunner` driving a
//!   spill-forced streaming workload does not grow any internal buffer
//!   (the capacity-signature contract extended to the streaming eval
//!   loop's staging buffers).

use proptest::prelude::*;
use sops::prelude::*;
use sops::sim::force::{ForceModel, LinearForce};

/// A small 2-type attracting system that visibly organizes.
fn small_scenario(name: &str, seed: u64, samples: usize, t_max: usize) -> ScenarioSpec {
    let k = PairMatrix::constant(2, 1.0);
    let mut r = PairMatrix::constant(2, 1.0);
    r.set(0, 1, 2.0);
    ScenarioSpec::new(
        name,
        EnsembleSpec {
            model: Model::balanced(8, ForceModel::Linear(LinearForce::new(k, r)), f64::INFINITY),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max,
            samples,
            seed,
            criterion: None,
        },
    )
}

fn plan(
    samples: usize,
    t_max: usize,
    eval_every: usize,
    threads: usize,
    storage: EnsembleStorage,
) -> SweepPlan {
    let mut sc = small_scenario("attract", 42, samples, t_max);
    sc.eval_every = eval_every;
    SweepPlan {
        scenarios: vec![sc],
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

/// The ISSUE's explicit grid: dense and sparse schedules × threads 1/8 ×
/// {in-memory streaming, spill forced by a 1-byte budget}, all
/// bit-identical to the retained reference.
#[test]
fn streaming_matches_retained_across_schedules_threads_and_spill() {
    for &(samples, t_max, every) in &[(40usize, 20usize, 1usize), (40, 20, 10)] {
        for &threads in &[1usize, 8] {
            let reference = run_sweep(&plan(
                samples,
                t_max,
                every,
                threads,
                EnsembleStorage::Retained,
            ))
            .expect("valid plan");
            for &budget in &[usize::MAX, 1] {
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
                assert_reports_bit_identical(
                    &reference,
                    &streamed,
                    &format!("every={every} threads={threads} budget={budget}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random grid shapes: any (samples, horizon, cadence, worker count,
    /// spill budget) agrees bit-for-bit with the retained reference.
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
        let reference =
            run_sweep(&plan(samples, t_max, every, threads, EnsembleStorage::Retained))
                .expect("valid plan");
        let streamed = run_sweep(&plan(
            samples,
            t_max,
            every,
            threads,
            EnsembleStorage::Streaming { max_resident_bytes: budget },
        ))
        .expect("valid plan");
        assert_reports_bit_identical(
            &reference,
            &streamed,
            &format!("m={samples} T={t_max} every={every} threads={threads} spill={spill}"),
        );
    }
}

/// Zero-allocation steady state of the streaming evaluation loop: after
/// a warm-up pass over a spill-forced plan, repeated sweeps must not
/// grow any internal runner buffer — the staging buffer and slice vector
/// of the streaming view materialization included.
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
