//! Contracts of the one-pass sweep engine (`sops_core::scenario`):
//!
//! * every grid cell of a `SweepReport` is **bit-identical** to the same
//!   cell run alone as a one-cell `run_cells` call on a fresh runner, for
//!   evaluation worker counts 1 and 8 (this pins the fan-out itself:
//!   sharing one reduction/observer pass across measures, and one
//!   `MeasureWorkspace` across estimator families, must not perturb any
//!   estimate);
//! * a warmed-up `SweepRunner` grows none of its persistent evaluation
//!   buffers across a 100-cell workload (buffer-capacity stability,
//!   mirroring `crates/sops-info/tests/workspace_measure.rs`).

use sops::prelude::*;
use sops::sim::force::{ForceModel, LinearForce};

/// A small 2-type attracting system that visibly organizes.
fn small_scenario(name: &str, seed: u64, samples: usize, t_max: usize) -> ScenarioSpec {
    let k = PairMatrix::constant(2, 1.0);
    let mut r = PairMatrix::constant(2, 1.0);
    r.set(0, 1, 2.0);
    let mut sc = ScenarioSpec::new(
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
    );
    sc.eval_every = 10;
    sc
}

fn measure_axis() -> Vec<MeasureConfig> {
    vec![
        MeasureConfig::Ksg(KsgConfig {
            k: 3,
            ..KsgConfig::default()
        }),
        MeasureConfig::Kde(sops::info::KdeConfig::default()),
        MeasureConfig::Binned(sops::info::BinningConfig::default()),
        MeasureConfig::Gaussian,
    ]
}

/// The acceptance contract: the sweep grid equals the same cells run as
/// independent one-cell `run_cells` calls, bitwise, for worker counts 1
/// and 8 — and the two worker counts agree with each other.
#[test]
fn sweep_report_bit_matches_single_pipeline_sequence() {
    let scenarios = vec![
        small_scenario("attract", 42, 40, 20),
        small_scenario("attract_other_seed", 43, 40, 20),
    ];
    let measures = measure_axis();
    let mut reports = Vec::new();
    for threads in [1usize, 8] {
        let plan = SweepPlan {
            scenarios: scenarios.clone(),
            measures: measures.clone(),
            seeds: vec![],
            threads,
            storage: EnsembleStorage::default(),
        };
        let report = run_sweep(&plan).expect("valid plan");
        assert_eq!(report.cells.len(), scenarios.len() * measures.len());
        assert!(!report.has_failures(), "{:?}", report.failed_cells());

        // The equivalent sequence of standalone runs, same worker count.
        for cell in &report.cells {
            let sc = scenarios.iter().find(|s| s.name == cell.scenario).unwrap();
            let reference = SweepRunner::new()
                .run_cells(
                    sc,
                    &[cell.measure],
                    std::slice::from_ref(&cell.measure_label),
                    EnsembleStorage::default(),
                    threads,
                )
                .remove(0);
            assert!(reference.status.is_ok(), "{:?}", reference.status);
            let standalone = reference.result;
            assert_eq!(standalone.mi.times, cell.result.mi.times);
            for (a, b) in standalone.mi.values.iter().zip(&cell.result.mi.values) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}/{} threads={threads}: {a} vs {b}",
                    cell.scenario,
                    cell.measure.label()
                );
            }
            for (a, b) in standalone
                .mean_icp_cost
                .iter()
                .zip(&cell.result.mean_icp_cost)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(
                standalone.equilibrated_fraction.to_bits(),
                cell.result.equilibrated_fraction.to_bits()
            );
        }
        reports.push(report);
    }

    // Worker count must not change a single bit anywhere in the grid.
    for (a, b) in reports[0].cells.iter().zip(&reports[1].cells) {
        assert_eq!(a.scenario, b.scenario);
        for (x, y) in a.result.mi.values.iter().zip(&b.result.mi.values) {
            assert_eq!(x.to_bits(), y.to_bits(), "threads 1 vs 8 diverged");
        }
    }
}

/// 100-cell capacity test: once the runner has seen the workload shapes,
/// driving many more grid cells through it must not grow any internal
/// buffer (the sweep sibling of the `workspace_measure.rs` contract).
/// Like that suite, the check runs on one evaluation worker: with
/// several racing workers the *signature* is claim-schedule-dependent
/// (which worker warmed which engine), even though capacities still only
/// ever grow to the bounded workload.
#[test]
fn warm_sweep_runner_does_not_allocate() {
    let plan = SweepPlan {
        scenarios: vec![small_scenario("a", 7, 24, 8), small_scenario("b", 8, 24, 8)],
        measures: measure_axis(),
        seeds: vec![],
        threads: 1,
        storage: EnsembleStorage::default(),
    };
    assert_eq!(plan.cell_count(), 8);
    let mut runner = SweepRunner::new();
    // Warm-up: two passes so every estimator family's scratch reaches its
    // steady-state capacity for this workload.
    runner.run(&plan).expect("valid plan");
    runner.run(&plan).expect("valid plan");
    let warm = runner.capacity_signature();

    // 13 more passes × 8 cells > 100 cells through the warm runner.
    for _ in 0..13 {
        runner.run(&plan).expect("valid plan");
        assert_eq!(
            runner.capacity_signature(),
            warm,
            "warm SweepRunner must not grow any internal buffer"
        );
    }
}

/// The one-pass engine and the registry compose: builtin scenarios at
/// smoke scale produce a full grid with the expected separation between
/// organizing scenarios and the null control.
#[test]
fn builtin_registry_sweep_separates_null_control() {
    let registry = ScenarioRegistry::builtin();
    let scenarios: Vec<ScenarioSpec> = registry
        .iter()
        .map(|sc| sc.clone().with_scale(60, 20))
        .collect();
    let plan = SweepPlan::new(scenarios, vec![MeasureConfig::default()]);
    let report = run_sweep(&plan).expect("valid plan");
    assert_eq!(report.cells.len(), 3);
    let sorting = report.get("cell_sorting", "ksg", None).unwrap();
    let null = report.get("mixing_null", "ksg", None).unwrap();
    assert!(
        sorting.result.mi.increase() > 1.0,
        "cell sorting must organize: ΔI = {}",
        sorting.result.mi.increase()
    );
    assert!(
        null.result.mi.increase() < 0.5 * sorting.result.mi.increase(),
        "null control must not: ΔI = {} vs {}",
        null.result.mi.increase(),
        sorting.result.mi.increase()
    );
}
