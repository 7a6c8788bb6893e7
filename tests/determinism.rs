//! End-to-end determinism: the full pipeline must be bit-reproducible in
//! its seed and independent of thread scheduling — the property that
//! makes every reported number regenerable from its seed.

use sops::prelude::*;

fn spec(seed: u64) -> EnsembleSpec {
    let k = PairMatrix::constant(3, 1.0);
    let r = PairMatrix::from_full(3, &[2.5, 5.0, 4.0, 5.0, 2.5, 2.0, 4.0, 2.0, 3.5]);
    EnsembleSpec {
        model: Model::balanced(12, ForceModel::Linear(LinearForce::new(k, r)), 5.0),
        integrator: IntegratorConfig::default(),
        init_radius: 3.0,
        t_max: 25,
        samples: 50,
        seed,
        criterion: None,
    }
}

/// One default-KSG cell of `spec(seed)`, evaluated every `eval_every`
/// steps on `threads` workers: a one-cell sweep.
fn run_cell(seed: u64, eval_every: usize, threads: usize) -> PipelineResult {
    let mut scenario = ScenarioSpec::new("determinism", spec(seed));
    scenario.eval_every = eval_every;
    let mut plan = SweepPlan::new(vec![scenario], vec![MeasureConfig::default()]);
    plan.threads = threads;
    let cell = run_sweep(&plan).expect("valid plan").cells.remove(0);
    assert!(cell.status.is_ok(), "{:?}", cell.status);
    cell.result
}

/// Every field of the result, compared at the bit level — `f64` equality
/// would hide sign/NaN drift.
fn assert_bit_identical(a: &PipelineResult, b: &PipelineResult, what: &str) {
    assert_eq!(a.mi.times, b.mi.times, "{what}: eval times");
    assert_eq!(
        a.mi.values.len(),
        b.mi.values.len(),
        "{what}: series length"
    );
    for (i, (x, y)) in a.mi.values.iter().zip(&b.mi.values).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: mi[{i}] {x} vs {y}");
    }
    assert_eq!(
        a.mean_icp_cost.len(),
        b.mean_icp_cost.len(),
        "{what}: icp cost series length"
    );
    for (i, (x, y)) in a.mean_icp_cost.iter().zip(&b.mean_icp_cost).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: icp_cost[{i}] {x} vs {y}");
    }
    assert_eq!(
        a.equilibrated_fraction.to_bits(),
        b.equilibrated_fraction.to_bits(),
        "{what}: equilibrated fraction"
    );
}

#[test]
fn pipeline_bitwise_reproducible() {
    let a = run_cell(2024, 5, 0);
    let b = run_cell(2024, 5, 0);
    assert_bit_identical(&a, &b, "same seed, two runs");
}

#[test]
fn pipeline_bitwise_identical_across_explicit_and_auto_threads() {
    // threads = 0 resolves to the machine's parallelism; the result must
    // still be bit-identical to a single-threaded run — the parallel
    // ensemble writes into per-index slots with per-index derived seeds,
    // so scheduling must never leak into the numbers.
    let a = run_cell(0xD17E_4311, 5, 1);
    let b = run_cell(0xD17E_4311, 5, 0);
    assert_bit_identical(&a, &b, "threads=1 vs threads=0");
}

#[test]
fn pipeline_independent_of_thread_count() {
    let a = run_cell(7, 5, 1);
    let b = run_cell(7, 5, 8);
    assert_bit_identical(&a, &b, "threads=1 vs threads=8");
}

#[test]
fn different_seeds_give_different_but_similar_results() {
    let a = run_cell(1, 25, 0);
    let b = run_cell(2, 25, 0);
    // Different realizations...
    assert_ne!(a.mi.values, b.mi.values);
    // ...of the same physics: both organize.
    assert!(a.mi.increase() > 0.3, "{:?}", a.mi.values);
    assert!(b.mi.increase() > 0.3, "{:?}", b.mi.values);
}

/// `spec(seed)` streamed at every step on `threads` workers, read back
/// as the bits of every coordinate of each sample, one slice per step —
/// `Vec2` equality would let a `−0.0`/`+0.0` swap pass.
fn every_step(seed: u64, threads: usize) -> Vec<Vec<Vec<u64>>> {
    let spec = spec(seed);
    let steps: Vec<usize> = (0..=spec.t_max).collect();
    let ensemble = run_streaming_ensemble(&spec, &steps, threads, &StreamingConfig::default());
    let frames = EnsembleFrames::Streaming(&ensemble);
    steps
        .iter()
        .map(|&t| {
            let (mut stage, mut slice) = (Vec::new(), Vec::new());
            frames.at_time_into(t, &mut stage, &mut slice);
            slice
                .iter()
                .map(|c| {
                    c.iter()
                        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn ensembles_reproducible_across_thread_counts() {
    let e1 = every_step(55, 1);
    let e8 = every_step(55, 8);
    assert_eq!(e1.len(), e8.len());
    for (t, (a, b)) in e1.iter().zip(&e8).enumerate() {
        assert_eq!(a, b, "trajectories must be identical at step {t}");
    }
}

#[test]
fn environment_thread_override_is_respected() {
    // SOPS_THREADS only affects scheduling, never results.
    std::env::set_var("SOPS_THREADS", "2");
    let a = every_step(3, 0);
    std::env::remove_var("SOPS_THREADS");
    let b = every_step(3, 4);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y);
    }
}
