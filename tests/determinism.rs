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
    let mut p = Pipeline::new(spec(2024));
    p.eval_every = 5;
    let a = run_pipeline(&p);
    let b = run_pipeline(&p);
    assert_bit_identical(&a, &b, "same seed, two runs");
}

#[test]
fn pipeline_bitwise_identical_across_explicit_and_auto_threads() {
    // threads = 0 resolves to the machine's parallelism; the result must
    // still be bit-identical to a single-threaded run — the parallel
    // ensemble writes into per-index slots with per-index derived seeds,
    // so scheduling must never leak into the numbers.
    let mut p1 = Pipeline::new(spec(0xD17E_4311));
    p1.eval_every = 5;
    p1.threads = 1;
    let mut p_auto = p1.clone();
    p_auto.threads = 0;
    let a = run_pipeline(&p1);
    let b = run_pipeline(&p_auto);
    assert_bit_identical(&a, &b, "threads=1 vs threads=0");
}

#[test]
fn pipeline_independent_of_thread_count() {
    let mut p1 = Pipeline::new(spec(7));
    p1.eval_every = 5;
    p1.threads = 1;
    let mut p8 = p1.clone();
    p8.threads = 8;
    let a = run_pipeline(&p1);
    let b = run_pipeline(&p8);
    assert_bit_identical(&a, &b, "threads=1 vs threads=8");
}

#[test]
fn different_seeds_give_different_but_similar_results() {
    let mut p1 = Pipeline::new(spec(1));
    p1.eval_every = 25;
    let mut p2 = Pipeline::new(spec(2));
    p2.eval_every = 25;
    let a = run_pipeline(&p1);
    let b = run_pipeline(&p2);
    // Different realizations...
    assert_ne!(a.mi.values, b.mi.values);
    // ...of the same physics: both organize.
    assert!(a.mi.increase() > 0.3, "{:?}", a.mi.values);
    assert!(b.mi.increase() > 0.3, "{:?}", b.mi.values);
}

#[test]
fn ensembles_reproducible_across_thread_counts() {
    let e1 = run_ensemble(&spec(55), 1);
    let e8 = run_ensemble(&spec(55), 8);
    for (a, b) in e1.runs.iter().zip(&e8.runs) {
        assert_eq!(a.frames, b.frames, "trajectories must be identical");
        assert_eq!(a.force_norms, b.force_norms);
    }
}

#[test]
fn environment_thread_override_is_respected() {
    // SOPS_THREADS only affects scheduling, never results.
    std::env::set_var("SOPS_THREADS", "2");
    let a = run_ensemble(&spec(3), 0);
    std::env::remove_var("SOPS_THREADS");
    let b = run_ensemble(&spec(3), 4);
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.frames, y.frames);
    }
}
