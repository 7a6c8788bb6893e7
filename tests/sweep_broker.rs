//! Contracts of the request broker (`sops_core::broker`): concurrent
//! identical requests collapse to one simulation pass, and nothing the
//! broker does changes a byte of the report.

use sops::core::report::sweep_json;
use sops::prelude::*;
use sops::sim::force::{ForceModel, LinearForce};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn small_scenario(seed: u64) -> ScenarioSpec {
    let k = PairMatrix::constant(2, 1.0);
    let mut r = PairMatrix::constant(2, 1.0);
    r.set(0, 1, 2.0);
    let mut sc = ScenarioSpec::new(
        "attract",
        EnsembleSpec {
            model: Model::balanced(8, ForceModel::Linear(LinearForce::new(k, r)), f64::INFINITY),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max: 8,
            samples: 16,
            seed,
            criterion: None,
        },
    );
    sc.eval_every = 4;
    sc
}

fn one_cell_plan(seed: u64) -> SweepPlan {
    SweepPlan {
        scenarios: vec![small_scenario(seed)],
        measures: vec![MeasureConfig::Gaussian],
        seeds: vec![],
        threads: 1,
        storage: EnsembleStorage::default(),
    }
}

/// Four identical concurrent requests → exactly one simulation pass.
///
/// The pass observer (a test hook that runs after the batching window
/// closes, before the simulation starts) parks the owning request until
/// the other three have arrived and coalesced, so the test is
/// deterministic: the "concurrent requests overlap" race is forced, not
/// hoped for.
#[test]
fn concurrent_identical_requests_share_one_simulation_pass() {
    let plan = one_cell_plan(21);
    let baseline = sweep_json(&run_sweep(&plan).expect("valid plan"), false);

    let broker = SweepBroker::new();
    let counters = broker.counters();
    let passes = Arc::new(AtomicU64::new(0));
    let (obs_counters, obs_passes) = (Arc::clone(&counters), Arc::clone(&passes));
    let broker = Arc::new(broker.with_pass_observer(move |_| {
        obs_passes.fetch_add(1, Ordering::SeqCst);
        // Hold the pass open until the three sibling requests have
        // joined this cell's in-flight slot (bounded: a lost sibling
        // must fail the assertions below, not hang the suite).
        let deadline = Instant::now() + Duration::from_secs(30);
        while obs_counters.cells_coalesced() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }));

    let barrier = Arc::new(Barrier::new(4));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let broker = Arc::clone(&broker);
        let plan = plan.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            sweep_json(&broker.run(&plan).expect("broker run"), false)
        }));
    }
    let bodies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(
        passes.load(Ordering::SeqCst),
        1,
        "four identical requests must trigger exactly one simulation pass"
    );
    let stats = broker.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.sim_passes, 1);
    assert_eq!(stats.cells_computed, 1);
    assert_eq!(stats.cells_coalesced, 3);
    for body in &bodies {
        assert_eq!(body, &baseline, "broker responses must be byte-identical");
    }
}

/// Same-ensemble requests for *different* measures batch into one
/// simulation pass.
///
/// Deterministic construction: request A owns two ensembles. The pass
/// observer parks A's *first* pass, during which request B claims a
/// different measure on A's still-pending *second* ensemble — so B's
/// cell batches onto A's job and rides its simulation. Two ensembles,
/// three cells, exactly two passes.
#[test]
fn same_ensemble_requests_batch_measures_into_one_pass() {
    let plan_a = SweepPlan {
        scenarios: vec![small_scenario(31), small_scenario(32)],
        measures: vec![MeasureConfig::Gaussian],
        seeds: vec![],
        threads: 1,
        storage: EnsembleStorage::default(),
    };
    let mut plan_b = one_cell_plan(32);
    plan_b.measures = vec![MeasureConfig::Binned(sops::info::BinningConfig::default())];
    let expect_a = sweep_json(&run_sweep(&plan_a).expect("valid plan"), false);
    let expect_b = sweep_json(&run_sweep(&plan_b).expect("valid plan"), false);

    let broker = SweepBroker::new();
    let counters = broker.counters();
    let first_pass_started = Arc::new(AtomicU64::new(0));
    let (obs_counters, obs_started) = (Arc::clone(&counters), Arc::clone(&first_pass_started));
    let broker = Arc::new(broker.with_pass_observer(move |_| {
        obs_started.store(1, Ordering::SeqCst);
        // Hold the running pass open until B has batched onto the other
        // (still pending) ensemble job (bounded so a logic bug fails the
        // assertions instead of hanging the suite).
        let deadline = Instant::now() + Duration::from_secs(30);
        while obs_counters.cells_coalesced() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }));

    let a = {
        let broker = Arc::clone(&broker);
        std::thread::spawn(move || sweep_json(&broker.run(&plan_a).expect("request A"), false))
    };
    // B starts only once A's first pass is parked — at that point A has
    // already claimed both ensembles, so B's claim must batch.
    while first_pass_started.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let got_b = sweep_json(&broker.run(&plan_b).expect("request B"), false);
    let got_a = a.join().unwrap();

    let stats = broker.stats();
    assert_eq!(
        stats.sim_passes, 2,
        "B's measure must ride A's second ensemble pass, not start a third"
    );
    assert_eq!(stats.cells_coalesced, 1);
    assert_eq!(stats.cells_computed, 3);
    assert_eq!(got_a, expect_a);
    assert_eq!(got_b, expect_b);
}

/// Sequential identical requests through a cached broker: the second is
/// served entirely from disk, with zero additional passes.
#[test]
fn cached_broker_serves_repeat_requests_without_simulating() {
    let dir = std::env::temp_dir().join("sops_broker_repeat_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(CellCache::open(dir).expect("temp cache dir"));
    let broker = SweepBroker::new().with_cache(cache);
    let plan = one_cell_plan(55);

    let first = sweep_json(&broker.run(&plan).expect("first"), false);
    let second_report = broker.run(&plan).expect("second");
    assert_eq!(sweep_json(&second_report, false), first);
    assert_eq!(second_report.cells[0].provenance, CellProvenance::Cached);

    let stats = broker.stats();
    assert_eq!(stats.sim_passes, 1);
    assert_eq!(stats.cells_cached, 1);
    assert_eq!(stats.cache.expect("cached broker").hits, 1);
}
