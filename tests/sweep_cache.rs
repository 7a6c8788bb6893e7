//! Contracts of the content-addressed cell cache
//! (`sops_core::cache`): caching is invisible in the results.
//!
//! * `sweep.json` bytes are identical for an uncached run, a cold-cache
//!   run (every cell computed then stored), a warm-cache run (every
//!   cell served from disk) and a broker run over the same cache — for
//!   evaluation worker counts 1 and 8, property-tested over seeds;
//! * a partially warm cache computes exactly the missing cells and
//!   still reproduces the uncached bytes;
//! * provenance labels the reuse without ever entering the canonical
//!   JSON.

use proptest::prelude::*;
use sops::core::report::sweep_json;
use sops::prelude::*;
use sops::sim::force::{ForceModel, LinearForce};
use std::sync::Arc;

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
    sc.eval_every = 4;
    sc
}

fn small_plan(seed: u64, threads: usize, measures: Vec<MeasureConfig>) -> SweepPlan {
    SweepPlan {
        scenarios: vec![
            small_scenario("attract", seed, 16, 8),
            small_scenario("attract_b", seed + 1, 16, 8),
        ],
        measures,
        seeds: vec![],
        threads,
        storage: EnsembleStorage::default(),
    }
}

fn fresh_cache(name: &str) -> CellCache {
    let dir = std::env::temp_dir().join(format!("sops_sweep_cache_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    CellCache::open(dir).expect("temp cache dir")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The acceptance property: uncached, cold-cache, warm-cache and
    /// broker-over-cache runs of the same plan produce byte-identical
    /// canonical `sweep.json`, at 1 and 8 evaluation workers.
    #[test]
    fn cache_and_broker_never_change_a_byte(seed in 0u64..1000) {
        let measures = vec![
            MeasureConfig::Gaussian,
            MeasureConfig::Ksg(KsgConfig { k: 3, ..KsgConfig::default() }),
        ];
        for threads in [1usize, 8] {
            let plan = small_plan(seed, threads, measures.clone());
            let uncached = sweep_json(&run_sweep(&plan).expect("valid plan"), false);

            let cache = fresh_cache(&format!("prop_{seed}_{threads}"));
            let mut runner = SweepRunner::new();
            let cold_report = runner.run_with_cache(&plan, &cache).expect("cold run");
            prop_assert!(cold_report
                .cells
                .iter()
                .all(|c| c.provenance == CellProvenance::Computed));
            prop_assert_eq!(&sweep_json(&cold_report, false), &uncached);

            let warm_report = runner.run_with_cache(&plan, &cache).expect("warm run");
            prop_assert!(warm_report
                .cells
                .iter()
                .all(|c| c.provenance == CellProvenance::Cached));
            prop_assert_eq!(&sweep_json(&warm_report, false), &uncached);

            let broker = SweepBroker::new().with_cache(Arc::new(cache));
            let broker_report = broker.run(&plan).expect("broker run");
            prop_assert!(broker_report
                .cells
                .iter()
                .all(|c| c.provenance == CellProvenance::Cached));
            prop_assert_eq!(&sweep_json(&broker_report, false), &uncached);
            prop_assert_eq!(broker.counters().sim_passes(), 0);
        }
    }
}

/// A cache warmed with a subset of the measure axis serves that subset
/// and computes only the rest — and the assembled report still equals
/// the uncached superset run byte for byte.
#[test]
fn partially_warm_cache_computes_only_the_missing_cells() {
    let gaussian = vec![MeasureConfig::Gaussian];
    let both = vec![
        MeasureConfig::Gaussian,
        MeasureConfig::Ksg(KsgConfig {
            k: 3,
            ..KsgConfig::default()
        }),
    ];
    let cache = fresh_cache("partial");
    let mut runner = SweepRunner::new();

    // Warm only the Gaussian column (2 scenarios × 1 measure).
    runner
        .run_with_cache(&small_plan(7, 2, gaussian), &cache)
        .expect("warm-up");
    assert_eq!(cache.len(), 2);

    let superset = small_plan(7, 2, both);
    let uncached = sweep_json(&run_sweep(&superset).expect("valid plan"), false);
    let report = runner.run_with_cache(&superset, &cache).expect("mixed run");
    assert_eq!(sweep_json(&report, false), uncached);
    for cell in &report.cells {
        let expected = if cell.measure_label == "gaussian" {
            CellProvenance::Cached
        } else {
            CellProvenance::Computed
        };
        assert_eq!(
            cell.provenance, expected,
            "{}/{}",
            cell.scenario, cell.measure_label
        );
    }
    // The KSG column was backfilled: everything is on disk now.
    assert_eq!(cache.len(), 4);
    let stats = cache.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.stores, 4);
}

/// Provenance is metadata: it shows up in the opt-in serve JSON and
/// never in the canonical writer's bytes.
#[test]
fn provenance_is_opt_in_metadata() {
    let plan = small_plan(11, 1, vec![MeasureConfig::Gaussian]);
    let cache = fresh_cache("metadata");
    let mut runner = SweepRunner::new();
    runner.run_with_cache(&plan, &cache).expect("cold");
    let warm = runner.run_with_cache(&plan, &cache).expect("warm");
    let canonical = sweep_json(&warm, false);
    assert!(!canonical.contains("provenance"), "{canonical}");
    assert!(!canonical.contains("cached"), "{canonical}");
    let annotated = sweep_json(&warm, true);
    assert!(
        annotated.contains("\"provenance\": \"cached\", \"cached\": true"),
        "{annotated}"
    );
}
