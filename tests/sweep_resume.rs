//! Fault-tolerance contracts of the sweep layer: resume through the
//! content-addressed cell cache (`sops_core::cache` +
//! `SweepRunner::run_with_cache`) and panic quarantine
//! (`sops_core::scenario`):
//!
//! * **bit-identical resume** — a sweep killed at *any* ensemble
//!   boundary, or mid-ensemble after only its first measure was stored,
//!   and re-run over the same cache produces the same report, bit for
//!   bit, and the same `sweep.json`, byte for byte, as an uncached run,
//!   for evaluation worker counts 1 and 8; the cells stored before the
//!   kill read `Cached` and the rest `Computed`;
//! * **panic quarantine** — an injected panicking estimator cell is
//!   recorded as `CellStatus::Failed` while every other cell completes
//!   intact and the sweep returns `Ok`; quarantined cells are never
//!   stored, so a re-run retries them and reproduces the same status and
//!   bytes;
//! * **simulation quarantine** — a panicking *simulation* quarantines
//!   the whole ensemble with a `simulation …` reason, other ensembles
//!   unaffected;
//! * **changed plans** — a plan with one scenario's horizon changed
//!   computes only that scenario's cells and reuses every other one;
//! * **corruption** — a cache entry truncated mid-token is evicted and
//!   recomputed, and the `sweep.json` bytes do not change.

use sops::core::checkpoint::cell_key;
use sops::core::report::sweep_json;
use sops::prelude::*;
use sops::sim::force::{ForceLaw, ForceModel, LinearForce};

/// A small 2-type attracting system that visibly organizes.
fn small_scenario(name: &str, seed: u64) -> ScenarioSpec {
    let k = PairMatrix::constant(2, 1.0);
    let mut r = PairMatrix::constant(2, 1.0);
    r.set(0, 1, 2.0);
    let mut sc = ScenarioSpec::new(
        name,
        EnsembleSpec {
            model: Model::balanced(8, ForceModel::Linear(LinearForce::new(k, r)), f64::INFINITY),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max: 20,
            samples: 40,
            seed,
            criterion: None,
        },
    );
    sc.eval_every = 10;
    sc
}

/// 2 scenarios × 2 seeds × 2 measures = 4 ensembles, 8 cells.
fn resume_plan(threads: usize) -> SweepPlan {
    SweepPlan {
        scenarios: vec![small_scenario("attract", 42), small_scenario("other", 43)],
        measures: vec![
            MeasureConfig::Ksg(KsgConfig {
                k: 3,
                ..KsgConfig::default()
            }),
            MeasureConfig::Gaussian,
        ],
        seeds: vec![5, 6],
        threads,
        storage: EnsembleStorage::default(),
    }
}

/// Fresh cache directory per test (tests run in parallel).
fn fresh_cache(tag: &str) -> CellCache {
    let dir = std::env::temp_dir().join(format!("sops_sweep_resume_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    CellCache::open(dir).expect("temp cache dir")
}

/// The key `plan`'s runner looks `cell` up by: its scenario reseeded to
/// the cell's seed, times the cell's measure.
fn key_of(plan: &SweepPlan, cell: &SweepCell) -> u64 {
    let base = plan
        .scenarios
        .iter()
        .find(|sc| sc.name == cell.scenario)
        .expect("cell scenario is in the plan");
    cell_key(&base.clone().with_seed(cell.seed), &cell.measure).expect("serializable scenario")
}

fn assert_cells_bit_identical(a: &SweepReport, b: &SweepReport) {
    assert_eq!(a.cells.len(), b.cells.len());
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        let tag = format!("{}/{}#{}", ca.scenario, ca.measure_label, ca.seed);
        assert_eq!(ca.scenario, cb.scenario, "{tag}");
        assert_eq!(ca.measure_label, cb.measure_label, "{tag}");
        assert_eq!(ca.seed, cb.seed, "{tag}");
        assert_eq!(ca.status, cb.status, "{tag}");
        assert_eq!(ca.result.mi.times, cb.result.mi.times, "{tag}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&ca.result.mi.values),
            bits(&cb.result.mi.values),
            "{tag}"
        );
        assert_eq!(
            bits(&ca.result.mean_icp_cost),
            bits(&cb.result.mean_icp_cost),
            "{tag}"
        );
        assert_eq!(
            ca.result.equilibrated_fraction.to_bits(),
            cb.result.equilibrated_fraction.to_bits(),
            "{tag}"
        );
    }
}

/// The headline invariant: for every prefix of stored cells a kill can
/// leave behind — every ensemble boundary, plus a kill mid-ensemble
/// after only its first measure was stored — re-running over the cache
/// reproduces the uncached report bit for bit and its `sweep.json` byte
/// for byte, for worker counts 1 and 8, and computes only what was
/// missing.
#[test]
fn kill_at_any_boundary_and_resume_is_bit_identical() {
    for threads in [1usize, 8] {
        let plan = resume_plan(threads);
        let n_measures = plan.measures.len();
        let reference = run_sweep(&plan).expect("valid plan");
        let ref_bytes = sweep_json(&reference, false);

        let n_ensembles = reference.cells.len() / n_measures;
        let mut kills: Vec<usize> = (0..=n_ensembles).map(|e| e * n_measures).collect();
        kills.push(n_measures + 1);
        for stored in kills {
            // A run killed after storing its first `stored` cells.
            let cache = fresh_cache(&format!("boundary_t{threads}_{stored}"));
            for cell in &reference.cells[..stored] {
                cache.store(key_of(&plan, cell), &cell.result);
            }

            let resumed = SweepRunner::new()
                .run_with_cache(&plan, &cache)
                .expect("valid plan");
            assert_cells_bit_identical(&reference, &resumed);
            assert_eq!(
                sweep_json(&resumed, false),
                ref_bytes,
                "threads {threads}, {stored} stored cell(s): sweep.json diverged"
            );
            for (i, cell) in resumed.cells.iter().enumerate() {
                let expected = if i < stored {
                    CellProvenance::Cached
                } else {
                    CellProvenance::Computed
                };
                assert_eq!(
                    cell.provenance, expected,
                    "threads {threads}, {stored} stored cell(s), cell {i}"
                );
            }
            std::fs::remove_dir_all(cache.dir()).ok();
        }
    }
}

/// An estimator that panics on every cell (KSG with k ≥ samples) is
/// quarantined per cell: the sweep completes with `Ok` and the healthy
/// measure's cells are intact. Quarantined cells are never stored, so a
/// re-run over the same cache serves the healthy cells, retries the
/// poisoned ones, and reproduces the same statuses and bytes. The
/// failure reason is the estimator's own message at any worker count,
/// so `sweep.json` is byte-identical at 1 and 8 workers.
#[test]
fn panicking_estimator_is_quarantined_and_resumes_as_is() {
    let mut bytes_by_threads = Vec::new();
    for threads in [1usize, 8] {
        let mut plan = resume_plan(threads);
        plan.measures[0] = MeasureConfig::Ksg(KsgConfig {
            k: 1000, // >= samples: panics in the KSG estimator
            ..KsgConfig::default()
        });
        let cache = fresh_cache(&format!("quarantine_t{threads}"));

        let report = SweepRunner::new()
            .run_with_cache(&plan, &cache)
            .expect("quarantine must not abort the sweep");
        assert_eq!(report.cells.len(), 8);
        assert!(report.has_failures());
        for cell in &report.cells {
            if cell.measure_label == "ksg" {
                match &cell.status {
                    CellStatus::Failed { reason } => {
                        assert!(reason.contains("attempt"), "{reason}");
                        assert!(
                            reason.contains("KSG: k = 1000 needs more than"),
                            "threads {threads}: the reason must name the estimator's panic: {reason}"
                        );
                    }
                    ok => panic!("ksg cell unexpectedly {ok:?}"),
                }
                assert!(cell.result.mi.values.is_empty());
            } else {
                assert_eq!(cell.status, CellStatus::Ok, "{}", cell.measure_label);
                assert!(cell.result.mi.values.iter().all(|v| v.is_finite()));
            }
        }
        // Healthy cells bit-match a clean single-measure sweep of the same
        // ensembles (quarantine must not perturb the survivors).
        let clean_plan = SweepPlan {
            measures: vec![MeasureConfig::Gaussian],
            ..plan.clone()
        };
        let clean = run_sweep(&clean_plan).expect("valid plan");
        for (poisoned, clean_cell) in report
            .cells
            .iter()
            .filter(|c| c.measure_label == "gaussian")
            .zip(&clean.cells)
        {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&poisoned.result.mi.values),
                bits(&clean_cell.result.mi.values)
            );
        }
        // Only the four healthy cells reached the cache.
        assert_eq!(cache.len(), 4);

        let rerun = SweepRunner::new()
            .run_with_cache(&plan, &cache)
            .expect("valid plan");
        assert_cells_bit_identical(&report, &rerun);
        assert_eq!(sweep_json(&rerun, false), sweep_json(&report, false));
        for cell in &rerun.cells {
            let expected = if cell.status.is_ok() {
                CellProvenance::Cached
            } else {
                CellProvenance::Computed
            };
            assert_eq!(cell.provenance, expected, "{}", cell.measure_label);
        }
        bytes_by_threads.push(sweep_json(&report, false));
        std::fs::remove_dir_all(cache.dir()).ok();
    }
    assert_eq!(
        bytes_by_threads[0], bytes_by_threads[1],
        "sweep.json differs between 1 and 8 workers"
    );
}

/// A panicking *simulation* (a force law that detonates mid-sweep — the
/// spec itself passes `EnsembleSpec::check`, so the failure only
/// surfaces inside `run_streaming_ensemble`) quarantines every cell of
/// that ensemble with a `simulation …` reason; the other scenario's
/// ensembles are unaffected.
#[test]
fn panicking_simulation_quarantines_the_whole_ensemble() {
    #[derive(Debug)]
    struct Grenade;
    impl ForceLaw for Grenade {
        fn types(&self) -> usize {
            2
        }
        fn scale(&self, _: usize, _: usize, _: f64) -> f64 {
            panic!("force law detonated")
        }
        fn preferred_distance(&self, _: usize, _: usize) -> Option<f64> {
            None
        }
    }
    let mut plan = resume_plan(1);
    plan.scenarios[1].ensemble.model = Model::balanced(
        8,
        ForceModel::Custom(std::sync::Arc::new(Grenade)),
        f64::INFINITY,
    );

    let report = run_sweep(&plan).expect("quarantine must not abort the sweep");
    assert_eq!(report.cells.len(), 8);
    for cell in &report.cells {
        if cell.scenario == "other" {
            match &cell.status {
                CellStatus::Failed { reason } => {
                    assert!(reason.starts_with("simulation"), "{reason}");
                    assert!(reason.contains("force law detonated"), "{reason}");
                }
                ok => panic!("cell of broken scenario unexpectedly {ok:?}"),
            }
        } else {
            assert_eq!(cell.status, CellStatus::Ok, "{}", cell.scenario);
        }
    }
}

/// An *invalid* ensemble spec is no longer a quarantined panic: the plan
/// is rejected up front with a typed `SweepError::InvalidPlan` naming
/// the offending scenario (the PR 7 error spine, extended to the
/// simulation-side validators).
#[test]
fn invalid_integrator_is_a_typed_plan_error_not_a_quarantine() {
    let mut plan = resume_plan(1);
    plan.scenarios[1].ensemble.integrator.dt = 0.0;
    let err = run_sweep(&plan).expect_err("dt == 0 must be rejected up front");
    match &err {
        SweepError::InvalidPlan(reason) => {
            assert!(reason.contains("other"), "{reason}");
            assert!(reason.contains("dt must be positive"), "{reason}");
        }
        other => panic!("expected InvalidPlan, got {other}"),
    }
    // The same spine catches a degenerate sample axis.
    let mut plan = resume_plan(1);
    plan.scenarios[0].ensemble.samples = 0;
    let err = run_sweep(&plan).expect_err("zero samples must be rejected up front");
    assert!(
        matches!(&err, SweepError::InvalidPlan(r) if r.contains("at least one sample")),
        "{err}"
    );
}

/// A plan that changes one scenario's horizon reuses the other
/// scenario's cells and computes only the changed ones — and matches an
/// uncached run of the changed plan byte for byte.
#[test]
fn changed_plan_recomputes_only_the_changed_scenario() {
    let plan = resume_plan(1);
    let cache = fresh_cache("changed_plan");
    SweepRunner::new()
        .run_with_cache(&plan, &cache)
        .expect("valid plan");
    assert_eq!(cache.len(), 8);

    let mut changed = plan.clone();
    changed.scenarios[0].ensemble.t_max += 10;
    let uncached = sweep_json(&run_sweep(&changed).expect("valid plan"), false);
    let report = SweepRunner::new()
        .run_with_cache(&changed, &cache)
        .expect("valid plan");
    assert_eq!(sweep_json(&report, false), uncached);
    for cell in &report.cells {
        let expected = if cell.scenario == "attract" {
            CellProvenance::Computed
        } else {
            CellProvenance::Cached
        };
        assert_eq!(
            cell.provenance, expected,
            "{}/{}#{}",
            cell.scenario, cell.measure_label, cell.seed
        );
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.stores), (4, 8 + 4));
    std::fs::remove_dir_all(cache.dir()).ok();
}

/// An entry torn mid-write (truncated mid-token) is a typed parse error;
/// the re-run evicts it, recomputes that one cell, stores it back whole,
/// and the `sweep.json` bytes do not change.
#[test]
fn truncated_cache_entry_is_evicted_and_recomputed() {
    let plan = resume_plan(1);
    let ref_bytes = sweep_json(&run_sweep(&plan).expect("valid plan"), false);
    let cache = fresh_cache("truncated");
    let cold = SweepRunner::new()
        .run_with_cache(&plan, &cache)
        .expect("valid plan");

    let victim = 2;
    let key = key_of(&plan, &cold.cells[victim]);
    let path = cache.entry_path(key);
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() * 2 / 3]).unwrap();
    let err = cache.load(key).unwrap_err();
    assert!(matches!(err, SweepError::Parse { .. }), "{err}");

    let rerun = SweepRunner::new()
        .run_with_cache(&plan, &cache)
        .expect("valid plan");
    assert_cells_bit_identical(&cold, &rerun);
    assert_eq!(sweep_json(&rerun, false), ref_bytes);
    for (i, cell) in rerun.cells.iter().enumerate() {
        let expected = if i == victim {
            CellProvenance::Computed
        } else {
            CellProvenance::Cached
        };
        assert_eq!(cell.provenance, expected, "cell {i}");
    }
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.load(key).expect("healthy entry").is_some());
    std::fs::remove_dir_all(cache.dir()).ok();
}
