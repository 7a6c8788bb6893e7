//! Simulation benches: force-evaluation paths, integrator ablations and
//! ensemble throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sops_bench::cloud;
use sops_core::{
    checkpoint, scenario, CellCache, EnsembleStorage, SweepBroker, SweepPlan, SweepRunner,
};
use sops_info::MeasureConfig;
use sops_math::rng::derive_seed;
use sops_math::PairMatrix;
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::{ForceModel, GaussianForce, LinearForce};
use sops_sim::streaming::{run_streaming_ensemble, StreamingConfig};
use sops_sim::{ForceWorkspace, IntegratorConfig, Model, Simulation};
use std::hint::black_box;

fn linear_model(n: usize, cutoff: f64) -> Model {
    Model::balanced(
        n,
        ForceModel::Linear(LinearForce::uniform(1.0, 2.0)),
        cutoff,
    )
}

fn bench_force_paths(c: &mut Criterion) {
    // The cell-grid path activates for finite cutoff and n >= 64; compare
    // against the direct O(n²) loop via an infinite cutoff of equal work.
    // Both paths run through a persistent ForceWorkspace, the engine the
    // integrator drives every substep.
    let mut group = c.benchmark_group("net_forces");
    group.sample_size(30);
    let mut ws = ForceWorkspace::new();
    for &n in &[50usize, 200, 512, 800] {
        let pts = cloud(n, (n as f64).sqrt(), 5);
        let grid_model = linear_model(n, 3.0);
        let direct_model = linear_model(n, f64::INFINITY);
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("cutoff_grid", n), &pts, |b, pts| {
            b.iter(|| ws.net_forces_into(&grid_model, black_box(pts), &mut out))
        });
        group.bench_with_input(BenchmarkId::new("all_pairs", n), &pts, |b, pts| {
            b.iter(|| ws.net_forces_into(&direct_model, black_box(pts), &mut out))
        });
    }
    // `cell_sorting`'s two-type law at `cell_sorting_xl`'s density
    // (~1.4 particles per unit²) and cut-off (3): the traffic's candidate
    // rows (~19 and ~38 long) and its typed hit pass, which the ~2
    // particles per cell above never reach.
    let sorting = scenario::cell_sorting().ensemble.model.law().clone();
    for &n in &[5_000usize, 20_000] {
        let pts = cloud(n, 0.5 * (n as f64 / 1.4).sqrt(), 5);
        let model = Model::balanced(n, sorting.clone(), 3.0);
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("cutoff_grid_dense", n), &pts, |b, pts| {
            b.iter(|| ws.net_forces_into(&model, black_box(pts), &mut out))
        });
    }
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // Cost of NOT holding a workspace: the one-shot row builds a fresh
    // ForceWorkspace per call, re-allocating grid and scratch each time.
    let mut group = c.benchmark_group("workspace");
    group.sample_size(30);
    let n = 512;
    let pts = cloud(n, (n as f64).sqrt(), 5);
    let model = linear_model(n, 3.0);
    let mut out = Vec::new();
    let mut ws = ForceWorkspace::new();
    group.bench_function("persistent/512", |b| {
        b.iter(|| ws.net_forces_into(&model, black_box(&pts), &mut out))
    });
    group.bench_function("one_shot/512", |b| {
        b.iter(|| ForceWorkspace::new().net_forces_into(&model, black_box(&pts), &mut out))
    });
    group.finish();
}

fn bench_force_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("force_family");
    group.sample_size(30);
    let n = 100;
    let pts = cloud(n, 10.0, 9);
    let mut out = Vec::new();
    let mut ws = ForceWorkspace::new();
    let linear = linear_model(n, f64::INFINITY);
    let gaussian = Model::balanced(
        n,
        ForceModel::Gaussian(GaussianForce::from_preferred_distance(
            PairMatrix::constant(1, 3.0),
            &PairMatrix::constant(1, 2.0),
        )),
        f64::INFINITY,
    );
    group.bench_function("f1_linear", |b| {
        b.iter(|| ws.net_forces_into(&linear, black_box(&pts), &mut out))
    });
    group.bench_function("f2_gaussian", |b| {
        b.iter(|| ws.net_forces_into(&gaussian, black_box(&pts), &mut out))
    });
    group.finish();
}

fn bench_substeps_ablation(c: &mut Criterion) {
    // Ablation: cost of integrating one recorded step at different
    // substep counts (accuracy/stability trade-off).
    let mut group = c.benchmark_group("integrator_substeps");
    group.sample_size(20);
    for &substeps in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(substeps),
            &substeps,
            |b, &substeps| {
                let cfg = IntegratorConfig {
                    dt: 0.05,
                    substeps,
                    noise_variance: 0.0025,
                    max_step: 0.5,
                };
                b.iter(|| {
                    let mut sim =
                        Simulation::with_disc_init(linear_model(50, f64::INFINITY), cfg, 4.0, 3);
                    for _ in 0..10 {
                        sim.step();
                    }
                    black_box(sim.positions()[0])
                })
            },
        );
    }
    group.finish();
}

fn bench_ensemble_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble");
    group.sample_size(10);
    for &threads in &[1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let spec = EnsembleSpec {
                    model: linear_model(20, f64::INFINITY),
                    integrator: IntegratorConfig::default(),
                    init_radius: 3.0,
                    t_max: 50,
                    samples: 64,
                    seed: 12,
                    criterion: None,
                };
                let every_step: Vec<usize> = (0..=spec.t_max).collect();
                let cfg = StreamingConfig::default();
                b.iter(|| run_streaming_ensemble(black_box(&spec), &every_step, threads, &cfg))
            },
        );
    }
    group.finish();
}

fn bench_lockstep(c: &mut Criterion) {
    // Both sides of the lockstep sample lanes, on one thread at full
    // scale: `lanes` runs `run_streaming_ensemble`, which steps these F¹
    // direct-loop ensembles eight samples per lane group; `per_sample`
    // steps the same samples one at a time through `Simulation::step`,
    // the loop every other ensemble takes. Both keep no frames but the
    // last, and the results are the same bits.
    let mut group = c.benchmark_group("lockstep");
    group.sample_size(10);
    for sc in [scenario::cell_sorting(), scenario::ring_formation()] {
        let spec = sc.ensemble;
        let last = [spec.t_max];
        let cfg = StreamingConfig::default();
        group.bench_with_input(BenchmarkId::new(&sc.name, "lanes"), &spec, |b, spec| {
            b.iter(|| run_streaming_ensemble(black_box(spec), &last, 1, &cfg))
        });
        group.bench_with_input(
            BenchmarkId::new(&sc.name, "per_sample"),
            &spec,
            |b, spec| {
                b.iter(|| {
                    (0..spec.samples)
                        .map(|s| {
                            let mut sim = Simulation::with_disc_init(
                                spec.model.clone(),
                                spec.integrator,
                                spec.init_radius,
                                derive_seed(spec.seed, s as u64),
                            );
                            for _ in 0..spec.t_max {
                                sim.step();
                            }
                            sim.positions()[0].x
                        })
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

fn bench_ensemble_scale(c: &mut Criterion) {
    // What the streaming layer buys at the gallery's XL tier: one full
    // sweep cell (simulate + reduce + measure) at 10⁵ particles, keeping
    // only the scenario's sparse eval schedule. Whole trajectories would
    // hold 8 samples × 101 frames × n positions (~1.3 GB at n = 10⁵);
    // the JSON's per-result `peak_rss_bytes` records what streaming holds.
    // `--quick` drops to 10⁴ particles; the id carries n either way.
    let mut group = c.benchmark_group("ensemble_scale");
    group.sample_size(10);
    let n = if criterion::is_quick() {
        10_000
    } else {
        100_000
    };
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(8);
    let plan = SweepPlan {
        scenarios: vec![scenario::cell_sorting_xl().with_particles(n)],
        measures: vec![MeasureConfig::default()],
        seeds: vec![],
        threads,
        storage: EnsembleStorage::default(),
    };
    group.bench_with_input(BenchmarkId::new("streaming", n), &plan, |b, plan| {
        let mut runner = SweepRunner::new();
        b.iter(|| {
            let report = runner.run(black_box(plan)).expect("valid plan");
            assert!(!report.has_failures());
            black_box(report.cells.len())
        })
    });
    group.finish();
}

fn bench_sweep_cache(c: &mut Criterion) {
    // What the content-addressed cell cache buys: `cold_compute` pays the
    // full simulate + reduce + measure + store cost for one fast
    // cell_sorting cell, `warm_hit` answers the same request from disk
    // (the gated case: a hit must stay ≥ ~100× cheaper than the compute),
    // and `coalesced_pair` issues two identical concurrent requests
    // through the broker — the pair should cost about one compute, not
    // two, because the second request joins the first's in-flight pass.
    let mut group = c.benchmark_group("sweep_cache");
    group.sample_size(10);
    let sc = scenario::cell_sorting().with_scale(40, 20);
    let measure = MeasureConfig::Gaussian;
    let plan = SweepPlan {
        scenarios: vec![sc.clone()],
        measures: vec![measure],
        seeds: vec![],
        threads: 1,
        storage: EnsembleStorage::default(),
    };
    let key = checkpoint::cell_key(&sc, &measure).expect("registry scenarios serialize");
    let dir = std::env::temp_dir().join("sops_bench_sweep_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CellCache::open(&dir).expect("temp cache dir");

    group.bench_function("cold_compute", |b| {
        let mut runner = SweepRunner::new();
        b.iter(|| {
            // Evict the entry so every iteration simulates and stores.
            let _ = std::fs::remove_file(cache.entry_path(key));
            let report = runner
                .run_with_cache(black_box(&plan), &cache)
                .expect("valid plan");
            assert!(!report.has_failures());
            black_box(report.cells.len())
        })
    });

    // One stored copy; every iteration below is a pure disk hit.
    let mut runner = SweepRunner::new();
    runner.run_with_cache(&plan, &cache).expect("valid plan");
    group.bench_function("warm_hit", |b| {
        b.iter(|| {
            let report = runner
                .run_with_cache(black_box(&plan), &cache)
                .expect("valid plan");
            assert!(!report.has_failures());
            black_box(report.cells.len())
        })
    });

    // The service's hit path in process: `sops_serve::route` parses a
    // five-measure fast plan, keys its cells and answers all five from
    // the warm cache (gated: a per-request gallery rebuild or a
    // per-measure scenario serialization shows up here).
    let broker = SweepBroker::new().with_cache(std::sync::Arc::new(
        CellCache::open(&dir).expect("temp cache dir"),
    ));
    let body = "{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"ksg\",\"kde\",\"binned\",\
                \"discrete\",\"gaussian\"],\"seeds\":[1],\"fast\":true,\"threads\":1}";
    assert_eq!(
        sops_serve::route(&broker, "POST", "/sweep", body).status,
        200
    );
    group.bench_function("route_hit", |b| {
        b.iter(|| {
            let response = sops_serve::route(&broker, "POST", "/sweep", black_box(body));
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });
    assert_eq!(broker.stats().cells_computed, 5, "every timed request hit");

    group.bench_function("coalesced_pair", |b| {
        // Uncached broker: each iteration recomputes, and the concurrent
        // duplicate dedupes onto the in-flight pass.
        let broker = std::sync::Arc::new(SweepBroker::new());
        b.iter(|| {
            let spawn = || {
                let broker = std::sync::Arc::clone(&broker);
                let plan = plan.clone();
                std::thread::spawn(move || broker.run(&plan).expect("valid plan").cells.len())
            };
            let (a, b2) = (spawn(), spawn());
            black_box(a.join().unwrap() + b2.join().unwrap())
        })
    });

    // A miss's store: re-store one key into a cache pre-filled with 100 or
    // 4,000 entries, so the entry count stays fixed. With the byte ledger
    // a store under the cap touches only its own entry, so the two cases
    // should cost the same; a per-store directory rescan grows with the
    // entry count (ungated: the committed baselines predate these cases).
    let result = cache.lookup(key).expect("the warm cell is stored");
    for entries in [100u64, 4_000] {
        let store_dir = std::env::temp_dir().join(format!("sops_bench_store_{entries}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let filled = CellCache::open(&store_dir).expect("temp cache dir");
        for k in 0..entries {
            filled.store(k, &result);
        }
        group.bench_function(format!("store_{entries}"), |b| {
            b.iter(|| filled.store(black_box(entries / 2), black_box(&result)))
        });
        assert_eq!(filled.len() as u64, entries, "re-stores keep the count");
        assert_eq!(filled.stats().store_errors, 0);
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_force_paths,
    bench_workspace_reuse,
    bench_force_families,
    bench_substeps_ablation,
    bench_ensemble_throughput,
    bench_lockstep,
    bench_ensemble_scale,
    bench_sweep_cache
);
criterion_main!(benches);
