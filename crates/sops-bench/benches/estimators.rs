//! Estimator benches: the §5.3 comparison (KSG vs KDE vs shrinkage
//! binning) as runtime measurements, KSG ablations, the
//! `estimator_matrix` group tracking the workspace-backed `Estimator`
//! engines (KDE / binning / CMI) against their one-shot forms, and the
//! `sweep` group pinning the one-pass scenario × measure engine against
//! the same cells run as one-cell sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sops_core::scenario::{self, run_sweep, ScenarioSpec, SweepPlan, SweepRunner};
use sops_info::entropy::kl_entropy;
use sops_info::gaussian::{equicorrelated_cov, sample_gaussian};
use sops_info::{
    multi_information, BinnedEstimator, BinningConfig, CmiConfig, CmiWorkspace, Estimator,
    KdeConfig, KdeEstimator, KnnMode, KsgConfig, KsgVariant, MeasureConfig, MeasureWorkspace,
    SampleView,
};
use std::hint::black_box;

/// Gaussian fixture: `blocks` scalar observers, correlation 0.4.
fn fixture(m: usize, blocks: usize) -> (Vec<f64>, Vec<usize>) {
    let cov = equicorrelated_cov(blocks, 0.4);
    (sample_gaussian(&cov, m, 99), vec![1usize; blocks])
}

/// Scalar common-cause triple for the CMI benches.
fn cmi_fixture(m: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = sops_math::SplitMix64::new(7);
    let mut x = Vec::with_capacity(m);
    let mut y = Vec::with_capacity(m);
    let mut z = Vec::with_capacity(m);
    for _ in 0..m {
        let zi = rng.next_standard_normal();
        x.push(0.8 * zi + 0.4 * rng.next_standard_normal());
        y.push(0.8 * zi + 0.4 * rng.next_standard_normal());
        z.push(zi);
    }
    (x, y, z)
}

fn bench_ksg_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ksg_variant");
    group.sample_size(20);
    let (data, sizes) = fixture(500, 8);
    let view = SampleView::new(&data, 500, &sizes);
    for variant in [KsgVariant::Ksg1, KsgVariant::Ksg2, KsgVariant::Paper] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{variant:?}")),
            &variant,
            |b, &variant| {
                b.iter(|| {
                    multi_information(
                        black_box(&view),
                        &KsgConfig {
                            k: 4,
                            variant,
                            threads: 1,
                            ..KsgConfig::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_ksg_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ksg_scaling");
    group.sample_size(15);
    for &(m, blocks) in &[(200usize, 10usize), (500, 10), (500, 40), (1000, 40)] {
        let (data, sizes) = fixture(m, blocks);
        let view = SampleView::new(&data, m, &sizes);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("m{m}_n{blocks}")),
            &view,
            |b, view| b.iter(|| multi_information(black_box(view), &KsgConfig::default())),
        );
    }
    group.finish();
}

fn bench_pairwise_matrix(c: &mut Criterion) {
    // The §7.3 interaction-structure diagnostic: all-pairs scalar MI. The
    // joint spaces are 2-dimensional, the regime where the kd-tree kNN
    // path (and per-view tree sharing) pays off.
    let mut group = c.benchmark_group("pairwise_matrix");
    group.sample_size(10);
    for &(m, blocks) in &[(300usize, 12usize), (600, 16)] {
        let (data, sizes) = fixture(m, blocks);
        let view = SampleView::new(&data, m, &sizes);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("m{m}_n{blocks}")),
            &view,
            |b, view| {
                b.iter(|| {
                    sops_info::ksg::pairwise_mi_matrix(
                        black_box(view),
                        &KsgConfig {
                            threads: 1,
                            ..KsgConfig::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // Persistent `InfoWorkspace` vs the throwaway-workspace shim: the gap
    // is the per-call buffer growth the persistent engine amortizes.
    let mut group = c.benchmark_group("ksg_workspace");
    group.sample_size(15);
    let (data, sizes) = fixture(500, 10);
    let view = SampleView::new(&data, 500, &sizes);
    let cfg = KsgConfig {
        threads: 1,
        ..KsgConfig::default()
    };
    let mut ws = sops_info::InfoWorkspace::new();
    group.bench_function("persistent", |b| {
        b.iter(|| ws.multi_information(black_box(&view), &cfg))
    });
    group.bench_function("one_shot", |b| {
        b.iter(|| multi_information(black_box(&view), &cfg))
    });
    group.finish();
}

fn bench_ksg_k_sensitivity(c: &mut Criterion) {
    // Ablation: the paper reports insensitivity for k ∈ {2, ..., 10}; the
    // runtime cost of larger k is what this measures.
    let mut group = c.benchmark_group("ksg_k");
    group.sample_size(20);
    let (data, sizes) = fixture(500, 8);
    let view = SampleView::new(&data, 500, &sizes);
    for &k in &[2usize, 4, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                multi_information(
                    black_box(&view),
                    &KsgConfig {
                        k,
                        ..KsgConfig::default()
                    },
                )
            })
        });
    }
    group.finish();
}

fn bench_estimator_comparison(c: &mut Criterion) {
    // §5.3: "[the KDE approach] was multiple orders of magnitudes slower";
    // binning is fast but wrong in high-d (accuracy covered by tests).
    // One-shot calls through the `Estimator` trait (a cold estimator per
    // iteration — the semantics the deprecated free functions had); case
    // names kept stable across PRs so the JSON trajectories line up.
    let mut group = c.benchmark_group("estimator_comparison");
    group.sample_size(10);
    let (data, sizes) = fixture(400, 8);
    let view = SampleView::new(&data, 400, &sizes);
    group.bench_function("ksg1", |b| {
        b.iter(|| multi_information(black_box(&view), &KsgConfig::default()))
    });
    group.bench_function("kde", |b| {
        b.iter(|| KdeEstimator::new(KdeConfig::default()).measure(black_box(&view)))
    });
    group.bench_function("binning_js", |b| {
        b.iter(|| BinnedEstimator::new(BinningConfig::default()).measure(black_box(&view)))
    });
    group.finish();
}

fn bench_estimator_matrix(c: &mut Criterion) {
    // The workspace-backed `Estimator` engines vs their one-shot forms —
    // the before/after ledger of the measurement-stack unification, now
    // entirely on the trait API the pipeline dispatches through. The
    // `one_shot` cases build a cold estimator per call (the deprecated
    // free functions' behaviour); `persistent` drives a warm
    // `MeasureWorkspace` through `estimator_mut`, the exact path of a
    // pipeline/sweep evaluation worker. For CMI the historical algorithm
    // is additionally pinned by `scan` (brute-force joint k-NN) vs the
    // adaptive `tree` path.
    let mut group = c.benchmark_group("estimator_matrix");
    group.sample_size(10);

    let (data, sizes) = fixture(400, 8);
    let view = SampleView::new(&data, 400, &sizes);
    let kde_cfg = KdeConfig {
        threads: 1,
        ..KdeConfig::default()
    };
    let mut measure_ws = MeasureWorkspace::new();
    group.bench_function("kde_m400_n8/one_shot", |b| {
        b.iter(|| KdeEstimator::new(kde_cfg).measure(black_box(&view)))
    });
    group.bench_function("kde_m400_n8/persistent", |b| {
        b.iter(|| {
            measure_ws
                .estimator_mut(&MeasureConfig::Kde(kde_cfg))
                .measure(black_box(&view))
        })
    });

    let bin_cfg = BinningConfig::default();
    group.bench_function("binned_m400_n8/one_shot", |b| {
        b.iter(|| BinnedEstimator::new(bin_cfg).measure(black_box(&view)))
    });
    group.bench_function("binned_m400_n8/persistent", |b| {
        b.iter(|| {
            measure_ws
                .estimator_mut(&MeasureConfig::Binned(bin_cfg))
                .measure(black_box(&view))
        })
    });
    let (data2k, sizes2k) = fixture(2000, 8);
    let view2k = SampleView::new(&data2k, 2000, &sizes2k);
    group.bench_function("binned_m2000_n8/persistent", |b| {
        b.iter(|| {
            measure_ws
                .estimator_mut(&MeasureConfig::Binned(bin_cfg))
                .measure(black_box(&view2k))
        })
    });

    let (x, y, z) = cmi_fixture(1500);
    let scan_cfg = CmiConfig {
        threads: 1,
        knn: KnnMode::BruteForce,
        ..CmiConfig::default()
    };
    let tree_cfg = CmiConfig {
        threads: 1,
        knn: KnnMode::Auto,
        ..CmiConfig::default()
    };
    let mut cmi_ws = CmiWorkspace::new();
    group.bench_function("cmi_m1500/scan_one_shot", |b| {
        b.iter(|| {
            CmiWorkspace::new().conditional_mutual_information(
                black_box(&x),
                &y,
                &z,
                1500,
                (1, 1, 1),
                &scan_cfg,
            )
        })
    });
    group.bench_function("cmi_m1500/tree_persistent", |b| {
        b.iter(|| {
            cmi_ws.conditional_mutual_information(black_box(&x), &y, &z, 1500, (1, 1, 1), &tree_cfg)
        })
    });
    group.bench_function("cmi_m1500/scan_persistent", |b| {
        b.iter(|| {
            cmi_ws.conditional_mutual_information(black_box(&x), &y, &z, 1500, (1, 1, 1), &scan_cfg)
        })
    });
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    // One-pass sweep vs one-cell sweeps over the 3-scenario × 4-measure
    // grid (smoke scale). `one_pass` simulates each ensemble once and fans
    // all four estimators over shared reduced views; `n_pass` runs the
    // same 12 cells as 12 one-cell `run_sweep` calls, re-simulating and
    // re-reducing per measure — identical bits,
    // k× the physics/reduction work. 100 samples keeps every measure on
    // its real code path: the Gaussian baseline needs more runs than the
    // 80-dim joint space of the 40-particle scenarios, else its column
    // would only time the singular-covariance NaN early-out.
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    let scenarios: Vec<ScenarioSpec> = [
        scenario::cell_sorting(),
        scenario::ring_formation(),
        scenario::mixing_null(),
    ]
    .into_iter()
    .map(|sc| sc.with_scale(100, 20))
    .collect();
    let measures = vec![
        MeasureConfig::default(),
        MeasureConfig::Kde(KdeConfig::default()),
        MeasureConfig::Binned(BinningConfig::default()),
        MeasureConfig::Gaussian,
    ];
    let plan = SweepPlan {
        scenarios,
        measures,
        seeds: vec![],
        threads: 1,
        storage: sops_core::EnsembleStorage::default(),
    };
    let mut runner = SweepRunner::new();
    group.bench_function("grid3x4/one_pass", |b| {
        b.iter(|| runner.run(black_box(&plan)).expect("valid plan"))
    });
    group.bench_function("grid3x4/n_pass", |b| {
        b.iter(|| {
            for sc in &plan.scenarios {
                for &m in &plan.measures {
                    let mut cell = SweepPlan::new(vec![sc.clone()], vec![m]);
                    cell.threads = 1;
                    let report = run_sweep(&cell).expect("valid plan");
                    assert!(!report.has_failures());
                    black_box(report);
                }
            }
        })
    });
    group.finish();
}

fn bench_kl_entropy(c: &mut Criterion) {
    let mut group = c.benchmark_group("kl_entropy");
    group.sample_size(20);
    for &(m, d) in &[(500usize, 2usize), (1000, 4)] {
        let cov = equicorrelated_cov(d, 0.3);
        let data = sample_gaussian(&cov, m, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("m{m}_d{d}")),
            &data,
            |b, data| b.iter(|| kl_entropy(black_box(data), m, d, 4)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ksg_variants,
    bench_ksg_scaling,
    bench_pairwise_matrix,
    bench_workspace_reuse,
    bench_ksg_k_sensitivity,
    bench_estimator_comparison,
    bench_estimator_matrix,
    bench_sweep,
    bench_kl_entropy
);
criterion_main!(benches);
