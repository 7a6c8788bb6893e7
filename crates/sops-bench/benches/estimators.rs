//! Estimator benches: the §5.3 comparison (KSG vs KDE vs shrinkage
//! binning) as runtime measurements, KSG ablations, the
//! `estimator_matrix` group tracking the workspace-backed `Estimator`
//! engines (KDE / binning / CMI) against their one-shot forms, and the
//! `sweep` group pinning the one-pass scenario × measure engine against
//! the same cells run as one-cell sweeps.
//!
//! Every estimate goes through `MeasureWorkspace`. A `one_shot` case (and
//! every case without a `persistent` twin) builds a fresh workspace per
//! iteration, so it times cold scratch; a `persistent` case reuses one
//! warm workspace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sops_core::scenario::{self, run_sweep, ScenarioSpec, SweepPlan, SweepRunner};
use sops_info::entropy::kl_entropy;
use sops_info::gaussian::{equicorrelated_cov, sample_gaussian};
use sops_info::{
    BinningConfig, CmiConfig, KdeConfig, KsgConfig, KsgVariant, MeasureConfig, MeasureWorkspace,
    SampleView,
};
use std::hint::black_box;

/// One estimate on a fresh workspace (cold scratch).
fn one_shot(view: &SampleView<'_>, cfg: &MeasureConfig) -> f64 {
    MeasureWorkspace::new().estimator_mut(cfg).measure(view)
}

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
                    one_shot(
                        black_box(&view),
                        &MeasureConfig::Ksg(KsgConfig { k: 4, variant }),
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
            |b, view| b.iter(|| one_shot(black_box(view), &MeasureConfig::default())),
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
                    MeasureWorkspace::new()
                        .pairwise_mi_matrix(black_box(view), &KsgConfig::default())
                })
            },
        );
    }
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // A warm `MeasureWorkspace` vs a fresh one per call: the gap is the
    // per-call buffer growth the persistent engine amortizes.
    let mut group = c.benchmark_group("ksg_workspace");
    group.sample_size(15);
    let (data, sizes) = fixture(500, 10);
    let view = SampleView::new(&data, 500, &sizes);
    let cfg = MeasureConfig::default();
    let mut ws = MeasureWorkspace::new();
    group.bench_function("persistent", |b| {
        b.iter(|| ws.estimator_mut(&cfg).measure(black_box(&view)))
    });
    group.bench_function("one_shot", |b| b.iter(|| one_shot(black_box(&view), &cfg)));
    group.finish();
}

fn bench_ksg_blocks2d(c: &mut Criterion) {
    // The traffic's shape: per-particle observers, one two-dimensional
    // block per particle, so every Eq. 20 count runs on a vector block
    // (the scalar `fixture` never reaches that path). A warm workspace,
    // as a sweep's evaluation worker runs it: 120 samples of 40 particles
    // (`cell_sorting`), 150 of 20 (`ring_formation`), and 500 of 20.
    let mut group = c.benchmark_group("ksg_blocks2d");
    group.sample_size(10);
    let cfg = MeasureConfig::default();
    let mut ws = MeasureWorkspace::new();
    for &(m, n) in &[(120usize, 40usize), (150, 20), (500, 20)] {
        let data = sample_gaussian(&equicorrelated_cov(2 * n, 0.4), m, 99);
        let sizes = vec![2usize; n];
        let view = SampleView::new(&data, m, &sizes);
        group.bench_function(format!("m{m}_n{n}"), |b| {
            b.iter(|| ws.estimator_mut(&cfg).measure(black_box(&view)))
        });
    }
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
                one_shot(
                    black_box(&view),
                    &MeasureConfig::Ksg(KsgConfig {
                        k,
                        ..KsgConfig::default()
                    }),
                )
            })
        });
    }
    group.finish();
}

fn bench_estimator_comparison(c: &mut Criterion) {
    // §5.3: "[the KDE approach] was multiple orders of magnitudes slower";
    // binning is fast but wrong in high-d (accuracy covered by tests).
    // One-shot calls through the `Estimator` trait (a fresh workspace per
    // iteration); case names kept stable across PRs so the JSON
    // trajectories line up.
    let mut group = c.benchmark_group("estimator_comparison");
    group.sample_size(10);
    let (data, sizes) = fixture(400, 8);
    let view = SampleView::new(&data, 400, &sizes);
    group.bench_function("ksg1", |b| {
        b.iter(|| one_shot(black_box(&view), &MeasureConfig::default()))
    });
    group.bench_function("kde", |b| {
        b.iter(|| one_shot(black_box(&view), &MeasureConfig::Kde(KdeConfig::default())))
    });
    group.bench_function("binning_js", |b| {
        b.iter(|| {
            one_shot(
                black_box(&view),
                &MeasureConfig::Binned(BinningConfig::default()),
            )
        })
    });
    group.finish();
}

fn bench_estimator_matrix(c: &mut Criterion) {
    // The workspace-backed `Estimator` engines vs their one-shot forms —
    // the before/after ledger of the measurement-stack unification, now
    // entirely on the trait API the pipeline dispatches through. The
    // `one_shot` cases build a fresh `MeasureWorkspace` per call;
    // `persistent` drives a warm one through `estimator_mut`, the exact
    // path of a pipeline/sweep evaluation worker. CMI on 1,500 scalar
    // triples takes the kd-tree route.
    let mut group = c.benchmark_group("estimator_matrix");
    group.sample_size(10);

    let (data, sizes) = fixture(400, 8);
    let view = SampleView::new(&data, 400, &sizes);
    let kde_cfg = MeasureConfig::Kde(KdeConfig::default());
    let mut measure_ws = MeasureWorkspace::new();
    group.bench_function("kde_m400_n8/one_shot", |b| {
        b.iter(|| one_shot(black_box(&view), &kde_cfg))
    });
    group.bench_function("kde_m400_n8/persistent", |b| {
        b.iter(|| measure_ws.estimator_mut(&kde_cfg).measure(black_box(&view)))
    });

    // The `grid_cold` KDE shape: 120 samples of 40 two-dimensional
    // observers (one per particle).
    let sizes40 = vec![2usize; 40];
    let data40 = sample_gaussian(&equicorrelated_cov(80, 0.4), 120, 99);
    let view40 = SampleView::new(&data40, 120, &sizes40);
    group.bench_function("kde_m120_b40/persistent", |b| {
        b.iter(|| {
            measure_ws
                .estimator_mut(&kde_cfg)
                .measure(black_box(&view40))
        })
    });

    let bin_cfg = MeasureConfig::Binned(BinningConfig::default());
    group.bench_function("binned_m400_n8/one_shot", |b| {
        b.iter(|| one_shot(black_box(&view), &bin_cfg))
    });
    group.bench_function("binned_m400_n8/persistent", |b| {
        b.iter(|| measure_ws.estimator_mut(&bin_cfg).measure(black_box(&view)))
    });
    let (data2k, sizes2k) = fixture(2000, 8);
    let view2k = SampleView::new(&data2k, 2000, &sizes2k);
    group.bench_function("binned_m2000_n8/persistent", |b| {
        b.iter(|| {
            measure_ws
                .estimator_mut(&bin_cfg)
                .measure(black_box(&view2k))
        })
    });

    let (x, y, z) = cmi_fixture(1500);
    let cmi_cfg = CmiConfig::default();
    group.bench_function("cmi_m1500/tree_persistent", |b| {
        b.iter(|| {
            measure_ws.conditional_mutual_information(
                black_box(&x),
                &y,
                &z,
                1500,
                (1, 1, 1),
                &cmi_cfg,
            )
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
    bench_ksg_blocks2d,
    bench_ksg_k_sensitivity,
    bench_estimator_comparison,
    bench_estimator_matrix,
    bench_sweep,
    bench_kl_entropy
);
criterion_main!(benches);
