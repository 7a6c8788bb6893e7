//! Substrate microbenches: spatial indexes, assignment, clustering,
//! alignment, shape reduction and the scoped-thread parallel map.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sops_bench::{cloud, flat};
use sops_cluster::kmeans;
use sops_core::scenario::cell_sorting;
use sops_math::{SplitMix64, Vec2};
use sops_shape::{
    hungarian_with, icp_align_with, reduce_configurations_with, HungarianScratch, IcpConfig,
    IcpScratch, ReduceConfig, ReduceWorkspace, RigidTransform,
};
use sops_sim::streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig};
use sops_spatial::{brute, CellGrid, KdTree};
use std::hint::black_box;

fn bench_kdtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree");
    group.sample_size(30);
    for &n in &[100usize, 1000] {
        let pts = flat(&cloud(n, 20.0, 1));
        group.bench_with_input(BenchmarkId::new("build", n), &pts, |b, pts| {
            b.iter(|| KdTree::build(2, black_box(pts)))
        });
        let tree = KdTree::build(2, &pts);
        group.bench_with_input(BenchmarkId::new("knn10", n), &tree, |b, tree| {
            b.iter(|| tree.knn(black_box(&[0.3, -0.7]), 10))
        });
        // Larger k stresses the leaf-insertion structure: the bounded
        // max-heap sift is O(log k) per accepted point where the old
        // insertion re-sorted the whole candidate buffer.
        group.bench_with_input(BenchmarkId::new("knn64", n), &tree, |b, tree| {
            b.iter(|| tree.knn(black_box(&[0.3, -0.7]), 64))
        });
        group.bench_with_input(BenchmarkId::new("count_within", n), &tree, |b, tree| {
            b.iter(|| tree.count_within(black_box(&[0.3, -0.7]), 5.0, true))
        });
        group.bench_with_input(BenchmarkId::new("brute_knn10", n), &pts, |b, pts| {
            b.iter(|| brute::knn(2, black_box(pts), &[0.3, -0.7], 10))
        });
    }
    group.finish();
}

fn bench_cellgrid(c: &mut Criterion) {
    let mut group = c.benchmark_group("cellgrid");
    group.sample_size(30);
    for &n in &[100usize, 1000] {
        let pts = cloud(n, 20.0, 3);
        group.bench_with_input(BenchmarkId::new("build", n), &pts, |b, pts| {
            b.iter(|| CellGrid::build(black_box(pts), 2.0))
        });
        let grid = CellGrid::build(&pts, 2.0);
        group.bench_with_input(BenchmarkId::new("pairs_within", n), &grid, |b, grid| {
            b.iter(|| grid.pairs_within(2.0))
        });
        let fpts = flat(&pts);
        group.bench_with_input(BenchmarkId::new("brute_pairs", n), &fpts, |b, fpts| {
            b.iter(|| brute::pairs_within(2, black_box(fpts), 2.0))
        });
    }
    group.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    // One-shot solves: every iteration builds a fresh scratch and output
    // buffer, as a caller without a persistent workspace does.
    let mut group = c.benchmark_group("hungarian");
    group.sample_size(30);
    for &n in &[16usize, 64, 128] {
        let mut rng = SplitMix64::new(7);
        let costs: Vec<f64> = (0..n * n).map(|_| rng.next_range(0.0, 100.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &costs, |b, costs| {
            b.iter(|| {
                let mut assignment = Vec::new();
                let cost = hungarian_with(
                    &mut HungarianScratch::new(),
                    n,
                    black_box(costs),
                    &mut assignment,
                );
                (assignment, cost)
            })
        });
    }
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans");
    group.sample_size(30);
    for &n in &[60usize, 240] {
        let pts = cloud(n, 10.0, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| kmeans(black_box(pts), 4, 5))
        });
    }
    group.finish();
}

fn bench_icp_restarts(c: &mut Criterion) {
    // Ablation: alignment cost of the restart grid, which replaces the
    // paper's single-run PCL ICP (one run from angle 0 gets stuck in a
    // local optimum for near-π rotations). Each iteration is a one-shot
    // alignment on a fresh scratch.
    let mut group = c.benchmark_group("icp_restarts");
    group.sample_size(20);
    let reference = cloud(50, 5.0, 21);
    let types: Vec<u16> = (0..50).map(|i| (i % 3) as u16).collect();
    let t = RigidTransform {
        rotation: 2.3,
        translation: Vec2::new(4.0, -1.0),
    };
    let moving: Vec<Vec2> = reference.iter().map(|&p| t.apply(p)).collect();
    for &restarts in &[1usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(restarts),
            &restarts,
            |b, &restarts| {
                b.iter(|| {
                    icp_align_with(
                        &mut IcpScratch::new(),
                        black_box(&reference),
                        black_box(&moving),
                        &types,
                        &IcpConfig {
                            restarts,
                            ..IcpConfig::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_reduce(c: &mut Criterion) {
    // Shape reduction (paper §5.2). The ICP kernel at 20 points per type
    // (the builtin scenarios' traffic) and at 128, past the scalar scan's
    // crossover with a per-type kd-tree near 96 per type (the AVX-512
    // scan's lies near 768); the same-type matching at the builtins' 20
    // per type; then the whole single-thread reduction of one real slice:
    // the final step of a full-scale 120-sample `cell_sorting` ensemble.
    let mut group = c.benchmark_group("reduce");
    group.sample_size(30);
    for &per_type in &[20usize, 128] {
        let n = 2 * per_type;
        let reference = cloud(n, 0.6 * (n as f64).sqrt(), 31);
        let types: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
        let t = RigidTransform {
            rotation: 2.3,
            translation: Vec2::new(4.0, -1.0),
        };
        let mut rng = SplitMix64::new(32);
        let moving: Vec<Vec2> = reference
            .iter()
            .map(|&p| {
                t.apply(p) + Vec2::new(rng.next_range(-0.05, 0.05), rng.next_range(-0.05, 0.05))
            })
            .collect();
        let mut scratch = IcpScratch::new();
        group.bench_function(BenchmarkId::new("icp_align_with", per_type), |b| {
            b.iter(|| {
                icp_align_with(
                    &mut scratch,
                    black_box(&reference),
                    black_box(&moving),
                    &types,
                    &IcpConfig::default(),
                )
            })
        });
    }
    // Squared distances between a 20-point cloud and a jittered copy:
    // the cost matrix `match_types_into` hands the solver per type.
    let reference = cloud(20, 0.6 * 40f64.sqrt(), 33);
    let mut rng = SplitMix64::new(34);
    let moved: Vec<Vec2> = reference
        .iter()
        .map(|&p| p + Vec2::new(rng.next_range(-0.3, 0.3), rng.next_range(-0.3, 0.3)))
        .collect();
    let costs: Vec<f64> = moved
        .iter()
        .flat_map(|&a| reference.iter().map(move |&b| (a - b).norm_sq()))
        .collect();
    let (mut scratch, mut assignment) = (HungarianScratch::new(), Vec::new());
    group.bench_function(BenchmarkId::new("hungarian_with", 20), |b| {
        b.iter(|| hungarian_with(&mut scratch, 20, black_box(&costs), &mut assignment))
    });
    let spec = cell_sorting();
    let t_max = spec.ensemble.t_max;
    let ensemble = run_streaming_ensemble(&spec.ensemble, &[t_max], 0, &StreamingConfig::default());
    let frames = EnsembleFrames::Streaming(&ensemble);
    let (mut stage, mut slice) = (Vec::new(), Vec::new());
    frames.at_time_into(t_max, &mut stage, &mut slice);
    let types = spec.ensemble.model.types();
    let cfg = ReduceConfig {
        threads: 1,
        ..spec.reduce
    };
    let mut ws = ReduceWorkspace::new();
    group.bench_function(
        BenchmarkId::new("reduce_configurations_with", "cell_sorting_m120"),
        |b| b.iter(|| reduce_configurations_with(&mut ws, black_box(&slice), types, &cfg)),
    );
    group.finish();
}

fn bench_parallel_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_map");
    group.sample_size(20);
    // A compute-bound task: per-index trigonometric reduction.
    let work = |i: usize| -> f64 {
        let mut acc = 0.0;
        for j in 0..2_000 {
            acc += ((i * 31 + j) as f64).sqrt().sin();
        }
        acc
    };
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| sops_par::parallel_map(256, threads, work)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kdtree,
    bench_cellgrid,
    bench_hungarian,
    bench_kmeans,
    bench_icp_restarts,
    bench_reduce,
    bench_parallel_map
);
criterion_main!(benches);
