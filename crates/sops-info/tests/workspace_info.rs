//! Contracts of the persistent KSG engine, driven through its public
//! face, `MeasureWorkspace`:
//!
//! * every KSG entry point (the `Ksg` selection of `estimator_mut`,
//!   `pairwise_mi_matrix`, `decompose`) is **bit-identical** to the
//!   pre-refactor reference implementation (frozen below) for all three
//!   `KsgVariant`s, across both k-NN paths and worker counts 1/8;
//! * `pairwise_mi_matrix` equals per-pair reference estimates over merged
//!   views, and `decompose` equals the reference term-by-term recipe;
//! * a warmed-up workspace performs zero heap allocations across 100
//!   mixed calls (buffer-capacity stability, à la
//!   `crates/sops-sim/tests/workspace_forces.rs`).

use proptest::prelude::*;
use sops_info::gaussian::{equicorrelated_cov, sample_gaussian};
use sops_info::{
    Grouping, KnnMode, KsgConfig, KsgVariant, MeasureConfig, MeasureWorkspace, SampleView,
};
use sops_math::special::digamma;
use sops_math::NATS_TO_BITS;
use sops_spatial::block_max::{knn_block_max_into, BlockPoints};
use sops_spatial::KdTree;

/// [`knn_block_max_into`] into a fresh buffer: the allocating form the
/// frozen reference was written against.
fn knn_block_max(points: &BlockPoints<'_>, q: usize, k: usize) -> Vec<(usize, f64)> {
    let mut best = Vec::new();
    knn_block_max_into(points, q, k, &mut best);
    best
}

/// `BlockPoints::block_dists_into` into a fresh buffer of `blocks`
/// distances.
fn block_dists(points: &BlockPoints<'_>, blocks: usize, a: usize, b: usize) -> Vec<f64> {
    let mut out = vec![0.0; blocks];
    points.block_dists_into(a, b, &mut out);
    out
}

/// The pre-workspace estimator, verbatim (single-threaded path):
/// per-view kd-trees for every block, brute-force joint k-NN, per-sample
/// allocations, flat left-to-right ψ fold. The workspace must reproduce
/// its output bit for bit.
///
/// Two deviations from the historical code, both confined to degenerate
/// inputs: (a) the Ksg2 count is clamped at 1 and the Ksg1
/// self-subtraction saturates, matching the workspace's guards — no-ops
/// except where the historical code fed ψ(0) (a debug panic / −∞ in
/// release) or underflowed a `usize`; (b) `knn_block_max` now resolves
/// distance ties canonically (lexicographic `(distance, index)`), where
/// the historical sorted-buffer insertion depended on eviction dynamics —
/// identical on tie-free (continuous) data, and the canonical order is
/// what makes the scan and tree searches agree on quantized data (see
/// `quantized_data_paths_agree` below).
fn reference_multi_information(view: &SampleView<'_>, k: usize, variant: KsgVariant) -> f64 {
    let n = view.blocks();
    if n < 2 {
        return 0.0;
    }
    let m = view.rows;
    let points = BlockPoints::new(view.data, m, view.block_sizes);
    let trees: Vec<KdTree> = (0..n)
        .map(|b| KdTree::build(view.block_sizes[b], &view.block_columns(b)))
        .collect();
    let psi_sum = (0..m).fold(0.0f64, |acc, i| {
        let neighbours = knn_block_max(&points, i, k);
        let kth = neighbours.last().expect("reference: k-th neighbour").0;
        let mut local = 0.0;
        match variant {
            KsgVariant::Paper => {
                let radii = block_dists(&points, n, i, kth);
                for (b, tree) in trees.iter().enumerate() {
                    let q = points.block(i, b);
                    let c = tree
                        .count_within(q, radii[b], true)
                        .saturating_sub(1)
                        .max(1);
                    local += digamma(c as f64);
                }
            }
            KsgVariant::Ksg2 => {
                let mut radii = vec![0.0f64; n];
                for &(j, _) in &neighbours {
                    for (b, r) in block_dists(&points, n, i, j).into_iter().enumerate() {
                        if r > radii[b] {
                            radii[b] = r;
                        }
                    }
                }
                for (b, tree) in trees.iter().enumerate() {
                    let q = points.block(i, b);
                    let c = tree
                        .count_within(q, radii[b], false)
                        .saturating_sub(1)
                        .max(1);
                    local += digamma(c as f64);
                }
            }
            KsgVariant::Ksg1 => {
                let eps = neighbours.last().unwrap().1;
                for (b, tree) in trees.iter().enumerate() {
                    let q = points.block(i, b);
                    let c = tree.count_within(q, eps, true).saturating_sub(1);
                    local += digamma((c + 1) as f64);
                }
            }
        }
        acc + local
    });
    let mean_psi = psi_sum / m as f64;
    let nm1 = (n - 1) as f64;
    let nats = match variant {
        KsgVariant::Paper | KsgVariant::Ksg1 => {
            digamma(k as f64) + nm1 * digamma(m as f64) - mean_psi
        }
        KsgVariant::Ksg2 => digamma(k as f64) - nm1 / k as f64 + nm1 * digamma(m as f64) - mean_psi,
    };
    nats * NATS_TO_BITS
}

/// The KSG multi-information of `view` through the workspace's one
/// dispatch table.
fn ksg(ws: &mut MeasureWorkspace, view: &SampleView<'_>, cfg: &KsgConfig) -> f64 {
    ws.estimator_mut(&MeasureConfig::Ksg(*cfg)).measure(view)
}

/// A correlated-Gaussian fixture with mixed scalar/vector blocks.
fn fixture(rows: usize, block_sizes: &[usize], seed: u64) -> Vec<f64> {
    let dim: usize = block_sizes.iter().sum();
    sample_gaussian(&equicorrelated_cov(dim, 0.4), rows, seed)
}

const VARIANTS: [KsgVariant; 3] = [KsgVariant::Ksg1, KsgVariant::Ksg2, KsgVariant::Paper];
const KNN_PATHS: [KnnMode; 2] = [KnnMode::BruteForce, KnnMode::KdTree];

#[test]
fn multi_information_bit_identical_to_reference_all_variants_and_paths() {
    let sizes = [1usize, 2, 1, 1];
    let data = fixture(220, &sizes, 11);
    let view = SampleView::new(&data, 220, &sizes);
    let mut ws = MeasureWorkspace::new();
    for variant in VARIANTS {
        let want = reference_multi_information(&view, 4, variant);
        for knn in KNN_PATHS {
            for threads in [1usize, 8] {
                let got = ksg(
                    &mut ws,
                    &view,
                    &KsgConfig {
                        k: 4,
                        variant,
                        threads,
                        knn,
                    },
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{variant:?}/{knn:?}/t{threads}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn all_scalar_lanes_scan_bit_identical_at_remainder_sizes() {
    // All-scalar blocks with the scan path forced route the joint k-NN
    // through the lane-transposed SoA tile
    // (`sops_spatial::block_max::ScalarLanes`). Row counts straddling
    // the 8-lane group width exercise the padded final group; threads
    // 1/8 pin the span-ordered ψ reduction on top of the lane kernel.
    let sizes = [1usize; 6];
    let mut ws = MeasureWorkspace::new();
    for rows in [127usize, 128, 129] {
        let data = fixture(rows, &sizes, 21);
        let view = SampleView::new(&data, rows, &sizes);
        for variant in VARIANTS {
            let want = reference_multi_information(&view, 4, variant);
            for threads in [1usize, 8] {
                let got = ksg(
                    &mut ws,
                    &view,
                    &KsgConfig {
                        k: 4,
                        variant,
                        threads,
                        knn: KnnMode::BruteForce,
                    },
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "m{rows}/{variant:?}/t{threads}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn all_scalar_lanes_scan_handles_quantized_ties() {
    // Quantizing onto a coarse value grid forces duplicate Chebyshev
    // distances; the lane scan must resolve them with the same canonical
    // lexicographic (distance, index) order as the reference scan.
    let sizes = [1usize; 6];
    let rows = 65; // 8·8 + 1: ties AND a remainder lane group
    let mut data = fixture(rows, &sizes, 22);
    for v in &mut data {
        *v = (*v * 4.0).round() / 4.0;
    }
    let view = SampleView::new(&data, rows, &sizes);
    let mut ws = MeasureWorkspace::new();
    for variant in VARIANTS {
        let want = reference_multi_information(&view, 4, variant);
        for threads in [1usize, 8] {
            let got = ksg(
                &mut ws,
                &view,
                &KsgConfig {
                    k: 4,
                    variant,
                    threads,
                    knn: KnnMode::BruteForce,
                },
            );
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{variant:?}/t{threads}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn pairwise_matrix_bit_identical_to_reference_pairs() {
    let sizes = [1usize, 1, 2, 1];
    let data = fixture(180, &sizes, 7);
    let view = SampleView::new(&data, 180, &sizes);
    let mut ws = MeasureWorkspace::new();
    for variant in VARIANTS {
        for knn in KNN_PATHS {
            for threads in [1usize, 8] {
                let cfg = KsgConfig {
                    k: 3,
                    variant,
                    threads,
                    knn,
                };
                let matrix = ws.pairwise_mi_matrix(&view, &cfg);
                for i in 0..sizes.len() {
                    for j in (i + 1)..sizes.len() {
                        let merged = view.merged_blocks(&[i, j]);
                        let pair_sizes = [sizes[i], sizes[j]];
                        let pair_view = SampleView::new(&merged, 180, &pair_sizes);
                        let want = reference_multi_information(&pair_view, 3, variant);
                        assert_eq!(
                            matrix.get(i, j).to_bits(),
                            want.to_bits(),
                            "pair ({i},{j}) {variant:?}/{knn:?}/t{threads}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn decompose_bit_identical_to_reference_terms() {
    let sizes = [1usize; 6];
    let data = fixture(200, &sizes, 3);
    let view = SampleView::new(&data, 200, &sizes);
    let grouping = Grouping::from_labels(&[0, 0, 1, 1, 1, 2]);
    let mut ws = MeasureWorkspace::new();
    for variant in VARIANTS {
        // Reference recipe: total over the fine view, between over the
        // group-merged coarse view, within over each group's merged view.
        let total = reference_multi_information(&view, 4, variant);
        let coarse_sizes: Vec<usize> = grouping
            .groups
            .iter()
            .map(|ms| ms.iter().map(|&b| sizes[b]).sum())
            .collect();
        let merged: Vec<Vec<f64>> = grouping
            .groups
            .iter()
            .map(|ms| view.merged_blocks(ms))
            .collect();
        let mut coarse_data = Vec::new();
        for r in 0..view.rows {
            for (g, w) in coarse_sizes.iter().enumerate() {
                coarse_data.extend_from_slice(&merged[g][r * w..(r + 1) * w]);
            }
        }
        let coarse_view = SampleView::new(&coarse_data, view.rows, &coarse_sizes);
        let between = reference_multi_information(&coarse_view, 4, variant);
        let within: Vec<f64> = grouping
            .groups
            .iter()
            .enumerate()
            .map(|(g, ms)| {
                if ms.len() < 2 {
                    return 0.0;
                }
                let sub_sizes: Vec<usize> = ms.iter().map(|&b| sizes[b]).collect();
                let sub_view = SampleView::new(&merged[g], view.rows, &sub_sizes);
                reference_multi_information(&sub_view, 4, variant)
            })
            .collect();

        for knn in KNN_PATHS {
            for threads in [1usize, 8] {
                let cfg = KsgConfig {
                    k: 4,
                    variant,
                    threads,
                    knn,
                };
                let d = ws.decompose(&view, &grouping, &cfg);
                assert_eq!(d.total.to_bits(), total.to_bits(), "{variant:?} total");
                assert_eq!(
                    d.between.to_bits(),
                    between.to_bits(),
                    "{variant:?} between"
                );
                assert_eq!(d.within.len(), within.len());
                for (got, want) in d.within.iter().zip(&within) {
                    assert_eq!(got.to_bits(), want.to_bits(), "{variant:?} within");
                }
            }
        }
    }
}

#[test]
fn auto_path_equals_forced_paths() {
    // Auto must route to one of the two explicit paths, never to novel
    // numerics — and both paths agree bitwise anyway.
    for (rows, sizes) in [(300usize, vec![1usize, 1]), (150, vec![1usize; 12])] {
        let data = fixture(rows, &sizes, 5);
        let view = SampleView::new(&data, rows, &sizes);
        let mut ws = MeasureWorkspace::new();
        let run = |ws: &mut MeasureWorkspace, knn| {
            ksg(
                ws,
                &view,
                &KsgConfig {
                    knn,
                    ..KsgConfig::default()
                },
            )
        };
        let auto = run(&mut ws, KnnMode::Auto);
        let brute = run(&mut ws, KnnMode::BruteForce);
        let tree = run(&mut ws, KnnMode::KdTree);
        assert_eq!(auto.to_bits(), brute.to_bits());
        assert_eq!(auto.to_bits(), tree.to_bits());
    }
}

#[test]
fn quantized_data_paths_agree() {
    // Quantized samples (duplicated joint points, massive distance ties)
    // are where non-canonical tie-breaking would make the two k-NN paths
    // diverge — the Paper and Ksg2 variants read per-block radii off the
    // *identity* of the retained neighbours, not just their distances.
    // All three variants must agree bitwise across paths and threads.
    let rows = 120;
    let sizes = [1usize, 1];
    let mut rng = sops_math::SplitMix64::new(99);
    let data: Vec<f64> = (0..rows * 2)
        .map(|_| rng.next_range(-2.0, 2.0).round())
        .collect();
    let view = SampleView::new(&data, rows, &sizes);
    let mut ws = MeasureWorkspace::new();
    for variant in VARIANTS {
        let want = reference_multi_information(&view, 4, variant);
        assert!(want.is_finite());
        for knn in [KnnMode::BruteForce, KnnMode::KdTree, KnnMode::Auto] {
            for threads in [1usize, 8] {
                let got = ksg(
                    &mut ws,
                    &view,
                    &KsgConfig {
                        k: 4,
                        variant,
                        threads,
                        knn,
                    },
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{variant:?}/{knn:?}/t{threads}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn warmed_up_workspace_is_allocation_free_over_100_calls() {
    // One workspace drives the full mixed workload (joint MI, pairwise
    // matrix, decomposition) on a fixed shape: after warm-up, every
    // internal buffer capacity must stay frozen — the estimator-side
    // analogue of `workspace_forces::warmed_up_step_is_allocation_free`.
    let sizes = [1usize, 1, 2, 1, 1];
    let grouping = Grouping::from_labels(&[0, 0, 1, 1, 2]);
    let cfg = KsgConfig::default();
    let mut ws = MeasureWorkspace::new();
    let data0 = fixture(160, &sizes, 42);
    let view0 = SampleView::new(&data0, 160, &sizes);
    for _ in 0..3 {
        ksg(&mut ws, &view0, &cfg);
        ws.pairwise_mi_matrix(&view0, &cfg);
        ws.decompose(&view0, &grouping, &cfg);
    }
    let sig = ws.capacity_signature();
    for call in 0..100 {
        // Fresh data every call (capacities depend on shape, not values).
        let data = fixture(160, &sizes, 1000 + call);
        let view = SampleView::new(&data, 160, &sizes);
        match call % 3 {
            0 => {
                ksg(&mut ws, &view, &cfg);
            }
            1 => {
                ws.pairwise_mi_matrix(&view, &cfg);
            }
            _ => {
                ws.decompose(&view, &grouping, &cfg);
            }
        }
        assert_eq!(
            ws.capacity_signature(),
            sig,
            "workspace allocated at call {call}"
        );
    }
}

#[test]
fn workspace_survives_shape_changes_between_calls() {
    // Shrinking and growing the view must never corrupt results: compare
    // against a fresh workspace every time.
    let shapes: [(usize, Vec<usize>); 4] = [
        (150, vec![1, 1, 1, 1]),
        (90, vec![2, 2]),
        (200, vec![1; 8]),
        (70, vec![1, 2]),
    ];
    let mut ws = MeasureWorkspace::new();
    for (round, (rows, sizes)) in shapes.iter().enumerate() {
        let data = fixture(*rows, sizes, round as u64);
        let view = SampleView::new(&data, *rows, sizes);
        let got = ksg(&mut ws, &view, &KsgConfig::default());
        let want = ksg(&mut MeasureWorkspace::new(), &view, &KsgConfig::default());
        assert_eq!(got.to_bits(), want.to_bits(), "round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The workspace is bit-identical to the frozen reference for random
    /// shapes, all variants, both k-NN paths and 1/8 workers.
    #[test]
    fn workspace_bit_identical_to_reference(
        rows in 20usize..120,
        nblocks in 2usize..7,
        vector_block in 0usize..2,
        k in 1usize..6,
        variant_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let mut sizes = vec![1usize; nblocks];
        if vector_block == 1 {
            sizes[0] = 2;
        }
        let k = k.min(rows - 1);
        let data = fixture(rows, &sizes, seed);
        let view = SampleView::new(&data, rows, &sizes);
        let variant = VARIANTS[variant_idx];
        let want = reference_multi_information(&view, k, variant);
        let mut ws = MeasureWorkspace::new();
        for knn in KNN_PATHS {
            for threads in [1usize, 8] {
                let got = ksg(&mut ws, &view, &KsgConfig { k, variant, threads, knn });
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?}/{:?}/t{}: {} vs {}",
                    variant, knn, threads, got, want
                );
            }
        }
    }
}
