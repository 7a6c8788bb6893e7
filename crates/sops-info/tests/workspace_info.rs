//! Contracts of the persistent KSG engine, driven through its public
//! face, `MeasureWorkspace`:
//!
//! * every KSG entry point (the `Ksg` selection of `estimator_mut`,
//!   `pairwise_mi_matrix`, `decompose`) is **bit-identical** to the
//!   pre-refactor reference implementation (frozen below) for all three
//!   `KsgVariant`s, on inputs on each side of the engine's k-NN route
//!   rule: the kd-tree descent takes joint dimensions up to 16 with at
//!   least 64 samples, the pruned scan (over SoA lanes when every block
//!   is scalar) everything else, so each test runs 63 and 64 rows at a
//!   joint dimension of at most 16 and a joint dimension above 16;
//! * `pairwise_mi_matrix` equals per-pair reference estimates over merged
//!   views, and `decompose` equals the reference term-by-term recipe;
//! * a warmed-up workspace performs zero heap allocations across 100
//!   mixed calls (buffer-capacity stability, à la
//!   `crates/sops-sim/tests/workspace_forces.rs`).

use proptest::prelude::*;
use sops_info::gaussian::{equicorrelated_cov, sample_gaussian};
use sops_info::{Grouping, KsgConfig, KsgVariant, MeasureConfig, MeasureWorkspace, SampleView};
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

/// Mixed scalar/vector blocks with a joint dimension of 17: one past the
/// largest the kd-tree route takes.
const WIDE_MIXED: [usize; 10] = [1, 2, 1, 1, 2, 2, 2, 2, 2, 2];

#[test]
fn multi_information_bit_identical_to_reference_on_every_route() {
    // Joint dimension 5 at 63 rows (scan), 64 and 220 rows (tree), and
    // joint dimension 17 (scan).
    let narrow = [1usize, 2, 1, 1];
    let mut ws = MeasureWorkspace::new();
    for (rows, sizes) in [
        (63usize, &narrow[..]),
        (64, &narrow[..]),
        (220, &narrow[..]),
        (64, &WIDE_MIXED[..]),
    ] {
        let data = fixture(rows, sizes, 11);
        let view = SampleView::new(&data, rows, sizes);
        for variant in VARIANTS {
            let want = reference_multi_information(&view, 4, variant);
            let got = ksg(&mut ws, &view, &KsgConfig { k: 4, variant });
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "m{rows}/dim{}/{variant:?}: {got} vs {want}",
                view.stride()
            );
        }
    }
}

#[test]
fn all_scalar_lanes_scan_bit_identical_at_remainder_sizes() {
    // Seventeen scalar blocks take the scan, and all-scalar blocks run it
    // over the lane-transposed SoA tile
    // (`sops_spatial::block_max::ScalarLanes`). Row counts straddling
    // the 8-lane group width exercise the padded final group.
    let sizes = [1usize; 17];
    let mut ws = MeasureWorkspace::new();
    for rows in [127usize, 128, 129] {
        let data = fixture(rows, &sizes, 21);
        let view = SampleView::new(&data, rows, &sizes);
        for variant in VARIANTS {
            let want = reference_multi_information(&view, 4, variant);
            let got = ksg(&mut ws, &view, &KsgConfig { k: 4, variant });
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "m{rows}/{variant:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn all_scalar_lanes_scan_handles_quantized_ties() {
    // Quantizing onto a coarse value grid forces duplicate Chebyshev
    // distances; the lane scan must resolve them with the same canonical
    // lexicographic (distance, index) order as the reference scan. Both
    // cases take the lanes with a remainder group: 63 rows (7·8 + 7) of
    // six scalar blocks fall below the tree's row minimum, and 65 rows
    // (8·8 + 1) of seventeen exceed its joint dimension.
    let mut ws = MeasureWorkspace::new();
    for (rows, blocks) in [(63usize, 6usize), (65, 17)] {
        let sizes = vec![1usize; blocks];
        let mut data = fixture(rows, &sizes, 22);
        for v in &mut data {
            *v = (*v * 4.0).round() / 4.0;
        }
        let view = SampleView::new(&data, rows, &sizes);
        for variant in VARIANTS {
            let want = reference_multi_information(&view, 4, variant);
            let got = ksg(&mut ws, &view, &KsgConfig { k: 4, variant });
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "m{rows}/n{blocks}/{variant:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn pairwise_matrix_bit_identical_to_reference_pairs() {
    // Pairs of the narrow layout have joint dimension 2 or 3: the scan at
    // 63 rows, the tree at 64 and 180. In the wide layout the pairs with
    // the 16-dimensional block have joint dimension 17 (scan) while the
    // pair of scalars takes the tree.
    let narrow = [1usize, 1, 2, 1];
    let wide = [1usize, 16, 1];
    let mut ws = MeasureWorkspace::new();
    for (rows, sizes) in [
        (63usize, &narrow[..]),
        (64, &narrow[..]),
        (180, &narrow[..]),
        (64, &wide[..]),
    ] {
        let data = fixture(rows, sizes, 7);
        let view = SampleView::new(&data, rows, sizes);
        for variant in VARIANTS {
            let matrix = ws.pairwise_mi_matrix(&view, &KsgConfig { k: 3, variant });
            for i in 0..sizes.len() {
                for j in (i + 1)..sizes.len() {
                    let merged = view.merged_blocks(&[i, j]);
                    let pair_sizes = [sizes[i], sizes[j]];
                    let pair_view = SampleView::new(&merged, rows, &pair_sizes);
                    let want = reference_multi_information(&pair_view, 3, variant);
                    assert_eq!(
                        matrix.get(i, j).to_bits(),
                        want.to_bits(),
                        "m{rows} pair ({i},{j}) {variant:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn decompose_bit_identical_to_reference_terms() {
    // Six scalar blocks in three groups: every term takes the scan at 63
    // rows and the tree at 200. Eighteen scalar blocks in three groups of
    // six at 64 rows: the total (dimension 18) and the between-term
    // (three 6-dimensional coarse blocks) take the scan, each
    // within-term (dimension 6) the tree.
    let six = Grouping::from_labels(&[0, 0, 1, 1, 1, 2]);
    let labels18: Vec<usize> = (0..18).map(|b| b / 6).collect();
    let eighteen = Grouping::from_labels(&labels18);
    let mut ws = MeasureWorkspace::new();
    for (rows, blocks, grouping) in [(63usize, 6usize, &six), (200, 6, &six), (64, 18, &eighteen)] {
        let sizes = vec![1usize; blocks];
        let data = fixture(rows, &sizes, 3);
        let view = SampleView::new(&data, rows, &sizes);
        for variant in VARIANTS {
            // Reference recipe: total over the fine view, between over the
            // group-merged coarse view, within over each group's merged
            // view.
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

            let d = ws.decompose(&view, grouping, &KsgConfig { k: 4, variant });
            let case = format!("m{rows}/n{blocks}/{variant:?}");
            assert_eq!(d.total.to_bits(), total.to_bits(), "{case} total");
            assert_eq!(d.between.to_bits(), between.to_bits(), "{case} between");
            assert_eq!(d.within.len(), within.len());
            for (got, want) in d.within.iter().zip(&within) {
                assert_eq!(got.to_bits(), want.to_bits(), "{case} within");
            }
        }
    }
}

#[test]
fn quantized_data_matches_reference_on_every_route() {
    // Quantized samples (duplicated joint points, massive distance ties)
    // are where non-canonical tie-breaking would make the k-NN routes
    // diverge — the Paper and Ksg2 variants read per-block radii off the
    // *identity* of the retained neighbours, not just their distances.
    // Two scalar blocks take the scan at 63 rows and the tree at 64 and
    // 120; seventeen take the scan.
    let mut ws = MeasureWorkspace::new();
    for (rows, blocks) in [(63usize, 2usize), (64, 2), (120, 2), (120, 17)] {
        let sizes = vec![1usize; blocks];
        let mut rng = sops_math::SplitMix64::new(99);
        let data: Vec<f64> = (0..rows * blocks)
            .map(|_| rng.next_range(-2.0, 2.0).round())
            .collect();
        let view = SampleView::new(&data, rows, &sizes);
        for variant in VARIANTS {
            let want = reference_multi_information(&view, 4, variant);
            assert!(want.is_finite());
            let got = ksg(&mut ws, &view, &KsgConfig { k: 4, variant });
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "m{rows}/n{blocks}/{variant:?}: {got} vs {want}"
            );
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
    /// shapes and all variants. Row counts straddle the tree route's
    /// minimum of 64 and joint dimensions its maximum of 16.
    #[test]
    fn workspace_bit_identical_to_reference(
        rows in 20usize..120,
        nblocks in 2usize..19,
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
        let got = ksg(&mut MeasureWorkspace::new(), &view, &KsgConfig { k, variant });
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "m{}/dim{}/{:?}: {} vs {}",
            rows, view.stride(), variant, got, want
        );
    }
}
