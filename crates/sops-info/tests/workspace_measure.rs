//! Contracts of the unified measurement engine (`MeasureWorkspace` and
//! the per-family engines behind it, driven through the workspace),
//! mirroring `crates/sops-info/tests/workspace_info.rs`:
//!
//! * the migrated KDE, binning and CMI paths are **bit-identical** to
//!   their pre-refactor reference implementations (frozen below) for
//!   worker counts 1 and 8 and (for CMI) both joint k-NN paths;
//! * a warmed-up `MeasureWorkspace` performs zero heap allocations across
//!   100 mixed calls spanning every estimator family (buffer-capacity
//!   stability).
//!
//! Documented deviations of the frozen references from the historical
//! free functions — both confined to reduction order, neither observable
//! beyond the last ulp:
//!
//! * **binning**: the historical `HashMap` histograms summed counts in a
//!   randomized iteration order (`RandomState`), so the same input could
//!   produce different last-ulp entropies across *runs of the same
//!   binary*. The engine and the reference both emit counts in canonical
//!   lexicographic bin-tuple order.
//! * **CMI**: the historical fold accumulated the three ψ terms directly
//!   into the running sum (`((acc + ψ_z) − ψ_xz) − ψ_yz`); the engine
//!   (like the KSG engine before it) computes each sample's local term
//!   first and reduces in sample order — the association the span
//!   partition needs for any-thread bit-identity.
//!
//! The KDE reference is the historical code verbatim (sequential path);
//! its per-sample term was already a local value, so the engine matches
//! it exactly for any worker count.

use proptest::prelude::*;
use sops_info::gaussian::{equicorrelated_cov, sample_gaussian};
use sops_info::measure::discrete_plugin_config;
use sops_info::{
    BinningConfig, CmiConfig, Grouping, KdeConfig, KnnMode, KsgConfig, MeasureConfig,
    MeasureWorkspace, SampleView, SupportModel,
};
use sops_math::special::digamma;
use sops_math::{stats, NATS_TO_BITS};
use sops_spatial::block_max::{knn_block_max_into, BlockPoints};
use sops_spatial::KdTree;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Frozen pre-workspace references
// ---------------------------------------------------------------------------

/// The pre-workspace KDE estimator, verbatim (sequential path):
/// per-call bandwidth vectors, a fresh log buffer per (sample, term),
/// flat left-to-right fold of the per-sample log ratios.
fn reference_kde(view: &SampleView<'_>, cfg: &KdeConfig) -> f64 {
    fn loo_log_density(
        view: &SampleView<'_>,
        bandwidths: &[f64],
        i: usize,
        start: usize,
        end: usize,
    ) -> f64 {
        let mut acc = 0.0f64;
        let ri = view.row(i);
        let mut max_log = f64::NEG_INFINITY;
        let mut logs: Vec<f64> = Vec::with_capacity(view.rows - 1);
        for j in 0..view.rows {
            if j == i {
                continue;
            }
            let rj = view.row(j);
            let mut e = 0.0;
            for c in start..end {
                let z = (ri[c] - rj[c]) / bandwidths[c];
                e -= 0.5 * z * z;
            }
            logs.push(e);
            if e > max_log {
                max_log = e;
            }
        }
        for &e in &logs {
            acc += (e - max_log).exp();
        }
        let d = (end - start) as f64;
        let log_norm: f64 = bandwidths[start..end].iter().map(|h| h.ln()).sum::<f64>()
            + 0.5 * d * (2.0 * std::f64::consts::PI).ln();
        max_log + acc.ln() - ((view.rows - 1) as f64).ln() - log_norm
    }

    if view.blocks() < 2 {
        return 0.0;
    }
    assert!(view.rows >= 3);
    let d = view.stride();
    let m = view.rows as f64;
    let exponent = 1.0 / (d as f64 + 4.0);
    let scale = (4.0 / ((d as f64 + 2.0) * m)).powf(exponent) * cfg.bandwidth_factor;
    let bandwidths: Vec<f64> = (0..d)
        .map(|col| {
            let column: Vec<f64> = (0..view.rows).map(|r| view.row(r)[col]).collect();
            let sd = stats::variance(&column).sqrt();
            (sd * scale).max(1e-12)
        })
        .collect();
    let mut ranges = Vec::with_capacity(view.blocks());
    let mut off = 0;
    for &b in view.block_sizes {
        ranges.push((off, off + b));
        off += b;
    }
    let total = (0..view.rows).fold(0.0f64, |acc, i| {
        let joint = loo_log_density(view, &bandwidths, i, 0, view.stride());
        let marginals: f64 = ranges
            .iter()
            .map(|&(s, e)| loo_log_density(view, &bandwidths, i, s, e))
            .sum();
        acc + (joint - marginals)
    });
    total / view.rows as f64 * NATS_TO_BITS
}

/// The pre-workspace binning estimator with `HashMap` histograms, counts
/// canonicalized to lexicographic bin-tuple order (see module docs).
fn reference_binned(view: &SampleView<'_>, cfg: &BinningConfig) -> f64 {
    fn discretize(view: &SampleView<'_>, bins: usize) -> Vec<u16> {
        let d = view.stride();
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for r in 0..view.rows {
            for (c, &v) in view.row(r).iter().enumerate() {
                lo[c] = lo[c].min(v);
                hi[c] = hi[c].max(v);
            }
        }
        let mut out = Vec::with_capacity(view.rows * d);
        for r in 0..view.rows {
            for (c, &v) in view.row(r).iter().enumerate() {
                let width = hi[c] - lo[c];
                let idx = if width <= 0.0 {
                    0
                } else {
                    (((v - lo[c]) / width * bins as f64) as usize).min(bins - 1)
                };
                out.push(idx as u16);
            }
        }
        out
    }

    /// Canonical-order histogram: HashMap counting (the historical data
    /// structure), then sort by bin tuple.
    fn histogram(binned: &[u16], rows: usize, stride: usize, start: usize, end: usize) -> Vec<u64> {
        let mut counts: HashMap<&[u16], u64> = HashMap::with_capacity(rows);
        for r in 0..rows {
            let key = &binned[r * stride + start..r * stride + end];
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut pairs: Vec<(&[u16], u64)> = counts.into_iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.into_iter().map(|(_, c)| c).collect()
    }

    assert!(cfg.bins >= 2);
    if view.blocks() < 2 {
        return 0.0;
    }
    let stride = view.stride();
    let binned = discretize(view, cfg.bins);
    let alphabet = |dims: usize, support: SupportModel, observed: usize| -> f64 {
        match support {
            SupportModel::Full => (cfg.bins as f64).powi(dims as i32),
            SupportModel::Observed => observed as f64,
        }
    };
    let mut sum_marginals = 0.0;
    let mut off = 0;
    for &b in view.block_sizes {
        let counts = histogram(&binned, view.rows, stride, off, off + b);
        let a = alphabet(b, cfg.marginal_support, counts.len());
        sum_marginals += sops_info::binning::shrink_entropy(&counts, a, cfg.shrinkage);
        off += b;
    }
    let joint_counts = histogram(&binned, view.rows, stride, 0, stride);
    let a = alphabet(stride, cfg.joint_support, joint_counts.len());
    let joint = sops_info::binning::shrink_entropy(&joint_counts, a, cfg.shrinkage);
    sum_marginals - joint
}

/// [`knn_block_max_into`] into a fresh buffer: the allocating form the
/// frozen references were written against.
fn knn_block_max(points: &BlockPoints<'_>, q: usize, k: usize) -> Vec<(usize, f64)> {
    let mut best = Vec::new();
    knn_block_max_into(points, q, k, &mut best);
    best
}

/// The pre-workspace Frenzel–Pompe estimator, verbatim (sequential
/// path, brute-force joint k-NN), with the per-sample ψ terms localized
/// (see module docs).
fn reference_cmi(
    x: &[f64],
    y: &[f64],
    z: &[f64],
    rows: usize,
    dims: (usize, usize, usize),
    k: usize,
) -> f64 {
    let (dx, dy, dz) = dims;
    assert!(k >= 1 && k < rows);
    let mut joint = Vec::with_capacity(rows * (dx + dy + dz));
    for r in 0..rows {
        joint.extend_from_slice(&x[r * dx..(r + 1) * dx]);
        joint.extend_from_slice(&y[r * dy..(r + 1) * dy]);
        joint.extend_from_slice(&z[r * dz..(r + 1) * dz]);
    }
    let sizes = [dx, dy, dz];
    let points = BlockPoints::new(&joint, rows, &sizes);
    let tree_z = KdTree::build(dz, z);
    let psi_sum = (0..rows).fold(0.0f64, |acc, i| {
        let neighbours = knn_block_max(&points, i, k);
        let eps = neighbours.last().expect("reference_cmi: kth neighbour").1;
        let zq = &z[i * dz..(i + 1) * dz];
        let z_candidates = tree_z.range_indices(zq, eps);
        let mut c_z = 0usize;
        let mut c_xz = 0usize;
        let mut c_yz = 0usize;
        let xq = &x[i * dx..(i + 1) * dx];
        let yq = &y[i * dy..(i + 1) * dy];
        for &j in &z_candidates {
            if j == i {
                continue;
            }
            let zd = sops_spatial::dist_sq(&z[j * dz..(j + 1) * dz], zq).sqrt();
            if zd >= eps {
                continue;
            }
            c_z += 1;
            let xd = sops_spatial::dist_sq(&x[j * dx..(j + 1) * dx], xq).sqrt();
            if xd < eps {
                c_xz += 1;
            }
            let yd = sops_spatial::dist_sq(&y[j * dy..(j + 1) * dy], yq).sqrt();
            if yd < eps {
                c_yz += 1;
            }
        }
        acc + (digamma((c_z + 1) as f64) - digamma((c_xz + 1) as f64) - digamma((c_yz + 1) as f64))
    });
    let nats = digamma(k as f64) + psi_sum / rows as f64;
    nats * NATS_TO_BITS
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// The multi-information of `view` under `cfg` through the workspace's
/// one dispatch table.
fn measure(ws: &mut MeasureWorkspace, view: &SampleView<'_>, cfg: &MeasureConfig) -> f64 {
    ws.estimator_mut(cfg).measure(view)
}

/// A correlated-Gaussian fixture with mixed scalar/vector blocks.
fn fixture(rows: usize, block_sizes: &[usize], seed: u64) -> Vec<f64> {
    let dim: usize = block_sizes.iter().sum();
    sample_gaussian(&equicorrelated_cov(dim, 0.4), rows, seed)
}

fn cmi_fixture(
    rows: usize,
    dims: (usize, usize, usize),
    seed: u64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = sops_math::SplitMix64::new(seed);
    let (dx, dy, dz) = dims;
    let mut x = Vec::with_capacity(rows * dx);
    let mut y = Vec::with_capacity(rows * dy);
    let mut z = Vec::with_capacity(rows * dz);
    for _ in 0..rows {
        let shared = rng.next_standard_normal();
        for _ in 0..dx {
            x.push(0.7 * shared + 0.5 * rng.next_standard_normal());
        }
        for _ in 0..dy {
            y.push(0.7 * shared + 0.5 * rng.next_standard_normal());
        }
        for _ in 0..dz {
            z.push(shared + 0.3 * rng.next_standard_normal());
        }
    }
    (x, y, z)
}

// ---------------------------------------------------------------------------
// Bit-identity
// ---------------------------------------------------------------------------

#[test]
fn kde_bit_identical_to_reference_threads_1_and_8() {
    let mut ws = MeasureWorkspace::new();
    for (rows, sizes, seed) in [
        (180usize, vec![1usize, 1], 3u64),
        (140, vec![1usize, 2, 1], 5),
        (120, vec![2usize, 2], 7),
        (100, vec![1usize; 6], 9),
    ] {
        let data = fixture(rows, &sizes, seed);
        let view = SampleView::new(&data, rows, &sizes);
        let want = reference_kde(&view, &KdeConfig::default());
        for threads in [1usize, 8] {
            let got = measure(
                &mut ws,
                &view,
                &MeasureConfig::Kde(KdeConfig {
                    threads,
                    ..KdeConfig::default()
                }),
            );
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "rows={rows} t{threads}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn kde_bandwidth_factor_propagates_bit_identically() {
    let sizes = [1usize, 1, 1];
    let data = fixture(150, &sizes, 11);
    let view = SampleView::new(&data, 150, &sizes);
    for factor in [0.5, 1.0, 2.0] {
        let cfg = KdeConfig {
            bandwidth_factor: factor,
            ..KdeConfig::default()
        };
        let want = reference_kde(&view, &cfg);
        let got = measure(
            &mut MeasureWorkspace::new(),
            &view,
            &MeasureConfig::Kde(cfg),
        );
        assert_eq!(got.to_bits(), want.to_bits(), "factor {factor}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-pass KDE engine is bit-identical to the frozen reference
    /// for any block layout, row count, bandwidth factor and span count,
    /// with duplicated rows (zero exponents, ties for the maximum) and,
    /// in half the cases, a constant column (the bandwidth floor).
    #[test]
    fn kde_bit_identical_to_reference_on_any_shape(
        sizes in proptest::collection::vec(1usize..4, 2..13),
        rows in 3usize..61,
        factor in 0usize..3,
        duplicates in 0usize..4,
        constant in 0usize..80,
        seed in 0u64..10_000,
    ) {
        let stride: usize = sizes.iter().sum();
        let mut data = fixture(rows, &sizes, seed);
        for r in 1..=duplicates.min(rows - 1) {
            let (first, rest) = data.split_at_mut(r * stride);
            rest[..stride].copy_from_slice(&first[..stride]);
        }
        if constant < 40 {
            let c = constant % stride;
            for r in 0..rows {
                data[r * stride + c] = 0.25;
            }
        }
        let view = SampleView::new(&data, rows, &sizes);
        let cfg = KdeConfig {
            bandwidth_factor: [0.5, 1.0, 2.0][factor],
            threads: 1,
        };
        let want = reference_kde(&view, &cfg);
        let mut ws = MeasureWorkspace::new();
        for threads in [1usize, 2, 8] {
            let got = measure(&mut ws, &view, &MeasureConfig::Kde(KdeConfig { threads, ..cfg }));
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "{} rows, blocks {:?}, t{}: {} vs {}", rows, sizes, threads, got, want
            );
        }
    }
}

#[test]
fn kde_scratch_is_linear_in_rows() {
    // The KDE engine keeps O(m·(stride + blocks)) values, never one per
    // pair: after a call on 3,000 rows × 2 blocks an m × m buffer alone
    // would hold 9,000,000.
    let (rows, sizes) = (3000usize, [1usize, 1]);
    let data = fixture(rows, &sizes, 13);
    let view = SampleView::new(&data, rows, &sizes);
    let mut ws = MeasureWorkspace::new();
    let held = |ws: &MeasureWorkspace| ws.capacity_signature().iter().sum::<usize>();
    let before = held(&ws);
    measure(
        &mut ws,
        &view,
        &MeasureConfig::Kde(KdeConfig {
            threads: 2,
            ..KdeConfig::default()
        }),
    );
    let kde = held(&ws) - before;
    let bound = 8 * rows * (view.stride() + view.blocks());
    assert!(
        kde <= bound,
        "KDE scratch holds {kde} values after one call, bound {bound}"
    );
}

#[test]
fn binned_bit_identical_to_reference_all_support_models() {
    let mut ws = MeasureWorkspace::new();
    for (rows, sizes, seed) in [
        (400usize, vec![1usize, 1], 1u64),
        (300, vec![1usize, 2, 1], 2),
        (250, vec![1usize; 8], 3),
        (150, vec![2usize, 2], 4),
    ] {
        let data = fixture(rows, &sizes, seed);
        let view = SampleView::new(&data, rows, &sizes);
        for shrinkage in [true, false] {
            for marginal_support in [SupportModel::Full, SupportModel::Observed] {
                for joint_support in [SupportModel::Full, SupportModel::Observed] {
                    // Skip the Full-joint overflow regime here (covered by
                    // the binning unit tests): 8^8 is still finite.
                    let cfg = BinningConfig {
                        bins: 8,
                        shrinkage,
                        marginal_support,
                        joint_support,
                    };
                    let want = reference_binned(&view, &cfg);
                    let got = measure(&mut ws, &view, &MeasureConfig::Binned(cfg));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "rows={rows} shrink={shrinkage} m={marginal_support:?} j={joint_support:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn binned_bit_identical_across_bin_counts() {
    let sizes = [1usize, 1];
    let data = fixture(600, &sizes, 21);
    let view = SampleView::new(&data, 600, &sizes);
    let mut ws = MeasureWorkspace::new();
    // 65 bins pushes the joint histogram (65² = 4225 cells) onto the
    // sort path; 8 stays dense — both must match the reference.
    for bins in [2usize, 8, 65] {
        let cfg = BinningConfig {
            bins,
            ..BinningConfig::default()
        };
        let want = reference_binned(&view, &cfg);
        let got = measure(&mut ws, &view, &MeasureConfig::Binned(cfg));
        assert_eq!(got.to_bits(), want.to_bits(), "bins={bins}");
    }
}

#[test]
fn cmi_bit_identical_to_reference_threads_and_knn_paths() {
    let mut ws = MeasureWorkspace::new();
    for (rows, dims, seed) in [
        (300usize, (1usize, 1usize, 1usize), 3u64),
        (200, (2, 2, 2), 5),
        (150, (1, 2, 1), 7),
    ] {
        let (x, y, z) = cmi_fixture(rows, dims, seed);
        let want = reference_cmi(&x, &y, &z, rows, dims, 4);
        for knn in [KnnMode::BruteForce, KnnMode::KdTree, KnnMode::Auto] {
            for threads in [1usize, 8] {
                let got = ws.conditional_mutual_information(
                    &x,
                    &y,
                    &z,
                    rows,
                    dims,
                    &CmiConfig { k: 4, threads, knn },
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "rows={rows} dims={dims:?} {knn:?}/t{threads}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn cmi_quantized_data_paths_agree() {
    // Duplicated joint points and massive distance ties: where
    // non-canonical k-NN tie-breaking would make scan and tree diverge.
    let rows = 150;
    let mut rng = sops_math::SplitMix64::new(99);
    let x: Vec<f64> = (0..rows)
        .map(|_| rng.next_range(-2.0, 2.0).round())
        .collect();
    let y: Vec<f64> = (0..rows)
        .map(|_| rng.next_range(-2.0, 2.0).round())
        .collect();
    let z: Vec<f64> = (0..rows)
        .map(|_| rng.next_range(-2.0, 2.0).round())
        .collect();
    let want = reference_cmi(&x, &y, &z, rows, (1, 1, 1), 4);
    assert!(want.is_finite());
    let mut ws = MeasureWorkspace::new();
    for knn in [KnnMode::BruteForce, KnnMode::KdTree, KnnMode::Auto] {
        for threads in [1usize, 8] {
            let got = ws.conditional_mutual_information(
                &x,
                &y,
                &z,
                rows,
                (1, 1, 1),
                &CmiConfig { k: 4, threads, knn },
            );
            assert_eq!(got.to_bits(), want.to_bits(), "{knn:?}/t{threads}");
        }
    }
}

#[test]
fn measure_workspace_dispatch_bit_identical_to_references() {
    // The trait-driven surface must add nothing numeric on top of the
    // engines — and therefore match the frozen references too.
    let sizes = [1usize, 1, 2];
    let data = fixture(200, &sizes, 13);
    let view = SampleView::new(&data, 200, &sizes);
    let mut ws = MeasureWorkspace::new();
    let kde = measure(&mut ws, &view, &MeasureConfig::Kde(KdeConfig::default()));
    assert_eq!(
        kde.to_bits(),
        reference_kde(&view, &KdeConfig::default()).to_bits()
    );
    let binned = measure(
        &mut ws,
        &view,
        &MeasureConfig::Binned(BinningConfig::default()),
    );
    assert_eq!(
        binned.to_bits(),
        reference_binned(&view, &BinningConfig::default()).to_bits()
    );
    let plugin = measure(&mut ws, &view, &MeasureConfig::DiscretePlugin { bins: 8 });
    assert_eq!(
        plugin.to_bits(),
        reference_binned(&view, &discrete_plugin_config(8)).to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// KDE and binning engines are bit-identical to the frozen references
    /// for random shapes and both worker counts.
    #[test]
    fn engines_bit_identical_to_references(
        rows in 20usize..100,
        nblocks in 2usize..6,
        vector_block in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let mut sizes = vec![1usize; nblocks];
        if vector_block == 1 {
            sizes[0] = 2;
        }
        let data = fixture(rows, &sizes, seed);
        let view = SampleView::new(&data, rows, &sizes);

        let want_kde = reference_kde(&view, &KdeConfig::default());
        let want_bin = reference_binned(&view, &BinningConfig::default());
        let mut ws = MeasureWorkspace::new();
        for threads in [1usize, 8] {
            let got = measure(
                &mut ws,
                &view,
                &MeasureConfig::Kde(KdeConfig { threads, ..KdeConfig::default() }),
            );
            prop_assert_eq!(got.to_bits(), want_kde.to_bits(), "kde t{}", threads);
        }
        let got = measure(&mut ws, &view, &MeasureConfig::Binned(BinningConfig::default()));
        prop_assert_eq!(got.to_bits(), want_bin.to_bits(), "binned");
    }

    /// The CMI engine is bit-identical to the frozen reference for random
    /// shapes, both k-NN paths and 1/8 workers.
    #[test]
    fn cmi_engine_bit_identical_to_reference(
        rows in 20usize..120,
        dim_sel in 0usize..3,
        k in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let dims = [(1usize, 1usize, 1usize), (2, 2, 2), (1, 2, 1)][dim_sel];
        let k = k.min(rows - 1);
        let (x, y, z) = cmi_fixture(rows, dims, seed);
        let want = reference_cmi(&x, &y, &z, rows, dims, k);
        let mut ws = MeasureWorkspace::new();
        for knn in [KnnMode::BruteForce, KnnMode::KdTree] {
            for threads in [1usize, 8] {
                let got = ws.conditional_mutual_information(
                    &x, &y, &z, rows, dims,
                    &CmiConfig { k, threads, knn },
                );
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "{:?}/t{}: {} vs {}", knn, threads, got, want
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations
// ---------------------------------------------------------------------------

#[test]
fn warmed_up_measure_workspace_is_allocation_free_over_100_calls() {
    // One workspace drives the full mixed workload — every estimator
    // family plus CMI — on fixed shapes: after warm-up, every internal
    // buffer capacity must stay frozen. (The Gaussian baseline's per-call
    // covariance matrix is documented out of the contract and not part of
    // the signature; its prepared-view buffers are.)
    let sizes = [1usize, 1, 2, 1];
    let grouping = Grouping::from_labels(&[0, 0, 1, 1]);
    let mut ws = MeasureWorkspace::new();
    let selections = [
        MeasureConfig::Ksg(KsgConfig::default()),
        MeasureConfig::Kde(KdeConfig {
            threads: 8,
            ..KdeConfig::default()
        }),
        MeasureConfig::Binned(BinningConfig::default()),
        MeasureConfig::DiscretePlugin { bins: 8 },
        MeasureConfig::Gaussian,
    ];
    let warm_data = fixture(120, &sizes, 42);
    let warm_view = SampleView::new(&warm_data, 120, &sizes);
    let (wx, wy, wz) = cmi_fixture(120, (1, 1, 1), 42);
    for _ in 0..3 {
        for cfg in &selections {
            // The two-phase trait path the pipeline workers drive (it
            // also warms the prepared-view buffers).
            let estimator = ws.estimator_mut(cfg);
            estimator.prepare(&warm_view);
            estimator.estimate();
        }
        ws.decompose(&warm_view, &grouping, &KsgConfig::default());
        for threads in [1usize, 8] {
            ws.conditional_mutual_information(
                &wx,
                &wy,
                &wz,
                120,
                (1, 1, 1),
                &CmiConfig {
                    threads,
                    ..CmiConfig::default()
                },
            );
        }
    }
    let sig = ws.capacity_signature();
    for call in 0..100u64 {
        // Fresh data every call (capacities depend on shape, not values).
        let data = fixture(120, &sizes, 1000 + call);
        let view = SampleView::new(&data, 120, &sizes);
        match call % 7 {
            0 | 5 => {
                let cfg = &selections[(call % 5) as usize];
                let estimator = ws.estimator_mut(cfg);
                estimator.prepare(&view);
                estimator.estimate();
            }
            1 => {
                measure(
                    &mut ws,
                    &view,
                    &MeasureConfig::Kde(KdeConfig {
                        threads: if call % 2 == 0 { 1 } else { 8 },
                        ..KdeConfig::default()
                    }),
                );
            }
            2 => {
                measure(
                    &mut ws,
                    &view,
                    &MeasureConfig::Binned(BinningConfig::default()),
                );
            }
            3 => {
                let (x, y, z) = cmi_fixture(120, (1, 1, 1), 2000 + call);
                ws.conditional_mutual_information(
                    &x,
                    &y,
                    &z,
                    120,
                    (1, 1, 1),
                    &CmiConfig {
                        threads: if call % 2 == 0 { 1 } else { 8 },
                        ..CmiConfig::default()
                    },
                );
            }
            4 => {
                ws.decompose(&view, &grouping, &KsgConfig::default());
            }
            _ => {
                measure(&mut ws, &view, &MeasureConfig::Gaussian);
            }
        }
        assert_eq!(
            ws.capacity_signature(),
            sig,
            "measure workspace allocated at call {call}"
        );
    }
}

#[test]
fn engines_survive_shape_changes_between_calls() {
    // Shrinking and growing the view must never corrupt results: compare
    // against a fresh workspace every time.
    let shapes: [(usize, Vec<usize>); 4] = [
        (100, vec![1, 1, 1]),
        (60, vec![2, 2]),
        (150, vec![1; 6]),
        (50, vec![1, 2]),
    ];
    let mut ws = MeasureWorkspace::new();
    for (round, (rows, sizes)) in shapes.iter().enumerate() {
        let data = fixture(*rows, sizes, round as u64);
        let view = SampleView::new(&data, *rows, sizes);
        for cfg in [
            MeasureConfig::Kde(KdeConfig::default()),
            MeasureConfig::Binned(BinningConfig::default()),
        ] {
            let got = measure(&mut ws, &view, &cfg);
            let want = measure(&mut MeasureWorkspace::new(), &view, &cfg);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round {round} {}",
                cfg.label()
            );
        }
    }
}
