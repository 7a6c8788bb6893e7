//! Vector observer blocks at the edges of the KSG engine's per-block
//! counts, driven through `MeasureWorkspace`:
//!
//! * a block of 256 coordinates, one more than `KdTree` takes, alone or
//!   as the merged group of 128 two-dimensional blocks in a
//!   decomposition, is estimated like any other and equals a reference
//!   that counts point by point;
//! * a NaN in a vector block panics at every sample count, as it does in
//!   a scalar block, so a cell with NaN observer data is quarantined.

use sops_info::gaussian::{equicorrelated_cov, sample_gaussian};
use sops_info::{Grouping, KsgConfig, KsgVariant, MeasureConfig, MeasureWorkspace, SampleView};
use sops_math::special::digamma;
use sops_math::NATS_TO_BITS;
use sops_spatial::block_max::{knn_block_max_into, BlockPoints};
use sops_spatial::dist_sq;

/// Points of block `b` within `radius` of `q` (strict or inclusive),
/// each compared on its own.
fn count_per_point(
    points: &BlockPoints<'_>,
    b: usize,
    q: &[f64],
    radius: f64,
    strict: bool,
) -> usize {
    if radius < 0.0 {
        return 0;
    }
    let r2 = radius * radius;
    (0..points.rows())
        .filter(|&r| {
            let d = dist_sq(points.block(r, b), q);
            if strict {
                d < r2
            } else {
                d <= r2
            }
        })
        .count()
}

/// The KSG multi-information of `view` in bits, one sample at a time:
/// brute-force joint k-NN, per-point block counts, a left-to-right ψ
/// fold. The workspace must reproduce it bit for bit.
fn reference_ksg(view: &SampleView<'_>, k: usize, variant: KsgVariant) -> f64 {
    let n = view.blocks();
    let m = view.rows;
    let points = BlockPoints::new(view.data, m, view.block_sizes);
    let mut neighbours = Vec::new();
    let mut dists = vec![0.0; n];
    let psi_sum = (0..m).fold(0.0f64, |acc, i| {
        knn_block_max_into(&points, i, k, &mut neighbours);
        let mut local = 0.0;
        match variant {
            KsgVariant::Paper => {
                points.block_dists_into(i, neighbours[k - 1].0, &mut dists);
                for (b, &radius) in dists.iter().enumerate() {
                    let c = count_per_point(&points, b, points.block(i, b), radius, true);
                    local += digamma(c.saturating_sub(1).max(1) as f64);
                }
            }
            KsgVariant::Ksg2 => {
                let mut radii = vec![0.0f64; n];
                for &(j, _) in &neighbours {
                    points.block_dists_into(i, j, &mut dists);
                    for (r, &d) in radii.iter_mut().zip(&dists) {
                        if d > *r {
                            *r = d;
                        }
                    }
                }
                for (b, &radius) in radii.iter().enumerate() {
                    let c = count_per_point(&points, b, points.block(i, b), radius, false);
                    local += digamma(c.saturating_sub(1).max(1) as f64);
                }
            }
            KsgVariant::Ksg1 => {
                let eps = neighbours[k - 1].1;
                for b in 0..n {
                    let c = count_per_point(&points, b, points.block(i, b), eps, true);
                    local += digamma((c.saturating_sub(1) + 1) as f64);
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

const VARIANTS: [KsgVariant; 3] = [KsgVariant::Ksg1, KsgVariant::Ksg2, KsgVariant::Paper];

fn fixture(rows: usize, block_sizes: &[usize], seed: u64) -> Vec<f64> {
    let dim: usize = block_sizes.iter().sum();
    sample_gaussian(&equicorrelated_cov(dim, 0.4), rows, seed)
}

fn ksg_cfg(variant: KsgVariant) -> KsgConfig {
    KsgConfig {
        variant,
        ..KsgConfig::default()
    }
}

#[test]
fn ksg_estimates_a_256_dim_block() {
    let (rows, sizes) = (30, [256usize, 2]);
    let data = fixture(rows, &sizes, 5);
    let view = SampleView::new(&data, rows, &sizes);
    let mut ws = MeasureWorkspace::new();
    for variant in VARIANTS {
        let got = ws
            .estimator_mut(&MeasureConfig::Ksg(ksg_cfg(variant)))
            .measure(&view);
        let want = reference_ksg(&view, 4, variant);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{variant:?}: {got} vs {want}"
        );
    }
}

#[test]
fn decompose_merges_128_two_dim_blocks_into_one_256_dim_block() {
    // Per-particle observers of a 128-particle type, plus two more
    // blocks in a second group: the between term merges the first group
    // into a 256-coordinate block.
    let rows = 30;
    let sizes: Vec<usize> = [vec![2; 128], vec![2, 1]].concat();
    let labels: Vec<usize> = (0..sizes.len()).map(|b| usize::from(b >= 128)).collect();
    let grouping = Grouping::from_labels(&labels);
    let data = fixture(rows, &sizes, 6);
    let view = SampleView::new(&data, rows, &sizes);
    let merged: Vec<Vec<f64>> = grouping
        .groups
        .iter()
        .map(|ms| view.merged_blocks(ms))
        .collect();
    let coarse_sizes = [256usize, 3];
    let mut coarse_data = Vec::new();
    for r in 0..rows {
        for (g, &w) in coarse_sizes.iter().enumerate() {
            coarse_data.extend_from_slice(&merged[g][r * w..(r + 1) * w]);
        }
    }
    let coarse = SampleView::new(&coarse_data, rows, &coarse_sizes);
    let group_views = [
        SampleView::new(&merged[0], rows, &sizes[..128]),
        SampleView::new(&merged[1], rows, &sizes[128..]),
    ];
    let mut ws = MeasureWorkspace::new();
    for variant in VARIANTS {
        let d = ws.decompose(&view, &grouping, &ksg_cfg(variant));
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(d.total), bits(reference_ksg(&view, 4, variant)));
        assert_eq!(bits(d.between), bits(reference_ksg(&coarse, 4, variant)));
        for (got, group) in d.within.iter().zip(&group_views) {
            assert_eq!(bits(*got), bits(reference_ksg(group, 4, variant)));
        }
    }
}

#[test]
fn nan_in_a_vector_block_panics_at_every_sample_count() {
    for rows in [10usize, 30] {
        let sizes = [2usize, 2];
        let mut data = fixture(rows, &sizes, 7);
        data[(rows / 2) * 4 + 1] = f64::NAN; // row m/2, first block
        let view = SampleView::new(&data, rows, &sizes);
        let outcome = std::panic::catch_unwind(|| {
            MeasureWorkspace::new()
                .estimator_mut(&MeasureConfig::Ksg(KsgConfig::default()))
                .measure(&view)
        });
        let message = outcome.expect_err("NaN must not become an estimate");
        let message = message
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| message.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("NaN"), "m = {rows}: {message}");
    }
}
