//! Integration-level validation of the estimator stack against analytic
//! Gaussian ground truth, including the cross-estimator comparisons the
//! paper reports in §5.3.

use sops::info::decomposition::Grouping;
use sops::info::entropy::entropy_breakdown;
use sops::info::gaussian::{
    equicorrelated_cov, gaussian_entropy, gaussian_multi_information, sample_gaussian,
};
use sops::info::measure::{MeasureConfig, MeasureWorkspace};
use sops::info::{BinningConfig, KdeConfig, KsgConfig, KsgVariant, SampleView};
use sops::math::Matrix;

/// The KSG multi-information of `view` through a fresh workspace.
fn ksg(view: &SampleView<'_>, cfg: &KsgConfig) -> f64 {
    MeasureWorkspace::new()
        .estimator_mut(&MeasureConfig::Ksg(*cfg))
        .measure(view)
}

#[test]
fn ksg_tracks_truth_across_sample_sizes() {
    let cov = equicorrelated_cov(3, 0.5);
    let truth = gaussian_multi_information(&cov, &[1, 1, 1]);
    let mut errs = Vec::new();
    for (m, seed) in [(250usize, 1u64), (500, 2), (1000, 3)] {
        let data = sample_gaussian(&cov, m, seed);
        let sizes = [1usize, 1, 1];
        let view = SampleView::new(&data, m, &sizes);
        let est = ksg(&view, &KsgConfig::default());
        errs.push((est - truth).abs());
    }
    // All close; error at m=1000 below error-plus-slack at m=250.
    assert!(errs.iter().all(|&e| e < 0.3), "errors {errs:?}");
    assert!(
        errs[2] < errs[0] + 0.1,
        "no blow-up with more data: {errs:?}"
    );
}

#[test]
fn ksg_consistent_between_variants_on_coupled_data() {
    let cov = equicorrelated_cov(4, 0.5);
    let data = sample_gaussian(&cov, 900, 7);
    let sizes = [1usize, 1, 1, 1];
    let view = SampleView::new(&data, 900, &sizes);
    let v1 = ksg(
        &view,
        &KsgConfig {
            variant: KsgVariant::Ksg1,
            ..KsgConfig::default()
        },
    );
    let v2 = ksg(
        &view,
        &KsgConfig {
            variant: KsgVariant::Ksg2,
            ..KsgConfig::default()
        },
    );
    assert!((v1 - v2).abs() < 0.25, "KSG1 {v1} vs KSG2 {v2}");
}

#[test]
fn decomposition_identity_holds_on_block_gaussians() {
    // Two 2-d particles per group, correlation within and across groups.
    let mut cov = Matrix::identity(8);
    for (i, j, v) in [
        (0usize, 2usize, 0.55f64),
        (4, 6, 0.55),
        (0, 4, 0.3),
        (2, 6, 0.3),
    ] {
        cov[(i, j)] = v;
        cov[(j, i)] = v;
    }
    let data = sample_gaussian(&cov, 1200, 11);
    let sizes = [2usize, 2, 2, 2];
    let view = SampleView::new(&data, 1200, &sizes);
    let grouping = Grouping::from_labels(&[0, 0, 1, 1]);
    let d = MeasureWorkspace::new().decompose(&view, &grouping, &KsgConfig::default());
    let residual = (d.total - d.reconstructed_total()).abs();
    assert!(
        residual < 0.3,
        "Eq. 5 identity residual {residual}: total {} vs between {} + within {:?}",
        d.total,
        d.between,
        d.within
    );
    // Ground truth cross-check for the total.
    let truth = gaussian_multi_information(&cov, &[2, 2, 2, 2]);
    assert!(
        (d.total - truth).abs() < 0.3,
        "total {} vs truth {truth}",
        d.total
    );
}

#[test]
fn entropy_route_consistent_with_direct_multi_information() {
    let cov = equicorrelated_cov(3, 0.6);
    let data = sample_gaussian(&cov, 1500, 13);
    let sizes = [1usize, 1, 1];
    let view = SampleView::new(&data, 1500, &sizes);
    let breakdown = entropy_breakdown(&view, 4);
    // Marginal entropies match the standard-normal closed form.
    let h1 = gaussian_entropy(&Matrix::identity(1));
    for &h in &breakdown.marginals {
        assert!((h - h1).abs() < 0.1, "marginal {h} vs {h1}");
    }
    let via_entropy = breakdown.multi_information();
    let direct = ksg(&view, &KsgConfig::default());
    assert!(
        (via_entropy - direct).abs() < 0.3,
        "Σh − h route {via_entropy} vs KSG {direct}"
    );
}

#[test]
fn paper_533_comparison_ksg_beats_baselines_in_high_dimension() {
    // §5.3: KSG shows less variance than KDE and binning overestimates in
    // high-d. Measure estimator spread over independent draws at d = 8,
    // all three families driven through one `MeasureWorkspace` — the
    // pipeline's own dispatch surface.
    let d = 8;
    let m = 400;
    let cov = equicorrelated_cov(d, 0.3);
    let truth = gaussian_multi_information(&cov, &vec![1; d]);
    let sizes = vec![1usize; d];

    let mut ws = MeasureWorkspace::new();
    let mut ksg_errs = Vec::new();
    let mut kde_errs = Vec::new();
    let mut bin_errs = Vec::new();
    for seed in 0..4u64 {
        let data = sample_gaussian(&cov, m, 100 + seed);
        let view = SampleView::new(&data, m, &sizes);
        let mut estimate = |cfg: MeasureConfig| ws.estimator_mut(&cfg).measure(&view) - truth;
        ksg_errs.push(estimate(MeasureConfig::Ksg(KsgConfig::default())));
        kde_errs.push(estimate(MeasureConfig::Kde(KdeConfig::default())));
        bin_errs.push(estimate(MeasureConfig::Binned(BinningConfig::default())));
    }
    let mean_abs = |v: &[f64]| v.iter().map(|e| e.abs()).sum::<f64>() / v.len() as f64;
    assert!(
        mean_abs(&ksg_errs) < mean_abs(&bin_errs),
        "KSG |err| {} must beat binning |err| {}",
        mean_abs(&ksg_errs),
        mean_abs(&bin_errs)
    );
    // Binning overestimates (positive bias), dramatically.
    assert!(
        bin_errs.iter().all(|&e| e > 1.0),
        "binning must overestimate in high-d: {bin_errs:?}"
    );
    // KSG is competitive with KDE on accuracy and beats it on runtime
    // (timing is covered by the Criterion `estimators` bench).
    assert!(mean_abs(&ksg_errs) < mean_abs(&kde_errs) + 0.2);
}

#[test]
fn literal_paper_formula_bias_is_the_documented_artifact() {
    // Verbatim Eq. 18-20 carries a positive bias that grows with observer
    // count even on independent data (why the default variant is KSG1).
    const SIZES2: [usize; 2] = [1, 1];
    const SIZES6: [usize; 6] = [1; 6];
    let data2 = sample_gaussian(&Matrix::identity(2), 800, 21);
    let data6 = sample_gaussian(&Matrix::identity(6), 800, 22);
    let paper = |data: &[f64], sizes: &'static [usize]| {
        ksg(
            &SampleView::new(data, 800, sizes),
            &KsgConfig {
                variant: KsgVariant::Paper,
                ..KsgConfig::default()
            },
        )
    };
    let b2 = paper(&data2, &SIZES2);
    let b6 = paper(&data6, &SIZES6);
    assert!(b2 > 0.5, "n=2 bias {b2}");
    assert!(b6 > b2, "bias grows with n: {b2} -> {b6}");
}
