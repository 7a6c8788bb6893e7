//! Estimator comparison — reproduces the paper's §5.3 methodology notes,
//! driving every estimator family through the unified `Estimator` trait.
//!
//! One `MeasureWorkspace` owns a persistent engine per family; each
//! selection is a `MeasureConfig` dispatched polymorphically — exactly
//! how the pipeline's evaluation workers run. On analytic Gaussian
//! ground truth:
//!
//! * the calibrated KSG variants track the truth closely and cheaply;
//! * the literal Eq. 18–20 transcription carries a large positive bias
//!   (why this library defaults to KSG1);
//! * the KDE baseline is orders of magnitude slower ("multiple orders of
//!   magnitudes slower", §5.3);
//! * the shrinkage binning baseline explodes in high dimension and
//!   saturates ("overestimated the multi-information in higher
//!   dimension ... almost no change in information could be seen", §5.3);
//! * the Gaussian plug-in is exact here (the data *is* Gaussian) and
//!   nearly free — but blind to any non-linear structure.
//!
//! ```text
//! cargo run --release --example estimator_shootout
//! ```

use sops::info::gaussian::{equicorrelated_cov, gaussian_multi_information, sample_gaussian};
use sops::info::measure::{MeasureConfig, MeasureWorkspace};
use sops::info::{BinningConfig, KdeConfig, KsgConfig, KsgVariant, SampleView};
use std::time::Instant;

fn main() {
    let m = 800;
    let mut ws = MeasureWorkspace::new();
    let selections: Vec<(&str, MeasureConfig)> = vec![
        (
            "KSG1",
            MeasureConfig::Ksg(KsgConfig {
                k: 4,
                variant: KsgVariant::Ksg1,
            }),
        ),
        (
            "KSG2",
            MeasureConfig::Ksg(KsgConfig {
                k: 4,
                variant: KsgVariant::Ksg2,
            }),
        ),
        (
            "Paper (lit.)",
            MeasureConfig::Ksg(KsgConfig {
                k: 4,
                variant: KsgVariant::Paper,
            }),
        ),
        ("KDE", MeasureConfig::Kde(KdeConfig::default())),
        (
            "binning(JS)",
            MeasureConfig::Binned(BinningConfig::default()),
        ),
        ("discrete", MeasureConfig::DiscretePlugin { bins: 8 }),
        ("gaussian", MeasureConfig::Gaussian),
    ];

    println!("m = {m} samples per case; truth from the Gaussian closed form");
    println!("every row runs through MeasureWorkspace::estimator_mut(&cfg) — one trait, one engine per family\n");
    for (label, d, rho) in [
        ("2 observers, rho=0.6", 2usize, 0.6),
        ("4 observers, rho=0.4", 4, 0.4),
        ("10 observers, rho=0.3", 10, 0.3),
    ] {
        let cov = equicorrelated_cov(d, rho);
        let truth = gaussian_multi_information(&cov, &vec![1; d]);
        let data = sample_gaussian(&cov, m, 2012);
        let sizes = vec![1usize; d];
        let view = SampleView::new(&data, m, &sizes);

        println!("== {label}: truth = {truth:.3} bits");
        for (name, cfg) in &selections {
            let t = Instant::now();
            let estimator = ws.estimator_mut(cfg);
            estimator.prepare(&view);
            let est = estimator.estimate();
            println!(
                "  {name:<14} {est:>8.3} bits   (err {:+.3}, {:?})",
                est - truth,
                t.elapsed()
            );
        }
        println!();
    }
    println!(
        "takeaways: KSG1/KSG2 are calibrated; the literal paper formula over-counts;\n\
         KDE pays a large constant factor; binning saturates once the joint\n\
         histogram goes sparse; the Gaussian plug-in is exact only because this\n\
         data is Gaussian — matching every §5.3 claim."
    );
}
