//! Figure 6 — snapshots of different ensemble samples at `t = 60` and
//! `t = 250` (the shape variety of the Fig. 4 experiment).
//!
//! Paper: final shapes vary across samples but fall into a small number
//! of visually distinguishable categories (e.g. a dark triangular core
//! vs a sandwiched light cluster). Reproduced by rendering several
//! samples at both times and summarizing the across-sample variety with
//! shape statistics (radius of gyration and type-separation spread).

use crate::metrics;
use crate::report;
use crate::RunOptions;
use sops_math::{stats, Vec2};
use sops_shape::distance::{category_count, cluster_shapes};
use sops_shape::IcpConfig;
use sops_sim::streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig};

/// Snapshots and variety statistics.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// `(sample, t, configuration)` snapshots.
    pub snapshots: Vec<(usize, usize, Vec<Vec2>)>,
    /// Particle types.
    pub types: Vec<u16>,
    /// Across-sample std of the radius of gyration at the final step.
    pub rg_std: f64,
    /// Across-sample std of the type-separation metric at the final step.
    pub separation_std: f64,
    /// Shape-category label of each sample's final configuration
    /// (single-linkage clustering in Procrustes shape distance).
    pub categories: Vec<usize>,
    /// The two snapshot times used.
    pub times: (usize, usize),
}

/// Runs the Fig. 6 analysis on the Fig. 4 ensemble.
pub fn run(opts: &RunOptions) -> Fig6Data {
    let mut spec = super::fig4::scenario(opts).ensemble;
    // The gallery needs only a handful of runs; shrink the ensemble but
    // keep seeds aligned with Fig. 4's samples.
    spec.samples = spec.samples.min(opts.scale(8, 4));
    let t_mid = opts.scale(60, 40).min(spec.t_max);
    let t_end = spec.t_max;
    let types = spec.model.types().to_vec();
    let streamed = run_streaming_ensemble(
        &spec,
        &[t_mid, t_end],
        opts.threads,
        &StreamingConfig::default(),
    );
    let frames = EnsembleFrames::Streaming(&streamed);
    let (mut mid_stage, mut mids) = (Vec::new(), Vec::new());
    frames.at_time_into(t_mid, &mut mid_stage, &mut mids);
    let (mut end_stage, mut finals) = (Vec::new(), Vec::new());
    frames.at_time_into(t_end, &mut end_stage, &mut finals);

    let mut snapshots = Vec::new();
    for (s, (mid, end)) in mids.iter().zip(&finals).enumerate() {
        snapshots.push((s, t_mid, mid.to_vec()));
        snapshots.push((s, t_end, end.to_vec()));
    }

    let rgs: Vec<f64> = finals
        .iter()
        .map(|c| metrics::radius_of_gyration(c))
        .collect();
    let seps: Vec<f64> = finals
        .iter()
        .map(|c| metrics::type_separation(c, &types, 3))
        .collect();
    // The paper's "visually distinguishable categories", quantified:
    // single-linkage clusters in Procrustes shape distance. The threshold
    // scales with the collective size (mean radius of gyration).
    let threshold = 0.5 * stats::mean(&rgs);
    let categories = cluster_shapes(&finals, &types, threshold, &IcpConfig::default());
    let data = Fig6Data {
        snapshots,
        types,
        rg_std: stats::variance(&rgs).sqrt(),
        separation_std: stats::variance(&seps).sqrt(),
        categories,
        times: (t_mid, t_end),
    };
    if let Some(path) = super::csv_path(opts, "fig6_variety.csv") {
        let rows: Vec<Vec<f64>> = rgs
            .iter()
            .zip(&seps)
            .enumerate()
            .map(|(s, (&rg, &sep))| vec![s as f64, rg, sep])
            .collect();
        report::write_csv(
            &path,
            &["sample", "radius_of_gyration", "type_separation"],
            &rows,
        )
        .expect("fig6 csv");
    }
    data
}

impl Fig6Data {
    /// Renders a sample × time snapshot gallery.
    pub fn print(&self) {
        println!(
            "Fig 6 — sample gallery at t = {} and t = {}",
            self.times.0, self.times.1
        );
        for (s, t, cfg) in &self.snapshots {
            println!(
                "{}",
                report::scatter_plot(&format!("  sample {s}, t = {t}"), cfg, &self.types, 44, 12)
            );
        }
        println!(
            "  shape variety at the final step: std(radius of gyration) = {:.3}, std(type separation) = {:.3}",
            self.rg_std, self.separation_std
        );
        println!(
            "  shape categories (Procrustes single-linkage): {} across {} samples, labels {:?}",
            category_count(&self.categories),
            self.categories.len(),
            self.categories
        );
        println!("  (paper: several distinct final shape categories across samples)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_has_variety() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert!(!data.snapshots.is_empty());
        // Different samples genuinely differ (non-zero shape spread).
        assert!(data.rg_std > 0.0);
        // Two snapshots per sample.
        assert_eq!(data.snapshots.len() % 2, 0);
        // Every sample got a category label.
        assert_eq!(data.categories.len() * 2, data.snapshots.len());
        let n_cat = category_count(&data.categories);
        assert!(n_cat >= 1 && n_cat <= data.categories.len());
    }
}
