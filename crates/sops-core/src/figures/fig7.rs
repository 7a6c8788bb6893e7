//! Figure 7 — overlay of all aligned samples of the single-type ring
//! experiment at `t = 250`.
//!
//! Paper: after alignment, the *outer* ring's particles form dense
//! clusters across samples (well alignable), while the *inner* ring is
//! smeared — its rotation relative to the outer ring is a genuine degree
//! of freedom. Reproduced quantitatively: the per-particle cross-sample
//! dispersion of outer-ring particles is much smaller than that of
//! inner-ring particles.

use crate::metrics;
use crate::report;
use crate::RunOptions;
use sops_math::Vec2;
use sops_shape::ensemble::{reduce_configurations_with, ReduceConfig, ReduceWorkspace};
use sops_sim::streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig};

/// Overlay data and the ring-dispersion comparison.
#[derive(Debug, Clone)]
pub struct Fig7Data {
    /// All aligned particle positions of every sample (the overlay dots).
    pub overlay: Vec<Vec2>,
    /// Per-particle cross-sample dispersion (reference indexing).
    pub dispersion: Vec<f64>,
    /// Mean radius and mean dispersion per detected ring (innermost
    /// first): `(radius, dispersion, member_count)`.
    pub rings: Vec<(f64, f64, usize)>,
}

/// Runs the Fig. 7 analysis on the Fig. 5 ensemble's final step.
pub fn run(opts: &RunOptions) -> Fig7Data {
    let sc = super::fig5::scenario(opts);
    let mut spec = sc.ensemble.clone();
    spec.samples = spec.samples.min(opts.scale(500, 80));
    let t_end = spec.t_max;
    let types = spec.model.types().to_vec();
    let streamed =
        run_streaming_ensemble(&spec, &[t_end], opts.threads, &StreamingConfig::default());
    let frames = EnsembleFrames::Streaming(&streamed);
    let (mut stage, mut slice) = (Vec::new(), Vec::new());
    frames.at_time_into(t_end, &mut stage, &mut slice);
    // One step to align: the samples are the parallel axis, on the run's
    // worker count.
    let reduce = ReduceConfig {
        threads: opts.threads,
        ..sc.reduce
    };
    let reduced = reduce_configurations_with(&mut ReduceWorkspace::new(), &slice, &types, &reduce);

    let overlay: Vec<Vec2> = reduced.configs.iter().flatten().copied().collect();
    let dispersion = metrics::cross_sample_dispersion(&reduced.configs);

    // Ring structure from the reference sample (index 0 of the reduced
    // set), dispersion averaged per ring.
    let reference = &reduced.configs[0];
    let rings_idx = metrics::ring_decomposition(reference, 4.0);
    let rings: Vec<(f64, f64, usize)> = rings_idx
        .iter()
        .map(|ring| {
            let radius = metrics::ring_radius(reference, ring);
            let mean_disp = ring.iter().map(|&i| dispersion[i]).sum::<f64>() / ring.len() as f64;
            (radius, mean_disp, ring.len())
        })
        .collect();

    let data = Fig7Data {
        overlay,
        dispersion,
        rings,
    };
    if let Some(path) = super::csv_path(opts, "fig7_dispersion.csv") {
        let rows: Vec<Vec<f64>> = reference
            .iter()
            .zip(&data.dispersion)
            .map(|(p, &d)| vec![p.norm(), d])
            .collect();
        report::write_csv(&path, &["radius", "cross_sample_dispersion"], &rows).expect("fig7 csv");
    }
    data
}

impl Fig7Data {
    /// Renders the overlay and the ring comparison.
    pub fn print(&self) {
        let types = vec![0u16; self.overlay.len()];
        println!(
            "{}",
            report::scatter_plot(
                "Fig 7 — overlay of all aligned samples at the final step",
                &self.overlay,
                &types,
                60,
                22
            )
        );
        println!("  rings (innermost first): radius / mean cross-sample dispersion / size");
        for (radius, disp, count) in &self.rings {
            println!("    r = {radius:.2}  dispersion = {disp:.3}  particles = {count}");
        }
        if let (Some(inner), Some(outer)) = (self.rings.first(), self.rings.last()) {
            println!(
                "  outer ring aligns tighter than the inner structure: {:.3} < {:.3} (paper: outer clusters dense, inner rotation free)",
                outer.1, inner.1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_ring_tighter_than_inner() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert!(
            data.rings.len() >= 2,
            "two-ring structure expected: {:?}",
            data.rings
        );
        let inner = data.rings.first().unwrap();
        let outer = data.rings.last().unwrap();
        assert!(
            outer.1 < inner.1,
            "outer dispersion {} must be below inner {}",
            outer.1,
            inner.1
        );
    }
}
