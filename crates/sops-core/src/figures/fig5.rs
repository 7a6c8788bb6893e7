//! Figure 5 — multi-information over time for a *single-type* `F¹`
//! collective (20 particles, 500 samples).
//!
//! Paper: with `r_c > 2 r_{αα}` the 20 particles settle into two
//! concentric regular polygons whose relative rotation remains a degree
//! of freedom; despite a single type, the multi-information climbs to
//! ≈7–8 bits and is still rising at `t = 250`.

use crate::pipeline::MiSeries;
use crate::scenario::ScenarioSpec;
use crate::RunOptions;
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::{ForceModel, LinearForce};
use sops_sim::Model;

/// Fig. 5 outputs.
#[derive(Debug, Clone)]
pub struct Fig5Data {
    /// The multi-information time series.
    pub mi: MiSeries,
}

/// Builds the Fig. 5 scenario (shared with Fig. 7).
pub(crate) fn scenario(opts: &RunOptions) -> ScenarioSpec {
    // Single type, k = 1, preferred distance 2; unbounded cut-off
    // satisfies r_c > 2 r_aa.
    let law = ForceModel::Linear(LinearForce::uniform(1.0, 2.0));
    let model = Model::balanced(20, law, f64::INFINITY);
    let spec = EnsembleSpec {
        model,
        integrator: super::slow_integrator(),
        init_radius: 4.0,
        t_max: opts.scale(250, 100),
        samples: opts.scale(500, 120),
        seed: sops_math::rng::derive_seed(opts.seed, 5),
        criterion: None,
    };
    let mut sc = ScenarioSpec::new("fig5", spec);
    sc.eval_every = opts.scale(10, 20);
    sc
}

/// Runs the Fig. 5 experiment.
pub fn run(opts: &RunOptions) -> Fig5Data {
    let mi = super::sweep_series(opts, vec![scenario(opts)]).remove(0);
    let data = Fig5Data { mi };
    super::write_mi_csv(opts, "fig5_mi_series.csv", &data.mi);
    data
}

impl Fig5Data {
    /// Renders the MI curve with the paper-comparison facts.
    pub fn print(&self) {
        super::print_mi_chart(
            "Fig 5 — multi-information vs time (F1, 20 particles, one type)",
            &self.mi,
        );
        let half = self.mi.values.len() / 2;
        let late_slope = {
            let xs: Vec<f64> = self.mi.times[half..].iter().map(|&t| t as f64).collect();
            sops_math::stats::ols_slope(&xs, &self.mi.values[half..])
        };
        println!(
            "  final I = {:.2} bits (paper ≈7–8); still rising late in the run: slope {:.4} bits/step (paper: still increasing at t = 250)",
            self.mi.values.last().unwrap(),
            late_slope
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_type_still_organizes() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert!(
            data.mi.increase() > 1.0,
            "single-type F1 collective must organize: {:?}",
            data.mi.values
        );
        assert!(data.mi.slope() > 0.0);
    }
}
