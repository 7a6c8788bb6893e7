//! Figure 9 — multi-information over time for different cut-off radii
//! `r_c`, with as many types as particles.
//!
//! Paper: `F¹`, 20 particles of 20 distinct types, `r_{αβ} ∈ [2, 8]`,
//! `k_{αβ} = 1`, averaged over 10 random type draws, for
//! `r_c ∈ {2.5, 5, 7.5, 10, 15, ∞}`. Larger cut-off radii produce more
//! self-organization; locally limited interaction (`r_c ≤ 7.5`) caps it.

use crate::report::{self, Series};
use crate::scenario::ScenarioSpec;
use crate::RunOptions;
use sops_math::{rng::derive_seed, PairMatrix};
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::{random_preferred_distances, ForceModel, LinearForce};
use sops_sim::Model;

/// One averaged curve of a radius/type sweep.
#[derive(Debug, Clone)]
pub struct SweepCurve {
    /// Legend label (e.g. `rc=7.5` or `l=5, rc=15`).
    pub label: String,
    /// Evaluated time steps.
    pub times: Vec<usize>,
    /// Draw-averaged multi-information per step.
    pub mean_mi: Vec<f64>,
}

impl SweepCurve {
    /// Final value of the averaged curve.
    pub fn final_value(&self) -> f64 {
        *self.mean_mi.last().expect("SweepCurve: empty")
    }
}

/// Writes curves that share one time axis as a CSV: `t`, then one column
/// per curve label (Figs. 9 and 10).
pub(crate) fn write_curves_csv(path: &std::path::Path, curves: &[SweepCurve]) {
    let mut header = vec!["t"];
    header.extend(curves.iter().map(|c| c.label.as_str()));
    let rows: Vec<Vec<f64>> = curves[0]
        .times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let mut row = vec![t as f64];
            row.extend(curves.iter().map(|c| c.mean_mi[i]));
            row
        })
        .collect();
    report::write_csv(path, &header, &rows).expect("curves csv");
}

/// Charts curves under `title` and lists each one's final value (Figs. 9
/// and 10).
pub(crate) fn print_curves(title: &str, curves: &[SweepCurve]) {
    let series: Vec<Series> = curves
        .iter()
        .map(|c| {
            let xs: Vec<f64> = c.times.iter().map(|&t| t as f64).collect();
            Series::from_xy(c.label.clone(), &xs, &c.mean_mi)
        })
        .collect();
    println!("{}", report::line_chart(title, &series, 64, 18));
    for c in curves {
        println!("    {}: final I = {:.2} bits", c.label, c.final_value());
    }
}

/// Shared driver for Figs. 9 and 10: runs `draws` random type draws of an
/// `F¹` system with `l` types, `n = 20` particles and the given cut-off
/// as one sweep plan, and averages the multi-information series across
/// draws.
pub(crate) fn sweep_curve(
    opts: &RunOptions,
    label: String,
    types: usize,
    cutoff: f64,
    draws: usize,
) -> SweepCurve {
    let cells: Vec<ScenarioSpec> = (0..draws)
        .map(|d| {
            let seed = derive_seed(opts.seed, (types * 7919 + d) as u64 ^ cutoff.to_bits());
            let r = random_preferred_distances(types, 2.0, 8.0, seed);
            let law = ForceModel::Linear(LinearForce::new(PairMatrix::constant(types, 1.0), r));
            let spec = EnsembleSpec {
                model: Model::balanced(20, law, cutoff),
                integrator: super::standard_integrator(),
                init_radius: 5.0,
                t_max: opts.scale(250, 60),
                samples: opts.scale(300, 60),
                seed: derive_seed(seed, 2),
                criterion: None,
            };
            let mut sc = ScenarioSpec::new(format!("{label}_draw{d}"), spec);
            sc.eval_every = opts.scale(25, 30);
            sc
        })
        .collect();
    let series = super::sweep_series(opts, cells);
    let mut sum = vec![0.0; series[0].values.len()];
    for mi in &series {
        for (acc, v) in sum.iter_mut().zip(&mi.values) {
            *acc += v;
        }
    }
    for v in &mut sum {
        *v /= draws as f64;
    }
    SweepCurve {
        label,
        times: series[0].times.clone(),
        mean_mi: sum,
    }
}

/// Fig. 9 outputs: one averaged curve per cut-off radius.
#[derive(Debug, Clone)]
pub struct Fig9Data {
    /// Curves in the order of `cutoffs`.
    pub curves: Vec<SweepCurve>,
    /// The swept cut-off radii.
    pub cutoffs: Vec<f64>,
}

/// Runs the cut-off radius sweep.
pub fn run(opts: &RunOptions) -> Fig9Data {
    let cutoffs: Vec<f64> = if opts.fast {
        vec![2.5, 7.5, f64::INFINITY]
    } else {
        vec![2.5, 5.0, 7.5, 10.0, 15.0, f64::INFINITY]
    };
    let draws = opts.scale(10, 2);
    let curves: Vec<SweepCurve> = cutoffs
        .iter()
        .map(|&rc| sweep_curve(opts, format!("rc={rc}"), 20, rc, draws))
        .collect();
    let data = Fig9Data { curves, cutoffs };
    if let Some(path) = super::csv_path(opts, "fig9_mi_vs_radius.csv") {
        write_curves_csv(&path, &data.curves);
    }
    data
}

impl Fig9Data {
    /// Renders all radius curves in one chart.
    pub fn print(&self) {
        print_curves(
            "Fig 9 — multi-information vs time for different rc (l = n = 20)",
            &self.curves,
        );
        println!("  (paper: I grows with rc; locally limited interaction caps self-organization)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_radius_gives_more_organization() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        let first = data.curves.first().unwrap();
        let last = data.curves.last().unwrap();
        assert!(
            last.final_value() > first.final_value(),
            "rc=inf ({:.2}) must beat rc=2.5 ({:.2})",
            last.final_value(),
            first.final_value()
        );
    }
}
