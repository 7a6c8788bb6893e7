//! Figure 8 — increase of multi-information ΔI between `t = 0` and
//! `t = 250` under `F²` scaling, against the number of types.
//!
//! Paper: for a fixed particle count, ΔI *decreases* as the number of
//! types grows (averaged over 10 randomly generated type matrices with
//! preferred-distance radii `r_{αβ} ∈ [1, 5]`).

use crate::report::{self, Series};
use crate::scenario::ScenarioSpec;
use crate::RunOptions;
use sops_math::{rng::derive_seed, stats, PairMatrix};
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::{random_preferred_distances, ForceModel, GaussianForce};
use sops_sim::Model;

/// ΔI per type count.
#[derive(Debug, Clone)]
pub struct Fig8Data {
    /// Type counts `l` swept.
    pub type_counts: Vec<usize>,
    /// Mean ΔI over the random matrix draws.
    pub delta_i: Vec<f64>,
    /// Std of ΔI over the draws.
    pub delta_i_std: Vec<f64>,
    /// Draws per point.
    pub draws: usize,
}

/// Runs the type-count sweep.
pub fn run(opts: &RunOptions) -> Fig8Data {
    let n = opts.scale(40, 16);
    let draws = opts.scale(10, 3);
    let max_l = opts.scale(10, 5);
    let type_counts: Vec<usize> = (1..=max_l).collect();
    let mut cells = Vec::with_capacity(type_counts.len() * draws);
    for &l in &type_counts {
        for d in 0..draws {
            let seed = derive_seed(opts.seed, (l * 1000 + d) as u64);
            let r = random_preferred_distances(l, 1.0, 5.0, seed);
            let law = ForceModel::Gaussian(GaussianForce::from_preferred_distance(
                PairMatrix::constant(l, 3.0),
                &r,
            ));
            let spec = EnsembleSpec {
                model: Model::balanced(n, law, f64::INFINITY),
                integrator: super::standard_integrator(),
                init_radius: 4.0,
                t_max: opts.scale(250, 60),
                samples: opts.scale(300, 60),
                seed: derive_seed(seed, 1),
                criterion: None,
            };
            let mut sc = ScenarioSpec::new(format!("fig8_l{l}_draw{d}"), spec);
            // Only the endpoints matter for ΔI.
            sc.eval_every = sc.ensemble.t_max;
            cells.push(sc);
        }
    }
    let series = super::sweep_series(opts, cells);
    let (delta_i, delta_i_std) = series
        .chunks(draws)
        .map(|point| {
            let deltas: Vec<f64> = point.iter().map(|mi| mi.increase()).collect();
            (stats::mean(&deltas), stats::variance(&deltas).sqrt())
        })
        .unzip();
    let data = Fig8Data {
        type_counts,
        delta_i,
        delta_i_std,
        draws,
    };
    if let Some(path) = super::csv_path(opts, "fig8_delta_i_vs_types.csv") {
        let rows: Vec<Vec<f64>> = data
            .type_counts
            .iter()
            .zip(data.delta_i.iter().zip(&data.delta_i_std))
            .map(|(&l, (&di, &sd))| vec![l as f64, di, sd])
            .collect();
        report::write_csv(&path, &["types", "delta_i_mean", "delta_i_std"], &rows)
            .expect("fig8 csv");
    }
    data
}

impl Fig8Data {
    /// Renders ΔI against the number of types.
    pub fn print(&self) {
        let xs: Vec<f64> = self.type_counts.iter().map(|&l| l as f64).collect();
        let s = Series::from_xy("ΔI [bits]", &xs, &self.delta_i);
        println!(
            "{}",
            report::line_chart(
                &format!(
                    "Fig 8 — ΔI(0→t_max) vs number of types (F2, {} draws/point)",
                    self.draws
                ),
                &[s],
                56,
                14
            )
        );
        for ((l, di), sd) in self
            .type_counts
            .iter()
            .zip(&self.delta_i)
            .zip(&self.delta_i_std)
        {
            println!("    l = {l:2}: ΔI = {di:.3} ± {sd:.3} bits");
        }
        let trend = stats::ols_slope(
            &self
                .type_counts
                .iter()
                .map(|&l| l as f64)
                .collect::<Vec<_>>(),
            &self.delta_i,
        );
        println!("  trend slope {trend:.3} bits/type (paper: decreasing)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_and_finite() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert_eq!(data.type_counts.len(), data.delta_i.len());
        assert!(data.delta_i.iter().all(|v| v.is_finite()));
    }
}
