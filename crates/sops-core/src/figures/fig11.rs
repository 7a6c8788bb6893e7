//! Figure 11 — normalized decomposition of the multi-information over
//! time (Eq. 5, grouped by particle type).
//!
//! Paper: for an `l = 5, r_c = 15` draw of the Fig. 10 protocol, the
//! relative contributions (between-types term plus one within-type term
//! per type) vary strongly during the early phase and then settle to
//! stable fractions while the total multi-information is still rising.

use crate::pipeline::decomposition_series;
use crate::report::{self, Series};
use crate::scenario::ScenarioSpec;
use crate::RunOptions;
use sops_math::{rng::derive_seed, stats, PairMatrix};
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::{random_preferred_distances, ForceModel, LinearForce};
use sops_sim::Model;

/// Fig. 11 outputs.
#[derive(Debug, Clone)]
pub struct Fig11Data {
    /// Evaluated time steps.
    pub times: Vec<usize>,
    /// Normalized contributions per step: row = `(between, within_1, …,
    /// within_l)`; `None` where the total is too small to normalize.
    pub normalized: Vec<Option<Vec<f64>>>,
    /// Total multi-information per step (for the "still organizing"
    /// check).
    pub total: Vec<f64>,
    /// Number of types.
    pub types: usize,
}

/// Runs the decomposition experiment.
pub fn run(opts: &RunOptions) -> Fig11Data {
    let l = 5;
    let seed = derive_seed(opts.seed, 11);
    let r = random_preferred_distances(l, 2.0, 8.0, seed);
    let law = ForceModel::Linear(LinearForce::new(PairMatrix::constant(l, 1.0), r));
    let spec = EnsembleSpec {
        model: Model::balanced(20, law, 15.0),
        integrator: super::standard_integrator(),
        init_radius: 5.0,
        t_max: opts.scale(250, 60),
        samples: opts.scale(400, 80),
        seed: derive_seed(seed, 3),
        criterion: None,
    };
    let mut sc = ScenarioSpec::new("fig11", spec);
    sc.eval_every = opts.scale(10, 20);

    let series = decomposition_series(&sc, opts.threads);
    let normalized = series.normalized(0.05);
    let total: Vec<f64> = series.terms.iter().map(|d| d.total).collect();
    let data = Fig11Data {
        times: series.times,
        normalized,
        total,
        types: l,
    };
    if let Some(path) = super::csv_path(opts, "fig11_decomposition.csv") {
        let mut header: Vec<String> = vec!["t".into(), "total".into(), "between".into()];
        for t in 0..l {
            header.push(format!("within_type_{t}"));
        }
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<f64>> = data
            .times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let mut row = vec![t as f64, data.total[i]];
                match &data.normalized[i] {
                    Some(parts) => row.extend(parts.iter().copied()),
                    None => row.extend(std::iter::repeat_n(f64::NAN, l + 1)),
                }
                row
            })
            .collect();
        report::write_csv(&path, &header_refs, &rows).expect("fig11 csv");
    }
    data
}

impl Fig11Data {
    /// Std over time of each normalized term, split into early and late
    /// halves — the paper's "varies early, settles late" observation made
    /// quantitative.
    pub fn settling(&self) -> Option<(f64, f64)> {
        let defined: Vec<&Vec<f64>> = self.normalized.iter().flatten().collect();
        if defined.len() < 6 {
            return None;
        }
        let half = defined.len() / 2;
        let spread = |rows: &[&Vec<f64>]| -> f64 {
            let terms = rows[0].len();
            (0..terms)
                .map(|j| {
                    let col: Vec<f64> = rows.iter().map(|r| r[j]).collect();
                    stats::variance(&col).sqrt()
                })
                .sum::<f64>()
                / terms as f64
        };
        Some((spread(&defined[..half]), spread(&defined[half..])))
    }

    /// Renders the normalized stack and the settling summary.
    pub fn print(&self) {
        let xs: Vec<f64> = self.times.iter().map(|&t| t as f64).collect();
        let mut series = Vec::new();
        let labels: Vec<String> = std::iter::once("between types".to_string())
            .chain((0..self.types).map(|t| format!("within type {t}")))
            .collect();
        for (j, label) in labels.iter().enumerate() {
            let ys: Vec<f64> = self
                .normalized
                .iter()
                .map(|row| row.as_ref().map_or(f64::NAN, |r| r[j]))
                .collect();
            series.push(Series::from_xy(label.clone(), &xs, &ys));
        }
        println!(
            "{}",
            report::line_chart(
                "Fig 11 — normalized decomposition of I over time (l=5, rc=15)",
                &series,
                64,
                18
            )
        );
        if let Some((early, late)) = self.settling() {
            println!(
                "  contribution spread early {:.3} vs late {:.3} (paper: early variation, then settling)",
                early, late
            );
        }
        println!(
            "  total I rises {:.2} → {:.2} bits while fractions settle",
            self.total.first().unwrap_or(&f64::NAN),
            self.total.last().unwrap_or(&f64::NAN)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_runs_and_normalizes() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert_eq!(data.times.len(), data.normalized.len());
        for row in data.normalized.iter().flatten() {
            assert_eq!(row.len(), data.types + 1);
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "normalized rows sum to 1");
        }
        // Organization happens.
        assert!(data.total.last().unwrap() > data.total.first().unwrap());
    }
}
