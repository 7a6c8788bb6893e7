//! Figure 3 — equilibrium states for different numbers of types.
//!
//! Paper: three example equilibrium configurations (3, 2 and 1 types);
//! with one type and `F²` the equilibrium is "always a regular grid" in
//! the shape of a disc. Reproduced by running each collective to (near)
//! equilibrium and reporting grid-regularity metrics: the coefficient of
//! variation of nearest-neighbour distances is near zero for the regular
//! single-type grid and larger for the structured multi-type states.

use crate::metrics;
use crate::report;
use crate::RunOptions;
use sops_math::{rng::derive_seed, PairMatrix, Vec2};
use sops_sim::force::{ForceModel, GaussianForce};
use sops_sim::{EquilibriumCriterion, Model, Simulation};

/// One panel of the figure.
#[derive(Debug, Clone)]
pub struct Fig3Panel {
    /// Number of types.
    pub types: usize,
    /// Final configuration.
    pub config: Vec<Vec2>,
    /// Particle types.
    pub type_of: Vec<u16>,
    /// Nearest-neighbour distance CV (grid regularity; lower = more
    /// regular).
    pub nn_cv: f64,
    /// Steps taken before the equilibrium criterion held (or the cap).
    pub steps: usize,
    /// Whether the equilibrium criterion was met.
    pub equilibrated: bool,
}

/// All three panels.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// Panels for `l = 3, 2, 1`.
    pub panels: Vec<Fig3Panel>,
}

/// Runs the three equilibrium experiments.
pub fn run(opts: &RunOptions) -> Fig3Data {
    let n = opts.scale(40, 24);
    // The noise anneals the packing toward a regular grid; reaching low
    // nearest-neighbour CV takes a few thousand steps even for the small
    // fast-mode collective.
    let max_steps = opts.scale(6000, 3500);
    // The three panels are independent one-thread simulations: run them
    // side by side, in panel order.
    let panels = sops_par::parallel_map(3, sops_par::resolve_threads(opts.threads), |panel| {
        let l = 3 - panel;
        // Gaussian (F2) law: same-type range 2, cross-type ranges
        // spread out so types separate.
        let r = PairMatrix::from_fn(l, |a, b| {
            if a == b {
                2.0
            } else {
                3.0 + (a + b) as f64 * 0.5
            }
        });
        let law = ForceModel::Gaussian(GaussianForce::from_preferred_distance(
            PairMatrix::constant(l, 3.0),
            &r,
        ));
        let model = Model::balanced(n, law, 6.0);
        let type_of = model.types().to_vec();
        let mut sim = Simulation::with_disc_init(
            model.clone(),
            super::standard_integrator(),
            3.0,
            derive_seed(opts.seed, l as u64),
        );
        let (steps, equilibrated) = sim.run_to_equilibrium(
            EquilibriumCriterion {
                threshold: 0.25,
                patience: 10,
            },
            max_steps,
        );
        let config = sim.positions().to_vec();
        let nn_cv = metrics::nn_distance_cv(&config);
        Fig3Panel {
            types: l,
            config,
            type_of,
            nn_cv,
            steps,
            equilibrated,
        }
    });
    let data = Fig3Data { panels };
    if let Some(path) = super::csv_path(opts, "fig3_equilibria.csv") {
        let rows: Vec<Vec<f64>> = data
            .panels
            .iter()
            .map(|p| {
                vec![
                    p.types as f64,
                    p.nn_cv,
                    p.steps as f64,
                    if p.equilibrated { 1.0 } else { 0.0 },
                ]
            })
            .collect();
        report::write_csv(&path, &["types", "nn_cv", "steps", "equilibrated"], &rows)
            .expect("fig3 csv");
    }
    data
}

impl Fig3Data {
    /// Renders the three panels with their regularity metrics.
    pub fn print(&self) {
        println!("Fig 3 — equilibrium states for l = 3, 2, 1 (F2 scaling)");
        for p in &self.panels {
            println!(
                "{}",
                report::scatter_plot(
                    &format!(
                        "  l = {} (nn-distance CV {:.3}, {} steps, equilibrated: {})",
                        p.types, p.nn_cv, p.steps, p.equilibrated
                    ),
                    &p.config,
                    &p.type_of,
                    56,
                    18,
                )
            );
        }
        let single = self.panels.iter().find(|p| p.types == 1).unwrap();
        let multi = self.panels.iter().find(|p| p.types == 3).unwrap();
        println!(
            "  single-type grid is more regular than the 3-type state: CV {:.3} < {:.3}",
            single.nn_cv, multi.nn_cv
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_type_is_most_regular() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert_eq!(data.panels.len(), 3);
        let cv_of = |l: usize| {
            data.panels
                .iter()
                .find(|p| p.types == l)
                .map(|p| p.nn_cv)
                .unwrap()
        };
        // The paper's claim: one type ⇒ regular grid. Multi-type states
        // have structured, less regular spacing.
        assert!(
            cv_of(1) < cv_of(3),
            "1-type CV {} should be below 3-type CV {}",
            cv_of(1),
            cv_of(3)
        );
        assert!(cv_of(1) < 0.35, "single-type grid CV {}", cv_of(1));
    }
}
