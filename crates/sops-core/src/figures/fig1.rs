//! Figure 1 — an example particle configuration whose morphology
//! resembles biological structure ("membranes or nuclei").
//!
//! Reproduced with a single long run of the Fig. 4 system: the three
//! types settle into a sorted blob with a core and a surrounding
//! membrane-like layer.

use crate::metrics;
use crate::report;
use crate::RunOptions;
use sops_math::Vec2;
use sops_sim::Simulation;

/// The example configuration.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// Final configuration.
    pub config: Vec<Vec2>,
    /// Particle types.
    pub types: Vec<u16>,
    /// Type separation (sortedness) of the final state.
    pub type_separation: f64,
    /// Type separation of the initial state, for contrast.
    pub initial_separation: f64,
}

/// Runs the example configuration.
pub fn run(opts: &RunOptions) -> Fig1Data {
    let sc = super::fig4::scenario(opts);
    let mut sim = Simulation::with_disc_init(
        sc.ensemble.model.clone(),
        sc.ensemble.integrator,
        sc.ensemble.init_radius,
        sops_math::rng::derive_seed(opts.seed, 1),
    );
    let types = sc.ensemble.model.types().to_vec();
    let initial_separation = metrics::type_separation(sim.positions(), &types, 3);
    let traj = sim.run(opts.scale(400, 120), None);
    let config = traj.last().to_vec();
    let type_separation = metrics::type_separation(&config, &types, 3);
    let data = Fig1Data {
        config,
        types,
        type_separation,
        initial_separation,
    };
    if let Some(path) = super::csv_path(opts, "fig1_configuration.csv") {
        let rows: Vec<Vec<f64>> = data
            .config
            .iter()
            .zip(&data.types)
            .map(|(p, &t)| vec![p.x, p.y, t as f64])
            .collect();
        report::write_csv(&path, &["x", "y", "type"], &rows).expect("fig1 csv");
    }
    data
}

impl Fig1Data {
    /// Renders the configuration.
    pub fn print(&self) {
        println!(
            "{}",
            report::scatter_plot(
                "Fig 1 — example organized configuration (3 types)",
                &self.config,
                &self.types,
                60,
                24
            )
        );
        println!(
            "  type separation grew {:.2} → {:.2} during organization",
            self.initial_separation, self.type_separation
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configuration_is_sorted() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert!(
            data.type_separation > data.initial_separation,
            "types must sort: {} -> {}",
            data.initial_separation,
            data.type_separation
        );
    }
}
