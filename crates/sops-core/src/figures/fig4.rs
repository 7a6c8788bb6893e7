//! Figure 4 — multi-information over time for the flagship 3-type
//! collective, with snapshots of one sample.
//!
//! Paper parameters: `n = 50`, `l = 3`, `r_c = 5.0`,
//! `r = [[2.5, 5, 4], [5, 2.5, 2], [4, 2, 3.5]]`, snapshots at
//! `t ∈ {0, 10, 20, 50, 249}`; the multi-information rises from ≈2 bits
//! to ≈10 bits by `t = 250`, correlating with the visible organization.
//!
//! The force family is not named in the caption; we use `F¹` with
//! `k_{αβ} = 1`, which produces the cohesive sorted blob with
//! membrane-like layers visible in the paper's snapshots (an `F²`
//! collective cannot cohere: `F²` with `σ = 1 ≤ τ` repels everywhere, see
//! `sops_sim::force`).

use crate::pipeline::MiSeries;
use crate::report;
use crate::scenario::ScenarioSpec;
use crate::RunOptions;
use sops_math::{PairMatrix, Vec2};
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::{ForceModel, LinearForce};
use sops_sim::Model;

/// The snapshot steps shown below the paper's Fig. 4 plot.
pub(crate) const SNAPSHOT_TIMES: [usize; 5] = [0, 10, 20, 50, 249];

/// Fig. 4 outputs.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// The multi-information time series.
    pub mi: MiSeries,
    /// One sample's configurations at steps 0, 10, 20, 50 and 249
    /// (clamped to the simulated horizon).
    pub snapshots: Vec<(usize, Vec<Vec2>)>,
    /// Particle types.
    pub types: Vec<u16>,
}

/// The Fig. 4 preferred-distance matrix from the paper.
pub(crate) fn preferred_distances() -> PairMatrix {
    PairMatrix::from_full(3, &[2.5, 5.0, 4.0, 5.0, 2.5, 2.0, 4.0, 2.0, 3.5])
}

/// Builds the Fig. 4 scenario (shared with Figs. 1 and 6).
pub(crate) fn scenario(opts: &RunOptions) -> ScenarioSpec {
    let law = ForceModel::Linear(LinearForce::new(
        PairMatrix::constant(3, 1.0),
        preferred_distances(),
    ));
    let model = Model::balanced(opts.scale(50, 30), law, 5.0);
    let spec = EnsembleSpec {
        model,
        integrator: super::standard_integrator(),
        init_radius: 5.0,
        t_max: opts.scale(250, 100),
        samples: opts.scale(500, 100),
        seed: opts.seed,
        criterion: None,
    };
    let mut sc = ScenarioSpec::new("fig4", spec);
    sc.eval_every = opts.scale(10, 20);
    sc
}

/// Runs the Fig. 4 experiment.
pub fn run(opts: &RunOptions) -> Fig4Data {
    let sc = scenario(opts);
    let types = sc.ensemble.model.types().to_vec();
    // One extra single run for the snapshot strip (same seed as ensemble
    // sample 0 would be, but run locally to keep frames without holding
    // the whole ensemble here).
    let mut sim = sops_sim::Simulation::with_disc_init(
        sc.ensemble.model.clone(),
        sc.ensemble.integrator,
        sc.ensemble.init_radius,
        sops_math::rng::derive_seed(sc.ensemble.seed, 0),
    );
    let traj = sim.run(sc.ensemble.t_max, None);
    let snapshots: Vec<(usize, Vec<Vec2>)> = SNAPSHOT_TIMES
        .iter()
        .map(|&t| {
            let t = t.min(sc.ensemble.t_max);
            (t, traj.frames[t].clone())
        })
        .collect();

    let mi = super::sweep_series(opts, vec![sc]).remove(0);
    let data = Fig4Data {
        mi,
        snapshots,
        types,
    };
    super::write_mi_csv(opts, "fig4_mi_series.csv", &data.mi);
    data
}

impl Fig4Data {
    /// Renders the MI curve and the snapshot strip.
    pub fn print(&self) {
        super::print_mi_chart(
            "Fig 4 — multi-information vs time (n=50, l=3, rc=5)",
            &self.mi,
        );
        println!(
            "  increase ΔI = {:.2} bits over the run (paper: ≈2 → ≈10 bits)",
            self.mi.increase()
        );
        for (t, cfg) in &self.snapshots {
            println!(
                "{}",
                report::scatter_plot(
                    &format!("  sample snapshot t = {t}"),
                    cfg,
                    &self.types,
                    48,
                    14
                )
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper() {
        let r = preferred_distances();
        assert_eq!(r.get(0, 1), 5.0);
        assert_eq!(r.get(1, 2), 2.0);
        assert_eq!(r.get(2, 2), 3.5);
    }

    #[test]
    fn fast_run_shows_organization() {
        let mut opts = RunOptions {
            fast: true,
            ..RunOptions::default()
        };
        opts.seed = 7;
        let data = run(&opts);
        assert_eq!(data.snapshots.len(), SNAPSHOT_TIMES.len());
        assert!(
            data.mi.increase() > 1.0,
            "MI must rise: {:?}",
            data.mi.values
        );
        // Snapshot times clamp to the fast horizon.
        assert!(data.snapshots.iter().all(|(t, _)| *t <= 100));
    }
}
