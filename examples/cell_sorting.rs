//! Differential adhesion / cell sorting: the biological motivation of the
//! paper's introduction.
//!
//! Mixed cells of two tissue types un-mix purely through differential
//! adhesion (Steinberg's sorting-out). Here: two particle types whose
//! same-type preferred distance is smaller than the cross-type one. The
//! demo tracks the type-separation metric and renders snapshots of the
//! sorting process, then verifies the multi-information measure agrees
//! that organization happened.
//!
//! ```text
//! cargo run --release --example cell_sorting
//! ```

use sops::core::{metrics, report};
use sops::prelude::*;

fn main() {
    // Adhesion model: "cells" of the same tissue stick closer (r = 1.2)
    // than cells of different tissues (r = 3.0); k scales the force.
    let force_scale = PairMatrix::constant(2, 1.0);
    let preferred = PairMatrix::from_full(2, &[1.2, 3.0, 3.0, 1.2]);
    let law = ForceModel::Linear(LinearForce::new(force_scale, preferred));
    let model = Model::balanced(40, law, 6.0);
    let types = model.types().to_vec();

    // One long run for the visual story.
    let mut sim = Simulation::with_disc_init(
        model.clone(),
        IntegratorConfig {
            dt: 0.05,
            substeps: 2,
            noise_variance: 0.0025,
            max_step: 0.5,
        },
        3.0,
        7,
    );
    let traj = sim.run(300, Some(EquilibriumCriterion::default()));

    println!("cell sorting by differential adhesion (two tissue types)\n");
    for &t in &[0usize, 30, 100, 300] {
        let cfg = &traj.frames[t];
        let sep = metrics::type_separation(cfg, &types, 2);
        println!(
            "{}",
            report::scatter_plot(
                &format!("t = {t:3}  (tissue separation {sep:.2})"),
                cfg,
                &types,
                52,
                16
            )
        );
    }
    let sep0 = metrics::type_separation(&traj.frames[0], &types, 2);
    let sep_end = metrics::type_separation(traj.last(), &types, 2);
    println!("tissue separation grew {sep0:.2} → {sep_end:.2}");
    if let Some(step) = traj.equilibrium_step {
        println!("equilibrium criterion met at step {step}");
    }

    // Cross-check with the information-theoretic measure on an ensemble.
    let spec = EnsembleSpec {
        model,
        integrator: IntegratorConfig {
            dt: 0.05,
            substeps: 2,
            noise_variance: 0.0025,
            max_step: 0.5,
        },
        init_radius: 3.0,
        t_max: 100,
        samples: 120,
        seed: 11,
        criterion: None,
    };
    let mut scenario = ScenarioSpec::new("cell_sorting", spec);
    scenario.eval_every = 20;
    let plan = SweepPlan::new(vec![scenario], vec![MeasureConfig::default()]);
    let cell = run_sweep(&plan).expect("valid plan").cells.remove(0);
    assert!(cell.status.is_ok(), "{:?}", cell.status);
    let result = cell.result;
    println!(
        "\nmulti-information agrees: I = {:?} bits over t = {:?}",
        result
            .mi
            .values
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        result.mi.times
    );
    assert!(
        result.mi.increase() > 0.5,
        "sorting should register as self-organization"
    );
    println!(
        "ΔI = {:.2} bits — sorting is self-organization.",
        result.mi.increase()
    );
}
