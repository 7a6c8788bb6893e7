//! Quickstart: simulate a small two-type collective and measure its
//! self-organization as the increase of multi-information over time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sops::core::report::{self, Series};
use sops::prelude::*;

fn main() {
    // 1. Define the physics: two particle types under the F1 force law.
    //    Same-type pairs prefer distance 1.0, cross-type pairs 2.5 —
    //    the "smaller diagonal" rule of §4.1 that makes types cluster.
    let force_scale = PairMatrix::constant(2, 1.0);
    let mut preferred = PairMatrix::constant(2, 1.0);
    preferred.set(0, 1, 2.5);
    let law = ForceModel::Linear(LinearForce::new(force_scale, preferred));

    // 16 particles, alternating types, unbounded interaction radius.
    let model = Model::balanced(16, law, f64::INFINITY);

    // 2. Describe the experiment: 120 independent runs ("samples"), each
    //    60 recorded steps from a uniform disc of radius 2.5.
    let spec = EnsembleSpec {
        model,
        integrator: IntegratorConfig::default(),
        init_radius: 2.5,
        t_max: 60,
        samples: 120,
        seed: 42,
        criterion: Some(EquilibriumCriterion::default()),
    };

    // 3. Measure it as a one-cell sweep: simulate, factor out translation /
    //    rotation / same-type permutation, estimate multi-information
    //    (KSG, the default measure) every 5 steps.
    let mut scenario = ScenarioSpec::new("quickstart", spec);
    scenario.eval_every = 5;
    let plan = SweepPlan::new(vec![scenario], vec![MeasureConfig::default()]);
    let cell = run_sweep(&plan).expect("valid plan").cells.remove(0);
    assert!(cell.status.is_ok(), "{:?}", cell.status);
    let result = cell.result;

    // 4. Report.
    let xs: Vec<f64> = result.mi.times.iter().map(|&t| t as f64).collect();
    let series = Series::from_xy("I(W1..Wn) [bits]", &xs, &result.mi.values);
    println!(
        "{}",
        report::line_chart("multi-information over time", &[series], 60, 14)
    );
    println!(
        "self-organization ΔI = {:.2} bits (I rose from {:.2} to {:.2})",
        result.mi.increase(),
        result.mi.values.first().unwrap(),
        result.mi.values.last().unwrap()
    );
    println!(
        "{:.0}% of runs reached force equilibrium",
        100.0 * result.equilibrated_fraction
    );
    if result.mi.increase() > 0.5 {
        println!("=> the collective self-organizes (rising multi-information).");
    } else {
        println!("=> no significant self-organization detected.");
    }
}
