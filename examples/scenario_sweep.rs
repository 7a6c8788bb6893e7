//! The scenario × measure sweep as a library call: fan one simulated
//! ensemble per scenario over several estimator families in a single
//! evaluation pass.
//!
//! The one-pass engine simulates each registry scenario exactly once;
//! per evaluated time step the shape reduction and the observer matrix
//! are built once and every selected measure runs on that shared
//! prepared state. Running the same grid as one-cell sweeps, one per
//! measure, would re-simulate and re-reduce everything per measure —
//! same bits, k× the work (see the `sweep` bench group).
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```

use sops::core::report;
use sops::prelude::*;

fn main() {
    // The built-in gallery at smoke scale: two organizing systems and
    // the stays-mixed null control.
    let registry = ScenarioRegistry::builtin();
    let scenarios: Vec<ScenarioSpec> = registry
        .iter()
        .map(|sc| sc.clone().with_scale(100, 40))
        .collect();
    for sc in &scenarios {
        println!("{:<16} {}", sc.name, sc.description);
    }

    // The measure axis: the paper's estimator (KSG) against the §5.3
    // baselines. One ensemble per scenario feeds all four.
    let measures = vec![
        MeasureConfig::default(),
        MeasureConfig::Kde(sops::info::KdeConfig::default()),
        MeasureConfig::Binned(sops::info::BinningConfig::default()),
        MeasureConfig::Gaussian,
    ];

    let plan = SweepPlan::new(scenarios, measures);
    println!(
        "\nrunning {} cells over {} ensembles (each simulated once)…\n",
        plan.cell_count(),
        plan.ensemble_count()
    );
    let report = run_sweep(&plan).expect("valid plan");
    println!("{}", report.grid_table());

    // Every cell carries the full series, not just ΔI.
    let ksg = report.get("cell_sorting", "ksg", None).unwrap();
    println!(
        "{}",
        report::line_chart(
            "cell_sorting / ksg — I(t) in bits",
            &[report::Series::from_xy(
                "ksg",
                &ksg.result
                    .mi
                    .times
                    .iter()
                    .map(|&t| t as f64)
                    .collect::<Vec<_>>(),
                &ksg.result.mi.values,
            )],
            52,
            12,
        )
    );

    let null = report.get("mixing_null", "ksg", None).unwrap();
    assert!(
        ksg.result.mi.increase() > 1.0 && null.result.mi.increase() < 1.0,
        "organizing scenarios must separate from the null control"
    );
    println!(
        "ΔI: cell_sorting {:.2} bits vs mixing_null {:.2} bits — the measure\n\
         separates organization from mixing, the paper's central claim.",
        ksg.result.mi.increase(),
        null.result.mi.increase()
    );
}
