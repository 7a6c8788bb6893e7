//! Figure reproductions — one module per figure of the paper's
//! evaluation (the paper has no numbered tables).
//!
//! Every module exposes `run(&RunOptions) -> FigNData`; the data structs
//! render themselves (`print()`) and write CSV series (`write_csv()`)
//! when an output directory is configured.
//!
//! A figure's multi-information cells are uniquely named
//! [`ScenarioSpec`]s run as one sweep plan (`sweep_series`), the same
//! engine `sops-repro sweep` uses. Figs. 6, 7 and 11 stream their
//! ensembles too ([`sops_sim::run_streaming_ensemble`]) and keep only the
//! frames they read: fig 6 two snapshot steps, fig 7 the final step and
//! fig 11 its evaluation schedule.
//!
//! Shared parameter conventions: noise std 0.05 (`NOISE_VARIANCE`),
//! Euler–Maruyama `dt` per figure, KSG k = 4 per §6.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use crate::pipeline::MiSeries;
use crate::report::{self, Series};
use crate::scenario::{CellStatus, ScenarioSpec, SweepPlan, SweepRunner};
use crate::RunOptions;
use sops_info::MeasureConfig;
use sops_sim::IntegratorConfig;

/// Noise variance used by all figure reproductions. The paper writes
/// `w ~ N(0, 0.05)` without saying whether 0.05 is the variance or the
/// standard deviation; the figures read it as the standard deviation
/// (σ = 0.05, variance 0.0025), while the library default
/// (`sops_sim::DEFAULT_NOISE_VARIANCE`) reads it as the variance.
pub(crate) const NOISE_VARIANCE: f64 = 0.0025;

/// Integrator used by the multi-type experiments (Figs. 1, 3, 4, 6, 8–12).
pub(crate) fn standard_integrator() -> IntegratorConfig {
    IntegratorConfig {
        dt: 0.05,
        substeps: 2,
        noise_variance: NOISE_VARIANCE,
        max_step: 0.5,
    }
}

/// Slower integrator for the single-type ring experiments (Figs. 5, 7),
/// spreading the organization over the full recorded window as in the
/// paper (§6: multi-information still rising at t = 250).
pub(crate) fn slow_integrator() -> IntegratorConfig {
    IntegratorConfig {
        dt: 0.02,
        substeps: 2,
        noise_variance: NOISE_VARIANCE,
        max_step: 0.5,
    }
}

/// CSV output path helper.
pub(crate) fn csv_path(opts: &RunOptions, name: &str) -> Option<std::path::PathBuf> {
    opts.out_dir.as_ref().map(|d| d.join(name))
}

/// Charts a multi-information series under `title` (Figs. 4 and 5).
pub(crate) fn print_mi_chart(title: &str, mi: &MiSeries) {
    let xs: Vec<f64> = mi.times.iter().map(|&t| t as f64).collect();
    let s = Series::from_xy("I(W1..Wn) [bits]", &xs, &mi.values);
    println!("{}", report::line_chart(title, &[s], 64, 16));
}

/// Writes a multi-information series as a `t, mi_bits` CSV named `name`
/// when an output directory is configured (Figs. 4 and 5).
pub(crate) fn write_mi_csv(opts: &RunOptions, name: &str, mi: &MiSeries) {
    if let Some(path) = csv_path(opts, name) {
        let rows: Vec<Vec<f64>> = mi
            .times
            .iter()
            .zip(&mi.values)
            .map(|(&t, &v)| vec![t as f64, v])
            .collect();
        report::write_csv(&path, &["t", "mi_bits"], &rows).expect("mi csv");
    }
}

/// Runs a figure's cells as one [`SweepPlan`] under the default (KSG)
/// measure, with streaming storage and `opts.threads` workers, and
/// returns each cell's series in plan order. Figures have no error
/// channel, so a quarantined cell panics with its reason.
pub(crate) fn sweep_series(opts: &RunOptions, cells: Vec<ScenarioSpec>) -> Vec<MiSeries> {
    let mut plan = SweepPlan::new(cells, vec![MeasureConfig::default()]);
    plan.threads = opts.threads;
    let report = SweepRunner::new()
        .run(&plan)
        .unwrap_or_else(|e| panic!("figure plan: {e}"));
    report
        .cells
        .into_iter()
        .map(|cell| match cell.status {
            CellStatus::Ok => cell.result.mi,
            CellStatus::Failed { reason } => panic!("figure cell {}: {reason}", cell.scenario),
        })
        .collect()
}
