//! Figure reproductions — one module per figure of the paper's
//! evaluation (the paper has no numbered tables).
//!
//! Every module exposes `run(&RunOptions) -> FigNData`; the data structs
//! render themselves (`print()`) and write CSV series (`write_csv()`)
//! when an output directory is configured.
//!
//! Shared parameter conventions (see DESIGN.md "pinned interpretations"):
//! noise std 0.05 (`NOISE_VARIANCE`), Euler–Maruyama `dt` per figure,
//! KSG k = 4 per §6.

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

use crate::RunOptions;
use sops_sim::IntegratorConfig;

/// Noise variance used by all figure reproductions: the σ = 0.05 reading
/// of the paper's `w ~ N(0, 0.05)` (DESIGN.md #1).
pub const NOISE_VARIANCE: f64 = 0.0025;

/// Integrator used by the multi-type experiments (Figs. 1, 3, 4, 6, 8–12).
pub fn standard_integrator() -> IntegratorConfig {
    IntegratorConfig {
        dt: 0.05,
        substeps: 2,
        noise_variance: NOISE_VARIANCE,
        max_step: 0.5,
        ..IntegratorConfig::default()
    }
}

/// Slower integrator for the single-type ring experiments (Figs. 5, 7),
/// spreading the organization over the full recorded window as in the
/// paper (§6: multi-information still rising at t = 250).
pub fn slow_integrator() -> IntegratorConfig {
    IntegratorConfig {
        dt: 0.02,
        substeps: 2,
        noise_variance: NOISE_VARIANCE,
        max_step: 0.5,
        ..IntegratorConfig::default()
    }
}

/// CSV output path helper.
pub(crate) fn csv_path(opts: &RunOptions, name: &str) -> Option<std::path::PathBuf> {
    opts.out_dir.as_ref().map(|d| d.join(name))
}
