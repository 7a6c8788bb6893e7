//! End-to-end self-organization measurement (the paper's contribution,
//! assembled).
//!
//! The pipeline chains the substrate crates into the procedure of §5:
//!
//! 1. simulate an ensemble of `m` independent runs (`sops-sim`),
//! 2. per recorded time step, factor out translation, rotation and
//!    same-type permutation across the ensemble (`sops-shape`),
//! 3. estimate the multi-information between the reduced observer
//!    variables (`sops-info`), optionally after the k-means
//!    coarse-observer approximation (`sops-cluster`),
//! 4. report the time series `I(W₁⁽ᵗ⁾, …, W_n⁽ᵗ⁾)` whose *increase* is
//!    the paper's definition of self-organization (§3.1).
//!
//! [`scenario`] generalizes the procedure into a registry of named
//! scenarios and a one-pass sweep engine ([`scenario::SweepRunner`])
//! that fans each simulated ensemble over any number of measure
//! selections. It is the only way a ΔI cell is computed: a single
//! measurement is a one-cell [`SweepPlan`], whose result types are
//! [`PipelineResult`] and [`MiSeries`]. [`figures`] packages one
//! generator per figure of the paper's evaluation, each running its
//! cells as sweep plans; the `sops-repro` binary drives them, and
//! `tests/paper_claims.rs` checks the paper's qualitative claims on them
//! at smoke scale. [`dynamics`] implements the §7.3
//! future-work proposal: transfer entropy between individual particles.
//! [`summary`] folds a sweep's seed axis into per-(scenario, measure)
//! statistics with confidence intervals and significance verdicts, and
//! [`baseline`] persists those numbers as a CI regression gate.
//!
//! The sweep layer is fault-tolerant: public entry points return the
//! typed [`SweepError`], and poisoned cells are quarantined under
//! panic isolation as [`scenario::CellStatus::Failed`].
//!
//! Determinism also makes every cell memoizable: [`cache`] is a
//! content-addressed on-disk cell store (keyed by
//! [`checkpoint::cell_key`], shared [`wire`] machinery) that
//! [`SweepRunner::run_with_cache`] consults before simulating — the one
//! persistence path, so an interrupted sweep re-run over the same cache
//! resumes bit-identically — and [`broker`] coalesces concurrent sweep
//! requests over it: same-cell requests dedupe to one computation,
//! same-ensemble requests batch into one simulation pass. The
//! `sops-serve` crate puts an HTTP front end on the broker.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod broker;
pub mod cache;
pub mod checkpoint;
pub mod dynamics;
mod error;
pub mod figures;
pub mod metrics;
pub mod observers;
mod pipeline;
pub mod report;
pub mod scenario;
pub mod summary;
pub mod wire;

pub use baseline::SweepBaseline;
pub use broker::{BrokerStats, SweepBroker};
pub use cache::{CacheStats, CellCache};
pub use error::SweepError;
pub use observers::ObserverMode;
pub use pipeline::{MiSeries, PipelineResult};
pub use scenario::{
    run_sweep, CellProvenance, CellStatus, EnsembleStorage, ScenarioRegistry, ScenarioSpec,
    SweepCell, SweepPlan, SweepReport, SweepRunner,
};
pub use summary::{SummaryGroup, SweepSummary};

/// Options shared by every figure generator.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Reduced sample counts / horizons for smoke-level runs (CI and the
    /// Criterion benches use this; full-scale reproductions use
    /// `fast = false`).
    pub fast: bool,
    /// Master seed for everything downstream.
    pub seed: u64,
    /// Worker threads (0 = default).
    pub threads: usize,
    /// Directory for CSV output (`None` = don't write files).
    pub out_dir: Option<std::path::PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fast: false,
            seed: 0x5005_2012,
            threads: 0,
            out_dir: None,
        }
    }
}

impl RunOptions {
    /// Picks `full` or `fast` depending on the mode.
    pub(crate) fn scale<T>(&self, full: T, fast: T) -> T {
        if self.fast {
            fast
        } else {
            full
        }
    }
}
