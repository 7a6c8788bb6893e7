//! Seed-axis statistics over a sweep: from per-seed point estimates to
//! ensemble claims.
//!
//! The paper's ΔI = I(t_last) − I(t_0) statements are *ensemble*
//! statistics, but a [`SweepReport`] cell is a single-seed point
//! estimate — nothing in it distinguishes real organization from seed
//! luck. A [`SweepSummary`] closes that gap: it groups the report's
//! cells by (scenario, measure) over the seed axis and equips each group
//! with
//!
//! * the sample aggregates — mean, standard deviation, standard error —
//!   of the per-seed ΔI values,
//! * a Student-t confidence interval and a percentile-bootstrap interval
//!   for the mean (the `± ci` of the variance-aware grid, and the
//!   tolerance of the persisted [`crate::baseline`] regression gate),
//! * a significance verdict calibrated against the plan's negative
//!   control: a two-sample permutation test of the group's ΔI values
//!   against the `mixing_null` scenario's values for the same measure.
//!
//! Everything is computed sequentially in report (= plan) order from
//! deterministic seeded resamplers, so a summary is bit-identical for
//! any worker count driving the underlying sweep — the property pinned
//! by `tests/seed_axis_stats.rs`.

use crate::scenario::SweepReport;
use sops_math::rng::derive_seed;
use sops_math::stats::{
    self, bootstrap_mean_interval, permutation_test_mean_diff, t_confidence_interval, Interval,
};
use std::fmt::Write as _;

/// Two-sided confidence level of the t and bootstrap intervals.
const CONFIDENCE: f64 = 0.95;
/// Significance level for the verdict against the null scenario.
const ALPHA: f64 = 0.05;
/// Name of the negative-control scenario the permutation test calibrates
/// against ([`crate::scenario::mixing_null`]).
const NULL_SCENARIO: &str = "mixing_null";
/// Bootstrap redraws per group.
const BOOTSTRAP_RESAMPLES: usize = 1000;
/// Permutation re-splits per (group, null) comparison.
const PERMUTATION_RESAMPLES: usize = 9999;
/// Master seed of the deterministic resampler streams; each group derives
/// its own decorrelated child streams from it.
const SEED: u64 = 0x5EED_57A7;

/// One (scenario, measure) group aggregated over the seed axis.
#[derive(Debug, Clone)]
pub struct SummaryGroup {
    /// Scenario name.
    pub scenario: String,
    /// Plan-unique measure label.
    pub measure: String,
    /// Seeds contributing to the group, in plan order.
    pub seeds: Vec<u64>,
    /// Per-seed ΔI values, parallel to `seeds`.
    pub delta_mis: Vec<f64>,
    /// Mean ΔI over the seed axis.
    pub mean: f64,
    /// Sample standard deviation of ΔI (`NaN` for n < 2).
    pub std: f64,
    /// Standard error of the mean (`NaN` for n < 2).
    pub se: f64,
    /// Student-t confidence interval for the mean.
    pub ci: Interval,
    /// Percentile-bootstrap confidence interval for the mean.
    pub boot: Interval,
    /// Two-sided permutation p-value against the null scenario's ΔI
    /// sample for the same measure; `None` when the report carries no
    /// null group for this measure. The null scenario is compared
    /// against itself, which yields `p = 1` by construction — trivially,
    /// and correctly, "not significant".
    pub p_vs_null: Option<f64>,
}

impl SummaryGroup {
    /// Number of seeds in the group.
    pub fn n(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the group's ΔI sample differs significantly from the
    /// null control at level `alpha`; `None` without a null comparison.
    pub fn significant(&self, alpha: f64) -> Option<bool> {
        self.p_vs_null.map(|p| p <= alpha)
    }
}

/// Seed-axis summary of a [`SweepReport`]: one [`SummaryGroup`] per
/// (scenario, measure) pair, in first-appearance (= plan) order.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Aggregated groups.
    pub groups: Vec<SummaryGroup>,
    /// Confidence level the intervals were computed at.
    pub confidence: f64,
    /// Significance level of [`SweepSummary::grid_table`] verdicts.
    pub alpha: f64,
    /// Null-control scenario name the verdicts are calibrated against.
    pub null_scenario: String,
}

impl SweepSummary {
    /// Aggregates `report` over the seed axis: 95% t and bootstrap
    /// intervals, and permutation verdicts at α = 0.05 against the
    /// `mixing_null` scenario.
    pub fn from_report(report: &SweepReport) -> Self {
        // Group cells by (scenario, measure) in first-appearance order;
        // inside a group, cells keep plan order, so the ΔI vectors (and
        // every resampler stream derived from the group index) are
        // independent of the worker count that produced the report.
        // Quarantined cells are skipped explicitly — a failed cell has no
        // ΔI and must not drag a NaN into its group's statistics.
        let mut keys: Vec<(String, String)> = Vec::new();
        let mut seeds: Vec<Vec<u64>> = Vec::new();
        let mut deltas: Vec<Vec<f64>> = Vec::new();
        for cell in report.cells.iter().filter(|c| c.status.is_ok()) {
            let key = (cell.scenario.clone(), cell.measure_label.clone());
            let gi = match keys.iter().position(|k| *k == key) {
                Some(gi) => gi,
                None => {
                    keys.push(key);
                    seeds.push(Vec::new());
                    deltas.push(Vec::new());
                    keys.len() - 1
                }
            };
            seeds[gi].push(cell.seed);
            deltas[gi].push(cell.result.mi.increase());
        }
        let groups: Vec<SummaryGroup> = keys
            .iter()
            .zip(seeds.iter().zip(&deltas))
            .enumerate()
            .map(|(gi, ((scenario, measure), (seeds, delta_mis)))| {
                let boot_seed = derive_seed(SEED, 2 * gi as u64);
                SummaryGroup {
                    scenario: scenario.clone(),
                    measure: measure.clone(),
                    seeds: seeds.clone(),
                    delta_mis: delta_mis.clone(),
                    mean: stats::mean(delta_mis),
                    std: stats::variance(delta_mis).sqrt(),
                    se: stats::std_error(delta_mis),
                    ci: t_confidence_interval(delta_mis, CONFIDENCE),
                    boot: bootstrap_mean_interval(
                        delta_mis,
                        CONFIDENCE,
                        BOOTSTRAP_RESAMPLES,
                        boot_seed,
                    ),
                    p_vs_null: None,
                }
            })
            .collect();
        let mut summary = SweepSummary {
            groups,
            confidence: CONFIDENCE,
            alpha: ALPHA,
            null_scenario: NULL_SCENARIO.to_string(),
        };
        // Second pass: permutation verdicts against the null scenario's
        // ΔI sample for the same measure (needs all groups collected).
        let null_samples: Vec<(String, Vec<f64>)> = summary
            .groups
            .iter()
            .filter(|g| g.scenario == NULL_SCENARIO)
            .map(|g| (g.measure.clone(), g.delta_mis.clone()))
            .collect();
        for (gi, group) in summary.groups.iter_mut().enumerate() {
            if let Some((_, null)) = null_samples.iter().find(|(m, _)| *m == group.measure) {
                let perm_seed = derive_seed(SEED, 2 * gi as u64 + 1);
                group.p_vs_null = Some(permutation_test_mean_diff(
                    &group.delta_mis,
                    null,
                    PERMUTATION_RESAMPLES,
                    perm_seed,
                ));
            }
        }
        summary
    }

    /// The group for (scenario, measure label), if present.
    pub fn get(&self, scenario: &str, measure: &str) -> Option<&SummaryGroup> {
        self.groups
            .iter()
            .find(|g| g.scenario == scenario && g.measure == measure)
    }

    /// Renders the variance-aware ΔI grid: one row per scenario, one
    /// column per measure, each cell `mean ± ci` (the t-interval
    /// half-width) with a trailing `*` when the group is significant
    /// against the null control at the summary's `alpha`.
    pub fn grid_table(&self) -> String {
        let mut rows: Vec<&str> = Vec::new();
        let mut cols: Vec<&str> = Vec::new();
        for g in &self.groups {
            if !rows.contains(&g.scenario.as_str()) {
                rows.push(&g.scenario);
            }
            if !cols.contains(&g.measure.as_str()) {
                cols.push(&g.measure);
            }
        }
        let ns: Vec<usize> = self.groups.iter().map(|g| g.n()).collect();
        let uniform_n = ns.windows(2).all(|w| w[0] == w[1]);
        let cell_text = |g: &SummaryGroup| {
            let star = match g.significant(self.alpha) {
                Some(true) => "*",
                _ => "",
            };
            let n_note = if uniform_n {
                String::new()
            } else {
                format!(" (n={})", g.n())
            };
            format!("{:.3} ± {:.3}{star}{n_note}", g.mean, g.ci.half_width())
        };
        let pct = (self.confidence * 100.0).round() as u32;
        let mut out = format!(
            "ΔI (bits) — mean ± {pct}% CI over {}; * = significant vs {} (α = {})\n",
            if uniform_n {
                format!("n = {} seeds", ns.first().copied().unwrap_or(0))
            } else {
                "the seed axis".into()
            },
            self.null_scenario,
            self.alpha
        );
        let w = rows
            .iter()
            .map(|r| r.len())
            .chain(["scenario".len()])
            .max()
            .unwrap_or(8);
        let col_widths: Vec<usize> = cols
            .iter()
            .map(|c| {
                self.groups
                    .iter()
                    .filter(|g| g.measure == **c)
                    .map(|g| cell_text(g).chars().count())
                    .chain([c.chars().count()])
                    .max()
                    .unwrap_or(9)
            })
            .collect();
        let _ = write!(out, "  {:<w$}", "scenario");
        for (c, cw) in cols.iter().zip(&col_widths) {
            let _ = write!(out, "  {c:>cw$}");
        }
        out.push('\n');
        for r in &rows {
            let _ = write!(out, "  {r:<w$}");
            for (c, cw) in cols.iter().zip(&col_widths) {
                match self.get(r, c) {
                    // Pad by character count: `±` is multi-byte, so the
                    // format machinery's byte-width padding would
                    // misalign columns.
                    Some(g) => {
                        let text = cell_text(g);
                        let pad = cw.saturating_sub(text.chars().count());
                        let _ = write!(out, "  {}{text}", " ".repeat(pad));
                    }
                    None => {
                        let _ = write!(out, "  {:>cw$}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MiSeries, PipelineResult};
    use crate::scenario::{CellStatus, SweepCell, SweepReport};
    use sops_info::MeasureConfig;

    /// A hand-built report: `rise` organizes (ΔI ≈ 3 ± noise), the null
    /// stays flat (ΔI ≈ 0 ± noise), over 6 seeds each.
    fn synthetic_report() -> SweepReport {
        let mut cells = Vec::new();
        let mk = |scenario: &str, seed: u64, delta: f64| SweepCell {
            scenario: scenario.into(),
            measure: MeasureConfig::default(),
            measure_label: "ksg".into(),
            seed,
            status: CellStatus::Ok,
            provenance: crate::scenario::CellProvenance::Computed,
            result: PipelineResult {
                mi: MiSeries {
                    times: vec![0, 10],
                    values: vec![1.0, 1.0 + delta],
                },
                mean_icp_cost: vec![0.0, 0.0],
                equilibrated_fraction: 1.0,
            },
        };
        for seed in 1..=6u64 {
            let jitter = (seed as f64).sin() * 0.05;
            cells.push(mk("rise", seed, 3.0 + jitter));
        }
        for seed in 1..=6u64 {
            let jitter = (seed as f64 + 0.5).cos() * 0.05;
            cells.push(mk("mixing_null", seed, jitter));
        }
        SweepReport { cells }
    }

    #[test]
    fn failed_cells_are_skipped_in_grouping() {
        let mut report = synthetic_report();
        report.cells[0].status = CellStatus::Failed {
            reason: "boom".into(),
        };
        let summary = SweepSummary::from_report(&report);
        let rise = summary.get("rise", "ksg").unwrap();
        assert_eq!(rise.n(), 5, "the quarantined seed is excluded");
        assert_eq!(rise.seeds, vec![2, 3, 4, 5, 6]);
        assert!(rise.mean.is_finite(), "no NaN dragged into the mean");
    }

    #[test]
    fn groups_aggregate_the_seed_axis() {
        let summary = SweepSummary::from_report(&synthetic_report());
        assert_eq!(summary.groups.len(), 2);
        let rise = summary.get("rise", "ksg").unwrap();
        assert_eq!(rise.n(), 6);
        assert_eq!(rise.seeds, vec![1, 2, 3, 4, 5, 6]);
        assert!((rise.mean - 3.0).abs() < 0.1);
        assert!(rise.std > 0.0 && rise.se > 0.0);
        assert!(rise.ci.contains(rise.mean));
        assert!(rise.ci.half_width() > 0.0);
        assert!(rise.boot.contains(rise.mean));
    }

    #[test]
    fn verdicts_calibrate_against_the_null() {
        let summary = SweepSummary::from_report(&synthetic_report());
        let rise = summary.get("rise", "ksg").unwrap();
        let null = summary.get("mixing_null", "ksg").unwrap();
        let p_rise = rise.p_vs_null.expect("null present");
        let p_null = null.p_vs_null.expect("null present");
        assert!(p_rise <= 0.05, "separated ΔI must be significant: {p_rise}");
        assert_eq!(p_null, 1.0, "null vs itself is never significant");
        assert_eq!(rise.significant(0.05), Some(true));
        assert_eq!(null.significant(0.05), Some(false));
    }

    #[test]
    fn missing_null_leaves_verdicts_undefined() {
        let mut report = synthetic_report();
        report.cells.retain(|c| c.scenario != "mixing_null");
        let summary = SweepSummary::from_report(&report);
        let rise = summary.get("rise", "ksg").unwrap();
        assert_eq!(rise.p_vs_null, None);
        assert_eq!(rise.significant(0.05), None);
    }

    #[test]
    fn summary_is_deterministic() {
        let report = synthetic_report();
        let a = SweepSummary::from_report(&report);
        let b = SweepSummary::from_report(&report);
        for (x, y) in a.groups.iter().zip(&b.groups) {
            assert_eq!(x.mean.to_bits(), y.mean.to_bits());
            assert_eq!(x.ci.lo.to_bits(), y.ci.lo.to_bits());
            assert_eq!(x.boot.lo.to_bits(), y.boot.lo.to_bits());
            assert_eq!(x.p_vs_null, y.p_vs_null);
        }
    }

    #[test]
    fn grid_table_shows_mean_ci_and_verdict() {
        let summary = SweepSummary::from_report(&synthetic_report());
        let grid = summary.grid_table();
        assert!(grid.contains("mean ± 95% CI"), "{grid}");
        assert!(grid.contains("n = 6 seeds"), "{grid}");
        assert!(grid.contains("rise") && grid.contains("mixing_null"));
        // The organizing row carries the significance star; the null
        // row must not.
        let rise_row = grid.lines().find(|l| l.contains("rise")).unwrap();
        let null_row = grid
            .lines()
            .find(|l| l.trim_start().starts_with("mixing_null"))
            .unwrap();
        assert!(rise_row.contains('*'), "{rise_row}");
        assert!(!null_row.contains('*'), "{null_row}");
        assert!(rise_row.contains('±'));
    }

    #[test]
    fn single_seed_groups_degrade_gracefully() {
        let mut report = synthetic_report();
        report.cells.retain(|c| c.seed == 1);
        let summary = SweepSummary::from_report(&report);
        let rise = summary.get("rise", "ksg").unwrap();
        assert_eq!(rise.n(), 1);
        assert_eq!(rise.ci.half_width(), 0.0, "zero-width single-seed CI");
        assert!(rise.std.is_nan() && rise.se.is_nan());
        // Grid still renders.
        assert!(summary.grid_table().contains("n = 1 seeds"));
    }
}
