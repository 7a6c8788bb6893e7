//! Persisted ΔI regression baselines: the science gate.
//!
//! CI has always diffed *bench times* across PRs; nothing diffed the
//! *science*. A [`SweepBaseline`] records, for one sweep plan, every
//! cell's ΔI together with the seed-axis summary statistics
//! ([`crate::summary::SweepSummary`]), serialized to a
//! `BASELINE_sweep.json` committed at the repo root. `sops-repro sweep
//! --save-baseline` writes it; `--check-baseline` re-runs the sweep and
//! compares:
//!
//! * every baseline cell must exist in the fresh report, and its ΔI must
//!   match within the **measured seed-axis confidence interval** of its
//!   (scenario, measure) group — the tolerance is the uncertainty the
//!   seed ensemble itself exhibits, floored at `1e-9` so bit-identical
//!   reruns always pass even for zero-variance groups;
//! * every group's mean ΔI must match within the same tolerance, and the
//!   seed count must agree;
//! * a fresh cell absent from the baseline fails the check (the plan
//!   changed — re-save deliberately).
//!
//! A refactor that reshuffles floating-point rounding stays green; one
//! that silently bends the measured organization does not. The JSON is
//! written and read back through the shared [`crate::wire`] machinery
//! (the repo emits JSON by hand everywhere; `wire` is the matching
//! reader, handling exactly the subset the writers produce plus standard
//! escapes), so the baseline and cell-cache schemas can never drift
//! apart in their float/string encodings.
//!
//! Quarantined cells ([`crate::scenario::CellStatus::Failed`]) never
//! enter a baseline — [`SweepBaseline::from_sweep`] records only healthy
//! cells — and a baselined cell that *fails* in a fresh sweep is an
//! explicit gate violation, not a silent skip.

use crate::error::SweepError;
use crate::scenario::SweepReport;
use crate::summary::SweepSummary;
use crate::wire;
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag of the baseline wire format.
pub(crate) const SCHEMA: &str = "sops-sweep-baseline/v1";

/// Absolute floor on the per-cell/per-mean tolerance: a zero-variance
/// group (or an n = 1 "group") still accepts bit-identical reruns.
pub(crate) const TOLERANCE_FLOOR: f64 = 1e-9;

/// One recorded grid cell: coordinates plus the scalar under guard.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    /// Scenario name.
    pub scenario: String,
    /// Plan-unique measure label.
    pub measure: String,
    /// Master seed of the cell's ensemble.
    pub seed: u64,
    /// Recorded ΔI = I(t_last) − I(t_0) in bits.
    pub delta_mi: f64,
}

/// One recorded (scenario, measure) seed-axis group.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineGroup {
    /// Scenario name.
    pub scenario: String,
    /// Plan-unique measure label.
    pub measure: String,
    /// Seed count the statistics were measured over.
    pub n: usize,
    /// Mean ΔI over the seed axis.
    pub mean: f64,
    /// Half-width of the t confidence interval — the check tolerance.
    pub ci_half: f64,
}

/// A persisted sweep baseline: per-cell ΔI plus per-group statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepBaseline {
    /// Confidence level the group intervals were measured at.
    pub confidence: f64,
    /// Recorded cells, in plan order.
    pub cells: Vec<BaselineCell>,
    /// Recorded groups, in plan order.
    pub groups: Vec<BaselineGroup>,
}

impl SweepBaseline {
    /// Captures a baseline from a report and its seed-axis summary.
    /// Quarantined cells are excluded — a baseline only ever records
    /// measured values.
    pub fn from_sweep(report: &SweepReport, summary: &SweepSummary) -> Self {
        SweepBaseline {
            confidence: summary.confidence,
            cells: report
                .cells
                .iter()
                .filter(|c| c.status.is_ok())
                .map(|c| BaselineCell {
                    scenario: c.scenario.clone(),
                    measure: c.measure_label.clone(),
                    seed: c.seed,
                    delta_mi: c.result.mi.increase(),
                })
                .collect(),
            groups: summary
                .groups
                .iter()
                .map(|g| BaselineGroup {
                    scenario: g.scenario.clone(),
                    measure: g.measure.clone(),
                    n: g.n(),
                    mean: g.mean,
                    ci_half: g.ci.half_width(),
                })
                .collect(),
        }
    }

    /// Serializes to the `BASELINE_sweep.json` schema.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": {},\n", wire::string(SCHEMA));
        let _ = writeln!(
            out,
            "  \"confidence\": {},",
            wire::float_exact(self.confidence)
        );
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"scenario\": {}, \"measure\": {}, \"seed\": {}, \"delta_mi\": {}}}{}",
                wire::string(&c.scenario),
                wire::string(&c.measure),
                c.seed,
                wire::float_exact(c.delta_mi),
                if i + 1 < self.cells.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"scenario\": {}, \"measure\": {}, \"n\": {}, \"mean\": {}, \
                 \"ci_half\": {}}}{}",
                wire::string(&g.scenario),
                wire::string(&g.measure),
                g.n,
                wire::float_exact(g.mean),
                wire::float_exact(g.ci_half),
                if i + 1 < self.groups.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the baseline file (creating parent directories).
    pub fn write(&self, path: &Path) -> Result<(), SweepError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|source| SweepError::Io {
                    path: parent.to_path_buf(),
                    op: "create directory",
                    source,
                })?;
            }
        }
        std::fs::write(path, self.to_json()).map_err(|source| SweepError::Io {
            path: path.to_path_buf(),
            op: "write",
            source,
        })
    }

    /// Reads a baseline file.
    pub fn read(path: &Path) -> Result<Self, SweepError> {
        let text = std::fs::read_to_string(path).map_err(|source| SweepError::Io {
            path: path.to_path_buf(),
            op: "read",
            source,
        })?;
        Self::parse(&text).map_err(|e| match e {
            SweepError::Parse { detail, .. } => SweepError::Parse {
                what: format!("baseline {}", path.display()),
                detail,
            },
            other => other,
        })
    }

    /// Parses the `sops-sweep-baseline/v1` JSON schema. A torn or
    /// hand-edited file is [`SweepError::Parse`]; an unknown schema tag
    /// is [`SweepError::SchemaMismatch`].
    pub(crate) fn parse(text: &str) -> Result<Self, SweepError> {
        Self::parse_inner(text).map_err(|e| match e {
            BaselineParseError::Detail(detail) => SweepError::Parse {
                what: "baseline".into(),
                detail,
            },
            BaselineParseError::Typed(typed) => typed,
        })
    }

    fn parse_inner(text: &str) -> Result<Self, BaselineParseError> {
        let root = wire::parse(text)?;
        let obj = root.as_object().ok_or("top level must be an object")?;
        let schema = wire::get(obj, "schema")?
            .as_str()
            .ok_or("schema must be a string")?;
        if schema != SCHEMA {
            return Err(BaselineParseError::Typed(SweepError::SchemaMismatch {
                expected: SCHEMA.into(),
                found: schema.into(),
            }));
        }
        let confidence = wire::get(obj, "confidence")?
            .as_f64()
            .ok_or("confidence must be a number")?;
        let mut cells = Vec::new();
        for v in wire::get(obj, "cells")?
            .as_array()
            .ok_or("cells must be an array")?
        {
            let c = v.as_object().ok_or("cell must be an object")?;
            cells.push(BaselineCell {
                scenario: wire::get(c, "scenario")?
                    .as_str()
                    .ok_or("cell scenario must be a string")?
                    .to_string(),
                measure: wire::get(c, "measure")?
                    .as_str()
                    .ok_or("cell measure must be a string")?
                    .to_string(),
                seed: wire::get(c, "seed")?
                    .as_u64()
                    .ok_or("cell seed must be a u64")?,
                delta_mi: wire::get(c, "delta_mi")?
                    .as_f64()
                    .ok_or("cell delta_mi must be a number or null")?,
            });
        }
        let mut groups = Vec::new();
        for v in wire::get(obj, "groups")?
            .as_array()
            .ok_or("groups must be an array")?
        {
            let g = v.as_object().ok_or("group must be an object")?;
            groups.push(BaselineGroup {
                scenario: wire::get(g, "scenario")?
                    .as_str()
                    .ok_or("group scenario must be a string")?
                    .to_string(),
                measure: wire::get(g, "measure")?
                    .as_str()
                    .ok_or("group measure must be a string")?
                    .to_string(),
                n: wire::get(g, "n")?.as_u64().ok_or("group n must be a u64")? as usize,
                mean: wire::get(g, "mean")?
                    .as_f64()
                    .ok_or("group mean must be a number or null")?,
                ci_half: wire::get(g, "ci_half")?
                    .as_f64()
                    .ok_or("group ci_half must be a number or null")?,
            });
        }
        Ok(SweepBaseline {
            confidence,
            cells,
            groups,
        })
    }

    /// Compares a fresh sweep against this baseline. Returns the list of
    /// violations — empty means the gate passes.
    ///
    /// Tolerance per (scenario, measure): the baseline group's stored CI
    /// half-width (the *measured* seed-axis uncertainty), floored at
    /// `TOLERANCE_FLOOR` (1e-9). Non-finite recorded values compare by
    /// bit-class: `NaN` matches `NaN`, `±∞` matches the same infinity.
    pub fn check(&self, report: &SweepReport, summary: &SweepSummary) -> Vec<String> {
        let mut violations = Vec::new();
        let tolerance = |scenario: &str, measure: &str| -> f64 {
            self.groups
                .iter()
                .find(|g| g.scenario == scenario && g.measure == measure)
                .map(|g| g.ci_half)
                .unwrap_or(0.0)
                .max(TOLERANCE_FLOOR)
        };
        let within = |now: f64, base: f64, tol: f64| -> bool {
            if !now.is_finite() || !base.is_finite() {
                // NaN == NaN, +inf == +inf, -inf == -inf for gate purposes.
                return now.to_bits() == base.to_bits() || (now.is_nan() && base.is_nan());
            }
            (now - base).abs() <= tol
        };
        for b in &self.cells {
            let Some(cell) = report.get(&b.scenario, &b.measure, Some(b.seed)) else {
                violations.push(format!(
                    "baseline cell {}/{}#{} missing from this sweep (plan changed? \
                     re-run --save-baseline)",
                    b.scenario, b.measure, b.seed
                ));
                continue;
            };
            if let crate::scenario::CellStatus::Failed { reason } = &cell.status {
                violations.push(format!(
                    "baseline cell {}/{}#{} failed in this sweep: {reason}",
                    b.scenario, b.measure, b.seed
                ));
                continue;
            }
            let now = cell.result.mi.increase();
            let tol = tolerance(&b.scenario, &b.measure);
            if !within(now, b.delta_mi, tol) {
                violations.push(format!(
                    "{}/{}#{}: ΔI = {now:.6} drifted from baseline {:.6} \
                     beyond the seed-axis CI tolerance ±{tol:.6}",
                    b.scenario, b.measure, b.seed, b.delta_mi
                ));
            }
        }
        for cell in report.cells.iter().filter(|c| c.status.is_ok()) {
            if !self.cells.iter().any(|b| {
                b.scenario == cell.scenario
                    && b.measure == cell.measure_label
                    && b.seed == cell.seed
            }) {
                violations.push(format!(
                    "cell {}/{}#{} has no baseline entry (plan changed? \
                     re-run --save-baseline)",
                    cell.scenario, cell.measure_label, cell.seed
                ));
            }
        }
        for b in &self.groups {
            let Some(g) = summary.get(&b.scenario, &b.measure) else {
                violations.push(format!(
                    "baseline group {}/{} missing from this summary",
                    b.scenario, b.measure
                ));
                continue;
            };
            if g.n() != b.n {
                violations.push(format!(
                    "{}/{}: seed count changed {} → {}",
                    b.scenario,
                    b.measure,
                    b.n,
                    g.n()
                ));
            }
            let tol = tolerance(&b.scenario, &b.measure);
            if !within(g.mean, b.mean, tol) {
                violations.push(format!(
                    "{}/{}: mean ΔI = {:.6} drifted from baseline {:.6} \
                     beyond the seed-axis CI tolerance ±{tol:.6}",
                    b.scenario, b.measure, g.mean, b.mean
                ));
            }
        }
        violations
    }
}

/// Internal parse-stage error: plain detail strings (wrapped as
/// [`SweepError::Parse`] by [`SweepBaseline::parse`]) or an
/// already-typed error that must pass through unchanged
/// (schema mismatches).
enum BaselineParseError {
    Detail(String),
    Typed(SweepError),
}

impl From<String> for BaselineParseError {
    fn from(detail: String) -> Self {
        BaselineParseError::Detail(detail)
    }
}

impl From<&str> for BaselineParseError {
    fn from(detail: &str) -> Self {
        BaselineParseError::Detail(detail.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MiSeries, PipelineResult};
    use crate::scenario::{CellStatus, SweepCell, SweepReport};
    use sops_info::MeasureConfig;

    fn report(deltas: &[(&str, u64, f64)]) -> SweepReport {
        SweepReport {
            cells: deltas
                .iter()
                .map(|&(scenario, seed, delta)| SweepCell {
                    scenario: scenario.into(),
                    measure: MeasureConfig::default(),
                    measure_label: "ksg".into(),
                    seed,
                    status: CellStatus::Ok,
                    provenance: crate::scenario::CellProvenance::Computed,
                    result: PipelineResult {
                        mi: MiSeries {
                            times: vec![0, 10],
                            values: vec![0.0, delta],
                        },
                        mean_icp_cost: vec![0.0, 0.0],
                        equilibrated_fraction: 1.0,
                    },
                })
                .collect(),
        }
    }

    fn sweep() -> (SweepReport, SweepSummary) {
        let r = report(&[
            ("a", 1, 2.0),
            ("a", 2, 2.1),
            ("a", 3, 1.9),
            ("mixing_null", 1, 0.01),
            ("mixing_null", 2, -0.02),
            ("mixing_null", 3, 0.03),
        ]);
        let s = SweepSummary::from_report(&r);
        (r, s)
    }

    #[test]
    fn json_round_trip_is_exact() {
        let (r, s) = sweep();
        let baseline = SweepBaseline::from_sweep(&r, &s);
        let parsed = SweepBaseline::parse(&baseline.to_json()).unwrap();
        assert_eq!(parsed, baseline, "17-digit floats must round-trip");
    }

    #[test]
    fn unmodified_sweep_passes_the_gate() {
        let (r, s) = sweep();
        let baseline = SweepBaseline::from_sweep(&r, &s);
        assert!(baseline.check(&r, &s).is_empty());
    }

    #[test]
    fn perturbation_beyond_ci_fails_the_gate() {
        let (r, s) = sweep();
        let baseline = SweepBaseline::from_sweep(&r, &s);
        let tol = baseline.groups[0].ci_half;
        // Shift one "a" cell's ΔI well past the group CI.
        let mut bent = r.clone();
        bent.cells[0].result.mi.values[1] += 3.0 * tol + 0.5;
        let bent_summary = SweepSummary::from_report(&bent);
        let violations = baseline.check(&bent, &bent_summary);
        assert!(
            violations.iter().any(|v| v.contains("a/ksg#1")),
            "{violations:?}"
        );
        // A drift far inside the CI passes (rounding-level change).
        let mut nudged = r.clone();
        nudged.cells[0].result.mi.values[1] += 1e-12;
        let nudged_summary = SweepSummary::from_report(&nudged);
        assert!(baseline.check(&nudged, &nudged_summary).is_empty());
    }

    #[test]
    fn plan_changes_fail_in_both_directions() {
        let (r, s) = sweep();
        let baseline = SweepBaseline::from_sweep(&r, &s);
        // Cell missing from the fresh sweep.
        let mut smaller = r.clone();
        smaller.cells.remove(0);
        let smaller_summary = SweepSummary::from_report(&smaller);
        let v = baseline.check(&smaller, &smaller_summary);
        assert!(
            v.iter().any(|m| m.contains("missing from this sweep")),
            "{v:?}"
        );
        // Extra cell the baseline never recorded.
        let mut bigger = r.clone();
        let mut extra = bigger.cells[0].clone();
        extra.seed = 99;
        bigger.cells.push(extra);
        let bigger_summary = SweepSummary::from_report(&bigger);
        let v = bigger_summary
            .get("a", "ksg")
            .map(|_| baseline.check(&bigger, &bigger_summary))
            .unwrap();
        assert!(v.iter().any(|m| m.contains("no baseline entry")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("seed count changed")), "{v:?}");
    }

    #[test]
    fn non_finite_deltas_compare_by_class() {
        let r = report(&[("a", 1, f64::NAN), ("a", 2, f64::INFINITY)]);
        let s = SweepSummary::from_report(&r);
        let baseline = SweepBaseline::from_sweep(&r, &s);
        let parsed = SweepBaseline::parse(&baseline.to_json()).unwrap();
        assert!(parsed.cells[0].delta_mi.is_nan());
        assert_eq!(parsed.cells[1].delta_mi, f64::INFINITY);
        assert!(
            parsed.check(&r, &s).is_empty(),
            "NaN matches NaN, ∞ matches ∞"
        );
        // NaN → finite is a violation even though the difference is NaN.
        let bent = report(&[("a", 1, 0.5), ("a", 2, f64::INFINITY)]);
        let bent_summary = SweepSummary::from_report(&bent);
        assert!(!parsed.check(&bent, &bent_summary).is_empty());
    }

    #[test]
    fn malformed_and_foreign_schemas_are_typed_errors() {
        // The JSON subset itself is covered by crate::wire's tests; here
        // the baseline-level validation must map failures to the right
        // SweepError variant.
        assert!(matches!(
            SweepBaseline::parse("{\"schema\": \"other/v9\"}"),
            Err(SweepError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            SweepBaseline::parse("{\"cells\": ["),
            Err(SweepError::Parse { .. })
        ));
        let (r, s) = sweep();
        let text = SweepBaseline::from_sweep(&r, &s).to_json();
        // A torn write — the file cut mid-token — is a Parse error.
        assert!(matches!(
            SweepBaseline::parse(&text[..text.len() / 2]),
            Err(SweepError::Parse { .. })
        ));
    }

    #[test]
    fn failed_cells_are_excluded_from_capture_and_flagged_by_check() {
        let (r, s) = sweep();
        let baseline = SweepBaseline::from_sweep(&r, &s);
        // A fresh sweep where one baselined cell is quarantined: explicit
        // violation naming the failure, not a silent skip.
        let mut broken = r.clone();
        broken.cells[0].status = CellStatus::Failed {
            reason: "panicked on all 2 attempt(s): boom".into(),
        };
        let broken_summary = SweepSummary::from_report(&broken);
        let v = baseline.check(&broken, &broken_summary);
        assert!(
            v.iter()
                .any(|m| m.contains("failed in this sweep") && m.contains("boom")),
            "{v:?}"
        );
        // Capturing from the broken report records only healthy cells…
        let recaptured = SweepBaseline::from_sweep(&broken, &broken_summary);
        assert_eq!(recaptured.cells.len(), r.cells.len() - 1);
        // …and checking the broken report against its own baseline is
        // clean: the failed cell has no baseline entry and is not
        // reported as "extra".
        assert!(recaptured.check(&broken, &broken_summary).is_empty());
    }
}
