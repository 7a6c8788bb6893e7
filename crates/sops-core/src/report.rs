//! Plain-text reporting: CSV writing, ASCII line charts and scatter
//! plots, plus the sweep-report CSV/JSON writers.
//!
//! The reproduction harness renders every figure both as a CSV (for
//! external plotting) and as a terminal chart, so `cargo run -p
//! sops-repro` is self-contained. Deliberately dependency-free (serde
//! alone, without a format crate, buys nothing offline); the JSON writer
//! emits by hand, like the vendored criterion shim.

use crate::scenario::SweepReport;
use crate::summary::SweepSummary;
use crate::wire;
use sops_math::Vec2;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Writes a CSV file with the given header and float rows.
///
/// Creates parent directories as needed. Numbers are written with enough
/// precision to round-trip (`{:.12e}` would be unreadable; `{:.9}` is
/// plenty for plotting); non-finite values use the same
/// `nan`/`inf`/`-inf` spelling as every other CSV writer in this module.
pub(crate) fn write_csv(path: &Path, header: &[&str], rows: &[Vec<f64>]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "{}", header.join(","))?;
    for row in rows {
        let mut line = String::with_capacity(row.len() * 16);
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&csv_float(*v));
        }
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Writes a sweep report as the flat scenario × measure × time CSV
/// table: `scenario,measure,seed,time,mi_bits,mean_icp_cost`, one row
/// per evaluated step of every healthy grid cell (quarantined cells have
/// no series and are skipped — the JSON writer records their status).
/// Non-finite estimates are written as `nan`/`inf`/`-inf`.
pub fn write_sweep_csv(path: &Path, report: &SweepReport) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "scenario,measure,seed,time,mi_bits,mean_icp_cost")?;
    for row in report.rows() {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            csv_string(row.scenario),
            csv_string(row.measure),
            row.seed,
            row.time,
            csv_float(row.mi),
            csv_float(row.mean_icp_cost)
        )?;
    }
    out.flush()
}

/// RFC-4180 quoting for user-supplied names: a field containing a comma,
/// quote or line break is wrapped in quotes with inner quotes doubled.
fn csv_string(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_float(v: f64) -> String {
    if v.is_nan() {
        "nan".into()
    } else if v.is_infinite() {
        if v > 0.0 { "inf" } else { "-inf" }.into()
    } else {
        format!("{v:.9}")
    }
}

/// JSON has no NaN/∞ literals; non-finite estimates become `null`.
fn json_float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".into()
    }
}

/// The sweep-report JSON body: one object per grid cell carrying the
/// scenario/measure/seed coordinates (the measure as its plan-unique
/// [`SweepCell::measure_label`](crate::scenario::SweepCell::measure_label),
/// as in `sweep.csv`), the cell status (`"ok"`, or
/// `"failed"` with the quarantine reason), the summary `delta_mi`
/// (`I(t_last) − I(t_0)`) and the full per-time-step series.
///
/// `include_provenance` appends each cell's `"provenance"` label and a
/// `"cached"` boolean (`true` for any reused cell — cache hit or
/// coalesced wait). The canonical `sweep.json`
/// ([`write_sweep_json`]) always omits them: provenance is run metadata,
/// and the byte-identity contract (a cached, coalesced or resumed run
/// writes the same `sweep.json` as a cold one) holds over the canonical
/// form. `sops-serve` returns the provenance-carrying form.
pub fn sweep_json(report: &SweepReport, include_provenance: bool) -> String {
    let mut body = String::from("{\n  \"cells\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        let r = &cell.result;
        let status = match &cell.status {
            crate::scenario::CellStatus::Ok => "\"status\": \"ok\"".to_string(),
            crate::scenario::CellStatus::Failed { reason } => {
                format!(
                    "\"status\": \"failed\", \"reason\": {}",
                    wire::string(reason)
                )
            }
        };
        let provenance = if include_provenance {
            format!(
                ", \"provenance\": \"{}\", \"cached\": {}",
                cell.provenance.label(),
                cell.provenance.is_reused()
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            body,
            "    {{\"scenario\": {}, \"measure\": {}, \"seed\": {}, {status}, \
             \"delta_mi\": {}, \
             \"equilibrated_fraction\": {}, \"times\": [{}], \"mi_bits\": [{}], \
             \"mean_icp_cost\": [{}]{provenance}}}{}",
            wire::string(&cell.scenario),
            wire::string(&cell.measure_label),
            cell.seed,
            json_float(r.mi.increase()),
            json_float(r.equilibrated_fraction),
            r.mi.times
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            r.mi.values
                .iter()
                .map(|&v| json_float(v))
                .collect::<Vec<_>>()
                .join(", "),
            r.mean_icp_cost
                .iter()
                .map(|&v| json_float(v))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < report.cells.len() { "," } else { "" }
        );
    }
    body.push_str("  ]\n}\n");
    body
}

/// Writes the canonical sweep-report JSON (the provenance-free
/// [`sweep_json`] form — see there for the byte-identity contract).
pub fn write_sweep_json(path: &Path, report: &SweepReport) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, sweep_json(report, false))
}

/// Writes a seed-axis summary as CSV: one row per (scenario, measure)
/// group —
/// `scenario,measure,n,mean_delta_mi,std_delta_mi,std_error,ci_lo,ci_hi,boot_lo,boot_hi,p_vs_null,significant`.
/// `significant` is `true`/`false` at the summary's α, empty when no
/// null comparison exists.
pub fn write_summary_csv(path: &Path, summary: &SweepSummary) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(
        out,
        "scenario,measure,n,mean_delta_mi,std_delta_mi,std_error,ci_lo,ci_hi,boot_lo,boot_hi,\
         p_vs_null,significant"
    )?;
    for g in &summary.groups {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_string(&g.scenario),
            csv_string(&g.measure),
            g.n(),
            csv_float(g.mean),
            csv_float(g.std),
            csv_float(g.se),
            csv_float(g.ci.lo),
            csv_float(g.ci.hi),
            csv_float(g.boot.lo),
            csv_float(g.boot.hi),
            g.p_vs_null.map(csv_float).unwrap_or_default(),
            g.significant(summary.alpha)
                .map(|s| s.to_string())
                .unwrap_or_default()
        )?;
    }
    out.flush()
}

/// Writes a seed-axis summary as JSON: the confidence/α/null-scenario
/// header plus one object per (scenario, measure) group carrying the
/// per-seed ΔI sample and every aggregate of
/// [`crate::summary::SummaryGroup`].
pub fn write_summary_json(path: &Path, summary: &SweepSummary) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut body = String::from("{\n");
    let _ = writeln!(
        body,
        "  \"confidence\": {},",
        json_float(summary.confidence)
    );
    let _ = writeln!(body, "  \"alpha\": {},", json_float(summary.alpha));
    let _ = writeln!(
        body,
        "  \"null_scenario\": {},",
        wire::string(&summary.null_scenario)
    );
    body.push_str("  \"groups\": [\n");
    for (i, g) in summary.groups.iter().enumerate() {
        let _ = writeln!(
            body,
            "    {{\"scenario\": {}, \"measure\": {}, \"n\": {}, \"seeds\": [{}], \
             \"delta_mi\": [{}], \"mean\": {}, \"std\": {}, \"se\": {}, \
             \"ci_lo\": {}, \"ci_hi\": {}, \"boot_lo\": {}, \"boot_hi\": {}, \
             \"p_vs_null\": {}, \"significant\": {}}}{}",
            wire::string(&g.scenario),
            wire::string(&g.measure),
            g.n(),
            g.seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            g.delta_mis
                .iter()
                .map(|&v| json_float(v))
                .collect::<Vec<_>>()
                .join(", "),
            json_float(g.mean),
            json_float(g.std),
            json_float(g.se),
            json_float(g.ci.lo),
            json_float(g.ci.hi),
            json_float(g.boot.lo),
            json_float(g.boot.hi),
            g.p_vs_null.map(json_float).unwrap_or_else(|| "null".into()),
            g.significant(summary.alpha)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".into()),
            if i + 1 < summary.groups.len() {
                ","
            } else {
                ""
            }
        );
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body)
}

/// A named data series for [`line_chart`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points, assumed sorted by x.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from parallel x/y slices.
    pub fn from_xy(label: impl Into<String>, xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "Series: x/y length mismatch");
        Series {
            label: label.into(),
            points: xs.iter().copied().zip(ys.iter().copied()).collect(),
        }
    }
}

const GLYPHS: &[char] = &['*', '+', 'o', 'x', '#', '@', '%', '&', '$', '~'];

/// Renders an ASCII line chart of the series onto a `width × height`
/// character canvas with axis annotations.
pub fn line_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let finite = |v: f64| v.is_finite();
    let mut x_min = f64::INFINITY;
    let mut x_max = f64::NEG_INFINITY;
    let mut y_min = f64::INFINITY;
    let mut y_max = f64::NEG_INFINITY;
    for s in series {
        for &(x, y) in &s.points {
            if finite(x) && finite(y) {
                x_min = x_min.min(x);
                x_max = x_max.max(x);
                y_min = y_min.min(y);
                y_max = y_max.max(y);
            }
        }
    }
    if !x_min.is_finite() {
        return format!("{title}\n  (no finite data)\n");
    }
    if (x_max - x_min).abs() < 1e-300 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-300 {
        y_max = y_min + 1.0;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            if !finite(x) || !finite(y) {
                continue;
            }
            let cx = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
            let cy = ((y - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
            canvas[height - 1 - cy][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{y_max:>10.3} ┤{}", String::from_iter(&canvas[0]));
    for row in canvas.iter().take(height - 1).skip(1) {
        let _ = writeln!(out, "{:>10} │{}", "", String::from_iter(row));
    }
    let _ = writeln!(
        out,
        "{y_min:>10.3} ┤{}",
        String::from_iter(&canvas[height - 1])
    );
    let _ = writeln!(out, "{:>10} └{}", "", "─".repeat(width));
    // Axis labels: x_min at the origin, x_max right-aligned to the axis
    // end, always separated by at least one space — a fixed-width field
    // pair would jam them together (or misalign x_max) whenever a label
    // outgrows its field.
    let lo_label = format!("{x_min:.2}");
    let hi_label = format!("{x_max:.2}");
    let gap = width.saturating_sub(lo_label.len() + hi_label.len()).max(1);
    let _ = writeln!(out, "{:>11}{lo_label}{:gap$}{hi_label}", "", "");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "    {} {}", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

/// Renders a typed particle configuration as an ASCII scatter plot; each
/// particle is drawn as its type digit (types ≥ 10 wrap). Non-finite
/// positions are skipped — like [`line_chart`] — rather than cast to a
/// spurious glyph at the bottom-left corner (`NaN as usize` is `0`).
pub fn scatter_plot(
    title: &str,
    points: &[Vec2],
    types: &[u16],
    width: usize,
    height: usize,
) -> String {
    assert_eq!(points.len(), types.len());
    let width = width.max(8);
    let height = height.max(4);
    let mut lo = Vec2::new(f64::INFINITY, f64::INFINITY);
    let mut hi = Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        if p.is_finite() {
            lo = lo.min(*p);
            hi = hi.max(*p);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return format!("{title}\n  (no data)\n");
    }
    let span_x = (hi.x - lo.x).max(1e-9);
    let span_y = (hi.y - lo.y).max(1e-9);
    let mut canvas = vec![vec![' '; width]; height];
    for (p, &t) in points.iter().zip(types) {
        if !p.is_finite() {
            continue;
        }
        let cx = ((p.x - lo.x) / span_x * (width - 1) as f64).round() as usize;
        let cy = ((p.y - lo.y) / span_y * (height - 1) as f64).round() as usize;
        canvas[height - 1 - cy][cx.min(width - 1)] = char::from_digit((t % 10) as u32, 10).unwrap();
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for row in &canvas {
        let _ = writeln!(out, "  {}", String::from_iter(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("sops_report_test");
        let path = dir.join("series.csv");
        write_csv(&path, &["t", "mi"], &[vec![0.0, 1.5], vec![10.0, f64::NAN]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("t,mi"));
        assert!(lines.next().unwrap().starts_with("0.000000000,1.5"));
        assert!(lines.next().unwrap().ends_with("nan"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_writers_round_trip() {
        use crate::pipeline::{MiSeries, PipelineResult};
        use crate::scenario::{CellStatus, SweepCell, SweepReport};
        use sops_info::MeasureConfig;
        let cell = |measure: MeasureConfig, values: Vec<f64>| SweepCell {
            scenario: "a".into(),
            measure,
            measure_label: measure.label().into(),
            seed: 1,
            status: CellStatus::Ok,
            provenance: crate::scenario::CellProvenance::Computed,
            result: PipelineResult {
                mi: MiSeries {
                    times: vec![0, 10],
                    values,
                },
                mean_icp_cost: vec![0.5, 0.25],
                equilibrated_fraction: 1.0,
            },
        };
        let report = SweepReport {
            cells: vec![
                cell(MeasureConfig::default(), vec![0.0, 2.0]),
                cell(MeasureConfig::Gaussian, vec![f64::NAN, 1.0]),
            ],
        };
        let dir = std::env::temp_dir().join("sops_sweep_report_test");
        let csv_path = dir.join("sweep.csv");
        let json_path = dir.join("sweep.json");
        write_sweep_csv(&csv_path, &report).unwrap();
        write_sweep_json(&json_path, &report).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("scenario,measure,seed,time,mi_bits,mean_icp_cost"));
        assert_eq!(csv.lines().count(), 1 + 4, "one row per cell per step");
        assert!(csv.contains("a,ksg,1,10,2.000000000,0.250000000"), "{csv}");
        assert!(csv.contains("a,gaussian,1,0,nan,"), "{csv}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"scenario\": \"a\""), "{json}");
        assert!(json.contains("\"measure\": \"gaussian\""), "{json}");
        assert!(json.contains("\"status\": \"ok\""), "{json}");
        assert!(
            json.contains("\"mi_bits\": [null, 1.000000000]"),
            "NaN must serialize as null: {json}"
        );

        // A quarantined cell is written with its status and reason, and
        // excluded from the CSV (which has no row to give it).
        let mut quarantined = report.clone();
        quarantined.cells[1].status = CellStatus::Failed {
            reason: "panicked on all 2 attempt(s): boom".into(),
        };
        quarantined.cells[1].result = PipelineResult::empty();
        write_sweep_csv(&csv_path, &quarantined).unwrap();
        write_sweep_json(&json_path, &quarantined).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv.lines().count(), 1 + 2, "failed cell has no CSV rows");
        assert!(!csv.contains("gaussian"), "{csv}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"status\": \"failed\""), "{json}");
        assert!(json.contains("\"reason\": \"panicked"), "{json}");

        // A registered scenario name is arbitrary: commas and quotes must
        // not corrupt the CSV structure.
        let mut tricky = report.clone();
        tricky.cells[0].scenario = "sorting, \"v2\"".into();
        write_sweep_csv(&csv_path, &tricky).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let row = csv.lines().nth(1).unwrap();
        assert!(
            row.starts_with("\"sorting, \"\"v2\"\"\",ksg,1,0,"),
            "name must be RFC-4180 quoted: {row}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_json_writes_the_plan_unique_measure_label() {
        use crate::pipeline::PipelineResult;
        use crate::scenario::{measure_labels, CellProvenance, CellStatus, SweepCell, SweepReport};
        use sops_info::{KsgConfig, MeasureConfig};
        let measures = [3, 5].map(|k| {
            MeasureConfig::Ksg(KsgConfig {
                k,
                ..KsgConfig::default()
            })
        });
        let report = SweepReport {
            cells: measures
                .iter()
                .zip(measure_labels(&measures))
                .map(|(&measure, measure_label)| SweepCell {
                    scenario: "a".into(),
                    measure,
                    measure_label,
                    seed: 1,
                    status: CellStatus::Ok,
                    provenance: CellProvenance::Computed,
                    result: PipelineResult::empty(),
                })
                .collect(),
        };
        // Both selections are the KSG family; only the plan label tells
        // the two cells apart, in `sweep.json` and in `/sweep` bodies.
        for include_provenance in [false, true] {
            let json = sweep_json(&report, include_provenance);
            assert!(json.contains("\"measure\": \"ksg\", "), "{json}");
            assert!(json.contains("\"measure\": \"ksg#2\", "), "{json}");
        }
    }

    #[test]
    fn line_chart_renders_monotone_series() {
        let s = Series::from_xy("mi", &[0.0, 1.0, 2.0, 3.0], &[0.0, 1.0, 2.0, 3.0]);
        let chart = line_chart("test", &[s], 40, 10);
        assert!(chart.contains("test"));
        assert!(chart.contains('*'));
        // Rising series: glyph in the top row (after the title line).
        let top_row = chart.lines().nth(1).unwrap();
        assert!(top_row.contains('*'), "top row: {top_row}");
    }

    #[test]
    fn line_chart_handles_empty_and_constant() {
        let empty = line_chart("e", &[Series::from_xy("x", &[], &[])], 30, 8);
        assert!(empty.contains("no finite data"));
        let flat = Series::from_xy("f", &[0.0, 1.0], &[2.0, 2.0]);
        let chart = line_chart("flat", &[flat], 30, 8);
        assert!(chart.contains('*'));
    }

    #[test]
    fn scatter_draws_type_digits() {
        let pts = [Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0)];
        let types = [0u16, 3];
        let plot = scatter_plot("cfg", &pts, &types, 20, 8);
        assert!(plot.contains('0'));
        assert!(plot.contains('3'));
    }

    #[test]
    fn scatter_skips_non_finite_points() {
        // Regression: a NaN point used to cast to canvas cell (0, 0) and
        // draw a spurious glyph at the bottom-left corner.
        let pts = [
            Vec2::new(1.0, 1.0),
            Vec2::new(f64::NAN, 0.5),
            Vec2::new(0.5, f64::INFINITY),
        ];
        let types = [7u16, 8, 9];
        let plot = scatter_plot("cfg", &pts, &types, 20, 8);
        assert!(plot.contains('7'), "{plot}");
        assert!(!plot.contains('8'), "NaN point must be skipped: {plot}");
        assert!(
            !plot.contains('9'),
            "infinite point must be skipped: {plot}"
        );
        // All-non-finite degenerates to the no-data banner, and bounds
        // ignore non-finite coordinates entirely.
        let bad = [Vec2::new(f64::NAN, 0.0), Vec2::new(f64::INFINITY, 1.0)];
        assert!(scatter_plot("cfg", &bad, &[1, 2], 20, 8).contains("no data"));
        assert!(scatter_plot("cfg", &[], &[], 20, 8).contains("no data"));
    }

    #[test]
    fn line_chart_axis_labels_never_collide() {
        // Regression: the old fixed-width label pair jammed x_max against
        // (or into) the x_min field once a label outgrew its slot on a
        // narrow canvas.
        let s = Series::from_xy("s", &[-1_234_567_890.12, 9_876_543_210.99], &[0.0, 1.0]);
        let chart = line_chart("narrow", &[s], 8, 4); // clamped to 16 wide
        let axis_line = chart
            .lines()
            .find(|l| l.contains("-1234567890.12"))
            .expect("x_min label printed in full");
        assert!(
            axis_line.contains("-1234567890.12 ") || axis_line.contains(".12 "),
            "labels must be space-separated: {axis_line}"
        );
        assert!(
            axis_line.contains("9876543210.99"),
            "x_max label printed in full: {axis_line}"
        );
        let lo_end = axis_line.find("-1234567890.12").unwrap() + "-1234567890.12".len();
        let hi_start = axis_line.find("9876543210.99").unwrap();
        assert!(
            hi_start > lo_end && axis_line[lo_end..hi_start].chars().all(|c| c == ' '),
            "at least one space between the axis labels: {axis_line}"
        );
    }

    #[test]
    fn write_csv_spells_non_finite_like_the_sweep_writer() {
        let dir = std::env::temp_dir().join("sops_report_inf_test");
        let path = dir.join("inf.csv");
        write_csv(
            &path,
            &["a", "b", "c"],
            &[vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().nth(1), Some("inf,-inf,nan"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_writers_round_trip() {
        use crate::pipeline::{MiSeries, PipelineResult};
        use crate::scenario::{CellStatus, SweepCell, SweepReport};
        use crate::summary::SweepSummary;
        use sops_info::MeasureConfig;
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
                    values: vec![0.0, delta],
                },
                mean_icp_cost: vec![0.0, 0.0],
                equilibrated_fraction: 1.0,
            },
        };
        let report = SweepReport {
            cells: vec![
                mk("rise", 1, 2.0),
                mk("rise", 2, 2.2),
                mk("rise", 3, 1.8),
                mk("rise", 4, 2.1),
                mk("rise", 5, 1.9),
                mk("rise", 6, 2.05),
                mk("mixing_null", 1, 0.02),
                mk("mixing_null", 2, -0.01),
                mk("mixing_null", 3, 0.01),
                mk("mixing_null", 4, -0.02),
                mk("mixing_null", 5, 0.005),
                mk("mixing_null", 6, 0.015),
            ],
        };
        let summary = SweepSummary::from_report(&report);
        let dir = std::env::temp_dir().join("sops_summary_writers_test");
        let csv_path = dir.join("sweep_summary.csv");
        let json_path = dir.join("sweep_summary.json");
        write_summary_csv(&csv_path, &summary).unwrap();
        write_summary_json(&json_path, &summary).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("scenario,measure,n,mean_delta_mi"), "{csv}");
        assert_eq!(csv.lines().count(), 1 + 2, "one row per group");
        let rise_row = csv.lines().find(|l| l.starts_with("rise,")).unwrap();
        assert!(rise_row.contains(",6,"), "n column: {rise_row}");
        assert!(rise_row.ends_with(",true"), "verdict column: {rise_row}");
        let null_row = csv.lines().find(|l| l.starts_with("mixing_null,")).unwrap();
        assert!(null_row.ends_with(",false"), "{null_row}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(
            json.contains("\"null_scenario\": \"mixing_null\""),
            "{json}"
        );
        assert!(json.contains("\"seeds\": [1, 2, 3, 4, 5, 6]"), "{json}");
        assert!(json.contains("\"significant\": true"), "{json}");
        assert!(json.contains("\"significant\": false"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
