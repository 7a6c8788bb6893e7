//! Bench-regression gate: diffs a fresh quick-bench JSON against the
//! committed full-run baseline for the hot-kernel groups.
//!
//! ```text
//! bench_regression <committed BENCH_*.json> <fresh BENCH_*.json>
//! ```
//!
//! Quick runs on shared CI hardware are noisy (we have observed ±40%
//! swings on the same commit), so the tolerance is deliberately generous:
//! only a median more than **1.5×** slower than the committed baseline
//! fails the gate. That still catches the regressions worth catching — an
//! accidentally disabled fast path, a quadratic slip, a layout change
//! that evicts the kernels from cache — while letting machine jitter
//! through. Only the kernel groups below are compared; ablation and
//! throughput groups (substeps, ensemble, lockstep lanes) exist to be
//! *read*, not gated.
//!
//! Every committed row, in every group, must have a counterpart in the
//! fresh run: a row whose case was renamed or deleted fails the gate
//! (exit 1, rows listed), so the change that retires a case also retires
//! its baseline row.

use std::process::ExitCode;

use sops_core::wire::{self, Value};

/// The gated groups: the hot kernels of the ΔI pipeline (force
/// half-sweep, Chebyshev kNN, shape reduction), the pairwise-matrix
/// driver that dominates figure reproduction, and the cell cache's
/// warm-hit paths, through the runner and through the service's
/// `route` (a hit regressing toward recompute cost defeats the cache;
/// the compute-bound `cold_compute`/`coalesced_pair` cases are ungated
/// context).
const KERNEL_GROUPS: [&str; 6] = [
    "net_forces/",
    "ksg_scaling/",
    "reduce/",
    "pairwise_matrix/",
    "sweep_cache/warm_hit",
    "sweep_cache/route_hit",
];

/// Fail only above this fresh/committed median ratio.
const TOLERANCE: f64 = 1.5;

/// Cases whose id carries a size that `--quick` shrinks (the
/// 10⁵-particle streaming cell runs at 10⁴ particles): a committed
/// full-run row of such a case is matched by any fresh row of the same
/// case.
const QUICK_SCALED: [&str; 1] = ["ensemble_scale/streaming/"];

/// `(name, median_ns)` for every entry of a `BENCH_*.json` document.
fn load_results(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_results(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parses a `BENCH_*.json` document. Only `name` and `median_ns` are
/// read per entry — extra fields (`iters`, and the `peak_rss_bytes` and
/// `min_ns`/`p10_ns`/`p90_ns`/`mad_ns` spread newer harnesses record)
/// are ignored, so old and new baselines all load.
fn parse_results(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = wire::parse(text).map_err(|e| e.to_string())?;
    let obj = doc.as_object().ok_or("not an object")?;
    let results = wire::get(obj, "results")
        .map_err(|e| e.to_string())?
        .as_array()
        .ok_or("'results' is not an array")?;
    let mut out = Vec::with_capacity(results.len());
    for entry in results {
        let entry = entry.as_object().ok_or("result entry is not an object")?;
        let name = wire::get(entry, "name")
            .ok()
            .and_then(Value::as_str)
            .ok_or("result entry without 'name'")?;
        let median = wire::get(entry, "median_ns")
            .ok()
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("'{name}' without 'median_ns'"))?;
        out.push((name.to_string(), median));
    }
    Ok(out)
}

fn is_kernel_case(name: &str) -> bool {
    KERNEL_GROUPS.iter().any(|g| name.starts_with(g))
}

/// The committed rows, in every group, with no counterpart in the fresh
/// run: the same name, or for a [`QUICK_SCALED`] case any fresh row of
/// that case.
fn missing_rows(committed: &[(String, f64)], fresh: &[(String, f64)]) -> Vec<String> {
    let has_counterpart = |name: &str| {
        fresh.iter().any(|(n, _)| n == name)
            || QUICK_SCALED.iter().any(|case| {
                name.starts_with(case) && fresh.iter().any(|(n, _)| n.starts_with(case))
            })
    };
    committed
        .iter()
        .filter(|(name, _)| !has_counterpart(name))
        .map(|(name, _)| name.clone())
        .collect()
}

fn run(committed_path: &str, fresh_path: &str) -> Result<bool, String> {
    let committed = load_results(committed_path)?;
    let fresh = load_results(fresh_path)?;
    let missing = missing_rows(&committed, &fresh);
    for name in &missing {
        println!("  MISS  {name} (committed row with no fresh counterpart)");
    }
    let mut checked = 0usize;
    let mut failed = Vec::new();
    for (name, base_ns) in committed.iter().filter(|(n, _)| is_kernel_case(n)) {
        let Some((_, fresh_ns)) = fresh.iter().find(|(n, _)| n == name) else {
            continue;
        };
        checked += 1;
        let ratio = fresh_ns / base_ns;
        let verdict = if ratio > TOLERANCE { "SLOW" } else { "ok" };
        println!(
            "  {verdict:>4}  {name}: {:.1} µs vs committed {:.1} µs ({ratio:.2}×)",
            fresh_ns / 1e3,
            base_ns / 1e3
        );
        if ratio > TOLERANCE {
            failed.push(name.clone());
        }
    }
    if checked == 0 {
        return Err(format!(
            "no kernel-group cases ({}) found in both files — wrong inputs?",
            KERNEL_GROUPS.join(" ")
        ));
    }
    if failed.is_empty() {
        println!("bench-regression: {checked} kernel cases within {TOLERANCE}× of baseline");
    } else {
        println!(
            "bench-regression: {}/{checked} kernel cases more than {TOLERANCE}× slower: {}",
            failed.len(),
            failed.join(", ")
        );
    }
    if !missing.is_empty() {
        println!(
            "bench-regression: {} committed rows missing from the fresh run: {}",
            missing.len(),
            missing.join(", ")
        );
    }
    Ok(failed.is_empty() && missing.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, committed, fresh] = args.as_slice() else {
        eprintln!("usage: bench_regression <committed BENCH_*.json> <fresh BENCH_*.json>");
        return ExitCode::from(2);
    };
    match run(committed, fresh) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-regression: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_case_filter_matches_gated_groups_only() {
        assert!(is_kernel_case("net_forces/cutoff_grid/800"));
        assert!(is_kernel_case("ksg_scaling/m1000_n40"));
        assert!(is_kernel_case("pairwise_matrix/m600_n16"));
        assert!(is_kernel_case("sweep_cache/warm_hit"));
        assert!(is_kernel_case("sweep_cache/route_hit"));
        assert!(is_kernel_case("reduce/icp_align_with/20"));
        assert!(is_kernel_case(
            "reduce/reduce_configurations_with/cell_sorting_m120"
        ));
        assert!(!is_kernel_case("icp_restarts/8"));
        assert!(!is_kernel_case("sweep_cache/cold_compute"));
        assert!(!is_kernel_case("sweep_cache/coalesced_pair"));
        assert!(!is_kernel_case("ensemble/8"));
        assert!(!is_kernel_case("force_crossover/kd_tree/12"));
        assert!(!is_kernel_case("integrator_substeps/4"));
    }

    #[test]
    fn committed_rows_without_a_fresh_counterpart_are_missing_in_every_group() {
        let rows = |names: &[&str]| -> Vec<(String, f64)> {
            names.iter().map(|n| (n.to_string(), 1.0)).collect()
        };
        let committed = rows(&[
            "net_forces/cutoff_grid/800",
            "kdtree/knn10/100",
            "ensemble_scale/streaming/100000",
            "integrator_substeps/4",
        ]);
        let fresh = rows(&[
            "net_forces/cutoff_grid/800",
            "ensemble_scale/streaming/10000",
        ]);
        assert_eq!(
            missing_rows(&committed, &fresh),
            vec!["kdtree/knn10/100", "integrator_substeps/4"],
            "ungated rows count too; a quick-scaled case matches its downscaled row"
        );
        assert!(missing_rows(&committed, &committed).is_empty());
        assert_eq!(
            missing_rows(&rows(&["ensemble_scale/streaming/100000"]), &rows(&[])),
            vec!["ensemble_scale/streaming/100000"]
        );
    }

    #[test]
    fn loader_tolerates_baselines_with_and_without_peak_rss() {
        let old = r#"{
  "quick": false,
  "parallelism": 4,
  "results": [
    {"name": "net_forces/cutoff_grid/512", "median_ns": 34459.0, "iters": 810}
  ]
}"#;
        let new = r#"{
  "quick": false,
  "parallelism": 4,
  "peak_rss_bytes": 123456789,
  "results": [
    {"name": "net_forces/cutoff_grid/512", "median_ns": 34459.0, "iters": 810, "peak_rss_bytes": 7340032}
  ]
}"#;
        let spread = r#"{
  "quick": true,
  "parallelism": 2,
  "peak_rss_bytes": 123456789,
  "results": [
    {"name": "net_forces/cutoff_grid/512", "median_ns": 34459.0, "min_ns": 33100.5, "p10_ns": 33870.25, "p90_ns": 36002.0, "mad_ns": 410.75, "iters": 810, "peak_rss_bytes": 7340032}
  ]
}"#;
        for text in [old, new, spread] {
            let results = parse_results(text).expect("every baseline shape loads");
            assert_eq!(
                results,
                vec![("net_forces/cutoff_grid/512".to_string(), 34459.0)]
            );
        }
    }
}
