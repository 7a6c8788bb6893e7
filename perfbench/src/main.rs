//! `perfbench` — the workspace benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --pin grid|figures|xl
//! ```
//!
//! One run generates the workload's op list from `--seed`, times it, then
//! checks every op's output outside the timed spans. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it replays the same ops
//! rebuilt from each layer's public calls under spans and prints per-layer
//! self times. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--pin` recomputes the
//! digests of the seed pools (the table in `src/pins.rs`). See README.md.

mod figures;
mod host;
mod ops;
mod pins;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["grid_cold", "serve_cache", "xl_cell", "figures_fast"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_ms_p50", "ms"),
    ("compute_ms_p50", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer the workload
/// does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("sim.ms", "ms"),
    ("sim.particle_steps_per_s", "1/s"),
    ("reduce.ms", "ms"),
    ("reduce.icp_ms", "ms"),
    ("reduce.icp_calls", "count"),
    ("reduce.icp_win_iters", "count"),
    ("reduce.match_ms", "ms"),
    ("est.ksg.ms", "ms"),
    ("est.kde.ms", "ms"),
    ("est.binned.ms", "ms"),
    ("est.discrete.ms", "ms"),
    ("est.gaussian.ms", "ms"),
    ("observers.ms", "ms"),
    ("stage.us", "us"),
    ("runner.ensemble_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("serve.parse_plan_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.route_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.hit_ms_p90", "ms"),
    ("cache.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.entries", "count"),
    ("broker.run_ms", "ms"),
    ("broker.sim_passes", "count"),
    ("broker.cells_coalesced", "count"),
    ("report.encode_ms", "ms"),
    ("summary.ms", "ms"),
    ("fig.fig1.ms", "ms"),
    ("fig.fig2.ms", "ms"),
    ("fig.fig3.ms", "ms"),
    ("fig.fig4.ms", "ms"),
    ("fig.fig5.ms", "ms"),
    ("fig.fig6.ms", "ms"),
    ("fig.fig7.ms", "ms"),
    ("fig.fig8.ms", "ms"),
    ("fig.fig9.ms", "ms"),
    ("fig.fig10.ms", "ms"),
    ("fig.fig11.ms", "ms"),
    ("fig.fig12.ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.par_eff", "ratio"),
    ("proc.peak_rss_mb", "MiB"),
];

/// The `PER_LAYER` name of the millisecond metric of span `name`.
pub fn layer_key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(k, _)| *k)
        .find(|k| k.strip_suffix(".ms") == Some(name))
        .expect("every timed span name has a per-layer metric")
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads of compute workloads; clients and server workers
    /// of `serve_cache`. Equal to the core count, so no workload ever
    /// has more busy threads than cores.
    pub threads: usize,
    /// Where traces and scratch caches go, inside the working directory.
    pub out_dir: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of each repeated set-up; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// Seconds to finish the generated op list.
    pub wall_s: f64,
    /// Milliseconds of each primary op (`latency_ms_p50`).
    pub latency_ms: Vec<f64>,
    /// Milliseconds of each op that computed (`compute_ms_p50`).
    pub compute_ms: Vec<f64>,
    /// Per-layer values of a traced run, by `PER_LAYER` name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Diagnostic lines printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked op; `problem` is `Some(reason)` for a failed one.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = problem {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED op: {reason}"));
            }
        }
    }
}

/// Writes the traced run's spans under `args.out_dir` and notes where.
pub fn save_trace(args: &Args, tr: &trace::Tracer, out: &mut Outcome) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("trace_{}_{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     \x20      perfbench --pin grid|figures|xl\n\
                     workloads: grid_cold, serve_cache, xl_cell, figures_fast";

fn parse_args() -> Result<Result<Args, String>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--pin" => {
                kv.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(pin) = kv.get("--pin") {
        return Ok(Err(pin.to_string()));
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    Ok(Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
        out_dir,
    }))
}

/// A finite metric value as JSON (non-finite values cannot be encoded and
/// are reported as 0 with a note).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Ok(args)) => args,
        Ok(Err(pin)) => {
            return match pins::regenerate(&pin) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calib_start = host::calibrate_ms();
    let result = match args.workload.as_str() {
        "grid_cold" => sweep::grid_cold(&args),
        "xl_cell" => sweep::xl_cell(&args),
        "serve_cache" => serve::serve_cache(&args),
        "figures_fast" => figures::figures_fast(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let calib_end = host::calibrate_ms();
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.threads
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  host.calib_ms start={calib_start:.2} end={calib_end:.2} (diagnostic, not a metric)"
    );
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = outcome.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<26} {v:>14.4} {unit}");
            metrics.push((name, v, unit));
        }
    } else {
        let rows = [
            (outcome.setup_s.len(), stats::median(&outcome.setup_s)),
            (1, outcome.wall_s),
            (outcome.latency_ms.len(), stats::median(&outcome.latency_ms)),
            (outcome.compute_ms.len(), stats::median(&outcome.compute_ms)),
        ];
        for ((name, unit), (n, v)) in END_TO_END.iter().zip(rows) {
            println!("  {name:<16} {v:>18.9} {unit:<3} n={n}");
            metrics.push((name, v, unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the binary prints must be the ones BENCHMARK.json
    /// declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted name")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let workloads: Vec<String> = WORKLOADS.iter().map(|n| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        assert_eq!(names("workloads"), workloads);
    }
}
