//! `repro` — regenerates every figure of Harder & Polani (2012) and runs
//! scenario × measure sweeps.
//!
//! ```text
//! repro [--figure figN[,figM…]] [--fast] [--seed S] [--threads T] [--out DIR] [--list]
//! repro sweep [--scenario a[,b…]] [--measure ksg[,kde…]] [--seeds S1[,S2…]|A..B]
//!             [--fast] [--threads T] [--out DIR] [--no-out] [--list]
//!             [--save-baseline] [--check-baseline] [--baseline PATH]
//!             [--cache DIR]
//! ```
//!
//! Without `--figure`, all figures run in order. `--fast` switches to the
//! reduced smoke-scale parameters (seconds instead of minutes). CSV
//! series land in `--out` (default `results/`).
//!
//! The `sweep` subcommand drives the one-pass sweep engine over the
//! built-in scenario registry: each selected ensemble is simulated once
//! and every selected measure is evaluated on it in a single pass. It
//! prints the ΔI grid and writes `sweep.csv` / `sweep.json` to `--out`.
//! `--seeds` accepts comma lists and inclusive ranges (`1..8` ≡ `1..=8`
//! ≡ seeds 1–8). Multi-seed sweeps additionally print the seed-axis
//! summary grid (`mean ± CI`, significance vs `mixing_null`) and write
//! `sweep_summary.csv` / `sweep_summary.json`. `--save-baseline`
//! persists per-cell ΔI and per-group statistics to the baseline file
//! (default `BASELINE_sweep.json`); `--check-baseline` re-reads it and
//! exits non-zero if any ΔI moved outside the stored seed-axis
//! confidence interval — the CI regression gate.
//!
//! `--cache DIR` keeps a content-addressed store of completed cells
//! (`sops_core::cache`): each (scenario, measure, seed) cell is looked
//! up by its [`sops_core::checkpoint::cell_key`] before simulating and
//! reused on a hit, so repeated sweeps over overlapping grids only pay
//! for the cells they have never seen. Sweep outputs are bit-identical
//! with or without the cache; corrupt entries are evicted and
//! recomputed, never served. The cache is also how a sweep resumes:
//! every healthy cell is stored (temp file + atomic rename) as soon as
//! its ensemble completes, so a killed `--cache DIR` sweep re-run with
//! the same directory recomputes only the missing cells, bit-identically
//! for any `--threads`. Quarantined cells are never stored and are
//! retried on the re-run; a changed plan reuses every unchanged cell.
//!
//! Exit codes:
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | success                                                    |
//! | 1    | I/O or internal failure (outputs, baseline, cache dir)     |
//! | 2    | usage error, unknown name, or invalid plan                 |
//! | 3    | sweep completed but one or more cells were quarantined     |
//! | 4    | baseline check failed (takes precedence over 3)            |

use sops_core::report::{write_summary_csv, write_summary_json, write_sweep_csv, write_sweep_json};
use sops_core::scenario::{
    CellStatus, EnsembleStorage, ScenarioRegistry, ScenarioSpec, SweepPlan, SweepRunner,
};
use sops_core::{figures, CellCache, RunOptions, SweepBaseline, SweepError, SweepSummary};
use sops_info::MeasureConfig;
use std::process::ExitCode;
use std::time::Instant;

const ALL_FIGURES: [&str; 12] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12",
];

struct Args {
    figures: Vec<String>,
    opts: RunOptions,
    list: bool,
}

fn usage_text() -> String {
    format!(
        "usage: repro [--figure figN[,figM...]] [--fast] [--seed S] [--threads T] [--out DIR] [--list]\n\
         \x20      repro sweep [--scenario a[,b...]] [--measure m[,m2...]] [--seeds S1[,S2...]|A..B]\n\
         \x20                  [--fast] [--threads T] [--out DIR] [--no-out] [--list]\n\
         \x20                  [--save-baseline] [--check-baseline] [--baseline PATH]\n\
         \x20                  [--cache DIR]\n\
         \x20      --seeds accepts inclusive ranges: 1..8 and 1..=8 both mean seeds 1-8\n\
         \x20      --measure NAME@EVERY subsamples every EVERY-th ensemble sample\n\
         \x20      before estimating (e.g. ksg@4; discrete has no strided form)\n\
         \x20      --cache DIR reuses content-addressed cell results across runs\n\
         \x20      (keyed by scenario physics x measure x seed; results are\n\
         \x20      bit-identical with or without the cache); re-running a killed\n\
         \x20      sweep with the same --cache DIR resumes it\n\
         figures:  {}\n\
         measures: {}\n\
         exit codes: 0 ok, 1 i/o, 2 usage, 3 quarantined cells, 4 baseline check failed",
        ALL_FIGURES.join(", "),
        MeasureConfig::FAMILIES.join(", ")
    )
}

/// Usage error: print to stderr and exit 2 (`--help` prints the same
/// text to stdout and exits 0).
fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn help() -> ! {
    println!("{}", usage_text());
    std::process::exit(0);
}

/// Exit code for a typed sweep failure: I/O problems are 1, everything
/// the caller can fix by changing the invocation or plan is 2.
fn error_exit_code(err: &SweepError) -> u8 {
    match err {
        SweepError::Io { .. } => 1,
        _ => 2,
    }
}

/// Final exit code of a sweep that ran to completion: baseline-gate
/// failures (4) outrank quarantined cells (3) outrank success (0).
fn sweep_exit_code(quarantined: bool, baseline_failed: bool) -> u8 {
    if baseline_failed {
        4
    } else if quarantined {
        3
    } else {
        0
    }
}

/// Measure selections delegate to the shared [`MeasureConfig::parse`]
/// so the CLI and `sops-serve` can never drift on the accepted names.
fn parse_measure(name: &str) -> Option<MeasureConfig> {
    MeasureConfig::parse(name)
}

fn parse_args() -> Args {
    let mut figures: Vec<String> = Vec::new();
    let mut opts = RunOptions {
        out_dir: Some(std::path::PathBuf::from("results")),
        ..RunOptions::default()
    };
    let mut list = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--figure" | "-f" => {
                i += 1;
                let value = argv.get(i).unwrap_or_else(|| usage());
                for name in value.split(',') {
                    let name = name.trim().to_lowercase();
                    if !ALL_FIGURES.contains(&name.as_str()) {
                        eprintln!("unknown figure: {name}");
                        usage();
                    }
                    figures.push(name);
                }
            }
            "--fast" => opts.fast = true,
            "--seed" => {
                i += 1;
                opts.seed = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                opts.threads = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                opts.out_dir = Some(std::path::PathBuf::from(
                    argv.get(i).unwrap_or_else(|| usage()),
                ));
            }
            "--no-out" => opts.out_dir = None,
            "--list" => list = true,
            "--help" | "-h" => help(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    if figures.is_empty() {
        figures = ALL_FIGURES.iter().map(|s| s.to_string()).collect();
    }
    Args {
        figures,
        opts,
        list,
    }
}

fn run_figure(name: &str, opts: &RunOptions) {
    match name {
        "fig1" => figures::fig1::run(opts).print(),
        "fig2" => figures::fig2::run(opts).print(),
        "fig3" => figures::fig3::run(opts).print(),
        "fig4" => figures::fig4::run(opts).print(),
        "fig5" => figures::fig5::run(opts).print(),
        "fig6" => figures::fig6::run(opts).print(),
        "fig7" => figures::fig7::run(opts).print(),
        "fig8" => figures::fig8::run(opts).print(),
        "fig9" => figures::fig9::run(opts).print(),
        "fig10" => figures::fig10::run(opts).print(),
        "fig11" => figures::fig11::run(opts).print(),
        "fig12" => figures::fig12::run(opts).print(),
        _ => unreachable!("validated in parse_args"),
    }
}

struct SweepArgs {
    scenarios: Vec<String>,
    measures: Vec<String>,
    seeds: Vec<u64>,
    fast: bool,
    threads: usize,
    out_dir: Option<std::path::PathBuf>,
    list: bool,
    save_baseline: bool,
    check_baseline: bool,
    baseline_path: std::path::PathBuf,
    cache_dir: Option<std::path::PathBuf>,
}

/// One `--seeds` element: a plain seed (`7`) or an inclusive range
/// (`1..8` or `1..=8`, both meaning seeds 1, 2, …, 8).
fn parse_seed_spec(spec: &str, out: &mut Vec<u64>) -> Result<(), String> {
    let bad = || format!("bad seed spec '{spec}' (expected N, A..B or A..=B)");
    if let Some((lo, hi)) = spec.split_once("..") {
        let hi = hi.strip_prefix('=').unwrap_or(hi);
        let lo: u64 = lo.trim().parse().map_err(|_| bad())?;
        let hi: u64 = hi.trim().parse().map_err(|_| bad())?;
        if lo > hi {
            return Err(format!("empty seed range '{spec}' ({lo} > {hi})"));
        }
        let too_large = || format!("seed range '{spec}' is too large");
        let count = (hi - lo).checked_add(1).ok_or_else(too_large)?;
        let count = usize::try_from(count).map_err(|_| too_large())?;
        out.try_reserve(count).map_err(|_| too_large())?;
        out.extend(lo..=hi);
    } else {
        out.push(spec.trim().parse().map_err(|_| bad())?);
    }
    Ok(())
}

fn parse_sweep_args(argv: &[String]) -> SweepArgs {
    let mut args = SweepArgs {
        scenarios: Vec::new(),
        measures: Vec::new(),
        seeds: Vec::new(),
        fast: false,
        threads: 0,
        out_dir: Some(std::path::PathBuf::from("results")),
        list: false,
        save_baseline: false,
        check_baseline: false,
        baseline_path: std::path::PathBuf::from("BASELINE_sweep.json"),
        cache_dir: None,
    };
    let csv = |value: &str| -> Vec<String> {
        value
            .split(',')
            .map(|s| s.trim().to_lowercase())
            .filter(|s| !s.is_empty())
            .collect()
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scenario" | "-s" => {
                i += 1;
                args.scenarios
                    .extend(csv(argv.get(i).unwrap_or_else(|| usage())));
            }
            "--measure" | "-m" => {
                i += 1;
                args.measures
                    .extend(csv(argv.get(i).unwrap_or_else(|| usage())));
            }
            "--seeds" => {
                i += 1;
                for s in csv(argv.get(i).unwrap_or_else(|| usage())) {
                    if let Err(e) = parse_seed_spec(&s, &mut args.seeds) {
                        eprintln!("{e}");
                        usage();
                    }
                }
            }
            "--fast" => args.fast = true,
            "--threads" => {
                i += 1;
                args.threads = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                args.out_dir = Some(std::path::PathBuf::from(
                    argv.get(i).unwrap_or_else(|| usage()),
                ));
            }
            "--no-out" => args.out_dir = None,
            "--list" => args.list = true,
            "--save-baseline" => args.save_baseline = true,
            "--check-baseline" => args.check_baseline = true,
            "--baseline" => {
                i += 1;
                args.baseline_path =
                    std::path::PathBuf::from(argv.get(i).unwrap_or_else(|| usage()));
            }
            "--cache" => {
                i += 1;
                args.cache_dir = Some(std::path::PathBuf::from(
                    argv.get(i).unwrap_or_else(|| usage()),
                ));
            }
            "--help" | "-h" => help(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    args
}

/// The sweep plan `args` describe. Scenario names resolve against
/// `registry` (the full gallery: builtins plus the large-scale tier); an
/// argument-free sweep runs only the lab-sized builtins, so nobody
/// simulates 10⁵ particles by accident. `Err` is a usage message.
fn sweep_plan(args: &SweepArgs, registry: &ScenarioRegistry) -> Result<SweepPlan, String> {
    let builtin = ScenarioRegistry::builtin();
    let names: Vec<&str> = if args.scenarios.is_empty() {
        builtin.names()
    } else {
        args.scenarios.iter().map(|s| s.as_str()).collect()
    };
    let mut scenarios = registry.select(&names).map_err(|e| e.to_string())?;
    if args.fast {
        scenarios = scenarios
            .into_iter()
            .map(ScenarioSpec::with_fast_scale)
            .collect();
    }
    let measure_names: Vec<String> = if args.measures.is_empty() {
        MeasureConfig::FAMILIES
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args.measures.clone()
    };
    let mut measures = Vec::with_capacity(measure_names.len());
    for name in &measure_names {
        measures.push(parse_measure(name).ok_or_else(|| {
            format!(
                "unknown measure '{name}' (known: {})",
                MeasureConfig::FAMILIES.join(", ")
            )
        })?);
    }
    Ok(SweepPlan {
        scenarios,
        measures,
        seeds: args.seeds.clone(),
        threads: args.threads,
        storage: EnsembleStorage::default(),
    })
}

fn run_sweep_cmd(argv: &[String]) -> ExitCode {
    let args = parse_sweep_args(argv);
    let registry = ScenarioRegistry::gallery();
    if args.list {
        for sc in registry.iter() {
            println!("{:<16} {}", sc.name, sc.description);
        }
        return ExitCode::SUCCESS;
    }
    let plan = match sweep_plan(&args, &registry) {
        Ok(plan) => plan,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "sweep — {} scenario(s) × {} measure(s) × {} seed(s): {} cells over {} ensembles (each simulated once){}",
        plan.scenarios.len(),
        plan.measures.len(),
        plan.seeds.len().max(1),
        plan.cell_count(),
        plan.ensemble_count(),
        if args.fast { ", fast mode" } else { "" }
    );
    let cache = match &args.cache_dir {
        Some(dir) => match CellCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(error_exit_code(&e));
            }
        },
        None => None,
    };
    let t0 = Instant::now();
    let mut runner = SweepRunner::new();
    let run_result = match &cache {
        Some(cc) => runner.run_with_cache(&plan, cc),
        None => runner.run(&plan),
    };
    let report = match run_result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(error_exit_code(&e));
        }
    };
    println!("\n{}", report.grid_table());
    if let Some(cc) = &cache {
        let s = cc.stats();
        println!(
            "cell cache {}: {} hit(s), {} miss(es), {} store(s), {} eviction(s)",
            cc.dir().display(),
            s.hits,
            s.misses,
            s.stores,
            s.evictions
        );
    }
    let failed = report.failed_cells();
    if !failed.is_empty() {
        eprintln!(
            "{} cell(s) quarantined (excluded from outputs):",
            failed.len()
        );
        for cell in &failed {
            if let CellStatus::Failed { reason } = &cell.status {
                eprintln!(
                    "  - {}/{}#{}: {reason}",
                    cell.scenario, cell.measure_label, cell.seed
                );
            }
        }
    }
    let summary = SweepSummary::from_report(&report);
    if plan.seeds.len() > 1 {
        println!("{}", summary.grid_table());
    }
    if let Some(dir) = &args.out_dir {
        let csv_path = dir.join("sweep.csv");
        let json_path = dir.join("sweep.json");
        let sum_csv = dir.join("sweep_summary.csv");
        let sum_json = dir.join("sweep_summary.json");
        if let Err(e) = write_sweep_csv(&csv_path, &report)
            .and_then(|()| write_sweep_json(&json_path, &report))
            .and_then(|()| write_summary_csv(&sum_csv, &summary))
            .and_then(|()| write_summary_json(&sum_json, &summary))
        {
            eprintln!("failed to write sweep outputs: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {}, {}, {} and {}",
            csv_path.display(),
            json_path.display(),
            sum_csv.display(),
            sum_json.display()
        );
    }
    if args.save_baseline {
        let baseline = SweepBaseline::from_sweep(&report, &summary);
        if let Err(e) = baseline.write(&args.baseline_path) {
            eprintln!("{e}");
            return ExitCode::from(error_exit_code(&e));
        }
        println!(
            "saved baseline ({} cells, {} groups) to {}",
            baseline.cells.len(),
            baseline.groups.len(),
            args.baseline_path.display()
        );
    }
    let mut baseline_failed = false;
    if args.check_baseline {
        let baseline = match SweepBaseline::read(&args.baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(error_exit_code(&e));
            }
        };
        let violations = baseline.check(&report, &summary);
        if violations.is_empty() {
            println!(
                "baseline check passed: every ΔI within the stored seed-axis CI ({})",
                args.baseline_path.display()
            );
        } else {
            eprintln!(
                "baseline check FAILED against {} ({} violation(s)):",
                args.baseline_path.display(),
                violations.len()
            );
            for v in &violations {
                eprintln!("  - {v}");
            }
            baseline_failed = true;
        }
    }
    println!("sweep done in {:.1?}", t0.elapsed());
    ExitCode::from(sweep_exit_code(!failed.is_empty(), baseline_failed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(|s| s.as_str()) == Some("sweep") {
        return run_sweep_cmd(&argv[1..]);
    }
    let args = parse_args();
    if args.list {
        for f in ALL_FIGURES {
            println!("{f}");
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "sops repro — {} mode, seed {}, output {}",
        if args.opts.fast { "fast" } else { "full" },
        args.opts.seed,
        args.opts
            .out_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "(none)".into())
    );
    let total = Instant::now();
    for name in &args.figures {
        println!("\n=== {name} ===");
        let t = Instant::now();
        run_figure(name, &args.opts);
        println!("  [{name} done in {:.1?}]", t.elapsed());
    }
    println!("\nall requested figures done in {:.1?}", total.elapsed());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_rank_baseline_over_quarantine() {
        assert_eq!(sweep_exit_code(false, false), 0);
        assert_eq!(sweep_exit_code(true, false), 3);
        assert_eq!(sweep_exit_code(false, true), 4);
        assert_eq!(sweep_exit_code(true, true), 4);
    }

    #[test]
    fn typed_errors_split_io_from_usage() {
        let io = SweepError::Io {
            path: "x.json".into(),
            op: "write",
            source: std::io::Error::other("disk full"),
        };
        assert_eq!(error_exit_code(&io), 1);
        let unknown = SweepError::UnknownScenario {
            name: "bogus".into(),
            known: vec!["cell_sorting".into()],
        };
        assert_eq!(error_exit_code(&unknown), 2);
        let invalid = SweepError::InvalidPlan("no measures".into());
        assert_eq!(error_exit_code(&invalid), 2);
    }

    #[test]
    fn cli_and_service_fast_plans_key_cells_identically() {
        let names = "cell_sorting,ring_formation,mixing_null,cell_sorting_xl";
        let argv: Vec<String> = [
            "--scenario",
            names,
            "--measure",
            "ksg,gaussian@2",
            "--seeds",
            "1..2",
            "--fast",
        ]
        .map(String::from)
        .to_vec();
        let cli = sweep_plan(&parse_sweep_args(&argv), &ScenarioRegistry::gallery()).unwrap();
        let service = sops_serve::parse_plan(
            "{\"scenarios\":[\"cell_sorting\",\"ring_formation\",\"mixing_null\",\"cell_sorting_xl\"],\
             \"measures\":[\"ksg\",\"gaussian@2\"],\"seeds\":[1,2],\"fast\":true}",
        )
        .unwrap();
        assert_eq!(
            cli.scenarios[0].ensemble.samples, 100,
            "fast clamps cell_sorting"
        );
        assert_eq!(cli.seeds, service.seeds);
        let keys = |plan: &SweepPlan| -> Vec<u64> {
            let mut keys = Vec::new();
            for sc in &plan.scenarios {
                for &seed in &plan.seeds {
                    let sc = sc.clone().with_seed(seed);
                    for m in &plan.measures {
                        keys.push(sops_core::checkpoint::cell_key(&sc, m).unwrap());
                    }
                }
            }
            keys
        };
        assert_eq!(keys(&cli).len(), 16);
        assert_eq!(keys(&cli), keys(&service));
    }

    #[test]
    fn seed_ranges_parse_and_oversized_ranges_are_usage_errors() {
        let mut seeds = Vec::new();
        parse_seed_spec("1..3", &mut seeds).unwrap();
        parse_seed_spec("5..=6", &mut seeds).unwrap();
        parse_seed_spec("9", &mut seeds).unwrap();
        assert_eq!(seeds, vec![1, 2, 3, 5, 6, 9]);
        assert!(parse_seed_spec("3..1", &mut seeds).is_err());
        // u64::MAX + 1 seeds: the count overflows on every 64-bit host.
        let err = parse_seed_spec("0..18446744073709551615", &mut seeds).unwrap_err();
        assert!(err.contains("too large"), "{err}");
        assert_eq!(seeds.len(), 6, "a rejected range adds nothing");
    }

    #[test]
    fn measure_parser_accepts_strided_selections() {
        assert!(matches!(
            parse_measure("ksg@4"),
            Some(MeasureConfig::Strided {
                family: sops_info::StridedFamily::Ksg(_),
                every: 4,
            })
        ));
        assert!(matches!(
            parse_measure("gaussian@2"),
            Some(MeasureConfig::Strided {
                family: sops_info::StridedFamily::Gaussian,
                every: 2,
            })
        ));
        assert!(parse_measure("ksg@0").is_none(), "stride 0 is rejected");
        assert!(parse_measure("ksg@").is_none());
        assert!(parse_measure("discrete@2").is_none());
        assert!(parse_measure("bogus@3").is_none());
        assert!(matches!(parse_measure("ksg"), Some(MeasureConfig::Ksg(_))));
    }
}
