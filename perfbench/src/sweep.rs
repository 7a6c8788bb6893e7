//! `grid_cold` and `xl_cell`: sweep ensembles through `SweepRunner`.
//!
//! Untraced, each op is one `SweepRunner::run_cells` call, as
//! `sops-repro sweep` makes them, and the op list ends with the report's
//! `sweep_json` and `SweepSummary`. Traced, each op is rebuilt from the
//! layers' public calls and must produce the same bytes as `run_cells`:
//! `run_streaming_ensemble`, then per evaluation step `at_time_into`,
//! `center`, `icp_align_with`, `match_types_into` with `apply_matching`,
//! `build_observers` and `Estimator::prepare/estimate`, the steps in
//! parallel with single-threaded inner stages.

use crate::ops::{self, GRID_SCENARIOS, MEASURES};
use crate::trace::{union_len, Layers, Tracer};
use crate::{host, pins, stats, Args, Outcome};
use sops_core::observers::build_observers;
use sops_core::report::sweep_json;
use sops_core::scenario::measure_labels;
use sops_core::{
    CellProvenance, CellStatus, EnsembleStorage, MiSeries, PipelineResult, ScenarioRegistry,
    ScenarioSpec, SweepCell, SweepPlan, SweepReport, SweepRunner, SweepSummary,
};
use sops_info::measure::{MeasureConfig, MeasureWorkspace};
use sops_math::Vec2;
use sops_shape::ensemble::{
    reduce_configurations_with, ReduceConfig, ReduceMode, ReduceWorkspace, ReducedSet,
};
use sops_shape::permutation::apply_matching;
use sops_shape::{icp_align_with, match_types_into, IcpScratch, MatchScratch};
use sops_sim::streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Grid ensembles one second of `--seconds` buys on the reference host
/// (2 vCPUs, 2 threads); sets how many pool seeds a run takes.
const GRID_ENSEMBLES_PER_S: f64 = 3.0;
/// Seconds one `xl_cell` cell takes on the reference host.
const XL_CELL_S: f64 = 17.0;
/// Repeated set-ups per run (`setup_s` is their median).
const GRID_SETUPS: usize = 9;
/// Scale of the `grid_cold` warm-up ensembles.
const WARMUP_SAMPLES: usize = 20;
const WARMUP_T_MAX: usize = 10;
const XL_SETUPS: usize = 9;

/// Everything a sweep workload needs before its first timed op.
struct SweepSetup {
    plan: SweepPlan,
    labels: Vec<String>,
    runner: SweepRunner,
    /// Seed of the op order (the workload seed).
    order_seed: u64,
}

impl SweepSetup {
    /// The plan's (scenario, seed) ensembles in an order drawn from the
    /// workload seed. Interleaving the scenarios spreads each one's
    /// ensembles over the whole run, so the median ensemble time does not
    /// hinge on the host during one scenario's block of the run.
    fn ops(&self) -> Vec<ScenarioSpec> {
        let mut list: Vec<ScenarioSpec> = self
            .plan
            .scenarios
            .iter()
            .flat_map(|base| self.plan.seeds.iter().map(|&s| base.clone().with_seed(s)))
            .collect();
        ops::Rng::new(self.order_seed).shuffle(&mut list);
        list
    }
}

fn parse_measures(names: &[&str]) -> Result<Vec<MeasureConfig>, String> {
    names
        .iter()
        .map(|n| MeasureConfig::parse(n).ok_or_else(|| format!("unknown measure {n}")))
        .collect()
}

fn setup(
    registry: ScenarioRegistry,
    names: &[&str],
    fast: bool,
    measures: &[&str],
    seeds: &[u64],
    threads: usize,
    order_seed: u64,
) -> Result<SweepSetup, String> {
    let mut scenarios = registry.select(names).map_err(|e| e.to_string())?;
    if fast {
        // The `--fast` smoke scale of `sops-repro sweep` and `sops-serve`.
        scenarios = scenarios
            .into_iter()
            .map(|sc| {
                let (m, t) = (sc.ensemble.samples.min(100), sc.ensemble.t_max.min(40));
                sc.with_scale(m, t)
            })
            .collect();
    }
    let plan = SweepPlan {
        scenarios,
        measures: parse_measures(measures)?,
        seeds: seeds.to_vec(),
        threads,
        storage: EnsembleStorage::default(),
    };
    plan.validate().map_err(|e| e.to_string())?;
    Ok(SweepSetup {
        labels: measure_labels(&plan.measures),
        plan,
        runner: SweepRunner::new(),
        order_seed,
    })
}

/// `grid_cold`: the full-scale builtin grid, every measure family, no
/// cache.
pub fn grid_cold(args: &Args) -> Result<Outcome, String> {
    let per_scenario = (args.seconds * GRID_ENSEMBLES_PER_S / GRID_SCENARIOS.len() as f64)
        .round()
        .clamp(1.0, ops::GRID_POOL.len() as f64) as usize;
    let seeds = ops::pool_seeds(args.seed, &ops::GRID_POOL, per_scenario);
    let make = || {
        let mut s = setup(
            ScenarioRegistry::builtin(),
            &GRID_SCENARIOS,
            false,
            &MEASURES,
            &seeds,
            args.threads,
            args.seed,
        )?;
        // Warm the runner on one smoke-scale ensemble per scenario, so
        // lazy start-up (workspace growth, allocator, threads) is paid
        // here rather than by the first timed op.
        for base in &s.plan.scenarios {
            let smoke = base.clone().with_scale(WARMUP_SAMPLES, WARMUP_T_MAX);
            black_box(s.runner.run_cells(
                &smoke,
                &s.plan.measures,
                &s.labels,
                s.plan.storage,
                s.plan.threads,
            ));
        }
        Ok(s)
    };
    run(args, make, GRID_SETUPS)
}

/// `xl_cell`: one `--fast` `cell_sorting_xl` cell (10⁵ particles, 8
/// samples, t_max 40, ksg) per `XL_CELL_S` of `--seconds`, at least one.
pub fn xl_cell(args: &Args) -> Result<Outcome, String> {
    let cells = (args.seconds / XL_CELL_S).round().max(1.0) as usize;
    let seeds = ops::pool_seeds(args.seed, &ops::XL_POOL, cells);
    let make = || {
        setup(
            ScenarioRegistry::gallery(),
            &["cell_sorting_xl"],
            true,
            &["ksg"],
            &seeds,
            args.threads,
            args.seed,
        )
    };
    let mut out = run(args, make, XL_SETUPS)?;
    // VmHWM is process-wide and never decreases, so it is reported only
    // here, where the memory is the cell's frames rather than allocator
    // overhead.
    let peak = host::peak_rss_mb();
    out.notes
        .push(format!("peak_rss_mb {peak:.2} (VmHWM of this process)"));
    if args.trace {
        out.layers.insert("proc.peak_rss_mb", peak);
    }
    Ok(out)
}

/// Pin table lines for every (scenario, pool seed) ensemble of `grid`
/// (`grid_cold`) or `xl` (`xl_cell`), computed with one thread.
pub fn pin_lines(kind: &str) -> Result<Vec<String>, String> {
    let mut s = match kind {
        "grid" => setup(
            ScenarioRegistry::builtin(),
            &GRID_SCENARIOS,
            false,
            &MEASURES,
            &ops::GRID_POOL,
            1,
            0,
        )?,
        _ => setup(
            ScenarioRegistry::gallery(),
            &["cell_sorting_xl"],
            true,
            &["ksg"],
            &ops::XL_POOL,
            1,
            0,
        )?,
    };
    let pass = untraced_pass(&mut s);
    s.ops()
        .iter()
        .zip(&pass.ranges)
        .map(|(scenario, range)| {
            let cells = &pass.report.cells[range.clone()];
            if cells.iter().any(|c| !c.status.is_ok()) {
                return Err(format!(
                    "{} seed {}: quarantined",
                    scenario.name, scenario.ensemble.seed
                ));
            }
            Ok(format!(
                "    (\"{}\", {}, 0x{:016x}),",
                scenario.name,
                scenario.ensemble.seed,
                pins::fnv1a64(op_bytes(cells).as_bytes())
            ))
        })
        .collect()
}

/// The untraced op list: one `run_cells` per ensemble, then the report's
/// canonical JSON and seed-axis summary.
struct Pass {
    report: SweepReport,
    ranges: Vec<Range<usize>>,
    op_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

fn untraced_pass(s: &mut SweepSetup) -> Pass {
    let ops = s.ops();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut cells = Vec::with_capacity(s.plan.cell_count());
    let mut ranges = Vec::with_capacity(ops.len());
    let mut op_ms = Vec::with_capacity(ops.len());
    for scenario in &ops {
        let t = Instant::now();
        let produced = s.runner.run_cells(
            scenario,
            &s.plan.measures,
            &s.labels,
            s.plan.storage,
            s.plan.threads,
        );
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let start = cells.len();
        cells.extend(produced);
        ranges.push(start..cells.len());
    }
    let report = SweepReport { cells };
    black_box(sweep_json(&report, false));
    black_box(SweepSummary::from_report(&report));
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        report,
        ranges,
        op_ms,
    }
}

/// Canonical bytes of one op's cells.
fn op_bytes(cells: &[SweepCell]) -> String {
    sweep_json(
        &SweepReport {
            cells: cells.to_vec(),
        },
        false,
    )
}

/// Why an op's cells are wrong, if they are: a quarantined cell, or
/// canonical bytes that differ from the pinned digest.
fn op_problem(scenario: &ScenarioSpec, cells: &[SweepCell]) -> Option<String> {
    let seed = scenario.ensemble.seed;
    if let Some(bad) = cells.iter().find(|c| !c.status.is_ok()) {
        return Some(format!(
            "{} seed {seed}: quarantined {:?}",
            scenario.name, bad.status
        ));
    }
    let digest = pins::fnv1a64(op_bytes(cells).as_bytes());
    match pins::sweep(&scenario.name, seed) {
        Some(pinned) if pinned == digest => None,
        Some(pinned) => Some(format!(
            "{} seed {seed}: digest {digest:016x}, pinned {pinned:016x}",
            scenario.name
        )),
        None => Some(format!("{} seed {seed}: no pinned digest", scenario.name)),
    }
}

fn run(
    args: &Args,
    make: impl Fn() -> Result<SweepSetup, String>,
    setups: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        return traced(args, make()?, out);
    }
    let mut last = None;
    for _ in 0..setups {
        let t = Instant::now();
        last = Some(black_box(make()?));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = last.expect("at least one set-up");
    let pass = untraced_pass(&mut s);
    for (scenario, range) in s.ops().iter().zip(&pass.ranges) {
        out.check(op_problem(scenario, &pass.report.cells[range.clone()]));
    }
    out.wall_s = pass.wall_s;
    out.latency_ms = pass.op_ms.clone();
    out.compute_ms = pass.op_ms;
    out.notes.push(format!(
        "{} ensembles, {:.3} ensembles/s, cpu {:.2} s",
        out.latency_ms.len(),
        out.latency_ms.len() as f64 / out.wall_s,
        pass.cpu_s
    ));
    Ok(out)
}

/// One evaluation worker of the rebuilt pass: estimator engines plus
/// the reduction scratch, reused across the steps it claims.
#[derive(Default)]
struct StepWorker {
    measure: MeasureWorkspace,
    icp: IcpScratch,
    matching: MatchScratch,
    stage: Vec<Vec2>,
    reference: Vec<Vec2>,
    moving: Vec<Vec2>,
    perm: Vec<usize>,
}

/// Span names of the estimator stages (the workloads use only the five
/// plain families).
fn est_span(label: &str) -> &'static str {
    match label {
        "ksg" => "est.ksg",
        "kde" => "est.kde",
        "binned" => "est.binned",
        "discrete" => "est.discrete",
        "gaussian" => "est.gaussian",
        other => unreachable!("no estimator span for measure {other}"),
    }
}

/// Span names whose union is the time the stages account for.
const STAGE_SPANS: [&str; 11] = [
    "sim",
    "stage",
    "reduce",
    "icp",
    "match",
    "observers",
    "est.ksg",
    "est.kde",
    "est.binned",
    "est.discrete",
    "est.gaussian",
];

/// §5.2 shape reduction of one time slice from its public pieces, one
/// thread: centre the reference, then per sample centre, ICP-align,
/// re-index by type. The same arithmetic as `reduce_configurations_with`.
fn rebuilt_reduce(
    tr: &Tracer,
    parent: u64,
    op: u64,
    w: &mut StepWorker,
    samples: &[&[Vec2]],
    types: &[u16],
    cfg: &ReduceConfig,
) -> ReducedSet {
    w.reference.clear();
    w.reference.extend_from_slice(samples[cfg.reference]);
    sops_shape::center(&mut w.reference);
    let mut configs = Vec::with_capacity(samples.len());
    let mut icp_costs = Vec::with_capacity(samples.len());
    for (s, sample) in samples.iter().enumerate() {
        if s == cfg.reference {
            configs.push(w.reference.clone());
            icp_costs.push(0.0);
            continue;
        }
        w.moving.clear();
        w.moving.extend_from_slice(sample);
        sops_shape::center(&mut w.moving);
        if cfg.mode == ReduceMode::Centred {
            configs.push(w.moving.clone());
            icp_costs.push(0.0);
            continue;
        }
        let span = tr.open();
        let res = icp_align_with(&mut w.icp, &w.reference, &w.moving, types, &cfg.icp);
        tr.close(span, parent, op, "icp");
        tr.add("icp.iters", res.iterations as f64);
        res.transform.apply_all(&mut w.moving);
        let span = tr.open();
        match_types_into(&mut w.matching, &w.reference, &w.moving, types, &mut w.perm);
        let matched = apply_matching(&w.perm, &w.moving);
        tr.close(span, parent, op, "match");
        configs.push(matched);
        icp_costs.push(res.cost);
    }
    ReducedSet { configs, icp_costs }
}

/// One ensemble op rebuilt from public calls under spans (children of
/// `root`). Returns the cells plus what the reduction check needs: the
/// last evaluation step's rebuilt reduction and that step's slice.
fn rebuilt_cells(
    tr: &Tracer,
    root: u64,
    op: u64,
    s: &SweepSetup,
    scenario: &ScenarioSpec,
    workers: &mut Vec<StepWorker>,
) -> (Vec<SweepCell>, ReducedSet, Vec<Vec<Vec2>>) {
    let spec = &scenario.ensemble;
    let times = scenario.eval_times();
    let threads = s.plan.threads.max(1);
    let cfg = match s.plan.storage {
        EnsembleStorage::Streaming { max_resident_bytes } => StreamingConfig { max_resident_bytes },
        EnsembleStorage::Retained => StreamingConfig::default(),
    };
    let span = tr.open();
    let ensemble = run_streaming_ensemble(spec, &times, threads, &cfg);
    tr.close(span, root, op, "sim");
    tr.add(
        "sim.particle_steps",
        (spec.samples * spec.t_max * spec.model.particles()) as f64,
    );
    let frames = EnsembleFrames::Streaming(&ensemble);
    let types = spec.model.types();
    let type_count = spec.model.type_count();
    let reduce = ReduceConfig {
        threads: 1,
        ..scenario.reduce
    };
    let inner: Vec<(MeasureConfig, &'static str)> = s
        .plan
        .measures
        .iter()
        .map(|m| (m.with_threads(1), est_span(m.label())))
        .collect();
    let last = times.len() - 1;
    while workers.len() < threads {
        workers.push(StepWorker::default());
    }
    let eval = tr.open();
    let steps: Vec<(Vec<f64>, f64, Option<ReducedSet>)> =
        sops_par::parallel_map_with(times.len(), &mut workers[..threads], |w, ti| {
            let step = tr.open();
            let mut stage = std::mem::take(&mut w.stage);
            let mut slice = Vec::with_capacity(frames.samples());
            let span = tr.open();
            frames.at_time_into(times[ti], &mut stage, &mut slice);
            tr.close(span, step.id, op, "stage");
            let span = tr.open();
            let reduced = rebuilt_reduce(tr, span.id, op, w, &slice, types, &reduce);
            tr.close(span, step.id, op, "reduce");
            drop(slice);
            w.stage = stage;
            let span = tr.open();
            let observers =
                build_observers(&reduced, types, type_count, scenario.observers, spec.seed);
            tr.close(span, step.id, op, "observers");
            let view = observers.view();
            let mis: Vec<f64> = inner
                .iter()
                .map(|(m, name)| {
                    let span = tr.open();
                    let estimator = w.measure.estimator_mut(m);
                    estimator.prepare(&view);
                    let v = estimator.estimate();
                    tr.close(span, step.id, op, name);
                    v
                })
                .collect();
            let mean_cost = if reduced.icp_costs.is_empty() {
                0.0
            } else {
                reduced.icp_costs.iter().sum::<f64>() / reduced.icp_costs.len() as f64
            };
            tr.close(step, eval.id, op, "step");
            (mis, mean_cost, (ti == last).then_some(reduced))
        });
    tr.close(eval, root, op, "eval");
    let equilibrated_fraction = frames.equilibrated_fraction();
    let mean_icp_cost: Vec<f64> = steps.iter().map(|s| s.1).collect();
    let cells = s
        .plan
        .measures
        .iter()
        .enumerate()
        .map(|(mi, measure)| SweepCell {
            scenario: scenario.name.clone(),
            measure: *measure,
            measure_label: s.labels[mi].clone(),
            seed: spec.seed,
            status: CellStatus::Ok,
            provenance: CellProvenance::Computed,
            result: PipelineResult {
                mi: MiSeries {
                    times: times.clone(),
                    values: steps.iter().map(|st| st.0[mi]).collect(),
                },
                mean_icp_cost: mean_icp_cost.clone(),
                equilibrated_fraction,
            },
        })
        .collect();
    let last_reduced = steps
        .into_iter()
        .last()
        .and_then(|st| st.2)
        .expect("the last step returns its reduction");
    let mut stage = Vec::new();
    let mut slice = Vec::new();
    frames.at_time_into(times[last], &mut stage, &mut slice);
    let last_slice = slice.iter().map(|s| s.to_vec()).collect();
    (cells, last_reduced, last_slice)
}

/// Whether two reductions agree bit for bit.
fn same_reduction(a: &ReducedSet, b: &ReducedSet) -> bool {
    let bits = |v: &Vec2| (v.x.to_bits(), v.y.to_bits());
    a.configs.len() == b.configs.len()
        && a.configs
            .iter()
            .zip(&b.configs)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bits(p) == bits(q)))
        && a.icp_costs.len() == b.icp_costs.len()
        && a.icp_costs
            .iter()
            .zip(&b.icp_costs)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The traced run. Each op runs twice back to back, so both see the same
/// host conditions: once untraced through `run_cells` (reference time and
/// bytes), then rebuilt under spans; the rebuilt cells must match the
/// `run_cells` bytes and the rebuilt reduction of the last evaluation step
/// must match `reduce_configurations_with`.
fn traced(args: &Args, mut s: SweepSetup, mut out: Outcome) -> Result<Outcome, String> {
    let ops = s.ops();
    let tr = Tracer::new();
    let mut workers = Vec::new();
    let mut traced_cells = Vec::new();
    let (mut runner_ms, mut runner_cpu_s, mut traced_op_s) = (Vec::new(), 0.0, 0.0);
    for (i, scenario) in ops.iter().enumerate() {
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let reference = s.runner.run_cells(
            scenario,
            &s.plan.measures,
            &s.labels,
            s.plan.storage,
            s.plan.threads,
        );
        runner_ms.push(t.elapsed().as_secs_f64() * 1e3);
        runner_cpu_s += host::cpu_seconds() - cpu0;

        let op = i as u64 + 1;
        let root = tr.open();
        let t = Instant::now();
        let (cells, last_reduced, last_slice) =
            rebuilt_cells(&tr, root.id, op, &s, scenario, &mut workers);
        traced_op_s += t.elapsed().as_secs_f64();
        tr.close(root, 0, op, "op");

        let slice: Vec<&[Vec2]> = last_slice.iter().map(|v| v.as_slice()).collect();
        let reduce = ReduceConfig {
            threads: 1,
            ..scenario.reduce
        };
        let expected = reduce_configurations_with(
            &mut ReduceWorkspace::new(),
            &slice,
            scenario.ensemble.model.types(),
            &reduce,
        );
        let problem = if !same_reduction(&last_reduced, &expected) {
            Some(format!(
                "{}: rebuilt reduction differs from reduce_configurations_with",
                scenario.name
            ))
        } else if op_bytes(&cells) != op_bytes(&reference) {
            Some(format!(
                "{}: rebuilt cells differ from run_cells",
                scenario.name
            ))
        } else {
            op_problem(scenario, &cells)
        };
        out.check(problem);
        traced_cells.extend(cells);
    }
    let report = SweepReport {
        cells: traced_cells,
    };
    let span = tr.open();
    black_box(sweep_json(&report, false));
    tr.close(span, 0, 0, "report.encode");
    let span = tr.open();
    black_box(SweepSummary::from_report(&report));
    tr.close(span, 0, 0, "summary");

    let spans = tr.spans();
    let mut covered_s = 0.0;
    for op in 1..=ops.len() as u64 {
        let mut iv: Vec<(u64, u64)> = spans
            .iter()
            .filter(|sp| sp.op == op && STAGE_SPANS.contains(&sp.name))
            .map(|sp| (sp.start, sp.end))
            .collect();
        covered_s += union_len(&mut iv) as f64 * 1e-9;
    }
    let layers = Layers::from_spans(&spans);
    let n = ops.len() as f64;
    let runner_s = runner_ms.iter().sum::<f64>() * 1e-3;
    let per_op_ms = |name: &str| layers.self_s(name) * 1e3 / n;
    let icp_calls = layers.calls("icp");
    let l = &mut out.layers;
    l.insert("sim.ms", per_op_ms("sim"));
    l.insert(
        "sim.particle_steps_per_s",
        tr.counter("sim.particle_steps") / layers.self_s("sim").max(1e-12),
    );
    l.insert("reduce.ms", per_op_ms("reduce"));
    l.insert("reduce.icp_ms", per_op_ms("icp"));
    l.insert("reduce.icp_calls", icp_calls as f64 / n);
    if icp_calls > 0 {
        l.insert(
            "reduce.icp_win_iters",
            tr.counter("icp.iters") / icp_calls as f64,
        );
    }
    l.insert("reduce.match_ms", per_op_ms("match"));
    for fam in MEASURES {
        let name = est_span(fam);
        l.insert(crate::layer_key(name), per_op_ms(name));
    }
    l.insert("observers.ms", per_op_ms("observers"));
    l.insert("stage.us", layers.self_s("stage") * 1e6 / n);
    l.insert("runner.ensemble_ms", stats::mean(&runner_ms));
    l.insert("trace.coverage", covered_s / runner_s);
    l.insert("trace.overhead", traced_op_s / runner_s - 1.0);
    l.insert("report.encode_ms", layers.self_s("report.encode") * 1e3);
    l.insert("summary.ms", layers.self_s("summary") * 1e3);
    l.insert("proc.cpu_s", runner_cpu_s);
    l.insert(
        "proc.par_eff",
        runner_cpu_s / (runner_s * args.threads as f64),
    );

    out.notes.push(format!(
        "stage table over {} ops (self time; per op = total / ops):",
        ops.len()
    ));
    out.notes.push(format!(
        "{:<14} {:>9} {:>12} {:>12}",
        "span", "calls", "total_ms", "per_op_ms"
    ));
    for (name, calls, total_ms) in layers.rows() {
        out.notes.push(format!(
            "{name:<14} {calls:>9} {total_ms:>12.3} {:>12.3}",
            total_ms / n
        ));
    }
    out.notes.push(format!(
        "run_cells total {runner_s:.3} s; rebuilt ops {traced_op_s:.3} s"
    ));
    crate::save_trace(args, &tr, &mut out)?;
    Ok(out)
}
