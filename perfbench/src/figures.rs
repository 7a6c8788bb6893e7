//! `figures_fast`: all twelve `figures::figN::run` at fast scale with no
//! CSV output. One op is one twelve-figure pass under a pool seed; each
//! figure's `{:?}` form must match its pinned digest.

use crate::trace::{Layers, Tracer};
use crate::{host, ops, pins, stats, Args, Outcome};
use sops_core::figures::*;
use sops_core::RunOptions;
use std::fmt::Debug;
use std::hint::black_box;
use std::time::Instant;

/// Passes one second of `--seconds` buys on the reference host.
const PASSES_PER_S: f64 = 1.0;
/// Repeated set-ups per run (`setup_s` is their median).
const SETUPS: usize = 9;
/// Figures (indexes into [`FIGURES`]) the set-up warms up on: figs 1, 2,
/// 6 and 12, a few milliseconds together.
const WARMUP: [usize; 4] = [0, 1, 5, 11];

type Figure = fn(&RunOptions) -> Box<dyn Debug>;

/// The twelve figure generators, in figure order, with their span names.
pub const FIGURES: [(&str, Figure); 12] = [
    ("fig.fig1", |o| Box::new(fig1::run(o))),
    ("fig.fig2", |o| Box::new(fig2::run(o))),
    ("fig.fig3", |o| Box::new(fig3::run(o))),
    ("fig.fig4", |o| Box::new(fig4::run(o))),
    ("fig.fig5", |o| Box::new(fig5::run(o))),
    ("fig.fig6", |o| Box::new(fig6::run(o))),
    ("fig.fig7", |o| Box::new(fig7::run(o))),
    ("fig.fig8", |o| Box::new(fig8::run(o))),
    ("fig.fig9", |o| Box::new(fig9::run(o))),
    ("fig.fig10", |o| Box::new(fig10::run(o))),
    ("fig.fig11", |o| Box::new(fig11::run(o))),
    ("fig.fig12", |o| Box::new(fig12::run(o))),
];

/// Fast-scale options of one pass.
pub fn options(seed: u64, threads: usize) -> RunOptions {
    RunOptions {
        fast: true,
        seed,
        threads,
        out_dir: None,
    }
}

/// Digests of one pass's twelve `{:?}` forms.
pub fn pass_digests(datas: &[Box<dyn Debug>]) -> Vec<u64> {
    datas
        .iter()
        .map(|d| pins::fnv1a64(format!("{d:?}").as_bytes()))
        .collect()
}

/// One pass; with a tracer, each figure runs under its own span.
fn pass(opts: &RunOptions, tr: Option<(&Tracer, u64)>) -> Vec<Box<dyn Debug>> {
    FIGURES
        .iter()
        .map(|(name, run)| match tr {
            Some((tr, op)) => {
                let span = tr.open();
                let data = run(opts);
                tr.close(span, 0, op, name);
                data
            }
            None => run(opts),
        })
        .collect()
}

/// Pin table lines for every pool seed, computed with one thread.
pub fn pin_lines() -> Vec<String> {
    ops::FIGURE_POOL
        .iter()
        .map(|&seed| {
            let digests: Vec<String> = pass_digests(&pass(&options(seed, 1), None))
                .iter()
                .map(|d| format!("0x{d:016x}"))
                .collect();
            format!("    ({seed}, [{}]),", digests.join(", "))
        })
        .collect()
}

fn check(out: &mut Outcome, seed: u64, datas: &[Box<dyn Debug>]) {
    let digests = pass_digests(datas);
    let problem = match pins::figures(seed) {
        None => Some(format!("pass seed {seed}: no pinned digests")),
        Some(pinned) => digests
            .iter()
            .zip(pinned)
            .position(|(d, p)| d != p)
            .map(|i| format!("pass seed {seed}: fig{} digest differs from its pin", i + 1)),
    };
    out.check(problem);
}

pub fn figures_fast(args: &Args) -> Result<Outcome, String> {
    let passes = (args.seconds * PASSES_PER_S).round().max(1.0) as usize;
    let seeds = ops::pool_seeds(args.seed, &ops::FIGURE_POOL, passes);
    let mut out = Outcome::default();
    let mut opts: Vec<RunOptions> = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        opts = black_box(seeds.iter().map(|&s| options(s, args.threads)).collect());
        // Warm-up on the quickest figures (one retained ensemble, shape
        // clustering, the decomposition path), so lazy start-up is paid
        // here rather than by the first timed pass.
        let warm = options(ops::FIGURE_POOL[0], args.threads);
        for (_, run) in WARMUP.iter().map(|&i| &FIGURES[i]) {
            black_box(run(&warm));
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
    }

    // Traced, each pass runs twice back to back: untraced (reference
    // time), then with a span per figure.
    let tr = Tracer::new();
    let (mut untraced_s, mut traced_s, mut cpu_s) = (0.0, 0.0, 0.0);
    let mut results = Vec::with_capacity(opts.len() * (1 + args.trace as usize));
    let t0 = Instant::now();
    for (i, o) in opts.iter().enumerate() {
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        results.push((o.seed, pass(o, None)));
        let s = t.elapsed().as_secs_f64();
        cpu_s += host::cpu_seconds() - cpu0;
        untraced_s += s;
        out.latency_ms.push(s * 1e3);
        if args.trace {
            let t = Instant::now();
            results.push((o.seed, pass(o, Some((&tr, i as u64 + 1)))));
            traced_s += t.elapsed().as_secs_f64();
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    for (seed, datas) in &results {
        check(&mut out, *seed, datas);
    }
    out.compute_ms = out.latency_ms.clone();
    out.notes
        .push(format!("{} passes, cpu {cpu_s:.2} s", opts.len()));
    if !args.trace {
        return Ok(out);
    }

    let layers = Layers::from_spans(&tr.spans());
    let n = opts.len() as f64;
    let fig_s: f64 = FIGURES.iter().map(|(name, _)| layers.self_s(name)).sum();
    for (name, _) in FIGURES {
        out.layers
            .insert(crate::layer_key(name), layers.self_s(name) * 1e3 / n);
        out.notes.push(format!(
            "{name:<10} {:>10.3} ms/pass",
            layers.self_s(name) * 1e3 / n
        ));
    }
    let l = &mut out.layers;
    l.insert("trace.coverage", fig_s / traced_s);
    l.insert("trace.overhead", traced_s / untraced_s - 1.0);
    l.insert("proc.cpu_s", cpu_s);
    l.insert("proc.par_eff", cpu_s / (untraced_s * args.threads as f64));
    out.notes.push(format!(
        "median pass {:.1} ms untraced; passes {untraced_s:.3} s untraced, {traced_s:.3} s traced",
        stats::median(&out.latency_ms)
    ));
    crate::save_trace(args, &tr, &mut out)?;
    Ok(out)
}
