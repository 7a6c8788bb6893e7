//! `serve_cache`: an in-process `sops_serve::Server` in front of a
//! `SweepBroker` whose `CellCache` is rebuilt for every run.
//!
//! Set-up fills a fresh cache through `CellCache::store` with
//! [`FILL_ENTRIES`] unrelated entries plus the fast-scale hot set, then
//! binds the server. The timed phase is a closed loop of `threads`
//! clients against a pool of `threads` server workers; every request
//! carries `"threads": 1`. About nine in ten requests re-ask hot cells;
//! the rest ask a fresh seed at tiny scale, which computes once and
//! stores five entries.
//!
//! Traced, the first requests are replayed one at a time three ways on caches
//! in the same state: over the socket, through `route` (hits) or
//! `SweepBroker::run` (misses) in process, and rebuilt from the public
//! calls `parse_plan` → `cell_key` → `lookup` → (miss) `run_cells` →
//! `store` → `sweep_json`. All three must return the same bytes.

use crate::ops::{self, Kind, Request, Rng, HOT_SET};
use crate::trace::{union_len, Layers, Tracer};
use crate::{host, stats, Args, Outcome};
use sops_core::broker::SweepBroker;
use sops_core::cache::CellCache;
use sops_core::checkpoint::cell_key;
use sops_core::report::sweep_json;
use sops_core::scenario::measure_labels;
use sops_core::{
    CellProvenance, CellStatus, MiSeries, PipelineResult, SweepCell, SweepPlan, SweepReport,
    SweepRunner,
};
use sops_serve::{parse_plan, route, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Requests one second of `--seconds` buys on the reference host.
const REQUESTS_PER_S: f64 = 400.0;
/// Unrelated entries stored before the hot set.
const FILL_ENTRIES: usize = 2000;
/// Repeated set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Requests the traced run replays, from the start of the op list: each
/// runs three times one at a time, so the whole list would not fit the
/// run's time limit.
const TRACED_REQUESTS: usize = 1000;

/// The hot set's cache entries and, per hot ensemble, the canonical bytes
/// of an uncached run of its plan.
struct Hot {
    entries: Vec<(u64, PipelineResult)>,
    canonical: Vec<String>,
}

fn hot_reference(threads: usize) -> Result<Hot, String> {
    let mut hot = Hot {
        entries: Vec::new(),
        canonical: Vec::new(),
    };
    let mut runner = SweepRunner::new();
    for h in 0..HOT_SET.len() {
        let mut plan = parse_plan(&ops::hit_body(h))?;
        plan.threads = threads;
        let report = runner.run(&plan).map_err(|e| e.to_string())?;
        if report.has_failures() {
            return Err(format!("hot ensemble {h} has quarantined cells"));
        }
        hot.canonical.push(sweep_json(&report, false));
        for cell in report.cells {
            let scenario = plan.scenarios[0].clone().with_seed(cell.seed);
            let key = cell_key(&scenario, &cell.measure).map_err(|e| e.to_string())?;
            hot.entries.push((key, cell.result));
        }
    }
    Ok(hot)
}

/// Unrelated cache entries of the same shape as fast-scale cells.
fn filler(seed: u64) -> Vec<(u64, PipelineResult)> {
    let mut rng = Rng::new(seed ^ 0xF111);
    (0..FILL_ENTRIES)
        .map(|_| {
            let key = rng.next_u64();
            let result = PipelineResult {
                mi: MiSeries {
                    times: vec![0, 20, 40],
                    values: (0..3).map(|_| rng.unit() * 8.0).collect(),
                },
                mean_icp_cost: (0..3).map(|_| rng.unit()).collect(),
                equilibrated_fraction: 0.0,
            };
            (key, result)
        })
        .collect()
}

/// A cache directory filled with the filler and the hot set.
fn filled_cache(
    dir: &Path,
    fill: &[(u64, PipelineResult)],
    hot: &Hot,
) -> Result<CellCache, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = CellCache::open(dir).map_err(|e| e.to_string())?;
    for (key, result) in fill.iter().chain(&hot.entries) {
        cache.store(*key, result);
    }
    match cache.stats().store_errors {
        0 => Ok(cache),
        n => Err(format!("{n} cache stores failed in {}", dir.display())),
    }
}

/// A running server over its own filled cache.
struct Live {
    handle: ServerHandle,
    broker: Arc<SweepBroker>,
    dir: PathBuf,
}

fn start(
    dir: PathBuf,
    fill: &[(u64, PipelineResult)],
    hot: &Hot,
    workers: usize,
) -> Result<Live, String> {
    let cache = filled_cache(&dir, fill, hot)?;
    let broker = Arc::new(SweepBroker::new().with_cache(Arc::new(cache)));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&broker), workers)
        .and_then(Server::spawn)
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Live {
        handle,
        broker,
        dir,
    })
}

impl Live {
    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One HTTP exchange: connect, send, read to EOF. Returns the status and
/// body.
fn post(addr: SocketAddr, request: &[u8]) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status")?;
    Ok((status, body.to_string()))
}

fn http_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /sweep HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const CACHED: &str = ", \"provenance\": \"cached\", \"cached\": true";
const COMPUTED: &str = ", \"provenance\": \"computed\", \"cached\": false";
/// A cell the broker batched onto a pass another cell of the same
/// request opened: it was computed in this request, not served.
const COALESCED: &str = ", \"provenance\": \"coalesced\", \"cached\": true";

/// Why a response is wrong, if it is: a non-200 status, a cell with the
/// wrong provenance (hits must all be served from the cache; a miss
/// computes one pass whose other cells the broker labels coalesced), or
/// bytes that differ from the plan's canonical run once provenance is
/// stripped.
fn response_problem(kind: Kind, status: u16, body: &str, canonical: &str) -> Option<String> {
    if status != 200 {
        return Some(format!("status {status}: {}", body.trim()));
    }
    let cells = ops::MEASURES.len();
    let (cached, computed, coalesced) = (
        body.matches(CACHED).count(),
        body.matches(COMPUTED).count(),
        body.matches(COALESCED).count(),
    );
    let expected = match kind {
        Kind::Hit(_) => cached == cells,
        Kind::Miss => computed == 1 && computed + coalesced == cells,
    };
    if !expected || body.matches("\"provenance\"").count() != cells {
        return Some(format!(
            "{kind:?}: provenance {cached} cached, {computed} computed, {coalesced} coalesced"
        ));
    }
    let stripped = body
        .replace(CACHED, "")
        .replace(COMPUTED, "")
        .replace(COALESCED, "");
    (stripped != canonical).then(|| format!("{kind:?}: body differs from the canonical bytes"))
}

/// Canonical bytes of every miss request's plan, recomputed untimed with
/// the request's own `"threads": 1`, spread over `threads` workers.
fn miss_references(requests: &[Request], threads: usize) -> Vec<Option<String>> {
    let misses: Vec<usize> = (0..requests.len())
        .filter(|&i| requests[i].kind == Kind::Miss)
        .collect();
    let computed = sops_par::parallel_map(misses.len(), threads, |j| {
        let plan = parse_plan(&requests[misses[j]].body).ok()?;
        let report = SweepRunner::new().run(&plan).ok()?;
        Some(sweep_json(&report, false))
    });
    let mut out = vec![None; requests.len()];
    for (i, c) in misses.into_iter().zip(computed) {
        out[i] = c;
    }
    out
}

fn canonical_for<'a>(
    kind: Kind,
    i: usize,
    hot: &'a Hot,
    misses: &'a [Option<String>],
) -> Option<&'a str> {
    match kind {
        Kind::Hit(h) => Some(hot.canonical[h].as_str()),
        Kind::Miss => misses[i].as_deref(),
    }
}

/// The timed closed loop: `clients` threads take requests in order from
/// a shared counter; each waits for its reply before sending the next.
/// Returns per-request (latency ms, response) and the phase's seconds.
type Reply = (f64, Result<(u16, String), String>);

fn closed_loop(addr: SocketAddr, wire: &[Vec<u8>], clients: usize) -> (Vec<Reply>, f64) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<Vec<(usize, Reply)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= wire.len() {
                            return got;
                        }
                        let t = Instant::now();
                        let reply = post(addr, &wire[i]);
                        got.push((i, (t.elapsed().as_secs_f64() * 1e3, reply)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut replies: Vec<Option<Reply>> = (0..wire.len()).map(|_| None).collect();
    for (i, reply) in per_client.into_iter().flatten() {
        replies[i] = Some(reply);
    }
    let replies = replies
        .into_iter()
        .map(|r| r.expect("every request was sent"))
        .collect();
    (replies, wall)
}

pub fn serve_cache(args: &Args) -> Result<Outcome, String> {
    let requests = ops::serve_requests(args.seed, (args.seconds * REQUESTS_PER_S).round() as usize);
    let wire: Vec<Vec<u8>> = requests.iter().map(|r| http_bytes(&r.body)).collect();
    let fill = filler(args.seed);
    let hot = hot_reference(args.threads)?;
    let run_dir = args.out_dir.join(format!("serve_{}", std::process::id()));

    let mut out = Outcome::default();
    let mut live = None;
    let setups = if args.trace { 1 } else { SETUPS };
    for k in 0..setups {
        if let Some(previous) = live.take() {
            Live::stop(previous);
        }
        let t = Instant::now();
        live = Some(start(
            run_dir.join(format!("setup{k}")),
            &fill,
            &hot,
            args.threads,
        )?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let live = live.expect("at least one set-up");
    out.notes.push(format!("set-ups (s): {:.3?}", out.setup_s));
    let addr = live.handle.addr();

    let cpu0 = host::cpu_seconds();
    let (replies, wall) = closed_loop(addr, &wire, args.threads);
    let cpu_s = host::cpu_seconds() - cpu0;
    let stats_now = live.broker.stats();
    let entries = live.broker.cache().map_or(0, |c| c.len());
    live.stop();

    let misses = miss_references(&requests, args.threads);
    for (i, (req, (ms, reply))) in requests.iter().zip(&replies).enumerate() {
        let problem = match (reply, canonical_for(req.kind, i, &hot, &misses)) {
            (Err(e), _) => Some(e.clone()),
            (_, None) => Some("no reference for this request".into()),
            (Ok((status, body)), Some(canonical)) => {
                response_problem(req.kind, *status, body, canonical)
            }
        };
        out.check(problem);
        match req.kind {
            Kind::Hit(_) => out.latency_ms.push(*ms),
            Kind::Miss => out.compute_ms.push(*ms),
        }
    }
    out.wall_s = wall;
    let hit_p90 = stats::percentile(&out.latency_ms, 0.9);
    let cache_stats = stats_now.cache.unwrap_or_default();
    out.notes.push(format!(
        "{} requests ({} hits, {} misses), {:.1} req/s, hit p90 {}, cpu {cpu_s:.2} s",
        requests.len(),
        out.latency_ms.len(),
        out.compute_ms.len(),
        requests.len() as f64 / wall,
        hit_p90.map_or(
            "withheld (fewer than 10 samples beyond it)".into(),
            |v| format!("{v:.4} ms")
        ),
    ));
    out.notes.push(format!(
        "cache: {entries} entries, {} hits, {} misses, {} stores; broker: {} sim passes, {} coalesced",
        cache_stats.hits, cache_stats.misses, cache_stats.stores, stats_now.sim_passes, stats_now.cells_coalesced
    ));
    if args.trace {
        let l = &mut out.layers;
        l.insert(
            "serve.hit_ms_p90",
            hit_p90.unwrap_or_else(|| stats::median(&out.latency_ms)),
        );
        let looked_up = (cache_stats.hits + cache_stats.misses).max(1);
        l.insert(
            "cache.hit_ratio",
            cache_stats.hits as f64 / looked_up as f64,
        );
        l.insert("cache.entries", entries as f64);
        l.insert("broker.sim_passes", stats_now.sim_passes as f64);
        l.insert("broker.cells_coalesced", stats_now.cells_coalesced as f64);
        l.insert("proc.cpu_s", cpu_s);
        l.insert("proc.par_eff", cpu_s / (wall * args.threads as f64));
        traced(
            args, &requests, &wire, &fill, &hot, &misses, &run_dir, &mut out,
        )?;
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(out)
}

/// A request rebuilt from the serving layers' public calls against
/// `cache`, under spans below `root`. Returns the provenance-carrying
/// body `route` would send.
fn rebuilt_request(
    tr: &Tracer,
    root: u64,
    op: u64,
    body: &str,
    cache: &CellCache,
    runner: &mut SweepRunner,
) -> Result<String, String> {
    let span = tr.open();
    let plan: SweepPlan = parse_plan(body)?;
    tr.close(span, root, op, "serve.parse_plan");
    let labels = measure_labels(&plan.measures);
    let mut cells = Vec::new();
    for base in &plan.scenarios {
        for &seed in &plan.seeds {
            let scenario = base.clone().with_seed(seed);
            let mut found = Vec::with_capacity(plan.measures.len());
            for measure in &plan.measures {
                let span = tr.open();
                let key = cell_key(&scenario, measure).map_err(|e| e.to_string())?;
                tr.close(span, root, op, "cache.key");
                let span = tr.open();
                let hit = cache.lookup(key);
                tr.close(span, root, op, "cache.lookup");
                found.push((key, hit));
            }
            let missing: Vec<usize> = (0..found.len()).filter(|&i| found[i].1.is_none()).collect();
            let mut computed = Vec::new();
            if !missing.is_empty() {
                let measures: Vec<_> = missing.iter().map(|&i| plan.measures[i]).collect();
                let span = tr.open();
                computed = runner.run_cells(
                    &scenario,
                    &measures,
                    &measure_labels(&measures),
                    plan.storage,
                    plan.threads,
                );
                tr.close(span, root, op, "runner.run_cells");
                for (cell, &i) in computed.iter().zip(&missing) {
                    if cell.status.is_ok() {
                        let span = tr.open();
                        cache.store(found[i].0, &cell.result);
                        tr.close(span, root, op, "cache.store");
                    }
                }
            }
            // As the broker labels them: the first missing cell of the
            // ensemble owns the pass, the others ride it.
            let mut computed = computed.into_iter();
            let mut owner = CellProvenance::Computed;
            for (mi, (_, hit)) in found.into_iter().enumerate() {
                let (status, provenance, result) = match hit {
                    Some(result) => (CellStatus::Ok, CellProvenance::Cached, result),
                    None => {
                        let cell = computed.next().expect("one computed cell per miss");
                        let provenance = owner;
                        owner = CellProvenance::Coalesced;
                        (cell.status, provenance, cell.result)
                    }
                };
                cells.push(SweepCell {
                    scenario: scenario.name.clone(),
                    measure: plan.measures[mi],
                    measure_label: labels[mi].clone(),
                    seed,
                    status,
                    provenance,
                    result,
                });
            }
        }
    }
    let span = tr.open();
    let encoded = sweep_json(&SweepReport { cells }, true);
    tr.close(span, root, op, "serve.encode");
    Ok(encoded)
}

/// Names of the rebuilt serving stages (their union is what `route`
/// time is compared against for `trace.coverage`).
const HIT_STAGES: [&str; 4] = [
    "serve.parse_plan",
    "cache.key",
    "cache.lookup",
    "serve.encode",
];

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    requests: &[Request],
    wire: &[Vec<u8>],
    fill: &[(u64, PipelineResult)],
    hot: &Hot,
    misses: &[Option<String>],
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let server = start(run_dir.join("traced_server"), fill, hot, args.threads)?;
    let rebuilt_cache = filled_cache(&run_dir.join("traced_rebuilt"), fill, hot)?;
    let in_process = SweepBroker::new().with_cache(Arc::new(filled_cache(
        &run_dir.join("traced_in_process"),
        fill,
        hot,
    )?));
    let addr = server.handle.addr();
    let tr = Tracer::new();
    let mut runner = SweepRunner::new();
    let (mut rtt_route_ms, mut route_s, mut rebuilt_hit_s) = (Vec::new(), 0.0, 0.0);
    let mut hit_ops = Vec::new();
    let replayed = requests.len().min(TRACED_REQUESTS);
    for (i, req) in requests.iter().take(replayed).enumerate() {
        let op = i as u64 + 1;
        let root = tr.open();
        let t = Instant::now();
        let span = tr.open();
        let sock = post(addr, &wire[i]);
        tr.close(span, root.id, op, "serve.rtt");
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let span = tr.open();
        let live = match req.kind {
            Kind::Hit(_) => {
                let resp = route(&in_process, "POST", "/sweep", &req.body);
                tr.close(span, root.id, op, "serve.route");
                Ok((resp.status, resp.body))
            }
            Kind::Miss => {
                let plan = parse_plan(&req.body)?;
                let report = in_process.run(&plan);
                tr.close(span, root.id, op, "broker.run");
                report
                    .map(|r| (200, sweep_json(&r, true)))
                    .map_err(|e| e.to_string())
            }
        };
        let live_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let rebuilt = rebuilt_request(&tr, root.id, op, &req.body, &rebuilt_cache, &mut runner);
        let rebuilt_s = t.elapsed().as_secs_f64();
        tr.close(root, 0, op, "request");
        if let Kind::Hit(_) = req.kind {
            rtt_route_ms.push(rtt_ms - live_ms);
            route_s += live_ms * 1e-3;
            rebuilt_hit_s += rebuilt_s;
            hit_ops.push(op);
        }

        let problem = match (sock, live, rebuilt, canonical_for(req.kind, i, hot, misses)) {
            (Err(e), _, _, _) | (_, Err(e), _, _) | (_, _, Err(e), _) => Some(e),
            (_, _, _, None) => Some("no reference for this request".into()),
            (Ok((status, sock)), Ok((_, live)), Ok(rebuilt), Some(canonical)) => {
                if sock != live || sock != rebuilt {
                    Some("socket, in-process and rebuilt bodies differ".into())
                } else {
                    response_problem(req.kind, status, &sock, canonical)
                }
            }
        };
        out.check(problem);
    }
    server.stop();
    let _ = std::fs::remove_dir_all(rebuilt_cache.dir());
    if let Some(cache) = in_process.cache() {
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    let spans = tr.spans();
    let layers = Layers::from_spans(&spans);
    let mut covered_s = 0.0;
    let hit_set: std::collections::HashSet<u64> = hit_ops.into_iter().collect();
    let mut by_op: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for sp in spans
        .iter()
        .filter(|sp| hit_set.contains(&sp.op) && HIT_STAGES.contains(&sp.name))
    {
        by_op.entry(sp.op).or_default().push((sp.start, sp.end));
    }
    for iv in by_op.values_mut() {
        covered_s += union_len(iv) as f64 * 1e-9;
    }
    let us = |name: &str| layers.per_call_s(name) * 1e6;
    let ms = |name: &str| layers.per_call_s(name) * 1e3;
    let l = &mut out.layers;
    l.insert("serve.parse_plan_us", us("serve.parse_plan"));
    l.insert("serve.encode_us", us("serve.encode"));
    l.insert("serve.route_ms", ms("serve.route"));
    l.insert("serve.transport_ms", stats::mean(&rtt_route_ms));
    l.insert("cache.key_us", us("cache.key"));
    l.insert("cache.lookup_us", us("cache.lookup"));
    l.insert("cache.store_us", us("cache.store"));
    l.insert("broker.run_ms", ms("broker.run"));
    l.insert("runner.ensemble_ms", ms("runner.run_cells"));
    l.insert("trace.coverage", covered_s / route_s.max(1e-12));
    l.insert("trace.overhead", rebuilt_hit_s / route_s.max(1e-12) - 1.0);
    out.notes.push(format!(
        "stage table over the first {replayed} requests (self time):"
    ));
    out.notes.push(format!(
        "{:<18} {:>8} {:>12} {:>12}",
        "span", "calls", "total_ms", "per_call_us"
    ));
    for (name, calls, total_ms) in layers.rows() {
        out.notes.push(format!(
            "{name:<18} {calls:>8} {total_ms:>12.3} {:>12.2}",
            total_ms * 1e3 / calls.max(1) as f64
        ));
    }
    crate::save_trace(args, &tr, out)
}
