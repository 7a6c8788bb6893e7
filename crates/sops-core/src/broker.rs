//! Request coalescing over the sweep engine: concurrent users, one pass.
//!
//! A [`SweepBroker`] accepts sweep requests from any number of threads
//! (`&self` — handles are shared behind an `Arc` by `sops-serve`'s
//! worker pool) and guarantees that **no cell is ever computed twice
//! concurrently**:
//!
//! * **Cache first** — with an attached [`CellCache`], every requested
//!   cell is looked up by [`crate::checkpoint::cell_key`] before any
//!   work is claimed; hits are served as [`CellProvenance::Cached`].
//! * **In-flight dedup** — a cell another request is already computing
//!   is *joined*: the second requester waits on the first's published
//!   result ([`CellProvenance::Coalesced`]) and never recomputes.
//! * **Ensemble batching** — cells that miss but share a (scenario,
//!   seed) ensemble with a *claimed-but-not-yet-started* job are
//!   appended to that job, so one [`SweepRunner::run_cells`] pass
//!   simulates the ensemble once and evaluates the union of everyone's
//!   measures on its shared prepared state — the one-pass
//!   preparation-sharing win applied across users instead of across one
//!   plan's measures.
//!
//! Results are bit-identical to an uncached [`SweepRunner::run`] of the
//! same plan for any interleaving: cells are pure functions of their
//! key, the cache round-trips every f64 exactly, and subset evaluation
//! equals full-pass evaluation by the engine's preparation-sharing
//! contract (`tests/sweep_broker.rs` proves N identical concurrent
//! requests produce byte-identical reports from exactly one simulation
//! pass).
//!
//! Failed (quarantined) cells are published to waiters like healthy ones
//! — a poisoned cell fails every coalesced requester identically — but
//! are never written to the cache, so they are retried on the next
//! request.

use crate::cache::{CacheStats, CellCache};
use crate::checkpoint::ScenarioKeys;
use crate::error::SweepError;
use crate::pipeline::PipelineResult;
use crate::scenario::{
    measure_labels, CellProvenance, CellStatus, ScenarioSpec, SweepCell, SweepPlan, SweepReport,
    SweepRunner,
};
use sops_info::measure::MeasureConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Lifetime counters of one [`SweepBroker`] (shared via
/// [`SweepBroker::counters`], e.g. by the `/stats` endpoint and by test
/// hooks that need to observe coalescing live).
#[derive(Debug, Default)]
pub struct BrokerCounters {
    requests: AtomicU64,
    sim_passes: AtomicU64,
    cells_computed: AtomicU64,
    cells_cached: AtomicU64,
    cells_coalesced: AtomicU64,
}

impl BrokerCounters {
    /// Sweep requests accepted.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    /// Simulation passes actually run (each simulates one ensemble once).
    pub fn sim_passes(&self) -> u64 {
        self.sim_passes.load(Ordering::SeqCst)
    }

    /// Cells computed by this broker's passes.
    pub fn cells_computed(&self) -> u64 {
        self.cells_computed.load(Ordering::SeqCst)
    }

    /// Cells served from the attached cache.
    pub fn cells_cached(&self) -> u64 {
        self.cells_cached.load(Ordering::SeqCst)
    }

    /// Cells that joined another request's in-flight computation (same
    /// cell deduped, or a cell batched into another request's ensemble
    /// pass) instead of computing.
    pub fn cells_coalesced(&self) -> u64 {
        self.cells_coalesced.load(Ordering::SeqCst)
    }
}

/// A point-in-time snapshot of broker (and attached cache) counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Sweep requests accepted.
    pub requests: u64,
    /// Simulation passes actually run.
    pub sim_passes: u64,
    /// Cells computed by this broker's passes.
    pub cells_computed: u64,
    /// Cells served from the attached cache.
    pub cells_cached: u64,
    /// Cells that joined another request's in-flight computation.
    pub cells_coalesced: u64,
    /// The attached cache's counters (`None` without a cache).
    pub cache: Option<CacheStats>,
}

/// A published cell result: what waiters receive.
#[derive(Debug, Clone)]
struct CellOutcome {
    status: CellStatus,
    result: PipelineResult,
}

/// One in-flight cell's rendezvous: the owner publishes exactly once,
/// any number of waiters block until then.
#[derive(Debug, Default)]
struct CellSlot {
    ready: Mutex<Option<CellOutcome>>,
    cv: Condvar,
}

impl CellSlot {
    fn publish(&self, outcome: CellOutcome) {
        let mut ready = self.ready.lock().unwrap();
        if ready.is_none() {
            *ready = Some(outcome);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> CellOutcome {
        let ready = self.ready.lock().unwrap();
        let ready = self.cv.wait_while(ready, |r| r.is_none()).unwrap();
        ready.as_ref().expect("wait_while guarantees Some").clone()
    }
}

/// Drop guard armed around an owned pass: on unwind, publishes a
/// `Failed` outcome to the job's slots and clears them from the
/// in-flight registry so no waiter hangs and no future request joins a
/// dead slot.
struct PublishGuard<'a> {
    broker: &'a SweepBroker,
    job: &'a PendingJob,
    armed: bool,
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut state = self.broker.state.lock().unwrap();
        for (key, _, slot) in &self.job.cells {
            slot.publish(CellOutcome {
                status: CellStatus::Failed {
                    reason: "broker pass aborted before publishing".into(),
                },
                result: PipelineResult::empty(),
            });
            state.inflight.remove(key);
        }
    }
}

/// A claimed ensemble pass that has not started simulating yet — the
/// window during which other requests' cells on the same ensemble can
/// still join it.
struct PendingJob {
    scenario: ScenarioSpec,
    cells: Vec<(u64, MeasureConfig, Arc<CellSlot>)>,
}

#[derive(Default)]
struct BrokerState {
    /// Claimed-but-not-started jobs by ensemble key.
    pending: HashMap<u64, PendingJob>,
    /// Every unfinished cell (pending or simulating) by cell key.
    inflight: HashMap<u64, Arc<CellSlot>>,
}

/// Where one requested cell's result will come from.
enum CellSource {
    /// Served from the cache before any work was claimed.
    Cached(PipelineResult),
    /// This request owns the pass that will compute it.
    Owned(u64),
    /// Another in-flight computation will publish it.
    Joined(Arc<CellSlot>),
}

/// The request-coalescing front of the sweep engine — see the module
/// docs. Construct once, share behind an `Arc`, call
/// [`SweepBroker::run`] from any number of threads.
#[derive(Default)]
pub struct SweepBroker {
    cache: Option<Arc<CellCache>>,
    state: Mutex<BrokerState>,
    counters: Arc<BrokerCounters>,
    /// Warm runners returned by finished passes, reused by later ones.
    runners: Mutex<Vec<SweepRunner>>,
    observer: Option<PassObserver>,
}

type PassObserver = Arc<dyn Fn(&ScenarioSpec) + Send + Sync>;

impl std::fmt::Debug for SweepBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepBroker")
            .field("cache", &self.cache.as_ref().map(|c| c.dir()))
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SweepBroker {
    /// A broker with no cache: coalescing and batching only.
    pub fn new() -> Self {
        SweepBroker::default()
    }

    /// The same broker backed by a content-addressed cell cache: hits
    /// skip even the coalescing machinery, and every freshly computed
    /// healthy cell is stored back.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The same broker with a simulation-pass observer installed: `f`
    /// runs at the start of every pass (after the batching window for
    /// that ensemble closes, before simulation). This is the documented
    /// test/metrics hook — `tests/sweep_broker.rs` counts passes through
    /// it to prove N identical concurrent requests trigger exactly one.
    pub fn with_pass_observer(mut self, f: impl Fn(&ScenarioSpec) + Send + Sync + 'static) -> Self {
        self.observer = Some(Arc::new(f));
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<CellCache>> {
        self.cache.as_ref()
    }

    /// The broker's live counters (shared — hooks and endpoints can hold
    /// the `Arc` and observe coalescing as it happens).
    pub fn counters(&self) -> Arc<BrokerCounters> {
        Arc::clone(&self.counters)
    }

    /// A snapshot of broker and cache counters.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            requests: self.counters.requests(),
            sim_passes: self.counters.sim_passes(),
            cells_computed: self.counters.cells_computed(),
            cells_cached: self.counters.cells_cached(),
            cells_coalesced: self.counters.cells_coalesced(),
            cache: self.cache.as_ref().map(|c| c.stats()),
        }
    }

    /// Executes `plan`, sharing work with every concurrent request:
    /// cache hits are served, in-flight duplicates are joined, and the
    /// cells this request must compute run in per-ensemble
    /// [`SweepRunner::run_cells`] passes that also evaluate any cells
    /// other requests batched onto them. The returned report has cells
    /// in plan order with per-cell [`CellProvenance`], and is
    /// byte-identical (under the canonical `sweep.json` writer) to an
    /// uncached [`SweepRunner::run`] of the same plan.
    ///
    /// `Err` for an invalid plan or one with no stable wire form; cell
    /// failures are quarantined into the report, identically for every
    /// coalesced requester.
    pub fn run(&self, plan: &SweepPlan) -> Result<SweepReport, SweepError> {
        plan.validate()?;
        self.counters.requests.fetch_add(1, Ordering::SeqCst);
        let labels = measure_labels(&plan.measures);

        // The request's cell coordinates in plan order, with their
        // identity keys (computing keys up front also validates that the
        // plan has a stable wire form before any work is claimed). Each
        // ensemble's keys come from one scenario serialization.
        struct Coord {
            scenario_index: usize,
            measure_index: usize,
            seed: u64,
            ensemble: u64,
            cell: u64,
        }
        let mut scenarios: Vec<ScenarioSpec> = Vec::new();
        let mut coords: Vec<Coord> = Vec::new();
        for base in &plan.scenarios {
            let own_seed = [base.ensemble.seed];
            let seeds: &[u64] = if plan.seeds.is_empty() {
                &own_seed
            } else {
                &plan.seeds
            };
            for &seed in seeds {
                let scenario = base.clone().with_seed(seed);
                let keys = ScenarioKeys::new(&scenario)?;
                let ensemble = keys.ensemble();
                for (mi, measure) in plan.measures.iter().enumerate() {
                    coords.push(Coord {
                        scenario_index: scenarios.len(),
                        measure_index: mi,
                        seed,
                        ensemble,
                        cell: keys.cell(measure),
                    });
                }
                scenarios.push(scenario);
            }
        }

        // Phase 1: cache lookups, before any claim (a hit needs neither
        // a pass nor a slot).
        let mut sources: Vec<Option<CellSource>> = Vec::with_capacity(coords.len());
        for coord in &coords {
            let hit = self.cache.as_ref().and_then(|c| c.lookup(coord.cell));
            if hit.is_some() {
                self.counters.cells_cached.fetch_add(1, Ordering::SeqCst);
            }
            sources.push(hit.map(CellSource::Cached));
        }

        // Phase 2: one critical section claims everything this request
        // still needs — join in-flight cells, batch onto pending jobs,
        // and open new jobs for the rest. Holding the lock across the
        // whole request is what makes "N identical concurrent requests →
        // one pass" deterministic: the first claimant owns every cell.
        let mut own_jobs: Vec<u64> = Vec::new();
        {
            let mut state = self.state.lock().unwrap();
            for (ci, coord) in coords.iter().enumerate() {
                if sources[ci].is_some() {
                    continue;
                }
                if let Some(slot) = state.inflight.get(&coord.cell) {
                    self.counters.cells_coalesced.fetch_add(1, Ordering::SeqCst);
                    sources[ci] = Some(CellSource::Joined(Arc::clone(slot)));
                    continue;
                }
                let slot = Arc::new(CellSlot::default());
                state.inflight.insert(coord.cell, Arc::clone(&slot));
                let measure = plan.measures[coord.measure_index];
                match state.pending.get_mut(&coord.ensemble) {
                    Some(job) => {
                        // Another request claimed this ensemble and has
                        // not started it: ride its pass.
                        job.cells.push((coord.cell, measure, Arc::clone(&slot)));
                        self.counters.cells_coalesced.fetch_add(1, Ordering::SeqCst);
                        sources[ci] = Some(CellSource::Joined(slot));
                    }
                    None => {
                        state.pending.insert(
                            coord.ensemble,
                            PendingJob {
                                scenario: scenarios[coord.scenario_index].clone(),
                                cells: vec![(coord.cell, measure, slot)],
                            },
                        );
                        own_jobs.push(coord.ensemble);
                        sources[ci] = Some(CellSource::Owned(coord.cell));
                    }
                }
            }
        }

        // Phase 3: run the owned passes. Taking a job out of `pending`
        // closes its batching window; its slots stay in `inflight` so
        // late identical cells still coalesce onto the running pass.
        let mut computed: HashMap<u64, CellOutcome> = HashMap::new();
        for ekey in own_jobs {
            let job = {
                let mut state = self.state.lock().unwrap();
                state
                    .pending
                    .remove(&ekey)
                    .expect("an owned pending job is only removed by its owner")
            };
            // If anything in the pass unwinds (the runner itself never
            // does, but an installed observer could), still publish a
            // Failed outcome to every slot — a coalesced waiter must
            // never hang on an abandoned pass.
            let guard = PublishGuard {
                broker: self,
                job: &job,
                armed: true,
            };
            let outcomes = self.run_job(&job, plan);
            let mut guard = guard;
            guard.armed = false;
            let mut state = self.state.lock().unwrap();
            for ((key, _, slot), outcome) in job.cells.iter().zip(outcomes) {
                slot.publish(outcome.clone());
                state.inflight.remove(key);
                computed.insert(*key, outcome);
            }
        }

        // Phase 4: assemble the report in plan order, waiting on joined
        // cells as needed.
        let mut cells = Vec::with_capacity(coords.len());
        for (coord, source) in coords.iter().zip(sources) {
            let scenario = &scenarios[coord.scenario_index];
            let (provenance, outcome) = match source.expect("every coordinate has a source") {
                CellSource::Cached(result) => (
                    CellProvenance::Cached,
                    CellOutcome {
                        status: CellStatus::Ok,
                        result,
                    },
                ),
                CellSource::Owned(key) => (
                    CellProvenance::Computed,
                    computed
                        .get(&key)
                        .expect("owned cells are published by our own passes")
                        .clone(),
                ),
                CellSource::Joined(slot) => (CellProvenance::Coalesced, slot.wait()),
            };
            cells.push(SweepCell {
                scenario: scenario.name.clone(),
                measure: plan.measures[coord.measure_index],
                measure_label: labels[coord.measure_index].clone(),
                seed: coord.seed,
                status: outcome.status,
                provenance,
                result: outcome.result,
            });
        }
        Ok(SweepReport { cells })
    }

    /// Simulates one job's ensemble once and evaluates every batched
    /// measure on it, returning outcomes parallel to `job.cells`.
    /// Healthy cells are backfilled into the cache. Runs under
    /// [`SweepRunner`]'s panic isolation — this never unwinds, so every
    /// slot is always published.
    fn run_job(&self, job: &PendingJob, plan: &SweepPlan) -> Vec<CellOutcome> {
        self.counters.sim_passes.fetch_add(1, Ordering::SeqCst);
        if let Some(observer) = &self.observer {
            observer(&job.scenario);
        }
        let measures: Vec<MeasureConfig> = job.cells.iter().map(|(_, m, _)| *m).collect();
        let labels = measure_labels(&measures);
        let mut runner = self.runners.lock().unwrap().pop().unwrap_or_default();
        let produced = runner.run_cells(
            &job.scenario,
            &measures,
            &labels,
            plan.storage,
            plan.threads,
        );
        self.runners.lock().unwrap().push(runner);
        self.counters
            .cells_computed
            .fetch_add(produced.len() as u64, Ordering::SeqCst);
        job.cells
            .iter()
            .zip(produced)
            .map(|((key, _, _), cell)| {
                if cell.status.is_ok() {
                    if let Some(cache) = &self.cache {
                        cache.store(*key, &cell.result);
                    }
                }
                CellOutcome {
                    status: cell.status,
                    result: cell.result,
                }
            })
            .collect()
    }
}
