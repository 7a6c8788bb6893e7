//! Scenario registry and the one-pass sweep engine.
//!
//! The paper's evaluation is a *matrix*: particle-system scenarios (force
//! laws, type mixtures, schedules) crossed with self-organization
//! measures. A [`ScenarioSpec`] names one column of the physics side — a
//! model, its initialization, integration schedule and evaluation times —
//! and the [`ScenarioRegistry`] ships the built-in setups (the
//! cell-sorting and ring-formation systems of the examples plus a
//! mixing/null control). A [`SweepPlan`] is the cartesian grid
//! scenarios × [`MeasureConfig`] selections × seeds, and the
//! [`SweepRunner`] executes it *one-pass*:
//!
//! * each (scenario, seed) ensemble is simulated **once**, streamed
//!   ([`run_streaming_ensemble`]) so only the frames on the evaluation
//!   schedule are kept,
//! * per evaluated time step, the cross-sample view is materialized once
//!   ([`EnsembleFrames::at_time_into`], over a per-worker staging
//!   buffer), the shape reduction runs once and the observer matrix is
//!   built once,
//! * every selected estimator is then fanned over that shared prepared
//!   state through the [`sops_info::Estimator`] trait, with per-worker
//!   [`MeasureWorkspace`]/[`ReduceWorkspace`] scratch reused across all
//!   the time steps a worker claims ([`sops_par::parallel_map_with`]).
//!
//! Each grid cell's [`PipelineResult`] is **bit-identical** to the same
//! cell run alone (a one-cell plan, or [`SweepRunner::run_cells`] with
//! one measure) for any worker count and residency budget — estimates
//! depend only on the prepared view and the configuration, never on
//! workspace history (the workspaces cache only buffer capacity). This
//! engine is the only way a ΔI cell is computed: the figure generators
//! run their cells as sweep plans too.
//!
//! Results land in a [`SweepReport`], a flat scenario × measure × time
//! table with CSV/JSON writers in [`crate::report`] and an ASCII grid
//! renderer; the `sops-repro` binary drives it via the `sweep`
//! subcommand.
//!
//! The engine is **fault-tolerant**: every (scenario, seed) ensemble is
//! simulated and evaluated under panic isolation
//! ([`std::panic::catch_unwind`] with a bounded retry), so a
//! poisoned cell — a singular covariance, a degenerate estimator
//! parameterization, an invalid ensemble spec — is quarantined into the
//! report as [`CellStatus::Failed`] instead of aborting hours of sweep.
//! When a shared one-pass evaluation fails, the runner degrades to
//! per-measure evaluation so only the poisoned measure's cells fail
//! (per-measure results are bit-identical to the one-pass values by the
//! engine's own contract). Public entry points return
//! [`crate::SweepError`] instead of panicking, and
//! [`SweepRunner::run_with_cache`] stores every healthy cell in a
//! content-addressed [`CellCache`] as it completes, so an interrupted
//! sweep re-run over the same cache resumes bit-identically
//! (`tests/sweep_resume.rs`).

use crate::cache::CellCache;
use crate::checkpoint::ScenarioKeys;
use crate::error::SweepError;
use crate::observers::{build_observers, ObserverMode};
use crate::pipeline::{MiSeries, PipelineResult};
use sops_info::measure::{MeasureConfig, MeasureWorkspace};
use sops_math::{PairMatrix, Vec2};
use sops_shape::ensemble::{reduce_configurations_with, ReduceConfig, ReduceMode, ReduceWorkspace};
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::{ForceModel, LinearForce};
use sops_sim::streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig};
use sops_sim::{IntegratorConfig, Model};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// A named particle-system experiment — model, initialization, schedule
/// and evaluation times: one cell's physics, without the measure
/// selection, which the sweep grid supplies.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Registry key (also the row label of sweep reports).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Simulation ensemble: model, init, integrator, horizon, samples.
    pub ensemble: EnsembleSpec,
    /// Shape-reduction parameters.
    pub reduce: ReduceConfig,
    /// Observer construction.
    pub observers: ObserverMode,
    /// Evaluate at `t = 0, eval_every, 2·eval_every, …` and always at the
    /// final step.
    pub eval_every: usize,
}

/// The time steps an `eval_every` schedule evaluates over a `t_max`
/// horizon: `0, every, 2·every, …` plus always `t_max` itself.
///
/// Degenerate inputs are defined, not panics (the schedule feeds
/// unattended sweeps): `eval_every == 0` is a documented clamp to 1
/// (evaluate every recorded step), and `t_max == 0` yields the single
/// step `[0]`. The result is therefore never empty and always covers
/// both endpoints.
pub(crate) fn eval_schedule(t_max: usize, eval_every: usize) -> Vec<usize> {
    let every = eval_every.max(1);
    let mut times: Vec<usize> = (0..=t_max).step_by(every).collect();
    if times.last() != Some(&t_max) {
        times.push(t_max);
    }
    times
}

impl ScenarioSpec {
    /// A scenario named `name` around an ensemble spec, with the default
    /// shape reduction, per-particle observers and evaluation every 10
    /// steps (plus the final step).
    pub fn new(name: impl Into<String>, ensemble: EnsembleSpec) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            ensemble,
            reduce: ReduceConfig::default(),
            observers: ObserverMode::PerParticle,
            eval_every: 10,
        }
    }

    /// The evaluation time steps of this scenario.
    pub fn eval_times(&self) -> Vec<usize> {
        eval_schedule(self.ensemble.t_max, self.eval_every)
    }

    /// The same scenario with the master seed replaced — how the sweep
    /// grid's seed axis is applied.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ensemble.seed = seed;
        self
    }

    /// The same scenario re-scaled to `samples` ensemble runs over a
    /// `t_max` horizon (evaluation cadence clamped to stay meaningful) —
    /// smoke/bench scale for the full-size registry entries.
    pub fn with_scale(mut self, samples: usize, t_max: usize) -> Self {
        assert!(samples > 0 && t_max > 0, "with_scale: degenerate scale");
        self.ensemble.samples = samples;
        self.ensemble.t_max = t_max;
        self.eval_every = self.eval_every.clamp(1, t_max);
        self
    }

    /// The smoke-scale ("fast") variant: at most 100 samples over at most
    /// 40 steps. That is enough samples for every estimator to stay
    /// defined (the Gaussian baseline needs more runs than the joint
    /// dimension, 80 for the 40-particle scenarios) and a horizon short
    /// enough for seconds-scale runs. `sops-repro sweep --fast` and
    /// `sops-serve`'s `"fast": true` both apply it, so the two front ends
    /// key the same fast cell identically.
    pub fn with_fast_scale(self) -> Self {
        let samples = self.ensemble.samples.min(100);
        let t_max = self.ensemble.t_max.min(40);
        self.with_scale(samples, t_max)
    }

    /// The same scenario re-scaled to `n` particles: the model is rebuilt
    /// with a balanced type assignment over the same force law and
    /// cut-off, and the initial disc radius grows as `√(n/n_old)` so the
    /// initial *density* (and with it the neighbourhood structure the
    /// forces see) is preserved — how the gallery's 10⁵-particle tier is
    /// derived from the lab-scale builtins.
    pub fn with_particles(mut self, n: usize) -> Self {
        assert!(n > 0, "with_particles: need at least one particle");
        let old_n = self.ensemble.model.particles();
        let law = self.ensemble.model.law().clone();
        let cutoff = self.ensemble.model.cutoff();
        self.ensemble.model = Model::balanced(n, law, cutoff);
        self.ensemble.init_radius *= (n as f64 / old_n as f64).sqrt();
        self
    }
}

/// Integrator schedule shared by the built-in adhesion scenarios (the
/// examples' settings: gentle noise, two substeps per recorded step).
fn adhesion_integrator(dt: f64) -> IntegratorConfig {
    IntegratorConfig {
        dt,
        substeps: 2,
        noise_variance: 0.0025,
        max_step: 0.5,
    }
}

/// Differential-adhesion cell sorting (`examples/cell_sorting.rs`): two
/// tissue types whose same-type preferred distance (1.2) is smaller than
/// the cross-type one (3.0) un-mix purely through local interaction — the
/// paper's biological motivation, and a strongly organizing system.
pub fn cell_sorting() -> ScenarioSpec {
    let force_scale = PairMatrix::constant(2, 1.0);
    let preferred = PairMatrix::from_full(2, &[1.2, 3.0, 3.0, 1.2]);
    let law = ForceModel::Linear(LinearForce::new(force_scale, preferred));
    ScenarioSpec {
        name: "cell_sorting".into(),
        description: "two-type differential adhesion: tissues un-mix (strong organization)".into(),
        ensemble: EnsembleSpec {
            model: Model::balanced(40, law, 6.0),
            integrator: adhesion_integrator(0.05),
            init_radius: 3.0,
            t_max: 100,
            samples: 120,
            seed: 11,
            criterion: None,
        },
        reduce: ReduceConfig::default(),
        observers: ObserverMode::PerParticle,
        eval_every: 20,
    }
}

/// Ring formation in a single-type collective
/// (`examples/ring_formation.rs`, the Figs. 5 & 7 system): 20 identical
/// particles under the F1 law with unbounded cut-off settle into two
/// concentric regular polygons.
pub fn ring_formation() -> ScenarioSpec {
    let law = ForceModel::Linear(LinearForce::uniform(1.0, 2.0));
    ScenarioSpec {
        name: "ring_formation".into(),
        description: "single-type F1 collective settling into concentric rings".into(),
        ensemble: EnsembleSpec {
            model: Model::balanced(20, law, f64::INFINITY),
            integrator: adhesion_integrator(0.02),
            init_radius: 4.0,
            t_max: 250,
            samples: 150,
            seed: 5,
            criterion: None,
        },
        reduce: ReduceConfig::default(),
        observers: ObserverMode::PerParticle,
        eval_every: 50,
    }
}

/// Mixing/null control: the cell-sorting geometry with the interaction
/// switched off (`k = 0`) — pure diffusion. The ensemble stays an
/// unstructured cloud, so a calibrated measure must report (near-)zero
/// self-organization; this is the negative control of every sweep.
pub fn mixing_null() -> ScenarioSpec {
    let force_scale = PairMatrix::constant(2, 0.0);
    let preferred = PairMatrix::constant(2, 1.0);
    let law = ForceModel::Linear(LinearForce::new(force_scale, preferred));
    ScenarioSpec {
        name: "mixing_null".into(),
        description: "interaction-free diffusion: the stays-mixed negative control".into(),
        ensemble: EnsembleSpec {
            model: Model::balanced(40, law, 6.0),
            integrator: adhesion_integrator(0.05),
            init_radius: 3.0,
            t_max: 100,
            samples: 120,
            seed: 23,
            criterion: None,
        },
        reduce: ReduceConfig::default(),
        observers: ObserverMode::PerParticle,
        eval_every: 20,
    }
}

/// Cell sorting at collective scale: the [`cell_sorting`] physics with
/// 10⁵ particles (density-preserving disc via
/// [`ScenarioSpec::with_particles`]), a small sample axis and a sparse
/// evaluation schedule. At this size whole trajectories would hold
/// `8 × 101 × 10⁵` positions (~1.3 GB); the sweep streams the ensemble
/// and keeps only the three scheduled frames (~38 MB). The reduction
/// runs in [`ReduceMode::Centred`] (the Hungarian matching of the full
/// reduction is O(k³) per type) and observers are per-type means, the
/// regime where the per-particle correspondence is irrelevant.
pub fn cell_sorting_xl() -> ScenarioSpec {
    let mut sc = cell_sorting().with_particles(100_000).with_scale(8, 100);
    sc.name = "cell_sorting_xl".into();
    sc.description = "cell sorting at 10⁵ particles: the streaming-tier scale demonstrator".into();
    // Halve the cut-off: at preserved density the in-range neighbour
    // count scales with r_c², so the lab tier's r_c = 6 (which there
    // covers the whole 40-particle disc, ~40 neighbours) would mean ~160
    // neighbours per particle here. r_c = 3 restores the lab
    // coordination number and quarters the per-step pair work.
    let law = sc.ensemble.model.law().clone();
    sc.ensemble.model = Model::balanced(100_000, law, 3.0);
    sc.eval_every = 50;
    sc.reduce.mode = ReduceMode::Centred;
    sc.observers = ObserverMode::TypeMeans { k_per_type: 4 };
    sc
}

/// A name-keyed collection of scenarios; [`ScenarioRegistry::builtin`]
/// ships the paper's gallery and [`ScenarioRegistry::gallery`] adds the
/// large-scale tier (names are unique, in registration order).
#[derive(Debug, Clone, Default)]
pub struct ScenarioRegistry {
    scenarios: Vec<ScenarioSpec>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// The built-in gallery: [`cell_sorting`], [`ring_formation`],
    /// [`mixing_null`].
    pub fn builtin() -> Self {
        let mut reg = ScenarioRegistry::new();
        reg.register(cell_sorting());
        reg.register(ring_formation());
        reg.register(mixing_null());
        reg
    }

    /// The extended gallery: every [`ScenarioRegistry::builtin`] scenario
    /// plus the large-scale tier ([`cell_sorting_xl`]). Kept separate
    /// from `builtin` so default sweeps stay lab-sized; drivers opt into
    /// the big scenarios by name.
    pub fn gallery() -> Self {
        let mut reg = Self::builtin();
        reg.register(cell_sorting_xl());
        reg
    }

    /// Adds `spec`, replacing any scenario of the same name in place.
    pub(crate) fn register(&mut self, spec: ScenarioSpec) {
        assert!(!spec.name.is_empty(), "ScenarioRegistry: unnamed scenario");
        match self.scenarios.iter_mut().find(|s| s.name == spec.name) {
            Some(slot) => *slot = spec,
            None => self.scenarios.push(spec),
        }
    }

    /// The scenario registered under `name`.
    pub(crate) fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name.as_str()).collect()
    }

    /// All registered scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.scenarios.iter()
    }

    /// Clones the scenarios selected by `names`, in the given order;
    /// `Err` names the first unknown entry (with the known names, for CLI
    /// error messages).
    pub fn select(&self, names: &[&str]) -> Result<Vec<ScenarioSpec>, SweepError> {
        names
            .iter()
            .map(|&n| {
                self.get(n)
                    .cloned()
                    .ok_or_else(|| SweepError::UnknownScenario {
                        name: n.to_string(),
                        known: self.names().iter().map(|s| s.to_string()).collect(),
                    })
            })
            .collect()
    }
}

/// Where each (scenario, seed) ensemble's evaluated frames live.
///
/// Every ensemble is streamed ([`run_streaming_ensemble`]): each run is
/// stepped through the horizon and only the frames on the scenario's
/// evaluation schedule are kept (`m × |schedule| × n` positions), in
/// memory up to a residency budget and in an unlinked temp file past it.
/// Results are **bit-identical for every value** — storage only decides
/// where the frames live, never their values — so, like `threads`, this
/// field is excluded from the cell key ([`crate::checkpoint::cell_key`])
/// and a cached cell serves a sweep under any value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleStorage {
    /// Runs exactly as [`EnsembleStorage::default`]: evaluation never
    /// keeps whole trajectories.
    Retained,
    /// Streaming with an explicit residency budget. Peak memory is
    /// O(scheduled frames), not O(t_max).
    Streaming {
        /// Spill to disk once the retained frames exceed this many bytes.
        max_resident_bytes: usize,
    },
}

impl Default for EnsembleStorage {
    /// Streaming with the default residency budget
    /// ([`StreamingConfig::default`]).
    fn default() -> Self {
        EnsembleStorage::Streaming {
            max_resident_bytes: StreamingConfig::default().max_resident_bytes,
        }
    }
}

/// The cartesian sweep grid: scenarios × measure selections × master
/// seeds. An empty seed axis means "each scenario's own seed" (one
/// ensemble per scenario); otherwise every scenario is re-run under every
/// listed seed.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Physics axis.
    pub scenarios: Vec<ScenarioSpec>,
    /// Measure axis.
    pub measures: Vec<MeasureConfig>,
    /// Seed axis (empty = use each scenario's own seed).
    pub seeds: Vec<u64>,
    /// Worker threads for simulation and evaluation (0 = default).
    pub threads: usize,
    /// Residency budget of the streamed frames (result-invariant, like
    /// `threads`).
    pub storage: EnsembleStorage,
}

impl SweepPlan {
    /// A plan over the given grid with the scenarios' own seeds and
    /// default threads.
    pub fn new(scenarios: Vec<ScenarioSpec>, measures: Vec<MeasureConfig>) -> Self {
        SweepPlan {
            scenarios,
            measures,
            seeds: Vec::new(),
            threads: 0,
            storage: EnsembleStorage::default(),
        }
    }

    /// Validates the grid; called by [`SweepRunner::run`].
    ///
    /// Rejects empty axes, duplicate (scenario-name, seed) cells — a
    /// duplicate entry in [`SweepPlan::seeds`], or two scenarios sharing
    /// a name, would otherwise produce indistinguishable grid cells that
    /// [`SweepReport::get`] and [`SweepReport::grid_table`] silently
    /// resolve to the first match — and invalid ensemble/integrator
    /// specifications ([`EnsembleSpec::check`]), so a misconfigured
    /// scenario is a typed [`SweepError::InvalidPlan`] up front instead
    /// of a quarantined panic per ensemble. An unattended driver gets a
    /// diagnostic, not a backtrace.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.scenarios.is_empty() {
            return Err(SweepError::InvalidPlan("no scenarios".into()));
        }
        if self.measures.is_empty() {
            return Err(SweepError::InvalidPlan("no measures".into()));
        }
        for m in &self.measures {
            if let MeasureConfig::Strided { every: 0, .. } = m {
                return Err(SweepError::InvalidPlan(format!(
                    "measure '{}': stride must be >= 1",
                    m.label()
                )));
            }
        }
        let mut seen: HashSet<(&str, u64)> = HashSet::with_capacity(self.ensemble_count());
        for (s, seed) in self.ensembles() {
            if s.name.is_empty() {
                return Err(SweepError::InvalidPlan("unnamed scenario".into()));
            }
            if let Err(reason) = s.ensemble.check() {
                return Err(SweepError::InvalidPlan(format!(
                    "scenario '{}': {reason}",
                    s.name
                )));
            }
            if !seen.insert((s.name.as_str(), seed)) {
                return Err(SweepError::DuplicateCell {
                    scenario: s.name.clone(),
                    seed,
                });
            }
        }
        Ok(())
    }

    /// The plan's (scenario, seed) ensembles in grid order: every
    /// scenario under every seed of the seed axis, or under its own seed
    /// when the axis is empty.
    pub(crate) fn ensembles(&self) -> impl Iterator<Item = (&ScenarioSpec, u64)> {
        self.scenarios.iter().flat_map(move |s| {
            let own = self.seeds.is_empty().then_some(s.ensemble.seed);
            own.into_iter()
                .chain(self.seeds.iter().copied())
                .map(move |seed| (s, seed))
        })
    }

    /// Number of ensembles the plan simulates (scenario × seed pairs) —
    /// each is simulated exactly once regardless of the measure count.
    pub fn ensemble_count(&self) -> usize {
        self.scenarios.len() * self.seeds.len().max(1)
    }

    /// Number of grid cells (scenario × seed × measure).
    pub fn cell_count(&self) -> usize {
        self.ensemble_count() * self.measures.len()
    }
}

/// One evaluation worker's persistent state: every estimator family's
/// engine plus the shape-reduction scratch, reused across the time steps
/// (and, held in a [`SweepRunner`], the grid cells) the worker claims.
///
/// `stage` is the spill staging buffer of
/// [`EnsembleFrames::at_time_into`]. It keeps its capacity, so a
/// warmed-up worker's buffers do not grow; each step's cross-sample slice
/// vector borrows the ensemble and `stage`, so the step allocates it
/// afresh.
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalWorker {
    pub(crate) measure: MeasureWorkspace,
    pub(crate) reduce: ReduceWorkspace,
    pub(crate) stage: Vec<Vec2>,
}

/// Runs `f(worker, cross_sample_slice, time_index)` for every entry of
/// `times`, parallel over evaluation steps with persistent per-worker
/// scratch. Each step takes the worker's staging buffer, builds its
/// cross-sample slice vector (`samples` long) over it with
/// [`EnsembleFrames::at_time_into`], and puts the buffer back after `f`:
/// the persistent buffers do not grow once warm, and each step allocates
/// only its slice vector and `f`'s own outputs — for in-memory *and*
/// spilled frames alike.
pub(crate) fn eval_pass<T, F>(
    workers: &mut Vec<EvalWorker>,
    frames: EnsembleFrames<'_>,
    times: &[usize],
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&mut EvalWorker, &[&[Vec2]], usize) -> T + Sync,
{
    // No wider than the schedule: `parallel_map_with` never runs more
    // workers than steps, and a pooled runner would keep the surplus for
    // the rest of its life.
    let threads = sops_par::resolve_threads(threads).clamp(1, times.len().max(1));
    while workers.len() < threads {
        workers.push(EvalWorker::default());
    }
    sops_par::parallel_map_with(times.len(), &mut workers[..threads], |w, ti| {
        let mut stage = std::mem::take(&mut w.stage);
        let mut slice = Vec::with_capacity(frames.samples());
        frames.at_time_into(times[ti], &mut stage, &mut slice);
        let result = f(w, &slice, ti);
        drop(slice);
        w.stage = stage;
        result
    })
}

/// Attempts per panic-isolated unit before it is quarantined as
/// [`CellStatus::Failed`].
///
/// Deterministic panics (an estimator parameterization that is invalid
/// for the ensemble size, say) fail every attempt; the retry exists for
/// environmental failures (resource exhaustion under memory pressure)
/// where a second attempt can succeed.
const MAX_ATTEMPTS: u32 = 2;

/// Count of live quarantine scopes: while positive, the process panic
/// hook stays silent, so quarantined cell panics don't spray backtraces
/// over sweep output. The counter (not a bool) makes nesting and
/// concurrent sweeps safe.
static QUIET_PANIC_SCOPES: AtomicUsize = AtomicUsize::new(0);
static QUIET_PANIC_HOOK: Once = Once::new();

/// Runs `f` with the process panic hook silenced (installed once,
/// chained to the previous hook outside quarantine scopes).
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    QUIET_PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_PANIC_SCOPES.load(Ordering::SeqCst) == 0 {
                prev(info);
            }
        }));
    });
    struct Scope;
    impl Drop for Scope {
        fn drop(&mut self) {
            QUIET_PANIC_SCOPES.fetch_sub(1, Ordering::SeqCst);
        }
    }
    QUIET_PANIC_SCOPES.fetch_add(1, Ordering::SeqCst);
    let _scope = Scope;
    f()
}

/// The panic payload as a one-line reason string.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes `f` under [`catch_unwind`] with up to [`MAX_ATTEMPTS`]
/// attempts; `Err` carries the last panic's reason annotated with the
/// attempt count. The workspaces `f` touches cache only buffer
/// *capacity*, never results (the engine's no-history contract), so
/// re-invoking after a caught panic is sound.
fn run_isolated<T>(mut f: impl FnMut() -> T) -> Result<T, String> {
    let mut reason = String::new();
    for _ in 0..MAX_ATTEMPTS {
        match with_quiet_panics(|| catch_unwind(AssertUnwindSafe(&mut f))) {
            Ok(value) => return Ok(value),
            Err(payload) => reason = panic_reason(payload.as_ref()),
        }
    }
    Err(format!(
        "panicked on all {MAX_ATTEMPTS} attempt(s): {reason}"
    ))
}

/// The one-pass sweep engine: persistent evaluation workers fanning any
/// number of measure selections over each simulated ensemble.
///
/// Holding a runner across [`SweepRunner::run`] calls reuses every
/// worker's estimator, reduction and staging scratch — a warmed-up runner
/// driving a bounded workload never grows these persistent buffers
/// (enforced by `tests/sweep_determinism.rs`); each evaluation step
/// allocates only its cross-sample slice vector and its outputs.
///
/// Every (scenario, seed) ensemble executes under panic isolation: a
/// panicking cell is retried once, then quarantined as
/// [`CellStatus::Failed`] — the sweep always completes and every healthy
/// cell keeps its bit-identical value.
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    workers: Vec<EvalWorker>,
}

impl SweepRunner {
    /// A runner with cold scratch; buffers grow to the workload on first
    /// use.
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// Executes the full grid: simulates each (scenario, seed) ensemble
    /// exactly once and evaluates every measure on it in one pass, under
    /// per-cell panic isolation. `Err` only for an invalid *plan*; cell
    /// failures are quarantined into the report.
    pub fn run(&mut self, plan: &SweepPlan) -> Result<SweepReport, SweepError> {
        self.run_plan(plan, None)
    }

    /// [`SweepRunner::run`] consulting a content-addressed cell cache:
    /// before simulating a (scenario, seed) ensemble, every plan
    /// measure's cell key ([`crate::checkpoint::cell_key`]) is looked up
    /// in `cache`; only the missing measures are simulated and evaluated
    /// (sharing one simulation pass), and fresh healthy cells are stored
    /// back. Served cells carry [`CellProvenance::Cached`]. Results are
    /// bit-identical to an uncached [`SweepRunner::run`] by construction:
    /// the cache stores `wire::float_exact` series keyed by
    /// everything that determines them.
    ///
    /// This is also how a sweep resumes: each ensemble's healthy cells are
    /// stored as soon as it completes, so a sweep killed at any point and
    /// re-run over the same cache recomputes only what it does not find,
    /// and its report is bit-identical to an uninterrupted run for any
    /// worker count (`tests/sweep_resume.rs`). Resume semantics follow
    /// from the cache being keyed per cell:
    ///
    /// * quarantined cells are never stored, so a re-run retries them;
    /// * a changed plan reuses every cell whose key did not change and
    ///   computes only the rest;
    /// * resume is per cell, not per ensemble: a kill between two stores
    ///   of one ensemble leaves a partial ensemble, and the re-run
    ///   computes only its missing measures (bit-identical by the
    ///   engine's preparation-sharing contract).
    ///
    /// `Err` for an invalid plan or one with no stable wire form
    /// ([`SweepError::Unserializable`]), before any ensemble is
    /// simulated; cache I/O trouble never fails the sweep (corrupt
    /// entries are evicted and recomputed, store failures are counted in
    /// [`CellCache::stats`] and skipped).
    pub fn run_with_cache(
        &mut self,
        plan: &SweepPlan,
        cache: &CellCache,
    ) -> Result<SweepReport, SweepError> {
        self.run_plan(plan, Some(cache))
    }

    /// The one plan loop behind [`SweepRunner::run`] and
    /// [`SweepRunner::run_with_cache`]. Per ensemble it serves every
    /// cached measure, runs the missing ones (all of them without a
    /// cache) in one [`SweepRunner::run_cells`] pass, and stores the
    /// healthy fresh cells. A subset pass is bit-identical to the full
    /// one by the engine's preparation-sharing contract (each step's
    /// prepared state is measure-independent). With a cache, every cell
    /// key is derived before the first ensemble runs, so a plan with no
    /// wire form fails before it simulates anything; without one, no key
    /// is derived, so a plan with a [`ForceModel::Custom`] law still runs.
    fn run_plan(
        &mut self,
        plan: &SweepPlan,
        cache: Option<&CellCache>,
    ) -> Result<SweepReport, SweepError> {
        plan.validate()?;
        let labels = measure_labels(&plan.measures);
        let scenarios: Vec<ScenarioSpec> = plan
            .ensembles()
            .map(|(base, seed)| base.clone().with_seed(seed))
            .collect();
        let keys: Vec<Vec<u64>> = match cache {
            Some(_) => scenarios
                .iter()
                .map(|scenario| {
                    let keys = ScenarioKeys::new(scenario)?;
                    Ok(plan.measures.iter().map(|m| keys.cell(m)).collect())
                })
                .collect::<Result<_, SweepError>>()?,
            None => Vec::new(),
        };
        let mut cells = Vec::with_capacity(plan.cell_count());
        for (ei, scenario) in scenarios.iter().enumerate() {
            let cached = |mi: usize| Some((cache?, keys[ei][mi]));
            let hits: Vec<Option<PipelineResult>> = (0..plan.measures.len())
                .map(|mi| cached(mi).and_then(|(cache, key)| cache.lookup(key)))
                .collect();
            let missing: Vec<usize> = (0..hits.len()).filter(|&mi| hits[mi].is_none()).collect();
            let mut fresh = if missing.is_empty() {
                Vec::new()
            } else {
                let measures: Vec<MeasureConfig> =
                    missing.iter().map(|&mi| plan.measures[mi]).collect();
                let fresh_labels: Vec<String> =
                    missing.iter().map(|&mi| labels[mi].clone()).collect();
                self.run_cells(
                    scenario,
                    &measures,
                    &fresh_labels,
                    plan.storage,
                    plan.threads,
                )
            }
            .into_iter();
            for (mi, hit) in hits.into_iter().enumerate() {
                cells.push(match hit {
                    Some(result) => SweepCell {
                        scenario: scenario.name.clone(),
                        measure: plan.measures[mi],
                        measure_label: labels[mi].clone(),
                        seed: scenario.ensemble.seed,
                        status: CellStatus::Ok,
                        provenance: CellProvenance::Cached,
                        result,
                    },
                    None => {
                        let cell = fresh.next().expect("one fresh cell per missing measure");
                        if let Some((cache, key)) = cached(mi).filter(|_| cell.status.is_ok()) {
                            cache.store(key, &cell.result);
                        }
                        cell
                    }
                });
            }
        }
        Ok(SweepReport { cells })
    }

    /// Simulates `scenario`'s ensemble **once** under panic isolation,
    /// keeping only the frames on its evaluation schedule (`storage` sets
    /// their residency budget), and evaluates every selection in
    /// `measures` on it in one pass, producing one [`SweepCell`] per
    /// measure (provenance [`CellProvenance::Computed`], labels from
    /// `labels`, which must be parallel to `measures`). This is the
    /// plan-free ensemble entry point [`crate::broker::SweepBroker`]
    /// batches concurrent requests through; [`SweepRunner::run`] and
    /// [`SweepRunner::run_with_cache`] route every ensemble of a plan
    /// through it too, so the paths cannot drift.
    ///
    /// Failure containment is hierarchical: a simulation failure
    /// quarantines the whole ensemble; a one-pass evaluation failure
    /// triggers a per-measure fallback so only the poisoned measure's
    /// cells fail (per-measure values are bit-identical to the one-pass
    /// values by the engine's preparation-sharing contract).
    pub fn run_cells(
        &mut self,
        scenario: &ScenarioSpec,
        measures: &[MeasureConfig],
        labels: &[String],
        storage: EnsembleStorage,
        threads: usize,
    ) -> Vec<SweepCell> {
        assert_eq!(
            measures.len(),
            labels.len(),
            "run_cells: one label per measure"
        );
        let seed = scenario.ensemble.seed;
        let mk_cell = |mi: usize, result: PipelineResult, status: CellStatus| SweepCell {
            scenario: scenario.name.clone(),
            measure: measures[mi],
            measure_label: labels[mi].clone(),
            seed,
            status,
            provenance: CellProvenance::Computed,
            result,
        };
        let all_failed = |reason: &str| -> Vec<SweepCell> {
            (0..measures.len())
                .map(|mi| {
                    mk_cell(
                        mi,
                        PipelineResult::empty(),
                        CellStatus::Failed {
                            reason: reason.to_string(),
                        },
                    )
                })
                .collect()
        };
        let cfg = match storage {
            EnsembleStorage::Streaming { max_resident_bytes } => {
                StreamingConfig { max_resident_bytes }
            }
            EnsembleStorage::Retained => StreamingConfig::default(),
        };
        let times = scenario.eval_times();
        let streamed = match run_isolated(|| {
            run_streaming_ensemble(&scenario.ensemble, &times, threads, &cfg)
        }) {
            Ok(streamed) => streamed,
            Err(reason) => return all_failed(&format!("simulation {reason}")),
        };
        let frames = EnsembleFrames::Streaming(&streamed);
        match run_isolated(|| self.evaluate_frames(frames, scenario, measures, threads)) {
            Ok(results) => results
                .into_iter()
                .enumerate()
                .map(|(mi, result)| mk_cell(mi, result, CellStatus::Ok))
                .collect(),
            Err(_) => {
                // Quarantine pass: isolate the poisoned measure(s). The
                // workers may hold mid-panic scratch; drop them so the
                // fallback starts from clean (capacity-only) state.
                self.workers.clear();
                (0..measures.len())
                    .map(|mi| {
                        let one = std::slice::from_ref(&measures[mi]);
                        match run_isolated(|| self.evaluate_frames(frames, scenario, one, threads))
                        {
                            Ok(mut results) => {
                                let result = results.pop().expect("one measure in, one result out");
                                mk_cell(mi, result, CellStatus::Ok)
                            }
                            Err(reason) => {
                                self.workers.clear();
                                mk_cell(mi, PipelineResult::empty(), CellStatus::Failed { reason })
                            }
                        }
                    })
                    .collect()
            }
        }
    }

    /// Evaluates `measures` over an already-streamed ensemble in one
    /// pass: per evaluated time step the cross-sample view, the shape
    /// reduction and the observer matrix are built **once** and every
    /// estimator runs on that shared prepared state. The frames must
    /// cover the scenario's evaluation schedule
    /// ([`ScenarioSpec::eval_times`]; [`run_streaming_ensemble`] with
    /// those times, under any residency budget). Returns one
    /// [`PipelineResult`] per measure, each bit-identical to a
    /// [`SweepRunner::run_cells`] cell of the same scenario and measure,
    /// for any `threads`. This is how a caller that streams an ensemble
    /// once evaluates it more than once.
    pub fn evaluate_frames(
        &mut self,
        frames: EnsembleFrames<'_>,
        scenario: &ScenarioSpec,
        measures: &[MeasureConfig],
        threads: usize,
    ) -> Vec<PipelineResult> {
        let types = scenario.ensemble.model.types().to_vec();
        let type_count = scenario.ensemble.model.type_count();
        let times = scenario.eval_times();
        // Outer parallelism over evaluation steps; the reduction inside a
        // step runs sequential to avoid oversubscription (the estimators
        // always run on their caller's thread).
        let inner_reduce = ReduceConfig {
            threads: 1,
            ..scenario.reduce
        };
        let observers_mode = scenario.observers;
        let seed = scenario.ensemble.seed;
        let per_step: Vec<(Vec<f64>, f64)> = eval_pass(
            &mut self.workers,
            frames,
            &times,
            threads,
            |w, slice, _ti| {
                let reduced =
                    reduce_configurations_with(&mut w.reduce, slice, &types, &inner_reduce);
                let mean_cost = if reduced.icp_costs.is_empty() {
                    0.0
                } else {
                    reduced.icp_costs.iter().sum::<f64>() / reduced.icp_costs.len() as f64
                };
                let observers = build_observers(&reduced, &types, type_count, observers_mode, seed);
                let view = observers.view();
                let mis: Vec<f64> = measures
                    .iter()
                    .map(|m| {
                        let estimator = w.measure.estimator_mut(m);
                        estimator.prepare(&view);
                        estimator.estimate()
                    })
                    .collect();
                (mis, mean_cost)
            },
        );
        let mean_icp_cost: Vec<f64> = per_step.iter().map(|&(_, c)| c).collect();
        let equilibrated_fraction = frames.equilibrated_fraction();
        (0..measures.len())
            .map(|mi| PipelineResult {
                mi: MiSeries {
                    times: times.clone(),
                    values: per_step.iter().map(|(v, _)| v[mi]).collect(),
                },
                mean_icp_cost: mean_icp_cost.clone(),
                equilibrated_fraction,
            })
            .collect()
    }

    /// Capacities of every persistent buffer of the evaluation workers —
    /// constant for a warmed-up runner driving a bounded grid (the
    /// capacity-stability contract; each step's slice vector and the
    /// per-cell *outputs* — the simulated ensembles and the report
    /// itself — are work products and excluded, like every workspace in
    /// this repo).
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![self.workers.len()];
        for w in &self.workers {
            sig.extend(w.measure.capacity_signature());
            sig.extend(w.reduce.capacity_signature());
            sig.push(w.stage.capacity());
        }
        sig
    }
}

/// Convenience: run `plan` on a throwaway [`SweepRunner`].
pub fn run_sweep(plan: &SweepPlan) -> Result<SweepReport, SweepError> {
    SweepRunner::new().run(plan)
}

/// Per-plan display labels for the measure axis: the family label
/// ([`MeasureConfig::label`]), with repeats of the same family — e.g. two
/// KSG selections with different `k` — disambiguated as `ksg`, `ksg#2`,
/// `ksg#3`, … so no two cells of one ensemble share a label.
pub fn measure_labels(measures: &[MeasureConfig]) -> Vec<String> {
    measures
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let base = m.label();
            let prior = measures[..i].iter().filter(|p| p.label() == base).count();
            if prior == 0 {
                base.to_string()
            } else {
                format!("{base}#{}", prior + 1)
            }
        })
        .collect()
}

/// Outcome of one grid cell: healthy, or quarantined after failing
/// every attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell completed; its result is bit-identical to the same cell
    /// run alone, for any worker count or storage policy.
    Ok,
    /// The cell panicked on every attempt and was quarantined; its
    /// result is empty (no series, zero equilibrated fraction).
    Failed {
        /// One-line panic reason, annotated with the attempt count.
        reason: String,
    },
}

impl CellStatus {
    /// `true` for a healthy cell.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellStatus::Ok)
    }
}

/// How a cell's result entered the report: computed fresh this run,
/// served from the content-addressed cell cache, or coalesced onto
/// another in-flight request's computation.
///
/// Provenance is run metadata, not a result. The canonical `sweep.json`
/// ([`crate::report::write_sweep_json`]) deliberately omits it so a
/// cached, coalesced or resumed run stays byte-identical to an uncached
/// one; the provenance-carrying form ([`crate::report::sweep_json`] with
/// `include_provenance = true`) is what `sops-serve` returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellProvenance {
    /// Simulated and evaluated in this run.
    #[default]
    Computed,
    /// Served from the on-disk cell cache ([`crate::cache::CellCache`]).
    Cached,
    /// Waited on another in-flight request's identical cell
    /// ([`crate::broker::SweepBroker`]) — never recomputed.
    Coalesced,
}

impl CellProvenance {
    /// Lowercase wire label: `"computed"`, `"cached"` or `"coalesced"`.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            CellProvenance::Computed => "computed",
            CellProvenance::Cached => "cached",
            CellProvenance::Coalesced => "coalesced",
        }
    }

    /// `true` when the result was reused (cache or coalescing) rather
    /// than computed in this run.
    pub(crate) fn is_reused(&self) -> bool {
        !matches!(self, CellProvenance::Computed)
    }
}

/// One grid cell: a scenario × seed × measure combination and its full
/// per-time-step result.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Scenario name.
    pub scenario: String,
    /// Measure selection evaluated on the cell.
    pub measure: MeasureConfig,
    /// Plan-unique display label of the measure (see [`measure_labels`]):
    /// the family label, suffixed `#2`, `#3`, … when the plan selects the
    /// same family more than once.
    pub measure_label: String,
    /// Master seed the ensemble was simulated under.
    pub seed: u64,
    /// Healthy, or quarantined with the panic reason.
    pub status: CellStatus,
    /// How the result entered this report (computed / cached /
    /// coalesced). Metadata only — never part of the canonical
    /// `sweep.json` bytes or a cache entry.
    pub provenance: CellProvenance,
    /// The measured series — bit-identical to the same cell run alone
    /// (empty if the cell failed).
    pub result: PipelineResult,
}

/// One row of the flattened scenario × measure × time table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepRow<'a> {
    /// Scenario name.
    pub scenario: &'a str,
    /// Plan-unique measure label (see [`measure_labels`]).
    pub measure: &'a str,
    /// Master seed.
    pub seed: u64,
    /// Evaluated time step.
    pub time: usize,
    /// Multi-information estimate (bits).
    pub mi: f64,
    /// Mean ICP alignment cost at the step.
    pub mean_icp_cost: f64,
}

/// The structured output of a sweep: every grid cell with its series,
/// flattenable to a scenario × measure × time table and renderable as an
/// ASCII ΔI grid.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Grid cells in plan order (scenario-major, then seed, then
    /// measure).
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// The first cell matching scenario name and measure label (and seed,
    /// if given). Labels are plan-unique (see [`measure_labels`]), so
    /// every cell of a single-seed plan is addressable.
    pub fn get(&self, scenario: &str, measure: &str, seed: Option<u64>) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.scenario == scenario && c.measure_label == measure && seed.is_none_or(|s| c.seed == s)
        })
    }

    /// The quarantined cells, in plan order (empty for a healthy sweep).
    pub fn failed_cells(&self) -> Vec<&SweepCell> {
        self.cells.iter().filter(|c| !c.status.is_ok()).collect()
    }

    /// `true` if any cell was quarantined.
    pub fn has_failures(&self) -> bool {
        self.cells.iter().any(|c| !c.status.is_ok())
    }

    /// Flattens every healthy cell into scenario × measure × time rows
    /// (the CSV layout of [`crate::report::write_sweep_csv`]); failed
    /// cells have no series and are skipped.
    pub(crate) fn rows(&self) -> Vec<SweepRow<'_>> {
        let mut out = Vec::new();
        for cell in self.cells.iter().filter(|c| c.status.is_ok()) {
            for (&time, (&mi, &cost)) in cell
                .result
                .mi
                .times
                .iter()
                .zip(cell.result.mi.values.iter().zip(&cell.result.mean_icp_cost))
            {
                out.push(SweepRow {
                    scenario: &cell.scenario,
                    measure: &cell.measure_label,
                    seed: cell.seed,
                    time,
                    mi,
                    mean_icp_cost: cost,
                });
            }
        }
        out
    }

    /// Renders the ΔI summary grid: one row per (scenario, seed), one
    /// column per measure, each cell the series increase
    /// `I(t_last) − I(t_0)` in bits.
    pub fn grid_table(&self) -> String {
        let mut rows: Vec<(&str, u64)> = Vec::new();
        let mut cols: Vec<&str> = Vec::new();
        for cell in &self.cells {
            let row = (cell.scenario.as_str(), cell.seed);
            if !rows.contains(&row) {
                rows.push(row);
            }
            if !cols.contains(&cell.measure_label.as_str()) {
                cols.push(&cell.measure_label);
            }
        }
        let multi_seed = rows
            .iter()
            .any(|&(name, seed)| rows.iter().any(|&(n2, s2)| n2 == name && s2 != seed));
        let label = |name: &str, seed: u64| {
            if multi_seed {
                format!("{name}#{seed}")
            } else {
                name.to_string()
            }
        };
        let w = rows
            .iter()
            .map(|&(n, s)| label(n, s).len())
            .chain(["scenario".len()])
            .max()
            .unwrap_or(8);
        let mut out = String::from("ΔI (bits) — scenario × measure\n");
        let _ = write!(out, "  {:<w$}", "scenario");
        for c in &cols {
            let cw = c.len().max(9);
            let _ = write!(out, " {c:>cw$}");
        }
        out.push('\n');
        for &(name, seed) in &rows {
            let _ = write!(out, "  {:<w$}", label(name, seed));
            for c in &cols {
                let cw = c.len().max(9);
                match self.get(name, c, Some(seed)) {
                    Some(cell) if cell.status.is_ok() => {
                        let _ = write!(out, " {:>cw$.3}", cell.result.mi.increase());
                    }
                    Some(_) => {
                        let _ = write!(out, " {:>cw$}", "failed");
                    }
                    None => {
                        let _ = write!(out, " {:>cw$}", "-");
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
    use sops_info::KsgConfig;

    /// Tiny organizing scenario for fast tests.
    fn small_scenario(name: &str, seed: u64) -> ScenarioSpec {
        let k = PairMatrix::constant(2, 1.0);
        let mut r = PairMatrix::constant(2, 1.0);
        r.set(0, 1, 2.0);
        ScenarioSpec {
            name: name.into(),
            description: "test".into(),
            ensemble: EnsembleSpec {
                model: Model::balanced(
                    8,
                    ForceModel::Linear(LinearForce::new(k, r)),
                    f64::INFINITY,
                ),
                integrator: IntegratorConfig::default(),
                init_radius: 2.0,
                t_max: 20,
                samples: 40,
                seed,
                criterion: None,
            },
            reduce: ReduceConfig::default(),
            observers: ObserverMode::PerParticle,
            eval_every: 10,
        }
    }

    #[test]
    fn registry_round_trip_and_replacement() {
        let mut reg = ScenarioRegistry::builtin();
        assert_eq!(
            reg.names(),
            vec!["cell_sorting", "ring_formation", "mixing_null"]
        );
        assert_eq!(reg.names().len(), 3);
        assert!(reg.get("cell_sorting").is_some());
        assert!(reg.get("nope").is_none());
        // Replacement keeps position and count.
        let replacement = small_scenario("ring_formation", 1);
        reg.register(replacement);
        assert_eq!(reg.names().len(), 3);
        assert_eq!(reg.names()[1], "ring_formation");
        assert_eq!(reg.get("ring_formation").unwrap().ensemble.seed, 1);
        // select() preserves request order and reports unknowns.
        let picked = reg.select(&["mixing_null", "cell_sorting"]).unwrap();
        assert_eq!(picked[0].name, "mixing_null");
        let err = reg.select(&["bogus"]).unwrap_err();
        assert!(matches!(err, SweepError::UnknownScenario { .. }));
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn eval_schedule_covers_endpoints() {
        assert_eq!(eval_schedule(30, 15), vec![0, 15, 30]);
        assert_eq!(eval_schedule(31, 15), vec![0, 15, 30, 31]);
        // Degenerate inputs clamp instead of panicking or looping:
        // `eval_every == 0` evaluates every step, `t_max == 0` yields the
        // single step 0.
        assert_eq!(eval_schedule(5, 0), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(eval_schedule(0, 10), vec![0]);
        assert_eq!(eval_schedule(0, 0), vec![0]);
    }

    #[test]
    fn builtin_scenarios_are_well_formed() {
        for sc in ScenarioRegistry::builtin().iter() {
            sc.ensemble.check().unwrap();
            let times = sc.eval_times();
            assert_eq!(*times.first().unwrap(), 0, "{}", sc.name);
            assert_eq!(*times.last().unwrap(), sc.ensemble.t_max, "{}", sc.name);
            // Scaled-down variants stay valid (the bench/CLI fast path).
            let small = sc.clone().with_scale(10, 8);
            small.ensemble.check().unwrap();
            assert_eq!(*small.eval_times().last().unwrap(), 8);
        }
    }

    #[test]
    fn gallery_extends_builtin_with_the_xl_tier() {
        let gallery = ScenarioRegistry::gallery();
        assert_eq!(
            gallery.names(),
            vec![
                "cell_sorting",
                "ring_formation",
                "mixing_null",
                "cell_sorting_xl"
            ]
        );
        let xl = gallery.get("cell_sorting_xl").unwrap();
        xl.ensemble.check().expect("xl spec is well-formed");
        assert_eq!(xl.ensemble.model.particles(), 100_000);
        assert_eq!(xl.reduce.mode, ReduceMode::Centred);
        assert!(matches!(xl.observers, ObserverMode::TypeMeans { .. }));
        // Density-preserving disc: radius grew as √(n / n_old).
        let base = cell_sorting();
        let expected = base.ensemble.init_radius * (100_000f64 / 40.0).sqrt();
        assert!((xl.ensemble.init_radius - expected).abs() < 1e-9);
        // Sparse schedule: the streaming layer retains only these frames.
        assert_eq!(xl.eval_times(), vec![0, 50, 100]);
    }

    #[test]
    fn with_particles_preserves_density_and_law() {
        let sc = cell_sorting().with_particles(160);
        assert_eq!(sc.ensemble.model.particles(), 160);
        // Same force law physics, same cut-off.
        assert_eq!(
            sc.ensemble.model.cutoff(),
            cell_sorting().ensemble.model.cutoff()
        );
        assert_eq!(sc.ensemble.model.type_count(), 2);
        // 4× the particles → 2× the radius: density constant.
        let expected = cell_sorting().ensemble.init_radius * 2.0;
        assert!((sc.ensemble.init_radius - expected).abs() < 1e-12);
        // Balanced type split survives the rebuild.
        let hist = sc.ensemble.model.type_histogram();
        assert_eq!(hist, vec![80, 80]);
    }

    #[test]
    fn invalid_ensemble_spec_is_an_invalid_plan() {
        let mut bad = small_scenario("a", 1);
        bad.ensemble.integrator.dt = 0.0;
        let err = SweepPlan::new(vec![bad], vec![MeasureConfig::Gaussian])
            .validate()
            .unwrap_err();
        assert!(matches!(&err, SweepError::InvalidPlan(r)
            if r.contains('a') && r.contains("dt must be positive")));
    }

    #[test]
    fn infinite_noise_variance_is_an_invalid_plan() {
        let mut bad = small_scenario("a", 1);
        bad.ensemble.integrator.noise_variance = f64::INFINITY;
        let err = SweepPlan::new(vec![bad], vec![MeasureConfig::Gaussian])
            .validate()
            .unwrap_err();
        assert!(matches!(&err, SweepError::InvalidPlan(r)
            if r.contains("scenario 'a'") && r.contains("noise variance must be finite")));
        // An infinite drift cap means "never clamp" and stays legal.
        let mut unclamped = small_scenario("a", 1);
        unclamped.ensemble.integrator.max_step = f64::INFINITY;
        let plan = SweepPlan::new(vec![unclamped], vec![MeasureConfig::Gaussian]);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn infinite_init_radius_is_an_invalid_plan() {
        let mut bad = small_scenario("a", 1);
        bad.ensemble.init_radius = f64::INFINITY;
        let err = SweepPlan::new(vec![bad], vec![MeasureConfig::Gaussian])
            .validate()
            .unwrap_err();
        assert!(matches!(&err, SweepError::InvalidPlan(r)
            if r.contains("scenario 'a'") && r.contains("init radius")));
    }

    #[test]
    fn plan_counts_and_validation() {
        let plan = SweepPlan::new(
            vec![small_scenario("a", 1), small_scenario("b", 2)],
            vec![MeasureConfig::default(), MeasureConfig::Gaussian],
        );
        assert_eq!(plan.ensemble_count(), 2);
        assert_eq!(plan.cell_count(), 4);
        let mut seeded = plan.clone();
        seeded.seeds = vec![7, 8, 9];
        assert_eq!(seeded.ensemble_count(), 6);
        assert_eq!(seeded.cell_count(), 12);
    }

    #[test]
    fn empty_measure_axis_rejected() {
        let err = run_sweep(&SweepPlan::new(vec![small_scenario("a", 1)], vec![])).unwrap_err();
        assert!(matches!(err, SweepError::InvalidPlan(_)));
        assert!(err.to_string().contains("no measures"));
    }

    #[test]
    fn duplicate_seeds_rejected() {
        let mut plan = SweepPlan::new(vec![small_scenario("a", 1)], vec![MeasureConfig::Gaussian]);
        plan.seeds = vec![7, 8, 7];
        let err = plan.validate().unwrap_err();
        assert!(matches!(
            &err,
            SweepError::DuplicateCell { scenario, seed: 7 } if scenario == "a"
        ));
        assert!(err.to_string().contains("duplicate grid cell a#7"));
    }

    #[test]
    fn large_plan_validates_in_linear_time() {
        // 2 × 10⁵ ensembles: a quadratic duplicate scan takes tens of
        // seconds here, the hash set milliseconds.
        let mut plan = SweepPlan::new(
            vec![small_scenario("a", 1), small_scenario("b", 2)],
            vec![MeasureConfig::Gaussian],
        );
        plan.seeds = (0..100_000).collect();
        assert_eq!(plan.ensemble_count(), 200_000);
        let start = std::time::Instant::now();
        assert!(plan.validate().is_ok());
        plan.seeds.push(99_999);
        assert!(matches!(
            plan.validate().unwrap_err(),
            SweepError::DuplicateCell { scenario, seed: 99_999 } if scenario == "a"
        ));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 5.0, "validate took {elapsed:?}");
    }

    #[test]
    fn duplicate_scenario_names_rejected() {
        let mut plan = SweepPlan::new(
            // Same name twice: under a shared seed axis every cell
            // coordinate collides.
            vec![small_scenario("a", 1), small_scenario("a", 2)],
            vec![MeasureConfig::Gaussian],
        );
        plan.seeds = vec![3];
        let err = plan.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate grid cell a#3"));
    }

    #[test]
    fn same_name_distinct_own_seeds_allowed() {
        // Without a seed axis, same-named scenarios with different own
        // seeds occupy distinct (name, seed) cells — addressable via
        // `get(..., Some(seed))` — so they are legal.
        let plan = SweepPlan::new(
            vec![small_scenario("a", 1), small_scenario("a", 2)],
            vec![MeasureConfig::Gaussian],
        );
        plan.validate().expect("distinct own seeds are legal");
    }

    #[test]
    fn sweep_cells_match_standalone_pipelines() {
        // The acceptance contract in miniature: every grid cell must be
        // bit-identical to the same cell run alone, one measure on a fresh
        // runner.
        let plan = SweepPlan {
            scenarios: vec![small_scenario("a", 9), small_scenario("b", 10)],
            measures: vec![
                MeasureConfig::Ksg(KsgConfig {
                    k: 3,
                    ..KsgConfig::default()
                }),
                MeasureConfig::Gaussian,
            ],
            seeds: vec![],
            threads: 2,
            storage: EnsembleStorage::default(),
        };
        let report = run_sweep(&plan).expect("valid plan");
        assert_eq!(report.cells.len(), 4);
        assert!(!report.has_failures());
        for cell in &report.cells {
            assert!(cell.status.is_ok());
            let sc = plan
                .scenarios
                .iter()
                .find(|s| s.name == cell.scenario)
                .unwrap();
            let reference = SweepRunner::new()
                .run_cells(
                    sc,
                    &[cell.measure],
                    std::slice::from_ref(&cell.measure_label),
                    EnsembleStorage::default(),
                    2,
                )
                .pop()
                .unwrap();
            assert!(reference.status.is_ok(), "{:?}", reference.status);
            let standalone = reference.result;
            assert_eq!(standalone.mi.times, cell.result.mi.times);
            for (a, b) in standalone.mi.values.iter().zip(&cell.result.mi.values) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}/{}",
                    cell.scenario,
                    cell.measure.label()
                );
            }
            for (a, b) in standalone
                .mean_icp_cost
                .iter()
                .zip(&cell.result.mean_icp_cost)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn seed_axis_expands_the_grid() {
        let plan = SweepPlan {
            scenarios: vec![small_scenario("a", 1)],
            measures: vec![MeasureConfig::Gaussian],
            seeds: vec![3, 4],
            threads: 1,
            storage: EnsembleStorage::default(),
        };
        let report = run_sweep(&plan).expect("valid plan");
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].seed, 3);
        assert_eq!(report.cells[1].seed, 4);
        // Different seeds, different ensembles, different series.
        assert_ne!(
            report.cells[0].result.mi.values, report.cells[1].result.mi.values,
            "seed axis must change the ensemble"
        );
        // Grid labels disambiguate by seed.
        let grid = report.grid_table();
        assert!(grid.contains("a#3") && grid.contains("a#4"), "{grid}");
    }

    #[test]
    fn report_rows_flatten_every_cell() {
        let plan = SweepPlan {
            scenarios: vec![small_scenario("a", 5)],
            measures: vec![MeasureConfig::Gaussian, MeasureConfig::default()],
            seeds: vec![],
            threads: 1,
            storage: EnsembleStorage::default(),
        };
        let report = run_sweep(&plan).expect("valid plan");
        let rows = report.rows();
        let times = plan.scenarios[0].eval_times().len();
        assert_eq!(rows.len(), 2 * times);
        assert_eq!(rows[0].scenario, "a");
        assert_eq!(rows[0].measure, "gaussian");
        assert_eq!(rows[0].time, 0);
        assert_eq!(rows[times].measure, "ksg");
        let grid = report.grid_table();
        assert!(grid.contains("gaussian") && grid.contains("ksg"));
        assert!(!grid.contains('#'), "single-seed grid omits seed labels");
    }

    #[test]
    fn duplicate_measure_families_stay_addressable() {
        // Two KSG selections with different k (the bench's own k-ablation
        // shape) must land in distinct, addressable cells — not collapse
        // onto one label.
        assert_eq!(
            measure_labels(&[
                MeasureConfig::Ksg(KsgConfig {
                    k: 3,
                    ..KsgConfig::default()
                }),
                MeasureConfig::Gaussian,
                MeasureConfig::Ksg(KsgConfig {
                    k: 5,
                    ..KsgConfig::default()
                }),
            ]),
            vec!["ksg", "gaussian", "ksg#2"]
        );
        let plan = SweepPlan {
            scenarios: vec![small_scenario("a", 3)],
            measures: vec![
                MeasureConfig::Ksg(KsgConfig {
                    k: 3,
                    ..KsgConfig::default()
                }),
                MeasureConfig::Ksg(KsgConfig {
                    k: 5,
                    ..KsgConfig::default()
                }),
            ],
            seeds: vec![],
            threads: 1,
            storage: EnsembleStorage::default(),
        };
        let report = run_sweep(&plan).expect("valid plan");
        let k3 = report.get("a", "ksg", None).unwrap();
        let k5 = report.get("a", "ksg#2", None).unwrap();
        assert_ne!(
            k3.result.mi.values, k5.result.mi.values,
            "different k must produce different estimates"
        );
        let grid = report.grid_table();
        assert!(
            grid.contains("ksg#2"),
            "grid must render both columns: {grid}"
        );
        let rows = report.rows();
        assert!(rows.iter().any(|r| r.measure == "ksg#2"));
    }

    #[test]
    fn pipeline_round_trips_through_scenario() {
        let sc = small_scenario("round", 77);
        let mut back = ScenarioSpec::new("round", sc.ensemble.clone());
        // `new`'s defaults: default reduction, per-particle observers,
        // every 10th step.
        assert_eq!(back.reduce.mode, sc.reduce.mode);
        assert!(matches!(back.observers, ObserverMode::PerParticle));
        assert_eq!(back.eval_every, 10);
        back.eval_every = sc.eval_every;
        assert_eq!(back.ensemble.seed, sc.ensemble.seed);
        assert_eq!(back.eval_every, sc.eval_every);
        assert_eq!(back.eval_times(), sc.eval_times());
    }

    #[test]
    fn pass_width_is_capped_at_the_schedule_length() {
        // A request's `threads` must not grow a pooled runner beyond the
        // steps a pass can use: 64 requested over 3 steps keeps at most 3
        // workers, and the bits match a single-threaded run.
        let mut sc = small_scenario("a", 4);
        sc.ensemble.samples = 8;
        sc.ensemble.t_max = 10;
        sc.eval_every = 5;
        assert_eq!(sc.eval_times(), vec![0, 5, 10]);
        let measure = MeasureConfig::Ksg(KsgConfig {
            k: 3,
            ..KsgConfig::default()
        });
        let run = |threads| {
            let mut runner = SweepRunner::new();
            let labels = ["ksg".to_string()];
            let cell = runner
                .run_cells(
                    &sc,
                    &[measure],
                    &labels,
                    EnsembleStorage::default(),
                    threads,
                )
                .pop()
                .unwrap();
            assert!(cell.status.is_ok(), "{:?}", cell.status);
            (runner.capacity_signature()[0], cell.result)
        };
        let (workers, wide) = run(64);
        assert!(workers <= 3, "{workers} workers kept for a 3-step schedule");
        let (_, narrow) = run(1);
        assert_eq!(wide.mi.times, narrow.mi.times);
        for (a, b) in wide.mi.values.iter().zip(&narrow.mi.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mixing_null_stays_disorganized() {
        // The negative control at smoke scale: no interaction, no rise.
        let sc = mixing_null().with_scale(60, 30);
        let mut runner = SweepRunner::new();
        let stream = |sc: &ScenarioSpec| {
            run_streaming_ensemble(
                &sc.ensemble,
                &sc.eval_times(),
                0,
                &StreamingConfig::default(),
            )
        };
        let ensemble = stream(&sc);
        let results = runner.evaluate_frames(
            EnsembleFrames::Streaming(&ensemble),
            &sc,
            &[MeasureConfig::default()],
            0,
        );
        let organizing = cell_sorting().with_scale(60, 30);
        let org_ensemble = stream(&organizing);
        let org = runner.evaluate_frames(
            EnsembleFrames::Streaming(&org_ensemble),
            &organizing,
            &[MeasureConfig::default()],
            0,
        );
        assert!(
            results[0].mi.increase() < 0.5 * org[0].mi.increase(),
            "null control ΔI {} must sit well below cell sorting ΔI {}",
            results[0].mi.increase(),
            org[0].mi.increase()
        );
    }

    #[test]
    fn run_isolated_retries_then_succeeds() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        // First attempt panics, second succeeds: a bounded retry covers
        // transient failures.
        let out = run_isolated(|| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            42
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn run_isolated_exhausts_attempts_and_reports_reason() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let out: Result<(), String> = run_isolated(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("deterministic boom");
        });
        let reason = out.unwrap_err();
        assert!(reason.contains("2 attempt(s)"), "{reason}");
        assert!(reason.contains("deterministic boom"), "{reason}");
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn poisoned_measure_is_quarantined_not_fatal() {
        // KSG with k far beyond the sample count panics inside the
        // estimator; the sweep must complete with that measure's cells
        // quarantined and the healthy Gaussian cells bit-identical to a
        // clean run.
        let poisoned = SweepPlan {
            scenarios: vec![small_scenario("a", 9)],
            measures: vec![
                MeasureConfig::Gaussian,
                MeasureConfig::Ksg(KsgConfig {
                    k: 1000,
                    ..KsgConfig::default()
                }),
            ],
            seeds: vec![],
            threads: 1,
            storage: EnsembleStorage::default(),
        };
        let report = run_sweep(&poisoned).expect("quarantine, not abort");
        assert!(report.has_failures());
        let failed = report.failed_cells();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].measure_label, "ksg");
        assert!(matches!(&failed[0].status, CellStatus::Failed { reason }
            if reason.contains("attempt")));
        assert!(failed[0].result.mi.values.is_empty());
        // Healthy cell keeps its bit-identical value.
        let clean = run_sweep(&SweepPlan {
            scenarios: vec![small_scenario("a", 9)],
            measures: vec![MeasureConfig::Gaussian],
            seeds: vec![],
            threads: 1,
            storage: EnsembleStorage::default(),
        })
        .expect("valid plan");
        let healthy = report.get("a", "gaussian", None).unwrap();
        assert!(healthy.status.is_ok());
        let reference = clean.get("a", "gaussian", None).unwrap();
        for (a, b) in healthy
            .result
            .mi
            .values
            .iter()
            .zip(&reference.result.mi.values)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Failed cells are excluded from rows and rendered as "failed"
        // in the grid.
        assert!(report.rows().iter().all(|r| r.measure != "ksg"));
        assert!(report.grid_table().contains("failed"));
    }
}
