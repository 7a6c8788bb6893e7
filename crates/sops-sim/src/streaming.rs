//! Streamed ensembles: run `m` independent samples and keep only the
//! frames an analysis reads.
//!
//! A whole trajectory per run holds `m × (t_max + 1) × n` positions. An
//! analysis of the cross-sample slices reads only the steps on its
//! schedule, so that storage is `O(t_max)` where `O(k)` suffices for `k`
//! scheduled steps.
//!
//! [`run_streaming_ensemble`] — the crate's one ensemble runner — runs
//! each sample forward with the *exact* operations of
//! [`crate::Simulation::run`] (same seed derivation, same RNG draw order,
//! same equilibrium bookkeeping) but copies out only the frames named by
//! the caller's retained-time list — a sweep's evaluation schedule, the
//! few steps a figure plots, or the two steps a transfer-entropy estimate
//! reads. One parallel map takes the samples in consecutive groups: `F¹`
//! ensembles on the direct pair loop step up to eight samples in
//! lockstep, one AVX-512 lane each (the crate-private `lockstep` module),
//! and every other ensemble steps one sample at a time. The result is
//! **bit-identical** to running [`crate::Simulation::run`] per sample
//! (seed `derive_seed(seed, s)`) and slicing its trajectories at the same
//! times, for any worker count and either path, with peak memory
//! `O(m · k · n)` instead of `O(m · t_max · n)`.
//!
//! Each group keeps its retained frames in its own sample-major block,
//! and the blocks are concatenated in group order after the map. When
//! even the retained frames exceed a configured resident budget
//! ([`StreamingConfig::max_resident_bytes`]), the groups instead write
//! them to an anonymous temporary file at fixed offsets as they are
//! produced, and the evaluation pass reads one cross-sample time slice at
//! a time into a reused staging buffer. Spilled round trips are raw `f64`
//! bytes ([`Vec2`] is `repr(C)`), so they are bit-exact by construction.
//!
//! [`EnsembleFrames`] is the read view: the cross-sample slice at a
//! retained step and the equilibrated fraction. It is the only ensemble
//! form `sops-core` reads.

use crate::ensemble::EnsembleSpec;
use crate::lockstep;
use crate::sim::{EquilibriumWatch, Simulation};
use sops_math::rng::derive_seed;
use sops_math::Vec2;
use std::sync::atomic::{AtomicU64, Ordering};

/// Size of one stored position in bytes (`Vec2` = two `f64`s, `repr(C)`).
const VEC2_BYTES: usize = std::mem::size_of::<Vec2>();

/// Storage policy of [`run_streaming_ensemble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Resident-memory budget for the retained frames, in bytes. When
    /// `samples × retained_times × particles × 16` exceeds this, the
    /// store spills to a temporary file; a tiny budget (e.g. 1) forces
    /// the spill path, which the bit-identity tests use.
    pub max_resident_bytes: usize,
}

impl Default for StreamingConfig {
    /// 1 GiB of resident frames — far above every lab-scale scenario, so
    /// spill engages only when a dense schedule meets a huge collective.
    fn default() -> Self {
        StreamingConfig {
            max_resident_bytes: 1 << 30,
        }
    }
}

/// Disambiguates spill files across concurrent ensembles in one process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Frame chunks spilled to an unlinked temporary file, sample-major:
/// frame `fi` of sample `s` lives at byte offset
/// `(s · k + fi) · n · 16` for `k` retained times and `n` particles.
///
/// The file is unlinked immediately after creation, so the kernel
/// reclaims it when the store drops — even if the process is killed
/// mid-sweep (the fault-tolerance layer's crash model).
#[derive(Debug)]
pub(crate) struct SpillStore {
    file: std::fs::File,
    frame_len: usize,
    frames_per_sample: usize,
}

impl SpillStore {
    /// Creates a store for `samples × frames_per_sample` frames of
    /// `frame_len` positions each, preallocated and unlinked.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure — inside a sweep the panic-isolation layer
    /// quarantines the ensemble instead of aborting the run.
    pub(crate) fn create(samples: usize, frames_per_sample: usize, frame_len: usize) -> Self {
        let path = std::env::temp_dir().join(format!(
            "sops-spill-{}-{}.bin",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("SpillStore: create {}: {e}", path.display()));
        // Unlink right away: the fd keeps the storage alive and the
        // kernel cleans up on drop or crash.
        std::fs::remove_file(&path)
            .unwrap_or_else(|e| panic!("SpillStore: unlink {}: {e}", path.display()));
        let total = (samples * frames_per_sample * frame_len * VEC2_BYTES) as u64;
        file.set_len(total)
            .unwrap_or_else(|e| panic!("SpillStore: preallocate {total} bytes: {e}"));
        SpillStore {
            file,
            frame_len,
            frames_per_sample,
        }
    }

    fn offset(&self, sample: usize, frame: usize) -> u64 {
        debug_assert!(frame < self.frames_per_sample);
        ((sample * self.frames_per_sample + frame) * self.frame_len * VEC2_BYTES) as u64
    }

    /// Writes one frame at its fixed offset. Offsets are disjoint per
    /// (sample, frame), so concurrent writers need no further
    /// coordination (`write_all_at` takes `&self`).
    pub(crate) fn write_frame(&self, sample: usize, frame: usize, positions: &[Vec2]) {
        assert_eq!(positions.len(), self.frame_len, "SpillStore: frame size");
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file
                .write_all_at(vec2_bytes(positions), self.offset(sample, frame))
                .unwrap_or_else(|e| panic!("SpillStore: write s{sample}/f{frame}: {e}"));
        }
        #[cfg(not(unix))]
        {
            let _ = (sample, frame);
            unreachable!("SpillStore is only constructed on unix");
        }
    }

    /// Reads one frame back into `out` (bit-exact round trip).
    pub(crate) fn read_frame(&self, sample: usize, frame: usize, out: &mut [Vec2]) {
        assert_eq!(out.len(), self.frame_len, "SpillStore: frame size");
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file
                .read_exact_at(vec2_bytes_mut(out), self.offset(sample, frame))
                .unwrap_or_else(|e| panic!("SpillStore: read s{sample}/f{frame}: {e}"));
        }
        #[cfg(not(unix))]
        {
            let _ = (sample, frame);
            unreachable!("SpillStore is only constructed on unix");
        }
    }
}

/// `&[Vec2]` as its raw byte image. Sound: `Vec2` is `repr(C)` with two
/// `f64` fields — no padding, every bit pattern valid.
#[cfg(unix)]
fn vec2_bytes(v: &[Vec2]) -> &[u8] {
    // SAFETY: see above; length in bytes is exact.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// `&mut [Vec2]` as its raw byte image (see [`vec2_bytes`]).
#[cfg(unix)]
fn vec2_bytes_mut(v: &mut [Vec2]) -> &mut [u8] {
    // SAFETY: as in `vec2_bytes`; any byte pattern is a valid Vec2.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Where a [`StreamingEnsemble`] keeps its retained frames.
#[derive(Debug)]
enum FrameStore {
    /// One flat sample-major buffer: frame `fi` of sample `s` occupies
    /// `[(s·k + fi)·n .. (s·k + fi + 1)·n]`.
    Memory(Vec<Vec2>),
    /// Spilled to an unlinked temporary file.
    Spill(SpillStore),
}

/// An ensemble that retained only the frames named at simulation time.
///
/// Positions at the retained times are bit-identical to the frames of
/// per-sample [`crate::Simulation::run`] trajectories at the same times
/// ([`run_streaming_ensemble`] replays the exact stepping loop); asking
/// for a non-retained time is a caller bug and panics.
#[derive(Debug)]
pub struct StreamingEnsemble {
    /// Retained time steps, strictly increasing.
    times: Vec<usize>,
    samples: usize,
    particles: usize,
    /// Per-sample equilibrium bookkeeping, identical to the whole
    /// trajectory's [`crate::Trajectory::equilibrium_step`].
    equilibrium_steps: Vec<Option<usize>>,
    store: FrameStore,
}

impl StreamingEnsemble {
    /// Number of samples `m`.
    pub(crate) fn samples(&self) -> usize {
        self.samples
    }

    /// Fraction of runs that satisfied the equilibrium criterion.
    pub(crate) fn equilibrated_fraction(&self) -> f64 {
        if self.equilibrium_steps.is_empty() {
            return 0.0;
        }
        self.equilibrium_steps
            .iter()
            .filter(|s| s.is_some())
            .count() as f64
            / self.equilibrium_steps.len() as f64
    }

    /// Index of recorded step `t` in the retained-time list.
    ///
    /// # Panics
    ///
    /// Panics if `t` was not retained — the schedule handed to
    /// [`run_streaming_ensemble`] must cover every time the evaluation
    /// will visit.
    fn frame_index(&self, t: usize) -> usize {
        self.times
            .binary_search(&t)
            .unwrap_or_else(|_| panic!("StreamingEnsemble: step {t} was not retained"))
    }

    /// Writes the cross-sample slice at retained time `t` into `out`
    /// (cleared first): sample `s`'s configuration at step `t`, as
    /// [`crate::Simulation::run`] records it.
    ///
    /// In-memory stores serve slices directly; spilled stores load the
    /// time slice into `buf` (capacity reused across calls) and slice
    /// that, so a warmed-up staging buffer never grows.
    pub(crate) fn at_time_into<'a>(
        &'a self,
        t: usize,
        buf: &'a mut Vec<Vec2>,
        out: &mut Vec<&'a [Vec2]>,
    ) {
        out.clear();
        let fi = self.frame_index(t);
        let n = self.particles;
        match &self.store {
            FrameStore::Memory(data) => {
                let k = self.times.len();
                out.extend(
                    (0..self.samples).map(|s| &data[(s * k + fi) * n..(s * k + fi + 1) * n]),
                );
            }
            FrameStore::Spill(spill) => {
                buf.resize(self.samples * n, Vec2::default());
                for (s, chunk) in buf.chunks_exact_mut(n).enumerate() {
                    spill.read_frame(s, fi, chunk);
                }
                out.extend(buf.chunks_exact(n));
            }
        }
    }
}

/// Normalizes a retained-time request: sorted, deduplicated, bounded by
/// the horizon.
fn normalize_times(times: &[usize], t_max: usize) -> Vec<usize> {
    let mut out = times.to_vec();
    out.sort_unstable();
    out.dedup();
    assert!(!out.is_empty(), "run_streaming_ensemble: no retained times");
    assert!(
        *out.last().unwrap() <= t_max,
        "run_streaming_ensemble: retained time {} beyond horizon {t_max}",
        out.last().unwrap()
    );
    out
}

/// Steps one sample through the horizon as [`crate::Simulation::run`]
/// does — same seed, same RNG draws, the same `EquilibriumWatch` — but
/// emits only the retained frames, to `sink(frame_index, positions)`.
/// Returns the equilibrium step, if any.
fn stream_one(
    spec: &EnsembleSpec,
    sample: usize,
    times: &[usize],
    mut sink: impl FnMut(usize, &[Vec2]),
) -> Option<usize> {
    let sample_seed = derive_seed(spec.seed, sample as u64);
    let mut sim = Simulation::with_disc_init(
        spec.model.clone(),
        spec.integrator,
        spec.init_radius,
        sample_seed,
    );
    let mut next = 0usize;
    if times[next] == 0 {
        sink(next, sim.positions());
        next += 1;
    }
    let mut watch = EquilibriumWatch::new(spec.criterion);
    let mut equilibrium_step = None;
    for t in 0..spec.t_max {
        let fnorm = sim.step();
        equilibrium_step = watch.observe(t + 1, fnorm);
        if next < times.len() && times[next] == t + 1 {
            sink(next, sim.positions());
            next += 1;
        }
    }
    debug_assert_eq!(next, times.len(), "all retained times visited");
    equilibrium_step
}

/// Runs the ensemble on up to `threads` worker threads (pass 0 to use the
/// default; see `sops_par::default_threads`): every sample is stepped
/// through the full horizon but only the frames at `times` are kept — in
/// memory while they fit `cfg.max_resident_bytes`, spilled to an
/// unlinked temp file otherwise.
///
/// One `sops_par::parallel_map` runs the samples in consecutive groups.
/// An `F¹` model on the direct pair loop with at least four samples per
/// worker is split into `max(⌈samples/8⌉, workers)` groups as even as
/// possible, and each group steps its samples in lockstep, one AVX-512
/// lane per sample (a portable lane loop without AVX-512). Every other
/// ensemble runs one sample per group, each with a private force
/// workspace. The workers share out whole groups; no pair sweep is split
/// between them. A group writes its frames to the spill file, or to its
/// own sample-major block in memory, which it returns with its
/// equilibrium steps; the in-memory store is the blocks concatenated in
/// group order.
///
/// Bit-identity contract: for any worker count, the retained frames and
/// the equilibrium steps equal those of sample `s`'s
/// [`crate::Simulation::run`] — `Simulation::with_disc_init(model,
/// integrator, init_radius, derive_seed(seed, s)).run(t_max, criterion)`
/// — at the same times. The lockstep lanes repeat each sample's scalar
/// operations exactly, so which path runs changes no bit.
pub fn run_streaming_ensemble(
    spec: &EnsembleSpec,
    times: &[usize],
    threads: usize,
    cfg: &StreamingConfig,
) -> StreamingEnsemble {
    spec.validate();
    let times = normalize_times(times, spec.t_max);
    let threads = sops_par::resolve_threads(threads);
    let n = spec.model.particles();
    let k = times.len();
    let lanes = lockstep::applies(spec, threads);
    let groups: Vec<(usize, usize)> = if lanes {
        lockstep::groups(spec.samples, threads)
    } else {
        (0..spec.samples).map(|s| (s, 1)).collect()
    };
    let resident = spec.samples * k * n * VEC2_BYTES;
    let spill = (cfg!(unix) && resident > cfg.max_resident_bytes)
        .then(|| SpillStore::create(spec.samples, k, n));
    let per_group = sops_par::parallel_map(groups.len(), threads, |g| {
        let (first, len) = groups[g];
        let mut block = match spill {
            Some(_) => Vec::new(),
            None => vec![Vec2::ZERO; len * k * n],
        };
        let mut keep = |s: usize, fi: usize, frame: &[Vec2]| match &spill {
            Some(store) => store.write_frame(s, fi, frame),
            None => {
                let at = ((s - first) * k + fi) * n;
                block[at..at + n].copy_from_slice(frame);
            }
        };
        let steps = if lanes {
            lockstep::stream_group(spec, first, len, &times, |lane, fi, frame| {
                keep(first + lane, fi, frame)
            })
        } else {
            vec![stream_one(spec, first, &times, |fi, frame| {
                keep(first, fi, frame)
            })]
        };
        (block, steps)
    });
    let (blocks, steps): (Vec<Vec<Vec2>>, Vec<Vec<Option<usize>>>) = per_group.into_iter().unzip();
    let store = match spill {
        Some(store) => FrameStore::Spill(store),
        None => FrameStore::Memory(blocks.concat()),
    };
    StreamingEnsemble {
        times,
        samples: spec.samples,
        particles: n,
        equilibrium_steps: steps.concat(),
        store,
    }
}

/// A borrowed read view of a [`StreamingEnsemble`] — the ensemble form
/// evaluation code reads. It has a single variant.
#[derive(Debug, Clone, Copy)]
pub enum EnsembleFrames<'e> {
    /// A snapshot store retaining only scheduled frames.
    Streaming(&'e StreamingEnsemble),
}

impl<'e> EnsembleFrames<'e> {
    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        let EnsembleFrames::Streaming(s) = self;
        s.samples()
    }

    /// Fraction of runs that satisfied the equilibrium criterion.
    pub fn equilibrated_fraction(&self) -> f64 {
        let EnsembleFrames::Streaming(s) = self;
        s.equilibrated_fraction()
    }

    /// Writes the cross-sample slice at time `t` into `out` (cleared
    /// first). `buf` is the spill staging buffer — untouched for
    /// in-memory storage, reused (capacity-stable) for spilled frames.
    ///
    /// # Panics
    ///
    /// Panics if `t` was not retained: a streamed ensemble covers only
    /// the times it was run with.
    ///
    /// The slices borrow the ensemble and `buf`, not this view, so a
    /// temporary view serves as well as a bound one.
    pub fn at_time_into<'a>(&self, t: usize, buf: &'a mut Vec<Vec2>, out: &mut Vec<&'a [Vec2]>)
    where
        'e: 'a,
    {
        let EnsembleFrames::Streaming(s) = *self;
        s.at_time_into(t, buf, out)
    }
}

#[cfg(test)]
impl StreamingEnsemble {
    /// The retained steps, for the sibling modules' tests.
    pub(crate) fn times(&self) -> &[usize] {
        &self.times
    }

    /// Particles per configuration.
    pub(crate) fn particles(&self) -> usize {
        self.particles
    }

    /// Per-sample equilibrium steps.
    pub(crate) fn equilibrium_steps(&self) -> &[Option<usize>] {
        &self.equilibrium_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{ForceModel, LinearForce};
    use crate::integrator::IntegratorConfig;
    use crate::model::Model;
    use crate::sim::{EquilibriumCriterion, Trajectory};

    fn spec(samples: usize, t_max: usize) -> EnsembleSpec {
        EnsembleSpec {
            model: Model::balanced(
                6,
                ForceModel::Linear(LinearForce::uniform(1.0, 1.0)),
                f64::INFINITY,
            ),
            integrator: IntegratorConfig::default(),
            init_radius: 2.0,
            t_max,
            samples,
            seed: 1234,
            criterion: None,
        }
    }

    /// The independent reference: every sample's whole trajectory from
    /// its own [`Simulation::run`].
    fn whole_runs(spec: &EnsembleSpec) -> Vec<Trajectory> {
        (0..spec.samples)
            .map(|s| {
                Simulation::with_disc_init(
                    spec.model.clone(),
                    spec.integrator,
                    spec.init_radius,
                    derive_seed(spec.seed, s as u64),
                )
                .run(spec.t_max, spec.criterion)
            })
            .collect()
    }

    /// Bits of every coordinate of a configuration.
    fn bits(c: &[Vec2]) -> Vec<u64> {
        c.iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
            .collect()
    }

    fn assert_matches_retained(spec: &EnsembleSpec, times: &[usize], cfg: &StreamingConfig) {
        let retained = whole_runs(spec);
        let retained_steps: Vec<Option<usize>> =
            retained.iter().map(|r| r.equilibrium_step).collect();
        let retained_fraction = retained_steps.iter().filter(|s| s.is_some()).count() as f64
            / retained_steps.len() as f64;
        for threads in [1usize, 8] {
            let streamed = run_streaming_ensemble(spec, times, threads, cfg);
            let frames = EnsembleFrames::Streaming(&streamed);
            for &t in &streamed.times {
                let mut buf = Vec::new();
                let mut out = Vec::new();
                frames.at_time_into(t, &mut buf, &mut out);
                assert_eq!(out.len(), retained.len());
                for (a, run) in out.iter().zip(&retained) {
                    assert_eq!(bits(a), bits(&run.frames[t]), "t={t}, threads={threads}");
                }
            }
            assert_eq!(streamed.equilibrium_steps, retained_steps);
            assert_eq!(
                streamed.equilibrated_fraction().to_bits(),
                retained_fraction.to_bits()
            );
        }
    }

    #[test]
    fn memory_store_matches_retained_frames() {
        let s = spec(10, 24);
        let cfg = StreamingConfig::default();
        assert_matches_retained(&s, &[0, 6, 12, 18, 24], &cfg);
        assert_matches_retained(&s, &(0..=24).collect::<Vec<_>>(), &cfg);
    }

    #[test]
    fn spill_store_matches_retained_frames() {
        let s = spec(8, 20);
        // A 1-byte budget forces the spill path.
        let cfg = StreamingConfig {
            max_resident_bytes: 1,
        };
        let streamed = run_streaming_ensemble(&s, &[0, 10, 20], 4, &cfg);
        assert!(matches!(streamed.store, FrameStore::Spill(_)));
        assert_matches_retained(&s, &[0, 10, 20], &cfg);
    }

    #[test]
    fn equilibrium_bookkeeping_matches_retained() {
        let mut s = spec(5, 400);
        s.integrator = s.integrator.deterministic();
        s.criterion = Some(EquilibriumCriterion {
            threshold: 0.05,
            patience: 3,
        });
        let retained = whole_runs(&s);
        let streamed = run_streaming_ensemble(&s, &[0, 400], 4, &StreamingConfig::default());
        assert_eq!(
            streamed.equilibrium_steps,
            retained
                .iter()
                .map(|r| r.equilibrium_step)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn times_are_normalized() {
        let s = spec(3, 10);
        let e = run_streaming_ensemble(&s, &[10, 0, 5, 5, 0], 1, &StreamingConfig::default());
        assert_eq!(e.times, [0, 5, 10]);
    }

    #[test]
    fn spill_view_is_capacity_stable() {
        let s = spec(6, 12);
        let cfg = StreamingConfig {
            max_resident_bytes: 1,
        };
        let streamed = run_streaming_ensemble(&s, &[0, 4, 8, 12], 2, &cfg);
        let frames = EnsembleFrames::Streaming(&streamed);
        let mut buf: Vec<Vec2> = Vec::new();
        let mut warm = (0usize, 0usize);
        for round in 0..4 {
            for &t in &streamed.times {
                let mut out = Vec::with_capacity(streamed.samples());
                frames.at_time_into(t, &mut buf, &mut out);
                assert_eq!(out.len(), streamed.samples());
            }
            let state = (buf.capacity(), buf.as_ptr() as usize);
            if round == 0 {
                warm = state;
            } else {
                assert_eq!(state, warm, "round {round}: staging buffer grew or moved");
            }
        }
    }

    #[test]
    fn slices_outlive_a_temporary_view() {
        // The view is a temporary dropped at the end of the call; `out`
        // is read afterwards, once from memory and once from a spill.
        let s = spec(3, 6);
        let reference = whole_runs(&s);
        for budget in [StreamingConfig::default().max_resident_bytes, 1] {
            let cfg = StreamingConfig {
                max_resident_bytes: budget,
            };
            let e = run_streaming_ensemble(&s, &[0, 6], 1, &cfg);
            let mut buf = Vec::new();
            let mut out = Vec::new();
            EnsembleFrames::Streaming(&e).at_time_into(6, &mut buf, &mut out);
            assert_eq!(out.len(), 3);
            for (a, run) in out.iter().zip(&reference) {
                assert_eq!(bits(a), bits(&run.frames[6]), "budget {budget}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "was not retained")]
    fn unretained_time_panics() {
        let s = spec(2, 8);
        let e = run_streaming_ensemble(&s, &[0, 8], 1, &StreamingConfig::default());
        let mut buf = Vec::new();
        let mut out = Vec::new();
        e.at_time_into(3, &mut buf, &mut out);
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn time_beyond_horizon_rejected() {
        let s = spec(2, 8);
        run_streaming_ensemble(&s, &[0, 9], 1, &StreamingConfig::default());
    }
}
