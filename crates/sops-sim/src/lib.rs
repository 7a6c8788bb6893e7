//! The interacting particle model of Harder & Polani (2012), §4.1 and §5.1.
//!
//! `n` particles with fixed types move in the plane under overdamped
//! ("strong friction limit") dynamics:
//!
//! ```text
//! ż_i = Σ_{j ∈ N_rc(i)}  −F_{αβ}(‖Δz_ij‖₂) Δz_ij  +  w,    Δz_ij = z_i − z_j
//! ```
//!
//! with `w ~ N(0, 0.05)` additive white Gaussian noise, integrated by
//! Euler–Maruyama. `F_{αβ}` is a *force-scaling* function of the
//! inter-particle distance, parameterized per unordered type pair: positive
//! values attract, negative values repel (see [`force`] for the sign
//! derivation). Interactions are cut off at radius `r_c`; `r_c = ∞` is the
//! long-range regime of the paper's Figs. 9–10.
//!
//! Crate layout:
//!
//! * [`force`] — the two force-scaling families `F¹` (linear, long-range
//!   attraction) and `F²` (difference of Gaussians), plus random matrix
//!   generators used by the sweep experiments.
//! * [`Model`] — particle types + force law + cut-off.
//! * [`IntegratorConfig`] — Euler–Maruyama stepping with substeps and a
//!   displacement clamp for the `1/x` singularity of `F¹`.
//! * [`ForceWorkspace`] — the persistent, allocation-free
//!   force-evaluation engine: in-place grid rebuilds, a cell-sorted
//!   Newton's-third-law half sweep, and a fixed chunked accumulation
//!   order.
//! * [`Simulation`] — a single simulation run producing a [`Trajectory`];
//!   equilibrium detection (§4.1) from the uniform-disc initial
//!   distribution (§5.1).
//! * [`ensemble`] — [`EnsembleSpec`], the specification of `m`
//!   independent runs with derived seeds.
//! * [`streaming`] — [`run_streaming_ensemble`], the one ensemble runner:
//!   the `m` runs in parallel (bit-reproducible regardless of thread
//!   count), keeping only the frames a caller names (optionally spilled
//!   to disk), bit-identical to each run's [`Simulation::run`] trajectory
//!   at those times. Every ensemble reader in `sops-core` reads these.

pub mod ensemble;
pub mod force;
mod init;
mod integrator;
mod model;
mod sim;
pub mod streaming;
mod workspace;

pub use ensemble::EnsembleSpec;
pub use force::{ForceLaw, ForceModel, GaussianForce, LinearForce};
pub use integrator::IntegratorConfig;
pub use model::Model;
pub use sim::{EquilibriumCriterion, Simulation, Trajectory};
pub use streaming::{run_streaming_ensemble, EnsembleFrames, StreamingConfig, StreamingEnsemble};
pub use workspace::ForceWorkspace;

/// Default noise level: the paper's `w ~ N(0, 0.05)` read as *variance* per
/// unit time (std ≈ 0.2236). The paper does not say which it means; the
/// figure reproductions read it as the std instead (variance 0.0025).
pub(crate) const DEFAULT_NOISE_VARIANCE: f64 = 0.05;
