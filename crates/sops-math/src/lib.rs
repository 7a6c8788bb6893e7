//! Numeric substrate for the `sops` workspace.
//!
//! This crate collects the small, dependency-free numerical building blocks
//! shared by the simulator, the shape-reduction pipeline and the
//! information-theoretic estimators:
//!
//! * [`Vec2`] — a plain 2-D double-precision vector with the usual algebra.
//! * [`special`] — digamma / log-gamma, needed by the
//!   Kraskov–Stögbauer–Grassberger estimator (paper Eq. 18).
//! * [`stats`] — slice summaries, quantiles, confidence intervals and
//!   the seed-axis significance test.
//! * [`Matrix`] — a small dense matrix with a Cholesky factorization,
//!   used for analytic Gaussian multi-information in tests and for the KDE
//!   baseline estimator.
//! * [`PairMatrix`] — symmetric per-type-pair parameter matrices
//!   (`k_{αβ}`, `r_{αβ}`, `τ_{αβ}` of paper §4.1).
//! * [`rng`] — SplitMix64 seed derivation so that ensembles are
//!   bit-reproducible regardless of thread schedule.
//! * [`wide_available`] — the one run-time CPU check that picks the
//!   AVX-512 form of a lane kernel over its portable scalar loop.
//!
//! Everything here is deterministic and allocation-conscious; the heavy
//! lifting (simulation, estimation) lives in the crates layered on top.

mod matrix;
mod pairmat;
pub mod rng;
pub mod special;
pub mod stats;
mod vec2;

pub use matrix::Matrix;
pub use pairmat::PairMatrix;
pub use rng::SplitMix64;
pub use vec2::Vec2;

/// Natural-log to log-base-2 conversion factor (`1 / ln 2`).
///
/// The paper reports all information quantities in bits; the estimators
/// compute in nats internally.
pub const NATS_TO_BITS: f64 = std::f64::consts::LOG2_E;

/// Whether this CPU runs the workspace's AVX-512 lane kernels:
/// `avx512f` for the 8-lane `f64` arithmetic, masks and compress-stores,
/// and `avx512vl` for their 128- and 256-bit forms. Always `false` off
/// x86-64.
///
/// Every lane kernel (the force engine's distance streams, the cell
/// grid's index pass, the shape-reduction scans) returns the same bits
/// as the scalar loop it replaces, so this check decides speed, never a
/// result. The standard library caches the CPUID answer; callers still
/// probe once per outer call and pass the answer down, not once per
/// element.
#[inline]
pub fn wide_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
