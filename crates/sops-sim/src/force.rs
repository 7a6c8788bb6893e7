//! Force-scaling functions `F¹` and `F²` (paper Eq. 7–8).
//!
//! # Sign convention
//!
//! The equation of motion is `ż_i = Σ −F(‖Δz_ij‖) Δz_ij` with
//! `Δz_ij = z_i − z_j`. A positive `F` therefore moves particle `i`
//! *toward* `j` (attraction); a negative `F` repels.
//!
//! * `F¹(x) = k (1 − r/x)` is negative below the preferred distance `r`
//!   (repulsion) and positive above it (attraction growing toward `k·x` for
//!   large separations — the paper's "long range attraction ... only cut
//!   off by the radius r_c").
//! * `F²(x) = k ((1/σ²) e^{−x²/(2σ)} − e^{−x²/(2τ)})` with the paper's
//!   `σ = 1 ≤ τ` is ≤ 0 everywhere: a finite-range soft *repulsion* that
//!   vanishes at contact and beyond a few `√τ`. This is exactly what makes
//!   single-type F² collectives relax into a regular, slowly expanding
//!   disc-shaped grid (paper §6/§7.1). The "preferred distance" `r_{αβ}`
//!   quoted for F² experiments is realized here as the repulsion *range*
//!   via the mapping `τ = r²/2`: the paper gives `r` for F² runs but
//!   never says how it enters Eq. 8, and `τ` is the parameter that sets
//!   the range.

use sops_math::{PairMatrix, SplitMix64};

/// A per-type-pair force-scaling function.
///
/// Implementations must be symmetric in the type pair — the paper only
/// considers symmetric interaction matrices (asymmetric preferences lead
/// to unstable or cycling dynamics, §4.1).
pub trait ForceLaw {
    /// Number of particle types the law is parameterized for.
    fn types(&self) -> usize;

    /// The scaling `F_{αβ}(x)` at inter-particle distance `x > 0`.
    fn scale(&self, a: usize, b: usize, x: f64) -> f64;

    /// The preferred (zero-force or reference) distance `r_{αβ}` if the
    /// law defines one.
    fn preferred_distance(&self, a: usize, b: usize) -> Option<f64>;
}

/// `F¹_{αβ}(x) = k_{αβ} (1 − r_{αβ}/x)` — Eq. 7.
///
/// Zero at `x = r`, repulsive below (diverging as `x → 0`), attractive
/// above with unbounded growth; the cut-off radius of the [`crate::Model`]
/// is the only thing limiting the attraction range.
#[derive(Debug, Clone)]
pub struct LinearForce {
    /// Force scale `k_{αβ}`; paper range `[1, 10]`.
    pub k: PairMatrix,
    /// Preferred distance `r_{αβ}`.
    pub r: PairMatrix,
}

impl LinearForce {
    /// Builds the law, checking matching type counts.
    pub fn new(k: PairMatrix, r: PairMatrix) -> Self {
        assert_eq!(k.types(), r.types(), "LinearForce: k and r type mismatch");
        LinearForce { k, r }
    }

    /// Uniform parameters for a single-type collective (Figs. 5, 7).
    pub fn uniform(k: f64, r: f64) -> Self {
        LinearForce::new(PairMatrix::constant(1, k), PairMatrix::constant(1, r))
    }
}

impl ForceLaw for LinearForce {
    fn types(&self) -> usize {
        self.k.types()
    }

    #[inline]
    fn scale(&self, a: usize, b: usize, x: f64) -> f64 {
        self.k.get(a, b) * (1.0 - self.r.get(a, b) / x)
    }

    fn preferred_distance(&self, a: usize, b: usize) -> Option<f64> {
        Some(self.r.get(a, b))
    }
}

/// `F²_{αβ}(x) = k_{αβ} ((1/σ²_{αβ}) e^{−x²/(2σ_{αβ})} − e^{−x²/(2τ_{αβ})})`
/// — Eq. 8, implemented literally.
///
/// With the paper's `σ = 1` and `τ ∈ [1, 10]` this is a soft finite-range
/// repulsion (see module docs). The constructor
/// [`GaussianForce::from_preferred_distance`] derives `τ = r²/2` so the
/// repulsion range tracks the quoted `r_{αβ}` radii.
#[derive(Debug, Clone)]
pub struct GaussianForce {
    /// Force scale `k_{αβ}`.
    pub k: PairMatrix,
    /// First Gaussian width parameter `σ_{αβ}` (paper: 1 throughout).
    pub sigma: PairMatrix,
    /// Second Gaussian width parameter `τ_{αβ}`; paper range `[1, 10]`.
    pub tau: PairMatrix,
}

impl GaussianForce {
    /// Builds the law, checking matching type counts.
    pub fn new(k: PairMatrix, sigma: PairMatrix, tau: PairMatrix) -> Self {
        assert_eq!(k.types(), sigma.types(), "GaussianForce: k/sigma mismatch");
        assert_eq!(k.types(), tau.types(), "GaussianForce: k/tau mismatch");
        GaussianForce { k, sigma, tau }
    }

    /// Builds the law from preferred-distance radii `r_{αβ}` with the
    /// paper's `σ = 1`, mapping `τ_{αβ} = r_{αβ}²/2` (see the module
    /// docs).
    pub fn from_preferred_distance(k: PairMatrix, r: &PairMatrix) -> Self {
        let types = k.types();
        assert_eq!(types, r.types(), "GaussianForce: k/r mismatch");
        let tau = r.map(|v| 0.5 * v * v);
        GaussianForce::new(k, PairMatrix::constant(types, 1.0), tau)
    }

    /// Uniform parameters for a single-type collective (Fig. 3 right).
    pub fn uniform(k: f64, tau: f64) -> Self {
        GaussianForce::new(
            PairMatrix::constant(1, k),
            PairMatrix::constant(1, 1.0),
            PairMatrix::constant(1, tau),
        )
    }
}

impl ForceLaw for GaussianForce {
    fn types(&self) -> usize {
        self.k.types()
    }

    #[inline]
    fn scale(&self, a: usize, b: usize, x: f64) -> f64 {
        let sigma = self.sigma.get(a, b);
        let tau = self.tau.get(a, b);
        let x2 = x * x;
        self.k.get(a, b)
            * ((-x2 / (2.0 * sigma)).exp() / (sigma * sigma) - (-x2 / (2.0 * tau)).exp())
    }

    fn preferred_distance(&self, a: usize, b: usize) -> Option<f64> {
        // Inverse of the tau = r²/2 mapping.
        Some((2.0 * self.tau.get(a, b)).sqrt())
    }
}

/// Force families usable by [`crate::Model`].
///
/// The two paper families are first-class variants (enum dispatch keeps
/// the hot loop monomorphic); `Custom` opens the model to user-defined
/// laws (e.g. Lennard-Jones-like potentials — see the
/// `custom_force_law` example) behind an `Arc` so the model stays
/// `Clone + Send + Sync` for the parallel ensemble runner.
#[derive(Clone)]
pub enum ForceModel {
    /// `F¹` — Eq. 7.
    Linear(LinearForce),
    /// `F²` — Eq. 8.
    Gaussian(GaussianForce),
    /// Any user-provided law.
    Custom(std::sync::Arc<dyn ForceLaw + Send + Sync>),
}

impl std::fmt::Debug for ForceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForceModel::Linear(l) => f.debug_tuple("Linear").field(l).finish(),
            ForceModel::Gaussian(g) => f.debug_tuple("Gaussian").field(g).finish(),
            ForceModel::Custom(c) => f
                .debug_struct("Custom")
                .field("types", &c.types())
                .finish_non_exhaustive(),
        }
    }
}

impl ForceModel {
    /// Wraps a user-defined law.
    pub fn custom(law: impl ForceLaw + Send + Sync + 'static) -> Self {
        ForceModel::Custom(std::sync::Arc::new(law))
    }
}

impl ForceLaw for ForceModel {
    fn types(&self) -> usize {
        match self {
            ForceModel::Linear(f) => f.types(),
            ForceModel::Gaussian(f) => f.types(),
            ForceModel::Custom(f) => f.types(),
        }
    }

    #[inline]
    fn scale(&self, a: usize, b: usize, x: f64) -> f64 {
        match self {
            ForceModel::Linear(f) => f.scale(a, b, x),
            ForceModel::Gaussian(f) => f.scale(a, b, x),
            ForceModel::Custom(f) => f.scale(a, b, x),
        }
    }

    fn preferred_distance(&self, a: usize, b: usize) -> Option<f64> {
        match self {
            ForceModel::Linear(f) => f.preferred_distance(a, b),
            ForceModel::Gaussian(f) => f.preferred_distance(a, b),
            ForceModel::Custom(f) => f.preferred_distance(a, b),
        }
    }
}

/// Draws a random symmetric preferred-distance matrix with entries uniform
/// in `[lo, hi]` — the random type generation protocol of Figs. 8–10.
pub fn random_preferred_distances(types: usize, lo: f64, hi: f64, seed: u64) -> PairMatrix {
    let mut rng = SplitMix64::new(seed);
    PairMatrix::from_fn(types, |_, _| rng.next_range(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_sign_structure() {
        let f = LinearForce::uniform(2.0, 1.5);
        // Below preferred distance: repulsion (negative).
        assert!(f.scale(0, 0, 0.5) < 0.0);
        // At preferred distance: zero.
        assert!(f.scale(0, 0, 1.5).abs() < 1e-12);
        // Above: attraction, growing.
        assert!(f.scale(0, 0, 3.0) > 0.0);
        assert!(f.scale(0, 0, 6.0) > f.scale(0, 0, 3.0));
        assert_eq!(f.preferred_distance(0, 0), Some(1.5));
    }

    #[test]
    fn f1_diverges_repulsively_at_contact() {
        let f = LinearForce::uniform(1.0, 1.0);
        assert!(f.scale(0, 0, 1e-6) < -1e5);
    }

    #[test]
    fn f2_literal_formula_is_repulsive_for_tau_above_sigma() {
        // sigma = 1, tau = 4: F2(x) = e^{-x²/2} - e^{-x²/8} <= 0.
        let f = GaussianForce::uniform(1.0, 4.0);
        for i in 1..100 {
            let x = i as f64 * 0.1;
            assert!(
                f.scale(0, 0, x) <= 1e-15,
                "F2({x}) = {} not repulsive",
                f.scale(0, 0, x)
            );
        }
        // Vanishes at contact and far away.
        assert!(f.scale(0, 0, 1e-9).abs() < 1e-9);
        assert!(f.scale(0, 0, 50.0).abs() < 1e-12);
    }

    #[test]
    fn f2_range_scales_with_preferred_distance() {
        let k = PairMatrix::constant(1, 1.0);
        let small =
            GaussianForce::from_preferred_distance(k.clone(), &PairMatrix::constant(1, 1.0));
        let large = GaussianForce::from_preferred_distance(k, &PairMatrix::constant(1, 4.0));
        // At x = 3 the short-range law has (essentially) decayed while the
        // long-range one is still pushing.
        assert!(small.scale(0, 0, 3.0).abs() < large.scale(0, 0, 3.0).abs());
        // tau mapping round-trips through preferred_distance.
        assert!((large.preferred_distance(0, 0).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn f2_peak_repulsion_strength_scales_with_k() {
        let weak = GaussianForce::uniform(1.0, 4.0);
        let strong = GaussianForce::uniform(5.0, 4.0);
        let x = 1.5;
        assert!((strong.scale(0, 0, x) - 5.0 * weak.scale(0, 0, x)).abs() < 1e-12);
    }

    #[test]
    fn force_model_enum_dispatch() {
        let lin = ForceModel::Linear(LinearForce::uniform(1.0, 2.0));
        let gau = ForceModel::Gaussian(GaussianForce::uniform(1.0, 2.0));
        assert_eq!(lin.types(), 1);
        assert_eq!(gau.types(), 1);
        assert!(lin.scale(0, 0, 4.0) > 0.0);
        assert!(gau.scale(0, 0, 1.0) < 0.0);
    }

    #[test]
    fn multi_type_lookup_is_symmetric() {
        let k = PairMatrix::from_full(2, &[1.0, 3.0, 3.0, 2.0]);
        let r = PairMatrix::from_full(2, &[1.0, 2.0, 2.0, 1.5]);
        let f = LinearForce::new(k, r);
        for x in [0.5, 1.0, 2.5, 7.0] {
            assert_eq!(f.scale(0, 1, x), f.scale(1, 0, x));
        }
    }

    #[test]
    fn custom_law_dispatch() {
        struct Spring;
        impl ForceLaw for Spring {
            fn types(&self) -> usize {
                1
            }
            fn scale(&self, _a: usize, _b: usize, x: f64) -> f64 {
                x - 1.5 // linear spring toward separation 1.5
            }
            fn preferred_distance(&self, _a: usize, _b: usize) -> Option<f64> {
                Some(1.5)
            }
        }
        let law = ForceModel::custom(Spring);
        assert_eq!(law.types(), 1);
        assert!(law.scale(0, 0, 1.0) < 0.0);
        assert!(law.scale(0, 0, 2.0) > 0.0);
        assert_eq!(law.preferred_distance(0, 0), Some(1.5));
        let cloned = law.clone();
        assert_eq!(cloned.scale(0, 0, 3.0), law.scale(0, 0, 3.0));
        assert!(format!("{law:?}").contains("Custom"));
    }

    #[test]
    fn random_matrices_respect_ranges_and_seeds() {
        let a = random_preferred_distances(5, 2.0, 8.0, 42);
        assert!((0..5).all(|x| (0..5).all(|y| (2.0..=8.0).contains(&a.get(x, y)))));
        let b = random_preferred_distances(5, 2.0, 8.0, 42);
        assert_eq!(a, b, "same seed, same matrix");
        let c = random_preferred_distances(5, 2.0, 8.0, 43);
        assert_ne!(a, c, "different seed, different matrix");
    }
}
