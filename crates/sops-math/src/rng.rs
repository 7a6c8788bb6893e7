//! Deterministic seed derivation and a minimal PRNG.
//!
//! Ensemble experiments run `m` independent simulations in parallel. To
//! keep results bit-reproducible regardless of thread scheduling, every
//! sample's RNG seed is *derived* from a master seed and the sample index
//! with SplitMix64, rather than drawn from a shared stream.
//!
//! SplitMix64 is also a perfectly serviceable stand-alone PRNG for
//! non-cryptographic simulation use (it passes BigCrush), and it is the
//! only generator in the workspace: the simulator draws its initial discs
//! from it and its noise from [`SplitMix64::next_standard_normal`]
//! (Box–Muller), one generator per sample.

/// SplitMix64 PRNG / seed mixer (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` (Lemire-style rejection-free bound is
    /// unnecessary here; simple modulo bias is < 2⁻⁵³·n for the tiny `n`
    /// used in this workspace, but we use the multiply-shift reduction
    /// anyway).
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A standard-normal variate via Box–Muller (uses two uniforms).
    pub fn next_standard_normal(&mut self) -> f64 {
        // Avoid u = 0 which would give ln(0).
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let v = self.next_f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Derives an independent child seed from `(master, stream)`.
///
/// Used to give each ensemble sample, each ICP restart, and each random
/// type-matrix draw its own decorrelated RNG stream. Mixing both values
/// through SplitMix64 twice avoids the low-entropy-seed correlations of
/// naive `master + stream`.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut sm = SplitMix64::new(master ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(stream | 1));
    sm.next_u64();
    let mut sm2 = SplitMix64::new(sm.next_u64() ^ stream);
    sm2.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.next_range(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn next_below_uniformish() {
        let mut r = SplitMix64::new(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SplitMix64::new(13);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = r.next_standard_normal();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn derived_seeds_decorrelated() {
        // Seeds derived for consecutive streams must not collide and the
        // generators they seed must not produce identical first draws.
        let master = 1234;
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1000u64 {
            let s = derive_seed(master, stream);
            assert!(seen.insert(s), "seed collision at stream {stream}");
        }
        let a = SplitMix64::new(derive_seed(master, 0)).next_u64();
        let b = SplitMix64::new(derive_seed(master, 1)).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn derive_seed_depends_on_both_inputs() {
        assert_ne!(derive_seed(1, 5), derive_seed(2, 5));
        assert_ne!(derive_seed(1, 5), derive_seed(1, 6));
    }
}
