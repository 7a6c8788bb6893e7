//! Special functions: digamma, log-gamma and distribution quantiles.
//!
//! The Kraskov–Stögbauer–Grassberger estimator (paper Eq. 18) is a sum of
//! digamma terms `ψ(k) + (n−1)ψ(m) − ⟨Σᵢ ψ(cᵢ)⟩`. `ln Γ` is used by the
//! KDE baseline (volume of d-balls) and by tests. The normal and
//! Student-t quantiles back the seed-axis confidence intervals of
//! [`crate::stats`].

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Uses the standard recurrence `ψ(x) = ψ(x+1) − 1/x` to shift the argument
/// above 6, then an asymptotic (Bernoulli) series. Absolute error is below
/// `1e-12` over the domain exercised by the estimators (integer and
/// half-integer arguments ≥ 1).
///
/// # Panics
///
/// Panics in debug builds if `x <= 0`; the estimators never evaluate ψ at
/// non-positive arguments (counts are ≥ 1 by construction).
pub fn digamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "digamma: argument must be positive, got {x}");
    let mut x = x;
    let mut result = 0.0;
    // Recurrence: psi(x) = psi(x + 1) - 1/x, applied until x >= 10, where
    // the truncated Bernoulli series below is accurate to ~2e-14.
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic series: psi(x) ~ ln x - 1/(2x) - sum B_{2n}/(2n x^{2n}).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result += x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2
                    * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))));
    result
}

/// Natural log of the Gamma function via the Lanczos approximation (g = 7,
/// n = 9 coefficients), valid for `x > 0`.
///
/// Relative error is below `1e-13` for the arguments used in this workspace
/// (ball-volume constants and factorials).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma: argument must be positive, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Volume of the unit ball in `d` dimensions under the L2 norm:
/// `π^{d/2} / Γ(d/2 + 1)`.
///
/// Needed by k-NN differential-entropy estimators (Kozachenko–Leonenko term
/// of the KSG family) and by the KDE baseline.
pub fn unit_ball_volume_l2(d: usize) -> f64 {
    let d = d as f64;
    (0.5 * d * std::f64::consts::PI.ln() - ln_gamma(0.5 * d + 1.0)).exp()
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Acklam's rational approximation; relative error is below `1.2e-9`
/// over `(0, 1)` — orders of magnitude tighter than the seed-axis
/// sampling noise the confidence intervals built on it quantify.
/// Returns `±∞` at the endpoints and `NaN` outside `[0, 1]`.
pub(crate) fn normal_quantile(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Quantile (inverse CDF) of Student's t distribution with `df` degrees
/// of freedom.
///
/// Exact closed forms for `df = 1` (Cauchy) and `df = 2`; a fourth-order
/// Cornish–Fisher expansion around [`normal_quantile`] otherwise
/// (Abramowitz & Stegun 26.7.5) — accurate to a few `1e-3` at `df = 3`
/// and better than `1e-4` for `df ≥ 7`, the regime of 8-seed sweep
/// summaries. Returns `NaN` for `df ≤ 0` or `p` outside `[0, 1]`.
pub(crate) fn student_t_quantile(p: f64, df: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) || df <= 0.0 {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    if df == 1.0 {
        return (std::f64::consts::PI * (p - 0.5)).tan();
    }
    if df == 2.0 {
        let u = 2.0 * p - 1.0;
        return u * (2.0 / (1.0 - u * u)).sqrt();
    }
    let x = normal_quantile(p);
    let x2 = x * x;
    let g1 = x * (x2 + 1.0) / 4.0;
    let g2 = x * ((5.0 * x2 + 16.0) * x2 + 3.0) / 96.0;
    let g3 = x * (((3.0 * x2 + 19.0) * x2 + 17.0) * x2 - 15.0) / 384.0;
    let g4 = x * ((((79.0 * x2 + 776.0) * x2 + 1482.0) * x2 - 1920.0) * x2 - 945.0) / 92160.0;
    x + g1 / df + g2 / (df * df) + g3 / (df * df * df) + g4 / (df * df * df * df)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Euler–Mascheroni constant γ: `ψ(1) = −γ`.
    const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn digamma_at_one_is_minus_gamma() {
        assert!(close(digamma(1.0), -EULER_GAMMA, 1e-12));
    }

    #[test]
    fn digamma_at_half() {
        // psi(1/2) = -gamma - 2 ln 2
        let expected = -EULER_GAMMA - 2.0 * std::f64::consts::LN_2;
        assert!(close(digamma(0.5), expected, 1e-12));
    }

    #[test]
    fn digamma_matches_harmonic_numbers() {
        // ψ(n) = H_{n−1} − γ, with H_k = Σ_{i=1}^{k} 1/i.
        for n in 1..50usize {
            let harmonic: f64 = (1..n).map(|i| 1.0 / i as f64).sum();
            let expected = harmonic - EULER_GAMMA;
            assert!(
                close(digamma(n as f64), expected, 1e-11),
                "psi({n}) = {} vs {}",
                digamma(n as f64),
                expected
            );
        }
    }

    #[test]
    fn ln_gamma_factorials() {
        // Gamma(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15usize {
            assert!(close(ln_gamma(n as f64), fact.ln(), 1e-12), "lgamma({n})");
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_at_half_is_log_sqrt_pi() {
        assert!(close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-12));
    }

    #[test]
    fn ball_volumes_low_dims() {
        assert!(close(unit_ball_volume_l2(1), 2.0, 1e-12)); // interval [-1, 1]
        assert!(close(unit_ball_volume_l2(2), std::f64::consts::PI, 1e-12));
        assert!(close(
            unit_ball_volume_l2(3),
            4.0 / 3.0 * std::f64::consts::PI,
            1e-12
        ));
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        // Φ⁻¹(0.975) = 1.959963984540054, Φ⁻¹(0.995) = 2.5758293035489004
        assert!(close(normal_quantile(0.975), 1.959_963_984_540_054, 1e-8));
        assert!(close(normal_quantile(0.995), 2.575_829_303_548_9, 1e-8));
        // Symmetry and tails.
        assert!(close(normal_quantile(0.025), -normal_quantile(0.975), 1e-9));
        assert!(close(normal_quantile(1e-6), -4.753_424_308_822_899, 1e-7));
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(-0.1).is_nan());
        assert!(normal_quantile(1.1).is_nan());
    }

    #[test]
    fn student_t_quantile_matches_tables() {
        // Exact closed forms.
        assert!(close(
            student_t_quantile(0.975, 1.0),
            12.706_204_736_2,
            1e-9
        ));
        assert!(close(student_t_quantile(0.975, 2.0), 4.302_652_729_9, 1e-9));
        // Cornish–Fisher regime vs standard t tables (two-sided 95%).
        for (df, want, tol) in [
            (3.0, 3.182_446_305_3, 5e-3),
            (5.0, 2.570_581_835_6, 1e-3),
            (7.0, 2.364_624_251_6, 2e-4),
            (10.0, 2.228_138_851_99, 1e-4),
            (30.0, 2.042_272_456_3, 1e-6),
        ] {
            let got = student_t_quantile(0.975, df);
            assert!(close(got, want, tol), "t quantile df={df}: {got} vs {want}");
        }
        // Symmetry, median, degenerate inputs.
        assert!(close(
            student_t_quantile(0.05, 7.0),
            -student_t_quantile(0.95, 7.0),
            1e-12
        ));
        assert!(student_t_quantile(0.5, 9.0).abs() < 1e-9);
        assert!(student_t_quantile(0.975, 0.0).is_nan());
        assert!(student_t_quantile(2.0, 5.0).is_nan());
        assert_eq!(student_t_quantile(1.0, 5.0), f64::INFINITY);
    }

    #[test]
    fn t_quantile_approaches_normal_for_large_df() {
        let z = normal_quantile(0.975);
        assert!(close(student_t_quantile(0.975, 1e6), z, 1e-5));
    }

    proptest! {
        #[test]
        fn digamma_recurrence(x in 0.01..50.0f64) {
            // psi(x + 1) = psi(x) + 1/x
            prop_assert!(close(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10));
        }

        #[test]
        fn digamma_monotone_on_positives(x in 0.1..50.0f64, dx in 0.01..5.0f64) {
            prop_assert!(digamma(x + dx) > digamma(x));
        }

        #[test]
        fn ln_gamma_recurrence(x in 0.1..30.0f64) {
            // Gamma(x + 1) = x Gamma(x)
            prop_assert!(close(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-10));
        }

        #[test]
        fn t_quantile_monotone_and_heavier_than_normal(p in 0.51..0.999f64, df in 3.0..100.0f64) {
            // Student t has heavier tails than the normal: its upper
            // quantiles sit above Φ⁻¹, and move toward it as df grows.
            let t = student_t_quantile(p, df);
            let z = normal_quantile(p);
            prop_assert!(t >= z - 1e-9, "t({p},{df}) = {t} below normal {z}");
            prop_assert!(student_t_quantile(p + 0.0005, df) >= t - 1e-12);
        }

        #[test]
        fn ln_gamma_convex_combination(x in 1.0..20.0f64, y in 1.0..20.0f64) {
            // log-convexity of Gamma (Bohr–Mollerup): lgamma midpoint below average.
            let mid = ln_gamma(0.5 * (x + y));
            prop_assert!(mid <= 0.5 * (ln_gamma(x) + ln_gamma(y)) + 1e-12);
        }
    }
}
