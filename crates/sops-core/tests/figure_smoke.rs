//! Smoke coverage for every figure generator.
//!
//! `tests/paper_claims.rs` (umbrella crate) checks the *claims* of a subset
//! of figures; these tests only assert that each `figN::run` completes at
//! smoke scale and produces finite, non-empty series, so a regression in
//! any generator is caught even where no paper claim is asserted, and that
//! the ΔI figures' output does not depend on the worker count.

use sops_core::figures;
use sops_core::RunOptions;

fn fast_opts() -> RunOptions {
    RunOptions {
        fast: true,
        seed: 0xF16_57707,
        ..RunOptions::default()
    }
}

fn assert_finite_series(name: &str, values: &[f64]) {
    assert!(!values.is_empty(), "{name}: empty series");
    for (i, v) in values.iter().enumerate() {
        assert!(v.is_finite(), "{name}[{i}] = {v} is not finite");
    }
}

#[test]
fn fig1_smoke() {
    let d = figures::fig1::run(&fast_opts());
    assert!(!d.config.is_empty());
    assert_eq!(d.config.len(), d.types.len());
    assert_finite_series("separation", &[d.type_separation, d.initial_separation]);
}

#[test]
fn fig2_smoke() {
    let d = figures::fig2::run(&fast_opts());
    assert_eq!(d.x.len(), d.f1.len());
    assert_eq!(d.x.len(), d.f2.len());
    assert_finite_series("f1", &d.f1);
    assert_finite_series("f2", &d.f2);
}

#[test]
fn fig3_smoke() {
    let d = figures::fig3::run(&fast_opts());
    assert!(!d.panels.is_empty());
    for p in &d.panels {
        assert!(!p.config.is_empty(), "l={}: empty configuration", p.types);
        assert_finite_series(&format!("l={} nn_cv", p.types), &[p.nn_cv]);
    }
}

#[test]
fn fig4_smoke() {
    let d = figures::fig4::run(&fast_opts());
    assert_eq!(d.mi.times.len(), d.mi.values.len());
    assert_finite_series("mi", &d.mi.values);
    assert!(!d.snapshots.is_empty());
}

#[test]
fn fig5_smoke() {
    let d = figures::fig5::run(&fast_opts());
    assert_eq!(d.mi.times.len(), d.mi.values.len());
    assert_finite_series("mi", &d.mi.values);
}

#[test]
fn fig6_smoke() {
    let d = figures::fig6::run(&fast_opts());
    assert!(!d.snapshots.is_empty());
    assert_finite_series("spread", &[d.rg_std, d.separation_std]);
    assert!(!d.categories.is_empty());
}

#[test]
fn fig7_smoke() {
    let d = figures::fig7::run(&fast_opts());
    assert!(!d.overlay.is_empty());
    assert_finite_series("dispersion", &d.dispersion);
    for (radius, dispersion, members) in &d.rings {
        assert!(radius.is_finite() && dispersion.is_finite());
        assert!(*members > 0);
    }
}

#[test]
fn fig8_smoke() {
    let d = figures::fig8::run(&fast_opts());
    assert_eq!(d.type_counts.len(), d.delta_i.len());
    assert_finite_series("delta_i", &d.delta_i);
    assert_finite_series("delta_i_std", &d.delta_i_std);
    assert!(d.draws > 0);
}

#[test]
fn fig9_smoke() {
    let d = figures::fig9::run(&fast_opts());
    assert_eq!(d.curves.len(), d.cutoffs.len());
    for c in &d.curves {
        assert_eq!(c.times.len(), c.mean_mi.len());
        assert_finite_series(&c.label, &c.mean_mi);
    }
}

#[test]
fn fig10_smoke() {
    let d = figures::fig10::run(&fast_opts());
    assert_eq!(d.curves.len(), d.combos.len());
    for c in &d.curves {
        assert_eq!(c.times.len(), c.mean_mi.len());
        assert_finite_series(&c.label, &c.mean_mi);
    }
}

#[test]
fn fig11_smoke() {
    let d = figures::fig11::run(&fast_opts());
    assert_eq!(d.times.len(), d.normalized.len());
    assert_eq!(d.times.len(), d.total.len());
    assert_finite_series("total", &d.total);
    for row in d.normalized.iter().flatten() {
        assert_finite_series("normalized row", row);
    }
}

#[test]
fn fig12_smoke() {
    let d = figures::fig12::run(&fast_opts());
    assert!(!d.panels.is_empty());
    for p in &d.panels {
        assert!(!p.config.is_empty(), "{}: empty configuration", p.label);
        assert_finite_series(&p.label, &[p.stratification]);
    }
}

#[test]
fn figure_output_is_independent_of_thread_count() {
    // The determinism contract at figure level: every ΔI figure runs its
    // cells through the sweep engine (figs 9 and 10 share `sweep_curve`,
    // whose F¹ ensembles step their samples in lockstep lanes), fig 11
    // through the decomposition pass, figs 6 and 7 read streamed frames,
    // and fig 3 its panels side by side; none may let the worker count
    // into a single bit of its output.
    let at = |threads| -> Vec<String> {
        let opts = RunOptions {
            threads,
            ..fast_opts()
        };
        vec![
            format!("{:?}", figures::fig3::run(&opts)),
            format!("{:?}", figures::fig4::run(&opts)),
            format!("{:?}", figures::fig5::run(&opts)),
            format!("{:?}", figures::fig6::run(&opts)),
            format!("{:?}", figures::fig7::run(&opts)),
            format!("{:?}", figures::fig8::run(&opts)),
            format!("{:?}", figures::fig9::run(&opts)),
            format!("{:?}", figures::fig10::run(&opts)),
            format!("{:?}", figures::fig11::run(&opts)),
        ]
    };
    let (one, three) = (at(1), at(3));
    for (fig, (a, b)) in [
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    ]
    .iter()
    .zip(one.iter().zip(&three))
    {
        assert_eq!(a, b, "{fig}: threads 1 vs 3");
    }
}
