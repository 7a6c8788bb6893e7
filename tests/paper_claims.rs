//! Smoke-scale verification of the paper's headline qualitative claims
//! (§6, §7). The full-scale versions are the `sops-repro` figure runs;
//! these run in seconds and guard the claims in CI.

use sops::core::figures;
use sops::core::RunOptions;
use sops::prelude::*;

fn fast_opts(seed: u64) -> RunOptions {
    RunOptions {
        fast: true,
        seed,
        threads: 0,
        out_dir: None,
    }
}

#[test]
fn claim_multi_type_collectives_self_organize() {
    // §6: "Simulations with l = 3 to 5 types ... almost always show
    // quantifiable self-organization reflected in multi-information."
    let data = figures::fig4::run(&fast_opts(101));
    assert!(
        data.mi.increase() > 1.0,
        "fig4 system must organize: {:?}",
        data.mi.values
    );
}

#[test]
fn claim_single_type_f1_rings_organize() {
    // §6: F1 with one type and r_c > 2 r forms concentric rings with
    // "a relatively high amount ... of self-organization".
    let data = figures::fig5::run(&fast_opts(102));
    assert!(
        data.mi.increase() > 1.0,
        "fig5 rings must organize: {:?}",
        data.mi.values
    );
}

#[test]
fn claim_single_type_f2_grid_organizes_weakly() {
    // §6: the single-type F2 regular grid shows very low
    // self-organization compared to structured collectives.
    let law = ForceModel::Gaussian(GaussianForce::from_preferred_distance(
        PairMatrix::constant(1, 3.0),
        &PairMatrix::constant(1, 2.0),
    ));
    let spec = EnsembleSpec {
        model: Model::balanced(16, law, 6.0),
        integrator: IntegratorConfig {
            dt: 0.05,
            substeps: 2,
            noise_variance: 0.0025,
            max_step: 0.5,
        },
        init_radius: 3.0,
        t_max: 60,
        samples: 80,
        seed: 103,
        criterion: None,
    };
    let mut scenario = ScenarioSpec::new("f2_grid", spec);
    scenario.eval_every = 60;
    let plan = SweepPlan::new(vec![scenario], vec![MeasureConfig::default()]);
    let cell = run_sweep(&plan).expect("valid plan").cells.remove(0);
    assert!(cell.status.is_ok(), "{:?}", cell.status);
    let grid = cell.result;

    let rings = figures::fig5::run(&fast_opts(103));
    assert!(
        grid.mi.increase() < rings.mi.increase(),
        "F2 grid ΔI {:.2} must be below F1 ring ΔI {:.2}",
        grid.mi.increase(),
        rings.mi.increase()
    );
}

#[test]
fn claim_long_range_interaction_organizes_more() {
    // §7.2: decreasing r_c decreases observable self-organization.
    let data = figures::fig9::run(&fast_opts(104));
    let first = data.curves.first().unwrap();
    let last = data.curves.last().unwrap();
    assert!(last.final_value() > first.final_value() + 0.5);
}

#[test]
fn claim_fewer_types_compensate_for_locality() {
    // §7.2: at fixed small r_c, fewer types ⇒ more self-organization.
    let data = figures::fig10::run(&fast_opts(105));
    let five = data.final_value(5, 10.0).unwrap();
    let twenty = data.final_value(20, 10.0).unwrap();
    assert!(five > twenty);
}

#[test]
fn claim_decomposition_settles_while_total_rises() {
    // §6.1.1 / Fig 11: relative contributions settle after the early
    // phase even though the total multi-information still grows.
    let data = figures::fig11::run(&fast_opts(106));
    assert!(data.total.last().unwrap() > data.total.first().unwrap());
    if let Some((early, late)) = data.settling() {
        assert!(
            late < early * 1.5,
            "late-phase spread {late} should not exceed early spread {early} much"
        );
    }
}

#[test]
fn claim_emergent_structures_under_local_interactions() {
    // §7.2 / Fig 12: few types + limited r_c produce layered structures.
    let data = figures::fig12::run(&fast_opts(107));
    assert!(data.panels.iter().all(|p| p.stratification > 0.3));
}
