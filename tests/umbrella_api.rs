//! The umbrella crate's public surface: every `sops::prelude` re-export
//! must resolve and be constructible, and the quickstart example's logic
//! must run end-to-end (at smoke scale — fewer samples and steps than
//! `examples/quickstart.rs`, same structure).

use sops::core::report::{self, Series};
use sops::prelude::*;

/// Touch every name the prelude exports. This is a compile-time guarantee
/// first (an unresolved re-export fails the build) and a runtime sanity
/// check second.
#[test]
fn every_prelude_export_resolves() {
    // sops-math
    let v = Vec2::new(3.0, 4.0);
    assert_eq!(v.norm(), 5.0);
    let m = Matrix::identity(3);
    assert_eq!(m.as_slice().len(), 9);
    let pm = PairMatrix::constant(2, 1.5);
    assert_eq!(pm.get(0, 1), 1.5);
    let mut rng = SplitMix64::new(9);
    let _ = rng.next_u64();

    // sops-sim
    let k = PairMatrix::constant(2, 1.0);
    let r = PairMatrix::constant(2, 2.0);
    let linear = ForceModel::Linear(LinearForce::new(k.clone(), r.clone()));
    let sigma = PairMatrix::constant(2, 1.0);
    let tau = PairMatrix::constant(2, 2.0);
    let _gaussian = ForceModel::Gaussian(GaussianForce::new(k, sigma, tau));
    let model = Model::balanced(8, linear, f64::INFINITY);
    let integrator = IntegratorConfig::default();
    let criterion = EquilibriumCriterion::default();
    let spec = EnsembleSpec {
        model: model.clone(),
        integrator,
        init_radius: 2.0,
        t_max: 5,
        samples: 3,
        seed: 7,
        criterion: Some(criterion),
    };
    let ensemble = run_streaming_ensemble(&spec, &[spec.t_max], 1, &StreamingConfig::default());
    assert_eq!(EnsembleFrames::Streaming(&ensemble).samples(), 3);
    let mut sim = Simulation::with_disc_init(model, IntegratorConfig::default(), 2.0, 11);
    let traj = sim.run(3, None);
    assert!(!traj.last().is_empty());

    // sops-shape
    let icp_cfg = IcpConfig::default();
    let pts: Vec<Vec2> = (0..6)
        .map(|i| Vec2::new(i as f64, (i * i) as f64 * 0.1))
        .collect();
    let types = vec![0u16; 6];
    let res = icp_align_with(&mut IcpScratch::new(), &pts, &pts, &types, &icp_cfg);
    assert!(res.cost < 1e-9, "self-alignment cost {}", res.cost);
    let _t: RigidTransform = res.transform;

    // sops-info
    let ksg = KsgConfig::default();
    let _ = KsgVariant::Ksg1;
    let data: Vec<f64> = (0..40).map(|i| (i as f64 * 0.73).sin()).collect();
    let view = SampleView::new(&data, 20, &[1, 1]);
    let mut ws = MeasureWorkspace::new();
    let mi = ws.estimator_mut(&MeasureConfig::Ksg(ksg)).measure(&view);
    assert!(mi.is_finite());

    // sops-core
    let _ = ObserverMode::PerParticle;
    let _ = ObserverMode::TypeMeans { k_per_type: 2 };
    let _ = RunOptions::default();
    let empty = MiSeries {
        times: Vec::new(),
        values: Vec::new(),
    };
    assert_eq!(empty.increase(), 0.0);
}

/// The quickstart example end-to-end at smoke scale: simulate a two-type
/// collective, factor out the shape symmetries, estimate the
/// multi-information series, and render the report.
#[test]
fn quickstart_logic_runs_end_to_end() {
    let force_scale = PairMatrix::constant(2, 1.0);
    let mut preferred = PairMatrix::constant(2, 1.0);
    preferred.set(0, 1, 2.5);
    let law = ForceModel::Linear(LinearForce::new(force_scale, preferred));
    let model = Model::balanced(12, law, f64::INFINITY);

    let spec = EnsembleSpec {
        model,
        integrator: IntegratorConfig::default(),
        init_radius: 2.5,
        t_max: 20,
        samples: 30,
        seed: 42,
        criterion: Some(EquilibriumCriterion::default()),
    };

    let mut scenario = ScenarioSpec::new("quickstart", spec);
    scenario.eval_every = 10;
    let plan = SweepPlan::new(vec![scenario.clone()], vec![MeasureConfig::default()]);
    let cell = run_sweep(&plan).expect("valid plan").cells.remove(0);
    assert!(cell.status.is_ok(), "{:?}", cell.status);
    let result: PipelineResult = cell.result;

    assert_eq!(result.mi.times.len(), result.mi.values.len());
    assert!(!result.mi.values.is_empty());
    assert!(result.mi.values.iter().all(|v| v.is_finite()));
    assert!(result.mi.increase().is_finite());
    assert!((0.0..=1.0).contains(&result.equilibrated_fraction));

    // The reporting path the example prints.
    let xs: Vec<f64> = result.mi.times.iter().map(|&t| t as f64).collect();
    let series = Series::from_xy("I(W1..Wn) [bits]", &xs, &result.mi.values);
    let chart = report::line_chart("multi-information over time", &[series], 60, 14);
    assert!(chart.contains("multi-information over time"));

    // Evaluating a streamed ensemble held by the caller must agree with
    // the cell.
    let streamed = run_streaming_ensemble(
        &scenario.ensemble,
        &scenario.eval_times(),
        plan.threads,
        &StreamingConfig::default(),
    );
    let reused = SweepRunner::new()
        .evaluate_frames(
            EnsembleFrames::Streaming(&streamed),
            &scenario,
            &plan.measures,
            plan.threads,
        )
        .remove(0);
    assert_eq!(result.mi.values, reused.mi.values);
}
