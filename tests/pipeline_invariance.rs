//! Cross-crate invariance tests: the measurement must not depend on the
//! shape-irrelevant degrees of freedom the paper factors out (§4.2) —
//! global rigid motions and same-type permutations of the samples.

use sops::prelude::*;
use sops::shape::RigidTransform;
use sops::shape::{reduce_configurations_with, ReduceConfig, ReduceWorkspace};

fn organized_ensemble(samples: usize) -> (Vec<Vec<Vec2>>, Vec<u16>) {
    // Simulate a small organizing system and take its final slice.
    let k = PairMatrix::constant(2, 1.0);
    let mut r = PairMatrix::constant(2, 1.0);
    r.set(0, 1, 2.5);
    let model = Model::balanced(
        10,
        ForceModel::Linear(LinearForce::new(k, r)),
        f64::INFINITY,
    );
    let types = model.types().to_vec();
    let spec = EnsembleSpec {
        model,
        integrator: IntegratorConfig::default(),
        init_radius: 2.0,
        t_max: 40,
        samples,
        seed: 17,
        criterion: None,
    };
    let ensemble = run_streaming_ensemble(&spec, &[40], 0, &StreamingConfig::default());
    let frames = EnsembleFrames::Streaming(&ensemble);
    let (mut stage, mut final_slice) = (Vec::new(), Vec::new());
    frames.at_time_into(40, &mut stage, &mut final_slice);
    let slice: Vec<Vec<Vec2>> = final_slice.iter().map(|s| s.to_vec()).collect();
    (slice, types)
}

fn mi_of_slice(slice: &[Vec<Vec2>], types: &[u16]) -> f64 {
    let views: Vec<&[Vec2]> = slice.iter().map(|s| s.as_slice()).collect();
    let reduced = reduce_configurations_with(
        &mut ReduceWorkspace::new(),
        &views,
        types,
        &ReduceConfig::default(),
    );
    let data = sops::shape::ensemble::flatten_reduced(&reduced);
    let sizes = vec![2usize; types.len()];
    let view = SampleView::new(&data, slice.len(), &sizes);
    MeasureWorkspace::new()
        .estimator_mut(&MeasureConfig::Ksg(KsgConfig::default()))
        .measure(&view)
}

#[test]
fn mi_invariant_under_per_sample_rigid_motions() {
    let (slice, types) = organized_ensemble(80);
    let base = mi_of_slice(&slice, &types);

    // Give every sample its own random rotation + translation.
    let mut rng = SplitMix64::new(99);
    let transformed: Vec<Vec<Vec2>> = slice
        .iter()
        .map(|sample| {
            let t = RigidTransform {
                rotation: rng.next_range(-3.0, 3.0),
                translation: Vec2::new(rng.next_range(-20.0, 20.0), rng.next_range(-20.0, 20.0)),
            };
            sample.iter().map(|&p| t.apply(p)).collect()
        })
        .collect();
    let moved = mi_of_slice(&transformed, &types);
    // The reduction is exact up to ICP ambiguity: per-sample restart
    // grids are orientation-dependent, so near-symmetric samples can land
    // in different alignment optima after a rigid motion. The residual is
    // estimator-level noise, well below the signal (ΔI of several bits).
    assert!(
        (base - moved).abs() < 0.7,
        "rigid motions must not change the measured organization: {base:.3} vs {moved:.3}"
    );
}

#[test]
fn mi_invariant_under_same_type_shuffles() {
    let (slice, types) = organized_ensemble(80);
    let base = mi_of_slice(&slice, &types);

    // Shuffle particles within each type, per sample.
    let mut rng = SplitMix64::new(5);
    let shuffled: Vec<Vec<Vec2>> = slice
        .iter()
        .map(|sample| {
            let mut out = sample.clone();
            for t in 0..2u16 {
                let idx: Vec<usize> = (0..types.len()).filter(|&i| types[i] == t).collect();
                let mut perm = idx.clone();
                for i in (1..perm.len()).rev() {
                    let j = rng.next_below(i as u64 + 1) as usize;
                    perm.swap(i, j);
                }
                for (a, b) in idx.iter().zip(&perm) {
                    out[*a] = sample[*b];
                }
            }
            out
        })
        .collect();
    let moved = mi_of_slice(&shuffled, &types);
    assert!(
        (base - moved).abs() < 0.7,
        "same-type shuffles must not change the measurement: {base:.3} vs {moved:.3}"
    );
}

#[test]
fn reduction_centres_and_preserves_distances() {
    let (slice, types) = organized_ensemble(20);
    let views: Vec<&[Vec2]> = slice.iter().map(|s| s.as_slice()).collect();
    let reduced = reduce_configurations_with(
        &mut ReduceWorkspace::new(),
        &views,
        &types,
        &ReduceConfig::default(),
    );
    for (orig, red) in slice.iter().zip(&reduced.configs) {
        // Centred up to the ICP fit translation (nearest-neighbour
        // correspondences are not always bijective, so the matched-target
        // centroid can sit slightly off the reference centroid).
        assert!(Vec2::centroid(red).norm() < 0.5);
        // Pairwise distance *multisets* are preserved (reduction is a
        // rigid motion + permutation of the original sample).
        let mut d_orig: Vec<f64> = Vec::new();
        let mut d_red: Vec<f64> = Vec::new();
        for i in 0..orig.len() {
            for j in (i + 1)..orig.len() {
                d_orig.push(orig[i].dist(orig[j]));
                d_red.push(red[i].dist(red[j]));
            }
        }
        d_orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d_red.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (a, b) in d_orig.iter().zip(&d_red) {
            assert!(
                (a - b).abs() < 1e-6,
                "distance multiset changed: {a} vs {b}"
            );
        }
    }
}

#[test]
fn observer_mode_kmeans_tracks_per_particle_trend() {
    // The §5.3.1 approximation must agree with per-particle observers on
    // the *direction* of the effect (organization present).
    let k = PairMatrix::constant(2, 1.0);
    let mut r = PairMatrix::constant(2, 1.0);
    r.set(0, 1, 2.5);
    let model = Model::balanced(
        12,
        ForceModel::Linear(LinearForce::new(k, r)),
        f64::INFINITY,
    );
    let spec = EnsembleSpec {
        model,
        integrator: IntegratorConfig::default(),
        init_radius: 2.0,
        t_max: 30,
        samples: 60,
        seed: 31,
        criterion: None,
    };
    let mut per_particle = ScenarioSpec::new("per_particle", spec.clone());
    per_particle.eval_every = 30;
    let mut kmeans = ScenarioSpec::new("kmeans", spec);
    kmeans.eval_every = 30;
    kmeans.observers = ObserverMode::TypeMeans { k_per_type: 2 };

    let plan = SweepPlan::new(vec![per_particle, kmeans], vec![MeasureConfig::default()]);
    let report = run_sweep(&plan).expect("valid plan");
    assert!(!report.has_failures());
    let a = &report.cells[0].result;
    let b = &report.cells[1].result;
    assert!(a.mi.increase() > 0.3, "per-particle: {:?}", a.mi.values);
    assert!(b.mi.increase() > 0.1, "k-means approx: {:?}", b.mi.values);
}
