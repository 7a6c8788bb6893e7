//! Property-based integration tests of the shape-reduction stack:
//! random configurations, random elements of the invariance group
//! `ISO⁺(2) × S*_n`, and the requirement that reduction undoes them.

use proptest::prelude::*;
use sops::prelude::*;
use sops::shape::ensemble::{reduce_configurations, ReduceConfig};
use sops::shape::{icp_align, match_types, RigidTransform};

fn arb_cloud(n: usize) -> impl Strategy<Value = Vec<Vec2>> {
    proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), n..=n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Vec2::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reduction_undoes_group_elements(
        cloud in arb_cloud(12),
        angle in -3.1..3.1f64,
        tx in -15.0..15.0f64,
        ty in -15.0..15.0f64,
        shuffle_seed in 0..u64::MAX
    ) {
        // Skip degenerate nearly-coincident clouds where the optimal
        // correspondence is ambiguous.
        let mut min_dist = f64::INFINITY;
        for i in 0..cloud.len() {
            for j in (i + 1)..cloud.len() {
                min_dist = min_dist.min(cloud[i].dist(cloud[j]));
            }
        }
        prop_assume!(min_dist > 0.5);

        let types: Vec<u16> = (0..cloud.len()).map(|i| (i % 3) as u16).collect();
        // Build sample 1 = transformed + same-type-shuffled copy of sample 0.
        let t = RigidTransform { rotation: angle, translation: Vec2::new(tx, ty) };
        let mut rng = SplitMix64::new(shuffle_seed);
        let mut moved: Vec<Vec2> = cloud.iter().map(|&p| t.apply(p)).collect();
        for ty_id in 0..3u16 {
            let idx: Vec<usize> = (0..types.len()).filter(|&i| types[i] == ty_id).collect();
            let mut perm = idx.clone();
            for i in (1..perm.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                perm.swap(i, j);
            }
            let snapshot = moved.clone();
            for (a, b) in idx.iter().zip(&perm) {
                moved[*a] = snapshot[*b];
            }
        }
        let views: Vec<&[Vec2]> = vec![&cloud, &moved];
        let reduced = reduce_configurations(&views, &types, &ReduceConfig::default());
        for i in 0..cloud.len() {
            let d = reduced.configs[0][i].dist(reduced.configs[1][i]);
            prop_assert!(d < 1e-4, "particle {i} off by {d}");
        }
    }

    #[test]
    fn icp_cost_zero_for_exact_copies(
        cloud in arb_cloud(10),
        angle in -3.1..3.1f64
    ) {
        let types: Vec<u16> = vec![0; cloud.len()];
        let t = RigidTransform { rotation: angle, translation: Vec2::new(1.0, -2.0) };
        let moved: Vec<Vec2> = cloud.iter().map(|&p| t.inverse().apply(p)).collect();
        let res = icp_align(&cloud, &moved, &types, &Default::default());
        prop_assert!(res.cost < 1e-9, "cost {}", res.cost);
    }

    #[test]
    fn matching_total_cost_is_optimal_vs_identity(
        cloud in arb_cloud(8),
        other in arb_cloud(8)
    ) {
        let types: Vec<u16> = vec![0; 8];
        let perm = match_types(&cloud, &other, &types);
        let matched: f64 = perm
            .iter()
            .enumerate()
            .map(|(i, &j)| cloud[i].dist_sq(other[j]))
            .sum();
        let identity: f64 = cloud
            .iter()
            .zip(&other)
            .map(|(a, b)| a.dist_sq(*b))
            .sum();
        prop_assert!(matched <= identity + 1e-9);
    }

    #[test]
    fn mi_estimate_finite_on_arbitrary_ensembles(
        seed in 0..u64::MAX,
        m in 20..60usize
    ) {
        // Random data through the whole estimator stack never produces
        // NaN/inf.
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f64> = (0..m * 6).map(|_| rng.next_range(-100.0, 100.0)).collect();
        let sizes = [2usize, 2, 2];
        let view = SampleView::new(&data, m, &sizes);
        let mi = MeasureWorkspace::new()
            .estimator_mut(&MeasureConfig::Ksg(KsgConfig { k: 3, ..KsgConfig::default() }))
            .measure(&view);
        prop_assert!(mi.is_finite());
    }
}
