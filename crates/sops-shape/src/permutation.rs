//! Cross-sample permutation reduction (paper §5.2).
//!
//! After rigid alignment, particles of the same type are re-indexed so
//! that "particles close to each other in different samples at the same
//! time are considered to represent the same particle". The optimal
//! type-preserving bijection minimizing total squared distance is computed
//! per type with the Hungarian algorithm (see [`crate::hungarian_with`] for
//! why greedy nearest-neighbour is not enough).

use crate::assignment::{hungarian_with, HungarianScratch};
use sops_math::Vec2;

/// Reusable buffers for [`match_types_into`]: per-type index groups, the
/// per-type cost matrix and assignment, and the Hungarian solver's own
/// scratch. The shape-reduction workers hold one per worker
/// ([`crate::ensemble::ReduceWorkspace`]) so the permutation step stops
/// allocating per sample.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Global indices grouped by type (outer vec never shrinks).
    by_type: Vec<Vec<usize>>,
    /// Cost matrix of the type currently being matched.
    costs: Vec<f64>,
    /// Assignment output of the Hungarian solver.
    assignment: Vec<usize>,
    /// The solver's internal buffers.
    hungarian: HungarianScratch,
}

impl MatchScratch {
    /// Empty scratch; buffers grow to the workload size on first use.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Capacities of the internal buffers (zero-allocation contract).
    /// The signature length itself is part of the contract: a growing
    /// `by_type` shows up as a longer vector.
    pub(crate) fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.by_type.len());
        for group in &self.by_type {
            sig.push(group.capacity());
        }
        sig.push(self.costs.capacity());
        sig.push(self.assignment.capacity());
        self.hungarian.capacity_signature(sig);
    }
}

/// Computes the type-preserving bijection between `reference` and
/// `moving` minimizing the total squared correspondence distance, with
/// caller-provided scratch and output buffer — the allocation-free form.
///
/// `perm` is cleared and refilled with `perm[ref_index] = moving_index`:
/// the moving particle that plays the role of reference particle
/// `ref_index`.
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn match_types_into(
    scratch: &mut MatchScratch,
    reference: &[Vec2],
    moving: &[Vec2],
    types: &[u16],
    perm: &mut Vec<usize>,
) {
    assert_eq!(reference.len(), moving.len(), "match_types: size mismatch");
    assert_eq!(reference.len(), types.len(), "match_types: types mismatch");
    let n = reference.len();
    let type_count = types.iter().map(|&t| t as usize + 1).max().unwrap_or(0);

    // Group global indices by type (identical layout in both sets). The
    // outer vec only grows, so per-type capacities persist across calls.
    while scratch.by_type.len() < type_count {
        scratch.by_type.push(Vec::new());
    }
    for group in &mut scratch.by_type {
        group.clear();
    }
    for (i, &t) in types.iter().enumerate() {
        scratch.by_type[t as usize].push(i);
    }

    perm.clear();
    perm.resize(n, usize::MAX);
    let MatchScratch {
        by_type,
        costs,
        assignment,
        hungarian,
    } = scratch;
    for members in by_type.iter().filter(|m| !m.is_empty()) {
        let k = members.len();
        if k == 1 {
            perm[members[0]] = members[0];
            continue;
        }
        // costs[(ref_local, mov_local)] = squared distance.
        costs.clear();
        costs.reserve(k * k);
        for &ri in members {
            for &mi in members {
                costs.push(reference[ri].dist_sq(moving[mi]));
            }
        }
        hungarian_with(hungarian, k, costs, assignment);
        for (ref_local, &mov_local) in assignment.iter().enumerate() {
            perm[members[ref_local]] = members[mov_local];
        }
    }
    debug_assert!(perm.iter().all(|&p| p != usize::MAX));
}

/// Applies a matching: `out[i] = moving[perm[i]]`, i.e. re-indexes the
/// moving configuration into the reference's particle ordering.
pub fn apply_matching(perm: &[usize], moving: &[Vec2]) -> Vec<Vec2> {
    perm.iter().map(|&j| moving[j]).collect()
}

/// Total squared distance achieved by a matching — the residual of
/// [`crate::distance`]'s shape distance.
pub(crate) fn matching_cost(reference: &[Vec2], moving: &[Vec2], perm: &[usize]) -> f64 {
    perm.iter()
        .enumerate()
        .map(|(i, &j)| reference[i].dist_sq(moving[j]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One matching on a fresh scratch.
    fn match_types_fresh(reference: &[Vec2], moving: &[Vec2], types: &[u16]) -> Vec<usize> {
        let mut perm = Vec::new();
        match_types_into(
            &mut MatchScratch::new(),
            reference,
            moving,
            types,
            &mut perm,
        );
        perm
    }

    #[test]
    fn identity_when_already_matched() {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
        ];
        let perm = match_types_fresh(&pts, &pts, &[0, 0, 0]);
        assert_eq!(perm, vec![0, 1, 2]);
    }

    #[test]
    fn recovers_a_swap() {
        let reference = vec![Vec2::new(0.0, 0.0), Vec2::new(5.0, 0.0)];
        let moving = vec![Vec2::new(5.1, 0.0), Vec2::new(-0.1, 0.0)];
        let perm = match_types_fresh(&reference, &moving, &[0, 0]);
        assert_eq!(perm, vec![1, 0]);
        let fixed = apply_matching(&perm, &moving);
        assert!((fixed[0] - reference[0]).norm() < 0.2);
        assert!((fixed[1] - reference[1]).norm() < 0.2);
    }

    #[test]
    fn types_restrict_matching() {
        // Moving type-0 particle is nearest a reference type-1 particle;
        // it must still be matched within type 0.
        let reference = vec![Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)];
        let moving = vec![Vec2::new(0.9, 0.0), Vec2::new(5.0, 0.0)];
        let types = vec![0u16, 1];
        let perm = match_types_fresh(&reference, &moving, &types);
        assert_eq!(perm, vec![0, 1], "no cross-type reassignment allowed");
    }

    #[test]
    fn beats_greedy_on_crowding() {
        // Greedy NN would map both moving points to reference point 0;
        // Hungarian must produce a bijection with lower total cost than
        // any non-bijective greedy repair.
        let reference = vec![Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0)];
        let moving = vec![Vec2::new(0.4, 0.0), Vec2::new(0.6, 0.0)];
        let perm = match_types_fresh(&reference, &moving, &[0, 0]);
        // Optimal: 0 -> 0 (0.16), 1 -> 1 ((2-0.6)^2 = 1.96) total 2.12;
        // the swap would cost 0.36 + 2.56 = 2.92.
        assert_eq!(perm, vec![0, 1]);
        assert!((matching_cost(&reference, &moving, &perm) - 2.12).abs() < 1e-12);
    }

    #[test]
    fn singleton_types_map_to_themselves() {
        let reference = vec![Vec2::new(0.0, 0.0), Vec2::new(9.0, 9.0)];
        let moving = vec![Vec2::new(1.0, 1.0), Vec2::new(8.0, 8.0)];
        let perm = match_types_fresh(&reference, &moving, &[0, 1]);
        assert_eq!(perm, vec![0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matching_is_type_preserving_bijection(seed in 0..u64::MAX, n in 2..30usize) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let types: Vec<u16> = (0..n).map(|_| (rng.next_below(3)) as u16).collect();
            let reference: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)))
                .collect();
            let moving: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)))
                .collect();
            let perm = match_types_fresh(&reference, &moving, &types);
            // Bijection.
            let mut seen = vec![false; n];
            for &j in &perm {
                prop_assert!(!seen[j]);
                seen[j] = true;
            }
            // Type preserving.
            for (i, &j) in perm.iter().enumerate() {
                prop_assert_eq!(types[i], types[j]);
            }
        }

        #[test]
        fn undoes_random_same_type_shuffles(seed in 0..u64::MAX, n in 2..20usize) {
            let mut rng = sops_math::SplitMix64::new(seed);
            let types: Vec<u16> = (0..n).map(|_| (rng.next_below(2)) as u16).collect();
            let reference: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.next_range(-50.0, 50.0), rng.next_range(-50.0, 50.0)))
                .collect();
            // Shuffle within types (Fisher-Yates over each type's members).
            let mut perm_true: Vec<usize> = (0..n).collect();
            for t in 0..2u16 {
                let members: Vec<usize> = (0..n).filter(|&i| types[i] == t).collect();
                let mut shuffled = members.clone();
                for i in (1..shuffled.len()).rev() {
                    let j = rng.next_below(i as u64 + 1) as usize;
                    shuffled.swap(i, j);
                }
                for (a, b) in members.iter().zip(&shuffled) {
                    perm_true[*a] = *b;
                }
            }
            let moving: Vec<Vec2> = (0..n).map(|i| reference[perm_true[i]]).collect();
            // moving[i] = reference[perm_true[i]] => matching moving back
            // onto reference must recover reference exactly.
            let perm = match_types_fresh(&reference, &moving, &types);
            let restored = apply_matching(&perm, &moving);
            for (r, p) in reference.iter().zip(&restored) {
                prop_assert!((*r - *p).norm() < 1e-9);
            }
        }
    }
}
