//! Whole-ensemble reduction: centre, align and re-index every sample of a
//! cross-sample slice (all samples at one time step) against a common
//! reference (paper §5.2).
//!
//! The output configurations live in the reduced shape space `W`: their
//! statistics feed the multi-information estimator. The correspondence
//! established here links particles *across samples* at a fixed time; the
//! paper notes the particle identity *over time* is deliberately lost.

use crate::icp::{icp_align_with, IcpConfig, IcpScratch};
use crate::permutation::{apply_matching, match_types_into, MatchScratch};
use sops_math::Vec2;

/// How much of the shape-space reduction to apply per sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReduceMode {
    /// Centre → ICP-align → optimal same-type re-indexing (paper §5.2).
    /// The Hungarian matching step is O(k³) in the per-type particle
    /// count, which caps this mode at lab scale.
    #[default]
    Full,
    /// Centre on the centroid only: translation-free but not rotation- or
    /// permutation-reduced. Linear in `n` — the tractable mode for the
    /// 10⁵-particle gallery scenarios, where type-mean observers make the
    /// per-particle correspondence irrelevant anyway.
    Centred,
}

/// Configuration for [`reduce_configurations`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReduceConfig {
    /// ICP parameters used per sample.
    pub icp: IcpConfig,
    /// Index of the sample used as alignment reference.
    pub reference: usize,
    /// Worker threads (0 = default).
    pub threads: usize,
    /// Which reduction steps to apply.
    pub mode: ReduceMode,
}

/// The reduced (isometry- and permutation-free) representative of each
/// sample, plus per-sample alignment costs for diagnostics.
#[derive(Debug, Clone)]
pub struct ReducedSet {
    /// `configs[s][i]` — position of (reference-indexed) particle `i` in
    /// reduced sample `s`.
    pub configs: Vec<Vec<Vec2>>,
    /// Final ICP mean squared correspondence distance per sample (0 for
    /// the reference itself).
    pub icp_costs: Vec<f64>,
}

/// Per-worker scratch of the reduction loop: ICP buffers and reference
/// lanes, Hungarian matching buffers, and the moving-configuration staging
/// vectors. Each worker reuses its scratch across every sample it claims.
#[derive(Debug, Clone, Default)]
struct ReduceScratch {
    icp: IcpScratch,
    matching: MatchScratch,
    moving: Vec<Vec2>,
    perm: Vec<usize>,
}

impl ReduceScratch {
    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        self.icp.capacity_signature(sig);
        self.matching.capacity_signature(sig);
        sig.push(self.moving.capacity());
        sig.push(self.perm.capacity());
    }
}

/// Persistent buffers for [`reduce_configurations_with`]: one
/// `ReduceScratch` per reduction worker plus the shared centred
/// reference. The pipeline's evaluation workers hold one workspace each,
/// so the per-sample ICP/Hungarian scratch is reused across every time
/// step a worker claims — the shape-space sibling of
/// `sops_info::MeasureWorkspace`.
#[derive(Debug, Clone, Default)]
pub struct ReduceWorkspace {
    workers: Vec<ReduceScratch>,
    reference: Vec<Vec2>,
}

impl ReduceWorkspace {
    /// An empty workspace; buffers grow to the workload size on first use.
    pub fn new() -> Self {
        ReduceWorkspace::default()
    }

    /// Capacities of every internal buffer — constant for a warmed-up
    /// workspace driving a bounded workload (the zero-allocation
    /// contract; the per-sample *output* configurations are the return
    /// value and excluded, like every workspace in this repo).
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![self.workers.len(), self.reference.capacity()];
        for worker in &self.workers {
            worker.capacity_signature(&mut sig);
        }
        sig
    }
}

/// Reduces every sample in `samples` (one configuration per ensemble run,
/// all at the same time step) to the canonical shape frame.
///
/// Steps per sample: centre on centroid → ICP-align to the centred
/// reference sample → optimal same-type re-indexing to reference order.
///
/// Convenience shim over [`reduce_configurations_with`]; repeated callers
/// (the pipeline's evaluation loop) should hold a [`ReduceWorkspace`].
///
/// # Panics
///
/// Panics if `samples` is empty, sizes are inconsistent, or
/// `cfg.reference` is out of range.
pub fn reduce_configurations(samples: &[&[Vec2]], types: &[u16], cfg: &ReduceConfig) -> ReducedSet {
    reduce_configurations_with(&mut ReduceWorkspace::new(), samples, types, cfg)
}

/// [`reduce_configurations`] with persistent per-worker scratch — the
/// form the pipeline's evaluation workers drive. Results are identical
/// to [`reduce_configurations`] for any worker count (outputs are written
/// into per-sample slots; the scratch only caches buffer capacity).
pub fn reduce_configurations_with(
    ws: &mut ReduceWorkspace,
    samples: &[&[Vec2]],
    types: &[u16],
    cfg: &ReduceConfig,
) -> ReducedSet {
    assert!(!samples.is_empty(), "reduce_configurations: no samples");
    assert!(
        cfg.reference < samples.len(),
        "reduce_configurations: reference index out of range"
    );
    let n = types.len();
    assert!(
        samples.iter().all(|s| s.len() == n),
        "reduce_configurations: sample size mismatch"
    );

    // Centred reference.
    ws.reference.clear();
    ws.reference.extend_from_slice(samples[cfg.reference]);
    crate::center(&mut ws.reference);

    let threads = if cfg.threads == 0 {
        sops_par::default_threads()
    } else {
        cfg.threads
    };
    let threads = threads.max(1).min(samples.len());
    while ws.workers.len() < threads {
        ws.workers.push(ReduceScratch::default());
    }
    let ReduceWorkspace { workers, reference } = ws;
    let reference = &*reference;
    let reduced: Vec<(Vec<Vec2>, f64)> =
        sops_par::parallel_map_with(samples.len(), &mut workers[..threads], |scratch, s| {
            if s == cfg.reference {
                return (reference.clone(), 0.0);
            }
            let ReduceScratch {
                icp,
                matching,
                moving,
                perm,
            } = scratch;
            moving.clear();
            moving.extend_from_slice(samples[s]);
            crate::center(moving);
            if cfg.mode == ReduceMode::Centred {
                return (moving.clone(), 0.0);
            }
            let res = icp_align_with(icp, reference, moving, types, &cfg.icp);
            res.transform.apply_all(moving);
            match_types_into(matching, reference, moving, types, perm);
            (apply_matching(perm, moving), res.cost)
        });

    let mut configs = Vec::with_capacity(reduced.len());
    let mut icp_costs = Vec::with_capacity(reduced.len());
    for (c, cost) in reduced {
        configs.push(c);
        icp_costs.push(cost);
    }
    ReducedSet { configs, icp_costs }
}

/// Flattens a reduced set into the `m × 2n` row-major sample matrix the
/// estimators consume: row `s` is `(x₀, y₀, x₁, y₁, …)` of sample `s`.
pub fn flatten_reduced(set: &ReducedSet) -> Vec<f64> {
    let mut out = Vec::with_capacity(set.configs.len() * set.configs[0].len() * 2);
    for cfg in &set.configs {
        for p in cfg {
            out.push(p.x);
            out.push(p.y);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kabsch::RigidTransform;

    fn base_shape() -> (Vec<Vec2>, Vec<u16>) {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.5),
            Vec2::new(-1.0, 1.5),
            Vec2::new(0.5, -2.0),
            Vec2::new(3.0, 2.0),
        ];
        let types = vec![0u16, 0, 1, 1, 2];
        (pts, types)
    }

    #[test]
    fn identical_shapes_reduce_identically() {
        // Every sample is a rigidly transformed + shuffled copy of the same
        // shape; after reduction all samples must coincide.
        let (base, types) = base_shape();
        let transforms = [
            RigidTransform::IDENTITY,
            RigidTransform {
                rotation: 1.0,
                translation: Vec2::new(10.0, -5.0),
            },
            RigidTransform {
                rotation: -2.5,
                translation: Vec2::new(-3.0, 7.0),
            },
        ];
        // Shuffle within type: swap particles 0<->1 (both type 0) in sample 2.
        let mut samples: Vec<Vec<Vec2>> = transforms
            .iter()
            .map(|t| base.iter().map(|&p| t.apply(p)).collect())
            .collect();
        samples[2].swap(0, 1);
        let views: Vec<&[Vec2]> = samples.iter().map(|s| s.as_slice()).collect();
        let reduced = reduce_configurations(&views, &types, &ReduceConfig::default());
        for s in 1..reduced.configs.len() {
            for i in 0..base.len() {
                assert!(
                    (reduced.configs[s][i] - reduced.configs[0][i]).norm() < 1e-6,
                    "sample {s} particle {i}: {:?} vs {:?}",
                    reduced.configs[s][i],
                    reduced.configs[0][i]
                );
            }
        }
        assert!(reduced.icp_costs.iter().all(|&c| c < 1e-9));
    }

    #[test]
    fn reduced_configs_are_centred() {
        let (base, types) = base_shape();
        let shifted: Vec<Vec2> = base.iter().map(|&p| p + Vec2::new(100.0, 50.0)).collect();
        let views: Vec<&[Vec2]> = vec![&base, &shifted];
        let reduced = reduce_configurations(&views, &types, &ReduceConfig::default());
        for cfg in &reduced.configs {
            assert!(Vec2::centroid(cfg).norm() < 1e-9);
        }
    }

    #[test]
    fn flatten_layout() {
        let set = ReducedSet {
            configs: vec![
                vec![Vec2::new(1.0, 2.0), Vec2::new(3.0, 4.0)],
                vec![Vec2::new(5.0, 6.0), Vec2::new(7.0, 8.0)],
            ],
            icp_costs: vec![0.0, 0.0],
        };
        assert_eq!(
            flatten_reduced(&set),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
    }

    #[test]
    fn reference_choice_changes_frame_not_shape() {
        let (base, types) = base_shape();
        let rot: Vec<Vec2> = base
            .iter()
            .map(|&p| RigidTransform::rotation(0.8).apply(p))
            .collect();
        let views: Vec<&[Vec2]> = vec![&base, &rot];
        let r0 = reduce_configurations(&views, &types, &ReduceConfig::default());
        let r1 = reduce_configurations(
            &views,
            &types,
            &ReduceConfig {
                reference: 1,
                ..ReduceConfig::default()
            },
        );
        // Same pairwise distance structure regardless of reference frame.
        for s in 0..2 {
            for i in 0..base.len() {
                for j in (i + 1)..base.len() {
                    let d0 = r0.configs[s][i].dist(r0.configs[s][j]);
                    let d1 = r1.configs[s][i].dist(r1.configs[s][j]);
                    assert!((d0 - d1).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn centred_mode_skips_alignment_but_centres() {
        let (base, types) = base_shape();
        let rot: Vec<Vec2> = base
            .iter()
            .map(|&p| {
                RigidTransform {
                    rotation: 0.8,
                    translation: Vec2::new(50.0, -20.0),
                }
                .apply(p)
            })
            .collect();
        let views: Vec<&[Vec2]> = vec![&base, &rot];
        let cfg = ReduceConfig {
            mode: ReduceMode::Centred,
            ..ReduceConfig::default()
        };
        let reduced = reduce_configurations(&views, &types, &cfg);
        // Every output is centred and every cost is exactly zero (no ICP ran).
        for c in &reduced.configs {
            assert!(Vec2::centroid(c).norm() < 1e-9);
        }
        assert_eq!(reduced.icp_costs, vec![0.0, 0.0]);
        // The rotation survives: sample 1 is NOT aligned to sample 0.
        assert!((reduced.configs[1][1] - reduced.configs[0][1]).norm() > 1e-3);
        // But pairwise distances (the shape) are untouched by centring.
        for i in 0..base.len() {
            for j in (i + 1)..base.len() {
                let d0 = base[i].dist(base[j]);
                let d1 = reduced.configs[1][i].dist(reduced.configs[1][j]);
                assert!((d0 - d1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn threads_do_not_change_output() {
        let (base, types) = base_shape();
        let mut samples = Vec::new();
        let mut rng = sops_math::SplitMix64::new(4);
        for _ in 0..6 {
            let t = RigidTransform {
                rotation: rng.next_range(-3.0, 3.0),
                translation: Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0)),
            };
            samples.push(base.iter().map(|&p| t.apply(p)).collect::<Vec<_>>());
        }
        let views: Vec<&[Vec2]> = samples.iter().map(|s| s.as_slice()).collect();
        let a = reduce_configurations(
            &views,
            &types,
            &ReduceConfig {
                threads: 1,
                ..ReduceConfig::default()
            },
        );
        let b = reduce_configurations(
            &views,
            &types,
            &ReduceConfig {
                threads: 8,
                ..ReduceConfig::default()
            },
        );
        assert_eq!(a.configs, b.configs);
    }
}
