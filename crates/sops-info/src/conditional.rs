//! Conditional mutual information and transfer entropy (paper §7.3).
//!
//! The paper's future-work section proposes investigating "the
//! information dynamics between individual particles over time" with the
//! tools of Lizier et al. (the paper's ref. 24) — transfer entropy. It provides
//! the required estimator: the Frenzel–Pompe k-NN conditional mutual
//! information
//!
//! ```text
//! I(X;Y|Z) = ψ(k) + ⟨ψ(c_z + 1) − ψ(c_xz + 1) − ψ(c_yz + 1)⟩
//! ```
//!
//! where the counts are strict range counts in the marginal spaces
//! `(Z)`, `(X,Z)` and `(Y,Z)` using the max-norm radius to the k-th
//! neighbour in the joint `(X,Y,Z)` space. Transfer entropy is the
//! special case `T_{Y→X} = I(X′ ; Y | X)` with `X′` the successor state
//! of `X`: `conditional_mutual_information(x_next, y_past, x_past, …)`.
//!
//! The estimate runs through
//! [`crate::MeasureWorkspace::conditional_mutual_information`]. Its
//! engine routes the joint k-NN through the same adaptive scan/kd-tree
//! choice as the KSG engine (`CmiConfig::knn`, turning the `O(m²)` joint
//! scan into `O(m log m)` at the low joint dimensions transfer entropy
//! lives at), all scratch is persistent, and per-sample ψ terms are
//! reduced in sample order — the estimate is **bit-identical for any
//! worker count** and to the frozen sequential reference in
//! `crates/sops-info/tests/workspace_measure.rs`.
//!
//! Note §5.2's caveat: statistics that track particles over time must use
//! the *raw* (non-permutation-reduced) trajectories; the shape reduction
//! deliberately destroys temporal identity.

use crate::ksg::KnnMode;
use crate::workspace::{resolve_threads, use_tree, INFO_CHUNKS};
use sops_math::special::digamma;
use sops_math::NATS_TO_BITS;
use sops_spatial::block_max::{knn_block_max_into, knn_block_max_tree_into, BlockPoints};
use sops_spatial::KdTree;

/// Configuration for the Frenzel–Pompe estimator.
#[derive(Debug, Clone, Copy)]
pub struct CmiConfig {
    /// Neighbour order `k` (default 4, like the KSG default).
    pub k: usize,
    /// Worker threads (0 = default). Results are bit-identical for any
    /// thread count.
    pub threads: usize,
    /// Joint k-NN strategy (default: adaptive, like [`crate::KsgConfig`]).
    /// Both paths return identical results.
    pub knn: KnnMode,
}

impl Default for CmiConfig {
    fn default() -> Self {
        CmiConfig {
            k: 4,
            threads: 0,
            knn: KnnMode::default(),
        }
    }
}

/// Per-span scratch of the CMI engine.
#[derive(Debug, Clone)]
struct CmiChunk {
    /// Per-sample ψ terms of this span, reduced in sample order.
    psi: Vec<f64>,
    /// Joint k-NN result buffer.
    neigh: Vec<(usize, f64)>,
    /// Explicit stack for the kd-tree descent.
    stack: Vec<(u32, f64)>,
}

impl CmiChunk {
    fn new() -> Self {
        CmiChunk {
            psi: Vec::new(),
            neigh: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn capacity_signature(&self, sig: &mut Vec<usize>) {
        sig.push(self.psi.capacity());
        sig.push(self.neigh.capacity());
        sig.push(self.stack.capacity());
    }
}

/// Persistent buffers for Frenzel–Pompe conditional mutual information —
/// the CMI-side sibling of [`crate::workspace::InfoWorkspace`]. One
/// workspace serves repeated
/// [`CmiWorkspace::conditional_mutual_information`] calls (a
/// transfer-matrix sweep runs `n(n−1)` of them per time step) without
/// touching the allocator once warm.
#[derive(Debug, Clone)]
pub(crate) struct CmiWorkspace {
    /// Gathered `(x | y | z)` joint samples.
    joint: Vec<f64>,
    /// Prefix-offset buffer for the joint block view.
    offsets: Vec<usize>,
    /// Kd-tree over the Z marginal (candidate superset queries).
    tree_z: KdTree,
    /// Kd-tree over the joint samples (low-dimension k-NN path).
    joint_tree: KdTree,
    /// Fixed per-span scratch.
    chunks: Vec<CmiChunk>,
}

impl Default for CmiWorkspace {
    fn default() -> Self {
        CmiWorkspace::new()
    }
}

impl CmiWorkspace {
    /// An empty workspace; buffers grow to the workload size on first use.
    pub(crate) fn new() -> Self {
        CmiWorkspace {
            joint: Vec::new(),
            offsets: Vec::new(),
            tree_z: KdTree::build(1, &[]),
            joint_tree: KdTree::build(1, &[]),
            chunks: vec![CmiChunk::new(); INFO_CHUNKS],
        }
    }

    /// Estimates `I(X;Y|Z)` in bits from `rows` joint samples — the
    /// engine behind
    /// [`crate::MeasureWorkspace::conditional_mutual_information`],
    /// allocation-free once warm.
    ///
    /// `x`, `y`, `z` are row-major `rows × dim` matrices.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes, `k = 0`, or `k >= rows`.
    pub(crate) fn conditional_mutual_information(
        &mut self,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        rows: usize,
        dims: (usize, usize, usize),
        cfg: &CmiConfig,
    ) -> f64 {
        let (dx, dy, dz) = dims;
        assert_eq!(x.len(), rows * dx, "CMI: x shape");
        assert_eq!(y.len(), rows * dy, "CMI: y shape");
        assert_eq!(z.len(), rows * dz, "CMI: z shape");
        assert!(cfg.k >= 1 && cfg.k < rows, "CMI: k out of range");

        let CmiWorkspace {
            joint,
            offsets,
            tree_z,
            joint_tree,
            chunks,
        } = self;

        // Joint (x, y, z) samples as three blocks: the block-max metric
        // over (x|y|z) blocks is the product max-norm the Frenzel-Pompe
        // estimator uses.
        joint.clear();
        for r in 0..rows {
            joint.extend_from_slice(&x[r * dx..(r + 1) * dx]);
            joint.extend_from_slice(&y[r * dy..(r + 1) * dy]);
            joint.extend_from_slice(&z[r * dz..(r + 1) * dz]);
        }
        let sizes = [dx, dy, dz];

        // Counts in the marginal spaces (Z), (X,Z) and (Y,Z) under the
        // product max-norm: a point is within eps of the query in (X,Z)
        // iff it is within eps in X AND within eps in Z. A kd-tree over Z
        // yields the candidate superset; the conjunctions are checked by
        // direct per-block distance tests (exact, and cheap at ensemble
        // sizes).
        tree_z.rebuild(dz, z);
        let joint_tree = if use_tree(cfg.knn, dx + dy + dz, rows) {
            joint_tree.rebuild(dx + dy + dz, joint);
            Some(&*joint_tree)
        } else {
            None
        };
        let points = BlockPoints::with_offset_buf(offsets, joint, rows, &sizes);

        let threads = resolve_threads(cfg.threads);
        let nchunks = chunks.len();
        let tree_z = &*tree_z;
        let k = cfg.k;
        sops_par::parallel_chunks_mut(chunks, nchunks, threads, |c, bufs| {
            let CmiChunk { psi, neigh, stack } = &mut bufs[0];
            psi.clear();
            let lo = c * rows / nchunks;
            let hi = (c + 1) * rows / nchunks;
            for i in lo..hi {
                match joint_tree {
                    Some(tree) => knn_block_max_tree_into(&points, tree, i, k, stack, neigh),
                    None => knn_block_max_into(&points, i, k, neigh),
                }
                let eps = neigh.last().expect("CMI: kth neighbour").1;
                // Candidates within eps in Z (inclusive) — superset of the
                // strict conjunctive counts below; visited in tree order
                // (the counts are order-independent integers, so no buffer
                // and no sort).
                let zq = &z[i * dz..(i + 1) * dz];
                let mut c_z = 0usize;
                let mut c_xz = 0usize;
                let mut c_yz = 0usize;
                let xq = &x[i * dx..(i + 1) * dx];
                let yq = &y[i * dy..(i + 1) * dy];
                tree_z.for_each_within(zq, eps, |j| {
                    if j == i {
                        return;
                    }
                    let zd = sops_spatial::dist_sq(&z[j * dz..(j + 1) * dz], zq).sqrt();
                    if zd >= eps {
                        return; // strict
                    }
                    c_z += 1;
                    let xd = sops_spatial::dist_sq(&x[j * dx..(j + 1) * dx], xq).sqrt();
                    if xd < eps {
                        c_xz += 1;
                    }
                    let yd = sops_spatial::dist_sq(&y[j * dy..(j + 1) * dy], yq).sqrt();
                    if yd < eps {
                        c_yz += 1;
                    }
                });
                psi.push(
                    digamma((c_z + 1) as f64)
                        - digamma((c_xz + 1) as f64)
                        - digamma((c_yz + 1) as f64),
                );
            }
        });
        // Sample-order reduction: bit-identical for any worker count.
        let mut psi_sum = 0.0;
        for chunk in chunks.iter() {
            for &v in &chunk.psi {
                psi_sum += v;
            }
        }
        let nats = digamma(cfg.k as f64) + psi_sum / rows as f64;
        nats * NATS_TO_BITS
    }

    /// Capacities of every internal buffer — constant for a warmed-up
    /// workspace (the zero-allocation contract).
    pub(crate) fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![self.joint.capacity(), self.offsets.capacity()];
        sig.extend(self.tree_z.capacity_signature());
        sig.extend(self.joint_tree.capacity_signature());
        for chunk in &self.chunks {
            chunk.capacity_signature(&mut sig);
        }
        sig
    }
}

/// Analytic conditional mutual information of a Gaussian (bits):
/// `I(X;Y|Z) = ½(ln det Σ_xz + ln det Σ_yz − ln det Σ_z − ln det Σ_xyz)`.
///
/// `cov` must be ordered as (X-dims, Y-dims, Z-dims). The tests' ground
/// truth.
#[cfg(test)]
fn gaussian_conditional_mi(cov: &sops_math::Matrix, dims: (usize, usize, usize)) -> f64 {
    let (dx, dy, dz) = dims;
    let d = dx + dy + dz;
    assert_eq!(cov.rows(), d);
    let sub = |idx: &[usize]| -> sops_math::Matrix {
        let mut m = sops_math::Matrix::zeros(idx.len(), idx.len());
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                m[(a, b)] = cov[(i, j)];
            }
        }
        m
    };
    let xs: Vec<usize> = (0..dx).collect();
    let ys: Vec<usize> = (dx..dx + dy).collect();
    let zs: Vec<usize> = (dx + dy..d).collect();
    let xz: Vec<usize> = xs.iter().chain(&zs).copied().collect();
    let yz: Vec<usize> = ys.iter().chain(&zs).copied().collect();
    let all: Vec<usize> = (0..d).collect();
    let ld = |idx: &[usize]| {
        sub(idx)
            .ln_det_spd()
            .expect("gaussian_conditional_mi: not SPD")
    };
    let nats = 0.5 * (ld(&xz) + ld(&yz) - ld(&zs) - ld(&all));
    nats * NATS_TO_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_math::{Matrix, SplitMix64};

    fn cmi(
        x: &[f64],
        y: &[f64],
        z: &[f64],
        rows: usize,
        dims: (usize, usize, usize),
        cfg: &CmiConfig,
    ) -> f64 {
        CmiWorkspace::new().conditional_mutual_information(x, y, z, rows, dims, cfg)
    }

    /// Draws AR-style triples: Z ~ N(0,1); X = a·Z + noise; Y = b·Z + noise.
    /// X ⊥ Y | Z by construction, but I(X;Y) > 0.
    fn common_cause_samples(m: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let mut x = Vec::with_capacity(m);
        let mut y = Vec::with_capacity(m);
        let mut z = Vec::with_capacity(m);
        for _ in 0..m {
            let zi = rng.next_standard_normal();
            x.push(0.8 * zi + 0.4 * rng.next_standard_normal());
            y.push(0.8 * zi + 0.4 * rng.next_standard_normal());
            z.push(zi);
        }
        (x, y, z)
    }

    #[test]
    fn cmi_vanishes_for_conditionally_independent_data() {
        let (x, y, z) = common_cause_samples(1200, 3);
        let cmi = cmi(&x, &y, &z, 1200, (1, 1, 1), &CmiConfig::default());
        assert!(cmi.abs() < 0.1, "X⊥Y|Z must give ~0, got {cmi}");
        // Whereas the unconditional MI is clearly positive.
        let xy: Vec<f64> = x.iter().zip(&y).flat_map(|(&a, &b)| [a, b]).collect();
        let mi = crate::workspace::InfoWorkspace::new().multi_information(
            &crate::SampleView::new(&xy, 1200, &[1, 1]),
            &crate::KsgConfig::default(),
        );
        assert!(mi > 0.3, "common cause must correlate X and Y: {mi}");
    }

    #[test]
    fn cmi_matches_gaussian_closed_form() {
        // X, Y directly coupled beyond Z: X = 0.6 Z + e1, Y = 0.6 Z + 0.8 X + e2.
        let m = 1500;
        let mut rng = SplitMix64::new(9);
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        for _ in 0..m {
            let zi = rng.next_standard_normal();
            let xi = 0.6 * zi + 0.5 * rng.next_standard_normal();
            let yi = 0.6 * zi + 0.8 * xi + 0.4 * rng.next_standard_normal();
            x.push(xi);
            y.push(yi);
            z.push(zi);
        }
        // Empirical covariance in (X, Y, Z) order feeds the closed form.
        let rows: Vec<Vec<f64>> = (0..m).map(|i| vec![x[i], y[i], z[i]]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cov = Matrix::covariance_of(&refs);
        let truth = gaussian_conditional_mi(&cov, (1, 1, 1));
        let est = cmi(&x, &y, &z, m, (1, 1, 1), &CmiConfig::default());
        assert!(
            (est - truth).abs() < 0.12,
            "CMI est {est} vs Gaussian truth {truth}"
        );
        assert!(truth > 0.2, "construction has real conditional coupling");
    }

    #[test]
    fn transfer_entropy_detects_directed_coupling() {
        // Driven pair: X' = 0.4 X + 0.8 Y + noise; Y' = 0.9 Y + noise.
        // TE(Y→X) > 0; TE(X→Y) ≈ 0.
        let m = 1500;
        let mut rng = SplitMix64::new(17);
        let mut x_past = Vec::new();
        let mut y_past = Vec::new();
        let mut x_next = Vec::new();
        let mut y_next = Vec::new();
        for _ in 0..m {
            // Stationary-ish draws: sample a fresh (x, y) state then step it.
            let xp = rng.next_standard_normal();
            let yp = rng.next_standard_normal();
            x_past.push(xp);
            y_past.push(yp);
            x_next.push(0.4 * xp + 0.8 * yp + 0.3 * rng.next_standard_normal());
            y_next.push(0.9 * yp + 0.3 * rng.next_standard_normal());
        }
        let cfg = CmiConfig::default();
        let mut ws = crate::MeasureWorkspace::new();
        let te_yx =
            ws.conditional_mutual_information(&x_next, &y_past, &x_past, m, (1, 1, 1), &cfg);
        let te_xy =
            ws.conditional_mutual_information(&y_next, &x_past, &y_past, m, (1, 1, 1), &cfg);
        assert!(te_yx > 0.5, "driver must be detected: TE(Y→X) = {te_yx}");
        assert!(te_xy.abs() < 0.1, "no reverse flow: TE(X→Y) = {te_xy}");
    }

    #[test]
    fn cmi_bit_identical_across_threads_and_knn_paths() {
        let (x, y, z) = common_cause_samples(400, 5);
        let mut ws = CmiWorkspace::new();
        let base = ws.conditional_mutual_information(
            &x,
            &y,
            &z,
            400,
            (1, 1, 1),
            &CmiConfig {
                k: 4,
                threads: 1,
                knn: KnnMode::BruteForce,
            },
        );
        for knn in [KnnMode::BruteForce, KnnMode::KdTree, KnnMode::Auto] {
            for threads in [1usize, 8] {
                let got = ws.conditional_mutual_information(
                    &x,
                    &y,
                    &z,
                    400,
                    (1, 1, 1),
                    &CmiConfig { k: 4, threads, knn },
                );
                assert_eq!(got.to_bits(), base.to_bits(), "{knn:?}/t{threads}");
            }
        }
    }

    #[test]
    fn vector_valued_blocks_supported() {
        // 2-D X and Y blocks (particle positions), 2-D Z.
        let m = 600;
        let mut rng = SplitMix64::new(23);
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        for _ in 0..m {
            let z0 = rng.next_standard_normal();
            let z1 = rng.next_standard_normal();
            z.extend_from_slice(&[z0, z1]);
            x.extend_from_slice(&[
                0.7 * z0 + 0.5 * rng.next_standard_normal(),
                0.7 * z1 + 0.5 * rng.next_standard_normal(),
            ]);
            y.extend_from_slice(&[
                0.7 * z0 + 0.5 * rng.next_standard_normal(),
                0.7 * z1 + 0.5 * rng.next_standard_normal(),
            ]);
        }
        let cmi = cmi(&x, &y, &z, m, (2, 2, 2), &CmiConfig::default());
        assert!(
            cmi.abs() < 0.15,
            "conditionally independent 2-D blocks: {cmi}"
        );
    }

    #[test]
    fn gaussian_closed_form_reduces_to_mi_for_empty_condition_analogue() {
        // With Z independent of (X, Y), I(X;Y|Z) == I(X;Y).
        let mut cov = Matrix::identity(3);
        cov[(0, 1)] = 0.6;
        cov[(1, 0)] = 0.6;
        let cmi = gaussian_conditional_mi(&cov, (1, 1, 1));
        let mi = crate::gaussian::bivariate_gaussian_mi(0.6);
        assert!((cmi - mi).abs() < 1e-12);
    }
}
