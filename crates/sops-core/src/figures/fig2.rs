//! Figure 2 — the two force-scaling functions.
//!
//! Paper: plots of `F¹_{αβ}` and `F²_{αβ}` against inter-particle
//! distance, annotating the preferred distance `r_{αβ}` and the cut-off
//! `r_c`. Reproduced by sampling both laws on a distance grid.

use crate::report::{self, Series};
use crate::RunOptions;
use sops_math::PairMatrix;
use sops_sim::force::{ForceLaw, GaussianForce, LinearForce};

/// Sampled force curves.
#[derive(Debug, Clone)]
pub struct Fig2Data {
    /// Distance grid.
    pub x: Vec<f64>,
    /// `F¹(x)` with `k = 1, r = 2`.
    pub f1: Vec<f64>,
    /// `F²(x)` with `k = 1, σ = 1, τ = r²/2, r = 2`.
    pub f2: Vec<f64>,
    /// The preferred distance marked in the paper's panels.
    pub preferred_distance: f64,
    /// The cut-off radius marked in the paper's panels.
    pub cutoff: f64,
}

/// Samples both force-scaling families.
pub fn run(opts: &RunOptions) -> Fig2Data {
    let r = 2.0;
    let cutoff = 5.0;
    let lin = LinearForce::uniform(1.0, r);
    let gau = GaussianForce::from_preferred_distance(
        PairMatrix::constant(1, 1.0),
        &PairMatrix::constant(1, r),
    );
    let steps = opts.scale(400, 100);
    let x: Vec<f64> = (1..=steps).map(|i| 6.0 * i as f64 / steps as f64).collect();
    let f1: Vec<f64> = x
        .iter()
        .map(|&v| lin.scale(0, 0, v).clamp(-3.0, 3.0))
        .collect();
    let f2: Vec<f64> = x.iter().map(|&v| gau.scale(0, 0, v)).collect();
    let data = Fig2Data {
        x,
        f1,
        f2,
        preferred_distance: r,
        cutoff,
    };
    if let Some(path) = super::csv_path(opts, "fig2_force_curves.csv") {
        let rows: Vec<Vec<f64>> = data
            .x
            .iter()
            .zip(data.f1.iter().zip(&data.f2))
            .map(|(&x, (&a, &b))| vec![x, a, b])
            .collect();
        report::write_csv(&path, &["x", "f1", "f2"], &rows).expect("fig2 csv");
    }
    data
}

impl Fig2Data {
    /// Renders both curves as ASCII charts plus the key structural facts.
    pub fn print(&self) {
        let s1 = Series::from_xy("F1 (k=1, r=2, clamped to ±3)", &self.x, &self.f1);
        let s2 = Series::from_xy("F2 (k=1, sigma=1, tau=r^2/2)", &self.x, &self.f2);
        println!(
            "{}",
            report::line_chart("Fig 2 — force-scaling functions", &[s1, s2], 64, 18)
        );
        // The structure the paper's Fig. 2 shows: F1's zero crossing at
        // the preferred distance, F2 repulsive everywhere.
        let zero_crossing = self
            .x
            .iter()
            .zip(&self.f1)
            .find(|(_, &f)| f >= 0.0)
            .map(|(&x, _)| x)
            .unwrap_or(f64::NAN);
        println!(
            "  F1 crosses zero at x ≈ {zero_crossing:.2} (preferred distance r = {}); attraction beyond, cut off at r_c = {}",
            self.preferred_distance, self.cutoff
        );
        let f2_max_mag = self.f2.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        println!(
            "  F2 ≤ 0 everywhere (soft finite-range repulsion), peak magnitude {f2_max_mag:.3}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_have_paper_structure() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        assert_eq!(data.x.len(), data.f1.len());
        // F1: repulsive below r, attractive above.
        for (x, f) in data.x.iter().zip(&data.f1) {
            if *x < 1.9 {
                assert!(*f <= 0.0, "F1({x}) = {f}");
            }
            if *x > 2.1 {
                assert!(*f >= 0.0, "F1({x}) = {f}");
            }
        }
        // F2: non-positive everywhere.
        assert!(data.f2.iter().all(|&f| f <= 1e-12));
    }
}
