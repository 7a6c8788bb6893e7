//! Figure 10 — multi-information over time for different numbers of
//! types *and* cut-off radii.
//!
//! Paper: `F¹`, 20 particles, `l ∈ {5, 20}` × `r_c ∈ {10, 15, ∞}`,
//! `r_{αβ} ∈ [2, 8]`, `k_{αβ} = 1`, 10 random draws. With locally
//! limited interactions, *fewer* types (l = 5) self-organize more than
//! the all-distinct collective (l = 20) — emergent same-type clusters
//! restore long-range structural interaction (§7.2).

use super::fig9::{print_curves, sweep_curve, write_curves_csv, SweepCurve};
use crate::RunOptions;

/// Fig. 10 outputs: one averaged curve per `(l, r_c)` combination.
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// Curves with labels `l=…, rc=…`.
    pub curves: Vec<SweepCurve>,
    /// The `(types, cutoff)` combinations, aligned with `curves`.
    pub combos: Vec<(usize, f64)>,
}

/// Runs the types × radius sweep.
pub fn run(opts: &RunOptions) -> Fig10Data {
    let combos: Vec<(usize, f64)> = if opts.fast {
        vec![(20, 10.0), (5, 10.0)]
    } else {
        vec![
            (20, 10.0),
            (20, 15.0),
            (20, f64::INFINITY),
            (5, 10.0),
            (5, 15.0),
            (5, f64::INFINITY),
        ]
    };
    let draws = opts.scale(10, 2);
    let curves: Vec<SweepCurve> = combos
        .iter()
        .map(|&(l, rc)| sweep_curve(opts, format!("l={l}, rc={rc}"), l, rc, draws))
        .collect();
    let data = Fig10Data { curves, combos };
    if let Some(path) = super::csv_path(opts, "fig10_mi_types_radius.csv") {
        write_curves_csv(&path, &data.curves);
    }
    data
}

impl Fig10Data {
    /// The final MI of the curve for `(types, cutoff)`, if present.
    pub fn final_value(&self, types: usize, cutoff: f64) -> Option<f64> {
        self.combos
            .iter()
            .position(|&(l, rc)| {
                l == types && (rc == cutoff || (!rc.is_finite() && !cutoff.is_finite()))
            })
            .map(|i| self.curves[i].final_value())
    }

    /// Renders all curves in one chart.
    pub fn print(&self) {
        print_curves(
            "Fig 10 — multi-information vs time for l ∈ {5, 20} × rc",
            &self.curves,
        );
        if let (Some(five), Some(twenty)) = (self.final_value(5, 10.0), self.final_value(20, 10.0))
        {
            println!(
                "  fewer types beat many types at finite rc: l=5 ({five:.2}) vs l=20 ({twenty:.2}) at rc=10 (paper: same ordering)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_types_organize_more_at_finite_radius() {
        let data = run(&RunOptions {
            fast: true,
            ..RunOptions::default()
        });
        let five = data.final_value(5, 10.0).unwrap();
        let twenty = data.final_value(20, 10.0).unwrap();
        assert!(
            five > twenty,
            "l=5 ({five:.2}) must organize more than l=20 ({twenty:.2}) at rc=10"
        );
    }
}
