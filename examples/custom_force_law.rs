//! Extending the model with a user-defined force law.
//!
//! The paper studies two force-scaling families, but the measurement
//! machinery is model-agnostic (§7: "the approach seems to be in general
//! transferable to other discrete-time dynamical systems"). This example
//! plugs a Lennard-Jones-style law into the pipeline and measures its
//! self-organization exactly like the built-in families.
//!
//! ```text
//! cargo run --release --example custom_force_law
//! ```

use sops::prelude::*;
use sops::sim::force::ForceLaw;

/// A Lennard-Jones-like force scaling: steep short-range repulsion, a
/// preferred distance `r`, and attraction decaying as a power law.
///
/// `F(x) = k ((r/x)^3 − (r/x)^6)` — positive (attractive) for `x > r`,
/// negative for `x < r`, vanishing at long range (unlike the paper's F1,
/// whose attraction grows unboundedly).
struct LennardJonesish {
    k: f64,
    r: PairMatrix,
}

impl ForceLaw for LennardJonesish {
    fn types(&self) -> usize {
        self.r.types()
    }

    fn scale(&self, a: usize, b: usize, x: f64) -> f64 {
        let q = self.r.get(a, b) / x;
        let q3 = q * q * q;
        self.k * (q3 - q3 * q3)
    }

    fn preferred_distance(&self, a: usize, b: usize) -> Option<f64> {
        Some(self.r.get(a, b))
    }
}

fn main() {
    // Two types; same-type bonds shorter than cross-type bonds.
    let r = PairMatrix::from_full(2, &[1.2, 2.4, 2.4, 1.2]);
    let law = ForceModel::custom(LennardJonesish { k: 6.0, r });
    let model = Model::balanced(24, law, 6.0);

    let spec = EnsembleSpec {
        model,
        integrator: IntegratorConfig {
            dt: 0.05,
            substeps: 4,
            noise_variance: 0.0025,
            max_step: 0.25,
        },
        init_radius: 2.5,
        t_max: 120,
        samples: 120,
        seed: 77,
        criterion: None,
    };
    let mut scenario = ScenarioSpec::new("lennard_jones", spec);
    scenario.eval_every = 20;
    let plan = SweepPlan::new(vec![scenario], vec![MeasureConfig::default()]);
    let cell = run_sweep(&plan).expect("valid plan").cells.remove(0);
    assert!(cell.status.is_ok(), "{:?}", cell.status);
    let result = cell.result;

    println!("custom Lennard-Jones-like law through the standard pipeline:");
    for (t, v) in result.mi.times.iter().zip(&result.mi.values) {
        println!("  t = {t:3}  I = {v:6.2} bits");
    }
    println!(
        "\nΔI = {:.2} bits — the measurement machinery needs nothing from the\n\
         force law beyond the ForceLaw trait (model-agnostic, as §7 claims).",
        result.mi.increase()
    );
    assert!(result.mi.increase() > 0.5);
}
