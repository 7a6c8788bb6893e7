//! Cell identity keys: the canonical wire form of what determines a
//! sweep cell's result, and its stable hash.
//!
//! The determinism contract makes every sweep cell a pure function of
//! its identity — the scenario's physics, schedule and seed plus the
//! measure selection. [`cell_key`] hashes that identity with FNV-1a 64,
//! written down as a canonical *cell wire* (schema tag `sops-cell/v1`)
//! with the float and string encodings of [`crate::wire`]. The key is
//! the address of an entry in the content-addressed cell cache
//! ([`crate::cache::CellCache`]), which is also how an interrupted sweep
//! resumes: a re-run over the same cache recomputes only the cells it
//! does not find. The hash of the scenario half alone is the identity of
//! one (scenario, seed) ensemble, which [`crate::broker::SweepBroker`]
//! batches requests on.
//!
//! Every key is derived through one code path, `ScenarioKeys`: the
//! scenario is serialized once, and because FNV-1a is a streaming hash
//! the cell-wire prefix every measure shares (schema tag and scenario
//! wire) is hashed once and extended per measure. The bytes hashed are
//! exactly the cell wire's, so a five-measure ensemble costs one
//! scenario serialization instead of six, and every key — and with it
//! every cache entry — is unchanged.
//!
//! The wire form covers everything that determines results and excludes
//! every knob that does not: the reduction's `threads` field (results
//! are bit-identical for any worker count), the ensemble storage policy
//! and human-only scenario descriptions. The measure configs carry no
//! such knob; the KSG wire still writes `"knn":"auto"`, the route every
//! key was made with. Plans carrying a
//! [`ForceModel::Custom`] law (an opaque closure) have no wire form and
//! are rejected with [`SweepError::Unserializable`] rather than
//! mis-keyed.

use crate::error::SweepError;
use crate::observers::ObserverMode;
use crate::scenario::ScenarioSpec;
use crate::wire;
use sops_info::measure::MeasureConfig;
use sops_math::PairMatrix;
use sops_shape::ensemble::{ReduceConfig, ReduceMode};
use sops_sim::ensemble::EnsembleSpec;
use sops_sim::force::ForceModel;
use sops_sim::IntegratorConfig;

fn pairmat_wire(m: &PairMatrix) -> String {
    let n = m.types();
    let mut full = String::new();
    for a in 0..n {
        for b in 0..n {
            if !full.is_empty() {
                full.push(',');
            }
            full.push_str(&wire::float_exact(m.get(a, b)));
        }
    }
    format!("{{\"types\":{n},\"full\":[{full}]}}")
}

fn law_wire(law: &ForceModel) -> Result<String, SweepError> {
    match law {
        ForceModel::Linear(l) => Ok(format!(
            "{{\"family\":\"linear\",\"k\":{},\"r\":{}}}",
            pairmat_wire(&l.k),
            pairmat_wire(&l.r)
        )),
        ForceModel::Gaussian(g) => Ok(format!(
            "{{\"family\":\"gaussian\",\"k\":{},\"sigma\":{},\"tau\":{}}}",
            pairmat_wire(&g.k),
            pairmat_wire(&g.sigma),
            pairmat_wire(&g.tau)
        )),
        ForceModel::Custom(_) => Err(SweepError::Unserializable(
            "custom force law (opaque closure) has no stable wire form".into(),
        )),
    }
}

/// The integrator's wire form. Every run integrates with Euler–Maruyama,
/// and the wire still names it: the text is hashed into each cell key, so
/// dropping the field would re-key every cache entry.
fn integrator_wire(i: &IntegratorConfig) -> String {
    format!(
        "{{\"dt\":{},\"substeps\":{},\"noise_variance\":{},\"max_step\":{},\"scheme\":\"euler_maruyama\"}}",
        wire::float_exact(i.dt),
        i.substeps,
        wire::float_exact(i.noise_variance),
        wire::float_exact(i.max_step),
    )
}

fn ensemble_wire(e: &EnsembleSpec) -> Result<String, SweepError> {
    let types: Vec<String> = e.model.types().iter().map(|t| t.to_string()).collect();
    let criterion = match &e.criterion {
        None => "null".to_string(),
        Some(c) => format!(
            "{{\"threshold\":{},\"patience\":{}}}",
            wire::float_exact(c.threshold),
            c.patience
        ),
    };
    Ok(format!(
        "{{\"model\":{{\"types\":[{}],\"law\":{},\"cutoff\":{}}},\
         \"integrator\":{},\"init_radius\":{},\"t_max\":{},\"samples\":{},\
         \"seed\":{},\"criterion\":{}}}",
        types.join(","),
        law_wire(e.model.law())?,
        wire::float_exact(e.model.cutoff()),
        integrator_wire(&e.integrator),
        wire::float_exact(e.init_radius),
        e.t_max,
        e.samples,
        e.seed,
        criterion
    ))
}

// `threads` is excluded: reduction results are bit-identical for any
// worker count, so it must not bind the key.
fn reduce_wire(r: &ReduceConfig) -> String {
    let mode = match r.mode {
        ReduceMode::Full => "full",
        ReduceMode::Centred => "centred",
    };
    format!(
        "{{\"icp\":{{\"max_iterations\":{},\"tolerance\":{},\"restarts\":{}}},\
         \"reference\":{},\"mode\":\"{mode}\"}}",
        r.icp.max_iterations,
        wire::float_exact(r.icp.tolerance),
        r.icp.restarts,
        r.reference
    )
}

fn observers_wire(o: &ObserverMode) -> String {
    match o {
        ObserverMode::PerParticle => "{\"mode\":\"per_particle\"}".to_string(),
        ObserverMode::TypeMeans { k_per_type } => {
            format!("{{\"mode\":\"type_means\",\"k_per_type\":{k_per_type}}}")
        }
    }
}

fn scenario_wire(sc: &ScenarioSpec) -> Result<String, SweepError> {
    // `description` is human-only and excluded: editing prose must not
    // change a key.
    Ok(format!(
        "{{\"name\":{},\"ensemble\":{},\"reduce\":{},\"observers\":{},\"eval_every\":{}}}",
        wire::string(&sc.name),
        ensemble_wire(&sc.ensemble)?,
        reduce_wire(&sc.reduce),
        observers_wire(&sc.observers),
        sc.eval_every
    ))
}

fn measure_wire(m: &MeasureConfig) -> String {
    match m {
        MeasureConfig::Ksg(c) => {
            let variant = match c.variant {
                sops_info::ksg::KsgVariant::Paper => "paper",
                sops_info::ksg::KsgVariant::Ksg1 => "ksg1",
                sops_info::ksg::KsgVariant::Ksg2 => "ksg2",
            };
            // The engine routes its k-NN search itself; `"knn":"auto"`
            // stays in the wire so every existing key and cache entry
            // stays valid.
            format!(
                "{{\"family\":\"ksg\",\"k\":{},\"variant\":\"{variant}\",\"knn\":\"auto\"}}",
                c.k
            )
        }
        MeasureConfig::Kde(c) => format!(
            "{{\"family\":\"kde\",\"bandwidth_factor\":{}}}",
            wire::float_exact(c.bandwidth_factor)
        ),
        MeasureConfig::Binned(c) => {
            let support = |s: sops_info::binning::SupportModel| match s {
                sops_info::binning::SupportModel::Full => "full",
                sops_info::binning::SupportModel::Observed => "observed",
            };
            format!(
                "{{\"family\":\"binned\",\"bins\":{},\"shrinkage\":{},\
                 \"marginal_support\":\"{}\",\"joint_support\":\"{}\"}}",
                c.bins,
                c.shrinkage,
                support(c.marginal_support),
                support(c.joint_support)
            )
        }
        MeasureConfig::DiscretePlugin { bins } => {
            format!("{{\"family\":\"discrete\",\"bins\":{bins}}}")
        }
        MeasureConfig::Gaussian => "{\"family\":\"gaussian\"}".to_string(),
        MeasureConfig::Strided { family, every } => {
            // The stride is physics-relevant (it changes which rows the
            // estimator sees); the base family nests as its own wire form.
            let base = match family {
                sops_info::StridedFamily::Ksg(c) => measure_wire(&MeasureConfig::Ksg(*c)),
                sops_info::StridedFamily::Kde(c) => measure_wire(&MeasureConfig::Kde(*c)),
                sops_info::StridedFamily::Binned(c) => measure_wire(&MeasureConfig::Binned(*c)),
                sops_info::StridedFamily::Gaussian => measure_wire(&MeasureConfig::Gaussian),
            };
            format!("{{\"family\":\"strided\",\"every\":{every},\"base\":{base}}}")
        }
    }
}

/// Schema tag of the per-cell wire form [`cell_key`] hashes — bumped
/// whenever the cell key's byte layout changes, so a new key schema can
/// never collide with entries addressed under the old one.
pub(crate) const CELL_SCHEMA: &str = "sops-cell/v1";

/// The bytes of the cell wire before the measure, given the scenario's
/// wire form: everything a cell shares with the other measures of its
/// ensemble. The measure's wire form and a closing `}` follow.
fn cell_wire_head(scenario_wire: &str) -> [&str; 5] {
    [
        "{\"schema\":\"",
        CELL_SCHEMA,
        "\",\"scenario\":",
        scenario_wire,
        ",\"measure\":",
    ]
}

/// FNV-1a 64 over the canonical wire form of one sweep cell's
/// *identity*: the content address of the cell, shared by every plan that
/// contains it. The wire form covers everything that determines the
/// cell's result — the scenario's physics (model, force law, integrator,
/// init, horizon, samples, **seed**, equilibration criterion), its shape
/// reduction, observer construction and evaluation schedule, and the
/// measure selection — and nothing that doesn't (the reduction's
/// `threads` field, the ensemble storage policy and human-only scenario
/// descriptions are excluded; a measure config names its result only,
/// so equal selections share one key).
///
/// The content-addressed cell cache ([`crate::cache::CellCache`])
/// addresses single cells by this key, so two different sweep plans that
/// share a cell share its cache entry. The layout is pinned by a unit
/// test against known key values; any change must bump the schema tag.
/// Keying several measures of one ensemble goes through the crate's
/// `ScenarioKeys`, which serializes the scenario once.
///
/// `Err` only for cells with no stable wire form
/// ([`ForceModel::Custom`], [`SweepError::Unserializable`]).
///
/// The scenario's own `ensemble.seed` is the seed that binds the key:
/// callers sweeping a seed axis must pass the reseeded spec
/// ([`ScenarioSpec::with_seed`]), as [`crate::SweepRunner`] does.
pub fn cell_key(scenario: &ScenarioSpec, measure: &MeasureConfig) -> Result<u64, SweepError> {
    Ok(ScenarioKeys::new(scenario)?.cell(measure))
}

/// Every identity key of one (scenario, seed) ensemble, derived from one
/// serialization of the scenario — the one code path behind
/// [`cell_key`] and the ensemble key.
///
/// [`ScenarioKeys::new`] hashes the cell-wire prefix all measures share
/// once; [`ScenarioKeys::cell`] extends that hash with one measure's wire
/// form, so each cell key costs a measure serialization, not a scenario
/// one. The bytes hashed are exactly the cell wire's.
pub(crate) struct ScenarioKeys {
    scenario_wire: String,
    cell_head: u64,
}

impl ScenarioKeys {
    /// Serializes `scenario` once; `Err` only for a scenario with no
    /// stable wire form ([`SweepError::Unserializable`]).
    pub(crate) fn new(scenario: &ScenarioSpec) -> Result<Self, SweepError> {
        let scenario_wire = scenario_wire(scenario)?;
        let cell_head = cell_wire_head(&scenario_wire)
            .iter()
            .fold(wire::fnv1a64(b""), |h, part| {
                wire::fnv1a64_extend(h, part.as_bytes())
            });
        Ok(ScenarioKeys {
            scenario_wire,
            cell_head,
        })
    }

    /// The scenario's ensemble key: FNV-1a 64 over the scenario's wire
    /// form, shared by every cell measured on that ensemble.
    pub(crate) fn ensemble(&self) -> u64 {
        wire::fnv1a64(self.scenario_wire.as_bytes())
    }

    /// The [`cell_key`] of `measure` on this scenario.
    pub(crate) fn cell(&self, measure: &MeasureConfig) -> u64 {
        let h = wire::fnv1a64_extend(self.cell_head, measure_wire(measure).as_bytes());
        wire::fnv1a64_extend(h, b"}")
    }
}

/// The cell wire [`cell_key`] hashes — the hash's test reference.
#[cfg(test)]
pub(crate) fn cell_wire(
    scenario: &ScenarioSpec,
    measure: &MeasureConfig,
) -> Result<String, SweepError> {
    let mut cell = cell_wire_head(&scenario_wire(scenario)?).concat();
    cell.push_str(&measure_wire(measure));
    cell.push('}');
    Ok(cell)
}

/// The ensemble key of `scenario`, as the broker batches on it.
#[cfg(test)]
pub(crate) fn ensemble_key(scenario: &ScenarioSpec) -> Result<u64, SweepError> {
    Ok(ScenarioKeys::new(scenario)?.ensemble())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{cell_sorting, mixing_null, SweepPlan};
    use proptest::prelude::*;
    use sops_info::ksg::KsgConfig;
    use sops_sim::force::ForceLaw;

    fn tiny_plan() -> SweepPlan {
        let mut plan = SweepPlan::new(
            vec![
                cell_sorting().with_scale(10, 8),
                mixing_null().with_scale(10, 8),
            ],
            vec![
                MeasureConfig::Gaussian,
                MeasureConfig::Ksg(KsgConfig {
                    k: 3,
                    ..KsgConfig::default()
                }),
            ],
        );
        plan.seeds = vec![3, 4];
        plan
    }

    #[test]
    fn cell_key_excludes_result_invariant_knobs_and_binds_physics() {
        let plan = tiny_plan();
        let sc = plan.scenarios[0].clone();
        let key = cell_key(&sc, &plan.measures[0]).unwrap();
        // Worker counts and prose never bind the key…
        let mut retuned = sc.clone();
        retuned.reduce.threads = 4;
        retuned.description = "edited prose".into();
        assert_eq!(cell_key(&retuned, &plan.measures[0]).unwrap(), key);
        // …but seed, scale, schedule, reduction mode and measure all do.
        assert_ne!(
            cell_key(&sc.clone().with_seed(99), &plan.measures[0]).unwrap(),
            key
        );
        assert_ne!(
            cell_key(&sc.clone().with_scale(20, 8), &plan.measures[0]).unwrap(),
            key
        );
        let mut rescheduled = sc.clone();
        rescheduled.eval_every = 7;
        assert_ne!(cell_key(&rescheduled, &plan.measures[0]).unwrap(), key);
        let mut remoded = sc.clone();
        remoded.reduce.mode = ReduceMode::Centred;
        assert_ne!(cell_key(&remoded, &plan.measures[0]).unwrap(), key);
        assert_ne!(cell_key(&sc, &plan.measures[1]).unwrap(), key);
        // A strided wrapper changes the key, and so does its stride.
        let strided = |every| MeasureConfig::Strided {
            family: sops_info::StridedFamily::Ksg(KsgConfig::default()),
            every,
        };
        let plain = cell_key(&sc, &MeasureConfig::Ksg(KsgConfig::default())).unwrap();
        let strided_key = cell_key(&sc, &strided(2)).unwrap();
        assert_ne!(strided_key, plain);
        assert_ne!(cell_key(&sc, &strided(4)).unwrap(), strided_key);
    }

    /// Every measure name the front ends parse — each family and each
    /// `NAME@4` form — is the config built from that family's `Default`,
    /// so a cell named either way has one key.
    #[test]
    fn parsed_measures_equal_their_family_defaults_and_share_keys() {
        use sops_info::{BinningConfig, KdeConfig, StridedFamily};
        let sc = tiny_plan().scenarios[0].clone();
        let strided = |family| MeasureConfig::Strided { family, every: 4 };
        let built = [
            ("ksg", MeasureConfig::Ksg(KsgConfig::default())),
            ("kde", MeasureConfig::Kde(KdeConfig::default())),
            ("binned", MeasureConfig::Binned(BinningConfig::default())),
            ("discrete", MeasureConfig::DiscretePlugin { bins: 6 }),
            ("gaussian", MeasureConfig::Gaussian),
            ("ksg@4", strided(StridedFamily::Ksg(KsgConfig::default()))),
            ("kde@4", strided(StridedFamily::Kde(KdeConfig::default()))),
            (
                "binned@4",
                strided(StridedFamily::Binned(BinningConfig::default())),
            ),
            ("gaussian@4", strided(StridedFamily::Gaussian)),
        ];
        for family in MeasureConfig::FAMILIES {
            assert!(built.iter().any(|&(name, _)| name == family), "{family}");
        }
        for (name, want) in built {
            let parsed = MeasureConfig::parse(name).expect("a known measure name");
            assert_eq!(parsed, want, "{name}");
            assert_eq!(
                cell_key(&sc, &parsed).unwrap(),
                cell_key(&sc, &want).unwrap(),
                "{name}"
            );
        }
    }

    /// Pins the cell-key schema: these hex literals were computed once
    /// from the v1 wire layout. If this test fails, the key schema
    /// drifted — existing cache entries would silently miss (or worse,
    /// collide with entries written under the old layout). Deliberate
    /// changes must bump [`CELL_SCHEMA`] *and* re-pin these values. The
    /// ensemble keys, which the broker batches on, are pinned the same
    /// way.
    #[test]
    fn cell_key_values_are_pinned_against_schema_drift() {
        let plan = tiny_plan();
        let gaussian = cell_key(&plan.scenarios[0], &plan.measures[0]).unwrap();
        let ksg = cell_key(&plan.scenarios[0], &plan.measures[1]).unwrap();
        let null = cell_key(&plan.scenarios[1], &plan.measures[0]).unwrap();
        assert_eq!(
            (gaussian, ksg, null),
            (
                0x14d9_de4c_2acb_d781,
                0xb2c4_873c_41a9_0684,
                0x5ca1_644d_637f_3a91
            ),
            "cell key schema drifted: got ({gaussian:#018x}, {ksg:#018x}, {null:#018x})"
        );
        let sorting = ensemble_key(&plan.scenarios[0]).unwrap();
        let null = ensemble_key(&plan.scenarios[1]).unwrap();
        assert_eq!(
            (sorting, null),
            (0x6776_1928_d0b2_72fb, 0x629a_63ca_dd87_a7ab),
            "ensemble key schema drifted: got ({sorting:#018x}, {null:#018x})"
        );
    }

    /// The builtins and the XL tier, built once for the property test.
    fn gallery_scenarios() -> &'static [ScenarioSpec] {
        static GALLERY: std::sync::OnceLock<Vec<ScenarioSpec>> = std::sync::OnceLock::new();
        GALLERY.get_or_init(|| {
            crate::scenario::ScenarioRegistry::gallery()
                .iter()
                .cloned()
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The shared-serialization keys hash exactly the bytes of
        /// [`cell_wire`] and of the scenario wire, for any scenario and
        /// any measure list (strided and repeated measures included).
        #[test]
        fn shared_serialization_keys_equal_the_wire_hashes(
            pick in 0usize..4,
            seed in 0u64..u64::MAX,
            samples in 1usize..300,
            t_max in 1usize..400,
            eval_every in 0usize..80,
            centred in 0u8..2,
            measures in proptest::collection::vec((0usize..5, 0usize..3), 1..7),
        ) {
            let mut sc = gallery_scenarios()[pick]
                .clone()
                .with_seed(seed)
                .with_scale(samples, t_max);
            sc.eval_every = eval_every;
            sc.reduce.mode = if centred == 1 { ReduceMode::Centred } else { ReduceMode::Full };
            let measures: Vec<MeasureConfig> = measures
                .into_iter()
                .map(|(family, stride)| {
                    let family = MeasureConfig::FAMILIES[family];
                    let name = match [0, 1, 4][stride] {
                        0 => family.to_string(),
                        every if family != "discrete" => format!("{family}@{every}"),
                        _ => family.to_string(),
                    };
                    MeasureConfig::parse(&name).expect("a known measure name")
                })
                .collect();

            let keys = ScenarioKeys::new(&sc).unwrap();
            let scenario_bytes = scenario_wire(&sc).unwrap();
            prop_assert_eq!(keys.ensemble(), wire::fnv1a64(scenario_bytes.as_bytes()));
            prop_assert_eq!(ensemble_key(&sc).unwrap(), keys.ensemble());
            for m in &measures {
                let reference = wire::fnv1a64(cell_wire(&sc, m).unwrap().as_bytes());
                prop_assert_eq!(keys.cell(m), reference);
                prop_assert_eq!(cell_key(&sc, m).unwrap(), reference);
            }
        }
    }

    #[test]
    fn custom_force_law_is_unserializable_not_a_crash() {
        #[derive(Debug)]
        struct Zero;
        impl ForceLaw for Zero {
            fn types(&self) -> usize {
                2
            }
            fn scale(&self, _: usize, _: usize, _: f64) -> f64 {
                0.0
            }
            fn preferred_distance(&self, _: usize, _: usize) -> Option<f64> {
                None
            }
        }
        let mut plan = tiny_plan();
        let law = ForceModel::Custom(std::sync::Arc::new(Zero));
        plan.scenarios[0].ensemble.model = sops_sim::Model::balanced(4, law, 1.0);
        assert!(matches!(
            cell_key(&plan.scenarios[0], &plan.measures[0]),
            Err(SweepError::Unserializable(_))
        ));
        assert!(matches!(
            ensemble_key(&plan.scenarios[0]),
            Err(SweepError::Unserializable(_))
        ));
    }
}
