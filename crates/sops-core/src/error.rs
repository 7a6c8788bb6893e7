//! The typed error spine of the sweep layer.
//!
//! Public entry points of the scenario/sweep/cache/baseline stack
//! return [`SweepError`] instead of panicking (or stringly-typed
//! `Result<_, String>`): callers like the `sops-repro` CLI map each
//! variant to a one-line diagnostic and a documented exit code, and a
//! persisted artifact's foreign schema, torn bytes and I/O failure stay
//! distinguishable. Cell-level *panics* are not errors —
//! they are quarantined into the report as
//! [`crate::scenario::CellStatus::Failed`] so one poisoned cell can
//! never abort a sweep.

use std::path::PathBuf;

/// Everything that can go wrong on the sweep layer's fallible surfaces.
#[derive(Debug)]
pub enum SweepError {
    /// The plan grid itself is unusable (empty axes, unnamed scenario).
    InvalidPlan(String),
    /// Two grid cells share the (scenario, seed) coordinate — a
    /// duplicate seed-axis entry, or two scenarios sharing a name.
    DuplicateCell {
        /// Scenario name of the colliding cells.
        scenario: String,
        /// Seed of the colliding cells.
        seed: u64,
    },
    /// A scenario name not present in the registry.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// The names the registry does know, in registration order.
        known: Vec<String>,
    },
    /// The plan cannot be serialized to the stable wire format (e.g. a
    /// [`sops_sim::ForceModel::Custom`] law, which is an opaque
    /// closure) — its cells have no cell key, so they cannot be cached.
    Unserializable(String),
    /// An I/O operation on a persisted artifact failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// What was being attempted (`"read"`, `"write"`, `"rename"`).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A persisted artifact does not parse (torn write, truncation,
    /// hand-editing, nesting past the parser's depth bound).
    Parse {
        /// Which artifact (e.g. `"cache entry cache/00ab….json"`).
        what: String,
        /// Parser detail.
        detail: String,
    },
    /// A persisted artifact carries a schema tag this build does not
    /// understand.
    SchemaMismatch {
        /// The schema this build expected.
        expected: String,
        /// The schema tag found in the file.
        found: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::InvalidPlan(reason) => write!(f, "invalid sweep plan: {reason}"),
            SweepError::DuplicateCell { scenario, seed } => write!(
                f,
                "duplicate grid cell {scenario}#{seed} (duplicate seed in the seed axis, \
                 or two scenarios sharing a name)"
            ),
            SweepError::UnknownScenario { name, known } => {
                write!(f, "unknown scenario '{name}' (known: {})", known.join(", "))
            }
            SweepError::Unserializable(what) => {
                write!(f, "plan cannot be serialized: {what}")
            }
            SweepError::Io { path, op, source } => {
                write!(f, "cannot {op} {}: {source}", path.display())
            }
            SweepError::Parse { what, detail } => write!(f, "malformed {what}: {detail}"),
            SweepError::SchemaMismatch { expected, found } => {
                write!(
                    f,
                    "unsupported schema '{found}' (this build reads '{expected}')"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line_and_names_the_offender() {
        let cases: Vec<SweepError> = vec![
            SweepError::InvalidPlan("no scenarios".into()),
            SweepError::DuplicateCell {
                scenario: "a".into(),
                seed: 7,
            },
            SweepError::UnknownScenario {
                name: "bogus".into(),
                known: vec!["cell_sorting".into()],
            },
            SweepError::Unserializable("custom force law".into()),
            SweepError::Io {
                path: "x/y.json".into(),
                op: "read",
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "nope"),
            },
            SweepError::Parse {
                what: "cache entry c.json".into(),
                detail: "unterminated string".into(),
            },
            SweepError::SchemaMismatch {
                expected: "sops-cell-cache/v1".into(),
                found: "other/v9".into(),
            },
        ];
        for e in &cases {
            let msg = e.to_string();
            assert!(!msg.contains('\n'), "one line: {msg}");
            assert!(!msg.is_empty());
        }
        assert!(cases[1].to_string().contains("a#7"));
        assert!(cases[2].to_string().contains("bogus"));
        assert!(std::error::Error::source(&cases[4]).is_some());
    }
}
