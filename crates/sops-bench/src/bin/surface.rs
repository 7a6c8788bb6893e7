//! Design ledger: lines of code and public-API surface per workspace
//! crate, written as `SURFACE.json` so every change shows its delta.
//!
//! ```text
//! surface                        # print the ledger of the tree under the current directory
//! surface --check SURFACE.json   # exit 1 with per-crate deltas if the file is stale
//! ```
//!
//! Run it from the workspace root. It reads every `crates/*/src/**/*.rs`
//! and counts, per crate:
//!
//! * *non-test lines*: the lines before the file's first line starting
//!   `#[cfg(test)]` (the whole file when there is none);
//! * *public items*: those lines matching
//!   `^\s*pub (unsafe )?(fn|struct|enum|trait|const|static|type|mod|use) `.
//!   `pub(crate)` items are not counted;
//! * *public fields*: those lines matching `^\s*pub [a-z_][a-z0-9_]*\s*:`.
//!   A public field is an option a caller can set, so it is surface too.
//!
//! The output is deterministic: crates in name order, then the total.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use sops_core::wire::{self, Value};

/// The counts of one crate (or of one file, or of the whole workspace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    lines: usize,
    items: usize,
    fields: usize,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.lines += o.lines;
        self.items += o.items;
        self.fields += o.fields;
    }
}

/// The counts per crate name.
type Ledger = BTreeMap<String, Counts>;

/// Item keywords a counted `pub` line declares.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use",
];

/// `true` for a line that declares a public item.
fn is_public_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    ITEM_KEYWORDS
        .iter()
        .any(|k| rest.strip_prefix(k).is_some_and(|r| r.starts_with(' ')))
}

/// `true` for a line that declares a public field
/// (`^\s*pub [a-z_][a-z0-9_]*\s*:`).
fn is_public_field(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    let name_len = rest
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(rest.len());
    let starts_like_a_name = rest
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
    starts_like_a_name && rest[name_len..].trim_start().starts_with(':')
}

/// The counts of one source file.
fn count_source(text: &str) -> Counts {
    let lines: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .collect();
    Counts {
        lines: lines.len(),
        items: lines.iter().filter(|l| is_public_item(l)).count(),
        fields: lines.iter().filter(|l| is_public_field(l)).count(),
    }
}

/// Adds every `.rs` file under `dir` (recursively) to `acc`.
fn count_dir(dir: &Path, acc: &mut Counts) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            count_dir(&path, acc)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            *acc += count_source(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(())
}

/// The ledger of every crate under `./crates`.
fn measure() -> std::io::Result<Ledger> {
    let mut ledger = Ledger::new();
    for entry in std::fs::read_dir("crates")? {
        let path = entry?.path();
        if let (true, Some(name)) = (path.join("src").is_dir(), path.file_name()) {
            let counts = ledger
                .entry(name.to_string_lossy().into_owned())
                .or_default();
            count_dir(&path.join("src"), counts)?;
        }
    }
    Ok(ledger)
}

fn total(ledger: &Ledger) -> Counts {
    let mut t = Counts::default();
    ledger.values().for_each(|&c| t += c);
    t
}

/// One ledger row's count fields, as JSON members.
fn count_members(c: Counts) -> String {
    format!(
        "\"lines\": {}, \"public_items\": {}, \"public_fields\": {}",
        c.lines, c.items, c.fields
    )
}

/// The `SURFACE.json` text of a ledger.
fn render(ledger: &Ledger) -> String {
    let rows: Vec<String> = ledger
        .iter()
        .map(|(name, &c)| format!("    {{\"crate\": \"{name}\", {}}}", count_members(c)))
        .collect();
    format!(
        "{{\n  \"schema\": \"sops-surface/v2\",\n  \"crates\": [\n{}\n  ],\n  \"total\": {{{}}}\n}}\n",
        rows.join(",\n"),
        count_members(total(ledger))
    )
}

/// Reads the per-crate counts back from a `SURFACE.json` text.
fn parse_ledger(text: &str) -> Result<Ledger, String> {
    let doc = wire::parse(text)?;
    let rows = doc.as_object().and_then(|o| wire::get(o, "crates").ok());
    let rows = rows.and_then(Value::as_array).ok_or("no 'crates' array")?;
    rows.iter()
        .map(|row| {
            let field = |key| row.as_object().and_then(|o| wire::get(o, key).ok());
            let count = |key| field(key).and_then(Value::as_u64).map(|v| v as usize);
            match (
                field("crate").and_then(Value::as_str),
                count("lines"),
                count("public_items"),
                count("public_fields"),
            ) {
                (Some(name), Some(lines), Some(items), Some(fields)) => Ok((
                    name.to_string(),
                    Counts {
                        lines,
                        items,
                        fields,
                    },
                )),
                _ => Err("malformed crate entry".to_string()),
            }
        })
        .collect()
}

/// One line per crate whose counts differ, then the total.
fn deltas(old: &Ledger, new: &Ledger) -> Vec<String> {
    let change =
        |what: &str, a: usize, b: usize| format!("{what} {a} -> {b} ({:+})", b as i64 - a as i64);
    let line = |name: &str, a: Counts, b: Counts| {
        format!(
            "  {name}: {}, {}, {}",
            change("lines", a.lines, b.lines),
            change("public items", a.items, b.items),
            change("public fields", a.fields, b.fields)
        )
    };
    let names: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    let mut out = Vec::new();
    for name in names {
        let a = old.get(name).copied().unwrap_or_default();
        let b = new.get(name).copied().unwrap_or_default();
        if a != b {
            out.push(line(name, a, b));
        }
    }
    out.push(line("total", total(old), total(new)));
    out
}

/// `--check`: `Ok(true)` when `path` holds exactly the current ledger.
fn check(path: &str, fresh: &Ledger) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if text == render(fresh) {
        println!("surface: {path} is current");
        return Ok(true);
    }
    let old = parse_ledger(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("surface: {path} is stale; regenerate it with `cargo run -p sops-bench --bin surface > {path}`");
    deltas(&old, fresh).iter().for_each(|d| println!("{d}"));
    Ok(false)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = measure()
        .map_err(|e| e.to_string())
        .and_then(|fresh| match args.as_slice() {
            [] => {
                print!("{}", render(&fresh));
                Ok(true)
            }
            [flag, path] if flag == "--check" => check(path, &fresh),
            _ => Err("usage: surface [--check SURFACE.json]".into()),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("surface: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(lines: usize, items: usize, fields: usize) -> Counts {
        Counts {
            lines,
            items,
            fields,
        }
    }

    #[test]
    fn counter_applies_the_ledger_rule() {
        let src = "\
//! Module docs.
use std::fmt;
pub use std::io;
pub mod inner;
pub(crate) fn hidden() {}
pub struct Open {
    pub field: u8,
    pub spaced_2 : u8,
    pub(crate) hidden: u8,
}
    pub fn indented() {}
pub unsafe fn raw() {}
pub const fn konst() {}
pub const LIMIT: usize = 1;
pub(crate) struct Hidden;
pub async fn not_an_item_kind() {}
pub typed_word
pub Upper: u8,
#[cfg(test)]
mod tests {
    pub fn after_tests() {}
}
pub fn after_the_test_module() {}
";
        // 18 lines before `#[cfg(test)]`. Counted items: `pub use`,
        // `pub mod`, `pub struct`, the indented `pub fn`, `pub unsafe fn`,
        // `pub const fn` and `pub const`; not `pub(crate)`, a field, or
        // anything after the test module starts. Counted fields: `field`
        // and `spaced_2`; not the `pub(crate)` field, the `const`, or a
        // name that does not start lowercase.
        assert_eq!(count_source(src), counts(18, 7, 2));
        // Only a `#[cfg(test)]` at the start of a line ends the count.
        assert_eq!(
            count_source("pub fn a() {}\n    #[cfg(test)]\npub fn b() {}\n"),
            counts(3, 2, 0)
        );
        assert_eq!(count_source(""), Counts::default());
    }

    #[test]
    fn rendered_ledger_parses_back_and_reports_deltas() {
        let mut ledger = Ledger::new();
        ledger.insert("a".to_string(), counts(10, 2, 4));
        ledger.insert("b".to_string(), counts(5, 1, 1));
        let text = render(&ledger);
        assert!(text.ends_with(
            "\"total\": {\"lines\": 15, \"public_items\": 3, \"public_fields\": 5}\n}\n"
        ));
        assert_eq!(parse_ledger(&text).unwrap(), ledger);
        let mut changed = ledger.clone();
        changed.insert("b".to_string(), counts(3, 1, 0));
        assert_eq!(
            deltas(&ledger, &changed),
            vec![
                "  b: lines 5 -> 3 (-2), public items 1 -> 1 (+0), public fields 1 -> 0 (-1)"
                    .to_string(),
                "  total: lines 15 -> 13 (-2), public items 3 -> 3 (+0), public fields 5 -> 4 (-1)"
                    .to_string(),
            ]
        );
    }
}
