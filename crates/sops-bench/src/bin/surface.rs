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
//!   `pub(crate)` items and `pub` fields are not counted.
//!
//! The output is deterministic: crates in name order, then the total.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use sops_core::wire::{self, Value};

/// `(non-test lines, public items)` per crate name.
type Ledger = BTreeMap<String, (usize, usize)>;

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

/// `(non-test lines, public items)` of one source file.
fn count_source(text: &str) -> (usize, usize) {
    let lines: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .collect();
    let items = lines.iter().filter(|l| is_public_item(l)).count();
    (lines.len(), items)
}

/// Adds every `.rs` file under `dir` (recursively) to `acc`.
fn count_dir(dir: &Path, acc: &mut (usize, usize)) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            count_dir(&path, acc)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let (lines, items) = count_source(&std::fs::read_to_string(&path)?);
            acc.0 += lines;
            acc.1 += items;
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

fn total(ledger: &Ledger) -> (usize, usize) {
    ledger.values().fold((0, 0), |t, c| (t.0 + c.0, t.1 + c.1))
}

/// The `SURFACE.json` text of a ledger.
fn render(ledger: &Ledger) -> String {
    let rows: Vec<String> = ledger
        .iter()
        .map(|(name, (l, i))| {
            format!("    {{\"crate\": \"{name}\", \"lines\": {l}, \"public_items\": {i}}}")
        })
        .collect();
    let (l, i) = total(ledger);
    format!(
        "{{\n  \"schema\": \"sops-surface/v1\",\n  \"crates\": [\n{}\n  ],\n  \"total\": {{\"lines\": {l}, \"public_items\": {i}}}\n}}\n",
        rows.join(",\n")
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
            ) {
                (Some(name), Some(l), Some(i)) => Ok((name.to_string(), (l, i))),
                _ => Err("malformed crate entry".to_string()),
            }
        })
        .collect()
}

/// One line per crate whose counts differ, then the total.
fn deltas(old: &Ledger, new: &Ledger) -> Vec<String> {
    let line = |name: &str, (al, ai): (usize, usize), (bl, bi): (usize, usize)| {
        let (dl, di) = (bl as i64 - al as i64, bi as i64 - ai as i64);
        format!("  {name}: lines {al} -> {bl} ({dl:+}), public items {ai} -> {bi} ({di:+})")
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
}
    pub fn indented() {}
pub unsafe fn raw() {}
pub const fn konst() {}
pub(crate) struct Hidden;
pub async fn not_an_item_kind() {}
pub typed_word
#[cfg(test)]
mod tests {
    pub fn after_tests() {}
}
pub fn after_the_test_module() {}
";
        // 14 lines before `#[cfg(test)]`. Counted items: `pub use`,
        // `pub mod`, `pub struct`, the indented `pub fn`, `pub unsafe fn`
        // and `pub const fn`; not `pub(crate)`, the field, or anything
        // after the test module starts.
        assert_eq!(count_source(src), (14, 6));
        // Only a `#[cfg(test)]` at the start of a line ends the count.
        assert_eq!(
            count_source("pub fn a() {}\n    #[cfg(test)]\npub fn b() {}\n"),
            (3, 2)
        );
        assert_eq!(count_source(""), (0, 0));
    }

    #[test]
    fn rendered_ledger_parses_back_and_reports_deltas() {
        let mut ledger = Ledger::new();
        ledger.insert("a".to_string(), (10, 2));
        ledger.insert("b".to_string(), (5, 1));
        let text = render(&ledger);
        assert!(text.ends_with("\"total\": {\"lines\": 15, \"public_items\": 3}\n}\n"));
        assert_eq!(parse_ledger(&text).unwrap(), ledger);
        let mut changed = ledger.clone();
        changed.insert("b".to_string(), (3, 1));
        assert_eq!(
            deltas(&ledger, &changed),
            vec![
                "  b: lines 5 -> 3 (-2), public items 1 -> 1 (+0)".to_string(),
                "  total: lines 15 -> 13 (-2), public items 3 -> 3 (+0)".to_string(),
            ]
        );
    }
}
