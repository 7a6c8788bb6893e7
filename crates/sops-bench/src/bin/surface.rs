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
//!   `#[cfg(test)]` (the whole file when there is none). A `#[cfg(test)]`
//!   line followed by a `mod NAME;` line declares a test-only module
//!   file: the two lines are skipped, counting goes on, and the file the
//!   declaration names (`NAME.rs` or anything under `NAME/`, beside a
//!   crate root or a `mod.rs`, else in the directory named after the
//!   declaring file) is left out of the ledger;
//! * *public items*: those lines matching
//!   `^\s*pub (unsafe )?(fn|struct|enum|trait|const|static|type|mod|use) `.
//!   `pub(crate)` items are not counted;
//! * *public fields*: those lines matching `^\s*pub [a-z_][a-z0-9_]*\s*:`.
//!   A public field is an option a caller can set, so it is surface too.
//!
//! The output is deterministic: crates in name order, then the total.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
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

/// The counts of one source file, and the names of the modules it
/// declares test-only: a line starting `#[cfg(test)]` followed by a
/// `mod NAME;` line. Such a pair is skipped; any other line starting
/// `#[cfg(test)]` ends the count.
fn count_source(text: &str) -> (Counts, Vec<&str>) {
    let mut counted = Vec::new();
    let mut test_mods = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("#[cfg(test)]") {
            match lines.next().and_then(test_mod_name) {
                Some(name) => {
                    test_mods.push(name);
                    continue;
                }
                None => break,
            }
        }
        counted.push(line);
    }
    let counts = Counts {
        lines: counted.len(),
        items: counted.iter().filter(|l| is_public_item(l)).count(),
        fields: counted.iter().filter(|l| is_public_field(l)).count(),
    };
    (counts, test_mods)
}

/// `NAME` of a `mod NAME;` line.
fn test_mod_name(line: &str) -> Option<&str> {
    let name = line.trim().strip_prefix("mod ")?.strip_suffix(';')?.trim();
    (!name.is_empty()).then_some(name)
}

/// The directory a file's `mod NAME;` declarations resolve in: its own
/// for a crate root (`lib.rs`, `main.rs`, a binary under `bin/`) and for
/// `mod.rs`, else the one named after it.
fn module_dir(path: &Path) -> PathBuf {
    let dir = path.parent().unwrap_or(Path::new(""));
    let binary = dir.file_name().is_some_and(|d| d == "bin");
    match path.file_stem().and_then(|s| s.to_str()) {
        Some(stem) if !binary && !matches!(stem, "lib" | "main" | "mod") => dir.join(stem),
        _ => dir.to_path_buf(),
    }
}

/// The summed counts of one crate's source files, as (path, text)
/// pairs, leaving out the files of test-only modules.
fn count_files(files: &[(PathBuf, String)]) -> Counts {
    let mut test_only: Vec<PathBuf> = Vec::new();
    let mut sources = Vec::with_capacity(files.len());
    for (path, text) in files {
        let (counts, mods) = count_source(text);
        test_only.extend(mods.iter().map(|m| module_dir(path).join(m)));
        sources.push((path, counts));
    }
    let mut acc = Counts::default();
    for (path, counts) in sources {
        if !test_only
            .iter()
            .any(|m| *path == m.with_extension("rs") || path.starts_with(m))
        {
            acc += counts;
        }
    }
    acc
}

/// Reads every `.rs` file under `dir` (recursively) into `files`.
fn read_dir_rs(dir: &Path, files: &mut Vec<(PathBuf, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            read_dir_rs(&path, files)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path)?;
            files.push((path, text));
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
            let mut files = Vec::new();
            read_dir_rs(&path.join("src"), &mut files)?;
            ledger.insert(name.to_string_lossy().into_owned(), count_files(&files));
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
        assert_eq!(count_source(src), (counts(18, 7, 2), vec![]));
        // Only a `#[cfg(test)]` at the start of a line ends the count.
        assert_eq!(
            count_source("pub fn a() {}\n    #[cfg(test)]\npub fn b() {}\n"),
            (counts(3, 2, 0), vec![])
        );
        assert_eq!(count_source(""), (Counts::default(), vec![]));
    }

    #[test]
    fn test_only_module_declaration_skips_two_lines_and_counts_on() {
        let src = "\
mod inner;
#[cfg(test)]
mod brute;
pub use inner::Tree;
pub fn dist() {}
#[cfg(test)]
mod tests {
    pub fn after_tests() {}
}
";
        // The declaration pair is skipped and the items below it count;
        // the `mod tests {` block still ends the file's count.
        assert_eq!(count_source(src), (counts(3, 2, 0), vec!["brute"]));
        assert_eq!(
            count_source("#[cfg(test)]\n    mod brute ;\npub fn a() {}\n"),
            (counts(1, 1, 0), vec!["brute"])
        );
    }

    #[test]
    fn files_of_test_only_modules_are_left_out() {
        let file = |path: &str, text: &str| (PathBuf::from(path), text.to_string());
        let files = vec![
            file("src/lib.rs", "#[cfg(test)]\nmod brute;\npub mod tree;\n"),
            file("src/brute.rs", "pub fn scan() {}\npub fn pairs() {}\n"),
            file(
                "src/tree.rs",
                "#[cfg(test)]\nmod refs;\npub fn build() {}\n",
            ),
            file("src/tree/refs.rs", "pub fn naive() {}\n"),
            file("src/tree/walk.rs", "pub fn walk() {}\n"),
        ];
        // Counted: `pub mod tree;` from lib.rs, `pub fn build` from
        // tree.rs and `walk.rs`; not `brute.rs` (declared test-only
        // beside lib.rs) or `tree/refs.rs` (test-only inside tree).
        assert_eq!(count_files(&files), counts(3, 3, 0));
        assert_eq!(module_dir(Path::new("src/tree.rs")), Path::new("src/tree"));
        assert_eq!(module_dir(Path::new("src/mod.rs")), Path::new("src"));
        assert_eq!(
            module_dir(Path::new("src/bin/tool.rs")),
            Path::new("src/bin")
        );
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
