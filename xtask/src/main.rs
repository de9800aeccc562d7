//! Repo tooling. Subcommands:
//!
//! * `lint-determinism` — static lint over the ledger-order-affecting modules (see
//!   [`SCAN_ROOTS`]: the dependency graph, the orderer's arrival/formation paths, the
//!   wave-commit scheduler, the simulator's event loop, and — since the
//!   ledger is persisted byte-for-byte — the durable ledger codec, checkpoint writer and the
//!   versioned store they serialise). Fails on iteration over
//!   `HashMap`/`HashSet` bindings (`.iter()`, `.keys()`, `.values()`, `.drain()`,
//!   `for … in &map`, …) outside an explicit allowlist. Hash iteration order is seeded per
//!   process, so any such loop whose effects reach the commit order reintroduces exactly the
//!   bug class behind Fabric++'s hash-seeded cycle-victim nondeterminism (fixed in PR 2).
//!   Sites that are genuinely order-insensitive carry an inline
//!   `lint-determinism: allow (reason)` comment on the same or preceding line; everything
//!   else must iterate a sorted or insertion-ordered structure instead.
//!
//! The lint is a two-pass text heuristic, deliberately conservative: pass 1 collects every
//! binding or field declared with a `HashMap`/`HashSet` type (or initialised from one) in a
//! file; pass 2 flags iteration-shaped uses of those names in the same file's non-test code
//! (scanning stops at the first `#[cfg(test)]` — test-only iteration cannot affect ledger
//! order; fields are private in this workspace, so hash collections are always iterated in
//! their declaring file). False positives are possible (name collisions within a file) and
//! are handled with the same allowlist comment.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories whose modules can affect the ledger's commit order. Adding a crate here is
/// the whole change: the scan, the report and the doc comment above all key off this list.
const SCAN_ROOTS: &[&str] = &[
    "crates/depgraph/src",
    "crates/core/src",
    "crates/sim/src",
    "crates/ledger/src",
    "crates/vstore/src",
];

/// The allowlist marker: `lint-determinism: allow (reason)` on the flagged line or the line
/// directly above it.
const ALLOW_MARKER: &str = "lint-determinism: allow";

/// Iteration-shaped method calls on a hash collection.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".retain(",
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint-determinism") => lint_determinism(),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint-determinism\n(unknown subcommand {other:?})"
            );
            ExitCode::FAILURE
        }
    }
}

fn lint_determinism() -> ExitCode {
    let root = repo_root();
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (path, text)
        })
        .collect();

    let mut tracked_total = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for (path, text) in &sources {
        // Pass 1 (per file): every binding/field name declared as (or initialised from) a
        // hash collection. Per-file scoping avoids cross-file name collisions; hash fields
        // are private in this workspace, so they are only iterated where declared.
        let mut tracked: BTreeSet<String> = BTreeSet::new();
        for line in non_test_lines(text) {
            collect_hash_bindings(line, &mut tracked);
        }
        tracked_total += tracked.len();

        // Pass 2: flag iteration-shaped uses of tracked names outside the allowlist.
        let lines: Vec<&str> = non_test_lines(text).collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(what) = iteration_violation(line, &tracked) else {
                continue;
            };
            let allowed =
                line.contains(ALLOW_MARKER) || (i > 0 && lines[i - 1].contains(ALLOW_MARKER));
            if !allowed {
                let rel = path.strip_prefix(&root).unwrap_or(path);
                violations.push(format!(
                    "{}:{}: {what}: {}",
                    rel.display(),
                    i + 1,
                    line.trim()
                ));
            }
        }
    }

    if violations.is_empty() {
        println!(
            "lint-determinism: OK ({} tracked hash bindings, {} files scanned)",
            tracked_total,
            sources.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lint-determinism: hash-order iteration in ledger-order-affecting code:\n");
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!(
            "\n{} violation(s). Iterate a sorted/insertion-ordered structure instead, or mark\n\
             genuinely order-insensitive sites with `// {ALLOW_MARKER} (reason)`.",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the workspace root (identified by `Cargo.toml` +
/// `crates/`), so the lint runs from any subdirectory.
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("current dir");
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("workspace root (Cargo.toml + crates/) not found above current dir");
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("scan root {} unreadable: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Lines of a file up to (excluding) the first `#[cfg(test)]` — test modules sit at the end
/// of every file in this repo, and test-only iteration cannot affect ledger order.
fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().take_while(|l| !l.contains("#[cfg(test)]"))
}

/// Pass-1 extraction: records `name` for declarations like `let mut name: HashMap<…>`,
/// `let name = HashSet::new()`, and struct fields / params `name: &mut HashMap<…>`.
fn collect_hash_bindings(line: &str, tracked: &mut BTreeSet<String>) {
    for marker in ["HashMap<", "HashSet<", "HashMap::", "HashSet::"] {
        let Some(pos) = line.find(marker) else {
            continue;
        };
        let before = &line[..pos];
        // `let [mut] name …` binding on the same line.
        if let Some(let_pos) = before.rfind("let ") {
            let after_let = before[let_pos + 4..].trim_start();
            let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
            if let Some(name) = leading_ident(after_mut) {
                tracked.insert(name.to_string());
                continue;
            }
        }
        // `name: [&][mut] Hash…` — field, param or annotated binding: the identifier
        // directly before the last `:` preceding the marker.
        if let Some(colon) = before.rfind(':') {
            if let Some(name) = trailing_ident(before[..colon].trim_end()) {
                tracked.insert(name.to_string());
            }
        }
    }
}

/// Pass-2 check: returns a description when `line` iterates a tracked hash binding.
fn iteration_violation(line: &str, tracked: &BTreeSet<String>) -> Option<String> {
    for name in tracked {
        // `name.iter()` / `self.name.keys()` / `map.retain(…)` …
        let mut search = 0;
        while let Some(found) = line[search..].find(name.as_str()) {
            let start = search + found;
            let end = start + name.len();
            search = end;
            if !boundary_before(line, start) {
                continue;
            }
            let rest = &line[end..];
            if let Some(method) = ITER_METHODS.iter().find(|m| rest.starts_with(**m)) {
                return Some(format!("`{name}{method}` iterates hash order"));
            }
        }
        // `for … in [&][mut] [self.]name` (with optional trailing `{`).
        if let Some(in_pos) = find_for_in(line) {
            let mut tail = line[in_pos..].trim_start();
            tail = tail.strip_prefix('&').unwrap_or(tail);
            tail = tail.strip_prefix("mut ").unwrap_or(tail).trim_start();
            tail = tail.strip_prefix("self.").unwrap_or(tail);
            if let Some(ident) = leading_ident(tail) {
                if ident == name {
                    let after = &tail[ident.len()..];
                    if after.trim_start().is_empty() || after.trim_start().starts_with('{') {
                        return Some(format!("`for … in {name}` iterates hash order"));
                    }
                }
            }
        }
    }
    None
}

/// Byte offset just after `" in "` of a `for … in …` loop header, if the line has one.
fn find_for_in(line: &str) -> Option<usize> {
    let for_pos = line.find("for ")?;
    let in_pos = line[for_pos..].find(" in ")?;
    Some(for_pos + in_pos + 4)
}

/// Whether `line[pos]` starts at an identifier boundary (preceded by a non-ident,
/// non-`.`/`:` character — rejects `foo.name.iter()` matching plain `name` is fine, but
/// rejects `other_name` matching `name`).
fn boundary_before(line: &str, pos: usize) -> bool {
    match line[..pos].chars().next_back() {
        None => true,
        Some(c) => !(c.is_alphanumeric() || c == '_'),
    }
}

/// The identifier at the start of `s`, if any.
fn leading_ident(s: &str) -> Option<&str> {
    let end = s
        .char_indices()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    (end > 0 && !s.as_bytes()[0].is_ascii_digit()).then(|| &s[..end])
}

/// The identifier at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<&str> {
    let start = s
        .char_indices()
        .rev()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
        .map(|(i, c)| i + c.len_utf8())
        .unwrap_or(0);
    (start < s.len() && !s.as_bytes()[start].is_ascii_digit()).then(|| &s[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracked_from(lines: &[&str]) -> BTreeSet<String> {
        let mut t = BTreeSet::new();
        for l in lines {
            collect_hash_bindings(l, &mut t);
        }
        t
    }

    #[test]
    fn collects_lets_fields_and_params() {
        let t = tracked_from(&[
            "let mut removed: HashSet<u64> = HashSet::new();",
            "let edges = HashMap::new();",
            "    pending_txns: HashMap<u64, Transaction>,",
            "fn topo(ids: &[TxnId], graph: &HashMap<TxnId, HashSet<TxnId>>) {",
        ]);
        for name in ["removed", "edges", "pending_txns", "graph"] {
            assert!(t.contains(name), "missing {name}: {t:?}");
        }
    }

    #[test]
    fn flags_iteration_shapes_and_respects_boundaries() {
        let t = tracked_from(&["let mut map: HashMap<u64, u64> = HashMap::new();"]);
        assert!(iteration_violation("for v in map.values() {", &t).is_some());
        assert!(iteration_violation("self.map.keys().count();", &t).is_some());
        assert!(iteration_violation("for (k, v) in &map {", &t).is_some());
        assert!(iteration_violation("for id in &mut self.map {", &t).is_some());
        // Word boundaries: `bitmap` is not `map`; `map.len()` is not iteration.
        assert!(iteration_violation("bitmap.iter().sum()", &t).is_none());
        assert!(iteration_violation("let n = map.len();", &t).is_none());
        // `for x in map_order` (different ident) is clean.
        assert!(iteration_violation("for x in &map_order {", &t).is_none());
    }

    #[test]
    fn test_modules_are_excluded() {
        let text = "fn a() {}\n#[cfg(test)]\nmod tests { for v in map.values() {} }\n";
        assert_eq!(non_test_lines(text).count(), 1);
    }
}
