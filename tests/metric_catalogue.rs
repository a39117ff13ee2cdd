//! The metric catalogue is complete and has no stale rows.
//!
//! OPERATIONS.md §6 is the operator's list of every series the binaries can
//! emit. This test reads both sides and fails on any name that appears in
//! only one of them:
//!
//! - the code side is every `"mbta_…"` string literal in the first-party
//!   non-test sources (`crates/*/src`, `src`; a file's test module starts at
//!   its first `#[cfg(test)]` line, comment lines are skipped), which covers
//!   the literals handed to `counter_add`, `gauge_set`, `observe`,
//!   `DeferredCount::new` and the registry constructors and the names
//!   routed through small helpers; a `span!("x")` literal emits `x_ms`
//!   instead, and `s.attr("k", n)` on a span bound as `let s = span!("x")`
//!   emits `x_k_total`;
//! - the doc side is every backticked `mbta_…` name in §6.
//!
//! Label sets (`{shard="3"}`) are stripped on both sides. A new series
//! therefore needs its row in §6, and a deleted one takes its row with it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The metric name starting at `s` (after its opening quote): the run of
/// `[a-z0-9_]`, which stops before a label set or a format placeholder.
fn name_at(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The identifier a `let` binds on `line`, if the line is a `let`.
fn let_binding(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    Some(&rest[..end])
}

/// The series one non-test source can emit.
fn emitted(source: &str, names: &mut BTreeSet<String>) {
    let code: Vec<&str> = source
        .lines()
        .take_while(|l| l.trim_start() != "#[cfg(test)]")
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect();
    let text = code.join("\n");
    let mut spans: BTreeMap<&str, &str> = BTreeMap::new();
    for line in &code {
        if let (Some(var), Some(at)) = (let_binding(line), line.find("span!(\"")) {
            spans.insert(var, name_at(&line[at + "span!(\"".len()..]));
        }
    }
    let mut rest = text.as_str();
    while let Some(at) = rest.find("\"mbta_") {
        let name = name_at(&rest[at + 1..]);
        let is_span = rest[..at].trim_end().ends_with("span!(");
        names.insert(if is_span {
            format!("{name}_ms")
        } else {
            name.to_string()
        });
        rest = &rest[at + 1 + name.len()..];
    }
    let mut rest = text.as_str();
    while let Some(at) = rest.find(".attr(") {
        let receiver = rest[..at]
            .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
            .next()
            .unwrap_or("");
        let args = rest[at + ".attr(".len()..].trim_start();
        if let (Some(span), Some(key)) = (spans.get(receiver), args.strip_prefix('"')) {
            names.insert(format!("{span}_{}_total", name_at(key)));
        }
        rest = &rest[at + 1..];
    }
}

/// Every series the first-party non-test sources can emit.
fn code_names(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    let crates = fs::read_dir(root.join("crates")).expect("the crates directory");
    for krate in crates {
        let src = krate.expect("a crate directory").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    rust_files(&root.join("src"), &mut files);
    let mut names = BTreeSet::new();
    for file in files {
        let source = fs::read_to_string(&file).expect("a readable source file");
        emitted(&source, &mut names);
    }
    names
}

/// Every backticked `mbta_*` name in OPERATIONS.md §6.
fn catalogue_names(root: &Path) -> BTreeSet<String> {
    let ops = fs::read_to_string(root.join("OPERATIONS.md")).expect("OPERATIONS.md");
    let start = ops.find("\n## 6.").expect("OPERATIONS.md has a §6");
    let end = ops[start + 1..]
        .find("\n## ")
        .map_or(ops.len(), |e| start + 1 + e);
    let section = &ops[start..end];
    let names: BTreeSet<String> = section
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|quoted| quoted.starts_with("mbta_"))
        .map(|quoted| name_at(quoted).to_string())
        .collect();
    assert!(names.len() > 20, "§6 lists only {} series", names.len());
    names
}

#[test]
fn every_emitted_series_is_catalogued_and_every_catalogued_one_is_emitted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = code_names(root);
    let docs = catalogue_names(root);
    let undocumented: Vec<&String> = code.difference(&docs).collect();
    let stale: Vec<&String> = docs.difference(&code).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "emitted but missing from OPERATIONS.md §6: {undocumented:?}\n\
         in §6 but emitted nowhere: {stale:?}"
    );
}

#[test]
fn the_scanner_reads_literals_spans_and_attributes() {
    let source = r#"
fn solve() {
    // counter_add("mbta_commented_out_total", 1);
    let batch = mbta_telemetry::span!("mbta_demo_batch");
    batch.attr("events", 3);
    mbta_telemetry::counter_add(
        "mbta_demo_events_total",
        1,
    );
    observe(&format!("mbta_demo_shard_ms{{shard=\"{s}\"}}"), 1.0);
}

#[cfg(test)]
mod tests {
    fn t() { counter_add("mbta_demo_test_only_total", 1); }
}
"#;
    let mut names = BTreeSet::new();
    emitted(source, &mut names);
    let want = [
        "mbta_demo_batch_ms",
        "mbta_demo_batch_events_total",
        "mbta_demo_events_total",
        "mbta_demo_shard_ms",
    ];
    assert_eq!(names, want.iter().map(|s| s.to_string()).collect());
}
