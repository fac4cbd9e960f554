//! Every `pub fn` / `pub(crate) fn` under `crates/` has a caller: its
//! name occurs as a word somewhere other than a definition (`fn NAME`)
//! across `crates/`, `tests/`, `examples/`, `src/` and
//! `benchmark/src`. A word census, like `grep -rw`: a mention in a
//! comment or a same-named function elsewhere counts as a use, so the
//! test only catches names nothing mentions at all. The vendored
//! stand-ins under `crates/{crossbeam,parking_lot,bytes,rand}` mirror
//! external APIs and are exempt. The test scans files only.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Crates that stand in for external dependencies.
const VENDORED: [&str; 4] = ["crossbeam", "parking_lot", "bytes", "rand"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifiers of `text`, in order.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The name a `pub fn` / `pub(crate) fn` line defines, if it is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start();
    let mut rest = rest
        .strip_prefix("pub(crate) ")
        .or_else(|| rest.strip_prefix("pub "))?;
    while let Some(r) = ["const ", "unsafe ", "async "]
        .iter()
        .find_map(|q| rest.strip_prefix(q))
    {
        rest = r;
    }
    let rest = rest.strip_prefix("fn ")?;
    let name = &rest[..rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
}

#[test]
fn every_pub_fn_under_crates_has_a_caller() {
    let root = Path::new(ROOT);
    let mut corpus = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "benchmark/src"] {
        rust_files(&root.join(dir), &mut corpus);
    }
    let vendored: Vec<PathBuf> = VENDORED
        .iter()
        .map(|c| root.join("crates").join(c))
        .collect();

    // Every word that occurs other than as the name of a `fn` item.
    let mut used: BTreeSet<String> = BTreeSet::new();
    // Each `pub fn` name under `crates/`, with the files defining it.
    let mut defined: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for path in &corpus {
        let text = fs::read_to_string(path).unwrap();
        let mut prev = "";
        for w in words(&text) {
            if prev != "fn" && !used.contains(w) {
                used.insert(w.to_string());
            }
            prev = w;
        }
        let in_scope =
            path.starts_with(root.join("crates")) && !vendored.iter().any(|v| path.starts_with(v));
        if in_scope {
            let rel = path.strip_prefix(root).unwrap().display().to_string();
            for name in text.lines().filter_map(pub_fn_name) {
                defined
                    .entry(name.to_string())
                    .or_default()
                    .insert(rel.clone());
            }
        }
    }

    let n = defined.len();
    assert!(n > 500, "the scan found only {n} names");
    let unreached: Vec<String> = defined
        .iter()
        .filter(|(name, _)| !used.contains(*name))
        .map(|(name, files)| format!("{name} {files:?}"))
        .collect();
    assert!(
        unreached.is_empty(),
        "pub fns whose name occurs nowhere but their own definitions:\n  {}",
        unreached.join("\n  ")
    );
}
