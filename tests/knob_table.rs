//! The README's knob table cannot drift from the code: its `TFHPC_*`
//! rows are exactly the names the sources read through
//! `tfhpc_core::env::env_*` or `std::env::var`. The test scans files
//! only; it never reads or sets the environment.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Names passed as string literals to an `env_*` helper or
/// `env::var` anywhere under `dir`.
fn read_names(dir: &Path, names: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            read_names(&path, names);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        for (at, _) in text.match_indices("\"TFHPC_") {
            let Some(callee) = text[..at].trim_end().strip_suffix('(') else {
                continue;
            };
            let path_start = callee
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                .map_or(0, |i| i + 1);
            let callee = &callee[path_start..];
            let last = callee.rsplit("::").next().unwrap_or_default();
            if last.starts_with("env_") || callee.ends_with("env::var") {
                let name = &text[at + 1..];
                names.insert(name[..name.find('"').unwrap()].to_string());
            }
        }
    }
}

#[test]
fn readme_knob_rows_equal_the_names_the_code_reads() {
    let mut read = BTreeSet::new();
    for dir in ["crates", "tests", "examples"] {
        read_names(&Path::new(ROOT).join(dir), &mut read);
    }
    read.retain(|name| !name.starts_with("TFHPC_ENVTEST_"));
    let readme = fs::read_to_string(Path::new(ROOT).join("README.md")).unwrap();
    let rows: BTreeSet<String> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `TFHPC_"))
        .map(|rest| format!("TFHPC_{}", &rest[..rest.find('`').unwrap()]))
        .collect();
    assert!(read.len() > 20, "the scan found only {read:?}");
    assert_eq!(
        rows.difference(&read).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "README rows no code reads"
    );
    assert_eq!(
        read.difference(&rows).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "knobs the code reads with no README row"
    );
}
