//! # tfhpc-bench
//!
//! The evaluation harness: four binaries over one library.
//!
//! * `figures` — every table, figure and ablation of the paper's
//!   evaluation (§VI) as an entry of [`figures::FIGURES`];
//!   `figures --list` prints the registry, `figures <name>` one entry,
//!   `figures --all --out-dir results` regenerates `results/`.
//! * `bench_runtime`, `bench_serving`, `bench_transport` — generators
//!   and `--check` gates of the committed `BENCH_*.json` baselines,
//!   sharing [`Args`], [`write_out`], [`Baseline`] and [`Gates`].
//!
//! Figure entries print aligned rows of *measured* values next to the
//! paper's reported numbers/shape so `EXPERIMENTS.md` can be refreshed
//! by copy-paste.

use tfhpc_obs::json::{self, JsonValue};

pub mod figures;

/// One row of a figure table: a label, the measured value, and the
/// paper's reported value/shape (when the paper gives one).
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (platform / size / protocol combination).
    pub label: String,
    /// Measured value in the figure's unit.
    pub measured: f64,
    /// Paper-reported value, if the text/figure gives a number.
    pub paper: Option<f64>,
    /// Unit string.
    pub unit: &'static str,
}

impl Row {
    /// Build a row.
    pub fn new(
        label: impl Into<String>,
        measured: f64,
        paper: Option<f64>,
        unit: &'static str,
    ) -> Row {
        Row {
            label: label.into(),
            measured,
            paper,
            unit,
        }
    }
}

/// Print a titled table of rows with a measured-vs-paper column.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<44} {:>14} {:>14}  unit",
        "configuration", "measured", "paper"
    );
    println!("{}", "-".repeat(84));
    for r in rows {
        let paper = r
            .paper
            .map(|p| format!("{p:>14.1}"))
            .unwrap_or_else(|| format!("{:>14}", "—"));
        println!("{:<44} {:>14.1} {paper}  {}", r.label, r.measured, r.unit);
    }
}

/// Print the speedup between successive rows (strong-scaling factor).
pub fn print_scaling(rows: &[Row]) {
    for pair in rows.windows(2) {
        if pair[0].measured > 0.0 {
            println!(
                "  scaling {} -> {}: {:.2}x",
                pair[0].label,
                pair[1].label,
                pair[1].measured / pair[0].measured
            );
        }
    }
}

/// The measured value of the row labelled `label`; the shape checks
/// address rows by label, so a typo must say which one it was.
pub fn measured(rows: &[Row], label: &str) -> f64 {
    rows.iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("no row labelled {label:?}"))
        .measured
}

/// The flags every `bench_*` binary takes.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// `--smoke`: the short sweep CI runs.
    pub smoke: bool,
    /// `--out <path>`: where the JSON goes.
    pub out: String,
    /// `--check <path>`: the committed baseline to gate against.
    pub check: Option<String>,
}

impl Args {
    /// Parse the process arguments; anything else is a usage error
    /// (exit 2), so a mistyped `--check` cannot silently skip the gates.
    pub fn parse(default_out: &str) -> Args {
        Args::parse_from(std::env::args().skip(1), default_out).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: [--smoke] [--out <path>] [--check <baseline.json>]");
            std::process::exit(2)
        })
    }

    fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            smoke: false,
            out: default_out.to_string(),
            check: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a path"));
            match flag.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" => parsed.out = value()?,
                "--check" => parsed.check = Some(value()?),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(parsed)
    }
}

/// Write a bench's JSON (or summary) to `path`, creating its directory.
pub fn write_out(path: &str, body: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// `items` as the lines of a JSON array, one `row` each. The bench
/// writers stay format strings: `cmp` pins their bytes.
pub fn json_rows<T>(items: &[T], row: impl Fn(&T) -> String) -> String {
    items.iter().map(row).collect::<Vec<_>>().join(",\n")
}

/// A committed `BENCH_*.json`, parsed; numbers are addressed by path.
pub struct Baseline {
    name: String,
    doc: JsonValue,
}

impl Baseline {
    /// Read and parse the baseline at `path`.
    pub fn read(path: &str) -> Baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Baseline::parse(path, &text).unwrap_or_else(|e| panic!("baseline {path}: {e}"))
    }

    /// Parse baseline `text`; `name` is what failed lookups call it.
    pub fn parse(name: &str, text: &str) -> Result<Baseline, String> {
        Ok(Baseline {
            name: name.to_string(),
            doc: json::parse(text)?,
        })
    }

    /// Whether the baseline was written by a `--smoke` run.
    pub fn smoke(&self) -> bool {
        matches!(self.doc.get("smoke"), Some(JsonValue::Bool(true)))
    }

    /// The number at `path`: dotted object keys, where a key holding an
    /// array is followed by `[field == value, ...]` selecting its first
    /// element whose fields all match (strings quoted, numbers bare) —
    /// `report.tenants[tenant == "interactive"].p99_s`.
    pub fn get(&self, path: &str) -> Option<f64> {
        let mut at = &self.doc;
        let mut rest = path;
        while !rest.is_empty() {
            let key_end = rest.find(['.', '[']).unwrap_or(rest.len());
            at = at.get(&rest[..key_end])?;
            rest = &rest[key_end..];
            if let Some(select) = rest.strip_prefix('[') {
                let (preds, after) = select.split_once(']').expect("path closes its '['");
                at = at.as_array()?.iter().find(|el| {
                    preds.split(", ").all(|pred| {
                        let (field, want) = pred.split_once(" == ").expect("field == value");
                        match el.get(field) {
                            Some(JsonValue::String(s)) => want.trim_matches('"') == s,
                            Some(JsonValue::Number(n)) => want.parse() == Ok(*n),
                            _ => false,
                        }
                    })
                })?;
                rest = after;
            }
            rest = rest.strip_prefix('.').unwrap_or(rest);
        }
        at.as_f64()
    }
}

/// The pass/fail ledger of one `--check`: every gate prints one `OK:`
/// line (stdout) or `FAIL:` line (stderr), and the run exits 1 at the
/// end if any failed.
#[derive(Default)]
pub struct Gates {
    failures: usize,
    /// Printed between `OK`/`FAIL` and the colon, e.g. `[staged]`.
    pub tag: String,
}

impl Gates {
    /// Record one gate; `msg` states what held (or was meant to).
    pub fn check(&mut self, ok: bool, msg: String) {
        if ok {
            println!("OK{}: {msg}", self.tag);
        } else {
            self.fail(msg);
        }
    }

    /// Record a failed gate that prints nothing when it holds.
    pub fn fail(&mut self, msg: String) {
        eprintln!("FAIL{}: {msg}", self.tag);
        self.failures += 1;
    }

    /// The baseline's number at `path`. A path that resolves nothing is
    /// a failed gate naming it, never a skipped comparison.
    pub fn lookup(&mut self, base: &Baseline, path: &str) -> Option<f64> {
        let found = base.get(path);
        if found.is_none() {
            self.fail(format!("baseline {} has no {path}", base.name));
        }
        found
    }

    /// Exit 1 if any gate failed, else print `summary` as the last `OK:`.
    pub fn finish(self, summary: &str) {
        if self.failures > 0 {
            eprintln!("FAIL: {} gate(s) failed", self.failures);
            std::process::exit(1);
        }
        println!("OK: {summary}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_construct() {
        let r = Row::new("Tegner K420 / RDMA / 128MB", 1300.0, Some(1300.0), "MB/s");
        assert_eq!(r.unit, "MB/s");
        assert_eq!(r.paper, Some(1300.0));
    }

    #[test]
    fn printing_does_not_panic() {
        let rows = [
            Row::new("a", 1.0, Some(2.0), "x"),
            Row::new("b", 3.0, None, "x"),
        ];
        print_table("smoke", &rows);
        print_scaling(&rows);
        assert_eq!(measured(&rows, "b"), 3.0);
    }

    #[test]
    #[should_panic(expected = "no row labelled \"c\"")]
    fn a_missing_row_is_named() {
        measured(&[Row::new("a", 1.0, None, "x")], "c");
    }

    #[test]
    fn args_parse_once_and_reject_what_they_do_not_know() {
        let parse = |args: &[&str]| Args::parse_from(args.iter().map(|a| a.to_string()), "d.json");
        assert_eq!(
            parse(&["--check", "b.json", "--smoke"]),
            Ok(Args {
                smoke: true,
                out: "d.json".into(),
                check: Some("b.json".into())
            })
        );
        assert_eq!(parse(&["--out", "o.json"]).unwrap().out, "o.json");
        assert!(parse(&["--chekc", "b.json"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }

    const SERVING: &str = include_str!("../../../BENCH_serving.json");
    const INTERACTIVE_P99: &str = "report.tenants[tenant == \"interactive\"].p99_s";

    #[test]
    fn paths_tell_the_two_serving_reports_apart() {
        let base = Baseline::parse("BENCH_serving.json", SERVING).unwrap();
        assert!(!base.smoke());
        let load = base.get(INTERACTIVE_P99).unwrap();
        let flood = base.get(&format!("overload.{INTERACTIVE_P99}")).unwrap();
        assert_eq!(load, 0.002657559);
        assert_ne!(load, flood);
        assert_eq!(base.get("overload.queue_bound"), Some(48.0));
        assert_eq!(base.get("report.tenants[tenant == \"nobody\"].p99_s"), None);
        assert_eq!(base.get("report.tenants"), None);
    }

    #[test]
    fn gates_fail_iff_a_check_failed() {
        let mut gates = Gates::default();
        gates.check(true, "holds".into());
        assert_eq!(gates.failures, 0);
        gates.check(false, "does not".into());
        gates.check(true, "holds again".into());
        assert_eq!(gates.failures, 1);
    }

    #[test]
    fn a_field_missing_from_the_baseline_fails_the_gate() {
        let mut gates = Gates::default();
        let base = Baseline::parse("BENCH_serving.json", SERVING).unwrap();
        assert!(gates.lookup(&base, INTERACTIVE_P99).is_some());
        assert_eq!(gates.failures, 0);
        // The overload report still carries the field: first-occurrence
        // scanning would have found that one instead.
        let cut = SERVING.replacen("      \"p99_s\": 0.002657559,\n", "", 1);
        assert_ne!(cut, SERVING);
        let base = Baseline::parse("cut", &cut).unwrap();
        assert_eq!(gates.lookup(&base, INTERACTIVE_P99), None);
        assert_eq!(gates.failures, 1);
    }

    #[test]
    fn the_registry_is_what_results_holds() {
        use std::collections::BTreeSet;
        let names: BTreeSet<_> = figures::FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), figures::FIGURES.len(), "duplicate figure name");
        let artifacts: BTreeSet<String> = figures::FIGURES
            .iter()
            .map(|f| f.artifact.to_string())
            .collect();
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(results)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            // bench_transport's full run writes this one.
            .filter(|f| f.ends_with(".txt") && f != "transport_crossover.txt")
            .collect();
        assert_eq!(artifacts, committed);
    }
}
