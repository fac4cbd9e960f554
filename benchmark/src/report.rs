//! What the benchmark prints and compares: the driver's result line,
//! the set file a full run writes, and `--compare`. Metric names,
//! units and bounds are read from `BENCHMARK.json` (embedded at build
//! time), so the contract has one source.

use std::collections::BTreeMap;

use tfhpc_obs::json::{self, JsonValue};

use crate::harness::JsonObj;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share by which the metric may worsen; end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> &[JsonValue] {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be an array"))
        };
        let text = |v: &JsonValue, key: &str| -> String {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("BENCHMARK.json: `run_seconds` must be a number"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// One named measurement with its raw (un-normalised) twin, where
/// there is one.
#[derive(Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub raw: Option<f64>,
}

pub type Measured = BTreeMap<String, Value>;

pub fn put(m: &mut Measured, name: &str, value: f64, raw: Option<f64>) {
    m.insert(name.to_string(), Value { value, raw });
}

/// The `metrics` object of a result: every metric of `specs`, in that
/// order. A metric that was not measured, or is not a finite number,
/// is an error: the contract asks for all of them on every run.
pub fn metrics_json(specs: &[MetricSpec], measured: &Measured) -> Result<String, String> {
    let mut obj = JsonObj::new();
    for spec in specs {
        let v = measured
            .get(&spec.name)
            .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
        if !v.value.is_finite() {
            return Err(format!("metric `{}` is {}", spec.name, v.value));
        }
        let one = JsonObj::new()
            .num("value", v.value)
            .string("unit", &spec.unit);
        obj = obj.raw(&spec.name, &one.finish());
    }
    Ok(obj.finish())
}

/// The driver's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    JsonObj::new()
        .boolean("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", metrics)
        .finish()
}

/// `--compare A B`: per workload x end-to-end metric, how far B is
/// from A in the worse direction, against the bound. Returns the
/// table and whether any row is `worse`.
pub fn compare(spec: &Spec, a: &JsonValue, b: &JsonValue) -> (String, bool) {
    use std::fmt::Write;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in &spec.workloads {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|x| x.get(w)),
            b.get("workloads").and_then(|x| x.get(w)),
        ) else {
            let _ = writeln!(out, "{w:<16} missing from one of the files");
            continue;
        };
        let resolved = |x: &JsonValue| x.get("resolved") == Some(&JsonValue::Bool(true));
        for m in &spec.end_to_end {
            let field = |x: &JsonValue, key: &str| {
                x.get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|v| v.get(key))
                    .and_then(JsonValue::as_f64)
            };
            let (Some(va), Some(vb)) = (field(wa, "value"), field(wb, "value")) else {
                let _ = writeln!(out, "{w:<16} {:<12} missing", m.name);
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            // Positive = B worse than A, as a share of A.
            let worse_by = if m.lower_is_better {
                vb / va - 1.0
            } else {
                1.0 - vb / va
            };
            // The two halves of one window disagreeing by more than
            // the bound means the run cannot resolve a change that
            // small.
            let split = field(wa, "split")
                .unwrap_or(0.0)
                .max(field(wb, "split").unwrap_or(0.0));
            let verdict = if !resolved(wa) || !resolved(wb) || split > bound {
                "unresolved"
            } else if worse_by > bound {
                any_worse = true;
                "worse"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{w:<16} {:<12} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {verdict}",
                m.name,
                worse_by * 100.0,
                bound * 100.0
            );
        }
        let failed = |x: &JsonValue| {
            x.get("failed_ratio")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        // failed_ratio has an absolute bound: it is 0 on a good run.
        let delta = failed(wb) - failed(wa);
        let verdict = if delta > 0.001 {
            any_worse = true;
            "worse"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{w:<16} {:<12} {:>14.6} {:>14.6} {:>+9.6} {:>7}  {verdict}",
            "failed_ratio",
            failed(wa),
            failed(wb),
            delta,
            "+0.001"
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_what_the_code_runs() {
        let spec = Spec::load();
        let names: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let specs = vec![MetricSpec {
            name: "x".into(),
            unit: "us".into(),
            lower_is_better: true,
            bound: None,
        }];
        let mut m = Measured::new();
        assert!(metrics_json(&specs, &m).is_err());
        put(&mut m, "x", f64::NAN, None);
        assert!(metrics_json(&specs, &m).is_err());
        put(&mut m, "x", 1.25, Some(2.5));
        assert_eq!(
            metrics_json(&specs, &m).unwrap(),
            r#"{"x": {"value": 1.25, "unit": "us"}}"#
        );
    }

    fn set(p50: f64, split: f64, resolved: bool) -> JsonValue {
        let spec = Spec::load();
        let metrics = spec
            .end_to_end
            .iter()
            .fold(JsonObj::new(), |o, m| {
                let v = if m.name == "op_us_p50" { p50 } else { 100.0 };
                o.raw(
                    &m.name,
                    &JsonObj::new().num("value", v).num("split", split).finish(),
                )
            })
            .finish();
        let one = JsonObj::new()
            .boolean("resolved", resolved)
            .num("failed_ratio", 0.0)
            .raw("metrics", &metrics)
            .finish();
        let all = spec
            .workloads
            .iter()
            .fold(JsonObj::new(), |o, w| o.raw(w, &one))
            .finish();
        json::parse(&JsonObj::new().raw("workloads", &all).finish()).unwrap()
    }

    #[test]
    fn compare_says_ok_worse_and_unresolved() {
        let spec = Spec::load();
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "op_us_p50")
            .unwrap()
            .bound
            .unwrap();
        let (table, worse) = compare(
            &spec,
            &set(100.0, 0.0, true),
            &set(100.0 * (1.0 + bound / 2.0), 0.0, true),
        );
        assert!(
            !worse && !table.contains("worse\n") && table.contains(" ok"),
            "{table}"
        );
        let (table, worse) = compare(
            &spec,
            &set(100.0, 0.0, true),
            &set(100.0 * (1.0 + 2.0 * bound), 0.0, true),
        );
        assert!(worse && table.contains("  worse"), "{table}");
        let (table, worse) = compare(
            &spec,
            &set(100.0, 0.0, true),
            &set(100.0 * (1.0 + 2.0 * bound), 0.0, false),
        );
        assert!(!worse && table.contains("unresolved"), "{table}");
        let (_, worse) = compare(
            &spec,
            &set(100.0, 2.0 * bound, true),
            &set(100.0 * (1.0 + 2.0 * bound), 0.0, true),
        );
        assert!(!worse);
    }
}
