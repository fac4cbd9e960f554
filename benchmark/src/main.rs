//! `benchmark` — the pinned, speed-probed ruler for every later
//! performance or simplicity change: six workloads, four bounded
//! end-to-end metrics each, and a per-layer budget taken from outside
//! the crates. README.md explains every metric and the protocol.
//!
//! Driver form (one run, result as the last line of stdout):
//!   benchmark --workload W --seed N --seconds S --trace 0|1
//! Full set (every workload untraced, then traced, then a table):
//!   benchmark [--seed N] [--window-s S] [--smoke] [--out F] [--trace-out F]
//! Tools:
//!   benchmark --compare A.json B.json
//!   benchmark --selftest

mod alloc;
mod harness;
mod layers;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{JsonObj, Stats};
use report::{Measured, Spec};
use workloads::{Check, Ctx, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Share of a traced run's `--seconds` spent on the workload's own
/// traced window; the rest goes to the layer probes.
const TRACED_WINDOW_SHARE: f64 = 0.3;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    selftest: bool,
    out: Option<String>,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("an unsigned integer")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not an unsigned integer"))?;
            }
            "--seconds" | "--window-s" => {
                let v = value("a number of seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("{flag}: `{v}` is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("{flag}: {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--selftest" => args.selftest = true,
            "--out" => args.out = Some(value("a path")?),
            "--trace-out" => args.trace_out = Some(value("a path")?),
            "--compare" => args.compare = Some((value("two set files")?, value("two set files")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload measured once.
struct Run {
    name: &'static str,
    /// The layer that does most of the work in this workload.
    layer: &'static str,
    tail_pct: f64,
    /// Stats behind the end-to-end metrics (the untraced slices).
    stats: Stats,
    /// Tracing overhead on the median op, percent; traced runs only.
    trace_overhead_pct: Option<f64>,
    end_to_end: Measured,
    /// Per metric, how far the window's two halves are apart.
    split: Vec<(&'static str, f64)>,
    checks: Vec<Check>,
}

impl Run {
    fn correct(&self) -> bool {
        self.stats.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

fn measure(w: &Workload, ctx: &Ctx) -> Run {
    let o = (w.run)(ctx);
    // In a traced window odd slices carry spans; the end-to-end view
    // and the overhead both come from comparing the two kinds.
    let untraced = |i: usize| !ctx.trace || i.is_multiple_of(2);
    let stats = o.window.stats(w.tail_pct, untraced);
    let trace_overhead_pct = ctx.trace.then(|| {
        let traced = o.window.stats(w.tail_pct, |i| i % 2 == 1);
        (traced.p50_us / stats.p50_us - 1.0) * 100.0
    });
    // Halves: every fourth-and-next slice against the other two, so
    // both halves hold untraced slices in a traced window too.
    let a = o.window.stats(w.tail_pct, |i| untraced(i) && i % 4 < 2);
    let b = o.window.stats(w.tail_pct, |i| untraced(i) && i % 4 >= 2);
    let gap = |x: f64, y: f64| (x - y).abs() / x.min(y);
    let split = vec![
        ("op_us_p50", gap(a.p50_us, b.p50_us)),
        ("op_us_tail", gap(a.tail_us, b.tail_us)),
        ("ops_per_s", gap(a.ops_per_s, b.ops_per_s)),
    ];
    let mut end_to_end = Measured::new();
    report::put(
        &mut end_to_end,
        "op_us_p50",
        stats.p50_us,
        Some(stats.raw_p50_us),
    );
    report::put(
        &mut end_to_end,
        "op_us_tail",
        stats.tail_us,
        Some(stats.raw_tail_us),
    );
    report::put(
        &mut end_to_end,
        "ops_per_s",
        stats.ops_per_s,
        Some(stats.raw_ops_per_s),
    );
    report::put(&mut end_to_end, "setup_s", o.setup_s, Some(o.setup_raw_s));
    Run {
        name: w.name,
        layer: w.layer,
        tail_pct: w.tail_pct,
        stats,
        trace_overhead_pct,
        end_to_end,
        split,
        checks: o.checks,
    }
}

fn print_run(run: &Run, spec: &Spec) {
    let s = &run.stats;
    eprintln!(
        "{} [{}]: {} ops ({} failed) in {} slices, {:.0} % valid{}, {} used ({} at reference speed), probe {:.3} ms",
        run.name,
        run.layer,
        s.attempted,
        s.failed,
        s.slices,
        s.valid_ratio * 100.0,
        if s.resolved { "" } else { " — UNRESOLVED" },
        s.used_slices,
        s.ref_slices,
        s.probe_p50_ms
    );
    for m in &spec.end_to_end {
        let v = run.end_to_end[&m.name];
        let label = if m.name == "op_us_tail" {
            format!("{} (p{})", m.name, run.tail_pct)
        } else {
            m.name.clone()
        };
        eprintln!(
            "  {label:<18} {:>14.4} {:<4} (raw {:.4})",
            v.value,
            m.unit,
            v.raw.unwrap_or(f64::NAN)
        );
    }
    if let Some(pct) = run.trace_overhead_pct {
        eprintln!("  tracing overhead on the median op: {pct:+.2} %");
    }
    print_checks(&run.checks);
}

fn print_checks(checks: &[Check]) {
    for c in checks {
        let sep = if c.detail.is_empty() { "" } else { ": " };
        eprintln!(
            "  [{}] {}{sep}{}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
}

/// The per-layer metrics of a traced run of `run`'s workload.
fn per_layer(run: &Run, layers: &layers::Layers) -> Measured {
    let mut m = Measured::new();
    for (name, value) in &layers.metrics {
        report::put(&mut m, name, *value, None);
    }
    report::put(
        &mut m,
        "bench.trace_overhead_pct",
        run.trace_overhead_pct.unwrap_or(f64::NAN),
        None,
    );
    report::put(&mut m, "bench.probe_ms_p50", run.stats.probe_p50_ms, None);
    report::put(
        &mut m,
        "bench.valid_slice_ratio",
        run.stats.valid_ratio,
        None,
    );
    m
}

fn print_layers(spec: &Spec, m: &Measured) {
    eprintln!("per-layer metrics:");
    // A full set prints the per-workload `bench.*` rows with each
    // traced window instead, so they are absent here.
    for s in &spec.per_layer {
        if let Some(v) = m.get(&s.name) {
            eprintln!("  {:<34} {:>16.4} {}", s.name, v.value, s.unit);
        }
    }
}

/// Spans of one traced window kept for the Chrome trace file.
const SPANS_PER_WINDOW: usize = 20_000;

/// Print the span table of the traced window that just ended and keep
/// the head of its spans for the trace file.
fn collect_spans(workload: &str, kept: &mut Vec<trace::Span>) {
    let (spans, dropped) = trace::drain();
    eprintln!(
        "{workload} spans ({} recorded, {dropped} more dropped at the cap):",
        spans.len()
    );
    eprintln!(
        "  {:<8} {:<24} {:>8} {:>12} {:>14} {:>14}",
        "layer", "span", "count", "p50 us", "self p50 us", "self total ms"
    );
    for r in trace::table(&spans) {
        eprintln!(
            "  {:<8} {:<24} {:>8} {:>12.3} {:>14.3} {:>14.3}",
            r.layer, r.name, r.count, r.p50_us, r.self_p50_us, r.self_total_ms
        );
    }
    kept.extend(spans.into_iter().take(SPANS_PER_WINDOW));
}

/// Write the Chrome trace of the kept spans.
fn write_trace(trace_out: Option<&str>, spans: &[trace::Span]) {
    let path = trace_out.map(std::path::PathBuf::from).unwrap_or_else(|| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        std::path::Path::new(&target)
            .join("benchmark")
            .join("trace.json")
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans)));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// One run for the driver: the result is the last line of stdout.
fn driver_run(spec: &Spec, args: &Args, w: &Workload) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let seed = args.seed;
    let ctx = Ctx {
        seed,
        seconds: if args.trace {
            seconds * TRACED_WINDOW_SHARE
        } else {
            seconds
        },
        trace: args.trace,
    };
    let run = measure(w, &ctx);
    print_run(&run, spec);
    let mut correct = run.correct();
    let metrics = if args.trace {
        let mut spans = Vec::new();
        collect_spans(w.name, &mut spans);
        write_trace(args.trace_out.as_deref(), &spans);
        let layers = layers::run(seed, seconds * (1.0 - TRACED_WINDOW_SHARE));
        print_checks(&layers.checks);
        correct &= layers.checks.iter().all(|c| c.ok);
        let m = per_layer(&run, &layers);
        print_layers(spec, &m);
        report::metrics_json(&spec.per_layer, &m)?
    } else {
        report::metrics_json(&spec.end_to_end, &run.end_to_end)?
    };
    println!(
        "{}",
        report::result_line(
            correct,
            run.stats.attempted.max(1),
            run.stats.failed,
            &metrics
        )
    );
    // The line carries `correct`; the exit code says it was printed.
    Ok(true)
}

fn run_json(spec: &Spec, run: &Run) -> Result<String, String> {
    let mut metrics = JsonObj::new();
    for m in &spec.end_to_end {
        let v = run
            .end_to_end
            .get(&m.name)
            .ok_or(format!("metric `{}` was not measured", m.name))?;
        let mut one = JsonObj::new().num("value", v.value);
        if let Some(raw) = v.raw {
            one = one.num("raw", raw);
        }
        if let Some((_, split)) = run.split.iter().find(|(n, _)| *n == m.name) {
            one = one.num("split", *split);
        }
        metrics = metrics.raw(&m.name, &one.string("unit", &m.unit).finish());
    }
    let checks: Vec<String> = run
        .checks
        .iter()
        .map(|c| {
            JsonObj::new()
                .string("name", c.name)
                .boolean("ok", c.ok)
                .string("detail", &c.detail)
                .finish()
        })
        .collect();
    let s = &run.stats;
    Ok(JsonObj::new()
        .boolean("correct", run.correct())
        .boolean("resolved", s.resolved)
        .int("attempted", s.attempted)
        .int("failed", s.failed)
        .num("failed_ratio", s.failed as f64 / s.attempted.max(1) as f64)
        .int("ops", s.samples)
        .num("tail_pct", run.tail_pct)
        .num("valid_slice_ratio", s.valid_ratio)
        .num("probe_ms_p50", s.probe_p50_ms)
        .raw("metrics", &metrics.finish())
        .raw("checks", &format!("[{}]", checks.join(", ")))
        .finish())
}

/// The full set: every workload untraced, every workload traced, the
/// layer probes once; table on stderr, set file to `--out`.
fn full_set(spec: &Spec, args: &Args, pinned: Option<usize>) -> Result<bool, String> {
    let seed = args.seed;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { spec.run_seconds });
    let traced_seconds = if args.smoke { 1.0 } else { 3.0 };
    let mut all_ok = true;
    let mut unresolved = Vec::new();
    let mut runs = JsonObj::new();
    for w in &workloads::ALL {
        let run = measure(
            w,
            &Ctx {
                seed,
                seconds,
                trace: false,
            },
        );
        print_run(&run, spec);
        all_ok &= run.correct();
        if !run.stats.resolved {
            unresolved.push(w.name);
        }
        runs = runs.raw(w.name, &run_json(spec, &run)?);
    }
    let mut traced = JsonObj::new();
    let mut spans = Vec::new();
    for w in &workloads::ALL {
        let run = measure(
            w,
            &Ctx {
                seed,
                seconds: traced_seconds,
                trace: true,
            },
        );
        all_ok &= run.correct();
        eprintln!(
            "{} traced: overhead {:+.2} % on the median op, {:.0} % of slices valid",
            w.name,
            run.trace_overhead_pct.unwrap_or(f64::NAN),
            run.stats.valid_ratio * 100.0
        );
        collect_spans(w.name, &mut spans);
        let one = JsonObj::new()
            .num(
                "bench.trace_overhead_pct",
                run.trace_overhead_pct.unwrap_or(f64::NAN),
            )
            .num("bench.probe_ms_p50", run.stats.probe_p50_ms)
            .num("bench.valid_slice_ratio", run.stats.valid_ratio);
        traced = traced.raw(w.name, &one.finish());
    }
    let layers = layers::run(seed, if args.smoke { 3.0 } else { 7.0 });
    print_checks(&layers.checks);
    all_ok &= layers.checks.iter().all(|c| c.ok);
    let mut layer_json = JsonObj::new();
    let mut m = Measured::new();
    for (name, value) in &layers.metrics {
        report::put(&mut m, name, *value, None);
        layer_json = layer_json.num(name, *value);
    }
    print_layers(spec, &m);
    write_trace(args.trace_out.as_deref(), &spans);
    if !unresolved.is_empty() {
        eprintln!(
            "UNRESOLVED (fewer than 30 % of slices valid): {}",
            unresolved.join(", ")
        );
    }
    if let Some(path) = &args.out {
        let doc = JsonObj::new()
            .string("schema", "tfhpc-benchmark-v1")
            .int("seed", seed)
            .num("window_s", seconds)
            .boolean("smoke", args.smoke)
            .raw(
                "pinned_cpu",
                &pinned.map_or("null".into(), |c| c.to_string()),
            )
            .int(
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            )
            .num("probe_ref_ms", harness::PROBE_REF_MS)
            .raw("workloads", &runs.finish())
            .raw("traced", &traced.finish())
            .raw("per_layer", &layer_json.finish())
            .finish();
        std::fs::write(path, doc + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    // A smoke run checks outputs only: one-second windows resolve
    // nothing, so an unresolved one is not a failure there.
    Ok(all_ok && (args.smoke || unresolved.is_empty()))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = Spec::load();
    if let Some((a, b)) = &args.compare {
        let read = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {p}: {e}"))
                .and_then(|t| tfhpc_obs::json::parse(&t).map_err(|e| format!("{p}: {e}")))
        };
        let (table, worse) = report::compare(&spec, &read(a)?, &read(b)?);
        print!("{table}");
        return Ok(!worse);
    }
    // Before any tfhpc call: the global pool sizes itself on first use.
    let pinned = harness::pin_to_one_cpu();
    eprintln!(
        "pinned: {}; available parallelism now {}",
        pinned.map_or("no".to_string(), |c| format!("cpu {c}")),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.selftest {
        let failures = harness::selftest();
        failures
            .iter()
            .for_each(|f| eprintln!("selftest FAILED: {f}"));
        return Ok(failures.is_empty());
    }
    match &args.workload {
        Some(name) => {
            let w = workloads::find(name).ok_or_else(|| {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (one of: {})", names.join(", "))
            })?;
            driver_run(&spec, &args, w)
        }
        None => full_set(&spec, &args, pinned),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
