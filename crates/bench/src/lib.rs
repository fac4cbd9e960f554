//! # tfhpc-bench
//!
//! Figure-regeneration harnesses and micro-benchmarks: sixteen
//! binaries, one per table/figure of the paper's evaluation (§VI), per
//! ablation, and per committed `BENCH_*.json` baseline.
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I — TF instances per node |
//! | `fig3_timeline` | Fig. 3 — CG stage timeline (Chrome trace + per-track summary) |
//! | `fig7_stream` | Fig. 7 — STREAM bandwidth by protocol |
//! | `fig8_matmul` | Fig. 8 — tiled matmul strong scaling (+ Fig. 9 topology via `--topology`) |
//! | `fig10_cg` | Fig. 10 — CG solver strong scaling |
//! | `fig11_fft` | Fig. 11 — FFT strong scaling |
//! | `ablation_transport` | A1 — transport choice vs app throughput |
//! | `ablation_numa` | A2 — Kebnekaise ranks-per-node contention |
//! | `ablation_tiles` | A3 — tile size & reducer count |
//! | `ablation_merge` | A4 — FFT host-merge (Python) tax |
//! | `ablation_allreduce` | A5 — queue-pair reducer vs ring all-reduce |
//! | `ablation_cg_reduction` | A6 — CG with the reducer vs the ring |
//! | `ablation_weak_scaling` | A7 — matmul weak scaling |
//! | `bench_runtime` | `BENCH_runtime.json` — step-replay overhead, kernel floors |
//! | `bench_serving` | `BENCH_serving.json` — multi-tenant serving load mix |
//! | `bench_transport` | `BENCH_transport.json` — transports and all-reduce family |
//!
//! The table, figure and ablation binaries print aligned rows of
//! *measured* values next to the paper's reported numbers/shape so
//! `EXPERIMENTS.md` can be refreshed by copy-paste.

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

/// Result of timing one micro-benchmark case.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Case label.
    pub label: String,
    /// Best (minimum) iteration time in seconds.
    pub best_s: f64,
    /// Mean iteration time in seconds.
    pub mean_s: f64,
    /// Iterations measured.
    pub iters: usize,
}

/// Time `body` adaptively: warm up, then run enough iterations to fill
/// roughly `budget_s` seconds (at least `min_iters`), and report the
/// best and mean per-iteration time. Plain `Instant`-based measurement —
/// the offline build has no external bench harness.
pub fn time_case<R>(label: &str, mut body: impl FnMut() -> R) -> Timing {
    use std::time::Instant;
    let budget_s = 0.2f64;
    let min_iters = 5usize;

    // Warm-up + calibration pass.
    let t0 = Instant::now();
    std::hint::black_box(body());
    let first = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_s / first) as usize).clamp(min_iters, 10_000);

    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(body());
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
    }
    Timing {
        label: label.to_string(),
        best_s: best,
        mean_s: total / iters as f64,
        iters,
    }
}

/// Format a seconds value with an auto-selected unit.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Print one timing row, with optional throughput (elements/sec based
/// on the best time).
pub fn print_timing(t: &Timing, elements: Option<u64>) {
    let thrpt = elements
        .map(|e| {
            let per_s = e as f64 / t.best_s;
            if per_s >= 1e9 {
                format!("  {:>10.2} Gelem/s", per_s / 1e9)
            } else if per_s >= 1e6 {
                format!("  {:>10.2} Melem/s", per_s / 1e6)
            } else {
                format!("  {:>10.0} elem/s", per_s)
            }
        })
        .unwrap_or_default();
    println!(
        "{:<36} best {:>12}  mean {:>12}  ({} iters){thrpt}",
        t.label,
        fmt_time(t.best_s),
        fmt_time(t.mean_s),
        t.iters
    );
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
        print_table(
            "smoke",
            &[
                Row::new("a", 1.0, Some(2.0), "x"),
                Row::new("b", 3.0, None, "x"),
            ],
        );
        print_scaling(&[
            Row::new("2", 10.0, None, "gf"),
            Row::new("4", 18.0, None, "gf"),
        ]);
    }

    #[test]
    fn time_case_measures_something() {
        let t = time_case("noop", || 1 + 1);
        assert!(t.best_s >= 0.0);
        assert!(t.mean_s >= t.best_s);
        assert!(t.iters >= 5);
        print_timing(&t, Some(1));
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(2e-3).ends_with(" ms"));
        assert!(fmt_time(2e-9).ends_with(" ns"));
    }
}
