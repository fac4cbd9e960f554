//! Fig. 11 — FFT strong scaling (Gflop/s) with 1 merger + {2,4,8}
//! GPUs on Tegner: problem 2³¹ in 128 tiles of 2²⁴ on K80, and 2²⁹ in
//! 64 tiles of 2²³ on K420. Timed to last-tile-collected (the paper
//! excludes the serial Python merge from the scaling numbers).

use super::fft_cfg;
use crate::{measured, print_scaling, print_table, Row};
use tfhpc_apps::fft::run_fft;
use tfhpc_sim::platform::{tegner_k420, tegner_k80, Platform};

fn measure(platform: &Platform, log2_n: u32, tiles: usize, workers: usize) -> (f64, f64) {
    let r = run_fft(platform, &fft_cfg(log2_n, tiles, workers, 1.0)).expect("fft run");
    (r.gflops, r.total_s - r.collect_s)
}

pub fn run() {
    let mut rows = Vec::new();
    println!("== Fig. 11: FFT strong scaling (mergers + GPUs) ==");

    for (platform, log2_n, tiles) in [(tegner_k80(), 31u32, 128usize), (tegner_k420(), 29, 64)] {
        let mut series = Vec::new();
        let mut merge_times = Vec::new();
        for w in [2usize, 4, 8] {
            let (gf, merge_s) = measure(&platform, log2_n, tiles, w);
            series.push(Row::new(
                format!("{} / 2^{log2_n} / 1+{w}", platform.label),
                gf,
                None,
                "Gflop/s",
            ));
            merge_times.push(merge_s);
        }
        print_scaling(&series);
        println!(
            "  serial host merge (excluded from Gflop/s, ~constant): {:?} s",
            merge_times
                .iter()
                .map(|t| (t * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        );
        rows.extend(series);
    }

    print_table("Fig. 11: FFT performance (collection phase)", &rows);

    let find = |label: &str| measured(&rows, label);
    let s24 = find("Tegner K80 / 2^31 / 1+4") / find("Tegner K80 / 2^31 / 1+2");
    let s48 = find("Tegner K80 / 2^31 / 1+8") / find("Tegner K80 / 2^31 / 1+4");
    let k420_s24 = find("Tegner K420 / 2^29 / 1+4") / find("Tegner K420 / 2^29 / 1+2");
    println!("\nshape checks (paper: ~1.6-1.8x 2->4, flattening 4->8):");
    println!(
        "  Tegner K80 2->4: {s24:.2}x, 4->8: {s48:.2}x (flattens: {})",
        s48 < s24
    );
    println!("  Tegner K420 2->4: {k420_s24:.2}x");
}
