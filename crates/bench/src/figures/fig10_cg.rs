//! Fig. 10 — CG solver strong scaling (Gflop/s, 500 iterations,
//! flops = 500·2·N²) for {2,4,8,16} GPUs on Tegner K80, Kebnekaise K80
//! and Kebnekaise V100, sizes 16384² / 32768² / 65536² — with the same
//! omissions the paper makes (65k needs ≥8 K80s; V100 nodes top out at
//! 8 GPUs).

use super::cg_cfg;
use crate::{measured, print_scaling, print_table, Row};
use tfhpc_apps::cg::{run_cg, CgReduction};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{kebnekaise_k80, kebnekaise_v100, tegner_k80, Platform};

fn measure(platform: &Platform, n: usize, workers: usize) -> f64 {
    let cfg = cg_cfg(n, workers, 500, Protocol::Rdma, CgReduction::QueuePair);
    run_cg(platform, &cfg).expect("cg run").gflops
}

fn sweep(rows: &mut Vec<Row>, platform: &Platform, n: usize, gpus: &[usize]) {
    let mut series = Vec::new();
    for &w in gpus {
        let gf = measure(platform, n, w);
        // Paper anchor: >300 Gflop/s on 8 V100s (§VI-C text).
        let paper = (platform.label == "Kebnekaise V100" && n == 32768 && w == 8).then_some(300.0);
        series.push(Row::new(
            format!("{} / {}k / {w} GPUs", platform.label, n / 1024),
            gf,
            paper,
            "Gflop/s",
        ));
    }
    print_scaling(&series);
    rows.extend(series);
}

pub fn run() {
    let mut rows = Vec::new();
    println!("== Fig. 10: CG solver strong scaling ==");

    let teg = tegner_k80();
    for n in [16384usize, 32768] {
        sweep(&mut rows, &teg, n, &[2, 4, 8]);
    }
    let keb = kebnekaise_k80();
    for n in [16384usize, 32768] {
        sweep(&mut rows, &keb, n, &[2, 4, 8, 16]);
    }
    // 65k only from 8 GPUs on Kebnekaise K80, as the paper reports.
    sweep(&mut rows, &keb, 65536, &[8, 16]);
    let v100 = kebnekaise_v100();
    for n in [16384usize, 32768] {
        sweep(&mut rows, &v100, n, &[2, 4, 8]);
    }

    print_table("Fig. 10: CG performance", &rows);

    let find = |label: &str| measured(&rows, label);
    println!("\nshape checks (paper: 1.6x Keb K80 2->4 @32k; 1.3x 4->8; 1.36x 8->16;");
    println!("              1.26x V100 2->4 @32k; 1.16x 4->8; 1.74x Tegner K80 2->4 @32k;");
    println!("              little scaling at 16k):");
    let keb24 = find("Kebnekaise K80 / 32k / 4 GPUs") / find("Kebnekaise K80 / 32k / 2 GPUs");
    let keb48 = find("Kebnekaise K80 / 32k / 8 GPUs") / find("Kebnekaise K80 / 32k / 4 GPUs");
    let keb816 = find("Kebnekaise K80 / 32k / 16 GPUs") / find("Kebnekaise K80 / 32k / 8 GPUs");
    let v24 = find("Kebnekaise V100 / 32k / 4 GPUs") / find("Kebnekaise V100 / 32k / 2 GPUs");
    let v48 = find("Kebnekaise V100 / 32k / 8 GPUs") / find("Kebnekaise V100 / 32k / 4 GPUs");
    let teg24 = find("Tegner K80 / 32k / 4 GPUs") / find("Tegner K80 / 32k / 2 GPUs");
    let small24 = find("Kebnekaise V100 / 16k / 4 GPUs") / find("Kebnekaise V100 / 16k / 2 GPUs");
    println!("  Keb K80 32k: 2->4 {keb24:.2}x, 4->8 {keb48:.2}x, 8->16 {keb816:.2}x");
    println!("  Keb V100 32k: 2->4 {v24:.2}x, 4->8 {v48:.2}x");
    println!("  Tegner K80 32k: 2->4 {teg24:.2}x");
    println!("  V100 16k 2->4 (should be smaller than 32k): {small24:.2}x vs {v24:.2}x");
    println!(
        "  diminishing returns (2->4 > 4->8): {}",
        keb24 > keb48 && v24 > v48
    );
}
