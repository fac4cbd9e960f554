//! Fig. 8 — tiled matrix-multiply strong scaling (Gflop/s) with
//! 2 reducers + {2, 4, 8, 16} GPUs on Tegner K420 / Tegner K80 /
//! Kebnekaise K80, for the paper's problem-size / tile-size pairs.
//! `topology` prints the Fig. 9 node layout.

use super::{matmul_cfg, matmul_gflops};
use crate::{measured, print_scaling, print_table, Row};
use tfhpc_apps::matmul::run_matmul_with_sim;
use tfhpc_sim::des::Sim;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{kebnekaise_k80, tegner_k420, tegner_k80, Platform};
use tfhpc_sim::topology::ClusterSim;

/// Where the virtual time went for one Kebnekaise run (top busy
/// hardware resources of the DES).
pub fn utilization() {
    let cfg = matmul_cfg(32768, 8192, 8, 2, Protocol::Rdma);
    let report = run_matmul_with_sim(&kebnekaise_k80(), &cfg).expect("matmul run");
    println!(
        "== resource utilization: Kebnekaise K80 / 32k / 8 GPUs ({:.1}s virtual) ==",
        report.0.elapsed_s
    );
    for (name, busy) in report.1.into_iter().take(12) {
        println!("  {name:<24} busy {busy:>8.2} s");
    }
}

/// Fig. 9: the Kebnekaise GPU node layout.
pub fn topology() {
    let sim = Sim::new();
    let cluster = ClusterSim::new(&sim, kebnekaise_k80(), 1);
    println!("== Fig. 9: Kebnekaise GPU node topology ==");
    println!("{}", cluster.describe_topology());
    println!("(GPUs 0-1 on island 0; GPUs 2-3 on island 1; IB + I/O on island 0)");
}

fn sweep(rows: &mut Vec<Row>, platform: &Platform, n: usize, tile: usize, gpus: &[usize]) {
    let mut series = Vec::new();
    for &w in gpus {
        let gf = matmul_gflops(platform, n, tile, w, 2, Protocol::Rdma);
        let label = format!("{} / {}k / 2+{w}", platform.label, n / 1024);
        // Paper anchor: Kebnekaise K80 peak 2478 Gflop/s at 16 GPUs, 32k.
        let paper = (platform.label == "Kebnekaise K80" && n == 32768 && w == 16).then_some(2478.0);
        series.push(Row::new(label, gf, paper, "Gflop/s"));
    }
    print_scaling(&series);
    rows.extend(series);
}

pub fn run() {
    let mut rows = Vec::new();
    println!("== Fig. 8: tiled matmul strong scaling (reducers + GPUs) ==");

    // Tegner K420: tile 4096, all three sizes, 2-8 GPUs.
    let k420 = tegner_k420();
    for n in [16384usize, 32768, 65536] {
        sweep(&mut rows, &k420, n, 4096, &[2, 4, 8]);
    }
    // Tegner K80: tile 8192, sizes 32k/65k, 2-8 GPUs (engines).
    let k80 = tegner_k80();
    for n in [32768usize, 65536] {
        sweep(&mut rows, &k80, n, 8192, &[2, 4, 8]);
    }
    // Kebnekaise K80: tile 8192, sizes 32k/65k, 2-16 GPUs.
    let keb = kebnekaise_k80();
    for n in [32768usize, 65536] {
        sweep(&mut rows, &keb, n, 8192, &[2, 4, 8, 16]);
    }

    print_table("Fig. 8: tiled matmul performance", &rows);

    let find = |label: &str| measured(&rows, label);
    let teg_speedup = find("Tegner K420 / 32k / 2+4") / find("Tegner K420 / 32k / 2+2");
    let teg80_speedup = find("Tegner K80 / 64k / 2+4") / find("Tegner K80 / 64k / 2+2");
    let keb_speedup = find("Kebnekaise K80 / 32k / 2+4") / find("Kebnekaise K80 / 32k / 2+2");
    println!("\nshape checks (paper: ~2x K420@32k, ~1.8x K80@65k, ~1.4x Kebnekaise@32k):");
    println!("  Tegner K420 32k 2->4 GPUs: {teg_speedup:.2}x");
    println!("  Tegner K80  64k 2->4 GPUs: {teg80_speedup:.2}x");
    println!("  Kebnekaise K80 32k 2->4 GPUs: {keb_speedup:.2}x");
    println!(
        "  Kebnekaise scales worse than Tegner: {}",
        keb_speedup < teg_speedup
    );
}
