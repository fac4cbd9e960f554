//! The paper's evaluation as a registry: every table, figure and
//! ablation is one [`Figure`] whose `run` prints the artifact to
//! stdout. The `figures` binary serves them; `results/<artifact>` is
//! that stdout, committed.

use tfhpc_apps::cg::{CgConfig, CgReduction};
use tfhpc_apps::fft::FftConfig;
use tfhpc_apps::matmul::{run_matmul, MatmulConfig};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::Platform;

mod ablations;
mod fig10_cg;
mod fig11_fft;
mod fig3_timeline;
mod fig7_stream;
mod fig8_matmul;
mod table1;

/// One entry of the evaluation.
pub struct Figure {
    /// What `figures <name>` takes.
    pub name: &'static str,
    /// File under `results/` holding the committed stdout.
    pub artifact: &'static str,
    /// The paper artifact (or ablation) it reproduces.
    pub title: &'static str,
    /// Prints the artifact.
    pub run: fn(),
}

/// One row per entry: name (also `<name>.txt` under `results/`), the
/// function that prints it, title.
macro_rules! registry {
    ($($name:literal, $run:path, $title:literal;)*) => {
        &[$(Figure {
            name: $name,
            artifact: concat!($name, ".txt"),
            title: $title,
            run: $run,
        }),*]
    };
}

/// Every table, figure and ablation, in the order `--all` runs them.
pub const FIGURES: &[Figure] = registry! {
    "table1",                table1::run,              "Table I — TF instances per node";
    "fig3_timeline",         fig3_timeline::run,       "Fig. 3 — CG stage timeline (also writes results/fig3_cg_timeline.json)";
    "fig7_stream",           fig7_stream::run,         "Fig. 7 — STREAM bandwidth by protocol";
    "fig8_matmul",           fig8_matmul::run,         "Fig. 8 — tiled matmul strong scaling";
    "fig8_utilization",      fig8_matmul::utilization, "Fig. 8 — where one Kebnekaise run's virtual time went";
    "fig9_topology",         fig8_matmul::topology,    "Fig. 9 — Kebnekaise GPU node topology";
    "fig10_cg",              fig10_cg::run,            "Fig. 10 — CG solver strong scaling";
    "fig11_fft",             fig11_fft::run,           "Fig. 11 — FFT strong scaling";
    "ablation_transport",    ablations::transport,     "A1 — transport choice vs app throughput";
    "ablation_numa",         ablations::numa,          "A2 — Kebnekaise ranks-per-node contention";
    "ablation_tiles",        ablations::tiles,         "A3 — tile size & reducer count";
    "ablation_merge",        ablations::merge,         "A4 — FFT host-merge (Python) tax";
    "ablation_allreduce",    ablations::allreduce,     "A5 — queue-pair reducer vs ring all-reduce";
    "ablation_cg_reduction", ablations::cg_reduction,  "A6 — CG with the reducer vs the ring";
    "ablation_weak_scaling", ablations::weak_scaling,  "A7 — matmul weak scaling";
};

/// A simulated tiled matmul with the paper's prefetch depth.
fn matmul_cfg(
    n: usize,
    tile: usize,
    workers: usize,
    reducers: usize,
    protocol: Protocol,
) -> MatmulConfig {
    MatmulConfig {
        n,
        tile,
        workers,
        reducers,
        protocol,
        simulated: true,
        prefetch: 3,
    }
}

/// Gflop/s of one simulated tiled-matmul run.
fn matmul_gflops(
    platform: &Platform,
    n: usize,
    tile: usize,
    workers: usize,
    reducers: usize,
    protocol: Protocol,
) -> f64 {
    run_matmul(platform, &matmul_cfg(n, tile, workers, reducers, protocol))
        .expect("matmul run")
        .gflops
}

/// A simulated CG solve from a cold start, no checkpoints.
fn cg_cfg(
    n: usize,
    workers: usize,
    iterations: usize,
    protocol: Protocol,
    reduction: CgReduction,
) -> CgConfig {
    CgConfig {
        n,
        workers,
        iterations,
        protocol,
        simulated: true,
        checkpoint_every: None,
        resume: false,
        reduction,
    }
}

/// A simulated RDMA FFT of `2^log2_n` points in `tiles` tiles.
fn fft_cfg(log2_n: u32, tiles: usize, workers: usize, merge_cost_factor: f64) -> FftConfig {
    FftConfig {
        log2_n,
        tiles,
        workers,
        protocol: Protocol::Rdma,
        simulated: true,
        merge_cost_factor,
    }
}
