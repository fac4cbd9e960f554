//! Fig. 7 — STREAM communication bandwidth (MB/s) between two nodes,
//! for gRPC/MPI/RDMA × {2, 16, 128} MB × {Tegner GPU, Tegner CPU,
//! Kebnekaise GPU}, median of repeats, 100 invocations per run
//! (exactly the paper's methodology).

use crate::{measured, print_table, Row};
use tfhpc_apps::stream::{run_stream, StreamConfig};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{kebnekaise_k80, tegner_k420, Platform};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn measure(platform: &Platform, on_gpu: bool, protocol: Protocol, mb: u64, repeats: usize) -> f64 {
    let runs: Vec<f64> = (0..repeats)
        .map(|_| {
            run_stream(
                platform,
                &StreamConfig {
                    size_bytes: mb << 20,
                    invocations: 100,
                    on_gpu,
                    protocol,
                    simulated: true,
                },
            )
            .expect("stream run")
            .mbs
        })
        .collect();
    median(runs)
}

pub fn run() {
    // Paper-reported anchor points (§VI-A text).
    let paper: fn(&str, Protocol, u64) -> Option<f64> =
        |series, proto, mb| match (series, proto, mb) {
            ("Tegner CPU", Protocol::Rdma, 128) => Some(6000.0), // ">6 GB/s"
            ("Tegner GPU", Protocol::Rdma, 128) => Some(1300.0), // "saturates ~1300 MB/s"
            ("Kebnekaise GPU", Protocol::Rdma, 128) => Some(2300.0), // "below 2300 MB/s"
            ("Tegner GPU", Protocol::Mpi, 128) => Some(318.0),
            ("Kebnekaise GPU", Protocol::Mpi, 128) => Some(480.0),
            _ => None,
        };

    let series: [(&str, Platform, bool); 3] = [
        ("Tegner GPU", tegner_k420(), true),
        ("Tegner CPU", tegner_k420(), false),
        ("Kebnekaise GPU", kebnekaise_k80(), true),
    ];

    let mut rows = Vec::new();
    for proto in Protocol::ALL {
        for (name, platform, on_gpu) in &series {
            for mb in [2u64, 16, 128] {
                let mbs = measure(platform, *on_gpu, proto, mb, 5);
                rows.push(Row::new(
                    format!("{name} / {} / {mb}MB", proto.name()),
                    mbs,
                    paper(name, proto, mb),
                    "MB/s",
                ));
            }
        }
    }
    print_table("Fig. 7: STREAM bandwidth between two nodes", &rows);

    // Shape assertions the paper states in prose.
    let get = |label: &str| measured(&rows, label);
    let ordering_ok = get("Tegner GPU / gRPC / 128MB") < get("Tegner GPU / MPI / 128MB")
        && get("Tegner GPU / MPI / 128MB") < get("Tegner GPU / RDMA / 128MB");
    println!("\nshape checks:");
    println!("  RDMA > MPI > gRPC on Tegner GPU @128MB: {ordering_ok}");
    println!(
        "  Tegner CPU RDMA exceeds 50% of 12 GB/s theoretical: {}",
        get("Tegner CPU / RDMA / 128MB") > 6000.0
    );
    println!(
        "  Kebnekaise gRPC lands near MPI (paper: 'similar bandwidth'): {:.0} vs {:.0} MB/s",
        get("Kebnekaise GPU / gRPC / 128MB"),
        get("Kebnekaise GPU / MPI / 128MB")
    );
}
