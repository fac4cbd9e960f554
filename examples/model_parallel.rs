//! Model parallelism (§II-A): "the computational graph is split across
//! different devices such as in Fig. 1" — as opposed to the data
//! parallelism the four applications use. This example pipelines one
//! graph across two GPUs of a simulated Kebnekaise V100 node and shows,
//! via the Timeline, that each stage executed on its own device with a
//! PCIe transfer in between.
//!
//! Run with: `cargo run --release --example model_parallel`

use std::sync::Arc;
use tfhpc::core::{Graph, Placement};
use tfhpc::dist::{launch, JobSpec, LaunchConfig};
use tfhpc::obs::Tracer;
use tfhpc::sim::net::Protocol;
use tfhpc::sim::platform::kebnekaise_v100;
use tfhpc::tensor::{DType, Tensor};

fn main() {
    let cfg = LaunchConfig::simulated(
        kebnekaise_v100(),
        // One task that sees BOTH GPUs of the node (model parallelism
        // happens inside one worker).
        vec![JobSpec::new("worker", 1, 2)],
        Protocol::Rdma,
    );
    let timeline = Arc::new(Tracer::new());
    timeline.enable();
    let tl = Arc::clone(&timeline);
    let out = launch(&cfg, move |ctx| {
        let n = 4096;
        let mut g = Graph::new();
        // Stage 1 on /gpu:0: C1 = A·B
        let (a, b) = g.with_device(Placement::Cpu, |g| {
            (
                g.constant(Tensor::synthetic(DType::F32, [n, n], 1)),
                g.constant(Tensor::synthetic(DType::F32, [n, n], 2)),
            )
        });
        let c1 = g.with_device(Placement::Gpu(0), |g| g.matmul(a, b));
        // Stage 2 on /gpu:1: C2 = C1·B (the edge crosses devices).
        let c2 = g.with_device(Placement::Gpu(1), |g| g.matmul(c1, b));

        let mut sess = ctx.server.session(Arc::new(g));
        sess.set_tracer(Arc::clone(&tl));
        let t0 = ctx.now();
        sess.run(&[c2], &[])?;
        println!(
            "pipelined two matmul stages across both GPUs in {:.4} virtual s",
            ctx.now() - t0
        );
        Ok(())
    })
    .expect("launch");
    drop(out);

    println!("\nop placements (from the Timeline):");
    let mut devices = Vec::new();
    for ev in timeline.snapshot() {
        if ev.name.starts_with("MatMul") {
            println!(
                "  {:<12} on {:<14} ({:.2} ms)",
                ev.name,
                ev.track,
                ev.dur_s * 1e3
            );
            devices.push(ev.track);
        }
    }
    assert_eq!(devices.len(), 2, "two pipeline stages expected");
    assert_ne!(devices[0], devices[1], "stages must run on distinct GPUs");
    println!("\nok: the graph was split across two devices (paper Fig. 1's model");
    println!("parallelism), with the cross-device edge paying a PCIe transfer.");
}
