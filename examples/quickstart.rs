//! Quickstart: the paper's Listing 1 in `tfhpc`.
//!
//! Builds a dataflow graph where two random matrices are generated on
//! the CPU and multiplied on the (first) GPU, then executes it through
//! a session and prints the result — deferred execution, device
//! scoping, simple placement, exactly as §II describes.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use tfhpc_core::{DeviceCtx, Graph, Placement, Resources, Session};
use tfhpc_obs::Tracer;
use tfhpc_tensor::DType;

fn main() {
    // with g.as_default(): ...
    let mut g = Graph::new();

    // with tf.device('/cpu:0'):
    //     a = tf.random_uniform(shape=[3, 3]); b = tf.random_uniform(...)
    let (a, b) = g.with_device(Placement::Cpu, |g| {
        (
            g.random_uniform(DType::F32, [3, 3], 1),
            g.random_uniform(DType::F32, [3, 3], 2),
        )
    });

    // with tf.device('/gpu:0'):
    //     c = tf.matmul(a, b)
    let c = g.with_device(Placement::Gpu(0), |g| g.matmul(a, b));

    // with tf.Session(graph=g) as sess: ret_c = sess.run(c)
    let mut sess = Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(1));
    let timeline = Arc::new(Tracer::new());
    timeline.enable();
    sess.set_tracer(Arc::clone(&timeline));

    let ret_c = sess.run(&[c], &[]).expect("session run");
    let m = &ret_c[0];
    println!("c = A . B  (A, B random on /cpu:0, matmul on /gpu:0)\n");
    let v = m.as_f32().expect("dense f32 result");
    for row in 0..3 {
        println!(
            "  [{:8.4} {:8.4} {:8.4}]",
            v[row * 3],
            v[row * 3 + 1],
            v[row * 3 + 2]
        );
    }

    // The TensorFlow-Timeline analogue (paper Fig. 3): a Chrome trace.
    let events = timeline.snapshot();
    println!("\nop timeline ({} events):", events.len());
    for ev in &events {
        println!(
            "  {:<20} on {:<8} ({:.1} us)",
            ev.name,
            ev.track,
            ev.dur_s * 1e6
        );
    }
    let trace_path = std::env::temp_dir().join("tfhpc_quickstart_trace.json");
    std::fs::write(&trace_path, timeline.to_chrome_json()).expect("write trace");
    println!("\nChrome trace written to {}", trace_path.display());
}
