//! Micro-benchmarks for the framework runtime: session dispatch,
//! inter-op parallel scheduling, queue throughput, wire-format
//! round-trips, thread-pool loops and DES event rate.
//!
//! Plain `Instant`-based harness (`tfhpc_bench::time_case`); run with
//! `cargo bench --bench runtime`.

use std::sync::Arc;
use std::time::Instant;
use tfhpc_bench::{print_timing, time_case};
use tfhpc_core::{DeviceCtx, Graph, Resources, Session, SessionOptions};
use tfhpc_obs::Tracer;
use tfhpc_proto::Message;
use tfhpc_sim::des::Sim;
use tfhpc_tensor::{DType, Tensor};

fn bench_session_dispatch() {
    let mut g = Graph::new();
    let a = g.constant(Tensor::scalar_f64(1.0));
    let b = g.constant(Tensor::scalar_f64(2.0));
    let s1 = g.add(a, b);
    let s2 = g.mul(s1, s1);
    let sess = Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(1));
    let t = time_case("session_run_4node_graph", || sess.run(&[s2], &[]).unwrap());
    print_timing(&t, None);
}

/// The PR's acceptance demo: a graph of 8 independent MatMuls must
/// overlap on the inter-op pool and beat single-threaded dispatch.
fn bench_inter_op_scaling() {
    println!("\n== inter-op scheduling (8 independent 192x192 MatMuls) ==");
    let n = 192usize;
    let mut g = Graph::new();
    let fetches: Vec<_> = (0..8)
        .map(|i| {
            let a = g.constant(tfhpc_tensor::rng::random_uniform(DType::F64, [n, n], i).unwrap());
            let b =
                g.constant(tfhpc_tensor::rng::random_uniform(DType::F64, [n, n], i ^ 64).unwrap());
            g.matmul(a, b)
        })
        .collect();
    let g = Arc::new(g);

    let run_with = |inter: usize| -> f64 {
        let opts = SessionOptions {
            inter_op_threads: inter,
            intra_op_threads: 1,
            ..SessionOptions::default()
        };
        let mut sess =
            Session::with_options(Arc::clone(&g), Resources::new(), DeviceCtx::real(0), opts);
        let timeline = Arc::new(Tracer::new());
        timeline.enable();
        sess.set_tracer(Arc::clone(&timeline));
        sess.run(&fetches, &[]).unwrap(); // warm-up (pool spin-up)
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            sess.run(&fetches, &[]).unwrap();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let events = timeline.snapshot();
        let matmuls: Vec<_> = events
            .iter()
            .filter(|e| e.name.contains("MatMul"))
            .collect();
        let mut overlaps = 0usize;
        for i in 0..matmuls.len() {
            for j in i + 1..matmuls.len() {
                if matmuls[i].overlaps(matmuls[j]) {
                    overlaps += 1;
                }
            }
        }
        println!(
            "  inter_op_threads={inter}: best {:.3} ms, {} overlapping MatMul pairs",
            best * 1e3,
            overlaps
        );
        best
    };

    let serial = run_with(1);
    let parallel = run_with(4);
    println!("  speedup (inter=1 -> inter=4): {:.2}x", serial / parallel);
}

fn bench_queue_throughput() {
    let q = tfhpc_core::FifoQueue::new("bench", 1024);
    let v = vec![Tensor::scalar_f64(1.0)];
    let t = time_case("queue/enqueue_dequeue", || {
        q.enqueue(v.clone()).unwrap();
        q.dequeue().unwrap()
    });
    print_timing(&t, Some(1));
}

fn bench_proto_roundtrip() {
    let t = Tensor::from_f64([1024], (0..1024).map(|i| i as f64).collect()).unwrap();
    let timing = time_case("proto/tensor_8k_roundtrip", || {
        let bytes = tfhpc_core::TensorProto(t.clone()).to_bytes().unwrap();
        tfhpc_core::TensorProto::decode(&bytes).unwrap().0
    });
    print_timing(&timing, Some(8 * 1024));
}

fn bench_parallel_for() {
    let n = 1 << 20;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let t = time_case("parallel/reduce_1m", || {
        tfhpc_parallel::parallel_reduce(
            n,
            tfhpc_parallel::default_chunk(n, tfhpc_parallel::global_pool().size()),
            0.0f64,
            |lo, hi| data[lo..hi].iter().sum::<f64>(),
            |a, b| a + b,
        )
    });
    print_timing(&t, Some(n as u64));
}

fn bench_des_event_rate() {
    let t = time_case("des/4proc_1k_events", || {
        let sim = Sim::new();
        for i in 0..4 {
            sim.spawn(&format!("p{i}"), move || {
                let me = tfhpc_sim::des::current().unwrap();
                for _ in 0..250 {
                    me.advance(0.001 * (i + 1) as f64);
                }
            });
        }
        sim.run()
    });
    print_timing(&t, Some(4 * 250));
}

fn bench_graphdef_serialize() {
    let mut g = Graph::new();
    let mut last = g.constant(Tensor::scalar_f64(0.0));
    for _ in 0..100 {
        let one = g.constant(Tensor::scalar_f64(1.0));
        last = g.add(last, one);
    }
    let t = time_case("graphdef_201_nodes", || {
        let bytes = tfhpc_core::graph_to_bytes(&g).unwrap();
        tfhpc_core::graph_from_bytes(&bytes).unwrap()
    });
    print_timing(&t, None);
}

fn main() {
    bench_session_dispatch();
    bench_inter_op_scaling();
    bench_queue_throughput();
    bench_proto_roundtrip();
    bench_parallel_for();
    bench_des_event_rate();
    bench_graphdef_serialize();
}
