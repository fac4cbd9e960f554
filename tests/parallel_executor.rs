//! Concurrency coverage for the inter-op dataflow scheduler: overlap of
//! independent ops, control-dependency ordering, determinism across
//! thread counts, and clean error propagation mid-graph.

use std::sync::Arc;
use tfhpc_core::{CoreError, DeviceCtx, Graph, NodeId, Resources, Session, SessionOptions};
use tfhpc_tensor::{rng, DType, Tensor};

fn options(inter: usize) -> SessionOptions {
    SessionOptions {
        inter_op_threads: inter,
        // Pinned so kernels are single-threaded: inter-op overlap is
        // the variable under test, and float reductions stay bitwise
        // reproducible.
        intra_op_threads: 1,
        ..SessionOptions::default()
    }
}

fn session_with(g: Graph, inter: usize) -> Session {
    Session::with_options(
        Arc::new(g),
        Resources::new(),
        DeviceCtx::real(0),
        options(inter),
    )
}

/// Eight independent MatMuls on four inter-op threads must produce
/// overlapping Timeline intervals — the scheduler actually runs
/// independent nodes concurrently, not merely out of order.
#[test]
fn independent_matmuls_overlap_on_timeline() {
    let n = 128usize;
    let mut g = Graph::new();
    let fetches: Vec<NodeId> = (0..8)
        .map(|i| {
            let a = g.constant(rng::random_uniform(DType::F64, [n, n], 2 * i + 1).unwrap());
            let b = g.constant(rng::random_uniform(DType::F64, [n, n], 2 * i + 2).unwrap());
            g.matmul(a, b)
        })
        .collect();
    let mut sess = session_with(g, 4);
    let timeline = Arc::new(tfhpc_obs::Tracer::new());
    timeline.enable();
    sess.set_tracer(Arc::clone(&timeline));
    sess.run(&fetches, &[]).unwrap();

    let events = timeline.snapshot();
    let matmuls: Vec<_> = events
        .iter()
        .filter(|e| e.name.contains("MatMul"))
        .collect();
    assert_eq!(matmuls.len(), 8);
    let mut overlapping_pairs = 0usize;
    for i in 0..matmuls.len() {
        for j in i + 1..matmuls.len() {
            if matmuls[i].overlaps(matmuls[j]) {
                overlapping_pairs += 1;
            }
        }
    }
    assert!(
        overlapping_pairs > 0,
        "expected concurrent MatMul intervals with inter_op_threads=4, got none \
         over {} events",
        events.len()
    );
}

/// Control dependencies must order side effects under the parallel
/// scheduler exactly as they do sequentially: each read observes every
/// increment it is control-gated behind, on all thread counts.
#[test]
fn control_dependencies_order_side_effects_in_parallel() {
    for inter in [1usize, 4] {
        let mut g = Graph::new();
        let one = g.constant(Tensor::scalar_f64(1.0));
        // A chain of three increments; the read is gated behind all of
        // them, and each increment behind the previous one.
        let bump1 = g.assign_add("ctr", one);
        let bump2 = g.assign_add("ctr", one);
        let bump3 = g.assign_add("ctr", one);
        g.add_control(bump2, bump1).unwrap();
        g.add_control(bump3, bump2).unwrap();
        let read = g.var_read("ctr");
        g.add_control(read, bump3).unwrap();
        // Parallel noise around the chain: independent work that the
        // scheduler is free to interleave.
        let noise: Vec<NodeId> = (0..6)
            .map(|i| {
                let c = g.constant(rng::random_uniform(DType::F64, [64, 64], i + 10).unwrap());
                g.matmul(c, c)
            })
            .collect();
        let sess = session_with(g, inter);
        sess.resources()
            .create_variable("ctr", Tensor::scalar_f64(0.0));
        let mut fetches = vec![read];
        fetches.extend(noise);
        let out = sess.run(&fetches, &[]).unwrap();
        assert_eq!(
            out[0].scalar_value_f64().unwrap(),
            3.0,
            "read must observe all 3 control-gated increments (inter={inter})"
        );
    }
}

/// Fetch values must be identical whether the graph runs on one or four
/// inter-op threads (intra-op pinned to 1 so reductions are bitwise
/// stable).
#[test]
fn fetches_are_deterministic_across_thread_counts() {
    let build = || {
        let mut g = Graph::new();
        let fetches: Vec<NodeId> = (0..6)
            .map(|i| {
                let a = g.constant(rng::random_uniform(DType::F64, [48, 48], 7 * i + 1).unwrap());
                let b = g.constant(rng::random_uniform(DType::F64, [48, 48], 7 * i + 2).unwrap());
                let m = g.matmul(a, b);
                let s = g.sum(m);
                g.sqrt(s)
            })
            .collect();
        (g, fetches)
    };
    let run = |inter: usize| -> Vec<Vec<f64>> {
        let (g, fetches) = build();
        let sess = session_with(g, inter);
        sess.run(&fetches, &[])
            .unwrap()
            .iter()
            .map(|t| t.as_f64().unwrap().to_vec())
            .collect()
    };
    assert_eq!(run(1), run(4));
}

/// A kernel error mid-graph (reading a variable that does not exist)
/// must cancel the run cleanly: the error surfaces, no panic, and the
/// session stays usable for subsequent runs.
#[test]
fn mid_graph_error_cancels_cleanly() {
    let mut g = Graph::new();
    // Plenty of healthy work in flight around the failing node.
    let healthy: Vec<NodeId> = (0..6)
        .map(|i| {
            let c = g.constant(rng::random_uniform(DType::F64, [96, 96], i + 1).unwrap());
            g.matmul(c, c)
        })
        .collect();
    let bad = g.var_read("does_not_exist");
    let sess = session_with(g, 4);

    let mut fetches = healthy.clone();
    fetches.push(bad);
    match sess.run(&fetches, &[]) {
        Err(CoreError::NotFound(_)) => {}
        other => panic!("expected NotFound for missing variable, got {other:?}"),
    }

    // The session is not poisoned: the healthy subset still runs.
    let out = sess.run(&healthy, &[]).unwrap();
    assert_eq!(out.len(), 6);
    for t in &out {
        assert_eq!(t.shape().dims(), &[96, 96]);
    }
}

/// RunMetadata counters must agree between executors: same ops, same
/// bytes, regardless of scheduling.
#[test]
fn run_metadata_agrees_across_executors() {
    let build = || {
        let mut g = Graph::new();
        let fetches: Vec<NodeId> = (0..5)
            .map(|i| {
                let c = g.constant(Tensor::from_f64([32], vec![i as f64; 32]).unwrap());
                let n1 = g.neg(c);
                g.add(n1, c)
            })
            .collect();
        (g, fetches)
    };
    let run = |inter: usize| {
        let (g, fetches) = build();
        let sess = session_with(g, inter);
        let (_, meta) = sess.run_with_metadata(&fetches, &[]).unwrap();
        (meta.ops_executed, meta.output_bytes, meta.kernel_seconds)
    };
    let (seq_ops, seq_bytes, seq_kernel) = run(1);
    let (par_ops, par_bytes, par_kernel) = run(4);
    assert_eq!(seq_ops, par_ops);
    assert_eq!(seq_bytes, par_bytes);
    // Real mode charges no modeled kernel time on either path.
    assert_eq!(seq_kernel, 0.0);
    assert_eq!(par_kernel, 0.0);
}
