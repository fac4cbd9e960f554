//! What a steady-state `Session::run` may allocate, and what a
//! rewritten program must still report.
//!
//! The first half counts allocations of the benchmark's two session
//! steps (its graphs, rebuilt here) with a counting global allocator:
//! on a plan-cache hit a step allocates only what leaves the session —
//! the result list and the fetched tensors' payloads. The second half
//! runs the paper's CG worker update (`mul_scalar → sub`,
//! `mul_scalar → add` on `Gpu(0)`) in virtual time and checks that the
//! rewritten program charges, counts and reports exactly what the
//! node-by-node program does. Last, the wire in real mode: a
//! steady-state `remote_assign_add` of a 1 MiB vector between two
//! tasks allocates no buffer at all, and a queue-pair reduction round
//! allocates a pinned number of times on the worker and on the reducer
//! — none of them a `format!`-ed queue name on the reducer's side. A
//! sealed frame is built in the one buffer `seal` returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;
use tfhpc_core::{
    DeviceCtx, Graph, NodeId, Placement, Resources, RunMetadata, Session, SessionOptions,
};
use tfhpc_dist::{launch, worker_all_reduce, JobSpec, LaunchConfig, ReduceOp, Reducer, TaskKey};
use tfhpc_sim::des::Sim;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};
use tfhpc_sim::topology::ClusterSim;
use tfhpc_tensor::{rng, DType, Shape, Tensor};

/// Counts this thread's allocation calls (tests of one binary run on
/// parallel threads; a process-wide count would see the neighbours').
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// The calls among them that asked for `LARGE_BYTES` or more.
    static LARGE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// A tenth of the smallest tensor buffer the wire test moves, and far
/// above any bookkeeping allocation.
const LARGE_BYTES: usize = 64 << 10;

fn note(bytes: usize) {
    // `try_with`: the allocator is also called while a thread's locals
    // are being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    if bytes >= LARGE_BYTES {
        let _ = LARGE_CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    allocations_and_large(f).0
}

/// Allocation calls `f` makes on this thread, and how many of them
/// were large.
fn allocations_and_large(f: impl FnOnce()) -> (u64, u64) {
    let before = (CALLS.with(Cell::get), LARGE_CALLS.with(Cell::get));
    f();
    (
        CALLS.with(Cell::get) - before.0,
        LARGE_CALLS.with(Cell::get) - before.1,
    )
}

fn uniform(shape: impl Into<Shape>, seed: u64) -> Tensor {
    rng::random_uniform(DType::F64, shape, seed).unwrap()
}

struct Step {
    graph: Graph,
    fetches: Vec<NodeId>,
    feeds: Vec<(NodeId, Tensor)>,
}

/// The benchmark's `session-cg` step: four unrolled CG iterations over
/// fed x, r, p — 49 nodes.
fn cg_step() -> Step {
    const N: usize = 64;
    let mut g = Graph::new();
    let a = g.constant(uniform([N, N], 1));
    let ph_x = g.placeholder(DType::F64, Some(Shape::vector(N)));
    let ph_r = g.placeholder(DType::F64, Some(Shape::vector(N)));
    let ph_p = g.placeholder(DType::F64, Some(Shape::vector(N)));
    let (mut x, mut r, mut p) = (ph_x, ph_r, ph_p);
    let mut rs = g.dot(r, r);
    for _ in 0..4 {
        let q = g.matvec(a, p);
        let pap = g.dot(p, q);
        let alpha = g.div(rs, pap);
        let xa = g.mul_scalar(p, alpha);
        x = g.add(x, xa);
        let ra = g.mul_scalar(q, alpha);
        r = g.sub(r, ra);
        let rs1 = g.dot(r, r);
        let beta = g.div(rs1, rs);
        let pb = g.mul_scalar(p, beta);
        p = g.add(r, pb);
        rs = rs1;
    }
    let r0 = uniform([N], 3);
    Step {
        graph: g,
        fetches: vec![x, r, p, rs],
        feeds: vec![(ph_x, uniform([N], 2)), (ph_r, r0.clone()), (ph_p, r0)],
    }
}

/// The benchmark's `session-matmul` step: eight 64³ products, summed
/// and rescaled.
fn matmul_step() -> Step {
    const N: usize = 64;
    let mut g = Graph::new();
    let products: Vec<NodeId> = (0..8u64)
        .map(|i| {
            let a = g.constant(uniform([N, N], 100 + i));
            let b = g.constant(uniform([N, N], 200 + i));
            g.matmul(a, b)
        })
        .collect();
    let sum = g.add_n(&products);
    let out = g.scale(sum, 0.5);
    Step {
        graph: g,
        fetches: vec![out],
        feeds: vec![],
    }
}

fn sequential_options(step_replay: bool) -> SessionOptions {
    SessionOptions {
        inter_op_threads: 1,
        intra_op_threads: 1,
        step_replay,
        ..SessionOptions::default()
    }
}

/// Mean allocation calls per step over 100 steady-state steps.
fn allocations_per_step(step: Step) -> f64 {
    let session = Session::with_options(
        Arc::new(step.graph),
        Resources::new(),
        DeviceCtx::real(0),
        sequential_options(true),
    );
    for _ in 0..20 {
        session.run(&step.fetches, &step.feeds).unwrap();
    }
    const STEPS: u64 = 100;
    let calls = allocations(|| {
        for _ in 0..STEPS {
            std::hint::black_box(session.run(&step.fetches, &step.feeds).unwrap());
        }
    });
    assert_eq!(session.plan_cache_stats(), (19 + STEPS, 1));
    // No tracer on the session, the global one off: a run records no
    // span (two `String`s per node would blow either budget below).
    assert!(tfhpc_obs::trace::global().snapshot().is_empty());
    calls as f64 / STEPS as f64
}

#[test]
fn cg_step_allocates_only_what_leaves_the_session() {
    let step = cg_step();
    assert_eq!(step.graph.len(), 49);
    let per_step = allocations_per_step(step);
    // Four fetched payloads (buffer + box each) and the result list
    // are 9, the cache key's id lists (these fetches are not in id
    // order, so they are sorted into a copy) 2; the rest is slack for
    // the pools' bounded capacity.
    assert!(per_step <= 16.0, "{per_step} allocations per CG step");
}

#[test]
fn matmul_step_stays_inside_its_allocation_budget() {
    let per_step = allocations_per_step(matmul_step());
    assert!(per_step <= 20.0, "{per_step} allocations per matmul step");
}

/// The CG worker's vector update (paper Fig. 3/10, `apps::cg`): with
/// `q`, `r` in variables and `p_w`, α, β fed,
/// `r ← r − α q` then `p_w ← r + β p_w`, all pinned to `Gpu(0)`.
/// `adjacent` hoists the variable reads so each `mul_scalar` is
/// directly followed by its reader (the form the rewrite folds); the
/// worker's own order reads the variable in between (left alone).
fn worker_update(adjacent: bool) -> (Graph, [NodeId; 3], Vec<NodeId>) {
    let n = 256;
    let mut g = Graph::new();
    let ph_pw = g.placeholder(DType::F64, Some(Shape::vector(n)));
    let ph_alpha = g.placeholder(DType::F64, Some(Shape::scalar()));
    let ph_beta = g.placeholder(DType::F64, Some(Shape::scalar()));
    let fetches = g.with_device(Placement::Gpu(0), |g| {
        let qv = g.var_read("q");
        let (r_sub, p_new);
        if adjacent {
            let r_old = g.var_read("r");
            let alpha_q = g.mul_scalar(qv, ph_alpha);
            r_sub = g.sub(r_old, alpha_q);
            let r_up = g.assign("r", r_sub);
            let beta_pw = g.mul_scalar(ph_pw, ph_beta);
            p_new = g.add(r_up, beta_pw);
        } else {
            let alpha_q = g.mul_scalar(qv, ph_alpha);
            let r_old = g.var_read("r");
            r_sub = g.sub(r_old, alpha_q);
            let r_up = g.assign("r", r_sub);
            let beta_pw = g.mul_scalar(ph_pw, ph_beta);
            let rv = g.var_read("r");
            p_new = g.add(rv, beta_pw);
            g.add_control(rv, r_up).unwrap();
        }
        let rs_part = g.dot(r_sub, r_sub);
        vec![p_new, rs_part]
    });
    (g, [ph_pw, ph_alpha, ph_beta], fetches)
}

/// Everything a simulated worker run reports.
#[derive(Debug, PartialEq)]
struct SimReport {
    values: Vec<Vec<u64>>,
    metadata: Vec<RunMetadata>,
    end_time_bits: u64,
}

fn simulate(adjacent: bool, synthetic: bool, step_replay: bool) -> SimReport {
    let n = 256;
    let report = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&report);
    let sim = Sim::new();
    let sim2 = Arc::clone(&sim);
    sim.spawn("cg-worker", move || {
        let cluster = Arc::new(ClusterSim::new(&sim2, tegner_k80(), 1));
        let devices = DeviceCtx::simulated(cluster, 0, vec![0]);
        let me = tfhpc_sim::des::current().unwrap();
        let vector = |seed: u64| {
            if synthetic {
                Tensor::synthetic(DType::F64, [n], seed)
            } else {
                uniform([n], seed)
            }
        };
        let (g, [ph_pw, ph_alpha, ph_beta], fetches) = worker_update(adjacent);
        let session = Session::with_options(
            Arc::new(g),
            Resources::new(),
            devices,
            sequential_options(step_replay),
        );
        session.resources().create_variable("q", vector(11));
        session.resources().create_variable("r", vector(12));
        let mut values = Vec::new();
        let mut metadata = Vec::new();
        for step in 0..3u64 {
            let feeds = [
                (ph_pw, vector(20 + step)),
                (ph_alpha, Tensor::scalar_f64(0.5 + step as f64)),
                (ph_beta, Tensor::scalar_f64(-0.25)),
            ];
            let (out, meta) = session.run_with_metadata(&fetches, &feeds).unwrap();
            for t in &out {
                values.push(match t.as_f64() {
                    Ok(v) => v.iter().map(|x| x.to_bits()).collect(),
                    Err(_) => vec![t.synthetic_seed().unwrap()],
                });
            }
            metadata.push(meta);
        }
        *sink.lock() = Some(SimReport {
            values,
            metadata,
            end_time_bits: me.now().to_bits(),
        });
    });
    sim.run();
    let report = report.lock().take().expect("worker finished");
    report
}

/// How many of the worker update's `mul_scalar`s the rewrite folds.
/// Virtual time cannot show it — that is the point of the test below —
/// so ask a real-mode session over the same graph: a folded scale
/// records exactly zero device seconds there, its reader the measured
/// interval (DESIGN.md §10).
fn folds_in_real_mode(adjacent: bool) -> usize {
    let n = 256;
    let (g, [ph_pw, ph_alpha, ph_beta], fetches) = worker_update(adjacent);
    let session = Session::with_options(
        Arc::new(g),
        Resources::new(),
        DeviceCtx::real(1),
        sequential_options(true),
    );
    session.resources().create_variable("q", uniform([n], 11));
    session.resources().create_variable("r", uniform([n], 12));
    let feeds = [
        (ph_pw, uniform([n], 20)),
        (ph_alpha, Tensor::scalar_f64(0.5)),
        (ph_beta, Tensor::scalar_f64(-0.25)),
    ];
    let (_, meta) = session.run_with_metadata(&fetches, &feeds).unwrap();
    let scales = meta
        .step_stats
        .ops
        .iter()
        .filter(|op| op.name.starts_with("MulScalar_"));
    scales.filter(|op| op.device_seconds == 0.0).count()
}

#[test]
fn rewritten_program_reports_what_the_node_by_node_program_does_in_virtual_time() {
    for synthetic in [false, true] {
        for adjacent in [true, false] {
            let fast = simulate(adjacent, synthetic, true);
            let reference = simulate(adjacent, synthetic, false);
            // Both `mul_scalar`s fold when their reader is next.
            assert_eq!(folds_in_real_mode(adjacent), if adjacent { 2 } else { 0 });
            assert!(reference.metadata.iter().all(|m| m.kernel_seconds > 0.0));
            assert_eq!(
                fast.metadata.len(),
                reference.metadata.len(),
                "adjacent={adjacent} synthetic={synthetic}"
            );
            for (a, b) in fast.metadata.iter().zip(&reference.metadata) {
                assert_eq!(a.ops_executed, b.ops_executed);
                assert_eq!(a.output_bytes, b.output_bytes);
                assert_eq!(a.kernel_seconds.to_bits(), b.kernel_seconds.to_bits());
                assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
                assert_eq!(a.step_stats, b.step_stats);
            }
            assert_eq!(fast.values, reference.values);
            assert_eq!(fast.end_time_bits, reference.end_time_bits);
        }
    }
}

#[test]
fn steady_state_remote_assign_add_allocates_no_buffer() {
    // The benchmark's `dist-stream` op: ps x 1 + worker x 1 in real
    // mode over a staged-copy (gRPC) link, a 131 072-element f64
    // vector. Both checksums read the sender's tensor in place and the
    // ps accumulates into its variable's own storage, so once the
    // first push has left the variable sole owner of its buffer a push
    // allocates nothing of tensor size.
    const ELEMS: usize = 131_072;
    const PUSHES: u64 = 50;
    let cfg = LaunchConfig::real(
        tegner_k420(),
        vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 1, 0)],
        Protocol::Grpc,
    );
    let counted = Arc::new(Mutex::new((0u64, 0u64)));
    let sink = Arc::clone(&counted);
    let out = launch(&cfg, move |ctx| {
        if ctx.job() == "ps" {
            let zeros = Tensor::zeros(DType::F64, [ELEMS]);
            ctx.server.resources.create_variable("acc", zeros);
            return Ok(());
        }
        let ps = TaskKey::new("ps", 0);
        let vector = Tensor::full_f64([ELEMS], 3.0);
        // One worker, as on the benchmark's pinned CPU: the add runs
        // on this thread and the pool's task boxes stay out of the
        // count.
        tfhpc_parallel::with_worker_limit(1, || {
            let push = || {
                ctx.server
                    .remote_assign_add(&ps, "acc", &vector, None, None)
            };
            for _ in 0..5 {
                push()?;
            }
            *sink.lock() = allocations_and_large(|| {
                for _ in 0..PUSHES {
                    push().unwrap();
                }
            });
            Ok(())
        })
    })
    .unwrap();
    let (calls, large) = *counted.lock();
    assert_eq!(large, 0, "tensor-sized allocations in {PUSHES} pushes");
    // What is left per push is `wire::transfer`'s delivered-tensor
    // list.
    assert_eq!(calls, PUSHES, "allocation calls in {PUSHES} pushes");
    let ps = out.cluster.server(&TaskKey::new("ps", 0)).unwrap();
    let acc = ps.resources.variable("acc").unwrap().read();
    let want = 3.0 * (5 + PUSHES) as f64;
    assert!(acc.as_f64().unwrap().iter().all(|v| *v == want));
}

#[test]
fn steady_state_reduction_round_allocates_a_pinned_number_of_times() {
    // The benchmark's `dist-reduce` op: reducer x 1 + worker x 2 in
    // real mode, an 8-byte scalar per worker per round. Each side
    // counts its own thread's calls over the same rounds.
    const WARMUP: usize = 20;
    const ROUNDS: u64 = 200;
    let cfg = LaunchConfig::real(
        tegner_k420(),
        vec![JobSpec::new("reducer", 1, 0), JobSpec::new("worker", 2, 0)],
        Protocol::Grpc,
    );
    // (reducer, worker 0) allocation calls over `ROUNDS` rounds.
    let counted = Arc::new(Mutex::new((0u64, 0u64)));
    let sink = Arc::clone(&counted);
    launch(&cfg, move |ctx| {
        if ctx.job() == "reducer" {
            let reducer = Reducer::new(Arc::clone(&ctx.server), "r", 2, ReduceOp::Sum);
            reducer.serve(WARMUP)?;
            sink.lock().0 = allocations(|| reducer.serve(ROUNDS as usize).unwrap());
            return Ok(());
        }
        let (w, reducer) = (ctx.index(), TaskKey::new("reducer", 0));
        let round = || {
            let mine = Tensor::scalar_f64(1.0 + w as f64);
            let sum = worker_all_reduce(&ctx.server, &reducer, "r", w, mine, None).unwrap();
            assert_eq!(sum.scalar_value_f64().unwrap(), 3.0);
        };
        (0..WARMUP).for_each(|_| round());
        let calls = allocations(|| (0..ROUNDS).for_each(|_| round()));
        if w == 0 {
            sink.lock().1 = calls;
        }
        Ok(())
    })
    .unwrap();
    let (reducer, worker) = *counted.lock();
    // Reducer, per round: the slot list (the partials list and the
    // fold's slots reuse it), the sum's buffer and its `Arc`, and one
    // result tuple per worker. The queues are held as handles, so no
    // queue name is formatted: with `1 + W` names this would read 8.
    assert_eq!(reducer, 5 * ROUNDS, "reducer calls in {ROUNDS} rounds");
    // Worker, per round: buffer and `Arc` of its partial and of the
    // tag, the tuple, the two queue names, and one delivered-tensor
    // list per direction.
    assert_eq!(worker, 9 * ROUNDS, "worker calls in {ROUNDS} rounds");
}

#[test]
fn sealing_a_frame_allocates_one_payload_sized_buffer() {
    // `seal` builds magic, length, payload and trailer in one buffer
    // and hands that buffer back: a copy on the way out would be a
    // second payload-sized allocation.
    let payload = vec![0x5Au8; 1 << 20];
    let mut frame = Vec::new();
    let (_, large) = allocations_and_large(|| frame = tfhpc_proto::frame::seal(&payload));
    assert_eq!(large, 1, "payload-sized allocations sealing 1 MiB");
    assert_eq!(
        tfhpc_proto::frame::open(&frame).unwrap(),
        payload.as_slice()
    );
}
