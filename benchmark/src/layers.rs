//! The per-layer budget, measured from outside: every probe here sits
//! in the benchmark's own files around public calls of one layer, is
//! pinned and normalised like the workloads, and runs only in the
//! traced run. README.md says which end-to-end metric each should
//! move.

use std::sync::Arc;
use std::time::Instant;

use tfhpc_apps::cg::{gather_solution, run_cg_with_store, serial_cg, CgConfig, CgReduction};
use tfhpc_apps::{run_cg, run_stream, StreamConfig};
use tfhpc_core::{FifoQueue, TensorProto};
use tfhpc_dist::{launch, ring_all_reduce, ClusterSpec, JobSpec, LaunchConfig, TaskKey, TfCluster};
use tfhpc_proto::{frame, Message};
use tfhpc_serve::{AdmissionController, SessionServer, TenantQuota};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{kebnekaise_k80, tegner_k420};
use tfhpc_sim::Sim;
use tfhpc_tensor::{fft, matmul, ops, rng, Complex64, DType, Tensor};

use crate::alloc;
use crate::harness::{cpu_ticks, median, micro_ns, micro_ns_reset, Window};
use crate::workloads::{dist, serve, session, sim, Check};

pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Run every layer probe within about `budget_s` seconds.
pub fn run(seed: u64, budget_s: f64) -> Layers {
    let mut out = Layers {
        metrics: Vec::new(),
        checks: Vec::new(),
    };
    // One unit is the time a nanosecond-scale probe gets; heavier
    // probes take a few. The units below add up to ~64.
    let u = budget_s / 64.0;
    tensor_and_core(&mut out, seed, u);
    parallel(&mut out, u);
    proto_and_wire(&mut out, seed, u);
    dist_layer(&mut out, u);
    apps(&mut out, u);
    serve_layer(&mut out, seed, u);
    sim_layer(&mut out, seed, u);
    obs(&mut out, u);
    out
}

fn f64_vec(n: usize, seed: u64) -> Tensor {
    rng::random_uniform(DType::F64, [n], seed).expect("float dtype")
}

/// Kernel floors, kernels, and what the executor adds on top.
fn tensor_and_core(out: &mut Layers, seed: u64, u: f64) {
    use std::hint::black_box;
    use tfhpc_parallel::with_worker_limit;

    // Floors under the same one-worker cap the session runs with.
    // (`BENCH_runtime.json`'s floor_ns is taken uncapped, so on a
    // small host it exceeds the step and is not comparable.)
    let mut cg_floor = session::cg_floor(seed);
    let mut mm_floor = session::matmul_floor(seed);
    let cg_floor_us =
        with_worker_limit(1, || micro_ns(3.0 * u, 1, || drop(black_box(cg_floor())))) / 1e3;
    let mm_floor_us =
        with_worker_limit(1, || micro_ns(3.0 * u, 1, || drop(black_box(mm_floor())))) / 1e3;
    out.put("tensor.cg_floor_us", cg_floor_us);
    out.put("tensor.matmul_floor_us", mm_floor_us);

    let cg = session::ready(session::build_cg(seed));
    let mm = session::ready(session::build_matmul(seed));
    for (name, ready, floor) in [
        ("cg", &cg, with_worker_limit(1, &mut cg_floor)),
        ("matmul", &mm, with_worker_limit(1, &mut mm_floor)),
    ] {
        let err = session::max_rel_err(&ready.first, &floor);
        out.checks.push(Check::new(
            "floor outputs match the session's",
            err <= 1e-12,
            format!("{name}: max relative error {err:e}"),
        ));
    }
    let step_us = |r: &session::Ready, secs: f64| {
        micro_ns(secs, 1, || {
            black_box(r.session.run(&r.fetches, &r.feeds).expect("step runs"));
        }) / 1e3
    };
    let cg_step_us = step_us(&cg, 3.0 * u);
    let mm_step_us = step_us(&mm, 3.0 * u);
    let nodes = cg.session.graph().len() as f64;
    out.put("core.step_overhead_us_cg", cg_step_us - cg_floor_us);
    out.put("core.overhead_ratio_cg", cg_step_us / cg_floor_us);
    out.put("core.overhead_ratio_matmul", mm_step_us / mm_floor_us);
    out.put(
        "core.ns_per_node_cg",
        (cg_step_us - cg_floor_us) * 1e3 / nodes,
    );

    const COUNTED_STEPS: u64 = 100;
    let counted = |r: &session::Ready| {
        alloc::counted(|| {
            for _ in 0..COUNTED_STEPS {
                black_box(r.session.run(&r.fetches, &r.feeds).expect("step runs"));
            }
        })
    };
    let (cg_calls, cg_bytes) = counted(&cg);
    let (mm_calls, _) = counted(&mm);
    out.put(
        "core.allocs_per_step_cg",
        cg_calls as f64 / COUNTED_STEPS as f64,
    );
    out.put(
        "core.alloc_bytes_per_step_cg",
        cg_bytes as f64 / COUNTED_STEPS as f64,
    );
    out.put(
        "core.allocs_per_step_matmul",
        mm_calls as f64 / COUNTED_STEPS as f64,
    );

    // First run of a fresh session (plan build) against the steady step.
    let w = Window::measure(3.0 * u, false, |rec| {
        for _ in 0..8 {
            let step = session::build_cg(seed);
            let fresh = session::session_for(step.graph);
            black_box(rec.time_one(|| {
                fresh
                    .run(&step.fetches, &step.feeds)
                    .expect("first step runs")
            }));
        }
    });
    out.put("core.plan_build_us", w.p50_us() - cg_step_us);

    let step = session::build_cg(seed);
    let fresh = session::session_for(step.graph);
    for _ in 0..=COUNTED_STEPS {
        fresh.run(&step.fetches, &step.feeds).expect("step runs");
    }
    let (hits, misses) = fresh.plan_cache_stats();
    out.put("core.plan_cache_hits", hits as f64);
    out.put("core.plan_cache_misses", misses as f64);
    out.checks.push(Check::new(
        "a fresh session plans once and hits on every later step",
        (hits, misses) == (COUNTED_STEPS, 1),
        format!(
            "{hits} hits, {misses} misses over {} steps",
            COUNTED_STEPS + 1
        ),
    ));

    let q = FifoQueue::new("bench", 4);
    let item = Tensor::scalar_f64(1.0);
    out.put(
        "core.queue_roundtrip_ns",
        micro_ns(u, 256, || {
            q.enqueue(vec![item.clone()]).expect("queue open");
            black_box(q.dequeue().expect("queue open"));
        }),
    );

    // Single kernels at the sizes the workloads use.
    let a64 = rng::random_uniform(DType::F64, [64, 64], seed ^ 1).expect("float dtype");
    let b64 = rng::random_uniform(DType::F64, [64, 64], seed ^ 2).expect("float dtype");
    let a32 = rng::random_uniform(DType::F32, [32, 32], seed ^ 3).expect("float dtype");
    let b32 = rng::random_uniform(DType::F32, [32, 32], seed ^ 4).expect("float dtype");
    let (x, y) = (f64_vec(64, seed ^ 5), f64_vec(64, seed ^ 6));
    let signal = Tensor::from_c128(
        [64],
        (0..64)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect(),
    )
    .expect("shape matches");
    with_worker_limit(1, || {
        out.put(
            "tensor.matvec64_ns",
            micro_ns(u, 64, || drop(black_box(matmul::matvec(&a64, &x)))),
        );
        out.put(
            "tensor.dot64_ns",
            micro_ns(u, 256, || drop(black_box(ops::dot(&x, &y)))),
        );
        out.put(
            "tensor.axpy64_ns",
            micro_ns(u, 256, || drop(black_box(ops::axpy(0.5, &x, &y)))),
        );
        let matmul64_ns = micro_ns(2.0 * u, 4, || drop(black_box(matmul::matmul(&a64, &b64))));
        out.put("tensor.matmul64_ns", matmul64_ns);
        // Computed: 2 n^3 flops over the measured time.
        out.put("tensor.matmul64_gflops", 2.0 * 64f64.powi(3) / matmul64_ns);
        out.put(
            "tensor.matmul32_f32_ns",
            micro_ns(u, 16, || drop(black_box(matmul::matmul(&a32, &b32)))),
        );
        out.put(
            "tensor.fft64_ns",
            micro_ns(u, 64, || drop(black_box(fft::fft_tensor(&signal)))),
        );
    });
}

fn parallel(out: &mut Layers, u: f64) {
    // Two empty tasks on an explicit two-worker pool: the cost of a
    // fork-join. Moves nothing while pinned; recorded so that a
    // multi-core host explains itself.
    let pool = tfhpc_parallel::ThreadPool::new(2);
    let ns = micro_ns(2.0 * u, 16, || {
        tfhpc_parallel::scope_on(&pool, |s| {
            s.spawn(|| {});
            s.spawn(|| {});
        })
    });
    out.put("parallel.scope2_dispatch_us", ns / 1e3);
}

fn proto_and_wire(out: &mut Layers, seed: u64, u: f64) {
    use std::hint::black_box;
    let big = f64_vec(dist::STREAM_ELEMS, seed ^ 7);
    let big_bytes = TensorProto(big.clone()).to_bytes().expect("encodes");
    out.put(
        "proto.encode_1mib_us",
        micro_ns(2.0 * u, 1, || {
            drop(black_box(TensorProto(big.clone()).to_bytes()))
        }) / 1e3,
    );
    out.put(
        "proto.decode_1mib_us",
        micro_ns(2.0 * u, 1, || {
            drop(black_box(TensorProto::decode(&big_bytes).map(|p| p.0)))
        }) / 1e3,
    );
    out.put(
        "proto.crc32c_1mib_us",
        micro_ns(2.0 * u, 1, || {
            black_box(frame::crc32c(&big_bytes[..1 << 20]));
        }) / 1e3,
    );
    let decoded = TensorProto::decode(&big_bytes).map(|p| p.0);
    out.checks.push(Check::new(
        "a 1 MiB tensor survives encode and decode bit for bit",
        decoded.is_ok_and(|t| session::same_bits(&[t], std::slice::from_ref(&big))),
        "",
    ));
    let scalar = Tensor::scalar_f64(1.5);
    let scalar_bytes = TensorProto(scalar.clone()).to_bytes().expect("encodes");
    out.put(
        "proto.encode_scalar_ns",
        micro_ns(u, 256, || {
            drop(black_box(TensorProto(scalar.clone()).to_bytes()))
        }),
    );
    out.put(
        "proto.decode_scalar_ns",
        micro_ns(u, 256, || {
            drop(black_box(TensorProto::decode(&scalar_bytes).map(|p| p.0)))
        }),
    );
    out.put(
        "dist.payload_crc_1mib_us",
        micro_ns(2.0 * u, 1, || {
            black_box(tfhpc_dist::wire::payload_crc(&big));
        }) / 1e3,
    );
}

/// A two-worker real cluster outside `launch`.
fn two_workers() -> (Arc<TfCluster>, Vec<Arc<tfhpc_dist::Server>>, Vec<TaskKey>) {
    let spec = ClusterSpec::new([(
        "worker".to_string(),
        vec!["a:8888".to_string(), "b:8888".to_string()],
    )]);
    let cluster = TfCluster::new(spec, Protocol::Grpc, None);
    let keys: Vec<TaskKey> = (0..2).map(|i| TaskKey::new("worker", i)).collect();
    let servers = keys
        .iter()
        .enumerate()
        .map(|(i, k)| cluster.start_server(k.clone(), i, vec![]))
        .collect();
    (cluster, servers, keys)
}

fn dist_layer(out: &mut Layers, u: f64) {
    use std::hint::black_box;
    // One hop out and one back: worker 0 enqueues into worker 1's
    // queue and dequeues the echo. A dist-reduce round is two such
    // hops per worker plus the fold.
    {
        let (_cluster, servers, keys) = two_workers();
        servers[1].resources.create_queue("ping", 2);
        servers[1].resources.create_queue("pong", 2);
        let echo = Arc::clone(&servers[1]);
        let echo_thread = std::thread::spawn(move || {
            let ping = echo.resources.queue("ping").expect("created above");
            let pong = echo.resources.queue("pong").expect("created above");
            while let Ok(tuple) = ping.dequeue() {
                if pong.enqueue(tuple).is_err() {
                    break;
                }
            }
        });
        let item = Tensor::scalar_f64(1.0);
        let ns = micro_ns(3.0 * u, 16, || {
            servers[0]
                .remote_enqueue(&keys[1], "ping", vec![item.clone()], None)
                .expect("echo alive");
            black_box(
                servers[0]
                    .remote_dequeue(&keys[1], "pong", None)
                    .expect("echo alive"),
            );
        });
        out.put("dist.p2p_rtt_us", ns / 1e3);
        servers[1]
            .resources
            .queue("ping")
            .expect("created above")
            .close();
        echo_thread.join().expect("echo thread");
    }

    // The other collective path: a ring all-reduce between two
    // workers, timed on worker 0.
    for (name, elems, secs) in [
        ("dist.ring_allreduce_8b_us", 1usize, 3.0 * u),
        ("dist.ring_allreduce_1mib_us", dist::STREAM_ELEMS, 3.0 * u),
    ] {
        let (_cluster, servers, keys) = two_workers();
        let mut exact = true;
        let w = Window::measure(secs, false, |rec| {
            let (samples, sums): (Vec<f64>, Vec<f64>) = std::thread::scope(|scope| {
                let peer = scope.spawn(|| ring_rounds(&servers[1], &keys, 1, elems, false));
                let mine = ring_rounds(&servers[0], &keys, 0, elems, true);
                peer.join().expect("ring peer");
                mine
            });
            exact &= sums.iter().all(|s| *s == 3.0);
            rec.busy_s = samples.iter().sum::<f64>() * 1e-6;
            rec.attempted = samples.len() as u64;
            rec.samples_us = samples;
        });
        out.put(name, w.p50_us());
        out.checks.push(Check::new(
            "ring all-reduce of 1 + 2 gives 3 everywhere",
            exact,
            name,
        ));
    }

    // A real launch with empty bodies: what every dist-* set-up and
    // every app run pays before its first message.
    let cfg = LaunchConfig::real(
        tegner_k420(),
        vec![JobSpec::new("reducer", 1, 0), JobSpec::new("worker", 2, 0)],
        Protocol::Grpc,
    );
    let w = Window::measure(3.0 * u, false, |rec| {
        rec.time_ops(20.0, || launch(&cfg, |_| Ok(())).is_ok());
    });
    out.put("dist.launch_ms", w.p50_us() / 1e3);
}

/// A fixed number of ring all-reduces of `elems` f64s on worker `my`;
/// returns (microseconds per round, first element of each result).
fn ring_rounds(
    server: &Arc<tfhpc_dist::Server>,
    group: &[TaskKey],
    my: usize,
    elems: usize,
    timed: bool,
) -> (Vec<f64>, Vec<f64>) {
    let rounds = if elems == 1 { 400 } else { 12 };
    let value = Tensor::full_f64([elems], (my + 1) as f64);
    let (mut samples, mut sums) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let t = Instant::now();
        let sum = ring_all_reduce(server, group, my, value.clone(), None).expect("ring completes");
        if timed {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        sums.push(sum.as_f64().expect("f64 in, f64 out")[0]);
    }
    (samples, sums)
}

/// The app entry points the `dist-*` workloads could not use, with
/// the defects that kept them out counted rather than hidden.
fn apps(out: &mut Layers, u: f64) {
    let cg = |iterations: usize| CgConfig {
        n: 256,
        workers: 2,
        iterations,
        protocol: Protocol::Grpc,
        simulated: false,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let platform = tegner_k420();
    let cfg = cg(40);
    let mut rel_err = f64::INFINITY;
    let w = Window::measure(4.0 * u, false, |rec| {
        let run = rec.time_one(|| run_cg_with_store(&platform, &cfg, None));
        if let Ok((_, store)) = run {
            let a = rng::random_spd(cfg.n, 0xC6, cfg.n as f64);
            let b = matmul::matvec(&a, &Tensor::full_f64([cfg.n], 1.0)).expect("shapes match");
            if let (Ok(x), Ok((x_ref, _))) = (
                gather_solution(&store, &cfg),
                serial_cg(&a, &b, cfg.iterations),
            ) {
                rel_err = session::max_rel_err(&[x], &[x_ref]);
            }
        } else {
            rec.failed += 1;
        }
    });
    out.put("apps.cg_solve_ms", w.p50_us() / 1e3);
    out.checks.push(Check::new(
        "real-mode CG (n 256, 2 workers, 40 iterations) within 1e-8 of serial_cg",
        rel_err <= 1e-8,
        format!("max relative error {rel_err:e}"),
    ));

    // Smallest iteration count whose final residual is NaN (the solver
    // converges exactly, then divides 0 by 0). 0 means none up to 256.
    let nan_at = |iterations: usize| {
        run_cg(&platform, &cg(iterations)).map_or(true, |r| r.rs_final.is_nan())
    };
    let first_nan = if nan_at(256) {
        let (mut lo, mut hi) = (40, 256); // lo is finite (checked above), hi is NaN
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if nan_at(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    } else {
        0
    };
    out.put("apps.cg_first_nan_iter", first_nan as f64);

    // `run_stream` real: its worker can reach `remote_assign_add`
    // before the ps has created `stream_acc`, and then the launch dies
    // with `not found: variable`. Failed launches are retried and
    // counted per 100 that succeeded.
    let stream = StreamConfig {
        size_bytes: 1 << 20,
        invocations: 10,
        on_gpu: false,
        protocol: Protocol::Grpc,
        simulated: false,
    };
    let (mut ok, mut retries, mut mbs) = (0u64, 0u64, Vec::new());
    let start = Instant::now();
    while ok < 100 && (ok < 10 || start.elapsed().as_secs_f64() < 6.0 * u) && retries < 1_000 {
        match run_stream(&platform, &stream) {
            Ok(r) => {
                ok += 1;
                mbs.push(r.mbs);
            }
            Err(_) => retries += 1,
        }
    }
    // Raw: the report's own figure, taken over ten invocations.
    out.put("apps.stream_mb_s", median(mbs));
    out.put(
        "apps.stream_launch_retries",
        retries as f64 * 100.0 / ok.max(1) as f64,
    );
}

fn serve_layer(out: &mut Layers, seed: u64, u: f64) {
    use std::hint::black_box;
    const SERVER_SIDE: usize = 0;
    const CLIENT_SIDE: usize = 1;
    let server = SessionServer::start_real(serve::config());
    let mut n = 0usize;
    let mut run_jobs = |secs: f64| {
        Window::measure(secs, false, |rec| {
            let mut parts = Vec::new();
            rec.time_ops(20.0, || {
                let t = Instant::now();
                let (_, _, result) = serve::one_job(&server, "probe", seed, n);
                let op_us = t.elapsed().as_secs_f64() * 1e6;
                n += 1;
                let Some(r) = result else { return false };
                let server_us = (r.finished_s - r.submitted_s) * 1e6;
                parts.push((SERVER_SIDE, server_us));
                parts.push((CLIENT_SIDE, op_us - server_us));
                r.error.is_none()
            });
            rec.parts_us = parts;
            server.take_results();
        })
    };
    run_jobs(u); // warm-up: plans built, worker thread hot
    let w = run_jobs(4.0 * u);
    out.put("serve.server_side_us_p50", w.part_p50_us(SERVER_SIDE));
    out.put("serve.client_side_us_p50", w.part_p50_us(CLIENT_SIDE));

    // Batching and plan reuse under the workload's own two clients
    // (one client alone never finds company in the batch queue).
    {
        let mut two = serve::ready(seed);
        Window::measure(2.0 * u, false, |rec| two.slice(rec));
        let (batches, jobs) = two.server.batch_stats();
        out.put("serve.mean_batch", jobs as f64 / batches.max(1) as f64);
        let stats = two.server.plan_cache().stats();
        out.put(
            "serve.plan_cache_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        );
    }

    // Inside `submit` alone: admission, id, batch-queue push, notify.
    let w = Window::measure(2.0 * u, false, |rec| {
        for i in 0..200 {
            let spec = i % serve::MIX.len();
            let payload = tfhpc_serve::JobPayload::Step {
                spec: serve::MIX[spec],
                seed: serve::request_seed(seed, spec, i / serve::MIX.len()),
            };
            let id = rec.time_one(|| server.submit("probe", payload));
            if let Ok(id) = id {
                server.wait(id);
            }
        }
        server.take_results();
    });
    out.put("serve.submit_us_p50", w.p50_us());
    server.shutdown();

    // The same mix through a bare session (feeds, run, digest), and
    // the feeds alone: the server's own share is the op minus these.
    let direct: Vec<serve::Direct> = serve::MIX.iter().map(|s| serve::Direct::new(*s)).collect();
    let mut i = 0usize;
    let direct_ns = micro_ns(3.0 * u, serve::MIX.len(), || {
        let spec = i % serve::MIX.len();
        black_box(direct[spec].digest(serve::request_seed(seed, spec, i / serve::MIX.len() % 64)));
        i += 1;
    });
    out.put("serve.direct_run_us", direct_ns / 1e3);
    let mut i = 0usize;
    let feeds_ns = micro_ns(2.0 * u, serve::MIX.len(), || {
        let spec = i % serve::MIX.len();
        black_box(serve::MIX[spec].feeds(
            serve::request_seed(seed, spec, i / serve::MIX.len() % 64),
            false,
        ));
        i += 1;
    });
    out.put("serve.feeds_gen_us", feeds_ns / 1e3);

    let admission = AdmissionController::new(TenantQuota::default());
    out.put(
        "serve.admit_release_ns",
        micro_ns(u, 64, || {
            admission.admit("probe", 1).expect("under quota");
            admission.on_dispatch("probe");
            admission.release("probe", 1);
        }),
    );

    // First job on a fresh server: thread start, graph build, plan.
    let cold: Vec<f64> = (0..5)
        .map(|_| {
            let fresh = SessionServer::start_real(serve::config());
            let t = Instant::now();
            serve::one_job(&fresh, "probe", seed, 0);
            let us = t.elapsed().as_secs_f64() * 1e6;
            fresh.shutdown();
            us
        })
        .collect();
    // Raw: five one-shot samples are too few to bracket with probes.
    out.put("serve.cold_first_job_us", median(cold));
}

fn sim_layer(out: &mut Layers, seed: u64, u: f64) {
    let load = sim::tenants();
    let ticks0 = cpu_ticks();
    let mut makespan_s = f64::NAN;
    let w = Window::measure(6.0 * u, false, |rec| {
        match rec.time_one(|| sim::one_run(&load, seed)) {
            Some(r) => makespan_s = r.makespan_s,
            None => rec.failed = 1,
        }
    });
    let run_us = w.p50_us();
    out.put("sim.host_us_per_job", run_us / sim::JOBS_PER_RUN as f64);
    out.put("sim.host_s_per_virtual_s", run_us * 1e-6 / makespan_s);
    let share = match (ticks0, cpu_ticks()) {
        (Some((u0, s0)), Some((u1, s1))) if u1 + s1 > u0 + s0 => (s1 - s0) / (u1 + s1 - u0 - s0),
        _ => f64::NAN,
    };
    // Includes the probes' user time between runs (about 2 %).
    out.put("sim.sys_cpu_share", share);

    // 64 processes that do nothing: thread spawn, schedule, join.
    const PROCS: usize = 64;
    let w = Window::measure(2.0 * u, false, |rec| {
        rec.time_ops(20.0, || {
            let des = Sim::new();
            for i in 0..PROCS {
                des.spawn(&format!("p{i}"), || {});
            }
            des.run() == 0.0
        });
    });
    out.put("sim.spawn_us", w.p50_us() / PROCS as f64);

    // Two processes taking turns: one advance is one hand-off.
    const TURNS: usize = 500;
    let w = Window::measure(2.0 * u, false, |rec| {
        rec.time_ops(20.0, || {
            let des = Sim::new();
            for i in 0..2 {
                des.spawn(&format!("p{i}"), || {
                    let me = tfhpc_sim::des::current().expect("inside a sim process");
                    for _ in 0..TURNS {
                        me.advance(1e-6);
                    }
                });
            }
            des.run() > 0.0
        });
    });
    out.put("sim.handoff_us", w.p50_us() / (2 * TURNS) as f64);

    // The DES reached through `launch` instead of `start_sim`:
    // simulated run_cg, 8 workers x 100 iterations.
    let cfg = CgConfig {
        n: 16_384,
        workers: 8,
        iterations: 100,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let platform = kebnekaise_k80();
    let mut virtual_s: Vec<u64> = Vec::new();
    let w = Window::measure(6.0 * u, false, |rec| {
        match rec.time_one(|| run_cg(&platform, &cfg)) {
            Ok(r) => virtual_s.push(r.elapsed_s.to_bits()),
            Err(_) => rec.failed = 1,
        }
    });
    let host_s = w.p50_us() * 1e-6;
    out.put("sim.cg_iters_per_host_s", cfg.iterations as f64 / host_s);
    out.put(
        "sim.cg_virtual_s",
        virtual_s.first().map_or(f64::NAN, |b| f64::from_bits(*b)),
    );
    virtual_s.dedup();
    out.checks.push(Check::new(
        "simulated run_cg reports the same virtual seconds on every run",
        virtual_s.len() == 1,
        "",
    ));
}

fn obs(out: &mut Layers, u: f64) {
    // ROADMAP gate: instrumentation <= 3 % of session-cg's op_us_p50.
    let tracer = tfhpc_obs::Tracer::with_capacity(1 << 16);
    out.put(
        "obs.span_ns_off",
        micro_ns(u, 1024, || drop(tracer.span("probe"))),
    );
    tracer.enable();
    out.put(
        "obs.span_ns_on",
        micro_ns_reset(
            u,
            1024,
            || drop(tracer.span("probe")),
            || drop(tracer.drain()),
        ),
    );
    // The form hot paths use: look the counter up by name, then add.
    out.put(
        "obs.counter_inc_ns",
        micro_ns(u, 1024, || {
            tfhpc_obs::global().counter("tfhpc_benchmark_probe").inc()
        }),
    );
}
