//! Failure injection: the framework must fail loudly and accurately —
//! closed queues, deadlocks (detected by the DES), device OOM, GPU
//! over-subscription, unserializable graphs and unfed placeholders —
//! and recover deterministically from *injected* faults: peer death
//! unblocks parked consumers with `Unavailable`, deadlines expire at
//! the exact virtual instant, transient link faults are retried (and
//! counted in `RunMetadata`), and a crash-injected CG run restarts
//! from its checkpoint to the bit-identical residual. The `real_mode_*`
//! cases run the same supervisor on host threads.
//!
//! The seeded tests honor `TFHPC_FAULT_SEED` (CI sweeps 17/42/1337).

use std::sync::Arc;
use tfhpc_apps::{run_cg_supervised, run_cg_with_store, CgConfig, CgReduction, FaultSetup};
use tfhpc_core::{
    CoreError, DeviceCtx, Graph, OpKernel, Placement, Resources, Result as CoreResult, Session,
};
use tfhpc_dist::{
    launch, recv_deadline, ring_all_reduce, send, worker_all_reduce, CallPolicy, JobSpec,
    LaunchConfig, ReduceOp, Reducer, RendezvousKey, SupervisorConfig, TaskKey,
};
use tfhpc_sim::des::Sim;
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};
use tfhpc_tensor::{DType, Tensor};

#[test]
fn queue_closed_mid_run_surfaces_out_of_range() {
    // Consumer drains a queue that the producer closes after 3 items:
    // dequeues past the drain must error with QueueClosed.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("cons", 1, 0), JobSpec::new("prod", 1, 0)],
        Protocol::Rdma,
    );
    let outcomes = Arc::new(parking_lot::Mutex::new((0usize, false)));
    let outcomes2 = Arc::clone(&outcomes);
    launch(&cfg, move |ctx| {
        if ctx.job() == "cons" {
            let q = ctx.server.resources.create_queue("work", 8);
            loop {
                match q.dequeue() {
                    Ok(_) => outcomes2.lock().0 += 1,
                    Err(CoreError::QueueClosed(_)) => {
                        outcomes2.lock().1 = true;
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                }
            }
        } else {
            for i in 0..3 {
                ctx.server.remote_enqueue(
                    &TaskKey::new("cons", 0),
                    "work",
                    vec![Tensor::scalar_i64(i)],
                    None,
                )?;
            }
            ctx.server
                .cluster()
                .server(&TaskKey::new("cons", 0))?
                .resources
                .queue("work")?
                .close();
            Ok(())
        }
    })
    .unwrap();
    assert_eq!(*outcomes.lock(), (3, true));
}

#[test]
fn deadlocked_protocol_is_detected_not_hung() {
    // Two tasks each waiting on the other's queue: the DES must detect
    // the all-blocked state and abort with a diagnostic, not hang.
    let result = std::panic::catch_unwind(|| {
        let sim = Sim::new();
        let q1 = Arc::new(parking_lot::Mutex::new(None::<Arc<tfhpc_core::FifoQueue>>));
        let q2 = Arc::new(parking_lot::Mutex::new(None::<Arc<tfhpc_core::FifoQueue>>));
        {
            let q1 = Arc::clone(&q1);
            let q2 = Arc::clone(&q2);
            sim.spawn("a", move || {
                let mine = tfhpc_core::FifoQueue::new("qa", 1);
                *q1.lock() = Some(Arc::clone(&mine));
                // Wait for b's queue then block on it while b blocks on ours.
                loop {
                    if let Some(q) = q2.lock().clone() {
                        let _ = q.dequeue();
                        return;
                    }
                    tfhpc_sim::des::current().unwrap().advance(0.001);
                }
            });
        }
        {
            let q1 = Arc::clone(&q1);
            let q2 = Arc::clone(&q2);
            sim.spawn("b", move || {
                let mine = tfhpc_core::FifoQueue::new("qb", 1);
                *q2.lock() = Some(Arc::clone(&mine));
                loop {
                    if let Some(q) = q1.lock().clone() {
                        let _ = q.dequeue();
                        return;
                    }
                    tfhpc_sim::des::current().unwrap().advance(0.001);
                }
            });
        }
        sim.run();
    });
    let err = result.expect_err("deadlock must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("deadlock"), "got: {msg}");
    assert!(msg.contains("waiting on"), "diagnostic dump missing: {msg}");
}

#[test]
fn k420_oom_on_oversized_working_set() {
    // A K420 exposes ~0.9 GB usable: a 512 MB x 2 + 512 MB matmul
    // working set cannot fit — the session must report OOM, mirroring
    // why the paper had to shrink K420 tiles.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("worker", 1, 1)],
        Protocol::Rdma,
    );
    let result = launch(&cfg, |ctx| {
        let mut g = Graph::new();
        let n = 12000; // 12000^2 f32 = 576 MB per operand
        let a = g.constant(Tensor::synthetic(DType::F32, [n, n], 1));
        let b = g.constant(Tensor::synthetic(DType::F32, [n, n], 2));
        let c = g.with_device(Placement::Gpu(0), |g| g.matmul(a, b));
        let sess = ctx.server.session(Arc::new(g));
        sess.run(&[c], &[]).map(|_| ())
    });
    match result {
        Err(err) => assert!(err.to_string().contains("out of memory"), "got: {err}"),
        Ok(_) => panic!("OOM must fail the launch (without panicking it)"),
    }
}

#[test]
fn same_working_set_fits_on_k80() {
    // The identical graph runs fine on a 12 GB GK210.
    let cfg = LaunchConfig::simulated(
        tegner_k80(),
        vec![JobSpec::new("worker", 1, 1)],
        Protocol::Rdma,
    );
    launch(&cfg, |ctx| {
        let mut g = Graph::new();
        let n = 12000;
        let a = g.constant(Tensor::synthetic(DType::F32, [n, n], 1));
        let b = g.constant(Tensor::synthetic(DType::F32, [n, n], 2));
        let c = g.with_device(Placement::Gpu(0), |g| g.matmul(a, b));
        let sess = ctx.server.session(Arc::new(g));
        sess.run(&[c], &[]).map(|_| ())
    })
    .unwrap();
}

#[test]
fn gpu_oversubscription_rejected_at_launch() {
    // K420 nodes have one GPU; two GPUs per task cannot be satisfied.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("worker", 2, 2)],
        Protocol::Rdma,
    );
    assert!(matches!(
        launch(&cfg, |_| Ok(())),
        Err(CoreError::Invalid(_))
    ));
}

#[test]
fn unfed_placeholder_and_bad_feed_shapes() {
    let mut g = Graph::new();
    let p = g.placeholder(DType::F64, Some([4].into()));
    let n = g.neg(p);
    let sess = Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(0));
    assert!(matches!(sess.run(&[n], &[]), Err(CoreError::Graph(_))));
    let wrong_shape = Tensor::zeros(DType::F64, [5]);
    assert!(sess.run(&[n], &[(p, wrong_shape)]).is_err());
    let wrong_dtype = Tensor::zeros(DType::F32, [4]);
    assert!(sess.run(&[n], &[(p, wrong_dtype)]).is_err());
}

#[test]
fn pyfunc_graph_serialization_rejected() {
    let mut g = Graph::new();
    let a = g.constant(Tensor::scalar_f64(1.0));
    g.py_func("host", &[a], 1, 0.0, Arc::new(|_, i| Ok(i.to_vec())));
    assert!(tfhpc_core::graph_to_bytes(&g).is_err());
}

#[test]
fn missing_resources_reported_by_name() {
    let mut g = Graph::new();
    let v = g.var_read("not_created");
    let sess = Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(0));
    match sess.run(&[v], &[]) {
        Err(CoreError::NotFound(msg)) => assert!(msg.contains("not_created")),
        other => panic!("expected NotFound, got {other:?}"),
    }
}

// ---- the injected-fault plane ------------------------------------------

#[test]
fn peer_death_unblocks_parked_dequeue_with_unavailable() {
    // Consumer parks on an empty queue; the producer dies at t=0.5.
    // Instead of a DES deadlock, the supervisor drains the gang and the
    // parked dequeue wakes with `Unavailable`.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("cons", 1, 0), JobSpec::new("prod", 1, 0)],
        Protocol::Rdma,
    );
    let observed = Arc::new(parking_lot::Mutex::new(String::new()));
    let obs = Arc::clone(&observed);
    let result = launch(&cfg, move |ctx| {
        if ctx.job() == "cons" {
            let q = ctx.server.resources.create_queue("work", 4);
            match q.dequeue() {
                Err(e @ CoreError::Unavailable(_)) => {
                    *obs.lock() = e.to_string();
                    Err(e)
                }
                other => Err(CoreError::Invalid(format!(
                    "expected Unavailable, got {other:?}"
                ))),
            }
        } else {
            if let Some(me) = tfhpc_sim::des::current() {
                me.advance(0.5);
            }
            Err(CoreError::Invalid("producer exploded".into()))
        }
    });
    match result {
        Err(err) => assert!(err.to_string().contains("producer exploded"), "{err}"),
        Ok(_) => panic!("producer death must fail the launch"),
    }
    let seen = observed.lock().clone();
    assert!(seen.contains("gang draining"), "consumer saw: {seen}");
}

#[test]
fn recv_deadline_expires_at_the_exact_virtual_instant() {
    // The producer sends at t=1.0; a 0.25 s deadline on the consumer
    // must expire at *exactly* t=0.25 virtual (timers jump the clock to
    // the deadline, not past it), and a second wait sees the value.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("src", 1, 0), JobSpec::new("dst", 1, 0)],
        Protocol::Rdma,
    );
    let observed = Arc::new(parking_lot::Mutex::new(f64::NAN));
    let obs = Arc::clone(&observed);
    launch(&cfg, move |ctx| {
        let key = RendezvousKey::new(TaskKey::new("src", 0), TaskKey::new("dst", 0), "edge", 7);
        if ctx.job() == "dst" {
            match recv_deadline(&ctx.server, &key, None, 0.25) {
                Err(CoreError::DeadlineExceeded(_)) => *obs.lock() = ctx.now(),
                other => {
                    return Err(CoreError::Invalid(format!(
                        "expected DeadlineExceeded, got {other:?}"
                    )))
                }
            }
            let v = recv_deadline(&ctx.server, &key, None, 10.0)?;
            assert_eq!(v.scalar_value_f64()?, 42.0);
            Ok(())
        } else {
            if let Some(me) = tfhpc_sim::des::current() {
                me.advance(1.0);
            }
            send(&ctx.server, &key, Tensor::scalar_f64(42.0), None)
        }
    })
    .unwrap();
    let t = *observed.lock();
    assert_eq!(t.to_bits(), 0.25f64.to_bits(), "deadline expired at t={t}");
}

/// Worker-side kernel pushing one scalar into the ps accumulator —
/// routed through a session so the retry shows up in `RunMetadata`.
struct PushAcc {
    server: Arc<tfhpc_dist::Server>,
}

impl OpKernel for PushAcc {
    fn name(&self) -> &str {
        "PushAcc"
    }

    fn compute(&self, _res: &Resources, _inputs: &[Tensor]) -> CoreResult<Vec<Tensor>> {
        self.server.remote_assign_add(
            &TaskKey::new("ps", 0),
            "acc",
            &Tensor::scalar_f64(1.0),
            None,
            None,
        )?;
        Ok(vec![Tensor::scalar_f64(1.0)])
    }
}

#[test]
fn transient_link_fault_is_retried_and_counted_in_run_metadata() {
    // The ps node's links drop traffic during [0, 0.2): the worker's
    // remote push at t≈0.05 fails with `Unavailable`, the retry policy
    // backs off past the window, and the second attempt lands. The
    // transparent retry is visible in the run's `RunMetadata`.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 1, 0)],
        Protocol::Rdma,
    )
    .with_faults(FaultPlan::new().link_fault(0, 0.0, 0.2))
    .with_retry(CallPolicy::new(5, 0.2));
    let retries = Arc::new(parking_lot::Mutex::new(0u64));
    let r2 = Arc::clone(&retries);
    let out = launch(&cfg, move |ctx| {
        if ctx.job() == "ps" {
            ctx.server
                .resources
                .create_variable("acc", Tensor::scalar_f64(0.0));
            return Ok(());
        }
        if let Some(me) = tfhpc_sim::des::current() {
            me.advance(0.05);
        }
        let mut g = Graph::new();
        let kernel: Arc<dyn OpKernel> = Arc::new(PushAcc {
            server: Arc::clone(&ctx.server),
        });
        let op = g.custom(kernel, &[], &[]);
        let sess = ctx.server.session(Arc::new(g));
        let (_, meta) = sess.run_with_metadata(&[op], &[])?;
        *r2.lock() = meta.retries;
        Ok(())
    })
    .unwrap();
    assert_eq!(*retries.lock(), 1, "exactly one transparent retry");
    let ps = out.cluster.server(&TaskKey::new("ps", 0)).unwrap();
    assert_eq!(
        ps.resources
            .variable("acc")
            .unwrap()
            .read()
            .scalar_value_f64()
            .unwrap(),
        1.0,
        "the retried push must land exactly once"
    );
}

#[test]
fn corrupted_push_is_verified_before_the_in_place_accumulate() {
    // The ps accumulates into its variable's own buffer, so a payload
    // applied before it was verified could not be taken back. The ps
    // node's links flip a bit during [0.1, 0.3): the push at t=0.15
    // is detected and retransmitted past the window, and the
    // accumulator ends at exactly one application of it — still in
    // the buffer the clean pushes before it wrote into.
    const N: usize = 4096;
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 1, 0)],
        Protocol::Grpc,
    )
    .with_faults(FaultPlan::new().link_corrupt(0, 0.1, 0.3))
    .with_retry(CallPolicy::new(5, 0.2));
    let counts = Arc::new(parking_lot::Mutex::new((0u64, 0u64)));
    let c2 = Arc::clone(&counts);
    let out = launch(&cfg, move |ctx| {
        let ps = TaskKey::new("ps", 0);
        if ctx.job() == "ps" {
            let init = Tensor::zeros(DType::F64, [N]);
            ctx.server.resources.create_variable("acc", init);
            return Ok(());
        }
        let ramp = Tensor::from_f64([N], (0..N).map(|i| i as f64 + 0.5).collect()).unwrap();
        let peer = ctx.server.try_cluster()?.server(&ps)?;
        let acc = peer.resources.variable_wait("acc", 1.0)?;
        ctx.server
            .remote_assign_add(&ps, "acc", &ramp, None, None)?;
        ctx.server
            .remote_assign_add(&ps, "acc", &ramp, None, None)?;
        let buffer = acc.read().dense_ptr();
        tfhpc_sim::des::current().unwrap().advance(0.15);
        ctx.server
            .remote_assign_add(&ps, "acc", &ramp, None, None)?;
        assert_eq!(acc.read().dense_ptr(), buffer, "accumulated in place");
        let r = &ctx.server.resources;
        *c2.lock() = (r.corruption_detected_total(), r.retransmits_total());
        Ok(())
    })
    .unwrap();
    assert_eq!(*counts.lock(), (1, 1), "one detection, one retransmission");
    let ps = out.cluster.server(&TaskKey::new("ps", 0)).unwrap();
    let acc = ps.resources.variable("acc").unwrap().read();
    let want: Vec<f64> = (0..N).map(|i| 3.0 * (i as f64 + 0.5)).collect();
    assert_eq!(acc.as_f64().unwrap(), want.as_slice());
}

#[test]
fn partial_restart_fences_deadlines_to_exact_virtual_instants() {
    // A healthy consumer holds timed waits (`recv_deadline`,
    // `dequeue_timeout`) while its peer crashes and is *partially*
    // restarted onto a spare node. The deadlines must expire at their
    // exact virtual instants (unperturbed by the repair), the parked
    // wait must survive the peer's replacement and then receive from
    // the new incarnation, and the consumer's own attempt counter must
    // stay at 0 — no collateral restart.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("dst", 1, 0), JobSpec::new("src", 1, 0)],
        Protocol::Rdma,
    )
    .with_faults(FaultPlan::new().crash(1, 0.5))
    .with_supervisor(
        SupervisorConfig::restarting(1)
            .with_partial_restart(["src"])
            .with_spares(1),
    );
    let out = launch(&cfg, move |ctx| {
        let key = RendezvousKey::new(TaskKey::new("src", 0), TaskKey::new("dst", 0), "edge", 7);
        if ctx.job() == "dst" {
            let q = ctx.server.resources.create_queue("work", 4);
            match recv_deadline(&ctx.server, &key, None, 0.25) {
                Err(CoreError::DeadlineExceeded(_)) => {
                    assert_eq!(ctx.now().to_bits(), 0.25f64.to_bits(), "{}", ctx.now());
                }
                other => {
                    return Err(CoreError::Invalid(format!(
                        "expected DeadlineExceeded, got {other:?}"
                    )))
                }
            }
            match q.dequeue_timeout(0.15) {
                Err(CoreError::DeadlineExceeded(_)) => {
                    assert_eq!(ctx.now().to_bits(), 0.4f64.to_bits(), "{}", ctx.now());
                }
                other => {
                    return Err(CoreError::Invalid(format!(
                        "expected DeadlineExceeded, got {other:?}"
                    )))
                }
            }
            // Park across the peer's crash (t=0.5) and partial repair:
            // the replacement incarnation (attempt 1) must feed both
            // the rendezvous and the queue.
            let v = recv_deadline(&ctx.server, &key, None, 10.0)?;
            assert_eq!(v.scalar_value_f64()?, 1.0, "sender was not attempt 1");
            let tuple = q.dequeue()?;
            assert_eq!(tuple[0].scalar_value_f64()?, 1.0);
            Ok(())
        } else {
            if ctx.attempt() == 0 {
                if let Some(me) = tfhpc_sim::des::current() {
                    me.advance(0.6);
                }
                ctx.check_faults()?;
                return Err(CoreError::Invalid("crash at 0.5 did not fire".into()));
            }
            let stamp = Tensor::scalar_f64(ctx.attempt() as f64);
            send(&ctx.server, &key, stamp.clone(), None)?;
            ctx.server
                .remote_enqueue(&TaskKey::new("dst", 0), "work", vec![stamp], None)
        }
    })
    .unwrap();
    assert_eq!(out.restarts, 1);
    assert_eq!(out.replacements.len(), 1, "src must move to the spare");
    assert_eq!(out.replacements[0].0, TaskKey::new("src", 0));
    for exit in &out.task_exits {
        if exit.key.job == "dst" {
            assert_eq!(exit.attempt, 0, "healthy task restarted: {:?}", exit.key);
            assert!(exit.error.is_none());
        }
    }
}

#[test]
fn hang_with_zero_budget_is_fatal_not_deadlocked() {
    // Liveness detection with no restart budget: the hang must still be
    // *detected* (the run cannot sit in a silent deadlock), the fatal
    // drain must unwind a healthy peer parked in `recv_deadline`, and
    // the launch must fail with the detector's verdict.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("dst", 1, 0), JobSpec::new("src", 1, 0)],
        Protocol::Rdma,
    )
    .with_faults(FaultPlan::new().hang(1, 0.3))
    .with_supervisor(SupervisorConfig::default().with_heartbeats(0.05, 0.2));
    let unwound = Arc::new(parking_lot::Mutex::new(false));
    let unwound2 = Arc::clone(&unwound);
    let result = launch(&cfg, move |ctx| {
        let key = RendezvousKey::new(TaskKey::new("src", 0), TaskKey::new("dst", 0), "edge", 1);
        if ctx.job() == "dst" {
            // Nothing will ever arrive: the sender hangs at t=0.3. The
            // fatal path must abort this wait well before its deadline.
            match recv_deadline(&ctx.server, &key, None, 100.0) {
                Err(e) => {
                    assert!(ctx.now() < 1.0, "drain came too late: {}", ctx.now());
                    *unwound2.lock() = true;
                    Err(e)
                }
                Ok(_) => Err(CoreError::Invalid("received from a hung peer".into())),
            }
        } else {
            loop {
                if let Some(me) = tfhpc_sim::des::current() {
                    me.advance(0.05);
                }
                ctx.check_faults()?;
            }
        }
    });
    let err = match result {
        Err(e) => e,
        Ok(_) => panic!("zero budget must fail the launch"),
    };
    assert!(err.to_string().contains("heartbeat silence"), "{err}");
    assert!(*unwound.lock(), "parked recv was not unwound by the drain");
}

#[test]
fn repeated_hangs_exhaust_the_restart_budget() {
    // First hang (t=0.3) is detected and consumes the single restart;
    // the second (t=1.0) hits the replacement generation and must turn
    // fatal — exercising the exhausted-budget supervisor path end to
    // end in virtual time.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("worker", 2, 1)],
        Protocol::Rdma,
    )
    .with_faults(FaultPlan::new().hang(1, 0.3).hang(1, 1.0))
    .with_supervisor(SupervisorConfig::restarting(1).with_heartbeats(0.05, 0.2));
    let result = launch(&cfg, |ctx| {
        for _ in 0..20 {
            if let Some(me) = tfhpc_sim::des::current() {
                me.advance(0.1);
            }
            ctx.check_faults()?;
        }
        Ok(())
    });
    let err = match result {
        Err(e) => e,
        Ok(_) => panic!("second hang must exhaust the budget"),
    };
    assert!(err.to_string().contains("heartbeat silence"), "{err}");
}

fn crash_cg_cfg(iterations: usize) -> CgConfig {
    CgConfig {
        n: 256,
        workers: 2,
        iterations,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: Some(4),
        resume: false,
        reduction: CgReduction::QueuePair,
    }
}

#[test]
fn crash_injected_cg_restarts_from_checkpoint_bit_exactly() {
    // The tentpole demonstration: crash worker 1's node (node 2 —
    // reducer on 0, worker 0 on 1) halfway through a checkpointed CG
    // run. The supervisor gang-restarts from the latest common
    // checkpoint and the final residual is bit-identical to the
    // uninterrupted run; the whole faulty schedule is byte-for-byte
    // reproducible across repeats.
    let p = tegner_k420();
    let cfg = crash_cg_cfg(16);
    let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();
    assert_eq!(clean.restarts, 0);

    let faults = FaultSetup::new(FaultPlan::new().crash(2, clean.elapsed_s * 0.5), 2);
    let (a, _, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();
    let (b, _, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();
    assert_eq!(a.restarts, 1, "one gang restart expected");
    assert_eq!(
        a.rs_final.to_bits(),
        clean.rs_final.to_bits(),
        "checkpoint restart must reproduce the uninterrupted residual: {} vs {}",
        a.rs_final,
        clean.rs_final
    );
    assert!(
        a.elapsed_s > clean.elapsed_s,
        "the rerun costs virtual time"
    );
    // Determinism of the injected schedule itself.
    assert_eq!(b.restarts, a.restarts);
    assert_eq!(b.rs_final.to_bits(), a.rs_final.to_bits());
    assert_eq!(b.elapsed_s.to_bits(), a.elapsed_s.to_bits());
}

#[test]
fn seeded_fault_plan_perturbs_timing_not_results() {
    // A seeded transient-fault schedule (link faults + delay spikes, no
    // crashes) under a generous retry policy: the residual matches the
    // fault-free run bit for bit — transient faults cost time, never
    // correctness — and two runs of the same seed are byte-identical.
    // CI sweeps TFHPC_FAULT_SEED over {17, 42, 1337}.
    let seed: u64 = std::env::var("TFHPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let p = tegner_k420();
    let cfg = crash_cg_cfg(12);
    let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();

    let plan = FaultPlan::seeded(seed, 3, clean.elapsed_s);
    let setup = FaultSetup::new(plan, 0).with_retry(CallPolicy::new(10, clean.elapsed_s * 0.05));
    let (a, _, _) = run_cg_supervised(&p, &cfg, &setup).unwrap();
    let (b, _, _) = run_cg_supervised(&p, &cfg, &setup).unwrap();
    assert_eq!(a.restarts, 0, "transient faults must not consume restarts");
    assert_eq!(
        a.rs_final.to_bits(),
        clean.rs_final.to_bits(),
        "seed {seed}: transient faults changed the residual"
    );
    assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
    assert_eq!(a.rs_final.to_bits(), b.rs_final.to_bits());
    assert!(
        a.elapsed_s >= clean.elapsed_s,
        "seed {seed}: faults cannot make the run faster ({} vs {})",
        a.elapsed_s,
        clean.elapsed_s
    );
}

// ---- real mode: the same supervisor on host threads -----------------------

fn real(jobs: Vec<JobSpec>) -> LaunchConfig {
    LaunchConfig::real(tegner_k420(), jobs, Protocol::Grpc)
}

#[test]
fn real_mode_panicking_body_fails_the_launch_naming_the_panic() {
    let result = launch(&real(vec![JobSpec::new("worker", 2, 0)]), |ctx| {
        if ctx.index() == 1 {
            panic!("worker 1 blew up");
        }
        Ok(())
    });
    match result {
        Err(e) => assert!(e.to_string().contains("panicked"), "{e}"),
        Ok(_) => panic!("a panicking body must fail the launch"),
    }
}

#[test]
fn real_mode_failure_releases_a_parked_dequeue_with_unavailable() {
    // The consumer parks in `remote_dequeue` on the producer's queue,
    // then the producer fails: its death mark must release the consumer
    // with `Unavailable` at once, not after the 30 s drain.
    let drain_s = 30.0;
    let cfg = real(vec![JobSpec::new("prod", 1, 0), JobSpec::new("cons", 1, 0)])
        .with_supervisor(SupervisorConfig::default().with_drain_timeout(drain_s));
    let ready = std::sync::Barrier::new(2);
    let released = Arc::new(parking_lot::Mutex::new(None));
    let sink = Arc::clone(&released);
    let began = std::time::Instant::now();
    let result = launch(&cfg, move |ctx| {
        let prod = TaskKey::new("prod", 0);
        if ctx.job() == "prod" {
            ctx.server.resources.create_queue("work", 4);
            ready.wait();
            std::thread::sleep(std::time::Duration::from_millis(20));
            return Err(CoreError::Invalid("producer exploded".into()));
        }
        ready.wait();
        let got = ctx.server.remote_dequeue(&prod, "work", None);
        *sink.lock() = Some(matches!(got, Err(CoreError::Unavailable(_))));
        got.map(drop)
    });
    let err = result
        .err()
        .expect("the producer's failure fails the launch");
    assert!(err.to_string().contains("producer exploded"), "{err}");
    assert_eq!(
        *released.lock(),
        Some(true),
        "consumer not released with Unavailable"
    );
    let took = began.elapsed().as_secs_f64();
    assert!(
        took < drain_s / 3.0,
        "launch waited {took:.1}s of a {drain_s}s drain"
    );
}

#[test]
fn real_mode_straggler_outside_any_queue_is_detached_after_the_drain() {
    // Worker 1 waits on a barrier nobody else reaches, so no abort can
    // release it: once worker 0 fails, the launch gives up on it after
    // the drain timeout.
    let drain_s = 0.2;
    let cfg = real(vec![JobSpec::new("worker", 2, 0)])
        .with_supervisor(SupervisorConfig::default().with_drain_timeout(drain_s));
    let stuck = Arc::new(std::sync::Barrier::new(2));
    let stuck2 = Arc::clone(&stuck);
    let began = std::time::Instant::now();
    let result = launch(&cfg, move |ctx| {
        if ctx.index() == 0 {
            return Err(CoreError::Invalid("worker 0 failed".into()));
        }
        stuck2.wait();
        Ok(())
    });
    let msg = result.err().expect("worker 0 fails the launch").to_string();
    assert!(began.elapsed().as_secs_f64() >= drain_s);
    assert!(msg.contains("worker 0 failed"), "{msg}");
    assert!(
        msg.contains("1 task(s) still blocked after failure; detached"),
        "{msg}"
    );
    // Release the detached straggler.
    stuck.wait();
}

/// Reducer x 1 + worker x 2 on host threads, all-reducing 200 rounds
/// through the queue-pair reducer or the ring under
/// `SupervisorConfig::restarting(1)`; worker 1's first incarnation
/// fails before round `fail_at`. Returns worker 0's per-round sums (as
/// bits) from the incarnation that finished, the restarts and the
/// final cluster epoch.
fn real_all_reduce_rounds(ring: bool, fail_at: Option<usize>) -> (Vec<u64>, usize, u64) {
    const ROUNDS: usize = 200;
    let cfg = real(vec![
        JobSpec::new("reducer", 1, 0),
        JobSpec::new("worker", 2, 0),
    ])
    .with_supervisor(SupervisorConfig::restarting(1));
    let sums = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink = Arc::clone(&sums);
    let out = launch(&cfg, move |ctx| {
        if ctx.job() == "reducer" {
            if ring {
                return Ok(());
            }
            return Reducer::new(Arc::clone(&ctx.server), "r", 2, ReduceOp::Sum).serve(ROUNDS);
        }
        let w = ctx.index();
        let group = [TaskKey::new("worker", 0), TaskKey::new("worker", 1)];
        let mut mine = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            if w == 1 && ctx.attempt() == 0 && Some(round) == fail_at {
                return Err(CoreError::Aborted("worker 1 failed (injected)".into()));
            }
            let v = Tensor::full_f64([1], 0.1 * (3 * round + w) as f64);
            let sum = if ring {
                ring_all_reduce(&ctx.server, &group, w, v, None)?
            } else {
                worker_all_reduce(&ctx.server, &TaskKey::new("reducer", 0), "r", w, v, None)?
            };
            mine.push(sum.as_f64().map_err(CoreError::from)?[0].to_bits());
        }
        if w == 0 {
            *sink.lock() = mine;
        }
        Ok(())
    })
    .unwrap();
    let sums = std::mem::take(&mut *sums.lock());
    assert_eq!(sums.len(), ROUNDS);
    (sums, out.restarts, out.cluster.epoch())
}

#[test]
fn real_mode_gang_restart_reproduces_every_all_reduce_round() {
    // Recovered ≡ fault-free on the wall clock: the gang restart fences
    // the failed generation off, so no stale partial reaches the new
    // one and every round's sum matches the uninterrupted run bit for
    // bit, on the queue pair and on the ring.
    for ring in [false, true] {
        let (clean, restarts, epoch) = real_all_reduce_rounds(ring, None);
        assert_eq!((restarts, epoch), (0, 0));
        let (recovered, restarts, epoch) = real_all_reduce_rounds(ring, Some(90));
        assert_eq!((restarts, epoch), (1, 1), "ring: {ring}");
        assert_eq!(recovered, clean, "ring: {ring}");
    }
}
