//! Partition & overload robustness: split-brain fencing under network
//! partitions, exactly-once decider handoff, post-heal bit-identical
//! CG resume, dup/reorder delivery dedup, and breaker fast-fail.
//!
//! The invariants under test:
//!   * a minority-partitioned task self-fences (parks as `Fenced`)
//!     within the heartbeat timeout plus two monitor sweeps, and after
//!     partial restart **exactly one** incarnation executes each step —
//!     the superseded corpse never commits again (no split-brain);
//!   * a CG run that loses a worker to a partition window resumes
//!     after the heal to the bit-identical residual of the fault-free
//!     run, with zero gang restarts — fencing + retries absorb it;
//!   * a dup/reorder window delivers every enqueue twice on the wire
//!     but applies it exactly once at the queue;
//!   * an open circuit breaker fails fast — well under one retry
//!     backoff period — instead of burning the full retry schedule,
//!     and it stops rendezvous sends as well as the remote primitives.
//!
//! The seeded tests honor `TFHPC_FAULT_SEED` (CI sweeps 17/42/1337).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use tfhpc_apps::{run_cg_supervised, run_cg_with_store, CgConfig, CgReduction, FaultSetup};
use tfhpc_core::CoreError;
use tfhpc_dist::{
    launch, send, BreakerState, CallPolicy, ClusterSpec, JobSpec, LaunchConfig, Liveness,
    RendezvousKey, Server, SupervisorConfig, TaskKey, TfCluster,
};
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::tegner_k420;
use tfhpc_tensor::Tensor;

fn fault_seed() -> u64 {
    std::env::var("TFHPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn retry_for(horizon_s: f64) -> CallPolicy {
    // Cumulative exponential backoff (base × 63 over 7 attempts) far
    // exceeds the widest partition window (≤ 35% of horizon), so ops
    // from the majority side ride out the fence instead of exhausting.
    CallPolicy::new(7, horizon_s * 0.05)
}

fn two_node_cluster() -> (Arc<TfCluster>, Arc<Server>, Arc<Server>) {
    let spec = ClusterSpec::new([
        ("ps".to_string(), vec!["a:8888".to_string()]),
        ("worker".to_string(), vec!["b:8888".to_string()]),
    ]);
    let cluster = TfCluster::new(spec, Protocol::Rdma, None);
    let ps = cluster.start_server(TaskKey::new("ps", 0), 0, vec![]);
    let worker = cluster.start_server(TaskKey::new("worker", 0), 1, vec![0]);
    (cluster, ps, worker)
}

/// A 3-task gang steps through a checkpointed loop while node 2 is cut
/// off by a symmetric partition. The minority task must self-fence
/// (never electing itself a decider), the liveness monitor must declare
/// it dead within the timeout + 2 sweeps, and the partial restart must
/// respawn it on a spare node — with every step executed by exactly
/// one incarnation.
#[test]
fn minority_partition_fences_exactly_one_decider() {
    const STEPS: usize = 40;
    const STEP_S: f64 = 0.005;
    const PART_AT: f64 = 0.05;
    const HB_PERIOD: f64 = 0.01;
    const HB_TIMEOUT: f64 = 0.04;

    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("worker", 3, 1)],
        Protocol::Rdma,
    )
    .with_faults(FaultPlan::new().partition(vec![vec![2]], PART_AT, 0.6))
    .with_supervisor(
        SupervisorConfig::restarting(2)
            .with_heartbeats(HB_PERIOD, HB_TIMEOUT)
            .with_partial_restart(["worker"])
            .with_spares(1),
    );

    // `committed[idx]` is the durable resume point; `log` records which
    // incarnation executed which step. A split-brain (fenced corpse
    // still deciding) would show up as a step executed twice.
    let committed: Arc<Mutex<HashMap<usize, usize>>> = Arc::new(Mutex::new(HashMap::new()));
    let log: Arc<Mutex<Vec<(usize, u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let committed2 = Arc::clone(&committed);
    let log2 = Arc::clone(&log);

    let out = launch(&cfg, move |ctx| {
        let me = tfhpc_sim::des::current().expect("simulated launch");
        let idx = ctx.index();
        let attempt = ctx.attempt();
        let mut step = committed2.lock().get(&idx).copied().unwrap_or(0);
        while step < STEPS {
            // The fence gate: a minority task parks here instead of
            // committing another step.
            ctx.check_faults()?;
            me.advance(STEP_S);
            log2.lock().push((idx, attempt, step));
            committed2.lock().insert(idx, step + 1);
            step += 1;
        }
        Ok(())
    })
    .unwrap();

    // The minority task fenced itself, within timeout + 2 sweeps of the
    // partition onset (step cadence granularity included).
    let fences = out.cluster.fence_events();
    assert!(!fences.is_empty(), "minority task never fenced");
    for f in &fences {
        assert_eq!(f.key, TaskKey::new("worker", 2));
        assert_eq!(f.node, 2);
    }
    let fence_bound = HB_TIMEOUT + 2.0 * HB_PERIOD + STEP_S;
    assert!(
        fences[0].at_s >= PART_AT - 1e-9 && fences[0].at_s - PART_AT <= fence_bound,
        "fence at t={:.4}, outside [{PART_AT}, {PART_AT} + {fence_bound}]",
        fences[0].at_s
    );

    // The monitor declared it dead from heartbeat silence on schedule.
    let membership = out.membership.as_ref().expect("heartbeats enabled");
    let death = membership
        .events()
        .into_iter()
        .find(|e| e.key == TaskKey::new("worker", 2) && e.to == Liveness::Dead)
        .expect("no death verdict for the partitioned task");
    assert!(
        death.at_s - PART_AT <= HB_TIMEOUT + 2.0 * HB_PERIOD + 1e-9,
        "death verdict at t={:.4} too late after onset t={PART_AT}",
        death.at_s
    );

    // Partial restart replaced it on the spare node (the majority
    // island), not its partitioned home.
    assert!(out.restarts >= 1, "no partial restart happened");
    assert_eq!(out.replacements.len(), 1);
    let (key, old_node, new_node) = &out.replacements[0];
    assert_eq!(key, &TaskKey::new("worker", 2));
    assert_eq!(*old_node, 2);
    assert_eq!(*new_node, 3, "replacement must land on the spare");

    // Exactly-once: every (task, step) pair executed by exactly one
    // incarnation, and the handoff is gapless and monotone.
    let log = log.lock();
    let mut seen = HashSet::new();
    for &(idx, _attempt, step) in log.iter() {
        assert!(
            seen.insert((idx, step)),
            "step {step} of worker {idx} executed twice — split-brain"
        );
    }
    assert_eq!(seen.len(), 3 * STEPS, "steps lost");
    let corpse_max = log
        .iter()
        .filter(|(i, a, _)| *i == 2 && *a == 0)
        .map(|&(_, _, s)| s)
        .max()
        .expect("attempt 0 of worker 2 ran");
    let heir_min = log
        .iter()
        .filter(|(i, a, _)| *i == 2 && *a == 1)
        .map(|&(_, _, s)| s)
        .min()
        .expect("attempt 1 of worker 2 ran");
    assert_eq!(
        heir_min,
        corpse_max + 1,
        "replacement resumed at the wrong step"
    );
}

/// CG with a worker node partitioned for a mid-run window: the fenced
/// worker parks until the heal, the majority's remote ops to it retry
/// across the window, and the final residual is bit-identical to the
/// fault-free run with zero gang restarts.
#[test]
fn cg_resumes_bit_identically_after_partition_heals() {
    let p = tegner_k420();
    let cfg = CgConfig {
        n: 256,
        workers: 2,
        iterations: 12,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: Some(4),
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();
    let t = clean.elapsed_s;

    // Node 1 hosts CG worker 0 (the reducer sits on node 0): isolating
    // it guarantees a task that issues remote ops inside the window,
    // so the fence park is actually exercised.
    let plan = FaultPlan::new().partition(vec![vec![1]], 0.35 * t, 0.6 * t);
    let before = tfhpc_obs::global().counter("tfhpc_fenced_total").get();
    let faults = FaultSetup::new(plan, 2).with_retry(retry_for(t));
    let (faulted, _, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();

    assert!(
        tfhpc_obs::global().counter("tfhpc_fenced_total").get() > before,
        "the minority worker never entered the quorum fence"
    );
    assert_eq!(
        faulted.restarts, 0,
        "fence + retries should absorb the partition without a gang restart"
    );
    assert_eq!(
        faulted.rs_final.to_bits(),
        clean.rs_final.to_bits(),
        "post-heal residual drifted: {} vs clean {}",
        faulted.rs_final,
        clean.rs_final
    );
}

/// Same bit-identity invariant under the *seeded* composite plan
/// (minority split plus optional blackhole and dup/reorder windows,
/// drawn from `TFHPC_FAULT_SEED`).
#[test]
fn cg_survives_seeded_partition_plan() {
    let p = tegner_k420();
    let cfg = CgConfig {
        n: 256,
        workers: 2,
        iterations: 12,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: Some(4),
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();
    let t = clean.elapsed_s;

    let plan = FaultPlan::seeded_partition(fault_seed(), 3, t);
    assert!(plan.has_partition_events(), "seeded plan must partition");
    let faults = FaultSetup::new(plan, 4).with_retry(retry_for(t));
    let (faulted, _, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();

    assert_eq!(
        faulted.rs_final.to_bits(),
        clean.rs_final.to_bits(),
        "seeded-partition residual drifted (seed {})",
        fault_seed()
    );
}

/// A dup/reorder window on the sender delivers each enqueue frame
/// twice; the receiver's dedup ledger must apply it exactly once, and
/// export the suppressed duplicates.
#[test]
fn dup_window_never_double_applies_enqueue() {
    let (cluster, ps, worker) = two_node_cluster();
    cluster.set_faults(Some(Arc::new(FaultPlan::new().dup_reorder(1, 0.0, 1e9))));
    let q = ps.resources.create_queue("inbox", 8);

    let before = tfhpc_obs::global().counter("tfhpc_dup_dropped_total").get();
    for i in 0..3 {
        worker
            .remote_enqueue(
                &TaskKey::new("ps", 0),
                "inbox",
                vec![Tensor::scalar_i64(i)],
                None,
            )
            .unwrap();
    }

    // Three sends, each delivered twice on the wire — but the queue
    // holds exactly three elements.
    assert_eq!(q.len(), 3, "duplicate delivery was applied");
    assert!(
        tfhpc_obs::global().counter("tfhpc_dup_dropped_total").get() - before >= 3,
        "suppressed duplicates were not counted"
    );
    for _ in 0..3 {
        assert!(q.try_dequeue().unwrap().is_some());
    }
    assert!(q.try_dequeue().unwrap().is_none(), "ghost element queued");
}

/// Once the per-destination breaker opens, calls must fail fast with
/// `ResourceExhausted` — strictly under one retry backoff period —
/// instead of re-walking the whole retry schedule against a dead
/// route.
#[test]
fn breaker_open_fails_fast() {
    const BACKOFF_S: f64 = 0.2;
    let (cluster, _ps, worker) = two_node_cluster();
    // A permanent total partition: every remote op is doomed.
    cluster.set_faults(Some(Arc::new(FaultPlan::new().partition(
        vec![vec![1]],
        0.0,
        1e9,
    ))));
    cluster.set_call_policy(CallPolicy::new(3, BACKOFF_S).with_breaker(1, 30.0));
    let breakers = cluster.calls();
    let ps_key = TaskKey::new("ps", 0);

    // First call: the transient failure trips the breaker (threshold
    // 1); the next admission check inside the retry loop then fails
    // fast and non-transiently.
    let e1 = worker.remote_var_read(&ps_key, "v", None).unwrap_err();
    assert!(
        matches!(e1, CoreError::ResourceExhausted(_)),
        "expected breaker rejection, got: {e1}"
    );
    assert_eq!(breakers.state(&ps_key), BreakerState::Open);
    assert_eq!(breakers.total_trips(), 1);

    // Second call: rejected at admission before any backoff sleep.
    let t0 = std::time::Instant::now();
    let e2 = worker.remote_var_read(&ps_key, "v", None).unwrap_err();
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(
        matches!(e2, CoreError::ResourceExhausted(_)),
        "expected breaker rejection, got: {e2}"
    );
    assert!(
        elapsed < BACKOFF_S,
        "breaker-open call took {elapsed:.3}s — at least one full backoff period, not a fast-fail"
    );
    assert_eq!(breakers.total_trips(), 1, "fast-fail must not re-trip");
}

/// The breaker guards every wire-crossing primitive, not only the
/// `remote_*` ones: once `remote_var_read` has opened it toward `ps:0`,
/// a rendezvous send to `ps:0` fails fast too.
#[test]
fn open_breaker_stops_rendezvous_sends() {
    const BACKOFF_S: f64 = 0.2;
    let (cluster, _ps, worker) = two_node_cluster();
    cluster.set_faults(Some(Arc::new(FaultPlan::new().partition(
        vec![vec![1]],
        0.0,
        1e9,
    ))));
    cluster.set_call_policy(CallPolicy::new(3, BACKOFF_S).with_breaker(1, 30.0));
    let ps_key = TaskKey::new("ps", 0);
    let e1 = worker.remote_var_read(&ps_key, "v", None).unwrap_err();
    assert!(matches!(e1, CoreError::ResourceExhausted(_)), "{e1}");
    assert_eq!(cluster.calls().state(&ps_key), BreakerState::Open);

    let key = RendezvousKey::new(worker.key.clone(), ps_key, "edge", 0);
    let t0 = std::time::Instant::now();
    let sent = send(&worker, &key, Tensor::scalar_f64(1.0), None);
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(
        matches!(sent, Err(CoreError::ResourceExhausted(_))),
        "expected breaker rejection, got: {sent:?}"
    );
    assert!(elapsed < BACKOFF_S, "rendezvous send took {elapsed:.3}s");
}
