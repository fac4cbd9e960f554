//! End-to-end request deadlines in virtual time: the budget
//! `Session::run_with_deadline` installs bounds the remote calls below
//! it. A dequeue from a queue nobody fills gives up at exactly the
//! virtual expiry, and a retry whose first backoff would outlast the
//! remaining budget fails at once instead of sleeping through it. A
//! budget belongs to the process that opened it, not to whichever DES
//! leaf happens to run on that process's thread.

use std::sync::Arc;

use parking_lot::Mutex;
use tfhpc_apps::{RequestKind, RequestSpec};
use tfhpc_core::{CoreError, Graph, Result};
use tfhpc_dist::{launch_with_setup, CallPolicy, JobSpec, LaunchConfig, TaskCtx, TaskKey};
use tfhpc_serve::{JobPayload, ServeConfig, SessionServer};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};
use tfhpc_sim::topology::ClusterSim;
use tfhpc_sim::Sim;

/// Launch a ps owning an empty queue `q` and a worker that runs one
/// `RemoteDequeueKernel` on it under a 0.25 s deadline, with `ps:0`
/// marked down first when `ps_down`. Returns the run's result and the
/// worker's clock before and after it.
fn dequeue_under_deadline(policy: CallPolicy, ps_down: bool) -> (Result<()>, f64, f64) {
    let ps = TaskKey::new("ps", 0);
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 1, 0)],
        Protocol::Rdma,
    )
    .with_retry(policy);
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let down = ps.clone();
    let setup = move |cluster: &Arc<tfhpc_dist::TfCluster>| {
        if ps_down {
            cluster.mark_dead(&down, "gone for good");
        }
    };
    let body = move |ctx: TaskCtx| {
        if ctx.job() == "ps" {
            ctx.server.resources.create_queue("q", 4);
            return Ok(());
        }
        let mut g = Graph::new();
        let deq = g.custom(
            ctx.server.dequeue_kernel(ps.clone(), "q", 1, None),
            &[],
            &[],
        );
        let session = ctx.server.session(Arc::new(g));
        let t0 = ctx.now();
        let r = session.run_with_deadline(&[deq], &[], 0.25).map(drop);
        *seen2.lock() = Some((r, t0, ctx.now()));
        Ok(())
    };
    launch_with_setup(&cfg, setup, body).unwrap();
    let got = seen.lock().take().expect("worker ran");
    got
}

#[test]
fn a_dequeue_nobody_fills_expires_at_the_exact_virtual_instant() {
    let (r, t0, t1) = dequeue_under_deadline(CallPolicy::default(), false);
    assert!(matches!(r, Err(CoreError::DeadlineExceeded(_))), "{r:?}");
    assert_eq!(t0, 0.0);
    assert_eq!(t1.to_bits(), 0.25f64.to_bits(), "expired at t={t1}");
}

#[test]
fn a_backoff_past_the_budget_fails_without_sleeping() {
    // The first backoff (1 s) exceeds the whole 0.25 s budget: the run
    // ends when a run that may not retry at all ends.
    let (r, _, t1) = dequeue_under_deadline(CallPolicy::new(3, 1.0), true);
    assert!(matches!(r, Err(CoreError::DeadlineExceeded(_))), "{r:?}");
    let (once, _, t_once) = dequeue_under_deadline(CallPolicy::default(), true);
    assert!(matches!(once, Err(CoreError::Unavailable(_))), "{once:?}");
    assert_eq!(t1.to_bits(), t_once.to_bits(), "a backoff was slept");
    assert!(t1 < 0.25);
}

#[test]
fn a_serve_worker_leaf_does_not_inherit_its_host_threads_budget() {
    // The client, a thread process, submits and waits inside a budget
    // that is spent before its job runs. While it parks, the simulated
    // server's worker (a DES leaf) runs the job inline on the client's
    // thread: the client's budget is not the worker's.
    let sim = Sim::new();
    let cluster = Arc::new(ClusterSim::new(&sim, tegner_k80(), 2));
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = SessionServer::start_sim(cfg, &sim, &cluster, &[1]);
    let seen = Arc::new(Mutex::new(None));
    {
        let seen = Arc::clone(&seen);
        sim.spawn("client", move || {
            let _budget = tfhpc_core::deadline::with_deadline(1e-6);
            let payload = JobPayload::Step {
                spec: RequestSpec::new(RequestKind::Stream, 64),
                seed: 1,
            };
            let id = server.submit("t", payload).unwrap();
            let result = server.wait(id);
            assert!(
                tfhpc_core::deadline::check("client").is_err(),
                "the client's budget is spent"
            );
            *seen.lock() = Some(result);
            server.shutdown();
        });
    }
    sim.run();
    let result = seen.lock().take().expect("the client ran");
    assert_eq!(result.error, None);
    assert!(result.finished_s > 1e-6);
}
