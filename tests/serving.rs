//! Serving-plane integration tests: admission quotas under concurrent
//! multi-tenant load, quota release on both completion and supervised
//! death, batched-vs-unbatched bit-identity, shared plan cache
//! behaviour, strict env parsing, load-report determinism, the
//! simulated server's wake-up discipline and the real server's
//! liveness under the same wake rule.

use std::collections::BTreeMap;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use tfhpc_apps::{run_cg_supervised, CgConfig, CgReduction, FaultSetup, RequestKind, RequestSpec};
use tfhpc_core::CoreError;
use tfhpc_serve::{
    run_load, Arrival, JobPayload, ServeConfig, SessionServer, TenantQuota, TenantSpec,
};
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};
use tfhpc_sim::topology::ClusterSim;
use tfhpc_sim::Sim;

/// A gate custom jobs can block on, so tests can pin a tenant's
/// in-flight count at an exact value.
#[derive(Default)]
struct Gate {
    open: parking_lot::Mutex<bool>,
    cv: parking_lot::Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.cv.wait(&mut open);
        }
    }

    fn release(&self) {
        *self.open.lock() = true;
        self.cv.notify_all();
    }
}

fn blocking_job(gate: &Arc<Gate>) -> JobPayload {
    let g = Arc::clone(gate);
    JobPayload::Custom {
        label: "blocker".into(),
        nodes: 1,
        run: Box::new(move || {
            g.hold();
            Ok(1)
        }),
    }
}

#[test]
fn concurrent_over_quota_submissions_get_resource_exhausted() {
    // Two tenants, each allowed 2 in-flight jobs. Fill both quotas
    // with jobs that block on a gate, then over-submit concurrently
    // from separate threads: every overflow submission must fail with
    // ResourceExhausted, deterministically, and neither tenant's
    // overflow may eat into the other's quota.
    let server = SessionServer::start_real(ServeConfig {
        workers: 2,
        batch_window_s: 0.0,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let quota = TenantQuota {
        max_in_flight: 2,
        max_queue_depth: 2,
        node_budget: 2,
        priority: 0,
    };
    server.set_quota("alice", quota);
    server.set_quota("bob", quota);
    let gate = Arc::new(Gate::default());
    for tenant in ["alice", "bob"] {
        for _ in 0..2 {
            server.submit(tenant, blocking_job(&gate)).unwrap();
        }
    }
    let handles: Vec<_> = ["alice", "bob"]
        .into_iter()
        .map(|tenant| {
            let srv = Arc::clone(&server);
            let g = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut rejections = 0;
                for _ in 0..8 {
                    match srv.submit(tenant, blocking_job(&g)) {
                        Err(CoreError::ResourceExhausted(msg)) => {
                            assert!(msg.contains(tenant), "reason names the tenant: {msg}");
                            rejections += 1;
                        }
                        Err(other) => panic!("unexpected error kind: {other}"),
                        Ok(_) => panic!("over-quota submission admitted"),
                    }
                }
                rejections
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 8);
    }
    // Quota released on completion: the gate opens, everything drains,
    // and both tenants can submit again.
    gate.release();
    server.quiesce();
    for tenant in ["alice", "bob"] {
        let u = server.usage(tenant);
        assert_eq!((u.queued, u.running, u.nodes_in_use), (0, 0, 0), "{tenant}");
        assert_eq!(u.admitted, 2, "only the two blockers were admitted");
        assert_eq!(u.rejected, 8, "every overflow attempt was rejected");
        let probe = Arc::new(Gate::default());
        probe.release();
        server.submit(tenant, blocking_job(&probe)).unwrap();
    }
    server.quiesce();
    server.shutdown();
    let results = server.take_results();
    assert_eq!(results.len(), 6);
    assert!(results.iter().all(|r| r.error.is_none()));
}

#[test]
fn quota_released_when_supervised_gang_dies() {
    // A custom job wraps a whole supervised CG run whose gang is
    // killed with no restart budget: the job body returns Err. The
    // admission controller must still release the tenant's node
    // reservation — a Dead membership verdict must not leak quota.
    let server = SessionServer::start_real(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    server.set_quota(
        "hpc",
        TenantQuota {
            max_in_flight: 1,
            max_queue_depth: 1,
            node_budget: 3,
            priority: 0,
        },
    );
    let id = server
        .submit(
            "hpc",
            JobPayload::Custom {
                label: "cg-doomed".into(),
                nodes: 3,
                run: Box::new(|| {
                    let cfg = CgConfig {
                        n: 256,
                        workers: 2,
                        iterations: 16,
                        protocol: Protocol::Rdma,
                        simulated: true,
                        checkpoint_every: Some(4),
                        resume: false,
                        reduction: CgReduction::QueuePair,
                    };
                    // Crash worker 1's node early, zero restarts: fatal.
                    let faults = FaultSetup::new(FaultPlan::new().crash(2, 0.001), 0);
                    match run_cg_supervised(&tegner_k420(), &cfg, &faults) {
                        Ok(_) => Err("doomed run unexpectedly survived".into()),
                        Err(e) => Err(e.to_string()),
                    }
                }),
            },
        )
        .unwrap();
    let result = server.wait(id);
    assert!(result.error.is_some(), "gang death surfaces as a job error");
    let u = server.usage("hpc");
    assert_eq!(
        (u.queued, u.running, u.nodes_in_use),
        (0, 0, 0),
        "death released the full reservation"
    );
    // The freed budget is immediately usable.
    let ok = Arc::new(Gate::default());
    ok.release();
    let id2 = server
        .submit(
            "hpc",
            JobPayload::Custom {
                label: "follow-up".into(),
                nodes: 3,
                run: Box::new(|| Ok(2)),
            },
        )
        .unwrap();
    assert!(server.wait(id2).error.is_none());
    server.shutdown();
}

/// Run the same 24-job schedule through a real-mode server and map
/// each job's feed seed to its result digest.
fn digests_with(cfg: ServeConfig) -> (BTreeMap<u64, u64>, usize) {
    let server = SessionServer::start_real(cfg);
    let specs = [
        RequestSpec::new(RequestKind::Matmul, 16),
        RequestSpec::new(RequestKind::Fft, 16),
        RequestSpec::new(RequestKind::Stream, 32),
        RequestSpec::new(RequestKind::Cg, 12),
    ];
    let mut seed_of = BTreeMap::new();
    for i in 0..24u64 {
        let spec = specs[(i % 4) as usize];
        let seed = 1000 + i;
        let id = server.submit("t", JobPayload::Step { spec, seed }).unwrap();
        seed_of.insert(id, seed);
    }
    server.quiesce();
    server.shutdown();
    let results = server.take_results();
    assert_eq!(results.len(), 24);
    let max_batch = results.iter().map(|r| r.batch_size).max().unwrap();
    (
        results
            .into_iter()
            .map(|r| {
                assert!(r.error.is_none(), "{:?}", r.error);
                (seed_of[&r.id], r.digest)
            })
            .collect(),
        max_batch,
    )
}

#[test]
fn batched_results_are_bit_identical_to_unbatched() {
    // Batching amortizes dispatch; it must never change numerics. The
    // digests fold exact result bits, so equality here is bit-identity.
    let (unbatched, max1) = digests_with(ServeConfig {
        workers: 2,
        batch_window_s: 0.0,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let (batched, maxn) = digests_with(ServeConfig {
        workers: 2,
        batch_window_s: 0.05,
        max_batch: 8,
        ..ServeConfig::default()
    });
    assert_eq!(max1, 1, "max_batch=1 config must not coalesce");
    assert!(maxn > 1, "window config must coalesce");
    assert_eq!(unbatched, batched);
}

#[test]
fn shared_plan_cache_is_shared_and_bounds_with_lru() {
    use tfhpc_core::{DeviceCtx, Resources, Session, SessionOptions, SharedPlanCache};
    let cache = Arc::new(SharedPlanCache::new(2));
    let mk_session = |spec: RequestSpec| {
        let built = spec.build();
        let mut s = Session::with_options(
            built.graph,
            Resources::new(),
            DeviceCtx::real(0),
            SessionOptions {
                step_replay: true,
                ..SessionOptions::sequential()
            },
        );
        s.set_plan_cache(Arc::clone(&cache));
        (s, built.placeholders, built.fetches)
    };
    let spec = RequestSpec::new(RequestKind::Stream, 16);
    let run = |(s, phs, fetches): &(Session, Vec<tfhpc_core::NodeId>, Vec<tfhpc_core::NodeId>),
               seed: u64| {
        let feeds: Vec<_> = phs.iter().copied().zip(spec.feeds(seed, false)).collect();
        s.run(fetches, &feeds).unwrap();
    };
    // Two sessions over identically-built graphs share one plan.
    let a = mk_session(spec);
    let b = mk_session(spec);
    run(&a, 1);
    let after_a = cache.stats();
    assert_eq!((after_a.hits, after_a.misses, after_a.entries), (0, 1, 1));
    run(&b, 2);
    let after_b = cache.stats();
    assert_eq!(
        (after_b.hits, after_b.misses),
        (1, 1),
        "second session hits the first session's plan"
    );
    // Three distinct shapes through a 2-entry cache: LRU evicts.
    let c = mk_session(RequestSpec::new(RequestKind::Matmul, 8));
    let d = mk_session(RequestSpec::new(RequestKind::Fft, 16));
    let run2 = |(s, phs, fetches): &(Session, Vec<tfhpc_core::NodeId>, Vec<tfhpc_core::NodeId>),
                sp: RequestSpec| {
        let feeds: Vec<_> = phs.iter().copied().zip(sp.feeds(3, false)).collect();
        s.run(fetches, &feeds).unwrap();
    };
    run2(&c, RequestSpec::new(RequestKind::Matmul, 8));
    run2(&d, RequestSpec::new(RequestKind::Fft, 16));
    let st = cache.stats();
    assert_eq!(st.entries, 2, "capacity bound holds");
    assert_eq!(st.evictions, 1, "oldest entry evicted");
    // The stream plan (least recently used) was the victim: running it
    // again misses and re-inserts.
    run(&a, 4);
    let st2 = cache.stats();
    assert_eq!(st2.misses, st.misses + 1, "evicted plan rebuilt");
}

#[test]
fn malformed_env_values_fail_loudly() {
    // Strict parsing: a typo'd knob must be an InvalidArgument error,
    // not a silently applied default. Each check uses its own variable
    // and restores the environment afterwards.
    std::env::set_var("TFHPC_SERVE_MAX_BATCH", "many");
    let err = ServeConfig::from_env().unwrap_err();
    assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    assert!(err.to_string().contains("TFHPC_SERVE_MAX_BATCH"), "{err}");
    std::env::set_var("TFHPC_SERVE_MAX_BATCH", "0");
    let err = ServeConfig::from_env().unwrap_err();
    assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    std::env::remove_var("TFHPC_SERVE_MAX_BATCH");

    std::env::set_var("TFHPC_SERVE_BATCH_WINDOW_S", "-0.5");
    let err = ServeConfig::from_env().unwrap_err();
    assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    std::env::remove_var("TFHPC_SERVE_BATCH_WINDOW_S");

    std::env::set_var("TFHPC_STEP_REPLAY", "maybe");
    let err = tfhpc_core::SessionOptions::from_env().unwrap_err();
    assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    std::env::remove_var("TFHPC_STEP_REPLAY");

    assert!(ServeConfig::from_env().is_ok());
    assert!(tfhpc_core::SessionOptions::from_env().is_ok());
}

fn tiny_load() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "open".into(),
            arrival: Arrival::Open { rate_hz: 1500.0 },
            jobs: 40,
            mix: vec![
                RequestSpec::new(RequestKind::Matmul, 16),
                RequestSpec::new(RequestKind::Fft, 32),
            ],
            quota: None,
        },
        TenantSpec {
            name: "closed".into(),
            arrival: Arrival::Closed {
                clients: 3,
                think_s: 0.002,
            },
            jobs: 15,
            mix: vec![RequestSpec::new(RequestKind::Stream, 64)],
            quota: Some(TenantQuota {
                max_in_flight: 8,
                max_queue_depth: 8,
                node_budget: 8,
                priority: 0,
            }),
        },
    ]
}

#[test]
fn same_seed_load_runs_are_byte_identical() {
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let a = run_load(&cfg, &tiny_load(), 1337).unwrap().to_json();
    let b = run_load(&cfg, &tiny_load(), 1337).unwrap().to_json();
    assert_eq!(a, b, "same seed must reproduce the report byte-for-byte");
    let c = run_load(&cfg, &tiny_load(), 7).unwrap().to_json();
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn load_report_equals_the_single_condvar_bytes() {
    // Captured before the server's condvar was split into work/done and
    // the DES moved to baton passing: neither may move a virtual time.
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let report = run_load(&cfg, &tiny_load(), 1337).unwrap();
    assert_eq!(
        report.to_json(),
        include_str!("golden/serving_tiny_seed1337.json")
    );
    // Every process of a `run_load` is a DES leaf, resumed without a
    // wake-up; the dispatches and timers are those the run took when
    // the serve workers were threads.
    let des = report.des;
    assert_eq!((des.dispatches, des.timers_fired), (132, 24));
    assert_eq!((des.thread_wakeups, des.inline_resumes), (0, 132));
    // One idle worker holds the batch-deadline timer, so at most one
    // timer fires per dispatched batch (every idle worker held one when
    // they all parked on the same deadline: ~3.5 per batch).
    assert!(
        report.des.timers_fired <= report.batches,
        "{} timers fired for {} batches",
        report.des.timers_fired,
        report.batches
    );
}

#[test]
fn a_one_plan_cache_reproduces_the_thread_workers_bytes() {
    // Captured when the serve workers were threads. A one-plan cache
    // evicts on every shape change, so hits depend on the order in
    // which workers look plans up: a leaf worker must make each lookup
    // at the virtual instant a thread made it.
    let cfg = ServeConfig {
        workers: 2,
        plan_cache_cap: 1,
        ..ServeConfig::default()
    };
    let report = run_load(&cfg, &tiny_load(), 1337).unwrap();
    assert!(report.plan_cache.evictions > 0);
    assert_eq!(
        report.to_json(),
        include_str!("golden/serving_tiny_cap1_seed1337.json")
    );
    let des = report.des;
    assert_eq!(
        (des.dispatches, des.timers_fired, des.thread_wakeups),
        (132, 24, 0)
    );
    // At seed 5 another worker's lookup falls between two members of
    // one batch: running a whole batch before replaying any of its
    // charges gets 32 hits here, not the threads' 30.
    let seed5 = run_load(&cfg, &tiny_load(), 5).unwrap().plan_cache;
    assert_eq!((seed5.hits, seed5.misses, seed5.evictions), (30, 25, 24));
}

#[test]
fn a_closed_tenant_with_no_jobs_does_not_stall_the_run() {
    // Its three clients are never spawned, so the controller must not
    // wait for them (it did, and the run ended in a DES deadlock).
    let mut tenants = tiny_load();
    tenants[0].jobs = 4;
    tenants[1].jobs = 0;
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let report = run_load(&cfg, &tenants, 1337).unwrap();
    let submitted: Vec<(&str, u64)> = report
        .tenants
        .iter()
        .map(|t| (t.tenant.as_str(), t.submitted))
        .collect();
    assert_eq!(submitted, [("closed", 0), ("open", 4)]);
    assert_eq!(report.completed, 4);
}

#[test]
fn sim_server_wakes_only_who_it_can_unblock() {
    // Closed-loop clients against a simulated server, unbatched so that
    // every job is one dispatch. While a client waits for its result the
    // others keep submitting, and while a worker idles the others keep
    // finishing: a submit that woke the waiting clients, or a finish
    // that woke the idle workers, would show up as extra DES dispatches.
    const CLIENTS: usize = 8;
    const JOBS_EACH: usize = 12;
    const WORKERS: usize = 4;
    let sim = Sim::new();
    let cluster = Arc::new(ClusterSim::new(&sim, tegner_k80(), WORKERS + 1));
    let cfg = ServeConfig {
        workers: WORKERS,
        batch_window_s: 0.0,
        max_batch: 1,
        ..ServeConfig::default()
    };
    let nodes: Vec<usize> = (1..=WORKERS).collect();
    let server = SessionServer::start_sim(cfg, &sim, &cluster, &nodes);
    let clients_left = Arc::new(parking_lot::Mutex::new(CLIENTS));
    for c in 0..CLIENTS {
        let server = Arc::clone(&server);
        let clients_left = Arc::clone(&clients_left);
        sim.spawn(&format!("client-{c}"), move || {
            let me = tfhpc_sim::current().expect("sim proc");
            for k in 0..JOBS_EACH {
                let id = server
                    .submit(
                        "closed",
                        JobPayload::Step {
                            spec: RequestSpec::new(RequestKind::Stream, 64),
                            seed: (c * JOBS_EACH + k) as u64,
                        },
                    )
                    .expect("within quota");
                assert!(server.wait(id).error.is_none());
                me.advance(0.0005 * (c + 1) as f64);
            }
            let mut left = clients_left.lock();
            *left -= 1;
            if *left == 0 {
                server.shutdown();
            }
        });
    }
    sim.run();
    let jobs = (CLIENTS * JOBS_EACH) as u64;
    assert_eq!(server.take_results().len() as u64, jobs);
    let stats = sim.stats();
    assert_eq!(
        stats.thread_wakeups + stats.inline_resumes,
        stats.dispatches
    );
    // 377 dispatches for the 96 jobs (3.9 per job): a submit wakes one
    // idle worker and a finish only the client whose job it was. Waking
    // every idle worker per submit and every client per finish took 701
    // (7.3); one condvar shared by workers and clients, 991 (10.3).
    assert!(
        stats.dispatches * 2 <= 9 * jobs,
        "{} dispatches for {jobs} jobs",
        stats.dispatches
    );
}

/// The digest a bare session computes for `spec` fed from `seed`.
fn direct_digest(spec: RequestSpec, seed: u64) -> u64 {
    use tfhpc_core::{DeviceCtx, Resources, Session, SessionOptions};
    let built = spec.build();
    let session = Session::with_options(
        built.graph,
        Resources::new(),
        DeviceCtx::real(0),
        SessionOptions {
            step_replay: true,
            ..SessionOptions::sequential()
        },
    );
    let feeds: Vec<_> = built
        .placeholders
        .iter()
        .copied()
        .zip(spec.feeds(seed, false))
        .collect();
    tfhpc_apps::digest_tensors(&session.run(&built.fetches, &feeds).unwrap())
}

/// Run `body` on its own thread; fail the test if it takes over 60 s
/// (a lost wake-up parks a thread forever).
fn within_a_minute<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || tx.send(body()).unwrap());
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(out) => {
            handle.join().unwrap();
            out
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("no result within 60 s: a wake-up was lost"),
    }
}

#[test]
fn real_server_loses_no_wake_up_under_concurrent_clients() {
    // Eight clients against four wall-clock workers with a 1 ms window
    // and batches of at most 3: submits race parks, finishes race waits,
    // and batches open and close under every worker. Each job must come
    // back with its bare-session digest, and `quiesce` must return.
    const CLIENTS: u64 = 8;
    const JOBS_EACH: u64 = 200;
    const SEEDS: u64 = 4;
    let specs = [
        RequestSpec::new(RequestKind::Matmul, 16),
        RequestSpec::new(RequestKind::Fft, 16),
        RequestSpec::new(RequestKind::Cg, 12),
        RequestSpec::new(RequestKind::Stream, 32),
    ];
    let expected: Vec<Vec<u64>> = specs
        .iter()
        .map(|&spec| (0..SEEDS).map(|seed| direct_digest(spec, seed)).collect())
        .collect();
    within_a_minute(move || {
        let server = SessionServer::start_real(ServeConfig {
            workers: 4,
            batch_window_s: 0.001,
            max_batch: 3,
            ..ServeConfig::default()
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = Arc::clone(&server);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for k in 0..JOBS_EACH {
                        // Each client walks the specs with its own stride,
                        // so some batches fill to 3 and others (~1 in 4
                        // on a two-core host) wait out the window.
                        let (s, seed) = (((c + k * (c + 1)) % 4) as usize, (c + k) % SEEDS);
                        let id = server
                            .submit(
                                "t",
                                JobPayload::Step {
                                    spec: specs[s],
                                    seed,
                                },
                            )
                            .unwrap();
                        let r = server.wait(id);
                        assert!(r.error.is_none(), "{:?}", r.error);
                        assert_eq!(r.digest, expected[s][seed as usize], "client {c} job {k}");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        server.quiesce();
        server.shutdown();
        assert_eq!(server.take_results().len() as u64, CLIENTS * JOBS_EACH);
    });
}

#[test]
fn shutdown_returns_a_still_queued_job_to_its_waiter() {
    // The job sits in a 200 ms batch window while its client parks in
    // `wait`; `shutdown` wakes everyone, and the drain must still run
    // the job and hand its result to the parked client.
    let spec = RequestSpec::new(RequestKind::Matmul, 16);
    let expected = direct_digest(spec, 7);
    let result = within_a_minute(move || {
        let server = SessionServer::start_real(ServeConfig {
            workers: 2,
            batch_window_s: 0.2,
            ..ServeConfig::default()
        });
        let id = server
            .submit("t", JobPayload::Step { spec, seed: 7 })
            .unwrap();
        let client = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.wait(id))
        };
        while !format!("{server:?}").contains("waiting_ids: 1") {
            std::thread::yield_now();
        }
        server.shutdown();
        client.join().unwrap()
    });
    assert!(result.error.is_none(), "{:?}", result.error);
    assert_eq!(result.digest, expected);
}
