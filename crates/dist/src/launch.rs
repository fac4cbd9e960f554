//! End-to-end distributed launch: Slurm allocation → resolver →
//! servers → one supervised process per task.
//!
//! This is the experiment driver: given a platform preset, a job list
//! and a transport, it allocates simulated nodes, resolves the cluster
//! spec (paper §III), starts a server per task and runs the supplied
//! task body — as a DES process per task in simulated mode, or as an
//! OS thread per task in real mode. The returned elapsed time is
//! virtual (simulated) or wall-clock (real).
//!
//! ## Supervision
//!
//! Task bodies return `Result`; a failure never panics the launch (on
//! host threads a panicking body is a failure like any other). One
//! supervisor, written once over [`tfhpc_sim::clock`], records every
//! task exit on either clock and, when a restart budget is configured
//! ([`SupervisorConfig::max_restarts`]), reacts to a failure with a
//! restart:
//!
//! - **Gang restart** (the default): the cluster generation is bumped
//!   (fencing stale processes with `Aborted`), every queue is aborted
//!   to unblock parked peers, fresh servers come up at the current
//!   time and all task bodies re-run — resuming from their latest
//!   checkpoint if they saved one.
//! - **Partial restart**: when every failed task belongs to a job
//!   listed in [`SupervisorConfig::partial_restart_jobs`], only the
//!   failed task(s) restart — healthy tasks keep running, the epoch is
//!   *not* bumped, and a spare node (if budgeted via
//!   [`SupervisorConfig::spare_nodes`]) replaces the failed one.
//!
//! With the budget exhausted the failed task is marked dead (peers
//! observe `Unavailable`), the gang is drained — bounded by
//! [`SupervisorConfig::drain_timeout_s`] — and [`launch`] returns the
//! error. The clocks differ only in how the launcher waits: a
//! simulated launch runs the DES to completion, a real one parks until
//! no generation has a live task, or until a fatal failure's drain
//! runs out and the stragglers are detached.
//!
//! ## Liveness
//!
//! Exit-code supervision alone cannot see a *hung* task. When
//! heartbeats are enabled (a positive
//! [`SupervisorConfig::heartbeat_timeout_s`], or the
//! `TFHPC_HEARTBEAT_TIMEOUT` env knob), every task
//! incarnation gets a heartbeat daemon (a DES process in simulated
//! mode, a thread in real mode) beating a [`Membership`] table, and a
//! monitor sweeps deadlines: silence past the timeout is a death
//! verdict routed into the same supervision paths as an exit failure.
//! Injected [`FaultPlan`] crashes, hangs and stragglers are
//! virtual-time events, so they manifest in simulated mode only — a
//! hung node's daemon stops beating, a straggler's beats stretch.

use crate::call::CallPolicy;
use crate::cluster_spec::TaskKey;
use crate::membership::{Liveness, Membership, MembershipEvent};
use crate::resolver::{resolve_with_policy, JobSpec, Resolved};
use crate::server::{Server, TfCluster};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;
use tfhpc_core::env::env_f64;
use tfhpc_core::{CoreError, Result};
use tfhpc_sim::clock::{self, Cv};
use tfhpc_sim::des::Sim;
use tfhpc_sim::fault::{FaultEvent, FaultPlan};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::Platform;
use tfhpc_sim::topology::ClusterSim;
use tfhpc_slurm::{Distribution, JobRequest, SlurmCluster};

/// Checkpoint-restart supervision policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Restarts (gang or partial) allowed before a failure becomes
    /// fatal (0 = any task failure fails the launch — the seed
    /// behavior, minus the panic).
    pub max_restarts: usize,
    /// Virtual (sim) / wall (real) seconds the supervisor waits before
    /// bringing tasks back up.
    pub restart_backoff_s: f64,
    /// Seconds the supervisor waits for surviving tasks to unwind
    /// after a fatal failure before detaching them (wall seconds in
    /// real mode, virtual in simulated mode).
    pub drain_timeout_s: f64,
    /// Heartbeat period, seconds (default 0.05). Only meaningful
    /// while detection is on.
    pub heartbeat_period_s: f64,
    /// Heartbeat silence declared a death, seconds. 0 — the default,
    /// so fault-free runs carry no detector processes — leaves
    /// liveness detection to the `TFHPC_HEARTBEAT_TIMEOUT` /
    /// `TFHPC_HEARTBEAT_PERIOD` knobs, which [`launch`] reads: off
    /// when unset.
    pub heartbeat_timeout_s: f64,
    /// Jobs whose task failures are repaired by restarting *only* the
    /// failed task (no epoch bump, healthy tasks keep running). Empty
    /// = every failure is a gang restart.
    pub partial_restart_jobs: Vec<String>,
    /// Extra nodes allocated up front; a partial restart moves the
    /// failed task onto a spare instead of its (possibly bad) node.
    pub spare_nodes: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 0,
            restart_backoff_s: 0.0,
            drain_timeout_s: 5.0,
            heartbeat_period_s: 0.05,
            heartbeat_timeout_s: 0.0,
            partial_restart_jobs: Vec::new(),
            spare_nodes: 0,
        }
    }
}

impl SupervisorConfig {
    /// Allow up to `max_restarts` restarts (no backoff).
    pub fn restarting(max_restarts: usize) -> SupervisorConfig {
        SupervisorConfig {
            max_restarts,
            ..SupervisorConfig::default()
        }
    }

    /// Enable liveness detection: beat every `period_s`, declare death
    /// after `timeout_s` of silence.
    pub fn with_heartbeats(mut self, period_s: f64, timeout_s: f64) -> SupervisorConfig {
        self.heartbeat_period_s = period_s;
        self.heartbeat_timeout_s = timeout_s;
        self
    }

    /// Repair failures of these jobs by partial restart.
    pub fn with_partial_restart<I, S>(mut self, jobs: I) -> SupervisorConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.partial_restart_jobs = jobs.into_iter().map(Into::into).collect();
        self
    }

    /// Allocate `n` spare nodes for partial-restart replacement.
    pub fn with_spares(mut self, n: usize) -> SupervisorConfig {
        self.spare_nodes = n;
        self
    }

    /// Bound the post-failure drain.
    pub fn with_drain_timeout(mut self, seconds: f64) -> SupervisorConfig {
        self.drain_timeout_s = seconds;
        self
    }
}

/// A distributed run request.
#[derive(Clone)]
pub struct LaunchConfig {
    /// Hardware platform preset.
    pub platform: Platform,
    /// Jobs to lay out (in order; each starts on a fresh node).
    pub jobs: Vec<JobSpec>,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Run on the simulated cluster (virtual time) or on host threads.
    pub simulated: bool,
    /// Injected fault schedule (crashes, hangs and stragglers fire
    /// only in simulated mode; link faults and delay spikes are
    /// evaluated lazily by remote ops, which in real mode read the
    /// clock as 0).
    pub faults: Option<Arc<FaultPlan>>,
    /// Checkpoint-restart supervision policy.
    pub supervisor: SupervisorConfig,
    /// Call policy (retries, breaker, budget) the cluster's remote
    /// calls run under.
    pub retry: CallPolicy,
}

impl LaunchConfig {
    /// Simulated-run config (no faults, no restarts, no retries).
    pub fn simulated(platform: Platform, jobs: Vec<JobSpec>, protocol: Protocol) -> LaunchConfig {
        LaunchConfig {
            platform,
            jobs,
            protocol,
            simulated: true,
            faults: None,
            supervisor: SupervisorConfig::default(),
            retry: CallPolicy::default(),
        }
    }

    /// Real-mode (host threads, wall clock) config.
    pub fn real(platform: Platform, jobs: Vec<JobSpec>, protocol: Protocol) -> LaunchConfig {
        LaunchConfig {
            simulated: false,
            ..LaunchConfig::simulated(platform, jobs, protocol)
        }
    }

    /// Install an injected fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> LaunchConfig {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Install a supervision policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> LaunchConfig {
        self.supervisor = supervisor;
        self
    }

    /// Install the call policy for remote calls.
    pub fn with_retry(mut self, retry: CallPolicy) -> LaunchConfig {
        self.retry = retry;
        self
    }
}

/// Context handed to each task body.
pub struct TaskCtx {
    /// This task's server.
    pub server: Arc<Server>,
    /// This task's identity.
    pub key: TaskKey,
    /// GPU ids visible to this task.
    pub gpu_ids: Vec<usize>,
    /// The launch's start on the task's clock (0 in a simulation).
    start: f64,
    attempt: u64,
}

impl TaskCtx {
    /// Job name.
    pub fn job(&self) -> &str {
        &self.key.job
    }

    /// Task index within the job.
    pub fn index(&self) -> usize {
        self.key.index
    }

    /// Number of tasks in `job`.
    pub fn num_tasks(&self, job: &str) -> usize {
        self.server.cluster().spec.num_tasks(job)
    }

    /// Which incarnation this body is: 0 on the first start, bumped by
    /// every restart of *this task* (gang restarts bump every task,
    /// partial restarts only the failed one). Bodies use this to
    /// decide whether to resume from a checkpoint.
    pub fn attempt(&self) -> u64 {
        self.attempt
    }

    /// Poll the failure plane: `Err(Aborted)` when this task's
    /// incarnation is fenced off (superseded by a gang or partial
    /// restart, or its node crashed per the injected fault plan), and
    /// a *hang* parks the caller until a fencing verdict unwinds it.
    /// Long compute loops call this once per iteration so an injected
    /// fault is observed even between remote operations.
    pub fn check_faults(&self) -> Result<()> {
        self.server.check_alive()
    }

    /// Current injected slowdown factor for this task's node (1.0 =
    /// healthy). Compute loops multiply their virtual work time by
    /// this so a straggler window stretches compute as well as
    /// transfers.
    pub fn straggler_factor(&self) -> f64 {
        let Ok(cluster) = self.server.try_cluster() else {
            return 1.0;
        };
        let Some(plan) = cluster.faults() else {
            return 1.0;
        };
        plan.straggler_factor(self.server.node, self.now())
    }

    /// Seconds since launch: virtual time in simulated mode, wall time
    /// otherwise.
    pub fn now(&self) -> f64 {
        clock::now() - self.start
    }
}

/// How one task body invocation ended.
#[derive(Debug, Clone)]
pub struct TaskExit {
    /// Task identity.
    pub key: TaskKey,
    /// Gang generation the body ran under.
    pub generation: u64,
    /// Per-task incarnation counter the body ran as.
    pub attempt: u64,
    /// `None` on success, the error text otherwise.
    pub error: Option<String>,
}

/// Result of a distributed run.
pub struct Launched {
    /// Total elapsed seconds (virtual or wall).
    pub elapsed_s: f64,
    /// Resolver output (spec + placements).
    pub resolved: Resolved,
    /// The DES, for counter inspection (simulated runs only).
    pub sim: Option<Arc<Sim>>,
    /// The runtime cluster (servers remain queryable after the run).
    pub cluster: Arc<TfCluster>,
    /// Every recorded task body exit, in completion order (includes
    /// failed attempts that were later restarted).
    pub task_exits: Vec<TaskExit>,
    /// Restarts (gang + partial) the supervisor performed.
    pub restarts: usize,
    /// The liveness table, when heartbeats were enabled — carries the
    /// full transition audit log (detection latencies, MTTR).
    pub membership: Option<Arc<Membership>>,
    /// Partial-restart node replacements: (task, old node, spare).
    pub replacements: Vec<(TaskKey, usize, usize)>,
}

/// Nodes needed for `jobs` at `tasks_per_node`, one fresh start per job.
pub fn nodes_needed(jobs: &[JobSpec], tasks_per_node: usize) -> usize {
    jobs.iter()
        .map(|j| j.tasks.div_ceil(tasks_per_node.max(1)))
        .sum()
}

/// Run `body` once per task across a freshly-allocated cluster.
pub fn launch<F>(cfg: &LaunchConfig, body: F) -> Result<Launched>
where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    launch_with_setup(cfg, |_| {}, body)
}

/// [`launch`] with a setup hook that runs once (outside virtual time)
/// after servers exist but before any task body starts — used to
/// pre-populate shared tile stores, mirroring the paper's offline
/// tile pre-processing step which is excluded from measurements.
pub fn launch_with_setup<S, F>(cfg: &LaunchConfig, setup: S, body: F) -> Result<Launched>
where
    S: FnOnce(&Arc<TfCluster>),
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    launch_inner(cfg, setup, body, false)
}

/// [`launch_with_setup`] with DES occupancy tracing enabled — the
/// returned `Launched::sim` then carries a Fig. 3-style execution
/// trace (`Sim::trace`).
pub fn launch_traced<S, F>(cfg: &LaunchConfig, setup: S, body: F) -> Result<Launched>
where
    S: FnOnce(&Arc<TfCluster>),
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    launch_inner(cfg, setup, body, true)
}

fn observe_detection(silent_for_s: f64) {
    tfhpc_obs::global()
        .histogram_with(
            "tfhpc_detection_latency_seconds",
            &[],
            &tfhpc_obs::metrics::duration_buckets(),
        )
        .observe(silent_for_s);
}

fn observe_mttr(seconds: f64) {
    tfhpc_obs::global()
        .histogram_with(
            "tfhpc_mttr_seconds",
            &[],
            &tfhpc_obs::metrics::duration_buckets(),
        )
        .observe(seconds);
}

/// Shared supervisor state for one launch, on either clock.
struct SupShared<F> {
    /// The simulation the launch runs in; `None` on host threads.
    sim: Option<Arc<Sim>>,
    cluster: Arc<TfCluster>,
    /// (key, node, gpu_ids) per task — the gang roster. Mutable:
    /// partial restarts may move a task onto a spare node.
    tasks: Mutex<Vec<(TaskKey, usize, Vec<usize>)>>,
    body: F,
    sup: SupervisorConfig,
    /// The launch's start on its clock (0 in a simulation).
    start: f64,
    state: Mutex<SupState>,
    /// Liveness table (None = heartbeats disabled).
    membership: Option<Arc<Membership>>,
    /// Signalled, with `state`, on every task exit and supervision
    /// verdict: wakes the heartbeat/monitor daemons out of their period
    /// waits to re-check their exit conditions, and a real-mode
    /// launcher out of its wait for the gang to drain.
    cv: Cv,
    /// The workload manager, retained so partial restarts can draw
    /// spare nodes from it.
    slurm: Mutex<SlurmCluster>,
}

#[derive(Default)]
struct SupState {
    /// Current gang generation; task failures from older generations
    /// are collateral of a restart already in flight, not new faults.
    generation: u64,
    restarts_used: usize,
    /// Fatal failures (budget exhausted) — non-empty fails the launch.
    failures: Vec<String>,
    /// When a real-mode launcher stops waiting for the drain that the
    /// first fatal failure started.
    drain_deadline: Option<f64>,
    exits: Vec<TaskExit>,
    /// Current incarnation counter per task; a failure report carrying
    /// a stale attempt is collateral of a partial restart in flight.
    attempts: HashMap<TaskKey, u64>,
    /// Task bodies still running, per generation — daemons exit when
    /// their generation's count reaches zero.
    live: HashMap<u64, usize>,
    /// Partial-restart node replacements: (task, old node, spare).
    replacements: Vec<(TaskKey, usize, usize)>,
}

enum SupAction {
    Gang(u64),
    /// (key, new attempt) per task to restart in place.
    Partial(Vec<(TaskKey, u64)>),
    Fatal(Vec<TaskKey>),
}

impl<F> SupShared<F>
where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    /// Seconds since launch on the launch's clock.
    fn now(&self) -> f64 {
        clock::now() - self.start
    }

    /// Park a liveness daemon, releasing `st`, until `next` or a
    /// notify. True once `next` has come (its periodic action is due);
    /// false when a notify came first, so it re-checks its exit
    /// conditions.
    fn due(&self, st: MutexGuard<'_, SupState>, next: f64) -> bool {
        let now = self.now();
        now + 1e-12 >= next || self.cv.wait_until(&self.state, st, next, now).1
    }

    /// Run one body incarnation; the error text when it failed. On a
    /// thread a panic is the task's failure; a panicking simulated
    /// process aborts the run with the DES dump instead, because the
    /// DES unwinds its processes itself.
    fn run_body(&self, ctx: TaskCtx) -> Option<String> {
        let body = std::panic::AssertUnwindSafe(|| (self.body)(ctx));
        let ran = match self.sim {
            Some(_) => Ok(body()),
            None => std::panic::catch_unwind(body),
        };
        match ran {
            Ok(result) => result.err().map(|e| e.to_string()),
            Err(panic) => {
                let text = (panic.downcast_ref::<&str>().copied())
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
                Some(format!(
                    "panicked: {}",
                    text.unwrap_or("<non-string panic>")
                ))
            }
        }
    }

    /// The supervisor's verdict on a failure observed at `generation`,
    /// taken under the state lock: restart (gang, or partial when
    /// policy allows) while budget remains, else fatal. `failed`
    /// carries the incarnation each report is about — stale attempts
    /// are collateral of a repair already in flight, and yield `None`.
    fn decide(
        &self,
        st: &mut SupState,
        generation: u64,
        what: &str,
        failed: &[(TaskKey, u64)],
    ) -> Option<SupAction> {
        if generation != st.generation {
            // Collateral of a gang restart already in flight.
            return None;
        }
        let fresh: Vec<(TaskKey, u64)> = failed
            .iter()
            .filter(|(k, a)| st.attempts.get(k).copied() == Some(*a) && !self.cluster.is_dead(k))
            .cloned()
            .collect();
        if fresh.is_empty() {
            return None;
        }
        if st.restarts_used >= self.sup.max_restarts {
            st.failures.push(what.to_string());
            let deadline = self.now() + self.sup.drain_timeout_s;
            st.drain_deadline.get_or_insert(deadline);
            return Some(SupAction::Fatal(
                fresh.into_iter().map(|(k, _)| k).collect(),
            ));
        }
        st.restarts_used += 1;
        tfhpc_obs::global()
            .counter("tfhpc_supervisor_restarts_total")
            .inc();
        let partial_ok = !self.sup.partial_restart_jobs.is_empty()
            && fresh
                .iter()
                .all(|(k, _)| self.sup.partial_restart_jobs.contains(&k.job));
        if !partial_ok {
            st.generation += 1;
            return Some(SupAction::Gang(st.generation));
        }
        let repl: Vec<(TaskKey, u64)> = fresh
            .iter()
            .map(|(k, _)| {
                let a = st.attempts.entry(k.clone()).or_insert(0);
                *a += 1;
                (k.clone(), *a)
            })
            .collect();
        *st.live.entry(generation).or_insert(0) += repl.len();
        Some(SupAction::Partial(repl))
    }
}

/// Record one body exit and (for current incarnations that exited
/// cleanly) retire its membership entry; failures escalate to the
/// supervisor.
fn finish_task<F>(
    sh: &Arc<SupShared<F>>,
    key: &TaskKey,
    generation: u64,
    attempt: u64,
    error: Option<String>,
) where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let what = error.as_ref().map(|e| format!("{key}: {e}"));
    let (is_current, action) = {
        let mut st = sh.state.lock();
        st.exits.push(TaskExit {
            key: key.clone(),
            generation,
            attempt,
            error: error.clone(),
        });
        if let Some(n) = st.live.get_mut(&generation) {
            *n = n.saturating_sub(1);
        }
        let is_current =
            st.generation == generation && st.attempts.get(key).copied() == Some(attempt);
        // Decided under the lock that retires the exit, so a real-mode
        // launcher never sees a drained gang whose failure is unjudged.
        let action = (what.as_deref())
            .and_then(|w| sh.decide(&mut st, generation, w, &[(key.clone(), attempt)]));
        (is_current, action)
    };
    if error.is_none() && is_current {
        if let Some(m) = &sh.membership {
            m.left(key, sh.now());
        }
    }
    sh.cv.notify_all();
    if let (Some(what), Some(action)) = (what, action) {
        act(sh, generation, what, action);
    }
}

/// Spawn one task body incarnation on the launch's clock.
fn spawn_task<F>(
    shared: &Arc<SupShared<F>>,
    generation: u64,
    key: TaskKey,
    gpus: Vec<usize>,
    attempt: u64,
) where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let sh = Arc::clone(shared);
    let name = if generation == 0 && attempt == 0 {
        key.to_string()
    } else {
        format!("{key}@g{generation}.a{attempt}")
    };
    let track = name.clone();
    clock::spawn_on(shared.sim.as_ref(), &name, move || {
        // One trace track per incarnation so a restarted task gets its
        // own lane in the viewer.
        tfhpc_obs::set_track(&track);
        let error = match sh.cluster.server(&key) {
            Ok(server) => sh.run_body(TaskCtx {
                server,
                key: key.clone(),
                gpu_ids: gpus,
                start: sh.start,
                attempt,
            }),
            Err(e) => Some(e.to_string()),
        };
        finish_task(&sh, &key, generation, attempt, error);
    });
}

/// Spawn the heartbeat daemon for one task incarnation. The daemon
/// beats the membership table every period; an injected hang silences
/// it (that silence *is* the detection signal) and a straggler window
/// stretches its period. It exits when its incarnation is superseded,
/// its task exits, or its generation fully drains.
fn spawn_heartbeat<F>(
    shared: &Arc<SupShared<F>>,
    generation: u64,
    key: TaskKey,
    node: usize,
    attempt: u64,
) where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let Some(m) = shared.membership.clone() else {
        return;
    };
    let sh = Arc::clone(shared);
    let name = format!("hb:{key}@g{generation}.a{attempt}");
    clock::spawn_on(shared.sim.as_ref(), &name, move || {
        let epoch = sh.cluster.epoch();
        let born = sh.now();
        // Injected faults are virtual-time events.
        let plan = sh.sim.as_ref().and_then(|_| sh.cluster.faults());
        let period = m.period_s().max(1e-6);
        let mut next = born + period;
        loop {
            let st = sh.state.lock();
            if st.generation != generation
                || st.attempts.get(&key).copied() != Some(attempt)
                || st.live.get(&generation).copied().unwrap_or(0) == 0
                || st
                    .exits
                    .iter()
                    .any(|e| e.attempt == attempt && e.generation == generation && e.key == key)
                || matches!(
                    m.state(&key),
                    None | Some(Liveness::Dead) | Some(Liveness::Left)
                )
            {
                return;
            }
            if !sh.due(st, next) {
                continue;
            }
            let now = sh.now();
            if let Some(p) = &plan {
                // The hang: this "process" goes silent. No beat, ever
                // again — the monitor's deadline sweep does the rest.
                if p.hung(node, born, now) {
                    return;
                }
                // A minority partition: beats from this node can't
                // reach the (majority-side) monitor, so skip them —
                // the deadline sweep declares the task dead, exactly
                // as the majority observes it. Keep looping: if the
                // partition heals before supervision supersedes this
                // attempt, beats resume and the task rejoins.
                if p.has_partition_events() && !sh.cluster.has_quorum(node, now) {
                    next = now + period;
                    continue;
                }
            }
            m.heartbeat(&key, epoch, now);
            let stretch = plan
                .as_ref()
                .map(|p| p.straggler_factor(node, now))
                .unwrap_or(1.0);
            next = now + period * stretch.max(1.0);
        }
    });
}

/// Spawn the per-generation liveness monitor: sweeps the membership
/// table every period and routes death verdicts into [`supervise`].
fn spawn_monitor<F>(shared: &Arc<SupShared<F>>, generation: u64)
where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let Some(m) = shared.membership.clone() else {
        return;
    };
    let sh = Arc::clone(shared);
    let name = format!("liveness-monitor@g{generation}");
    clock::spawn_on(shared.sim.as_ref(), &name, move || {
        let period = m.period_s().max(1e-6);
        let mut next = sh.now() + period;
        loop {
            let st = sh.state.lock();
            if st.generation != generation || st.live.get(&generation).copied().unwrap_or(0) == 0 {
                return;
            }
            if !sh.due(st, next) {
                continue;
            }
            let dead: Vec<MembershipEvent> = m
                .sweep(sh.now())
                .into_iter()
                .filter(|e| e.to == Liveness::Dead)
                .collect();
            if !dead.is_empty() {
                for ev in &dead {
                    observe_detection(ev.silent_for_s);
                    tfhpc_obs::global()
                        .counter("tfhpc_liveness_deaths_total")
                        .inc();
                }
                let failed: Vec<(TaskKey, u64)> = {
                    let st = sh.state.lock();
                    dead.iter()
                        .filter_map(|e| st.attempts.get(&e.key).map(|a| (e.key.clone(), *a)))
                        .collect()
                };
                let names: Vec<String> = dead.iter().map(|e| e.key.to_string()).collect();
                supervise(
                    &sh,
                    generation,
                    format!(
                        "{} declared dead after {:.3}s of heartbeat silence",
                        names.join(", "),
                        dead[0].silent_for_s
                    ),
                    &failed,
                );
            }
            next = sh.now() + period;
        }
    });
}

/// Start (or restart) every task of `generation`: fresh servers for
/// restarts, then one process or thread per task (plus its heartbeat
/// daemon and the generation's liveness monitor when heartbeats are
/// on).
fn start_generation<F>(shared: &Arc<SupShared<F>>, generation: u64)
where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let roster = shared.tasks.lock().clone();
    if generation > 0 {
        for (key, node, gpus) in &roster {
            shared
                .cluster
                .start_server(key.clone(), *node, gpus.clone());
        }
    }
    let attempts: Vec<u64> = {
        let mut st = shared.state.lock();
        st.live.insert(generation, roster.len());
        roster
            .iter()
            .map(|(key, _, _)| {
                let a = st
                    .attempts
                    .entry(key.clone())
                    .and_modify(|a| *a += 1)
                    .or_insert(0);
                *a
            })
            .collect()
    };
    if let Some(m) = &shared.membership {
        // Generation 0 starts at time 0, from the launcher's thread.
        let now = if generation == 0 { 0.0 } else { shared.now() };
        let epoch = shared.cluster.epoch();
        for (key, _, _) in &roster {
            if generation == 0 {
                m.join(key, now);
            } else if let Some(dead_for) = m.restarted(key, epoch, now) {
                observe_mttr(dead_for);
            }
        }
    }
    for ((key, node, gpus), attempt) in roster.into_iter().zip(attempts) {
        spawn_task(shared, generation, key.clone(), gpus, attempt);
        spawn_heartbeat(shared, generation, key, node, attempt);
    }
    spawn_monitor(shared, generation);
}

/// Draw one spare node from the retained allocation; `None` when the
/// spare pool is exhausted (the task then restarts in place).
fn draw_spare<F>(shared: &Arc<SupShared<F>>) -> Option<usize> {
    let mut slurm = shared.slurm.lock();
    let alloc = slurm
        .submit(&JobRequest {
            nodes: 1,
            ntasks: 1,
            distribution: Distribution::Block,
            gpus_per_task: 0,
        })
        .ok()?;
    // Hostnames are "t01nNN" with NN = global node index + 1.
    let host = alloc.hosts.first()?;
    let digits: String = host.chars().skip_while(|c| !c.is_ascii_digit()).collect();
    let tail = digits.rsplit(|c: char| !c.is_ascii_digit()).next()?;
    tail.parse::<usize>().ok().and_then(|n| n.checked_sub(1))
}

/// React to a failure observed at `generation`: decide, then act on
/// the verdict. Runs on the launch's clock — in the failing task, a
/// fault daemon or the liveness monitor.
fn supervise<F>(
    shared: &Arc<SupShared<F>>,
    generation: u64,
    what: String,
    failed: &[(TaskKey, u64)],
) where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let action = shared.decide(&mut shared.state.lock(), generation, &what, failed);
    if let Some(action) = action {
        act(shared, generation, what, action);
    }
}

/// Carry out a supervision verdict: restart the gang or the failed
/// tasks, or mark the culprits dead and drain the gang.
fn act<F>(shared: &Arc<SupShared<F>>, generation: u64, what: String, action: SupAction)
where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let backoff = shared.sup.restart_backoff_s;
    match action {
        SupAction::Gang(gen) => {
            // Fence the old generation, wake everything it parked, and
            // bring the gang back up at the current time.
            shared.cluster.advance_epoch();
            shared.cluster.abort_all(CoreError::Aborted(format!(
                "gang restart (generation {gen}): {what}"
            )));
            shared.cluster.clear_dead();
            shared.cluster.notify_hang_gate();
            shared.cv.notify_all();
            clock::sleep(backoff);
            start_generation(shared, gen);
        }
        SupAction::Partial(repl) => {
            tfhpc_obs::global()
                .counter("tfhpc_partial_restarts_total")
                .inc();
            // Transient death mark: peers touching the failed task see
            // retryable `Unavailable` until its replacement server
            // comes up (start_server clears the mark).
            for (key, _) in &repl {
                shared.cluster.mark_dead(key, &what);
            }
            clock::sleep(backoff);
            let epoch = shared.cluster.epoch();
            let now = shared.now();
            for (key, attempt) in repl {
                let placement = {
                    let mut roster = shared.tasks.lock();
                    roster.iter_mut().find(|(k, _, _)| *k == key).map(|entry| {
                        let old = entry.1;
                        let moved = draw_spare(shared);
                        if let Some(spare) = moved {
                            entry.1 = spare;
                        }
                        (old, entry.1, entry.2.clone())
                    })
                };
                let Some((old_node, node, gpus)) = placement else {
                    continue;
                };
                if node != old_node {
                    shared
                        .state
                        .lock()
                        .replacements
                        .push((key.clone(), old_node, node));
                }
                shared.cluster.start_server(key.clone(), node, gpus.clone());
                if let Some(m) = &shared.membership {
                    if let Some(dead_for) = m.restarted(&key, epoch, now) {
                        observe_mttr(dead_for);
                    }
                }
                spawn_task(shared, generation, key.clone(), gpus, attempt);
                spawn_heartbeat(shared, generation, key, node, attempt);
            }
            // A hung corpse of the replaced incarnation wakes here,
            // observes it is no longer current and unwinds `Aborted`.
            shared.cluster.notify_hang_gate();
            shared.cv.notify_all();
        }
        SupAction::Fatal(fresh) => {
            for k in &fresh {
                shared.cluster.mark_dead(k, &what);
            }
            shared.cluster.abort_all(CoreError::Unavailable(format!(
                "gang draining after fatal failure: {what}"
            )));
            shared.cluster.notify_hang_gate();
            shared.cv.notify_all();
            // Bounded drain: anything still parked after the timeout
            // (a task that re-blocked after the abort broadcast) gets
            // swept again so the simulation cannot deadlock.
            let t = shared.sup.drain_timeout_s;
            if t > 0.0 {
                let sh = Arc::clone(shared);
                let name = format!("drain-watchdog@g{generation}");
                clock::spawn_on(shared.sim.as_ref(), &name, move || {
                    clock::sleep(t);
                    sh.cluster.abort_all(CoreError::Unavailable(format!(
                        "drain timed out after {t}s"
                    )));
                    sh.cluster.notify_hang_gate();
                    sh.cv.notify_all();
                });
            }
        }
    }
}

/// Fault-daemon body: at the scheduled instant, fail every
/// current-generation task hosted on the crashed node. Runs as its own
/// sim process so a crash fires at exactly `at_s` even when every task
/// is parked (push-based injection — no poll required).
fn crash_node<F>(shared: &Arc<SupShared<F>>, node: usize, at_s: f64)
where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let generation = {
        let st = shared.state.lock();
        // A gang that already fully exited has nothing left to crash.
        if st.live.get(&st.generation).copied().unwrap_or(0) == 0 {
            return;
        }
        st.generation
    };
    let roster = shared.tasks.lock().clone();
    let mut hit = Vec::new();
    for (key, n, _) in &roster {
        if *n != node {
            continue;
        }
        if let Ok(server) = shared.cluster.server(key) {
            // Only incarnations born strictly before the crash die; a
            // server restarted at/after `at_s` runs on the "rebooted"
            // node.
            if server.born_at() < at_s && server.epoch() == shared.cluster.epoch() {
                hit.push(key.clone());
            }
        }
    }
    if hit.is_empty() {
        return;
    }
    let failed: Vec<(TaskKey, u64)> = {
        let st = shared.state.lock();
        hit.into_iter()
            .filter_map(|k| st.attempts.get(&k).map(|a| (k.clone(), *a)))
            .collect()
    };
    if failed.is_empty() {
        return;
    }
    supervise(
        shared,
        generation,
        format!("node {node} crashed at t={at_s:.6} (injected)"),
        &failed,
    );
}

/// How a real-mode launch waits (a simulated one runs the DES to
/// completion instead): until no generation has a live task, or until
/// the drain a fatal failure started runs out — the stragglers are then
/// detached. Returns the elapsed seconds.
fn await_drain<F>(sh: &SupShared<F>) -> f64
where
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let mut st = sh.state.lock();
    loop {
        // A gang restart in flight has bumped the generation but not
        // yet started it.
        if st.live.contains_key(&st.generation) && st.live.values().all(|&n| n == 0) {
            break;
        }
        let now = sh.now();
        st = match st.drain_deadline {
            None => sh.cv.wait(&sh.state, st),
            Some(d) if now < d => sh.cv.wait_until(&sh.state, st, d, now).0,
            Some(_) => {
                let stuck: usize = st.live.values().sum();
                st.failures.push(format!(
                    "{stuck} task(s) still blocked after failure; detached"
                ));
                // With no generation left live, the daemons stop.
                st.live.clear();
                drop(st);
                sh.cv.notify_all();
                break;
            }
        };
    }
    sh.now()
}

/// The heartbeat `(period, timeout)` a launch runs under: the
/// config's when it switches detection on, else the
/// `TFHPC_HEARTBEAT_*` knobs' (timeout 0 = off when unset). A
/// malformed knob fails the launch either way.
fn heartbeat_policy(sup: &SupervisorConfig) -> Result<(f64, f64)> {
    let period = env_f64("TFHPC_HEARTBEAT_PERIOD")?;
    let timeout = env_f64("TFHPC_HEARTBEAT_TIMEOUT")?;
    Ok(if sup.heartbeat_timeout_s > 0.0 {
        (sup.heartbeat_period_s, sup.heartbeat_timeout_s)
    } else {
        (
            period.unwrap_or(sup.heartbeat_period_s),
            timeout.unwrap_or(0.0),
        )
    })
}

fn launch_inner<S, F>(cfg: &LaunchConfig, setup: S, body: F, trace: bool) -> Result<Launched>
where
    S: FnOnce(&Arc<TfCluster>),
    F: Fn(TaskCtx) -> Result<()> + Send + Sync + 'static,
{
    let (hb_period_s, hb_timeout_s) = heartbeat_policy(&cfg.supervisor)?;
    let tasks_per_node = cfg.platform.node.tf_instances_per_node.max(1);
    let n_nodes = nodes_needed(&cfg.jobs, tasks_per_node);
    if n_nodes == 0 {
        return Err(CoreError::Invalid("no tasks requested".into()));
    }
    let spare_nodes = cfg.supervisor.spare_nodes;

    // Allocate through the simulated workload manager (spares are part
    // of the reservation but carry no tasks until a partial restart
    // claims one).
    let mut slurm = SlurmCluster::for_platform(&cfg.platform, n_nodes + spare_nodes);
    let total_tasks: usize = cfg.jobs.iter().map(|j| j.tasks).sum();
    let alloc = slurm
        .submit(&JobRequest {
            nodes: n_nodes,
            ntasks: total_tasks,
            distribution: Distribution::Plane(tasks_per_node),
            gpus_per_task: 0,
        })
        .map_err(|e| CoreError::Invalid(format!("slurm: {e}")))?;

    // Resolve the TensorFlow cluster spec (the paper's resolver).
    let resolved =
        resolve_with_policy(&alloc, &cfg.jobs, tasks_per_node, true).map_err(CoreError::Invalid)?;

    // Check GPU feasibility ("insufficient number of GPUs available").
    for t in &resolved.tasks {
        if let Some(max) = t.gpu_ids.iter().max() {
            if *max >= cfg.platform.node.gpus_per_node {
                return Err(CoreError::Invalid(format!(
                    "task {} needs GPU {} but nodes have {}",
                    t.key, max, cfg.platform.node.gpus_per_node
                )));
            }
        }
    }

    // Instantiate hardware and the runtime cluster.
    let sim = cfg.simulated.then(Sim::new);
    if trace {
        if let Some(s) = &sim {
            s.enable_tracing();
        }
        // Traced launches also record structured scopes (nested spans,
        // queue flows) on the process-wide tracer.
        tfhpc_obs::trace::global().enable();
    }
    let cluster_sim = sim.as_ref().map(|s| {
        Arc::new(ClusterSim::new(
            s,
            cfg.platform.clone(),
            n_nodes + spare_nodes,
        ))
    });
    let cluster = TfCluster::new(resolved.spec.clone(), cfg.protocol, cluster_sim);
    cluster.set_faults(cfg.faults.clone());
    cluster.set_call_policy(cfg.retry.clone());

    let membership = (hb_timeout_s > 0.0)
        .then(|| Arc::new(Membership::new(hb_period_s.max(1e-6), hb_timeout_s)));

    for t in &resolved.tasks {
        cluster.start_server(t.key.clone(), t.node_index, t.gpu_ids.clone());
    }

    setup(&cluster);

    let cv = match &sim {
        Some(sim) => {
            let cv = Cv::on(sim, "supervisor");
            // The hang gate exists only alongside liveness detection:
            // without a detector nobody would ever unpark a hung task,
            // so hangs then degrade to crash-style aborts instead.
            if membership.is_some() {
                cluster.set_hang_gate(Some(sim.condvar("hang-gate")));
            }
            cv
        }
        None => Cv::Real(Condvar::new()),
    };
    let shared = Arc::new(SupShared {
        sim: sim.clone(),
        cluster: Arc::clone(&cluster),
        tasks: Mutex::new(
            resolved
                .tasks
                .iter()
                .map(|t| (t.key.clone(), t.node_index, t.gpu_ids.clone()))
                .collect(),
        ),
        body,
        sup: cfg.supervisor.clone(),
        start: if sim.is_some() { 0.0 } else { clock::now() },
        state: Mutex::new(SupState::default()),
        membership: membership.clone(),
        cv,
        slurm: Mutex::new(slurm),
    });
    start_generation(&shared, 0);
    let elapsed_s = match &sim {
        Some(sim) => {
            // One fault daemon per scheduled crash: fires the failure at
            // the exact virtual instant even if every task is parked.
            for ev in cfg.faults.iter().flat_map(|plan| &plan.events) {
                if let FaultEvent::NodeCrash { node, at_s } = *ev {
                    let sh = Arc::clone(&shared);
                    sim.spawn(&format!("fault-daemon:node{node}"), move || {
                        clock::sleep(at_s);
                        crash_node(&sh, node, at_s);
                    });
                }
            }
            sim.run()
        }
        None => await_drain(&shared),
    };
    let mut st = shared.state.lock();
    if !st.failures.is_empty() {
        return Err(CoreError::Invalid(st.failures.join("; ")));
    }
    Ok(Launched {
        elapsed_s,
        resolved,
        sim,
        cluster,
        task_exits: std::mem::take(&mut st.exits),
        restarts: st.restarts_used,
        membership,
        replacements: std::mem::take(&mut st.replacements),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_sim::platform;
    use tfhpc_tensor::Tensor;

    /// Each clock with the unit its test schedules run in: seconds in a
    /// simulation, hundredths of a second on host threads.
    const CLOCKS: [(bool, f64); 2] = [(true, 1.0), (false, 0.01)];

    /// `n` one-GPU workers, simulated or on host threads.
    fn workers(n: usize, simulated: bool) -> LaunchConfig {
        let jobs = vec![JobSpec::new("worker", n, 1)];
        let cfg = LaunchConfig::simulated(platform::tegner_k420(), jobs, Protocol::Rdma);
        LaunchConfig { simulated, ..cfg }
    }

    fn gen1_ok(out: &Launched) -> usize {
        let exits = out.task_exits.iter();
        exits
            .filter(|e| e.generation == 1 && e.error.is_none())
            .count()
    }

    #[test]
    fn nodes_needed_per_job_fresh() {
        let jobs = vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 4, 1)];
        // Kebnekaise K80: 4 instances/node → 1 + 1 nodes.
        assert_eq!(nodes_needed(&jobs, 4), 2);
        // Tegner K420: 1 instance/node → 1 + 4 nodes.
        assert_eq!(nodes_needed(&jobs, 1), 5);
    }

    #[test]
    fn simulated_launch_runs_every_task() {
        let cfg = LaunchConfig::simulated(
            platform::tegner_k80(),
            vec![JobSpec::new("worker", 4, 1)],
            Protocol::Rdma,
        );
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let out = launch(&cfg, move |ctx| {
            assert_eq!(ctx.job(), "worker");
            assert_eq!(ctx.attempt(), 0);
            c2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            // Spend some virtual time.
            clock::sleep(1.0 + ctx.index() as f64);
            Ok(())
        })
        .unwrap();
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 4);
        // Slowest task advanced 4 seconds.
        assert!((out.elapsed_s - 4.0).abs() < 1e-9);
        assert_eq!(out.resolved.spec.num_tasks("worker"), 4);
        assert_eq!(out.task_exits.len(), 4);
        assert!(out.task_exits.iter().all(|e| e.error.is_none()));
        assert_eq!(out.restarts, 0);
        assert!(out.membership.is_none());
    }

    #[test]
    fn real_launch_measures_wall_time() {
        let out = launch(&workers(2, false), |_ctx| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(())
        })
        .unwrap();
        assert!(out.elapsed_s >= 0.01);
        assert!(out.sim.is_none());
    }

    #[test]
    fn body_error_fails_launch_without_panicking() {
        for (simulated, _) in CLOCKS {
            let result = launch(&workers(2, simulated), |ctx| {
                if ctx.index() == 1 {
                    Err(CoreError::Invalid("intentional".into()))
                } else {
                    Ok(())
                }
            });
            match result {
                Err(CoreError::Invalid(msg)) => assert!(msg.contains("intentional"), "{msg}"),
                other => panic!(
                    "expected launch to surface the task error, got {:?}",
                    other.map(|l| l.elapsed_s)
                ),
            }
        }
    }

    #[test]
    fn supervisor_restarts_failed_gang() {
        for (simulated, unit) in CLOCKS {
            let cfg = workers(2, simulated).with_supervisor(SupervisorConfig {
                max_restarts: 2,
                restart_backoff_s: 0.5 * unit,
                ..SupervisorConfig::default()
            });
            let out = launch(&cfg, move |ctx| {
                clock::sleep(unit);
                // First incarnation of worker 0 fails; all later ones work.
                if ctx.index() == 0 && ctx.attempt() == 0 {
                    return Err(CoreError::Aborted("simulated fault".into()));
                }
                Ok(())
            })
            .unwrap();
            assert_eq!((out.restarts, out.cluster.epoch()), (1, 1));
            // Gen 0: one failure + possibly one clean sibling; gen 1: two Ok.
            assert_eq!(gen1_ok(&out), 2, "{:?}", out.task_exits);
            if simulated {
                // Failure at t=1.0 + 0.5 backoff + 1.0 rerun.
                assert!((out.elapsed_s - 2.5).abs() < 1e-9, "{}", out.elapsed_s);
            }
        }
    }

    #[test]
    fn injected_crash_restarts_at_exact_virtual_time() {
        let cfg = workers(2, true)
            .with_faults(FaultPlan::new().crash(1, 0.25))
            .with_supervisor(SupervisorConfig::restarting(1));
        let out = launch(&cfg, |ctx| {
            // Park both workers past the crash instant; the fault
            // daemon must fire mid-sleep and gang-restart.
            clock::sleep(1.0);
            ctx.check_faults()?;
            Ok(())
        })
        .unwrap();
        assert_eq!(out.restarts, 1);
        // Restart at t=0.25 + 1.0 rerun.
        assert!((out.elapsed_s - 1.25).abs() < 1e-9, "{}", out.elapsed_s);
        assert_eq!(gen1_ok(&out), 2, "{:?}", out.task_exits);
    }

    #[test]
    fn crash_without_budget_fails_launch() {
        let cfg = workers(2, true).with_faults(FaultPlan::new().crash(1, 0.25));
        let result = launch(&cfg, |ctx| {
            clock::sleep(1.0);
            ctx.check_faults()?;
            Ok(())
        });
        match result {
            Err(e) => assert!(e.to_string().contains("crashed"), "{e}"),
            Ok(_) => panic!("expected the crash to fail the launch"),
        }
    }

    #[test]
    fn insufficient_gpus_detected() {
        // Tegner K420 nodes have 1 GPU; asking 2 GPUs per task fails.
        let cfg = LaunchConfig::simulated(
            platform::tegner_k420(),
            vec![JobSpec::new("worker", 1, 2)],
            Protocol::Rdma,
        );
        assert!(launch(&cfg, |_| Ok(())).is_err());
    }

    #[test]
    fn cross_task_communication_in_sim() {
        // ps + 2 workers: workers push into a ps variable.
        let cfg = LaunchConfig::simulated(
            platform::tegner_k420(),
            vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 2, 1)],
            Protocol::Rdma,
        );
        let out = launch(&cfg, |ctx| {
            let ps = TaskKey::new("ps", 0);
            if ctx.job() == "ps" {
                ctx.server
                    .resources
                    .create_variable("acc", Tensor::scalar_f64(0.0));
                // ps stays alive long enough to receive (barrier-free
                // model: variable exists from t=0 since creation is at
                // virtual time 0 before any worker sends at t>0).
                Ok(())
            } else {
                clock::sleep(0.001 * (ctx.index() + 1) as f64);
                ctx.server
                    .remote_assign_add(&ps, "acc", &Tensor::scalar_f64(1.0), None, None)?;
                Ok(())
            }
        })
        .unwrap();
        let ps = out.cluster.server(&TaskKey::new("ps", 0)).unwrap();
        assert_eq!(
            ps.resources
                .variable("acc")
                .unwrap()
                .read()
                .scalar_value_f64()
                .unwrap(),
            2.0
        );
    }

    #[test]
    fn hang_is_detected_by_heartbeats_and_gang_restarted() {
        // Worker 1's node hangs at t=0.3: its heartbeat daemon goes
        // silent (last beat 0.25) and the monitor's next sweep past
        // last_beat + timeout declares it dead (~0.5) and gang-restarts.
        let cfg = workers(2, true)
            .with_faults(FaultPlan::new().hang(1, 0.3))
            .with_supervisor(SupervisorConfig::restarting(1).with_heartbeats(0.05, 0.2));
        let out = launch(&cfg, |ctx| {
            for _ in 0..10 {
                clock::sleep(0.1);
                ctx.check_faults()?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(out.restarts, 1);
        assert_eq!(gen1_ok(&out), 2, "{:?}", out.task_exits);
        // Detection within the configured timeout (+ one sweep period).
        let m = out.membership.as_ref().unwrap();
        let dead = m
            .events()
            .iter()
            .find(|e| e.to == Liveness::Dead)
            .cloned()
            .expect("hang must produce a death verdict");
        assert_eq!(dead.key, TaskKey::new("worker", 1));
        assert!(
            dead.at_s - 0.3 <= 0.2 + 2.0 * 0.05 + 1e-9,
            "detected at {} for a hang at 0.3",
            dead.at_s
        );
        // Deterministic schedule: dead at ~0.5, rerun 1.0s from there.
        assert!((out.elapsed_s - 1.5).abs() < 1e-6, "{}", out.elapsed_s);
    }

    #[test]
    fn hang_without_budget_fails_launch() {
        let cfg = workers(2, true)
            .with_faults(FaultPlan::new().hang(1, 0.3))
            .with_supervisor(SupervisorConfig::default().with_heartbeats(0.05, 0.2));
        let result = launch(&cfg, |ctx| {
            for _ in 0..10 {
                clock::sleep(0.1);
                ctx.check_faults()?;
            }
            Ok(())
        });
        match result {
            Err(e) => assert!(
                e.to_string().contains("heartbeat silence"),
                "expected a liveness verdict, got {e}"
            ),
            Ok(_) => panic!("expected the hang to fail the launch"),
        }
    }

    #[test]
    fn partial_restart_leaves_healthy_tasks_untouched() {
        // Worker 1 fails once; with "worker" partial-restartable only
        // that task re-runs — siblings keep their single attempt and
        // the epoch is never bumped.
        for (simulated, unit) in CLOCKS {
            let cfg = workers(3, simulated).with_supervisor(
                SupervisorConfig::restarting(2)
                    .with_partial_restart(["worker"])
                    .with_spares(1),
            );
            let out = launch(&cfg, move |ctx| {
                clock::sleep(0.2 * unit);
                if ctx.index() == 1 && ctx.attempt() == 0 {
                    return Err(CoreError::Aborted("simulated fault".into()));
                }
                clock::sleep(0.8 * unit);
                Ok(())
            })
            .unwrap();
            assert_eq!(out.restarts, 1);
            assert_eq!(out.cluster.epoch(), 0, "partial restart must not fence");
            // Healthy workers ran exactly once, as attempt 0.
            for idx in [0usize, 2] {
                let exits: Vec<_> = out
                    .task_exits
                    .iter()
                    .filter(|e| e.key.index == idx)
                    .collect();
                assert_eq!(exits.len(), 1, "{:?}", out.task_exits);
                assert_eq!(exits[0].attempt, 0);
                assert!(exits[0].error.is_none());
            }
            // The failed worker ran twice; the retry succeeded as attempt 1.
            let w1: Vec<_> = out.task_exits.iter().filter(|e| e.key.index == 1).collect();
            assert_eq!(w1.len(), 2, "{:?}", out.task_exits);
            assert!(w1.iter().any(|e| e.attempt == 0 && e.error.is_some()));
            assert!(w1.iter().any(|e| e.attempt == 1 && e.error.is_none()));
            // The replacement came up on the spare node (3 primaries → the
            // spare is global node 3).
            assert_eq!(out.replacements, vec![(TaskKey::new("worker", 1), 1, 3)]);
            assert_eq!(
                out.cluster.server(&TaskKey::new("worker", 1)).unwrap().node,
                3
            );
            if simulated {
                // Failure at 0.2, retry runs 0.2 → 1.2.
                assert!((out.elapsed_s - 1.2).abs() < 1e-9, "{}", out.elapsed_s);
            }
        }
    }

    #[test]
    fn real_mode_heartbeats_run_clean() {
        // Smoke: real-mode heartbeat threads + monitor produce no
        // false positives on a healthy gang and retire members on exit.
        let cfg = workers(2, false)
            .with_supervisor(SupervisorConfig::default().with_heartbeats(0.02, 2.0));
        let out = launch(&cfg, |_ctx| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            Ok(())
        })
        .unwrap();
        let m = out.membership.expect("membership enabled");
        assert!(m.events().iter().all(|e| e.to != Liveness::Dead));
        for (_, rec) in m.members() {
            assert_eq!(rec.state, Liveness::Left);
        }
        let slow = cfg.with_supervisor(SupervisorConfig::default().with_heartbeats(2.0, 60.0));
        let began = std::time::Instant::now();
        launch(&slow, |_ctx| Ok(())).unwrap();
        // Teardown wakes the liveness threads rather than wait a period out.
        assert!(began.elapsed().as_secs_f64() < 1.0);
    }
}
