//! The session server.
//!
//! One [`SessionServer`] admits job requests from many named tenants
//! concurrently and drives them through the serving lifecycle the
//! design doc's §12 describes: **admission** (quota check-and-reserve)
//! → **batching** (compatible requests coalesce within the batching
//! window) → **plan cache** (one shared, capacity-bounded
//! [`SharedPlanCache`] across every worker session) → **dispatch**
//! (a worker pays the session dispatch once for the batch, then runs
//! each member with [`Session::run_prepaid`]).
//!
//! The server runs in two modes mirroring the app crates: *real*
//! (worker OS threads, dense feeds, wall-clock) and *simulated*
//! (worker DES leaves pinned to cluster nodes, synthetic feeds,
//! virtual time — fully deterministic, which is what makes the load
//! generator's latency reports byte-reproducible). A worker is one
//! body with two drivers: the same turn finds it work, and the same
//! prepare, run and publish parts execute a job. A real-mode thread
//! parks between turns and runs a job straight through; a simulated
//! leaf returns each park as a [`Step`], runs a job's host work inline
//! under a [`des::ledger`] and replays the recorded charges as
//! [`Step::Advance`]s. It replays every charge before a read of
//! server-shared state (a member's plan lookup) first, so it makes that
//! read at the virtual instant a worker thread would, and every
//! simulated byte is the thread's.
//!
//! Both modes share one wake rule: a process is woken only when it can
//! make progress. Idle workers park untimed except for at most one,
//! which holds a timer on the earliest batch deadline; a worker is
//! woken only for work nobody covers (a custom job, a dispatchable
//! batch, or a deadline no timer is on), and a worker that takes work
//! passes on what it leaves uncovered. `wait(id)` parks on a condition
//! of its own that only `id`'s completion signals, `quiesce` on one
//! that only the last outstanding completion signals.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tfhpc_apps::{digest_tensors, RequestSpec};
use tfhpc_core::{
    CoreError, DeviceCtx, NodeId, Resources, Result, Session, SessionOptions, SharedPlanCache,
};
use tfhpc_obs::{Histogram, LazyCounter};
use tfhpc_sim::clock::{self, Cv};
use tfhpc_sim::topology::ClusterSim;
use tfhpc_sim::{des, Process, Sim, Step};
use tfhpc_tensor::Tensor;

use crate::admission::{AdmissionController, TenantQuota, TenantUsage};
use crate::batch::{BatchQueue, PendingBatch, QueuedJob};
use crate::{ServeConfig, ShedPolicy};

/// A custom job body: runs to a result digest or an error message.
pub type CustomFn = Box<dyn FnOnce() -> std::result::Result<u64, String> + Send>;

/// What a submitted job executes.
pub enum JobPayload {
    /// A canonical application step — batchable, plan-cached.
    Step {
        /// Shape class (graph + plan identity).
        spec: RequestSpec,
        /// Per-request feed seed.
        seed: u64,
    },
    /// An arbitrary job body reserving `nodes` nodes — the escape
    /// hatch tests use to wrap whole supervised app runs (including
    /// ones that die) in the admission lifecycle. Never batched. In a
    /// simulated server the body runs inline on the worker leaf, under
    /// a [`des::ledger`]: the virtual time it charges (`clock::sleep`,
    /// a simulated session run) passes before the job is stamped
    /// finished, and a body that waits on, notifies or spawns another
    /// process of the simulation panics, naming `serve-worker-N`.
    Custom {
        /// Name recorded in the result's `kind`.
        label: String,
        /// Nodes to reserve against the tenant's budget.
        nodes: usize,
        /// The body.
        run: CustomFn,
    },
}

/// The compact record kept per finished job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Server-assigned id (submission order).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Step kind name or custom label.
    pub kind: String,
    /// Result digest ([`digest_tensors`] of the fetched outputs).
    pub digest: u64,
    /// Submission time (virtual seconds in sim mode).
    pub submitted_s: f64,
    /// Completion time.
    pub finished_s: f64,
    /// Size of the dispatch this job rode in (1 = unbatched, 0 = never
    /// dispatched: shed, or an unknown id).
    pub batch_size: usize,
    /// Failure message, if the job errored.
    pub error: Option<String>,
}

/// A queued custom job, less its body.
struct CustomJob {
    id: u64,
    tenant: String,
    label: String,
    nodes: usize,
    submitted_s: f64,
}

enum WorkItem {
    Batch(RequestSpec, PendingBatch),
    Custom(CustomJob, CustomFn),
}

/// Work a worker has prepared to run.
enum Job {
    Batch(Dispatch),
    Custom(CustomJob, CustomFn),
}

struct ServeState {
    batch: BatchQueue,
    custom: VecDeque<(CustomJob, CustomFn)>,
    done: HashMap<u64, JobResult>,
    next_id: u64,
    outstanding: usize,
    open: bool,
    /// Workers parked on `work_cv`.
    idle: usize,
    /// The batch deadline the timed idle worker parks on, if one does.
    timer: Option<f64>,
    /// `wait` callers by job id: the condition they park on and how
    /// many of them park there.
    waiters: HashMap<u64, (Arc<Cv>, usize)>,
    /// Conditions no `wait` is using, handed to the next one.
    spare: Vec<Arc<Cv>>,
    /// `quiesce` callers parked on `quiesced`.
    quiescing: usize,
    /// Per-tenant latency histograms, resolved on first use.
    latency: HashMap<String, Arc<Histogram>>,
}

impl ServeState {
    /// The earliest batch deadline, if no parked worker's timer is on
    /// or before it.
    fn uncovered_deadline(&self) -> Option<f64> {
        let d = self.batch.next_deadline()?;
        self.timer.is_none_or(|t| d < t).then_some(d)
    }

    /// Whether an idle worker could make progress at `now`: a custom
    /// job or a dispatchable batch waits, or a deadline has no timer.
    fn uncovered(&self, now: f64) -> bool {
        !self.custom.is_empty() || self.batch.has_ready(now) || self.uncovered_deadline().is_some()
    }
}

/// One non-blocking turn of a blocking call: its value, or the condition
/// to park on — until the absolute deadline, if one is given — with the
/// state still locked (the wall clock must hold the lock from the check
/// into the wait).
enum Turn<'a, T> {
    Ready(T),
    Park(MutexGuard<'a, ServeState>, Arc<Cv>, Option<f64>),
}

static BATCHES: LazyCounter = LazyCounter::new("tfhpc_serve_batches_total");
static BATCHED_JOBS: LazyCounter = LazyCounter::new("tfhpc_serve_batched_jobs_total");

/// One worker's cached executable for a spec: canonical graph wrapped
/// in a session wired to the server-wide shared plan cache.
struct CachedStep {
    session: Session,
    placeholders: Vec<NodeId>,
    fetches: Vec<NodeId>,
}

/// A multi-tenant serving front-end over a pool of executor workers.
pub struct SessionServer {
    cfg: ServeConfig,
    admission: AdmissionController,
    plan_cache: Arc<SharedPlanCache>,
    state: Mutex<ServeState>,
    /// Idle workers park here for work, a batch deadline or the close.
    work_cv: Arc<Cv>,
    /// `quiesce` parks here until nothing is outstanding.
    quiesced: Arc<Cv>,
    /// The simulation whose clock the server's conditions are on
    /// (`None`: the wall clock).
    sim: Option<Arc<Sim>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    started: Instant,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
}

/// A condition on `sim`'s virtual clock, or on the wall clock.
fn condition(sim: Option<&Arc<Sim>>, name: &str) -> Cv {
    match sim {
        Some(sim) => Cv::on(sim, name),
        None => Cv::Real(Condvar::new()),
    }
}

impl SessionServer {
    fn new(cfg: ServeConfig, sim: Option<Arc<Sim>>) -> SessionServer {
        SessionServer {
            admission: AdmissionController::new(cfg.default_quota),
            plan_cache: Arc::new(SharedPlanCache::new(cfg.plan_cache_cap)),
            state: Mutex::new(ServeState {
                batch: BatchQueue::new(cfg.batch_window_s, cfg.max_batch),
                custom: VecDeque::new(),
                done: HashMap::new(),
                next_id: 1,
                outstanding: 0,
                open: true,
                idle: 0,
                timer: None,
                waiters: HashMap::new(),
                spare: Vec::new(),
                quiescing: 0,
                latency: HashMap::new(),
            }),
            work_cv: Arc::new(condition(sim.as_ref(), "serve.work")),
            quiesced: Arc::new(condition(sim.as_ref(), "serve.quiesced")),
            sim,
            workers: Mutex::new(Vec::new()),
            started: Instant::now(),
            batches: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            cfg,
        }
    }

    /// Start a real-mode server: `cfg.workers` OS worker threads,
    /// dense feeds, wall-clock timestamps.
    pub fn start_real(cfg: ServeConfig) -> Arc<SessionServer> {
        let n = cfg.workers.max(1);
        let server = Arc::new(SessionServer::new(cfg, None));
        let mut handles = Vec::with_capacity(n);
        for w in 0..n {
            let srv = Arc::clone(&server);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || srv.worker_thread(DeviceCtx::real(0)))
                .expect("spawn serve worker");
            handles.push(handle);
        }
        *server.workers.lock() = handles;
        server
    }

    /// Start a simulated server inside `sim`: one worker DES leaf per
    /// entry of `worker_nodes` (cluster node indices, e.g. from a Slurm
    /// allocation), synthetic feeds, virtual-time stamps.
    pub fn start_sim(
        cfg: ServeConfig,
        sim: &Arc<Sim>,
        cluster: &Arc<ClusterSim>,
        worker_nodes: &[usize],
    ) -> Arc<SessionServer> {
        let server = Arc::new(SessionServer::new(cfg, Some(Arc::clone(sim))));
        for (w, &node) in worker_nodes.iter().enumerate() {
            let worker = SimWorker {
                srv: Arc::clone(&server),
                device: DeviceCtx::simulated(Arc::clone(cluster), node, Vec::new()),
                steps: HashMap::new(),
                parked: None,
                running: None,
                replay: Vec::new().into_iter(),
            };
            sim.spawn_leaf(&format!("serve-worker-{w}"), worker);
        }
        server
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The cross-session plan cache every worker session shares.
    pub fn plan_cache(&self) -> &Arc<SharedPlanCache> {
        &self.plan_cache
    }

    /// Override a tenant's quota (defaults come from the config).
    pub fn set_quota(&self, tenant: &str, quota: TenantQuota) {
        self.admission.set_quota(tenant, quota);
    }

    /// A tenant's admission snapshot.
    pub fn usage(&self, tenant: &str) -> TenantUsage {
        self.admission.usage(tenant)
    }

    /// Lifetime `(batches dispatched, jobs inside them)`.
    pub fn batch_stats(&self) -> (u64, u64) {
        (
            self.batches.load(Ordering::Relaxed),
            self.batched_jobs.load(Ordering::Relaxed),
        )
    }

    fn now(&self) -> f64 {
        match tfhpc_sim::des::current() {
            Some(me) => me.now(),
            None => self.started.elapsed().as_secs_f64(),
        }
    }

    /// Submit a job for `tenant`. Returns the job id, or
    /// [`CoreError::ResourceExhausted`] if the tenant is over quota
    /// (nothing is reserved in that case).
    pub fn submit(&self, tenant: &str, payload: JobPayload) -> Result<u64> {
        let nodes = match &payload {
            JobPayload::Step { .. } => 1,
            JobPayload::Custom { nodes, .. } => (*nodes).max(1),
        };
        self.admission.admit(tenant, nodes)?;
        // Resolved outside the state lock: admission has its own lock
        // and the two are never held together.
        let priority = self.admission.priority(tenant);
        let mut st = self.state.lock();
        if !st.open {
            // Undo the reservation: the job never queued.
            self.admission.on_dispatch(tenant);
            self.admission.release(tenant, nodes);
            return Err(CoreError::Invalid("session server is shut down".into()));
        }
        let id = st.next_id;
        st.next_id += 1;
        st.outstanding += 1;
        let now = self.now();
        let mut shed: Vec<QueuedJob> = Vec::new();
        match payload {
            JobPayload::Step { spec, seed } => {
                st.batch.push(
                    spec,
                    QueuedJob {
                        id,
                        tenant: tenant.to_string(),
                        seed,
                        submitted_s: now,
                        priority,
                    },
                    now,
                );
                // Brownout: a bounded queue sheds its lowest-priority,
                // furthest-deadline work — possibly the job we just
                // queued, if the submitter itself is besteffort. Custom
                // jobs carry whole app runs and are never shed.
                if self.cfg.shed_policy == ShedPolicy::Edf && self.cfg.queue_bound > 0 {
                    while st.batch.total_jobs() > self.cfg.queue_bound {
                        match st.batch.shed_victim() {
                            Some(v) => shed.push(v),
                            None => break,
                        }
                    }
                }
            }
            JobPayload::Custom { label, run, .. } => {
                let job = CustomJob {
                    id,
                    tenant: tenant.to_string(),
                    label,
                    nodes,
                    submitted_s: now,
                };
                st.custom.push_back((job, run));
            }
        }
        let wake = st.idle > 0 && st.uncovered(now);
        drop(st);
        if !shed.is_empty() {
            let results = shed
                .into_iter()
                .map(|v| {
                    self.admission.on_shed(&v.tenant, 1);
                    JobResult {
                        id: v.id,
                        tenant: v.tenant,
                        kind: "shed".to_string(),
                        digest: 0,
                        submitted_s: v.submitted_s,
                        finished_s: now,
                        batch_size: 0,
                        error: Some(format!(
                            "shed: queue bound {} exceeded",
                            self.cfg.queue_bound
                        )),
                    }
                })
                .collect();
            // finish() wakes waiters, so a shed submitter unblocks
            // immediately with the errored result.
            self.finish(results);
        }
        if wake {
            self.work_cv.notify_one();
        }
        Ok(id)
    }

    /// Block until job `id` finishes and return its result; an id this
    /// server never issued returns at once with an error. In sim mode
    /// this must be called from a simulated thread process; a DES leaf
    /// takes one turn of it per resume instead.
    pub fn wait(&self, id: u64) -> JobResult {
        let mut registered = false;
        self.block_on(|st| self.wait_turn(st, id, &mut registered))
    }

    /// Block until every submitted job has finished.
    pub fn quiesce(&self) {
        let mut registered = false;
        self.block_on(|st| self.quiesce_turn(st, &mut registered))
    }

    /// One turn of [`SessionServer::wait`] in a DES leaf: the result, or
    /// the step that parks the leaf until the next turn. `registered`
    /// starts false and is the leaf's to keep between turns.
    pub(crate) fn wait_step(
        &self,
        id: u64,
        registered: &mut bool,
    ) -> std::result::Result<JobResult, Step> {
        self.leaf_turn(|st| self.wait_turn(st, id, registered))
    }

    /// One turn of [`SessionServer::quiesce`] in a DES leaf, as
    /// [`SessionServer::wait_step`].
    pub(crate) fn quiesce_step(&self, registered: &mut bool) -> std::result::Result<(), Step> {
        self.leaf_turn(|st| self.quiesce_turn(st, registered))
    }

    /// Take turns on the calling thread, parking between them.
    fn block_on<'a, T>(
        &'a self,
        mut turn: impl FnMut(MutexGuard<'a, ServeState>) -> Turn<'a, T>,
    ) -> T {
        let mut st = self.state.lock();
        loop {
            st = match turn(st) {
                Turn::Ready(value) => return value,
                Turn::Park(guard, cv, None) => cv.wait(&self.state, guard),
                Turn::Park(guard, cv, Some(deadline)) => {
                    cv.wait_until(&self.state, guard, deadline, self.now()).0
                }
            };
        }
    }

    /// Take one turn in a DES leaf. Nothing runs between the unlock and
    /// the leaf's park, so no notify is lost (DESIGN.md §5).
    fn leaf_turn<'a, T>(
        &'a self,
        turn: impl FnOnce(MutexGuard<'a, ServeState>) -> Turn<'a, T>,
    ) -> std::result::Result<T, Step> {
        match turn(self.state.lock()) {
            Turn::Ready(value) => Ok(value),
            Turn::Park(guard, cv, deadline) => {
                drop(guard);
                Err(cv.leaf_wait(deadline))
            }
        }
    }

    /// `wait(id)`'s check. A caller that must park registers under `id`
    /// on its first such turn: it gets `id`'s own condition, shared with
    /// any other waiter for `id`. The turn that finds the result
    /// deregisters it; the last one out returns the condition to the
    /// spare list.
    fn wait_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, ServeState>,
        id: u64,
        registered: &mut bool,
    ) -> Turn<'a, JobResult> {
        if let Some(result) = st.done.get(&id) {
            let result = result.clone();
            if std::mem::take(registered) {
                let st = &mut *st;
                if let Entry::Occupied(mut mine) = st.waiters.entry(id) {
                    mine.get_mut().1 -= 1;
                    if mine.get().1 == 0 {
                        st.spare.push(mine.remove().0);
                    }
                }
            }
            return Turn::Ready(result);
        }
        if id == 0 || id >= st.next_id {
            drop(st);
            let now = self.now();
            return Turn::Ready(JobResult {
                id,
                tenant: String::new(),
                kind: "unknown".to_string(),
                digest: 0,
                submitted_s: now,
                finished_s: now,
                batch_size: 0,
                error: Some(format!("unknown job id {id}")),
            });
        }
        let cv = match st.waiters.get_mut(&id) {
            Some((cv, _)) if *registered => Arc::clone(cv),
            Some((cv, n)) => {
                *n += 1;
                Arc::clone(cv)
            }
            None => {
                let cv = st
                    .spare
                    .pop()
                    .unwrap_or_else(|| Arc::new(condition(self.sim.as_ref(), "serve.job-done")));
                st.waiters.insert(id, (Arc::clone(&cv), 1));
                cv
            }
        };
        *registered = true;
        Turn::Park(st, cv, None)
    }

    /// `quiesce`'s check: ready once nothing is outstanding. A caller
    /// that must park counts itself in `quiescing` until then.
    fn quiesce_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, ServeState>,
        registered: &mut bool,
    ) -> Turn<'a, ()> {
        if st.outstanding == 0 {
            if std::mem::take(registered) {
                st.quiescing -= 1;
            }
            return Turn::Ready(());
        }
        if !std::mem::replace(registered, true) {
            st.quiescing += 1;
        }
        Turn::Park(st, Arc::clone(&self.quiesced), None)
    }

    /// Stop accepting submissions; workers drain the queues and exit.
    /// Wakes every parked worker, `wait` and `quiesce`. Real-mode worker
    /// threads are joined.
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.open = false;
        let waiting: Vec<Arc<Cv>> = st.waiters.values().map(|(cv, _)| Arc::clone(cv)).collect();
        drop(st);
        self.work_cv.notify_all();
        for cv in waiting {
            cv.notify_all();
        }
        self.quiesced.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// Drain every finished-job record, sorted by id.
    pub fn take_results(&self) -> Vec<JobResult> {
        let mut out: Vec<JobResult> = self.state.lock().done.drain().map(|(_, r)| r).collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// A real-mode worker: takes work on its own thread, parking
    /// between turns, and runs each job straight through.
    fn worker_thread(self: Arc<SessionServer>, device: DeviceCtx) {
        let mut steps = HashMap::new();
        loop {
            let mut parked = None;
            let (work, wake) = self.block_on(|st| self.work_turn(st, &mut parked));
            if wake {
                self.work_cv.notify_one();
            }
            let Some(work) = work else { return };
            match self.prepare(work, &device, &mut steps) {
                Job::Custom(job, run) => {
                    let outcome = run();
                    self.publish_custom(job, outcome);
                }
                Job::Batch(mut dispatch) => {
                    let step = &steps[&dispatch.spec];
                    while let Some(act) = dispatch.next(&step.session) {
                        match act {
                            Act::Charge(dt) => clock::sleep(dt),
                            Act::Run => dispatch.run_member(step),
                        }
                    }
                    self.publish(dispatch);
                }
            }
        }
    }

    /// A worker's check for work: the work to take (`None`: closed and
    /// drained) and whether to wake one more idle worker — for work this
    /// one leaves uncovered, or to pass the exit on — or else park as an
    /// idle worker, with a timer on the earliest batch deadline if no
    /// parked worker covers it. `parked` records how this caller last
    /// parked (`Some(timer)`); it starts `None` and is the caller's to
    /// keep between turns.
    fn work_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, ServeState>,
        parked: &mut Option<Option<f64>>,
    ) -> Turn<'a, (Option<WorkItem>, bool)> {
        if let Some(timer) = parked.take() {
            if timer.is_some() && st.timer == timer {
                st.timer = None;
            }
            st.idle -= 1;
        }
        let now = self.now();
        let work = match st.custom.pop_front() {
            Some((job, run)) => Some(WorkItem::Custom(job, run)),
            None => st
                .batch
                .pop_ready(now)
                .map(|(spec, b)| WorkItem::Batch(spec, b)),
        };
        if work.is_some() || (!st.open && st.batch.is_empty() && st.custom.is_empty()) {
            let wake = st.idle > 0 && (work.is_none() || st.uncovered(now));
            return Turn::Ready((work, wake));
        }
        st.idle += 1;
        let timer = st.uncovered_deadline();
        if timer.is_some() {
            st.timer = timer;
        }
        *parked = Some(timer);
        Turn::Park(st, Arc::clone(&self.work_cv), timer)
    }

    /// A job's first part: move its members to running and, for a
    /// batch, fetch (or build) this worker's session for the spec and
    /// generate every member's feeds — synthetic on a simulated device.
    fn prepare(
        &self,
        work: WorkItem,
        device: &DeviceCtx,
        steps: &mut HashMap<RequestSpec, CachedStep>,
    ) -> Job {
        let (spec, batch) = match work {
            WorkItem::Custom(job, run) => {
                self.admission.on_dispatch(&job.tenant);
                return Job::Custom(job, run);
            }
            WorkItem::Batch(spec, batch) => (spec, batch),
        };
        for job in &batch.jobs {
            self.admission.on_dispatch(&job.tenant);
        }
        let step = steps.entry(spec).or_insert_with(|| {
            let built = spec.build();
            let mut session = Session::with_options(
                built.graph,
                Resources::new(),
                device.clone(),
                SessionOptions {
                    step_replay: true,
                    ..SessionOptions::sequential()
                },
            );
            session.set_plan_cache(Arc::clone(&self.plan_cache));
            CachedStep {
                session,
                placeholders: built.placeholders,
                fetches: built.fetches,
            }
        });
        let synthetic = device.sim.is_some();
        let feed_sets: Vec<Vec<(NodeId, Tensor)>> = batch
            .jobs
            .iter()
            .map(|j| {
                step.placeholders
                    .iter()
                    .copied()
                    .zip(spec.feeds(j.seed, synthetic))
                    .collect()
            })
            .collect();
        Job::Batch(Dispatch {
            spec,
            jobs: batch.jobs,
            outputs: Vec::with_capacity(feed_sets.len()),
            feed_sets,
            dispatched: false,
            fed: false,
        })
    }

    /// A batch's last part: stamp it finished, release its quota and
    /// publish one result per member.
    fn publish(&self, dispatch: Dispatch) {
        let finished = self.now();
        let size = dispatch.jobs.len();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(size as u64, Ordering::Relaxed);
        BATCHES.add(1);
        BATCHED_JOBS.add(size as u64);
        let kind = dispatch.spec.kind.name();
        let results = dispatch
            .jobs
            .into_iter()
            .zip(dispatch.outputs)
            .map(|(job, out)| {
                self.admission.release(&job.tenant, 1);
                let (digest, error) = match out {
                    Ok(tensors) => (digest_tensors(&tensors), None),
                    Err(e) => (0, Some(e.to_string())),
                };
                JobResult {
                    id: job.id,
                    tenant: job.tenant,
                    kind: kind.to_string(),
                    digest,
                    submitted_s: job.submitted_s,
                    finished_s: finished,
                    batch_size: size,
                    error,
                }
            })
            .collect();
        self.finish(results);
    }

    /// A custom job's last part, once its body has run.
    fn publish_custom(&self, job: CustomJob, outcome: std::result::Result<u64, String>) {
        let finished = self.now();
        self.admission.release(&job.tenant, job.nodes);
        let (digest, error) = match outcome {
            Ok(d) => (d, None),
            Err(e) => (0, Some(e)),
        };
        self.finish(vec![JobResult {
            id: job.id,
            tenant: job.tenant,
            kind: job.label,
            digest,
            submitted_s: job.submitted_s,
            finished_s: finished,
            batch_size: 1,
            error,
        }]);
    }

    /// Publish `results`: record the dispatched ones' latencies, then
    /// wake only the `wait`s for these ids, and `quiesce` only if
    /// nothing is left outstanding.
    fn finish(&self, results: Vec<JobResult>) {
        let mut st = self.state.lock();
        st.outstanding = st.outstanding.saturating_sub(results.len());
        let mut wake = Vec::new();
        for r in results {
            if r.batch_size > 0 {
                if !st.latency.contains_key(&r.tenant) {
                    let histogram = tfhpc_obs::global().histogram_with(
                        "tfhpc_serve_latency_seconds",
                        &[("tenant", &r.tenant)],
                        &tfhpc_obs::metrics::duration_buckets(),
                    );
                    st.latency.insert(r.tenant.clone(), histogram);
                }
                st.latency[&r.tenant].observe((r.finished_s - r.submitted_s).max(0.0));
            }
            if let Some((cv, _)) = st.waiters.get(&r.id) {
                wake.push(Arc::clone(cv));
            }
            st.done.insert(r.id, r);
        }
        let quiesced = st.outstanding == 0 && st.quiescing > 0;
        drop(st);
        for cv in wake {
            cv.notify_all();
        }
        if quiesced {
            self.quiesced.notify_all();
        }
    }
}

/// What a batch's driver does next.
enum Act {
    /// Let `dt` virtual seconds pass.
    Charge(f64),
    /// Run the next member ([`Dispatch::run_member`]).
    Run,
}

/// A batch between prepare and publish: its members' feeds, their
/// results so far, and which charges are paid. Both drivers step it the
/// same way; only how a charge is paid differs.
struct Dispatch {
    spec: RequestSpec,
    jobs: Vec<QueuedJob>,
    feed_sets: Vec<Vec<(NodeId, Tensor)>>,
    outputs: Vec<Result<Vec<Tensor>>>,
    /// The batch's one session dispatch is paid.
    dispatched: bool,
    /// The next member's feed charge is paid.
    fed: bool,
}

impl Dispatch {
    /// The next act: the dispatch charge, then per member its feed
    /// charge and its run, in the order one `Session::run` pays them;
    /// `None` once every member has run.
    fn next(&mut self, session: &Session) -> Option<Act> {
        let member = self.feed_sets.get(self.outputs.len())?;
        if !self.dispatched {
            self.dispatched = true;
            if let Some(dt) = session.dispatch_charge() {
                return Some(Act::Charge(dt));
            }
        }
        if !self.fed {
            self.fed = true;
            if let Some(dt) = session.feed_charge(member) {
                return Some(Act::Charge(dt));
            }
        }
        self.fed = false;
        Some(Act::Run)
    }

    /// Run the next member on `step`'s session, its charges paid.
    fn run_member(&mut self, step: &CachedStep) {
        let feeds = &self.feed_sets[self.outputs.len()];
        let out = step.session.run_prepaid(&step.fetches, feeds);
        self.outputs.push(out);
    }
}

/// What a simulated worker is running, between prepare and publish.
enum Running {
    Batch(Dispatch),
    /// A custom job whose body has run.
    Custom(CustomJob, std::result::Result<u64, String>),
}

/// A simulated worker: a DES leaf that runs each job's host work inline
/// under a [`des::ledger`] and replays the recorded charges as
/// [`Step::Advance`]s, so it is dispatched exactly when a worker thread
/// parking on each charge would be. A batch member's plan lookup reads
/// the shared plan cache, so it runs only once the charges before it —
/// the dispatch, then the member's feed — are replayed: at the instant
/// a thread would make it.
struct SimWorker {
    srv: Arc<SessionServer>,
    device: DeviceCtx,
    steps: HashMap<RequestSpec, CachedStep>,
    /// `work_turn`'s record of how this worker last parked.
    parked: Option<Option<f64>>,
    running: Option<Running>,
    /// Charges the last ledger recorded, still to replay.
    replay: std::vec::IntoIter<f64>,
}

impl Process for SimWorker {
    fn resume(&mut self) -> Step {
        let srv = &self.srv;
        loop {
            if let Some(dt) = self.replay.next() {
                return Step::Advance(dt);
            }
            self.running = match self.running.take() {
                None => {
                    let turn = srv.leaf_turn(|st| srv.work_turn(st, &mut self.parked));
                    let (work, wake) = match turn {
                        Ok(taken) => taken,
                        Err(park) => return park,
                    };
                    if wake {
                        srv.work_cv.notify_one();
                    }
                    let Some(work) = work else {
                        return Step::Done;
                    };
                    match srv.prepare(work, &self.device, &mut self.steps) {
                        Job::Custom(job, run) => {
                            let (outcome, charges) = des::ledger(run);
                            self.replay = charges.into_iter();
                            Some(Running::Custom(job, outcome))
                        }
                        Job::Batch(dispatch) => Some(Running::Batch(dispatch)),
                    }
                }
                Some(Running::Custom(job, outcome)) => {
                    srv.publish_custom(job, outcome);
                    None
                }
                Some(Running::Batch(mut dispatch)) => {
                    let step = &self.steps[&dispatch.spec];
                    match dispatch.next(&step.session) {
                        Some(Act::Charge(dt)) => {
                            self.running = Some(Running::Batch(dispatch));
                            return Step::Advance(dt);
                        }
                        Some(Act::Run) => {
                            let ((), charges) = des::ledger(|| dispatch.run_member(step));
                            self.replay = charges.into_iter();
                            Some(Running::Batch(dispatch))
                        }
                        None => {
                            srv.publish(dispatch);
                            None
                        }
                    }
                }
            };
        }
    }
}

impl std::fmt::Debug for SessionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SessionServer")
            .field("open", &st.open)
            .field("outstanding", &st.outstanding)
            .field("done", &st.done.len())
            .field("waiting_ids", &st.waiters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unknown(server: &SessionServer, id: u64) {
        let r = server.wait(id);
        assert_eq!((r.id, r.batch_size), (id, 0));
        assert_eq!(r.error, Some(format!("unknown job id {id}")));
    }

    #[test]
    fn waiting_on_an_id_never_issued_returns_an_error_at_once() {
        // Nobody would ever signal such a wait: it used to park forever
        // on the wall clock and end the simulation as a deadlock.
        let real = SessionServer::start_real(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        for id in [0, 1, 99] {
            unknown(&real, id);
        }
        real.shutdown();

        let sim = Sim::new();
        let cluster = Arc::new(ClusterSim::new(&sim, tfhpc_sim::platform::tegner_k80(), 2));
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = SessionServer::start_sim(cfg, &sim, &cluster, &[1]);
        sim.spawn("client", move || {
            let run: CustomFn = Box::new(|| Ok(5));
            let payload = JobPayload::Custom {
                label: "five".into(),
                nodes: 1,
                run,
            };
            let id = server.submit("t", payload).unwrap();
            unknown(&server, id + 1);
            assert_eq!(server.wait(id).digest, 5);
            server.shutdown();
        });
        sim.run();
    }

    /// A one-worker simulated server running `run` as a custom job for
    /// a client thread process that submits it at t = 0.5; returns its
    /// result.
    fn sim_custom(run: CustomFn) -> JobResult {
        let sim = Sim::new();
        let cluster = Arc::new(ClusterSim::new(&sim, tfhpc_sim::platform::tegner_k80(), 2));
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = SessionServer::start_sim(cfg, &sim, &cluster, &[1]);
        let seen = Arc::new(Mutex::new(None));
        {
            let seen = Arc::clone(&seen);
            sim.spawn("client", move || {
                clock::sleep(0.5);
                let payload = JobPayload::Custom {
                    label: "custom".into(),
                    nodes: 1,
                    run,
                };
                let id = server.submit("t", payload).unwrap();
                *seen.lock() = Some(server.wait(id));
                server.shutdown();
            });
        }
        sim.run();
        let result = seen.lock().take().expect("the client ran");
        result
    }

    #[test]
    fn a_sim_custom_job_is_finished_after_the_time_it_charged() {
        let r = sim_custom(Box::new(|| {
            let t0 = clock::now();
            clock::sleep(0.25);
            clock::sleep(0.125);
            assert_eq!(clock::now(), t0 + 0.25 + 0.125);
            Ok(7)
        }));
        assert_eq!((r.digest, r.error), (7, None));
        assert_eq!((r.submitted_s, r.finished_s), (0.5, 0.875));
    }

    #[test]
    fn a_sim_custom_job_that_waits_on_another_process_names_the_worker() {
        let err = std::panic::catch_unwind(|| {
            sim_custom(Box::new(|| {
                let (m, cv) = (Mutex::new(()), Cv::here(String::new));
                drop(cv.wait(&m, m.lock()));
                Ok(0)
            }))
        })
        .expect_err("the run fails");
        let msg = err.downcast_ref::<String>().expect("a message");
        assert!(
            msg.contains("leaf process `serve-worker-0` called SimCondvar::wait"),
            "{msg}"
        );
    }
}
