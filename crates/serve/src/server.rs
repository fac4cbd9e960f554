//! The session server.
//!
//! One [`SessionServer`] admits job requests from many named tenants
//! concurrently and drives them through the serving lifecycle the
//! design doc's §12 describes: **admission** (quota check-and-reserve)
//! → **batching** (compatible requests coalesce within the batching
//! window) → **plan cache** (one shared, capacity-bounded
//! [`SharedPlanCache`] across every worker session) → **dispatch**
//! (a worker executes the batch as one [`Session::run_batch`] call).
//!
//! The server runs in two modes mirroring the app crates: *real*
//! (worker OS threads, dense feeds, wall-clock) and *simulated*
//! (worker DES processes pinned to cluster nodes, synthetic feeds,
//! virtual time — fully deterministic, which is what makes the load
//! generator's latency reports byte-reproducible).

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tfhpc_apps::{digest_tensors, RequestSpec};
use tfhpc_core::{
    CoreError, DeviceCtx, NodeId, Resources, Result, Session, SessionOptions, SharedPlanCache,
};
use tfhpc_sim::clock::Cv;
use tfhpc_sim::topology::ClusterSim;
use tfhpc_sim::Sim;
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
    /// ones that die) in the admission lifecycle. Never batched.
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
    /// Size of the dispatch this job rode in (1 = unbatched).
    pub batch_size: usize,
    /// Failure message, if the job errored.
    pub error: Option<String>,
}

struct CustomJob {
    id: u64,
    tenant: String,
    label: String,
    nodes: usize,
    submitted_s: f64,
    run: CustomFn,
}

enum WorkItem {
    Batch(RequestSpec, PendingBatch),
    Custom(CustomJob),
}

struct ServeState {
    batch: BatchQueue,
    custom: VecDeque<CustomJob>,
    done: HashMap<u64, JobResult>,
    next_id: u64,
    outstanding: usize,
    open: bool,
}

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
    /// Workers wait here for a job, a batch deadline or the close;
    /// `submit` and `shutdown` notify.
    work_cv: Cv,
    /// `wait` and `quiesce` wait here for results; `finish` and
    /// `shutdown` notify. Apart from `work_cv`, so that a submit does not
    /// wake the waiting clients nor a finish the idle workers.
    done_cv: Cv,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    started: Instant,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
}

impl SessionServer {
    fn new(cfg: ServeConfig, work_cv: Cv, done_cv: Cv) -> SessionServer {
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
            }),
            work_cv,
            done_cv,
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
        let server = Arc::new(SessionServer::new(
            cfg,
            Cv::Real(Condvar::new()),
            Cv::Real(Condvar::new()),
        ));
        let mut handles = Vec::with_capacity(n);
        for w in 0..n {
            let srv = Arc::clone(&server);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || srv.worker_loop(DeviceCtx::real(0), false))
                .expect("spawn serve worker");
            handles.push(handle);
        }
        *server.workers.lock() = handles;
        server
    }

    /// Start a simulated server inside `sim`: one worker DES process
    /// per entry of `worker_nodes` (cluster node indices, e.g. from a
    /// Slurm allocation), synthetic feeds, virtual-time stamps.
    pub fn start_sim(
        cfg: ServeConfig,
        sim: &Arc<Sim>,
        cluster: &Arc<ClusterSim>,
        worker_nodes: &[usize],
    ) -> Arc<SessionServer> {
        let server = Arc::new(SessionServer::new(
            cfg,
            Cv::on(sim, "serve.work"),
            Cv::on(sim, "serve.done"),
        ));
        for (w, &node) in worker_nodes.iter().enumerate() {
            let srv = Arc::clone(&server);
            let cl = Arc::clone(cluster);
            sim.spawn(&format!("serve-worker-{w}"), move || {
                srv.worker_loop(DeviceCtx::simulated(cl, node, Vec::new()), true);
            });
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
                st.custom.push_back(CustomJob {
                    id,
                    tenant: tenant.to_string(),
                    label,
                    nodes,
                    submitted_s: now,
                    run,
                });
            }
        }
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
        self.work_cv.notify_all();
        Ok(id)
    }

    /// Block until job `id` finishes and return its result. In sim
    /// mode this must be called from a simulated process (closed-loop
    /// clients are DES processes).
    pub fn wait(&self, id: u64) -> JobResult {
        let mut st = self.state.lock();
        loop {
            if let Some(result) = st.done.get(&id) {
                return result.clone();
            }
            st = self.done_cv.wait(&self.state, st);
        }
    }

    /// Block until every submitted job has finished.
    pub fn quiesce(&self) {
        let mut st = self.state.lock();
        while st.outstanding > 0 {
            st = self.done_cv.wait(&self.state, st);
        }
    }

    /// Stop accepting submissions; workers drain the queues and exit.
    /// Real-mode worker threads are joined.
    pub fn shutdown(&self) {
        self.state.lock().open = false;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
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

    fn worker_loop(self: Arc<SessionServer>, device: DeviceCtx, synthetic: bool) {
        let mut steps: HashMap<RequestSpec, CachedStep> = HashMap::new();
        loop {
            let work = {
                let mut st = self.state.lock();
                loop {
                    let now = self.now();
                    if let Some(job) = st.custom.pop_front() {
                        break Some(WorkItem::Custom(job));
                    }
                    if let Some((spec, batch)) = st.batch.pop_ready(now) {
                        break Some(WorkItem::Batch(spec, batch));
                    }
                    if !st.open && st.batch.is_empty() && st.custom.is_empty() {
                        break None;
                    }
                    st = match st.batch.next_deadline() {
                        Some(d) => self.work_cv.wait_until(&self.state, st, d, now),
                        None => self.work_cv.wait(&self.state, st),
                    };
                }
            };
            match work {
                Some(WorkItem::Custom(job)) => self.run_custom(job),
                Some(WorkItem::Batch(spec, batch)) => {
                    self.run_step_batch(spec, batch, &device, synthetic, &mut steps)
                }
                None => return,
            }
        }
    }

    fn run_custom(&self, job: CustomJob) {
        self.admission.on_dispatch(&job.tenant);
        let outcome = (job.run)();
        let finished = self.now();
        self.admission.release(&job.tenant, job.nodes);
        let (digest, error) = match outcome {
            Ok(d) => (d, None),
            Err(e) => (0, Some(e)),
        };
        self.observe_latency(&job.tenant, finished - job.submitted_s);
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

    fn run_step_batch(
        &self,
        spec: RequestSpec,
        batch: PendingBatch,
        device: &DeviceCtx,
        synthetic: bool,
        steps: &mut HashMap<RequestSpec, CachedStep>,
    ) {
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
        let outputs = step.session.run_batch(&step.fetches, &feed_sets);
        let finished = self.now();
        let size = batch.jobs.len();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(size as u64, Ordering::Relaxed);
        let reg = tfhpc_obs::global();
        reg.counter("tfhpc_serve_batches_total").add(1);
        reg.counter("tfhpc_serve_batched_jobs_total")
            .add(size as u64);
        let results = batch
            .jobs
            .into_iter()
            .zip(outputs)
            .map(|(job, out)| {
                self.admission.release(&job.tenant, 1);
                self.observe_latency(&job.tenant, finished - job.submitted_s);
                let (digest, error) = match out {
                    Ok(tensors) => (digest_tensors(&tensors), None),
                    Err(e) => (0, Some(e.to_string())),
                };
                JobResult {
                    id: job.id,
                    tenant: job.tenant,
                    kind: spec.kind.name().to_string(),
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

    fn observe_latency(&self, tenant: &str, latency_s: f64) {
        tfhpc_obs::global()
            .histogram_with(
                "tfhpc_serve_latency_seconds",
                &[("tenant", tenant)],
                &tfhpc_obs::metrics::duration_buckets(),
            )
            .observe(latency_s.max(0.0));
    }

    fn finish(&self, results: Vec<JobResult>) {
        let mut st = self.state.lock();
        st.outstanding = st.outstanding.saturating_sub(results.len());
        for r in results {
            st.done.insert(r.id, r);
        }
        drop(st);
        self.done_cv.notify_all();
    }
}

impl std::fmt::Debug for SessionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SessionServer")
            .field("open", &st.open)
            .field("outstanding", &st.outstanding)
            .field("done", &st.done.len())
            .finish()
    }
}
