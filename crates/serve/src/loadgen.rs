//! Seeded multi-tenant load generation, entirely inside the DES.
//!
//! [`run_load`] stands up a simulated cluster, carves worker nodes
//! out of it with a Slurm allocation, starts a simulated
//! [`SessionServer`] on them and replays a traffic schedule that is a
//! pure function of one seed: every tenant's inter-arrival times, job
//! mix draws and think times come from decorrelated
//! [`SeededStream`] substreams, and all timestamps are virtual. Two
//! runs with the same seed therefore produce byte-identical reports —
//! including tail latencies, which are exact order statistics rather
//! than histogram interpolations.
//!
//! Tenants are either **open-loop** (Poisson arrivals at a fixed
//! rate, submission never waits on completion — the shape that
//! exposes queueing and batching) or **closed-loop** (a fixed client
//! pool, each client waits for its job then thinks — the shape that
//! exposes service latency).
//!
//! Every generator and client, and the controller that drains the
//! server after the last of them, is a DES leaf ([`Process`]): a state
//! machine resumed inline on whichever thread holds the baton. A run
//! starts OS threads only for the server's workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tfhpc_apps::RequestSpec;
use tfhpc_core::{CoreError, PlanCacheStats, Result};
use tfhpc_sim::topology::ClusterSim;
use tfhpc_sim::{platform, Process, SeededStream, Sim, SimCondvar, SimStats, Step};
use tfhpc_slurm::{Distribution, JobRequest, SlurmCluster};

use crate::admission::TenantQuota;
use crate::server::{JobPayload, JobResult, SessionServer};
use crate::ServeConfig;

/// How a tenant generates traffic.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Poisson arrivals at `rate_hz`, never waiting on completions.
    Open {
        /// Mean arrival rate (jobs per virtual second).
        rate_hz: f64,
    },
    /// `clients` concurrent clients, each submit → wait → think.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Mean think time between a completion and the next submit.
        think_s: f64,
    },
}

/// One tenant's traffic description.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (admission identity + metric label).
    pub name: String,
    /// Arrival process.
    pub arrival: Arrival,
    /// Total jobs this tenant submits.
    pub jobs: usize,
    /// Job mix, drawn uniformly per submission.
    pub mix: Vec<RequestSpec>,
    /// Quota override (`None` = the server config's default).
    pub quota: Option<TenantQuota>,
}

/// Per-tenant results over one load run. Latency quantiles are exact
/// order statistics of the completed jobs' virtual latencies.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Jobs the generator attempted to submit.
    pub submitted: u64,
    /// Jobs that finished.
    pub completed: u64,
    /// Jobs rejected at admission.
    pub rejected: u64,
    /// Jobs shed from the bounded queue after admission (brownout).
    pub shed: u64,
    /// Median latency (s).
    pub p50_s: f64,
    /// 99th-percentile latency (s).
    pub p99_s: f64,
    /// 99.9th-percentile latency (s).
    pub p999_s: f64,
    /// Mean latency (s).
    pub mean_s: f64,
    /// Completions per virtual second over the run's makespan.
    pub throughput_jobs_per_s: f64,
    /// rejected / (admitted + rejected).
    pub rejection_rate: f64,
    /// Mean dispatch batch size over completed jobs.
    pub mean_batch: f64,
}

/// The whole run's report.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Top-level seed.
    pub seed: u64,
    /// Virtual time at which the last job finished.
    pub makespan_s: f64,
    /// Jobs attempted across tenants.
    pub submitted: u64,
    /// Jobs completed across tenants.
    pub completed: u64,
    /// Jobs rejected across tenants.
    pub rejected: u64,
    /// Jobs shed from the bounded queue across tenants.
    pub shed: u64,
    /// Aggregate completions per virtual second.
    pub throughput_jobs_per_s: f64,
    /// Per-tenant summaries, sorted by tenant name.
    pub tenants: Vec<TenantSummary>,
    /// Shared plan cache counters after the run.
    pub plan_cache: PlanCacheStats,
    /// Dispatches issued.
    pub batches: u64,
    /// Jobs carried by those dispatches.
    pub batched_jobs: u64,
    /// batched_jobs / batches.
    pub mean_batch: f64,
    /// What the run cost the simulator, in scheduler events. The same
    /// for every run of one build, but a property of the scheduler and
    /// not of the served load, so [`LoadReport::to_json`] leaves it out.
    pub des: SimStats,
}

/// Exact order statistic: the `q`-quantile of an ascending-sorted
/// sample (nearest-rank method).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Counts the generators still running; the last one out wakes the
/// controller.
struct Latch {
    /// Read and written only by leaves, which run one at a time with a
    /// baton hand-off through the scheduler's mutex between any two, so
    /// `Relaxed` is enough.
    left: AtomicUsize,
    done: SimCondvar,
}

/// What each generator of a tenant holds: the server, the tenant's
/// name and mix, a seeded stream of its own and the latch.
struct Tenant {
    srv: Arc<SessionServer>,
    name: String,
    mix: Vec<RequestSpec>,
    stream: SeededStream,
    latch: Arc<Latch>,
}

impl Tenant {
    fn new(
        srv: &Arc<SessionServer>,
        spec: &TenantSpec,
        latch: &Arc<Latch>,
        substream: u64,
        seed: u64,
    ) -> Tenant {
        Tenant {
            srv: Arc::clone(srv),
            name: spec.name.clone(),
            mix: spec.mix.clone(),
            stream: SeededStream::substream(seed, substream),
            latch: Arc::clone(latch),
        }
    }

    /// Draw the next job from the mix and submit it.
    fn submit_next(&mut self) -> Result<u64> {
        let spec = self.mix[self.stream.pick(self.mix.len())];
        let seed = self.stream.next_u64();
        self.srv.submit(&self.name, JobPayload::Step { spec, seed })
    }

    /// Finish the generator: count the latch down.
    fn finish(&self) -> Step {
        if self.latch.left.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.latch.done.notify_all();
        }
        Step::Done
    }
}

/// An open-loop generator: after each exponential gap, submit, and
/// never wait on the result.
struct OpenLoop {
    tenant: Tenant,
    rate_hz: f64,
    /// Arrivals whose gap has not begun.
    left: usize,
    /// The gap before an arrival has passed: submit it.
    arrived: bool,
}

impl Process for OpenLoop {
    fn resume(&mut self) -> Step {
        loop {
            if std::mem::take(&mut self.arrived) {
                // Open loop: a rejection is recorded by the admission
                // controller; the generator moves on.
                let _ = self.tenant.submit_next();
            }
            if self.left == 0 {
                return self.tenant.finish();
            }
            self.left -= 1;
            self.arrived = true;
            if self.rate_hz > 0.0 {
                return Step::Advance(self.tenant.stream.exp(1.0 / self.rate_hz));
            }
        }
    }
}

/// Where a closed-loop client is in its submit → wait → think cycle.
enum Phase {
    Submit,
    Wait { id: u64, registered: bool },
    Think,
}

/// A closed-loop client.
struct Client {
    tenant: Tenant,
    think_s: f64,
    /// Jobs not yet submitted.
    left: usize,
    phase: Phase,
}

impl Process for Client {
    fn resume(&mut self) -> Step {
        loop {
            match &mut self.phase {
                Phase::Submit => {
                    if self.left == 0 {
                        return self.tenant.finish();
                    }
                    self.left -= 1;
                    self.phase = match self.tenant.submit_next() {
                        Ok(id) => Phase::Wait {
                            id,
                            registered: false,
                        },
                        Err(_) => Phase::Think,
                    };
                }
                Phase::Wait { id, registered } => {
                    if let Err(park) = self.tenant.srv.wait_step(*id, registered) {
                        return park;
                    }
                    self.phase = Phase::Think;
                }
                Phase::Think => {
                    self.phase = Phase::Submit;
                    if self.think_s > 0.0 {
                        return Step::Advance(self.tenant.stream.exp(self.think_s));
                    }
                }
            }
        }
    }
}

/// Waits out every generator, then drains and closes the server.
struct Controller {
    srv: Arc<SessionServer>,
    latch: Arc<Latch>,
    quiescing: bool,
}

impl Process for Controller {
    fn resume(&mut self) -> Step {
        if self.latch.left.load(Ordering::Relaxed) > 0 {
            return Step::Wait(self.latch.done.clone());
        }
        if let Err(park) = self.srv.quiesce_step(&mut self.quiescing) {
            return park;
        }
        self.srv.shutdown();
        Step::Done
    }
}

/// Run a multi-tenant load schedule against a simulated server and
/// summarize it. Deterministic: the report is a pure function of
/// `(cfg, tenants, seed)`.
pub fn run_load(cfg: &ServeConfig, tenants: &[TenantSpec], seed: u64) -> Result<LoadReport> {
    let sim = Sim::new();
    let plat = platform::tegner_k80();
    let n_nodes = cfg.workers.max(1) + 1; // workers + a front-end node
    let cluster = Arc::new(ClusterSim::new(&sim, plat.clone(), n_nodes));
    let mut slurm = SlurmCluster::for_platform(&plat, n_nodes);
    let alloc = slurm
        .submit(&JobRequest {
            nodes: cfg.workers.max(1),
            ntasks: cfg.workers.max(1),
            distribution: Distribution::Plane(1),
            gpus_per_task: 0,
        })
        .map_err(|e| CoreError::Invalid(format!("worker allocation failed: {e:?}")))?;
    // Hostnames are `t01nNN` with NN = global node index + 1: recover
    // the ClusterSim node each worker runs on.
    let worker_nodes: Vec<usize> = alloc
        .tasks
        .iter()
        .map(|t| {
            let digits: String = t
                .hostname
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_digit())
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            digits
                .parse::<usize>()
                .ok()
                .and_then(|n| n.checked_sub(1))
                .ok_or_else(|| {
                    CoreError::Invalid(format!(
                        "allocation hostname `{}` does not end in a 1-based node index",
                        t.hostname
                    ))
                })
        })
        .collect::<Result<_>>()?;
    let server = SessionServer::start_sim(cfg.clone(), &sim, &cluster, &worker_nodes);
    for t in tenants {
        if let Some(q) = t.quota {
            server.set_quota(&t.name, q);
        }
    }

    // Generators, all DES leaves: each counts down the latch when it is
    // done, and the controller quiesces and shuts down after the last.
    // A tenant with no jobs or an empty mix gets none.
    let latch = Arc::new(Latch {
        left: AtomicUsize::new(0),
        done: sim.condvar("serve.gens-done"),
    });
    for (tidx, t) in tenants.iter().enumerate() {
        if t.mix.is_empty() || t.jobs == 0 {
            continue;
        }
        match t.arrival {
            Arrival::Open { rate_hz } => {
                latch.left.fetch_add(1, Ordering::Relaxed);
                let open = OpenLoop {
                    tenant: Tenant::new(&server, t, &latch, 0x0600 + tidx as u64, seed),
                    rate_hz,
                    left: t.jobs,
                    arrived: false,
                };
                sim.spawn_leaf(&format!("loadgen-{}-open", t.name), open);
            }
            Arrival::Closed { clients, think_s } => {
                let clients = clients.max(1);
                for c in 0..clients {
                    latch.left.fetch_add(1, Ordering::Relaxed);
                    let substream = 0x0C10 + (tidx as u64) * 97 + c as u64;
                    let client = Client {
                        tenant: Tenant::new(&server, t, &latch, substream, seed),
                        think_s,
                        // Split this tenant's jobs over its clients.
                        left: t.jobs / clients + usize::from(c < t.jobs % clients),
                        phase: Phase::Submit,
                    };
                    sim.spawn_leaf(&format!("loadgen-{}-c{c}", t.name), client);
                }
            }
        }
    }
    let controller = Controller {
        srv: Arc::clone(&server),
        latch,
        quiescing: false,
    };
    sim.spawn_leaf("loadgen-controller", controller);

    sim.run();

    // Summarize.
    let results = server.take_results();
    let makespan = results.iter().map(|r| r.finished_s).fold(0.0f64, f64::max);
    let mut names: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
    names.sort();
    names.dedup();
    let mut summaries = Vec::with_capacity(names.len());
    let (mut all_completed, mut all_submitted, mut all_rejected, mut all_shed) =
        (0u64, 0u64, 0u64, 0u64);
    for name in names {
        let mine: Vec<&JobResult> = results.iter().filter(|r| r.tenant == name).collect();
        let mut lat: Vec<f64> = mine
            .iter()
            .filter(|r| r.error.is_none())
            .map(|r| r.finished_s - r.submitted_s)
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let usage = server.usage(&name);
        let completed = lat.len() as u64;
        let submitted = usage.admitted + usage.rejected;
        let mean = if lat.is_empty() {
            0.0
        } else {
            lat.iter().sum::<f64>() / lat.len() as f64
        };
        let mean_batch = if mine.is_empty() {
            0.0
        } else {
            mine.iter().map(|r| r.batch_size as f64).sum::<f64>() / mine.len() as f64
        };
        all_completed += completed;
        all_submitted += submitted;
        all_rejected += usage.rejected;
        all_shed += usage.shed;
        summaries.push(TenantSummary {
            tenant: name,
            submitted,
            completed,
            rejected: usage.rejected,
            shed: usage.shed,
            p50_s: quantile(&lat, 0.50),
            p99_s: quantile(&lat, 0.99),
            p999_s: quantile(&lat, 0.999),
            mean_s: mean,
            throughput_jobs_per_s: if makespan > 0.0 {
                completed as f64 / makespan
            } else {
                0.0
            },
            rejection_rate: if submitted > 0 {
                usage.rejected as f64 / submitted as f64
            } else {
                0.0
            },
            mean_batch,
        });
    }
    let (batches, batched_jobs) = server.batch_stats();
    Ok(LoadReport {
        seed,
        makespan_s: makespan,
        submitted: all_submitted,
        completed: all_completed,
        rejected: all_rejected,
        shed: all_shed,
        throughput_jobs_per_s: if makespan > 0.0 {
            all_completed as f64 / makespan
        } else {
            0.0
        },
        tenants: summaries,
        plan_cache: server.plan_cache().stats(),
        batches,
        batched_jobs,
        mean_batch: if batches > 0 {
            batched_jobs as f64 / batches as f64
        } else {
            0.0
        },
        des: sim.stats(),
    })
}

impl LoadReport {
    /// Deterministic JSON rendering (stable key order, fixed float
    /// formatting) — what `bench_serving` writes and what the CI
    /// byte-identity check compares.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"makespan_s\": {:.9},\n", self.makespan_s));
        s.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        s.push_str(&format!("  \"completed\": {},\n", self.completed));
        s.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        s.push_str(&format!("  \"shed\": {},\n", self.shed));
        s.push_str(&format!(
            "  \"throughput_jobs_per_s\": {:.9},\n",
            self.throughput_jobs_per_s
        ));
        s.push_str(&format!("  \"batches\": {},\n", self.batches));
        s.push_str(&format!("  \"batched_jobs\": {},\n", self.batched_jobs));
        s.push_str(&format!("  \"mean_batch\": {:.9},\n", self.mean_batch));
        s.push_str(&format!(
            "  \"plan_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {} }},\n",
            self.plan_cache.hits,
            self.plan_cache.misses,
            self.plan_cache.evictions,
            self.plan_cache.entries
        ));
        s.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"tenant\": \"{}\",\n", t.tenant));
            s.push_str(&format!("      \"submitted\": {},\n", t.submitted));
            s.push_str(&format!("      \"completed\": {},\n", t.completed));
            s.push_str(&format!("      \"rejected\": {},\n", t.rejected));
            s.push_str(&format!("      \"shed\": {},\n", t.shed));
            s.push_str(&format!("      \"p50_s\": {:.9},\n", t.p50_s));
            s.push_str(&format!("      \"p99_s\": {:.9},\n", t.p99_s));
            s.push_str(&format!("      \"p999_s\": {:.9},\n", t.p999_s));
            s.push_str(&format!("      \"mean_s\": {:.9},\n", t.mean_s));
            s.push_str(&format!(
                "      \"throughput_jobs_per_s\": {:.9},\n",
                t.throughput_jobs_per_s
            ));
            s.push_str(&format!(
                "      \"rejection_rate\": {:.9},\n",
                t.rejection_rate
            ));
            s.push_str(&format!("      \"mean_batch\": {:.9}\n", t.mean_batch));
            s.push_str(if i + 1 == self.tenants.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}
