//! Distributed Conjugate Gradient solver (paper §IV, Figs. 5 & 10).
//!
//! Row-partitioned dense CG: each worker holds a horizontal block of
//! the SPD matrix `A` as a GPU-resident variable (loaded once —
//! the data-locality trick the paper uses to stay under the 2 GB graph
//! limit: only the loop *body* is a graph; state lives in variables).
//! Per iteration:
//!
//! 1. `q_w = A_w · p` on the GPU, plus the partial `p_wᵀ q_w`;
//! 2. scalar all-reduce of `pᵀAp` through the queue-pair reducer;
//! 3. GPU updates `x += α p_w`, `r -= α q_w`, partial `r_wᵀ r_w`;
//! 4. scalar all-reduce of `rᵀr`;
//! 5. `p_w ← r_w + β p_w`, then an all-gather of the `p` slices
//!    through the reducer so every worker holds the full new `p`.
//!
//! Double precision throughout (64-bit, as the paper specifies).
//! Optional checkpoint/restart via the framework `Saver` — the
//! capability §II-B highlights.

use crate::supervised::{
    common_resume, recv_resume, resume_queue, run_app, send_resume, AppLaunch, Checkpointer,
    CKPT_KEEP,
};
use crate::{AppError, FaultSetup};
use parking_lot::Mutex;
use std::sync::Arc;
use tfhpc_core::{
    CoreError, Graph, Placement, Result as CoreResult, Saver, SessionOptions, TileStore,
};
use tfhpc_dist::{
    all_reduce_auto, ring_all_reduce, worker_all_reduce, JobSpec, ReduceOp, Reducer, TaskCtx,
    TaskKey,
};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::Platform;
use tfhpc_tensor::{DType, Tensor};

/// How the CG iteration's reductions are performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CgReduction {
    /// The paper's queue-pair reducer task (Fig. 5).
    #[default]
    QueuePair,
    /// Horovod-style ring all-reduce among the workers — no dedicated
    /// reducer task (the §VIII future-work direction, implemented).
    Ring,
    /// Like [`CgReduction::Ring`] but each reduction picks the fastest
    /// algorithm (ring / binomial tree / recursive halving-doubling)
    /// from its payload size, the group size and the link's α/β
    /// profile. All candidates obey the fixed reduction-order
    /// contract, so the choice never changes the computed bits.
    Auto,
}

/// CG configuration.
#[derive(Debug, Clone)]
pub struct CgConfig {
    /// Problem dimension N (N×N SPD matrix).
    pub n: usize,
    /// Number of GPU workers (row blocks).
    pub workers: usize,
    /// Iterations to run (the paper times 500).
    pub iterations: usize,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Simulated or real execution.
    pub simulated: bool,
    /// Checkpoint every k iterations (None = never).
    pub checkpoint_every: Option<usize>,
    /// Resume from a checkpoint left in the shared store.
    pub resume: bool,
    /// Reduction strategy (queue-pair reducer vs ring all-reduce).
    pub reduction: CgReduction,
}

impl CgConfig {
    /// Rows owned by each worker.
    pub fn rows_per_worker(&self) -> usize {
        assert!(
            self.n.is_multiple_of(self.workers),
            "N={} not divisible by {} workers",
            self.n,
            self.workers
        );
        self.n / self.workers
    }

    /// Paper's flop estimate: `iterations × 2 × N²` (mat-vec dominated).
    pub fn flops(&self) -> f64 {
        self.iterations as f64 * 2.0 * (self.n as f64) * (self.n as f64)
    }
}

/// CG result.
#[derive(Debug, Clone)]
pub struct CgReport {
    /// Sustained Gflop/s.
    pub gflops: f64,
    /// Elapsed seconds.
    pub elapsed_s: f64,
    /// Final squared residual norm (meaningful in real mode).
    pub rs_final: f64,
    /// Iterations actually executed (differs from config when resuming).
    pub iterations_run: usize,
    /// Gang restarts the supervisor performed (fault-injected runs).
    pub restarts: usize,
}

fn amat_key(w: usize) -> Vec<i64> {
    vec![0, w as i64]
}

fn b_key() -> Vec<i64> {
    vec![1]
}

fn x_key(w: usize) -> Vec<i64> {
    vec![2, w as i64]
}

/// Populate the shared store with the row blocks of a seeded SPD matrix
/// and the right-hand side `b` (offline pre-processing).
pub fn populate_problem(store: &TileStore, cfg: &CgConfig, seed: u64) {
    if store.get(&b_key()).is_ok() {
        // Already populated — a supervised rerun over the same PFS
        // namespace must not regenerate (and re-time) the inputs.
        return;
    }
    let rows = cfg.rows_per_worker();
    if cfg.simulated {
        for w in 0..cfg.workers {
            store.put(
                amat_key(w),
                Tensor::synthetic(DType::F64, [rows, cfg.n], seed.wrapping_add(w as u64)),
            );
        }
        store.put(b_key(), Tensor::synthetic(DType::F64, [cfg.n], seed ^ 0xB));
    } else {
        let a = tfhpc_tensor::rng::random_spd(cfg.n, seed, cfg.n as f64);
        for w in 0..cfg.workers {
            store.put(amat_key(w), a.slice_rows(w * rows, (w + 1) * rows).unwrap());
        }
        // b = A · ones so the solution is known to exist nicely.
        let ones = Tensor::full_f64([cfg.n], 1.0);
        let b = tfhpc_tensor::matmul::matvec(&a, &ones).unwrap();
        store.put(b_key(), b);
    }
}

struct WorkerGraph {
    graph: Arc<Graph>,
    ph_p: tfhpc_core::NodeId,
    ph_pw: tfhpc_core::NodeId,
    ph_alpha: tfhpc_core::NodeId,
    ph_beta: tfhpc_core::NodeId,
    assign_q: tfhpc_core::NodeId,
    pap_part: tfhpc_core::NodeId,
    rs_part: tfhpc_core::NodeId,
    p_new: tfhpc_core::NodeId,
}

/// Build the loop-body graph once (state in variables, as §IV advises
/// to stay under the 2 GB GraphDef limit).
fn build_worker_graph(n: usize, rows: usize) -> WorkerGraph {
    let mut g = Graph::new();
    let ph_p = g.placeholder(DType::F64, Some([n].into()));
    let ph_pw = g.placeholder(DType::F64, Some([rows].into()));
    let ph_alpha = g.placeholder(DType::F64, Some(tfhpc_tensor::Shape::scalar()));
    let ph_beta = g.placeholder(DType::F64, Some(tfhpc_tensor::Shape::scalar()));

    let (assign_q, pap_part, rs_part, p_new) = g.with_device(Placement::Gpu(0), |g| {
        // Phase 1: q = A·p ; partial p_wᵀ q.
        let a = g.var_read("A");
        let q = g.matvec(a, ph_p);
        let assign_q = g.assign("q", q);
        let pap_part = g.dot(ph_pw, q);

        // Phase 2: x += α p_w ; r -= α q ; partial rᵀr.
        let alpha_pw = g.mul_scalar(ph_pw, ph_alpha);
        let x_up = g.assign_add("x", alpha_pw);
        let qv = g.var_read("q");
        let alpha_q = g.mul_scalar(qv, ph_alpha);
        let r_old = g.var_read("r");
        let r_sub = g.sub(r_old, alpha_q);
        let r_up = g.assign("r", r_sub);
        let rs_part = g.dot(r_up, r_up);
        g.add_control(rs_part, x_up).expect("control edge");

        // Phase 3: p_w ← r + β p_w.
        let beta_pw = g.mul_scalar(ph_pw, ph_beta);
        let rv = g.var_read("r");
        let p_new = g.add(rv, beta_pw);

        (assign_q, pap_part, rs_part, p_new)
    });

    WorkerGraph {
        graph: Arc::new(g),
        ph_p,
        ph_pw,
        ph_alpha,
        ph_beta,
        assign_q,
        pap_part,
        rs_part,
        p_new,
    }
}

/// Gather service: collect `(index, slice)` pairs from every worker,
/// concatenate in index order, broadcast the full vector back.
fn serve_gather_round(ctx: &TaskCtx, workers: usize) -> CoreResult<()> {
    if let Some(me) = tfhpc_sim::des::current() {
        me.advance(tfhpc_dist::reducer::ROUND_OVERHEAD_S);
    }
    let in_q = ctx.server.resources.queue("gather.in")?;
    let mut parts: Vec<Option<Tensor>> = vec![None; workers];
    for _ in 0..workers {
        let tuple = in_q.dequeue()?;
        let idx = tuple[0].scalar_value_i64()? as usize;
        if idx >= workers {
            return Err(CoreError::Invalid(format!(
                "gather index {idx} out of range for {workers} workers"
            )));
        }
        parts[idx] = Some(tuple[1].clone());
    }
    let slices: Vec<Tensor> = parts
        .into_iter()
        .enumerate()
        .map(|(w, p)| {
            p.ok_or_else(|| {
                CoreError::Invalid(format!("gather round missing the slice of worker {w}"))
            })
        })
        .collect::<CoreResult<_>>()?;
    let bytes: f64 = slices.iter().map(|s| s.byte_size() as f64).sum();
    let full = Tensor::concat_vecs(&slices)?;
    // Host-side concatenation cost on the reducer.
    ctx.server.devices.charge_kernel(
        Placement::Cpu,
        &tfhpc_sim::device::Cost {
            flops: 0.0,
            bytes: 2.0 * bytes,
            class: tfhpc_sim::device::KernelClass::Elementwise,
        },
        true,
    );
    for w in 0..workers {
        ctx.server
            .resources
            .queue(&format!("gather.out.{w}"))?
            .enqueue(vec![full.clone()])?;
    }
    Ok(())
}

/// The workers, in index order: the group of the collective reductions.
fn worker_group(cfg: &CgConfig) -> Vec<TaskKey> {
    (0..cfg.workers)
        .map(|i| TaskKey::new("worker", i))
        .collect()
}

/// Reduce a scalar partial across workers under the configured strategy.
fn reduce_scalar(
    ctx: &TaskCtx,
    cfg: &CgConfig,
    channel: &str,
    w: usize,
    part: Tensor,
) -> CoreResult<f64> {
    match cfg.reduction {
        CgReduction::QueuePair => Ok(worker_all_reduce(
            &ctx.server,
            &TaskKey::new("reducer", 0),
            channel,
            w,
            part,
            Some(0),
        )?
        .scalar_value_f64()?),
        CgReduction::Ring | CgReduction::Auto => {
            let group = worker_group(cfg);
            let v = part.reshape([1])?;
            let reduced = if matches!(cfg.reduction, CgReduction::Auto) {
                all_reduce_auto(&ctx.server, &group, w, v, Some(0), ReduceOp::Sum)?
            } else {
                ring_all_reduce(&ctx.server, &group, w, v, Some(0))?
            };
            Ok(reduced.slice_range(0, 1)?.scalar_value_f64()?)
        }
    }
}

/// All-gather the new `p` slices into the full vector.
fn gather_p(
    ctx: &TaskCtx,
    cfg: &CgConfig,
    w: usize,
    rows: usize,
    p_w_new: Tensor,
) -> CoreResult<Tensor> {
    match cfg.reduction {
        CgReduction::QueuePair => {
            let reducer = TaskKey::new("reducer", 0);
            ctx.server.remote_enqueue(
                &reducer,
                "gather.in",
                vec![Tensor::scalar_i64(w as i64), p_w_new],
                Some(0),
            )?;
            let full = ctx
                .server
                .remote_dequeue(&reducer, &format!("gather.out.{w}"), Some(0))?;
            full.into_iter().next().ok_or_else(|| {
                CoreError::Invalid("gather broadcast returned an empty tuple".into())
            })
        }
        CgReduction::Ring | CgReduction::Auto => {
            // Pad the slice with zeros and all-reduce-sum: the sum of
            // disjoint padded slices IS the concatenation.
            let group = worker_group(cfg);
            let mut parts: Vec<Tensor> = Vec::with_capacity(3);
            if w > 0 {
                parts.push(Tensor::zeros(DType::F64, [w * rows]));
            }
            parts.push(p_w_new);
            if (w + 1) * rows < cfg.n {
                parts.push(Tensor::zeros(DType::F64, [cfg.n - (w + 1) * rows]));
            }
            let padded = Tensor::concat_vecs(&parts)?;
            if matches!(cfg.reduction, CgReduction::Auto) {
                all_reduce_auto(&ctx.server, &group, w, padded, Some(0), ReduceOp::Sum)
            } else {
                ring_all_reduce(&ctx.server, &group, w, padded, Some(0))
            }
        }
    }
}

/// Broadcast the gang's resume decision (`Some(k)` = restore the common
/// checkpoint of iteration `k`, `None` = cold start) to workers
/// `first..workers`. Exactly one task per generation decides (the
/// reducer in QueuePair mode, worker 0 under Ring) so every task acts
/// on the same snapshot of the store — a dying generation's last
/// checkpoint write landing between two independent `common_resume`
/// reads would otherwise split the gang across resume points and
/// deadlock the reduction protocol.
fn publish_resume_decision(
    ctx: &TaskCtx,
    first: usize,
    workers: usize,
    decision: Option<u64>,
) -> CoreResult<()> {
    let msg = match decision {
        Some(k) => [1, k as i64],
        None => [0, 0],
    };
    (first..workers).try_for_each(|w| send_resume(ctx, w, &msg))
}

/// Receive the generation's broadcast resume decision.
fn recv_resume_decision(ctx: &TaskCtx) -> CoreResult<Option<u64>> {
    let v = recv_resume(&resume_queue(ctx, 1))?;
    Ok((v[0] == 1).then(|| v[1] as u64))
}

fn worker_task(
    ctx: &TaskCtx,
    cfg: &CgConfig,
    store: &Arc<TileStore>,
    rs_out: &Arc<Mutex<f64>>,
) -> CoreResult<()> {
    let w = ctx.index();
    let n = cfg.n;
    let rows = cfg.rows_per_worker();

    // Load this worker's block of A from the PFS into a GPU variable
    // (once — reused every iteration).
    let a_block = store.get(&amat_key(w))?;
    if let Some(sim) = &ctx.server.devices.sim {
        sim.cluster.pfs.read(sim.node, a_block.byte_size() as u64);
        // H2D of the block through our PCIe link.
        ctx.server.devices.charge_transfer(
            Placement::Cpu,
            Placement::Gpu(0),
            a_block.byte_size() as u64,
        );
        // The resident block must fit in device memory.
        if let Some(cap) = ctx.server.devices.usable_memory(Placement::Gpu(0)) {
            if a_block.byte_size() as u64 > cap {
                return Err(CoreError::OutOfMemory {
                    device: ctx.server.devices.device_name(Placement::Gpu(0)),
                    needed: a_block.byte_size() as u64,
                    capacity: cap,
                });
            }
        }
    }
    let b = store.get(&b_key())?;
    let b_w = b.slice_range(w * rows, (w + 1) * rows)?;

    ctx.server.resources.create_variable("A", a_block);
    ctx.server
        .resources
        .create_variable("q", Tensor::zeros(DType::F64, [rows]));

    // Mutable driver state (host side): full p and scalar bookkeeping.
    // Resume point: an explicit `cfg.resume` trusts this worker's own
    // newest valid checkpoint (it must exist); a supervisor restart
    // follows the generation's broadcast decision (the newest
    // checkpoint valid for every worker, decided once — see
    // [`publish_resume_decision`]), cold-starting otherwise. Torn or
    // stale checkpoint generations fail validation and are skipped by
    // both paths — a corrupted latest never aborts the run.
    let ckpt = Checkpointer::new(Arc::clone(store), w, CKPT_KEEP);
    let restored: Option<(usize, Vec<u8>)> = if cfg.resume {
        let (k, payload) = ckpt.latest_valid(ctx).ok_or_else(|| {
            CoreError::data_loss(format!(
                "resume requested but worker {w} has no valid checkpoint"
            ))
        })?;
        Some((k as usize, payload))
    } else if ctx.attempt() > 0 {
        let decision = if matches!(cfg.reduction, CgReduction::Ring | CgReduction::Auto) && w == 0 {
            let d = common_resume(ctx, store, cfg.workers, CKPT_KEEP);
            publish_resume_decision(ctx, 1, cfg.workers, d)?;
            d
        } else {
            recv_resume_decision(ctx)?
        };
        match decision {
            None => None,
            Some(k) => {
                let payload = ckpt.restore_at(ctx, k).ok_or_else(|| {
                    CoreError::data_loss(format!(
                        "worker {w}: agreed resume checkpoint (iter {k}) failed validation"
                    ))
                })?;
                Some((k as usize, payload))
            }
        }
    } else {
        None
    };
    let resume_from = restored.as_ref().map(|(k, _)| *k);
    let mut p = b.clone();
    let mut start_iter = 0usize;
    if let Some((k, payload)) = restored {
        // Restore variables + driver state from the shared checkpoint.
        Saver::restore_from_bytes(&ctx.server.resources, &payload)?;
        start_iter = k;
        p = ctx.server.resources.variable("p_full")?.read();
    } else {
        ctx.server
            .resources
            .create_variable("x", Tensor::zeros(DType::F64, [rows]));
        ctx.server.resources.create_variable("r", b_w.clone());
        ctx.server.resources.create_variable("p_full", p.clone());
        ctx.server
            .resources
            .create_variable("rs_old", Tensor::scalar_f64(0.0));
    }

    let wg = build_worker_graph(n, rows);
    let sess = ctx
        .server
        .session_with_options(Arc::clone(&wg.graph), SessionOptions::from_env()?);

    // Initial residual reduction: rs = Σ_w r_wᵀ r_w.
    let mut rs_old = if resume_from.is_some() {
        ctx.server
            .resources
            .variable("rs_old")?
            .read()
            .scalar_value_f64()?
    } else {
        let r = ctx.server.resources.variable("r")?.read();
        let part = tfhpc_tensor::ops::dot(&r, &r)?;
        reduce_scalar(ctx, cfg, "rs", w, part)?
    };

    let tr = tfhpc_obs::trace::global();
    for iter in start_iter..cfg.iterations {
        let _iteration = tr.span("cg.iteration");
        ctx.check_faults()?;
        let p_w = p.slice_range(w * rows, (w + 1) * rows)?;

        // Phase 1: q = A p (GPU), partial pᵀAp, reduce.
        let out = {
            let _s = tr.span("cg.phase1.matvec");
            sess.run(
                &[wg.pap_part, wg.assign_q],
                &[(wg.ph_p, p.clone()), (wg.ph_pw, p_w.clone())],
            )?
        };
        let pap = {
            let _s = tr.span("cg.reduce.pap");
            reduce_scalar(ctx, cfg, "pap", w, out[0].clone())?
        };
        let alpha = rs_old / pap;

        // Phase 2: x, r updates + partial rᵀr, reduce.
        let out = {
            let _s = tr.span("cg.phase2.update");
            sess.run(
                &[wg.rs_part],
                &[
                    (wg.ph_pw, p_w.clone()),
                    (wg.ph_alpha, Tensor::scalar_f64(alpha)),
                ],
            )?
        };
        let rs_new = {
            let _s = tr.span("cg.reduce.rs");
            reduce_scalar(ctx, cfg, "rs", w, out[0].clone())?
        };
        let beta = rs_new / rs_old;
        rs_old = rs_new;

        // Phase 3: p_w ← r + β p_w, all-gather the new p.
        let out = {
            let _s = tr.span("cg.phase3.direction");
            sess.run(
                &[wg.p_new],
                &[(wg.ph_pw, p_w), (wg.ph_beta, Tensor::scalar_f64(beta))],
            )?
        };
        p = {
            let _s = tr.span("cg.gather_p");
            gather_p(ctx, cfg, w, rows, out[0].clone())?
        };

        // Checkpoint: variables + driver state into the shared store.
        if let Some(k) = cfg.checkpoint_every {
            if (iter + 1) % k == 0 {
                let _s = tr.span("cg.checkpoint");
                ctx.server.resources.variable("p_full")?.assign(p.clone())?;
                ctx.server
                    .resources
                    .variable("rs_old")?
                    .assign(Tensor::scalar_f64(rs_old))?;
                let blob = Saver::save_to_bytes(&ctx.server.resources)?;
                ckpt.save(ctx, ((iter + 1) / k) as u64, (iter + 1) as u64, &blob)?;
            }
        }
    }

    // Publish the solution block and the final residual.
    store.put(x_key(w), ctx.server.resources.variable("x")?.read());
    if w == 0 {
        *rs_out.lock() = rs_old;
    }
    Ok(())
}

/// Run distributed CG on `platform`.
pub fn run_cg(platform: &Platform, cfg: &CgConfig) -> Result<CgReport, AppError> {
    run_cg_with_store(platform, cfg, None).map(|(r, _)| r)
}

/// [`run_cg`] with an optional pre-existing shared store (the
/// persistent Lustre namespace) — required when resuming from a
/// checkpoint written by an earlier job. Returns the report and the
/// store (holding the solution blocks and any checkpoints).
pub fn run_cg_with_store(
    platform: &Platform,
    cfg: &CgConfig,
    external: Option<Arc<TileStore>>,
) -> Result<(CgReport, Arc<TileStore>), AppError> {
    run_cg_inner(platform, cfg, external, false, None).map(|(r, s, _, _)| (r, s))
}

/// [`run_cg`] under fault injection with checkpoint-restart
/// supervision: injected crashes gang-restart the solver at the exact
/// virtual fault instant, every task resumes from the latest
/// checkpoint common to all workers (cold-starting when none exists),
/// and the report carries the restart count. Because checkpoints are
/// bit-preserving, the final residual is identical to a fault-free run
/// of the same configuration. Also returns the run's
/// [`SupervisedStats`](crate::SupervisedStats) — per-task attempt
/// counters, partial-restart replacements and (when heartbeats are
/// enabled) the liveness detector's death verdicts with their
/// detection latencies — and the store.
pub fn run_cg_supervised(
    platform: &Platform,
    cfg: &CgConfig,
    faults: &FaultSetup,
) -> Result<(CgReport, crate::SupervisedStats, Arc<TileStore>), AppError> {
    run_cg_inner(platform, cfg, None, false, Some(faults)).map(|(r, s, _, st)| (r, st, s))
}

/// Run CG with DES occupancy tracing and return the Chrome-trace JSON
/// of the whole distributed execution — the reproduction of the paper's
/// Fig. 3 TensorFlow Timeline for the CG solver.
pub fn run_cg_traced(platform: &Platform, cfg: &CgConfig) -> Result<(CgReport, String), AppError> {
    run_cg_inner(platform, cfg, None, true, None).map(|(r, _, json, _)| (r, json))
}

fn run_cg_inner(
    platform: &Platform,
    cfg: &CgConfig,
    external: Option<Arc<TileStore>>,
    trace: bool,
    faults: Option<&FaultSetup>,
) -> Result<(CgReport, Arc<TileStore>, String, crate::SupervisedStats), AppError> {
    if cfg.workers == 0 {
        return Err(AppError::Config("workers must be > 0".into()));
    }
    if !cfg.n.is_multiple_of(cfg.workers) {
        return Err(AppError::Config(format!(
            "N={} must be divisible by the worker count {}",
            cfg.n, cfg.workers
        )));
    }
    if cfg.resume && external.is_none() {
        return Err(AppError::Config(
            "resume requires the store holding the checkpoint".into(),
        ));
    }
    let launch = AppLaunch {
        app: "cg",
        store: "cg",
        platform,
        jobs: match cfg.reduction {
            CgReduction::QueuePair => vec![
                JobSpec::new("reducer", 1, 0),
                JobSpec::new("worker", cfg.workers, 1),
            ],
            // Horovod-style: workers only, no dedicated reducer task.
            CgReduction::Ring | CgReduction::Auto => vec![JobSpec::new("worker", cfg.workers, 1)],
        },
        simulated: cfg.simulated,
        protocol: cfg.protocol,
        faults,
        ckpt_every: cfg.checkpoint_every,
        external,
        traced: trace,
    };
    let rs_out = Arc::new(Mutex::new(f64::NAN));
    let rs_out2 = Arc::clone(&rs_out);
    let cfg_body = cfg.clone();
    let populate = |store: &TileStore| {
        if !cfg.resume {
            populate_problem(store, cfg, 0xC6);
        }
    };
    let run = run_app(launch, populate, move |ctx, store| {
        if ctx.job() == "reducer" {
            reducer_task(ctx, &cfg_body, store)
        } else {
            worker_task(ctx, &cfg_body, store, &rs_out2)
        }
    })?;
    let elapsed_s = run.launched.elapsed_s;
    let report = CgReport {
        gflops: cfg.flops() / elapsed_s / 1e9,
        elapsed_s,
        rs_final: *rs_out.lock(),
        iterations_run: cfg.iterations,
        restarts: run.launched.restarts,
    };
    Ok((report, run.store, run.trace, run.stats))
}

/// The queue-pair reducer task. When resuming, fewer rounds remain and
/// the initial residual reduction was already served. The reducer is
/// the generation's single decider: it reads the common resume point
/// once and broadcasts it so every worker mirrors this decision exactly
/// (see [`publish_resume_decision`]).
fn reducer_task(ctx: &TaskCtx, cfg: &CgConfig, store: &Arc<TileStore>) -> CoreResult<()> {
    let done = if cfg.resume {
        Checkpointer::new(Arc::clone(store), 0, CKPT_KEEP)
            .latest_valid(ctx)
            .map(|(k, _)| k as usize)
    } else if ctx.attempt() > 0 {
        let d = common_resume(ctx, store, cfg.workers, CKPT_KEEP);
        publish_resume_decision(ctx, 0, cfg.workers, d)?;
        d.map(|k| k as usize)
    } else {
        None
    };
    let workers = cfg.workers;
    let pap = Reducer::new(Arc::clone(&ctx.server), "pap", workers, ReduceOp::Sum);
    let rs = Reducer::new(Arc::clone(&ctx.server), "rs", workers, ReduceOp::Sum);
    ctx.server.resources.create_queue("gather.in", workers * 2);
    for w in 0..workers {
        ctx.server
            .resources
            .create_queue(&format!("gather.out.{w}"), 2);
    }
    let tr = tfhpc_obs::trace::global();
    if done.is_none() {
        let _s = tr.span("cg.reduce.rs");
        rs.serve_round()?; // initial residual reduction
    }
    for _ in 0..cfg.iterations - done.unwrap_or(0) {
        let _round = tr.span("cg.reducer_round");
        {
            let _s = tr.span("cg.reduce.pap");
            pap.serve_round()?;
        }
        {
            let _s = tr.span("cg.reduce.rs");
            rs.serve_round()?;
        }
        {
            let _s = tr.span("cg.gather.serve");
            serve_gather_round(ctx, workers)?;
        }
    }
    Ok(())
}

/// Retrieve the assembled solution vector from a finished run's store.
pub fn gather_solution(store: &TileStore, cfg: &CgConfig) -> Result<Tensor, AppError> {
    let parts: Vec<Tensor> = (0..cfg.workers)
        .map(|w| store.get(&x_key(w)).map_err(AppError::Core))
        .collect::<Result<_, _>>()?;
    Tensor::concat_vecs(&parts).map_err(|e| AppError::Core(e.into()))
}

/// Serial reference CG (baseline for correctness + comparison).
pub fn serial_cg(a: &Tensor, b: &Tensor, iterations: usize) -> Result<(Tensor, f64), AppError> {
    use tfhpc_tensor::{matmul::matvec, ops, TensorError};
    let solve = || -> Result<(Tensor, f64), TensorError> {
        let mut x = Tensor::zeros(DType::F64, [b.num_elements()]);
        let mut r = b.clone();
        let mut p = b.clone();
        let mut rs_old = ops::dot(&r, &r)?.scalar_value_f64()?;
        for _ in 0..iterations {
            let q = matvec(a, &p)?;
            let alpha = rs_old / ops::dot(&p, &q)?.scalar_value_f64()?;
            // Owned axpy variants: dead operands (x, q, p) are moved so
            // the update happens in place; still-live ones are cloned.
            // Bit-identical to the borrowing forms either way.
            x = ops::axpy_owned(alpha, p.clone(), x)?;
            r = ops::axpy_owned(-alpha, q, r)?;
            let rs_new = ops::dot(&r, &r)?.scalar_value_f64()?;
            let beta = rs_new / rs_old;
            rs_old = rs_new;
            p = ops::axpy_owned(beta, p, r.clone())?;
        }
        Ok((x, rs_old))
    };
    solve().map_err(|e| AppError::Core(e.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_sim::platform;

    fn sim_cfg(n: usize, workers: usize) -> CgConfig {
        CgConfig {
            n,
            workers,
            iterations: 20,
            protocol: Protocol::Rdma,
            simulated: true,
            checkpoint_every: None,
            resume: false,
            reduction: CgReduction::QueuePair,
        }
    }

    #[test]
    fn flops_estimate_matches_paper_formula() {
        let c = CgConfig {
            iterations: 500,
            ..sim_cfg(16384, 4)
        };
        assert_eq!(c.flops(), 500.0 * 2.0 * 16384.0 * 16384.0);
        assert_eq!(c.rows_per_worker(), 4096);
    }

    #[test]
    fn simulated_run_completes() {
        let r = run_cg(&platform::kebnekaise_k80(), &sim_cfg(16384, 2)).unwrap();
        assert!(r.gflops > 0.0);
        assert!(r.elapsed_s > 0.0);
    }

    #[test]
    fn scaling_improves_with_more_gpus_at_32k() {
        // Paper: 1.6x (Keb K80) / 1.74x (Tegner K80) from 2→4 GPUs at
        // 32k over 500 timed iterations (shorter runs are dominated by
        // the one-time A-block load, which anti-scales on shared
        // Lustre clients).
        let p = platform::kebnekaise_k80();
        let gflops = |workers| {
            let cfg = CgConfig {
                iterations: 500,
                ..sim_cfg(32768, workers)
            };
            run_cg(&p, &cfg).unwrap().gflops
        };
        let speedup = gflops(4) / gflops(2);
        assert!((1.3..1.9).contains(&speedup), "2→4 speedup {speedup}");
    }

    #[test]
    fn small_problems_scale_poorly() {
        // Paper: little scaling at 16384² (GPU under-utilization).
        let p = platform::kebnekaise_v100();
        let gflops = |n, workers| {
            let cfg = CgConfig {
                iterations: 50,
                ..sim_cfg(n, workers)
            };
            run_cg(&p, &cfg).unwrap().gflops
        };
        let small_speedup = gflops(16384, 4) / gflops(16384, 2);
        let big_speedup = gflops(32768, 4) / gflops(32768, 2);
        assert!(
            small_speedup < big_speedup,
            "small {small_speedup} vs big {big_speedup}"
        );
    }

    #[test]
    fn ring_and_auto_reductions_match_queue_pair_bitwise() {
        // all_reduce_auto may pick a different algorithm per payload
        // size; the fixed reduction-order contract makes every choice
        // bit-identical to the central reducer.
        let mk = |reduction| CgConfig {
            n: 64,
            workers: 2,
            iterations: 20,
            protocol: Protocol::Grpc,
            simulated: false,
            checkpoint_every: None,
            resume: false,
            reduction,
        };
        let p = platform::tegner_k80();
        let (r1, s1) = run_cg_with_store(&p, &mk(CgReduction::QueuePair), None).unwrap();
        let x1 = gather_solution(&s1, &mk(CgReduction::QueuePair)).unwrap();
        for reduction in [CgReduction::Ring, CgReduction::Auto] {
            let (r2, s2) = run_cg_with_store(&p, &mk(reduction), None).unwrap();
            let x2 = gather_solution(&s2, &mk(reduction)).unwrap();
            assert_eq!(x1.as_f64().unwrap(), x2.as_f64().unwrap(), "{reduction:?}");
            assert!((r1.rs_final - r2.rs_final).abs() < 1e-15 * (1.0 + r1.rs_final));
        }
    }

    #[test]
    fn ring_and_auto_reductions_run_simulated() {
        for reduction in [CgReduction::Ring, CgReduction::Auto] {
            let cfg = CgConfig {
                reduction,
                iterations: 30,
                ..sim_cfg(16384, 4)
            };
            let r = run_cg(&platform::kebnekaise_k80(), &cfg).unwrap();
            assert!(r.gflops > 0.0, "{reduction:?}");
        }
    }

    #[test]
    fn indivisible_worker_count_rejected() {
        let cfg = CgConfig {
            workers: 3,
            ..sim_cfg(32768, 3)
        };
        assert!(matches!(
            run_cg(&platform::tegner_k80(), &cfg),
            Err(crate::AppError::Config(_))
        ));
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected_in_both_clocks() {
        let p = platform::tegner_k80();
        for simulated in [true, false] {
            let cfg = CgConfig {
                checkpoint_every: Some(0),
                simulated,
                ..sim_cfg(64, 2)
            };
            let faults = crate::FaultSetup::default();
            assert!(matches!(run_cg(&p, &cfg), Err(crate::AppError::Config(_))));
            assert!(matches!(
                run_cg_supervised(&p, &cfg, &faults),
                Err(crate::AppError::Config(_))
            ));
        }
    }

    #[test]
    fn supervised_crash_restart_reproduces_residual() {
        use tfhpc_sim::fault::FaultPlan;
        let cfg = CgConfig {
            iterations: 16,
            checkpoint_every: Some(4),
            ..sim_cfg(1024, 2)
        };
        let p = platform::tegner_k420();
        let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();
        assert_eq!(clean.restarts, 0);

        // Worker 1 lives on node 2 (reducer node 0, worker 0 node 1);
        // crash it mid-run and let the supervisor restart the gang
        // from the latest common checkpoint.
        let faults = crate::FaultSetup::new(FaultPlan::new().crash(2, clean.elapsed_s * 0.5), 2);
        let (faulty, _, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();
        assert_eq!(faulty.restarts, 1);
        // Bit-identical residual: the checkpoint preserves the exact
        // trajectory, and the rerun costs extra virtual time.
        assert_eq!(faulty.rs_final.to_bits(), clean.rs_final.to_bits());
        assert!(faulty.elapsed_s > clean.elapsed_s, "{}", faulty.elapsed_s);
    }

    #[test]
    fn supervised_hang_is_detected_and_reproduces_residual() {
        use tfhpc_sim::fault::FaultPlan;
        let cfg = CgConfig {
            iterations: 16,
            checkpoint_every: Some(4),
            ..sim_cfg(1024, 2)
        };
        let p = platform::tegner_k420();
        let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();

        // Worker 1 (node 2) hangs mid-run: unlike a crash, nothing
        // reports an error — the task parks inside its next remote op
        // and its heartbeat daemon goes silent. Only the deadline
        // detector can notice; it must declare the task dead within the
        // configured timeout (plus one sweep period of quantization) in
        // *virtual* time, and the gang restart from the latest common
        // checkpoint must reproduce the fault-free residual bit for bit.
        let t = clean.elapsed_s;
        let (hang_at, period, timeout) = (t * 0.5, t * 0.05, t * 0.2);
        let faults = crate::FaultSetup::new(FaultPlan::new().hang(2, hang_at), 2)
            .with_heartbeats(period, timeout);
        let (faulty, stats, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();
        assert_eq!(faulty.restarts, 1, "{stats:?}");
        assert_eq!(stats.deaths.len(), 1, "{stats:?}");
        let (ref task, detected_at, silence) = stats.deaths[0];
        assert_eq!(task, "/job:worker/task:1");
        assert!(silence >= timeout, "{stats:?}");
        assert!(
            detected_at - hang_at <= timeout + 2.0 * period + 1e-9,
            "detected at {detected_at}, hang at {hang_at}, timeout {timeout}"
        );
        assert_eq!(faulty.rs_final.to_bits(), clean.rs_final.to_bits());
        assert!(faulty.elapsed_s > clean.elapsed_s, "{}", faulty.elapsed_s);
    }

    #[test]
    fn real_mode_converges_to_reference() {
        let cfg = CgConfig {
            n: 64,
            workers: 2,
            iterations: 30,
            protocol: Protocol::Grpc,
            simulated: false,
            checkpoint_every: None,
            resume: false,
            reduction: CgReduction::QueuePair,
        };
        let r = run_cg(&platform::tegner_k80(), &cfg).unwrap();
        // b = A·ones with a heavily diagonal SPD matrix: CG converges
        // fast; residual must be tiny.
        assert!(r.rs_final < 1e-9, "rs_final = {}", r.rs_final);
    }
}
