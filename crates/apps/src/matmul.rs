//! Tiled matrix-matrix multiplication (paper §IV, Figs. 4 & 8).
//!
//! Map-reduce over tile products: the input matrices are pre-tiled into
//! a shared (Lustre-modeled) tile store; workers stream `(A_ik, B_kj)`
//! tile pairs through a prefetched input pipeline, multiply them on
//! their GPU and push partial products into one of the reducers' FIFO
//! queues (keyed by the parity of the target tile index, as the paper
//! does with two reducers for odd/even targets); reducers accumulate
//! partials into the output tiles and store them.

use crate::supervised::{
    decode_keyed, encode_keyed, recv_resume, resume_queue, run_app, run_pipeline, send_resume,
    AppLaunch, AppRun, Checkpointer, SupervisedStats, CKPT_KEEP,
};
use crate::{AppError, FaultSetup};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use tfhpc_core::{CoreError, Graph, NodeId, OpKernel, Resources, Result as CoreResult};
use tfhpc_dist::{JobSpec, Server, TaskCtx, TaskKey};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::Platform;
use tfhpc_tensor::{tensor::mix_seed, DType, Tensor};

/// Effective reducer-side accumulate throughput, GB/s: each partial is
/// dequeued, deserialized from the session into a NumPy array and added
/// in Python — far below native memcpy (§VIII's Python-performance
/// discussion). Calibrated against Fig. 8's Kebnekaise ceiling.
pub const REDUCER_ACCUM_GBS: f64 = 0.6;

/// Tiled matmul configuration.
#[derive(Debug, Clone)]
pub struct MatmulConfig {
    /// Matrix dimension N (N×N inputs).
    pub n: usize,
    /// Tile edge (4096 on K420, 8192 on K80 in the paper).
    pub tile: usize,
    /// Number of GPU workers.
    pub workers: usize,
    /// Number of reducers (the paper uses 2: odd/even targets).
    pub reducers: usize,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Simulated (virtual time, synthetic tiles) or real execution.
    pub simulated: bool,
    /// Input-pipeline prefetch depth.
    pub prefetch: usize,
}

impl MatmulConfig {
    /// Tiles per matrix edge.
    pub fn nt(&self) -> usize {
        assert!(
            self.n.is_multiple_of(self.tile),
            "matrix dim {} not divisible by tile {}",
            self.n,
            self.tile
        );
        self.n / self.tile
    }

    /// Total tile products (`nt³`).
    pub fn products(&self) -> usize {
        self.nt().pow(3)
    }

    /// Estimated flop count, as the paper reports it: `2N³ − N²`.
    pub fn flops(&self) -> f64 {
        let n = self.n as f64;
        2.0 * n * n * n - n * n
    }
}

/// Tiled matmul result.
#[derive(Debug, Clone)]
pub struct MatmulReport {
    /// Sustained Gflop/s over the whole run.
    pub gflops: f64,
    /// Elapsed seconds (virtual or wall).
    pub elapsed_s: f64,
    /// Configuration echo.
    pub n: usize,
    /// Worker count echo.
    pub workers: usize,
}

/// Key of tile `A[i,k]` in the shared store.
pub fn a_key(i: usize, k: usize) -> Vec<i64> {
    vec![0, i as i64, k as i64]
}

/// Key of tile `B[k,j]`.
pub fn b_key(k: usize, j: usize) -> Vec<i64> {
    vec![1, k as i64, j as i64]
}

/// Key of output tile `C[i,j]`.
pub fn c_key(i: usize, j: usize) -> Vec<i64> {
    vec![2, i as i64, j as i64]
}

/// Pre-tile the input matrices into `store` (the offline pre-processing
/// step the paper performs before measurement). Synthetic tiles in
/// simulated mode; seeded dense random tiles otherwise.
pub fn populate_tiles(store: &tfhpc_core::TileStore, cfg: &MatmulConfig, seed: u64) {
    let nt = cfg.nt();
    let make = |s: u64| {
        if cfg.simulated {
            Tensor::synthetic(DType::F32, [cfg.tile, cfg.tile], s)
        } else {
            tfhpc_tensor::rng::random_uniform(DType::F32, [cfg.tile, cfg.tile], s)
                .expect("tile generation")
        }
    };
    for i in 0..nt {
        for k in 0..nt {
            store.put(a_key(i, k), make(mix_seed(seed, (i * nt + k) as u64)));
        }
    }
    for k in 0..nt {
        for j in 0..nt {
            store.put(b_key(k, j), make(mix_seed(seed ^ 0xB, (k * nt + j) as u64)));
        }
    }
}

/// Worker-side push: route the partial product to the reducer whose
/// parity matches the target tile index (paper: odd/even reducers).
struct PushToParityQueue {
    server: Arc<Server>,
    reducers: usize,
    nt: usize,
}

impl OpKernel for PushToParityQueue {
    fn name(&self) -> &str {
        "PushToParityQueue"
    }

    fn compute(&self, _res: &Resources, inputs: &[Tensor]) -> CoreResult<Vec<Tensor>> {
        let target = inputs[0].as_i64()?;
        let (i, j) = (target[0] as usize, target[1] as usize);
        let parity = (i * self.nt + j) % self.reducers;
        match self.server.remote_enqueue(
            &TaskKey::new("reducer", parity),
            "acc",
            vec![inputs[0].clone(), inputs[1].clone()],
            None,
        ) {
            // The reducer closes its queue once every target it owns is
            // complete; a duplicate partial resent by a restarted worker
            // can safely be dropped on the floor.
            Err(CoreError::QueueClosed(_)) => Ok(vec![]),
            other => other.map(|()| vec![]),
        }
    }
}

/// Reply to worker `w`'s resume probe with this reducer's set of
/// already-finished target tiles, as a count-prefixed
/// `[len, i0, j0, ...]` i64 list on the worker's `resume` queue, so the
/// (re)started worker skips the corresponding products.
fn reply_done(ctx: &TaskCtx, w: usize, done: &BTreeMap<(usize, usize), Tensor>) -> CoreResult<()> {
    let mut list = vec![done.len() as i64];
    list.extend(done.keys().flat_map(|&(i, j)| [i as i64, j as i64]));
    send_resume(ctx, w, &list)
}

/// The output tiles reducer `r` accumulates: those whose index has its
/// parity.
fn owned_targets(cfg: &MatmulConfig, r: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let nt = cfg.nt();
    (0..nt)
        .flat_map(move |i| (0..nt).map(move |j| (i, j)))
        .filter(move |(i, j)| (i * nt + j) % cfg.reducers == r)
}

fn reducer_body(
    ctx: &TaskCtx,
    cfg: &MatmulConfig,
    store: &Arc<tfhpc_core::TileStore>,
    ckpt_every: Option<usize>,
) -> CoreResult<()> {
    let nt = cfg.nt();
    let r = ctx.index();
    let queue = ctx.server.resources.create_queue("acc", 8);
    let my_targets = owned_targets(cfg, r).count();
    // Under supervision, reinstate the newest valid checkpoint. Workers
    // learn the finished set by *pulling* (a resume probe answered
    // inside the accumulate loop below) rather than by a push at start:
    // a partially-restarted worker arrives mid-generation, long after
    // any startup broadcast would have been consumed by its crashed
    // predecessor.
    let ckpt = ckpt_every.map(|_| Checkpointer::new(Arc::clone(store), r, CKPT_KEEP));
    let mut finished: BTreeMap<(usize, usize), Tensor> = BTreeMap::new();
    if let Some(ckpt) = &ckpt {
        if ctx.attempt() > 0 {
            if let Some((_, payload)) = ckpt.latest_valid(ctx) {
                finished = decode_keyed(&payload)?
                    .into_iter()
                    .map(|([i, j], tile)| ((i, j), tile))
                    .collect();
            }
        }
    }
    let restored = finished.len();
    // Partials buffered per target, keyed by k: summing in ascending-k
    // order makes the result independent of arrival order, so a
    // restarted run reproduces the uninterrupted one bit for bit.
    // Duplicate (i,j,k) partials resent by a restarted worker overwrite
    // their bit-identical originals, so the loop runs on target
    // completion rather than a fixed dequeue count.
    let mut pending: std::collections::HashMap<(usize, usize), BTreeMap<usize, Tensor>> =
        std::collections::HashMap::new();
    let tr = tfhpc_obs::trace::global();
    while finished.len() < my_targets {
        let _s = tr.span("matmul.accumulate");
        let tuple = queue.dequeue()?;
        let key = tuple[0].as_i64()?.to_vec();
        if key[0] < 0 {
            // Resume probe from worker key[1]: reply with the targets
            // finished so far.
            reply_done(ctx, key[1] as usize, &finished)?;
            continue;
        }
        let (i, j, k) = (key[0] as usize, key[1] as usize, key[2] as usize);
        let part = tuple[1].clone();
        // NumPy-style accumulation on the reducer's host: dequeue,
        // deserialize and add, at Python rates rather than memcpy rates.
        let bytes = part.byte_size() as f64;
        // Not the entry API: the completion arm below reborrows
        // `finished` (len + checkpoint encode) while the guard's
        // entry would still be held.
        #[allow(clippy::map_entry)]
        if !finished.contains_key(&(i, j)) {
            let slot = pending.entry((i, j)).or_default();
            slot.insert(k, part);
            if slot.len() == nt {
                let parts = pending.remove(&(i, j)).expect("just inserted");
                let mut sum: Option<Tensor> = None;
                for (_, p) in parts {
                    sum = Some(match sum {
                        Some(cur) => tfhpc_tensor::ops::add(&cur, &p)?,
                        None => p,
                    });
                }
                finished.insert((i, j), sum.expect("nt > 0"));
                if let (Some(ckpt), Some(every)) = (&ckpt, ckpt_every) {
                    let done = finished.len() - restored;
                    if done.is_multiple_of(every) {
                        let ordinal = (done / every) as u64;
                        let payload =
                            encode_keyed(finished.iter().map(|(&(i, j), tile)| ([i, j], tile)))?;
                        ckpt.save(ctx, ordinal, finished.len() as u64, &payload)?;
                    }
                }
            }
        }
        if let Some(me) = tfhpc_sim::des::current() {
            me.advance(bytes / (REDUCER_ACCUM_GBS * 1e9));
        }
    }
    // Every owned target is complete: close the queue so late duplicate
    // partials bounce (`QueueClosed`, dropped by the push kernel) and a
    // worker probing after this point learns "everything here is done"
    // from the same error — then answer any probe that was already
    // buffered before the close, or its sender waits forever.
    queue.close();
    while let Ok(Some(tuple)) = queue.try_dequeue() {
        let key = tuple[0].as_i64()?.to_vec();
        if key[0] < 0 {
            reply_done(ctx, key[1] as usize, &finished)?;
        }
    }
    // Store the finished output tiles (Lustre writes).
    let _s = tr.span("matmul.store_tiles");
    for ((i, j), tile) in finished {
        if let Some(sim) = &ctx.server.devices.sim {
            sim.cluster.pfs.write(sim.node, tile.byte_size() as u64);
        }
        store.put(c_key(i, j), tile);
    }
    Ok(())
}

fn worker_body(
    ctx: &TaskCtx,
    cfg: &MatmulConfig,
    store: &Arc<tfhpc_core::TileStore>,
    supervised: bool,
) -> CoreResult<()> {
    let nt = cfg.nt();
    let w = ctx.index();
    // Under supervision, probe every reducer for its finished-target
    // set before producing anything, and skip products whose target
    // tile already survived (in a checkpoint after a gang restart, or
    // live on a surviving reducer after a partial one). A closed `acc`
    // queue means that reducer already completed everything it owns.
    let mut skip: HashSet<(usize, usize)> = HashSet::new();
    if supervised {
        let resume = resume_queue(ctx, cfg.reducers.max(1));
        let probe = Tensor::from_i64([2], vec![-1, w as i64])?;
        let mut awaiting = 0usize;
        for r in 0..cfg.reducers {
            match ctx.server.remote_enqueue(
                &TaskKey::new("reducer", r),
                "acc",
                vec![probe.clone()],
                None,
            ) {
                Ok(()) => awaiting += 1,
                Err(CoreError::QueueClosed(_)) => skip.extend(owned_targets(cfg, r)),
                Err(e) => return Err(e),
            }
        }
        for _ in 0..awaiting {
            let list = recv_resume(&resume)?;
            let n_done = list[0] as usize;
            for d in 0..n_done {
                skip.insert((list[1 + 2 * d] as usize, list[2 + 2 * d] as usize));
            }
        }
    }
    // The shared product list, sharded across workers.
    let elements: Vec<(usize, usize, usize)> = (0..nt)
        .flat_map(|i| (0..nt).flat_map(move |j| (0..nt).map(move |k| (i, j, k))))
        .enumerate()
        .filter(|(e, t)| e % cfg.workers == w && !skip.contains(&(t.0, t.1)))
        .map(|(_, t)| t)
        .collect();

    // Input pipeline: tile pairs from the PFS -> GPU matmul -> push.
    let server = Arc::clone(&ctx.server);
    let store = Arc::clone(store);
    let load = move |(i, j, k): (usize, usize, usize)| {
        let a = store.get(&a_key(i, k)).expect("tile A missing");
        let b = store.get(&b_key(k, j)).expect("tile B missing");
        if let Some(sim) = &server.devices.sim {
            sim.cluster
                .pfs
                .read(sim.node, (a.byte_size() + b.byte_size()) as u64);
        }
        let target = Tensor::from_i64([3], vec![i as i64, j as i64, k as i64]).expect("target key");
        [a, b, target]
    };
    let graph = |g: &mut Graph, [a, b, target]: [NodeId; 3]| {
        let c = g.with_device(tfhpc_core::Placement::Gpu(0), |g| g.matmul(a, b));
        let push: Arc<dyn OpKernel> = Arc::new(PushToParityQueue {
            server: Arc::clone(&ctx.server),
            reducers: cfg.reducers,
            nt,
        });
        g.custom(push, &[target, c], &[])
    };
    let (filler, depth) = (format!("pipe.{w}"), cfg.prefetch.max(1));
    run_pipeline(ctx, &filler, depth, elements, load, graph, "matmul.step")
}

/// One matmul launch; `ckpt_every = Some(n)` runs the supervised
/// checkpoint/resume protocol under `faults`.
fn launch_matmul(
    platform: &Platform,
    cfg: &MatmulConfig,
    ckpt_every: Option<usize>,
    faults: Option<&FaultSetup>,
) -> Result<(MatmulReport, AppRun), AppError> {
    if cfg.workers == 0 || cfg.reducers == 0 {
        return Err(AppError::Config("workers and reducers must be > 0".into()));
    }
    if !cfg.n.is_multiple_of(cfg.tile) {
        return Err(AppError::Config(format!(
            "matrix dim {} must be divisible by tile {}",
            cfg.n, cfg.tile
        )));
    }
    let launch = AppLaunch {
        app: "matmul",
        store: "tiles",
        platform,
        jobs: vec![
            JobSpec::new("reducer", cfg.reducers, 0),
            JobSpec::new("worker", cfg.workers, 1),
        ],
        simulated: cfg.simulated,
        protocol: cfg.protocol,
        faults,
        ckpt_every,
        external: None,
        traced: false,
    };
    let body_cfg = cfg.clone();
    let run = run_app(
        launch,
        |store| populate_tiles(store, cfg, 0xA17),
        move |ctx, store| {
            if ctx.job() == "reducer" {
                reducer_body(ctx, &body_cfg, store, ckpt_every)
            } else {
                worker_body(ctx, &body_cfg, store, ckpt_every.is_some())
            }
        },
    )?;
    let elapsed_s = run.launched.elapsed_s;
    let report = MatmulReport {
        gflops: cfg.flops() / elapsed_s / 1e9,
        elapsed_s,
        n: cfg.n,
        workers: cfg.workers,
    };
    Ok((report, run))
}

/// Run the tiled matmul on `platform`.
pub fn run_matmul(platform: &Platform, cfg: &MatmulConfig) -> Result<MatmulReport, AppError> {
    run_matmul_with_sim(platform, cfg).map(|(r, _)| r)
}

/// [`run_matmul`] also returning the DES utilization report
/// (per-resource busy seconds, sorted) for simulated runs.
pub fn run_matmul_with_sim(
    platform: &Platform,
    cfg: &MatmulConfig,
) -> Result<(MatmulReport, Vec<(String, f64)>), AppError> {
    let (report, run) = launch_matmul(platform, cfg, None, None)?;
    let utilization = run.launched.sim.map(|s| s.resource_report());
    Ok((report, utilization.unwrap_or_default()))
}

/// Run the tiled matmul under checkpoint-restart supervision with fault
/// injection: each reducer checkpoints its finished output tiles (sealed,
/// torn/stale-injectable) every `ckpt_every` completions, and after a
/// gang restart it restores the newest valid generation and hands every
/// worker the set of already-finished targets to skip. Partials are
/// summed in ascending-k order, so the recovered product is bit-identical
/// to a fault-free run's. Returns the report, the integrity-plane stats
/// and the shared tile store (output tiles under [`c_key`]).
pub fn run_matmul_supervised(
    platform: &Platform,
    cfg: &MatmulConfig,
    ckpt_every: usize,
    faults: &FaultSetup,
) -> Result<(MatmulReport, SupervisedStats, Arc<tfhpc_core::TileStore>), AppError> {
    let (report, run) = launch_matmul(platform, cfg, Some(ckpt_every), Some(faults))?;
    Ok((report, run.stats, run.store))
}

/// Real-mode correctness check: run a small problem with dense tiles
/// and compare the accumulated C against a direct multiply. Returns the
/// max absolute elementwise error.
pub fn verify_small(n: usize, tile: usize, workers: usize) -> Result<f64, AppError> {
    let cfg = MatmulConfig {
        n,
        tile,
        workers,
        reducers: 2.min(workers),
        protocol: Protocol::Grpc,
        simulated: false,
        prefetch: 2,
    };
    let (_, run) = launch_matmul(&tfhpc_sim::platform::tegner_k80(), &cfg, None, None)?;
    let (store, nt) = (run.store, cfg.nt());
    let max_err = || -> CoreResult<f64> {
        let mut max_err = 0f64;
        for i in 0..nt {
            for j in 0..nt {
                let mut want: Option<Tensor> = None;
                for k in 0..nt {
                    let a = store.get(&a_key(i, k))?;
                    let p = tfhpc_tensor::matmul::matmul(&a, &store.get(&b_key(k, j))?)?;
                    want = Some(match want {
                        None => p,
                        Some(cur) => tfhpc_tensor::ops::add(&cur, &p)?,
                    });
                }
                let got = store.get(&c_key(i, j))?;
                let want = want.expect("nt > 0");
                for (x, y) in got.as_f32()?.iter().zip(want.as_f32()?) {
                    max_err = max_err.max((x - y).abs() as f64);
                }
            }
        }
        Ok(max_err)
    };
    Ok(max_err()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_core::{TensorProto, TileStore};
    use tfhpc_proto::Message;
    use tfhpc_sim::platform;

    fn sim_cfg(n: usize, tile: usize, workers: usize) -> MatmulConfig {
        MatmulConfig {
            n,
            tile,
            workers,
            reducers: 2,
            protocol: Protocol::Rdma,
            simulated: true,
            prefetch: 3,
        }
    }

    /// Every output tile of `got` is bitwise the tile of `want`.
    fn assert_same_product(cfg: &MatmulConfig, got: &TileStore, want: &TileStore) {
        let nt = cfg.nt();
        for (i, j) in (0..nt).flat_map(|i| (0..nt).map(move |j| (i, j))) {
            assert_eq!(
                TensorProto(got.get(&c_key(i, j)).unwrap())
                    .to_bytes()
                    .unwrap(),
                TensorProto(want.get(&c_key(i, j)).unwrap())
                    .to_bytes()
                    .unwrap(),
                "recovered C[{i},{j}] differs from fault-free run"
            );
        }
    }

    #[test]
    fn config_math() {
        let c = sim_cfg(32768, 8192, 4);
        assert_eq!(c.nt(), 4);
        assert_eq!(c.products(), 64);
        assert!(c.flops() > 7.0e13);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_tile_panics() {
        sim_cfg(1000, 300, 2).nt();
    }

    #[test]
    fn indivisible_tile_rejected_cleanly() {
        let cfg = MatmulConfig {
            n: 30000,
            ..sim_cfg(32768, 8192, 2)
        };
        assert!(matches!(
            run_matmul(&platform::tegner_k80(), &cfg),
            Err(crate::AppError::Config(_))
        ));
    }

    #[test]
    fn simulated_run_reports_throughput() {
        let r = run_matmul(&platform::tegner_k80(), &sim_cfg(16384, 8192, 2)).unwrap();
        assert!(r.gflops > 0.0);
        assert!(r.elapsed_s > 0.0);
    }

    #[test]
    fn scaling_two_to_four_gpus_on_tegner() {
        // Paper: ~2x on Tegner K420 (and ~1.8x on K80) from 2→4 GPUs.
        let p = platform::tegner_k80();
        let r2 = run_matmul(&p, &sim_cfg(32768, 8192, 2)).unwrap();
        let r4 = run_matmul(&p, &sim_cfg(32768, 8192, 4)).unwrap();
        let speedup = r4.gflops / r2.gflops;
        assert!(
            (1.5..2.2).contains(&speedup),
            "Tegner 2→4 speedup {speedup}"
        );
    }

    #[test]
    fn kebnekaise_scales_worse_than_tegner() {
        // Paper: ~1.4x on Kebnekaise (NUMA/IO contention) vs ~1.8-2x on
        // Tegner for the same 2→4 GPU step.
        let keb = platform::kebnekaise_k80();
        let teg = platform::tegner_k80();
        let keb_speedup = run_matmul(&keb, &sim_cfg(32768, 8192, 4)).unwrap().gflops
            / run_matmul(&keb, &sim_cfg(32768, 8192, 2)).unwrap().gflops;
        let teg_speedup = run_matmul(&teg, &sim_cfg(32768, 8192, 4)).unwrap().gflops
            / run_matmul(&teg, &sim_cfg(32768, 8192, 2)).unwrap().gflops;
        assert!(
            keb_speedup < teg_speedup,
            "keb {keb_speedup} vs teg {teg_speedup}"
        );
    }

    #[test]
    fn real_mode_produces_correct_product() {
        let err = verify_small(64, 16, 2).unwrap();
        assert!(err < 1e-3, "max abs error {err}");
    }

    #[test]
    fn supervised_crash_and_corruption_reproduce_tiles() {
        use tfhpc_dist::CallPolicy;
        use tfhpc_sim::fault::FaultPlan;
        let p = platform::tegner_k80();
        let cfg = sim_cfg(16384, 4096, 2); // nt=4, 64 products, 2 reducers
        let (clean_report, clean_stats, clean_store) =
            run_matmul_supervised(&p, &cfg, 2, &crate::FaultSetup::default()).unwrap();
        assert_eq!(clean_stats.restarts, 0);

        // Tegner K80 packs 2 tasks per node: both reducers on node 0,
        // both workers on node 1. Crash the worker node mid-run, then
        // corrupt its link for a window the retries can ride out.
        let t = clean_report.elapsed_s;
        let plan = FaultPlan::new()
            .crash(1, t * 0.5)
            .link_corrupt(1, t * 0.6, t * 1.0);
        let faults = crate::FaultSetup::new(plan, 2).with_retry(CallPolicy::new(6, t * 0.02));
        let (_, stats, store) = run_matmul_supervised(&p, &cfg, 2, &faults).unwrap();
        assert!(stats.restarts >= 1, "restarts {}", stats.restarts);
        assert!(stats.corruption_detected > 0, "{stats:?}");
        assert_same_product(&cfg, &store, &clean_store);
    }

    #[test]
    fn partial_restart_spares_reducers_and_reproduces_tiles() {
        use tfhpc_sim::fault::FaultPlan;
        let p = platform::tegner_k80();
        let cfg = sim_cfg(16384, 4096, 2); // nt=4, 64 products, 2 reducers
        let (clean_report, _, clean_store) =
            run_matmul_supervised(&p, &cfg, 2, &crate::FaultSetup::default()).unwrap();

        // Tegner K80 packs 2 tasks per node: both reducers on node 0,
        // both workers on node 1. Crash the worker node mid-run with
        // partial restart enabled — only the two workers restart (onto
        // the spare nodes); the reducers keep their live accumulation
        // state and incarnation, and hand the rejoining workers their
        // finished-target sets through the resume handshake.
        let t = clean_report.elapsed_s;
        let plan = FaultPlan::new().crash(1, t * 0.5);
        let faults = crate::FaultSetup::new(plan, 2).with_partial_restart(["worker"], 2);
        let (_, stats, store) = run_matmul_supervised(&p, &cfg, 2, &faults).unwrap();
        assert!(stats.restarts >= 1, "{stats:?}");
        for (job, attempt) in [("reducer", 0), ("worker", 1)] {
            for t in 0..2 {
                let key = format!("/job:{job}/task:{t}");
                assert_eq!(stats.attempts.get(&key), Some(&attempt), "{stats:?}");
            }
        }
        // Both workers came back on spare nodes (2 and 3), off node 1.
        assert_eq!(stats.replacements.len(), 2, "{stats:?}");
        for (task, old, new) in &stats.replacements {
            assert!(task.starts_with("/job:worker/"), "{stats:?}");
            assert_eq!(*old, 1);
            assert!(*new >= 2, "{stats:?}");
        }
        assert_same_product(&cfg, &store, &clean_store);
    }
}
