//! The TensorFlow STREAM bandwidth micro-benchmark (paper §IV, Fig. 7).
//!
//! A two-task cluster (one parameter server, one worker on different
//! nodes). A vector lives on each task's device; the worker invokes an
//! `assign_add` that pushes its vector to the ps and adds it into the
//! ps-resident variable, once per invocation, through a session (so the
//! per-run dispatch overhead is included, exactly as measured by the
//! paper). The fetched value is *not* returned to the client — the
//! paper explicitly suppresses that extra transfer.

use crate::supervised::{run_app, AppLaunch, AppRun, Checkpointer, SupervisedStats, CKPT_KEEP};
use crate::{AppError, FaultSetup};
use parking_lot::Mutex;
use std::sync::Arc;
use tfhpc_core::{
    CoreError, Graph, OpKernel, Resources, Result as CoreResult, SessionOptions, TensorProto,
    TileStore,
};
use tfhpc_dist::{JobSpec, TaskCtx, TaskKey};
use tfhpc_proto::Message;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::Platform;
use tfhpc_tensor::{DType, Tensor};

/// STREAM configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Transfer size in bytes (the paper sweeps 2–128 MB).
    pub size_bytes: u64,
    /// Number of `assign_add` invocations (the paper uses 100).
    pub invocations: usize,
    /// Whether the vectors live in GPU memory (vs host memory).
    pub on_gpu: bool,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Run simulated (virtual time) or on host threads.
    pub simulated: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            size_bytes: 16 << 20,
            invocations: 100,
            on_gpu: true,
            protocol: Protocol::Rdma,
            simulated: true,
        }
    }
}

/// STREAM result.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Average bandwidth in MB/s (the paper's Fig. 7 metric).
    pub mbs: f64,
    /// Total worker-side seconds for all invocations.
    pub elapsed_s: f64,
    /// Bytes per invocation.
    pub size_bytes: u64,
    /// Protocol used.
    pub protocol: Protocol,
}

/// The worker-side op: push our vector into the ps variable.
struct AssignAddRemote {
    worker: Arc<tfhpc_dist::Server>,
    ps: TaskKey,
    vector: Tensor,
    src_gpu: Option<usize>,
    dst_gpu: Option<usize>,
}

impl OpKernel for AssignAddRemote {
    fn name(&self) -> &str {
        "AssignAddRemote"
    }

    fn compute(&self, _res: &Resources, _inputs: &[Tensor]) -> CoreResult<Vec<Tensor>> {
        self.worker.remote_assign_add(
            &self.ps,
            "stream_acc",
            &self.vector,
            self.src_gpu,
            self.dst_gpu,
        )?;
        Ok(vec![])
    }
}

/// One task of the ps/worker pair. With `ckpt_every` the worker alone
/// decides its resume point: it checkpoints the ps-resident accumulator
/// through its [`Checkpointer`] (sealed, torn/stale-injectable),
/// reinstates the newest valid snapshot after a restart and publishes
/// the final accumulator under key `[-1]` of `store`. The worker's loop
/// time lands in `loop_s`.
fn stream_task(
    ctx: &TaskCtx,
    store: &Arc<TileStore>,
    cfg: &StreamConfig,
    ckpt_every: Option<usize>,
    loop_s: &Mutex<f64>,
) -> CoreResult<()> {
    let n = (cfg.size_bytes / 8).max(1) as usize; // f64 elements
    let ckpt = ckpt_every.map(|every| (every, Checkpointer::new(Arc::clone(store), 0, CKPT_KEEP)));
    let gpu = cfg.on_gpu.then_some(0usize);
    // Metadata-only in virtual time, `fill` everywhere on the host.
    let vector = |seed: u64, fill: f64| {
        if cfg.simulated {
            Tensor::synthetic(DType::F64, [n], seed)
        } else {
            Tensor::full_f64([n], fill)
        }
    };
    let acc_init = || vector(0xACC, 0.0);
    if ctx.job() == "ps" {
        // The accumulator lives on the ps device. A gang restart
        // rebuilds the server with it; the worker then reinstates
        // the checkpointed state before replaying.
        ctx.server
            .resources
            .create_variable("stream_acc", acc_init());
        return Ok(());
    }
    let ps = TaskKey::new("ps", 0);
    let mut start_iter = 0usize;
    if let (Some((_, ckpt)), true) = (&ckpt, ctx.attempt() > 0) {
        // Overwrite (not add): after a *partial* restart the
        // surviving ps still holds the crashed attempt's sums, past
        // the checkpoint — or, when no checkpoint survived, past
        // zero, and replaying from there would double-count.
        let acc = match ckpt.latest_valid(ctx) {
            Some((it, payload)) => {
                start_iter = it as usize;
                TensorProto::decode(&payload).map_err(CoreError::from)?.0
            }
            None => acc_init(),
        };
        ctx.server
            .remote_assign(&ps, "stream_acc", &acc, gpu, gpu)?;
    }
    // Worker: build the assign_add graph and invoke it repeatedly.
    let mut g = Graph::new();
    let kernel: Arc<dyn OpKernel> = Arc::new(AssignAddRemote {
        worker: Arc::clone(&ctx.server),
        ps: ps.clone(),
        vector: vector(0x57EA, 1.0),
        src_gpu: gpu,
        dst_gpu: gpu,
    });
    let op = g.custom(kernel, &[], &[]);
    let sess = ctx
        .server
        .session_with_options(Arc::new(g), SessionOptions::from_env()?);
    let tr = tfhpc_obs::trace::global();
    let t0 = ctx.now();
    for it in start_iter..cfg.invocations {
        ctx.check_faults()?;
        // Invoke through the session without returning the value.
        let _s = tr.span("stream.assign_add");
        sess.run_no_fetch(&[op], &[])?;
        let done = it + 1;
        if let Some((every, ckpt)) = &ckpt {
            if done % every == 0 {
                let _c = tr.span("stream.checkpoint");
                let acc = ctx.server.remote_var_read(&ps, "stream_acc", gpu)?;
                let payload = TensorProto(acc).to_bytes().map_err(CoreError::from)?;
                ckpt.save(ctx, (done / every) as u64, done as u64, &payload)?;
            }
        }
    }
    *loop_s.lock() = ctx.now() - t0;
    if ckpt.is_some() {
        // Publish the final accumulator for bit-exact verification.
        let final_acc = ctx.server.remote_var_read(&ps, "stream_acc", gpu)?;
        store.put(vec![-1], final_acc);
    }
    Ok(())
}

/// One launch of the ps/worker pair, supervised when `supervision`
/// (`ckpt_every`, `faults`) is given. Returns the run and the seconds
/// the worker's loop took.
fn run_stream_inner(
    platform: &Platform,
    cfg: &StreamConfig,
    supervision: Option<(usize, &FaultSetup)>,
) -> Result<(AppRun, f64), AppError> {
    let gpus = usize::from(cfg.on_gpu);
    let ckpt_every = supervision.map(|(every, _)| every);
    let launch = AppLaunch {
        app: "stream",
        store: "stream",
        platform,
        jobs: vec![JobSpec::new("ps", 1, gpus), JobSpec::new("worker", 1, gpus)],
        simulated: cfg.simulated,
        protocol: cfg.protocol,
        faults: supervision.map(|(_, faults)| faults),
        ckpt_every,
        external: None,
        traced: false,
    };
    let loop_s = Arc::new(Mutex::new(0.0f64));
    let (cfg2, loop_s2) = (cfg.clone(), Arc::clone(&loop_s));
    let run = run_app(
        launch,
        |_| {},
        move |ctx, store| stream_task(ctx, store, &cfg2, ckpt_every, &loop_s2),
    )?;
    let loop_s = *loop_s.lock();
    Ok((run, loop_s))
}

fn report(cfg: &StreamConfig, elapsed_s: f64) -> StreamReport {
    let total_bytes = cfg.size_bytes as f64 * cfg.invocations as f64;
    StreamReport {
        mbs: total_bytes / elapsed_s / 1e6,
        elapsed_s,
        size_bytes: cfg.size_bytes,
        protocol: cfg.protocol,
    }
}

/// Run STREAM on `platform` and report bandwidth over the worker's
/// invocation loop.
pub fn run_stream(platform: &Platform, cfg: &StreamConfig) -> Result<StreamReport, AppError> {
    let (_, loop_s) = run_stream_inner(platform, cfg, None)?;
    Ok(report(cfg, loop_s))
}

/// Run STREAM under checkpoint-restart supervision with fault
/// injection, checkpointing every `ckpt_every` invocations. Returns
/// the report (over the whole launch, restarts included), the
/// integrity-plane stats and the final accumulator tensor —
/// bit-identical to a fault-free run's under any injected corruption +
/// crash schedule.
pub fn run_stream_supervised(
    platform: &Platform,
    cfg: &StreamConfig,
    ckpt_every: usize,
    faults: &FaultSetup,
) -> Result<(StreamReport, SupervisedStats, Tensor), AppError> {
    let (run, _) = run_stream_inner(platform, cfg, Some((ckpt_every, faults)))?;
    let final_acc = run.store.get(&[-1])?;
    Ok((report(cfg, run.launched.elapsed_s), run.stats, final_acc))
}

/// Results of the classic four-kernel device STREAM (McCalpin) run
/// against a device model — used to validate the simulator's memory
/// bandwidth constants rather than the network (which the paper's
/// variant measures).
#[derive(Debug, Clone)]
pub struct DeviceStreamReport {
    /// Copy bandwidth, GB/s.
    pub copy_gbs: f64,
    /// Scale bandwidth, GB/s.
    pub scale_gbs: f64,
    /// Add bandwidth, GB/s.
    pub add_gbs: f64,
    /// Triad bandwidth, GB/s.
    pub triad_gbs: f64,
}

/// Run the classic STREAM kernels on a platform's GPU model: each
/// kernel's bytes-touched are charged to the device and the achieved
/// bandwidth reported. Copy/Scale move 2 arrays, Add/Triad move 3.
pub fn run_device_stream(platform: &Platform, elements: usize) -> DeviceStreamReport {
    use tfhpc_sim::device::{Cost, KernelClass};
    let dev = &platform.node.gpu;
    let bytes1 = (elements * 8) as f64;
    let bw = |arrays: f64, flops_per_elem: f64| {
        let cost = Cost {
            flops: flops_per_elem * elements as f64,
            bytes: arrays * bytes1,
            class: KernelClass::Blas1,
        };
        let t = dev.kernel_time(&cost, true);
        arrays * bytes1 / t / 1e9
    };
    DeviceStreamReport {
        copy_gbs: bw(2.0, 0.0),
        scale_gbs: bw(2.0, 1.0),
        add_gbs: bw(3.0, 1.0),
        triad_gbs: bw(3.0, 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_sim::platform;

    fn run(platform: &Platform, on_gpu: bool, proto: Protocol, mb: u64) -> f64 {
        run_stream(
            platform,
            &StreamConfig {
                size_bytes: mb << 20,
                invocations: 20,
                on_gpu,
                protocol: proto,
                simulated: true,
            },
        )
        .unwrap()
        .mbs
    }

    #[test]
    fn tegner_host_rdma_exceeds_half_theoretical() {
        let p = platform::tegner_k420();
        let mbs = run(&p, false, Protocol::Rdma, 128);
        // Paper: >6 GB/s, >50% of the 12 GB/s theoretical bandwidth.
        assert!(mbs > 6000.0, "host RDMA {mbs} MB/s");
        assert!(mbs > 0.5 * p.net.ib_theoretical_gbs * 1000.0);
    }

    #[test]
    fn tegner_gpu_rdma_saturates_near_1300() {
        let mbs = run(&platform::tegner_k420(), true, Protocol::Rdma, 128);
        assert!((1000.0..1500.0).contains(&mbs), "gpu RDMA {mbs} MB/s");
    }

    #[test]
    fn kebnekaise_gpu_rdma_saturates_near_2300() {
        let mbs = run(&platform::kebnekaise_k80(), true, Protocol::Rdma, 128);
        assert!((1900.0..2500.0).contains(&mbs), "gpu RDMA {mbs} MB/s");
    }

    #[test]
    fn protocol_ordering_on_tegner() {
        let p = platform::tegner_k420();
        let grpc = run(&p, true, Protocol::Grpc, 16);
        let mpi = run(&p, true, Protocol::Mpi, 16);
        let rdma = run(&p, true, Protocol::Rdma, 16);
        assert!(grpc < mpi && mpi < rdma, "{grpc} {mpi} {rdma}");
    }

    #[test]
    fn bandwidth_grows_with_size() {
        // Latency amortizes: 128 MB beats 2 MB.
        let p = platform::tegner_k420();
        let small = run(&p, false, Protocol::Rdma, 2);
        let large = run(&p, false, Protocol::Rdma, 128);
        assert!(large > small, "{small} vs {large}");
    }

    #[test]
    fn device_stream_approaches_model_bandwidth() {
        // Large arrays: all four kernels approach the device memory
        // bandwidth (launch overhead amortized), ordered GPU spec-wise.
        for p in [
            platform::tegner_k420(),
            platform::tegner_k80(),
            platform::kebnekaise_v100(),
        ] {
            let r = run_device_stream(&p, 1 << 24);
            let spec = p.node.gpu.mem_bw_gbs;
            for (name, got) in [
                ("copy", r.copy_gbs),
                ("scale", r.scale_gbs),
                ("add", r.add_gbs),
                ("triad", r.triad_gbs),
            ] {
                assert!(
                    got > spec * 0.9 && got <= spec * 1.01,
                    "{} {name}: {got} vs spec {spec}",
                    p.label
                );
            }
        }
    }

    #[test]
    fn device_stream_small_arrays_lose_to_launch_overhead() {
        let p = platform::kebnekaise_v100();
        let small = run_device_stream(&p, 1 << 10);
        let large = run_device_stream(&p, 1 << 24);
        assert!(small.triad_gbs < large.triad_gbs * 0.9);
    }

    /// 64 KiB pushed 12 times: small enough to crash and replay.
    fn supervised_cfg() -> StreamConfig {
        StreamConfig {
            size_bytes: 1 << 16,
            invocations: 12,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn supervised_crash_and_corruption_reproduce_accumulator() {
        use tfhpc_dist::CallPolicy;
        use tfhpc_sim::fault::FaultPlan;
        let (p, cfg) = (platform::tegner_k420(), supervised_cfg());
        let (clean_report, clean_stats, clean_acc) =
            run_stream_supervised(&p, &cfg, 3, &crate::FaultSetup::default()).unwrap();
        assert_eq!(clean_stats.restarts, 0);

        // The worker lives on node 1 (ps node 0). Crash it mid-run and
        // corrupt its link for a window the retries can ride out.
        let t = clean_report.elapsed_s;
        let plan = FaultPlan::new()
            .crash(1, t * 0.5)
            .link_corrupt(1, t * 0.6, t * 1.0);
        let faults = crate::FaultSetup::new(plan, 2).with_retry(CallPolicy::new(6, t * 0.05));
        let (_, stats, acc) = run_stream_supervised(&p, &cfg, 3, &faults).unwrap();
        assert!(stats.restarts >= 1, "restarts {}", stats.restarts);
        assert!(stats.corruption_detected > 0, "{stats:?}");
        assert_eq!(
            TensorProto(acc).to_bytes().unwrap(),
            TensorProto(clean_acc).to_bytes().unwrap(),
            "recovered accumulator differs from fault-free run"
        );
    }

    #[test]
    fn partial_restart_recovers_worker_without_restarting_ps() {
        use tfhpc_sim::fault::FaultPlan;
        let (p, cfg) = (platform::tegner_k420(), supervised_cfg());
        let (clean_report, _, clean_acc) =
            run_stream_supervised(&p, &cfg, 3, &crate::FaultSetup::default()).unwrap();
        let clean_bytes = TensorProto(clean_acc).to_bytes().unwrap();

        // Crash the worker node (node 1) twice: once late (a checkpoint
        // exists — the worker resumes from it) and once early (none
        // does — the worker must reset the surviving ps accumulator
        // before replaying from zero). Either way only the worker task
        // restarts; the ps keeps its original incarnation throughout.
        let t = clean_report.elapsed_s;
        for crash_frac in [0.6, 0.05] {
            let plan = FaultPlan::new().crash(1, t * crash_frac);
            let faults = crate::FaultSetup::new(plan, 1).with_partial_restart(["worker"], 1);
            let (_, stats, acc) = run_stream_supervised(&p, &cfg, 3, &faults).unwrap();
            assert_eq!(stats.restarts, 1, "{stats:?}");
            assert_eq!(stats.attempts.get("/job:ps/task:0"), Some(&0), "{stats:?}");
            assert_eq!(stats.attempts.get("/job:worker/task:0"), Some(&1));
            // The replacement worker came up on the spare node (2).
            assert_eq!(
                stats.replacements,
                vec![("/job:worker/task:0".into(), 1, 2)]
            );
            assert_eq!(
                TensorProto(acc).to_bytes().unwrap(),
                clean_bytes,
                "crash at {crash_frac}: accumulator differs from fault-free run"
            );
        }
    }

    #[test]
    fn supervised_rejects_zero_checkpoint_interval() {
        let r = run_stream_supervised(
            &platform::tegner_k420(),
            &StreamConfig::default(),
            0,
            &crate::FaultSetup::default(),
        );
        assert!(matches!(r, Err(crate::AppError::Config(_))));
    }

    #[test]
    fn real_mode_accumulates_correct_values() {
        let report = run_stream(
            &platform::tegner_k420(),
            &StreamConfig {
                size_bytes: 1 << 12,
                invocations: 5,
                on_gpu: false,
                protocol: Protocol::Grpc,
                simulated: false,
            },
        )
        .unwrap();
        assert!(report.elapsed_s > 0.0);
        // Note: the variable held 5 x ones; validated via dist tests.
    }
}
