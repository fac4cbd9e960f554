//! # tfhpc-apps
//!
//! The paper's four HPC applications, written against the `tfhpc`
//! dataflow framework exactly as §IV describes them:
//!
//! * [`stream`] — the STREAM-like transfer micro-benchmark (Fig. 7):
//!   an `assign_add` pushing a vector from a worker to a parameter
//!   server over gRPC/MPI/RDMA.
//! * [`matmul`] — tiled matrix-matrix multiply as map-reduce over tile
//!   products, with two parity reducers (Figs. 4 & 8).
//! * [`cg`] — the row-partitioned Conjugate Gradient solver with
//!   queue-pair reductions and checkpoint/restart (Figs. 5 & 10).
//! * [`fft`] — interleaved-tile Cooley–Tukey FFT with a serial host
//!   merger (Figs. 6 & 11).
//!
//! Every application runs in two modes: *real* (host threads, dense
//! tensors, wall-clock — used to validate numerics against serial
//! baselines) and *simulated* (virtual time on the modeled Tegner /
//! Kebnekaise clusters, synthetic payloads — used to regenerate the
//! paper's figures).
//!
//! All four run through one driver, [`supervised`]: it launches them in
//! either clock, checkpoints, carries resume points to workers and feeds
//! the prefetched worker pipelines. Each app module keeps its step body
//! and its resume policy — who decides where a restarted run resumes.
//! [`jobs`] holds the request shapes the serving plane batches.

pub mod cg;
pub mod fft;
pub mod jobs;
pub mod matmul;
pub mod stream;
pub mod supervised;

pub use cg::{run_cg, run_cg_supervised, run_cg_with_store, CgConfig, CgReduction, CgReport};
pub use fft::{run_fft, run_fft_supervised, run_fft_with_store, FftConfig, FftReport};
pub use jobs::{digest_tensors, RequestKind, RequestSpec, StepGraph};
pub use matmul::{run_matmul, run_matmul_supervised, MatmulConfig, MatmulReport};
pub use stream::{run_stream, run_stream_supervised, StreamConfig, StreamReport};
pub use supervised::{common_resume, stats_of, Checkpointer, SupervisedStats, CKPT_KEEP};

use tfhpc_dist::{CallPolicy, LaunchConfig, SupervisorConfig};
use tfhpc_sim::fault::FaultPlan;

/// A fault-injection experiment bundle for an application run: the
/// injected schedule, the supervisor's restart budget and the retry
/// policy the cluster's remote primitives run under.
#[derive(Debug, Clone, Default)]
pub struct FaultSetup {
    /// Injected fault schedule (virtual-time, deterministic).
    pub plan: FaultPlan,
    /// Restarts (gang or partial) the supervisor may perform before a
    /// failure becomes fatal.
    pub max_restarts: usize,
    /// Virtual seconds the supervisor waits before each restart.
    pub restart_backoff_s: f64,
    /// Call policy for transient remote failures (`Unavailable`,
    /// transient `DataLoss`).
    pub retry: CallPolicy,
    /// Heartbeat (period, death timeout) for liveness detection; `None`
    /// leaves the launch's defaults (detection off unless the
    /// `TFHPC_HEARTBEAT_*` env knobs say otherwise).
    pub heartbeat: Option<(f64, f64)>,
    /// Jobs repaired by partial restart instead of a gang restart.
    pub partial_restart_jobs: Vec<String>,
    /// Spare nodes reserved for partial-restart replacement.
    pub spare_nodes: usize,
}

impl FaultSetup {
    /// `plan` under a restart budget, no backoff, no retries.
    pub fn new(plan: FaultPlan, max_restarts: usize) -> FaultSetup {
        FaultSetup {
            plan,
            max_restarts,
            ..FaultSetup::default()
        }
    }

    /// Set the call policy for transient remote failures.
    pub fn with_retry(mut self, retry: CallPolicy) -> FaultSetup {
        self.retry = retry;
        self
    }

    /// Set the supervisor's restart backoff.
    pub fn with_backoff(mut self, secs: f64) -> FaultSetup {
        self.restart_backoff_s = secs;
        self
    }

    /// Enable heartbeat liveness detection.
    pub fn with_heartbeats(mut self, period_s: f64, timeout_s: f64) -> FaultSetup {
        self.heartbeat = Some((period_s, timeout_s));
        self
    }

    /// Repair failures of these jobs by restarting only the failed
    /// task, drawing replacements from `spares` reserved nodes.
    pub fn with_partial_restart<I, S>(mut self, jobs: I, spares: usize) -> FaultSetup
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.partial_restart_jobs = jobs.into_iter().map(Into::into).collect();
        self.spare_nodes = spares;
        self
    }

    /// Attach the whole bundle to a launch config.
    pub fn apply(&self, cfg: LaunchConfig) -> LaunchConfig {
        let mut sup = SupervisorConfig {
            max_restarts: self.max_restarts,
            restart_backoff_s: self.restart_backoff_s,
            partial_restart_jobs: self.partial_restart_jobs.clone(),
            spare_nodes: self.spare_nodes,
            ..SupervisorConfig::default()
        };
        if let Some((period, timeout)) = self.heartbeat {
            sup.heartbeat_period_s = period;
            sup.heartbeat_timeout_s = timeout;
        }
        cfg.with_faults(self.plan.clone())
            .with_supervisor(sup)
            .with_retry(self.retry.clone())
    }
}

/// Application-level errors.
#[derive(Debug)]
pub enum AppError {
    /// Configuration rejected before launch.
    Config(String),
    /// Failure from the framework / runtime layers.
    Core(tfhpc_core::CoreError),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Config(s) => write!(f, "config error: {s}"),
            AppError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<tfhpc_core::CoreError> for AppError {
    fn from(e: tfhpc_core::CoreError) -> Self {
        AppError::Core(e)
    }
}
