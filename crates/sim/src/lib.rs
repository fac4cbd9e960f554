//! # tfhpc-sim
//!
//! A discrete-event simulation of heterogeneous GPU supercomputers.
//! This crate is the substitute for the hardware the paper measured on
//! (PDC Tegner and HPC2N Kebnekaise): it provides
//!
//! * [`des`] — a process-oriented, conservative discrete-event kernel:
//!   every simulated TensorFlow task (and auxiliary service) is an OS
//!   thread with a local *virtual* clock, and a process that never
//!   blocks below its own body may instead be a *leaf*, a resumable
//!   state machine run inline on the baton holder's thread; the
//!   scheduler always resumes the minimum-virtual-time runnable
//!   process, which makes virtual time causally consistent and the
//!   simulation deterministic.
//! * [`clock`] — the condition variable, clock read and sleep that run
//!   on either the wall clock or a simulation's virtual clock, so code
//!   above this crate blocks the same way in both modes.
//! * [`device`] — analytic GPU/CPU performance models (K420, GK210 —
//!   one half of a K80 —, V100) mapping per-kernel `Cost` records to
//!   virtual durations.
//! * [`net`] — transport cost models for the three protocols the paper
//!   benchmarks (gRPC, MPI, InfiniBand Verbs RDMA), including PCIe
//!   staging for GPU-resident tensors and the Ethernet fallback that
//!   penalizes gRPC on Tegner.
//! * [`topology`] — node layouts (NUMA islands, PCIe attachment, NIC
//!   and I/O placement — paper Fig. 9) instantiated as shared DES
//!   resources so contention emerges rather than being scripted.
//! * [`pfs`] — a Lustre-like parallel file system model.
//! * [`platform`] — calibrated presets for the paper's four node types.
//! * [`fnv`] — the seedless hash every deterministic id and jitter uses.

pub mod clock;
pub mod des;
pub mod device;
pub mod fault;
pub mod fnv;
pub mod net;
pub mod pfs;
pub mod platform;
pub mod topology;
pub mod workload;

pub use des::{
    current, CurrentProc, ProcId, Process, Sim, SimCondvar, SimResource, SimStats, Step,
};
pub use device::{Cost, DeviceModel};
pub use fault::{FaultEvent, FaultPlan};
pub use net::Protocol;
pub use platform::Platform;
pub use workload::SeededStream;
