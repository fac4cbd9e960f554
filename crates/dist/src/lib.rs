//! # tfhpc-dist
//!
//! The distributed runtime: TensorFlow's parameter-server/worker model
//! rebuilt for this reproduction. Provides cluster specifications
//! ([`cluster_spec`]), the Slurm Cluster Resolver the paper contributes
//! ([`resolver`]), in-process servers with remote tensor primitives
//! over simulated gRPC/MPI/RDMA transports ([`server`]), the queue-pair
//! reducer of paper Fig. 5 ([`reducer`]) and an end-to-end launcher
//! that turns a platform + job list into one process per task
//! ([`mod@launch`]), plus the Horovod-style all-reduce family
//! ([`collective`]: ring, binomial tree, recursive halving-doubling,
//! and crossover-driven auto-selection) §VIII proposes as the
//! parameter-server model's successor, over pluggable staged-copy /
//! zero-copy link transports ([`transport`]).

pub mod call;
pub mod cluster_spec;
pub mod collective;
pub mod launch;
pub mod membership;
pub mod reducer;
pub mod rendezvous;
pub mod resolver;
pub mod server;
pub mod transport;
pub mod wire;

pub use call::{BreakerState, CallPolicy, Calls};
pub use cluster_spec::{ClusterSpec, TaskKey};
pub use collective::{
    all_reduce, all_reduce_auto, link_profile, rhd_all_reduce, ring_all_reduce, ring_all_reduce_op,
    ring_all_reduce_resilient, select_all_reduce, tree_all_reduce, AllReduceAlgo,
    ResilientRingOptions,
};
pub use launch::{
    launch, launch_traced, launch_with_setup, LaunchConfig, Launched, SupervisorConfig, TaskCtx,
    TaskExit,
};
pub use membership::{Liveness, MemberRecord, Membership, MembershipEvent};
pub use reducer::{canonical_reduce, worker_all_reduce, ReduceOp, Reducer};
pub use rendezvous::{
    recv, recv_deadline, send, RecvKernel, RendezvousEdge, RendezvousKey, SendKernel,
};
pub use resolver::{resolve, resolve_with_policy, JobSpec, Resolved, ResolvedTask};
pub use server::{Server, TfCluster};
pub use transport::{Route, Transport};
