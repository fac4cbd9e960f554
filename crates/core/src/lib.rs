//! # tfhpc-core
//!
//! A TensorFlow-style deferred-execution dataflow framework: the
//! primary substrate this reproduction builds the paper's four HPC
//! applications on. It mirrors the concepts the paper relies on:
//!
//! * [`graph`] — dataflow graphs built first, executed later
//!   ("Graph mode"), with `tf.device()` scoping.
//! * [`session`] — subgraph execution with feeds/fetches, simple and
//!   soft device placement, and virtual-time charging on simulated
//!   clusters.
//! * [`resources`] — variables (the only mutable state), FIFO queues,
//!   dataset iterators and tile stores.
//! * [`queue`] — blocking FIFO queues usable from both OS threads and
//!   simulated processes (the reducer/merger building block).
//! * [`dataset`] — input pipelines with sharding and prefetch.
//! * [`serialize`] — GraphDef/TensorProto wire formats (2 GB limit
//!   included) and variable checkpointing.
//! * [`kernels`] — op execution + roofline cost accounting.
//! * [`optimizer`] — Grappler-style graph passes (constant folding,
//!   CSE, identity elimination) — the §II "optimize execution" point.
//! * [`debugger`] — tfdbg-style tensor watching (§II-B).

pub mod dataset;
pub mod deadline;
pub mod debugger;
pub mod device;
pub mod env;
pub mod error;
pub mod graph;
pub mod kernels;
pub mod op;
pub mod optimizer;
pub mod plan_cache;
pub mod queue;
pub mod resources;
pub mod serialize;
pub mod session;

pub use dataset::{Dataset, DatasetIterator};
pub use debugger::{Debugger, TensorWatch};
pub use device::{DeviceCtx, Placement};
pub use error::{CoreError, Result};
pub use graph::{Graph, NodeId};
pub use op::{Op, OpKernel};
pub use optimizer::{optimize, optimize_for, OptimizeStats, Optimized};
pub use plan_cache::{PlanCacheStats, SharedPlanCache};
pub use queue::FifoQueue;
pub use resources::{Resources, TileStore, Variable};
pub use serialize::{graph_from_bytes, graph_to_bytes, Saver, TensorProto};
pub use session::{RunMetadata, Session, SessionOptions};
