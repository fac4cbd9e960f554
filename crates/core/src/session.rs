//! The Session: deferred execution of graph subsets.
//!
//! `Session::run(fetches, feeds)` resolves the subgraph required for
//! the fetches, executes it with simple/soft device placement, and
//! returns the fetched tensors — TensorFlow's Graph-mode contract.
//!
//! Each run signature is compiled once into a flat step program
//! ([`ExecutionPlan`]: instructions over registers, every register's
//! last read marked at build time, placements resolved, `scale →
//! add/sub` pairs folded) and cached; a run interprets it.
//!
//! Real-mode runs go through a ready-set dataflow scheduler over that
//! program: per-instruction dependency counts over data + control
//! edges, zero-in-degree instructions dispatched onto the session's
//! inter-op thread pool, consumers decremented as producers finish.
//! Independent ops therefore overlap, exactly like TensorFlow's
//! `inter_op_parallelism_threads` executor. Simulated runs (and
//! `inter_op_threads == 1`) take the single-stepped interpreter — the
//! DES owns virtual time, so calibration numbers are unchanged.

use crate::debugger::Debugger;
use crate::device::{DeviceCtx, Placement, SimBinding};
use crate::error::{CoreError, Result};
use crate::graph::{Graph, NodeId};
use crate::kernels;
use crate::op::Op;
use crate::plan_cache::{sorted_unique, KeyView};
use crate::resources::Resources;
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tfhpc_parallel::ThreadPool;
use tfhpc_sim::device::Cost;
use tfhpc_tensor::Tensor;

/// Effective throughput of feeding placeholders through the Python
/// client (`feed_dict` serialization + GIL), GB/s. The paper's §VIII
/// singles out Python-side data handling as a scaling limiter; feeds
/// pay this tax while Dataset pipelines (matmul, FFT) do not — exactly
/// the asymmetry between Fig. 8's and Fig. 10's overhead profiles.
pub const FEED_GBS: f64 = 0.08;

/// Threading knobs for a [`Session`] — the analogue of TensorFlow's
/// `ConfigProto.inter_op_parallelism_threads` /
/// `intra_op_parallelism_threads`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOptions {
    /// Worker threads for the inter-op scheduler (independent graph
    /// nodes run concurrently). `1`, the default, selects the
    /// sequential executor; more pays off only on graphs of large
    /// independent ops (a scoped spawn per run, no buffer forwarding).
    pub inter_op_threads: usize,
    /// Cap on pool workers a single kernel may use for its data-parallel
    /// loops (`0` = no cap, use the whole host pool).
    pub intra_op_threads: usize,
    /// Step replay: compile each run signature into a program once
    /// (cached), forward dead input buffers into kernel outputs and
    /// fold `scale → add/sub` pairs into one pass. `false` compiles a
    /// fresh program on every run with forwarding and the fold off —
    /// the reference the bit-identity tests and A/B benchmarks compare
    /// against, run by the same interpreter. Results are identical
    /// either way.
    pub step_replay: bool,
    /// Capacity of the session's *private* plan cache, in plans
    /// (`0` = unbounded — the default, which keeps the pre-cap
    /// per-session behavior bit-identical). Ignored once a shared
    /// cache is injected with [`Session::set_plan_cache`].
    pub plan_cache_cap: usize,
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        SessionOptions {
            inter_op_threads: 1,
            intra_op_threads: 0,
            step_replay: true,
            plan_cache_cap: 0,
        }
    }
}

impl SessionOptions {
    /// The default, spelled out: the sequential executor.
    pub fn sequential() -> SessionOptions {
        SessionOptions::default()
    }

    /// Defaults overridden by `TFHPC_INTER_OP_THREADS` /
    /// `TFHPC_INTRA_OP_THREADS` / `TFHPC_PLAN_CACHE_CAP` (integers)
    /// and `TFHPC_STEP_REPLAY` (booleans; `0`/`false`/`off` disables
    /// the fast path), when set. Malformed values are a loud
    /// [`CoreError::InvalidArgument`], never a silent default.
    pub fn from_env() -> Result<SessionOptions> {
        let mut opts = SessionOptions::default();
        if let Some(n) = crate::env::env_usize("TFHPC_INTER_OP_THREADS")? {
            opts.inter_op_threads = n.max(1);
        }
        if let Some(n) = crate::env::env_usize("TFHPC_INTRA_OP_THREADS")? {
            opts.intra_op_threads = n;
        }
        if let Some(b) = crate::env::env_bool("TFHPC_STEP_REPLAY")? {
            opts.step_replay = b;
        }
        if let Some(n) = crate::env::env_usize("TFHPC_PLAN_CACHE_CAP")? {
            opts.plan_cache_cap = n;
        }
        Ok(opts)
    }
}

/// Snapshot of the ambient simulation's link-traffic counters
/// (`bytes.*` / `msgs.*` keys), empty outside a simulated process.
/// Reading counters never advances virtual time.
fn sim_link_counters() -> Vec<(String, f64)> {
    match tfhpc_sim::des::current() {
        Some(me) => me
            .sim()
            .counters()
            .into_iter()
            .filter(|(k, _)| k.starts_with("bytes.") || k.starts_with("msgs."))
            .collect(),
        None => Vec::new(),
    }
}

/// Per-link traffic deltas between two [`sim_link_counters`]
/// snapshots, folded into `LinkStat`s sorted by link name.
fn link_deltas(before: &[(String, f64)], after: &[(String, f64)]) -> Vec<tfhpc_obs::LinkStat> {
    let prior: HashMap<&str, f64> = before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut links: BTreeMap<String, tfhpc_obs::LinkStat> = BTreeMap::new();
    for (key, total) in after {
        let delta = total - prior.get(key.as_str()).copied().unwrap_or(0.0);
        if delta <= 0.0 {
            continue;
        }
        let (kind, link) = match key.split_once('.') {
            Some(parts) => parts,
            None => continue,
        };
        let entry = links
            .entry(link.to_string())
            .or_insert_with(|| tfhpc_obs::LinkStat {
                name: link.to_string(),
                ..Default::default()
            });
        match kind {
            "bytes" => entry.bytes += delta as u64,
            "msgs" => entry.messages += delta as u64,
            _ => {}
        }
    }
    links.into_values().collect()
}

/// Statistics of one `Session::run` (TensorFlow's `RunMetadata`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetadata {
    /// Nodes executed (placeholders included).
    pub ops_executed: usize,
    /// Bytes of output tensors produced.
    pub output_bytes: u64,
    /// Total modeled kernel seconds charged (0 in real mode).
    pub kernel_seconds: f64,
    /// Elapsed seconds for the run (virtual or wall).
    pub elapsed_s: f64,
    /// Transparent retries the distributed runtime performed on this
    /// task's behalf during the run (0 unless a retry policy is set).
    pub retries: u64,
    /// Corrupted frames the integrity plane detected (checksum
    /// failures on receive paths) during the run.
    pub corruption_detected: u64,
    /// Retransmissions of corrupted transfers during the run.
    pub retransmits: u64,
    /// Per-op / per-queue / per-link statistics for the run
    /// (TensorFlow's `StepStats`). Derived purely from work the
    /// executor does anyway, so it is identical whether or not any
    /// observability sink is enabled. The per-op breakdown is only
    /// accumulated when metadata is actually requested
    /// ([`Session::run_with_metadata`]) — plain [`Session::run`] skips
    /// the per-node bookkeeping on the hot path.
    pub step_stats: tfhpc_obs::StepStats,
}

/// What one executor thread counted during a run: the raw material of
/// [`RunMetadata`]. The sequential interpreter owns one; parallel
/// workers each own one and merge it when they finish, so the per-node
/// path touches no shared counter.
struct Tally {
    ops_executed: usize,
    output_bytes: u64,
    kernel_seconds: f64,
    /// Per-op execution count and charged device seconds, keyed by
    /// node name (sorted — StepStats order is deterministic). `None`
    /// when the caller discards metadata (`Session::run`): the name
    /// clone and map insert are pure per-node overhead then.
    per_op: Option<BTreeMap<String, (u64, f64)>>,
}

impl Tally {
    fn new(per_op_enabled: bool) -> Tally {
        Tally {
            ops_executed: 0,
            output_bytes: 0,
            kernel_seconds: 0.0,
            per_op: per_op_enabled.then(BTreeMap::new),
        }
    }

    /// Record one executed op: `dev_secs` is what the per-op stats show
    /// (charged time in sim mode, measured otherwise), `dur` the
    /// modeled kernel seconds.
    fn note_op(&mut self, name: &str, dev_secs: f64, dur: f64, out_bytes: u64) {
        self.ops_executed += 1;
        self.output_bytes += out_bytes;
        self.kernel_seconds += dur;
        if let Some(per_op) = &mut self.per_op {
            let entry = per_op.entry(name.to_string()).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += dev_secs;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ops_executed += other.ops_executed;
        self.output_bytes += other.output_bytes;
        self.kernel_seconds += other.kernel_seconds;
        if let (Some(mine), Some(theirs)) = (&mut self.per_op, other.per_op) {
            for (name, (count, secs)) in theirs {
                let entry = mine.entry(name).or_insert((0, 0.0));
                entry.0 += count;
                entry.1 += secs;
            }
        }
    }
}

/// Counters a run started from, read only when metadata was asked for.
struct StatsStart {
    run_t0: f64,
    retries: u64,
    corruption: u64,
    retransmits: u64,
    links: Vec<(String, f64)>,
}

/// Register sentinel for graph nodes that own no register in a program
/// (pruned away, fused into their reader, or without outputs).
const NO_REG: u32 = u32::MAX;

/// Frames kept per plan between runs; more concurrent runs than this
/// on one plan just build (and drop) their own.
const MAX_FREE_FRAMES: usize = 4;

/// One operand read: which register, whether this is the register's
/// last read in program order (the value is then *moved* out — and may
/// be overwritten in place by a forwarding kernel — instead of cloned),
/// and where its producer was placed (for transfer charging).
#[derive(Clone, Copy)]
struct Operand {
    reg: u32,
    last_read: bool,
    from: Placement,
}

/// The one plan-time rewrite: `MulScalar(v, s)` / `Scale{factor}(v)`
/// whose only reader is the next node, an `Add`/`Sub` on the same
/// device, folded into that reader as `y ± s·v`. The instruction's
/// node is the reader; its operands are the producer's, then `y`.
#[derive(Clone, Copy)]
struct FusedScale {
    producer: NodeId,
    subtract: bool,
    /// The product was the reader's first operand (only matters when
    /// the pair has to run as two kernels after all).
    product_first: bool,
}

/// One step of a compiled program.
struct Instr {
    /// The graph node (for its `Op`, name and control edges); the
    /// reader, for a fused pair.
    node: NodeId,
    fused: Option<FusedScale>,
    /// This instruction's slice of [`ExecutionPlan::operands`].
    operands: std::ops::Range<u32>,
    /// First output register; outputs occupy `out .. out + n_out`.
    out: u32,
    n_out: u32,
    /// Resolved device placement (placeholders: CPU).
    placement: Placement,
    /// Dispatch by value (`kernels::execute_owned`) so a uniquely-held
    /// operand can be overwritten in place.
    forwardable: bool,
}

/// Per-run scratch of the sequential interpreter: the register file
/// and the operand/output lists handed to kernels. A frame *at rest*
/// (on its plan's free list) holds no tensor — every register is
/// `None`, both lists are empty — only their capacity, so nothing is
/// pinned between runs and nothing crosses sessions.
#[derive(Default)]
struct Frame {
    regs: Vec<Option<Tensor>>,
    ins: Vec<Tensor>,
    outs: Vec<Tensor>,
}

/// A compiled, memoized step program — everything `Session::run` used
/// to re-derive per step, decided once (TensorFlow's per-signature
/// executor cache): the pruned schedule as a flat instruction list,
/// operands resolved to registers with their last read marked,
/// placements resolved, the `scale → add/sub` pairs rewritten. Stored
/// in a [`crate::plan_cache::SharedPlanCache`] keyed by (graph
/// fingerprint, device signature, fetch/feed signature); the
/// fingerprint mixes in the graph generation, so a mutated graph
/// re-keys its plans instead of hitting stale ones.
pub(crate) struct ExecutionPlan {
    /// In ascending node-id order (a valid topological order).
    instrs: Vec<Instr>,
    /// All operand reads, instruction after instruction.
    operands: Vec<Operand>,
    n_regs: usize,
    /// Graph node index → first output register (`NO_REG` if none).
    reg_of: Vec<u32>,
    /// Per-instruction consumer instructions over data + control edges
    /// (duplicate edges kept so pending-count decrements stay
    /// balanced) and initial dependency counts: the parallel
    /// executor's view of the same list.
    consumers: Vec<Vec<u32>>,
    pending_init: Vec<u32>,
    /// Whether any planned op may block (forces the sequential path).
    any_may_block: bool,
    /// Frames at rest. On the plan, not the session: plans are shared
    /// across sessions and a frame is sized by its plan.
    frames: Mutex<Vec<Frame>>,
}

impl ExecutionPlan {
    fn operands_of(&self, instr: &Instr) -> &[Operand] {
        &self.operands[instr.operands.start as usize..instr.operands.end as usize]
    }
}

/// A frame checked out of its plan for one run. Dropping it — on every
/// exit path, errors included — reclaims whatever tensors the run left
/// behind into the tensor recycle pool and puts the emptied frame back.
struct FrameGuard<'p> {
    plan: &'p ExecutionPlan,
    frame: Frame,
}

impl<'p> FrameGuard<'p> {
    fn checkout(plan: &'p ExecutionPlan) -> FrameGuard<'p> {
        let frame = plan.frames.lock().pop().unwrap_or_else(|| Frame {
            regs: (0..plan.n_regs).map(|_| None).collect(),
            ..Frame::default()
        });
        FrameGuard { plan, frame }
    }
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        let Frame { regs, ins, outs } = &mut self.frame;
        // Every tensor still here is dead (fetches were moved out
        // first): uniquely-held buffers feed the next run's outputs.
        for t in regs.iter_mut().filter_map(Option::take) {
            tfhpc_tensor::arena::recycle_tensor(t);
        }
        for t in ins.drain(..).chain(outs.drain(..)) {
            tfhpc_tensor::arena::recycle_tensor(t);
        }
        let mut free = self.plan.frames.lock();
        if free.len() < MAX_FREE_FRAMES {
            free.push(std::mem::take(&mut self.frame));
        }
    }
}

/// What does not change from one instruction of a run to the next,
/// read once per run.
struct RunCtx<'r> {
    feeds: &'r [(NodeId, Tensor)],
    run_seed: u64,
    /// The simulation binding, if any. Without one nothing observes
    /// the cost, transfer and memory-capacity arithmetic (`charge_*`
    /// return 0, `usable_memory` `None`), so the interpreter skips it.
    sim: Option<&'r SimBinding>,
    /// The session's tracer (else the global one), when it is recording.
    tracer: Option<&'r tfhpc_obs::Tracer>,
    /// Read the clock around kernels: someone consumes the span — the
    /// per-op stats or the tracer. Sim mode always counts as timed
    /// (spans carry virtual timestamps there).
    timed: bool,
    /// Forwardable instructions may consume their operands (the
    /// sequential executor only: parallel readers share registers).
    forward: bool,
    /// Keep the per-op breakdown (metadata was asked for).
    per_op: bool,
}

/// The four process-wide counters a run updates, resolved once.
static PLAN_HITS: tfhpc_obs::LazyCounter =
    tfhpc_obs::LazyCounter::new("tfhpc_plan_cache_hits_total");
static PLAN_MISSES: tfhpc_obs::LazyCounter =
    tfhpc_obs::LazyCounter::new("tfhpc_plan_cache_misses_total");
static OPS_EXECUTED: tfhpc_obs::LazyCounter =
    tfhpc_obs::LazyCounter::new("tfhpc_ops_executed_total");
static OUTPUT_BYTES: tfhpc_obs::LazyCounter =
    tfhpc_obs::LazyCounter::new("tfhpc_output_bytes_total");

/// An execution handle over a graph (TensorFlow's `tf.Session`).
pub struct Session {
    graph: Arc<Graph>,
    resources: Arc<Resources>,
    devices: DeviceCtx,
    options: SessionOptions,
    tracer: Option<Arc<tfhpc_obs::Tracer>>,
    debugger: Option<Arc<Debugger>>,
    run_counter: AtomicU64,
    created: Instant,
    /// Inter-op worker pool, spun up lazily on the first parallel run.
    inter_pool: OnceLock<ThreadPool>,
    /// Memoized execution plans. Defaults to a private cache sized by
    /// `options.plan_cache_cap`; [`Session::set_plan_cache`] swaps in a
    /// cache shared across sessions (the serving plane's).
    plan_cache: Arc<crate::plan_cache::SharedPlanCache>,
    /// Cached `(generation, fingerprint)` of the session's graph.
    fingerprint: Mutex<Option<(u64, u64)>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

impl Session {
    /// Create a session over `graph` with the given resource manager
    /// and device context, using default threading options.
    pub fn new(graph: Arc<Graph>, resources: Arc<Resources>, devices: DeviceCtx) -> Session {
        Session::with_options(graph, resources, devices, SessionOptions::default())
    }

    /// [`Session::new`] with explicit threading options.
    pub fn with_options(
        graph: Arc<Graph>,
        resources: Arc<Resources>,
        devices: DeviceCtx,
        options: SessionOptions,
    ) -> Session {
        let plan_cache = Arc::new(crate::plan_cache::SharedPlanCache::new(
            options.plan_cache_cap,
        ));
        Session {
            graph,
            resources,
            devices,
            options,
            tracer: None,
            debugger: None,
            run_counter: AtomicU64::new(0),
            created: Instant::now(),
            inter_pool: OnceLock::new(),
            plan_cache,
            fingerprint: Mutex::new(None),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
        }
    }

    /// Record this session's op spans (the paper's Fig. 3 Timeline,
    /// one lane per device) into `tracer` while it is enabled, instead
    /// of the process-wide [`tfhpc_obs::trace::global`].
    pub fn set_tracer(&mut self, tracer: Arc<tfhpc_obs::Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Attach a `tfdbg`-style tensor debugger. A debugger records every
    /// node's output *value*, so a session with one attached runs
    /// programs built without the plan-time rewrite (and never shares
    /// a cache entry with a rewritten one).
    pub fn set_debugger(&mut self, debugger: Arc<Debugger>) {
        self.debugger = Some(debugger);
    }

    /// Route this session's plan lookups through `cache` — a cache
    /// shared across sessions, so identically-built graphs with equal
    /// device signatures reuse each other's plans. Replaces the
    /// private per-session cache.
    pub fn set_plan_cache(&mut self, cache: Arc<crate::plan_cache::SharedPlanCache>) {
        self.plan_cache = cache;
    }

    /// The plan cache this session consults (private unless a shared
    /// one was injected with [`Session::set_plan_cache`]).
    pub fn plan_cache(&self) -> &Arc<crate::plan_cache::SharedPlanCache> {
        &self.plan_cache
    }

    /// The session's resource manager.
    pub fn resources(&self) -> &Arc<Resources> {
        &self.resources
    }

    /// The session's graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The session's device context.
    pub fn devices(&self) -> &DeviceCtx {
        &self.devices
    }

    /// The session's threading options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    fn now(&self) -> f64 {
        match tfhpc_sim::des::current() {
            Some(me) => me.now(),
            None => self.created.elapsed().as_secs_f64(),
        }
    }

    fn inter_pool(&self) -> &ThreadPool {
        self.inter_pool
            .get_or_init(|| ThreadPool::new(self.options.inter_op_threads))
    }

    /// Execute the subgraph required for `fetches`, feeding
    /// placeholders from `feeds`. Returns one tensor per fetch.
    pub fn run(&self, fetches: &[NodeId], feeds: &[(NodeId, Tensor)]) -> Result<Vec<Tensor>> {
        let (values, _) = self.exec_subgraph(fetches, feeds, false, true, true)?;
        Ok(values)
    }

    /// Virtual seconds of the client→server dispatch the paper measures
    /// as part of STREAM (gRPC's administrative path): every run pays
    /// it, a batch once for all its members. `None` without a
    /// simulated device.
    pub fn dispatch_charge(&self) -> Option<f64> {
        let sim = self.devices.sim.as_ref()?;
        Some(sim.cluster.platform.net.session_dispatch_s)
    }

    /// Virtual seconds to serialize `feeds` from the client: every run
    /// and every batch member pays it for its own feeds. `None` without
    /// a simulated device or with nothing fed.
    pub fn feed_charge(&self, feeds: &[(NodeId, Tensor)]) -> Option<f64> {
        self.devices.sim.as_ref()?;
        let feed_bytes: f64 = feeds.iter().map(|(_, t)| t.byte_size() as f64).sum();
        (feed_bytes > 0.0).then(|| feed_bytes / (FEED_GBS * 1e9))
    }

    /// [`Session::run`] for a caller that has already paid the run's
    /// [`Session::dispatch_charge`] (once per batch) and
    /// [`Session::feed_charge`]: the serving plane's batch member, whose
    /// results are bit-identical to individual runs. Inside a DES
    /// [`tfhpc_sim::des::ledger`], a plan with a blocking op is an error
    /// rather than a wait the ledger cannot take.
    pub fn run_prepaid(
        &self,
        fetches: &[NodeId],
        feeds: &[(NodeId, Tensor)],
    ) -> Result<Vec<Tensor>> {
        let (values, _) = self.exec_subgraph(fetches, feeds, false, false, true)?;
        Ok(values)
    }

    /// [`Session::run`] under an end-to-end deadline: installs an
    /// ambient [`crate::deadline`] scope of `timeout_s` seconds so the
    /// *remaining* budget — not a fresh per-hop timeout — bounds every
    /// blocking wait below (queue dequeues, rendezvous receives,
    /// remote-op retries). Nested inside an existing scope, the
    /// tighter budget wins.
    pub fn run_with_deadline(
        &self,
        fetches: &[NodeId],
        feeds: &[(NodeId, Tensor)],
        timeout_s: f64,
    ) -> Result<Vec<Tensor>> {
        let _scope = crate::deadline::with_deadline(timeout_s);
        self.run(fetches, feeds)
    }

    /// [`Session::run`] additionally returning per-run statistics
    /// (TensorFlow's `RunMetadata` — the raw material Fig. 3's Timeline
    /// is built from).
    pub fn run_with_metadata(
        &self,
        fetches: &[NodeId],
        feeds: &[(NodeId, Tensor)],
    ) -> Result<(Vec<Tensor>, RunMetadata)> {
        let (values, meta) = self.exec_subgraph(fetches, feeds, true, true, true)?;
        Ok((values, meta.expect("metadata was requested")))
    }

    /// Cache statistics of the memoized-plan store: `(hits, misses)`
    /// since the session was created. A run with `step_replay` off
    /// always counts as a miss (the plan is rebuilt from scratch).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_hits.load(Ordering::Relaxed),
            self.plan_misses.load(Ordering::Relaxed),
        )
    }

    /// Run with no fetch value needed (side effects only) — the
    /// "do not return the evaluated value" mode the paper's STREAM
    /// benchmark uses to avoid measuring the client transfer.
    pub fn run_no_fetch(&self, targets: &[NodeId], feeds: &[(NodeId, Tensor)]) -> Result<()> {
        self.exec_subgraph(targets, feeds, false, true, false)
            .map(|_| ())
    }

    /// Fingerprint of the session's graph content, recomputed whenever
    /// the graph generation changes. Serialized-GraphDef bytes mixed
    /// with the generation — so identically-built graphs collide (the
    /// point: they may share plans) while `invalidate_plans()` re-keys
    /// even content-identical states. Graphs that cannot serialize
    /// (`py_func`) fall back to their process-unique uid.
    fn graph_fingerprint(&self) -> u64 {
        use tfhpc_sim::fnv::Fnv1a;
        let generation = self.graph.generation();
        if let Some((gen, fp)) = *self.fingerprint.lock() {
            if gen == generation {
                return fp;
            }
        }
        let mut fp = Fnv1a::default();
        match crate::serialize::graph_to_bytes(&self.graph) {
            Ok(bytes) => fp.eat(&bytes),
            // Unserializable graph: process-unique identity, never
            // shared with another graph (correct, just not reusable).
            Err(_) => {
                fp.0 = 0x9E37_79B9_7F4A_7C15;
                fp.eat_u64(self.graph.uid());
            }
        }
        fp.eat_u64(generation);
        *self.fingerprint.lock() = Some((generation, fp.0));
        fp.0
    }

    /// Look up (or build) the program for a run signature in the
    /// session's plan cache (private by default, shared across
    /// sessions once [`Session::set_plan_cache`] injected one). A hit
    /// hashes and compares the caller's own fetch list (when it is
    /// already sorted and unique) and one copy of the fed ids.
    /// With `step_replay` off every run rebuilds from scratch, with
    /// the rewrite and forwarding off, and is counted as a miss — the
    /// tests' reference, run by the same interpreter.
    fn plan_for(
        &self,
        targets: &[NodeId],
        feeds: &[(NodeId, Tensor)],
    ) -> Result<Arc<ExecutionPlan>> {
        let fetches = sorted_unique(Cow::Borrowed(targets));
        if !self.options.step_replay {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
            PLAN_MISSES.add(1);
            return Ok(Arc::new(self.build_plan(&fetches, false, false)?));
        }
        let fed = sorted_unique(feeds.iter().map(|(id, _)| *id).collect());
        let key = KeyView {
            fingerprint: self.graph_fingerprint(),
            devices: self.devices.placement_signature(),
            fused: self.debugger.is_none(),
            fetches: &fetches,
            feeds: &fed,
        };
        if let Some(plan) = self.plan_cache.lookup(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            PLAN_HITS.add(1);
            return Ok(plan);
        }
        let plan = Arc::new(self.build_plan(key.fetches, true, key.fused)?);
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        PLAN_MISSES.add(1);
        self.plan_cache.insert(&key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Compile the program for `fetches` (sorted, deduplicated):
    /// prune, resolve placements, rewrite `scale → add/sub` pairs
    /// (`fuse`), lay the instructions out over registers and mark
    /// every register's last read. Nothing here depends on a run's
    /// values, and placement resolution is deterministic, so deciding
    /// it once is equivalent to deciding it per step.
    fn build_plan(&self, fetches: &[NodeId], forward: bool, fuse: bool) -> Result<ExecutionPlan> {
        const NO_SLOT: u32 = u32::MAX;
        let nodes = self.graph.required_for(fetches);
        let n = nodes.len();
        let cap = nodes.last().map(|id| id.index() + 1).unwrap_or(0);
        let mut slot_of = vec![NO_SLOT; cap];
        for (i, id) in nodes.iter().enumerate() {
            slot_of[id.index()] = i as u32;
        }
        let slot = |id: NodeId| match slot_of[id.index()] {
            NO_SLOT => Err(CoreError::Graph("input not computed (cycle?)".into())),
            s => Ok(s as usize),
        };

        // Per planned node: placement, how often its first output is
        // read, whether a control edge touches it.
        let mut placements = Vec::with_capacity(n);
        let mut reads = vec![0u32; n];
        let mut has_control = vec![false; n];
        let mut any_may_block = false;
        for (i, id) in nodes.iter().enumerate() {
            let node = self.graph.node(*id);
            any_may_block |= node.op.may_block();
            placements.push(if matches!(node.op, Op::Placeholder { .. }) {
                Placement::Cpu
            } else {
                self.devices.resolve(node.device, node.op.gpu_capable())?
            });
            for (src, _) in &node.inputs {
                reads[slot(*src)?] += 1;
            }
            has_control[i] |= !node.control_inputs.is_empty();
            for src in &node.control_inputs {
                has_control[slot(*src)?] = true;
            }
        }

        // The rewrite: slot `i` folds into slot `i + 1` when it is a
        // scale whose only reader is that node — the *next* one in
        // the schedule, so every charge and every per-op record of a
        // simulated run keeps its order — an `Add`/`Sub` on the same
        // device reading the product exactly once (as the subtrahend,
        // for `Sub`), with no control edge on the scale and the scale
        // not fetched.
        let fused_into_next = |i: usize| -> Option<FusedScale> {
            let (producer, reader) = (
                self.graph.node(nodes[i]),
                self.graph.node(*nodes.get(i + 1)?),
            );
            let scale = matches!(producer.op, Op::MulScalar | Op::Scale { .. });
            let subtract = match reader.op {
                Op::Add => false,
                Op::Sub => true,
                _ => return None,
            };
            let position = reader
                .inputs
                .iter()
                .position(|(src, _)| *src == producer.id)?;
            let ok = fuse
                && scale
                && reads[i] == 1
                && reader.inputs.len() == 2
                && !(subtract && position == 0)
                && !has_control[i]
                && placements[i] == placements[i + 1]
                && fetches.binary_search(&producer.id).is_err();
            ok.then_some(FusedScale {
                producer: producer.id,
                subtract,
                product_first: position == 0,
            })
        };

        // Lay out instructions, registers and operands.
        let mut instrs: Vec<Instr> = Vec::with_capacity(n);
        let mut operands: Vec<Operand> = Vec::new();
        let mut reg_of = vec![NO_REG; cap];
        let mut instr_of_slot = vec![0u32; n];
        let mut n_regs = 0u32;
        let mut pending_fuse: Option<FusedScale> = None;
        for (i, id) in nodes.iter().enumerate() {
            let node = self.graph.node(*id);
            instr_of_slot[i] = instrs.len() as u32;
            if pending_fuse.is_none() {
                if let Some(f) = fused_into_next(i) {
                    // Emitted with its reader, next iteration.
                    pending_fuse = Some(f);
                    continue;
                }
            }
            let fused = pending_fuse.take();
            let start = operands.len() as u32;
            let mut read = |src: NodeId, out_idx: usize| -> Result<()> {
                let base = reg_of[src.index()];
                if base == NO_REG {
                    return Err(CoreError::Graph("input not computed (cycle?)".into()));
                }
                operands.push(Operand {
                    reg: base + out_idx as u32,
                    last_read: false,
                    from: placements[slot(src)?],
                });
                Ok(())
            };
            if let Some(f) = &fused {
                for (src, out_idx) in &self.graph.node(f.producer).inputs {
                    read(*src, *out_idx)?;
                }
            }
            for (src, out_idx) in &node.inputs {
                if fused.is_some_and(|f| *src == f.producer) {
                    continue;
                }
                read(*src, *out_idx)?;
            }
            let n_out = node.op.n_outputs() as u32;
            if n_out > 0 {
                reg_of[id.index()] = n_regs;
            }
            instrs.push(Instr {
                node: *id,
                fused,
                operands: start..operands.len() as u32,
                out: n_regs,
                n_out,
                placement: placements[i],
                forwardable: forward && kernels::forwardable(&node.op),
            });
            n_regs += n_out;
        }

        // A register's last read in program order moves the value out
        // instead of cloning it — unless it is fetched: a fetch reads
        // after every instruction, so no instruction's read is the last.
        let mut last_read = vec![usize::MAX; n_regs as usize];
        for (i, o) in operands.iter().enumerate() {
            last_read[o.reg as usize] = i;
        }
        for f in fetches {
            let base = reg_of[f.index()];
            if base != NO_REG {
                last_read[base as usize] = usize::MAX;
            }
        }
        for i in last_read {
            if i != usize::MAX {
                operands[i].last_read = true;
            }
        }

        // The same list as a dependency graph, for the parallel
        // executor: one edge per operand read and per control input.
        let mut producer_of = vec![0u32; n_regs as usize];
        for (i, instr) in instrs.iter().enumerate() {
            for r in instr.out..instr.out + instr.n_out {
                producer_of[r as usize] = i as u32;
            }
        }
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); instrs.len()];
        let mut pending_init = vec![0u32; instrs.len()];
        for (i, instr) in instrs.iter().enumerate() {
            let data = operands[instr.operands.start as usize..instr.operands.end as usize]
                .iter()
                .map(|o| producer_of[o.reg as usize]);
            let control = self
                .graph
                .node(instr.node)
                .control_inputs
                .iter()
                .map(|src| instr_of_slot[slot_of[src.index()] as usize]);
            for dep in data.chain(control) {
                consumers[dep as usize].push(i as u32);
                pending_init[i] += 1;
            }
        }

        Ok(ExecutionPlan {
            instrs,
            operands,
            n_regs: n_regs as usize,
            reg_of,
            consumers,
            pending_init,
            any_may_block,
            frames: Mutex::new(Vec::new()),
        })
    }

    /// The single entry behind every run flavour: dispatch + feed
    /// costs, the (cached) program, then the sequential interpreter or
    /// the parallel executor over it, then the fetched values moved
    /// out of the register file. On a plan-cache hit nothing here
    /// allocates except what leaves the session — and the metadata,
    /// which is only assembled when `want_stats`.
    fn exec_subgraph(
        &self,
        targets: &[NodeId],
        feeds: &[(NodeId, Tensor)],
        want_stats: bool,
        charge: bool,
        want_values: bool,
    ) -> Result<(Vec<Tensor>, Option<RunMetadata>)> {
        // A request whose propagated budget is already spent fails here
        // rather than queueing work it can no longer use.
        crate::deadline::check("Session::run")?;
        let stats_t0 = want_stats.then(|| StatsStart {
            run_t0: self.now(),
            retries: self.resources.retries_total(),
            corruption: self.resources.corruption_detected_total(),
            retransmits: self.resources.retransmits_total(),
            links: sim_link_counters(),
        });
        let run_seed = self.run_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let sim = self.devices.sim.as_ref();

        // Every invocation goes through the client→server dispatch,
        // plus Python-side serialization of any fed tensors; a batch
        // member's caller has paid both (`run_prepaid`).
        if let (Some(_), Some(me), true) = (sim, tfhpc_sim::des::current(), charge) {
            let owed = [self.dispatch_charge(), self.feed_charge(feeds)];
            for dt in owed.into_iter().flatten() {
                me.advance(dt);
            }
        }

        let plan = self.plan_for(targets, feeds)?;
        if plan.any_may_block && tfhpc_sim::des::in_ledger() {
            return Err(CoreError::Invalid(
                "a plan with a blocking op cannot run inside a DES ledger".into(),
            ));
        }

        // Simulated runs stay sequential (the DES owns time, and one
        // sim process steps the whole run); blocking ops must not tie
        // up inter-op workers, so queue/dataset graphs do too.
        let parallel = self.options.inter_op_threads > 1
            && plan.instrs.len() > 1
            && sim.is_none()
            && !plan.any_may_block
            && tfhpc_sim::des::current().is_none();

        let tracer: &tfhpc_obs::Tracer = match &self.tracer {
            Some(t) => t,
            None => tfhpc_obs::trace::global(),
        };
        let tracer = Some(tracer).filter(|t| t.is_enabled());
        let ctx = RunCtx {
            feeds,
            run_seed,
            sim,
            tracer,
            timed: sim.is_some() || want_stats || tracer.is_some(),
            forward: !parallel,
            per_op: want_stats,
        };
        let mut tally = Tally::new(ctx.per_op);
        let mut guard = FrameGuard::checkout(&plan);
        if parallel {
            self.exec_parallel(&plan, &ctx, &mut guard.frame.regs, &mut tally)?;
        } else {
            tfhpc_parallel::with_worker_limit(self.options.intra_op_threads, || {
                self.exec_sequential(&plan, &ctx, &mut guard.frame, &mut tally)
            })?;
        }

        let mut values = Vec::with_capacity(if want_values { targets.len() } else { 0 });
        if want_values {
            for (i, f) in targets.iter().enumerate() {
                let node = self.graph.node(*f);
                let no_outputs = || {
                    CoreError::Graph(format!(
                        "fetch `{}` has no outputs (op `{}`)",
                        node.name,
                        node.op.name()
                    ))
                };
                // Output 0, moved out unless the same fetch is listed
                // again further on.
                let slot = guard
                    .frame
                    .regs
                    .get_mut(plan.reg_of[f.index()] as usize)
                    .ok_or_else(no_outputs)?;
                let value = if targets[i + 1..].contains(f) {
                    slot.clone()
                } else {
                    slot.take()
                };
                values.push(value.ok_or_else(no_outputs)?);
            }
        }
        drop(guard);

        OPS_EXECUTED.add(tally.ops_executed as u64);
        OUTPUT_BYTES.add(tally.output_bytes);
        let metadata = stats_t0.map(|t0| {
            let retries = self.resources.retries_total() - t0.retries;
            RunMetadata {
                ops_executed: tally.ops_executed,
                output_bytes: tally.output_bytes,
                kernel_seconds: tally.kernel_seconds,
                elapsed_s: self.now() - t0.run_t0,
                retries,
                corruption_detected: self.resources.corruption_detected_total() - t0.corruption,
                retransmits: self.resources.retransmits_total() - t0.retransmits,
                step_stats: tfhpc_obs::StepStats {
                    ops: tally
                        .per_op
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(name, (count, device_seconds))| tfhpc_obs::OpStat {
                            name,
                            count,
                            device_seconds,
                        })
                        .collect(),
                    queues: self.resources.queue_step_stats(),
                    links: link_deltas(&t0.links, &sim_link_counters()),
                    retries,
                },
            }
        });
        Ok((values, metadata))
    }

    /// The interpreter: one pass over the program's instructions (a
    /// valid topological order) on the calling thread. Used for
    /// simulated runs and when `inter_op_threads == 1`. This is the
    /// only executor that forwards buffers: a register's last read
    /// moves the tensor out instead of cloning it, which lets
    /// elementwise kernels reuse the allocation in place.
    fn exec_sequential(
        &self,
        plan: &ExecutionPlan,
        ctx: &RunCtx,
        frame: &mut Frame,
        tally: &mut Tally,
    ) -> Result<()> {
        let Frame { regs, ins, outs } = frame;
        for instr in &plan.instrs {
            for o in plan.operands_of(instr) {
                let slot = &mut regs[o.reg as usize];
                // On its last read (fetches are never one, so it is
                // truly dead afterwards) the kernel gets the actual
                // buffer instead of a copy. With forwarding it may be
                // reused in place; either way it is recycled rather
                // than freed when it dies.
                let t = if o.last_read {
                    slot.take()
                } else {
                    slot.clone()
                };
                // Program order is topological, so an empty register
                // means its (custom) producer came up short.
                ins.push(t.ok_or_else(|| CoreError::Graph("missing producer output".into()))?);
            }
            self.exec_instr(plan, instr, ctx, ins, outs, tally)?;
            // A kernel returning fewer outputs than its op declares
            // leaves the rest empty (an error only if someone reads
            // them); extra ones are dropped.
            let owned = &mut regs[instr.out as usize..][..instr.n_out as usize];
            for (slot, t) in owned.iter_mut().zip(outs.drain(..)) {
                *slot = Some(t);
            }
        }
        Ok(())
    }

    /// Ready-set dataflow executor over the same program: its
    /// dependency counts seed per-run atomics, zero-in-degree
    /// instructions are dispatched onto the inter-op pool, consumers
    /// decremented as producers finish. The first error stops
    /// scheduling; in-flight kernels drain before the error is
    /// returned. Operands are cloned (never moved): a register may be
    /// read concurrently by several consumers, so buffer forwarding is
    /// sequential-executor-only. On success `regs` holds every value.
    fn exec_parallel(
        &self,
        plan: &ExecutionPlan,
        ctx: &RunCtx,
        regs: &mut [Option<Tensor>],
        tally: &mut Tally,
    ) -> Result<()> {
        let n = plan.instrs.len();
        let pending: Vec<AtomicUsize> = plan
            .pending_init
            .iter()
            .map(|&c| AtomicUsize::new(c as usize))
            .collect();
        let results: Vec<OnceLock<Tensor>> = (0..plan.n_regs).map(|_| OnceLock::new()).collect();
        let sched = Scheduler {
            ready: Mutex::new(ReadySet {
                queue: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
            remaining: AtomicUsize::new(n),
            error: Mutex::new(None),
            tally: Mutex::new(Tally::new(ctx.per_op)),
        };
        {
            let mut rs = sched.ready.lock();
            for (i, p) in pending.iter().enumerate() {
                if p.load(Ordering::Relaxed) == 0 {
                    rs.queue.push_back(i);
                }
            }
        }

        let workers = self.options.inter_op_threads.min(n);
        tfhpc_parallel::scope_on(self.inter_pool(), |s| {
            for _ in 0..workers {
                s.spawn(|| {
                    tfhpc_parallel::with_worker_limit(self.options.intra_op_threads, || {
                        self.scheduler_worker(&sched, plan, ctx, &pending, &results)
                    })
                });
            }
        });

        if let Some(err) = sched.error.lock().take() {
            return Err(err);
        }
        tally.merge(sched.tally.into_inner());
        for (slot, cell) in regs.iter_mut().zip(results) {
            *slot = cell.into_inner();
        }
        match sched.remaining.into_inner() {
            0 => Ok(()),
            left => Err(CoreError::Graph(format!(
                "{left} instructions were never scheduled (executor bug)"
            ))),
        }
    }

    /// One inter-op worker: pop ready instructions, execute, release
    /// consumers.
    fn scheduler_worker(
        &self,
        sched: &Scheduler,
        plan: &ExecutionPlan,
        ctx: &RunCtx,
        pending: &[AtomicUsize],
        results: &[OnceLock<Tensor>],
    ) {
        let mut tally = Tally::new(ctx.per_op);
        let (mut ins, mut outs) = (Vec::new(), Vec::new());
        loop {
            let idx = {
                let mut rs = sched.ready.lock();
                loop {
                    if let Some(i) = rs.queue.pop_front() {
                        break i;
                    }
                    if !rs.open {
                        drop(rs);
                        sched.tally.lock().merge(tally);
                        return;
                    }
                    sched.cv.wait(&mut rs);
                }
            };

            let instr = &plan.instrs[idx];
            let result = (|| -> Result<()> {
                for o in plan.operands_of(instr) {
                    // The producer finished before this instruction
                    // became ready; OnceLock::get also publishes its
                    // writes.
                    let t = results[o.reg as usize]
                        .get()
                        .ok_or_else(|| CoreError::Graph("missing producer output".into()))?;
                    ins.push(t.clone());
                }
                self.exec_instr(plan, instr, ctx, &mut ins, &mut outs, &mut tally)
            })();

            match result {
                Ok(()) => {
                    let owned = &results[instr.out as usize..][..instr.n_out as usize];
                    for (cell, t) in owned.iter().zip(outs.drain(..)) {
                        let _ = cell.set(t);
                    }
                    for &c in &plan.consumers[idx] {
                        if pending[c as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                            let mut rs = sched.ready.lock();
                            if rs.open {
                                rs.queue.push_back(c as usize);
                                sched.cv.notify_one();
                            }
                        }
                    }
                    if sched.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let mut rs = sched.ready.lock();
                        rs.open = false;
                        sched.cv.notify_all();
                    }
                }
                Err(e) => {
                    // Record the first error, stop handing out work, and
                    // let peers drain whatever they already started.
                    {
                        let mut slot = sched.error.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                    }
                    let mut rs = sched.ready.lock();
                    rs.open = false;
                    rs.queue.clear();
                    sched.cv.notify_all();
                    return;
                }
            }
        }
    }

    /// Execute one instruction over the operands gathered in `ins`,
    /// leaving its outputs in `outs` (and `ins` empty). Shared by both
    /// executors; everything it touches is concurrency-safe.
    fn exec_instr(
        &self,
        plan: &ExecutionPlan,
        instr: &Instr,
        ctx: &RunCtx,
        ins: &mut Vec<Tensor>,
        outs: &mut Vec<Tensor>,
        tally: &mut Tally,
    ) -> Result<()> {
        let node = self.graph.node(instr.node);
        // Placeholders resolve straight from feeds (a handful: a scan,
        // last entry winning like the map this replaces).
        if let Op::Placeholder { dtype, shape } = &node.op {
            let (_, fed) = ctx
                .feeds
                .iter()
                .rev()
                .find(|(id, _)| *id == node.id)
                .ok_or_else(|| {
                    CoreError::Graph(format!("placeholder `{}` was not fed", node.name))
                })?;
            if fed.dtype() != *dtype {
                return Err(CoreError::Graph(format!(
                    "placeholder `{}` fed {} but declared {}",
                    node.name,
                    fed.dtype(),
                    dtype
                )));
            }
            if let Some(s) = shape {
                if fed.shape() != s {
                    return Err(CoreError::Graph(format!(
                        "placeholder `{}` fed shape {} but declared {}",
                        node.name,
                        fed.shape(),
                        s
                    )));
                }
            }
            tally.note_op(&node.name, 0.0, 0.0, 0);
            outs.push(fed.clone());
            return Ok(());
        }

        let operands = plan.operands_of(instr);
        let forward = instr.forwardable && ctx.forward;
        let Some(fused) = instr.fused else {
            let from = operands.iter().map(|o| o.from);
            return self.run_node(node, instr.placement, forward, from, ctx, ins, outs, tally);
        };

        // A rewritten pair: operands are the scale's, then `y`.
        let producer = self.graph.node(fused.producer);
        let (scale_from, y_from) = operands.split_at(operands.len() - 1);
        let y_from = y_from[0].from;
        let y = ins
            .pop()
            .ok_or_else(|| CoreError::Graph(format!("fused `{}` lost its operand", node.name)))?;
        // The reader's operands / their placements, in its own order.
        let reader_order = |product: Tensor, y: Tensor| match fused.product_first {
            true => [product, y],
            false => [y, product],
        };
        let reader_from = match fused.product_first {
            true => [instr.placement, y_from],
            false => [y_from, instr.placement],
        };
        let scale_from = scale_from.iter().map(|o| o.from);
        let Some(alpha) = kernels::fused_axpy_alpha(&producer.op, ins, &y, fused.subtract) else {
            // These operands need the pair as itself: the scale, then
            // its reader over (y, product) — exactly the unfused steps.
            self.run_node(
                producer,
                instr.placement,
                forward,
                scale_from,
                ctx,
                ins,
                outs,
                tally,
            )?;
            let product = outs.pop().ok_or_else(|| {
                CoreError::Graph(format!("`{}` produced no output", producer.name))
            })?;
            ins.extend(reader_order(product, y));
            let from = reader_from.into_iter();
            return self.run_node(node, instr.placement, forward, from, ctx, ins, outs, tally);
        };

        // One pass, the bookkeeping of both nodes replayed in order.
        // Both are forwardable ops, whose accounting reads operand
        // metadata only — and the product's metadata is `v`'s.
        let begun = self.begin_op(ctx, producer, instr.placement, ins, scale_from)?;
        let charge = forward_charge(ctx, &producer.op, ins);
        let v = ins.swap_remove(0);
        for t in ins.drain(..) {
            tfhpc_tensor::arena::recycle_tensor(t);
        }
        let product_bytes = v.byte_size() as u64;
        // The measured interval (real mode) goes to the reader; the
        // scale records zero.
        self.finish_op(
            ctx,
            producer,
            instr.placement,
            begun,
            charge,
            product_bytes,
            false,
            tally,
        )?;
        // Simulated runs account the reader over stand-in handles (`v`
        // for the product); they go before the kernel runs so it still
        // finds its operands uniquely held.
        let stand_in = ctx.sim.map(|_| reader_order(v.clone(), y.clone()));
        let reader_inputs = stand_in.as_ref().map_or(&[][..], |pair| &pair[..]);
        let begun = self.begin_op(
            ctx,
            node,
            instr.placement,
            reader_inputs,
            reader_from.into_iter(),
        )?;
        let charge = forward_charge(ctx, &node.op, reader_inputs);
        drop(stand_in);
        let out = tfhpc_tensor::ops::axpy_owned(alpha, v, y)?;
        let out_bytes = out.byte_size() as u64;
        outs.push(out);
        self.finish_op(
            ctx,
            node,
            instr.placement,
            begun,
            charge,
            out_bytes,
            true,
            tally,
        )
    }

    /// Execute one graph node: accounting before, the kernel itself,
    /// accounting after, debugger hook. With `forward` the kernel takes
    /// its operands by value so a uniquely-held buffer can be reused in
    /// place; either way `ins` comes back empty.
    #[allow(clippy::too_many_arguments)]
    fn run_node(
        &self,
        node: &crate::graph::NodeDef,
        placement: Placement,
        forward: bool,
        from: impl Iterator<Item = Placement>,
        ctx: &RunCtx,
        ins: &mut Vec<Tensor>,
        outs: &mut Vec<Tensor>,
        tally: &mut Tally,
    ) -> Result<()> {
        let begun = self.begin_op(ctx, node, placement, ins, from)?;
        let charge = if forward {
            // By-value dispatch: the kernel may consume input buffers
            // in place. Forwardable ops' cost depends only on input
            // metadata, so work it out before the buffers move — no
            // shell tensors, no extra allocation on the fast path.
            let charge = forward_charge(ctx, &node.op, ins);
            kernels::execute_owned(&node.op, ins, &self.resources, ctx.run_seed, outs)?;
            charge
        } else {
            kernels::execute(&node.op, ins, &self.resources, ctx.run_seed, outs)?;
            ctx.sim.map(|_| {
                (
                    kernels::cost_of(&node.op, ins, outs),
                    kernels::is_double_precision(ins, outs),
                )
            })
        };
        // Operands moved in by a last read die here; donate
        // uniquely-held buffers to the tensor arena instead of the
        // allocator (shared/synthetic ones just drop).
        for t in ins.drain(..) {
            tfhpc_tensor::arena::recycle_tensor(t);
        }
        let out_bytes = outs.iter().map(|t| t.byte_size() as u64).sum();
        self.finish_op(ctx, node, placement, begun, charge, out_bytes, true, tally)?;
        if let Some(dbg) = &self.debugger {
            dbg.record(&node.name, outs);
        }
        Ok(())
    }

    /// What precedes a kernel: in simulated runs, transfer charging and
    /// the pre-dispatch memory feasibility check; the start timestamp
    /// when the run is timed.
    fn begin_op(
        &self,
        ctx: &RunCtx,
        node: &crate::graph::NodeDef,
        placement: Placement,
        inputs: &[Tensor],
        from: impl Iterator<Item = Placement>,
    ) -> Result<Begun> {
        let mut input_bytes = 0;
        if ctx.sim.is_some() {
            // Charge host↔device transfers for inputs whose producer
            // sat on a different device.
            for (t, src_placement) in inputs.iter().zip(from) {
                self.devices
                    .charge_transfer(src_placement, placement, t.byte_size() as u64);
            }
            // Device-memory feasibility BEFORE dispatch: input working
            // set plus the inferred output size must fit. Catching
            // this up front keeps infeasible kernels from running (and
            // mutating state) first.
            input_bytes = inputs.iter().map(|t| t.byte_size() as u64).sum();
            self.check_memory(
                placement,
                input_bytes + kernels::infer_output_bytes(&node.op, inputs),
            )?;
        }
        Ok(Begun {
            start: if ctx.timed { self.now() } else { 0.0 },
            input_bytes,
        })
    }

    /// What follows a kernel: in simulated runs, the feasibility
    /// re-check against the actual output size (for ops whose outputs
    /// cannot be inferred up front — dequeues, tile reads, py_funcs)
    /// and the kernel charge; then the tracer and tally records.
    /// `measured` is false for the scale of a fused pair,
    /// which hands its real-mode interval to its reader.
    #[allow(clippy::too_many_arguments)]
    fn finish_op(
        &self,
        ctx: &RunCtx,
        node: &crate::graph::NodeDef,
        placement: Placement,
        begun: Begun,
        charge: Option<(Cost, bool)>,
        out_bytes: u64,
        measured: bool,
        tally: &mut Tally,
    ) -> Result<()> {
        let mut dur = 0.0;
        if let Some((cost, double_precision)) = charge {
            self.check_memory(placement, begun.input_bytes + out_bytes)?;
            dur = self
                .devices
                .charge_kernel(placement, &cost, double_precision);
        }
        // Charged time in sim mode, measured wall time otherwise —
        // what the tracer and the per-op stats both show.
        let dev_secs = if ctx.sim.is_some() {
            dur
        } else if ctx.timed && measured {
            self.now() - begun.start
        } else {
            0.0
        };
        if let Some(tr) = ctx.tracer {
            tr.record(tfhpc_obs::TraceEvent::span(
                &node.name,
                &self.devices.device_name(placement),
                begun.start,
                dev_secs,
            ));
        }
        tally.note_op(&node.name, dev_secs, dur, out_bytes);
        Ok(())
    }

    fn check_memory(&self, placement: Placement, working_set: u64) -> Result<()> {
        match self.devices.usable_memory(placement) {
            Some(capacity) if working_set > capacity => Err(CoreError::OutOfMemory {
                device: self.devices.device_name(placement),
                needed: working_set,
                capacity,
            }),
            _ => Ok(()),
        }
    }
}

/// What a forwardable op will be charged in a simulated run (`None`
/// in real mode), from its operands' metadata alone.
fn forward_charge(ctx: &RunCtx, op: &Op, inputs: &[Tensor]) -> Option<(Cost, bool)> {
    ctx.sim.map(|_| {
        (
            kernels::forward_cost(op, inputs),
            kernels::is_double_precision(inputs, &[]),
        )
    })
}

/// What [`Session::begin_op`] hands to [`Session::finish_op`].
struct Begun {
    start: f64,
    input_bytes: u64,
}

/// Shared state of one parallel run.
struct Scheduler {
    ready: Mutex<ReadySet>,
    cv: Condvar,
    remaining: AtomicUsize,
    error: Mutex<Option<CoreError>>,
    /// Workers merge their tallies here as they exit.
    tally: Mutex<Tally>,
}

/// The ready queue plus its open/closed flag (closed on completion or
/// first error; workers exit once closed and drained).
struct ReadySet {
    queue: VecDeque<usize>,
    open: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_tensor::{DType, Shape};

    fn session(g: Graph) -> Session {
        Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(1))
    }

    #[test]
    fn run_computes_fetches() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(2.0));
        let b = g.constant(Tensor::scalar_f64(3.0));
        let c = g.add(a, b);
        let d = g.mul(c, c);
        let s = session(g);
        let out = s.run(&[d], &[]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 25.0);
    }

    #[test]
    fn program_marks_each_registers_last_read_and_never_a_fetch() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(2.0));
        let b = g.constant(Tensor::scalar_f64(3.0));
        let c = g.add(a, b);
        let d = g.mul(c, c);
        let e = g.neg(c);
        let s = session(g);
        let plan = s.build_plan(&[d, e], true, true).unwrap();
        let reads: Vec<Vec<(u32, bool)>> = plan
            .instrs
            .iter()
            .map(|i| {
                plan.operands_of(i)
                    .iter()
                    .map(|o| (o.reg, o.last_read))
                    .collect()
            })
            .collect();
        // a, b die in the add; c is read three times, last by the neg;
        // d and e are fetched, so no instruction owns their last read.
        assert_eq!(
            reads,
            vec![
                vec![],
                vec![],
                vec![(0, true), (1, true)],
                vec![(2, false), (2, false)],
                vec![(2, true)],
            ]
        );
        assert_eq!(plan.n_regs, 5);
        // Fetching c as well pins it: no read of it is the last.
        let plan = s.build_plan(&[c, d, e], true, true).unwrap();
        assert!(plan.operands.iter().all(|o| o.reg != 2 || !o.last_read));
        // Dependency view of the same list: the add waits on both
        // constants, the mul on the add twice.
        assert_eq!(plan.pending_init, vec![0, 0, 2, 2, 1]);
        assert_eq!(plan.consumers[2], vec![3, 3, 4]);
    }

    #[test]
    fn rewrite_folds_a_scale_into_its_adjacent_reader() {
        let mut g = Graph::new();
        let v = g.placeholder(DType::F64, Some(Shape::vector(4)));
        let y = g.placeholder(DType::F64, Some(Shape::vector(4)));
        let s_ph = g.placeholder(DType::F64, Some(Shape::scalar()));
        let p = g.mul_scalar(v, s_ph);
        let out = g.sub(y, p);
        let s = session(g);
        let fused = s.build_plan(&[out], true, true).unwrap();
        assert_eq!(fused.instrs.len(), 4);
        let axpy = fused.instrs.last().unwrap();
        let f = axpy.fused.expect("pair was folded");
        assert_eq!((f.producer, f.subtract, f.product_first), (p, true, false));
        // Operands: the scale's (v, s), then y — each read for the
        // last time; the product owns no register.
        let regs: Vec<u32> = fused.operands_of(axpy).iter().map(|o| o.reg).collect();
        assert_eq!(regs, vec![0, 2, 1]);
        assert!(fused.operands_of(axpy).iter().all(|o| o.last_read));
        assert_eq!(fused.reg_of[p.index()], NO_REG);
        assert_eq!(fused.n_regs, 4);
        // Off: one instruction per node.
        let plain = s.build_plan(&[out], true, false).unwrap();
        assert_eq!(plain.instrs.len(), 5);
        assert!(plain.instrs.iter().all(|i| i.fused.is_none()));

        let feeds = [
            (v, Tensor::from_f64([4], vec![1., 2., 3., 4.]).unwrap()),
            (y, Tensor::from_f64([4], vec![10., 10., 10., 10.]).unwrap()),
            (s_ph, Tensor::scalar_f64(2.0)),
        ];
        let (got, meta) = s.run_with_metadata(&[out], &feeds).unwrap();
        assert_eq!(got[0].as_f64().unwrap(), &[8., 6., 4., 2.]);
        // Both nodes of the pair are counted, the elided product's
        // bytes included (feeds count as ops, not as output bytes).
        assert_eq!(meta.ops_executed, 5);
        assert_eq!(meta.output_bytes, 32 + 32);
        assert_eq!(meta.step_stats.ops.len(), 5);
    }

    #[test]
    fn frames_rest_empty_after_good_and_failed_runs() {
        let mut g = Graph::new();
        let p = g.placeholder(DType::F64, Some(Shape::vector(2)));
        let n = g.neg(p);
        let m = g.neg(n);
        let s = session(g);
        let fed = Tensor::from_f64([2], vec![1.0, -2.0]).unwrap();
        s.run(&[m], &[(p, fed.clone())]).unwrap();
        let wrong = Tensor::from_f64([3], vec![0.0; 3]).unwrap();
        assert!(s.run(&[m], &[(p, wrong)]).is_err());
        let plan = s.plan_for(&[m], &[(p, fed)]).unwrap();
        let frames = plan.frames.lock();
        assert_eq!(frames.len(), 1, "both runs shared one frame");
        for f in frames.iter() {
            assert_eq!(f.regs.len(), plan.n_regs);
            assert!(f.regs.iter().all(Option::is_none));
            assert!(f.ins.is_empty() && f.outs.is_empty());
        }
    }

    #[test]
    fn placeholders_require_feeds() {
        let mut g = Graph::new();
        let p = g.placeholder(DType::F64, Some(Shape::vector(2)));
        let n = g.neg(p);
        let s = session(g);
        assert!(matches!(s.run(&[n], &[]), Err(CoreError::Graph(_))));
        let fed = Tensor::from_f64([2], vec![1.0, -2.0]).unwrap();
        let out = s.run(&[n], &[(p, fed)]).unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[-1.0, 2.0]);
        // Wrong dtype and wrong shape both rejected.
        assert!(s
            .run(&[n], &[(p, Tensor::from_f32([2], vec![0.0; 2]).unwrap())])
            .is_err());
        assert!(s
            .run(&[n], &[(p, Tensor::from_f64([3], vec![0.0; 3]).unwrap())])
            .is_err());
    }

    #[test]
    fn listing1_matmul_example() {
        // The paper's Listing 1: random A, B on CPU; C = A·B on GPU.
        let mut g = Graph::new();
        let (a, b) = g.with_device(Placement::Cpu, |g| {
            (
                g.random_uniform(DType::F32, [3, 3], 1),
                g.random_uniform(DType::F32, [3, 3], 2),
            )
        });
        let c = g.with_device(Placement::Gpu(0), |g| g.matmul(a, b));
        let s = session(g);
        let out = s.run(&[c], &[]).unwrap();
        assert_eq!(out[0].shape().dims(), &[3, 3]);
        // Product of uniforms in [0,1): all entries in [0, 3).
        for v in out[0].as_f32().unwrap() {
            assert!((0.0..3.0).contains(v));
        }
    }

    #[test]
    fn variables_persist_across_runs() {
        let mut g = Graph::new();
        let inc = g.constant(Tensor::scalar_f64(1.0));
        let add = g.assign_add("counter", inc);
        let read = g.var_read("counter");
        let s = session(g);
        s.resources()
            .create_variable("counter", Tensor::scalar_f64(0.0));
        for _ in 0..3 {
            s.run(&[add], &[]).unwrap();
        }
        let out = s.run(&[read], &[]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 3.0);
    }

    #[test]
    fn random_ops_resample_each_run() {
        let mut g = Graph::new();
        let r = g.random_uniform(DType::F64, [4], 42);
        let s = session(g);
        let a = s.run(&[r], &[]).unwrap();
        let b = s.run(&[r], &[]).unwrap();
        assert_ne!(a[0].as_f64().unwrap(), b[0].as_f64().unwrap());
    }

    #[test]
    fn control_dependencies_execute_side_effects() {
        let mut g = Graph::new();
        let one = g.constant(Tensor::scalar_f64(1.0));
        let bump = g.assign_add("v", one);
        let read = g.var_read("v");
        g.add_control(read, bump).unwrap();
        let s = session(g);
        s.resources().create_variable("v", Tensor::scalar_f64(0.0));
        let out = s.run(&[read], &[]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 1.0);
    }

    #[test]
    fn unneeded_side_effects_are_pruned() {
        // Like TF: ops not reachable from fetches do not run.
        let mut g = Graph::new();
        let one = g.constant(Tensor::scalar_f64(1.0));
        let _bump = g.assign_add("v", one);
        let read = g.var_read("v");
        let s = session(g);
        s.resources().create_variable("v", Tensor::scalar_f64(0.0));
        let out = s.run(&[read], &[]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 0.0);
    }

    #[test]
    fn session_tracer_records_ops() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(1.0));
        let b = g.neg(a);
        let mut s = session(g);
        let tr = Arc::new(tfhpc_obs::Tracer::new());
        tr.enable();
        s.set_tracer(Arc::clone(&tr));
        s.run(&[b], &[]).unwrap();
        let spans = tr.snapshot();
        assert!(spans.len() >= 2);
        assert!(spans.iter().any(|e| e.name.starts_with("Neg")));
    }

    #[test]
    fn run_metadata_counts_ops_and_bytes() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_f64([4], vec![1., 2., 3., 4.]).unwrap());
        let b = g.neg(a);
        let c = g.add(a, b);
        let s = session(g);
        let (out, meta) = s.run_with_metadata(&[c], &[]).unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[0.0; 4]);
        assert_eq!(meta.ops_executed, 3);
        // const(32) + neg(32) + add(32) output bytes
        assert_eq!(meta.output_bytes, 96);
        // Real mode: no modeled kernel time.
        assert_eq!(meta.kernel_seconds, 0.0);
        assert!(meta.elapsed_s >= 0.0);
    }

    #[test]
    fn queue_ops_via_session() {
        let mut g = Graph::new();
        let v = g.constant(Tensor::scalar_f64(5.0));
        let enq = g.queue_enqueue("q", &[v]);
        let deq = g.queue_dequeue("q", 1);
        let s = session(g);
        s.resources().create_queue("q", 4);
        s.run_no_fetch(&[enq], &[]).unwrap();
        let out = s.run(&[deq[0]], &[]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 5.0);
    }

    #[test]
    fn step_stats_cover_ops_and_queues() {
        let mut g = Graph::new();
        let v = g.constant(Tensor::scalar_f64(5.0));
        let n = g.neg(v);
        let enq = g.queue_enqueue("sq", &[n]);
        let deq = g.queue_dequeue("sq", 1);
        let s = session(g);
        s.resources().create_queue("sq", 4);
        s.run_no_fetch(&[enq], &[]).unwrap();
        let (_, meta) = s.run_with_metadata(&[deq[0]], &[]).unwrap();
        let ss = &meta.step_stats;
        // One OpStat per node of the dequeue subgraph, sorted by name,
        // counts summing to ops_executed.
        assert!(!ss.ops.is_empty());
        assert!(ss.ops.windows(2).all(|w| w[0].name < w[1].name));
        assert_eq!(
            ss.ops.iter().map(|o| o.count).sum::<u64>() as usize,
            meta.ops_executed
        );
        // The queue shows the earlier enqueue and this run's dequeue.
        let q = ss.queues.iter().find(|q| q.name == "sq").unwrap();
        assert_eq!(q.enqueued, 1);
        assert_eq!(q.dequeued, 1);
        assert_eq!(q.depth, 0);
        assert!(q.residency_seconds >= 0.0);
        // Real mode, no dist traffic: no links, no retries.
        assert!(ss.links.is_empty());
        assert_eq!(ss.retries, 0);
    }

    #[test]
    fn fetch_of_no_output_op_errors() {
        let mut g = Graph::new();
        let n = g.group(&[]);
        let s = session(g);
        assert!(matches!(s.run(&[n], &[]), Err(CoreError::Graph(_))));
        // ... but run_no_fetch on it is fine.
        let mut g2 = Graph::new();
        let n2 = g2.group(&[]);
        let s2 = session(g2);
        s2.run_no_fetch(&[n2], &[]).unwrap();
    }

    #[test]
    fn session_options_env_and_defaults() {
        let d = SessionOptions::default();
        assert_eq!(d.inter_op_threads, 1);
        assert_eq!(d.intra_op_threads, 0);
        assert_eq!(SessionOptions::sequential(), d);
    }

    #[test]
    fn explicit_options_run_same_results() {
        for inter in [1usize, 4] {
            let mut g = Graph::new();
            let a = g.constant(Tensor::from_f64([3], vec![1., 2., 3.]).unwrap());
            let b = g.neg(a);
            let c = g.add(a, b);
            let s = Session::with_options(
                Arc::new(g),
                Resources::new(),
                DeviceCtx::real(0),
                SessionOptions {
                    inter_op_threads: inter,
                    intra_op_threads: 1,
                    ..SessionOptions::default()
                },
            );
            let out = s.run(&[c], &[]).unwrap();
            assert_eq!(out[0].as_f64().unwrap(), &[0.0; 3]);
        }
    }

    #[test]
    fn parallel_metadata_matches_sequential() {
        // 8 independent Neg chains: parallel and sequential executors
        // must agree on every RunMetadata counter.
        let build = || {
            let mut g = Graph::new();
            let fetches: Vec<NodeId> = (0..8)
                .map(|i| {
                    let c = g.constant(Tensor::from_f64([16], vec![i as f64; 16]).unwrap());
                    let n1 = g.neg(c);
                    g.neg(n1)
                })
                .collect();
            (g, fetches)
        };
        let run = |inter: usize| {
            let (g, fetches) = build();
            let s = Session::with_options(
                Arc::new(g),
                Resources::new(),
                DeviceCtx::real(0),
                SessionOptions {
                    inter_op_threads: inter,
                    intra_op_threads: 1,
                    ..SessionOptions::default()
                },
            );
            let (out, meta) = s.run_with_metadata(&fetches, &[]).unwrap();
            (
                out.iter()
                    .map(|t| t.as_f64().unwrap().to_vec())
                    .collect::<Vec<_>>(),
                meta.ops_executed,
                meta.output_bytes,
            )
        };
        assert_eq!(run(1), run(4));
    }
}
