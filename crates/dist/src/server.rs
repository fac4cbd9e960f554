//! TensorFlow servers and the in-process runtime cluster.
//!
//! A [`Server`] is one TensorFlow task: it owns a resource manager
//! (variables, queues, iterators) and a device context, and can reach
//! peer servers through the [`TfCluster`] registry — the in-process
//! analogue of the gRPC connections a `tf.train.Server` establishes
//! from a cluster spec. Remote primitives (`remote_enqueue`,
//! `remote_assign_add`, ...) move tensors between tasks, charging the
//! simulated transport (gRPC/MPI/RDMA) with the correct source and
//! destination device residency.

use crate::call::{CallPolicy, Calls};
use crate::cluster_spec::{ClusterSpec, TaskKey};
use crate::transport::{Route, Transport};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use tfhpc_core::{
    CoreError, DeviceCtx, FifoQueue, Graph, OpKernel, Resources, Result, Session, SessionOptions,
    TileStore,
};
use tfhpc_sim::device::{Cost, KernelClass};
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::topology::{ClusterSim, Loc};
use tfhpc_tensor::Tensor;

/// The runtime cluster: a registry of in-process servers plus the
/// transport configuration and (optionally) the simulated hardware.
pub struct TfCluster {
    /// The logical cluster specification.
    pub spec: ClusterSpec,
    /// Wire protocol for inter-task tensor movement.
    pub protocol: Protocol,
    /// Cluster-wide transport forced by `TFHPC_TRANSPORT`, resolved
    /// once at creation. Per-link [`ClusterSpec`] overrides beat it;
    /// it beats the protocol's natural default.
    transport_env: Option<Transport>,
    /// Simulated hardware, when running on the virtual platform.
    pub sim: Option<Arc<ClusterSim>>,
    servers: RwLock<HashMap<TaskKey, Arc<Server>>>,
    stores: RwLock<HashMap<String, Arc<TileStore>>>,
    /// Tasks known to be down, with the reason — remote ops targeting
    /// them fail fast with `Unavailable` instead of parking forever.
    dead: RwLock<HashMap<TaskKey, String>>,
    /// Cluster generation, bumped on gang restart. Servers remember
    /// the generation they were started under; a server from an older
    /// generation is fenced off (its remote ops return `Aborted`) so a
    /// straggler process cannot corrupt the restarted computation.
    epoch: AtomicU64,
    /// Injected fault schedule (node crashes, link faults, delay
    /// spikes), evaluated against virtual time.
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// The call policy every wire-crossing primitive runs under, with
    /// its per-destination breaker and budget state.
    calls: RwLock<Arc<Calls>>,
    /// Parking surface for tasks frozen by an injected hang: a hung
    /// task blocks here instead of exiting, and supervision notifies
    /// the gate after fencing so the corpse unwinds. Installed by the
    /// launcher on simulated runs.
    hang_gate: RwLock<Option<tfhpc_sim::des::SimCondvar>>,
    /// `TFHPC_QUORUM` override of the strict-majority quorum size.
    quorum_override: Option<usize>,
    /// Audit log of quorum self-fences: one entry per task entering
    /// the `Fenced` park (the drill's time-to-fence source).
    fence_log: Mutex<Vec<FenceEvent>>,
}

/// One task entering the quorum-fenced park.
#[derive(Debug, Clone, PartialEq)]
pub struct FenceEvent {
    /// The task that fenced itself.
    pub key: TaskKey,
    /// Its node index.
    pub node: usize,
    /// Virtual time it observed the quorum loss.
    pub at_s: f64,
}

impl TfCluster {
    /// Create a runtime cluster. Fails fast (panics) on a malformed
    /// `TFHPC_TRANSPORT` or `TFHPC_QUORUM` value, per the strict
    /// env-knob contract.
    pub fn new(spec: ClusterSpec, protocol: Protocol, sim: Option<Arc<ClusterSim>>) -> Arc<Self> {
        let transport_env = crate::transport::env_transport().unwrap_or_else(|e| panic!("{e}"));
        let quorum_override =
            tfhpc_core::env::env_usize("TFHPC_QUORUM").unwrap_or_else(|e| panic!("{e}"));
        Arc::new(TfCluster {
            spec,
            protocol,
            transport_env,
            sim,
            servers: RwLock::new(HashMap::new()),
            stores: RwLock::new(HashMap::new()),
            dead: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            faults: RwLock::new(None),
            calls: RwLock::default(),
            hang_gate: RwLock::new(None),
            quorum_override,
            fence_log: Mutex::new(Vec::new()),
        })
    }

    /// Create and register the server for `key`, bound to `node` with
    /// the given visible-GPU mapping. Re-starting an existing key
    /// replaces the old server (checkpoint-restart): the new
    /// incarnation is stamped with the current cluster generation and
    /// virtual time, and any stale death mark for the key is cleared.
    pub fn start_server(
        self: &Arc<Self>,
        key: TaskKey,
        node: usize,
        gpu_map: Vec<usize>,
    ) -> Arc<Server> {
        let devices = match &self.sim {
            Some(sim) => DeviceCtx::simulated(Arc::clone(sim), node, gpu_map),
            None => DeviceCtx::real(gpu_map.len()),
        };
        let server = Arc::new(Server {
            key: key.clone(),
            node,
            resources: Resources::new(),
            devices,
            cluster: Arc::downgrade(self),
            epoch: self.epoch.load(Ordering::SeqCst),
            born_at: tfhpc_sim::des::current().map(|p| p.now()).unwrap_or(0.0),
            send_seq: AtomicU64::new(0),
            seen_msgs: Mutex::new(HashSet::new()),
        });
        self.dead.write().remove(&key);
        self.servers.write().insert(key, Arc::clone(&server));
        server
    }

    /// Look up a running server.
    pub fn server(&self, key: &TaskKey) -> Result<Arc<Server>> {
        self.servers
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("server {key}")))
    }

    // ---- failure plane -----------------------------------------------------

    /// Install an injected fault schedule.
    pub fn set_faults(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.write() = plan;
    }

    /// The injected fault schedule, when one is installed.
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults.read().clone()
    }

    /// Install the hang-gate condvar hung tasks park on (sim only).
    pub fn set_hang_gate(&self, gate: Option<tfhpc_sim::des::SimCondvar>) {
        *self.hang_gate.write() = gate;
    }

    /// The hang-gate condvar, when one is installed.
    pub fn hang_gate(&self) -> Option<tfhpc_sim::des::SimCondvar> {
        self.hang_gate.read().clone()
    }

    /// Wake every task parked on the hang gate so it can observe its
    /// fencing verdict (supersession or death mark) and unwind. Must be
    /// called from inside a sim process.
    pub fn notify_hang_gate(&self) {
        if let Some(gate) = self.hang_gate.read().clone() {
            gate.notify_all();
        }
    }

    /// Is `server` still the registered incarnation for its key? False
    /// once a partial restart replaced it — the per-task analogue of
    /// the epoch fence.
    pub fn is_current(&self, server: &Server) -> bool {
        self.servers
            .read()
            .get(&server.key)
            .is_some_and(|reg| std::ptr::eq(Arc::as_ptr(reg), server))
    }

    // ---- quorum / fencing --------------------------------------------------

    /// The sorted distinct node set hosting registered servers — the
    /// voting universe the quorum rule counts over.
    pub fn universe(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .servers
            .read()
            .values()
            .map(|s| s.node)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// Nodes a partition island must bidirectionally reach to keep
    /// deciding: strict majority of the universe (`len/2 + 1`), or the
    /// `TFHPC_QUORUM` override (clamped to at least 1).
    pub fn quorum_required(&self, universe_len: usize) -> usize {
        self.quorum_override.unwrap_or(universe_len / 2 + 1).max(1)
    }

    /// Does `node` sit in a quorate partition island at `now_s`? True
    /// when no partition fault kinds are scheduled at all (the cheap
    /// steady-state path), or when `node` bidirectionally reaches a
    /// quorum of the universe.
    pub fn has_quorum(&self, node: usize, now_s: f64) -> bool {
        let Some(plan) = self.faults() else {
            return true;
        };
        if !plan.has_partition_events() {
            return true;
        }
        let universe = self.universe();
        plan.reachable_count(node, &universe, now_s) >= self.quorum_required(universe.len())
    }

    /// Record a task entering the quorum-fenced park.
    fn note_fenced(&self, key: &TaskKey, node: usize, at_s: f64) {
        tfhpc_obs::global().counter("tfhpc_fenced_total").inc();
        self.fence_log.lock().push(FenceEvent {
            key: key.clone(),
            node,
            at_s,
        });
    }

    /// Audit log of quorum self-fences, in park order.
    pub fn fence_events(&self) -> Vec<FenceEvent> {
        self.fence_log.lock().clone()
    }

    /// Install the call policy remote calls run under, with fresh
    /// breaker and budget state.
    pub fn set_call_policy(&self, policy: CallPolicy) {
        *self.calls.write() = Arc::new(Calls::new(policy));
    }

    /// The call policy in force and its per-destination state.
    pub fn calls(&self) -> Arc<Calls> {
        self.calls.read().clone()
    }

    /// The transport active on the (direction-independent) link
    /// between two jobs: per-link spec override > spec default >
    /// `TFHPC_TRANSPORT` > protocol default.
    pub fn transport_for(&self, job_a: &str, job_b: &str) -> Transport {
        self.spec
            .transport_override(job_a, job_b)
            .or(self.transport_env)
            .unwrap_or_else(|| Transport::default_for(self.protocol))
    }

    /// The DES protocol charged on the link between two jobs under its
    /// active transport (zero-copy always moves at Verbs costs).
    pub fn wire_protocol(&self, job_a: &str, job_b: &str) -> Protocol {
        self.transport_for(job_a, job_b)
            .wire_protocol(self.protocol)
    }

    /// Current cluster generation.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bump the cluster generation (gang restart); returns the new
    /// generation. Servers started before the bump are fenced off.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Declare `key` down: record the reason and abort every queue on
    /// its server with `Unavailable`, waking peers parked on it.
    pub fn mark_dead(&self, key: &TaskKey, reason: &str) {
        self.dead
            .write()
            .entry(key.clone())
            .or_insert_with(|| reason.to_string());
        if let Some(server) = self.servers.read().get(key).cloned() {
            server
                .resources
                .abort_all_queues(CoreError::Unavailable(format!(
                    "task {key} is down: {reason}"
                )));
        }
    }

    /// True when `key` has been declared down.
    pub fn is_dead(&self, key: &TaskKey) -> bool {
        self.dead.read().contains_key(key)
    }

    /// Why `key` is down, when it is.
    pub fn death_reason(&self, key: &TaskKey) -> Option<String> {
        self.dead.read().get(key).cloned()
    }

    /// Forget all death marks (gang restart brings every task back).
    pub fn clear_dead(&self) {
        self.dead.write().clear();
    }

    /// Abort every queue of every registered server with `err` —
    /// the supervisor's gang teardown, unblocking all parked tasks.
    pub fn abort_all(&self, err: CoreError) {
        let servers: Vec<Arc<Server>> = self.servers.read().values().cloned().collect();
        for s in servers {
            s.resources.abort_all_queues(err.clone());
        }
    }

    /// Mount an existing tile store into this cluster's shared
    /// namespace (persistent Lustre data surviving across job
    /// allocations — e.g. checkpoints picked up by a restarted job).
    pub fn register_shared_store(&self, name: &str, store: Arc<TileStore>) {
        self.stores.write().insert(name.to_string(), store);
    }

    /// A cluster-wide shared tile store (the Lustre namespace both
    /// systems mount; every task sees the same files).
    pub fn shared_store(&self, name: &str) -> Arc<TileStore> {
        Arc::clone(
            self.stores
                .write()
                .entry(name.to_string())
                .or_insert_with(|| TileStore::new(name)),
        )
    }
}

/// One TensorFlow task's server.
pub struct Server {
    /// This task's identity.
    pub key: TaskKey,
    /// Node index on the (possibly simulated) cluster.
    pub node: usize,
    /// The task's resource manager.
    pub resources: Arc<Resources>,
    /// The task's device context.
    pub devices: DeviceCtx,
    cluster: Weak<TfCluster>,
    /// Cluster generation this incarnation was started under.
    epoch: u64,
    /// Virtual time this incarnation was started at — crashes injected
    /// before it (i.e. the crash that *caused* a restart) don't kill
    /// the replacement server on the same node.
    born_at: f64,
    /// Sender-side message sequence, mixed into wire message ids so a
    /// duplication window's redundant delivery dedups by identity.
    send_seq: AtomicU64,
    /// Receiver-side dedup set: ids of messages already applied. An
    /// at-least-once transport may deliver twice; the second copy is
    /// dropped here instead of double-applying.
    seen_msgs: Mutex<HashSet<u64>>,
}

impl Server {
    /// The owning runtime cluster. Panics when the cluster has been
    /// dropped; internal paths use [`Server::try_cluster`] instead.
    pub fn cluster(&self) -> Arc<TfCluster> {
        self.cluster.upgrade().expect("cluster dropped")
    }

    /// The owning runtime cluster, or `Unavailable` when it has been
    /// torn down under this server (shutdown race).
    pub fn try_cluster(&self) -> Result<Arc<TfCluster>> {
        self.cluster.upgrade().ok_or_else(|| {
            CoreError::Unavailable(format!("task {}: cluster has been shut down", self.key))
        })
    }

    /// Cluster generation this incarnation belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Virtual time this incarnation came up (0 in real mode).
    pub fn born_at(&self) -> f64 {
        self.born_at
    }

    /// Current virtual time as seen from the calling process (0 when
    /// not inside a simulated process).
    fn now_s(&self) -> f64 {
        tfhpc_sim::des::current().map(|p| p.now()).unwrap_or(0.0)
    }

    /// Fencing check: fail with `Aborted` when this incarnation has
    /// been superseded by a gang restart or a partial restart, or when
    /// the injected fault plan has crashed this incarnation's node. A
    /// *hung* node does not return at all: the call parks on the
    /// cluster hang gate until supervision fences the incarnation off —
    /// the failure mode only the membership plane's heartbeat deadline
    /// can catch. A node cut off from quorum by a partition parks as
    /// `Fenced` ([`Server::park_fenced`]): it never becomes a second
    /// decider, and rejoins only when the partition heals (or unwinds
    /// once supervision supersedes it).
    pub fn check_alive(&self) -> Result<()> {
        self.resolve_alive().map(drop)
    }

    /// [`Server::check_alive`], handing back the cluster and fault plan
    /// it checked against so a remote op resolves them once.
    fn resolve_alive(&self) -> Result<(Arc<TfCluster>, Option<Arc<FaultPlan>>)> {
        let cluster = self.try_cluster()?;
        self.fenced(&cluster)?;
        let plan = cluster.faults();
        if let Some(plan) = &plan {
            let now = self.now_s();
            if plan.crashed(self.node, self.born_at, now) {
                return Err(CoreError::Aborted(format!(
                    "task {} lost: node {} crashed (injected, t={now:.6})",
                    self.key, self.node
                )));
            }
            if plan.hung(self.node, self.born_at, now) {
                self.park_hung(&cluster)?;
            } else if plan.has_partition_events() && !cluster.has_quorum(self.node, now) {
                self.park_fenced(&cluster, plan)?;
            }
        }
        Ok((cluster, plan))
    }

    /// The pure fencing predicates (no fault-plan consultation):
    /// generation fence, then the per-task incarnation fence a partial
    /// restart advances.
    fn fenced(&self, cluster: &Arc<TfCluster>) -> Result<()> {
        let epoch = cluster.epoch();
        if self.epoch != epoch {
            return Err(CoreError::Aborted(format!(
                "task {} generation {} superseded by generation {epoch}",
                self.key, self.epoch
            )));
        }
        if !cluster.is_current(self) {
            return Err(CoreError::Aborted(format!(
                "task {} incarnation superseded by a partial restart",
                self.key
            )));
        }
        Ok(())
    }

    /// Freeze the calling task: block on the hang gate until a fencing
    /// verdict (supersession, death mark) lets the corpse unwind.
    /// Without a gate (real mode, bare clusters) the hang degrades to a
    /// crash-style abort so the failure stays visible.
    fn park_hung(&self, cluster: &Arc<TfCluster>) -> Result<()> {
        let gate = cluster.hang_gate();
        let (Some(gate), Some(_)) = (gate, tfhpc_sim::des::current()) else {
            return Err(CoreError::Aborted(format!(
                "task {} frozen: node {} hung (injected, no hang gate installed)",
                self.key, self.node
            )));
        };
        loop {
            gate.wait();
            self.fenced(cluster)?;
            if let Some(reason) = cluster.death_reason(&self.key) {
                return Err(CoreError::Unavailable(format!(
                    "task {} is down: {reason}",
                    self.key
                )));
            }
        }
    }

    /// Quorum self-fence: the calling task sits in a minority
    /// partition island, so it parks instead of deciding — the
    /// split-brain guard that keeps a second supervised-resume decider
    /// from ever electing itself. The park ends three ways:
    ///
    /// * the partition heals → `Ok(())`, the task *rejoins* and the
    ///   interrupted op proceeds;
    /// * supervision (driven by the missed heartbeats) supersedes or
    ///   gang-restarts the incarnation → `Aborted` via the usual
    ///   fencing predicates, and the corpse unwinds;
    /// * the task is marked dead → `Unavailable`.
    ///
    /// Parks on the cluster hang gate when one is installed (woken by
    /// supervision verdicts and bounded by the plan's heal time);
    /// otherwise sleeps virtual time to the heal point, or — outside
    /// the DES with no gate — degrades to an immediate `Unavailable`
    /// so the fence stays visible.
    fn park_fenced(&self, cluster: &Arc<TfCluster>, plan: &Arc<FaultPlan>) -> Result<()> {
        cluster.note_fenced(&self.key, self.node, self.now_s());
        let gate = cluster.hang_gate();
        loop {
            let now = self.now_s();
            if cluster.has_quorum(self.node, now) {
                return Ok(());
            }
            self.fenced(cluster)?;
            if let Some(reason) = cluster.death_reason(&self.key) {
                return Err(CoreError::Unavailable(format!(
                    "task {} is down: {reason}",
                    self.key
                )));
            }
            let heal = plan.partition_heal_s(now).filter(|&t| t > now);
            match (&gate, tfhpc_sim::des::current()) {
                (Some(g), Some(_)) => match heal {
                    Some(t) => {
                        g.wait_until(t);
                    }
                    None => g.wait(),
                },
                (None, Some(me)) => match heal {
                    Some(t) => me.advance(t - now),
                    None => {
                        return Err(CoreError::Unavailable(format!(
                            "task {} fenced: node {} lost quorum with no heal scheduled",
                            self.key, self.node
                        )))
                    }
                },
                _ => {
                    return Err(CoreError::Unavailable(format!(
                        "task {} fenced: node {} lost quorum (minority partition, t={now:.6})",
                        self.key, self.node
                    )))
                }
            }
        }
    }

    /// Resolve `target` for a remote op, applying the failure plane:
    /// fences this server ([`Server::check_alive`]), fails fast with
    /// `Unavailable` when the target is marked dead, its node is
    /// crashed, the route is partitioned/blackholed, or a link fault
    /// is active on either endpoint, and charges active delay spikes
    /// to the caller's virtual clock.
    fn peer_checked(&self, target: &TaskKey) -> Result<Route> {
        let (cluster, plan) = self.resolve_alive()?;
        if let Some(reason) = cluster.death_reason(target) {
            return Err(CoreError::Unavailable(format!(
                "task {target} is down: {reason}"
            )));
        }
        let peer = cluster.server(target)?;
        if let Some(plan) = &plan {
            let now = self.now_s();
            if plan.crashed(peer.node, peer.born_at, now) {
                return Err(CoreError::Unavailable(format!(
                    "task {target} unreachable: node {} crashed (injected, t={now:.6})",
                    peer.node
                )));
            }
            // Remote primitives are request/response: a partition or
            // a one-way blackhole on *either* direction severs the op.
            for (from, to) in [(self.node, peer.node), (peer.node, self.node)] {
                if !plan.can_send(from, to, now) {
                    let until = plan
                        .partition_until(self.node, peer.node, now)
                        .map(|u| format!(" until t={u:.6}"))
                        .unwrap_or_default();
                    return Err(CoreError::Unavailable(format!(
                        "task {target} unreachable: route {from}→{to} \
                         partitioned{until} (injected, t={now:.6})"
                    )));
                }
            }
            for node in [self.node, peer.node] {
                if let Some(until) = plan.link_fault_until(node, now) {
                    return Err(CoreError::Unavailable(format!(
                        "link to node {node} faulted until t={until:.6} (injected, t={now:.6})"
                    )));
                }
            }
            let extra = plan.extra_delay(self.node, now) + plan.extra_delay(peer.node, now);
            if extra > 0.0 {
                if let Some(me) = tfhpc_sim::des::current() {
                    me.advance(extra);
                }
            }
        }
        Route::new(cluster, plan, self, peer)
    }

    /// The route to an already-resolved `peer` with no failure-plane
    /// check beyond [`Route`]'s generation fence — for collectives and
    /// rendezvous, which do their own.
    pub fn route_to(&self, peer: &Arc<Server>) -> Result<Route> {
        let cluster = self.try_cluster()?;
        let plan = cluster.faults();
        Route::new(cluster, plan, self, Arc::clone(peer))
    }

    /// How long a remote queue or variable op waits for the owner to
    /// register the name before reporting `NotFound` — rides out the
    /// startup race where a gang task's first request lands while the
    /// peer is still in its setup code.
    const RESOLVE_TIMEOUT_S: f64 = 5.0;

    /// Open a session on this server over `graph`.
    pub fn session(&self, graph: Arc<Graph>) -> Session {
        Session::new(graph, Arc::clone(&self.resources), self.devices.clone())
    }

    /// [`Server::session`] with explicit threading options
    /// (`inter_op_threads` / `intra_op_threads`).
    pub fn session_with_options(&self, graph: Arc<Graph>, options: SessionOptions) -> Session {
        Session::with_options(
            graph,
            Arc::clone(&self.resources),
            self.devices.clone(),
            options,
        )
    }

    /// Physical location of a tensor on this task (`gpu` is the
    /// *visible* GPU index).
    pub fn loc(&self, gpu: Option<usize>) -> Loc {
        let slot = match (&self.devices.sim, gpu) {
            (Some(sim), Some(g)) => sim.gpu_map.get(g).copied(),
            _ => None,
        };
        Loc {
            node: self.node,
            gpu: slot,
        }
    }

    /// Next wire message id from this sender toward `queue`: FNV-1a
    /// over the sender's identity (task key + incarnation birth time)
    /// and a per-incarnation sequence — unique per logical message,
    /// identical across the duplicate deliveries of one message.
    fn next_msg_id(&self, queue: &str) -> u64 {
        use std::fmt::Write;
        let seq = self.send_seq.fetch_add(1, Ordering::SeqCst);
        let mut h = tfhpc_sim::fnv::Fnv1a44::default();
        write!(h, "{}{queue}", self.key).expect("hashing cannot fail");
        h.eat(&self.born_at.to_bits().to_le_bytes());
        h.eat(&seq.to_le_bytes());
        h.0
    }

    /// First sighting of wire message `id` on this receiver? False for
    /// a duplicate delivery, which the caller must drop unapplied.
    fn note_delivery(&self, id: u64) -> bool {
        self.seen_msgs.lock().insert(id)
    }

    /// Push a tuple into a queue owned by `target`, paying the transfer
    /// from this task (optionally from GPU-resident memory). Transient
    /// (`Unavailable`) failures are retried per the cluster's policy.
    ///
    /// Inside an injected duplication/reordering window the transport
    /// behaves at-least-once: the same message arrives twice, and the
    /// receiver dedups by wire message id so the enqueue applies
    /// exactly once (the redundant copy is counted and its wire cost
    /// charged, but it never lands).
    pub fn remote_enqueue(
        &self,
        target: &TaskKey,
        queue: &str,
        tuple: Vec<Tensor>,
        src_gpu: Option<usize>,
    ) -> Result<()> {
        self.call("remote_enqueue", Some(target), || {
            let route = self.peer_checked(target)?;
            let peer = &route.peer;
            let bytes: u64 = tuple.iter().map(|t| t.byte_size() as u64).sum();
            route.charge_transfer(self, src_gpu, peer, None, bytes);
            // Frame + verify before the tuple lands: a corrupted
            // transfer is detected here and the retry retransmits
            // without ever double-enqueueing.
            let verified = crate::wire::transfer(
                self,
                &route,
                "remote_enqueue",
                &[self.node, peer.node],
                &tuple,
            )?;
            let q = peer.resources.queue_wait(queue, Self::RESOLVE_TIMEOUT_S)?;
            let dup_window = route.plan.as_ref().is_some_and(|plan| {
                let now = self.now_s();
                plan.dup_reorder_at(self.node, now) || plan.dup_reorder_at(peer.node, now)
            });
            if !dup_window {
                return q.enqueue(verified);
            }
            let msg_id = self.next_msg_id(queue);
            let mut outcome = Ok(());
            for _delivery in 0..2 {
                if peer.note_delivery(msg_id) {
                    outcome = q.enqueue(verified.clone());
                } else {
                    // The duplicate still crossed the wire; only the
                    // apply is suppressed.
                    route.charge_transfer(self, src_gpu, peer, None, bytes);
                    tfhpc_obs::global().counter("tfhpc_dup_dropped_total").inc();
                }
            }
            outcome
        })
    }

    /// Pop a tuple from a queue owned by `target`, paying the return
    /// transfer to this task. Transient failures are retried per the
    /// cluster's policy.
    pub fn remote_dequeue(
        &self,
        target: &TaskKey,
        queue: &str,
        dst_gpu: Option<usize>,
    ) -> Result<Vec<Tensor>> {
        let (tuple, route) = self.call("remote_dequeue", Some(target), || {
            let route = self.peer_checked(target)?;
            let tuple = route
                .peer
                .resources
                .queue_wait(queue, Self::RESOLVE_TIMEOUT_S)?
                .dequeue()?;
            Ok((tuple, route))
        })?;
        self.land_dequeued(
            "remote_dequeue",
            "remote_dequeue/verify",
            &route,
            tuple,
            dst_gpu,
        )
    }

    /// Pay the return transfer of a tuple popped from `route.peer` and
    /// verify it. The verification is a call of its own (salted by
    /// `verify_what`), outside the dequeue's: the tuple is already
    /// ours, so a corrupted delivery retransmits from the held copy
    /// instead of popping the queue a second time.
    fn land_dequeued(
        &self,
        what: &str,
        verify_what: &str,
        route: &Route,
        tuple: Vec<Tensor>,
        dst_gpu: Option<usize>,
    ) -> Result<Vec<Tensor>> {
        let peer = &route.peer;
        let bytes: u64 = tuple.iter().map(|t| t.byte_size() as u64).sum();
        route.charge_transfer(peer, None, self, dst_gpu, bytes);
        self.call(verify_what, Some(&peer.key), || {
            crate::wire::transfer(self, route, what, &[peer.node, self.node], &tuple)
        })
    }

    /// [`Server::remote_dequeue`] with a deadline: waits at most
    /// `timeout_s` (virtual seconds under the DES, wall seconds
    /// otherwise) and returns `DeadlineExceeded` on expiry instead of
    /// blocking forever. Nothing but the verify of a popped tuple is
    /// retried.
    pub fn remote_dequeue_deadline(
        &self,
        target: &TaskKey,
        queue: &str,
        dst_gpu: Option<usize>,
        timeout_s: f64,
    ) -> Result<Vec<Tensor>> {
        let route = self.peer_checked(target)?;
        let tuple = route
            .peer
            .resources
            .queue_wait(queue, timeout_s.min(Self::RESOLVE_TIMEOUT_S))?
            .dequeue_timeout(timeout_s)?;
        self.land_dequeued(
            "remote_dequeue_deadline",
            "remote_dequeue_deadline/verify",
            &route,
            tuple,
            dst_gpu,
        )
    }

    /// `target_var += value` on the parameter server `target` — the
    /// paper's STREAM operation. `dst_gpu` says where the variable
    /// lives on the target. Transient failures are retried per the
    /// cluster's policy.
    pub fn remote_assign_add(
        &self,
        target: &TaskKey,
        var: &str,
        value: &Tensor,
        src_gpu: Option<usize>,
        dst_gpu: Option<usize>,
    ) -> Result<()> {
        self.call("remote_assign_add", Some(target), || {
            let route = self.peer_checked(target)?;
            let peer = &route.peer;
            route.charge_transfer(self, src_gpu, peer, dst_gpu, value.byte_size() as u64);
            // Verify before applying: the add happens at most once,
            // on checksum-verified bytes.
            let verified = crate::wire::transfer(
                self,
                &route,
                "remote_assign_add",
                &[self.node, peer.node],
                std::slice::from_ref(value),
            )?;
            peer.resources
                .variable_wait(var, Self::RESOLVE_TIMEOUT_S)?
                .assign_add(&verified[0])?;
            // The add itself executes on the target's device.
            let placement = match dst_gpu {
                Some(g) => tfhpc_core::Placement::Gpu(g),
                None => tfhpc_core::Placement::Cpu,
            };
            // The accumulate streams through the target's memory as
            // data lands (pipelined with the receive), so charge one
            // pass.
            let cost = Cost {
                flops: value.num_elements() as f64,
                bytes: value.byte_size() as f64,
                class: KernelClass::Blas1,
            };
            let dp = !matches!(value.dtype(), tfhpc_tensor::DType::F32);
            peer.devices.charge_kernel(placement, &cost, dp);
            Ok(())
        })
    }

    /// Overwrite `target_var` with `value` — used to reinstate a
    /// checkpointed accumulator on a restarted parameter server.
    /// Transient failures are retried per the cluster's policy.
    pub fn remote_assign(
        &self,
        target: &TaskKey,
        var: &str,
        value: &Tensor,
        src_gpu: Option<usize>,
        dst_gpu: Option<usize>,
    ) -> Result<()> {
        self.call("remote_assign", Some(target), || {
            let route = self.peer_checked(target)?;
            let peer = &route.peer;
            route.charge_transfer(self, src_gpu, peer, dst_gpu, value.byte_size() as u64);
            // Verify before applying, like remote_assign_add: the
            // overwrite lands at most once, on verified bytes.
            let mut verified = crate::wire::transfer(
                self,
                &route,
                "remote_assign",
                &[self.node, peer.node],
                std::slice::from_ref(value),
            )?;
            let value = verified.pop().ok_or_else(|| {
                CoreError::Invalid("remote_assign: wire transfer returned no tensors".into())
            })?;
            let stored_bytes = value.byte_size() as f64;
            peer.resources
                .variable_wait(var, Self::RESOLVE_TIMEOUT_S)?
                .assign(value)?;
            let placement = match dst_gpu {
                Some(g) => tfhpc_core::Placement::Gpu(g),
                None => tfhpc_core::Placement::Cpu,
            };
            // A plain store: one pass through the target's memory.
            let cost = Cost {
                flops: 0.0,
                bytes: stored_bytes,
                class: KernelClass::Elementwise,
            };
            peer.devices.charge_kernel(placement, &cost, true);
            Ok(())
        })
    }

    /// Read a variable from `target`, paying the transfer back.
    /// Transient failures are retried per the cluster's policy.
    pub fn remote_var_read(
        &self,
        target: &TaskKey,
        var: &str,
        dst_gpu: Option<usize>,
    ) -> Result<Tensor> {
        self.call("remote_var_read", Some(target), || {
            let route = self.peer_checked(target)?;
            let peer = &route.peer;
            let value = peer
                .resources
                .variable_wait(var, Self::RESOLVE_TIMEOUT_S)?
                .read();
            route.charge_transfer(peer, None, self, dst_gpu, value.byte_size() as u64);
            // Reads are idempotent: a corrupted return transfer
            // retries the whole read, recharging the wire like a
            // real retransmission.
            let mut verified = crate::wire::transfer(
                self,
                &route,
                "remote_var_read",
                &[peer.node, self.node],
                std::slice::from_ref(&value),
            )?;
            verified.pop().ok_or_else(|| {
                CoreError::Invalid("remote_var_read: wire transfer returned no tensors".into())
            })
        })
    }

    /// A graph kernel that enqueues its inputs into `target`'s queue.
    pub fn enqueue_kernel(
        self: &Arc<Self>,
        target: TaskKey,
        queue: &str,
        src_gpu: Option<usize>,
    ) -> Arc<dyn OpKernel> {
        Arc::new(RemoteEnqueueKernel {
            server: Arc::clone(self),
            target,
            queue: queue.to_string(),
            src_gpu,
        })
    }

    /// A graph kernel that dequeues an `arity`-tuple from `target`'s
    /// queue.
    pub fn dequeue_kernel(
        self: &Arc<Self>,
        target: TaskKey,
        queue: &str,
        arity: usize,
        dst_gpu: Option<usize>,
    ) -> Arc<dyn OpKernel> {
        Arc::new(RemoteDequeueKernel {
            server: Arc::clone(self),
            target,
            queue: queue.to_string(),
            arity,
            dst_gpu,
        })
    }
}

struct RemoteEnqueueKernel {
    server: Arc<Server>,
    target: TaskKey,
    queue: String,
    src_gpu: Option<usize>,
}

impl OpKernel for RemoteEnqueueKernel {
    fn name(&self) -> &str {
        "RemoteEnqueue"
    }

    fn compute(&self, _resources: &Resources, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.server
            .remote_enqueue(&self.target, &self.queue, inputs.to_vec(), self.src_gpu)?;
        Ok(vec![])
    }
}

struct RemoteDequeueKernel {
    server: Arc<Server>,
    target: TaskKey,
    queue: String,
    arity: usize,
    dst_gpu: Option<usize>,
}

impl OpKernel for RemoteDequeueKernel {
    fn name(&self) -> &str {
        "RemoteDequeue"
    }

    fn compute(&self, _resources: &Resources, _inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let tuple = self
            .server
            .remote_dequeue(&self.target, &self.queue, self.dst_gpu)?;
        if tuple.len() != self.arity {
            return Err(CoreError::Graph(format!(
                "remote queue `{}` yielded {} tensors, expected {}",
                self.queue,
                tuple.len(),
                self.arity
            )));
        }
        Ok(tuple)
    }
}

/// Queues created on a server must be registered under the server's
/// resources so remote ops can find them by name.
pub fn create_task_queue(server: &Server, name: &str, capacity: usize) -> Arc<FifoQueue> {
    server.resources.create_queue(name, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_task_cluster() -> (Arc<TfCluster>, Arc<Server>, Arc<Server>) {
        let spec = ClusterSpec::new([
            ("ps".to_string(), vec!["a:8888".to_string()]),
            ("worker".to_string(), vec!["b:8888".to_string()]),
        ]);
        let cluster = TfCluster::new(spec, Protocol::Rdma, None);
        let ps = cluster.start_server(TaskKey::new("ps", 0), 0, vec![]);
        let worker = cluster.start_server(TaskKey::new("worker", 0), 1, vec![0]);
        (cluster, ps, worker)
    }

    #[test]
    fn servers_register_and_resolve() {
        let (cluster, _ps, _w) = two_task_cluster();
        assert!(cluster.server(&TaskKey::new("ps", 0)).is_ok());
        assert!(cluster.server(&TaskKey::new("worker", 5)).is_err());
    }

    #[test]
    fn remote_assign_add_updates_ps_variable() {
        let (_c, ps, worker) = two_task_cluster();
        ps.resources
            .create_variable("acc", Tensor::from_f64([2], vec![1.0, 1.0]).unwrap());
        worker
            .remote_assign_add(
                &TaskKey::new("ps", 0),
                "acc",
                &Tensor::from_f64([2], vec![2.0, 3.0]).unwrap(),
                None,
                None,
            )
            .unwrap();
        assert_eq!(
            ps.resources
                .variable("acc")
                .unwrap()
                .read()
                .as_f64()
                .unwrap(),
            &[3.0, 4.0]
        );
    }

    #[test]
    fn remote_queue_roundtrip() {
        let (_c, ps, worker) = two_task_cluster();
        create_task_queue(&ps, "results", 4);
        worker
            .remote_enqueue(
                &TaskKey::new("ps", 0),
                "results",
                vec![Tensor::scalar_f64(9.0)],
                None,
            )
            .unwrap();
        let got = worker
            .remote_dequeue(&TaskKey::new("ps", 0), "results", None)
            .unwrap();
        assert_eq!(got[0].scalar_value_f64().unwrap(), 9.0);
    }

    #[test]
    fn msg_ids_hash_the_same_byte_stream_as_before() {
        // Pinned against the `key.to_string()` implementation: FNV-1a
        // over "/job:worker/task:0" ‖ "results" ‖ born_at ‖ seq.
        let (_c, _ps, worker) = two_task_cluster();
        assert_eq!(worker.next_msg_id("results"), 0x65d7_0e02_96d8_fa93);
        assert_eq!(worker.next_msg_id("results"), 0xfc05_9ef9_8be9_b072);
    }

    #[test]
    fn remote_kernels_work_in_graphs() {
        let (_c, ps, worker) = two_task_cluster();
        create_task_queue(&ps, "q", 4);
        let mut g = Graph::new();
        let v = g.constant(Tensor::scalar_f64(7.0));
        let k = worker.enqueue_kernel(TaskKey::new("ps", 0), "q", None);
        let enq = g.custom(k, &[v], &[]);
        let dk = worker.dequeue_kernel(TaskKey::new("ps", 0), "q", 1, None);
        let deq = g.custom(dk, &[], &[enq]);
        let sess = worker.session(Arc::new(g));
        let out = sess.run(&[deq], &[]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 7.0);
    }

    #[test]
    fn shared_store_is_cluster_wide() {
        let (c, _ps, _worker) = two_task_cluster();
        let (a, b) = (c.shared_store("tiles"), c.shared_store("tiles"));
        assert!(Arc::ptr_eq(&a, &b));
        a.put(vec![0], Tensor::scalar_f64(1.0));
        assert_eq!(b.get(&[0]).unwrap().scalar_value_f64().unwrap(), 1.0);
        assert!(c.shared_store("other").is_empty());
    }

    #[test]
    fn remote_var_read_returns_value() {
        let (_c, ps, worker) = two_task_cluster();
        ps.resources.create_variable("w", Tensor::scalar_f64(3.5));
        let v = worker
            .remote_var_read(&TaskKey::new("ps", 0), "w", None)
            .unwrap();
        assert_eq!(v.scalar_value_f64().unwrap(), 3.5);
    }

    #[test]
    fn dead_peer_fails_fast_with_unavailable() {
        let (c, ps, worker) = two_task_cluster();
        ps.resources.create_variable("w", Tensor::scalar_f64(3.5));
        c.mark_dead(&TaskKey::new("ps", 0), "supervisor observed exit");
        let err = worker
            .remote_var_read(&TaskKey::new("ps", 0), "w", None)
            .unwrap_err();
        assert!(matches!(err, CoreError::Unavailable(_)), "{err}");
        assert!(err.is_transient());
        assert!(c.is_dead(&TaskKey::new("ps", 0)));
        // Restarting the server clears the mark.
        c.start_server(TaskKey::new("ps", 0), 0, vec![]);
        assert!(!c.is_dead(&TaskKey::new("ps", 0)));
    }

    #[test]
    fn marking_dead_unblocks_parked_dequeue() {
        let (c, ps, worker) = two_task_cluster();
        create_task_queue(&ps, "results", 4);
        let w2 = Arc::clone(&worker);
        let c2 = Arc::clone(&c);
        let h =
            std::thread::spawn(move || w2.remote_dequeue(&TaskKey::new("ps", 0), "results", None));
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while ps.resources.queue("results").unwrap().parked().0 == 0 {
            assert!(std::time::Instant::now() < give_up, "nobody parked");
            std::thread::yield_now();
        }
        c2.mark_dead(&TaskKey::new("ps", 0), "crashed");
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, CoreError::Unavailable(_)), "{err}");
    }

    #[test]
    fn stale_generation_is_fenced_with_aborted() {
        let (c, ps, worker) = two_task_cluster();
        c.advance_epoch();
        let err = worker
            .remote_var_read(&TaskKey::new("ps", 0), "w", None)
            .unwrap_err();
        assert!(matches!(err, CoreError::Aborted(_)), "{err}");
        assert!(!err.is_transient());
        // A server started after the bump belongs to the new generation.
        let w2 = c.start_server(TaskKey::new("worker", 0), 1, vec![0]);
        assert_eq!(w2.epoch(), c.epoch());
        assert!(w2.check_alive().is_ok());
        // A stale task that resolved the new incarnation anyway (the
        // real-mode race past its fence check) gets no route to it.
        let err = ps.route_to(&w2).err().expect("stale route refused");
        assert!(matches!(err, CoreError::Aborted(_)), "{err}");
        assert!(w2.route_to(&ps).is_ok());
    }

    #[test]
    fn partial_restart_supersedes_old_incarnation() {
        let (c, _ps, worker) = two_task_cluster();
        // Same epoch, but a replacement incarnation registered for the
        // key: the old server is fenced per-task, not per-generation.
        let w2 = c.start_server(TaskKey::new("worker", 0), 1, vec![0]);
        assert!(c.is_current(&w2));
        assert!(!c.is_current(&worker));
        let err = worker.check_alive().unwrap_err();
        assert!(matches!(err, CoreError::Aborted(_)), "{err}");
        assert!(!err.is_transient());
        assert!(w2.check_alive().is_ok());
        assert_eq!(w2.epoch(), worker.epoch());
    }

    #[test]
    fn hang_without_gate_degrades_to_abort() {
        let sim = tfhpc_sim::des::Sim::new();
        let (c, _ps, worker) = two_task_cluster();
        c.set_faults(Some(Arc::new(FaultPlan::new().hang(1, 0.5))));
        let got = Arc::new(parking_lot::Mutex::new(None));
        let got2 = Arc::clone(&got);
        sim.spawn("w", move || {
            if let Some(me) = tfhpc_sim::des::current() {
                me.advance(1.0);
            }
            *got2.lock() = Some(worker.check_alive());
        });
        sim.run();
        // No hang gate installed: the freeze degrades to Aborted
        // instead of deadlocking the simulation.
        let err = got.lock().take().unwrap().unwrap_err();
        assert!(matches!(err, CoreError::Aborted(_)), "{err}");
    }

    #[test]
    fn retry_policy_counts_attempts_on_dead_peer() {
        let (c, _ps, worker) = two_task_cluster();
        c.set_call_policy(CallPolicy::new(3, 0.0));
        c.mark_dead(&TaskKey::new("ps", 0), "down for good");
        let err = worker
            .remote_var_read(&TaskKey::new("ps", 0), "w", None)
            .unwrap_err();
        assert!(matches!(err, CoreError::Unavailable(_)), "{err}");
        assert_eq!(worker.resources.retries_total(), 2);
    }

    #[test]
    fn wire_transfer_roundtrips_bit_exactly_without_faults() {
        let (_c, _ps, worker) = two_task_cluster();
        let dense = Tensor::from_f64([3], vec![1.0 / 3.0, f64::MIN_POSITIVE, -0.0]).unwrap();
        let synth = Tensor::synthetic(tfhpc_tensor::DType::F32, [1 << 20], 0xABCD);
        let own_link = Route {
            transport: Transport::StagedCopy,
            ..worker.route_to(&worker).unwrap()
        };
        let out =
            crate::wire::transfer(&worker, &own_link, "test", &[0, 1], &[dense.clone(), synth])
                .unwrap();
        assert_eq!(out[0].as_f64().unwrap(), dense.as_f64().unwrap());
        assert!(out[1].is_synthetic());
        assert_eq!(out[1].synthetic_seed(), Some(0xABCD));
        assert_eq!(worker.resources.corruption_detected_total(), 0);
    }

    #[test]
    fn corruption_window_is_detected_and_counted_as_retransmittable() {
        let (c, ps, worker) = two_task_cluster();
        ps.resources.create_variable("w", Tensor::scalar_f64(2.5));
        // Real mode pins virtual time at 0: a window starting at 0
        // is active for every attempt, and with retries disabled the
        // transient DataLoss reaches the caller.
        c.set_faults(Some(Arc::new(FaultPlan::new().link_corrupt(0, 0.0, 1.0))));
        let err = worker
            .remote_var_read(&TaskKey::new("ps", 0), "w", None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::DataLoss {
                    transient: true,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.is_transient());
        assert_eq!(worker.resources.corruption_detected_total(), 1);
        assert_eq!(worker.resources.retransmits_total(), 1);
        // Clearing the plan restores clean reads, bit-exactly.
        c.set_faults(None);
        let v = worker
            .remote_var_read(&TaskKey::new("ps", 0), "w", None)
            .unwrap();
        assert_eq!(v.scalar_value_f64().unwrap(), 2.5);
    }

    #[test]
    fn corruption_detection_counts_each_retry_attempt() {
        let (c, ps, worker) = two_task_cluster();
        ps.resources.create_variable("w", Tensor::scalar_f64(1.0));
        c.set_faults(Some(Arc::new(FaultPlan::new().link_corrupt(1, 0.0, 1.0))));
        c.set_call_policy(CallPolicy::new(4, 0.0));
        let err = worker
            .remote_var_read(&TaskKey::new("ps", 0), "w", None)
            .unwrap_err();
        assert!(matches!(err, CoreError::DataLoss { .. }), "{err}");
        // Every attempt hit the (never-closing, in real mode) window.
        assert_eq!(worker.resources.corruption_detected_total(), 4);
        assert_eq!(worker.resources.retransmits_total(), 4);
        assert_eq!(worker.resources.retries_total(), 3);
    }

    #[test]
    fn remote_dequeue_deadline_expires_in_real_mode() {
        let (_c, ps, worker) = two_task_cluster();
        create_task_queue(&ps, "empty", 4);
        let err = worker
            .remote_dequeue_deadline(&TaskKey::new("ps", 0), "empty", None, 0.02)
            .unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded(_)), "{err}");
    }
}
