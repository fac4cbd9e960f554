//! The supervised driver: how all four applications launch, checkpoint,
//! hand out resume points and feed their workers.
//!
//! Checkpoint/restart is the resilience TensorFlow offers HPC (paper
//! §II-B). It is written once here; each app keeps only its step body
//! and who decides its resume point (DESIGN §7 has the table).
//!
//! * [`run_app`] launches in either clock under an optional
//!   [`FaultSetup`], populates the app's shared store, hands it to every
//!   task, wires the observability sinks and returns the launch, the
//!   store, the [`SupervisedStats`] and the trace JSON.
//! * [`Checkpointer`] keeps a ring of per-task slots in that
//!   (Lustre-modeled) [`TileStore`], each a CRC32C-sealed frame that
//!   embeds the checkpoint's iteration. Reads validate seal and metadata,
//!   so a torn or stale file is *skipped* and the reader falls back to an
//!   older generation or a cold start. [`encode_keyed`] is the payload
//!   codec of the apps that checkpoint keyed tensors.
//! * [`send_resume`] / [`recv_resume`] carry a resume point to a worker's
//!   `resume` queue; [`run_pipeline`] is the prefetched worker loop.
//!
//! Checkpoints preserve state bit-exactly and every app replays
//! deterministically from its restored iteration, so a supervised run
//! under injected corruption + crash schedules ends bit-identical to a
//! fault-free run. Checkpoint faults come from the cluster's
//! [`FaultPlan`](tfhpc_sim::fault::FaultPlan) at *write* time: a
//! `CkptTorn` window stores a deterministically truncated prefix of the
//! sealed blob (a crash mid-`write(2)`), and a `CkptStale` window drops
//! the write (acknowledged, never durable; the slot keeps its previous
//! generation). The validating read path repairs both.

use crate::{AppError, FaultSetup};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tfhpc_core::{
    CoreError, DatasetIterator, FifoQueue, Graph, NodeId, Result as CoreResult, SessionOptions,
    TensorProto, TileStore,
};
use tfhpc_dist::{
    launch_traced, launch_with_setup, JobSpec, LaunchConfig, Launched, Liveness, TaskCtx, TaskKey,
    TfCluster,
};
use tfhpc_obs::trace::{chrome_trace_json, global};
use tfhpc_obs::TraceEvent;
use tfhpc_proto::{frame, Decoder, Encoder, Message};
use tfhpc_sim::des::Sim;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::Platform;
use tfhpc_tensor::Tensor;

/// One application launch: everything [`run_app`] needs besides the
/// populate and body closures.
pub(crate) struct AppLaunch<'a> {
    /// The app's label; names its trace file, `{app}.trace.json`.
    pub app: &'static str,
    /// The cluster-wide store every task registers and is handed.
    pub store: &'static str,
    pub platform: &'a Platform,
    pub jobs: Vec<JobSpec>,
    /// Virtual time on the modeled cluster, or host threads.
    pub simulated: bool,
    pub protocol: Protocol,
    /// Fault schedule, restart budget and retry policy of the launch.
    pub faults: Option<&'a FaultSetup>,
    /// Checkpoint interval; `Some(0)` is a configuration error.
    pub ckpt_every: Option<usize>,
    /// A pre-existing store to run on (a persistent Lustre namespace).
    pub external: Option<Arc<TileStore>>,
    /// Record DES occupancy and return the merged Chrome trace.
    pub traced: bool,
}

/// What a finished [`run_app`] leaves behind.
pub(crate) struct AppRun {
    pub launched: Launched,
    pub store: Arc<TileStore>,
    pub stats: SupervisedStats,
    /// The Chrome trace JSON; empty unless traced or a tracer was on.
    pub trace: String,
}

/// Launch an application. `populate` fills the shared store once,
/// outside virtual time, before any task starts (the paper's offline
/// pre-processing); `body` runs every task attempt with the store
/// already registered in the task's resources.
pub(crate) fn run_app(
    launch: AppLaunch<'_>,
    populate: impl FnOnce(&TileStore),
    body: impl Fn(&TaskCtx, &Arc<TileStore>) -> CoreResult<()> + Send + Sync + 'static,
) -> Result<AppRun, AppError> {
    if launch.ckpt_every == Some(0) {
        return Err(AppError::Config("checkpoint interval must be > 0".into()));
    }
    run_started();
    let name = launch.store;
    let mut cfg = if launch.simulated {
        LaunchConfig::simulated(launch.platform.clone(), launch.jobs, launch.protocol)
    } else {
        LaunchConfig::real(launch.platform.clone(), launch.jobs, launch.protocol)
    };
    if let Some(faults) = launch.faults {
        cfg = faults.apply(cfg);
    }
    let mut shared = None;
    let setup = |cluster: &Arc<TfCluster>| {
        if let Some(store) = launch.external {
            cluster.register_shared_store(name, store);
        }
        let store = cluster.shared_store(name);
        populate(&store);
        shared = Some(store);
    };
    let body = move |ctx: TaskCtx| {
        let store = ctx.server.cluster().shared_store(name);
        body(&ctx, &store)
    };
    let launched = if launch.traced {
        launch_traced(&cfg, setup, body)
    } else {
        launch_with_setup(&cfg, setup, body)
    }?;
    let trace = run_finished(launch.app, launched.sim.as_ref(), launch.traced);
    Ok(AppRun {
        store: shared.expect("setup ran"),
        stats: stats_of(&launched),
        launched,
        trace,
    })
}

/// Wire the env-configured sinks (the global tracer is enabled when
/// `TFHPC_TRACE_DIR` is set). Pre-registers the fault counters so a
/// snapshot exposes them at zero even before the first retry or
/// restart.
fn run_started() {
    tfhpc_obs::sink::init_from_env();
    let reg = tfhpc_obs::global();
    reg.counter("tfhpc_retries_total");
    reg.counter("tfhpc_supervisor_restarts_total");
}

/// Close out a run's observability: build the merged Chrome trace (DES
/// segments + structured spans/flows/counters, sorted by start time),
/// write it to `TFHPC_TRACE_DIR` when configured, flush the metrics
/// snapshot to `TFHPC_METRICS` when configured, and return the trace
/// JSON (empty when neither tracing source was active).
fn run_finished(app: &str, sim: Option<&Arc<Sim>>, want_json: bool) -> String {
    let tr = global();
    let json = if want_json || tr.is_enabled() {
        let mut events: Vec<TraceEvent> = Vec::new();
        if let Some(s) = sim {
            for seg in s.trace() {
                events.push(TraceEvent::span(&seg.label, &seg.track, seg.start, seg.dur));
            }
        }
        let dropped = tr.dropped();
        events.extend(tr.drain());
        events.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        Some(chrome_trace_json(&events, dropped))
    } else {
        None
    };
    if let (Some(doc), Some(dir)) = (&json, tfhpc_obs::sink::trace_dir()) {
        let _ = tfhpc_obs::sink::write_trace_json_to(&dir.join(format!("{app}.trace.json")), doc);
    }
    let _ = tfhpc_obs::sink::flush_metrics();
    json.unwrap_or_default()
}

/// Store-key namespace for harness checkpoint blobs — disjoint from
/// every application's data keys (which use leading components ≥ -1).
const CKPT_NS: i64 = -9;

/// Default checkpoint generations retained per task.
pub const CKPT_KEEP: usize = 2;

/// A per-task checkpoint writer/reader over the shared store.
///
/// Slots rotate by checkpoint ordinal (`ordinal % keep`), so the
/// previous generation survives until the next-plus-one write — a torn
/// or stale latest always leaves an older valid generation behind
/// (unless the run never completed `keep` checkpoints, in which case
/// the reader cold-starts).
pub struct Checkpointer {
    store: Arc<TileStore>,
    task: usize,
    keep: usize,
}

impl Checkpointer {
    /// Checkpointer for `task`'s slots in `store`, retaining `keep`
    /// generations.
    pub fn new(store: Arc<TileStore>, task: usize, keep: usize) -> Checkpointer {
        assert!(keep >= 1, "must retain at least one checkpoint slot");
        Checkpointer { store, task, keep }
    }

    fn slot_key(&self, slot: usize) -> Vec<i64> {
        vec![CKPT_NS, self.task as i64, slot as i64]
    }

    /// Write checkpoint number `ordinal` (strictly increasing across
    /// the run, including restarts — it picks the slot), taken at
    /// application iteration `iter`, carrying `payload`. The write is
    /// charged to the PFS and subjected to the cluster's injected
    /// `CkptTorn` / `CkptStale` windows.
    pub fn save(&self, ctx: &TaskCtx, ordinal: u64, iter: u64, payload: &[u8]) -> CoreResult<()> {
        let mut e = Encoder::new();
        e.put_u64(1, iter);
        e.put_bytes(2, payload);
        let sealed = frame::seal(&e.finish().map_err(CoreError::from)?);
        let slot = (ordinal as usize) % self.keep;
        if let Some(sim) = &ctx.server.devices.sim {
            // The full blob is charged even when the write is injected
            // to fail: the task *believes* it wrote everything.
            sim.cluster.pfs.write(sim.node, sealed.len() as u64);
            if let Some(plan) = ctx.server.cluster().faults() {
                let now = ctx.now();
                if plan.ckpt_stale_at(sim.node, now) {
                    // Acknowledged but never durable: the slot keeps
                    // its previous generation.
                    return Ok(());
                }
                if plan.ckpt_torn_at(sim.node, now) {
                    // Torn write: a strict prefix of the sealed frame
                    // lands, its length drawn from the plan's entropy.
                    let cut =
                        1 + (plan.corruption_entropy(sim.node, now) as usize) % (sealed.len() - 1);
                    let torn = sealed[..cut].to_vec();
                    self.store
                        .put(self.slot_key(slot), Tensor::from_u8([cut], torn)?);
                    return Ok(());
                }
            }
        }
        let len = sealed.len();
        self.store
            .put(self.slot_key(slot), Tensor::from_u8([len], sealed)?);
        Ok(())
    }

    fn read_slot(&self, ctx: &TaskCtx, slot: usize) -> Option<(u64, Vec<u8>)> {
        let blob = self.store.get(&self.slot_key(slot)).ok()?;
        let bytes = blob.as_u8().ok()?;
        if let Some(sim) = &ctx.server.devices.sim {
            sim.cluster.pfs.read(sim.node, bytes.len() as u64);
        }
        decode_blob(bytes)
    }

    /// Every valid checkpoint in this task's ring, sorted by iteration
    /// (torn/stale/missing slots are skipped, not errors).
    pub fn valid(&self, ctx: &TaskCtx) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = (0..self.keep)
            .filter_map(|s| self.read_slot(ctx, s))
            .collect();
        out.sort_by_key(|(iter, _)| *iter);
        out
    }

    /// The newest valid checkpoint, if any.
    pub fn latest_valid(&self, ctx: &TaskCtx) -> Option<(u64, Vec<u8>)> {
        self.valid(ctx).pop()
    }

    /// The payload checkpointed at exactly iteration `iter`, if a valid
    /// blob for it is still in the ring.
    pub fn restore_at(&self, ctx: &TaskCtx, iter: u64) -> Option<Vec<u8>> {
        self.valid(ctx)
            .into_iter()
            .find(|(it, _)| *it == iter)
            .map(|(_, payload)| payload)
    }
}

fn decode_blob(bytes: &[u8]) -> Option<(u64, Vec<u8>)> {
    let payload = frame::open(bytes).ok()?;
    let mut d = Decoder::new(payload).ok()?;
    let mut iter = None;
    let mut data = None;
    while let Some((field, value)) = d.next_field().ok()? {
        match field {
            1 => iter = Some(value.as_u64().ok()?),
            2 => data = Some(value.as_bytes().ok()?.to_vec()),
            _ => {}
        }
    }
    Some((iter?, data?))
}

/// The newest checkpoint iteration for which *every* one of `tasks`
/// holds a valid blob — the only safe gang-wide resume point after a
/// crash (a partial checkpoint set would put tasks at different
/// iterations). `None` means cold start.
pub fn common_resume(
    ctx: &TaskCtx,
    store: &Arc<TileStore>,
    tasks: usize,
    keep: usize,
) -> Option<u64> {
    let mut common: Option<BTreeSet<u64>> = None;
    for t in 0..tasks {
        let iters: BTreeSet<u64> = Checkpointer::new(Arc::clone(store), t, keep)
            .valid(ctx)
            .into_iter()
            .map(|(iter, _)| iter)
            .collect();
        common = Some(match common {
            None => iters,
            Some(c) => c.intersection(&iters).copied().collect(),
        });
        if common.as_ref().is_some_and(BTreeSet::is_empty) {
            return None;
        }
    }
    common.and_then(|c| c.into_iter().next_back())
}

/// Encode keyed tensors as a checkpoint payload: one nested message per
/// entry in field 1, holding the key's `K` components in fields `1..=K`
/// and the tensor's `TensorProto` bytes in field `K + 1`.
pub(crate) fn encode_keyed<'a, const K: usize>(
    entries: impl IntoIterator<Item = ([usize; K], &'a Tensor)>,
) -> CoreResult<Vec<u8>> {
    let mut outer = Encoder::new();
    for (key, tensor) in entries {
        let mut inner = Encoder::new();
        for (f, &k) in (1..).zip(&key) {
            inner.put_u64(f, k as u64);
        }
        inner.put_bytes(K as u32 + 1, &TensorProto(tensor.clone()).to_bytes()?);
        outer.put_bytes(1, &inner.finish()?);
    }
    Ok(outer.finish()?)
}

/// The entries of an [`encode_keyed`] payload, in payload order; an
/// entry missing a key component or its tensor is dropped.
pub(crate) fn decode_keyed<const K: usize>(
    payload: &[u8],
) -> CoreResult<Vec<([usize; K], Tensor)>> {
    let mut entries = Vec::new();
    let mut outer = Decoder::new(payload)?;
    while let Some((field, value)) = outer.next_field()? {
        if field != 1 {
            continue;
        }
        let mut inner = Decoder::new(value.as_bytes()?)?;
        let (mut key, mut tensor) = ([None; K], None);
        while let Some((f, v)) = inner.next_field()? {
            match f as usize {
                f if (1..=K).contains(&f) => key[f - 1] = Some(v.as_u64()? as usize),
                f if f == K + 1 => tensor = Some(TensorProto::decode(v.as_bytes()?)?.0),
                _ => {}
            }
        }
        if let (true, Some(tensor)) = (key.iter().all(Option::is_some), tensor) {
            entries.push((key.map(Option::unwrap_or_default), tensor));
        }
    }
    Ok(entries)
}

/// Send `list` to worker `w`'s `resume` queue.
pub(crate) fn send_resume(ctx: &TaskCtx, w: usize, list: &[i64]) -> CoreResult<()> {
    let list = Tensor::from_i64([list.len()], list.to_vec())?;
    ctx.server
        .remote_enqueue(&TaskKey::new("worker", w), "resume", vec![list], None)
}

/// Create this task's `resume` queue, `capacity` lists deep.
pub(crate) fn resume_queue(ctx: &TaskCtx, capacity: usize) -> Arc<FifoQueue> {
    ctx.server.resources.create_queue("resume", capacity)
}

/// Wait for the next list on a [`resume_queue`].
pub(crate) fn recv_resume(queue: &FifoQueue) -> CoreResult<Vec<i64>> {
    Ok(queue.dequeue()?[0].as_i64()?.to_vec())
}

/// Run a worker's prefetched input pipeline to its end. A process named
/// `filler` loads each of `items` with `load` into a `depth`-deep
/// queue of the same name, ahead of compute (the Dataset prefetch of
/// the paper's Figs. 4 and 6). `graph` builds the per-step graph from
/// the `N` components of the queue's next tuple and returns the node
/// to run; it runs once per item, each run under a `span` span.
pub(crate) fn run_pipeline<T: Send + 'static, const N: usize>(
    ctx: &TaskCtx,
    filler: &str,
    depth: usize,
    items: Vec<T>,
    load: impl Fn(T) -> [Tensor; N] + Send + 'static,
    graph: impl FnOnce(&mut Graph, [NodeId; N]) -> NodeId,
    span: &str,
) -> CoreResult<()> {
    let pipe = FifoQueue::new(filler, depth);
    let filled = Arc::clone(&pipe);
    tfhpc_sim::clock::spawn(filler, move || {
        for item in items {
            if filled.enqueue(load(item).into()).is_err() {
                return; // consumer gone
            }
        }
        filled.close();
    });
    ctx.server
        .resources
        .register_iterator("pipe", DatasetIterator::from_queue(Arc::clone(&pipe)));
    let mut g = Graph::new();
    let parts = g.dataset_next("pipe", N);
    let step = graph(&mut g, parts.try_into().expect("N components"));
    let tr = tfhpc_obs::trace::global();
    let result = (|| {
        let sess = ctx
            .server
            .session_with_options(Arc::new(g), SessionOptions::from_env()?);
        loop {
            ctx.check_faults()?;
            let _s = tr.span(span);
            match sess.run_no_fetch(&[step], &[]) {
                Ok(()) => {}
                Err(CoreError::EndOfSequence) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    })();
    // A crash mid-run leaves this generation's filler parked on a full
    // pipe with its only consumer gone; cancel the queue so the filler
    // errors out instead of deadlocking the simulation.
    pipe.close_with_cancel(true);
    result
}

/// Integrity- and liveness-plane observations of a supervised run.
#[derive(Debug, Clone, Default)]
pub struct SupervisedStats {
    /// Restarts (gang + partial) the supervisor performed.
    pub restarts: usize,
    /// Frame corruptions detected by the final generation's servers.
    /// (Gang restarts bring up fresh servers, so counts from earlier
    /// generations live only in the process-wide metrics registry.)
    pub corruption_detected: u64,
    /// Retransmissions requested by the final generation's servers.
    pub retransmits: u64,
    /// Highest body attempt recorded per task. Partial restarts bump
    /// only the failed task's counter, so healthy tasks stay at 0 —
    /// the assertion hook for "no collateral restarts".
    pub attempts: HashMap<String, u64>,
    /// Partial-restart node replacements: (task, old node, spare node).
    pub replacements: Vec<(String, usize, usize)>,
    /// Liveness verdicts, when heartbeats were enabled: (task, detected
    /// at seconds, heartbeat silence at the verdict).
    pub deaths: Vec<(String, f64, f64)>,
    /// Restart revivals, when heartbeats were enabled: (task, revived
    /// at seconds). Only `Membership::restarted` bumps a member's
    /// incarnation, so an `Alive` event carrying a higher incarnation
    /// than any earlier event for the key is exactly one restart —
    /// whether it arrived via gang restart or spare-node replacement.
    pub recoveries: Vec<(String, f64)>,
}

/// Collect [`SupervisedStats`] from a finished launch.
pub fn stats_of(launched: &Launched) -> SupervisedStats {
    let mut stats = SupervisedStats {
        restarts: launched.restarts,
        ..SupervisedStats::default()
    };
    for task in &launched.resolved.tasks {
        if let Ok(server) = launched.cluster.server(&task.key) {
            stats.corruption_detected += server.resources.corruption_detected_total();
            stats.retransmits += server.resources.retransmits_total();
        }
    }
    for exit in &launched.task_exits {
        let a = stats.attempts.entry(exit.key.to_string()).or_insert(0);
        *a = (*a).max(exit.attempt);
    }
    stats.replacements = launched
        .replacements
        .iter()
        .map(|(key, old, new)| (key.to_string(), *old, *new))
        .collect();
    if let Some(membership) = &launched.membership {
        let mut incarnations: HashMap<String, u64> = HashMap::new();
        for ev in membership.events() {
            let key = ev.key.to_string();
            if ev.to == Liveness::Dead {
                stats.deaths.push((key.clone(), ev.at_s, ev.silent_for_s));
            }
            let seen = incarnations.entry(key.clone()).or_insert(0);
            if ev.to == Liveness::Alive && ev.incarnation > *seen {
                stats.recoveries.push((key, ev.at_s));
            }
            *seen = (*seen).max(ev.incarnation);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_dist::launch;
    use tfhpc_sim::fault::FaultPlan;
    use tfhpc_sim::platform;
    use tfhpc_tensor::{Complex64, DType};

    fn single_task_launch(
        faults: Option<FaultPlan>,
        body: impl Fn(&TaskCtx, &Arc<TileStore>) + Send + Sync + 'static,
    ) {
        let mut cfg = LaunchConfig::simulated(
            platform::tegner_k420(),
            vec![JobSpec::new("worker", 1, 1)],
            Protocol::Rdma,
        );
        if let Some(plan) = faults {
            cfg = cfg.with_faults(plan);
        }
        launch(&cfg, move |ctx| {
            let store = ctx.server.cluster().shared_store("ckpt-test");
            body(&ctx, &store);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn ring_keeps_newest_generations_and_restores_by_iter() {
        single_task_launch(None, |ctx, store| {
            let ckpt = Checkpointer::new(Arc::clone(store), 0, 2);
            ckpt.save(ctx, 1, 4, b"gen4").unwrap();
            ckpt.save(ctx, 2, 8, b"gen8").unwrap();
            ckpt.save(ctx, 3, 12, b"gen12").unwrap();
            let iters: Vec<u64> = ckpt.valid(ctx).into_iter().map(|(i, _)| i).collect();
            assert_eq!(iters, vec![8, 12]);
            assert_eq!(ckpt.latest_valid(ctx).unwrap(), (12, b"gen12".to_vec()));
            assert_eq!(ckpt.restore_at(ctx, 8).unwrap(), b"gen8".to_vec());
            assert!(ckpt.restore_at(ctx, 4).is_none(), "rotated out");
        });
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        // Node 0 (the lone worker) under a permanent torn-write window:
        // the second save lands truncated and validation skips it.
        let plan = FaultPlan::new().ckpt_torn(0, 0.5, f64::MAX);
        single_task_launch(Some(plan), |ctx, store| {
            let ckpt = Checkpointer::new(Arc::clone(store), 0, 2);
            ckpt.save(ctx, 1, 4, b"good").unwrap();
            tfhpc_sim::clock::sleep(1.0);
            ckpt.save(ctx, 2, 8, b"torn").unwrap();
            assert_eq!(ckpt.latest_valid(ctx).unwrap(), (4, b"good".to_vec()));
        });
    }

    #[test]
    fn stale_write_keeps_previous_slot_contents() {
        let plan = FaultPlan::new().ckpt_stale(0, 0.5, f64::MAX);
        single_task_launch(Some(plan), |ctx, store| {
            let ckpt = Checkpointer::new(Arc::clone(store), 0, 1);
            ckpt.save(ctx, 1, 4, b"durable").unwrap();
            tfhpc_sim::clock::sleep(1.0);
            ckpt.save(ctx, 2, 8, b"lost").unwrap();
            // The single slot still holds the pre-window generation.
            assert_eq!(ckpt.latest_valid(ctx).unwrap(), (4, b"durable".to_vec()));
        });
    }

    #[test]
    fn common_resume_requires_every_task() {
        single_task_launch(None, |ctx, store| {
            let a = Checkpointer::new(Arc::clone(store), 0, 2);
            let b = Checkpointer::new(Arc::clone(store), 1, 2);
            a.save(ctx, 1, 4, b"a4").unwrap();
            a.save(ctx, 2, 8, b"a8").unwrap();
            b.save(ctx, 1, 4, b"b4").unwrap();
            // Task 1 never completed the iter-8 checkpoint: the only
            // safe gang-wide resume point is 4.
            assert_eq!(common_resume(ctx, store, 2, 2), Some(4));
            b.save(ctx, 2, 8, b"b8").unwrap();
            assert_eq!(common_resume(ctx, store, 2, 2), Some(8));
            assert_eq!(common_resume(ctx, store, 3, 2), None, "task 2 has none");
        });
    }

    /// The bytes matmul's tile codec (key `[i, j]`) and FFT's spectra
    /// codec (key `[l]`) wrote for the entries below before both became
    /// [`encode_keyed`]; checkpoints already in a store decode unchanged.
    const TILES_HEX: &str = "0a10080010011a0a080112020404180120070a20080310021a1a08011202020218002a100000803f000000c00000003f00005040";
    const SPECTRA_HEX: &str = "0a0d080112090803120108180120030a2d08031229080312010218003a20000000000000f03f000000000000e0bf000000000000d03f0000000000000040";

    fn round_trip<const K: usize>(payload: &[u8]) -> Vec<u8> {
        let entries = decode_keyed::<K>(payload).unwrap();
        encode_keyed(entries.iter().map(|(key, tensor)| (*key, tensor))).unwrap()
    }

    #[test]
    fn keyed_codec_reproduces_the_tile_and_spectra_payloads() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let tile = Tensor::from_f32([2, 2], vec![1.0, -2.0, 0.5, 3.25]).unwrap();
        let synthetic_tile = Tensor::synthetic(DType::F32, [4, 4], 7);
        let tiles = encode_keyed([([0, 1], &synthetic_tile), ([3, 2], &tile)]).unwrap();
        assert_eq!(hex(&tiles), TILES_HEX);
        let spectrum = Tensor::from_c128(
            [2],
            vec![Complex64::new(1.0, -0.5), Complex64::new(0.25, 2.0)],
        )
        .unwrap();
        let synthetic_spectrum = Tensor::synthetic(DType::C128, [8], 3);
        let spectra = encode_keyed([([1], &synthetic_spectrum), ([3], &spectrum)]).unwrap();
        assert_eq!(hex(&spectra), SPECTRA_HEX);

        // Decoding and re-encoding reproduces the payloads.
        assert_eq!(round_trip::<2>(&tiles), tiles);
        assert_eq!(round_trip::<1>(&spectra), spectra);

        // The merger keeps only indices below its tile count; entry 1 is
        // the payload's first 15 bytes.
        let restored = crate::fft::decode_spectra(&spectra, 2).unwrap();
        assert!(restored[0].is_none());
        let kept = restored[1].as_ref().expect("tile 1 restored");
        assert_eq!(
            hex(&encode_keyed([([1], kept)]).unwrap()),
            SPECTRA_HEX[..30]
        );
    }
}
