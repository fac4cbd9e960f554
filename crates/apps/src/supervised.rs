//! Generic supervised-run harness: checksummed store checkpoints with
//! last-good-generation recovery, shared by all four applications.
//!
//! PR 2 gave the CG solver checkpoint/restart; this module generalizes
//! the mechanism so STREAM, matmul and FFT recover the same way. Each
//! task writes its recovery state through a [`Checkpointer`]: a small
//! ring of per-task slots in the shared (Lustre-modeled) [`TileStore`],
//! each slot holding a CRC32C-sealed frame that embeds the checkpoint's
//! iteration number. Reads validate the seal and the embedded metadata,
//! so a torn or stale file is *skipped* — the reader silently falls
//! back to the newest older generation (or a cold start) instead of
//! restoring garbage. Because checkpoints preserve state bit-exactly
//! and every app replays deterministically from its restored iteration,
//! a supervised run under injected corruption + crash schedules ends
//! with results identical, bit for bit, to a fault-free run.
//!
//! Checkpoint-fault injection happens at *write* time, from the
//! cluster's [`FaultPlan`](tfhpc_sim::fault::FaultPlan): an active
//! `CkptTorn` window stores a deterministically truncated prefix of
//! the sealed blob (the classic torn write — crash mid-`write(2)`),
//! and an active `CkptStale` window drops the write entirely (the
//! write was acknowledged by the page cache but never reached the PFS
//! — the slot keeps its previous generation). Both leave the ring in
//! exactly the state a real failure would, and both are repaired by
//! the validation-plus-fallback read path.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tfhpc_core::{CoreError, Result as CoreResult, TileStore};
use tfhpc_dist::{Launched, Liveness, TaskCtx};
use tfhpc_proto::{frame, Decoder, Encoder};
use tfhpc_tensor::Tensor;

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
    use tfhpc_dist::{launch, JobSpec, LaunchConfig};
    use tfhpc_sim::fault::FaultPlan;
    use tfhpc_sim::net::Protocol;
    use tfhpc_sim::platform;

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
}
