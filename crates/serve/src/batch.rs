//! The request batcher.
//!
//! Compatible requests — same [`RequestSpec`], hence the same
//! canonical graph, plan-cache key and feed shapes — coalesce into one
//! executor dispatch. A batch stays open for at most the configured
//! batching window after its first request arrives, or until it
//! reaches the size cap, whichever comes first; then a worker takes
//! the whole batch, paying the session dispatch once for it.
//! All ordering decisions are over `(deadline, spec)` with `spec`'s
//! total order breaking ties, so batch dispatch order is a pure
//! function of the submission schedule.

use std::collections::BTreeMap;
use tfhpc_apps::RequestSpec;

/// One admitted step request waiting in a batch.
#[derive(Debug, Clone)]
pub(crate) struct QueuedJob {
    pub id: u64,
    pub tenant: String,
    pub seed: u64,
    pub submitted_s: f64,
    /// The tenant's shed priority at submit time (lower sheds first).
    pub priority: i32,
}

/// An open batch: its members plus the virtual deadline at which it
/// dispatches even if under-full.
#[derive(Debug)]
pub(crate) struct PendingBatch {
    pub jobs: Vec<QueuedJob>,
    pub deadline: f64,
}

/// Per-spec pending batches.
#[derive(Debug)]
pub(crate) struct BatchQueue {
    window_s: f64,
    max_batch: usize,
    pending: BTreeMap<RequestSpec, PendingBatch>,
}

impl BatchQueue {
    pub fn new(window_s: f64, max_batch: usize) -> BatchQueue {
        BatchQueue {
            window_s,
            max_batch: max_batch.max(1),
            pending: BTreeMap::new(),
        }
    }

    /// Add a job to its spec's open batch (opening one with deadline
    /// `now + window` if none). Returns the batch's size after the
    /// push.
    pub fn push(&mut self, spec: RequestSpec, job: QueuedJob, now: f64) -> usize {
        let batch = self.pending.entry(spec).or_insert_with(|| PendingBatch {
            jobs: Vec::new(),
            deadline: now + self.window_s,
        });
        batch.jobs.push(job);
        batch.jobs.len()
    }

    /// The spec of the batch [`BatchQueue::pop_ready`] would take: the
    /// earliest-deadline batch that is full or due at `now`.
    fn next_ready(&self, now: f64) -> Option<RequestSpec> {
        self.pending
            .iter()
            .filter(|(_, b)| b.jobs.len() >= self.max_batch || b.deadline <= now)
            .min_by(|(sa, a), (sb, b)| {
                a.deadline
                    .partial_cmp(&b.deadline)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(sa.cmp(sb))
            })
            .map(|(s, _)| *s)
    }

    /// Whether some batch is dispatchable at `now`.
    pub fn has_ready(&self, now: f64) -> bool {
        self.next_ready(now).is_some()
    }

    /// Take the next dispatchable batch: full, or past its deadline at
    /// `now`. Among ready batches the earliest deadline wins, with the
    /// spec order breaking ties deterministically. A dispatch never
    /// exceeds `max_batch` jobs: overflow (jobs that piled up before a
    /// worker woke) stays queued under the same deadline.
    pub fn pop_ready(&mut self, now: f64) -> Option<(RequestSpec, PendingBatch)> {
        let spec = self.next_ready(now)?;
        let open = self.pending.get_mut(&spec)?;
        if open.jobs.len() > self.max_batch {
            let rest = open.jobs.split_off(self.max_batch);
            let taken = PendingBatch {
                jobs: std::mem::replace(&mut open.jobs, rest),
                deadline: open.deadline,
            };
            Some((spec, taken))
        } else {
            self.pending.remove(&spec).map(|b| (spec, b))
        }
    }

    /// Earliest deadline among pending batches — how long a worker may
    /// sleep before an under-full batch must dispatch anyway.
    pub fn next_deadline(&self) -> Option<f64> {
        self.pending
            .values()
            .map(|b| b.deadline)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total queued step jobs across all pending batches.
    pub fn total_jobs(&self) -> usize {
        self.pending.values().map(|b| b.jobs.len()).sum()
    }

    /// Remove and return the job the shed policy sacrifices first:
    /// lowest tenant priority, then the batch deadline furthest in the
    /// future (earliest-deadline work survives longest), then the
    /// highest job id (newest arrival) — a total order, so the victim
    /// is a pure function of queue state. Empty batches left behind
    /// are dropped so their deadline no longer wakes workers.
    pub fn shed_victim(&mut self) -> Option<QueuedJob> {
        let (spec, idx) = self
            .pending
            .iter()
            .flat_map(|(s, b)| {
                b.jobs
                    .iter()
                    .enumerate()
                    .map(move |(i, j)| (*s, i, j.priority, b.deadline, j.id))
            })
            .min_by(|a, b| {
                // priority ascending, deadline descending, id descending.
                a.2.cmp(&b.2)
                    .then(b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal))
                    .then(b.4.cmp(&a.4))
            })
            .map(|(s, i, ..)| (s, i))?;
        let batch = self.pending.get_mut(&spec)?;
        let victim = batch.jobs.remove(idx);
        if batch.jobs.is_empty() {
            self.pending.remove(&spec);
        }
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_apps::RequestKind;

    fn job(id: u64) -> QueuedJob {
        QueuedJob {
            id,
            tenant: "t".into(),
            seed: id,
            submitted_s: 0.0,
            priority: 0,
        }
    }

    fn prio_job(id: u64, priority: i32) -> QueuedJob {
        QueuedJob {
            priority,
            ..job(id)
        }
    }

    #[test]
    fn window_and_size_cap_gate_dispatch() {
        let mut q = BatchQueue::new(1.0, 2);
        let spec = RequestSpec::new(RequestKind::Matmul, 8);
        q.push(spec, job(1), 0.0);
        // Under-full and before the deadline: nothing ready.
        assert!(!q.has_ready(0.5));
        assert!(q.pop_ready(0.5).is_none());
        assert_eq!(q.next_deadline(), Some(1.0));
        // Reaching the cap makes it ready immediately.
        q.push(spec, job(2), 0.5);
        assert!(q.has_ready(0.5));
        let (s, b) = q.pop_ready(0.5).unwrap();
        assert_eq!(s, spec);
        assert_eq!(b.jobs.len(), 2);
        // Deadline alone also dispatches.
        q.push(spec, job(3), 2.0);
        assert!(q.pop_ready(2.9).is_none());
        assert!(q.has_ready(3.0));
        assert_eq!(q.pop_ready(3.0).unwrap().1.jobs.len(), 1);
        assert!(q.is_empty());
        // A zero window's batch is due the instant it opens.
        let mut q = BatchQueue::new(0.0, 8);
        q.push(spec, job(4), 0.25);
        assert!(q.has_ready(0.25));
    }

    #[test]
    fn earliest_deadline_dispatches_first() {
        let mut q = BatchQueue::new(1.0, 8);
        let m = RequestSpec::new(RequestKind::Matmul, 8);
        let f = RequestSpec::new(RequestKind::Fft, 16);
        q.push(f, job(1), 0.0);
        q.push(m, job(2), 0.5);
        assert_eq!(q.pop_ready(2.0).unwrap().0, f);
        assert_eq!(q.pop_ready(2.0).unwrap().0, m);
    }

    #[test]
    fn shed_victim_is_lowest_priority_then_latest_deadline() {
        let mut q = BatchQueue::new(1.0, 8);
        let m = RequestSpec::new(RequestKind::Matmul, 8);
        let f = RequestSpec::new(RequestKind::Fft, 16);
        q.push(m, prio_job(1, 0), 0.0); // interactive, deadline 1.0
        q.push(f, prio_job(2, -1), 0.5); // besteffort, deadline 1.5
        q.push(f, prio_job(3, -1), 0.6); // besteffort, same batch
        assert_eq!(q.total_jobs(), 3);
        // Besteffort sheds before interactive; within the batch the
        // newest arrival (highest id) goes first.
        assert_eq!(q.shed_victim().unwrap().id, 3);
        assert_eq!(q.shed_victim().unwrap().id, 2);
        // Only the interactive job remains; shed takes it last.
        let v = q.shed_victim().unwrap();
        assert_eq!((v.id, v.priority), (1, 0));
        assert!(q.is_empty());
        assert!(q.shed_victim().is_none());
        assert_eq!(q.next_deadline(), None);
    }
}
