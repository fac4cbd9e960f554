//! Liveness and membership plane: a deadline-based failure detector
//! over per-task heartbeats.
//!
//! Exit-code supervision (PR 2) only reacts when a task body *returns*;
//! a hung task stalls the gang forever. This module adds the missing
//! signal: every task incarnation heartbeats a shared [`Membership`]
//! table, and a monitor sweeps deadlines to drive the per-task liveness
//! state machine
//!
//! ```text
//!          beat                    beat (refutation)
//!        ┌──────┐                ┌───────────────────┐
//!        ▼      │                ▼                   │
//!      Alive ───┴─ overdue ─▶ Suspect ── timeout ─▶ Dead ── restarted ─▶ Alive'
//!        │                                                (incarnation+1)
//!        └── clean exit ─▶ Left
//! ```
//!
//! Transitions are *epoch-fenced*: a heartbeat stamped with a stale
//! cluster epoch (a zombie from a superseded generation) is ignored, so
//! a gang restart cannot be "refuted" back to life by its own corpse.
//! All timestamps are caller-provided virtual (or wall) seconds — the
//! table never reads a clock itself, which is what keeps seeded DES
//! runs byte-reproducible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::cluster_spec::TaskKey;

/// Per-task liveness state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeats arriving within deadline.
    Alive,
    /// Overdue past the suspicion threshold but not yet the timeout; a
    /// fresh heartbeat refutes the suspicion.
    Suspect,
    /// Missed heartbeats past the full timeout — a verdict. Only
    /// [`Membership::restarted`] (a new incarnation) leaves this state.
    Dead,
    /// Exited cleanly; no longer monitored.
    Left,
}

/// One member's detector record.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// Current liveness state.
    pub state: Liveness,
    /// Timestamp of the last accepted heartbeat, seconds.
    pub last_beat_s: f64,
    /// Incarnation counter — bumped by every [`Membership::restarted`].
    pub incarnation: u64,
    /// When the member entered `Suspect`, if currently suspected.
    pub suspected_at_s: Option<f64>,
    /// When the member was declared `Dead`, if it was.
    pub dead_at_s: Option<f64>,
}

/// A recorded liveness transition (the detector's audit log).
#[derive(Debug, Clone)]
pub struct MembershipEvent {
    /// Member that transitioned.
    pub key: TaskKey,
    /// State before.
    pub from: Liveness,
    /// State after.
    pub to: Liveness,
    /// Transition instant, seconds.
    pub at_s: f64,
    /// Cluster epoch at the transition.
    pub epoch: u64,
    /// Member incarnation at the transition.
    pub incarnation: u64,
    /// Seconds of heartbeat silence at the transition (0 for beats).
    pub silent_for_s: f64,
}

struct Inner {
    members: BTreeMap<TaskKey, MemberRecord>,
    events: Vec<MembershipEvent>,
}

/// The membership table + deadline failure detector.
pub struct Membership {
    period_s: f64,
    timeout_s: f64,
    epoch: AtomicU64,
    inner: Mutex<Inner>,
}

impl Membership {
    /// Build a detector: members beat every `period_s`; silence of
    /// `timeout_s` is a death verdict. A `timeout_s` of 0 disables
    /// detection entirely ([`Membership::enabled`] is false).
    pub fn new(period_s: f64, timeout_s: f64) -> Membership {
        Membership {
            period_s,
            timeout_s,
            epoch: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                members: BTreeMap::new(),
                events: Vec::new(),
            }),
        }
    }

    /// Is detection active (timeout > 0)?
    pub fn enabled(&self) -> bool {
        self.timeout_s > 0.0
    }

    /// Configured heartbeat period, seconds.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Configured death timeout, seconds.
    pub fn timeout_s(&self) -> f64 {
        self.timeout_s
    }

    /// Silence threshold after which a member turns `Suspect` — half
    /// the timeout, but never tighter than one period.
    pub fn suspect_after_s(&self) -> f64 {
        (self.timeout_s * 0.5).max(self.period_s)
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advance the fencing epoch (gang restart): beats stamped with an
    /// older epoch are discarded from now on.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Register a member as `Alive` with its first beat at `now_s`.
    /// Idempotent: a key already in the table keeps its state — a
    /// re-join cannot refute a `Dead` verdict (only
    /// [`Membership::restarted`] revives a key).
    pub fn join(&self, key: &TaskKey, now_s: f64) {
        let mut inner = self.inner.lock();
        inner
            .members
            .entry(key.clone())
            .or_insert_with(|| MemberRecord {
                state: Liveness::Alive,
                last_beat_s: now_s,
                incarnation: 0,
                suspected_at_s: None,
                dead_at_s: None,
            });
    }

    /// Record a heartbeat stamped with `epoch` at `now_s`. Returns
    /// false when the beat was discarded (stale epoch, unknown member,
    /// or a member already declared `Dead` — a verdict is not refuted
    /// by a late zombie beat; only `restarted` revives the key).
    pub fn heartbeat(&self, key: &TaskKey, epoch: u64, now_s: f64) -> bool {
        if epoch < self.epoch() {
            return false;
        }
        let mut inner = self.inner.lock();
        let Some(rec) = inner.members.get_mut(key) else {
            return false;
        };
        match rec.state {
            Liveness::Dead | Liveness::Left => false,
            Liveness::Suspect => {
                let (incarnation, silent) = (rec.incarnation, now_s - rec.last_beat_s);
                rec.state = Liveness::Alive;
                rec.last_beat_s = rec.last_beat_s.max(now_s);
                rec.suspected_at_s = None;
                let key = key.clone();
                inner.events.push(MembershipEvent {
                    key,
                    from: Liveness::Suspect,
                    to: Liveness::Alive,
                    at_s: now_s,
                    epoch,
                    incarnation,
                    silent_for_s: silent.max(0.0),
                });
                true
            }
            Liveness::Alive => {
                rec.last_beat_s = rec.last_beat_s.max(now_s);
                true
            }
        }
    }

    /// Convenience beat stamped with the current epoch.
    pub fn beat(&self, key: &TaskKey, now_s: f64) -> bool {
        self.heartbeat(key, self.epoch(), now_s)
    }

    /// Mark a clean exit: the member leaves the monitored set.
    pub fn left(&self, key: &TaskKey, now_s: f64) {
        let mut inner = self.inner.lock();
        if let Some(rec) = inner.members.get_mut(key) {
            if rec.state == Liveness::Left {
                return;
            }
            let (from, incarnation) = (rec.state, rec.incarnation);
            rec.state = Liveness::Left;
            let key = key.clone();
            let epoch = self.epoch();
            inner.events.push(MembershipEvent {
                key,
                from,
                to: Liveness::Left,
                at_s: now_s,
                epoch,
                incarnation,
                silent_for_s: 0.0,
            });
        }
    }

    /// A replacement incarnation came up: revive the key as `Alive`
    /// under `epoch` with a fresh beat and a bumped incarnation.
    /// Returns how long the key had been `Dead`, if it was (the repair
    /// half of MTTR).
    pub fn restarted(&self, key: &TaskKey, epoch: u64, now_s: f64) -> Option<f64> {
        self.set_epoch(epoch);
        let mut inner = self.inner.lock();
        let rec = inner
            .members
            .entry(key.clone())
            .or_insert_with(|| MemberRecord {
                state: Liveness::Dead,
                last_beat_s: now_s,
                incarnation: 0,
                suspected_at_s: None,
                dead_at_s: None,
            });
        let dead_for = rec.dead_at_s.map(|t| (now_s - t).max(0.0));
        let (from, incarnation) = (rec.state, rec.incarnation + 1);
        rec.state = Liveness::Alive;
        rec.last_beat_s = now_s;
        rec.incarnation = incarnation;
        rec.suspected_at_s = None;
        rec.dead_at_s = None;
        let key = key.clone();
        inner.events.push(MembershipEvent {
            key,
            from,
            to: Liveness::Alive,
            at_s: now_s,
            epoch,
            incarnation,
            silent_for_s: 0.0,
        });
        dead_for
    }

    /// Deadline-check one member at `now_s`; returns the transition it
    /// took, if any. An `Alive` member that blew straight past the full
    /// timeout jumps directly to `Dead`.
    pub fn evaluate(&self, key: &TaskKey, now_s: f64) -> Option<MembershipEvent> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        let epoch = self.epoch();
        let suspect_after = self.suspect_after_s();
        let rec = inner.members.get_mut(key)?;
        if !matches!(rec.state, Liveness::Alive | Liveness::Suspect) {
            return None;
        }
        let silent = now_s - rec.last_beat_s;
        let (from, to) = if silent >= self.timeout_s {
            (rec.state, Liveness::Dead)
        } else if rec.state == Liveness::Alive && silent >= suspect_after {
            (Liveness::Alive, Liveness::Suspect)
        } else {
            return None;
        };
        rec.state = to;
        match to {
            Liveness::Suspect => rec.suspected_at_s = Some(now_s),
            Liveness::Dead => rec.dead_at_s = Some(now_s),
            _ => {}
        }
        let incarnation = rec.incarnation;
        let ev = MembershipEvent {
            key: key.clone(),
            from,
            to,
            at_s: now_s,
            epoch,
            incarnation,
            silent_for_s: silent.max(0.0),
        };
        inner.events.push(ev.clone());
        Some(ev)
    }

    /// Deadline-check every monitored member; returns the transitions
    /// taken this sweep (deterministic order: members sorted by key).
    pub fn sweep(&self, now_s: f64) -> Vec<MembershipEvent> {
        let keys: Vec<TaskKey> = {
            let inner = self.inner.lock();
            inner
                .members
                .iter()
                .filter(|(_, r)| matches!(r.state, Liveness::Alive | Liveness::Suspect))
                .map(|(k, _)| k.clone())
                .collect()
        };
        keys.iter()
            .filter_map(|k| self.evaluate(k, now_s))
            .collect()
    }

    /// Current state of a member.
    pub fn state(&self, key: &TaskKey) -> Option<Liveness> {
        self.inner.lock().members.get(key).map(|r| r.state)
    }

    /// Full detector record of a member.
    pub fn record(&self, key: &TaskKey) -> Option<MemberRecord> {
        self.inner.lock().members.get(key).cloned()
    }

    /// Has the detector declared this member dead?
    pub fn is_dead(&self, key: &TaskKey) -> bool {
        self.state(key) == Some(Liveness::Dead)
    }

    /// Snapshot of every member record, sorted by key.
    pub fn members(&self) -> Vec<(TaskKey, MemberRecord)> {
        self.inner
            .lock()
            .members
            .iter()
            .map(|(k, r)| (k.clone(), r.clone()))
            .collect()
    }

    /// The transition audit log, in order.
    pub fn events(&self) -> Vec<MembershipEvent> {
        self.inner.lock().events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: usize) -> TaskKey {
        TaskKey::new("worker", i)
    }

    #[test]
    fn beats_keep_members_alive() {
        let m = Membership::new(0.1, 0.5);
        m.join(&key(0), 0.0);
        for i in 1..10 {
            assert!(m.beat(&key(0), i as f64 * 0.1));
            assert!(m.sweep(i as f64 * 0.1).is_empty());
        }
        assert_eq!(m.state(&key(0)), Some(Liveness::Alive));
    }

    #[test]
    fn silence_walks_suspect_then_dead() {
        let m = Membership::new(0.1, 0.5);
        m.join(&key(0), 0.0);
        // Half the timeout: suspect.
        let evs = m.sweep(0.3);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].to, Liveness::Suspect);
        assert_eq!(m.state(&key(0)), Some(Liveness::Suspect));
        // A beat refutes the suspicion.
        assert!(m.beat(&key(0), 0.35));
        assert_eq!(m.state(&key(0)), Some(Liveness::Alive));
        // Full timeout of silence: dead, with the silence recorded.
        let evs = m.sweep(0.9);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].to, Liveness::Dead);
        assert!((evs[0].silent_for_s - 0.55).abs() < 1e-12);
        assert!(m.is_dead(&key(0)));
        // A zombie beat does not revive a verdict.
        assert!(!m.beat(&key(0), 0.95));
        assert!(m.is_dead(&key(0)));
    }

    #[test]
    fn alive_jumps_straight_to_dead_past_timeout() {
        let m = Membership::new(0.1, 0.5);
        m.join(&key(0), 0.0);
        let evs = m.sweep(1.0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].from, Liveness::Alive);
        assert_eq!(evs[0].to, Liveness::Dead);
    }

    #[test]
    fn stale_epoch_beats_are_fenced() {
        let m = Membership::new(0.1, 0.5);
        m.join(&key(0), 0.0);
        m.set_epoch(3);
        assert!(!m.heartbeat(&key(0), 2, 0.1));
        assert!(m.heartbeat(&key(0), 3, 0.1));
    }

    #[test]
    fn restart_revives_with_bumped_incarnation_and_reports_dead_time() {
        let m = Membership::new(0.1, 0.5);
        m.join(&key(0), 0.0);
        m.sweep(0.6);
        assert!(m.is_dead(&key(0)));
        let dead_for = m.restarted(&key(0), 1, 1.0);
        assert_eq!(dead_for, Some(1.0 - 0.6));
        let rec = m.record(&key(0)).unwrap();
        assert_eq!(rec.state, Liveness::Alive);
        assert_eq!(rec.incarnation, 1);
        assert_eq!(rec.dead_at_s, None);
    }

    #[test]
    fn left_members_are_not_monitored() {
        let m = Membership::new(0.1, 0.5);
        m.join(&key(0), 0.0);
        m.left(&key(0), 0.2);
        assert!(m.sweep(10.0).is_empty());
        assert_eq!(m.state(&key(0)), Some(Liveness::Left));
    }

    #[test]
    fn zero_timeout_disables_detection() {
        let m = Membership::new(0.1, 0.0);
        assert!(!m.enabled());
        m.join(&key(0), 0.0);
        assert!(m.sweep(100.0).is_empty());
        assert_eq!(m.state(&key(0)), Some(Liveness::Alive));
    }
}
