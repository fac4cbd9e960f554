//! What a failed remote call does next: one [`CallPolicy`] and one
//! loop, `Server::call`, that every wire-crossing primitive runs in
//! (the five `remote_*` primitives, the verify of a dequeued tuple,
//! rendezvous sends and receives, collective sends). Each attempt
//! 1. fails with `DeadlineExceeded` once the ambient request deadline
//!    (`tfhpc_core::deadline`) is spent;
//! 2. toward a named destination, asks its breaker to admit the call;
//! 3. on a re-attempt, spends one of the destination's retry tokens;
//! 4. runs the body and reports the outcome to the breaker;
//! 5. on a transient error (`Unavailable`, transient `DataLoss`) with
//!    attempts left, sleeps an exponential backoff on [`clock::sleep`]
//!    (virtual time in a simulation) — or fails now with
//!    `DeadlineExceeded` when the backoff would outlast the deadline.
//!    Its jitter hashes the operation name and attempt (FNV-1a), never
//!    the wall clock, so a retried DES run replays byte-for-byte.
//!
//! **Breaker** (so retries toward a dead peer do not become "RPC
//! Considered Harmful"'s retry storm), per destination task: *Closed*
//! passes calls until `trip_after` consecutive transient failures open
//! it; *Open* fails calls at admission with `ResourceExhausted` — not
//! transient, so the loop returns at once — until a cooldown jittered
//! by destination and trip count has passed; *HalfOpen* lets one probe
//! through, whose success closes the breaker and whose transient
//! failure re-opens it. **Retry budget:** every re-attempt toward a
//! destination spends a token, a success refills them, and an empty
//! bucket fails with `ResourceExhausted`, capping retry volume when
//! failures are too intermittent to trip the breaker.

use crate::cluster_spec::TaskKey;
use crate::server::Server;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use tfhpc_core::{deadline, CoreError, Result};
use tfhpc_sim::clock;
use tfhpc_sim::fnv::Fnv1a44;

/// Ceiling of the exponential backoff, as a multiple of the first.
const MAX_BACKOFF: f64 = 100.0;
/// Largest fraction by which jitter stretches a backoff or a cooldown.
const JITTER: f64 = 0.1;

/// What a failed remote call does next. The default makes one attempt
/// with no breaker and no budget.
#[derive(Debug, Clone, PartialEq)]
pub struct CallPolicy {
    /// Total attempts including the first (1 = no retry).
    pub attempts: usize,
    /// Backoff before the first retry, seconds; it doubles per retry up
    /// to 100× and is stretched by up to 10 % jitter.
    pub backoff_s: f64,
    /// Consecutive transient failures toward one destination that open
    /// its breaker; `None` runs without a breaker.
    pub trip_after: Option<usize>,
    /// Seconds an open breaker fails fast before its probe (plus up to
    /// 10 % jitter).
    pub cooldown_s: f64,
    /// Retry tokens per destination between successes; `None` leaves
    /// retry volume unbounded.
    pub retry_budget: Option<u64>,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy::new(1, 0.0)
    }
}

impl CallPolicy {
    /// Up to `attempts` attempts in total, the first retry after
    /// `backoff_s`.
    pub fn new(attempts: usize, backoff_s: f64) -> CallPolicy {
        CallPolicy {
            attempts: attempts.max(1),
            backoff_s,
            trip_after: None,
            cooldown_s: 0.0,
            retry_budget: None,
        }
    }

    /// Add a per-destination breaker opening after `trip_after`
    /// consecutive transient failures and probing after `cooldown_s`.
    pub fn with_breaker(self, trip_after: usize, cooldown_s: f64) -> CallPolicy {
        CallPolicy {
            trip_after: Some(trip_after.max(1)),
            cooldown_s: cooldown_s.max(0.0),
            ..self
        }
    }

    /// Backoff before retry number `attempt` (0-based) of `what`.
    fn backoff(&self, attempt: usize, what: &str) -> f64 {
        let exp = self.backoff_s * 2f64.powi(attempt.min(62) as i32);
        exp.min(self.backoff_s * MAX_BACKOFF) * (1.0 + JITTER * unit_hash(what, attempt))
    }
}

/// FNV-1a over the salt and attempt, mapped to `[0, 1)`: the seedless
/// stand-in for random jitter.
fn unit_hash(salt: &str, attempt: usize) -> f64 {
    let mut h = Fnv1a44::default();
    h.eat(salt.as_bytes());
    h.eat(&attempt.to_le_bytes());
    (h.0 >> 11) as f64 / (1u64 << 53) as f64
}

/// Breaker state of one destination task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls pass.
    Closed,
    /// Tripped: calls fail fast until the probe time.
    Open,
    /// Cooled down: one probe decides the next state.
    HalfOpen,
}

struct Dest {
    state: BreakerState,
    /// Consecutive transient failures since the last success.
    failures: usize,
    opened_at_s: f64,
    /// Closed→Open transitions (a jitter salt input).
    trips: u64,
    tokens: Option<u64>,
    /// A probe has been admitted and has not reported yet.
    probing: bool,
}

/// A cluster's [`CallPolicy`] with the per-destination breaker and
/// budget state it drives — the one slot [`crate::TfCluster`] keeps.
#[derive(Default)]
pub struct Calls {
    policy: CallPolicy,
    dests: Mutex<HashMap<TaskKey, Dest>>,
}

impl Calls {
    pub(crate) fn new(policy: CallPolicy) -> Calls {
        Calls {
            policy,
            dests: Mutex::default(),
        }
    }

    /// Do calls touch per-destination state?
    fn guarded(&self) -> bool {
        self.policy.trip_after.is_some() || self.policy.retry_budget.is_some()
    }

    /// The breaker state toward `dest` (Closed if never contacted).
    pub fn state(&self, dest: &TaskKey) -> BreakerState {
        self.with_dest(dest, |st| st.state)
    }

    /// Closed→Open trips across all destinations.
    pub fn total_trips(&self) -> u64 {
        self.dests.lock().values().map(|st| st.trips).sum()
    }

    fn with_dest<T>(&self, dest: &TaskKey, f: impl FnOnce(&mut Dest) -> T) -> T {
        let mut dests = self.dests.lock();
        let st = dests.entry(dest.clone()).or_insert_with(|| Dest {
            state: BreakerState::Closed,
            failures: 0,
            opened_at_s: 0.0,
            trips: 0,
            tokens: self.policy.retry_budget,
            probing: false,
        });
        f(st)
    }

    /// When the breaker toward `dest`, opened at `opened_at_s` on trip `trips`, probes.
    fn probe_at(&self, dest: &TaskKey, opened_at_s: f64, trips: u64) -> f64 {
        let salt = format!("breaker:{dest}");
        opened_at_s + self.policy.cooldown_s * (1.0 + JITTER * unit_hash(&salt, trips as usize))
    }

    /// Steps 2 and 3 toward `dest` at `now_s`, under one lock: the breaker
    /// admits (Closed, or one HalfOpen probe after the cooldown) or fails
    /// fast, then a re-attempt spends a token. A refusal changes nothing.
    fn admit(&self, dest: &TaskKey, what: &str, reattempt: bool, now_s: f64) -> Result<()> {
        self.with_dest(dest, |st| {
            if st.state != BreakerState::Closed {
                let probe_at = self.probe_at(dest, st.opened_at_s, st.trips);
                if st.probing || (st.state == BreakerState::Open && now_s < probe_at) {
                    tfhpc_obs::global()
                        .counter("tfhpc_breaker_fastfail_total")
                        .inc();
                    return Err(CoreError::ResourceExhausted(format!(
                        "circuit breaker open for {dest}: failing fast until probe at \
                         t={probe_at:.6} (t={now_s:.6})"
                    )));
                }
            }
            if reattempt {
                match &mut st.tokens {
                    Some(0) => {
                        tfhpc_obs::global()
                            .counter("tfhpc_retry_budget_exhausted_total")
                            .inc();
                        return Err(CoreError::ResourceExhausted(format!(
                            "{what}: retry budget toward {dest} exhausted \
                             ({} tokens spent without a success)",
                            self.policy.retry_budget.unwrap_or(0)
                        )));
                    }
                    Some(tokens) => *tokens -= 1,
                    None => {}
                }
            }
            if st.state != BreakerState::Closed {
                st.state = BreakerState::HalfOpen;
                st.probing = true;
            }
            Ok(())
        })
    }

    /// Step 4: report an attempt's outcome toward `dest` at `now_s`. A
    /// success closes the breaker and refills the budget; a transient
    /// failure extends the streak and may trip it. Any other error says
    /// this caller failed, not the peer: it only frees the probe slot.
    fn report(&self, dest: &TaskKey, err: Option<&CoreError>, now_s: f64) {
        let tripped = self.with_dest(dest, |st| {
            st.probing = false;
            match err {
                None => {
                    st.state = BreakerState::Closed;
                    st.failures = 0;
                    st.tokens = self.policy.retry_budget;
                    false
                }
                Some(e) if e.is_transient() => {
                    st.failures += 1;
                    // A failed probe re-opens at once.
                    let trip = st.state == BreakerState::HalfOpen
                        || (st.state == BreakerState::Closed
                            && self.policy.trip_after.is_some_and(|t| st.failures >= t));
                    if trip {
                        st.state = BreakerState::Open;
                        st.opened_at_s = now_s;
                        st.trips += 1;
                    }
                    trip
                }
                Some(_) => false,
            }
        });
        if tripped {
            tfhpc_obs::global()
                .counter("tfhpc_breaker_open_total")
                .inc();
        }
    }
}

impl Server {
    /// Run `f`, one remote call's attempts, under the cluster's
    /// [`CallPolicy`] (the module doc lists the five steps). `dest` names
    /// the peer whose breaker and budget the call answers to; `None`
    /// checks this task's own landing only. Retries count in
    /// `RunMetadata::retries`; without a breaker or budget the loop
    /// touches no per-destination state.
    pub(crate) fn call<T>(
        &self,
        what: &str,
        dest: Option<&TaskKey>,
        mut f: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        // A torn-down cluster leaves one attempt.
        let calls = self
            .try_cluster()
            .map_or_else(|_| Arc::default(), |c| c.calls());
        let dest = dest.filter(|_| calls.guarded());
        let mut attempt = 0;
        loop {
            deadline::check(what)?;
            if let Some(d) = dest {
                calls.admit(d, what, attempt > 0, clock::now())?;
            }
            let r = f();
            if let Some(d) = dest {
                calls.report(d, r.as_ref().err(), clock::now());
            }
            match r {
                Err(e) if e.is_transient() && attempt + 1 < calls.policy.attempts => {
                    let backoff = calls.policy.backoff(attempt, what);
                    if let Some(remaining) = deadline::remaining_s() {
                        if backoff >= remaining {
                            return Err(CoreError::DeadlineExceeded(format!(
                                "{what}: retry backoff {backoff:.6}s exceeds remaining \
                                 budget {:.6}s (after transient error: {e})",
                                remaining.max(0.0)
                            )));
                        }
                    }
                    self.resources.note_retry();
                    clock::sleep(backoff);
                    attempt += 1;
                }
                r => return r,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, TfCluster};
    use tfhpc_sim::net::Protocol;

    /// Run `f` (handed its 0-based attempt) through `call` under
    /// `policy`: the result, the attempts made and the retries counted.
    fn run<T>(
        policy: CallPolicy,
        mut f: impl FnMut(usize) -> Result<T>,
    ) -> (Result<T>, usize, u64) {
        let spec = ClusterSpec::new([("worker".to_string(), vec!["a:1".to_string()])]);
        let cluster = TfCluster::new(spec, Protocol::Rdma, None);
        cluster.set_call_policy(policy);
        let worker = cluster.start_server(TaskKey::new("worker", 0), 0, vec![]);
        let mut n = 0;
        let r = worker.call("op", None, || {
            n += 1;
            f(n - 1)
        });
        (r, n, worker.resources.retries_total())
    }

    fn flap() -> CoreError {
        CoreError::Unavailable("flap".into())
    }

    /// A body failing transiently before attempt `ok`, then returning it.
    fn flaps(ok: usize) -> impl FnMut(usize) -> Result<usize> {
        move |a| (a >= ok).then_some(a).ok_or_else(flap)
    }

    #[test]
    fn only_transient_errors_are_retried_within_the_attempts() {
        let (r, n, _) = run(CallPolicy::default(), flaps(usize::MAX));
        assert!(matches!(r, Err(CoreError::Unavailable(_))) && n == 1);
        let (r, n, k) = run(CallPolicy::new(5, 1e-6), flaps(2));
        assert_eq!((r.unwrap(), n, k), (2, 3, 2), "two retries counted");
        let (r, n, _) = run(CallPolicy::new(5, 1e-6), |_| {
            Err::<(), _>(CoreError::Aborted("crash".into()))
        });
        assert!(matches!(r, Err(CoreError::Aborted(_))) && n == 1);
        let (r, n, _) = run(CallPolicy::new(3, 1e-6), flaps(usize::MAX));
        assert!(matches!(r, Err(CoreError::Unavailable(_))) && n == 3);
    }

    #[test]
    fn backoff_is_never_scheduled_past_the_deadline() {
        // A 1 s backoff against a 50 ms budget fails now, without a sleep.
        let scope = deadline::with_deadline(0.05);
        let t0 = std::time::Instant::now();
        let (r, n, _) = run(CallPolicy::new(5, 1.0), flaps(usize::MAX));
        assert!(matches!(r, Err(CoreError::DeadlineExceeded(_))), "{r:?}");
        assert_eq!(n, 1, "no retry scheduled");
        assert!(t0.elapsed().as_secs_f64() < 0.5, "failed fast, no sleep");
        drop(scope);
        let _scope = deadline::with_deadline(60.0);
        let (r, n, _) = run(CallPolicy::new(5, 1e-6), flaps(1));
        assert_eq!((r.unwrap(), n), (1, 2));
    }

    #[test]
    fn backoff_and_probe_times_are_pinned() {
        // The jittered values the DES replays, bit for bit.
        let p = CallPolicy::new(8, 0.01);
        for (attempt, what, bits) in [
            (0, "remote_enqueue", 0x3f84_dace_add1_c0c7u64),
            (1, "remote_enqueue", 0x3f95_b385_d6da_0853),
            (9, "remote_dequeue", 0x3ff0_5184_f6c9_299f), // at the 100× ceiling
        ] {
            assert_eq!(p.backoff(attempt, what).to_bits(), bits);
        }
        let calls = Calls::new(CallPolicy::default().with_breaker(1, 1.0));
        let w0 = TaskKey::new("worker", 0);
        let a = calls.probe_at(&w0, 5.0, 1);
        assert_eq!(a, 5.0 + 1.0 + 0.1 * f64::from_bits(0x3fe6_0b46_fd2a_db59));
        assert_ne!(a, calls.probe_at(&TaskKey::new("worker", 1), 5.0, 1));
        assert_ne!(a, calls.probe_at(&w0, 5.0, 2));
    }

    #[test]
    fn breaker_trips_fails_fast_and_probes_after_the_cooldown() {
        let calls = Calls::new(CallPolicy::default().with_breaker(3, 1.0));
        let d = TaskKey::new("worker", 1);
        let admit = |t: f64| calls.admit(&d, "op", false, t);
        for _ in 0..3 {
            assert_eq!(calls.state(&d), BreakerState::Closed);
            admit(0.0).unwrap();
            calls.report(&d, Some(&flap()), 10.0);
        }
        assert_eq!(calls.state(&d), BreakerState::Open);
        assert_eq!(calls.total_trips(), 1);
        let err = admit(10.5).unwrap_err();
        assert!(matches!(err, CoreError::ResourceExhausted(_)) && !err.is_transient());
        // Jitter stretches the cooldown by at most 10 %.
        assert!(admit(11.0).is_err(), "before the jittered probe time");
        admit(11.2).unwrap();
        assert_eq!(calls.state(&d), BreakerState::HalfOpen);
        assert!(admit(11.2).is_err(), "a second caller during the probe");
        // A failed probe re-opens at once with a new trip and cooldown.
        calls.report(&d, Some(&flap()), 11.2);
        assert_eq!(calls.state(&d), BreakerState::Open);
        assert_eq!(calls.total_trips(), 2);
        assert!(admit(11.7).is_err(), "cooldown restarted");
        admit(12.5).unwrap();
        // A probe failing for its own reasons frees the slot.
        calls.report(&d, Some(&CoreError::Aborted("fenced".into())), 12.5);
        admit(12.5).unwrap();
        calls.report(&d, None, 12.5);
        assert_eq!(calls.state(&d), BreakerState::Closed);
        admit(12.6).unwrap();
    }

    #[test]
    fn retry_budget_exhausts_refills_and_never_strands_a_probe() {
        let d = TaskKey::new("worker", 1);
        for trip_after in [None, Some(1)] {
            let calls = Calls::new(CallPolicy {
                trip_after,
                retry_budget: Some(2),
                ..CallPolicy::default()
            });
            calls.admit(&d, "op", false, 0.0).unwrap();
            calls.admit(&d, "op", true, 0.0).unwrap();
            calls.admit(&d, "op", true, 0.0).unwrap();
            calls.report(&d, Some(&flap()), 0.0);
            let err = calls.admit(&d, "op", true, 0.0).unwrap_err();
            assert!(err.to_string().contains("retry budget"), "{err}");
            // The refused re-attempt took no probe slot: a first attempt
            // passes, as the probe when a breaker opened.
            calls.admit(&d, "op", false, 0.0).unwrap();
            let probing = trip_after.map_or(BreakerState::Closed, |_| BreakerState::HalfOpen);
            assert_eq!(calls.state(&d), probing);
            calls.report(&d, None, 0.0);
            calls.admit(&d, "op", true, 0.0).unwrap();
            calls.admit(&d, "op", true, 0.0).unwrap();
            assert!(calls.admit(&d, "op", true, 0.0).is_err(), "refilled to 2");
        }
    }
}
