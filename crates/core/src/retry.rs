//! Retry with exponential backoff on transient errors — the policy
//! TensorFlow's distributed runtime applies to `UnavailableError`
//! (worker preempted, link flapping) while letting every other error
//! code propagate.
//!
//! Backoff sleeps advance the *virtual* clock when the caller is a
//! simulated process, and jitter is a deterministic hash of the
//! operation name and attempt number — never the wall clock — so a
//! retried run under the DES replays byte-for-byte.

use crate::error::{CoreError, Result};
use crate::resources::Resources;

/// Retry policy for transient ([`CoreError::is_transient`]) failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Total attempts including the first (1 = no retry).
    pub max_attempts: usize,
    /// Backoff before the first retry, seconds; doubles per attempt.
    pub base_backoff_s: f64,
    /// Backoff ceiling, seconds.
    pub max_backoff_s: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by up to
    /// this fraction, by a deterministic hash of (operation, attempt).
    pub jitter: f64,
}

impl Default for RetryConfig {
    /// Retries disabled — the seed runtime's behavior.
    fn default() -> Self {
        RetryConfig::disabled()
    }
}

/// FNV-1a as a running state (with this codebase's multiplier). Bytes
/// go in through [`Fnv1a::eat`]; a `Display` value goes in through
/// `write!`, with no `String` in between.
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Mix `bytes` in, in order.
    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over the salt and attempt, mapped to `[0, 1)` — the
/// deterministic stand-in for random jitter. Shared with the
/// circuit-breaker probe timing in `tfhpc-dist`, which jitters its
/// half-open probes the same seedless way.
pub fn unit_hash(salt: &str, attempt: usize) -> f64 {
    let mut h = Fnv1a::default();
    h.eat(salt.as_bytes());
    h.eat(&attempt.to_le_bytes());
    (h.0 >> 11) as f64 / (1u64 << 53) as f64
}

impl RetryConfig {
    /// No retries: every error propagates on the first attempt.
    pub fn disabled() -> RetryConfig {
        RetryConfig {
            max_attempts: 1,
            base_backoff_s: 0.0,
            max_backoff_s: 0.0,
            jitter: 0.0,
        }
    }

    /// Retry up to `max_attempts` total attempts, starting the backoff
    /// at `base_backoff_s` (doubling, capped at 100×, 10% jitter).
    pub fn new(max_attempts: usize, base_backoff_s: f64) -> RetryConfig {
        RetryConfig {
            max_attempts: max_attempts.max(1),
            base_backoff_s,
            max_backoff_s: base_backoff_s * 100.0,
            jitter: 0.1,
        }
    }

    /// True when the policy can retry at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff before retry number `attempt` (0-based) of `what`.
    pub fn backoff_s(&self, attempt: usize, what: &str) -> f64 {
        let exp = self.base_backoff_s * 2f64.powi(attempt.min(62) as i32);
        let capped = exp.min(self.max_backoff_s.max(self.base_backoff_s));
        capped * (1.0 + self.jitter * unit_hash(what, attempt))
    }

    /// Run `f`, retrying transient errors with exponential backoff up
    /// to the attempt budget. Each retry is counted on `resources`
    /// (surfacing in `RunMetadata::retries`) when provided.
    /// Non-transient errors and budget exhaustion propagate the last
    /// error unchanged.
    ///
    /// When an ambient [`crate::deadline`] scope is active, a retry is
    /// never scheduled past the request's remaining budget: a backoff
    /// that would sleep through the deadline fails *now* with
    /// `DeadlineExceeded` (carrying the transient error it gave up
    /// on) instead of surfacing the expiry late.
    pub fn run<T>(
        &self,
        what: &str,
        resources: Option<&Resources>,
        mut f: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 0usize;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt + 1 < self.max_attempts => {
                    let backoff = self.backoff_s(attempt, what);
                    if let Some(remaining) = crate::deadline::remaining_s() {
                        if backoff >= remaining {
                            return Err(CoreError::DeadlineExceeded(format!(
                                "{what}: retry backoff {backoff:.6}s exceeds remaining \
                                 budget {:.6}s (after transient error: {e})",
                                remaining.max(0.0)
                            )));
                        }
                    }
                    if let Some(r) = resources {
                        r.note_retry();
                    }
                    tfhpc_sim::clock::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn disabled_policy_fails_on_first_transient() {
        let calls = AtomicUsize::new(0);
        let r: Result<()> = RetryConfig::disabled().run("op", None, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(CoreError::Unavailable("flap".into()))
        });
        assert!(matches!(r, Err(CoreError::Unavailable(_))));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn transient_errors_retried_until_success() {
        let res = Resources::new();
        let calls = AtomicUsize::new(0);
        let cfg = RetryConfig::new(5, 1e-6);
        let v = cfg
            .run("op", Some(&res), || {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(CoreError::Unavailable("flap".into()))
                } else {
                    Ok(7)
                }
            })
            .unwrap();
        assert_eq!(v, 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(res.retries_total(), 2);
    }

    #[test]
    fn non_transient_errors_never_retried() {
        let calls = AtomicUsize::new(0);
        let r: Result<()> = RetryConfig::new(5, 1e-6).run("op", None, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(CoreError::Aborted("crash".into()))
        });
        assert!(matches!(r, Err(CoreError::Aborted(_))));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn budget_exhaustion_returns_last_error() {
        let calls = AtomicUsize::new(0);
        let r: Result<()> = RetryConfig::new(3, 1e-6).run("op", None, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(CoreError::Unavailable("still down".into()))
        });
        assert!(matches!(r, Err(CoreError::Unavailable(_))));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn backoff_never_scheduled_past_deadline() {
        // Base backoff of 1s against a 50ms budget: the retry would
        // sleep through the deadline, so the loop must fail *now* with
        // DeadlineExceeded instead of surfacing the expiry late.
        let _scope = crate::deadline::with_deadline(0.05);
        let calls = AtomicUsize::new(0);
        let t0 = std::time::Instant::now();
        let r: Result<()> = RetryConfig::new(5, 1.0).run("op", None, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(CoreError::Unavailable("flap".into()))
        });
        assert!(matches!(r, Err(CoreError::DeadlineExceeded(_))), "{r:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry scheduled");
        assert!(t0.elapsed().as_secs_f64() < 0.5, "failed fast, no sleep");
    }

    #[test]
    fn backoff_within_deadline_still_retries() {
        let _scope = crate::deadline::with_deadline(60.0);
        let calls = AtomicUsize::new(0);
        let cfg = RetryConfig::new(5, 1e-6);
        let v = cfg
            .run("op", None, || {
                if calls.fetch_add(1, Ordering::SeqCst) < 1 {
                    Err(CoreError::Unavailable("flap".into()))
                } else {
                    Ok(3)
                }
            })
            .unwrap();
        assert_eq!(v, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn backoff_grows_deterministically() {
        let cfg = RetryConfig::new(8, 0.01);
        let b0 = cfg.backoff_s(0, "remote_enqueue");
        let b1 = cfg.backoff_s(1, "remote_enqueue");
        let b2 = cfg.backoff_s(2, "remote_enqueue");
        assert!(b0 < b1 && b1 < b2, "{b0} {b1} {b2}");
        // Deterministic: same inputs, same jittered value.
        assert_eq!(b1, cfg.backoff_s(1, "remote_enqueue"));
        // Jitter differs across operations but stays bounded.
        let other = cfg.backoff_s(1, "remote_dequeue");
        assert!((0.02..=0.02 * 1.1 + 1e-12).contains(&other));
    }
}
