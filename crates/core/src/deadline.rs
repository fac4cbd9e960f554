//! Ambient end-to-end deadline propagation.
//!
//! A request that enters the runtime with a time budget must have that
//! *remaining* budget — not a fresh per-hop timeout — bound every
//! blocking wait on its path: `Session::run` → queue waits →
//! rendezvous receives → remote-op retries. This module carries the
//! budget implicitly, the way gRPC propagates deadlines through a call
//! chain: an absolute expiry installed in a thread-local scope that
//! every layer below can consult without plumbing a parameter through
//! the whole stack. A scope belongs to the process that opened it: a
//! simulated process (thread or DES leaf) sees only its own, so a leaf
//! resumed on another process's thread — a serve worker running inline
//! while a client waits — does not inherit that client's budget. A DES
//! leaf's scope lasts as long as the `resume` that opened it.
//!
//! The expiry is absolute on the caller's clock
//! ([`tfhpc_sim::clock::now`]: virtual seconds inside a simulated
//! process, monotonic wall seconds otherwise) — so sleeping through it
//! is impossible to miss. Scopes
//! nest by shrinking: an inner `with_deadline` can only tighten the
//! budget, never extend what the outer request granted.
//!
//! Consumers:
//! * [`crate::queue::FifoQueue`] turns blocking waits into bounded
//!   waits when a deadline is ambient, surfacing `DeadlineExceeded`.
//! * [`crate::session::Session`] fails a run whose budget is already
//!   spent.
//! * `tfhpc-dist`'s one call loop, `Server::call`, checks the budget
//!   before every attempt of a remote call and never schedules a retry
//!   backoff past it.

use std::cell::Cell;
use std::sync::Arc;

use crate::error::{CoreError, Result};
use tfhpc_sim::clock;

/// Who opened a scope: the simulated process (its simulation and id),
/// or `None` for a thread outside any simulation.
type Owner = Option<(usize, tfhpc_sim::ProcId)>;

fn owner() -> Owner {
    tfhpc_sim::des::current().map(|me| (Arc::as_ptr(me.sim()) as usize, me.id()))
}

thread_local! {
    static DEADLINE_S: Cell<Option<(Owner, f64)>> = const { Cell::new(None) };
}

/// RAII scope for an ambient deadline: restores the previous budget
/// (if any) on drop, so scopes nest and unwind correctly.
#[must_use = "dropping the guard immediately removes the deadline"]
pub struct DeadlineGuard {
    prev: Option<(Owner, f64)>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE_S.with(|d| d.set(self.prev));
    }
}

/// Install an ambient deadline `timeout_s` seconds from now for the
/// current thread/sim-process. Nested scopes take the *minimum* of the
/// inner and outer expiry — a callee can tighten the caller's budget
/// but never extend it.
pub fn with_deadline(timeout_s: f64) -> DeadlineGuard {
    let abs = clock::now() + timeout_s.max(0.0);
    let (me, prev) = (owner(), DEADLINE_S.with(|d| d.get()));
    let effective = match prev {
        Some((opener, p)) if opener == me => p.min(abs),
        _ => abs,
    };
    DEADLINE_S.with(|d| d.set(Some((me, effective))));
    DeadlineGuard { prev }
}

/// The ambient absolute expiry, if the calling process has a deadline
/// scope active.
pub fn deadline_s() -> Option<f64> {
    let (opener, d) = DEADLINE_S.with(|d| d.get())?;
    (opener == owner()).then_some(d)
}

/// Remaining budget in seconds (may be ≤ 0 once expired); `None` when
/// no deadline scope is active.
pub fn remaining_s() -> Option<f64> {
    deadline_s().map(|d| d - clock::now())
}

/// Fail with [`CoreError::DeadlineExceeded`] when the ambient budget
/// has expired; a no-op without an active deadline scope.
pub fn check(what: &str) -> Result<()> {
    match remaining_s() {
        Some(r) if r <= 0.0 => Err(CoreError::DeadlineExceeded(format!(
            "{what}: request budget exhausted {:.6}s ago",
            -r
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_means_no_deadline() {
        assert_eq!(deadline_s(), None);
        assert_eq!(remaining_s(), None);
        assert!(check("op").is_ok());
    }

    #[test]
    fn scope_installs_and_restores() {
        {
            let _g = with_deadline(1000.0);
            let d = deadline_s().expect("deadline installed");
            assert!(remaining_s().unwrap() > 0.0);
            {
                // Inner scopes only tighten.
                let _g2 = with_deadline(1.0);
                assert!(deadline_s().unwrap() < d);
            }
            assert_eq!(deadline_s(), Some(d), "inner scope restored");
            assert!(check("op").is_ok());
        }
        assert_eq!(deadline_s(), None, "outer scope restored");
    }

    #[test]
    fn deadline_and_observability_read_one_clock() {
        // A scope opened at `t` expires at `t + budget` on the clock
        // queue residency is stamped with: one epoch per process, even
        // when the two are first read 5 ms apart.
        tfhpc_obs::now_seconds();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let before = tfhpc_obs::now_seconds();
        let _g = with_deadline(100.0);
        let expiry = deadline_s().expect("deadline installed");
        assert!(before + 100.0 <= expiry && expiry <= tfhpc_obs::now_seconds() + 100.0);
    }

    #[test]
    fn expired_budget_fails_check() {
        let _g = with_deadline(0.0);
        let err = check("remote op").unwrap_err();
        match err {
            CoreError::DeadlineExceeded(msg) => assert!(msg.contains("remote op"), "{msg}"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn inner_scope_cannot_extend_outer() {
        let _g = with_deadline(0.0);
        let _g2 = with_deadline(1000.0);
        assert!(check("op").is_err(), "outer expiry must win");
    }
}
