//! # tfhpc-obs
//!
//! The observability subsystem: the layer that turns the runtime's
//! internal signals (kernel charges, queue occupancy, link traffic,
//! retries, gang restarts) into artifacts a person can read — the same
//! role `StepStats`/`RunMetadata`, the TensorFlow Timeline and the
//! contrib metrics registry play in TensorFlow, whose per-step
//! statistics are the backbone of the paper's entire evaluation.
//!
//! Three pieces, layered bottom-up:
//!
//! * [`metrics`] — a concurrency-safe registry of monotonic counters,
//!   gauges and fixed-bucket histograms (with quantile estimates),
//!   exposed as Prometheus text or JSON. Metric handles are plain
//!   `Arc`s over atomics: one relaxed atomic op per update on the hot
//!   path, no locks.
//! * [`trace`] — structured tracing scopes: nested spans on named
//!   tracks (one per task/thread), flow events stitching cross-task
//!   sends to their receives, and counter series (queue depths),
//!   exported as Chrome trace-event JSON loadable in `chrome://tracing`
//!   or Perfetto. Recording is gated on one relaxed atomic load when
//!   disabled.
//! * [`step_stats`] — the per-`Session::run` statistics block folded
//!   into the core `RunMetadata`: per-op device time, per-queue
//!   enqueue/dequeue counts and residency, per-link bytes and message
//!   counts, retry counters.
//!
//! ## Time semantics
//!
//! Every timestamp comes from [`now_seconds`]: *virtual* seconds when
//! the caller is a simulated process (the DES clock), wall-clock
//! seconds since process start otherwise. Observation never advances
//! virtual time — a simulated run with every sink enabled is
//! byte-identical to the same run with observability off.
//!
//! ## Sinks
//!
//! [`sink`] wires the registry and the global tracer to the
//! environment: `TFHPC_METRICS=<path>` dumps a Prometheus text (or
//! `.json`) snapshot, `TFHPC_TRACE_DIR=<dir>` writes Chrome traces.
//! Unset means no I/O and (for the tracer) no recording.

pub mod json;
pub mod metrics;
pub mod sink;
pub mod step_stats;
pub mod trace;

pub use metrics::{global, Counter, Gauge, Histogram, LazyCounter, Registry};
pub use step_stats::{LinkStat, OpStat, QueueStat, StepStats};
pub use trace::{flow_id, set_track, SpanGuard, TraceEvent, Tracer};

/// The observability clock — [`tfhpc_sim::clock::now`], the one clock
/// queues, deadlines and retries also read: virtual seconds when called
/// from a simulated process, wall-clock seconds since the process's
/// first read otherwise. Reading it never advances the DES.
pub fn now_seconds() -> f64 {
    tfhpc_sim::clock::now()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let a = now_seconds();
        let b = now_seconds();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_reads_virtual_time() {
        use parking_lot::Mutex;
        use std::sync::Arc;
        let sim = tfhpc_sim::des::Sim::new();
        let seen = Arc::new(Mutex::new(0.0f64));
        {
            let seen = Arc::clone(&seen);
            sim.spawn("p", move || {
                tfhpc_sim::clock::sleep(4.25);
                *seen.lock() = now_seconds();
            });
        }
        sim.run();
        assert_eq!(*seen.lock(), 4.25);
    }
}
