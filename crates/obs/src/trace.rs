//! Structured tracing scopes: nested spans on named tracks, flow
//! events stitching cross-task sends to their receives, and counter
//! series (queue depths), exported as Chrome trace-event JSON.
//!
//! Recording costs one relaxed atomic load when the tracer is
//! disabled; spans read the observability clock only when enabled.
//! Events are bounded by a cap — a long run drops excess events and
//! counts them instead of growing without bound.

use crate::{json, now_seconds};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// What a [`TraceEvent`] renders as in the Chrome trace-event format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete event (`ph: "X"`) with a duration.
    Span,
    /// A flow start (`ph: "s"`) — the producing side of a send.
    FlowStart,
    /// A flow end (`ph: "f"`, binding to the enclosing slice) — the
    /// consuming side of a receive.
    FlowEnd,
    /// A counter sample (`ph: "C"`), e.g. a queue depth.
    Counter,
}

/// One recorded trace event. Constructors are public so callers can
/// convert foreign records (the DES's `TraceSegment`s) into the same
/// stream before export.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (op, scope or counter name).
    pub name: String,
    /// Track (Chrome `tid`): one lane per task/thread.
    pub track: String,
    /// Start timestamp, seconds (virtual in sim, wall otherwise).
    pub start_s: f64,
    /// Duration, seconds (spans only; 0 otherwise).
    pub dur_s: f64,
    /// Render kind.
    pub kind: EventKind,
    /// Flow correlation id ([`flow_id`]); 0 for non-flow events.
    pub id: u64,
    /// Counter value (counters only).
    pub value: f64,
}

impl TraceEvent {
    /// A completed span on `track` covering `[start_s, start_s + dur_s]`.
    pub fn span(name: &str, track: &str, start_s: f64, dur_s: f64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            track: track.to_string(),
            start_s,
            dur_s,
            kind: EventKind::Span,
            id: 0,
            value: 0.0,
        }
    }

    /// The producing side of a cross-task flow (a send).
    pub fn flow_start(name: &str, track: &str, ts_s: f64, id: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            track: track.to_string(),
            start_s: ts_s,
            dur_s: 0.0,
            kind: EventKind::FlowStart,
            id,
            value: 0.0,
        }
    }

    /// The consuming side of a cross-task flow (a receive).
    pub fn flow_end(name: &str, track: &str, ts_s: f64, id: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            track: track.to_string(),
            start_s: ts_s,
            dur_s: 0.0,
            kind: EventKind::FlowEnd,
            id,
            value: 0.0,
        }
    }

    /// A counter sample (queue depth, bytes in flight, ...).
    pub fn counter(name: &str, track: &str, ts_s: f64, value: f64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            track: track.to_string(),
            start_s: ts_s,
            dur_s: 0.0,
            kind: EventKind::Counter,
            id: 0,
            value,
        }
    }

    /// End time in seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }

    /// Whether this span and `other` overlap in time (touching
    /// endpoints do not).
    pub fn overlaps(&self, other: &TraceEvent) -> bool {
        self.start_s < other.end_s() && other.start_s < self.end_s()
    }
}

/// Deterministic flow correlation id: FNV-1a of `key` (e.g. a
/// rendezvous channel name). The same key on both sides of a send
/// yields the same id, stitching the arrow in the trace viewer.
pub fn flow_id(key: &str) -> u64 {
    // 0 is reserved for "no flow".
    tfhpc_sim::fnv::Fnv1a44::hash(key.as_bytes()).max(1)
}

thread_local! {
    static TRACK: RefCell<Option<String>> = const { RefCell::new(None) };
}

static ANON_TRACK: AtomicU64 = AtomicU64::new(0);

/// Name this thread's trace track (its Chrome `tid` lane). Launch
/// calls this once per gang task; unnamed threads get `thread-N`.
pub fn set_track(name: &str) {
    TRACK.with(|t| *t.borrow_mut() = Some(name.to_string()));
}

/// This thread's track name, assigning `thread-N` on first use.
pub fn current_track() -> String {
    TRACK.with(|t| {
        let mut t = t.borrow_mut();
        match &*t {
            Some(name) => name.clone(),
            None => {
                let name = format!("thread-{}", ANON_TRACK.fetch_add(1, Ordering::Relaxed));
                *t = Some(name.clone());
                name
            }
        }
    })
}

/// Default event cap: beyond this, events are dropped and counted.
pub const DEFAULT_EVENT_CAP: usize = 1_000_000;

/// An event recorder. Disabled by default — recording is then a single
/// relaxed load. Bounded: past the cap, events are dropped and
/// counted, never silently and never unboundedly.
pub struct Tracer {
    enabled: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
    cap: AtomicUsize,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Disabled tracer with the default event cap.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_EVENT_CAP)
    }

    /// Disabled tracer holding at most `cap` events.
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            cap: AtomicUsize::new(cap.max(1)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop recording (already-recorded events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record `ev` if enabled and under the cap; count a drop
    /// otherwise.
    pub fn record(&self, ev: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut events = self.events.lock();
        if events.len() >= self.cap.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(ev);
    }

    /// Open a nested span named `name` on this thread's track; the
    /// span closes (and records) when the guard drops. When disabled
    /// this neither reads the clock nor allocates.
    pub fn span<'a>(&'a self, name: &str) -> SpanGuard<'a> {
        if !self.is_enabled() {
            return SpanGuard { open: None };
        }
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                name: name.to_string(),
                track: current_track(),
                start_s: now_seconds(),
            }),
        }
    }

    /// Record the producing side of a flow on this thread's track.
    pub fn flow_start(&self, name: &str, id: u64) {
        if self.is_enabled() {
            self.record(TraceEvent::flow_start(
                name,
                &current_track(),
                now_seconds(),
                id,
            ));
        }
    }

    /// Record the consuming side of a flow on this thread's track.
    pub fn flow_end(&self, name: &str, id: u64) {
        if self.is_enabled() {
            self.record(TraceEvent::flow_end(
                name,
                &current_track(),
                now_seconds(),
                id,
            ));
        }
    }

    /// Record a counter sample (e.g. queue depth) on its own track.
    pub fn counter(&self, name: &str, value: f64) {
        if self.is_enabled() {
            self.record(TraceEvent::counter(name, "counters", now_seconds(), value));
        }
    }

    /// Events dropped at the cap so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take every recorded event, leaving the tracer empty (the drop
    /// counter is reset too). Used by exporters that merge tracer
    /// events with DES segments.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.dropped.store(0, Ordering::Relaxed);
        std::mem::take(&mut *self.events.lock())
    }

    /// Snapshot the current events without draining.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Export the current events as Chrome trace JSON (see
    /// [`chrome_trace_json`]).
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.events.lock(), self.dropped())
    }
}

/// RAII guard returned by [`Tracer::span`]; records a complete event
/// covering its lifetime when dropped.
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    name: String,
    track: String,
    start_s: f64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let dur = (now_seconds() - open.start_s).max(0.0);
            open.tracer
                .record(TraceEvent::span(&open.name, &open.track, open.start_s, dur));
        }
    }
}

/// Render `events` as a Chrome trace-event JSON document (the
/// `traceEvents` array form, loadable in `chrome://tracing` or
/// Perfetto). Spans become complete (`X`) events, flows `s`/`f`
/// pairs matched by id, counters `C` samples. Timestamps convert from
/// seconds to microseconds. A non-zero `dropped` count is surfaced as
/// a global instant event so truncation is visible in the viewer.
pub fn chrome_trace_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = json::escape(&ev.name);
        let tid = json::escape(&ev.track);
        let ts = json::number(ev.start_s * 1e6);
        match ev.kind {
            EventKind::Span => {
                let _ = write!(
                    out,
                    "{{\"name\":{name},\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
                    json::number(ev.dur_s * 1e6)
                );
            }
            EventKind::FlowStart => {
                let _ = write!(
                    out,
                    "{{\"name\":{name},\"ph\":\"s\",\"cat\":\"flow\",\"id\":{},\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                    ev.id
                );
            }
            EventKind::FlowEnd => {
                let _ = write!(
                    out,
                    "{{\"name\":{name},\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"id\":{},\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                    ev.id
                );
            }
            EventKind::Counter => {
                let _ = write!(
                    out,
                    "{{\"name\":{name},\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"value\":{}}}}}",
                    json::number(ev.value)
                );
            }
        }
    }
    if dropped > 0 {
        if !events.is_empty() {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"trace_events_dropped\",\"ph\":\"i\",\"s\":\"g\",\"ts\":0,\"pid\":1,\"tid\":\"obs\",\"args\":{{\"count\":{dropped}}}}}"
        );
    }
    out.push_str("]}");
    out
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer the built-in instrumentation reports to.
/// Disabled until [`Tracer::enable`] is called (the `sink` module does
/// so when `TFHPC_TRACE_DIR` is set, and `launch_traced` does so for
/// traced simulations).
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let _g = t.span("work");
        }
        t.counter("depth", 3.0);
        t.flow_start("send", 7);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn spans_record_on_drop_with_duration() {
        let t = Tracer::new();
        t.enable();
        set_track("test-task");
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let evs = t.snapshot();
        assert_eq!(evs.len(), 2);
        // Inner drops first.
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[1].name, "outer");
        assert_eq!(evs[0].track, "test-task");
        assert!(evs[1].start_s <= evs[0].start_s);
        assert!(evs[1].dur_s >= evs[0].dur_s);
    }

    #[test]
    fn cap_drops_and_counts() {
        let t = Tracer::with_capacity(2);
        t.enable();
        for i in 0..5 {
            t.record(TraceEvent::counter(&format!("c{i}"), "t", 0.0, 1.0));
        }
        assert_eq!(t.snapshot().len(), 2);
        assert_eq!(t.dropped(), 3);
        let doc = crate::json::parse(&t.to_chrome_json()).expect("trace parses");
        let evs = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        let drop_ev = evs
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("trace_events_dropped"))
            .expect("dropped marker present");
        assert_eq!(
            drop_ev
                .get("args")
                .and_then(|a| a.get("count"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn overlap_predicate() {
        let a = TraceEvent::span("a", "d", 0.0, 1.0);
        let b = TraceEvent::span("b", "d", 0.5, 1.0);
        let c = TraceEvent::span("c", "d", 1.0, 1.0);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c)); // touching endpoints do not overlap
        assert_eq!(b.end_s(), 1.5);
    }

    #[test]
    fn concurrent_recording_keeps_every_event() {
        let t = Tracer::new();
        t.enable();
        std::thread::scope(|s| {
            for w in 0..8 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..100 {
                        t.record(TraceEvent::span(
                            &format!("op{w}_{i}"),
                            "/cpu:0",
                            i as f64,
                            1.0,
                        ));
                    }
                });
            }
        });
        assert_eq!(t.snapshot().len(), 800);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn flow_ids_deterministic_and_nonzero() {
        assert_eq!(
            flow_id("rendezvous:a->b;x;0"),
            flow_id("rendezvous:a->b;x;0")
        );
        assert_ne!(flow_id("a"), flow_id("b"));
        assert!(flow_id("") >= 1);
    }

    #[test]
    fn chrome_export_escapes_and_parses() {
        let evs = vec![
            TraceEvent::span("op\"quote\\slash\nnl", "task\t0", 1.0, 0.5),
            TraceEvent::flow_start("send", "task0", 1.5, 42),
            TraceEvent::flow_end("send", "task1", 2.0, 42),
            TraceEvent::counter("queue.depth", "counters", 2.5, 3.0),
        ];
        let doc = crate::json::parse(&chrome_trace_json(&evs, 0)).expect("valid JSON");
        let arr = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(
            arr[0].get("name").and_then(JsonValue::as_str),
            Some("op\"quote\\slash\nnl")
        );
        assert_eq!(arr[0].get("ts").and_then(JsonValue::as_f64), Some(1e6));
        assert_eq!(arr[1].get("ph").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(arr[2].get("bp").and_then(JsonValue::as_str), Some("e"));
        assert_eq!(
            arr[3]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }
}
