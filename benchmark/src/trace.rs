//! In-memory span recorder for the traced run. Spans are taken from
//! the benchmark's own files around the calls into each layer (spans
//! inside the program are a later change): name, layer, start, end,
//! the span that caused it, and the id of the op it belongs to. Kept
//! in memory, written as Chrome-trace JSON when the run ends. Off, a
//! span site costs one relaxed load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept between two `drain`s; further ones are counted as
/// dropped.
const SPAN_CAP: usize = 100_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span on the same thread, 0 for none.
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The op this span is part of; spans of one op share it.
    pub op: u64,
    pub thread: u32,
}

// Relaxed everywhere: the flag and the counters publish no other data
// (spans travel through the mutex).
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Tag the spans this thread opens from now on with op `id`.
pub fn set_op(id: u64) {
    OP.with(|o| o.set(id));
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span; it closes when the guard drops.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard(Some(Span {
        id,
        parent,
        layer,
        name,
        start_ns: now_ns(),
        end_ns: 0,
        op: OP.with(Cell::get),
        thread: THREAD.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        }),
    }))
}

pub struct Guard(Option<Span>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.0.take() else {
            return;
        };
        span.end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        // A poisoned lock only means another thread panicked while
        // pushing; the vector is still a valid list of spans.
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Take every span recorded since the last drain, and how many were
/// dropped at the cap meanwhile.
pub fn drain() -> (Vec<Span>, u64) {
    let spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    (spans, DROPPED.swap(0, Ordering::Relaxed))
}

/// One row of the per-layer table.
pub struct Row {
    pub layer: &'static str,
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    /// Median self time: the span minus the part its children cover.
    pub self_p50_us: f64,
    pub self_total_ms: f64,
}

/// Aggregate spans per (layer, name).
pub fn table(spans: &[Span]) -> Vec<Row> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    #[derive(Default)]
    struct Group {
        durs: Vec<f64>,
        owns: Vec<f64>,
    }
    let mut groups: BTreeMap<(&str, &str), Group> = BTreeMap::new();
    for s in spans {
        let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
        let own = dur - child_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e3;
        let g = groups.entry((s.layer, s.name)).or_default();
        g.durs.push(dur);
        g.owns.push(own.max(0.0));
    }
    groups
        .into_iter()
        .map(|((layer, name), Group { durs, owns })| Row {
            layer,
            name,
            count: durs.len(),
            self_total_ms: owns.iter().sum::<f64>() / 1e3,
            p50_us: crate::harness::median(durs),
            self_p50_us: crate::harness::median(owns),
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.layer,
            tfhpc_obs::json::number(s.start_ns as f64 / 1e3),
            tfhpc_obs::json::number((s.end_ns - s.start_ns) as f64 / 1e3),
            s.thread,
            s.id,
            s.parent,
            s.op
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            name,
            start_ns: start,
            end_ns: end,
            op: 7,
            thread: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            sp(1, 0, "op", 0, 10_000),
            sp(2, 1, "call", 1_000, 4_000),
            sp(3, 1, "call", 5_000, 9_000),
        ];
        let rows = table(&spans);
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        assert_eq!(op.count, 1);
        assert!((op.p50_us - 10.0).abs() < 1e-9);
        assert!((op.self_p50_us - 3.0).abs() < 1e-9);
        let call = rows.iter().find(|r| r.name == "call").unwrap();
        assert_eq!(call.count, 2);
        assert!((call.self_total_ms - 0.007).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_parses_and_carries_parent_and_op() {
        let json = chrome_json(&[sp(2, 1, "call", 1_000, 4_000)]);
        let v = tfhpc_obs::json::parse(&json).unwrap();
        let ev = &v.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(ev.get("cat").unwrap().as_str(), Some("l"));
        let args = ev.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(args.get("op").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn spans_nest_per_thread_and_cost_nothing_when_off() {
        // The only test that touches the global recorder.
        drop(span("l", "off"));
        set_enabled(true);
        set_op(42);
        {
            let _outer = span("l", "outer");
            let _inner = span("l", "inner");
        }
        set_enabled(false);
        let (spans, _) = drain();
        assert!(spans.iter().all(|s| s.name != "off"));
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!((inner.op, outer.op), (42, 42));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
