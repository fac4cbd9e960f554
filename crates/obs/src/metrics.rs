//! Concurrency-safe metrics: counters, gauges, fixed-bucket histograms
//! and the registry that names them — the analogue of TensorFlow's
//! contrib metrics / monitoring layer, exposed in Prometheus text and
//! JSON formats.
//!
//! Handles returned by the registry are `Arc`s over atomics: updating a
//! metric is one relaxed atomic operation (a CAS loop for `f64`
//! accumulation), so instrumented hot paths pay near-zero cost. The
//! registry itself is only locked at registration and exposition time.

use crate::json;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonic `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    pub fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Add `v` to an `f64` stored as bits in an `AtomicU64` (CAS loop).
fn f64_add(bits: &AtomicU64, v: f64) {
    if v == 0.0 {
        return;
    }
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// An `f64` gauge (instantaneous level: queue depth, residency, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the level.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` (may be negative).
    pub fn add(&self, v: f64) {
        f64_add(&self.bits, v);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `f64` observations with quantile
/// estimates (linear interpolation inside the winning bucket).
#[derive(Debug)]
pub struct Histogram {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// Default histogram bounds for durations in seconds: exponential from
/// 1 µs to ~100 s — wide enough for both kernel charges and whole-run
/// residency times.
pub fn duration_buckets() -> Vec<f64> {
    (0..18).map(|i| 1e-6 * 2.7f64.powi(i)).collect()
}

impl Histogram {
    /// Histogram over ascending `bounds` (an `+Inf` overflow bucket is
    /// implicit).
    pub fn new(bounds: &[f64]) -> Histogram {
        let mut b = bounds.to_vec();
        b.sort_by(|x, y| x.partial_cmp(y).expect("finite histogram bounds"));
        let n = b.len() + 1;
        Histogram {
            bounds: b,
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        f64_add(&self.sum_bits, v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated quantile `q` in `[0, 1]`: walk the cumulative bucket
    /// counts and interpolate linearly inside the winning bucket.
    /// Observations beyond the last bound clamp to it. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        for (i, slot) in self.buckets.iter().enumerate() {
            let in_bucket = slot.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if (cum + in_bucket) as f64 >= rank {
                if i >= self.bounds.len() {
                    // Overflow bucket: clamp to the last finite bound.
                    return self.bounds.last().copied().unwrap_or(0.0);
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = (rank - cum as f64) / in_bucket as f64;
                return lo + (hi - lo) * frac;
            }
            cum += in_bucket;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Per-bucket cumulative counts paired with their upper bounds
    /// (`f64::INFINITY` last) — the Prometheus `_bucket` series.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, slot) in self.buckets.iter().enumerate() {
            cum += slot.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }
}

/// One registered metric handle.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A metric family: one kind, one series per label set.
struct Family {
    kind: &'static str,
    /// Keyed by the rendered label string (`{k="v",...}` or empty),
    /// sorted — exposition is deterministic.
    series: BTreeMap<String, Metric>,
}

/// The concurrency-safe metrics registry. Look-ups register on first
/// use and return shared handles; exposition snapshots everything in
/// sorted order.
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

/// Render a label set as `{k="v",...}` with keys sorted (empty string
/// for no labels).
fn label_string(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort();
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}={}", json::escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Format an `f64` for exposition (finite decimal; NaN/Inf map to 0 —
/// they would corrupt the text format).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let lbl = label_string(labels);
        {
            let fams = self.families.read();
            if let Some(f) = fams.get(name) {
                if let Some(m) = f.series.get(&lbl) {
                    return m.clone();
                }
            }
        }
        let mut fams = self.families.write();
        let candidate = make();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind: candidate.kind(),
            series: BTreeMap::new(),
        });
        if fam.kind != candidate.kind() {
            // Kind clash (programmer error): hand back a detached
            // metric rather than corrupting the exposition or
            // panicking inside instrumentation.
            return candidate;
        }
        fam.series.entry(lbl).or_insert(candidate).clone()
    }

    /// Counter handle for `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Counter handle for `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => Arc::new(Counter::new()),
        }
    }

    /// Gauge handle for `name` (no labels).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Gauge handle for `name` with `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Histogram handle for `name` with `labels` over `bounds` (the
    /// bounds of the first registration win).
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            _ => Arc::new(Histogram::new(bounds)),
        }
    }

    /// Prometheus text exposition: one `# TYPE` line per family, one
    /// sample line per series, all sorted — golden-testable output.
    pub fn to_prometheus(&self) -> String {
        let fams = self.families.read();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
            for (lbl, metric) in &fam.series {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{lbl} {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{lbl} {}", fmt_f64(g.get()));
                    }
                    Metric::Histogram(h) => {
                        for (bound, cum) in h.cumulative_buckets() {
                            let le = if bound.is_finite() {
                                fmt_f64(bound)
                            } else {
                                "+Inf".to_string()
                            };
                            let blbl = if lbl.is_empty() {
                                format!("{{le=\"{le}\"}}")
                            } else {
                                format!("{},le=\"{le}\"}}", &lbl[..lbl.len() - 1])
                            };
                            let _ = writeln!(out, "{name}_bucket{blbl} {cum}");
                        }
                        let _ = writeln!(out, "{name}_sum{lbl} {}", fmt_f64(h.sum()));
                        let _ = writeln!(out, "{name}_count{lbl} {}", h.count());
                    }
                }
            }
        }
        out
    }

    /// JSON exposition: an object keyed by family name, each family an
    /// object of `series label -> value` (histograms expose count, sum
    /// and p50/p95/p99/p999 estimates).
    pub fn to_json(&self) -> String {
        let fams = self.families.read();
        let mut out = String::from("{");
        for (fi, (name, fam)) in fams.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"type\":{}",
                json::escape(name),
                json::escape(fam.kind)
            );
            for (lbl, metric) in &fam.series {
                let key = if lbl.is_empty() {
                    "value"
                } else {
                    lbl.as_str()
                };
                match metric {
                    Metric::Counter(c) => {
                        let _ = write!(out, ",{}:{}", json::escape(key), c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = write!(out, ",{}:{}", json::escape(key), fmt_f64(g.get()));
                    }
                    Metric::Histogram(h) => {
                        let _ = write!(
                            out,
                            ",{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                            json::escape(key),
                            h.count(),
                            fmt_f64(h.sum()),
                            fmt_f64(h.quantile(0.50)),
                            fmt_f64(h.quantile(0.95)),
                            fmt_f64(h.quantile(0.99)),
                            fmt_f64(h.quantile(0.999)),
                        );
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every built-in instrumentation point
/// reports to. Exported by [`crate::sink`] when `TFHPC_METRICS` is set.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A counter in the [`global`] registry, named at compile time and
/// resolved on first use: a `static` handle for hot paths, which then
/// pay one relaxed atomic add instead of a by-name lookup per update.
/// The family still registers lazily, so a counter never touched never
/// appears in the exposition.
pub struct LazyCounter {
    name: &'static str,
    handle: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Handle for the unlabelled counter `name`.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            handle: OnceLock::new(),
        }
    }

    /// Add `v`.
    pub fn add(&self, v: u64) {
        self.handle
            .get_or_init(|| global().counter(self.name))
            .add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_counter_shares_the_registry_series() {
        static C: LazyCounter = LazyCounter::new("tfhpc_test_lazy_counter_total");
        assert!(!global()
            .to_prometheus()
            .contains("tfhpc_test_lazy_counter_total"));
        C.add(2);
        C.add(3);
        assert_eq!(global().counter("tfhpc_test_lazy_counter_total").get(), 5);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("reqs_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name -> same handle.
        assert_eq!(r.counter("reqs_total").get(), 5);
        let g = r.gauge_with("depth", &[("queue", "q0")]);
        g.set(3.0);
        g.add(-1.0);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0] {
            h.observe(v);
        }
        h.observe(100.0); // overflow bucket
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.5).abs() < 1e-12);
        // Median falls inside the (1, 2] bucket.
        let p50 = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "p50={p50}");
        // Overflow clamps to the last finite bound.
        assert_eq!(h.quantile(1.0), 4.0);
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0);
    }

    #[test]
    fn kind_clash_returns_detached_handle() {
        let r = Registry::new();
        r.counter("m");
        let g = r.gauge("m"); // wrong kind: detached, registry unharmed
        g.set(9.0);
        assert!(r.to_prometheus().contains("# TYPE m counter"));
        assert!(!r.to_prometheus().contains('9'));
    }

    #[test]
    fn prometheus_exposition_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter_with("b_total", &[("op", "MatMul")]).add(2);
        r.counter_with("b_total", &[("op", "Add")]).add(1);
        r.gauge("a_depth").set(1.5);
        let text = r.to_prometheus();
        let a = text.find("# TYPE a_depth gauge").unwrap();
        let b = text.find("# TYPE b_total counter").unwrap();
        assert!(a < b, "families sorted by name:\n{text}");
        let add = text.find("b_total{op=\"Add\"} 1").unwrap();
        let mm = text.find("b_total{op=\"MatMul\"} 2").unwrap();
        assert!(add < mm, "series sorted by label:\n{text}");
    }

    #[test]
    fn histogram_prometheus_series() {
        let r = Registry::new();
        let h = r.histogram_with("lat_seconds", &[("q", "in")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.to_prometheus();
        assert!(
            text.contains("lat_seconds_bucket{q=\"in\",le=\"0.1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{q=\"in\",le=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{q=\"in\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_count{q=\"in\"} 3"), "{text}");
    }

    #[test]
    fn json_exposition_parses() {
        let r = Registry::new();
        r.counter("c_total").add(7);
        r.histogram_with("h_seconds", &[], &[1.0]).observe(0.5);
        let v = json::parse(&r.to_json()).expect("valid JSON");
        let c = v.get("c_total").and_then(|f| f.get("value")).unwrap();
        assert_eq!(c.as_f64(), Some(7.0));
    }

    #[test]
    fn concurrent_hammering_loses_nothing() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("hammer_total");
                    let h = r.histogram_with("hammer_seconds", &[], &duration_buckets());
                    for i in 0..10_000 {
                        c.inc();
                        h.observe(1e-6 * (i % 100) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("hammer_total").get(), 80_000);
        assert_eq!(
            r.histogram_with("hammer_seconds", &[], &duration_buckets())
                .count(),
            80_000
        );
    }
}
