//! The measurement protocol every workload and layer probe goes
//! through: pin the process to one CPU, cut the timed window into
//! slices bracketed by a fixed spin probe, drop slices whose probes
//! disagree, and scale the rest to a reference CPU speed.
//!
//! Why: the sandbox host flips between two CPU speeds every few
//! seconds (the same integer spin takes 1.27x longer on the slow one,
//! and so does every workload), and a thread hand-off costs ~36 us
//! across vCPUs against ~5 us on one. Raw medians of identical runs
//! differed by 25-35 %; pinned and probe-normalised they agree within
//! a few percent. See README.md.

use std::time::Instant;

/// Iterations of the spin one probe runs (~2.2 ms on the sandbox).
pub const PROBE_ITERS: u64 = 1_500_000;
/// The probe duration every sample is scaled to: the sandbox's fast
/// state. A constant, not a measurement, so numbers from different
/// runs, seeds and commits share one scale on one host.
pub const PROBE_REF_MS: f64 = 2.18;
/// Two probes bracketing a slice must agree within this share for the
/// slice to count: a larger gap means the CPU changed speed (or the
/// process was descheduled) somewhere inside it.
pub const PROBE_TOLERANCE: f64 = 0.03;
/// Below this share of valid slices a run is reported as unresolved.
pub const MIN_VALID_RATIO: f64 = 0.3;
/// Set-ups per run: at least 7, and up to 41 while the first ones
/// took under a quarter of a second together (a session set-up is
/// half a millisecond; its median needs the extra samples).
pub const SETUP_MIN_REPS: usize = 7;
pub const SETUP_MAX_REPS: usize = 41;
pub const SETUP_BUDGET_S: f64 = 0.25;
/// A window reports from this share of its valid slices, the ones
/// whose probes were nearest the reference speed, where scaling is
/// exact (the slow state slows a matmul 1.34x and the probe 1.265x) —
/// but from no fewer than `USED_MIN_SLICES`.
pub const USED_SHARE: f64 = 0.25;
pub const USED_MIN_SLICES: usize = 5;
/// A slice with at least this many samples has a tail of its own.
pub const MIN_SLICE_SAMPLES: usize = 100;

#[cfg(target_os = "linux")]
mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    const WORDS: usize = 16; // 1024 CPUs

    /// Pin the calling thread (and every thread it later spawns) to
    /// the highest-numbered CPU it is allowed on.
    pub fn pin() -> Option<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // byte length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the byte length
        // passed, read only by the call.
        let rc = unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin() -> Option<usize> {
        None
    }
}

/// Pin the process to one allowed CPU. Must run before any tfhpc call
/// so `tfhpc_parallel::global_pool()` sizes itself to one worker and
/// every thread hand-off stays on that CPU. Returns the CPU, or `None`
/// where pinning is unsupported or refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    affinity::pin()
}

/// One speed probe: a fixed serial integer spin, in milliseconds.
/// An LCG step followed by an xor-shift: the shift keeps the compiler
/// from folding consecutive affine steps into one, so every iteration
/// really waits for the one before.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..PROBE_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Whether two bracketing probes agree closely enough.
pub fn probes_agree(a_ms: f64, b_ms: f64) -> bool {
    (a_ms - b_ms).abs() <= PROBE_TOLERANCE * a_ms.min(b_ms)
}

/// Factor that scales a duration measured between probes `a` and `b`
/// to the reference speed.
pub fn scale(a_ms: f64, b_ms: f64) -> f64 {
    PROBE_REF_MS / (0.5 * (a_ms + b_ms))
}

/// What one slice body reports back.
#[derive(Default)]
pub struct SliceRec {
    /// Raw per-op latencies, microseconds.
    pub samples_us: Vec<f64>,
    /// Raw seconds the ops took (the timed loop, without set-up).
    pub busy_s: f64,
    /// Ops attempted, including failed ones.
    pub attempted: u64,
    /// Ops that failed, were refused, or failed their output check.
    pub failed: u64,
    /// Raw microsecond samples of named parts of an op (stream id,
    /// value), normalised with their slice like the op samples.
    pub parts_us: Vec<(usize, f64)>,
}

impl SliceRec {
    /// Time one call of `op` as one op of this slice.
    pub fn time_one<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = op();
        let took = t.elapsed().as_secs_f64();
        self.samples_us.push(took * 1e6);
        self.busy_s += took;
        self.attempted += 1;
        out
    }

    /// Run `op` repeatedly for about `target_ms`, timing each call.
    /// `op` returns whether its output check passed.
    pub fn time_ops(&mut self, target_ms: f64, mut op: impl FnMut() -> bool) {
        let start = Instant::now();
        let mut last = start;
        loop {
            let ok = op();
            let now = Instant::now();
            self.samples_us
                .push(now.duration_since(last).as_secs_f64() * 1e6);
            self.attempted += 1;
            self.failed += u64::from(!ok);
            last = now;
            if now.duration_since(start).as_secs_f64() * 1e3 >= target_ms {
                break;
            }
        }
        self.busy_s += last.duration_since(start).as_secs_f64();
    }
}

/// A finished slice with its bracketing probes.
pub struct Slice {
    pub rec: SliceRec,
    pub probe_before_ms: f64,
    pub probe_after_ms: f64,
}

impl Slice {
    pub fn valid(&self) -> bool {
        probes_agree(self.probe_before_ms, self.probe_after_ms)
    }

    fn scale(&self) -> f64 {
        scale(self.probe_before_ms, self.probe_after_ms)
    }

    /// Both probes ran at the reference speed.
    fn at_reference(&self) -> bool {
        probes_agree(self.probe_before_ms, PROBE_REF_MS)
            && probes_agree(self.probe_after_ms, PROBE_REF_MS)
    }
}

/// The `USED_SHARE` of `valid` whose probes were nearest the
/// reference speed.
fn nearest_reference(mut valid: Vec<&Slice>) -> Vec<&Slice> {
    let off = |s: &Slice| (0.5 * (s.probe_before_ms + s.probe_after_ms) - PROBE_REF_MS).abs();
    valid.sort_by(|a, b| off(a).total_cmp(&off(b)));
    let keep = ((valid.len() as f64 * USED_SHARE).ceil() as usize).max(USED_MIN_SLICES);
    valid.truncate(keep);
    valid
}

/// Turns the used slices into the three timing metrics.
///
/// Each metric is the quiet quartile over slices of the slice's own
/// value: the first quartile of the slice medians, of the slice tails,
/// and of the slice times per op. The host only ever adds time, in
/// bursts that hit some slices and spare others, while what the code
/// costs is in every slice. Pooled over the window, a p99 of
/// `session-matmul` moved 25 % between identical runs, and the median
/// of `dist-reduce` 33 % between runs whose quiet quartiles agreed
/// within 2 %. A slice of fewer than `MIN_SLICE_SAMPLES` ops
/// (`sim-serve`: one) has no tail of its own; there the tail is the
/// pooled `tail_pct` percentile of the used slices' samples.
#[derive(Default)]
struct Estimator {
    /// Per slice: [median, tail, microseconds per successful op].
    per_slice: [Vec<f64>; 3],
    all_long: bool,
    pooled: Vec<f64>,
}

impl Estimator {
    fn add(&mut self, sorted_us: &[f64], tail_pct: f64, busy_s: f64, ops: u64, k: f64) {
        self.all_long =
            (self.all_long || self.pooled.is_empty()) && sorted_us.len() >= MIN_SLICE_SAMPLES;
        let own = [
            quantile(sorted_us, 50.0),
            quantile(sorted_us, tail_pct),
            busy_s * 1e6 / ops as f64,
        ];
        for (column, value) in self.per_slice.iter_mut().zip(own) {
            column.push(value * k);
        }
        self.pooled.extend(sorted_us.iter().map(|v| v * k));
    }

    /// (median us, tail us, ops per second).
    fn finish(mut self, tail_pct: f64) -> (f64, f64, f64) {
        let [p50, slice_tail, us_per_op] = self.per_slice.map(|mut column| {
            column.sort_by(f64::total_cmp);
            quantile(&column, 25.0)
        });
        let tail = if self.all_long {
            slice_tail
        } else {
            self.pooled.sort_by(f64::total_cmp);
            quantile(&self.pooled, tail_pct)
        };
        (p50, tail, 1e6 / us_per_op)
    }
}

/// Which slices of a window count.
struct Selection<'a> {
    /// The slices `keep` let through.
    picked: Vec<&'a Slice>,
    /// The ones the metrics come from.
    used: Vec<&'a Slice>,
    valid_ratio: f64,
    resolved: bool,
}

/// The slices of one timed window.
pub struct Window {
    pub slices: Vec<Slice>,
}

impl Window {
    /// Run slice bodies for `seconds`, a probe between each two. With
    /// `trace`, odd slices run traced and even ones untraced, so the
    /// tracing overhead is read off one window.
    pub fn measure(seconds: f64, trace: bool, mut body: impl FnMut(&mut SliceRec)) -> Window {
        let start = Instant::now();
        let mut slices = Vec::new();
        let mut before = probe_ms();
        loop {
            let mut rec = SliceRec::default();
            crate::trace::set_enabled(trace && slices.len() % 2 == 1);
            body(&mut rec);
            crate::trace::set_enabled(false);
            let after = probe_ms();
            slices.push(Slice {
                rec,
                probe_before_ms: before,
                probe_after_ms: after,
            });
            before = after;
            if start.elapsed().as_secs_f64() >= seconds {
                return Window { slices };
            }
        }
    }

    /// The slices the metrics come from, among those `keep` selects
    /// by index: of the valid ones, the quarter nearest the reference
    /// speed, where scaling is exact — all at the reference speed on a
    /// quiet host, the least slowed on a busy one. An unresolved
    /// window still reports (from every slice), flagged, so a reader
    /// sees how far off the host was.
    fn select(&self, keep: impl Fn(usize) -> bool) -> Selection<'_> {
        let picked: Vec<&Slice> = self
            .slices
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, s)| s)
            .collect();
        let valid: Vec<&Slice> = picked.iter().copied().filter(|s| s.valid()).collect();
        let valid_ratio = valid.len() as f64 / picked.len().max(1) as f64;
        let resolved = valid_ratio >= MIN_VALID_RATIO;
        let used = if resolved {
            nearest_reference(valid)
        } else {
            picked.clone()
        };
        Selection {
            picked,
            used,
            valid_ratio,
            resolved,
        }
    }

    /// Normalised median op latency over the whole window, us.
    pub fn p50_us(&self) -> f64 {
        self.stats(50.0, |_| true).p50_us
    }

    /// Normalised median of part-stream `stream`, us.
    pub fn part_p50_us(&self, stream: usize) -> f64 {
        let values = self
            .select(|_| true)
            .used
            .iter()
            .flat_map(|s| {
                let k = s.scale();
                s.rec
                    .parts_us
                    .iter()
                    .filter(move |(id, _)| *id == stream)
                    .map(move |(_, v)| v * k)
            })
            .collect();
        median(values)
    }

    /// Metrics over the slices `keep` selects by index.
    pub fn stats(&self, tail_pct: f64, keep: impl Fn(usize) -> bool) -> Stats {
        let Selection {
            picked,
            used,
            valid_ratio,
            resolved,
        } = self.select(keep);
        let ref_slices = used.iter().filter(|s| s.at_reference()).count() as u64;
        // Per slice: median, tail, and microseconds per successful op;
        // beside them every sample pooled. First scaled, then raw.
        let mut scaled = Estimator::default();
        let mut raw = Estimator::default();
        for s in &used {
            let mut own = s.rec.samples_us.clone();
            own.sort_by(f64::total_cmp);
            let ops = s.rec.attempted - s.rec.failed;
            raw.add(&own, tail_pct, s.rec.busy_s, ops, 1.0);
            scaled.add(&own, tail_pct, s.rec.busy_s, ops, s.scale());
        }
        let samples = scaled.pooled.len() as u64;
        let (p50_us, tail_us, ops_per_s) = scaled.finish(tail_pct);
        let (raw_p50_us, raw_tail_us, raw_ops_per_s) = raw.finish(tail_pct);
        let mut probes: Vec<f64> = picked.iter().map(|s| s.probe_before_ms).collect();
        probes.sort_by(f64::total_cmp);
        Stats {
            p50_us,
            tail_us,
            ops_per_s,
            raw_p50_us,
            raw_tail_us,
            raw_ops_per_s,
            samples,
            attempted: picked.iter().map(|s| s.rec.attempted).sum(),
            failed: picked.iter().map(|s| s.rec.failed).sum(),
            slices: picked.len() as u64,
            used_slices: used.len() as u64,
            ref_slices,
            valid_ratio,
            resolved,
            probe_p50_ms: quantile(&probes, 50.0),
        }
    }
}

/// What a window measured: normalised values are the metrics, raw
/// values sit beside them.
#[derive(Clone, Debug)]
pub struct Stats {
    pub p50_us: f64,
    pub tail_us: f64,
    pub ops_per_s: f64,
    pub raw_p50_us: f64,
    pub raw_tail_us: f64,
    pub raw_ops_per_s: f64,
    /// Latency samples behind the quantiles.
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    pub slices: u64,
    /// Slices the metrics come from, and how many of those ran at the
    /// reference speed itself.
    pub used_slices: u64,
    pub ref_slices: u64,
    pub valid_ratio: f64,
    pub resolved: bool,
    pub probe_p50_ms: f64,
}

/// Nearest-rank quantile of an ascending slice; NaN when empty.
pub fn quantile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted list.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 50.0)
}

/// Set-up time: run `setup` repeatedly, each run bracketed by probes,
/// and return the median (normalised seconds, raw seconds) plus the
/// last state built. At least `SETUP_MIN_REPS` repetitions, more
/// while they are cheap; repetitions whose probes disagree are left
/// out unless none agree.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (f64, f64, T) {
    let mut all = Vec::new();
    let mut state = None;
    let started = Instant::now();
    let mut before = probe_ms();
    while all.len() < SETUP_MIN_REPS
        || (all.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        let raw = t.elapsed().as_secs_f64();
        let after = probe_ms();
        all.push((probes_agree(before, after), raw * scale(before, after), raw));
        before = after;
    }
    let any_valid = all.iter().any(|r| r.0);
    let kept: Vec<_> = all.iter().filter(|r| r.0 || !any_valid).collect();
    (
        median(kept.iter().map(|r| r.1).collect()),
        median(kept.iter().map(|r| r.2).collect()),
        state.expect("at least one repetition"),
    )
}

/// Normalised median cost of one call of `op`, nanoseconds, measured
/// for `seconds` in probe-bracketed slices of batches of `batch`
/// calls — the form every per-layer micro-probe takes.
pub fn micro_ns(seconds: f64, batch: usize, op: impl FnMut()) -> f64 {
    micro_ns_reset(seconds, batch, op, || {})
}

/// [`micro_ns`] with an untimed `reset` between batches.
pub fn micro_ns_reset(
    seconds: f64,
    batch: usize,
    mut op: impl FnMut(),
    mut reset: impl FnMut(),
) -> f64 {
    let w = Window::measure(seconds, false, |rec| {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            let took = t.elapsed().as_secs_f64();
            rec.samples_us.push(took * 1e6 / batch as f64);
            rec.attempted += 1;
            rec.busy_s += took;
            reset();
            if start.elapsed().as_secs_f64() >= 0.02 {
                break;
            }
        }
    });
    w.p50_us() * 1e3
}

/// `(utime, stime)` of this process in clock ticks, from
/// `/proc/self/stat`; `None` off Linux.
pub fn cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may itself
    // contain spaces.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some((fields.get(11)?.parse().ok()?, fields.get(12)?.parse().ok()?))
}

/// Byte-stable JSON object writer: keys in insertion order, numbers
/// through `tfhpc_obs::json::number`.
#[derive(Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    pub fn raw(mut self, key: &str, json: &str) -> JsonObj {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&tfhpc_obs::json::escape(key));
        self.body.push_str(": ");
        self.body.push_str(json);
        self
    }

    pub fn num(self, key: &str, v: f64) -> JsonObj {
        self.raw(key, &tfhpc_obs::json::number(v))
    }

    pub fn int(self, key: &str, v: u64) -> JsonObj {
        self.raw(key, &v.to_string())
    }

    pub fn boolean(self, key: &str, v: bool) -> JsonObj {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn string(self, key: &str, v: &str) -> JsonObj {
        self.raw(key, &tfhpc_obs::json::escape(v))
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// The `--selftest` protocol check: a synthetic fixed-work op measured
/// twice must agree within 3 % normalised, and a slice whose probes
/// disagree must be dropped. Returns the failures.
pub fn selftest() -> Vec<String> {
    let mut failures = Vec::new();
    let work = || {
        let mut x = std::hint::black_box(1u64);
        for _ in 0..40_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        std::hint::black_box(x);
        true
    };
    let run = || {
        Window::measure(1.5, false, |rec| rec.time_ops(50.0, work))
            .stats(99.0, |_| true)
            .p50_us
    };
    let (a, b) = (run(), run());
    let gap = (a - b).abs() / a.min(b);
    eprintln!(
        "selftest: fixed-work op {a:.3} us then {b:.3} us normalised ({:.2} % apart)",
        gap * 100.0
    );
    if gap > 0.03 {
        failures.push(format!(
            "two runs of a fixed-work op differ by {:.2} %",
            gap * 100.0
        ));
    }

    let mut w = Window::measure(0.3, false, |rec| rec.time_ops(50.0, work));
    let n = w.slices.len();
    w.slices[0].probe_after_ms *= 1.0 + 2.0 * PROBE_TOLERANCE;
    let s = w.stats(99.0, |_| true);
    let expect = (n - 1) as f64 / n as f64;
    let dropped = w.slices[0].rec.samples_us.len() as u64;
    let valid_elsewhere = w.slices[1..].iter().all(Slice::valid);
    eprintln!(
        "selftest: {n} slices, one forged: valid ratio {:.3}, {} of {} samples kept",
        s.valid_ratio,
        s.samples,
        s.samples + dropped
    );
    if valid_elsewhere && (s.valid_ratio - expect).abs() > 1e-9 {
        failures.push("a slice with disagreeing probes was not dropped".into());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: f64 = PROBE_REF_MS;
    const SLOW: f64 = PROBE_REF_MS * 1.24;

    fn slice(before: f64, after: f64, samples: &[f64]) -> Slice {
        Slice {
            rec: SliceRec {
                samples_us: samples.to_vec(),
                busy_s: samples.iter().sum::<f64>() * 1e-6,
                attempted: samples.len() as u64,
                ..SliceRec::default()
            },
            probe_before_ms: before,
            probe_after_ms: after,
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 50.0), 5.0);
        assert_eq!(quantile(&v, 90.0), 9.0);
        assert_eq!(quantile(&v, 99.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 50.0).is_nan());
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn probes_within_three_percent_agree() {
        assert!(probes_agree(2.50, 2.57));
        assert!(!probes_agree(2.50, 2.60));
        assert!(!probes_agree(3.10, 2.44));
    }

    #[test]
    fn slow_slices_scale_to_the_reference_and_bad_ones_drop() {
        // The same work seen at reference speed and 1.24x slower, and a
        // slice that straddles a speed change.
        let w = Window {
            slices: vec![
                slice(FAST, FAST, &[10.0, 10.0]),
                slice(SLOW, SLOW, &[12.4, 12.4]),
                slice(FAST, SLOW, &[99.0]),
            ],
        };
        let s = w.stats(99.0, |_| true);
        assert!((s.p50_us - 10.0).abs() < 1e-9, "{}", s.p50_us);
        assert!((s.tail_us - 10.0).abs() < 1e-9);
        assert_eq!(s.samples, 4);
        assert!((s.valid_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.resolved);
        assert!((s.raw_tail_us - 12.4).abs() < 1e-9);
        assert!((s.ops_per_s - 1e5).abs() < 1e-3, "{}", s.ops_per_s);
    }

    #[test]
    fn the_quarter_of_valid_slices_nearest_the_reference_is_used() {
        // At the reference speed the op takes 10; the slow state slows
        // it more than the probe, so its scaled samples read high.
        let mut slices: Vec<Slice> = (0..30).map(|_| slice(SLOW, SLOW, &[13.0])).collect();
        slices.extend((0..10).map(|_| slice(FAST, FAST, &[10.0])));
        let mut w = Window { slices };
        let s = w.stats(90.0, |_| true);
        assert_eq!((s.used_slices, s.ref_slices), (10, 10));
        assert_eq!((s.p50_us, s.samples), (10.0, 10));
        // With no slice at the reference speed, the least slowed count.
        w.slices.truncate(30);
        w.slices[7] = slice(SLOW * 0.9, SLOW * 0.9, &[11.7]);
        let s = w.stats(90.0, |_| true);
        assert_eq!((s.used_slices, s.ref_slices), (8, 0));
        assert!((quantile(&[s.p50_us], 50.0) - 13.0 / 1.24).abs() < 1e-9);
        assert!((s.raw_ops_per_s - 1e6 / 13.0).abs() < 1e-3);
        // Never fewer than USED_MIN_SLICES while that many are valid.
        w.slices.truncate(6);
        assert_eq!(w.stats(90.0, |_| true).used_slices, USED_MIN_SLICES as u64);
    }

    #[test]
    fn long_slices_report_the_quiet_quartile_of_their_own_statistics() {
        let long = |tail: f64| {
            let mut v = vec![10.0; MIN_SLICE_SAMPLES];
            v[0] = tail; // the one sample beyond p99
            slice(FAST, FAST, &v)
        };
        let w = Window {
            slices: vec![long(4000.0), long(20.0), long(30.0), long(40.0)],
        };
        let s = w.stats(99.5, |_| true);
        assert_eq!(s.tail_us, 20.0);
        // So are the median and the rate: one disturbed slice in four
        // moves neither.
        assert_eq!(s.p50_us, 10.0);
        assert!((s.ops_per_s - 1e6 / 10.1).abs() < 1e-6, "{}", s.ops_per_s);
        // Short slices have no tail of their own: pooled.
        let w = Window {
            slices: vec![
                slice(FAST, FAST, &[1.0]),
                slice(FAST, FAST, &[2.0]),
                slice(FAST, FAST, &[9.0]),
            ],
        };
        assert_eq!(w.stats(80.0, |_| true).tail_us, 9.0);
    }

    #[test]
    fn setup_median_runs_cheap_setups_many_times_and_keeps_the_last_state() {
        let mut runs = 0;
        let (norm_s, raw_s, last) = setup_median(|| {
            runs += 1;
            runs
        });
        assert!((SETUP_MIN_REPS..=SETUP_MAX_REPS).contains(&runs));
        assert_eq!(last, runs);
        assert!(norm_s >= 0.0 && raw_s >= 0.0);
    }

    #[test]
    fn mostly_invalid_windows_are_unresolved_but_still_report() {
        let w = Window {
            slices: vec![
                slice(FAST, SLOW, &[10.0]),
                slice(SLOW, FAST, &[10.0]),
                slice(FAST, SLOW, &[10.0]),
                slice(SLOW, SLOW, &[12.4]),
            ],
        };
        let s = w.stats(99.0, |_| true);
        assert!(!s.resolved);
        assert_eq!(s.samples, 4);
    }

    #[test]
    fn json_objects_keep_insertion_order() {
        let j = JsonObj::new()
            .string("b", "x\"y")
            .num("a", 1.5)
            .int("n", 3)
            .boolean("ok", true)
            .finish();
        assert_eq!(j, r#"{"b": "x\"y", "a": 1.5, "n": 3, "ok": true}"#);
        assert!(tfhpc_obs::json::parse(&j).is_ok());
    }

    #[test]
    fn cpu_ticks_parse_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_ticks().is_some());
        }
    }
}
