//! Fig. 3 — "Execution TensorFlow Timeline of a particular stage of our
//! CG solver. The individual time lines of a device show parallel
//! execution." This harness runs a short simulated CG stage with DES
//! occupancy tracing and writes a Chrome trace (`chrome://tracing` /
//! Perfetto) with one row per task and hardware resource — now merged
//! with the structured tracer's nested iteration/phase spans and queue
//! flow events — plus a textual per-track summary parsed from the
//! exported JSON.

use super::cg_cfg;
use std::collections::BTreeMap;
use tfhpc_apps::cg::{run_cg_traced, CgReduction};
use tfhpc_obs::json::{self, JsonValue};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::tegner_k80;

pub fn run() {
    let cfg = cg_cfg(16384, 4, 20, Protocol::Rdma, CgReduction::QueuePair);
    let (report, json) = run_cg_traced(&tegner_k80(), &cfg).expect("traced CG run");

    let path = std::path::Path::new("results").join("fig3_cg_timeline.json");
    std::fs::create_dir_all("results").ok();
    std::fs::write(&path, &json).expect("write trace");

    println!("== Fig. 3: CG solver execution timeline (simulated Tegner K80) ==");
    println!(
        "20 iterations / 4 workers: {:.3} virtual s, {:.1} Gflop/s",
        report.elapsed_s, report.gflops
    );
    println!(
        "Chrome trace written to {} ({} bytes)",
        path.display(),
        json.len()
    );

    // Per-track summary parsed from the trace document (tid = track,
    // ts/dur in us; flow and counter events count as 0-duration marks).
    // A track's busy time is the union of its span intervals: the
    // tracer's phase spans nest inside iteration spans, which nest
    // inside the DES occupancy spans, so a plain sum counts the same
    // instant several times.
    let doc = json::parse(&json).expect("trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let mut tracks: BTreeMap<String, (usize, Vec<(f64, f64)>)> = BTreeMap::new();
    let mut spans = 0usize;
    let mut flows = 0usize;
    let mut dropped = 0.0f64;
    for ev in events {
        if ev.get("name").and_then(JsonValue::as_str) == Some("trace_events_dropped") {
            dropped = ev
                .get("args")
                .and_then(|a| a.get("count"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            continue;
        }
        match ev.get("ph").and_then(JsonValue::as_str) {
            Some("X") => spans += 1,
            Some("s" | "f") => flows += 1,
            _ => {}
        }
        let tid = ev.get("tid").and_then(JsonValue::as_str).unwrap_or("?");
        let ts = ev.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let dur = ev.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let e = tracks.entry(tid.to_string()).or_default();
        e.0 += 1;
        if dur > 0.0 {
            e.1.push((ts, ts + dur));
        }
    }
    println!(
        "\n{:<28} {:>8} {:>12}",
        "timeline row", "events", "busy [s]"
    );
    println!("{}", "-".repeat(52));
    for (track, (events, intervals)) in &mut tracks {
        let busy = union_len(intervals) / 1e6;
        assert!(
            busy <= report.elapsed_s,
            "{track} busy {busy} s in a {} s run",
            report.elapsed_s
        );
        println!("{track:<28} {events:>8} {busy:>12.3}");
    }
    println!("\n{spans} spans, {flows} flow events, {dropped} dropped at the cap");
    println!("\n(the per-device rows show the workers' GPU streams executing in");
    println!(" parallel while the reducer's host serializes the queue rounds —");
    println!(" the nested cg.iteration/phase spans and the rendezvous flow");
    println!(" arrows reproduce the structure of the paper's Fig. 3)");
}

/// Total length covered by `intervals` (`[start, end)` pairs), each
/// instant counted once.
fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for &(start, end) in intervals.iter() {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            _ => {
                if let Some((s, e)) = open {
                    total += e - s;
                }
                open = Some((start, end));
            }
        }
    }
    total + open.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::union_len;

    #[test]
    fn nested_and_overlapping_spans_count_once() {
        let mut spans = [
            (0.0, 10.0),
            (2.0, 3.0),
            (8.0, 12.0),
            (20.0, 25.0),
            (21.0, 22.0),
        ];
        assert_eq!(union_len(&mut spans), 17.0);
        assert_eq!(union_len(&mut []), 0.0);
    }
}
