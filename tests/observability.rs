//! Observability integration: the subsystem must be invisible to the
//! numerics (byte-identical solver results and per-run stats whether or
//! not sinks/tracing are enabled) while exposing a parseable Prometheus
//! snapshot and a Chrome trace covering queue depths, link bytes and
//! retry counters.

use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::Arc;
use tfhpc_apps::cg::{run_cg, run_cg_traced, CgConfig, CgReduction};
use tfhpc_core::{Graph, SessionOptions};
use tfhpc_dist::{launch, JobSpec, LaunchConfig, TaskKey};
use tfhpc_obs::json::{self, JsonValue};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};
use tfhpc_tensor::Tensor;

/// An app run drains the process-wide tracer when it finishes, so run
/// concurrently one test's run would take another's traced spans.
static APP_RUNS: Mutex<()> = Mutex::new(());

fn cg_cfg() -> CgConfig {
    CgConfig {
        n: 2048,
        workers: 2,
        iterations: 5,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    }
}

#[test]
fn cg_results_identical_with_and_without_observability() {
    let _serial = APP_RUNS.lock();
    let cfg = cg_cfg();
    let plain = run_cg(&tegner_k80(), &cfg).expect("plain run");
    let (traced, json) = run_cg_traced(&tegner_k80(), &cfg).expect("traced run");
    // Observability on (DES tracing + global tracer recording every
    // span, flow and queue counter) must not move a single bit of the
    // solver's outputs or its virtual timing.
    assert_eq!(plain.rs_final.to_bits(), traced.rs_final.to_bits());
    assert_eq!(plain.elapsed_s.to_bits(), traced.elapsed_s.to_bits());
    assert_eq!(plain.gflops.to_bits(), traced.gflops.to_bits());
    assert!(!json.is_empty());
}

#[test]
fn traced_cg_trace_parses_with_spans_flows_and_queue_depths() {
    let _serial = APP_RUNS.lock();
    let (_report, json) = run_cg_traced(&tegner_k80(), &cg_cfg()).expect("traced run");
    let doc = json::parse(&json).expect("trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let name = |e: &JsonValue| e.get("name").and_then(JsonValue::as_str).map(String::from);
    let ph = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).map(String::from);
    // Nested iteration/phase spans from the structured tracer.
    assert!(
        events
            .iter()
            .any(|e| name(e).as_deref() == Some("cg.iteration") && ph(e).as_deref() == Some("X")),
        "no cg.iteration span in the merged trace"
    );
    assert!(events
        .iter()
        .any(|e| name(e).as_deref() == Some("cg.reduce.pap")));
    // Queue depth counter samples.
    assert!(
        events.iter().any(|e| ph(e).as_deref() == Some("C")
            && name(e).is_some_and(|n| n.starts_with("queue.") && n.ends_with(".depth"))),
        "no queue depth counter events"
    );
    // Queue flow events stitching enqueue→dequeue across tasks.
    let starts = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("s"))
        .count();
    let ends = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("f"))
        .count();
    assert!(
        starts > 0 && ends > 0,
        "flow events missing: {starts} s / {ends} f"
    );
    // DES occupancy rows are merged into the same document.
    assert!(
        events
            .iter()
            .any(|e| e.get("tid").and_then(JsonValue::as_str) == Some("/job:reducer/task:0")),
        "DES task rows missing from the merged trace"
    );
}

#[test]
fn prometheus_snapshot_covers_queues_links_and_retries() {
    let _serial = APP_RUNS.lock();
    run_cg(&tegner_k80(), &cg_cfg()).expect("sim run");
    let text = tfhpc_obs::global().to_prometheus();
    for needle in [
        "# TYPE tfhpc_queue_enqueued_total counter",
        "# TYPE tfhpc_queue_depth gauge",
        "# TYPE tfhpc_queue_residency_seconds histogram",
        "tfhpc_queue_residency_seconds_bucket",
        "tfhpc_link_bytes_total{protocol=\"RDMA\"}",
        "tfhpc_link_messages_total{protocol=\"RDMA\"}",
        "tfhpc_retries_total",
        "tfhpc_ops_executed_total",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // And the JSON exposition of the same registry parses.
    let doc = json::parse(&tfhpc_obs::global().to_json()).expect("metrics JSON parses");
    assert!(doc.get("tfhpc_ops_executed_total").is_some());
}

/// One simulated run of a two-job pipeline whose sink drives a session
/// with per-run `StepStats`; returns the concatenated Debug rendering
/// of every run's stats (ops, queues, links, retries — including f64
/// device times and residencies).
fn step_stats_fingerprint() -> String {
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("sink", 1, 0), JobSpec::new("source", 2, 1)],
        Protocol::Rdma,
    );
    let out = Arc::new(Mutex::new(String::new()));
    let out2 = Arc::clone(&out);
    launch(&cfg, move |ctx| {
        if ctx.job() == "sink" {
            ctx.server.resources.create_queue("data", 4);
            let mut g = Graph::new();
            let deq = g.queue_dequeue("data", 1);
            let n = g.neg(deq[0]);
            let sess = ctx
                .server
                .session_with_options(Arc::new(g), SessionOptions::from_env().unwrap());
            let mut all = String::new();
            for _ in 0..4 {
                let (_, md) = sess.run_with_metadata(&[n], &[])?;
                let _ = writeln!(all, "{:?}", md.step_stats);
            }
            *out2.lock() = all;
            Ok(())
        } else {
            for k in 0..2u64 {
                let t = Tensor::synthetic(
                    tfhpc_tensor::DType::F64,
                    [1 << 16],
                    (ctx.index() as u64) << 8 | k,
                );
                ctx.server
                    .remote_enqueue(&TaskKey::new("sink", 0), "data", vec![t], Some(0))?;
            }
            Ok(())
        }
    })
    .expect("launch");
    let s = out.lock().clone();
    assert!(!s.is_empty());
    s
}

#[test]
fn sim_step_stats_are_byte_deterministic_across_identical_runs() {
    let a = step_stats_fingerprint();
    let b = step_stats_fingerprint();
    assert_eq!(a, b, "StepStats diverged between identical sim runs");
    // The fingerprint actually covers the interesting fields.
    assert!(a.contains("OpStat"), "{a}");
    assert!(a.contains("QueueStat"), "{a}");
    assert!(a.contains("LinkStat"), "{a}");
}
