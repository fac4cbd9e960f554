//! Chaos-matrix recovery suite: each supervised app (STREAM, matmul,
//! CG, FFT) runs under a seeded corruption schedule merged with a
//! mid-run node crash, and must reproduce its fault-free output bit
//! for bit while surfacing the detections in the metrics exposition.
//!
//! Knobs (the CI chaos matrix sweeps the seed):
//!   `TFHPC_FAULT_SEED`    — corruption-schedule seed (default 42).
//!   `TFHPC_FAULT_CORRUPT` — `0` drops the seeded corruption windows
//!                           (crash-only baseline); any other value or
//!                           unset keeps them (default on).
//!
//! Every plan also carries one deterministic link-corruption window on
//! the crashed node so `corruption_detected > 0` holds for every seed,
//! including `TFHPC_FAULT_CORRUPT=0`.
//!
//! The same seed drives the *liveness* leg
//! (`cg_recovers_bit_identically_under_liveness_chaos`): a seeded
//! hang/straggler schedule under heartbeat detection, where failures
//! never report an error and only silence gives them away.

use tfhpc_apps::{
    matmul::c_key, run_cg_supervised, run_cg_with_store, run_fft_supervised, run_matmul_supervised,
    run_stream_supervised, CgConfig, CgReduction, FaultSetup, FftConfig, MatmulConfig,
    StreamConfig,
};
use tfhpc_core::TensorProto;
use tfhpc_dist::CallPolicy;
use tfhpc_proto::Message;
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};

fn fault_seed() -> u64 {
    std::env::var("TFHPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn corruption_enabled() -> bool {
    std::env::var("TFHPC_FAULT_CORRUPT").map_or(true, |v| v != "0")
}

/// Crash `crash_node` halfway through the clean run, corrupt its link
/// for a window wide enough to overlap a transfer burst, and (unless
/// `TFHPC_FAULT_CORRUPT=0`) merge in the seeded corruption schedule
/// over all `n_nodes`.
fn chaos_plan(n_nodes: usize, crash_node: usize, horizon_s: f64) -> FaultPlan {
    let plan = FaultPlan::new()
        .crash(crash_node, horizon_s * 0.5)
        .link_corrupt(crash_node, horizon_s * 0.6, horizon_s * 1.0);
    if corruption_enabled() {
        plan.merged(FaultPlan::seeded_corruption(
            fault_seed(),
            n_nodes,
            horizon_s,
        ))
    } else {
        plan
    }
}

fn retry_for(horizon_s: f64) -> CallPolicy {
    // Cumulative exponential backoff (base × 63 over 7 attempts) far
    // exceeds the widest seeded corruption window (~20% of horizon), so
    // retransmits always escape a window instead of exhausting in it.
    CallPolicy::new(7, horizon_s * 0.05)
}

fn assert_corruption_exported(before: u64) {
    let reg = tfhpc_obs::global();
    let total = reg.counter("tfhpc_corruption_detected_total").get();
    assert!(
        total > before,
        "no corruption detections reached the metrics registry"
    );
    assert!(reg
        .to_prometheus()
        .contains("tfhpc_corruption_detected_total"));
}

fn proto_bytes(t: &tfhpc_tensor::Tensor) -> Vec<u8> {
    TensorProto(t.clone()).to_bytes().unwrap()
}

#[test]
fn stream_recovers_bit_identically_under_chaos() {
    let p = tegner_k420(); // 1 task/node: ps on node 0, worker on node 1
    let cfg = StreamConfig {
        size_bytes: 1 << 16,
        invocations: 12,
        ..StreamConfig::default()
    };
    let (clean_report, clean_stats, clean_acc) =
        run_stream_supervised(&p, &cfg, 3, &FaultSetup::default()).unwrap();
    assert_eq!(clean_stats.restarts, 0);

    let before = tfhpc_obs::global()
        .counter("tfhpc_corruption_detected_total")
        .get();
    let t = clean_report.elapsed_s;
    let faults = FaultSetup::new(chaos_plan(2, 1, t), 3).with_retry(retry_for(t));
    let (_, stats, acc) = run_stream_supervised(&p, &cfg, 3, &faults).unwrap();
    assert!(stats.restarts >= 1, "seed {}: no restart", fault_seed());
    assert!(stats.corruption_detected > 0, "seed {}", fault_seed());
    assert_corruption_exported(before);
    assert_eq!(
        proto_bytes(&acc),
        proto_bytes(&clean_acc),
        "seed {}: STREAM accumulator diverged",
        fault_seed()
    );
}

#[test]
fn matmul_recovers_bit_identically_under_chaos() {
    let p = tegner_k80(); // 2 tasks/node: reducers on node 0, workers on node 1
    let cfg = MatmulConfig {
        n: 16384,
        tile: 4096,
        workers: 2,
        reducers: 2,
        protocol: Protocol::Rdma,
        simulated: true,
        prefetch: 3,
    };
    let (clean_report, clean_stats, clean_store) =
        run_matmul_supervised(&p, &cfg, 2, &FaultSetup::default()).unwrap();
    assert_eq!(clean_stats.restarts, 0);

    let before = tfhpc_obs::global()
        .counter("tfhpc_corruption_detected_total")
        .get();
    let t = clean_report.elapsed_s;
    let faults = FaultSetup::new(chaos_plan(2, 1, t), 3).with_retry(retry_for(t));
    let (_, stats, store) = run_matmul_supervised(&p, &cfg, 2, &faults).unwrap();
    assert!(stats.restarts >= 1, "seed {}: no restart", fault_seed());
    assert!(stats.corruption_detected > 0, "seed {}", fault_seed());
    assert_corruption_exported(before);
    for i in 0..cfg.nt() {
        for j in 0..cfg.nt() {
            assert_eq!(
                proto_bytes(&store.get(&c_key(i, j)).unwrap()),
                proto_bytes(&clean_store.get(&c_key(i, j)).unwrap()),
                "seed {}: C[{i},{j}] diverged",
                fault_seed()
            );
        }
    }
}

#[test]
fn cg_recovers_bit_identically_under_chaos() {
    let p = tegner_k420(); // 1 task/node: reducer 0, workers on nodes 1-2
    let cfg = CgConfig {
        n: 256,
        workers: 2,
        iterations: 12,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: Some(4),
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();

    let before = tfhpc_obs::global()
        .counter("tfhpc_corruption_detected_total")
        .get();
    let t = clean.elapsed_s;
    let faults = FaultSetup::new(chaos_plan(3, 2, t), 3).with_retry(retry_for(t));
    let (report, _, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();
    assert!(report.restarts >= 1, "seed {}: no restart", fault_seed());
    assert_corruption_exported(before);
    assert_eq!(
        report.rs_final.to_bits(),
        clean.rs_final.to_bits(),
        "seed {}: CG residual diverged",
        fault_seed()
    );
}

#[test]
fn cg_recovers_bit_identically_under_liveness_chaos() {
    // The liveness leg of the chaos matrix: a seeded schedule of hangs
    // and straggler windows (no crashes, no corruption) over all three
    // CG nodes, with heartbeat detection on. A hang never reports an
    // error — only the deadline detector can see it — and a straggler
    // whose stretched heartbeat overshoots the death timeout is
    // ejected the same way. Whatever the seed draws, the supervised
    // run must finish and reproduce the fault-free residual bit for
    // bit; when the schedule contains a hang, a silence-driven death
    // verdict and at least one restart are mandatory.
    let p = tegner_k420(); // 1 task/node: reducer 0, workers on nodes 1-2
    let cfg = CgConfig {
        n: 256,
        workers: 2,
        iterations: 12,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: Some(4),
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();

    let t = clean.elapsed_s;
    let plan = FaultPlan::seeded_liveness(fault_seed(), 3, t);
    let has_hang = (0..3).any(|node| plan.hung(node, -1.0, f64::MAX));
    // Budget: each straggler window can kill at most once (the verdict
    // lands after the window closes, so replacements run clean) and a
    // hang kills exactly once — 6 covers the worst draw with margin.
    let faults = FaultSetup::new(plan, 6).with_heartbeats(t * 0.05, t * 0.2);
    let (report, stats, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();
    if has_hang {
        assert!(report.restarts >= 1, "seed {}: no restart", fault_seed());
        assert!(
            !stats.deaths.is_empty(),
            "seed {}: hang produced no death verdict",
            fault_seed()
        );
        assert!(
            !stats.recoveries.is_empty(),
            "seed {}: death without revival",
            fault_seed()
        );
    }
    assert_eq!(
        report.rs_final.to_bits(),
        clean.rs_final.to_bits(),
        "seed {}: CG residual diverged under liveness chaos",
        fault_seed()
    );
}

#[test]
fn fft_recovers_bit_identically_under_chaos() {
    let p = tegner_k80(); // 2 tasks/node: merger on node 0, workers on node 1
    let cfg = FftConfig {
        log2_n: 26,
        tiles: 16,
        workers: 2,
        protocol: Protocol::Rdma,
        simulated: true,
        merge_cost_factor: 1.0,
    };
    let (clean_report, clean_stats, clean_store) =
        run_fft_supervised(&p, &cfg, 2, &FaultSetup::default()).unwrap();
    assert_eq!(clean_stats.restarts, 0);

    let before = tfhpc_obs::global()
        .counter("tfhpc_corruption_detected_total")
        .get();
    let t = clean_report.collect_s;
    let faults = FaultSetup::new(chaos_plan(2, 1, t), 3).with_retry(retry_for(t));
    let (_, stats, store) = run_fft_supervised(&p, &cfg, 2, &faults).unwrap();
    assert!(stats.restarts >= 1, "seed {}: no restart", fault_seed());
    assert!(stats.corruption_detected > 0, "seed {}", fault_seed());
    assert_corruption_exported(before);
    assert_eq!(
        proto_bytes(&store.get(&[-1]).unwrap()),
        proto_bytes(&clean_store.get(&[-1]).unwrap()),
        "seed {}: merged spectrum diverged",
        fault_seed()
    );
}
