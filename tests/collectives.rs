//! Collective parity suite: every decentralized all-reduce (ring,
//! binomial tree, recursive halving-doubling, and the auto selector)
//! must reproduce the central reducer's canonical binomial fold bit
//! for bit — over odd lengths, non-power-of-two groups, unaligned
//! slice offsets, Sum/Min/Max, both transports, and under seeded
//! corruption windows that force retransmissions.
//!
//! The contract under test is the fixed reduction-order rule from
//! `tfhpc_dist::reducer`: whatever route the partials take, they are
//! combined in canonical binomial-block order, so the delivered bits
//! are a pure function of (op, leaves) — never of topology, timing,
//! transport, or fault schedule.
//!
//! Knobs (matching the chaos suite):
//!   `TFHPC_FAULT_SEED` — corruption-schedule seed (default 42).

use std::sync::{Arc, Mutex};
use tfhpc_dist::{
    all_reduce, all_reduce_auto, canonical_reduce, launch, worker_all_reduce, AllReduceAlgo,
    CallPolicy, JobSpec, LaunchConfig, ReduceOp, Reducer, TaskKey,
};
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::kebnekaise_k80;
use tfhpc_tensor::Tensor;

fn fault_seed() -> u64 {
    std::env::var("TFHPC_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Deterministic, sign-mixed rank-1 f64 leaf: float addition over
/// these is order-sensitive, so bit-equality actually exercises the
/// canonical-order contract rather than passing by accident.
fn leaf(worker: usize, n: usize) -> Tensor {
    let v: Vec<f64> = (0..n)
        .map(|k| {
            let m = ((worker * 37 + k * 11) % 997) as f64;
            if (worker + k).is_multiple_of(3) {
                -1.75 * m
            } else {
                0.375 * m + 0.0625
            }
        })
        .collect();
    Tensor::from_f64([n], v).expect("leaf tensor")
}

fn expected_bits(op: ReduceOp, leaves: Vec<Tensor>) -> Vec<u64> {
    canonical_reduce(op, leaves)
        .expect("canonical fold")
        .as_f64()
        .expect("f64 fold")
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

struct RunOut {
    bits: Vec<u64>,
    retransmits: u64,
    corruption_detected: u64,
}

/// `(worker index, delivered bits)` rows collected across the gang.
type BitRows = Arc<Mutex<Vec<(usize, Vec<u64>)>>>;

/// Launch `p` simulated workers, run one all-reduce (`algo = None` is
/// the auto selector), assert every worker delivered identical bits,
/// and return them with the summed fault counters.
fn run_algo(
    algo: Option<AllReduceAlgo>,
    p: usize,
    op: ReduceOp,
    protocol: Protocol,
    make_leaf: Arc<dyn Fn(usize) -> Tensor + Send + Sync>,
    faults: Option<(FaultPlan, CallPolicy)>,
) -> RunOut {
    let mut cfg = LaunchConfig::simulated(
        kebnekaise_k80(),
        vec![JobSpec::new("worker", p, 1)],
        protocol,
    );
    if let Some((plan, retry)) = faults {
        cfg = cfg.with_faults(plan).with_retry(retry);
    }
    let rows: BitRows = Arc::new(Mutex::new(Vec::new()));
    let counters = Arc::new(Mutex::new((0u64, 0u64)));
    let rows_in = Arc::clone(&rows);
    let counters_in = Arc::clone(&counters);
    launch(&cfg, move |ctx| {
        let w = ctx.index();
        let group: Vec<TaskKey> = (0..p).map(|i| TaskKey::new("worker", i)).collect();
        let r = match algo {
            Some(a) => all_reduce(&ctx.server, &group, w, make_leaf(w), Some(0), op, a)?,
            None => all_reduce_auto(&ctx.server, &group, w, make_leaf(w), Some(0), op)?,
        };
        let bits: Vec<u64> = r.as_f64()?.iter().map(|x| x.to_bits()).collect();
        rows_in.lock().unwrap().push((w, bits));
        let mut c = counters_in.lock().unwrap();
        c.0 += ctx.server.resources.retransmits_total();
        c.1 += ctx.server.resources.corruption_detected_total();
        Ok(())
    })
    .expect("collective launch");
    let mut rows = rows.lock().unwrap().clone();
    rows.sort();
    assert_eq!(rows.len(), p, "missing worker results");
    for (w, bits) in &rows {
        assert_eq!(bits, &rows[0].1, "worker {w} diverged from worker 0");
    }
    let (retransmits, corruption_detected) = *counters.lock().unwrap();
    RunOut {
        bits: rows[0].1.clone(),
        retransmits,
        corruption_detected,
    }
}

fn algos_for(p: usize) -> Vec<Option<AllReduceAlgo>> {
    let mut algos = vec![Some(AllReduceAlgo::Ring), Some(AllReduceAlgo::Tree)];
    if p.is_power_of_two() {
        algos.push(Some(AllReduceAlgo::Rhd));
    }
    algos.push(None); // auto selector
    algos
}

/// Every decentralized algorithm and the live queue-pair reducer
/// service deliver the same bits as the canonical fold, for all three
/// ops, on the same group.
#[test]
fn all_algorithms_match_live_central_reducer() {
    const P: usize = 4;
    const N: usize = 11;
    for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
        let want = expected_bits(op, (0..P).map(|w| leaf(w, N)).collect());

        // Live central reducer: a dedicated reducer task serves one
        // round of the paper's Fig. 5 queue-pair workflow.
        let cfg = LaunchConfig::simulated(
            kebnekaise_k80(),
            vec![JobSpec::new("reducer", 1, 0), JobSpec::new("worker", P, 1)],
            Protocol::Rdma,
        );
        let rows: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let rows_in = Arc::clone(&rows);
        launch(&cfg, move |ctx| {
            if ctx.job() == "reducer" {
                Reducer::new(ctx.server.clone(), "ar", P, op).serve_round()
            } else {
                let w = ctx.index();
                let r = worker_all_reduce(
                    &ctx.server,
                    &TaskKey::new("reducer", 0),
                    "ar",
                    w,
                    leaf(w, N),
                    Some(0),
                )?;
                let bits: Vec<u64> = r.as_f64()?.iter().map(|x| x.to_bits()).collect();
                rows_in.lock().unwrap().push(bits);
                Ok(())
            }
        })
        .expect("reducer launch");
        for bits in rows.lock().unwrap().iter() {
            assert_eq!(bits, &want, "queue-pair reducer diverged ({op:?})");
        }

        for algo in algos_for(P) {
            let got = run_algo(
                algo,
                P,
                op,
                Protocol::Rdma,
                Arc::new(move |w| leaf(w, N)),
                None,
            );
            assert_eq!(
                got.bits, want,
                "{algo:?} diverged from central fold ({op:?})"
            );
        }
    }
}

/// Odd vector lengths and non-power-of-two groups (including P > n,
/// where trailing ring chunks are empty) on the staged-copy wire.
#[test]
fn non_pow2_groups_and_odd_lengths_match_canonical() {
    for (p, n) in [(3usize, 7usize), (5, 1), (6, 33), (7, 13), (4, 2)] {
        let want = expected_bits(ReduceOp::Sum, (0..p).map(|w| leaf(w, n)).collect());
        for algo in algos_for(p) {
            let got = run_algo(
                algo,
                p,
                ReduceOp::Sum,
                Protocol::Grpc,
                Arc::new(move |w| leaf(w, n)),
                None,
            );
            assert_eq!(got.bits, want, "{algo:?} diverged at p={p} n={n}");
        }
    }
}

/// Leaves carved out of a larger buffer at odd offsets: the slice
/// views have unaligned storage offsets, so any code path that assumes
/// aligned or zero-based layouts would diverge here.
#[test]
fn unaligned_slice_offsets_match_canonical() {
    const P: usize = 4;
    const BASE: usize = 64;
    const LEN: usize = 17;
    for off in [3usize, 5] {
        let make = move |w: usize| {
            leaf(w, BASE)
                .slice_range(off, off + LEN)
                .expect("slice leaf")
        };
        let want = expected_bits(ReduceOp::Sum, (0..P).map(make).collect());
        for algo in algos_for(P) {
            let got = run_algo(algo, P, ReduceOp::Sum, Protocol::Rdma, Arc::new(make), None);
            assert_eq!(got.bits, want, "{algo:?} diverged at offset {off}");
        }
    }
}

/// Min/Max flow through every algorithm on both wire transports
/// (Grpc resolves to staged-copy, Rdma to zero-copy).
#[test]
fn min_max_parity_across_algorithms_and_transports() {
    const P: usize = 4;
    const N: usize = 13;
    for op in [ReduceOp::Min, ReduceOp::Max] {
        let want = expected_bits(op, (0..P).map(|w| leaf(w, N)).collect());
        for protocol in [Protocol::Grpc, Protocol::Rdma] {
            for algo in algos_for(P) {
                let got = run_algo(algo, P, op, protocol, Arc::new(move |w| leaf(w, N)), None);
                assert_eq!(got.bits, want, "{algo:?} diverged ({op:?}, {protocol:?})");
            }
        }
    }
}

/// Seeded corruption windows plus a deterministic window on node 0
/// (Kebnekaise packs the whole 4-task group onto it) force the framed
/// slow path and retransmissions — and the delivered bits must still
/// be the canonical fold, because the retry layer replays corrupted
/// transfers until the CRC passes.
#[test]
fn corruption_windows_with_retransmit_preserve_bits() {
    const P: usize = 4;
    const N: usize = 257;
    const HORIZON_S: f64 = 4.0e-4;
    let want = expected_bits(ReduceOp::Sum, (0..P).map(|w| leaf(w, N)).collect());
    let mut total_retransmits = 0u64;
    let mut total_detected = 0u64;
    for algo in algos_for(P) {
        let plan = FaultPlan::new()
            .link_corrupt(0, 0.0, 1.2e-4)
            .merged(FaultPlan::seeded_corruption(fault_seed(), 2, HORIZON_S));
        let got = run_algo(
            algo,
            P,
            ReduceOp::Sum,
            Protocol::Rdma,
            Arc::new(move |w| leaf(w, N)),
            Some((plan, CallPolicy::new(8, 5.0e-5))),
        );
        assert_eq!(
            got.bits,
            want,
            "{algo:?} diverged under corruption (seed {})",
            fault_seed()
        );
        total_retransmits += got.retransmits;
        total_detected += got.corruption_detected;
    }
    assert!(
        total_retransmits > 0,
        "corruption windows never forced a retransmission (seed {})",
        fault_seed()
    );
    assert!(
        total_detected >= total_retransmits,
        "every retransmission should follow a detection"
    );
}
