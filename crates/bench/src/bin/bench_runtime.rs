//! `bench_runtime` — per-step executor overhead of the step-replay
//! fast path (cached execution plans + in-place buffer forwarding)
//! against the naive rebuild-and-clone path, with a counting global
//! allocator.
//!
//! Three steady-state workloads run the *same* fixed-seed graph in
//! both modes: an unrolled CG step (matvec + vector updates), a block
//! matmul step and a batched FFT step. For each, the kernel floor —
//! the identical math done with direct tensor ops, in place, under the
//! same one-worker cap the sessions run with — is subtracted from the
//! per-step wall time to isolate what the executor itself costs.
//! Results (per-step nanoseconds, allocation counts, net
//! allocated-byte growth and the two ratios below) are written to
//! `BENCH_runtime.json`.
//!
//! Two ratios, not to be confused:
//!   fast_over_floor  cached step ÷ kernel floor — the distance to the
//!                    floor (1.0 = the executor costs nothing).
//!   overhead_ratio   naive overhead ÷ fast overhead, overhead being
//!                    step − floor: how much of the *executor's* cost
//!                    step replay removes. It says nothing about how
//!                    far the fast step is from the floor.
//!
//! Flags:
//!   --smoke          short run (CI); fewer measured steps
//!   --out <path>     where to write the JSON (default BENCH_runtime.json)
//!   --check <path>   also compare against a committed baseline:
//!                    exit 1 if the CG speedup regressed by
//!                    more than 25%, or if the integrity plane (wire
//!                    checksums, see `measure_integrity`) costs ≥18% of
//!                    the CG step's kernel floor, as the median of
//!                    rounds that time both back to back. Machine-portable
//!                    because it compares in-run *ratios*, not wall
//!                    times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tfhpc_bench::{json_rows, write_out, Args, Baseline, Gates};
use tfhpc_core::{DeviceCtx, Graph, NodeId, Resources, Session, SessionOptions};
use tfhpc_tensor::{fft, matmul, ops, rng, Complex64, DType, Shape, Tensor};

/// Counting wrapper around the system allocator: total allocation
/// events plus gross allocated/freed bytes, so steady-state steps can
/// be checked for zero net growth.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES_FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES_FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_STEPS: usize = 20;

/// Per-mode steady-state measurements.
#[derive(Clone, Copy)]
struct ModeStats {
    step_ns: f64,
    allocs_per_step: f64,
    net_bytes_per_step: f64,
}

struct WorkloadResult {
    name: &'static str,
    nodes: usize,
    steps: usize,
    floor_ns: f64,
    naive: ModeStats,
    fast: ModeStats,
    /// naive/fast per-step wall-time ratio (the stable CI gate).
    speedup: f64,
    /// Cached step ÷ kernel floor: the distance to the floor.
    fast_over_floor: f64,
    /// Naive overhead ÷ fast overhead, overhead being step − floor:
    /// the share of the executor's own cost that step replay removes
    /// (not the distance to the floor — that is `fast_over_floor`).
    overhead_ratio: f64,
}

/// Time `step` for `steps` iterations after warmup, with allocator
/// counters sampled around the measured window.
fn measure(mut step: impl FnMut(), steps: usize) -> ModeStats {
    for _ in 0..WARMUP_STEPS {
        step();
    }
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let in0 = BYTES_ALLOCATED.load(Ordering::Relaxed);
    let out0 = BYTES_FREED.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..steps {
        step();
    }
    let elapsed = t0.elapsed();
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls0;
    let net = (BYTES_ALLOCATED.load(Ordering::Relaxed) - in0) as i64
        - (BYTES_FREED.load(Ordering::Relaxed) - out0) as i64;
    ModeStats {
        step_ns: elapsed.as_nanos() as f64 / steps as f64,
        allocs_per_step: calls as f64 / steps as f64,
        net_bytes_per_step: net as f64 / steps as f64,
    }
}

/// Exact (bitwise) tensor comparison for the cached-vs-naive identity
/// check.
fn assert_bit_identical(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dtype(), b.dtype(), "{what}: dtype");
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    match a.dtype() {
        DType::F64 => {
            let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
            assert!(
                x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits()),
                "{what}: f64 bits differ"
            );
        }
        DType::C128 => {
            let (x, y) = (a.as_c128().unwrap(), b.as_c128().unwrap());
            assert!(
                x.iter()
                    .zip(y)
                    .all(|(u, v)| u.re.to_bits() == v.re.to_bits()
                        && u.im.to_bits() == v.im.to_bits()),
                "{what}: c128 bits differ"
            );
        }
        other => panic!("{what}: unexpected dtype {other}"),
    }
}

/// `--check` bound on the wire checksums' cost, in percent of the CG
/// step's kernel floor — a denominator executor changes do not move.
/// 18% is the bound the gate was first calibrated to (5% of a 28.5 µs
/// cached step whose floor was 7.86 µs), 1.5x the measured ~12%.
const INTEGRITY_GATE_PCT_OF_FLOOR: f64 = 18.0;

fn session_for(g: Graph, step_replay: bool) -> Session {
    Session::with_options(
        Arc::new(g),
        Resources::new(),
        DeviceCtx::real(0),
        SessionOptions {
            inter_op_threads: 1,
            intra_op_threads: 1,
            step_replay,
            ..SessionOptions::default()
        },
    )
}

/// One workload: build a fresh (identical) graph per mode, measure
/// both modes and the kernel floor, and verify bit-identity of the
/// fetched outputs between modes.
#[allow(clippy::type_complexity)]
fn bench_workload(
    name: &'static str,
    build: &dyn Fn() -> (Graph, Vec<NodeId>, Vec<(NodeId, Tensor)>),
    floor: &mut dyn FnMut(),
    steps: usize,
) -> WorkloadResult {
    let mut stats = Vec::new();
    let mut outs = Vec::new();
    let mut nodes = 0;
    for step_replay in [false, true] {
        let (g, fetches, feeds) = build();
        nodes = g.len();
        let sess = session_for(g, step_replay);
        stats.push(measure(
            || {
                sess.run(&fetches, &feeds).unwrap();
            },
            steps,
        ));
        outs.push(sess.run(&fetches, &feeds).unwrap());
    }
    for (a, b) in outs[0].iter().zip(&outs[1]) {
        assert_bit_identical(a, b, name);
    }
    // The sessions run their kernels under `intra_op_threads: 1`;
    // an uncapped floor would pay pool hand-offs the step never does
    // (and on a small host come out *above* it).
    let floor_stats = tfhpc_parallel::with_worker_limit(1, || measure(floor, steps));
    let (naive, fast) = (stats[0], stats[1]);
    let overhead = |m: &ModeStats| (m.step_ns - floor_stats.step_ns).max(1.0);
    WorkloadResult {
        name,
        nodes,
        steps,
        floor_ns: floor_stats.step_ns,
        naive,
        fast,
        speedup: naive.step_ns / fast.step_ns,
        fast_over_floor: fast.step_ns / floor_stats.step_ns,
        overhead_ratio: overhead(&naive) / overhead(&fast),
    }
}

/// CG step: `unroll` conjugate-gradient iterations (matvec, dots,
/// scalar updates of x/r/p) over fixed-seed data, fed through
/// placeholders each step like the distributed solver's worker graphs.
fn cg_inputs(n: usize) -> (Tensor, Tensor, Tensor, Tensor) {
    let a = rng::random_uniform(DType::F64, [n, n], 7).unwrap();
    let x0 = rng::random_uniform(DType::F64, [n], 11).unwrap();
    let r0 = rng::random_uniform(DType::F64, [n], 13).unwrap();
    let p0 = r0.clone();
    (a, x0, r0, p0)
}

fn build_cg(n: usize, unroll: usize) -> (Graph, Vec<NodeId>, Vec<(NodeId, Tensor)>) {
    let (a_t, x0, r0, p0) = cg_inputs(n);
    let mut g = Graph::new();
    let a = g.constant(a_t);
    let ph_x = g.placeholder(DType::F64, Some(Shape::vector(n)));
    let ph_r = g.placeholder(DType::F64, Some(Shape::vector(n)));
    let ph_p = g.placeholder(DType::F64, Some(Shape::vector(n)));
    let (mut x, mut r, mut p) = (ph_x, ph_r, ph_p);
    let mut rs = g.dot(r, r);
    for _ in 0..unroll {
        let q = g.matvec(a, p);
        let pap = g.dot(p, q);
        let alpha = g.div(rs, pap);
        let xa = g.mul_scalar(p, alpha);
        x = g.add(x, xa);
        let ra = g.mul_scalar(q, alpha);
        r = g.sub(r, ra);
        let rs1 = g.dot(r, r);
        let beta = g.div(rs1, rs);
        let pb = g.mul_scalar(p, beta);
        p = g.add(r, pb);
        rs = rs1;
    }
    (
        g,
        vec![x, r, p, rs],
        vec![(ph_x, x0), (ph_r, r0), (ph_p, p0)],
    )
}

fn cg_floor(n: usize, unroll: usize) -> impl FnMut() {
    let (a, x0, r0, p0) = cg_inputs(n);
    move || {
        let mut x = x0.clone();
        let mut r = r0.clone();
        let mut p = p0.clone();
        let mut rs = ops::dot(&r, &r).unwrap().scalar_value_f64().unwrap();
        for _ in 0..unroll {
            let q = matmul::matvec(&a, &p).unwrap();
            let pap = ops::dot(&p, &q).unwrap().scalar_value_f64().unwrap();
            let alpha = rs / pap;
            x = ops::axpy_owned(alpha, p.clone(), x).unwrap();
            r = ops::axpy_owned(-alpha, q, r).unwrap();
            let rs1 = ops::dot(&r, &r).unwrap().scalar_value_f64().unwrap();
            let beta = rs1 / rs;
            p = ops::axpy_owned(beta, p, r.clone()).unwrap();
            rs = rs1;
        }
        std::hint::black_box((x, r, p, rs));
    }
}

/// Matmul step: `k` independent block products combined with AddN and
/// rescaled — the shape of one tiled-matmul reduction step.
fn matmul_inputs(n: usize, k: usize) -> Vec<(Tensor, Tensor)> {
    (0..k)
        .map(|i| {
            (
                rng::random_uniform(DType::F64, [n, n], 100 + i as u64).unwrap(),
                rng::random_uniform(DType::F64, [n, n], 200 + i as u64).unwrap(),
            )
        })
        .collect()
}

fn build_matmul(n: usize, k: usize) -> (Graph, Vec<NodeId>, Vec<(NodeId, Tensor)>) {
    let pairs = matmul_inputs(n, k);
    let mut g = Graph::new();
    let mms: Vec<NodeId> = pairs
        .into_iter()
        .map(|(a, b)| {
            let a = g.constant(a);
            let b = g.constant(b);
            g.matmul(a, b)
        })
        .collect();
    let sum = g.add_n(&mms);
    let out = g.scale(sum, 0.5);
    (g, vec![out], vec![])
}

fn matmul_floor(n: usize, k: usize) -> impl FnMut() {
    let pairs = matmul_inputs(n, k);
    move || {
        let mms: Vec<Tensor> = pairs
            .iter()
            .map(|(a, b)| matmul::matmul(a, b).unwrap())
            .collect();
        let out = ops::scale_owned(ops::add_n_owned(mms).unwrap(), 0.5).unwrap();
        std::hint::black_box(out);
    }
}

/// FFT step: `k` fed signals transformed and accumulated — the shape
/// of one interleaved-tile FFT worker step.
fn fft_signal(m: usize, seed: u64) -> Tensor {
    let re = rng::random_uniform(DType::F64, [m], seed).unwrap();
    let im = rng::random_uniform(DType::F64, [m], seed ^ 0x9e37_79b9).unwrap();
    let data: Vec<Complex64> = re
        .as_f64()
        .unwrap()
        .iter()
        .zip(im.as_f64().unwrap())
        .map(|(a, b)| Complex64::new(*a, *b))
        .collect();
    Tensor::from_c128(Shape::vector(m), data).unwrap()
}

fn build_fft(m: usize, k: usize) -> (Graph, Vec<NodeId>, Vec<(NodeId, Tensor)>) {
    let mut g = Graph::new();
    let mut feeds = Vec::with_capacity(k);
    let ffts: Vec<NodeId> = (0..k)
        .map(|i| {
            let ph = g.placeholder(DType::C128, Some(Shape::vector(m)));
            feeds.push((ph, fft_signal(m, 300 + i as u64)));
            g.fft(ph)
        })
        .collect();
    let sum = g.add_n(&ffts);
    let out = g.scale(sum, 1.0 / m as f64);
    (g, vec![out], feeds)
}

fn fft_floor(m: usize, k: usize) -> impl FnMut() {
    let signals: Vec<Tensor> = (0..k).map(|i| fft_signal(m, 300 + i as u64)).collect();
    move || {
        let ffts: Vec<Tensor> = signals
            .iter()
            .map(|s| fft::fft_tensor(s).unwrap())
            .collect();
        let out = ops::scale_owned(ops::add_n_owned(ffts).unwrap(), 1.0 / m as f64).unwrap();
        std::hint::black_box(out);
    }
}

/// The wire tensors one CG worker moves per unrolled bench step: per
/// iteration, two scalar reduction contributions and two reduction
/// results, its own `p` slice and the full gathered `p`.
fn cg_wire_payloads(n: usize, unroll: usize, workers: usize) -> Vec<Tensor> {
    let full = rng::random_uniform(DType::F64, [n], 17).unwrap();
    let slice = full.slice_range(0, n / workers).unwrap();
    let mut payloads = Vec::new();
    for i in 0..unroll {
        for s in 0..4 {
            payloads.push(Tensor::scalar_f64(1.0 + (i * 4 + s) as f64));
        }
        payloads.push(slice.clone());
        payloads.push(full.clone());
    }
    payloads
}

/// Rounds the integrity gate takes its median over.
const INTEGRITY_ROUNDS: usize = 15;

/// The integrity plane's price: checksum nanoseconds per CG step, and
/// that in percent of the CG kernel floor.
struct Integrity {
    wire_ns: f64,
    pct_of_floor: f64,
}

/// Per-step cost of the data-integrity plane on the CG step's wire
/// traffic: checksum every payload's raw storage bytes at both
/// endpoints and compare — exactly what `tfhpc-dist`'s wire layer adds
/// per fast-path transfer. (The framed encode/verify/decode slow
/// path only runs inside an injected corruption window, so it is not
/// part of the steady-state price.) Each round times `floor` and the
/// checksums back to back, in alternating order, so both sides of the
/// round's ratio see the same host state; both figures are medians
/// over the rounds.
fn measure_integrity(
    n: usize,
    unroll: usize,
    workers: usize,
    steps: usize,
    floor: &mut dyn FnMut(),
) -> Integrity {
    use tfhpc_dist::wire::payload_crc;
    let payloads = cg_wire_payloads(n, unroll, workers);
    let mut checksums = || {
        for t in &payloads {
            let sent = payload_crc(t);
            let received = payload_crc(t);
            assert_eq!(sent, received);
            std::hint::black_box(received);
        }
    };
    let (mut wire_ns, mut pct) = (Vec::new(), Vec::new());
    for round in 0..INTEGRITY_ROUNDS {
        let mut floor_round =
            || tfhpc_parallel::with_worker_limit(1, || measure(&mut *floor, steps));
        let (floor_ns, ns) = if round % 2 == 0 {
            let floor_ns = floor_round().step_ns;
            (floor_ns, measure(&mut checksums, steps).step_ns)
        } else {
            let ns = measure(&mut checksums, steps).step_ns;
            (floor_round().step_ns, ns)
        };
        wire_ns.push(ns);
        pct.push(100.0 * ns / floor_ns);
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    Integrity {
        wire_ns: median(wire_ns),
        pct_of_floor: median(pct),
    }
}

/// One liveness-plane recovery drill: a small simulated CG run with a
/// single injected fault under heartbeat detection. All numbers are
/// *virtual* seconds from the DES clock, so they are bit-reproducible
/// across hosts — the `--check` gates on them are exact, not
/// noise-tolerant.
struct RecoveryResult {
    fault: &'static str,
    fault_s: f64,
    detected_s: f64,
    detection_latency_s: f64,
    recovered_s: f64,
    mttr_s: f64,
    restarts: usize,
    residual_bit_exact: bool,
}

/// Detection latency and MTTR for the three failure modes the
/// supervisor handles: a crash (error-driven, synchronous report), a
/// hang (silence-driven, deadline detector) and a straggler (stretched
/// heartbeats overshoot the death timeout, so the detector ejects the
/// slow task exactly like a hang). Each run must still reproduce the
/// fault-free CG residual bit for bit.
fn measure_recovery() -> (f64, f64, Vec<RecoveryResult>) {
    use tfhpc_apps::{run_cg_supervised, run_cg_with_store, CgConfig, CgReduction, FaultSetup};
    use tfhpc_sim::fault::FaultPlan;
    use tfhpc_sim::net::Protocol;
    use tfhpc_sim::platform;

    let cfg = CgConfig {
        n: 1024,
        workers: 2,
        iterations: 16,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: Some(4),
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let p = platform::tegner_k420();
    let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();
    let t = clean.elapsed_s;
    let (period, timeout) = (t * 0.05, t * 0.2);
    let fault_s = t * 0.5;

    // Worker 1 lives on node 2 (tegner_k420 places one task per node:
    // reducer on 0, workers on 1 and 2). The straggler window closes
    // at detection time, so the restarted incarnation runs at full
    // speed.
    let plans: [(&'static str, FaultPlan); 3] = [
        ("crash", FaultPlan::new().crash(2, fault_s)),
        ("hang", FaultPlan::new().hang(2, fault_s)),
        (
            "straggler",
            FaultPlan::new().straggler(2, fault_s, fault_s + timeout, 8.0),
        ),
    ];
    let mut out = Vec::new();
    for (name, plan) in plans {
        // One period of restart backoff: without it a crash recovers at
        // the same virtual instant it was reported (the DES restart is
        // free), which would make MTTR degenerate.
        let faults = FaultSetup::new(plan, 2)
            .with_heartbeats(period, timeout)
            .with_backoff(period);
        let (report, stats, _) = run_cg_supervised(&p, &cfg, &faults)
            .unwrap_or_else(|e| panic!("recovery drill {name} failed: {e}"));
        // A crash aborts the task's server at the fault instant and the
        // error report reaches the supervisor synchronously — there is
        // no Dead verdict and detection latency is zero in virtual
        // time. Hangs and stragglers are only visible as silence, so
        // detection is the membership table's Dead event.
        let detected_s = stats
            .deaths
            .first()
            .map(|&(_, at, _)| at)
            .unwrap_or(fault_s);
        let recovered_s = stats
            .recoveries
            .first()
            .map(|&(_, at)| at)
            .unwrap_or(f64::NAN);
        out.push(RecoveryResult {
            fault: name,
            fault_s,
            detected_s,
            detection_latency_s: detected_s - fault_s,
            recovered_s,
            mttr_s: recovered_s - fault_s,
            restarts: report.restarts,
            residual_bit_exact: report.rs_final.to_bits() == clean.rs_final.to_bits(),
        });
    }
    (period, timeout, out)
}

/// One compute micro-kernel measured on both dispatch paths (forced
/// scalar, then forced SIMD) in the same process via
/// `simd::set_forced`. `rate` columns are G-units per second (GB/s for
/// bandwidth kernels, GFLOP/s for compute kernels); `ratio` is the
/// SIMD/scalar rate — the machine-portable CI gate.
struct KernelResult {
    name: &'static str,
    unit: &'static str,
    scalar_rate: f64,
    simd_rate: f64,
    ratio: f64,
}

fn bench_kernel(
    name: &'static str,
    unit: &'static str,
    work_per_call: f64,
    iters: usize,
    mut f: impl FnMut(),
) -> KernelResult {
    use tfhpc_tensor::simd;
    let mut rate = [0.0f64; 2];
    // Best of three windows per path: on a shared core a single window
    // can absorb a preemption and skew the ratio either way.
    for (i, force) in [false, true].into_iter().enumerate() {
        simd::set_forced(Some(force));
        let best_ns = (0..3)
            .map(|_| measure(&mut f, iters).step_ns)
            .fold(f64::INFINITY, f64::min);
        // work per nanosecond == G-work per second.
        rate[i] = work_per_call / best_ns;
    }
    simd::set_forced(None);
    KernelResult {
        name,
        unit,
        scalar_rate: rate[0],
        simd_rate: rate[1],
        ratio: rate[1] / rate[0],
    }
}

/// Per-kernel bandwidth/throughput on the scalar and SIMD paths.
/// Sizes are cache-resident on purpose: the gate measures
/// vectorization, not the memory bus.
fn bench_kernels(smoke: bool) -> Vec<KernelResult> {
    use tfhpc_tensor::simd;
    let (triad_it, dot_it, mm_it, fft_it) = if smoke {
        (50_000, 50_000, 20, 300)
    } else {
        (400_000, 400_000, 100, 2000)
    };

    // STREAM triad: out[i] = y[i] + alpha * x[i] — 2 loads + 1 store —
    // and dot, both over the parallel crate's 64-byte-aligned scratch
    // arena, L1-resident (8 KiB per stream): the ratio gate isolates
    // the vector units from alignment splits and the (virtualized)
    // memory system.
    let n = 1024usize;
    let (triad, dot) = tfhpc_parallel::arena::with_scratch(3 * n * 8, |buf| {
        let all = buf.as_f64_mut(3 * n);
        for (i, v) in all.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let (xv, rest) = all.split_at_mut(n);
        let (yv, out) = rest.split_at_mut(n);
        let triad = bench_kernel("triad_f64", "GB/s", (n * 24) as f64, triad_it, || {
            simd::axpy_f64(3.0, xv, yv, out);
            std::hint::black_box(&mut *out);
        });
        let dot = bench_kernel("dot_f64", "GB/s", (n * 16) as f64, dot_it, || {
            std::hint::black_box(simd::dot_f64(xv, yv));
        });
        (triad, dot)
    });

    // matmul: 192³ f64 block product (B panel ≈ 295 KiB, L2-resident),
    // output recycled through the tensor arena each call.
    let m = 192usize;
    let a = rng::random_uniform(DType::F64, [m, m], 47).unwrap();
    let b = rng::random_uniform(DType::F64, [m, m], 53).unwrap();
    let mm_flops = 2.0 * (m * m * m) as f64;
    let mm = bench_kernel("matmul_f64", "GFLOP/s", mm_flops, mm_it, || {
        let c = matmul::matmul(&a, &b).unwrap();
        tfhpc_tensor::arena::recycle_tensor(std::hint::black_box(c));
    });

    // fft: 4096-point in-place transform, 5·n·log2(n) nominal flops.
    let fn_ = 4096usize;
    let base = fft_signal(fn_, 59);
    let mut buf = base.as_c128().unwrap().to_vec();
    let fft_flops = 5.0 * fn_ as f64 * (fn_ as f64).log2();
    let fftk = bench_kernel("fft_c128", "GFLOP/s", fft_flops, fft_it, || {
        buf.copy_from_slice(base.as_c128().unwrap());
        fft::fft_inplace(&mut buf);
        std::hint::black_box(&mut buf);
    });

    vec![triad, dot, mm, fftk]
}

fn kernel_json(k: &KernelResult) -> String {
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"scalar_rate\": {:.3}, \"simd_rate\": {:.3}, \"ratio\": {:.3}}}",
        k.name, k.unit, k.scalar_rate, k.simd_rate, k.ratio
    )
}

fn recovery_json(r: &RecoveryResult) -> String {
    format!(
        "    {{\"fault\": \"{}\", \"fault_s\": {:.6}, \"detected_s\": {:.6}, \"detection_latency_s\": {:.6}, \"recovered_s\": {:.6}, \"mttr_s\": {:.6}, \"restarts\": {}, \"residual_bit_exact\": {}}}",
        r.fault,
        r.fault_s,
        r.detected_s,
        r.detection_latency_s,
        r.recovered_s,
        r.mttr_s,
        r.restarts,
        r.residual_bit_exact
    )
}

/// `x` to the one decimal the JSON carries, never as `-0.0` (a net of
/// a few bytes freed over thousands of steps rounds to that).
fn one_decimal(x: f64) -> f64 {
    (x * 10.0).round() / 10.0 + 0.0
}

fn mode_json(m: &ModeStats) -> String {
    format!(
        "{{\"step_ns\": {:.1}, \"allocs_per_step\": {:.1}, \"net_bytes_per_step\": {:.1}}}",
        m.step_ns,
        m.allocs_per_step,
        one_decimal(m.net_bytes_per_step)
    )
}

fn workload_json(w: &WorkloadResult) -> String {
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"nodes\": {},\n      \"steps\": {},\n      \"floor_ns\": {:.1},\n      \"naive\": {},\n      \"fast\": {},\n      \"speedup\": {:.3},\n      \"fast_over_floor\": {:.3},\n      \"overhead_ratio\": {:.3}\n    }}",
        w.name,
        w.nodes,
        w.steps,
        w.floor_ns,
        mode_json(&w.naive),
        mode_json(&w.fast),
        w.speedup,
        w.fast_over_floor,
        w.overhead_ratio
    )
}

/// The one baseline number `--check` reads.
const CG_SPEEDUP: &str = "workloads[name == \"cg\"].speedup";

fn main() {
    let args = Args::parse("BENCH_runtime.json");
    let (cg_steps, mm_steps, fft_steps) = if args.smoke {
        (300, 60, 60)
    } else {
        (3000, 400, 400)
    };

    let results = vec![
        bench_workload("cg", &|| build_cg(64, 4), &mut cg_floor(64, 4), cg_steps),
        bench_workload(
            "matmul",
            &|| build_matmul(32, 4),
            &mut matmul_floor(32, 4),
            mm_steps,
        ),
        bench_workload(
            "fft",
            &|| build_fft(256, 4),
            &mut fft_floor(256, 4),
            fft_steps,
        ),
    ];

    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>12} {:>9} {:>11} {:>9} {:>10} {:>10}",
        "workload",
        "nodes",
        "naive ns",
        "fast ns",
        "floor ns",
        "speedup",
        "fast/floor",
        "ovh x",
        "allocs/st",
        "net B/st"
    );
    for w in &results {
        println!(
            "{:<8} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>8.2}x {:>10.2}x {:>8.2}x {:>10.1} {:>10.1}",
            w.name,
            w.nodes,
            w.naive.step_ns,
            w.fast.step_ns,
            w.floor_ns,
            w.speedup,
            w.fast_over_floor,
            w.overhead_ratio,
            w.fast.allocs_per_step,
            w.fast.net_bytes_per_step
        );
        // Steady state must not leak: net allocated-byte growth per
        // step stays at noise level in the fast path.
        assert!(
            w.fast.net_bytes_per_step.abs() < 1024.0,
            "{}: fast path grows {} bytes/step",
            w.name,
            w.fast.net_bytes_per_step
        );
    }

    // Integrity plane: checksumming the CG step's wire payloads must
    // stay marginal next to the step it rides on. Priced against the
    // step's kernel floor — the part of the step no executor change
    // moves — and, for the reader, against the cached step itself.
    let integrity = measure_integrity(64, 4, 2, cg_steps, &mut cg_floor(64, 4));
    let integrity_pct = 100.0 * integrity.wire_ns / results[0].fast.step_ns;
    let integrity_pct_of_floor = integrity.pct_of_floor;
    println!(
        "integrity: {:.0} ns/step of wire checksums = {:.2}% of the cg kernel floor, {:.2}% of the cached cg step",
        integrity.wire_ns, integrity_pct_of_floor, integrity_pct
    );

    // Compute kernels: scalar vs SIMD path, same process.
    let simd_avail = tfhpc_tensor::simd::available();
    let kernels = bench_kernels(args.smoke);
    println!(
        "kernels (vector path {}):",
        if simd_avail { "avx2" } else { "unavailable" }
    );
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "kernel", "scalar", "simd", "ratio"
    );
    for k in &kernels {
        println!(
            "{:<12} {:>6.2} {:<7} {:>6.2} {:<7} {:>7.2}x",
            k.name, k.scalar_rate, k.unit, k.simd_rate, k.unit, k.ratio
        );
    }

    // Liveness plane: detection latency + MTTR for crash / hang /
    // straggler, in deterministic virtual time.
    let (hb_period, hb_timeout, recovery) = measure_recovery();
    println!(
        "recovery (virtual time; heartbeat period {hb_period:.4}s, death timeout {hb_timeout:.4}s):"
    );
    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>9} {:>10}",
        "fault", "fault_s", "detect_lat_s", "mttr_s", "restarts", "bit_exact"
    );
    for r in &recovery {
        println!(
            "{:<10} {:>10.4} {:>12.4} {:>10.4} {:>9} {:>10}",
            r.fault, r.fault_s, r.detection_latency_s, r.mttr_s, r.restarts, r.residual_bit_exact
        );
    }

    let body = format!(
        "{{\n  \"schema\": \"tfhpc-bench-runtime-v4\",\n  \"smoke\": {},\n  \"simd\": \"{}\",\n  \"integrity\": {{\"wire_ns_per_step\": {:.1}, \"pct_of_cg_floor\": {:.2}, \"pct_of_fast_cg_step\": {:.2}}},\n  \"recovery\": {{\n    \"heartbeat_period_s\": {:.6},\n    \"heartbeat_timeout_s\": {:.6},\n    \"scenarios\": [\n{}\n    ]\n  }},\n  \"kernels\": [\n{}\n  ],\n  \"workloads\": [\n{}\n  ]\n}}\n",
        args.smoke,
        if simd_avail { "avx2" } else { "none" },
        integrity.wire_ns,
        integrity_pct_of_floor,
        integrity_pct,
        hb_period,
        hb_timeout,
        json_rows(&recovery, |r| format!("    {}", recovery_json(r))),
        json_rows(&kernels, kernel_json),
        json_rows(&results, workload_json),
    );

    write_out(&args.out, &body);

    let Some(path) = args.check else { return };
    let baseline = Baseline::read(&path);
    let mut gates = Gates::default();

    let cur = results[0].speedup;
    if let Some(base) = gates.lookup(&baseline, CG_SPEEDUP) {
        let floor = base * 0.75;
        println!("cg speedup: current {cur:.3} vs baseline {base:.3} (floor {floor:.3})");
        gates.check(cur >= floor, "within 25% of baseline".into());
    }
    // Hard gate, not baseline-relative: the integrity plane must
    // stay marginal next to the CG step's own kernels.
    gates.check(
        integrity_pct_of_floor < INTEGRITY_GATE_PCT_OF_FLOOR,
        format!(
            "integrity plane {integrity_pct_of_floor:.2}% < {INTEGRITY_GATE_PCT_OF_FLOOR}% of the cg kernel floor"
        ),
    );

    // Per-kernel vectorization floors: in-run SIMD/scalar rate
    // ratios, so the gate is machine-portable. Only meaningful
    // when the host actually has the vector path.
    if simd_avail {
        // Typical measured ratios here: matmul ≈ 2.2–3.5, triad
        // ≈ 1.45–2.0. Floors sit below the observed worst case so
        // scheduler noise on shared runners doesn't flake the job.
        for (name, floor) in [("matmul_f64", 2.0), ("triad_f64", 1.4)] {
            let k = kernels.iter().find(|k| k.name == name).unwrap();
            gates.check(
                k.ratio >= floor,
                format!(
                    "{name} simd/scalar ratio {:.2} >= floor {floor:.1}",
                    k.ratio
                ),
            );
        }
    } else {
        println!("kernel floors skipped: no AVX2+FMA on this host");
    }

    // Liveness-plane gates. These run on the DES virtual clock, so
    // they are exact on every host: silence-driven faults must be
    // detected within the death timeout plus two sweep periods of
    // quantization, every drill must restart and recover, and the
    // recovered run must reproduce the fault-free residual bit for
    // bit.
    for r in &recovery {
        let silence_driven = r.fault != "crash";
        if silence_driven && r.detection_latency_s > hb_timeout + 2.0 * hb_period + 1e-9 {
            gates.fail(format!(
                "{} detected {:.4}s after the fault (gate: timeout {:.4}s + 2 sweeps)",
                r.fault, r.detection_latency_s, hb_timeout
            ));
        }
        if r.restarts == 0 || !r.mttr_s.is_finite() || r.mttr_s <= 0.0 {
            gates.fail(format!(
                "{} never recovered (restarts {}, mttr {:.4}s)",
                r.fault, r.restarts, r.mttr_s
            ));
        }
        if !r.residual_bit_exact {
            gates.fail(format!(
                "{} recovery did not reproduce the fault-free residual",
                r.fault
            ));
        }
    }
    gates.finish(&format!(
        "recovery drills detected within {:.4}s and reproduced the residual bit-exactly",
        hb_timeout + 2.0 * hb_period
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_check_lookup_resolves_against_the_committed_baseline() {
        let text = include_str!("../../../../BENCH_runtime.json");
        let base = Baseline::parse("BENCH_runtime.json", text).unwrap();
        assert_eq!(base.get(CG_SPEEDUP), Some(1.737));
    }
}
