//! SIMD/scalar parity suite: every vectorized kernel must reproduce
//! its scalar twin bit for bit — over odd lengths, unaligned slice
//! offsets and NaN/Inf payloads — and all four applications must
//! produce bit-identical end-to-end results with the vector path on
//! and off (the `TFHPC_SIMD=0/1` contract), including chaos-mode runs
//! under a seeded fault schedule (`TFHPC_FAULT_SEED`).
//!
//! Two deliberate scope notes:
//!
//! * **NaN bits are canonicalized** before comparison. Neither IEEE 754
//!   nor Rust/LLVM pins the sign/payload of a *produced* NaN (the
//!   scalar twins are themselves auto-vectorized, and LLVM may commute
//!   `fadd`/`fmul` operands, which flips which operand's NaN payload
//!   survives). The contract is therefore: identical bits for every
//!   non-NaN result — including ±0.0 and ±Inf — and NaN-for-NaN.
//!
//! * **Chaos runs guard the control plane.** Mid-run crashes and seeded
//!   corruption exist only under the virtual-time simulator — real
//!   mode pins virtual time at 0 so scheduled windows never fire — and
//!   simulated payloads are synthetic (metadata-only): recovery
//!   decisions, checkpoint bytes and the final report must not change
//!   with the SIMD mode. The plain app runs are real-mode and compare
//!   numbers; both of CG's reductions fold in a fixed order (the
//!   queue-pair reducer slots partials by worker, the ring combines in
//!   ring order), so they are run-to-run reproducible on real threads.
//!
//! Dispatch is flipped in-process with `simd::set_forced`, the same
//! switch the `TFHPC_SIMD` env var drives; a process-wide lock keeps
//! concurrently running tests from interleaving mode flips (the
//! results would still agree — that is the contract under test — but
//! each branch should genuinely execute the path it names).

use std::sync::Mutex;
use tfhpc_apps::cg::{gather_solution, run_cg_supervised, run_cg_with_store};
use tfhpc_apps::fft::run_fft_with_store;
use tfhpc_apps::matmul::c_key;
use tfhpc_apps::stream::run_stream_supervised;
use tfhpc_apps::{CgConfig, CgReduction, FaultSetup, FftConfig, MatmulConfig, StreamConfig};
use tfhpc_core::TensorProto;
use tfhpc_dist::CallPolicy;
use tfhpc_proto::Message;
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};
use tfhpc_tensor::{matmul, simd, Complex64, DType, Tensor};

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` once on the forced-scalar path and once on the forced-SIMD
/// path (a no-op downgrade on hosts without AVX2), restoring automatic
/// dispatch afterwards.
fn both_paths<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_forced(Some(false));
    let scalar = f();
    simd::set_forced(Some(true));
    let vector = f();
    simd::set_forced(None);
    (scalar, vector)
}

/// Deterministic mixed payload: ordinary values with NaN, ±Inf and
/// ±0.0 sprinkled in, so parity covers the non-finite propagation
/// rules too.
fn f64_data(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let k = i
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(31);
            match k % 19 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => 0.0,
                _ => ((k >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0,
            }
        })
        .collect()
}

fn f32_data(n: usize, seed: u64) -> Vec<f32> {
    f64_data(n, seed).into_iter().map(|x| x as f32).collect()
}

/// `to_bits` with every NaN mapped to one canonical pattern (see the
/// module docs: produced-NaN sign/payload is not a stable contract).
fn bits64(x: &[f64]) -> Vec<u64> {
    x.iter()
        .map(|v| {
            if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

fn bits32(x: &[f32]) -> Vec<u32> {
    x.iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

fn bit64(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Odd lengths around and below the vector widths, plus bigger blocks
/// that exercise the unrolled main loops and their tails.
const LENS: [usize; 8] = [0, 1, 3, 7, 15, 33, 100, 1023];
/// Slice offsets that shift the data off 32-byte alignment.
const OFFS: [usize; 3] = [0, 1, 3];

#[test]
fn elementwise_f64_matches_scalar_twin_bitwise() {
    macro_rules! check {
        ($oop:path, $lhs:path, $rhs:path) => {
            for n in LENS {
                for off in OFFS {
                    let x = f64_data(n + off, 5);
                    let y = f64_data(n + off, 11);
                    let (x, y) = (&x[off..], &y[off..]);
                    let (a, b) = both_paths(|| {
                        let mut out = vec![0.0f64; n];
                        $oop(x, y, &mut out);
                        let mut xl = x.to_vec();
                        $lhs(&mut xl, y);
                        let mut yr = y.to_vec();
                        $rhs(x, &mut yr);
                        (bits64(&out), bits64(&xl), bits64(&yr))
                    });
                    assert_eq!(a, b, "{} n={n} off={off}", stringify!($oop));
                }
            }
        };
    }
    check!(simd::add_f64, simd::add_lhs_f64, simd::add_rhs_f64);
    check!(simd::sub_f64, simd::sub_lhs_f64, simd::sub_rhs_f64);
    check!(simd::mul_f64, simd::mul_lhs_f64, simd::mul_rhs_f64);
    check!(simd::div_f64, simd::div_lhs_f64, simd::div_rhs_f64);
}

#[test]
fn elementwise_f32_matches_scalar_twin_bitwise() {
    macro_rules! check {
        ($oop:path, $lhs:path, $rhs:path) => {
            for n in LENS {
                for off in OFFS {
                    let x = f32_data(n + off, 7);
                    let y = f32_data(n + off, 13);
                    let (x, y) = (&x[off..], &y[off..]);
                    let (a, b) = both_paths(|| {
                        let mut out = vec![0.0f32; n];
                        $oop(x, y, &mut out);
                        let mut xl = x.to_vec();
                        $lhs(&mut xl, y);
                        let mut yr = y.to_vec();
                        $rhs(x, &mut yr);
                        (bits32(&out), bits32(&xl), bits32(&yr))
                    });
                    assert_eq!(a, b, "{} n={n} off={off}", stringify!($oop));
                }
            }
        };
    }
    check!(simd::add_f32, simd::add_lhs_f32, simd::add_rhs_f32);
    check!(simd::sub_f32, simd::sub_lhs_f32, simd::sub_rhs_f32);
    check!(simd::mul_f32, simd::mul_lhs_f32, simd::mul_rhs_f32);
    check!(simd::div_f32, simd::div_lhs_f32, simd::div_rhs_f32);
}

#[test]
fn scale_and_axpy_match_scalar_twin_bitwise() {
    for n in LENS {
        for off in OFFS {
            let x = f64_data(n + off, 17);
            let y = f64_data(n + off, 23);
            let (x, y) = (&x[off..], &y[off..]);
            let (a, b) = both_paths(|| {
                let mut s1 = vec![0.0f64; n];
                simd::scale_f64(x, 1.5, &mut s1);
                let mut s2 = x.to_vec();
                simd::scale_in_f64(&mut s2, -0.5);
                let mut a1 = vec![0.0f64; n];
                simd::axpy_f64(2.5, x, y, &mut a1);
                let mut a2 = y.to_vec();
                simd::axpy_into_y_f64(-1.25, x, &mut a2);
                let mut a3 = x.to_vec();
                simd::axpy_into_x_f64(3.5, &mut a3, y);
                (
                    bits64(&s1),
                    bits64(&s2),
                    bits64(&a1),
                    bits64(&a2),
                    bits64(&a3),
                )
            });
            assert_eq!(a, b, "scale/axpy f64 n={n} off={off}");

            let xf = f32_data(n + off, 29);
            let yf = f32_data(n + off, 31);
            let (xf, yf) = (&xf[off..], &yf[off..]);
            let (a, b) = both_paths(|| {
                let mut s1 = vec![0.0f32; n];
                simd::scale_f32(xf, 1.5, &mut s1);
                let mut s2 = xf.to_vec();
                simd::scale_in_f32(&mut s2, -0.5);
                let mut a1 = vec![0.0f32; n];
                simd::axpy_f32(2.5, xf, yf, &mut a1);
                let mut a2 = yf.to_vec();
                simd::axpy_into_y_f32(-1.25, xf, &mut a2);
                let mut a3 = xf.to_vec();
                simd::axpy_into_x_f32(3.5, &mut a3, yf);
                (
                    bits32(&s1),
                    bits32(&s2),
                    bits32(&a1),
                    bits32(&a2),
                    bits32(&a3),
                )
            });
            assert_eq!(a, b, "scale/axpy f32 n={n} off={off}");
        }
    }
}

#[test]
fn reductions_match_scalar_twin_bitwise() {
    for n in LENS {
        for off in OFFS {
            let x = f64_data(n + off, 37);
            let y = f64_data(n + off, 41);
            let (x, y) = (&x[off..], &y[off..]);
            let (a, b) = both_paths(|| {
                [
                    bit64(simd::dot_f64(x, y)),
                    bit64(simd::sum_f64(x)),
                    bit64(simd::sumsq_f64(x)),
                ]
            });
            assert_eq!(a, b, "f64 reductions n={n} off={off}");

            let xf = f32_data(n + off, 43);
            let yf = f32_data(n + off, 47);
            let (xf, yf) = (&xf[off..], &yf[off..]);
            let (a, b) = both_paths(|| {
                [
                    bit64(simd::dot_f32(xf, yf)),
                    bit64(simd::sum_f32(xf)),
                    bit64(simd::sumsq_f32(xf)),
                ]
            });
            assert_eq!(a, b, "f32 reductions n={n} off={off}");
        }
    }
}

#[test]
fn fft_butterflies_match_scalar_twin_bitwise() {
    for n in [0usize, 1, 2, 3, 7, 33, 512] {
        let raw = f64_data(6 * n, 53);
        let mk = |lo: usize| -> Vec<Complex64> {
            (0..n)
                .map(|i| Complex64::new(raw[lo + 2 * i], raw[lo + 2 * i + 1]))
                .collect()
        };
        let (a0, b0, tw) = (mk(0), mk(2 * n), mk(4 * n));
        let (s, v) = both_paths(|| {
            let mut a = a0.clone();
            let mut b = b0.clone();
            // SAFETY: a and b are distinct buffers of length n.
            unsafe {
                simd::butterflies(a.as_mut_ptr(), b.as_mut_ptr(), tw.as_ptr(), n);
            }
            (bits64(simd::c128_as_f64(&a)), bits64(simd::c128_as_f64(&b)))
        });
        assert_eq!(s, v, "butterflies n={n}");
    }
}

#[test]
fn matmul_and_matvec_match_scalar_path_bitwise() {
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (7, 5, 11),
        (4, 3, 8),
        (33, 17, 9),
        (5, 64, 6),
    ] {
        let a = tfhpc_tensor::rng::random_uniform(DType::F64, [m, k], 61).unwrap();
        let b = tfhpc_tensor::rng::random_uniform(DType::F64, [k, n], 67).unwrap();
        let x = tfhpc_tensor::rng::random_uniform(DType::F64, [k], 71).unwrap();
        let (s, v) = both_paths(|| {
            let c = matmul::matmul(&a, &b).unwrap();
            let y = matmul::matvec(&a.clone(), &x).unwrap();
            let t = matmul::transpose(&a).unwrap();
            (
                bits64(c.as_f64().unwrap()),
                bits64(y.as_f64().unwrap()),
                bits64(t.as_f64().unwrap()),
            )
        });
        assert_eq!(s, v, "matmul ({m},{k},{n})");
    }
}

// ---- application-level parity -------------------------------------------

fn proto_bytes(t: &Tensor) -> Vec<u8> {
    TensorProto(t.clone()).to_bytes().unwrap()
}

#[test]
fn stream_end_to_end_bit_identical_across_paths() {
    let p = tegner_k420();
    let cfg = StreamConfig {
        size_bytes: 1 << 12,
        invocations: 12,
        simulated: false,
        ..StreamConfig::default()
    };
    let (s, v) = both_paths(|| {
        let (_, stats, acc) = run_stream_supervised(&p, &cfg, 3, &FaultSetup::default()).unwrap();
        assert_eq!(stats.restarts, 0);
        proto_bytes(&acc)
    });
    assert_eq!(s, v, "STREAM accumulator diverged between SIMD paths");
}

#[test]
fn matmul_end_to_end_bit_identical_across_paths() {
    let p = tegner_k80();
    let cfg = MatmulConfig {
        n: 96,
        tile: 24,
        workers: 2,
        reducers: 2,
        protocol: Protocol::Rdma,
        simulated: false,
        prefetch: 2,
    };
    let (s, v) = both_paths(|| {
        let (_, _, store) =
            tfhpc_apps::run_matmul_supervised(&p, &cfg, 2, &FaultSetup::default()).unwrap();
        let mut all = Vec::new();
        for i in 0..cfg.nt() {
            for j in 0..cfg.nt() {
                all.extend(proto_bytes(&store.get(&c_key(i, j)).unwrap()));
            }
        }
        all
    });
    assert_eq!(s, v, "matmul C tiles diverged between SIMD paths");
}

#[test]
fn cg_end_to_end_bit_identical_across_paths() {
    let p = tegner_k80();
    // The paper's queue-pair reducer and the ring all-reduce.
    for reduction in [CgReduction::QueuePair, CgReduction::Ring] {
        let cfg = CgConfig {
            n: 96,
            workers: 3,
            iterations: 25,
            protocol: Protocol::Mpi,
            simulated: false,
            checkpoint_every: None,
            resume: false,
            reduction,
        };
        let (s, v) = both_paths(|| {
            let (report, store) = run_cg_with_store(&p, &cfg, None).unwrap();
            let x = gather_solution(&store, &cfg).unwrap();
            (bit64(report.rs_final), bits64(x.as_f64().unwrap()))
        });
        assert_eq!(
            s, v,
            "{reduction:?}: CG solution diverged between SIMD paths"
        );
    }
}

#[test]
fn fft_end_to_end_bit_identical_across_paths() {
    let p = tegner_k80();
    let cfg = FftConfig {
        log2_n: 11,
        tiles: 4,
        workers: 3,
        protocol: Protocol::Rdma,
        simulated: false,
        merge_cost_factor: 0.0,
    };
    let (s, v) = both_paths(|| {
        let (_, store) = run_fft_with_store(&p, &cfg).unwrap();
        proto_bytes(&store.get(&[-1]).unwrap())
    });
    assert_eq!(s, v, "merged FFT spectrum diverged between SIMD paths");
}

// ---- chaos-mode parity ---------------------------------------------------

fn fault_seed() -> u64 {
    std::env::var("TFHPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn chaos_plan(n_nodes: usize, crash_node: usize, horizon_s: f64) -> FaultPlan {
    FaultPlan::new()
        .crash(crash_node, horizon_s * 0.5)
        .link_corrupt(crash_node, horizon_s * 0.6, horizon_s * 1.0)
        .merged(FaultPlan::seeded_corruption(
            fault_seed(),
            n_nodes,
            horizon_s,
        ))
}

fn retry_for(horizon_s: f64) -> CallPolicy {
    CallPolicy::new(7, horizon_s * 0.05)
}

// Chaos runs live under the virtual-time simulator (real mode pins the
// clock at 0, so scheduled crash/corruption windows never fire). These
// guard the recovery control plane: restart decisions, retransmits and
// the recovered output must be byte-identical across SIMD modes.

#[test]
fn stream_chaos_recovery_bit_identical_across_paths() {
    let p = tegner_k420();
    let cfg = StreamConfig {
        size_bytes: 1 << 16,
        invocations: 12,
        ..StreamConfig::default()
    };
    let (s, v) = both_paths(|| {
        let (clean_report, _, _) =
            run_stream_supervised(&p, &cfg, 3, &FaultSetup::default()).unwrap();
        let t = clean_report.elapsed_s;
        let faults = FaultSetup::new(chaos_plan(2, 1, t), 3).with_retry(retry_for(t));
        let (report, stats, acc) = run_stream_supervised(&p, &cfg, 3, &faults).unwrap();
        assert!(stats.restarts >= 1, "seed {}: no restart", fault_seed());
        (bit64(report.mbs), proto_bytes(&acc))
    });
    assert_eq!(
        s,
        v,
        "seed {}: chaos STREAM outcome diverged between SIMD paths",
        fault_seed()
    );
}

#[test]
fn cg_chaos_recovery_bit_identical_across_paths() {
    let p = tegner_k420();
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
    let (s, v) = both_paths(|| {
        let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();
        let t = clean.elapsed_s;
        let faults = FaultSetup::new(chaos_plan(3, 2, t), 3).with_retry(retry_for(t));
        let (report, _, _) = run_cg_supervised(&p, &cfg, &faults).unwrap();
        assert!(report.restarts >= 1, "seed {}: no restart", fault_seed());
        (bit64(report.rs_final), bit64(clean.rs_final))
    });
    assert_eq!(
        s,
        v,
        "seed {}: chaos CG trajectory diverged between SIMD paths",
        fault_seed()
    );
}
