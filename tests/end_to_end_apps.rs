//! End-to-end integration tests: each of the paper's four applications
//! run through the full stack (Slurm allocation → resolver → servers →
//! dataflow sessions → queues/reducers), in both execution modes.

use tfhpc_apps::cg::{
    gather_solution, run_cg, run_cg_with_store, serial_cg, CgConfig, CgReduction,
};
use tfhpc_apps::fft::{run_fft, run_fft_with_store, FftConfig};
use tfhpc_apps::matmul::{run_matmul, verify_small, MatmulConfig};
use tfhpc_apps::stream::{run_stream, StreamConfig};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{all_platforms, kebnekaise_v100, tegner_k80};
use tfhpc_tensor::ops;

#[test]
fn stream_runs_on_every_platform_and_protocol() {
    for platform in all_platforms() {
        for proto in Protocol::ALL {
            let r = run_stream(
                &platform,
                &StreamConfig {
                    size_bytes: 8 << 20,
                    invocations: 10,
                    on_gpu: true,
                    protocol: proto,
                    simulated: true,
                },
            )
            .unwrap_or_else(|e| panic!("{} {}: {e}", platform.label, proto.name()));
            assert!(r.mbs > 0.0 && r.elapsed_s > 0.0);
        }
    }
}

#[test]
fn matmul_distributed_equals_direct_product() {
    // Real mode, dense tiles, 2 workers + 2 reducers.
    let err = verify_small(96, 24, 2).expect("verified run");
    assert!(err < 1e-2, "max abs error {err}");
}

#[test]
fn matmul_single_worker_degenerate_case() {
    let r = run_matmul(
        &tegner_k80(),
        &MatmulConfig {
            n: 16384,
            tile: 8192,
            workers: 1,
            reducers: 1,
            protocol: Protocol::Rdma,
            simulated: true,
            prefetch: 2,
        },
    )
    .expect("1-worker run");
    assert!(r.gflops > 0.0);
}

#[test]
fn cg_distributed_matches_serial_reference() {
    let cfg = CgConfig {
        n: 96,
        workers: 3,
        iterations: 25,
        protocol: Protocol::Mpi,
        simulated: false,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let (report, store) = run_cg_with_store(&tegner_k80(), &cfg, None).expect("distributed");
    let x = gather_solution(&store, &cfg).expect("solution");

    let a = tfhpc_tensor::rng::random_spd(cfg.n, 0xC6, cfg.n as f64);
    let ones = tfhpc_tensor::Tensor::full_f64([cfg.n], 1.0);
    let b = tfhpc_tensor::matmul::matvec(&a, &ones).unwrap();
    let (x_ref, rs_ref) = serial_cg(&a, &b, cfg.iterations).expect("serial");

    let diff = ops::sub(&x, &x_ref).unwrap();
    let err = ops::norm2(&diff).unwrap().scalar_value_f64().unwrap();
    assert!(err < 1e-8, "solution divergence {err}");
    assert!(report.rs_final <= rs_ref * 1.01 + 1e-12);
}

#[test]
fn cg_checkpoint_restart_is_bit_exact() {
    let base = CgConfig {
        n: 64,
        workers: 2,
        iterations: 16,
        protocol: Protocol::Grpc,
        simulated: false,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let platform = tegner_k80();
    let (_r, full_store) = run_cg_with_store(&platform, &base, None).unwrap();
    let x_full = gather_solution(&full_store, &base).unwrap();

    let first = CgConfig {
        iterations: 8,
        checkpoint_every: Some(8),
        ..base.clone()
    };
    let (_r1, store) = run_cg_with_store(&platform, &first, None).unwrap();
    let second = CgConfig {
        iterations: 16,
        resume: true,
        reduction: CgReduction::QueuePair,
        ..base.clone()
    };
    let (_r2, store) = run_cg_with_store(&platform, &second, Some(store)).unwrap();
    let x_resumed = gather_solution(&store, &base).unwrap();

    assert_eq!(
        x_full.as_f64().unwrap(),
        x_resumed.as_f64().unwrap(),
        "restart must reproduce the uninterrupted trajectory exactly"
    );
}

#[test]
fn cg_resume_without_store_is_rejected() {
    let cfg = CgConfig {
        n: 64,
        workers: 2,
        iterations: 4,
        protocol: Protocol::Grpc,
        simulated: false,
        checkpoint_every: None,
        resume: true,
        reduction: CgReduction::QueuePair,
    };
    assert!(run_cg_with_store(&tegner_k80(), &cfg, None).is_err());
}

#[test]
fn cg_simulated_on_v100() {
    let r = run_cg(
        &kebnekaise_v100(),
        &CgConfig {
            n: 16384,
            workers: 4,
            iterations: 25,
            protocol: Protocol::Rdma,
            simulated: true,
            checkpoint_every: None,
            resume: false,
            reduction: CgReduction::QueuePair,
        },
    )
    .expect("sim run");
    assert!(r.gflops > 0.0);
}

#[test]
fn fft_distributed_equals_whole_transform() {
    let cfg = FftConfig {
        log2_n: 11,
        tiles: 4,
        workers: 3,
        protocol: Protocol::Rdma,
        simulated: false,
        merge_cost_factor: 0.0,
    };
    let (_r, store) = run_fft_with_store(&tegner_k80(), &cfg).expect("fft");
    let got = store.get(&[-1]).unwrap();
    let signal =
        tfhpc_apps::fft::populate_signal(&tfhpc_core::TileStore::new("ref"), &cfg, 0xF0).unwrap();
    let mut want = signal;
    tfhpc_tensor::fft::fft_inplace(&mut want);
    let gv = got.as_c128().unwrap();
    let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
    for (a, b) in gv.iter().zip(&want) {
        assert!((*a - *b).abs() < 1e-6 * scale);
    }
}

#[test]
fn fft_collection_excludes_serial_merge() {
    let r = run_fft(
        &tegner_k80(),
        &FftConfig {
            log2_n: 26,
            tiles: 16,
            workers: 4,
            protocol: Protocol::Rdma,
            simulated: true,
            merge_cost_factor: 1.0,
        },
    )
    .expect("fft");
    assert!(r.total_s > r.collect_s * 1.5, "merge should dominate");
}

#[test]
fn all_apps_run_under_each_protocol_simulated() {
    let platform = tegner_k80();
    for proto in Protocol::ALL {
        run_matmul(
            &platform,
            &MatmulConfig {
                n: 16384,
                tile: 8192,
                workers: 2,
                reducers: 2,
                protocol: proto,
                simulated: true,
                prefetch: 2,
            },
        )
        .unwrap();
        run_cg(
            &platform,
            &CgConfig {
                n: 8192,
                workers: 2,
                iterations: 10,
                protocol: proto,
                simulated: true,
                checkpoint_every: None,
                resume: false,
                reduction: CgReduction::QueuePair,
            },
        )
        .unwrap();
        run_fft(
            &platform,
            &FftConfig {
                log2_n: 24,
                tiles: 8,
                workers: 2,
                protocol: proto,
                simulated: true,
                merge_cost_factor: 1.0,
            },
        )
        .unwrap();
    }
}
