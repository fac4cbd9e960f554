//! Step-replay fast path: memoized execution plans + in-place buffer
//! forwarding. Covers plan-cache hit/miss accounting and generation
//! invalidation, per-signature plan separation, bit-identity of the
//! cached/forwarding executor against the rebuild-every-step path
//! (session-level, across the paper's apps in both execution modes,
//! observability on and off, and under a seeded fault schedule), and
//! the forwarding safety invariant: an in-place kernel never mutates a
//! buffer a variable, a queue or a rendezvous table still references.
//!
//! The seeded test honors `TFHPC_FAULT_SEED` (CI sweeps 17/42/1337).

use std::sync::Arc;
use tfhpc_apps::cg::gather_solution;
use tfhpc_apps::{
    run_cg_supervised, run_cg_with_store, run_fft, run_matmul, run_stream, CgConfig, CgReduction,
    FaultSetup, FftConfig, MatmulConfig, StreamConfig,
};
use tfhpc_core::{DeviceCtx, Graph, Resources, Session, SessionOptions};
use tfhpc_dist::{recv, send, CallPolicy, ClusterSpec, RendezvousKey, TaskKey, TfCluster};
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k420, tegner_k80};
use tfhpc_tensor::{ops, rng, DType, Shape, Tensor};

fn session_for(g: Arc<Graph>, step_replay: bool) -> Session {
    Session::with_options(
        g,
        Resources::new(),
        DeviceCtx::real(0),
        SessionOptions {
            inter_op_threads: 1,
            // Single-threaded kernels keep float reductions bitwise
            // reproducible across the two executors under test.
            intra_op_threads: 1,
            step_replay,
            ..SessionOptions::default()
        },
    )
}

fn vec_f64(n: usize, seed: u64) -> Tensor {
    rng::random_uniform(DType::F64, [n], seed).unwrap()
}

#[test]
fn plan_cache_hits_and_graph_mutation_invalidates() {
    let mut gb = Graph::new();
    let a = gb.constant(vec_f64(32, 1));
    let b = gb.constant(vec_f64(32, 2));
    let c = gb.add(a, b);
    let d = gb.scale(c, 2.0);
    let g = Arc::new(gb);
    let s = session_for(Arc::clone(&g), true);

    let r1 = s.run(&[d], &[]).unwrap();
    let r2 = s.run(&[d], &[]).unwrap();
    assert_eq!(s.plan_cache_stats(), (1, 1), "second run must hit");

    // Out-of-band mutation: the stamped generation goes stale and the
    // next run rebuilds, after which the fresh plan is cached again.
    g.invalidate_plans();
    let r3 = s.run(&[d], &[]).unwrap();
    assert_eq!(s.plan_cache_stats(), (1, 2), "stale plan must rebuild");
    let r4 = s.run(&[d], &[]).unwrap();
    assert_eq!(s.plan_cache_stats(), (2, 2));

    for r in [&r2, &r3, &r4] {
        assert_eq!(
            r[0].as_f64().unwrap(),
            r1[0].as_f64().unwrap(),
            "cache churn must not change results"
        );
    }
}

#[test]
fn replay_disabled_rebuilds_every_step() {
    let mut gb = Graph::new();
    let a = gb.constant(vec_f64(8, 3));
    let b = gb.neg(a);
    let s = session_for(Arc::new(gb), false);
    for _ in 0..3 {
        s.run(&[b], &[]).unwrap();
    }
    assert_eq!(
        s.plan_cache_stats(),
        (0, 3),
        "step_replay off must never hit the plan cache"
    );
}

#[test]
fn distinct_run_signatures_get_distinct_plans() {
    let mut gb = Graph::new();
    let p = gb.placeholder(DType::F64, Some(Shape::vector(16)));
    let q = gb.placeholder(DType::F64, Some(Shape::vector(16)));
    let sum = gb.add(p, q);
    let scaled = gb.scale(sum, 3.0);
    let s = session_for(Arc::new(gb), true);

    let x = vec_f64(16, 10);
    let y = vec_f64(16, 11);
    let feeds = [(p, x.clone()), (q, y.clone())];

    // Three signatures: fetch {sum}, fetch {scaled}, fetch {sum} with a
    // larger feed set. Each gets its own cached plan; repeats hit.
    s.run(&[sum], &feeds).unwrap();
    s.run(&[sum], &feeds).unwrap();
    s.run(&[scaled], &feeds).unwrap();
    s.run(&[scaled], &feeds).unwrap();
    assert_eq!(s.plan_cache_stats(), (2, 2));

    let mut gb2 = Graph::new();
    let p2 = gb2.placeholder(DType::F64, Some(Shape::vector(16)));
    let q2 = gb2.placeholder(DType::F64, Some(Shape::vector(16)));
    let c2 = gb2.add(p2, p2);
    let _ = q2;
    let s2 = session_for(Arc::new(gb2), true);
    // Same fetch, different feed-node sets: the unused extra feed still
    // changes the run signature, so a separate plan is built.
    s2.run(&[c2], &[(p2, x.clone())]).unwrap();
    s2.run(&[c2], &[(p2, x.clone()), (q2, y.clone())]).unwrap();
    assert_eq!(s2.plan_cache_stats(), (0, 2));
    s2.run(&[c2], &[(p2, x)]).unwrap();
    assert_eq!(s2.plan_cache_stats(), (1, 2));
}

/// A CG-shaped elementwise mix (shared operands, an intermediate that
/// is both fetched and consumed downstream, duplicate fetches) run for
/// several steps through both executors: every fetched tensor must
/// match bit for bit.
#[test]
fn cached_forwarding_executor_is_bit_identical_to_naive() {
    let build = || {
        let mut gb = Graph::new();
        let x = gb.placeholder(DType::F64, Some(Shape::vector(256)));
        let y = gb.placeholder(DType::F64, Some(Shape::vector(256)));
        let t1 = gb.add(x, y);
        let t2 = gb.mul(t1, x);
        let t3 = gb.neg(t2);
        let t4 = gb.scale(t1, 0.5);
        let t5 = gb.sub(t3, t4);
        let t6 = gb.add_n(&[t1, t3, t5]);
        let t7 = gb.dot(t6, t6);
        (gb, x, y, vec![t4, t6, t6, t7])
    };
    let (g1, x1, y1, f1) = build();
    let (g2, x2, y2, f2) = build();
    let fast = session_for(Arc::new(g1), true);
    let naive = session_for(Arc::new(g2), false);

    for step in 0..5u64 {
        let xv = vec_f64(256, 100 + step);
        let yv = vec_f64(256, 200 + step);
        let a = fast
            .run(&f1, &[(x1, xv.clone()), (y1, yv.clone())])
            .unwrap();
        let b = naive.run(&f2, &[(x2, xv), (y2, yv)]).unwrap();
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            let (va, vb) = (ta.as_f64().unwrap(), tb.as_f64().unwrap());
            assert_eq!(va.len(), vb.len());
            for (ea, eb) in va.iter().zip(vb) {
                assert_eq!(ea.to_bits(), eb.to_bits(), "step {step} diverged");
            }
        }
    }
    let (hits, misses) = fast.plan_cache_stats();
    assert_eq!((hits, misses), (4, 1), "steady state must replay the plan");
}

#[test]
fn forwarding_never_aliases_variable_storage() {
    let mut gb = Graph::new();
    let r = gb.var_read("v");
    // The read is this run's last (only) consumer of the variable's
    // tensor — forwarding hands it to scale_owned by value, but the
    // store still holds a reference, so the kernel must copy.
    let doubled = gb.scale(r, 2.0);
    let s = session_for(Arc::new(gb), true);
    s.resources()
        .create_variable("v", Tensor::from_f64([8], vec![1.0; 8]).unwrap());
    let held = s.resources().variable("v").unwrap().read();

    let out = s.run(&[doubled], &[]).unwrap();
    assert_eq!(out[0].as_f64().unwrap(), &[2.0; 8]);
    let after = s.resources().variable("v").unwrap().read();
    assert_eq!(
        after.as_f64().unwrap(),
        &[1.0; 8],
        "variable mutated in place"
    );
    assert_eq!(
        after.dense_ptr(),
        held.dense_ptr(),
        "variable storage must be untouched"
    );
    assert_ne!(
        out[0].dense_ptr(),
        held.dense_ptr(),
        "forwarded result must not share the variable's buffer"
    );
}

#[test]
fn forwarding_never_aliases_queued_tensors() {
    let mut gb = Graph::new();
    let c = gb.constant(Tensor::from_f64([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
    let enq = gb.queue_enqueue("q", &[c]);
    let tripled = gb.scale(c, 3.0);
    let s = session_for(Arc::new(gb), true);
    s.resources().create_queue("q", 8);

    s.run_no_fetch(&[enq, tripled], &[]).unwrap();
    s.run_no_fetch(&[enq, tripled], &[]).unwrap();
    let q = s.resources().queue("q").unwrap();
    for _ in 0..2 {
        let tuple = q.dequeue().unwrap();
        assert_eq!(
            tuple[0].as_f64().unwrap(),
            &[1.0, 2.0, 3.0, 4.0],
            "queued tensor was mutated by an in-place consumer"
        );
    }
}

#[test]
fn forwarding_never_aliases_rendezvous_held_tensors() {
    let spec = ClusterSpec::new([
        ("a".to_string(), vec!["a:1".to_string()]),
        ("b".to_string(), vec!["b:1".to_string()]),
    ]);
    let c = TfCluster::new(spec, Protocol::Rdma, None);
    let a = c.start_server(TaskKey::new("a", 0), 0, vec![]);
    let b = c.start_server(TaskKey::new("b", 0), 1, vec![]);
    let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "x", 0);

    let v = Tensor::from_f64([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    send(&a, &key, v.clone(), None).unwrap();
    // The rendezvous table still references `v`'s buffer; the owned
    // kernel must fall back to a copy rather than scaling in place.
    let doubled = ops::scale_owned(v, 2.0).unwrap();
    let got = recv(&b, &key, None).unwrap();
    assert_eq!(got.as_f64().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    assert_eq!(doubled.as_f64().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
    assert_ne!(got.dense_ptr(), doubled.dense_ptr());
}

/// One test (not several) flips the process-global `TFHPC_STEP_REPLAY`
/// switch, so concurrently running tests never observe a transient
/// value. Covers: all four apps in sim mode (virtual times and results
/// bit-identical with replay on/off, trace sink on and off), real-mode
/// CG solutions bit-identical, and a seeded transient-fault CG run
/// (`TFHPC_FAULT_SEED` sweep) equal across both executors.
#[test]
fn apps_bit_identical_with_replay_on_and_off() {
    let p80 = tegner_k80();
    let cg_cfg = CgConfig {
        n: 64,
        workers: 2,
        iterations: 6,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    };
    let sim_sweep = || {
        let (cg, _) = run_cg_with_store(&p80, &cg_cfg, None).unwrap();
        let mm = run_matmul(
            &p80,
            &MatmulConfig {
                n: 16384,
                tile: 8192,
                workers: 2,
                reducers: 1,
                protocol: Protocol::Rdma,
                simulated: true,
                prefetch: 2,
            },
        )
        .unwrap();
        let ff = run_fft(
            &p80,
            &FftConfig {
                log2_n: 20,
                tiles: 4,
                workers: 2,
                protocol: Protocol::Rdma,
                simulated: true,
                merge_cost_factor: 0.0,
            },
        )
        .unwrap();
        let st = run_stream(
            &p80,
            &StreamConfig {
                size_bytes: 1 << 20,
                invocations: 4,
                on_gpu: true,
                protocol: Protocol::Rdma,
                simulated: true,
            },
        )
        .unwrap();
        [
            cg.elapsed_s.to_bits(),
            cg.rs_final.to_bits(),
            cg.gflops.to_bits(),
            mm.elapsed_s.to_bits(),
            mm.gflops.to_bits(),
            ff.collect_s.to_bits(),
            ff.total_s.to_bits(),
            st.elapsed_s.to_bits(),
            st.mbs.to_bits(),
        ]
    };
    let real_cg = || {
        let cfg = CgConfig {
            simulated: false,
            ..cg_cfg.clone()
        };
        let (r, store) = run_cg_with_store(&p80, &cfg, None).unwrap();
        let x = gather_solution(&store, &cfg).unwrap();
        let bits: Vec<u64> = x.as_f64().unwrap().iter().map(|v| v.to_bits()).collect();
        (r.rs_final.to_bits(), bits)
    };
    let seeded_faults = || {
        let seed: u64 = std::env::var("TFHPC_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        let p = tegner_k420();
        let cfg = CgConfig {
            n: 128,
            workers: 2,
            iterations: 8,
            protocol: Protocol::Rdma,
            simulated: true,
            checkpoint_every: Some(4),
            resume: false,
            reduction: CgReduction::QueuePair,
        };
        let (clean, _) = run_cg_with_store(&p, &cfg, None).unwrap();
        let plan = FaultPlan::seeded(seed, 3, clean.elapsed_s);
        let setup =
            FaultSetup::new(plan, 0).with_retry(CallPolicy::new(10, clean.elapsed_s * 0.05));
        let (r, _, _) = run_cg_supervised(&p, &cfg, &setup).unwrap();
        (r.rs_final.to_bits(), r.elapsed_s.to_bits(), r.restarts)
    };

    std::env::set_var("TFHPC_STEP_REPLAY", "1");
    let sim_on = sim_sweep();
    let real_on = real_cg();
    let fault_on = seeded_faults();

    // Trace sink on for the replay-off pass: observability must not
    // perturb results either.
    tfhpc_obs::trace::global().enable();
    std::env::set_var("TFHPC_STEP_REPLAY", "off");
    let sim_off = sim_sweep();
    let real_off = real_cg();
    let fault_off = seeded_faults();
    tfhpc_obs::trace::global().disable();
    std::env::remove_var("TFHPC_STEP_REPLAY");

    assert_eq!(
        sim_on, sim_off,
        "sim-mode reports diverged across executors"
    );
    assert_eq!(real_on, real_off, "real-mode CG solution diverged");
    assert_eq!(fault_on, fault_off, "seeded fault run diverged");
}

// ---- the plan-time rewrite: scale → add/sub as one axpy pass -----------

/// The platform's own NaN (what `0.0 / 0.0` produces at run time), so
/// NaNs fed in and NaNs arising inside a kernel carry one bit pattern.
/// IEEE 754 leaves the payload of an operation on two *different* NaNs
/// to the implementation (and the compiler may commute an add), so that
/// one case is outside every bit-identity contract in this repository.
fn native_nan() -> f64 {
    std::hint::black_box(0.0f64) / std::hint::black_box(0.0f64)
}

/// `n` values cycling through ordinary numbers and the IEEE corner
/// cases, phase-shifted by `phase` so two operands meet every pairing.
fn corner_values(n: usize, phase: usize) -> Vec<f64> {
    let pool = [
        1.5,
        -0.0,
        f64::INFINITY,
        -2.25,
        native_nan(),
        f64::MIN_POSITIVE / 4.0,
        f64::NEG_INFINITY,
        0.0,
        -f64::MIN_POSITIVE / 16.0,
        1e300,
        -1e-300,
        3.0,
    ];
    (0..n)
        .map(|i| pool[(i * (phase + 1) + phase) % pool.len()])
        .collect()
}

fn tensor_of(dtype: DType, values: &[f64]) -> Tensor {
    match dtype {
        DType::F32 => {
            Tensor::from_f32([values.len()], values.iter().map(|v| *v as f32).collect()).unwrap()
        }
        _ => Tensor::from_f64([values.len()], values.to_vec()).unwrap(),
    }
}

fn bits_of(t: &Tensor) -> Vec<u64> {
    match t.dtype() {
        DType::F32 => t
            .as_f32()
            .unwrap()
            .iter()
            .map(|v| v.to_bits() as u64)
            .collect(),
        _ => t.as_f64().unwrap().iter().map(|v| v.to_bits()).collect(),
    }
}

/// How many product nodes (`MulScalar`, `Scale`, `Mul`) a real-mode run
/// folded into their readers, read off what `run_with_metadata` reports
/// anyway: a folded scale hands its measured interval to its reader and
/// records exactly zero device seconds (DESIGN.md §10), while one run
/// as itself records the wall time of its kernel.
fn folded_products(meta: &tfhpc_core::RunMetadata) -> usize {
    meta.step_stats
        .ops
        .iter()
        .filter(|op| {
            ["MulScalar_", "Scale_", "Mul_"]
                .iter()
                .any(|p| op.name.starts_with(p))
        })
        .filter(|op| op.device_seconds == 0.0)
        .count()
}

/// `y ± s·v` as the two graph nodes, in every shape the rule looks at.
#[derive(Clone, Copy, Debug)]
struct ScaleThenCombine {
    dtype: DType,
    len: usize,
    subtract: bool,
    product_first: bool,
    /// `Scale{factor}` instead of `MulScalar` with a fed scalar.
    constant_factor: Option<f64>,
    /// Route both vectors through a `neg` first, so the pair sees
    /// uniquely-held intermediates (the in-place variants) rather than
    /// caller-held feeds (the allocating one).
    unique_operands: bool,
}

impl ScaleThenCombine {
    /// Returns (graph, [v, y, s] placeholders, fetch).
    fn build(&self) -> (Graph, [tfhpc_core::NodeId; 3], tfhpc_core::NodeId) {
        let mut g = Graph::new();
        let v = g.placeholder(self.dtype, Some(Shape::vector(self.len)));
        let y = g.placeholder(self.dtype, Some(Shape::vector(self.len)));
        let s = g.placeholder(DType::F64, Some(Shape::scalar()));
        let (vv, yy) = if self.unique_operands {
            (g.neg(v), g.neg(y))
        } else {
            (v, y)
        };
        let product = match self.constant_factor {
            Some(factor) => g.scale(vv, factor),
            None => g.mul_scalar(vv, s),
        };
        let (a, b) = if self.product_first {
            (product, yy)
        } else {
            (yy, product)
        };
        let out = if self.subtract {
            g.sub(a, b)
        } else {
            g.add(a, b)
        };
        (g, [v, y, s], out)
    }

    /// Whether the rule should fold the pair: always, except that
    /// `product − y` has no axpy form.
    fn fusable(&self) -> bool {
        !(self.subtract && self.product_first)
    }
}

#[test]
fn fused_scale_add_sub_is_bit_identical_to_the_two_kernels() {
    let scalars = [
        0.75,
        -3.5,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        native_nan(),
        f64::MIN_POSITIVE / 8.0,
        1e200,
    ];
    let mut fused_programs = 0;
    for dtype in [DType::F32, DType::F64] {
        for len in [1usize, 7, 64, 1000] {
            for subtract in [false, true] {
                for product_first in [false, true] {
                    for unique_operands in [false, true] {
                        for constant_factor in [None, Some(-1.25)] {
                            let case = ScaleThenCombine {
                                dtype,
                                len,
                                subtract,
                                product_first,
                                constant_factor,
                                unique_operands,
                            };
                            let (g1, ph1, out1) = case.build();
                            let (g2, ph2, out2) = case.build();
                            let fast = session_for(Arc::new(g1), true);
                            let reference = session_for(Arc::new(g2), false);
                            let v = tensor_of(dtype, &corner_values(len, 0));
                            let y = tensor_of(dtype, &corner_values(len, 4));
                            let feeds = |ph: [tfhpc_core::NodeId; 3], s: f64| {
                                vec![
                                    (ph[0], v.clone()),
                                    (ph[1], y.clone()),
                                    (ph[2], Tensor::scalar_f64(s)),
                                ]
                            };
                            let (_, meta) = fast
                                .run_with_metadata(&[out1], &feeds(ph1, scalars[0]))
                                .unwrap();
                            assert_eq!(
                                folded_products(&meta),
                                usize::from(case.fusable()),
                                "{case:?}: rewrite fired (or not) against the rule"
                            );
                            let (_, meta) = reference
                                .run_with_metadata(&[out2], &feeds(ph2, scalars[0]))
                                .unwrap();
                            assert_eq!(folded_products(&meta), 0);
                            fused_programs += usize::from(case.fusable());

                            for s in scalars {
                                if constant_factor.is_some() && s != scalars[0] {
                                    continue;
                                }
                                let want = reference.run(&[out2], &feeds(ph2, s)).unwrap();
                                // Twice: cache hits on a recycled frame.
                                for _ in 0..2 {
                                    let got = fast.run(&[out1], &feeds(ph1, s)).unwrap();
                                    assert_eq!(got[0].dtype(), want[0].dtype());
                                    assert_eq!(
                                        bits_of(&got[0]),
                                        bits_of(&want[0]),
                                        "{case:?} s={s:e}: fused result diverged"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(fused_programs > 0, "the rewrite never fired");
}

#[test]
fn rewrite_leaves_every_pair_it_must_not_touch() {
    let n = 32;
    let v_t = vec_f64(n, 71);
    let y_t = vec_f64(n, 72);
    let s_t = Tensor::scalar_f64(-0.375);
    // Each case: build the graph around (v, y, s) placeholders, name
    // the fetches. None of them may lose an instruction.
    type Build = fn(&mut Graph, [tfhpc_core::NodeId; 3]) -> Vec<tfhpc_core::NodeId>;
    let cases: [(&str, Build); 6] = [
        ("product fetched", |g, [v, y, s]| {
            let p = g.mul_scalar(v, s);
            vec![g.add(y, p), p]
        }),
        ("product read twice", |g, [v, y, s]| {
            let p = g.mul_scalar(v, s);
            let a = g.add(y, p);
            vec![a, g.sub(a, p)]
        }),
        ("control edge on the product", |g, [v, y, s]| {
            let p = g.mul_scalar(v, s);
            let a = g.add(y, p);
            let after = g.neg(a);
            g.add_control(after, p).unwrap();
            vec![after]
        }),
        ("reader on another device", |g, [v, y, s]| {
            let p = g.with_device(tfhpc_core::Placement::Cpu, |g| g.mul_scalar(v, s));
            vec![g.with_device(tfhpc_core::Placement::Gpu(0), |g| g.add(y, p))]
        }),
        ("elementwise product, not a scale", |g, [v, y, _]| {
            let p = g.mul(v, y);
            vec![g.add(y, p)]
        }),
        ("reader not the next node", |g, [v, y, s]| {
            let p = g.mul_scalar(v, s);
            let between = g.neg(y);
            vec![g.add(between, p)]
        }),
    ];
    for (what, build) in cases {
        let make = |step_replay: bool| {
            let mut g = Graph::new();
            let ph = [
                g.placeholder(DType::F64, Some(Shape::vector(n))),
                g.placeholder(DType::F64, Some(Shape::vector(n))),
                g.placeholder(DType::F64, Some(Shape::scalar())),
            ];
            let fetches = build(&mut g, ph);
            let s = Session::with_options(
                Arc::new(g),
                Resources::new(),
                // One GPU, so the cross-device case really splits.
                DeviceCtx::real(1),
                SessionOptions {
                    inter_op_threads: 1,
                    intra_op_threads: 1,
                    step_replay,
                    ..SessionOptions::default()
                },
            );
            (s, ph, fetches)
        };
        let (fast, ph, fetches) = make(true);
        let (reference, ph_ref, fetches_ref) = make(false);
        let feeds = |ph: [tfhpc_core::NodeId; 3]| {
            vec![
                (ph[0], v_t.clone()),
                (ph[1], y_t.clone()),
                (ph[2], s_t.clone()),
            ]
        };
        let (got, meta) = fast.run_with_metadata(&fetches, &feeds(ph)).unwrap();
        assert_eq!(folded_products(&meta), 0, "{what}: the rewrite fired");
        let want = reference.run(&fetches_ref, &feeds(ph_ref)).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(bits_of(a), bits_of(b), "{what}: values diverged");
        }
    }
}

#[test]
fn debugger_sessions_run_unfused_and_see_the_product() {
    let case = ScaleThenCombine {
        dtype: DType::F64,
        len: 16,
        subtract: true,
        product_first: false,
        constant_factor: None,
        unique_operands: false,
    };
    let (g, ph, out) = case.build();
    let g = Arc::new(g);
    let cache = Arc::new(tfhpc_core::SharedPlanCache::unbounded());
    let mut plain = session_for(Arc::clone(&g), true);
    let mut watched = session_for(Arc::clone(&g), true);
    plain.set_plan_cache(Arc::clone(&cache));
    watched.set_plan_cache(Arc::clone(&cache));
    let dbg = Arc::new(tfhpc_core::Debugger::new());
    watched.set_debugger(Arc::clone(&dbg));

    let feeds = vec![
        (ph[0], vec_f64(16, 5)),
        (ph[1], vec_f64(16, 6)),
        (ph[2], Tensor::scalar_f64(2.5)),
    ];
    let (a, plain_meta) = plain.run_with_metadata(&[out], &feeds).unwrap();
    let (b, watched_meta) = watched.run_with_metadata(&[out], &feeds).unwrap();
    assert_eq!(folded_products(&plain_meta), 1);
    assert_eq!(folded_products(&watched_meta), 0);
    assert_eq!(bits_of(&a[0]), bits_of(&b[0]));
    // Same graph, same devices, same fetches — two cache entries.
    assert_eq!(cache.stats().entries, 2);
    assert_eq!(cache.stats().hits, 0);
    // Every kernel's output was recorded (placeholders never are),
    // the otherwise elided product included.
    let watched_nodes: Vec<String> = dbg.watches().into_iter().map(|w| w.node).collect();
    for node in g.nodes().iter().filter(|n| !n.inputs.is_empty()) {
        assert!(
            watched_nodes.contains(&node.name),
            "debugger missed `{}`",
            node.name
        );
    }
}

// ---- frames, fetch extraction and sharing ------------------------------

#[test]
fn duplicate_fetches_return_the_value_twice() {
    let build = || {
        let mut g = Graph::new();
        let p = g.placeholder(DType::F64, Some(Shape::vector(24)));
        let x = g.scale(p, 1.5);
        (g, p, x)
    };
    let (g1, p1, x1) = build();
    let (g2, p2, x2) = build();
    let fast = session_for(Arc::new(g1), true);
    let reference = session_for(Arc::new(g2), false);
    let fed = vec_f64(24, 9);
    let want = reference.run(&[x2, x2], &[(p2, fed.clone())]).unwrap();
    for _ in 0..2 {
        let got = fast.run(&[x1, x1], &[(p1, fed.clone())]).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(bits_of(&got[0]), bits_of(&got[1]));
        assert_eq!(bits_of(&got[0]), bits_of(&want[0]));
    }
    // `[x, x]` and `[x]` are one run signature.
    fast.run(&[x1], &[(p1, fed)]).unwrap();
    assert_eq!(fast.plan_cache_stats(), (2, 1));
}

#[test]
fn fetched_placeholders_and_constants_stay_intact_across_runs() {
    let constant = Tensor::from_f64([6], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    let mut g = Graph::new();
    let c = g.constant(constant.clone());
    let p = g.placeholder(DType::F64, Some(Shape::vector(6)));
    // An in-place chain hanging off each: the first `neg` reads its
    // operand for the last time and would overwrite a buffer it owned.
    let pn = g.neg(p);
    let chain_p = g.scale(pn, 3.0);
    let cn = g.neg(c);
    let chain_c = g.scale(cn, 3.0);
    let s = session_for(Arc::new(g), true);

    let fed = Tensor::from_f64([6], vec![-1.0, 0.5, 2.0, -4.0, 8.0, 0.25]).unwrap();
    let fed_bits = bits_of(&fed);
    let mut fetched_const = None;
    for _ in 0..2 {
        // Chains only (p and c are last-read by their `neg`), then
        // the sources themselves as fetches.
        let chains = s.run(&[chain_p, chain_c], &[(p, fed.clone())]).unwrap();
        assert_eq!(chains[0].as_f64().unwrap()[0], 3.0);
        assert_eq!(chains[1].as_f64().unwrap()[0], -3.0);
        let sources = s.run(&[p, c], &[(p, fed.clone())]).unwrap();
        assert_eq!(bits_of(&sources[0]), fed_bits);
        assert_eq!(bits_of(&sources[1]), bits_of(&constant));
        fetched_const = Some(sources[1].clone());
    }
    assert_eq!(bits_of(&fed), fed_bits, "the fed tensor was overwritten");
    // Feed a fetched constant back in: it still shares the graph's
    // buffer, so the chain must copy rather than scale it in place.
    let fed_back = fetched_const.unwrap();
    s.run(&[chain_p], &[(p, fed_back)]).unwrap();
    let again = s.run(&[c], &[(p, fed)]).unwrap();
    assert_eq!(
        bits_of(&again[0]),
        bits_of(&constant),
        "the graph's constant was overwritten"
    );
}

#[test]
fn a_failed_run_leaves_the_session_usable() {
    let mut g = Graph::new();
    let p = g.placeholder(DType::F64, Some(Shape::vector(8)));
    let q = g.placeholder(DType::F64, Some(Shape::vector(8)));
    let a = g.neg(p);
    let b = g.add(a, q);
    let s = session_for(Arc::new(g), true);
    let (x, y) = (vec_f64(8, 1), vec_f64(8, 2));
    let good = s.run(&[b], &[(p, x.clone()), (q, y.clone())]).unwrap();

    // Same fetch, `q` missing: the run dies half way, registers full.
    // (A different feed set is a different run signature, so feed `q`
    // a wrong shape to fail on the *cached* program too.)
    assert!(s.run(&[b], &[(p, x.clone())]).is_err());
    let wrong = vec_f64(9, 3);
    assert!(s.run(&[b], &[(p, x.clone()), (q, wrong)]).is_err());

    for _ in 0..2 {
        let again = s.run(&[b], &[(p, x.clone()), (q, y.clone())]).unwrap();
        assert_eq!(bits_of(&again[0]), bits_of(&good[0]));
    }
}

#[test]
fn concurrent_runs_on_one_session_agree() {
    let case = ScaleThenCombine {
        dtype: DType::F64,
        len: 512,
        subtract: false,
        product_first: false,
        constant_factor: None,
        unique_operands: true,
    };
    let (g, ph, out) = case.build();
    let s = session_for(Arc::new(g), true);
    let feeds = vec![
        (ph[0], vec_f64(512, 31)),
        (ph[1], vec_f64(512, 32)),
        (ph[2], Tensor::scalar_f64(0.125)),
    ];
    let want = bits_of(&s.run(&[out], &feeds).unwrap()[0]);
    const THREADS: usize = 4;
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    // All four enter `run` together, so frames are
                    // checked out of the one shared plan concurrently.
                    barrier.wait();
                    (0..50)
                        .map(|_| bits_of(&s.run(&[out], &feeds).unwrap()[0]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for got in h.join().expect("runner thread panicked") {
                assert_eq!(got, want);
            }
        }
    });
    assert_eq!(s.plan_cache_stats(), (THREADS as u64 * 50, 1));
}
