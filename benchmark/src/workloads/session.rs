//! `session-cg` and `session-matmul`: one client, op = one
//! `Session::run` of a fixed graph under step replay.
//!
//! The two are each other's bypass. The 49-node unrolled CG step is
//! executor-bound (a dozen microseconds against a kernel floor a few
//! times smaller, so dispatch, arena and allocation are most of it);
//! the matmul step is kernel-bound (eight 64^3 products, ~90 % of the
//! time inside `tensor::matmul`). Executor work should move the first
//! and leave the second flat; kernel work the reverse.
//!
//! The graphs are `bench_runtime`'s, with inputs drawn from `--seed`.

use std::sync::Arc;

use tfhpc_core::{DeviceCtx, Graph, NodeId, Resources, Session, SessionOptions};
use tfhpc_tensor::{matmul, ops, rng, DType, Shape, Tensor};

use super::{mix, Check, Ctx, Outcome};
use crate::harness::{setup_median, Window};
use crate::trace;

pub const CG_N: usize = 64;
pub const CG_UNROLL: usize = 4;
pub const MATMUL_N: usize = 64;
pub const MATMUL_K: usize = 8;
const WARMUP_STEPS: usize = 20;
const SLICE_MS: f64 = 50.0;

/// A graph with everything one step needs.
pub struct Step {
    pub graph: Graph,
    pub fetches: Vec<NodeId>,
    pub feeds: Vec<(NodeId, Tensor)>,
}

fn uniform(shape: impl Into<Shape>, seed: u64) -> Tensor {
    rng::random_uniform(DType::F64, shape, seed).expect("f64 is a float dtype")
}

fn cg_inputs(seed: u64) -> (Tensor, Tensor, Tensor, Tensor) {
    let a = uniform([CG_N, CG_N], mix(seed, 1));
    let x0 = uniform([CG_N], mix(seed, 2));
    let r0 = uniform([CG_N], mix(seed, 3));
    let p0 = r0.clone();
    (a, x0, r0, p0)
}

/// `CG_UNROLL` conjugate-gradient iterations over fed x, r, p.
pub fn build_cg(seed: u64) -> Step {
    let (a_t, x0, r0, p0) = cg_inputs(seed);
    let mut g = Graph::new();
    let a = g.constant(a_t);
    let ph_x = g.placeholder(DType::F64, Some(Shape::vector(CG_N)));
    let ph_r = g.placeholder(DType::F64, Some(Shape::vector(CG_N)));
    let ph_p = g.placeholder(DType::F64, Some(Shape::vector(CG_N)));
    let (mut x, mut r, mut p) = (ph_x, ph_r, ph_p);
    let mut rs = g.dot(r, r);
    for _ in 0..CG_UNROLL {
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
    Step {
        graph: g,
        fetches: vec![x, r, p, rs],
        feeds: vec![(ph_x, x0), (ph_r, r0), (ph_p, p0)],
    }
}

/// The CG step's math with direct tensor ops: the kernel floor.
/// Returns the same four outputs the graph fetches.
pub fn cg_floor(seed: u64) -> impl FnMut() -> Vec<Tensor> {
    let (a, x0, r0, p0) = cg_inputs(seed);
    let scalar = |t: Tensor| t.scalar_value_f64().expect("dot yields a scalar");
    move || {
        let mut x = x0.clone();
        let mut r = r0.clone();
        let mut p = p0.clone();
        let mut rs = scalar(ops::dot(&r, &r).expect("equal lengths"));
        for _ in 0..CG_UNROLL {
            let q = matmul::matvec(&a, &p).expect("shapes match");
            let alpha = rs / scalar(ops::dot(&p, &q).expect("equal lengths"));
            x = ops::axpy_owned(alpha, p.clone(), x).expect("equal lengths");
            r = ops::axpy_owned(-alpha, q, r).expect("equal lengths");
            let rs1 = scalar(ops::dot(&r, &r).expect("equal lengths"));
            p = ops::axpy_owned(rs1 / rs, p, r.clone()).expect("equal lengths");
            rs = rs1;
        }
        vec![x, r, p, Tensor::scalar_f64(rs)]
    }
}

fn matmul_inputs(seed: u64) -> Vec<(Tensor, Tensor)> {
    (0..MATMUL_K as u64)
        .map(|i| {
            (
                uniform([MATMUL_N, MATMUL_N], mix(seed, 100 + i)),
                uniform([MATMUL_N, MATMUL_N], mix(seed, 200 + i)),
            )
        })
        .collect()
}

/// `MATMUL_K` independent products, summed and rescaled.
pub fn build_matmul(seed: u64) -> Step {
    let mut g = Graph::new();
    let products: Vec<NodeId> = matmul_inputs(seed)
        .into_iter()
        .map(|(a, b)| {
            let a = g.constant(a);
            let b = g.constant(b);
            g.matmul(a, b)
        })
        .collect();
    let sum = g.add_n(&products);
    let out = g.scale(sum, 0.5);
    Step {
        graph: g,
        fetches: vec![out],
        feeds: vec![],
    }
}

pub fn matmul_floor(seed: u64) -> impl FnMut() -> Vec<Tensor> {
    let pairs = matmul_inputs(seed);
    move || {
        let products: Vec<Tensor> = pairs
            .iter()
            .map(|(a, b)| matmul::matmul(a, b).expect("shapes match"))
            .collect();
        let sum = ops::add_n_owned(products).expect("equal shapes");
        vec![ops::scale_owned(sum, 0.5).expect("float dtype")]
    }
}

/// A step-replay session with the sequential executor and one
/// intra-op worker: the configuration the floors are taken under.
pub fn session_for(graph: Graph) -> Session {
    Session::with_options(
        Arc::new(graph),
        Resources::new(),
        DeviceCtx::real(0),
        SessionOptions {
            inter_op_threads: 1,
            intra_op_threads: 1,
            step_replay: true,
            ..SessionOptions::default()
        },
    )
}

pub fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| match (x.as_f64(), y.as_f64()) {
                (Ok(x), Ok(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
                }
                _ => false,
            })
}

/// Largest element-wise distance relative to `max(1, |b|)`.
pub fn max_rel_err(a: &[Tensor], b: &[Tensor]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        match (x.as_f64(), y.as_f64()) {
            (Ok(x), Ok(y)) if x.len() == y.len() => {
                for (u, v) in x.iter().zip(y) {
                    let err = (u - v).abs() / v.abs().max(1.0);
                    // NaN compares false with everything: catch it.
                    worst = if err.is_nan() {
                        f64::INFINITY
                    } else {
                        worst.max(err)
                    };
                }
            }
            _ => return f64::INFINITY,
        }
    }
    worst
}

/// A ready session with its first step's outputs.
pub struct Ready {
    pub session: Session,
    pub fetches: Vec<NodeId>,
    pub feeds: Vec<(NodeId, Tensor)>,
    pub first: Vec<Tensor>,
}

/// Everything `setup_s` covers: inputs, graph, session, warm-up.
pub fn ready(step: Step) -> Ready {
    let session = session_for(step.graph);
    let first = session
        .run(&step.fetches, &step.feeds)
        .expect("first step runs");
    for _ in 1..WARMUP_STEPS {
        session
            .run(&step.fetches, &step.feeds)
            .expect("warm-up step runs");
    }
    Ready {
        session,
        fetches: step.fetches,
        feeds: step.feeds,
        first,
    }
}

fn run(
    ctx: &Ctx,
    build: fn(u64) -> Step,
    floor: &mut dyn FnMut() -> Vec<Tensor>,
    span_name: &'static str,
) -> Outcome {
    let (setup_s, setup_raw_s, r) = setup_median(|| ready(build(ctx.seed)));
    let reference = tfhpc_parallel::with_worker_limit(1, floor);
    let err = max_rel_err(&r.first, &reference);
    let mut checks = vec![Check::new(
        "session outputs within 1e-12 of the direct-op floor",
        err <= 1e-12,
        format!("max relative error {err:e}"),
    )];

    // Per op: the run succeeds and its last fetched value has the
    // first step's bits. Per slice: every output is bit-identical to
    // the first step's.
    let spot = |out: &[Tensor]| {
        out.last()
            .and_then(|t| t.as_f64().ok())
            .and_then(|v| v.last().map(|x| x.to_bits()))
    };
    let want = spot(&r.first);
    let mut stable = true;
    let mut op_id = 0u64;
    let window = Window::measure(ctx.seconds, ctx.trace, |rec| {
        let mut last = Vec::new();
        rec.time_ops(SLICE_MS, || {
            op_id += 1;
            trace::set_op(op_id);
            let _s = trace::span("core", span_name);
            match r.session.run(&r.fetches, &r.feeds) {
                Ok(out) => {
                    let ok = spot(&out) == want;
                    last = out;
                    ok
                }
                Err(_) => false,
            }
        });
        stable &= same_bits(&last, &r.first);
    });
    checks.push(Check::new(
        "outputs bit-stable from the first step to the last",
        stable,
        "",
    ));
    let (hits, misses) = r.session.plan_cache_stats();
    checks.push(Check::new(
        "one plan built, every later step a cache hit",
        misses == 1 && hits + 1 == WARMUP_STEPS as u64 + window_ops(&window),
        format!("{hits} hits, {misses} misses"),
    ));
    Outcome {
        window,
        setup_s,
        setup_raw_s,
        checks,
    }
}

fn window_ops(w: &Window) -> u64 {
    w.slices.iter().map(|s| s.rec.attempted).sum()
}

pub fn run_cg(ctx: &Ctx) -> Outcome {
    run(ctx, build_cg, &mut cg_floor(ctx.seed), "Session::run cg")
}

pub fn run_matmul(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        build_matmul,
        &mut matmul_floor(ctx.seed),
        "Session::run matmul",
    )
}
