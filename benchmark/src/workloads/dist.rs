//! `dist-reduce` and `dist-stream`: real-mode `dist::launch` with
//! benchmark-owned task bodies, the paper's two uses of one wire.
//!
//! `dist-reduce` is the queue-pair reduction of Figs. 3/5 as p2p
//! latency: two workers all-reduce an 8-byte scalar through a reducer
//! task, so a round is the per-message cost of queue, rendezvous, wire
//! and transport. `dist-stream` is Fig. 7's STREAM the other way: a
//! worker `assign_add`s a 1 MiB vector into a parameter server, so an
//! invocation is the per-byte cost (CRC32C at both ends, the add).
//! A gain on one that costs the other shows.
//!
//! The app entry points cannot carry these numbers: `run_cg` real
//! hides per-iteration time behind `launch`'s 2 ms join poll and goes
//! NaN past ~50 iterations, and `run_stream`'s worker can reach the ps
//! before its variable exists (both are per-layer probes instead).
//! Here the bodies meet at a barrier before the first op, and ops are
//! timed inside the worker, so the join poll stays outside.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use tfhpc_core::{CoreError, Result};
use tfhpc_dist::{
    launch, worker_all_reduce, JobSpec, LaunchConfig, ReduceOp, Reducer, TaskCtx, TaskKey,
};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::tegner_k420;
use tfhpc_tensor::{DType, Tensor};

use super::{mix, Check, Ctx, Outcome};
use crate::harness::{setup_median, SliceRec, Window};
use crate::trace;

/// gRPC links are staged-copy: the wire's software CRC32C runs.
const PROTOCOL: Protocol = Protocol::Grpc;
pub const REDUCE_ROUNDS: usize = 2_000;
pub const STREAM_INVOCATIONS: usize = 100;
/// 1 MiB of f64. Cache-resident by design: 16 MiB payloads were bound
/// by DRAM noise (15 % spread) and told nothing about the wire code.
pub const STREAM_ELEMS: usize = 131_072;
const WARMUP_OPS: usize = 20;

/// What the timing worker hands back from one launch.
#[derive(Default)]
struct Timed {
    samples_us: Vec<f64>,
    busy_s: f64,
}

/// Worker `w`'s contribution to round `round`: a small integer, so
/// the sum is exact in f64 whatever the fold order.
fn contribution(seed: u64, round: usize, w: usize) -> f64 {
    (mix(seed, round as u64) >> (8 * w) & 0xFF) as f64
}

/// Run `op(i)` for `WARMUP_OPS` untimed and then `ops` timed calls,
/// each under op id `first_op + i`.
fn timed_ops(ops: usize, first_op: u64, mut op: impl FnMut(usize) -> Result<()>) -> Result<Timed> {
    let mut samples_us = Vec::with_capacity(ops);
    let mut start = Instant::now();
    let mut last = start;
    for i in 0..WARMUP_OPS + ops {
        if i == WARMUP_OPS {
            start = Instant::now();
            last = start;
        }
        trace::set_op(first_op + i as u64);
        op(i)?;
        let now = Instant::now();
        if i >= WARMUP_OPS {
            samples_us.push(now.duration_since(last).as_secs_f64() * 1e6);
        }
        last = now;
    }
    Ok(Timed {
        samples_us,
        busy_s: last.duration_since(start).as_secs_f64(),
    })
}

/// Launch `jobs` in real mode with `body`; the task that returns a
/// `Timed` fills `out`. Returns the ops `body` counted as wrong.
fn timed_launch(
    jobs: Vec<JobSpec>,
    out: &mut SliceRec,
    body: impl Fn(&TaskCtx, &Barrier, &AtomicU64) -> Result<Option<Timed>> + Send + Sync + 'static,
) -> Result<u64> {
    let cfg = LaunchConfig::real(tegner_k420(), jobs.clone(), PROTOCOL);
    let ready = Barrier::new(jobs.iter().map(|j| j.tasks).sum());
    let timed = Arc::new(Mutex::new(Timed::default()));
    let wrong = Arc::new(AtomicU64::new(0));
    let (timed2, wrong2) = (Arc::clone(&timed), Arc::clone(&wrong));
    launch(&cfg, move |ctx| {
        if let Some(t) = body(&ctx, &ready, &wrong2)? {
            // A poisoned lock means a task body panicked; launch
            // reports that.
            *timed2.lock().unwrap_or_else(|e| e.into_inner()) = t;
        }
        Ok(())
    })?;
    let t = std::mem::take(&mut *timed.lock().unwrap_or_else(|e| e.into_inner()));
    out.samples_us = t.samples_us;
    out.busy_s = t.busy_s;
    Ok(wrong.load(Ordering::Relaxed))
}

/// One launch of reducer x 1 + worker x 2 running `rounds` timed
/// rounds after the warm-up ones. Returns the rounds whose result was
/// wrong.
fn reduce_launch(seed: u64, rounds: usize, first_op: u64, out: &mut SliceRec) -> Result<u64> {
    let jobs = vec![JobSpec::new("reducer", 1, 0), JobSpec::new("worker", 2, 0)];
    let wrong = timed_launch(jobs, out, move |ctx, ready, wrong| {
        if ctx.job() == "reducer" {
            let reducer = Reducer::new(Arc::clone(&ctx.server), "bench", 2, ReduceOp::Sum);
            ready.wait();
            for round in 0..WARMUP_OPS + rounds {
                trace::set_op(first_op + round as u64);
                let _s = trace::span("dist", "Reducer::serve_round");
                reducer.serve_round()?;
            }
            return Ok(None);
        }
        let w = ctx.index();
        let reducer = TaskKey::new("reducer", 0);
        ready.wait();
        let timed = timed_ops(rounds, first_op, |round| {
            let mine = Tensor::scalar_f64(contribution(seed, round, w));
            let sum = {
                let _s = trace::span("dist", "worker_all_reduce");
                worker_all_reduce(&ctx.server, &reducer, "bench", w, mine, None)?
            };
            let want = contribution(seed, round, 0) + contribution(seed, round, 1);
            if sum.scalar_value_f64().map_err(CoreError::from)? != want && round >= WARMUP_OPS {
                wrong.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })?;
        Ok((w == 0).then_some(timed))
    })?;
    // Each wrong sum is seen by both workers.
    Ok(wrong.div_ceil(2))
}

/// One launch of ps x 1 + worker x 1: `invocations` timed
/// `remote_assign_add`s of `value`-filled 1 MiB vectors, then a read
/// back of the accumulator, which must hold the exact total.
fn stream_launch(value: f64, invocations: usize, first_op: u64, out: &mut SliceRec) -> Result<u64> {
    let jobs = vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 1, 0)];
    timed_launch(jobs, out, move |ctx, ready, wrong| {
        if ctx.job() == "ps" {
            let zeros = Tensor::zeros(DType::F64, [STREAM_ELEMS]);
            ctx.server.resources.create_variable("acc", zeros);
            ready.wait();
            return Ok(None);
        }
        let ps = TaskKey::new("ps", 0);
        let vector = Tensor::full_f64([STREAM_ELEMS], value);
        ready.wait();
        let timed = timed_ops(invocations, first_op, |_| {
            let _s = trace::span("dist", "remote_assign_add");
            ctx.server
                .remote_assign_add(&ps, "acc", &vector, None, None)
        })?;
        let acc = {
            let _s = trace::span("dist", "remote_var_read");
            ctx.server.remote_var_read(&ps, "acc", None)?
        };
        let want = (WARMUP_OPS + invocations) as f64 * value;
        let exact = acc.num_elements() == STREAM_ELEMS
            && acc
                .as_f64()
                .map_err(CoreError::from)?
                .iter()
                .all(|v| *v == want);
        if !exact {
            // The total is wrong: no invocation of this launch counts.
            wrong.store(invocations as u64, Ordering::Relaxed);
        }
        Ok(Some(timed))
    })
}

/// Slice = one launch. A launch that dies fails all its ops.
fn run(
    ctx: &Ctx,
    ops: usize,
    what: &'static str,
    one: impl Fn(usize, u64, &mut SliceRec) -> Result<u64>,
) -> Outcome {
    // Set-up is a launch that runs only the warm-up ops: allocation,
    // resolver, servers, task threads, first messages.
    let mut errors: Vec<String> = Vec::new();
    let (setup_s, setup_raw_s, ()) = setup_median(|| {
        if let Err(e) = one(0, 0, &mut SliceRec::default()) {
            errors.push(e.to_string());
        }
    });
    let mut next_op = 0u64;
    let window = Window::measure(ctx.seconds, ctx.trace, |rec| {
        rec.attempted = ops as u64;
        match one(ops, next_op, rec) {
            Ok(wrong) => rec.failed = wrong,
            Err(e) => {
                rec.failed = ops as u64;
                rec.samples_us.clear();
                errors.push(e.to_string());
            }
        }
        next_op += (WARMUP_OPS + ops) as u64;
    });
    errors.dedup();
    Outcome {
        window,
        setup_s,
        setup_raw_s,
        checks: vec![Check::new(what, errors.is_empty(), errors.join("; "))],
    }
}

pub fn run_reduce(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    run(
        ctx,
        REDUCE_ROUNDS,
        "every launch of reducer x 1 + worker x 2 ran to the end",
        move |rounds, op, rec| reduce_launch(seed, rounds, op, rec),
    )
}

pub fn run_stream(ctx: &Ctx) -> Outcome {
    // A small integer, so `invocations x value` is exact.
    let value = (1 + mix(ctx.seed, 7) % 8) as f64;
    run(
        ctx,
        STREAM_INVOCATIONS,
        "every launch of ps x 1 + worker x 1 ran to the end",
        move |invocations, op, rec| stream_launch(value, invocations, op, rec),
    )
}
