//! `sim-serve`: the discrete-event simulator's own cost on the host.
//!
//! An op is one `run_load` of `bench_serving`'s three-tenant mix (x5:
//! 1 220 jobs submitted) on the DES with the default `ServeConfig`.
//! Almost no kernel work runs; the time is one OS thread per simulated
//! process and a condvar hand-off per event, which is what the
//! resumable-process DES item wants to remove. It is the bypass for
//! every kernel and executor change, and a DES change must leave every
//! simulated field as it is: each report must be byte-identical to the
//! first, conserve jobs, and at seed 42 equal the `report` block of
//! the committed `BENCH_serving.json` (copied to
//! `expected/sim_serve_seed42.json`).

use tfhpc_apps::{RequestKind, RequestSpec};
use tfhpc_serve::{run_load, Arrival, LoadReport, ServeConfig, TenantQuota, TenantSpec};

use super::{Check, Ctx, Outcome};
use crate::harness::{setup_median, Window};
use crate::trace;

const EXPECTED_SEED_42: &str = include_str!("../../expected/sim_serve_seed42.json");
/// Jobs the mix submits in one run.
pub const JOBS_PER_RUN: u64 = 1_220;

/// `bench_serving`'s full (non-smoke) tenant mix.
pub fn tenants() -> Vec<TenantSpec> {
    const SCALE: usize = 5;
    vec![
        TenantSpec {
            name: "interactive".into(),
            arrival: Arrival::Open { rate_hz: 2000.0 },
            jobs: 120 * SCALE,
            mix: vec![
                RequestSpec::new(RequestKind::Matmul, 32),
                RequestSpec::new(RequestKind::Fft, 64),
            ],
            quota: None,
        },
        TenantSpec {
            name: "batch-cg".into(),
            arrival: Arrival::Closed {
                clients: 8,
                think_s: 0.001,
            },
            jobs: 64 * SCALE,
            mix: vec![RequestSpec::new(RequestKind::Cg, 48)],
            quota: None,
        },
        TenantSpec {
            name: "besteffort".into(),
            arrival: Arrival::Open { rate_hz: 3000.0 },
            jobs: 60 * SCALE,
            mix: vec![RequestSpec::new(RequestKind::Stream, 256)],
            quota: Some(TenantQuota {
                max_in_flight: 4,
                max_queue_depth: 4,
                node_budget: 4,
                priority: -1,
            }),
        },
    ]
}

pub fn conserves(r: &LoadReport) -> bool {
    r.submitted == JOBS_PER_RUN && r.submitted == r.completed + r.rejected + r.shed
}

pub fn one_run(load: &[TenantSpec], seed: u64) -> Option<LoadReport> {
    let _s = trace::span("sim", "run_load");
    run_load(&ServeConfig::default(), load, seed).ok()
}

pub fn run(ctx: &Ctx) -> Outcome {
    // Set-up: the tenant mix and one warm-up run, whose report every
    // later run must reproduce.
    let (setup_s, setup_raw_s, (load, first)) = setup_median(|| {
        let load = tenants();
        let first = one_run(&load, ctx.seed).map(|r| r.to_json());
        (load, first)
    });
    let mut checks = vec![Check::new("the warm-up run completed", first.is_some(), "")];
    if ctx.seed == 42 {
        checks.push(Check::new(
            "seed 42 reproduces BENCH_serving.json's report block",
            first.as_deref() == Some(EXPECTED_SEED_42),
            "",
        ));
    }
    let mut op_id = 0u64;
    let window = Window::measure(ctx.seconds, ctx.trace, |rec| {
        op_id += 1;
        trace::set_op(op_id);
        let report = rec.time_one(|| one_run(&load, ctx.seed));
        let ok = report.is_some_and(|r| conserves(&r) && Some(r.to_json()) == first);
        rec.failed = u64::from(!ok);
    });
    Outcome {
        window,
        setup_s,
        setup_raw_s,
        checks,
    }
}
