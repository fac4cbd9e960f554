//! `serve-real`: the serving path on the wall clock, which
//! `bench_serving` (virtual time only) never measures.
//!
//! One real-mode `SessionServer` with one worker and a zero batch
//! window (so the number is the server's work, not a configured
//! wait); two closed-loop client threads each submit a job and wait
//! for it, over the Matmul 32 / Fft 64 / Cg 48 / Stream 256 mix. An
//! op is one job: admission, batch queue, the shared plan cache (new
//! feeds on every request, unlike `session-*`'s replay), the step
//! itself and the result hand-off.

use std::sync::Arc;
use std::time::Instant;

use tfhpc_apps::{digest_tensors, RequestKind, RequestSpec};
use tfhpc_core::{DeviceCtx, NodeId, Resources, Session, SessionOptions};
use tfhpc_serve::{JobPayload, JobResult, ServeConfig, SessionServer};

use super::{mix, Check, Ctx, Outcome};
use crate::harness::{setup_median, SliceRec, Window};
use crate::trace;

pub const CLIENTS: usize = 2;
/// Distinct request seeds per spec; each `(spec, seed)` recurs, and
/// every recurrence must produce the digest computed up front.
const SEEDS_PER_SPEC: usize = 64;
const WARMUP_JOBS: usize = 40;
const SLICE_MS: f64 = 50.0;

pub const MIX: [RequestSpec; 4] = [
    RequestSpec {
        kind: RequestKind::Matmul,
        size: 32,
    },
    RequestSpec {
        kind: RequestKind::Fft,
        size: 64,
    },
    RequestSpec {
        kind: RequestKind::Cg,
        size: 48,
    },
    RequestSpec {
        kind: RequestKind::Stream,
        size: 256,
    },
];

pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        batch_window_s: 0.0,
        ..ServeConfig::default()
    }
}

pub fn request_seed(seed: u64, spec: usize, slot: usize) -> u64 {
    mix(seed, (spec * SEEDS_PER_SPEC + slot) as u64)
}

/// One spec run through a bare session: what the server adds is the
/// distance from this.
pub struct Direct {
    spec: RequestSpec,
    session: Session,
    placeholders: Vec<NodeId>,
    fetches: Vec<NodeId>,
}

impl Direct {
    pub fn new(spec: RequestSpec) -> Direct {
        let built = spec.build();
        Direct {
            spec,
            session: Session::with_options(
                built.graph,
                Resources::new(),
                DeviceCtx::real(0),
                SessionOptions {
                    step_replay: true,
                    ..SessionOptions::sequential()
                },
            ),
            placeholders: built.placeholders,
            fetches: built.fetches,
        }
    }

    pub fn digest(&self, seed: u64) -> u64 {
        let feeds: Vec<_> = self
            .placeholders
            .iter()
            .copied()
            .zip(self.spec.feeds(seed, false))
            .collect();
        digest_tensors(
            &self
                .session
                .run(&self.fetches, &feeds)
                .expect("canonical step runs"),
        )
    }
}

/// The digest every `(spec, slot)` request must come back with.
pub fn expected_digests(seed: u64) -> Vec<Vec<u64>> {
    MIX.iter()
        .enumerate()
        .map(|(s, spec)| {
            let direct = Direct::new(*spec);
            (0..SEEDS_PER_SPEC)
                .map(|slot| direct.digest(request_seed(seed, s, slot)))
                .collect()
        })
        .collect()
}

/// Submit request number `n` of a client and wait for it.
pub fn one_job(
    server: &SessionServer,
    tenant: &str,
    seed: u64,
    n: usize,
) -> (usize, usize, Option<JobResult>) {
    let spec = n % MIX.len();
    let slot = (n / MIX.len()) % SEEDS_PER_SPEC;
    let payload = JobPayload::Step {
        spec: MIX[spec],
        seed: request_seed(seed, spec, slot),
    };
    let id = {
        let _s = trace::span("serve", "submit");
        server.submit(tenant, payload)
    };
    let result = id.ok().map(|id| {
        let _s = trace::span("serve", "wait");
        server.wait(id)
    });
    (spec, slot, result)
}

/// A warm server and the digests its answers must carry.
pub struct Ready {
    pub server: Arc<SessionServer>,
    expected: Vec<Vec<u64>>,
    seed: u64,
    /// Where each client is in its request sequence.
    next: [usize; CLIENTS],
    slices: u64,
}

impl Drop for Ready {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// Everything `setup_s` covers: expected digests, server start,
/// warm-up jobs (which build the four plans).
pub fn ready(seed: u64) -> Ready {
    let expected = expected_digests(seed);
    let server = SessionServer::start_real(config());
    for n in 0..WARMUP_JOBS {
        one_job(&server, "warmup", seed, n);
    }
    server.take_results();
    Ready {
        server,
        expected,
        seed,
        next: [0; CLIENTS],
        slices: 0,
    }
}

impl Ready {
    /// One slice: both clients submit and wait for `SLICE_MS`.
    pub fn slice(&mut self, rec: &mut SliceRec) {
        let (server, expected, seed, slice_no) =
            (&self.server, &self.expected, self.seed, self.slices);
        let start = Instant::now();
        let parts: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let from = self.next[c];
                    scope.spawn(move || {
                        let tenant = format!("client-{c}");
                        let (mut samples, mut failed, mut n) = (Vec::new(), 0u64, from);
                        let begin = Instant::now();
                        let mut last = begin;
                        loop {
                            trace::set_op(slice_no << 32 | (n as u64) << 1 | c as u64);
                            let op = trace::span("bench", "serve job");
                            let (spec, slot, result) = one_job(server, &tenant, seed, n);
                            drop(op);
                            let now = Instant::now();
                            let ok = result.is_some_and(|res| {
                                res.error.is_none() && res.digest == expected[spec][slot]
                            });
                            failed += u64::from(!ok);
                            samples.push(now.duration_since(last).as_secs_f64() * 1e6);
                            last = now;
                            n += 1;
                            if now.duration_since(begin).as_secs_f64() * 1e3 >= SLICE_MS {
                                return (samples, failed, n);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        rec.busy_s = start.elapsed().as_secs_f64();
        for (c, (samples, failed, n)) in parts.into_iter().enumerate() {
            rec.attempted += samples.len() as u64;
            rec.failed += failed;
            rec.samples_us.extend(samples);
            self.next[c] = n;
        }
        // The server keeps every result until asked; drop them here,
        // outside the timed part.
        self.server.take_results();
        self.slices += 1;
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, setup_raw_s, mut r) = setup_median(|| ready(ctx.seed));
    let window = Window::measure(ctx.seconds, ctx.trace, |rec| r.slice(rec));
    let stats = r.server.plan_cache().stats();
    let checks = vec![Check::new(
        "four request shapes planned once each on the shared cache",
        stats.misses == MIX.len() as u64 && stats.entries == MIX.len(),
        format!(
            "{} hits, {} misses, {} entries",
            stats.hits, stats.misses, stats.entries
        ),
    )];
    Outcome {
        window,
        setup_s,
        setup_raw_s,
        checks,
    }
}
