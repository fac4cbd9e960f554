//! The six workloads. All are closed-loop and generated by this one
//! process; each stresses a different layer, so that for every
//! optimisation one workload exercises its mechanism and another
//! bypasses it (README.md has the table).

pub mod dist;
pub mod serve;
pub mod session;
pub mod sim;

use crate::harness::Window;

/// What the driver asked for.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Alternate traced and untraced slices.
    pub trace: bool,
}

/// A named pass/fail output check beyond the per-op ones.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    pub window: Window,
    /// Normalised median set-up seconds, and the raw median.
    pub setup_s: f64,
    pub setup_raw_s: f64,
    pub checks: Vec<Check>,
}

pub struct Workload {
    pub name: &'static str,
    /// The percentile `op_us_tail` reports. p90 wherever a slice holds
    /// a hundred ops or more: ten samples beyond it in every slice,
    /// and still below the host's own interruptions (a tick every few
    /// milliseconds lands in over 1 % of 12 us ops and over 5 % of
    /// 130 us ops, and how many it hits changes by the minute: a p95
    /// of `session-matmul` moved 45 % between two sets of runs, its
    /// p90 5 %).
    pub tail_pct: f64,
    /// The layer that does most of the work.
    pub layer: &'static str,
    pub run: fn(&Ctx) -> Outcome,
}

pub static ALL: [Workload; 6] = [
    Workload {
        name: "session-cg",
        // ~4 000 ops a slice; its p90 to p97 sit on a knee of the
        // distribution that shifts with the host's mood (p90 moved
        // 30 % between runs whose p50 agreed within 2 %).
        tail_pct: 99.0,
        layer: "core (executor)",
        run: session::run_cg,
    },
    Workload {
        name: "session-matmul",
        tail_pct: 90.0,
        layer: "tensor (matmul kernel)",
        run: session::run_matmul,
    },
    Workload {
        name: "dist-reduce",
        tail_pct: 90.0,
        layer: "dist + core queues (per message)",
        run: dist::run_reduce,
    },
    Workload {
        name: "dist-stream",
        tail_pct: 90.0,
        layer: "dist wire + proto CRC32C (per byte)",
        run: dist::run_stream,
    },
    Workload {
        name: "serve-real",
        tail_pct: 90.0,
        layer: "serve (admission, batch queue, plan cache)",
        run: serve::run,
    },
    Workload {
        name: "sim-serve",
        // One op per slice, so no slice has a tail of its own; with the
        // median already the first quartile of the used slices, the
        // tail is their median. Their p80 moved 24 % between windows
        // of one 5-minute run, their median 9 %.
        tail_pct: 50.0,
        layer: "sim (DES hand-offs)",
        run: sim::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// splitmix64: the one generator every workload derives inputs from.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
