//! Seeded random streams for synthetic workload generation.
//!
//! The serving plane's load generators draw inter-arrival times, job
//! mixes and think times from these streams inside the DES, so a whole
//! multi-tenant traffic schedule is a pure function of its seed —
//! byte-reproducible across runs and machines. Same splitmix64 core as
//! [`crate::fault::FaultPlan::seeded`].

/// One independent, deterministic random stream (splitmix64).
#[derive(Debug, Clone)]
pub struct SeededStream {
    state: u64,
}

/// splitmix64's state increment, γ.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `z >> 11 < 2^53` converts exactly: the lanes agree with `unit()` bit for bit.
fn unit_of(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether the CPU has the features [`fill_lanes`] enables, detected once.
#[cfg(target_arch = "x86_64")]
fn has_lanes() -> bool {
    use std::arch::is_x86_feature_detected as has;
    static LANES: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *LANES.get_or_init(|| has!("avx512f") && has!("avx512dq") && has!("avx512vl"))
}

/// `out[k]` is draw `k + 1`, `mix(state + (k+1)·γ)`: a counter loop the
/// compiler vectorises (`vpmullq`, `vcvtuqq2pd`). Returns the new state.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn fill_lanes(state: u64, out: &mut [f64]) -> u64 {
    for (k, o) in (1u64..).zip(out.iter_mut()) {
        *o = unit_of(mix(state.wrapping_add(GAMMA.wrapping_mul(k))));
    }
    state.wrapping_add(GAMMA.wrapping_mul(out.len() as u64))
}

impl SeededStream {
    /// Stream seeded by `seed`.
    pub fn new(seed: u64) -> SeededStream {
        SeededStream { state: seed }
    }

    /// A decorrelated substream: stream `index` of `seed`. Used to
    /// give each tenant / client its own independent schedule from one
    /// top-level seed.
    pub fn substream(seed: u64, index: u64) -> SeededStream {
        let mut state = seed;
        let a = splitmix64(&mut state);
        let mut stream = SeededStream {
            state: a ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        };
        // Burn one draw so adjacent indices decorrelate immediately.
        stream.next_u64();
        stream
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform draw in `[0, 1)` with 53-bit resolution.
    pub fn unit(&mut self) -> f64 {
        unit_of(self.next_u64())
    }

    /// The next `out.len()` [`unit`](Self::unit) draws, bit for bit,
    /// leaving the stream where that many `unit()` calls would.
    pub fn fill_unit(&mut self, out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if has_lanes() {
            // SAFETY: the CPU has the features `fill_lanes` enables.
            self.state = unsafe { fill_lanes(self.state, out) };
            return;
        }
        self.fill_sequential(out);
    }

    fn fill_sequential(&mut self, out: &mut [f64]) {
        out.iter_mut().for_each(|o| *o = self.unit());
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponential draw with the given mean (Poisson inter-arrivals of
    /// rate `1/mean_s` — the open-loop generator's clock).
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 1 - unit() ∈ (0, 1]: ln never sees 0.
        -mean * (1.0 - self.unit()).ln()
    }

    /// Uniform index in `[0, n)`; `n` must be > 0.
    pub fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.unit() * n as f64) as usize % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let a: Vec<u64> = {
            let mut s = SeededStream::new(42);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = SeededStream::new(42);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut s = SeededStream::new(43);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn substreams_decorrelate() {
        let mut s0 = SeededStream::substream(7, 0);
        let mut s1 = SeededStream::substream(7, 1);
        let d0: Vec<u64> = (0..4).map(|_| s0.next_u64()).collect();
        let d1: Vec<u64> = (0..4).map(|_| s1.next_u64()).collect();
        assert_ne!(d0, d1);
    }

    /// `fill_unit`, its sequential path and, where the CPU has them,
    /// its lanes each give what `unit()` draws one at a time, and leave
    /// the stream at the same place.
    #[test]
    fn fill_unit_matches_sequential_draws() {
        type Path = fn(&mut SeededStream, &mut [f64]);
        let mut paths: Vec<(&str, Path)> = vec![
            ("fill_unit", SeededStream::fill_unit),
            ("sequential", SeededStream::fill_sequential),
        ];
        #[cfg(target_arch = "x86_64")]
        if has_lanes() {
            // SAFETY: `has_lanes` found the features.
            paths.push(("lanes", |s, out| {
                s.state = unsafe { fill_lanes(s.state, out) }
            }));
        }
        for seed in [0, 42, u64::MAX - 3] {
            for n in 0..=40 {
                let mut seq = SeededStream::substream(seed, 5);
                let want: Vec<u64> = (0..n).map(|_| seq.unit().to_bits()).collect();
                let after = seq.next_u64();
                for (name, fill) in &paths {
                    let mut s = SeededStream::substream(seed, 5);
                    let mut out = vec![f64::NAN; n];
                    fill(&mut s, &mut out);
                    let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "{name} seed {seed} n {n}");
                    assert_eq!(s.next_u64(), after, "{name} seed {seed} n {n}");
                }
            }
        }
    }

    #[test]
    fn draws_are_in_range() {
        let mut s = SeededStream::new(1);
        for _ in 0..1000 {
            let u = s.unit();
            assert!((0.0..1.0).contains(&u));
            let e = s.exp(0.5);
            assert!(e.is_finite() && e >= 0.0);
            let p = s.pick(7);
            assert!(p < 7);
            let v = s.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }
}
