//! `bench_transport` — TF-gRPC-Bench-style microbenchmark suite for
//! the pluggable transport layer and the all-reduce algorithm family,
//! on the simulated Kebnekaise K80 Verbs fabric.
//!
//! Sweeps:
//!   p2p        payload 1 KiB–64 MiB × transport (staged vs zero-copy)
//!              over a 1→1 stream — the "RPC Considered Harmful" fig.
//!   fanin      P→1 incast at a fixed payload, per transport.
//!   alltoall   P×(P−1) full exchange at a fixed payload, per transport.
//!   allreduce  payload × group size × algorithm (ring / tree / RHD /
//!              auto) × transport, every point checked bit-identical
//!              to the central reducer's canonical fold.
//!   corruption ring all-reduce under link-corruption windows of
//!              increasing width, with retransmit accounting.
//!
//! Every number is DES virtual time, so two runs emit byte-identical
//! JSON — the CI determinism check `cmp`s them.
//!
//! Flags:
//!   --smoke          short run (CI): fewer sizes/groups
//!   --out <path>     where to write the JSON (default BENCH_transport.json)
//!   --check <path>   gate against a committed baseline: exit 1 if the
//!                    tree is not fastest at the smallest payload, the
//!                    ring/RHD are not fastest at the largest, zero-copy
//!                    does not beat staged-copy on the Verbs wire, any
//!                    sweep point lost bit-parity, or a measured time
//!                    drifted more than 25% from the baseline.

use std::sync::Arc;
use tfhpc_bench::{json_rows, print_table, write_out, Args, Baseline, Gates, Row};
use tfhpc_dist::{
    all_reduce, all_reduce_auto, canonical_reduce, launch, AllReduceAlgo, CallPolicy, JobSpec,
    LaunchConfig, ReduceOp, TaskCtx, TaskKey,
};
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::kebnekaise_k80;
use tfhpc_tensor::{DType, Tensor};

const TRANSPORTS: &[&str] = &["staged", "zerocopy"];

fn p2p_sizes(smoke: bool) -> &'static [u64] {
    if smoke {
        &[1 << 10, 64 << 10, 1 << 20]
    } else {
        &[1 << 10, 8 << 10, 64 << 10, 1 << 20, 8 << 20, 64 << 20]
    }
}

fn allreduce_sizes(smoke: bool) -> &'static [u64] {
    if smoke {
        &[1 << 10, 64 << 10]
    } else {
        &[1 << 10, 32 << 10, 1 << 20, 4 << 20]
    }
}

fn allreduce_groups(smoke: bool) -> &'static [usize] {
    if smoke {
        &[2, 4]
    } else {
        &[2, 4, 6, 8]
    }
}

/// Virtual seconds `body` takes on `workers` one-GPU tasks of the
/// simulated Kebnekaise Verbs fabric with `TFHPC_TRANSPORT` forced to
/// `transport`. The knob is resolved at cluster creation, so scoping the
/// env var around the launch is race-free (the bench drives launches
/// sequentially).
fn launch_seconds<F>(
    transport: &str,
    workers: usize,
    faults: Option<(FaultPlan, CallPolicy)>,
    body: F,
) -> f64
where
    F: Fn(TaskCtx) -> tfhpc_core::Result<()> + Send + Sync + 'static,
{
    let mut cfg = LaunchConfig::simulated(
        kebnekaise_k80(),
        vec![JobSpec::new("worker", workers, 1)],
        Protocol::Rdma,
    );
    if let Some((plan, retry)) = faults {
        cfg = cfg.with_faults(plan).with_retry(retry);
    }
    std::env::set_var("TFHPC_TRANSPORT", transport);
    let out = launch(&cfg, body);
    std::env::remove_var("TFHPC_TRANSPORT");
    out.expect("sweep launch (parity holds on every sweep point)")
        .elapsed_s
}

/// Virtual seconds per message for `senders` workers each streaming
/// `rounds` messages of `bytes` into per-sender queues on worker 0
/// (`senders == 1` is the 1→1 sweep, more is the P→1 incast).
fn fanin_seconds(transport: &str, senders: usize, bytes: u64, rounds: usize) -> f64 {
    let elapsed = launch_seconds(transport, senders + 1, None, move |ctx| {
        let w = ctx.index();
        if w == 0 {
            // Create every incoming queue before touching any of
            // them, so no sender stalls in queue resolution.
            let queues: Vec<_> = (1..=senders)
                .map(|s| {
                    ctx.server
                        .resources
                        .get_or_create_queue(&format!("in.{s}"), 2)
                })
                .collect();
            for _ in 0..rounds {
                for q in &queues {
                    q.dequeue()?;
                }
            }
        } else {
            let t = Tensor::synthetic(DType::F64, [bytes as usize / 8], w as u64);
            for _ in 0..rounds {
                ctx.server.remote_enqueue(
                    &TaskKey::new("worker", 0),
                    &format!("in.{w}"),
                    vec![t.clone()],
                    Some(0),
                )?;
            }
        }
        Ok(())
    });
    elapsed / (rounds * senders) as f64
}

/// Virtual seconds per full exchange round for `p` workers each
/// sending `bytes` to every peer (all-to-all personalized exchange).
fn alltoall_seconds(transport: &str, p: usize, bytes: u64, rounds: usize) -> f64 {
    let elapsed = launch_seconds(transport, p, None, move |ctx| {
        let w = ctx.index();
        let t = Tensor::synthetic(DType::F64, [bytes as usize / 8], w as u64);
        // Pre-create all incoming queues with headroom for the whole
        // run: every worker sends before it drains, so undersized
        // queues (or late creation) would deadlock the exchange.
        let queues: Vec<_> = (0..p)
            .filter(|&peer| peer != w)
            .map(|peer| {
                ctx.server
                    .resources
                    .get_or_create_queue(&format!("a2a.{peer}"), rounds + 1)
            })
            .collect();
        for _ in 0..rounds {
            for peer in 0..p {
                if peer != w {
                    ctx.server.remote_enqueue(
                        &TaskKey::new("worker", peer),
                        &format!("a2a.{w}"),
                        vec![t.clone()],
                        Some(0),
                    )?;
                }
            }
            for q in &queues {
                q.dequeue()?;
            }
        }
        Ok(())
    });
    elapsed / rounds as f64
}

/// Deterministic rank-1 f64 leaf for `worker` (sign-mixed so the
/// canonical-order contract is actually load-bearing: float addition
/// here is order-sensitive).
fn leaf(worker: usize, n: usize) -> Tensor {
    let v: Vec<f64> = (0..n)
        .map(|k| {
            let m = ((worker * 31 + k * 7) % 1009) as f64;
            if (worker + k).is_multiple_of(3) {
                -1.5 * m
            } else {
                0.25 * m + 0.125
            }
        })
        .collect();
    Tensor::from_f64([n], v).expect("leaf tensor")
}

/// One all-reduce sweep point: virtual seconds per round, with every
/// worker's result checked bit-identical to the canonical central
/// fold. `algo = None` is `all_reduce_auto`. Panics on parity loss —
/// a wrong-bits transport layer has no business emitting numbers.
fn allreduce_seconds(
    transport: &str,
    p: usize,
    bytes: u64,
    algo: Option<AllReduceAlgo>,
    rounds: usize,
    faults: Option<(FaultPlan, CallPolicy)>,
    retransmits_out: Option<Arc<std::sync::Mutex<u64>>>,
) -> f64 {
    let n = bytes as usize / 8;
    let expected: Vec<u64> = canonical_reduce(ReduceOp::Sum, (0..p).map(|w| leaf(w, n)).collect())
        .expect("canonical fold")
        .as_f64()
        .expect("f64 fold")
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let expected = Arc::new(expected);
    let elapsed = launch_seconds(transport, p, faults, move |ctx| {
        let w = ctx.index();
        let group: Vec<TaskKey> = (0..p).map(|i| TaskKey::new("worker", i)).collect();
        let mut last = None;
        for _ in 0..rounds {
            let v = leaf(w, n);
            let r = match algo {
                Some(a) => all_reduce(&ctx.server, &group, w, v, Some(0), ReduceOp::Sum, a)?,
                None => all_reduce_auto(&ctx.server, &group, w, v, Some(0), ReduceOp::Sum)?,
            };
            last = Some(r);
        }
        let got: Vec<u64> = last
            .expect("at least one round")
            .as_f64()?
            .iter()
            .map(|x| x.to_bits())
            .collect();
        if got != expected[..] {
            return Err(tfhpc_core::CoreError::data_loss(format!(
                "worker {w}: all-reduce result diverged from the canonical fold"
            )));
        }
        if let Some(out) = &retransmits_out {
            *out.lock().unwrap() += ctx.server.resources.retransmits_total();
        }
        Ok(())
    });
    elapsed / rounds as f64
}

fn algo_label(a: Option<AllReduceAlgo>) -> &'static str {
    match a {
        Some(a) => a.name(),
        None => "auto",
    }
}

struct P2pEntry {
    pattern: &'static str,
    transport: &'static str,
    workers: usize,
    bytes: u64,
    seconds: f64,
}

struct ArEntry {
    transport: &'static str,
    workers: usize,
    bytes: u64,
    algo: &'static str,
    seconds: f64,
}

struct CorruptionEntry {
    window_s: f64,
    retransmits: u64,
    seconds: f64,
}

/// The swept all-reduce time of one (transport, group, payload, algorithm).
fn ar_seconds(sweep: &[ArEntry], transport: &str, p: usize, bytes: u64, algo: &str) -> f64 {
    let hit = |e: &&ArEntry| {
        e.transport == transport && e.workers == p && e.bytes == bytes && e.algo == algo
    };
    let found = sweep.iter().find(hit);
    found
        .unwrap_or_else(|| panic!("no {algo} point at {transport}/{p}w/{bytes} B"))
        .seconds
}

/// The swept 1→1 stream time of one (transport, payload).
fn stream_seconds(sweep: &[P2pEntry], transport: &str, bytes: u64) -> f64 {
    let hit = |e: &&P2pEntry| e.pattern == "1to1" && e.transport == transport && e.bytes == bytes;
    let found = sweep.iter().find(hit);
    found
        .unwrap_or_else(|| panic!("no 1to1 point at {transport}/{bytes} B"))
        .seconds
}

/// The all-reduce sweep: transport × group × payload × algorithm
/// (`None` = auto; RHD only on power-of-two groups).
fn allreduce_points(smoke: bool) -> Vec<(&'static str, usize, u64, Option<AllReduceAlgo>)> {
    let mut points = Vec::new();
    for &transport in TRANSPORTS {
        for &p in allreduce_groups(smoke) {
            for &bytes in allreduce_sizes(smoke) {
                let mut algos = vec![Some(AllReduceAlgo::Ring), Some(AllReduceAlgo::Tree)];
                if p.is_power_of_two() {
                    algos.push(Some(AllReduceAlgo::Rhd));
                }
                algos.push(None); // auto
                points.extend(algos.into_iter().map(|algo| (transport, p, bytes, algo)));
            }
        }
    }
    points
}

/// Where a baseline keeps one all-reduce sweep point's time.
fn point_path(transport: &str, workers: usize, bytes: u64, algo: &str) -> String {
    format!(
        "allreduce[algo == \"{algo}\", bytes == {bytes}, transport == \"{transport}\", workers == {workers}].seconds_per_round"
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = Args::parse("BENCH_transport.json");
    let smoke = args.smoke;
    let rounds = if smoke { 3 } else { 5 };

    assert!(
        std::env::var("TFHPC_TRANSPORT").is_err(),
        "bench_transport drives TFHPC_TRANSPORT itself; unset it"
    );

    // ---- p2p / fan-in / all-to-all sweeps --------------------------------
    let mut p2p: Vec<P2pEntry> = Vec::new();
    for &transport in TRANSPORTS {
        for &bytes in p2p_sizes(smoke) {
            p2p.push(P2pEntry {
                pattern: "1to1",
                transport,
                workers: 2,
                bytes,
                seconds: fanin_seconds(transport, 1, bytes, rounds),
            });
        }
        let fanin_bytes = 1 << 20;
        for &p in if smoke {
            &[4usize][..]
        } else {
            &[4usize, 8][..]
        } {
            p2p.push(P2pEntry {
                pattern: "fanin",
                transport,
                workers: p + 1,
                bytes: fanin_bytes,
                seconds: fanin_seconds(transport, p, fanin_bytes, rounds),
            });
        }
        let a2a_bytes = 256 << 10;
        p2p.push(P2pEntry {
            pattern: "alltoall",
            transport,
            workers: 4,
            bytes: a2a_bytes,
            seconds: alltoall_seconds(transport, 4, a2a_bytes, rounds),
        });
    }

    // ---- all-reduce algorithm sweep (bit-parity checked) -----------------
    let allreduce: Vec<ArEntry> = allreduce_points(smoke)
        .into_iter()
        .map(|(transport, workers, bytes, algo)| ArEntry {
            transport,
            workers,
            bytes,
            algo: algo_label(algo),
            seconds: allreduce_seconds(transport, workers, bytes, algo, rounds, None, None),
        })
        .collect();

    // ---- corruption / retransmit sweep -----------------------------------
    // Ring all-reduce with a link-corruption window of increasing width
    // on node 0 (Kebnekaise packs 4 tasks per node, so the whole group
    // routes through it): wider window → more detected corruptions →
    // more retransmissions → more virtual time lost, with the delivered
    // bits unchanged (parity is asserted inside the run).
    let mut corruption: Vec<CorruptionEntry> = Vec::new();
    for &window_s in &[0.0f64, 2.0e-4, 1.0e-3] {
        let retrans = Arc::new(std::sync::Mutex::new(0u64));
        let faults = (window_s > 0.0).then(|| {
            (
                FaultPlan::new().link_corrupt(0, 0.0, window_s),
                CallPolicy::new(8, 5.0e-5),
            )
        });
        let seconds = allreduce_seconds(
            "zerocopy",
            4,
            64 << 10,
            Some(AllReduceAlgo::Ring),
            rounds,
            faults,
            Some(Arc::clone(&retrans)),
        );
        corruption.push(CorruptionEntry {
            window_s,
            retransmits: *retrans.lock().unwrap(),
            seconds,
        });
    }

    // ---- crossover extraction --------------------------------------------
    // Per (transport, group): smallest payload where the bandwidth-
    // optimal ring beats the latency-optimal tree — the classic
    // latency/bandwidth tradeoff point. (RHD is excluded: on pow2
    // groups it dominates the tree at every size by construction, so
    // it carries no crossover information.) -1 = tree never loses in
    // the swept range.
    let mut crossovers: Vec<(String, usize, i64)> = Vec::new();
    for &transport in TRANSPORTS {
        for &p in allreduce_groups(smoke) {
            let cross = allreduce_sizes(smoke)
                .iter()
                .find(|&&bytes| {
                    let t = |algo: &str| ar_seconds(&allreduce, transport, p, bytes, algo);
                    t("ring") < t("tree")
                })
                .map(|&b| b as i64)
                .unwrap_or(-1);
            crossovers.push((transport.to_string(), p, cross));
        }
    }

    // ---- report ----------------------------------------------------------
    let mut rows = Vec::new();
    for e in &p2p {
        rows.push(Row::new(
            format!(
                "{:<8} {:>9} B  {:>2}w  {}",
                e.pattern, e.bytes, e.workers, e.transport
            ),
            e.seconds * 1e6,
            None,
            "us/msg",
        ));
    }
    print_table(
        "bench_transport: point-to-point sweeps (Kebnekaise K80, Verbs)",
        &rows,
    );
    let mut rows = Vec::new();
    for e in &allreduce {
        rows.push(Row::new(
            format!(
                "{:>9} B  {}w  {:<4} {}",
                e.bytes, e.workers, e.algo, e.transport
            ),
            e.seconds * 1e6,
            None,
            "us/round",
        ));
    }
    print_table(
        "bench_transport: all-reduce algorithms (bit-parity checked)",
        &rows,
    );
    for (t, p, cross) in &crossovers {
        match cross {
            -1 => println!("crossover [{t}, {p}w]: tree fastest across swept range"),
            b => println!("crossover [{t}, {p}w]: bandwidth algorithms take over at {b} B"),
        }
    }
    for c in &corruption {
        println!(
            "corruption window {:.6}s: {} retransmits, {:.9}s/round",
            c.window_s, c.retransmits, c.seconds
        );
    }

    // ---- byte-deterministic JSON -----------------------------------------
    let body = format!(
        "{{\n  \"schema\": \"tfhpc-bench-transport-v1\",\n  \"smoke\": {smoke},\n  \"p2p\": [\n{}\n  ],\n  \"allreduce\": [\n{}\n  ],\n  \"corruption\": [\n{}\n  ],\n  \"crossovers\": [\n{}\n  ]\n}}\n",
        json_rows(&p2p, |e| format!(
            "    {{\"bytes\": {}, \"pattern\": \"{}\", \"seconds_per_msg\": {:.9}, \"transport\": \"{}\", \"workers\": {}}}",
            e.bytes, e.pattern, e.seconds, e.transport, e.workers
        )),
        json_rows(&allreduce, |e| format!(
            "    {{\"algo\": \"{}\", \"bytes\": {}, \"parity\": true, \"seconds_per_round\": {:.9}, \"transport\": \"{}\", \"workers\": {}}}",
            e.algo, e.bytes, e.seconds, e.transport, e.workers
        )),
        json_rows(&corruption, |c| format!(
            "    {{\"retransmits\": {}, \"seconds_per_round\": {:.9}, \"window_s\": {:.9}}}",
            c.retransmits, c.seconds, c.window_s
        )),
        json_rows(&crossovers, |(t, p, cross)| format!(
            "    {{\"bandwidth_takeover_bytes\": {cross}, \"transport\": \"{t}\", \"workers\": {p}}}"
        )),
    );
    write_out(&args.out, &body);

    // ---- crossover summary for results/ (full runs only: the smoke
    // sweep is too coarse to place crossovers meaningfully) ---------------
    if !smoke {
        let mut summary = String::from(
            "bench_transport crossover summary (Kebnekaise K80, Verbs fabric)\n\
             =================================================================\n\n\
             Smallest payload where the bandwidth-optimal ring all-reduce\n\
             beats the latency-optimal binomial tree; below it the tree wins.\n\
             (RHD dominates the tree at every size on pow2 groups, so it is\n\
             excluded from the crossover definition.)\n\n",
        );
        for (t, p, cross) in &crossovers {
            summary.push_str(&match cross {
                -1 => format!("  {t:<9} {p} workers: tree fastest across 1 KiB-4 MiB\n"),
                b => format!("  {t:<9} {p} workers: {b} B\n"),
            });
        }
        summary.push_str("\nZero-copy vs staged-copy on the Verbs wire (1->1 stream):\n");
        for &bytes in p2p_sizes(false) {
            let st = stream_seconds(&p2p, "staged", bytes);
            let zc = stream_seconds(&p2p, "zerocopy", bytes);
            summary.push_str(&format!(
                "  {bytes:>9} B: staged {:.1} us, zero-copy {:.1} us ({:.2}x)\n",
                st * 1e6,
                zc * 1e6,
                st / zc
            ));
        }
        write_out("results/transport_crossover.txt", &summary);
    }

    // ---- gates ------------------------------------------------------------
    let Some(path) = args.check else { return };
    let baseline = Baseline::read(&path);
    let mut gates = Gates::default();

    // Gate 1: at the smallest swept payload the tree beats the ring
    // (latency-optimal wins small) on the largest swept group.
    let g = *allreduce_groups(smoke).last().unwrap();
    let s_min = *allreduce_sizes(smoke).first().unwrap();
    let s_max = *allreduce_sizes(smoke).last().unwrap();
    let at = |bytes, algo: &str, transport| ar_seconds(&allreduce, transport, g, bytes, algo);
    for &transport in TRANSPORTS {
        gates.tag = format!("[{transport}]");
        let (tree_s, ring_s) = (at(s_min, "tree", transport), at(s_min, "ring", transport));
        gates.check(
            tree_s < ring_s,
            format!("tree beats ring at {s_min} B ({tree_s:.9} < {ring_s:.9})"),
        );
        // Gate 2: at the largest payload the bandwidth-optimal
        // algorithms beat the tree.
        let (tree_l, ring_l) = (at(s_max, "tree", transport), at(s_max, "ring", transport));
        gates.check(
            ring_l < tree_l,
            format!("ring beats tree at {s_max} B ({ring_l:.9} < {tree_l:.9})"),
        );
        if g.is_power_of_two() {
            let rhd_l = at(s_max, "rhd", transport);
            gates.check(
                rhd_l < tree_l,
                format!("rhd beats tree at {s_max} B ({rhd_l:.9} < {tree_l:.9})"),
            );
        }
    }
    gates.tag.clear();

    // Gate 3: one-sided zero-copy beats staged RPC on the Verbs wire
    // at the largest streamed payload.
    let p2p_max = *p2p_sizes(smoke).last().unwrap();
    let st = stream_seconds(&p2p, "staged", p2p_max);
    let zc = stream_seconds(&p2p, "zerocopy", p2p_max);
    gates.check(
        zc < st,
        format!("zero-copy beats staged at {p2p_max} B ({:.2}x)", st / zc),
    );

    // Gate 4: corruption windows actually cost retransmissions, and
    // the clean run costs none.
    if corruption[0].retransmits != 0 {
        gates.fail("clean run performed retransmissions".into());
    }
    let widest = corruption.last().unwrap().retransmits;
    gates.check(
        widest > 0,
        format!("corruption window drives retransmits (0 -> {widest})"),
    );

    // Gate 5: drift vs the committed baseline (virtual time is exact;
    // 25% headroom only covers intentional model changes). A point this
    // run swept and a same-size baseline lacks is a failure; a smoke
    // run against a full baseline (or the reverse) sweeps sizes the
    // other never did, so there only the shared points are compared —
    // and there must be some.
    let same_sweep = baseline.smoke() == smoke;
    let mut compared = 0usize;
    for e in &allreduce {
        let path = point_path(e.transport, e.workers, e.bytes, e.algo);
        let found = if same_sweep {
            gates.lookup(&baseline, &path)
        } else {
            baseline.get(&path)
        };
        if let Some(base) = found {
            compared += 1;
            if e.seconds > base * 1.25 {
                gates.fail(format!(
                    "allreduce[{}, {} B, {}w, {}] {:.9}s above baseline {:.9}s + 25%",
                    e.algo, e.bytes, e.workers, e.transport, e.seconds, base
                ));
            }
        }
    }
    gates.check(
        compared > 0,
        format!("{compared} all-reduce points within 25% of baseline"),
    );

    gates.finish("all transport gates passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_full_sweep_point_resolves_against_the_committed_baseline() {
        let text = include_str!("../../../../BENCH_transport.json");
        let base = Baseline::parse("BENCH_transport.json", text).unwrap();
        assert!(!base.smoke());
        let points = allreduce_points(false);
        assert_eq!(points.len(), 120);
        for (transport, workers, bytes, algo) in points {
            let path = point_path(transport, workers, bytes, algo_label(algo));
            assert!(base.get(&path).is_some(), "{path}");
        }
    }
}
