//! Distributed 1-D FFT (paper §IV, Figs. 6 & 11).
//!
//! Cooley–Tukey decimation in time: the input signal is split into
//! interleaving tiles stored on the PFS; workers load their share of
//! tiles, run the per-tile FFT on the GPU and push `(index, spectrum)`
//! into the merger's queue. The merger collects all tiles — the paper's
//! *timed* portion stops here, because the final twiddle-factor merge
//! happens serially in Python — and then performs the merge as a
//! `py_func`-style host callback whose cost model carries the Python
//! tax the paper's §VIII discusses.

use crate::supervised::{
    decode_keyed, encode_keyed, recv_resume, resume_queue, run_app, run_pipeline, send_resume,
    AppLaunch, Checkpointer, SupervisedStats, CKPT_KEEP,
};
use crate::{AppError, FaultSetup};
use parking_lot::Mutex;
use std::sync::Arc;
use tfhpc_core::{
    kernels::PY_FUNC_DEFAULT_COST_FACTOR, Graph, NodeId, OpKernel, Placement, Resources,
    Result as CoreResult, SessionOptions, TileStore,
};
use tfhpc_dist::{JobSpec, Server, TaskCtx, TaskKey};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::Platform;
use tfhpc_tensor::{fft, Complex64, DType, Tensor};

/// FFT configuration.
#[derive(Debug, Clone)]
pub struct FftConfig {
    /// log2 of the signal length (the paper uses 2³¹ on K80, 2²⁹ on K420).
    pub log2_n: u32,
    /// Number of interleaved tiles (power of two; 128 / 64 in the paper).
    pub tiles: usize,
    /// Number of GPU workers.
    pub workers: usize,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Simulated or real execution.
    pub simulated: bool,
    /// Python-tax multiplier on the host merge (1.0 = paper-calibrated;
    /// 0.0 = free merge; swept by the A4 ablation).
    pub merge_cost_factor: f64,
}

impl FftConfig {
    /// Signal length.
    pub fn n(&self) -> u64 {
        1u64 << self.log2_n
    }

    /// Elements per tile.
    pub fn tile_len(&self) -> usize {
        assert!(
            self.tiles.is_power_of_two(),
            "tile count must be a power of two"
        );
        (self.n() / self.tiles as u64) as usize
    }

    /// Paper's flop estimate: `5 N log2 N`.
    pub fn flops(&self) -> f64 {
        let n = self.n() as f64;
        5.0 * n * (self.log2_n as f64)
    }
}

/// FFT result.
#[derive(Debug, Clone)]
pub struct FftReport {
    /// Gflop/s over the timed (collection) portion, as the paper reports.
    pub gflops: f64,
    /// Seconds until the merger collected every tile (the paper's timed
    /// region).
    pub collect_s: f64,
    /// Total seconds including the serial host merge.
    pub total_s: f64,
}

/// Merger-side ingest throughput: each collected tile is extracted from
/// the session into a NumPy buffer (the paper found this extraction
/// alone "already hampers overall performance", §VIII).
pub const MERGER_INGEST_GBS: f64 = 2.2;
/// Fixed per-tile merger overhead (dequeue dispatch + GIL).
pub const MERGER_INGEST_FIXED_S: f64 = 0.02;

fn tile_key(l: usize) -> Vec<i64> {
    vec![l as i64]
}

/// Split the input signal into interleaved tiles in `store` (offline
/// pre-processing). Returns the original signal in real mode (for
/// verification).
pub fn populate_signal(store: &TileStore, cfg: &FftConfig, seed: u64) -> Option<Vec<Complex64>> {
    let m = cfg.tile_len();
    if cfg.simulated {
        for l in 0..cfg.tiles {
            store.put(
                tile_key(l),
                Tensor::synthetic(DType::C128, [m], seed.wrapping_add(l as u64)),
            );
        }
        None
    } else {
        let n = cfg.n() as usize;
        let signal: Vec<Complex64> = (0..n)
            .map(|i| {
                let t = i as f64 + seed as f64;
                Complex64::new((t * 0.37).sin() + 0.5 * (t * 1.7).cos(), (t * 0.11).cos())
            })
            .collect();
        for (l, tile) in fft::split_interleaved(&signal, cfg.tiles)
            .into_iter()
            .enumerate()
        {
            store.put(tile_key(l), Tensor::from_c128([m], tile).unwrap());
        }
        Some(signal)
    }
}

/// Worker-side push of `(tile index, spectrum)` to the merger.
struct PushToMerger {
    server: Arc<Server>,
}

impl OpKernel for PushToMerger {
    fn name(&self) -> &str {
        "PushToMerger"
    }

    fn compute(&self, _res: &Resources, inputs: &[Tensor]) -> CoreResult<Vec<Tensor>> {
        self.server.remote_enqueue(
            &TaskKey::new("merger", 0),
            "spectra",
            vec![inputs[0].clone(), inputs[1].clone()],
            None,
        )?;
        Ok(vec![])
    }
}

fn worker_task(
    ctx: &TaskCtx,
    cfg: &FftConfig,
    store: &Arc<TileStore>,
    supervised: bool,
) -> CoreResult<()> {
    let w = ctx.index();
    // Under supervision, wait for the merger's done-set before producing
    // anything, and skip tiles whose spectra already survived in a
    // checkpoint.
    let mut skip: std::collections::HashSet<usize> = std::collections::HashSet::new();
    if supervised {
        let list = recv_resume(&resume_queue(ctx, 1))?;
        let n_done = list[0] as usize;
        for d in 0..n_done {
            skip.insert(list[1 + d] as usize);
        }
    }
    let my_tiles: Vec<usize> = (0..cfg.tiles)
        .filter(|l| l % cfg.workers == w && !skip.contains(l))
        .collect();

    // Prefetched input pipeline: tiles from the PFS -> GPU FFT -> push.
    let server = Arc::clone(&ctx.server);
    let store = Arc::clone(store);
    let load = move |l: usize| {
        let tile = store.get(&tile_key(l)).expect("tile missing");
        if let Some(sim) = &server.devices.sim {
            sim.cluster.pfs.read(sim.node, tile.byte_size() as u64);
        }
        [Tensor::scalar_i64(l as i64), tile]
    };
    let graph = |g: &mut Graph, [idx, tile]: [NodeId; 2]| {
        let spectrum = g.with_device(Placement::Gpu(0), |g| g.fft(tile));
        let push: Arc<dyn OpKernel> = Arc::new(PushToMerger {
            server: Arc::clone(&ctx.server),
        });
        g.custom(push, &[idx, spectrum], &[])
    };
    let filler = format!("fft.pipe.{w}");
    run_pipeline(ctx, &filler, 2, my_tiles, load, graph, "fft.tile")
}

/// The collected spectra a merger checkpoint holds, by tile index;
/// indices at or past `tiles` are dropped.
pub(crate) fn decode_spectra(payload: &[u8], tiles: usize) -> CoreResult<Vec<Option<Tensor>>> {
    let mut spectra: Vec<Option<Tensor>> = vec![None; tiles];
    for ([l], spectrum) in decode_keyed(payload)? {
        if l < tiles {
            spectra[l] = Some(spectrum);
        }
    }
    Ok(spectra)
}

fn merger_task(
    ctx: &TaskCtx,
    cfg: &FftConfig,
    store: &Arc<TileStore>,
    collect_time: &Arc<Mutex<f64>>,
    ckpt_every: Option<usize>,
) -> CoreResult<()> {
    let queue = ctx.server.resources.create_queue("spectra", 16);
    let mut spectra: Vec<Option<Tensor>> = vec![None; cfg.tiles];
    // Under supervision, reinstate the newest valid checkpoint and tell
    // every worker which tiles are already collected. The handshake runs
    // on every attempt (cold starts publish an empty set) so workers can
    // block on it unconditionally.
    let ckpt = ckpt_every.map(|_| Checkpointer::new(Arc::clone(store), 0, CKPT_KEEP));
    if let Some(ckpt) = &ckpt {
        if ctx.attempt() > 0 {
            if let Some((_, payload)) = ckpt.latest_valid(ctx) {
                spectra = decode_spectra(&payload, cfg.tiles)?;
            }
        }
        let done: Vec<usize> = (0..cfg.tiles).filter(|&l| spectra[l].is_some()).collect();
        let mut list = vec![done.len() as i64];
        list.extend(done.iter().map(|&l| l as i64));
        for w in 0..cfg.workers {
            send_resume(ctx, w, &list)?;
        }
    }
    let restored = spectra.iter().filter(|s| s.is_some()).count();
    let tr = tfhpc_obs::trace::global();
    for received in 1..=(cfg.tiles - restored) {
        let _s = tr.span("fft.collect");
        let tuple = queue.dequeue()?;
        let l = tuple[0].scalar_value_i64()? as usize;
        // Serial extraction of the tile into host NumPy storage.
        if let Some(me) = tfhpc_sim::des::current() {
            me.advance(
                MERGER_INGEST_FIXED_S + tuple[1].byte_size() as f64 / (MERGER_INGEST_GBS * 1e9),
            );
        }
        spectra[l] = Some(tuple[1].clone());
        if let (Some(ckpt), Some(every)) = (&ckpt, ckpt_every) {
            if received.is_multiple_of(every) {
                let ordinal = (received / every) as u64;
                let iter = (restored + received) as u64;
                let collected = spectra.iter().enumerate();
                let payload =
                    encode_keyed(collected.filter_map(|(l, s)| Some(([l], s.as_ref()?))))?;
                ckpt.save(ctx, ordinal, iter, &payload)?;
            }
        }
    }
    // All tiles collected: this ends the paper's timed region.
    *collect_time.lock() = ctx.now();

    // Serial host merge with twiddle factors — "performed locally with
    // Python" (modeled with the Python tax).
    let _merge = tr.span("fft.merge");
    let tiles: Vec<Tensor> = spectra.into_iter().map(|s| s.expect("tile")).collect();
    let mut g = Graph::new();
    let inputs: Vec<NodeId> = tiles.iter().map(|t| g.constant(t.clone())).collect();
    let merged = g.py_func(
        "fft_merge",
        &inputs,
        1,
        PY_FUNC_DEFAULT_COST_FACTOR * cfg.merge_cost_factor,
        Arc::new(move |_res, ins: &[Tensor]| {
            if ins.iter().any(|t| t.is_synthetic()) {
                let seed = ins.iter().fold(0xFF7u64, |acc, t| {
                    tfhpc_tensor::tensor::mix_seed(acc, t.synthetic_seed().unwrap_or(1))
                });
                let total: usize = ins.iter().map(|t| t.num_elements()).sum();
                return Ok(vec![Tensor::synthetic(DType::C128, [total], seed)]);
            }
            let sub: Vec<Vec<Complex64>> = ins
                .iter()
                .map(|t| t.as_c128().map(|s| s.to_vec()))
                .collect::<Result<_, _>>()?;
            let full = fft::merge_interleaved(sub);
            let n = full.len();
            Ok(vec![Tensor::from_c128([n], full)?])
        }),
    );
    let sess = ctx
        .server
        .session_with_options(Arc::new(g), SessionOptions::from_env()?);
    let out = sess.run(&[merged[0]], &[])?;
    store.put(vec![-1], out.into_iter().next().expect("merged spectrum"));
    Ok(())
}

/// Run the distributed FFT on `platform`.
pub fn run_fft(platform: &Platform, cfg: &FftConfig) -> Result<FftReport, AppError> {
    let (report, _store) = run_fft_with_store(platform, cfg)?;
    Ok(report)
}

/// [`run_fft`] also returning the shared store (holding the merged
/// spectrum under key `[-1]`).
pub fn run_fft_with_store(
    platform: &Platform,
    cfg: &FftConfig,
) -> Result<(FftReport, Arc<TileStore>), AppError> {
    run_fft_inner(platform, cfg, None, &FaultSetup::default()).map(|(r, _, s)| (r, s))
}

/// Run the distributed FFT under checkpoint-restart supervision with
/// fault injection: the merger checkpoints its collected spectra
/// (sealed, torn/stale-injectable) every `ckpt_every` receipts, and
/// after a gang restart it restores the newest valid generation and
/// hands every worker the set of already-collected tiles to skip. The
/// merge is l-ordered, so the recovered spectrum is bit-identical to a
/// fault-free run's. Returns the report, the integrity-plane stats and
/// the shared store (merged spectrum under key `[-1]`).
pub fn run_fft_supervised(
    platform: &Platform,
    cfg: &FftConfig,
    ckpt_every: usize,
    faults: &FaultSetup,
) -> Result<(FftReport, SupervisedStats, Arc<TileStore>), AppError> {
    run_fft_inner(platform, cfg, Some(ckpt_every), faults)
}

fn run_fft_inner(
    platform: &Platform,
    cfg: &FftConfig,
    ckpt_every: Option<usize>,
    faults: &FaultSetup,
) -> Result<(FftReport, SupervisedStats, Arc<TileStore>), AppError> {
    if cfg.workers == 0 {
        return Err(AppError::Config("workers must be > 0".into()));
    }
    if !cfg.tiles.is_power_of_two() {
        return Err(AppError::Config(format!(
            "tile count {} must be a power of two",
            cfg.tiles
        )));
    }
    if cfg.tiles < cfg.workers {
        return Err(AppError::Config("more workers than tiles".into()));
    }
    if cfg.log2_n > 40 || (1u64 << cfg.log2_n) < cfg.tiles as u64 {
        return Err(AppError::Config(
            "signal too large or smaller than tile count".into(),
        ));
    }
    let launch = AppLaunch {
        app: "fft",
        store: "fft",
        platform,
        jobs: vec![
            JobSpec::new("merger", 1, 0),
            JobSpec::new("worker", cfg.workers, 1),
        ],
        simulated: cfg.simulated,
        protocol: cfg.protocol,
        faults: Some(faults),
        ckpt_every,
        external: None,
        traced: false,
    };
    let collect_time = Arc::new(Mutex::new(0.0f64));
    let collect2 = Arc::clone(&collect_time);
    let cfg_body = cfg.clone();
    let run = run_app(
        launch,
        |store| {
            populate_signal(store, cfg, 0xF0);
        },
        move |ctx, store| {
            if ctx.job() == "merger" {
                merger_task(ctx, &cfg_body, store, &collect2, ckpt_every)
            } else {
                worker_task(ctx, &cfg_body, store, ckpt_every.is_some())
            }
        },
    )?;
    let collect_s = *collect_time.lock();
    let report = FftReport {
        gflops: cfg.flops() / collect_s / 1e9,
        collect_s,
        total_s: run.launched.elapsed_s,
    };
    Ok((report, run.stats, run.store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_core::TensorProto;
    use tfhpc_proto::Message;
    use tfhpc_sim::platform;

    fn sim_cfg(log2_n: u32, tiles: usize, workers: usize) -> FftConfig {
        FftConfig {
            log2_n,
            tiles,
            workers,
            protocol: Protocol::Rdma,
            simulated: true,
            merge_cost_factor: 1.0,
        }
    }

    #[test]
    fn config_math() {
        let c = sim_cfg(31, 128, 4);
        assert_eq!(c.n(), 1 << 31);
        assert_eq!(c.tile_len(), 1 << 24);
        assert_eq!(c.flops(), 5.0 * (1u64 << 31) as f64 * 31.0);
    }

    #[test]
    fn simulated_run_reports_both_times() {
        let r = run_fft(&platform::tegner_k80(), &sim_cfg(26, 16, 2)).unwrap();
        assert!(r.collect_s > 0.0);
        // The serial Python merge makes total visibly longer.
        assert!(r.total_s > r.collect_s);
        assert!(r.gflops > 0.0);
    }

    #[test]
    fn scaling_two_to_four_then_flattens() {
        // Paper: ~1.6-1.8x from 2→4 GPUs, flattening 4→8.
        let p = platform::tegner_k80();
        let g2 = run_fft(&p, &sim_cfg(31, 128, 2)).unwrap().gflops;
        let g4 = run_fft(&p, &sim_cfg(31, 128, 4)).unwrap().gflops;
        let g8 = run_fft(&p, &sim_cfg(31, 128, 8)).unwrap().gflops;
        let s24 = g4 / g2;
        let s48 = g8 / g4;
        assert!((1.4..2.05).contains(&s24), "2→4 speedup {s24}");
        assert!(s48 < s24, "4→8 ({s48}) should flatten vs 2→4 ({s24})");
    }

    #[test]
    fn invalid_configs_are_rejected_cleanly() {
        let p = platform::tegner_k80();
        let rejected = |edit: fn(&mut FftConfig)| {
            let mut cfg = sim_cfg(20, 8, 2);
            edit(&mut cfg);
            matches!(run_fft(&p, &cfg), Err(crate::AppError::Config(_)))
        };
        assert!(rejected(|c| c.tiles = 100));
        assert!(rejected(|c| c.workers = 16));
        assert!(rejected(|c| c.log2_n = 50));
        assert!(rejected(|c| c.workers = 0));
    }

    #[test]
    fn supervised_crash_and_corruption_reproduce_spectrum() {
        use tfhpc_dist::CallPolicy;
        use tfhpc_sim::fault::FaultPlan;
        let p = platform::tegner_k80();
        let cfg = sim_cfg(26, 16, 2);
        let (clean_report, clean_stats, clean_store) =
            run_fft_supervised(&p, &cfg, 2, &crate::FaultSetup::default()).unwrap();
        assert_eq!(clean_stats.restarts, 0);

        // Tegner K80 packs 2 tasks per node: the merger sits on node 0,
        // both workers on node 1. Crash the worker node mid-collection,
        // then corrupt its link for a window the retries can ride out.
        let t = clean_report.collect_s;
        let plan = FaultPlan::new()
            .crash(1, t * 0.5)
            .link_corrupt(1, t * 0.6, t * 1.0);
        let faults = crate::FaultSetup::new(plan, 2).with_retry(CallPolicy::new(6, t * 0.02));
        let (_, stats, store) = run_fft_supervised(&p, &cfg, 2, &faults).unwrap();
        assert!(stats.restarts >= 1, "restarts {}", stats.restarts);
        assert!(stats.corruption_detected > 0, "{stats:?}");
        let got = store.get(&[-1]).unwrap();
        let want = clean_store.get(&[-1]).unwrap();
        assert_eq!(
            TensorProto(got).to_bytes().unwrap(),
            TensorProto(want).to_bytes().unwrap(),
            "recovered spectrum differs from fault-free run"
        );
    }

    #[test]
    fn real_mode_matches_full_fft() {
        let cfg = FftConfig {
            log2_n: 12,
            tiles: 8,
            workers: 2,
            protocol: Protocol::Grpc,
            simulated: false,
            merge_cost_factor: 0.0,
        };
        let (_report, store) = run_fft_with_store(&platform::tegner_k80(), &cfg).unwrap();
        let got = store.get(&[-1]).unwrap();
        // Reference: FFT of the same signal, unsplit.
        let signal = populate_signal(&tfhpc_core::TileStore::new("ref"), &cfg, 0xF0).unwrap();
        let mut want = signal;
        fft::fft_inplace(&mut want);
        let gv = got.as_c128().unwrap();
        assert_eq!(gv.len(), want.len());
        let scale: f64 = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in gv.iter().zip(&want) {
            assert!((*a - *b).abs() < 1e-6 * scale, "{a:?} vs {b:?}");
        }
    }
}
