//! The queue-pair reducer (paper Fig. 5).
//!
//! TensorFlow's parameter-server model has no collective reduction, so
//! the paper builds one from queues: workers push partial values into
//! the reducer's *incoming* queue and block on an *outgoing* queue; the
//! reducer pops one partial per worker, applies the reduction, then
//! pushes one copy of the result per worker. We split the outgoing side
//! into one queue per worker: with a single shared outgoing queue a
//! fast worker's next-round dequeue can steal a slow worker's copy of
//! the previous round (TensorFlow's `SyncReplicasOptimizer` avoids the
//! same race by tagging its token queue with the global step).
//!
//! ## Fixed reduction-order contract
//!
//! Floating-point reduction is not associative, so the *order* in which
//! partials are combined is part of the result. Every reduction in this
//! crate — the central reducer here and the ring/tree/RHD collectives
//! in [`crate::collective`] — combines partials in **canonical binomial
//! order** over worker indices ([`canonical_reduce`]): blocks
//! `[a, a+2^k)` and `[a+2^k, min(a+2^{k+1}, P))` are combined
//! lower-index-block first, level by level. Partials arriving out of
//! order are slotted by their worker-index tag before folding, so the
//! result is a pure function of the contributed values — independent of
//! arrival order, thread scheduling, and which algorithm moved the
//! bytes. This is what makes ring, tree, recursive halving-doubling and
//! the queue-pair reducer bit-identical to each other (pinned by
//! `tests/collectives.rs`).

use crate::cluster_spec::TaskKey;
use crate::server::Server;
use std::sync::Arc;
use tfhpc_core::{CoreError, FifoQueue, Result};
use tfhpc_sim::device::{Cost, KernelClass};
use tfhpc_tensor::{ops, Tensor};

/// Per-round software overhead on the reducer: its own `session.run`
/// dispatch plus Python-side queue handling (GIL'd QueueRunners — the
/// §VIII limitation). Dominates CG iterations at high worker counts and
/// produces the strong-scaling saturation of Fig. 10.
pub const ROUND_OVERHEAD_S: f64 = 1.2e-3;

/// Reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise max (IEEE semantics: NaN yields the other operand).
    Max,
    /// Elementwise min (IEEE semantics: NaN yields the other operand).
    Min,
}

impl ReduceOp {
    /// Short name for metrics labels and bench output.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }

    /// Combine two same-shape partials. This is the *only* pairwise
    /// combine the reduction planes use; all orderings above it are
    /// fixed by [`canonical_reduce`].
    pub fn combine(self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let t = match self {
            ReduceOp::Sum => ops::add(a, b)?,
            ReduceOp::Max => ops::maximum(a, b)?,
            ReduceOp::Min => ops::minimum(a, b)?,
        };
        Ok(t)
    }
}

/// Fold `parts[0..P]` (one partial per worker index) in canonical
/// binomial order: level by level, combine block `[a, a+2^k)` with
/// block `[a+2^k, min(a+2^{k+1}, P))`, lower-index block as the left
/// operand. This is the reduction-order contract every collective
/// reproduces on the wire; folding here (with all partials in hand)
/// defines the reference bits.
pub fn canonical_reduce(op: ReduceOp, parts: Vec<Tensor>) -> Result<Tensor> {
    let p = parts.len();
    if p == 0 {
        return Err(CoreError::Invalid("reduce of zero values".into()));
    }
    let mut slots: Vec<Option<Tensor>> = parts.into_iter().map(Some).collect();
    let mut width = 1;
    while width < p {
        let mut a = 0;
        while a + width < p {
            let hi = slots[a + width].take().expect("binomial slot consumed");
            let lo = slots[a].take().expect("binomial slot consumed");
            slots[a] = Some(op.combine(&lo, &hi)?);
            a += 2 * width;
        }
        width *= 2;
    }
    Ok(slots[0].take().expect("binomial root"))
}

/// Server-side reduction service over a queue pair.
pub struct Reducer {
    server: Arc<Server>,
    /// `<name>.in`: workers push tagged partials here.
    in_q: Arc<FifoQueue>,
    /// `<name>.out.<w>`, by worker index: each worker's result queue.
    out_qs: Vec<Arc<FifoQueue>>,
    op: ReduceOp,
}

impl Reducer {
    /// Create the reducer's queue pair (`<name>.in`, `<name>.out`) on
    /// `server` and return the service handle.
    pub fn new(server: Arc<Server>, name: &str, n_workers: usize, op: ReduceOp) -> Reducer {
        assert!(n_workers > 0);
        let in_q = server
            .resources
            .create_queue(&format!("{name}.in"), n_workers * 2);
        let out_qs = (0..n_workers)
            .map(|w| server.resources.create_queue(&format!("{name}.out.{w}"), 2))
            .collect();
        Reducer {
            server,
            in_q,
            out_qs,
            op,
        }
    }

    /// Serve one reduction round: collect `n_workers` tagged partials,
    /// slot them by worker index, fold in canonical binomial order,
    /// broadcast `n_workers` copies. The result is independent of
    /// arrival order (see the module docs).
    pub fn serve_round(&self) -> Result<()> {
        if let Some(me) = tfhpc_sim::des::current() {
            me.advance(ROUND_OVERHEAD_S);
        }
        let n_workers = self.out_qs.len();
        let mut slots: Vec<Option<Tensor>> = vec![None; n_workers];
        for _ in 0..n_workers {
            let mut tuple = self.in_q.dequeue()?.into_iter();
            let (tag, value) = match (tuple.next(), tuple.next()) {
                (Some(tag), Some(value)) => (tag, value),
                _ => {
                    return Err(CoreError::Invalid(
                        "reducer expects [worker_index, partial] tuples".into(),
                    ))
                }
            };
            let w = tag.scalar_value_i64()? as usize;
            if w >= n_workers {
                return Err(CoreError::Invalid(format!(
                    "reducer partial tagged for worker {w} of {n_workers}"
                )));
            }
            if slots[w].replace(value).is_some() {
                return Err(CoreError::Invalid(format!(
                    "reducer received two partials from worker {w} in one round"
                )));
            }
        }
        let partials: Vec<Tensor> = slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect();
        // The reduction itself runs on the reducer's host CPU.
        let bytes: f64 = partials.iter().map(|t| t.byte_size() as f64).sum();
        let flops: f64 = partials.iter().map(|t| t.num_elements() as f64).sum();
        let reduced = canonical_reduce(self.op, partials)?;
        self.server.devices.charge_kernel(
            tfhpc_core::Placement::Cpu,
            &Cost {
                flops,
                bytes,
                class: KernelClass::Blas1,
            },
            true,
        );
        for out_q in &self.out_qs {
            out_q.enqueue(vec![reduced.clone()])?;
        }
        Ok(())
    }

    /// Serve `rounds` reduction rounds.
    pub fn serve(&self, rounds: usize) -> Result<()> {
        for _ in 0..rounds {
            self.serve_round()?;
        }
        Ok(())
    }

    /// Serve until the incoming queue is closed; returns rounds served.
    pub fn serve_until_closed(&self) -> Result<usize> {
        let mut rounds = 0;
        loop {
            match self.serve_round() {
                Ok(()) => rounds += 1,
                Err(CoreError::QueueClosed(_)) => return Ok(rounds),
                Err(e) => return Err(e),
            }
        }
    }

    /// Close the reducer's queues (shutdown).
    pub fn close(&self) {
        self.in_q.close();
        self.out_qs.iter().for_each(|q| q.close());
    }
}

/// Worker-side participation in one reduction round: send the
/// index-tagged `value` into the reducer's incoming queue, block on the
/// outgoing queue, return the reduced value (paper Fig. 5's workflow).
/// The tag lets the reducer fold partials in canonical order no matter
/// how worker arrivals interleave.
pub fn worker_all_reduce(
    worker: &Arc<Server>,
    reducer: &TaskKey,
    name: &str,
    worker_index: usize,
    value: Tensor,
    gpu: Option<usize>,
) -> Result<Tensor> {
    worker.remote_enqueue(
        reducer,
        &format!("{name}.in"),
        vec![Tensor::scalar_i64(worker_index as i64), value],
        gpu,
    )?;
    let tuple = worker.remote_dequeue(reducer, &format!("{name}.out.{worker_index}"), gpu)?;
    tuple
        .into_iter()
        .next()
        .ok_or_else(|| CoreError::Invalid("empty reduction result".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_spec::ClusterSpec;
    use crate::server::TfCluster;
    use tfhpc_sim::net::Protocol;

    fn cluster(n_workers: usize) -> (Arc<TfCluster>, Arc<Server>, Vec<Arc<Server>>) {
        let spec = ClusterSpec::new([
            ("reducer".to_string(), vec!["a:8888".to_string()]),
            (
                "worker".to_string(),
                (0..n_workers).map(|i| format!("b{i}:8888")).collect(),
            ),
        ]);
        let c = TfCluster::new(spec, Protocol::Rdma, None);
        let red = c.start_server(TaskKey::new("reducer", 0), 0, vec![]);
        let workers = (0..n_workers)
            .map(|i| c.start_server(TaskKey::new("worker", i), 1 + i, vec![0]))
            .collect();
        (c, red, workers)
    }

    /// Spin (bounded) until a consumer is parked on `q`.
    fn await_parked_consumer(q: &FifoQueue) {
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while q.parked().0 == 0 {
            assert!(std::time::Instant::now() < give_up, "nobody parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn sum_reduction_across_threads() {
        let (_c, red, workers) = cluster(3);
        let reducer = Reducer::new(Arc::clone(&red), "r", 3, ReduceOp::Sum);
        let svc = std::thread::spawn(move || reducer.serve(2).unwrap());
        let mut handles = Vec::new();
        for (i, w) in workers.into_iter().enumerate() {
            handles.push(std::thread::spawn(move || {
                let key = TaskKey::new("reducer", 0);
                let r1 =
                    worker_all_reduce(&w, &key, "r", i, Tensor::scalar_f64((i + 1) as f64), None)
                        .unwrap();
                assert_eq!(r1.scalar_value_f64().unwrap(), 6.0);
                let r2 =
                    worker_all_reduce(&w, &key, "r", i, Tensor::scalar_f64(10.0), None).unwrap();
                assert_eq!(r2.scalar_value_f64().unwrap(), 30.0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        svc.join().unwrap();
    }

    #[test]
    fn max_reduction() {
        let (_c, red, workers) = cluster(2);
        let reducer = Reducer::new(Arc::clone(&red), "m", 2, ReduceOp::Max);
        let svc = std::thread::spawn(move || reducer.serve(1).unwrap());
        let mut handles = Vec::new();
        for (i, w) in workers.into_iter().enumerate() {
            handles.push(std::thread::spawn(move || {
                let key = TaskKey::new("reducer", 0);
                let r = worker_all_reduce(&w, &key, "m", i, Tensor::scalar_f64(i as f64), None)
                    .unwrap();
                assert_eq!(r.scalar_value_f64().unwrap(), 1.0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        svc.join().unwrap();
    }

    #[test]
    fn vector_sum_reduction() {
        let (_c, red, workers) = cluster(2);
        let reducer = Reducer::new(Arc::clone(&red), "v", 2, ReduceOp::Sum);
        let svc = std::thread::spawn(move || reducer.serve(1).unwrap());
        let mut handles = Vec::new();
        for (i, w) in workers.into_iter().enumerate() {
            handles.push(std::thread::spawn(move || {
                let key = TaskKey::new("reducer", 0);
                let v = Tensor::from_f64([3], vec![1.0, 2.0, 3.0]).unwrap();
                let r = worker_all_reduce(&w, &key, "v", i, v, None).unwrap();
                assert_eq!(r.as_f64().unwrap(), &[2.0, 4.0, 6.0]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        svc.join().unwrap();
    }

    #[test]
    fn close_unblocks_service_loop() {
        let (_c, red, _workers) = cluster(2);
        let reducer = Arc::new(Reducer::new(Arc::clone(&red), "c", 2, ReduceOp::Sum));
        let r2 = Arc::clone(&reducer);
        let svc = std::thread::spawn(move || r2.serve_until_closed().unwrap());
        await_parked_consumer(&reducer.in_q);
        reducer.close();
        assert_eq!(svc.join().unwrap(), 0);
    }

    #[test]
    fn malformed_tuple_is_invalid() {
        let (_c, red, _workers) = cluster(2);
        let reducer = Reducer::new(Arc::clone(&red), "bad", 2, ReduceOp::Sum);
        // A bare partial with no worker-index tag in front of it.
        reducer.in_q.enqueue(vec![Tensor::scalar_f64(1.0)]).unwrap();
        let err = reducer.serve_round().unwrap_err();
        assert!(
            matches!(&err, CoreError::Invalid(m) if m.contains("[worker_index, partial]")),
            "{err}"
        );
    }

    #[test]
    fn two_partials_from_one_worker_in_a_round_are_invalid() {
        let (_c, red, _workers) = cluster(2);
        let reducer = Reducer::new(Arc::clone(&red), "twice", 2, ReduceOp::Sum);
        for v in [1.0, 2.0] {
            let tuple = vec![Tensor::scalar_i64(1), Tensor::scalar_f64(v)];
            reducer.in_q.enqueue(tuple).unwrap();
        }
        let err = reducer.serve_round().unwrap_err();
        assert!(
            matches!(&err, CoreError::Invalid(m) if m.contains("two partials from worker 1")),
            "{err}"
        );
    }

    #[test]
    fn every_round_of_a_long_run_is_exact() {
        // Three workers hammer one reducer; a lost wake-up anywhere on
        // the queue pair shows as a hang, so a watchdog bounds the run.
        const WORKERS: usize = 3;
        const ROUNDS: usize = 5_000;
        let (_c, red, workers) = cluster(WORKERS);
        let reducer = Arc::new(Reducer::new(
            Arc::clone(&red),
            "long",
            WORKERS,
            ReduceOp::Sum,
        ));
        let r2 = Arc::clone(&reducer);
        let svc = std::thread::spawn(move || r2.serve_until_closed().unwrap());
        let (done, finished) = std::sync::mpsc::channel();
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let done = done.clone();
                std::thread::spawn(move || {
                    let key = TaskKey::new("reducer", 0);
                    for round in 0..ROUNDS {
                        let mine = Tensor::scalar_f64((round * WORKERS + i) as f64);
                        let sum = worker_all_reduce(&w, &key, "long", i, mine, None).unwrap();
                        // Σ_i (round·W + i), exact in f64.
                        let want = (round * WORKERS * WORKERS + WORKERS * (WORKERS - 1) / 2) as f64;
                        assert_eq!(sum.scalar_value_f64().unwrap(), want, "round {round}");
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..WORKERS {
            finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a worker stalled or failed");
        }
        for h in handles {
            h.join().unwrap();
        }
        reducer.close();
        assert_eq!(svc.join().unwrap(), ROUNDS);
    }
}
