//! QueueRunners and the Coordinator — TensorFlow's machinery for
//! driving input queues from background threads (§II-A's Queue API;
//! §VIII notes these are exactly the components throttled by Python's
//! GIL in real TensorFlow — here they run as native threads or sim
//! processes).
//!
//! A [`QueueRunner`] repeatedly executes an enqueue op through a
//! session until the source is exhausted or the [`Coordinator`]
//! requests a stop; on exhaustion it closes the queue so downstream
//! dequeues terminate with `QueueClosed` (TensorFlow's out-of-range
//! signal).

use crate::error::{CoreError, Result};
use crate::graph::NodeId;
use crate::session::Session;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cooperative stop/error coordinator shared by runners.
#[derive(Default)]
pub struct Coordinator {
    stop: AtomicBool,
    errors: Mutex<Vec<String>>,
    active: AtomicUsize,
}

impl Coordinator {
    /// Fresh coordinator.
    pub fn new() -> Arc<Coordinator> {
        Arc::new(Coordinator::default())
    }

    /// Ask every runner to wind down.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Record an error and stop everything.
    pub fn request_stop_with_error(&self, err: &CoreError) {
        self.errors.lock().push(err.to_string());
        self.request_stop();
    }

    /// Whether runners should stop.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Errors reported by runners.
    pub fn errors(&self) -> Vec<String> {
        self.errors.lock().clone()
    }

    /// Runners currently executing.
    pub fn active_runners(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }
}

/// Drives one enqueue op in a loop.
pub struct QueueRunner {
    /// The enqueue node to execute repeatedly.
    pub enqueue_op: NodeId,
    /// Queue to close when the source is exhausted.
    pub close_queue: Option<String>,
}

impl QueueRunner {
    /// Runner for `enqueue_op`, closing `close_queue` at end-of-input.
    pub fn new(enqueue_op: NodeId, close_queue: Option<&str>) -> QueueRunner {
        QueueRunner {
            enqueue_op,
            close_queue: close_queue.map(|s| s.to_string()),
        }
    }

    /// Run until exhaustion or a coordinator stop. Returns the number
    /// of successful enqueues.
    pub fn run(&self, sess: &Session, coord: &Coordinator) -> Result<usize> {
        coord.active.fetch_add(1, Ordering::SeqCst);
        let result = self.run_inner(sess, coord);
        coord.active.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn run_inner(&self, sess: &Session, coord: &Coordinator) -> Result<usize> {
        let mut count = 0;
        loop {
            if coord.should_stop() {
                break;
            }
            match sess.run_no_fetch(&[self.enqueue_op], &[]) {
                Ok(()) => count += 1,
                Err(CoreError::EndOfSequence) | Err(CoreError::QueueClosed(_)) => break,
                Err(e) => {
                    coord.request_stop_with_error(&e);
                    return Err(e);
                }
            }
        }
        if let Some(q) = &self.close_queue {
            sess.resources().queue(q)?.close();
        }
        Ok(count)
    }

    /// Spawn this runner on a background thread (real mode) or sim
    /// process, whichever matches the calling context.
    pub fn spawn(self: Arc<Self>, sess: Arc<Session>, coord: Arc<Coordinator>) {
        tfhpc_sim::clock::spawn("queue-runner", move || {
            let _ = self.run(&sess, &coord);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::device::DeviceCtx;
    use crate::graph::Graph;
    use crate::resources::Resources;
    use tfhpc_tensor::Tensor;

    fn pipeline(n: usize) -> (Arc<Session>, NodeId, Arc<Resources>) {
        // dataset -> enqueue into "work"
        let mut g = Graph::new();
        let next = g.dataset_next("src", 1);
        let enq = g.queue_enqueue("work", &[next[0]]);
        let resources = Resources::new();
        let ds =
            Dataset::from_elements((0..n).map(|i| vec![Tensor::scalar_i64(i as i64)]).collect());
        resources.create_iterator("src", &ds);
        resources.create_queue("work", 4);
        let sess = Arc::new(Session::new(
            Arc::new(g),
            Arc::clone(&resources),
            DeviceCtx::real(0),
        ));
        (sess, enq, resources)
    }

    #[test]
    fn runner_drains_dataset_and_closes_queue() {
        let (sess, enq, resources) = pipeline(10);
        let coord = Coordinator::new();
        let runner = Arc::new(QueueRunner::new(enq, Some("work")));
        let r2 = Arc::clone(&runner);
        let s2 = Arc::clone(&sess);
        let c2 = Arc::clone(&coord);
        let handle = std::thread::spawn(move || r2.run(&s2, &c2).unwrap());
        // Consume everything; the close must terminate the loop.
        let q = resources.queue("work").unwrap();
        let mut got = Vec::new();
        loop {
            match q.dequeue() {
                Ok(t) => got.push(t[0].scalar_value_i64().unwrap()),
                Err(CoreError::QueueClosed(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(handle.join().unwrap(), 10);
        assert_eq!(got, (0..10).collect::<Vec<i64>>());
        assert!(coord.errors().is_empty());
    }

    #[test]
    fn coordinator_stop_interrupts_runner() {
        let (sess, enq, resources) = pipeline(50_000);
        let coord = Coordinator::new();
        let runner = Arc::new(QueueRunner::new(enq, Some("work")));
        let r2 = Arc::clone(&runner);
        let s2 = Arc::clone(&sess);
        let c2 = Arc::clone(&coord);
        let handle = std::thread::spawn(move || r2.run(&s2, &c2).unwrap());
        // Drain a few, then stop.
        let q = resources.queue("work").unwrap();
        for _ in 0..5 {
            q.dequeue().unwrap();
        }
        coord.request_stop();
        // Keep draining until the runner exits: it may be parked on a
        // full queue and needs space to notice the stop request.
        while !handle.is_finished() {
            match q.try_dequeue() {
                Ok(Some(_)) => {}
                Ok(None) => std::thread::yield_now(),
                Err(CoreError::QueueClosed(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        let n = handle.join().unwrap();
        assert!((5..50_000).contains(&n));
        assert!(q.is_closed());
    }

    #[test]
    fn runner_error_propagates_through_coordinator() {
        // Enqueue into a queue that doesn't exist -> NotFound.
        let mut g = Graph::new();
        let c = g.constant(Tensor::scalar_i64(1));
        let enq = g.queue_enqueue("missing", &[c]);
        let sess = Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(0));
        let coord = Coordinator::new();
        let runner = QueueRunner::new(enq, None);
        assert!(runner.run(&sess, &coord).is_err());
        assert!(coord.should_stop());
        assert_eq!(coord.errors().len(), 1);
        assert!(coord.errors()[0].contains("missing"));
    }

    #[test]
    fn spawned_runner_feeds_consumer() {
        let (sess, enq, resources) = pipeline(20);
        let coord = Coordinator::new();
        Arc::new(QueueRunner::new(enq, Some("work"))).spawn(sess, Arc::clone(&coord));
        let q = resources.queue("work").unwrap();
        let mut count = 0;
        loop {
            match q.dequeue() {
                Ok(_) => count += 1,
                Err(CoreError::QueueClosed(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(count, 20);
    }
}
