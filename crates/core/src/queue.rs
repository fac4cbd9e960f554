//! Bounded FIFO queues of tensor tuples — the `tf.FIFOQueue` the
//! paper's reducers and map-reduce pipelines are built from.
//!
//! A queue blocks consumers when empty and producers when full. It is
//! written once over [`tfhpc_sim::clock::Cv`], which binds it at
//! creation to the wall clock (OS threads) or to a simulation's
//! virtual clock (parked dequeues then wake at the notifier's virtual
//! time, which is what makes the queue-pair reducer pattern cost what
//! it should).
//!
//! Wake rule: a waiter counts itself in `parked_consumers` /
//! `parked_producers` under the queue mutex around each wait, and
//! whoever changes the queue reads that count under the same mutex,
//! drops the mutex, *then* calls [`Cv::wake`] with it. On the wall
//! clock the woken thread therefore never finds the lock still held by
//! its waker, and nobody pays a wake-up syscall for an empty wait list.
//!
//! Closing a queue follows TensorFlow semantics: further enqueues fail;
//! dequeues drain remaining elements and then fail with
//! `QueueClosed` (TensorFlow's `OutOfRangeError`).

use crate::error::{CoreError, Result};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tfhpc_sim::clock::{self, Cv};
use tfhpc_tensor::Tensor;

struct QueueState {
    /// Tuples paired with their enqueue timestamp (observability
    /// clock), so dequeues can charge residency.
    items: VecDeque<(f64, Vec<Tensor>)>,
    closed: bool,
    /// Sticky abort (TensorFlow's queue cancellation): once set, every
    /// operation — including draining — fails with a clone of this
    /// error. Set when the owning task dies or the supervisor tears a
    /// generation down.
    aborted: Option<CoreError>,
    /// Waiters inside a `not_empty` wait right now, written only under
    /// the queue mutex (see the module docs).
    parked_consumers: usize,
    /// Waiters inside a `not_full` wait right now.
    parked_producers: usize,
}

/// Always-on activity counters backing `StepStats` and the global
/// metrics registry. Updates are relaxed atomics — never a lock, never
/// a clock advance — so collection cannot perturb a simulated run.
struct QueueStats {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    /// Summed residency seconds of dequeued elements, as f64 bits.
    residency_bits: AtomicU64,
    /// Flow correlation id stitching enqueue→dequeue arrows in traces.
    flow: u64,
    m_enqueued: Arc<tfhpc_obs::Counter>,
    m_dequeued: Arc<tfhpc_obs::Counter>,
    m_depth: Arc<tfhpc_obs::Gauge>,
    m_residency: Arc<tfhpc_obs::Histogram>,
}

impl QueueStats {
    fn new(name: &str) -> QueueStats {
        let reg = tfhpc_obs::global();
        let labels = [("queue", name)];
        QueueStats {
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            residency_bits: AtomicU64::new(0),
            flow: tfhpc_obs::trace::flow_id(name),
            m_enqueued: reg.counter_with("tfhpc_queue_enqueued_total", &labels),
            m_dequeued: reg.counter_with("tfhpc_queue_dequeued_total", &labels),
            m_depth: reg.gauge_with("tfhpc_queue_depth", &labels),
            m_residency: reg.histogram_with(
                "tfhpc_queue_residency_seconds",
                &labels,
                &tfhpc_obs::metrics::duration_buckets(),
            ),
        }
    }
}

/// A bounded FIFO queue of tensor tuples.
pub struct FifoQueue {
    name: String,
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Cv,
    not_full: Cv,
    stats: QueueStats,
}

impl FifoQueue {
    /// Create a queue. When called from inside a simulated process the
    /// queue binds to that simulation's virtual clock.
    pub fn new(name: &str, capacity: usize) -> Arc<FifoQueue> {
        Arc::new(FifoQueue {
            name: name.to_string(),
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                aborted: None,
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Cv::here(|| format!("queue:{name}:not_empty")),
            not_full: Cv::here(|| format!("queue:{name}:not_full")),
            stats: QueueStats::new(name),
        })
    }

    /// Record an enqueue that left the queue `depth` deep.
    fn note_enqueue(&self, depth: usize) {
        self.stats.enqueued.fetch_add(1, Ordering::Relaxed);
        self.stats.m_enqueued.inc();
        self.stats.m_depth.set(depth as f64);
        let tr = tfhpc_obs::trace::global();
        if tr.is_enabled() {
            tr.counter(&format!("queue.{}.depth", self.name), depth as f64);
            tr.flow_start(&format!("queue.{}", self.name), self.stats.flow);
        }
    }

    /// Record a dequeue of an element enqueued at `ts` that left the
    /// queue `depth` deep.
    fn note_dequeue(&self, ts: f64, depth: usize) {
        let residency = (clock::now() - ts).max(0.0);
        self.stats.dequeued.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.stats.residency_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + residency).to_bits();
            match self.stats.residency_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.stats.m_dequeued.inc();
        self.stats.m_depth.set(depth as f64);
        self.stats.m_residency.observe(residency);
        let tr = tfhpc_obs::trace::global();
        if tr.is_enabled() {
            tr.counter(&format!("queue.{}.depth", self.name), depth as f64);
            tr.flow_end(&format!("queue.{}", self.name), self.stats.flow);
        }
    }

    /// Snapshot this queue's activity for `StepStats`.
    pub fn step_stat(&self) -> tfhpc_obs::QueueStat {
        let depth = self.state.lock().items.len() as u64;
        tfhpc_obs::QueueStat {
            name: self.name.clone(),
            enqueued: self.stats.enqueued.load(Ordering::Relaxed),
            dequeued: self.stats.dequeued.load(Ordering::Relaxed),
            depth,
            residency_seconds: f64::from_bits(self.stats.residency_bits.load(Ordering::Relaxed)),
        }
    }

    /// Queue name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current element count.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True when no elements are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking enqueue of one tuple.
    pub fn enqueue(&self, tuple: Vec<Tensor>) -> Result<()> {
        let mut st = self.state.lock();
        while st.items.len() >= self.capacity && !st.closed && st.aborted.is_none() {
            st.parked_producers += 1;
            st = self.not_full.wait(&self.state, st);
            st.parked_producers -= 1;
        }
        if let Some(err) = &st.aborted {
            return Err(err.clone());
        }
        if st.closed {
            return Err(CoreError::QueueClosed(self.name.clone()));
        }
        st.items.push_back((clock::now(), tuple));
        let depth = st.items.len();
        let parked = st.parked_consumers;
        drop(st);
        self.not_empty.wake(parked);
        self.note_enqueue(depth);
        Ok(())
    }

    /// Blocking dequeue of one tuple. Errors with `QueueClosed` once
    /// the queue is closed *and* drained, or with the abort error once
    /// aborted (aborting cancels pending elements, it does not drain).
    ///
    /// Under an ambient [`crate::deadline`] scope the park is bounded
    /// by the request's *remaining* budget instead of being unbounded:
    /// an available element is still popped (even at zero budget), but
    /// an empty queue surfaces `DeadlineExceeded` once the budget runs
    /// out rather than waiting on a partitioned or dead producer.
    pub fn dequeue(&self) -> Result<Vec<Tensor>> {
        // The absolute expiry itself, so the park ends on it exactly.
        self.dequeue_by(crate::deadline::deadline_s())
    }

    /// [`FifoQueue::dequeue`] with a deadline: gives up with
    /// `DeadlineExceeded` after `timeout_s` seconds on the queue's
    /// clock — *virtual* seconds when it is sim-bound (the caller's
    /// clock then sits at exactly `now + timeout_s`), wall-clock
    /// seconds otherwise. This is the primitive that keeps consumers
    /// from parking forever on a dead producer.
    pub fn dequeue_timeout(&self, timeout_s: f64) -> Result<Vec<Tensor>> {
        self.dequeue_by(Some(clock::now() + timeout_s))
    }

    /// Pop the head, parking while the queue is empty and open — until
    /// `deadline` on the queue's clock when there is one.
    fn dequeue_by(&self, deadline: Option<f64>) -> Result<Vec<Tensor>> {
        if deadline.is_some() && !self.not_empty.can_wait_here() {
            return Err(CoreError::Invalid(format!(
                "queue `{}` is sim-bound but a timed dequeue was called \
                 from a non-simulated thread",
                self.name
            )));
        }
        let mut st = self.state.lock();
        loop {
            if let Some(err) = &st.aborted {
                return Err(err.clone());
            }
            if let Some((ts, tuple)) = st.items.pop_front() {
                let depth = st.items.len();
                let parked = st.parked_producers;
                drop(st);
                self.not_full.wake(parked);
                self.note_dequeue(ts, depth);
                return Ok(tuple);
            }
            if st.closed {
                return Err(CoreError::QueueClosed(self.name.clone()));
            }
            let timed = deadline.map(|deadline| (deadline, clock::now()));
            if let Some((deadline, now)) = timed {
                if now >= deadline {
                    return Err(CoreError::DeadlineExceeded(format!(
                        "dequeue on `{}` past its deadline t={deadline:.6}s",
                        self.name
                    )));
                }
            }
            st.parked_consumers += 1;
            st = match timed {
                Some((deadline, now)) => {
                    self.not_empty.wait_until(&self.state, st, deadline, now).0
                }
                None => self.not_empty.wait(&self.state, st),
            };
            st.parked_consumers -= 1;
        }
    }

    /// Non-blocking dequeue. `Ok(Some(tuple))` when an element was
    /// available (even on a closed queue — closing drains), `Ok(None)`
    /// when the queue is momentarily empty but open, and
    /// `Err(QueueClosed)` once closed *and* drained — the same terminal
    /// signal [`FifoQueue::dequeue`] gives, so pollers can tell "retry
    /// later" from "no more elements will ever arrive".
    pub fn try_dequeue(&self) -> Result<Option<Vec<Tensor>>> {
        let mut st = self.state.lock();
        if let Some(err) = &st.aborted {
            return Err(err.clone());
        }
        let Some((ts, tuple)) = st.items.pop_front() else {
            if st.closed {
                return Err(CoreError::QueueClosed(self.name.clone()));
            }
            return Ok(None);
        };
        let depth = st.items.len();
        let parked = st.parked_producers;
        drop(st);
        self.not_full.wake(parked);
        self.note_dequeue(ts, depth);
        Ok(Some(tuple))
    }

    /// Threads or simulated processes parked in this queue right now,
    /// as `(consumers, producers)`. Lets tests wait for "the other
    /// thread is parked" instead of sleeping and hoping.
    #[doc(hidden)]
    pub fn parked(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.parked_consumers, st.parked_producers)
    }

    /// Close the queue: wake all waiters; enqueues fail from now on.
    /// Consumers drain the buffered elements, then see `QueueClosed`.
    pub fn close(&self) {
        self.close_with_cancel(false);
    }

    /// Close the queue, optionally cancelling the still-buffered
    /// elements — TensorFlow's `close(cancel_pending_enqueues=True)`.
    /// With `cancel_pending_enqueues` false this is [`FifoQueue::close`]
    /// (drain-then-error); with true the buffer is discarded, so parked
    /// and future consumers fail with `QueueClosed` immediately. In
    /// both modes every parked producer and consumer is woken.
    pub fn close_with_cancel(&self, cancel_pending_enqueues: bool) {
        {
            let mut st = self.state.lock();
            st.closed = true;
            if cancel_pending_enqueues {
                st.items.clear();
                self.stats.m_depth.set(0.0);
            }
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Abort the queue with `err` (first abort wins, later calls are
    /// no-ops): every pending and future operation — enqueue, dequeue,
    /// drain — fails with a clone of `err`, and all parked waiters wake
    /// immediately. This is how a dead peer or a supervisor teardown
    /// unblocks tasks parked on the dead task's queues.
    pub fn abort(&self, err: CoreError) {
        {
            let mut st = self.state.lock();
            if st.aborted.is_some() {
                return;
            }
            st.aborted = Some(err);
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// The sticky abort error, when aborted.
    pub fn abort_error(&self) -> Option<CoreError> {
        self.state.lock().aborted.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn t(v: f64) -> Vec<Tensor> {
        vec![Tensor::scalar_f64(v)]
    }

    /// Spin (bounded) until `q` reports exactly `want` parked
    /// `(consumers, producers)`.
    fn await_parked(q: &FifoQueue, want: (usize, usize)) {
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        while q.parked() != want {
            assert!(
                std::time::Instant::now() < give_up,
                "queue `{}` never reached parked {want:?} (at {:?})",
                q.name(),
                q.parked()
            );
            thread::yield_now();
        }
    }

    #[test]
    fn fifo_order() {
        let q = FifoQueue::new("q", 10);
        for i in 0..5 {
            q.enqueue(t(i as f64)).unwrap();
        }
        for i in 0..5 {
            let v = q.dequeue().unwrap();
            assert_eq!(v[0].scalar_value_f64().unwrap(), i as f64);
        }
    }

    #[test]
    fn dequeue_blocks_until_enqueue() {
        let q = FifoQueue::new("q", 4);
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.dequeue().unwrap()[0].scalar_value_f64().unwrap());
        await_parked(&q, (1, 0));
        q.enqueue(t(7.0)).unwrap();
        assert_eq!(h.join().unwrap(), 7.0);
    }

    #[test]
    fn enqueue_blocks_at_capacity() {
        let q = FifoQueue::new("q", 1);
        q.enqueue(t(1.0)).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            q2.enqueue(t(2.0)).unwrap();
        });
        await_parked(&q, (0, 1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.dequeue().unwrap()[0].scalar_value_f64().unwrap(), 1.0);
        h.join().unwrap();
        assert_eq!(q.dequeue().unwrap()[0].scalar_value_f64().unwrap(), 2.0);
    }

    #[test]
    fn close_drains_then_errors() {
        let q = FifoQueue::new("q", 4);
        q.enqueue(t(1.0)).unwrap();
        q.close();
        assert!(matches!(q.enqueue(t(2.0)), Err(CoreError::QueueClosed(_))));
        assert!(q.dequeue().is_ok()); // drain
        assert!(matches!(q.dequeue(), Err(CoreError::QueueClosed(_))));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = FifoQueue::new("q", 4);
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.dequeue());
        await_parked(&q, (1, 0));
        q.close();
        assert!(matches!(h.join().unwrap(), Err(CoreError::QueueClosed(_))));
    }

    #[test]
    fn close_with_cancel_drops_buffered_elements() {
        let q = FifoQueue::new("q", 4);
        q.enqueue(t(1.0)).unwrap();
        q.enqueue(t(2.0)).unwrap();
        q.close_with_cancel(true);
        // Unlike a plain close, nothing is drained.
        assert!(matches!(q.dequeue(), Err(CoreError::QueueClosed(_))));
        assert!(q.is_empty());
        assert!(matches!(q.enqueue(t(3.0)), Err(CoreError::QueueClosed(_))));
    }

    #[test]
    fn close_wakes_every_consumer_parked_across_the_close() {
        // Regression: consumers already parked in dequeue() when the
        // close lands must all wake with QueueClosed in real-thread
        // mode, not stay parked forever.
        let q = FifoQueue::new("q", 4);
        let mut parked = Vec::new();
        for _ in 0..3 {
            let q2 = Arc::clone(&q);
            parked.push(thread::spawn(move || q2.dequeue()));
        }
        await_parked(&q, (3, 0));
        q.close_with_cancel(true);
        for h in parked {
            assert!(matches!(h.join().unwrap(), Err(CoreError::QueueClosed(_))));
        }
    }

    #[test]
    fn sim_close_with_cancel_wakes_parked_consumer() {
        use tfhpc_sim::des::{current, Sim};
        let sim = Sim::new();
        let q_slot: Arc<Mutex<Option<Arc<FifoQueue>>>> = Arc::new(Mutex::new(None));
        let outcome = Arc::new(Mutex::new(None));
        {
            let q_slot = Arc::clone(&q_slot);
            let outcome = Arc::clone(&outcome);
            sim.spawn("consumer", move || {
                let q = FifoQueue::new("simq-close", 4);
                *q_slot.lock() = Some(Arc::clone(&q));
                *outcome.lock() = Some(q.dequeue());
            });
        }
        {
            let q_slot = Arc::clone(&q_slot);
            sim.spawn("closer", move || {
                current().unwrap().advance(2.0);
                let q = q_slot.lock().as_ref().unwrap().clone();
                assert_eq!(q.parked(), (1, 0), "the consumer process is counted");
                q.enqueue(vec![Tensor::scalar_f64(1.0)]).unwrap();
                // Buffered element is cancelled; the parked consumer
                // wakes with QueueClosed, not the value.
                q.close_with_cancel(true);
            });
        }
        sim.run();
        let got = outcome.lock().take().expect("consumer ran");
        // The consumer either grabbed the element before the cancel
        // (woken by the enqueue) or saw the close; under the DES the
        // schedule is deterministic — it wakes on the enqueue first.
        assert!(got.is_ok() || matches!(got, Err(CoreError::QueueClosed(_))));
    }

    #[test]
    #[should_panic(expected = "outside a sim process")]
    fn a_sim_bound_queue_refuses_non_simulated_threads() {
        // Made inside a simulation, used after its run: this thread is
        // then a non-simulated one holding a sim-bound queue.
        let sim = tfhpc_sim::des::Sim::new();
        let slot = Arc::new(Mutex::new(None));
        let filled = Arc::clone(&slot);
        sim.spawn("owner", move || {
            *filled.lock() = Some(FifoQueue::new("simq-misuse", 4));
        });
        sim.run();
        let q = slot.lock().take().expect("owner ran");
        assert!(matches!(
            q.dequeue_timeout(0.01),
            Err(CoreError::Invalid(_))
        ));
        // Panics rather than drop a wake-up some parked process needs.
        q.close();
    }

    #[test]
    fn try_dequeue_nonblocking() {
        let q = FifoQueue::new("q", 4);
        assert!(q.try_dequeue().unwrap().is_none());
        q.enqueue(t(3.0)).unwrap();
        assert!(q.try_dequeue().unwrap().is_some());
    }

    #[test]
    fn try_dequeue_surfaces_closed() {
        let q = FifoQueue::new("q", 4);
        q.enqueue(t(1.0)).unwrap();
        q.close();
        // Drain still succeeds after close...
        let drained = q.try_dequeue().unwrap().unwrap();
        assert_eq!(drained[0].scalar_value_f64().unwrap(), 1.0);
        // ...then the closed state is an error, not a silent None.
        assert!(matches!(q.try_dequeue(), Err(CoreError::QueueClosed(_))));
    }

    #[test]
    fn sim_mode_queue_carries_virtual_time() {
        use tfhpc_sim::des::{current, Sim};
        let sim = Sim::new();
        let q_slot: Arc<Mutex<Option<Arc<FifoQueue>>>> = Arc::new(Mutex::new(None));
        let consumer_time = Arc::new(Mutex::new(0.0f64));
        // Owner process creates the queue inside the sim, then consumes.
        {
            let q_slot = Arc::clone(&q_slot);
            let consumer_time = Arc::clone(&consumer_time);
            sim.spawn("owner", move || {
                let q = FifoQueue::new("simq", 4);
                *q_slot.lock() = Some(Arc::clone(&q));
                let v = q.dequeue().unwrap();
                assert_eq!(v[0].scalar_value_f64().unwrap(), 42.0);
                *consumer_time.lock() = current().unwrap().now();
            });
        }
        {
            let q_slot = Arc::clone(&q_slot);
            sim.spawn("producer", move || {
                let me = current().unwrap();
                me.advance(3.0); // produce at t=3
                let q = q_slot.lock().as_ref().unwrap().clone();
                q.enqueue(vec![Tensor::scalar_f64(42.0)]).unwrap();
            });
        }
        sim.run();
        // Consumer was blocked until the producer's t=3.
        assert!(*consumer_time.lock() >= 3.0);
    }

    #[test]
    fn abort_wakes_blocked_consumer_with_error() {
        let q = FifoQueue::new("q", 4);
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.dequeue());
        await_parked(&q, (1, 0));
        q.abort(CoreError::Unavailable("peer died".into()));
        assert!(matches!(h.join().unwrap(), Err(CoreError::Unavailable(_))));
        // Sticky: later operations fail the same way, no drain.
        assert!(matches!(q.enqueue(t(1.0)), Err(CoreError::Unavailable(_))));
        assert!(matches!(q.try_dequeue(), Err(CoreError::Unavailable(_))));
    }

    #[test]
    fn abort_cancels_pending_elements() {
        let q = FifoQueue::new("q", 4);
        q.enqueue(t(1.0)).unwrap();
        q.abort(CoreError::Aborted("gang restart".into()));
        // Unlike close(), abort does not drain.
        assert!(matches!(q.dequeue(), Err(CoreError::Aborted(_))));
        // First abort wins.
        q.abort(CoreError::Unavailable("second".into()));
        assert!(matches!(q.abort_error(), Some(CoreError::Aborted(_))));
    }

    #[test]
    fn dequeue_timeout_expires_then_succeeds() {
        let q = FifoQueue::new("q", 4);
        assert!(matches!(
            q.dequeue_timeout(0.02),
            Err(CoreError::DeadlineExceeded(_))
        ));
        q.enqueue(t(8.0)).unwrap();
        assert_eq!(
            q.dequeue_timeout(0.02).unwrap()[0]
                .scalar_value_f64()
                .unwrap(),
            8.0
        );
    }

    #[test]
    fn dequeue_timeout_woken_by_late_producer() {
        let q = FifoQueue::new("q", 4);
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.dequeue_timeout(5.0));
        await_parked(&q, (1, 0));
        q.enqueue(t(3.0)).unwrap();
        assert_eq!(
            h.join().unwrap().unwrap()[0].scalar_value_f64().unwrap(),
            3.0
        );
    }

    #[test]
    fn sim_dequeue_timeout_fires_at_exact_virtual_time() {
        use tfhpc_sim::des::{current, Sim};
        let sim = Sim::new();
        let out = Arc::new(Mutex::new((0.0f64, false)));
        {
            let out = Arc::clone(&out);
            sim.spawn("consumer", move || {
                let q = FifoQueue::new("simq", 4);
                let me = current().unwrap();
                me.advance(1.0);
                let r = q.dequeue_timeout(2.5);
                *out.lock() = (me.now(), matches!(r, Err(CoreError::DeadlineExceeded(_))));
            });
        }
        sim.run();
        let (now, deadline_hit) = *out.lock();
        assert!(deadline_hit);
        assert_eq!(now, 3.5); // exactly start + timeout
    }

    #[test]
    fn step_stat_counts_activity() {
        let q = FifoQueue::new("stats-q", 4);
        q.enqueue(t(1.0)).unwrap();
        q.enqueue(t(2.0)).unwrap();
        q.dequeue().unwrap();
        let s = q.step_stat();
        assert_eq!(s.name, "stats-q");
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.dequeued, 1);
        assert_eq!(s.depth, 1);
        assert!(s.residency_seconds >= 0.0);
    }

    #[test]
    fn parked_count_follows_every_way_out_of_a_wait() {
        // Woken by an enqueue.
        let q = FifoQueue::new("q", 4);
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.dequeue());
        await_parked(&q, (1, 0));
        q.enqueue(t(1.0)).unwrap();
        assert!(h.join().unwrap().is_ok());
        assert_eq!(q.parked(), (0, 0));
        // Timed out.
        assert!(q.dequeue_timeout(0.005).is_err());
        assert_eq!(q.parked(), (0, 0));
        // Closed, then aborted, under a parked consumer.
        let closed = FifoQueue::new("closed", 4);
        let aborted = FifoQueue::new("aborted", 4);
        for (q, end) in [
            (&closed, FifoQueue::close as fn(&FifoQueue)),
            (&aborted, |q| q.abort(CoreError::Cancelled("test".into()))),
        ] {
            let q2 = Arc::clone(q);
            let h = thread::spawn(move || q2.dequeue());
            await_parked(q, (1, 0));
            end(q);
            assert!(h.join().unwrap().is_err());
            assert_eq!(q.parked(), (0, 0));
        }
    }

    #[test]
    fn back_to_back_enqueues_wake_both_parked_consumers() {
        let q = FifoQueue::new("q", 4);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.dequeue().unwrap()[0].scalar_value_f64().unwrap())
            })
            .collect();
        await_parked(&q, (2, 0));
        // The second enqueue may still read a count of 2 (the first
        // consumer has not re-taken the lock yet): it must notify again.
        q.enqueue(t(1.0)).unwrap();
        q.enqueue(t(2.0)).unwrap();
        let mut got: Vec<f64> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, [1.0, 2.0]);
        assert_eq!(q.parked(), (0, 0));
    }

    #[test]
    fn try_dequeue_wakes_a_producer_parked_at_capacity() {
        let q = FifoQueue::new("q", 1);
        q.enqueue(t(1.0)).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.enqueue(t(2.0)));
        await_parked(&q, (0, 1));
        assert!(q.try_dequeue().unwrap().is_some());
        h.join().unwrap().unwrap();
        assert_eq!(q.parked(), (0, 0));
        assert_eq!(q.dequeue().unwrap()[0].scalar_value_f64().unwrap(), 2.0);
    }

    #[test]
    fn no_wakeup_is_lost_under_contention() {
        // A wrong wake rule shows as a hang, so every thread reports on
        // a channel and the test gives up after a minute.
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 50_000;
        let q = FifoQueue::new("stress", 2);
        let (done, finished) = std::sync::mpsc::channel::<Option<Vec<usize>>>();
        let mut threads = Vec::new();
        for p in 0..PRODUCERS {
            let (q, done) = (Arc::clone(&q), done.clone());
            threads.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = (p * PER_PRODUCER + i) as i64;
                    q.enqueue(vec![Tensor::scalar_i64(id)]).unwrap();
                }
                done.send(None).unwrap();
            }));
        }
        for _ in 0..CONSUMERS {
            let (q, done) = (Arc::clone(&q), done.clone());
            threads.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(tuple) = q.dequeue() {
                    got.push(tuple[0].scalar_value_i64().unwrap() as usize);
                }
                done.send(Some(got)).unwrap();
            }));
        }
        let give_up = std::time::Instant::now() + Duration::from_secs(60);
        let next = || {
            let left = give_up.saturating_duration_since(std::time::Instant::now());
            finished.recv_timeout(left).unwrap_or_else(|_| {
                panic!("stalled with {} queued, parked {:?}", q.len(), q.parked())
            })
        };
        let mut seen = vec![0u8; PRODUCERS * PER_PRODUCER];
        // Producers report `None`; close once all of them have.
        let mut producers_left = PRODUCERS;
        for _ in 0..PRODUCERS + CONSUMERS {
            match next() {
                Some(got) => got.into_iter().for_each(|id| seen[id] += 1),
                None => {
                    producers_left -= 1;
                    if producers_left == 0 {
                        q.close();
                    }
                }
            }
        }
        for h in threads {
            h.join().unwrap();
        }
        assert!(seen.iter().all(|n| *n == 1), "a tuple was lost or doubled");
        assert_eq!(q.parked(), (0, 0));
    }

    #[test]
    fn multi_producer_multi_consumer_counts() {
        let q = FifoQueue::new("q", 8);
        let total = 200;
        let mut handles = Vec::new();
        for p in 0..4 {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..total / 4 {
                    q.enqueue(t((p * 1000 + i) as f64)).unwrap();
                }
            }));
        }
        let got = Arc::new(Mutex::new(0usize));
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let got = Arc::clone(&got);
            consumers.push(thread::spawn(move || {
                while q.dequeue().is_ok() {
                    *got.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(*got.lock(), total);
    }
}
