//! The per-server resource manager: variables, queues and dataset
//! iterators, shared by every session attached to the same server
//! (TensorFlow's resource-manager role). [`TileStore`]s live outside it.

use crate::dataset::{Dataset, DatasetIterator};
use crate::error::{CoreError, Result};
use crate::queue::FifoQueue;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tfhpc_tensor::{DType, Shape, Tensor, TensorError};

/// A mutable named tensor (`tf.Variable`) — the only mutable state in
/// the framework.
pub struct Variable {
    name: String,
    value: Mutex<Tensor>,
}

impl Variable {
    /// Variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshot the current value.
    pub fn read(&self) -> Tensor {
        self.value.lock().clone()
    }

    /// Replace the value (shape/dtype must match the initial value).
    pub fn assign(&self, v: Tensor) -> Result<Tensor> {
        let mut cur = self.value.lock();
        if cur.shape() != v.shape() || cur.dtype() != v.dtype() {
            return Err(CoreError::Tensor(TensorError::ShapeMismatch {
                op: "assign",
                lhs: cur.shape().clone(),
                rhs: v.shape().clone(),
            }));
        }
        *cur = v.clone();
        Ok(v)
    }

    /// `value += v`; returns the new value. The sum is written into the
    /// variable's own buffer when the variable is that buffer's only
    /// owner, and into a fresh one while anyone still holds a snapshot
    /// (`read()`, an earlier return value, a queued tuple).
    pub fn assign_add(&self, v: &Tensor) -> Result<Tensor> {
        let mut cur = self.value.lock();
        // `add_owned` consumes its operands even when it rejects them.
        // It accepts every same-shape pair of one floating dtype, so
        // only then is the value moved out to it; any other pair is
        // lent as a clone and the error leaves the value where it is.
        let accepted =
            cur.shape() == v.shape() && cur.dtype() == v.dtype() && cur.dtype().is_floating();
        let held = if accepted {
            let hole = Tensor::synthetic(DType::F64, Shape::scalar(), 0);
            std::mem::replace(&mut *cur, hole)
        } else {
            cur.clone()
        };
        let next = tfhpc_tensor::ops::add_owned(held, v.clone())?;
        *cur = next.clone();
        Ok(next)
    }
}

/// A named store of tiles (the stand-in for the `.npy` tile files the
/// paper keeps on Lustre). Keys are small i64 vectors, e.g. `[i, j]`.
pub struct TileStore {
    name: String,
    tiles: RwLock<HashMap<Vec<i64>, Tensor>>,
}

impl TileStore {
    /// An empty store; every holder of the handle sees the same tiles.
    pub fn new(name: &str) -> Arc<TileStore> {
        Arc::new(TileStore {
            name: name.to_string(),
            tiles: RwLock::new(HashMap::new()),
        })
    }

    /// Store name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert or replace a tile.
    pub fn put(&self, key: Vec<i64>, tile: Tensor) {
        self.tiles.write().insert(key, tile);
    }

    /// Fetch a tile.
    pub fn get(&self, key: &[i64]) -> Result<Tensor> {
        self.tiles
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("tile {:?} in store `{}`", key, self.name)))
    }

    /// Number of tiles stored.
    pub fn len(&self) -> usize {
        self.tiles.read().len()
    }

    /// True when the store has no tiles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys currently present (sorted, for deterministic iteration).
    pub fn keys(&self) -> Vec<Vec<i64>> {
        let mut keys: Vec<Vec<i64>> = self.tiles.read().keys().cloned().collect();
        keys.sort();
        keys
    }
}

/// The resource manager shared across sessions of one server/task.
#[derive(Default)]
pub struct Resources {
    variables: RwLock<HashMap<String, Arc<Variable>>>,
    queues: RwLock<HashMap<String, Arc<FifoQueue>>>,
    iterators: RwLock<HashMap<String, Arc<DatasetIterator>>>,
    /// Sticky task-level fault: once set (dead task, supervisor
    /// teardown), every existing queue is aborted with it and queues
    /// created afterwards are *born* aborted — so a straggler process
    /// of a torn-down generation can never park forever on a queue it
    /// conjures after the abort swept through.
    fault: Mutex<Option<CoreError>>,
    /// Transparent retries performed against this manager's owner
    /// (incremented by the distributed runtime's retry policy, read
    /// into `RunMetadata`).
    retries: AtomicU64,
    /// Corrupted frames detected on receive paths (checksum failures).
    corruption_detected: AtomicU64,
    /// Retransmissions triggered by detected corruption.
    retransmits: AtomicU64,
}

impl Resources {
    /// Fresh, empty manager.
    pub fn new() -> Arc<Resources> {
        Arc::new(Resources::default())
    }

    // ---- variables ---------------------------------------------------------

    /// Create (or re-initialize) a variable with an initial value.
    pub fn create_variable(&self, name: &str, init: Tensor) -> Arc<Variable> {
        let var = Arc::new(Variable {
            name: name.to_string(),
            value: Mutex::new(init),
        });
        self.variables
            .write()
            .insert(name.to_string(), Arc::clone(&var));
        var
    }

    /// Look up a variable.
    pub fn variable(&self, name: &str) -> Result<Arc<Variable>> {
        self.variables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("variable `{name}`")))
    }

    /// Look up a variable, waiting up to `timeout_s` for its owner to
    /// create it (see [`Resources::queue_wait`]).
    pub fn variable_wait(&self, name: &str, timeout_s: f64) -> Result<Arc<Variable>> {
        self.resolve_within("variable", name, timeout_s, || {
            self.variables.read().get(name).cloned()
        })
    }

    /// Names of all variables (sorted — checkpoint order).
    pub fn variable_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.variables.read().keys().cloned().collect();
        names.sort();
        names
    }

    // ---- queues ------------------------------------------------------------

    /// Create a FIFO queue (binds to the current sim, if any).
    pub fn create_queue(&self, name: &str, capacity: usize) -> Arc<FifoQueue> {
        let q = FifoQueue::new(name, capacity);
        if let Some(err) = self.fault.lock().clone() {
            q.abort(err);
        }
        self.queues.write().insert(name.to_string(), Arc::clone(&q));
        q
    }

    /// Fetch a queue, creating it with `capacity` if absent — used by
    /// collectives where either side of a channel may arrive first.
    pub fn get_or_create_queue(&self, name: &str, capacity: usize) -> Arc<FifoQueue> {
        if let Some(q) = self.queues.read().get(name) {
            return Arc::clone(q);
        }
        let mut queues = self.queues.write();
        queues
            .entry(name.to_string())
            .or_insert_with(|| {
                let q = FifoQueue::new(name, capacity);
                if let Some(err) = self.fault.lock().clone() {
                    q.abort(err);
                }
                q
            })
            .clone()
    }

    /// Look up a queue.
    pub fn queue(&self, name: &str) -> Result<Arc<FifoQueue>> {
        self.queues
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("queue `{name}`")))
    }

    /// Look up a queue, waiting up to `timeout_s` for it to appear.
    ///
    /// Remote ops resolve names on the *owner's* manager, and the
    /// owner may still be executing its startup code when the first
    /// request lands — in real mode gang tasks are free-running OS
    /// threads, so "arrived before the queue was registered" is a brief
    /// stall, not an error. The wait polls in the caller's time domain
    /// (virtual seconds under the DES, wall seconds otherwise); a
    /// sticky task fault aborts it immediately, and a queue that never
    /// appears still surfaces as `NotFound` once the budget is spent.
    pub fn queue_wait(&self, name: &str, timeout_s: f64) -> Result<Arc<FifoQueue>> {
        self.resolve_within("queue", name, timeout_s, || {
            self.queues.read().get(name).cloned()
        })
    }

    /// Poll `lookup` until it yields, the task faults or `timeout_s`
    /// is spent. A hit on the first lookup costs exactly that lookup.
    fn resolve_within<T>(
        &self,
        kind: &str,
        name: &str,
        timeout_s: f64,
        lookup: impl Fn() -> Option<T>,
    ) -> Result<T> {
        const POLL_S: f64 = 500e-6;
        let mut waited = 0.0;
        loop {
            if let Some(found) = lookup() {
                return Ok(found);
            }
            if let Some(err) = self.fault.lock().clone() {
                return Err(err);
            }
            if waited >= timeout_s {
                return Err(CoreError::NotFound(format!("{kind} `{name}`")));
            }
            tfhpc_sim::clock::sleep(POLL_S);
            waited += POLL_S;
        }
    }

    /// Abort every queue of this manager with `err`, and poison future
    /// queue creation the same way (sticky). Waiters parked on any of
    /// the queues wake immediately with a clone of `err`. Idempotent:
    /// the first fault wins.
    pub fn abort_all_queues(&self, err: CoreError) {
        {
            let mut fault = self.fault.lock();
            if fault.is_none() {
                *fault = Some(err.clone());
            }
        }
        let queues: Vec<Arc<FifoQueue>> = self.queues.read().values().cloned().collect();
        for q in queues {
            q.abort(err.clone());
        }
    }

    /// The sticky task-level fault, when set.
    pub fn fault(&self) -> Option<CoreError> {
        self.fault.lock().clone()
    }

    /// Record one transparent retry against this task (also counted on
    /// the process-wide `tfhpc_retries_total` metric).
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        tfhpc_obs::global().counter("tfhpc_retries_total").inc();
    }

    /// Total transparent retries recorded so far.
    pub fn retries_total(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Record one detected frame corruption (also counted on the
    /// process-wide `tfhpc_corruption_detected_total` metric).
    pub fn note_corruption(&self) {
        self.corruption_detected.fetch_add(1, Ordering::Relaxed);
        tfhpc_obs::global()
            .counter("tfhpc_corruption_detected_total")
            .inc();
    }

    /// Total detected frame corruptions recorded so far.
    pub fn corruption_detected_total(&self) -> u64 {
        self.corruption_detected.load(Ordering::Relaxed)
    }

    /// Record one retransmission of a corrupted transfer (also counted
    /// on the process-wide `tfhpc_retransmits_total` metric).
    pub fn note_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
        tfhpc_obs::global().counter("tfhpc_retransmits_total").inc();
    }

    /// Total retransmissions recorded so far.
    pub fn retransmits_total(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    /// Per-queue activity snapshots, sorted by queue name — the
    /// `queues` section of a run's `StepStats`.
    pub fn queue_step_stats(&self) -> Vec<tfhpc_obs::QueueStat> {
        let mut stats: Vec<tfhpc_obs::QueueStat> =
            self.queues.read().values().map(|q| q.step_stat()).collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    // ---- dataset iterators ---------------------------------------------------

    /// Create a plain iterator over `dataset` under `name`.
    pub fn create_iterator(&self, name: &str, dataset: &Dataset) -> Arc<DatasetIterator> {
        let it = Arc::new(dataset.make_iterator());
        self.iterators
            .write()
            .insert(name.to_string(), Arc::clone(&it));
        it
    }

    /// Register an externally-built iterator (e.g. a prefetched one).
    pub fn register_iterator(&self, name: &str, it: DatasetIterator) -> Arc<DatasetIterator> {
        let it = Arc::new(it);
        self.iterators
            .write()
            .insert(name.to_string(), Arc::clone(&it));
        it
    }

    /// Look up an iterator.
    pub fn iterator(&self, name: &str) -> Result<Arc<DatasetIterator>> {
        self.iterators
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("iterator `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_lifecycle() {
        let r = Resources::new();
        let v = r.create_variable("x", Tensor::scalar_f64(1.0));
        assert_eq!(v.read().scalar_value_f64().unwrap(), 1.0);
        v.assign(Tensor::scalar_f64(5.0)).unwrap();
        v.assign_add(&Tensor::scalar_f64(2.0)).unwrap();
        assert_eq!(
            r.variable("x").unwrap().read().scalar_value_f64().unwrap(),
            7.0
        );
        assert!(matches!(r.variable("y"), Err(CoreError::NotFound(_))));
    }

    #[test]
    fn assign_shape_checked() {
        let r = Resources::new();
        let v = r.create_variable("x", Tensor::zeros(DType::F64, [3]));
        assert!(v.assign(Tensor::zeros(DType::F64, [4])).is_err());
        assert!(v.assign(Tensor::zeros(DType::F32, [3])).is_err());
        assert!(v.assign(Tensor::zeros(DType::F64, [3])).is_ok());
    }

    #[test]
    fn assign_add_accumulates_in_place_when_unshared() {
        let r = Resources::new();
        let v = r.create_variable("acc", Tensor::zeros(DType::F64, [64]));
        let one = Tensor::full_f64([64], 1.0);
        // The caller drops each returned value at once, so from the
        // second call on the variable owns its buffer alone.
        v.assign_add(&one).unwrap();
        let ptr = v.read().dense_ptr();
        for _ in 0..5 {
            v.assign_add(&one).unwrap();
            assert_eq!(v.read().dense_ptr(), ptr);
        }
        assert!(v.read().as_f64().unwrap().iter().all(|x| *x == 6.0));
        // The addend was only read.
        assert!(one.as_f64().unwrap().iter().all(|x| *x == 1.0));
    }

    #[test]
    fn assign_add_never_writes_into_a_held_snapshot() {
        let r = Resources::new();
        let v = r.create_variable("acc", Tensor::full_f64([64], 2.0));
        let one = Tensor::full_f64([64], 1.0);
        let snapshot = v.read();
        let returned = v.assign_add(&one).unwrap();
        assert!(snapshot.as_f64().unwrap().iter().all(|x| *x == 2.0));
        assert_ne!(v.read().dense_ptr(), snapshot.dense_ptr());
        // A returned value is a snapshot too.
        v.assign_add(&one).unwrap();
        assert!(returned.as_f64().unwrap().iter().all(|x| *x == 3.0));
        assert_ne!(v.read().dense_ptr(), returned.dense_ptr());
        assert!(v.read().as_f64().unwrap().iter().all(|x| *x == 4.0));
    }

    #[test]
    fn rejected_assign_add_leaves_the_value_intact() {
        use tfhpc_tensor::ops;
        let r = Resources::new();
        let init = Tensor::full_f64([3], 5.0);
        let v = r.create_variable("x", init.clone());
        for bad in [
            Tensor::zeros(DType::F64, [4]),
            Tensor::zeros(DType::F32, [3]),
        ] {
            let want = CoreError::Tensor(ops::add(&init, &bad).unwrap_err());
            assert_eq!(v.assign_add(&bad).unwrap_err(), want);
            assert_eq!(v.read().as_f64().unwrap(), &[5.0; 3]);
        }
        // A dtype `add` is not defined on is rejected the same way.
        let n = r.create_variable("n", Tensor::scalar_i64(1));
        let want = CoreError::Tensor(
            ops::add(&Tensor::scalar_i64(1), &Tensor::scalar_i64(1)).unwrap_err(),
        );
        assert_eq!(n.assign_add(&Tensor::scalar_i64(1)).unwrap_err(), want);
        assert_eq!(n.read().scalar_value_i64().unwrap(), 1);
    }

    #[test]
    fn synthetic_assign_add_mixes_seeds_like_add() {
        use tfhpc_tensor::ops;
        let r = Resources::new();
        let init = Tensor::synthetic(DType::F32, [1 << 20], 11);
        let inc = Tensor::synthetic(DType::F32, [1 << 20], 12);
        let v = r.create_variable("s", init.clone());
        v.assign_add(&inc).unwrap();
        v.assign_add(&inc).unwrap();
        let want = ops::add(&ops::add(&init, &inc).unwrap(), &inc).unwrap();
        assert!(want.synthetic_seed().is_some());
        assert_eq!(v.read().synthetic_seed(), want.synthetic_seed());
        // Dense into synthetic stays synthetic, with `add`'s seed.
        let d = r.create_variable("d", Tensor::zeros(DType::F64, [4]));
        let syn = Tensor::synthetic(DType::F64, [4], 3);
        d.assign_add(&syn).unwrap();
        let want = ops::add(&Tensor::zeros(DType::F64, [4]), &syn).unwrap();
        assert_eq!(d.read().synthetic_seed(), want.synthetic_seed());
    }

    #[test]
    fn queue_wait_rides_out_late_creation() {
        let r = Arc::new(Resources::new());
        let r2 = Arc::clone(&r);
        // The creator parks on a gate this thread opens only once it
        // is about to wait, so the names never exist beforehand.
        let gate = FifoQueue::new("gate", 1);
        let gate2 = Arc::clone(&gate);
        let creator = std::thread::spawn(move || {
            gate2.dequeue().unwrap();
            r2.create_queue("late", 1);
            r2.create_variable("late", Tensor::scalar_f64(1.0));
        });
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while gate.parked() != (1, 0) {
            assert!(std::time::Instant::now() < give_up, "creator never parked");
            std::thread::yield_now();
        }
        assert!(r.queue("late").is_err());
        gate.enqueue(vec![]).unwrap();
        let q = r.queue_wait("late", 5.0).unwrap();
        assert_eq!(q.name(), "late");
        let v = r.variable_wait("late", 5.0).unwrap();
        assert_eq!(v.name(), "late");
        creator.join().unwrap();
        // A name that never appears still fails once the budget is
        // spent.
        assert!(matches!(
            r.queue_wait("absent", 0.002),
            Err(CoreError::NotFound(_))
        ));
        assert!(matches!(
            r.variable_wait("absent", 0.002),
            Err(CoreError::NotFound(what)) if what == "variable `absent`"
        ));
    }

    #[test]
    fn queue_registry() {
        let r = Resources::new();
        r.create_queue("q", 4);
        r.queue("q")
            .unwrap()
            .enqueue(vec![Tensor::scalar_i64(1)])
            .unwrap();
        assert_eq!(r.queue("q").unwrap().len(), 1);
        assert!(r.queue("nope").is_err());
    }

    #[test]
    fn tile_store_roundtrip() {
        let s = TileStore::new("tiles");
        assert!(s.is_empty());
        s.put(vec![1, 2], Tensor::scalar_f32(9.0));
        assert_eq!(s.get(&[1, 2]).unwrap().scalar_value_f64().unwrap(), 9.0);
        assert!(s.get(&[0, 0]).is_err());
        assert_eq!(s.keys(), vec![vec![1, 2]]);
        assert_eq!((s.name(), s.len()), ("tiles", 1));
    }

    #[test]
    fn iterator_registry() {
        let r = Resources::new();
        let ds = Dataset::from_elements(vec![vec![Tensor::scalar_i64(4)]]);
        r.create_iterator("it", &ds);
        let it = r.iterator("it").unwrap();
        assert_eq!(it.get_next().unwrap()[0].scalar_value_i64().unwrap(), 4);
        assert!(matches!(it.get_next(), Err(CoreError::EndOfSequence)));
    }

    #[test]
    fn variable_names_sorted() {
        let r = Resources::new();
        r.create_variable("b", Tensor::scalar_f64(0.0));
        r.create_variable("a", Tensor::scalar_f64(0.0));
        assert_eq!(r.variable_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
