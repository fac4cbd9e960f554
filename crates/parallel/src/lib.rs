//! # tfhpc-parallel
//!
//! A small, dependency-light data-parallelism layer used by every CPU
//! kernel in the `tfhpc` workspace. It provides:
//!
//! * [`ThreadPool`] — a fixed-size pool of worker threads fed through a
//!   crossbeam channel.
//! * [`scope`] — structured (scoped) task spawning with non-`'static`
//!   borrows, panic propagation and guaranteed join-before-return.
//! * [`parallel_for`] / [`parallel_reduce`] / [`par_chunks_mut`] —
//!   chunked data-parallel loops with dynamic (work-sharing) scheduling.
//!
//! The pool intentionally mirrors the subset of rayon used by HPC
//! kernels; building it ourselves keeps the workspace self-contained
//! and exercises the atomics/locks idioms from the domain guides.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

mod wait_group;
pub use wait_group::WaitGroup;

pub mod arena;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads.
///
/// Jobs are dispatched through an unbounded MPMC channel; workers catch
/// panics so a panicking task never poisons the pool (the panic payload
/// is re-thrown by the [`Scope`] that spawned the task).
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Create a pool with `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver): (Sender<Job>, Receiver<Job>) = unbounded();
        let workers = (0..size)
            .map(|i| {
                let rx = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("tfhpc-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// Number of worker threads in this pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submit a `'static` job. Prefer [`Scope::spawn`] for borrowed work.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.sender
            .as_ref()
            .expect("pool shut down")
            .send(Box::new(f))
            .expect("pool workers gone");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain outstanding jobs and exit.
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The process-wide default pool, sized to the machine's parallelism.
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ThreadPool::new(n)
    })
}

/// Tracks tasks spawned in a scope plus the first panic payload.
struct ScopeState {
    pending: WaitGroup,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Handle for spawning borrowed tasks inside [`scope`].
pub struct Scope<'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawn a task that may borrow from the enclosing scope.
    ///
    /// The task is guaranteed to have finished before [`scope`] returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.add(1);
        let state = Arc::clone(&self.state);
        // SAFETY: `scope()` blocks until `pending` reaches zero before
        // returning, so the closure (and everything it borrows, which
        // lives at least as long as `'scope`) outlives its execution.
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = state.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.pending.done();
        });
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool
            .sender
            .as_ref()
            .expect("pool shut down")
            .send(job)
            .expect("pool workers gone");
    }
}

/// Run `f` with a [`Scope`] bound to `pool`; blocks until every spawned
/// task completed. Re-throws the first task panic, if any.
pub fn scope_on<'env, F, R>(pool: &ThreadPool, f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let state = Arc::new(ScopeState {
        pending: WaitGroup::new(),
        panic: Mutex::new(None),
    });
    let scope = Scope {
        pool: unsafe { std::mem::transmute::<&ThreadPool, &ThreadPool>(pool) },
        state: Arc::clone(&state),
        _marker: std::marker::PhantomData,
    };
    let out = f(&scope);
    state.pending.wait();
    if let Some(payload) = state.panic.lock().take() {
        std::panic::resume_unwind(payload);
    }
    out
}

/// [`scope_on`] against the global pool.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    scope_on(global_pool(), f)
}

/// Run two closures potentially in parallel and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut ra = None;
    let rb = scope(|s| {
        s.spawn(|| ra = Some(a()));
        b()
    });
    (ra.expect("join: first closure did not run"), rb)
}

thread_local! {
    /// Per-thread cap on data-parallel workers (0 = no cap). Set by the
    /// session's intra-op knob so kernels running on inter-op workers
    /// share the machine fairly.
    static WORKER_LIMIT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Run `f` with this thread's data-parallel worker cap set to `limit`
/// (0 = unlimited). The previous cap is restored on exit, including on
/// unwind. [`parallel_for`]/[`parallel_reduce`] called from within `f`
/// use at most `limit` pool workers.
pub fn with_worker_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_LIMIT.with(|l| l.set(self.0));
        }
    }
    let prev = WORKER_LIMIT.with(|l| l.replace(limit));
    let _restore = Restore(prev);
    f()
}

/// This thread's current data-parallel worker cap (0 = unlimited).
pub fn current_worker_limit() -> usize {
    WORKER_LIMIT.with(|l| l.get())
}

/// Effective worker count for a data-parallel loop on this thread:
/// the pool size, clamped by [`current_worker_limit`].
fn effective_workers(pool: &ThreadPool) -> usize {
    match current_worker_limit() {
        0 => pool.size(),
        limit => limit.min(pool.size()),
    }
}

/// Pick a chunk size that yields a few chunks per worker for dynamic
/// load balance without excessive scheduling overhead.
pub fn default_chunk(len: usize, workers: usize) -> usize {
    if len == 0 {
        return 1;
    }
    let target_chunks = workers.max(1) * 4;
    len.div_ceil(target_chunks)
}

/// [`default_chunk`] rounded up to a multiple of `line_elems` (elements
/// per cache line for the element type). Chunk boundaries then fall on
/// cache-line edges, so two workers writing adjacent chunks never share
/// a line (no false sharing on the seams of `par_chunks_mut` tiles).
pub fn aligned_chunk(len: usize, workers: usize, line_elems: usize) -> usize {
    let base = default_chunk(len, workers);
    let line = line_elems.max(1);
    base.div_ceil(line) * line
}

/// Data-parallel `for` over `0..len` in chunks.
///
/// `body(start, end)` is invoked for disjoint half-open ranges covering
/// `0..len`. Chunks are claimed dynamically from an atomic counter so
/// uneven chunks do not stall the loop.
pub fn parallel_for<F>(len: usize, chunk: usize, body: F)
where
    F: Fn(usize, usize) + Send + Sync,
{
    let pool = global_pool();
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    let cap = effective_workers(pool);
    if n_chunks <= 1 || cap == 1 {
        if len > 0 {
            body(0, len);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let body = &body;
    let next = &next;
    scope_on(pool, |s| {
        let workers = cap.min(n_chunks);
        for _ in 0..workers {
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let start = i * chunk;
                let end = (start + chunk).min(len);
                body(start, end);
            });
        }
    });
}

/// Data-parallel reduction: map each chunk with `map(start, end)` and
/// fold the partials with `fold`, starting from `identity`.
///
/// Deterministic for a fixed `(len, chunk, worker count)`: chunks are
/// assigned round-robin (worker `w` takes chunks `w, w+W, …`), each
/// worker folds its chunks in ascending index order, and the per-worker
/// partials are folded in worker order. Execution timing never changes
/// the association, so floating-point reductions are bit-reproducible
/// run to run. (The previous implementation folded partials in worker
/// *completion* order, which raced.)
pub fn parallel_reduce<T, M, R>(len: usize, chunk: usize, identity: T, map: M, fold: R) -> T
where
    T: Send,
    M: Fn(usize, usize) -> T + Send + Sync,
    R: Fn(T, T) -> T + Send + Sync,
{
    let pool = global_pool();
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    let cap = effective_workers(pool);
    if n_chunks <= 1 || cap == 1 {
        return if len == 0 {
            identity
        } else {
            fold(identity, map(0, len))
        };
    }
    let workers = cap.min(n_chunks);
    let mut partials: Vec<Option<T>> = (0..workers).map(|_| None).collect();
    {
        let map = &map;
        let fold = &fold;
        let slots = SendPtr(partials.as_mut_ptr());
        scope_on(pool, |s| {
            for w in 0..workers {
                s.spawn(move || {
                    let slots = slots;
                    let mut local: Option<T> = None;
                    let mut i = w;
                    while i < n_chunks {
                        let start = i * chunk;
                        let end = (start + chunk).min(len);
                        let v = map(start, end);
                        local = Some(match local.take() {
                            None => v,
                            Some(acc) => fold(acc, v),
                        });
                        i += workers;
                    }
                    // SAFETY: worker `w` writes only slot `w`; the
                    // scope joins before `partials` is read.
                    unsafe { *slots.0.add(w) = local };
                });
            }
        });
    }
    partials.into_iter().flatten().fold(identity, fold)
}

/// Data-parallel mutation of disjoint chunks of a slice.
///
/// `body(chunk_index, chunk)` runs for each `chunk_size`-sized window.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Send + Sync,
{
    let chunk_size = chunk_size.max(1);
    let len = data.len();
    if len == 0 {
        return;
    }
    let ptr = SendPtr(data.as_mut_ptr());
    let body = &body;
    parallel_for(len.div_ceil(chunk_size), 1, move |ci_start, ci_end| {
        let ptr = ptr; // capture the SendPtr wrapper, not its raw field
        for ci in ci_start..ci_end {
            let start = ci * chunk_size;
            let end = (start + chunk_size).min(len);
            // SAFETY: chunk windows are disjoint; `parallel_for`
            // joins before `data`'s borrow ends.
            let slice = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(start), end - start) };
            body(ci, slice);
        }
    });
}

/// A raw pointer wrapper asserting cross-thread transferability for the
/// disjoint-chunk pattern above.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_executes_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // join workers
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn scope_joins_before_return() {
        let mut data = vec![0u64; 1000];
        scope(|s| {
            for (i, slot) in data.iter_mut().enumerate() {
                if i % 100 == 0 {
                    s.spawn(move || *slot = i as u64);
                }
            }
        });
        for i in (0..1000).step_by(100) {
            assert_eq!(data[i], i as u64);
        }
    }

    #[test]
    fn scope_propagates_panic() {
        let result = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| 2 + 2, || "hi".len());
        assert_eq!(a, 4);
        assert_eq!(b, 2);
    }

    #[test]
    fn parallel_for_covers_range_once() {
        let hits = (0..10_000).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        parallel_for(10_000, 37, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_and_tiny() {
        parallel_for(0, 8, |_, _| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        parallel_for(1, 8, |s, e| {
            assert_eq!((s, e), (0, 1));
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parallel_reduce_sums() {
        let n = 100_000usize;
        let total = parallel_reduce(
            n,
            1024,
            0u64,
            |s, e| (s..e).map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn parallel_reduce_empty_returns_identity() {
        let v = parallel_reduce(0, 16, 42u32, |_, _| 0, |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn par_chunks_mut_disjoint() {
        let mut v = vec![0u32; 1003];
        par_chunks_mut(&mut v, 64, |ci, chunk| {
            for x in chunk.iter_mut() {
                *x = ci as u32 + 1;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, (i / 64) as u32 + 1, "index {i}");
        }
    }

    #[test]
    fn default_chunk_reasonable() {
        assert_eq!(default_chunk(0, 8), 1);
        let c = default_chunk(1000, 8);
        assert!((1..=1000).contains(&c));
        // Should produce roughly 4 chunks per worker.
        assert!((1000 / c) >= 8);
    }

    #[test]
    fn worker_limit_scopes_and_restores() {
        assert_eq!(current_worker_limit(), 0);
        let out = with_worker_limit(3, || {
            assert_eq!(current_worker_limit(), 3);
            with_worker_limit(1, || assert_eq!(current_worker_limit(), 1));
            assert_eq!(current_worker_limit(), 3);
            7
        });
        assert_eq!(out, 7);
        assert_eq!(current_worker_limit(), 0);
        // Restored even when the body panics.
        let _ = std::panic::catch_unwind(|| with_worker_limit(5, || panic!("boom")));
        assert_eq!(current_worker_limit(), 0);
    }

    #[test]
    fn worker_limit_one_runs_inline() {
        let caller = std::thread::current().id();
        with_worker_limit(1, || {
            parallel_for(10_000, 16, |_, _| {
                assert_eq!(std::thread::current().id(), caller);
            });
            let sum = parallel_reduce(
                1000,
                16,
                0u64,
                |s, e| {
                    assert_eq!(std::thread::current().id(), caller);
                    (s..e).map(|i| i as u64).sum()
                },
                |a, b| a + b,
            );
            assert_eq!(sum, 999 * 1000 / 2);
        });
    }

    #[test]
    fn worker_limit_caps_but_completes() {
        with_worker_limit(2, || {
            let hits = (0..5000).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
            parallel_for(5000, 64, |s, e| {
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Scope waiting happens on the caller thread, not a pool
        // worker, so nesting from the caller side is safe.
        let total = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    total.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        scope(|s| {
            s.spawn(|| {
                total.fetch_add(10, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 14);
    }
}
