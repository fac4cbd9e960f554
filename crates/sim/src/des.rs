//! The discrete-event simulation kernel.
//!
//! ## Model
//!
//! A [`Sim`] owns a set of *processes* of two kinds. A *thread process*
//! ([`Sim::spawn`]) is backed by an OS thread of its own and runs
//! arbitrary Rust code. A *leaf* ([`Sim::spawn_leaf`]) is a resumable
//! state machine, a [`Process`], with no thread: it runs inline on
//! whichever thread holds the baton and yields by returning a [`Step`];
//! host code that charges time (a session run) it runs under a
//! [`ledger`], which records the charges for the leaf to replay as
//! steps.
//! Exactly one process executes at a time; whenever the running process
//! *yields* (by advancing its clock, blocking on a [`SimCondvar`], or
//! finishing) the scheduler resumes the runnable process with the
//! smallest local virtual time (ties keep the current process or pick
//! the lowest process id), whatever its kind. Because events are
//! therefore handled in nondecreasing virtual-time order, shared
//! [`SimResource`]s serialize in correct timestamp order and the whole
//! simulation is deterministic.
//!
//! ## Hand-off
//!
//! The right to run is a baton. A yielding process picks its successor
//! under the scheduler lock and releases the lock. A leaf successor is
//! resumed right there, on the yielding process's thread, and the
//! picking goes on from the step it returns; a thread successor is
//! unparked, that one thread and nobody else, and the yielding thread
//! parks. The thread inside [`Sim::run`] sleeps until the last process
//! finishes. Only an aborted run (deadlock or a panicking process) wakes
//! every parked thread, once, so that each can unwind and be joined,
//! and calls [`Process::abort`] on every unfinished leaf.
//!
//! ## Discipline
//!
//! Code running inside a process must not hold an application mutex
//! across a yielding call (`advance`, `SimCondvar::wait`,
//! `SimResource::acquire_for`) unless every other accessor of that
//! mutex is also a sim process (the kernel guarantees only one sim
//! process runs at a time, so such locks are never contended).
//!
//! ## Deadlock
//!
//! If every live process is blocked, [`Sim::run`] panics with a dump of
//! per-process states — the same failure mode a hung distributed
//! TensorFlow job exhibits, and a useful oracle for queue-protocol bugs.

use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

/// Identifier of a simulated process.
pub type ProcId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Running,
    Blocked,
    Done,
}

/// What a leaf asks of the scheduler each time its `resume` returns.
pub enum Step {
    /// The leaf is finished.
    Done,
    /// Let `dt` seconds of modeled work pass: the leaf's
    /// [`CurrentProc::advance`].
    Advance(f64),
    /// Park until `cv` is notified: the leaf's [`SimCondvar::wait`].
    Wait(SimCondvar),
    /// Park until `cv` is notified or the clock reaches the absolute
    /// deadline: the leaf's [`SimCondvar::wait_until`]. The next
    /// `resume` reads which of the two it was from
    /// [`CurrentProc::timed_out`].
    WaitUntil(SimCondvar, f64),
}

/// The body of a leaf process: a state machine the scheduler resumes
/// inline, on the thread that holds the baton, once per dispatch.
///
/// Inside `resume` the leaf is the current process ([`current`]): it may
/// read its clock, notify, spawn, count and [`SimResource::reserve`],
/// but it must not call anything that parks its thread (`advance`,
/// [`SimCondvar::wait`], [`crate::clock::sleep`], [`crate::clock::Cv`]'s
/// waits, [`SimResource::acquire_for`]); those panic, naming the leaf.
/// It yields by returning the [`Step`] instead, or runs code that
/// advances its clock under a [`ledger`] and replays the charges. It
/// shares its host thread's thread-locals, so it must not lean on them.
pub trait Process: Send {
    /// Run up to the next yield point and say what it is.
    fn resume(&mut self) -> Step;

    /// Called once, instead of any further `resume`, when the run is
    /// aborted (deadlock or a panic) before this leaf finished.
    fn abort(&mut self) {}
}

/// How a process runs.
enum Body {
    /// On an OS thread of its own, which the scheduler hands the baton
    /// with `unpark`.
    Thread(Thread),
    /// Inline in `hand_off`. `None` while it runs and once it is Done.
    Leaf(Option<Box<dyn Process>>),
}

struct ProcState {
    name: String,
    time: f64,
    status: Status,
    body: Body,
    /// While Blocked: the one condvar this process is queued on and the
    /// virtual deadline of a `wait_until` in progress.
    waiting_on: Option<(usize, Option<f64>)>,
    /// Set by the scheduler when the process was resumed by its timer
    /// rather than a notify; consumed by `wait_until`.
    timed_out: bool,
    /// Message of the panic that ended the process body.
    panicked: Option<String>,
}

/// A virtual time as an integer that sorts the way the time does, so
/// `(time_key, pid)` tuples order the scheduler's sets. `-0.0` maps to
/// the key of `0.0`.
fn time_key(t: f64) -> u64 {
    let bits = (t + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The scheduler's own event counts for one simulation: what a run cost
/// the host, in hand-offs rather than seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Times the scheduler gave a process the baton.
    pub dispatches: u64,
    /// Wake-ups sent to process threads: one per dispatch of a thread
    /// process, plus one per unfinished thread process when a run
    /// aborts.
    pub thread_wakeups: u64,
    /// Dispatches of a leaf, resumed inline with no wake-up. On a run
    /// that completes, `thread_wakeups + inline_resumes == dispatches`.
    pub inline_resumes: u64,
    /// Dispatches made by a `wait_until` deadline instead of a notify.
    pub timers_fired: u64,
}

struct SchedState {
    procs: Vec<ProcState>,
    running: Option<ProcId>,
    /// Ready processes by `(time, pid)`: the first is the next to run.
    ready: BTreeSet<(u64, ProcId)>,
    /// Blocked processes holding a `wait_until` timer, by
    /// `(deadline, pid)`.
    timers: BTreeSet<(u64, ProcId)>,
    /// Processes not yet Done.
    live: usize,
    /// The thread inside `Sim::run`, once it has been called.
    runner: Option<Thread>,
    /// The process dump of an aborted run (deadlock or process panic).
    failure: Option<String>,
    stats: SimStats,
    /// waiter queue per condvar id, longest-waiting first
    cv_waiters: Vec<VecDeque<ProcId>>,
    cv_names: Vec<String>,
    /// availability time per resource id
    res_available: Vec<f64>,
    res_names: Vec<String>,
    /// accumulated busy seconds per resource id
    res_busy: Vec<f64>,
    /// free-form counters (bytes over links, op counts, ...)
    counters: HashMap<String, f64>,
    /// execution trace (when enabled): device/process occupancy segments
    tracing: bool,
    trace: Vec<TraceSegment>,
}

impl SchedState {
    /// Panic unless `id` has a thread of its own to park: a leaf yields
    /// only by returning a [`Step`].
    fn must_be_thread(&self, id: ProcId, call: &str) {
        if let Body::Leaf(_) = self.procs[id].body {
            panic!(
                "leaf process `{}` called {call}: a leaf must not park its host thread, it returns a Step",
                self.procs[id].name
            );
        }
    }

    /// Let `dt` pass on the running process `id`'s clock. Returns true
    /// when it must yield, having made it Ready with nothing Running:
    /// someone Ready is further behind, or a blocked process holds a
    /// `wait_until` deadline this advance just crossed — otherwise a
    /// sole runner advancing in large steps starves every timer until
    /// it blocks, and an event scheduled at t1 would execute after work
    /// at t2 > t1.
    fn advance(&mut self, id: ProcId, dt: f64) -> bool {
        debug_assert_eq!(self.running, Some(id), "advance from non-running process");
        if self.tracing && dt > 0.0 {
            let seg = TraceSegment {
                track: self.procs[id].name.clone(),
                label: "work".to_string(),
                start: self.procs[id].time,
                dur: dt,
            };
            self.trace.push(seg);
        }
        self.procs[id].time += dt;
        let now = time_key(self.procs[id].time);
        let behind = |set: &BTreeSet<(u64, ProcId)>| set.first().is_some_and(|&(t, _)| t < now);
        if !(behind(&self.ready) || behind(&self.timers)) {
            return false;
        }
        self.procs[id].status = Status::Ready;
        self.ready.insert((now, id));
        self.running = None;
        true
    }

    /// Running -> Done.
    fn exit(&mut self, id: ProcId) {
        self.procs[id].status = Status::Done;
        self.running = None;
        self.live -= 1;
    }

    /// Running -> Blocked on condvar `cv`, with a timer if `deadline`.
    fn block(&mut self, id: ProcId, cv: usize, deadline: Option<f64>) {
        debug_assert_eq!(self.running, Some(id), "wait from non-running process");
        let p = &mut self.procs[id];
        p.status = Status::Blocked;
        p.waiting_on = Some((cv, deadline));
        if let Some(d) = deadline {
            self.timers.insert((time_key(d), id));
        }
        self.cv_waiters[cv].push_back(id);
        self.running = None;
    }

    /// Blocked -> Ready: a notify at virtual time `now` reached `id`,
    /// already taken off its condvar's queue.
    fn wake(&mut self, id: ProcId, now: f64) {
        let p = &mut self.procs[id];
        if let Some((_, Some(deadline))) = p.waiting_on.take() {
            self.timers.remove(&(time_key(deadline), id));
        }
        p.time = p.time.max(now);
        p.status = Status::Ready;
        self.ready.insert((time_key(p.time), id));
    }

    /// Pick the minimum-time Ready process and mark it Running; when a
    /// blocked process's `wait_until` deadline precedes every Ready
    /// process, fire that timer instead (its clock jumps to exactly the
    /// deadline — this is what makes `DeadlineExceeded` land at the
    /// precise virtual instant). `None` when nothing can run. Must be
    /// called with no process Running.
    fn schedule(&mut self) -> Option<ProcId> {
        debug_assert!(self.running.is_none());
        let ready = self.ready.first().copied();
        let timer = self.timers.first().copied();
        // A Ready process at the same instant runs first: a notify that
        // already happened beats a timeout that would fire concurrently.
        let next = match (ready, timer) {
            (_, Some((tt, i))) if ready.is_none_or(|(tr, _)| tt < tr) => {
                self.timers.pop_first();
                let p = &mut self.procs[i];
                let Some((cv, Some(deadline))) = p.waiting_on.take() else {
                    unreachable!("a timer belongs to a process in wait_until");
                };
                p.time = p.time.max(deadline);
                p.timed_out = true;
                self.cv_waiters[cv].retain(|w| *w != i);
                self.stats.timers_fired += 1;
                i
            }
            (Some((_, i)), _) => {
                self.ready.pop_first();
                i
            }
            (None, _) => return None,
        };
        self.procs[next].status = Status::Running;
        self.running = Some(next);
        self.stats.dispatches += 1;
        Some(next)
    }
}

/// One occupancy segment of the execution trace: `track` (a process or
/// hardware resource) was busy with `label` during `[start, start+dur)`
/// of virtual time — the raw material of a Fig. 3-style timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSegment {
    /// Timeline row (process name or resource name).
    pub track: String,
    /// What occupied it.
    pub label: String,
    /// Virtual start time, seconds.
    pub start: f64,
    /// Duration, seconds.
    pub dur: f64,
}

/// A discrete-event simulation instance.
pub struct Sim {
    state: Mutex<SchedState>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Panic payload that unwinds a parked process thread out of an aborted
/// run. Raised with `resume_unwind`, so the panic hook stays silent;
/// `Sim::run` reports the failure.
struct Aborted;

/// The message a process body panicked with, for the dump.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// The process executing on this thread.
struct Running {
    sim: Arc<Sim>,
    id: ProcId,
    /// Inside a leaf's `resume` only: that resume's own state.
    leaf: Option<LeafResume>,
}

struct LeafResume {
    /// The deadline, not a notify, ended the `WaitUntil` this dispatch
    /// resumed from.
    timed_out: bool,
    /// The open [`ledger`], if any.
    ledger: Option<Ledger>,
}

/// Charges a leaf recorded instead of yielding, and its clock as they
/// leave it.
struct Ledger {
    time: f64,
    charges: Vec<f64>,
}

thread_local! {
    static CURRENT: RefCell<Option<Running>> = const { RefCell::new(None) };
}

/// Handle to the sim process executing on the current thread.
#[derive(Clone)]
pub struct CurrentProc {
    sim: Arc<Sim>,
    id: ProcId,
}

/// The current thread's sim process, if it is one.
pub fn current() -> Option<CurrentProc> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|r| CurrentProc {
            sim: Arc::clone(&r.sim),
            id: r.id,
        })
    })
}

/// Apply `f` to the leaf whose `resume` runs on this thread, if one
/// does: its simulation, its id and that resume's own state.
fn with_leaf<T>(f: impl FnOnce(&Arc<Sim>, ProcId, &mut LeafResume) -> T) -> Option<T> {
    CURRENT.with(|c| match c.borrow_mut().as_mut() {
        Some(Running {
            sim,
            id,
            leaf: Some(leaf),
        }) => Some(f(sim, *id, leaf)),
        _ => None,
    })
}

/// Run `f` inside the current leaf's `resume`, recording the clock
/// charges it makes instead of yielding for them; returns `f`'s value
/// and the charges in order. While `f` runs, [`CurrentProc::advance`]
/// (and so [`crate::clock::sleep`]) appends `dt`, and
/// [`CurrentProc::now`] reads the clock plus the charges so far, summed
/// in the order a thread's `advance`s would sum them. Anything that
/// would publish the clock to another process (notify, spawn,
/// `reserve`) or park (waits, `acquire_for`) panics, naming the leaf:
/// the scheduler still has the leaf at the instant the ledger opened.
/// The leaf then returns one [`Step::Advance`] per charge, which
/// dispatches exactly as the thread's `advance`s would have.
///
/// Panics outside a leaf's `resume`, or inside another ledger.
pub fn ledger<R>(f: impl FnOnce() -> R) -> (R, Vec<f64>) {
    let opened = with_leaf(|sim, id, leaf| {
        assert!(leaf.ledger.is_none(), "des::ledger inside a ledger");
        leaf.ledger = Some(Ledger {
            time: sim.state.lock().procs[id].time,
            charges: Vec::new(),
        });
    });
    assert!(opened.is_some(), "des::ledger outside a leaf's resume");
    let value = f();
    let ledger = with_leaf(|_, _, leaf| leaf.ledger.take()).flatten();
    (value, ledger.expect("the ledger is still open").charges)
}

/// Whether a ledger is open on this thread, i.e. the calling code runs
/// inside [`ledger`]'s `f`.
pub fn in_ledger() -> bool {
    with_leaf(|_, _, leaf| leaf.ledger.is_some()).unwrap_or(false)
}

impl CurrentProc {
    /// Apply `f` to this process's open ledger, if it has one.
    fn with_ledger<T>(&self, f: impl FnOnce(&mut Ledger) -> T) -> Option<T> {
        with_leaf(|sim, id, leaf| match &mut leaf.ledger {
            Some(ledger) if id == self.id && Arc::ptr_eq(sim, &self.sim) => Some(f(ledger)),
            _ => None,
        })
        .flatten()
    }

    /// Local virtual time of this process, in seconds (inside a
    /// [`ledger`], plus the charges recorded so far).
    pub fn now(&self) -> f64 {
        match self.with_ledger(|l| l.time) {
            Some(time) => time,
            None => self.sim.state.lock().procs[self.id].time,
        }
    }

    /// Advance this process's clock by `dt` seconds of modeled work,
    /// yielding to any process whose clock is further behind; inside a
    /// [`ledger`], record the charge instead.
    pub fn advance(&self, dt: f64) {
        let recorded = self.with_ledger(|l| {
            assert!(dt >= 0.0, "cannot advance virtual time backwards ({dt})");
            l.time += dt;
            l.charges.push(dt);
        });
        if recorded.is_none() {
            self.sim.advance_proc(self.id, dt);
        }
    }

    /// In a leaf's `resume`: whether the deadline of the
    /// [`Step::WaitUntil`] this dispatch resumed it from, rather than a
    /// notify, ended that wait. Only the first `resume` after the wait
    /// sees `true`; every later one, and a thread process (whose
    /// [`SimCondvar::wait_until`] returns the flag), sees `false`.
    pub fn timed_out(&self) -> bool {
        with_leaf(|_, id, leaf| id == self.id && leaf.timed_out).unwrap_or(false)
    }

    /// The owning simulation.
    pub fn sim(&self) -> &Arc<Sim> {
        &self.sim
    }

    /// Process id.
    pub fn id(&self) -> ProcId {
        self.id
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new_inner()
    }
}

impl Sim {
    fn new_inner() -> Sim {
        Sim {
            state: Mutex::new(SchedState {
                procs: Vec::new(),
                running: None,
                ready: BTreeSet::new(),
                timers: BTreeSet::new(),
                live: 0,
                runner: None,
                failure: None,
                stats: SimStats::default(),
                cv_waiters: Vec::new(),
                cv_names: Vec::new(),
                res_available: Vec::new(),
                res_names: Vec::new(),
                res_busy: Vec::new(),
                counters: HashMap::new(),
                tracing: false,
                trace: Vec::new(),
            }),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Fresh simulation.
    pub fn new() -> Arc<Sim> {
        Arc::new(Sim::new_inner())
    }

    /// Register a process and spawn its backing thread. The process
    /// starts at virtual time 0 (or at the spawner's time when spawned
    /// from inside another process).
    pub fn spawn<F>(self: &Arc<Sim>, name: &str, f: F) -> ProcId
    where
        F: FnOnce() + Send + 'static,
    {
        self.refuse_in_ledger("spawn");
        // The lock is held across the thread spawn so that the process
        // and its thread handle become visible to the scheduler
        // together; the new thread parks before it touches the lock.
        let mut st = self.state.lock();
        let id = st.procs.len();
        let sim = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || sim.process_main(id, f))
            .expect("failed to spawn sim process thread");
        self.register(&mut st, name, Body::Thread(handle.thread().clone()));
        drop(st);
        self.threads.lock().push(handle);
        id
    }

    /// Register a leaf process: `p` is resumed inline by whichever
    /// thread holds the baton, and has no thread of its own. Pids, start
    /// clock and ordering are those of [`Sim::spawn`].
    pub fn spawn_leaf(self: &Arc<Sim>, name: &str, p: impl Process + 'static) -> ProcId {
        self.refuse_in_ledger("spawn_leaf");
        let mut st = self.state.lock();
        self.register(&mut st, name, Body::Leaf(Some(Box::new(p))))
    }

    /// Add a Ready process at the spawner's time (0 from outside).
    fn register(self: &Arc<Sim>, st: &mut SchedState, name: &str, body: Body) -> ProcId {
        let t0 = current()
            .filter(|c| Arc::ptr_eq(&c.sim, self))
            .map(|c| st.procs[c.id].time)
            .unwrap_or(0.0);
        let id = st.procs.len();
        st.procs.push(ProcState {
            name: name.to_string(),
            time: t0,
            status: Status::Ready,
            body,
            waiting_on: None,
            timed_out: false,
            panicked: None,
        });
        st.ready.insert((time_key(t0), id));
        st.live += 1;
        id
    }

    /// Panic if the calling thread runs a leaf of this simulation that
    /// has a ledger open: `call` would act at an instant the scheduler
    /// has not reached.
    fn refuse_in_ledger(&self, call: &str) {
        let in_ledger = |sim: &Arc<Sim>, id, leaf: &mut LeafResume| {
            (leaf.ledger.is_some() && std::ptr::eq(Arc::as_ptr(sim), self)).then_some(id)
        };
        if let Some(id) = with_leaf(in_ledger).flatten() {
            panic!(
                "leaf process `{}` called {call} inside a ledger: its clock is ahead of the scheduler's",
                self.state.lock().procs[id].name
            );
        }
    }

    /// Body of a process thread: wait for the first dispatch, run `f`,
    /// pass the baton on.
    fn process_main(self: Arc<Sim>, id: ProcId, f: impl FnOnce()) {
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Running {
                sim: Arc::clone(&self),
                id,
                leaf: None,
            })
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(self.await_dispatch(id));
            f()
        }));
        let mut st = self.state.lock();
        if st.failure.is_some() {
            // Unwound out of an aborted run; `Sim::run` has the report.
            return;
        }
        st.exit(id);
        match result {
            Ok(()) => self.hand_off(st),
            Err(payload) => {
                st.procs[id].panicked = Some(panic_message(payload));
                self.abort(st);
            }
        }
    }

    /// Pass the baton: pick the next process and run it. A leaf is
    /// resumed here, on this thread, and the picking goes on from the
    /// step it returns; a thread process is woken, and only that one.
    /// Called with no process Running, by whoever just gave the baton
    /// up. When nothing can run, either the simulation is over (wake
    /// `Sim::run`) or it is deadlocked.
    fn hand_off<'a>(self: &'a Arc<Sim>, mut st: MutexGuard<'a, SchedState>) {
        loop {
            let Some(next) = st.schedule() else {
                if st.live > 0 {
                    return self.abort(st);
                }
                let runner = st.runner.clone();
                drop(st);
                if let Some(runner) = runner {
                    runner.unpark();
                }
                return;
            };
            let leaf = match &mut st.procs[next].body {
                Body::Leaf(leaf) => leaf.take().expect("a dispatched leaf holds its body"),
                Body::Thread(thread) => {
                    let thread = thread.clone();
                    st.stats.thread_wakeups += 1;
                    // Unlock first: the woken thread takes the lock next.
                    drop(st);
                    thread.unpark();
                    return;
                }
            };
            st.stats.inline_resumes += 1;
            let timed_out = std::mem::take(&mut st.procs[next].timed_out);
            drop(st);
            match self.run_leaf(next, leaf, timed_out) {
                Some(guard) => st = guard,
                None => return,
            }
        }
    }

    /// Resume the just-dispatched leaf `id` until it yields, and apply
    /// the step: `Wait` and `WaitUntil` block it exactly as
    /// [`SimCondvar::wait`] and `wait_until` do, `Advance` follows
    /// `advance`'s rule (an advance that finds nobody behind resumes the
    /// leaf again, no dispatch), `Done` finishes it. `timed_out` is what
    /// the first resume reads from [`CurrentProc::timed_out`]. Returns
    /// the lock with nothing Running, or `None` when the leaf panicked
    /// and the run is aborted.
    fn run_leaf(
        self: &Arc<Sim>,
        id: ProcId,
        mut leaf: Box<dyn Process>,
        mut timed_out: bool,
    ) -> Option<MutexGuard<'_, SchedState>> {
        loop {
            let resumed = self.resume_leaf(id, &mut leaf, std::mem::take(&mut timed_out));
            let mut st = match resumed {
                Ok(Step::Advance(dt)) => {
                    let mut st = self.state.lock();
                    if !st.advance(id, dt) {
                        continue;
                    }
                    st
                }
                Ok(Step::Wait(cv)) => {
                    let mut st = self.state.lock();
                    st.block(id, cv.id, None);
                    st
                }
                Ok(Step::WaitUntil(cv, deadline)) => {
                    let mut st = self.state.lock();
                    st.block(id, cv.id, Some(deadline));
                    st
                }
                finished => {
                    // `Done`, or the body panicked.
                    drop(leaf);
                    let mut st = self.state.lock();
                    st.exit(id);
                    let Err(payload) = finished else {
                        return Some(st);
                    };
                    st.procs[id].panicked = Some(panic_message(payload));
                    self.abort(st);
                    return None;
                }
            };
            st.procs[id].body = Body::Leaf(Some(leaf));
            return Some(st);
        }
    }

    /// One `resume` of leaf `id`, as this thread's current process.
    fn resume_leaf(
        self: &Arc<Sim>,
        id: ProcId,
        leaf: &mut Box<dyn Process>,
        timed_out: bool,
    ) -> std::thread::Result<Step> {
        let me = Running {
            sim: Arc::clone(self),
            id,
            leaf: Some(LeafResume {
                timed_out,
                ledger: None,
            }),
        };
        let host = CURRENT.with(|c| c.replace(Some(me)));
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let step = leaf.resume();
            match &step {
                Step::Advance(dt) => {
                    assert!(*dt >= 0.0, "cannot advance virtual time backwards ({dt})")
                }
                Step::Wait(cv) | Step::WaitUntil(cv, _) => {
                    assert!(
                        Arc::ptr_eq(&cv.sim, self),
                        "condvar used across simulations"
                    )
                }
                Step::Done => {}
            }
            step
        }));
        CURRENT.with(|c| c.replace(host));
        step
    }

    /// Fail the run: record the process dump, abort every unfinished
    /// leaf, then wake every unfinished thread process (each unwinds
    /// out of its parked call) and `Sim::run` (which joins them and
    /// reports).
    fn abort(&self, mut st: MutexGuard<'_, SchedState>) {
        st.failure = Some(Self::dump(&st));
        let (mut parked, mut leaves) = (Vec::new(), Vec::new());
        for p in st.procs.iter_mut().filter(|p| p.status != Status::Done) {
            match &mut p.body {
                Body::Thread(thread) => parked.push(thread.clone()),
                Body::Leaf(leaf) => leaves.extend(leaf.take()),
            }
        }
        st.stats.thread_wakeups += parked.len() as u64;
        let runner = st.runner.clone();
        drop(st);
        for leaf in &mut leaves {
            // The run has failed already; a panicking hook must not
            // keep the threads below from being released.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| leaf.abort()));
        }
        for thread in parked.iter().chain(&runner) {
            thread.unpark();
        }
    }

    /// Park the calling process thread until the scheduler has made
    /// `id` Running. If the run was aborted instead, unwind the thread.
    fn await_dispatch(&self, id: ProcId) -> MutexGuard<'_, SchedState> {
        loop {
            // A wake-up sent before this call makes it return at once.
            std::thread::park();
            let st = self.state.lock();
            if st.failure.is_some() {
                drop(st);
                std::panic::resume_unwind(Box::new(Aborted));
            }
            if st.running == Some(id) {
                return st;
            }
        }
    }

    fn advance_proc(self: &Arc<Sim>, id: ProcId, dt: f64) {
        assert!(dt >= 0.0, "cannot advance virtual time backwards ({dt})");
        let mut st = self.state.lock();
        st.must_be_thread(id, "advance");
        if st.advance(id, dt) {
            self.hand_off(st);
            drop(self.await_dispatch(id));
        }
    }

    /// Run the simulation to completion; returns the final virtual time
    /// (max over process clocks). Panics on deadlock or process panic,
    /// after every process thread has unwound and been joined.
    pub fn run(self: &Arc<Sim>) -> f64 {
        let mut st = self.state.lock();
        assert!(st.runner.is_none(), "Sim::run called twice");
        st.runner = Some(std::thread::current());
        self.hand_off(st);
        loop {
            let st = self.state.lock();
            if st.live == 0 || st.failure.is_some() {
                break;
            }
            drop(st);
            std::thread::park();
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        let mut st = self.state.lock();
        if let Some(dump) = st.failure.take() {
            drop(st);
            panic!("simulation deadlock or process panic:\n{dump}");
        }
        st.procs.iter().map(|p| p.time).fold(0.0, f64::max)
    }

    fn dump(st: &SchedState) -> String {
        let mut s = String::new();
        for (i, p) in st.procs.iter().enumerate() {
            let waiting_on = match (&p.panicked, p.waiting_on) {
                (Some(msg), _) => format!(" waiting on PANICKED: {msg}"),
                (None, Some((cv, None))) => format!(" waiting on {}", st.cv_names[cv]),
                (None, Some((cv, Some(deadline)))) => {
                    format!(" waiting on {} (deadline t={deadline:.6})", st.cv_names[cv])
                }
                (None, None) => String::new(),
            };
            s.push_str(&format!(
                "  [{}] {:<24} t={:<12.6} {:?}{}\n",
                i, p.name, p.time, p.status, waiting_on
            ));
        }
        s
    }

    /// The scheduler's event counts so far.
    pub fn stats(&self) -> SimStats {
        self.state.lock().stats
    }

    /// Create a virtual condition variable.
    pub fn condvar(self: &Arc<Sim>, name: &str) -> SimCondvar {
        let mut st = self.state.lock();
        let id = st.cv_waiters.len();
        st.cv_waiters.push(VecDeque::new());
        st.cv_names.push(name.to_string());
        SimCondvar {
            sim: Arc::clone(self),
            id,
        }
    }

    /// Create a FIFO-serialized shared resource (a PCIe link, NIC,
    /// Lustre client, GPU stream ...).
    pub fn resource(self: &Arc<Sim>, name: &str) -> SimResource {
        let mut st = self.state.lock();
        let id = st.res_available.len();
        st.res_available.push(0.0);
        st.res_names.push(name.to_string());
        st.res_busy.push(0.0);
        SimResource {
            sim: Arc::clone(self),
            id,
        }
    }

    /// Add `v` to a named statistic counter.
    pub fn count(&self, key: &str, v: f64) {
        *self
            .state
            .lock()
            .counters
            .entry(key.to_string())
            .or_insert(0.0) += v;
    }

    /// Read a named statistic counter.
    pub fn counter(&self, key: &str) -> f64 {
        self.state.lock().counters.get(key).copied().unwrap_or(0.0)
    }

    /// Snapshot of every statistic counter, sorted by key — the
    /// deterministic bulk form of [`Sim::counter`], used to fold link
    /// traffic into per-run step stats.
    pub fn counters(&self) -> Vec<(String, f64)> {
        let st = self.state.lock();
        let mut out: Vec<(String, f64)> =
            st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
        drop(st);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total busy time accumulated on a resource (utilization probe).
    pub fn resource_busy(&self, res: &SimResource) -> f64 {
        self.state.lock().res_busy[res.id]
    }

    /// Record occupancy segments from now on (Fig. 3-style timelines).
    pub fn enable_tracing(&self) {
        self.state.lock().tracing = true;
    }

    /// Snapshot of the recorded trace, one row per process/resource
    /// (`tfhpc_obs::trace::chrome_trace_json` renders it for
    /// `chrome://tracing` / Perfetto).
    pub fn trace(&self) -> Vec<TraceSegment> {
        self.state.lock().trace.clone()
    }

    /// Per-resource busy seconds for the whole run, sorted descending —
    /// the "where did the time go" utilization report.
    pub fn resource_report(&self) -> Vec<(String, f64)> {
        let st = self.state.lock();
        let mut rows: Vec<(String, f64)> = st
            .res_names
            .iter()
            .cloned()
            .zip(st.res_busy.iter().copied())
            .filter(|(_, busy)| *busy > 0.0)
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        rows
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        write!(f, "Sim({} procs)", st.procs.len())
    }
}

/// A virtual condition variable usable only from sim processes.
#[derive(Clone)]
pub struct SimCondvar {
    sim: Arc<Sim>,
    id: usize,
}

impl SimCondvar {
    /// Block the calling process until another process notifies.
    ///
    /// As with real condvars, callers must re-check their predicate in
    /// a loop (a notify may wake several waiters).
    pub fn wait(&self) {
        self.block(None);
    }

    /// Like [`SimCondvar::wait`] but with an absolute virtual-time
    /// deadline: returns `true` when the deadline fired before any
    /// notify (the process's clock then sits at exactly `deadline`),
    /// `false` when a notify woke it first. Callers re-check their
    /// predicate either way.
    pub fn wait_until(&self, deadline: f64) -> bool {
        self.block(Some(deadline))
    }

    /// Queue the calling process on this condvar and give up the baton;
    /// returns whether its timer, not a notify, brought it back.
    fn block(&self, deadline: Option<f64>) -> bool {
        let me = current().expect("SimCondvar::wait outside a sim process");
        assert!(
            Arc::ptr_eq(&me.sim, &self.sim),
            "condvar used across simulations"
        );
        let mut st = self.sim.state.lock();
        st.must_be_thread(me.id, "SimCondvar::wait");
        st.block(me.id, self.id, deadline);
        self.sim.hand_off(st);
        let mut st = self.sim.await_dispatch(me.id);
        std::mem::take(&mut st.procs[me.id].timed_out)
    }

    /// Wake every waiter; their clocks jump to at least the notifier's.
    pub fn notify_all(&self) {
        let me = current().expect("SimCondvar::notify_all outside a sim process");
        self.sim.refuse_in_ledger("SimCondvar::notify_all");
        let mut st = self.sim.state.lock();
        let now = st.procs[me.id].time;
        while let Some(w) = st.cv_waiters[self.id].pop_front() {
            st.wake(w, now);
        }
    }

    /// Wake the longest-waiting process, if any.
    pub fn notify_one(&self) {
        let me = current().expect("SimCondvar::notify_one outside a sim process");
        self.sim.refuse_in_ledger("SimCondvar::notify_one");
        let mut st = self.sim.state.lock();
        let now = st.procs[me.id].time;
        if let Some(w) = st.cv_waiters[self.id].pop_front() {
            st.wake(w, now);
        }
    }
}

/// A shared hardware resource that serializes use in virtual-time
/// (FIFO) order — the contention primitive of the whole simulator.
#[derive(Clone)]
pub struct SimResource {
    sim: Arc<Sim>,
    id: usize,
}

impl SimResource {
    /// Occupy the resource for `duration` virtual seconds, queueing
    /// behind earlier users. Advances the calling process to the end of
    /// its occupancy and returns the start time of the occupancy.
    pub fn acquire_for(&self, duration: f64) -> f64 {
        assert!(duration >= 0.0);
        let me = current().expect("SimResource::acquire_for outside a sim process");
        assert!(
            Arc::ptr_eq(&me.sim, &self.sim),
            "resource used across simulations"
        );
        let start;
        {
            let mut st = self.sim.state.lock();
            st.must_be_thread(me.id, "SimResource::acquire_for");
            let now = st.procs[me.id].time;
            start = st.res_available[self.id].max(now);
            st.res_available[self.id] = start + duration;
            st.res_busy[self.id] += duration;
            if st.tracing && duration > 0.0 {
                let seg = TraceSegment {
                    track: st.res_names[self.id].clone(),
                    label: st.procs[me.id].name.clone(),
                    start,
                    dur: duration,
                };
                st.trace.push(seg);
            }
            let wait = start + duration - now;
            drop(st);
            me.advance(wait);
        }
        start
    }

    /// Reserve the resource for `duration` virtual seconds *without
    /// blocking the caller*: the occupancy is appended after existing
    /// reservations and the end time returned. Used for pipelined
    /// transfers where a message occupies several resources
    /// concurrently — the caller advances to the max end across stages.
    pub fn reserve(&self, duration: f64) -> f64 {
        assert!(duration >= 0.0);
        let me = current().expect("SimResource::reserve outside a sim process");
        assert!(
            Arc::ptr_eq(&me.sim, &self.sim),
            "resource used across simulations"
        );
        self.sim.refuse_in_ledger("SimResource::reserve");
        let mut st = self.sim.state.lock();
        let now = st.procs[me.id].time;
        let start = st.res_available[self.id].max(now);
        st.res_available[self.id] = start + duration;
        st.res_busy[self.id] += duration;
        if st.tracing && duration > 0.0 {
            let seg = TraceSegment {
                track: st.res_names[self.id].clone(),
                label: st.procs[me.id].name.clone(),
                start,
                dur: duration,
            };
            st.trace.push(seg);
        }
        start + duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_proc_advances() {
        let sim = Sim::new();
        sim.spawn("p", || {
            let me = current().unwrap();
            me.advance(1.5);
            me.advance(0.5);
            assert!((me.now() - 2.0).abs() < 1e-12);
        });
        let end = sim.run();
        assert!((end - 2.0).abs() < 1e-12);
    }

    #[test]
    fn processes_interleave_in_time_order() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("fast", 1.0f64), ("slow", 3.0)] {
            let order = Arc::clone(&order);
            sim.spawn(name, move || {
                let me = current().unwrap();
                for _ in 0..3 {
                    me.advance(step);
                    order.lock().push((name, me.now()));
                }
            });
        }
        sim.run();
        let order = order.lock();
        // Events must be recorded in nondecreasing virtual time.
        for w in order.windows(2) {
            assert!(w[0].1 <= w[1].1, "{order:?}");
        }
        // fast at t=1,2,3 and slow at t=3: fast events come first.
        assert_eq!(order[0], ("fast", 1.0));
        assert_eq!(order[1], ("fast", 2.0));
    }

    #[test]
    fn determinism_across_runs() {
        let run_once = || {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..4u64 {
                let log = Arc::clone(&log);
                sim.spawn(&format!("p{i}"), move || {
                    let me = current().unwrap();
                    for k in 0..5 {
                        me.advance(0.1 * (i + 1) as f64);
                        log.lock().push((i, k, (me.now() * 1e9) as u64));
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn condvar_wakes_at_notifier_time() {
        let sim = Sim::new();
        let cv = sim.condvar("data-ready");
        let flag = Arc::new(AtomicUsize::new(0));
        {
            let cv = cv.clone();
            let flag = Arc::clone(&flag);
            sim.spawn("consumer", move || {
                let me = current().unwrap();
                while flag.load(Ordering::SeqCst) == 0 {
                    cv.wait();
                }
                // Producer notified at t=5; our clock must have jumped.
                assert!(me.now() >= 5.0);
            });
        }
        {
            let cv = cv.clone();
            let flag = Arc::clone(&flag);
            sim.spawn("producer", move || {
                let me = current().unwrap();
                me.advance(5.0);
                flag.store(1, Ordering::SeqCst);
                cv.notify_all();
            });
        }
        sim.run();
    }

    #[test]
    fn resource_serializes_fifo() {
        let sim = Sim::new();
        let res = sim.resource("pcie");
        let spans = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let res = res.clone();
            let spans = Arc::clone(&spans);
            sim.spawn(&format!("w{i}"), move || {
                let me = current().unwrap();
                let start = res.acquire_for(2.0);
                spans.lock().push((start, me.now()));
            });
        }
        let end = sim.run();
        assert!((end - 6.0).abs() < 1e-9);
        let spans = spans.lock();
        // Non-overlapping: starts at 0, 2, 4.
        let mut starts: Vec<f64> = spans.iter().map(|s| s.0).collect();
        starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(starts, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn wait_until_fires_at_exact_deadline() {
        let sim = Sim::new();
        let cv = sim.condvar("never-notified");
        let end = Arc::new(Mutex::new((false, 0.0f64)));
        {
            let end = Arc::clone(&end);
            sim.spawn("waiter", move || {
                let timed_out = cv.wait_until(2.5);
                *end.lock() = (timed_out, current().unwrap().now());
            });
        }
        sim.run();
        let (timed_out, now) = *end.lock();
        assert!(timed_out);
        assert_eq!(now, 2.5); // exact, not approximate
    }

    #[test]
    fn wait_until_notify_beats_timer() {
        let sim = Sim::new();
        let cv = sim.condvar("data");
        let end = Arc::new(Mutex::new((true, 0.0f64)));
        {
            let cv = cv.clone();
            let end = Arc::clone(&end);
            sim.spawn("waiter", move || {
                let timed_out = cv.wait_until(10.0);
                *end.lock() = (timed_out, current().unwrap().now());
            });
        }
        {
            sim.spawn("notifier", move || {
                current().unwrap().advance(1.0);
                cv.notify_all();
            });
        }
        sim.run();
        let (timed_out, now) = *end.lock();
        assert!(!timed_out);
        assert_eq!(now, 1.0);
    }

    #[test]
    fn timer_prevents_false_deadlock() {
        // Every process blocked, but one holds a timer: the scheduler
        // must fire it rather than declare deadlock.
        let sim = Sim::new();
        let cv = sim.condvar("q");
        sim.spawn("only", move || {
            assert!(cv.wait_until(0.75));
        });
        let end = sim.run();
        assert_eq!(end, 0.75);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn all_blocked_is_deadlock() {
        let sim = Sim::new();
        let cv = sim.condvar("never");
        sim.spawn("stuck", move || {
            cv.wait();
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn process_panic_aborts_run() {
        let sim = Sim::new();
        sim.spawn("boom", || panic!("kernel exploded"));
        sim.run();
    }

    #[test]
    fn spawn_from_inside_inherits_time() {
        let sim = Sim::new();
        let child_start = Arc::new(Mutex::new(0.0f64));
        {
            let cs = Arc::clone(&child_start);
            let sim2 = Arc::clone(&sim);
            sim.spawn("parent", move || {
                let me = current().unwrap();
                me.advance(7.0);
                let cs = Arc::clone(&cs);
                sim2.spawn("child", move || {
                    *cs.lock() = current().unwrap().now();
                });
            });
        }
        sim.run();
        assert!((*child_start.lock() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate() {
        let sim = Sim::new();
        {
            let sim2 = Arc::clone(&sim);
            sim.spawn("c", move || {
                sim2.count("bytes", 100.0);
                sim2.count("bytes", 28.0);
            });
        }
        sim.run();
        assert_eq!(sim.counter("bytes"), 128.0);
        assert_eq!(sim.counter("missing"), 0.0);
    }

    #[test]
    fn resource_report_sorts_by_busy() {
        let sim = Sim::new();
        let a = sim.resource("pcie");
        let b = sim.resource("nic");
        let _idle = sim.resource("eth");
        {
            let (a, b) = (a.clone(), b.clone());
            sim.spawn("u", move || {
                a.acquire_for(1.0);
                b.acquire_for(3.0);
            });
        }
        sim.run();
        let report = sim.resource_report();
        assert_eq!(report.len(), 2); // idle resources omitted
        assert_eq!(report[0].0, "nic");
        assert!((report[0].1 - 3.0).abs() < 1e-12);
        assert_eq!(report[1].0, "pcie");
    }

    #[test]
    fn tracing_records_segments() {
        let sim = Sim::new();
        sim.enable_tracing();
        let res = sim.resource("gpu0.stream");
        {
            let res = res.clone();
            sim.spawn("worker", move || {
                let me = current().unwrap();
                me.advance(0.5);
                res.acquire_for(1.0);
            });
        }
        sim.run();
        let trace = sim.trace();
        assert!(trace
            .iter()
            .any(|s| s.track == "worker" && s.label == "work" && s.dur == 0.5));
        assert!(trace
            .iter()
            .any(|s| s.track == "gpu0.stream" && s.label == "worker" && s.dur == 1.0));
    }

    #[test]
    fn tracing_off_by_default() {
        let sim = Sim::new();
        sim.spawn("p", || {
            current().unwrap().advance(1.0);
        });
        sim.run();
        assert!(sim.trace().is_empty());
    }

    #[test]
    fn resource_busy_tracks_utilization() {
        let sim = Sim::new();
        let res = sim.resource("nic");
        {
            let res = res.clone();
            sim.spawn("u", move || {
                res.acquire_for(1.25);
                res.acquire_for(0.75);
            });
        }
        sim.run();
        assert!((sim.resource_busy(&res) - 2.0).abs() < 1e-12);
    }

    /// A leaf scripted as a closure over its resume count and whether
    /// the deadline ended the wait it resumes from.
    struct Script<F>(usize, F);

    fn script<F: FnMut(usize, bool) -> Step + Send>(f: F) -> Script<F> {
        Script(0, f)
    }

    impl<F: FnMut(usize, bool) -> Step + Send> Script<F> {
        fn step(&mut self, timed_out: bool) -> Step {
            self.0 += 1;
            (self.1)(self.0 - 1, timed_out)
        }
    }

    impl<F: FnMut(usize, bool) -> Step + Send> Process for Script<F> {
        fn resume(&mut self) -> Step {
            let timed_out = current().unwrap().timed_out();
            self.step(timed_out)
        }
    }

    /// Spawn `p` as a leaf, or as a thread process that takes the same
    /// steps through the blocking calls.
    fn spawn_as<F>(sim: &Arc<Sim>, leaf: bool, name: &str, mut p: Script<F>)
    where
        F: FnMut(usize, bool) -> Step + Send + 'static,
    {
        if leaf {
            sim.spawn_leaf(name, p);
            return;
        }
        sim.spawn(name, move || {
            let mut timed_out = false;
            loop {
                match p.step(std::mem::take(&mut timed_out)) {
                    Step::Done => return,
                    Step::Advance(dt) => current().unwrap().advance(dt),
                    Step::Wait(cv) => cv.wait(),
                    Step::WaitUntil(cv, deadline) => timed_out = cv.wait_until(deadline),
                }
            }
        });
    }

    /// Every process logs `(pid, clock bits)` at its start and after
    /// each yielding call returns, so the log is the order in which the
    /// scheduler handed out the baton.
    fn dispatch_trace() -> Vec<(ProcId, u64)> {
        dispatch_trace_with(false).0
    }

    /// [`dispatch_trace`], with all eleven processes run as leaves if
    /// `leaves`, and the run's stats.
    fn dispatch_trace_with(leaves: bool) -> (Vec<(ProcId, u64)>, SimStats) {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mark = {
            let log = Arc::clone(&log);
            move || {
                let me = current().unwrap();
                log.lock().push((me.id(), me.now().to_bits()));
            }
        };
        let queue = sim.condvar("queue");
        let timed = sim.condvar("timed");
        let never = sim.condvar("never");
        // pids 0-3: clocks collide at every multiple of 0.5.
        for i in 0..4usize {
            let mark = mark.clone();
            let tick = script(move |k, _| {
                mark();
                match k {
                    0..3 => Step::Advance(0.25 * (i % 2 + 1) as f64),
                    _ => Step::Done,
                }
            });
            spawn_as(&sim, leaves, &format!("tick{i}"), tick);
        }
        // pids 4-6: a notify_one queue, registered in the order 6, 5, 4.
        for j in 0..3usize {
            let (mark, queue) = (mark.clone(), queue.clone());
            let queued = script(move |k, _| {
                if k != 1 {
                    mark();
                }
                match k {
                    0 => Step::Advance(0.3 - 0.1 * j as f64),
                    1 => Step::Wait(queue.clone()),
                    2 => Step::Advance(0.25),
                    _ => Step::Done,
                }
            });
            spawn_as(&sim, leaves, &format!("queued{j}"), queued);
        }
        // pid 7: a timer at t = 1.0, the instant pid 8 notifies; then one
        // that fires.
        {
            let (mark, timed) = (mark.clone(), timed.clone());
            let script = script(move |k, timed_out| {
                mark();
                match k {
                    0 => Step::WaitUntil(timed.clone(), 1.0),
                    1 => {
                        assert!(!timed_out, "a notify at the deadline wins");
                        Step::WaitUntil(timed.clone(), 1.5)
                    }
                    _ => {
                        assert!(timed_out, "nobody notifies again");
                        Step::Done
                    }
                }
            });
            spawn_as(&sim, leaves, "timed", script);
        }
        // pid 8: the notifier; spawns pid 10 from inside.
        {
            let (mark, sim2) = (mark.clone(), Arc::clone(&sim));
            let (queue, timed, never) = (queue.clone(), timed.clone(), never.clone());
            let script = script(move |k, timed_out| {
                mark();
                match k {
                    0 => Step::Advance(1.0),
                    1 => {
                        timed.notify_all();
                        queue.notify_one();
                        Step::Advance(0.5)
                    }
                    2 => {
                        queue.notify_one();
                        queue.notify_one();
                        queue.notify_one(); // empty queue: no-op
                        let mark2 = mark.clone();
                        let late = script(move |k, _| {
                            mark2();
                            match k {
                                0 => Step::Advance(0.25),
                                _ => Step::Done,
                            }
                        });
                        spawn_as(&sim2, leaves, "late", late);
                        Step::WaitUntil(never.clone(), 1.75)
                    }
                    _ => {
                        assert!(timed_out);
                        Step::Done
                    }
                }
            });
            spawn_as(&sim, leaves, "notifier", script);
        }
        // pid 9: a timer that expires at an instant where others are Ready.
        {
            let (mark, never) = (mark.clone(), never.clone());
            let script = script(move |k, timed_out| {
                mark();
                match k {
                    0 => Step::WaitUntil(never.clone(), 0.5),
                    1 => {
                        assert!(timed_out);
                        Step::Advance(1.0)
                    }
                    _ => Step::Done,
                }
            });
            spawn_as(&sim, leaves, "sleeper", script);
        }
        assert_eq!(sim.run(), 1.75);
        let out = log.lock().clone();
        (out, sim.stats())
    }

    /// The scheduling rule, pinned: this sequence was captured on the
    /// global-condvar scheduler that preceded baton passing. It covers
    /// colliding clocks (ties go to the lowest pid), a notify and a
    /// timer at the same instant (t = 1.0: the notify wins), timers
    /// expiring among Ready processes (t = 0.5 and 1.5: they run last),
    /// a `notify_one` queue (pid 6 waited longest) and a process
    /// spawned from inside (pid 10).
    #[test]
    fn golden_dispatch_trace_is_unchanged() {
        const T0_25: u64 = 0x3fd0000000000000;
        const T0_5: u64 = 0x3fe0000000000000;
        const T0_75: u64 = 0x3fe8000000000000;
        const T1: u64 = 0x3ff0000000000000;
        const T1_25: u64 = 0x3ff4000000000000;
        const T1_5: u64 = 0x3ff8000000000000;
        const T1_75: u64 = 0x3ffc000000000000;
        #[rustfmt::skip]
        let golden: [(ProcId, u64); 37] = [
            (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0),
            (0, T0_25), (2, T0_25),
            (0, T0_5), (1, T0_5), (2, T0_5), (3, T0_5), (9, T0_5),
            (0, T0_75), (2, T0_75),
            (1, T1), (3, T1), (8, T1), (6, T1), (7, T1),
            (6, T1_25),
            (1, T1_5), (3, T1_5), (8, T1_5), (4, T1_5), (5, T1_5), (9, T1_5), (10, T1_5), (7, T1_5),
            (4, T1_75), (5, T1_75), (10, T1_75), (8, T1_75),
        ];
        assert_eq!(dispatch_trace(), golden);
    }

    #[test]
    fn leaves_reproduce_the_golden_dispatch_trace() {
        // All eleven processes as leaves, the three deadline waiters on
        // `WaitUntil`, resumed on whichever thread holds the baton: the
        // same baton order and the same counts, with no thread at all.
        let (threads, all_threads) = dispatch_trace_with(false);
        let (trace, stats) = dispatch_trace_with(true);
        assert_eq!(trace, threads);
        assert_eq!(trace.len(), 37);
        assert_eq!(stats.dispatches, all_threads.dispatches);
        assert_eq!(stats.timers_fired, all_threads.timers_fired);
        assert_eq!(stats.thread_wakeups, 0);
        assert_eq!(stats.inline_resumes, stats.dispatches);
    }

    #[test]
    fn wait_until_tells_a_leaf_timed_out_from_notified() {
        // "late" is notified at t = 1 before its deadline at 2; "alone"
        // waits out its deadline at 2.5. The flag holds for the first
        // resume after the wait only.
        let sim = Sim::new();
        let (cv, never) = (sim.condvar("cv"), sim.condvar("never"));
        let seen = Arc::new(Mutex::new(Vec::new()));
        for (name, wait_on, deadline) in [("late", &cv, 2.0), ("alone", &never, 2.5)] {
            let (wait_on, seen) = (wait_on.clone(), Arc::clone(&seen));
            sim.spawn_leaf(
                name,
                script(move |k, timed_out| {
                    let me = current().unwrap();
                    match k {
                        0 => Step::WaitUntil(wait_on.clone(), deadline),
                        1 => {
                            seen.lock().push((name, timed_out, me.now()));
                            Step::Advance(0.0)
                        }
                        _ => {
                            assert!(!timed_out, "the flag does not outlive its resume");
                            Step::Done
                        }
                    }
                }),
            );
        }
        sim.spawn_leaf(
            "notifier",
            script(move |k, _| match k {
                0 => Step::Advance(1.0),
                _ => {
                    cv.notify_all();
                    Step::Done
                }
            }),
        );
        assert_eq!(sim.run(), 2.5);
        assert_eq!(*seen.lock(), [("late", false, 1.0), ("alone", true, 2.5)]);
        assert_eq!(sim.stats().timers_fired, 1);
    }

    #[test]
    fn a_ledger_reads_the_clock_a_thread_reads_after_the_same_advances() {
        // Charges whose running sums round: the ledger must add them in
        // the thread's order, one at a time, not re-derive the total.
        const CHARGES: [f64; 6] = [0.1, 0.2, 1e-9, 0.3, 7.0 / 3.0, 1e-17];
        let thread_clock = Arc::new(Mutex::new(Vec::new()));
        let sim = Sim::new();
        {
            let clock = Arc::clone(&thread_clock);
            sim.spawn("thread", move || {
                let me = current().unwrap();
                me.advance(0.05);
                for dt in CHARGES {
                    me.advance(dt);
                    clock.lock().push(me.now().to_bits());
                }
            });
        }
        sim.run();
        let leaf_clock = Arc::new(Mutex::new((Vec::new(), 0u64)));
        let sim = Sim::new();
        {
            let clock = Arc::clone(&leaf_clock);
            let mut replay = Vec::new().into_iter();
            sim.spawn_leaf(
                "leaf",
                script(move |k, _| {
                    if let Some(dt) = replay.next() {
                        return Step::Advance(dt);
                    }
                    if k == 0 {
                        return Step::Advance(0.05);
                    }
                    if clock.lock().0.is_empty() {
                        let (seen, charges) = ledger(|| {
                            let me = current().unwrap();
                            CHARGES.map(|dt| {
                                crate::clock::sleep(dt);
                                me.now().to_bits()
                            })
                        });
                        assert_eq!(charges, CHARGES);
                        clock.lock().0 = seen.to_vec();
                        replay = charges.into_iter();
                        return Step::Advance(0.0);
                    }
                    clock.lock().1 = current().unwrap().now().to_bits();
                    Step::Done
                }),
            );
        }
        sim.run();
        let (seen, replayed) = leaf_clock.lock().clone();
        let thread_clock = thread_clock.lock().clone();
        assert_eq!(seen, thread_clock);
        assert_eq!(
            replayed,
            *thread_clock.last().unwrap(),
            "the replay lands there too"
        );
    }

    #[test]
    fn a_ledger_refuses_what_would_act_at_the_leafs_future_clock() {
        type Call = fn(&Arc<Sim>, &SimCondvar, &SimResource);
        let calls: [(&str, &str, Call); 6] = [
            ("wait", "SimCondvar::wait", |_, cv, _| cv.wait()),
            ("wait-until", "SimCondvar::wait", |_, cv, _| {
                cv.wait_until(9.0);
            }),
            ("acquire", "SimResource::acquire_for", |_, _, res| {
                res.acquire_for(1.0);
            }),
            (
                "reserve",
                "SimResource::reserve inside a ledger",
                |_, _, res| {
                    res.reserve(1.0);
                },
            ),
            (
                "notify",
                "SimCondvar::notify_all inside a ledger",
                |_, cv, _| cv.notify_all(),
            ),
            ("spawn", "spawn_leaf inside a ledger", |sim, _, _| {
                sim.spawn_leaf("child", script(|_, _| Step::Done));
            }),
        ];
        for (name, call, body) in calls {
            let sim = Sim::new();
            let (cv, res) = (sim.condvar("never"), sim.resource("pcie"));
            sim.spawn("host", || current().unwrap().advance(1.0));
            let sim2 = Arc::clone(&sim);
            sim.spawn_leaf(
                &format!("bad-{name}"),
                script(move |_, _| {
                    ledger(|| {
                        current().unwrap().advance(0.5);
                        body(&sim2, &cv, &res)
                    });
                    Step::Done
                }),
            );
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
                .expect_err("the run fails");
            let msg = err.downcast_ref::<String>().unwrap();
            let expected = format!("PANICKED: leaf process `bad-{name}` called {call}");
            assert!(msg.contains(&expected), "{msg}");
            assert!(sim.threads.lock().is_empty());
        }
    }

    #[test]
    fn one_thread_wakeup_per_dispatch() {
        // 64 processes take turns 50 times each: every turn is one
        // dispatch, and each dispatch wakes one thread, not the herd.
        const PROCS: u64 = 64;
        const TURNS: u64 = 50;
        let sim = Sim::new();
        for i in 0..PROCS {
            sim.spawn(&format!("p{i}"), || {
                for _ in 0..TURNS {
                    current().unwrap().advance(1.0);
                }
            });
        }
        assert_eq!(sim.run(), TURNS as f64);
        let stats = sim.stats();
        // 64 first dispatches, 63 on exits, and one for each advance
        // that found somebody strictly behind (all but 113 of 3 200:
        // whoever runs last at an instant finds the others level).
        assert_eq!(stats.dispatches, 3214);
        assert_eq!(stats.thread_wakeups, stats.dispatches);
        assert_eq!(stats.timers_fired, 0);
    }

    /// Counts its drops: one per process closure that was released.
    struct Token(Arc<AtomicUsize>);
    impl Drop for Token {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// 64 processes parked on a condvar nobody notifies, plus `last`;
    /// the run must fail, and leave no process thread behind.
    fn failed_run_joins_everyone(last: impl FnOnce() + Send + 'static) -> String {
        let sim = Sim::new();
        let cv = sim.condvar("never");
        let released = Arc::new(AtomicUsize::new(0));
        for i in 0..64 {
            let cv = cv.clone();
            let token = Token(Arc::clone(&released));
            sim.spawn(&format!("parked{i}"), move || {
                let _token = token;
                cv.wait();
                unreachable!("nobody notifies");
            });
        }
        sim.spawn("last", last);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the run fails");
        // Joined, not merely told to stop: every closure has been
        // dropped by the time `run` returns.
        assert_eq!(released.load(Ordering::SeqCst), 64);
        assert!(sim.threads.lock().is_empty());
        err.downcast_ref::<String>().expect("a message").clone()
    }

    #[test]
    fn deadlock_with_many_parked_processes_joins_every_thread() {
        let msg = failed_run_joins_everyone(|| current().unwrap().advance(1.0));
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("parked63"), "{msg}");
        assert!(msg.contains("Blocked waiting on never"), "{msg}");
    }

    #[test]
    fn process_panic_with_many_parked_processes_joins_every_thread() {
        let msg = failed_run_joins_everyone(|| {
            current().unwrap().advance(1.0);
            panic!("kernel exploded");
        });
        assert!(msg.contains("PANICKED: kernel exploded"), "{msg}");
        assert!(msg.contains("Blocked waiting on never"), "{msg}");
    }

    /// A leaf that parks on `cv` for good and counts its aborts.
    struct Parked {
        cv: SimCondvar,
        aborts: Arc<AtomicUsize>,
    }

    impl Process for Parked {
        fn resume(&mut self) -> Step {
            Step::Wait(self.cv.clone())
        }

        fn abort(&mut self) {
            self.aborts.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// `threads` thread processes and eight leaves parked on a condvar
    /// nobody notifies, plus the leaf `last`; the run must fail, abort
    /// each parked leaf once and leave no process thread behind.
    fn failed_run_with_leaves(threads: usize, last: impl Process + 'static) -> String {
        let sim = Sim::new();
        let cv = sim.condvar("never");
        let (released, aborts) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        for i in 0..threads {
            let (cv, token) = (cv.clone(), Token(Arc::clone(&released)));
            sim.spawn(&format!("parked{i}"), move || {
                let _token = token;
                cv.wait();
                unreachable!("nobody notifies");
            });
        }
        for i in 0..8 {
            let aborts = Arc::clone(&aborts);
            sim.spawn_leaf(
                &format!("leaf{i}"),
                Parked {
                    cv: cv.clone(),
                    aborts,
                },
            );
        }
        sim.spawn_leaf("last", last);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the run fails");
        assert_eq!(released.load(Ordering::SeqCst), threads);
        assert_eq!(aborts.load(Ordering::SeqCst), 8);
        assert!(sim.threads.lock().is_empty());
        err.downcast_ref::<String>().expect("a message").clone()
    }

    #[test]
    fn leaf_panic_fails_the_run_and_aborts_every_unfinished_leaf() {
        let msg = failed_run_with_leaves(
            4,
            script(|k, _| match k {
                0 => Step::Advance(1.0),
                _ => panic!("leaf exploded"),
            }),
        );
        assert!(msg.contains("PANICKED: leaf exploded"), "{msg}");
        assert!(msg.contains("parked3"), "{msg}");
        assert!(msg.contains("Blocked waiting on never"), "{msg}");
    }

    #[test]
    fn deadlock_of_leaves_alone_dumps_each_leaf() {
        let msg = failed_run_with_leaves(
            0,
            script(|k, _| match k {
                0 => Step::Advance(1.0),
                _ => Step::Done,
            }),
        );
        assert!(msg.contains("deadlock"), "{msg}");
        for i in 0..8 {
            let line = msg
                .lines()
                .find(|l| l.contains(&format!("leaf{i} ")))
                .unwrap();
            assert!(line.contains("Blocked waiting on never"), "{msg}");
        }
    }

    #[test]
    fn a_leaf_may_not_park_its_host_thread() {
        type Call = fn(&SimCondvar);
        let calls: [(&str, &str, Call); 4] = [
            ("advance", "advance", |_| current().unwrap().advance(1.0)),
            ("condvar", "SimCondvar::wait", |cv| cv.wait()),
            ("sleep", "advance", |_| crate::clock::sleep(1.0)),
            ("cv", "SimCondvar::wait", |cv| {
                let (m, cv) = (Mutex::new(()), crate::clock::Cv::Sim(cv.clone()));
                drop(cv.wait(&m, m.lock()));
            }),
        ];
        for (name, call, body) in calls {
            let sim = Sim::new();
            let cv = sim.condvar("never");
            // The thread process yields to the leaf, which runs on its
            // thread: a park there would hang the test.
            sim.spawn("host", || current().unwrap().advance(1.0));
            sim.spawn_leaf(
                &format!("bad-{name}"),
                script(move |_, _| {
                    body(&cv);
                    Step::Done
                }),
            );
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
                .expect_err("the run fails");
            let msg = err.downcast_ref::<String>().unwrap();
            let expected = format!("PANICKED: leaf process `bad-{name}` called {call}");
            assert!(msg.contains(&expected), "{msg}");
            assert!(sim.threads.lock().is_empty());
        }
    }

    #[test]
    fn leaf_spawned_from_a_thread_starts_at_its_spawners_clock() {
        let sim = Sim::new();
        let started = Arc::new(Mutex::new(None));
        {
            let (sim2, started) = (Arc::clone(&sim), Arc::clone(&started));
            sim.spawn("parent", move || {
                current().unwrap().advance(7.0);
                sim2.spawn_leaf(
                    "child",
                    script(move |_, _| {
                        *started.lock() = Some(current().unwrap().now());
                        Step::Done
                    }),
                );
            });
        }
        assert_eq!(sim.run(), 7.0);
        assert_eq!(*started.lock(), Some(7.0));
        let stats = sim.stats();
        assert_eq!((stats.thread_wakeups, stats.inline_resumes), (1, 1));
    }

    #[test]
    fn abort_releases_processes_that_never_ran() {
        // pid 0 panics before anyone else gets the baton: the others
        // unwind out of their wait for a first dispatch, bodies unrun.
        let sim = Sim::new();
        sim.spawn("boom", || panic!("early"));
        let released = Arc::new(AtomicUsize::new(0));
        for i in 0..8 {
            let token = Token(Arc::clone(&released));
            sim.spawn(&format!("unrun{i}"), move || {
                let _token = token;
                unreachable!("the run aborted first");
            });
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the run fails");
        assert_eq!(released.load(Ordering::SeqCst), 8);
        assert_eq!(sim.stats().dispatches, 1);
    }

    #[test]
    fn timer_fire_leaves_other_condvars_alone() {
        // A timer expiring on condvar `a` takes its process off `a`'s
        // queue only: the waiter on `b` is still there for the notify.
        let sim = Sim::new();
        let (a, b) = (sim.condvar("a"), sim.condvar("b"));
        let woke_at = Arc::new(Mutex::new(None));
        {
            let (b, woke_at) = (b.clone(), Arc::clone(&woke_at));
            sim.spawn("waiter", move || {
                b.wait();
                *woke_at.lock() = Some(current().unwrap().now());
            });
        }
        sim.spawn("timed", move || {
            assert!(a.wait_until(1.0));
            b.notify_one();
        });
        assert_eq!(sim.run(), 1.0);
        assert_eq!(*woke_at.lock(), Some(1.0));
        assert_eq!(sim.stats().timers_fired, 1);
    }
}
