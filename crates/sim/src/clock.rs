//! One condition variable, one clock read, one sleep and one spawn for
//! both clocks (DESIGN.md §5), so a blocking primitive is written once.
//! A thread is on one clock for life: a simulated process on its
//! simulation's virtual clock, any other thread on the wall clock.
//! [`now`], [`sleep`] and [`spawn`] follow the calling thread; a [`Cv`]
//! is bound for life to the clock of the thread that makes it.

use crate::des::{self, Sim, SimCondvar, Step};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Seconds on the calling thread's clock: virtual seconds inside a
/// simulated process, wall seconds since the first wall-clock read of
/// this process otherwise. Reading it never advances the DES.
pub fn now() -> f64 {
    match des::current() {
        Some(me) => me.now(),
        None => {
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
        }
    }
}

/// Let `secs` pass on the calling thread's clock: a simulated process
/// advances its virtual clock (yielding to processes behind it), any
/// other thread sleeps. Zero or negative `secs` is not a yield point.
pub fn sleep(secs: f64) {
    if secs <= 0.0 {
        return;
    }
    match des::current() {
        Some(me) => me.advance(secs),
        None => std::thread::sleep(Duration::from_secs_f64(secs)),
    }
}

/// Run `f` on the caller's clock: as a new process of the caller's
/// simulation (starting at the caller's virtual time), or on a new OS
/// thread named `name` outside one.
pub fn spawn(name: &str, f: impl FnOnce() + Send + 'static) {
    spawn_on(des::current().as_ref().map(|me| me.sim()), name, f);
}

/// [`spawn`] onto a clock chosen by code outside the simulation: a
/// process of `sim`, or a named OS thread when `None`.
pub fn spawn_on(sim: Option<&Arc<Sim>>, name: &str, f: impl FnOnce() + Send + 'static) {
    match sim {
        Some(sim) => {
            sim.spawn(name, f);
        }
        None => {
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(f)
                .expect("failed to spawn thread");
        }
    }
}

/// A condition variable over a `parking_lot::Mutex`, in wall-clock or
/// virtual time. Waits take and return the guard; as with any condvar
/// the caller re-checks its predicate in a loop. A `Sim` condition is
/// for simulated processes only: waiting on or signalling it from any
/// other thread panics in [`SimCondvar`] rather than drop a wake-up.
pub enum Cv {
    /// OS threads, wall clock.
    Real(Condvar),
    /// Simulated processes of one [`Sim`], virtual clock.
    Sim(SimCondvar),
}

impl Cv {
    /// A condition on the calling thread's clock. `name` labels it in
    /// DES process dumps and is rendered only inside a simulation.
    pub fn here(name: impl FnOnce() -> String) -> Cv {
        match des::current() {
            Some(me) => Cv::on(me.sim(), &name()),
            None => Cv::Real(Condvar::new()),
        }
    }

    /// A condition on `sim`'s virtual clock, made from outside it.
    pub fn on(sim: &Arc<Sim>, name: &str) -> Cv {
        Cv::Sim(sim.condvar(name))
    }

    /// Whether the calling thread may wait here: any thread on a
    /// wall-clock condition, only a simulated process on a virtual one.
    pub fn can_wait_here(&self) -> bool {
        match self {
            Cv::Real(_) => true,
            Cv::Sim(_) => des::current().is_some(),
        }
    }

    /// Release `guard`, park until notified, re-lock `m`.
    #[inline(always)] // outlined, it costs the queue-pair round 1.2 % (8 of 8 pairs)
    pub fn wait<'a, T>(&self, m: &'a Mutex<T>, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match self {
            Cv::Real(cv) => {
                cv.wait(&mut guard);
                guard
            }
            Cv::Sim(cv) => {
                // Only the running process executes, so nothing runs
                // between this unlock and the wait: no lost wake-up.
                drop(guard);
                cv.wait();
                m.lock()
            }
        }
    }

    /// [`Cv::wait`] that also returns once the caller's clock reaches
    /// `deadline`; `now` is the caller's reading of that clock, in
    /// `deadline`'s epoch. Wall clock: parks at most `deadline - now`.
    /// Virtual clock: parks until the *absolute* `deadline`; a waiter
    /// nobody notified resumes with its clock at exactly that. The
    /// flag is true when the deadline, not a notify, ended the wait.
    pub fn wait_until<'a, T>(
        &self,
        m: &'a Mutex<T>,
        mut guard: MutexGuard<'a, T>,
        deadline: f64,
        now: f64,
    ) -> (MutexGuard<'a, T>, bool) {
        match self {
            Cv::Real(cv) => {
                let left = Duration::from_secs_f64((deadline - now).max(0.0));
                let timed_out = cv.wait_for(&mut guard, left).timed_out();
                (guard, timed_out)
            }
            Cv::Sim(cv) => {
                drop(guard);
                let timed_out = cv.wait_until(deadline);
                (m.lock(), timed_out)
            }
        }
    }

    /// The step that parks a DES leaf here, until the absolute
    /// `deadline` if one is given: a leaf's [`Cv::wait`] or
    /// [`Cv::wait_until`], after it has dropped its guard. Virtual clock
    /// only.
    pub fn leaf_wait(&self, deadline: Option<f64>) -> Step {
        match (self, deadline) {
            (Cv::Sim(cv), None) => Step::Wait(cv.clone()),
            (Cv::Sim(cv), Some(deadline)) => Step::WaitUntil(cv.clone(), deadline),
            (Cv::Real(_), _) => panic!("a DES leaf cannot park on a wall-clock condition"),
        }
    }

    /// Wake for one new item or freed slot; `parked` is the waiter count
    /// the caller read under the mutex it has since released. Wall
    /// clock: `notify_one`, skipped when nobody is parked. Virtual clock:
    /// `notify_all`, the dispatch order the byte artifacts pin.
    #[inline]
    pub fn wake(&self, parked: usize) {
        match self {
            Cv::Real(cv) if parked > 0 => cv.notify_one(),
            Cv::Real(_) => {}
            Cv::Sim(cv) => cv.notify_all(),
        }
    }

    /// Wake one waiter, if any: the longest-waiting on the virtual
    /// clock, any one on the wall clock.
    pub fn notify_one(&self) {
        match self {
            Cv::Real(cv) => cv.notify_one(),
            Cv::Sim(cv) => cv.notify_one(),
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        match self {
            Cv::Real(cv) => cv.notify_all(),
            Cv::Sim(cv) => cv.notify_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Party `me` of a two-party ping-pong over one counter: wait for
    /// my parity, bump it, wake the other — one body for both clocks.
    fn ping_pong(me: u32, (m, cv): &(Mutex<u32>, Cv)) {
        loop {
            let mut n = m.lock();
            while *n < 1_000 && *n % 2 != me {
                n = cv.wait(m, n);
            }
            if *n >= 1_000 {
                return;
            }
            *n += 1;
            drop(n);
            cv.wake(1);
        }
    }

    #[test]
    fn one_ping_pong_body_runs_on_either_clock() {
        let real = (
            Mutex::new(0),
            Cv::here(|| unreachable!("named only in a sim")),
        );
        std::thread::scope(|s| {
            s.spawn(|| ping_pong(0, &real));
            s.spawn(|| ping_pong(1, &real));
        });
        let sim = Sim::new();
        let virt = Arc::new((Mutex::new(0), Cv::on(&sim, "ping-pong")));
        for me in 0..2 {
            let virt = Arc::clone(&virt);
            sim.spawn(&format!("party{me}"), move || ping_pong(me, &virt));
        }
        sim.run();
        assert_eq!((*real.0.lock(), *virt.0.lock()), (1_000, 1_000));
    }

    #[test]
    fn here_binds_to_the_makers_clock() {
        assert!(matches!(Cv::here(String::new), Cv::Real(_)));
        let sim = Sim::new();
        sim.spawn("maker", || {
            assert!(matches!(Cv::here(|| "made-in-sim".into()), Cv::Sim(_)));
        });
        sim.run();
    }

    #[test]
    fn wait_until_returns_at_the_deadline_not_before() {
        // Virtual: nobody notifies, so the waiter resumes with its clock
        // at exactly the (unrepresentable, hence never re-derived) sum.
        let sim = Sim::new();
        let cv = Cv::on(&sim, "nobody-notifies");
        sim.spawn("waiter", move || {
            sleep(0.1);
            let (m, t) = (Mutex::new(()), now());
            assert!(cv.wait_until(&m, m.lock(), t + 0.2, t).1);
            assert_eq!(now().to_bits(), (t + 0.2).to_bits());
        });
        sim.run();
        // Wall: a predicate loop — a spurious or early return just goes
        // round — does not report the deadline before the clock is there.
        let (m, cv, began) = (Mutex::new(()), Cv::here(String::new), Instant::now());
        let deadline = now() + 0.02;
        let mut guard = m.lock();
        loop {
            let t = now();
            if t >= deadline {
                break;
            }
            guard = cv.wait_until(&m, guard, deadline, t).0;
        }
        assert!(began.elapsed() >= Duration::from_secs_f64(0.02));
    }

    #[test]
    fn one_spawned_body_runs_on_either_clock() {
        // The body sleeps on whatever clock it was spawned onto and
        // reports (in a simulation?, seconds it saw pass).
        let (tx, rx) = std::sync::mpsc::channel();
        let body = |tx: std::sync::mpsc::Sender<(bool, f64)>, secs: f64| {
            move || {
                let t = now();
                sleep(secs);
                tx.send((des::current().is_some(), now() - t)).unwrap();
            }
        };
        spawn("wall-body", body(tx.clone(), 0.01));
        let (in_sim, slept) = rx.recv().unwrap();
        assert!(!in_sim && slept >= 0.01);
        // Inside a simulation the body starts at its spawner's time.
        let sim = Sim::new();
        spawn_on(Some(&sim), "spawner", move || {
            sleep(1.0);
            spawn("virtual-body", body(tx, 0.25));
        });
        sim.run();
        assert_eq!(rx.recv().unwrap(), (true, 0.25));
    }
}
