//! Parked helper threads: where every threaded map's helpers come from.
//!
//! [`run`] hands `helpers` copies of one job to a process-wide set of
//! helper threads, runs the caller's own share, and returns once every
//! copy a helper took has finished. The set starts empty and grows on
//! demand to the largest number of copies ever outstanding at once, so a
//! map asked for `n` workers still gets `n`. A helper parks on a condition
//! variable when the queue is empty and never exits: a wake and the latch
//! round trip take ≈ 2 µs, where spawning and joining a scoped thread per
//! map took 7.6–9.3 µs at the median (EXPERIMENTS.md "Parked helpers").
//!
//! Three rules make one set safe to share between every map, nested or
//! concurrent:
//!
//! * **Retraction.** A job is written so that whoever runs it drains
//!   shared work — a cursor, a queue — until none is left. After its own
//!   share the caller takes back every copy no helper has started: its
//!   drain already did that work. A caller therefore waits only for
//!   helpers that are running its job, never for one that has not begun,
//!   so a map inside a map, or many maps at once, cannot deadlock on the
//!   set being busy.
//! * **Panics cross back.** The caller's share and every helper's copy run
//!   under `catch_unwind`. The first payload either records is re-raised
//!   on the caller once all started copies have finished; a helper that
//!   panicked goes back to parking.
//! * **Join before return.** A helper's job borrows from the caller's
//!   stack frame, and the queue is `'static`, so the borrow's lifetime is
//!   erased on the way in — the one `unsafe` block of this crate. The
//!   latch in [`run`] is what `std::thread::scope` does on each call: no
//!   path out of `run`, return or unwind, passes a copy that may still be
//!   running.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

type Payload = Box<dyn Any + Send>;

/// One copy of a caller's job as the queue holds it.
struct Task {
    /// The caller's `&dyn Fn`, its lifetime erased (see [`run`]).
    job: &'static (dyn Fn() + Sync),
    /// The latch of the [`run`] call that queued it.
    latch: Arc<Latch>,
}

/// The queue the helpers serve and the count of helpers free to serve it.
struct Queue {
    tasks: VecDeque<Task>,
    /// Helpers not running a task: parked, or about to look at `tasks`.
    /// Dispatch keeps `tasks.len() <= idle`, so every queued copy has a
    /// helper that will take it.
    idle: usize,
    /// Helpers ever started (names only).
    started: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    tasks: VecDeque::new(),
    idle: 0,
    started: 0,
});

/// Signalled once per queued copy.
static WAKE: Condvar = Condvar::new();

/// Nothing panics while holding a lock of this crate, so a poisoned one
/// holds consistent data.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The copies of one [`run`] call not yet finished or retracted, and the
/// first panic payload any share of it raised. Shared through an `Arc`,
/// so a helper's count-down never touches memory the caller has freed.
struct Latch {
    state: Mutex<(usize, Option<Payload>)>,
    done: Condvar,
}

impl Latch {
    /// Counts `copies` off and keeps `panic` if it is the first payload.
    fn count_down(&self, copies: usize, panic: Option<Payload>) {
        let mut state = lock(&self.state);
        state.0 -= copies;
        match (&state.1, panic) {
            (None, first) => state.1 = first,
            (Some(_), Some(later)) => discard(later),
            (Some(_), None) => {}
        }
        if state.0 == 0 {
            self.done.notify_one();
        }
    }

    /// Blocks until every copy is counted off; the first payload, if any.
    fn wait(&self) -> Option<Payload> {
        let mut state = lock(&self.state);
        while state.0 > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.1.take()
    }
}

/// Drops a panic payload nobody will re-raise. A payload whose own drop
/// panics aborts the process, as it does under `std::thread::scope`: on
/// the caller, that unwind would leave [`run`] before the latch opens.
fn discard(payload: Payload) {
    if let Err(again) = catch_unwind(AssertUnwindSafe(|| drop(payload))) {
        std::mem::forget(again);
        std::process::abort();
    }
}

/// Runs `caller` on the calling thread while up to `helpers` parked helper
/// threads each run `helper` once, and returns `caller`'s result once
/// every helper that started has finished.
///
/// `helper` must be a *drain*: it takes work from state shared with
/// `caller` until none is left, and `caller` drains the same state. Copies
/// no helper has started when `caller` returns are retracted, not waited
/// for, so any number of them may never run — whatever they would have
/// done, the caller's drain has done.
///
/// # Panics
///
/// Re-raises the first panic of `caller` or of a started copy of
/// `helper`, after every started copy has finished.
pub fn run<R>(helpers: usize, helper: &(dyn Fn() + Sync), caller: impl FnOnce() -> R) -> R {
    if helpers == 0 {
        return caller();
    }
    let latch = Arc::new(Latch {
        state: Mutex::new((helpers, None)),
        done: Condvar::new(),
    });
    // SAFETY: only the lifetime changes. `job` is dereferenced only by a
    // helper that popped one of this call's tasks, and only before it
    // counts that task off `latch`. Below, every task still queued after
    // `caller` is retracted (never dereferenced) and counted off, and
    // `latch.wait()` returns once every popped one is counted off too.
    // Nothing between here and that return can leave `run` early: `caller`
    // runs under `catch_unwind`, a payload not kept goes to `discard`
    // (which aborts rather than unwind), spawn failures are absorbed, and
    // the locks never panic. So every use of `job` ends while `helper` is
    // borrowed.
    let job =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(helper) };
    dispatch(job, &latch, helpers);
    let (result, panic) = match catch_unwind(AssertUnwindSafe(caller)) {
        Ok(result) => (Some(result), None),
        Err(payload) => (None, Some(payload)),
    };
    latch.count_down(retract(&latch), panic);
    if let Some(payload) = latch.wait() {
        resume_unwind(payload);
    }
    result.expect("a caller share that did not panic returned")
}

/// Queues `copies` tasks of `job`, starting the helpers the idle ones
/// cannot cover.
fn dispatch(job: &'static (dyn Fn() + Sync), latch: &Arc<Latch>, copies: usize) {
    let mut queue = lock(&QUEUE);
    queue.tasks.extend((0..copies).map(|_| Task {
        job,
        latch: Arc::clone(latch),
    }));
    let short = queue.tasks.len().saturating_sub(queue.idle);
    queue.idle += short;
    let first = queue.started;
    queue.started += short;
    drop(queue);
    for _ in 0..copies.saturating_sub(short) {
        WAKE.notify_one();
    }
    for n in first..first + short {
        let spawned = std::thread::Builder::new()
            .name(format!("gcc-helper-{n}"))
            .spawn(serve);
        if spawned.is_err() {
            // One helper fewer: its copy stays queued until a helper
            // frees up or the caller retracts it.
            lock(&QUEUE).idle -= 1;
        }
    }
}

/// Takes back this call's copies that no helper has started; how many.
fn retract(latch: &Arc<Latch>) -> usize {
    let mut queue = lock(&QUEUE);
    let queued = queue.tasks.len();
    queue.tasks.retain(|task| !Arc::ptr_eq(&task.latch, latch));
    queued - queue.tasks.len()
}

/// A helper's life: take a task, run it, count it off, park when the
/// queue is empty.
fn serve() {
    let mut queue = lock(&QUEUE);
    loop {
        let Some(task) = queue.tasks.pop_front() else {
            queue = WAKE.wait(queue).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        queue.idle -= 1;
        drop(queue);
        let outcome = catch_unwind(AssertUnwindSafe(|| (task.job)()));
        // Idle again before the caller can see its copy finish: the
        // caller's next map finds this helper instead of starting another.
        queue = lock(&QUEUE);
        queue.idle += 1;
        task.latch.count_down(1, outcome.err());
    }
}
