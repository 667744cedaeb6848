//! Long-lived worker pools — the seam that generalizes this crate beyond
//! one-shot maps.
//!
//! The maps borrow the process's parked helpers for one call
//! ([`run`](crate::run)): a helper holds no state of its own, serves any
//! map, and is back in the shared set when the map returns. A serving
//! layer instead needs workers that belong to it, keep their per-worker
//! state (e.g. a render scratch) across *requests*, block on its queue
//! between them, and stop when it says so. [`WorkerPool`] is that
//! primitive, built by its one constructor
//! [`WorkerPool::spawn_supervised`]: `threads` dedicated (joined-on-drop)
//! workers, each owning one state value built by `init`, each repeatedly
//! calling `step(worker_id, &mut state)` until `step` returns
//! [`WorkerStep::Stop`], and each respawned after a panic as its
//! [`RestartPolicy`] allows.
//!
//! The pool itself has no queue — `step` closes over whatever shared
//! structure (mutex + condvar, channel, …) the caller schedules with, and
//! is responsible for blocking when there is no work. This keeps the pool
//! policy-free: batching, fairness and shutdown signalling live with the
//! caller, the pool only owns thread lifetime and per-worker state.
//!
//! Determinism note: like the maps, which worker runs which piece
//! of work is scheduling-dependent; callers that need reproducible
//! *results* must make `step`'s output independent of the worker id and
//! of the state's carried-over contents (states are reusable scratch,
//! not accumulators).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a [`WorkerPool`] worker should do after one `step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStep {
    /// Call `step` again.
    Continue,
    /// Exit this worker's loop; the thread terminates.
    Stop,
}

/// Restart budget of a supervised pool ([`WorkerPool::spawn_supervised`]):
/// a panicking worker is caught and respawned with fresh state, but only
/// `max_restarts` times per rolling `window` across the whole pool — one
/// panic past the budget *fails fast* (the worker dies and the panic
/// resurfaces at join), so a permanently broken step cannot spin the pool
/// in a respawn loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Respawns allowed inside any rolling [`Self::window`] (pool-wide).
    pub max_restarts: usize,
    /// Width of the rolling restart window.
    pub window: Duration,
}

impl Default for RestartPolicy {
    /// Generous enough to ride out a fault burst, tight enough to stop a
    /// hot respawn loop: 32 restarts per 10 s window.
    fn default() -> Self {
        Self {
            max_restarts: 32,
            window: Duration::from_secs(10),
        }
    }
}

impl RestartPolicy {
    /// A policy that never respawns — every panic kills its worker and
    /// resurfaces at [`WorkerPool::join`].
    pub fn fail_fast() -> Self {
        Self {
            max_restarts: 0,
            window: Duration::from_secs(10),
        }
    }
}

/// Shared health counters of a pool, observable while it runs: every
/// caught panic and every worker that exhausted the restart budget.
#[derive(Debug, Default)]
pub struct PoolHealth {
    restarts: AtomicU64,
    failed: AtomicU64,
    /// Timestamps of recent restarts, pruned to the policy window.
    recent: Mutex<VecDeque<Instant>>,
}

impl PoolHealth {
    /// Worker panics caught and answered with a fresh-state respawn.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Workers that died for good: a panic past the restart budget.
    pub fn failed_workers(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Records one panic; `true` when the budget admits a respawn.
    fn admit_restart(&self, policy: &RestartPolicy) -> bool {
        let now = Instant::now();
        let mut recent = self.recent.lock().unwrap_or_else(|e| e.into_inner());
        while recent
            .front()
            .is_some_and(|t| now.duration_since(*t) > policy.window)
        {
            recent.pop_front();
        }
        if recent.len() >= policy.max_restarts {
            self.failed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        recent.push_back(now);
        drop(recent);
        self.restarts.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// A pool of long-lived worker threads with per-worker state, built by
/// [`WorkerPool::spawn_supervised`].
///
/// Dropping the pool joins every worker, so the caller **must** arrange
/// for `step` to observe a stop condition (and any blocked workers to be
/// woken) before the pool is dropped — otherwise the drop blocks forever.
/// [`WorkerPool::join`] is the explicit form of the same wait.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
    health: Arc<PoolHealth>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one). Worker `i ∈ 0..threads`
    /// builds its own state once with `init`, then loops `step(i, &mut
    /// state)` until it returns [`WorkerStep::Stop`].
    ///
    /// Workers are supervised: a panic escaping `step` is caught,
    /// reported on stderr, counted in [`PoolHealth`], and answered by
    /// rebuilding the worker's state with `init` — the worker keeps
    /// running at full pool width with fresh (scratch) state, and the
    /// panicked step's side effects are bounded by whatever cleanup
    /// guards the caller's `step` installs. The `policy` bounds respawns:
    /// one panic past `max_restarts` in a rolling `window` fails fast —
    /// the worker dies re-raising the panic, which then surfaces at
    /// [`Self::join`]; [`RestartPolicy::fail_fast`] fails on the first
    /// panic.
    ///
    /// A panic escaping `init` itself is never caught (a pool that
    /// cannot build worker state is misconfigured, not unlucky).
    pub fn spawn_supervised<S, I, F>(
        threads: usize,
        init: I,
        step: F,
        policy: RestartPolicy,
    ) -> Self
    where
        S: 'static,
        I: Fn() -> S + Send + Sync + 'static,
        F: Fn(usize, &mut S) -> WorkerStep + Send + Sync + 'static,
    {
        let shared = Arc::new((init, step));
        let health = Arc::new(PoolHealth::default());
        let handles = (0..threads.max(1))
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let health = Arc::clone(&health);
                std::thread::Builder::new()
                    .name(format!("gcc-pool-{worker}"))
                    .spawn(move || {
                        let (init, step) = &*shared;
                        let mut state = init();
                        loop {
                            // The state is rebuilt from scratch after a
                            // panic, so observing it mid-unwind is fine.
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    step(worker, &mut state)
                                }));
                            match outcome {
                                Ok(WorkerStep::Continue) => {}
                                Ok(WorkerStep::Stop) => return,
                                Err(payload) => {
                                    if health.admit_restart(&policy) {
                                        eprintln!(
                                            "gcc-pool-{worker}: worker panicked \
                                             ({}); respawning with fresh state",
                                            panic_message(&payload)
                                        );
                                        state = init();
                                    } else {
                                        eprintln!(
                                            "gcc-pool-{worker}: worker panicked \
                                             ({}) past the restart budget \
                                             ({} per {:?}); failing fast",
                                            panic_message(&payload),
                                            policy.max_restarts,
                                            policy.window
                                        );
                                        std::panic::resume_unwind(payload);
                                    }
                                }
                            }
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { handles, health }
    }

    /// The pool's shared health counters (respawns, failed workers).
    /// Cheap to clone and safe to poll while the pool runs.
    pub fn health(&self) -> Arc<PoolHealth> {
        Arc::clone(&self.health)
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// `true` when the pool has no workers (never, post-construction —
    /// provided for API completeness alongside [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Waits for every worker to observe its stop condition and exit.
    /// Panics from worker threads are surfaced as a panic here.
    pub fn join(mut self) {
        self.join_all();
    }

    /// Worker threads that already terminated (normally or by a panic
    /// past the restart budget). A healthy supervised pool keeps this at
    /// zero until its stop condition is observed.
    pub fn finished_workers(&self) -> usize {
        self.handles.iter().filter(|h| h.is_finished()).count()
    }

    fn join_all(&mut self) {
        let mut panicked = false;
        for h in self.handles.drain(..) {
            if h.join().is_err() {
                panicked = true;
            }
        }
        // Surface worker panics, but never panic while already unwinding
        // (Drop during a panic must not abort the process).
        if panicked && !std::thread::panicking() {
            panic!("a worker-pool thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Best-effort text of a panic payload (for respawn reports).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};

    #[test]
    fn workers_run_until_stop_and_keep_state() {
        // Each worker counts its own steps in per-worker state; the sum of
        // all steps is observed through a shared counter.
        let total = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&total);
        let pool = WorkerPool::spawn_supervised(
            4,
            || 0usize,
            move |_, local| {
                *local += 1;
                t.fetch_add(1, Ordering::Relaxed);
                if *local < 25 {
                    WorkerStep::Continue
                } else {
                    WorkerStep::Stop
                }
            },
            RestartPolicy::fail_fast(),
        );
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
        pool.join();
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25);
    }

    #[test]
    fn blocked_workers_drain_a_shared_queue_then_stop() {
        // The serve-shaped usage: a mutex+condvar queue, workers block
        // between items, a stop flag wakes and stops everyone.
        struct Q {
            items: Vec<u64>,
            stop: bool,
        }
        let shared = Arc::new((
            Mutex::new(Q {
                items: (1..=100).collect(),
                stop: false,
            }),
            Condvar::new(),
        ));
        let sum = Arc::new(AtomicUsize::new(0));
        let (s, m) = (Arc::clone(&shared), Arc::clone(&sum));
        let pool = WorkerPool::spawn_supervised(
            3,
            || (),
            move |_, ()| {
                let (lock, cv) = &*s;
                let mut q = lock.lock().unwrap();
                loop {
                    if let Some(v) = q.items.pop() {
                        drop(q);
                        m.fetch_add(v as usize, Ordering::Relaxed);
                        return WorkerStep::Continue;
                    }
                    if q.stop {
                        return WorkerStep::Stop;
                    }
                    q = cv.wait(q).unwrap();
                }
            },
            RestartPolicy::fail_fast(),
        );
        // Let the queue drain, then signal stop.
        loop {
            let (lock, cv) = &*shared;
            let mut q = lock.lock().unwrap();
            if q.items.is_empty() {
                q.stop = true;
                cv.notify_all();
                break;
            }
            drop(q);
            std::thread::yield_now();
        }
        pool.join();
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (1..=100u64).sum::<u64>() as usize
        );
    }

    #[test]
    fn zero_thread_request_still_gets_one_worker() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let pool = WorkerPool::spawn_supervised(
            0,
            || (),
            move |_, ()| {
                r.fetch_add(1, Ordering::Relaxed);
                WorkerStep::Stop
            },
            RestartPolicy::fail_fast(),
        );
        assert_eq!(pool.len(), 1);
        pool.join();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn supervised_pool_respawns_panicked_workers_and_finishes_the_work() {
        // A mutex+condvar queue where every 5th item panics the step
        // mid-processing. Under supervision the panicking worker is
        // respawned with fresh state, so the pool still drains every
        // non-poisoned item at full width and joins cleanly.
        struct Q {
            items: Vec<u64>,
            stop: bool,
        }
        let shared = Arc::new((
            Mutex::new(Q {
                items: (1..=60).collect(),
                stop: false,
            }),
            Condvar::new(),
        ));
        let done = Arc::new(AtomicUsize::new(0));
        let (s, d) = (Arc::clone(&shared), Arc::clone(&done));
        let pool = WorkerPool::spawn_supervised(
            3,
            || 0usize,
            move |_, steps_since_respawn| {
                let (lock, cv) = &*s;
                let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(v) = q.items.pop() {
                        drop(q);
                        *steps_since_respawn += 1;
                        if v % 5 == 0 {
                            panic!("poisoned item {v}");
                        }
                        d.fetch_add(1, Ordering::Relaxed);
                        return WorkerStep::Continue;
                    }
                    if q.stop {
                        return WorkerStep::Stop;
                    }
                    q = cv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            },
            RestartPolicy::default(),
        );
        let health = pool.health();
        loop {
            let (lock, cv) = &*shared;
            let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
            if q.items.is_empty() {
                q.stop = true;
                cv.notify_all();
                break;
            }
            drop(q);
            std::thread::yield_now();
        }
        pool.join();
        // 12 of the 60 items panic; the other 48 all complete.
        assert_eq!(done.load(Ordering::Relaxed), 48);
        assert_eq!(health.restarts(), 12);
        assert_eq!(health.failed_workers(), 0);
    }

    #[test]
    fn supervised_state_is_rebuilt_fresh_after_a_panic() {
        // Worker state counts steps; the first step panics after bumping
        // it. The respawned state must start from init()'s value again.
        let observed = Arc::new(Mutex::new(Vec::<usize>::new()));
        let o = Arc::clone(&observed);
        let pool = WorkerPool::spawn_supervised(
            1,
            || 0usize,
            move |_, state| {
                *state += 1;
                o.lock().unwrap_or_else(|e| e.into_inner()).push(*state);
                if *state == 1 && o.lock().unwrap_or_else(|e| e.into_inner()).len() == 1 {
                    panic!("first step dies");
                }
                if *state >= 3 {
                    WorkerStep::Stop
                } else {
                    WorkerStep::Continue
                }
            },
            RestartPolicy::default(),
        );
        let health = pool.health();
        pool.join();
        // First run reaches 1 then panics; respawn restarts at 1, 2, 3.
        assert_eq!(
            *observed.lock().unwrap_or_else(|e| e.into_inner()),
            vec![1, 1, 2, 3]
        );
        assert_eq!(health.restarts(), 1);
    }

    #[test]
    #[should_panic(expected = "worker-pool thread panicked")]
    fn supervised_pool_fails_fast_past_the_restart_budget() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&attempts);
        let pool = WorkerPool::spawn_supervised(
            1,
            || (),
            move |_, ()| {
                a.fetch_add(1, Ordering::Relaxed);
                panic!("always broken");
            },
            RestartPolicy {
                max_restarts: 2,
                window: Duration::from_secs(60),
            },
        );
        let (health, attempts) = (pool.health(), Arc::clone(&attempts));
        // The worker dies on its third panic (2 respawns + 1 fail-fast).
        while pool.finished_workers() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        assert_eq!(health.restarts(), 2);
        assert_eq!(health.failed_workers(), 1);
        pool.join();
    }

    #[test]
    fn fail_fast_policy_matches_unsupervised_semantics() {
        let pool = WorkerPool::spawn_supervised(
            2,
            || (),
            |w, ()| {
                if w == 0 {
                    panic!("boom");
                }
                WorkerStep::Stop
            },
            RestartPolicy::fail_fast(),
        );
        let health = pool.health();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.join()));
        assert!(caught.is_err());
        assert_eq!(health.restarts(), 0);
        assert_eq!(health.failed_workers(), 1);
    }

    #[test]
    fn a_pool_that_never_panics_keeps_zero_health() {
        let pool = WorkerPool::spawn_supervised(
            2,
            || (),
            |_, ()| WorkerStep::Stop,
            RestartPolicy::fail_fast(),
        );
        let health = pool.health();
        pool.join();
        assert_eq!(health.restarts(), 0);
        assert_eq!(health.failed_workers(), 0);
    }

    #[test]
    #[should_panic(expected = "worker-pool thread panicked")]
    fn worker_panics_surface_on_join() {
        let pool = WorkerPool::spawn_supervised(
            2,
            || (),
            |w, ()| {
                if w == 0 {
                    panic!("boom");
                }
                WorkerStep::Stop
            },
            RestartPolicy::fail_fast(),
        );
        pool.join();
    }
}
