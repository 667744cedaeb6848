//! Deterministic fault injection for chaos-testing the serving layer.
//!
//! A [`FaultPlan`] is a *seeded schedule* of injected failures: which
//! load attempt of which scene fails (retryably or fatally), panics, or
//! stalls, and which render call panics, is a pure function of the plan's
//! seed and the attempt/call index — no wall clock, no OS randomness — so
//! a chaos run replays the same fault storm every time. Which *stream*
//! absorbs a given render panic still depends on thread scheduling; chaos
//! tests therefore assert scheduling-independent properties (every stream
//! resolves, the pool recovers, a disarmed epilogue is bit-identical)
//! rather than per-stream outcomes.
//!
//! Injection points:
//!
//! * **Loads** — wrap a registry entry with
//!   [`SceneSource::faulty`](crate::SceneSource::faulty); each load
//!   attempt consults [`FaultPlan::next_load_fault`] (scripted
//!   prefix first, then the seeded schedule).
//! * **Renders** — wrap a schedule's renderer with [`ChaosRenderer`];
//!   each render call consults [`FaultPlan::next_render_fault`].
//!
//! [`FaultPlan::disarm`] switches every subsequent draw off — the
//! fault-free epilogue a chaos test uses to prove the service recovered
//! to healthy, bit-identical serving.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gcc_render::pipeline::{Frame, FrameScratch, RenderJob, Renderer};
use gcc_scene::rng::splitmix64;

/// One injected load failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadFault {
    /// Fail this attempt with a transient (retryable) error.
    FailRetryable,
    /// Fail this attempt with a fatal error (retries cannot help).
    FailFatal,
    /// Panic mid-load (exercises the service's load-panic containment).
    Panic,
    /// Stall the load for the duration, then let it proceed normally.
    Slow(Duration),
}

/// Per-mille injection rates of the seeded schedule (0 = never,
/// 1000 = every draw). Rates are checked in the order `panic`, `fatal`,
/// `retryable`, `slow` against one draw per attempt, so they partition
/// the draw space: their sum must stay ≤ 1000.
#[derive(Debug, Clone, Copy, Default)]
struct Rates {
    load_panic: u32,
    load_fatal: u32,
    load_retryable: u32,
    load_slow: u32,
    render_panic: u32,
}

/// A deterministic, seeded fault schedule, shared (via `Arc`) between
/// the injection points and the test/bench driver. See the [module
/// docs](self) for the model.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    armed: AtomicBool,
    rates: Rates,
    slow_delay: Duration,
    /// Scripted per-scene fault prefixes, consumed attempt-by-attempt
    /// before the seeded schedule takes over (`None` = attempt succeeds).
    scripts: Mutex<HashMap<String, VecDeque<Option<LoadFault>>>>,
    /// Per-scene load-attempt counters (the seeded schedule's index).
    load_attempts: Mutex<HashMap<String, u64>>,
    /// Global render-call counter (the render schedule's index).
    render_calls: AtomicU64,
    injected_load_faults: AtomicU64,
    injected_render_panics: AtomicU64,
}

impl FaultPlan {
    /// An armed plan with the given seed and no faults scheduled yet.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            armed: AtomicBool::new(true),
            rates: Rates::default(),
            slow_delay: Duration::from_millis(1),
            scripts: Mutex::new(HashMap::new()),
            load_attempts: Mutex::new(HashMap::new()),
            render_calls: AtomicU64::new(0),
            injected_load_faults: AtomicU64::new(0),
            injected_render_panics: AtomicU64::new(0),
        }
    }

    /// Schedules retryable load failures at `per_mille`/1000 of attempts.
    pub fn with_retryable_load_failures(mut self, per_mille: u32) -> Self {
        self.rates.load_retryable = per_mille;
        self.check_rates()
    }

    /// Schedules fatal load failures at `per_mille`/1000 of attempts.
    pub fn with_fatal_load_failures(mut self, per_mille: u32) -> Self {
        self.rates.load_fatal = per_mille;
        self.check_rates()
    }

    /// Schedules load panics at `per_mille`/1000 of attempts.
    pub fn with_load_panics(mut self, per_mille: u32) -> Self {
        self.rates.load_panic = per_mille;
        self.check_rates()
    }

    /// Schedules slow loads (stalled by `delay`) at `per_mille`/1000.
    pub fn with_slow_loads(mut self, per_mille: u32, delay: Duration) -> Self {
        self.rates.load_slow = per_mille;
        self.slow_delay = delay;
        self.check_rates()
    }

    /// Schedules render panics at `per_mille`/1000 of render calls.
    pub fn with_render_panics(mut self, per_mille: u32) -> Self {
        self.rates.render_panic = per_mille;
        self
    }

    /// Prepends an explicit per-attempt fault script for `scene`,
    /// consumed before the seeded schedule: attempt 1 draws `faults[0]`,
    /// and so on (`None` = that attempt succeeds). Exact sequences like
    /// *fail retryably twice, then succeed* are scripted, not seeded.
    pub fn script_loads(
        self,
        scene: impl Into<String>,
        faults: impl IntoIterator<Item = Option<LoadFault>>,
    ) -> Self {
        self.scripts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(scene.into())
            .or_default()
            .extend(faults);
        self
    }

    fn check_rates(self) -> Self {
        let r = &self.rates;
        let sum = r.load_panic + r.load_fatal + r.load_retryable + r.load_slow;
        assert!(
            sum <= 1000,
            "load fault rates sum to {sum} > 1000 per mille"
        );
        self
    }

    /// Switches every subsequent draw off: loads and renders proceed
    /// fault-free. The chaos epilogue — scripted faults still queued are
    /// kept (but not drawn) so a later [`Self::arm`] resumes the storm.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Re-arms a disarmed plan.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Whether draws currently inject faults.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Load faults actually injected so far (all kinds).
    pub fn injected_load_faults(&self) -> u64 {
        self.injected_load_faults.load(Ordering::Relaxed)
    }

    /// Render panics actually injected so far.
    pub fn injected_render_panics(&self) -> u64 {
        self.injected_render_panics.load(Ordering::Relaxed)
    }

    /// Draws the fault (if any) for the next load attempt of `scene`.
    /// Consumes the scripted prefix first, then the seeded schedule.
    /// Every call advances the scene's attempt counter, armed or not, so
    /// disarming does not shift the schedule of a later re-arm.
    pub fn next_load_fault(&self, scene: &str) -> Option<LoadFault> {
        let attempt = {
            let mut attempts = self.load_attempts.lock().unwrap_or_else(|e| e.into_inner());
            let a = attempts.entry(scene.to_string()).or_insert(0);
            *a += 1;
            *a
        };
        if !self.is_armed() {
            return None;
        }
        let scripted = {
            let mut scripts = self.scripts.lock().unwrap_or_else(|e| e.into_inner());
            match scripts.get_mut(scene) {
                Some(q) if !q.is_empty() => Some(q.pop_front().unwrap_or(None)),
                _ => None,
            }
        };
        let fault = match scripted {
            Some(f) => f,
            None => {
                let draw = per_mille_draw(self.seed, hash_str(scene) ^ attempt);
                let r = &self.rates;
                if draw < r.load_panic {
                    Some(LoadFault::Panic)
                } else if draw < r.load_panic + r.load_fatal {
                    Some(LoadFault::FailFatal)
                } else if draw < r.load_panic + r.load_fatal + r.load_retryable {
                    Some(LoadFault::FailRetryable)
                } else if draw < r.load_panic + r.load_fatal + r.load_retryable + r.load_slow {
                    Some(LoadFault::Slow(self.slow_delay))
                } else {
                    None
                }
            }
        };
        if fault.is_some() {
            self.injected_load_faults.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Draws whether the next render call panics. Advances the call
    /// counter armed or not (see [`Self::next_load_fault`]).
    pub fn next_render_fault(&self) -> bool {
        let call = self.render_calls.fetch_add(1, Ordering::Relaxed);
        if !self.is_armed() {
            return false;
        }
        let panics = per_mille_draw(self.seed, 0x9E37_79B9 ^ call) < self.rates.render_panic;
        if panics {
            self.injected_render_panics.fetch_add(1, Ordering::Relaxed);
        }
        panics
    }
}

/// SplitMix64 draw in `0..1000`, a pure function of `(seed, index)`.
fn per_mille_draw(seed: u64, index: u64) -> u32 {
    (splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000) as u32
}

/// FNV-1a of a scene id (stable across runs, unlike `DefaultHasher`).
fn hash_str(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A [`Renderer`] wrapper that injects panics per the plan's render
/// schedule and otherwise delegates — frames it does render are
/// bit-identical to the inner renderer's.
pub struct ChaosRenderer {
    inner: Box<dyn Renderer + Send + Sync>,
    plan: Arc<FaultPlan>,
}

impl ChaosRenderer {
    /// Wraps `inner`, drawing on `plan` before every render call.
    pub fn new(inner: Box<dyn Renderer + Send + Sync>, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }
}

impl std::fmt::Debug for ChaosRenderer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosRenderer")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl Renderer for ChaosRenderer {
    fn render_job(&self, job: &RenderJob<'_>, scratch: &mut FrameScratch) -> Frame {
        if self.plan.next_render_fault() {
            panic!("injected render fault");
        }
        self.inner.render_job(job, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedule_is_reproducible() {
        let draw = |seed| {
            let plan = FaultPlan::new(seed)
                .with_retryable_load_failures(200)
                .with_fatal_load_failures(50)
                .with_load_panics(50)
                .with_slow_loads(100, Duration::from_millis(2))
                .with_render_panics(100);
            let loads: Vec<_> = (0..64).map(|_| plan.next_load_fault("lego")).collect();
            let renders: Vec<_> = (0..64).map(|_| plan.next_render_fault()).collect();
            (loads, renders)
        };
        assert_eq!(draw(7), draw(7), "same seed must replay the same storm");
        assert_ne!(draw(7), draw(8), "different seeds should diverge");
    }

    #[test]
    fn rates_partition_and_land_in_the_right_ballpark() {
        let plan = FaultPlan::new(42)
            .with_retryable_load_failures(300)
            .with_load_panics(100);
        let mut retryable = 0;
        let mut panics = 0;
        let mut clean = 0;
        for _ in 0..2000 {
            match plan.next_load_fault("scene") {
                Some(LoadFault::FailRetryable) => retryable += 1,
                Some(LoadFault::Panic) => panics += 1,
                None => clean += 1,
                other => panic!("unscheduled fault kind {other:?}"),
            }
        }
        assert_eq!(retryable + panics + clean, 2000);
        assert!((400..800).contains(&retryable), "retryable={retryable}");
        assert!((100..320).contains(&panics), "panics={panics}");
        assert_eq!(plan.injected_load_faults(), (retryable + panics) as u64);
    }

    #[test]
    fn scripts_run_before_the_seeded_schedule() {
        let plan = FaultPlan::new(0).script_loads(
            "s",
            [
                Some(LoadFault::FailRetryable),
                Some(LoadFault::FailRetryable),
                None,
                Some(LoadFault::FailFatal),
            ],
        );
        assert_eq!(plan.next_load_fault("s"), Some(LoadFault::FailRetryable));
        assert_eq!(plan.next_load_fault("s"), Some(LoadFault::FailRetryable));
        assert_eq!(plan.next_load_fault("s"), None);
        assert_eq!(plan.next_load_fault("s"), Some(LoadFault::FailFatal));
        // Script exhausted; zero seeded rates mean clean loads from here.
        assert_eq!(plan.next_load_fault("s"), None);
        // Other scenes never see this script.
        assert_eq!(plan.next_load_fault("other"), None);
        assert_eq!(plan.injected_load_faults(), 3);
    }

    #[test]
    fn disarming_stops_draws_but_keeps_the_schedule_position() {
        let armed = FaultPlan::new(3).with_render_panics(1000);
        assert!(armed.next_render_fault());
        armed.disarm();
        assert!(!armed.next_render_fault(), "disarmed draws never fault");
        assert!(!armed.is_armed());
        armed.arm();
        assert!(armed.next_render_fault());
        // Counter advanced through the disarmed draw: 2 injected, 3 calls.
        assert_eq!(armed.injected_render_panics(), 2);
    }

    #[test]
    #[should_panic(expected = "sum to 1001")]
    fn overfull_rates_are_rejected() {
        let _ = FaultPlan::new(0)
            .with_retryable_load_failures(900)
            .with_load_panics(101);
    }
}
