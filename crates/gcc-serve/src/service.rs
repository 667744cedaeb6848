//! The render service: a long-lived worker pool over priority-aware
//! stream queues keyed by `(scene, schedule, resolution, priority)`, and
//! the LRU scene cache.
//!
//! # Request model
//!
//! Everything is a stream: a client opens a [`Session`] per scene and
//! streams view sequences through it ([`Session::stream_with`]); a single
//! frame ([`Session::submit`]) is a one-view stream behind a
//! [`RenderHandle`]. Validation happens before any worker sees a request
//! — unknown scene ids and invalid options fail at
//! [`RenderService::session`], NaN / out-of-range views and empty specs
//! at open, all with typed [`ServeError`]s; ROI bounds against a scene's
//! *native* resolution can only be checked once the scene is known, so
//! that case resolves through the stream instead of panicking a worker.
//!
//! # Scheduling
//!
//! All coordination state lives in one mutex (`State`) with one condvar.
//! Queues are keyed by [`BatchKey`] — scene, schedule, resolution,
//! priority — so a drained batch is renderable back-to-back on one
//! worker with one renderer, and batches are priority-pure (interactive
//! frames never wait behind bulk frames inside one queue). A worker's
//! step either *plans* a job under the lock — drain a batch for a
//! resident scene, or claim a cold scene's load — and executes it with
//! the lock released, or blocks on the condvar when every pending scene
//! is already being loaded by someone else.
//!
//! Dispatch order is one rank, written once ([`best_key`]): `(priority,
//! earliest head deadline, FIFO turn)` — `Interactive` preempts `Bulk`
//! at every decision; within a class, earliest-deadline-first, with *any*
//! deadline outranking deadline-free work (a deadline is a claim of
//! urgency — latency promises are ordered ahead of best-effort traffic,
//! which saturating deadline-carrying load can therefore starve, exactly
//! as interactive can starve bulk); the FIFO turn (a drained-but-nonempty
//! key rotates to the back) keeps keys of equal priority and deadline
//! standing fair. Within a key, frames are served in issue order.
//!
//! Frames enter the queues *lazily*: a stream materializes at most
//! `window` undelivered frames at a time (see
//! [`crate::session`]), refilled when the client consumes — the
//! backpressure that bounds queue space per client.
//!
//! A cold scene is loaded by exactly one worker (the `loading` guard),
//! which then drains the best waiting batch of that scene itself —
//! *load-then-drain* — while the insert makes the scene resident for
//! every other worker to batch from in parallel. With a zero cache budget
//! the insert evicts immediately and every request degenerates to
//! load-render-evict: every frame pays its scene's cold load, the naive
//! serving model.
//!
//! Frames that can no longer be rendered — a load that failed or
//! panicked, a renderer panic, shutdown — fail through one function
//! ([`fail_frames`]): counted completed, their streams forgotten, their
//! inboxes failed once the lock is released.
//!
//! # Lending
//!
//! Thread counts come from the process-wide lending ledger
//! ([`gcc_parallel::lend`], DESIGN.md §5): a worker holds a loan while it
//! loads a scene or renders a batch, and at no other time (not while it
//! waits on the condvar, not while it sleeps out a retry back-off). Every
//! unit of work it starts — a frame of any priority, with or without a
//! deadline, and the load and hierarchy build of a cold scene — runs on
//! the loan's [`threads`](gcc_parallel::Loan::threads), read once when
//! the unit starts. On a loaded process every worker is busy and each
//! frame renders on its worker's one core, the one-frame-per-worker
//! schedule batch throughput wants; on an idle one the first frame a
//! client asks for gets the host. A frame takes only the threads its
//! work pays for (`gcc_render::pipeline::stages::render_units`' work
//! floor), there is no knob, and images and `FrameStats` are
//! bit-identical for every thread count, so the parity contract below
//! does not notice.
//!
//! # Scratch lifetime
//!
//! Each pool worker owns one [`FrameScratch`] for its entire lifetime —
//! across batches, scenes, schedules, streams and cache generations — so
//! steady-state serving allocates no per-frame hot-path buffers. Served
//! frames are bit-identical to fresh-scratch direct renders (the
//! scratch-reuse contract of [`Renderer::render_job`]).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gcc_lod::{attach_hierarchy, CostModel, HierarchyConfig, QualityLadder};
use gcc_parallel::{
    available_threads, lend, Parallelism, PoolHealth, RestartPolicy, WorkerPool, WorkerStep,
};
use gcc_render::pipeline::{
    Frame, FrameScratch, FrameStats, RenderJob, RenderOptions, Renderer, Schedule,
};
use gcc_render::upscale::upscale_bilinear;
use gcc_scene::io::RetryPolicy;
use gcc_scene::{Scene, ViewError, ViewSpec};

use crate::cache::LruSceneCache;
use crate::session::{FrameStream, Inbox, Priority, Session, StreamConfig, StreamPoll};
use crate::source::{LoadError, SceneSource};
use crate::stats::{
    percentile_us, LodCounters, LodDecision, PriorityCounters, SceneCounters, ScheduleCounters,
    ServeStats, StreamCounters, LOD_TRACE_WINDOW,
};
use crate::ServeError;

/// Admission-control watermarks: when new streams are turned away with
/// [`ServeError::Overloaded`]. The Bulk watermarks fire first — past
/// them new `Bulk` streams are *rejected* while `Interactive` still
/// admits (best-effort traffic is the first to go) — and the hard
/// ceilings *shed* everything. All four default to `usize::MAX`
/// (admission control off); a deployment sizes them to its queue-latency
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Queued-frame depth past which new Bulk streams are rejected.
    pub bulk_queue_watermark: usize,
    /// Open-stream count past which new Bulk streams are rejected.
    pub bulk_stream_watermark: usize,
    /// Queued-frame hard ceiling: past it, every new stream is shed.
    pub max_queue_depth: usize,
    /// Open-stream hard ceiling: past it, every new stream is shed.
    pub max_streams: usize,
    /// Base backoff hint attached to [`ServeError::Overloaded`]
    /// rejections. The hint a client actually receives scales with how
    /// far past its watermark the service was at rejection time (see
    /// [`ShedPolicy::retry_hint`]), so the same knob yields gentle
    /// backoff at a grazed watermark and a firm one under a pile-up.
    pub retry_after: Duration,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        Self {
            bulk_queue_watermark: usize::MAX,
            bulk_stream_watermark: usize::MAX,
            max_queue_depth: usize::MAX,
            max_streams: usize::MAX,
            retry_after: Duration::from_millis(25),
        }
    }
}

impl ShedPolicy {
    /// The backoff hint for a rejection observed at `depth` against
    /// `limit`: the base [`Self::retry_after`] scaled linearly with the
    /// relative overshoot past the limit, capped at 4x the base. At the
    /// limit exactly (or under it, for the side of a compound check that
    /// did not fire) the hint is the base itself; a queue running at
    /// triple its watermark hints 3x the base. The scaling is
    /// deterministic so tests and wire clients can rely on it.
    pub fn retry_hint(&self, depth: usize, limit: usize) -> Duration {
        let over = depth.saturating_sub(limit);
        if over == 0 || limit == 0 {
            return self.retry_after;
        }
        let factor = (1.0 + over as f64 / limit as f64).min(4.0);
        self.retry_after.mul_f64(factor)
    }
}

/// Deadline-aware adaptive quality policy (DESIGN.md §14): when set on
/// [`ServeConfig::lod`], deadline-carrying frames dispatch through the
/// [`QualityLadder`] instead of always rendering at full quality. A
/// rolling per-scene cost model picks the highest rung whose measured
/// cost (scaled by [`LodPolicy::margin`]) fits the frame's remaining
/// deadline budget, degrading resolution / SH degree / alpha culling /
/// hierarchy level under pressure and probing its way back up, one
/// rung per frame, with headroom.
/// Deadline-free frames always render exactly; with `lod: None` the
/// service behaves bit-identically to pre-LOD builds.
#[derive(Debug, Clone)]
pub struct LodPolicy {
    /// The quality ladder, best rung first (rung 0 must be exact).
    pub ladder: QualityLadder,
    /// Safety factor applied to a rung's measured cost before comparing against
    /// the deadline budget (> 1 leaves headroom for scheduling noise).
    pub margin: f64,
    /// Hierarchy builder configuration: a loaded scene without a
    /// [`gcc_scene::SceneLod`] (no scene file stores one; only a `Memory`
    /// source can hand one over) gets one built at load time, so the coarse
    /// rungs have levels to render from, and the hierarchy is charged to
    /// the cache byte budget. The service builds on the threads it can
    /// lend when the load happens, whatever `threads` says here — every
    /// count builds the same hierarchy; the field keeps its meaning for
    /// direct callers of `gcc_lod::attach_hierarchy`.
    pub hierarchy: HierarchyConfig,
}

impl Default for LodPolicy {
    fn default() -> Self {
        Self {
            ladder: QualityLadder::standard(),
            margin: 1.3,
            hierarchy: HierarchyConfig::default(),
        }
    }
}

/// Service sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` means one per available hardware thread.
    pub workers: usize,
    /// Byte budget of the scene cache ([`Scene::approx_bytes`] units).
    /// `0` disables residency entirely (naive load-render-evict).
    pub cache_budget_bytes: usize,
    /// Most requests drained into one batch (≥ 1). `1` disables
    /// coalescing.
    pub max_batch: usize,
    /// Worker supervision budget: panicked workers are respawned with
    /// fresh scratch within this policy; past it the panic fails fast
    /// and resurfaces when the pool is joined.
    pub restart: RestartPolicy,
    /// Retry policy for scene loads that fail *retryably* (transient
    /// I/O). Fatal failures (missing/malformed files) never retry.
    pub load_retry: RetryPolicy,
    /// How long a scene that exhausted its load retries (or whose load
    /// panicked) stays quarantined: new requests fail fast with
    /// [`ServeError::Quarantined`] until the window expires, then one
    /// request is admitted as a half-open probe. `Duration::ZERO`
    /// effectively disables the breaker (every request probes).
    pub quarantine_for: Duration,
    /// Admission-control watermarks (defaults: admission control off).
    pub shed: ShedPolicy,
    /// Deadline-aware adaptive quality (default: off — every frame
    /// renders at exact full quality).
    pub lod: Option<LodPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            cache_budget_bytes: 256 << 20,
            max_batch: 8,
            restart: RestartPolicy::default(),
            load_retry: RetryPolicy::default(),
            quarantine_for: Duration::from_secs(5),
            shed: ShedPolicy::default(),
            lod: None,
        }
    }
}

/// The renderer table the service dispatches [`Schedule`]s through: one
/// long-lived renderer per schedule, each sequential by default — the
/// service parallelizes across requests, and inside a frame over the
/// cores no other worker is busy on, by naming a thread count on the job
/// ([`RenderJob::parallelism`]; a custom renderer may ignore it).
pub struct ScheduleRenderers {
    /// Indexed in [`Schedule::ALL`] order.
    renderers: Vec<Box<dyn Renderer + Send + Sync>>,
}

impl Default for ScheduleRenderers {
    fn default() -> Self {
        Self {
            renderers: Schedule::ALL.iter().map(|s| s.renderer()).collect(),
        }
    }
}

impl std::fmt::Debug for ScheduleRenderers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleRenderers")
            .field("schedules", &Schedule::ALL)
            .finish_non_exhaustive()
    }
}

impl ScheduleRenderers {
    /// Replaces one schedule's renderer (custom configurations, tests).
    pub fn with(mut self, schedule: Schedule, renderer: Box<dyn Renderer + Send + Sync>) -> Self {
        self.renderers[Self::index(schedule)] = renderer;
        self
    }

    fn index(schedule: Schedule) -> usize {
        Schedule::ALL
            .iter()
            .position(|s| *s == schedule)
            .expect("Schedule::ALL covers every variant")
    }

    fn get(&self, schedule: Schedule) -> &(dyn Renderer + Send + Sync) {
        self.renderers[Self::index(schedule)].as_ref()
    }
}

/// Waiter side of a single frame ([`Session::submit`]): a handle over a
/// one-frame interactive stream. Dropping the handle without waiting
/// cancels the request (an abandoned frame releases its queue slot).
#[derive(Debug)]
pub struct RenderHandle {
    stream: FrameStream,
}

impl RenderHandle {
    pub(crate) fn from_stream(stream: FrameStream) -> Self {
        Self { stream }
    }

    /// Blocks until the frame is rendered (or the request failed). A
    /// handle never blocks past the service's shutdown: requests still
    /// queued when the drain finishes resolve with
    /// [`ServeError::ShuttingDown`].
    pub fn wait(mut self) -> Result<Frame, ServeError> {
        self.stream
            .next_frame()
            .unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Bounded-wait variant of [`Self::wait`]: blocks up to `timeout`.
    /// `Ok` carries the request's result; `Err` returns the handle on
    /// timeout so the caller can keep polling without losing the frame.
    ///
    /// # Errors
    ///
    /// `Err(self)` when the frame was not ready within `timeout`.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Result<Frame, ServeError>, Self> {
        match self.stream.next_timeout(timeout) {
            StreamPoll::Ready(result) => Ok(result),
            StreamPoll::Done => Ok(Err(ServeError::ShuttingDown)),
            StreamPoll::Pending => Err(self),
        }
    }

    /// `true` once the result is available ([`Self::wait`] won't block).
    /// A pure poll: takes no part in the scheduler's condvar protocol, so
    /// spinning on it cannot stall workers (though [`Self::wait_timeout`]
    /// is the cheaper way to poll).
    pub fn is_ready(&self) -> bool {
        self.stream.is_ready()
    }
}

/// What a batch coalesces on: requests agreeing on all four render
/// back-to-back through one renderer and one scratch, at one priority.
/// The `resolution` is the *override* (`None` = the scene's native
/// size), so native-resolution requests coalesce without knowing the
/// scene's actual dimensions at open time. Priority is part of the key
/// so batches are priority-pure: an interactive frame never waits behind
/// bulk frames inside one queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BatchKey {
    scene: String,
    schedule: Schedule,
    resolution: Option<(u32, u32)>,
    priority: Priority,
}

/// A queued (issued) stream frame.
#[derive(Debug)]
struct Pending {
    view: ViewSpec,
    options: Arc<RenderOptions>,
    /// When the frame was issued into the scheduler (latency origin).
    submitted: Instant,
    /// Absolute deadline (issue time + the stream's deadline), if any.
    deadline: Option<Instant>,
    priority: Priority,
    stream: u64,
    index: usize,
    inbox: Arc<Inbox>,
}

/// Scheduler-side state of one open stream.
#[derive(Debug)]
struct StreamSched {
    key: BatchKey,
    views: Vec<ViewSpec>,
    options: Arc<RenderOptions>,
    deadline: Option<Duration>,
    window: usize,
    /// Frames materialized into the queues so far.
    issued: usize,
    /// Frames the client has consumed (reported by refills).
    delivered: usize,
    inbox: Arc<Inbox>,
}

/// Most latency samples retained per priority class. A long-lived
/// service must not accumulate per-request state without bound, and
/// `stats()` sorts a copy of these buffers — so each is a ring over the
/// most recent completions, not the full history.
const LATENCY_WINDOW: usize = 1 << 15;

/// One priority class: its counters as they are published, and its
/// latency window.
#[derive(Debug, Default)]
struct Class {
    /// `queued` is live (the class's frames issued but not yet drained);
    /// the latency percentiles are filled in by each snapshot.
    counters: PriorityCounters,
    /// Ring buffer of recent frame latencies (µs); see
    /// [`LATENCY_WINDOW`].
    latencies_us: Vec<u64>,
    /// Next overwrite position once the ring is full.
    latency_cursor: usize,
}

impl Class {
    fn record_latency(&mut self, us: u64) {
        if self.latencies_us.len() < LATENCY_WINDOW {
            self.latencies_us.push(us);
        } else {
            self.latencies_us[self.latency_cursor] = us;
            self.latency_cursor = (self.latency_cursor + 1) % LATENCY_WINDOW;
        }
    }
}

/// The counters [`RenderService::stats`] publishes, held in the types it
/// publishes them as. No total is stored beside the breakdown it sums:
/// `completed`, `frames`, `batches` and the queue depth are summed by
/// each snapshot.
#[derive(Debug, Default)]
struct Ledger {
    per_scene: BTreeMap<String, SceneCounters>,
    per_schedule: BTreeMap<Schedule, ScheduleCounters>,
    /// Indexed by [`Priority::index`].
    classes: [Class; 2],
    streams: StreamCounters,
    frame_stats: FrameStats,
    max_queue_depth: usize,
}

impl Ledger {
    fn scene(&mut self, id: &str) -> &mut SceneCounters {
        self.per_scene.entry(id.to_string()).or_default()
    }

    fn schedule(&mut self, s: Schedule) -> &mut ScheduleCounters {
        self.per_schedule.entry(s).or_default()
    }

    fn class(&mut self, p: Priority) -> &mut PriorityCounters {
        &mut self.classes[p.index()].counters
    }

    /// Frames issued but not yet drained into a batch, every class.
    fn queued(&self) -> usize {
        self.classes.iter().map(|c| c.counters.queued).sum()
    }
}

/// Adaptive-quality state: the published counters plus what the ladder
/// decides with (live only when [`ServeConfig::lod`] is set; stays empty
/// otherwise).
#[derive(Debug, Default)]
struct LodState {
    counters: LodCounters,
    /// Rolling per-scene ms/frame estimates, one model per thread count a
    /// frame rendered on: a cost measured on two threads must not price a
    /// one-thread frame.
    cost: HashMap<usize, CostModel>,
    /// Last rung each scene dispatched at, for transition counting.
    last_rung: HashMap<String, usize>,
}

impl LodState {
    fn record(&mut self, scene: &str, ladder_len: usize, decision: LodDecision) {
        let c = &mut self.counters;
        if c.frames_by_rung.len() < ladder_len {
            c.frames_by_rung.resize(ladder_len, 0);
        }
        let rung = decision.rung as usize;
        c.frames_by_rung[rung] += 1;
        if rung > 0 {
            c.degraded_frames += 1;
        }
        match self.last_rung.insert(scene.to_string(), rung) {
            Some(prev) if rung > prev => c.degradations += 1,
            Some(prev) if rung < prev => c.recoveries += 1,
            _ => {}
        }
        if c.recent.len() == LOD_TRACE_WINDOW {
            c.recent.remove(0);
        }
        c.recent.push(decision);
    }
}

/// All coordination state, behind the one service mutex.
#[derive(Debug)]
struct State {
    cache: LruSceneCache,
    /// Per-key FIFO of issued frames. Invariant: a key exists here iff
    /// it is in `order` (queues are removed when drained empty).
    queues: HashMap<BatchKey, VecDeque<Pending>>,
    /// Batch keys with pending frames, in FIFO turn order (the
    /// within-class fairness tiebreaker).
    order: VecDeque<BatchKey>,
    /// Open streams by id (removed on completion / cancel / failure).
    streams: HashMap<u64, StreamSched>,
    /// Scenes currently being loaded by some worker.
    loading: HashSet<String>,
    /// Load circuit breaker: scene id → quarantine expiry. A request for
    /// a listed scene fails fast with [`ServeError::Quarantined`] until
    /// the expiry passes; the first request after it removes the entry
    /// and proceeds as the half-open probe.
    quarantine: HashMap<String, Instant>,
    next_stream_id: u64,
    shutdown: bool,
    stats: Ledger,
    lod: LodState,
}

/// What a worker decided to do while holding the lock.
enum Job {
    Render {
        key: BatchKey,
        scene: Arc<Scene>,
        batch: Vec<Pending>,
    },
    Load {
        id: String,
    },
}

/// Pops up to `max` frames for `key` and repairs the `order`/`queues`
/// invariant (remove when drained empty, rotate to the back otherwise).
fn take_batch(st: &mut State, key: &BatchKey, max: usize) -> Vec<Pending> {
    let Some(q) = st.queues.get_mut(key) else {
        return Vec::new();
    };
    let batch: Vec<Pending> = q.drain(..max.min(q.len())).collect();
    let emptied = q.is_empty();
    st.stats.class(key.priority).queued -= batch.len();
    st.order.retain(|o| o != key);
    if emptied {
        st.queues.remove(key);
    } else {
        st.order.push_back(key.clone());
    }
    batch
}

/// Drains *every* queue whose key `sweep` accepts, across schedules,
/// resolutions and priorities — the load-failure and shutdown sweeps.
fn take_where(st: &mut State, sweep: impl Fn(&BatchKey) -> bool) -> Vec<Pending> {
    let keys: Vec<BatchKey> = st.queues.keys().filter(|k| sweep(k)).cloned().collect();
    keys.iter()
        .flat_map(|key| take_batch(st, key, usize::MAX))
        .collect()
}

/// The one way undelivered frames fail (a load that failed or panicked,
/// a renderer panic, shutdown): counts them completed, forgets their
/// streams, and returns the forgotten streams' inboxes to fail once the
/// lock is released. Only streams with a frame in `frames` fail — a
/// stream on a failed scene caught *between* windows (everything issued
/// already delivered, refill not yet called) survives and retries the
/// load on its next refill; it fails here only if the retry fails too.
fn fail_frames(st: &mut State, frames: impl IntoIterator<Item = Pending>) -> Vec<Arc<Inbox>> {
    let mut inboxes = Vec::new();
    for p in frames {
        st.stats.class(p.priority).completed += 1;
        if st.streams.remove(&p.stream).is_some() {
            inboxes.push(p.inbox);
        }
    }
    inboxes
}

/// Materializes up to `window` undelivered frames of stream `id` into
/// its key queue. Returns how many frames were issued (0 after shutdown
/// or for an unknown/complete stream). The caller owns notifying the
/// workers.
fn issue_frames(st: &mut State, id: u64, now: Instant) -> usize {
    if st.shutdown {
        return 0;
    }
    let Some(s) = st.streams.get_mut(&id) else {
        return 0;
    };
    let mut items: Vec<(ViewSpec, usize)> = Vec::new();
    while s.issued < s.views.len() && s.issued - s.delivered < s.window {
        items.push((s.views[s.issued].clone(), s.issued));
        s.issued += 1;
    }
    if items.is_empty() {
        return 0;
    }
    let key = s.key.clone();
    let options = Arc::clone(&s.options);
    let inbox = Arc::clone(&s.inbox);
    let deadline = s.deadline;
    let n = items.len();
    // Hit/miss classification is per *issued* frame, at issue time — a
    // long stream opened cold counts one window of misses, then hits
    // once its scene is resident (and misses again if it gets evicted
    // mid-stream), so `hit_rate` tracks actual cache behavior instead of
    // attributing a whole stream to its open-time residency.
    let resident = st.cache.contains(&key.scene);
    let sc = st.stats.scene(&key.scene);
    if resident {
        sc.hits += n as u64;
    } else {
        sc.misses += n as u64;
    }
    if !st.queues.contains_key(&key) {
        st.order.push_back(key.clone());
    }
    let q = st.queues.entry(key.clone()).or_default();
    for (view, index) in items {
        q.push_back(Pending {
            view,
            options: Arc::clone(&options),
            submitted: now,
            deadline: deadline.map(|d| now + d),
            priority: key.priority,
            stream: id,
            index,
            inbox: Arc::clone(&inbox),
        });
    }
    let class = st.stats.class(key.priority);
    class.queued += n;
    class.max_queued = class.max_queued.max(class.queued);
    st.stats.max_queue_depth = st.stats.max_queue_depth.max(st.stats.queued());
    n
}

/// The dispatch rank: of the keys `admit` accepts, the best by
/// `(priority, earliest head deadline, FIFO turn)`. `Interactive` always
/// preempts `Bulk`; within a class, earliest-deadline-first, and a
/// deadline is a claim of urgency: *any* deadline outranks deadline-free
/// work of the same class (so a saturating deadline-carrying load can
/// starve deadline-free peers, exactly as interactive can starve bulk —
/// latency promises are ordered ahead of best-effort work). The FIFO turn
/// only tiebreaks keys of equal priority and deadline standing.
fn best_key(st: &State, admit: impl Fn(&BatchKey) -> bool) -> Option<BatchKey> {
    st.order
        .iter()
        .enumerate()
        .filter(|(_, key)| admit(key))
        .min_by_key(|(turn, key)| {
            let head = st.queues.get(*key).and_then(|q| q.front()?.deadline);
            (key.priority, head.is_none(), head, *turn)
        })
        .map(|(_, key)| key.clone())
}

/// Takes up to `max` frames of `key` (a key of `order`, so never none)
/// for a worker to render, counting the batch under the lock it is taken
/// with.
fn drain_batch(st: &mut State, key: &BatchKey, max: usize) -> Vec<Pending> {
    st.stats.scene(&key.scene).batches += 1;
    st.stats.schedule(key.schedule).batches += 1;
    take_batch(st, key, max)
}

/// Picks the next job: the best *actionable* key ([`best_key`]) — scene
/// resident (drain a batch) or cold and unclaimed (load it). Returns
/// `None` when every pending scene is being loaded elsewhere.
fn plan(st: &mut State, max_batch: usize) -> Option<Job> {
    let key = best_key(st, |k| {
        st.cache.contains(&k.scene) || !st.loading.contains(&k.scene)
    })?;
    if let Some(scene) = st.cache.get(&key.scene) {
        let batch = drain_batch(st, &key, max_batch);
        return Some(Job::Render { key, scene, batch });
    }
    st.loading.insert(key.scene.clone());
    // Move the claimed key to the back so other keys get turns while
    // the load is in flight.
    st.order.retain(|k| k != &key);
    st.order.push_back(key.clone());
    Some(Job::Load { id: key.scene })
}

pub(crate) struct Shared {
    pub(crate) registry: HashMap<String, SceneSource>,
    renderers: ScheduleRenderers,
    max_batch: usize,
    load_retry: RetryPolicy,
    quarantine_for: Duration,
    shed: ShedPolicy,
    lod: Option<LodPolicy>,
    state: Mutex<State>,
    work: Condvar,
}

impl Shared {
    /// Opens a stream of `session` over `views`, which the caller
    /// validated; the session's scene id and options were validated when
    /// it opened. Primes the window and wakes workers.
    pub(crate) fn open_stream(
        session: &Session,
        views: Vec<ViewSpec>,
        cfg: StreamConfig,
    ) -> Result<FrameStream, ServeError> {
        let shared = &session.shared;
        let scene = session.scene.as_str();
        let total = views.len();
        debug_assert!(total > 0, "callers reject empty view lists");
        let key = BatchKey {
            scene: scene.to_string(),
            schedule: session.defaults.schedule,
            resolution: session.defaults.resolution,
            priority: cfg.priority,
        };
        let inbox = Inbox::new(total);
        let mut st = shared.state.lock().expect("service state poisoned");
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        // Circuit breaker: a quarantined scene fails fast instead of
        // queueing work a known-bad load would sweep anyway. The first
        // request past the expiry removes the entry and proceeds — the
        // half-open probe (the `loading` guard already serializes
        // concurrent probes into one load).
        if let Some(&until) = st.quarantine.get(scene) {
            let now = Instant::now();
            if now < until {
                return Err(ServeError::Quarantined {
                    scene: scene.to_string(),
                    retry_after: until - now,
                });
            }
            st.quarantine.remove(scene);
        }
        // Admission control: hard ceilings shed everything; past the
        // Bulk watermarks best-effort traffic is rejected first while
        // Interactive still admits.
        let shed = &shared.shed;
        let (queued, streams) = (st.stats.queued(), st.streams.len());
        if queued >= shed.max_queue_depth || streams >= shed.max_streams {
            st.stats.class(cfg.priority).shed += 1;
            // The hint reflects the worse of the two ceilings: the side
            // that did not fire contributes the base hint, so `max` picks
            // the overshoot that actually caused the shed.
            let retry_after = shed
                .retry_hint(queued, shed.max_queue_depth)
                .max(shed.retry_hint(streams, shed.max_streams));
            return Err(ServeError::Overloaded { retry_after });
        }
        let bulk_queued = st.stats.class(Priority::Bulk).queued;
        if cfg.priority == Priority::Bulk
            && (bulk_queued >= shed.bulk_queue_watermark || streams >= shed.bulk_stream_watermark)
        {
            st.stats.class(Priority::Bulk).rejected += 1;
            let retry_after = shed
                .retry_hint(bulk_queued, shed.bulk_queue_watermark)
                .max(shed.retry_hint(streams, shed.bulk_stream_watermark));
            return Err(ServeError::Overloaded { retry_after });
        }
        let id = st.next_stream_id;
        st.next_stream_id += 1;
        st.stats.scene(scene).requests += total as u64;
        st.stats.schedule(key.schedule).requests += total as u64;
        st.stats.class(cfg.priority).requests += total as u64;
        st.stats.streams.opened += 1;
        st.streams.insert(
            id,
            StreamSched {
                key,
                views,
                options: Arc::new(session.defaults.clone()),
                deadline: cfg.deadline,
                window: cfg.effective_window(),
                issued: 0,
                delivered: 0,
                inbox: Arc::clone(&inbox),
            },
        );
        let issued = issue_frames(&mut st, id, Instant::now());
        drop(st);
        if issued == 1 {
            shared.work.notify_one();
        } else if issued > 1 {
            shared.work.notify_all();
        }
        Ok(FrameStream {
            shared: Arc::clone(shared),
            id,
            inbox,
            total,
            finished: false,
        })
    }

    /// Client-side window refill: records the consumer's progress and
    /// issues the frames the freed window slots admit. Removes the
    /// stream's scheduling entry (and counts it completed) once every
    /// frame was delivered.
    pub(crate) fn refill_stream(&self, id: u64, delivered: usize) {
        let mut st = self.state.lock().expect("service state poisoned");
        let done = {
            let Some(s) = st.streams.get_mut(&id) else {
                return;
            };
            s.delivered = s.delivered.max(delivered);
            s.delivered >= s.views.len()
        };
        if done {
            st.streams.remove(&id);
            st.stats.streams.completed += 1;
            return;
        }
        let issued = issue_frames(&mut st, id, Instant::now());
        drop(st);
        if issued > 0 {
            self.work.notify_one();
        }
    }

    /// Client-side cancellation: discards the stream's queued frames,
    /// forgets its scheduling entry (so nothing further is issued), and
    /// wakes the workers — removing work can be the event that satisfies
    /// the shutdown drain condition.
    pub(crate) fn cancel_stream(&self, id: u64) {
        let mut st = self.state.lock().expect("service state poisoned");
        let Some(s) = st.streams.remove(&id) else {
            return;
        };
        let mut discarded = 0usize;
        if let Some(q) = st.queues.get_mut(&s.key) {
            let before = q.len();
            q.retain(|p| p.stream != id);
            discarded = before - q.len();
            if q.is_empty() {
                st.queues.remove(&s.key);
                st.order.retain(|k| k != &s.key);
            }
        }
        st.stats.class(s.key.priority).queued -= discarded;
        st.stats.streams.cancelled += 1;
        st.stats.streams.frames_discarded += discarded as u64;
        drop(st);
        self.work.notify_all();
    }

    fn step(&self, scratch: &mut FrameScratch) -> WorkerStep {
        let mut st = self.state.lock().expect("service state poisoned");
        loop {
            if let Some(job) = plan(&mut st, self.max_batch) {
                drop(st);
                match job {
                    Job::Render { key, scene, batch } => {
                        self.render_batch(&key, &scene, batch, scratch);
                    }
                    Job::Load { id } => self.load_then_drain(&id, scratch),
                }
                return WorkerStep::Continue;
            }
            if st.shutdown && st.stats.queued() == 0 && st.loading.is_empty() {
                // Wake siblings so they observe the drained shutdown too.
                self.work.notify_all();
                return WorkerStep::Stop;
            }
            st = self.work.wait(st).expect("service state poisoned");
        }
    }

    /// Renders a drained batch back-to-back through this worker's
    /// scratch, with the key's schedule renderer. Statistics are folded
    /// in *before* any result is delivered, so a completed frame is
    /// always visible in the next `stats()` snapshot. A renderer panic
    /// must not strand consumers: a drop guard fails the batch's
    /// undelivered frames before the panic unwinds the worker.
    fn render_batch(
        &self,
        key: &BatchKey,
        scene: &Scene,
        batch: Vec<Pending>,
        scratch: &mut FrameScratch,
    ) {
        /// Holds the batch's undelivered frames, and fails them through
        /// [`fail_frames`] if it drops with any left (a renderer panic).
        /// It blocks on the state lock: declared before every state guard
        /// of `render_batch`, it drops after unwinding released them, so
        /// the lock is never this thread's own — and on poison it takes
        /// the inner value, as the streams must still be failed.
        struct PanicGuard<'a> {
            shared: &'a Shared,
            batch: VecDeque<Pending>,
        }
        impl Drop for PanicGuard<'_> {
            fn drop(&mut self) {
                if self.batch.is_empty() {
                    return;
                }
                let mut st = self
                    .shared
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let inboxes = fail_frames(&mut st, self.batch.drain(..));
                drop(st);
                for inbox in inboxes {
                    inbox.fail(ServeError::WorkerPanicked);
                }
            }
        }

        let renderer = self.renderers.get(key.schedule);
        let loan = lend();
        let mut guard = PanicGuard {
            shared: self,
            batch: batch.into(),
        };
        // Each frame is delivered (and its latency sampled) as soon as it
        // renders — a consumer never sits behind the rest of its batch,
        // and the published latency is issue-to-delivery. Its stats are
        // folded under a brief lock *before* the inbox is filled, so a
        // consumed frame is always visible in the next `stats()`
        // snapshot.
        while let Some(p) = guard.batch.front() {
            // Read once per frame: the count the frame renders on is the
            // count the ladder prices it at and files its cost under.
            let threads = loan.threads();
            // Adaptive quality: a deadline-carrying frame under a
            // configured ladder asks the cost model of its thread count
            // for the best rung whose measured cost (with the policy
            // margin) fits its remaining budget, or a probe one step above
            // it. Deadline-free frames — and every frame when no ladder is
            // configured — render exactly as before.
            let target = p.options.resolution.unwrap_or(scene.resolution);
            let lod_pick = match (&self.lod, p.deadline) {
                (Some(policy), Some(deadline)) => {
                    let budget = deadline.saturating_duration_since(Instant::now());
                    let budget_ms = budget.as_secs_f64() * 1e3;
                    let st = self.state.lock().expect("service state poisoned");
                    let (rung, predicted) = match st.lod.cost.get(&threads) {
                        Some(cost) => {
                            let rung = cost.select_rung(
                                &policy.ladder,
                                &key.scene,
                                target,
                                budget_ms,
                                policy.margin,
                            );
                            (rung, cost.predict(&key.scene, rung, target))
                        }
                        None => (policy.ladder.floor(), None),
                    };
                    Some((rung, predicted, budget))
                }
                _ => None,
            };
            let rung_spec = match (&self.lod, &lod_pick) {
                (Some(policy), Some((rung, _, _))) => Some(&policy.ladder.rungs()[*rung]),
                _ => None,
            };
            let options = match rung_spec {
                Some(rung) if rung.degrades() => Arc::new(rung.apply(&p.options, target)),
                _ => Arc::clone(&p.options),
            };
            let render_start = Instant::now();
            // Residual validation that needed the scene: ROI bounds
            // against the native resolution. Fails the one frame with a
            // typed error instead of poisoning the worker; the stream
            // continues (later frames fail the same way, each in order).
            let result = scene.resolve_view(&p.view, &options).map(|cam| {
                // Degraded rungs render from a coarser hierarchy level
                // when the scene ships one (missing hierarchies fall back
                // to the full cloud — cheaper knobs still apply).
                let gaussians = match rung_spec {
                    Some(rung) if rung.lod_level > 0 => {
                        scene.lod.as_ref().map_or(&scene.gaussians[..], |l| {
                            l.level_gaussians(&scene.gaussians, rung.lod_level)
                        })
                    }
                    _ => &scene.gaussians[..],
                };
                let mut job = RenderJob::with_options(gaussians, &cam, (*options).clone());
                if threads > 1 {
                    job = job.with_parallelism(Parallelism::fixed(threads));
                }
                let mut frame = renderer.render_job(&job, scratch);
                // Reduced-resolution frames are upscaled back to the
                // request size with the filtered upscale pass, so a client
                // always receives the geometry it asked for.
                if (frame.image.width(), frame.image.height()) != target && p.options.roi.is_none()
                {
                    frame.image = upscale_bilinear(&frame.image, target.0, target.1);
                }
                frame
            });
            let render_us = render_start.elapsed().as_micros() as u64;
            let us = p.submitted.elapsed().as_micros() as u64;
            let missed = p.deadline.is_some_and(|d| Instant::now() > d);
            let mut st = self.state.lock().expect("service state poisoned");
            st.stats.class(p.priority).completed += 1;
            if let Ok(frame) = &result {
                if let Some(policy) = &self.lod {
                    // ROI frames skip cost observation — a cropped
                    // render's cost would mislabel the rung's full-frame
                    // cell. Frames whose caller already reduced quality
                    // (SH clamp, alpha floor) skip it too: they render
                    // cheaper than the rung does, and observing them
                    // would skew the cell optimistic — rung 0 especially,
                    // where every deadline-free frame lands regardless of
                    // its options.
                    let caller_reduced = p.options.sh_degree.is_some_and(|d| d < 3)
                        || p.options.alpha_min.is_some_and(|a| a > 0.0);
                    if p.options.roi.is_none() && !caller_reduced {
                        let rung = lod_pick.map_or(0, |(r, _, _)| r);
                        st.lod.cost.entry(threads).or_default().observe(
                            &key.scene,
                            rung,
                            target,
                            render_us as f64 / 1e3,
                        );
                    }
                    if let Some((rung, predicted, budget)) = lod_pick {
                        st.lod.record(
                            &key.scene,
                            policy.ladder.len(),
                            LodDecision {
                                rung: rung as u32,
                                predicted_us: predicted.map_or(0, |ms| (ms * 1e3) as u64),
                                actual_us: render_us,
                                budget_us: budget.as_micros() as u64,
                                missed,
                            },
                        );
                    }
                }
                st.stats.frame_stats.merge_add(&frame.stats);
                st.stats.scene(&key.scene).frames += 1;
                st.stats.schedule(key.schedule).frames += 1;
                let class = &mut st.stats.classes[p.priority.index()];
                class.counters.frames += 1;
                class.record_latency(us);
                if p.deadline.is_some() {
                    class.counters.with_deadline += 1;
                    if missed {
                        class.counters.deadline_misses += 1;
                    }
                }
            }
            drop(st);
            let p = guard.batch.pop_front().expect("the frame just rendered");
            p.inbox
                .deliver(p.index, result.map_err(ServeError::InvalidRequest));
        }
    }

    /// One attempt at a cold scene, start to finish and under one loan:
    /// the source's load, then — under a ladder, for a scene without a
    /// hierarchy (only a `Memory` source can hand over one) — the
    /// hierarchy build, each on the
    /// threads lent at the moment it starts. Lock-free CPU and I/O
    /// work on a scene no consumer shares yet; the hierarchy's bytes are
    /// charged to the cache budget on insert.
    fn load_scene(&self, source: &SceneSource) -> Result<Arc<Scene>, LoadError> {
        let loan = lend();
        let mut scene = source.load_on(loan.threads())?;
        if let (Some(policy), None) = (&self.lod, &scene.lod) {
            // Any thread count builds the same hierarchy, so the policy's
            // own count gives way to what is idle right now.
            let cfg = HierarchyConfig {
                threads: loan.threads(),
                ..policy.hierarchy
            };
            attach_hierarchy(Arc::make_mut(&mut scene), &cfg);
        }
        Ok(scene)
    }

    /// A load that failed or panicked: trips the scene's breaker (so
    /// requests until the expiry fail fast instead of re-stalling a
    /// loader on a known-bad source) and fails every stream with a frame
    /// queued on the scene with `err`.
    fn fail_load(&self, mut st: MutexGuard<'_, State>, id: &str, err: ServeError) {
        if self.quarantine_for > Duration::ZERO {
            st.quarantine
                .insert(id.to_string(), Instant::now() + self.quarantine_for);
            st.stats.scene(id).quarantines += 1;
        }
        let frames = take_where(&mut st, |k| k.scene == id);
        let inboxes = fail_frames(&mut st, frames);
        drop(st);
        self.work.notify_all();
        for inbox in inboxes {
            inbox.fail(err.clone());
        }
    }

    /// Loads a claimed cold scene with no lock held, inserts it (evicting
    /// under the budget), then drains the best waiting batch itself.
    fn load_then_drain(&self, id: &str, scratch: &mut FrameScratch) {
        /// A panic inside [`Shared::load_scene`] must not wedge the
        /// service: the claimed `loading` entry would otherwise never
        /// clear, making the shutdown condition unsatisfiable and
        /// stranding every stream waiting on this scene. Armed only
        /// around the lock-free load call, so the blocking re-lock in
        /// `drop` cannot self-deadlock. By the time it runs the unwinding
        /// load has already given its core back.
        struct LoadGuard<'a> {
            shared: &'a Shared,
            id: &'a str,
            armed: bool,
        }
        impl Drop for LoadGuard<'_> {
            fn drop(&mut self) {
                if !self.armed || !std::thread::panicking() {
                    return;
                }
                let mut st = self
                    .shared
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                st.loading.remove(self.id);
                // A panicking load is at least as suspect as a failing
                // one: the quarantine keeps repeat requests from
                // panicking loader workers.
                self.shared
                    .fail_load(st, self.id, ServeError::WorkerPanicked);
            }
        }

        let source = self
            .registry
            .get(id)
            .expect("the session validated the scene id");
        let mut guard = LoadGuard {
            shared: self,
            id,
            armed: false,
        };
        // Bounded retry loop: only *retryable* failures re-attempt, with
        // the policy's deterministic backoff, no lock held while loading
        // or sleeping. Fatal failures (and exhausted budgets) fall
        // through to the quarantine + fan-out path below.
        let mut attempt = 0u32;
        let loaded = loop {
            attempt += 1;
            guard.armed = true;
            let result = self.load_scene(source);
            guard.armed = false;
            match result {
                Ok(scene) => break Ok(scene),
                Err(e) if e.retryable => match self.load_retry.backoff_for(attempt) {
                    Some(backoff) => {
                        let shutting_down = {
                            let mut st = self.state.lock().expect("service state poisoned");
                            st.stats.scene(id).retries += 1;
                            st.shutdown
                        };
                        if shutting_down {
                            // Don't hold the drain hostage to backoff.
                            break Err(e);
                        }
                        std::thread::sleep(backoff);
                    }
                    None => break Err(e),
                },
                Err(e) => break Err(e),
            }
        };
        let mut st = self.state.lock().expect("service state poisoned");
        st.loading.remove(id);
        let scene = match loaded {
            Ok(scene) => scene,
            Err(e) => {
                let err = ServeError::Load {
                    scene: id.to_string(),
                    message: e.message,
                };
                return self.fail_load(st, id, err);
            }
        };
        st.stats.scene(id).loads += 1;
        let evicted = st.cache.insert(id, Arc::clone(&scene));
        for victim in evicted {
            st.stats.scene(&victim).evictions += 1;
        }
        // Drain the best waiting batch of this scene (any schedule /
        // resolution key) by the same rank as `plan`, so the first
        // post-load batch honors the dispatch contract — while the
        // residency makes the remaining keys drainable by every worker.
        let drained = best_key(&st, |k| k.scene == id).map(|key| {
            let batch = drain_batch(&mut st, &key, self.max_batch);
            (key, batch)
        });
        drop(st);
        // The scene may now be resident and the queue changed — wake
        // everyone blocked on "all pending scenes loading".
        self.work.notify_all();
        if let Some((key, batch)) = drained {
            self.render_batch(&key, &scene, batch, scratch);
        }
    }
}

/// The multi-scene render service. See the [crate docs](crate) for the
/// request model and the scheduling model; [`crate::session`] documents
/// the stream API.
pub struct RenderService {
    shared: Arc<Shared>,
    workers: usize,
    pool: Option<WorkerPool>,
    /// Supervision counters, retained past the pool's join so the final
    /// [`Self::stats`] snapshot still reports respawns.
    health: Arc<PoolHealth>,
}

impl std::fmt::Debug for RenderService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RenderService")
            .field("workers", &self.workers)
            .field("scenes", &self.shared.registry.len())
            .finish_non_exhaustive()
    }
}

impl RenderService {
    /// Starts the worker pool over `registry` (scene id → source) with
    /// the default per-[`Schedule`] renderer table
    /// ([`ScheduleRenderers::default`]: every schedule, sequential).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.max_batch` is zero.
    pub fn new(
        cfg: ServeConfig,
        registry: impl IntoIterator<Item = (String, SceneSource)>,
    ) -> Self {
        Self::with_renderers(cfg, registry, ScheduleRenderers::default())
    }

    /// [`Self::new`] with an explicit renderer table — swap in parallel
    /// renderers when single-request latency matters more than aggregate
    /// rate, or custom configurations.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.max_batch` is zero.
    pub fn with_renderers(
        cfg: ServeConfig,
        registry: impl IntoIterator<Item = (String, SceneSource)>,
        renderers: ScheduleRenderers,
    ) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let workers = if cfg.workers == 0 {
            available_threads()
        } else {
            cfg.workers
        };
        let lod = LodState {
            counters: LodCounters {
                enabled: cfg.lod.is_some(),
                ..LodCounters::default()
            },
            ..LodState::default()
        };
        let shared = Arc::new(Shared {
            registry: registry.into_iter().collect(),
            renderers,
            max_batch: cfg.max_batch,
            load_retry: cfg.load_retry,
            quarantine_for: cfg.quarantine_for,
            shed: cfg.shed,
            lod: cfg.lod,
            state: Mutex::new(State {
                cache: LruSceneCache::new(cfg.cache_budget_bytes),
                queues: HashMap::new(),
                order: VecDeque::new(),
                streams: HashMap::new(),
                loading: HashSet::new(),
                quarantine: HashMap::new(),
                next_stream_id: 0,
                shutdown: false,
                stats: Ledger::default(),
                lod,
            }),
            work: Condvar::new(),
        });
        let pool_shared = Arc::clone(&shared);
        // Supervised: a panicked worker (renderer or load panic) is
        // respawned with a fresh scratch within `cfg.restart`'s budget,
        // so the pool keeps its configured width under fault storms. The
        // panicked batch itself resolves through the step's own guards
        // (PanicGuard / LoadGuard) before the respawn.
        let pool = WorkerPool::spawn_supervised(
            workers,
            FrameScratch::new,
            move |_, scratch| pool_shared.step(scratch),
            cfg.restart,
        );
        let health = pool.health();
        Self {
            shared,
            workers,
            pool: Some(pool),
            health,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scene ids this service can render, sorted.
    pub fn scene_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.shared.registry.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Opens a [`Session`] on `scene`: the handle streams and single
    /// frames are submitted through, all sharing `defaults`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownScene`] for an unregistered id and
    /// [`ServeError::InvalidRequest`] for invalid default options
    /// (zero-sized ROI, out-of-range quality knobs — and, when a
    /// resolution override names the frame size, ROI bounds; against a
    /// native resolution those resolve per frame).
    pub fn session(
        &self,
        scene: impl Into<String>,
        defaults: RenderOptions,
    ) -> Result<Session, ServeError> {
        let scene = scene.into();
        if !self.shared.registry.contains_key(&scene) {
            return Err(ServeError::UnknownScene(scene));
        }
        match defaults.resolution {
            Some((w, h)) => defaults.validate_for(w, h),
            None => defaults.validate(),
        }
        .map_err(|e| ServeError::InvalidRequest(ViewError::Options(e)))?;
        Ok(Session {
            shared: Arc::clone(&self.shared),
            scene,
            defaults,
        })
    }

    /// Snapshot of the serving statistics: the ledger cloned, then
    /// filled in with queue depths, cache residency, pool health,
    /// quarantines and latency percentiles. The percentile sorts (up to
    /// both full latency windows) run *after* the service lock is
    /// released, so a periodic metrics poll doesn't stall the scheduler.
    pub fn stats(&self) -> ServeStats {
        let st = self.shared.state.lock().expect("service state poisoned");
        let now = Instant::now();
        let mut out = ServeStats {
            per_scene: st.stats.per_scene.clone(),
            per_schedule: st.stats.per_schedule.clone(),
            streams: st.stats.streams,
            max_queue_depth: st.stats.max_queue_depth,
            frame_stats: st.stats.frame_stats,
            resident_bytes: st.cache.resident_bytes(),
            resident_scenes: st.cache.len(),
            respawns: self.health.restarts(),
            lost_workers: self.health.failed_workers(),
            quarantined_scenes: st.quarantine.values().filter(|&&until| until > now).count(),
            lod: st.lod.counters.clone(),
            ..ServeStats::default()
        };
        let classes: Vec<(Priority, PriorityCounters, Vec<u64>)> = Priority::ALL
            .into_iter()
            .zip(&st.stats.classes)
            .filter(|(_, c)| {
                let p = &c.counters;
                p.requests + p.completed + p.rejected + p.shed > 0
            })
            .map(|(priority, c)| (priority, c.counters, c.latencies_us.clone()))
            .collect();
        drop(st);
        let mut merged: Vec<u64> = Vec::new();
        for (priority, mut counters, mut ring) in classes {
            ring.sort_unstable();
            counters.latency_p50_ms = percentile_us(&ring, 0.50);
            counters.latency_p95_ms = percentile_us(&ring, 0.95);
            merged.extend_from_slice(&ring);
            out.completed += counters.completed;
            out.frames += counters.frames;
            out.queue_depth += counters.queued;
            out.per_priority.insert(priority, counters);
        }
        merged.sort_unstable();
        out.latency_p50_ms = percentile_us(&merged, 0.50);
        out.latency_p95_ms = percentile_us(&merged, 0.95);
        out.batches = out.per_schedule.values().map(|s| s.batches).sum();
        out
    }

    /// Graceful shutdown: stops accepting new requests and streams,
    /// drains every *issued* frame, joins the workers, and returns the
    /// final statistics. Streams still holding unissued frames (and any
    /// request the workers could no longer serve, e.g. because a worker
    /// panicked earlier) resolve with [`ServeError::ShuttingDown`] rather
    /// than leaving their consumers blocked forever.
    pub fn shutdown(mut self) -> ServeStats {
        self.finish();
        self.stats()
    }

    fn finish(&mut self) {
        let Some(pool) = self.pool.take() else {
            return;
        };
        self.shared
            .state
            .lock()
            .expect("service state poisoned")
            .shutdown = true;
        self.shared.work.notify_all();
        // A worker that panicked earlier re-raises here; catch it so the
        // leftover sweep below always runs, then re-raise.
        let join = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.join()));
        // The drain-to-zero shutdown path leaves no queued frames behind,
        // but dead workers do, and in-flight streams keep unissued frames
        // either way: terminal-fail them all so no consumer blocks past
        // shutdown. (Streams whose every frame already rendered deliver
        // those frames first — the terminal only surfaces at a gap.)
        let inboxes = {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.loading.clear();
            let leftovers = take_where(&mut st, |_| true);
            let mut inboxes = fail_frames(&mut st, leftovers);
            inboxes.extend(st.streams.drain().map(|(_, s)| s.inbox));
            inboxes
        };
        for inbox in inboxes {
            inbox.fail(ServeError::ShuttingDown);
        }
        // A pool panic here means a worker died past the restart budget.
        // Every stream has already been resolved with a terminal error
        // above, so downgrade to a log line instead of re-panicking:
        // `finish` also runs from Drop, where a second panic while
        // unwinding would abort the whole process.
        if join.is_err() {
            eprintln!(
                "gcc-serve: a render worker died past its restart budget \
                 ({} respawns, {} failed); all streams were resolved with \
                 terminal errors before shutdown",
                self.health.restarts(),
                self.health.failed_workers()
            );
        }
    }
}

impl Drop for RenderService {
    /// Dropping the service performs the same graceful drain as
    /// [`Self::shutdown`].
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_render::pipeline::{Roi, StandardRenderer};
    use gcc_scene::{SceneConfig, ScenePreset};
    use std::sync::atomic::{AtomicUsize, Ordering};

    mod ledger {
        use crate as gcc_serve;
        include!("../../../tests/ledger/mod.rs");
    }
    use ledger::assert_ledger;

    /// One frame of `scene` at trajectory `t`, default options.
    fn submit(service: &RenderService, scene: &str, t: f32) -> Result<RenderHandle, ServeError> {
        service
            .session(scene, RenderOptions::default())?
            .submit(ViewSpec::trajectory(t))
    }

    fn mem_source(preset: ScenePreset, scale: f32) -> (Arc<Scene>, SceneSource) {
        let scene = Arc::new(preset.build(&SceneConfig::with_scale(scale)));
        (Arc::clone(&scene), SceneSource::Memory(scene))
    }

    fn registry(scale: f32) -> (Vec<Arc<Scene>>, Vec<(String, SceneSource)>) {
        let mut scenes = Vec::new();
        let mut reg = Vec::new();
        for (id, preset) in [("lego", ScenePreset::Lego), ("palace", ScenePreset::Palace)] {
            let (scene, src) = mem_source(preset, scale);
            scenes.push(scene);
            reg.push((id.to_string(), src));
        }
        (scenes, reg)
    }

    #[test]
    fn served_frames_match_direct_renders() {
        let (scenes, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            },
            reg,
        );
        let reqs: Vec<(usize, f32)> = (0..6).map(|i| (i % 2, i as f32 / 6.0)).collect();
        let handles: Vec<RenderHandle> = reqs
            .iter()
            .map(|&(s, t)| submit(&service, ["lego", "palace"][s], t).unwrap())
            .collect();
        let direct = StandardRenderer::default();
        for (&(s, t), handle) in reqs.iter().zip(handles) {
            let frame = handle.wait().unwrap();
            let cam = scenes[s]
                .resolve_view(&ViewSpec::trajectory(t), &RenderOptions::default())
                .unwrap();
            let want = direct.render_frame(&scenes[s].gaussians, &cam);
            assert_eq!(frame.image, want.image, "scene {s} t {t}");
            assert_eq!(frame.stats, want.stats);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.max_queue_depth >= 1);
        assert!(stats.latency_p95_ms >= stats.latency_p50_ms);
        assert_eq!(
            stats.frame_stats.total_gaussians,
            3 * (scenes[0].len() as u64 + scenes[1].len() as u64)
        );
        // Everything ran through the default schedule at interactive
        // priority, as one-frame streams.
        assert_eq!(stats.per_schedule[&Schedule::Standard].frames, 6);
        assert_eq!(stats.per_schedule[&Schedule::Standard].requests, 6);
        assert_eq!(stats.priority(Priority::Interactive).frames, 6);
        assert!(!stats.per_priority.contains_key(&Priority::Bulk));
        assert_eq!(stats.streams.opened, 6);
        assert_eq!(stats.streams.completed, 6);
        assert_eq!(stats.streams.cancelled, 0);
    }

    #[test]
    fn a_cold_load_on_lent_threads_leaves_the_scene_a_direct_build_is() {
        // Big enough that a second thread is worth it to both kinds of
        // source that have use for one: the preset's synthesis and the
        // JSON file's decode.
        let config = SceneConfig::with_scale(0.25);
        let built = ScenePreset::Lego.build_on(&config, 1);
        let dir = std::env::temp_dir().join(format!("gcc_serve_lent_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lego.json");
        gcc_scene::io::write_json_file(&built, &path).unwrap();
        let preset = SceneSource::Preset {
            preset: ScenePreset::Lego,
            scale: config.scale,
        };
        let reg = vec![
            ("preset".to_string(), preset),
            ("file".to_string(), SceneSource::File(path)),
        ];
        let service = RenderService::new(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            reg,
        );
        for id in ["preset", "file"] {
            // One request at a time: the other worker is idle, so on a
            // host with a second core the load is lent it.
            submit(&service, id, 0.0)
                .and_then(RenderHandle::wait)
                .unwrap();
            let resident = service.shared.state.lock().unwrap().cache.get(id).unwrap();
            assert_eq!(resident.name, built.name, "{id}");
            assert!(resident.gaussians == built.gaussians, "{id}");
            assert_eq!(resident.gaussians.capacity(), built.len(), "{id}");
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_scene_loads_once_and_hits_after_warmup() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        // Warm the scene, then issue classified-at-submit hits.
        submit(&service, "lego", 0.0)
            .and_then(RenderHandle::wait)
            .unwrap();
        for i in 0..4 {
            submit(&service, "lego", i as f32 / 4.0)
                .and_then(RenderHandle::wait)
                .unwrap();
        }
        let stats = service.shutdown();
        let lego = &stats.per_scene["lego"];
        assert_eq!(lego.loads, 1, "resident scene must not reload");
        assert_eq!(lego.misses, 1);
        assert_eq!(lego.hits, 4);
        assert_eq!(lego.frames, 5);
        assert_eq!(stats.resident_scenes, 1);
        assert!(stats.hit_rate() > 0.7);
    }

    #[test]
    fn zero_budget_is_load_render_evict_per_request() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                cache_budget_bytes: 0,
                max_batch: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        for i in 0..3 {
            submit(&service, "palace", i as f32 / 3.0)
                .and_then(RenderHandle::wait)
                .unwrap();
        }
        let stats = service.shutdown();
        let palace = &stats.per_scene["palace"];
        assert_eq!(palace.loads, 3, "naive mode reloads per request");
        assert_eq!(palace.hits, 0);
        assert_eq!(palace.evictions, 3);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.resident_scenes, 0);
    }

    #[test]
    fn unknown_scene_is_rejected_at_submit() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        let err = submit(&service, "nope", 0.0).unwrap_err();
        assert_eq!(err, ServeError::UnknownScene("nope".into()));
    }

    #[test]
    fn invalid_views_and_options_are_rejected_at_submit() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        // NaN trajectory parameter.
        let err = submit(&service, "lego", f32::NAN).unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidRequest(ViewError::NonFinite { field: "t" })
        ));
        // Out-of-range trajectory parameter.
        let err = submit(&service, "lego", 2.5).unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidRequest(ViewError::TrajectoryOutOfRange { .. })
        ));
        // Zero-sized ROI: options are checked when the session opens.
        let err = service
            .session(
                "lego",
                RenderOptions::default().with_roi(Roi::new(0, 0, 0, 8)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidRequest(ViewError::Options(gcc_render::JobError::EmptyRoi))
        ));
        // ROI out of bounds of an explicit resolution: caught at open.
        let err = service
            .session(
                "lego",
                RenderOptions::default()
                    .at_resolution(64, 64)
                    .with_roi(Roi::new(32, 32, 64, 64)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidRequest(ViewError::Options(
                gcc_render::JobError::RoiOutOfBounds { .. }
            ))
        ));
        // Degenerate pose.
        let eye = gcc_math::Vec3::new(1.0, 1.0, 1.0);
        let err = service
            .session("lego", RenderOptions::default())
            .unwrap()
            .submit(ViewSpec::look_at(eye, eye))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidRequest(ViewError::DegeneratePose)
        ));
        // Nothing reached a worker.
        let stats = service.shutdown();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.streams.opened, 0);
    }

    #[test]
    fn roi_against_native_resolution_resolves_through_the_handle() {
        // The scene's native size is unknown at submit; an ROI outside it
        // must come back as a typed error from wait(), not a worker panic.
        let (scenes, reg) = registry(0.02);
        let (w, h) = scenes[0].resolution;
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        let err = service
            .session(
                "lego",
                RenderOptions::default().with_roi(Roi::new(w - 1, h - 1, 8, 8)),
            )
            .unwrap()
            .render_blocking(ViewSpec::trajectory(0.2))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidRequest(ViewError::Options(
                gcc_render::JobError::RoiOutOfBounds { .. }
            ))
        ));
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.frames, 0, "no frame was rendered");
    }

    #[test]
    fn heterogeneous_schedules_split_batches_and_stats() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            reg,
        );
        let sessions = [Schedule::Gscore, Schedule::GccHardware].map(|s| {
            let options = RenderOptions::default().with_schedule(s);
            service.session("lego", options).unwrap()
        });
        let mut handles = Vec::new();
        for i in 0..4 {
            for session in &sessions {
                handles.push(
                    session
                        .submit(ViewSpec::trajectory(i as f32 / 4.0))
                        .unwrap(),
                );
            }
        }
        for h in handles {
            h.wait().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.frames, 8);
        assert_eq!(stats.per_schedule[&Schedule::Gscore].frames, 4);
        assert_eq!(stats.per_schedule[&Schedule::GccHardware].frames, 4);
        assert_eq!(stats.per_schedule[&Schedule::Gscore].requests, 4);
        assert!(stats.per_schedule[&Schedule::Gscore].batches >= 1);
        assert!(!stats.per_schedule.contains_key(&Schedule::Standard));
    }

    #[test]
    fn mixed_resolutions_coalesce_per_key() {
        // Same scene + schedule, two resolutions: batches never mix them
        // (each drained batch renders back-to-back at one size).
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        let small_session = service
            .session("lego", RenderOptions::default().at_resolution(64, 48))
            .unwrap();
        let mut handles = Vec::new();
        for i in 0..3 {
            let t = i as f32 / 3.0;
            handles.push(submit(&service, "lego", t).unwrap());
            handles.push(small_session.submit(ViewSpec::trajectory(t)).unwrap());
        }
        let mut native = 0;
        let mut small = 0;
        for h in handles {
            let frame = h.wait().unwrap();
            if frame.image.width() == 64 {
                small += 1;
            } else {
                native += 1;
            }
        }
        assert_eq!((native, small), (3, 3));
        service.shutdown();
    }

    #[test]
    fn load_failure_fans_out_to_every_waiter() {
        let service = RenderService::new(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            [(
                "ghost".to_string(),
                SceneSource::File("/nonexistent/ghost.bin".into()),
            )],
        );
        // The fatal load failure quarantines the scene the moment a
        // worker observes it, so a submit racing it may already be
        // rejected at admission — both outcomes are the breaker working.
        let mut handles: Vec<RenderHandle> = Vec::new();
        let mut rejected = 0u64;
        for i in 0..3 {
            match submit(&service, "ghost", i as f32 / 3.0) {
                Ok(h) => handles.push(h),
                Err(ServeError::Quarantined { scene, .. }) => {
                    assert_eq!(scene, "ghost");
                    rejected += 1;
                }
                Err(other) => panic!("expected admit or quarantine, got {other:?}"),
            }
        }
        let admitted = handles.len() as u64;
        assert!(admitted >= 1, "the first submit precedes any failure");
        for h in handles {
            match h.wait() {
                Err(ServeError::Load { scene, .. }) => assert_eq!(scene, "ghost"),
                other => panic!("expected load error, got {other:?}"),
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed + rejected, 3);
        assert_eq!(stats.completed, admitted);
        assert_eq!(stats.frames, 0);
        assert!(stats.quarantines() >= 1);
    }

    #[test]
    fn load_failure_fans_out_across_schedule_keys_too() {
        // Requests for the same dead scene under different schedules live
        // in different queues; the load failure must fail all of them.
        // Quarantine is disabled so every submit is admitted regardless
        // of how fast the first load fails.
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                quarantine_for: Duration::ZERO,
                ..ServeConfig::default()
            },
            [(
                "ghost".to_string(),
                SceneSource::File("/nonexistent/ghost.bin".into()),
            )],
        );
        let handles: Vec<RenderHandle> =
            [Schedule::Standard, Schedule::Gscore, Schedule::GccHardware]
                .into_iter()
                .map(|s| {
                    let options = RenderOptions::default().with_schedule(s);
                    let session = service.session("ghost", options).unwrap();
                    session.submit(ViewSpec::trajectory(0.1)).unwrap()
                })
                .collect();
        for h in handles {
            assert!(matches!(h.wait(), Err(ServeError::Load { .. })));
        }
        assert_eq!(service.shutdown().completed, 3);
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            reg,
        );
        let handles: Vec<RenderHandle> = (0..8)
            .map(|i| {
                submit(
                    &service,
                    if i % 2 == 0 { "lego" } else { "palace" },
                    i as f32 / 8.0,
                )
                .unwrap()
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.queue_depth, 0);
        for h in handles {
            assert!(h.is_ready());
            h.wait().unwrap();
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        // Flip the internal flag to emulate a shutdown in progress.
        service.shared.state.lock().unwrap().shutdown = true;
        let err = submit(&service, "lego", 0.0).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        // Sessions can still be opened (they are cheap handles), but
        // their streams are rejected.
        let session = service.session("lego", RenderOptions::default()).unwrap();
        assert!(matches!(
            session.stream(crate::StreamSpec::trajectory(3)),
            Err(ServeError::ShuttingDown)
        ));
        // Undo so the drop-drain terminates normally.
        service.shared.state.lock().unwrap().shutdown = false;
    }

    #[test]
    fn latency_window_is_a_bounded_ring() {
        let mut p = Class::default();
        for i in 0..(LATENCY_WINDOW as u64 + 10) {
            p.record_latency(i);
        }
        assert_eq!(p.latencies_us.len(), LATENCY_WINDOW);
        // The 10 oldest samples were overwritten by the newest 10.
        assert!(!p.latencies_us.contains(&9));
        assert!(p.latencies_us.contains(&(LATENCY_WINDOW as u64 + 9)));
        assert!(p.latencies_us.contains(&10));
    }

    struct AlwaysPanics;
    impl Renderer for AlwaysPanics {
        fn render_job(&self, _: &RenderJob<'_>, _: &mut FrameScratch) -> Frame {
            panic!("render blew up");
        }
    }

    #[test]
    fn renderer_panic_fails_waiters_then_the_respawned_worker_serves_on() {
        let (_, reg) = registry(0.02);
        let service = RenderService::with_renderers(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
            ScheduleRenderers::default().with(Schedule::Standard, Box::new(AlwaysPanics)),
        );
        let handle = submit(&service, "lego", 0.0).unwrap();
        // The waiter must be released with an error, not hang.
        assert_eq!(handle.wait().unwrap_err(), ServeError::WorkerPanicked);
        // Supervision respawned the (only) worker with fresh scratch, so
        // the service keeps serving — on a schedule that doesn't panic.
        let frame = service
            .session(
                "lego",
                RenderOptions::default().with_schedule(Schedule::Gscore),
            )
            .unwrap()
            .render_blocking(ViewSpec::trajectory(0.25))
            .unwrap();
        assert!(frame.image.width() > 0);
        // Clean shutdown: the contained panic does not resurface at join.
        let stats = service.shutdown();
        assert!(stats.respawns >= 1, "the panic must be counted");
        assert_eq!(stats.completed, 2);

        // Contended: the batch panics while another thread (a refill, an
        // open, a `stats()` poll) holds the state lock. Its remaining
        // frames must still count completed and their stream be
        // forgotten, or the client's next refill issues frames that
        // render for nobody.
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let gated = PanicsOnSecondFrame {
            calls: AtomicUsize::new(0),
            gate: Mutex::new((entered_tx, release_rx)),
        };
        let (_, reg) = registry(0.02);
        let service = RenderService::with_renderers(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            reg,
            ScheduleRenderers::default().with(Schedule::Standard, Box::new(gated)),
        );
        let session = service.session("lego", RenderOptions::default()).unwrap();
        let mut stream = session
            .stream_with(
                crate::StreamSpec::trajectory(4),
                StreamConfig::default().with_window(2),
            )
            .unwrap();
        entered.recv().unwrap();
        let held = service.shared.state.lock().unwrap();
        release.send(()).unwrap();
        // Give the unwinding batch the chance to meet the held lock; a
        // guard that waits for it cannot finish until it is released.
        let start = Instant::now();
        while service.health.restarts() == 0 && start.elapsed() < Duration::from_millis(300) {
            std::thread::yield_now();
        }
        drop(held);
        while service.health.restarts() == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "no respawn");
            std::thread::yield_now();
        }
        assert!(
            service.shared.state.lock().unwrap().streams.is_empty(),
            "the panicked stream must be forgotten"
        );
        assert_eq!(
            service.stats().completed,
            2,
            "frame 0 rendered, frame 1 failed"
        );
        assert!(stream.next_frame().unwrap().is_ok());
        assert_eq!(
            stream.next_frame().unwrap().unwrap_err(),
            ServeError::WorkerPanicked
        );
        assert!(stream.next_frame().is_none());
        let stats = service.shutdown();
        assert_ledger(&stats);
        assert_eq!(stats.frames, 1, "nothing renders after the terminal");
    }

    /// Renders like the standard schedule, except that its second call
    /// reports in on the gate's sender, waits for a go on its receiver and
    /// panics.
    struct PanicsOnSecondFrame {
        calls: AtomicUsize,
        gate: Mutex<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>,
    }

    impl Renderer for PanicsOnSecondFrame {
        fn render_job(&self, job: &RenderJob<'_>, scratch: &mut FrameScratch) -> Frame {
            if self.calls.fetch_add(1, Ordering::Relaxed) == 1 {
                let (entered, release) = &*self.gate.lock().unwrap();
                entered.send(()).unwrap();
                release.recv().unwrap();
                panic!("render blew up while the state lock was held");
            }
            StandardRenderer::default().render_job(job, scratch)
        }
    }

    #[test]
    fn wait_after_shutdown_resolves_stranded_handles() {
        // Regression: a request queued behind a worker-killing one used to
        // leave its handle blocked forever once the (dead) pool was
        // joined. The shutdown sweep must fail it instead. `fail_fast`
        // restores the unsupervised pool (no respawns) this regression
        // needs; the join panic itself is downgraded to a log line so
        // shutdown still completes.
        let (_, mut reg) = registry(0.02);
        reg.push(("boom".to_string(), SceneSource::PanicsOnLoad));
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                max_batch: 1,
                restart: gcc_parallel::RestartPolicy::fail_fast(),
                ..ServeConfig::default()
            },
            reg,
        );
        // First request kills the only worker during its scene load…
        let doomed = submit(&service, "boom", 0.1).unwrap();
        assert_eq!(doomed.wait().unwrap_err(), ServeError::WorkerPanicked);
        // …so this one can never be served.
        let stranded = submit(&service, "lego", 0.5).unwrap();
        assert!(!stranded.is_ready());
        let stats = service.shutdown();
        // The sweep resolved the stranded handle: wait() returns, with a
        // typed error.
        assert!(stranded.is_ready(), "handle must be resolved by shutdown");
        assert_eq!(stranded.wait().unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(stats.respawns, 0, "fail_fast must not respawn");
    }

    #[test]
    fn dropping_a_failed_service_while_panicking_does_not_abort() {
        // Drop runs `finish` too; a join panic re-raised there while the
        // thread is already unwinding would abort the whole process. The
        // downgrade must keep this a plain (catchable) single panic.
        let (_, mut reg) = registry(0.02);
        reg.push(("boom".to_string(), SceneSource::PanicsOnLoad));
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                restart: gcc_parallel::RestartPolicy::fail_fast(),
                ..ServeConfig::default()
            },
            reg,
        );
        let doomed = submit(&service, "boom", 0.1).unwrap();
        assert_eq!(doomed.wait().unwrap_err(), ServeError::WorkerPanicked);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _service = service;
            panic!("client-side panic while the service is still alive");
        }));
        let payload = outcome.expect_err("the client panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("client-side panic while the service is still alive"),
            "the original panic payload must survive the drop"
        );
    }

    #[test]
    fn load_panic_respawns_the_worker_and_quarantines_the_scene() {
        let service = RenderService::new(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            [("boom".to_string(), SceneSource::PanicsOnLoad)],
        );
        let handle = submit(&service, "boom", 0.5).unwrap();
        assert_eq!(handle.wait().unwrap_err(), ServeError::WorkerPanicked);
        // The panicking load tripped the breaker: repeat requests fail
        // fast at admission instead of re-panicking loader workers.
        match submit(&service, "boom", 0.6) {
            Err(ServeError::Quarantined { scene, retry_after }) => {
                assert_eq!(scene, "boom");
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // `completed` counts the failed request; shutdown is clean (the
        // worker was respawned, nothing resurfaces at join).
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
        assert!(stats.respawns >= 1);
        assert_eq!(stats.quarantines(), 1);
        assert_eq!(stats.quarantined_scenes, 1);
    }

    #[test]
    fn max_batch_one_never_coalesces() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 2,
                max_batch: 1,
                ..ServeConfig::default()
            },
            reg,
        );
        let handles: Vec<RenderHandle> = (0..6)
            .map(|i| submit(&service, "lego", i as f32 / 6.0).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.batches, stats.frames, "max_batch=1 must not coalesce");
        assert_eq!(stats.frames, 6);
    }

    #[test]
    fn transient_load_failures_are_retried_until_success() {
        use crate::fault::{FaultPlan, LoadFault};
        let scene = Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(0.02)));
        let plan = Arc::new(FaultPlan::new(7).script_loads(
            "flaky",
            [
                Some(LoadFault::FailRetryable),
                Some(LoadFault::FailRetryable),
                None,
            ],
        ));
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                load_retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(4),
                },
                ..ServeConfig::default()
            },
            [(
                "flaky".to_string(),
                SceneSource::faulty("flaky", SceneSource::Memory(scene), plan),
            )],
        );
        let frame = submit(&service, "flaky", 0.3).unwrap().wait().unwrap();
        assert!(frame.image.width() > 0);
        let stats = service.shutdown();
        let flaky = &stats.per_scene["flaky"];
        assert_eq!(flaky.retries, 2, "two transient failures, two retries");
        assert_eq!(flaky.loads, 1, "one successful load");
        assert_eq!(flaky.quarantines, 0, "recovered loads never quarantine");
    }

    #[test]
    fn retry_exhaustion_quarantines_the_scene() {
        use crate::fault::FaultPlan;
        let scene = Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(0.02)));
        let plan = Arc::new(FaultPlan::new(9).with_retryable_load_failures(1000));
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                load_retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(1),
                },
                ..ServeConfig::default()
            },
            [(
                "down".to_string(),
                SceneSource::faulty("down", SceneSource::Memory(scene), plan),
            )],
        );
        let err = submit(&service, "down", 0.3).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServeError::Load { .. }), "{err:?}");
        assert!(matches!(
            submit(&service, "down", 0.4),
            Err(ServeError::Quarantined { .. })
        ));
        let stats = service.shutdown();
        let down = &stats.per_scene["down"];
        assert_eq!(down.retries, 1, "attempt 2 is the budget's last");
        assert_eq!(down.quarantines, 1);
        assert_eq!(down.loads, 0);
        assert_eq!(stats.quarantined_scenes, 1);
    }

    #[test]
    fn quarantine_expires_into_a_half_open_probe() {
        use crate::fault::{FaultPlan, LoadFault};
        let scene = Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(0.02)));
        // One fatal failure, then healthy: the probe after expiry readmits.
        let plan =
            Arc::new(FaultPlan::new(11).script_loads("wobbly", [Some(LoadFault::FailFatal), None]));
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                quarantine_for: Duration::from_millis(40),
                ..ServeConfig::default()
            },
            [(
                "wobbly".to_string(),
                SceneSource::faulty("wobbly", SceneSource::Memory(scene), plan),
            )],
        );
        let err = submit(&service, "wobbly", 0.1).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServeError::Load { .. }), "{err:?}");
        assert!(matches!(
            submit(&service, "wobbly", 0.2),
            Err(ServeError::Quarantined { .. })
        ));
        std::thread::sleep(Duration::from_millis(60));
        // Past the expiry the next request is admitted as the probe, and
        // its (now healthy) load readmits the scene.
        let frame = submit(&service, "wobbly", 0.3).unwrap().wait().unwrap();
        assert!(frame.image.width() > 0);
        let stats = service.shutdown();
        assert_eq!(stats.per_scene["wobbly"].quarantines, 1);
        assert_eq!(stats.quarantined_scenes, 0, "the probe readmitted it");
    }

    #[test]
    fn bulk_watermark_rejects_bulk_but_admits_interactive() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                shed: ShedPolicy {
                    bulk_stream_watermark: 0,
                    ..ShedPolicy::default()
                },
                ..ServeConfig::default()
            },
            reg,
        );
        let session = service.session("lego", RenderOptions::default()).unwrap();
        match session.stream_with(
            crate::StreamSpec::trajectory(3),
            crate::StreamConfig::bulk(),
        ) {
            Err(ServeError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected bulk rejection, got {:?}", other.err()),
        }
        // Interactive traffic still admits past the Bulk watermark.
        let frame = submit(&service, "lego", 0.5).unwrap().wait().unwrap();
        assert!(frame.image.width() > 0);
        let stats = service.shutdown();
        assert_eq!(stats.priority(Priority::Bulk).rejected, 1);
        assert_eq!(stats.priority(Priority::Bulk).shed, 0);
        assert_eq!(stats.priority(Priority::Interactive).rejected, 0);
        assert_eq!(stats.turned_away(), 1);
    }

    #[test]
    fn hard_ceiling_sheds_every_priority_class() {
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                shed: ShedPolicy {
                    max_streams: 0,
                    ..ShedPolicy::default()
                },
                ..ServeConfig::default()
            },
            reg,
        );
        assert!(matches!(
            submit(&service, "lego", 0.1),
            Err(ServeError::Overloaded { .. })
        ));
        let session = service.session("lego", RenderOptions::default()).unwrap();
        assert!(matches!(
            session.stream_with(
                crate::StreamSpec::trajectory(2),
                crate::StreamConfig::bulk()
            ),
            Err(ServeError::Overloaded { .. })
        ));
        let stats = service.shutdown();
        assert_eq!(stats.priority(Priority::Interactive).shed, 1);
        assert_eq!(stats.priority(Priority::Bulk).shed, 1);
        assert_eq!(stats.turned_away(), 2);
        assert_eq!(stats.streams.opened, 0);
    }

    #[test]
    fn overload_retry_hints_scale_with_the_watermark_overshoot() {
        // Pure policy math first: at the limit the base hint, linear
        // scaling past it, capped at 4x, and usize::MAX limits never
        // scale (the disabled side of a compound check).
        let shed = ShedPolicy {
            retry_after: Duration::from_millis(40),
            ..ShedPolicy::default()
        };
        assert_eq!(shed.retry_hint(5, 5), Duration::from_millis(40));
        assert_eq!(shed.retry_hint(10, 5), Duration::from_millis(80));
        assert_eq!(shed.retry_hint(1000, 5), Duration::from_millis(160));
        assert_eq!(shed.retry_hint(3, usize::MAX), Duration::from_millis(40));
        // And through the service: a configured base reaches the typed
        // rejection unscaled when the ceiling is grazed exactly.
        let (_, reg) = registry(0.02);
        let service = RenderService::new(
            ServeConfig {
                workers: 1,
                shed: ShedPolicy {
                    max_streams: 0,
                    retry_after: Duration::from_millis(75),
                    ..ShedPolicy::default()
                },
                ..ServeConfig::default()
            },
            reg,
        );
        match submit(&service, "lego", 0.1) {
            Err(ServeError::Overloaded { retry_after }) => {
                assert_eq!(retry_after, Duration::from_millis(75));
            }
            other => panic!("expected a shed, got {:?}", other.err()),
        }
        service.shutdown();
    }

    #[test]
    fn seeded_fault_churn_never_leaks_loading_guards_or_budget_bytes() {
        // Property test (seeded loops stand in for proptest, as
        // everywhere in this workspace): under a random mix of healthy
        // and failing loads over a budget small enough to force eviction
        // churn, a scene failing mid-load must never leave a phantom
        // `loading` claim behind nor charge the cache's byte budget —
        // the PR 3 recency-model invariants, now under fault injection.
        use crate::fault::FaultPlan;
        use gcc_scene::rng::StdRng;
        let scene = Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(0.02)));
        let bytes = scene.approx_bytes();
        let ids = ["a", "b", "c", "d"];
        for seed in 0..4u64 {
            // ~30% transient failures, ~15% fatal per load attempt.
            let plan = Arc::new(
                FaultPlan::new(0xC4A05 + seed)
                    .with_retryable_load_failures(300)
                    .with_fatal_load_failures(150),
            );
            let budget = 2 * bytes;
            let service = RenderService::new(
                ServeConfig {
                    workers: 2,
                    cache_budget_bytes: budget,
                    quarantine_for: Duration::from_millis(5),
                    load_retry: RetryPolicy {
                        max_attempts: 2,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(1),
                    },
                    ..ServeConfig::default()
                },
                ids.map(|id| {
                    (
                        id.to_string(),
                        SceneSource::faulty(
                            id,
                            SceneSource::Memory(Arc::clone(&scene)),
                            plan.clone(),
                        ),
                    )
                }),
            );
            let mut rng = StdRng::seed_from_u64(0xFA17 + seed);
            let (mut served, mut failed, mut quarantined) = (0u64, 0u64, 0u64);
            for i in 0..60 {
                let id = ids[rng.gen_range(0..ids.len())];
                let load_failed = match submit(&service, id, i as f32 / 60.0) {
                    Ok(h) => match h.wait() {
                        Ok(_) => {
                            served += 1;
                            false
                        }
                        Err(ServeError::Load { scene, .. }) => {
                            assert_eq!(scene, id);
                            failed += 1;
                            true
                        }
                        Err(other) => panic!("unexpected wait error: {other:?} (seed {seed})"),
                    },
                    Err(ServeError::Quarantined { .. }) => {
                        quarantined += 1;
                        false
                    }
                    Err(other) => panic!("unexpected submit error: {other:?} (seed {seed})"),
                };
                // Invariants after every resolved request: no phantom
                // load claim survives its request, a failed load is not
                // resident, and the byte budget holds through the churn.
                assert_ledger(&service.stats());
                let st = service.shared.state.lock().unwrap();
                assert!(
                    st.loading.is_empty(),
                    "phantom loading claim: {:?} (seed {seed})",
                    st.loading
                );
                if load_failed {
                    assert!(
                        !st.cache.contains(id),
                        "failed load left '{id}' resident (seed {seed})"
                    );
                }
                assert!(
                    st.cache.resident_bytes() <= budget,
                    "budget violated: {} > {budget} (seed {seed})",
                    st.cache.resident_bytes()
                );
            }
            let stats = service.shutdown();
            assert_ledger(&stats);
            assert_eq!(served + failed + quarantined, 60);
            assert_eq!(stats.completed, served + failed);
            assert!(
                served > 0 && failed > 0,
                "the storm must exercise both paths (seed {seed}: {served} served, {failed} failed)"
            );
            assert!(stats.resident_bytes <= budget);
        }
    }
}
