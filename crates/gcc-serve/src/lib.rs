//! `gcc-serve` — the multi-scene render service of the GCC reproduction.
//!
//! The renderers turn `(scene, camera)` into a frame; this crate turns
//! that into a *service*: many scenes, many concurrent clients, bounded
//! memory, and — since the session redesign — *streams* of correlated
//! views with backpressure, cancellation and latency classes. It is the
//! paper's cross-stage conditional-scheduling idea lifted one level up:
//! the schedulable unit is a frame of a stream, and what gets processed
//! when is conditioned on scene residency, priority class and deadlines:
//!
//! * [`Session`] / [`FrameStream`] (the [`session`] module) — a client
//!   opens a session per scene (with shared
//!   [`RenderOptions`](gcc_render::RenderOptions) defaults) and streams
//!   view sequences through it: trajectory sweeps, orbit
//!   loops, or explicit view lists ([`StreamSpec`]). Streams deliver
//!   in order, materialize at most [`StreamConfig::window`] undelivered
//!   frames at a time (backpressure), can be cancelled mid-flight
//!   (releasing their queued work), and carry a [`Priority`] —
//!   `Interactive` preempts `Bulk` at every dispatch decision — plus an
//!   optional per-frame deadline whose misses are counted.
//! * [`LruSceneCache`] — scenes load on demand through [`SceneSource`]
//!   handles (presets, binary/JSON files via `gcc_scene::io`) and stay
//!   resident under a byte budget with least-recently-used eviction.
//!   Frames of one stream share one batch key, so correlated views stay
//!   co-scheduled on one worker's warm scratch while their scene stays
//!   hot in the cache.
//! * [`RenderService`] — a long-lived worker pool
//!   ([`gcc_parallel::WorkerPool`]) over priority-aware batching queues
//!   keyed by `(scene, schedule, resolution, priority)`; requests that
//!   agree on the key coalesce into batches a worker renders
//!   back-to-back through one reusable
//!   [`FrameScratch`](gcc_render::pipeline::FrameScratch); requests for
//!   a cold scene trigger an asynchronous load on one worker which then
//!   drains the waiting batch itself (load-then-drain), while other
//!   workers keep serving resident scenes. Every request is a stream:
//!   a single frame ([`Session::submit`]) is a one-view interactive one.
//! * [`LodPolicy`] — deadline-aware adaptive quality: with
//!   `ServeConfig::lod` set, deadline-carrying frames dispatch through
//!   the `gcc_lod` quality ladder. A rolling per-scene cost model
//!   (EWMA of measured frame costs, keyed scene × rung × resolution ×
//!   thread count) prices each rung and the worker picks the highest
//!   rung fitting the frame's remaining budget — degrading resolution
//!   (with a filtered upscale back to full size), SH degree, alpha
//!   threshold and hierarchy level instead of missing the deadline,
//!   then probing back up one rung per frame when headroom returns.
//!   Rung 0 is exact, so ladder-on serving stays bit-identical
//!   whenever the deadline affords it; scene hierarchies build at load
//!   time and are charged to the cache budget.
//! * **Lending** — every frame, and the load and hierarchy build of a
//!   cold scene, runs on its worker's core plus the cores no other thread
//!   of the process is busy on: `gcc_parallel`'s process-wide ledger
//!   ([`gcc_parallel::lend`], DESIGN.md §5), no knob.
//! * [`ServeStats`] — the introspection surface: per-scene hit / miss /
//!   eviction / batch counters, per-schedule and per-priority
//!   request/frame breakdowns (separate Interactive vs Bulk latency
//!   percentiles and deadline-miss counts), stream lifecycle counters,
//!   queue depth watermarks, and the folded
//!   [`FrameStats`](gcc_render::pipeline::FrameStats) of everything
//!   rendered.
//!
//! Requests are validated when a session or stream opens: NaN
//! parameters, out-of-range trajectory values, zero-sized ROIs, empty
//! streams and unknown scene ids come back as typed [`ServeError`]s
//! instead of reaching a render worker.
//!
//! Determinism contract: a served frame — streamed or single — is
//! bit-identical to calling
//! [`Renderer::render_job`](gcc_render::pipeline::Renderer::render_job)
//! directly with the same scene, resolved camera and options — scratch
//! reuse, batching, priorities and scheduling order never leak into
//! pixels (`tests/serve_parity.rs` pins this at the workspace level,
//! across schedules, priorities, thread counts and stream shapes).
//!
//! ```
//! use gcc_render::{RenderOptions, Schedule};
//! use gcc_scene::{ScenePreset, ViewSpec};
//! use gcc_serve::{RenderService, SceneSource, ServeConfig, StreamConfig, StreamSpec};
//!
//! let service = RenderService::new(
//!     ServeConfig { workers: 2, ..ServeConfig::default() },
//!     [(
//!         "lego".to_string(),
//!         SceneSource::Preset { preset: ScenePreset::Lego, scale: 0.02 },
//!     )],
//! );
//! // Open a session once, stream a whole sweep through it…
//! let session = service
//!     .session("lego", RenderOptions::default().with_schedule(Schedule::GccHardware))
//!     .unwrap();
//! let stream = session
//!     .stream_with(
//!         StreamSpec::TrajectorySweep { t0: 0.0, t1: 0.5, frames: 3 },
//!         StreamConfig::bulk().with_window(2),
//!     )
//!     .unwrap();
//! let frames: Vec<_> = stream.map(|r| r.unwrap()).collect();
//! assert_eq!(frames.len(), 3);
//! // …and single frames through the same session: one-view streams.
//! let frame = session.submit(ViewSpec::trajectory(0.25)).unwrap().wait().unwrap();
//! assert!(frame.image.width() > 0);
//! let posed = session
//!     .render_blocking(ViewSpec::look_at(
//!         gcc_math::Vec3::new(0.0, 1.0, -4.0),
//!         gcc_math::Vec3::ZERO,
//!     ))
//!     .unwrap();
//! assert!(posed.image.width() > 0);
//! assert_eq!(service.stats().completed, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod fault;
mod service;
pub mod session;
mod source;
mod stats;

pub use cache::LruSceneCache;
pub use fault::{ChaosRenderer, FaultPlan, LoadFault};
pub use service::{
    LodPolicy, RenderHandle, RenderService, ScheduleRenderers, ServeConfig, ShedPolicy,
};
pub use session::{FrameStream, Priority, Session, StreamConfig, StreamPoll, StreamSpec};
pub use source::{LoadError, SceneSource};
pub use stats::{
    percentile_us, LodCounters, LodDecision, PriorityCounters, SceneCounters, ScheduleCounters,
    ServeStats, StreamCounters, LOD_TRACE_WINDOW,
};

use gcc_scene::ViewError;
use std::time::Duration;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request named a scene id absent from the registry.
    UnknownScene(String),
    /// The request's view or options failed validation (NaN / out-of-range
    /// trajectory parameter, degenerate pose, zero-sized or out-of-bounds
    /// ROI, bad quality knobs).
    InvalidRequest(ViewError),
    /// A stream spec describing zero frames was rejected at open.
    EmptyStream,
    /// The scene's source failed to load (message carries the I/O or
    /// format error; it is a string so one failure can fan out to every
    /// stream waiting on the load).
    Load {
        /// Scene id whose load failed.
        scene: String,
        /// Human-readable cause.
        message: String,
    },
    /// The service is shutting down and accepts no new requests; also the
    /// resolution of any frame still queued — and of any stream's
    /// unissued remainder — when the service shut down (no
    /// [`RenderHandle::wait`] or [`FrameStream`] consumer blocks past
    /// shutdown).
    ShuttingDown,
    /// The worker rendering this request's batch panicked. The stream is
    /// failed instead of stranded; the worker itself is respawned with
    /// fresh state (within the service's
    /// [`RestartPolicy`](gcc_parallel::RestartPolicy) budget — past it
    /// the panic resurfaces when the service joins its pool).
    WorkerPanicked,
    /// The scene is quarantined behind the load circuit breaker: a
    /// recent load exhausted its retries (or panicked), so new requests
    /// fail fast instead of stalling a loader worker on a known-bad
    /// source. After `retry_after` the next request is admitted as a
    /// half-open probe; its load decides readmission vs re-quarantine.
    Quarantined {
        /// The quarantined scene id.
        scene: String,
        /// Remaining quarantine time at rejection.
        retry_after: Duration,
    },
    /// The request was shed by admission control: past the Bulk
    /// watermarks new Bulk streams are rejected while Interactive still
    /// admits; past the hard ceilings everything sheds. Back off at
    /// least `retry_after` before retrying.
    Overloaded {
        /// Suggested client backoff.
        retry_after: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownScene(id) => write!(f, "unknown scene '{id}'"),
            Self::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            Self::EmptyStream => write!(f, "stream spec describes zero frames"),
            Self::Load { scene, message } => write!(f, "loading scene '{scene}' failed: {message}"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::WorkerPanicked => write!(f, "a render worker panicked on this batch"),
            Self::Quarantined { scene, retry_after } => write!(
                f,
                "scene '{scene}' is quarantined after failed loads (retry in {retry_after:?})"
            ),
            Self::Overloaded { retry_after } => write!(
                f,
                "service is overloaded; request shed (retry in {retry_after:?})"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidRequest(e) => Some(e),
            _ => None,
        }
    }
}
