//! Sessions and frame streams: the serving API for clients that submit
//! *sequences* of correlated views instead of isolated frames.
//!
//! A real client — a headset orbiting a scene, a trajectory playback, a
//! progressive preview — does not speak one frame at a time. It opens a
//! [`Session`] (a scene plus the [`RenderOptions`] defaults all its
//! requests share), describes a whole view sequence as a [`StreamSpec`],
//! and consumes the frames through a [`FrameStream`] handle. The service
//! keeps correlated views of one scene co-scheduled: frames of one stream
//! share a batch key, so they drain back-to-back onto one worker's warm
//! `FrameScratch`, and the scene stays hot in the LRU cache for the
//! stream's whole life.
//!
//! Three properties distinguish a stream from a loop of single-frame
//! [`Session::submit`] calls:
//!
//! * **Backpressure.** The scheduler never materializes more than
//!   [`StreamConfig::window`] undelivered frames per stream — a frame is
//!   issued into the queues only when the client has consumed far enough.
//!   A slow consumer therefore costs bounded queue space and bounded
//!   frame memory, no matter how long its trajectory is.
//! * **Cancellation.** [`FrameStream::cancel`] (and dropping the handle)
//!   frees the stream's queued work immediately: undelivered queued
//!   frames are discarded, unissued frames are never materialized, and
//!   the released slots go to other clients. Frames already on a worker
//!   finish and are discarded.
//! * **Latency classes.** Each stream carries a [`Priority`] —
//!   `Interactive` work preempts `Bulk` work at every dispatch decision —
//!   and an optional per-frame deadline, observable as a deadline-miss
//!   count in `ServeStats`.
//!
//! Delivery is *in order*: frame `i` of a stream is handed out before
//! frame `i + 1` even when workers complete them out of order, and every
//! delivered frame is bit-identical to the equivalent single-frame
//! [`Session::submit`] (pinned by `tests/serve_parity.rs`).

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gcc_render::pipeline::{Frame, RenderOptions};
use gcc_scene::ViewSpec;

use crate::service::Shared;
use crate::ServeError;

/// The latency class of a stream. `Interactive` work preempts `Bulk`
/// work at every dispatch decision (a saturating interactive load can
/// therefore starve bulk streams — that is the intended contract; bulk
/// clients trade latency for throughput).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: dispatched before any bulk work.
    #[default]
    Interactive,
    /// Throughput work: dispatched only when no interactive work is
    /// runnable.
    Bulk,
}

impl Priority {
    /// Both priorities, in dispatch order.
    pub const ALL: [Priority; 2] = [Priority::Interactive, Priority::Bulk];

    /// Stable identifier (stats keys, JSON records).
    pub fn name(self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Bulk => "bulk",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Self::Interactive => 0,
            Self::Bulk => 1,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A view sequence a session can stream, materialized by
/// [`StreamSpec::views`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSpec {
    /// `frames` views evenly sweeping the scene trajectory from `t0` to
    /// `t1`, both endpoints included: a single frame sits at `t0`, the
    /// last frame is exactly `t1`, and intermediate samples are clamped
    /// into `[min(t0,t1), max(t0,t1)]` so valid endpoints can never round
    /// a sample out of range. Hitting both endpoints is what a playback
    /// client scrubbing a sub-range wants.
    TrajectorySweep {
        /// Sweep start parameter (must be in `[0, 1]`).
        t0: f32,
        /// Sweep end parameter (may be below `t0` for a reverse sweep).
        t1: f32,
        /// Number of frames (zero streams are rejected at open).
        frames: usize,
    },
    /// One full orbit loop as absolute-angle [`ViewSpec::Orbit`] views:
    /// `frames` evenly spaced angles over `[0, 2π)` (endpoint-exclusive,
    /// so consecutive loops tile seamlessly) at a common radius scale and
    /// height offset.
    OrbitLoop {
        /// Number of frames per loop.
        frames: usize,
        /// Multiplier on the rig radius (must be positive and finite).
        radius_scale: f32,
        /// Added to the rig's eye height.
        height_offset: f32,
    },
    /// An explicit view list (free-fly recordings, A/B comparisons).
    ViewList(Vec<ViewSpec>),
}

impl StreamSpec {
    /// A full-range trajectory sweep (`t` from 0 to 1 inclusive).
    pub fn trajectory(frames: usize) -> Self {
        Self::TrajectorySweep {
            t0: 0.0,
            t1: 1.0,
            frames,
        }
    }

    /// An orbit loop on the rig circle at native radius and height.
    pub fn orbit(frames: usize) -> Self {
        Self::OrbitLoop {
            frames,
            radius_scale: 1.0,
            height_offset: 0.0,
        }
    }

    /// Number of frames this spec describes.
    pub fn len(&self) -> usize {
        match self {
            Self::TrajectorySweep { frames, .. } | Self::OrbitLoop { frames, .. } => *frames,
            Self::ViewList(views) => views.len(),
        }
    }

    /// `true` when the spec describes no frames (rejected at open).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the spec into its view list, in stream order. Streaming
    /// a spec is defined as submitting exactly these views one by one.
    pub fn views(&self) -> Vec<ViewSpec> {
        match *self {
            Self::TrajectorySweep { t0, t1, frames } => {
                let (lo, hi) = (t0.min(t1), t0.max(t1));
                (0..frames)
                    .map(|i| {
                        let t = if i == 0 {
                            t0
                        } else if i + 1 == frames {
                            t1
                        } else {
                            (t0 + (t1 - t0) * (i as f32 / (frames - 1) as f32)).clamp(lo, hi)
                        };
                        ViewSpec::trajectory(t)
                    })
                    .collect()
            }
            Self::OrbitLoop {
                frames,
                radius_scale,
                height_offset,
            } => (0..frames)
                .map(|i| ViewSpec::Orbit {
                    angle: std::f32::consts::TAU * i as f32 / frames as f32,
                    radius_scale,
                    height_offset,
                })
                .collect(),
            Self::ViewList(ref views) => views.clone(),
        }
    }
}

/// Per-stream scheduling policy: latency class, optional per-frame
/// deadline, and the in-flight window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The stream's latency class.
    pub priority: Priority,
    /// Optional per-frame deadline, measured from the moment the frame is
    /// *issued* into the scheduler (i.e. from when it enters the in-flight
    /// window, not from stream open — a backpressured frame's clock does
    /// not run while the client hasn't asked for it yet). A frame
    /// completing after its deadline still renders and is delivered; the
    /// miss is counted in the per-priority statistics.
    ///
    /// A deadline is also a scheduling claim: deadline-carrying work is
    /// dispatched ahead of deadline-free work *of the same priority*
    /// (earliest deadline first), so only attach one to streams that
    /// genuinely have a latency budget.
    pub deadline: Option<Duration>,
    /// Most undelivered frames the scheduler may materialize for this
    /// stream at once (queued + rendered-but-unconsumed). Values below 1
    /// are treated as 1.
    pub window: usize,
}

impl Default for StreamConfig {
    /// Interactive, no deadline, a window of 4 frames.
    fn default() -> Self {
        Self {
            priority: Priority::Interactive,
            deadline: None,
            window: 4,
        }
    }
}

impl StreamConfig {
    /// Bulk-priority defaults (throughput playback).
    pub fn bulk() -> Self {
        Self {
            priority: Priority::Bulk,
            ..Self::default()
        }
    }

    /// Sets the latency class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-frame deadline (see [`Self::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the in-flight window (clamped up to 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    pub(crate) fn effective_window(&self) -> usize {
        self.window.max(1)
    }
}

/// A client's handle on one scene: the scene id plus the
/// [`RenderOptions`] defaults every request opened through it shares.
/// Opened by `RenderService::session`; sessions are cheap and clonable —
/// one per client connection is the intended shape.
#[derive(Clone)]
pub struct Session {
    pub(crate) shared: Arc<Shared>,
    pub(crate) scene: String,
    pub(crate) defaults: RenderOptions,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("scene", &self.scene)
            .field("defaults", &self.defaults)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// The scene this session renders.
    pub fn scene_id(&self) -> &str {
        &self.scene
    }

    /// The options every request of this session carries.
    pub fn defaults(&self) -> &RenderOptions {
        &self.defaults
    }

    /// Opens a stream over `spec` with the default [`StreamConfig`]
    /// (interactive, window 4, no deadline).
    ///
    /// # Errors
    ///
    /// See [`Self::stream_with`].
    pub fn stream(&self, spec: StreamSpec) -> Result<FrameStream, ServeError> {
        self.stream_with(spec, StreamConfig::default())
    }

    /// Opens a stream over `spec` with an explicit scheduling policy.
    /// Frames begin rendering immediately (up to the window); consume
    /// them through the returned [`FrameStream`].
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyStream`] for a zero-frame spec,
    /// [`ServeError::InvalidRequest`] when any generated view or the
    /// session defaults fail validation, and
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn stream_with(
        &self,
        spec: StreamSpec,
        cfg: StreamConfig,
    ) -> Result<FrameStream, ServeError> {
        let views = spec.views();
        if views.is_empty() {
            return Err(ServeError::EmptyStream);
        }
        for view in &views {
            view.validate().map_err(ServeError::InvalidRequest)?;
        }
        Shared::open_stream(self, views, cfg)
    }

    /// Submits one frame with the session defaults: a one-view
    /// interactive stream behind a [`crate::RenderHandle`], sharing the
    /// session's warm scene.
    ///
    /// # Errors
    ///
    /// As [`Self::stream_with`], minus [`ServeError::EmptyStream`].
    pub fn submit(&self, view: ViewSpec) -> Result<crate::RenderHandle, ServeError> {
        let stream = self.stream_with(StreamSpec::ViewList(vec![view]), StreamConfig::default())?;
        Ok(crate::RenderHandle::from_stream(stream))
    }

    /// Submit one frame and block for it.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::submit`] and render-path errors.
    pub fn render_blocking(&self, view: ViewSpec) -> Result<Frame, ServeError> {
        self.submit(view)?.wait()
    }
}

/// What a non-blocking poll of a [`FrameStream`] observed.
// `Ready` deliberately carries the whole frame inline: it is handed
// straight to the caller, never stored, so boxing would only add an
// allocation to the hot poll path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StreamPoll {
    /// The next frame (or its per-frame error), in stream order.
    Ready(Result<Frame, ServeError>),
    /// The next frame is not rendered yet; poll again or block.
    Pending,
    /// The stream is exhausted, cancelled, or already reported its
    /// terminal error — no further frames will ever arrive.
    Done,
}

/// Where workers deliver a stream's results and clients take them from:
/// a reorder buffer plus its condvar, *outside* the service lock so
/// delivery and consumption never contend with the scheduler.
#[derive(Debug, Default)]
pub(crate) struct InboxState {
    /// Completed frames waiting for in-order delivery, by frame index.
    ready: BTreeMap<usize, Result<Frame, ServeError>>,
    /// Next index to hand to the client (== frames delivered so far).
    next: usize,
    /// Total frames of the stream.
    total: usize,
    /// Stream-killing error (scene load failure, worker panic, service
    /// shutdown), delivered once after the in-order prefix runs dry.
    terminal: Option<ServeError>,
    /// Set once the client can never receive another item (terminal
    /// delivered, all frames consumed, or cancelled).
    done: bool,
}

#[derive(Debug)]
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    ready_cv: Condvar,
}

/// Recovers a poisoned inbox lock instead of cascading the panic: the
/// poisoning thread's panic is already contained (and counted) by the
/// pool supervision, so the client-side handle must keep working. The
/// interrupted update means the reorder buffer can no longer be trusted
/// to complete the stream, so the first recovery resolves it with a
/// terminal [`ServeError::WorkerPanicked`] (sticky poison makes later
/// recoveries no-ops: the terminal is already set or consumed).
fn recover<'a>(
    lock: Result<
        std::sync::MutexGuard<'a, InboxState>,
        std::sync::PoisonError<std::sync::MutexGuard<'a, InboxState>>,
    >,
) -> std::sync::MutexGuard<'a, InboxState> {
    match lock {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            if !guard.done && guard.terminal.is_none() {
                guard.terminal = Some(ServeError::WorkerPanicked);
            }
            guard
        }
    }
}

impl Inbox {
    pub(crate) fn new(total: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(InboxState {
                total,
                ..InboxState::default()
            }),
            ready_cv: Condvar::new(),
        })
    }

    /// Worker side: deliver frame `index`'s result. A frame finishing
    /// after the stream ended (cancelled, or its terminal was already
    /// consumed) is discarded — the client can never take it, so
    /// retaining it would pin frame memory for the life of the handle.
    /// A frame arriving after a terminal was *set* but not yet consumed
    /// is kept: it may fill the gap at the delivery cursor and reach the
    /// client ahead of the terminal error.
    pub(crate) fn deliver(&self, index: usize, result: Result<Frame, ServeError>) {
        let mut st = recover(self.state.lock());
        if st.done {
            return;
        }
        st.ready.insert(index, result);
        drop(st);
        self.ready_cv.notify_all();
    }

    /// Worker/service side: kill the stream with `err`. Frames already in
    /// the in-order ready prefix still deliver first; the first gap
    /// yields `err` once, then the stream ends. Idempotent (the first
    /// terminal wins).
    pub(crate) fn fail(&self, err: ServeError) {
        let mut st = recover(self.state.lock());
        if st.terminal.is_none() && !st.done {
            st.terminal = Some(err);
        }
        drop(st);
        self.ready_cv.notify_all();
    }

    /// `true` once a `take` would not block.
    fn is_ready(&self) -> bool {
        let st = recover(self.state.lock());
        st.done || st.next >= st.total || st.terminal.is_some() || st.ready.contains_key(&st.next)
    }

    /// `Ok(Some(item))` = next in-order item, `Ok(None)` = stream over,
    /// `Err(())` = nothing available yet.
    #[allow(clippy::result_unit_err)]
    fn try_take(st: &mut InboxState) -> Result<Option<Result<Frame, ServeError>>, ()> {
        if let Some(r) = st.ready.remove(&st.next) {
            st.next += 1;
            return Ok(Some(r));
        }
        if st.done || st.next >= st.total {
            st.done = true;
            return Ok(None);
        }
        if let Some(e) = st.terminal.clone() {
            st.done = true;
            return Ok(Some(Err(e)));
        }
        Err(())
    }
}

/// The consumer half of a stream: an in-order, windowed iterator over
/// the stream's frames. See the [module docs](self) for the backpressure
/// / cancellation / priority contract.
///
/// Dropping an unfinished `FrameStream` cancels it — an abandoned stream
/// never holds queue slots.
pub struct FrameStream {
    pub(crate) shared: Arc<Shared>,
    pub(crate) id: u64,
    pub(crate) inbox: Arc<Inbox>,
    pub(crate) total: usize,
    /// Local: the stream ended (consumed, terminal seen, or cancelled) —
    /// suppresses the cancel-on-drop.
    pub(crate) finished: bool,
}

impl std::fmt::Debug for FrameStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameStream")
            .field("id", &self.id)
            .field("total", &self.total)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl FrameStream {
    /// Total frames this stream describes (delivered + outstanding).
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` for a zero-frame stream (never constructed by
    /// [`Session::stream_with`], which rejects empty specs).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Frames already handed to the client.
    pub fn delivered(&self) -> usize {
        recover(self.inbox.state.lock()).next
    }

    /// `true` once [`Self::next_frame`] would return without blocking.
    pub fn is_ready(&self) -> bool {
        self.finished || self.inbox.is_ready()
    }

    /// Blocks for the next in-order item: `Some(Ok(frame))`, a per-frame
    /// or stream-terminal `Some(Err(..))`, or `None` once the stream is
    /// over (all frames consumed, terminal already reported, or
    /// cancelled). Consuming a frame opens a window slot, which issues
    /// the next pending frame into the scheduler.
    pub fn next_frame(&mut self) -> Option<Result<Frame, ServeError>> {
        if self.finished {
            return None;
        }
        let taken = {
            let mut st = recover(self.inbox.state.lock());
            loop {
                match Inbox::try_take(&mut st) {
                    Ok(item) => break item,
                    Err(()) => {
                        st = recover(self.inbox.ready_cv.wait(st));
                    }
                }
            }
        };
        self.after_take(&taken);
        taken
    }

    /// Non-blocking poll for the next in-order item.
    pub fn try_next(&mut self) -> StreamPoll {
        self.poll_inner(None)
    }

    /// Bounded-wait poll: blocks up to `timeout` for the next item.
    pub fn next_timeout(&mut self, timeout: Duration) -> StreamPoll {
        self.poll_inner(Some(timeout))
    }

    fn poll_inner(&mut self, timeout: Option<Duration>) -> StreamPoll {
        if self.finished {
            return StreamPoll::Done;
        }
        let taken = {
            let mut st = recover(self.inbox.state.lock());
            match Inbox::try_take(&mut st) {
                Ok(item) => Some(item),
                Err(()) => match timeout {
                    None => None,
                    Some(timeout) => {
                        let (mut st, result) = match self.inbox.ready_cv.wait_timeout(st, timeout) {
                            Ok(pair) => pair,
                            Err(poisoned) => {
                                let (st, result) = poisoned.into_inner();
                                // Re-recover so the terminal is injected.
                                drop(st);
                                (recover(self.inbox.state.lock()), result)
                            }
                        };
                        // One shot after the wait: either something
                        // arrived, or we report Pending (spurious wakeups
                        // inside the window are absorbed by re-polling
                        // callers; a strict single timeout keeps
                        // `wait_timeout` bounded).
                        let _ = result;
                        Inbox::try_take(&mut st).ok()
                    }
                },
            }
        };
        match taken {
            None => StreamPoll::Pending,
            Some(item) => {
                self.after_take(&item);
                match item {
                    Some(r) => StreamPoll::Ready(r),
                    None => StreamPoll::Done,
                }
            }
        }
    }

    /// Bookkeeping after an item (or end-of-stream) was taken: refill the
    /// window, and mark the stream finished when it ended.
    fn after_take(&mut self, taken: &Option<Result<Frame, ServeError>>) {
        match taken {
            Some(Ok(_)) | Some(Err(_)) => {
                let delivered = self.delivered();
                self.shared.refill_stream(self.id, delivered);
                // A terminal error is the last item; mark the stream
                // finished so drop doesn't try to cancel it again.
                if recover(self.inbox.state.lock()).done {
                    self.finished = true;
                }
            }
            None => self.finished = true,
        }
    }

    /// Cancels the stream: queued frames are discarded, unissued frames
    /// are never materialized, and the freed slots go to other clients.
    /// Frames already on a worker finish and are discarded. After
    /// cancellation every accessor reports the stream as done
    /// ([`Self::next_frame`] returns `None` — cancellation is a client
    /// decision, not an error).
    pub fn cancel(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        {
            let mut st = recover(self.inbox.state.lock());
            st.done = true;
            st.ready.clear();
        }
        self.inbox.ready_cv.notify_all();
        self.shared.cancel_stream(self.id);
    }
}

impl Iterator for FrameStream {
    type Item = Result<Frame, ServeError>;

    /// [`Self::next_frame`]: blocking, in-order.
    fn next(&mut self) -> Option<Self::Item> {
        self.next_frame()
    }
}

impl Drop for FrameStream {
    /// An abandoned stream is cancelled so it releases its queue slots.
    fn drop(&mut self) {
        self.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_specs_materialize_the_documented_view_lists() {
        let sweep = StreamSpec::TrajectorySweep {
            t0: 0.0,
            t1: 1.0,
            frames: 3,
        };
        assert_eq!(
            sweep.views(),
            vec![
                ViewSpec::trajectory(0.0),
                ViewSpec::trajectory(0.5),
                ViewSpec::trajectory(1.0),
            ]
        );
        assert_eq!(sweep.len(), 3);
        assert!(!sweep.is_empty());
        assert_eq!(StreamSpec::trajectory(3), sweep);

        let orbit = StreamSpec::orbit(4);
        assert_eq!(orbit.len(), 4);
        assert_eq!(
            orbit.views()[1],
            ViewSpec::orbit(std::f32::consts::TAU / 4.0)
        );

        let list = StreamSpec::ViewList(vec![ViewSpec::trajectory(0.25)]);
        assert_eq!(list.views(), vec![ViewSpec::trajectory(0.25)]);
        assert!(StreamSpec::ViewList(Vec::new()).is_empty());
    }

    #[test]
    fn sweep_views_hit_both_endpoints_and_stay_in_range() {
        let sweep = |t0, t1, frames| StreamSpec::TrajectorySweep { t0, t1, frames }.views();
        let views = sweep(0.2, 1.0, 5);
        assert_eq!(views.len(), 5);
        assert_eq!(views[0], ViewSpec::trajectory(0.2));
        assert_eq!(views[4], ViewSpec::trajectory(1.0));
        for v in &views {
            assert!(v.validate().is_ok(), "{v:?}");
        }
        // Backwards sweep and the single-frame degenerate case.
        let back = sweep(0.9, 0.1, 3);
        assert_eq!(back[0], ViewSpec::trajectory(0.9));
        assert_eq!(back[2], ViewSpec::trajectory(0.1));
        assert_eq!(sweep(0.4, 0.8, 1), vec![ViewSpec::trajectory(0.4)]);
        assert!(sweep(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn orbit_views_tile_the_circle_endpoint_exclusive() {
        let views = StreamSpec::OrbitLoop {
            frames: 4,
            radius_scale: 1.5,
            height_offset: -0.2,
        }
        .views();
        assert_eq!(views.len(), 4);
        for (i, v) in views.iter().enumerate() {
            match v {
                ViewSpec::Orbit {
                    angle,
                    radius_scale,
                    height_offset,
                } => {
                    let want = std::f32::consts::TAU * i as f32 / 4.0;
                    assert!((angle - want).abs() < 1e-6);
                    assert_eq!(*radius_scale, 1.5);
                    assert_eq!(*height_offset, -0.2);
                }
                other => panic!("expected orbit view, got {other:?}"),
            }
            assert!(v.validate().is_ok());
        }
    }

    #[test]
    fn priorities_order_interactive_first() {
        assert!(Priority::Interactive < Priority::Bulk);
        assert_eq!(Priority::ALL[0], Priority::Interactive);
        assert_eq!(Priority::Interactive.name(), "interactive");
        assert_eq!(Priority::Bulk.to_string(), "bulk");
        assert_eq!(Priority::default(), Priority::Interactive);
    }

    #[test]
    fn stream_config_clamps_the_window() {
        assert_eq!(StreamConfig::default().effective_window(), 4);
        assert_eq!(StreamConfig::default().with_window(0).effective_window(), 1);
        let bulk = StreamConfig::bulk().with_deadline(Duration::from_millis(5));
        assert_eq!(bulk.priority, Priority::Bulk);
        assert_eq!(bulk.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn inbox_delivers_in_order_and_terminal_after_the_prefix() {
        let inbox = Inbox::new(3);
        inbox.deliver(1, Err(ServeError::WorkerPanicked));
        inbox.deliver(0, Err(ServeError::ShuttingDown));
        let mut st = inbox.state.lock().unwrap();
        assert!(matches!(
            Inbox::try_take(&mut st),
            Ok(Some(Err(ServeError::ShuttingDown)))
        ));
        assert!(matches!(
            Inbox::try_take(&mut st),
            Ok(Some(Err(ServeError::WorkerPanicked)))
        ));
        // Frame 2 never completed: pending, then terminal once, then done.
        assert!(Inbox::try_take(&mut st).is_err());
        drop(st);
        inbox.fail(ServeError::ShuttingDown);
        let mut st = inbox.state.lock().unwrap();
        assert!(matches!(
            Inbox::try_take(&mut st),
            Ok(Some(Err(ServeError::ShuttingDown)))
        ));
        assert!(matches!(Inbox::try_take(&mut st), Ok(None)));
    }

    #[test]
    fn poisoned_inbox_resolves_with_a_terminal_error_instead_of_cascading() {
        // A thread panicking while holding the inbox lock poisons it; the
        // client-side accessors must recover and resolve the stream with
        // WorkerPanicked rather than propagate the panic into the client.
        let inbox = Inbox::new(2);
        let poisoner = std::sync::Arc::clone(&inbox);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("worker panic while holding the inbox lock");
        })
        .join();
        assert!(inbox.state.lock().is_err(), "the lock must be poisoned");
        // The first recovery injects the terminal; the stream is ready.
        assert!(inbox.is_ready());
        let mut st = recover(inbox.state.lock());
        assert!(matches!(
            Inbox::try_take(&mut st),
            Ok(Some(Err(ServeError::WorkerPanicked)))
        ));
        assert!(matches!(Inbox::try_take(&mut st), Ok(None)));
        drop(st);
        // Later deliveries and failures recover too (and are no-ops on
        // the now-done stream) instead of panicking on the sticky poison.
        inbox.deliver(1, Err(ServeError::ShuttingDown));
        inbox.fail(ServeError::ShuttingDown);
        assert!(matches!(
            Inbox::try_take(&mut recover(inbox.state.lock())),
            Ok(None)
        ));
    }
}
