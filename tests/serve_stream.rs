//! Stream lifecycle behavior of the session API: backpressure bounds,
//! cancellation releasing queued work, shutdown resolving in-flight
//! streams with `ShuttingDown`, bounded-wait polling, deadline
//! accounting, and the per-priority statistics split.
//!
//! Pixel-level parity of streamed frames lives in `tests/serve_parity.rs`;
//! this suite pins the *scheduling* contracts.

use std::sync::Arc;
use std::time::Duration;

use gcc_render::pipeline::{Frame, FrameScratch, RenderJob};
use gcc_render::{RenderOptions, Renderer, Schedule, StandardRenderer};
use gcc_scene::{Scene, SceneConfig, ScenePreset, ViewSpec};
use gcc_serve::{
    Priority, RenderService, SceneSource, ServeConfig, ServeError, StreamConfig, StreamPoll,
    StreamSpec,
};

mod ledger;
use ledger::assert_ledger;

fn registry(scale: f32) -> (Vec<Arc<Scene>>, Vec<(String, SceneSource)>) {
    let mut scenes = Vec::new();
    let mut reg = Vec::new();
    for (id, preset) in [("lego", ScenePreset::Lego), ("palace", ScenePreset::Palace)] {
        let scene = Arc::new(preset.build(&SceneConfig::with_scale(scale)));
        scenes.push(Arc::clone(&scene));
        reg.push((id.to_string(), SceneSource::Memory(scene)));
    }
    (scenes, reg)
}

/// A renderer that sleeps before delegating, to hold frames in flight
/// long enough for cancellation / timeout tests to observe them.
struct SlowRenderer {
    inner: StandardRenderer,
    delay: Duration,
}

impl SlowRenderer {
    fn boxed(delay_ms: u64) -> Box<dyn Renderer + Send + Sync> {
        Box::new(Self {
            inner: StandardRenderer::default(),
            delay: Duration::from_millis(delay_ms),
        })
    }
}

impl Renderer for SlowRenderer {
    fn render_job(&self, job: &RenderJob<'_>, scratch: &mut FrameScratch) -> Frame {
        std::thread::sleep(self.delay);
        self.inner.render_job(job, scratch)
    }
}

fn slow_service(reg: Vec<(String, SceneSource)>, workers: usize, delay_ms: u64) -> RenderService {
    RenderService::with_renderers(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        reg,
        gcc_serve::ScheduleRenderers::default()
            .with(Schedule::Standard, SlowRenderer::boxed(delay_ms)),
    )
}

#[test]
fn streams_deliver_in_order_under_the_backpressure_window() {
    let (scenes, reg) = registry(0.02);
    let service = RenderService::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        reg,
    );
    let session = service.session("lego", RenderOptions::default()).unwrap();
    let spec = StreamSpec::TrajectorySweep {
        t0: 0.0,
        t1: 1.0,
        frames: 8,
    };
    let window = 2;
    let views = spec.views();
    let stream = session
        .stream_with(spec, StreamConfig::bulk().with_window(window))
        .unwrap();
    assert_eq!(stream.len(), 8);
    let direct = StandardRenderer::default();
    let mut delivered = 0;
    for (frame, view) in stream.zip(&views) {
        let frame = frame.expect("stream frame");
        let cam = scenes[0]
            .resolve_view(view, &RenderOptions::default())
            .unwrap();
        let want = direct.render_frame(&scenes[0].gaussians, &cam);
        assert_eq!(frame.image, want.image, "stream order broke at {view:?}");
        delivered += 1;
    }
    assert_eq!(delivered, 8);
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert_eq!(stats.frames, 8);
    assert_eq!(stats.streams.opened, 1);
    assert_eq!(stats.streams.completed, 1);
    assert_eq!(stats.streams.cancelled, 0);
    // The single stream was the only client: the scheduler never held
    // more than `window` undelivered frames, so the queue high-water
    // mark is bounded by the window.
    assert!(
        stats.max_queue_depth <= window,
        "queue depth {} exceeded the window {window}",
        stats.max_queue_depth
    );
    assert_eq!(stats.priority(Priority::Bulk).frames, 8);
    assert_eq!(stats.priority(Priority::Bulk).requests, 8);
}

#[test]
fn cancellation_releases_queued_work() {
    let (_, reg) = registry(0.02);
    let service = slow_service(reg, 1, 25);
    let session = service.session("lego", RenderOptions::default()).unwrap();
    let mut stream = session
        .stream_with(
            StreamSpec::trajectory(6),
            StreamConfig::bulk().with_window(4),
        )
        .unwrap();
    // Consume one frame (so the stream is demonstrably live), then bail.
    let first = stream.next_frame().expect("first frame");
    first.expect("first frame renders");
    stream.cancel();
    // Cancellation is idempotent and the stream reports itself done.
    stream.cancel();
    assert!(stream.next_frame().is_none());
    assert!(matches!(stream.try_next(), StreamPoll::Done));
    // The service is still healthy: later requests are served.
    service
        .session("palace", RenderOptions::default())
        .unwrap()
        .render_blocking(ViewSpec::trajectory(0.5))
        .unwrap();
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert_eq!(stats.streams.cancelled, 1);
    assert!(
        stats.streams.frames_discarded >= 1,
        "cancel must free queued frames (discarded {})",
        stats.streams.frames_discarded
    );
    assert!(
        stats.frames < 7,
        "cancelled work must not all render ({} frames)",
        stats.frames
    );
    assert_eq!(stats.queue_depth, 0, "cancelled frames left the queue");
}

#[test]
fn dropping_a_stream_cancels_it() {
    let (_, reg) = registry(0.02);
    let service = slow_service(reg, 1, 25);
    let session = service.session("lego", RenderOptions::default()).unwrap();
    {
        let _abandoned = session
            .stream_with(
                StreamSpec::trajectory(6),
                StreamConfig::bulk().with_window(4),
            )
            .unwrap();
        // Dropped without consuming a single frame.
    }
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert_eq!(stats.streams.opened, 1);
    assert_eq!(stats.streams.cancelled, 1);
    assert_eq!(stats.streams.completed, 0);
    assert_eq!(stats.queue_depth, 0, "abandoned stream released its slots");
}

#[test]
fn shutdown_resolves_in_flight_streams_with_shutting_down() {
    let (_, reg) = registry(0.02);
    let service = RenderService::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        reg,
    );
    let session = service.session("lego", RenderOptions::default()).unwrap();
    let mut stream = session
        .stream_with(
            StreamSpec::trajectory(10),
            StreamConfig::bulk().with_window(2),
        )
        .unwrap();
    // Consume one frame, then shut the service down with the stream
    // mid-flight (8+ frames never issued).
    stream.next_frame().expect("first frame").expect("renders");
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert!(
        stats.frames < 10,
        "shutdown must not render the whole stream"
    );
    // The issued frames drained; the unissued remainder resolves with
    // ShuttingDown exactly once, then the stream ends.
    let mut oks = 0;
    let mut shutdowns = 0;
    for item in stream.by_ref() {
        match item {
            Ok(_) => oks += 1,
            Err(ServeError::ShuttingDown) => shutdowns += 1,
            Err(other) => panic!("unexpected stream error: {other}"),
        }
    }
    assert_eq!(shutdowns, 1, "exactly one terminal ShuttingDown");
    assert!(oks <= 2, "at most the windowed frames were still rendered");
    assert!(stream.next_frame().is_none(), "stream stays done");
}

#[test]
fn wait_timeout_polls_without_losing_the_frame() {
    let (_, reg) = registry(0.02);
    let service = slow_service(reg, 1, 60);
    let mut handle = service
        .session("lego", RenderOptions::default())
        .unwrap()
        .submit(ViewSpec::trajectory(0.3))
        .unwrap();
    assert!(!handle.is_ready(), "frame cannot be done instantly");
    // Poll with a timeout far below the render time: the handle comes
    // back so the frame is not lost.
    let mut timeouts = 0;
    let frame = loop {
        match handle.wait_timeout(Duration::from_millis(5)) {
            Ok(result) => break result.expect("request served"),
            Err(back) => {
                timeouts += 1;
                assert!(timeouts < 1000, "frame never arrived");
                handle = back;
            }
        }
    };
    assert!(frame.image.width() > 0);
    assert!(timeouts >= 1, "a 5ms poll must time out at least once");
    assert_ledger(&service.shutdown());
}

#[test]
fn zero_deadline_counts_every_frame_as_missed() {
    let (_, reg) = registry(0.02);
    let service = RenderService::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        reg,
    );
    let session = service.session("lego", RenderOptions::default()).unwrap();
    let stream = session
        .stream_with(
            StreamSpec::trajectory(4),
            StreamConfig::bulk().with_deadline(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(stream.filter(Result::is_ok).count(), 4);
    let stats = service.shutdown();
    assert_ledger(&stats);
    let bulk = stats.priority(Priority::Bulk);
    assert_eq!(bulk.with_deadline, 4);
    assert_eq!(bulk.deadline_misses, 4, "a zero deadline is always missed");
    assert_eq!(stats.deadline_misses(), 4);
    // Interactive saw no deadline-bearing traffic.
    assert_eq!(stats.priority(Priority::Interactive).with_deadline, 0);
}

#[test]
fn priorities_split_the_statistics() {
    let (_, reg) = registry(0.02);
    let service = RenderService::new(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        reg,
    );
    let session = service.session("lego", RenderOptions::default()).unwrap();
    let bulk = session
        .stream_with(StreamSpec::trajectory(5), StreamConfig::bulk())
        .unwrap();
    // Interleave interactive single frames with the bulk consumption.
    for t in [0.1f32, 0.6, 0.9] {
        session.render_blocking(ViewSpec::trajectory(t)).unwrap();
    }
    assert_eq!(bulk.filter(Result::is_ok).count(), 5);
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert_eq!(stats.priority(Priority::Bulk).frames, 5);
    assert_eq!(stats.priority(Priority::Interactive).frames, 3);
    assert_eq!(stats.priority(Priority::Bulk).requests, 5);
    assert_eq!(stats.priority(Priority::Interactive).requests, 3);
    assert_eq!(stats.frames, 8);
    // Streams: one bulk + three single-frame shims.
    assert_eq!(stats.streams.opened, 4);
    assert_eq!(stats.streams.completed, 4);
}

#[test]
fn empty_and_invalid_stream_specs_are_rejected_at_open() {
    let (_, reg) = registry(0.02);
    let service = RenderService::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        reg,
    );
    let session = service.session("lego", RenderOptions::default()).unwrap();
    assert_eq!(
        session
            .stream(StreamSpec::ViewList(Vec::new()))
            .unwrap_err(),
        ServeError::EmptyStream
    );
    assert_eq!(
        session.stream(StreamSpec::trajectory(0)).unwrap_err(),
        ServeError::EmptyStream
    );
    // A NaN sweep endpoint propagates into every generated view and is
    // caught by validation before any frame is issued.
    assert!(matches!(
        session.stream(StreamSpec::TrajectorySweep {
            t0: f32::NAN,
            t1: 1.0,
            frames: 3,
        }),
        Err(ServeError::InvalidRequest(_))
    ));
    // Out-of-range sweeps too.
    assert!(matches!(
        session.stream(StreamSpec::TrajectorySweep {
            t0: 0.0,
            t1: 1.5,
            frames: 3,
        }),
        Err(ServeError::InvalidRequest(_))
    ));
    // Session defaults are validated when the session opens.
    assert!(matches!(
        service.session(
            "lego",
            RenderOptions::default().with_roi(gcc_render::Roi::new(0, 0, 0, 4)),
        ),
        Err(ServeError::InvalidRequest(_))
    ));
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert_eq!(stats.streams.opened, 0);
    assert_eq!(stats.frames, 0);
}
