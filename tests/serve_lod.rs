//! Scheduling behavior of the deadline-aware quality ladder
//! (`ServeConfig::lod`): cold scenes start at the floor rung and climb
//! back under generous deadlines, hopeless deadlines pin the floor,
//! deadline-free frames bypass the ladder entirely (and stay
//! bit-identical to ladder-off serving), load-time hierarchy builds are
//! charged to the cache budget, and every frame is lent the cores no
//! other worker — of its own service or another in the process, rendering
//! or loading — is busy on.
//!
//! The lending ledger is process-wide, so a service running in one test
//! would change the counts another test asserts (a lent thread count, or
//! a ladder decision priced at one). Every test here runs a service, and
//! every one holds [`lending`] while it does.
//!
//! The ladder over a whole paced stream is the repo benchmark's
//! `deadline_lod` workload, whose bounded `delivered_ssim_mean` falls
//! when the ladder sits on the floor rung.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use gcc_parallel::available_threads;
use gcc_render::pipeline::{Frame, FrameScratch, RenderJob};
use gcc_render::{RenderOptions, Renderer, Schedule};
use gcc_scene::{Scene, SceneConfig, ScenePreset, ViewSpec};
use gcc_serve::{
    FaultPlan, LoadFault, LodPolicy, RenderHandle, RenderService, SceneSource, ScheduleRenderers,
    ServeConfig, ServeError, StreamConfig, StreamSpec,
};

/// Serializes the tests of this file: none of them takes a loan while
/// another counts them. A failed test poisons nothing the next one needs.
fn lending() -> MutexGuard<'static, ()> {
    static LENDING: Mutex<()> = Mutex::new(());
    LENDING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One frame of `scene` at trajectory `t`, default options.
fn submit(svc: &RenderService, scene: &str, t: f32) -> Result<RenderHandle, ServeError> {
    svc.session(scene, RenderOptions::default())?
        .submit(ViewSpec::trajectory(t))
}

fn lego(scale: f32) -> Arc<Scene> {
    Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(scale)))
}

fn service(scene: &Arc<Scene>, lod: Option<LodPolicy>) -> RenderService {
    RenderService::new(
        ServeConfig {
            workers: 1,
            lod,
            ..ServeConfig::default()
        },
        [("lego".to_string(), SceneSource::Memory(Arc::clone(scene)))],
    )
}

/// Streams `frames` deadline-carrying frames sequentially (window 1, so
/// each dispatch sees the cost observations of its predecessors).
fn run_deadline_sweep(svc: &RenderService, scene: &Scene, frames: usize, deadline: Duration) {
    let session = svc.session("lego", Default::default()).unwrap();
    let stream = session
        .stream_with(
            StreamSpec::TrajectorySweep {
                t0: 0.0,
                t1: 0.8,
                frames,
            },
            StreamConfig::default()
                .with_window(1)
                .with_deadline(deadline),
        )
        .unwrap();
    for (i, frame) in stream.enumerate() {
        let frame = frame.unwrap_or_else(|e| panic!("frame {i} failed: {e}"));
        // Degraded or not, the client always receives the geometry it
        // asked for (reduced renders are upscaled back).
        assert_eq!(
            (frame.image.width(), frame.image.height()),
            scene.resolution,
            "frame {i} came back the wrong size"
        );
    }
}

#[test]
fn ladder_off_is_the_default_and_reports_disabled() {
    let _lending = lending();
    let scene = lego(0.02);
    let svc = service(&scene, None);
    run_deadline_sweep(&svc, &scene, 3, Duration::from_secs(60));
    let stats = svc.shutdown();
    assert!(!stats.lod.enabled);
    assert_eq!(stats.lod.ladder_frames(), 0);
    assert_eq!(stats.lod.degraded_frames, 0);
    assert!(stats.lod.recent.is_empty());
}

#[test]
fn cold_scenes_floor_then_climb_back_under_generous_deadlines() {
    let _lending = lending();
    let scene = lego(0.02);
    let svc = service(&scene, Some(LodPolicy::default()));
    let floor = LodPolicy::default().ladder.floor();
    run_deadline_sweep(&svc, &scene, 6, Duration::from_secs(60));
    let stats = svc.shutdown();
    assert!(stats.lod.enabled);
    assert_eq!(stats.lod.ladder_frames(), 6);
    // The very first dispatch has no cost data: it must take the
    // miss-proof floor rung. From there the generous deadline probes one
    // rung up per frame, so the fourth frame is back at full quality.
    let first = stats.lod.recent.first().expect("decisions were traced");
    assert_eq!(first.rung as usize, floor);
    assert!(stats.lod.frames_by_rung[floor] >= 1);
    assert!(
        stats.lod.frames_by_rung[0] >= 1,
        "never recovered to full quality: {:?}",
        stats.lod.frames_by_rung
    );
    assert!(stats.lod.recoveries >= 1);
    // 60-second deadlines are never missed.
    for p in stats.per_priority.values() {
        assert_eq!(p.deadline_misses, 0);
    }
}

#[test]
fn hopeless_deadlines_pin_the_floor_rung() {
    let _lending = lending();
    let scene = lego(0.02);
    let svc = service(&scene, Some(LodPolicy::default()));
    let floor = LodPolicy::default().ladder.floor();
    run_deadline_sweep(&svc, &scene, 4, Duration::from_nanos(1));
    let stats = svc.shutdown();
    // Zero remaining budget fits nothing: every frame renders at the
    // floor (and is still delivered, full-size — the ladder degrades
    // frames, it never drops them).
    assert_eq!(stats.lod.frames_by_rung[floor], 4);
    assert_eq!(stats.lod.degraded_frames, 4);
    assert_eq!(stats.lod.frames_by_rung[0], 0);
    for d in &stats.lod.recent {
        assert!(d.missed, "a 1ns deadline cannot be met");
    }
}

#[test]
fn deadline_free_frames_bypass_the_ladder_and_stay_bit_identical() {
    let _lending = lending();
    let scene = lego(0.02);
    let ladder_on = service(&scene, Some(LodPolicy::default()));
    let ladder_off = service(&scene, None);
    for t in [0.1f32, 0.55] {
        let a = submit(&ladder_on, "lego", t)
            .and_then(RenderHandle::wait)
            .unwrap();
        let b = submit(&ladder_off, "lego", t)
            .and_then(RenderHandle::wait)
            .unwrap();
        assert_eq!(a.image, b.image, "ladder-on diverged at t {t}");
    }
    let stats = ladder_on.shutdown();
    assert!(stats.lod.enabled);
    // Completed frames, none dispatched through the ladder.
    assert_eq!(stats.frames, 2);
    assert_eq!(stats.lod.ladder_frames(), 0);
    assert_eq!(stats.lod.degraded_frames, 0);
}

#[test]
fn hierarchies_are_built_on_load_and_charged_to_the_cache() {
    let _lending = lending();
    let scene = lego(0.03);
    assert!(scene.lod.is_none());
    let plain_bytes = scene.approx_bytes();

    let svc = service(&scene, Some(LodPolicy::default()));
    submit(&svc, "lego", 0.2)
        .and_then(RenderHandle::wait)
        .unwrap();
    let with_lod = svc.stats().resident_bytes;
    svc.shutdown();

    let svc = service(&scene, None);
    submit(&svc, "lego", 0.2)
        .and_then(RenderHandle::wait)
        .unwrap();
    let without = svc.stats().resident_bytes;
    svc.shutdown();

    assert_eq!(without, plain_bytes);
    assert!(
        with_lod > plain_bytes,
        "load-time hierarchy not charged: {with_lod} vs {plain_bytes}"
    );
    // The source's own scene is untouched (the build copies on write).
    assert!(scene.lod.is_none());
}

/// Renders through the standard schedule after noting how many threads
/// the job was handed (1 when the job names none) and, when set up to,
/// after reporting in on `entered` and waiting for a go on `release`.
struct Recording {
    inner: Box<dyn Renderer + Send + Sync>,
    threads: Arc<Mutex<Vec<usize>>>,
    gate: Option<Mutex<(Sender<()>, Receiver<()>)>>,
}

impl Recording {
    fn boxed(
        threads: &Arc<Mutex<Vec<usize>>>,
        gate: Option<(Sender<()>, Receiver<()>)>,
    ) -> Box<Self> {
        Box::new(Self {
            inner: Schedule::Standard.renderer(),
            threads: Arc::clone(threads),
            gate: gate.map(Mutex::new),
        })
    }
}

impl Renderer for Recording {
    fn render_job(&self, job: &RenderJob<'_>, scratch: &mut FrameScratch) -> Frame {
        let threads = job.parallelism.map_or(1, |p| p.threads());
        self.threads.lock().unwrap().push(threads);
        if let Some(gate) = &self.gate {
            let (entered, release) = &*gate.lock().unwrap();
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.render_job(job, scratch)
    }
}

fn stream_frames(svc: &RenderService, options: RenderOptions, config: StreamConfig) {
    let session = svc.session("lego", options).unwrap();
    for frame in session.stream_with(StreamSpec::orbit(3), config).unwrap() {
        frame.unwrap();
    }
}

/// The host's thread count less `others` busy cores, as the lending rule
/// clamps it. Prints the host's count, because what a lending test can
/// tell apart depends on it (on a 1-thread host every count is 1).
fn host_less(others: usize) -> usize {
    let host = available_threads();
    println!("host threads: {host}");
    host.saturating_sub(others).max(1)
}

#[test]
fn every_frame_borrows_the_idle_cores() {
    let _lending = lending();
    let scene = lego(0.02);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let svc = RenderService::with_renderers(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        [("lego".to_string(), SceneSource::Memory(Arc::clone(&scene)))],
        ScheduleRenderers::default().with(Schedule::Standard, Recording::boxed(&seen, None)),
    );
    // One worker: nobody else is busy, so whatever the frame carries —
    // a deadline or none, either priority — it is offered the host. That
    // goes for the very first frame too, which its worker renders
    // straight after loading the scene: the load and the batch count one
    // after the other, never twice.
    let host = host_less(0);
    let deadline = Duration::from_secs(60);
    for config in [
        StreamConfig::default().with_deadline(deadline),
        StreamConfig::default(),
        StreamConfig::bulk(),
        StreamConfig::bulk().with_deadline(deadline),
    ] {
        seen.lock().unwrap().clear();
        stream_frames(&svc, RenderOptions::default(), config);
        assert_eq!(*seen.lock().unwrap(), [host; 3], "{config:?}");
    }
    svc.shutdown();
}

#[test]
fn a_core_another_worker_is_rendering_on_is_not_lent() {
    let _lending = lending();
    let scene = lego(0.02);
    let (seen, blocked) = (
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    );
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let blocking = Recording::boxed(&blocked, Some((entered_tx, release_rx)));
    let svc = RenderService::with_renderers(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        [("lego".to_string(), SceneSource::Memory(Arc::clone(&scene)))],
        ScheduleRenderers::default()
            .with(Schedule::Standard, Recording::boxed(&seen, None))
            .with(Schedule::Gscore, blocking),
    );
    // Park one worker inside a render (it started alone, on the whole
    // host)...
    let parked = svc
        .session(
            "lego",
            RenderOptions::default().with_schedule(Schedule::Gscore),
        )
        .and_then(|session| session.submit(ViewSpec::trajectory(0.1)))
        .unwrap();
    entered.recv().unwrap();
    // ...and the frames the other worker picks up get every core but
    // that one.
    stream_frames(&svc, RenderOptions::default(), StreamConfig::default());
    assert_eq!(*seen.lock().unwrap(), [host_less(1); 3]);
    release.send(()).unwrap();
    parked.wait().unwrap();
    assert_eq!(*blocked.lock().unwrap(), [host_less(0)]);
    svc.shutdown();
}

/// A scene "file" whose load blocks until the test lets it go: a FIFO.
/// The loader's `fs::read` cannot open it before a writer does and reads
/// until the writer closes — a gate made of the real load path, with no
/// sleep on either side.
#[cfg(unix)]
struct GatedSceneFile {
    path: std::path::PathBuf,
}

#[cfg(unix)]
impl GatedSceneFile {
    fn create(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("gcc_{name}_{}.fifo", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let made = std::process::Command::new("mkfifo")
            .arg(&path)
            .status()
            .expect("run mkfifo");
        assert!(made.success(), "mkfifo {}", path.display());
        Self { path }
    }

    /// Returns once a loader is inside its read of the file, with the
    /// write end that keeps it there.
    fn wait_for_loader(&self) -> std::fs::File {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .expect("open the FIFO's write end")
    }
}

#[cfg(unix)]
impl Drop for GatedSceneFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(unix)]
#[test]
fn a_core_another_worker_is_loading_on_is_not_lent() {
    let _lending = lending();
    let scene = lego(0.02);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let gated = GatedSceneFile::create("serve_lod_gated");
    let svc = RenderService::with_renderers(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        [
            ("lego".to_string(), SceneSource::Memory(Arc::clone(&scene))),
            ("cold".to_string(), SceneSource::File(gated.path.clone())),
        ],
        ScheduleRenderers::default().with(Schedule::Standard, Recording::boxed(&seen, None)),
    );
    // Alone on the service: the host.
    stream_frames(&svc, RenderOptions::default(), StreamConfig::default());
    // Park one worker inside the load of the cold scene...
    let cold = submit(&svc, "cold", 0.1).unwrap();
    let mut gate = gated.wait_for_loader();
    // ...and the frames the other worker renders meanwhile get every
    // core but the loader's.
    stream_frames(&svc, RenderOptions::default(), StreamConfig::default());
    // Let the load finish before asserting anything: a failed assertion
    // must not leave a worker blocked in `read` under the service's drop.
    gcc_scene::io::write_binary(&scene, &mut gate).expect("feed the gated load");
    drop(gate);
    cold.wait().expect("the gated scene loads and renders");
    let (host, lent) = (host_less(0), host_less(1));
    assert_eq!(
        seen.lock().unwrap()[..6],
        [host, host, host, lent, lent, lent]
    );
    svc.shutdown();
}

#[test]
fn a_loader_that_fails_or_panics_gives_its_core_back() {
    let _lending = lending();
    let scene = lego(0.02);
    let seen = Arc::new(Mutex::new(Vec::new()));
    for (id, fault) in [
        ("fails", LoadFault::FailFatal),
        ("panics", LoadFault::Panic),
    ] {
        // A fresh service per fault, so no frame rendered before the
        // fault is still holding its loan: a worker delivers its last
        // frame a moment before it stops counting as busy.
        let plan = Arc::new(FaultPlan::new(1).script_loads(id, [Some(fault)]));
        let inner = SceneSource::Memory(Arc::clone(&scene));
        let svc = RenderService::with_renderers(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            [
                ("lego".to_string(), SceneSource::Memory(Arc::clone(&scene))),
                (id.to_string(), SceneSource::faulty(id, inner, plan)),
            ],
            ScheduleRenderers::default().with(Schedule::Standard, Recording::boxed(&seen, None)),
        );
        // The load's outcome reaches the client only after the loader
        // stopped counting as busy, so the next frames see the whole host.
        submit(&svc, id, 0.1)
            .and_then(RenderHandle::wait)
            .expect_err("the scripted load fault surfaces");
        seen.lock().unwrap().clear();
        stream_frames(&svc, RenderOptions::default(), StreamConfig::default());
        assert_eq!(*seen.lock().unwrap(), [host_less(0); 3], "after '{id}'");
        svc.shutdown();
    }
}

#[test]
fn a_core_another_service_is_rendering_on_is_not_lent() {
    let _lending = lending();
    let scene = lego(0.02);
    let (entered_tx, entered) = channel();
    let (mut seen, mut releases, mut services) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let (release, release_rx) = channel();
        let gated = Recording::boxed(&threads, Some((entered_tx.clone(), release_rx)));
        services.push(RenderService::with_renderers(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            [("lego".to_string(), SceneSource::Memory(Arc::clone(&scene)))],
            ScheduleRenderers::default().with(Schedule::Standard, gated),
        ));
        seen.push(threads);
        releases.push(release);
    }
    // Park the first service's worker inside a render, then the
    // second's: two services, one process, one set of cores.
    let parked: Vec<RenderHandle> = services
        .iter()
        .map(|svc| {
            let frame = submit(svc, "lego", 0.1).unwrap();
            entered.recv().unwrap();
            frame
        })
        .collect();
    // Let both go before asserting anything, so a failed assertion does
    // not leave a worker parked under its service's drop.
    for release in &releases {
        release.send(()).unwrap();
    }
    for frame in parked {
        frame.wait().unwrap();
    }
    assert_eq!(*seen[0].lock().unwrap(), [host_less(0)]);
    assert_eq!(*seen[1].lock().unwrap(), [host_less(1)]);
    for svc in services {
        svc.shutdown();
    }
}
