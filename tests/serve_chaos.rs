//! Chaos suite: the serving layer under a deterministic fault storm.
//!
//! A seeded [`FaultPlan`] injects load failures (transient and fatal),
//! load panics, slow loads and render panics into a live service while
//! streams and single-frame submits run at both priorities. The storm is
//! a pure function of the plan seed, so failures replay; which stream
//! absorbs a given panic still depends on thread scheduling, so the
//! assertions are scheduling-independent:
//!
//! * **Zero stranded handles** — every stream and handle resolves (Ok or
//!   a typed error); nothing blocks forever.
//! * **The pool recovers to full width** — every worker panic is caught
//!   and respawned (`respawns > 0`, `lost_workers == 0`).
//! * **Fault-free epilogue is bit-identical** — after `disarm`, served
//!   frames match direct renders exactly: the storm leaves no residue in
//!   the pixels.
//! * **Bulk sheds before Interactive** — admission control turns away
//!   best-effort traffic first.

use std::sync::Arc;
use std::time::Duration;

use gcc_render::{RenderOptions, Renderer, StandardRenderer};
use gcc_scene::io::RetryPolicy;
use gcc_scene::{Scene, SceneConfig, ScenePreset, ViewSpec};
use gcc_serve::{
    ChaosRenderer, FaultPlan, LoadFault, Priority, RenderService, SceneSource, ServeConfig,
    ServeError, ShedPolicy, StreamConfig, StreamSpec,
};

mod ledger;
use ledger::assert_ledger;

fn scenes() -> Vec<(&'static str, Arc<Scene>)> {
    [("lego", ScenePreset::Lego), ("palace", ScenePreset::Palace)]
        .map(|(id, preset)| (id, Arc::new(preset.build(&SceneConfig::with_scale(0.02)))))
        .into_iter()
        .collect()
}

fn faulty_registry(
    scenes: &[(&'static str, Arc<Scene>)],
    plan: &Arc<FaultPlan>,
) -> Vec<(String, SceneSource)> {
    scenes
        .iter()
        .map(|(id, scene)| {
            (
                id.to_string(),
                SceneSource::faulty(
                    *id,
                    SceneSource::Memory(Arc::clone(scene)),
                    Arc::clone(plan),
                ),
            )
        })
        .collect()
}

/// Renderer table with every schedule's renderer wrapped in chaos
/// injection (panic draws happen on the worker, inside the batch).
fn chaos_renderers(plan: &Arc<FaultPlan>) -> gcc_serve::ScheduleRenderers {
    use gcc_render::Schedule;
    let mut table = gcc_serve::ScheduleRenderers::default();
    for schedule in Schedule::ALL {
        table = table.with(
            schedule,
            Box::new(ChaosRenderer::new(schedule.renderer(), Arc::clone(plan))),
        );
    }
    table
}

#[test]
fn fault_storm_resolves_every_stream_and_recovers_the_pool() {
    let scenes = scenes();
    // The seeded storm: ~15% transient / 5% fatal load failures, 5% load
    // panics, 5% slow loads, 3% render panics — plus one scripted load
    // panic so at least one respawn is guaranteed regardless of seed.
    let plan = Arc::new(
        FaultPlan::new(0xC4A0_5EED)
            .with_retryable_load_failures(150)
            .with_fatal_load_failures(50)
            .with_load_panics(50)
            .with_slow_loads(50, Duration::from_millis(2))
            .with_render_panics(30)
            .script_loads("lego", [Some(LoadFault::Panic)]),
    );
    let service = RenderService::with_renderers(
        ServeConfig {
            workers: 3,
            quarantine_for: Duration::from_millis(8),
            load_retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            ..ServeConfig::default()
        },
        faulty_registry(&scenes, &plan),
        chaos_renderers(&plan),
    );

    // The storm: alternating bulk streams and interactive submits over
    // both scenes. Everything is consumed to the end — a stranded stream
    // or handle hangs the test, which is exactly the failure mode the
    // suite exists to catch. A failing stream collapses its remaining
    // slots into one terminal error item, so the invariant is per
    // request: every admitted stream/handle *resolves* (yields at least
    // one item and ends), every rejected one carries a typed error.
    let mut delivered = 0u64;
    let mut failed = 0u64;
    let mut turned_away = 0u64;
    let mut resolved = 0u64;
    for round in 0..12 {
        let id = scenes[round % scenes.len()].0;
        // Pace the rounds so quarantine windows can lapse mid-storm and
        // half-open probes actually run (a back-to-back loop would spend
        // the whole storm inside the first quarantine window).
        std::thread::sleep(Duration::from_millis(3));
        let session = service
            .session(id, RenderOptions::default())
            .unwrap_or_else(|e| panic!("sessions always open: {e}"));
        match session.stream_with(
            StreamSpec::trajectory(4),
            StreamConfig::bulk().with_window(2),
        ) {
            Ok(stream) => {
                let mut items = 0u64;
                for item in stream {
                    items += 1;
                    match item {
                        Ok(_) => delivered += 1,
                        Err(
                            ServeError::Load { .. }
                            | ServeError::WorkerPanicked
                            | ServeError::ShuttingDown,
                        ) => failed += 1,
                        Err(other) => panic!("unexpected stream error: {other}"),
                    }
                }
                assert!(items >= 1, "an admitted stream always yields");
                resolved += 1;
            }
            Err(ServeError::Quarantined { .. } | ServeError::Overloaded { .. }) => turned_away += 1,
            Err(other) => panic!("unexpected open error: {other}"),
        }
        match session.submit(ViewSpec::trajectory((round as f32) / 12.0)) {
            Ok(handle) => {
                match handle.wait() {
                    Ok(_) => delivered += 1,
                    Err(
                        ServeError::Load { .. }
                        | ServeError::WorkerPanicked
                        | ServeError::ShuttingDown,
                    ) => failed += 1,
                    Err(other) => panic!("unexpected wait error: {other}"),
                }
                resolved += 1;
            }
            Err(ServeError::Quarantined { .. } | ServeError::Overloaded { .. }) => turned_away += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    // Every request resolved one way or another — nothing stranded.
    assert_eq!(resolved + turned_away, 24);
    assert!(delivered > 0, "the storm must not kill every request");
    assert!(failed > 0, "the scripted load panic fails its waiters");
    assert!(
        plan.injected_load_faults() > 0,
        "the storm must actually inject load faults"
    );

    let mid = service.stats();
    assert_ledger(&mid);
    assert!(mid.respawns >= 1, "the scripted load panic guarantees one");
    assert_eq!(
        mid.lost_workers, 0,
        "every panicked worker must be respawned (pool at full width)"
    );
    assert!(mid.quarantines() > 0, "fatal loads must trip the breaker");

    // Fault-free epilogue: disarm, let quarantines lapse, then require
    // bit-identical parity with direct renders — the storm left no
    // residue in cache, scratch or scheduling state.
    plan.disarm();
    std::thread::sleep(Duration::from_millis(30));
    let direct = StandardRenderer::reference();
    let options = RenderOptions::default();
    for (id, scene) in &scenes {
        for t in [0.0f32, 0.4, 0.8] {
            let frame = service
                .session(*id, options.clone())
                .and_then(|session| session.submit(ViewSpec::trajectory(t)))
                .unwrap_or_else(|e| panic!("epilogue submit for '{id}' rejected: {e}"))
                .wait()
                .unwrap_or_else(|e| panic!("epilogue render for '{id}' failed: {e}"));
            let cam = scene
                .resolve_view(&ViewSpec::trajectory(t), &options)
                .expect("valid epilogue view");
            let want = direct.render_frame(&scene.gaussians, &cam);
            assert_eq!(
                frame.image, want.image,
                "epilogue frame for '{id}' at t={t} is not bit-identical"
            );
        }
    }
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert_eq!(stats.lost_workers, 0);
    assert_eq!(
        stats.quarantined_scenes, 0,
        "healthy epilogue loads must readmit every scene"
    );
}

#[test]
fn bulk_sheds_before_interactive_under_watermark_pressure() {
    let scenes = scenes();
    let registry: Vec<(String, SceneSource)> = scenes
        .iter()
        .map(|(id, s)| (id.to_string(), SceneSource::Memory(Arc::clone(s))))
        .collect();
    let service = RenderService::new(
        ServeConfig {
            workers: 1,
            shed: ShedPolicy {
                bulk_stream_watermark: 2,
                max_streams: 8,
                ..ShedPolicy::default()
            },
            ..ServeConfig::default()
        },
        registry,
    );
    let session = service.session("lego", RenderOptions::default()).unwrap();
    // Two unconsumed bulk streams reach the watermark…
    let held: Vec<_> = (0..2)
        .map(|_| {
            session
                .stream_with(
                    StreamSpec::trajectory(3),
                    StreamConfig::bulk().with_window(1),
                )
                .expect("below the watermark bulk admits")
        })
        .collect();
    // …so the next bulk stream is rejected…
    assert!(matches!(
        session.stream_with(StreamSpec::trajectory(3), StreamConfig::bulk()),
        Err(ServeError::Overloaded { .. })
    ));
    // …while interactive traffic still admits and completes.
    let frame = service
        .session("palace", RenderOptions::default())
        .and_then(|session| session.submit(ViewSpec::trajectory(0.5)))
        .expect("interactive admits past the bulk watermark")
        .wait()
        .expect("interactive renders");
    assert!(frame.image.width() > 0);
    // The held streams still resolve completely — rejection never
    // cannibalizes admitted work.
    for stream in held {
        assert_eq!(stream.filter(Result::is_ok).count(), 3);
    }
    let stats = service.shutdown();
    assert_ledger(&stats);
    assert_eq!(stats.priority(Priority::Bulk).rejected, 1);
    assert_eq!(stats.priority(Priority::Bulk).shed, 0);
    assert_eq!(stats.priority(Priority::Interactive).rejected, 0);
    assert_eq!(stats.priority(Priority::Interactive).shed, 0);
    assert_eq!(stats.turned_away(), 1);
    assert_eq!(stats.frames, 7, "2×3 bulk + 1 interactive");
}

#[test]
fn render_panic_storm_with_backpressure_still_drains_every_stream() {
    // Pure render-panic storm (no load faults): every 5th render call
    // panics, streams run with tight windows at both priorities. The
    // supervision + inbox fan-out must resolve every frame slot.
    let scenes = scenes();
    let plan = Arc::new(FaultPlan::new(77).with_render_panics(200));
    let registry: Vec<(String, SceneSource)> = scenes
        .iter()
        .map(|(id, s)| (id.to_string(), SceneSource::Memory(Arc::clone(s))))
        .collect();
    let service = RenderService::with_renderers(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry,
        chaos_renderers(&plan),
    );
    // A panicked batch fails its whole stream through one terminal item,
    // so per-stream accounting is: some Ok frames, then at most one
    // WorkerPanicked, then the iterator ends. Run several rounds so the
    // service demonstrably keeps serving across respawns.
    let mut ok = 0u64;
    let mut stream_failures = 0u64;
    for round in 0..4 {
        for (id, _) in &scenes {
            let session = service.session(*id, RenderOptions::default()).unwrap();
            let stream = session
                .stream_with(StreamSpec::orbit(6), StreamConfig::default().with_window(2))
                .unwrap();
            let mut terminal = false;
            let mut items = 0u64;
            for item in stream {
                items += 1;
                assert!(!terminal, "nothing follows a terminal error");
                match item {
                    Ok(_) => ok += 1,
                    Err(ServeError::WorkerPanicked) => {
                        stream_failures += 1;
                        terminal = true;
                    }
                    Err(other) => panic!("unexpected error under render storm: {other}"),
                }
            }
            assert!(
                items >= 1,
                "stream (round {round}, '{id}') resolved nothing"
            );
        }
    }
    assert!(ok > 0, "the storm must not kill every frame");
    // Respawn accounting is asynchronous with respect to stream
    // resolution: the panicked batch fails its stream from a drop guard
    // *during* the unwind, while the supervisor counts the respawn only
    // after catching it — so briefly wait for the counter to converge on
    // the injected total before pinning it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.stats().respawns < plan.injected_render_panics()
        && std::time::Instant::now() < deadline
    {
        std::thread::yield_now();
    }
    let stats = service.stats();
    assert_ledger(&stats);
    assert!(
        stats.respawns >= 1,
        "a 20% panic rate over {} renders must trip at least once",
        ok
    );
    assert_eq!(stats.lost_workers, 0, "pool must recover to full width");
    assert_eq!(
        stats.respawns,
        plan.injected_render_panics(),
        "each injected panic costs exactly one respawn"
    );
    assert!(stream_failures >= 1, "some stream absorbed a panic");
    // Disarmed epilogue: the respawned pool serves a full stream clean.
    plan.disarm();
    let session = service
        .session(scenes[0].0, RenderOptions::default())
        .unwrap();
    let stream = session.stream(StreamSpec::orbit(5)).unwrap();
    assert_eq!(stream.filter(Result::is_ok).count(), 5);
    assert_ledger(&service.shutdown());
}
