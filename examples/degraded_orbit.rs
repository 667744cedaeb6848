//! Serving through a fault storm: the degraded-operation story of
//! DESIGN.md §11 in one sitting.
//!
//! A seeded `FaultPlan` injects transient load failures (absorbed by the
//! retry policy), one fatal load (tripping the scene-quarantine circuit
//! breaker) and a ~15% render-panic rate (each panic caught by worker
//! supervision and respawned) into a live service while an orbit client
//! keeps streaming. Failures surface as *typed errors on the affected
//! request* — never a stranded client, never a shrunken pool — and once
//! the plan is disarmed the same service serves clean again: quarantined
//! scenes readmit through a half-open probe and a full orbit delivers
//! every frame.
//!
//! Run with: `cargo run --release --example degraded_orbit`
//! (the respawn log lines on stderr are the supervisor doing its job)

use std::sync::Arc;
use std::time::Duration;

use gcc_repro::render::{RenderOptions, Schedule};
use gcc_repro::scene::io::RetryPolicy;
use gcc_repro::scene::{ScenePreset, ViewSpec};
use gcc_repro::serve::{
    ChaosRenderer, FaultPlan, LoadFault, RenderService, SceneSource, ScheduleRenderers,
    ServeConfig, ServeError, StreamConfig, StreamSpec,
};

fn main() {
    // The storm: palace's first two load attempts fail transiently,
    // lego's first load fails fatally, and ~15% of render calls panic.
    let plan = Arc::new(
        FaultPlan::new(0x0DE6_0B17)
            .with_render_panics(150)
            .script_loads(
                "palace",
                [
                    Some(LoadFault::FailRetryable),
                    Some(LoadFault::FailRetryable),
                ],
            )
            .script_loads("lego", [Some(LoadFault::FailFatal)]),
    );
    let registry =
        [("palace", ScenePreset::Palace), ("lego", ScenePreset::Lego)].map(|(id, preset)| {
            (
                id.to_string(),
                SceneSource::faulty(
                    id,
                    SceneSource::Preset {
                        preset,
                        scale: 0.05,
                    },
                    Arc::clone(&plan),
                ),
            )
        });
    let mut renderers = ScheduleRenderers::default();
    for schedule in Schedule::ALL {
        renderers = renderers.with(
            schedule,
            Box::new(ChaosRenderer::new(schedule.renderer(), Arc::clone(&plan))),
        );
    }
    let quarantine = Duration::from_millis(50);
    let service = RenderService::with_renderers(
        ServeConfig {
            workers: 2,
            quarantine_for: quarantine,
            load_retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(10),
            },
            ..ServeConfig::default()
        },
        registry,
        renderers,
    );

    // Orbit through the storm. Palace's transient load failures are
    // retried away invisibly; a render panic fails its stream with one
    // typed terminal error (the worker respawns and the next stream is
    // served by a full-width pool).
    println!("orbiting palace through the storm (~15% render panics) …");
    let session = service
        .session("palace", RenderOptions::default().at_resolution(320, 180))
        .expect("palace is registered");
    let mut delivered = 0u32;
    let mut absorbed_panics = 0u32;
    for round in 0..3 {
        let stream = session
            .stream_with(StreamSpec::orbit(6), StreamConfig::bulk().with_window(2))
            .expect("bulk admits under a load storm");
        for item in stream {
            match item {
                Ok(_) => delivered += 1,
                Err(ServeError::WorkerPanicked) => {
                    absorbed_panics += 1;
                    println!(
                        "  round {round}: a worker panicked mid-batch — the stream \
                         resolved with one typed error, the worker respawned"
                    );
                }
                Err(e) => println!("  round {round}: stream failed: {e}"),
            }
        }
    }
    println!("  {delivered} frames delivered, {absorbed_panics} streams absorbed a panic");

    // Lego's fatal load trips the circuit breaker: the waiting request
    // gets a typed load error, and follow-ups fail fast while the scene
    // is quarantined — no loader worker stalls on a known-bad source.
    let lego = service
        .session("lego", RenderOptions::default())
        .expect("lego is registered");
    match lego.submit(ViewSpec::trajectory(0.2)) {
        Ok(handle) => match handle.wait() {
            Err(e) => println!("first lego request: {e}"),
            Ok(_) => println!("first lego request unexpectedly rendered"),
        },
        Err(e) => println!("first lego request rejected at submit: {e}"),
    }
    match lego.submit(ViewSpec::trajectory(0.4)) {
        Err(e @ ServeError::Quarantined { .. }) => {
            println!("second lego request fails fast: {e}");
        }
        other => println!("second lego request: {:?}", other.map(|_| "admitted")),
    }

    // Recovery: disarm the plan, let the quarantine window lapse, and the
    // same service serves clean — the half-open probe readmits lego and a
    // full orbit delivers every frame.
    plan.disarm();
    std::thread::sleep(quarantine + Duration::from_millis(10));
    let frame = lego
        .submit(ViewSpec::trajectory(0.5))
        .expect("the half-open probe admits after the quarantine window")
        .wait()
        .expect("the probe load succeeds once the storm is over");
    println!(
        "after {quarantine:?}, the half-open probe readmitted lego: {}x{} px",
        frame.image.width(),
        frame.image.height()
    );
    let epilogue = session
        .stream_with(
            StreamSpec::orbit(6),
            StreamConfig::bulk()
                .with_window(2)
                .with_deadline(Duration::from_millis(150)),
        )
        .expect("epilogue stream opens");
    let clean = epilogue.filter(Result::is_ok).count();
    assert_eq!(clean, 6, "the disarmed service must deliver every frame");
    println!("disarmed epilogue: all {clean} orbit frames delivered clean");

    let stats = service.shutdown();
    println!(
        "\nsupervision: {} respawns, {} lost workers (pool back at full width)",
        stats.respawns, stats.lost_workers
    );
    println!(
        "loads: {} retries absorbed, {} quarantine trips, {} scenes still quarantined",
        stats.retries(),
        stats.quarantines(),
        stats.quarantined_scenes
    );
    assert_eq!(stats.lost_workers, 0, "every panic must be absorbed");
    assert!(stats.retries() >= 2, "palace's transient failures retried");
    assert!(
        stats.quarantines() >= 1,
        "lego's fatal load tripped the breaker"
    );
    assert_eq!(stats.quarantined_scenes, 0, "the probe readmitted lego");
}
