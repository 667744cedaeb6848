//! Heterogeneous serving through the session API: one `RenderService`,
//! many kinds of clients — a trajectory browser polling with
//! `wait_timeout`, a posed headset, a thumbnail generator asking for
//! small resolutions, a magnifier asking for a region of interest, and a
//! turntable driving the orbit directly. The service batches by
//! `(scene, schedule, resolution, priority)` and reports per-schedule
//! and per-priority breakdowns.
//!
//! Run with: `cargo run --release --example serve_views`

use std::time::Duration;

use gcc_math::Vec3;
use gcc_render::{RenderOptions, Roi, Schedule};
use gcc_scene::{ScenePreset, ViewSpec};
use gcc_serve::{RenderService, SceneSource, ServeConfig, ServeError};

fn main() {
    let service = RenderService::new(
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
        [
            (
                "lego".to_string(),
                SceneSource::Preset {
                    preset: ScenePreset::Lego,
                    scale: 0.1,
                },
            ),
            (
                "palace".to_string(),
                SceneSource::Preset {
                    preset: ScenePreset::Palace,
                    scale: 0.1,
                },
            ),
        ],
    );
    println!(
        "serving scenes {:?} on {} workers",
        service.scene_ids(),
        service.workers()
    );

    // A browser scrubbing the trajectory through one session (shared
    // defaults, warm scene), polling with a bounded wait instead of
    // blocking.
    let browser = service
        .session("lego", RenderOptions::default())
        .expect("lego session");
    let mut handles = Vec::new();
    for i in 0..4 {
        handles.push((
            format!("scrub t={:.2}", i as f32 / 4.0),
            browser
                .submit(ViewSpec::trajectory(i as f32 / 4.0))
                .unwrap(),
        ));
    }
    // A headset with an explicit pose, rendered by the GCC hardware
    // schedule at its panel resolution — its own session.
    let headset = service
        .session(
            "palace",
            RenderOptions::default()
                .with_schedule(Schedule::GccHardware)
                .at_resolution(256, 144),
        )
        .expect("palace session");
    handles.push((
        "headset pose".to_string(),
        headset
            .submit(ViewSpec::look_at(Vec3::new(4.0, 1.5, -6.0), Vec3::ZERO))
            .unwrap(),
    ));
    // A magnifier asking for the center of the frame only.
    let magnifier = service
        .session(
            "lego",
            RenderOptions::default().with_roi(Roi::new(40, 30, 80, 60)),
        )
        .expect("lego session");
    handles.push((
        "magnifier ROI".to_string(),
        magnifier.submit(ViewSpec::trajectory(0.5)).unwrap(),
    ));
    // A turntable client driving the orbit directly.
    let turntable = service
        .session("palace", RenderOptions::default())
        .expect("palace session");
    handles.push((
        "turntable".to_string(),
        turntable
            .submit(ViewSpec::Orbit {
                angle: 1.8,
                radius_scale: 1.2,
                height_offset: 0.3,
            })
            .unwrap(),
    ));

    for (label, mut handle) in handles {
        // Poll with a bounded wait — the UI thread shape. The handle
        // comes back on timeout, so no frame is ever lost to a poll.
        let frame = loop {
            match handle.wait_timeout(Duration::from_millis(20)) {
                Ok(result) => break result.expect("request served"),
                Err(back) => handle = back,
            }
        };
        println!(
            "{label:>14}: {}x{} px, {} Gaussians rendered",
            frame.image.width(),
            frame.image.height(),
            frame.stats.rendered
        );
    }

    // Bad requests fail fast with typed errors instead of reaching a
    // worker.
    match browser.submit(ViewSpec::trajectory(f32::NAN)) {
        Err(ServeError::InvalidRequest(e)) => println!("rejected as expected: {e}"),
        other => panic!("expected a typed rejection, got {other:?}"),
    }

    let stats = service.shutdown();
    println!(
        "\nserved {} frames in {} batches (hit rate {:.2}), p95 {:.2} ms",
        stats.frames,
        stats.batches,
        stats.hit_rate(),
        stats.latency_p95_ms
    );
    for (schedule, c) in &stats.per_schedule {
        println!(
            "  {:>13}: {} requests, {} frames, {} batches",
            schedule.name(),
            c.requests,
            c.frames,
            c.batches
        );
    }
    for (priority, c) in &stats.per_priority {
        println!(
            "  {:>13}: {} frames, p95 {:.2} ms",
            priority.name(),
            c.frames,
            c.latency_p95_ms
        );
    }
}
