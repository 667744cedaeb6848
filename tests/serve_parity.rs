//! Serving-layer determinism and end-to-end residency behavior, driven
//! through the full stack: file-backed scene sources (`gcc_scene::io`),
//! the LRU scene cache, the batching worker pool, and the full request
//! space of the redesigned API — per-request schedules, explicit-pose
//! cameras, resolution overrides and regions of interest.
//!
//! The load-bearing contract: a frame served by `RenderService` is
//! bit-identical to a direct `Renderer::render_job` call with the same
//! scene, resolved camera and options — batching, scratch reuse across
//! requests, cache evictions and scheduling order never leak into pixels
//! or counters.

use std::sync::Arc;

use gcc_math::Vec3;
use gcc_render::pipeline::FrameScratch;
use gcc_render::{RenderJob, RenderOptions, Renderer, Roi, Schedule, StandardRenderer};
use gcc_scene::{io, Scene, SceneConfig, ScenePreset, ViewSpec};
use gcc_serve::{RenderService, SceneSource, ServeConfig, StreamConfig, StreamSpec};

fn small(preset: ScenePreset, scale: f32) -> Scene {
    preset.build(&SceneConfig::with_scale(scale))
}

/// Registry entries plus direct copies of the scenes behind them.
type RegistryAndScenes = (Vec<(String, SceneSource)>, Vec<(String, Arc<Scene>)>);

/// Writes the scenes as on-disk files (binary and JSON alternating) and
/// returns the registry plus direct copies for reference renders.
fn file_registry(dir: &std::path::Path) -> RegistryAndScenes {
    std::fs::create_dir_all(dir).unwrap();
    let mut registry = Vec::new();
    let mut direct = Vec::new();
    for (i, (id, preset, scale)) in [
        ("lego", ScenePreset::Lego, 0.04),
        ("palace", ScenePreset::Palace, 0.04),
        ("train", ScenePreset::Train, 0.015),
    ]
    .into_iter()
    .enumerate()
    {
        let scene = small(preset, scale);
        let path = dir.join(format!("{id}.scene"));
        if i % 2 == 0 {
            io::write_binary_file(&scene, &path).unwrap();
        } else {
            io::write_json_file(&scene, &path).unwrap();
        }
        registry.push((id.to_string(), SceneSource::File(path)));
        direct.push((id.to_string(), Arc::new(scene)));
    }
    (registry, direct)
}

/// Renders `view` with `options` directly (fresh renderer + scratch),
/// bypassing the service — the parity reference for a served frame.
fn direct_render(scene: &Scene, view: &ViewSpec, options: &RenderOptions) -> gcc_render::Frame {
    let cam = scene
        .resolve_view(view, options)
        .expect("parity requests are valid");
    let renderer = options.schedule.renderer();
    renderer.render_job(
        &RenderJob::with_options(&scene.gaussians, &cam, options.clone()),
        &mut FrameScratch::new(),
    )
}

/// One single frame: a session on `scene` with `options` submits `view`.
type Request = (&'static str, ViewSpec, RenderOptions);

fn submit(service: &RenderService, (scene, view, options): &Request) -> gcc_serve::RenderHandle {
    service
        .session(*scene, options.clone())
        .and_then(|session| session.submit(view.clone()))
        .expect("parity requests are valid")
}

#[test]
fn served_frames_are_bit_identical_to_direct_renders_for_both_schedules() {
    let dir = std::env::temp_dir().join(format!("gcc_serve_parity_{}", std::process::id()));
    let (registry, direct) = file_registry(&dir);

    for schedule in [Schedule::Standard, Schedule::GaussianWise] {
        let service = RenderService::new(
            ServeConfig {
                workers: 3,
                max_batch: 4,
                ..ServeConfig::default()
            },
            registry.clone(),
        );
        // Interleave scenes and viewpoints so batches mix, then verify
        // every frame against a fresh direct render.
        let reqs: Vec<Request> = (0..9)
            .map(|i| {
                (
                    ["lego", "palace", "train"][i % 3],
                    ViewSpec::trajectory(i as f32 / 9.0),
                    RenderOptions::default().with_schedule(schedule),
                )
            })
            .collect();
        let handles: Vec<_> = reqs.iter().map(|r| submit(&service, r)).collect();
        for ((id, view, options), handle) in reqs.iter().zip(handles) {
            let frame = handle.wait().unwrap();
            let scene = &direct.iter().find(|(s, _)| s == id).unwrap().1;
            let want = direct_render(scene, view, options);
            assert_eq!(frame.image, want.image, "{schedule} diverged on {id}");
            assert_eq!(frame.stats, want.stats);
        }
        let stats = service.shutdown();
        assert_eq!(stats.frames, 9);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.per_schedule[&schedule].frames, 9);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heterogeneous_request_space_is_bit_identical_to_direct_renders() {
    // The redesigned request space end-to-end: explicit poses, orbit
    // angles, non-default resolutions, ROIs, per-request schedules,
    // background overrides and quality knobs — all through one service,
    // all bit-identical to direct renders.
    let dir = std::env::temp_dir().join(format!("gcc_serve_hetero_{}", std::process::id()));
    let (registry, direct) = file_registry(&dir);
    let service = RenderService::new(
        ServeConfig {
            workers: 3,
            max_batch: 4,
            ..ServeConfig::default()
        },
        registry,
    );

    let reqs: Vec<Request> = vec![
        // Trajectory + non-default schedule.
        (
            "lego",
            ViewSpec::trajectory(0.3),
            RenderOptions::default().with_schedule(Schedule::Gscore),
        ),
        // Explicit pose at a non-default resolution.
        (
            "palace",
            ViewSpec::look_at(Vec3::new(3.0, 2.0, -5.0), Vec3::ZERO),
            RenderOptions::default().at_resolution(192, 108),
        ),
        // Orbit view through the GCC hardware schedule.
        (
            "train",
            ViewSpec::Orbit {
                angle: 2.1,
                radius_scale: 1.3,
                height_offset: 0.4,
            },
            RenderOptions::default().with_schedule(Schedule::GccHardware),
        ),
        // ROI at native resolution, Gaussian-wise.
        (
            "lego",
            ViewSpec::trajectory(0.6),
            RenderOptions::default()
                .with_schedule(Schedule::GaussianWise)
                .with_roi(Roi::new(30, 20, 70, 50)),
        ),
        // ROI at an overridden resolution, standard.
        (
            "palace",
            ViewSpec::trajectory(0.8),
            RenderOptions::default()
                .at_resolution(160, 120)
                .with_roi(Roi::new(40, 24, 64, 48)),
        ),
        // Background override + quality knobs.
        (
            "train",
            ViewSpec::trajectory(0.1),
            RenderOptions::default()
                .on_background(Vec3::new(0.1, 0.2, 0.3))
                .with_alpha_min(0.02)
                .with_sh_degree(1),
        ),
    ];
    let handles: Vec<_> = reqs.iter().map(|r| submit(&service, r)).collect();
    for ((id, view, options), handle) in reqs.iter().zip(handles) {
        let frame = handle.wait().unwrap();
        let scene = &direct.iter().find(|(s, _)| s == id).unwrap().1;
        let want = direct_render(scene, view, options);
        assert_eq!(
            frame.image, want.image,
            "served {options:?} on {id} diverged from the direct render"
        );
        assert_eq!(frame.stats, want.stats);
        // Output shaping actually happened.
        if let Some(roi) = &options.roi {
            assert_eq!(frame.image.width(), roi.width);
            assert_eq!(frame.image.height(), roi.height);
        } else if let Some((w, h)) = options.resolution {
            assert_eq!((frame.image.width(), frame.image.height()), (w, h));
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.frames, 6);
    assert_eq!(stats.per_schedule.len(), 4, "four schedules saw traffic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_frames_are_bit_identical_to_single_frame_submits() {
    // The session-API acceptance contract: a stream is *defined* as the
    // sequence of its views submitted one by one — same pixels, same
    // stats, bit for bit — regardless of priority class, window size,
    // worker count or how batches interleave.
    let dir = std::env::temp_dir().join(format!("gcc_serve_stream_{}", std::process::id()));
    let (registry, _) = file_registry(&dir);

    let specs: Vec<(StreamSpec, RenderOptions)> = vec![
        (
            StreamSpec::TrajectorySweep {
                t0: 0.1,
                t1: 0.9,
                frames: 6,
            },
            RenderOptions::default(),
        ),
        (
            StreamSpec::orbit(5),
            RenderOptions::default().with_schedule(Schedule::GaussianWise),
        ),
        (
            StreamSpec::ViewList(vec![
                ViewSpec::trajectory(0.4),
                ViewSpec::look_at(Vec3::new(3.0, 2.0, -5.0), Vec3::ZERO),
                ViewSpec::orbit(2.2),
            ]),
            RenderOptions::default()
                .with_schedule(Schedule::Gscore)
                .at_resolution(160, 120),
        ),
    ];

    for workers in [1usize, 3] {
        for (spec, options) in &specs {
            // Streamed, bulk priority, small window (forces refills).
            let streamed: Vec<_> = {
                let service = RenderService::new(
                    ServeConfig {
                        workers,
                        max_batch: 3,
                        ..ServeConfig::default()
                    },
                    registry.clone(),
                );
                let session = service.session("lego", options.clone()).unwrap();
                let stream = session
                    .stream_with(spec.clone(), StreamConfig::bulk().with_window(2))
                    .unwrap();
                stream.map(|r| r.expect("stream frame")).collect()
            };
            // The equivalent single-frame submit sequence.
            let submitted: Vec<_> = {
                let service = RenderService::new(
                    ServeConfig {
                        workers,
                        max_batch: 3,
                        ..ServeConfig::default()
                    },
                    registry.clone(),
                );
                let session = service.session("lego", options.clone()).unwrap();
                let handles: Vec<_> = spec
                    .views()
                    .into_iter()
                    .map(|view| session.submit(view).unwrap())
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.wait().expect("submitted frame"))
                    .collect()
            };
            assert_eq!(streamed.len(), submitted.len());
            for (i, (a, b)) in streamed.iter().zip(&submitted).enumerate() {
                assert_eq!(
                    a.image, b.image,
                    "frame {i} of {spec:?} diverged ({workers} workers)"
                );
                assert_eq!(a.stats, b.stats, "stats of frame {i} diverged");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_streams_on_lent_cores_are_bit_identical_to_sequential_renders() {
    // A deadline-carrying frame renders on every core no other worker is
    // using — on a one-worker service, all of them. However many threads
    // that is on this host, image and `FrameStats` must equal the direct
    // sequential render, for every schedule.
    let dir = std::env::temp_dir().join(format!("gcc_serve_lent_{}", std::process::id()));
    let (registry, direct) = file_registry(&dir);
    let scene = &direct.iter().find(|(id, _)| id == "lego").unwrap().1;
    let service = RenderService::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        registry,
    );
    for schedule in Schedule::ALL {
        let options = RenderOptions::default().with_schedule(schedule);
        let spec = StreamSpec::orbit(4);
        let session = service.session("lego", options.clone()).unwrap();
        let stream = session
            .stream_with(
                spec.clone(),
                StreamConfig::default()
                    .with_window(2)
                    .with_deadline(std::time::Duration::from_secs(60)),
            )
            .unwrap();
        for (i, (frame, view)) in stream.zip(spec.views()).enumerate() {
            let frame = frame.expect("stream frame");
            let want = direct_render(scene, &view, &options);
            assert_eq!(frame.image, want.image, "{schedule} frame {i} diverged");
            assert_eq!(frame.stats, want.stats, "{schedule} frame {i} stats");
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.frames, 16);
    assert_eq!(stats.deadline_misses(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_lent_frame_is_bit_identical_to_a_sequential_render() {
    // Lending is not a deadline's privilege: on a one-worker service
    // nobody else is ever busy, so every frame — either priority, no
    // deadline — is offered all of the host's threads. Whatever it takes
    // of them, image and every `FrameStats` field must equal the direct
    // sequential render, for every schedule, full frame and ROI.
    let dir = std::env::temp_dir().join(format!("gcc_serve_lent_all_{}", std::process::id()));
    let (registry, direct) = file_registry(&dir);
    let service = RenderService::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        registry,
    );
    println!("host threads: {}", gcc_parallel::available_threads());
    let spec = StreamSpec::orbit(2);
    let mut frames = 0;
    for id in ["lego", "train"] {
        let scene = &direct.iter().find(|(s, _)| s == id).unwrap().1;
        for schedule in Schedule::ALL {
            for roi in [None, Some(Roi::new(40, 24, 96, 72))] {
                let mut options = RenderOptions::default().with_schedule(schedule);
                if let Some(roi) = roi {
                    options = options.with_roi(roi);
                }
                for config in [StreamConfig::bulk().with_window(2), StreamConfig::default()] {
                    let session = service.session(id, options.clone()).unwrap();
                    let stream = session.stream_with(spec.clone(), config).unwrap();
                    for (i, (frame, view)) in stream.zip(spec.views()).enumerate() {
                        let frame = frame.expect("stream frame");
                        let want = direct_render(scene, &view, &options);
                        let what = format!("{id} {schedule} roi {roi:?} {:?}", config.priority);
                        assert_eq!(frame.image, want.image, "{what} frame {i} diverged");
                        assert_eq!(frame.stats, want.stats, "{what} frame {i} stats");
                        frames += 1;
                    }
                }
            }
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.frames, frames);
    assert_eq!(frames, 2 * 4 * 2 * 2 * 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_churn_preserves_determinism() {
    // A budget that fits only one scene forces constant eviction between
    // interleaved requests; frames must still be bit-identical to direct
    // renders, and evictions must actually happen.
    let dir = std::env::temp_dir().join(format!("gcc_serve_churn_{}", std::process::id()));
    let (registry, direct) = file_registry(&dir);
    let max_scene_bytes = direct.iter().map(|(_, s)| s.approx_bytes()).max().unwrap();
    let service = RenderService::new(
        ServeConfig {
            workers: 2,
            cache_budget_bytes: max_scene_bytes + max_scene_bytes / 4,
            max_batch: 2,
            ..ServeConfig::default()
        },
        registry,
    );
    let reference = StandardRenderer::default();
    for i in 0..8 {
        let id = ["lego", "palace", "train"][i % 3];
        let t = i as f32 / 8.0;
        let frame = submit(
            &service,
            &(id, ViewSpec::trajectory(t), RenderOptions::default()),
        )
        .wait()
        .unwrap();
        let scene = &direct.iter().find(|(s, _)| s == id).unwrap().1;
        let want = reference.render_frame(&scene.gaussians, &scene.camera(t));
        assert_eq!(frame.image, want.image, "churn diverged on {id} t {t}");
    }
    let stats = service.shutdown();
    assert!(
        stats.evictions() >= 4,
        "expected churn, got {} evictions",
        stats.evictions()
    );
    assert!(stats.resident_bytes <= max_scene_bytes + max_scene_bytes / 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn umbrella_crate_reexports_the_serving_layer() {
    // The umbrella path must compose with the rest of the re-exports.
    let scene = Arc::new(small(ScenePreset::Lego, 0.02));
    let service = gcc_repro::serve::RenderService::new(
        gcc_repro::serve::ServeConfig {
            workers: 1,
            ..Default::default()
        },
        [(
            "lego".to_string(),
            gcc_repro::serve::SceneSource::Memory(Arc::clone(&scene)),
        )],
    );
    let frame = service
        .session("lego", gcc_repro::render::RenderOptions::default())
        .and_then(|session| session.render_blocking(gcc_repro::scene::ViewSpec::trajectory(0.5)))
        .unwrap();
    let want = StandardRenderer::default().render_frame(&scene.gaussians, &scene.camera(0.5));
    assert_eq!(frame.image, want.image);
    assert!(service.shutdown().hit_rate() < 1.0);
}
