//! Renderer parity and engine determinism, driven entirely through the
//! `Renderer` trait:
//!
//! * the standard and Gaussian-wise schedules must draw visually
//!   equivalent frames on a preset scene (tight PSNR bound via
//!   `gcc_render::quality`),
//! * the parallel frame engine must reproduce the single-threaded images
//!   and statistics bit-for-bit, at every thread count, for both
//!   schedules and for trajectory batches — frames mapped across threads
//!   with one `FrameScratch` per worker, the renderer shared.

use gcc_parallel::{par_map_indexed_with, Parallelism};
use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::pipeline::{FrameScratch, RenderJob};
use gcc_render::quality::{perceptual_distance, psnr, ssim};
use gcc_render::{Frame, GaussianWiseRenderer, Renderer, Schedule, StandardRenderer};
use gcc_scene::{Scene, SceneConfig, ScenePreset};

fn small(preset: ScenePreset) -> gcc_scene::Scene {
    preset.build(&SceneConfig::with_scale(0.06))
}

/// Renders `frames` evenly spaced trajectory views (`t = i / frames`) of
/// `scene` through `renderer` on `threads` workers, each keeping one
/// scratch for its share of the batch; the frames come back in trajectory
/// order.
fn render_batch(
    scene: &Scene,
    renderer: &dyn Renderer,
    frames: usize,
    threads: usize,
) -> Vec<Frame> {
    let cameras: Vec<_> = (0..frames)
        .map(|i| scene.camera(i as f32 / frames as f32))
        .collect();
    par_map_indexed_with(frames, threads, FrameScratch::new, |scratch, i| {
        renderer.render_job(&RenderJob::new(&scene.gaussians, &cameras[i]), scratch)
    })
}

/// Asserts two batches hold the same frames, bit for bit.
fn assert_batches_equal(a: &[Frame], b: &[Frame], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (i, (a, b)) in a.iter().zip(b).enumerate() {
        assert_eq!(a.image, b.image, "{what} frame {i}");
        assert_eq!(a.stats, b.stats, "{what} frame {i}");
    }
}

#[test]
fn schedules_are_visually_equivalent_through_the_trait() {
    let scene = small(ScenePreset::Lego);
    let cam = scene.default_camera();
    let reference = StandardRenderer::default().render_frame(&scene.gaussians, &cam);
    for schedule in Schedule::ALL {
        if schedule == Schedule::Standard {
            continue;
        }
        let frame = schedule.renderer().render_frame(&scene.gaussians, &cam);
        let name = schedule.name();
        let p = psnr(&frame.image, &reference.image);
        assert!(p > 40.0, "{name}: diverges from reference ({p:.1} dB)");
        let s = ssim(&frame.image, &reference.image);
        assert!(s > 0.98, "{name}: structural divergence (SSIM {s:.4})");
        let d = perceptual_distance(&frame.image, &reference.image);
        assert!(d < 0.05, "{name}: perceptual divergence ({d:.4})");
    }
}

#[test]
fn schedules_agree_on_core_stats() {
    let scene = small(ScenePreset::Truck);
    let cam = scene.default_camera();
    let tile = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
    let gw = GaussianWiseRenderer::default().render_frame(&scene.gaussians, &cam);
    assert_eq!(tile.stats.total_gaussians, gw.stats.total_gaussians);
    // Rendered-Gaussian counts agree to within the footprint-law
    // difference (ω-σ culls faint splats the 3σ pipeline still blends at
    // threshold strength).
    let a = tile.stats.rendered as f64;
    let b = gw.stats.rendered as f64;
    let ratio = a.max(b) / a.min(b).max(1.0);
    assert!(ratio < 1.35, "rendered counts diverge: tile {a} vs gw {b}");
    // Conditional processing can only reduce memory work.
    assert!(gw.stats.geometry_loads <= tile.stats.geometry_loads);
    assert!(gw.stats.sh_loads <= tile.stats.sh_loads);
}

#[test]
fn standard_engine_is_deterministic_across_thread_counts() {
    let scene = small(ScenePreset::Train);
    let cam = scene.default_camera();
    let seq = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
    for threads in [2, 3, 8] {
        let par = StandardRenderer::gscore()
            .with_parallelism(Parallelism::fixed(threads))
            .render_frame(&scene.gaussians, &cam);
        assert_eq!(seq.image, par.image, "threads={threads}");
        assert_eq!(seq.stats, par.stats, "threads={threads}");
    }
}

#[test]
fn gaussian_wise_engine_is_deterministic_across_thread_counts() {
    let scene = small(ScenePreset::Drjohnson);
    let cam = scene.default_camera();
    let cfg = GaussianWiseConfig {
        subview: Some(32),
        ..GaussianWiseConfig::default()
    };
    let seq = GaussianWiseRenderer::new(cfg.clone()).render_frame(&scene.gaussians, &cam);
    for threads in [2, 5] {
        let par = GaussianWiseRenderer::new(cfg.clone())
            .with_parallelism(Parallelism::fixed(threads))
            .render_frame(&scene.gaussians, &cam);
        assert_eq!(seq.image, par.image, "threads={threads}");
        assert_eq!(seq.stats, par.stats, "threads={threads}");
    }
}

#[test]
fn trajectory_batches_are_deterministic_and_schedule_agnostic() {
    let scene = small(ScenePreset::Playroom);
    for schedule in Schedule::ALL {
        let renderer = schedule.renderer();
        let seq = render_batch(&scene, renderer.as_ref(), 4, 1);
        let par = render_batch(&scene, renderer.as_ref(), 4, 3);
        assert_batches_equal(&seq, &par, schedule.name());
    }
}

#[test]
fn parallel_batch_matches_sequential_batch_exactly() {
    let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.03));
    let renderer = GaussianWiseRenderer::default();
    let seq = render_batch(&scene, &renderer, 6, 1);
    let par = render_batch(&scene, &renderer, 6, 4);
    assert_eq!(seq.len(), 6);
    for f in &seq {
        assert_eq!(f.image.width(), scene.resolution.0);
        assert_eq!(f.stats.total_gaussians, scene.len() as u64);
    }
    assert_batches_equal(&seq, &par, "4 threads");
}

#[test]
fn nested_maps_over_a_threaded_renderer_match_the_sequential_batch() {
    // Frames across the batch's workers, and each frame's own maps on the
    // same parked helpers inside them.
    let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.03));
    let seq = render_batch(&scene, &StandardRenderer::default(), 6, 1);
    let threaded = StandardRenderer::default().with_parallelism(Parallelism::fixed(2));
    for batch in [1, 2, 8]
        .map(Parallelism::fixed)
        .into_iter()
        .chain([Parallelism::Auto])
    {
        let par = render_batch(&scene, &threaded, 6, batch.threads());
        assert_batches_equal(&seq, &par, &format!("{batch:?}"));
    }
}

#[test]
fn batch_scratch_threading_stays_deterministic() {
    let scene = ScenePreset::Train.build(&SceneConfig::with_scale(0.04));
    let renderer = StandardRenderer::default();
    let seq = render_batch(&scene, &renderer, 6, 1);
    for threads in [2, 5] {
        let par = render_batch(&scene, &renderer, 6, threads);
        assert_batches_equal(&seq, &par, &format!("threads={threads}"));
    }
}
