//! Renderer parity and engine determinism, driven entirely through the
//! `Renderer` trait:
//!
//! * the standard and Gaussian-wise schedules must draw visually
//!   equivalent frames on a preset scene (tight PSNR bound via
//!   `gcc_render::quality`),
//! * the parallel frame engine must reproduce the single-threaded images
//!   and statistics bit-for-bit, at every thread count, for both
//!   schedules and for trajectory batches.

use gcc_parallel::Parallelism;
use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::quality::{perceptual_distance, psnr, ssim};
use gcc_render::{GaussianWiseRenderer, Renderer, StandardRenderer};
use gcc_scene::{SceneConfig, ScenePreset, TrajectoryRunner};

fn small(preset: ScenePreset) -> gcc_scene::Scene {
    preset.build(&SceneConfig::with_scale(0.06))
}

#[test]
fn schedules_are_visually_equivalent_through_the_trait() {
    let scene = small(ScenePreset::Lego);
    let cam = scene.default_camera();
    let reference = StandardRenderer::default().render_frame(&scene.gaussians, &cam);
    let renderers: Vec<Box<dyn Renderer>> = vec![
        Box::new(StandardRenderer::gscore()),
        Box::new(GaussianWiseRenderer::default()),
        Box::new(GaussianWiseRenderer::gcc_hardware()),
    ];
    for r in &renderers {
        let frame = r.render_frame(&scene.gaussians, &cam);
        let p = psnr(&frame.image, &reference.image);
        assert!(
            p > 40.0,
            "{}: diverges from reference ({p:.1} dB)",
            r.name()
        );
        let s = ssim(&frame.image, &reference.image);
        assert!(
            s > 0.98,
            "{}: structural divergence (SSIM {s:.4})",
            r.name()
        );
        let d = perceptual_distance(&frame.image, &reference.image);
        assert!(d < 0.05, "{}: perceptual divergence ({d:.4})", r.name());
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
    let renderers: Vec<Box<dyn Renderer>> = vec![
        Box::new(StandardRenderer::default()),
        Box::new(GaussianWiseRenderer::default()),
    ];
    for r in &renderers {
        let seq = TrajectoryRunner::new(4)
            .with_parallelism(Parallelism::Sequential)
            .run(&scene, r.as_ref());
        let par = TrajectoryRunner::new(4)
            .with_parallelism(Parallelism::fixed(3))
            .run(&scene, r.as_ref());
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.frames.iter().zip(&par.frames) {
            assert_eq!(a.image, b.image, "{}", r.name());
            assert_eq!(a.stats, b.stats, "{}", r.name());
        }
        assert_eq!(seq.aggregate_stats(), par.aggregate_stats());
    }
}
