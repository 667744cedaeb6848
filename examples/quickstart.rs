//! Quickstart: build a scene, describe *what to render* with the
//! request-model API — a `ViewSpec` plus `RenderOptions` — and render it
//! through both dataflows via `Renderer::render_job`.
//!
//! Run with: `cargo run --release --example quickstart`

use gcc_render::pipeline::FrameScratch;
use gcc_render::{RenderJob, RenderOptions, Roi, Schedule};
use gcc_scene::{SceneConfig, ScenePreset, ViewSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Lego-like scene at 25% of the repro scale keeps this instant.
    let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.25));
    println!(
        "scene '{}': {} Gaussians, native {}x{} @ {:.0} deg fov",
        scene.name,
        scene.len(),
        scene.resolution.0,
        scene.resolution.1,
        scene.fov_y_deg
    );

    // A view request: trajectory parameter 0.0 on the scene's rig. The
    // same `ViewSpec` could be an explicit pose (`ViewSpec::look_at`) or
    // an orbit angle — the scene resolves any of them into a camera.
    let view = ViewSpec::trajectory(0.0);
    let options = RenderOptions::default();
    let cam = scene.resolve_view(&view, &options)?;

    // Every schedule consumes the same `RenderJob`; `Schedule` names the
    // four stock configurations of the two dataflows.
    let reference = Schedule::Standard.renderer().render_job(
        &RenderJob::with_options(&scene.gaussians, &cam, options.clone()),
        &mut FrameScratch::new(),
    );
    println!(
        "standard dataflow: projected {} of {} Gaussians, {} rendered ({:.0}% unused)",
        reference.stats.projected,
        reference.stats.total_gaussians,
        reference.stats.rendered,
        100.0 * reference.stats.unused_fraction()
    );

    // GCC dataflow (hardware configuration: LUT-EXP, omega-sigma law).
    let gcc = Schedule::GccHardware.renderer().render_job(
        &RenderJob::with_options(&scene.gaussians, &cam, options),
        &mut FrameScratch::new(),
    );
    println!(
        "GCC dataflow: {} geometry loads, {} SH loads, {} groups skipped",
        gcc.stats.geometry_loads, gcc.stats.sh_loads, gcc.stats.groups_skipped
    );

    let mse = gcc.image.mse(&reference.image);
    println!("image agreement (MSE vs reference): {mse:.2e}");

    // Per-request output shaping: the center quarter of the frame as a
    // region of interest — bit-identical to cropping the full render.
    let (w, h) = scene.resolution;
    let roi_opts = RenderOptions::default().with_roi(Roi::new(w / 4, h / 4, w / 2, h / 2));
    let roi_cam = scene.resolve_view(&view, &roi_opts)?;
    let roi = Schedule::Standard.renderer().render_job(
        &RenderJob::with_options(&scene.gaussians, &roi_cam, roi_opts),
        &mut FrameScratch::new(),
    );
    println!(
        "ROI render: {}x{} pixels, {} tile loads (vs {} full-frame)",
        roi.image.width(),
        roi.image.height(),
        roi.stats.tile_loads,
        reference.stats.tile_loads
    );

    let out = std::env::temp_dir().join("gcc_quickstart.ppm");
    gcc.image.save_ppm(&out)?;
    println!("wrote {}", out.display());
    Ok(())
}
