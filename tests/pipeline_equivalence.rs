//! Cross-crate integration tests: the three pipelines (GPU reference,
//! tile-wise/GSCore, Gaussian-wise/GCC) must draw the same image on every
//! scene preset, across Compatibility-Mode settings and arithmetic modes.

use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::quality::psnr;
use gcc_render::{GaussianWiseRenderer, Renderer, StandardRenderer};
use gcc_scene::{SceneConfig, ScenePreset, ALL_PRESETS};

fn small(preset: ScenePreset) -> gcc_scene::Scene {
    preset.build(&SceneConfig::with_scale(0.06))
}

#[test]
fn gaussian_wise_matches_reference_on_all_presets() {
    for preset in ALL_PRESETS {
        let scene = small(preset);
        let cam = scene.default_camera();
        let gpu = StandardRenderer::default().render_frame(&scene.gaussians, &cam);
        let gcc = GaussianWiseRenderer::default().render_frame(&scene.gaussians, &cam);
        let p = psnr(&gcc.image, &gpu.image);
        assert!(
            p > 45.0,
            "{preset}: Gaussian-wise diverges from reference ({p:.1} dB)"
        );
    }
}

#[test]
fn gscore_tile_pipeline_matches_reference_on_all_presets() {
    for preset in ALL_PRESETS {
        let scene = small(preset);
        let cam = scene.default_camera();
        let gpu = StandardRenderer::default().render_frame(&scene.gaussians, &cam);
        let gs = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
        let p = psnr(&gs.image, &gpu.image);
        assert!(p > 45.0, "{preset}: OBB pipeline diverges ({p:.1} dB)");
    }
}

#[test]
fn cmode_subviews_are_image_equivalent() {
    for preset in [ScenePreset::Train, ScenePreset::Lego] {
        let scene = small(preset);
        let cam = scene.default_camera();
        let full = GaussianWiseRenderer::default().render_frame(&scene.gaussians, &cam);
        for sub in [128u32, 64, 32] {
            let cfg = GaussianWiseConfig {
                subview: Some(sub),
                ..GaussianWiseConfig::default()
            };
            let tiled = GaussianWiseRenderer::new(cfg).render_frame(&scene.gaussians, &cam);
            let p = psnr(&tiled.image, &full.image);
            assert!(
                p > 55.0,
                "{preset}: Cmode {sub} diverges from full frame ({p:.1} dB)"
            );
        }
    }
}

#[test]
fn lut_exp_hardware_mode_stays_visually_identical() {
    let scene = small(ScenePreset::Playroom);
    let cam = scene.default_camera();
    let exact = GaussianWiseRenderer::default().render_frame(&scene.gaussians, &cam);
    let hw = GaussianWiseRenderer::gcc_hardware().render_frame(&scene.gaussians, &cam);
    let p = psnr(&hw.image, &exact.image);
    assert!(p > 40.0, "LUT-EXP costs too much quality ({p:.1} dB)");
}

#[test]
fn cross_stage_skipping_never_changes_the_image() {
    for preset in [ScenePreset::Drjohnson, ScenePreset::Palace] {
        let scene = small(preset);
        let cam = scene.default_camera();
        let cc = GaussianWiseRenderer::default().render_frame(&scene.gaussians, &cam);
        let gw = GaussianWiseRenderer::new(GaussianWiseConfig::gw_only())
            .render_frame(&scene.gaussians, &cam);
        let p = psnr(&cc.image, &gw.image);
        assert!(
            p > 45.0,
            "{preset}: cross-stage conditional changed the image ({p:.1} dB)"
        );
        // And it can only reduce SH loads.
        assert!(cc.stats.sh_loads <= gw.stats.sh_loads);
    }
}

#[test]
fn renderer_counts_agree_across_pipelines() {
    // Rendered-Gaussian counts of the two instrumented pipelines agree to
    // within the footprint-law difference (ω-σ culls faint splats that
    // the 3σ pipeline still blends at threshold strength).
    let scene = small(ScenePreset::Truck);
    let cam = scene.default_camera();
    let gs = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
    let gc = GaussianWiseRenderer::default().render_frame(&scene.gaussians, &cam);
    let a = gs.stats.rendered as f64;
    let b = gc.stats.rendered as f64;
    let ratio = a.max(b) / a.min(b).max(1.0);
    assert!(
        ratio < 1.35,
        "rendered counts diverge: tile {a} vs gaussian-wise {b}"
    );
}
