//! Quality floors of the standard ladder, measured on the Table 2
//! scenes: every rung's render must stay within the PSNR/SSIM bounds it
//! documents (`QualityRung::{min_psnr_db, min_ssim}`) versus the
//! full-quality render of the same view. EXPERIMENTS.md ("Quality
//! ladder") records the measured deltas these floors were set from;
//! the repo benchmark's `deadline_lod` workload reports each rung's SSIM
//! on its own scene (`gcc-lod.rung1_ssim` … `rung3_ssim`, `--trace 1`).

use gcc_repro::lod::{attach_hierarchy, HierarchyConfig, QualityLadder, QualityRung};
use gcc_repro::render::pipeline::FrameScratch;
use gcc_repro::render::upscale::upscale_bilinear;
use gcc_repro::render::{quality, Image, RenderJob, RenderOptions, Schedule};
use gcc_repro::scene::{Scene, SceneConfig, ViewSpec, ALL_PRESETS};

/// Renders `view` the way the serve layer dispatches `rung`: knobs
/// merged into default options, camera resolved at the reduced
/// resolution, the rung's hierarchy level, filtered upscale back to the
/// scene's native frame size.
fn render_rung(
    scene: &Scene,
    rung: &QualityRung,
    view: &ViewSpec,
    scratch: &mut FrameScratch,
) -> Image {
    let target = scene.resolution;
    let options = rung.apply(&RenderOptions::default(), target);
    let cam = scene.resolve_view(view, &options).expect("view resolves");
    let gaussians = scene.lod.as_ref().map_or(&scene.gaussians[..], |l| {
        l.level_gaussians(&scene.gaussians, rung.lod_level)
    });
    let mut image = Schedule::Standard
        .renderer()
        .render_job(&RenderJob::with_options(gaussians, &cam, options), scratch)
        .image;
    if (image.width(), image.height()) != target {
        image = upscale_bilinear(&image, target.0, target.1);
    }
    image
}

#[test]
fn every_rung_meets_its_documented_floor_on_the_table2_scenes() {
    let ladder = QualityLadder::standard();
    let mut scratch = FrameScratch::new();
    let views = [ViewSpec::trajectory(0.2), ViewSpec::trajectory(0.7)];
    for preset in ALL_PRESETS {
        let mut scene = preset.build(&SceneConfig::with_scale(0.05));
        attach_hierarchy(&mut scene, &HierarchyConfig::default());
        for view in &views {
            let full = render_rung(&scene, &ladder.rungs()[0], view, &mut scratch);
            for rung in &ladder.rungs()[1..] {
                let got = render_rung(&scene, rung, view, &mut scratch);
                let psnr = quality::psnr(&got, &full);
                let ssim = quality::ssim(&got, &full);
                assert!(
                    psnr >= rung.min_psnr_db && ssim >= rung.min_ssim,
                    "{preset} rung {}: measured {psnr:.2} dB / ssim {ssim:.3} below \
                     documented floor {:.1} dB / {:.3}",
                    rung.name,
                    rung.min_psnr_db,
                    rung.min_ssim,
                );
            }
        }
    }
}

#[test]
fn the_exact_rung_is_bit_identical_to_a_plain_render() {
    let ladder = QualityLadder::standard();
    let mut scratch = FrameScratch::new();
    let mut scene = gcc_repro::scene::ScenePreset::Lego.build(&SceneConfig::with_scale(0.05));
    attach_hierarchy(&mut scene, &HierarchyConfig::default());
    let view = ViewSpec::trajectory(0.4);
    let cam = scene
        .resolve_view(&view, &RenderOptions::default())
        .unwrap();
    let plain = Schedule::Standard
        .renderer()
        .render_job(
            &RenderJob::with_options(&scene.gaussians, &cam, RenderOptions::default()),
            &mut scratch,
        )
        .image;
    let exact = render_rung(&scene, &ladder.rungs()[0], &view, &mut scratch);
    assert_eq!(exact, plain);
}
