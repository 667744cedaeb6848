//! Region-of-interest correctness: an ROI render is **bit-identical** to
//! the corresponding crop of the full-frame render, for every schedule and
//! across thread counts.
//!
//! This is the contract that lets the serving layer hand out sub-frame
//! renders without a quality asterisk: the schedules keep full-frame
//! arithmetic and only restrict which work units (16×16 tiles / 8×8
//! blocks) run, so no pixel inside the ROI can differ by even an ulp.
//! Written as a seeded property loop (the in-tree proptest idiom).

use gcc_repro::render::pipeline::{FrameScratch, Parallelism};
use gcc_repro::render::{GaussianWiseRenderer, RenderJob, RenderOptions, Renderer, Roi, Schedule};
use gcc_scene::rng::StdRng;
use gcc_scene::{SceneConfig, ScenePreset};

/// Compares an ROI render to the crop of the full-frame render, bitwise,
/// both rendered under `parallelism`.
fn assert_roi_is_crop(
    renderer: &dyn Renderer,
    parallelism: Parallelism,
    label: &str,
    gaussians: &[gcc_core::Gaussian3D],
    cam: &gcc_core::Camera,
    roi: Roi,
) {
    let full = renderer.render_job(
        &RenderJob::new(gaussians, cam).with_parallelism(parallelism),
        &mut FrameScratch::new(),
    );
    let sub = renderer.render_job(
        &RenderJob::with_options(gaussians, cam, RenderOptions::default().with_roi(roi))
            .with_parallelism(parallelism),
        &mut FrameScratch::new(),
    );
    assert_eq!(sub.image.width(), roi.width, "{label}");
    assert_eq!(sub.image.height(), roi.height, "{label}");
    for y in 0..roi.height {
        for x in 0..roi.width {
            let want = full.image.get(roi.x0 + x, roi.y0 + y);
            let got = sub.image.get(x, y);
            assert_eq!(
                got.x.to_bits(),
                want.x.to_bits(),
                "{label}: pixel ({x},{y}) of ROI {roi:?} diverged: {got:?} vs {want:?}"
            );
            assert_eq!(got.y.to_bits(), want.y.to_bits(), "{label} ({x},{y})");
            assert_eq!(got.z.to_bits(), want.z.to_bits(), "{label} ({x},{y})");
        }
    }
}

#[test]
fn roi_renders_are_bit_identical_to_crops_for_every_schedule() {
    let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.03));
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    let (w, h) = scene.resolution;
    for case in 0..6 {
        let t = case as f32 / 6.0;
        let cam = scene.camera(t);
        // Random non-degenerate ROI, deliberately unaligned to tile or
        // block boundaries.
        let rw = 1 + (rng.gen::<u64>() % u64::from(w - 1)) as u32;
        let rh = 1 + (rng.gen::<u64>() % u64::from(h - 1)) as u32;
        let rx = (rng.gen::<u64>() % u64::from(w - rw + 1)) as u32;
        let ry = (rng.gen::<u64>() % u64::from(h - rh + 1)) as u32;
        let roi = Roi::new(rx, ry, rw, rh);
        for schedule in Schedule::ALL {
            for threads in [1usize, 4] {
                assert_roi_is_crop(
                    schedule.renderer().as_ref(),
                    Parallelism::fixed(threads),
                    &format!("{schedule} t={threads} case={case}"),
                    &scene.gaussians,
                    &cam,
                    roi,
                );
            }
        }
    }
}

#[test]
fn roi_is_crop_under_cmode_subviews_and_skip_and_block() {
    use gcc_core::boundary::MaskMode;
    use gcc_render::gaussian_wise::GaussianWiseConfig;

    let scene = ScenePreset::Palace.build(&SceneConfig::with_scale(0.02));
    let cam = scene.camera(0.4);
    let roi = Roi::new(37, 21, 90, 55);
    // Compatibility-Mode sub-views: ROI restricts at window granularity.
    let cmode = GaussianWiseRenderer::new(GaussianWiseConfig {
        subview: Some(64),
        ..GaussianWiseConfig::default()
    });
    assert_roi_is_crop(
        &cmode,
        Parallelism::Sequential,
        "cmode-64",
        &scene.gaussians,
        &cam,
        roi,
    );
    // SkipAndBlock gates traversal reachability through the T-mask, so the
    // ROI path falls back to full render + crop — still exactly a crop.
    let sab = GaussianWiseRenderer::new(GaussianWiseConfig {
        mask_mode: MaskMode::SkipAndBlock,
        ..GaussianWiseConfig::default()
    });
    assert_roi_is_crop(
        &sab,
        Parallelism::Sequential,
        "skip-and-block",
        &scene.gaussians,
        &cam,
        roi,
    );
}

#[test]
fn single_pixel_and_full_frame_rois_are_valid() {
    let scene = ScenePreset::Train.build(&SceneConfig::with_scale(0.01));
    let cam = scene.camera(0.1);
    let (w, h) = scene.resolution;
    for schedule in [Schedule::Standard, Schedule::GaussianWise] {
        let renderer = schedule.renderer();
        assert_roi_is_crop(
            renderer.as_ref(),
            Parallelism::Sequential,
            &format!("{schedule} 1px"),
            &scene.gaussians,
            &cam,
            Roi::new(w / 2, h / 2, 1, 1),
        );
        assert_roi_is_crop(
            renderer.as_ref(),
            Parallelism::Sequential,
            &format!("{schedule} full"),
            &scene.gaussians,
            &cam,
            Roi::new(0, 0, w, h),
        );
    }
}
