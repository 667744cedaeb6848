//! Frame-level differential for the tile-wise schedules: a render on the
//! dispatched kernels is **bit-identical**, image and every `FrameStats`
//! field, to the same render pinned to `Backend::Scalar`.
//!
//! `golden_frames.rs` pins two small scenes at one view; this sweeps the
//! frames the repo benchmark actually serves — its five scenes (`a` / `b`
//! / `c` of `serve_mixed`, the `render_orbit` and the `deadline_lod`
//! scene) at 256², around a whole orbit — through both footprints
//! (`standard`, and `gscore`, whose OBB clip can empty a row between two
//! live ones), on one thread and on two, full frame and centre-quarter
//! ROI, at the paper's 16-pixel tile and at 32 (four lane groups per row,
//! more rows than lanes in a vector). The front end of these schedules is
//! two dispatched kernels (`row_spans`, `span_powers`); their scalar twins
//! are the definition, and this is the end-to-end check that nothing
//! between the kernels and the frame depends on who ran them.
//!
//! A debug build renders 1 view at 128² (the suite has to stay in
//! seconds); `cargo test --release --test standard_differential` renders
//! the 24 at 256², and CI's `simd-matrix` job runs that dispatched and
//! under `GCC_FORCE_SCALAR=1`.

use gcc_core::dispatch::Backend;
use gcc_repro::render::pipeline::{FrameScratch, Parallelism};
use gcc_repro::render::standard::{Footprint, StandardConfig};
use gcc_repro::render::{Frame, RenderJob, RenderOptions, Renderer, Roi, StandardRenderer};
use gcc_scene::{SceneConfig, ScenePreset, ViewSpec};

/// The scenes of `benchmark/src/script.rs`.
const SCENES: [(ScenePreset, f32); 5] = [
    (ScenePreset::Lego, 0.15),
    (ScenePreset::Train, 0.05),
    (ScenePreset::Palace, 0.18),
    (ScenePreset::Lego, 0.25),
    (ScenePreset::Lego, 0.5),
];

/// Orbit views and frame edge: the benchmark's in release, a sample in a
/// debug build.
const SWEEP: (usize, u32) = if cfg!(debug_assertions) {
    (1, 128)
} else {
    (24, 256)
};

#[test]
fn dispatched_tile_frames_equal_scalar_pinned_ones() {
    let (views, edge) = SWEEP;
    let centre = Roi::new(edge / 4, edge / 4, edge / 2, edge / 2);
    let mut scratch = FrameScratch::new();
    let mut blended = 0u64;
    for (preset, scale) in SCENES {
        let scene = preset.build(&SceneConfig::with_scale(scale));
        for view in 0..views {
            let angle = std::f32::consts::TAU * view as f32 / views as f32;
            for roi in [None, Some(centre)] {
                let mut options = RenderOptions::default().at_resolution(edge, edge);
                if let Some(roi) = roi {
                    options = options.with_roi(roi);
                }
                let camera = scene
                    .resolve_view(&ViewSpec::orbit(angle), &options)
                    .expect("an orbit view resolves");
                let job = RenderJob::with_options(&scene.gaussians, &camera, options);
                for footprint in [Footprint::Aabb, Footprint::Obb] {
                    for tile_size in [16, 32] {
                        let mut render = |backend, parallelism| -> Frame {
                            StandardRenderer::new(StandardConfig {
                                footprint,
                                tile_size,
                                backend,
                                ..StandardConfig::default()
                            })
                            .with_parallelism(parallelism)
                            .render_job(&job, &mut scratch)
                        };
                        let want = render(Some(Backend::Scalar), Parallelism::Sequential);
                        blended += want.stats.pixels_blended;
                        for parallelism in [Parallelism::Sequential, Parallelism::fixed(2)] {
                            let got = render(None, parallelism);
                            let what = format!(
                                "{preset}@{scale} view {view}/{views} {footprint:?} tile \
                                 {tile_size} roi {roi:?} {parallelism:?}"
                            );
                            assert_eq!(got.stats, want.stats, "{what}: FrameStats");
                            let bits = |f: &Frame| -> Vec<u32> {
                                let px = f.image.pixels().iter();
                                px.flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                                    .collect()
                            };
                            assert_eq!(got.image.width(), want.image.width(), "{what}");
                            assert!(bits(&got) == bits(&want), "{what}: image bits");
                        }
                    }
                }
            }
        }
    }
    assert!(blended > 0, "the sweep rendered nothing");
}
