//! End-to-end pins for the frame hot path overhaul: the global radix
//! depth ordering must reproduce stable `total_cmp` ordering on real
//! scene depth distributions, CSR tile bins must equal the historical
//! nested-`Vec` binning on seeded preset scenes, and scratch reuse must
//! leave renders bit-identical (fresh scratch ≡ warm scratch ≡ any
//! thread count).

use gcc_core::sort::depth_key;
use gcc_parallel::{radix_sort_indices, Parallelism};
use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::pipeline::stages::{self, footprint_rects_into, global_depth_order_into, TileBins};
use gcc_render::pipeline::{
    FrameScratch, GaussianWiseRenderer, RenderJob, RenderOptions, Renderer, StandardRenderer,
};
use gcc_scene::{SceneConfig, ScenePreset, TrajectoryRunner, ViewSpec};

fn scene(preset: ScenePreset, scale: f32) -> gcc_scene::Scene {
    preset.build(&SceneConfig::with_scale(scale))
}

#[test]
fn radix_depth_order_equals_total_cmp_order_on_preset_scenes() {
    for preset in [ScenePreset::Train, ScenePreset::Lego] {
        let scene = scene(preset, 0.05);
        let cam = scene.default_camera();
        let depths: Vec<f32> = scene
            .gaussians
            .iter()
            .map(|g| cam.view_depth(g.mean))
            .collect();
        let keys: Vec<u32> = depths.iter().map(|&d| depth_key(d)).collect();
        let mut expect: Vec<u32> = (0..depths.len() as u32).collect();
        expect.sort_by(|&a, &b| depths[a as usize].total_cmp(&depths[b as usize]));
        for threads in [1, 4] {
            assert_eq!(
                radix_sort_indices(&keys, threads),
                expect,
                "{preset} threads={threads}"
            );
        }
    }
}

#[test]
fn csr_bins_equal_nested_vec_bins_on_preset_scene() {
    let scene = scene(ScenePreset::Truck, 0.04);
    let cam = scene.default_camera();
    let projected = stages::project_and_shade_all(
        &scene.gaussians,
        &cam,
        gcc_core::bounds::BoundingLaw::ThreeSigma,
        1,
    );
    let (w, h, ts) = (cam.width, cam.height, 16u32);
    let tiles_x = w.div_ceil(ts);
    let n_tiles = (tiles_x * h.div_ceil(ts)) as usize;

    // Historical formulation: nested Vecs filled in scene order, then a
    // stable per-tile comparison sort.
    let mut nested: Vec<Vec<u32>> = vec![Vec::new(); n_tiles];
    for (idx, p) in projected.iter().enumerate() {
        let rect = gcc_core::bounds::PixelRect::from_circle(p.mean2d, p.radius, w, h);
        if rect.is_empty() {
            continue;
        }
        let (tx0, ty0, tx1, ty1) = rect.tile_range(ts);
        for ty in ty0..ty1 {
            for tx in tx0..tx1 {
                nested[(ty * tiles_x + tx) as usize].push(idx as u32);
            }
        }
    }
    for bin in &mut nested {
        stages::sort_indices_by_depth(bin, &projected);
    }

    let mut rects = Vec::new();
    footprint_rects_into(&projected, w, h, 1, &mut rects);
    let (mut keys, mut order, mut radix) = (Vec::new(), Vec::new(), Vec::new());
    global_depth_order_into(&projected, 1, &mut keys, &mut order, &mut radix);
    let mut bins = TileBins::new();
    let kv = bins.build(&rects, &order, ts, tiles_x, n_tiles);

    assert_eq!(kv, nested.iter().map(|b| b.len() as u64).sum::<u64>());
    for (t, reference) in nested.iter().enumerate() {
        assert_eq!(bins.bin(t), reference.as_slice(), "tile {t}");
    }
}

#[test]
fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
    let scene = scene(ScenePreset::Lego, 0.05);
    let renderers: Vec<Box<dyn Renderer>> = vec![
        Box::new(StandardRenderer::reference()),
        Box::new(StandardRenderer::gscore()),
        Box::new(GaussianWiseRenderer::default()),
    ];
    for r in &renderers {
        // Warm one scratch across several different cameras, comparing
        // each frame against a fresh-scratch render.
        let mut warm = FrameScratch::new();
        for i in 0..4 {
            let cam = scene.camera(i as f32 / 4.0);
            let reused = r.render_job(&RenderJob::new(&scene.gaussians, &cam), &mut warm);
            let fresh = r.render_frame(&scene.gaussians, &cam);
            assert_eq!(reused.image, fresh.image, "{} frame {i}", r.name());
            assert_eq!(reused.stats, fresh.stats, "{} frame {i}", r.name());
        }
    }
}

#[test]
fn one_scratch_serves_every_schedule_and_scene() {
    // What a serve worker does: one scratch across batches of different
    // schedules, scenes, resolutions and block edges, in any order.
    // Nothing a frame leaves in it (pooled patches, id lists sized to
    // another scene, a block tracer, T-mask and live-pixel counts laid
    // out for another grid, screen bounds of another scene) may reach the
    // next one.
    let big = scene(ScenePreset::Lego, 0.08);
    let small = scene(ScenePreset::Train, 0.02);
    let gaussian_wise = |block: u32, subview: Option<u32>| {
        Box::new(GaussianWiseRenderer::new(GaussianWiseConfig {
            block,
            subview,
            ..GaussianWiseConfig::default()
        }))
    };
    let renderers: Vec<Box<dyn Renderer>> = vec![
        Box::new(StandardRenderer::reference()),
        Box::new(GaussianWiseRenderer::default()),
        Box::new(StandardRenderer::gscore().with_parallelism(Parallelism::fixed(2))),
        Box::new(GaussianWiseRenderer::gcc_hardware()),
        gaussian_wise(16, None),
        gaussian_wise(4, Some(64)),
        gaussian_wise(12, None),
    ];
    let resolutions = [(160u32, 120u32), (97, 131), (64, 48)];
    let mut shared = FrameScratch::new();
    for round in 0..3 {
        for (i, r) in renderers.iter().enumerate() {
            let scene = if (i + round) % 2 == 0 { &big } else { &small };
            let (w, h) = resolutions[(i + round) % resolutions.len()];
            let options = RenderOptions::default().at_resolution(w, h);
            let cam = scene
                .resolve_view(&ViewSpec::trajectory(0.3 * i as f32 % 1.0), &options)
                .expect("a valid view");
            let reused = r.render_job(&RenderJob::new(&scene.gaussians, &cam), &mut shared);
            let fresh = r.render_frame(&scene.gaussians, &cam);
            let what = format!("{} #{i} round {round} at {w}x{h}", r.name());
            assert_eq!(reused.image, fresh.image, "{what}");
            assert_eq!(reused.stats, fresh.stats, "{what}");
        }
    }
}

#[test]
fn trajectory_runner_scratch_threading_stays_deterministic() {
    let scene = scene(ScenePreset::Train, 0.04);
    let renderer = StandardRenderer::reference();
    let seq = TrajectoryRunner::new(6)
        .with_parallelism(Parallelism::Sequential)
        .run(&scene, &renderer);
    for threads in [2, 5] {
        let par = TrajectoryRunner::new(6)
            .with_parallelism(Parallelism::fixed(threads))
            .run(&scene, &renderer);
        for (a, b) in seq.frames.iter().zip(&par.frames) {
            assert_eq!(a.image, b.image, "threads={threads}");
            assert_eq!(a.stats, b.stats, "threads={threads}");
        }
    }
}
