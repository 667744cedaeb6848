//! The GCC dataflow (paper §3, Fig. 3): Gaussian-wise rendering with
//! cross-stage conditional processing, expressed as a schedule over the
//! shared [`crate::pipeline::stages`] primitives.
//!
//! Per frame:
//!
//! * **Stage I** — view depths for all Gaussians
//!   ([`stages::view_depths_into`]), near-plane cull at 0.2, depth grouping
//!   (near → far, ≤ 256 per group).
//! * **Per group, interleaved**: once the frame (or Cmode sub-view) is
//!   fully terminated, *all remaining groups are skipped* — no geometry
//!   load, no projection, no SH (cross-stage conditional processing).
//! * **Stage II** — position/shape projection with the opacity-aware ω-σ
//!   law ([`stages::project_one`]); the SCU culls off-screen and
//!   never-visible Gaussians.
//! * **Stage III** — SH color for surviving Gaussians only (conditional SH
//!   loading, [`stages::shade_one_deg`]) and intra-group depth sort
//!   ([`stages::sort_by_depth`]).
//! * **Stage IV** — Algorithm 1 block traversal (8×8 PE array granularity)
//!   restricted by the transmittance mask, alpha evaluation (optionally
//!   through the fixed-point LUT-EXP), and front-to-back blending. Both
//!   halves of the Alpha Unit are block-wide kernels of the render's
//!   [`KernelSet`]: the tracer evaluates `E(p)` once per dispatched block
//!   (`block_pass`) and steers by the pass pattern, and each effective
//!   block's exponents come from one `block_powers` fill
//!   ([`stages::PixelPatch::blend_block`]) ahead of the blend tail the
//!   standard schedule shares.
//!
//! Compatibility Mode (paper §4.6) partitions the image into `n × n`
//! sub-views ([`stages::partition_windows`]) rendered independently, with
//! conservative screen-space binning of Gaussians to sub-views; the
//! duplicated processing it introduces is what Fig. 6 sweeps. Sub-views
//! own disjoint pixels, so the frame engine renders them in parallel (a
//! [`crate::GaussianWiseRenderer`]'s or a job's [`Parallelism`]) with
//! per-window [`FrameStats`] partials merged in window order —
//! bit-identical to the sequential schedule.

use gcc_core::alpha::ExpMode;
use gcc_core::boundary::{BlockGrid, BlockTracer, MaskMode, TMask};
use gcc_core::bounds::{BoundingLaw, EffectiveTest};
use gcc_core::dispatch::{self, Backend, KernelSet};
use gcc_core::grouping::{group_by_depth, DepthGroups};
use gcc_core::{Camera, Gaussian3D, ProjectedGaussian};
use gcc_math::{Vec2, Vec3};
use gcc_parallel::{par_chunks_mut, Parallelism};

use crate::pipeline::stages::{self, BlendScratch};
use crate::pipeline::{Frame, FrameScratch, FrameStats};

/// Configuration of the Gaussian-wise renderer.
#[derive(Debug, Clone)]
pub struct GaussianWiseConfig {
    /// Bounding law for the SCU (GCC: ω-σ).
    pub law: BoundingLaw,
    /// Pixel-block edge of the Alpha/Blending arrays (GCC: 8).
    pub block: u32,
    /// Exponential datapath (GCC hardware: the fixed-point LUT).
    pub exp: ExpMode,
    /// T-mask handling in the block traversal.
    pub mask_mode: MaskMode,
    /// Cross-stage conditional processing: group skipping + deferred SH
    /// loading. Disable to model the "GW only" ablation of Fig. 11(a).
    pub cross_stage: bool,
    /// Compatibility-Mode sub-view edge (e.g. 128); `None` renders the
    /// full frame as one view.
    pub subview: Option<u32>,
    /// Background color.
    pub background: Vec3,
    /// Minimum alpha a contribution needs to be blended. `0.0` keeps the
    /// pipeline's intrinsic `1/255` cutoff; higher values skip faint
    /// contributions (per-request quality knob).
    pub alpha_min: f32,
    /// SH degree clamp for color evaluation (`0..=3`; 3 = full SH).
    pub sh_degree: u8,
    /// SIMD kernel backend override. `None` (the default) uses the
    /// process-wide [`dispatch::active`] selection (runtime CPU detection,
    /// `GCC_FORCE_SCALAR` honored); `Some(b)` pins this render to backend
    /// `b` — the seam the scalar≡SIMD parity tests drive. Every backend is
    /// bit-identical, so this knob can never change the output image.
    pub backend: Option<Backend>,
}

impl Default for GaussianWiseConfig {
    fn default() -> Self {
        Self {
            law: BoundingLaw::OmegaSigma,
            block: 8,
            exp: ExpMode::Exact,
            mask_mode: MaskMode::Traverse,
            cross_stage: true,
            subview: None,
            background: Vec3::ZERO,
            alpha_min: 0.0,
            sh_degree: 3,
            backend: None,
        }
    }
}

impl GaussianWiseConfig {
    /// The GCC hardware configuration: the LUT-EXP datapath, everything
    /// else the default — which traverses T-masked blocks
    /// ([`MaskMode::Traverse`]) where the paper's §4.5 skips and blocks
    /// them ([`MaskMode::SkipAndBlock`], which loses reachability).
    pub fn gcc_hardware() -> Self {
        Self {
            exp: ExpMode::lut(),
            ..Self::default()
        }
    }

    /// The "GW only" ablation: Gaussian-wise rendering without cross-stage
    /// conditional processing.
    pub fn gw_only() -> Self {
        Self {
            cross_stage: false,
            ..Self::default()
        }
    }

    /// This configuration with a request's overrides applied (background,
    /// alpha threshold, SH degree clamp). All-`None` options return an
    /// identical configuration.
    pub fn with_options(&self, options: &crate::pipeline::RenderOptions) -> Self {
        let mut cfg = self.clone();
        if let Some(bg) = options.background {
            cfg.background = bg;
        }
        if let Some(a) = options.alpha_min {
            cfg.alpha_min = a;
        }
        if let Some(d) = options.sh_degree {
            cfg.sh_degree = d;
        }
        cfg
    }
}

/// Cheap Stage-I screen information used for Cmode window binning: center
/// projection plus a conservative bounding-circle radius (center + max
/// scale only — over-covers the exact ω-σ footprint, as in paper §4.6).
#[derive(Debug, Clone)]
pub(crate) struct ScreenBound {
    center: Vec2,
    radius: f32,
}

/// What a window worker keeps between windows and frames beside its pixel
/// patch: the Alpha Unit's tracer and the per-block and per-group lists.
/// Pure capacity — [`render_window`] re-targets every part at its window's
/// block grid before use.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowScratch {
    /// `None` until a window first renders with this scratch.
    tracer: Option<BlockTracer>,
    tmask: TMask,
    /// Non-terminated pixels per block.
    live_pixels: Vec<u32>,
    /// Effective blocks of the Gaussian being traced.
    blocks: Vec<usize>,
    /// Projected survivors of the group being rendered.
    survivors: Vec<ProjectedGaussian>,
}

/// Everything a window worker needs, shared read-only across workers.
struct WindowContext<'a> {
    cfg: &'a GaussianWiseConfig,
    cam: &'a Camera,
    gaussians: &'a [Gaussian3D],
    groups: &'a DepthGroups,
    bounds: &'a [Option<ScreenBound>],
    /// Resolved SIMD kernel table for this render.
    kernels: &'static KernelSet,
    /// Region of interest in frame coordinates; blending (and the
    /// cross-stage termination condition) is restricted to the 8×8 blocks
    /// intersecting it. Only set under [`MaskMode::Traverse`], where block
    /// dispatch is per-block local — under `SkipAndBlock` the driver falls
    /// back to a full render + crop instead.
    roi: Option<crate::pipeline::Roi>,
}

/// Conservative circle-vs-window overlap test (the Cmode 2D spatial
/// binning of paper §4.6).
fn touches_window(b: &ScreenBound, win: (u32, u32, u32, u32)) -> bool {
    let (x0, y0) = (win.0 as f32, win.1 as f32);
    let (x1, y1) = ((win.0 + win.2) as f32, (win.1 + win.3) as f32);
    let cx = b.center.x.clamp(x0, x1);
    let cy = b.center.y.clamp(y0, y1);
    let d2 = (b.center.x - cx) * (b.center.x - cx) + (b.center.y - cy) * (b.center.y - cy);
    d2 <= b.radius * b.radius
}

/// Renders one (sub-)view into `work.patch` through Stages II–IV with
/// cross-stage conditional group skipping. Returns the window's additive
/// stats and leaves the ids of the Gaussians that contributed in
/// `work.rendered` (merged by OR into the frame set). Pure function of its
/// inputs — the unit of parallelism of the Gaussian-wise schedule under
/// Compatibility Mode.
fn render_window(
    ctx: &WindowContext<'_>,
    win: (u32, u32, u32, u32),
    work: &mut BlendScratch,
) -> FrameStats {
    let cfg = ctx.cfg;
    let subcam = ctx.cam.sub_view(win.0, win.1, win.2, win.3);
    let grid = BlockGrid::new(cfg.block, win.2, win.3);
    let BlendScratch {
        patch,
        rendered,
        window,
        ..
    } = work;
    let WindowScratch {
        tracer,
        tmask,
        live_pixels,
        blocks: blocks_buf,
        survivors,
    } = window;
    let tracer = tracer.get_or_insert_with(|| BlockTracer::new(grid));
    tracer.retarget(grid);
    tmask.reset(&grid);
    // Block-level ROI restriction: block rects are window-local, the ROI
    // is frame-global.
    let block_in_roi = |b: usize| match &ctx.roi {
        None => true,
        Some(r) => {
            let (bx0, by0, bx1, by1) = grid.block_rect(b);
            r.intersects(
                i64::from(win.0) + i64::from(bx0),
                i64::from(win.1) + i64::from(by0),
                i64::from(win.0) + i64::from(bx1),
                i64::from(win.1) + i64::from(by1),
            )
        }
    };
    // The rendering-termination condition counts only ROI blocks: once
    // they all terminate, deeper groups can no longer change an ROI pixel
    // (a terminated block's pixels reject every blend), so the
    // cross-stage skip stays crop-exact.
    let mut live_blocks = (0..grid.block_count()).filter(|&b| block_in_roi(b)).count();
    // Non-terminated pixels per block: what the Alpha Unit evaluates when
    // the block is dispatched, and zero exactly when the block's T-mask
    // bit may be set.
    live_pixels.clear();
    live_pixels.extend((0..grid.block_count()).map(|b| {
        let (bx0, by0, bx1, by1) = grid.block_rect(b);
        ((bx1 - bx0) * (by1 - by0)) as u32
    }));
    patch.reset(win.0, win.1, win.2, win.3, cfg.block);
    let mut stats = FrameStats::default();

    for group in ctx.groups.iter() {
        // Cross-stage conditional skip: the rendering termination
        // condition is met for this (sub-)view, so every deeper group
        // is bypassed entirely.
        if cfg.cross_stage && live_blocks == 0 {
            stats.groups_skipped += 1;
            continue;
        }
        stats.groups_processed += 1;

        // ---- Stage II: projection + SCU, member by member. ----
        survivors.clear();
        for &id in &group.members {
            let Some(bound) = &ctx.bounds[id as usize] else {
                continue;
            };
            if !touches_window(bound, win) {
                continue;
            }
            stats.geometry_loads += 1;
            if let Some(p) = stages::project_one(&ctx.gaussians[id as usize], id, &subcam, cfg.law)
            {
                survivors.push(p);
            }
        }
        stats.projected += survivors.len() as u64;
        if !cfg.cross_stage {
            // GW-only ablation: SH is loaded for every in-frustum
            // Gaussian up front, as in the standard pipeline.
            stats.sh_loads += survivors.len() as u64;
        }

        // ---- Stage III: intra-group sort + conditional SH. ----
        stats.sort_elements += survivors.len() as u64;
        stages::sort_by_depth(survivors);
        for p in survivors.iter_mut() {
            // ---- Stage IV: boundary identification + blending. ----
            // Alpha evaluation needs only geometry (μ′, Σ′⁻¹, lnω);
            // color is consumed first at blending. Under cross-stage
            // conditional processing the 48-float SH block is
            // therefore fetched only once the runtime identifier
            // confirms the Gaussian touches a live block — "only the
            // Gaussians that contribute to the final RGB values" are
            // fully preprocessed (paper §1, Fig. 1 "Conditional
            // Loading").
            let test = EffectiveTest::new(p.mean2d, p.conic, p.ln_opacity);
            let tr = tracer.trace(&test, tmask, cfg.mask_mode, ctx.kernels, blocks_buf);
            stats.blocks_dispatched += tr.blocks_dispatched;
            stats.blocks_masked_skips += tr.blocks_masked;
            stats.pixels_evaluated += tr.pixels_evaluated;
            // ROI restriction: blend only blocks that overlap the region
            // (a no-op without one). Blocks are blended independently, so
            // skipping the rest cannot change an ROI pixel.
            if ctx.roi.is_some() {
                blocks_buf.retain(|&b| block_in_roi(b));
            }

            if cfg.cross_stage {
                if blocks_buf.is_empty() {
                    continue;
                }
                stats.sh_loads += 1;
            }
            stages::shade_one_deg(p, &ctx.gaussians[p.id as usize], &subcam, cfg.sh_degree);

            // Blend the effective blocks, each evaluated whole.
            // `alpha_lane_evals` keeps its per-pixel meaning: evaluations
            // the hardware Alpha Unit performs, i.e. the block's
            // non-terminated lanes.
            let mut contributed = false;
            for &b in blocks_buf.iter() {
                stats.alpha_lane_evals += u64::from(live_pixels[b]);
                let counts = patch.blend_block(b, p, cfg.alpha_min, &cfg.exp, ctx.kernels);
                stats.pixels_blended += u64::from(counts.blended);
                contributed |= counts.blended > 0;
                live_pixels[b] -= counts.terminated;
                if live_pixels[b] == 0 && !tmask.is_set(b) {
                    tmask.set(b);
                    live_blocks -= 1;
                }
            }
            if contributed {
                stats.render_invocations += 1;
                rendered.push(p.id);
            }
        }
    }

    stats
}

/// Renders a frame with the Gaussian-wise dataflow: the body of
/// [`crate::GaussianWiseRenderer`]'s `render_job`. Stage I is
/// chunk-parallel over Gaussians and Stages II–IV parallel over
/// Compatibility-Mode sub-views (a full-frame render has a single window
/// and stays on one worker); image and statistics are bit-identical for
/// every `parallelism` policy and whatever `scratch` held (the Stage I
/// depth and screen-bound buffers, the window workers' patches, tracers
/// and lists). An ROI render is bit-identical to cropping the full-frame
/// render. Under [`MaskMode::Traverse`] (the default) the restriction is
/// real work reduction: only the Cmode windows and 8×8 blocks
/// intersecting the ROI are blended, and the cross-stage termination
/// condition counts only ROI blocks. Under [`MaskMode::SkipAndBlock`] the
/// T-mask gates traversal *reachability*, so a pre-masked ROI would change
/// which blocks a Gaussian reaches — the render falls back to the full
/// frame plus a crop to preserve the bit-identity contract.
pub(crate) fn render_gaussian_wise_job(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    cfg: &GaussianWiseConfig,
    roi: Option<crate::pipeline::Roi>,
    parallelism: Parallelism,
    scratch: &mut FrameScratch,
) -> Frame {
    if let (Some(r), MaskMode::SkipAndBlock) = (&roi, cfg.mask_mode) {
        let full = render_gaussian_wise_job(gaussians, cam, cfg, None, parallelism, scratch);
        return Frame {
            image: crate::pipeline::crop_image(&full.image, r),
            stats: full.stats,
        };
    }
    let threads = parallelism.threads();
    let (w, h) = (cam.width, cam.height);

    let FrameScratch {
        depths,
        bounds,
        workers,
        ..
    } = scratch;

    // ---- Stage I: depths + grouping (global, once per frame). ----
    stages::view_depths_into(gaussians, cam, threads, depths);
    let depths = &*depths;
    let groups: DepthGroups = group_by_depth(depths);

    // ---- Cmode window partition + conservative screen bounds. ----
    // ROI restriction at window granularity: windows are independent, so
    // only those overlapping the region run at all.
    let mut windows = stages::partition_windows(w, h, cfg.subview);
    if let Some(r) = &roi {
        windows.retain(|&(x, y, ww, wh)| {
            r.intersects(
                i64::from(x),
                i64::from(y),
                i64::from(x) + i64::from(ww),
                i64::from(y) + i64::from(wh),
            )
        });
    }
    let focal = cam.fx.max(cam.fy);
    // One point projection and a radius: the rough per-item cost quoted to
    // `gcc-parallel`'s work floor.
    const BOUND_NS: u32 = 10;
    bounds.clear();
    bounds.resize(gaussians.len(), None);
    par_chunks_mut(bounds, threads, BOUND_NS, |off, chunk| {
        for (i, bound) in (off..).zip(chunk) {
            let z = depths[i];
            if z < gcc_core::NEAR_DEPTH {
                continue;
            }
            if let Some((px, _)) = cam.project_point(gaussians[i].mean) {
                let radius = 6.0 * gaussians[i].scale.max_component() * focal / z + 4.0;
                *bound = Some(ScreenBound { center: px, radius });
            }
        }
    });

    let mut stats = FrameStats {
        total_gaussians: gaussians.len() as u64,
        near_culled: u64::from(groups.near_culled),
        groups_total: groups.groups.len() as u64,
        windows: windows.len() as u64,
        ..FrameStats::default()
    };

    // ---- Stages II–IV, parallel over windows. ----
    let kernels: &'static KernelSet = match cfg.backend {
        Some(b) => dispatch::kernel_set(b).expect("configured SIMD backend unsupported on host"),
        None => dispatch::active(),
    };
    let ctx = WindowContext {
        cfg,
        cam,
        gaussians,
        groups: &groups,
        bounds,
        kernels,
        roi,
    };
    // A window's cost follows its area far more closely than anything else
    // the frame knows before rendering it: 40–290 ns per pixel over
    // sub-views of 16 to 128 pixels on the benchmark's scenes (Lego@0.25:
    // 4 windows of 128² in 12.8 ms, 256 of 16² in 32.8 ms; Lego@0.05:
    // 2.6 and 6.5 ms), so the low end is what the work floor is quoted.
    const WINDOW_PIXEL_NS: u32 = 40;
    let window_pixels: usize = windows
        .iter()
        .map(|&(_, _, ww, wh)| ww as usize * wh as usize)
        .sum();
    let rendered = stages::render_units(
        windows.len(),
        threads,
        (window_pixels, WINDOW_PIXEL_NS),
        workers,
        (w, h),
        roi.as_ref(),
        cfg.background,
        gaussians.len(),
        |wi, work| render_window(&ctx, windows[wi], work),
    );
    stats.merge_add(&rendered.stats);
    stats.rendered = rendered.rendered;

    Frame {
        image: rendered.image,
        stats,
    }
}

#[cfg(test)]
// Test data: libm `sin` / `cos` place synthetic Gaussians.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::{GaussianWiseRenderer, Renderer, StandardRenderer};

    fn test_cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            128,
            96,
        )
    }

    fn colored_cloud(n: usize) -> Vec<Gaussian3D> {
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                Gaussian3D::isotropic(
                    Vec3::new((t * 13.0).sin() * 0.8, (t * 7.0).cos() * 0.5, t * 2.0 - 0.5),
                    0.06 + 0.1 * t,
                    0.05f32.max(t),
                    Vec3::new(t, 1.0 - t, 0.5 + 0.4 * (t * 31.0).sin()),
                )
            })
            .collect()
    }

    #[test]
    fn single_gaussian_matches_reference_pipeline() {
        let cam = test_cam();
        let g = vec![Gaussian3D::isotropic(
            Vec3::ZERO,
            0.15,
            0.95,
            Vec3::new(0.9, 0.1, 0.2),
        )];
        let gw = GaussianWiseRenderer::default().render_frame(&g, &cam);
        let std_out = StandardRenderer::default().render_frame(&g, &cam);
        let diff = gw.image.max_abs_diff(&std_out.image);
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn cloud_matches_reference_within_tolerance() {
        // Both pipelines blend in global depth order, so results should
        // agree except for boundary-law differences below the 1/255 cutoff.
        let cam = test_cam();
        let cloud = colored_cloud(120);
        let gw = GaussianWiseRenderer::default().render_frame(&cloud, &cam);
        let std_out = StandardRenderer::default().render_frame(&cloud, &cam);
        let mse = gw.image.mse(&std_out.image);
        assert!(mse < 1e-5, "MSE {mse}");
    }

    #[test]
    fn cmode_render_is_equivalent_to_full_frame() {
        let cam = test_cam();
        let cloud = colored_cloud(100);
        let full = GaussianWiseRenderer::default().render_frame(&cloud, &cam);
        let cfg = GaussianWiseConfig {
            subview: Some(32),
            ..GaussianWiseConfig::default()
        };
        let tiled = GaussianWiseRenderer::new(cfg).render_frame(&cloud, &cam);
        let diff = tiled.image.max_abs_diff(&full.image);
        assert!(diff < 1e-4, "Cmode changed the image by {diff}");
        assert!(tiled.stats.windows > 1);
        // Sub-views duplicate work (Fig. 6): invocations ≥ unique rendered.
        assert!(tiled.stats.render_invocations >= tiled.stats.rendered);
        assert!(tiled.stats.geometry_loads >= full.stats.geometry_loads);
    }

    #[test]
    fn parallel_windows_reproduce_sequential_render_exactly() {
        // A frame large enough that the window loop's work floor grants
        // every thread count below (80 windows, 76 800 pixels).
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            320,
            240,
        );
        let cloud = colored_cloud(150);
        let cfg = GaussianWiseConfig {
            subview: Some(32),
            ..GaussianWiseConfig::default()
        };
        let seq = GaussianWiseRenderer::new(cfg.clone()).render_frame(&cloud, &cam);
        for threads in [2, 4, 7] {
            let par = GaussianWiseRenderer::new(cfg.clone())
                .with_parallelism(Parallelism::fixed(threads))
                .render_frame(&cloud, &cam);
            assert_eq!(seq.image, par.image, "threads={threads}");
            assert_eq!(seq.stats, par.stats, "threads={threads}");
        }
    }

    #[test]
    fn cross_stage_reduces_loads_on_occluded_scene() {
        let cam = test_cam();
        // Five stacked opaque walls covering the whole frustum at depth 2,
        // with a large cloud behind them that early termination hides.
        let mut cloud = Vec::new();
        for layer in 0..5 {
            let z = -2.0 + 0.01 * layer as f32;
            let mut ix = 0;
            while ix < 17 {
                let mut iy = 0;
                while iy < 13 {
                    cloud.push(Gaussian3D::isotropic(
                        Vec3::new(-2.4 + 0.3 * ix as f32, -1.8 + 0.3 * iy as f32, z),
                        0.5,
                        0.99,
                        Vec3::new(0.8, 0.2, 0.1),
                    ));
                    iy += 1;
                }
                ix += 1;
            }
        }
        for i in 0..400 {
            let t = i as f32 / 400.0;
            // Occluded background at z≈2 (depth 6).
            cloud.push(Gaussian3D::isotropic(
                Vec3::new(
                    (t * 23.0).fract() * 2.0 - 1.0,
                    (t * 5.0).fract() * 1.4 - 0.7,
                    2.0,
                ),
                0.1,
                0.8,
                Vec3::new(0.1, 0.8, 0.3),
            ));
        }
        let cc = GaussianWiseRenderer::default().render_frame(&cloud, &cam);
        let gw =
            GaussianWiseRenderer::new(GaussianWiseConfig::gw_only()).render_frame(&cloud, &cam);
        assert!(
            cc.stats.groups_skipped > 0,
            "expected group skipping on a fully occluded frame"
        );
        assert!(
            cc.stats.geometry_loads < gw.stats.geometry_loads,
            "CC {} vs GW {}",
            cc.stats.geometry_loads,
            gw.stats.geometry_loads
        );
        assert!(cc.stats.sh_loads < gw.stats.sh_loads);
        // And the images agree: skipped work was invisible anyway.
        let diff = cc.image.max_abs_diff(&gw.image);
        assert!(diff < 5e-3, "CC changed the image by {diff}");
    }

    #[test]
    fn lut_exp_image_is_close_to_exact() {
        let cam = test_cam();
        let cloud = colored_cloud(80);
        let exact = GaussianWiseRenderer::default().render_frame(&cloud, &cam);
        let lut = GaussianWiseRenderer::gcc_hardware().render_frame(&cloud, &cam);
        let mse = exact.image.mse(&lut.image);
        // <1% LUT error keeps images visually identical (Table 2).
        assert!(mse < 1e-4, "LUT MSE {mse}");
    }

    #[test]
    fn stats_are_internally_consistent() {
        let cam = test_cam();
        let cloud = colored_cloud(150);
        let out = GaussianWiseRenderer::default().render_frame(&cloud, &cam);
        let s = &out.stats;
        assert_eq!(s.total_gaussians, 150);
        assert!(s.projected <= s.geometry_loads);
        assert!(s.sh_loads <= s.projected);
        assert!(s.rendered <= s.projected);
        assert!(s.render_invocations >= s.rendered);
        assert!(s.pixels_blended <= s.pixels_evaluated);
        assert_eq!(s.groups_processed + s.groups_skipped, s.groups_total);
        assert_eq!(s.windows, 1);
    }

    #[test]
    fn empty_scene_is_background() {
        let cam = test_cam();
        let cfg = GaussianWiseConfig {
            background: Vec3::new(0.1, 0.2, 0.3),
            ..GaussianWiseConfig::default()
        };
        let out = GaussianWiseRenderer::new(cfg).render_frame(&[], &cam);
        assert_eq!(out.image.get(5, 5), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(out.stats.rendered, 0);
    }
}
