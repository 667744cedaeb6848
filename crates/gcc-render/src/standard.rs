//! The standard (decoupled, tile-wise) 3DGS dataflow — the pipeline used by
//! the GPU implementation and by all prior accelerators including GSCore
//! (paper §2.2, Fig. 1 top).
//!
//! Two sequential stages, both expressed over the shared
//! [`crate::pipeline::stages`] primitives:
//!
//! 1. **Preprocess**: every Gaussian is frustum-culled, projected (Eq. 1)
//!    and SH-colored (Eq. 2) — regardless of whether rendering will use it
//!    ([`stages::project_and_shade_all`]).
//! 2. **Render**: survivors are ordered front-to-back **once globally**
//!    ([`stages::global_depth_order_into`]: monotone depth keys + one
//!    stable LSD radix sort) and binned to 16×16 tiles in that order into
//!    a flat CSR layout ([`stages::TileBins`]), so every tile bin is born
//!    depth-sorted — the GSCore-shaped "ordering is one global key sort"
//!    formulation, replacing the historical per-tile comparison sorts.
//!    Pixels are blended front-to-back with early termination: per
//!    (Gaussian, tile) the row spans that can contribute are solved
//!    analytically, all rows in one `KernelSet::row_spans` call
//!    ([`EffectiveSpanWalker`] is its definition), clipped by the OBB
//!    walker under [`Footprint::Obb`], and handed to the shared blend loop
//!    ([`stages::PixelPatch::blend_rows`]). A Gaussian overlapping `k`
//!    tiles is loaded `k` times (the Fig. 2(b) redundancy).
//!
//! Tiles own disjoint pixel rectangles, so the frame engine renders them
//! in parallel ([`render_standard_with`]): each worker blends into its own
//! pooled [`stages::PixelPatch`], resolves it into the frame as the tile
//! finishes and reports an additive [`FrameStats`] partial — disjoint
//! pixels and additive counters make the parallel render bit-identical to
//! the sequential one.
//!
//! The renderer is instrumented to produce every statistic the paper's
//! motivation section and evaluation need (Fig. 2, Table 1, Fig. 11/12
//! traffic inputs), reported through the unified [`FrameStats`] view.
//! `sort_elements` keeps its historical meaning — elements through the
//! per-tile depth-ordering stage (= KV pairs) — even though the ordering
//! work now happens once globally; the simulator's sort-cost models are
//! calibrated against that definition.

use gcc_core::alpha::{EffectiveSpanWalker, ExpMode};
use gcc_core::bounds::{BoundingLaw, Obb, PixelRect};
use gcc_core::dispatch::{self, Backend, KernelSet};
use gcc_core::{Camera, Gaussian3D, ProjectedGaussian};
use gcc_math::Vec3;
use gcc_parallel::{par_map_chunked, Parallelism};

use crate::pipeline::stages::{self, BlendScratch};
use crate::pipeline::{FrameScratch, FrameStats};
use crate::Image;

/// Rough cost of one (Gaussian, tile) pair in the tile stage — span
/// solve, power chain, exponentials, blend — quoted to
/// [`stages::render_units`]' work floor. A sequential standard frame at
/// 256² costs 185–235 ns per KV pair all told on every scene and ladder
/// rung the repo benchmark renders (Lego@0.5 `full` 94.8 k pairs in
/// 17.5 ms, its `floor` rung 10.8 k in 2.6 ms, Train@0.05 21.1 k in
/// 4.4 ms, Lego@0.15 28.1 k in 5.4 ms), and the tile stage is all of
/// that but the 0.9 ms (8.5 k Gaussians) to 3 ms (17 k) of preprocessing:
/// 150–165 ns a pair. At this quote a frame is offered a second thread
/// from 625 pairs up. Frames that small, rendered back to back on two
/// vCPUs with a core each, took 0.79 (895 pairs, 0.15 ms) and 0.71
/// (1 760 pairs) of their one-thread time; in the host's slow mode, where
/// the two vCPUs share a core, every two-thread frame under ≈ 5 600 pairs
/// read 1.1–1.8× — per-map spawning read the same there.
const KV_PAIR_NS: u32 = 160;

/// Which footprint limits per-pixel alpha evaluation inside a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// Axis-aligned bounding box (the GPU rasterizer).
    Aabb,
    /// Oriented bounding box (GSCore's tightened footprint).
    Obb,
}

/// Configuration of the standard pipeline.
#[derive(Debug, Clone)]
pub struct StandardConfig {
    /// Tile edge in pixels (16 in the paper).
    pub tile_size: u32,
    /// Bounding law for binning and culling (3σ for GPU/GSCore).
    pub law: BoundingLaw,
    /// Per-pixel footprint test.
    pub footprint: Footprint,
    /// Exponential datapath.
    pub exp: ExpMode,
    /// Background color composited behind the splats.
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

impl Default for StandardConfig {
    fn default() -> Self {
        Self {
            tile_size: 16,
            law: BoundingLaw::ThreeSigma,
            footprint: Footprint::Aabb,
            exp: ExpMode::Exact,
            background: Vec3::ZERO,
            alpha_min: 0.0,
            sh_degree: 3,
            backend: None,
        }
    }
}

impl StandardConfig {
    /// GSCore's configuration: OBB footprint, otherwise the standard
    /// two-stage pipeline.
    pub fn gscore() -> Self {
        Self {
            footprint: Footprint::Obb,
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

/// Output of a standard-dataflow render.
#[derive(Debug, Clone)]
pub struct StandardOutput {
    /// The rendered frame.
    pub image: Image,
    /// Unified workload statistics.
    pub stats: FrameStats,
    /// Projected Gaussians in scene order (preprocessing output, useful
    /// for downstream analysis).
    pub projected: Vec<ProjectedGaussian>,
    /// Gaussians per tile (row-major tile grid), for sort-cost models.
    pub tile_gaussian_counts: Vec<u32>,
}

/// Everything a tile worker needs, shared read-only across workers.
struct TileContext<'a> {
    cfg: &'a StandardConfig,
    projected: &'a [ProjectedGaussian],
    /// Per-survivor OBBs; empty unless the footprint is [`Footprint::Obb`].
    obbs: &'a [Option<Obb>],
    rects: &'a [PixelRect],
    width: u32,
    height: u32,
    tiles_x: u32,
    /// Resolved SIMD kernel table for this render.
    kernels: &'static KernelSet,
}

/// Renders one tile into `work.patch`: its bin arrives depth-sorted (born
/// that way from the global ordering + CSR fill), so the worker goes
/// straight to blending front-to-back with per-tile early termination.
/// Returns the tile's additive stats and leaves the Gaussians it loaded
/// and rendered in `work` (merged by OR into the frame sets). Pure
/// function of its inputs — the unit of parallelism of the standard
/// schedule.
fn render_tile(
    ctx: &TileContext<'_>,
    tile: usize,
    bin: &[u32],
    work: &mut BlendScratch,
) -> FrameStats {
    let ts = ctx.cfg.tile_size;
    let tx = (tile as u32) % ctx.tiles_x;
    let ty = (tile as u32) / ctx.tiles_x;
    let x0 = (tx * ts) as i32;
    let y0 = (ty * ts) as i32;
    let x1 = ((tx + 1) * ts).min(ctx.width) as i32;
    let y1 = ((ty + 1) * ts).min(ctx.height) as i32;
    let BlendScratch {
        patch,
        loaded,
        rendered,
        spans: (span_lo, span_hi),
        ..
    } = work;
    patch.reset(x0 as u32, y0 as u32, (x1 - x0) as u32, (y1 - y0) as u32, ts);
    span_lo.resize(ts as usize, 0);
    span_hi.resize(ts as usize, 0);

    let mut stats = FrameStats::default();
    // Elements through the depth-ordering stage for this tile. The
    // ordering now happens once globally, but the per-tile sort workload
    // definition (= this tile's KV pairs) is what the simulator's
    // sort-cost models consume, so it is preserved verbatim.
    stats.sort_elements += bin.len() as u64;

    let mut active = ((x1 - x0) * (y1 - y0)) as u32;
    for &idx in bin {
        if active == 0 {
            // Tile fully terminated: the remaining KV pairs are never
            // loaded (GSCore's per-tile early termination).
            break;
        }
        let p = &ctx.projected[idx as usize];
        stats.tile_loads += 1;
        loaded.push(idx);

        let rect = &ctx.rects[idx as usize];
        let rx0 = rect.x0.max(x0);
        let ry0 = rect.y0.max(y0);
        let rx1 = rect.x1.min(x1);
        let ry1 = rect.y1.min(y1);
        if rx0 >= rx1 || ry0 >= ry1 {
            continue;
        }
        // Row-analytic work restriction: the alpha cutoff and the
        // footprint test are solved per row (forward differences down the
        // rows, no per-pixel test), so only the span that can contribute
        // reaches the blend. Counters keep their per-pixel semantics via
        // bulk adds.
        let aabb_tests = ((rx1 - rx0) * (ry1 - ry0)) as u64;
        stats.pixels_tested_aabb += aabb_tests;
        let obb = match ctx.cfg.footprint {
            Footprint::Aabb => {
                stats.pixels_tested += aabb_tests;
                None
            }
            // A survivor without an OBB has an empty envelope: nothing to
            // test, nothing to blend.
            Footprint::Obb => match &ctx.obbs[idx as usize] {
                Some(obb) => Some(obb),
                None => continue,
            },
        };
        let rows = (ry1 - ry0) as usize;
        let (lo, hi) = (&mut span_lo[..rows], &mut span_hi[..rows]);
        (ctx.kernels.row_spans)(EffectiveSpanWalker::new(p, rx0, rx1, ry0), lo, hi);
        if let Some(obb) = obb {
            let mut walker = obb.span_walker(rx0, rx1, ry0);
            for (lo, hi) in lo.iter_mut().zip(hi.iter_mut()) {
                let (ox0, ox1) = walker.next_span();
                let tests = (ox1 - ox0) as u64;
                stats.pixels_tested += tests;
                stats.pixels_tested_obb += tests;
                (*lo, *hi) = ((*lo).max(ox0), (*hi).min(ox1));
            }
        }
        // Both walkers stay inside `[rx0, rx1)`, hence inside the tile.
        let counts = patch.blend_rows(
            0,
            p,
            (x0, y0),
            (ry0 - y0) as u32,
            (lo, hi),
            ctx.cfg.alpha_min,
            &ctx.cfg.exp,
            ctx.kernels,
        );
        active -= counts.terminated;
        if counts.blended > 0 {
            stats.pixels_blended += u64::from(counts.blended);
            rendered.push(idx);
        }
    }
    stats
}

/// Renders a frame with the standard two-stage tile-wise dataflow,
/// sequentially (the reference schedule).
pub fn render_standard(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    cfg: &StandardConfig,
) -> StandardOutput {
    render_standard_with(gaussians, cam, cfg, Parallelism::Sequential)
}

/// Renders a frame with the standard dataflow on the parallel frame
/// engine: preprocessing is chunk-parallel over Gaussians and rendering is
/// parallel over tiles. Image and statistics are bit-identical to
/// [`render_standard`] for every `parallelism` policy.
pub fn render_standard_with(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    cfg: &StandardConfig,
    parallelism: Parallelism,
) -> StandardOutput {
    render_standard_scratch(gaussians, cam, cfg, parallelism, &mut FrameScratch::new())
}

/// [`render_standard_with`] reusing caller-owned scratch buffers (depth
/// keys, radix ping-pong, footprints, CSR bins) — the batch-render entry
/// point. Output is bit-identical whatever the scratch previously held.
pub fn render_standard_scratch(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    cfg: &StandardConfig,
    parallelism: Parallelism,
    scratch: &mut FrameScratch,
) -> StandardOutput {
    render_standard_job(gaussians, cam, cfg, None, parallelism, scratch)
}

/// The request-model entry point: [`render_standard_scratch`] with an
/// optional region of interest. An ROI render keeps full-frame arithmetic
/// (projection, global ordering, binning are unchanged) and renders only
/// the tiles intersecting the ROI — every tile is a pure function of the
/// global depth order, so the output is bit-identical to cropping the
/// full-frame render. Work counters cover only the processed tiles;
/// grid-level fields (`tiles`, `kv_pairs`, the per-tile counts) keep their
/// full-frame definitions.
pub fn render_standard_job(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    cfg: &StandardConfig,
    roi: Option<crate::pipeline::Roi>,
    parallelism: Parallelism,
    scratch: &mut FrameScratch,
) -> StandardOutput {
    let threads = parallelism.threads();
    let (w, h) = (cam.width, cam.height);
    let ts = cfg.tile_size;
    let tiles_x = w.div_ceil(ts);
    let tiles_y = h.div_ceil(ts);
    let n_tiles = (tiles_x * tiles_y) as usize;
    let kernels: &'static KernelSet = match cfg.backend {
        Some(b) => dispatch::kernel_set(b).expect("configured SIMD backend unsupported on host"),
        None => dispatch::active(),
    };

    // ---- Stage 1: preprocess everything (the paper's Challenge 1). ----
    // Cull + project first, then pack the survivors' hot fields into the
    // SoA scratch arrays so the batched SH, depth-key and footprint
    // stages stream flat `f32` slices (and can vectorize). Bit-identical
    // to the historical fused project+shade pass: per-survivor arithmetic
    // is unchanged, only the iteration shape moved.
    let mut projected = stages::project_all(gaussians, cam, cfg.law, threads);
    scratch.soa.pack(&projected, gaussians, cam);
    debug_assert_eq!(scratch.soa.len(), projected.len());
    stages::shade_all_soa(
        &mut projected,
        gaussians,
        &scratch.soa.dir_x,
        &scratch.soa.dir_y,
        &scratch.soa.dir_z,
        cfg.sh_degree,
        threads,
        kernels,
    );
    let projected = projected;

    let mut stats = FrameStats {
        total_gaussians: gaussians.len() as u64,
        // The standard dataflow streams every record once in preprocessing
        // and fetches SH for every in-frustum Gaussian up front.
        geometry_loads: gaussians.len() as u64,
        projected: projected.len() as u64,
        sh_loads: projected.len() as u64,
        tiles: n_tiles as u64,
        windows: 1,
        ..FrameStats::default()
    };

    // OBBs once per projected Gaussian, for the footprint that tests them.
    let obbs: Vec<Option<Obb>> = match cfg.footprint {
        Footprint::Aabb => Vec::new(),
        Footprint::Obb => par_map_chunked(&projected, threads, stages::FOOTPRINT_NS, |_, p| {
            Obb::from_cov(p.mean2d, p.cov2d, cfg.law, p.opacity)
        }),
    };

    // ---- Global depth ordering: one radix sort over monotone keys,
    // generated from the flat SoA depth array by the dispatched kernel. ----
    stages::footprint_rects_soa_into(
        &scratch.soa.mean_x,
        &scratch.soa.mean_y,
        &scratch.soa.radius,
        w,
        h,
        threads,
        &mut scratch.rects,
    );
    stages::global_depth_order_soa(
        &scratch.soa.depth,
        threads,
        &mut scratch.keys,
        &mut scratch.order,
        &mut scratch.radix,
        kernels,
    );

    // ---- Binning: Gaussian → tile KV pairs, CSR, born depth-sorted. ----
    stats.kv_pairs = scratch
        .bins
        .build(&scratch.rects, &scratch.order, ts, tiles_x, n_tiles);
    let tile_gaussian_counts: Vec<u32> = (0..n_tiles).map(|t| scratch.bins.count(t)).collect();

    // ---- Stage 2: tile-wise rendering, parallel over tiles. ----
    let ctx = TileContext {
        cfg,
        projected: &projected,
        obbs: &obbs,
        rects: &scratch.rects,
        width: w,
        height: h,
        tiles_x,
        kernels,
    };
    let bins = &scratch.bins;
    // ROI restriction: only tiles whose pixel rectangle intersects the
    // region run (each tile is pure, so skipping the rest cannot change
    // the ROI pixels).
    let in_roi = |t: usize| match &roi {
        None => true,
        Some(r) => {
            let tx = (t as u32) % tiles_x;
            let ty = (t as u32) / tiles_x;
            r.intersects(
                i64::from(tx * ts),
                i64::from(ty * ts),
                i64::from(((tx + 1) * ts).min(w)),
                i64::from(((ty + 1) * ts).min(h)),
            )
        }
    };
    let occupied: Vec<usize> = (0..n_tiles)
        .filter(|&t| bins.count(t) > 0 && in_roi(t))
        .collect();
    // What the tile stage has to do, for `render_units`' work floor: the
    // KV pairs of the tiles that run.
    let pairs: usize = occupied.iter().map(|&t| bins.count(t) as usize).sum();

    let tiles = stages::render_units(
        occupied.len(),
        threads,
        (pairs, KV_PAIR_NS),
        &mut scratch.workers,
        (w, h),
        roi.as_ref(),
        cfg.background,
        projected.len(),
        |k, work| {
            let t = occupied[k];
            render_tile(&ctx, t, bins.bin(t), work)
        },
    );
    stats.merge_add(&tiles.stats);
    stats.unique_loaded = tiles.loaded;
    stats.rendered = tiles.rendered;
    // Single window: every contributor is invoked exactly once.
    stats.render_invocations = stats.rendered;

    StandardOutput {
        image: tiles.image,
        stats,
        projected,
        tile_gaussian_counts,
    }
}

/// The "GPU" reference render of Table 2: exact arithmetic, AABB footprint,
/// 3σ law, black background.
pub fn render_reference(gaussians: &[Gaussian3D], cam: &Camera) -> StandardOutput {
    render_standard(gaussians, cam, &StandardConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::Vec3;

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

    fn one_gaussian() -> Vec<Gaussian3D> {
        vec![Gaussian3D::isotropic(
            Vec3::ZERO,
            0.15,
            0.95,
            Vec3::new(1.0, 0.0, 0.0),
        )]
    }

    #[test]
    fn single_gaussian_renders_red_center() {
        let cam = test_cam();
        let out = render_reference(&one_gaussian(), &cam);
        let center = out.image.get(64, 48);
        assert!(center.x > 0.8, "center {center:?}");
        assert!(center.y < 0.05);
        // Far corner stays background.
        assert_eq!(out.image.get(0, 0), Vec3::ZERO);
        assert_eq!(out.stats.projected, 1);
        assert_eq!(out.stats.rendered, 1);
    }

    #[test]
    fn occluded_gaussian_is_preprocessed_but_not_rendered() {
        let cam = test_cam();
        // Opaque front disc fully covering a farther one.
        let front = Gaussian3D::isotropic(Vec3::ZERO, 0.4, 0.999, Vec3::new(1.0, 0.0, 0.0));
        let back = Gaussian3D::isotropic(
            Vec3::new(0.0, 0.0, 1.0),
            0.05,
            0.9,
            Vec3::new(0.0, 1.0, 0.0),
        );
        // Blend enough copies of the front to guarantee termination.
        let gaussians = vec![front.clone(), front.clone(), front.clone(), front, back];
        let out = render_reference(&gaussians, &cam);
        assert_eq!(out.stats.projected, 5);
        assert!(
            out.stats.rendered < 5,
            "back Gaussian should be terminated away (rendered {})",
            out.stats.rendered
        );
        let center = out.image.get(64, 48);
        assert!(center.x > 0.9 && center.y < 0.01, "center {center:?}");
    }

    #[test]
    fn kv_pairs_count_tile_overlap() {
        let cam = test_cam();
        let out = render_reference(&one_gaussian(), &cam);
        // A 0.15-radius Gaussian at 4m with f≈83px: radius ≈ 3σ·0.15·83/4
        // ≈ 9px ⇒ ≥ 2×2 tiles once straddling a boundary; at least 1.
        assert!(out.stats.kv_pairs >= 1);
        assert_eq!(
            out.stats.kv_pairs,
            out.tile_gaussian_counts
                .iter()
                .map(|&c| u64::from(c))
                .sum::<u64>()
        );
    }

    #[test]
    fn big_gaussian_is_loaded_once_per_tile() {
        let cam = test_cam();
        let g = vec![Gaussian3D::isotropic(
            Vec3::ZERO,
            0.8,
            0.5,
            Vec3::new(0.2, 0.2, 0.9),
        )];
        let out = render_reference(&g, &cam);
        assert!(out.stats.kv_pairs > 4, "kv {}", out.stats.kv_pairs);
        assert_eq!(out.stats.tile_loads, out.stats.kv_pairs);
        assert_eq!(out.stats.unique_loaded, 1);
        assert!(out.stats.avg_loads_per_gaussian() > 4.0);
    }

    #[test]
    fn obb_footprint_tests_fewer_pixels_same_image() {
        let cam = test_cam();
        // An anisotropic diagonal Gaussian where OBB ≪ AABB.
        let g = vec![Gaussian3D::new(
            Vec3::ZERO,
            Vec3::new(0.6, 0.02, 0.02),
            gcc_math::Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), 0.8),
            0.9,
            {
                let mut sh = [0.0f32; 48];
                sh[0] = 1.0;
                sh
            },
        )];
        let aabb_out = render_standard(&g, &cam, &StandardConfig::default());
        let obb_out = render_standard(&g, &cam, &StandardConfig::gscore());
        assert!(
            obb_out.stats.pixels_tested < aabb_out.stats.pixels_tested,
            "OBB {} vs AABB {}",
            obb_out.stats.pixels_tested,
            aabb_out.stats.pixels_tested
        );
        // At ω = 0.9 the effective (α ≥ 1/255) ellipse slightly exceeds the
        // 3σ OBB (Fig. 4(a)), so the OBB clips a fringe whose alpha is at
        // most ω·e^{-9/2} ≈ 0.010 — images agree to that bound.
        assert!(aabb_out.image.max_abs_diff(&obb_out.image) < 0.015);
        assert!(obb_out.stats.pixels_blended <= aabb_out.stats.pixels_blended);
    }

    #[test]
    fn table1_column_ordering_holds() {
        let cam = test_cam();
        let mut gaussians = Vec::new();
        // A mix of opacities, as in real scenes.
        for i in 0..40 {
            let t = i as f32 / 40.0;
            gaussians.push(Gaussian3D::isotropic(
                Vec3::new(t * 2.0 - 1.0, (t * 7.0).sin() * 0.5, t),
                0.1 + 0.1 * t,
                (0.01f32).max(t * t),
                Vec3::new(t, 1.0 - t, 0.5),
            ));
        }
        // The OBB column comes from a render that tests OBBs; an AABB
        // render leaves it empty.
        let out = render_standard(&gaussians, &cam, &StandardConfig::gscore());
        assert!(out.stats.pixels_tested_aabb >= out.stats.pixels_tested_obb);
        assert_eq!(out.stats.pixels_tested_obb, out.stats.pixels_tested);
        assert!(out.stats.pixels_tested_obb >= out.stats.pixels_blended);
        let aabb = render_reference(&gaussians, &cam);
        assert_eq!(aabb.stats.pixels_tested_aabb, out.stats.pixels_tested_aabb);
        assert_eq!(aabb.stats.pixels_tested_obb, 0);
    }

    #[test]
    fn empty_scene_renders_background() {
        let cam = test_cam();
        let cfg = StandardConfig {
            background: Vec3::new(0.2, 0.3, 0.4),
            ..StandardConfig::default()
        };
        let out = render_standard(&[], &cam, &cfg);
        assert_eq!(out.image.get(10, 10), Vec3::new(0.2, 0.3, 0.4));
        assert_eq!(out.stats.projected, 0);
    }

    #[test]
    fn unused_fraction_definition() {
        let s = FrameStats {
            projected: 10,
            rendered: 4,
            ..FrameStats::default()
        };
        assert!((s.unused_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn parallel_tiles_reproduce_sequential_render_exactly() {
        let cam = test_cam();
        let mut gaussians = Vec::new();
        for i in 0..6400 {
            let t = i as f32 / 6400.0;
            gaussians.push(Gaussian3D::isotropic(
                Vec3::new((t * 19.0).sin(), (t * 13.0).cos() * 0.6, t * 2.0 - 0.3),
                0.05 + 0.1 * t,
                0.05f32.max(t),
                Vec3::new(t, 1.0 - t, 0.4),
            ));
        }
        let seq = render_standard(&gaussians, &cam, &StandardConfig::default());
        // Enough pairs that the tile stage's work floor grants every
        // thread count below: the frames really are rendered in parallel.
        assert_eq!(
            gcc_parallel::worthwhile_threads(7, seq.stats.kv_pairs as usize, KV_PAIR_NS),
            7,
            "{} pairs",
            seq.stats.kv_pairs
        );
        for threads in [2, 4, 7] {
            let par = render_standard_with(
                &gaussians,
                &cam,
                &StandardConfig::default(),
                Parallelism::fixed(threads),
            );
            assert_eq!(seq.image, par.image, "threads={threads}");
            assert_eq!(seq.stats, par.stats, "threads={threads}");
        }
    }
}
