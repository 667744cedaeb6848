//! Shared per-Gaussian stage primitives.
//!
//! Both dataflows of the paper are *schedules* over the same five stages —
//! cull → project → SH → sort → blend (paper §2, Fig. 1). This module
//! holds the stage functions themselves, so `standard.rs` and
//! `gaussian_wise.rs` only decide *when* each stage runs and for *which*
//! Gaussians, never *how*:
//!
//! * [`project_one`] — frustum/near cull + EWA projection of one Gaussian
//!   (Stage II in GCC's numbering; "preprocess" step 1 in the standard
//!   pipeline),
//! * [`shade_one`] — SH color evaluation (Stage III / preprocess step 2),
//! * [`project_and_shade_all`] — the standard schedule's eager Stage 1:
//!   every Gaussian through both, order-preserving and parallelizable,
//! * [`view_depths`] — Stage I depth computation for grouping,
//! * [`sort_by_depth`] / [`sort_indices_by_depth`] — the depth-sort stage
//!   over survivors or over per-tile index lists,
//! * [`partition_windows`] — Compatibility-Mode sub-view partitioning,
//! * [`PixelPatch`] — a rectangular tile/window of blending state that a
//!   worker owns exclusively, resolved into the frame at merge time.
//!
//! Every function here is deterministic and free of interior ordering
//! choices, which is what makes the parallel engine's output bit-identical
//! to the sequential schedules.

use gcc_core::alpha::PixelState;
use gcc_core::bounds::{BoundingLaw, PixelRect};
use gcc_core::dispatch::KernelSet;
use gcc_core::projection::{map_color, map_color_deg, project_gaussian};
use gcc_core::sort::depth_key;
use gcc_core::{Camera, Gaussian3D, ProjectedGaussian};
use gcc_math::Vec3;
use gcc_parallel::{
    exclusive_prefix_sum, par_chunks_mut, par_filter_map_chunked, radix_sort_indices_into,
};

use crate::Image;

// Rough per-item costs, in nanoseconds, that the chunk-parallel stages
// quote to `gcc-parallel`'s work floor — from the benchmark's traced Lego
// frame (`gcc-render.project_ms` 0.97, `shade_ms` 0.28, `footprint_ms`
// 0.19 over 8.5 k survivors; `gcc-core.depth_keys_ns_per_elem` 0.13). A
// stage whose share per thread is too small to pay for a helper thread
// runs inline, so at a frame's sizes only projection is shared out.
const PROJECT_NS: u32 = 110;
const SHADE_NS: u32 = 33;
/// One footprint: an AABB from a circle, or an OBB from a covariance.
pub(crate) const FOOTPRINT_NS: u32 = 22;
const VIEW_DEPTH_NS: u32 = 3;
const DEPTH_KEY_NS: u32 = 1;

/// Cull + project stage for one Gaussian: `None` when the Gaussian fails
/// the near-plane or frustum test under `law`.
pub fn project_one(
    g: &Gaussian3D,
    id: u32,
    cam: &Camera,
    law: BoundingLaw,
) -> Option<ProjectedGaussian> {
    project_gaussian(g, id, cam, law)
}

/// SH color stage: evaluates the view-dependent color of `g` into `p`.
pub fn shade_one(p: &mut ProjectedGaussian, g: &Gaussian3D, cam: &Camera) {
    map_color(p, g, cam);
}

/// [`shade_one`] with the SH evaluation clamped to bands `l ≤ degree` —
/// the per-request SH degree quality knob. `degree = 3` is bit-identical
/// to [`shade_one`].
pub fn shade_one_deg(p: &mut ProjectedGaussian, g: &Gaussian3D, cam: &Camera, degree: u8) {
    map_color_deg(p, g, cam, degree);
}

/// The standard schedule's eager preprocessing: every Gaussian through
/// cull + project + SH. Survivors come back in scene order regardless of
/// `threads`, so downstream binning and sorting see the exact sequential
/// stream.
pub fn project_and_shade_all(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    law: BoundingLaw,
    threads: usize,
) -> Vec<ProjectedGaussian> {
    project_and_shade_all_deg(gaussians, cam, law, 3, threads)
}

/// [`project_and_shade_all`] with the SH degree clamp of
/// [`shade_one_deg`]; `degree = 3` is bit-identical.
pub fn project_and_shade_all_deg(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    law: BoundingLaw,
    degree: u8,
    threads: usize,
) -> Vec<ProjectedGaussian> {
    par_filter_map_chunked(gaussians, threads, PROJECT_NS + SHADE_NS, |i, g| {
        project_one(g, i as u32, cam, law).map(|mut p| {
            shade_one_deg(&mut p, g, cam, degree);
            p
        })
    })
}

/// Cull + project only — the SoA schedule's Stage II, leaving SH to the
/// batched [`shade_all_soa`] pass. Survivors come back in scene order
/// regardless of `threads`.
pub fn project_all(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    law: BoundingLaw,
    threads: usize,
) -> Vec<ProjectedGaussian> {
    par_filter_map_chunked(gaussians, threads, PROJECT_NS, |i, g| {
        project_one(g, i as u32, cam, law)
    })
}

/// Batched SH color stage over SoA survivor fields: coefficients are
/// gathered in place from `gaussians[p.id].sh` (no packed copy — the
/// source array is already the coefficient store), `dir_x/y/z` are the
/// per-survivor view directions, and the evaluation itself runs through
/// `kernels.sh_colors` — scalar or SIMD, bit-identical either way (the
/// dispatch contract). Chunk-parallel over survivors; per-element results
/// are independent, so every thread count and every chunk boundary
/// produces the same colors as one sequential kernel call.
///
/// Bit-identical to [`shade_one_deg`] applied per survivor: the kernels
/// evaluate the exact [`gcc_core::sh::eval_color_deg`] arithmetic and the
/// directions are precomputed with the same [`Camera::view_dir`].
// Flat slices on purpose: the argument list is the kernel ABI
// (`gcc_core::dispatch::ShColorsFn`) plus threading, not a struct in
// disguise.
#[allow(clippy::too_many_arguments)]
pub fn shade_all_soa(
    projected: &mut [ProjectedGaussian],
    gaussians: &[Gaussian3D],
    dir_x: &[f32],
    dir_y: &[f32],
    dir_z: &[f32],
    degree: u8,
    threads: usize,
    kernels: &KernelSet,
) {
    par_chunks_mut(projected, threads, SHADE_NS, |off, chunk| {
        let n = chunk.len();
        (kernels.sh_colors)(
            gaussians,
            &dir_x[off..off + n],
            &dir_y[off..off + n],
            &dir_z[off..off + n],
            degree,
            chunk,
        );
    });
}

/// Stage I of the Gaussian-wise schedule: view-space depths for all
/// Gaussians, in scene order (parallelized over chunks).
pub fn view_depths(gaussians: &[Gaussian3D], cam: &Camera, threads: usize) -> Vec<f32> {
    let mut out = Vec::new();
    view_depths_into(gaussians, cam, threads, &mut out);
    out
}

/// [`view_depths`] into a reusable buffer (no allocation once warm).
pub fn view_depths_into(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    threads: usize,
    out: &mut Vec<f32>,
) {
    out.clear();
    out.resize(gaussians.len(), 0.0);
    par_chunks_mut(out, threads, VIEW_DEPTH_NS, |off, chunk| {
        for (depth, g) in chunk.iter_mut().zip(&gaussians[off..]) {
            *depth = cam.view_depth(g.mean);
        }
    });
}

/// Depth-sort stage over projected survivors (front to back).
pub fn sort_by_depth(survivors: &mut [ProjectedGaussian]) {
    survivors.sort_by(|a, b| a.depth.total_cmp(&b.depth));
}

/// Depth-sort stage over an index list into a projected array — the
/// standard schedule's *historical* per-tile sort, kept as the reference
/// ordering that [`global_depth_order_into`] + [`TileBins`] are pinned
/// against (equal depths keep scene order in both formulations).
pub fn sort_indices_by_depth(indices: &mut [u32], projected: &[ProjectedGaussian]) {
    indices.sort_by(|&a, &b| {
        projected[a as usize]
            .depth
            .total_cmp(&projected[b as usize].depth)
    });
}

/// The global depth-ordering stage: one monotone `u32` key per projected
/// survivor ([`depth_key`], chunk-parallel) and one stable LSD radix sort
/// over all of them. `order` receives the survivor indices front to back;
/// equal depths keep scene order, so any subsequence of `order` (e.g. a
/// tile bin filled in this order) is exactly what a stable per-tile
/// `total_cmp` sort would have produced. `keys` and `radix` are reusable
/// scratch.
pub fn global_depth_order_into(
    projected: &[ProjectedGaussian],
    threads: usize,
    keys: &mut Vec<u32>,
    order: &mut Vec<u32>,
    radix: &mut Vec<u32>,
) {
    keys.clear();
    keys.resize(projected.len(), 0);
    par_chunks_mut(keys, threads, DEPTH_KEY_NS, |off, chunk| {
        for (key, p) in chunk.iter_mut().zip(&projected[off..]) {
            *key = depth_key(p.depth);
        }
    });
    radix_sort_indices_into(keys, threads, order, radix);
}

/// [`global_depth_order_into`] over a flat SoA depth array, with key
/// generation routed through `kernels.depth_keys` (scalar or SIMD — the
/// monotone sign-flip mapping is bit-identical in every backend, so the
/// resulting order is too). Chunk-parallel over the key buffer.
pub fn global_depth_order_soa(
    depths: &[f32],
    threads: usize,
    keys: &mut Vec<u32>,
    order: &mut Vec<u32>,
    radix: &mut Vec<u32>,
    kernels: &KernelSet,
) {
    keys.clear();
    keys.resize(depths.len(), 0);
    par_chunks_mut(keys, threads, DEPTH_KEY_NS, |off, chunk| {
        (kernels.depth_keys)(&depths[off..off + chunk.len()], chunk);
    });
    radix_sort_indices_into(keys, threads, order, radix);
}

/// Screen-clipped AABB footprints of all projected survivors, in scene
/// order, into a reusable buffer — computed once per frame and shared by
/// binning and tile rendering.
pub fn footprint_rects_into(
    projected: &[ProjectedGaussian],
    width: u32,
    height: u32,
    threads: usize,
    rects: &mut Vec<PixelRect>,
) {
    rects.clear();
    rects.resize(projected.len(), PixelRect::EMPTY);
    par_chunks_mut(rects, threads, FOOTPRINT_NS, |off, chunk| {
        for (rect, p) in chunk.iter_mut().zip(&projected[off..]) {
            *rect = PixelRect::from_circle(p.mean2d, p.radius, width, height);
        }
    });
}

/// [`footprint_rects_into`] over flat SoA center/radius arrays — the same
/// `PixelRect::from_circle` per survivor, streaming three contiguous `f32`
/// arrays instead of strided projection records.
pub fn footprint_rects_soa_into(
    mean_x: &[f32],
    mean_y: &[f32],
    radius: &[f32],
    width: u32,
    height: u32,
    threads: usize,
    rects: &mut Vec<PixelRect>,
) {
    rects.clear();
    rects.resize(mean_x.len(), PixelRect::EMPTY);
    par_chunks_mut(rects, threads, FOOTPRINT_NS, |off, chunk| {
        for (j, rect) in chunk.iter_mut().enumerate() {
            let i = off + j;
            let center = gcc_math::Vec2::new(mean_x[i], mean_y[i]);
            *rect = PixelRect::from_circle(center, radius[i], width, height);
        }
    });
}

/// Flat CSR tile bins: every Gaussian→tile key-value pair lives in one
/// `entries` array, with per-tile extents tracked in `ends` — no
/// per-tile `Vec`s, no per-frame allocation once the buffers are warm.
///
/// Built in two passes (counts → exclusive prefix sum → fill). The fill
/// iterates survivors in **global depth order**, so every bin is *born*
/// front-to-back sorted and the per-tile sort stage disappears.
#[derive(Debug, Clone, Default)]
pub struct TileBins {
    /// After the fill, `ends[t]` is the exclusive end of tile `t`'s slice
    /// in `entries` (its start is `ends[t - 1]`, or 0 for tile 0).
    ends: Vec<u32>,
    entries: Vec<u32>,
}

impl TileBins {
    /// Empty bins (buffers grow on first build).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the bins for `n_tiles` tiles of edge `tile_size` on a grid
    /// `tiles_x` wide, from per-survivor footprints and the global depth
    /// order. Returns the number of key-value pairs created.
    pub fn build(
        &mut self,
        rects: &[PixelRect],
        order: &[u32],
        tile_size: u32,
        tiles_x: u32,
        n_tiles: usize,
    ) -> u64 {
        self.ends.clear();
        self.ends.resize(n_tiles, 0);
        for rect in rects {
            if rect.is_empty() {
                continue;
            }
            let (tx0, ty0, tx1, ty1) = rect.tile_range(tile_size);
            for ty in ty0..ty1 {
                for tx in tx0..tx1 {
                    self.ends[(ty * tiles_x + tx) as usize] += 1;
                }
            }
        }
        let total = exclusive_prefix_sum(&mut self.ends);
        self.entries.clear();
        self.entries.resize(total as usize, 0);
        // Fill in global depth order; `ends[t]` walks from tile t's start
        // to its end, leaving exactly the CSR extents behind.
        for &idx in order {
            let rect = &rects[idx as usize];
            if rect.is_empty() {
                continue;
            }
            let (tx0, ty0, tx1, ty1) = rect.tile_range(tile_size);
            for ty in ty0..ty1 {
                for tx in tx0..tx1 {
                    let t = (ty * tiles_x + tx) as usize;
                    self.entries[self.ends[t] as usize] = idx;
                    self.ends[t] += 1;
                }
            }
        }
        u64::from(total)
    }

    /// Number of tiles the bins were built for.
    pub fn tiles(&self) -> usize {
        self.ends.len()
    }

    /// Tile `t`'s bin: survivor indices front to back.
    pub fn bin(&self, t: usize) -> &[u32] {
        let start = if t == 0 { 0 } else { self.ends[t - 1] as usize };
        &self.entries[start..self.ends[t] as usize]
    }

    /// Number of Gaussians binned to tile `t`.
    pub fn count(&self, t: usize) -> u32 {
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        self.ends[t] - start
    }
}

/// Splits a `w × h` image into `subview × subview` windows `(x, y, w, h)`
/// in row-major order (the trailing row/column may be smaller). `None`
/// yields a single full-frame window.
///
/// # Panics
///
/// Panics when `subview` is `Some(0)`.
pub fn partition_windows(w: u32, h: u32, subview: Option<u32>) -> Vec<(u32, u32, u32, u32)> {
    match subview {
        None => vec![(0, 0, w, h)],
        Some(s) => {
            assert!(s > 0, "sub-view size must be positive");
            let mut out = Vec::new();
            let mut y = 0;
            while y < h {
                let wh = s.min(h - y);
                let mut x = 0;
                while x < w {
                    let ww = s.min(w - x);
                    out.push((x, y, ww, wh));
                    x += ww;
                }
                y += wh;
            }
            out
        }
    }
}

/// A rectangle of per-pixel blending state owned exclusively by one work
/// unit (a tile or a Cmode window). Workers blend into their patch;
/// the frame driver resolves patches into the output image in work-unit
/// order — the merge is trivially deterministic because patches never
/// overlap.
#[derive(Debug, Clone)]
pub struct PixelPatch {
    /// Frame-space x of the patch's left edge.
    pub x0: u32,
    /// Frame-space y of the patch's top edge.
    pub y0: u32,
    /// Patch width in pixels.
    pub w: u32,
    /// Patch height in pixels.
    pub h: u32,
    states: Vec<PixelState>,
}

impl PixelPatch {
    /// Fresh (fully transparent) patch covering `[x0, x0+w) × [y0, y0+h)`.
    pub fn new(x0: u32, y0: u32, w: u32, h: u32) -> Self {
        Self {
            x0,
            y0,
            w,
            h,
            states: vec![PixelState::new(); (w as usize) * (h as usize)],
        }
    }

    /// Blending state of the patch-local pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` is outside the patch. The check is
    /// unconditional: a wrapped index could still land inside `states`
    /// and silently blend the wrong pixel, and this accessor is the
    /// module's safety seam for future schedules.
    pub fn state_mut(&mut self, x: u32, y: u32) -> &mut PixelState {
        assert!(x < self.w && y < self.h, "pixel ({x},{y}) outside patch");
        &mut self.states[(y * self.w + x) as usize]
    }

    /// Shared view of the patch-local pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` is outside the patch.
    pub fn state(&self, x: u32, y: u32) -> &PixelState {
        assert!(x < self.w && y < self.h, "pixel ({x},{y}) outside patch");
        &self.states[(y * self.w + x) as usize]
    }

    /// Mutable view of one patch-local pixel row — the blend loops' bulk
    /// accessor: one bounds check per row instead of an asserting
    /// per-pixel [`Self::state_mut`] call.
    ///
    /// # Panics
    ///
    /// Panics when `y` is outside the patch.
    pub fn row_mut(&mut self, y: u32) -> &mut [PixelState] {
        assert!(y < self.h, "row {y} outside patch");
        let w = self.w as usize;
        &mut self.states[y as usize * w..(y as usize + 1) * w]
    }

    /// The whole backing store, row-major (`w` pixels per row). The batch
    /// blend sweeps address row spans as `y·w + x` directly into this
    /// slice — one offset and one bounds check per span instead of
    /// [`row_mut`](Self::row_mut)'s assert-plus-reslice.
    pub fn states_mut(&mut self) -> &mut [PixelState] {
        &mut self.states
    }

    /// Resolves every pixel against `background` and writes the patch into
    /// its frame-space rectangle of `image`, walking the `states` buffer
    /// row by row (one offset computation per row — this runs for every
    /// pixel of every tile/window merge).
    ///
    /// # Panics
    ///
    /// Panics when the patch extends past the image.
    pub fn resolve_into(&self, image: &mut Image, background: Vec3) {
        assert!(
            self.x0 + self.w <= image.width() && self.y0 + self.h <= image.height(),
            "patch {}x{}@({},{}) exceeds image {}x{}",
            self.w,
            self.h,
            self.x0,
            self.y0,
            image.width(),
            image.height()
        );
        if self.w == 0 || self.h == 0 {
            return;
        }
        let iw = image.width() as usize;
        let (x0, y0, w) = (self.x0 as usize, self.y0 as usize, self.w as usize);
        let pixels = image.pixels_mut();
        for (y, row) in self.states.chunks_exact(w).enumerate() {
            let dst = &mut pixels[(y0 + y) * iw + x0..][..w];
            for (d, s) in dst.iter_mut().zip(row) {
                *d = s.resolve(background);
            }
        }
    }

    /// [`Self::resolve_into`] for an image covering only the frame-space
    /// window starting at `(origin_x, origin_y)` (e.g. a region-of-interest
    /// output): writes the intersection of the patch with the window,
    /// silently clipping the rest. With origin `(0, 0)` and a full-frame
    /// image this resolves exactly the patch rectangle.
    pub fn resolve_into_clipped(
        &self,
        image: &mut Image,
        background: Vec3,
        origin_x: u32,
        origin_y: u32,
    ) {
        // Frame-space overlap of patch and window.
        let ox0 = self.x0.max(origin_x);
        let oy0 = self.y0.max(origin_y);
        let ox1 = (self.x0 + self.w).min(origin_x + image.width());
        let oy1 = (self.y0 + self.h).min(origin_y + image.height());
        if ox0 >= ox1 || oy0 >= oy1 {
            return;
        }
        let w = (ox1 - ox0) as usize;
        let iw = image.width() as usize;
        let pixels = image.pixels_mut();
        for y in oy0..oy1 {
            let src_off = ((y - self.y0) as usize) * self.w as usize + (ox0 - self.x0) as usize;
            let dst_off = ((y - origin_y) as usize) * iw + (ox0 - origin_x) as usize;
            let src = &self.states[src_off..src_off + w];
            let dst = &mut pixels[dst_off..dst_off + w];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.resolve(background);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::Vec3;

    fn cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            64,
            48,
        )
    }

    fn cloud(n: usize) -> Vec<Gaussian3D> {
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                Gaussian3D::isotropic(
                    Vec3::new((t * 9.0).sin(), (t * 5.0).cos() * 0.4, t),
                    0.05 + 0.05 * t,
                    0.1f32.max(t),
                    Vec3::new(t, 1.0 - t, 0.5),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_preprocess_matches_sequential() {
        let cam = cam();
        let g = cloud(300);
        let seq = project_and_shade_all(&g, &cam, BoundingLaw::ThreeSigma, 1);
        for threads in [2, 5] {
            let par = project_and_shade_all(&g, &cam, BoundingLaw::ThreeSigma, threads);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.depth.to_bits(), b.depth.to_bits());
                assert_eq!(a.color, b.color);
            }
        }
    }

    #[test]
    fn view_depths_preserve_order() {
        let cam = cam();
        let g = cloud(101);
        let seq = view_depths(&g, &cam, 1);
        let par = view_depths(&g, &cam, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn window_partition_covers_image_exactly() {
        let wins = partition_windows(100, 60, Some(32));
        assert_eq!(wins.len(), 4 * 2);
        let area: u32 = wins.iter().map(|w| w.2 * w.3).sum();
        assert_eq!(area, 100 * 60);
        assert_eq!(partition_windows(100, 60, None), vec![(0, 0, 100, 60)]);
    }

    #[test]
    fn pixel_patch_resolves_into_frame_rect() {
        let mut patch = PixelPatch::new(2, 1, 3, 2);
        patch.state_mut(0, 0).blend(0.9, Vec3::new(1.0, 0.0, 0.0));
        let mut img = Image::new(8, 4);
        patch.resolve_into(&mut img, Vec3::splat(0.5));
        // Blended pixel lands at frame (2, 1).
        assert!(img.get(2, 1).x > 0.8);
        // Untouched patch pixels resolve to background…
        assert_eq!(img.get(3, 1), Vec3::splat(0.5));
        // …and pixels outside the patch stay black.
        assert_eq!(img.get(0, 0), Vec3::ZERO);
    }

    #[test]
    fn clipped_resolve_matches_full_resolve_on_the_overlap() {
        let mut patch = PixelPatch::new(4, 2, 6, 5);
        patch.state_mut(1, 1).blend(0.8, Vec3::new(0.0, 1.0, 0.0));
        patch.state_mut(5, 4).blend(0.6, Vec3::new(1.0, 0.0, 0.0));
        let bg = Vec3::splat(0.25);
        // Full-frame reference.
        let mut full = Image::new(16, 12);
        patch.resolve_into(&mut full, bg);
        // Window covering frame rect [6, 14) x [3, 8): overlaps the patch
        // partially on the left/top.
        let mut win = Image::filled(8, 5, Vec3::ZERO);
        patch.resolve_into_clipped(&mut win, bg, 6, 3);
        for y in 0..5u32 {
            for x in 0..8u32 {
                let (fx, fy) = (6 + x, 3 + y);
                let inside_patch = (4..10).contains(&fx) && (2..7).contains(&fy);
                if inside_patch {
                    assert_eq!(win.get(x, y), full.get(fx, fy), "({fx},{fy})");
                } else {
                    assert_eq!(win.get(x, y), Vec3::ZERO, "({fx},{fy}) must be clipped");
                }
            }
        }
        // Disjoint window: nothing written.
        let mut far = Image::filled(4, 4, Vec3::splat(0.9));
        patch.resolve_into_clipped(&mut far, bg, 12, 10);
        assert_eq!(far.get(0, 0), Vec3::splat(0.9));
    }

    #[test]
    fn degree_clamped_preprocess_matches_full_at_degree_3() {
        let cam = cam();
        let mut g = cloud(120);
        // `isotropic` clouds are DC-only; add a degree-1 band so the clamp
        // has view-dependent terms to drop.
        for (i, gauss) in g.iter_mut().enumerate() {
            gauss.sh[2] = 0.3 + (i as f32) * 0.001;
        }
        let full = project_and_shade_all(&g, &cam, BoundingLaw::ThreeSigma, 1);
        let deg3 = project_and_shade_all_deg(&g, &cam, BoundingLaw::ThreeSigma, 3, 1);
        assert_eq!(full.len(), deg3.len());
        for (a, b) in full.iter().zip(&deg3) {
            assert_eq!(a.color, b.color);
        }
        // Degree 0 drops view dependence: colors differ somewhere.
        let deg0 = project_and_shade_all_deg(&g, &cam, BoundingLaw::ThreeSigma, 0, 1);
        assert!(full.iter().zip(&deg0).any(|(a, b)| a.color != b.color));
    }

    #[test]
    fn index_sort_orders_front_to_back() {
        let cam = cam();
        let g = cloud(50);
        let projected = project_and_shade_all(&g, &cam, BoundingLaw::ThreeSigma, 1);
        let mut idx: Vec<u32> = (0..projected.len() as u32).collect();
        sort_indices_by_depth(&mut idx, &projected);
        for pair in idx.windows(2) {
            assert!(projected[pair[0] as usize].depth <= projected[pair[1] as usize].depth);
        }
    }

    #[test]
    fn global_depth_order_equals_stable_comparison_sort() {
        let cam = cam();
        let mut g = cloud(400);
        // Duplicate a slab of Gaussians so equal depths exercise the
        // stability requirement.
        let dup: Vec<Gaussian3D> = g.iter().take(40).cloned().collect();
        g.extend(dup);
        let projected = project_and_shade_all(&g, &cam, BoundingLaw::ThreeSigma, 1);
        let mut expect: Vec<u32> = (0..projected.len() as u32).collect();
        sort_indices_by_depth(&mut expect, &projected); // stable total_cmp sort
        let (mut keys, mut order, mut radix) = (Vec::new(), Vec::new(), Vec::new());
        for threads in [1, 4] {
            global_depth_order_into(&projected, threads, &mut keys, &mut order, &mut radix);
            assert_eq!(order, expect, "threads={threads}");
        }
    }

    #[test]
    fn csr_bins_match_nested_vec_binning() {
        let cam = cam();
        let g = cloud(300);
        let projected = project_and_shade_all(&g, &cam, BoundingLaw::ThreeSigma, 1);
        let (w, h, ts) = (64u32, 48u32, 16u32);
        let tiles_x = w.div_ceil(ts);
        let n_tiles = (tiles_x * h.div_ceil(ts)) as usize;

        // Reference: the historical nested-Vec binning + per-tile sort.
        let mut nested: Vec<Vec<u32>> = vec![Vec::new(); n_tiles];
        for (idx, p) in projected.iter().enumerate() {
            let rect = PixelRect::from_circle(p.mean2d, p.radius, w, h);
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
            sort_indices_by_depth(bin, &projected);
        }

        let mut rects = Vec::new();
        footprint_rects_into(&projected, w, h, 1, &mut rects);
        let (mut keys, mut order, mut radix) = (Vec::new(), Vec::new(), Vec::new());
        global_depth_order_into(&projected, 1, &mut keys, &mut order, &mut radix);
        let mut bins = TileBins::new();
        let kv = bins.build(&rects, &order, ts, tiles_x, n_tiles);

        assert_eq!(kv, nested.iter().map(|b| b.len() as u64).sum::<u64>());
        assert_eq!(bins.tiles(), n_tiles);
        for (t, reference) in nested.iter().enumerate() {
            assert_eq!(bins.bin(t), reference.as_slice(), "tile {t}");
            assert_eq!(bins.count(t) as usize, reference.len(), "tile {t}");
        }
    }

    #[test]
    fn tile_bins_rebuild_resets_previous_state() {
        let rects = vec![
            PixelRect::from_circle(gcc_math::Vec2::new(8.0, 8.0), 4.0, 32, 32),
            PixelRect::from_circle(gcc_math::Vec2::new(24.0, 24.0), 4.0, 32, 32),
        ];
        let mut bins = TileBins::new();
        let kv1 = bins.build(&rects, &[0, 1], 16, 2, 4);
        assert_eq!(kv1, 2);
        // Rebuild on a smaller problem must fully reset extents.
        let kv2 = bins.build(&rects[..1], &[0], 16, 2, 4);
        assert_eq!(kv2, 1);
        assert_eq!(bins.bin(0), &[0]);
        assert!(bins.bin(3).is_empty());
    }

    #[test]
    fn patch_row_mut_aliases_state_mut() {
        let mut patch = PixelPatch::new(0, 0, 4, 3);
        patch.row_mut(1)[2].blend(0.5, Vec3::new(1.0, 0.0, 0.0));
        assert!(patch.state(2, 1).color.x > 0.4);
        assert_eq!(patch.row_mut(2).len(), 4);
    }
}
