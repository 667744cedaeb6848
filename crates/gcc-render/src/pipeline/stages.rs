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
//! * [`shade_one_deg`] — SH color evaluation of one survivor (Stage III),
//! * [`project_all`] → [`shade_all_soa`] — the standard schedule's eager
//!   Stage 1: every Gaussian culled and projected, then every survivor
//!   shaded in one batched kernel pass over its packed SoA fields,
//!   order-preserving and parallelizable,
//! * [`footprint_rects_soa_into`] and [`global_depth_order_soa`] — the
//!   standard schedule's footprints and one global depth order over those
//!   SoA fields, which [`TileBins`] bins born sorted,
//! * [`view_depths_into`] — Stage I depth computation for grouping,
//! * [`sort_by_depth`] — the Gaussian-wise schedule's intra-group depth
//!   sort over survivors; [`sort_indices_by_depth`], the historical
//!   per-tile sort, is the reference the global order is pinned against,
//! * [`partition_windows`] — Compatibility-Mode sub-view partitioning,
//! * [`PixelPatch`] — a rectangular tile/window of blending state that a
//!   worker owns exclusively, and the one blend loop: a schedule fills a
//!   block's power tile — over per-row spans ([`PixelPatch::blend_rows`], the
//!   standard schedule's variable spans) or whole
//!   ([`PixelPatch::blend_block`], a dispatched Gaussian-wise block) —
//!   and both end in the same exponential + `blend_span` tail; the
//!   schedules decide which Gaussians reach it and in what order, never
//!   how a lane is blended.
//!
//! Every function here is deterministic and free of interior ordering
//! choices, which is what makes the parallel engine's output bit-identical
//! to the sequential schedules.

use std::sync::Mutex;

use gcc_core::alpha::{ExpMode, PixelState, PAD_POWER};
use gcc_core::bounds::{BoundingLaw, PixelRect};
use gcc_core::dispatch::{BlendCounts, KernelSet, PixelLanes, BLEND_LANES};
use gcc_core::projection::{map_color_deg, project_gaussian};
use gcc_core::{Camera, Gaussian3D, ProjectedGaussian};
use gcc_math::Vec3;
use gcc_parallel::{
    exclusive_prefix_sum, par_chunks_mut, par_filter_map_chunked, par_map_indexed_with,
    radix_sort_indices_into, worthwhile_threads,
};

use super::{FrameStats, Roi};
use crate::Image;

// Rough per-item costs, in nanoseconds, that the chunk-parallel stages
// quote to `gcc-parallel`'s work floor — from the benchmark's traced Lego
// frame (`gcc-render.project_ms` 0.64, `shade_ms` 0.12, `footprint_ms`
// 0.13 over 8.5 k survivors; `gcc-core.depth_keys_ns_per_elem` 0.12). A
// stage whose share per thread is too small to pay for waking a helper
// runs inline: two threads take projection from ≈ 1.3 k Gaussians up
// (every served scene), SH and footprints from ≈ 6.7 k survivors, view
// depths from 33 k Gaussians and depth keys from 10⁵ survivors, so at a
// frame's sizes the last two never leave the calling thread.
const PROJECT_NS: u32 = 75;
const SHADE_NS: u32 = 15;
/// One footprint: an AABB from a circle, or an OBB from a covariance.
pub(crate) const FOOTPRINT_NS: u32 = 15;
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

/// SH color stage: evaluates the view-dependent color of `g` into `p`,
/// clamped to bands `l ≤ degree` — the per-request SH degree quality
/// knob. `degree = 3` is bit-identical to the unclamped
/// [`map_color`](gcc_core::projection::map_color).
pub fn shade_one_deg(p: &mut ProjectedGaussian, g: &Gaussian3D, cam: &Camera, degree: u8) {
    map_color_deg(p, g, cam, degree);
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
/// Gaussians, in scene order (parallelized over chunks), into a reusable
/// buffer (no allocation once warm).
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
/// ordering that [`global_depth_order_soa`] + [`TileBins`] are pinned
/// against (equal depths keep scene order in both formulations).
pub fn sort_indices_by_depth(indices: &mut [u32], projected: &[ProjectedGaussian]) {
    indices.sort_by(|&a, &b| {
        projected[a as usize]
            .depth
            .total_cmp(&projected[b as usize].depth)
    });
}

/// The global depth-ordering stage: one monotone `u32` key per survivor
/// depth ([`gcc_core::sort::depth_key`], generated by `kernels.depth_keys`
/// — scalar or SIMD, bit-identical in every backend — chunk-parallel over
/// the key buffer) and one stable LSD radix sort over all of them. `order`
/// receives the survivor indices front to back; equal depths keep scene
/// order, so any subsequence of `order` (e.g. a tile bin filled in this
/// order) is exactly what a stable per-tile `total_cmp` sort would have
/// produced. `keys` and `radix` are reusable scratch.
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

/// Screen-clipped AABB footprints of all survivors, in scene order, into
/// a reusable buffer — computed once per frame and shared by binning and
/// tile rendering. `PixelRect::from_circle` per survivor, streaming the
/// flat SoA center/radius arrays instead of strided projection records.
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
/// unit (a tile or a Cmode window), as struct-of-arrays pixel tiles: one
/// plane per accumulated color channel and one for transmittance, stored
/// block by block (the standard schedule's one 16×16 tile, the
/// Gaussian-wise schedule's 8×8 PE-array blocks) with each block row
/// padded to whole [`BLEND_LANES`] groups. A block is therefore one
/// contiguous run of every plane, and the blend kernel always sees full
/// groups. Workers blend into their patch through [`Self::blend_rows`] /
/// [`Self::blend_block`] — two fills of the one blend loop both schedules
/// share — and resolve it into the output image when the unit is done; patches never overlap, so the
/// frame is the same whatever order units finish in.
///
/// A patch is reusable capacity: [`Self::reset`] re-targets it without
/// reallocating once its planes have grown to the largest unit.
#[derive(Debug, Clone, Default)]
pub struct PixelPatch {
    /// Frame-space x of the patch's left edge.
    pub x0: u32,
    /// Frame-space y of the patch's top edge.
    pub y0: u32,
    /// Patch width in pixels.
    pub w: u32,
    /// Patch height in pixels.
    pub h: u32,
    /// Block edge in pixels; blocks are numbered row-major like
    /// [`gcc_core::boundary::BlockGrid`]'s.
    block: u32,
    blocks_x: u32,
    /// Lanes per block row: `block` rounded up to whole groups.
    row_lanes: usize,
    r: Vec<f32>,
    g: Vec<f32>,
    b: Vec<f32>,
    /// Transmittance; lanes that are no pixel of the patch hold 0
    /// (terminated), so nothing can blend into them.
    t: Vec<f32>,
    /// One block's worth of lanes: the powers, then alphas, of the
    /// Gaussian being blended ([`Self::blend_powers`]).
    powers: Vec<f32>,
}

impl PixelPatch {
    /// Fresh (fully transparent) patch covering `[x0, x0+w) × [y0, y0+h)`
    /// in blocks of edge `block`.
    pub fn new(x0: u32, y0: u32, w: u32, h: u32, block: u32) -> Self {
        let mut patch = Self::default();
        patch.reset(x0, y0, w, h, block);
        patch
    }

    /// Re-targets the patch at `[x0, x0+w) × [y0, y0+h)`, stored in blocks
    /// of edge `block`, with every pixel fresh: black, fully transmissive.
    ///
    /// # Panics
    ///
    /// Panics when `block` is zero.
    pub fn reset(&mut self, x0: u32, y0: u32, w: u32, h: u32, block: u32) {
        assert!(block > 0, "block edge must be positive");
        (self.x0, self.y0, self.w, self.h, self.block) = (x0, y0, w, h, block);
        self.blocks_x = w.div_ceil(block);
        self.row_lanes = (block as usize).next_multiple_of(BLEND_LANES);
        let lanes = (self.blocks_x * h.div_ceil(block)) as usize * self.block_lanes();
        for plane in [&mut self.r, &mut self.g, &mut self.b, &mut self.t] {
            plane.clear();
            plane.resize(lanes, 0.0);
        }
        self.powers.resize(self.block_lanes(), PAD_POWER);
        for by in 0..h.div_ceil(block) {
            let rows = block.min(h - by * block) as usize;
            for bx in 0..self.blocks_x {
                let cols = block.min(w - bx * block) as usize;
                let base = (by * self.blocks_x + bx) as usize * self.block_lanes();
                for row in 0..rows {
                    let at = base + row * self.row_lanes;
                    self.t[at..at + cols].fill(1.0);
                }
            }
        }
    }

    /// Lanes one block occupies in every plane.
    fn block_lanes(&self) -> usize {
        self.row_lanes * self.block as usize
    }

    /// Plane index of the patch-local pixel `(x, y)`.
    fn lane(&self, x: u32, y: u32) -> usize {
        let block = (y / self.block * self.blocks_x + x / self.block) as usize;
        block * self.block_lanes()
            + (y % self.block) as usize * self.row_lanes
            + (x % self.block) as usize
    }

    /// Blending state of the patch-local pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` is outside the patch.
    pub fn state(&self, x: u32, y: u32) -> PixelState {
        assert!(x < self.w && y < self.h, "pixel ({x},{y}) outside patch");
        let i = self.lane(x, y);
        PixelState {
            color: Vec3::new(self.r[i], self.g[i], self.b[i]),
            transmittance: self.t[i],
        }
    }

    /// Blends the projected Gaussian `p`, front to back, into consecutive
    /// rows of block `block` over per-row column spans — how the standard
    /// schedule feeds the blend loop. Row `first_row + r` of the block gets
    /// the pixels `[lo[r], hi[r])`, in `p`'s coordinates like `origin`, the
    /// block's first pixel (empty when `lo[r] >= hi[r]`); `kernels.row_spans`
    /// writes spans in this form.
    ///
    /// `kernels.span_powers` fills those rows of the block's power tile —
    /// per row the forward-difference chain
    /// ([`RowAlpha`](gcc_core::alpha::RowAlpha)) started at the
    /// span's first pixel, [`PAD_POWER`] in the other lanes — and the rows
    /// from the first to the last non-empty one then go through the
    /// shared blend tail (`blend_powers`). All rows of a Gaussian go
    /// through each kernel in one call, so their span solves and chains
    /// share vector lanes and the tail sees a run of whole rows instead of
    /// a handful of lanes.
    ///
    /// # Panics
    ///
    /// Panics when a row leaves the block or a span its row's lanes.
    // One argument per input of a blend (where, what, how): a struct
    // would only rename them.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn blend_rows(
        &mut self,
        block: usize,
        p: &ProjectedGaussian,
        origin: (i32, i32),
        first_row: u32,
        (lo, hi): (&[i32], &[i32]),
        alpha_min: f32,
        exp: &ExpMode,
        kernels: &KernelSet,
    ) -> BlendCounts {
        let rows = first_row as usize..first_row as usize + lo.len();
        assert!(
            rows.end <= self.block as usize,
            "rows {rows:?} outside their block"
        );
        let at = rows.start * self.row_lanes;
        let touched = (kernels.span_powers)(
            p,
            (origin.0, origin.1 + first_row as i32),
            lo,
            hi,
            self.row_lanes,
            &mut self.powers[at..rows.end * self.row_lanes],
        );
        if touched.is_empty() {
            return BlendCounts::default();
        }
        let lanes = at + touched.start..at + touched.end;
        self.blend_powers(block, lanes, p, alpha_min, exp, kernels)
    }

    /// Blends the projected Gaussian `p`, given in patch-local pixel
    /// coordinates, front to back into every pixel of block `block` — how
    /// the Gaussian-wise schedule feeds the blend loop: a dispatched block
    /// is evaluated whole, so `kernels.block_powers` fills the power tile
    /// with the block's rows in the vector lanes (the same chain per row
    /// as [`Self::blend_rows`] runs, bit for bit) before the shared blend
    /// tail (`blend_powers`).
    #[inline]
    pub fn blend_block(
        &mut self,
        block: usize,
        p: &ProjectedGaussian,
        alpha_min: f32,
        exp: &ExpMode,
        kernels: &KernelSet,
    ) -> BlendCounts {
        let (bx, by) = (block as u32 % self.blocks_x, block as u32 / self.blocks_x);
        let (x0, y0) = (bx * self.block, by * self.block);
        let cols = self.block.min(self.w - x0) as usize;
        let end = self.block.min(self.h - y0) as usize * self.row_lanes;
        (kernels.block_powers)(
            p,
            (x0 as i32, y0 as i32),
            cols,
            self.row_lanes,
            &mut self.powers[..end],
        );
        self.blend_powers(block, 0..end, p, alpha_min, exp, kernels)
    }

    /// The tail every blend shares: turns lanes `lanes` of the power tile
    /// (whole rows) into alphas in one pass (`kernels.alpha_powers` for
    /// [`ExpMode::Exact`], the LUT per lane otherwise) and blends them
    /// into the same lanes of block `block` with one `kernels.blend_span`
    /// call. Lanes holding [`PAD_POWER`] reach the kernel as `α = 0` and
    /// leave their pixels as they were. A negative `alpha_min` means 0
    /// (the intrinsic `1/255` cutoff alone): padding relies on `α = 0`
    /// never passing the mask.
    fn blend_powers(
        &mut self,
        block: usize,
        lanes: std::ops::Range<usize>,
        p: &ProjectedGaussian,
        alpha_min: f32,
        exp: &ExpMode,
        kernels: &KernelSet,
    ) -> BlendCounts {
        let base = block * self.block_lanes();
        let alphas = &mut self.powers[lanes.clone()];
        match exp {
            ExpMode::Exact => (kernels.alpha_powers)(alphas),
            ExpMode::Lut(_) => alphas.iter_mut().for_each(|a| *a = exp.alpha(*a)),
        }
        let lanes = base + lanes.start..base + lanes.end;
        (kernels.blend_span)(
            alphas,
            [p.color.x, p.color.y, p.color.z],
            alpha_min.max(0.0),
            PixelLanes {
                r: &mut self.r[lanes.clone()],
                g: &mut self.g[lanes.clone()],
                b: &mut self.b[lanes.clone()],
                t: &mut self.t[lanes],
            },
        )
    }

    /// Resolves every pixel against `background` and writes the patch into
    /// `image`, which covers the frame-space window starting at
    /// `(origin_x, origin_y)` (the whole frame, or a region-of-interest
    /// output): the intersection of the patch with the window is written,
    /// the rest silently clipped.
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
        let iw = image.width() as usize;
        let pixels = image.pixels_mut();
        let (first_block, first_col) = ((ox0 - self.x0) / self.block, (ox0 - self.x0) % self.block);
        for y in oy0..oy1 {
            let ly = y - self.y0;
            let row_base = (ly / self.block * self.blocks_x) as usize * self.block_lanes()
                + (ly % self.block) as usize * self.row_lanes;
            // One run per block the row crosses.
            let mut dst_off = ((y - origin_y) as usize) * iw + (ox0 - origin_x) as usize;
            let (mut block, mut col, mut left) = (first_block as usize, first_col, ox1 - ox0);
            while left > 0 {
                let run = (self.block - col).min(left) as usize;
                let src = row_base + block * self.block_lanes() + col as usize;
                let dst = &mut pixels[dst_off..dst_off + run];
                let (r, g, b, t) = (
                    &self.r[src..src + run],
                    &self.g[src..src + run],
                    &self.b[src..src + run],
                    &self.t[src..src + run],
                );
                for (i, d) in dst.iter_mut().enumerate() {
                    // `PixelState::resolve`: C + background · T.
                    *d = Vec3::new(r[i], g[i], b[i]) + background * t[i];
                }
                dst_off += run;
                left -= run as u32;
                (block, col) = (block + 1, 0);
            }
        }
    }
}

/// What a tile or window worker keeps between work units and frames: its
/// pixel patch, the id lists it reports per unit and, for a Gaussian-wise
/// window, the Alpha Unit's state. Pure capacity: [`render_units`] empties
/// the lists before every unit and the unit resets the rest.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlendScratch {
    /// The unit's blending state.
    pub(crate) patch: PixelPatch,
    /// Ids the current unit loaded.
    pub(crate) loaded: Vec<u32>,
    /// Ids that blended at least one pixel in the current unit.
    pub(crate) rendered: Vec<u32>,
    /// Row spans `[lo, hi)` of the (Gaussian, tile) pair being blended,
    /// one entry per tile row (standard schedule).
    pub(crate) spans: (Vec<i32>, Vec<i32>),
    /// Tracer, T-mask and lists of a Gaussian-wise window.
    pub(crate) window: crate::gaussian_wise::WindowScratch,
}

/// A [`BlendScratch`] on loan from the frame's pool for the length of one
/// worker: put back when the worker ends, so the next frame finds it warm.
struct BlendLease<'p, 'a> {
    pool: &'p Mutex<&'a mut Vec<BlendScratch>>,
    scratch: BlendScratch,
}

impl Drop for BlendLease<'_, '_> {
    fn drop(&mut self) {
        // A poisoned pool only loses warm capacity; never panic in drop.
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(std::mem::take(&mut self.scratch));
        }
    }
}

/// What [`render_units`] returns: the frame and what its units summed to.
pub(crate) struct UnitsOutcome {
    /// The output image (the ROI's rectangle under an ROI).
    pub(crate) image: Image,
    /// Sum of the units' additive stats.
    pub(crate) stats: FrameStats,
    /// Distinct ids some unit reported as loaded.
    pub(crate) loaded: u64,
    /// Distinct ids some unit reported as rendered.
    pub(crate) rendered: u64,
}

/// Renders `units` disjoint work units (tiles, windows) of a `w × h`
/// frame on up to `threads` workers and merges them as they finish — the
/// driver both schedules share. `render(k, work)` resets `work.patch` to
/// unit `k` and renders into it, pushes onto `work.loaded` /
/// `work.rendered` (handed over empty) the ids (below `ids`) it loaded
/// and blended, and returns the unit's additive stats.
///
/// `threads` is an offer, not an order: the service lends every frame the
/// host's idle cores, and a frame takes only as many as its work keeps
/// busy. `(items, item_ns)` is the caller's estimate of that work, quoted
/// like a chunked map's — a count it already holds and one item's rough
/// cost — and [`worthwhile_threads`] turns it into the worker count, so
/// no helper is woken for less than a `MIN_NS_PER_THREAD` share.
///
/// Each worker leases one of the pooled `workers` scratches for all its
/// units; a finished unit is resolved into the output image (the `roi`
/// rectangle, or the whole frame) and its id lists OR-ed into the frame
/// sets under one lock. Patches are disjoint, counters additive and the
/// sets order-insensitive, so any finishing order gives the sequential
/// result; a pixel no unit covers resolves to `background`, exactly what
/// a fresh pixel (T = 1, no color) would.
// The frame's geometry, the pool and the unit body: a struct would only
// rename them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render_units<F>(
    units: usize,
    threads: usize,
    (items, item_ns): (usize, u32),
    workers: &mut Vec<BlendScratch>,
    (w, h): (u32, u32),
    roi: Option<&Roi>,
    background: Vec3,
    ids: usize,
    render: F,
) -> UnitsOutcome
where
    F: Fn(usize, &mut BlendScratch) -> FrameStats + Sync,
{
    struct Merged {
        image: Image,
        loaded: Vec<bool>,
        rendered: Vec<bool>,
    }
    let (out_w, out_h, origin_x, origin_y) = match roi {
        Some(r) => (r.width, r.height, r.x0, r.y0),
        None => (w, h, 0, 0),
    };
    let merged = Mutex::new(Merged {
        image: Image::filled(out_w, out_h, background),
        loaded: vec![false; ids],
        rendered: vec![false; ids],
    });
    let pool = Mutex::new(workers);
    let partials = par_map_indexed_with(
        units,
        worthwhile_threads(threads, items, item_ns),
        || BlendLease {
            pool: &pool,
            scratch: pool
                .lock()
                .expect("the pool lock is only held to push or pop")
                .pop()
                .unwrap_or_default(),
        },
        |lease, k| {
            let work = &mut lease.scratch;
            // Whatever an earlier unit, frame or schedule left behind.
            work.loaded.clear();
            work.rendered.clear();
            let stats = render(k, work);
            let mut merged = merged.lock().expect("a unit merge panicked");
            work.patch
                .resolve_into_clipped(&mut merged.image, background, origin_x, origin_y);
            for &id in &work.loaded {
                merged.loaded[id as usize] = true;
            }
            for &id in &work.rendered {
                merged.rendered[id as usize] = true;
            }
            stats
        },
    );
    let mut stats = FrameStats::default();
    for partial in &partials {
        stats.merge_add(partial);
    }
    let merged = merged.into_inner().expect("a unit merge panicked");
    let count = |flags: &[bool]| flags.iter().filter(|&&f| f).count() as u64;
    UnitsOutcome {
        stats,
        loaded: count(&merged.loaded),
        rendered: count(&merged.rendered),
        image: merged.image,
    }
}

#[cfg(test)]
// Test data: libm `sin` / `cos` / `ln` build synthetic Gaussians.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::pipeline::scratch::SurvivorSoa;
    use gcc_core::alpha::RowAlpha;
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

    /// The standard schedule's Stage 1 as it renders a frame: cull +
    /// project, pack the survivors' SoA fields, batched SH at `degree`.
    fn preprocess(
        g: &[Gaussian3D],
        cam: &Camera,
        degree: u8,
        threads: usize,
    ) -> (Vec<ProjectedGaussian>, SurvivorSoa) {
        let mut projected = project_all(g, cam, BoundingLaw::ThreeSigma, threads);
        let mut soa = SurvivorSoa::default();
        soa.pack(&projected, g, cam);
        let kernels = gcc_core::dispatch::active();
        let (dx, dy, dz) = (&soa.dir_x, &soa.dir_y, &soa.dir_z);
        shade_all_soa(&mut projected, g, dx, dy, dz, degree, threads, kernels);
        (projected, soa)
    }

    #[test]
    fn parallel_preprocess_matches_sequential() {
        let cam = cam();
        let g = cloud(300);
        let (seq, _) = preprocess(&g, &cam, 3, 1);
        for threads in [2, 5] {
            let (par, _) = preprocess(&g, &cam, 3, threads);
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
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        view_depths_into(&g, &cam, 1, &mut seq);
        view_depths_into(&g, &cam, 4, &mut par);
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

    /// Blends one contribution into patch pixel `(x, y)` through
    /// `PixelState` — how the tests below seed a patch.
    fn blend_pixel(patch: &mut PixelPatch, x: u32, y: u32, alpha: f32, color: Vec3) {
        let mut st = patch.state(x, y);
        st.blend(alpha, color);
        let i = patch.lane(x, y);
        (patch.r[i], patch.g[i], patch.b[i]) = (st.color.x, st.color.y, st.color.z);
        patch.t[i] = st.transmittance;
    }

    #[test]
    fn pixel_patch_resolves_into_frame_rect() {
        let mut patch = PixelPatch::new(2, 1, 3, 2, 16);
        blend_pixel(&mut patch, 0, 0, 0.9, Vec3::new(1.0, 0.0, 0.0));
        let mut img = Image::new(8, 4);
        patch.resolve_into_clipped(&mut img, Vec3::splat(0.5), 0, 0);
        // Blended pixel lands at frame (2, 1).
        assert!(img.get(2, 1).x > 0.8);
        // Untouched patch pixels resolve to background…
        assert_eq!(img.get(3, 1), Vec3::splat(0.5));
        // …and pixels outside the patch stay black.
        assert_eq!(img.get(0, 0), Vec3::ZERO);
    }

    #[test]
    fn clipped_resolve_matches_full_resolve_on_the_overlap() {
        let mut patch = PixelPatch::new(4, 2, 6, 5, 4);
        blend_pixel(&mut patch, 1, 1, 0.8, Vec3::new(0.0, 1.0, 0.0));
        blend_pixel(&mut patch, 5, 4, 0.6, Vec3::new(1.0, 0.0, 0.0));
        let bg = Vec3::splat(0.25);
        // Full-frame reference.
        let mut full = Image::new(16, 12);
        patch.resolve_into_clipped(&mut full, bg, 0, 0);
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
        // Full: every band, one survivor at a time.
        let mut full = project_all(&g, &cam, BoundingLaw::ThreeSigma, 1);
        for p in &mut full {
            gcc_core::projection::map_color(p, &g[p.id as usize], &cam);
        }
        let (deg3, _) = preprocess(&g, &cam, 3, 1);
        assert_eq!(full.len(), deg3.len());
        for (a, b) in full.iter().zip(&deg3) {
            assert_eq!(a.color, b.color);
        }
        // Degree 0 drops view dependence: colors differ somewhere.
        let (deg0, _) = preprocess(&g, &cam, 0, 1);
        assert!(full.iter().zip(&deg0).any(|(a, b)| a.color != b.color));
    }

    #[test]
    fn index_sort_orders_front_to_back() {
        let cam = cam();
        let g = cloud(50);
        let (projected, _) = preprocess(&g, &cam, 3, 1);
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
        let (projected, soa) = preprocess(&g, &cam, 3, 1);
        let mut expect: Vec<u32> = (0..projected.len() as u32).collect();
        sort_indices_by_depth(&mut expect, &projected); // stable total_cmp sort
        let (mut keys, mut order, mut radix) = (Vec::new(), Vec::new(), Vec::new());
        let kernels = gcc_core::dispatch::active();
        for threads in [1, 4] {
            let (k, o, r) = (&mut keys, &mut order, &mut radix);
            global_depth_order_soa(&soa.depth, threads, k, o, r, kernels);
            assert_eq!(order, expect, "threads={threads}");
        }
    }

    #[test]
    fn csr_bins_match_nested_vec_binning() {
        let cam = cam();
        let g = cloud(300);
        let (projected, soa) = preprocess(&g, &cam, 3, 1);
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
        footprint_rects_soa_into(&soa.mean_x, &soa.mean_y, &soa.radius, w, h, 1, &mut rects);
        let (mut keys, mut order, mut radix) = (Vec::new(), Vec::new(), Vec::new());
        let kernels = gcc_core::dispatch::active();
        global_depth_order_soa(&soa.depth, 1, &mut keys, &mut order, &mut radix, kernels);
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

    fn wide_gaussian() -> ProjectedGaussian {
        let cov = gcc_math::SymMat2::new(60.0, 9.0, 14.0);
        ProjectedGaussian {
            id: 0,
            mean2d: gcc_math::Vec2::new(19.3, 2.2),
            cov2d: cov,
            conic: cov.inverse().unwrap(),
            depth: 1.0,
            opacity: 0.93,
            ln_opacity: 0.93f32.ln(),
            radius: 24.0,
            color: Vec3::new(0.8, 0.3, 0.1),
        }
    }

    /// A `w × h` patch in blocks of `block` whose pixels are terminated in
    /// a fixed scatter, and the same pixels as a row-major reference.
    fn scattered_patch(w: u32, h: u32, block: u32) -> (PixelPatch, Vec<PixelState>) {
        let mut patch = PixelPatch::new(5, 7, w, h, block);
        let mut states = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if (x * 7 + y * 3) % 5 == 0 {
                    // Opaque enough to terminate the pixel.
                    for _ in 0..3 {
                        blend_pixel(&mut patch, x, y, 0.99, Vec3::splat(0.5));
                    }
                }
                states.push(patch.state(x, y));
            }
        }
        (patch, states)
    }

    /// The loop both renderers carried before the kernel, over pixels
    /// `[x0, x1)` of row `y` of a `w`-wide reference.
    fn reference_row(
        states: &mut [PixelState],
        w: u32,
        (y, x0, x1): (u32, u32, u32),
        p: &ProjectedGaussian,
        alpha_min: f32,
        exp: &ExpMode,
    ) -> BlendCounts {
        let mut counts = BlendCounts::default();
        let mut row = RowAlpha::new(p, x0 as i32, y as i32);
        for x in x0..x1 {
            let st = &mut states[(y * w + x) as usize];
            let a = row.alpha(exp);
            if !st.terminated() && a > alpha_min {
                st.blend(a, p.color);
                counts.blended += 1;
                counts.terminated += u32::from(st.terminated());
            }
            row.advance();
        }
        counts
    }

    fn assert_patch_equals(patch: &PixelPatch, want: &[PixelState], what: &str) {
        for y in 0..patch.h {
            for x in 0..patch.w {
                assert_eq!(
                    patch.state(x, y),
                    want[(y * patch.w + x) as usize],
                    "{what} pixel ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn blend_rows_matches_the_per_pixel_loop_on_any_span() {
        // Spans that start and end anywhere in a block row — inside one
        // lane group, across several, empty, up to the padded edge — over
        // pixels that are partly terminated, for both
        // exponential datapaths and every backend: bit-identical to the
        // per-pixel `RowAlpha::alpha` + `PixelState::blend` loop, counts
        // included.
        use gcc_core::dispatch::{available, kernel_set};
        let p = wide_gaussian();
        let (w, h) = (37u32, 4u32);
        for exp in [ExpMode::Exact, ExpMode::lut()] {
            for alpha_min in [0.0f32, 0.05] {
                for backend in available() {
                    let kernels = kernel_set(backend).unwrap();
                    // One 40-pixel block holds the whole patch.
                    let (mut patch, mut want) = scattered_patch(w, h, 40);
                    for span in [
                        (0u32, 0u32, 37u32),
                        (1, 3, 7),
                        (1, 6, 19),
                        (2, 15, 16),
                        (2, 17, 17),
                        (3, 30, 37),
                        (0, 8, 24),
                    ] {
                        let counts = reference_row(&mut want, w, span, &p, alpha_min, &exp);
                        let (y, x0, x1) = span;
                        let got = patch.blend_rows(
                            0,
                            &p,
                            (0, 0),
                            y,
                            (&[x0 as i32], &[x1 as i32]),
                            alpha_min,
                            &exp,
                            kernels,
                        );
                        assert_eq!(got, counts, "{backend} row {y} [{x0},{x1})");
                    }
                    assert_patch_equals(&patch, &want, &format!("{backend} {exp:?}"));
                }
            }
        }
    }

    #[test]
    fn blend_rows_matches_the_per_pixel_loop_for_any_block_edge() {
        // Every block of a patch whose edge blocks are clipped, for block
        // edges below, at and above the lane-group width, filled span by
        // span and whole.
        use gcc_core::dispatch::{available, kernel_set};
        let p = wide_gaussian();
        let (w, h) = (37u32, 11u32);
        for block in [3u32, 8, 12, 16, 72] {
            for exp in [ExpMode::Exact, ExpMode::lut()] {
                for backend in available() {
                    let kernels = kernel_set(backend).unwrap();
                    let (mut patch, mut want) = scattered_patch(w, h, block);
                    // The same blocks through the block-wide fill.
                    let mut whole = patch.clone();
                    let blocks_x = w.div_ceil(block);
                    for b in 0..blocks_x * h.div_ceil(block) {
                        let (bx0, by0) = (b % blocks_x * block, b / blocks_x * block);
                        let (bx1, by1) = ((bx0 + block).min(w), (by0 + block).min(h));
                        let mut counts = BlendCounts::default();
                        for y in by0..by1 {
                            let row = reference_row(&mut want, w, (y, bx0, bx1), &p, 0.0, &exp);
                            counts.blended += row.blended;
                            counts.terminated += row.terminated;
                        }
                        let rows = (by1 - by0) as usize;
                        let got = patch.blend_rows(
                            b as usize,
                            &p,
                            (bx0 as i32, by0 as i32),
                            0,
                            (&vec![bx0 as i32; rows], &vec![bx1 as i32; rows]),
                            0.0,
                            &exp,
                            kernels,
                        );
                        assert_eq!(got, counts, "{backend} block {b} of edge {block}");
                        let got = whole.blend_block(b as usize, &p, 0.0, &exp, kernels);
                        assert_eq!(got, counts, "{backend} whole block {b} of edge {block}");
                    }
                    assert_patch_equals(&patch, &want, &format!("{backend} edge {block}"));
                    assert_patch_equals(&whole, &want, &format!("{backend} whole, edge {block}"));
                }
            }
        }
    }

    #[test]
    fn reset_patch_is_fresh_whatever_it_held() {
        let mut patch = PixelPatch::new(0, 0, 20, 3, 16);
        blend_pixel(&mut patch, 19, 2, 0.7, Vec3::splat(1.0));
        patch.reset(4, 4, 9, 2, 8);
        assert_eq!((patch.x0, patch.y0, patch.w, patch.h), (4, 4, 9, 2));
        for y in 0..2 {
            for x in 0..9 {
                assert_eq!(patch.state(x, y), PixelState::new());
            }
        }
        // Lanes that are no pixel are dead.
        let live = patch.t.iter().filter(|&&t| t == 1.0).count();
        assert_eq!(live, 9 * 2);
        assert!(patch.t.iter().all(|&t| t == 1.0 || t == 0.0));
    }

    #[test]
    fn render_units_merges_disjoint_units_and_returns_scratch_to_the_pool() {
        // Four 8×8 units of a 16×16 frame reporting ids, the top two
        // blending a row; more workers than pooled scratches.
        let p = wide_gaussian();
        let kernels = gcc_core::dispatch::active();
        let mut pooled = vec![BlendScratch::default()];
        for threads in [1usize, 3] {
            let out = render_units(
                4,
                threads,
                // Quoted heavy: every unit is worth a thread.
                (4, gcc_parallel::MIN_NS_PER_THREAD as u32),
                &mut pooled,
                (16, 16),
                None,
                Vec3::splat(0.25),
                10,
                |k, work| {
                    let (ux, uy) = ((k as u32 % 2) * 8, (k as u32 / 2) * 8);
                    work.patch.reset(ux, uy, 8, 8, 8);
                    work.loaded.extend([k as u32, 9]);
                    let ux = ux as i32;
                    let counts = work.patch.blend_rows(
                        0,
                        &p,
                        (ux, uy as i32),
                        2,
                        (&[ux], &[if k < 2 { ux + 8 } else { ux }]),
                        0.0,
                        &ExpMode::Exact,
                        kernels,
                    );
                    if counts.blended > 0 {
                        work.rendered.push(k as u32);
                    }
                    FrameStats {
                        pixels_blended: u64::from(counts.blended),
                        ..FrameStats::default()
                    }
                },
            );
            assert_eq!((out.loaded, out.rendered), (5, 2), "threads={threads}");
            assert_eq!(out.stats.pixels_blended, 16, "threads={threads}");
            assert_ne!(out.image.get(3, 2), Vec3::splat(0.25));
            assert_eq!(out.image.get(3, 12), Vec3::splat(0.25));
            // As many scratches as leases were ever out at once.
            assert!((1..=threads).contains(&pooled.len()), "threads={threads}");
        }
    }

    #[test]
    fn render_units_takes_only_the_threads_its_work_pays_for() {
        // Eight units offered eight threads: the units meet at a barrier
        // sized to the worker count the quoted work affords, so each case
        // finishes only if exactly that many workers run, and the thread
        // ids confirm it. Below one thread's floor the caller renders
        // every unit itself.
        use std::collections::HashSet;
        use std::sync::Barrier;
        let floor = gcc_parallel::MIN_NS_PER_THREAD as u32;
        for (work, want) in [
            ((8, floor), 8usize),
            ((3, floor), 3),
            ((8, floor / 4), 2),
            ((7, floor / 8), 1),
            ((0, floor), 1),
        ] {
            let seen = Mutex::new(HashSet::new());
            let barrier = Barrier::new(want);
            let out = render_units(
                8,
                8,
                work,
                &mut Vec::new(),
                (16, 16),
                None,
                Vec3::ZERO,
                0,
                |k, work| {
                    work.patch.reset(0, 0, 1, 1, 8);
                    seen.lock().unwrap().insert(std::thread::current().id());
                    // Each worker's first unit: the cursor hands units
                    // 0..want to distinct workers only if all of them
                    // are up, so wait for them there.
                    if k < want {
                        barrier.wait();
                    }
                    FrameStats::default()
                },
            );
            assert_eq!(out.stats, FrameStats::default());
            assert_eq!(seen.into_inner().unwrap().len(), want, "work {work:?}");
        }
    }
}
