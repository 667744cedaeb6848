//! Reusable per-frame working memory for the hot path.
//!
//! A frame render needs several transient buffers — depth keys, the radix
//! ping-pong arrays, footprint rectangles, CSR tile bins, Stage I depths
//! and screen bounds, the workers' SoA pixel patches and block tracers.
//! Allocating them per frame is pure overhead in batch workloads (a
//! trajectory render re-creates them hundreds of times), so they live in
//! one [`FrameScratch`] that callers thread through
//! [`crate::pipeline::Renderer::render_job`]. Each serving worker keeps
//! one scratch, and a batch map keeps one per thread.
//!
//! A scratch is *pure capacity*: every buffer is rebuilt from scratch each
//! frame, so render output never depends on what a previous frame left
//! behind — reusing a scratch is bit-identical to using a fresh one
//! (tests pin this).

use gcc_core::bounds::PixelRect;
use gcc_core::{Camera, Gaussian3D, ProjectedGaussian};

use super::stages::{BlendScratch, TileBins};

/// Struct-of-arrays view of the post-cull survivors: the per-survivor
/// fields the vectorized stages stream over, packed into contiguous
/// parallel `f32` arrays so the SIMD kernels ([`gcc_core::dispatch`])
/// consume flat slices instead of strided [`ProjectedGaussian`] records.
///
/// Index `i` in every array refers to survivor `i` of the packed
/// projection list. SH coefficients are deliberately *not* packed here:
/// the kernels gather them in place from the source records by survivor
/// id (see [`gcc_core::dispatch::ShColorsFn`]) — copying 48 floats per
/// survivor per frame costs more than the evaluation saves.
#[derive(Debug, Clone, Default)]
pub(crate) struct SurvivorSoa {
    /// View-space depths (depth-key generation).
    pub(crate) depth: Vec<f32>,
    /// View-direction x components (SH evaluation).
    pub(crate) dir_x: Vec<f32>,
    /// View-direction y components (SH evaluation).
    pub(crate) dir_y: Vec<f32>,
    /// View-direction z components (SH evaluation).
    pub(crate) dir_z: Vec<f32>,
    /// Projected center x in pixels (footprint rects).
    pub(crate) mean_x: Vec<f32>,
    /// Projected center y in pixels (footprint rects).
    pub(crate) mean_y: Vec<f32>,
    /// Bounding radii in pixels (footprint rects).
    pub(crate) radius: Vec<f32>,
}

impl SurvivorSoa {
    /// Number of packed survivors.
    pub(crate) fn len(&self) -> usize {
        self.depth.len()
    }

    /// Rebuilds every array from the packed survivor list: depths, means
    /// and radii are copied out of the projection records, and the
    /// per-survivor view directions are computed once here (shared by
    /// every SH backend, so direction arithmetic can never diverge
    /// between scalar and SIMD).
    pub(crate) fn pack(
        &mut self,
        projected: &[ProjectedGaussian],
        gaussians: &[Gaussian3D],
        cam: &Camera,
    ) {
        let n = projected.len();
        self.depth.clear();
        self.mean_x.clear();
        self.mean_y.clear();
        self.radius.clear();
        self.dir_x.clear();
        self.dir_y.clear();
        self.dir_z.clear();
        self.depth.reserve(n);
        self.mean_x.reserve(n);
        self.mean_y.reserve(n);
        self.radius.reserve(n);
        self.dir_x.reserve(n);
        self.dir_y.reserve(n);
        self.dir_z.reserve(n);
        for p in projected {
            let g = &gaussians[p.id as usize];
            self.depth.push(p.depth);
            self.mean_x.push(p.mean2d.x);
            self.mean_y.push(p.mean2d.y);
            self.radius.push(p.radius);
            let dir = cam.view_dir(g.mean);
            self.dir_x.push(dir.x);
            self.dir_y.push(dir.y);
            self.dir_z.push(dir.z);
        }
    }
}

/// Reusable working memory for one frame render. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FrameScratch {
    /// Monotone depth keys of the projected survivors.
    pub(crate) keys: Vec<u32>,
    /// Global front-to-back survivor order.
    pub(crate) order: Vec<u32>,
    /// Radix-sort ping-pong buffer.
    pub(crate) radix: Vec<u32>,
    /// Screen-clipped AABB footprints, scene order.
    pub(crate) rects: Vec<PixelRect>,
    /// CSR tile bins.
    pub(crate) bins: TileBins,
    /// Stage I view depths (Gaussian-wise schedule).
    pub(crate) depths: Vec<f32>,
    /// Stage I conservative screen bounds, scene order (Gaussian-wise
    /// schedule's Cmode window binning).
    pub(crate) bounds: Vec<Option<crate::gaussian_wise::ScreenBound>>,
    /// SoA survivor fields streamed by the vectorized stages.
    pub(crate) soa: SurvivorSoa,
    /// Per-worker blending scratch (pixel patches, index lists), leased
    /// to the tile/window workers of a frame and returned warm.
    pub(crate) workers: Vec<BlendScratch>,
}

impl FrameScratch {
    /// Empty scratch; buffers grow to steady-state capacity on the first
    /// frame and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}
