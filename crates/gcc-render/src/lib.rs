//! Software renderers for both 3DGS dataflows of the GCC paper, unified
//! behind the stage-based frame pipeline, plus image-quality metrics.
//!
//! The crate is layered:
//!
//! * [`pipeline`] — the architecture seam: the [`pipeline::Renderer`]
//!   trait (one frame → [`Image`] + unified [`pipeline::FrameStats`]),
//!   the shared stage primitives ([`pipeline::stages`]: cull, project,
//!   SH, depth sort, window partitioning, pixel patches), and the
//!   parallel frame engine that renders tiles / Cmode sub-views across
//!   threads with bit-for-bit deterministic merges.
//! * [`standard`] — the conventional decoupled "preprocess-then-render"
//!   schedule with tile-wise (16×16) rendering, as used by the GPU
//!   reference and GSCore. Fully instrumented: it reports the
//!   projected/rendered Gaussian counts of Fig. 2(a), the per-Gaussian
//!   tile-load multiplicity of Fig. 2(b), and the AABB/OBB/effective
//!   pixel-work numbers of Table 1.
//! * [`gaussian_wise`] — the GCC schedule: Stage I depth grouping,
//!   interleaved (cross-stage conditional) preprocessing and rendering,
//!   ω-σ culling, per-group sorting, Algorithm 1 block traversal with
//!   T-mask, and Compatibility-Mode sub-view partitioning (Fig. 6).
//! * the "GPU reference" — [`StandardRenderer::default`], the exact
//!   arithmetic configuration used as the quality anchor of Table 2.
//!
//! [`quality`] provides PSNR / SSIM, the perceptual-distance proxy standing
//! in for LPIPS, and the pseudo-ground-truth anchoring described in
//! `DESIGN.md` §1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gaussian_wise;
mod image;
pub mod pipeline;
pub mod quality;
pub mod standard;
pub mod upscale;

pub use image::Image;
pub use pipeline::{
    Frame, FrameStats, GaussianWiseRenderer, JobError, RenderJob, RenderOptions, Renderer, Roi,
    Schedule, StandardRenderer,
};
