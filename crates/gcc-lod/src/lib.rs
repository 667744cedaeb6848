//! Deadline-aware adaptive quality for the GCC serving layer.
//!
//! The GCC paper wins by *conditionally skipping work* inside a frame
//! (Gaussian-wise and cross-stage conditional processing). This crate
//! lifts the same idea to the scheduler: when a frame's deadline cannot
//! be met at full quality, degrade the frame instead of missing it.
//! Three pieces compose (DESIGN.md §14):
//!
//! * [`hierarchy`] — an offline, deterministic, seeded coarse-to-fine
//!   **Gaussian hierarchy builder**: spatial clusters merge into fatter,
//!   opacity/SH-compensated Gaussians, mip-style, one level per
//!   doubling of the merge cell. The product is a
//!   [`gcc_scene::SceneLod`] stored *with* the scene (and charged to
//!   the serve cache's byte budget via `Scene::approx_bytes`).
//! * [`ladder`] — the **quality ladder**: each [`ladder::QualityRung`]
//!   combines knobs that already exist in
//!   [`gcc_render::RenderOptions`] (SH-degree clamp, resolution
//!   override + filtered upscale, `alpha_min`) with a hierarchy level.
//!   Rung 0 is always exact full quality; every rung documents the
//!   PSNR/SSIM floor it is allowed to cost.
//! * [`cost`] — a **rolling per-scene cost model**: an EWMA of measured
//!   ms/frame keyed by scene × rung × resolution. The dispatcher asks
//!   it for the highest rung whose *measured* cost fits the frame's
//!   remaining deadline budget; an unmeasured rung has no price and is
//!   discovered by probing one step up while the chosen rung fits, and
//!   a cold-start scene renders at the floor rung once rather than
//!   risk a miss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod hierarchy;
pub mod ladder;

pub use cost::CostModel;
pub use hierarchy::{attach_hierarchy, build_hierarchy, HierarchyConfig};
pub use ladder::{QualityLadder, QualityRung};
