//! Synthetic 3DGS scene generation for the GCC reproduction.
//!
//! The paper evaluates on six trained 3DGS models (Palace, Lego, Train,
//! Truck, Playroom, Drjohnson). Trained models are not redistributable, so
//! this crate synthesizes Gaussian clouds whose *pipeline-level statistics*
//! match what the paper's argument depends on (see `DESIGN.md` §1):
//!
//! * Gaussian population sizes proportional to the real scenes,
//! * in-frustum fractions of roughly 64–83% (paper Fig. 2(a)),
//! * a fat low-opacity tail plus an opaque mode, so that the effective
//!   (alpha ≥ 1/255) footprint is far smaller than the 3σ OBB/AABB
//!   footprints (paper Fig. 4, Table 1),
//! * splat sizes that overlap 3–6.5 tiles of 16×16 pixels on average
//!   (paper Fig. 2(b)),
//! * enough depth complexity for early termination to leave a majority of
//!   preprocessed Gaussians unused (paper Fig. 2(a), >60%).
//!
//! Everything is deterministic: a scene is a pure function of its preset
//! and seed.
//!
//! # Example
//!
//! ```
//! use gcc_scene::{ScenePreset, SceneConfig};
//!
//! let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.05));
//! assert!(scene.gaussians.len() > 100);
//! let cam = scene.default_camera();
//! assert_eq!(cam.width, scene.resolution.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod codec;
pub mod io;
pub mod json;
pub mod lod;
mod preset;
pub mod rng;
mod scene;
#[cfg(test)]
mod scene_file_tests;
mod trajectory;
mod view;

pub use lod::{LodLevel, SceneLod};
pub use preset::{PresetParams, SceneKind, ScenePreset, ALL_PRESETS};
pub use scene::{Scene, SceneConfig, SceneStats};
pub use trajectory::OrbitRig;
pub use view::{ViewError, ViewSpec};
