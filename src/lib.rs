//! Umbrella crate for the GCC (MICRO 2025) reproduction: re-exports the
//! workspace's library crates so examples and integration tests can
//! depend on one name.
//!
//! See `README.md` for the tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ```
//! use gcc_repro::render::{Renderer, StandardRenderer};
//! use gcc_repro::scene::{SceneConfig, ScenePreset};
//!
//! let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.02));
//! assert!(!scene.is_empty());
//! let cam = scene.default_camera();
//! let frame = StandardRenderer::default().render_frame(&scene.gaussians, &cam);
//! assert_eq!(frame.stats.total_gaussians, scene.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gcc_core as core;
pub use gcc_lod as lod;
pub use gcc_math as math;
pub use gcc_parallel as parallel;
pub use gcc_render as render;
pub use gcc_scene as scene;
pub use gcc_serve as serve;
pub use gcc_sim as sim;
pub use gcc_wire as wire;
