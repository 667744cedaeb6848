//! The stage-based frame pipeline: one [`Renderer`] interface over both
//! dataflows, shared stage primitives, and the parallel frame engine.
//!
//! The GCC paper's two dataflows — the decoupled tile-wise pipeline and
//! the Gaussian-wise cross-stage-conditional pipeline — are two *schedules*
//! over the same per-Gaussian stages (cull → project → SH → sort → blend).
//! This module is the seam that makes that literal in code:
//!
//! * [`stages`] holds the stage functions both schedules call,
//! * [`FrameStats`] is the unified workload-statistics view every
//!   schedule reports and `gcc-sim` consumes,
//! * [`Renderer`] is the one-frame interface (`Gaussians + Camera →`
//!   [`Frame`]) the simulators, the serving layer and the benches drive —
//!   the only way to render a frame,
//! * [`StandardRenderer`] and [`GaussianWiseRenderer`] wrap the two
//!   schedules with a [`Parallelism`] knob: the engine parallelizes
//!   *inside* a frame (tiles for the standard path, Cmode sub-views for
//!   the Gaussian-wise path) with per-worker stats merged associatively,
//!   so multi-threaded renders reproduce single-threaded images and
//!   counters bit-for-bit.
//!
//! GSCore is not a third schedule but a configuration of the tile-wise
//! one ([`StandardConfig::gscore`]: the OBB footprint); [`Schedule`] names
//! every configuration a request can select.
//!
//! The one entry point is [`Renderer::render_job`]: a [`RenderJob`]
//! carries the cloud, a resolved [`Camera`], and per-request
//! [`RenderOptions`] (schedule selection via [`Schedule`],
//! region-of-interest [`Roi`], background and quality knobs).
//! `render_frame` is a convenience over a default-options job and a fresh
//! scratch.

mod job;
mod scratch;
pub mod stages;
mod stats;

pub use gcc_parallel::Parallelism;
pub(crate) use job::crop_image;
pub use job::{JobError, RenderJob, RenderOptions, Roi, Schedule};
pub use scratch::FrameScratch;
pub use stats::FrameStats;

use gcc_core::{Camera, Gaussian3D};

use crate::gaussian_wise::{render_gaussian_wise_job, GaussianWiseConfig};
use crate::standard::{render_standard_job, StandardConfig};
use crate::Image;

/// One rendered frame: the image plus the unified workload statistics.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The rendered image.
    pub image: Image,
    /// Unified workload statistics.
    pub stats: FrameStats,
}

/// A frame renderer: any schedule of the per-Gaussian stages that turns a
/// Gaussian cloud and a camera into an image plus [`FrameStats`].
///
/// Implementations must be `Sync`: the serving layer's workers render
/// through one shared renderer per schedule, and batch drivers map views
/// across threads through a shared reference.
pub trait Renderer: Sync {
    /// Renders one fully specified request, reusing `scratch` for the
    /// hot-path buffers. The output is bit-identical whatever earlier
    /// frames left in the scratch; batch drivers keep one scratch per
    /// worker to stop reallocating per frame. An ROI job's image is
    /// bit-identical to the crop of the full-frame render (see
    /// [`RenderOptions`]). `options.schedule` never changes which renderer
    /// runs — dispatch on it with [`Schedule::renderer`] or the serving
    /// layer.
    ///
    /// # Panics
    ///
    /// Panics when the job fails [`RenderJob::validate`] (serving-layer
    /// callers validate at submit and return typed errors instead).
    fn render_job(&self, job: &RenderJob<'_>, scratch: &mut FrameScratch) -> Frame;

    /// Renders one frame with default options and a fresh scratch.
    fn render_frame(&self, gaussians: &[Gaussian3D], cam: &Camera) -> Frame {
        self.render_job(&RenderJob::new(gaussians, cam), &mut FrameScratch::new())
    }
}

/// The standard two-stage tile-wise schedule behind the [`Renderer`]
/// interface, with intra-frame tile parallelism.
#[derive(Debug, Clone)]
pub struct StandardRenderer {
    /// Schedule configuration.
    pub cfg: StandardConfig,
    /// Intra-frame parallelism (over image tiles), unless the job names
    /// its own ([`RenderJob::parallelism`]).
    pub parallelism: Parallelism,
}

impl Default for StandardRenderer {
    /// Default configuration, sequential — consistent with [`Self::new`];
    /// opt into threads with [`Self::with_parallelism`].
    fn default() -> Self {
        Self::new(StandardConfig::default())
    }
}

impl StandardRenderer {
    /// Sequential renderer with the given configuration.
    pub fn new(cfg: StandardConfig) -> Self {
        Self {
            cfg,
            parallelism: Parallelism::Sequential,
        }
    }

    /// GSCore's configuration (OBB footprint).
    pub fn gscore() -> Self {
        Self::new(StandardConfig::gscore())
    }

    /// Sets the parallelism policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

impl Renderer for StandardRenderer {
    fn render_job(&self, job: &RenderJob<'_>, scratch: &mut FrameScratch) -> Frame {
        if let Err(e) = job.validate() {
            panic!("invalid render job: {e}");
        }
        let cfg = self.cfg.with_options(&job.options);
        render_standard_job(
            job.gaussians,
            job.camera,
            &cfg,
            job.options.roi,
            job.parallelism.unwrap_or(self.parallelism),
            scratch,
        )
    }
}

/// The GCC Gaussian-wise cross-stage-conditional schedule behind the
/// [`Renderer`] interface, with intra-frame parallelism over Cmode
/// sub-views.
#[derive(Debug, Clone)]
pub struct GaussianWiseRenderer {
    /// Schedule configuration.
    pub cfg: GaussianWiseConfig,
    /// Intra-frame parallelism (over Compatibility-Mode sub-views; a
    /// full-frame render has a single window and stays sequential), unless
    /// the job names its own ([`RenderJob::parallelism`]).
    pub parallelism: Parallelism,
}

impl Default for GaussianWiseRenderer {
    /// Default configuration, sequential — consistent with [`Self::new`];
    /// opt into threads with [`Self::with_parallelism`].
    fn default() -> Self {
        Self::new(GaussianWiseConfig::default())
    }
}

impl GaussianWiseRenderer {
    /// Sequential renderer with the given configuration.
    pub fn new(cfg: GaussianWiseConfig) -> Self {
        Self {
            cfg,
            parallelism: Parallelism::Sequential,
        }
    }

    /// The GCC hardware configuration (LUT-EXP datapath).
    pub fn gcc_hardware() -> Self {
        Self::new(GaussianWiseConfig::gcc_hardware())
    }

    /// Sets the parallelism policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

impl Renderer for GaussianWiseRenderer {
    fn render_job(&self, job: &RenderJob<'_>, scratch: &mut FrameScratch) -> Frame {
        if let Err(e) = job.validate() {
            panic!("invalid render job: {e}");
        }
        let cfg = self.cfg.with_options(&job.options);
        render_gaussian_wise_job(
            job.gaussians,
            job.camera,
            &cfg,
            job.options.roi,
            job.parallelism.unwrap_or(self.parallelism),
            scratch,
        )
    }
}

#[cfg(test)]
// Test data: libm `sin` / `cos` place synthetic Gaussians.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use gcc_math::Vec3;

    fn cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            96,
            64,
        )
    }

    fn cloud(n: usize) -> Vec<Gaussian3D> {
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                Gaussian3D::isotropic(
                    Vec3::new((t * 11.0).sin() * 0.7, (t * 6.0).cos() * 0.4, t * 1.5),
                    0.05 + 0.08 * t,
                    0.08f32.max(t),
                    Vec3::new(t, 1.0 - t, 0.6),
                )
            })
            .collect()
    }

    #[test]
    fn trait_objects_render_both_schedules() {
        let cam = cam();
        let cloud = cloud(80);
        let renderers: Vec<Box<dyn Renderer>> = vec![
            Box::new(StandardRenderer::default()),
            Box::new(GaussianWiseRenderer::default()),
        ];
        let frames: Vec<Frame> = renderers
            .iter()
            .map(|r| r.render_frame(&cloud, &cam))
            .collect();
        assert_eq!(frames[0].image.width(), 96);
        // Both schedules agree on the scene-level core counters.
        assert_eq!(frames[0].stats.total_gaussians, 80);
        assert_eq!(frames[1].stats.total_gaussians, 80);
        // And draw the same picture.
        let mse = frames[0].image.mse(&frames[1].image);
        assert!(mse < 1e-5, "schedules diverge: MSE {mse}");
    }
}
