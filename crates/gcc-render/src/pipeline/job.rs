//! The frame-request vocabulary: [`Schedule`], [`RenderOptions`], [`Roi`]
//! and [`RenderJob`] — one description of "render this view, like so"
//! shared by direct callers, the trajectory runner and the serving layer.
//!
//! A [`RenderJob`] bundles what every schedule consumes: the Gaussian
//! cloud, a fully resolved [`Camera`] (already at the requested output
//! resolution — resolution overrides are applied where the camera is
//! built, e.g. `gcc_scene::Scene::resolve_view`), and the per-request
//! [`RenderOptions`].
//!
//! # Region-of-interest semantics
//!
//! An ROI render is defined as *bit-identical to the corresponding crop of
//! the full-frame render*. This rules out shifting the principal point
//! with [`Camera::sub_view`] (floating-point addition is not associative,
//! so `fx·x/z + (cx − x0)` and `(fx·x/z + cx) − x0` differ in ulps and the
//! ulps reach the blend); instead the schedules keep full-frame arithmetic
//! and restrict *which work units run*:
//!
//! * the standard schedule renders only the 16×16 tiles intersecting the
//!   ROI (tiles are pure functions of the global depth order),
//! * the Gaussian-wise schedule restricts blending to the 8×8 blocks
//!   intersecting the ROI under [`MaskMode::Traverse`] (block dispatch is
//!   per-block local there); under `MaskMode::SkipAndBlock` the mask gates
//!   traversal *reachability*, so the schedule falls back to a full render
//!   plus crop rather than silently change pixels.
//!
//! `tests/roi_parity.rs` pins the crop identity for both schedules across
//! thread counts.
//!
//! [`MaskMode::Traverse`]: gcc_core::boundary::MaskMode::Traverse

use gcc_core::{Camera, Gaussian3D};
use gcc_math::Vec3;
use gcc_parallel::Parallelism;

use super::{GaussianWiseRenderer, Renderer, StandardRenderer};
use crate::Image;

/// The renderer schedules a request can select, i.e. every named
/// configuration of the two dataflows. The serving layer batches requests
/// by `(scene, schedule, resolution)` and keeps one renderer per variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Schedule {
    /// The GPU reference: standard two-stage pipeline, exact arithmetic,
    /// AABB footprint (the Table 2 quality anchor).
    #[default]
    Reference,
    /// The standard tile-wise pipeline in its default configuration.
    Standard,
    /// GSCore: the standard pipeline with the tightened OBB footprint.
    Gscore,
    /// The GCC Gaussian-wise cross-stage-conditional dataflow (exact
    /// exponential datapath).
    GaussianWise,
    /// The GCC hardware configuration: Gaussian-wise with the fixed-point
    /// LUT-EXP datapath.
    GccHardware,
}

impl Schedule {
    /// Every schedule, in display order.
    pub const ALL: [Schedule; 5] = [
        Schedule::Reference,
        Schedule::Standard,
        Schedule::Gscore,
        Schedule::GaussianWise,
        Schedule::GccHardware,
    ];

    /// Stable identifier (stats keys, bench labels, JSON records).
    pub fn name(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Standard => "standard",
            Self::Gscore => "gscore",
            Self::GaussianWise => "gaussian_wise",
            Self::GccHardware => "gcc_hardware",
        }
    }

    /// Parses [`Self::name`] back into a schedule.
    pub fn parse(s: &str) -> Option<Schedule> {
        Schedule::ALL.into_iter().find(|v| v.name() == s)
    }

    /// Builds the sequential renderer for this schedule — the serving
    /// layer's configuration: one frame per worker unless a job names its
    /// own parallelism ([`RenderJob::parallelism`], which the service sets
    /// on every frame it can lend an idle core to).
    pub fn renderer(self) -> Box<dyn Renderer + Send + Sync> {
        self.renderer_with(Parallelism::Sequential)
    }

    /// Builds this schedule's renderer with an explicit intra-frame
    /// parallelism policy.
    pub fn renderer_with(self, parallelism: Parallelism) -> Box<dyn Renderer + Send + Sync> {
        match self {
            Self::Reference => {
                Box::new(StandardRenderer::reference().with_parallelism(parallelism))
            }
            Self::Standard => Box::new(StandardRenderer::default().with_parallelism(parallelism)),
            Self::Gscore => Box::new(StandardRenderer::gscore().with_parallelism(parallelism)),
            Self::GaussianWise => {
                Box::new(GaussianWiseRenderer::default().with_parallelism(parallelism))
            }
            Self::GccHardware => {
                Box::new(GaussianWiseRenderer::gcc_hardware().with_parallelism(parallelism))
            }
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A region of interest: a non-empty pixel rectangle of the full frame.
/// The rendered output image has exactly this size, and is bit-identical
/// to the same rectangle of the full-frame render (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Roi {
    /// Left edge in full-frame pixels.
    pub x0: u32,
    /// Top edge in full-frame pixels.
    pub y0: u32,
    /// Width in pixels (must be positive).
    pub width: u32,
    /// Height in pixels (must be positive).
    pub height: u32,
}

impl Roi {
    /// A region-of-interest rectangle.
    pub fn new(x0: u32, y0: u32, width: u32, height: u32) -> Self {
        Self {
            x0,
            y0,
            width,
            height,
        }
    }

    /// `true` when this ROI overlaps the half-open pixel rectangle
    /// `[x0, x1) × [y0, y1)` (frame coordinates).
    pub fn intersects(&self, x0: i64, y0: i64, x1: i64, y1: i64) -> bool {
        let (rx0, ry0) = (i64::from(self.x0), i64::from(self.y0));
        let (rx1, ry1) = (rx0 + i64::from(self.width), ry0 + i64::from(self.height));
        x0 < rx1 && rx0 < x1 && y0 < ry1 && ry0 < y1
    }

    /// Checks the ROI is non-empty and fits a `width × height` frame.
    ///
    /// # Errors
    ///
    /// [`JobError::EmptyRoi`] / [`JobError::RoiOutOfBounds`].
    pub fn validate_within(&self, width: u32, height: u32) -> Result<(), JobError> {
        if self.width == 0 || self.height == 0 {
            return Err(JobError::EmptyRoi);
        }
        let fits = u64::from(self.x0) + u64::from(self.width) <= u64::from(width)
            && u64::from(self.y0) + u64::from(self.height) <= u64::from(height);
        if !fits {
            return Err(JobError::RoiOutOfBounds {
                roi: *self,
                width,
                height,
            });
        }
        Ok(())
    }
}

/// Per-request rendering options: schedule selection, output shaping and
/// quality knobs. `RenderOptions::default()` reproduces a plain
/// `render_frame` call through the [`Schedule::Reference`] schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RenderOptions {
    /// Which schedule renders the request (dispatch-level: concrete
    /// renderers render with their own configuration and leave schedule
    /// selection to the caller, e.g. [`Schedule::renderer`] or the
    /// serving layer's per-schedule renderer table).
    pub schedule: Schedule,
    /// Output resolution override; `None` keeps the scene's native
    /// resolution. Consumed where the camera is built (the job's camera
    /// already has the final resolution); part of the serve batching key.
    pub resolution: Option<(u32, u32)>,
    /// Region of interest — render only this sub-rectangle of the frame
    /// (bit-identical to the crop of the full render).
    pub roi: Option<Roi>,
    /// Background color override behind the splats.
    pub background: Option<Vec3>,
    /// Minimum alpha a contribution needs to be blended, in `[0, 1)`.
    /// The pipelines already drop `α < 1/255`; raising this skips faint
    /// contributions for speed at a quality cost.
    pub alpha_min: Option<f32>,
    /// Clamp on the SH degree used for color (`0..=3`); lower degrees
    /// drop view-dependent color terms for cheaper shading.
    pub sh_degree: Option<u8>,
}

impl RenderOptions {
    /// Selects the schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the output resolution.
    pub fn at_resolution(mut self, width: u32, height: u32) -> Self {
        self.resolution = Some((width, height));
        self
    }

    /// Restricts rendering to a region of interest.
    pub fn with_roi(mut self, roi: Roi) -> Self {
        self.roi = Some(roi);
        self
    }

    /// Overrides the background color.
    pub fn on_background(mut self, background: Vec3) -> Self {
        self.background = Some(background);
        self
    }

    /// Sets the minimum blended alpha.
    pub fn with_alpha_min(mut self, alpha_min: f32) -> Self {
        self.alpha_min = Some(alpha_min);
        self
    }

    /// Clamps the SH evaluation degree.
    pub fn with_sh_degree(mut self, degree: u8) -> Self {
        self.sh_degree = Some(degree);
        self
    }

    /// Camera-independent validation: resolution non-zero, ROI non-empty
    /// (bounds are checked against a frame size by
    /// [`Self::validate_for`]), knobs in range, everything finite.
    ///
    /// # Errors
    ///
    /// The first violated [`JobError`].
    pub fn validate(&self) -> Result<(), JobError> {
        if let Some((w, h)) = self.resolution {
            if w == 0 || h == 0 {
                return Err(JobError::ZeroResolution);
            }
        }
        if let Some(roi) = &self.roi {
            if roi.width == 0 || roi.height == 0 {
                return Err(JobError::EmptyRoi);
            }
        }
        if let Some(bg) = &self.background {
            if !(bg.x.is_finite() && bg.y.is_finite() && bg.z.is_finite()) {
                return Err(JobError::NonFinite {
                    field: "background",
                });
            }
        }
        if let Some(a) = self.alpha_min {
            if !a.is_finite() || !(0.0..1.0).contains(&a) {
                return Err(JobError::AlphaMinOutOfRange(a));
            }
        }
        if let Some(d) = self.sh_degree {
            if d > 3 {
                return Err(JobError::ShDegreeTooHigh(d));
            }
        }
        Ok(())
    }

    /// Full validation against the frame size the camera will render at.
    ///
    /// # Errors
    ///
    /// [`Self::validate`] errors plus ROI bounds violations.
    pub fn validate_for(&self, width: u32, height: u32) -> Result<(), JobError> {
        self.validate()?;
        if let Some(roi) = &self.roi {
            roi.validate_within(width, height)?;
        }
        Ok(())
    }
}

/// Why a [`RenderJob`] (or the [`RenderOptions`] inside a request) was
/// rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// A float field was NaN or infinite.
    NonFinite {
        /// Which field.
        field: &'static str,
    },
    /// A resolution override had a zero dimension.
    ZeroResolution,
    /// The ROI was zero-sized.
    EmptyRoi,
    /// The ROI does not fit the frame.
    RoiOutOfBounds {
        /// The offending region.
        roi: Roi,
        /// Frame width the ROI was checked against.
        width: u32,
        /// Frame height the ROI was checked against.
        height: u32,
    },
    /// SH degree clamp above the maximum of 3.
    ShDegreeTooHigh(u8),
    /// Alpha threshold outside `[0, 1)`.
    AlphaMinOutOfRange(f32),
    /// The options' resolution override disagrees with the job's camera.
    ResolutionMismatch {
        /// The camera's image size.
        camera: (u32, u32),
        /// The options' requested size.
        requested: (u32, u32),
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { field } => write!(f, "{field} is not finite"),
            Self::ZeroResolution => write!(f, "resolution override has a zero dimension"),
            Self::EmptyRoi => write!(f, "region of interest is zero-sized"),
            Self::RoiOutOfBounds { roi, width, height } => write!(
                f,
                "ROI {}x{}@({},{}) exceeds the {width}x{height} frame",
                roi.width, roi.height, roi.x0, roi.y0
            ),
            Self::ShDegreeTooHigh(d) => write!(f, "SH degree clamp {d} exceeds the maximum of 3"),
            Self::AlphaMinOutOfRange(a) => write!(f, "alpha_min {a} outside [0, 1)"),
            Self::ResolutionMismatch { camera, requested } => write!(
                f,
                "options request {}x{} but the job camera renders {}x{}",
                requested.0, requested.1, camera.0, camera.1
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// One fully specified frame request: the Gaussian cloud, a resolved
/// camera (already at the output resolution) and the per-request options.
/// This is what [`Renderer::render_job`] consumes; `render_frame` is a
/// convenience over a default-options job.
#[derive(Debug, Clone)]
pub struct RenderJob<'a> {
    /// The Gaussian cloud.
    pub gaussians: &'a [Gaussian3D],
    /// The full-frame camera (ROI restriction happens inside the
    /// schedules, on full-frame arithmetic).
    pub camera: &'a Camera,
    /// Per-request options.
    pub options: RenderOptions,
    /// Intra-frame parallelism for this one job; `None` leaves the
    /// renderer's own policy in force. A scheduling decision, not part of
    /// the request: it is the dispatcher that knows how many cores are
    /// free right now (the serving layer lends every frame the cores no
    /// other worker is busy on). Images and [`FrameStats`] are
    /// bit-identical for every value; the in-tree renderers honor it, a
    /// custom [`Renderer`] may ignore it.
    ///
    /// [`FrameStats`]: super::FrameStats
    pub parallelism: Option<Parallelism>,
}

impl<'a> RenderJob<'a> {
    /// A default-options job: full frame, schedule defaults.
    pub fn new(gaussians: &'a [Gaussian3D], camera: &'a Camera) -> Self {
        Self::with_options(gaussians, camera, RenderOptions::default())
    }

    /// A job with explicit options.
    pub fn with_options(
        gaussians: &'a [Gaussian3D],
        camera: &'a Camera,
        options: RenderOptions,
    ) -> Self {
        Self {
            gaussians,
            camera,
            options,
            parallelism: None,
        }
    }

    /// Renders this job with `parallelism` whatever the renderer's own
    /// policy is.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Validates the options against this job's camera: knob ranges, ROI
    /// bounds, and (when set) the resolution override matching the camera.
    ///
    /// # Errors
    ///
    /// The first violated [`JobError`].
    pub fn validate(&self) -> Result<(), JobError> {
        self.options
            .validate_for(self.camera.width, self.camera.height)?;
        if let Some((w, h)) = self.options.resolution {
            if (w, h) != (self.camera.width, self.camera.height) {
                return Err(JobError::ResolutionMismatch {
                    camera: (self.camera.width, self.camera.height),
                    requested: (w, h),
                });
            }
        }
        Ok(())
    }

    /// Output image size: the ROI if set, the full camera frame otherwise.
    pub fn output_size(&self) -> (u32, u32) {
        match &self.options.roi {
            Some(r) => (r.width, r.height),
            None => (self.camera.width, self.camera.height),
        }
    }
}

/// Crops `image` to `roi` (used by the default [`Renderer::render_job`]
/// full-render-then-crop path and the `SkipAndBlock` fallback).
///
/// # Panics
///
/// Panics when the ROI exceeds the image.
pub(crate) fn crop_image(image: &Image, roi: &Roi) -> Image {
    assert!(
        roi.x0 + roi.width <= image.width() && roi.y0 + roi.height <= image.height(),
        "ROI {}x{}@({},{}) exceeds {}x{} frame",
        roi.width,
        roi.height,
        roi.x0,
        roi.y0,
        image.width(),
        image.height()
    );
    let mut out = Image::new(roi.width, roi.height);
    for y in 0..roi.height {
        for x in 0..roi.width {
            out.set(x, y, image.get(roi.x0 + x, roi.y0 + y));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_names_round_trip() {
        for s in Schedule::ALL {
            assert_eq!(Schedule::parse(s.name()), Some(s));
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(Schedule::parse("nope"), None);
        assert_eq!(Schedule::default(), Schedule::Reference);
    }

    #[test]
    fn every_schedule_builds_a_renderer() {
        for s in Schedule::ALL {
            let r = s.renderer();
            // Standard-family schedules report "standard", Gaussian-wise
            // ones "gaussian-wise"; the Schedule name is the stable key.
            assert!(!r.name().is_empty());
        }
    }

    #[test]
    fn options_validate_knob_ranges() {
        assert!(RenderOptions::default().validate().is_ok());
        assert_eq!(
            RenderOptions::default().at_resolution(0, 64).validate(),
            Err(JobError::ZeroResolution)
        );
        assert_eq!(
            RenderOptions::default()
                .with_roi(Roi::new(0, 0, 0, 4))
                .validate(),
            Err(JobError::EmptyRoi)
        );
        assert_eq!(
            RenderOptions::default().with_alpha_min(1.5).validate(),
            Err(JobError::AlphaMinOutOfRange(1.5))
        );
        assert!(RenderOptions::default()
            .with_alpha_min(f32::NAN)
            .validate()
            .is_err());
        assert_eq!(
            RenderOptions::default().with_sh_degree(4).validate(),
            Err(JobError::ShDegreeTooHigh(4))
        );
        assert_eq!(
            RenderOptions::default()
                .on_background(Vec3::new(f32::NAN, 0.0, 0.0))
                .validate(),
            Err(JobError::NonFinite {
                field: "background"
            })
        );
    }

    #[test]
    fn roi_bounds_are_checked_against_the_frame() {
        let roi = Roi::new(60, 0, 10, 10);
        assert!(roi.validate_within(70, 10).is_ok());
        assert_eq!(
            roi.validate_within(64, 64),
            Err(JobError::RoiOutOfBounds {
                roi,
                width: 64,
                height: 64
            })
        );
        assert!(roi.intersects(0, 0, 64, 64));
        assert!(!roi.intersects(0, 0, 60, 64));
        assert!(!Roi::new(8, 8, 4, 4).intersects(12, 8, 20, 12));
    }

    #[test]
    fn job_checks_resolution_consistency_with_camera() {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            96,
            64,
        );
        let ok = RenderJob::with_options(&[], &cam, RenderOptions::default().at_resolution(96, 64));
        assert!(ok.validate().is_ok());
        assert_eq!(ok.output_size(), (96, 64));
        let bad =
            RenderJob::with_options(&[], &cam, RenderOptions::default().at_resolution(128, 128));
        assert_eq!(
            bad.validate(),
            Err(JobError::ResolutionMismatch {
                camera: (96, 64),
                requested: (128, 128)
            })
        );
        let roi_job = RenderJob::with_options(
            &[],
            &cam,
            RenderOptions::default().with_roi(Roi::new(16, 8, 32, 16)),
        );
        assert_eq!(roi_job.output_size(), (32, 16));
    }

    #[test]
    fn crop_extracts_the_frame_rectangle() {
        let mut img = Image::new(8, 6);
        img.set(3, 2, Vec3::splat(0.7));
        let cropped = crop_image(&img, &Roi::new(2, 1, 4, 3));
        assert_eq!(cropped.width(), 4);
        assert_eq!(cropped.height(), 3);
        assert_eq!(cropped.get(1, 1), Vec3::splat(0.7));
        assert_eq!(cropped.get(0, 0), Vec3::ZERO);
    }
}
