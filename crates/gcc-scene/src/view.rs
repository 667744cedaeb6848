//! [`ViewSpec`] — first-class view requests: *what to look at*, resolved
//! against a scene into a concrete [`Camera`].
//!
//! The render pipeline consumes `(gaussians, camera, options)` jobs
//! ([`gcc_render::RenderJob`]); this module is the scene-level half of the
//! request vocabulary: a serializable-in-spirit description of a viewpoint
//! that a service can validate *before* the scene is even loaded, and
//! resolve once it is. Three forms:
//!
//! * [`ViewSpec::Trajectory`] — parameter `t` on the scene's rig,
//! * [`ViewSpec::LookAt`] — an explicit pose (headset / free-fly clients),
//! * [`ViewSpec::Orbit`] — an absolute angle on the rig circle with
//!   radius/height adjustments (turntable clients).
//!
//! [`Scene::resolve_view`] combines a spec with a request's
//! [`RenderOptions`] (output resolution override, ROI bounds check) and
//! yields the full-frame [`Camera`] the renderers consume.

use gcc_core::Camera;
use gcc_math::Vec3;
use gcc_render::{JobError, RenderOptions};

use crate::Scene;

/// A viewpoint request, resolved against a scene's rig by
/// [`Scene::resolve_view`].
#[derive(Debug, Clone, PartialEq)]
pub enum ViewSpec {
    /// Camera at trajectory parameter `t ∈ [0, 1]` on the scene's rig —
    /// one full orbit (or scan arc) as `t` sweeps the range.
    Trajectory {
        /// Trajectory parameter.
        t: f32,
    },
    /// An explicit pose: eye position looking at a target.
    LookAt {
        /// Camera position.
        eye: Vec3,
        /// Point the camera looks at.
        target: Vec3,
        /// Up direction (need not be unit length, must be non-zero).
        up: Vec3,
        /// Vertical field of view in degrees; `None` uses the scene's.
        fov_y_deg: Option<f32>,
    },
    /// An absolute angle on the scene's orbit rig, with the orbit radius
    /// scaled and the eye height offset — the turntable superset of
    /// [`ViewSpec::Trajectory`].
    Orbit {
        /// Absolute orbit angle in radians (the rig's `phase` is `0`
        /// here: `angle = 0` is the rig's phase start).
        angle: f32,
        /// Multiplier on the rig radius (must be positive and finite).
        radius_scale: f32,
        /// Added to the rig's eye height.
        height_offset: f32,
    },
}

impl ViewSpec {
    /// Trajectory view at parameter `t`.
    pub fn trajectory(t: f32) -> Self {
        Self::Trajectory { t }
    }

    /// Explicit pose with a `+y` up vector and the scene's field of view.
    pub fn look_at(eye: Vec3, target: Vec3) -> Self {
        Self::LookAt {
            eye,
            target,
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_y_deg: None,
        }
    }

    /// Orbit view at an absolute angle, rig radius and height.
    pub fn orbit(angle: f32) -> Self {
        Self::Orbit {
            angle,
            radius_scale: 1.0,
            height_offset: 0.0,
        }
    }

    /// Scene-independent validation: finiteness, ranges, non-degenerate
    /// poses. A service runs this at submit time so bad requests fail
    /// with a typed error instead of poisoning a render worker.
    ///
    /// # Errors
    ///
    /// The first violated [`ViewError`].
    pub fn validate(&self) -> Result<(), ViewError> {
        match self {
            Self::Trajectory { t } => {
                if !t.is_finite() {
                    return Err(ViewError::NonFinite { field: "t" });
                }
                if !(0.0..=1.0).contains(t) {
                    return Err(ViewError::TrajectoryOutOfRange { t: *t });
                }
            }
            Self::LookAt {
                eye,
                target,
                up,
                fov_y_deg,
            } => {
                for (v, field) in [(eye, "eye"), (target, "target"), (up, "up")] {
                    if !(v.x.is_finite() && v.y.is_finite() && v.z.is_finite()) {
                        return Err(ViewError::NonFinite { field });
                    }
                }
                if (*eye - *target).norm_sq() < 1e-12 || up.norm_sq() < 1e-12 {
                    return Err(ViewError::DegeneratePose);
                }
                if let Some(fov) = fov_y_deg {
                    if !fov.is_finite() {
                        return Err(ViewError::NonFinite { field: "fov_y_deg" });
                    }
                    if !(*fov > 0.0 && *fov < 180.0) {
                        return Err(ViewError::FovOutOfRange { fov_y_deg: *fov });
                    }
                }
            }
            Self::Orbit {
                angle,
                radius_scale,
                height_offset,
            } => {
                if !angle.is_finite() {
                    return Err(ViewError::NonFinite { field: "angle" });
                }
                if !height_offset.is_finite() {
                    return Err(ViewError::NonFinite {
                        field: "height_offset",
                    });
                }
                if !radius_scale.is_finite() || *radius_scale <= 0.0 {
                    return Err(ViewError::RadiusScaleOutOfRange {
                        scale: *radius_scale,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Why a view request (spec or options) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewError {
    /// A float field was NaN or infinite.
    NonFinite {
        /// Which field.
        field: &'static str,
    },
    /// Trajectory parameter outside `[0, 1]`.
    TrajectoryOutOfRange {
        /// The offending parameter.
        t: f32,
    },
    /// Eye coincides with target, or the up vector is zero.
    DegeneratePose,
    /// Field of view outside `(0, 180)` degrees.
    FovOutOfRange {
        /// The offending field of view.
        fov_y_deg: f32,
    },
    /// Orbit radius scale not a positive finite number.
    RadiusScaleOutOfRange {
        /// The offending scale.
        scale: f32,
    },
    /// The request's [`RenderOptions`] were invalid.
    Options(JobError),
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { field } => write!(f, "view field '{field}' is not finite"),
            Self::TrajectoryOutOfRange { t } => {
                write!(f, "trajectory parameter {t} outside [0, 1]")
            }
            Self::DegeneratePose => write!(f, "degenerate pose: eye == target or zero up vector"),
            Self::FovOutOfRange { fov_y_deg } => {
                write!(f, "field of view {fov_y_deg} outside (0, 180) degrees")
            }
            Self::RadiusScaleOutOfRange { scale } => {
                write!(f, "orbit radius scale {scale} must be positive and finite")
            }
            Self::Options(e) => write!(f, "invalid render options: {e}"),
        }
    }
}

impl std::error::Error for ViewError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Options(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JobError> for ViewError {
    fn from(e: JobError) -> Self {
        Self::Options(e)
    }
}

impl Scene {
    /// Resolves a view request into the full-frame [`Camera`] the
    /// renderers consume: validates the spec and options, applies the
    /// options' resolution override (falling back to the scene's native
    /// resolution), and checks the ROI against the final frame size.
    ///
    /// # Errors
    ///
    /// [`ViewError`] when the spec or options are invalid.
    pub fn resolve_view(
        &self,
        view: &ViewSpec,
        options: &RenderOptions,
    ) -> Result<Camera, ViewError> {
        view.validate()?;
        let (w, h) = options.resolution.unwrap_or(self.resolution);
        options.validate_for(w, h)?;
        let cam = match view {
            ViewSpec::Trajectory { t } => self.rig.camera(*t, self.fov_y_deg, w, h),
            ViewSpec::LookAt {
                eye,
                target,
                up,
                fov_y_deg,
            } => Camera::look_at(
                *eye,
                *target,
                *up,
                fov_y_deg.unwrap_or(self.fov_y_deg),
                w,
                h,
            ),
            ViewSpec::Orbit {
                angle,
                radius_scale,
                height_offset,
            } => self.rig.camera_at_angle(
                *angle,
                *radius_scale,
                *height_offset,
                self.fov_y_deg,
                w,
                h,
            ),
        };
        Ok(cam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SceneConfig, ScenePreset};
    use gcc_render::Roi;

    fn scene() -> Scene {
        ScenePreset::Lego.build(&SceneConfig::with_scale(0.02))
    }

    #[test]
    fn trajectory_spec_matches_the_legacy_camera_path() {
        let scene = scene();
        for t in [0.0f32, 0.25, 0.99, 1.0] {
            let cam = scene
                .resolve_view(&ViewSpec::trajectory(t), &RenderOptions::default())
                .unwrap();
            assert_eq!(cam, scene.camera(t), "t = {t}");
        }
    }

    #[test]
    fn trajectory_validation_rejects_nan_and_out_of_range() {
        assert_eq!(
            ViewSpec::trajectory(f32::NAN).validate(),
            Err(ViewError::NonFinite { field: "t" })
        );
        assert_eq!(
            ViewSpec::trajectory(1.5).validate(),
            Err(ViewError::TrajectoryOutOfRange { t: 1.5 })
        );
        assert_eq!(
            ViewSpec::trajectory(-0.1).validate(),
            Err(ViewError::TrajectoryOutOfRange { t: -0.1 })
        );
        assert!(ViewSpec::trajectory(1.0).validate().is_ok());
    }

    #[test]
    fn look_at_resolves_with_scene_and_override_fov() {
        let scene = scene();
        let spec = ViewSpec::look_at(Vec3::new(0.0, 1.0, -4.0), Vec3::ZERO);
        let cam = scene
            .resolve_view(&spec, &RenderOptions::default())
            .unwrap();
        assert_eq!(cam.width, scene.resolution.0);
        assert_eq!(cam.position, Vec3::new(0.0, 1.0, -4.0));
        let narrow = ViewSpec::LookAt {
            eye: Vec3::new(0.0, 1.0, -4.0),
            target: Vec3::ZERO,
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_y_deg: Some(30.0),
        };
        let ncam = scene
            .resolve_view(&narrow, &RenderOptions::default())
            .unwrap();
        assert!(ncam.fy > cam.fy, "narrower fov means longer focal length");
    }

    #[test]
    fn look_at_validation_rejects_degenerate_poses() {
        let eye = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(
            ViewSpec::look_at(eye, eye).validate(),
            Err(ViewError::DegeneratePose)
        );
        let zero_up = ViewSpec::LookAt {
            eye,
            target: Vec3::ZERO,
            up: Vec3::ZERO,
            fov_y_deg: None,
        };
        assert_eq!(zero_up.validate(), Err(ViewError::DegeneratePose));
        let bad_fov = ViewSpec::LookAt {
            eye,
            target: Vec3::ZERO,
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_y_deg: Some(180.0),
        };
        assert_eq!(
            bad_fov.validate(),
            Err(ViewError::FovOutOfRange { fov_y_deg: 180.0 })
        );
        let nan_eye = ViewSpec::look_at(Vec3::new(f32::NAN, 0.0, 0.0), Vec3::ZERO);
        assert_eq!(
            nan_eye.validate(),
            Err(ViewError::NonFinite { field: "eye" })
        );
    }

    #[test]
    fn orbit_spec_sits_on_the_scaled_rig_circle() {
        let scene = scene();
        let spec = ViewSpec::Orbit {
            angle: 1.0,
            radius_scale: 2.0,
            height_offset: 0.5,
        };
        let cam = scene
            .resolve_view(&spec, &RenderOptions::default())
            .unwrap();
        let center = scene.rig.center;
        let d = cam.position - center;
        let planar = (d.x * d.x + d.z * d.z).sqrt();
        assert!(
            (planar - 2.0 * scene.rig.radius).abs() < 1e-3,
            "planar distance {planar} vs scaled radius {}",
            2.0 * scene.rig.radius
        );
        assert!((d.y - (scene.rig.height + 0.5)).abs() < 1e-4);
        assert_eq!(
            ViewSpec::Orbit {
                angle: 0.0,
                radius_scale: 0.0,
                height_offset: 0.0
            }
            .validate(),
            Err(ViewError::RadiusScaleOutOfRange { scale: 0.0 })
        );
    }

    #[test]
    fn orbit_angle_zero_matches_trajectory_start() {
        let scene = scene();
        let orbit = scene
            .resolve_view(&ViewSpec::orbit(0.0), &RenderOptions::default())
            .unwrap();
        let traj = scene
            .resolve_view(&ViewSpec::trajectory(0.0), &RenderOptions::default())
            .unwrap();
        assert!((orbit.position - traj.position).norm() < 1e-4);
    }

    #[test]
    fn resolution_override_and_roi_bounds_flow_through() {
        let scene = scene();
        let opts = RenderOptions::default().at_resolution(96, 64);
        let cam = scene
            .resolve_view(&ViewSpec::trajectory(0.3), &opts)
            .unwrap();
        assert_eq!((cam.width, cam.height), (96, 64));
        // ROI valid at the override resolution, invalid at a smaller one.
        let ok = opts.clone().with_roi(Roi::new(64, 32, 32, 32));
        assert!(scene.resolve_view(&ViewSpec::trajectory(0.3), &ok).is_ok());
        let bad = RenderOptions::default()
            .at_resolution(32, 32)
            .with_roi(Roi::new(16, 16, 32, 32));
        match scene.resolve_view(&ViewSpec::trajectory(0.3), &bad) {
            Err(ViewError::Options(gcc_render::JobError::RoiOutOfBounds { .. })) => {}
            other => panic!("expected ROI bounds error, got {other:?}"),
        }
        // Zero-sized ROI is typed too.
        let empty = RenderOptions::default().with_roi(Roi::new(0, 0, 0, 0));
        assert_eq!(
            scene.resolve_view(&ViewSpec::trajectory(0.3), &empty),
            Err(ViewError::Options(gcc_render::JobError::EmptyRoi))
        );
    }
}
