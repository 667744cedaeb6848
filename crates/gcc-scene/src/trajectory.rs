//! Camera rigs: deterministic trajectories around / inside a scene.

use gcc_core::Camera;
use gcc_math::Vec3;

/// A circular orbit (object scenes) or inside-out pan (scans): the eye
/// moves on a circle of `radius` at height `height` around `center`,
/// always looking at `look_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitRig {
    /// Orbit center.
    pub center: Vec3,
    /// Point the camera looks at.
    pub look_at: Vec3,
    /// Orbit radius.
    pub radius: f32,
    /// Eye height above the center.
    pub height: f32,
    /// Fraction of a full circle the orbit spans (1.0 = 360°; scans use
    /// less so the camera keeps facing the reconstructed sector).
    pub arc: f32,
    /// Start angle in radians (the default evaluation viewpoint).
    pub phase: f32,
}

impl OrbitRig {
    /// Camera at parameter `t ∈ [0, 1)`.
    pub fn camera(&self, t: f32, fov_y_deg: f32, width: u32, height: u32) -> Camera {
        self.camera_at_angle(
            t * self.arc * std::f32::consts::TAU,
            1.0,
            0.0,
            fov_y_deg,
            width,
            height,
        )
    }

    /// Camera at an absolute orbit `angle` (radians past [`Self::phase`]),
    /// with the radius scaled by `radius_scale` and the eye height shifted
    /// by `height_offset` — the resolution target of
    /// [`ViewSpec::Orbit`](crate::ViewSpec::Orbit). `camera_at_angle(t ·
    /// arc · τ, 1.0, 0.0, …)` is exactly [`Self::camera`] at `t`.
    pub fn camera_at_angle(
        &self,
        angle: f32,
        radius_scale: f32,
        height_offset: f32,
        fov_y_deg: f32,
        width: u32,
        height: u32,
    ) -> Camera {
        let (sin, cos) = gcc_math::det_sin_cos(self.phase + angle);
        let eye = self.center
            + Vec3::new(
                self.radius * radius_scale * cos,
                self.height + height_offset,
                self.radius * radius_scale * sin,
            );
        Camera::look_at(
            eye,
            self.look_at,
            Vec3::new(0.0, 1.0, 0.0),
            fov_y_deg,
            width,
            height,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> OrbitRig {
        OrbitRig {
            center: Vec3::ZERO,
            look_at: Vec3::ZERO,
            radius: 5.0,
            height: 1.0,
            arc: 1.0,
            phase: 0.0,
        }
    }

    #[test]
    fn orbit_keeps_distance() {
        let r = rig();
        for i in 0..8 {
            let cam = r.camera(i as f32 / 8.0, 60.0, 640, 360);
            let d = (cam.position - Vec3::new(0.0, 1.0, 0.0)).norm();
            assert!((d - 5.0).abs() < 1e-3, "distance {d} at step {i}");
        }
    }

    #[test]
    fn orbit_always_faces_target() {
        let r = rig();
        for i in 0..8 {
            let cam = r.camera(i as f32 / 8.0, 60.0, 640, 360);
            // The look-at target should sit at the image center.
            let (px, depth) = cam.project_point(Vec3::ZERO).unwrap();
            assert!(depth > 0.0);
            assert!((px.x - 320.0).abs() < 1e-2);
            assert!((px.y - 180.0).abs() < 1e-2);
        }
    }

    #[test]
    fn partial_arc_restricts_sweep() {
        let mut r = rig();
        r.arc = 0.25;
        let a = r.camera(0.0, 60.0, 64, 64).position;
        let b = r.camera(0.9999, 60.0, 64, 64).position;
        // Quarter arc: endpoints are ~90° apart on the circle.
        let cos = (a - Vec3::new(0.0, 1.0, 0.0))
            .normalized()
            .dot((b - Vec3::new(0.0, 1.0, 0.0)).normalized());
        assert!(cos.abs() < 0.1, "cos {cos}");
    }
}
