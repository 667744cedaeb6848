//! Pinhole camera model in the 3DGS convention: camera-space `+z` is the
//! viewing direction, so view-space depth is simply `z′` (paper Stage I).

use gcc_math::{Mat4, Vec2, Vec3};

/// A posed pinhole camera with pixel-space intrinsics.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    /// World → camera rigid transform (rotation block `W` + translation).
    pub view: Mat4,
    /// World-space camera center (used for SH view directions).
    pub position: Vec3,
    /// Focal length in pixels, horizontal.
    pub fx: f32,
    /// Focal length in pixels, vertical.
    pub fy: f32,
    /// Principal point, horizontal.
    pub cx: f32,
    /// Principal point, vertical.
    pub cy: f32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// EWA guard-band limit on `x/z` (1.3× the full-frustum half-extent).
    /// Stored explicitly so Compatibility-Mode sub-views keep the full
    /// camera's frustum: the Jacobian clamp must not shrink with the
    /// window, or off-center sub-views would distort every covariance.
    pub lim_x: f32,
    /// EWA guard-band limit on `y/z` (see [`Camera::lim_x`]).
    pub lim_y: f32,
}

impl Camera {
    /// Builds a camera at `eye` looking at `target` with vertical field of
    /// view `fov_y_deg` (degrees) and the given image size.
    ///
    /// # Panics
    ///
    /// Panics if `width`/`height` are zero or the field of view is not in
    /// `(0, 180)`.
    pub fn look_at(
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        fov_y_deg: f32,
        width: u32,
        height: u32,
    ) -> Self {
        assert!(width > 0 && height > 0, "degenerate image size");
        assert!(
            fov_y_deg > 0.0 && fov_y_deg < 180.0,
            "field of view {fov_y_deg} out of range"
        );
        let view = Mat4::look_at(eye, target, up);
        let fov_y = fov_y_deg.to_radians();
        let (sin, cos) = gcc_math::det_sin_cos(fov_y * 0.5);
        let fy = height as f32 / (2.0 * (sin / cos));
        let fx = fy; // square pixels
        Self {
            view,
            position: eye,
            fx,
            fy,
            cx: width as f32 * 0.5,
            cy: height as f32 * 0.5,
            width,
            height,
            lim_x: 1.3 * (width as f32 * 0.5) / fx,
            lim_y: 1.3 * (height as f32 * 0.5) / fy,
        }
    }

    /// Total pixels in the image.
    pub fn pixel_count(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Transforms a world point into camera space; its `z` component is the
    /// view-space depth `d` used by Stage I grouping.
    pub fn to_camera(&self, p: Vec3) -> Vec3 {
        self.view.transform_point(p)
    }

    /// View-space depth of a world point (the Stage I `d` value).
    pub fn view_depth(&self, p: Vec3) -> f32 {
        let r = &self.view.m[2];
        r[0] * p.x + r[1] * p.y + r[2] * p.z + r[3]
    }

    /// Projects a camera-space point to pixel coordinates.
    /// Returns `None` behind (or extremely close to) the camera plane.
    pub fn cam_to_pixel(&self, pc: Vec3) -> Option<Vec2> {
        if pc.z < 1e-6 {
            return None;
        }
        Some(Vec2::new(
            self.fx * pc.x / pc.z + self.cx,
            self.fy * pc.y / pc.z + self.cy,
        ))
    }

    /// Projects a world point to pixel coordinates plus depth.
    pub fn project_point(&self, p: Vec3) -> Option<(Vec2, f32)> {
        let pc = self.to_camera(p);
        self.cam_to_pixel(pc).map(|px| (px, pc.z))
    }

    /// Unit direction from the camera center toward world point `p`
    /// (the SH evaluation direction of paper Eq. 2).
    pub fn view_dir(&self, p: Vec3) -> Vec3 {
        let d = p - self.position;
        if d.norm_sq() < 1e-18 {
            Vec3::new(0.0, 0.0, 1.0)
        } else {
            d.normalized()
        }
    }

    /// `true` when pixel coordinates fall inside the image.
    pub fn in_bounds(&self, px: Vec2) -> bool {
        px.x >= 0.0 && px.y >= 0.0 && px.x < self.width as f32 && px.y < self.height as f32
    }

    /// Half-extent of the visible frustum at unit depth, with the 1.3×
    /// guard band the 3DGS rasterizer uses to keep the EWA Jacobian
    /// stable. Sub-view cameras report the *full* camera's limits.
    pub fn frustum_limits(&self) -> (f32, f32) {
        (self.lim_x, self.lim_y)
    }

    /// Returns a copy of the camera restricted to a sub-view window
    /// (Compatibility Mode, paper §4.6): same pose and focal lengths, but
    /// the principal point shifted so the window `(x0, y0, w, h)` of the
    /// full image becomes the whole image of the sub-camera.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or exceeds the full image.
    pub fn sub_view(&self, x0: u32, y0: u32, w: u32, h: u32) -> Self {
        assert!(w > 0 && h > 0, "empty sub-view");
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "sub-view ({x0},{y0},{w},{h}) exceeds {}x{}",
            self.width,
            self.height
        );
        let mut cam = self.clone();
        cam.cx = self.cx - x0 as f32;
        cam.cy = self.cy - y0 as f32;
        cam.width = w;
        cam.height = h;
        cam
    }
}

#[cfg(test)]
// Reference value: libm `tan`.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use gcc_math::approx_eq;

    fn test_cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            640,
            360,
        )
    }

    #[test]
    fn target_projects_to_image_center() {
        let cam = test_cam();
        let (px, depth) = cam.project_point(Vec3::ZERO).unwrap();
        assert!(approx_eq(px.x, 320.0, 1e-3));
        assert!(approx_eq(px.y, 180.0, 1e-3));
        assert!(approx_eq(depth, 5.0, 1e-4));
    }

    #[test]
    fn view_depth_matches_camera_space_z() {
        let cam = test_cam();
        for p in [
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-0.5, 0.2, -1.0),
            Vec3::ZERO,
        ] {
            assert!(approx_eq(cam.view_depth(p), cam.to_camera(p).z, 1e-5));
        }
    }

    #[test]
    fn points_behind_camera_do_not_project() {
        let cam = test_cam();
        assert!(cam.project_point(Vec3::new(0.0, 0.0, -10.0)).is_none());
    }

    #[test]
    fn fov_controls_focal_length() {
        let cam = test_cam();
        // fy = (h/2) / tan(30°)
        let expect = 180.0 / (30.0f32).to_radians().tan();
        assert!(approx_eq(cam.fy, expect, 1e-3));
    }

    #[test]
    fn view_dir_is_unit_and_points_at_target() {
        let cam = test_cam();
        let d = cam.view_dir(Vec3::ZERO);
        assert!(approx_eq(d.norm(), 1.0, 1e-5));
        // Camera at -5z looking at origin: direction is +z.
        assert!(approx_eq(d.z, 1.0, 1e-5));
    }

    #[test]
    fn in_bounds_edges() {
        let cam = test_cam();
        assert!(cam.in_bounds(Vec2::new(0.0, 0.0)));
        assert!(cam.in_bounds(Vec2::new(639.9, 359.9)));
        assert!(!cam.in_bounds(Vec2::new(640.0, 100.0)));
        assert!(!cam.in_bounds(Vec2::new(-0.1, 100.0)));
    }

    #[test]
    fn sub_view_projects_consistently() {
        let cam = test_cam();
        let sub = cam.sub_view(128, 64, 128, 128);
        let p = Vec3::new(0.3, 0.2, 0.0);
        let (full_px, d_full) = cam.project_point(p).unwrap();
        let (sub_px, d_sub) = sub.project_point(p).unwrap();
        assert!(approx_eq(sub_px.x, full_px.x - 128.0, 1e-4));
        assert!(approx_eq(sub_px.y, full_px.y - 64.0, 1e-4));
        assert!(approx_eq(d_full, d_sub, 1e-6));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_sub_view_panics() {
        let _ = test_cam().sub_view(600, 0, 128, 128);
    }

    #[test]
    fn off_center_point_projects_to_expected_quadrant() {
        let cam = test_cam();
        // A point up and to the right in camera space (camera looks +z;
        // +x is world -x here because the camera flips handedness via up).
        let pc = Vec3::new(1.0, -1.0, 5.0);
        let px = cam.cam_to_pixel(pc).unwrap();
        assert!(px.x > cam.cx);
        assert!(px.y < cam.cy);
    }
}
