//! The EWA projection chain (paper Eq. 1 and §3 Stage II):
//! Σ = R S Sᵀ Rᵀ reconstructed from scale + quaternion, then
//! Σ′ = J W Σ Wᵀ Jᵀ projected through the view rotation `W` and the local
//! affine Jacobian `J` of the perspective mapping.

use crate::bounds::{bounding_radius, BoundingLaw};
use crate::{Camera, Gaussian3D};
use gcc_math::{Mat3, SymMat2, Vec2, Vec3};

/// Screen-space dilation added to the projected covariance diagonal — the
/// low-pass filter of the 3DGS rasterizer ensuring every splat covers at
/// least a pixel.
pub const COV2D_DILATION: f32 = 0.3;

/// A Gaussian that survived projection: everything the rendering stages
/// need (paper Fig. 3's Stage II/III outputs — μ′ 2 floats, Σ′ 3 floats,
/// plus depth, color and opacity).
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedGaussian {
    /// Index of the source Gaussian in its scene.
    pub id: u32,
    /// Projected center μ′ in pixel coordinates.
    pub mean2d: Vec2,
    /// Screen-space covariance Σ′ (3 floats).
    pub cov2d: SymMat2,
    /// Conic Σ′⁻¹ consumed by the Alpha Unit.
    pub conic: SymMat2,
    /// View-space depth `d` (Stage I key).
    pub depth: f32,
    /// Linear opacity ω.
    pub opacity: f32,
    /// Log-space opacity lnω (Alpha Unit input).
    pub ln_opacity: f32,
    /// Bounding radius in pixels under the law used at projection time.
    pub radius: f32,
    /// RGB color from SH evaluation (Stage III); zero until color mapping.
    pub color: Vec3,
}

/// Reconstructs the world-space covariance Σ = (R·S)(R·S)ᵀ — the
/// Reconstruction Unit's job (paper §4.3).
pub fn covariance3d(scale: Vec3, rot: gcc_math::Quat) -> Mat3 {
    let m = rot.to_mat3() * Mat3::from_diagonal(scale);
    m * m.transposed()
}

/// The EWA perspective Jacobian at camera-space position `pc`
/// (paper Fig. 8(c)'s "Jacobian Reconstruction"). The `x/z`, `y/z` terms
/// are clamped to the 1.3× frustum guard band for numerical stability,
/// mirroring the reference rasterizer.
pub fn ewa_jacobian(cam: &Camera, pc: Vec3) -> Mat3 {
    let (lim_x, lim_y) = cam.frustum_limits();
    let inv_z = 1.0 / pc.z;
    let tx = (pc.x * inv_z).clamp(-lim_x, lim_x) * pc.z;
    let ty = (pc.y * inv_z).clamp(-lim_y, lim_y) * pc.z;
    Mat3::from_rows(
        [cam.fx * inv_z, 0.0, -cam.fx * tx * inv_z * inv_z],
        [0.0, cam.fy * inv_z, -cam.fy * ty * inv_z * inv_z],
        [0.0, 0.0, 0.0],
    )
}

/// Projects a world-space covariance to the dilated screen-space Σ′.
pub fn project_covariance(cam: &Camera, cov3d: Mat3, pc: Vec3) -> SymMat2 {
    let j = ewa_jacobian(cam, pc);
    let w = cam.view.upper_left_3x3();
    let t = j * w;
    let cov = t * cov3d * t.transposed();
    SymMat2::from_mat2(cov.upper_left_2x2()).dilated(COV2D_DILATION)
}

/// Full Stage II projection of one Gaussian: position projection (PPU),
/// shape reconstruction + projection (RU + shared MVM), and screen culling
/// (SCU).
///
/// Returns `None` when the Gaussian is culled:
/// * behind the near plane (`depth < NEAR_DEPTH`),
/// * its footprint (under `law`) does not intersect the screen,
/// * its ω-σ envelope is empty (`ω ≤ 1/255` under [`BoundingLaw::OmegaSigma`]),
/// * its projected covariance is not positive definite.
///
/// The returned Gaussian's `color` is zero — Stage III fills it in.
pub fn project_gaussian(
    g: &Gaussian3D,
    id: u32,
    cam: &Camera,
    law: BoundingLaw,
) -> Option<ProjectedGaussian> {
    let pc = cam.to_camera(g.mean);
    if pc.z < crate::NEAR_DEPTH {
        return None;
    }
    let mean2d = cam.cam_to_pixel(pc)?;
    let cov2d = project_covariance(cam, covariance3d(g.scale, g.rot), pc);
    if !cov2d.is_positive_definite() {
        return None;
    }
    let conic = cov2d.inverse()?;
    let (l1, _) = cov2d.eigenvalues();
    let radius = bounding_radius(law, l1, g.ln_opacity);
    if radius <= 0.0 {
        return None;
    }
    // Screen culling: the circumscribing circle must touch the image.
    if mean2d.x + radius < 0.0
        || mean2d.y + radius < 0.0
        || mean2d.x - radius >= cam.width as f32
        || mean2d.y - radius >= cam.height as f32
    {
        return None;
    }
    Some(ProjectedGaussian {
        id,
        mean2d,
        cov2d,
        conic,
        depth: pc.z,
        opacity: g.opacity(),
        ln_opacity: g.ln_opacity,
        radius,
        color: Vec3::ZERO,
    })
}

/// Stage III color mapping: evaluates SH for the view direction toward the
/// Gaussian center and writes the RGB color into the projection record.
pub fn map_color(p: &mut ProjectedGaussian, g: &Gaussian3D, cam: &Camera) {
    p.color = crate::sh::eval_color(&g.sh, cam.view_dir(g.mean));
}

/// [`map_color`] with the SH evaluation truncated to bands `l ≤ degree`
/// ([`crate::sh::eval_color_deg`]) — the per-request SH degree clamp.
/// `degree = 3` is bit-identical to [`map_color`].
pub fn map_color_deg(p: &mut ProjectedGaussian, g: &Gaussian3D, cam: &Camera, degree: u8) {
    p.color = crate::sh::eval_color_deg(&g.sh, cam.view_dir(g.mean), degree);
}

/// FMA cost of one position+shape projection in the cycle model
/// (view transform, quaternion expansion, two 3×3 covariance products,
/// Jacobian application, conic inversion).
pub const FMA_PER_PROJECTION: u64 = 12 + 18 + 54 + 54 + 30;

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::{approx_eq, Quat};

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
    fn covariance3d_of_unit_sphere_is_identity() {
        let cov = covariance3d(Vec3::splat(1.0), Quat::IDENTITY);
        assert!((cov - Mat3::IDENTITY).frob_norm() < 1e-5);
    }

    #[test]
    fn covariance3d_is_rotation_invariant_for_isotropic_scale() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 2.0, 3.0), 0.7);
        let cov = covariance3d(Vec3::splat(2.0), q);
        assert!((cov - Mat3::from_diagonal(Vec3::splat(4.0))).frob_norm() < 1e-4);
    }

    #[test]
    fn covariance3d_diagonal_squares_scales() {
        let cov = covariance3d(Vec3::new(1.0, 2.0, 3.0), Quat::IDENTITY);
        assert!(approx_eq(cov.m[0][0], 1.0, 1e-5));
        assert!(approx_eq(cov.m[1][1], 4.0, 1e-5));
        assert!(approx_eq(cov.m[2][2], 9.0, 1e-5));
    }

    #[test]
    fn projected_center_gaussian_is_visible_and_centered() {
        let cam = test_cam();
        let g = Gaussian3D::isotropic(Vec3::ZERO, 0.1, 0.9, Vec3::splat(0.5));
        let p = project_gaussian(&g, 7, &cam, BoundingLaw::ThreeSigma).unwrap();
        assert_eq!(p.id, 7);
        assert!(approx_eq(p.mean2d.x, 320.0, 0.01));
        assert!(approx_eq(p.mean2d.y, 180.0, 0.01));
        assert!(approx_eq(p.depth, 5.0, 1e-3));
        assert!(p.cov2d.is_positive_definite());
    }

    #[test]
    fn projected_size_scales_with_inverse_depth() {
        // A Gaussian twice as far should have about half the radius.
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -10.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            640,
            360,
        );
        let near = Gaussian3D::isotropic(Vec3::new(0.0, 0.0, -5.0), 0.2, 0.9, Vec3::splat(0.5));
        let far = Gaussian3D::isotropic(Vec3::new(0.0, 0.0, 10.0), 0.2, 0.9, Vec3::splat(0.5));
        let pn = project_gaussian(&near, 0, &cam, BoundingLaw::ThreeSigma).unwrap();
        let pf = project_gaussian(&far, 1, &cam, BoundingLaw::ThreeSigma).unwrap();
        let ratio = pn.radius / pf.radius;
        assert!(
            ratio > 2.5 && ratio < 6.0,
            "near/far radius ratio {ratio} (near {} far {})",
            pn.radius,
            pf.radius
        );
    }

    #[test]
    fn behind_camera_is_culled() {
        let cam = test_cam();
        let g = Gaussian3D::isotropic(Vec3::new(0.0, 0.0, -20.0), 0.1, 0.9, Vec3::splat(0.5));
        assert!(project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).is_none());
    }

    #[test]
    fn near_plane_cull_at_0_2() {
        let cam = test_cam();
        // Camera at z=-5 looking +z: depth 0.1 means world z = -4.9.
        let g = Gaussian3D::isotropic(Vec3::new(0.0, 0.0, -4.9), 0.01, 0.9, Vec3::splat(0.5));
        assert!(project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).is_none());
        let g2 = Gaussian3D::isotropic(Vec3::new(0.0, 0.0, -4.7), 0.01, 0.9, Vec3::splat(0.5));
        assert!(project_gaussian(&g2, 0, &cam, BoundingLaw::ThreeSigma).is_some());
    }

    #[test]
    fn off_screen_gaussian_is_culled() {
        let cam = test_cam();
        // Far off to the side at modest depth: projects way outside.
        let g = Gaussian3D::isotropic(Vec3::new(100.0, 0.0, 0.0), 0.1, 0.9, Vec3::splat(0.5));
        assert!(project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).is_none());
    }

    #[test]
    fn omega_sigma_culls_faint_gaussians_three_sigma_keeps_them() {
        let cam = test_cam();
        let g = Gaussian3D::isotropic(Vec3::ZERO, 0.1, 0.0038, Vec3::splat(0.5));
        assert!(project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).is_some());
        assert!(project_gaussian(&g, 0, &cam, BoundingLaw::OmegaSigma).is_none());
    }

    #[test]
    fn conic_is_inverse_of_cov2d() {
        let cam = test_cam();
        let g = Gaussian3D::isotropic(Vec3::new(0.5, 0.2, 0.0), 0.3, 0.8, Vec3::splat(0.5));
        let p = project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).unwrap();
        let prod = p.cov2d.to_mat2() * p.conic.to_mat2();
        assert!(approx_eq(prod.m[0][0], 1.0, 1e-3));
        assert!(approx_eq(prod.m[1][1], 1.0, 1e-3));
    }

    #[test]
    fn dilation_keeps_tiny_gaussians_visible() {
        let cam = test_cam();
        // Microscopic world-space footprint still produces a ≥1px splat.
        let g = Gaussian3D::isotropic(Vec3::ZERO, 1e-4, 0.9, Vec3::splat(0.5));
        let p = project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).unwrap();
        assert!(p.radius >= 1.0);
    }

    #[test]
    fn map_color_fills_color_from_sh() {
        let cam = test_cam();
        let g = Gaussian3D::isotropic(Vec3::ZERO, 0.1, 0.9, Vec3::new(0.9, 0.1, 0.3));
        let mut p = project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).unwrap();
        assert_eq!(p.color, Vec3::ZERO);
        map_color(&mut p, &g, &cam);
        assert!(approx_eq(p.color.x, 0.9, 1e-4));
        assert!(approx_eq(p.color.y, 0.1, 1e-4));
        assert!(approx_eq(p.color.z, 0.3, 1e-4));
    }

    #[test]
    fn anisotropic_gaussian_has_anisotropic_cov2d() {
        let cam = test_cam();
        let g = Gaussian3D::new(
            Vec3::ZERO,
            Vec3::new(1.0, 0.05, 0.05),
            Quat::IDENTITY,
            0.9,
            [0.0; 48],
        );
        let p = project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma).unwrap();
        let (l1, l2) = p.cov2d.eigenvalues();
        assert!(l1 / l2 > 10.0, "expected strong anisotropy, got {l1}/{l2}");
    }
}
