//! The 3DGS Gaussian primitive: 59 floating-point parameters per point
//! (paper §2.2, Challenge 1 — "each 3D Gaussian is represented by 59
//! floating-point parameters, among which 48 out of 59 are SH
//! coefficients").

use crate::sh;
use gcc_math::{Quat, Vec3};

/// SH coefficients per color channel (third-order real SH: (3+1)² = 16).
pub const SH_COEFFS_PER_CHANNEL: usize = 16;

/// Total SH floats per Gaussian (three channels × 16).
pub const SH_FLOATS: usize = 3 * SH_COEFFS_PER_CHANNEL;

/// Total floats per Gaussian: μ(3) + s(3) + q(4) + lnω(1) + SH(48) = 59.
pub const PARAM_FLOATS: usize = 3 + 3 + 4 + 1 + SH_FLOATS;

/// One trained 3D Gaussian.
///
/// The opacity is stored in log-space (`ln ω`) exactly as the GCC Screen
/// Culling Unit consumes it: "the opacity ω is computed offline in
/// log-space … and the Alpha Unit directly consumes the log-space ω values"
/// (paper §4.3).
///
/// SH coefficients are channel-major: `sh[c * 16 + k]` is coefficient `k`
/// of channel `c` (0 = R, 1 = G, 2 = B).
#[derive(Debug, Clone, PartialEq)]
pub struct Gaussian3D {
    /// World-space mean position μ.
    pub mean: Vec3,
    /// Per-axis standard deviations s (linear scale, not log).
    pub scale: Vec3,
    /// Rotation quaternion q (normalized on use).
    pub rot: Quat,
    /// Log-space opacity `ln ω` with `ω ∈ (0, 1]`.
    pub ln_opacity: f32,
    /// 48 spherical-harmonics coefficients, channel-major.
    pub sh: [f32; SH_FLOATS],
}

impl Default for Gaussian3D {
    fn default() -> Self {
        Self {
            mean: Vec3::ZERO,
            scale: Vec3::splat(1.0),
            rot: Quat::IDENTITY,
            ln_opacity: 0.0,
            sh: [0.0; SH_FLOATS],
        }
    }
}

impl Gaussian3D {
    /// Builds a Gaussian from linear opacity.
    ///
    /// # Panics
    ///
    /// Panics if `opacity` is not in `(0, 1]`.
    pub fn new(mean: Vec3, scale: Vec3, rot: Quat, opacity: f32, sh: [f32; SH_FLOATS]) -> Self {
        assert!(
            opacity > 0.0 && opacity <= 1.0,
            "opacity {opacity} outside (0, 1]"
        );
        Self {
            mean,
            scale,
            rot,
            ln_opacity: gcc_math::det_ln(opacity),
            sh,
        }
    }

    /// Convenience constructor: an isotropic Gaussian with a flat
    /// (view-independent) base color, handy in tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `opacity` is not in `(0, 1]`.
    pub fn isotropic(mean: Vec3, radius: f32, opacity: f32, base_rgb: Vec3) -> Self {
        let mut sh = [0.0f32; SH_FLOATS];
        for (c, v) in [base_rgb.x, base_rgb.y, base_rgb.z].into_iter().enumerate() {
            // Invert the DC term of Eq. 2 so the rendered color equals
            // `base_rgb` from every direction: color = C0·sh0 + 0.5.
            sh[c * SH_COEFFS_PER_CHANNEL] = (v - 0.5) / sh::SH_C0;
        }
        Self::new(mean, Vec3::splat(radius), Quat::IDENTITY, opacity, sh)
    }

    /// Linear opacity ω, through [`gcc_math::det_exp`]. `ln ω` is first
    /// clamped to `±88`, the range that exponential's exponent scale
    /// takes: ω flushes to `0` below the normal `f32` range.
    pub fn opacity(&self) -> f32 {
        gcc_math::det_exp(self.ln_opacity.clamp(-88.0, 88.0))
    }

    /// SH coefficients of one color channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel > 2`.
    pub fn sh_channel(&self, channel: usize) -> &[f32] {
        assert!(channel < 3, "channel {channel} out of range");
        &self.sh[channel * SH_COEFFS_PER_CHANNEL..(channel + 1) * SH_COEFFS_PER_CHANNEL]
    }

    /// Flattens to the 59-float wire format the accelerators stream from
    /// DRAM: `[μ(3) | s(3) | q(4) | lnω(1) | sh(48)]`.
    pub fn to_floats(&self) -> [f32; PARAM_FLOATS] {
        let mut out = [0.0f32; PARAM_FLOATS];
        out[0..3].copy_from_slice(&self.mean.to_array());
        out[3..6].copy_from_slice(&self.scale.to_array());
        out[6..10].copy_from_slice(&self.rot.to_array());
        out[10] = self.ln_opacity;
        out[11..].copy_from_slice(&self.sh);
        out
    }

    /// Parses the 59-float wire format produced by [`Self::to_floats`].
    pub fn from_floats(f: &[f32; PARAM_FLOATS]) -> Self {
        let mut sh = [0.0f32; SH_FLOATS];
        sh.copy_from_slice(&f[11..]);
        Self {
            mean: Vec3::new(f[0], f[1], f[2]),
            scale: Vec3::new(f[3], f[4], f[5]),
            rot: Quat::new(f[6], f[7], f[8], f[9]),
            ln_opacity: f[10],
            sh,
        }
    }

    /// Bytes occupied by the non-SH ("geometry") parameters in FP32:
    /// μ + s + q + lnω = 11 floats. This is what GCC's conditional loading
    /// fetches before it knows whether the Gaussian will be rendered.
    pub const GEOMETRY_BYTES: usize = 11 * 4;

    /// Bytes occupied by the SH block in FP32 (48 floats) — deferred by
    /// GCC's cross-stage conditional loading until the Gaussian is known
    /// to contribute.
    pub const SH_BYTES: usize = SH_FLOATS * 4;

    /// Total FP32 bytes per Gaussian (59 × 4 = 236).
    pub const TOTAL_BYTES: usize = PARAM_FLOATS * 4;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::approx_eq;

    #[test]
    fn param_count_is_59() {
        assert_eq!(PARAM_FLOATS, 59);
        assert_eq!(Gaussian3D::TOTAL_BYTES, 236);
        assert_eq!(Gaussian3D::GEOMETRY_BYTES + Gaussian3D::SH_BYTES, 236);
    }

    #[test]
    fn sh_fraction_matches_papers_81_percent() {
        // "a staggering 81.4% (48 out of 59) of the SH coefficients remain
        // unused before alpha-blending begins".
        let frac = SH_FLOATS as f32 / PARAM_FLOATS as f32;
        assert!((frac - 0.814).abs() < 0.001, "SH fraction {frac}");
    }

    #[test]
    fn opacity_round_trip() {
        let g = Gaussian3D::new(
            Vec3::ZERO,
            Vec3::splat(1.0),
            Quat::IDENTITY,
            0.37,
            [0.0; SH_FLOATS],
        );
        assert!(approx_eq(g.opacity(), 0.37, 1e-5));
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_opacity_rejected() {
        let _ = Gaussian3D::new(
            Vec3::ZERO,
            Vec3::splat(1.0),
            Quat::IDENTITY,
            0.0,
            [0.0; SH_FLOATS],
        );
    }

    #[test]
    fn float_round_trip_preserves_everything() {
        let mut sh = [0.0f32; SH_FLOATS];
        for (i, v) in sh.iter_mut().enumerate() {
            *v = i as f32 * 0.01 - 0.2;
        }
        let g = Gaussian3D::new(
            Vec3::new(1.0, -2.0, 3.0),
            Vec3::new(0.1, 0.2, 0.3),
            Quat::new(0.5, 0.5, 0.5, 0.5),
            0.8,
            sh,
        );
        let back = Gaussian3D::from_floats(&g.to_floats());
        assert_eq!(g, back);
    }

    #[test]
    fn isotropic_base_color_is_recovered_by_sh_eval() {
        let g = Gaussian3D::isotropic(Vec3::ZERO, 0.5, 0.9, Vec3::new(0.7, 0.3, 0.1));
        let dir = Vec3::new(0.0, 0.0, 1.0);
        let rgb = crate::sh::eval_color(&g.sh, dir);
        assert!(approx_eq(rgb.x, 0.7, 1e-5));
        assert!(approx_eq(rgb.y, 0.3, 1e-5));
        assert!(approx_eq(rgb.z, 0.1, 1e-5));
    }

    #[test]
    fn sh_channel_slices_are_disjoint() {
        let mut g = Gaussian3D::default();
        g.sh[0] = 1.0; // R, coeff 0
        g.sh[16] = 2.0; // G, coeff 0
        g.sh[32] = 3.0; // B, coeff 0
        assert_eq!(g.sh_channel(0)[0], 1.0);
        assert_eq!(g.sh_channel(1)[0], 2.0);
        assert_eq!(g.sh_channel(2)[0], 3.0);
    }
}
