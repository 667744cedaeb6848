//! Third-order real spherical harmonics color evaluation (paper Eq. 2).
//!
//! 3DGS represents view-dependent color with 16 SH coefficients per channel.
//! The GCC SH Unit evaluates the basis once per Gaussian (for the direction
//! from the camera to the Gaussian center) and takes one dot product per
//! channel; this module is the arithmetic it performs.

use crate::gaussian::{SH_COEFFS_PER_CHANNEL, SH_FLOATS};
use gcc_math::Vec3;

/// Degree-0 SH constant (`1 / (2√π)`).
pub const SH_C0: f32 = 0.282_094_79;

/// Degree-1 SH constant.
pub const SH_C1: f32 = 0.488_602_51;

/// Degree-2 SH constants.
pub const SH_C2: [f32; 5] = [
    1.092_548_4,
    -1.092_548_4,
    0.315_391_57,
    -1.092_548_4,
    0.546_274_2,
];

/// Degree-3 SH constants.
pub const SH_C3: [f32; 7] = [
    -0.590_043_6,
    2.890_611_4,
    -0.457_045_8,
    0.373_176_3,
    -0.457_045_8,
    1.445_305_7,
    -0.590_043_6,
];

/// Evaluates the 16 third-order real SH basis functions at unit direction
/// `d`, in the 3DGS coefficient order (l-major, then m).
///
/// # Panics
///
/// Debug builds panic when `d` is far from unit length.
pub fn basis(d: Vec3) -> [f32; SH_COEFFS_PER_CHANNEL] {
    debug_assert!(
        (d.norm() - 1.0).abs() < 1e-3,
        "SH basis expects a unit direction, |d| = {}",
        d.norm()
    );
    let (x, y, z) = (d.x, d.y, d.z);
    let (xx, yy, zz) = (x * x, y * y, z * z);
    let (xy, yz, xz) = (x * y, y * z, x * z);
    [
        SH_C0,
        -SH_C1 * y,
        SH_C1 * z,
        -SH_C1 * x,
        SH_C2[0] * xy,
        SH_C2[1] * yz,
        SH_C2[2] * (2.0 * zz - xx - yy),
        SH_C2[3] * xz,
        SH_C2[4] * (xx - yy),
        SH_C3[0] * y * (3.0 * xx - yy),
        SH_C3[1] * xy * z,
        SH_C3[2] * y * (4.0 * zz - xx - yy),
        SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy),
        SH_C3[4] * x * (4.0 * zz - xx - yy),
        SH_C3[5] * z * (xx - yy),
        SH_C3[6] * x * (xx - 3.0 * yy),
    ]
}

/// Evaluates the RGB color of a Gaussian for view direction `dir`
/// (unit vector from the camera position toward the Gaussian center),
/// reproducing the 3DGS convention `color = Σ c·f + 0.5`, clamped to be
/// non-negative.
pub fn eval_color(sh: &[f32; SH_FLOATS], dir: Vec3) -> Vec3 {
    eval_color_deg(sh, dir, 3)
}

/// [`eval_color`] truncated to SH bands `l ≤ degree`: only the leading
/// `(degree + 1)²` coefficients per channel contribute, in the same
/// accumulation order as the full evaluation — at `degree = 3` the result
/// is bit-identical to [`eval_color`]. Degrees above 3 clamp to 3. This is
/// the arithmetic behind the per-request SH degree clamp quality knob.
pub fn eval_color_deg(sh: &[f32; SH_FLOATS], dir: Vec3, degree: u8) -> Vec3 {
    let b = basis(dir);
    let n =
        ((degree.min(3) as usize + 1) * (degree.min(3) as usize + 1)).min(SH_COEFFS_PER_CHANNEL);
    let mut rgb = [0.0f32; 3];
    for (c, out) in rgb.iter_mut().enumerate() {
        let coeffs = &sh[c * SH_COEFFS_PER_CHANNEL..(c + 1) * SH_COEFFS_PER_CHANNEL];
        let mut acc = 0.0f32;
        for (cf, bf) in coeffs[..n].iter().zip(b.iter()) {
            acc += cf * bf;
        }
        *out = (acc + 0.5).max(0.0);
    }
    Vec3::new(rgb[0], rgb[1], rgb[2])
}

/// Evaluates only the degree-0 (view-independent) color term — what a
/// pipeline would see if it skipped the 45 higher-order coefficients.
/// Used by ablation benches to quantify the value of full SH.
pub fn eval_color_dc(sh: &[f32; SH_FLOATS], _dir: Vec3) -> Vec3 {
    let mut rgb = [0.0f32; 3];
    for (c, out) in rgb.iter_mut().enumerate() {
        *out = (sh[c * SH_COEFFS_PER_CHANNEL] * SH_C0 + 0.5).max(0.0);
    }
    Vec3::new(rgb[0], rgb[1], rgb[2])
}

/// Number of fused multiply-adds one full RGB SH evaluation costs
/// (16 basis dot 3 channels plus basis construction), used by the cycle
/// and energy models.
pub const FMA_PER_EVAL: u64 = 16 * 3 + 24;

#[cfg(test)]
// Test data and the quadrature reference use libm, not the render path.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use gcc_math::approx_eq;

    fn unit(v: Vec3) -> Vec3 {
        v.normalized()
    }

    #[test]
    fn dc_term_is_direction_independent() {
        let mut sh = [0.0f32; SH_FLOATS];
        sh[0] = 1.0;
        sh[16] = -0.5;
        sh[32] = 0.25;
        let a = eval_color(&sh, unit(Vec3::new(1.0, 0.3, -0.2)));
        let b = eval_color(&sh, unit(Vec3::new(-0.7, 0.1, 0.9)));
        assert!((a - b).norm() < 1e-6);
    }

    #[test]
    fn degree1_term_flips_with_direction() {
        let mut sh = [0.0f32; SH_FLOATS];
        sh[2] = 1.0; // R channel, z-linear basis
        let plus = eval_color(&sh, Vec3::new(0.0, 0.0, 1.0));
        let minus = eval_color(&sh, Vec3::new(0.0, 0.0, -1.0));
        // color = ±C1 + 0.5 (clamped at 0).
        assert!(approx_eq(plus.x, SH_C1 + 0.5, 1e-5));
        assert!(approx_eq(minus.x, (0.5 - SH_C1).max(0.0), 1e-5));
    }

    #[test]
    fn basis_orthogonality_monte_carlo() {
        // ∫ f_i f_j dΩ = δ_ij; a fixed lattice of directions approximates
        // the integral well enough to check orthonormality to ~5%.
        let n_theta = 64;
        let n_phi = 128;
        let mut gram = [[0.0f64; 4]; 4]; // spot-check first 4 functions
        for it in 0..n_theta {
            let theta = std::f64::consts::PI * (it as f64 + 0.5) / n_theta as f64;
            for ip in 0..n_phi {
                let phi = 2.0 * std::f64::consts::PI * ip as f64 / n_phi as f64;
                let d = Vec3::new(
                    (theta.sin() * phi.cos()) as f32,
                    (theta.sin() * phi.sin()) as f32,
                    theta.cos() as f32,
                );
                let b = basis(d);
                let w = theta.sin() * std::f64::consts::PI / n_theta as f64
                    * 2.0
                    * std::f64::consts::PI
                    / n_phi as f64;
                for i in 0..4 {
                    for j in 0..4 {
                        gram[i][j] += f64::from(b[i]) * f64::from(b[j]) * w;
                    }
                }
            }
        }
        for (i, row) in gram.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (v - expect).abs() < 0.05,
                    "gram[{i}][{j}] = {v}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn negative_colors_clamp_to_zero() {
        let mut sh = [0.0f32; SH_FLOATS];
        sh[0] = -10.0;
        let c = eval_color(&sh, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(c.x, 0.0);
    }

    #[test]
    fn dc_only_eval_matches_full_eval_for_dc_only_sh() {
        let mut sh = [0.0f32; SH_FLOATS];
        sh[0] = 0.9;
        sh[16] = 0.4;
        sh[32] = -0.1;
        let d = unit(Vec3::new(0.2, -0.5, 0.8));
        let full = eval_color(&sh, d);
        let dc = eval_color_dc(&sh, d);
        assert!((full - dc).norm() < 1e-6);
    }

    #[test]
    fn degree3_clamp_is_bit_identical_to_full_eval() {
        let mut sh = [0.0f32; SH_FLOATS];
        for (i, v) in sh.iter_mut().enumerate() {
            *v = ((i as f32) * 0.37).sin() * 0.4;
        }
        let d = unit(Vec3::new(0.2, -0.5, 0.8));
        let full = eval_color(&sh, d);
        let clamped = eval_color_deg(&sh, d, 3);
        assert_eq!(full.x.to_bits(), clamped.x.to_bits());
        assert_eq!(full.y.to_bits(), clamped.y.to_bits());
        assert_eq!(full.z.to_bits(), clamped.z.to_bits());
        // Degrees above 3 clamp to 3.
        assert_eq!(eval_color_deg(&sh, d, 7), clamped);
    }

    #[test]
    fn degree0_clamp_matches_dc_eval() {
        let mut sh = [0.0f32; SH_FLOATS];
        for (i, v) in sh.iter_mut().enumerate() {
            *v = ((i as f32) * 0.61).cos() * 0.3;
        }
        let d = unit(Vec3::new(-0.4, 0.9, 0.1));
        let dc = eval_color_dc(&sh, d);
        let deg0 = eval_color_deg(&sh, d, 0);
        assert!((dc - deg0).norm() < 1e-6);
        // Lower degrees drop view dependence monotonically: degree 1 uses
        // strictly fewer coefficients than degree 2.
        let d1 = eval_color_deg(&sh, d, 1);
        let d2 = eval_color_deg(&sh, d, 2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn basis_values_are_finite_everywhere() {
        for i in 0..100 {
            let t = i as f32 / 100.0 * std::f32::consts::PI;
            for j in 0..100 {
                let p = j as f32 / 100.0 * 2.0 * std::f32::consts::PI;
                let d = Vec3::new(t.sin() * p.cos(), t.sin() * p.sin(), t.cos());
                for v in basis(d) {
                    assert!(v.is_finite());
                }
            }
        }
    }
}
