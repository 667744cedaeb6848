//! Linear-algebra and fixed-point substrate for the GCC 3DGS accelerator
//! reproduction.
//!
//! This crate deliberately implements, from scratch, exactly the math the
//! paper's pipeline needs — no more:
//!
//! * small dense vectors and matrices ([`Vec2`], [`Vec3`], [`Vec4`],
//!   [`Mat2`], [`Mat3`], [`Mat4`]) used by the EWA projection (paper Eq. 1),
//! * unit quaternions ([`Quat`]) for the 3DGS rotation parameterization,
//! * symmetric 2×2 matrices ([`SymMat2`]) for projected covariances and
//!   conics, with closed-form eigenvalues (paper Eqs. 5–8),
//! * the Alpha Unit's fixed-point piecewise-linear exponential
//!   ([`PwlExp`], paper §4.4: a 16-segment LUT over `[-5.54, 0)` with <1%
//!   error),
//! * Q-format fixed-point helpers ([`fixed`]) backing the LUT unit,
//! * deterministic transcendentals ([`det_exp`], [`det_ln`],
//!   [`det_sin_cos`]): fixed sequences of IEEE-754 basic operations, no
//!   FMA and no libm, so every value from a scene's seed to a pixel is the
//!   same bits on every target.
//!
//! # Example
//!
//! ```
//! use gcc_math::{Mat3, Quat, Vec3};
//!
//! // Reconstruct a 3DGS covariance Σ = R S Sᵀ Rᵀ from scale + rotation.
//! let rot = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), 0.3).to_mat3();
//! let scale = Mat3::from_diagonal(Vec3::new(0.5, 1.5, 0.2));
//! let m = rot * scale;
//! let sigma = m * m.transposed();
//! assert!((sigma - sigma.transposed()).frob_norm() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod det;
pub mod exp;
pub mod fixed;
mod mat;
mod quat;
mod sym;
mod vec;

pub use det::{det_ln, det_sin_cos};
pub use exp::{det_exp, PwlExp};
pub use mat::{Mat2, Mat3, Mat4};
pub use quat::Quat;
pub use sym::SymMat2;
pub use vec::{Vec2, Vec3, Vec4};

/// Relative-tolerance float comparison used across the workspace's tests.
///
/// Returns `true` when `a` and `b` differ by less than `tol` in absolute
/// terms, or by less than `tol * max(|a|, |b|)` in relative terms.
///
/// ```
/// assert!(gcc_math::approx_eq(1.0, 1.0 + 1e-7, 1e-5));
/// assert!(!gcc_math::approx_eq(1.0, 1.1, 1e-5));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 0.0, 1e-9));
        assert!(approx_eq(1e6, 1e6 + 1.0, 1e-5));
        assert!(!approx_eq(1.0, 2.0, 1e-3));
        assert!(approx_eq(-3.0, -3.0000001, 1e-6));
    }
}
