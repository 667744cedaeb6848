//! 3D Gaussian Splatting algorithm layer for the GCC accelerator
//! reproduction (Pei et al., MICRO 2025).
//!
//! This crate implements, from scratch, every algorithmic ingredient the
//! paper's pipeline is built from:
//!
//! * the 59-parameter Gaussian representation ([`Gaussian3D`]) and camera
//!   model ([`Camera`]),
//! * third-order real spherical harmonics color evaluation ([`sh`],
//!   paper Eq. 2),
//! * the EWA covariance projection chain Σ = R S Sᵀ Rᵀ, Σ′ = J W Σ Wᵀ Jᵀ
//!   ([`projection`], paper Eq. 1),
//! * bounding laws: the conventional 3σ rule (Eq. 6), GCC's opacity-aware
//!   ω-σ law (Eq. 8), AABB and OBB footprints, and the exact alpha ellipse
//!   ([`bounds`], Fig. 4 / Table 1),
//! * alpha evaluation and front-to-back compositing with early termination
//!   ([`alpha`], Eqs. 3, 4, 9),
//! * Stage I depth grouping with near-plane culling and recursive
//!   subdivision to the hardware group size N = 256 ([`grouping`]),
//! * Algorithm 1, the runtime Alpha-based Gaussian Boundary Identification,
//!   at the Alpha Unit's 8×8-block granularity with T-mask interaction
//!   ([`boundary`]).
//!
//! The crate is pure software: renderers built on it live in `gcc-render`,
//! and the cycle/energy models live in `gcc-sim`.
//!
//! # Example
//!
//! ```
//! use gcc_core::{Camera, Gaussian3D};
//! use gcc_core::projection::project_gaussian;
//! use gcc_core::bounds::BoundingLaw;
//! use gcc_math::Vec3;
//!
//! let cam = Camera::look_at(
//!     Vec3::new(0.0, 0.0, -4.0),
//!     Vec3::ZERO,
//!     Vec3::new(0.0, 1.0, 0.0),
//!     60.0,
//!     640,
//!     360,
//! );
//! let g = Gaussian3D::isotropic(Vec3::ZERO, 0.1, 0.8, Vec3::new(1.0, 0.2, 0.2));
//! let p = project_gaussian(&g, 0, &cam, BoundingLaw::OmegaSigma).expect("visible");
//! assert!(p.depth > 0.0);
//! assert!(p.radius > 0.0);
//! ```

// `deny` rather than `forbid`: the SIMD kernels in [`dispatch`] are the one
// sanctioned `unsafe` island (intrinsics), opted in with a module-level
// `#[allow(unsafe_code)]`. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod boundary;
pub mod bounds;
mod camera;
pub mod dispatch;
mod gaussian;
pub mod grouping;
pub mod projection;
pub mod sh;
pub mod sort;

pub use camera::Camera;
pub use gaussian::{Gaussian3D, PARAM_FLOATS, SH_COEFFS_PER_CHANNEL, SH_FLOATS};
pub use projection::ProjectedGaussian;

/// Minimum alpha a pixel contribution must reach to be blended
/// (`1/255`, the 3DGS numerical-stability threshold; paper Eqs. 7, 9).
pub const ALPHA_MIN: f32 = 1.0 / 255.0;

/// Alpha saturation ceiling applied by the rasterizer (paper Eqs. 3, 9).
pub const ALPHA_MAX: f32 = 0.99;

/// Transmittance early-termination threshold: once a pixel's accumulated
/// transmittance falls below this value, further Gaussians are skipped
/// (the 3DGS `T < 1e-4` criterion the paper builds its conditional
/// processing on).
pub const TRANSMITTANCE_EPS: f32 = 1e-4;

/// Near-plane visibility threshold on view-space depth: Gaussians with
/// `z′ < 0.2` are culled in Stage I (paper §3, Stage I; §4.2's Z-axis
/// pivot of 0.2).
pub const NEAR_DEPTH: f32 = 0.2;

/// Hardware depth-group capacity: coarse bins holding more than `N = 256`
/// Gaussians are recursively subdivided (paper §4.2).
pub const MAX_GROUP_SIZE: usize = 256;

#[cfg(test)]
mod test_rng {
    /// SplitMix64 — the seeded source of lane patterns and test Gaussians
    /// the kernel and tracer sweeps share.
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
