//! Unit quaternions in the 3DGS `(w, x, y, z)` convention, used to
//! parameterize each Gaussian's rotation matrix `R` (paper Eq. 1).

use crate::{Mat3, Vec3};

/// A rotation quaternion `w + xi + yj + zk`.
///
/// 3DGS stores rotations as four floats that are normalized on use; the
/// Reconstruction Unit (paper §4.3) performs the same normalize-then-expand
/// sequence implemented by [`Quat::to_mat3`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// Vector part, i coefficient.
    pub x: f32,
    /// Vector part, j coefficient.
    pub y: f32,
    /// Vector part, k coefficient.
    pub z: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Self = Self {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Constructs a quaternion from components (not normalized).
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Self { w, x, y, z }
    }

    /// Rotation of `angle` radians about (a possibly unnormalized) `axis`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `axis` is near zero.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let axis = axis.normalized();
        let (s, c) = crate::det_sin_cos(angle * 0.5);
        Self::new(c, axis.x * s, axis.y * s, axis.z * s)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f32 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized quaternion, falling back to identity for
    /// degenerate (near-zero) input — matching the robustness of the 3DGS
    /// reference implementation.
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n < 1e-12 {
            return Self::IDENTITY;
        }
        Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
    }

    /// Expands the (normalized) quaternion into a rotation matrix using the
    /// standard 3DGS formula.
    pub fn to_mat3(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Mat3::from_rows(
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        )
    }

    /// Rotates a vector by this quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        self.to_mat3().mul_vec(v)
    }

    /// Components as `[w, x, y, z]`.
    pub fn to_array(self) -> [f32; 4] {
        [self.w, self.x, self.y, self.z]
    }
}

impl From<[f32; 4]> for Quat {
    fn from(a: [f32; 4]) -> Self {
        Self::new(a[0], a[1], a[2], a[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn identity_maps_to_identity_matrix() {
        let r = Quat::IDENTITY.to_mat3();
        assert!((r - Mat3::IDENTITY).frob_norm() < 1e-6);
    }

    #[test]
    fn axis_angle_rotation_matches_expectation() {
        // 90 degrees around z maps x-axis to y-axis.
        let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), std::f32::consts::FRAC_PI_2);
        let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
        assert!(approx_eq(v.x, 0.0, 1e-5));
        assert!(approx_eq(v.y, 1.0, 1e-5));
        assert!(approx_eq(v.z, 0.0, 1e-5));
    }

    #[test]
    fn rotation_matrix_is_orthonormal() {
        let q = Quat::new(0.3, -0.5, 0.7, 0.2);
        let r = q.to_mat3();
        let should_be_id = r * r.transposed();
        assert!((should_be_id - Mat3::IDENTITY).frob_norm() < 1e-5);
        assert!(approx_eq(r.det(), 1.0, 1e-5));
    }

    #[test]
    fn unnormalized_quaternion_is_normalized_on_use() {
        let q = Quat::new(2.0, 0.0, 0.0, 0.0);
        let r = q.to_mat3();
        assert!((r - Mat3::IDENTITY).frob_norm() < 1e-6);
    }

    #[test]
    fn degenerate_quaternion_falls_back_to_identity() {
        let q = Quat::new(0.0, 0.0, 0.0, 0.0).normalized();
        assert_eq!(q, Quat::IDENTITY);
    }
}
