//! Small dense matrices (row-major `f32`), sized for the EWA projection chain
//! Σ′ = J W Σ Wᵀ Jᵀ (paper Eq. 1).

use crate::{Vec2, Vec3, Vec4};
use std::ops::{Add, Mul, Sub};

/// 2×2 matrix, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat2 {
    /// Row-major entries `[[m00, m01], [m10, m11]]`.
    pub m: [[f32; 2]; 2],
}

impl Mat2 {
    /// Identity matrix.
    pub const IDENTITY: Self = Self {
        m: [[1.0, 0.0], [0.0, 1.0]],
    };

    /// Builds a matrix from rows.
    pub const fn from_rows(r0: [f32; 2], r1: [f32; 2]) -> Self {
        Self { m: [r0, r1] }
    }

    /// Determinant.
    pub fn det(&self) -> f32 {
        self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: Vec2) -> Vec2 {
        Vec2::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y,
            self.m[1][0] * v.x + self.m[1][1] * v.y,
        )
    }

    /// Transpose.
    pub fn transposed(&self) -> Self {
        Self::from_rows([self.m[0][0], self.m[1][0]], [self.m[0][1], self.m[1][1]])
    }

    /// Inverse, or `None` when the determinant magnitude is below `1e-12`.
    pub fn inverse(&self) -> Option<Self> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let inv = 1.0 / d;
        Some(Self::from_rows(
            [self.m[1][1] * inv, -self.m[0][1] * inv],
            [-self.m[1][0] * inv, self.m[0][0] * inv],
        ))
    }
}

impl Mul for Mat2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut out = [[0.0f32; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..2).map(|k| self.m[i][k] * rhs.m[k][j]).sum();
            }
        }
        Self { m: out }
    }
}

/// 3×3 matrix, row-major. Used for rotations, covariances and the EWA
/// Jacobian/view blocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat3 {
    /// Row-major entries.
    pub m: [[f32; 3]; 3],
}

impl Mat3 {
    /// Identity matrix.
    pub const IDENTITY: Self = Self {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Zero matrix.
    pub const ZERO: Self = Self { m: [[0.0; 3]; 3] };

    /// Builds a matrix from rows.
    pub const fn from_rows(r0: [f32; 3], r1: [f32; 3], r2: [f32; 3]) -> Self {
        Self { m: [r0, r1, r2] }
    }

    /// Diagonal matrix with diagonal `d` (e.g. the 3DGS scale matrix `S`).
    pub fn from_diagonal(d: Vec3) -> Self {
        Self::from_rows([d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z])
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }

    /// Transpose.
    pub fn transposed(&self) -> Self {
        let m = &self.m;
        Self::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Determinant.
    pub fn det(&self) -> f32 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Inverse via the adjugate, or `None` for (near-)singular input.
    pub fn inverse(&self) -> Option<Self> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let m = &self.m;
        let inv = 1.0 / d;
        let c = |a: f32, b: f32, c2: f32, d2: f32| (a * d2 - b * c2) * inv;
        Some(Self::from_rows(
            [
                c(m[1][1], m[1][2], m[2][1], m[2][2]),
                c(m[0][2], m[0][1], m[2][2], m[2][1]),
                c(m[0][1], m[0][2], m[1][1], m[1][2]),
            ],
            [
                c(m[1][2], m[1][0], m[2][2], m[2][0]),
                c(m[0][0], m[0][2], m[2][0], m[2][2]),
                c(m[0][2], m[0][0], m[1][2], m[1][0]),
            ],
            [
                c(m[1][0], m[1][1], m[2][0], m[2][1]),
                c(m[0][1], m[0][0], m[2][1], m[2][0]),
                c(m[0][0], m[0][1], m[1][0], m[1][1]),
            ],
        ))
    }

    /// Upper-left 2×2 block — the final step of Σ′ extraction in EWA
    /// splatting (the paper keeps only the 2D screen-space covariance).
    pub fn upper_left_2x2(&self) -> Mat2 {
        Mat2::from_rows([self.m[0][0], self.m[0][1]], [self.m[1][0], self.m[1][1]])
    }

    /// Frobenius norm, mostly useful in tests.
    pub fn frob_norm(&self) -> f32 {
        self.m
            .iter()
            .flat_map(|r| r.iter())
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
    }
}

impl Mul for Mat3 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut out = [[0.0f32; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.m[i][k] * rhs.m[k][j]).sum();
            }
        }
        Self { m: out }
    }
}

impl Add for Mat3 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut out = self.m;
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell += rhs.m[i][j];
            }
        }
        Self { m: out }
    }
}

impl Sub for Mat3 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let mut out = self.m;
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell -= rhs.m[i][j];
            }
        }
        Self { m: out }
    }
}

/// 4×4 matrix, row-major. View and projection transforms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat4 {
    /// Row-major entries.
    pub m: [[f32; 4]; 4],
}

impl Mat4 {
    /// Identity matrix.
    pub const IDENTITY: Self = Self {
        m: [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    };

    /// Builds a matrix from rows.
    pub const fn from_rows(r0: [f32; 4], r1: [f32; 4], r2: [f32; 4], r3: [f32; 4]) -> Self {
        Self {
            m: [r0, r1, r2, r3],
        }
    }

    /// Homogeneous matrix-vector product.
    pub fn mul_vec(&self, v: Vec4) -> Vec4 {
        let r = |i: usize| {
            self.m[i][0] * v.x + self.m[i][1] * v.y + self.m[i][2] * v.z + self.m[i][3] * v.w
        };
        Vec4::new(r(0), r(1), r(2), r(3))
    }

    /// Transforms a 3D point (w = 1) and returns the 3D result without
    /// perspective division. This is the "view matrix transformation"
    /// producing μ′ = (x′, y′, z′) in paper Stage I.
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.mul_vec(p.extend(1.0)).xyz()
    }

    /// Upper-left 3×3 block (the rotation part `W` of a rigid view matrix).
    pub fn upper_left_3x3(&self) -> Mat3 {
        Mat3::from_rows(
            [self.m[0][0], self.m[0][1], self.m[0][2]],
            [self.m[1][0], self.m[1][1], self.m[1][2]],
            [self.m[2][0], self.m[2][1], self.m[2][2]],
        )
    }

    /// Transpose.
    pub fn transposed(&self) -> Self {
        let mut out = [[0.0f32; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.m[j][i];
            }
        }
        Self { m: out }
    }

    /// Right-handed look-at view matrix (camera looks down −Z is *not*
    /// assumed; this follows the 3DGS convention where camera-space +Z is
    /// the viewing direction, so depth = z′ > 0 in front of the camera).
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let f = (target - eye).normalized(); // forward = +z in camera space
        let r = f.cross(up).normalized(); // right = +x
        let u = f.cross(r); // down-ish = +y (image y grows downward)
        Self::from_rows(
            [r.x, r.y, r.z, -r.dot(eye)],
            [u.x, u.y, u.z, -u.dot(eye)],
            [f.x, f.y, f.z, -f.dot(eye)],
            [0.0, 0.0, 0.0, 1.0],
        )
    }
}

impl Mul for Mat4 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut out = [[0.0f32; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..4).map(|k| self.m[i][k] * rhs.m[k][j]).sum();
            }
        }
        Self { m: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn mat3_approx(a: Mat3, b: Mat3, tol: f32) -> bool {
        (a - b).frob_norm() < tol
    }

    #[test]
    fn mat2_inverse_round_trip() {
        let a = Mat2::from_rows([2.0, 1.0], [1.0, 3.0]);
        let inv = a.inverse().unwrap();
        let id = a * inv;
        assert!(approx_eq(id.m[0][0], 1.0, 1e-5));
        assert!(approx_eq(id.m[0][1], 0.0, 1e-5));
        assert!(approx_eq(id.m[1][0], 0.0, 1e-5));
        assert!(approx_eq(id.m[1][1], 1.0, 1e-5));
    }

    #[test]
    fn mat2_singular_inverse_is_none() {
        let a = Mat2::from_rows([1.0, 2.0], [2.0, 4.0]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn mat3_inverse_round_trip() {
        let a = Mat3::from_rows([4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 5.0]);
        let inv = a.inverse().unwrap();
        assert!(mat3_approx(a * inv, Mat3::IDENTITY, 1e-4));
        assert!(mat3_approx(inv * a, Mat3::IDENTITY, 1e-4));
    }

    #[test]
    fn mat3_det_of_diagonal() {
        let d = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert!(approx_eq(d.det(), 24.0, 1e-6));
    }

    #[test]
    fn mat3_transpose_involution() {
        let a = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn mat4_transform_point_applies_translation() {
        let t = Mat4::from_rows(
            [1.0, 0.0, 0.0, 10.0],
            [0.0, 1.0, 0.0, -5.0],
            [0.0, 0.0, 1.0, 2.0],
            [0.0, 0.0, 0.0, 1.0],
        );
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(t.transform_point(p), Vec3::new(11.0, -3.0, 5.0));
    }

    #[test]
    fn look_at_maps_target_to_positive_depth() {
        let eye = Vec3::new(0.0, 0.0, -5.0);
        let target = Vec3::ZERO;
        let view = Mat4::look_at(eye, target, Vec3::new(0.0, 1.0, 0.0));
        let cam = view.transform_point(target);
        // Target sits straight ahead at depth 5.
        assert!(approx_eq(cam.x, 0.0, 1e-5));
        assert!(approx_eq(cam.y, 0.0, 1e-5));
        assert!(approx_eq(cam.z, 5.0, 1e-4));
        // The eye maps to the origin.
        let cam_eye = view.transform_point(eye);
        assert!(cam_eye.norm() < 1e-4);
    }

    #[test]
    fn look_at_rotation_block_is_orthonormal() {
        let view = Mat4::look_at(
            Vec3::new(3.0, 2.0, -7.0),
            Vec3::new(0.5, -1.0, 2.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let w = view.upper_left_3x3();
        let wtw = w * w.transposed();
        assert!(mat3_approx(wtw, Mat3::IDENTITY, 1e-4));
    }

    #[test]
    fn mat4_mul_identity() {
        let t = Mat4::look_at(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let prod = t * Mat4::IDENTITY;
        assert_eq!(prod, t);
    }
}
