//! Small fixed-size vectors (`f32`), the workhorse types of the pipeline.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! impl_vec_common {
    ($name:ident, $n:expr, [$($f:ident),+]) => {
        impl $name {
            /// Vector with all components set to `v`.
            pub const fn splat(v: f32) -> Self {
                Self { $($f: v),+ }
            }

            /// Zero vector.
            pub const ZERO: Self = Self::splat(0.0);

            /// Dot product.
            pub fn dot(self, rhs: Self) -> f32 {
                0.0 $(+ self.$f * rhs.$f)+
            }

            /// Euclidean (L2) norm.
            pub fn norm(self) -> f32 {
                self.dot(self).sqrt()
            }

            /// Squared Euclidean norm (avoids the square root).
            pub fn norm_sq(self) -> f32 {
                self.dot(self)
            }

            /// Returns the vector scaled to unit length.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if the vector is (near-)zero; in
            /// release builds the result contains non-finite components.
            pub fn normalized(self) -> Self {
                let n = self.norm();
                debug_assert!(n > 1e-12, "normalizing a near-zero vector");
                self / n
            }

            /// Component-wise product (Hadamard product).
            pub fn mul_elem(self, rhs: Self) -> Self {
                Self { $($f: self.$f * rhs.$f),+ }
            }

            /// Component-wise minimum.
            pub fn min_elem(self, rhs: Self) -> Self {
                Self { $($f: self.$f.min(rhs.$f)),+ }
            }

            /// Component-wise maximum.
            pub fn max_elem(self, rhs: Self) -> Self {
                Self { $($f: self.$f.max(rhs.$f)),+ }
            }

            /// Largest component.
            pub fn max_component(self) -> f32 {
                let mut m = f32::NEG_INFINITY;
                $( m = m.max(self.$f); )+
                m
            }

            /// `true` when every component is finite.
            pub fn is_finite(self) -> bool {
                true $(&& self.$f.is_finite())+
            }

            /// Components as an array.
            pub fn to_array(self) -> [f32; $n] {
                [$(self.$f),+]
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self { $($f: self.$f + rhs.$f),+ }
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self { $($f: self.$f - rhs.$f),+ }
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl Mul<f32> for $name {
            type Output = Self;
            fn mul(self, rhs: f32) -> Self {
                Self { $($f: self.$f * rhs),+ }
            }
        }

        impl MulAssign<f32> for $name {
            fn mul_assign(&mut self, rhs: f32) {
                *self = *self * rhs;
            }
        }

        impl Mul<$name> for f32 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                rhs * self
            }
        }

        impl Div<f32> for $name {
            type Output = Self;
            fn div(self, rhs: f32) -> Self {
                Self { $($f: self.$f / rhs),+ }
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self { $($f: -self.$f),+ }
            }
        }

        impl From<[f32; $n]> for $name {
            fn from(a: [f32; $n]) -> Self {
                let [$($f),+] = a;
                Self { $($f),+ }
            }
        }

        impl From<$name> for [f32; $n] {
            fn from(v: $name) -> Self {
                v.to_array()
            }
        }
    };
}

/// 2D vector: pixel coordinates, projected means, screen offsets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f32,
    /// Vertical component.
    pub y: f32,
}

impl_vec_common!(Vec2, 2, [x, y]);

impl Vec2 {
    /// Constructs a vector from its components.
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// 2D cross product (z-component of the 3D cross product).
    pub fn cross(self, rhs: Self) -> f32 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Rotates the vector counter-clockwise by `angle` radians.
    pub fn rotated(self, angle: f32) -> Self {
        let (s, c) = crate::det_sin_cos(angle);
        Self::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }
}

impl Index<usize> for Vec2 {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            _ => panic!("Vec2 index {i} out of range"),
        }
    }
}

/// 3D vector: world/camera-space positions, scales, view directions, RGB.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl_vec_common!(Vec3, 3, [x, y, z]);

impl Vec3 {
    /// Constructs a vector from its components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Cross product.
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// First two components.
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Extends to homogeneous coordinates with `w`.
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

/// 4D vector: homogeneous coordinates and quaternion storage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

impl_vec_common!(Vec4, 4, [x, y, z, w]);

impl Vec4 {
    /// Constructs a vector from its components.
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// First three components.
    pub fn xyz(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Perspective division: `(x/w, y/w, z/w)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `|w|` is near zero.
    pub fn project(self) -> Vec3 {
        debug_assert!(self.w.abs() > 1e-12, "perspective division by ~0");
        self.xyz() / self.w
    }
}

impl Index<usize> for Vec4 {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            3 => &self.w,
            _ => panic!("Vec4 index {i} out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -4.0);
        assert_eq!(a + b, Vec2::new(4.0, -2.0));
        assert_eq!(a - b, Vec2::new(-2.0, 6.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 3.0 - 8.0);
        assert_eq!(a.cross(b), -4.0 - 6.0);
    }

    #[test]
    fn vec2_rotation_preserves_norm() {
        let v = Vec2::new(3.0, 4.0);
        let r = v.rotated(1.2345);
        assert!(approx_eq(r.norm(), 5.0, 1e-5));
        // Rotating by 90 degrees maps x-axis to y-axis.
        let e = Vec2::new(1.0, 0.0).rotated(std::f32::consts::FRAC_PI_2);
        assert!(approx_eq(e.x, 0.0, 1e-6) && approx_eq(e.y, 1.0, 1e-6));
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(approx_eq(c.dot(a), 0.0, 1e-4));
        assert!(approx_eq(c.dot(b), 0.0, 1e-4));
    }

    #[test]
    fn vec3_normalize_unit_length() {
        let v = Vec3::new(0.0, 3.0, 4.0).normalized();
        assert!(approx_eq(v.norm(), 1.0, 1e-6));
    }

    #[test]
    fn vec4_project_divides_by_w() {
        let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
        assert_eq!(v.project(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn elementwise_min_max() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(2.0, 4.0, -3.0);
        assert_eq!(a.min_elem(b), Vec3::new(1.0, 4.0, -3.0));
        assert_eq!(a.max_elem(b), Vec3::new(2.0, 5.0, -2.0));
        assert_eq!(a.max_component(), 5.0);
    }

    #[test]
    fn array_round_trip() {
        let v = Vec4::new(1.0, 2.0, 3.0, 4.0);
        let a: [f32; 4] = v.into();
        assert_eq!(Vec4::from(a), v);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::new(0.0, 0.0, 0.0)[3];
    }
}
