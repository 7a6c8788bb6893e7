//! Plain 2-D double-precision vectors.
//!
//! The particle model of the paper lives in the Euclidean plane (§5.1), so a
//! concrete 2-D type is both faster and clearer than a generic
//! `const`-dimension vector. Higher-dimensional points (joint observer
//! spaces in the estimators) are handled as flat `&[f64]` slices instead.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-D vector / point with `f64` components.
///
/// `repr(C)` pins the `x, y` field order in memory: SIMD kernels
/// downstream (e.g. the cell-grid's lane deinterleave) reinterpret
/// `&[Vec2]` as an interleaved `x y x y …` `f64` stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Creates a vector from polar coordinates `(radius, angle)`.
    ///
    /// The angle is measured counter-clockwise from the positive x-axis, in
    /// radians.
    #[inline]
    pub fn from_polar(radius: f64, angle: f64) -> Self {
        Vec2::new(radius * angle.cos(), radius * angle.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the z-component of the 3-D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist_sq(self, other: Vec2) -> f64 {
        (self - other).norm_sq()
    }

    /// The vector rotated counter-clockwise by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// `true` iff both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Clamps the norm of the vector to at most `max_norm`.
    ///
    /// Used by the integrator to bound per-step displacements near the
    /// `1/x` singularity of the F¹ force law.
    #[inline]
    pub fn clamp_norm(self, max_norm: f64) -> Vec2 {
        debug_assert!(max_norm >= 0.0);
        let n = self.norm();
        if n > max_norm && n > 0.0 {
            self * (max_norm / n)
        } else {
            self
        }
    }

    /// Centroid (arithmetic mean) of a non-empty set of points.
    ///
    /// Returns `Vec2::ZERO` for an empty slice.
    pub fn centroid(points: &[Vec2]) -> Vec2 {
        if points.is_empty() {
            return Vec2::ZERO;
        }
        let sum: Vec2 = points.iter().copied().sum();
        sum / points.len() as f64
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl MulAssign<f64> for Vec2 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        self.x *= rhs;
        self.y *= rhs;
    }
}

impl DivAssign<f64> for Vec2 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        self.x /= rhs;
        self.y /= rhs;
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, Add::add)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    #[inline]
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

impl From<Vec2> for [f64; 2] {
    #[inline]
    fn from(v: Vec2) -> Self {
        [v.x, v.y]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn basic_algebra() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(-3.0, 0.5);
        assert_eq!(a + b, Vec2::new(-2.0, 2.5));
        assert_eq!(a - b, Vec2::new(4.0, 1.5));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.dot(a), 1.0);
    }

    #[test]
    fn norms_and_distance() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(Vec2::ZERO.dist(v), 5.0);
        assert_eq!(v.dist_sq(Vec2::ZERO), 25.0);
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!(close(v.x, 0.0));
        assert!(close(v.y, 1.0));
    }

    #[test]
    fn polar_round_trip() {
        let v = Vec2::from_polar(2.0, PI / 3.0);
        assert!(close(v.norm(), 2.0));
        assert!(close(v.y.atan2(v.x), PI / 3.0));
    }

    #[test]
    fn clamp_norm_limits_long_vectors_only() {
        let long = Vec2::new(30.0, 40.0).clamp_norm(5.0);
        assert!(close(long.norm(), 5.0));
        let short = Vec2::new(0.3, 0.4).clamp_norm(5.0);
        assert_eq!(short, Vec2::new(0.3, 0.4));
        assert_eq!(Vec2::ZERO.clamp_norm(1.0), Vec2::ZERO);
    }

    #[test]
    fn centroid_of_points() {
        let pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(0.0, 2.0),
            Vec2::new(2.0, 2.0),
        ];
        assert_eq!(Vec2::centroid(&pts), Vec2::new(1.0, 1.0));
        assert_eq!(Vec2::centroid(&[]), Vec2::ZERO);
    }

    #[test]
    fn conversions() {
        let v = Vec2::from((1.5, -2.5));
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.5, -2.5));
        let a: [f64; 2] = v.into();
        assert_eq!(a, [1.5, -2.5]);
    }

    fn arb_vec2() -> impl Strategy<Value = Vec2> {
        (-1e6..1e6f64, -1e6..1e6f64).prop_map(|(x, y)| Vec2::new(x, y))
    }

    proptest! {
        #[test]
        fn rotation_preserves_norm(v in arb_vec2(), angle in -10.0..10.0f64) {
            let r = v.rotated(angle);
            prop_assert!((r.norm() - v.norm()).abs() <= 1e-9 * (1.0 + v.norm()));
        }

        #[test]
        fn dot_is_symmetric(a in arb_vec2(), b in arb_vec2()) {
            prop_assert_eq!(a.dot(b), b.dot(a));
        }

        #[test]
        fn cross_is_antisymmetric(a in arb_vec2(), b in arb_vec2()) {
            prop_assert!((a.cross(b) + b.cross(a)).abs() <= 1e-6 * (1.0 + a.norm() * b.norm()));
        }

        #[test]
        fn triangle_inequality(a in arb_vec2(), b in arb_vec2()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn clamp_norm_never_exceeds(v in arb_vec2(), cap in 0.0..100.0f64) {
            prop_assert!(v.clamp_norm(cap).norm() <= cap * (1.0 + 1e-12) + 1e-12);
        }
    }
}
