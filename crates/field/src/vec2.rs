//! Two-dimensional vector and point arithmetic.
//!
//! Spot noise operates on 2-D slices of (possibly 3-D) data sets, so a small,
//! `Copy`, `f64`-based vector type is the work-horse of the whole workspace.
//! The type is deliberately minimal: only the operations the visualization
//! pipeline actually needs (affine maps, rotation, norms, lerp) are provided.

use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-D vector (also used as a point) with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// The unit vector along x.
    pub const UNIT_X: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// The unit vector along y.
    pub const UNIT_Y: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Creates a vector with both components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec2 { x: v, y: v }
    }

    /// Creates a unit vector at `angle` radians from the positive x axis.
    #[inline]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the z component of the 3-D cross product).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Returns the vector scaled to unit length, or `Vec2::ZERO` when the
    /// norm is too small to normalise reliably.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n > 1e-300 {
            self / n
        } else {
            Vec2::ZERO
        }
    }

    /// The vector rotated by 90 degrees counter-clockwise.
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// The angle of the vector in radians, in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Component-wise product.
    #[inline]
    pub fn hadamard(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x * other.x, self.y * other.y)
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

    /// Clamps both components into `[lo, hi]` (component-wise bounds).
    #[inline]
    pub fn clamp(self, lo: Vec2, hi: Vec2) -> Vec2 {
        self.max(lo).min(hi)
    }

    /// Linear interpolation: `self` at `t == 0`, `other` at `t == 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
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

impl MulAssign<f64> for Vec2 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl DivAssign<f64> for Vec2 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
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

/// A 2x2 matrix used for spot transformations (scaling along the flow
/// direction, rotation into the flow frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat2 {
    /// Row-major entry (0,0).
    pub a: f64,
    /// Row-major entry (0,1).
    pub b: f64,
    /// Row-major entry (1,0).
    pub c: f64,
    /// Row-major entry (1,1).
    pub d: f64,
}

impl Mat2 {
    /// Identity matrix.
    pub const IDENTITY: Mat2 = Mat2 {
        a: 1.0,
        b: 0.0,
        c: 0.0,
        d: 1.0,
    };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        Mat2 { a, b, c, d }
    }

    /// Rotation by `angle` radians.
    #[inline]
    pub fn rotation(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Mat2::new(c, -s, s, c)
    }

    /// Anisotropic scaling.
    #[inline]
    pub fn scale(sx: f64, sy: f64) -> Self {
        Mat2::new(sx, 0.0, 0.0, sy)
    }

    /// Matrix-vector product.
    #[inline]
    pub fn apply(self, v: Vec2) -> Vec2 {
        Vec2::new(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)
    }

    /// Matrix-matrix product `self * rhs`.
    #[inline]
    pub fn compose(self, rhs: Mat2) -> Mat2 {
        Mat2::new(
            self.a * rhs.a + self.b * rhs.c,
            self.a * rhs.b + self.b * rhs.d,
            self.c * rhs.a + self.d * rhs.c,
            self.c * rhs.b + self.d * rhs.d,
        )
    }

    /// Determinant.
    #[inline]
    pub fn det(self) -> f64 {
        self.a * self.d - self.b * self.c
    }

    /// Inverse, or `None` when the matrix is singular.
    #[inline]
    pub fn inverse(self) -> Option<Mat2> {
        let det = self.det();
        if det.abs() < 1e-300 {
            return None;
        }
        let inv = 1.0 / det;
        Some(Mat2::new(
            self.d * inv,
            -self.b * inv,
            -self.c * inv,
            self.a * inv,
        ))
    }
}

impl Default for Mat2 {
    fn default() -> Self {
        Mat2::IDENTITY
    }
}

impl Mul<Vec2> for Mat2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        self.apply(rhs)
    }
}

impl Mul<Mat2> for Mat2 {
    type Output = Mat2;
    #[inline]
    fn mul(self, rhs: Mat2) -> Mat2 {
        self.compose(rhs)
    }
}

/// Axis-aligned bounding rectangle in field coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Vec2,
    /// Upper-right corner.
    pub max: Vec2,
}

impl Rect {
    /// Creates a rectangle; corners are reordered so `min <= max` holds.
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Rect {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The unit square `[0,1] x [0,1]`.
    pub const UNIT: Rect = Rect {
        min: Vec2::ZERO,
        max: Vec2 { x: 1.0, y: 1.0 },
    };

    /// Width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// The extent as a vector `(width, height)`.
    #[inline]
    pub fn size(&self) -> Vec2 {
        self.max - self.min
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// True when `p` is inside (inclusive of the boundary).
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when the two rectangles overlap (inclusive of shared edges).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Returns the rectangle grown by `margin` on every side.
    #[inline]
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            min: self.min - Vec2::splat(margin),
            max: self.max + Vec2::splat(margin),
        }
    }

    /// Clamps `p` into the rectangle.
    #[inline]
    pub fn clamp(&self, p: Vec2) -> Vec2 {
        p.clamp(self.min, self.max)
    }

    /// Maps a point given in unit coordinates (`[0,1]^2`) into the rectangle.
    #[inline]
    pub fn from_unit(&self, uv: Vec2) -> Vec2 {
        self.min + uv.hadamard(self.size())
    }

    /// Maps a point in the rectangle to unit coordinates.
    ///
    /// Degenerate (zero-extent) axes map to `0.0`.
    #[inline]
    pub fn to_unit(&self, p: Vec2) -> Vec2 {
        let s = self.size();
        Vec2::new(
            if s.x.abs() > 0.0 {
                (p.x - self.min.x) / s.x
            } else {
                0.0
            },
            if s.y.abs() > 0.0 {
                (p.y - self.min.y) / s.y
            } else {
                0.0
            },
        )
    }

    /// Splits the rectangle into `nx` by `ny` equal tiles, returned row-major
    /// from the bottom-left.
    pub fn tiles(&self, nx: usize, ny: usize) -> Vec<Rect> {
        assert!(nx > 0 && ny > 0, "tile grid must be non-empty");
        let mut out = Vec::with_capacity(nx * ny);
        let dx = self.width() / nx as f64;
        let dy = self.height() / ny as f64;
        for j in 0..ny {
            for i in 0..nx {
                let min = Vec2::new(self.min.x + i as f64 * dx, self.min.y + j as f64 * dy);
                let max = Vec2::new(min.x + dx, min.y + dy);
                out.push(Rect { min, max });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn vector_arithmetic_basics() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -4.0);
        assert_eq!(a + b, Vec2::new(4.0, -2.0));
        assert_eq!(a - b, Vec2::new(-2.0, 6.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn dot_cross_norm() {
        let a = Vec2::new(3.0, 4.0);
        assert!(approx(a.norm(), 5.0));
        assert!(approx(a.norm_sq(), 25.0));
        assert!(approx(a.dot(Vec2::new(1.0, 0.0)), 3.0));
        assert!(approx(Vec2::UNIT_X.cross(Vec2::UNIT_Y), 1.0));
        assert!(approx(Vec2::UNIT_Y.cross(Vec2::UNIT_X), -1.0));
    }

    #[test]
    fn normalisation_handles_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let v = Vec2::new(0.0, 2.5).normalized();
        assert!(approx(v.norm(), 1.0));
        assert!(approx(v.y, 1.0));
    }

    #[test]
    fn rotation_and_perp() {
        let v = Vec2::UNIT_X.rotated(std::f64::consts::FRAC_PI_2);
        assert!(approx(v.x, 0.0) && approx(v.y, 1.0));
        assert_eq!(Vec2::UNIT_X.perp(), Vec2::UNIT_Y);
        let angle = Vec2::new(1.0, 1.0).angle();
        assert!(approx(angle, std::f64::consts::FRAC_PI_4));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn mat2_rotation_preserves_norm() {
        let m = Mat2::rotation(1.234);
        let v = Vec2::new(3.0, -7.0);
        assert!(approx((m * v).norm(), v.norm()));
        assert!(approx(m.det(), 1.0));
    }

    #[test]
    fn mat2_inverse_roundtrip() {
        let m = Mat2::new(2.0, 1.0, -1.0, 3.0);
        let inv = m.inverse().unwrap();
        let id = m * inv;
        assert!(approx(id.a, 1.0) && approx(id.d, 1.0));
        assert!(approx(id.b, 0.0) && approx(id.c, 0.0));
        assert!(Mat2::new(1.0, 2.0, 2.0, 4.0).inverse().is_none());
    }

    #[test]
    fn mat2_scale_and_compose() {
        let s = Mat2::scale(2.0, 3.0);
        assert_eq!(s * Vec2::new(1.0, 1.0), Vec2::new(2.0, 3.0));
        let r = Mat2::rotation(std::f64::consts::FRAC_PI_2);
        let c = r * s;
        let v = c * Vec2::UNIT_X;
        assert!(approx(v.x, 0.0) && approx(v.y, 2.0));
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 1.0));
        assert!(r.contains(Vec2::new(1.0, 0.5)));
        assert!(!r.contains(Vec2::new(3.0, 0.5)));
        assert_eq!(r.clamp(Vec2::new(5.0, -1.0)), Vec2::new(2.0, 0.0));
        assert!(approx(r.area(), 2.0));
        assert_eq!(r.center(), Vec2::new(1.0, 0.5));
    }

    #[test]
    fn rect_reorders_corners() {
        let r = Rect::new(Vec2::new(2.0, 3.0), Vec2::new(-1.0, 1.0));
        assert_eq!(r.min, Vec2::new(-1.0, 1.0));
        assert_eq!(r.max, Vec2::new(2.0, 3.0));
    }

    #[test]
    fn rect_unit_mapping_roundtrip() {
        let r = Rect::new(Vec2::new(-2.0, 1.0), Vec2::new(4.0, 5.0));
        let p = Vec2::new(1.0, 2.0);
        let uv = r.to_unit(p);
        let q = r.from_unit(uv);
        assert!(approx(p.x, q.x) && approx(p.y, q.y));
        assert_eq!(r.from_unit(Vec2::ZERO), r.min);
        assert_eq!(r.from_unit(Vec2::new(1.0, 1.0)), r.max);
    }

    #[test]
    fn rect_tiles_partition_area() {
        let r = Rect::new(Vec2::ZERO, Vec2::new(4.0, 2.0));
        let tiles = r.tiles(4, 2);
        assert_eq!(tiles.len(), 8);
        let total: f64 = tiles.iter().map(|t| t.area()).sum();
        assert!(approx(total, r.area()));
        // Tiles are disjoint except for shared edges and cover the rect.
        assert!(tiles.iter().all(|t| r.contains(t.min) && r.contains(t.max)));
    }

    #[test]
    fn rect_intersects() {
        let a = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
        let b = Rect::new(Vec2::new(0.5, 0.5), Vec2::new(2.0, 2.0));
        let c = Rect::new(Vec2::new(1.5, 1.5), Vec2::new(2.0, 2.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.expanded(1.0).intersects(&c));
    }
}
