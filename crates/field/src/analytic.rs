//! Analytic vector fields used as test inputs and synthetic workloads.
//!
//! The paper's data sets come from running simulations; for unit tests,
//! examples and calibration of the spot-noise pipeline it is convenient to
//! also have closed-form fields whose derivatives and invariants (e.g. zero
//! divergence) are known exactly.

use crate::grid::VectorField;
use crate::vec2::{Rect, Vec2};

/// Constant (uniform) flow.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    /// The constant velocity.
    pub velocity: Vec2,
    /// Domain of definition.
    pub domain: Rect,
}

impl VectorField for Uniform {
    fn velocity(&self, _p: Vec2) -> Vec2 {
        self.velocity
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// Simple shear flow `v = (k * y, 0)`.
#[derive(Debug, Clone, Copy)]
pub struct Shear {
    /// Shear rate.
    pub rate: f64,
    /// Domain of definition.
    pub domain: Rect,
}

impl VectorField for Shear {
    fn velocity(&self, p: Vec2) -> Vec2 {
        Vec2::new(self.rate * (p.y - self.domain.center().y), 0.0)
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// Solid-body rotation around a centre: `v = omega * (-(y-cy), x-cx)`.
///
/// Divergence-free; particles move on circles, which makes it a good test
/// case for integrator accuracy (the radius must be conserved).
#[derive(Debug, Clone, Copy)]
pub struct Vortex {
    /// Angular velocity (radians per unit time).
    pub omega: f64,
    /// Centre of rotation.
    pub center: Vec2,
    /// Domain of definition.
    pub domain: Rect,
}

impl VectorField for Vortex {
    fn velocity(&self, p: Vec2) -> Vec2 {
        let d = p - self.center;
        Vec2::new(-d.y, d.x) * self.omega
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// Saddle (stagnation-point) flow `v = k * (x-cx, -(y-cy))`.
#[derive(Debug, Clone, Copy)]
pub struct Saddle {
    /// Strain rate.
    pub rate: f64,
    /// Stagnation point.
    pub center: Vec2,
    /// Domain of definition.
    pub domain: Rect,
}

impl VectorField for Saddle {
    fn velocity(&self, p: Vec2) -> Vec2 {
        let d = p - self.center;
        Vec2::new(d.x, -d.y) * self.rate
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// The classic double-gyre benchmark field on `[0,2] x [0,1]` (scaled to an
/// arbitrary domain), optionally time dependent.
#[derive(Debug, Clone, Copy)]
pub struct DoubleGyre {
    /// Velocity amplitude.
    pub amplitude: f64,
    /// Oscillation amplitude of the gyre separation.
    pub epsilon: f64,
    /// Angular frequency of the oscillation.
    pub omega: f64,
    /// Evaluation time.
    pub time: f64,
    /// Domain of definition.
    pub domain: Rect,
}

impl DoubleGyre {
    /// The standard steady configuration used in tests.
    pub fn steady(domain: Rect) -> Self {
        DoubleGyre {
            amplitude: 0.1,
            epsilon: 0.0,
            omega: 0.0,
            time: 0.0,
            domain,
        }
    }
}

impl VectorField for DoubleGyre {
    fn velocity(&self, p: Vec2) -> Vec2 {
        use std::f64::consts::PI;
        // Map into the canonical [0,2] x [0,1] domain.
        let uv = self.domain.to_unit(p);
        let x = uv.x * 2.0;
        let y = uv.y;
        let a = self.epsilon * (self.omega * self.time).sin();
        let b = 1.0 - 2.0 * a;
        let f = a * x * x + b * x;
        let dfdx = 2.0 * a * x + b;
        let u = -PI * self.amplitude * (PI * f).sin() * (PI * y).cos();
        let v = PI * self.amplitude * (PI * f).cos() * (PI * y).sin() * dfdx;
        // Scale back into world units.
        let s = self.domain.size();
        Vec2::new(u * s.x / 2.0, v * s.y)
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// A Lamb–Oseen (viscous) vortex with finite core radius, useful for
/// exercising the "bent spot" path in regions of strong curvature.
#[derive(Debug, Clone, Copy)]
pub struct LambOseen {
    /// Circulation of the vortex.
    pub circulation: f64,
    /// Core radius.
    pub core_radius: f64,
    /// Vortex centre.
    pub center: Vec2,
    /// Domain of definition.
    pub domain: Rect,
}

impl VectorField for LambOseen {
    fn velocity(&self, p: Vec2) -> Vec2 {
        let d = p - self.center;
        let r2 = d.norm_sq().max(1e-12);
        let r = r2.sqrt();
        let v_theta = self.circulation / (2.0 * std::f64::consts::PI * r)
            * (1.0 - (-r2 / (self.core_radius * self.core_radius)).exp());
        d.perp() / r * v_theta
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// A synthetic von Kármán-like vortex street: a uniform stream with a row of
/// alternating-sign Lamb–Oseen vortices superimposed, mimicking the wake
/// behind a block without running the DNS solver.
#[derive(Debug, Clone)]
pub struct VortexStreet {
    /// Free-stream velocity (along +x).
    pub free_stream: f64,
    /// Circulation magnitude of each shed vortex.
    pub circulation: f64,
    /// Core radius of each vortex.
    pub core_radius: f64,
    /// Horizontal spacing between successive vortices.
    pub spacing: f64,
    /// Vertical offset of the two staggered rows.
    pub offset: f64,
    /// x coordinate at which shedding starts (the block's trailing edge).
    pub start_x: f64,
    /// Number of vortices in each row.
    pub count: usize,
    /// Domain of definition.
    pub domain: Rect,
}

impl VortexStreet {
    /// A street with sensible defaults for a given domain; the block trailing
    /// edge is placed at 25 % of the domain width.
    pub fn new(domain: Rect) -> Self {
        let w = domain.width();
        VortexStreet {
            free_stream: 1.0,
            circulation: 0.8,
            core_radius: 0.04 * w,
            spacing: 0.12 * w,
            offset: 0.05 * domain.height(),
            start_x: domain.min.x + 0.25 * w,
            count: 8,
            domain,
        }
    }

    fn vortices(&self) -> impl Iterator<Item = (Vec2, f64)> + '_ {
        let cy = self.domain.center().y;
        (0..self.count).map(move |k| {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            let x = self.start_x + (k as f64 + 0.5) * self.spacing;
            let y = cy + sign * self.offset;
            (Vec2::new(x, y), sign * self.circulation)
        })
    }
}

impl VectorField for VortexStreet {
    fn velocity(&self, p: Vec2) -> Vec2 {
        let mut v = Vec2::new(self.free_stream, 0.0);
        for (c, gamma) in self.vortices() {
            let d = p - c;
            let r2 = d.norm_sq().max(1e-12);
            let r = r2.sqrt();
            let v_theta = gamma / (2.0 * std::f64::consts::PI * r)
                * (1.0 - (-r2 / (self.core_radius * self.core_radius)).exp());
            v += d.perp() / r * v_theta;
        }
        v
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// Taylor–Green cellular vortex array, a standard divergence-free test field.
#[derive(Debug, Clone, Copy)]
pub struct TaylorGreen {
    /// Velocity amplitude.
    pub amplitude: f64,
    /// Number of cells along each axis of the domain.
    pub cells: f64,
    /// Domain of definition.
    pub domain: Rect,
}

impl VectorField for TaylorGreen {
    fn velocity(&self, p: Vec2) -> Vec2 {
        use std::f64::consts::PI;
        let uv = self.domain.to_unit(p);
        let kx = self.cells * PI;
        let ky = self.cells * PI;
        let u = self.amplitude * (kx * uv.x).sin() * (ky * uv.y).cos();
        let v = -self.amplitude * (kx * uv.x).cos() * (ky * uv.y).sin();
        Vec2::new(u, v)
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// A field defined by an arbitrary closure; handy in tests.
pub struct FnField<F: Fn(Vec2) -> Vec2 + Sync> {
    /// The closure evaluated for every query.
    pub f: F,
    /// Domain of definition.
    pub domain: Rect,
}

impl<F: Fn(Vec2) -> Vec2 + Sync> VectorField for FnField<F> {
    fn velocity(&self, p: Vec2) -> Vec2 {
        (self.f)(p)
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// Numerically estimates the divergence of a field at `p` with central
/// differences (used by property tests on divergence-free fields).
pub fn divergence(field: &dyn VectorField, p: Vec2, h: f64) -> f64 {
    let dx = Vec2::new(h, 0.0);
    let dy = Vec2::new(0.0, h);
    let dudx = (field.velocity(p + dx).x - field.velocity(p - dx).x) / (2.0 * h);
    let dvdy = (field.velocity(p + dy).y - field.velocity(p - dy).y) / (2.0 * h);
    dudx + dvdy
}

/// Numerically estimates the scalar curl (vorticity) of a field at `p`.
pub fn curl(field: &dyn VectorField, p: Vec2, h: f64) -> f64 {
    let dx = Vec2::new(h, 0.0);
    let dy = Vec2::new(0.0, h);
    let dvdx = (field.velocity(p + dx).y - field.velocity(p - dx).y) / (2.0 * h);
    let dudy = (field.velocity(p + dy).x - field.velocity(p - dy).x) / (2.0 * h);
    dvdx - dudy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_domain() -> Rect {
        Rect::new(Vec2::new(-1.0, -1.0), Vec2::new(1.0, 1.0))
    }

    #[test]
    fn uniform_field_is_constant() {
        let f = Uniform {
            velocity: Vec2::new(2.0, -1.0),
            domain: unit_domain(),
        };
        assert_eq!(f.velocity(Vec2::ZERO), Vec2::new(2.0, -1.0));
        assert_eq!(f.velocity(Vec2::new(0.7, -0.3)), Vec2::new(2.0, -1.0));
        assert!((f.speed(Vec2::ZERO) - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn vortex_is_divergence_free_and_tangential() {
        let f = Vortex {
            omega: 2.0,
            center: Vec2::ZERO,
            domain: unit_domain(),
        };
        for &(x, y) in &[(0.3, 0.1), (-0.5, 0.4), (0.2, -0.7)] {
            let p = Vec2::new(x, y);
            // Velocity is perpendicular to the radius vector.
            assert!(f.velocity(p).dot(p).abs() < 1e-12);
            assert!(divergence(&f, p, 1e-4).abs() < 1e-6);
        }
    }

    #[test]
    fn vortex_curl_is_twice_omega() {
        let f = Vortex {
            omega: 1.5,
            center: Vec2::ZERO,
            domain: unit_domain(),
        };
        let c = curl(&f, Vec2::new(0.2, 0.3), 1e-4);
        assert!((c - 3.0).abs() < 1e-6);
    }

    #[test]
    fn saddle_divergence_is_zero() {
        let f = Saddle {
            rate: 3.0,
            center: Vec2::new(0.1, -0.2),
            domain: unit_domain(),
        };
        assert!(divergence(&f, Vec2::new(0.4, 0.4), 1e-4).abs() < 1e-6);
        // The stagnation point really is stagnant.
        assert!(f.velocity(Vec2::new(0.1, -0.2)).norm() < 1e-12);
    }

    #[test]
    fn double_gyre_is_divergence_free() {
        let f = DoubleGyre::steady(Rect::new(Vec2::ZERO, Vec2::new(2.0, 1.0)));
        for &(x, y) in &[(0.5, 0.5), (1.3, 0.2), (1.9, 0.9), (0.1, 0.1)] {
            assert!(
                divergence(&f, Vec2::new(x, y), 1e-5).abs() < 1e-5,
                "at ({x},{y})"
            );
        }
    }

    #[test]
    fn double_gyre_boundaries_have_no_normal_flow() {
        let f = DoubleGyre::steady(Rect::new(Vec2::ZERO, Vec2::new(2.0, 1.0)));
        // On the top and bottom walls the vertical component vanishes.
        for x in [0.2, 0.9, 1.7] {
            assert!(f.velocity(Vec2::new(x, 0.0)).y.abs() < 1e-12);
            assert!(f.velocity(Vec2::new(x, 1.0)).y.abs() < 1e-12);
        }
    }

    #[test]
    fn lamb_oseen_velocity_is_finite_at_center() {
        let f = LambOseen {
            circulation: 1.0,
            core_radius: 0.1,
            center: Vec2::ZERO,
            domain: unit_domain(),
        };
        let v = f.velocity(Vec2::ZERO);
        assert!(v.is_finite());
        // Velocity grows from the centre, peaks near the core radius, then decays.
        let near = f.velocity(Vec2::new(0.01, 0.0)).norm();
        let peak = f.velocity(Vec2::new(0.11, 0.0)).norm();
        let far = f.velocity(Vec2::new(0.9, 0.0)).norm();
        assert!(near < peak);
        assert!(far < peak);
    }

    #[test]
    fn vortex_street_mean_flow_downstream() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(10.0, 4.0));
        let f = VortexStreet::new(dom);
        // Far upstream the street contribution is negligible.
        let v = f.velocity(Vec2::new(0.2, 2.0));
        assert!((v.x - f.free_stream).abs() < 0.2);
        // Near the street the flow fluctuates but stays finite.
        for k in 0..20 {
            let p = Vec2::new(3.0 + 0.3 * k as f64, 2.0 + 0.1 * (k % 3) as f64);
            assert!(f.velocity(p).is_finite());
        }
        assert!(f.velocity(Vec2::new(5.0, 2.3)).norm() > 0.0);
    }

    #[test]
    fn taylor_green_divergence_free() {
        let f = TaylorGreen {
            amplitude: 1.0,
            cells: 2.0,
            domain: Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0)),
        };
        for &(x, y) in &[(0.25, 0.25), (0.6, 0.4), (0.9, 0.8)] {
            assert!(divergence(&f, Vec2::new(x, y), 1e-5).abs() < 1e-4);
        }
    }

    #[test]
    fn fn_field_delegates_to_closure() {
        let f = FnField {
            f: |p: Vec2| p * 2.0,
            domain: unit_domain(),
        };
        assert_eq!(f.velocity(Vec2::new(0.5, -0.25)), Vec2::new(1.0, -0.5));
    }
}
