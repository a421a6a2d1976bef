//! Numerical integration of particle trajectories through a vector field.
//!
//! Particle advection (pipeline step 2 in the paper) and stream-line
//! integration for bent spots both reduce to integrating `dx/dt = v(x)`.
//! Three explicit schemes are provided; RK4 is the default used by the
//! spot-noise pipeline, Euler is kept as the cheap/fast option the paper's
//! speed-vs-quality trade-off discussion alludes to.

use crate::grid::VectorField;
use crate::vec2::Vec2;

/// Explicit integration scheme for `dx/dt = v(x)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Forward Euler: first order, one field evaluation per step.
    Euler,
    /// Midpoint (RK2): second order, two evaluations per step.
    Midpoint,
    /// Classical Runge–Kutta (RK4): fourth order, four evaluations per step.
    #[default]
    RungeKutta4,
}

impl Integrator {
    /// Advances position `p` by one step of size `dt` through `field`.
    pub fn step(self, field: &dyn VectorField, p: Vec2, dt: f64) -> Vec2 {
        match self {
            Integrator::Euler => p + field.velocity(p) * dt,
            Integrator::Midpoint => {
                let k1 = field.velocity(p);
                let k2 = field.velocity(p + k1 * (dt * 0.5));
                p + k2 * dt
            }
            Integrator::RungeKutta4 => {
                let k1 = field.velocity(p);
                let k2 = field.velocity(p + k1 * (dt * 0.5));
                let k3 = field.velocity(p + k2 * (dt * 0.5));
                let k4 = field.velocity(p + k3 * dt);
                p + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6.0)
            }
        }
    }

    /// Advances `p` by `steps` equal sub-steps covering total time `t_total`.
    pub fn advect(self, field: &dyn VectorField, mut p: Vec2, t_total: f64, steps: usize) -> Vec2 {
        assert!(steps > 0, "need at least one sub-step");
        let dt = t_total / steps as f64;
        for _ in 0..steps {
            p = self.step(field, p, dt);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{Uniform, Vortex};
    use crate::vec2::Rect;

    fn vortex() -> Vortex {
        Vortex {
            omega: 1.0,
            center: Vec2::ZERO,
            domain: Rect::new(Vec2::new(-2.0, -2.0), Vec2::new(2.0, 2.0)),
        }
    }

    #[test]
    fn uniform_flow_all_schemes_exact() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 2.0),
            domain: Rect::UNIT,
        };
        for integ in [
            Integrator::Euler,
            Integrator::Midpoint,
            Integrator::RungeKutta4,
        ] {
            let p = integ.step(&f, Vec2::ZERO, 0.5);
            assert!((p.x - 0.5).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rk4_conserves_vortex_radius_much_better_than_euler() {
        let f = vortex();
        let start = Vec2::new(1.0, 0.0);
        let total_time = std::f64::consts::PI; // half revolution
        let steps = 50;
        let euler = Integrator::Euler.advect(&f, start, total_time, steps);
        let rk4 = Integrator::RungeKutta4.advect(&f, start, total_time, steps);
        let euler_err = (euler.norm() - 1.0).abs();
        let rk4_err = (rk4.norm() - 1.0).abs();
        assert!(rk4_err < 1e-6, "rk4 radius error {rk4_err}");
        assert!(euler_err > 10.0 * rk4_err, "euler should be much worse");
    }

    #[test]
    fn rk4_half_revolution_lands_at_antipode() {
        let f = vortex();
        let p = Integrator::RungeKutta4.advect(&f, Vec2::new(1.0, 0.0), std::f64::consts::PI, 200);
        assert!((p.x + 1.0).abs() < 1e-5);
        assert!(p.y.abs() < 1e-5);
    }

    #[test]
    fn midpoint_between_euler_and_rk4_accuracy() {
        let f = vortex();
        let start = Vec2::new(1.0, 0.0);
        let t = 2.0;
        let steps = 40;
        let e = (Integrator::Euler.advect(&f, start, t, steps).norm() - 1.0).abs();
        let m = (Integrator::Midpoint.advect(&f, start, t, steps).norm() - 1.0).abs();
        let r = (Integrator::RungeKutta4.advect(&f, start, t, steps).norm() - 1.0).abs();
        assert!(m < e);
        assert!(r < m);
    }

    #[test]
    fn evals_per_step_matches_scheme() {
        assert_eq!(Integrator::Euler.evals_per_step(), 1);
        assert_eq!(Integrator::Midpoint.evals_per_step(), 2);
        assert_eq!(Integrator::RungeKutta4.evals_per_step(), 4);
    }

    #[test]
    fn advect_positions_updates_every_entry() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: Rect::UNIT,
        };
        let mut pos = vec![Vec2::ZERO, Vec2::new(0.5, 0.5)];
        advect_positions(&f, &mut pos, 0.25, Integrator::Euler);
        assert_eq!(pos[0], Vec2::new(0.25, 0.0));
        assert_eq!(pos[1], Vec2::new(0.75, 0.5));
    }

    #[test]
    fn trajectory_stays_in_domain_and_has_expected_length() {
        let f = Uniform {
            velocity: Vec2::new(10.0, 0.0),
            domain: Rect::UNIT,
        };
        let tr = trajectory(&f, Vec2::new(0.5, 0.5), 0.1, 20, Integrator::Euler);
        assert_eq!(tr.len(), 21);
        assert!(tr.iter().all(|p| f.domain().contains(*p)));
        // The trajectory saturates at the right edge rather than escaping.
        assert!((tr.last().unwrap().x - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sub-step")]
    fn advect_requires_positive_steps() {
        let f = Uniform {
            velocity: Vec2::ZERO,
            domain: Rect::UNIT,
        };
        let _ = Integrator::Euler.advect(&f, Vec2::ZERO, 1.0, 0);
    }

    impl Integrator {
        /// Number of field evaluations performed per step.
        fn evals_per_step(self) -> usize {
            match self {
                Integrator::Euler => 1,
                Integrator::Midpoint => 2,
                Integrator::RungeKutta4 => 4,
            }
        }
    }

    /// Advects a whole slice of positions in place by one step.
    fn advect_positions(
        field: &dyn VectorField,
        positions: &mut [Vec2],
        dt: f64,
        integrator: Integrator,
    ) {
        for p in positions.iter_mut() {
            *p = integrator.step(field, *p, dt);
        }
    }

    /// Integrates a trajectory and records every intermediate position
    /// (including the start), clamping to the field domain.
    fn trajectory(
        field: &dyn VectorField,
        start: Vec2,
        dt: f64,
        steps: usize,
        integrator: Integrator,
    ) -> Vec<Vec2> {
        let domain = field.domain();
        let mut out = Vec::with_capacity(steps + 1);
        let mut p = domain.clamp(start);
        out.push(p);
        for _ in 0..steps {
            p = domain.clamp(integrator.step(field, p, dt));
            out.push(p);
        }
        out
    }
}
