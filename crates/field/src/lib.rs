//! # flowfield — vector-field substrate for divide-and-conquer spot noise
//!
//! This crate provides everything the spot-noise pipeline needs to know about
//! the data it visualizes:
//!
//! * [`Vec2`], [`Mat2`], [`Rect`] — 2-D vector/matrix/rectangle arithmetic,
//! * [`RegularGrid`], [`RectilinearGrid`], [`ScalarGrid`] — sampled grids
//!   with bilinear interpolation, plus the [`VectorField`]/[`ScalarField`]
//!   traits the rest of the workspace programs against,
//! * [`analytic`] — closed-form test fields (vortex, saddle, double gyre,
//!   Taylor–Green, ...),
//! * [`Integrator`] — Euler/RK2/RK4 particle integration,
//! * [`streamline`] — arc-length stream-line tracing used by bent spots,
//! * [`particles`] — particle ensembles with life cycles (spot positions),
//! * [`stats`] — field statistics and the speed normaliser.
//!
//! The crate is deliberately free of any rendering or parallelism concerns;
//! it is the "read data set" and "advect particles" substrate of the paper's
//! pipeline (steps 1 and 2 of figure 3).

#![warn(missing_docs)]

pub mod analytic;
mod grid;
mod integrate;
#[cfg(test)]
mod io;
pub mod particles;
pub mod stats;
pub mod streamline;
mod vec2;

pub use grid::{RectilinearGrid, RegularGrid, ScalarField, ScalarGrid, VectorField};
pub use integrate::Integrator;
pub use particles::{Particle, ParticleEnsemble, ParticleOptions};
pub use streamline::{trace_streamline, Streamline, StreamlineOptions};
pub use vec2::{Mat2, Rect, Vec2};

#[cfg(test)]
mod proptests {
    use crate::analytic::{divergence, Vortex};
    use crate::grid::{RegularGrid, VectorField};
    use crate::integrate::Integrator;
    use crate::streamline::{trace_streamline, StreamlineOptions};
    use crate::vec2::{Rect, Vec2};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn domain() -> Rect {
        Rect::new(Vec2::new(-1.0, -1.0), Vec2::new(1.0, 1.0))
    }

    /// Bilinear interpolation of a grid never exceeds the range of the
    /// node values it interpolates between (convexity).
    #[test]
    fn interpolation_is_convex() {
        let seed = 0xF1E1D;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let (x, y) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            let grid_seed = rng.gen_range(0u64..1000);
            let mut nodes = ChaCha8Rng::seed_from_u64(grid_seed);
            let g = RegularGrid::from_fn(6, 6, domain(), |_| {
                Vec2::new(nodes.gen_range(-1.0..1.0), nodes.gen_range(-1.0..1.0))
            });
            let v = g.interpolate(Vec2::new(x, y));
            let max_x = g
                .samples()
                .iter()
                .map(|s| s.x)
                .fold(f64::NEG_INFINITY, f64::max);
            let min_x = g
                .samples()
                .iter()
                .map(|s| s.x)
                .fold(f64::INFINITY, f64::min);
            assert!(
                v.x <= max_x + 1e-12 && v.x >= min_x - 1e-12,
                "seed {seed:#x}, case {case}: x {x}, y {y}, grid seed {grid_seed}"
            );
        }
    }

    /// Vortex fields are divergence-free everywhere we can probe.
    #[test]
    fn vortex_divergence_free() {
        let seed = 0xD1F;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let (x, y) = (rng.gen_range(-0.9..0.9), rng.gen_range(-0.9..0.9));
            let omega = rng.gen_range(0.1..5.0);
            let f = Vortex {
                omega,
                center: Vec2::ZERO,
                domain: domain(),
            };
            assert!(
                divergence(&f, Vec2::new(x, y), 1e-4).abs() < 1e-5,
                "seed {seed:#x}, case {case}: x {x}, y {y}, omega {omega}"
            );
        }
    }

    /// RK4 advection through a vortex conserves the orbit radius.
    #[test]
    fn rk4_conserves_radius() {
        let seed = 0x4B4;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let r = rng.gen_range(0.1..0.9);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let t = rng.gen_range(0.0..2.0);
            let f = Vortex {
                omega: 1.0,
                center: Vec2::ZERO,
                domain: domain(),
            };
            let start = Vec2::from_angle(theta) * r;
            let end = Integrator::RungeKutta4.advect(&f, start, t, 64);
            assert!(
                (end.norm() - r).abs() < 1e-4,
                "seed {seed:#x}, case {case}: r {r}, theta {theta}, t {t}"
            );
        }
    }

    /// Stream lines never leave the field domain.
    #[test]
    fn streamlines_stay_in_domain() {
        let seed = 0x57E;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let (x, y) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            let len = rng.gen_range(0.1..3.0);
            let f = Vortex {
                omega: 1.0,
                center: Vec2::ZERO,
                domain: domain(),
            };
            let sl = trace_streamline(&f, Vec2::new(x, y), len, &StreamlineOptions::default());
            assert!(
                sl.points
                    .iter()
                    .all(|p| f.domain().expanded(1e-9).contains(*p)),
                "seed {seed:#x}, case {case}: x {x}, y {y}, len {len}"
            );
        }
    }

    /// Resampled stream lines have exactly the requested vertex count and
    /// preserve the end points.
    #[test]
    fn resample_count() {
        let seed = 0x2E5;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let n = rng.gen_range(2usize..64);
            let (x, y) = (rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5));
            let context = format!("seed {seed:#x}, case {case}: n {n}, x {x}, y {y}");
            let f = Vortex {
                omega: 1.0,
                center: Vec2::ZERO,
                domain: domain(),
            };
            let sl = trace_streamline(&f, Vec2::new(x, y), 0.5, &StreamlineOptions::default());
            let r = sl.resample(n);
            assert_eq!(r.len(), n, "{context}");
            if sl.points.len() >= 2 {
                assert!((r[0] - sl.points[0]).norm() < 1e-9, "{context}");
                assert!(
                    (r[n - 1] - *sl.points.last().unwrap()).norm() < 1e-9,
                    "{context}"
                );
            }
        }
    }
}
