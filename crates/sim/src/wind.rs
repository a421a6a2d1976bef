//! Synthetic continental-scale wind fields.
//!
//! The paper's smog-prediction application reads its wind field from an
//! atmospheric transport model (EUROS) that is not available; this module is
//! the documented substitution. Wind is generated from a time-varying
//! *streamfunction* built as a superposition of drifting pressure systems
//! (cyclones and anticyclones) over a westerly background flow. Because the
//! velocity is the curl of a scalar streamfunction, the synthetic wind is
//! divergence-free by construction — matching the qualitative character of
//! large-scale atmospheric flow and exercising exactly the same code path
//! (a time-varying 53x55 regular grid re-read every frame) as the original.

use flowfield::{Rect, RegularGrid, Vec2};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A drifting pressure system contributing a Gaussian bump to the
/// streamfunction (positive strength = anticyclone, negative = cyclone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PressureSystem {
    /// Centre position at time zero.
    pub center: Vec2,
    /// Drift velocity of the system.
    pub drift: Vec2,
    /// Peak streamfunction amplitude (sign selects rotation sense).
    pub strength: f64,
    /// Gaussian radius of the system.
    pub radius: f64,
}

impl PressureSystem {
    fn center_at(&self, time: f64, domain: Rect) -> Vec2 {
        // Systems drift and wrap around the domain horizontally (weather
        // keeps arriving from the west).
        let raw = self.center + self.drift * time;
        let w = domain.width();
        let mut x = (raw.x - domain.min.x) % w;
        if x < 0.0 {
            x += w;
        }
        Vec2::new(domain.min.x + x, raw.y.clamp(domain.min.y, domain.max.y))
    }

    fn streamfunction(&self, p: Vec2, time: f64, domain: Rect) -> f64 {
        let c = self.center_at(time, domain);
        let d2 = (p - c).norm_sq();
        self.strength * (-d2 / (2.0 * self.radius * self.radius)).exp()
    }
}

/// The synthetic wind model: background westerlies plus drifting systems.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindModel {
    /// Domain of the atmospheric slice ("Europe").
    pub domain: Rect,
    /// Background west-to-east wind speed.
    pub background: f64,
    /// The pressure systems.
    pub systems: Vec<PressureSystem>,
}

impl WindModel {
    /// Builds a model with `n_systems` randomly placed systems over `domain`.
    pub(crate) fn synthetic(domain: Rect, n_systems: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scale = domain.width().min(domain.height());
        let systems = (0..n_systems)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                PressureSystem {
                    center: Vec2::new(
                        rng.gen_range(domain.min.x..domain.max.x),
                        rng.gen_range(domain.min.y..domain.max.y),
                    ),
                    drift: Vec2::new(
                        rng.gen_range(0.02..0.08) * scale,
                        rng.gen_range(-0.01..0.01) * scale,
                    ),
                    strength: sign * rng.gen_range(0.05..0.15) * scale * scale,
                    radius: rng.gen_range(0.12..0.3) * scale,
                }
            })
            .collect();
        WindModel {
            domain,
            background: 0.06 * scale,
            systems,
        }
    }

    /// The default "Europe" configuration used by the smog application: a
    /// unit-aspect domain with four systems.
    pub(crate) fn europe(seed: u64) -> Self {
        WindModel::synthetic(Rect::new(Vec2::ZERO, Vec2::new(10.0, 10.0)), 4, seed)
    }

    /// Streamfunction at a point and time.
    pub(crate) fn streamfunction(&self, p: Vec2, time: f64) -> f64 {
        // Background westerly flow u = U corresponds to psi = U * y.
        let mut psi = self.background * (p.y - self.domain.center().y);
        for s in &self.systems {
            psi += s.streamfunction(p, time, self.domain);
        }
        psi
    }

    /// Wind velocity at a point and time, computed as the curl of the
    /// streamfunction with central differences (divergence-free by
    /// construction up to discretisation error).
    pub(crate) fn velocity(&self, p: Vec2, time: f64) -> Vec2 {
        let h = self.domain.width().min(self.domain.height()) * 1e-4;
        let dpsidy = (self.streamfunction(p + Vec2::new(0.0, h), time)
            - self.streamfunction(p - Vec2::new(0.0, h), time))
            / (2.0 * h);
        let dpsidx = (self.streamfunction(p + Vec2::new(h, 0.0), time)
            - self.streamfunction(p - Vec2::new(h, 0.0), time))
            / (2.0 * h);
        Vec2::new(dpsidy, -dpsidx)
    }

    /// Samples the wind at `time` onto a regular grid (the 53x55 grid the
    /// smog application reads every frame).
    pub(crate) fn sample(&self, nx: usize, ny: usize, time: f64) -> RegularGrid {
        RegularGrid::from_fn(nx, ny, self.domain, |p| self.velocity(p, time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::analytic::divergence;
    use flowfield::stats::field_stats;
    use flowfield::VectorField;

    #[test]
    fn europe_model_is_deterministic_per_seed() {
        let a = WindModel::europe(3);
        let b = WindModel::europe(3);
        let c = WindModel::europe(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.systems.len(), 4);
    }

    #[test]
    fn wind_is_divergence_free() {
        let m = WindModel::europe(1);
        let snap = m.at_time(3.0);
        let d = m.domain;
        for &(u, v) in &[(0.2, 0.3), (0.5, 0.5), (0.8, 0.7), (0.35, 0.9)] {
            let p = d.from_unit(Vec2::new(u, v));
            let div = divergence(&snap, p, d.width() * 1e-3);
            let speed = snap.velocity(p).norm().max(1e-6);
            assert!(
                div.abs() / speed < 0.05,
                "relative divergence {} at {p:?}",
                div.abs() / speed
            );
        }
    }

    #[test]
    fn wind_changes_over_time() {
        let m = WindModel::europe(2);
        let p = m.domain.center();
        let v0 = m.velocity(p, 0.0);
        let v1 = m.velocity(p, 20.0);
        assert!((v0 - v1).norm() > 1e-6, "wind did not evolve");
    }

    #[test]
    fn background_produces_westerly_mean_flow() {
        let m = WindModel::europe(5);
        let snap = m.at_time(0.0);
        let stats = field_stats(&snap, 20, 20);
        // Mean flow points eastward (positive x) on average.
        assert!(stats.mean_velocity.x > 0.0, "{:?}", stats.mean_velocity);
        assert!(stats.max_speed > stats.mean_speed);
    }

    #[test]
    fn sampled_grid_has_paper_resolution_and_matches_model() {
        let m = WindModel::europe(7);
        let g = m.sample(53, 55, 1.5);
        assert_eq!(g.nx(), 53);
        assert_eq!(g.ny(), 55);
        // The sampled grid interpolates to roughly the model velocity.
        let p = m.domain.from_unit(Vec2::new(0.37, 0.61));
        let exact = m.velocity(p, 1.5);
        let interp = g.interpolate(p);
        assert!((exact - interp).norm() < 0.15 * exact.norm().max(1e-9) + 1e-6);
    }

    #[test]
    fn systems_drift_and_wrap_horizontally() {
        let m = WindModel::europe(9);
        let s = &m.systems[0];
        let c0 = s.center_at(0.0, m.domain);
        let c1 = s.center_at(5.0, m.domain);
        assert!(c0 != c1);
        // Even after a very long time the centre stays inside the domain.
        let far = s.center_at(1.0e4, m.domain);
        assert!(m.domain.contains(far));
    }

    impl WindModel {
        /// A frozen view of the model at a fixed time, usable as a
        /// [`VectorField`].
        pub(crate) fn at_time(&self, time: f64) -> WindSnapshot<'_> {
            WindSnapshot { model: self, time }
        }
    }

    /// A [`VectorField`] view of a [`WindModel`] at a fixed time.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct WindSnapshot<'a> {
        model: &'a WindModel,
        time: f64,
    }

    impl VectorField for WindSnapshot<'_> {
        fn velocity(&self, p: Vec2) -> Vec2 {
            self.model.velocity(p, self.time)
        }
        fn domain(&self) -> Rect {
            self.model.domain
        }
    }
}
