//! Particle ensembles with a life cycle.
//!
//! Spot-noise animation associates a particle with every spot (paper §2):
//! each frame, all particles are advected a small distance through the flow;
//! particles also have a finite life span and are re-seeded at a random
//! position when they die or leave the domain. Adjusting the "spot position
//! and spot life cycle" parameters is exactly what produces the lower image
//! of the paper's Figure 2.

use crate::grid::VectorField;
use crate::integrate::Integrator;
use crate::vec2::{Rect, Vec2};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A single particle: a position, the random intensity of its spot and its
/// remaining life span.
#[derive(Debug, Clone, Copy)]
pub struct Particle {
    /// Current position in field coordinates.
    pub position: Vec2,
    /// The random spot scaling factor `a_i` (zero-mean).
    pub intensity: f64,
    /// Age of the particle in frames.
    pub age: u32,
    /// Number of frames the particle lives before being re-seeded.
    pub lifetime: u32,
}

impl Particle {
    /// Remaining life as a fraction in `[0, 1]` (1 = newborn, 0 = expiring).
    pub fn vitality(&self) -> f64 {
        if self.lifetime == 0 {
            return 0.0;
        }
        1.0 - (self.age as f64 / self.lifetime as f64).min(1.0)
    }
}

/// Parameters of the particle ensemble / spot life cycle.
#[derive(Debug, Clone, Copy)]
pub struct ParticleOptions {
    /// Number of particles (spots per texture).
    pub count: usize,
    /// Mean lifetime in frames; individual lifetimes are jittered around it.
    pub mean_lifetime: u32,
    /// Relative jitter applied to lifetimes (0 = all equal).
    pub lifetime_jitter: f64,
    /// Amplitude of the zero-mean random intensities.
    pub intensity_amplitude: f64,
    /// Integration scheme for per-frame advection.
    pub integrator: Integrator,
    /// Sub-steps per frame advection.
    pub substeps: usize,
    /// If true, particles leaving the domain are immediately re-seeded;
    /// otherwise they are clamped to the boundary until they expire.
    pub reseed_on_exit: bool,
}

impl Default for ParticleOptions {
    fn default() -> Self {
        ParticleOptions {
            count: 1000,
            mean_lifetime: 50,
            lifetime_jitter: 0.25,
            intensity_amplitude: 1.0,
            integrator: Integrator::RungeKutta4,
            substeps: 1,
            reseed_on_exit: true,
        }
    }
}

/// Summary of what happened during one advection step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvectionStats {
    /// Particles whose lifetime expired this frame.
    pub expired: usize,
    /// Particles re-seeded because they left the domain.
    pub exited: usize,
    /// Total particles advected.
    pub advected: usize,
}

/// A collection of particles tied to a flow domain, advanced frame by frame.
#[derive(Debug, Clone)]
pub struct ParticleEnsemble {
    particles: Vec<Particle>,
    options: ParticleOptions,
    domain: Rect,
    rng: ChaCha8Rng,
    frame: u64,
}

impl ParticleEnsemble {
    /// Seeds `options.count` particles uniformly at random in `domain`.
    pub fn new(domain: Rect, options: ParticleOptions, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let particles = (0..options.count)
            .map(|_| Self::spawn(&mut rng, domain, &options, true))
            .collect();
        ParticleEnsemble {
            particles,
            options,
            domain,
            rng,
            frame: 0,
        }
    }

    fn spawn(
        rng: &mut ChaCha8Rng,
        domain: Rect,
        options: &ParticleOptions,
        randomize_age: bool,
    ) -> Particle {
        let position = Vec2::new(
            rng.gen_range(domain.min.x..=domain.max.x),
            rng.gen_range(domain.min.y..=domain.max.y),
        );
        // Zero-mean random intensity, as required by the spot-noise model.
        let intensity = rng.gen_range(-options.intensity_amplitude..=options.intensity_amplitude);
        let jitter = 1.0 + options.lifetime_jitter * rng.gen_range(-1.0..=1.0);
        let lifetime = ((options.mean_lifetime as f64 * jitter).round() as u32).max(1);
        // New ensembles get random ages so that deaths are spread over time
        // instead of all particles expiring in the same frame.
        let age = if randomize_age {
            rng.gen_range(0..lifetime)
        } else {
            0
        };
        Particle {
            position,
            intensity,
            age,
            lifetime,
        }
    }

    /// Number of particles in the ensemble.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// True when the ensemble holds no particles.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// The particles in their current state.
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// The ensemble options.
    pub fn options(&self) -> &ParticleOptions {
        &self.options
    }

    /// The flow domain particles live in.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// Number of frames advanced so far.
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Advances the ensemble by one animation frame: every particle is
    /// advected over `dt`, aged, and re-seeded when it expires or exits.
    pub fn step(&mut self, field: &dyn VectorField, dt: f64) -> AdvectionStats {
        let mut stats = AdvectionStats {
            advected: self.particles.len(),
            ..Default::default()
        };
        let substeps = self.options.substeps.max(1);
        for particle in &mut self.particles {
            let moved = self
                .options
                .integrator
                .advect(field, particle.position, dt, substeps);
            particle.age += 1;

            let expired = particle.age >= particle.lifetime;
            let exited = !self.domain.contains(moved);
            if expired {
                stats.expired += 1;
            }
            if exited && !expired {
                stats.exited += 1;
            }

            if expired || (exited && self.options.reseed_on_exit) {
                *particle = Self::spawn(&mut self.rng, self.domain, &self.options, false);
            } else {
                particle.position = self.domain.clamp(moved);
            }
        }
        self.frame += 1;
        stats
    }

    /// Positions of all particles (the spot positions for the next texture).
    pub fn positions(&self) -> Vec<Vec2> {
        self.particles.iter().map(|p| p.position).collect()
    }

    /// Replaces all particle positions with fresh uniform random positions
    /// (the "default spot noise" mode, where positions are not advected).
    pub fn scramble_positions(&mut self) {
        for particle in &mut self.particles {
            particle.position = Vec2::new(
                self.rng.gen_range(self.domain.min.x..=self.domain.max.x),
                self.rng.gen_range(self.domain.min.y..=self.domain.max.y),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::Uniform;

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    fn options(count: usize) -> ParticleOptions {
        ParticleOptions {
            count,
            mean_lifetime: 10,
            ..Default::default()
        }
    }

    #[test]
    fn ensemble_seeds_requested_count_inside_domain() {
        let e = ParticleEnsemble::new(domain(), options(128), 7);
        assert_eq!(e.len(), 128);
        assert!(!e.is_empty());
        assert!(e.particles().iter().all(|p| domain().contains(p.position)));
    }

    #[test]
    fn seeding_is_deterministic_per_seed() {
        let a = ParticleEnsemble::new(domain(), options(32), 42);
        let b = ParticleEnsemble::new(domain(), options(32), 42);
        let c = ParticleEnsemble::new(domain(), options(32), 43);
        for (pa, pb) in a.particles().iter().zip(b.particles()) {
            assert_eq!(pa.position, pb.position);
            assert_eq!(pa.intensity, pb.intensity);
        }
        // A different seed produces a different ensemble.
        assert!(a
            .particles()
            .iter()
            .zip(c.particles())
            .any(|(x, y)| x.position != y.position));
    }

    #[test]
    fn intensities_are_zero_mean_ish_and_bounded() {
        let e = ParticleEnsemble::new(domain(), options(4000), 3);
        let amp = e.options().intensity_amplitude;
        let mean: f64 = e.particles().iter().map(|p| p.intensity).sum::<f64>() / e.len() as f64;
        assert!(mean.abs() < 0.05, "sample mean {mean} too far from zero");
        assert!(e.particles().iter().all(|p| p.intensity.abs() <= amp));
    }

    #[test]
    fn step_advects_in_flow_direction() {
        let field = Uniform {
            velocity: Vec2::new(0.1, 0.0),
            domain: domain(),
        };
        let mut e = ParticleEnsemble::new(domain(), options(64), 11);
        let before = e.positions();
        let stats = e.step(&field, 0.5);
        assert_eq!(stats.advected, 64);
        let after = e.positions();
        // Particles that were not re-seeded moved right by 0.05.
        let mut moved = 0;
        for (b, a) in before.iter().zip(after.iter()) {
            if (a.x - b.x - 0.05).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9 {
                moved += 1;
            }
        }
        assert!(moved > 32, "most particles should advect normally");
        assert_eq!(e.frame(), 1);
    }

    #[test]
    fn particles_expire_and_are_reseeded() {
        let field = Uniform {
            velocity: Vec2::ZERO,
            domain: domain(),
        };
        let mut opts = options(50);
        opts.mean_lifetime = 3;
        opts.lifetime_jitter = 0.0;
        let mut e = ParticleEnsemble::new(domain(), opts, 5);
        let mut total_expired = 0;
        for _ in 0..6 {
            total_expired += e.step(&field, 0.01).expired;
        }
        // With lifetime 3 and six frames every particle expired at least once.
        assert!(total_expired >= 50, "expired {total_expired}");
        // Ages stay below the lifetime after reseeding.
        assert!(e.particles().iter().all(|p| p.age < p.lifetime));
    }

    #[test]
    fn exiting_particles_are_reseeded_inside_domain() {
        let field = Uniform {
            velocity: Vec2::new(100.0, 0.0),
            domain: domain(),
        };
        let mut e = ParticleEnsemble::new(domain(), options(40), 9);
        let stats = e.step(&field, 1.0);
        assert!(stats.exited + stats.expired > 0);
        assert!(e.particles().iter().all(|p| domain().contains(p.position)));
    }

    #[test]
    fn clamping_mode_keeps_particles_on_boundary() {
        let field = Uniform {
            velocity: Vec2::new(100.0, 0.0),
            domain: domain(),
        };
        let mut opts = options(20);
        opts.reseed_on_exit = false;
        opts.mean_lifetime = 1000;
        opts.lifetime_jitter = 0.0;
        let mut e = ParticleEnsemble::new(domain(), opts, 13);
        e.step(&field, 1.0);
        // Everyone hit the right edge and stayed there.
        assert!(e
            .particles()
            .iter()
            .all(|p| (p.position.x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn vitality_decreases_with_age() {
        let p = Particle {
            position: Vec2::ZERO,
            intensity: 0.0,
            age: 0,
            lifetime: 10,
        };
        assert!((p.vitality() - 1.0).abs() < 1e-12);
        let old = Particle { age: 10, ..p };
        assert!(old.vitality() <= 0.0 + 1e-12);
        let zero = Particle { lifetime: 0, ..p };
        assert_eq!(zero.vitality(), 0.0);
    }

    #[test]
    fn scramble_keeps_count_and_domain() {
        let mut e = ParticleEnsemble::new(domain(), options(30), 1);
        let before = e.positions();
        e.scramble_positions();
        let after = e.positions();
        assert_eq!(after.len(), 30);
        assert!(after.iter().all(|p| domain().contains(*p)));
        assert!(before.iter().zip(&after).any(|(a, b)| a != b));
    }
}
