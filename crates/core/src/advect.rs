//! Spot animation: coupling spots to advected particles.
//!
//! A spot-noise animation of a flow field is realised "by associating a
//! particle with each spot position. A new frame in the animation sequence is
//! determined by advecting all particles over a small distance through the
//! flow field" (paper §2). The paper's Figure 2 contrasts the *default* mode
//! (independent random positions every frame) with the *advected* mode
//! (particle paths with a life cycle), which is what reveals the separation
//! line on the block. [`SpotAnimator`] implements both modes behind one
//! interface.

use crate::spot::Spot;
use flowfield::particles::{AdvectionStats, ParticleEnsemble, ParticleOptions};
use flowfield::{Rect, VectorField};

/// How spot positions evolve from frame to frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionMode {
    /// Default spot noise: positions are re-randomised every frame, so
    /// successive frames are statistically independent.
    Random,
    /// Spot positions follow particle paths through the flow, with the
    /// particle life cycle controlling re-seeding.
    Advected,
}

/// Manages the spot population across animation frames.
#[derive(Debug, Clone)]
pub struct SpotAnimator {
    ensemble: ParticleEnsemble,
    mode: PositionMode,
    fade_with_age: bool,
}

impl SpotAnimator {
    /// Creates an animator with `count` spots over `domain`.
    pub fn new(domain: Rect, count: usize, mode: PositionMode, seed: u64) -> Self {
        let options = ParticleOptions {
            count,
            ..Default::default()
        };
        SpotAnimator {
            ensemble: ParticleEnsemble::new(domain, options, seed),
            mode,
            fade_with_age: false,
        }
    }

    /// Creates an animator with full control over the particle life cycle.
    pub fn with_options(
        domain: Rect,
        options: ParticleOptions,
        mode: PositionMode,
        seed: u64,
    ) -> Self {
        SpotAnimator {
            ensemble: ParticleEnsemble::new(domain, options, seed),
            mode,
            fade_with_age: false,
        }
    }

    /// When enabled, spot intensities are modulated by the particle's
    /// remaining life so that spots fade in/out instead of popping. This is
    /// one of the "parameters related to spot position and spot life cycle"
    /// the paper adjusts to produce the lower image of Figure 2.
    pub fn set_fade_with_age(&mut self, fade: bool) {
        self.fade_with_age = fade;
    }

    /// The position mode.
    pub fn mode(&self) -> PositionMode {
        self.mode
    }

    /// Number of spots.
    pub fn len(&self) -> usize {
        self.ensemble.len()
    }

    /// True when the animator manages no spots.
    pub fn is_empty(&self) -> bool {
        self.ensemble.is_empty()
    }

    /// Number of frames advanced so far.
    pub fn frame(&self) -> u64 {
        self.ensemble.frame()
    }

    /// The current spot population (pipeline step 3 input).
    pub fn spots(&self) -> Vec<Spot> {
        self.ensemble
            .particles()
            .iter()
            .map(|p| {
                let fade = if self.fade_with_age {
                    // Triangular fade: 0 at birth and death, 1 at mid-life.
                    let v = p.vitality();
                    (2.0 * v.min(1.0 - v) * 2.0).min(1.0)
                } else {
                    1.0
                };
                Spot {
                    position: p.position,
                    intensity: (p.intensity * fade) as f32,
                }
            })
            .collect()
    }

    /// Advances the animation by one frame: in `Advected` mode particles are
    /// integrated through the field over `dt`; in `Random` mode positions are
    /// re-scrambled (and the life cycle still ticks so intensities change).
    pub fn advance(&mut self, field: &dyn VectorField, dt: f64) -> AdvectionStats {
        match self.mode {
            PositionMode::Advected => self.ensemble.step(field, dt),
            PositionMode::Random => {
                let stats = self.ensemble.step(field, 0.0);
                self.ensemble.scramble_positions();
                stats
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use flowfield::analytic::Vortex;
    use flowfield::particles::ParticleOptions;
    use flowfield::Vec2;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The service's frame-advance path leans on the spot life cycle:
    /// whatever the field, step size or lifetime, after any number of
    /// steps every live spot must still be inside the domain, no
    /// particle may outlive its lifetime, and a respawned particle must
    /// carry a freshly drawn phase (position and random intensity), not
    /// its predecessor's.
    #[test]
    fn life_cycle_keeps_spots_in_domain_and_respawns_fresh() {
        let seed = 0x11FE;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..24 {
            let animator_seed = rng.gen_range(0u64..200);
            let steps = rng.gen_range(1usize..25);
            let mean_lifetime = rng.gen_range(2u32..12);
            let dt = rng.gen_range(0.01..0.4);
            let omega = rng.gen_range(-6.0..6.0);
            let context = format!(
                "seed {seed:#x}, case {case}: animator seed {animator_seed}, steps {steps}, \
                 mean lifetime {mean_lifetime}, dt {dt}, omega {omega}"
            );
            let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
            let field = Vortex {
                omega,
                center: Vec2::new(0.8, 0.8),
                domain,
            };
            let options = ParticleOptions {
                count: 120,
                mean_lifetime,
                ..Default::default()
            };
            let mut animator =
                SpotAnimator::with_options(domain, options, PositionMode::Advected, animator_seed);
            let mut respawns_seen = 0usize;
            for step in 0..steps {
                let before = animator.ensemble.particles().to_vec();
                animator.advance(&field, dt);
                let after = animator.ensemble.particles();
                assert_eq!(after.len(), before.len(), "{context}");
                for (slot, (prev, p)) in before.iter().zip(after).enumerate() {
                    assert!(
                        domain.contains(p.position),
                        "{context}, step {step} slot {slot}: position {:?} escaped the domain",
                        p.position
                    );
                    assert!(
                        p.age < p.lifetime,
                        "{context}, step {step} slot {slot}: age {} not below lifetime {}",
                        p.age,
                        p.lifetime
                    );
                    // Survivors aged by exactly one frame; a particle whose
                    // age reset to 0 was respawned this step and must have a
                    // fresh phase — a newly drawn position *and* intensity,
                    // not the dead particle's values carried over.
                    if p.age == 0 {
                        respawns_seen += 1;
                        assert!(
                            p.position != prev.position && p.intensity != prev.intensity,
                            "{context}, step {step} slot {slot}: respawn kept stale phase"
                        );
                    } else {
                        assert_eq!(p.age, prev.age + 1, "{context}, step {step} slot {slot}");
                        assert_eq!(
                            p.intensity, prev.intensity,
                            "{context}, step {step} slot {slot}"
                        );
                        assert_eq!(
                            p.lifetime, prev.lifetime,
                            "{context}, step {step} slot {slot}"
                        );
                    }
                }
                // The spots handed to synthesis mirror the ensemble.
                let spots = animator.spots();
                assert!(
                    spots.iter().all(|s| domain.contains(s.position)),
                    "{context}, step {step}"
                );
            }
            // With lifetimes far below the step count the cycle must have
            // actually recycled particles, otherwise the property above
            // never exercised the respawn arm.
            if steps as u32 > 2 * mean_lifetime {
                assert!(
                    respawns_seen > 0,
                    "{context}: no particle was ever recycled"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::analytic::Uniform;
    use flowfield::Vec2;

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    fn flow() -> Uniform {
        Uniform {
            velocity: Vec2::new(0.05, 0.0),
            domain: domain(),
        }
    }

    #[test]
    fn animator_produces_requested_spot_count() {
        let a = SpotAnimator::new(domain(), 200, PositionMode::Advected, 1);
        assert_eq!(a.len(), 200);
        assert!(!a.is_empty());
        let spots = a.spots();
        assert_eq!(spots.len(), 200);
        assert!(spots.iter().all(|s| domain().contains(s.position)));
    }

    #[test]
    fn advected_mode_moves_spots_coherently() {
        let mut a = SpotAnimator::new(domain(), 100, PositionMode::Advected, 2);
        let before = a.spots();
        a.advance(&flow(), 1.0);
        let after = a.spots();
        // Most spots moved right by ~0.05 (some were re-seeded).
        let coherent = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| (a.position.x - b.position.x - 0.05).abs() < 1e-9)
            .count();
        assert!(coherent > 60, "only {coherent} spots advected coherently");
        assert_eq!(a.frame(), 1);
    }

    #[test]
    fn random_mode_decorrelates_positions() {
        let mut a = SpotAnimator::new(domain(), 100, PositionMode::Random, 3);
        let before = a.spots();
        a.advance(&flow(), 1.0);
        let after = a.spots();
        // Essentially no spot keeps its position in random mode.
        let kept = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| (a.position - b.position).norm() < 1e-9)
            .count();
        assert!(kept < 5, "{kept} spots kept their position");
        // All positions stay in the domain.
        assert!(after.iter().all(|s| domain().contains(s.position)));
    }

    #[test]
    fn fade_with_age_bounds_intensities() {
        let mut a = SpotAnimator::new(domain(), 500, PositionMode::Advected, 4);
        a.set_fade_with_age(true);
        let raw_max = a
            .spots()
            .iter()
            .map(|s| s.intensity.abs())
            .fold(0.0f32, f32::max);
        assert!(raw_max <= 1.0 + 1e-6);
        // After a step, intensities remain bounded and not all zero.
        a.advance(&flow(), 0.1);
        let spots = a.spots();
        assert!(spots.iter().any(|s| s.intensity != 0.0));
        assert!(spots.iter().all(|s| s.intensity.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn custom_particle_options_respected() {
        let options = ParticleOptions {
            count: 42,
            mean_lifetime: 5,
            ..Default::default()
        };
        let a = SpotAnimator::with_options(domain(), options, PositionMode::Advected, 9);
        assert_eq!(a.len(), 42);
        assert_eq!(a.mode(), PositionMode::Advected);
    }
}
