//! # flowsim — application substrates for divide-and-conquer spot noise
//!
//! The paper evaluates the parallel spot-noise implementation on two
//! applications whose original codes and data are not available; this crate
//! holds the documented substitutes (each module's documentation gives its
//! substitution rationale):
//!
//! * [`wind`] + [`smog`] + [`steering`] — the *atmospheric pollution* steering
//!   application: a synthetic continental wind model and an
//!   advection–diffusion–emission pollutant model on the paper's 53x55 grid,
//!   with steerable emission/meteorology parameters (Table 1, Figure 6),
//! * [`dns`] + [`obstacle`] + [`browser`] — the *turbulent flow* browsing
//!   application: a 2-D incompressible solver producing vortex shedding
//!   behind a block, sampled on the paper's 278x208 slice grid and stored in
//!   a time-series data base for playback (Table 2, Figure 7),
//! * [`skin_friction`] — the reconstructed skin-friction pattern on the block
//!   face (Figure 2).

#![warn(missing_docs)]

pub mod browser;
pub mod diagnostics;
pub mod dns;
pub mod obstacle;
pub mod skin_friction;
pub mod smog;
pub mod steering;
pub mod wind;

pub use browser::{record_dns_run, DataBrowser, FrameInfo};
pub use diagnostics::{energy_report, EnergyReport, WakeProbe};
pub use dns::{DnsConfig, DnsSolver};
pub use obstacle::Block;
pub use skin_friction::{
    attachment_height, pattern_from_dns, skin_friction_field, SkinFrictionPattern,
};
pub use smog::{EmissionSource, SmogModel};
pub use steering::{SmogParameters, SteeringCommand, SteeringQueue};
pub use wind::{PressureSystem, WindModel};

#[cfg(test)]
mod proptests {
    use crate::steering::{SmogParameters, SteeringCommand, SteeringQueue};
    use crate::wind::WindModel;
    use flowfield::analytic::divergence;
    use flowfield::Vec2;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The synthetic wind stays (relatively) divergence free at any time
    /// and position — the property that makes it a fair stand-in for a
    /// large-scale atmospheric flow.
    #[test]
    fn wind_divergence_free_everywhere() {
        let seed = 0x814D;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..16 {
            let model_seed = rng.gen_range(0u64..50);
            let t = rng.gen_range(0.0..50.0);
            let (u, v) = (rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9));
            let m = WindModel::europe(model_seed);
            let snap = m.at_time(t);
            let p = m.domain.from_unit(Vec2::new(u, v));
            let speed = m.velocity(p, t).norm().max(1e-6);
            let div = divergence(&snap, p, m.domain.width() * 1e-3);
            assert!(
                div.abs() / speed < 0.1,
                "seed {seed:#x}, case {case}: model seed {model_seed}, t {t}, u {u}, v {v}: \
                 relative divergence {}",
                div.abs() / speed
            );
        }
    }

    /// Steering commands always leave the parameter set finite and the
    /// multiplicative commands compose as expected.
    #[test]
    fn steering_scaling_composes() {
        let seed = 0x57EE;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..16 {
            let (a, b) = (rng.gen_range(0.1..10.0), rng.gen_range(0.1..10.0));
            let mut q = SteeringQueue::new();
            q.push(SteeringCommand::ScaleEmissions(a));
            q.push(SteeringCommand::ScaleEmissions(b));
            let p = q.apply_all(SmogParameters::default());
            let context = format!("seed {seed:#x}, case {case}: a {a}, b {b}");
            assert!((p.emission_multiplier - a * b).abs() < 1e-9, "{context}");
            assert!(p.emission_multiplier.is_finite(), "{context}");
        }
    }
}
