//! Computational steering support.
//!
//! "Simultaneously, there is also a growing demand for interactive computing
//! in which users can control various aspects of the application" — the smog
//! application is a *steering* application: parameter changes made by the
//! user must reach the running simulation between frames. This module holds
//! the steerable parameter set and a small command queue that decouples the
//! UI (or script) issuing changes from the simulation loop applying them.

use std::collections::VecDeque;

/// The steerable parameters of the smog model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmogParameters {
    /// Scales all emission sources (the "emission parameters" of the paper).
    pub emission_multiplier: f64,
    /// Scales the wind speed used for pollutant transport (the
    /// "meteorological parameters").
    pub wind_multiplier: f64,
    /// Diffusion coefficient of the pollutant.
    pub diffusion: f64,
    /// Linear decay (deposition/chemistry) rate of the pollutant.
    pub decay: f64,
}

impl Default for SmogParameters {
    fn default() -> Self {
        SmogParameters {
            emission_multiplier: 1.0,
            wind_multiplier: 1.0,
            diffusion: 0.05,
            decay: 0.02,
        }
    }
}

/// A single steering command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteeringCommand {
    /// Replace the whole parameter set.
    SetParameters(SmogParameters),
    /// Scale the emission multiplier by a factor.
    ScaleEmissions(f64),
    /// Scale the wind multiplier by a factor.
    ScaleWind(f64),
    /// Set the diffusion coefficient.
    SetDiffusion(f64),
    /// Set the decay rate.
    SetDecay(f64),
}

/// A FIFO queue of steering commands applied at frame boundaries.
#[derive(Debug, Clone, Default)]
pub struct SteeringQueue {
    commands: VecDeque<SteeringCommand>,
}

impl SteeringQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SteeringQueue::default()
    }

    /// Enqueues a command (called from the interactive side).
    pub fn push(&mut self, cmd: SteeringCommand) {
        self.commands.push_back(cmd);
    }

    /// Number of pending commands.
    pub fn pending(&self) -> usize {
        self.commands.len()
    }

    /// Applies all pending commands to a parameter set, in order, and
    /// returns the updated parameters. The queue is drained.
    pub fn apply_all(&mut self, mut params: SmogParameters) -> SmogParameters {
        while let Some(cmd) = self.commands.pop_front() {
            params = apply(params, cmd);
        }
        params
    }
}

fn apply(mut params: SmogParameters, cmd: SteeringCommand) -> SmogParameters {
    match cmd {
        SteeringCommand::SetParameters(p) => params = p,
        SteeringCommand::ScaleEmissions(f) => params.emission_multiplier *= f,
        SteeringCommand::ScaleWind(f) => params.wind_multiplier *= f,
        SteeringCommand::SetDiffusion(d) => params.diffusion = d,
        SteeringCommand::SetDecay(d) => params.decay = d,
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_neutral() {
        let p = SmogParameters::default();
        assert_eq!(p.emission_multiplier, 1.0);
        assert_eq!(p.wind_multiplier, 1.0);
        assert!(p.diffusion > 0.0);
        assert!(p.decay > 0.0);
    }

    #[test]
    fn queue_applies_commands_in_order() {
        let mut q = SteeringQueue::new();
        q.push(SteeringCommand::ScaleEmissions(2.0));
        q.push(SteeringCommand::ScaleEmissions(3.0));
        q.push(SteeringCommand::SetDiffusion(0.5));
        assert_eq!(q.pending(), 3);
        let p = q.apply_all(SmogParameters::default());
        assert!((p.emission_multiplier - 6.0).abs() < 1e-12);
        assert_eq!(p.diffusion, 0.5);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn set_parameters_overrides_previous_changes() {
        let mut q = SteeringQueue::new();
        q.push(SteeringCommand::ScaleWind(5.0));
        q.push(SteeringCommand::SetParameters(SmogParameters::default()));
        let p = q.apply_all(SmogParameters::default());
        assert_eq!(p, SmogParameters::default());
    }

    #[test]
    fn empty_queue_is_identity() {
        let mut q = SteeringQueue::new();
        let before = SmogParameters {
            emission_multiplier: 3.0,
            ..Default::default()
        };
        assert_eq!(q.apply_all(before), before);
    }

    #[test]
    fn individual_setters() {
        let p = apply(SmogParameters::default(), SteeringCommand::SetDecay(0.7));
        assert_eq!(p.decay, 0.7);
        let p = apply(p, SteeringCommand::ScaleWind(0.5));
        assert_eq!(p.wind_multiplier, 0.5);
    }
}
