//! Flow diagnostics that check the DNS substitute's physics.
//!
//! The paper's turbulence study asks how "the evolution of the vortex
//! shedding behind a block, the transition from laminar to turbulent flow"
//! relate to other quantities. The regression tests hold the DNS substitute
//! to that picture with a velocity probe that records a time series at a
//! point in the wake, a dominant-frequency estimate of that series (the
//! shedding frequency, i.e. a Strouhal-number proxy) and simple energy
//! statistics per frame. Nothing outside the tests reads them, so the
//! module is compiled for tests only.

use crate::dns::DnsSolver;
use flowfield::Vec2;

/// A single probe sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ProbeSample {
    /// Simulation time of the sample.
    pub time: f64,
    /// Velocity at the probe position.
    pub velocity: Vec2,
}

/// A velocity probe at a fixed position, accumulating a time series.
#[derive(Debug, Clone)]
pub(crate) struct WakeProbe {
    /// Probe position in world coordinates.
    pub position: Vec2,
    samples: Vec<ProbeSample>,
}

impl WakeProbe {
    /// Creates a probe at an explicit position.
    pub(crate) fn at(position: Vec2) -> Self {
        WakeProbe {
            position,
            samples: Vec::new(),
        }
    }

    /// Creates a probe one block-length downstream of the obstacle, on the
    /// channel centre line — the classic position for measuring shedding.
    pub(crate) fn behind_block(solver: &DnsSolver) -> Self {
        let block = solver.block().rect;
        let position = Vec2::new(block.max.x + 1.5 * block.width(), block.center().y);
        WakeProbe::at(position)
    }

    /// Records the current solver state.
    pub(crate) fn record(&mut self, solver: &DnsSolver) {
        self.samples.push(ProbeSample {
            time: solver.time(),
            velocity: solver.sample(self.position),
        });
    }

    /// The recorded samples.
    pub(crate) fn samples(&self) -> &[ProbeSample] {
        &self.samples
    }

    /// Number of samples recorded.
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean and standard deviation of the transverse (v) velocity — the
    /// fluctuation level that signals vortex shedding.
    pub(crate) fn transverse_stats(&self) -> (f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().map(|s| s.velocity.y).sum::<f64>() / n;
        let var = self
            .samples
            .iter()
            .map(|s| (s.velocity.y - mean) * (s.velocity.y - mean))
            .sum::<f64>()
            / n;
        (mean, var.sqrt())
    }

    /// Estimates the dominant oscillation frequency of the transverse
    /// velocity by scanning a discrete set of candidate frequencies with a
    /// direct Fourier projection (no FFT dependency needed for a few hundred
    /// samples). Returns `None` when fewer than 8 samples were recorded or
    /// the record has (near-)zero variance.
    pub(crate) fn dominant_frequency(&self) -> Option<f64> {
        if self.samples.len() < 8 {
            return None;
        }
        let t0 = self.samples.first().unwrap().time;
        let t1 = self.samples.last().unwrap().time;
        let span = t1 - t0;
        if span <= 0.0 {
            return None;
        }
        let (mean, std) = self.transverse_stats();
        if std < 1e-9 {
            return None;
        }
        let n = self.samples.len();
        // Candidate frequencies: 1..n/2 cycles over the record length.
        let mut best = (0.0f64, 0.0f64); // (power, frequency)
        for k in 1..(n / 2) {
            let f = k as f64 / span;
            let mut re = 0.0;
            let mut im = 0.0;
            for s in &self.samples {
                let phase = 2.0 * std::f64::consts::PI * f * (s.time - t0);
                let v = s.velocity.y - mean;
                re += v * phase.cos();
                im += v * phase.sin();
            }
            let power = re * re + im * im;
            if power > best.0 {
                best = (power, f);
            }
        }
        Some(best.1)
    }

    /// Strouhal-number proxy `f * L / U` using the block height as the
    /// length scale and the inflow speed as the velocity scale.
    pub(crate) fn strouhal(&self, solver: &DnsSolver) -> Option<f64> {
        let f = self.dominant_frequency()?;
        let length = solver.block().rect.height();
        let u = solver.config().inflow;
        if u <= 0.0 {
            return None;
        }
        Some(f * length / u)
    }
}

/// Per-frame energy statistics of the DNS state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnergyReport {
    /// Mean kinetic energy per node (0.5 * |u|^2).
    pub mean_kinetic_energy: f64,
    /// Maximum speed over the grid.
    pub max_speed: f64,
}

/// Computes the energy statistics of the current solver state.
pub(crate) fn energy_report(solver: &DnsSolver) -> EnergyReport {
    let grid = solver.velocity_grid();
    let mut sum = 0.0;
    let mut max_speed = 0.0f64;
    for v in grid.samples() {
        let s = v.norm();
        sum += 0.5 * s * s;
        max_speed = max_speed.max(s);
    }
    EnergyReport {
        mean_kinetic_energy: sum / grid.samples().len() as f64,
        max_speed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::{DnsConfig, DnsSolver};

    fn run_with_probe(steps: usize, record_every: usize) -> (DnsSolver, WakeProbe) {
        let mut solver = DnsSolver::new(DnsConfig::small_test());
        let mut probe = WakeProbe::behind_block(&solver);
        for k in 0..steps {
            solver.step(0.02);
            if k % record_every == 0 {
                probe.record(&solver);
            }
        }
        (solver, probe)
    }

    #[test]
    fn probe_records_samples_in_time_order() {
        let (_, probe) = run_with_probe(40, 2);
        assert_eq!(probe.len(), 20);
        assert!(!probe.is_empty());
        assert!(probe.samples().windows(2).all(|w| w[1].time > w[0].time));
    }

    #[test]
    fn probe_position_is_downstream_of_block() {
        let solver = DnsSolver::new(DnsConfig::small_test());
        let probe = WakeProbe::behind_block(&solver);
        assert!(probe.position.x > solver.block().rect.max.x);
        assert!(solver.config().domain.contains(probe.position));
    }

    #[test]
    fn empty_probe_statistics_are_safe() {
        let probe = WakeProbe::at(Vec2::new(1.0, 1.0));
        assert_eq!(probe.transverse_stats(), (0.0, 0.0));
        assert!(probe.dominant_frequency().is_none());
    }

    #[test]
    fn transverse_fluctuations_grow_as_the_wake_develops() {
        let (_, early) = run_with_probe(30, 1);
        let (_, late) = run_with_probe(260, 1);
        let (_, early_std) = early.transverse_stats();
        let (_, late_std) = late.transverse_stats();
        assert!(late_std >= early_std, "early {early_std}, late {late_std}");
        assert!(late_std.is_finite());
    }

    #[test]
    fn dominant_frequency_detects_a_synthetic_oscillation() {
        // Feed the probe a synthetic sine series and check the estimator.
        let mut probe = WakeProbe::at(Vec2::ZERO);
        let freq = 0.8; // cycles per time unit
        for k in 0..200 {
            let t = k as f64 * 0.05;
            probe.samples.push(ProbeSample {
                time: t,
                velocity: Vec2::new(1.0, (2.0 * std::f64::consts::PI * freq * t).sin()),
            });
        }
        let f = probe.dominant_frequency().unwrap();
        assert!((f - freq).abs() < 0.15, "estimated {f}, expected {freq}");
    }

    #[test]
    fn strouhal_proxy_is_in_a_plausible_range_when_shedding() {
        let (solver, probe) = run_with_probe(300, 1);
        // The coarse solver may or may not lock onto a clean shedding cycle,
        // but when a frequency is detected the Strouhal proxy must be a small
        // positive number (physical vortex streets sit around 0.1-0.3).
        if let Some(st) = probe.strouhal(&solver) {
            assert!(st > 0.0 && st < 2.0, "Strouhal proxy {st}");
        }
    }

    #[test]
    fn energy_report_is_positive_and_bounded() {
        let (solver, _) = run_with_probe(50, 5);
        let e = energy_report(&solver);
        assert!(e.mean_kinetic_energy > 0.0);
        assert!(e.max_speed > 0.5 * solver.config().inflow);
        assert!(e.max_speed < 10.0 * solver.config().inflow);
    }
}
