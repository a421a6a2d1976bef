//! The atmospheric-pollution (smog prediction) steering application.
//!
//! The paper's first application steers a smog-prediction simulation: the
//! user monitors the evolution of pollutant concentrations (here ozone, O₃)
//! while changing emission, meteorological and geographical parameters, and
//! the wind field is displayed with spot noise instead of arrow plots.
//!
//! The substitute model implemented here is an advection–diffusion–reaction
//! equation for a single pollutant concentration on the paper's 53x55
//! regular grid, driven by the synthetic wind of [`crate::wind`]:
//!
//! ```text
//! ∂c/∂t + u·∇c = D ∇²c + E(x) − λ c
//! ```
//!
//! with emission sources `E` at city locations, diffusion `D`, linear decay
//! `λ`, and semi-Lagrangian advection so the step stays stable for the large
//! time steps an interactive session uses. All steerable parameters live in
//! [`SmogParameters`] and can be changed between frames.

use crate::steering::SmogParameters;
use crate::wind::WindModel;
use flowfield::{Integrator, Rect, RegularGrid, ScalarGrid, Vec2, VectorField};

/// An emission source (a city or industrial area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmissionSource {
    /// Location of the source.
    pub position: Vec2,
    /// Emission strength (concentration units per time unit at the centre).
    pub rate: f64,
    /// Gaussian radius of the emission footprint.
    pub radius: f64,
}

/// The smog-prediction model state.
#[derive(Debug, Clone)]
pub struct SmogModel {
    wind: WindModel,
    params: SmogParameters,
    sources: Vec<EmissionSource>,
    concentration: ScalarGrid,
    wind_grid: RegularGrid,
    nx: usize,
    ny: usize,
    time: f64,
}

impl SmogModel {
    /// Grid resolution used by the paper's data set.
    pub const PAPER_NX: usize = 53;
    /// Grid resolution used by the paper's data set.
    pub const PAPER_NY: usize = 55;

    /// Creates the model on an `nx` x `ny` grid with default parameters and
    /// a handful of emission sources spread over the domain.
    pub fn new(nx: usize, ny: usize, seed: u64) -> Self {
        let wind = WindModel::europe(seed);
        let domain = wind.domain;
        let sources = default_sources(domain);
        let concentration = ScalarGrid::zeros(nx, ny, domain);
        let wind_grid = wind.sample(nx, ny, 0.0);
        SmogModel {
            wind,
            params: SmogParameters::default(),
            sources,
            concentration,
            wind_grid,
            nx,
            ny,
            time: 0.0,
        }
    }

    /// Creates the model at the paper's 53x55 resolution.
    pub fn paper_resolution(seed: u64) -> Self {
        SmogModel::new(Self::PAPER_NX, Self::PAPER_NY, seed)
    }

    /// The simulation domain.
    pub fn domain(&self) -> Rect {
        self.wind.domain
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current steering parameters.
    pub fn params(&self) -> &SmogParameters {
        &self.params
    }

    /// Applies new steering parameters (takes effect from the next step).
    pub fn set_params(&mut self, params: SmogParameters) {
        self.params = params;
    }

    /// The emission sources.
    pub fn sources(&self) -> &[EmissionSource] {
        &self.sources
    }

    /// Adds an emission source interactively.
    pub fn add_source(&mut self, source: EmissionSource) {
        self.sources.push(source);
    }

    /// The wind field of the current frame (what spot noise visualises).
    pub fn wind_field(&self) -> &RegularGrid {
        &self.wind_grid
    }

    /// The pollutant concentration of the current frame (the colormapped
    /// overlay of Figure 6).
    pub fn concentration(&self) -> &ScalarGrid {
        &self.concentration
    }

    /// Advances the simulation by `dt`: refreshes the wind grid from the
    /// wind model, advects/diffuses the pollutant and applies emissions and
    /// decay.
    pub fn step(&mut self, dt: f64) {
        self.time += dt;
        // Step 1 of the pipeline: a new wind data set arrives each frame.
        self.wind_grid = self.wind.sample(self.nx, self.ny, self.time);
        let wind_scale = self.params.wind_multiplier;

        let domain = self.domain();
        let spacing = Vec2::new(
            domain.width() / (self.nx - 1) as f64,
            domain.height() / (self.ny - 1) as f64,
        );
        let old = self.concentration.clone();

        // Scaled wind field used for the advection of the pollutant.
        let scaled = ScaledField {
            grid: &self.wind_grid,
            scale: wind_scale,
        };

        let mut next = ScalarGrid::zeros(self.nx, self.ny, domain);
        for j in 0..self.ny {
            for i in 0..self.nx {
                let p = old.node_position(i, j);
                // Semi-Lagrangian advection: trace the characteristic back in
                // time and sample the old concentration there.
                let departure = Integrator::RungeKutta4.step(&Reversed(&scaled), p, dt);
                let departure = domain.clamp(departure);
                let advected = old.interpolate(departure);

                // Explicit diffusion (5-point Laplacian of the old field).
                let ip = (i + 1).min(self.nx - 1);
                let im = i.saturating_sub(1);
                let jp = (j + 1).min(self.ny - 1);
                let jm = j.saturating_sub(1);
                let lap = (old.node(ip, j) - 2.0 * old.node(i, j) + old.node(im, j))
                    / (spacing.x * spacing.x)
                    + (old.node(i, jp) - 2.0 * old.node(i, j) + old.node(i, jm))
                        / (spacing.y * spacing.y);

                // Emission and decay.
                let mut emission = 0.0;
                for s in &self.sources {
                    let d2 = (p - s.position).norm_sq();
                    emission += s.rate
                        * self.params.emission_multiplier
                        * (-d2 / (2.0 * s.radius * s.radius)).exp();
                }

                let value = advected + dt * (self.params.diffusion * lap + emission)
                    - dt * self.params.decay * advected;
                *next.node_mut(i, j) = value.max(0.0);
            }
        }
        self.concentration = next;
    }

    /// Total pollutant mass (grid sum), a conserved-ish quantity useful for
    /// regression tests and steering feedback.
    pub fn total_pollutant(&self) -> f64 {
        self.concentration.samples().iter().sum()
    }
}

fn default_sources(domain: Rect) -> Vec<EmissionSource> {
    // A handful of "cities" at fixed fractional positions.
    let positions = [
        (0.25, 0.35),
        (0.45, 0.55),
        (0.62, 0.42),
        (0.7, 0.7),
        (0.35, 0.75),
    ];
    positions
        .iter()
        .map(|&(u, v)| EmissionSource {
            position: domain.from_unit(Vec2::new(u, v)),
            rate: 1.0,
            radius: 0.03 * domain.width(),
        })
        .collect()
}

/// A velocity field scaled by a steering multiplier.
struct ScaledField<'a> {
    grid: &'a RegularGrid,
    scale: f64,
}

impl VectorField for ScaledField<'_> {
    fn velocity(&self, p: Vec2) -> Vec2 {
        self.grid.interpolate(p) * self.scale
    }
    fn domain(&self) -> Rect {
        self.grid.domain()
    }
}

/// A time-reversed field (for backward characteristic tracing).
struct Reversed<'a, F: VectorField>(&'a F);

impl<F: VectorField> VectorField for Reversed<'_, F> {
    fn velocity(&self, p: Vec2) -> Vec2 {
        -self.0.velocity(p)
    }
    fn domain(&self) -> Rect {
        self.0.domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> SmogModel {
        SmogModel::new(27, 28, 11)
    }

    #[test]
    fn paper_resolution_matches_dataset() {
        let m = SmogModel::paper_resolution(1);
        assert_eq!(m.wind_field().nx(), 53);
        assert_eq!(m.wind_field().ny(), 55);
        assert_eq!(m.concentration().nx(), 53);
        assert_eq!(m.concentration().ny(), 55);
    }

    #[test]
    fn pollutant_grows_from_emissions() {
        let mut m = small_model();
        assert_eq!(m.total_pollutant(), 0.0);
        for _ in 0..10 {
            m.step(0.1);
        }
        assert!(m.total_pollutant() > 0.0);
        // Concentration is non-negative everywhere.
        assert!(m.concentration().samples().iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn emission_multiplier_steers_pollutant_mass() {
        let mut low = small_model();
        let mut high = small_model();
        let mut p = *high.params();
        p.emission_multiplier = 4.0;
        high.set_params(p);
        for _ in 0..10 {
            low.step(0.1);
            high.step(0.1);
        }
        assert!(high.total_pollutant() > 2.0 * low.total_pollutant());
    }

    #[test]
    fn decay_removes_pollutant() {
        let mut m = small_model();
        for _ in 0..10 {
            m.step(0.1);
        }
        let before = m.total_pollutant();
        // Switch off emissions, crank up decay: mass must fall.
        let mut p = *m.params();
        p.emission_multiplier = 0.0;
        p.decay = 2.0;
        m.set_params(p);
        for _ in 0..10 {
            m.step(0.1);
        }
        assert!(m.total_pollutant() < before);
    }

    #[test]
    fn wind_field_changes_every_frame() {
        let mut m = small_model();
        let w0 = m.wind_field().clone();
        m.step(0.5);
        let w1 = m.wind_field();
        let diff: f64 = w0
            .samples()
            .iter()
            .zip(w1.samples())
            .map(|(a, b)| (*a - *b).norm())
            .sum();
        assert!(diff > 1e-6, "wind grid did not change");
        assert!((m.time() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pollutant_plume_drifts_downwind() {
        // With a single strong source and eastward mean wind, the centre of
        // mass of the plume moves to the east of the source over time.
        let mut m = SmogModel::new(41, 41, 3);
        m.sources.clear();
        let src = EmissionSource {
            position: m.domain().from_unit(Vec2::new(0.3, 0.5)),
            rate: 5.0,
            radius: 0.03 * m.domain().width(),
        };
        m.add_source(src);
        for _ in 0..30 {
            m.step(0.2);
        }
        // Centre of mass of the concentration.
        let c = m.concentration();
        let mut mass = 0.0;
        let mut mx = 0.0;
        for j in 0..c.ny() {
            for i in 0..c.nx() {
                let v = c.node(i, j);
                mass += v;
                mx += v * c.node_position(i, j).x;
            }
        }
        let com_x = mx / mass.max(1e-12);
        assert!(
            com_x > src.position.x,
            "plume centre {com_x} not downwind of source {}",
            src.position.x
        );
    }

    #[test]
    fn adding_sources_increases_emission() {
        let mut m = small_model();
        let n_before = m.sources().len();
        m.add_source(EmissionSource {
            position: m.domain().center(),
            rate: 2.0,
            radius: 0.5,
        });
        assert_eq!(m.sources().len(), n_before + 1);
    }
}
