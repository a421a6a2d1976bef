//! # spotnoise-bench — workload builders for the reproduction harness
//!
//! Every table and figure of the paper is regenerated from the workloads
//! defined here. A [`Workload`] bundles a vector field (produced by the
//! application substrates in `flowsim`), a spot population and a synthesis
//! configuration; the `reproduce` targets and the benchmark binaries then run
//! the sequential, divide-and-conquer and CPU-only executors over it.
//!
//! Two sizes exist for each workload:
//!
//! * `*_paper()` — the exact parameters of the paper (512x512 texture, 2 500
//!   bent 32x17 spots for the atmospheric case, 40 000 bent 16x3 spots for
//!   the turbulence case). Used by the `reproduce` binary that regenerates
//!   Tables 1 and 2 through the calibrated cost model.
//! * `*_scaled()` — reduced versions (smaller texture, fewer spots, coarser
//!   meshes) with the same *structure*, used by `reproduce --quick` and
//!   `reproduce ablations` so a full sweep completes in seconds.

#![warn(missing_docs)]

pub mod cluster_bench;
pub mod json;
pub mod raster_bench;
pub mod service_bench;

use flowfield::{Rect, RegularGrid, Vec2, VectorField};
use flowsim::{DnsConfig, DnsSolver, SmogModel};
use softpipe::machine::MachineConfig;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::synthesize_dnc;
use spotnoise::perfmodel::PerfPrediction;
use spotnoise::spot::{generate_spots, Spot};

/// A complete benchmark workload: field + spots + configuration.
pub struct Workload {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// The vector field being visualised.
    pub field: Box<dyn VectorField + Send + Sync>,
    /// The spot population.
    pub spots: Vec<Spot>,
    /// The synthesis configuration.
    pub config: SynthesisConfig,
}

impl Workload {
    fn from_grid(name: &'static str, grid: RegularGrid, config: SynthesisConfig) -> Self {
        let spots = generate_spots(
            config.spot_count,
            grid.domain(),
            config.intensity_amplitude,
            config.seed,
        );
        Workload {
            name,
            field: Box::new(grid),
            spots,
            config,
        }
    }
}

/// Builds the atmospheric-pollution wind field by stepping the smog model a
/// few frames, then freezing the wind grid of the last frame.
fn atmospheric_field() -> RegularGrid {
    let mut model = SmogModel::paper_resolution(1997);
    for _ in 0..5 {
        model.step(0.2);
    }
    model.wind_field().clone()
}

/// Builds the turbulence slice by running the DNS substitute until the wake
/// has developed. `nx`/`ny` control the solver resolution (the paper slice is
/// 278x208; the scaled workload uses a coarser solve).
fn turbulence_field(nx: usize, ny: usize, steps: usize) -> RegularGrid {
    let mut solver = DnsSolver::new(DnsConfig {
        nx,
        ny,
        ..DnsConfig::paper_resolution()
    });
    for _ in 0..steps {
        solver.step(0.02);
    }
    solver.velocity_grid()
}

/// Table 1 workload at the paper's full parameters.
pub fn atmospheric_paper() -> Workload {
    Workload::from_grid(
        "atmospheric (paper)",
        atmospheric_field(),
        SynthesisConfig::atmospheric_paper(),
    )
}

/// Table 1 workload scaled down for wall-clock benches: same 53x55 wind grid,
/// but a 256² texture, 600 bent spots and a 12x7 mesh.
pub fn atmospheric_scaled() -> Workload {
    let config = SynthesisConfig {
        texture_size: 256,
        spot_count: 600,
        spot_kind: SpotKind::Bent { rows: 12, cols: 7 },
        spot_texture_size: 16,
        ..SynthesisConfig::atmospheric_paper()
    };
    Workload::from_grid("atmospheric (scaled)", atmospheric_field(), config)
}

/// Table 2 workload at the paper's full parameters (the DNS solve itself runs
/// at a coarser resolution than 278x208 to keep the data-generation time
/// reasonable; the *visualization* workload — spot count, mesh size, texture
/// size — is exactly the paper's).
pub fn turbulence_paper() -> Workload {
    Workload::from_grid(
        "turbulence (paper)",
        turbulence_field(139, 104, 300),
        SynthesisConfig::turbulence_paper(),
    )
}

/// Table 2 workload scaled down for wall-clock benches.
pub fn turbulence_scaled() -> Workload {
    let config = SynthesisConfig {
        texture_size: 256,
        spot_count: 4000,
        spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
        spot_texture_size: 16,
        ..SynthesisConfig::turbulence_paper()
    };
    Workload::from_grid("turbulence (scaled)", turbulence_field(90, 64, 150), config)
}

/// A tiny analytic workload for micro-benchmarks of the substrates.
pub fn analytic_small() -> Workload {
    let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Vortex {
        omega: 1.0,
        center: domain.center(),
        domain,
    };
    let config = SynthesisConfig::small_test();
    let spots = generate_spots(
        config.spot_count,
        domain,
        config.intensity_amplitude,
        config.seed,
    );
    Workload {
        name: "analytic vortex (small)",
        field: Box::new(field),
        spots,
        config,
    }
}

/// One cell of a reproduced table: machine shape plus the simulated and
/// measured throughput.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Number of processors (table row).
    pub processors: usize,
    /// Number of graphics pipes (table column).
    pub pipes: usize,
    /// Simulated (Onyx2 cost model) textures per second — the number that is
    /// compared against the paper's table.
    pub simulated_textures_per_second: f64,
    /// Wall-clock textures per second measured on the host for the same run.
    pub measured_textures_per_second: f64,
    /// The full prediction record.
    pub prediction: PerfPrediction,
}

/// Runs the divide-and-conquer executor over a workload for every machine
/// configuration in the paper's sweep and collects the table cells.
pub fn run_table_sweep(workload: &Workload) -> Vec<SweepCell> {
    MachineConfig::paper_sweep()
        .into_iter()
        .map(|machine| {
            let out = synthesize_dnc(
                workload.field.as_ref(),
                &workload.spots,
                &workload.config,
                &machine,
            );
            SweepCell {
                processors: machine.processors,
                pipes: machine.pipes,
                simulated_textures_per_second: out.predicted.textures_per_second,
                measured_textures_per_second: out.measured_textures_per_second(),
                prediction: out.report.predicted,
            }
        })
        .collect()
}

/// Formats a sweep as the paper formats its tables: rows = processors,
/// columns = pipes, entries = textures per second.
pub fn format_table(cells: &[SweepCell], simulated: bool) -> String {
    let mut processors: Vec<usize> = cells.iter().map(|c| c.processors).collect();
    processors.sort_unstable();
    processors.dedup();
    let mut pipes: Vec<usize> = cells.iter().map(|c| c.pipes).collect();
    pipes.sort_unstable();
    pipes.dedup();

    let mut out = String::new();
    out.push_str("procs\\pipes");
    for g in &pipes {
        out.push_str(&format!("{g:>8}"));
    }
    out.push('\n');
    for p in &processors {
        out.push_str(&format!("{p:>11}"));
        for g in &pipes {
            let cell = cells.iter().find(|c| c.processors == *p && c.pipes == *g);
            match cell {
                Some(c) => {
                    let v = if simulated {
                        c.simulated_textures_per_second
                    } else {
                        c.measured_textures_per_second
                    };
                    out.push_str(&format!("{v:>8.1}"));
                }
                None => out.push_str(&format!("{:>8}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// The paper's published Table 1 (textures/second), used for the
/// shape comparison `reproduce table1` prints and the regression tests.
pub fn paper_table1() -> Vec<(usize, usize, f64)> {
    vec![
        (1, 1, 1.0),
        (2, 1, 2.0),
        (2, 2, 2.0),
        (4, 1, 2.8),
        (4, 2, 3.6),
        (4, 4, 3.9),
        (8, 1, 2.7),
        (8, 2, 4.9),
        (8, 4, 5.6),
    ]
}

/// The paper's published Table 2 (textures/second).
pub fn paper_table2() -> Vec<(usize, usize, f64)> {
    vec![
        (1, 1, 0.7),
        (2, 1, 1.3),
        (2, 2, 1.3),
        (4, 1, 2.1),
        (4, 2, 2.1),
        (4, 4, 2.4),
        (8, 1, 2.5),
        (8, 2, 3.2),
        (8, 4, 3.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_workloads_are_consistent() {
        let w = atmospheric_scaled();
        assert_eq!(w.spots.len(), w.config.spot_count);
        assert!(w.config.validate().is_ok());
        assert!(w.field.domain().area() > 0.0);
        let t = turbulence_scaled();
        assert_eq!(t.spots.len(), t.config.spot_count);
    }

    #[test]
    fn paper_workload_configs_match_paper_parameters() {
        let atm = SynthesisConfig::atmospheric_paper();
        assert_eq!(atm.texture_size, 512);
        assert_eq!(atm.spot_count, 2500);
        let dns = SynthesisConfig::turbulence_paper();
        assert_eq!(dns.spot_count, 40_000);
    }

    #[test]
    fn analytic_workload_sweeps_quickly_and_has_paper_shape() {
        // A full paper sweep of the tiny analytic workload must (a) run in a
        // test-friendly time and (b) reproduce the qualitative structure of
        // the tables: more processors help, and the (8,4) cell is the
        // fastest simulated configuration.
        let w = analytic_small();
        let cells = run_table_sweep(&w);
        assert_eq!(cells.len(), 9);
        let get = |p: usize, g: usize| {
            cells
                .iter()
                .find(|c| c.processors == p && c.pipes == g)
                .unwrap()
                .simulated_textures_per_second
        };
        assert!(get(2, 1) >= get(1, 1));
        assert!(get(8, 1) >= get(1, 1));
        // For such a tiny workload the sequential gather overhead dominates,
        // so adding pipes is NOT expected to help — which is itself the
        // behaviour eq. 3.2 predicts (the `c` term); just check everything is
        // positive and finite.
        assert!(cells
            .iter()
            .all(|c| c.simulated_textures_per_second.is_finite()
                && c.simulated_textures_per_second > 0.0));
        // Formatting produces one row per processor count plus the header.
        let table = format_table(&cells, true);
        assert_eq!(table.lines().count(), 1 + 4);
    }

    #[test]
    fn published_tables_have_nine_cells_each() {
        assert_eq!(paper_table1().len(), 9);
        assert_eq!(paper_table2().len(), 9);
        // Throughputs grow along the diagonal of each published table.
        let t1 = paper_table1();
        assert!(t1.last().unwrap().2 > t1.first().unwrap().2);
    }
}
