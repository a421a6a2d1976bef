//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p spotnoise-bench --bin reproduce -- all
//! cargo run --release -p spotnoise-bench --bin reproduce -- table1 table2
//! cargo run --release -p spotnoise-bench --bin reproduce -- figure6 --out results
//! cargo run --release -p spotnoise-bench --bin reproduce -- table1 --quick
//! cargo run --release -p spotnoise-bench --bin reproduce -- ablations --out results
//! ```
//!
//! Outputs:
//! * tables are printed to stdout (simulated Onyx2 throughput next to the
//!   paper's published numbers and the measured host throughput) and written
//!   as JSON to `<out>/tableN.json`;
//! * figures are written as PPM images to `<out>/figureN*.ppm`;
//! * `ablations` sweeps the design choices the paper argues from (mesh
//!   resolution, spot count, tiling, transform placement, executor) on the
//!   scaled workloads, prints host and simulated textures/s per variant and
//!   writes `<out>/ablations.json`.
//!
//! An unknown target, or `--out` without a directory, prints the usage line
//! and exits non-zero before any target runs.

use flowfield::analytic::Vortex;
use flowfield::particles::ParticleOptions;
use flowfield::{Rect, Vec2};
use flowsim::{pattern_from_dns, skin_friction_field, DnsConfig, DnsSolver, SmogModel};
use flowviz::{
    draw_map, draw_rect_outline, overlay_scalar_field, texture_to_framebuffer, Colormap,
};
use softpipe::machine::MachineConfig;
use softpipe::Rgb;
use spotnoise::advect::PositionMode;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::{synthesize_cpu_only, synthesize_dnc, DncOutput};
use spotnoise::filter::standard_postprocess;
use spotnoise::perfmodel::eq_2_1;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use spotnoise::spot::generate_spots;
use spotnoise::synth::synthesize_sequential;
use spotnoise_bench::json::Json;
use spotnoise_bench::{
    analytic_small, atmospheric_paper, atmospheric_scaled, format_table, paper_table1,
    paper_table2, run_table_sweep, turbulence_paper, turbulence_scaled, SweepCell, Workload,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Every target, in the order `all` (or no target) runs them.
const TARGETS: [&str; 9] = [
    "table1",
    "table2",
    "figure1",
    "figure2",
    "figure6",
    "figure7",
    "bandwidth",
    "pipeline",
    "ablations",
];

const USAGE: &str = "usage: reproduce [all|table1|table2|figure1|figure2|figure6|figure7|\
                     bandwidth|pipeline|ablations]... [--quick] [--out <dir>]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    targets: Vec<&'static str>,
    out_dir: PathBuf,
    quick: bool,
}

/// Parses the arguments after the program name. An unknown target or a
/// `--out` without a directory is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        targets: Vec::new(),
        out_dir: PathBuf::from("results"),
        quick: false,
    };
    let mut all = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                parsed.out_dir = PathBuf::from(iter.next().ok_or("--out needs a directory")?);
            }
            "--quick" => parsed.quick = true,
            "all" => all = true,
            other => match TARGETS.into_iter().find(|t| *t == other) {
                Some(target) => parsed.targets.push(target),
                None => return Err(format!("unknown target: {other}")),
            },
        }
    }
    if all || parsed.targets.is_empty() {
        parsed.targets = TARGETS.to_vec();
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        targets,
        out_dir,
        quick,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    for target in targets {
        match target {
            "table1" => reproduce_table(1, quick, &out_dir),
            "table2" => reproduce_table(2, quick, &out_dir),
            "figure1" => figure1(&out_dir),
            "figure2" => figure2(&out_dir),
            "figure6" => figure6(&out_dir, quick),
            "figure7" => figure7(&out_dir, quick),
            "bandwidth" => bandwidth(quick),
            "pipeline" => pipeline_breakdown(),
            "ablations" => ablations(&out_dir),
            _ => unreachable!("parse_args admits only TARGETS"),
        }
    }
    ExitCode::SUCCESS
}

fn reproduce_table(which: u8, quick: bool, out_dir: &Path) {
    let (workload, published) = match (which, quick) {
        (1, false) => (atmospheric_paper(), paper_table1()),
        (1, true) => (atmospheric_scaled(), paper_table1()),
        (2, false) => (turbulence_paper(), paper_table2()),
        (2, true) => (turbulence_scaled(), paper_table2()),
        _ => unreachable!(),
    };
    println!("=== Table {which}: {} ===", workload.name);
    println!(
        "{} spots of kind {:?}, {}x{} texture, {} vertices/texture",
        workload.config.spot_count,
        workload.config.spot_kind,
        workload.config.texture_size,
        workload.config.texture_size,
        workload.config.vertices_per_texture(),
    );
    let cells = run_table_sweep(&workload);
    println!("\nSimulated Onyx2 textures/second (cost model, this reproduction):");
    println!("{}", format_table(&cells, true));
    println!("Published textures/second (paper Table {which}):");
    println!("{}", format_published(&published));
    println!("Measured host wall-clock textures/second (this machine, software pipes):");
    println!("{}", format_table(&cells, false));
    let json = spotnoise_bench::json::sweep_cells_to_json(&cells);
    let path = out_dir.join(format!("table{which}.json"));
    std::fs::write(&path, json).expect("write table json");
    println!("wrote {}\n", path.display());
    summarize_shape(&cells, &published);
}

fn format_published(published: &[(usize, usize, f64)]) -> String {
    let cells: Vec<SweepCell> = published
        .iter()
        .map(|&(p, g, v)| SweepCell {
            processors: p,
            pipes: g,
            simulated_textures_per_second: v,
            measured_textures_per_second: v,
            prediction: spotnoise::perfmodel::PerfPrediction {
                group_seconds: vec![],
                blend_seconds: 0.0,
                total_seconds: if v > 0.0 { 1.0 / v } else { 0.0 },
                textures_per_second: v,
                bus_seconds: 0.0,
            },
        })
        .collect();
    format_table(&cells, true)
}

fn summarize_shape(cells: &[SweepCell], published: &[(usize, usize, f64)]) {
    let sim = |p: usize, g: usize| {
        cells
            .iter()
            .find(|c| c.processors == p && c.pipes == g)
            .map(|c| c.simulated_textures_per_second)
            .unwrap_or(0.0)
    };
    let base_sim = sim(1, 1).max(1e-9);
    let base_pub = published
        .iter()
        .find(|(p, g, _)| *p == 1 && *g == 1)
        .map(|(_, _, v)| *v)
        .unwrap_or(1.0);
    println!("Speedup over the (1,1) cell — published vs simulated:");
    for (p, g, v) in published {
        let s_pub = v / base_pub;
        let s_sim = sim(*p, *g) / base_sim;
        println!("  ({p}, {g}): paper {s_pub:>4.1}x   reproduction {s_sim:>4.1}x");
    }
    println!();
}

/// Figure 1: a single spot (left) and the resulting texture (right).
fn figure1(out_dir: &Path) {
    println!("=== Figure 1: single spot and resulting spot-noise texture ===");
    let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Uniform {
        velocity: Vec2::ZERO,
        domain,
    };
    // Left: one spot in the middle, isotropic (no flow deformation).
    let single_cfg = SynthesisConfig {
        texture_size: 256,
        spot_count: 1,
        spot_radius: 0.12,
        max_stretch: 1.0,
        ..SynthesisConfig::small_test()
    };
    let single = synthesize_sequential(
        &field,
        &[spotnoise::spot::Spot {
            position: domain.center(),
            intensity: 1.0,
        }],
        &single_cfg,
    );
    save_gray(
        &single.texture.normalized(),
        out_dir,
        "figure1_single_spot.ppm",
    );

    // Right: many spots of random intensity — pure (undeformed) spot noise.
    let noise_cfg = SynthesisConfig {
        texture_size: 256,
        spot_count: 10_000,
        spot_radius: 0.02,
        max_stretch: 1.0,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(noise_cfg.spot_count, domain, 1.0, 91);
    let noise = synthesize_sequential(&field, &spots, &noise_cfg);
    save_gray(
        &standard_postprocess(&noise.texture, noise_cfg.spot_radius_pixels()),
        out_dir,
        "figure1_texture.ppm",
    );
    println!();
}

/// Figure 2: skin friction on the block, default vs advected spot positions.
fn figure2(out_dir: &Path) {
    println!("=== Figure 2: separation on the block, default vs advected spots ===");
    let mut dns = DnsSolver::new(DnsConfig::small_test());
    for _ in 0..150 {
        dns.step(0.02);
    }
    let pattern = pattern_from_dns(&dns);
    let field = skin_friction_field(&pattern, 64, 64);
    let cfg = SynthesisConfig {
        texture_size: 384,
        spot_count: 1500,
        spot_radius: 0.02,
        spot_kind: SpotKind::Bent { rows: 12, cols: 5 },
        ..SynthesisConfig::small_test()
    };
    for (mode, label) in [
        (PositionMode::Random, "default"),
        (PositionMode::Advected, "advected"),
    ] {
        let mut pipeline = Pipeline::with_animator(
            cfg,
            ExecutionMode::Sequential,
            field.domain(),
            ParticleOptions {
                count: cfg.spot_count,
                mean_lifetime: 30,
                ..Default::default()
            },
            mode,
        );
        // Advance several frames so the advected mode accumulates coherence.
        let mut frame = pipeline.advance(&field, 0.02, 0);
        for _ in 0..8 {
            frame = pipeline.advance(&field, 0.02, 0);
        }
        save_gray(&frame.display, out_dir, &format!("figure2_{label}.ppm"));
    }
    println!(
        "attachment height measured from the DNS: {:.2} of the face\n",
        flowsim::attachment_height(&dns)
    );
}

/// Figure 6: pollutant superimposed on the wind-field spot noise, with map.
fn figure6(out_dir: &Path, quick: bool) {
    println!("=== Figure 6: smog steering — O3 over wind-field spot noise ===");
    let mut model = SmogModel::paper_resolution(1997);
    for _ in 0..40 {
        model.step(0.2);
    }
    let cfg = if quick {
        SynthesisConfig {
            texture_size: 256,
            spot_count: 800,
            spot_kind: SpotKind::Bent { rows: 12, cols: 7 },
            ..SynthesisConfig::atmospheric_paper()
        }
    } else {
        SynthesisConfig::atmospheric_paper()
    };
    let spots = generate_spots(
        cfg.spot_count,
        model.domain(),
        cfg.intensity_amplitude,
        cfg.seed,
    );
    let machine = MachineConfig::onyx2_full();
    let out = synthesize_dnc(model.wind_field(), &spots, &cfg, &machine);
    println!(
        "synthesis: simulated {:.1} textures/s, measured {:.1} textures/s",
        out.predicted.textures_per_second,
        out.measured_textures_per_second()
    );
    let display = standard_postprocess(&out.texture, cfg.spot_radius_pixels());
    let mut fb = texture_to_framebuffer(
        &display,
        cfg.texture_size,
        cfg.texture_size,
        Colormap::Grayscale,
    );
    let range = model.concentration().range();
    overlay_scalar_field(
        &mut fb,
        model.concentration(),
        range,
        Colormap::Rainbow,
        0.55,
    );
    draw_map(&mut fb, model.domain(), Rgb::new(240, 240, 240));
    let path = out_dir.join("figure6_smog.ppm");
    fb.save_ppm(&path).expect("write figure 6");
    println!("wrote {}\n", path.display());
}

/// Figure 7: spot-noise image of the turbulent wake behind the block.
fn figure7(out_dir: &Path, quick: bool) {
    println!("=== Figure 7: vortex shedding behind a block ===");
    let (solver_cfg, steps) = if quick {
        (DnsConfig::small_test(), 150)
    } else {
        (
            DnsConfig {
                nx: 139,
                ny: 104,
                ..DnsConfig::paper_resolution()
            },
            300,
        )
    };
    let mut dns = DnsSolver::new(solver_cfg);
    for _ in 0..steps {
        dns.step(0.02);
    }
    println!(
        "wake fluctuation (std of v behind the block): {:.3}",
        dns.wake_fluctuation()
    );
    let cfg = if quick {
        SynthesisConfig {
            texture_size: 256,
            spot_count: 4000,
            spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
            ..SynthesisConfig::turbulence_paper()
        }
    } else {
        SynthesisConfig::turbulence_paper()
    };
    let slice = dns.rectilinear_slice();
    let spots = generate_spots(
        cfg.spot_count,
        slice.domain(),
        cfg.intensity_amplitude,
        cfg.seed,
    );
    let machine = MachineConfig::onyx2_full();
    let out = synthesize_dnc(&slice, &spots, &cfg, &machine);
    println!(
        "synthesis: simulated {:.1} textures/s, measured {:.1} textures/s",
        out.predicted.textures_per_second,
        out.measured_textures_per_second()
    );
    let display = standard_postprocess(&out.texture, cfg.spot_radius_pixels());
    let height =
        (cfg.texture_size as f64 * slice.domain().height() / slice.domain().width()) as usize;
    let mut fb = texture_to_framebuffer(
        &display,
        cfg.texture_size,
        height.max(32),
        Colormap::Grayscale,
    );
    draw_rect_outline(
        &mut fb,
        slice.domain(),
        dns.block().rect,
        Rgb::new(255, 80, 80),
    );
    let path = out_dir.join("figure7_wake.ppm");
    fb.save_ppm(&path).expect("write figure 7");
    println!("wrote {}\n", path.display());
}

/// Section 5.1 / 5.2 bandwidth observations.
fn bandwidth(quick: bool) {
    println!("=== Bandwidth observation (paper section 5.1 / 5.2) ===");
    let workload: Workload = if quick {
        atmospheric_scaled()
    } else {
        atmospheric_paper()
    };
    let machine = MachineConfig::onyx2_full();
    let out = synthesize_dnc(
        workload.field.as_ref(),
        &workload.spots,
        &workload.config,
        &machine,
    );
    let cost = machine.cost;
    let vertex_bytes = cost.vertex_bytes(out.total_pipe_work().vertices);
    let mb_per_texture = vertex_bytes as f64 / 1.0e6;
    let rate = out.predicted.textures_per_second;
    println!("vertex data per texture: {mb_per_texture:.1} MB (paper: ~21.8 MB atmospheric, ~31 MB turbulence)");
    println!(
        "at the simulated {:.1} textures/s this is {:.0} MB/s of an {:.0} MB/s bus ({:.0}% utilisation)",
        rate,
        mb_per_texture * rate,
        cost.bus_bytes_per_second / 1.0e6,
        100.0 * mb_per_texture * rate / (cost.bus_bytes_per_second / 1.0e6),
    );
    println!(
        "recorded bus traffic on the host run: {} MB vertices, {} MB textures\n",
        out.bus.vertex_bytes / 1_000_000,
        out.bus.texture_bytes / 1_000_000
    );
}

/// Stage-time breakdown of the interactive pipeline (figures 3 and 5).
fn pipeline_breakdown() {
    println!("=== Pipeline stage breakdown (figures 3 and 5) ===");
    let mut model = SmogModel::new(53, 55, 7);
    let cfg = SynthesisConfig {
        texture_size: 256,
        spot_count: 800,
        spot_kind: SpotKind::Bent { rows: 12, cols: 7 },
        ..SynthesisConfig::atmospheric_paper()
    };
    let machine = MachineConfig::onyx2_full();
    let mut pipeline = Pipeline::new(
        cfg,
        ExecutionMode::DivideAndConquer(machine),
        model.domain(),
    );
    for frame_idx in 0..3 {
        let (_, read_us) = spotnoise::metrics::timed(|| model.step(0.2));
        let frame = pipeline.advance(model.wind_field(), 0.2, read_us);
        let t = frame.metrics.timings;
        println!(
            "frame {frame_idx}: read {:>6} us | advect {:>6} us | synthesize {:>8} us | render {:>6} us  ({:.2} textures/s measured, {:.2} simulated)",
            t.read_us,
            t.advect_us,
            t.synthesize_us,
            t.render_us,
            t.textures_per_second(),
            frame.metrics.simulated_textures_per_second().unwrap_or(0.0),
        );
    }
    println!();
}

/// One variant of an ablation sweep: host wall-clock textures/s and the
/// simulated Onyx2 textures/s (`None` where the cost model has no term for
/// the variant).
struct AblationRow {
    sweep: &'static str,
    variant: String,
    measured: f64,
    simulated: Option<f64>,
}

impl AblationRow {
    fn dnc(sweep: &'static str, variant: String, out: &DncOutput) -> Self {
        AblationRow {
            sweep,
            variant,
            measured: out.measured_textures_per_second(),
            simulated: Some(out.predicted.textures_per_second),
        }
    }
}

/// Paper §5.1: "Lower resolution meshes will result in less accurate
/// renderings, but can increase performance substantially." Bent-spot
/// meshes from the paper's 32x17 down to 4x3 on 4 processors and 2 pipes.
fn mesh_resolution_sweep(base: &Workload) -> Vec<AblationRow> {
    let machine = MachineConfig::new(4, 2);
    [(32, 17), (16, 9), (12, 7), (8, 5), (4, 3)]
        .into_iter()
        .map(|(rows, cols)| {
            let cfg = SynthesisConfig {
                spot_kind: SpotKind::Bent { rows, cols },
                ..base.config
            };
            let out = synthesize_dnc(base.field.as_ref(), &base.spots, &cfg, &machine);
            AblationRow::dnc("mesh_resolution", format!("{rows}x{cols}"), &out)
        })
        .collect()
}

/// Paper §5.2: "Using less spots will result in less accurate renderings,
/// but can increase performance substantially." 500 to 8000 spots on 4
/// processors and 2 pipes.
fn spot_count_sweep(base: &Workload) -> Vec<AblationRow> {
    let machine = MachineConfig::new(4, 2);
    [500, 1000, 2000, 4000, 8000]
        .into_iter()
        .map(|spot_count| {
            let cfg = SynthesisConfig {
                spot_count,
                ..base.config
            };
            let spots = generate_spots(
                spot_count,
                base.field.domain(),
                cfg.intensity_amplitude,
                cfg.seed,
            );
            let out = synthesize_dnc(base.field.as_ref(), &spots, &cfg, &machine);
            AblationRow::dnc("spot_count", spot_count.to_string(), &out)
        })
        .collect()
}

/// Paper §3–4: texture tiling (less texture space, duplicated boundary
/// spots) vs round-robin partitioning, on 8 processors with 2 and 4 pipes.
fn tiling_sweep(base: &Workload) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for pipes in [2, 4] {
        let machine = MachineConfig::new(8, pipes);
        for (use_tiling, label) in [(false, "round_robin"), (true, "tiled")] {
            let cfg = SynthesisConfig {
                use_tiling,
                ..base.config
            };
            let out = synthesize_dnc(base.field.as_ref(), &base.spots, &cfg, &machine);
            rows.push(AblationRow::dnc(
                "tiling",
                format!("{pipes}pipes_{label}"),
                &out,
            ));
        }
    }
    rows
}

/// Paper §4: spot transformation in software by the processors vs a matrix
/// load per spot on the pipe, which the cost model charges the
/// InfiniteReality synchronisation penalty. 4000 disc spots over a vortex
/// on 4 processors and 2 pipes.
fn transform_sweep() -> Vec<AblationRow> {
    let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = Vortex {
        omega: 1.5,
        center: domain.center(),
        domain,
    };
    let base = SynthesisConfig {
        texture_size: 256,
        spot_count: 4000,
        spot_radius: 0.02,
        spot_kind: SpotKind::Disc,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(base.spot_count, domain, 1.0, 1);
    let machine = MachineConfig::new(4, 2);
    [
        (false, "software_transform"),
        (true, "on_pipe_matrix_loads"),
    ]
    .into_iter()
    .map(|(transform_on_pipe, label)| {
        let cfg = SynthesisConfig {
            transform_on_pipe,
            ..base
        };
        let out = synthesize_dnc(&field, &spots, &cfg, &machine);
        AblationRow::dnc("transform", label.to_string(), &out)
    })
    .collect()
}

/// Sequential synthesis (eq. 2.1, one processor and one pipe) vs
/// divide-and-conquer on the full Onyx2 (eq. 3.2) vs the CPU-only executor
/// that bypasses the pipes (the paper's "different architectures"
/// discussion). The cost model prices pipes, so the CPU-only variant has no
/// simulated figure.
fn executor_sweep(workload: &Workload, label: &str) -> Vec<AblationRow> {
    let (field, spots, cfg) = (workload.field.as_ref(), &workload.spots, &workload.config);
    let start = Instant::now();
    let seq = synthesize_sequential(field, spots, cfg);
    let seq_seconds = start.elapsed().as_secs_f64();
    let cost = MachineConfig::new(1, 1).cost;
    let seq_simulated = eq_2_1(
        cost.cpu_seconds(&seq.cpu_work),
        cost.pipe_seconds(&seq.pipe.pipe_work()),
    );
    let dnc = synthesize_dnc(field, spots, cfg, &MachineConfig::onyx2_full());
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let cpu = synthesize_cpu_only(field, spots, cfg, threads);
    vec![
        AblationRow {
            sweep: "seq_vs_dnc",
            variant: format!("{label}/sequential"),
            measured: 1.0 / seq_seconds,
            simulated: Some(1.0 / seq_simulated),
        },
        AblationRow::dnc("seq_vs_dnc", format!("{label}/dnc_8p_4g"), &dnc),
        AblationRow {
            sweep: "seq_vs_dnc",
            variant: format!("{label}/cpu_only"),
            measured: 1.0 / cpu.wall_seconds,
            simulated: None,
        },
    ]
}

/// The paper's ablations on the scaled workloads: one row per variant with
/// host and simulated textures/s, also written to `<out>/ablations.json`.
fn ablations(out_dir: &Path) {
    println!("=== Ablations (paper sections 3-5): textures/second per variant ===");
    let atmospheric = atmospheric_scaled();
    let mut rows = mesh_resolution_sweep(&atmospheric);
    rows.extend(spot_count_sweep(&turbulence_scaled()));
    rows.extend(tiling_sweep(&atmospheric));
    rows.extend(transform_sweep());
    rows.extend(executor_sweep(&analytic_small(), "analytic_small"));
    rows.extend(executor_sweep(&atmospheric, "atmospheric_scaled"));
    println!(
        "{:<16} {:<30} {:>10} {:>10}",
        "sweep", "variant", "host", "simulated"
    );
    for row in &rows {
        let simulated = row.simulated.map_or("-".to_string(), |v| format!("{v:.2}"));
        println!(
            "{:<16} {:<30} {:>10.2} {:>10}",
            row.sweep, row.variant, row.measured, simulated
        );
    }
    let json = Json::array(rows.iter().map(|row| {
        Json::object([
            ("sweep", Json::str(row.sweep)),
            ("variant", Json::str(row.variant.as_str())),
            ("measured_textures_per_second", Json::num(row.measured)),
            (
                "simulated_textures_per_second",
                row.simulated.map_or(Json::Null, Json::num),
            ),
        ])
    }));
    let path = out_dir.join("ablations.json");
    std::fs::write(&path, json.to_string_pretty()).expect("write ablations json");
    println!("wrote {}\n", path.display());
}

fn save_gray(texture: &softpipe::Texture, out_dir: &Path, name: &str) {
    let fb = texture_to_framebuffer(
        texture,
        texture.width(),
        texture.height(),
        Colormap::Grayscale,
    );
    let path = out_dir.join(name);
    fb.save_ppm(&path).expect("write image");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_reads_targets_and_flags() {
        assert_eq!(
            parse(&["ablations", "--quick", "--out", "dir"]),
            Ok(Args {
                targets: vec!["ablations"],
                out_dir: PathBuf::from("dir"),
                quick: true,
            })
        );
    }

    #[test]
    fn parse_args_rejects_an_unknown_target() {
        assert_eq!(
            parse(&["table1", "--bogus"]),
            Err("unknown target: --bogus".to_string())
        );
    }

    #[test]
    fn parse_args_rejects_out_without_a_directory() {
        assert_eq!(
            parse(&["table1", "--out"]),
            Err("--out needs a directory".to_string())
        );
    }

    fn simulated(rows: &[AblationRow]) -> Vec<f64> {
        rows.iter().map(|row| row.simulated.unwrap()).collect()
    }

    /// Paper §5.1: the cost model's textures/s rises strictly as the bent
    /// mesh coarsens from 32x17 to 4x3.
    #[test]
    fn simulated_throughput_rises_as_the_mesh_coarsens() {
        let rates = simulated(&mesh_resolution_sweep(&atmospheric_scaled()));
        assert!(rates.windows(2).all(|w| w[0] < w[1]), "{rates:?}");
    }

    /// Paper §5.2: the cost model's textures/s rises strictly as the spot
    /// count falls from 8000 to 500.
    #[test]
    fn simulated_throughput_rises_as_the_spot_count_falls() {
        let rates = simulated(&spot_count_sweep(&turbulence_scaled()));
        assert!(rates.windows(2).all(|w| w[0] > w[1]), "{rates:?}");
    }
}
