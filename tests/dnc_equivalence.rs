//! Cross-crate correctness of the divide-and-conquer algorithm: on real
//! application data (not just analytic fields), the parallel executors must
//! reproduce the sequential texture, and the work accounting must be
//! consistent with the configuration.

use flowsim::{DnsConfig, DnsSolver, SmogModel};
use softpipe::machine::MachineConfig;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::{synthesize_cpu_only, synthesize_dnc};
use spotnoise::spot::generate_spots;
use spotnoise::synth::{synthesize_sequential_with_context, SynthesisContext};

fn mean_diff(a: &softpipe::Texture, b: &softpipe::Texture) -> f64 {
    a.absolute_difference(b) / a.data().len() as f64
}

#[test]
fn dnc_matches_sequential_on_smog_wind_field() {
    let mut model = SmogModel::new(27, 28, 21);
    for _ in 0..3 {
        model.step(0.2);
    }
    let cfg = SynthesisConfig {
        texture_size: 128,
        spot_count: 500,
        spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
        ..SynthesisConfig::atmospheric_paper()
    };
    let field = model.wind_field();
    let spots = generate_spots(cfg.spot_count, field.domain(), cfg.intensity_amplitude, 77);
    let ctx = SynthesisContext::new(field, &cfg);
    let seq = synthesize_sequential_with_context(field, &spots, &cfg, &ctx);

    for machine in [
        MachineConfig::new(2, 1),
        MachineConfig::new(4, 2),
        MachineConfig::new(8, 4),
    ] {
        let dnc = synthesize_dnc(field, &spots, &cfg, &machine);
        let d = mean_diff(&seq.texture, &dnc.texture);
        assert!(d < 1e-4, "machine {machine:?}: mean texel difference {d}");
        // Vertex accounting matches the configuration exactly (no spots lost
        // or duplicated with round-robin partitioning).
        assert_eq!(
            dnc.total_pipe_work().vertices as usize,
            cfg.vertices_per_texture()
        );
        // Divide and concur: the groups' work adds up exactly to the
        // sequential frame's, so no group drops or clips a spot's fragments
        // and no spot shape is computed twice.
        assert_eq!(
            dnc.total_pipe_work().fragments,
            seq.pipe.raster.fragments,
            "machine {machine:?}: fragments"
        );
        assert_eq!(
            dnc.total_cpu_work(),
            seq.cpu_work,
            "machine {machine:?}: CPU work"
        );
    }
}

#[test]
fn tiled_dnc_matches_sequential_on_dns_slice() {
    let mut dns = DnsSolver::new(DnsConfig {
        nx: 48,
        ny: 32,
        ..DnsConfig::small_test()
    });
    for _ in 0..40 {
        dns.step(0.02);
    }
    let slice = dns.rectilinear_slice();
    let cfg = SynthesisConfig {
        texture_size: 128,
        spot_count: 800,
        spot_kind: SpotKind::Bent { rows: 6, cols: 3 },
        use_tiling: true,
        ..SynthesisConfig::turbulence_paper()
    };
    let spots = generate_spots(cfg.spot_count, slice.domain(), cfg.intensity_amplitude, 3);
    let ctx = SynthesisContext::new(&slice, &cfg);
    let seq = synthesize_sequential_with_context(&slice, &spots, &cfg, &ctx);
    let machine = MachineConfig::new(8, 4);
    let dnc = synthesize_dnc(&slice, &spots, &cfg, &machine);
    let d = mean_diff(&seq.texture, &dnc.texture);
    assert!(d < 1e-4, "mean texel difference {d}");
    // Tiling duplicated some boundary spots and reported them.
    assert!(dnc.duplicated_spots > 0);
    assert!(dnc.compose_texels > 0);
}

#[test]
fn cpu_only_rayon_matches_sequential_on_dns_slice() {
    let mut dns = DnsSolver::new(DnsConfig {
        nx: 48,
        ny: 32,
        ..DnsConfig::small_test()
    });
    for _ in 0..30 {
        dns.step(0.02);
    }
    let grid = dns.velocity_grid();
    let cfg = SynthesisConfig {
        texture_size: 128,
        spot_count: 600,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(cfg.spot_count, grid.domain(), cfg.intensity_amplitude, 5);
    let ctx = SynthesisContext::new(&grid, &cfg);
    let seq = synthesize_sequential_with_context(&grid, &spots, &cfg, &ctx);
    let out = synthesize_cpu_only(&grid, &spots, &cfg, 8);
    let d = mean_diff(&seq.texture, &out.texture);
    assert!(d < 1e-4, "mean texel difference {d}");
    // The CPU path reports through the same engine accounting as the
    // pipe-backed executors: per-group work, no bus traffic.
    assert_eq!(out.groups.len(), 8);
    let spots: u64 = out.groups.iter().map(|g| g.cpu_work.spots).sum();
    assert_eq!(spots, cfg.spot_count as u64);
    assert!(out.groups.iter().all(|g| g.queue_exhausted));
    assert_eq!(out.bus.total_bytes(), 0);
}
