//! Cross-crate tests of the scheduler engine: on real application data the
//! dynamic-queue schedules must conserve work, keep tile composition
//! bit-identical to the static split, and redistribute leases when the spot
//! distribution is skewed.

use flowfield::Vec2;
use flowsim::{DnsConfig, DnsSolver, SmogModel};
use softpipe::machine::MachineConfig;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::{synthesize_dnc, synthesize_dnc_with_telemetry};
use spotnoise::scheduler::{ScheduleMode, SchedulerOptions};
use spotnoise::spot::{generate_spots, Spot};
use spotnoise::synth::{synthesize_sequential_with_context, SynthesisContext};
use spotnoise::telemetry::TraceSink;

fn mean_diff(a: &softpipe::Texture, b: &softpipe::Texture) -> f64 {
    a.absolute_difference(b) / a.data().len() as f64
}

#[test]
fn dynamic_spot_queue_matches_sequential_on_smog_wind_field() {
    let mut model = SmogModel::new(27, 28, 7);
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
    let spots = generate_spots(cfg.spot_count, field.domain(), cfg.intensity_amplitude, 41);
    let ctx = SynthesisContext::new(field, &cfg);
    let seq = synthesize_sequential_with_context(field, &spots, &cfg, &ctx);
    let machine = MachineConfig::new(8, 4);
    let dnc = synthesize_dnc_with_telemetry(
        field,
        &spots,
        &cfg,
        &machine,
        &ctx,
        &SchedulerOptions::dynamic(),
        None,
        None,
        &TraceSink::disabled(),
    );
    let d = mean_diff(&seq.texture, &dnc.texture);
    assert!(d < 1e-4, "mean texel difference {d}");
    // Work conserved and every group drained the queue.
    let total: usize = dnc.groups.iter().map(|g| g.spots).sum();
    assert_eq!(total, cfg.spot_count);
    assert!(dnc.groups.iter().all(|g| g.queue_exhausted));
    assert_eq!(
        dnc.total_pipe_work().vertices as usize,
        cfg.vertices_per_texture()
    );
}

#[test]
fn tiled_compose_bit_identical_across_schedules_on_dns_slice() {
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
    // Masters only (4 procs, 4 pipes) so per-tile render order is
    // deterministic: the composed textures must agree bit for bit no matter
    // which pipe rendered which tile.
    let machine = MachineConfig::new(4, 4);
    let static_out = synthesize_dnc(&slice, &spots, &cfg, &machine);
    let dynamic_out = synthesize_dnc_with_telemetry(
        &slice,
        &spots,
        &cfg,
        &machine,
        &ctx,
        &SchedulerOptions::dynamic(),
        None,
        None,
        &TraceSink::disabled(),
    );
    assert_eq!(
        static_out.texture.absolute_difference(&dynamic_out.texture),
        0.0,
        "tiled compose diverged between static and dynamic scheduling"
    );
    assert_eq!(static_out.duplicated_spots, dynamic_out.duplicated_spots);
    assert_eq!(static_out.compose_texels, dynamic_out.compose_texels);
    assert!(dynamic_out.duplicated_spots > 0);
}

#[test]
fn dynamic_tile_queue_rebalances_a_clustered_spot_distribution() {
    // All spots cluster in one quadrant — the signal-dependent skew case.
    // A static one-tile-per-group split leaves three groups idle; with an
    // oversubscribed dynamic tile queue the loaded quadrant's tiles can be
    // spread over several pipes.
    let cfg = SynthesisConfig {
        use_tiling: true,
        spot_count: 600,
        ..SynthesisConfig::small_test()
    };
    let domain = flowfield::Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Vortex {
        omega: 1.0,
        center: Vec2::new(0.5, 0.5),
        domain,
    };
    // Cluster the spots into the lower-left quadrant.
    let spots: Vec<Spot> = generate_spots(cfg.spot_count, domain, 1.0, 77)
        .into_iter()
        .map(|mut s| {
            s.position = Vec2::new(s.position.x * 0.45, s.position.y * 0.45);
            s
        })
        .collect();
    let ctx = SynthesisContext::new(&field, &cfg);
    let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
    let machine = MachineConfig::new(4, 4);
    let opts = SchedulerOptions {
        mode: ScheduleMode::Dynamic { chunk: None },
        tiles: Some(16),
    };
    let out = synthesize_dnc_with_telemetry(
        &field,
        &spots,
        &cfg,
        &machine,
        &ctx,
        &opts,
        None,
        None,
        &TraceSink::disabled(),
    );
    let d = mean_diff(&seq.texture, &out.texture);
    assert!(d < 1e-4, "mean texel difference {d}");
    // All 16 tiles were leased exactly once across the 4 groups, and no
    // group stopped while tiles remained.
    let leases: u64 = out.groups.iter().map(|g| g.leases).sum();
    assert_eq!(leases, 16);
    assert!(out.groups.iter().all(|g| g.queue_exhausted));
    let total: usize = out.groups.iter().map(|g| g.spots).sum();
    assert_eq!(total, cfg.spot_count + out.duplicated_spots);
}
