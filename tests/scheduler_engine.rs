//! Cross-crate tests of the scheduler engine on real application data: a
//! process group's partial does not depend on how many processors built it,
//! so a machine shape with slaves renders the same bits, and does the same
//! CPU and pipe work, as the masters-only shape with the same group count.

use flowsim::{DnsConfig, DnsSolver, SmogModel};
use softpipe::machine::MachineConfig;
use softpipe::Texture;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::{synthesize_dnc, DncOutput};
use spotnoise::spot::generate_spots;
use spotnoise::synth::{synthesize_sequential_with_context, SynthesisContext};

fn same_bits(a: &Texture, b: &Texture) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Asserts that two runs produced the same frame from the same work.
fn assert_same_frame(with_slaves: &DncOutput, masters_only: &DncOutput, shape: &str) {
    assert!(
        same_bits(&with_slaves.texture, &masters_only.texture),
        "{shape}: the frame differs from the masters-only frame (Σ|Δ| = {})",
        with_slaves
            .texture
            .absolute_difference(&masters_only.texture)
    );
    assert_eq!(
        with_slaves.total_cpu_work(),
        masters_only.total_cpu_work(),
        "{shape}: CPU work"
    );
    assert_eq!(
        with_slaves.total_pipe_work(),
        masters_only.total_pipe_work(),
        "{shape}: pipe work"
    );
    assert_eq!(with_slaves.compose_texels, masters_only.compose_texels);
    assert_eq!(with_slaves.duplicated_spots, masters_only.duplicated_spots);
}

#[test]
fn slave_shapes_match_masters_only_frames_on_smog_wind_field() {
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
    for ((procs, pipes), masters) in [((4, 2), (2, 2)), ((2, 1), (1, 1))] {
        let reference = synthesize_dnc(
            field,
            &spots,
            &cfg,
            &MachineConfig::new(masters.0, masters.1),
        );
        // Slaves build their spots concurrently with the master; repeat the
        // run so an order that depends on thread timing cannot pass by luck.
        for _ in 0..3 {
            let out = synthesize_dnc(field, &spots, &cfg, &MachineConfig::new(procs, pipes));
            assert_same_frame(&out, &reference, &format!("{procs}p/{pipes}g"));
            let total: usize = out.groups.iter().map(|g| g.spots).sum();
            assert_eq!(total, cfg.spot_count);
            assert!(out.groups.iter().all(|g| g.queue_exhausted));
            assert_eq!(
                out.total_pipe_work().vertices as usize,
                cfg.vertices_per_texture()
            );
        }
        let d =
            seq.texture.absolute_difference(&reference.texture) / seq.texture.data().len() as f64;
        assert!(d < 1e-4, "mean texel difference {d}");
    }
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
    // The same four tiles, rendered by masters alone and by masters with
    // one slave each: within a tile the slave builds every other spot, and
    // the tile's partial must not change.
    let masters_only = synthesize_dnc(&slice, &spots, &cfg, &MachineConfig::new(4, 4));
    assert!(masters_only.duplicated_spots > 0);
    for _ in 0..3 {
        let with_slaves = synthesize_dnc(&slice, &spots, &cfg, &MachineConfig::new(8, 4));
        assert_same_frame(&with_slaves, &masters_only, "8p/4g");
    }
}
