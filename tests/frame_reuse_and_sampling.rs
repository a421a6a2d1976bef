//! Workspace-level guarantees of the vectorized fragment pipeline:
//!
//! * **Exact mode is pinned to the seed output.** The lane-blocked span
//!   fills, the fused gather and the frame arena are pure restructurings —
//!   the stable content hash of a `SamplingMode::Exact` synthesis must equal
//!   the value recorded from the pre-optimization implementation, bit for
//!   bit. If this test fails, a "performance" change silently altered the
//!   rendered texels.
//! * **Arena reuse is invisible.** Frames produced by a pooled-buffer
//!   pipeline are bit-identical to fresh-allocation synthesis, frame after
//!   frame, and the pool really is reused (no steady-state texture
//!   allocations).
//! * **Footprint sampling is gated.** The speed-for-quality trade stays
//!   within the `quality` tolerances on full syntheses.

use flowfield::analytic::{Uniform, Vortex};
use flowfield::{Rect, Vec2};
use softpipe::machine::MachineConfig;
use spotnoise::config::{SamplingMode, SpotKind, SynthesisConfig};
use spotnoise::dnc::synthesize_dnc;
use spotnoise::filter::standard_postprocess;
use spotnoise::hash::StableHasher;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use spotnoise::quality::sampling_quality;
use spotnoise::spot::generate_spots;
use spotnoise::synth::synthesize_sequential;
use std::sync::Arc;

fn domain() -> Rect {
    Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
}

fn vortex() -> Vortex {
    Vortex {
        omega: 1.0,
        center: Vec2::new(0.5, 0.5),
        domain: domain(),
    }
}

fn texture_hash(texture: &softpipe::Texture) -> u64 {
    let mut h = StableHasher::new();
    for v in texture.data() {
        h.write_f32(*v);
    }
    h.finish()
}

/// Exact-mode output is unchanged from the seed implementation: these hashes
/// were recorded from the repository state *before* the lane-blocked fills,
/// fused gather and frame arena landed. Any drift means an optimization
/// changed the rendered texels.
///
/// Runs under **every SIMD dispatch level the host supports** (scalar plus
/// SSE2/AVX2 or NEON): the explicit kernels are required to be bit-identical
/// to the scalar path, so one hash pins them all.
#[test]
fn exact_mode_is_bit_identical_to_seed_output() {
    let field = vortex();
    let disc = SynthesisConfig::small_test();
    let disc_spots = generate_spots(
        disc.spot_count,
        domain(),
        disc.intensity_amplitude,
        disc.seed,
    );
    let bent = SynthesisConfig {
        spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
        spot_count: 150,
        ..SynthesisConfig::small_test()
    };
    let bent_spots = generate_spots(
        bent.spot_count,
        domain(),
        bent.intensity_amplitude,
        bent.seed,
    );
    for level in softpipe::simd::available() {
        softpipe::simd::force(Some(level));
        let out = synthesize_sequential(&field, &disc_spots, &disc);
        assert_eq!(
            texture_hash(&out.texture),
            0x6f66138deb36b5ed,
            "disc Exact synthesis drifted from the seed output at SIMD level {}",
            level.name()
        );
        let out = synthesize_sequential(&field, &bent_spots, &bent);
        assert_eq!(
            texture_hash(&out.texture),
            0x1d922e165ddf7bd8,
            "bent-mesh Exact synthesis drifted from the seed output at SIMD level {}",
            level.name()
        );
    }
    softpipe::simd::force(None);
}

/// The Footprint twin of the pinned `small_test` disc frame: disc quads
/// through nearest sampling of the footprint pyramid, whose narrow
/// triangles had no frame-level pin of their own. Recorded before the
/// scanline span search changed; every SIMD level must reproduce it.
#[test]
fn disc_footprint_frame_is_bit_identical_to_pinned_output() {
    let field = vortex();
    let cfg = SynthesisConfig {
        sampling: SamplingMode::Footprint,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(cfg.spot_count, domain(), cfg.intensity_amplitude, cfg.seed);
    for level in softpipe::simd::available() {
        softpipe::simd::force(Some(level));
        let out = synthesize_sequential(&field, &spots, &cfg);
        assert_eq!(
            texture_hash(&out.texture),
            0x9da1b741e87eb0c6,
            "disc Footprint synthesis drifted from the pinned output at SIMD level {}",
            level.name()
        );
    }
    softpipe::simd::force(None);
}

/// The paper's atmospheric bent-spot shape (`Bent { rows: 32, cols: 17 }`,
/// sub-pixel mesh cells) pinned in both sampling modes, plus the display
/// post-processing of the footprint frame. Recorded before the mesh cell
/// walker and the vectorized box blur landed; both must reproduce these
/// texels bit for bit at every SIMD level.
#[test]
fn paper_bent_mesh_frames_are_bit_identical_to_pinned_output() {
    let field = vortex();
    let exact = SynthesisConfig {
        texture_size: 128,
        spot_count: 300,
        ..SynthesisConfig::atmospheric_paper()
    };
    let footprint = SynthesisConfig {
        sampling: SamplingMode::Footprint,
        ..exact
    };
    let spots = generate_spots(
        exact.spot_count,
        domain(),
        exact.intensity_amplitude,
        exact.seed,
    );
    for level in softpipe::simd::available() {
        softpipe::simd::force(Some(level));
        let out = synthesize_sequential(&field, &spots, &exact);
        assert_eq!(
            texture_hash(&out.texture),
            0x6a158db7f63187ed,
            "32x17 Exact synthesis drifted from the pinned output at SIMD level {}",
            level.name()
        );
        let out = synthesize_sequential(&field, &spots, &footprint);
        assert_eq!(
            texture_hash(&out.texture),
            0xb7aef87b85c13eca,
            "32x17 Footprint synthesis drifted from the pinned output at SIMD level {}",
            level.name()
        );
        let display = standard_postprocess(&out.texture, footprint.spot_radius_pixels());
        assert_eq!(
            texture_hash(&display),
            0x66fe6ea0affef272,
            "32x17 Footprint display drifted from the pinned output at SIMD level {}",
            level.name()
        );
    }
    softpipe::simd::force(None);
}

/// The paper's 32×17 bent spots at the pixel scale of the Table 1 frame:
/// the 512² `atmospheric_paper` spot radius of about 18 px, kept at 256² by
/// doubling the radius, so mesh cells are 1–5 px across as in `steer_paper`
/// (the 128² pin above has sub-pixel cells). Exact sampling, pinned at every
/// SIMD level before the mesh edge table landed.
#[test]
fn paper_scale_bent_mesh_exact_frame_is_bit_identical_to_pinned_output() {
    let field = vortex();
    let cfg = SynthesisConfig {
        texture_size: 256,
        spot_count: 300,
        spot_radius: 0.07,
        ..SynthesisConfig::atmospheric_paper()
    };
    let spots = generate_spots(cfg.spot_count, domain(), cfg.intensity_amplitude, cfg.seed);
    for level in softpipe::simd::available() {
        softpipe::simd::force(Some(level));
        let out = synthesize_sequential(&field, &spots, &cfg);
        assert_eq!(
            texture_hash(&out.texture),
            0x5187ffa37f9b1406,
            "256² 32x17 Exact synthesis drifted from the pinned output at SIMD level {}",
            level.name()
        );
    }
    softpipe::simd::force(None);
}

/// Two consecutive frames from one pooled pipeline are bit-identical to the
/// same frames from a fresh-allocation pipeline — buffer reuse must be
/// completely invisible in the output.
#[test]
fn arena_reuse_is_bit_identical_to_fresh_allocation() {
    let cfg = SynthesisConfig::small_test();
    let machine = MachineConfig::new(2, 2);
    let field = vortex();
    let mut pooled = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
    assert!(pooled.frame_arena().is_some(), "pooling is the default");
    let mut fresh = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
    fresh.set_frame_arena(None);
    for frame in 0..3 {
        let a = pooled.advance(&field, 0.05, 0);
        let b = fresh.advance(&field, 0.05, 0);
        assert_eq!(
            a.texture.absolute_difference(&b.texture),
            0.0,
            "frame {frame}: pooled pipeline diverged from fresh allocation"
        );
    }
    // The pool really was exercised: after the first frame every subsequent
    // partial/gather checkout is a reuse, not an allocation.
    let stats = pooled.frame_arena().unwrap().stats();
    assert!(
        stats.texture_reuses > 0,
        "arena never reused a texture: {stats:?}"
    );
    assert!(
        stats.command_reuses > 0,
        "arena never reused a command vector: {stats:?}"
    );
}

/// Steady state allocates no frame textures: once the pool is warm (and the
/// caller recycles consumed frames), texture checkouts are all reuses.
#[test]
fn steady_state_frames_stop_allocating_textures() {
    let cfg = SynthesisConfig {
        spot_count: 60,
        ..SynthesisConfig::small_test()
    };
    let machine = MachineConfig::new(1, 1);
    let field = vortex();
    let mut pipeline = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
    pipeline.set_display_enabled(false);
    // Warm-up frame: the pool starts empty, so this one allocates.
    let arena = Arc::clone(pipeline.frame_arena().unwrap());
    let out = pipeline.advance(&field, 0.05, 0);
    arena.recycle_texture(out.texture);
    let warm = arena.stats();
    for _ in 0..4 {
        let out = pipeline.advance(&field, 0.05, 0);
        arena.recycle_texture(out.texture);
    }
    let steady = arena.stats();
    assert_eq!(
        steady.texture_allocations, warm.texture_allocations,
        "steady-state frames still allocated textures: {steady:?} after warm-up {warm:?}"
    );
    assert!(steady.texture_reuses > warm.texture_reuses);
}

/// The tiled compose path honours the zeroed-target contract when its gather
/// target comes from the (dirty-capable) arena pool.
#[test]
fn tiled_frames_with_arena_match_fresh_allocation() {
    let cfg = SynthesisConfig {
        use_tiling: true,
        ..SynthesisConfig::small_test()
    };
    let machine = MachineConfig::new(4, 4);
    let field = vortex();
    let mut pooled = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
    let mut fresh = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
    fresh.set_frame_arena(None);
    for frame in 0..3 {
        let a = pooled.advance(&field, 0.05, 0);
        let b = fresh.advance(&field, 0.05, 0);
        assert_eq!(
            a.texture.absolute_difference(&b.texture),
            0.0,
            "tiled frame {frame} diverged under arena reuse"
        );
    }
}

/// Full-synthesis footprint quality gate over the divide-and-conquer path
/// (the seeded unit property tests cover the sequential path): contrast and
/// per-texel error stay within the documented tolerances.
#[test]
fn dnc_footprint_synthesis_stays_within_quality_tolerance() {
    let field = Uniform {
        velocity: Vec2::new(1.0, 0.3),
        domain: domain(),
    };
    let exact_cfg = SynthesisConfig {
        spot_kind: SpotKind::Bent { rows: 12, cols: 3 },
        spot_count: 200,
        max_stretch: 4.0,
        ..SynthesisConfig::small_test()
    };
    let footprint_cfg = SynthesisConfig {
        sampling: SamplingMode::Footprint,
        ..exact_cfg
    };
    let spots = generate_spots(exact_cfg.spot_count, domain(), 1.0, 9);
    let machine = MachineConfig::new(4, 2);
    let exact = synthesize_dnc(&field, &spots, &exact_cfg, &machine);
    let approx = synthesize_dnc(&field, &spots, &footprint_cfg, &machine);
    let q = sampling_quality(&exact.texture, &approx.texture);
    assert!(q.within_footprint_tolerance(), "{q:?}");
    // And the knob actually changed the sampling (the gate is not trivially
    // passing on identical textures).
    assert!(exact.texture.absolute_difference(&approx.texture) > 0.0);
}
