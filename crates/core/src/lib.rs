//! # spotnoise — Divide and Conquer Spot Noise
//!
//! A reproduction of *"Divide and Conquer Spot Noise"* (W.C. de Leeuw and
//! R. van Liere, SuperComputing'97): interactive spot-noise texture synthesis
//! for flow visualization, parallelised over processors and graphics pipes.
//!
//! Spot noise builds a texture `f(x) = Σ aᵢ h(x − xᵢ)` from many randomly
//! weighted, randomly placed spots whose *shape* is deformed by the local
//! flow; animated over particle paths it gives a dense, continuous picture of
//! a 2-D vector field. The divide-and-conquer algorithm partitions the spot
//! collection over *process groups* — each one master processor, a number of
//! slave processors and exactly one graphics pipe — and blends the resulting
//! partial textures into the final texture.
//!
//! ## Crate layout
//!
//! * [`config`] — synthesis parameters and the paper's two workload presets,
//! * [`spot`] — spot instances and standard (stretched-ellipse) spots,
//! * [`bent`] — bent spots: stream-line-advected textured meshes,
//! * [`synth`] — sequential synthesis (the eq. 2.1 baseline),
//! * [`scheduler`] — the execution engine: each process group renders its
//!   fixed share (a spot set or texture tiles) on a pooled graphics pipe or
//!   inline on its own thread, and a streaming gather composes the partials,
//! * [`dnc`] — the divide-and-conquer executors as thin engine
//!   configurations (round-robin, texture tiling, CPU-only),
//! * [`partition`] — spot partitioning strategies,
//! * [`advect`] — spot/particle animation with life cycles,
//! * [`filter`] — spot filtering and display post-processing,
//! * [`pipeline`] — the interactive four-step pipeline,
//! * [`perfmodel`] — equations 2.1 / 3.2 and the simulated-Onyx2 predictions,
//! * [`metrics`] — throughput, stage-timing and cache instrumentation,
//! * [`telemetry`] — lock-free latency histograms and the frame-lifecycle
//!   trace ring (`SPOTNOISE_TRACE`),
//! * [`hash`] — stable content hashing for frame-cache keys,
//! * [`json`] — the registry-free JSON value type used by the benchmark
//!   artifacts and the synthesis service.
//!
//! ## Quick example
//!
//! ```
//! use flowfield::analytic::Vortex;
//! use flowfield::{Rect, Vec2};
//! use softpipe::machine::MachineConfig;
//! use spotnoise::config::SynthesisConfig;
//! use spotnoise::spot::generate_spots;
//! use spotnoise::dnc::synthesize_dnc;
//!
//! let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
//! let field = Vortex { omega: 1.0, center: domain.center(), domain };
//! let cfg = SynthesisConfig::small_test();
//! let spots = generate_spots(cfg.spot_count, domain, cfg.intensity_amplitude, cfg.seed);
//! let out = synthesize_dnc(&field, &spots, &cfg, &MachineConfig::new(4, 2));
//! assert_eq!(out.texture.width(), cfg.texture_size);
//! ```

#![warn(missing_docs)]

pub mod advect;
pub mod bent;
pub mod config;
pub mod dnc;
pub mod filter;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod partition;
pub mod perfmodel;
pub mod pipeline;
pub mod quality;
pub mod scheduler;
pub mod spot;
pub mod synth;
pub mod telemetry;

pub use advect::{PositionMode, SpotAnimator};
pub use config::{SpotKind, SynthesisConfig};
pub use dnc::{synthesize_cpu_only, synthesize_dnc, DncOutput, DncReport, GroupReport};
pub use perfmodel::{eq_2_1, eq_3_2, PerfPrediction};
pub use pipeline::{ExecutionMode, FrameOutput, Pipeline};
pub use scheduler::{EngineOutput, SchedulerOptions};
pub use spot::{generate_spots, Spot};
pub use synth::{synthesize_sequential, SequentialOutput, SynthesisContext};

#[cfg(test)]
mod proptests {
    use crate::config::{SamplingMode, SpotKind, SynthesisConfig};
    use crate::dnc::synthesize_dnc;
    use crate::partition::{partition_round_robin, partition_tiled, TilingOptions};
    use crate::quality::sampling_quality;
    use crate::spot::{generate_spots, FieldToPixel};
    use crate::synth::{
        synthesize_sequential, synthesize_sequential_with_context, SynthesisContext,
    };
    use flowfield::analytic::Vortex;
    use flowfield::{Rect, Vec2};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use softpipe::machine::MachineConfig;

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    /// The central correctness property of the paper: for any machine
    /// shape, divide-and-conquer synthesis matches the sequential result
    /// up to floating-point reassociation.
    #[test]
    fn dnc_equals_sequential() {
        let seed = 0xD0C;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..12 {
            let processors = rng.gen_range(1usize..6);
            let pipes = rng.gen_range(1usize..4);
            let spots_seed = rng.gen_range(0u64..50);
            let pipes = pipes.min(processors);
            let cfg = SynthesisConfig {
                spot_count: 120,
                texture_size: 64,
                ..SynthesisConfig::small_test()
            };
            let field = Vortex {
                omega: 1.0,
                center: Vec2::new(0.5, 0.5),
                domain: domain(),
            };
            let spots = generate_spots(cfg.spot_count, domain(), 1.0, spots_seed);
            let ctx = SynthesisContext::new(&field, &cfg);
            let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
            let machine = MachineConfig::new(processors, pipes);
            let dnc = synthesize_dnc(&field, &spots, &cfg, &machine);
            let mean_diff = seq.texture.absolute_difference(&dnc.texture) / (64.0 * 64.0);
            assert!(
                mean_diff < 1e-4,
                "seed {seed:#x}, case {case}: processors {processors}, pipes {pipes}, \
                 spots seed {spots_seed}: mean texel difference {mean_diff}"
            );
        }
    }

    /// Footprint sampling stays within the quality tolerances of Exact
    /// across random fields, spot sizes and spot kinds — the license
    /// for the speed-for-quality trade, enforced as a property.
    #[test]
    fn footprint_sampling_within_quality_tolerance() {
        let seed = 0xF007;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..12 {
            let spots_seed = rng.gen_range(0u64..1000);
            let omega = rng.gen_range(0.5..2.5);
            let radius = rng.gen_range(0.02..0.08);
            let bent = rng.gen_range(0u8..2);
            let cfg = SynthesisConfig {
                texture_size: 96,
                spot_count: 220,
                spot_radius: radius,
                spot_kind: if bent == 1 {
                    SpotKind::Bent { rows: 8, cols: 3 }
                } else {
                    SpotKind::Disc
                },
                ..SynthesisConfig::small_test()
            };
            let footprint_cfg = SynthesisConfig {
                sampling: SamplingMode::Footprint,
                ..cfg
            };
            let field = Vortex {
                omega,
                center: Vec2::new(0.5, 0.5),
                domain: domain(),
            };
            let spots = generate_spots(cfg.spot_count, domain(), 1.0, spots_seed);
            let exact = synthesize_sequential(&field, &spots, &cfg);
            let approx = synthesize_sequential(&field, &spots, &footprint_cfg);
            let q = sampling_quality(&exact.texture, &approx.texture);
            assert!(
                q.within_footprint_tolerance(),
                "seed {seed:#x}, case {case}: spots seed {spots_seed}, omega {omega}, \
                 radius {radius}, bent {bent}: {q:?}"
            );
        }
    }

    /// Round-robin partitioning is a true partition for any group count.
    #[test]
    fn round_robin_is_partition() {
        let seed = 0x2B2;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..12 {
            let n_spots = rng.gen_range(1usize..400);
            let groups = rng.gen_range(1usize..9);
            let context =
                format!("seed {seed:#x}, case {case}: n_spots {n_spots}, groups {groups}");
            let spots = generate_spots(n_spots, domain(), 1.0, 7);
            let parts = partition_round_robin(&spots, groups);
            assert_eq!(parts.len(), groups, "{context}");
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, n_spots, "{context}");
            let max = parts.iter().map(Vec::len).max().unwrap();
            let min = parts.iter().map(Vec::len).min().unwrap();
            assert!(max - min <= 1, "{context}");
        }
    }

    /// Tiled partitioning never loses a spot, and the duplicate count is
    /// consistent with the per-group totals.
    #[test]
    fn tiling_never_loses_spots() {
        let seed = 0x711E;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..12 {
            let n_spots = rng.gen_range(1usize..400);
            let groups = rng.gen_range(1usize..9);
            let margin = rng.gen_range(0.0..30.0);
            let context = format!(
                "seed {seed:#x}, case {case}: n_spots {n_spots}, groups {groups}, margin {margin}"
            );
            let spots = generate_spots(n_spots, domain(), 1.0, 11);
            let mapper = FieldToPixel::new(domain(), 128);
            let part = partition_tiled(
                &spots,
                &mapper,
                groups,
                &TilingOptions {
                    overlap_margin_pixels: margin,
                },
            );
            let total: usize = part.groups.iter().map(Vec::len).sum();
            assert_eq!(total, n_spots + part.duplicated, "{context}");
            assert!(total >= n_spots, "{context}");
        }
    }
}
