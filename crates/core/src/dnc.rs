//! The divide-and-conquer spot-noise executors.
//!
//! This module is the paper's primary contribution in executable form, but
//! it contains no execution loops of its own: every strategy is a thin
//! configuration of the engine in [`crate::scheduler`] (partition →
//! per-group command batches → streaming gather), differing only in what
//! each group renders and where its commands run:
//!
//! * [`synthesize_dnc`] with round-robin partitioning: one spot set per
//!   group, each group streaming to a pooled graphics-pipe worker, partial
//!   textures folded additively;
//! * [`synthesize_dnc`] with `cfg.use_tiling`: one texture tile per group on
//!   the same pipes, boundary-straddling spots duplicated into every tile
//!   they may touch, partials composed by region copy;
//! * [`synthesize_cpu_only`]: the same engine with every group rasterizing
//!   on its own thread — the paper's "the texture tiles may be completely
//!   generated by the processor, bypassing the graphics subsystem
//!   altogether" variant.
//!
//! Each process group consists of one master and zero or more slaves driving
//! exactly one session; masters stream rendered spots in
//! [`SynthesisConfig::spot_batch`]-sized batches while slaves compute spot
//! shapes, and the gather/compose step (the `c` term of equation 3.2)
//! overlaps with the straggling groups through the engine's streaming
//! gather.

use crate::config::SynthesisConfig;
use crate::partition::{partition_chunks, partition_round_robin, partition_tiled, TilingOptions};
use crate::perfmodel::{predict_from_reports, PerfPrediction};
use crate::scheduler::{EngineOutput, Executor, Schedule, Scheduler, SchedulerOptions};
use crate::spot::Spot;
use crate::synth::SynthesisContext;
use crate::telemetry::TraceSink;
use flowfield::VectorField;
use softpipe::cost::{CpuWork, PipeWork};
use softpipe::machine::MachineConfig;
use softpipe::{BusStats, BusTracker, FrameArena, PipePool, Texture};
use std::sync::Arc;
use std::time::Instant;

pub use crate::scheduler::GroupReport;

/// The measurement half of a divide-and-conquer synthesis: everything
/// [`DncOutput`] carries except the texture itself. Split out so frame
/// producers (the [`Pipeline`](crate::pipeline::Pipeline)) can keep the
/// report without duplicating the framebuffer-sized texture.
#[derive(Debug, Clone)]
pub struct DncReport {
    /// Per-group reports.
    pub groups: Vec<GroupReport>,
    /// Texels processed by the sequential gather/compose step.
    pub compose_texels: u64,
    /// Spot instances duplicated by texture tiling (0 for round-robin).
    pub duplicated_spots: usize,
    /// Wall-clock seconds of the synthesis on the host.
    pub wall_seconds: f64,
    /// Simulated-machine prediction (Tables 1/2 reproduce this).
    pub predicted: PerfPrediction,
    /// Bus traffic recorded during the run.
    pub bus: BusStats,
}

impl DncReport {
    /// Wall-clock textures per second on the host.
    pub fn measured_textures_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            1.0 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Total CPU work over all groups.
    pub fn total_cpu_work(&self) -> CpuWork {
        let mut total = CpuWork::default();
        for g in &self.groups {
            total.merge(&g.cpu_work);
        }
        total
    }

    /// Total pipe work over all groups.
    pub fn total_pipe_work(&self) -> PipeWork {
        let mut total = PipeWork::default();
        for g in &self.groups {
            total.merge(&g.pipe_work);
        }
        total
    }
}

/// Complete result of one divide-and-conquer synthesis: the texture plus the
/// [`DncReport`]. Dereferences to the report, so `out.groups`,
/// `out.predicted` etc. read as they always have.
#[derive(Debug, Clone)]
pub struct DncOutput {
    /// The final spot-noise texture.
    pub texture: Texture,
    /// Everything measured about the run.
    pub report: DncReport,
}

impl std::ops::Deref for DncOutput {
    type Target = DncReport;

    fn deref(&self) -> &DncReport {
        &self.report
    }
}

impl DncOutput {
    /// Splits the output into its texture and its report without cloning
    /// either (what the pipeline does to avoid duplicating the frame).
    pub(crate) fn into_parts(self) -> (Texture, DncReport) {
        (self.texture, self.report)
    }
}

/// Synthesises a spot-noise texture with the divide-and-conquer algorithm on
/// the given (virtual) machine configuration, with fresh pipe workers and no
/// buffer pooling or tracing.
pub fn synthesize_dnc(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    machine: &MachineConfig,
) -> DncOutput {
    cfg.validate().expect("invalid synthesis configuration");
    let ctx = SynthesisContext::new(field, cfg);
    synthesize_dnc_with_telemetry(
        field,
        spots,
        cfg,
        machine,
        &ctx,
        &SchedulerOptions,
        None,
        None,
        &TraceSink::disabled(),
    )
}

/// Full-control entry point: like [`synthesize_dnc`], but reusing a
/// prepared [`SynthesisContext`]. `arena` supplies pooled frame buffers
/// (gather target, partial textures, batch vectors) and `pool`
/// persistent pipe workers — the steady-state configuration the
/// [`Pipeline`](crate::pipeline::Pipeline) drives so back-to-back frames
/// perform no framebuffer-sized allocation and spawn no thread. Without a
/// `pool` the call checks its workers out of a capacity-0 pool built
/// against `arena`, so each group spawns a worker and joins it when done;
/// output is bit-identical either way. Per-group raster and gather
/// spans are recorded into `sink`; a disabled sink costs one branch per
/// group.
///
/// The schedule has no options: `_opts` is the field-less
/// [`SchedulerOptions`], which stays only because the benchmark's callers
/// pass `&SchedulerOptions::default()`, until these nine arguments are
/// folded into one struct (ROADMAP item 9).
#[allow(clippy::too_many_arguments)]
pub fn synthesize_dnc_with_telemetry(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    machine: &MachineConfig,
    ctx: &SynthesisContext,
    _opts: &SchedulerOptions,
    arena: Option<&Arc<FrameArena>>,
    pool: Option<&Arc<PipePool>>,
    sink: &TraceSink,
) -> DncOutput {
    let start = Instant::now();
    let groups = machine.groups();
    let procs_per_group = machine.processors_per_group();
    let pool = match pool {
        Some(pool) => Arc::clone(pool),
        None => Arc::new(PipePool::with_capacity(arena.cloned(), 0)),
    };
    let engine = Scheduler {
        executor: Executor::Pipes(pool),
        field,
        cfg,
        ctx,
        procs_per_group: &procs_per_group,
        bus: BusTracker::new(),
        arena,
        sink: sink.clone(),
    };

    let (schedule, duplicated) = if cfg.use_tiling && groups > 1 {
        let part = partition_tiled(spots, &ctx.mapper, groups, &TilingOptions::from_config(cfg));
        let schedule = Schedule::Tiles {
            tiles: part.tiles,
            spots: part.groups,
        };
        (schedule, part.duplicated)
    } else {
        (Schedule::Spots(partition_round_robin(spots, groups)), 0)
    };

    let out = engine.run(&schedule);
    let predicted = predict_from_reports(machine, &out.groups, out.compose_texels);
    DncOutput {
        texture: out.texture,
        report: DncReport {
            groups: out.groups,
            compose_texels: out.compose_texels,
            duplicated_spots: duplicated,
            wall_seconds: start.elapsed().as_secs_f64(),
            predicted,
            bus: out.bus,
        },
    }
}

/// CPU-only synthesis: spot shapes *and* rasterization run on the host CPUs,
/// bypassing the graphics-pipe threads entirely — the same engine as
/// [`synthesize_dnc`], with every group rasterizing on its own thread and
/// one single-processor group per task. Each task renders its chunk of spots
/// into a private partial texture; the partials are gathered additively by
/// the streaming gather. This is the paper's "bypass the graphics subsystem
/// altogether" variant and the natural modern-hardware baseline. The report
/// has the same shape as every other engine run (per-group work, zero bus
/// traffic).
///
/// The run checks its buffers out of a per-call [`FrameArena`], so each
/// group's partial is handed over rather than copied out of its core.
///
/// One scoped thread and one partial texture exist per task, so pick
/// `tasks` near the host's core count (e.g.
/// `std::thread::available_parallelism()`); the engine does not cap
/// concurrency at any worker-pool size.
pub fn synthesize_cpu_only(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    tasks: usize,
) -> EngineOutput {
    cfg.validate().expect("invalid synthesis configuration");
    let tasks = tasks.max(1);
    let ctx = SynthesisContext::new(field, cfg);
    let procs_per_group = vec![1usize; tasks];
    let arena = Arc::new(FrameArena::new());
    Scheduler {
        executor: Executor::Inline,
        field,
        cfg,
        ctx: &ctx,
        procs_per_group: &procs_per_group,
        bus: BusTracker::new(),
        arena: Some(&arena),
        sink: TraceSink::disabled(),
    }
    .run(&Schedule::Spots(partition_chunks(spots, tasks)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpotKind;
    use crate::spot::generate_spots;
    use crate::synth::synthesize_sequential_with_context;
    use flowfield::analytic::Vortex;
    use flowfield::{Rect, Vec2};

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

    fn mean_abs_texel_difference(a: &Texture, b: &Texture) -> f64 {
        a.absolute_difference(b) / a.data().len() as f64
    }

    #[test]
    fn dnc_round_robin_matches_sequential() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, cfg.seed);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(4, 2);
        let dnc = synthesize_dnc(&field, &spots, &cfg, &machine);
        let diff = mean_abs_texel_difference(&seq.texture, &dnc.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        // Work is conserved: the same spots were processed once each.
        assert_eq!(dnc.total_cpu_work().spots, cfg.spot_count as u64);
        assert_eq!(dnc.duplicated_spots, 0);
    }

    #[test]
    fn dnc_tiled_matches_sequential() {
        let cfg = SynthesisConfig {
            use_tiling: true,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 3);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(4, 4);
        let dnc = synthesize_dnc(&field, &spots, &cfg, &machine);
        let diff = mean_abs_texel_difference(&seq.texture, &dnc.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        // Tiling duplicates boundary spots, so the processed count exceeds
        // the input count and the report says by how much.
        assert!(dnc.duplicated_spots > 0);
        assert_eq!(
            dnc.total_cpu_work().spots,
            (cfg.spot_count + dnc.duplicated_spots) as u64
        );
    }

    #[test]
    fn dnc_with_bent_spots_matches_sequential() {
        let cfg = SynthesisConfig {
            spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
            spot_count: 150,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 5);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(2, 2);
        let dnc = synthesize_dnc(&field, &spots, &cfg, &machine);
        let diff = mean_abs_texel_difference(&seq.texture, &dnc.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
    }

    #[test]
    fn dnc_result_independent_of_machine_shape() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 9);
        let a = synthesize_dnc(&field, &spots, &cfg, &MachineConfig::new(1, 1));
        let b = synthesize_dnc(&field, &spots, &cfg, &MachineConfig::new(8, 4));
        let diff = mean_abs_texel_difference(&a.texture, &b.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
    }

    #[test]
    fn dnc_reports_expected_group_structure() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(400, domain(), 1.0, 1);
        let machine = MachineConfig::new(8, 4);
        let out = synthesize_dnc(&field, &spots, &cfg, &machine);
        assert_eq!(out.groups.len(), 4);
        assert!(out.groups.iter().all(|g| g.processors == 2));
        let spots_total: usize = out.groups.iter().map(|g| g.spots).sum();
        assert_eq!(spots_total, 400);
        // Every group produced pipe work and delivered its partial to the
        // gather; the gather step touched texels.
        assert!(out.groups.iter().all(|g| g.pipe_work.fragments > 0));
        assert!(out.groups.iter().all(|g| g.queue_exhausted));
        assert!(out.compose_texels > 0);
        assert!(out.predicted.textures_per_second > 0.0);
        assert!(out.wall_seconds > 0.0);
        // Bus traffic was recorded (vertices + texture readback).
        assert!(out.bus.vertex_bytes > 0);
        assert!(out.bus.texture_bytes > 0);
    }

    #[test]
    fn cpu_only_matches_sequential() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, cfg.seed);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let out = synthesize_cpu_only(&field, &spots, &cfg, 4);
        let diff = mean_abs_texel_difference(&seq.texture, &out.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        assert!(out.wall_seconds > 0.0);
        // Uniform reporting: the CPU path now carries the same per-group
        // accounting as the pipe-backed paths, with zero bus traffic.
        assert_eq!(out.groups.len(), 4);
        let spots: u64 = out.groups.iter().map(|g| g.cpu_work.spots).sum();
        assert_eq!(spots, cfg.spot_count as u64);
        assert!(out.groups.iter().all(|g| g.queue_exhausted));
        assert_eq!(out.bus.total_bytes(), 0);
    }

    #[test]
    fn pipe_transform_variant_matches_software_transform_but_costs_state_changes() {
        // The paper performs spot transformation in software to avoid per-spot
        // matrix loads; the on-pipe variant must produce the same texture but
        // is charged one state change per spot by the cost model.
        let field = vortex();
        let spots = generate_spots(300, domain(), 1.0, 4);
        let machine = MachineConfig::new(2, 1);
        let software_cfg = SynthesisConfig::small_test();
        let hardware_cfg = SynthesisConfig {
            transform_on_pipe: true,
            ..software_cfg
        };
        let software = synthesize_dnc(&field, &spots, &software_cfg, &machine);
        let hardware = synthesize_dnc(&field, &spots, &hardware_cfg, &machine);
        let diff = mean_abs_texel_difference(&software.texture, &hardware.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        assert_eq!(software.total_pipe_work().state_changes, 1); // blend mode only
        assert!(
            hardware.total_pipe_work().state_changes >= 300,
            "expected one matrix load per spot, got {}",
            hardware.total_pipe_work().state_changes
        );
        // The simulated machine therefore predicts the on-pipe variant to be
        // slower for the same spot set.
        assert!(
            hardware.predicted.total_seconds > software.predicted.total_seconds,
            "hardware {} vs software {}",
            hardware.predicted.total_seconds,
            software.predicted.total_seconds
        );
    }

    #[test]
    fn single_group_single_processor_is_exactly_sequential() {
        // With one group and one processor there is no reordering at all, so
        // the result is bit-identical to the sequential path.
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 7);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let dnc = synthesize_dnc(&field, &spots, &cfg, &MachineConfig::new(1, 1));
        assert_eq!(seq.texture.absolute_difference(&dnc.texture), 0.0);
    }

    #[test]
    fn spot_batch_size_does_not_change_the_texture() {
        // Batch size is a throughput knob, never a correctness knob.
        let field = vortex();
        let spots = generate_spots(300, domain(), 1.0, 42);
        let machine = MachineConfig::new(1, 1);
        let mut textures = Vec::new();
        for batch in [1usize, 16, 64, 256] {
            let cfg = SynthesisConfig {
                spot_batch: batch,
                ..SynthesisConfig::small_test()
            };
            textures.push(synthesize_dnc(&field, &spots, &cfg, &machine).texture);
        }
        for t in &textures[1..] {
            assert_eq!(textures[0].absolute_difference(t), 0.0);
        }
    }
}
