//! The shared scheduling engine behind every synthesis strategy.
//!
//! The paper's core claim (§4) is that spot-noise synthesis parallelizes
//! across *process groups* regardless of how the work is divided — by spot
//! sets or by texture tiles, on graphics pipes or on the processors alone.
//! This module is that claim in code: one execution loop — partition →
//! per-group command batches → streaming gather — set by two values:
//!
//! * the executor decides *where* a group's command batches run. `Pipes`
//!   checks a threaded [`GraphicsPipe`](softpipe::pipe::GraphicsPipe) worker
//!   out of a [`PipePool`] per group and streams the batches to it (the
//!   paper's master-drives-a-pipe model). `Inline` runs them on the master's
//!   own thread through a [`PipeCore`] (the paper's "the texture tiles may
//!   be completely generated by the processor, bypassing the graphics
//!   subsystem altogether" variant). Another target, a GPU say, would be one
//!   more variant with its own session arm.
//! * the schedule states *what* each group renders: its own spot set
//!   (additive gathering) or the texture tiles `t` with `t % groups == group`
//!   (tiled composition). The schedule is fixed before the run starts, so a
//!   frame is a pure function of its spots, configuration and machine shape.
//!
//! Inside a group, processor `k` of `P` builds the spots `k, k + P, …` of
//! each spot run and the master submits them to the pipe in their original
//! order, so a group's partial is the same bits whatever its processor
//! count.
//!
//! Gathering is *streaming*: every finished partial texture is handed to the
//! main thread through a channel the moment its group completes it, and
//! [`StreamingGather`] folds or blits it immediately, overlapping the
//! sequential `c` term of eq. 3.2 with the still-running groups. Additive
//! partials are folded in slot order, so the final texture is bit-identical
//! to the classic barrier-then-fold gather; tile partials occupy disjoint
//! regions and are copied on arrival.
//!
//! Accounting is uniform: every run reports per-group [`GroupReport`]s
//! (spots, CPU/pipe work, wall time) and shares one [`BusTracker`], so the
//! perf model and the diagnostics see the same shape of data whichever
//! executor ran.
//!
//! The engine itself is crate-private; the entry points are
//! [`synthesize_dnc`](crate::dnc::synthesize_dnc),
//! [`synthesize_dnc_with_telemetry`](crate::dnc::synthesize_dnc_with_telemetry)
//! and [`synthesize_cpu_only`](crate::dnc::synthesize_cpu_only).

use crate::config::SynthesisConfig;
use crate::spot::{Spot, SpotJob};
use crate::synth::{job_commands, preamble_commands, SynthesisContext};
use crate::telemetry::{self, TraceSink, TraceStage};
use flowfield::VectorField;
use softpipe::cost::{CpuWork, PipeWork};
use softpipe::pipe::{PipeCore, PipeOutput, RenderCommand};
use softpipe::{
    BusStats, BusTracker, FrameArena, PipePool, PixelTile, PooledPipe, StreamingGather, Texture,
};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Depth of the bounded channel each slave streams its finished spot jobs to
/// its master through (back-pressure keeps slave memory bounded while the
/// master drains the pipe).
const JOB_CHANNEL_DEPTH: usize = 256;

/// Options of one engine run. It has no fields: the schedule is a fixed
/// function of the spots, the configuration and the machine shape. The type
/// stays only because callers of
/// [`synthesize_dnc_with_telemetry`](crate::dnc::synthesize_dnc_with_telemetry)
/// pass `&SchedulerOptions::default()`, until that function's arguments are
/// folded into one struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerOptions;

/// Per-process-group measurement record.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupReport {
    /// Number of spots processed by the group (including duplicates when
    /// texture tiling is enabled).
    pub spots: usize,
    /// Processors assigned to the group (1 master + `processors - 1` slaves).
    pub processors: usize,
    /// CPU-side work performed by the group.
    pub cpu_work: CpuWork,
    /// Pipe-side work performed by the group.
    pub pipe_work: PipeWork,
    /// True when every partial the group rendered reached the gather; a
    /// closed gather channel, which ends the group early, reports `false`.
    pub queue_exhausted: bool,
    /// Wall-clock microseconds the group's master spent from session open to
    /// its last partial delivery — the per-group tail of the frame.
    pub wall_us: u64,
}

/// Complete result of one engine run, uniform across executors and
/// schedules.
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// The final composed texture.
    pub texture: Texture,
    /// Per-group reports.
    pub groups: Vec<GroupReport>,
    /// Texels processed by the gather/compose step (the `c` term's work).
    pub compose_texels: u64,
    /// Wall-clock seconds of the engine run on the host.
    pub wall_seconds: f64,
    /// Bus traffic recorded during the run (zero when the groups rasterize
    /// inline, bypassing the graphics subsystem).
    pub bus: BusStats,
}

/// Where every process group's render commands run.
pub(crate) enum Executor {
    /// Each group checks a threaded pipe worker out of the pool at session
    /// open and back in at close, so blending on the pipe overlaps with
    /// spot-shape computation on the processors. A capacity-0 pool spawns a
    /// worker per session and joins it at close (spawn-per-frame,
    /// bit-identically). The pool's workers recycle partial readbacks
    /// through the pool's own arena, so build it against the arena the
    /// engine composes with.
    Pipes(Arc<PipePool>),
    /// Each group rasterizes on its master's thread. No bus traffic is
    /// recorded: the partial textures never leave host memory.
    Inline,
}

/// One group's open rendering session. A session produces one partial
/// texture per `finish` and stays usable for the next one (the engine
/// `Clear`s between partials), which is how a single pipe renders several
/// tiles.
enum Session {
    Pipe(PooledPipe),
    Inline(Box<PipeCore>),
}

impl Session {
    /// Runs a batch of commands in order.
    fn submit(&mut self, commands: Vec<RenderCommand>) {
        match self {
            Session::Pipe(pipe) => pipe.submit(commands),
            Session::Inline(core) => core.execute_batch(commands),
        }
    }

    /// Flushes outstanding work and returns the partial texture plus the
    /// work counters accumulated since the previous `finish`.
    fn finish(&mut self) -> PipeOutput {
        match self {
            Session::Pipe(pipe) => pipe.finish(),
            Session::Inline(core) => core.finish(),
        }
    }
}

/// What every process group renders in one engine run, fixed before the
/// run starts.
pub(crate) enum Schedule {
    /// Additive gathering: group `g` renders the `g`-th spot set into its
    /// own partial (gather slot `g`). One set per group.
    Spots(Vec<Vec<Spot>>),
    /// Texture tiling: tile `t`'s spot set (boundary duplicates included)
    /// renders into gather slot `t` on group `t % groups`, and the partials
    /// are composed by region copy.
    Tiles {
        /// The pixel region each tile owns.
        tiles: Vec<PixelTile>,
        /// One spot set per tile.
        spots: Vec<Vec<Spot>>,
    },
}

/// Accumulates render commands and flushes them to the session in
/// [`SynthesisConfig::spot_batch`]-sized batches. With an arena the batch
/// vectors are checked out of the pool (and recycled by the executing core
/// after the batch runs), so steady-state submission allocates nothing.
struct BatchedSubmitter<'a> {
    session: &'a mut Session,
    buffer: Vec<RenderCommand>,
    spots_buffered: usize,
    batch: usize,
    arena: Option<&'a Arc<FrameArena>>,
}

impl<'a> BatchedSubmitter<'a> {
    fn new(session: &'a mut Session, batch: usize, arena: Option<&'a Arc<FrameArena>>) -> Self {
        let batch = batch.max(1);
        let buffer = Self::checkout(arena, batch);
        BatchedSubmitter {
            session,
            buffer,
            spots_buffered: 0,
            batch,
            arena,
        }
    }

    fn checkout(arena: Option<&Arc<FrameArena>>, batch: usize) -> Vec<RenderCommand> {
        match arena {
            Some(arena) => arena.commands(2 * batch),
            None => Vec::with_capacity(2 * batch),
        }
    }

    /// Queues the commands of one finished spot job.
    fn push_job(&mut self, job: SpotJob, cpu_work: &mut CpuWork) {
        cpu_work.merge(&job.cpu_work);
        self.buffer.extend(job_commands(job));
        self.spots_buffered += 1;
        if self.spots_buffered >= self.batch {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.buffer.is_empty() {
            let next = Self::checkout(self.arena, self.batch);
            self.session
                .submit(std::mem::replace(&mut self.buffer, next));
        }
        self.spots_buffered = 0;
    }
}

impl Drop for BatchedSubmitter<'_> {
    /// Flushes any buffered commands, so an early exit between the last
    /// `push_job` and an explicit `flush` can never silently drop a partial
    /// batch. Skipped mid-panic: submitting to a dead pipe would abort.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.flush();
            if let Some(arena) = self.arena {
                arena.recycle_commands(std::mem::take(&mut self.buffer));
            }
        }
    }
}

/// The execution engine: one executor, one schedule, `n` process groups,
/// streaming gather. [`crate::dnc::synthesize_dnc`] and
/// [`crate::dnc::synthesize_cpu_only`] are thin configurations of this.
pub(crate) struct Scheduler<'a> {
    /// Where every group's commands run.
    pub executor: Executor,
    /// The vector field being visualised.
    pub field: &'a dyn VectorField,
    /// Synthesis parameters.
    pub cfg: &'a SynthesisConfig,
    /// Shared per-frame context (mapper, normaliser, spot texture).
    pub ctx: &'a SynthesisContext,
    /// Processors assigned to each group (1 master + n-1 slaves); the
    /// length is the group count.
    pub procs_per_group: &'a [usize],
    /// Bus traffic recorder shared by all groups.
    pub bus: BusTracker,
    /// Optional pooled-buffer arena: when present, the gather target, every
    /// partial texture and every batch vector come from (and return to) the
    /// pool, so a steady-state frame performs no framebuffer-sized heap
    /// allocation. `None` reproduces the classic allocate-per-frame
    /// behaviour; outputs are bit-identical either way.
    pub arena: Option<&'a Arc<FrameArena>>,
    /// Frame-lifecycle trace sink. Per-group [`TraceStage::RasterGroup`]
    /// spans and the [`TraceStage::Gather`] span are recorded through it; a
    /// disabled sink (the default) costs one branch per group.
    pub sink: TraceSink,
}

impl Scheduler<'_> {
    /// Runs the engine over `schedule`: one master per group (scoped threads
    /// when there are several groups; the calling thread itself for a
    /// single group, so a pooled single-group frame spawns no thread at
    /// all), streaming finished partials through a channel and composing
    /// them on the calling thread while stragglers are still rendering.
    pub(crate) fn run(&self, schedule: &Schedule) -> EngineOutput {
        let start = Instant::now();
        let groups = self.procs_per_group.len();
        assert!(groups > 0, "need at least one process group");
        let size = self.cfg.texture_size;
        // Streaming gather: fold/blit every partial the moment its group
        // hands it over, overlapping compose with the stragglers. The
        // additive target may be checked out dirty (its first fold is a
        // wholesale copy); the tile target must honour the zeroed-texture
        // contract for texels no tile owns.
        let (slots, mut gather) = match schedule {
            Schedule::Spots(sets) => {
                assert_eq!(sets.len(), groups, "one spot set per group");
                let target = match self.arena {
                    Some(arena) => arena.texture_uninit(size, size),
                    None => Texture::new(size, size),
                };
                (
                    sets.len(),
                    StreamingGather::additive_into(target, sets.len()),
                )
            }
            Schedule::Tiles { tiles, spots } => {
                assert_eq!(tiles.len(), spots.len(), "one spot set per tile");
                let target = match self.arena {
                    Some(arena) => arena.texture_zeroed(size, size),
                    None => Texture::new(size, size),
                };
                (
                    tiles.len(),
                    StreamingGather::tiles_into(target, tiles.to_vec()),
                )
            }
        };
        if let Some(arena) = self.arena {
            gather = gather.with_arena(arena);
        }
        let (tx, rx) = sync_channel::<(usize, Texture)>(slots.max(1));
        // Scoped group threads do not inherit the thread-local trace
        // context, so capture it once here and tag every group span with it.
        let tctx = telemetry::ctx();
        let mut reports = vec![GroupReport::default(); groups];
        let composed = std::thread::scope(|scope| {
            if groups == 1 {
                // One group: there are no stragglers to overlap with, so the
                // master runs inline on the calling thread — with a warm
                // pipe pool, a steady-state single-group frame (the
                // service's default session shape) spawns zero threads. The
                // channel's capacity covers every partial the group can
                // produce (`slots`), so sending never blocks on the
                // not-yet-draining gather.
                reports[0] = self.run_group(0, schedule, tx, tctx);
            } else {
                for (group, report) in reports.iter_mut().enumerate() {
                    let tx = tx.clone();
                    scope.spawn(move || *report = self.run_group(group, schedule, tx, tctx));
                }
                drop(tx);
            }
            let gather_start = Instant::now();
            for (slot, texture) in rx.iter() {
                gather.push(slot, texture);
            }
            let composed = gather.finish();
            self.sink.record_with(
                TraceStage::Gather,
                tctx,
                gather_start,
                gather_start.elapsed(),
                0,
            );
            composed
        });
        EngineOutput {
            texture: composed.texture,
            groups: reports,
            compose_texels: composed.blend_texels,
            wall_seconds: start.elapsed().as_secs_f64(),
            bus: self.bus.snapshot(),
        }
    }

    /// Runs one process group to completion: opens a session, renders the
    /// group's share of `schedule`, and sends every finished partial to the
    /// gather channel. `tctx` is the run's trace context, captured on the
    /// calling thread (group threads are scoped and carry none of their
    /// own).
    fn run_group(
        &self,
        group: usize,
        schedule: &Schedule,
        tx: SyncSender<(usize, Texture)>,
        tctx: telemetry::TraceCtx,
    ) -> GroupReport {
        let group_start = Instant::now();
        let size = self.cfg.texture_size;
        let mut session = match &self.executor {
            Executor::Pipes(pool) => {
                Session::Pipe(pool.checkout(group, size, size, Some(self.bus.clone())))
            }
            Executor::Inline => Session::Inline(Box::new(PipeCore::with_arena(
                size,
                size,
                self.arena.cloned(),
            ))),
        };
        session.submit(preamble_commands(self.ctx));
        let mut report = GroupReport {
            processors: self.procs_per_group[group],
            ..GroupReport::default()
        };
        // Each slot the group owns is cleared, rendered and finished into its
        // own partial, which streams straight to the gather. A group renders
        // its one spot set, or each of its tiles (`t % groups == group`).
        // Slaves are scoped per partial: a tile is a coarse unit (the paper's
        // layout has exactly one per group), so the spawn cost amortizes over
        // the tile's whole spot run.
        let mut render = |slot: usize, spots: &[Spot]| {
            self.render_partial(&mut session, &mut report, spots);
            let out = session.finish();
            report.pipe_work.merge(&out.pipe_work());
            tx.send((slot, out.texture)).is_ok()
        };
        report.queue_exhausted = match schedule {
            Schedule::Spots(sets) => render(group, &sets[group]),
            Schedule::Tiles { spots, .. } => (group..spots.len())
                .step_by(self.procs_per_group.len())
                .all(|tile| render(tile, &spots[tile])),
        };
        report.wall_us = group_start.elapsed().as_micros() as u64;
        self.sink.record_with(
            TraceStage::RasterGroup,
            tctx,
            group_start,
            group_start.elapsed(),
            group as u64,
        );
        report
    }

    /// Clears the session and renders `spots` into it with the group's
    /// `report.processors` processors: processor `k` builds the spots
    /// `k, k + procs, …` (the paper: "if there are no slaves the master will
    /// also perform spot shape calculation"), each slave streaming its jobs
    /// back through its own bounded channel, and the master submits job `i`
    /// from processor `i % procs`, so the pipe sees the spots in their
    /// original order and the partial is the same bits for every processor
    /// count. Every submitted job counts one spot into `report`.
    ///
    /// A slave that panics drops its sender; the master stops at its next
    /// job and the scope re-raises the panic instead of hanging.
    fn render_partial(&self, session: &mut Session, report: &mut GroupReport, spots: &[Spot]) {
        session.submit(vec![RenderCommand::Clear]);
        let mut submitter = BatchedSubmitter::new(session, self.cfg.spot_batch, self.arena);
        let procs = report.processors.min(spots.len()).max(1);
        let build = |spot: &Spot| self.ctx.build_job(self.field, spot, self.cfg);
        std::thread::scope(|scope| {
            let slaves: Vec<Receiver<SpotJob>> = (1..procs)
                .map(|k| {
                    let (jtx, jrx) = sync_channel::<SpotJob>(JOB_CHANNEL_DEPTH);
                    scope.spawn(move || {
                        for spot in spots.iter().skip(k).step_by(procs) {
                            if jtx.send(build(spot)).is_err() {
                                return;
                            }
                        }
                    });
                    jrx
                })
                .collect();
            for (i, spot) in spots.iter().enumerate() {
                let job = match i % procs {
                    0 => build(spot),
                    k => match slaves[k - 1].recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    },
                };
                submitter.push_job(job, &mut report.cpu_work);
                report.spots += 1;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use crate::partition::{
        partition_chunks, partition_round_robin, partition_tiled, TilingOptions,
    };
    use crate::spot::generate_spots;
    use crate::synth::synthesize_sequential_with_context;
    use flowfield::analytic::Vortex;
    use flowfield::{Rect, Vec2};
    use softpipe::gather_additive;

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

    /// An engine over `executor` with a fresh bus, no arena and no tracing.
    fn engine<'a>(
        executor: Executor,
        field: &'a dyn VectorField,
        cfg: &'a SynthesisConfig,
        ctx: &'a SynthesisContext,
        procs_per_group: &'a [usize],
    ) -> Scheduler<'a> {
        Scheduler {
            executor,
            field,
            cfg,
            ctx,
            procs_per_group,
            bus: BusTracker::new(),
            arena: None,
            sink: TraceSink::disabled(),
        }
    }

    fn same_bits(a: &Texture, b: &Texture) -> bool {
        a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn static_engine_is_bit_identical_to_per_group_sequential_render() {
        // Masters only (one processor per group): every group renders its
        // share in order, so the engine must match a per-group sequential
        // render gathered in slot order, bit for bit, on every executor.
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 21);
        let ctx = SynthesisContext::new(&field, &cfg);
        let render = |set: &[Spot]| synthesize_sequential_with_context(&field, set, &cfg, &ctx);
        let groups = 3usize;
        let procs = vec![1usize; groups];

        let parts = partition_round_robin(&spots, groups);
        let partials: Vec<Texture> = parts.iter().map(|p| render(p).texture).collect();
        let additive = gather_additive(&partials);
        // Four tiles on three groups: group 0 renders tiles 0 and 3 on one
        // session.
        let tiled = partition_tiled(&spots, &ctx.mapper, 4, &TilingOptions::from_config(&cfg));
        let mut gather =
            StreamingGather::tiles(cfg.texture_size, cfg.texture_size, tiled.tiles.clone());
        for (tile, set) in tiled.groups.iter().enumerate() {
            gather.push(tile, render(set).texture);
        }
        let composed = gather.finish();
        let cases = [
            ("spots", Schedule::Spots(parts), additive),
            (
                "tiles",
                Schedule::Tiles {
                    tiles: tiled.tiles,
                    spots: tiled.groups,
                },
                composed,
            ),
        ];

        let run = |executor: Executor, schedule: &Schedule| {
            engine(executor, &field, &cfg, &ctx, &procs).run(schedule)
        };
        let warm = Arc::new(PipePool::new(None));
        for (name, schedule, expected) in &cases {
            // Group `g` renders set `g`, or every tile `t` with
            // `t % groups == g`; its spots and CPU work are the sums over
            // those sets' sequential renders.
            let expected_groups: Vec<(usize, CpuWork)> = (0..groups)
                .map(|g| {
                    let sets: Vec<&Vec<Spot>> = match schedule {
                        Schedule::Spots(sets) => vec![&sets[g]],
                        Schedule::Tiles { spots, .. } => {
                            spots.iter().skip(g).step_by(groups).collect()
                        }
                    };
                    let mut cpu_work = CpuWork::default();
                    for set in &sets {
                        cpu_work.merge(&render(set).cpu_work);
                    }
                    (sets.iter().map(|set| set.len()).sum(), cpu_work)
                })
                .collect();
            // The warm pool's first run fills its shelves; the second reuses
            // them.
            let _ = run(Executor::Pipes(Arc::clone(&warm)), schedule);
            let reused = warm.stats().reused;
            let outs = [
                ("inline", run(Executor::Inline, schedule)),
                (
                    "spawn-per-frame",
                    run(
                        Executor::Pipes(Arc::new(PipePool::with_capacity(None, 0))),
                        schedule,
                    ),
                ),
                (
                    "warm pool",
                    run(Executor::Pipes(Arc::clone(&warm)), schedule),
                ),
            ];
            assert_eq!(
                warm.stats().reused,
                reused + groups as u64,
                "{name}: pool not warm"
            );
            for (executor, out) in &outs {
                let case = format!("{name} on {executor}");
                assert!(
                    same_bits(&expected.texture, &out.texture),
                    "{case}: bits differ"
                );
                assert_eq!(out.compose_texels, expected.blend_texels, "{case}");
                assert!(out.groups.iter().all(|g| g.queue_exhausted), "{case}");
                for (g, report) in out.groups.iter().enumerate() {
                    assert_eq!(
                        (report.spots, report.cpu_work),
                        expected_groups[g],
                        "{case}: group {g}"
                    );
                    assert_eq!(
                        report.pipe_work, outs[0].1.groups[g].pipe_work,
                        "{case}: group {g} pipe work"
                    );
                }
            }
            // With one spot set per group, a group's pipe work is its
            // sequential render's.
            if let Schedule::Spots(parts) = schedule {
                for (report, part) in outs[0].1.groups.iter().zip(parts) {
                    assert_eq!(report.pipe_work, render(part).pipe.pipe_work());
                }
            }
        }
    }

    #[test]
    fn inline_static_chunks_match_rayon_style_partials() {
        // Inline groups over chunked static work reproduce a
        // parallel-over-chunks executor: per-chunk partials folded in chunk
        // order.
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 8);
        let ctx = SynthesisContext::new(&field, &cfg);
        let tasks = 4usize;
        let chunks = partition_chunks(&spots, tasks);
        let partials: Vec<Texture> = chunks
            .iter()
            .map(|c| synthesize_sequential_with_context(&field, c, &cfg, &ctx).texture)
            .collect();
        let expected = gather_additive(&partials);

        let procs = vec![1usize; tasks];
        let out =
            engine(Executor::Inline, &field, &cfg, &ctx, &procs).run(&Schedule::Spots(chunks));
        assert_eq!(expected.texture.absolute_difference(&out.texture), 0.0);
        // The inline path records no bus traffic: nothing crossed to a
        // graphics subsystem.
        assert_eq!(out.bus.total_bytes(), 0);
    }

    #[test]
    fn scheduler_records_group_and_gather_spans_with_the_callers_ctx() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 5);
        let ctx = SynthesisContext::new(&field, &cfg);
        let procs = vec![1usize; 2];
        let sink = TraceSink::with_mode(telemetry::TraceMode::Ring, 64);
        // The ctx is set on this thread; group masters run on scoped threads
        // that inherit no thread-locals — the engine must capture and carry
        // it for the spans to come out tagged.
        let _guard = telemetry::set_ctx(telemetry::TraceCtx { actor: 9, frame: 4 });
        let out = Scheduler {
            sink: sink.clone(),
            ..engine(Executor::Inline, &field, &cfg, &ctx, &procs)
        }
        .run(&Schedule::Spots(partition_round_robin(&spots, 2)));
        assert!(
            out.groups.iter().map(|g| g.wall_us).sum::<u64>() > 0,
            "group wall clocks are recorded"
        );
        let events = sink.recent(100);
        let groups = events
            .iter()
            .filter(|e| e.stage == TraceStage::RasterGroup)
            .count();
        let gathers = events
            .iter()
            .filter(|e| e.stage == TraceStage::Gather)
            .count();
        assert_eq!(groups, 2, "one span per process group");
        assert_eq!(gathers, 1, "one gather span per run");
        assert!(events.iter().all(|e| e.actor == 9 && e.frame == 4));
        let details: Vec<u64> = events
            .iter()
            .filter(|e| e.stage == TraceStage::RasterGroup)
            .map(|e| e.detail)
            .collect();
        assert!(details.contains(&0) && details.contains(&1), "{details:?}");
    }

    /// A field that panics when sampled from an unnamed thread. A single
    /// group's master runs on the (named) calling thread; its slaves are
    /// unnamed scoped threads.
    struct PanicsOnSlaves(Vortex);

    impl VectorField for PanicsOnSlaves {
        fn velocity(&self, p: Vec2) -> Vec2 {
            assert!(std::thread::current().name().is_some(), "slave failed");
            self.0.velocity(p)
        }

        fn domain(&self) -> Rect {
            self.0.domain()
        }
    }

    #[test]
    fn a_slave_panic_reaches_the_caller_instead_of_hanging_the_master() {
        let cfg = SynthesisConfig::small_test();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 11);
        let ctx = SynthesisContext::new(&vortex(), &cfg);
        let field = PanicsOnSlaves(vortex());
        let procs = [3usize];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine(Executor::Inline, &field, &cfg, &ctx, &procs).run(&Schedule::Spots(vec![spots]))
        }));
        assert!(run.is_err(), "the slaves' panic was swallowed");
    }

    #[test]
    fn static_source_skips_empty_groups_gracefully() {
        // More groups than spots: empty groups still produce (zero)
        // partials and report zero work.
        let cfg = SynthesisConfig {
            spot_count: 2,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(2, domain(), 1.0, 3);
        let ctx = SynthesisContext::new(&field, &cfg);
        let procs = vec![1usize; 4];
        let out = engine(Executor::Inline, &field, &cfg, &ctx, &procs)
            .run(&Schedule::Spots(partition_round_robin(&spots, 4)));
        let total: usize = out.groups.iter().map(|g| g.spots).sum();
        assert_eq!(total, 2);
        assert!(out.groups.iter().all(|g| g.queue_exhausted));
        assert!(out.texture.variance() > 0.0);
    }
}
