//! The interactive spot-noise pipeline (paper figure 3 / figure 5).
//!
//! One frame of the interactive visualization consists of four steps:
//!
//! 1. *read data* — the application produces (or loads) the current vector
//!    field; for steering and browsing this happens 5–15 times a second,
//! 2. *advect particles* — spot positions follow particle paths,
//! 3. *generate texture* — the spots are synthesised into a texture, either
//!    sequentially or with the divide-and-conquer executor,
//! 4. *render scene* — the texture is post-processed and handed to the
//!    presentation layer (colormapping, overlays) for display.
//!
//! [`Pipeline`] owns the state that persists between frames (the spot
//! animator and the synthesis configuration) and measures per-stage timings,
//! so applications only have to supply a field per frame.

use crate::advect::{PositionMode, SpotAnimator};
use crate::config::SynthesisConfig;
use crate::dnc::{synthesize_dnc_with_telemetry, DncReport};
use crate::filter::standard_postprocess;
use crate::metrics::{timed, FrameMetrics, StageTimings};
use crate::scheduler::SchedulerOptions;
use crate::synth::{synthesize_sequential, SynthesisContext};
use crate::telemetry::{TraceSink, TraceStage};
use flowfield::particles::ParticleOptions;
use flowfield::{Rect, VectorField};
use softpipe::machine::MachineConfig;
use softpipe::{FrameArena, PipePool, Texture};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the texture-synthesis step is executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    /// One processor, one (synchronous) pipe — the baseline of eq. 2.1.
    Sequential,
    /// The divide-and-conquer executor on a virtual machine configuration.
    DivideAndConquer(MachineConfig),
}

/// Result of one pipeline frame.
#[derive(Debug, Clone)]
pub struct FrameOutput {
    /// The raw (signed) spot-noise texture.
    pub texture: Texture,
    /// The display-ready texture after spot filtering and contrast stretch
    /// (a 1×1 placeholder when display production is disabled via
    /// [`Pipeline::set_display_enabled`]).
    pub display: Texture,
    /// Measurements of the frame.
    pub metrics: FrameMetrics,
    /// The divide-and-conquer report, when that executor ran.
    pub dnc: Option<DncReport>,
}

/// The persistent state of the interactive pipeline.
#[derive(Debug)]
pub struct Pipeline {
    cfg: SynthesisConfig,
    mode: ExecutionMode,
    animator: SpotAnimator,
    postprocess: bool,
    display: bool,
    arena: Option<Arc<FrameArena>>,
    pool: Arc<PipePool>,
    /// The persistent synthesis context, refreshed (not rebuilt) per frame
    /// so the spot texture and pyramid survive across frames.
    ctx: Option<SynthesisContext>,
    frames: u64,
    /// Frame-lifecycle trace sink: per-stage spans (advect, synthesize,
    /// render) plus the per-group spans the scheduler records through it.
    /// Disabled by default — recording is one branch per stage.
    sink: TraceSink,
}

/// Always `true`: every pipe worker comes from a [`PipePool`]. Kept only
/// because the repository benchmark records it in its run header; it goes
/// when the benchmark stops reading it.
pub fn pipe_pool_default_enabled() -> bool {
    true
}

impl Pipeline {
    fn from_parts(cfg: SynthesisConfig, mode: ExecutionMode, animator: SpotAnimator) -> Self {
        let arena = Some(Arc::new(FrameArena::new()));
        // The default pool shares the pipeline's arena so pooled workers
        // recycle their partial readbacks into the same buffers the gather
        // composes with.
        let pool = Arc::new(PipePool::new(arena.clone()));
        Pipeline {
            cfg,
            mode,
            animator,
            postprocess: true,
            display: true,
            arena,
            pool,
            ctx: None,
            frames: 0,
            sink: TraceSink::disabled(),
        }
    }

    /// Creates a pipeline for a field domain, with spots advected along
    /// particle paths.
    pub fn new(cfg: SynthesisConfig, mode: ExecutionMode, domain: Rect) -> Self {
        cfg.validate().expect("invalid synthesis configuration");
        let animator = SpotAnimator::new(domain, cfg.spot_count, PositionMode::Advected, cfg.seed);
        Pipeline::from_parts(cfg, mode, animator)
    }

    /// Creates a pipeline with full control over the spot life cycle and
    /// position mode (used to reproduce Figure 2's default-vs-advected
    /// comparison).
    pub fn with_animator(
        cfg: SynthesisConfig,
        mode: ExecutionMode,
        domain: Rect,
        particle_options: ParticleOptions,
        position_mode: PositionMode,
    ) -> Self {
        cfg.validate().expect("invalid synthesis configuration");
        let animator =
            SpotAnimator::with_options(domain, particle_options, position_mode, cfg.seed);
        Pipeline::from_parts(cfg, mode, animator)
    }

    /// Enables or disables the display post-processing (spot filtering and
    /// contrast stretch) of step 4.
    pub fn set_postprocess(&mut self, enabled: bool) {
        self.postprocess = enabled;
    }

    /// Enables or disables display-texture production entirely. Servers
    /// that ship the raw synthesis texture (the spotnoise service) disable
    /// it to skip one framebuffer-sized allocation + pass per frame;
    /// [`FrameOutput::display`] then holds a 1×1 placeholder.
    pub fn set_display_enabled(&mut self, enabled: bool) {
        self.display = enabled;
    }

    /// Replaces the pipeline's frame arena. Pipelines pool frame buffers by
    /// default; pass `None` to reproduce the classic allocate-per-frame
    /// behaviour (the `frame_arena_reuse` bench baseline), or share one
    /// arena across pipelines. Outputs are bit-identical either way.
    ///
    /// The pipe pool is rebuilt against the new arena (pooled workers bake
    /// their arena in at spawn), replacing any pool installed earlier, so
    /// set the arena *before* [`Pipeline::set_pipe_pool`].
    pub fn set_frame_arena(&mut self, arena: Option<Arc<FrameArena>>) {
        self.arena = arena;
        self.pool = Arc::new(PipePool::new(self.arena.clone()));
    }

    /// Replaces the pipeline's pipe pool. Pipelines keep pipe workers alive
    /// across frames in a pool of their own by default; share one pool
    /// across pipelines (the service shares a single pool over all
    /// sessions), or pass a capacity-0 pool to spawn and join the workers
    /// every frame (the `pipe_pool_reuse` bench baseline, bit-identical).
    /// Build the pool against the same arena the pipeline composes with.
    pub fn set_pipe_pool(&mut self, pool: Arc<PipePool>) {
        self.pool = pool;
    }

    /// The pipeline's pipe pool.
    pub fn pipe_pool(&self) -> &Arc<PipePool> {
        &self.pool
    }

    /// The pipeline's frame arena, when pooling is enabled. Callers that
    /// drop a [`FrameOutput`] after consuming it can recycle its texture
    /// here to close the zero-allocation loop.
    pub fn frame_arena(&self) -> Option<&Arc<FrameArena>> {
        self.arena.as_ref()
    }

    /// Installs a frame-lifecycle trace sink: [`Pipeline::advance`] records
    /// advect/synthesize/render spans through it, and the divide-and-conquer
    /// executor records per-group raster and gather spans. The default
    /// (disabled) sink records nothing at one branch per stage.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The pipeline's trace sink.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.sink
    }

    /// The synthesis configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.cfg
    }

    /// Switches the spot-sampling mode in place — the degradation hook the
    /// service's pressure ladder uses to flip an overloaded session from
    /// `Exact` to the cheaper `Footprint` sampling (and back on recovery)
    /// without touching the animator: advection is sampling-independent, so
    /// frame `n` after a flip is bit-identical to frame `n` of a session
    /// configured that way from the start. The persistent synthesis context
    /// adapts on the next frame's refresh (building or dropping the
    /// footprint pyramid).
    pub fn set_sampling(&mut self, sampling: softpipe::SamplingMode) {
        self.cfg.sampling = sampling;
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Mutable access to the spot animator (to tweak life-cycle parameters
    /// interactively, as the paper's Figure 2 does).
    pub fn animator_mut(&mut self) -> &mut SpotAnimator {
        &mut self.animator
    }

    /// Number of frames produced so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Produces one frame: advects the spots over `dt` through `field`,
    /// synthesises the texture and post-processes it for display.
    ///
    /// `read_us` is the wall-clock cost of producing `field` (pipeline step
    /// 1), which the caller measures because data production lives in the
    /// application; pass 0 when not relevant.
    pub fn advance(&mut self, field: &dyn VectorField, dt: f64, read_us: u64) -> FrameOutput {
        // Step 2: particle advection. Each stage opens with a fault
        // checkpoint (one relaxed load when chaos testing is off) so the
        // service's containment layer can be exercised at every boundary.
        softpipe::fault::fire("advect");
        let advect_start = Instant::now();
        let (_, advect_us) = timed(|| self.animator.advance(field, dt));
        self.sink.record(
            TraceStage::Advect,
            advect_start,
            Duration::from_micros(advect_us),
        );
        let spots = self.animator.spots();

        // Step 3: texture synthesis.
        softpipe::fault::fire("synthesize");
        let mode = self.mode;
        let cfg = self.cfg;
        let arena = self.arena.as_ref();
        let pool = Some(&self.pool);
        let sink = &self.sink;
        let ctx_slot = &mut self.ctx;
        let synthesize_start = Instant::now();
        let ((texture, dnc), synthesize_us) = timed(|| match mode {
            ExecutionMode::Sequential => {
                let out = synthesize_sequential(field, &spots, &cfg);
                (out.texture, None)
            }
            ExecutionMode::DivideAndConquer(machine) => {
                // Refresh the persistent context instead of rebuilding it:
                // the mapper and normaliser follow the (possibly advanced)
                // field, while the spot texture and pyramid survive frames
                // whose spot-shape parameters are unchanged.
                let ctx = match ctx_slot {
                    Some(ctx) => {
                        ctx.refresh(field, &cfg);
                        ctx
                    }
                    None => ctx_slot.insert(SynthesisContext::new(field, &cfg)),
                };
                let out = synthesize_dnc_with_telemetry(
                    field,
                    &spots,
                    &cfg,
                    &machine,
                    ctx,
                    &SchedulerOptions,
                    arena,
                    pool,
                    sink,
                );
                // Texture and report separate without cloning: the frame
                // keeps the texture once instead of once per struct.
                let (texture, report) = out.into_parts();
                (texture, Some(report))
            }
        });
        self.sink.record(
            TraceStage::Synthesize,
            synthesize_start,
            Duration::from_micros(synthesize_us),
        );

        // Step 4: display post-processing (skipped entirely when display
        // production is disabled — raw-texture servers never read it).
        softpipe::fault::fire("render");
        let postprocess = self.postprocess;
        let produce_display = self.display;
        let render_start = Instant::now();
        let (display, render_us) = timed(|| {
            if !produce_display {
                Texture::new(1, 1)
            } else if postprocess {
                standard_postprocess(&texture, cfg.spot_radius_pixels())
            } else {
                texture.normalized()
            }
        });
        self.sink.record(
            TraceStage::Render,
            render_start,
            Duration::from_micros(render_us),
        );

        self.frames += 1;
        let timings = StageTimings {
            read_us,
            advect_us,
            synthesize_us,
            render_us,
        };
        let predicted = dnc.as_ref().map(|d| d.predicted.clone());
        FrameOutput {
            texture,
            display,
            metrics: FrameMetrics {
                timings,
                predicted,
                spots: spots.len(),
            },
            dnc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::analytic::Vortex;
    use flowfield::Vec2;

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    fn field() -> Vortex {
        Vortex {
            omega: 1.0,
            center: Vec2::new(0.5, 0.5),
            domain: domain(),
        }
    }

    #[test]
    fn sequential_pipeline_produces_frames() {
        let cfg = SynthesisConfig::small_test();
        let mut p = Pipeline::new(cfg, ExecutionMode::Sequential, domain());
        let f = field();
        let frame = p.advance(&f, 0.05, 123);
        assert_eq!(frame.texture.width(), cfg.texture_size);
        assert!(frame.dnc.is_none());
        assert_eq!(frame.metrics.timings.read_us, 123);
        assert!(frame.metrics.timings.synthesize_us > 0);
        assert_eq!(frame.metrics.spots, cfg.spot_count);
        assert_eq!(p.frames(), 1);
        // Display texture is in [0, 1].
        let (lo, hi) = frame.display.range();
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn dnc_pipeline_attaches_report_and_prediction() {
        let cfg = SynthesisConfig::small_test();
        let machine = MachineConfig::new(4, 2);
        let mut p = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
        let f = field();
        let frame = p.advance(&f, 0.05, 0);
        let dnc = frame.dnc.expect("dnc report expected");
        assert_eq!(dnc.groups.len(), 2);
        assert!(frame.metrics.predicted.is_some());
        assert!(frame.metrics.simulated_textures_per_second().unwrap() > 0.0);
    }

    #[test]
    fn successive_frames_differ_because_spots_advect() {
        let cfg = SynthesisConfig::small_test();
        let mut p = Pipeline::new(cfg, ExecutionMode::Sequential, domain());
        let f = field();
        let a = p.advance(&f, 0.1, 0);
        let b = p.advance(&f, 0.1, 0);
        assert!(a.texture.absolute_difference(&b.texture) > 0.0);
        assert_eq!(p.frames(), 2);
    }

    #[test]
    fn postprocess_can_be_disabled() {
        let cfg = SynthesisConfig::small_test();
        let mut p = Pipeline::new(cfg, ExecutionMode::Sequential, domain());
        p.set_postprocess(false);
        let frame = p.advance(&field(), 0.05, 0);
        // Without the high-pass filter the display is just the normalised
        // texture, which still lies in [0, 1].
        let (lo, hi) = frame.display.range();
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn sampling_flip_mid_stream_matches_a_native_footprint_session() {
        // The pressure ladder degrades overloaded sessions by flipping them
        // to footprint sampling mid-stream. Advection is independent of the
        // sampling mode, so frame n after the flip must be bit-identical to
        // frame n of a session configured for footprint from the start —
        // which also makes degraded frames cacheable under the footprint
        // config key.
        use softpipe::SamplingMode;
        let cfg = SynthesisConfig::small_test();
        let mut footprint_cfg = cfg;
        footprint_cfg.sampling = SamplingMode::Footprint;
        let machine = MachineConfig::new(2, 2);
        let mut flipped = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
        let mut native = Pipeline::new(
            footprint_cfg,
            ExecutionMode::DivideAndConquer(machine),
            domain(),
        );
        let f = field();
        let _ = flipped.advance(&f, 0.05, 0);
        let _ = native.advance(&f, 0.05, 0);
        flipped.set_sampling(SamplingMode::Footprint);
        assert_eq!(flipped.config().sampling, SamplingMode::Footprint);
        let a = flipped.advance(&f, 0.05, 0);
        let b = native.advance(&f, 0.05, 0);
        assert_eq!(a.texture.absolute_difference(&b.texture), 0.0);
        // And flipping back restores exact sampling frames.
        flipped.set_sampling(SamplingMode::Exact);
        let mut exact = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
        let _ = exact.advance(&f, 0.05, 0);
        let _ = exact.advance(&f, 0.05, 0);
        let c = flipped.advance(&f, 0.05, 0);
        let d = exact.advance(&f, 0.05, 0);
        assert_eq!(c.texture.absolute_difference(&d.texture), 0.0);
    }

    #[test]
    fn with_animator_uses_requested_position_mode() {
        let cfg = SynthesisConfig::small_test();
        let opts = ParticleOptions {
            count: cfg.spot_count,
            mean_lifetime: 20,
            ..Default::default()
        };
        let p = Pipeline::with_animator(
            cfg,
            ExecutionMode::Sequential,
            domain(),
            opts,
            PositionMode::Random,
        );
        assert_eq!(p.config().spot_count, cfg.spot_count);
        assert_eq!(p.mode(), ExecutionMode::Sequential);
    }
}
