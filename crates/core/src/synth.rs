//! Sequential spot-noise texture synthesis.
//!
//! This is the reference implementation of the paper's pipeline steps 2–3 on
//! a single processor and a single graphics pipe (the baseline of equation
//! 2.1 and the `(1, 1)` cell of Tables 1 and 2). The divide-and-conquer
//! executor in [`crate::dnc`] must produce the same texture up to
//! floating-point reassociation; the equivalence tests rely on this module as
//! the ground truth.

use crate::bent::build_bent_spot;
use crate::config::{SamplingMode, SpotKind, SynthesisConfig};
use crate::spot::{build_standard_spot, FieldToPixel, Spot, SpotGeometry, SpotJob};
use flowfield::stats::{field_stats, SpeedNormalizer};
use flowfield::VectorField;
use softpipe::cost::CpuWork;
use softpipe::pipe::{PipeCore, PipeOutput, RenderCommand};
use softpipe::{disc_spot_texture, BlendMode, FootprintPyramid, Texture};
use std::sync::Arc;

/// Everything that is shared by all spot-shape computations of one frame:
/// the coordinate mapping, the speed normaliser and the spot-function
/// texture. Building it once per frame keeps the per-spot work identical
/// between the sequential and the parallel executors; frame producers
/// (the [`Pipeline`](crate::pipeline::Pipeline)) keep one context alive
/// across frames and [`refresh`](SynthesisContext::refresh) it instead, so
/// the expensive config-derived parts — the pre-rendered spot texture and
/// its footprint pyramid — are rebuilt only when the parameters they
/// depend on actually change.
#[derive(Debug, Clone)]
pub struct SynthesisContext {
    /// Field-to-pixel coordinate mapping.
    pub(crate) mapper: FieldToPixel,
    /// Speed normaliser derived from the field statistics.
    pub normalizer: SpeedNormalizer,
    /// The pre-rendered spot-function texture `h(x)`.
    pub spot_texture: Arc<Texture>,
    /// The fragment sampling mode every pipe of the frame is configured
    /// with (from [`SynthesisConfig::sampling`]).
    pub sampling: SamplingMode,
    /// The spot texture's footprint pyramid, built once per context and
    /// shipped to every group's pipe by the preamble — present exactly when
    /// `sampling` is [`SamplingMode::Footprint`].
    pub spot_pyramid: Option<Arc<FootprintPyramid>>,
    /// The spot-shape parameters `spot_texture` was rendered with —
    /// `(spot_texture_size, spot_softness)` — so `refresh` can tell a
    /// cosmetic frame boundary from a real invalidation.
    spot_shape: (usize, f32),
}

impl SynthesisContext {
    /// Builds the per-frame context for a field and a configuration.
    pub fn new(field: &dyn VectorField, cfg: &SynthesisConfig) -> Self {
        let stats = field_stats(field, 32, 32);
        let spot_texture = Arc::new(disc_spot_texture(cfg.spot_texture_size, cfg.spot_softness));
        let spot_pyramid = (cfg.sampling == SamplingMode::Footprint)
            .then(|| Arc::new(FootprintPyramid::build(Arc::clone(&spot_texture))));
        SynthesisContext {
            mapper: FieldToPixel::new(field.domain(), cfg.texture_size),
            normalizer: SpeedNormalizer::from_stats(&stats),
            spot_texture,
            sampling: cfg.sampling,
            spot_pyramid,
            spot_shape: (cfg.spot_texture_size, cfg.spot_softness),
        }
    }

    /// Brings the context up to date for the next frame, rebuilding only
    /// what the new `(field, cfg)` pair invalidates. The field-dependent
    /// parts (coordinate mapper, speed normaliser) are recomputed every
    /// call — fields advance between frames, and the 32×32 stats sweep that
    /// feeds the normaliser is how the context *observes* that — but the
    /// pre-rendered spot texture and its footprint pyramid are kept while
    /// the spot-shape parameters and sampling mode are unchanged. The
    /// refreshed context is indistinguishable from a freshly built one
    /// (same values, shared or rebuilt), so frames are bit-identical either
    /// way.
    pub fn refresh(&mut self, field: &dyn VectorField, cfg: &SynthesisConfig) {
        let stats = field_stats(field, 32, 32);
        self.mapper = FieldToPixel::new(field.domain(), cfg.texture_size);
        self.normalizer = SpeedNormalizer::from_stats(&stats);
        let shape = (cfg.spot_texture_size, cfg.spot_softness);
        if shape != self.spot_shape {
            self.spot_texture =
                Arc::new(disc_spot_texture(cfg.spot_texture_size, cfg.spot_softness));
            self.spot_pyramid = None;
            self.spot_shape = shape;
        }
        self.sampling = cfg.sampling;
        match cfg.sampling {
            SamplingMode::Footprint if self.spot_pyramid.is_none() => {
                self.spot_pyramid = Some(Arc::new(FootprintPyramid::build(Arc::clone(
                    &self.spot_texture,
                ))));
            }
            SamplingMode::Footprint => {}
            SamplingMode::Exact => self.spot_pyramid = None,
        }
    }

    /// Builds the geometry job for one spot (dispatching on the spot kind).
    pub fn build_job(
        &self,
        field: &dyn VectorField,
        spot: &Spot,
        cfg: &SynthesisConfig,
    ) -> SpotJob {
        match cfg.spot_kind {
            SpotKind::Disc => build_standard_spot(field, spot, cfg, &self.mapper, &self.normalizer),
            SpotKind::Bent { .. } => {
                build_bent_spot(field, spot, cfg, &self.mapper, &self.normalizer)
            }
        }
    }
}

/// The frame-preamble commands every executor issues before drawing spots:
/// upload and bind the spot-function texture `h(x)` and select additive
/// blending (the spot-noise sum). Shared by the sequential baseline and the
/// scheduler engine so all paths configure their pipes identically.
///
/// A non-default sampling mode appends one `SetSampling`; the default
/// ([`SamplingMode::Exact`]) emits nothing, so exact-mode command streams —
/// and their state-change accounting — are byte-identical to what they have
/// always been.
pub fn preamble_commands(ctx: &SynthesisContext) -> Vec<RenderCommand> {
    let mut commands = vec![
        RenderCommand::UploadTexture(0, ctx.spot_texture.clone()),
        RenderCommand::BindTexture(0),
        RenderCommand::SetBlend(BlendMode::Additive),
    ];
    if let Some(pyramid) = &ctx.spot_pyramid {
        // Ship the context's shared pyramid so every pipe of the frame uses
        // the one build instead of each rebuilding it lazily.
        commands.push(RenderCommand::UploadPyramid(0, Arc::clone(pyramid)));
    }
    if ctx.sampling != SamplingMode::Exact {
        commands.push(RenderCommand::SetSampling(ctx.sampling));
    }
    commands
}

/// Converts a spot geometry into the render command submitted to a pipe.
pub(crate) fn geometry_command(geometry: SpotGeometry, intensity: f32) -> RenderCommand {
    match geometry {
        SpotGeometry::Quad(vertices) => RenderCommand::Quad {
            vertices,
            intensity,
        },
        SpotGeometry::Mesh(mesh) => RenderCommand::Mesh { mesh, intensity },
    }
}

/// Converts a finished [`SpotJob`] into the render-command sequence for a
/// pipe. Software-transformed spots are a single draw command; pipe-
/// transformed spots additionally load the per-spot matrix first (costing a
/// pipe synchronisation, which is exactly the trade-off being measured).
pub fn job_commands(job: SpotJob) -> impl Iterator<Item = RenderCommand> {
    let transform_cmd = job.pipe_transform.map(RenderCommand::LoadTransform);
    let draw = geometry_command(job.geometry, job.intensity);
    transform_cmd.into_iter().chain(std::iter::once(draw))
}

/// Result of a sequential synthesis run.
#[derive(Debug, Clone)]
pub struct SequentialOutput {
    /// The synthesised spot-noise texture.
    pub texture: Texture,
    /// CPU work performed for spot-shape computation.
    pub cpu_work: CpuWork,
    /// The pipe's output counters.
    pub pipe: PipeOutput,
}

/// Synthesises a spot-noise texture for `spots` over `field` on a single
/// processor and a single (synchronous) pipe.
pub fn synthesize_sequential(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
) -> SequentialOutput {
    cfg.validate().expect("invalid synthesis configuration");
    let ctx = SynthesisContext::new(field, cfg);
    synthesize_sequential_with_context(field, spots, cfg, &ctx)
}

/// Like [`synthesize_sequential`], but reusing a prepared context (the
/// divide-and-conquer equivalence tests need both paths to share one
/// context so the per-spot geometry is bit-identical).
pub fn synthesize_sequential_with_context(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    ctx: &SynthesisContext,
) -> SequentialOutput {
    let mut core = PipeCore::new(cfg.texture_size, cfg.texture_size);
    core.execute(RenderCommand::Clear);
    for cmd in preamble_commands(ctx) {
        core.execute(cmd);
    }

    let mut cpu_work = CpuWork::default();
    for spot in spots {
        let job = ctx.build_job(field, spot, cfg);
        cpu_work.merge(&job.cpu_work);
        for cmd in job_commands(job) {
            core.execute(cmd);
        }
    }
    let pipe = core.finish();
    SequentialOutput {
        texture: pipe.texture.clone(),
        cpu_work,
        pipe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spot::generate_spots;
    use flowfield::analytic::{Uniform, Vortex};
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

    #[test]
    fn sequential_synthesis_produces_nonzero_texture() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), cfg.intensity_amplitude, cfg.seed);
        let out = synthesize_sequential(&field, &spots, &cfg);
        assert_eq!(out.texture.width(), cfg.texture_size);
        assert!(out.texture.variance() > 0.0, "texture has no contrast");
        assert_eq!(out.cpu_work.spots, cfg.spot_count as u64);
        assert!(out.pipe.raster.fragments > 0);
    }

    #[test]
    fn spot_count_scales_texture_energy() {
        let field = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let mut cfg = SynthesisConfig::small_test();
        cfg.spot_count = 100;
        let spots_small = generate_spots(100, domain(), 1.0, 3);
        let small = synthesize_sequential(&field, &spots_small, &cfg);
        cfg.spot_count = 400;
        let spots_large = generate_spots(400, domain(), 1.0, 3);
        let large = synthesize_sequential(&field, &spots_large, &cfg);
        // More spots -> more accumulated |intensity| (variance grows roughly
        // linearly with the spot count for zero-mean spots).
        assert!(large.texture.variance() > small.texture.variance());
    }

    #[test]
    fn texture_mean_is_near_zero_for_zero_mean_spots() {
        let cfg = SynthesisConfig {
            spot_count: 2000,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 11);
        let out = synthesize_sequential(&field, &spots, &cfg);
        let (lo, hi) = out.texture.range();
        assert!(lo < 0.0 && hi > 0.0, "range ({lo}, {hi}) not centred");
        // The mean intensity is small compared to the peak amplitude.
        assert!(out.texture.mean().abs() < 0.25 * hi.max(-lo));
    }

    #[test]
    fn bent_configuration_runs_and_counts_streamline_work() {
        let cfg = SynthesisConfig {
            spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
            spot_count: 100,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 5);
        let out = synthesize_sequential(&field, &spots, &cfg);
        assert!(out.cpu_work.streamline_steps > 0);
        assert_eq!(out.cpu_work.mesh_vertices, 100 * 24);
        assert!(out.texture.variance() > 0.0);
    }

    #[test]
    fn same_seed_same_texture() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, cfg.seed);
        let a = synthesize_sequential(&field, &spots, &cfg);
        let b = synthesize_sequential(&field, &spots, &cfg);
        assert_eq!(a.texture.absolute_difference(&b.texture), 0.0);
    }

    #[test]
    fn vertices_submitted_match_config_prediction() {
        let cfg = SynthesisConfig {
            spot_count: 50,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 2);
        let out = synthesize_sequential(&field, &spots, &cfg);
        assert_eq!(
            out.pipe.raster.vertices as usize,
            cfg.vertices_per_texture()
        );
    }

    #[test]
    fn refresh_reuses_the_spot_texture_until_its_parameters_change() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let mut ctx = SynthesisContext::new(&field, &cfg);
        let original = Arc::clone(&ctx.spot_texture);

        // Frame-to-frame refresh with unchanged shape parameters: the spot
        // texture is the very same allocation, and the refreshed context
        // matches a freshly built one value for value.
        ctx.refresh(&field, &cfg);
        assert!(Arc::ptr_eq(&ctx.spot_texture, &original));
        let fresh = SynthesisContext::new(&field, &cfg);
        assert_eq!(
            fresh.spot_texture.absolute_difference(&ctx.spot_texture),
            0.0
        );

        // A changed spot shape invalidates the texture...
        let resized = SynthesisConfig {
            spot_texture_size: cfg.spot_texture_size * 2,
            ..cfg
        };
        ctx.refresh(&field, &resized);
        assert!(!Arc::ptr_eq(&ctx.spot_texture, &original));
        assert_eq!(ctx.spot_texture.width(), resized.spot_texture_size);
        let rebuilt = Arc::clone(&ctx.spot_texture);

        // ...and flipping the sampling mode builds (then drops) the
        // pyramid without touching the texture.
        let footprint = SynthesisConfig {
            sampling: SamplingMode::Footprint,
            ..resized
        };
        ctx.refresh(&field, &footprint);
        assert!(ctx.spot_pyramid.is_some());
        assert!(Arc::ptr_eq(&ctx.spot_texture, &rebuilt));
        ctx.refresh(&field, &resized);
        assert!(ctx.spot_pyramid.is_none());
    }

    #[test]
    fn refresh_tracks_the_field_between_frames() {
        // The mapper and normaliser must follow the field: refreshing onto
        // a field with different statistics yields the same context a fresh
        // build would.
        let cfg = SynthesisConfig::small_test();
        let slow = Uniform {
            velocity: Vec2::new(0.1, 0.0),
            domain: domain(),
        };
        let fast = Uniform {
            velocity: Vec2::new(5.0, 0.0),
            domain: domain(),
        };
        let mut ctx = SynthesisContext::new(&slow, &cfg);
        ctx.refresh(&fast, &cfg);
        let fresh = SynthesisContext::new(&fast, &cfg);
        assert_eq!(
            ctx.normalizer.normalize(2.5),
            fresh.normalizer.normalize(2.5),
            "refreshed normaliser diverged from a fresh build"
        );
    }

    #[test]
    #[should_panic(expected = "invalid synthesis configuration")]
    fn invalid_config_rejected() {
        let cfg = SynthesisConfig {
            spot_count: 0,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let _ = synthesize_sequential(&field, &[], &cfg);
    }
}
