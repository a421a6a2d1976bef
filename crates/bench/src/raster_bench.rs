//! Before/after measurement of the rasterizer hot path.
//!
//! Times the retained naive reference rasterizer (full bounding-box scan,
//! three inside-tests per pixel) against the span walker on the workloads
//! that dominate the paper's pipelines — axis-aligned spot quads on a 512²
//! target, flat-spot quads (the uniform-row nearest-sample fast path),
//! `browse`'s flow-aligned disc quads on a 128² target, bent 16x3
//! turbulence meshes — plus the additive gather step and whole
//! divide-and-conquer frames. Results feed `BENCH_raster.json`, the perf
//! trajectory's first data point.
//!
//! Every case is a reference/optimized pair, and every case checks its two
//! legs' output before timing them — bit for bit, or, for footprint
//! sampling, against the quality tolerances — so a reported speedup can
//! never come from silently computing something different. Two skeletons
//! measure almost every case:
//!
//! * `raster_case` draws both ops once onto fresh targets, asserts equal
//!   bits and equal [`RasterStats`] (whose fragment count becomes the
//!   case's `fragments_per_op`), then sizes a batch of about 10 ms from one
//!   reference probe and times both with `time_best_of`. The quad, SIMD
//!   and mesh cases are thin callers; the footprint cases share its probe
//!   and timing (`time_draws`) behind their quality gate.
//! * `pipeline_case` runs the unit-square vortex through a reference and
//!   an optimized [`Pipeline`] in lockstep, asserts bit parity frame by
//!   frame, then times batches of 24 frames on rebuilt pipelines. The
//!   frame-arena, pipe-pool and tracing cases are thin callers.
//!
//! The gather and the `dnc_spot_batch_*` sweep keep their own timing. One
//! table names and describes every case and builds its [`BenchCase`].

use crate::json::Json;
use flowfield::analytic::Vortex;
use flowfield::Vec2;
use softpipe::machine::MachineConfig;
use softpipe::raster::{
    axis_aligned_spot_quad, rasterize_quad, reference, RasterStats, Sampler, Vertex,
};
use softpipe::{
    disc_spot_texture, gather_additive, BlendMode, FootprintPyramid, PipePool, Texture,
    TexturedMesh,
};
use spotnoise::config::SynthesisConfig;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;

/// One measured before/after case.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Case identifier.
    pub name: &'static str,
    /// What the case exercises.
    pub description: &'static str,
    /// Fragments produced by one operation (identical for both paths).
    pub fragments_per_op: u64,
    /// Best-of-samples nanoseconds per operation, naive reference path.
    pub reference_ns_per_op: f64,
    /// Best-of-samples nanoseconds per operation, span-walking path.
    pub optimized_ns_per_op: f64,
    /// A further measurement printed after the speedup (not ratcheted).
    pub info: Option<String>,
}

impl BenchCase {
    /// Reference time / optimized time.
    pub fn speedup(&self) -> f64 {
        if self.optimized_ns_per_op > 0.0 {
            self.reference_ns_per_op / self.optimized_ns_per_op
        } else {
            0.0
        }
    }

    /// Fragments per second through the optimized path.
    pub(crate) fn optimized_fragments_per_second(&self) -> f64 {
        if self.optimized_ns_per_op > 0.0 {
            self.fragments_per_op as f64 / (self.optimized_ns_per_op * 1e-9)
        } else {
            0.0
        }
    }
}

/// The full report.
#[derive(Debug, Clone)]
pub struct RasterBenchReport {
    /// SIMD dispatch level the run's kernels executed at
    /// ([`softpipe::simd::active`]), recorded so banked numbers are only
    /// compared against runs of the same kernels.
    pub simd: String,
    /// Raw `SPOTNOISE_SIMD` override the process was started with, if any.
    pub simd_override: Option<String>,
    /// Measured cases.
    pub cases: Vec<BenchCase>,
}

/// What measuring one case yields; the case table adds its name and
/// description to make the [`BenchCase`].
struct Measured {
    fragments: u64,
    reference_ns: f64,
    optimized_ns: f64,
    info: Option<String>,
}

/// Interleaved best-of-samples timer: rotates batches of the operations in
/// order (the reference first) so none is systematically favoured by cache
/// warm-up or scheduler drift, and returns each operation's minimum
/// nanoseconds per call (the minimum is the noise-robust statistic on a
/// shared, loaded host). One warm-up batch of each runs before measurement.
fn time_best_of<const N: usize>(
    samples: usize,
    batch: usize,
    mut ops: [&mut dyn FnMut(); N],
) -> [f64; N] {
    let time_batch = |op: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        start.elapsed().as_nanos() as f64 / batch as f64
    };
    for op in ops.iter_mut() {
        time_batch(*op);
    }
    let mut best = [f64::MAX; N];
    for _ in 0..samples {
        for (op, best) in ops.iter_mut().zip(&mut best) {
            *best = best.min(time_batch(*op));
        }
    }
    best
}

fn batch_for(target_ns_per_sample: f64, probe_ns: f64) -> usize {
    ((target_ns_per_sample / probe_ns.max(1.0)).ceil() as usize).clamp(1, 1_000_000)
}

/// One rasterizing operation: draws onto `target`, counting into `stats`.
type Draw<'a> = dyn Fn(&mut Texture, &mut RasterStats) + 'a;

/// Runs `draw` once on a fresh `size`² target.
fn draw_once(size: usize, draw: &Draw) -> (Texture, RasterStats) {
    let mut target = Texture::new(size, size);
    let mut stats = RasterStats::default();
    draw(&mut target, &mut stats);
    (target, stats)
}

/// Sizes a batch of about 10 ms from one probe of `ops[0]` (the reference)
/// on a fresh `size`² target, then times every op over 9 samples with
/// [`time_best_of`], each on its own target with fresh stats per call.
fn time_draws<const N: usize>(size: usize, ops: [&Draw; N]) -> [f64; N] {
    let mut probe_target = Texture::new(size, size);
    let start = Instant::now();
    ops[0](&mut probe_target, &mut RasterStats::default());
    let batch = batch_for(10.0e6, start.elapsed().as_nanos() as f64);
    let mut targets = ops.map(|op| (op, Texture::new(size, size)));
    let mut runs = targets
        .each_mut()
        .map(|(op, target)| move || op(target, &mut RasterStats::default()));
    time_best_of(9, batch, runs.each_mut().map(|run| run as &mut dyn FnMut()))
}

/// The raster skeleton: asserts that `optimized` draws the bits and the
/// [`RasterStats`] of `reference` on a fresh `size`² target, then times the
/// pair with [`time_draws`].
///
/// # Panics
/// Panics when the outputs or the stats differ.
fn raster_case(name: &str, size: usize, reference: &Draw, optimized: &Draw) -> Measured {
    let (expected, expected_stats) = draw_once(size, reference);
    let (actual, stats) = draw_once(size, optimized);
    assert_eq!(
        actual.absolute_difference(&expected),
        0.0,
        "{name}: optimized draw diverged from the reference"
    );
    assert_eq!(stats, expected_stats, "{name}: stats diverged");
    let [reference_ns, optimized_ns] = time_draws(size, [reference, optimized]);
    Measured {
        fragments: stats.fragments,
        reference_ns,
        optimized_ns,
        info: None,
    }
}

/// Draws `quads` with `spot` at intensity 0.5, additively, through the span
/// walker.
fn draw_quads(
    quads: &[[Vertex; 4]],
    spot: &Texture,
    target: &mut Texture,
    stats: &mut RasterStats,
) {
    for quad in quads {
        rasterize_quad(
            target,
            Sampler::Exact(spot),
            *quad,
            0.5,
            BlendMode::Additive,
            stats,
        );
    }
}

/// `quads` drawn with `spot` on a `size`² target: the reference rasterizer
/// against the span walker.
fn quad_case(name: &str, spot: &Texture, quads: &[[Vertex; 4]], size: usize) -> Measured {
    let slow = |target: &mut Texture, stats: &mut RasterStats| {
        for quad in quads {
            reference::rasterize_quad(target, spot, *quad, 0.5, BlendMode::Additive, stats);
        }
    };
    let fast = |target: &mut Texture, stats: &mut RasterStats| {
        draw_quads(quads, spot, target, stats);
    };
    raster_case(name, size, &slow, &fast)
}

/// The explicit SIMD dispatch win on the quad span fills: the same span
/// walker drawing `quads` with the kernels forced to the scalar fallback
/// (reference leg) vs the process's active dispatch level (optimized leg).
/// Unlike the other cases, both legs run the *current* span walker — the
/// case isolates what the explicit `core::arch` kernels buy over the
/// autovectorized scalar code, on the same host, in the same process. Under
/// `SPOTNOISE_SIMD=off` both legs are scalar and the case reports ~1.0x,
/// which is why the artifact records its dispatch level.
fn simd_quad_case(name: &str, spot: &Texture, quads: &[[Vertex; 4]], size: usize) -> Measured {
    use softpipe::simd::{self, SimdLevel};
    let scalar = |target: &mut Texture, stats: &mut RasterStats| {
        simd::force(Some(SimdLevel::Scalar));
        draw_quads(quads, spot, target, stats);
    };
    let active = |target: &mut Texture, stats: &mut RasterStats| {
        simd::force(None);
        draw_quads(quads, spot, target, stats);
    };
    let measured = raster_case(name, size, &scalar, &active);
    simd::force(None);
    measured
}

/// Builds a bent-ish mesh: a rectangle mesh rotated so neither texture
/// coordinate is row-constant, exercising the general sampling path the way
/// stream-line-advected spots do.
fn rotated_mesh(
    rows: usize,
    cols: usize,
    center: Vec2,
    w: f64,
    h: f64,
    angle: f64,
) -> TexturedMesh {
    let (sin, cos) = angle.sin_cos();
    let mut vertices = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let t = r as f64 / (rows - 1) as f64;
        for c in 0..cols {
            let s = c as f64 / (cols - 1) as f64;
            let local = Vec2::new((t - 0.5) * w, (s - 0.5) * h);
            let rotated = Vec2::new(local.x * cos - local.y * sin, local.x * sin + local.y * cos);
            vertices.push(Vertex::new(center + rotated, t as f32, s as f32));
        }
    }
    TexturedMesh::new(rows, cols, vertices)
}

/// The disc quads of a `browse` frame: `count` flow-aligned spot quads of
/// radius `radius` px stretched `stretch`-fold along the flow
/// ([`spotnoise::spot::standard_spot_quad`]), at scattered centres and
/// angles on a `size`² target.
fn flow_quads(count: usize, radius: f64, stretch: f64, size: usize) -> Vec<[Vertex; 4]> {
    use spotnoise::spot::{standard_spot_quad, SpotTransform};
    let golden = (5f64.sqrt() - 1.0) / 2.0;
    (0..count)
        .map(|i| {
            let t = i as f64;
            let transform = SpotTransform {
                angle: (t * golden).fract() * std::f64::consts::PI,
                along: radius * stretch,
                across: radius / stretch.sqrt(),
            };
            let center = Vec2::new(
                (t * 0.7548776662).fract() * size as f64,
                (t * 0.5698402910).fract() * size as f64,
            );
            standard_spot_quad(&transform, center)
        })
        .collect()
}

/// `mesh` drawn with a 32² disc spot on a 512² target: the reference
/// rasterizer against the cell walker.
fn mesh_case(name: &str, mesh: &TexturedMesh) -> Measured {
    let spot = disc_spot_texture(32, 0.5);
    let slow = |target: &mut Texture, stats: &mut RasterStats| {
        mesh.rasterize_reference(target, &spot, 0.5, BlendMode::Additive, stats);
    };
    let fast = |target: &mut Texture, stats: &mut RasterStats| {
        mesh.rasterize(
            target,
            Sampler::Exact(&spot),
            0.5,
            BlendMode::Additive,
            stats,
        );
    };
    raster_case(name, 512, &slow, &fast)
}

/// Footprint sampling on a bent-style mesh: reference = the retained
/// per-pixel reference rasterizer (exact bilinear, full setup boxes),
/// optimized = the footprint-sampled cell walker. The exact cell walker is
/// timed alongside and printed as footprint-vs-exact info. It is not the
/// ratcheted baseline: footprint mode runs on the same walker, so a faster
/// walker would read as a footprint regression. Outputs are *not*
/// pixel-identical — that is the point — so instead of the bit-parity
/// assert the case gates on the [`spotnoise::quality`] tolerances before
/// timing.
fn bent_mesh_footprint_case(name: &str, mesh: &TexturedMesh, spot_size: usize) -> Measured {
    use spotnoise::quality::sampling_quality;
    let spot = disc_spot_texture(spot_size, 0.5);
    let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
    let slow = |target: &mut Texture, stats: &mut RasterStats| {
        mesh.rasterize_reference(target, &spot, 0.5, BlendMode::Additive, stats);
    };
    let exact = |target: &mut Texture, stats: &mut RasterStats| {
        mesh.rasterize(
            target,
            Sampler::Exact(&spot),
            0.5,
            BlendMode::Additive,
            stats,
        );
    };
    let footprint = |target: &mut Texture, stats: &mut RasterStats| {
        let sampler = Sampler::Footprint(&pyramid);
        mesh.rasterize(target, sampler, 0.5, BlendMode::Additive, stats);
    };
    let (exact_out, exact_stats) = draw_once(512, &exact);
    let (approx_out, approx_stats) = draw_once(512, &footprint);
    assert_eq!(
        exact_stats, approx_stats,
        "{name}: footprint mode changed coverage"
    );
    let q = sampling_quality(&exact_out, &approx_out);
    assert!(
        q.within_footprint_tolerance(),
        "{name}: footprint sampling out of quality tolerance: {q:?}"
    );
    let [reference_ns, exact_ns, optimized_ns] = time_draws(512, [&slow, &exact, &footprint]);
    Measured {
        fragments: exact_stats.fragments,
        reference_ns,
        optimized_ns,
        info: Some(format!("{:.2}x vs exact", exact_ns / optimized_ns)),
    }
}

/// The rotating flow every frame and synthesis case advects: a unit-rate
/// vortex over the unit square.
fn unit_vortex() -> Vortex {
    let domain = flowfield::Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    Vortex {
        omega: 1.0,
        center: domain.center(),
        domain,
    }
}

/// A display-less divide-and-conquer pipeline over [`unit_vortex`]'s
/// domain on a machine of `pipes` single-processor groups.
fn dnc_pipeline(cfg: SynthesisConfig, pipes: usize) -> Pipeline {
    let mode = ExecutionMode::DivideAndConquer(MachineConfig::new(pipes, pipes));
    let mut pipeline = Pipeline::new(cfg, mode, unit_vortex().domain);
    pipeline.set_display_enabled(false);
    pipeline
}

/// The frame skeleton: advances `build(true)` (optimized) and `build(false)`
/// (reference) through [`unit_vortex`] in lockstep for `parity_frames`
/// frames, asserting bit-identical textures and handing each frame's
/// optimized pipeline to `check`; then times batches of 24 frames on
/// rebuilt pipelines over `samples` samples. Like a steady-state consumer
/// (the service), every timed frame hands its texture back to the
/// pipeline's arena when it has one. `fragments_per_op` is the last parity
/// frame's pipe fragments.
fn pipeline_case(
    name: &str,
    samples: usize,
    parity_frames: usize,
    build: impl Fn(bool) -> Pipeline,
    mut check: impl FnMut(&Pipeline),
) -> Measured {
    let field = unit_vortex();
    let recycle = |pipeline: &Pipeline, texture: Texture| {
        if let Some(arena) = pipeline.frame_arena() {
            arena.recycle_texture(texture);
        }
    };
    let mut optimized = build(true);
    let mut reference = build(false);
    let mut fragments = 0;
    for _ in 0..parity_frames {
        let a = optimized.advance(&field, 0.05, 0);
        let b = reference.advance(&field, 0.05, 0);
        assert_eq!(
            a.texture.absolute_difference(&b.texture),
            0.0,
            "{name}: optimized frames diverged from the reference"
        );
        fragments = a.dnc.as_ref().map_or(0, |d| d.total_pipe_work().fragments);
        check(&optimized);
        recycle(&optimized, a.texture);
        recycle(&reference, b.texture);
    }

    let mut optimized = build(true);
    let mut reference = build(false);
    let frame = |pipeline: &mut Pipeline| {
        let texture = std::hint::black_box(pipeline.advance(&field, 0.05, 0).texture);
        recycle(pipeline, texture);
    };
    let [reference_ns, optimized_ns] = time_best_of(
        samples,
        24,
        [&mut || frame(&mut reference), &mut || frame(&mut optimized)],
    );
    Measured {
        fragments,
        reference_ns,
        optimized_ns,
        info: None,
    }
}

/// Pooled-arena frame production against allocate-per-frame. Few spots on a
/// large target: the frame cost is dominated by the framebuffer-sized work
/// (clear, partial readback, gather, allocation), which is exactly what the
/// arena removes. Both legs spawn their pipe workers per frame from a
/// capacity-0 pool (worker reuse is measured by the `pipe_pool_*` cases),
/// so the reference stays the classic spawn-per-frame +
/// allocate-per-frame baseline the banked speedup was measured against.
fn frame_arena_case(name: &str) -> Measured {
    let cfg = SynthesisConfig {
        texture_size: 512,
        spot_count: 48,
        spot_radius: 0.02,
        ..SynthesisConfig::small_test()
    };
    let build = |pooled: bool| {
        let mut pipeline = dnc_pipeline(cfg, 1);
        if !pooled {
            pipeline.set_frame_arena(None);
        }
        let arena = pipeline.frame_arena().cloned();
        pipeline.set_pipe_pool(Arc::new(PipePool::with_capacity(arena, 0)));
        pipeline
    };
    pipeline_case(name, 7, 3, build, |_| {})
}

/// Persistent pooled pipes against spawn-per-frame on a 2-pipe machine:
/// both legs keep the default frame arena, and the reference spawns (and
/// joins) one worker per group per frame from a capacity-0 pool. The pooled
/// pipeline must spawn no worker once every group's exists.
fn pipe_pool_case(name: &str, texture_size: usize, spot_count: usize) -> Measured {
    let cfg = SynthesisConfig {
        texture_size,
        spot_count,
        spot_radius: 0.03,
        ..SynthesisConfig::small_test()
    };
    let build = |pooled: bool| {
        let mut pipeline = dnc_pipeline(cfg, 2);
        if !pooled {
            let arena = pipeline.frame_arena().cloned();
            pipeline.set_pipe_pool(Arc::new(PipePool::with_capacity(arena, 0)));
        }
        pipeline
    };
    let mut warm_spawns = None;
    pipeline_case(name, 9, 4, build, |pooled| {
        let spawned = pooled.pipe_pool().stats().spawned;
        assert_eq!(
            *warm_spawns.get_or_insert(spawned),
            spawned,
            "{name}: steady-state frame spawned a pipe worker"
        );
    })
}

/// The frame-lifecycle tracing overhead on the interactive hot path: the
/// reference runs untraced, the "optimized" leg records
/// advect/synthesize/raster-group/gather/render spans into a ring
/// [`spotnoise::telemetry::TraceSink`]. The speedup is therefore
/// `untraced / traced ≈ 1 / (1 + overhead)` — near parity by design — and
/// banking it turns the ratchet into an overhead budget. The service's
/// small frames are the shape where per-frame fixed costs (which is what
/// span recording adds) weigh the most. The traced pipeline must actually
/// record spans: a silently disabled sink would bank a meaningless parity.
fn telemetry_trace_overhead_case(name: &str) -> Measured {
    use spotnoise::telemetry::{TraceMode, TraceSink, DEFAULT_TRACE_CAPACITY};
    let cfg = SynthesisConfig {
        texture_size: 64,
        spot_count: 200,
        spot_radius: 0.03,
        ..SynthesisConfig::small_test()
    };
    let build = |traced: bool| {
        let mut pipeline = dnc_pipeline(cfg, 2);
        if traced {
            let sink = TraceSink::with_mode(TraceMode::Ring, DEFAULT_TRACE_CAPACITY);
            pipeline.set_trace_sink(sink);
        }
        pipeline
    };
    pipeline_case(name, 9, 3, build, |traced| {
        assert!(
            traced.trace_sink().recorded() > 0,
            "{name}: traced pipeline recorded no spans"
        );
    })
}

/// Blends four full-coverage 512² partials, as a 4-pipe machine produces:
/// the pre-optimization sequential accumulate loop against the fused fold.
fn gather_case() -> Measured {
    let partials: Vec<Texture> = (0..4)
        .map(|i| {
            let mut t = Texture::new(512, 512);
            t.fill(0.25 * (i + 1) as f32);
            t
        })
        .collect();
    let sequential = |ps: &[Texture]| {
        let mut texture = ps[0].clone();
        for p in &ps[1..] {
            texture.accumulate(p);
        }
        texture
    };
    assert_eq!(
        gather_additive(&partials)
            .texture
            .absolute_difference(&sequential(&partials)),
        0.0,
        "fused gather diverged from sequential"
    );
    let [reference_ns, optimized_ns] = time_best_of(
        9,
        20,
        [
            &mut || {
                std::hint::black_box(sequential(&partials));
            },
            &mut || {
                std::hint::black_box(gather_additive(&partials));
            },
        ],
    );
    Measured {
        fragments: (partials.len() - 1) as u64 * 512 * 512,
        reference_ns,
        optimized_ns,
        info: None,
    }
}

/// The end-to-end divide-and-conquer synthesis of 1500 spots with
/// `spot_batch`-spot pipe batches against unbatched (one pipe message per
/// spot) submission — the batch-size trade-off the ROADMAP flags: big
/// batches amortize the channel round-trip, tiny batches keep the pipe
/// overlapping with shape computation. Each side is its best of 6 runs.
/// The unbatched reference and the fragment count do not depend on the
/// sweep point, so the first swept case measures them into `unbatched` and
/// the others reuse them.
fn spot_batch_case(spot_batch: usize, unbatched: &OnceCell<(u64, f64)>) -> Measured {
    use spotnoise::dnc::synthesize_dnc;
    use spotnoise::spot::generate_spots;

    let field = unit_vortex();
    let base = SynthesisConfig {
        spot_count: 1500,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(base.spot_count, field.domain, base.intensity_amplitude, 7);
    let machine = MachineConfig::new(1, 1);
    let time_best = |spot_batch: usize| {
        let cfg = SynthesisConfig { spot_batch, ..base };
        let mut best = f64::MAX;
        for _ in 0..6 {
            let start = Instant::now();
            std::hint::black_box(synthesize_dnc(&field, &spots, &cfg, &machine));
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        best
    };
    let &(fragments, reference_ns) = unbatched.get_or_init(|| {
        let out = synthesize_dnc(&field, &spots, &base, &machine);
        (out.total_pipe_work().fragments, time_best(1))
    });
    Measured {
        fragments,
        reference_ns,
        optimized_ns: time_best(spot_batch),
        info: None,
    }
}

/// Runs the cases whose name contains one of the comma-separated
/// substrings in `filter` (all cases when `None`) and assembles the report.
/// Each case is measured lazily, so a filtered run really
/// skips the excluded work — this is what lets CI's `--check` smoke run
/// keep every fast case while leaving out the slow full-synthesis
/// `dnc_spot_batch_*` sweep.
pub fn run_raster_bench_filtered(filter: Option<&str>) -> RasterBenchReport {
    let matches = |name: &str| {
        filter.is_none_or(|f| {
            f.split(',')
                .any(|part| !part.is_empty() && name.contains(part))
        })
    };
    let disc = disc_spot_texture(32, 0.5);
    let disc16 = disc_spot_texture(16, 0.5);
    let mut flat = Texture::new(32, 32);
    flat.fill(1.0);
    let centre = Vec2::new(256.0, 256.0);
    let unbatched = OnceCell::new();

    type Measure<'a> = Box<dyn FnOnce(&'static str) -> Measured + 'a>;
    let table: Vec<(&'static str, &'static str, Measure)> = vec![
        (
            "quad_512_disc_r12",
            "axis-aligned disc-spot quad, radius 12 px, 512x512 target (microbench shape)",
            Box::new(|name| quad_case(name, &disc, &[axis_aligned_spot_quad(centre, 12.0)], 512)),
        ),
        (
            "quad_512_disc_r48",
            "axis-aligned disc-spot quad, radius 48 px (large spots)",
            Box::new(|name| quad_case(name, &disc, &[axis_aligned_spot_quad(centre, 48.0)], 512)),
        ),
        (
            "quad_512_flat_r12",
            "flat spot texture: uniform-row nearest-sample fast path",
            Box::new(|name| quad_case(name, &flat, &[axis_aligned_spot_quad(centre, 12.0)], 512)),
        ),
        // browse's spots: radius 3.84 px (0.03 of 128) at the full stretch
        // of 3, so most triangle boxes are 13-23 px wide while their rows
        // cover about 3 px.
        (
            "quad_128_flow_wide",
            "100 flow-aligned disc quads, r=3.84 stretched 3x, 128x128 target, 16x16 texture",
            Box::new(|name| quad_case(name, &disc16, &flow_quads(100, 3.84, 3.0, 128), 128)),
        ),
        // Unstretched: every box is under 12 px wide.
        (
            "quad_128_flow_narrow",
            "100 flow-aligned disc quads, r=3.84 unstretched (boxes under 12 px), 128x128 target",
            Box::new(|name| quad_case(name, &disc16, &flow_quads(100, 3.84, 1.0, 128), 128)),
        ),
        (
            "mesh_16x3_rotated",
            "bent 16x3 turbulence-style mesh, rotated 30 degrees",
            Box::new(|name| mesh_case(name, &rotated_mesh(16, 3, centre, 60.0, 12.0, 0.52))),
        ),
        (
            "mesh_32x17_rotated",
            "bent 32x17 atmospheric-style mesh, rotated 30 degrees",
            Box::new(|name| mesh_case(name, &rotated_mesh(32, 17, centre, 80.0, 40.0, 0.52))),
        ),
        // r = 12 px at stretch 3: a 72x14 ribbon whose rotated 16x3 cells
        // have sub-12 px bounding boxes — the narrow-triangle sampling-bound
        // path the footprint sampler targets.
        (
            "bent_mesh_16x3_r12_footprint",
            "bent 16x3 mesh, r=12 (narrow triangles): Footprint sampling vs the reference rasterizer",
            Box::new(|name| {
                let mesh = rotated_mesh(16, 3, centre, 72.0, 14.0, 0.52);
                bent_mesh_footprint_case(name, &mesh, 16)
            }),
        ),
        // r = 48 px: wider cells exercise the span-walking footprint fill
        // (lane-blocked nearest) instead of the cell walker.
        (
            "bent_mesh_16x3_r48_footprint",
            "bent 16x3 mesh, r=48 (wide cells): Footprint sampling vs the reference rasterizer",
            Box::new(|name| {
                let mesh = rotated_mesh(16, 3, centre, 288.0, 55.0, 0.52);
                bent_mesh_footprint_case(name, &mesh, 32)
            }),
        ),
        (
            "simd_quad_disc_r12",
            "disc-spot quad r=12: explicit SIMD kernels vs forced-scalar fallback",
            Box::new(|name| {
                simd_quad_case(name, &disc, &[axis_aligned_spot_quad(centre, 12.0)], 512)
            }),
        ),
        (
            "simd_quad_disc_r48",
            "disc-spot quad r=48: explicit SIMD kernels vs forced-scalar fallback",
            Box::new(|name| {
                simd_quad_case(name, &disc, &[axis_aligned_spot_quad(centre, 48.0)], 512)
            }),
        ),
        // quad_128_flow_wide's quads: rotated, so every span takes the
        // general bilinear fill.
        (
            "simd_quad_flow_wide",
            "100 flow-aligned disc quads r=3.84 stretched 3x, 128x128: explicit SIMD kernels vs forced-scalar fallback",
            Box::new(|name| simd_quad_case(name, &disc16, &flow_quads(100, 3.84, 3.0, 128), 128)),
        ),
        // broadcast_routed's spots: radius 1.92 px (0.03 of 64), so most
        // rows are shorter than one 4-lane vector and keep scalar sampling.
        (
            "simd_quad_flow_tiny",
            "150 flow-aligned disc quads r=1.92 stretched 3x, 64x64: explicit SIMD kernels vs forced-scalar fallback",
            Box::new(|name| simd_quad_case(name, &disc16, &flow_quads(150, 1.92, 3.0, 64), 64)),
        ),
        (
            "gather_additive_512x4",
            "blend 4 full 512x512 partials (sequential c term, fused host fold)",
            Box::new(|_| gather_case()),
        ),
        (
            "frame_arena_reuse",
            "dnc frame production, pooled FrameArena vs allocate-per-frame (512x512, 48 spots)",
            Box::new(frame_arena_case),
        ),
        (
            "pipe_pool_reuse",
            "dnc frame production, persistent PipePool vs spawn-per-frame \
             (256x256, 64 spots, 2 pipes)",
            Box::new(|name| pipe_pool_case(name, 256, 64)),
        ),
        // The interactive/service shape the ROADMAP flags: many small
        // frames, where the per-frame thread spawn is the dominant fixed
        // cost once buffers are pooled.
        (
            "pipe_pool_small_frames",
            "many small dnc frames, persistent PipePool vs spawn-per-frame \
             (128x128, 40 spots, 2 pipes)",
            Box::new(|name| pipe_pool_case(name, 128, 40)),
        ),
        (
            "telemetry_trace_overhead",
            "dnc frame production, lifecycle tracing ring-enabled vs off \
             (64x64, 200 spots, 2 pipes); speedup ~ 1/(1 + tracing overhead)",
            Box::new(telemetry_trace_overhead_case),
        ),
        (
            "dnc_spot_batch_16",
            "full dnc synthesis, 16-spot pipe batches vs per-spot submission",
            Box::new(|_| spot_batch_case(16, &unbatched)),
        ),
        (
            "dnc_spot_batch_64",
            "full dnc synthesis, 64-spot pipe batches vs per-spot submission",
            Box::new(|_| spot_batch_case(64, &unbatched)),
        ),
        (
            "dnc_spot_batch_256",
            "full dnc synthesis, 256-spot pipe batches vs per-spot submission",
            Box::new(|_| spot_batch_case(256, &unbatched)),
        ),
    ];

    let cases = table
        .into_iter()
        .filter(|(name, ..)| matches(name))
        .map(|(name, description, measure)| {
            let m = measure(name);
            BenchCase {
                name,
                description,
                fragments_per_op: m.fragments,
                reference_ns_per_op: m.reference_ns,
                optimized_ns_per_op: m.optimized_ns,
                info: m.info,
            }
        })
        .collect();
    RasterBenchReport {
        simd: softpipe::simd::active().name().to_string(),
        simd_override: softpipe::simd::env_override().map(str::to_string),
        cases,
    }
}

/// Combines repeated runs of one case list into one report: each case is
/// its run at the lower quartile of speedup — the third smallest of 9 runs
/// (rank `(n - 1) / 4` in ascending order). It discards the slow tail a
/// noisy host adds without crediting the luckiest run, and it is the
/// estimator the committed banks were recorded with.
///
/// # Panics
/// Panics when `runs` is empty or the runs measured different cases.
pub fn lower_quartile_report(runs: Vec<RasterBenchReport>) -> RasterBenchReport {
    let rank = (runs.len() - 1) / 4;
    let mut runs = runs.into_iter();
    let mut first = runs.next().expect("at least one run");
    let mut per_case: Vec<Vec<BenchCase>> = first.cases.drain(..).map(|c| vec![c]).collect();
    for run in runs {
        assert_eq!(
            run.cases.len(),
            per_case.len(),
            "runs measured different cases"
        );
        for (samples, case) in per_case.iter_mut().zip(run.cases) {
            assert_eq!(samples[0].name, case.name, "runs measured different cases");
            samples.push(case);
        }
    }
    first.cases = per_case
        .into_iter()
        .map(|mut samples| {
            samples.sort_by(|a, b| a.speedup().total_cmp(&b.speedup()));
            samples.swap_remove(rank)
        })
        .collect();
    first
}

/// Human-readable table for stdout.
pub fn format_report(report: &RasterBenchReport) -> String {
    let mut out = String::new();
    out.push_str("rasterizer before/after\n");
    out.push_str(&format!(
        "{:<24} {:>12} {:>14} {:>14} {:>9}\n",
        "case", "fragments", "reference", "optimized", "speedup"
    ));
    for case in &report.cases {
        out.push_str(&format!(
            "{:<24} {:>12} {:>11.1} us {:>11.1} us {:>8.2}x",
            case.name,
            case.fragments_per_op,
            case.reference_ns_per_op / 1.0e3,
            case.optimized_ns_per_op / 1.0e3,
            case.speedup()
        ));
        if let Some(info) = &case.info {
            out.push_str(&format!("  {info}"));
        }
        out.push('\n');
    }
    out
}

/// Serializes the report in the `BENCH_raster.json` schema.
/// `simd_override` is emitted only when the process was actually started
/// with `SPOTNOISE_SIMD`.
pub fn report_to_json(report: &RasterBenchReport) -> String {
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("schema", Json::str("bench_raster/v1")),
        ("simd", Json::str(report.simd.clone())),
    ];
    if let Some(forced) = &report.simd_override {
        pairs.push(("simd_override", Json::str(forced.clone())));
    }
    pairs.push((
        "cases",
        Json::array(report.cases.iter().map(|c| {
            Json::object([
                ("name", Json::str(c.name)),
                ("description", Json::str(c.description)),
                ("fragments_per_op", Json::num(c.fragments_per_op as f64)),
                ("reference_ns_per_op", Json::num(c.reference_ns_per_op)),
                ("optimized_ns_per_op", Json::num(c.optimized_ns_per_op)),
                ("speedup", Json::num(c.speedup())),
                (
                    "optimized_fragments_per_second",
                    Json::num(c.optimized_fragments_per_second()),
                ),
            ])
        })),
    ));
    Json::object(pairs).to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_throughput_math() {
        let case = BenchCase {
            name: "x",
            description: "d",
            fragments_per_op: 1000,
            reference_ns_per_op: 2000.0,
            optimized_ns_per_op: 1000.0,
            info: None,
        };
        assert!((case.speedup() - 2.0).abs() < 1e-12);
        assert!((case.optimized_fragments_per_second() - 1.0e9).abs() < 1.0);
    }

    #[test]
    fn filter_that_matches_nothing_runs_nothing() {
        // Lazily built cases: a non-matching filter must return instantly
        // with an empty report instead of measuring and discarding.
        let report = run_raster_bench_filtered(Some("no_such_case"));
        assert!(report.cases.is_empty());
        // Comma-separated alternatives that all miss also run nothing.
        let report = run_raster_bench_filtered(Some("nope,also_nope,"));
        assert!(report.cases.is_empty());
    }

    fn sample_report() -> RasterBenchReport {
        RasterBenchReport {
            simd: "avx2".to_string(),
            simd_override: None,
            cases: vec![BenchCase {
                name: "quad",
                description: "d",
                fragments_per_op: 10,
                reference_ns_per_op: 10.0,
                optimized_ns_per_op: 5.0,
                info: None,
            }],
        }
    }

    #[test]
    fn report_json_contains_schema_and_cases() {
        let json = report_to_json(&sample_report());
        assert!(json.contains("\"schema\": \"bench_raster/v1\""));
        assert!(json.contains("\"simd\": \"avx2\""));
        assert!(json.contains("\"speedup\": 2"));
        // No override ran, so the key is absent entirely.
        assert!(!json.contains("simd_override"));
    }

    #[test]
    fn report_json_records_simd_override_when_present() {
        let report = RasterBenchReport {
            simd: "scalar".to_string(),
            simd_override: Some("off".to_string()),
            ..sample_report()
        };
        let json = report_to_json(&report);
        assert!(json.contains("\"simd\": \"scalar\""));
        assert!(json.contains("\"simd_override\": \"off\""));
    }

    #[test]
    fn lower_quartile_report_takes_the_third_slowest_of_nine() {
        let runs = [5.0, 9.0, 1.0, 7.0, 3.0, 8.0, 2.0, 6.0, 4.0]
            .map(|optimized| {
                let mut report = sample_report();
                report.cases[0].optimized_ns_per_op = optimized;
                report
            })
            .to_vec();
        // Speedups are 10 / optimized: the third smallest is 10 / 7.
        let report = lower_quartile_report(runs);
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.cases[0].optimized_ns_per_op, 7.0);
        assert_eq!(lower_quartile_report(vec![sample_report()]).cases.len(), 1);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn raster_case_refuses_an_optimized_draw_that_differs() {
        let spot = disc_spot_texture(8, 0.5);
        let quad = axis_aligned_spot_quad(Vec2::new(8.0, 8.0), 4.0);
        let draw = |intensity: f32, target: &mut Texture, stats: &mut RasterStats| {
            let sampler = Sampler::Exact(&spot);
            rasterize_quad(target, sampler, quad, intensity, BlendMode::Additive, stats);
        };
        let reference = |target: &mut Texture, stats: &mut RasterStats| draw(0.5, target, stats);
        let brighter = |target: &mut Texture, stats: &mut RasterStats| draw(0.75, target, stats);
        raster_case("brighter", 16, &reference, &brighter);
    }
}
