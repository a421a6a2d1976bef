//! Before/after measurement of the rasterizer hot path.
//!
//! Times the retained naive reference rasterizer (full bounding-box scan,
//! three inside-tests per pixel) against the span walker on the workloads
//! that dominate the paper's pipelines — axis-aligned spot quads on a 512²
//! target, flat-spot quads (the uniform-row nearest-sample fast path),
//! `browse`'s flow-aligned disc quads on a 128² target, bent 16x3
//! turbulence meshes — plus the additive gather step. Results feed
//! `BENCH_raster.json`, the perf trajectory's first data point.
//!
//! Every case first asserts that the two paths produce pixel-identical
//! output, so a reported speedup can never come from silently computing
//! something different.

use crate::json::Json;
use flowfield::Vec2;
use softpipe::raster::{
    axis_aligned_spot_quad, rasterize_quad, reference, RasterStats, Sampler, Vertex,
};
use softpipe::{
    disc_spot_texture, gather_additive, BlendMode, FootprintPyramid, Texture, TexturedMesh,
};
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
    pub fn optimized_fragments_per_second(&self) -> f64 {
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

/// Interleaved best-of-samples timer: alternates batches of the two
/// operations so neither is systematically favoured by cache warm-up or
/// scheduler drift, and returns each operation's minimum nanoseconds per
/// call (the minimum is the noise-robust statistic on a shared, loaded
/// host). One warm-up batch of each runs before measurement.
fn time_pair_best(
    samples: usize,
    batch: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let [best_a, best_b] = time_best_of(samples, batch, [&mut a, &mut b]);
    (best_a, best_b)
}

/// [`time_pair_best`] over any number of operations, rotated in order.
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

/// Calibrates, verifies pixel parity, and measures one case: a batch of
/// `quads` drawn with `spot` on a `size`² target per operation.
fn quad_case(
    name: &'static str,
    description: &'static str,
    spot: &Texture,
    quads: &[[Vertex; 4]],
    size: usize,
    intensity: f32,
) -> BenchCase {
    let draw_fast = |target: &mut Texture, stats: &mut RasterStats| {
        for quad in quads {
            rasterize_quad(
                target,
                Sampler::Exact(spot),
                *quad,
                intensity,
                BlendMode::Additive,
                stats,
            );
        }
    };
    let draw_reference = |target: &mut Texture, stats: &mut RasterStats| {
        for quad in quads {
            reference::rasterize_quad(target, spot, *quad, intensity, BlendMode::Additive, stats);
        }
    };
    let mut fast = Texture::new(size, size);
    let mut slow = Texture::new(size, size);
    let mut fast_stats = RasterStats::default();
    let mut slow_stats = RasterStats::default();
    draw_fast(&mut fast, &mut fast_stats);
    draw_reference(&mut slow, &mut slow_stats);
    assert_eq!(
        fast.absolute_difference(&slow),
        0.0,
        "{name}: span walker diverged from reference"
    );
    assert_eq!(fast_stats, slow_stats, "{name}: stats diverged");

    let probe = {
        let start = Instant::now();
        draw_reference(&mut Texture::new(size, size), &mut RasterStats::default());
        start.elapsed().as_nanos() as f64
    };
    let batch = batch_for(10.0e6, probe);
    let mut targets = (Texture::new(size, size), Texture::new(size, size));
    let (reference_ns, optimized) = time_pair_best(
        9,
        batch,
        || draw_reference(&mut targets.0, &mut RasterStats::default()),
        || draw_fast(&mut targets.1, &mut RasterStats::default()),
    );
    BenchCase {
        name,
        description,
        fragments_per_op: fast_stats.fragments,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: None,
    }
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

/// Measures the explicit SIMD dispatch win on the quad span fills: the
/// same span-walking rasterization of `quads` on a `size`² target with the
/// kernels forced to the scalar fallback (reference leg) vs the process's
/// active dispatch level (optimized leg). Unlike the other cases, both legs
/// run the *current* span walker — the case isolates what the explicit
/// `core::arch` kernels buy over the autovectorized scalar code, on the
/// same host, in the same process. Under `SPOTNOISE_SIMD=off` both legs are scalar and the case
/// reports ~1.0x, which is why the artifact records its dispatch level.
fn simd_quad_case(
    name: &'static str,
    description: &'static str,
    spot: &Texture,
    quads: &[[Vertex; 4]],
    size: usize,
    intensity: f32,
) -> BenchCase {
    use softpipe::simd::{self, SimdLevel};
    let draw = |target: &mut Texture, stats: &mut RasterStats| {
        for quad in quads {
            rasterize_quad(
                target,
                Sampler::Exact(spot),
                *quad,
                intensity,
                BlendMode::Additive,
                stats,
            );
        }
    };
    // Parity: the forced-scalar and active-level kernels must produce
    // bit-identical textures (the Exact-mode contract this whole module
    // rides on).
    let mut scalar_out = Texture::new(size, size);
    let mut active_out = Texture::new(size, size);
    let mut scalar_stats = RasterStats::default();
    let mut active_stats = RasterStats::default();
    simd::force(Some(SimdLevel::Scalar));
    draw(&mut scalar_out, &mut scalar_stats);
    simd::force(None);
    draw(&mut active_out, &mut active_stats);
    assert_eq!(
        scalar_out.absolute_difference(&active_out),
        0.0,
        "{name}: SIMD kernels diverged from the scalar fallback"
    );
    assert_eq!(scalar_stats, active_stats, "{name}: stats diverged");

    let mut target = Texture::new(size, size);
    let probe = {
        simd::force(Some(SimdLevel::Scalar));
        let start = Instant::now();
        draw(&mut target, &mut RasterStats::default());
        let probe = start.elapsed().as_nanos() as f64;
        simd::force(None);
        probe
    };
    let batch = batch_for(10.0e6, probe);
    let mut targets = (Texture::new(size, size), Texture::new(size, size));
    let (reference_ns, optimized) = time_pair_best(
        9,
        batch,
        || {
            simd::force(Some(SimdLevel::Scalar));
            draw(&mut targets.0, &mut RasterStats::default());
        },
        || {
            simd::force(None);
            draw(&mut targets.1, &mut RasterStats::default());
        },
    );
    simd::force(None);
    BenchCase {
        name,
        description,
        fragments_per_op: active_stats.fragments,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: None,
    }
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

fn mesh_case(name: &'static str, description: &'static str, mesh: &TexturedMesh) -> BenchCase {
    let spot = disc_spot_texture(32, 0.5);
    let mut fast = Texture::new(512, 512);
    let mut slow = Texture::new(512, 512);
    let mut fast_stats = RasterStats::default();
    let mut slow_stats = RasterStats::default();
    mesh.rasterize(
        &mut fast,
        Sampler::Exact(&spot),
        0.5,
        BlendMode::Additive,
        &mut fast_stats,
    );
    mesh.rasterize_reference(&mut slow, &spot, 0.5, BlendMode::Additive, &mut slow_stats);
    assert_eq!(
        fast.absolute_difference(&slow),
        0.0,
        "{name}: span walker diverged from reference"
    );
    assert_eq!(fast_stats, slow_stats, "{name}: stats diverged");

    let mut target = Texture::new(512, 512);
    let probe = {
        let mut stats = RasterStats::default();
        let start = Instant::now();
        mesh.rasterize_reference(&mut target, &spot, 0.5, BlendMode::Additive, &mut stats);
        start.elapsed().as_nanos() as f64
    };
    let batch = batch_for(10.0e6, probe);
    let mut targets = (Texture::new(512, 512), Texture::new(512, 512));
    let (reference_ns, optimized) = time_pair_best(
        9,
        batch,
        || {
            let mut stats = RasterStats::default();
            mesh.rasterize_reference(&mut targets.0, &spot, 0.5, BlendMode::Additive, &mut stats);
        },
        || {
            let mut stats = RasterStats::default();
            mesh.rasterize(
                &mut targets.1,
                Sampler::Exact(&spot),
                0.5,
                BlendMode::Additive,
                &mut stats,
            );
        },
    );
    BenchCase {
        name,
        description,
        fragments_per_op: fast_stats.fragments,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: None,
    }
}

/// Measures footprint sampling on a bent-style mesh: reference = the
/// retained per-pixel reference rasterizer (exact bilinear, full setup
/// boxes), optimized = the footprint-sampled cell walker. The exact cell
/// walker is timed alongside and printed as footprint-vs-exact info. It is
/// not the ratcheted baseline: footprint mode runs on the same walker, so a
/// faster walker would read as a footprint regression. Outputs are *not*
/// pixel-identical — that is the point — so
/// instead of the bit-parity assert the case gates on the
/// [`spotnoise::quality`] tolerances before timing.
fn bent_mesh_footprint_case(
    name: &'static str,
    description: &'static str,
    mesh: &TexturedMesh,
    spot_size: usize,
) -> BenchCase {
    use spotnoise::quality::sampling_quality;
    let spot = disc_spot_texture(spot_size, 0.5);
    let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
    let mut exact = Texture::new(512, 512);
    let mut approx = Texture::new(512, 512);
    let mut exact_stats = RasterStats::default();
    let mut approx_stats = RasterStats::default();
    mesh.rasterize(
        &mut exact,
        Sampler::Exact(&spot),
        0.5,
        BlendMode::Additive,
        &mut exact_stats,
    );
    mesh.rasterize(
        &mut approx,
        Sampler::Footprint(&pyramid),
        0.5,
        BlendMode::Additive,
        &mut approx_stats,
    );
    assert_eq!(
        exact_stats, approx_stats,
        "{name}: footprint mode changed coverage"
    );
    let q = sampling_quality(&exact, &approx);
    assert!(
        q.within_footprint_tolerance(),
        "{name}: footprint sampling out of quality tolerance: {q:?}"
    );

    let mut target = Texture::new(512, 512);
    let probe = {
        let mut stats = RasterStats::default();
        let start = Instant::now();
        mesh.rasterize_reference(&mut target, &spot, 0.5, BlendMode::Additive, &mut stats);
        start.elapsed().as_nanos() as f64
    };
    let batch = batch_for(10.0e6, probe);
    let mut targets = [0; 3].map(|_| Texture::new(512, 512));
    let [reference_target, exact_target, footprint_target] = &mut targets;
    let [reference_ns, exact_ns, optimized] = time_best_of(
        9,
        batch,
        [
            &mut || {
                let mut stats = RasterStats::default();
                mesh.rasterize_reference(
                    reference_target,
                    &spot,
                    0.5,
                    BlendMode::Additive,
                    &mut stats,
                );
            },
            &mut || {
                let mut stats = RasterStats::default();
                mesh.rasterize(
                    exact_target,
                    Sampler::Exact(&spot),
                    0.5,
                    BlendMode::Additive,
                    &mut stats,
                );
            },
            &mut || {
                let mut stats = RasterStats::default();
                mesh.rasterize(
                    footprint_target,
                    Sampler::Footprint(&pyramid),
                    0.5,
                    BlendMode::Additive,
                    &mut stats,
                );
            },
        ],
    );
    BenchCase {
        name,
        description,
        fragments_per_op: exact_stats.fragments,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: Some(format!("{:.2}x vs exact", exact_ns / optimized)),
    }
}

/// Measures pooled-arena frame production against allocate-per-frame: two
/// identical divide-and-conquer pipelines advance in lockstep, one with the
/// default frame arena (recycling consumed frames) and one with pooling
/// disabled. Output equality is asserted on fresh pipelines before timing —
/// buffer reuse must be invisible in the texels.
fn frame_arena_case() -> BenchCase {
    use softpipe::machine::MachineConfig;
    use spotnoise::config::SynthesisConfig;
    use spotnoise::pipeline::{ExecutionMode, Pipeline};

    let domain = flowfield::Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Vortex {
        omega: 1.0,
        center: domain.center(),
        domain,
    };
    // Few spots on a large target: the frame cost is dominated by the
    // framebuffer-sized work (clear, partial readback, gather, allocation),
    // which is exactly what the arena removes.
    let cfg = SynthesisConfig {
        texture_size: 512,
        spot_count: 48,
        spot_radius: 0.02,
        ..SynthesisConfig::small_test()
    };
    let machine = MachineConfig::new(1, 1);
    let mode = ExecutionMode::DivideAndConquer(machine);
    let build = |pooled: bool| {
        let mut p = Pipeline::new(cfg, mode, domain);
        p.set_display_enabled(false);
        // This case isolates the frame arena: BOTH legs spawn their pipe
        // workers per frame from a capacity-0 pool (worker reuse is
        // measured by its own pipe_pool_* cases), so the reference leg
        // stays the classic spawn-per-frame + allocate-per-frame baseline
        // the banked speedup was measured against.
        if !pooled {
            p.set_frame_arena(None);
        }
        let arena = p.frame_arena().cloned();
        p.set_pipe_pool(Arc::new(softpipe::PipePool::with_capacity(arena, 0)));
        p
    };

    // Parity check on fresh pipelines: identical frames with and without
    // the arena.
    let mut pooled = build(true);
    let mut fresh = build(false);
    let mut fragments = 0;
    for _ in 0..3 {
        let a = pooled.advance(&field, 0.05, 0);
        let b = fresh.advance(&field, 0.05, 0);
        assert_eq!(
            a.texture.absolute_difference(&b.texture),
            0.0,
            "frame_arena_reuse: pooled frames diverged from fresh allocation"
        );
        fragments = a.dnc.as_ref().map_or(0, |d| d.total_pipe_work().fragments);
        if let Some(arena) = pooled.frame_arena() {
            arena.recycle_texture(a.texture);
        }
    }

    let mut pooled = build(true);
    let mut fresh = build(false);
    let (reference_ns, optimized) = time_pair_best(
        7,
        24,
        || {
            std::hint::black_box(fresh.advance(&field, 0.05, 0));
        },
        || {
            let out = pooled.advance(&field, 0.05, 0);
            let texture = std::hint::black_box(out.texture);
            // Steady-state consumers (the service) hand the frame buffer
            // back after serializing it; the bench models that.
            if let Some(arena) = pooled.frame_arena() {
                arena.recycle_texture(texture);
            }
        },
    );
    BenchCase {
        name: "frame_arena_reuse",
        description:
            "dnc frame production, pooled FrameArena vs allocate-per-frame (512x512, 48 spots)",
        fragments_per_op: fragments,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: None,
    }
}

/// Measures persistent pooled pipes against spawn-per-frame: two identical
/// divide-and-conquer pipelines advance in lockstep, both with the default
/// frame arena, one reusing pipe workers from a [`softpipe::PipePool`] and
/// one spawning (and joining) its workers every frame from a capacity-0
/// pool. Output equality is asserted on fresh pipelines before timing —
/// worker reuse must be invisible in the texels — and the pooled pipeline
/// is asserted to spawn zero threads once warm.
fn pipe_pool_case(
    name: &'static str,
    description: &'static str,
    texture_size: usize,
    spot_count: usize,
    pipes: usize,
) -> BenchCase {
    use softpipe::machine::MachineConfig;
    use spotnoise::config::SynthesisConfig;
    use spotnoise::pipeline::{ExecutionMode, Pipeline};

    let domain = flowfield::Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Vortex {
        omega: 1.0,
        center: domain.center(),
        domain,
    };
    let cfg = SynthesisConfig {
        texture_size,
        spot_count,
        spot_radius: 0.03,
        ..SynthesisConfig::small_test()
    };
    let machine = MachineConfig::new(pipes, pipes);
    let mode = ExecutionMode::DivideAndConquer(machine);
    let build = |pooled: bool| {
        let mut p = Pipeline::new(cfg, mode, domain);
        p.set_display_enabled(false);
        if !pooled {
            // Spawn one worker per group per frame, exactly as before the
            // pool existed.
            let arena = p.frame_arena().cloned();
            p.set_pipe_pool(Arc::new(softpipe::PipePool::with_capacity(arena, 0)));
        }
        p
    };

    // Parity check on fresh pipelines: identical frames with and without
    // the pool, and zero spawns once every group's worker exists.
    let mut pooled = build(true);
    let mut fresh = build(false);
    let mut fragments = 0;
    let mut spawned_after_warmup = 0;
    for frame in 0..4 {
        let a = pooled.advance(&field, 0.05, 0);
        let b = fresh.advance(&field, 0.05, 0);
        assert_eq!(
            a.texture.absolute_difference(&b.texture),
            0.0,
            "{name}: pooled frames diverged from spawn-per-frame"
        );
        fragments = a.dnc.as_ref().map_or(0, |d| d.total_pipe_work().fragments);
        if let Some(arena) = pooled.frame_arena() {
            arena.recycle_texture(a.texture);
        }
        let spawned = pooled.pipe_pool().stats().spawned;
        if frame == 0 {
            spawned_after_warmup = spawned;
        } else {
            assert_eq!(
                spawned, spawned_after_warmup,
                "{name}: steady-state frame spawned a pipe worker"
            );
        }
    }

    let mut pooled = build(true);
    let mut fresh = build(false);
    let (reference_ns, optimized) = time_pair_best(
        9,
        24,
        || {
            let out = fresh.advance(&field, 0.05, 0);
            let texture = std::hint::black_box(out.texture);
            if let Some(arena) = fresh.frame_arena() {
                arena.recycle_texture(texture);
            }
        },
        || {
            let out = pooled.advance(&field, 0.05, 0);
            let texture = std::hint::black_box(out.texture);
            // Steady-state consumers (the service) hand the frame buffer
            // back after serializing it; the bench models that.
            if let Some(arena) = pooled.frame_arena() {
                arena.recycle_texture(texture);
            }
        },
    );
    BenchCase {
        name,
        description,
        fragments_per_op: fragments,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: None,
    }
}

/// Measures the frame-lifecycle tracing overhead on the interactive hot
/// path: two identical divide-and-conquer pipelines advance in lockstep,
/// the reference with tracing disabled and the "optimized" leg recording
/// advect/synthesize/raster-group/gather/render spans into a ring
/// [`spotnoise::telemetry::TraceSink`]. The speedup is therefore
/// `untraced / traced ≈ 1 / (1 + overhead)` — near parity by design — and
/// banking it turns the ratchet into an overhead budget: if tracing ever
/// becomes expensive on the hot path, the measured ratio falls below the
/// committed floor and CI fails. Output equality is asserted first, and the
/// traced pipeline is asserted to actually record spans (a silently
/// disabled sink would bank a meaningless parity).
fn telemetry_trace_overhead_case() -> BenchCase {
    use softpipe::machine::MachineConfig;
    use spotnoise::config::SynthesisConfig;
    use spotnoise::pipeline::{ExecutionMode, Pipeline};
    use spotnoise::telemetry::{TraceMode, TraceSink, DEFAULT_TRACE_CAPACITY};

    let domain = flowfield::Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Vortex {
        omega: 1.0,
        center: domain.center(),
        domain,
    };
    // The service's interactive shape: small frames, where per-frame fixed
    // costs (which is what span recording adds) weigh the most.
    let cfg = SynthesisConfig {
        texture_size: 64,
        spot_count: 200,
        spot_radius: 0.03,
        ..SynthesisConfig::small_test()
    };
    let machine = MachineConfig::new(2, 2);
    let mode = ExecutionMode::DivideAndConquer(machine);
    let build = |traced: bool| {
        let mut p = Pipeline::new(cfg, mode, domain);
        p.set_display_enabled(false);
        if traced {
            p.set_trace_sink(TraceSink::with_mode(
                TraceMode::Ring,
                DEFAULT_TRACE_CAPACITY,
            ));
        }
        p
    };

    // Parity check on fresh pipelines: tracing must be invisible in the
    // texels, and the traced leg must actually be recording.
    let mut traced = build(true);
    let mut plain = build(false);
    let mut fragments = 0;
    for _ in 0..3 {
        let a = traced.advance(&field, 0.05, 0);
        let b = plain.advance(&field, 0.05, 0);
        assert_eq!(
            a.texture.absolute_difference(&b.texture),
            0.0,
            "telemetry_trace_overhead: traced frames diverged from untraced"
        );
        fragments = a.dnc.as_ref().map_or(0, |d| d.total_pipe_work().fragments);
        if let Some(arena) = traced.frame_arena() {
            arena.recycle_texture(a.texture);
        }
        if let Some(arena) = plain.frame_arena() {
            arena.recycle_texture(b.texture);
        }
    }
    assert!(
        traced.trace_sink().recorded() > 0,
        "telemetry_trace_overhead: traced pipeline recorded no spans"
    );

    let mut traced = build(true);
    let mut plain = build(false);
    let (reference_ns, optimized) = time_pair_best(
        9,
        24,
        || {
            let out = plain.advance(&field, 0.05, 0);
            let texture = std::hint::black_box(out.texture);
            if let Some(arena) = plain.frame_arena() {
                arena.recycle_texture(texture);
            }
        },
        || {
            let out = traced.advance(&field, 0.05, 0);
            let texture = std::hint::black_box(out.texture);
            if let Some(arena) = traced.frame_arena() {
                arena.recycle_texture(texture);
            }
        },
    );
    BenchCase {
        name: "telemetry_trace_overhead",
        description: "dnc frame production, lifecycle tracing ring-enabled vs off \
             (64x64, 200 spots, 2 pipes); speedup ~ 1/(1 + tracing overhead)",
        fragments_per_op: fragments,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: None,
    }
}

fn gather_case() -> BenchCase {
    // Four full-coverage 512² partials, as a 4-pipe machine produces.
    let partials: Vec<Texture> = (0..4)
        .map(|i| {
            let mut t = Texture::new(512, 512);
            t.fill(0.25 * (i + 1) as f32);
            t
        })
        .collect();
    // Sequential baseline: the pre-optimization accumulate loop.
    let sequential = |ps: &[Texture]| {
        let mut texture = ps[0].clone();
        for p in &ps[1..] {
            texture.accumulate(p);
        }
        texture
    };
    let fast = gather_additive(&partials);
    assert_eq!(
        fast.texture.absolute_difference(&sequential(&partials)),
        0.0,
        "fused gather diverged from sequential"
    );
    let texels = (partials.len() - 1) as u64 * 512 * 512;
    let (reference_ns, optimized) = time_pair_best(
        9,
        20,
        || {
            std::hint::black_box(sequential(&partials));
        },
        || {
            std::hint::black_box(gather_additive(&partials));
        },
    );
    BenchCase {
        name: "gather_additive_512x4",
        description: "blend 4 full 512x512 partials (sequential c term, fused host fold)",
        fragments_per_op: texels,
        reference_ns_per_op: reference_ns,
        optimized_ns_per_op: optimized,
        info: None,
    }
}

/// Measures the end-to-end divide-and-conquer synthesis at each swept
/// [`SynthesisConfig::spot_batch`] size against unbatched (one pipe message
/// per spot) submission — the batch-size trade-off the ROADMAP flags: big
/// batches amortize the channel round-trip, tiny batches keep the pipe
/// overlapping with shape computation. The unbatched reference and the
/// fragment count are independent of the sweep point, so both are measured
/// once and shared by all three cases.
fn spot_batch_cases() -> Vec<BenchCase> {
    use softpipe::machine::MachineConfig;
    use spotnoise::config::SynthesisConfig;
    use spotnoise::dnc::synthesize_dnc;
    use spotnoise::spot::generate_spots;

    let domain = flowfield::Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Vortex {
        omega: 1.0,
        center: domain.center(),
        domain,
    };
    let base = SynthesisConfig {
        spot_count: 1500,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(base.spot_count, domain, base.intensity_amplitude, 7);
    let machine = MachineConfig::new(1, 1);
    let fragments = synthesize_dnc(&field, &spots, &base, &machine)
        .total_pipe_work()
        .fragments;
    let unbatched = SynthesisConfig {
        spot_batch: 1,
        ..base
    };
    let time_best = |cfg: &SynthesisConfig| {
        let mut best = f64::MAX;
        // One warm-up plus best-of-samples, mirroring time_pair_best.
        for _ in 0..6 {
            let start = Instant::now();
            std::hint::black_box(synthesize_dnc(&field, &spots, cfg, &machine));
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        best
    };
    let reference_ns = time_best(&unbatched);
    let sweep: [(usize, &'static str, &'static str); 3] = [
        (
            16,
            "dnc_spot_batch_16",
            "full dnc synthesis, 16-spot pipe batches vs per-spot submission",
        ),
        (
            64,
            "dnc_spot_batch_64",
            "full dnc synthesis, 64-spot pipe batches vs per-spot submission",
        ),
        (
            256,
            "dnc_spot_batch_256",
            "full dnc synthesis, 256-spot pipe batches vs per-spot submission",
        ),
    ];
    sweep
        .into_iter()
        .map(|(batch, name, description)| {
            let cfg = SynthesisConfig {
                spot_batch: batch,
                ..base
            };
            BenchCase {
                name,
                description,
                fragments_per_op: fragments,
                reference_ns_per_op: reference_ns,
                optimized_ns_per_op: time_best(&cfg),
                info: None,
            }
        })
        .collect()
}

/// Runs every case and assembles the report.
pub fn run_raster_bench() -> RasterBenchReport {
    run_raster_bench_filtered(None)
}

/// Like [`run_raster_bench`], but measuring only the cases whose name
/// contains one of the comma-separated substrings in `filter` (all cases
/// when `None`). Each case's measurement is built lazily, so a filtered run
/// really skips the excluded work — this is what lets CI's `--check` smoke
/// run (`--filter quad,mesh,gather`) keep every fast case while leaving out
/// the slow full-synthesis `dnc_spot_batch_*` sweep.
pub fn run_raster_bench_filtered(filter: Option<&str>) -> RasterBenchReport {
    let matches = |name: &str| {
        filter.is_none_or(|f| {
            f.split(',')
                .any(|part| !part.is_empty() && name.contains(part))
        })
    };
    let disc = disc_spot_texture(32, 0.5);
    let mut flat = Texture::new(32, 32);
    flat.fill(1.0);

    type LazyCase<'a> = (&'static str, Box<dyn FnOnce() -> BenchCase + 'a>);
    let singles: Vec<LazyCase> = vec![
        (
            "quad_512_disc_r12",
            Box::new(|| {
                quad_case(
                    "quad_512_disc_r12",
                    "axis-aligned disc-spot quad, radius 12 px, 512x512 target (microbench shape)",
                    &disc,
                    &[axis_aligned_spot_quad(Vec2::new(256.0, 256.0), 12.0)],
                    512,
                    0.5,
                )
            }),
        ),
        (
            "quad_512_disc_r48",
            Box::new(|| {
                quad_case(
                    "quad_512_disc_r48",
                    "axis-aligned disc-spot quad, radius 48 px (large spots)",
                    &disc,
                    &[axis_aligned_spot_quad(Vec2::new(256.0, 256.0), 48.0)],
                    512,
                    0.5,
                )
            }),
        ),
        (
            "quad_512_flat_r12",
            Box::new(|| {
                quad_case(
                    "quad_512_flat_r12",
                    "flat spot texture: uniform-row nearest-sample fast path",
                    &flat,
                    &[axis_aligned_spot_quad(Vec2::new(256.0, 256.0), 12.0)],
                    512,
                    0.5,
                )
            }),
        ),
        (
            "quad_128_flow_wide",
            Box::new(|| {
                // browse's spots: radius 3.84 px (0.03 of 128) at the full
                // stretch of 3, so most triangle boxes are 13-23 px wide
                // while their rows cover about 3 px.
                quad_case(
                    "quad_128_flow_wide",
                    "100 flow-aligned disc quads, r=3.84 stretched 3x, 128x128 target, 16x16 texture",
                    &disc_spot_texture(16, 0.5),
                    &flow_quads(100, 3.84, 3.0, 128),
                    128,
                    0.5,
                )
            }),
        ),
        (
            "quad_128_flow_narrow",
            Box::new(|| {
                // Unstretched: every box is under 12 px wide.
                quad_case(
                    "quad_128_flow_narrow",
                    "100 flow-aligned disc quads, r=3.84 unstretched (boxes under 12 px), 128x128 target",
                    &disc_spot_texture(16, 0.5),
                    &flow_quads(100, 3.84, 1.0, 128),
                    128,
                    0.5,
                )
            }),
        ),
        (
            "mesh_16x3_rotated",
            Box::new(|| {
                mesh_case(
                    "mesh_16x3_rotated",
                    "bent 16x3 turbulence-style mesh, rotated 30 degrees",
                    &rotated_mesh(16, 3, Vec2::new(256.0, 256.0), 60.0, 12.0, 0.52),
                )
            }),
        ),
        (
            "mesh_32x17_rotated",
            Box::new(|| {
                mesh_case(
                    "mesh_32x17_rotated",
                    "bent 32x17 atmospheric-style mesh, rotated 30 degrees",
                    &rotated_mesh(32, 17, Vec2::new(256.0, 256.0), 80.0, 40.0, 0.52),
                )
            }),
        ),
        (
            "bent_mesh_16x3_r12_footprint",
            Box::new(|| {
                // r = 12 px at stretch 3: a 72x14 ribbon whose rotated 16x3
                // cells have sub-12 px bounding boxes — the narrow-triangle
                // sampling-bound path the footprint sampler targets.
                bent_mesh_footprint_case(
                    "bent_mesh_16x3_r12_footprint",
                    "bent 16x3 mesh, r=12 (narrow triangles): Footprint sampling vs the reference rasterizer",
                    &rotated_mesh(16, 3, Vec2::new(256.0, 256.0), 72.0, 14.0, 0.52),
                    16,
                )
            }),
        ),
        (
            "bent_mesh_16x3_r48_footprint",
            Box::new(|| {
                // r = 48 px: wider cells exercise the span-walking footprint
                // fill (lane-blocked nearest) instead of the cell walker.
                bent_mesh_footprint_case(
                    "bent_mesh_16x3_r48_footprint",
                    "bent 16x3 mesh, r=48 (wide cells): Footprint sampling vs the reference rasterizer",
                    &rotated_mesh(16, 3, Vec2::new(256.0, 256.0), 288.0, 55.0, 0.52),
                    32,
                )
            }),
        ),
        (
            "simd_quad_disc_r12",
            Box::new(|| {
                simd_quad_case(
                    "simd_quad_disc_r12",
                    "disc-spot quad r=12: explicit SIMD kernels vs forced-scalar fallback",
                    &disc,
                    &[axis_aligned_spot_quad(Vec2::new(256.0, 256.0), 12.0)],
                    512,
                    0.5,
                )
            }),
        ),
        (
            "simd_quad_disc_r48",
            Box::new(|| {
                simd_quad_case(
                    "simd_quad_disc_r48",
                    "disc-spot quad r=48: explicit SIMD kernels vs forced-scalar fallback",
                    &disc,
                    &[axis_aligned_spot_quad(Vec2::new(256.0, 256.0), 48.0)],
                    512,
                    0.5,
                )
            }),
        ),
        (
            "simd_quad_flow_wide",
            Box::new(|| {
                // quad_128_flow_wide's quads: rotated, so every span takes
                // the general bilinear fill.
                simd_quad_case(
                    "simd_quad_flow_wide",
                    "100 flow-aligned disc quads r=3.84 stretched 3x, 128x128: explicit SIMD kernels vs forced-scalar fallback",
                    &disc_spot_texture(16, 0.5),
                    &flow_quads(100, 3.84, 3.0, 128),
                    128,
                    0.5,
                )
            }),
        ),
        (
            "simd_quad_flow_tiny",
            Box::new(|| {
                // broadcast_routed's spots: radius 1.92 px (0.03 of 64), so
                // most rows are shorter than one 4-lane vector and keep
                // scalar sampling.
                simd_quad_case(
                    "simd_quad_flow_tiny",
                    "150 flow-aligned disc quads r=1.92 stretched 3x, 64x64: explicit SIMD kernels vs forced-scalar fallback",
                    &disc_spot_texture(16, 0.5),
                    &flow_quads(150, 1.92, 3.0, 64),
                    64,
                    0.5,
                )
            }),
        ),
        ("gather_additive_512x4", Box::new(gather_case)),
        ("frame_arena_reuse", Box::new(frame_arena_case)),
        (
            "pipe_pool_reuse",
            Box::new(|| {
                pipe_pool_case(
                    "pipe_pool_reuse",
                    "dnc frame production, persistent PipePool vs spawn-per-frame \
                     (256x256, 64 spots, 2 pipes)",
                    256,
                    64,
                    2,
                )
            }),
        ),
        (
            "pipe_pool_small_frames",
            Box::new(|| {
                // The interactive/service shape the ROADMAP flags: many
                // small frames, where the per-frame thread spawn is the
                // dominant fixed cost once buffers are pooled.
                pipe_pool_case(
                    "pipe_pool_small_frames",
                    "many small dnc frames, persistent PipePool vs spawn-per-frame \
                     (128x128, 40 spots, 2 pipes)",
                    128,
                    40,
                    2,
                )
            }),
        ),
        (
            "telemetry_trace_overhead",
            Box::new(telemetry_trace_overhead_case),
        ),
    ];

    let mut cases = Vec::new();
    for (name, build) in singles {
        if matches(name) {
            cases.push(build());
        }
    }
    // The spot-batch sweep shares one reference measurement across its three
    // cases, so it runs as a unit when any of its names match.
    let batch_names = [
        "dnc_spot_batch_16",
        "dnc_spot_batch_64",
        "dnc_spot_batch_256",
    ];
    if batch_names.iter().any(|n| matches(n)) {
        cases.extend(spot_batch_cases().into_iter().filter(|c| matches(c.name)));
    }
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
}
