//! `steer_paper`: the paper's headline loop (Table 1 shape) in process.
//!
//! A [`Pipeline`] on `MachineConfig::new(2, 2)` synthesizes 512² textures
//! from 2 500 exact bent 32×17 spots over the smog model's wind, render
//! (spot filter + contrast stretch) on. Set-up steps a set of wind
//! snapshots; frame *k* uses snapshot *k* mod *N*, so every frame is a fresh
//! synthesis over a changing field. Closed loop, one caller.
//!
//! The traced run replays the same frames layer by layer through the
//! public calls the pipeline is made of: `SpotAnimator::advance`,
//! `SynthesisContext::refresh`, `synthesize_dnc_with_telemetry` and
//! `standard_postprocess`; then, for fixed frames, the CPU term on one
//! thread (`SynthesisContext::build_job`), the pipe term on one thread
//! (`PipeCore::execute`) and the same frame on `MachineConfig::new(1, 1)`.

use crate::common::{
    ensure, ledger_row, peak_rss_mb, repeated_setup, Report, Reservoir, Rng, Samples, Scale,
    SpanLog, OVERHEAD_SLICES,
};
use flowfield::{Rect, RegularGrid};
use flowsim::SmogModel;
use softpipe::machine::MachineConfig;
use softpipe::pipe::{PipeCore, RenderCommand};
use softpipe::{FrameArena, PipePool, Texture};
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::{synthesize_dnc, synthesize_dnc_with_telemetry, DncOutput};
use spotnoise::filter::standard_postprocess;
use spotnoise::pipeline::{pipe_pool_default_enabled, ExecutionMode, Pipeline};
use spotnoise::synth::{job_commands, preamble_commands};
use spotnoise::telemetry::TraceSink;
use spotnoise::{PositionMode, SchedulerOptions, SpotAnimator, SynthesisContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    cfg: SynthesisConfig,
    machine: MachineConfig,
    /// Wind snapshots stepped in set-up.
    snapshots: usize,
    /// Smog-model time step between snapshots.
    sim_dt: f64,
    /// Spot advection step per frame.
    dt: f64,
    /// Set-ups per run (the median is `setup_s`).
    setups: usize,
    /// Frames the output oracle re-renders directly.
    oracle_frames: usize,
    /// Frames replayed layer by layer in a traced run.
    replay_frames: u64,
}

impl Params {
    pub fn new(scale: Scale, seed: u64) -> Params {
        let mut rng = Rng::new(seed, 0x57EE);
        let cfg = match scale {
            Scale::Full => SynthesisConfig::atmospheric_paper(),
            Scale::Test => SynthesisConfig {
                texture_size: 96,
                spot_count: 120,
                spot_kind: SpotKind::Bent { rows: 8, cols: 5 },
                spot_texture_size: 16,
                ..SynthesisConfig::atmospheric_paper()
            },
        };
        Params {
            cfg: SynthesisConfig {
                seed: rng.next_u64(),
                ..cfg
            },
            machine: MachineConfig::new(2, 2),
            snapshots: 8,
            sim_dt: 0.2,
            dt: 0.2,
            setups: 5,
            oracle_frames: 2,
            replay_frames: 2,
        }
    }
}

/// The wind snapshots. The wind is the paper's one data set (a fixed
/// smog-model seed); the run seed picks the spot population (positions and
/// intensities, through `SynthesisConfig::seed`), so the work per frame is
/// the same shape on every seed.
pub struct Inputs {
    domain: Rect,
    snapshots: Vec<RegularGrid>,
}

impl Inputs {
    pub fn generate(p: &Params) -> Inputs {
        let mut model = SmogModel::paper_resolution(1997);
        let snapshots = (0..p.snapshots)
            .map(|_| {
                model.step(p.sim_dt);
                model.wind_field().clone()
            })
            .collect();
        Inputs {
            domain: model.domain(),
            snapshots,
        }
    }

    fn field(&self, frame: u64) -> &RegularGrid {
        &self.snapshots[frame as usize % self.snapshots.len()]
    }
}

struct Setup {
    inputs: Inputs,
    pipeline: Pipeline,
}

fn setup(p: &Params) -> Setup {
    let inputs = Inputs::generate(p);
    let mut pipeline = Pipeline::new(
        p.cfg,
        ExecutionMode::DivideAndConquer(p.machine),
        inputs.domain,
    );
    // Warm-up: frame 0 builds the context and spawns the pooled pipes.
    let _ = pipeline.advance(inputs.field(0), p.dt, 0);
    Setup { inputs, pipeline }
}

/// A delivered frame kept for the output oracle.
struct Kept {
    frame: u64,
    texture: Texture,
    display: Texture,
}

/// What a closed-loop window delivered.
#[derive(Default)]
struct Window {
    times: Samples,
    wall: Duration,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.times.extend(&other.times);
        self.wall += other.wall;
    }

    fn frames_per_s(&self) -> f64 {
        self.times.len() as f64 / self.wall.as_secs_f64()
    }
}

fn fingerprint(t: &Texture) -> u64 {
    t.data().iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The untraced closed loop: `Pipeline::advance` until `window` elapses.
/// Asserts the regime: every frame is a fresh synthesis of every spot.
fn run_window(
    p: &Params,
    inputs: &Inputs,
    pipeline: &mut Pipeline,
    window: Duration,
    keep: &mut Reservoir<Kept>,
) -> Result<Window, String> {
    let mut times = Samples::default();
    let mut last = None;
    let start = Instant::now();
    while start.elapsed() < window {
        let frame = pipeline.frames();
        let t = Instant::now();
        let out = pipeline.advance(inputs.field(frame), p.dt, 0);
        times.push(t.elapsed());
        let dnc = out.dnc.as_ref().ok_or("frame without a synthesis report")?;
        let print = fingerprint(&out.texture);
        ensure(
            dnc.total_cpu_work().spots == p.cfg.spot_count as u64 && last != Some(print),
            || format!("frame {frame} is not a fresh synthesis of every spot"),
        )?;
        last = Some(print);
        keep.offer(|| Kept {
            frame,
            texture: out.texture.clone(),
            display: out.display.clone(),
        });
    }
    Ok(Window {
        times,
        wall: start.elapsed(),
    })
}

/// Direct render of frame `frame`: advect a fresh animator `frame + 1`
/// steps over the same snapshots, then one divide-and-conquer synthesis.
fn direct_frame(p: &Params, inputs: &Inputs, frame: u64) -> Texture {
    let mut animator = SpotAnimator::new(
        inputs.domain,
        p.cfg.spot_count,
        PositionMode::Advected,
        p.cfg.seed,
    );
    for k in 0..=frame {
        animator.advance(inputs.field(k), p.dt);
    }
    synthesize_dnc(inputs.field(frame), &animator.spots(), &p.cfg, &p.machine).texture
}

fn same_bits(a: &Texture, b: &Texture) -> bool {
    a.data().len() == b.data().len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The output oracle: each kept frame, raw and displayed, equals a direct
/// render bit for bit.
fn check_oracle(p: &Params, inputs: &Inputs, kept: &[Kept]) -> Result<(), String> {
    ensure(!kept.is_empty(), || "no frame was delivered".to_string())?;
    for k in kept {
        let direct = direct_frame(p, inputs, k.frame);
        ensure(same_bits(&k.texture, &direct), || {
            format!("frame {} differs from a direct synthesis", k.frame)
        })?;
        let display = standard_postprocess(&direct, p.cfg.spot_radius_pixels());
        ensure(same_bits(&k.display, &display), || {
            format!("frame {} display differs from a direct render", k.frame)
        })?;
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(scale: Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let p = Params::new(scale, seed);
    let (mut s, setup_s) = repeated_setup(p.setups, || Ok(setup(&p)))?;
    let mut keep = Reservoir::new(seed, 0x0AC1, p.oracle_frames);
    let w = run_window(
        &p,
        &s.inputs,
        &mut s.pipeline,
        Duration::from_secs_f64(seconds),
        &mut keep,
    )?;
    check_oracle(&p, &s.inputs, &keep.items)?;
    let mut r = Report {
        attempted: w.times.len() as u64,
        ..Report::default()
    };
    r.set("frames_per_s", w.frames_per_s());
    r.set("frame_p50_us", w.times.pct(50.0));
    r.set("frame_p99_us", w.times.pct(99.0));
    r.set("setup_s", setup_s);
    r.set("peak_rss_mb", peak_rss_mb());
    r.lines.push(format!(
        "steer_paper: {} frames in {:.2} s ({} spots, {}x{} texture, machine 2x2)",
        w.times.len(),
        w.wall.as_secs_f64(),
        p.cfg.spot_count,
        p.cfg.texture_size,
        p.cfg.texture_size
    ));
    Ok(r)
}

/// Per-frame numbers of the traced loop's divide-and-conquer reports.
#[derive(Default)]
struct DncStats {
    group_wall_max: Samples,
    imbalance: Samples,
    tail: Samples,
}

impl DncStats {
    fn add(&mut self, out: &DncOutput) {
        let walls = out.groups.iter().map(|g| g.wall_us as f64);
        let max = walls.clone().fold(0.0, f64::max);
        let min = walls.fold(f64::INFINITY, f64::min).max(1.0);
        self.group_wall_max.push_us(max);
        self.imbalance.push_us(max / min);
        self.tail.push_us((out.wall_seconds * 1e6 - max).max(0.0));
    }
}

/// The traced loop: the pipeline's four public calls, each in a span,
/// over the same seeded frames, on state of its own (frame 0, built on
/// creation, is its warm-up and not timed).
struct TracedLoop<'a> {
    p: &'a Params,
    inputs: &'a Inputs,
    arena: Arc<FrameArena>,
    pool: Option<Arc<PipePool>>,
    animator: SpotAnimator,
    ctx: Option<SynthesisContext>,
    frame: u64,
}

impl<'a> TracedLoop<'a> {
    fn new(p: &'a Params, inputs: &'a Inputs) -> Self {
        let arena = Arc::new(FrameArena::new());
        let pool =
            pipe_pool_default_enabled().then(|| Arc::new(PipePool::new(Some(arena.clone()))));
        let animator = SpotAnimator::new(
            inputs.domain,
            p.cfg.spot_count,
            PositionMode::Advected,
            p.cfg.seed,
        );
        let mut this = TracedLoop {
            p,
            inputs,
            arena,
            pool,
            animator,
            ctx: None,
            frame: 0,
        };
        this.frame();
        this
    }

    fn frame(&mut self) -> (SpanLog, DncOutput, Duration) {
        let (p, field) = (self.p, self.inputs.field(self.frame));
        let mut log = SpanLog::default();
        let t = Instant::now();
        log.span("advect", || self.animator.advance(field, p.dt));
        let spots = self.animator.spots();
        log.span("context.refresh", || match self.ctx.as_mut() {
            Some(c) => c.refresh(field, &p.cfg),
            None => self.ctx = Some(SynthesisContext::new(field, &p.cfg)),
        });
        let ctx = self.ctx.as_ref().expect("context built on the first frame");
        let out = log.span("dnc", || {
            synthesize_dnc_with_telemetry(
                field,
                &spots,
                &p.cfg,
                &p.machine,
                ctx,
                &SchedulerOptions::default(),
                Some(&self.arena),
                self.pool.as_ref(),
                &TraceSink::disabled(),
            )
        });
        let _display = log.span("render", || {
            standard_postprocess(&out.texture, p.cfg.spot_radius_pixels())
        });
        self.frame += 1;
        (log, out, t.elapsed())
    }

    /// Runs frames until `window` elapses.
    fn run(&mut self, window: Duration, spans: &mut SpanLog, dnc: &mut DncStats) -> Window {
        let mut times = Samples::default();
        let start = Instant::now();
        while start.elapsed() < window {
            let (log, out, elapsed) = self.frame();
            times.push(elapsed);
            dnc.add(&out);
            spans.append(log);
        }
        Window {
            times,
            wall: start.elapsed(),
        }
    }
}

/// Exact counts and single-thread layer times of the fixed replay frames.
#[derive(Default)]
struct Replay {
    geometry: Samples,
    raster: Samples,
    dnc_speedup: Samples,
    streamline_steps: u64,
    mesh_vertices: u64,
    fragments: u64,
    state_changes: u64,
    compose_texels: u64,
    bus_bytes: u64,
}

/// Replays frames `1..=replay_frames` layer by layer: geometry on one
/// thread, the pipe term on one thread, then the frame on 2x2 and 1x1.
/// Counts come from the first replayed frame, so they repeat exactly for a
/// seed.
fn replay_layers(p: &Params, inputs: &Inputs) -> Result<Replay, String> {
    let arena = Arc::new(FrameArena::new());
    let pool = pipe_pool_default_enabled().then(|| Arc::new(PipePool::new(Some(arena.clone()))));
    let mut animator = SpotAnimator::new(
        inputs.domain,
        p.cfg.spot_count,
        PositionMode::Advected,
        p.cfg.seed,
    );
    let mut r = Replay::default();
    for frame in 0..=p.replay_frames {
        let field = inputs.field(frame);
        animator.advance(field, p.dt);
        if frame == 0 {
            continue;
        }
        let spots = animator.spots();
        let ctx = SynthesisContext::new(field, &p.cfg);

        let t = Instant::now();
        let jobs: Vec<_> = spots
            .iter()
            .map(|spot| ctx.build_job(field, spot, &p.cfg))
            .collect();
        r.geometry.push(t.elapsed());
        let (steps, vertices) = jobs.iter().fold((0, 0), |(s, v), j| {
            (
                s + j.cpu_work.streamline_steps,
                v + j.cpu_work.mesh_vertices,
            )
        });

        let t = Instant::now();
        let mut core = PipeCore::new(p.cfg.texture_size, p.cfg.texture_size);
        core.execute(RenderCommand::Clear);
        for cmd in preamble_commands(&ctx) {
            core.execute(cmd);
        }
        for job in jobs {
            for cmd in job_commands(job) {
                core.execute(cmd);
            }
        }
        let piped = core.finish();
        r.raster.push(t.elapsed());

        let sched = SchedulerOptions::default();
        let sink = TraceSink::disabled();
        let run = |machine: &MachineConfig| {
            synthesize_dnc_with_telemetry(
                field,
                &spots,
                &p.cfg,
                machine,
                &ctx,
                &sched,
                Some(&arena),
                pool.as_ref(),
                &sink,
            )
        };
        let two = run(&p.machine);
        let one = run(&MachineConfig::new(1, 1));
        // One group on one processor is exactly the single-pipe replay:
        // the layer replay did the same work as the pipeline.
        ensure(same_bits(&piped.texture, &one.texture), || {
            format!("frame {frame}: the one-thread layer replay diverged from 1x1 synthesis")
        })?;
        r.dnc_speedup
            .push_us(one.wall_seconds / two.wall_seconds.max(1e-9));
        if frame == 1 {
            r.streamline_steps = steps;
            r.mesh_vertices = vertices;
            r.fragments = piped.raster.fragments;
            r.state_changes = piped.state.total_changes();
            r.compose_texels = two.compose_texels;
            r.bus_bytes = two.bus.total_bytes();
        }
    }
    Ok(r)
}

/// The traced run: per-layer metrics and the reconciliation report.
pub fn run_traced(scale: Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let p = Params::new(scale, seed);
    let (mut s, _) = repeated_setup(p.setups, || Ok(setup(&p)))?;
    // Untraced and traced slices alternate, so drift over the run cancels
    // out of the overhead ratio.
    let slice = Duration::from_secs_f64(seconds / (2 * OVERHEAD_SLICES) as f64);
    let mut keep = Reservoir::new(seed, 0x0AC1, p.oracle_frames);
    let mut spans = SpanLog::default();
    let mut dnc = DncStats::default();
    let mut traced_loop = TracedLoop::new(&p, &s.inputs);
    let (mut untraced, mut traced) = (Window::default(), Window::default());
    for _ in 0..OVERHEAD_SLICES {
        untraced.merge(run_window(
            &p,
            &s.inputs,
            &mut s.pipeline,
            slice,
            &mut keep,
        )?);
        traced.merge(traced_loop.run(slice, &mut spans, &mut dnc));
    }
    drop(traced_loop);
    let replay = replay_layers(&p, &s.inputs)?;
    check_oracle(&p, &s.inputs, &keep.items)?;

    let mut r = Report {
        attempted: (untraced.times.len() + traced.times.len()) as u64,
        ..Report::default()
    };
    let layer = |name: &str| spans.samples(name);
    r.set("advect.p50_us", layer("advect").pct(50.0));
    r.set("context.refresh_p50_us", layer("context.refresh").pct(50.0));
    r.set("dnc.p50_us", layer("dnc").pct(50.0));
    r.set("dnc.group_wall_max_us", dnc.group_wall_max.pct(50.0));
    r.set("dnc.group_imbalance", dnc.imbalance.pct(50.0));
    r.set("dnc.speedup_1x1", replay.dnc_speedup.pct(50.0));
    r.set("gather.tail_us", dnc.tail.pct(50.0));
    r.set("gather.compose_texels", replay.compose_texels as f64);
    r.set("bus.bytes", replay.bus_bytes as f64);
    r.set("render.p50_us", layer("render").pct(50.0));
    r.set("geometry.p50_us", replay.geometry.pct(50.0));
    r.set("geometry.streamline_steps", replay.streamline_steps as f64);
    r.set("geometry.mesh_vertices", replay.mesh_vertices as f64);
    r.set("raster.p50_us", replay.raster.pct(50.0));
    r.set("raster.fragments", replay.fragments as f64);
    r.set("raster.state_changes", replay.state_changes as f64);
    r.set(
        "raster.bytes_computed",
        (replay.fragments * 2 * std::mem::size_of::<f32>() as u64) as f64,
    );

    // Reconciliation: the untraced frame against the traced layers' self
    // times (means add up; medians do not).
    let whole = untraced.times.mean();
    let parts = [
        ("advect (SpotAnimator::advance)", layer("advect").mean()),
        (
            "context.refresh (SynthesisContext)",
            layer("context.refresh").mean(),
        ),
        ("dnc (synthesize_dnc_with_telemetry)", layer("dnc").mean()),
        ("render (standard_postprocess)", layer("render").mean()),
    ];
    let remainder = whole - parts.iter().map(|(_, us)| us).sum::<f64>();
    let overhead = traced.frames_per_s() / untraced.frames_per_s();
    r.set("remainder_us", remainder);
    r.set("trace.overhead_ratio", overhead);
    r.lines.push(format!(
        "ledger steer_paper: frame mean {whole:.1} us untraced (n={}), traced layers n={}",
        untraced.times.len(),
        traced.times.len()
    ));
    for (name, us) in parts {
        r.lines.push(ledger_row(name, us, whole));
    }
    r.lines.push(ledger_row(
        "  of dnc: slowest group (geometry+pipe)",
        dnc.group_wall_max.mean(),
        whole,
    ));
    r.lines.push(ledger_row(
        "  of dnc: gather tail (c term)",
        dnc.tail.mean(),
        whole,
    ));
    r.lines.push(ledger_row("remainder", remainder, whole));
    r.lines.push(format!(
        "  one-thread replays: geometry (CPU term) {:.1} us, raster (pipe term) {:.1} us; 1x1/2x2 speedup {:.2}",
        replay.geometry.mean(),
        replay.raster.mean(),
        replay.dnc_speedup.pct(50.0)
    ));
    r.lines.push(format!(
        "  trace.overhead_ratio {overhead:.4} (traced {:.3} vs untraced {:.3} frames/s)",
        traced.frames_per_s(),
        untraced.frames_per_s()
    ));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_counts_repeat_for_a_seed() {
        let p = Params::new(Scale::Test, 3);
        let a = replay_layers(&p, &Inputs::generate(&p)).expect("replay");
        let b = replay_layers(&p, &Inputs::generate(&p)).expect("replay");
        assert!(a.fragments > 0 && a.streamline_steps > 0 && a.compose_texels > 0);
        assert_eq!(a.fragments, b.fragments);
        assert_eq!(a.streamline_steps, b.streamline_steps);
        assert_eq!(a.compose_texels, b.compose_texels);
        assert_eq!(a.bus_bytes, b.bus_bytes);
    }

    #[test]
    fn both_runs_are_clean_on_a_held_out_seed() {
        for seed in [5, 6] {
            let r = run(Scale::Test, seed, 0.5).expect("untraced run");
            assert!(r.metrics["frames_per_s"] > 0.0);
            let t = run_traced(Scale::Test, seed, 0.5).expect("traced run");
            assert!(t.metrics["raster.fragments"] > 0.0);
        }
    }
}
