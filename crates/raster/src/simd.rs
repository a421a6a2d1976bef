//! Explicit SIMD kernels behind runtime dispatch.
//!
//! The span fills, blend sweeps and gather folds are the fragment-bound inner
//! loops of the software pipe. This module gives them explicit `core::arch`
//! kernels — SSE2 (the x86_64 baseline) and AVX2 on x86_64, NEON on aarch64 —
//! selected once per process by runtime feature detection, with the scalar
//! code kept as the portable fallback and correctness oracle.
//!
//! The kernels:
//!
//! * span fills — general bilinear (`fill_bilinear`, both texture
//!   coordinates varying along the row: rotated spot quads), hoisted
//!   bilinear (`fill_hoisted`, `v` constant along the row), row-constant
//!   and 2-D nearest (`fill_nearest_row`, `fill_nearest_2d`);
//! * the uniform blend sweep (`blend_uniform`);
//! * gather folds and the tile blit (`fold_copy`, `fold_acc`,
//!   `copy_slice`).
//!
//! Each kernel is written once, generic over a private lane trait (`Lanes`),
//! and every target compiles the bodies. Three impls run them: SSE2
//! (`__m128`, texel gathers through lane arrays) and AVX2 (`__m256`,
//! `vgatherdps`) on x86_64, and NEON (`float32x4_t`, gathers through lane
//! arrays, coordinates in two `float64x2_t` halves) on aarch64. There are
//! two vector loops: the blend loop, which the uniform blend and the span
//! fills share (they differ only in the lanes they blend in), and the fold
//! loop. The folds run a tail cascade — a wide pass (8 lanes at AVX2), a
//! 4-lane pass, then the last 0–3 elements through the scalar folds. The
//! span fills and the uniform blend run whole vectors of the level's width,
//! then one more sample of that width for the last pixels, blended lane by
//! lane. Each level's entry point only calls the body: the x86 ones carry
//! `#[target_feature]`, and NEON, part of the aarch64 baseline, needs none.
//! In unit tests the NEON impl also builds and runs off aarch64, against a
//! lane-exact emulation of the intrinsics it uses, and a test-only `Emu<N>`
//! impl over plain arrays, with bounds-checked gathers, runs every body at
//! 2, 4, 8 and 16 lanes.
//!
//! The general bilinear fill leaves spans shorter than one 4-lane vector
//! on scalar sampling at every level: on small flow-aligned spots (rows of
//! 1-3 pixels) setting up and blending a whole vector for them cost more
//! than the per-pixel kernel.
//!
//! Scanline span search has no kernel: the root-guided search
//! (`RowEdge::interval` in the raster) serves every level. A two-lane SSE2
//! coverage mask over the row timed no faster; an AVX2 one was faster on
//! `browse`'s small boxes, a gain not yet shown clearly enough to keep a
//! second search path (ROADMAP records the measurements).
//!
//! # Bit identity
//!
//! `SamplingMode::Exact` is pinned to seed hashes, so every kernel here must
//! be **bit-identical** to its scalar fallback:
//!
//! * Kernels use separate multiply and add only — never fused multiply-add.
//!   FMA skips the intermediate rounding of the multiply, so a contracted
//!   `a*b + c` differs from the scalar path in the last ulp; `rustc` never
//!   contracts on its own, and neither do we.
//! * Texture coordinates are evaluated per lane in `f64` with exactly the
//!   scalar operation order (`row_base + ((px + 0.5) - ox) * ddx`) and then
//!   narrowed to `f32` (`cvtpd→ps` and `fcvtn` round to nearest-even, same
//!   as an `as` cast).
//! * Clamps are exactly `f32::clamp`, NaN included: a NaN coordinate
//!   keeps its NaN weight, and its texel index is 0, the value of the
//!   saturating `as` cast, so a non-finite `uv` renders the same bits at
//!   every level.
//! * `Max` blending is the explicit compare-select `if src > dst { src }
//!   else { dst }` in both the scalar path ([`BlendMode::apply`]) and the
//!   vector kernels (a compare, then a select). `f32::max`, `maxps` and
//!   NEON's `fmax` could not be used: their signed-zero tie results
//!   disagree with each other *and* between build profiles, while the
//!   compare-select keeps `dst` on every tie, everywhere. The lane `min`
//!   is the compare-select `if a < b { a } else { b }` (`minps`) for the
//!   same reason.
//!
//! The seeded property tests at the bottom pin every kernel to its scalar
//! twin bit-for-bit over random lengths, blend modes and slice offsets, and
//! over every length 0–17 (each handoff to the tail) in every blend mode,
//! at every level the host can run, at emulated NEON, and on `Emu<N>`.
//!
//! # Dispatch
//!
//! [`active`] resolves once per process: the `SPOTNOISE_SIMD` environment
//! variable (`off`/`scalar`/`sse2`/`avx2`/`neon`) overrides detection when it
//! names a level the host supports; otherwise the best detected level wins.
//! [`force`] is a process-global test/bench hook that takes precedence over
//! both — safe to flip mid-run precisely because all levels produce identical
//! bits.

// Targets with no lanes impl (neither x86_64 nor aarch64) run only the
// scalar fallbacks, so the shared kernel bodies go unused there.
#![cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(unused)
)]

use crate::blend::BlendMode;
use crate::raster::AttrRow;
use crate::texture::{nearest_index, Bilinear, Texture};
use lanes::{Bilinear2d, Hoisted, Nearest2d, NearestRow, Sample, Uniform};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A SIMD dispatch level: which kernel implementation the hot loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar fallback — the pre-SIMD code, and the oracle the
    /// vector kernels are pinned against.
    Scalar = 0,
    /// 128-bit SSE2 kernels (the x86_64 baseline, always available there).
    Sse2 = 1,
    /// 256-bit AVX2 kernels (x86_64, detected at runtime).
    Avx2 = 2,
    /// 128-bit NEON kernels (the aarch64 baseline).
    Neon = 3,
}

impl SimdLevel {
    /// Canonical lowercase name, as used by `SPOTNOISE_SIMD` and recorded in
    /// bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Parses a `SPOTNOISE_SIMD` value; `off` is an alias for `scalar`.
    pub(crate) fn from_name(name: &str) -> Option<SimdLevel> {
        match name {
            "off" | "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            "neon" => Some(SimdLevel::Neon),
            _ => None,
        }
    }
}

/// The best level the host supports, by runtime feature detection.
pub fn detected() -> SimdLevel {
    dispatch().detected
}

/// Every level this process can run, scalar first. The bit-identity tests
/// iterate this to pin each available kernel set against the scalar oracle.
pub fn available() -> Vec<SimdLevel> {
    match detected() {
        SimdLevel::Scalar => vec![SimdLevel::Scalar],
        SimdLevel::Sse2 => vec![SimdLevel::Scalar, SimdLevel::Sse2],
        SimdLevel::Avx2 => vec![SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2],
        SimdLevel::Neon => vec![SimdLevel::Scalar, SimdLevel::Neon],
    }
}

/// The level the kernels dispatch to right now: a [`force`] override if one
/// is set, else the once-per-process resolution of `SPOTNOISE_SIMD` and
/// feature detection.
pub fn active() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        FORCE_NONE => dispatch().resolved,
        raw => level_from_u8(raw),
    }
}

/// The raw `SPOTNOISE_SIMD` value this process was started with, if any —
/// recorded in bench artifacts so banked numbers name their dispatch leg.
pub fn env_override() -> Option<&'static str> {
    dispatch().env.as_deref()
}

/// Process-global dispatch override for tests and benches: `Some(level)`
/// pins every kernel to `level`, `None` restores normal resolution. Takes
/// precedence over `SPOTNOISE_SIMD`. Safe to flip while other threads run —
/// every level produces identical bits, so a racing kernel only changes
/// *which* implementation computes them.
///
/// # Panics
/// Panics when `level` is not in [`available`] on this host.
pub fn force(level: Option<SimdLevel>) {
    match level {
        None => FORCED.store(FORCE_NONE, Ordering::Relaxed),
        Some(level) => {
            #[cfg(not(test))]
            let offered = available();
            #[cfg(test)]
            let offered = test_levels();
            assert!(
                offered.contains(&level),
                "SIMD level {} is not available on this host (detected: {})",
                level.name(),
                detected().name()
            );
            FORCED.store(level as u8, Ordering::Relaxed);
        }
    }
}

/// The levels the unit tests run: [`available`], plus NEON on emulated
/// intrinsics off aarch64. [`force`] accepts each of them in tests.
#[cfg(test)]
pub(crate) fn test_levels() -> Vec<SimdLevel> {
    let mut levels = available();
    if !levels.contains(&SimdLevel::Neon) {
        levels.push(SimdLevel::Neon);
    }
    levels
}

/// Serializes the tests that [`force`] a level and depend on it holding:
/// `force` is process-global and the test harness runs tests in parallel.
#[cfg(test)]
pub(crate) static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const FORCE_NONE: u8 = u8::MAX;
static FORCED: AtomicU8 = AtomicU8::new(FORCE_NONE);

fn level_from_u8(raw: u8) -> SimdLevel {
    match raw {
        0 => SimdLevel::Scalar,
        1 => SimdLevel::Sse2,
        2 => SimdLevel::Avx2,
        _ => SimdLevel::Neon,
    }
}

struct Dispatch {
    detected: SimdLevel,
    resolved: SimdLevel,
    env: Option<String>,
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        let detected = detect();
        let env = std::env::var("SPOTNOISE_SIMD")
            .ok()
            .filter(|v| !v.is_empty());
        let resolved = resolve(env.as_deref(), detected);
        Dispatch {
            detected,
            resolved,
            env,
        }
    })
}

/// Pure resolution of the `SPOTNOISE_SIMD` override against the detected
/// level: a recognized, host-supported request wins; anything else falls
/// back to detection (with a warning, so a typo in CI cannot silently run
/// the wrong leg).
fn resolve(env: Option<&str>, detected: SimdLevel) -> SimdLevel {
    let Some(raw) = env else {
        return detected;
    };
    match SimdLevel::from_name(raw) {
        Some(requested) => {
            let supported = match requested {
                SimdLevel::Scalar => true,
                SimdLevel::Sse2 => cfg!(target_arch = "x86_64"),
                SimdLevel::Avx2 => cfg!(target_arch = "x86_64") && detected >= SimdLevel::Avx2,
                SimdLevel::Neon => cfg!(target_arch = "aarch64"),
            };
            if supported {
                requested
            } else {
                eprintln!(
                    "SPOTNOISE_SIMD={raw}: level not supported on this host, \
                     using detected level '{}'",
                    detected.name()
                );
                detected
            }
        }
        None => {
            eprintln!(
                "SPOTNOISE_SIMD={raw}: unknown level (expected off|scalar|sse2|avx2|neon), \
                 using detected level '{}'",
                detected.name()
            );
            detected
        }
    }
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            SimdLevel::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

// ---------------------------------------------------------------------------
// Level-dispatched kernels. Each entry point matches on the level once per
// call (the callers hoist `active()` per triangle / per compose pass, so the
// match runs per row fill or per chunk, not per texel). A level this build
// has no lanes for falls through to scalar; it is unreachable in practice
// because `available()` never offers it.
// ---------------------------------------------------------------------------

/// Runs the span fill or uniform blend of `sample()` over `span` (`span[0]`
/// is pixel `lo`) in the lanes of `level`. Returns `false`, having done
/// nothing, at `Scalar` and at a level this build has no lanes for.
#[inline(always)]
fn fill_lanes<S: Sample>(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    blend: BlendMode,
    sample: impl FnOnce() -> S,
) -> bool {
    // SAFETY: the x86 entry points need their target feature. SSE2 is in
    // the x86_64 baseline, and AVX2 is a level only where detection (or
    // `force`, checked against it) found it.
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::fill_sse2(span, lo, blend, &sample()) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::fill_avx2(span, lo, blend, &sample()) },
        #[cfg(any(target_arch = "aarch64", test))]
        SimdLevel::Neon => neon::fill_neon(span, lo, blend, &sample()),
        _ => return false,
    }
    true
}

/// The gather folds and the straight copy at `level`: `(s0 + s1) + …`, or
/// `((dst + s0) + s1) + …` with `acc`. `srcs` holds 1–4 slices as long as
/// `dst`.
///
/// # Panics
/// Panics at every level when a source's length differs from `dst`'s.
fn fold_at(level: SimdLevel, acc: bool, dst: &mut [f32], srcs: &[&[f32]]) {
    debug_assert!((1..=4).contains(&srcs.len()));
    assert!(
        srcs.iter().all(|s| s.len() == dst.len()),
        "fold sources must be as long as the destination"
    );
    // SAFETY: as in `fill_lanes`.
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::fold_sse2(acc, dst, srcs) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::fold_avx2(acc, dst, srcs) },
        #[cfg(any(target_arch = "aarch64", test))]
        SimdLevel::Neon => neon::fold_neon(acc, dst, srcs),
        _ if acc => scalar_fold_acc(dst, srcs),
        _ => scalar_fold_copy(dst, srcs),
    }
}

/// [`BlendMode::apply_uniform`] at a dispatch level: blends one value across
/// `dst` (the uniform-row fast path of disc/flat spot fills).
pub(crate) fn blend_uniform(level: SimdLevel, mode: BlendMode, dst: &mut [f32], src: f32) {
    if !fill_lanes(level, dst, 0, mode, || Uniform(src)) {
        mode.apply_uniform(dst, src);
    }
}

/// Spans shorter than this keep scalar sampling in [`fill_bilinear`] at
/// every level: one 4-lane vector.
const MIN_LANE_SPAN: usize = 4;

/// The general bilinear span fill: both texture coordinates vary along the
/// row (rotated spot quads), so each pixel takes the full four-tap
/// [`Bilinear::sample`] of `texture`, times `intensity`. `span[0]`
/// corresponds to pixel column `lo`. Spans shorter than
/// [`MIN_LANE_SPAN`] take the scalar fallback at every level.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_bilinear(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texture: &Texture,
    intensity: f32,
    blend: BlendMode,
) {
    let sample = || Bilinear2d::new(u_row, v_row, texture, intensity);
    if span.len() < MIN_LANE_SPAN || !fill_lanes(level, span, lo, blend, sample) {
        scalar_fill_bilinear(span, lo, u_row, v_row, texture, intensity, blend);
    }
}

/// The hoisted-bilinear span fill: `v` is constant along the row, so the
/// vertical half of the bilinear kernel (`tex_row0`/`tex_row1`, `ty`) is
/// precomputed and each pixel needs only the horizontal lerp. `span[0]`
/// corresponds to pixel column `lo`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_hoisted(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row0: &[f32],
    tex_row1: &[f32],
    ty: f32,
    intensity: f32,
    blend: BlendMode,
) {
    let sample = || Hoisted::new(u_row, tex_row0, tex_row1, ty, intensity);
    if !fill_lanes(level, span, lo, blend, sample) {
        scalar_fill_hoisted(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend);
    }
}

/// The row-constant nearest span fill of footprint mode: one prefetched
/// texture row serves the whole span, each pixel takes one clamped fetch.
pub(crate) fn fill_nearest_row(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row: &[f32],
    intensity: f32,
    blend: BlendMode,
) {
    let sample = || NearestRow::new(u_row, tex_row, intensity);
    if !fill_lanes(level, span, lo, blend, sample) {
        scalar_fill_nearest_row(span, lo, u_row, tex_row, intensity, blend);
    }
}

/// The general nearest span fill of footprint mode: both texture coordinates
/// vary along the row, each pixel takes one 2-D clamped fetch from `texels`
/// (a `tw`×`th` texture).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_nearest_2d(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texels: &[f32],
    tw: usize,
    th: usize,
    intensity: f32,
    blend: BlendMode,
) {
    let sample = || Nearest2d::new(u_row, v_row, texels, tw, th, intensity);
    if !fill_lanes(level, span, lo, blend, sample) {
        scalar_fill_nearest_2d(span, lo, u_row, v_row, texels, tw, th, intensity, blend);
    }
}

/// Gather-fold kernel, copy flavour: `dst = s0 + s1 + …` with the sequential
/// fold's left association. `srcs` holds 1–4 equal-length slices.
pub(crate) fn fold_copy(level: SimdLevel, dst: &mut [f32], srcs: &[&[f32]]) {
    fold_at(level, false, dst, srcs);
}

/// Gather-fold kernel, accumulate flavour: `dst = ((dst + s0) + s1) + …`.
pub(crate) fn fold_acc(level: SimdLevel, dst: &mut [f32], srcs: &[&[f32]]) {
    fold_at(level, true, dst, srcs);
}

/// Straight copy (the compose tile blit and the single-source copy fold):
/// explicit vector moves at SIMD levels, `copy_from_slice` on scalar.
///
/// # Panics
/// Panics at every level when `dst` and `src` differ in length.
pub(crate) fn copy_slice(level: SimdLevel, dst: &mut [f32], src: &[f32]) {
    fold_at(level, false, dst, &[src]);
}

// ---------------------------------------------------------------------------
// Scalar fallbacks: the per-pixel sampling of the raster's span fills
// (`fill_bilinear_span`, `fill_nearest_span`), driven through the
// lane-block loop. These are the oracle every vector kernel is pinned
// against. The fallbacks that only the scalar level runs stay out of line:
// inlined into the span walker, the hoisted one slowed the AVX2 path of
// `simd_quad_disc_*` by about 5 %.
// ---------------------------------------------------------------------------

/// Fragments per lane block of the scalar span fills.
const LANES: usize = 8;

/// The lane-block loop of the scalar span fills: computes [`LANES`]
/// samples at a time with `sample_at` into a stack array (the per-lane
/// evaluations are independent, so they vectorize) and blends each block in
/// one mode-specialized [`BlendMode::apply_block`]; the tail blends pixel by
/// pixel with identical arithmetic.
#[inline(always)]
fn fill_lane_blocked(
    span: &mut [f32],
    lo: usize,
    blend: BlendMode,
    sample_at: impl Fn(usize) -> f32,
) {
    let mut samples = [0.0f32; LANES];
    let split = span.len() - span.len() % LANES;
    let (blocks, tail) = span.split_at_mut(split);
    let mut px = lo;
    for chunk in blocks.chunks_exact_mut(LANES) {
        for (lane, out) in samples.iter_mut().enumerate() {
            *out = sample_at(px + lane);
        }
        blend.apply_block(chunk, &samples);
        px += LANES;
    }
    for (offset, dst) in tail.iter_mut().enumerate() {
        *dst = blend.apply(*dst, sample_at(px + offset));
    }
}

#[allow(clippy::too_many_arguments)]
fn scalar_fill_bilinear(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texture: &Texture,
    intensity: f32,
    blend: BlendMode,
) {
    let kernel = Bilinear::new(texture);
    fill_lane_blocked(span, lo, blend, |px| {
        kernel.sample(u_row.at(px) as f32, v_row.at(px) as f32) * intensity
    });
}

#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn scalar_fill_hoisted(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row0: &[f32],
    tex_row1: &[f32],
    ty: f32,
    intensity: f32,
    blend: BlendMode,
) {
    let tex_w = tex_row0.len();
    let sample_at = |px: usize| -> f32 {
        let u = u_row.at(px) as f32;
        let fx = (u * tex_w as f32 - 0.5).clamp(0.0, tex_w as f32 - 1.0);
        // `f32::floor`, not `floor_index`: as the oracle of the vector
        // kernels (whose tails use the helper) this stays independent of it,
        // and `simd_quad_*` bench cases time the kernels against this cost.
        let tx0 = fx.floor() as usize;
        let tx1 = (tx0 + 1).min(tex_w - 1);
        let tx = fx - tx0 as f32;
        let a = tex_row0[tx0];
        let b = tex_row0[tx1];
        let c = tex_row1[tx0];
        let d = tex_row1[tx1];
        let bottom = a + (b - a) * tx;
        let top = c + (d - c) * tx;
        (bottom + (top - bottom) * ty) * intensity
    };
    fill_lane_blocked(span, lo, blend, sample_at);
}

#[inline(never)]
fn scalar_fill_nearest_row(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row: &[f32],
    intensity: f32,
    blend: BlendMode,
) {
    let tw = tex_row.len();
    fill_lane_blocked(span, lo, blend, |px| {
        tex_row[nearest_index(u_row.at(px) as f32, tw)] * intensity
    });
}

#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn scalar_fill_nearest_2d(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texels: &[f32],
    tw: usize,
    th: usize,
    intensity: f32,
    blend: BlendMode,
) {
    fill_lane_blocked(span, lo, blend, |px| {
        let tx = nearest_index(u_row.at(px) as f32, tw);
        let ty = nearest_index(v_row.at(px) as f32, th);
        texels[ty * tw + tx] * intensity
    });
}

fn scalar_fold_copy(dst: &mut [f32], srcs: &[&[f32]]) {
    match *srcs {
        [a] => dst.copy_from_slice(a),
        [a, b] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = a[i] + b[i];
            }
        }
        [a, b, c] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = (a[i] + b[i]) + c[i];
            }
        }
        [a, b, c, e] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = ((a[i] + b[i]) + c[i]) + e[i];
            }
        }
        _ => unreachable!("fold_copy takes 1-4 sources"),
    }
}

fn scalar_fold_acc(dst: &mut [f32], srcs: &[&[f32]]) {
    match *srcs {
        [a] => {
            for (d, v) in dst.iter_mut().zip(a) {
                *d += *v;
            }
        }
        [a, b] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = (*d + a[i]) + b[i];
            }
        }
        [a, b, c] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = ((*d + a[i]) + b[i]) + c[i];
            }
        }
        [a, b, c, e] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = (((*d + a[i]) + b[i]) + c[i]) + e[i];
            }
        }
        _ => unreachable!("fold_acc takes 1-4 sources"),
    }
}

// ---------------------------------------------------------------------------
// The kernel bodies, written once over the lane trait (see the module docs).
// Every target compiles them; `x86` and `neon` hold the impls and the
// per-level entry points.
// ---------------------------------------------------------------------------
mod lanes {
    use super::{scalar_fold_acc, scalar_fold_copy};
    use crate::blend::BlendMode;
    use crate::raster::AttrRow;
    use crate::texture::Texture;

    /// One vector width: `N` lanes of `f32` (`F`) and of `i32` (`I`), and
    /// the operations the kernel bodies are written in. Holding a value of
    /// an impl proves the host runs its instructions.
    pub(super) trait Lanes: Copy {
        const N: usize;
        type F: Copy;
        type I: Copy;
        /// `[f32; N]`, room for one vector's lanes.
        type Array: AsMut<[f32]>;
        /// An `Array` of zeros.
        const ZEROS: Self::Array;
        /// `s[i..i + N]`.
        ///
        /// # Safety
        /// `i + N <= s.len()`.
        unsafe fn load(self, s: &[f32], i: usize) -> Self::F;
        /// Writes `v` to `s[i..i + N]`.
        ///
        /// # Safety
        /// `i + N <= s.len()`.
        unsafe fn store(self, s: &mut [f32], i: usize, v: Self::F);
        fn splat(self, x: f32) -> Self::F;
        fn add(self, a: Self::F, b: Self::F) -> Self::F;
        fn sub(self, a: Self::F, b: Self::F) -> Self::F;
        fn mul(self, a: Self::F, b: Self::F) -> Self::F;
        /// `if a < b { a } else { b }` per lane (`minps`), so `b` on NaN.
        fn min(self, a: Self::F, b: Self::F) -> Self::F;
        /// The Max blend, `if s > d { s } else { d }` per lane: the exact
        /// compare-select of [`BlendMode::apply`], which keeps `d` on
        /// signed-zero ties and on NaN (`maxps` returns its second operand
        /// instead, NEON's `fmax` the NaN and `+0.0`).
        fn max(self, d: Self::F, s: Self::F) -> Self::F;
        /// `v.clamp(lo, hi)` per lane, bit for bit as `f32::clamp` for every
        /// `v`: `if lo > v { lo } else { v }`, then `if hi < x { hi } else
        /// { x }`, so a NaN and a `-0.0` pass through as they do there.
        #[inline(always)]
        fn clamp(self, v: Self::F, lo: Self::F, hi: Self::F) -> Self::F {
            self.min(hi, self.max(v, lo))
        }
        /// The texel index `v as i32` of a clamped coordinate `v` in
        /// `[0, 2^31)`; a NaN lane gives 0, like the saturating cast. (x86
        /// truncation would give `i32::MIN`, out of every texture.)
        #[inline(always)]
        fn index(self, v: Self::F) -> Self::I {
            self.trunc(self.max(self.splat(0.0), v))
        }
        /// Truncation toward zero to `i32` lanes, of lanes in `[0, 2^31)`:
        /// the only ones the samples pass ([`Lanes::index`] maps NaN to 0
        /// first). Outside that range the impls differ: x86 gives
        /// `i32::MIN`, NEON saturates and maps NaN to 0.
        fn trunc(self, v: Self::F) -> Self::I;
        /// `i32` lanes back to `f32`.
        fn float(self, v: Self::I) -> Self::F;
        /// `row.at(px + k) as f32` in lane `k`: evaluated in `f64` with the
        /// scalar operation order, then narrowed with rounding to
        /// nearest-even, exactly like `as f32`.
        fn coords(self, row: AttrRow, px: usize) -> Self::F;
        /// `s[i]` for each lane index `i`.
        ///
        /// # Safety
        /// Every lane of `i` is in `0..s.len()`.
        unsafe fn gather(self, s: &[f32], i: Self::I) -> Self::F;
        /// `s[y * w + x]` for each lane's `x`, `y`.
        ///
        /// # Safety
        /// Every lane's `y * w + x` is in `0..s.len()`.
        unsafe fn gather_2d(self, s: &[f32], w: usize, x: Self::I, y: Self::I) -> Self::F;
    }

    /// A source of lane vectors: `at(l, px)` is the `N` values blended into
    /// elements (pixels) `px..px + N`, each lane bit-identical to the
    /// scalar code's value.
    pub(super) trait Sample {
        fn at<L: Lanes>(&self, l: L, px: usize) -> L::F;
    }

    /// Blends `sample.at(l, lo + i)` into `dst[i..i + N]` for each whole
    /// vector of `dst`, per lane exactly as [`BlendMode::apply`]; returns the
    /// index where it stopped.
    #[inline(always)]
    fn blend_lanes<L: Lanes>(
        l: L,
        mode: BlendMode,
        dst: &mut [f32],
        lo: usize,
        sample: &impl Sample,
    ) -> usize {
        // One loop per mode: each call inlines with a constant `mode`, so the
        // per-vector match in `blend_loop` folds away.
        match mode {
            BlendMode::Replace => blend_loop(l, BlendMode::Replace, dst, lo, sample),
            BlendMode::Additive => blend_loop(l, BlendMode::Additive, dst, lo, sample),
            BlendMode::Max => blend_loop(l, BlendMode::Max, dst, lo, sample),
            BlendMode::Alpha(a) => blend_loop(l, BlendMode::Alpha(a), dst, lo, sample),
        }
    }

    #[inline(always)]
    fn blend_loop<L: Lanes>(
        l: L,
        mode: BlendMode,
        dst: &mut [f32],
        lo: usize,
        sample: &impl Sample,
    ) -> usize {
        let mut i = 0;
        while i + L::N <= dst.len() {
            let s = sample.at(l, lo + i);
            // SAFETY: `i + N <= dst.len()`.
            unsafe {
                let d = l.load(dst, i);
                let blended = match mode {
                    BlendMode::Replace => s,
                    BlendMode::Additive => l.add(d, s),
                    BlendMode::Max => l.max(d, s),
                    BlendMode::Alpha(a) => {
                        let alpha = a.value();
                        l.add(l.mul(s, l.splat(alpha)), l.mul(d, l.splat(1.0 - alpha)))
                    }
                };
                l.store(dst, i, blended);
            }
            i += L::N;
        }
        i
    }

    /// The one value of [`BlendMode::apply_uniform`], blended as a fill.
    pub(super) struct Uniform(pub(super) f32);

    impl Sample for Uniform {
        #[inline(always)]
        fn at<L: Lanes>(&self, l: L, _: usize) -> L::F {
            l.splat(self.0)
        }
    }

    // The folds run the tail cascade once: the `wide` pass first, the
    // `narrow` pass over what it leaves, and scalar code the rest. The fills
    // run whole vectors of one width and one more sample (`fill`).

    /// The gather folds and the straight copy (one source, `acc` false):
    /// `(s0 + s1) + …`, or `((dst + s0) + s1) + …` with `acc`,
    /// left-associated like the scalar folds. The arity is matched once.
    /// With one vector width, pass it as both `wide` and `narrow`.
    #[inline(always)]
    pub(super) fn fold<W: Lanes, L: Lanes>(
        wide: W,
        narrow: L,
        acc: bool,
        dst: &mut [f32],
        srcs: &[&[f32]],
    ) {
        match *srcs {
            [a] => fold_k(wide, narrow, acc, dst, [a]),
            [a, b] => fold_k(wide, narrow, acc, dst, [a, b]),
            [a, b, c] => fold_k(wide, narrow, acc, dst, [a, b, c]),
            [a, b, c, e] => fold_k(wide, narrow, acc, dst, [a, b, c, e]),
            _ => unreachable!("folds take 1-4 sources"),
        }
    }

    #[inline(always)]
    fn fold_k<W: Lanes, L: Lanes, const K: usize>(
        wide: W,
        narrow: L,
        acc: bool,
        dst: &mut [f32],
        srcs: [&[f32]; K],
    ) {
        let srcs = srcs.map(|s| &s[..dst.len()]);
        let n = fold_lanes(wide, acc, dst, 0, &srcs);
        let n = fold_lanes(narrow, acc, dst, n, &srcs);
        let (dst, srcs) = (&mut dst[n..], srcs.map(|s| &s[n..]));
        if acc {
            scalar_fold_acc(dst, &srcs);
        } else {
            scalar_fold_copy(dst, &srcs);
        }
    }

    /// One fold pass over the whole vectors of `dst` from index `from` on;
    /// every source is as long as `dst`. Returns the index where it stopped.
    #[inline(always)]
    fn fold_lanes<L: Lanes>(
        l: L,
        acc: bool,
        dst: &mut [f32],
        from: usize,
        srcs: &[&[f32]],
    ) -> usize {
        let mut i = from;
        while i + L::N <= dst.len() {
            // SAFETY: `i + N <= dst.len()`, and every source is as long.
            unsafe {
                let (first, rest) = match acc {
                    true => (l.load(dst, i), srcs),
                    false => (l.load(srcs[0], i), &srcs[1..]),
                };
                let sum = rest.iter().fold(first, |sum, s| l.add(sum, l.load(s, i)));
                l.store(dst, i, sum);
            }
            i += L::N;
        }
        i
    }

    /// The span fills and the uniform blend (`span[0]` is pixel `lo`): whole
    /// vectors of `L`, then the last `1..N` pixels. Samples are defined past
    /// the span's end too (the fills clamp every texture coordinate into the
    /// texture), so those take one more `N`-lane sample and blend lane by
    /// lane through [`BlendMode::apply_block`]. (Handing them to the
    /// `scalar_fill_*` oracle instead, with its `f32::floor` call and
    /// per-pixel closure, made small disc quads measurably slower; at AVX2,
    /// one 8-lane sample beat a 4-lane block plus a 4-lane sample on
    /// `browse`'s 4-7 px rows.)
    #[inline(always)]
    pub(super) fn fill<L: Lanes>(
        l: L,
        span: &mut [f32],
        lo: usize,
        blend: BlendMode,
        sample: &impl Sample,
    ) {
        let n = blend_lanes(l, blend, span, lo, sample);
        if n < span.len() {
            let mut lanes = L::ZEROS;
            let lanes = lanes.as_mut();
            // SAFETY: `lanes` holds `N` values.
            unsafe { l.store(lanes, 0, sample.at(l, lo + n)) };
            let rest = &mut span[n..];
            blend.apply_block(rest, &lanes[..rest.len()]);
        }
    }

    /// The longest texture side the samples take: up to it every texel
    /// coordinate, `side - 1` above all, is exact in `f32`, so a clamped
    /// coordinate never truncates past the last texel.
    const MAX_SIDE: usize = 1 << f32::MANTISSA_DIGITS;

    /// Panics unless `texels` holds a `tw`×`th` texture the 2-D samples
    /// can index: neither side empty or above [`MAX_SIDE`], and every texel
    /// index fits in an `i32`.
    fn assert_texture_2d(texels: &[f32], tw: usize, th: usize, what: &str) {
        let len = tw.checked_mul(th).filter(|&len| len <= i32::MAX as usize);
        assert!(
            (1..=MAX_SIDE).contains(&tw)
                && (1..=MAX_SIDE).contains(&th)
                && len.is_some_and(|len| len <= texels.len()),
            "{what} fill of a malformed {tw}x{th} texture"
        );
    }

    /// The hoisted-bilinear sample ([`super::fill_hoisted`]).
    pub(super) struct Hoisted<'a> {
        u_row: AttrRow,
        r0: &'a [f32],
        r1: &'a [f32],
        ty: f32,
        intensity: f32,
    }

    impl<'a> Hoisted<'a> {
        /// # Panics
        /// Panics when `r0` is empty or longer than [`MAX_SIDE`], or `r1` is
        /// shorter than `r0`.
        pub(super) fn new(
            u_row: AttrRow,
            r0: &'a [f32],
            r1: &'a [f32],
            ty: f32,
            intensity: f32,
        ) -> Self {
            assert!(
                (1..=MAX_SIDE).contains(&r0.len()),
                "hoisted fill of a texture row of {} texels",
                r0.len()
            );
            let r1 = &r1[..r0.len()];
            Hoisted {
                u_row,
                r0,
                r1,
                ty,
                intensity,
            }
        }
    }

    impl Sample for Hoisted<'_> {
        #[inline(always)]
        fn at<L: Lanes>(&self, l: L, px: usize) -> L::F {
            let w = self.r0.len() as f32;
            let hi = l.splat(w - 1.0);
            let u = l.coords(self.u_row, px);
            let fx = l.clamp(l.sub(l.mul(u, l.splat(w)), l.splat(0.5)), l.splat(0.0), hi);
            let tx0 = l.index(fx);
            let tx0f = l.float(tx0);
            let tx = l.sub(fx, tx0f);
            let tx1 = l.trunc(l.min(l.add(tx0f, l.splat(1.0)), hi));
            // SAFETY: both indices are clamped to `[0, w - 1]`, and both rows
            // are `w` long (`Hoisted::new`).
            let (a, b) = unsafe { (l.gather(self.r0, tx0), l.gather(self.r0, tx1)) };
            // SAFETY: as above.
            let (c, d) = unsafe { (l.gather(self.r1, tx0), l.gather(self.r1, tx1)) };
            let bottom = l.add(a, l.mul(l.sub(b, a), tx));
            let top = l.add(c, l.mul(l.sub(d, c), tx));
            let lerped = l.add(bottom, l.mul(l.sub(top, bottom), l.splat(self.ty)));
            l.mul(lerped, l.splat(self.intensity))
        }
    }

    /// The row-constant nearest sample ([`super::fill_nearest_row`]).
    pub(super) struct NearestRow<'a> {
        u_row: AttrRow,
        tex_row: &'a [f32],
        intensity: f32,
    }

    impl<'a> NearestRow<'a> {
        /// # Panics
        /// Panics when `tex_row` is empty or longer than [`MAX_SIDE`].
        pub(super) fn new(u_row: AttrRow, tex_row: &'a [f32], intensity: f32) -> Self {
            assert!(
                (1..=MAX_SIDE).contains(&tex_row.len()),
                "nearest fill of a texture row of {} texels",
                tex_row.len()
            );
            NearestRow {
                u_row,
                tex_row,
                intensity,
            }
        }
    }

    impl Sample for NearestRow<'_> {
        #[inline(always)]
        fn at<L: Lanes>(&self, l: L, px: usize) -> L::F {
            let w = self.tex_row.len() as f32;
            let u = l.mul(l.coords(self.u_row, px), l.splat(w));
            let t = l.index(l.clamp(u, l.splat(0.0), l.splat(w - 1.0)));
            // SAFETY: `t` is clamped to `[0, w - 1]`.
            let texel = unsafe { l.gather(self.tex_row, t) };
            l.mul(texel, l.splat(self.intensity))
        }
    }

    /// The 2-D nearest sample of a `tw`×`th` texture
    /// ([`super::fill_nearest_2d`]).
    pub(super) struct Nearest2d<'a> {
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &'a [f32],
        tw: usize,
        th: usize,
        intensity: f32,
    }

    impl<'a> Nearest2d<'a> {
        /// # Panics
        /// Panics as [`assert_texture_2d`] does.
        pub(super) fn new(
            u_row: AttrRow,
            v_row: AttrRow,
            texels: &'a [f32],
            tw: usize,
            th: usize,
            intensity: f32,
        ) -> Self {
            assert_texture_2d(texels, tw, th, "nearest");
            Nearest2d {
                u_row,
                v_row,
                texels,
                tw,
                th,
                intensity,
            }
        }
    }

    impl Sample for Nearest2d<'_> {
        #[inline(always)]
        fn at<L: Lanes>(&self, l: L, px: usize) -> L::F {
            let (tw, th) = (self.tw as f32, self.th as f32);
            let u = l.mul(l.coords(self.u_row, px), l.splat(tw));
            let v = l.mul(l.coords(self.v_row, px), l.splat(th));
            let x = l.index(l.clamp(u, l.splat(0.0), l.splat(tw - 1.0)));
            let y = l.index(l.clamp(v, l.splat(0.0), l.splat(th - 1.0)));
            // SAFETY: the clamps give `x < tw` and `y < th`, so `y * tw + x`
            // is below `tw * th <= texels.len()` (`Nearest2d::new`).
            let texel = unsafe { l.gather_2d(self.texels, self.tw, x, y) };
            l.mul(texel, l.splat(self.intensity))
        }
    }

    /// The general bilinear sample ([`super::fill_bilinear`]): per lane,
    /// [`Bilinear::sample`](crate::texture::Bilinear::sample) in its
    /// operation order, then `× intensity`.
    pub(super) struct Bilinear2d<'a> {
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &'a [f32],
        tw: usize,
        th: usize,
        intensity: f32,
    }

    impl<'a> Bilinear2d<'a> {
        /// # Panics
        /// Panics as [`assert_texture_2d`] does.
        pub(super) fn new(
            u_row: AttrRow,
            v_row: AttrRow,
            texture: &'a Texture,
            intensity: f32,
        ) -> Self {
            let (texels, tw, th) = (texture.data(), texture.width(), texture.height());
            assert_texture_2d(texels, tw, th, "bilinear");
            Bilinear2d {
                u_row,
                v_row,
                texels,
                tw,
                th,
                intensity,
            }
        }
    }

    impl Sample for Bilinear2d<'_> {
        #[inline(always)]
        fn at<L: Lanes>(&self, l: L, px: usize) -> L::F {
            let (tw, th) = (self.tw as f32, self.th as f32);
            let (x_hi, y_hi) = (l.splat(tw - 1.0), l.splat(th - 1.0));
            let (zero, half, one) = (l.splat(0.0), l.splat(0.5), l.splat(1.0));
            let u = l.coords(self.u_row, px);
            let v = l.coords(self.v_row, px);
            let fx = l.clamp(l.sub(l.mul(u, l.splat(tw)), half), zero, x_hi);
            let fy = l.clamp(l.sub(l.mul(v, l.splat(th)), half), zero, y_hi);
            let (x0, y0) = (l.index(fx), l.index(fy));
            let (x0f, y0f) = (l.float(x0), l.float(y0));
            let tx = l.sub(fx, x0f);
            let ty = l.sub(fy, y0f);
            let x1 = l.trunc(l.min(l.add(x0f, one), x_hi));
            let y1 = l.trunc(l.min(l.add(y0f, one), y_hi));
            // SAFETY: every index is clamped to `[0, tw - 1]` or
            // `[0, th - 1]`, so each `y * tw + x` is below
            // `tw * th <= texels.len()` (`Bilinear2d::new`).
            let (a, b, c, d) = unsafe {
                (
                    l.gather_2d(self.texels, self.tw, x0, y0),
                    l.gather_2d(self.texels, self.tw, x1, y0),
                    l.gather_2d(self.texels, self.tw, x0, y1),
                    l.gather_2d(self.texels, self.tw, x1, y1),
                )
            };
            let bottom = l.add(a, l.mul(l.sub(b, a), tx));
            let top = l.add(c, l.mul(l.sub(d, c), tx));
            let lerped = l.add(bottom, l.mul(l.sub(top, bottom), ty));
            l.mul(lerped, l.splat(self.intensity))
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 lanes. The entry points carry `#[target_feature]`, so calls are
// `unsafe`; the dispatchers (`fill_lanes`, `fold_at`) guarantee the feature.
// ---------------------------------------------------------------------------
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::lanes::{fill, fold, Lanes, Sample};
    use crate::blend::BlendMode;
    use crate::raster::AttrRow;
    use core::arch::x86_64::*;

    /// Four lanes: `__m128`. The texel gathers go through lane arrays.
    #[derive(Clone, Copy)]
    struct Sse2;

    // SAFETY (every `unsafe` block of this impl): SSE2 is part of the x86_64
    // baseline, which is all the intrinsics need.
    impl Lanes for Sse2 {
        const N: usize = 4;
        type F = __m128;
        type I = __m128i;
        type Array = [f32; 4];
        const ZEROS: [f32; 4] = [0.0; 4];
        #[inline(always)]
        unsafe fn load(self, s: &[f32], i: usize) -> __m128 {
            debug_assert!(i + 4 <= s.len());
            _mm_loadu_ps(s.as_ptr().add(i))
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f32], i: usize, v: __m128) {
            debug_assert!(i + 4 <= s.len());
            _mm_storeu_ps(s.as_mut_ptr().add(i), v)
        }
        #[inline(always)]
        fn splat(self, x: f32) -> __m128 {
            unsafe { _mm_set1_ps(x) }
        }
        #[inline(always)]
        fn add(self, a: __m128, b: __m128) -> __m128 {
            unsafe { _mm_add_ps(a, b) }
        }
        #[inline(always)]
        fn sub(self, a: __m128, b: __m128) -> __m128 {
            unsafe { _mm_sub_ps(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: __m128, b: __m128) -> __m128 {
            unsafe { _mm_mul_ps(a, b) }
        }
        #[inline(always)]
        fn min(self, a: __m128, b: __m128) -> __m128 {
            unsafe { _mm_min_ps(a, b) }
        }
        #[inline(always)]
        fn max(self, d: __m128, s: __m128) -> __m128 {
            unsafe {
                let take_s = _mm_cmpgt_ps(s, d);
                _mm_or_ps(_mm_and_ps(take_s, s), _mm_andnot_ps(take_s, d))
            }
        }
        #[inline(always)]
        fn trunc(self, v: __m128) -> __m128i {
            unsafe { _mm_cvttps_epi32(v) }
        }
        #[inline(always)]
        fn float(self, v: __m128i) -> __m128 {
            unsafe { _mm_cvtepi32_ps(v) }
        }
        #[inline(always)]
        fn coords(self, row: AttrRow, px: usize) -> __m128 {
            unsafe {
                let (base, ddx, ox) = (
                    _mm_set1_pd(row.row_base),
                    _mm_set1_pd(row.ddx),
                    _mm_set1_pd(row.ox),
                );
                // `(px + k) as f64 + 0.5`, exactly: every term is an
                // integer or half-integer far below 2^52.
                let x = _mm_set1_pd(px as f64);
                let c01 = _mm_add_pd(x, _mm_set_pd(1.5, 0.5));
                let c23 = _mm_add_pd(x, _mm_set_pd(3.5, 2.5));
                let u01 = _mm_add_pd(_mm_mul_pd(_mm_sub_pd(c01, ox), ddx), base);
                let u23 = _mm_add_pd(_mm_mul_pd(_mm_sub_pd(c23, ox), ddx), base);
                _mm_movelh_ps(_mm_cvtpd_ps(u01), _mm_cvtpd_ps(u23))
            }
        }
        #[inline(always)]
        unsafe fn gather(self, s: &[f32], i: __m128i) -> __m128 {
            let i: [i32; 4] = core::mem::transmute(i);
            core::mem::transmute(i.map(|i| s[i as usize]))
        }
        #[inline(always)]
        unsafe fn gather_2d(self, s: &[f32], w: usize, x: __m128i, y: __m128i) -> __m128 {
            let x: [i32; 4] = core::mem::transmute(x);
            let y: [i32; 4] = core::mem::transmute(y);
            core::mem::transmute([0, 1, 2, 3].map(|k| s[y[k] as usize * w + x[k] as usize]))
        }
    }

    /// Eight lanes: `__m256`, with hardware texel gathers (`vgatherdps`).
    #[derive(Clone, Copy)]
    struct Avx2(());

    impl Avx2 {
        /// The AVX2 token. Safe to call only from code that enables AVX2,
        /// so every `Avx2` is made where its instructions can run.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new() -> Self {
            Avx2(())
        }
    }

    // SAFETY (every `unsafe` block of this impl): an `Avx2` exists only where
    // AVX2 is enabled (see `Avx2::new`), which is what the intrinsics need.
    impl Lanes for Avx2 {
        const N: usize = 8;
        type F = __m256;
        type I = __m256i;
        type Array = [f32; 8];
        const ZEROS: [f32; 8] = [0.0; 8];
        #[inline(always)]
        unsafe fn load(self, s: &[f32], i: usize) -> __m256 {
            debug_assert!(i + 8 <= s.len());
            _mm256_loadu_ps(s.as_ptr().add(i))
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f32], i: usize, v: __m256) {
            debug_assert!(i + 8 <= s.len());
            _mm256_storeu_ps(s.as_mut_ptr().add(i), v)
        }
        #[inline(always)]
        fn splat(self, x: f32) -> __m256 {
            unsafe { _mm256_set1_ps(x) }
        }
        #[inline(always)]
        fn add(self, a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_add_ps(a, b) }
        }
        #[inline(always)]
        fn sub(self, a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_sub_ps(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_mul_ps(a, b) }
        }
        #[inline(always)]
        fn min(self, a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_min_ps(a, b) }
        }
        #[inline(always)]
        fn max(self, d: __m256, s: __m256) -> __m256 {
            unsafe { _mm256_blendv_ps(d, s, _mm256_cmp_ps::<_CMP_GT_OQ>(s, d)) }
        }
        #[inline(always)]
        fn trunc(self, v: __m256) -> __m256i {
            unsafe { _mm256_cvttps_epi32(v) }
        }
        #[inline(always)]
        fn float(self, v: __m256i) -> __m256 {
            unsafe { _mm256_cvtepi32_ps(v) }
        }
        #[inline(always)]
        fn coords(self, row: AttrRow, px: usize) -> __m256 {
            unsafe {
                let (base, ddx, ox) = (
                    _mm256_set1_pd(row.row_base),
                    _mm256_set1_pd(row.ddx),
                    _mm256_set1_pd(row.ox),
                );
                // As in the SSE2 impl.
                let x = _mm256_set1_pd(px as f64);
                let c_lo = _mm256_add_pd(x, _mm256_set_pd(3.5, 2.5, 1.5, 0.5));
                let c_hi = _mm256_add_pd(x, _mm256_set_pd(7.5, 6.5, 5.5, 4.5));
                let lo = _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(c_lo, ox), ddx), base);
                let hi = _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(c_hi, ox), ddx), base);
                _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo))
            }
        }
        #[inline(always)]
        unsafe fn gather(self, s: &[f32], i: __m256i) -> __m256 {
            _mm256_i32gather_ps::<4>(s.as_ptr(), i)
        }
        #[inline(always)]
        unsafe fn gather_2d(self, s: &[f32], w: usize, x: __m256i, y: __m256i) -> __m256 {
            let i = _mm256_add_epi32(_mm256_mullo_epi32(y, _mm256_set1_epi32(w as i32)), x);
            _mm256_i32gather_ps::<4>(s.as_ptr(), i)
        }
    }

    // Entry points: one per kernel and level.

    #[target_feature(enable = "sse2")]
    pub(super) fn fold_sse2(acc: bool, dst: &mut [f32], srcs: &[&[f32]]) {
        fold(Sse2, Sse2, acc, dst, srcs);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fold_avx2(acc: bool, dst: &mut [f32], srcs: &[&[f32]]) {
        fold(Avx2::new(), Sse2, acc, dst, srcs);
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn fill_sse2(span: &mut [f32], lo: usize, blend: BlendMode, sample: &impl Sample) {
        fill(Sse2, span, lo, blend, sample);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fill_avx2(span: &mut [f32], lo: usize, blend: BlendMode, sample: &impl Sample) {
        fill(Avx2::new(), span, lo, blend, sample);
    }
}

// ---------------------------------------------------------------------------
// aarch64 lanes: NEON, part of the aarch64 baseline, so its entry points
// need no `#[target_feature]` and are safe to call. Unit tests build it on
// every host: off aarch64 the intrinsics come from `neon_emu`.
// ---------------------------------------------------------------------------
#[cfg(any(target_arch = "aarch64", test))]
mod neon {
    use super::lanes::{fill, fold, Lanes, Sample};
    #[cfg(not(target_arch = "aarch64"))]
    use super::neon_emu::*;
    use crate::blend::BlendMode;
    use crate::raster::AttrRow;
    #[cfg(target_arch = "aarch64")]
    use core::arch::aarch64::*;

    /// Four lanes: `float32x4_t`. The coordinates are evaluated in two
    /// `float64x2_t` halves; the texel gathers go through lane arrays.
    #[derive(Clone, Copy)]
    struct Neon;

    // SAFETY (every `unsafe` block of this impl): NEON is part of the
    // aarch64 baseline, which is all the intrinsics need.
    impl Lanes for Neon {
        const N: usize = 4;
        type F = float32x4_t;
        type I = int32x4_t;
        type Array = [f32; 4];
        const ZEROS: [f32; 4] = [0.0; 4];
        #[inline(always)]
        unsafe fn load(self, s: &[f32], i: usize) -> float32x4_t {
            debug_assert!(i + 4 <= s.len());
            vld1q_f32(s.as_ptr().add(i))
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f32], i: usize, v: float32x4_t) {
            debug_assert!(i + 4 <= s.len());
            vst1q_f32(s.as_mut_ptr().add(i), v)
        }
        #[inline(always)]
        fn splat(self, x: f32) -> float32x4_t {
            unsafe { vdupq_n_f32(x) }
        }
        #[inline(always)]
        fn add(self, a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vaddq_f32(a, b) }
        }
        #[inline(always)]
        fn sub(self, a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vsubq_f32(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vmulq_f32(a, b) }
        }
        /// A compare-select, not `vminq`: `fmin` returns the NaN.
        #[inline(always)]
        fn min(self, a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vbslq_f32(vcltq_f32(a, b), a, b) }
        }
        /// A compare-select, not `vmaxq`: `fmax` returns the NaN, and
        /// `+0.0` on signed-zero ties.
        #[inline(always)]
        fn max(self, d: float32x4_t, s: float32x4_t) -> float32x4_t {
            unsafe { vbslq_f32(vcgtq_f32(s, d), s, d) }
        }
        #[inline(always)]
        fn trunc(self, v: float32x4_t) -> int32x4_t {
            unsafe { vcvtq_s32_f32(v) }
        }
        #[inline(always)]
        fn float(self, v: int32x4_t) -> float32x4_t {
            unsafe { vcvtq_f32_s32(v) }
        }
        #[inline(always)]
        fn coords(self, row: AttrRow, px: usize) -> float32x4_t {
            unsafe {
                let (base, ddx, ox) = (
                    vdupq_n_f64(row.row_base),
                    vdupq_n_f64(row.ddx),
                    vdupq_n_f64(row.ox),
                );
                // As in the x86 impls.
                let x = vdupq_n_f64(px as f64);
                let c01 = vaddq_f64(x, vld1q_f64([0.5, 1.5].as_ptr()));
                let c23 = vaddq_f64(x, vld1q_f64([2.5, 3.5].as_ptr()));
                let u01 = vaddq_f64(vmulq_f64(vsubq_f64(c01, ox), ddx), base);
                let u23 = vaddq_f64(vmulq_f64(vsubq_f64(c23, ox), ddx), base);
                vcombine_f32(vcvt_f32_f64(u01), vcvt_f32_f64(u23))
            }
        }
        #[inline(always)]
        unsafe fn gather(self, s: &[f32], i: int32x4_t) -> float32x4_t {
            let mut lanes = [0; 4];
            vst1q_s32(lanes.as_mut_ptr(), i);
            vld1q_f32(lanes.map(|i| s[i as usize]).as_ptr())
        }
        #[inline(always)]
        unsafe fn gather_2d(self, s: &[f32], w: usize, x: int32x4_t, y: int32x4_t) -> float32x4_t {
            let (mut xs, mut ys) = ([0; 4], [0; 4]);
            vst1q_s32(xs.as_mut_ptr(), x);
            vst1q_s32(ys.as_mut_ptr(), y);
            let texels = [0, 1, 2, 3].map(|k| s[ys[k] as usize * w + xs[k] as usize]);
            vld1q_f32(texels.as_ptr())
        }
    }

    // Entry points: one per kernel.

    pub(super) fn fold_neon(acc: bool, dst: &mut [f32], srcs: &[&[f32]]) {
        fold(Neon, Neon, acc, dst, srcs);
    }

    pub(super) fn fill_neon(span: &mut [f32], lo: usize, blend: BlendMode, sample: &impl Sample) {
        fill(Neon, span, lo, blend, sample);
    }
}

#[cfg(test)]
mod tests {
    use super::lanes::{fill, fold, Lanes};
    use super::*;
    use crate::blend::AlphaFactor;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Deterministic mixed-sign data with signed zeros sprinkled in, so the
    /// Max blend's `±0.0` corner is exercised by every run.
    fn data(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let bits = rng.next_u64();
                match bits & 0x1F {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((bits >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0,
                }
            })
            .collect()
    }

    fn mode_from(raw: u8) -> BlendMode {
        match raw {
            0 => BlendMode::Replace,
            1 => BlendMode::Additive,
            2 => BlendMode::Max,
            _ => BlendMode::Alpha(AlphaFactor::new(0.375)),
        }
    }

    /// `N` lanes over plain arrays, with every access checked: the lane
    /// semantics the kernel bodies assume, at any width. The gathers index
    /// their slice, so a wrong texel index panics, and `trunc` panics
    /// outside `[0, 2^31)`.
    #[derive(Clone, Copy)]
    struct Emu<const N: usize>;

    impl<const N: usize> Lanes for Emu<N> {
        const N: usize = N;
        type F = [f32; N];
        type I = [i32; N];
        type Array = [f32; N];
        const ZEROS: [f32; N] = [0.0; N];
        unsafe fn load(self, s: &[f32], i: usize) -> [f32; N] {
            s[i..i + N].try_into().unwrap()
        }
        unsafe fn store(self, s: &mut [f32], i: usize, v: [f32; N]) {
            s[i..i + N].copy_from_slice(&v);
        }
        fn splat(self, x: f32) -> [f32; N] {
            [x; N]
        }
        fn add(self, a: [f32; N], b: [f32; N]) -> [f32; N] {
            std::array::from_fn(|k| a[k] + b[k])
        }
        fn sub(self, a: [f32; N], b: [f32; N]) -> [f32; N] {
            std::array::from_fn(|k| a[k] - b[k])
        }
        fn mul(self, a: [f32; N], b: [f32; N]) -> [f32; N] {
            std::array::from_fn(|k| a[k] * b[k])
        }
        fn min(self, a: [f32; N], b: [f32; N]) -> [f32; N] {
            std::array::from_fn(|k| if a[k] < b[k] { a[k] } else { b[k] })
        }
        fn max(self, d: [f32; N], s: [f32; N]) -> [f32; N] {
            std::array::from_fn(|k| if s[k] > d[k] { s[k] } else { d[k] })
        }
        fn trunc(self, v: [f32; N]) -> [i32; N] {
            v.map(|x| {
                assert!((0.0..2_147_483_648.0).contains(&x), "trunc of {x}");
                x as i32
            })
        }
        fn float(self, v: [i32; N]) -> [f32; N] {
            v.map(|x| x as f32)
        }
        fn coords(self, row: AttrRow, px: usize) -> [f32; N] {
            std::array::from_fn(|k| row.at(px + k) as f32)
        }
        unsafe fn gather(self, s: &[f32], i: [i32; N]) -> [f32; N] {
            i.map(|i| s[usize::try_from(i).unwrap()])
        }
        unsafe fn gather_2d(self, s: &[f32], w: usize, x: [i32; N], y: [i32; N]) -> [f32; N] {
            std::array::from_fn(|k| {
                let (x, y) = (
                    usize::try_from(x[k]).unwrap(),
                    usize::try_from(y[k]).unwrap(),
                );
                assert!(x < w, "texel column {x} of a {w}-wide texture");
                s[y * w + x]
            })
        }
    }

    /// Where a kernel runs: through the dispatcher at a level, or its body
    /// on `Emu<N>` lanes.
    #[derive(Clone, Copy)]
    enum Target {
        Level(SimdLevel),
        Emu(usize),
    }

    impl Target {
        fn name(self) -> String {
            match self {
                Target::Level(level) => level.name().to_string(),
                Target::Emu(n) => format!("Emu<{n}>"),
            }
        }

        /// `fold_acc` or `fold_copy` at a level; on `Emu<n>`, the fold body
        /// with its narrow pass at half width (at least 2), as AVX2 hands
        /// off to SSE2.
        fn fold(self, acc: bool, dst: &mut [f32], srcs: &[&[f32]]) {
            match self {
                Target::Level(level) if acc => fold_acc(level, dst, srcs),
                Target::Level(level) => fold_copy(level, dst, srcs),
                Target::Emu(2) => fold(Emu::<2>, Emu::<2>, acc, dst, srcs),
                Target::Emu(4) => fold(Emu::<4>, Emu::<2>, acc, dst, srcs),
                Target::Emu(8) => fold(Emu::<8>, Emu::<4>, acc, dst, srcs),
                Target::Emu(16) => fold(Emu::<16>, Emu::<8>, acc, dst, srcs),
                Target::Emu(n) => unreachable!("no Emu<{n}>"),
            }
        }

        /// A span fill: `dispatch` at a level; on `Emu<n>`, the fill body
        /// over `sample()`.
        fn fill<S: Sample>(
            self,
            span: &mut [f32],
            lo: usize,
            blend: BlendMode,
            dispatch: impl FnOnce(SimdLevel, &mut [f32]),
            sample: impl FnOnce() -> S,
        ) {
            match self {
                Target::Level(level) => dispatch(level, span),
                Target::Emu(2) => fill(Emu::<2>, span, lo, blend, &sample()),
                Target::Emu(4) => fill(Emu::<4>, span, lo, blend, &sample()),
                Target::Emu(8) => fill(Emu::<8>, span, lo, blend, &sample()),
                Target::Emu(16) => fill(Emu::<16>, span, lo, blend, &sample()),
                Target::Emu(n) => unreachable!("no Emu<{n}>"),
            }
        }
    }

    /// Every vector level the tests run (emulated NEON included), then the
    /// kernel bodies on `Emu<2|4|8|16>`.
    fn targets() -> Vec<Target> {
        let levels = test_levels()
            .into_iter()
            .filter(|l| *l != SimdLevel::Scalar);
        let emu = [2, 4, 8, 16].map(Target::Emu);
        levels.map(Target::Level).chain(emu).collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], target: Target, context: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{} diverged at index {}: got {:?} ({:#x}), want {:?} ({:#x}); {}",
                target.name(),
                i,
                g,
                g.to_bits(),
                w,
                w.to_bits(),
                context
            );
        }
    }

    #[test]
    fn from_name_roundtrip_and_off_alias() {
        for level in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert_eq!(SimdLevel::from_name(level.name()), Some(level));
        }
        assert_eq!(SimdLevel::from_name("off"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::from_name("avx512"), None);
        assert_eq!(SimdLevel::from_name(""), None);
    }

    #[test]
    fn resolve_honours_supported_requests_and_falls_back() {
        let detected = detect();
        // No override: detection wins.
        assert_eq!(resolve(None, detected), detected);
        // `off` always resolves to scalar.
        assert_eq!(resolve(Some("off"), detected), SimdLevel::Scalar);
        assert_eq!(resolve(Some("scalar"), detected), SimdLevel::Scalar);
        // Unknown levels fall back to detection.
        assert_eq!(resolve(Some("avx512"), detected), detected);
        // Every available level is honoured when requested explicitly.
        for level in available() {
            assert_eq!(resolve(Some(level.name()), detected), level);
        }
        // A level from the other architecture is unsupported, so detection
        // wins.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(resolve(Some("neon"), detected), detected);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(resolve(Some("avx2"), detected), detected);
    }

    #[test]
    fn available_is_scalar_first_and_contains_detected() {
        let levels = available();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.contains(&detected()));
    }

    #[test]
    fn force_overrides_and_restores_active() {
        let _serial = FORCE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let resolved = active();
        for level in test_levels() {
            force(Some(level));
            assert_eq!(active(), level);
        }
        force(None);
        assert_eq!(active(), resolved);
    }

    #[test]
    fn max_blend_matches_scalar_on_signed_zeros() {
        let dst0 = [0.0f32, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0];
        for src in [0.0f32, -0.0] {
            let mut want = dst0;
            blend_uniform(SimdLevel::Scalar, BlendMode::Max, &mut want, src);
            for target in targets() {
                let mut got = dst0;
                let dispatch =
                    |level, span: &mut [f32]| blend_uniform(level, BlendMode::Max, span, src);
                target.fill(&mut got, 0, BlendMode::Max, dispatch, || Uniform(src));
                let context = format!("Max blend of {src:?} over signed zeros");
                assert_bits_eq(&got, &want, target, &context);
            }
        }
    }

    /// The deterministic length sweep every property test adds to its
    /// random cases: each length 0..=17 reaches every handoff from whole
    /// vectors to the tail (0-7 elements after the 8-lane blocks, 0-3 after
    /// the 4-lane ones), twice over.
    const SWEEP_LENS: std::ops::RangeInclusive<usize> = 0..=17;

    /// The span offsets of the fill sweeps: aligned and not.
    const SWEEP_LOS: [usize; 2] = [0, 5];

    #[test]
    fn blend_uniform_bit_identical() {
        let check = |len: usize, mode: BlendMode, src: f32, data_seed: u64, context: &str| {
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let dst0 = data(&mut data_rng, len);
            let mut want = dst0.clone();
            blend_uniform(SimdLevel::Scalar, mode, &mut want, src);
            for target in targets() {
                let mut got = dst0.clone();
                let dispatch = |level, span: &mut [f32]| blend_uniform(level, mode, span, src);
                target.fill(&mut got, 0, mode, dispatch, || Uniform(src));
                assert_bits_eq(&got, &want, target, context);
            }
        };
        let seed = 0xB1F0;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let data_seed = rng.gen_range(0u64..1_000_000);
            let len = rng.gen_range(0usize..41);
            let raw_mode = rng.gen_range(0u8..4);
            let src = rng.gen_range(-2.0f32..2.0);
            let context = format!(
                "seed {seed:#x}, case {case}: data seed {data_seed}, len {len}, \
                 raw mode {raw_mode}, src {src}"
            );
            check(len, mode_from(raw_mode), src, data_seed, &context);
        }
        for len in SWEEP_LENS {
            for raw_mode in 0..4 {
                let context = format!("sweep: len {len}, raw mode {raw_mode}, src 0.625");
                check(len, mode_from(raw_mode), 0.625, len as u64, &context);
            }
        }
    }

    #[test]
    fn copy_and_folds_bit_identical() {
        let check = |len: usize, k: usize, data_seed: u64, context: &str| {
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let sources: Vec<Vec<f32>> = (0..k).map(|_| data(&mut data_rng, len)).collect();
            let refs: Vec<&[f32]> = sources.iter().map(|v| v.as_slice()).collect();
            let dst0 = data(&mut data_rng, len);
            for target in targets() {
                for acc in [false, true] {
                    let mut want = dst0.clone();
                    Target::Level(SimdLevel::Scalar).fold(acc, &mut want, &refs);
                    let mut got = dst0.clone();
                    target.fold(acc, &mut got, &refs);
                    assert_bits_eq(&got, &want, target, context);
                }
                if let Target::Level(level) = target {
                    let mut got = dst0.clone();
                    copy_slice(level, &mut got, &sources[0]);
                    assert_bits_eq(&got, &sources[0], target, context);
                }
            }
        };
        let seed = 0xF01D;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let data_seed = rng.gen_range(0u64..1_000_000);
            let len = rng.gen_range(0usize..41);
            let k = rng.gen_range(1usize..5);
            let context =
                format!("seed {seed:#x}, case {case}: data seed {data_seed}, len {len}, k {k}");
            check(len, k, data_seed, &context);
        }
        for len in SWEEP_LENS {
            for k in 1..=4 {
                check(len, k, len as u64, &format!("sweep: len {len}, k {k}"));
            }
        }
    }

    /// One hoisted-fill case: the scalar oracle against every vector level.
    struct HoistedCase {
        len: usize,
        lo: usize,
        mode: BlendMode,
        tex_w: usize,
        u_row: AttrRow,
        ty: f32,
        data_seed: u64,
    }

    impl HoistedCase {
        fn check(&self, context: &str) {
            let mut data_rng = ChaCha8Rng::seed_from_u64(self.data_seed);
            let r0 = data(&mut data_rng, self.tex_w);
            let r1 = data(&mut data_rng, self.tex_w);
            let dst0 = data(&mut data_rng, self.len);
            let (lo, u_row, ty, mode) = (self.lo, self.u_row, self.ty, self.mode);
            let mut want = dst0.clone();
            fill_hoisted(
                SimdLevel::Scalar,
                &mut want,
                lo,
                u_row,
                &r0,
                &r1,
                ty,
                0.8,
                mode,
            );
            for target in targets() {
                let mut got = dst0.clone();
                target.fill(
                    &mut got,
                    lo,
                    mode,
                    |level, span| fill_hoisted(level, span, lo, u_row, &r0, &r1, ty, 0.8, mode),
                    || Hoisted::new(u_row, &r0, &r1, ty, 0.8),
                );
                assert_bits_eq(&got, &want, target, context);
            }
        }
    }

    #[test]
    fn fill_hoisted_bit_identical() {
        let seed = 0x4015;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let data_seed = rng.gen_range(0u64..1_000_000);
            let len = rng.gen_range(0usize..41);
            let lo = rng.gen_range(0usize..23);
            let raw_mode = rng.gen_range(0u8..4);
            let tex_w = rng.gen_range(1usize..35);
            let row_base = rng.gen_range(-0.4..1.4);
            let ddx = rng.gen_range(-0.06..0.06);
            let ty = rng.gen_range(0.0f32..1.0);
            let context = format!(
                "seed {seed:#x}, case {case}: data seed {data_seed}, len {len}, lo {lo}, \
                 raw mode {raw_mode}, tex_w {tex_w}, row_base {row_base}, ddx {ddx}, ty {ty}"
            );
            let u_row = AttrRow {
                row_base,
                ddx,
                ox: 0.25,
            };
            let mode = mode_from(raw_mode);
            HoistedCase {
                len,
                lo,
                mode,
                tex_w,
                u_row,
                ty,
                data_seed,
            }
            .check(&context);
        }
        // The sweep's coordinates run from below 0 to above 1 across the
        // span, so both clamps are hit too.
        let u_row = AttrRow {
            row_base: -0.3,
            ddx: 0.07,
            ox: 0.25,
        };
        for len in SWEEP_LENS {
            for lo in SWEEP_LOS {
                for raw_mode in 0..4 {
                    let context = format!("sweep: len {len}, lo {lo}, raw mode {raw_mode}");
                    let mode = mode_from(raw_mode);
                    let data_seed = len as u64;
                    HoistedCase {
                        len,
                        lo,
                        mode,
                        tex_w: 7,
                        u_row,
                        ty: 0.375,
                        data_seed,
                    }
                    .check(&context);
                }
            }
        }
    }

    #[test]
    fn fill_nearest_row_bit_identical() {
        let check = |len, lo, mode, tw, u_row, data_seed, context: &str| {
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let tex_row = data(&mut data_rng, tw);
            let dst0 = data(&mut data_rng, len);
            let mut want = dst0.clone();
            fill_nearest_row(SimdLevel::Scalar, &mut want, lo, u_row, &tex_row, 0.8, mode);
            for target in targets() {
                let mut got = dst0.clone();
                target.fill(
                    &mut got,
                    lo,
                    mode,
                    |level, span| fill_nearest_row(level, span, lo, u_row, &tex_row, 0.8, mode),
                    || NearestRow::new(u_row, &tex_row, 0.8),
                );
                assert_bits_eq(&got, &want, target, context);
            }
        };
        let seed = 0x2E42;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let data_seed = rng.gen_range(0u64..1_000_000);
            let len = rng.gen_range(0usize..41);
            let lo = rng.gen_range(0usize..23);
            let raw_mode = rng.gen_range(0u8..4);
            let tw = rng.gen_range(1usize..35);
            let row_base = rng.gen_range(-0.4..1.4);
            let ddx = rng.gen_range(-0.06..0.06);
            let context = format!(
                "seed {seed:#x}, case {case}: data seed {data_seed}, len {len}, lo {lo}, \
                 raw mode {raw_mode}, tw {tw}, row_base {row_base}, ddx {ddx}"
            );
            let u_row = AttrRow {
                row_base,
                ddx,
                ox: 0.25,
            };
            check(len, lo, mode_from(raw_mode), tw, u_row, data_seed, &context);
        }
        let u_row = AttrRow {
            row_base: -0.3,
            ddx: 0.07,
            ox: 0.25,
        };
        for len in SWEEP_LENS {
            for lo in SWEEP_LOS {
                for raw_mode in 0..4 {
                    let context = format!("sweep: len {len}, lo {lo}, raw mode {raw_mode}");
                    check(len, lo, mode_from(raw_mode), 7, u_row, len as u64, &context);
                }
            }
        }
    }

    /// A span fill over a whole texture, as [`fill_bilinear`] takes it, at
    /// a target.
    type Fill2d = fn(Target, &mut [f32], usize, AttrRow, AttrRow, &Texture, f32, BlendMode);

    /// One case of a 2-D span fill: the scalar oracle against every vector
    /// level, through the dispatcher.
    struct Fill2dCase {
        fill: Fill2d,
        len: usize,
        lo: usize,
        mode: BlendMode,
        tw: usize,
        th: usize,
        u_row: AttrRow,
        v_row: AttrRow,
        data_seed: u64,
    }

    impl Fill2dCase {
        fn check(&self, context: &str) {
            let mut data_rng = ChaCha8Rng::seed_from_u64(self.data_seed);
            let mut texture = Texture::new(self.tw, self.th);
            texture
                .data_mut()
                .copy_from_slice(&data(&mut data_rng, self.tw * self.th));
            let dst0 = data(&mut data_rng, self.len);
            let (lo, u_row, v_row, mode) = (self.lo, self.u_row, self.v_row, self.mode);
            let mut want = dst0.clone();
            let scalar = Target::Level(SimdLevel::Scalar);
            (self.fill)(scalar, &mut want, lo, u_row, v_row, &texture, 0.8, mode);
            for target in targets() {
                let mut got = dst0.clone();
                (self.fill)(target, &mut got, lo, u_row, v_row, &texture, 0.8, mode);
                assert_bits_eq(&got, &want, target, context);
            }
        }
    }

    /// 64 seeded random cases of `fill`, then the sweep: every length
    /// 0..=17 in every mode at both offsets, over a non-square, a
    /// 1-texel-wide and a 1-texel-high texture. The `u` and `v` rows leave
    /// `[0, 1]` on both sides, so every clamp takes both bounds.
    fn check_fill_2d(fill: Fill2d, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let data_seed = rng.gen_range(0u64..1_000_000);
            let len = rng.gen_range(0usize..41);
            let lo = rng.gen_range(0usize..23);
            let raw_mode = rng.gen_range(0u8..4);
            let tw = rng.gen_range(1usize..19);
            let th = rng.gen_range(1usize..19);
            let u_base = rng.gen_range(-0.4..1.4);
            let v_base = rng.gen_range(-0.4..1.4);
            let ddx = rng.gen_range(-0.06..0.06);
            let context = format!(
                "seed {seed:#x}, case {case}: data seed {data_seed}, len {len}, lo {lo}, \
                 raw mode {raw_mode}, tw {tw}, th {th}, u_base {u_base}, v_base {v_base}, ddx {ddx}"
            );
            let u_row = AttrRow {
                row_base: u_base,
                ddx,
                ox: 0.25,
            };
            let v_row = AttrRow {
                row_base: v_base,
                ddx: -ddx,
                ox: 0.25,
            };
            let mode = mode_from(raw_mode);
            Fill2dCase {
                fill,
                len,
                lo,
                mode,
                tw,
                th,
                u_row,
                v_row,
                data_seed,
            }
            .check(&context);
        }
        let u_row = AttrRow {
            row_base: -0.3,
            ddx: 0.07,
            ox: 0.25,
        };
        let v_row = AttrRow {
            row_base: 1.2,
            ddx: -0.07,
            ox: 0.25,
        };
        for (tw, th) in [(7, 5), (1, 9), (9, 1)] {
            for len in SWEEP_LENS {
                for lo in SWEEP_LOS {
                    for raw_mode in 0..4 {
                        let context =
                            format!("sweep: {tw}x{th}, len {len}, lo {lo}, raw mode {raw_mode}");
                        Fill2dCase {
                            fill,
                            len,
                            lo,
                            mode: mode_from(raw_mode),
                            tw,
                            th,
                            u_row,
                            v_row,
                            data_seed: len as u64,
                        }
                        .check(&context);
                    }
                }
            }
        }
    }

    #[test]
    fn fill_nearest_2d_bit_identical() {
        check_fill_2d(
            |target, span, lo, u_row, v_row, tex, intensity, blend| {
                let (texels, tw, th) = (tex.data(), tex.width(), tex.height());
                target.fill(
                    span,
                    lo,
                    blend,
                    |level, span| {
                        fill_nearest_2d(
                            level, span, lo, u_row, v_row, texels, tw, th, intensity, blend,
                        )
                    },
                    || Nearest2d::new(u_row, v_row, texels, tw, th, intensity),
                )
            },
            0x2D,
        );
    }

    /// Spans shorter than [`MIN_LANE_SPAN`] take the scalar fallback at
    /// every level, so the sweep's lengths 0-3 check the routing; the
    /// longer ones reach every 8 → 4 → tail handoff of the kernel. The
    /// `Emu` widths run the body on every length.
    #[test]
    fn fill_bilinear_bit_identical() {
        check_fill_2d(
            |target, span, lo, u_row, v_row, tex, intensity, blend| {
                target.fill(
                    span,
                    lo,
                    blend,
                    |level, span| {
                        fill_bilinear(level, span, lo, u_row, v_row, tex, intensity, blend)
                    },
                    || Bilinear2d::new(u_row, v_row, tex, intensity),
                )
            },
            0xB1,
        );
    }

    /// The folds' length contract holds at every level: a source longer or
    /// shorter than `dst`, in any position of 1–4 sources, panics in the
    /// tile blit and both folds, where a vector fold would fold a prefix.
    #[test]
    fn copy_slice_panics_on_a_length_mismatch_at_every_level() {
        type Fold = fn(SimdLevel, &mut [f32], &[&[f32]]);
        let folds: [(&str, Fold, usize); 3] = [
            (
                "copy_slice",
                |level, dst, srcs| copy_slice(level, dst, srcs[0]),
                1,
            ),
            ("fold_copy", fold_copy, 4),
            ("fold_acc", fold_acc, 4),
        ];
        let fitting = [1.0f32; 8];
        for level in test_levels() {
            for (name, fold, max_sources) in folds {
                for k in 1..=max_sources {
                    for (odd, len) in (0..k).flat_map(|i| [(i, 7), (i, 9)]) {
                        let mismatched = vec![1.0f32; len];
                        let srcs: Vec<&[f32]> = (0..k)
                            .map(|i| {
                                if i == odd {
                                    &mismatched[..]
                                } else {
                                    &fitting[..]
                                }
                            })
                            .collect();
                        let folded = std::panic::catch_unwind(|| fold(level, &mut [0.0; 8], &srcs));
                        assert!(
                            folded.is_err(),
                            "{}: {name} of {k} sources, source {odd} of {len} elements \
                             into 8, did not panic",
                            level.name()
                        );
                    }
                }
            }
        }
    }
}

/// Lane-exact stand-ins for the `core::arch::aarch64` intrinsics the NEON
/// impl uses, so that unit tests build and run it off aarch64. Each is an
/// `unsafe fn`, as calling the real ones outside `#[target_feature]` code
/// is, and computes what the instruction does under the default FPCR
/// (round to nearest-even, no flush to zero). Only the loads and stores
/// have a safety condition of their own.
#[cfg(all(test, not(target_arch = "aarch64")))]
#[allow(non_camel_case_types)]
mod neon_emu {
    #[derive(Clone, Copy)]
    pub(super) struct float32x4_t([f32; 4]);
    #[derive(Clone, Copy)]
    pub(super) struct float32x2_t([f32; 2]);
    #[derive(Clone, Copy)]
    pub(super) struct float64x2_t([f64; 2]);
    #[derive(Clone, Copy)]
    pub(super) struct int32x4_t([i32; 4]);
    #[derive(Clone, Copy)]
    pub(super) struct uint32x4_t([u32; 4]);

    /// LD1 of four `f32`, unaligned.
    ///
    /// # Safety
    /// `p` is valid for reading 4 `f32`.
    pub(super) unsafe fn vld1q_f32(p: *const f32) -> float32x4_t {
        float32x4_t(p.cast::<[f32; 4]>().read_unaligned())
    }
    /// LD1 of two `f64`, unaligned.
    ///
    /// # Safety
    /// `p` is valid for reading 2 `f64`.
    pub(super) unsafe fn vld1q_f64(p: *const f64) -> float64x2_t {
        float64x2_t(p.cast::<[f64; 2]>().read_unaligned())
    }
    /// ST1 of four `f32`, unaligned.
    ///
    /// # Safety
    /// `p` is valid for writing 4 `f32`.
    pub(super) unsafe fn vst1q_f32(p: *mut f32, v: float32x4_t) {
        p.cast::<[f32; 4]>().write_unaligned(v.0)
    }
    /// ST1 of four `i32`, unaligned.
    ///
    /// # Safety
    /// `p` is valid for writing 4 `i32`.
    pub(super) unsafe fn vst1q_s32(p: *mut i32, v: int32x4_t) {
        p.cast::<[i32; 4]>().write_unaligned(v.0)
    }
    pub(super) unsafe fn vdupq_n_f32(x: f32) -> float32x4_t {
        float32x4_t([x; 4])
    }
    pub(super) unsafe fn vdupq_n_f64(x: f64) -> float64x2_t {
        float64x2_t([x; 2])
    }
    pub(super) unsafe fn vaddq_f32(a: float32x4_t, b: float32x4_t) -> float32x4_t {
        float32x4_t([0, 1, 2, 3].map(|k| a.0[k] + b.0[k]))
    }
    pub(super) unsafe fn vsubq_f32(a: float32x4_t, b: float32x4_t) -> float32x4_t {
        float32x4_t([0, 1, 2, 3].map(|k| a.0[k] - b.0[k]))
    }
    pub(super) unsafe fn vmulq_f32(a: float32x4_t, b: float32x4_t) -> float32x4_t {
        float32x4_t([0, 1, 2, 3].map(|k| a.0[k] * b.0[k]))
    }
    pub(super) unsafe fn vaddq_f64(a: float64x2_t, b: float64x2_t) -> float64x2_t {
        float64x2_t([a.0[0] + b.0[0], a.0[1] + b.0[1]])
    }
    pub(super) unsafe fn vsubq_f64(a: float64x2_t, b: float64x2_t) -> float64x2_t {
        float64x2_t([a.0[0] - b.0[0], a.0[1] - b.0[1]])
    }
    pub(super) unsafe fn vmulq_f64(a: float64x2_t, b: float64x2_t) -> float64x2_t {
        float64x2_t([a.0[0] * b.0[0], a.0[1] * b.0[1]])
    }
    /// FCMGT: all ones where `a > b`, so false on NaN.
    pub(super) unsafe fn vcgtq_f32(a: float32x4_t, b: float32x4_t) -> uint32x4_t {
        uint32x4_t([0, 1, 2, 3].map(|k| if a.0[k] > b.0[k] { u32::MAX } else { 0 }))
    }
    /// FCMGT with the operands swapped: all ones where `a < b`, so false
    /// on NaN.
    pub(super) unsafe fn vcltq_f32(a: float32x4_t, b: float32x4_t) -> uint32x4_t {
        uint32x4_t([0, 1, 2, 3].map(|k| if a.0[k] < b.0[k] { u32::MAX } else { 0 }))
    }
    /// BSL: each bit from `b` where `mask` has it set, else from `c`.
    pub(super) unsafe fn vbslq_f32(
        mask: uint32x4_t,
        b: float32x4_t,
        c: float32x4_t,
    ) -> float32x4_t {
        float32x4_t([0, 1, 2, 3].map(|k| {
            let m = mask.0[k];
            f32::from_bits((b.0[k].to_bits() & m) | (c.0[k].to_bits() & !m))
        }))
    }
    /// FCVTZS: toward zero, saturating, NaN to 0 — exactly `as i32`.
    pub(super) unsafe fn vcvtq_s32_f32(v: float32x4_t) -> int32x4_t {
        int32x4_t(v.0.map(|x| x as i32))
    }
    /// SCVTF: rounds to nearest-even, exactly `as f32`.
    pub(super) unsafe fn vcvtq_f32_s32(v: int32x4_t) -> float32x4_t {
        float32x4_t(v.0.map(|x| x as f32))
    }
    /// FCVTN: narrows rounding to nearest-even, exactly `as f32`.
    pub(super) unsafe fn vcvt_f32_f64(v: float64x2_t) -> float32x2_t {
        float32x2_t(v.0.map(|x| x as f32))
    }
    pub(super) unsafe fn vcombine_f32(lo: float32x2_t, hi: float32x2_t) -> float32x4_t {
        float32x4_t([lo.0[0], lo.0[1], hi.0[0], hi.0[1]])
    }
}
