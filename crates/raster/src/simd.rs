//! Explicit SIMD kernels behind runtime dispatch.
//!
//! The span fills, blend sweeps and gather folds are the fragment-bound inner
//! loops of the software pipe. Until now they relied on the autovectorizer;
//! this module gives them explicit `core::arch` kernels — SSE2 (the x86_64
//! baseline) and AVX2 on x86_64, NEON on aarch64 — selected once per process
//! by runtime feature detection, with the previous scalar code retained as
//! the portable fallback and correctness oracle.
//!
//! The kernels:
//!
//! * span fills — hoisted bilinear (`fill_hoisted`), row-constant and 2-D
//!   nearest (`fill_nearest_row`, `fill_nearest_2d`);
//! * blend sweeps — per-block and uniform (`blend_block`,
//!   `blend_uniform`);
//! * gather folds and the tile blit (`fold_copy`, `fold_acc`,
//!   `copy_slice`).
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
//!   narrowed to `f32` (`cvtpd→ps` rounds to nearest-even, same as an `as`
//!   cast).
//! * `Max` blending is the explicit compare-select `if src > dst { src }
//!   else { dst }` in both the scalar path ([`BlendMode::apply`]) and the
//!   vector kernels (`cmpgt` + select). `f32::max`/`maxps` could not be used:
//!   their signed-zero tie results disagree with each other *and* between
//!   build profiles, while the compare-select keeps `dst` on every tie,
//!   everywhere.
//!
//! The seeded property tests at the bottom pin every kernel to its scalar
//! twin bit-for-bit over random lengths (including sub-lane tails), blend
//! modes and slice offsets, at every level the host can run.
//!
//! # Dispatch
//!
//! [`active`] resolves once per process: the `SPOTNOISE_SIMD` environment
//! variable (`off`/`scalar`/`sse2`/`avx2`/`neon`) overrides detection when it
//! names a level the host supports; otherwise the best detected level wins.
//! [`force`] is a process-global test/bench hook that takes precedence over
//! both — safe to flip mid-run precisely because all levels produce identical
//! bits.

use crate::blend::BlendMode;
use crate::raster::{fill_lane_blocked, nearest_index, AttrRow};
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
    pub fn from_name(name: &str) -> Option<SimdLevel> {
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
            assert!(
                available().contains(&level),
                "SIMD level {} is not available on this host (detected: {})",
                level.name(),
                detected().name()
            );
            FORCED.store(level as u8, Ordering::Relaxed);
        }
    }
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
// match runs per row fill or per chunk, not per texel). Arms for the other
// architecture fall through to scalar; they are unreachable in practice
// because `available()` never offers them.
// ---------------------------------------------------------------------------

/// [`BlendMode::apply_block`] at a dispatch level: blends `src` into `dst`
/// element-wise.
pub(crate) fn blend_block(level: SimdLevel, mode: BlendMode, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    match level {
        SimdLevel::Scalar => mode.apply_block(dst, src),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::blend_block_sse2(mode, dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::blend_block_avx2(mode, dst, src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::blend_block_neon(mode, dst, src) },
        #[allow(unreachable_patterns)]
        _ => mode.apply_block(dst, src),
    }
}

/// [`BlendMode::apply_uniform`] at a dispatch level: blends one value across
/// `dst` (the uniform-row fast path of disc/flat spot fills).
pub(crate) fn blend_uniform(level: SimdLevel, mode: BlendMode, dst: &mut [f32], src: f32) {
    match level {
        SimdLevel::Scalar => mode.apply_uniform(dst, src),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::blend_uniform_sse2(mode, dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::blend_uniform_avx2(mode, dst, src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::blend_uniform_neon(mode, dst, src) },
        #[allow(unreachable_patterns)]
        _ => mode.apply_uniform(dst, src),
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
    match level {
        SimdLevel::Scalar => {
            scalar_fill_hoisted(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            x86::fill_hoisted_sse2(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            x86::fill_hoisted_avx2(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe {
            neon::fill_hoisted_neon(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        },
        #[allow(unreachable_patterns)]
        _ => scalar_fill_hoisted(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend),
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
    match level {
        SimdLevel::Scalar => scalar_fill_nearest_row(span, lo, u_row, tex_row, intensity, blend),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            x86::fill_nearest_row_sse2(span, lo, u_row, tex_row, intensity, blend)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            x86::fill_nearest_row_avx2(span, lo, u_row, tex_row, intensity, blend)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe {
            neon::fill_nearest_row_neon(span, lo, u_row, tex_row, intensity, blend)
        },
        #[allow(unreachable_patterns)]
        _ => scalar_fill_nearest_row(span, lo, u_row, tex_row, intensity, blend),
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
    match level {
        SimdLevel::Scalar => {
            scalar_fill_nearest_2d(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            x86::fill_nearest_2d_sse2(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            x86::fill_nearest_2d_avx2(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe {
            neon::fill_nearest_2d_neon(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[allow(unreachable_patterns)]
        _ => scalar_fill_nearest_2d(span, lo, u_row, v_row, texels, tw, th, intensity, blend),
    }
}

/// Gather-fold kernel, copy flavour: `dst = s0 + s1 + …` with the sequential
/// fold's left association. `srcs` holds 1–4 equal-length slices.
pub(crate) fn fold_copy(level: SimdLevel, dst: &mut [f32], srcs: &[&[f32]]) {
    debug_assert!((1..=4).contains(&srcs.len()));
    match level {
        SimdLevel::Scalar => scalar_fold_copy(dst, srcs),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::fold_copy_sse2(dst, srcs) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::fold_copy_avx2(dst, srcs) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::fold_copy_neon(dst, srcs) },
        #[allow(unreachable_patterns)]
        _ => scalar_fold_copy(dst, srcs),
    }
}

/// Gather-fold kernel, accumulate flavour: `dst = ((dst + s0) + s1) + …`.
pub(crate) fn fold_acc(level: SimdLevel, dst: &mut [f32], srcs: &[&[f32]]) {
    debug_assert!((1..=4).contains(&srcs.len()));
    match level {
        SimdLevel::Scalar => scalar_fold_acc(dst, srcs),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::fold_acc_sse2(dst, srcs) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::fold_acc_avx2(dst, srcs) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::fold_acc_neon(dst, srcs) },
        #[allow(unreachable_patterns)]
        _ => scalar_fold_acc(dst, srcs),
    }
}

/// Straight copy (the compose tile blit and the single-source copy fold):
/// explicit vector moves at SIMD levels, `copy_from_slice` on scalar.
pub(crate) fn copy_slice(level: SimdLevel, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    match level {
        SimdLevel::Scalar => dst.copy_from_slice(src),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::copy_slice_sse2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::copy_slice_avx2(dst, src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::copy_slice_neon(dst, src) },
        #[allow(unreachable_patterns)]
        _ => dst.copy_from_slice(src),
    }
}

// ---------------------------------------------------------------------------
// Scalar fallbacks: exactly the pre-SIMD code (the sample closures formerly
// inlined in `fill_span_with` / `rasterize_setup_footprint_at`, driven
// through the shared lane-block loop). These are the oracle every vector
// kernel is pinned against.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
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
    fill_lane_blocked(span, lo, SimdLevel::Scalar, blend, sample_at);
}

fn scalar_fill_nearest_row(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row: &[f32],
    intensity: f32,
    blend: BlendMode,
) {
    let tw = tex_row.len();
    fill_lane_blocked(span, lo, SimdLevel::Scalar, blend, |px| {
        tex_row[nearest_index(u_row.at(px) as f32, tw)] * intensity
    });
}

#[allow(clippy::too_many_arguments)]
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
    fill_lane_blocked(span, lo, SimdLevel::Scalar, blend, |px| {
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
// x86_64 kernels: SSE2 (baseline, 4 lanes) and AVX2 (detected, 8 lanes).
//
// All functions carry `#[target_feature]`, so calls are `unsafe`; the safety
// contract is feature availability, which the dispatcher guarantees (SSE2 is
// part of the x86_64 baseline; AVX2 arms are only reachable when
// `is_x86_feature_detected!("avx2")` held at resolution or `force` validated
// the level against it).
// ---------------------------------------------------------------------------
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::blend::BlendMode;
    use crate::raster::{nearest_index, AttrRow};
    use crate::texture::floor_index;
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load4(s: &[f32], i: usize) -> __m128 {
        debug_assert!(i + 4 <= s.len());
        unsafe { _mm_loadu_ps(s.as_ptr().add(i)) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store4(s: &mut [f32], i: usize, v: __m128) {
        debug_assert!(i + 4 <= s.len());
        unsafe { _mm_storeu_ps(s.as_mut_ptr().add(i), v) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes_i32(v: __m128i) -> [i32; 4] {
        unsafe { core::mem::transmute(v) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn from_lanes(a: [f32; 4]) -> __m128 {
        unsafe { core::mem::transmute(a) }
    }

    /// The Max blend lane-wise: `if s > d { s } else { d }`, the exact
    /// compare-select [`BlendMode::apply`] uses (deterministic on signed-zero
    /// ties, unlike `maxps`, which returns its second operand on equal
    /// inputs).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn max4(d: __m128, s: __m128) -> __m128 {
        let take_s = _mm_cmpgt_ps(s, d);
        _mm_or_ps(_mm_and_ps(take_s, s), _mm_andnot_ps(take_s, d))
    }

    /// `v.clamp(lo, hi)` lane-wise (`min(max(v, lo), hi)`); matches the
    /// scalar clamp for every value the fills produce (no NaN, and the
    /// pre-clamp value is never `-0.0` because `x - 0.5` cannot produce it).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn clamp4(v: __m128, lo: __m128, hi: __m128) -> __m128 {
        _mm_min_ps(_mm_max_ps(v, lo), hi)
    }

    /// The affine row form at 4 consecutive pixel centres, evaluated in
    /// `f64` with the scalar operation order and narrowed to `f32`
    /// (`cvtpd2ps` rounds to nearest-even, exactly like `as f32`).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn u4(px: usize, row_base: __m128d, ddx: __m128d, ox: __m128d) -> __m128 {
        let c01 = _mm_set_pd((px + 1) as f64 + 0.5, px as f64 + 0.5);
        let c23 = _mm_set_pd((px + 3) as f64 + 0.5, (px + 2) as f64 + 0.5);
        let u01 = _mm_add_pd(_mm_mul_pd(_mm_sub_pd(c01, ox), ddx), row_base);
        let u23 = _mm_add_pd(_mm_mul_pd(_mm_sub_pd(c23, ox), ddx), row_base);
        _mm_movelh_ps(_mm_cvtpd_ps(u01), _mm_cvtpd_ps(u23))
    }

    /// Blends a 4-lane sample block into `span[i..i+4]`. `va`/`vb` are the
    /// splatted alpha/(1-alpha) coefficients (only read in the Alpha arm).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn blend4(
        blend: BlendMode,
        span: &mut [f32],
        i: usize,
        sample: __m128,
        va: __m128,
        vb: __m128,
    ) {
        match blend {
            BlendMode::Replace => store4(span, i, sample),
            BlendMode::Additive => store4(span, i, _mm_add_ps(load4(span, i), sample)),
            BlendMode::Max => store4(span, i, max4(load4(span, i), sample)),
            BlendMode::Alpha(_) => {
                let d = load4(span, i);
                store4(
                    span,
                    i,
                    _mm_add_ps(_mm_mul_ps(sample, va), _mm_mul_ps(d, vb)),
                );
            }
        }
    }

    /// Splatted alpha coefficients for the Alpha arm (zeros otherwise).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn alpha4(blend: BlendMode) -> (__m128, __m128) {
        match blend {
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                (_mm_set1_ps(alpha), _mm_set1_ps(1.0 - alpha))
            }
            _ => (_mm_setzero_ps(), _mm_setzero_ps()),
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn blend_block_sse2(mode: BlendMode, dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 4;
        match mode {
            BlendMode::Replace => dst.copy_from_slice(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, _mm_add_ps(load4(dst, i), load4(src, i)));
                    i += 4;
                }
                for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                    *d += *s;
                }
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, max4(load4(dst, i), load4(src, i)));
                    i += 4;
                }
                for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                    *d = if *s > *d { *s } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = _mm_set1_ps(alpha);
                let vb = _mm_set1_ps(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended =
                        _mm_add_ps(_mm_mul_ps(load4(src, i), va), _mm_mul_ps(load4(dst, i), vb));
                    store4(dst, i, blended);
                    i += 4;
                }
                for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                    *d = *s * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn blend_uniform_sse2(mode: BlendMode, dst: &mut [f32], src: f32) {
        let n = dst.len() - dst.len() % 4;
        let vs = _mm_set1_ps(src);
        match mode {
            BlendMode::Replace => dst.fill(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, _mm_add_ps(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d += src;
                }
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, max4(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = if src > *d { src } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = _mm_set1_ps(alpha);
                let vb = _mm_set1_ps(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended = _mm_add_ps(_mm_mul_ps(vs, va), _mm_mul_ps(load4(dst, i), vb));
                    store4(dst, i, blended);
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = src * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn copy_slice_sse2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 4;
        let mut i = 0;
        while i < n {
            store4(dst, i, load4(src, i));
            i += 4;
        }
        dst[n..].copy_from_slice(&src[n..]);
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn fold_copy_sse2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => copy_slice_sse2(dst, a),
            [a, b] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, _mm_add_ps(load4(a, i), load4(b, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = a[i] + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(_mm_add_ps(load4(a, i), load4(b, i)), load4(c, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (a[i] + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(
                        _mm_add_ps(_mm_add_ps(load4(a, i), load4(b, i)), load4(c, i)),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((a[i] + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_copy takes 1-4 sources"),
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn fold_acc_sse2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, _mm_add_ps(load4(dst, i), load4(a, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d += a[i];
                }
            }
            [a, b] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(_mm_add_ps(load4(dst, i), load4(a, i)), load4(b, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (*d + a[i]) + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(
                        _mm_add_ps(_mm_add_ps(load4(dst, i), load4(a, i)), load4(b, i)),
                        load4(c, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((*d + a[i]) + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(
                        _mm_add_ps(
                            _mm_add_ps(_mm_add_ps(load4(dst, i), load4(a, i)), load4(b, i)),
                            load4(c, i),
                        ),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (((*d + a[i]) + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_acc takes 1-4 sources"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) fn fill_hoisted_sse2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        r0: &[f32],
        r1: &[f32],
        ty: f32,
        intensity: f32,
        blend: BlendMode,
    ) {
        let tex_w = r0.len();
        let rb = _mm_set1_pd(u_row.row_base);
        let ddx = _mm_set1_pd(u_row.ddx);
        let ox = _mm_set1_pd(u_row.ox);
        let vw = _mm_set1_ps(tex_w as f32);
        let vhalf = _mm_set1_ps(0.5);
        let vzero = _mm_setzero_ps();
        let vhi = _mm_set1_ps(tex_w as f32 - 1.0);
        let vone = _mm_set1_ps(1.0);
        let vty = _mm_set1_ps(ty);
        let vint = _mm_set1_ps(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let u = u4(lo + i, rb, ddx, ox);
            let fx = clamp4(_mm_sub_ps(_mm_mul_ps(u, vw), vhalf), vzero, vhi);
            let tx0i = _mm_cvttps_epi32(fx);
            let tx0f = _mm_cvtepi32_ps(tx0i);
            let tx = _mm_sub_ps(fx, tx0f);
            let tx1f = _mm_min_ps(_mm_add_ps(tx0f, vone), vhi);
            let tx1i = _mm_cvttps_epi32(tx1f);
            let i0 = lanes_i32(tx0i);
            let i1 = lanes_i32(tx1i);
            let a = from_lanes([
                r0[i0[0] as usize],
                r0[i0[1] as usize],
                r0[i0[2] as usize],
                r0[i0[3] as usize],
            ]);
            let b = from_lanes([
                r0[i1[0] as usize],
                r0[i1[1] as usize],
                r0[i1[2] as usize],
                r0[i1[3] as usize],
            ]);
            let c = from_lanes([
                r1[i0[0] as usize],
                r1[i0[1] as usize],
                r1[i0[2] as usize],
                r1[i0[3] as usize],
            ]);
            let d = from_lanes([
                r1[i1[0] as usize],
                r1[i1[1] as usize],
                r1[i1[2] as usize],
                r1[i1[3] as usize],
            ]);
            let bottom = _mm_add_ps(a, _mm_mul_ps(_mm_sub_ps(b, a), tx));
            let top = _mm_add_ps(c, _mm_mul_ps(_mm_sub_ps(d, c), tx));
            let lerped = _mm_add_ps(bottom, _mm_mul_ps(_mm_sub_ps(top, bottom), vty));
            blend4(blend, span, i, _mm_mul_ps(lerped, vint), va, vb);
            i += 4;
        }
        for (offset, dst) in span[n..].iter_mut().enumerate() {
            let px = lo + n + offset;
            let u = u_row.at(px) as f32;
            let fx = (u * tex_w as f32 - 0.5).clamp(0.0, tex_w as f32 - 1.0);
            let tx0 = floor_index(fx);
            let tx1 = (tx0 + 1).min(tex_w - 1);
            let tx = fx - tx0 as f32;
            let a = r0[tx0];
            let b = r0[tx1];
            let c = r1[tx0];
            let d = r1[tx1];
            let bottom = a + (b - a) * tx;
            let top = c + (d - c) * tx;
            let sample = (bottom + (top - bottom) * ty) * intensity;
            *dst = blend.apply(*dst, sample);
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn fill_nearest_row_sse2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        tex_row: &[f32],
        intensity: f32,
        blend: BlendMode,
    ) {
        let tw = tex_row.len();
        let rb = _mm_set1_pd(u_row.row_base);
        let ddx = _mm_set1_pd(u_row.ddx);
        let ox = _mm_set1_pd(u_row.ox);
        let vw = _mm_set1_ps(tw as f32);
        let vzero = _mm_setzero_ps();
        let vhi = _mm_set1_ps(tw as f32 - 1.0);
        let vint = _mm_set1_ps(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let u = u4(lo + i, rb, ddx, ox);
            let t = clamp4(_mm_mul_ps(u, vw), vzero, vhi);
            let ti = lanes_i32(_mm_cvttps_epi32(t));
            let fetched = from_lanes([
                tex_row[ti[0] as usize],
                tex_row[ti[1] as usize],
                tex_row[ti[2] as usize],
                tex_row[ti[3] as usize],
            ]);
            blend4(blend, span, i, _mm_mul_ps(fetched, vint), va, vb);
            i += 4;
        }
        for (offset, dst) in span[n..].iter_mut().enumerate() {
            let px = lo + n + offset;
            let sample = tex_row[nearest_index(u_row.at(px) as f32, tw)] * intensity;
            *dst = blend.apply(*dst, sample);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) fn fill_nearest_2d_sse2(
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
        let u_rb = _mm_set1_pd(u_row.row_base);
        let u_ddx = _mm_set1_pd(u_row.ddx);
        let u_ox = _mm_set1_pd(u_row.ox);
        let v_rb = _mm_set1_pd(v_row.row_base);
        let v_ddx = _mm_set1_pd(v_row.ddx);
        let v_ox = _mm_set1_pd(v_row.ox);
        let vww = _mm_set1_ps(tw as f32);
        let vwh = _mm_set1_ps(th as f32);
        let vzero = _mm_setzero_ps();
        let vxhi = _mm_set1_ps(tw as f32 - 1.0);
        let vyhi = _mm_set1_ps(th as f32 - 1.0);
        let vint = _mm_set1_ps(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let px = lo + i;
            let u = u4(px, u_rb, u_ddx, u_ox);
            let v = u4(px, v_rb, v_ddx, v_ox);
            let tu = clamp4(_mm_mul_ps(u, vww), vzero, vxhi);
            let tv = clamp4(_mm_mul_ps(v, vwh), vzero, vyhi);
            let xi = lanes_i32(_mm_cvttps_epi32(tu));
            let yi = lanes_i32(_mm_cvttps_epi32(tv));
            let fetched = from_lanes([
                texels[yi[0] as usize * tw + xi[0] as usize],
                texels[yi[1] as usize * tw + xi[1] as usize],
                texels[yi[2] as usize * tw + xi[2] as usize],
                texels[yi[3] as usize * tw + xi[3] as usize],
            ]);
            blend4(blend, span, i, _mm_mul_ps(fetched, vint), va, vb);
            i += 4;
        }
        for (offset, dst) in span[n..].iter_mut().enumerate() {
            let px = lo + n + offset;
            let tx = nearest_index(u_row.at(px) as f32, tw);
            let ty = nearest_index(v_row.at(px) as f32, th);
            let sample = texels[ty * tw + tx] * intensity;
            *dst = blend.apply(*dst, sample);
        }
    }

    // -- AVX2: 8-lane versions of the same kernels, with hardware gathers. --

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load8(s: &[f32], i: usize) -> __m256 {
        debug_assert!(i + 8 <= s.len());
        unsafe { _mm256_loadu_ps(s.as_ptr().add(i)) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store8(s: &mut [f32], i: usize, v: __m256) {
        debug_assert!(i + 8 <= s.len());
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(i), v) }
    }

    /// Hardware gather of 8 texels; every index must be in bounds (the
    /// callers clamp to `[0, len)` first).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gather8(s: &[f32], idx: __m256i) -> __m256 {
        unsafe { _mm256_i32gather_ps::<4>(s.as_ptr(), idx) }
    }

    /// 8-lane twin of [`max4`] (same compare-select semantics).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn max8(d: __m256, s: __m256) -> __m256 {
        let take_s = _mm256_cmp_ps::<_CMP_GT_OQ>(s, d);
        _mm256_blendv_ps(d, s, take_s)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn clamp8(v: __m256, lo: __m256, hi: __m256) -> __m256 {
        _mm256_min_ps(_mm256_max_ps(v, lo), hi)
    }

    /// 8-lane twin of [`u4`]: two 4-wide `f64` evaluations narrowed and
    /// concatenated.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn u8v(px: usize, row_base: __m256d, ddx: __m256d, ox: __m256d) -> __m256 {
        let c_lo = _mm256_set_pd(
            (px + 3) as f64 + 0.5,
            (px + 2) as f64 + 0.5,
            (px + 1) as f64 + 0.5,
            px as f64 + 0.5,
        );
        let c_hi = _mm256_set_pd(
            (px + 7) as f64 + 0.5,
            (px + 6) as f64 + 0.5,
            (px + 5) as f64 + 0.5,
            (px + 4) as f64 + 0.5,
        );
        let lo = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(_mm256_sub_pd(c_lo, ox), ddx),
            row_base,
        ));
        let hi = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(_mm256_sub_pd(c_hi, ox), ddx),
            row_base,
        ));
        _mm256_set_m128(hi, lo)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn blend8(
        blend: BlendMode,
        span: &mut [f32],
        i: usize,
        sample: __m256,
        va: __m256,
        vb: __m256,
    ) {
        match blend {
            BlendMode::Replace => store8(span, i, sample),
            BlendMode::Additive => store8(span, i, _mm256_add_ps(load8(span, i), sample)),
            BlendMode::Max => store8(span, i, max8(load8(span, i), sample)),
            BlendMode::Alpha(_) => {
                let d = load8(span, i);
                store8(
                    span,
                    i,
                    _mm256_add_ps(_mm256_mul_ps(sample, va), _mm256_mul_ps(d, vb)),
                );
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn alpha8(blend: BlendMode) -> (__m256, __m256) {
        match blend {
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                (_mm256_set1_ps(alpha), _mm256_set1_ps(1.0 - alpha))
            }
            _ => (_mm256_setzero_ps(), _mm256_setzero_ps()),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn blend_block_avx2(mode: BlendMode, dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 8;
        match mode {
            BlendMode::Replace => dst.copy_from_slice(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, _mm256_add_ps(load8(dst, i), load8(src, i)));
                    i += 8;
                }
                blend_block_sse2(mode, &mut dst[n..], &src[n..]);
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, max8(load8(dst, i), load8(src, i)));
                    i += 8;
                }
                blend_block_sse2(mode, &mut dst[n..], &src[n..]);
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = _mm256_set1_ps(alpha);
                let vb = _mm256_set1_ps(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended = _mm256_add_ps(
                        _mm256_mul_ps(load8(src, i), va),
                        _mm256_mul_ps(load8(dst, i), vb),
                    );
                    store8(dst, i, blended);
                    i += 8;
                }
                blend_block_sse2(mode, &mut dst[n..], &src[n..]);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn blend_uniform_avx2(mode: BlendMode, dst: &mut [f32], src: f32) {
        let n = dst.len() - dst.len() % 8;
        let vs = _mm256_set1_ps(src);
        match mode {
            BlendMode::Replace => dst.fill(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, _mm256_add_ps(load8(dst, i), vs));
                    i += 8;
                }
                blend_uniform_sse2(mode, &mut dst[n..], src);
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, max8(load8(dst, i), vs));
                    i += 8;
                }
                blend_uniform_sse2(mode, &mut dst[n..], src);
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = _mm256_set1_ps(alpha);
                let vb = _mm256_set1_ps(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended =
                        _mm256_add_ps(_mm256_mul_ps(vs, va), _mm256_mul_ps(load8(dst, i), vb));
                    store8(dst, i, blended);
                    i += 8;
                }
                blend_uniform_sse2(mode, &mut dst[n..], src);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn copy_slice_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 8;
        let mut i = 0;
        while i < n {
            store8(dst, i, load8(src, i));
            i += 8;
        }
        dst[n..].copy_from_slice(&src[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fold_copy_avx2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 8;
        match *srcs {
            [a] => copy_slice_avx2(dst, a),
            [a, b] => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, _mm256_add_ps(load8(a, i), load8(b, i)));
                    i += 8;
                }
                fold_copy_sse2(&mut dst[n..], &[&a[n..], &b[n..]]);
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(_mm256_add_ps(load8(a, i), load8(b, i)), load8(c, i));
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_copy_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..]]);
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(
                        _mm256_add_ps(_mm256_add_ps(load8(a, i), load8(b, i)), load8(c, i)),
                        load8(e, i),
                    );
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_copy_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..], &e[n..]]);
            }
            _ => unreachable!("fold_copy takes 1-4 sources"),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fold_acc_avx2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 8;
        match *srcs {
            [a] => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, _mm256_add_ps(load8(dst, i), load8(a, i)));
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..]]);
            }
            [a, b] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(_mm256_add_ps(load8(dst, i), load8(a, i)), load8(b, i));
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..], &b[n..]]);
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(
                        _mm256_add_ps(_mm256_add_ps(load8(dst, i), load8(a, i)), load8(b, i)),
                        load8(c, i),
                    );
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..]]);
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(
                        _mm256_add_ps(
                            _mm256_add_ps(_mm256_add_ps(load8(dst, i), load8(a, i)), load8(b, i)),
                            load8(c, i),
                        ),
                        load8(e, i),
                    );
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..], &e[n..]]);
            }
            _ => unreachable!("fold_acc takes 1-4 sources"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_hoisted_avx2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        r0: &[f32],
        r1: &[f32],
        ty: f32,
        intensity: f32,
        blend: BlendMode,
    ) {
        let tex_w = r0.len();
        let rb = _mm256_set1_pd(u_row.row_base);
        let ddx = _mm256_set1_pd(u_row.ddx);
        let ox = _mm256_set1_pd(u_row.ox);
        let vw = _mm256_set1_ps(tex_w as f32);
        let vhalf = _mm256_set1_ps(0.5);
        let vzero = _mm256_setzero_ps();
        let vhi = _mm256_set1_ps(tex_w as f32 - 1.0);
        let vone = _mm256_set1_ps(1.0);
        let vty = _mm256_set1_ps(ty);
        let vint = _mm256_set1_ps(intensity);
        let (va, vb) = alpha8(blend);
        let n = span.len() - span.len() % 8;
        let mut i = 0;
        while i < n {
            let u = u8v(lo + i, rb, ddx, ox);
            let fx = clamp8(_mm256_sub_ps(_mm256_mul_ps(u, vw), vhalf), vzero, vhi);
            let tx0i = _mm256_cvttps_epi32(fx);
            let tx0f = _mm256_cvtepi32_ps(tx0i);
            let tx = _mm256_sub_ps(fx, tx0f);
            let tx1f = _mm256_min_ps(_mm256_add_ps(tx0f, vone), vhi);
            let tx1i = _mm256_cvttps_epi32(tx1f);
            let a = gather8(r0, tx0i);
            let b = gather8(r0, tx1i);
            let c = gather8(r1, tx0i);
            let d = gather8(r1, tx1i);
            let bottom = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), tx));
            let top = _mm256_add_ps(c, _mm256_mul_ps(_mm256_sub_ps(d, c), tx));
            let lerped = _mm256_add_ps(bottom, _mm256_mul_ps(_mm256_sub_ps(top, bottom), vty));
            blend8(blend, span, i, _mm256_mul_ps(lerped, vint), va, vb);
            i += 8;
        }
        fill_hoisted_sse2(&mut span[n..], lo + n, u_row, r0, r1, ty, intensity, blend);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fill_nearest_row_avx2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        tex_row: &[f32],
        intensity: f32,
        blend: BlendMode,
    ) {
        let tw = tex_row.len();
        let rb = _mm256_set1_pd(u_row.row_base);
        let ddx = _mm256_set1_pd(u_row.ddx);
        let ox = _mm256_set1_pd(u_row.ox);
        let vw = _mm256_set1_ps(tw as f32);
        let vzero = _mm256_setzero_ps();
        let vhi = _mm256_set1_ps(tw as f32 - 1.0);
        let vint = _mm256_set1_ps(intensity);
        let (va, vb) = alpha8(blend);
        let n = span.len() - span.len() % 8;
        let mut i = 0;
        while i < n {
            let u = u8v(lo + i, rb, ddx, ox);
            let t = clamp8(_mm256_mul_ps(u, vw), vzero, vhi);
            let fetched = gather8(tex_row, _mm256_cvttps_epi32(t));
            blend8(blend, span, i, _mm256_mul_ps(fetched, vint), va, vb);
            i += 8;
        }
        fill_nearest_row_sse2(&mut span[n..], lo + n, u_row, tex_row, intensity, blend);
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_nearest_2d_avx2(
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
        let u_rb = _mm256_set1_pd(u_row.row_base);
        let u_ddx = _mm256_set1_pd(u_row.ddx);
        let u_ox = _mm256_set1_pd(u_row.ox);
        let v_rb = _mm256_set1_pd(v_row.row_base);
        let v_ddx = _mm256_set1_pd(v_row.ddx);
        let v_ox = _mm256_set1_pd(v_row.ox);
        let vww = _mm256_set1_ps(tw as f32);
        let vwh = _mm256_set1_ps(th as f32);
        let vzero = _mm256_setzero_ps();
        let vxhi = _mm256_set1_ps(tw as f32 - 1.0);
        let vyhi = _mm256_set1_ps(th as f32 - 1.0);
        let vtw = _mm256_set1_epi32(tw as i32);
        let vint = _mm256_set1_ps(intensity);
        let (va, vb) = alpha8(blend);
        let n = span.len() - span.len() % 8;
        let mut i = 0;
        while i < n {
            let px = lo + i;
            let u = u8v(px, u_rb, u_ddx, u_ox);
            let v = u8v(px, v_rb, v_ddx, v_ox);
            let tu = clamp8(_mm256_mul_ps(u, vww), vzero, vxhi);
            let tv = clamp8(_mm256_mul_ps(v, vwh), vzero, vyhi);
            let xi = _mm256_cvttps_epi32(tu);
            let yi = _mm256_cvttps_epi32(tv);
            let idx = _mm256_add_epi32(_mm256_mullo_epi32(yi, vtw), xi);
            let fetched = gather8(texels, idx);
            blend8(blend, span, i, _mm256_mul_ps(fetched, vint), va, vb);
            i += 8;
        }
        fill_nearest_2d_sse2(
            &mut span[n..],
            lo + n,
            u_row,
            v_row,
            texels,
            tw,
            th,
            intensity,
            blend,
        );
    }
}

// ---------------------------------------------------------------------------
// aarch64 kernels: NEON (part of the aarch64 baseline), 4 lanes of f32 with
// the texture-coordinate evaluation done on 2-lane f64 vectors. Written to
// the same bit-identity contract as the x86 kernels: mul-then-add only, f64
// coordinate math in scalar operation order, and the Max blend uses the
// AND-of-both-orders correction for signed zeros.
// ---------------------------------------------------------------------------
#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::blend::BlendMode;
    use crate::raster::{nearest_index, AttrRow};
    use crate::texture::floor_index;
    use core::arch::aarch64::*;

    #[inline]
    #[target_feature(enable = "neon")]
    fn load4(s: &[f32], i: usize) -> float32x4_t {
        debug_assert!(i + 4 <= s.len());
        unsafe { vld1q_f32(s.as_ptr().add(i)) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn store4(s: &mut [f32], i: usize, v: float32x4_t) {
        debug_assert!(i + 4 <= s.len());
        unsafe { vst1q_f32(s.as_mut_ptr().add(i), v) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn lanes_i32(v: int32x4_t) -> [i32; 4] {
        unsafe { core::mem::transmute(v) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn from_lanes(a: [f32; 4]) -> float32x4_t {
        unsafe { core::mem::transmute(a) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn pair_f64(lo: f64, hi: f64) -> float64x2_t {
        unsafe { core::mem::transmute([lo, hi]) }
    }

    /// The Max blend lane-wise: the same compare-select as
    /// [`BlendMode::apply`] (`if s > d { s } else { d }`), deterministic on
    /// signed-zero ties.
    #[inline]
    #[target_feature(enable = "neon")]
    fn max4(d: float32x4_t, s: float32x4_t) -> float32x4_t {
        vbslq_f32(vcgtq_f32(s, d), s, d)
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn clamp4(v: float32x4_t, lo: float32x4_t, hi: float32x4_t) -> float32x4_t {
        vminq_f32(vmaxq_f32(v, lo), hi)
    }

    /// The affine row form at 4 consecutive pixel centres in `f64`, narrowed
    /// to `f32` (`fcvtn` rounds to nearest-even, same as an `as` cast).
    #[inline]
    #[target_feature(enable = "neon")]
    fn u4(px: usize, row: AttrRow) -> float32x4_t {
        let rb = vdupq_n_f64(row.row_base);
        let d = vdupq_n_f64(row.ddx);
        let o = vdupq_n_f64(row.ox);
        let c01 = pair_f64(px as f64 + 0.5, (px + 1) as f64 + 0.5);
        let c23 = pair_f64((px + 2) as f64 + 0.5, (px + 3) as f64 + 0.5);
        let u01 = vaddq_f64(vmulq_f64(vsubq_f64(c01, o), d), rb);
        let u23 = vaddq_f64(vmulq_f64(vsubq_f64(c23, o), d), rb);
        vcombine_f32(vcvt_f32_f64(u01), vcvt_f32_f64(u23))
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn blend4(
        blend: BlendMode,
        span: &mut [f32],
        i: usize,
        sample: float32x4_t,
        va: float32x4_t,
        vb: float32x4_t,
    ) {
        match blend {
            BlendMode::Replace => store4(span, i, sample),
            BlendMode::Additive => store4(span, i, vaddq_f32(load4(span, i), sample)),
            BlendMode::Max => store4(span, i, max4(load4(span, i), sample)),
            BlendMode::Alpha(_) => {
                let d = load4(span, i);
                store4(span, i, vaddq_f32(vmulq_f32(sample, va), vmulq_f32(d, vb)));
            }
        }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn alpha4(blend: BlendMode) -> (float32x4_t, float32x4_t) {
        match blend {
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                (vdupq_n_f32(alpha), vdupq_n_f32(1.0 - alpha))
            }
            _ => (vdupq_n_f32(0.0), vdupq_n_f32(0.0)),
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn blend_block_neon(mode: BlendMode, dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 4;
        match mode {
            BlendMode::Replace => dst.copy_from_slice(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, vaddq_f32(load4(dst, i), load4(src, i)));
                    i += 4;
                }
                for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                    *d += *s;
                }
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, max4(load4(dst, i), load4(src, i)));
                    i += 4;
                }
                for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                    *d = if *s > *d { *s } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = vdupq_n_f32(alpha);
                let vb = vdupq_n_f32(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended =
                        vaddq_f32(vmulq_f32(load4(src, i), va), vmulq_f32(load4(dst, i), vb));
                    store4(dst, i, blended);
                    i += 4;
                }
                for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                    *d = *s * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn blend_uniform_neon(mode: BlendMode, dst: &mut [f32], src: f32) {
        let n = dst.len() - dst.len() % 4;
        let vs = vdupq_n_f32(src);
        match mode {
            BlendMode::Replace => dst.fill(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, vaddq_f32(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d += src;
                }
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, max4(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = if src > *d { src } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = vdupq_n_f32(alpha);
                let vb = vdupq_n_f32(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended = vaddq_f32(vmulq_f32(vs, va), vmulq_f32(load4(dst, i), vb));
                    store4(dst, i, blended);
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = src * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn copy_slice_neon(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 4;
        let mut i = 0;
        while i < n {
            store4(dst, i, load4(src, i));
            i += 4;
        }
        dst[n..].copy_from_slice(&src[n..]);
    }

    #[target_feature(enable = "neon")]
    pub(super) fn fold_copy_neon(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => copy_slice_neon(dst, a),
            [a, b] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, vaddq_f32(load4(a, i), load4(b, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = a[i] + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(vaddq_f32(load4(a, i), load4(b, i)), load4(c, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (a[i] + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(
                        vaddq_f32(vaddq_f32(load4(a, i), load4(b, i)), load4(c, i)),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((a[i] + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_copy takes 1-4 sources"),
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn fold_acc_neon(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, vaddq_f32(load4(dst, i), load4(a, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d += a[i];
                }
            }
            [a, b] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(vaddq_f32(load4(dst, i), load4(a, i)), load4(b, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (*d + a[i]) + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(
                        vaddq_f32(vaddq_f32(load4(dst, i), load4(a, i)), load4(b, i)),
                        load4(c, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((*d + a[i]) + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(
                        vaddq_f32(
                            vaddq_f32(vaddq_f32(load4(dst, i), load4(a, i)), load4(b, i)),
                            load4(c, i),
                        ),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (((*d + a[i]) + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_acc takes 1-4 sources"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) fn fill_hoisted_neon(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        r0: &[f32],
        r1: &[f32],
        ty: f32,
        intensity: f32,
        blend: BlendMode,
    ) {
        let tex_w = r0.len();
        let vw = vdupq_n_f32(tex_w as f32);
        let vhalf = vdupq_n_f32(0.5);
        let vzero = vdupq_n_f32(0.0);
        let vhi = vdupq_n_f32(tex_w as f32 - 1.0);
        let vone = vdupq_n_f32(1.0);
        let vty = vdupq_n_f32(ty);
        let vint = vdupq_n_f32(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let u = u4(lo + i, u_row);
            let fx = clamp4(vsubq_f32(vmulq_f32(u, vw), vhalf), vzero, vhi);
            let tx0i = vcvtq_s32_f32(fx);
            let tx0f = vcvtq_f32_s32(tx0i);
            let tx = vsubq_f32(fx, tx0f);
            let tx1f = vminq_f32(vaddq_f32(tx0f, vone), vhi);
            let tx1i = vcvtq_s32_f32(tx1f);
            let i0 = lanes_i32(tx0i);
            let i1 = lanes_i32(tx1i);
            let a = from_lanes([
                r0[i0[0] as usize],
                r0[i0[1] as usize],
                r0[i0[2] as usize],
                r0[i0[3] as usize],
            ]);
            let b = from_lanes([
                r0[i1[0] as usize],
                r0[i1[1] as usize],
                r0[i1[2] as usize],
                r0[i1[3] as usize],
            ]);
            let c = from_lanes([
                r1[i0[0] as usize],
                r1[i0[1] as usize],
                r1[i0[2] as usize],
                r1[i0[3] as usize],
            ]);
            let d = from_lanes([
                r1[i1[0] as usize],
                r1[i1[1] as usize],
                r1[i1[2] as usize],
                r1[i1[3] as usize],
            ]);
            let bottom = vaddq_f32(a, vmulq_f32(vsubq_f32(b, a), tx));
            let top = vaddq_f32(c, vmulq_f32(vsubq_f32(d, c), tx));
            let lerped = vaddq_f32(bottom, vmulq_f32(vsubq_f32(top, bottom), vty));
            blend4(blend, span, i, vmulq_f32(lerped, vint), va, vb);
            i += 4;
        }
        for (offset, dst) in span[n..].iter_mut().enumerate() {
            let px = lo + n + offset;
            let u = u_row.at(px) as f32;
            let fx = (u * tex_w as f32 - 0.5).clamp(0.0, tex_w as f32 - 1.0);
            let tx0 = floor_index(fx);
            let tx1 = (tx0 + 1).min(tex_w - 1);
            let tx = fx - tx0 as f32;
            let a = r0[tx0];
            let b = r0[tx1];
            let c = r1[tx0];
            let d = r1[tx1];
            let bottom = a + (b - a) * tx;
            let top = c + (d - c) * tx;
            let sample = (bottom + (top - bottom) * ty) * intensity;
            *dst = blend.apply(*dst, sample);
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn fill_nearest_row_neon(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        tex_row: &[f32],
        intensity: f32,
        blend: BlendMode,
    ) {
        let tw = tex_row.len();
        let vw = vdupq_n_f32(tw as f32);
        let vzero = vdupq_n_f32(0.0);
        let vhi = vdupq_n_f32(tw as f32 - 1.0);
        let vint = vdupq_n_f32(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let u = u4(lo + i, u_row);
            let t = clamp4(vmulq_f32(u, vw), vzero, vhi);
            let ti = lanes_i32(vcvtq_s32_f32(t));
            let fetched = from_lanes([
                tex_row[ti[0] as usize],
                tex_row[ti[1] as usize],
                tex_row[ti[2] as usize],
                tex_row[ti[3] as usize],
            ]);
            blend4(blend, span, i, vmulq_f32(fetched, vint), va, vb);
            i += 4;
        }
        for (offset, dst) in span[n..].iter_mut().enumerate() {
            let px = lo + n + offset;
            let sample = tex_row[nearest_index(u_row.at(px) as f32, tw)] * intensity;
            *dst = blend.apply(*dst, sample);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) fn fill_nearest_2d_neon(
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
        let vww = vdupq_n_f32(tw as f32);
        let vwh = vdupq_n_f32(th as f32);
        let vzero = vdupq_n_f32(0.0);
        let vxhi = vdupq_n_f32(tw as f32 - 1.0);
        let vyhi = vdupq_n_f32(th as f32 - 1.0);
        let vint = vdupq_n_f32(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let px = lo + i;
            let u = u4(px, u_row);
            let v = u4(px, v_row);
            let tu = clamp4(vmulq_f32(u, vww), vzero, vxhi);
            let tv = clamp4(vmulq_f32(v, vwh), vzero, vyhi);
            let xi = lanes_i32(vcvtq_s32_f32(tu));
            let yi = lanes_i32(vcvtq_s32_f32(tv));
            let fetched = from_lanes([
                texels[yi[0] as usize * tw + xi[0] as usize],
                texels[yi[1] as usize * tw + xi[1] as usize],
                texels[yi[2] as usize * tw + xi[2] as usize],
                texels[yi[3] as usize * tw + xi[3] as usize],
            ]);
            blend4(blend, span, i, vmulq_f32(fetched, vint), va, vb);
            i += 4;
        }
        for (offset, dst) in span[n..].iter_mut().enumerate() {
            let px = lo + n + offset;
            let tx = nearest_index(u_row.at(px) as f32, tw);
            let ty = nearest_index(v_row.at(px) as f32, th);
            let sample = texels[ty * tw + tx] * intensity;
            *dst = blend.apply(*dst, sample);
        }
    }
}

#[cfg(test)]
mod tests {
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

    /// Non-scalar levels this host can run.
    fn vector_levels() -> Vec<SimdLevel> {
        available()
            .into_iter()
            .filter(|l| *l != SimdLevel::Scalar)
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], level: SimdLevel, context: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{} diverged at index {}: got {:?} ({:#x}), want {:?} ({:#x}); {}",
                level.name(),
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
        for level in available() {
            force(Some(level));
            assert_eq!(active(), level);
        }
        force(None);
        assert_eq!(active(), resolved);
    }

    #[test]
    fn max_blend_matches_scalar_on_signed_zeros() {
        let dst0 = [0.0f32, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0];
        let src = [-0.0f32, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0];
        for level in vector_levels() {
            let mut want = dst0;
            blend_block(SimdLevel::Scalar, BlendMode::Max, &mut want, &src);
            let mut got = dst0;
            blend_block(level, BlendMode::Max, &mut got, &src);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{} Max blend signed-zero mismatch at {i}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn blend_block_bit_identical() {
        let seed = 0xB10C;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let data_seed = rng.gen_range(0u64..1_000_000);
            let len = rng.gen_range(0usize..41);
            let raw_mode = rng.gen_range(0u8..4);
            let context = format!(
                "seed {seed:#x}, case {case}: data seed {data_seed}, len {len}, raw mode {raw_mode}"
            );
            let mode = mode_from(raw_mode);
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let dst0 = data(&mut data_rng, len);
            let src = data(&mut data_rng, len);
            let mut want = dst0.clone();
            blend_block(SimdLevel::Scalar, mode, &mut want, &src);
            for level in vector_levels() {
                let mut got = dst0.clone();
                blend_block(level, mode, &mut got, &src);
                assert_bits_eq(&got, &want, level, &context);
            }
        }
    }

    #[test]
    fn blend_uniform_bit_identical() {
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
            let mode = mode_from(raw_mode);
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let dst0 = data(&mut data_rng, len);
            let mut want = dst0.clone();
            blend_uniform(SimdLevel::Scalar, mode, &mut want, src);
            for level in vector_levels() {
                let mut got = dst0.clone();
                blend_uniform(level, mode, &mut got, src);
                assert_bits_eq(&got, &want, level, &context);
            }
        }
    }

    #[test]
    fn copy_and_folds_bit_identical() {
        let seed = 0xF01D;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let data_seed = rng.gen_range(0u64..1_000_000);
            let len = rng.gen_range(0usize..41);
            let k = rng.gen_range(1usize..5);
            let context =
                format!("seed {seed:#x}, case {case}: data seed {data_seed}, len {len}, k {k}");
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let sources: Vec<Vec<f32>> = (0..k).map(|_| data(&mut data_rng, len)).collect();
            let refs: Vec<&[f32]> = sources.iter().map(|v| v.as_slice()).collect();
            let dst0 = data(&mut data_rng, len);
            for level in vector_levels() {
                let mut want = dst0.clone();
                fold_copy(SimdLevel::Scalar, &mut want, &refs);
                let mut got = dst0.clone();
                fold_copy(level, &mut got, &refs);
                assert_bits_eq(&got, &want, level, &context);

                let mut want = dst0.clone();
                fold_acc(SimdLevel::Scalar, &mut want, &refs);
                let mut got = dst0.clone();
                fold_acc(level, &mut got, &refs);
                assert_bits_eq(&got, &want, level, &context);

                let mut got = dst0.clone();
                copy_slice(level, &mut got, &sources[0]);
                assert_bits_eq(&got, &sources[0], level, &context);
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
            let mode = mode_from(raw_mode);
            let u_row = AttrRow {
                row_base,
                ddx,
                ox: 0.25,
            };
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let r0 = data(&mut data_rng, tex_w);
            let r1 = data(&mut data_rng, tex_w);
            let dst0 = data(&mut data_rng, len);
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
            for level in vector_levels() {
                let mut got = dst0.clone();
                fill_hoisted(level, &mut got, lo, u_row, &r0, &r1, ty, 0.8, mode);
                assert_bits_eq(&got, &want, level, &context);
            }
        }
    }

    #[test]
    fn fill_nearest_row_bit_identical() {
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
            let mode = mode_from(raw_mode);
            let u_row = AttrRow {
                row_base,
                ddx,
                ox: 0.25,
            };
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let tex_row = data(&mut data_rng, tw);
            let dst0 = data(&mut data_rng, len);
            let mut want = dst0.clone();
            fill_nearest_row(SimdLevel::Scalar, &mut want, lo, u_row, &tex_row, 0.8, mode);
            for level in vector_levels() {
                let mut got = dst0.clone();
                fill_nearest_row(level, &mut got, lo, u_row, &tex_row, 0.8, mode);
                assert_bits_eq(&got, &want, level, &context);
            }
        }
    }

    #[test]
    fn fill_nearest_2d_bit_identical() {
        let seed = 0x2D;
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
            let mode = mode_from(raw_mode);
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
            let mut data_rng = ChaCha8Rng::seed_from_u64(data_seed);
            let texels = data(&mut data_rng, tw * th);
            let dst0 = data(&mut data_rng, len);
            let mut want = dst0.clone();
            fill_nearest_2d(
                SimdLevel::Scalar,
                &mut want,
                lo,
                u_row,
                v_row,
                &texels,
                tw,
                th,
                0.8,
                mode,
            );
            for level in vector_levels() {
                let mut got = dst0.clone();
                fill_nearest_2d(
                    level, &mut got, lo, u_row, v_row, &texels, tw, th, 0.8, mode,
                );
                assert_bits_eq(&got, &want, level, &context);
            }
        }
    }
}
