//! Grayscale intensity textures.
//!
//! Spot noise accumulates intensities into a scalar texture (the paper's
//! 512x512 texture map). The same type doubles as the *spot texture* — the
//! small pre-rendered image of the spot function `h(x)` that is mapped onto
//! each rendered quad or bent-spot mesh.

use std::sync::Arc;

/// `max(floor(x), 0)` as an index (0 for NaN), without a libm call.
///
/// On baseline x86-64 (no SSE4.1 `roundsd`), `f32::floor`/`f64::floor`
/// compile to a call into libm, and every such call spills the caller's
/// vector registers. The saturating `as` cast truncates toward zero, which
/// *is* the floor for `x >= 0` and saturates negatives and NaN to 0, so at
/// the raster's index sites — where arguments are clamped to `>= 0` or
/// rejected when negative — this is exact.
#[inline(always)]
pub(crate) fn floor_index(x: impl Into<f64>) -> usize {
    x.into() as usize
}

/// `max(ceil(x), 0)` as an index (0 for NaN) for `x < 2^64`, without a libm
/// call: the truncated value, plus one when truncation dropped a positive
/// fraction. The companion of [`floor_index`].
#[inline(always)]
pub(crate) fn ceil_index(x: impl Into<f64>) -> usize {
    let x = x.into();
    let t = x as usize;
    t + ((t as f64) < x) as usize
}

/// Nearest-sample index of `coord` in a `len`-texel axis, clamped at the
/// edges (0 for NaN): the index [`Texture::sample_nearest`] reads, and the
/// scalar oracle of the SIMD nearest fills.
#[inline(always)]
pub(crate) fn nearest_index(coord: f32, len: usize) -> usize {
    ((coord * len as f32) as isize).clamp(0, len as isize - 1) as usize
}

/// Bilinear sampling of one texture, with the per-texture `f32` constants
/// hoisted out of the per-fragment work: build once, then [`sample`] every
/// fragment. The crate's single scalar bilinear kernel, behind
/// [`Texture::sample_bilinear`], the mesh cell walker and the general span
/// fill's scalar fallback, which its SIMD kernel is pinned to.
///
/// [`sample`]: Bilinear::sample
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bilinear<'a> {
    data: &'a [f32],
    width: usize,
    height: usize,
    /// `width` and `height` as `f32`.
    scale: (f32, f32),
    /// The largest texel coordinates, `width - 1` and `height - 1`, as `f32`.
    max: (f32, f32),
}

impl<'a> Bilinear<'a> {
    /// The kernel over `tex`, which must be narrower and lower than 2³¹
    /// texels.
    #[inline(always)]
    pub(crate) fn new(tex: &'a Texture) -> Self {
        debug_assert!(tex.width <= i32::MAX as usize && tex.height <= i32::MAX as usize);
        Bilinear {
            data: &tex.data,
            width: tex.width,
            height: tex.height,
            scale: (tex.width as f32, tex.height as f32),
            max: (tex.width as f32 - 1.0, tex.height as f32 - 1.0),
        }
    }

    /// The sample at texture coordinates `(u, v)` in `[0,1]`, clamped at the
    /// edges.
    #[inline(always)]
    pub(crate) fn sample(&self, u: f32, v: f32) -> f32 {
        let fx = (u * self.scale.0 - 0.5).clamp(0.0, self.max.0);
        let fy = (v * self.scale.1 - 0.5).clamp(0.0, self.max.1);
        // On the clamped range truncation is the floor, and NaN truncates
        // to 0 as in `floor_index`; `i32` converts both ways in one
        // instruction each.
        let (ix, iy) = (fx as i32, fy as i32);
        let tx = fx - ix as f32;
        let ty = fy - iy as f32;
        let (x0, y0) = (ix as usize, iy as usize);
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let row0 = &self.data[y0 * self.width..][..self.width];
        let row1 = &self.data[y1 * self.width..][..self.width];
        let (a, b) = (row0[x0], row0[x1]);
        let (c, d) = (row1[x0], row1[x1]);
        let bottom = a + (b - a) * tx;
        let top = c + (d - c) * tx;
        bottom + (top - bottom) * ty
    }
}

/// A single-channel floating-point texture, row-major, origin at the
/// bottom-left (matching OpenGL texture conventions).
#[derive(Debug, Clone, PartialEq)]
pub struct Texture {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Texture {
    /// Creates a texture filled with zeros.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "texture must be non-empty");
        Texture {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates a texture by evaluating `f(u, v)` at every texel centre,
    /// where `u, v` are in `[0, 1]`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(f32, f32) -> f32) -> Self {
        let mut t = Texture::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let u = (x as f32 + 0.5) / width as f32;
                let v = (y as f32 + 0.5) / height as f32;
                t.data[y * width + x] = f(u, v);
            }
        }
        t
    }

    /// Texture width in texels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Texture height in texels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw texel storage, row-major from the bottom row.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw texel storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of bytes occupied by the texel data (used for bus/texture
    /// bandwidth accounting).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Value of the texel at `(x, y)`.
    #[inline]
    pub fn texel(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Mutable reference to the texel at `(x, y)`.
    #[inline]
    pub fn texel_mut(&mut self, x: usize, y: usize) -> &mut f32 {
        debug_assert!(x < self.width && y < self.height);
        &mut self.data[y * self.width + x]
    }

    /// Sets every texel to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Reshapes this texture in place to `width` × `height`, reusing the
    /// existing allocation when it is large enough. When `zero` is set the
    /// texels are cleared to 0 (matching [`Texture::new`]); otherwise the
    /// contents are unspecified and the caller must overwrite every texel.
    /// This is the [`FrameArena`](crate::arena::FrameArena) recycling hook.
    pub(crate) fn reset(&mut self, width: usize, height: usize, zero: bool) {
        assert!(width > 0 && height > 0, "texture must be non-empty");
        let len = width * height;
        self.width = width;
        self.height = height;
        if self.data.len() != len {
            // `resize` zeroes only the grown tail; when dirty reuse is
            // requested that is fine (contents are unspecified anyway).
            // Capacity is deliberately NOT shrunk: a pool shared between
            // differently sized pipelines must keep the larger allocation
            // alive across alternating checkouts, or reuse degenerates into
            // reallocation (capacity is invisible to every consumer).
            self.data.resize(len, 0.0);
        }
        if zero {
            self.data.fill(0.0);
        }
    }

    /// Nearest-neighbour sample at texture coordinates `(u, v)` in `[0,1]`,
    /// clamped at the edges.
    pub fn sample_nearest(&self, u: f32, v: f32) -> f32 {
        self.texel(nearest_index(u, self.width), nearest_index(v, self.height))
    }

    /// Bilinear sample at texture coordinates `(u, v)` in `[0,1]`, clamped at
    /// the edges, for a texture narrower and lower than 2³¹ texels. Every
    /// bilinear sample the rasterizer takes is this kernel, set up once per
    /// span or mesh cell instead of once per call.
    pub fn sample_bilinear(&self, u: f32, v: f32) -> f32 {
        Bilinear::new(self).sample(u, v)
    }

    /// Adds `other` texel-wise into `self` (the gather/blend step that
    /// combines per-pipe partial textures into the final texture).
    ///
    /// # Panics
    /// Panics when the dimensions differ.
    pub fn accumulate(&mut self, other: &Texture) {
        assert_eq!(self.width, other.width, "texture widths differ");
        assert_eq!(self.height, other.height, "texture heights differ");
        for (dst, src) in self.data.iter_mut().zip(&other.data) {
            *dst += *src;
        }
    }

    /// Minimum and maximum texel value.
    pub fn range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Mean texel value.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Variance of the texel values (the "contrast" of the noise texture).
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.data
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / self.data.len() as f32
    }

    /// Rescales all texels so the value range maps onto `[0, 1]`.
    /// Constant textures map to 0.5.
    pub fn normalized(&self) -> Texture {
        let (lo, hi) = self.range();
        let span = hi - lo;
        let mut out = self.clone();
        if span <= f32::EPSILON {
            out.fill(0.5);
        } else {
            for v in &mut out.data {
                *v = (*v - lo) / span;
            }
        }
        out
    }

    /// Sum of absolute differences against another texture of the same size;
    /// used by the equivalence tests between sequential and parallel paths.
    pub fn absolute_difference(&self, other: &Texture) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs() as f64)
            .sum()
    }
}

/// Builds the canonical circular spot texture: intensity 1 inside the disc,
/// with a smooth (cosine) fall-off of relative width `softness` at the rim.
///
/// The paper defines the spot function `h(x)` as "everywhere zero except for
/// an area that is small compared to the texture size"; a softened disc is
/// the default shape used throughout.
pub fn disc_spot_texture(size: usize, softness: f32) -> Texture {
    Texture::from_fn(size, size, |u, v| {
        let dx = u - 0.5;
        let dy = v - 0.5;
        let r = (dx * dx + dy * dy).sqrt() * 2.0; // 1.0 at the inscribed circle
        let inner = 1.0 - softness.clamp(0.0, 1.0);
        if r <= inner {
            1.0
        } else if r >= 1.0 {
            0.0
        } else {
            // Cosine roll-off between the inner radius and the rim.
            let t = (r - inner) / (1.0 - inner).max(f32::EPSILON);
            0.5 * (1.0 + (std::f32::consts::PI * t).cos())
        }
    })
}

/// A small mip-free prefiltered pyramid over one spot texture, the backing
/// store of [`SamplingMode::Footprint`](crate::state::SamplingMode).
///
/// Level 0 is the base texture (shared, not copied); each further level is a
/// 2×2 box-filtered half-resolution copy, up to
/// [`FootprintPyramid::MAX_LEVELS`] levels in total. Unlike a full mip chain
/// the pyramid stops after two prefiltered levels — spot textures are tiny
/// (16–32 px) and bent-spot minification rarely exceeds 4 texels per pixel,
/// so deeper levels would never be selected. The pyramid is built once per
/// texture and cached behind an [`Arc`] by the pipe that samples it.
#[derive(Debug, Clone)]
pub struct FootprintPyramid {
    base: Arc<Texture>,
    /// `levels[k]` is the `2^(k+1)`-to-1 downsampled copy of the base.
    levels: Vec<Texture>,
}

impl FootprintPyramid {
    /// Total pyramid depth: the base plus two prefiltered levels.
    pub const MAX_LEVELS: usize = 3;

    /// Builds the pyramid over `base` by repeated 2×2 box filtering.
    pub fn build(base: Arc<Texture>) -> Self {
        let mut levels = Vec::new();
        let mut prev: &Texture = &base;
        while levels.len() + 1 < Self::MAX_LEVELS && (prev.width() > 1 || prev.height() > 1) {
            levels.push(downsample_2x2(prev));
            prev = levels.last().expect("just pushed");
        }
        FootprintPyramid { base, levels }
    }

    /// The base texture the pyramid was built over.
    pub fn base(&self) -> &Texture {
        &self.base
    }

    /// Number of levels available (base included).
    pub fn levels(&self) -> usize {
        1 + self.levels.len()
    }

    /// The texture of pyramid level `level` (0 = base).
    pub fn level(&self, level: usize) -> &Texture {
        if level == 0 {
            &self.base
        } else {
            &self.levels[level - 1]
        }
    }

    /// Selects the level whose texel size best matches a footprint of
    /// `step` *base* texels per target pixel: level `l` texels cover `2^l`
    /// base texels, and the cut-over sits at 1.5× the level's texel size so
    /// the selected level's texels stay within ±50 % of the footprint.
    /// Magnified or unit-scale footprints (`step <= 1.5`) keep the base.
    pub fn level_for_step(&self, step: f32) -> usize {
        let mut level = 0;
        let mut cutover = 1.5f32;
        while level + 1 < self.levels() && step > cutover {
            level += 1;
            cutover *= 2.0;
        }
        level
    }

    /// Nearest sample of pyramid level `level` at `(u, v)` in `[0, 1]`.
    #[inline]
    pub fn sample_nearest(&self, level: usize, u: f32, v: f32) -> f32 {
        self.level(level).sample_nearest(u, v)
    }
}

/// 2×2 box downsample with edge clamping (odd dimensions fold the last
/// row/column onto itself), preserving the mean of constant textures.
fn downsample_2x2(src: &Texture) -> Texture {
    let w = src.width().div_ceil(2);
    let h = src.height().div_ceil(2);
    let mut out = Texture::new(w, h);
    for y in 0..h {
        let y0 = (2 * y).min(src.height() - 1);
        let y1 = (2 * y + 1).min(src.height() - 1);
        for x in 0..w {
            let x0 = (2 * x).min(src.width() - 1);
            let x1 = (2 * x + 1).min(src.width() - 1);
            *out.texel_mut(x, y) = 0.25
                * (src.texel(x0, y0) + src.texel(x1, y0) + src.texel(x0, y1) + src.texel(x1, y1));
        }
    }
    out
}

/// Builds a Gaussian spot texture with standard deviation `sigma` expressed
/// as a fraction of the half-width.
pub fn gaussian_spot_texture(size: usize, sigma: f32) -> Texture {
    let s = sigma.max(1e-6);
    Texture::from_fn(size, size, |u, v| {
        let dx = (u - 0.5) * 2.0;
        let dy = (v - 0.5) * 2.0;
        let r2 = dx * dx + dy * dy;
        (-r2 / (2.0 * s * s)).exp()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_helpers_match_std_floor_and_ceil_clamped_at_zero() {
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-300,
            -1e300,
            f64::NEG_INFINITY,
            2f64.powi(52) + 0.5,
            2f64.powi(53),
            2f64.powi(63),
            2f64.powi(64) - 2048.0, // the largest f64 below 2^64
        ];
        for n in (0u64..=600).chain([1 << 20, (1 << 31) + 1, 1 << 40]) {
            let n = n as f64;
            for x in [n, n + 0.5, n.next_up(), n.next_down(), n + 0.25, n + 0.75] {
                xs.extend([x, -x]);
            }
        }
        for x in xs {
            assert_eq!(
                floor_index(x),
                x.floor().max(0.0) as usize,
                "floor_index({x:e})"
            );
            assert_eq!(
                ceil_index(x),
                x.ceil().max(0.0) as usize,
                "ceil_index({x:e})"
            );
            let y = x as f32;
            assert_eq!(
                floor_index(y),
                y.floor().max(0.0) as usize,
                "floor_index({y:e}f32)"
            );
            assert_eq!(
                ceil_index(y),
                y.ceil().max(0.0) as usize,
                "ceil_index({y:e}f32)"
            );
        }
        // `floor_index` saturates like the cast it replaces; `ceil_index`
        // requires x < 2^64, so +inf is checked for the floor only.
        assert_eq!(floor_index(f64::INFINITY), usize::MAX);
        assert_eq!(floor_index(1e300), usize::MAX);
    }

    #[test]
    fn new_texture_is_zeroed() {
        let t = Texture::new(8, 4);
        assert_eq!(t.width(), 8);
        assert_eq!(t.height(), 4);
        assert!(t.data().iter().all(|&v| v == 0.0));
        assert_eq!(t.byte_size(), 8 * 4 * 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_texture_rejected() {
        let _ = Texture::new(0, 4);
    }

    #[test]
    fn texel_read_write() {
        let mut t = Texture::new(4, 4);
        *t.texel_mut(2, 3) = 1.5;
        assert_eq!(t.texel(2, 3), 1.5);
        assert_eq!(t.texel(0, 0), 0.0);
    }

    #[test]
    fn bilinear_sampling_of_constant_texture() {
        let mut t = Texture::new(16, 16);
        t.fill(0.7);
        for &(u, v) in &[(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.3, 0.9)] {
            assert!((t.sample_bilinear(u, v) - 0.7).abs() < 1e-6);
            assert!((t.sample_nearest(u, v) - 0.7).abs() < 1e-6);
        }
    }

    #[test]
    fn bilinear_sampling_interpolates_gradient() {
        // A texture with a horizontal ramp: bilinear samples follow the ramp.
        let t = Texture::from_fn(32, 8, |u, _| u);
        let a = t.sample_bilinear(0.25, 0.5);
        let b = t.sample_bilinear(0.75, 0.5);
        assert!(b > a + 0.3);
        // Samples at texel centres hit the stored value exactly.
        let center_u = (5.0 + 0.5) / 32.0;
        assert!((t.sample_bilinear(center_u, 0.5) - t.texel(5, 3)).abs() < 1e-6);
    }

    #[test]
    fn bilinear_truncation_equals_the_floor_on_and_off_the_texture() {
        // The kernel truncates the clamped coordinate through `i32`; the
        // oracle takes `f32::floor` of it. Coordinates inside, on the
        // border of, far outside and not on the texture (NaN, which both
        // read as texel 0 with a NaN weight) must agree bit for bit.
        let t = Texture::from_fn(7, 5, |u, v| (u * 3.1).sin() + v * v);
        let oracle = |u: f32, v: f32| {
            let fx = (u * 7.0 - 0.5).clamp(0.0, 6.0);
            let fy = (v * 5.0 - 0.5).clamp(0.0, 4.0);
            let (x0, y0) = (fx.floor().max(0.0) as usize, fy.floor().max(0.0) as usize);
            let (x1, y1) = ((x0 + 1).min(6), (y0 + 1).min(4));
            let (tx, ty) = (fx - x0 as f32, fy - y0 as f32);
            let bottom = t.texel(x0, y0) + (t.texel(x1, y0) - t.texel(x0, y0)) * tx;
            let top = t.texel(x0, y1) + (t.texel(x1, y1) - t.texel(x0, y1)) * tx;
            bottom + (top - bottom) * ty
        };
        let mut coords = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1e30,
            1e30,
            -0.0,
        ];
        coords.extend((-40..=80).map(|k| k as f32 / 40.0 + 1e-3));
        for &u in &coords {
            for &v in &coords {
                let (got, want) = (t.sample_bilinear(u, v), oracle(u, v));
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "({u}, {v}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn accumulate_adds_texelwise() {
        let mut a = Texture::new(4, 4);
        a.fill(1.0);
        let mut b = Texture::new(4, 4);
        b.fill(0.25);
        a.accumulate(&b);
        assert!(a.data().iter().all(|&v| (v - 1.25).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn accumulate_rejects_size_mismatch() {
        let mut a = Texture::new(4, 4);
        let b = Texture::new(8, 4);
        a.accumulate(&b);
    }

    #[test]
    fn range_mean_variance() {
        let t = Texture::from_fn(4, 1, |u, _| u);
        let (lo, hi) = t.range();
        assert!(lo >= 0.0 && hi <= 1.0 && hi > lo);
        assert!(t.mean() > 0.0);
        assert!(t.variance() > 0.0);
        let mut flat = Texture::new(4, 4);
        flat.fill(3.0);
        assert_eq!(flat.variance(), 0.0);
    }

    #[test]
    fn normalized_maps_to_unit_range() {
        let t = Texture::from_fn(8, 8, |u, v| 5.0 * u - 3.0 * v);
        let n = t.normalized();
        let (lo, hi) = n.range();
        assert!((lo - 0.0).abs() < 1e-6);
        assert!((hi - 1.0).abs() < 1e-6);
        let mut flat = Texture::new(4, 4);
        flat.fill(9.0);
        assert!(flat
            .normalized()
            .data()
            .iter()
            .all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn disc_spot_is_bright_at_center_dark_at_corner() {
        let t = disc_spot_texture(32, 0.3);
        assert!(t.sample_bilinear(0.5, 0.5) > 0.95);
        assert!(t.sample_bilinear(0.02, 0.02) < 0.05);
        // Radially monotone (roughly): mid radius is between centre and rim.
        let mid = t.sample_bilinear(0.5 + 0.2, 0.5);
        assert!((0.0..=1.0).contains(&mid));
    }

    #[test]
    fn gaussian_spot_peaks_at_center() {
        let t = gaussian_spot_texture(32, 0.4);
        let c = t.sample_bilinear(0.5, 0.5);
        let e = t.sample_bilinear(0.95, 0.5);
        assert!(c > 0.9);
        assert!(e < c);
    }

    #[test]
    fn absolute_difference_zero_for_identical() {
        let t = disc_spot_texture(16, 0.5);
        assert_eq!(t.absolute_difference(&t), 0.0);
        let z = Texture::new(16, 16);
        assert!(t.absolute_difference(&z) > 0.0);
    }

    #[test]
    fn reset_reuses_allocation_and_zeroes_on_request() {
        let mut t = disc_spot_texture(16, 0.5);
        t.reset(16, 16, true);
        assert!(t.data().iter().all(|&v| v == 0.0));
        // Dirty reuse keeps the size but promises nothing about contents.
        t.fill(3.0);
        t.reset(8, 32, false);
        assert_eq!((t.width(), t.height(), t.data().len()), (8, 32, 256));
        // Growing zero-fills the tail via resize; shrinking then zeroing
        // yields a clean texture again.
        t.reset(4, 4, true);
        assert_eq!(t.data().len(), 16);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pyramid_levels_halve_and_preserve_constant_mean() {
        let mut base = Texture::new(32, 32);
        base.fill(0.75);
        let p = FootprintPyramid::build(Arc::new(base));
        assert_eq!(p.levels(), FootprintPyramid::MAX_LEVELS);
        assert_eq!((p.level(1).width(), p.level(1).height()), (16, 16));
        assert_eq!((p.level(2).width(), p.level(2).height()), (8, 8));
        for level in 0..p.levels() {
            assert!(p
                .level(level)
                .data()
                .iter()
                .all(|&v| (v - 0.75).abs() < 1e-6));
        }
    }

    #[test]
    fn pyramid_handles_odd_and_tiny_bases() {
        let p = FootprintPyramid::build(Arc::new(disc_spot_texture(9, 0.5)));
        assert_eq!((p.level(1).width(), p.level(1).height()), (5, 5));
        // A 1x1 base cannot be downsampled further.
        let mut tiny = Texture::new(1, 1);
        tiny.fill(1.0);
        let p = FootprintPyramid::build(Arc::new(tiny));
        assert_eq!(p.levels(), 1);
        assert_eq!(p.sample_nearest(0, 0.5, 0.5), 1.0);
    }

    #[test]
    fn pyramid_downsampling_averages_blocks() {
        // A 2x2 checkerboard collapses to its mean at level 1.
        let base = Texture::from_fn(2, 2, |u, v| if (u < 0.5) ^ (v < 0.5) { 1.0 } else { 0.0 });
        let p = FootprintPyramid::build(Arc::new(base));
        assert_eq!(p.level(1).texel(0, 0), 0.5);
    }

    #[test]
    fn level_selection_follows_footprint_size() {
        let p = FootprintPyramid::build(Arc::new(disc_spot_texture(32, 0.5)));
        assert_eq!(p.level_for_step(0.25), 0, "magnified: keep the base");
        assert_eq!(p.level_for_step(1.0), 0);
        assert_eq!(p.level_for_step(2.0), 1);
        assert_eq!(p.level_for_step(4.0), 2);
        assert_eq!(p.level_for_step(100.0), 2, "clamped to the deepest level");
    }
}
