//! Spot filtering — post-processing of the synthesised texture.
//!
//! Enhanced spot noise adds a filtering step after blending ("additional spot
//! filtering operations may be applied to the map", pipeline step 3). The
//! filters here are the standard ones used with spot noise: a box blur, a
//! high-pass filter that removes the low-frequency blotches caused by the
//! finite number of spots, and a contrast stretch that maps the result into
//! the displayable range.

use softpipe::Texture;

/// Box blur with a square kernel of half-width `radius` texels, using a
/// separable two-pass implementation with edge clamping.
///
/// Each output is the sum of its `2·radius + 1` taps in tap order, then
/// scaled by the kernel norm. The passes add one tap at a time across a
/// whole row (the horizontal pass reads a row padded with clamped copies of
/// its end texels), so the adds vectorize across outputs while every output
/// keeps the summation order — and therefore the bits — of a per-texel loop.
pub fn box_blur(texture: &Texture, radius: usize) -> Texture {
    if radius == 0 {
        return texture.clone();
    }
    let w = texture.width();
    let h = texture.height();
    let taps = 2 * radius + 1;
    let norm = 1.0 / taps as f32;

    // Horizontal pass: output x sums pad[x..x + taps].
    let mut tmp = Texture::new(w, h);
    let mut pad = vec![0.0f32; w + 2 * radius];
    for (src, out) in texture
        .data()
        .chunks_exact(w)
        .zip(tmp.data_mut().chunks_exact_mut(w))
    {
        pad[..radius].fill(src[0]);
        pad[radius..radius + w].copy_from_slice(src);
        pad[radius + w..].fill(src[w - 1]);
        for k in 0..taps {
            for (o, p) in out.iter_mut().zip(&pad[k..k + w]) {
                *o += *p;
            }
        }
        out.iter_mut().for_each(|o| *o *= norm);
    }
    // Vertical pass: output row y sums the clamped rows y - radius ..= y + radius.
    let mut out = Texture::new(w, h);
    let rows = tmp.data();
    for (y, out_row) in out.data_mut().chunks_exact_mut(w).enumerate() {
        for sy in (y as isize - radius as isize)..=(y + radius) as isize {
            let sy = sy.clamp(0, h as isize - 1) as usize;
            for (o, t) in out_row.iter_mut().zip(&rows[sy * w..(sy + 1) * w]) {
                *o += *t;
            }
        }
        out_row.iter_mut().for_each(|o| *o *= norm);
    }
    out
}

/// High-pass filter: subtracts the local mean (a box blur of half-width
/// `radius`) from every texel. This removes the blotchy low-frequency
/// component of the noise while keeping the flow-aligned streaks.
pub fn highpass(texture: &Texture, radius: usize) -> Texture {
    let low = box_blur(texture, radius);
    let mut out = texture.clone();
    for (dst, lo) in out.data_mut().iter_mut().zip(low.data()) {
        *dst -= *lo;
    }
    out
}

/// Linearly rescales the texture so that `[mean - k*std, mean + k*std]` maps
/// onto `[0, 1]`, clamping outliers. This is the contrast enhancement applied
/// before the texture is mapped onto geometry for display.
pub fn contrast_stretch(texture: &Texture, k: f32) -> Texture {
    assert!(k > 0.0, "contrast factor must be positive");
    let mean = texture.mean();
    let std = texture.variance().sqrt();
    let mut out = texture.clone();
    if std <= f32::EPSILON {
        out.fill(0.5);
        return out;
    }
    let lo = mean - k * std;
    let span = 2.0 * k * std;
    for v in out.data_mut() {
        *v = ((*v - lo) / span).clamp(0.0, 1.0);
    }
    out
}

/// The standard display post-processing used by the examples and the figure
/// harness: high-pass with a kernel proportional to the spot radius, then a
/// 2-sigma contrast stretch.
pub fn standard_postprocess(texture: &Texture, spot_radius_pixels: f64) -> Texture {
    let radius = (spot_radius_pixels.round() as usize).max(1);
    contrast_stretch(&highpass(texture, radius), 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Texture {
        Texture::from_fn(n, n, |u, v| u + 0.5 * v)
    }

    /// The per-texel box blur [`box_blur`] replaced: every output sums its
    /// clamped taps in order, then scales by the norm.
    fn box_blur_direct(texture: &Texture, radius: usize) -> Texture {
        let w = texture.width();
        let h = texture.height();
        let r = radius as isize;
        let norm = 1.0 / (2 * radius + 1) as f32;
        let mut tmp = Texture::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for dx in -r..=r {
                    let sx = (x as isize + dx).clamp(0, w as isize - 1) as usize;
                    acc += texture.texel(sx, y);
                }
                *tmp.texel_mut(x, y) = acc * norm;
            }
        }
        let mut out = Texture::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for dy in -r..=r {
                    let sy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                    acc += tmp.texel(x, sy);
                }
                *out.texel_mut(x, y) = acc * norm;
            }
        }
        out
    }

    #[test]
    fn blur_is_bit_identical_to_the_per_texel_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB10B);
        for case in 0..60 {
            let w = rng.gen_range(1usize..40);
            let h = rng.gen_range(1usize..40);
            // Radii up to and past the texture size exercise the clamped
            // padding on both ends at once.
            let radius = rng.gen_range(1usize..(w.max(h) + 6));
            let mut t = Texture::new(w, h);
            for v in t.data_mut() {
                *v = rng.gen_range(-3.0f32..3.0);
            }
            let fast = box_blur(&t, radius);
            let direct = box_blur_direct(&t, radius);
            let same = fast
                .data()
                .iter()
                .zip(direct.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "case {case}: {w}x{h} radius {radius} diverged");
        }
    }

    #[test]
    fn zero_radius_blur_is_identity() {
        let t = ramp(16);
        let b = box_blur(&t, 0);
        assert_eq!(t.absolute_difference(&b), 0.0);
    }

    #[test]
    fn blur_preserves_constant_textures() {
        let mut t = Texture::new(16, 16);
        t.fill(0.7);
        let b = box_blur(&t, 3);
        assert!(b.data().iter().all(|&v| (v - 0.7).abs() < 1e-5));
    }

    #[test]
    fn blur_reduces_variance() {
        let t = Texture::from_fn(32, 32, |u, v| (u * 37.0).sin() * (v * 23.0).cos());
        let b = box_blur(&t, 2);
        assert!(b.variance() < t.variance());
        // Mean is (approximately) preserved by the normalised kernel.
        assert!((b.mean() - t.mean()).abs() < 0.02);
    }

    #[test]
    fn highpass_removes_mean_and_low_frequency() {
        // A pure low-frequency ramp is almost entirely removed by the
        // high-pass filter (apart from edge effects).
        let t = ramp(64);
        let hp = highpass(&t, 8);
        assert!(hp.mean().abs() < 0.05);
        // Interior texels are close to zero.
        let mut interior_max: f32 = 0.0;
        for y in 16..48 {
            for x in 16..48 {
                interior_max = interior_max.max(hp.texel(x, y).abs());
            }
        }
        assert!(interior_max < 0.05, "interior residue {interior_max}");
    }

    #[test]
    fn highpass_keeps_high_frequency_detail() {
        let t = Texture::from_fn(
            64,
            64,
            |u, _| if (u * 32.0) as i32 % 2 == 0 { 1.0 } else { 0.0 },
        );
        let hp = highpass(&t, 8);
        // The checker pattern survives with roughly half amplitude around 0.
        assert!(hp.variance() > 0.1 * t.variance());
    }

    #[test]
    fn contrast_stretch_maps_into_unit_range() {
        let t = Texture::from_fn(32, 32, |u, v| 10.0 * (u - 0.5) + 3.0 * v);
        let c = contrast_stretch(&t, 2.0);
        let (lo, hi) = c.range();
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!(hi > lo, "stretched texture is flat");
        // Constant textures map to 0.5 rather than dividing by zero.
        let mut flat = Texture::new(8, 8);
        flat.fill(3.0);
        assert!(contrast_stretch(&flat, 2.0)
            .data()
            .iter()
            .all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn contrast_stretch_rejects_nonpositive_k() {
        let _ = contrast_stretch(&ramp(8), 0.0);
    }

    #[test]
    fn standard_postprocess_output_is_displayable() {
        let t = Texture::from_fn(64, 64, |u, v| (u * 31.0).sin() + (v * 17.0).cos());
        let p = standard_postprocess(&t, 4.0);
        let (lo, hi) = p.range();
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!(p.variance() > 0.0);
    }
}
