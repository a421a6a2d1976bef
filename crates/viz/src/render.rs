//! Rendering textures into framebuffers.
//!
//! Pipeline step 4: "an image is rendered by mapping the texture onto a
//! geometric surface". In the reproduction the geometric surface is the full
//! image plane, so this step amounts to resampling the spot-noise texture
//! into the framebuffer through a colour map; other visualization techniques
//! are then superimposed by [`crate::overlay`].

use crate::colormap::Colormap;
use softpipe::{Framebuffer, Texture};

/// Renders a (normalised, `[0,1]`-valued) texture into a new framebuffer of
/// size `width` x `height` through a colour map, sampling bilinearly.
pub fn texture_to_framebuffer(
    texture: &Texture,
    width: usize,
    height: usize,
    colormap: Colormap,
) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let u = (x as f32 + 0.5) / width as f32;
            let v = (y as f32 + 0.5) / height as f32;
            let value = texture.sample_bilinear(u, v);
            *fb.pixel_mut(x, y) = colormap.map(value);
        }
    }
    fb
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::{Rect, ScalarField, ScalarGrid, Vec2};
    use softpipe::Rgb;

    #[test]
    fn texture_maps_through_grayscale() {
        let tex = Texture::from_fn(16, 16, |u, _| u);
        let fb = texture_to_framebuffer(&tex, 32, 32, Colormap::Grayscale);
        assert_eq!(fb.width(), 32);
        // Left side dark, right side bright.
        assert!(fb.pixel(1, 16).r < 40);
        assert!(fb.pixel(30, 16).r > 200);
    }

    #[test]
    fn constant_texture_gives_uniform_framebuffer() {
        let mut tex = Texture::new(8, 8);
        tex.fill(0.5);
        let fb = texture_to_framebuffer(&tex, 16, 16, Colormap::Grayscale);
        let first = fb.pixel(0, 0);
        assert!(fb.pixels().iter().all(|p| *p == first));
        assert!(first.r > 100 && first.r < 150);
    }

    #[test]
    fn scalar_field_rendering_uses_range() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
        let g = ScalarGrid::from_fn(9, 9, dom, |p| p.x * 10.0);
        let fb = scalar_field_to_framebuffer(&g, 20, 20, (0.0, 10.0), Colormap::Rainbow);
        // Low end is blue, high end is red.
        assert!(fb.pixel(0, 10).b > 150);
        assert!(fb.pixel(19, 10).r > 150);
        // Degenerate range does not panic and produces a valid image.
        let flat = scalar_field_to_framebuffer(&g, 4, 4, (5.0, 5.0), Colormap::Rainbow);
        assert_eq!(flat.width(), 4);
        let _ = Rgb::default();
    }

    /// Renders a scalar field into a new framebuffer: values are normalised into
    /// `[0, 1]` using the supplied range and passed through the colour map.
    fn scalar_field_to_framebuffer(
        field: &dyn ScalarField,
        width: usize,
        height: usize,
        range: (f64, f64),
        colormap: Colormap,
    ) -> Framebuffer {
        let mut fb = Framebuffer::new(width, height);
        let domain = field.domain();
        let span = (range.1 - range.0).max(1e-300);
        for y in 0..height {
            for x in 0..width {
                let uv = Vec2::new(
                    (x as f64 + 0.5) / width as f64,
                    (y as f64 + 0.5) / height as f64,
                );
                let value = field.value(domain.from_unit(uv));
                let t = ((value - range.0) / span) as f32;
                *fb.pixel_mut(x, y) = colormap.map(t);
            }
        }
        fb
    }
}
