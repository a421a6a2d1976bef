//! Superimposing additional visualizations on the spot-noise image.
//!
//! Figure 6 of the paper shows the pollutant concentration colormapped and
//! superimposed on the wind-field spot noise, together with a map of Europe.
//! The overlay functions here blend a colormapped scalar field over a base
//! framebuffer with concentration-dependent opacity, and draw polylines
//! (map outlines, block outlines) on top.

use crate::colormap::Colormap;
use flowfield::{Rect, ScalarField, Vec2};
use softpipe::{Framebuffer, Rgb};

/// Blends a colormapped scalar field over `base`. The opacity at each pixel
/// is `alpha * t` where `t` is the normalised field value, so regions with no
/// pollutant stay transparent and the underlying texture remains visible.
pub fn overlay_scalar_field(
    base: &mut Framebuffer,
    field: &dyn ScalarField,
    range: (f64, f64),
    colormap: Colormap,
    alpha: f32,
) {
    let domain = field.domain();
    let span = (range.1 - range.0).max(1e-300);
    let alpha = alpha.clamp(0.0, 1.0);
    for y in 0..base.height() {
        for x in 0..base.width() {
            let uv = Vec2::new(
                (x as f64 + 0.5) / base.width() as f64,
                (y as f64 + 0.5) / base.height() as f64,
            );
            let value = field.value(domain.from_unit(uv));
            let t = (((value - range.0) / span) as f32).clamp(0.0, 1.0);
            if t <= 0.0 {
                continue;
            }
            let color = colormap.map(t);
            let p = base.pixel(x, y);
            *base.pixel_mut(x, y) = p.lerp(color, alpha * t);
        }
    }
}

/// Draws a closed or open polyline given in *domain* coordinates onto the
/// framebuffer, mapping `domain` onto the full image.
pub(crate) fn draw_polyline(
    base: &mut Framebuffer,
    domain: Rect,
    points: &[Vec2],
    color: Rgb,
    close: bool,
) {
    if points.len() < 2 {
        return;
    }
    let (w, h) = (base.width(), base.height());
    let to_px = move |p: Vec2| {
        let uv = domain.to_unit(p);
        (uv.x * (w - 1) as f64, uv.y * (h - 1) as f64)
    };
    for w in points.windows(2) {
        let (x0, y0) = to_px(w[0]);
        let (x1, y1) = to_px(w[1]);
        base.draw_line(x0, y0, x1, y1, color);
    }
    if close {
        let (x0, y0) = to_px(*points.last().unwrap());
        let (x1, y1) = to_px(points[0]);
        base.draw_line(x0, y0, x1, y1, color);
    }
}

/// Draws the outline of a rectangle given in domain coordinates (used for the
/// block obstacle in the turbulence figures).
pub fn draw_rect_outline(base: &mut Framebuffer, domain: Rect, rect: Rect, color: Rgb) {
    let corners = [
        rect.min,
        Vec2::new(rect.max.x, rect.min.y),
        rect.max,
        Vec2::new(rect.min.x, rect.max.y),
    ];
    draw_polyline(base, domain, &corners, color, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::ScalarGrid;

    fn base() -> Framebuffer {
        let mut fb = Framebuffer::new(32, 32);
        fb.clear(Rgb::gray(10));
        fb
    }

    fn unit_domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    #[test]
    fn overlay_leaves_zero_regions_untouched() {
        let mut fb = base();
        // Field is zero on the left half, one on the right half.
        let g = ScalarGrid::from_fn(17, 17, unit_domain(), |p| if p.x > 0.5 { 1.0 } else { 0.0 });
        overlay_scalar_field(&mut fb, &g, (0.0, 1.0), Colormap::Rainbow, 0.8);
        // Left untouched, right coloured.
        assert_eq!(fb.pixel(2, 16), Rgb::gray(10));
        assert_ne!(fb.pixel(30, 16), Rgb::gray(10));
    }

    #[test]
    fn overlay_alpha_zero_is_noop() {
        let mut fb = base();
        let g = ScalarGrid::from_fn(9, 9, unit_domain(), |_| 1.0);
        overlay_scalar_field(&mut fb, &g, (0.0, 1.0), Colormap::Heat, 0.0);
        assert!(fb.pixels().iter().all(|p| *p == Rgb::gray(10)));
    }

    #[test]
    fn stronger_concentration_shows_more_colour() {
        let mut fb = base();
        let g = ScalarGrid::from_fn(17, 17, unit_domain(), |p| p.x);
        overlay_scalar_field(&mut fb, &g, (0.0, 1.0), Colormap::Heat, 1.0);
        // The red channel grows from left to right.
        assert!(fb.pixel(30, 16).r > fb.pixel(8, 16).r);
    }

    #[test]
    fn polyline_draws_in_domain_coordinates() {
        let mut fb = base();
        let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0)];
        draw_polyline(&mut fb, unit_domain(), &pts, Rgb::new(255, 0, 0), false);
        assert_eq!(fb.pixel(0, 0), Rgb::new(255, 0, 0));
        assert_eq!(fb.pixel(31, 31), Rgb::new(255, 0, 0));
        // Single-point polylines are ignored gracefully.
        draw_polyline(&mut fb, unit_domain(), &[Vec2::ZERO], Rgb::gray(0), true);
    }

    #[test]
    fn rect_outline_touches_all_sides() {
        let mut fb = base();
        let rect = Rect::new(Vec2::new(0.25, 0.25), Vec2::new(0.75, 0.75));
        draw_rect_outline(&mut fb, unit_domain(), rect, Rgb::new(0, 255, 0));
        let lit = fb
            .pixels()
            .iter()
            .filter(|p| **p == Rgb::new(0, 255, 0))
            .count();
        assert!(lit > 30, "outline too sparse: {lit}");
        // Centre stays untouched.
        assert_eq!(fb.pixel(16, 16), Rgb::gray(10));
    }
}
