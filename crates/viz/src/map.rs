//! Schematic map outline for the atmospheric application.
//!
//! Figure 6 of the paper draws "a map of Europe" over the wind-field
//! texture. The real coastline data set is not part of the reproduction; a
//! schematic, clearly-synthetic coastline polyline (a couple of closed loops
//! vaguely reminiscent of a continent and an island) is used instead so the
//! figure has the same visual structure: texture, colormapped pollutant and
//! line geometry superimposed.

use crate::overlay::draw_polyline;
use flowfield::{Rect, Vec2};
use softpipe::{Framebuffer, Rgb};

/// The schematic continental outline used in place of the Europe map: a
/// mainland and an island, each a closed polyline in unit (`[0,1]^2`)
/// coordinates.
fn schematic_map() -> [Vec<Vec2>; 2] {
    let mainland = vec![
        (0.18, 0.10),
        (0.42, 0.06),
        (0.66, 0.12),
        (0.82, 0.22),
        (0.88, 0.40),
        (0.80, 0.55),
        (0.84, 0.72),
        (0.70, 0.84),
        (0.52, 0.80),
        (0.40, 0.88),
        (0.28, 0.78),
        (0.34, 0.62),
        (0.22, 0.52),
        (0.28, 0.38),
        (0.16, 0.28),
    ];
    let island = vec![
        (0.10, 0.62),
        (0.20, 0.60),
        (0.24, 0.72),
        (0.14, 0.78),
        (0.08, 0.70),
    ];
    [mainland, island].map(|outline| outline.into_iter().map(|(x, y)| Vec2::new(x, y)).collect())
}

/// Draws the schematic map over a framebuffer, mapping the unit square onto
/// `domain` (which should be the same domain the flow field uses).
pub fn draw_map(fb: &mut Framebuffer, domain: Rect, color: Rgb) {
    for outline in schematic_map() {
        let points: Vec<Vec2> = outline.iter().map(|p| domain.from_unit(*p)).collect();
        draw_polyline(fb, domain, &points, color, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schematic_map_has_closed_outlines_in_unit_square() {
        for (k, o) in schematic_map().iter().enumerate() {
            assert!(o.len() >= 5, "outline {k} too coarse");
            assert!(o
                .iter()
                .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
        }
    }

    #[test]
    fn draw_map_marks_pixels() {
        let mut fb = Framebuffer::new(128, 128);
        let domain = Rect::new(Vec2::ZERO, Vec2::new(10.0, 10.0));
        draw_map(&mut fb, domain, Rgb::new(255, 255, 0));
        let lit = fb
            .pixels()
            .iter()
            .filter(|p| **p == Rgb::new(255, 255, 0))
            .count();
        assert!(lit > 100, "map outline too sparse: {lit}");
    }
}
