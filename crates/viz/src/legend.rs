//! Colour legends.
//!
//! Figure 6 of the paper colormaps the pollutant concentration; an image
//! without a legend is hard to read quantitatively, so the examples add a
//! small colour bar with tick labels rendered from a tiny built-in 3x5 digit
//! font (no font dependencies).

use crate::colormap::Colormap;
use softpipe::{Framebuffer, Rgb};

/// Placement and appearance of a colour-bar legend.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LegendOptions {
    /// Left edge of the bar in pixels.
    pub x: usize,
    /// Bottom edge of the bar in pixels.
    pub y: usize,
    /// Bar width in pixels.
    pub width: usize,
    /// Bar height in pixels.
    pub height: usize,
    /// Colour of the frame and tick labels.
    pub frame_color: Rgb,
}

impl Default for LegendOptions {
    fn default() -> Self {
        LegendOptions {
            x: 8,
            y: 8,
            width: 12,
            height: 96,
            frame_color: Rgb::new(255, 255, 255),
        }
    }
}

/// Draws a vertical colour bar for `colormap` spanning `range`, with numeric
/// labels at the bottom and top.
pub(crate) fn draw_legend(
    fb: &mut Framebuffer,
    colormap: Colormap,
    range: (f64, f64),
    opts: &LegendOptions,
) {
    let LegendOptions {
        x,
        y,
        width,
        height,
        frame_color,
    } = *opts;
    // Bar body.
    for dy in 0..height {
        let t = dy as f32 / (height.max(2) - 1) as f32;
        let color = colormap.map(t);
        for dx in 0..width {
            fb.set_checked((x + dx) as isize, (y + dy) as isize, color);
        }
    }
    // Frame.
    for dx in 0..=width {
        fb.set_checked((x + dx) as isize, y as isize - 1, frame_color);
        fb.set_checked((x + dx) as isize, (y + height) as isize, frame_color);
    }
    for dy in 0..=height {
        fb.set_checked(x as isize - 1, (y + dy) as isize, frame_color);
        fb.set_checked((x + width) as isize, (y + dy) as isize, frame_color);
    }
    // Labels: minimum at the bottom, maximum at the top.
    draw_number(fb, x + width + 3, y, range.0, frame_color);
    draw_number(fb, x + width + 3, y + height - 5, range.1, frame_color);
}

/// Draws a compact numeric label (two significant decimals) with a built-in
/// 3x5 pixel font. Returns the width in pixels actually used.
pub(crate) fn draw_number(
    fb: &mut Framebuffer,
    x: usize,
    y: usize,
    value: f64,
    color: Rgb,
) -> usize {
    let text = format_number(value);
    let mut cursor = x;
    for ch in text.chars() {
        cursor += draw_glyph(fb, cursor, y, ch, color) + 1;
    }
    cursor - x
}

/// Formats a value compactly for legend labels.
pub(crate) fn format_number(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.0}")
    } else if value.abs() >= 1.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.2}")
    }
}

/// 3x5 bitmap font for digits, minus sign and decimal point. Each glyph row
/// is 3 bits, top row first.
fn glyph_rows(ch: char) -> Option<[u8; 5]> {
    Some(match ch {
        '0' => [0b111, 0b101, 0b101, 0b101, 0b111],
        '1' => [0b010, 0b110, 0b010, 0b010, 0b111],
        '2' => [0b111, 0b001, 0b111, 0b100, 0b111],
        '3' => [0b111, 0b001, 0b111, 0b001, 0b111],
        '4' => [0b101, 0b101, 0b111, 0b001, 0b001],
        '5' => [0b111, 0b100, 0b111, 0b001, 0b111],
        '6' => [0b111, 0b100, 0b111, 0b101, 0b111],
        '7' => [0b111, 0b001, 0b010, 0b010, 0b010],
        '8' => [0b111, 0b101, 0b111, 0b101, 0b111],
        '9' => [0b111, 0b101, 0b111, 0b001, 0b111],
        '-' => [0b000, 0b000, 0b111, 0b000, 0b000],
        '.' => [0b000, 0b000, 0b000, 0b000, 0b010],
        _ => return None,
    })
}

fn draw_glyph(fb: &mut Framebuffer, x: usize, y: usize, ch: char, color: Rgb) -> usize {
    let Some(rows) = glyph_rows(ch) else {
        return 0;
    };
    for (row_idx, bits) in rows.iter().enumerate() {
        // Row 0 is the top of the glyph; the framebuffer's y axis points up.
        let py = y as isize + (4 - row_idx as isize);
        for col in 0..3 {
            if bits & (0b100 >> col) != 0 {
                fb.set_checked(x as isize + col as isize, py, color);
            }
        }
    }
    3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legend_paints_bar_and_frame() {
        let mut fb = Framebuffer::new(64, 128);
        draw_legend(
            &mut fb,
            Colormap::Rainbow,
            (0.0, 1.0),
            &LegendOptions::default(),
        );
        // Bottom of the bar is blue-ish, top is red-ish (rainbow ends).
        let bottom = fb.pixel(10, 10);
        let top = fb.pixel(10, 100);
        assert!(bottom.b > bottom.r);
        assert!(top.r > top.b);
        // Frame pixels exist.
        let lit_white = fb
            .pixels()
            .iter()
            .filter(|p| **p == Rgb::new(255, 255, 255))
            .count();
        assert!(lit_white > 50);
    }

    #[test]
    fn number_formatting_ranges() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(123.4), "123");
        assert_eq!(format_number(3.25), "3.2");
        assert_eq!(format_number(0.1234), "0.12");
        assert_eq!(format_number(-2.5), "-2.5");
    }

    #[test]
    fn digits_have_glyphs_letters_do_not() {
        for ch in "0123456789-.".chars() {
            assert!(glyph_rows(ch).is_some(), "missing glyph for {ch}");
        }
        assert!(glyph_rows('x').is_none());
    }

    #[test]
    fn draw_number_marks_pixels_and_reports_width() {
        let mut fb = Framebuffer::new(64, 16);
        let w = draw_number(&mut fb, 2, 2, -1.5, Rgb::new(255, 0, 0));
        assert!(w >= 4 * 3, "width {w}");
        let lit = fb.pixels().iter().filter(|p| p.r == 255).count();
        assert!(lit > 10);
    }

    #[test]
    fn legend_near_border_does_not_panic() {
        let mut fb = Framebuffer::new(20, 20);
        draw_legend(
            &mut fb,
            Colormap::Heat,
            (-5.0, 5.0),
            &LegendOptions {
                x: 15,
                y: 15,
                width: 10,
                height: 30,
                frame_color: Rgb::gray(200),
            },
        );
    }
}
