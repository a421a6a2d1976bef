//! RGB framebuffers for the final rendered scene.
//!
//! Step 4 of the spot-noise pipeline maps the synthesised texture onto a
//! geometric surface and superimposes other visualization techniques
//! (colormapped pollutant, map outlines, arrows). The framebuffer is the
//! render target of that step; it also provides the PPM export used by the
//! examples and the figure-reproduction harness.

use std::io::{self, Write};
use std::path::Path;

/// An 8-bit-per-channel RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Creates a colour from channel values.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a grey level.
    pub const fn gray(v: u8) -> Self {
        Rgb { r: v, g: v, b: v }
    }

    /// Creates a colour from floating point channels in `[0, 1]` (clamped).
    pub fn from_f32(r: f32, g: f32, b: f32) -> Self {
        let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        Rgb::new(q(r), q(g), q(b))
    }

    /// Linear interpolation between two colours.
    pub fn lerp(self, other: Rgb, t: f32) -> Rgb {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| (a as f32 + (b as f32 - a as f32) * t).round() as u8;
        Rgb::new(
            mix(self.r, other.r),
            mix(self.g, other.g),
            mix(self.b, other.b),
        )
    }
}

/// A simple RGB framebuffer with origin at the bottom-left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
}

impl Framebuffer {
    /// Creates a black framebuffer.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer {
            width,
            height,
            pixels: vec![Rgb::default(); width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel at `(x, y)`.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    /// Mutable reference to the pixel at `(x, y)`.
    #[inline]
    pub fn pixel_mut(&mut self, x: usize, y: usize) -> &mut Rgb {
        debug_assert!(x < self.width && y < self.height);
        &mut self.pixels[y * self.width + x]
    }

    /// Fills the whole framebuffer with one colour.
    pub fn clear(&mut self, color: Rgb) {
        self.pixels.fill(color);
    }

    /// Sets the pixel at `(x, y)` if it lies inside the framebuffer;
    /// out-of-bounds writes are silently ignored (convenient for line and
    /// glyph drawing near the border).
    pub fn set_checked(&mut self, x: isize, y: isize, color: Rgb) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.pixels[y as usize * self.width + x as usize] = color;
        }
    }

    /// Draws a line segment with Bresenham-style DDA stepping.
    pub fn draw_line(&mut self, x0: f64, y0: f64, x1: f64, y1: f64, color: Rgb) {
        let dx = x1 - x0;
        let dy = y1 - y0;
        let steps = dx.abs().max(dy.abs()).ceil().max(1.0) as usize;
        for k in 0..=steps {
            let t = k as f64 / steps as f64;
            let x = (x0 + dx * t).round() as isize;
            let y = (y0 + dy * t).round() as isize;
            self.set_checked(x, y, color);
        }
    }

    /// The raw pixel storage, row-major from the bottom row.
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Encodes the framebuffer as a binary PPM (P6) image. The image is
    /// flipped vertically on output so that viewers (which put the origin at
    /// the top-left) show the y axis pointing up.
    pub fn write_ppm(&self, mut w: impl Write) -> io::Result<()> {
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        let mut row = Vec::with_capacity(self.width * 3);
        for y in (0..self.height).rev() {
            row.clear();
            for x in 0..self.width {
                let p = self.pixel(x, y);
                row.extend_from_slice(&[p.r, p.g, p.b]);
            }
            w.write_all(&row)?;
        }
        Ok(())
    }

    /// Writes the framebuffer to a PPM file.
    pub fn save_ppm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_ppm(io::BufWriter::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_framebuffer_is_black() {
        let fb = Framebuffer::new(4, 3);
        assert_eq!(fb.width(), 4);
        assert_eq!(fb.height(), 3);
        assert!(fb.pixels().iter().all(|p| *p == Rgb::default()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_framebuffer_rejected() {
        let _ = Framebuffer::new(0, 3);
    }

    #[test]
    fn pixel_read_write_and_clear() {
        let mut fb = Framebuffer::new(8, 8);
        *fb.pixel_mut(3, 4) = Rgb::new(10, 20, 30);
        assert_eq!(fb.pixel(3, 4), Rgb::new(10, 20, 30));
        fb.clear(Rgb::gray(128));
        assert!(fb.pixels().iter().all(|p| *p == Rgb::gray(128)));
    }

    #[test]
    fn set_checked_ignores_out_of_bounds() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set_checked(-1, 0, Rgb::gray(255));
        fb.set_checked(0, 100, Rgb::gray(255));
        fb.set_checked(2, 2, Rgb::gray(255));
        assert_eq!(fb.pixel(2, 2), Rgb::gray(255));
        assert_eq!(fb.pixel(0, 0), Rgb::default());
    }

    #[test]
    fn draw_line_touches_endpoints() {
        let mut fb = Framebuffer::new(16, 16);
        fb.draw_line(1.0, 1.0, 10.0, 5.0, Rgb::gray(200));
        assert_eq!(fb.pixel(1, 1), Rgb::gray(200));
        assert_eq!(fb.pixel(10, 5), Rgb::gray(200));
        // Some pixel in between is set.
        let lit = fb.pixels().iter().filter(|p| **p == Rgb::gray(200)).count();
        assert!(lit >= 10);
    }

    #[test]
    fn rgb_from_f32_clamps() {
        assert_eq!(Rgb::from_f32(2.0, -1.0, 0.5), Rgb::new(255, 0, 128));
    }

    #[test]
    fn rgb_lerp_endpoints() {
        let a = Rgb::new(0, 0, 0);
        let b = Rgb::new(255, 100, 50);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!(mid.r > 120 && mid.r < 135);
    }

    #[test]
    fn ppm_output_has_header_and_size() {
        let mut fb = Framebuffer::new(3, 2);
        fb.clear(Rgb::new(1, 2, 3));
        let mut buf = Vec::new();
        fb.write_ppm(&mut buf).unwrap();
        let header = String::from_utf8_lossy(&buf[..11]).to_string();
        assert!(header.starts_with("P6\n3 2\n255\n"));
        assert_eq!(buf.len(), 11 + 3 * 2 * 3);
        assert_eq!(&buf[11..14], &[1, 2, 3]);
    }
}
