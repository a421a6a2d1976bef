//! Stream-line plots — the other classical baseline.
//!
//! Together with arrow plots, stream lines are the "colored geometric
//! objects" style of flow visualization the introduction contrasts with
//! texture-based methods: accurate along the drawn curves but empty in
//! between. Used by the examples for side-by-side comparisons.

use flowfield::streamline::{trace_streamline, StreamlineOptions};
use flowfield::{Vec2, VectorField};
use softpipe::{Framebuffer, Rgb};

/// Parameters of a stream-line plot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamPlotOptions {
    /// Seed points along x.
    pub seeds_x: usize,
    /// Seed points along y.
    pub seeds_y: usize,
    /// Length of each stream line as a fraction of the domain width.
    pub length_fraction: f64,
    /// Line colour.
    pub color: Rgb,
}

impl Default for StreamPlotOptions {
    fn default() -> Self {
        StreamPlotOptions {
            seeds_x: 12,
            seeds_y: 12,
            length_fraction: 0.15,
            color: Rgb::new(200, 200, 255),
        }
    }
}

/// Draws stream lines seeded on a regular lattice. Returns the number of
/// polyline segments drawn.
pub(crate) fn stream_plot(
    fb: &mut Framebuffer,
    field: &dyn VectorField,
    opts: &StreamPlotOptions,
) -> usize {
    assert!(opts.seeds_x >= 1 && opts.seeds_y >= 1);
    let domain = field.domain();
    let length = domain.width() * opts.length_fraction;
    let trace_opts = StreamlineOptions::default();
    let mut segments = 0;
    for j in 0..opts.seeds_y {
        for i in 0..opts.seeds_x {
            let uv = Vec2::new(
                (i as f64 + 0.5) / opts.seeds_x as f64,
                (j as f64 + 0.5) / opts.seeds_y as f64,
            );
            let seed = domain.from_unit(uv);
            let sl = trace_streamline(field, seed, length, &trace_opts);
            for w in sl.points.windows(2) {
                let a = domain.to_unit(w[0]);
                let b = domain.to_unit(w[1]);
                fb.draw_line(
                    a.x * (fb.width() - 1) as f64,
                    a.y * (fb.height() - 1) as f64,
                    b.x * (fb.width() - 1) as f64,
                    b.y * (fb.height() - 1) as f64,
                    opts.color,
                );
                segments += 1;
            }
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::analytic::{Uniform, Vortex};
    use flowfield::Rect;

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    #[test]
    fn stream_plot_draws_segments_for_moving_flow() {
        let mut fb = Framebuffer::new(96, 96);
        let field = Vortex {
            omega: 1.0,
            center: Vec2::new(0.5, 0.5),
            domain: domain(),
        };
        let n = stream_plot(&mut fb, &field, &StreamPlotOptions::default());
        assert!(n > 100, "only {n} segments drawn");
        let lit = fb.pixels().iter().filter(|p| p.b > 0).count();
        assert!(lit > 200);
    }

    #[test]
    fn stagnant_flow_draws_no_segments() {
        let mut fb = Framebuffer::new(64, 64);
        let field = Uniform {
            velocity: Vec2::ZERO,
            domain: domain(),
        };
        let n = stream_plot(&mut fb, &field, &StreamPlotOptions::default());
        assert_eq!(n, 0);
    }

    #[test]
    fn seed_count_controls_density() {
        let field = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let mut fb_sparse = Framebuffer::new(64, 64);
        let mut fb_dense = Framebuffer::new(64, 64);
        let sparse = stream_plot(
            &mut fb_sparse,
            &field,
            &StreamPlotOptions {
                seeds_x: 3,
                seeds_y: 3,
                ..Default::default()
            },
        );
        let dense = stream_plot(
            &mut fb_dense,
            &field,
            &StreamPlotOptions {
                seeds_x: 10,
                seeds_y: 10,
                ..Default::default()
            },
        );
        assert!(dense > sparse);
    }
}
