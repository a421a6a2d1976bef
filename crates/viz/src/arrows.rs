//! Arrow plots — the baseline the paper replaced.
//!
//! "In \[6\] arrow plots were used to display the wind fields, which we have
//! now replaced with spot noise textures." The arrow plot is kept as the
//! baseline visualization: it shows the field only at discrete positions,
//! which is exactly the limitation spot noise removes. The benchmark harness
//! also uses it to compare the rendering cost of the two techniques.

use flowfield::{Vec2, VectorField};
use softpipe::{Framebuffer, Rgb};

/// Parameters of an arrow plot.
#[derive(Debug, Clone, Copy)]
pub struct ArrowPlotOptions {
    /// Number of arrows along x.
    pub nx: usize,
    /// Number of arrows along y.
    pub ny: usize,
    /// Length in pixels of an arrow at the field's maximum speed.
    pub max_length_pixels: f64,
    /// Arrow colour.
    pub color: Rgb,
}

impl Default for ArrowPlotOptions {
    fn default() -> Self {
        ArrowPlotOptions {
            nx: 24,
            ny: 24,
            max_length_pixels: 14.0,
            color: Rgb::new(230, 230, 230),
        }
    }
}

/// Draws an arrow plot of `field` over the whole framebuffer.
/// Returns the number of arrows actually drawn (stagnant samples are
/// skipped).
pub fn arrow_plot(fb: &mut Framebuffer, field: &dyn VectorField, opts: &ArrowPlotOptions) -> usize {
    assert!(
        opts.nx >= 2 && opts.ny >= 2,
        "need at least a 2x2 arrow grid"
    );
    let domain = field.domain();
    // Normalise by the maximum speed over the arrow lattice.
    let mut max_speed = 0.0f64;
    for j in 0..opts.ny {
        for i in 0..opts.nx {
            let uv = Vec2::new(
                (i as f64 + 0.5) / opts.nx as f64,
                (j as f64 + 0.5) / opts.ny as f64,
            );
            max_speed = max_speed.max(field.velocity(domain.from_unit(uv)).norm());
        }
    }
    if max_speed <= 0.0 {
        return 0;
    }
    let mut drawn = 0;
    for j in 0..opts.ny {
        for i in 0..opts.nx {
            let uv = Vec2::new(
                (i as f64 + 0.5) / opts.nx as f64,
                (j as f64 + 0.5) / opts.ny as f64,
            );
            let p = domain.from_unit(uv);
            let v = field.velocity(p);
            let speed = v.norm();
            if speed < 1e-9 * max_speed {
                continue;
            }
            let dir = v / speed;
            let len = opts.max_length_pixels * (speed / max_speed);
            let base = Vec2::new(uv.x * fb.width() as f64, uv.y * fb.height() as f64);
            let tip = base + dir * len;
            fb.draw_line(base.x, base.y, tip.x, tip.y, opts.color);
            // Arrow head: two short strokes at +-150 degrees from the shaft.
            let head = len * 0.35;
            for angle in [2.6, -2.6] {
                let h = tip + dir.rotated(angle) * head;
                fb.draw_line(tip.x, tip.y, h.x, h.y, opts.color);
            }
            drawn += 1;
        }
    }
    drawn
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::analytic::{Uniform, Vortex};
    use flowfield::Rect;

    fn fb() -> Framebuffer {
        Framebuffer::new(128, 128)
    }

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    #[test]
    fn arrow_plot_draws_expected_count() {
        let mut fb = fb();
        let field = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let n = arrow_plot(&mut fb, &field, &ArrowPlotOptions::default());
        assert_eq!(n, 24 * 24);
        // Something was drawn.
        let lit = fb.pixels().iter().filter(|p| p.r > 0).count();
        assert!(lit > 500, "only {lit} pixels lit");
    }

    #[test]
    fn stagnant_field_draws_nothing() {
        let mut fb = fb();
        let field = Uniform {
            velocity: Vec2::ZERO,
            domain: domain(),
        };
        let n = arrow_plot(&mut fb, &field, &ArrowPlotOptions::default());
        assert_eq!(n, 0);
        assert!(fb.pixels().iter().all(|p| *p == Rgb::default()));
    }

    #[test]
    fn vortex_arrows_skip_centre_only() {
        let mut fb = fb();
        let field = Vortex {
            omega: 1.0,
            center: Vec2::new(0.5, 0.5),
            domain: domain(),
        };
        let n = arrow_plot(
            &mut fb,
            &field,
            &ArrowPlotOptions {
                nx: 11,
                ny: 11,
                ..Default::default()
            },
        );
        assert!(n >= 11 * 11 - 1);
    }

    #[test]
    #[should_panic(expected = "2x2 arrow grid")]
    fn degenerate_grid_rejected() {
        let mut fb = fb();
        let field = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let _ = arrow_plot(
            &mut fb,
            &field,
            &ArrowPlotOptions {
                nx: 1,
                ny: 8,
                ..Default::default()
            },
        );
    }
}
