//! Field statistics and derived quantities.
//!
//! Spot transformation scales the spot along the local flow direction in
//! proportion to the velocity magnitude relative to the field's overall
//! magnitude range, so the synthesis pipeline needs cheap global statistics
//! of the sampled field.

use crate::grid::VectorField;
use crate::vec2::Vec2;

/// Summary statistics of a vector field sampled on a lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    /// Minimum velocity magnitude over the sample lattice.
    pub min_speed: f64,
    /// Maximum velocity magnitude over the sample lattice.
    pub max_speed: f64,
    /// Mean velocity magnitude.
    pub mean_speed: f64,
    /// Standard deviation of the velocity magnitude (a turbulence-intensity
    /// proxy when normalised by the mean).
    pub std_speed: f64,
    /// Mean velocity vector.
    pub mean_velocity: Vec2,
    /// Number of samples used.
    pub samples: usize,
}

/// Computes [`FieldStats`] by sampling `field` on an `nx` x `ny` lattice.
pub fn field_stats(field: &dyn VectorField, nx: usize, ny: usize) -> FieldStats {
    assert!(nx >= 2 && ny >= 2, "need at least a 2x2 sampling lattice");
    let domain = field.domain();
    let mut min_speed = f64::INFINITY;
    let mut max_speed = f64::NEG_INFINITY;
    let mut sum_speed = 0.0;
    let mut sum_sq = 0.0;
    let mut sum_vel = Vec2::ZERO;
    let n = nx * ny;
    for j in 0..ny {
        for i in 0..nx {
            let uv = Vec2::new(i as f64 / (nx - 1) as f64, j as f64 / (ny - 1) as f64);
            let v = field.velocity(domain.from_unit(uv));
            let s = v.norm();
            min_speed = min_speed.min(s);
            max_speed = max_speed.max(s);
            sum_speed += s;
            sum_sq += s * s;
            sum_vel += v;
        }
    }
    let mean_speed = sum_speed / n as f64;
    let var = (sum_sq / n as f64 - mean_speed * mean_speed).max(0.0);
    FieldStats {
        min_speed,
        max_speed,
        mean_speed,
        std_speed: var.sqrt(),
        mean_velocity: sum_vel / n as f64,
        samples: n,
    }
}

/// A normalisation helper mapping speeds into `[0, 1]` given field statistics.
#[derive(Debug, Clone, Copy)]
pub struct SpeedNormalizer {
    lo: f64,
    hi: f64,
}

impl SpeedNormalizer {
    /// Builds a normaliser from field statistics.
    pub fn from_stats(stats: &FieldStats) -> Self {
        SpeedNormalizer {
            lo: stats.min_speed,
            hi: stats.max_speed,
        }
    }

    /// Builds a normaliser from an explicit range.
    pub fn new(lo: f64, hi: f64) -> Self {
        SpeedNormalizer { lo, hi }
    }

    /// Maps a speed into `[0, 1]`; degenerate ranges map everything to 0.5.
    pub fn normalize(&self, speed: f64) -> f64 {
        let span = self.hi - self.lo;
        if span <= 1e-300 {
            0.5
        } else {
            ((speed - self.lo) / span).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{Uniform, Vortex};
    use crate::grid::{RegularGrid, ScalarGrid};
    use crate::vec2::Rect;

    impl RegularGrid {
        /// Creates a grid by discretising an arbitrary continuous field.
        fn sample_field(nx: usize, ny: usize, field: &dyn VectorField) -> Self {
            RegularGrid::from_fn(nx, ny, field.domain(), |p| field.velocity(p))
        }
    }

    fn dom() -> Rect {
        Rect::new(Vec2::new(-1.0, -1.0), Vec2::new(1.0, 1.0))
    }

    #[test]
    fn stats_of_uniform_field() {
        let f = Uniform {
            velocity: Vec2::new(3.0, 4.0),
            domain: dom(),
        };
        let s = field_stats(&f, 10, 10);
        assert!((s.min_speed - 5.0).abs() < 1e-12);
        assert!((s.max_speed - 5.0).abs() < 1e-12);
        assert!((s.mean_speed - 5.0).abs() < 1e-12);
        assert!(s.std_speed < 1e-9);
        assert!(s.turbulence_intensity() < 1e-9);
        assert_eq!(s.samples, 100);
    }

    #[test]
    fn stats_of_vortex_have_positive_spread() {
        let f = Vortex {
            omega: 1.0,
            center: Vec2::ZERO,
            domain: dom(),
        };
        let s = field_stats(&f, 20, 20);
        assert!(s.min_speed < s.max_speed);
        assert!(s.std_speed > 0.0);
        assert!(s.turbulence_intensity() > 0.0);
        // Mean velocity of a symmetric vortex is ~0.
        assert!(s.mean_velocity.norm() < 1e-9);
    }

    #[test]
    fn vorticity_grid_of_solid_body_rotation() {
        let f = Vortex {
            omega: 2.0,
            center: Vec2::ZERO,
            domain: dom(),
        };
        let g = RegularGrid::sample_field(21, 21, &f);
        let w = vorticity_grid(&g);
        // Curl of solid-body rotation is 2*omega everywhere (interior nodes).
        let v = w.node(10, 10);
        assert!((v - 4.0).abs() < 1e-6, "vorticity {v}");
    }

    #[test]
    fn divergence_grid_of_divergence_free_field_is_small() {
        let f = Vortex {
            omega: 1.0,
            center: Vec2::ZERO,
            domain: dom(),
        };
        let g = RegularGrid::sample_field(31, 31, &f);
        let d = divergence_grid(&g);
        let max_abs = d.samples().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max_abs < 1e-6, "max |div| = {max_abs}");
    }

    #[test]
    fn speed_grid_matches_node_norms() {
        let f = Uniform {
            velocity: Vec2::new(0.0, 2.0),
            domain: dom(),
        };
        let g = RegularGrid::sample_field(5, 5, &f);
        let s = speed_grid(&g);
        assert!(s.samples().iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn normalizer_maps_range_to_unit_interval() {
        let n = SpeedNormalizer::new(2.0, 6.0);
        assert!((n.normalize(2.0) - 0.0).abs() < 1e-12);
        assert!((n.normalize(6.0) - 1.0).abs() < 1e-12);
        assert!((n.normalize(4.0) - 0.5).abs() < 1e-12);
        assert!((n.normalize(100.0) - 1.0).abs() < 1e-12);
        // Degenerate range maps to 0.5.
        let d = SpeedNormalizer::new(3.0, 3.0);
        assert!((d.normalize(3.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_l2_identical_is_zero() {
        let a = vec![1.0, 2.0, 3.0];
        assert!(relative_l2_difference(&a, &a) < 1e-15);
        let b = vec![1.0, 2.0, 4.0];
        assert!(relative_l2_difference(&a, &b) > 0.0);
    }

    #[test]
    #[should_panic(expected = "same shape")]
    fn relative_l2_rejects_shape_mismatch() {
        let _ = relative_l2_difference(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn boundary_tangential_flow_of_uniform_field() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: dom(),
        };
        let block = Rect::new(Vec2::new(-0.2, -0.2), Vec2::new(0.2, 0.2));
        let samples = boundary_tangential_flow(&f, block, 5);
        assert_eq!(samples.len(), 20);
        // Bottom edge tangent is +x, top edge tangent is -x.
        assert!((samples[0].1 - 1.0).abs() < 1e-12);
        assert!((samples[10].1 + 1.0).abs() < 1e-12);
    }

    impl FieldStats {
        /// Relative fluctuation level `std_speed / mean_speed` (0 for uniform
        /// flow, large for turbulent flow). Returns 0 when the mean is ~0.
        fn turbulence_intensity(&self) -> f64 {
            if self.mean_speed.abs() < 1e-300 {
                0.0
            } else {
                self.std_speed / self.mean_speed
            }
        }
    }

    /// Computes the scalar vorticity (curl) of a sampled vector grid using
    /// central differences, returned as a scalar grid on the same lattice.
    fn vorticity_grid(grid: &RegularGrid) -> ScalarGrid {
        let nx = grid.nx();
        let ny = grid.ny();
        let h = grid.spacing();
        let mut out = ScalarGrid::zeros(nx, ny, grid.domain());
        for j in 0..ny {
            for i in 0..nx {
                let ip = (i + 1).min(nx - 1);
                let im = i.saturating_sub(1);
                let jp = (j + 1).min(ny - 1);
                let jm = j.saturating_sub(1);
                let dx = (ip - im) as f64 * h.x;
                let dy = (jp - jm) as f64 * h.y;
                let dvdx = if dx > 0.0 {
                    (grid.node(ip, j).y - grid.node(im, j).y) / dx
                } else {
                    0.0
                };
                let dudy = if dy > 0.0 {
                    (grid.node(i, jp).x - grid.node(i, jm).x) / dy
                } else {
                    0.0
                };
                *out.node_mut(i, j) = dvdx - dudy;
            }
        }
        out
    }

    /// Computes the divergence of a sampled vector grid with central differences.
    fn divergence_grid(grid: &RegularGrid) -> ScalarGrid {
        let nx = grid.nx();
        let ny = grid.ny();
        let h = grid.spacing();
        let mut out = ScalarGrid::zeros(nx, ny, grid.domain());
        for j in 0..ny {
            for i in 0..nx {
                let ip = (i + 1).min(nx - 1);
                let im = i.saturating_sub(1);
                let jp = (j + 1).min(ny - 1);
                let jm = j.saturating_sub(1);
                let dx = (ip - im) as f64 * h.x;
                let dy = (jp - jm) as f64 * h.y;
                let dudx = if dx > 0.0 {
                    (grid.node(ip, j).x - grid.node(im, j).x) / dx
                } else {
                    0.0
                };
                let dvdy = if dy > 0.0 {
                    (grid.node(i, jp).y - grid.node(i, jm).y) / dy
                } else {
                    0.0
                };
                *out.node_mut(i, j) = dudx + dvdy;
            }
        }
        out
    }

    /// The magnitude of a vector grid as a scalar grid.
    fn speed_grid(grid: &RegularGrid) -> ScalarGrid {
        let mut out = ScalarGrid::zeros(grid.nx(), grid.ny(), grid.domain());
        for j in 0..grid.ny() {
            for i in 0..grid.nx() {
                *out.node_mut(i, j) = grid.node(i, j).norm();
            }
        }
        out
    }

    /// Relative L2 difference between two same-shaped sample slices.
    fn relative_l2_difference(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "grids must have the same shape");
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            num += (x - y) * (x - y);
            den += x * x;
        }
        if den <= 1e-300 {
            num.sqrt()
        } else {
            (num / den).sqrt()
        }
    }

    /// Samples a field along the boundary of a rectangle, returning positions
    /// and tangential velocity components.
    fn boundary_tangential_flow(
        field: &dyn VectorField,
        rect: Rect,
        samples_per_side: usize,
    ) -> Vec<(Vec2, f64)> {
        assert!(samples_per_side >= 2);
        let corners = [
            (rect.min, Vec2::new(rect.max.x, rect.min.y)),
            (Vec2::new(rect.max.x, rect.min.y), rect.max),
            (rect.max, Vec2::new(rect.min.x, rect.max.y)),
            (Vec2::new(rect.min.x, rect.max.y), rect.min),
        ];
        let mut out = Vec::with_capacity(4 * samples_per_side);
        for (a, b) in corners {
            let tangent = (b - a).normalized();
            for k in 0..samples_per_side {
                let t = k as f64 / (samples_per_side - 1) as f64;
                let p = a.lerp(b, t);
                let v = field.velocity(p);
                out.push((p, v.dot(tangent)));
            }
        }
        out
    }
}
