//! Stream-line tracing.
//!
//! Bent spots (enhanced spot noise, \[4\] in the paper) are built by advecting
//! a stream line through the flow and tiling a surface around it. The tracer
//! here integrates in both directions from a seed point, with arc-length
//! parameterisation so that the resulting polyline can be resampled into the
//! fixed-resolution meshes the paper uses (32x17 and 16x3 vertices).

use crate::grid::VectorField;
use crate::integrate::Integrator;
use crate::vec2::Vec2;

/// Parameters controlling stream-line tracing.
#[derive(Debug, Clone, Copy)]
pub struct StreamlineOptions {
    /// Integration step size expressed as a fraction of the requested
    /// stream-line length.
    pub step_fraction: f64,
    /// Integration scheme.
    pub integrator: Integrator,
    /// Stop tracing when the local speed drops below this threshold
    /// (stagnation regions).
    pub min_speed: f64,
    /// Hard cap on the number of integration steps per direction.
    pub max_steps: usize,
}

impl Default for StreamlineOptions {
    fn default() -> Self {
        StreamlineOptions {
            step_fraction: 0.05,
            integrator: Integrator::RungeKutta4,
            min_speed: 1e-9,
            max_steps: 2048,
        }
    }
}

/// A traced stream line: an ordered polyline through the field, with the
/// index of the vertex corresponding to the original seed point.
#[derive(Debug, Clone)]
pub struct Streamline {
    /// Polyline vertices ordered upstream to downstream.
    pub points: Vec<Vec2>,
    /// Index into `points` of the seed position.
    pub seed_index: usize,
}

impl Streamline {
    /// Total arc length of the polyline.
    pub fn arc_length(&self) -> f64 {
        self.points.windows(2).map(|w| (w[1] - w[0]).norm()).sum()
    }

    /// Resamples the polyline to exactly `n` points, uniformly spaced in arc
    /// length. Degenerate (single-point) stream lines return `n` copies of
    /// that point.
    pub fn resample(&self, n: usize) -> Vec<Vec2> {
        assert!(n >= 2, "resampling needs at least two points");
        if self.points.len() < 2 {
            return vec![self.points.first().copied().unwrap_or(Vec2::ZERO); n];
        }
        let total = self.arc_length();
        if total <= 0.0 {
            return vec![self.points[0]; n];
        }
        // Cumulative arc length per vertex.
        let mut cum = Vec::with_capacity(self.points.len());
        cum.push(0.0);
        for w in self.points.windows(2) {
            let last = *cum.last().unwrap();
            cum.push(last + (w[1] - w[0]).norm());
        }
        let mut out = Vec::with_capacity(n);
        let mut seg = 0usize;
        for k in 0..n {
            let target = total * k as f64 / (n - 1) as f64;
            while seg + 1 < cum.len() - 1 && cum[seg + 1] < target {
                seg += 1;
            }
            let span = (cum[seg + 1] - cum[seg]).max(1e-300);
            let t = ((target - cum[seg]) / span).clamp(0.0, 1.0);
            out.push(self.points[seg].lerp(self.points[seg + 1], t));
        }
        out
    }

    /// Unit tangent vectors at each vertex of a polyline (central differences
    /// in the interior, one-sided at the ends).
    pub fn tangents(points: &[Vec2]) -> Vec<Vec2> {
        let n = points.len();
        let mut out = vec![Vec2::UNIT_X; n];
        if n < 2 {
            return out;
        }
        for i in 0..n {
            let d = if i == 0 {
                points[1] - points[0]
            } else if i == n - 1 {
                points[n - 1] - points[n - 2]
            } else {
                points[i + 1] - points[i - 1]
            };
            let t = d.normalized();
            out[i] = if t == Vec2::ZERO {
                out[i.saturating_sub(1)]
            } else {
                t
            };
        }
        out
    }
}

/// Traces a stream line of approximately `length` arc length centred on
/// `seed`: half the length is integrated upstream (against the flow), half
/// downstream. Tracing stops early at domain boundaries or stagnation.
pub fn trace_streamline(
    field: &dyn VectorField,
    seed: Vec2,
    length: f64,
    opts: &StreamlineOptions,
) -> Streamline {
    let domain = field.domain();
    let seed = domain.clamp(seed);
    let step = (length * opts.step_fraction).max(1e-12);
    let half_steps = ((length * 0.5) / step).ceil() as usize;
    let half_steps = half_steps.clamp(1, opts.max_steps);

    // Normalised-velocity tracing: equal arc length per step, which is what
    // the mesh resampling needs.
    let march = |start: Vec2, sign: f64| -> Vec<Vec2> {
        let mut pts = Vec::with_capacity(half_steps);
        let mut p = start;
        for _ in 0..half_steps {
            let v = field.velocity(p);
            let speed = v.norm();
            if speed < opts.min_speed {
                break;
            }
            // Step with a normalised field so every step covers `step` of arc
            // length; use the configured integrator on the normalised field.
            let unit_field = NormalizedField { inner: field };
            let next = opts.integrator.step(&unit_field, p, sign * step);
            let next = domain.clamp(next);
            if (next - p).norm() < step * 1e-6 {
                break; // stuck on the boundary
            }
            p = next;
            pts.push(p);
        }
        pts
    };

    let upstream = march(seed, -1.0);
    let downstream = march(seed, 1.0);

    let mut points = Vec::with_capacity(upstream.len() + 1 + downstream.len());
    points.extend(upstream.iter().rev().copied());
    let seed_index = points.len();
    points.push(seed);
    points.extend(downstream);
    Streamline { points, seed_index }
}

/// Wraps a field so that its velocity is normalised to unit magnitude;
/// integrating through it advances by arc length instead of time.
struct NormalizedField<'a> {
    inner: &'a dyn VectorField,
}

impl VectorField for NormalizedField<'_> {
    fn velocity(&self, p: Vec2) -> Vec2 {
        self.inner.velocity(p).normalized()
    }
    fn domain(&self) -> crate::vec2::Rect {
        self.inner.domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{Uniform, Vortex};
    use crate::vec2::Rect;

    #[test]
    fn uniform_flow_streamline_is_straight_and_centered() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: Rect::new(Vec2::new(-10.0, -10.0), Vec2::new(10.0, 10.0)),
        };
        let sl = trace_streamline(&f, Vec2::ZERO, 2.0, &StreamlineOptions::default());
        assert!(sl.points.len() > 10);
        // All points lie on the x axis.
        assert!(sl.points.iter().all(|p| p.y.abs() < 1e-9));
        // Arc length is close to the requested length.
        assert!((sl.arc_length() - 2.0).abs() < 0.2);
        // The seed index points at the origin.
        assert!(sl.points[sl.seed_index].norm() < 1e-9);
    }

    #[test]
    fn streamline_follows_vortex_circle() {
        let f = Vortex {
            omega: 1.0,
            center: Vec2::ZERO,
            domain: Rect::new(Vec2::new(-2.0, -2.0), Vec2::new(2.0, 2.0)),
        };
        let sl = trace_streamline(&f, Vec2::new(1.0, 0.0), 1.0, &StreamlineOptions::default());
        // Every traced point stays on the unit circle.
        for p in &sl.points {
            assert!((p.norm() - 1.0).abs() < 1e-3, "point {p:?} off the circle");
        }
    }

    #[test]
    fn streamline_stops_at_stagnation() {
        let f = Uniform {
            velocity: Vec2::ZERO,
            domain: Rect::UNIT,
        };
        let sl = trace_streamline(&f, Vec2::new(0.5, 0.5), 1.0, &StreamlineOptions::default());
        // Only the seed survives.
        assert_eq!(sl.points.len(), 1);
        assert_eq!(sl.seed_index, 0);
    }

    #[test]
    fn streamline_clamped_at_domain_boundary() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: Rect::UNIT,
        };
        let sl = trace_streamline(&f, Vec2::new(0.95, 0.5), 4.0, &StreamlineOptions::default());
        assert!(sl.points.iter().all(|p| p.x <= 1.0 + 1e-12));
    }

    #[test]
    fn resample_has_requested_count_and_endpoints() {
        let sl = Streamline {
            points: vec![Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(1.0, 1.0)],
            seed_index: 1,
        };
        let r = sl.resample(9);
        assert_eq!(r.len(), 9);
        assert_eq!(r[0], Vec2::ZERO);
        assert!((r[8] - Vec2::new(1.0, 1.0)).norm() < 1e-12);
        // Uniform arc-length spacing: each gap is total/8 = 0.25.
        for w in r.windows(2) {
            assert!(((w[1] - w[0]).norm() - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_degenerate_streamline() {
        let sl = Streamline {
            points: vec![Vec2::new(0.3, 0.3)],
            seed_index: 0,
        };
        let r = sl.resample(5);
        assert_eq!(r.len(), 5);
        assert!(r.iter().all(|p| *p == Vec2::new(0.3, 0.3)));
    }

    #[test]
    fn tangents_point_along_polyline() {
        let pts = vec![Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(2.0, 0.0)];
        let t = Streamline::tangents(&pts);
        assert_eq!(t.len(), 3);
        for v in t {
            assert!((v - Vec2::UNIT_X).norm() < 1e-12);
        }
    }

    #[test]
    fn tangents_handle_single_point() {
        let t = Streamline::tangents(&[Vec2::ZERO]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0], Vec2::UNIT_X);
    }
}
