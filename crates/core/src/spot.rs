//! Spots and their data-driven transformation.
//!
//! A spot-noise texture is `f(x) = Σ aᵢ h(x − xᵢ)`: spots of random intensity
//! `aᵢ` drawn at random positions `xᵢ`. Flow visualization enters through the
//! spot *shape*: each spot is rotated to the local flow direction and
//! stretched in proportion to the local speed, so the resulting texture is
//! correlated along stream lines. This module holds the spot instances, the
//! coordinate mapping between field space and texture pixels, and the
//! standard (non-bent) spot geometry construction that runs on the CPUs.

use crate::config::SynthesisConfig;
use flowfield::stats::SpeedNormalizer;
use flowfield::{Mat2, Rect, Vec2, VectorField};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use softpipe::cost::CpuWork;
use softpipe::{TexturedMesh, Vertex};

/// One spot instance: a position in field coordinates and its random,
/// zero-mean intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spot {
    /// Spot position `xᵢ` in field coordinates.
    pub position: Vec2,
    /// Spot intensity `aᵢ`.
    pub intensity: f32,
}

/// Generates `count` spots uniformly distributed over `domain` with zero-mean
/// random intensities in `[-amplitude, amplitude]`, deterministically from
/// `seed`.
pub fn generate_spots(count: usize, domain: Rect, amplitude: f64, seed: u64) -> Vec<Spot> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| Spot {
            position: Vec2::new(
                rng.gen_range(domain.min.x..=domain.max.x),
                rng.gen_range(domain.min.y..=domain.max.y),
            ),
            intensity: rng.gen_range(-amplitude..=amplitude) as f32,
        })
        .collect()
}

/// Maps between field coordinates and texture pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldToPixel {
    domain: Rect,
    texture_size: usize,
}

impl FieldToPixel {
    /// Creates a mapper for a field domain rendered onto a square texture.
    pub fn new(domain: Rect, texture_size: usize) -> Self {
        assert!(texture_size > 0);
        FieldToPixel {
            domain,
            texture_size,
        }
    }

    /// The field domain.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// The texture resolution (texels per side).
    pub fn texture_size(&self) -> usize {
        self.texture_size
    }

    /// Maps a field-space point to pixel coordinates.
    pub fn to_pixel(&self, p: Vec2) -> Vec2 {
        let uv = self.domain.to_unit(p);
        uv * self.texture_size as f64
    }

    /// Maps pixel coordinates back to field space.
    pub fn to_field(&self, px: Vec2) -> Vec2 {
        self.domain.from_unit(px / self.texture_size as f64)
    }

    /// Converts a length along x in field units into pixels.
    pub fn length_to_pixels(&self, len: f64) -> f64 {
        len / self.domain.width() * self.texture_size as f64
    }

    /// Converts a pixel length into field units (along x).
    pub fn pixels_to_length(&self, px: f64) -> f64 {
        px / self.texture_size as f64 * self.domain.width()
    }
}

/// The shape parameters of a transformed standard spot: an ellipse aligned
/// with the local flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotTransform {
    /// Rotation angle of the major axis (radians).
    pub angle: f64,
    /// Half-axis along the flow direction, in pixels.
    pub along: f64,
    /// Half-axis across the flow direction, in pixels.
    pub across: f64,
}

/// Computes the data-driven spot transform at a position: the spot is rotated
/// into the flow direction and elongated by a factor that grows linearly with
/// the normalised speed up to `max_stretch`, while (approximately) preserving
/// the spot area so the overall texture energy stays comparable across the
/// field.
pub fn spot_transform(
    field: &dyn VectorField,
    position: Vec2,
    radius_pixels: f64,
    max_stretch: f64,
    normalizer: &SpeedNormalizer,
) -> SpotTransform {
    let v = field.velocity(position);
    let speed = v.norm();
    let s = normalizer.normalize(speed);
    let stretch = 1.0 + (max_stretch - 1.0) * s;
    let angle = if speed > 1e-12 { v.angle() } else { 0.0 };
    SpotTransform {
        angle,
        along: radius_pixels * stretch,
        across: radius_pixels / stretch.sqrt(),
    }
}

/// Builds the four-vertex textured quad of a standard spot, transformed by
/// the local flow, in pixel coordinates.
pub fn standard_spot_quad(transform: &SpotTransform, center_pixels: Vec2) -> [Vertex; 4] {
    let rot = Mat2::rotation(transform.angle);
    let corners = [
        (Vec2::new(-transform.along, -transform.across), (0.0, 0.0)),
        (Vec2::new(transform.along, -transform.across), (1.0, 0.0)),
        (Vec2::new(transform.along, transform.across), (1.0, 1.0)),
        (Vec2::new(-transform.along, transform.across), (0.0, 1.0)),
    ];
    corners.map(|(offset, (u, v))| Vertex::new(center_pixels + rot.apply(offset), u, v))
}

/// The CPU-side product of processing one spot: either a quad or a bent-spot
/// mesh, plus the spot intensity and the work counters the cost model needs.
#[derive(Debug, Clone)]
pub enum SpotGeometry {
    /// A standard four-vertex spot.
    Quad([Vertex; 4]),
    /// A bent spot (textured mesh around a stream line).
    Mesh(TexturedMesh),
}

impl SpotGeometry {
    /// Number of vertices this geometry submits to a pipe.
    pub fn vertex_count(&self) -> usize {
        match self {
            SpotGeometry::Quad(_) => 4,
            SpotGeometry::Mesh(m) => m.vertex_count(),
        }
    }

    /// Axis-aligned bounding box of the geometry in pixel coordinates.
    pub fn bounds(&self) -> Rect {
        let mut min = Vec2::splat(f64::INFINITY);
        let mut max = Vec2::splat(f64::NEG_INFINITY);
        let mut extend = |p: Vec2| {
            min = min.min(p);
            max = max.max(p);
        };
        match self {
            SpotGeometry::Quad(q) => {
                for v in q {
                    extend(v.position);
                }
            }
            SpotGeometry::Mesh(m) => {
                for v in m.vertices() {
                    extend(v.position);
                }
            }
        }
        Rect::new(min, max)
    }
}

/// A fully processed spot ready for submission to a graphics pipe.
#[derive(Debug, Clone)]
pub struct SpotJob {
    /// The geometry in pixel coordinates (or in spot-local coordinates when
    /// `pipe_transform` is set).
    pub geometry: SpotGeometry,
    /// The spot intensity `aᵢ`.
    pub intensity: f32,
    /// CPU work expended to build this geometry (for the cost model).
    pub cpu_work: CpuWork,
    /// When set, the geometry is expressed in spot-local coordinates and this
    /// transformation must be loaded into the pipe before rendering — the
    /// "spot transformation on the graphics pipe" variant whose per-spot
    /// synchronisation cost the paper's implementation avoids.
    pub pipe_transform: Option<softpipe::Transform2>,
}

/// Builds the [`SpotJob`] of a *standard* (non-bent) spot. Bent spots are
/// built by [`crate::bent::build_bent_spot`].
///
/// With `cfg.transform_on_pipe` enabled the quad is emitted in spot-local
/// coordinates (axis-aligned, centred at the origin) and the
/// rotation+translation is attached as a pipe transform instead.
pub fn build_standard_spot(
    field: &dyn VectorField,
    spot: &Spot,
    cfg: &SynthesisConfig,
    mapper: &FieldToPixel,
    normalizer: &SpeedNormalizer,
) -> SpotJob {
    let transform = spot_transform(
        field,
        spot.position,
        cfg.spot_radius_pixels(),
        cfg.max_stretch,
        normalizer,
    );
    let center = mapper.to_pixel(spot.position);
    let (quad, pipe_transform) = if cfg.transform_on_pipe {
        let local = standard_spot_quad(
            &SpotTransform {
                angle: 0.0,
                ..transform
            },
            Vec2::ZERO,
        );
        let t = softpipe::Transform2::new(Mat2::rotation(transform.angle), center);
        (local, Some(t))
    } else {
        (standard_spot_quad(&transform, center), None)
    };
    SpotJob {
        geometry: SpotGeometry::Quad(quad),
        intensity: spot.intensity,
        cpu_work: CpuWork {
            streamline_steps: 0,
            mesh_vertices: 4,
            spots: 1,
        },
        pipe_transform,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowfield::analytic::Uniform;
    use flowfield::stats::{field_stats, SpeedNormalizer};

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    #[test]
    fn generated_spots_are_in_domain_and_deterministic() {
        let spots = generate_spots(500, domain(), 1.0, 7);
        assert_eq!(spots.len(), 500);
        assert!(spots.iter().all(|s| domain().contains(s.position)));
        assert!(spots.iter().all(|s| s.intensity.abs() <= 1.0));
        let again = generate_spots(500, domain(), 1.0, 7);
        assert_eq!(spots[0].position, again[0].position);
        // Zero-mean-ish intensities.
        let mean: f64 = spots.iter().map(|s| s.intensity as f64).sum::<f64>() / 500.0;
        assert!(mean.abs() < 0.1);
    }

    #[test]
    fn field_to_pixel_roundtrip() {
        let m = FieldToPixel::new(Rect::new(Vec2::new(-2.0, 1.0), Vec2::new(4.0, 5.0)), 256);
        let p = Vec2::new(1.0, 2.5);
        let px = m.to_pixel(p);
        let back = m.to_field(px);
        assert!((back - p).norm() < 1e-9);
        // Corners map to texture corners.
        assert!((m.to_pixel(Vec2::new(-2.0, 1.0)) - Vec2::ZERO).norm() < 1e-9);
        assert!((m.to_pixel(Vec2::new(4.0, 5.0)) - Vec2::splat(256.0)).norm() < 1e-9);
    }

    #[test]
    fn length_conversion_roundtrip() {
        let m = FieldToPixel::new(Rect::new(Vec2::ZERO, Vec2::new(10.0, 10.0)), 512);
        assert!((m.length_to_pixels(1.0) - 51.2).abs() < 1e-9);
        assert!((m.pixels_to_length(m.length_to_pixels(3.3)) - 3.3).abs() < 1e-9);
    }

    #[test]
    fn transform_aligns_with_flow_and_stretches_with_speed() {
        let f = Uniform {
            velocity: Vec2::new(0.0, 2.0),
            domain: domain(),
        };
        let norm = SpeedNormalizer::new(0.0, 2.0);
        let t = spot_transform(&f, Vec2::new(0.5, 0.5), 10.0, 4.0, &norm);
        // Flow points along +y, so the angle is pi/2.
        assert!((t.angle - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        // Full speed: stretch factor 4.
        assert!((t.along - 40.0).abs() < 1e-9);
        assert!(t.across < 10.0);
    }

    #[test]
    fn zero_speed_spot_is_isotropic() {
        let f = Uniform {
            velocity: Vec2::ZERO,
            domain: domain(),
        };
        let stats = field_stats(&f, 4, 4);
        let norm = SpeedNormalizer::from_stats(&stats);
        let t = spot_transform(&f, Vec2::new(0.5, 0.5), 8.0, 4.0, &norm);
        // Degenerate speed range: normaliser returns 0.5 -> moderate stretch,
        // but the angle defaults to zero and the axes stay finite.
        assert_eq!(t.angle, 0.0);
        assert!(t.along.is_finite() && t.across.is_finite());
        assert!(t.along >= t.across);
    }

    #[test]
    fn standard_quad_centres_on_position_and_respects_rotation() {
        let t = SpotTransform {
            angle: 0.0,
            along: 6.0,
            across: 2.0,
        };
        let quad = standard_spot_quad(&t, Vec2::new(100.0, 50.0));
        // Centroid equals the centre.
        let centroid = quad.iter().fold(Vec2::ZERO, |acc, v| acc + v.position) / 4.0;
        assert!((centroid - Vec2::new(100.0, 50.0)).norm() < 1e-9);
        // Width along x is 12, height 4.
        let xs: Vec<f64> = quad.iter().map(|v| v.position.x).collect();
        let ys: Vec<f64> = quad.iter().map(|v| v.position.y).collect();
        let w = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        let h = ys.iter().cloned().fold(f64::MIN, f64::max)
            - ys.iter().cloned().fold(f64::MAX, f64::min);
        assert!((w - 12.0).abs() < 1e-9);
        assert!((h - 4.0).abs() < 1e-9);

        // Rotated by 90 degrees the roles of width and height swap.
        let t90 = SpotTransform {
            angle: std::f64::consts::FRAC_PI_2,
            ..t
        };
        let quad90 = standard_spot_quad(&t90, Vec2::ZERO);
        let xs: Vec<f64> = quad90.iter().map(|v| v.position.x).collect();
        let w90 = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!((w90 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn build_standard_spot_reports_cpu_work() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let norm = SpeedNormalizer::new(0.0, 1.0);
        let spot = Spot {
            position: Vec2::new(0.5, 0.5),
            intensity: 0.7,
        };
        let job = build_standard_spot(&f, &spot, &cfg, &mapper, &norm);
        assert_eq!(job.intensity, 0.7);
        assert_eq!(job.cpu_work.spots, 1);
        assert_eq!(job.geometry.vertex_count(), 4);
        // The quad sits near the middle of the texture.
        let b = job.geometry.bounds();
        assert!(b.contains(Vec2::new(64.0, 64.0)));
    }

    #[test]
    fn geometry_bounds_cover_all_vertices() {
        let quad = standard_spot_quad(
            &SpotTransform {
                angle: 0.3,
                along: 5.0,
                across: 2.0,
            },
            Vec2::new(10.0, 10.0),
        );
        let g = SpotGeometry::Quad(quad);
        let b = g.bounds();
        for v in &quad {
            assert!(b.expanded(1e-12).contains(v.position));
        }
    }
}
