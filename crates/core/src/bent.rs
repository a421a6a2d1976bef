//! Bent spots (enhanced spot noise).
//!
//! In highly irregular flows — strong curvature, large direction changes
//! within a spot's footprint — a straight, stretched spot misrepresents the
//! field. Enhanced spot noise [de Leeuw & van Wijk, Vis'95] replaces the
//! single textured polygon by a textured *mesh* tiled around a stream line
//! that is advected through the flow from the spot position. This is the
//! computationally demanding path the paper parallelises: for each spot a
//! stream line must be integrated and a `rows x cols` mesh constructed and
//! rendered (32x17 for the smog application, 16x3 for the DNS application).

use crate::config::{SpotKind, SynthesisConfig};
use crate::spot::{FieldToPixel, Spot, SpotGeometry, SpotJob};
use flowfield::stats::SpeedNormalizer;
use flowfield::streamline::{trace_streamline, Streamline, StreamlineOptions};
use flowfield::{Vec2, VectorField};
use softpipe::cost::CpuWork;
use softpipe::{TexturedMesh, Vertex};

/// Parameters of bent-spot construction derived from the synthesis config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BentSpotParams {
    /// Mesh vertices along the stream line.
    pub rows: usize,
    /// Mesh vertices across the stream line.
    pub cols: usize,
    /// Stream-line length in field units.
    pub length: f64,
    /// Spot half-width across the stream line, in pixels.
    pub half_width_pixels: f64,
}

impl BentSpotParams {
    /// Derives the bent-spot parameters at a given position from the config:
    /// the stream-line length grows with the local speed (up to
    /// `max_stretch` times the base diameter) and the width shrinks
    /// correspondingly, mirroring the standard spot transform.
    pub(crate) fn at_position(
        field: &dyn VectorField,
        position: Vec2,
        cfg: &SynthesisConfig,
        mapper: &FieldToPixel,
        normalizer: &SpeedNormalizer,
    ) -> Option<Self> {
        let (rows, cols) = match cfg.spot_kind {
            SpotKind::Bent { rows, cols } => (rows, cols),
            SpotKind::Disc => return None,
        };
        let speed = field.speed(position);
        let s = normalizer.normalize(speed);
        let stretch = 1.0 + (cfg.max_stretch - 1.0) * s;
        let radius_field = mapper.pixels_to_length(cfg.spot_radius_pixels());
        Some(BentSpotParams {
            rows,
            cols,
            length: 2.0 * radius_field * stretch,
            half_width_pixels: cfg.spot_radius_pixels() / stretch.sqrt(),
        })
    }
}

/// Builds the textured mesh of a bent spot by tiling a ribbon of width
/// `2 * half_width` around the resampled stream line. Texture `u` runs along
/// the stream line, `v` across it, so the spot texture is stretched along the
/// flow.
pub(crate) fn bent_spot_mesh(
    streamline: &Streamline,
    params: &BentSpotParams,
    mapper: &FieldToPixel,
) -> TexturedMesh {
    let centers_field = streamline.resample(params.rows);
    let centers: Vec<Vec2> = centers_field.iter().map(|p| mapper.to_pixel(*p)).collect();
    let tangents = Streamline::tangents(&centers);
    let mut vertices = Vec::with_capacity(params.rows * params.cols);
    for r in 0..params.rows {
        let u = r as f32 / (params.rows - 1) as f32;
        let center = centers[r];
        // Degenerate tangents (stagnation) fall back to the x axis inside
        // `tangents`, so the normal is always well defined.
        let normal = tangents[r].perp();
        for c in 0..params.cols {
            let v = c as f32 / (params.cols - 1) as f32;
            let offset = (v as f64 * 2.0 - 1.0) * params.half_width_pixels;
            vertices.push(Vertex::new(center + normal * offset, u, v));
        }
    }
    TexturedMesh::new(params.rows, params.cols, vertices)
}

/// Builds the [`SpotJob`] of a bent spot: traces the stream line through the
/// flow, tiles the ribbon mesh and reports the CPU work performed.
///
/// Falls back to a degenerate (but valid) mesh when the stream line collapses
/// to a point (stagnation regions), so the caller never has to special-case.
pub(crate) fn build_bent_spot(
    field: &dyn VectorField,
    spot: &Spot,
    cfg: &SynthesisConfig,
    mapper: &FieldToPixel,
    normalizer: &SpeedNormalizer,
) -> SpotJob {
    let params = BentSpotParams::at_position(field, spot.position, cfg, mapper, normalizer)
        .expect("build_bent_spot called with a non-bent spot kind");
    let opts = StreamlineOptions {
        step_fraction: 1.0 / params.rows as f64,
        integrator: cfg.integrator,
        ..Default::default()
    };
    let streamline = trace_streamline(field, spot.position, params.length, &opts);
    let steps = streamline.points.len() as u64;
    let mesh = if streamline.points.len() >= 2 {
        bent_spot_mesh(&streamline, &params, mapper)
    } else {
        // Stagnation: render a tiny isotropic patch instead of nothing, so
        // stagnant regions still receive noise energy.
        degenerate_patch(&params, mapper.to_pixel(spot.position))
    };
    let cpu_work = CpuWork {
        streamline_steps: steps,
        mesh_vertices: mesh.vertex_count() as u64,
        spots: 1,
    };
    SpotJob {
        geometry: SpotGeometry::Mesh(mesh),
        intensity: spot.intensity,
        cpu_work,
        // Bent-spot meshes are always built in software: the stream line has
        // to be integrated on the CPU anyway, so there is nothing to gain
        // from a per-spot pipe transform.
        pipe_transform: None,
    }
}

/// A small axis-aligned patch used when the stream line degenerates.
fn degenerate_patch(params: &BentSpotParams, center: Vec2) -> TexturedMesh {
    let w = params.half_width_pixels.max(0.5);
    let mut vertices = Vec::with_capacity(params.rows * params.cols);
    for r in 0..params.rows {
        let u = r as f32 / (params.rows - 1) as f32;
        for c in 0..params.cols {
            let v = c as f32 / (params.cols - 1) as f32;
            let p = center + Vec2::new((u as f64 * 2.0 - 1.0) * w, (v as f64 * 2.0 - 1.0) * w);
            vertices.push(Vertex::new(p, u, v));
        }
    }
    TexturedMesh::new(params.rows, params.cols, vertices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpotKind;
    use flowfield::analytic::{Uniform, Vortex};
    use flowfield::stats::SpeedNormalizer;
    use flowfield::Rect;

    fn cfg_bent(rows: usize, cols: usize) -> SynthesisConfig {
        SynthesisConfig {
            spot_kind: SpotKind::Bent { rows, cols },
            texture_size: 256,
            spot_radius: 0.05,
            ..SynthesisConfig::small_test()
        }
    }

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    #[test]
    fn params_derive_from_config_and_speed() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let cfg = cfg_bent(16, 3);
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let norm = SpeedNormalizer::new(0.0, 1.0);
        let p = BentSpotParams::at_position(&f, Vec2::new(0.5, 0.5), &cfg, &mapper, &norm).unwrap();
        assert_eq!(p.rows, 16);
        assert_eq!(p.cols, 3);
        // Full speed: length = 2 * radius_field * max_stretch.
        let radius_field = mapper.pixels_to_length(cfg.spot_radius_pixels());
        assert!((p.length - 2.0 * radius_field * cfg.max_stretch).abs() < 1e-9);
        assert!(p.half_width_pixels < cfg.spot_radius_pixels());
    }

    #[test]
    fn params_none_for_disc_kind() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let norm = SpeedNormalizer::new(0.0, 1.0);
        assert!(
            BentSpotParams::at_position(&f, Vec2::new(0.5, 0.5), &cfg, &mapper, &norm).is_none()
        );
    }

    #[test]
    fn bent_spot_in_uniform_flow_is_a_straight_ribbon() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let cfg = cfg_bent(8, 3);
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let norm = SpeedNormalizer::new(0.0, 1.0);
        let spot = Spot {
            position: Vec2::new(0.5, 0.5),
            intensity: 1.0,
        };
        let job = build_bent_spot(&f, &spot, &cfg, &mapper, &norm);
        let mesh = match &job.geometry {
            SpotGeometry::Mesh(m) => m,
            _ => panic!("expected a mesh"),
        };
        assert_eq!(mesh.rows(), 8);
        assert_eq!(mesh.cols(), 3);
        // In a horizontal uniform flow the ribbon's centre column stays at
        // constant y.
        let y_center = mapper.to_pixel(spot.position).y;
        for r in 0..mesh.rows() {
            let v = mesh.vertex(r, 1); // middle column
            assert!(
                (v.position.y - y_center).abs() < 1.0,
                "row {r}: {:?}",
                v.position
            );
        }
        // CPU work counted.
        assert_eq!(job.cpu_work.spots, 1);
        assert!(job.cpu_work.streamline_steps > 0);
        assert_eq!(job.cpu_work.mesh_vertices, 24);
    }

    #[test]
    fn bent_spot_follows_vortex_curvature() {
        let f = Vortex {
            omega: 1.0,
            center: Vec2::new(0.5, 0.5),
            domain: domain(),
        };
        let cfg = cfg_bent(16, 3);
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let norm = SpeedNormalizer::new(0.0, 0.5);
        let spot = Spot {
            position: Vec2::new(0.8, 0.5),
            intensity: 1.0,
        };
        let job = build_bent_spot(&f, &spot, &cfg, &mapper, &norm);
        let mesh = match &job.geometry {
            SpotGeometry::Mesh(m) => m,
            _ => panic!("expected a mesh"),
        };
        // The centre column of the ribbon stays (roughly) on the circle of
        // radius 0.3 around the vortex centre — i.e. the spot bends.
        let center_px = mapper.to_pixel(Vec2::new(0.5, 0.5));
        let expected_radius = mapper.length_to_pixels(0.3);
        for r in 0..mesh.rows() {
            let v = mesh.vertex(r, 1);
            let d = (v.position - center_px).norm();
            assert!(
                (d - expected_radius).abs() < expected_radius * 0.15,
                "row {r}: radius {d} vs {expected_radius}"
            );
        }
        // And the ribbon is genuinely curved: first and last row tangent
        // directions differ.
        let first = mesh.vertex(1, 1).position - mesh.vertex(0, 1).position;
        let last =
            mesh.vertex(mesh.rows() - 1, 1).position - mesh.vertex(mesh.rows() - 2, 1).position;
        let cos = first.normalized().dot(last.normalized());
        assert!(cos < 0.999, "ribbon did not bend (cos = {cos})");
    }

    #[test]
    fn stagnant_flow_produces_degenerate_patch_not_panic() {
        let f = Uniform {
            velocity: Vec2::ZERO,
            domain: domain(),
        };
        let cfg = cfg_bent(4, 3);
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let norm = SpeedNormalizer::new(0.0, 1.0);
        let spot = Spot {
            position: Vec2::new(0.5, 0.5),
            intensity: 0.5,
        };
        let job = build_bent_spot(&f, &spot, &cfg, &mapper, &norm);
        assert_eq!(job.geometry.vertex_count(), 12);
        let b = job.geometry.bounds();
        assert!(b.contains(mapper.to_pixel(spot.position)));
    }

    #[test]
    fn paper_mesh_resolutions_produce_expected_vertex_counts() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.5),
            domain: domain(),
        };
        let norm = SpeedNormalizer::new(0.0, 2.0);
        for (rows, cols) in [(32usize, 17usize), (16, 3)] {
            let cfg = cfg_bent(rows, cols);
            let mapper = FieldToPixel::new(domain(), cfg.texture_size);
            let spot = Spot {
                position: Vec2::new(0.4, 0.6),
                intensity: 1.0,
            };
            let job = build_bent_spot(&f, &spot, &cfg, &mapper, &norm);
            assert_eq!(job.geometry.vertex_count(), rows * cols);
        }
    }

    #[test]
    #[should_panic(expected = "non-bent spot kind")]
    fn build_bent_spot_rejects_disc_config() {
        let f = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let norm = SpeedNormalizer::new(0.0, 1.0);
        let spot = Spot {
            position: Vec2::new(0.5, 0.5),
            intensity: 1.0,
        };
        let _ = build_bent_spot(&f, &spot, &cfg, &mapper, &norm);
    }
}
