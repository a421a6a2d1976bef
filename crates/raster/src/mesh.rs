//! Textured meshes — the geometric representation of bent spots.
//!
//! A standard spot is a single textured polygon with four vertices; a *bent*
//! spot is a textured mesh (the paper uses 32x17 vertices for the smog
//! application and 16x3 for the turbulence application) generated by tiling
//! a surface around an advected stream line. This module holds the mesh data
//! structure and the code that rasterizes it cell by cell.

use crate::blend::BlendMode;
use crate::raster::{rasterize_mesh, RasterStats, Sampler, Vertex};
use crate::texture::Texture;

/// A structured (rows x cols) grid of textured vertices.
///
/// Row index advances along the stream line, column index across it. The uv
/// coordinates span the spot texture so that the texture is stretched along
/// the flow, which is exactly how bent spots encode direction.
#[derive(Debug, Clone, PartialEq)]
pub struct TexturedMesh {
    rows: usize,
    cols: usize,
    vertices: Vec<Vertex>,
}

impl TexturedMesh {
    /// Creates a mesh from a row-major vertex list.
    ///
    /// # Panics
    /// Panics when the vertex count does not equal `rows * cols` or when the
    /// mesh is smaller than 2x2.
    pub fn new(rows: usize, cols: usize, vertices: Vec<Vertex>) -> Self {
        assert!(rows >= 2 && cols >= 2, "mesh must be at least 2x2");
        assert_eq!(vertices.len(), rows * cols, "vertex count mismatch");
        TexturedMesh {
            rows,
            cols,
            vertices,
        }
    }

    /// Number of rows (samples along the stream line).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (samples across the stream line).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The vertices in row-major order.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// Vertex at `(row, col)`.
    pub fn vertex(&self, row: usize, col: usize) -> Vertex {
        self.vertices[row * self.cols + col]
    }

    /// Approximate number of bytes this mesh occupies when streamed over the
    /// bus to the graphics subsystem: position (2 x f32) + uv (2 x f32) per
    /// vertex, which is the compact format a tuned implementation would use.
    pub fn bus_bytes(&self) -> usize {
        self.vertex_count() * 4 * std::mem::size_of::<f32>()
    }

    /// The corners of cell `(row, col)` in perimeter order: `v00, v10, v11,
    /// v01`, where `v10` is one column over and `v01` one row down. The
    /// cell's triangles are `(v00, v10, v11)` and `(v00, v11, v01)`.
    #[cfg(any(test, feature = "reference"))]
    fn cell(&self, row: usize, col: usize) -> [Vertex; 4] {
        [
            self.vertex(row, col),
            self.vertex(row, col + 1),
            self.vertex(row + 1, col + 1),
            self.vertex(row + 1, col),
        ]
    }

    /// Rasterizes the whole mesh into `target`, cell by cell, each cell as
    /// two triangles sampled through `sampler` and modulated by
    /// `intensity`. Each mesh row sets up its edges once into a table its
    /// cells share, and narrow cells take the cell walker, which reads its
    /// triangles straight from that table (see [`crate::raster`]'s "Mesh
    /// cells"); the texels and counters are exactly those of setting up
    /// and walking every triangle on its own.
    ///
    /// A [`Sampler::Footprint`] selects its pyramid level **per mesh row**,
    /// not per triangle: the finest level any of the row's triangles asks
    /// for. A bent row's cells share one stretch regime, so this removes
    /// the level seams between adjacent cells of a row while never sampling
    /// coarser than per-triangle selection would; on a uniformly stretched
    /// row the two agree. Coverage, counters, the edge table and the cell
    /// walker are those of exact sampling.
    ///
    /// Vertex traffic on the bus is one vertex per mesh node (strip
    /// submission), counted up front; the per-cell triangles therefore do
    /// not count vertices of their own.
    pub fn rasterize(
        &self,
        target: &mut Texture,
        sampler: Sampler<'_>,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        stats.vertices += self.vertex_count() as u64;
        rasterize_mesh(
            target,
            self.cols,
            &self.vertices,
            sampler,
            intensity,
            blend,
            stats,
        );
    }

    /// Reference-path counterpart of [`TexturedMesh::rasterize`], using the
    /// retained naive per-pixel rasterizer; the equivalence tests and the
    /// before/after benchmarks compare against it.
    #[cfg(any(test, feature = "reference"))]
    pub fn rasterize_reference(
        &self,
        target: &mut Texture,
        spot_texture: &Texture,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        stats.vertices += self.vertex_count() as u64;
        for r in 0..self.rows - 1 {
            for c in 0..self.cols - 1 {
                let [v00, v10, v11, v01] = self.cell(r, c);
                for (v0, v1, v2) in [(v00, v10, v11), (v00, v11, v01)] {
                    crate::raster::reference::rasterize_triangle_uncounted(
                        target,
                        spot_texture,
                        v0,
                        v1,
                        v2,
                        intensity,
                        blend,
                        stats,
                    );
                }
            }
        }
    }
}

/// Builds a rectangular mesh covering the axis-aligned box `[x0,x1]x[y0,y1]`
/// in pixel coordinates, with uv spanning the unit square; primarily a test
/// helper and the degenerate "unbent" mesh.
#[cfg(test)]
pub(crate) fn rectangle_mesh(
    rows: usize,
    cols: usize,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
) -> TexturedMesh {
    assert!(rows >= 2 && cols >= 2);
    let mut vertices = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let t = r as f64 / (rows - 1) as f64;
        for c in 0..cols {
            let s = c as f64 / (cols - 1) as f64;
            vertices.push(Vertex::new(
                flowfield::Vec2::new(x0 + (x1 - x0) * t, y0 + (y1 - y0) * s),
                t as f32,
                s as f32,
            ));
        }
    }
    TexturedMesh::new(rows, cols, vertices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_spot() -> Texture {
        let mut t = Texture::new(4, 4);
        t.fill(1.0);
        t
    }

    #[test]
    fn mesh_dimensions_and_counts() {
        let m = rectangle_mesh(32, 17, 0.0, 0.0, 10.0, 10.0);
        assert_eq!(m.rows(), 32);
        assert_eq!(m.cols(), 17);
        assert_eq!(m.vertex_count(), 32 * 17);
        assert_eq!(m.quad_count(), 31 * 16);
        assert_eq!(m.bus_bytes(), 32 * 17 * 16);
    }

    #[test]
    #[should_panic(expected = "vertex count mismatch")]
    fn mesh_rejects_wrong_vertex_count() {
        let _ = TexturedMesh::new(3, 3, vec![Vertex::new(flowfield::Vec2::ZERO, 0.0, 0.0); 8]);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn mesh_rejects_degenerate_shape() {
        let _ = TexturedMesh::new(1, 5, vec![Vertex::new(flowfield::Vec2::ZERO, 0.0, 0.0); 5]);
    }

    #[test]
    fn rectangle_mesh_covers_box_exactly_once() {
        // A flat-spot-textured rectangle mesh must fill its box with exactly
        // the intensity (no double-blended seams between cells).
        let mut target = Texture::new(64, 64);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let m = rectangle_mesh(5, 4, 8.0, 8.0, 40.0, 40.0);
        m.rasterize(
            &mut target,
            Sampler::Exact(&spot),
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        let max = target.data().iter().cloned().fold(0.0f32, f32::max);
        assert!(max <= 1.0 + 1e-5, "internal seams double-blended: {max}");
        // Interior texels are covered.
        assert!((target.texel(20, 20) - 1.0).abs() < 1e-6);
        assert_eq!(target.texel(50, 50), 0.0);
        assert_eq!(stats.triangles, 2 * m.quad_count() as u64);
    }

    #[test]
    fn mesh_vertex_accessor_row_major() {
        let m = rectangle_mesh(3, 2, 0.0, 0.0, 2.0, 1.0);
        let v = m.vertex(2, 1);
        assert!((v.position.x - 2.0).abs() < 1e-12);
        assert!((v.position.y - 1.0).abs() < 1e-12);
        assert_eq!(m.vertices().len(), 6);
    }

    #[test]
    fn stats_vertex_count_reflects_strip_submission() {
        let mut target = Texture::new(32, 32);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let m = rectangle_mesh(4, 3, 0.0, 0.0, 16.0, 16.0);
        m.rasterize(
            &mut target,
            Sampler::Exact(&spot),
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.vertices, m.vertex_count() as u64);
    }

    #[test]
    fn mesh_paper_resolutions_have_expected_quads() {
        // 32x17 mesh (atmospheric) and 16x3 mesh (turbulence) from the paper.
        let atm = rectangle_mesh(32, 17, 0.0, 0.0, 1.0, 1.0);
        assert_eq!(atm.quad_count(), 31 * 16); // 496 quads per spot
        let dns = rectangle_mesh(16, 3, 0.0, 0.0, 1.0, 1.0);
        assert_eq!(dns.quad_count(), 15 * 2); // 30 quads per spot
    }

    impl TexturedMesh {
        /// Number of quadrilateral cells.
        pub(crate) fn quad_count(&self) -> usize {
            (self.rows - 1) * (self.cols - 1)
        }
    }
}
