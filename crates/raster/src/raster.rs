//! Triangle scan conversion with texture mapping.
//!
//! This is the heart of the software "graphics pipe": it does what the
//! InfiniteReality did for the paper — transform already-computed vertices
//! into fragments, sample the spot texture, and blend the result into the
//! target texture. It also counts vertices and fragments so the cost model
//! can charge simulated pipe time for the work performed.
//!
//! # The span walker
//!
//! The production path is one scanline *span walker*, shared by triangles
//! of every width and both sampling modes: triangle setup derives a linear form
//! `e(px, py) = c + px·a + py·b` per edge and a planar equation per texture
//! coordinate; each scanline then determines its exact covered pixel
//! interval and the interior pixels are filled through a mutable row slice
//! with **zero** inside-tests. The predicate is monotone along a row and a
//! triangle's row coverage is contiguous, so any search that decides with
//! the shared predicate finds the same span. `covered_span` intersects the
//! three edges' intervals, each found by starting at the column of the
//! edge's root and stepping to the exact boundary (`RowEdge::interval`):
//! a few predictable tests per edge where bisection took several
//! unpredictable ones. Every span is filled by an explicit SIMD kernel
//! ([`crate::simd`]). When the interpolated `v` coordinate is constant
//! along the row — true for every axis-aligned spot quad — the bilinear
//! sample collapses to a single pre-fetched texture row pair, and when that
//! row pair is uniform the sample is a per-row constant (the nearest-sample
//! fast path: flat spot textures reduce to a vectorizable `dst += const`
//! loop). Otherwise — rotated quads, such as `browse`'s flow-aligned
//! spots — each pixel takes the full four-tap sample in lanes, except on
//! spans shorter than one 4-lane vector, which keep scalar sampling.
//!
//! # Sampling modes
//!
//! Every entry point — [`rasterize_triangle`], [`rasterize_quad`] and
//! [`TexturedMesh::rasterize`](crate::TexturedMesh) — takes the sampling
//! mode as a value, a [`Sampler`]: the spot texture (exact) or its
//! [`FootprintPyramid`] (footprint). It resolves to a *filter*, bilinear
//! taps of the spot texture or nearest fetches from one pyramid level,
//! once per triangle or, for meshes, once per mesh row. The span walker
//! and the cell walker are monomorphized per filter, so no sampler match
//! runs inside their row or pixel loops; the nearest fill has the bilinear
//! fill's shape (one texture row per span when `v` is row-constant, a 2-D
//! fetch per pixel otherwise). Coverage is the same in both modes.
//!
//! A naive per-pixel reference rasterizer is retained behind
//! `#[cfg(any(test, feature = "reference"))]` as the correctness oracle and
//! benchmark baseline. It keeps the pre-optimization *scan structure* (full
//! bounding-box scan, three inside-tests per pixel, per-pixel sampling,
//! bounds-checked texel accessors) but shares the new setup and per-pixel
//! arithmetic, so the two paths' outputs are **pixel-identical** — which the
//! equivalence tests assert exactly. Note the trade-off: because the shared
//! setup is itself cheaper than the seed's three-cross-products-per-pixel
//! code, benchmark speedups against this reference are *conservative*
//! relative to the original implementation.
//!
//! # Fill rule
//!
//! Coverage follows the top-left rule over counter-clockwise triangles, with
//! one refinement over a textbook implementation: every edge is evaluated in
//! a canonical endpoint order (sign-flipped when the traversal direction is
//! reversed), so the two triangles of a quad — or any two mesh cells sharing
//! an edge — compute *exactly* negated edge values on the shared edge. A
//! pixel centre exactly on the shared edge is therefore covered exactly
//! once, by IEEE negation symmetry rather than by luck.
//!
//! # Mesh cells
//!
//! Bent-spot meshes are rasterized a row of cells at a time
//! (`rasterize_mesh`), each cell as triangles A = `(v00, v10, v11)` and
//! B = `(v00, v11, v01)`. The paper's 32x17 meshes have cells of one to a
//! few pixels, so a frame sets up millions of triangles for about two
//! fragments each, and triangle setup, not fragment work, bounds the
//! raster.
//!
//! Setup therefore starts from an *edge table* (`EdgeTable`): every mesh
//! edge of a row is set up once, as `EdgeFn`'s canonical form with the
//! traversal sign folded in plus the top-left bit of each direction
//! (`MeshEdge`). The cells of a row share it — a cell's right edge is its
//! neighbour's left edge, the diagonal serves both triangles — and a row's
//! bottom edges are the next row's top edges: three edge setups per cell
//! where per-triangle setup does six. `EdgeFn` depends only on the
//! canonically ordered endpoints, and negation is exact, so each triangle
//! reads the very forms its own setup would compute.
//!
//! The *cell walker* then scans once over the pixels whose centres lie
//! near the cell's vertex bounding box (`CellBox`) and applies A, then B,
//! at each pixel, with the per-triangle predicate, attribute planes and
//! sampling (bilinear, or nearest at the footprint row's level). Each
//! triangle gets only what that scan reads (`CellTriangle`): the folded
//! edge coefficients, the accept bits and the two planes, computed with
//! `TriSetup::new`'s arithmetic — no clipped setup box, no index rounding.
//! Every pixel receives the same blends in the same order as in the
//! per-triangle walk, so texels and [`RasterStats`] are bit-identical — for
//! folded (bow-tie) and clockwise cells and non-additive blends too.
//!
//! Skipping the rest of the setup boxes is exact only because the predicate
//! rejects pixel centres outside a triangle's bounding box, which rounding
//! can defeat for slivers: the walker takes only cells narrower than
//! `NARROW_TRIANGLE_WIDTH` whose triangles pass a conditioning bound
//! (`CELL_CONDITION`, derived there). Cells that fail a gate — a triangle
//! degenerate or off the target, a wide cell, an ill-conditioned one — set
//! up and walk their triangles one by one through `TriSetup`, so the
//! rejection and triangle counters stay exact;
//! [`TexturedMesh::rasterize_reference`](crate::TexturedMesh) keeps the
//! full boxes and the per-triangle walk as the oracle.
//!
//! # Index rounding
//!
//! `floor`/`ceil` at the raster's index sites go through the crate's
//! `floor_index`/`ceil_index`: on baseline x86-64 the std methods are
//! libm calls, which spill the vector registers of the loops around them.
//! The two oracles keep `f32::floor` — the reference rasterizer, and the
//! scalar fallback the SIMD kernels are tested (and benched) against — so
//! the equivalence tests check the helpers on every sampled coordinate.
//! The bilinear kernel (`Bilinear`) truncates its clamped coordinates
//! through `i32` instead, the same floor in one instruction each way.

use crate::blend::BlendMode;
use crate::simd::{self, SimdLevel};
use crate::texture::{ceil_index, floor_index, nearest_index, Bilinear, FootprintPyramid, Texture};
use flowfield::Vec2;

/// A vertex as submitted to the graphics pipe: a position in *texture pixel
/// coordinates* and a texture coordinate into the bound spot texture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// Position in target-texture pixel coordinates.
    pub position: Vec2,
    /// Texture coordinate (u, v) in `[0, 1]` into the bound spot texture.
    pub uv: (f32, f32),
}

impl Vertex {
    /// Creates a vertex.
    pub fn new(position: Vec2, u: f32, v: f32) -> Self {
        Vertex {
            position,
            uv: (u, v),
        }
    }
}

/// Counters of the geometry and fragment work a pipe performed; inputs of
/// the simulated-time cost model and of the bus-bandwidth accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Vertices transformed (as submitted on the bus: 3 per lone triangle,
    /// 4 per quad, one per mesh node).
    pub vertices: u64,
    /// Triangles set up (after trivially-degenerate rejection).
    pub triangles: u64,
    /// Fragments generated (texels touched, before blending).
    pub fragments: u64,
    /// Primitives rejected because they were degenerate or fully outside.
    pub rejected: u64,
}

impl RasterStats {
    /// Accumulates the counters of another stats block.
    pub fn merge(&mut self, other: &RasterStats) {
        self.vertices += other.vertices;
        self.triangles += other.triangles;
        self.fragments += other.fragments;
        self.rejected += other.rejected;
    }
}

#[inline]
fn edge(a: Vec2, b: Vec2, p: Vec2) -> f64 {
    (b - a).cross(p - a)
}

/// Top-left fill rule: with counter-clockwise winding, a pixel centre lying
/// exactly on an edge belongs to the triangle only when the edge is a "left"
/// edge (going upward) or a "top" edge (horizontal, going leftward). This
/// guarantees that adjacent triangles sharing an edge — the two halves of a
/// spot quad, or neighbouring bent-spot mesh cells — cover every texel
/// exactly once, which additive blending requires for correctness.
#[inline]
fn edge_is_top_left(a: Vec2, b: Vec2) -> bool {
    let d = b - a;
    d.y > 0.0 || (d.y == 0.0 && d.x < 0.0)
}

/// One edge of a set-up triangle as a linear form over pixel indices:
/// `e(px, py) = c + px·px_coef + py·py_coef`, evaluated at pixel centres.
/// The form is built from the canonically ordered endpoints; `flip` records
/// whether the triangle traverses the edge against that order, so shared
/// edges of adjacent triangles produce exactly negated values.
#[derive(Debug, Clone, Copy)]
struct EdgeFn {
    px_coef: f64,
    py_coef: f64,
    c: f64,
    flip: bool,
    accept: bool,
}

impl EdgeFn {
    fn setup(a: Vec2, b: Vec2) -> EdgeFn {
        let accept = edge_is_top_left(a, b);
        // Canonical endpoint order: smaller (y, x) first.
        let swap = (b.y, b.x) < (a.y, a.x);
        let (lo, hi) = if swap { (b, a) } else { (a, b) };
        let dx = hi.x - lo.x;
        let dy = hi.y - lo.y;
        EdgeFn {
            px_coef: -dy,
            py_coef: dx,
            // Value at the centre of pixel (0, 0).
            c: dx * (0.5 - lo.y) - dy * (0.5 - lo.x),
            flip: swap,
            accept,
        }
    }

    /// Specializes the edge for one scanline.
    #[inline]
    fn row(&self, py: usize) -> RowEdge {
        RowEdge {
            c: self.c + py as f64 * self.py_coef,
            a: self.px_coef,
            flip: self.flip,
            accept: self.accept,
        }
    }
}

/// An [`EdgeFn`] restricted to one scanline: `e(px) = c + px·a`.
#[derive(Debug, Clone, Copy)]
struct RowEdge {
    c: f64,
    a: f64,
    flip: bool,
    accept: bool,
}

impl RowEdge {
    /// Inside-test at pixel column `px`. This is THE coverage predicate:
    /// both the span walker (at span boundaries) and the reference path (at
    /// every pixel, through [`RowEdge::covers_column`]) evaluate it, so
    /// coverage decisions agree bit-for-bit.
    #[inline]
    fn covers(&self, px: usize) -> bool {
        // Converted through `isize`: one instruction on x86-64, where a
        // `usize` takes several, and exact, since a column indexes a
        // texture row and so is at most `isize::MAX`.
        self.covers_column(px as isize as f64)
    }

    /// [`RowEdge::covers`] with the column given as a float.
    #[inline(always)]
    fn covers_column(&self, px: f64) -> bool {
        let e = self.c + px * self.a;
        if self.flip {
            e < 0.0 || (e == 0.0 && self.accept)
        } else {
            e > 0.0 || (e == 0.0 && self.accept)
        }
    }

    /// The covered interval within `[x0, x1]`, or `None` when the row is
    /// fully outside this edge. `covers` is monotone along a row (the linear
    /// form is weakly monotone in `px` even in floating point, because
    /// IEEE rounding preserves weak monotonicity), so the covered set is a
    /// prefix, a suffix, or everything. One test at the row's far end
    /// settles an edge that covers the whole row. Otherwise the search
    /// starts at the column of the edge's root, `-c/a` rounded toward the
    /// covered side and clamped to the row, and steps with the shared
    /// predicate to the exact boundary pixel: two more tests, since the
    /// computed root errs by far less than a pixel inside the row. A NaN
    /// slope covers nothing.
    #[inline]
    fn interval(&self, x0: usize, x1: usize) -> Option<(usize, usize)> {
        let direction = if self.flip { -self.a } else { self.a };
        // `max`/`min` drop a NaN root (an infinite slope at column 0), so
        // the start is always a column of the row.
        let root = || (-self.c / self.a).max(x0 as f64).min(x1 as f64);
        if direction > 0.0 {
            // Coverage is a suffix: find its first pixel, right of `x0`.
            if self.covers(x0) {
                return Some((x0, x1));
            }
            let mut px = ceil_index(root());
            while px > x0 + 1 && self.covers(px - 1) {
                px -= 1;
            }
            while !self.covers(px) {
                if px >= x1 {
                    return None;
                }
                px += 1;
            }
            Some((px, x1))
        } else if direction < 0.0 {
            // Coverage is a prefix: find its last pixel, left of `x1`.
            if self.covers(x1) {
                return Some((x0, x1));
            }
            let mut px = floor_index(root());
            while px + 1 < x1 && self.covers(px + 1) {
                px += 1;
            }
            while !self.covers(px) {
                if px <= x0 {
                    return None;
                }
                px -= 1;
            }
            Some((x0, px))
        } else if self.covers(x0) {
            // Zero slope: the whole row or nothing. A NaN slope lands here
            // too and covers nothing.
            Some((x0, x1))
        } else {
            None
        }
    }

    /// [`RowEdge::interval`] by bisection — the search the root-guided one
    /// replaced, kept as its oracle.
    #[cfg(test)]
    fn interval_bisect(&self, x0: usize, x1: usize) -> Option<(usize, usize)> {
        let direction = if self.flip { -self.a } else { self.a };
        if direction == 0.0 {
            return if self.covers(x0) {
                Some((x0, x1))
            } else {
                None
            };
        }
        if direction > 0.0 {
            // Coverage is a suffix of the row.
            if !self.covers(x1) {
                return None;
            }
            if self.covers(x0) {
                return Some((x0, x1));
            }
            let (mut lo, mut hi) = (x0, x1);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.covers(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some((hi, x1))
        } else {
            // Coverage is a prefix of the row.
            if !self.covers(x0) {
                return None;
            }
            if self.covers(x1) {
                return Some((x0, x1));
            }
            let (mut lo, mut hi) = (x0, x1);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.covers(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Some((x0, lo))
        }
    }
}

/// Planar interpolation of one texture coordinate:
/// `attr(px, py) = base + (cx − ox)·ddx + (cy − oy)·ddy` with `cx = px + 0.5`.
#[derive(Debug, Clone, Copy)]
struct AttrPlane {
    base: f64,
    ddx: f64,
    ddy: f64,
    ox: f64,
    oy: f64,
}

impl AttrPlane {
    /// Specializes the plane for one scanline.
    #[inline]
    fn row(&self, py: usize) -> AttrRow {
        AttrRow {
            row_base: self.base + ((py as f64 + 0.5) - self.oy) * self.ddy,
            ddx: self.ddx,
            ox: self.ox,
        }
    }
}

/// An [`AttrPlane`] restricted to one scanline. The fields are crate-visible
/// so the SIMD kernels can splat them and evaluate the same affine form per
/// lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttrRow {
    /// Attribute value at the row's reference column `ox`.
    pub(crate) row_base: f64,
    /// Attribute change per pixel step along the row.
    pub(crate) ddx: f64,
    /// Reference column (the triangle's first vertex x).
    pub(crate) ox: f64,
}

impl AttrRow {
    /// Attribute value at pixel column `px`; shared by both raster paths and
    /// mirrored lane-wise (in the same operation order) by the SIMD kernels.
    #[inline]
    pub(crate) fn at(&self, px: usize) -> f64 {
        // Through `isize`, as in `RowEdge::covers`.
        self.at_column(px as isize as f64)
    }

    /// [`AttrRow::at`] with the column given as a float.
    #[inline(always)]
    fn at_column(&self, px: f64) -> f64 {
        self.row_base + ((px + 0.5) - self.ox) * self.ddx
    }
}

/// Everything triangle setup produces: clipped bounding box, the three edge
/// forms, and the two texture-coordinate planes. Shared by the span walker
/// and the reference path so both consume identical per-pixel arithmetic.
#[derive(Debug, Clone, Copy)]
struct TriSetup {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
    edges: [EdgeFn; 3],
    u_plane: AttrPlane,
    v_plane: AttrPlane,
}

/// Triangles whose doubled area is below this are degenerate: setup
/// rejects them.
const DEGENERATE_AREA: f64 = 1e-12;

/// Whether a bounding box `[min_x, max_x, min_y, max_y]` lies entirely off
/// `target`, so that setup rejects its triangle.
#[inline(always)]
fn off_target(target: &Texture, [min_x, max_x, min_y, max_y]: [f64; 4]) -> bool {
    max_x < 0.0 || max_y < 0.0 || min_x >= target.width() as f64 || min_y >= target.height() as f64
}

impl TriSetup {
    /// Sets up a triangle against the target, updating the rejection and
    /// triangle counters exactly like the original implementation (vertex
    /// counting is the caller's responsibility, so quads and meshes can
    /// account shared vertices correctly).
    fn new(
        target: &Texture,
        v0: Vertex,
        v1: Vertex,
        v2: Vertex,
        stats: &mut RasterStats,
    ) -> Option<TriSetup> {
        let area = edge(v0.position, v1.position, v2.position);
        if area.abs() < DEGENERATE_AREA {
            stats.rejected += 1;
            return None;
        }
        // Normalise to counter-clockwise winding so the fill rule is
        // consistent.
        let (v0, v1, v2) = if area > 0.0 {
            (v0, v1, v2)
        } else {
            (v0, v2, v1)
        };
        let area = area.abs();

        // Bounding box clipped to the target.
        let min_x = v0.position.x.min(v1.position.x).min(v2.position.x);
        let max_x = v0.position.x.max(v1.position.x).max(v2.position.x);
        let min_y = v0.position.y.min(v1.position.y).min(v2.position.y);
        let max_y = v0.position.y.max(v1.position.y).max(v2.position.y);
        if off_target(target, [min_x, max_x, min_y, max_y]) {
            stats.rejected += 1;
            return None;
        }
        stats.triangles += 1;
        // `ceil(min(x, n - 1)) == min(ceil(x), n - 1)` for integral `n - 1`.
        let x0 = floor_index(min_x);
        let y0 = floor_index(min_y);
        let x1 = ceil_index(max_x.min(target.width() as f64 - 1.0));
        let y1 = ceil_index(max_y.min(target.height() as f64 - 1.0));

        let (px0, px1, px2) = (v0.position, v1.position, v2.position);
        let [u_plane, v_plane] = attr_planes([v0, v1, v2], area);

        Some(TriSetup {
            x0,
            x1,
            y0,
            y1,
            edges: [
                EdgeFn::setup(px1, px2),
                EdgeFn::setup(px2, px0),
                EdgeFn::setup(px0, px1),
            ],
            u_plane,
            v_plane,
        })
    }
}

/// The `u` and `v` planes of a counter-clockwise triangle with doubled area
/// `area > 0`: the gradients of the barycentric-interpolated attributes,
/// i.e. the planes through its three (position, attribute) samples.
#[inline(always)]
fn attr_planes([v0, v1, v2]: [Vertex; 3], area: f64) -> [AttrPlane; 2] {
    let (px0, px1, px2) = (v0.position, v1.position, v2.position);
    let inv_area = 1.0 / area;
    [(v0.uv.0, v1.uv.0, v2.uv.0), (v0.uv.1, v1.uv.1, v2.uv.1)].map(|(a0, a1, a2)| {
        let (a0, a1, a2) = (a0 as f64, a1 as f64, a2 as f64);
        AttrPlane {
            base: a0,
            ddx: (a0 * (px1.y - px2.y) + a1 * (px2.y - px0.y) + a2 * (px0.y - px1.y)) * inv_area,
            ddy: (a0 * (px2.x - px1.x) + a1 * (px0.x - px2.x) + a2 * (px1.x - px0.x)) * inv_area,
            ox: px0.x,
            oy: px0.y,
        }
    })
}

#[inline]
fn row_is_uniform(row: &[f32]) -> bool {
    let first = row[0];
    row.iter().all(|&v| v == first)
}

/// Fills one covered span `[lo, hi]` of a scanline with bilinear taps of
/// `spot` (the exact filter).
///
/// `row` is the mutable slice of the *span* (index 0 corresponds to column
/// `lo`), so the destination side needs no per-pixel bounds checks after the
/// one slice construction. Every path runs on an explicit SIMD kernel for
/// `level` (see [`crate::simd`]): the uniform blend, the hoisted bilinear
/// fill when `v` is constant along the row, and otherwise the general
/// bilinear fill, which keeps spans shorter than one 4-lane vector on
/// scalar sampling. Produces values bit-identical to calling
/// `spot.sample_bilinear` + `blend.apply` per pixel at every level.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fill_bilinear_span(
    row: &mut [f32],
    lo: usize,
    level: SimdLevel,
    spot: &Texture,
    u_row: AttrRow,
    v_row: AttrRow,
    intensity: f32,
    blend: BlendMode,
) {
    let tex_w = spot.width();
    let tex_h = spot.height();
    if v_row.ddx == 0.0 {
        // `v` is constant along the row (axis-aligned quads, axis-aligned
        // mesh cells): hoist the entire vertical half of the bilinear sample
        // out of the pixel loop. With ddx == ±0.0 the per-pixel formula
        // reduces exactly to `row_base`, so this matches the general path.
        let v = v_row.row_base as f32;
        let fy = (v * tex_h as f32 - 0.5).clamp(0.0, tex_h as f32 - 1.0);
        let ty0 = floor_index(fy);
        let ty1 = (ty0 + 1).min(tex_h - 1);
        let ty = fy - ty0 as f32;
        let tex_row0 = &spot.data()[ty0 * tex_w..(ty0 + 1) * tex_w];
        let tex_row1 = &spot.data()[ty1 * tex_w..(ty1 + 1) * tex_w];
        if row_is_uniform(tex_row0) && row_is_uniform(tex_row1) {
            // Nearest-sample fast path: both sampled texture rows are
            // uniform, so every pixel of the span receives the same value
            // and the fill is one uniform (vectorizable) blend sweep.
            let a = tex_row0[0];
            let c = tex_row1[0];
            let sample = (a + (c - a) * ty) * intensity;
            simd::blend_uniform(level, blend, row, sample);
            return;
        }
        simd::fill_hoisted(
            level, row, lo, u_row, tex_row0, tex_row1, ty, intensity, blend,
        );
    } else {
        // General path: both texture coordinates vary along the row (rotated
        // quads), so every pixel takes the full four-tap sample.
        simd::fill_bilinear(level, row, lo, u_row, v_row, spot, intensity, blend);
    }
}

/// Fills one covered span `[lo, hi]` of a scanline with nearest fetches
/// from `tex`, one footprint pyramid level, through the same kernels and
/// row slicing as [`fill_bilinear_span`]: when `v` is constant along the row
/// one texture row serves the whole span (a uniform row collapses to one
/// uniform blend), and otherwise each pixel takes a 2-D fetch.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fill_nearest_span(
    row: &mut [f32],
    lo: usize,
    level: SimdLevel,
    tex: &Texture,
    u_row: AttrRow,
    v_row: AttrRow,
    intensity: f32,
    blend: BlendMode,
) {
    let (tw, th) = (tex.width(), tex.height());
    if v_row.ddx == 0.0 {
        let ty = nearest_index(v_row.row_base as f32, th);
        let tex_row = &tex.data()[ty * tw..(ty + 1) * tw];
        if row_is_uniform(tex_row) {
            simd::blend_uniform(level, blend, row, tex_row[0] * intensity);
        } else {
            simd::fill_nearest_row(level, row, lo, u_row, tex_row, intensity, blend);
        }
    } else {
        simd::fill_nearest_2d(
            level,
            row,
            lo,
            u_row,
            v_row,
            tex.data(),
            tw,
            th,
            intensity,
            blend,
        );
    }
}

/// Mesh cells narrower than this take the cell walker ([`rasterize_cell`]).
/// Triangles of every width share the span walker.
const NARROW_TRIANGLE_WIDTH: usize = 12;

/// How a draw samples the spot texture: the sampling mode
/// ([`SamplingMode`](crate::state::SamplingMode)) as a value, which
/// [`rasterize_triangle`], [`rasterize_quad`] and
/// [`TexturedMesh::rasterize`](crate::TexturedMesh) all take.
///
/// Footprint sampling changes *sampling*, never coverage: every path decides
/// coverage with the same edge predicate in both modes, so adjacent
/// triangles and mesh cells still cover every texel exactly once (a
/// coverage change would double-blend shared edges and break the additive
/// sum), and the counters are those of exact sampling.
#[derive(Debug, Clone, Copy)]
pub enum Sampler<'a> {
    /// Exact sampling: bilinear taps of the spot texture.
    Exact(&'a Texture),
    /// Footprint sampling: one nearest fetch per fragment from the pyramid
    /// level matching the uv footprint. Lone triangles and the triangles of
    /// a quad select the level per triangle, mesh cells per mesh row (see
    /// [`TexturedMesh::rasterize`](crate::TexturedMesh::rasterize)).
    Footprint(&'a FootprintPyramid),
}

impl<'a> Sampler<'a> {
    /// The filter of one set-up triangle. A footprint sampler selects the
    /// level from the triangle's uv planes: they are affine, so their
    /// gradients, and with them the footprint, are the same on every row.
    #[inline]
    fn for_triangle(self, setup: &TriSetup) -> Filter<'a> {
        let pyramid = match self {
            Sampler::Exact(spot) => return Filter::Bilinear(spot),
            Sampler::Footprint(pyramid) => pyramid,
        };
        let (base_w, base_h) = base_size(pyramid);
        Filter::nearest(
            pyramid,
            footprint_step(&[setup.u_plane, setup.v_plane], base_w, base_h),
        )
    }

    /// The filter of the mesh row between vertex rows `top` and `bottom`. A
    /// footprint sampler selects the finest level any of the row's
    /// triangles asks for ([`triangle_footprint_step`]; why per row:
    /// [`TexturedMesh::rasterize`](crate::TexturedMesh::rasterize)).
    /// Degenerate triangles do not vote (setup rejects them); a row without
    /// any other keeps an infinite step, the deepest level, and rasterizes
    /// nothing either way.
    fn for_mesh_row(self, top: &[Vertex], bottom: &[Vertex]) -> Filter<'a> {
        let pyramid = match self {
            Sampler::Exact(spot) => return Filter::Bilinear(spot),
            Sampler::Footprint(pyramid) => pyramid,
        };
        let (base_w, base_h) = base_size(pyramid);
        let mut step = f32::INFINITY;
        for c in 0..top.len() - 1 {
            let [v00, v10, v11, v01] = [top[c], top[c + 1], bottom[c + 1], bottom[c]];
            for [v0, v1, v2] in [[v00, v10, v11], [v00, v11, v01]] {
                if let Some(s) = triangle_footprint_step(v0, v1, v2, base_w, base_h) {
                    step = step.min(s);
                }
            }
        }
        Filter::nearest(pyramid, step)
    }
}

/// A resolved [`Sampler`]: the one texture a triangle or a mesh row samples,
/// and how. The walkers are monomorphized per filter.
#[derive(Debug, Clone, Copy)]
enum Filter<'a> {
    /// Bilinear taps of the spot texture (exact sampling).
    Bilinear(&'a Texture),
    /// Nearest fetches from one (prefiltered) pyramid level.
    Nearest(&'a Texture),
}

impl<'a> Filter<'a> {
    /// Nearest sampling of the level of `pyramid` that footprint step
    /// `step` selects.
    fn nearest(pyramid: &'a FootprintPyramid, step: f32) -> Filter<'a> {
        Filter::Nearest(pyramid.level(pyramid.level_for_step(step)))
    }
}

/// The base texture's width and height, the scale of [`footprint_step`].
fn base_size(pyramid: &FootprintPyramid) -> (f64, f64) {
    (
        pyramid.base().width() as f64,
        pyramid.base().height() as f64,
    )
}

/// The footprint step of a triangle with uv planes `planes`: base texels
/// (of a `base_w`×`base_h` base) covered per pixel step, the input to
/// [`FootprintPyramid::level_for_step`]. It reads only the gradients'
/// magnitudes: negating a triangle's area negates every gradient exactly.
#[inline]
fn footprint_step([u_plane, v_plane]: &[AttrPlane; 2], base_w: f64, base_h: f64) -> f32 {
    let step_u = u_plane.ddx.abs().max(u_plane.ddy.abs()) * base_w;
    let step_v = v_plane.ddx.abs().max(v_plane.ddy.abs()) * base_h;
    step_u.max(step_v) as f32
}

/// The footprint step of triangle `(v0, v1, v2)` in the given vertex order,
/// without setting it up — `None` for degenerate (rejected) triangles. Mesh
/// rows take the minimum over their triangles ([`Sampler::for_mesh_row`]).
fn triangle_footprint_step(
    v0: Vertex,
    v1: Vertex,
    v2: Vertex,
    base_w: f64,
    base_h: f64,
) -> Option<f32> {
    let area = edge(v0.position, v1.position, v2.position);
    if area.abs() < DEGENERATE_AREA {
        return None;
    }
    Some(footprint_step(
        &attr_planes([v0, v1, v2], area.abs()),
        base_w,
        base_h,
    ))
}

/// Rasterizes a set-up triangle with `filter`, through the span walker's
/// copy for that filter.
fn rasterize_setup(
    target: &mut Texture,
    filter: Filter<'_>,
    setup: &TriSetup,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    match filter {
        Filter::Bilinear(spot) => rasterize_setup_span(
            target,
            spot,
            setup,
            intensity,
            blend,
            stats,
            fill_bilinear_span,
        ),
        Filter::Nearest(tex) => rasterize_setup_span(
            target,
            tex,
            setup,
            intensity,
            blend,
            stats,
            fill_nearest_span,
        ),
    }
}

/// The span walker: one covered span per scanline ([`covered_span`]),
/// filled from `tex` by `fill` — [`fill_bilinear_span`] or
/// [`fill_nearest_span`], one monomorphized copy each. Shared by triangles
/// of every width and both sampling modes.
#[inline(never)]
fn rasterize_setup_span<F>(
    target: &mut Texture,
    tex: &Texture,
    setup: &TriSetup,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
    fill: F,
) where
    F: Fn(&mut [f32], usize, SimdLevel, &Texture, AttrRow, AttrRow, f32, BlendMode),
{
    let width = target.width();
    let data = target.data_mut();
    let level = simd::active();
    for py in setup.y0..=setup.y1 {
        let Some((lo, hi)) = covered_span(setup, py) else {
            continue;
        };
        let u_row = setup.u_plane.row(py);
        let v_row = setup.v_plane.row(py);
        let row_start = py * width;
        let span = &mut data[row_start + lo..=row_start + hi];
        fill(span, lo, level, tex, u_row, v_row, intensity, blend);
        stats.fragments += (hi - lo + 1) as u64;
    }
}

/// The exact covered pixel interval of scanline `py`, intersecting the three
/// edges' root-guided intervals over the clipped bounding box.
#[inline(always)]
fn covered_span(setup: &TriSetup, py: usize) -> Option<(usize, usize)> {
    let mut lo = setup.x0;
    let mut hi = setup.x1;
    for edge_fn in &setup.edges {
        let (a, b) = edge_fn.row(py).interval(setup.x0, setup.x1)?;
        lo = lo.max(a);
        hi = hi.min(b);
    }
    (lo <= hi).then_some((lo, hi))
}

/// How far (in pixels) the cell walker's box reaches past the pixel centres
/// inside the cell's vertex bounding box.
const CELL_MARGIN: f64 = 1.0 / 256.0;

/// Relative conditioning bound of the cell walker: a triangle qualifies when
/// twice its area is at least `extent² · magnitude · CELL_CONDITION`.
///
/// The computed edge forms err by at most about `17u · extent · magnitude`
/// (u = 2⁻⁵³; a few roundings of products of coordinates and edge deltas),
/// while a pixel centre `δ` outside a triangle's bounding box has an exact
/// edge value of at least `area2 · δ / (2 · extent)` on its outside. With
/// `δ > CELL_MARGIN` the outside value dominates the error by a factor of
/// more than 2¹⁵ at this bound, so the shared predicate rejects every pixel
/// the walker skips or visits outside a triangle's own setup box — the
/// reason the walker's output equals the per-triangle walk exactly. The
/// edge table's forms are the per-triangle forms (see [`MeshEdge`]), so the
/// bound covers them unchanged.
const CELL_CONDITION: f64 = 1.0 / (1u64 << 24) as f64;

/// The pixel box the cell walker scans: inclusive column and row ranges.
#[derive(Debug, Clone, Copy)]
struct CellBox {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
}

impl CellBox {
    /// The walker's box for a cell with corners `p00, p10, p11, p01` whose
    /// triangles `(p00, p10, p11)` and `(p00, p11, p01)` have the signed
    /// doubled areas `areas`: the pixels whose centres lie within
    /// [`CELL_MARGIN`] of the cell's vertex bounding box, clipped to the
    /// target. `Some` with an empty range when no pixel centre is near the
    /// cell.
    ///
    /// `None` — walk the triangles one by one — when [`TriSetup::new`] would
    /// reject a triangle (degenerate, or its bounding box off the target),
    /// for cells at least [`NARROW_TRIANGLE_WIDTH`] wide, and for cells with
    /// a triangle too thin for [`CELL_CONDITION`], where only the full setup
    /// boxes reproduce the per-triangle walk. Written so that NaN (a
    /// non-finite vertex) falls back too.
    #[inline(always)]
    fn new(
        target: &Texture,
        [p00, p10, p11, p01]: [Vec2; 4],
        areas: [f64; 2],
    ) -> Option<Option<CellBox>> {
        // The shared diagonal's box, grown by each triangle's third vertex.
        let diagonal = [
            p00.x.min(p11.x),
            p00.x.max(p11.x),
            p00.y.min(p11.y),
            p00.y.max(p11.y),
        ];
        let grow = |[min_x, max_x, min_y, max_y]: [f64; 4], p: Vec2| {
            [
                min_x.min(p.x),
                max_x.max(p.x),
                min_y.min(p.y),
                max_y.max(p.y),
            ]
        };
        let (a, b) = (grow(diagonal, p10), grow(diagonal, p01));
        let [min_x, max_x, min_y, max_y] = grow(a, p01);
        let extent = (max_x - min_x).max(max_y - min_y);
        let magnitude = min_x
            .abs()
            .max(max_x.abs())
            .max(min_y.abs())
            .max(max_y.abs())
            + 2.0;
        let limit = extent * extent * magnitude * CELL_CONDITION;
        let walkable = |area: f64| area.abs() >= limit && area.abs() >= DEGENERATE_AREA;
        if !(extent < NARROW_TRIANGLE_WIDTH as f64 && walkable(areas[0]) && walkable(areas[1]))
            || off_target(target, a)
            || off_target(target, b)
        {
            return None;
        }
        let hi_x = max_x - 0.5 + CELL_MARGIN;
        let hi_y = max_y - 0.5 + CELL_MARGIN;
        if hi_x < 0.0 || hi_y < 0.0 {
            return Some(None);
        }
        let cell = CellBox {
            x0: ceil_index(min_x - 0.5 - CELL_MARGIN),
            x1: floor_index(hi_x).min(target.width() - 1),
            y0: ceil_index(min_y - 0.5 - CELL_MARGIN),
            y1: floor_index(hi_y).min(target.height() - 1),
        };
        Some((cell.x0 <= cell.x1 && cell.y0 <= cell.y1).then_some(cell))
    }
}

/// One mesh edge `a → b`, set up once for every triangle that runs along it:
/// [`EdgeFn::setup`]'s canonical form with the sign of the direction `a → b`
/// folded in, and the top-left bit of either direction.
///
/// `EdgeFn` depends only on the canonically ordered endpoints, so for the
/// distinct, finite endpoints of a walked cell's edges either direction gets
/// the same form, flipped exactly when the direction runs against the
/// canonical order. Folding the flip into the coefficients is exact:
/// `−(c + py·b) == (−c) + py·(−b)` and `−(c + px·a) == (−c) + px·(−a)`
/// (rounding to nearest is symmetric), so the walker's predicate decides
/// exactly as the three [`RowEdge::covers`] of the per-triangle walk.
#[derive(Debug, Clone, Copy, Default)]
struct MeshEdge {
    /// Folded `(c, px_coef, py_coef)` of `a → b`; `b → a` is the negation.
    coef: [f64; 3],
    /// [`edge_is_top_left`] of `a → b` and of `b → a`.
    accept: [bool; 2],
}

impl MeshEdge {
    #[inline(always)]
    fn new(a: Vec2, b: Vec2) -> MeshEdge {
        // `EdgeFn::setup`'s canonical order, smaller `(y, x)` first, picked
        // without short-circuits.
        let swap = (b.y < a.y) | ((b.y == a.y) & (b.x < a.x));
        let (lo, hi) = if swap { (b, a) } else { (a, b) };
        let sign = if swap { -1.0 } else { 1.0 };
        let dx = hi.x - lo.x;
        let dy = hi.y - lo.y;
        MeshEdge {
            coef: [dx * (0.5 - lo.y) - dy * (0.5 - lo.x), -dy, dx].map(|k| sign * k),
            accept: [edge_is_top_left(a, b), edge_is_top_left(b, a)],
        }
    }

    /// The folded coefficients and top-left bit of `a → b` (`forward`) or
    /// of `b → a`.
    #[inline(always)]
    fn directed(&self, forward: bool) -> ([f64; 3], bool) {
        let sign = if forward { 1.0 } else { -1.0 };
        (self.coef.map(|k| sign * k), self.accept[!forward as usize])
    }
}

/// The five table edges of mesh cell `v00, v10, v11, v01`, each in its
/// table direction: `top` `v00 → v10`, `right` `v10 → v11`, `bottom`
/// `v01 → v11`, `left` `v00 → v01` and `diagonal` `v00 → v11`.
struct CellEdges<'a> {
    top: &'a MeshEdge,
    right: &'a MeshEdge,
    bottom: &'a MeshEdge,
    left: &'a MeshEdge,
    diagonal: &'a MeshEdge,
}

/// What the cell walker reads of one triangle, and nothing else: its three
/// edges with the traversal sign folded in, in [`TriSetup`]'s edge order,
/// and its two attribute planes.
#[derive(Debug, Clone, Copy)]
struct CellTriangle {
    /// Edge `i` is `e(px, py) = c[i] + px·a[i] + py·b[i]`.
    c: [f64; 3],
    a: [f64; 3],
    b: [f64; 3],
    accept: [bool; 3],
    u_plane: AttrPlane,
    v_plane: AttrPlane,
}

impl CellTriangle {
    /// The walker's part of [`TriSetup::new`] for a triangle `(v0, v1, v2)`
    /// of a walked cell with signed doubled area `area`, from its edges
    /// `v1 → v2`, `v2 → v0` and `v0 → v1`, each a table edge and whether the
    /// triangle runs along it in the table direction.
    #[inline(always)]
    fn new(
        [v0, v1, v2]: [Vertex; 3],
        area: f64,
        [e12, e20, e01]: [(&MeshEdge, bool); 3],
    ) -> CellTriangle {
        // A clockwise triangle is set up as `(v0, v2, v1)`, as in
        // `TriSetup::new`: its edges are `v2 → v1`, `v1 → v0`, `v0 → v2`.
        let ccw = area > 0.0;
        let (v1, v2) = if ccw { (v1, v2) } else { (v2, v1) };
        let order = if ccw {
            [e12, e20, e01]
        } else {
            [e12, e01, e20]
        };
        let edges = order.map(|(edge, forward)| edge.directed(forward == ccw));
        let [u_plane, v_plane] = attr_planes([v0, v1, v2], area.abs());
        CellTriangle {
            c: edges.map(|(k, _)| k[0]),
            a: edges.map(|(k, _)| k[1]),
            b: edges.map(|(k, _)| k[2]),
            accept: edges.map(|(_, accept)| accept),
            u_plane,
            v_plane,
        }
    }

    /// The triangle's edges on scanline `py`.
    #[inline(always)]
    fn row(&self, py: usize) -> RowTriangle {
        let y = py as f64;
        RowTriangle {
            c: [0, 1, 2].map(|i| self.c[i] + y * self.b[i]),
            a: self.a,
            accept: self.accept,
        }
    }
}

/// The edge table of one mesh row: every edge of the row's cells, set up
/// once as a [`MeshEdge`] in the direction of increasing row or column.
/// The cells share it — a cell's right edge is the next cell's left edge,
/// and the diagonal serves both triangles — and a row's bottom edges serve
/// as the next row's top edges: three edge setups per cell instead of six.
#[derive(Debug, Clone)]
struct EdgeTable {
    /// `(r, c) → (r, c + 1)` of the row's top vertex row.
    top: Vec<MeshEdge>,
    /// `(r + 1, c) → (r + 1, c + 1)` of its bottom vertex row.
    bottom: Vec<MeshEdge>,
    /// `(r, c) → (r + 1, c)`.
    along: Vec<MeshEdge>,
    /// `(r, c) → (r + 1, c + 1)`.
    diagonal: Vec<MeshEdge>,
}

impl EdgeTable {
    /// A table whose next row starts at vertex row `first`.
    fn new(first: &[Vertex]) -> EdgeTable {
        let cells = first.len() - 1;
        let mut table = EdgeTable {
            top: vec![MeshEdge::default(); cells],
            bottom: vec![MeshEdge::default(); cells],
            along: vec![MeshEdge::default(); cells + 1],
            diagonal: vec![MeshEdge::default(); cells],
        };
        for (c, edge) in table.bottom.iter_mut().enumerate() {
            *edge = MeshEdge::new(first[c].position, first[c + 1].position);
        }
        table
    }

    /// Sets up the row between vertex rows `top` (the previous row's
    /// bottom) and `bottom`.
    #[inline(always)]
    fn next_row(&mut self, top: &[Vertex], bottom: &[Vertex]) {
        std::mem::swap(&mut self.top, &mut self.bottom);
        for c in 0..self.diagonal.len() {
            self.bottom[c] = MeshEdge::new(bottom[c].position, bottom[c + 1].position);
            self.diagonal[c] = MeshEdge::new(top[c].position, bottom[c + 1].position);
        }
        for (c, edge) in self.along.iter_mut().enumerate() {
            *edge = MeshEdge::new(top[c].position, bottom[c].position);
        }
    }

    /// The edges of the row's cell `c`.
    #[inline(always)]
    fn cell(&self, c: usize) -> CellEdges<'_> {
        CellEdges {
            top: &self.top[c],
            right: &self.along[c + 1],
            bottom: &self.bottom[c],
            left: &self.along[c],
            diagonal: &self.diagonal[c],
        }
    }
}

/// Rasterizes a mesh of `cols`-vertex rows (`vertices` row-major) cell by
/// cell, each cell as triangles `(v00, v10, v11)` and `(v00, v11, v01)`,
/// sampling the cells of each row with the row's filter
/// ([`Sampler::for_mesh_row`]). The path of
/// [`TexturedMesh::rasterize`](crate::TexturedMesh) for every sampler and
/// blend mode; vertex counting is its caller's. Each row's edges are set up
/// once, into an [`EdgeTable`] its cells share.
pub(crate) fn rasterize_mesh(
    target: &mut Texture,
    cols: usize,
    vertices: &[Vertex],
    sampler: Sampler<'_>,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    let mut table = EdgeTable::new(&vertices[..cols]);
    for rows in vertices.windows(2 * cols).step_by(cols) {
        let (top, bottom) = rows.split_at(cols);
        table.next_row(top, bottom);
        let filter = sampler.for_mesh_row(top, bottom);
        for c in 0..cols - 1 {
            let corners = [top[c], top[c + 1], bottom[c + 1], bottom[c]];
            rasterize_cell(
                target,
                filter,
                corners,
                table.cell(c),
                intensity,
                blend,
                stats,
            );
        }
    }
}

/// Rasterizes one mesh cell — corners `v00, v10, v11, v01` in perimeter
/// order — as its two triangles `(v00, v10, v11)` and `(v00, v11, v01)`.
///
/// Cells that pass [`CellBox::new`]'s gates take the *cell walker*: one
/// scan over the pixels near the cell that applies triangle A, then
/// triangle B, at each pixel, with the per-triangle coverage predicate,
/// attribute planes and shading, set up from the edge table
/// ([`CellTriangle`]). Each pixel therefore receives the same blends in the
/// same order as when A and then B are walked on their own — bit-identical
/// output and [`RasterStats`], also for folded cells and non-additive
/// blends. Other cells set up and walk their triangles one by one.
#[inline(always)]
fn rasterize_cell(
    target: &mut Texture,
    filter: Filter<'_>,
    [v00, v10, v11, v01]: [Vertex; 4],
    edges: CellEdges<'_>,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    let corners = [v00, v10, v11, v01].map(|v| v.position);
    let areas = [
        edge(corners[0], corners[1], corners[2]),
        edge(corners[0], corners[2], corners[3]),
    ];
    let Some(cell) = CellBox::new(target, corners, areas) else {
        for [v0, v1, v2] in [[v00, v10, v11], [v00, v11, v01]] {
            if let Some(setup) = TriSetup::new(target, v0, v1, v2, stats) {
                rasterize_setup(target, filter, &setup, intensity, blend, stats);
            }
        }
        return;
    };
    stats.triangles += 2;
    let Some(cell) = cell else {
        return;
    };
    let a = CellTriangle::new(
        [v00, v10, v11],
        areas[0],
        [
            (edges.right, true),
            (edges.diagonal, false),
            (edges.top, true),
        ],
    );
    let b = CellTriangle::new(
        [v00, v11, v01],
        areas[1],
        [
            (edges.bottom, false),
            (edges.left, false),
            (edges.diagonal, true),
        ],
    );
    match (filter, blend) {
        (Filter::Bilinear(tex), BlendMode::Additive) => walk_cell(
            target,
            &cell,
            &a,
            &b,
            intensity,
            stats,
            bilinear(tex),
            |d, s| d + s,
        ),
        (Filter::Bilinear(tex), mode) => walk_cell(
            target,
            &cell,
            &a,
            &b,
            intensity,
            stats,
            bilinear(tex),
            move |d, s| mode.apply(d, s),
        ),
        (Filter::Nearest(tex), BlendMode::Additive) => walk_cell(
            target,
            &cell,
            &a,
            &b,
            intensity,
            stats,
            nearest(tex),
            |d, s| d + s,
        ),
        (Filter::Nearest(tex), mode) => walk_cell(
            target,
            &cell,
            &a,
            &b,
            intensity,
            stats,
            nearest(tex),
            move |d, s| mode.apply(d, s),
        ),
    }
}

/// The exact-mode fragment sample: bilinear at the interpolated uv.
#[inline(always)]
fn bilinear(tex: &Texture) -> impl Fn(&AttrRow, &AttrRow, f64) -> f32 + '_ {
    let kernel = Bilinear::new(tex);
    move |u, v, px| kernel.sample(u.at_column(px) as f32, v.at_column(px) as f32)
}

/// The footprint-mode fragment sample: one clamped nearest fetch.
#[inline(always)]
fn nearest(tex: &Texture) -> impl Fn(&AttrRow, &AttrRow, f64) -> f32 + '_ {
    let (tw, th) = (tex.width(), tex.height());
    let texels = tex.data();
    move |u, v, px| {
        let tx = nearest_index(u.at_column(px) as f32, tw);
        texels[nearest_index(v.at_column(px) as f32, th) * tw + tx]
    }
}

/// The cell walker's scan: per pixel of `cell`, triangle `a` then triangle
/// `b`, each through the same predicate and shading as the per-triangle
/// walkers. One monomorphized copy per sampler and blend.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn walk_cell<S, F>(
    target: &mut Texture,
    cell: &CellBox,
    a: &CellTriangle,
    b: &CellTriangle,
    intensity: f32,
    stats: &mut RasterStats,
    sample: S,
    apply: F,
) where
    S: Fn(&AttrRow, &AttrRow, f64) -> f32,
    F: Fn(f32, f32) -> f32,
{
    let width = target.width();
    let data = target.data_mut();
    let mut fragments = 0u64;
    for py in cell.y0..=cell.y1 {
        let (ea, eb) = (a.row(py), b.row(py));
        let (au, av) = (a.u_plane.row(py), a.v_plane.row(py));
        let (bu, bv) = (b.u_plane.row(py), b.v_plane.row(py));
        let row_start = py * width;
        let row = &mut data[row_start + cell.x0..=row_start + cell.x1];
        // The column steps in floating point: `cell.x0 as f64 + k` is exact.
        let mut px = cell.x0 as f64;
        for dst in row {
            if ea.covers_at(px) {
                *dst = apply(*dst, sample(&au, &av, px) * intensity);
                fragments += 1;
            }
            if eb.covers_at(px) {
                *dst = apply(*dst, sample(&bu, &bv, px) * intensity);
                fragments += 1;
            }
            px += 1.0;
        }
    }
    stats.fragments += fragments;
}

/// A triangle's three [`RowEdge`]s with the traversal sign folded in, so a
/// coverage test is one branch-free expression instead of three
/// short-circuited, sign-dependent ones. Negating `c` and `a` negates
/// `c + px·a` exactly (rounding to nearest is symmetric), so
/// [`RowTriangle::covers_at`] decides exactly as the three
/// [`RowEdge::covers`].
#[derive(Debug, Clone, Copy)]
struct RowTriangle {
    c: [f64; 3],
    a: [f64; 3],
    accept: [bool; 3],
}

impl RowTriangle {
    /// The folded rows of a set-up triangle: the oracle of
    /// [`CellTriangle::row`].
    #[cfg(test)]
    fn new(setup: &TriSetup, py: usize) -> RowTriangle {
        let rows = setup.edges.map(|e| e.row(py));
        let sign = rows.map(|e| if e.flip { -1.0 } else { 1.0 });
        RowTriangle {
            c: [0, 1, 2].map(|i| sign[i] * rows[i].c),
            a: [0, 1, 2].map(|i| sign[i] * rows[i].a),
            accept: rows.map(|e| e.accept),
        }
    }

    #[inline(always)]
    fn covers_at(&self, px: f64) -> bool {
        let mut inside = true;
        for i in 0..3 {
            let e = self.c[i] + px * self.a[i];
            inside &= (e > 0.0) | ((e == 0.0) & self.accept[i]);
        }
        inside
    }
}

/// Rasterizes a triangle without counting its vertices (quads count theirs
/// up front). Footprint samplers pick the pyramid level from the
/// triangle's own setup ([`Sampler::for_triangle`]).
#[allow(clippy::too_many_arguments)]
fn rasterize_triangle_uncounted(
    target: &mut Texture,
    sampler: Sampler<'_>,
    v0: Vertex,
    v1: Vertex,
    v2: Vertex,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    if let Some(setup) = TriSetup::new(target, v0, v1, v2, stats) {
        rasterize_setup(
            target,
            sampler.for_triangle(&setup),
            &setup,
            intensity,
            blend,
            stats,
        );
    }
}

/// Rasterizes a single textured triangle into `target`.
///
/// Each fragment samples the spot texture through `sampler` at the
/// interpolated uv coordinate, is multiplied by `intensity` (the random
/// spot weight `aᵢ`) and blended into the target using `blend`.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_triangle(
    target: &mut Texture,
    sampler: Sampler<'_>,
    v0: Vertex,
    v1: Vertex,
    v2: Vertex,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    stats.vertices += 3;
    rasterize_triangle_uncounted(target, sampler, v0, v1, v2, intensity, blend, stats);
}

/// Rasterizes a textured quadrilateral (the standard four-vertex spot) as two
/// triangles, each sampled through `sampler` as [`rasterize_triangle`]
/// samples. Vertices must be supplied in perimeter order.
///
/// A quad streams exactly 4 vertices over the bus (the two triangles share
/// the `quad[0]`–`quad[2]` diagonal), counted up front — so the accounting
/// stays correct even when one of the triangles is rejected as degenerate.
pub fn rasterize_quad(
    target: &mut Texture,
    sampler: Sampler<'_>,
    quad: [Vertex; 4],
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    stats.vertices += 4;
    for [v0, v1, v2] in [[quad[0], quad[1], quad[2]], [quad[0], quad[2], quad[3]]] {
        rasterize_triangle_uncounted(target, sampler, v0, v1, v2, intensity, blend, stats);
    }
}

/// Builds the axis-aligned quad covering a disc spot of radius `radius`
/// centred at `center` (in pixel coordinates), with uv spanning the full spot
/// texture.
pub fn axis_aligned_spot_quad(center: Vec2, radius: f64) -> [Vertex; 4] {
    let r = radius;
    [
        Vertex::new(center + Vec2::new(-r, -r), 0.0, 0.0),
        Vertex::new(center + Vec2::new(r, -r), 1.0, 0.0),
        Vertex::new(center + Vec2::new(r, r), 1.0, 1.0),
        Vertex::new(center + Vec2::new(-r, r), 0.0, 1.0),
    ]
}

/// The naive per-pixel reference rasterizer: full bounding-box scan with
/// three inside-tests per pixel, per-pixel bilinear sampling and
/// bounds-checked texel accessors. This is the scan *structure* the span
/// walker replaced; it is retained as the correctness oracle (outputs are
/// pixel-identical because both paths share `TriSetup`, the coverage
/// predicate and the per-pixel shading arithmetic) and as the baseline the
/// benches compare against. Since the shared setup is cheaper than the
/// seed's per-pixel cross products, measured speedups against this path
/// understate the win over the original code.
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::*;

    /// [`Texture::sample_bilinear`] with `f32::floor` in place of
    /// [`floor_index`]: the same value, computed independently of the helper
    /// (which the equivalence tests thereby check on every sampled
    /// coordinate), at the per-fragment cost the baseline always had.
    fn sample_bilinear_std(tex: &Texture, u: f32, v: f32) -> f32 {
        let (w, h) = (tex.width(), tex.height());
        let fx = (u * w as f32 - 0.5).clamp(0.0, w as f32 - 1.0);
        let fy = (v * h as f32 - 0.5).clamp(0.0, h as f32 - 1.0);
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let x1 = (x0 + 1).min(w - 1);
        let y1 = (y0 + 1).min(h - 1);
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let a = tex.texel(x0, y0);
        let b = tex.texel(x1, y0);
        let c = tex.texel(x0, y1);
        let d = tex.texel(x1, y1);
        let bottom = a + (b - a) * tx;
        let top = c + (d - c) * tx;
        bottom + (top - bottom) * ty
    }

    fn rasterize_setup_naive(
        target: &mut Texture,
        spot_texture: &Texture,
        setup: &TriSetup,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        for py in setup.y0..=setup.y1 {
            let e0 = setup.edges[0].row(py);
            let e1 = setup.edges[1].row(py);
            let e2 = setup.edges[2].row(py);
            let u_row = setup.u_plane.row(py);
            let v_row = setup.v_plane.row(py);
            for px in setup.x0..=setup.x1 {
                // `px as f64`, the conversion the baseline always had: the
                // same value as the span walker's `isize` route, at the
                // baseline's per-pixel cost.
                let x = px as f64;
                if !(e0.covers_column(x) && e1.covers_column(x) && e2.covers_column(x)) {
                    continue;
                }
                let u = u_row.at_column(x) as f32;
                let v = v_row.at_column(x) as f32;
                let sample = sample_bilinear_std(spot_texture, u, v) * intensity;
                let dst = target.texel(px, py);
                *target.texel_mut(px, py) = blend.apply(dst, sample);
                stats.fragments += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rasterize_triangle_uncounted(
        target: &mut Texture,
        spot_texture: &Texture,
        v0: Vertex,
        v1: Vertex,
        v2: Vertex,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        if let Some(setup) = TriSetup::new(target, v0, v1, v2, stats) {
            rasterize_setup_naive(target, spot_texture, &setup, intensity, blend, stats);
        }
    }

    /// Reference counterpart of [`super::rasterize_triangle`].
    #[allow(clippy::too_many_arguments)]
    pub fn rasterize_triangle(
        target: &mut Texture,
        spot_texture: &Texture,
        v0: Vertex,
        v1: Vertex,
        v2: Vertex,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        stats.vertices += 3;
        rasterize_triangle_uncounted(target, spot_texture, v0, v1, v2, intensity, blend, stats);
    }

    /// Reference counterpart of [`super::rasterize_quad`].
    pub fn rasterize_quad(
        target: &mut Texture,
        spot_texture: &Texture,
        quad: [Vertex; 4],
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        stats.vertices += 4;
        rasterize_triangle_uncounted(
            target,
            spot_texture,
            quad[0],
            quad[1],
            quad[2],
            intensity,
            blend,
            stats,
        );
        rasterize_triangle_uncounted(
            target,
            spot_texture,
            quad[0],
            quad[2],
            quad[3],
            intensity,
            blend,
            stats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::disc_spot_texture;

    fn flat_spot() -> Texture {
        let mut t = Texture::new(8, 8);
        t.fill(1.0);
        t
    }

    #[test]
    fn triangle_covers_expected_area() {
        let mut target = Texture::new(32, 32);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        // Right triangle covering half of a 16x16 square.
        let v0 = Vertex::new(Vec2::new(0.0, 0.0), 0.0, 0.0);
        let v1 = Vertex::new(Vec2::new(16.0, 0.0), 1.0, 0.0);
        let v2 = Vertex::new(Vec2::new(0.0, 16.0), 0.0, 1.0);
        rasterize_triangle(
            &mut target,
            Sampler::Exact(&spot),
            v0,
            v1,
            v2,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.triangles, 1);
        assert_eq!(stats.vertices, 3);
        // About half of 256 texels should be covered.
        assert!(
            stats.fragments > 100 && stats.fragments < 160,
            "{}",
            stats.fragments
        );
        // Covered texels got the intensity, others stayed zero.
        assert!(target.texel(2, 2) > 0.0);
        assert_eq!(target.texel(30, 30), 0.0);
    }

    #[test]
    fn winding_does_not_matter() {
        let spot = flat_spot();
        let v0 = Vertex::new(Vec2::new(2.0, 2.0), 0.0, 0.0);
        let v1 = Vertex::new(Vec2::new(12.0, 2.0), 1.0, 0.0);
        let v2 = Vertex::new(Vec2::new(2.0, 12.0), 0.0, 1.0);
        let mut a = Texture::new(16, 16);
        let mut b = Texture::new(16, 16);
        let mut s = RasterStats::default();
        rasterize_triangle(
            &mut a,
            Sampler::Exact(&spot),
            v0,
            v1,
            v2,
            1.0,
            BlendMode::Additive,
            &mut s,
        );
        rasterize_triangle(
            &mut b,
            Sampler::Exact(&spot),
            v0,
            v2,
            v1,
            1.0,
            BlendMode::Additive,
            &mut s,
        );
        assert_eq!(a.absolute_difference(&b), 0.0);
    }

    #[test]
    fn degenerate_triangle_rejected() {
        let mut target = Texture::new(16, 16);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let v = Vertex::new(Vec2::new(4.0, 4.0), 0.0, 0.0);
        rasterize_triangle(
            &mut target,
            Sampler::Exact(&spot),
            v,
            v,
            v,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.triangles, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.fragments, 0);
    }

    #[test]
    fn offscreen_triangle_rejected() {
        let mut target = Texture::new(16, 16);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let v0 = Vertex::new(Vec2::new(100.0, 100.0), 0.0, 0.0);
        let v1 = Vertex::new(Vec2::new(110.0, 100.0), 1.0, 0.0);
        let v2 = Vertex::new(Vec2::new(100.0, 110.0), 0.0, 1.0);
        rasterize_triangle(
            &mut target,
            Sampler::Exact(&spot),
            v0,
            v1,
            v2,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.fragments, 0);
    }

    #[test]
    fn quad_covers_square_and_counts_four_vertices() {
        let mut target = Texture::new(32, 32);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 8.0);
        rasterize_quad(
            &mut target,
            Sampler::Exact(&spot),
            quad,
            2.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.vertices, 4);
        assert_eq!(stats.triangles, 2);
        // The 16x16 square around the centre is filled with intensity 2.
        assert!((target.texel(16, 16) - 2.0).abs() < 1e-6);
        assert!((target.texel(10, 20) - 2.0).abs() < 1e-6);
        assert_eq!(target.texel(2, 2), 0.0);
    }

    #[test]
    fn quad_counts_four_vertices_even_when_a_triangle_degenerates() {
        // Regression for the old `saturating_sub(2)` accounting hack: a quad
        // whose first triangle is degenerate (three collinear corners) still
        // streams exactly 4 vertices on the bus.
        let mut target = Texture::new(32, 32);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = [
            Vertex::new(Vec2::new(4.0, 4.0), 0.0, 0.0),
            Vertex::new(Vec2::new(10.0, 10.0), 1.0, 0.0),
            Vertex::new(Vec2::new(16.0, 16.0), 1.0, 1.0),
            Vertex::new(Vec2::new(4.0, 16.0), 0.0, 1.0),
        ];
        rasterize_quad(
            &mut target,
            Sampler::Exact(&spot),
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.vertices, 4);
        assert_eq!(stats.triangles, 1);
        assert_eq!(stats.rejected, 1);
        assert!(stats.fragments > 0);
    }

    #[test]
    fn quad_interior_fragments_not_double_blended_on_diagonal() {
        // Additive blending would show a bright diagonal seam if the shared
        // edge of the two triangles were rasterized twice. Count fragments
        // instead: they must equal the covered area, not exceed it much.
        let mut target = Texture::new(64, 64);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(32.0, 32.0), 16.0);
        rasterize_quad(
            &mut target,
            Sampler::Exact(&spot),
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        let max = target.data().iter().cloned().fold(0.0f32, f32::max);
        assert!(max <= 1.0 + 1e-5, "diagonal seam double-blended: {max}");
    }

    #[test]
    fn spot_texture_modulates_fragment_intensity() {
        let mut target = Texture::new(64, 64);
        let spot = disc_spot_texture(32, 0.4);
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(32.0, 32.0), 16.0);
        rasterize_quad(
            &mut target,
            Sampler::Exact(&spot),
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        // Centre of the spot is bright, the quad corner (outside the disc) is
        // nearly zero.
        assert!(target.texel(32, 32) > 0.9);
        assert!(target.texel(18, 18) < 0.1);
    }

    #[test]
    fn negative_intensity_darkens() {
        let mut target = Texture::new(32, 32);
        target.fill(1.0);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0);
        rasterize_quad(
            &mut target,
            Sampler::Exact(&spot),
            quad,
            -0.5,
            BlendMode::Additive,
            &mut stats,
        );
        assert!((target.texel(16, 16) - 0.5).abs() < 1e-6);
        assert!((target.texel(2, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RasterStats {
            vertices: 3,
            triangles: 1,
            fragments: 10,
            rejected: 0,
        };
        let b = RasterStats {
            vertices: 4,
            triangles: 2,
            fragments: 20,
            rejected: 1,
        };
        a.merge(&b);
        assert_eq!(a.vertices, 7);
        assert_eq!(a.triangles, 3);
        assert_eq!(a.fragments, 30);
        assert_eq!(a.rejected, 1);
    }

    #[test]
    fn partial_overlap_with_target_edge_is_clipped() {
        let mut target = Texture::new(16, 16);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(0.0, 8.0), 4.0);
        rasterize_quad(
            &mut target,
            Sampler::Exact(&spot),
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        // Fragments were produced only for the on-screen half.
        assert!(stats.fragments > 0);
        assert!(stats.fragments <= 5 * 9);
    }

    mod equivalence {
        //! Pixel-exact parity between the span walker and the retained
        //! naive reference path, over randomized and adversarial inputs.

        use super::*;
        use crate::mesh::TexturedMesh;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        fn assert_identical(
            fast: &Texture,
            fast_stats: &RasterStats,
            slow: &Texture,
            slow_stats: &RasterStats,
            context: &str,
        ) {
            assert_eq!(
                fast.absolute_difference(slow),
                0.0,
                "pixel mismatch: {context}"
            );
            assert_eq!(fast_stats, slow_stats, "stats mismatch: {context}");
        }

        fn random_vertex(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> Vertex {
            Vertex::new(
                Vec2::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi)),
                rng.gen_range(0.0f32..1.0),
                rng.gen_range(0.0f32..1.0),
            )
        }

        #[test]
        fn random_triangles_match_reference_exactly() {
            let spot = disc_spot_texture(16, 0.5);
            let mut rng = ChaCha8Rng::seed_from_u64(2024);
            for case in 0..300 {
                // Positions deliberately extend outside the target so
                // clipping paths are exercised too.
                let v0 = random_vertex(&mut rng, -10.0, 74.0);
                let v1 = random_vertex(&mut rng, -10.0, 74.0);
                let v2 = random_vertex(&mut rng, -10.0, 74.0);
                let intensity = rng.gen_range(-2.0f32..2.0);
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_triangle(
                    &mut fast,
                    Sampler::Exact(&spot),
                    v0,
                    v1,
                    v2,
                    intensity,
                    BlendMode::Additive,
                    &mut fs,
                );
                reference::rasterize_triangle(
                    &mut slow,
                    &spot,
                    v0,
                    v1,
                    v2,
                    intensity,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(&fast, &fs, &slow, &ss, &format!("triangle case {case}"));
            }
        }

        #[test]
        fn random_quads_match_reference_exactly() {
            let spot = disc_spot_texture(32, 0.4);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            for case in 0..200 {
                let center = Vec2::new(rng.gen_range(-8.0..72.0), rng.gen_range(-8.0..72.0));
                let radius = rng.gen_range(0.5..20.0);
                let quad = axis_aligned_spot_quad(center, radius);
                let intensity = rng.gen_range(-1.0f32..1.0);
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(
                    &mut fast,
                    Sampler::Exact(&spot),
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut fs,
                );
                reference::rasterize_quad(
                    &mut slow,
                    &spot,
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(&fast, &fs, &slow, &ss, &format!("quad case {case}"));
            }
        }

        #[test]
        fn random_sheared_quads_match_reference_exactly() {
            // Non-axis-aligned quads exercise the general (v-varying)
            // sampling path.
            let spot = disc_spot_texture(16, 0.5);
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for case in 0..200 {
                let c = Vec2::new(rng.gen_range(8.0..56.0), rng.gen_range(8.0..56.0));
                let r = rng.gen_range(2.0..14.0);
                let shear = rng.gen_range(-0.9..0.9);
                let quad = [
                    Vertex::new(c + Vec2::new(-r + shear * r, -r), 0.0, 0.0),
                    Vertex::new(c + Vec2::new(r, -r - shear * r), 1.0, 0.0),
                    Vertex::new(c + Vec2::new(r - shear * r, r), 1.0, 1.0),
                    Vertex::new(c + Vec2::new(-r, r + shear * r), 0.0, 1.0),
                ];
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(
                    &mut fast,
                    Sampler::Exact(&spot),
                    quad,
                    1.0,
                    BlendMode::Additive,
                    &mut fs,
                );
                reference::rasterize_quad(
                    &mut slow,
                    &spot,
                    quad,
                    1.0,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(&fast, &fs, &slow, &ss, &format!("sheared case {case}"));
            }
        }

        #[test]
        fn random_meshes_match_reference_exactly() {
            let spot = disc_spot_texture(16, 0.5);
            let mut rng = ChaCha8Rng::seed_from_u64(31337);
            for case in 0..40 {
                let rows = rng.gen_range(2usize..8);
                let cols = rng.gen_range(2usize..6);
                let origin = Vec2::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0));
                let mut vertices = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        let jitter = Vec2::new(rng.gen_range(-0.4..0.4), rng.gen_range(-0.4..0.4));
                        vertices.push(Vertex::new(
                            origin + Vec2::new(c as f64 * 5.0, r as f64 * 5.0) + jitter,
                            c as f32 / (cols - 1) as f32,
                            r as f32 / (rows - 1) as f32,
                        ));
                    }
                }
                let mesh = TexturedMesh::new(rows, cols, vertices);
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                mesh.rasterize(
                    &mut fast,
                    Sampler::Exact(&spot),
                    0.7,
                    BlendMode::Additive,
                    &mut fs,
                );
                mesh.rasterize_reference(&mut slow, &spot, 0.7, BlendMode::Additive, &mut ss);
                assert_identical(&fast, &fs, &slow, &ss, &format!("mesh case {case}"));
            }
        }

        #[test]
        fn edges_on_pixel_centres_match_reference_and_cover_exactly_once() {
            // Vertices at half-integer coordinates put triangle edges exactly
            // through pixel centres: the adversarial case for the top-left
            // rule. Both paths must agree pixel-for-pixel AND the quad pair
            // must cover every interior pixel exactly once.
            let spot = flat_spot();
            for &(x0, y0, x1, y1) in &[
                (2.5, 2.5, 12.5, 12.5),
                (0.5, 0.5, 15.5, 9.5),
                (3.5, 1.5, 3.5, 1.5), // degenerate: rejected by both paths
                (4.5, 4.5, 11.5, 4.5),
            ] {
                let quad = [
                    Vertex::new(Vec2::new(x0, y0), 0.0, 0.0),
                    Vertex::new(Vec2::new(x1, y0), 1.0, 0.0),
                    Vertex::new(Vec2::new(x1, y1), 1.0, 1.0),
                    Vertex::new(Vec2::new(x0, y1), 0.0, 1.0),
                ];
                let mut fast = Texture::new(16, 16);
                let mut slow = Texture::new(16, 16);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(
                    &mut fast,
                    Sampler::Exact(&spot),
                    quad,
                    1.0,
                    BlendMode::Additive,
                    &mut fs,
                );
                reference::rasterize_quad(
                    &mut slow,
                    &spot,
                    quad,
                    1.0,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(
                    &fast,
                    &fs,
                    &slow,
                    &ss,
                    &format!("pixel-centre quad ({x0},{y0})-({x1},{y1})"),
                );
                let max = fast.data().iter().cloned().fold(0.0f32, f32::max);
                assert!(max <= 1.0 + 1e-6, "double coverage on exact edges: {max}");
            }
        }

        #[test]
        fn shared_diagonal_pairs_cover_exactly_once_for_random_splits() {
            // Two triangles on opposite sides of a shared edge: canonical
            // edge evaluation guarantees every texel — including centres
            // lying exactly on the seam — is covered by exactly one of them.
            // With a flat unit spot and additive blending, any texel above
            // 1.0 would prove double coverage.
            let spot = flat_spot();
            let mut rng = ChaCha8Rng::seed_from_u64(5150);
            for case in 0..100 {
                let b = random_vertex(&mut rng, 4.0, 60.0);
                let c = random_vertex(&mut rng, 4.0, 60.0);
                let a = random_vertex(&mut rng, 4.0, 60.0);
                // Reflect `a` across the line through b-c so the second
                // apex is guaranteed on the opposite side of the seam.
                let dir = c.position - b.position;
                let len2 = dir.dot(dir);
                if len2 < 1e-9 {
                    continue;
                }
                let rel = a.position - b.position;
                let proj = dir * (rel.dot(dir) / len2);
                let mirrored = b.position + proj * 2.0 - rel;
                let d = Vertex::new(mirrored, 0.5, 0.5);
                let mut target = Texture::new(64, 64);
                let mut stats = RasterStats::default();
                // The shared edge is traversed b->c in one triangle and
                // c->b in the other, as adjacent primitives submit it.
                rasterize_triangle(
                    &mut target,
                    Sampler::Exact(&spot),
                    a,
                    b,
                    c,
                    1.0,
                    BlendMode::Additive,
                    &mut stats,
                );
                rasterize_triangle(
                    &mut target,
                    Sampler::Exact(&spot),
                    d,
                    c,
                    b,
                    1.0,
                    BlendMode::Additive,
                    &mut stats,
                );
                let max = target.data().iter().cloned().fold(0.0f32, f32::max);
                assert!(
                    max <= 1.0 + 1e-6,
                    "case {case}: seam texel covered twice (max {max})"
                );
            }
        }

        #[test]
        fn all_blend_modes_match_reference() {
            use crate::blend::AlphaFactor;
            let spot = disc_spot_texture(16, 0.5);
            let modes = [
                BlendMode::Additive,
                BlendMode::Replace,
                BlendMode::Max,
                BlendMode::Alpha(AlphaFactor::new(0.3)),
            ];
            let quad = axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 9.0);
            for mode in modes {
                let mut fast = Texture::new(32, 32);
                fast.fill(0.25);
                let mut slow = fast.clone();
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(&mut fast, Sampler::Exact(&spot), quad, 0.8, mode, &mut fs);
                reference::rasterize_quad(&mut slow, &spot, quad, 0.8, mode, &mut ss);
                assert_identical(&fast, &fs, &slow, &ss, &format!("blend mode {mode:?}"));
            }
        }

        #[test]
        fn footprint_mode_covers_identically_and_samples_closely() {
            use std::sync::Arc;
            // Footprint sampling must change *sampling only*: the covered
            // fragment set (count and positions) matches the exact path
            // exactly, and on a smooth disc texture the nearest samples stay
            // close to the bilinear ones.
            let spot = disc_spot_texture(32, 0.5);
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            for case in 0..100 {
                let v0 = random_vertex(&mut rng, -10.0, 74.0);
                let v1 = random_vertex(&mut rng, -10.0, 74.0);
                let v2 = random_vertex(&mut rng, -10.0, 74.0);
                let mut exact = Texture::new(64, 64);
                let mut approx = Texture::new(64, 64);
                let mut es = RasterStats::default();
                let mut fs = RasterStats::default();
                rasterize_triangle(
                    &mut exact,
                    Sampler::Exact(&spot),
                    v0,
                    v1,
                    v2,
                    1.0,
                    BlendMode::Additive,
                    &mut es,
                );
                rasterize_triangle(
                    &mut approx,
                    Sampler::Footprint(&pyramid),
                    v0,
                    v1,
                    v2,
                    1.0,
                    BlendMode::Additive,
                    &mut fs,
                );
                assert_eq!(es, fs, "case {case}: coverage diverged");
                for y in 0..64 {
                    for x in 0..64 {
                        let e = exact.texel(x, y);
                        let a = approx.texel(x, y);
                        // Same coverage, different sampling: values may
                        // differ (nearest vs bilinear, and either can be 0
                        // at the disc rim) but never drift far on a smooth
                        // spot texture.
                        assert!(
                            (e - a).abs() < 0.5,
                            "case {case}: sample drifted at ({x},{y}): {e} vs {a}"
                        );
                    }
                }
            }
        }

        #[test]
        fn footprint_mode_on_flat_texture_is_exact() {
            use std::sync::Arc;
            // Every pyramid level of a constant texture is that constant, so
            // nearest and bilinear sampling agree exactly: flat-spot
            // footprint output must be bit-identical to the exact path.
            let spot = flat_spot();
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let mut rng = ChaCha8Rng::seed_from_u64(4242);
            for case in 0..50 {
                let quad = axis_aligned_spot_quad(
                    Vec2::new(rng.gen_range(-8.0..72.0), rng.gen_range(-8.0..72.0)),
                    rng.gen_range(0.5..20.0),
                );
                let intensity = rng.gen_range(-1.0f32..1.0);
                let mut exact = Texture::new(64, 64);
                let mut approx = Texture::new(64, 64);
                let mut es = RasterStats::default();
                let mut fs = RasterStats::default();
                rasterize_quad(
                    &mut exact,
                    Sampler::Exact(&spot),
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut es,
                );
                rasterize_quad(
                    &mut approx,
                    Sampler::Footprint(&pyramid),
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut fs,
                );
                assert_eq!(
                    exact.absolute_difference(&approx),
                    0.0,
                    "case {case}: flat-texture footprint diverged"
                );
                assert_eq!(es, fs, "case {case}: stats diverged");
            }
        }

        #[test]
        fn footprint_shared_edges_still_cover_exactly_once() {
            use std::sync::Arc;
            // Same seam guarantee as the exact path: footprint mode reuses
            // the coverage predicate, so a flat-spot mesh must never
            // double-blend its internal edges.
            let spot = flat_spot();
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let mesh = crate::mesh::rectangle_mesh(5, 4, 8.0, 8.0, 40.0, 40.0);
            let mut target = Texture::new(64, 64);
            let mut stats = RasterStats::default();
            mesh.rasterize(
                &mut target,
                Sampler::Footprint(&pyramid),
                1.0,
                BlendMode::Additive,
                &mut stats,
            );
            let max = target.data().iter().cloned().fold(0.0f32, f32::max);
            assert!(max <= 1.0 + 1e-5, "footprint seam double-blended: {max}");
            assert!((target.texel(20, 20) - 1.0).abs() < 1e-6);
        }

        #[test]
        fn uniform_spot_rows_take_constant_fill_and_match_reference() {
            // A flat spot texture triggers the nearest-sample/uniform-row
            // fast path; the result must still equal the reference exactly.
            let spot = flat_spot();
            let quad = axis_aligned_spot_quad(Vec2::new(20.0, 20.0), 13.0);
            let mut fast = Texture::new(48, 48);
            let mut slow = Texture::new(48, 48);
            let mut fs = RasterStats::default();
            let mut ss = RasterStats::default();
            rasterize_quad(
                &mut fast,
                Sampler::Exact(&spot),
                quad,
                1.5,
                BlendMode::Additive,
                &mut fs,
            );
            reference::rasterize_quad(&mut slow, &spot, quad, 1.5, BlendMode::Additive, &mut ss);
            assert_identical(&fast, &fs, &slow, &ss, "uniform fast path");
        }
    }
    mod cell_walker {
        //! Seeded random meshes through the cell walker, the per-triangle
        //! composition it replaces and the reference rasterizer: texels and
        //! counters must agree bit for bit, in both sampling modes and every
        //! blend mode.

        use super::*;
        use crate::blend::AlphaFactor;
        use crate::mesh::TexturedMesh;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use std::sync::Arc;

        const W: usize = 40;
        const H: usize = 32;

        fn modes() -> [BlendMode; 4] {
            [
                BlendMode::Additive,
                BlendMode::Replace,
                BlendMode::Max,
                BlendMode::Alpha(AlphaFactor::new(0.3)),
            ]
        }

        fn cell(mesh: &TexturedMesh, r: usize, c: usize) -> [Vertex; 4] {
            [
                mesh.vertex(r, c),
                mesh.vertex(r, c + 1),
                mesh.vertex(r + 1, c + 1),
                mesh.vertex(r + 1, c),
            ]
        }

        /// A jittered, rotated grid mesh. Depending on the draw: sub-pixel
        /// to wider-than-narrow cells, jitter large enough to fold cells
        /// into bow-ties, vertices snapped onto pixel centres, slivers whose
        /// doubled area straddles the 1e-12 rejection cutoff (and thin but
        /// accepted ones), and placements partly off the target.
        fn random_mesh(rng: &mut ChaCha8Rng) -> TexturedMesh {
            let rows = rng.gen_range(2usize..7);
            let cols = rng.gen_range(2usize..6);
            let spacing = match rng.gen_range(0..4) {
                0 => rng.gen_range(0.2..1.0),
                1 | 2 => rng.gen_range(1.0..4.0),
                _ => rng.gen_range(4.0..14.0),
            };
            let jitter = spacing * [0.0, 0.2, 0.9][rng.gen_range(0..3)];
            let (sin, cos) = rng.gen_range(0.0..std::f64::consts::TAU).sin_cos();
            let origin = Vec2::new(
                rng.gen_range(-12.0..W as f64 + 2.0),
                rng.gen_range(-12.0..H as f64 + 2.0),
            );
            let snap = rng.gen_range(0.0..0.3);
            let mut vertices = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    let (x, y) = (c as f64 * spacing, r as f64 * spacing);
                    let mut p = origin
                        + Vec2::new(x * cos - y * sin, x * sin + y * cos)
                        + Vec2::new(
                            rng.gen_range(-1.0..=1.0) * jitter,
                            rng.gen_range(-1.0..=1.0) * jitter,
                        );
                    if rng.gen_range(0.0..1.0) < snap {
                        p = Vec2::new(p.x.floor() + 0.5, p.y.floor() + 0.5);
                    }
                    let u = c as f32 / (cols - 1) as f32;
                    let v = r as f32 / (rows - 1) as f32;
                    vertices.push(Vertex::new(p, u, v));
                }
            }
            if rng.gen_range(0.0..1.0) < 0.4 {
                // Pull v11 of one cell onto the line v00 -> v10, offset so
                // that triangle (v00, v10, v11) has doubled area k * 1e-12.
                let r = rng.gen_range(0..rows - 1);
                let c = rng.gen_range(0..cols - 1);
                let v00 = vertices[r * cols + c].position;
                let d = vertices[r * cols + c + 1].position - v00;
                let len = d.dot(d).sqrt();
                if len > 1e-6 {
                    let k = [0.3, 0.9, 1.1, 3.0, 1e3, 1e6, 1e8, 1e10, 1e11][rng.gen_range(0..9)];
                    let normal = Vec2::new(-d.y / len, d.x / len);
                    let t = rng.gen_range(-0.5..1.5);
                    vertices[(r + 1) * cols + c + 1].position =
                        v00 + d * t + normal * (k * 1e-12 / len);
                }
            }
            TexturedMesh::new(rows, cols, vertices)
        }

        /// The per-triangle walk the cell walker replaces, exact sampling.
        fn per_triangle_exact(
            mesh: &TexturedMesh,
            target: &mut Texture,
            spot: &Texture,
            intensity: f32,
            blend: BlendMode,
            stats: &mut RasterStats,
        ) {
            stats.vertices += mesh.vertex_count() as u64;
            for r in 0..mesh.rows() - 1 {
                for c in 0..mesh.cols() - 1 {
                    let [v00, v10, v11, v01] = cell(mesh, r, c);
                    for (v0, v1, v2) in [(v00, v10, v11), (v00, v11, v01)] {
                        rasterize_triangle_uncounted(
                            target,
                            Sampler::Exact(spot),
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

        /// The per-triangle walk with footprint sampling at the row's level.
        fn per_triangle_footprint(
            mesh: &TexturedMesh,
            target: &mut Texture,
            pyramid: &FootprintPyramid,
            intensity: f32,
            blend: BlendMode,
            stats: &mut RasterStats,
        ) {
            stats.vertices += mesh.vertex_count() as u64;
            let (bw, bh) = (
                pyramid.base().width() as f64,
                pyramid.base().height() as f64,
            );
            for r in 0..mesh.rows() - 1 {
                let mut step = f32::INFINITY;
                for c in 0..mesh.cols() - 1 {
                    let [v00, v10, v11, v01] = cell(mesh, r, c);
                    for (v0, v1, v2) in [(v00, v10, v11), (v00, v11, v01)] {
                        if let Some(s) = triangle_footprint_step(v0, v1, v2, bw, bh) {
                            step = step.min(s);
                        }
                    }
                }
                let tex = pyramid.level(pyramid.level_for_step(step));
                for c in 0..mesh.cols() - 1 {
                    let [v00, v10, v11, v01] = cell(mesh, r, c);
                    for (v0, v1, v2) in [(v00, v10, v11), (v00, v11, v01)] {
                        if let Some(setup) = TriSetup::new(target, v0, v1, v2, stats) {
                            rasterize_setup(
                                target,
                                Filter::Nearest(tex),
                                &setup,
                                intensity,
                                blend,
                                stats,
                            );
                        }
                    }
                }
            }
        }

        fn assert_same(got: &(Texture, RasterStats), want: &(Texture, RasterStats), context: &str) {
            let same = got
                .0
                .data()
                .iter()
                .zip(want.0.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "texels differ: {context}");
            assert_eq!(got.1, want.1, "stats differ: {context}");
        }

        /// How the walker would take each cell of `mesh`: `[walked, empty
        /// box, per triangle, with a rejected triangle]`.
        fn cell_routes(mesh: &TexturedMesh, target: &Texture) -> [usize; 4] {
            let mut routes = [0; 4];
            let mut stats = RasterStats::default();
            for r in 0..mesh.rows() - 1 {
                for c in 0..mesh.cols() - 1 {
                    let [v00, v10, v11, v01] = cell(mesh, r, c);
                    let a = TriSetup::new(target, v00, v10, v11, &mut stats);
                    let b = TriSetup::new(target, v00, v11, v01, &mut stats);
                    if a.is_none() || b.is_none() {
                        routes[3] += 1;
                        continue;
                    }
                    let corners = [v00.position, v10.position, v11.position, v01.position];
                    let areas = [
                        edge(corners[0], corners[1], corners[2]),
                        edge(corners[0], corners[2], corners[3]),
                    ];
                    routes[match CellBox::new(target, corners, areas) {
                        Some(Some(_)) => 0,
                        Some(None) => 1,
                        None => 2,
                    }] += 1;
                }
            }
            routes
        }

        /// Draws `cases` seeded [`random_mesh`]es, each passed through
        /// `shape`, and rasterizes each through the walker, the per-triangle
        /// walk and the reference, in every blend mode and both sampling
        /// modes: texels and counters must agree bit for bit. Returns the
        /// cell routes taken ([`cell_routes`]) and the walked cells by the
        /// winding of triangle A, `[clockwise, counter-clockwise]`.
        fn assert_seeded_meshes_match(
            seed: u64,
            cases: usize,
            shape: impl Fn(TexturedMesh) -> TexturedMesh,
        ) -> ([usize; 4], [usize; 2]) {
            let spot = disc_spot_texture(16, 0.5);
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut routes = [0; 4];
            let mut windings = [0; 2];
            for case in 0..cases {
                let mesh = shape(random_mesh(&mut rng));
                let mut base = Texture::new(W, H);
                for v in base.data_mut() {
                    *v = rng.gen_range(-1.0f32..1.0);
                }
                let intensity = rng.gen_range(-1.5f32..1.5);
                for (route, n) in routes.iter_mut().zip(cell_routes(&mesh, &base)) {
                    *route += n;
                }
                for r in 0..mesh.rows() - 1 {
                    for c in 0..mesh.cols() - 1 {
                        let p = cell(&mesh, r, c).map(|v| v.position);
                        let areas = [edge(p[0], p[1], p[2]), edge(p[0], p[2], p[3])];
                        if let Some(Some(_)) = CellBox::new(&base, p, areas) {
                            windings[(areas[0] > 0.0) as usize] += 1;
                        }
                    }
                }
                for mode in modes() {
                    let run = |draw: &dyn Fn(&mut Texture, &mut RasterStats)| {
                        let mut target = base.clone();
                        let mut stats = RasterStats::default();
                        draw(&mut target, &mut stats);
                        (target, stats)
                    };
                    let context = format!("seed {seed:#x}, case {case}, {mode:?}");
                    let walked =
                        run(&|t, s| mesh.rasterize(t, Sampler::Exact(&spot), intensity, mode, s));
                    let split =
                        run(&|t, s| per_triangle_exact(&mesh, t, &spot, intensity, mode, s));
                    let reference =
                        run(&|t, s| mesh.rasterize_reference(t, &spot, intensity, mode, s));
                    assert_same(
                        &walked,
                        &split,
                        &format!("exact vs per-triangle, {context}"),
                    );
                    assert_same(
                        &walked,
                        &reference,
                        &format!("exact vs reference, {context}"),
                    );
                    let walked = run(&|t, s| {
                        mesh.rasterize(t, Sampler::Footprint(&pyramid), intensity, mode, s)
                    });
                    let split =
                        run(&|t, s| per_triangle_footprint(&mesh, t, &pyramid, intensity, mode, s));
                    assert_same(&walked, &split, &format!("footprint, {context}"));
                }
            }
            (routes, windings)
        }

        #[test]
        fn random_meshes_match_per_triangle_walk_and_reference_bit_for_bit() {
            let (routes, _) = assert_seeded_meshes_match(0xCE11, 3000, |mesh| mesh);
            // The generator reaches every route through the walker.
            assert!(routes.iter().all(|&n| n > 50), "cell routes {routes:?}");
        }

        /// `mesh` reflected across the target's vertical centre line, which
        /// maps pixel centres onto pixel centres and turns clockwise cells
        /// counter-clockwise and back: a mirrored [`random_mesh`] is mostly
        /// clockwise.
        fn mirrored(mesh: &TexturedMesh) -> TexturedMesh {
            let vertices = mesh
                .vertices()
                .iter()
                .map(|v| {
                    Vertex::new(
                        Vec2::new(W as f64 - v.position.x, v.position.y),
                        v.uv.0,
                        v.uv.1,
                    )
                })
                .collect();
            TexturedMesh::new(mesh.rows(), mesh.cols(), vertices)
        }

        #[test]
        fn mirrored_meshes_match_per_triangle_walk_and_reference_bit_for_bit() {
            let (routes, windings) =
                assert_seeded_meshes_match(0x5E11, 1500, |mesh| mirrored(&mesh));
            assert!(routes.iter().all(|&n| n > 50), "cell routes {routes:?}");
            // Clockwise cells dominate what the walker takes.
            assert!(
                windings[0] > 4 * windings[1],
                "walked windings {windings:?}"
            );
        }

        /// The walker gate as it was before the edge table, on the two
        /// triangles' setups: the oracle of [`CellBox::new`].
        fn per_triangle_gate(
            target: &Texture,
            [v00, v10, v11, v01]: [Vertex; 4],
        ) -> Option<Option<(usize, usize, usize, usize)>> {
            let mut stats = RasterStats::default();
            TriSetup::new(target, v00, v10, v11, &mut stats)?;
            TriSetup::new(target, v00, v11, v01, &mut stats)?;
            let p = [v00, v10, v11, v01].map(|v| v.position);
            let area_a = edge(p[0], p[1], p[2]).abs();
            let area_b = edge(p[0], p[2], p[3]).abs();
            let min_x = p[0].x.min(p[1].x).min(p[2].x).min(p[3].x);
            let max_x = p[0].x.max(p[1].x).max(p[2].x).max(p[3].x);
            let min_y = p[0].y.min(p[1].y).min(p[2].y).min(p[3].y);
            let max_y = p[0].y.max(p[1].y).max(p[2].y).max(p[3].y);
            let extent = (max_x - min_x).max(max_y - min_y);
            let magnitude = min_x
                .abs()
                .max(max_x.abs())
                .max(min_y.abs())
                .max(max_y.abs())
                + 2.0;
            let limit = extent * extent * magnitude * CELL_CONDITION;
            if !(extent < NARROW_TRIANGLE_WIDTH as f64 && area_a >= limit && area_b >= limit) {
                return None;
            }
            let (hi_x, hi_y) = (max_x - 0.5 + CELL_MARGIN, max_y - 0.5 + CELL_MARGIN);
            if hi_x < 0.0 || hi_y < 0.0 {
                return Some(None);
            }
            let x0 = (min_x - 0.5 - CELL_MARGIN).ceil().max(0.0) as usize;
            let x1 = (hi_x.floor() as usize).min(target.width() - 1);
            let y0 = (min_y - 0.5 - CELL_MARGIN).ceil().max(0.0) as usize;
            let y1 = (hi_y.floor() as usize).min(target.height() - 1);
            Some((x0 <= x1 && y0 <= y1).then_some((x0, x1, y0, y1)))
        }

        /// An axis-aligned grid with its vertices on pixel centres, so its
        /// row and column edges run through pixel centres (as do many
        /// diagonals), at a quarter turn between 0 and 3.
        fn grid_on_pixel_centres(rng: &mut ChaCha8Rng) -> TexturedMesh {
            let (rows, cols) = (rng.gen_range(2usize..7), rng.gen_range(2usize..6));
            let spacing = rng.gen_range(1..5) as f64;
            let turns = rng.gen_range(0..4);
            let origin = Vec2::new(
                rng.gen_range(-4..W as i32 + 4) as f64 + 0.5,
                rng.gen_range(-4..H as i32 + 4) as f64 + 0.5,
            );
            let mut vertices = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    let (x, y) = (c as f64 * spacing, r as f64 * spacing);
                    let (x, y) = [(x, y), (-y, x), (-x, -y), (y, -x)][turns];
                    let uv = (c as f32 / (cols - 1) as f32, r as f32 / (rows - 1) as f32);
                    vertices.push(Vertex::new(origin + Vec2::new(x, y), uv.0, uv.1));
                }
            }
            TexturedMesh::new(rows, cols, vertices)
        }

        /// `mesh` with one vertex moved onto a neighbour along a row, a
        /// column or a cell diagonal: a zero-length edge.
        fn with_zero_length_edge(rng: &mut ChaCha8Rng, mesh: &TexturedMesh) -> TexturedMesh {
            let (rows, cols) = (mesh.rows(), mesh.cols());
            let (r, c) = (rng.gen_range(0..rows - 1), rng.gen_range(0..cols - 1));
            let (dr, dc) = [(0, 1), (1, 0), (1, 1)][rng.gen_range(0..3)];
            let mut vertices = mesh.vertices().to_vec();
            vertices[(r + dr) * cols + c + dc].position = vertices[r * cols + c].position;
            TexturedMesh::new(rows, cols, vertices)
        }

        /// `x` with a zero's sign dropped: the coverage predicate cannot see
        /// it (`e > 0` and `e == 0` hold alike for ±0), and folding a sign
        /// into a sum can flip it.
        fn bits(x: f64) -> u64 {
            (x + 0.0).to_bits()
        }

        fn same_plane(got: &AttrPlane, want: &AttrPlane) -> bool {
            [
                (got.base, want.base),
                (got.ddx, want.ddx),
                (got.ddy, want.ddy),
                (got.ox, want.ox),
                (got.oy, want.oy),
            ]
            .iter()
            .all(|(g, w)| g.to_bits() == w.to_bits())
        }

        #[test]
        fn edge_table_setups_equal_the_per_triangle_setups_bit_for_bit() {
            let target = Texture::new(W, H);
            let mut rng = ChaCha8Rng::seed_from_u64(0xED6E);
            // [walked cells, walked cells with an edge through pixel
            // centres, zero-length table edges].
            let mut seen = [0; 3];
            for case in 0..2000 {
                let mesh = match case % 4 {
                    0 => random_mesh(&mut rng),
                    1 => mirrored(&random_mesh(&mut rng)),
                    2 => grid_on_pixel_centres(&mut rng),
                    _ => {
                        let mesh = random_mesh(&mut rng);
                        with_zero_length_edge(&mut rng, &mesh)
                    }
                };
                let cols = mesh.cols();
                let vertices = mesh.vertices();
                let mut table = EdgeTable::new(&vertices[..cols]);
                for (r, rows) in vertices.windows(2 * cols).step_by(cols).enumerate() {
                    let (top, bottom) = rows.split_at(cols);
                    table.next_row(top, bottom);
                    for c in 0..cols - 1 {
                        let context = format!("case {case}, cell ({r}, {c})");
                        let edges = table.cell(c);
                        let [v00, v10, v11, v01] = [top[c], top[c + 1], bottom[c + 1], bottom[c]];
                        // Every table edge, both ways, against `EdgeFn::setup`
                        // with the flip folded in as `RowTriangle::new` does.
                        for (edge_fn, a, b) in [
                            (edges.top, v00, v10),
                            (edges.right, v10, v11),
                            (edges.bottom, v01, v11),
                            (edges.left, v00, v01),
                            (edges.diagonal, v00, v11),
                        ] {
                            seen[2] += (a.position == b.position) as usize;
                            for (forward, p, q) in [(true, a, b), (false, b, a)] {
                                let want = EdgeFn::setup(p.position, q.position);
                                let sign = if want.flip { -1.0 } else { 1.0 };
                                let folded = [want.c, want.px_coef, want.py_coef].map(|k| sign * k);
                                let (coef, accept) = edge_fn.directed(forward);
                                assert_eq!(
                                    coef.map(bits),
                                    folded.map(bits),
                                    "{context}, {p:?} -> {q:?}"
                                );
                                assert_eq!(accept, want.accept, "{context}, {p:?} -> {q:?}");
                            }
                        }
                        let corners = [v00, v10, v11, v01];
                        let p = corners.map(|v| v.position);
                        let areas = [edge(p[0], p[1], p[2]), edge(p[0], p[2], p[3])];
                        let gate = CellBox::new(&target, p, areas);
                        let boxed = gate.map(|cell| cell.map(|b| (b.x0, b.x1, b.y0, b.y1)));
                        assert_eq!(boxed, per_triangle_gate(&target, corners), "{context}");
                        let Some(Some(cell)) = gate else {
                            continue;
                        };
                        seen[0] += 1;
                        let through_centres =
                            p.iter().zip(p.iter().cycle().skip(1)).any(|(a, b)| {
                                (a.x == b.x && a.x.fract().abs() == 0.5)
                                    || (a.y == b.y && a.y.fract().abs() == 0.5)
                            });
                        seen[1] += through_centres as usize;
                        let lean = [
                            CellTriangle::new(
                                [v00, v10, v11],
                                areas[0],
                                [
                                    (edges.right, true),
                                    (edges.diagonal, false),
                                    (edges.top, true),
                                ],
                            ),
                            CellTriangle::new(
                                [v00, v11, v01],
                                areas[1],
                                [
                                    (edges.bottom, false),
                                    (edges.left, false),
                                    (edges.diagonal, true),
                                ],
                            ),
                        ];
                        let mut stats = RasterStats::default();
                        for (tri, [t0, t1, t2]) in
                            lean.iter().zip([[v00, v10, v11], [v00, v11, v01]])
                        {
                            let setup = TriSetup::new(&target, t0, t1, t2, &mut stats).unwrap();
                            assert!(
                                same_plane(&tri.u_plane, &setup.u_plane),
                                "{context}: u plane"
                            );
                            assert!(
                                same_plane(&tri.v_plane, &setup.v_plane),
                                "{context}: v plane"
                            );
                            for py in cell.y0..=cell.y1 {
                                let (got, want) = (tri.row(py), RowTriangle::new(&setup, py));
                                assert_eq!(
                                    got.c.map(bits),
                                    want.c.map(bits),
                                    "{context}, row {py}"
                                );
                                assert_eq!(
                                    got.a.map(bits),
                                    want.a.map(bits),
                                    "{context}, row {py}"
                                );
                                assert_eq!(got.accept, want.accept, "{context}, row {py}");
                            }
                        }
                    }
                }
            }
            assert!(
                seen.iter().all(|&n| n > 100),
                "walked, on pixel centres, zero-length: {seen:?}"
            );
        }

        #[test]
        fn slivers_covering_pixels_outside_their_bounds_match_reference() {
            // In floating point, the coverage predicate of a sliver can
            // accept a pixel centre outside the triangle's vertex bounding
            // box — outside the walker's box, but inside the setup box the
            // per-triangle walk scans. The conditioning bound must send such
            // cells to the per-triangle walk. Search seeded slivers a tenth
            // of a pixel right of a pixel centre, nearly flat along its row,
            // until the predicate accepts that centre, and compare.
            let spot = disc_spot_texture(16, 0.5);
            let target = Texture::new(W, H);
            let mut rng = ChaCha8Rng::seed_from_u64(0x5111);
            let mut found = 0;
            for _ in 0..2_000_000 {
                let y = rng.gen_range(1..H - 1) as f64 + 0.5;
                let x0 = rng.gen_range(1..W / 2) as f64 + 0.5 + rng.gen_range(0.005..0.3);
                let len = rng.gen_range(1.0..10.0);
                let mut flat = || y + rng.gen_range(-4e-12..4e-12);
                let v00 = Vertex::new(Vec2::new(x0, y), 0.0, 0.0);
                let v10 = Vertex::new(Vec2::new(x0 + len, flat()), 1.0, 0.0);
                let v11 = Vertex::new(Vec2::new(x0 + 0.5 * len, flat()), 1.0, 1.0);
                let v01 = Vertex::new(Vec2::new(x0 + 0.3, y + 2.0), 0.0, 1.0);
                let mut stats = RasterStats::default();
                let Some(sliver) = TriSetup::new(&target, v00, v10, v11, &mut stats) else {
                    continue;
                };
                let (px, py) = ((x0 - 0.5) as usize, (y - 0.5) as usize);
                if !sliver.edges.iter().all(|e| e.row(py).covers(px)) {
                    continue;
                }
                let mesh = TexturedMesh::new(2, 2, vec![v00, v10, v01, v11]);
                for mode in modes() {
                    let mut walked = (Texture::new(W, H), RasterStats::default());
                    let mut reference = walked.clone();
                    mesh.rasterize(
                        &mut walked.0,
                        Sampler::Exact(&spot),
                        0.8,
                        mode,
                        &mut walked.1,
                    );
                    mesh.rasterize_reference(&mut reference.0, &spot, 0.8, mode, &mut reference.1);
                    assert_same(&walked, &reference, &format!("sliver {found}, {mode:?}"));
                }
                found += 1;
                if found == 5 {
                    return;
                }
            }
            panic!("found only {found} slivers covering a pixel outside their bounds");
        }
    }

    mod span_search {
        //! The root-guided search against the bisection it replaced, row by
        //! row, and the span walkers against the
        //! per-pixel reference, over seeded adversarial triangles. The
        //! loops do not shrink a failing case, so failures print the seed,
        //! the case and the triangle.

        use super::*;
        use crate::blend::AlphaFactor;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use std::sync::Arc;

        const W: usize = 96;
        const H: usize = 40;

        fn uv(rng: &mut ChaCha8Rng) -> (f32, f32) {
            (rng.gen_range(0.0f32..1.0), rng.gen_range(0.0f32..1.0))
        }

        fn vertex(rng: &mut ChaCha8Rng, x: f64, y: f64) -> Vertex {
            let (u, v) = uv(rng);
            Vertex::new(Vec2::new(x, y), u, v)
        }

        /// A vertex up to `margin` px outside the target.
        fn around(rng: &mut ChaCha8Rng, margin: f64) -> Vertex {
            let x = rng.gen_range(-margin..W as f64 + margin);
            let y = rng.gen_range(-margin..H as f64 + margin);
            vertex(rng, x, y)
        }

        /// A seeded triangle from one of the classes that stress a span
        /// search: vertices on pixel centres (edge values exactly 0, on
        /// edges the fill rule accepts and on edges it rejects), slivers
        /// whose doubled area straddles the 1e-12 cutoff, NaN and ±inf
        /// coordinates, boxes 1 to 64 px wide starting right of column 0,
        /// placements partly off the target, and browse's small rotated
        /// triangles.
        fn triangle(rng: &mut ChaCha8Rng) -> [Vertex; 3] {
            match rng.gen_range(0..6) {
                0 => [0; 3].map(|_| {
                    let x = rng.gen_range(0..W + 8) as f64 - 3.5;
                    let y = rng.gen_range(0..H + 8) as f64 - 3.5;
                    vertex(rng, x, y)
                }),
                1 => {
                    let v0 = around(rng, 6.0);
                    let v1 = around(rng, 6.0);
                    let d = v1.position - v0.position;
                    let len = d.dot(d).sqrt().max(1e-9);
                    let k = [0.3, 0.9, 1.1, 3.0, 1e3, 1e6][rng.gen_range(0..6)];
                    let normal = Vec2::new(-d.y / len, d.x / len);
                    let p = v0.position + d * rng.gen_range(-0.5..1.5) + normal * (k * 1e-12 / len);
                    [v0, v1, vertex(rng, p.x, p.y)]
                }
                2 => {
                    let mut tri = [0; 3].map(|_| around(rng, 6.0));
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)];
                    let p = &mut tri[rng.gen_range(0..3)].position;
                    if rng.gen_range(0..2) == 0 {
                        p.x = bad;
                    } else {
                        p.y = bad;
                    }
                    tri
                }
                3 => {
                    let x0 = rng.gen_range(1..W - 64) as f64 + rng.gen_range(0.0..1.0);
                    let width = rng.gen_range(0.0..64.0);
                    let y0 = rng.gen_range(0.0..H as f64 - 8.0);
                    let y1 = y0 + rng.gen_range(0.5..8.0);
                    let xs = [x0, x0 + width, x0 + rng.gen_range(0.0..=1.0) * width];
                    let ys = [
                        rng.gen_range(y0..=y1),
                        rng.gen_range(y0..=y1),
                        [y0, y1][rng.gen_range(0..2)],
                    ];
                    [0, 1, 2].map(|i| vertex(rng, xs[i], ys[i]))
                }
                4 => [0; 3].map(|_| around(rng, 40.0)),
                _ => {
                    let c = around(rng, 6.0).position;
                    let (sin, cos) = rng.gen_range(0.0..std::f64::consts::PI).sin_cos();
                    let (along, across) = (rng.gen_range(1.0..12.0), rng.gen_range(0.5..4.0));
                    let corner =
                        |x: f64, y: f64| c + Vec2::new(x * cos - y * sin, x * sin + y * cos);
                    let [a, b, d] = [
                        corner(-along, -across),
                        corner(along, -across),
                        corner(along, across),
                    ];
                    [
                        vertex(rng, a.x, a.y),
                        vertex(rng, b.x, b.y),
                        vertex(rng, d.x, d.y),
                    ]
                }
            }
        }

        /// The bisection span of row `py`: the three edges' intervals by
        /// bisection, intersected.
        fn bisected_span(setup: &TriSetup, py: usize) -> Option<(usize, usize)> {
            let mut lo = setup.x0;
            let mut hi = setup.x1;
            for edge_fn in &setup.edges {
                let (a, b) = edge_fn.row(py).interval_bisect(setup.x0, setup.x1)?;
                lo = lo.max(a);
                hi = hi.min(b);
            }
            (lo <= hi).then_some((lo, hi))
        }

        fn covered(setup: &TriSetup, px: usize, py: usize) -> bool {
            setup.edges.iter().all(|e| e.row(py).covers(px))
        }

        fn modes() -> [BlendMode; 4] {
            [
                BlendMode::Additive,
                BlendMode::Replace,
                BlendMode::Max,
                BlendMode::Alpha(AlphaFactor::new(0.3)),
            ]
        }

        /// Per-pixel footprint oracle for the triangle fan `fan[0], fan[i],
        /// fan[i + 1]` (a triangle, or a quad's two triangles): every box
        /// pixel of each triangle through the shared predicate, one nearest
        /// fetch from that triangle's level.
        fn footprint_naive(
            target: &mut Texture,
            pyramid: &FootprintPyramid,
            fan: &[Vertex],
            intensity: f32,
            blend: BlendMode,
            stats: &mut RasterStats,
        ) {
            stats.vertices += fan.len() as u64;
            for i in 1..fan.len() - 1 {
                let Some(setup) = TriSetup::new(target, fan[0], fan[i], fan[i + 1], stats) else {
                    continue;
                };
                let tex = pyramid.level(pyramid.level_for_step(footprint_step(
                    &[setup.u_plane, setup.v_plane],
                    pyramid.base().width() as f64,
                    pyramid.base().height() as f64,
                )));
                for py in setup.y0..=setup.y1 {
                    let (u_row, v_row) = (setup.u_plane.row(py), setup.v_plane.row(py));
                    for px in setup.x0..=setup.x1 {
                        if covered(&setup, px, py) {
                            let tx = nearest_index(u_row.at(px) as f32, tex.width());
                            let ty = nearest_index(v_row.at(px) as f32, tex.height());
                            let sample = tex.texel(tx, ty) * intensity;
                            let dst = target.texel_mut(px, py);
                            *dst = blend.apply(*dst, sample);
                            stats.fragments += 1;
                        }
                    }
                }
            }
        }

        fn same_bits(a: &Texture, b: &Texture) -> bool {
            a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
        }

        /// One vertex's `u` of NaN or ±inf renders the same bits as the
        /// per-pixel oracle at every level, in every blend mode, with exact
        /// sampling (against the reference) and footprint sampling (against
        /// [`footprint_naive`]): a NaN coordinate keeps its NaN weight in
        /// the bilinear taps and takes texel index 0, as in the scalar
        /// kernels. The axis-aligned 20×20 px quad takes the hoisted and
        /// row-nearest fills, the rotated one the general bilinear and 2-D
        /// nearest fills.
        #[test]
        fn non_finite_uv_renders_the_same_bits_at_every_level() {
            let spot = disc_spot_texture(16, 0.5);
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let center = Vec2::new(48.0, 20.0);
            let (sin, cos) = 0.6f64.sin_cos();
            let axis_aligned = axis_aligned_spot_quad(center, 10.0);
            let rotated = axis_aligned.map(|v| {
                let d = v.position - center;
                let p = center + Vec2::new(d.x * cos - d.y * sin, d.x * sin + d.y * cos);
                Vertex { position: p, ..v }
            });
            let mut base = Texture::new(W, H);
            base.fill(0.25);
            let _serial = simd::FORCE_LOCK
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let mut failure = None;
            let mut nan_texels = 0;
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for (what, quad) in [("axis-aligned", axis_aligned), ("rotated", rotated)] {
                    let mut quad = quad;
                    quad[1].uv.0 = bad;
                    for mode in modes() {
                        let oracle = |draw: &dyn Fn(&mut Texture, &mut RasterStats)| {
                            let mut want = base.clone();
                            let mut want_stats = RasterStats::default();
                            draw(&mut want, &mut want_stats);
                            (want, want_stats)
                        };
                        let exact =
                            oracle(&|t, s| reference::rasterize_quad(t, &spot, quad, 0.7, mode, s));
                        // Footprint frames have no NaN texel: a NaN
                        // coordinate fetches texel 0.
                        nan_texels += exact.0.data().iter().filter(|t| t.is_nan()).count();
                        let footprint =
                            oracle(&|t, s| footprint_naive(t, &pyramid, &quad, 0.7, mode, s));
                        for (sampling, sampler, (want, want_stats)) in [
                            ("exact", Sampler::Exact(&spot), exact),
                            ("footprint", Sampler::Footprint(&pyramid), footprint),
                        ] {
                            for level in simd::test_levels() {
                                simd::force(Some(level));
                                let mut got = base.clone();
                                let mut stats = RasterStats::default();
                                rasterize_quad(&mut got, sampler, quad, 0.7, mode, &mut stats);
                                if failure.is_none()
                                    && !(same_bits(&got, &want) && stats == want_stats)
                                {
                                    let differ = (got.data().iter().zip(want.data()))
                                        .filter(|(g, w)| g.to_bits() != w.to_bits())
                                        .count();
                                    failure = Some(format!(
                                        "{} {sampling} {what} quad, u = {bad}, {mode:?}: \
                                         {differ} texels differ, stats {stats:?} vs \
                                         {want_stats:?}",
                                        level.name()
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            simd::force(None);
            if let Some(failure) = failure {
                panic!("{failure}");
            }
            // The exact cases render NaN texels at all, or they would show
            // nothing.
            assert!(nan_texels > 0, "no exact case rendered a NaN texel");
        }

        #[test]
        fn root_search_steps_past_misrounded_roots() {
            // Edges whose root sits a few ulps from an integer column, so
            // the rounded root can land a column off the boundary and each
            // stepping loop of `RowEdge::interval` has work to do.
            let mut rng = ChaCha8Rng::seed_from_u64(0x2007);
            // [suffix start right, suffix start left, prefix start left,
            // prefix start right] of the boundary pixel.
            let mut off = [0; 4];
            for case in 0..200_000 {
                let n = rng.gen_range(1..40) as f64;
                let a = rng.gen_range(1e-3..10.0) * [-1.0, 1.0][rng.gen_range(0..2)];
                let nudge = rng.gen_range(-4i64..=4);
                let c = f64::from_bits(((-n * a).to_bits() as i64 + nudge) as u64);
                let edge = RowEdge {
                    c,
                    a,
                    flip: rng.gen_range(0..2) == 0,
                    accept: rng.gen_range(0..2) == 0,
                };
                let (x0, x1) = (rng.gen_range(0..20), rng.gen_range(20..60));
                let got = edge.interval(x0, x1);
                let want = edge.interval_bisect(x0, x1);
                assert_eq!(got, want, "case {case}: {edge:?} over [{x0}, {x1}]");
                let root = (-c / a).max(x0 as f64).min(x1 as f64);
                let direction = if edge.flip { -a } else { a };
                match want {
                    Some((first, _)) if direction > 0.0 && first > x0 => {
                        let start = ceil_index(root);
                        off[0] += (start > first) as usize;
                        off[1] += (start < first) as usize;
                    }
                    Some((_, last)) if direction < 0.0 && last < x1 => {
                        let start = floor_index(root);
                        off[2] += (start < last) as usize;
                        off[3] += (start > last) as usize;
                    }
                    _ => {}
                }
            }
            assert!(off.iter().all(|&n| n > 0), "misrounded starts {off:?}");
        }

        #[test]
        fn root_search_equals_bisection_on_every_row() {
            let seed = 0x5EA2C;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for case in 0..4000 {
                let tri_seed = rng.gen_range(0u64..u64::MAX);
                let mut tri_rng = ChaCha8Rng::seed_from_u64(tri_seed);
                let tri = triangle(&mut tri_rng);
                let target = Texture::new(W, H);
                let mut stats = RasterStats::default();
                let Some(setup) = TriSetup::new(&target, tri[0], tri[1], tri[2], &mut stats) else {
                    continue;
                };
                for py in setup.y0..=setup.y1 {
                    let want = bisected_span(&setup, py);
                    let got = covered_span(&setup, py);
                    assert_eq!(
                        got, want,
                        "seed {seed:#x}, case {case}: triangle seed {tri_seed}, row {py}: \
                         {got:?} vs bisection {want:?}, triangle {tri:?}"
                    );
                }
            }
        }

        #[test]
        fn span_walkers_equal_the_per_pixel_reference() {
            let seed = 0x5A1C;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let spot = disc_spot_texture(16, 0.5);
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            for case in 0..300 {
                let tri_seed = rng.gen_range(0u64..u64::MAX);
                let mut tri_rng = ChaCha8Rng::seed_from_u64(tri_seed);
                let tri = triangle(&mut tri_rng);
                // The fourth corner completes a parallelogram, as a spot
                // quad does.
                let d = tri[0].position + tri[2].position - tri[1].position;
                let quad = [tri[0], tri[1], tri[2], vertex(&mut tri_rng, d.x, d.y)];
                let mut base = Texture::new(W, H);
                for v in base.data_mut() {
                    *v = tri_rng.gen_range(-1.0f32..1.0);
                }
                let intensity = tri_rng.gen_range(-1.5f32..1.5);
                let _serial = simd::FORCE_LOCK
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let mut failure = None;
                for level in simd::test_levels() {
                    simd::force(Some(level));
                    for mode in modes() {
                        let run = |draw: &dyn Fn(&mut Texture, &mut RasterStats)| {
                            let mut target = base.clone();
                            let mut stats = RasterStats::default();
                            draw(&mut target, &mut stats);
                            (target, stats)
                        };
                        let [a, b, c] = tri;
                        let checks = [
                            (
                                "triangle",
                                run(&|t, s| {
                                    rasterize_triangle(
                                        t,
                                        Sampler::Exact(&spot),
                                        a,
                                        b,
                                        c,
                                        intensity,
                                        mode,
                                        s,
                                    )
                                }),
                                run(&|t, s| {
                                    reference::rasterize_triangle(
                                        t, &spot, a, b, c, intensity, mode, s,
                                    )
                                }),
                            ),
                            (
                                "quad",
                                run(&|t, s| {
                                    rasterize_quad(
                                        t,
                                        Sampler::Exact(&spot),
                                        quad,
                                        intensity,
                                        mode,
                                        s,
                                    )
                                }),
                                run(&|t, s| {
                                    reference::rasterize_quad(t, &spot, quad, intensity, mode, s)
                                }),
                            ),
                            (
                                "footprint triangle",
                                run(&|t, s| {
                                    rasterize_triangle(
                                        t,
                                        Sampler::Footprint(&pyramid),
                                        a,
                                        b,
                                        c,
                                        intensity,
                                        mode,
                                        s,
                                    )
                                }),
                                run(&|t, s| footprint_naive(t, &pyramid, &tri, intensity, mode, s)),
                            ),
                        ];
                        for (what, got, want) in checks {
                            if failure.is_none() && !(same_bits(&got.0, &want.0) && got.1 == want.1)
                            {
                                failure = Some(format!(
                                    "{} {} {:?}: texels or stats {:?} vs {:?} differ",
                                    level.name(),
                                    what,
                                    mode,
                                    got.1,
                                    want.1
                                ));
                            }
                        }
                    }
                }
                simd::force(None);
                if let Some(failure) = failure {
                    panic!(
                        "seed {seed:#x}, case {case}: triangle seed {tri_seed}, {failure}, \
                         triangle {tri:?}"
                    );
                }
            }
        }
    }
}
