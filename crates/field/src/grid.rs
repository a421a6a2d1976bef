//! Discrete grids carrying vector- and scalar-valued samples.
//!
//! The paper's two applications use the two grid kinds implemented here:
//!
//! * the smog-prediction wind field lives on a **regular** 53x55 grid
//!   (uniform spacing in both directions), and
//! * the DNS turbulence slice lives on a **rectilinear** 278x208 grid
//!   (per-axis, possibly non-uniform coordinate arrays) — the "non-uniform
//!   data grids" extension of enhanced spot noise.
//!
//! Both provide bilinear interpolation and implement the [`VectorField`]
//! trait used by the rest of the pipeline, so the synthesis code never needs
//! to know which kind it is sampling.

use crate::vec2::{Rect, Vec2};

/// A continuous vector field over a rectangular domain.
///
/// This is the interface consumed by particle advection, streamline tracing
/// and spot transformation. Implementors must return a finite vector for any
/// point inside [`VectorField::domain`]; queries outside the domain are
/// clamped to the boundary.
pub trait VectorField: Sync {
    /// Velocity at position `p`.
    fn velocity(&self, p: Vec2) -> Vec2;

    /// The rectangular domain over which the field is defined.
    fn domain(&self) -> Rect;

    /// Velocity magnitude at `p`; override when a cheaper path exists.
    fn speed(&self, p: Vec2) -> f64 {
        self.velocity(p).norm()
    }
}

/// A continuous scalar field over a rectangular domain (used for pollutant
/// concentration, pressure, vorticity overlays ...).
pub trait ScalarField: Sync {
    /// Scalar value at position `p`.
    fn value(&self, p: Vec2) -> f64;

    /// The rectangular domain over which the field is defined.
    fn domain(&self) -> Rect;
}

impl<F: VectorField + ?Sized> VectorField for &F {
    fn velocity(&self, p: Vec2) -> Vec2 {
        (**self).velocity(p)
    }
    fn domain(&self) -> Rect {
        (**self).domain()
    }
    fn speed(&self, p: Vec2) -> f64 {
        (**self).speed(p)
    }
}

impl<F: ScalarField + ?Sized> ScalarField for &F {
    fn value(&self, p: Vec2) -> f64 {
        (**self).value(p)
    }
    fn domain(&self) -> Rect {
        (**self).domain()
    }
}

/// Index helper shared by the grid types: row-major `(i, j)` -> linear.
#[inline]
fn lin(i: usize, j: usize, nx: usize) -> usize {
    j * nx + i
}

/// Locate `x` in the monotone coordinate array `coords`, returning the cell
/// index `i` (so `coords[i] <= x <= coords[i+1]`) and the interpolation
/// weight within that cell. Out-of-range positions are clamped.
fn locate(coords: &[f64], x: f64) -> (usize, f64) {
    let n = coords.len();
    debug_assert!(n >= 2, "need at least two coordinates per axis");
    if x <= coords[0] {
        return (0, 0.0);
    }
    if x >= coords[n - 1] {
        return (n - 2, 1.0);
    }
    // Binary search for the last coordinate <= x.
    let mut lo = 0usize;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if coords[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let w = (x - coords[lo]) / (coords[lo + 1] - coords[lo]);
    (lo, w.clamp(0.0, 1.0))
}

/// A vector field sampled on a uniform (regular) grid, bilinearly
/// interpolated between samples.
#[derive(Debug, Clone)]
pub struct RegularGrid {
    nx: usize,
    ny: usize,
    domain: Rect,
    /// Row-major `(nx * ny)` velocity samples, index `j * nx + i`.
    data: Vec<Vec2>,
}

impl RegularGrid {
    /// Creates a grid with all samples zero.
    pub fn zeros(nx: usize, ny: usize, domain: Rect) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid needs at least 2x2 samples");
        RegularGrid {
            nx,
            ny,
            domain,
            data: vec![Vec2::ZERO; nx * ny],
        }
    }

    /// Creates a grid by sampling `f` at every node.
    pub fn from_fn(nx: usize, ny: usize, domain: Rect, mut f: impl FnMut(Vec2) -> Vec2) -> Self {
        let mut g = RegularGrid::zeros(nx, ny, domain);
        for j in 0..ny {
            for i in 0..nx {
                let p = g.node_position(i, j);
                g.data[lin(i, j, nx)] = f(p);
            }
        }
        g
    }

    /// Number of samples along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of samples along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The rectangular domain covered by the grid.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// Grid spacing along each axis.
    pub fn spacing(&self) -> Vec2 {
        Vec2::new(
            self.domain.width() / (self.nx - 1) as f64,
            self.domain.height() / (self.ny - 1) as f64,
        )
    }

    /// World position of node `(i, j)`.
    pub fn node_position(&self, i: usize, j: usize) -> Vec2 {
        let u = i as f64 / (self.nx - 1) as f64;
        let v = j as f64 / (self.ny - 1) as f64;
        self.domain.from_unit(Vec2::new(u, v))
    }

    /// Sample stored at node `(i, j)`.
    pub fn node(&self, i: usize, j: usize) -> Vec2 {
        self.data[lin(i, j, self.nx)]
    }

    /// Mutable access to the sample at node `(i, j)`.
    pub fn node_mut(&mut self, i: usize, j: usize) -> &mut Vec2 {
        &mut self.data[lin(i, j, self.nx)]
    }

    /// Raw sample storage (row-major).
    pub fn samples(&self) -> &[Vec2] {
        &self.data
    }

    /// Overwrites every sample using `f(node_position)`.
    pub fn fill_with(&mut self, mut f: impl FnMut(Vec2) -> Vec2) {
        for j in 0..self.ny {
            for i in 0..self.nx {
                self.data[lin(i, j, self.nx)] = f(self.node_position(i, j));
            }
        }
    }

    /// Bilinear interpolation at an arbitrary point (clamped to the domain).
    pub fn interpolate(&self, p: Vec2) -> Vec2 {
        let uv = self.domain.to_unit(self.domain.clamp(p));
        let fx = uv.x * (self.nx - 1) as f64;
        let fy = uv.y * (self.ny - 1) as f64;
        let i = (fx.floor() as usize).min(self.nx - 2);
        let j = (fy.floor() as usize).min(self.ny - 2);
        let tx = fx - i as f64;
        let ty = fy - j as f64;
        let v00 = self.node(i, j);
        let v10 = self.node(i + 1, j);
        let v01 = self.node(i, j + 1);
        let v11 = self.node(i + 1, j + 1);
        let bottom = v00.lerp(v10, tx);
        let top = v01.lerp(v11, tx);
        bottom.lerp(top, ty)
    }

    /// Maximum velocity magnitude over all nodes.
    pub fn max_speed(&self) -> f64 {
        self.data.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }
}

impl VectorField for RegularGrid {
    fn velocity(&self, p: Vec2) -> Vec2 {
        self.interpolate(p)
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// A scalar field sampled on a uniform grid with bilinear interpolation.
#[derive(Debug, Clone)]
pub struct ScalarGrid {
    nx: usize,
    ny: usize,
    domain: Rect,
    data: Vec<f64>,
}

impl ScalarGrid {
    /// Creates a grid with all samples zero.
    pub fn zeros(nx: usize, ny: usize, domain: Rect) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid needs at least 2x2 samples");
        ScalarGrid {
            nx,
            ny,
            domain,
            data: vec![0.0; nx * ny],
        }
    }

    /// Creates a grid by sampling `f` at every node.
    pub fn from_fn(nx: usize, ny: usize, domain: Rect, mut f: impl FnMut(Vec2) -> f64) -> Self {
        let mut g = ScalarGrid::zeros(nx, ny, domain);
        for j in 0..ny {
            for i in 0..nx {
                let p = g.node_position(i, j);
                g.data[lin(i, j, nx)] = f(p);
            }
        }
        g
    }

    /// Number of samples along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of samples along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The rectangular domain covered by the grid.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// World position of node `(i, j)`.
    pub fn node_position(&self, i: usize, j: usize) -> Vec2 {
        let u = i as f64 / (self.nx - 1) as f64;
        let v = j as f64 / (self.ny - 1) as f64;
        self.domain.from_unit(Vec2::new(u, v))
    }

    /// Value stored at node `(i, j)`.
    pub fn node(&self, i: usize, j: usize) -> f64 {
        self.data[lin(i, j, self.nx)]
    }

    /// Mutable access to the value at node `(i, j)`.
    pub fn node_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[lin(i, j, self.nx)]
    }

    /// Raw sample storage (row-major).
    pub fn samples(&self) -> &[f64] {
        &self.data
    }

    /// Bilinear interpolation at an arbitrary point (clamped to the domain).
    pub fn interpolate(&self, p: Vec2) -> f64 {
        let uv = self.domain.to_unit(self.domain.clamp(p));
        let fx = uv.x * (self.nx - 1) as f64;
        let fy = uv.y * (self.ny - 1) as f64;
        let i = (fx.floor() as usize).min(self.nx - 2);
        let j = (fy.floor() as usize).min(self.ny - 2);
        let tx = fx - i as f64;
        let ty = fy - j as f64;
        let v00 = self.node(i, j);
        let v10 = self.node(i + 1, j);
        let v01 = self.node(i, j + 1);
        let v11 = self.node(i + 1, j + 1);
        let bottom = v00 + (v10 - v00) * tx;
        let top = v01 + (v11 - v01) * tx;
        bottom + (top - bottom) * ty
    }

    /// Minimum and maximum sample value.
    pub fn range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

impl ScalarField for ScalarGrid {
    fn value(&self, p: Vec2) -> f64 {
        self.interpolate(p)
    }
    fn domain(&self) -> Rect {
        self.domain
    }
}

/// A vector field sampled on a rectilinear grid: per-axis monotone coordinate
/// arrays with possibly non-uniform spacing, as produced by the DNS solver.
#[derive(Debug, Clone)]
pub struct RectilinearGrid {
    xs: Vec<f64>,
    ys: Vec<f64>,
    data: Vec<Vec2>,
}

impl RectilinearGrid {
    /// Creates a grid from coordinate arrays with all samples zero.
    ///
    /// # Panics
    /// Panics when either coordinate array has fewer than two entries or is
    /// not strictly increasing.
    pub fn zeros(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert!(xs.len() >= 2 && ys.len() >= 2, "need at least 2x2 samples");
        assert!(
            xs.windows(2).all(|w| w[1] > w[0]),
            "x coordinates must be strictly increasing"
        );
        assert!(
            ys.windows(2).all(|w| w[1] > w[0]),
            "y coordinates must be strictly increasing"
        );
        let n = xs.len() * ys.len();
        RectilinearGrid {
            xs,
            ys,
            data: vec![Vec2::ZERO; n],
        }
    }

    /// Creates a grid by sampling `f` at every node.
    pub fn from_fn(xs: Vec<f64>, ys: Vec<f64>, mut f: impl FnMut(Vec2) -> Vec2) -> Self {
        let mut g = RectilinearGrid::zeros(xs, ys);
        for j in 0..g.ny() {
            for i in 0..g.nx() {
                let p = g.node_position(i, j);
                g.data[lin(i, j, g.xs.len())] = f(p);
            }
        }
        g
    }

    /// Builds a rectilinear grid with uniform spacing (convenience for tests
    /// and for wrapping regular data in the rectilinear code path).
    pub fn uniform(nx: usize, ny: usize, domain: Rect) -> Self {
        let xs = (0..nx)
            .map(|i| domain.min.x + domain.width() * i as f64 / (nx - 1) as f64)
            .collect();
        let ys = (0..ny)
            .map(|j| domain.min.y + domain.height() * j as f64 / (ny - 1) as f64)
            .collect();
        RectilinearGrid::zeros(xs, ys)
    }

    /// Builds a grid whose spacing is geometrically stretched away from
    /// `focus` (in unit coordinates), mimicking DNS grids that concentrate
    /// resolution near an obstacle.
    pub fn stretched(nx: usize, ny: usize, domain: Rect, focus: Vec2, strength: f64) -> Self {
        assert!(nx >= 2 && ny >= 2);
        let stretch = |n: usize, lo: f64, hi: f64, f: f64| -> Vec<f64> {
            // Smoothly redistribute samples toward the focus point, then
            // rescale so the first/last samples land exactly on the domain
            // boundary.
            let warped: Vec<f64> = (0..n)
                .map(|i| {
                    let t = i as f64 / (n - 1) as f64;
                    let d = t - f;
                    f + d * (1.0 - strength * (-d * d * 8.0).exp() * 0.5)
                })
                .collect();
            let (w0, w1) = (warped[0], warped[n - 1]);
            warped
                .into_iter()
                .map(|w| lo + (hi - lo) * ((w - w0) / (w1 - w0)))
                .collect()
        };
        let mut xs = stretch(nx, domain.min.x, domain.max.x, focus.x);
        let mut ys = stretch(ny, domain.min.y, domain.max.y, focus.y);
        // Warping keeps order for moderate strengths; enforce monotonicity to
        // protect against extreme parameters.
        for k in 1..xs.len() {
            if xs[k] <= xs[k - 1] {
                xs[k] = xs[k - 1] + 1e-9;
            }
        }
        for k in 1..ys.len() {
            if ys[k] <= ys[k - 1] {
                ys[k] = ys[k - 1] + 1e-9;
            }
        }
        RectilinearGrid::zeros(xs, ys)
    }

    /// Number of samples along x.
    pub fn nx(&self) -> usize {
        self.xs.len()
    }

    /// Number of samples along y.
    pub fn ny(&self) -> usize {
        self.ys.len()
    }

    /// The rectangular domain covered by the grid.
    pub fn domain(&self) -> Rect {
        Rect::new(
            Vec2::new(self.xs[0], self.ys[0]),
            Vec2::new(*self.xs.last().unwrap(), *self.ys.last().unwrap()),
        )
    }

    /// The x coordinate array.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y coordinate array.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// World position of node `(i, j)`.
    pub fn node_position(&self, i: usize, j: usize) -> Vec2 {
        Vec2::new(self.xs[i], self.ys[j])
    }

    /// Sample stored at node `(i, j)`.
    pub fn node(&self, i: usize, j: usize) -> Vec2 {
        self.data[lin(i, j, self.xs.len())]
    }

    /// Mutable access to the sample at node `(i, j)`.
    pub fn node_mut(&mut self, i: usize, j: usize) -> &mut Vec2 {
        let nx = self.xs.len();
        &mut self.data[lin(i, j, nx)]
    }

    /// Overwrites every sample using `f(node_position)`.
    pub fn fill_with(&mut self, mut f: impl FnMut(Vec2) -> Vec2) {
        for j in 0..self.ny() {
            for i in 0..self.nx() {
                let p = self.node_position(i, j);
                *self.node_mut(i, j) = f(p);
            }
        }
    }

    /// Bilinear interpolation at an arbitrary point (clamped to the domain).
    pub fn interpolate(&self, p: Vec2) -> Vec2 {
        let (i, tx) = locate(&self.xs, p.x);
        let (j, ty) = locate(&self.ys, p.y);
        let v00 = self.node(i, j);
        let v10 = self.node(i + 1, j);
        let v01 = self.node(i, j + 1);
        let v11 = self.node(i + 1, j + 1);
        let bottom = v00.lerp(v10, tx);
        let top = v01.lerp(v11, tx);
        bottom.lerp(top, ty)
    }

    /// Maximum velocity magnitude over all nodes.
    pub fn max_speed(&self) -> f64 {
        self.data.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }
}

impl VectorField for RectilinearGrid {
    fn velocity(&self, p: Vec2) -> Vec2 {
        self.interpolate(p)
    }
    fn domain(&self) -> Rect {
        RectilinearGrid::domain(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn regular_grid_node_positions_span_domain() {
        let dom = Rect::new(Vec2::new(-1.0, 0.0), Vec2::new(1.0, 2.0));
        let g = RegularGrid::zeros(5, 3, dom);
        assert_eq!(g.node_position(0, 0), dom.min);
        assert_eq!(g.node_position(4, 2), dom.max);
        assert!(approx(g.spacing().x, 0.5));
        assert!(approx(g.spacing().y, 1.0));
    }

    #[test]
    fn regular_grid_interpolation_reproduces_linear_field() {
        // Bilinear interpolation must be exact for affine fields.
        let dom = Rect::new(Vec2::ZERO, Vec2::new(4.0, 4.0));
        let field = |p: Vec2| Vec2::new(2.0 * p.x - p.y + 1.0, 0.5 * p.y + 3.0);
        let g = RegularGrid::from_fn(9, 9, dom, field);
        for &(x, y) in &[(0.3, 0.7), (2.5, 1.1), (3.9, 3.9), (0.0, 4.0)] {
            let p = Vec2::new(x, y);
            let got = g.interpolate(p);
            let want = field(p);
            assert!(approx(got.x, want.x) && approx(got.y, want.y), "{p:?}");
        }
    }

    #[test]
    fn regular_grid_interpolation_matches_nodes() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
        let g = RegularGrid::from_fn(7, 5, dom, |p| Vec2::new((p.x * 9.0).sin(), p.y * p.x));
        for j in 0..5 {
            for i in 0..7 {
                let p = g.node_position(i, j);
                let v = g.interpolate(p);
                let n = g.node(i, j);
                assert!(approx(v.x, n.x) && approx(v.y, n.y));
            }
        }
    }

    #[test]
    fn regular_grid_clamps_outside_queries() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
        let g = RegularGrid::from_fn(4, 4, dom, |p| p);
        let inside = g.interpolate(Vec2::new(1.0, 1.0));
        let outside = g.interpolate(Vec2::new(10.0, 10.0));
        assert!(approx(inside.x, outside.x) && approx(inside.y, outside.y));
    }

    #[test]
    fn scalar_grid_interpolation_and_range() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(2.0, 2.0));
        let g = ScalarGrid::from_fn(5, 5, dom, |p| p.x + 10.0 * p.y);
        assert!(approx(g.interpolate(Vec2::new(1.0, 1.0)), 11.0));
        let (lo, hi) = g.range();
        assert!(approx(lo, 0.0) && approx(hi, 22.0));
    }

    #[test]
    fn rectilinear_uniform_matches_regular() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(3.0, 2.0));
        let f = |p: Vec2| Vec2::new(p.y, -p.x);
        let mut rl = RectilinearGrid::uniform(7, 5, dom);
        rl.fill_with(f);
        let rg = RegularGrid::from_fn(7, 5, dom, f);
        for &(x, y) in &[(0.1, 0.2), (1.5, 1.0), (2.9, 1.9)] {
            let p = Vec2::new(x, y);
            let a = rl.interpolate(p);
            let b = rg.interpolate(p);
            assert!(approx(a.x, b.x) && approx(a.y, b.y));
        }
    }

    #[test]
    fn rectilinear_nonuniform_exact_for_linear_field() {
        let xs = vec![0.0, 0.1, 0.5, 1.2, 3.0];
        let ys = vec![-1.0, 0.0, 2.0];
        let f = |p: Vec2| Vec2::new(3.0 * p.x + p.y, p.x - 2.0 * p.y);
        let g = RectilinearGrid::from_fn(xs, ys, f);
        for &(x, y) in &[(0.05, -0.5), (0.8, 1.0), (2.0, 1.5)] {
            let p = Vec2::new(x, y);
            let got = g.interpolate(p);
            let want = f(p);
            assert!(approx(got.x, want.x) && approx(got.y, want.y));
        }
    }

    #[test]
    fn rectilinear_domain_and_clamping() {
        let g = RectilinearGrid::zeros(vec![0.0, 1.0, 4.0], vec![2.0, 3.0]);
        let d = g.domain();
        assert_eq!(d.min, Vec2::new(0.0, 2.0));
        assert_eq!(d.max, Vec2::new(4.0, 3.0));
        // Outside queries clamp rather than panic.
        let _ = g.interpolate(Vec2::new(-5.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rectilinear_rejects_unsorted_coords() {
        let _ = RectilinearGrid::zeros(vec![0.0, 2.0, 1.0], vec![0.0, 1.0]);
    }

    #[test]
    fn stretched_grid_is_monotone_and_spans_domain() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(10.0, 4.0));
        let g = RectilinearGrid::stretched(40, 20, dom, Vec2::new(0.3, 0.5), 0.8);
        assert!(g.xs().windows(2).all(|w| w[1] > w[0]));
        assert!(g.ys().windows(2).all(|w| w[1] > w[0]));
        assert!(approx(g.xs()[0], 0.0));
        assert!(approx(*g.xs().last().unwrap(), 10.0));
    }

    #[test]
    fn locate_endpoints_and_interior() {
        let coords = [0.0, 1.0, 3.0, 6.0];
        assert_eq!(locate(&coords, -1.0), (0, 0.0));
        assert_eq!(locate(&coords, 7.0), (2, 1.0));
        let (i, w) = locate(&coords, 2.0);
        assert_eq!(i, 1);
        assert!(approx(w, 0.5));
    }

    #[test]
    fn max_speed_reports_largest_node() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
        let g = RegularGrid::from_fn(5, 5, dom, |p| Vec2::new(p.x, 0.0));
        assert!(approx(g.max_speed(), 1.0));
    }
}
