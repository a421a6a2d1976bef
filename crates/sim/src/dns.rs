//! Direct numerical simulation of the flow behind a block.
//!
//! The paper's second application browses slices of a terabyte-scale DNS of
//! turbulent flow (Verstappen & Veldman). Neither that code nor its data are
//! available, so this module implements the documented substitute: a 2-D
//! incompressible Navier–Stokes solver (semi-Lagrangian advection, explicit
//! diffusion, Chorin-style pressure projection with a Jacobi solver) for a
//! channel with a block obstacle. Run long enough, the wake behind the block
//! destabilises into a vortex street with strongly fluctuating direction and
//! magnitude — the flow character the paper's Figure 7 shows and the reason
//! bent spots are needed. Slices are sampled on a 278x208 rectilinear grid
//! exactly like the original data set.

use crate::obstacle::Block;
use flowfield::{Rect, RectilinearGrid, RegularGrid, Vec2, VectorField};

/// Configuration of the DNS substitute solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnsConfig {
    /// Grid nodes along the channel.
    pub nx: usize,
    /// Grid nodes across the channel.
    pub ny: usize,
    /// Channel domain.
    pub domain: Rect,
    /// Inflow speed at the left boundary.
    pub inflow: f64,
    /// Kinematic viscosity.
    pub viscosity: f64,
    /// Number of Jacobi iterations for the pressure projection.
    pub pressure_iterations: usize,
    /// Amplitude of the inflow perturbation that triggers the instability.
    pub perturbation: f64,
}

impl DnsConfig {
    /// The paper's slice resolution (278x208) over a 10x4 channel.
    pub fn paper_resolution() -> Self {
        DnsConfig {
            nx: 278,
            ny: 208,
            domain: Rect::new(Vec2::ZERO, Vec2::new(10.0, 4.0)),
            inflow: 1.0,
            viscosity: 1.5e-3,
            pressure_iterations: 60,
            perturbation: 0.02,
        }
    }

    /// A small configuration for unit tests and examples.
    pub fn small_test() -> Self {
        DnsConfig {
            nx: 72,
            ny: 40,
            domain: Rect::new(Vec2::ZERO, Vec2::new(10.0, 4.0)),
            inflow: 1.0,
            viscosity: 2.0e-3,
            pressure_iterations: 40,
            perturbation: 0.03,
        }
    }
}

/// The solver state.
#[derive(Debug, Clone)]
pub struct DnsSolver {
    cfg: DnsConfig,
    block: Block,
    mask: Vec<bool>,
    u: Vec<f64>,
    v: Vec<f64>,
    time: f64,
    steps: u64,
}

impl DnsSolver {
    /// Creates a solver with the standard block and an impulsively started
    /// uniform inflow.
    pub fn new(cfg: DnsConfig) -> Self {
        let block = Block::standard(cfg.domain);
        let mask = block.mask(cfg.nx, cfg.ny, cfg.domain);
        let n = cfg.nx * cfg.ny;
        let mut solver = DnsSolver {
            cfg,
            block,
            mask,
            u: vec![cfg.inflow; n],
            v: vec![0.0; n],
            time: 0.0,
            steps: 0,
        };
        solver.enforce_boundaries();
        solver
    }

    /// The configuration.
    pub fn config(&self) -> &DnsConfig {
        &self.cfg
    }

    /// The obstacle.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        j * self.cfg.nx + i
    }

    fn spacing(&self) -> Vec2 {
        Vec2::new(
            self.cfg.domain.width() / (self.cfg.nx - 1) as f64,
            self.cfg.domain.height() / (self.cfg.ny - 1) as f64,
        )
    }

    /// Position of node `(i, j)` in world coordinates.
    pub fn node_position(&self, i: usize, j: usize) -> Vec2 {
        self.cfg.domain.from_unit(Vec2::new(
            i as f64 / (self.cfg.nx - 1) as f64,
            j as f64 / (self.cfg.ny - 1) as f64,
        ))
    }

    /// Velocity at node `(i, j)`.
    pub fn velocity_at(&self, i: usize, j: usize) -> Vec2 {
        let k = self.idx(i, j);
        Vec2::new(self.u[k], self.v[k])
    }

    /// Bilinear velocity sample at an arbitrary world position.
    pub fn sample(&self, p: Vec2) -> Vec2 {
        let uv = self.cfg.domain.to_unit(self.cfg.domain.clamp(p));
        let fx = uv.x * (self.cfg.nx - 1) as f64;
        let fy = uv.y * (self.cfg.ny - 1) as f64;
        let i = (fx.floor() as usize).min(self.cfg.nx - 2);
        let j = (fy.floor() as usize).min(self.cfg.ny - 2);
        let tx = fx - i as f64;
        let ty = fy - j as f64;
        let v00 = self.velocity_at(i, j);
        let v10 = self.velocity_at(i + 1, j);
        let v01 = self.velocity_at(i, j + 1);
        let v11 = self.velocity_at(i + 1, j + 1);
        v00.lerp(v10, tx).lerp(v01.lerp(v11, tx), ty)
    }

    /// Advances the flow by `dt` (one explicit step with semi-Lagrangian
    /// advection and a pressure projection).
    pub fn step(&mut self, dt: f64) {
        let nx = self.cfg.nx;
        let ny = self.cfg.ny;
        let h = self.spacing();

        // 1. Semi-Lagrangian advection of both velocity components.
        let u_old = self.u.clone();
        let v_old = self.v.clone();
        let sample_old = |p: Vec2| -> Vec2 {
            let uv = self.cfg.domain.to_unit(self.cfg.domain.clamp(p));
            let fx = uv.x * (nx - 1) as f64;
            let fy = uv.y * (ny - 1) as f64;
            let i = (fx.floor() as usize).min(nx - 2);
            let j = (fy.floor() as usize).min(ny - 2);
            let tx = fx - i as f64;
            let ty = fy - j as f64;
            let at = |ii: usize, jj: usize| {
                let k = jj * nx + ii;
                Vec2::new(u_old[k], v_old[k])
            };
            at(i, j)
                .lerp(at(i + 1, j), tx)
                .lerp(at(i, j + 1).lerp(at(i + 1, j + 1), tx), ty)
        };
        for j in 0..ny {
            for i in 0..nx {
                let k = self.idx(i, j);
                if self.mask[k] {
                    continue;
                }
                let p = self.node_position(i, j);
                // RK2 backtrace along the old velocity field.
                let vel = Vec2::new(u_old[k], v_old[k]);
                let mid = p - vel * (0.5 * dt);
                let departure = p - sample_old(mid) * dt;
                let adv = sample_old(departure);
                self.u[k] = adv.x;
                self.v[k] = adv.y;
            }
        }

        // 2. Explicit viscosity.
        let nu = self.cfg.viscosity;
        if nu > 0.0 {
            let u_adv = self.u.clone();
            let v_adv = self.v.clone();
            for j in 1..ny - 1 {
                for i in 1..nx - 1 {
                    let k = self.idx(i, j);
                    if self.mask[k] {
                        continue;
                    }
                    let lap = |f: &[f64]| {
                        (f[k + 1] - 2.0 * f[k] + f[k - 1]) / (h.x * h.x)
                            + (f[k + nx] - 2.0 * f[k] + f[k - nx]) / (h.y * h.y)
                    };
                    self.u[k] = u_adv[k] + dt * nu * lap(&u_adv);
                    self.v[k] = v_adv[k] + dt * nu * lap(&v_adv);
                }
            }
        }

        self.enforce_boundaries();

        // 3. Pressure projection to (approximately) enforce incompressibility.
        let mut div = vec![0.0f64; nx * ny];
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let k = self.idx(i, j);
                if self.mask[k] {
                    continue;
                }
                div[k] = (self.u[k + 1] - self.u[k - 1]) / (2.0 * h.x)
                    + (self.v[k + nx] - self.v[k - nx]) / (2.0 * h.y);
            }
        }
        let mut p = vec![0.0f64; nx * ny];
        let hx2 = h.x * h.x;
        let hy2 = h.y * h.y;
        let denom = 2.0 * (hx2 + hy2);
        for _ in 0..self.cfg.pressure_iterations {
            let p_old = p.clone();
            for j in 1..ny - 1 {
                for i in 1..nx - 1 {
                    let k = self.idx(i, j);
                    if self.mask[k] {
                        continue;
                    }
                    // Solid or boundary neighbours mirror the centre value
                    // (homogeneous Neumann).
                    let pick = |kk: usize| if self.mask[kk] { p_old[k] } else { p_old[kk] };
                    p[k] = ((pick(k + 1) + pick(k - 1)) * hy2
                        + (pick(k + nx) + pick(k - nx)) * hx2
                        - div[k] * hx2 * hy2 / dt)
                        / denom;
                }
            }
        }
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let k = self.idx(i, j);
                if self.mask[k] {
                    continue;
                }
                let pick = |kk: usize| if self.mask[kk] { p[k] } else { p[kk] };
                self.u[k] -= dt * (pick(k + 1) - pick(k - 1)) / (2.0 * h.x);
                self.v[k] -= dt * (pick(k + nx) - pick(k - nx)) / (2.0 * h.y);
            }
        }

        self.enforce_boundaries();
        self.time += dt;
        self.steps += 1;
    }

    fn enforce_boundaries(&mut self) {
        let nx = self.cfg.nx;
        let ny = self.cfg.ny;
        // Left: prescribed inflow with a small time-dependent transverse
        // perturbation that seeds the wake instability.
        let perturb = self.cfg.perturbation * self.cfg.inflow * (self.time * 2.5).sin();
        for j in 0..ny {
            let k = self.idx(0, j);
            self.u[k] = self.cfg.inflow;
            self.v[k] = perturb * (std::f64::consts::PI * j as f64 / (ny - 1) as f64).sin();
        }
        // Right: zero-gradient outflow.
        for j in 0..ny {
            let k = self.idx(nx - 1, j);
            self.u[k] = self.u[k - 1];
            self.v[k] = self.v[k - 1];
        }
        // Top and bottom: free slip (no normal flow, zero tangential gradient).
        for i in 0..nx {
            let kb = self.idx(i, 0);
            let kt = self.idx(i, ny - 1);
            self.u[kb] = self.u[kb + nx];
            self.v[kb] = 0.0;
            self.u[kt] = self.u[kt - nx];
            self.v[kt] = 0.0;
        }
        // Solid block: no slip.
        for k in 0..self.mask.len() {
            if self.mask[k] {
                self.u[k] = 0.0;
                self.v[k] = 0.0;
            }
        }
    }

    /// Maximum divergence magnitude over the interior fluid nodes — a measure
    /// of how well the projection enforced incompressibility.
    pub fn max_divergence(&self) -> f64 {
        let nx = self.cfg.nx;
        let ny = self.cfg.ny;
        let h = self.spacing();
        let mut max = 0.0f64;
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let k = self.idx(i, j);
                if self.mask[k]
                    || self.mask[k + 1]
                    || self.mask[k - 1]
                    || self.mask[k + nx]
                    || self.mask[k - nx]
                {
                    continue;
                }
                let d = (self.u[k + 1] - self.u[k - 1]) / (2.0 * h.x)
                    + (self.v[k + nx] - self.v[k - nx]) / (2.0 * h.y);
                max = max.max(d.abs());
            }
        }
        max
    }

    /// Standard deviation of the transverse velocity in the wake region — a
    /// simple indicator of vortex shedding (zero for steady symmetric flow).
    pub fn wake_fluctuation(&self) -> f64 {
        let wake_x0 = self.block.rect.max.x;
        let wake_x1 = self.cfg.domain.max.x;
        let mut values = Vec::new();
        for j in 0..self.cfg.ny {
            for i in 0..self.cfg.nx {
                let p = self.node_position(i, j);
                if p.x > wake_x0 && p.x < wake_x1 && !self.mask[self.idx(i, j)] {
                    values.push(self.v[self.idx(i, j)]);
                }
            }
        }
        if values.is_empty() {
            return 0.0;
        }
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64).sqrt()
    }

    /// Samples the current velocity field onto a regular grid (used for
    /// storing browser frames).
    pub fn velocity_grid(&self) -> RegularGrid {
        RegularGrid::from_fn(self.cfg.nx, self.cfg.ny, self.cfg.domain, |p| {
            self.sample(p)
        })
    }

    /// Samples the current velocity onto the paper's rectilinear slice grid,
    /// with node clustering toward the block (non-uniform spacing as in the
    /// original data set).
    pub fn rectilinear_slice(&self) -> RectilinearGrid {
        let focus = self.cfg.domain.to_unit(self.block.rect.center());
        let mut grid =
            RectilinearGrid::stretched(self.cfg.nx, self.cfg.ny, self.cfg.domain, focus, 0.6);
        grid.fill_with(|p| self.sample(p));
        grid
    }
}

impl VectorField for DnsSolver {
    fn velocity(&self, p: Vec2) -> Vec2 {
        self.sample(p)
    }
    fn domain(&self) -> Rect {
        self.cfg.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(steps: usize) -> DnsSolver {
        let mut s = DnsSolver::new(DnsConfig::small_test());
        for _ in 0..steps {
            s.step(0.02);
        }
        s
    }

    #[test]
    fn initial_state_respects_boundaries() {
        let s = DnsSolver::new(DnsConfig::small_test());
        // Inflow on the left.
        assert!((s.velocity_at(0, 10).x - 1.0).abs() < 1e-9);
        // No slip inside the block.
        let c = s.block().rect.center();
        assert_eq!(s.sample(c), Vec2::ZERO);
        // Free slip on the walls: zero transverse velocity.
        assert_eq!(s.velocity_at(10, 0).y, 0.0);
    }

    #[test]
    fn velocities_remain_finite_and_bounded() {
        let s = run(100);
        let max = (0..s.cfg.ny)
            .flat_map(|j| (0..s.cfg.nx).map(move |i| (i, j)))
            .map(|(i, j)| s.velocity_at(i, j).norm())
            .fold(0.0f64, f64::max);
        assert!(max.is_finite());
        assert!(max < 10.0 * s.cfg.inflow, "runaway velocity {max}");
    }

    #[test]
    fn projection_keeps_divergence_small() {
        let s = run(30);
        let max_div = s.max_divergence();
        // Relative to inflow/h this should be small (Jacobi is approximate).
        let h = s.spacing().x.min(s.spacing().y);
        assert!(
            max_div * h / s.cfg.inflow < 0.2,
            "divergence too large: {max_div}"
        );
    }

    #[test]
    fn mean_flow_moves_downstream() {
        let s = run(80);
        // Average u over the fluid region is positive and of the order of the
        // inflow velocity.
        let mut sum = 0.0;
        let mut count = 0;
        for j in 0..s.cfg.ny {
            for i in 0..s.cfg.nx {
                if !s.mask[s.idx(i, j)] {
                    sum += s.velocity_at(i, j).x;
                    count += 1;
                }
            }
        }
        let mean_u = sum / count as f64;
        assert!(mean_u > 0.3 * s.cfg.inflow, "mean u = {mean_u}");
    }

    #[test]
    fn block_blocks_the_flow() {
        let s = run(60);
        // Immediately behind the block the streamwise velocity is much lower
        // than the free stream above it.
        let behind = s.sample(s.block().rect.center() + Vec2::new(0.5, 0.0));
        let above = s.sample(Vec2::new(
            s.block().rect.center().x,
            s.cfg.domain.max.y * 0.9,
        ));
        assert!(behind.x < above.x, "behind {behind:?}, above {above:?}");
    }

    #[test]
    fn wake_develops_fluctuations() {
        let early = run(5);
        let late = run(250);
        assert!(
            late.wake_fluctuation() > early.wake_fluctuation(),
            "wake fluctuation did not grow: early {} late {}",
            early.wake_fluctuation(),
            late.wake_fluctuation()
        );
        assert!(late.wake_fluctuation() > 1e-3);
    }

    #[test]
    fn rectilinear_slice_matches_paper_shape() {
        let s = DnsSolver::new(DnsConfig::small_test());
        let slice = s.rectilinear_slice();
        assert_eq!(slice.nx(), s.cfg.nx);
        assert_eq!(slice.ny(), s.cfg.ny);
        // Block region is zero velocity in the slice too.
        let c = s.block().rect.center();
        assert!(slice.interpolate(c).norm() < 0.2 * s.cfg.inflow);
    }

    #[test]
    fn paper_resolution_config() {
        let cfg = DnsConfig::paper_resolution();
        assert_eq!(cfg.nx, 278);
        assert_eq!(cfg.ny, 208);
    }

    #[test]
    fn time_and_steps_advance() {
        let s = run(7);
        assert_eq!(s.steps(), 7);
        assert!((s.time() - 0.14).abs() < 1e-12);
    }
}
