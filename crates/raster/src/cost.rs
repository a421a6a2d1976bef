//! Calibrated cost model of the simulated graphics workstation.
//!
//! The reproduction does not have an SGI Onyx2 with InfiniteReality pipes, so
//! the *absolute* timing of the paper's tables is reproduced with a cost
//! model: every unit of work the pipeline performs (stream-line integration
//! steps, mesh vertices built on the CPU, vertices and fragments processed by
//! a pipe, state changes, texture blends, bytes moved over the bus) is
//! charged a calibrated number of simulated seconds. The calibration
//! constants in `CostModel::onyx2` were chosen so that the two workloads of
//! the paper land in the same regime as Tables 1 and 2: a single R10000
//! needs ~0.9 s of spot-shape computation for the atmospheric workload,
//! roughly four processors saturate one pipe, and the sequential gather/blend
//! step limits scaling at high pipe counts.
//!
//! Real wall-clock measurements of the host are reported *alongside* the
//! simulated numbers by the `reproduce` targets `table1`, `table2` and
//! `ablations` (README, *Quickstart* and *Benchmarks*).

/// Work performed on a general-purpose processor for one spot (pipeline step
/// "advect particles" + spot shape computation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuWork {
    /// Stream-line integration steps (bent spots) or particle advection steps.
    pub streamline_steps: u64,
    /// Mesh vertices constructed and transformed in software.
    pub mesh_vertices: u64,
    /// Number of spots processed (fixed per-spot overhead).
    pub spots: u64,
}

impl CpuWork {
    /// Accumulates another work record.
    pub fn merge(&mut self, other: &CpuWork) {
        self.streamline_steps += other.streamline_steps;
        self.mesh_vertices += other.mesh_vertices;
        self.spots += other.spots;
    }
}

/// Work performed by a graphics pipe (pipeline step "generate texture").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeWork {
    /// Vertices transformed by the pipe.
    pub vertices: u64,
    /// Fragments generated and blended.
    pub fragments: u64,
    /// State changes that forced a pipe synchronisation.
    pub state_changes: u64,
    /// Texels blended while gathering partial textures.
    pub blend_texels: u64,
}

impl PipeWork {
    /// Accumulates another work record.
    pub fn merge(&mut self, other: &PipeWork) {
        self.vertices += other.vertices;
        self.fragments += other.fragments;
        self.state_changes += other.state_changes;
        self.blend_texels += other.blend_texels;
    }
}

/// Per-unit simulated costs of the modelled machine (all in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU seconds per stream-line integration step (RK4 + bilinear lookups).
    pub cpu_per_streamline_step: f64,
    /// CPU seconds per mesh vertex constructed/transformed in software.
    pub cpu_per_mesh_vertex: f64,
    /// Fixed CPU seconds per spot (bookkeeping, random numbers, dispatch).
    pub cpu_per_spot: f64,
    /// Pipe seconds per vertex.
    pub pipe_per_vertex: f64,
    /// Pipe seconds per fragment.
    pub pipe_per_fragment: f64,
    /// Pipe seconds per state change (geometry-processor synchronisation).
    pub pipe_per_state_change: f64,
    /// Pipe seconds per texel blended during texture gather.
    pub pipe_per_blend_texel: f64,
    /// Fixed seconds per frame of gather/blend bookkeeping (the constant part
    /// of the paper's `c` term).
    pub blend_fixed_overhead: f64,
    /// Bus bandwidth from processors to the graphics subsystem in bytes/s.
    pub bus_bytes_per_second: f64,
    /// Bytes transferred per vertex (position + texture coordinate, packed
    /// single precision — 16 bytes, which reproduces the paper's bandwidth
    /// estimates of ~21.8 MB and ~31 MB per texture).
    pub bytes_per_vertex: f64,
}

impl CostModel {
    /// Cost model calibrated against the paper's SGI Onyx2 with R10000
    /// processors and InfiniteReality pipes.
    pub(crate) fn onyx2() -> Self {
        CostModel {
            cpu_per_streamline_step: 1.0e-6,
            cpu_per_mesh_vertex: 0.6e-6,
            cpu_per_spot: 3.0e-6,
            pipe_per_vertex: 0.15e-6,
            pipe_per_fragment: 0.03e-6,
            pipe_per_state_change: 5.0e-6,
            pipe_per_blend_texel: 8.0e-8,
            blend_fixed_overhead: 0.01,
            bus_bytes_per_second: 800.0e6,
            bytes_per_vertex: 16.0,
        }
    }

    /// Simulated CPU seconds for a body of spot-shape work.
    pub fn cpu_seconds(&self, work: &CpuWork) -> f64 {
        work.streamline_steps as f64 * self.cpu_per_streamline_step
            + work.mesh_vertices as f64 * self.cpu_per_mesh_vertex
            + work.spots as f64 * self.cpu_per_spot
    }

    /// Simulated pipe seconds for a body of rasterization work.
    pub fn pipe_seconds(&self, work: &PipeWork) -> f64 {
        work.vertices as f64 * self.pipe_per_vertex
            + work.fragments as f64 * self.pipe_per_fragment
            + work.state_changes as f64 * self.pipe_per_state_change
            + work.blend_texels as f64 * self.pipe_per_blend_texel
    }

    /// Simulated seconds needed to move `bytes` over the host-to-graphics bus.
    pub fn bus_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bus_bytes_per_second
    }

    /// Bytes of vertex traffic for a given vertex count.
    pub fn vertex_bytes(&self, vertices: u64) -> u64 {
        (vertices as f64 * self.bytes_per_vertex) as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::onyx2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work counts of the paper's atmospheric-pollution workload: 2500 bent
    /// spots, each a 32x17 mesh built from a 32-step stream line.
    fn atmospheric_cpu() -> CpuWork {
        CpuWork {
            streamline_steps: 2500 * 32,
            mesh_vertices: 2500 * 32 * 17,
            spots: 2500,
        }
    }

    fn atmospheric_pipe() -> PipeWork {
        PipeWork {
            vertices: 2500 * 32 * 17,
            fragments: 2500 * 600,
            state_changes: 0,
            blend_texels: 0,
        }
    }

    /// Work counts of the turbulence workload: 40 000 bent spots, 16x3 mesh.
    fn turbulence_cpu() -> CpuWork {
        CpuWork {
            streamline_steps: 40_000 * 16,
            mesh_vertices: 40_000 * 16 * 3,
            spots: 40_000,
        }
    }

    #[test]
    fn atmospheric_cpu_time_close_to_one_second_on_one_processor() {
        // Table 1: 1 processor, 1 pipe => 1.0 textures/second, CPU bound.
        let m = CostModel::onyx2();
        let t = m.cpu_seconds(&atmospheric_cpu());
        assert!(t > 0.7 && t < 1.2, "cpu seconds {t}");
    }

    #[test]
    fn atmospheric_pipe_is_saturated_by_about_four_processors() {
        // The paper observes that ~4 processors saturate one pipe: the pipe
        // time should be roughly a quarter of the single-CPU time.
        let m = CostModel::onyx2();
        let cpu = m.cpu_seconds(&atmospheric_cpu());
        let pipe = m.pipe_seconds(&atmospheric_pipe());
        let ratio = cpu / pipe;
        assert!(ratio > 2.5 && ratio < 6.0, "cpu/pipe ratio {ratio}");
    }

    #[test]
    fn turbulence_cpu_time_larger_than_atmospheric() {
        // Table 2 throughputs are lower than Table 1 (more spots dominate the
        // higher per-spot mesh resolution of Table 1).
        let m = CostModel::onyx2();
        let t1 = m.cpu_seconds(&atmospheric_cpu());
        let t2 = m.cpu_seconds(&turbulence_cpu());
        assert!(t2 > t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn vertex_bandwidth_matches_paper_estimates() {
        let m = CostModel::onyx2();
        // Atmospheric: ~1.36 M vertices/texture -> ~21.8 MB/texture, which at
        // 5.6 textures/s gives ~116 MB/s (paper, section 5.1).
        let verts_per_texture = 2500u64 * 32 * 17;
        let bytes = m.vertex_bytes(verts_per_texture);
        let mb = bytes as f64 / 1.0e6;
        assert!((mb - 21.8).abs() < 1.0, "atmospheric MB/texture = {mb}");
        assert!((mb * 5.6 - 116.0).abs() < 10.0);
        // Turbulence: ~1.92 M vertices -> ~31 MB/texture (paper, section 5.2).
        let dns_bytes = m.vertex_bytes(40_000 * 16 * 3);
        let dns_mb = dns_bytes as f64 / 1.0e6;
        assert!(
            (dns_mb - 31.0).abs() < 1.5,
            "turbulence MB/texture = {dns_mb}"
        );
    }

    #[test]
    fn bus_transfer_well_below_saturation() {
        // 21.8 MB at 800 MB/s is ~27 ms, far below the ~180 ms texture time.
        let m = CostModel::onyx2();
        let t = m.bus_seconds(m.vertex_bytes(2500 * 32 * 17));
        assert!(t < 0.05, "bus seconds {t}");
    }

    #[test]
    fn state_changes_and_blend_texels_are_charged() {
        let m = CostModel::onyx2();
        let base = m.pipe_seconds(&PipeWork::default());
        assert_eq!(base, 0.0);
        let with_state = m.pipe_seconds(&PipeWork {
            state_changes: 1000,
            ..Default::default()
        });
        assert!(with_state > 0.0);
        let blend = m.pipe_seconds(&PipeWork {
            blend_texels: 512 * 512,
            ..Default::default()
        });
        // Blending one 512x512 partial texture costs on the order of 20 ms,
        // the `c` term of equation 3.2.
        assert!(blend > 0.01 && blend < 0.05, "blend {blend}");
    }

    #[test]
    fn fast_pipe_is_cheaper_per_primitive() {
        let onyx = CostModel::onyx2();
        let fast = CostModel::fast_pipe();
        let w = PipeWork {
            vertices: 1_000_000,
            fragments: 1_000_000,
            state_changes: 100,
            blend_texels: 0,
        };
        assert!(fast.pipe_seconds(&w) < onyx.pipe_seconds(&w));
        // CPU side is unchanged.
        let c = CpuWork {
            streamline_steps: 100,
            mesh_vertices: 100,
            spots: 10,
        };
        assert_eq!(fast.cpu_seconds(&c), onyx.cpu_seconds(&c));
    }

    #[test]
    fn work_merge_accumulates() {
        let mut a = CpuWork {
            streamline_steps: 1,
            mesh_vertices: 2,
            spots: 3,
        };
        a.merge(&CpuWork {
            streamline_steps: 10,
            mesh_vertices: 20,
            spots: 30,
        });
        assert_eq!(a.streamline_steps, 11);
        assert_eq!(a.mesh_vertices, 22);
        assert_eq!(a.spots, 33);

        let mut p = PipeWork::default();
        p.merge(&PipeWork {
            vertices: 5,
            fragments: 6,
            state_changes: 7,
            blend_texels: 8,
        });
        assert_eq!(p.vertices, 5);
        assert_eq!(p.blend_texels, 8);
    }

    impl CostModel {
        /// A hypothetical machine with a much faster graphics subsystem (spot
        /// transformation on the pipe becomes viable when the state-change
        /// cost shrinks).
        fn fast_pipe() -> Self {
            CostModel {
                pipe_per_vertex: 0.03e-6,
                pipe_per_fragment: 0.01e-6,
                pipe_per_state_change: 0.5e-6,
                pipe_per_blend_texel: 2.0e-8,
                ..CostModel::onyx2()
            }
        }
    }
}
