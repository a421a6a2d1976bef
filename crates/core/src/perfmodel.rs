//! Analytic performance model — equations 2.1 and 3.2 of the paper.
//!
//! Equation 2.1 models the single-pipe pipeline: because spot-shape
//! computation (processors) and spot blending (graphics pipe) overlap, the
//! texture generation time is the *maximum* of the two, not the sum.
//! Equation 3.2 extends this to the divide-and-conquer setting with `nP`
//! processors and `nG` pipes plus a sequential gather/blend overhead `c`.
//!
//! The model is used in three ways: (1) as the *simulated-Onyx2* timing that
//! reproduces Tables 1 and 2 from the actual work counts measured during a
//! synthesis run, (2) as a sanity check against the real wall-clock of the
//! host, and (3) in tests that verify the implementation exhibits the
//! balanced-resource behaviour the paper describes (≈4 processors saturate a
//! pipe, more pipes only help when there are enough processors).

use softpipe::cost::{CostModel, CpuWork, PipeWork};
use softpipe::machine::MachineConfig;

/// Equation 2.1: total time with one processor pool and one pipe working
/// concurrently is the maximum of the two stage times.
pub fn eq_2_1(cpu_seconds: f64, pipe_seconds: f64) -> f64 {
    cpu_seconds.max(pipe_seconds)
}

/// Equation 3.2 in its aggregate form: CPU work divided over `n_processors`,
/// pipe work divided over `n_pipes`, plus the sequential blend overhead `c`.
pub fn eq_3_2(
    total_cpu_seconds: f64,
    total_pipe_seconds: f64,
    n_processors: usize,
    n_pipes: usize,
    blend_overhead: f64,
) -> f64 {
    assert!(n_processors >= 1 && n_pipes >= 1);
    eq_2_1(
        total_cpu_seconds / n_processors as f64,
        total_pipe_seconds / n_pipes as f64,
    ) + blend_overhead
}

/// The measured work of one process group during a synthesis run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupWork {
    /// CPU-side spot shape work of the group.
    pub cpu: CpuWork,
    /// Pipe-side rasterization work of the group.
    pub pipe: PipeWork,
    /// Number of processors assigned to the group.
    pub processors: usize,
}

/// The model's prediction for one machine configuration.
#[derive(Debug, Clone)]
pub struct PerfPrediction {
    /// Simulated seconds spent in each process group (max of its CPU and
    /// pipe time, since they overlap).
    pub group_seconds: Vec<f64>,
    /// Simulated seconds of the sequential gather/blend step (`c`).
    pub blend_seconds: f64,
    /// Total simulated seconds for one texture (eq. 3.2).
    pub total_seconds: f64,
    /// Simulated textures per second (the quantity Tables 1 and 2 report).
    pub textures_per_second: f64,
    /// Simulated seconds the vertex traffic occupies on the bus (for the
    /// bandwidth observation of §5.1; always much smaller than the total).
    pub bus_seconds: f64,
}

/// Predicts the texture generation time of a machine configuration from the
/// per-group work records of a synthesis run.
///
/// Each group's CPU work is divided over the processors assigned to that
/// group (fractionally, when processors are oversubscribed); its pipe work
/// runs on the group's single pipe. Group times are overlapped (the frame is
/// done when the slowest group is done), then the sequential gather/blend
/// cost is added.
pub fn predict(
    machine: &MachineConfig,
    groups: &[GroupWork],
    compose_texels: u64,
) -> PerfPrediction {
    assert!(!groups.is_empty(), "need at least one group");
    let cost: &CostModel = &machine.cost;
    // When the machine has fewer processors than pipes, a physical processor
    // time-shares several masters; model it as a fractional share.
    let share_scale = if machine.oversubscribed() {
        machine.processors as f64 / machine.pipes as f64
    } else {
        1.0
    };
    let mut group_seconds = Vec::with_capacity(groups.len());
    let mut total_vertices = 0u64;
    for g in groups {
        let procs = (g.processors as f64 * share_scale).max(1e-9);
        let cpu_s = cost.cpu_seconds(&g.cpu) / procs;
        let pipe_s = cost.pipe_seconds(&g.pipe);
        group_seconds.push(eq_2_1(cpu_s, pipe_s));
        total_vertices += g.pipe.vertices;
    }
    let blend_seconds =
        cost.blend_fixed_overhead + cost.pipe_per_blend_texel * compose_texels as f64;
    let slowest = group_seconds.iter().cloned().fold(0.0, f64::max);
    let total_seconds = slowest + blend_seconds;
    PerfPrediction {
        group_seconds,
        blend_seconds,
        total_seconds,
        textures_per_second: if total_seconds > 0.0 {
            1.0 / total_seconds
        } else {
            0.0
        },
        bus_seconds: cost.bus_seconds(cost.vertex_bytes(total_vertices)),
    }
}

/// Predicts a machine's throughput straight from the per-group reports the
/// scheduler engine produces — the glue between the engine's uniform
/// accounting and the cost model, used by every pipe-backed executor.
pub fn predict_from_reports(
    machine: &MachineConfig,
    reports: &[crate::scheduler::GroupReport],
    compose_texels: u64,
) -> PerfPrediction {
    let group_work: Vec<GroupWork> = reports
        .iter()
        .map(|r| GroupWork {
            cpu: r.cpu_work,
            pipe: r.pipe_work,
            processors: r.processors,
        })
        .collect();
    predict(machine, &group_work, compose_texels)
}

/// Convenience wrapper: predicts a configuration's throughput assuming the
/// total work is split perfectly evenly over the groups (the idealised
/// eq. 3.2 rather than the measured partition). Used by the model-vs-measured
/// comparison in the benchmark harness.
pub fn predict_even_split(
    machine: &MachineConfig,
    total_cpu: &CpuWork,
    total_pipe: &PipeWork,
    texture_size: usize,
) -> PerfPrediction {
    let groups = machine.groups();
    let procs = machine.processors_per_group();
    let div = |v: u64| v / groups as u64;
    let per_group: Vec<GroupWork> = (0..groups)
        .map(|g| GroupWork {
            cpu: CpuWork {
                streamline_steps: div(total_cpu.streamline_steps),
                mesh_vertices: div(total_cpu.mesh_vertices),
                spots: div(total_cpu.spots),
            },
            pipe: PipeWork {
                vertices: div(total_pipe.vertices),
                fragments: div(total_pipe.fragments),
                state_changes: div(total_pipe.state_changes),
                blend_texels: 0,
            },
            processors: procs[g],
        })
        .collect();
    // Gathering n partial full-frame textures touches (n-1) * size^2 texels.
    let compose_texels = (groups.saturating_sub(1) * texture_size * texture_size) as u64;
    predict(machine, &per_group, compose_texels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work counts shaped like the paper's atmospheric workload (Table 1).
    fn atmospheric_totals() -> (CpuWork, PipeWork) {
        (
            CpuWork {
                streamline_steps: 2500 * 32,
                mesh_vertices: 2500 * 544,
                spots: 2500,
            },
            PipeWork {
                vertices: 2500 * 544,
                fragments: 2_500 * 600,
                state_changes: 0,
                blend_texels: 0,
            },
        )
    }

    fn machine(p: usize, g: usize) -> MachineConfig {
        MachineConfig::new(p, g)
    }

    #[test]
    fn eq21_is_max_of_overlapping_stages() {
        assert_eq!(eq_2_1(1.0, 0.3), 1.0);
        assert_eq!(eq_2_1(0.2, 0.9), 0.9);
    }

    #[test]
    fn eq32_divides_work_and_adds_overhead() {
        let t = eq_3_2(1.0, 0.4, 4, 2, 0.05);
        assert!((t - 0.3).abs() < 1e-12); // max(0.25, 0.2) + 0.05
    }

    #[test]
    fn single_processor_single_pipe_matches_table1_order_of_magnitude() {
        // Table 1, cell (1,1): 1.0 textures per second.
        let (cpu, pipe) = atmospheric_totals();
        let pred = predict_even_split(&machine(1, 1), &cpu, &pipe, 512);
        assert!(
            pred.textures_per_second > 0.6 && pred.textures_per_second < 1.6,
            "predicted {} tex/s",
            pred.textures_per_second
        );
    }

    #[test]
    fn more_processors_increase_throughput_until_pipe_saturates() {
        let (cpu, pipe) = atmospheric_totals();
        let t1 = predict_even_split(&machine(1, 1), &cpu, &pipe, 512).textures_per_second;
        let t2 = predict_even_split(&machine(2, 1), &cpu, &pipe, 512).textures_per_second;
        let t4 = predict_even_split(&machine(4, 1), &cpu, &pipe, 512).textures_per_second;
        let t8 = predict_even_split(&machine(8, 1), &cpu, &pipe, 512).textures_per_second;
        // Monotone improvement up to ~4 processors...
        assert!(t2 > t1 * 1.5);
        assert!(t4 > t2 * 1.2);
        // ... then the single pipe saturates: 8 processors give no further
        // significant gain (paper: 2.8 -> 2.7).
        assert!((t8 - t4).abs() / t4 < 0.1, "t4={t4} t8={t8}");
    }

    #[test]
    fn more_pipes_only_help_with_enough_processors() {
        let (cpu, pipe) = atmospheric_totals();
        // With 2 processors, adding pipes does not help (paper row 2: 2.0, 2.0).
        let p2g1 = predict_even_split(&machine(2, 1), &cpu, &pipe, 512).textures_per_second;
        let p2g2 = predict_even_split(&machine(2, 2), &cpu, &pipe, 512).textures_per_second;
        assert!((p2g2 - p2g1).abs() / p2g1 < 0.15, "{p2g1} vs {p2g2}");
        // With 8 processors, 2 pipes beat 1 pipe clearly (paper: 2.7 -> 4.9).
        let p8g1 = predict_even_split(&machine(8, 1), &cpu, &pipe, 512).textures_per_second;
        let p8g2 = predict_even_split(&machine(8, 2), &cpu, &pipe, 512).textures_per_second;
        assert!(p8g2 > p8g1 * 1.3, "{p8g1} vs {p8g2}");
    }

    #[test]
    fn speedup_is_sublinear_because_of_sequential_blend() {
        // The paper notes the expected near-linear speedup for (4n procs, n
        // pipes) is not achieved due to the sequential blending term c.
        let (cpu, pipe) = atmospheric_totals();
        let base = predict_even_split(&machine(4, 1), &cpu, &pipe, 512);
        let quad = predict_even_split(&machine(8, 4), &cpu, &pipe, 512);
        let speedup = quad.textures_per_second / base.textures_per_second;
        assert!(speedup > 1.2, "some speedup expected, got {speedup}");
        assert!(speedup < 3.0, "speedup {speedup} should be sub-linear");
        assert!(quad.blend_seconds > base.blend_seconds);
    }

    #[test]
    fn bus_time_is_negligible_compared_to_total() {
        let (cpu, pipe) = atmospheric_totals();
        let pred = predict_even_split(&machine(8, 4), &cpu, &pipe, 512);
        assert!(pred.bus_seconds < 0.3 * pred.total_seconds);
    }

    #[test]
    fn oversubscribed_configuration_does_not_overestimate() {
        // 1 processor driving 2 pipes cannot be faster than 1 processor with
        // 1 pipe on a CPU-bound workload.
        let (cpu, pipe) = atmospheric_totals();
        let p1g1 = predict_even_split(&machine(1, 1), &cpu, &pipe, 512).textures_per_second;
        let p1g2 = predict_even_split(&machine(1, 2), &cpu, &pipe, 512).textures_per_second;
        assert!(p1g2 <= p1g1 * 1.05, "{p1g2} vs {p1g1}");
    }

    #[test]
    fn predict_reports_per_group_times() {
        let groups = vec![
            GroupWork {
                cpu: CpuWork {
                    streamline_steps: 0,
                    mesh_vertices: 1_000_000,
                    spots: 1000,
                },
                pipe: PipeWork {
                    vertices: 1_000_000,
                    fragments: 100_000,
                    state_changes: 0,
                    blend_texels: 0,
                },
                processors: 2,
            };
            2
        ];
        let pred = predict(&machine(4, 2), &groups, 512 * 512);
        assert_eq!(pred.group_seconds.len(), 2);
        assert!(pred.total_seconds > pred.group_seconds[0]);
        assert!(pred.textures_per_second > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn predict_rejects_empty_groups() {
        let _ = predict(&machine(1, 1), &[], 0);
    }
}
