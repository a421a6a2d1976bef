//! The simplified graphics-workstation model (paper figure 4).
//!
//! A machine consists of a number of general-purpose processors connected by
//! a bus to a graphics subsystem with one or more graphics pipes. The
//! configuration object here captures exactly the knobs the paper's tables
//! sweep — the number of processors `nP` and the number of pipes `nG` — plus
//! the cost model of the simulated hardware. It also implements the paper's
//! resource-assignment policy: processors are divided evenly over the pipes,
//! each pipe getting a process group of one master and zero or more slaves.

use crate::cost::CostModel;

/// Configuration of the simulated workstation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of general-purpose processors (`nP`).
    pub processors: usize,
    /// Number of graphics pipes (`nG`).
    pub pipes: usize,
    /// Per-unit cost model of the simulated hardware.
    pub cost: CostModel,
}

impl MachineConfig {
    /// Creates a configuration; panics when either resource count is zero.
    pub fn new(processors: usize, pipes: usize) -> Self {
        assert!(processors >= 1, "need at least one processor");
        assert!(pipes >= 1, "need at least one graphics pipe");
        MachineConfig {
            processors,
            pipes,
            cost: CostModel::onyx2(),
        }
    }

    /// The full machine the paper used: 8 R10000 processors and 4
    /// InfiniteReality pipes.
    pub fn onyx2_full() -> Self {
        MachineConfig::new(8, 4)
    }

    /// The number of process groups, which is always the number of pipes:
    /// each particle set is processed by "one or more processors and exactly
    /// one graphics pipe".
    pub fn groups(&self) -> usize {
        self.pipes
    }

    /// Distributes the processors evenly over the pipes. Each entry is the
    /// number of processors assigned to that group (at least one — the master
    /// also computes spot shapes when it has no slaves, so a group never has
    /// zero workers even when `processors < pipes`).
    pub fn processors_per_group(&self) -> Vec<usize> {
        let base = self.processors / self.pipes;
        let extra = self.processors % self.pipes;
        (0..self.pipes)
            .map(|g| {
                let n = base + usize::from(g < extra);
                n.max(1)
            })
            .collect()
    }

    /// True when the configuration over-subscribes processors, i.e. fewer
    /// processors than pipes so masters must be time-shared. The paper's
    /// tables include such configurations (e.g. 1 processor, 2 pipes) and
    /// they show no speedup over the single-pipe column.
    pub fn oversubscribed(&self) -> bool {
        self.processors < self.pipes
    }

    /// All `(processors, pipes)` combinations measured in the paper's tables:
    /// processors in {1, 2, 4, 8} crossed with pipes in {1, 2, 4}, keeping
    /// only the lower-triangular combinations the tables report (pipes never
    /// exceed processors).
    pub fn paper_sweep() -> Vec<MachineConfig> {
        let mut out = Vec::new();
        for &p in &[1usize, 2, 4, 8] {
            for &g in &[1usize, 2, 4] {
                if g <= p {
                    out.push(MachineConfig::new(p, g));
                }
            }
        }
        out
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::onyx2_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onyx2_full_configuration() {
        let m = MachineConfig::onyx2_full();
        assert_eq!(m.processors, 8);
        assert_eq!(m.pipes, 4);
        assert_eq!(m.groups(), 4);
        assert_eq!(m.processors_per_group(), vec![2, 2, 2, 2]);
        assert!(!m.oversubscribed());
    }

    #[test]
    fn uneven_division_distributes_remainder_first() {
        let m = MachineConfig::new(7, 3);
        assert_eq!(m.processors_per_group(), vec![3, 2, 2]);
        let total: usize = m.processors_per_group().iter().sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn oversubscribed_groups_still_get_a_worker() {
        let m = MachineConfig::new(1, 4);
        assert!(m.oversubscribed());
        assert_eq!(m.processors_per_group(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn four_procs_one_pipe() {
        let m = MachineConfig::new(4, 1);
        assert_eq!(m.groups(), 1);
        assert_eq!(m.processors_per_group(), vec![4]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = MachineConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one graphics pipe")]
    fn zero_pipes_rejected() {
        let _ = MachineConfig::new(1, 0);
    }

    #[test]
    fn paper_sweep_matches_table_cells() {
        let sweep = MachineConfig::paper_sweep();
        // Table rows: 1, 2, 4, 8 processors; columns 1, 2, 4 pipes, lower
        // triangle only (the paper reports 8 of the 12 combinations):
        // (1,1), (2,1), (2,2), (4,1), (4,2), (4,4), (8,1), (8,2), (8,4).
        assert_eq!(sweep.len(), 9);
        assert!(sweep.iter().all(|m| m.pipes <= m.processors));
        assert!(sweep.contains(&MachineConfig::new(8, 4)));
        assert!(sweep.contains(&MachineConfig::new(1, 1)));
        assert!(!sweep.iter().any(|m| m.processors == 1 && m.pipes == 2));
    }
}
