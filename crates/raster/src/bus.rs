//! Host-to-graphics bus accounting.
//!
//! One of the paper's explicit observations (section 5.1) is that the bus is
//! *not* the bottleneck: at 5.6 textures/second the vertex traffic is about
//! 116 MByte/s against an 800 MByte/s bus. This module tracks the bytes that
//! cross the bus (vertex streams toward the pipes, partial textures back for
//! the gather step) so the harness can reproduce that observation. One
//! tracker is shared by all process groups of a scheduler-engine run;
//! groups that bypass the graphics subsystem (the CPU-only executor)
//! record nothing, so their uniform reports show zero bus traffic.

use crate::sync::lock_recover;
use std::sync::{Arc, Mutex, MutexGuard};

/// Categories of bus traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Vertex data streamed from processors to a pipe.
    Vertices,
    /// Texture data moved between pipes and host memory (gather/readback).
    Textures,
    /// Data-set reads (pipeline step 1).
    DataSet,
}

/// A snapshot of the accumulated traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Bytes of vertex traffic.
    pub vertex_bytes: u64,
    /// Bytes of texture traffic.
    pub texture_bytes: u64,
    /// Bytes of data-set traffic.
    pub dataset_bytes: u64,
    /// Number of individual transfers recorded.
    pub transfers: u64,
}

impl BusStats {
    /// Total bytes across all categories.
    pub fn total_bytes(&self) -> u64 {
        self.vertex_bytes + self.texture_bytes + self.dataset_bytes
    }

    /// Average bandwidth in bytes/second over a wall-clock or simulated
    /// interval of `seconds`.
    pub fn bandwidth(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            self.total_bytes() as f64 / seconds
        }
    }
}

/// A thread-safe bus traffic recorder shared by all process groups.
#[derive(Debug, Clone, Default)]
pub struct BusTracker {
    inner: Arc<Mutex<BusStats>>,
}

impl BusTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        BusTracker::default()
    }

    /// Locks the counters. Each counter is bumped by one statement, so a
    /// writer that panicked mid-`record` leaves at most one transfer counted
    /// in its category but not in `transfers`; the totals stay usable and
    /// no revalidation is needed.
    fn stats(&self) -> MutexGuard<'_, BusStats> {
        lock_recover(&self.inner, |_| {})
    }

    /// Records a transfer of `bytes` in the given traffic category.
    pub fn record(&self, traffic: Traffic, bytes: u64) {
        let mut s = self.stats();
        match traffic {
            Traffic::Vertices => s.vertex_bytes += bytes,
            Traffic::Textures => s.texture_bytes += bytes,
            Traffic::DataSet => s.dataset_bytes += bytes,
        }
        s.transfers += 1;
    }

    /// Returns a snapshot of the counters.
    pub fn snapshot(&self) -> BusStats {
        *self.stats()
    }

    /// Clears all counters.
    pub fn reset(&self) {
        *self.stats() = BusStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_category() {
        let bus = BusTracker::new();
        bus.record(Traffic::Vertices, 1000);
        bus.record(Traffic::Textures, 500);
        bus.record(Traffic::DataSet, 250);
        bus.record(Traffic::Vertices, 1000);
        let s = bus.snapshot();
        assert_eq!(s.vertex_bytes, 2000);
        assert_eq!(s.texture_bytes, 500);
        assert_eq!(s.dataset_bytes, 250);
        assert_eq!(s.transfers, 4);
        assert_eq!(s.total_bytes(), 2750);
    }

    #[test]
    fn bandwidth_is_bytes_per_second() {
        let s = BusStats {
            vertex_bytes: 116_000_000,
            ..Default::default()
        };
        assert!((s.bandwidth(1.0) - 116.0e6).abs() < 1.0);
        assert_eq!(s.bandwidth(0.0), 0.0);
    }

    #[test]
    fn reset_clears_counters() {
        let bus = BusTracker::new();
        bus.record(Traffic::Vertices, 10);
        bus.reset();
        assert_eq!(bus.snapshot().total_bytes(), 0);
    }

    #[test]
    fn tracker_is_shared_between_clones() {
        let bus = BusTracker::new();
        let other = bus.clone();
        other.record(Traffic::Textures, 42);
        assert_eq!(bus.snapshot().texture_bytes, 42);
    }

    #[test]
    fn tracker_usable_from_threads() {
        let bus = BusTracker::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let b = bus.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        b.record(Traffic::Vertices, 16);
                    }
                });
            }
        });
        assert_eq!(bus.snapshot().vertex_bytes, 4 * 100 * 16);
    }
}
