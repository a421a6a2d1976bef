//! The scientific-database browser.
//!
//! "A few weeks of computing can easily produce a few terabytes of data. A
//! data browser is being developed to analyse such scientific data bases. In
//! contrast to prerecorded video sequences, the data browser allows the user
//! to first select visualization mappings and then play through any part of
//! the data base." This module is that substrate: a store of time-stamped
//! DNS slices with record/playback access, in memory or on disk, plus the
//! bookkeeping (byte sizes, playback rate) the browsing application needs.
//! Only when playback exceeds a handful of frames per second can the user
//! track how the vortices evolve — which is why interactive spot noise is
//! needed in the first place.

use flowfield::io::{load_vector_grid, save_vector_grid};
use flowfield::RegularGrid;
#[cfg(test)]
use flowfield::Vec2;
use std::io;
use std::path::PathBuf;

/// Metadata describing one stored frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameInfo {
    /// Frame index within the data base.
    pub index: usize,
    /// Simulation time of the frame.
    pub time: f64,
    /// Approximate storage size of the frame in bytes.
    pub bytes: usize,
}

enum Storage {
    Memory(Vec<RegularGrid>),
    Disk { dir: PathBuf },
}

/// A time-series database of vector-field slices.
pub struct DataBrowser {
    storage: Storage,
    frames: Vec<FrameInfo>,
    cursor: usize,
}

impl DataBrowser {
    /// Creates an in-memory browser (fine for tests and small runs).
    pub fn in_memory() -> Self {
        DataBrowser {
            storage: Storage::Memory(Vec::new()),
            frames: Vec::new(),
            cursor: 0,
        }
    }

    /// Creates a browser persisting frames as files under `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DataBrowser {
            storage: Storage::Disk { dir },
            frames: Vec::new(),
            cursor: 0,
        })
    }

    /// Number of stored frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames have been recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Metadata of all stored frames.
    pub fn frames(&self) -> &[FrameInfo] {
        &self.frames
    }

    /// Total size of the stored data base in bytes (the quantity that reaches
    /// terabytes for the real DNS).
    pub fn total_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// Records a frame at simulation time `time`.
    pub fn record(&mut self, grid: &RegularGrid, time: f64) -> io::Result<usize> {
        let index = self.frames.len();
        let bytes = grid.nx() * grid.ny() * 2 * std::mem::size_of::<f64>();
        match &mut self.storage {
            Storage::Memory(frames) => frames.push(grid.clone()),
            Storage::Disk { dir } => {
                save_vector_grid(grid, frame_path(dir, index))?;
            }
        }
        self.frames.push(FrameInfo { index, time, bytes });
        Ok(index)
    }

    /// Loads frame `index`.
    pub fn load(&self, index: usize) -> io::Result<RegularGrid> {
        if index >= self.frames.len() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("frame {index} out of range ({} frames)", self.frames.len()),
            ));
        }
        match &self.storage {
            Storage::Memory(frames) => Ok(frames[index].clone()),
            Storage::Disk { dir } => load_vector_grid(frame_path(dir, index)),
        }
    }

    /// Seeks the playback cursor to `index` ("play through any part of the
    /// data base").
    pub fn seek(&mut self, index: usize) {
        self.cursor = index.min(self.frames.len().saturating_sub(1));
    }

    /// Current playback cursor.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Loads the frame at the cursor and advances it, wrapping at the end.
    pub fn next_frame(&mut self) -> io::Result<(FrameInfo, RegularGrid)> {
        if self.is_empty() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "empty data base"));
        }
        let index = self.cursor;
        let grid = self.load(index)?;
        let info = self.frames[index].clone();
        self.cursor = (self.cursor + 1) % self.frames.len();
        Ok((info, grid))
    }
}

fn frame_path(dir: &std::path::Path, index: usize) -> PathBuf {
    dir.join(format!("frame_{index:06}.grid"))
}

/// Convenience: runs a DNS solver for `frames * steps_per_frame` steps,
/// recording a slice every `steps_per_frame` steps. Returns the populated
/// browser. This is how the examples and benchmarks produce their data base.
pub fn record_dns_run(
    solver: &mut crate::dns::DnsSolver,
    browser: &mut DataBrowser,
    frames: usize,
    steps_per_frame: usize,
    dt: f64,
) -> io::Result<()> {
    for _ in 0..frames {
        for _ in 0..steps_per_frame {
            solver.step(dt);
        }
        browser.record(&solver.velocity_grid(), solver.time())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::{DnsConfig, DnsSolver};
    use flowfield::Rect;

    fn grid(value: f64) -> RegularGrid {
        RegularGrid::from_fn(8, 6, Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0)), |_| {
            Vec2::new(value, -value)
        })
    }

    #[test]
    fn in_memory_record_and_load() {
        let mut b = DataBrowser::in_memory();
        assert!(b.is_empty());
        b.record(&grid(1.0), 0.0).unwrap();
        b.record(&grid(2.0), 0.1).unwrap();
        assert_eq!(b.len(), 2);
        let g = b.load(1).unwrap();
        assert_eq!(g.node(0, 0), Vec2::new(2.0, -2.0));
        assert!(b.load(5).is_err());
        assert_eq!(b.total_bytes(), 2 * 8 * 6 * 16);
    }

    #[test]
    fn playback_wraps_and_seeks() {
        let mut b = DataBrowser::in_memory();
        for k in 0..3 {
            b.record(&grid(k as f64), k as f64 * 0.5).unwrap();
        }
        let (info, _) = b.next_frame().unwrap();
        assert_eq!(info.index, 0);
        let (info, _) = b.next_frame().unwrap();
        assert_eq!(info.index, 1);
        b.seek(2);
        let (info, _) = b.next_frame().unwrap();
        assert_eq!(info.index, 2);
        // Wraps to the beginning.
        let (info, _) = b.next_frame().unwrap();
        assert_eq!(info.index, 0);
    }

    #[test]
    fn empty_browser_playback_errors() {
        let mut b = DataBrowser::in_memory();
        assert!(b.next_frame().is_err());
    }

    #[test]
    fn disk_backed_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spotnoise_browser_{}", std::process::id()));
        let mut b = DataBrowser::on_disk(&dir).unwrap();
        b.record(&grid(3.5), 1.0).unwrap();
        let g = b.load(0).unwrap();
        assert_eq!(g.node(2, 2), Vec2::new(3.5, -3.5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_dns_run_populates_browser() {
        let mut solver = DnsSolver::new(DnsConfig {
            nx: 32,
            ny: 20,
            ..DnsConfig::small_test()
        });
        let mut b = DataBrowser::in_memory();
        record_dns_run(&mut solver, &mut b, 4, 3, 0.02).unwrap();
        assert_eq!(b.len(), 4);
        // Frame times are strictly increasing.
        let times: Vec<f64> = b.frames().iter().map(|f| f.time).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(solver.steps(), 12);
    }
}
