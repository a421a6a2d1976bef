//! Throughput and stage-timing instrumentation.
//!
//! The quantity the paper reports is *textures per second* for the texture
//! synthesis part of the pipeline (steps 2 and 3 only — "Only the time for
//! texture synthesis is given"). The helpers here measure wall-clock stage
//! times on the host, convert them into textures/second, and bundle them with
//! the simulated-machine prediction so the benchmark harness can print both
//! side by side.

use crate::perfmodel::PerfPrediction;
use std::time::Instant;

/// Wall-clock durations of the four pipeline stages of one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Step 1: reading / producing the data set (microseconds).
    pub read_us: u64,
    /// Step 2: particle advection (microseconds).
    pub advect_us: u64,
    /// Step 3: texture synthesis (microseconds).
    pub synthesize_us: u64,
    /// Step 4: rendering the final scene (microseconds).
    pub render_us: u64,
}

impl StageTimings {
    /// Total wall-clock time of the frame in seconds.
    pub fn total_seconds(&self) -> f64 {
        (self.read_us + self.advect_us + self.synthesize_us + self.render_us) as f64 / 1.0e6
    }

    /// The texture-synthesis time (steps 2 + 3) in seconds — the quantity the
    /// paper's tables are based on.
    pub fn synthesis_seconds(&self) -> f64 {
        (self.advect_us + self.synthesize_us) as f64 / 1.0e6
    }

    /// Textures per second implied by the synthesis time of this frame.
    pub fn textures_per_second(&self) -> f64 {
        let s = self.synthesis_seconds();
        if s > 0.0 {
            1.0 / s
        } else {
            0.0
        }
    }
}

/// Measures a closure and returns its result together with the elapsed
/// microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_micros() as u64)
}

/// Hit/miss/eviction counters of a frame cache, as exposed by the synthesis
/// service's `/stats` endpoint. Lookup outcomes are counted per *requested*
/// frame: a `hit` served the frame without synthesis, a `miss` admitted a
/// synthesis job. `insertions`/`evictions` track the entry population;
/// look-ahead frames rendered on the way to a requested index are inserted
/// without a counted lookup (so `insertions` can exceed `misses`) and are
/// additionally counted in `inserted_lookahead` — the measure of how much
/// future-serving work each synthesis burst banks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Frame requests served straight from the cache.
    pub hits: u64,
    /// Frame requests that required synthesis.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// The subset of `insertions` that were look-ahead frames: rendered on
    /// the way to a requested index rather than for the request itself.
    pub inserted_lookahead: u64,
    /// Entries expelled by the LRU policy to respect the capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of counted lookups that hit, in `[0, 1]` (0 when no lookup
    /// has happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another counter snapshot into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.inserted_lookahead += other.inserted_lookahead;
        self.evictions += other.evictions;
    }
}

/// A frame's complete measurement record: wall-clock stage times plus (when
/// the divide-and-conquer executor ran) the simulated-machine prediction.
#[derive(Debug, Clone)]
pub struct FrameMetrics {
    /// Wall-clock stage timings on the host.
    pub timings: StageTimings,
    /// Simulated Onyx2 prediction for the same work, when available.
    pub predicted: Option<PerfPrediction>,
    /// Number of spots synthesised in the frame.
    pub spots: usize,
}

impl FrameMetrics {
    /// Wall-clock textures per second of this frame.
    pub fn measured_textures_per_second(&self) -> f64 {
        self.timings.textures_per_second()
    }

    /// Simulated textures per second, when a prediction is attached.
    pub fn simulated_textures_per_second(&self) -> Option<f64> {
        self.predicted.as_ref().map(|p| p.textures_per_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stage_timings_totals() {
        let t = StageTimings {
            read_us: 1_000,
            advect_us: 2_000,
            synthesize_us: 7_000,
            render_us: 500,
        };
        assert!((t.total_seconds() - 0.0105).abs() < 1e-9);
        assert!((t.synthesis_seconds() - 0.009).abs() < 1e-9);
        assert!((t.textures_per_second() - 1.0 / 0.009).abs() < 1e-6);
        let zero = StageTimings::default();
        assert_eq!(zero.textures_per_second(), 0.0);
    }

    #[test]
    fn timed_measures_and_returns_value() {
        let (v, us) = timed(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(us >= 4_000, "elapsed {us}us");
    }

    #[test]
    fn cache_stats_rate_and_merge() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        s.insertions = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        s.merge(&CacheStats {
            hits: 1,
            misses: 3,
            insertions: 3,
            inserted_lookahead: 2,
            evictions: 2,
        });
        assert_eq!(
            s,
            CacheStats {
                hits: 4,
                misses: 4,
                insertions: 4,
                inserted_lookahead: 2,
                evictions: 2,
            }
        );
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frame_metrics_expose_both_rates() {
        let fm = FrameMetrics {
            timings: StageTimings {
                read_us: 0,
                advect_us: 0,
                synthesize_us: 100_000,
                render_us: 0,
            },
            predicted: None,
            spots: 100,
        };
        assert!((fm.measured_textures_per_second() - 10.0).abs() < 1e-9);
        assert!(fm.simulated_textures_per_second().is_none());
    }
}
