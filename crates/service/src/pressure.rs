//! Pressure sensing and the graceful-degradation ladder.
//!
//! Overload used to have exactly two behaviours: serve normally, or shed
//! with `503 Busy` once the admission queue hit its watermark. That cliff
//! wastes the middle ground — a saturated broadcast channel can serve its
//! cached frontier frame instead of queueing, and a private session can
//! drop from exact to footprint sampling (the paper's own accuracy/speed
//! dial) long before a shed is warranted. The [`PressureGauge`] is the
//! sensor that drives that ladder: a tri-state
//! [`PressureState`] derived from instantaneous queue depth and the
//! *windowed* queue-wait latency between evaluations.
//!
//! ## Signals
//!
//! * **queue depth / watermark** — instantaneous saturation of admission
//!   control;
//! * **windowed mean queue wait** — the mean of `queue_wait` samples
//!   recorded since the previous evaluation (the service histograms are
//!   monotonic since process start, so an all-time percentile would never
//!   recover after one bad burst; the window forgets).
//!
//! ## Ladder semantics (applied by the server)
//!
//! | state | behaviour |
//! |---|---|
//! | healthy | normal service |
//! | elevated | channel look-ahead disabled (no speculative synthesis) |
//! | saturated | shared subscribers get the cached frontier (`X-Frame-Stale`), non-pinned exact sessions drop to footprint sampling (`X-Frame-Degraded`), then shed |
//!
//! Evaluation is throttled (snapshotting a histogram allocates) and
//! de-escalation is held down for [`PressureConfig::hold`] so the state
//! doesn't flap between ladder rungs on every quiet millisecond.

use spotnoise::telemetry::Histogram;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// The service's load condition, coarse enough to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PressureState {
    /// Normal service: full look-ahead, exact sampling, no staleness.
    Healthy = 0,
    /// Load is building: speculative work (channel look-ahead) is shut off.
    Elevated = 1,
    /// The queue is effectively full: degrade before shedding.
    Saturated = 2,
}

impl PressureState {
    fn from_u8(v: u8) -> PressureState {
        match v {
            2 => PressureState::Saturated,
            1 => PressureState::Elevated,
            _ => PressureState::Healthy,
        }
    }

    /// The wire name reported on `/healthz` and `/stats`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            PressureState::Healthy => "ok",
            PressureState::Elevated => "elevated",
            PressureState::Saturated => "saturated",
        }
    }
}

/// Thresholds and cadence of pressure evaluation.
#[derive(Debug, Clone, Copy)]
pub struct PressureConfig {
    /// Minimum spacing between evaluations (each snapshots a histogram).
    pub eval_interval: Duration,
    /// How long a non-healthy state is held after its signal last fired;
    /// prevents the ladder from flapping on every quiet window.
    pub hold: Duration,
    /// Windowed mean queue wait at which pressure is at least elevated.
    pub elevated_wait: Duration,
    /// Windowed mean queue wait at which pressure is saturated.
    pub saturated_wait: Duration,
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig {
            eval_interval: Duration::from_millis(100),
            hold: Duration::from_secs(2),
            elevated_wait: Duration::from_millis(20),
            saturated_wait: Duration::from_millis(200),
        }
    }
}

/// Counter snapshot of a gauge for `/stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PressureCounters {
    /// Transitions into [`PressureState::Elevated`].
    pub entered_elevated: u64,
    /// Transitions into [`PressureState::Saturated`].
    pub entered_saturated: u64,
    /// Transitions back down the ladder (to any lower state).
    pub recovered: u64,
}

/// The lock-free pressure sensor. All methods take `&self`; evaluation is
/// claimed by compare-and-swap so concurrent callers never double-count a
/// transition.
pub(crate) struct PressureGauge {
    config: PressureConfig,
    started: Instant,
    state: AtomicU8,
    /// Microseconds (since `started`) of the last *claimed* evaluation.
    last_eval_us: AtomicU64,
    /// Microseconds of the last instant the signal justified the current
    /// (non-healthy) state — de-escalation waits `hold` past this.
    last_signal_us: AtomicU64,
    /// Queue-wait histogram cursor of the previous evaluation window.
    seen_count: AtomicU64,
    seen_sum: AtomicU64,
    /// All-time queue-wait p99 cached at the last evaluation; the deadline
    /// admission check reads this instead of snapshotting per request.
    wait_p99_us: AtomicU64,
    entered_elevated: AtomicU64,
    entered_saturated: AtomicU64,
    recovered: AtomicU64,
}

impl PressureGauge {
    /// Creates a healthy gauge.
    pub(crate) fn new(config: PressureConfig) -> Self {
        PressureGauge {
            config,
            started: Instant::now(),
            state: AtomicU8::new(PressureState::Healthy as u8),
            last_eval_us: AtomicU64::new(0),
            last_signal_us: AtomicU64::new(0),
            seen_count: AtomicU64::new(0),
            seen_sum: AtomicU64::new(0),
            wait_p99_us: AtomicU64::new(0),
            entered_elevated: AtomicU64::new(0),
            entered_saturated: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
        }
    }

    /// The current state (one relaxed load; safe on any hot path).
    pub(crate) fn state(&self) -> PressureState {
        PressureState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// The all-time queue-wait p99 cached at the last evaluation — the
    /// deadline admission check's estimate of what a newly queued job will
    /// wait.
    pub(crate) fn queue_wait_p99(&self) -> Duration {
        Duration::from_micros(self.wait_p99_us.load(Ordering::Relaxed))
    }

    /// Transition counters.
    pub(crate) fn counters(&self) -> PressureCounters {
        PressureCounters {
            entered_elevated: self.entered_elevated.load(Ordering::Relaxed),
            entered_saturated: self.entered_saturated.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }

    /// Re-evaluates pressure from the queue's instantaneous depth and the
    /// queue-wait histogram, throttled to
    /// [`PressureConfig::eval_interval`]. Returns the (possibly updated)
    /// state; when throttled, the current state comes back untouched.
    pub(crate) fn evaluate(
        &self,
        depth: usize,
        watermark: usize,
        wait: &Histogram,
    ) -> PressureState {
        let now_us = self.started.elapsed().as_micros() as u64;
        let last = self.last_eval_us.load(Ordering::Relaxed);
        let interval_us = self.config.eval_interval.as_micros() as u64;
        // `last == 0` is the virgin gauge: evaluate immediately so a burst
        // right after startup is seen on its first request.
        if last != 0 && now_us.saturating_sub(last) < interval_us {
            return self.state();
        }
        if self
            .last_eval_us
            .compare_exchange(last, now_us.max(1), Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            // Another caller claimed this window.
            return self.state();
        }

        let snap = wait.snapshot();
        self.wait_p99_us
            .store(snap.percentile(99.0), Ordering::Relaxed);
        let seen_count = self.seen_count.swap(snap.count, Ordering::Relaxed);
        let seen_sum = self.seen_sum.swap(snap.sum, Ordering::Relaxed);
        let window_count = snap.count.saturating_sub(seen_count);
        let window_mean_us = snap
            .sum
            .saturating_sub(seen_sum)
            .checked_div(window_count)
            .unwrap_or(0);

        // The depth signal is instantaneous; the wait signal is the mean of
        // the window just closed. Either can escalate.
        let watermark = watermark.max(1);
        let depth_state = if depth * 4 >= watermark * 3 {
            PressureState::Saturated
        } else if depth * 2 >= watermark {
            PressureState::Elevated
        } else {
            PressureState::Healthy
        };
        let wait_state = if window_mean_us >= self.config.saturated_wait.as_micros() as u64 {
            PressureState::Saturated
        } else if window_mean_us >= self.config.elevated_wait.as_micros() as u64 {
            PressureState::Elevated
        } else {
            PressureState::Healthy
        };
        let signal = depth_state.max(wait_state);

        let current = self.state();
        let next = if signal >= current {
            // Escalation (or re-confirmation) applies immediately.
            self.last_signal_us.store(now_us.max(1), Ordering::Relaxed);
            signal
        } else {
            // De-escalation only after the hold has elapsed since the
            // signal last justified the current state.
            let signal_at = self.last_signal_us.load(Ordering::Relaxed);
            let hold_us = self.config.hold.as_micros() as u64;
            if now_us.saturating_sub(signal_at) >= hold_us {
                signal
            } else {
                current
            }
        };
        if next != current {
            self.state.store(next as u8, Ordering::Relaxed);
            match next {
                PressureState::Elevated if next > current => {
                    self.entered_elevated.fetch_add(1, Ordering::Relaxed);
                }
                PressureState::Saturated => {
                    self.entered_saturated.fetch_add(1, Ordering::Relaxed);
                    if current == PressureState::Healthy {
                        // A straight healthy→saturated jump passed through
                        // elevated conceptually; count both rungs so the
                        // transition counters always tell the full story.
                        self.entered_elevated.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    self.recovered.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        next
    }
}

impl std::fmt::Debug for PressureGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PressureGauge")
            .field("state", &self.state())
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> PressureConfig {
        PressureConfig {
            eval_interval: Duration::from_millis(0),
            hold: Duration::from_millis(0),
            ..PressureConfig::default()
        }
    }

    #[test]
    fn depth_signal_walks_the_ladder() {
        let g = PressureGauge::new(quick_config());
        let wait = Histogram::new();
        assert_eq!(g.evaluate(0, 8, &wait), PressureState::Healthy);
        assert_eq!(g.evaluate(4, 8, &wait), PressureState::Elevated);
        assert_eq!(g.evaluate(6, 8, &wait), PressureState::Saturated);
        assert_eq!(g.evaluate(0, 8, &wait), PressureState::Healthy);
        let c = g.counters();
        assert_eq!(c.entered_elevated, 1);
        assert_eq!(c.entered_saturated, 1);
        assert_eq!(c.recovered, 1);
        // A straight healthy→saturated jump counts both rungs.
        assert_eq!(g.evaluate(8, 8, &wait), PressureState::Saturated);
        let c = g.counters();
        assert_eq!(c.entered_elevated, 2);
        assert_eq!(c.entered_saturated, 2);
    }

    #[test]
    fn windowed_wait_escalates_and_forgets() {
        let g = PressureGauge::new(quick_config());
        let wait = Histogram::new();
        // 50 ms mean queue wait in this window: elevated.
        wait.record(50_000);
        assert_eq!(g.evaluate(0, 64, &wait), PressureState::Elevated);
        // No new samples in the next window: the bad burst is forgotten.
        assert_eq!(g.evaluate(0, 64, &wait), PressureState::Healthy);
        // A saturating burst.
        for _ in 0..4 {
            wait.record(300_000);
        }
        assert_eq!(g.evaluate(0, 64, &wait), PressureState::Saturated);
        assert!(g.queue_wait_p99() >= Duration::from_millis(200));
    }

    #[test]
    fn hold_keeps_the_state_up_between_quiet_windows() {
        let g = PressureGauge::new(PressureConfig {
            eval_interval: Duration::from_millis(0),
            hold: Duration::from_secs(60),
            ..PressureConfig::default()
        });
        let wait = Histogram::new();
        assert_eq!(g.evaluate(6, 8, &wait), PressureState::Saturated);
        // The signal cleared but the hold has not elapsed.
        assert_eq!(g.evaluate(0, 8, &wait), PressureState::Saturated);
        assert_eq!(g.counters().recovered, 0);
    }

    #[test]
    fn evaluation_is_throttled_between_intervals() {
        let g = PressureGauge::new(PressureConfig {
            eval_interval: Duration::from_secs(60),
            ..PressureConfig::default()
        });
        let wait = Histogram::new();
        // First call claims the window; the second is throttled and must
        // not see the new depth.
        assert_eq!(g.evaluate(0, 8, &wait), PressureState::Healthy);
        assert_eq!(g.evaluate(8, 8, &wait), PressureState::Healthy);
    }
}
