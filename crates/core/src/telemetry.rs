//! End-to-end telemetry: lock-free latency histograms and frame-lifecycle
//! tracing.
//!
//! The paper's headline claim is a throughput number, but a live service
//! needs *distributions* — queue-wait tails, per-stage p99s — and a causal
//! view of where a slow frame spent its time. This module provides both,
//! std-only and allocation-free on the hot path:
//!
//! * [`Histogram`] — log-bucketed latency histograms over atomic `u64`
//!   buckets. Recording is a handful of relaxed atomic adds (no locks, no
//!   allocation); snapshots are mergeable and expose p50/p90/p99/max with a
//!   bounded relative error of about 3.2% (values below 32 are exact).
//! * [`TraceSink`] — a bounded ring buffer of typed span events covering the
//!   frame lifecycle (admitted → queue-wait → advect → per-group raster →
//!   gather → cache-insert → delivered). Off by default; enabled via
//!   `SPOTNOISE_TRACE=off|ring|stderr` or programmatically with
//!   [`force_mode`]. A disabled sink is a single `Option` check per record
//!   call, so instrumented code pays nothing in production.
//! * [`TraceCtx`] — a thread-local `(actor, frame)` pair so deeply nested
//!   code (the scheduler, the cache) can tag spans with the session/channel
//!   and frame they belong to without threading ids through every call.

use softpipe::sync::lock_recover;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Values below this are recorded exactly (one bucket per integer); above
/// it, buckets are log-linear: 32 sub-buckets per octave, for a worst-case
/// relative error of `1/32` ≈ 3.2%.
pub(crate) const LINEAR_CUTOFF: u64 = 32;

/// Sub-bucket resolution: each octave above [`LINEAR_CUTOFF`] is split into
/// `2^SUB_BITS` equal-width buckets.
const SUB_BITS: u32 = 5;

/// Number of sub-buckets per octave.
const SUBS_PER_OCTAVE: usize = 1 << SUB_BITS;

/// Total bucket count: 32 exact buckets plus 32 sub-buckets for each of the
/// octaves `[2^5, 2^6) .. [2^63, 2^64)`.
pub(crate) const BUCKET_COUNT: usize =
    LINEAR_CUTOFF as usize + (64 - SUB_BITS as usize) * SUBS_PER_OCTAVE;

/// The bucket index a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS because v >= 32
        let sub = (v >> (exp - SUB_BITS)) & (SUBS_PER_OCTAVE as u64 - 1);
        LINEAR_CUTOFF as usize + (exp - SUB_BITS) as usize * SUBS_PER_OCTAVE + sub as usize
    }
}

/// The inclusive `[lower, upper]` value range of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < LINEAR_CUTOFF as usize {
        (idx as u64, idx as u64)
    } else {
        let block = (idx - LINEAR_CUTOFF as usize) / SUBS_PER_OCTAVE;
        let sub = ((idx - LINEAR_CUTOFF as usize) % SUBS_PER_OCTAVE) as u64;
        let exp = block as u32 + SUB_BITS;
        let width = 1u64 << (exp - SUB_BITS);
        let lower = (1u64 << exp) + sub * width;
        (lower, lower.wrapping_add(width - 1))
    }
}

/// A lock-free log-bucketed latency histogram.
///
/// Recording is wait-free (relaxed atomic adds); reading takes a consistent
/// *enough* [`HistogramSnapshot`] — counters may be mid-update while the
/// snapshot walks the buckets, but each bucket is individually exact and the
/// percentiles are computed against the snapshot's own total, so a snapshot
/// is always internally consistent with itself.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (microseconds by convention). Wait-free.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`Duration`] in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable and queryable.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank percentile `q` (in `[0, 100]`). Values below 32
    /// are exact; above it the result overshoots the true
    /// value by at most one bucket width (≈ 3.2% relative). Returns 0 for an
    /// empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, upper) = bucket_bounds(idx);
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Cumulative `(upper_bound, count_at_or_below)` pairs for every
    /// non-empty bucket, in ascending order — the shape a Prometheus
    /// histogram exposition wants (`le` buckets).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            out.push((bucket_bounds(idx).1, cum));
        }
        out
    }
}

/// Where trace events go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Tracing disabled (the default) — record calls are a single branch.
    Off,
    /// Events go to a bounded in-memory ring (served by `GET /trace`).
    Ring,
    /// Events go to the ring *and* are printed to stderr as they happen.
    Stderr,
}

/// Parses a `SPOTNOISE_TRACE` value. Unknown strings parse to `None` (the
/// caller falls back to [`TraceMode::Off`]).
pub(crate) fn parse_trace_mode(s: &str) -> Option<TraceMode> {
    match s {
        "off" => Some(TraceMode::Off),
        "ring" => Some(TraceMode::Ring),
        "stderr" => Some(TraceMode::Stderr),
        _ => None,
    }
}

/// Programmatic override of the trace mode: 0 = no override, 1 = Off,
/// 2 = Ring, 3 = Stderr.
static FORCED_MODE: AtomicU8 = AtomicU8::new(0);

/// Forces the trace mode for subsequently created sinks, overriding the
/// `SPOTNOISE_TRACE` environment variable. Pass `None` to restore
/// environment-driven resolution. Used by benchmarks (to measure overhead
/// deterministically) and tests; precedence is force > env > off.
pub fn force_mode(mode: Option<TraceMode>) {
    let v = match mode {
        None => 0,
        Some(TraceMode::Off) => 1,
        Some(TraceMode::Ring) => 2,
        Some(TraceMode::Stderr) => 3,
    };
    FORCED_MODE.store(v, Ordering::SeqCst);
}

/// Resolves the effective trace mode: a [`force_mode`] override wins, then
/// the `SPOTNOISE_TRACE` environment variable, then [`TraceMode::Off`].
pub(crate) fn trace_mode() -> TraceMode {
    match FORCED_MODE.load(Ordering::SeqCst) {
        1 => return TraceMode::Off,
        2 => return TraceMode::Ring,
        3 => return TraceMode::Stderr,
        _ => {}
    }
    std::env::var("SPOTNOISE_TRACE")
        .ok()
        .and_then(|v| parse_trace_mode(&v))
        .unwrap_or(TraceMode::Off)
}

/// A stage of the frame lifecycle, as traced by a [`TraceSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// A frame request, end to end (admission to reply).
    Request,
    /// Time a job spent waiting in the admission queue.
    QueueWait,
    /// Particle advection (pipeline step 2).
    Advect,
    /// Texture synthesis (pipeline step 3), all groups.
    Synthesize,
    /// One process group's rasterization inside a synthesis step.
    RasterGroup,
    /// The streaming gather composing partial textures.
    Gather,
    /// Display post-processing (pipeline step 4).
    Render,
    /// A frame-cache insertion.
    CacheInsert,
    /// A frame handed to a channel subscriber.
    Deliver,
    /// A graphics-pipe checkout from the pipe pool.
    PipeCheckout,
    /// A shared channel serving (and possibly synthesizing) a frame.
    ChannelServe,
}

impl TraceStage {
    /// Stable lower-case name (used by `/trace` and the stderr printer).
    pub fn name(&self) -> &'static str {
        match self {
            TraceStage::Request => "request",
            TraceStage::QueueWait => "queue_wait",
            TraceStage::Advect => "advect",
            TraceStage::Synthesize => "synthesize",
            TraceStage::RasterGroup => "raster_group",
            TraceStage::Gather => "gather",
            TraceStage::Render => "render",
            TraceStage::CacheInsert => "cache_insert",
            TraceStage::Deliver => "deliver",
            TraceStage::PipeCheckout => "pipe_checkout",
            TraceStage::ChannelServe => "channel_serve",
        }
    }
}

/// The `(actor, frame)` identity spans are tagged with. `actor` is a
/// session id for private sessions and a channel queue id for shared
/// channels; 0 means "unknown".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Session or channel-queue id.
    pub actor: u64,
    /// Frame index being produced.
    pub frame: u64,
}

thread_local! {
    static CURRENT_CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx { actor: 0, frame: 0 }) };
}

/// The calling thread's current trace context.
pub fn ctx() -> TraceCtx {
    CURRENT_CTX.with(Cell::get)
}

/// Sets the calling thread's trace context, restoring the previous one when
/// the returned guard drops.
pub fn set_ctx(new: TraceCtx) -> CtxGuard {
    let prev = CURRENT_CTX.with(|c| c.replace(new));
    CtxGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// Restores the previous thread-local [`TraceCtx`] on drop.
pub struct CtxGuard {
    prev: TraceCtx,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT_CTX.with(|c| c.set(self.prev));
    }
}

impl std::fmt::Debug for CtxGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtxGuard")
            .field("prev", &self.prev)
            .finish()
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The lifecycle stage.
    pub stage: TraceStage,
    /// Span start, microseconds since the sink's epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Session or channel-queue id (0 when unknown).
    pub actor: u64,
    /// Frame index (0 when unknown).
    pub frame: u64,
    /// Stage-specific detail: raster group index, pool-reuse flag,
    /// cache-lookahead flag; 0 otherwise.
    pub detail: u64,
}

/// Default ring capacity of [`TraceSink::from_env`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Ring slot: the event plus its 1-based sequence number, so readers can
/// reassemble wrapped slots in recording order. A slot is only ever written
/// whole (one assignment of a `Copy` value), so a poisoned slot still holds
/// a complete event or `None` and needs no revalidation.
type TraceSlot = Mutex<Option<(u64, TraceEvent)>>;

struct SinkInner {
    stderr: bool,
    epoch: Instant,
    /// Events ever recorded; an event's 1-based sequence number places it at
    /// slot `(seq - 1) % slots.len()`.
    seq: AtomicU64,
    slots: Box<[TraceSlot]>,
}

/// A handle to the trace ring. Cheap to clone (an `Arc` bump) and cheap to
/// carry disabled (`Default` is a disabled sink; recording through it is one
/// branch). Instrumented layers hold a `TraceSink` unconditionally; whether
/// anything is recorded is decided once, at construction, from the resolved
/// trace mode ([`TraceSink::from_env`]).
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// A sink in an explicit mode with the given ring capacity.
    pub fn with_mode(mode: TraceMode, capacity: usize) -> Self {
        let stderr = match mode {
            TraceMode::Off => return TraceSink::disabled(),
            TraceMode::Ring => false,
            TraceMode::Stderr => true,
        };
        let slots: Vec<TraceSlot> = (0..capacity.max(1)).map(|_| Mutex::new(None)).collect();
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                stderr,
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                slots: slots.into_boxed_slice(),
            })),
        }
    }

    /// A sink in the resolved trace mode: a [`force_mode`] override wins,
    /// then the `SPOTNOISE_TRACE` environment variable, then
    /// [`TraceMode::Off`].
    pub fn from_env(capacity: usize) -> Self {
        TraceSink::with_mode(trace_mode(), capacity)
    }

    /// Whether the sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Events ever recorded (including those already overwritten in the
    /// ring). 0 for a disabled sink.
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.seq.load(Ordering::Relaxed))
    }

    /// Records a span tagged with the calling thread's [`TraceCtx`].
    pub fn record(&self, stage: TraceStage, start: Instant, dur: Duration) {
        if self.inner.is_some() {
            self.record_with(stage, ctx(), start, dur, 0);
        }
    }

    /// Records a span with an explicit context and detail value.
    pub fn record_with(
        &self,
        stage: TraceStage,
        ctx: TraceCtx,
        start: Instant,
        dur: Duration,
        detail: u64,
    ) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let event = TraceEvent {
            stage,
            start_us: start
                .checked_duration_since(inner.epoch)
                .unwrap_or_default()
                .as_micros() as u64,
            dur_us: dur.as_micros() as u64,
            actor: ctx.actor,
            frame: ctx.frame,
            detail,
        };
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let idx = ((seq - 1) % inner.slots.len() as u64) as usize;
        *lock_recover(&inner.slots[idx], |_| {}) = Some((seq, event));
        if inner.stderr {
            eprintln!(
                "[trace] {} actor={} frame={} start_us={} dur_us={} detail={}",
                event.stage.name(),
                event.actor,
                event.frame,
                event.start_us,
                event.dur_us,
                event.detail,
            );
        }
    }

    /// The most recent (up to) `last` events, oldest first.
    pub fn recent(&self, last: usize) -> Vec<TraceEvent> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        let mut tagged: Vec<(u64, TraceEvent)> = inner
            .slots
            .iter()
            .filter_map(|s| *lock_recover(s, |_| {}))
            .collect();
        tagged.sort_by_key(|(seq, _)| *seq);
        let skip = tagged.len().saturating_sub(last);
        tagged.into_iter().skip(skip).map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn small_values_have_exact_buckets() {
        for v in 0..LINEAR_CUTOFF {
            let idx = bucket_index(v);
            assert_eq!(bucket_bounds(idx), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            100,
            1023,
            1024,
            1025,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} bounds=({lo},{hi})");
        }
        // Bucket widths stay within the advertised 1/32 relative error.
        for idx in LINEAR_CUTOFF as usize..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(idx);
            assert!(hi - lo <= lo / LINEAR_CUTOFF, "idx={idx} ({lo},{hi})");
        }
        // The top bucket reaches u64::MAX.
        assert_eq!(bucket_bounds(BUCKET_COUNT - 1).1, u64::MAX);
    }

    #[test]
    fn buckets_are_monotone_in_value() {
        let mut prev = 0usize;
        for v in 0..5000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "v={v}");
            prev = idx;
        }
    }

    #[test]
    fn exact_percentiles_below_cutoff() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 32);
        // Nearest rank: rank(50) = 16 -> 16th smallest = 15.
        assert_eq!(s.percentile(50.0), 15);
        assert_eq!(s.percentile(100.0), 31);
        assert_eq!(s.max, 31);
        assert!((s.mean() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn max_is_exact_and_caps_percentiles() {
        let h = Histogram::new();
        h.record(1_000_003);
        let s = h.snapshot();
        assert_eq!(s.max, 1_000_003);
        // The bucket upper bound overshoots, but the percentile is capped at
        // the exact max.
        assert_eq!(s.percentile(99.0), 1_000_003);
    }

    #[test]
    fn merge_combines_counts_and_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..10u64 {
            a.record(v);
        }
        for v in 100..110u64 {
            b.record(v);
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 20);
        assert_eq!(s.max, 109);
        assert_eq!(s.percentile(25.0), 4);
        assert!(s.percentile(90.0) >= 107);
        let cum = s.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 20, "cumulative count reaches total");
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.cumulative_buckets().is_empty());
    }

    fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The histogram's nearest-rank percentiles stay within one bucket
    /// width (1/32 relative) of a sorted-Vec oracle, for any value set.
    #[test]
    fn percentiles_match_sorted_oracle() {
        let seed = 0x9E7C;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let len = rng.gen_range(1usize..200);
            let values: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..2_000_000)).collect();
            let q = rng.gen_range(1.0..100.0);
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let context = format!("seed {seed:#x}, case {case}: q {q}, values {values:?}");
            let mut sorted = values;
            sorted.sort_unstable();
            let want = oracle_percentile(&sorted, q);
            let got = h.snapshot().percentile(q);
            assert!(got >= want, "{context}: got {got} < oracle {want}");
            assert!(
                got - want <= want / 32 + 1,
                "{context}: got {got} overshoots oracle {want} by more than a bucket"
            );
        }
    }

    #[test]
    fn trace_ring_wraps_and_keeps_the_newest() {
        let sink = TraceSink::with_mode(TraceMode::Ring, 8);
        assert!(sink.is_enabled());
        let t0 = Instant::now();
        for i in 0..20u64 {
            sink.record_with(
                TraceStage::Advect,
                TraceCtx { actor: 1, frame: i },
                t0,
                Duration::from_micros(i),
                i,
            );
        }
        assert_eq!(sink.recorded(), 20);
        let events = sink.recent(100);
        assert_eq!(events.len(), 8, "ring keeps only its capacity");
        let frames: Vec<u64> = events.iter().map(|e| e.frame).collect();
        assert_eq!(
            frames,
            (12..20).collect::<Vec<_>>(),
            "newest 8, oldest first"
        );
        assert_eq!(sink.recent(3).len(), 3);
        assert_eq!(sink.recent(3)[2].frame, 19);
    }

    #[test]
    fn poisoned_trace_slot_is_recovered_and_counted() {
        let sink = TraceSink::with_mode(TraceMode::Ring, 2);
        let t0 = Instant::now();
        let ctx = TraceCtx { actor: 1, frame: 0 };
        sink.record_with(TraceStage::Advect, ctx, t0, Duration::ZERO, 0);
        let inner = Arc::clone(sink.inner.as_ref().unwrap());
        let _ = std::thread::spawn(move || {
            let _guard = inner.slots[0].lock().unwrap();
            panic!("poison the slot");
        })
        .join();

        let before = softpipe::sync::recoveries();
        assert_eq!(sink.recent(10).len(), 1, "the poisoned slot still reads");
        assert!(softpipe::sync::recoveries() > before);
        sink.record_with(TraceStage::Advect, ctx, t0, Duration::ZERO, 1);
        sink.record_with(TraceStage::Advect, ctx, t0, Duration::ZERO, 2);
        let details: Vec<u64> = sink.recent(10).iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![1, 2], "recording continues past the poison");
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(TraceStage::Request, Instant::now(), Duration::ZERO);
        assert_eq!(sink.recorded(), 0);
        assert!(sink.recent(10).is_empty());
        assert!(!TraceSink::default().is_enabled());
        assert!(!TraceSink::with_mode(TraceMode::Off, 64).is_enabled());
    }

    #[test]
    fn parse_trace_mode_accepts_the_documented_values() {
        assert_eq!(parse_trace_mode("off"), Some(TraceMode::Off));
        assert_eq!(parse_trace_mode("ring"), Some(TraceMode::Ring));
        assert_eq!(parse_trace_mode("stderr"), Some(TraceMode::Stderr));
        assert_eq!(parse_trace_mode("on"), None);
        assert_eq!(parse_trace_mode(""), None);
    }

    /// The single test allowed to touch the global force override (tests run
    /// in parallel; other tests must not depend on [`trace_mode`]).
    #[test]
    fn force_mode_overrides_the_environment() {
        force_mode(Some(TraceMode::Ring));
        assert_eq!(trace_mode(), TraceMode::Ring);
        assert!(TraceSink::from_env(16).is_enabled());
        force_mode(Some(TraceMode::Off));
        assert_eq!(trace_mode(), TraceMode::Off);
        assert!(!TraceSink::from_env(16).is_enabled());
        force_mode(None);
        // Back to env-driven resolution (whatever the environment says).
        let _ = trace_mode();
    }

    #[test]
    fn ctx_guard_nests_and_restores() {
        assert_eq!(ctx(), TraceCtx::default());
        {
            let _a = set_ctx(TraceCtx { actor: 3, frame: 7 });
            assert_eq!(ctx(), TraceCtx { actor: 3, frame: 7 });
            {
                let _b = set_ctx(TraceCtx { actor: 3, frame: 8 });
                assert_eq!(ctx().frame, 8);
            }
            assert_eq!(ctx().frame, 7);
        }
        assert_eq!(ctx(), TraceCtx::default());
    }

    #[test]
    fn record_uses_the_thread_ctx() {
        let sink = TraceSink::with_mode(TraceMode::Ring, 4);
        let _g = set_ctx(TraceCtx {
            actor: 42,
            frame: 9,
        });
        sink.record(
            TraceStage::Synthesize,
            Instant::now(),
            Duration::from_micros(5),
        );
        let events = sink.recent(1);
        assert_eq!(events[0].actor, 42);
        assert_eq!(events[0].frame, 9);
        assert_eq!(events[0].stage, TraceStage::Synthesize);
        assert_eq!(events[0].dur_us, 5);
    }
}
