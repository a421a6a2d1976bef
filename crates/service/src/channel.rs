//! Shared-field broadcast channels.
//!
//! The production shape of the paper's use case is many viewers watching
//! *one* evolving flow field. Per-session pipelines make that O(sessions)
//! synthesis work; a [`FieldChannel`] makes it O(fields): one advected spot
//! population and one synthesis clock per distinct `(field, config, seed)`
//! feed every subscribed session, and delivery is a fan-out of cached
//! `Arc<Vec<u8>>` frame bodies — no synthesis, no copies.
//!
//! ## Clock semantics
//!
//! A channel's clock only moves **forward**. A subscriber requesting a
//! frame at or past the channel head advances the shared clock (and the
//! channel pre-renders a small look-ahead window beyond the request, reusing
//! the frame cache's look-ahead insertion path, so the next subscriber in
//! line usually finds its frame already cached). A subscriber requesting a
//! frame *behind* the head whose bytes have fallen out of the cache is not
//! allowed to rewind the shared population — that would stall every other
//! viewer — so it **skips to the live frontier**: it is served the most
//! recently synthesized frame, the serve is flagged
//! ([`ServedFrame::skipped`]) and counted ([`ChannelTotals::skips`]). This
//! is the broadcast backpressure rule: a slow subscriber loses frames, never
//! the channel.
//!
//! Steering is a *session* operation, not a channel one: steering a
//! subscribed session forks it off the channel into a private session with
//! its own pipeline (see [`Session::steer`](crate::session::Session::steer)).
//!
//! Channels are owned by a [`ChannelRegistry`] keyed by
//! [`ChannelKey`]; sessions hold [`ChannelSubscription`] guards whose drop
//! unsubscribes, and the registry retires channels with no subscribers left
//! (accumulating their counters so `/stats` totals stay monotonic).

use crate::cache::FrameKey;
use crate::session::{advance_pipeline, build_pipeline, RenderError, ServedFrame, SharedPools};
use crate::spec::SessionSpec;
use flowfield::VectorField;
use softpipe::sync::lock_recover;
use spotnoise::metrics::StageTimings;
use spotnoise::pipeline::Pipeline;
use spotnoise::telemetry::{TraceCtx, TraceSink, TraceStage};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Queue ids for channel-driven synthesis jobs live in the upper half of the
/// u64 space, disjoint from session ids (which count up from 1), so channel
/// jobs ride the same session-fair [`FrameQueue`](crate::queue::FrameQueue)
/// rotation as private-session jobs: each channel gets one fair share, no
/// matter how many subscribers it feeds.
pub(crate) const CHANNEL_QUEUE_ID_BASE: u64 = 1 << 63;

/// The identity of a broadcast channel: everything the rendered texels
/// depend on. Two sessions created with byte-identical `(field, config,
/// seed)` specs share one channel — and one synthesis clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ChannelKey {
    /// [`FieldSpec::cache_key`](crate::spec::FieldSpec::cache_key) of the
    /// channel's field.
    pub field: u64,
    /// [`SessionSpec::config_cache_key`] of the channel's configuration.
    pub config: u64,
    /// The synthesis seed.
    pub seed: u64,
}

impl ChannelKey {
    /// The channel key a spec maps to.
    pub(crate) fn of(spec: &SessionSpec) -> ChannelKey {
        ChannelKey {
            field: spec.field.cache_key(),
            config: spec.config_cache_key(),
            seed: spec.config.seed,
        }
    }
}

/// The synthesis half of a channel: the advected spot population and its
/// pipeline. Locked only while the clock advances.
struct ChannelSynth {
    field: Box<dyn VectorField + Send + Sync>,
    pipeline: Pipeline,
}

/// One shared-field broadcast: a single advected spot population and
/// synthesis clock feeding every subscribed session.
pub(crate) struct FieldChannel {
    key: ChannelKey,
    queue_id: u64,
    spec: SessionSpec,
    /// Look-ahead window, shared with the owning registry so the pressure
    /// ladder can shut speculative synthesis off across every live channel
    /// with one store.
    lookahead: Arc<AtomicU64>,
    /// The pools the synth pipeline composes on — kept so a poisoned synth
    /// lock can rebuild the pipeline on the same warm buffers and workers.
    pools: SharedPools,
    synth: Mutex<ChannelSynth>,
    /// One past the most recently synthesized frame (mirrors
    /// `synth.pipeline.frames()` so readers never need the synth lock).
    head: AtomicU64,
    /// The most recently synthesized frame — the "live frontier" a
    /// fallen-behind subscriber skips to, held here so the skip costs one
    /// `Arc` clone even if the frame has already been evicted from the
    /// cache.
    latest: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
    subscribers: AtomicUsize,
    peak_subscribers: AtomicUsize,
    /// Frames handed to subscribers (rendered, cache-served or skipped).
    delivered: AtomicU64,
    /// Frames actually synthesized on this channel's clock.
    synthesized: AtomicU64,
    /// Serves where a fallen-behind subscriber was skipped to the frontier.
    skips: AtomicU64,
    /// Trace sink [`FieldChannel::serve`] reports its spans to (cloned from
    /// the shared pools at creation).
    trace: TraceSink,
}

impl FieldChannel {
    fn new(
        spec: SessionSpec,
        pools: &SharedPools,
        queue_id: u64,
        lookahead: Arc<AtomicU64>,
    ) -> Self {
        FieldChannel {
            key: ChannelKey::of(&spec),
            queue_id,
            lookahead,
            pools: pools.clone(),
            synth: Mutex::new(ChannelSynth {
                field: spec.field.build(),
                pipeline: build_pipeline(&spec, pools),
            }),
            head: AtomicU64::new(0),
            latest: Mutex::new(None),
            subscribers: AtomicUsize::new(0),
            peak_subscribers: AtomicUsize::new(0),
            delivered: AtomicU64::new(0),
            synthesized: AtomicU64::new(0),
            skips: AtomicU64::new(0),
            trace: pools.trace.clone(),
            spec,
        }
    }

    /// Locks the synthesis state, recovering from poison by rebuilding the
    /// field and pipeline from the spec. The rebuilt clock restarts at the
    /// seed and replays deterministically — every re-synthesized frame is
    /// bit-identical to its first rendering and lands on the same cache
    /// keys, so subscribers at worst see already-cached frames re-served
    /// while the clock catches back up.
    fn synth(&self) -> MutexGuard<'_, ChannelSynth> {
        lock_recover(&self.synth, |synth| {
            *synth = ChannelSynth {
                field: self.spec.field.build(),
                pipeline: build_pipeline(&self.spec, &self.pools),
            };
            // Keep the published head mirroring the (rebuilt) pipeline.
            self.head.store(0, Ordering::SeqCst);
        })
    }

    /// Locks the frontier slot. No revalidation needed on poison: the slot
    /// is a single `Option` that is only ever wholesale-replaced, so both
    /// states a panic can leave behind are valid.
    fn latest_slot(&self) -> MutexGuard<'_, Option<(u64, Arc<Vec<u8>>)>> {
        lock_recover(&self.latest, |_| {})
    }

    /// The most recently synthesized frame and its index — the frontier a
    /// saturated server hands to shared subscribers as a *stale* serve
    /// instead of queueing synthesis work.
    pub(crate) fn latest_frame(&self) -> Option<(u64, Arc<Vec<u8>>)> {
        self.latest_slot().clone()
    }

    /// The channel's identity key.
    pub(crate) fn key(&self) -> ChannelKey {
        self.key
    }

    /// The admission-queue id channel jobs are submitted under (disjoint
    /// from session ids; one fair share per channel).
    pub(crate) fn queue_id(&self) -> u64 {
        self.queue_id
    }

    /// One past the most recently synthesized frame.
    pub(crate) fn head(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Current subscriber count.
    pub(crate) fn subscribers(&self) -> usize {
        self.subscribers.load(Ordering::SeqCst)
    }

    /// The frame-cache key of the channel's frame `frame`.
    pub(crate) fn key_for(&self, frame: u64) -> FrameKey {
        FrameKey {
            field: self.key.field,
            config: self.key.config,
            seed: self.key.seed,
            frame,
        }
    }

    /// Records a frame served to a subscriber from the cache (the fan-out
    /// path that never reaches [`FieldChannel::serve`]).
    pub(crate) fn note_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub(crate) fn totals(&self) -> ChannelTotals {
        ChannelTotals {
            live: 1,
            created: 1,
            subscribers: self.subscribers.load(Ordering::SeqCst),
            peak_subscribers: self.peak_subscribers.load(Ordering::SeqCst),
            delivered: self.delivered.load(Ordering::Relaxed),
            synthesized: self.synthesized.load(Ordering::Relaxed),
            skips: self.skips.load(Ordering::Relaxed),
        }
    }

    /// Serves frame `index` on the shared clock. Called by a synthesis
    /// worker after a cache miss.
    ///
    /// * `index >= head`: the clock advances to `index` **plus the
    ///   look-ahead window**; every synthesized frame (look-ahead included)
    ///   is handed to `on_frame` for cache insertion, so the subscribers
    ///   behind this one fan out of the cache without touching the clock.
    /// * `index < head`: the subscriber has fallen behind a frame the cache
    ///   no longer holds. The shared clock never rewinds — the subscriber is
    ///   skipped to the live frontier (the most recent frame), flagged and
    ///   counted.
    ///
    /// The advance cap counts only the frames needed to *reach* `index`;
    /// the look-ahead window is the server's own choice and is exempt.
    pub(crate) fn serve(
        &self,
        index: u64,
        max_advances: u64,
        mut on_frame: impl FnMut(FrameKey, &Arc<Vec<u8>>, &StageTimings),
    ) -> Result<ServedFrame, RenderError> {
        let serve_start = Instant::now();
        let serve_ctx = TraceCtx {
            actor: self.queue_id,
            frame: index,
        };
        let mut synth = self.synth();
        let head = synth.pipeline.frames();
        if index < head {
            let (frame, bytes) = self
                .latest_slot()
                .clone()
                .expect("head > 0 implies a latest frame");
            self.skips.fetch_add(1, Ordering::Relaxed);
            self.delivered.fetch_add(1, Ordering::Relaxed);
            // detail = 1: the serve skipped to the live frontier.
            self.trace.record_with(
                TraceStage::ChannelServe,
                serve_ctx,
                serve_start,
                serve_start.elapsed(),
                1,
            );
            return Ok(ServedFrame {
                bytes,
                frame,
                skipped: true,
            });
        }
        let advances_after_first = index - head;
        if advances_after_first >= max_advances {
            return Err(RenderError::TooFarAhead {
                needed: advances_after_first.saturating_add(1),
                max: max_advances,
            });
        }
        let target = index.saturating_add(self.lookahead.load(Ordering::Relaxed));
        let mut requested = None;
        while synth.pipeline.frames() <= target {
            let frame_index = synth.pipeline.frames();
            let ChannelSynth { field, pipeline } = &mut *synth;
            let (bytes, timings) = advance_pipeline(pipeline, field.as_ref(), self.spec.dt);
            self.synthesized.fetch_add(1, Ordering::Relaxed);
            on_frame(self.key_for(frame_index), &bytes, &timings);
            if frame_index == index {
                requested = Some(Arc::clone(&bytes));
            }
            *self.latest_slot() = Some((frame_index, Arc::clone(&bytes)));
            self.head.store(frame_index + 1, Ordering::SeqCst);
        }
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.trace.record_with(
            TraceStage::ChannelServe,
            serve_ctx,
            serve_start,
            serve_start.elapsed(),
            0,
        );
        Ok(ServedFrame {
            bytes: requested.expect("index <= target, so the loop rendered it"),
            frame: index,
            skipped: false,
        })
    }
}

impl std::fmt::Debug for FieldChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FieldChannel")
            .field("key", &self.key)
            .field("queue_id", &self.queue_id)
            .field("head", &self.head())
            .field("subscribers", &self.subscribers())
            .finish()
    }
}

/// RAII membership of one session in a channel: dropping it unsubscribes.
/// The registry retires channels once their last subscription drops.
pub(crate) struct ChannelSubscription {
    channel: Arc<FieldChannel>,
}

impl ChannelSubscription {
    /// The subscribed channel.
    pub(crate) fn channel(&self) -> &Arc<FieldChannel> {
        &self.channel
    }
}

impl std::fmt::Debug for ChannelSubscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelSubscription")
            .field("key", &self.channel.key())
            .finish()
    }
}

impl Drop for ChannelSubscription {
    fn drop(&mut self) {
        self.channel.subscribers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Aggregated channel counters for `/stats` (live channels plus everything
/// already retired, so the totals are monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChannelTotals {
    /// Channels currently live.
    pub live: usize,
    /// Channels ever created.
    pub created: u64,
    /// Subscribers across live channels.
    pub subscribers: usize,
    /// Highest subscriber count any single channel ever reached.
    pub peak_subscribers: usize,
    /// Frames handed to subscribers (rendered, cached or skipped).
    pub delivered: u64,
    /// Frames synthesized on channel clocks.
    pub synthesized: u64,
    /// Fallen-behind serves skipped to the live frontier.
    pub skips: u64,
}

impl ChannelTotals {
    fn absorb(&mut self, other: ChannelTotals) {
        self.live += other.live;
        self.created += other.created;
        self.subscribers += other.subscribers;
        self.peak_subscribers = self.peak_subscribers.max(other.peak_subscribers);
        self.delivered += other.delivered;
        self.synthesized += other.synthesized;
        self.skips += other.skips;
    }
}

/// Owns the live channels, keyed by [`ChannelKey`].
pub(crate) struct ChannelRegistry {
    channels: HashMap<ChannelKey, Arc<FieldChannel>>,
    pools: SharedPools,
    /// Look-ahead window shared with every channel this registry created,
    /// so [`ChannelRegistry::set_lookahead`] retargets them all at once.
    lookahead: Arc<AtomicU64>,
    next_seq: u64,
    created: u64,
    /// Counters of retired channels, folded into [`ChannelRegistry::totals`].
    retired: ChannelTotals,
}

impl ChannelRegistry {
    /// Creates a registry whose channels compose on the given pools and
    /// pre-render `lookahead` frames past each served request.
    pub(crate) fn new(pools: SharedPools, lookahead: u64) -> Self {
        ChannelRegistry {
            channels: HashMap::new(),
            pools,
            lookahead: Arc::new(AtomicU64::new(lookahead)),
            next_seq: 0,
            created: 0,
            retired: ChannelTotals::default(),
        }
    }

    /// The current look-ahead window.
    pub(crate) fn lookahead(&self) -> u64 {
        self.lookahead.load(Ordering::Relaxed)
    }

    /// Retargets the look-ahead window of every channel, live and future —
    /// the pressure ladder sets it to 0 under load (no speculative
    /// synthesis) and restores it on recovery.
    pub(crate) fn set_lookahead(&self, frames: u64) {
        self.lookahead.store(frames, Ordering::Relaxed);
    }

    /// Subscribes to the channel for `spec`, creating it if no session is
    /// watching that `(field, config, seed)` yet.
    pub(crate) fn subscribe(&mut self, spec: &SessionSpec) -> ChannelSubscription {
        let key = ChannelKey::of(spec);
        let channel = match self.channels.get(&key) {
            Some(channel) => Arc::clone(channel),
            None => {
                let queue_id = CHANNEL_QUEUE_ID_BASE | self.next_seq;
                self.next_seq += 1;
                self.created += 1;
                let channel = Arc::new(FieldChannel::new(
                    *spec,
                    &self.pools,
                    queue_id,
                    Arc::clone(&self.lookahead),
                ));
                self.channels.insert(key, Arc::clone(&channel));
                channel
            }
        };
        let count = channel.subscribers.fetch_add(1, Ordering::SeqCst) + 1;
        channel.peak_subscribers.fetch_max(count, Ordering::SeqCst);
        ChannelSubscription { channel }
    }

    /// Retires channels with no subscribers left (their pipelines — the
    /// expensive part — are dropped; their counters are folded into the
    /// registry totals). Returns how many were retired.
    pub(crate) fn sweep(&mut self) -> usize {
        let victims: Vec<ChannelKey> = self
            .channels
            .iter()
            .filter(|(_, c)| c.subscribers() == 0)
            .map(|(&k, _)| k)
            .collect();
        for key in &victims {
            if let Some(channel) = self.channels.remove(key) {
                let mut t = channel.totals();
                t.live = 0;
                t.created = 0; // `created` is tracked by the registry
                self.retired.absorb(t);
            }
        }
        victims.len()
    }

    /// Aggregated counters: live channels plus retired history.
    pub(crate) fn totals(&self) -> ChannelTotals {
        let mut totals = self.retired;
        totals.created += self.created;
        for channel in self.channels.values() {
            let mut t = channel.totals();
            t.created = 0;
            totals.absorb(t);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use spotnoise::config::SynthesisConfig;

    fn quick_spec(seed: u64) -> SessionSpec {
        SessionSpec {
            config: SynthesisConfig {
                texture_size: 32,
                spot_count: 40,
                spot_texture_size: 8,
                seed,
                ..SynthesisConfig::small_test()
            },
            ..SessionSpec::default()
        }
    }

    fn registry(lookahead: u64) -> ChannelRegistry {
        ChannelRegistry::new(SharedPools::default(), lookahead)
    }

    #[test]
    fn subscribe_dedupes_on_field_config_seed() {
        let mut r = registry(0);
        let a = r.subscribe(&quick_spec(1));
        let b = r.subscribe(&quick_spec(1));
        assert!(Arc::ptr_eq(a.channel(), b.channel()));
        assert_eq!(a.channel().subscribers(), 2);
        let c = r.subscribe(&quick_spec(2));
        assert!(!Arc::ptr_eq(a.channel(), c.channel()));
        assert_ne!(a.channel().queue_id(), c.channel().queue_id());
        assert!(a.channel().queue_id() >= CHANNEL_QUEUE_ID_BASE);
        assert_eq!(r.len(), 2);
        let t = r.totals();
        assert_eq!((t.live, t.created, t.subscribers), (2, 2, 3));
        assert_eq!(t.peak_subscribers, 2);
    }

    #[test]
    fn serve_renders_lookahead_and_advances_the_head() {
        let mut r = registry(2);
        let sub = r.subscribe(&quick_spec(1));
        let mut seen = Vec::new();
        let served = sub
            .channel()
            .serve(0, 16, |key, bytes, _| {
                assert_eq!(bytes.len(), 32 * 32 * 4);
                seen.push(key.frame);
            })
            .unwrap();
        assert_eq!(served.frame, 0);
        assert!(!served.skipped);
        // Frame 0 plus the 2-frame look-ahead window.
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(sub.channel().head(), 3);
        // Serving inside the already-rendered window is a *skip* at the
        // channel level (the cache, not the clock, owns those frames).
        let skipped = sub.channel().serve(1, 16, |_, _, _| {}).unwrap();
        assert!(skipped.skipped);
        assert_eq!(skipped.frame, 2, "skips land on the live frontier");
        let t = sub.channel().totals();
        assert_eq!((t.synthesized, t.delivered, t.skips), (3, 2, 1));
    }

    #[test]
    fn channel_frames_are_bit_identical_to_a_private_session() {
        // The broadcast clock must reproduce exactly what a per-session
        // pipeline renders: same spec, same frame index, same bytes.
        let mut private = Session::new(quick_spec(7));
        let mut private_frames = Vec::new();
        private
            .render_frame(3, 16, |key, bytes, _| {
                private_frames.push((key, Arc::clone(bytes)));
            })
            .unwrap();

        let mut r = registry(0);
        let sub = r.subscribe(&quick_spec(7));
        let mut channel_frames = Vec::new();
        sub.channel()
            .serve(3, 16, |key, bytes, _| {
                channel_frames.push((key, Arc::clone(bytes)));
            })
            .unwrap();

        assert_eq!(private_frames.len(), 4);
        assert_eq!(channel_frames.len(), 4);
        for ((pk, pb), (ck, cb)) in private_frames.iter().zip(&channel_frames) {
            assert_eq!(pk, ck, "cache keys agree across modes");
            assert_eq!(pb, cb, "frame bytes agree across modes");
        }
    }

    #[test]
    fn advance_cap_applies_to_the_request_not_the_lookahead() {
        let mut r = registry(4);
        let sub = r.subscribe(&quick_spec(1));
        let err = sub.channel().serve(16, 16, |_, _, _| {}).unwrap_err();
        assert_eq!(
            err,
            RenderError::TooFarAhead {
                needed: 17,
                max: 16
            }
        );
        // Exactly at the cap is allowed — and the look-ahead beyond it is
        // the server's own business.
        let served = sub.channel().serve(15, 16, |_, _, _| {}).unwrap();
        assert_eq!(served.frame, 15);
        assert_eq!(sub.channel().head(), 20);
    }

    #[test]
    fn lookahead_retargets_every_live_channel() {
        let mut r = registry(3);
        let sub = r.subscribe(&quick_spec(1));
        assert_eq!(r.lookahead(), 3);
        // Pressure ladder shuts speculation off: the next serve renders
        // only the requested frame.
        r.set_lookahead(0);
        sub.channel().serve(0, 16, |_, _, _| {}).unwrap();
        assert_eq!(sub.channel().head(), 1, "no speculative frames rendered");
        // Recovery restores the window.
        r.set_lookahead(3);
        sub.channel().serve(1, 16, |_, _, _| {}).unwrap();
        assert_eq!(sub.channel().head(), 5);
    }

    #[test]
    fn latest_frame_exposes_the_frontier_for_stale_serves() {
        let mut r = registry(0);
        let sub = r.subscribe(&quick_spec(1));
        assert!(sub.channel().latest_frame().is_none());
        let served = sub.channel().serve(2, 16, |_, _, _| {}).unwrap();
        let (frame, bytes) = sub.channel().latest_frame().unwrap();
        assert_eq!(frame, 2);
        assert_eq!(bytes, served.bytes);
    }

    #[test]
    fn poisoned_synth_rebuilds_and_replays_bit_identically() {
        let mut r = registry(0);
        let sub = r.subscribe(&quick_spec(5));
        let before = sub.channel().serve(1, 16, |_, _, _| {}).unwrap();
        // Poison the synth lock the way a panicking render would.
        let channel = Arc::clone(sub.channel());
        let _ = std::thread::spawn(move || {
            let _guard = channel.synth.lock().unwrap();
            panic!("poison the channel synth");
        })
        .join();
        assert!(sub.channel().synth.lock().is_err(), "lock starts poisoned");
        // The next serve recovers: the clock restarts at the seed and
        // replays, so the same frame index yields the same bytes.
        let after = sub.channel().serve(1, 16, |_, _, _| {}).unwrap();
        assert_eq!(before.bytes, after.bytes, "replay must be bit-identical");
        assert!(!after.skipped);
        assert_eq!(sub.channel().head(), 2);
    }

    #[test]
    fn sweep_retires_unsubscribed_channels_and_keeps_totals() {
        let mut r = registry(1);
        let a = r.subscribe(&quick_spec(1));
        let b = r.subscribe(&quick_spec(2));
        a.channel().serve(0, 16, |_, _, _| {}).unwrap();
        assert_eq!(r.sweep(), 0, "subscribed channels are kept");
        drop(a);
        assert_eq!(r.sweep(), 1);
        assert_eq!(r.len(), 1);
        let t = r.totals();
        // The retired channel's synthesis (frame 0 + 1 look-ahead) stays in
        // the totals; `created` counts both channels.
        assert_eq!(t.synthesized, 2);
        assert_eq!((t.live, t.created), (1, 2));
        drop(b);
        assert_eq!(r.sweep(), 1);
        assert!(r.is_empty());
        assert_eq!(r.totals().created, 2);
    }

    impl ChannelRegistry {
        /// Number of live channels.
        fn len(&self) -> usize {
            self.channels.len()
        }

        /// True when no channel is live.
        fn is_empty(&self) -> bool {
            self.channels.is_empty()
        }
    }
}
