//! Sessions and the session registry.
//!
//! A [`Session`] is one client's running visualization: a
//! [`Pipeline`] driving the scheduler engine
//! over the session's field, advanced frame by frame with a fixed time step.
//! Frames are deterministic: frame `i` is the texture produced by the
//! `(i+1)`-th pipeline advance after the session's (re)start, so any frame
//! can be re-derived from `(field, config, index)` alone — rewinding simply
//! rebuilds the pipeline from the seed and replays. Steering rebinds the
//! session to a new field and restarts its animation clock, which keeps the
//! frame-cache key sound (and makes steering *back* a pure cache hit).
//!
//! The [`SessionRegistry`] owns the sessions, hands out keyed ids, enforces
//! a session cap and evicts sessions that have been idle too long.
//!
//! A session's *frames* need not come from a pipeline it owns: a session
//! created in shared mode subscribes to a [`FieldChannel`] instead (its
//! `Backing` is the subscription, not a pipeline), and its frames come off the
//! channel's shared synthesis clock — usually straight out of the frame
//! cache. Steering a shared session forks it back into a private one.

use crate::cache::FrameKey;
use crate::channel::{ChannelSubscription, FieldChannel};
use crate::spec::{service_domain, FieldSpec, SessionSpec};
use flowfield::VectorField;
use softpipe::machine::MachineConfig;
use softpipe::{FrameArena, PipePool};
use spotnoise::config::SamplingMode;
use spotnoise::metrics::StageTimings;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use spotnoise::telemetry::{self, TraceCtx, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Service-wide buffer and worker pools attached to every session's
/// pipeline. Sharing one arena and one pipe pool across sessions keeps the
/// steady state zero-alloc and zero-spawn even as sessions come and go —
/// both pools are size-keyed, so sessions with different frame sizes never
/// exchange buffers or pipes. A `None` arena leaves the pipeline's own
/// per-session arena in place.
#[derive(Debug, Clone)]
pub struct SharedPools {
    /// Frame-buffer arena shared by all sessions.
    pub arena: Option<Arc<FrameArena>>,
    /// Persistent pipe-worker pool shared by all sessions.
    pub pipes: Arc<PipePool>,
    /// Trace sink every attached pipeline reports its stage spans to (the
    /// default disabled sink records nothing).
    pub trace: TraceSink,
}

/// No shared arena (every pipeline keeps its own) and a fresh pipe pool.
impl Default for SharedPools {
    fn default() -> Self {
        SharedPools {
            arena: None,
            pipes: Arc::new(PipePool::new(None)),
            trace: TraceSink::default(),
        }
    }
}

/// Why a frame could not be rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenderError {
    /// The request would advance the session further than the per-request
    /// cap allows (admission control against unbounded synthesis bursts).
    TooFarAhead {
        /// Advances the request would need.
        needed: u64,
        /// The configured cap.
        max: u64,
    },
}

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderError::TooFarAhead { needed, max } => write!(
                f,
                "frame needs {needed} synthesis steps, above the per-request cap of {max}"
            ),
        }
    }
}

/// A frame served by a session or a channel: the payload plus how it was
/// produced.
#[derive(Debug, Clone)]
pub struct ServedFrame {
    /// Little-endian `f32` texels, row-major from the bottom row.
    pub bytes: Arc<Vec<u8>>,
    /// The frame index actually served. Equals the requested index except
    /// when a fallen-behind shared subscriber was skipped to the live
    /// frontier.
    pub frame: u64,
    /// True when the serve skipped a fallen-behind subscriber forward to
    /// the channel's live frontier instead of rewinding the shared clock.
    pub skipped: bool,
}

/// A private session's own synthesis state. Boxed inside [`Backing`]: a
/// pipeline is hundreds of bytes, and a shared session should not carry
/// that as dead weight in its enum footprint.
struct PrivateBacking {
    field: Box<dyn VectorField + Send + Sync>,
    pipeline: Pipeline,
}

/// How a session's frames are produced.
enum Backing {
    /// The session owns its field and pipeline (the classic per-session
    /// mode; every synthesis step is this session's own cost).
    Private(Box<PrivateBacking>),
    /// The session subscribes to a shared [`FieldChannel`]: it owns no
    /// pipeline, and its frames come off the channel's shared clock.
    Shared(ChannelSubscription),
}

/// One client's running visualization.
pub struct Session {
    spec: SessionSpec,
    backing: Backing,
    /// The shared pools the pipeline is (re)attached to — kept so steer and
    /// rewind rebuilds stay on the shared buffers and warm pipe workers.
    shared: SharedPools,
    /// Frame jobs admitted for this session but not yet finished by a
    /// worker. Idle eviction skips sessions with in-flight work: the
    /// session lock alone only covers *running* synthesis, while this
    /// covers the queued-but-not-yet-popped window too.
    in_flight: Arc<AtomicUsize>,
    field_key: u64,
    config_key: u64,
    last_touch: Instant,
    /// Total synthesis steps performed over the session's lifetime
    /// (monotonic across steers and rewinds).
    frames_rendered: u64,
    /// Times the pipeline was rebuilt to serve an earlier frame index.
    rewinds: u64,
    /// Times the session was steered to a (possibly new) field.
    steers: u64,
    /// One past the most recently *served* frame (cache hits included) —
    /// the index `advance` continues from. Kept separate from the
    /// pipeline's head because a cached serve never moves the pipeline.
    next_advance: u64,
    /// Set when a render for this session panicked: the session's pipeline
    /// state can no longer be trusted, every further frame request is
    /// refused, and the registry reaps it as soon as its in-flight work
    /// drains.
    quarantined: bool,
    /// Set while the pressure ladder has this session switched from exact
    /// to footprint sampling. Tracks only *service-imposed* degradation: a
    /// session that asked for footprint natively is not "degraded".
    degraded: bool,
}

/// Builds the synthesis pipeline for a spec on the given pools — the one
/// construction path for private sessions *and* broadcast channels, which is
/// what makes a channel's frames structurally bit-identical to a private
/// session's.
pub(crate) fn build_pipeline(spec: &SessionSpec, shared: &SharedPools) -> Pipeline {
    let machine = MachineConfig::new(spec.processors, spec.pipes);
    let mut pipeline = Pipeline::new(
        spec.config,
        ExecutionMode::DivideAndConquer(machine),
        service_domain(),
    );
    // The service serves the raw synthesis texture; skip the display-only
    // high-pass filter work — and the display texture entirely, which saves
    // a framebuffer-sized allocation + pass per frame.
    pipeline.set_postprocess(false);
    pipeline.set_display_enabled(false);
    // Attach the service-wide pools (arena first: replacing the arena
    // rebuilds the pipeline's own pipe pool, which the shared pool then
    // replaces). A session rebuilt after a steer or rewind lands back on
    // the same warm buffers and workers.
    if let Some(arena) = &shared.arena {
        pipeline.set_frame_arena(Some(Arc::clone(arena)));
    }
    pipeline.set_pipe_pool(Arc::clone(&shared.pipes));
    pipeline.set_trace_sink(shared.trace.clone());
    pipeline
}

/// One synthesis step: advances the pipeline over `field` by `dt`,
/// serializes the texture into the wire format, and recycles the frame
/// buffer back into the pipeline's arena (the last link of the steady-state
/// zero-allocation loop). Shared between private-session renders and
/// channel serves so both modes produce byte-identical frames by
/// construction.
pub(crate) fn advance_pipeline(
    pipeline: &mut Pipeline,
    field: &dyn VectorField,
    dt: f64,
) -> (Arc<Vec<u8>>, StageTimings) {
    // Stamp the frame index onto the thread's trace context (keeping the
    // worker's actor id) so every span this advance emits carries it.
    let _trace_ctx = telemetry::set_ctx(TraceCtx {
        actor: telemetry::ctx().actor,
        frame: pipeline.frames(),
    });
    let out = pipeline.advance(field, dt, 0);
    let bytes = Arc::new(texture_bytes(&out.texture));
    let timings = out.metrics.timings;
    if let Some(arena) = pipeline.frame_arena() {
        arena.recycle_texture(out.texture);
    }
    (bytes, timings)
}

/// Serializes a texture as little-endian `f32` bytes, row-major from the
/// bottom row — the frame-fetch wire format.
pub fn texture_bytes(texture: &softpipe::Texture) -> Vec<u8> {
    let mut out = Vec::with_capacity(texture.data().len() * 4);
    for v in texture.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// RAII marker for one admitted-but-unfinished frame job: holds the
/// session's in-flight count up until the worker has finished (or the job
/// was shed/dropped), which is what keeps idle eviction away from sessions
/// with queued work.
pub struct InFlightGuard(Arc<AtomicUsize>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Session {
    /// Creates a session from a validated spec, with per-session default
    /// pools.
    pub fn new(spec: SessionSpec) -> Self {
        Session::with_pools(spec, SharedPools::default())
    }

    /// Creates a session whose pipeline composes on the given shared pools.
    pub fn with_pools(spec: SessionSpec, shared: SharedPools) -> Self {
        let backing = Backing::Private(Box::new(PrivateBacking {
            field: spec.field.build(),
            pipeline: build_pipeline(&spec, &shared),
        }));
        Session::with_backing(spec, shared, backing)
    }

    /// Creates a session backed by a shared-channel subscription: the
    /// session owns no pipeline, its frames come off the channel's clock.
    pub fn subscribed(
        spec: SessionSpec,
        shared: SharedPools,
        subscription: ChannelSubscription,
    ) -> Self {
        Session::with_backing(spec, shared, Backing::Shared(subscription))
    }

    fn with_backing(spec: SessionSpec, shared: SharedPools, backing: Backing) -> Self {
        Session {
            backing,
            shared,
            in_flight: Arc::new(AtomicUsize::new(0)),
            field_key: spec.field.cache_key(),
            config_key: spec.config_cache_key(),
            last_touch: Instant::now(),
            frames_rendered: 0,
            rewinds: 0,
            steers: 0,
            next_advance: 0,
            quarantined: false,
            degraded: false,
            spec,
        }
    }

    /// The channel a shared session subscribes to (`None` for private
    /// sessions).
    pub fn channel(&self) -> Option<&Arc<FieldChannel>> {
        match &self.backing {
            Backing::Shared(sub) => Some(sub.channel()),
            Backing::Private(_) => None,
        }
    }

    /// True when the session's frames come off a shared channel.
    pub fn is_shared(&self) -> bool {
        matches!(self.backing, Backing::Shared(_))
    }

    /// Marks one frame job as admitted for this session; the returned guard
    /// releases the mark when dropped. Take it *before* submitting to the
    /// admission queue and keep it alive through synthesis, so eviction can
    /// never reap the session between queue pop and render.
    pub fn begin_job(&self) -> InFlightGuard {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        InFlightGuard(Arc::clone(&self.in_flight))
    }

    /// Number of admitted-but-unfinished frame jobs.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The frame-cache key of frame `frame` in the session's current
    /// (field, config) binding.
    pub fn key_for(&self, frame: u64) -> FrameKey {
        FrameKey {
            field: self.field_key,
            config: self.config_key,
            seed: self.spec.config.seed,
            frame,
        }
    }

    /// The index the next natural advance would render (for shared
    /// sessions: the channel's live frontier).
    pub fn head_frame(&self) -> u64 {
        match &self.backing {
            Backing::Private(private) => private.pipeline.frames(),
            Backing::Shared(sub) => sub.channel().head(),
        }
    }

    /// The frame index `advance` serves next: one past the most recently
    /// served frame, whether that serve rendered or hit the cache.
    pub fn next_advance(&self) -> u64 {
        self.next_advance
    }

    /// Records that `frame` was served to a client (rendered *or* cached),
    /// moving the advance cursor past it. A cached serve never touches the
    /// pipeline, so without this bookkeeping a rewound session's `advance`
    /// would hit the cache at the same index forever instead of
    /// progressing.
    pub fn note_served(&mut self, frame: u64) {
        self.next_advance = frame.saturating_add(1);
    }

    /// Total synthesis steps performed for this session.
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered
    }

    /// Times the pipeline was rebuilt to serve an earlier frame.
    pub fn rewinds(&self) -> u64 {
        self.rewinds
    }

    /// Times the session was steered.
    pub fn steers(&self) -> u64 {
        self.steers
    }

    /// True when a panicked render has poisoned this session.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Quarantines the session after a panicked render: its pipeline state
    /// can no longer be trusted, so every further frame request is refused
    /// and the registry reaps it once its in-flight work drains. Returns
    /// `true` on the transition only, so callers can count quarantined
    /// sessions without double-counting repeated panics.
    pub fn quarantine(&mut self) -> bool {
        let first = !self.quarantined;
        self.quarantined = true;
        first
    }

    /// True while the pressure ladder has this session switched to
    /// footprint sampling.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Switches an exact-sampling private session to footprint sampling —
    /// the pressure ladder's quality dial. Returns `true` when the switch
    /// happened; pinned, shared, already-degraded and natively-footprint
    /// sessions are left alone. Advection is sampling-independent, so the
    /// flip applies to the live pipeline without a rebuild and every frame
    /// from here on is bit-identical to a natively-footprint session's —
    /// which is what keeps the recomputed cache key sound.
    pub fn degrade(&mut self) -> bool {
        if self.degraded || self.spec.pinned || self.spec.config.sampling != SamplingMode::Exact {
            return false;
        }
        let Backing::Private(private) = &mut self.backing else {
            return false;
        };
        self.spec.config.sampling = SamplingMode::Footprint;
        private.pipeline.set_sampling(SamplingMode::Footprint);
        self.config_key = self.spec.config_cache_key();
        self.degraded = true;
        true
    }

    /// Undoes [`Session::degrade`] once pressure recovers; returns `true`
    /// when the session was switched back to exact sampling.
    pub fn restore(&mut self) -> bool {
        if !self.degraded {
            return false;
        }
        self.spec.config.sampling = SamplingMode::Exact;
        if let Backing::Private(private) = &mut self.backing {
            private.pipeline.set_sampling(SamplingMode::Exact);
        }
        self.config_key = self.spec.config_cache_key();
        self.degraded = false;
        true
    }

    /// Marks the session as used now (for idle eviction).
    pub fn touch(&mut self) {
        self.last_touch = Instant::now();
    }

    /// How long the session has been idle.
    pub fn idle_for(&self) -> Duration {
        self.last_touch.elapsed()
    }

    /// Steers the session: rebinds it to `field` and restarts the animation
    /// clock from the seed. Frames rendered under the previous binding stay
    /// in the cache under their own keys, so steering back re-serves them
    /// without synthesis.
    ///
    /// Steering a *shared* session forks it off its channel into a private
    /// one: the broadcast keeps running unperturbed for the other
    /// subscribers (a shared clock can't be steered by one viewer), and the
    /// steering session gets its own pipeline from here on.
    pub fn steer(&mut self, field: FieldSpec) {
        self.spec.field = field;
        self.spec.shared = false;
        self.field_key = field.cache_key();
        // Replacing the backing drops a shared session's subscription —
        // the channel-registry sweep retires the channel once the last
        // subscriber is gone.
        self.backing = Backing::Private(Box::new(PrivateBacking {
            field: field.build(),
            pipeline: build_pipeline(&self.spec, &self.shared),
        }));
        self.steers += 1;
        self.next_advance = 0;
        self.touch();
    }

    /// Renders frame `index`, replaying from the seed when the session is
    /// already past it. Every frame synthesized on the way (the requested
    /// one included) is handed to `on_frame` with its cache key and stage
    /// timings, so look-ahead work is never wasted.
    ///
    /// A *shared* session delegates to its channel's clock instead: the
    /// channel never rewinds, so a request behind the frontier that missed
    /// the cache is skipped forward to the live frontier
    /// ([`ServedFrame::skipped`]).
    pub fn render_frame(
        &mut self,
        index: u64,
        max_advances: u64,
        mut on_frame: impl FnMut(FrameKey, &Arc<Vec<u8>>, &StageTimings),
    ) -> Result<ServedFrame, RenderError> {
        self.touch();
        let (field_key, config_key, seed) =
            (self.field_key, self.config_key, self.spec.config.seed);
        match &mut self.backing {
            Backing::Shared(sub) => sub.channel().serve(index, max_advances, on_frame),
            Backing::Private(private) => {
                let PrivateBacking { field, pipeline } = &mut **private;
                if index < pipeline.frames() {
                    // The session is past the requested frame: replay from
                    // the seed.
                    *pipeline = build_pipeline(&self.spec, &self.shared);
                    self.rewinds += 1;
                }
                // The rewind above guarantees frames() <= index, so this
                // subtraction cannot wrap; comparing the off-by-one form
                // (`needed - 1 >= max`) keeps `index == u64::MAX` from
                // overflowing `needed` itself and sneaking past the cap into
                // an effectively unbounded render loop.
                let advances_after_first = index - pipeline.frames();
                if advances_after_first >= max_advances {
                    return Err(RenderError::TooFarAhead {
                        needed: advances_after_first.saturating_add(1),
                        max: max_advances,
                    });
                }
                let mut last = None;
                while pipeline.frames() <= index {
                    let frame_index = pipeline.frames();
                    let (bytes, timings) = advance_pipeline(pipeline, field.as_ref(), self.spec.dt);
                    self.frames_rendered += 1;
                    let key = FrameKey {
                        field: field_key,
                        config: config_key,
                        seed,
                        frame: frame_index,
                    };
                    on_frame(key, &bytes, &timings);
                    last = Some(bytes);
                }
                Ok(ServedFrame {
                    bytes: last.expect("loop ran at least once"),
                    frame: index,
                    skipped: false,
                })
            }
        }
    }
}

/// Counter snapshot of the registry for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Sessions currently live.
    pub live: usize,
    /// Sessions ever created.
    pub created: u64,
    /// Sessions removed by idle eviction.
    pub evicted: u64,
    /// Sessions closed by clients.
    pub closed: u64,
}

/// Why a session could not be created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// The registry is at its session cap.
    TooManySessions,
}

/// Owns the sessions, keyed by opaque ids of the form `s-<n>`.
pub struct SessionRegistry {
    sessions: HashMap<u64, Arc<Mutex<Session>>>,
    next_id: u64,
    max_sessions: usize,
    idle_timeout: Duration,
    /// Pools attached to every created session's pipeline.
    shared: SharedPools,
    created: u64,
    evicted: u64,
    closed: u64,
}

/// Formats a session id the way it appears in URLs.
pub fn format_session_id(id: u64) -> String {
    format!("s-{id}")
}

/// Parses a session id from its URL form.
pub fn parse_session_id(text: &str) -> Option<u64> {
    text.strip_prefix("s-")?.parse().ok()
}

impl SessionRegistry {
    /// Creates a registry enforcing the given cap and idle timeout, with
    /// per-session default pools.
    pub fn new(max_sessions: usize, idle_timeout: Duration) -> Self {
        SessionRegistry::with_pools(max_sessions, idle_timeout, SharedPools::default())
    }

    /// Like [`SessionRegistry::new`], attaching the given shared pools to
    /// every session it creates.
    pub fn with_pools(max_sessions: usize, idle_timeout: Duration, shared: SharedPools) -> Self {
        SessionRegistry {
            sessions: HashMap::new(),
            next_id: 1,
            max_sessions,
            idle_timeout,
            shared,
            created: 0,
            evicted: 0,
            closed: 0,
        }
    }

    /// Creates a private session, returning its id and handle.
    pub fn create(
        &mut self,
        spec: SessionSpec,
    ) -> Result<(u64, Arc<Mutex<Session>>), RegistryError> {
        if self.sessions.len() >= self.max_sessions {
            return Err(RegistryError::TooManySessions);
        }
        self.insert(Session::with_pools(spec, self.shared.clone()))
    }

    /// Creates a session subscribed to a shared channel. On a cap rejection
    /// the subscription is dropped (its `Drop` unsubscribes), so a shed
    /// create never leaks a channel membership.
    pub fn create_shared(
        &mut self,
        spec: SessionSpec,
        subscription: ChannelSubscription,
    ) -> Result<(u64, Arc<Mutex<Session>>), RegistryError> {
        if self.sessions.len() >= self.max_sessions {
            return Err(RegistryError::TooManySessions);
        }
        self.insert(Session::subscribed(spec, self.shared.clone(), subscription))
    }

    fn insert(&mut self, session: Session) -> Result<(u64, Arc<Mutex<Session>>), RegistryError> {
        let id = self.next_id;
        self.next_id += 1;
        let session = Arc::new(Mutex::new(session));
        self.sessions.insert(id, Arc::clone(&session));
        self.created += 1;
        Ok((id, session))
    }

    /// Looks up a session.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.sessions.get(&id).map(Arc::clone)
    }

    /// Closes a session; returns whether it existed.
    pub fn close(&mut self, id: u64) -> bool {
        let existed = self.sessions.remove(&id).is_some();
        if existed {
            self.closed += 1;
        }
        existed
    }

    /// Removes sessions idle for longer than the timeout. A session whose
    /// lock is currently held is in use by definition and is skipped — and
    /// so is a session with admitted-but-unfinished frame jobs
    /// ([`Session::in_flight`]): a queued job holds no lock yet, but
    /// evicting its session between queue pop and synthesis would turn an
    /// admitted request into a spurious `404`.
    ///
    /// Quarantined sessions are reaped as soon as their in-flight work has
    /// drained, idle or not — they can never serve another frame, so
    /// keeping them alive for the timeout would only pin dead pipelines.
    pub fn evict_idle(&mut self) -> usize {
        let timeout = self.idle_timeout;
        let victims: Vec<u64> = self
            .sessions
            .iter()
            .filter_map(|(&id, session)| match session.try_lock() {
                Ok(s) if s.in_flight() == 0 && (s.is_quarantined() || s.idle_for() > timeout) => {
                    Some(id)
                }
                _ => None,
            })
            .collect();
        for id in &victims {
            self.sessions.remove(id);
        }
        self.evicted += victims.len() as u64;
        victims.len()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            live: self.sessions.len(),
            created: self.created,
            evicted: self.evicted,
            closed: self.closed,
        }
    }

    /// Ids of all live sessions (for `/stats`).
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotnoise::config::SynthesisConfig;

    fn quick_spec() -> SessionSpec {
        SessionSpec {
            config: SynthesisConfig {
                texture_size: 32,
                spot_count: 40,
                spot_texture_size: 8,
                ..SynthesisConfig::small_test()
            },
            ..SessionSpec::default()
        }
    }

    #[test]
    fn frames_are_deterministic_and_rewind_replays_identically() {
        let mut a = Session::new(quick_spec());
        let mut b = Session::new(quick_spec());
        let f0a = a.render_frame(0, 16, |_, _, _| {}).unwrap();
        let f1a = a.render_frame(1, 16, |_, _, _| {}).unwrap();
        let f1b = b.render_frame(1, 16, |_, _, _| {}).unwrap();
        assert_eq!(f1a.bytes, f1b.bytes, "same spec, same frame, same bytes");
        assert_eq!((f1a.frame, f1a.skipped), (1, false));
        // Rewind: ask a for frame 0 again — replayed from the seed.
        let f0a2 = a.render_frame(0, 16, |_, _, _| {}).unwrap();
        assert_eq!(f0a.bytes, f0a2.bytes);
        assert_eq!(a.rewinds(), 1);
        assert!(f0a.bytes != f1a.bytes, "successive frames differ");
    }

    #[test]
    fn render_reports_every_intermediate_frame() {
        let mut s = Session::new(quick_spec());
        let mut seen = Vec::new();
        s.render_frame(2, 16, |key, bytes, timings| {
            assert_eq!(bytes.len(), 32 * 32 * 4);
            assert!(timings.synthesize_us > 0);
            seen.push(key.frame);
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(s.frames_rendered(), 3);
        assert_eq!(s.head_frame(), 3);
    }

    #[test]
    fn advance_cap_is_enforced() {
        let mut s = Session::new(quick_spec());
        let err = s.render_frame(99, 16, |_, _, _| {}).unwrap_err();
        assert_eq!(
            err,
            RenderError::TooFarAhead {
                needed: 100,
                max: 16
            }
        );
        // Nothing was rendered.
        assert_eq!(s.frames_rendered(), 0);
        // The boundary itself is allowed: exactly max advances.
        assert!(s.render_frame(15, 16, |_, _, _| {}).is_ok());
        // u64::MAX must hit the cap cleanly instead of wrapping past it
        // (debug builds would panic on the overflow, release builds would
        // loop ~2^64 synthesis steps).
        let err = s.render_frame(u64::MAX, 16, |_, _, _| {}).unwrap_err();
        assert!(matches!(err, RenderError::TooFarAhead { max: 16, .. }));
    }

    #[test]
    fn advance_cursor_tracks_served_frames_and_resets_on_steer() {
        let mut s = Session::new(quick_spec());
        assert_eq!(s.next_advance(), 0);
        s.note_served(0);
        assert_eq!(s.next_advance(), 1);
        // A rewound serve moves the cursor back too: advance continues
        // right after whatever the client last saw.
        s.note_served(4);
        s.note_served(0);
        assert_eq!(s.next_advance(), 1);
        s.note_served(u64::MAX);
        assert_eq!(s.next_advance(), u64::MAX);
        s.steer(FieldSpec::Shear { rate: 1.0 });
        assert_eq!(s.next_advance(), 0);
    }

    #[test]
    fn steering_restarts_the_clock_and_changes_keys() {
        let mut s = Session::new(quick_spec());
        let original = s.key_for(0);
        let f0 = s.render_frame(0, 16, |_, _, _| {}).unwrap();
        s.steer(FieldSpec::Shear { rate: 2.0 });
        assert_eq!(s.head_frame(), 0, "steer restarts the animation clock");
        let steered_key = s.key_for(0);
        assert_ne!(original, steered_key);
        let f0_steered = s.render_frame(0, 16, |_, _, _| {}).unwrap();
        assert!(
            f0.bytes != f0_steered.bytes,
            "different field, different frame"
        );
        // Steering back restores the original key (the cache-hit scenario).
        s.steer(SessionSpec::default().field);
        assert_eq!(s.key_for(0), original);
        let f0_back = s.render_frame(0, 16, |_, _, _| {}).unwrap();
        assert_eq!(f0.bytes, f0_back.bytes);
        assert_eq!(s.steers(), 2);
    }

    #[test]
    fn registry_creates_caps_and_closes() {
        let mut r = SessionRegistry::new(2, Duration::from_secs(300));
        let (a, _) = r.create(quick_spec()).unwrap();
        let (b, _) = r.create(quick_spec()).unwrap();
        assert_ne!(a, b);
        assert!(matches!(
            r.create(quick_spec()),
            Err(RegistryError::TooManySessions)
        ));
        assert!(r.get(a).is_some());
        assert!(r.close(a));
        assert!(!r.close(a));
        assert!(r.get(a).is_none());
        let stats = r.stats();
        assert_eq!((stats.live, stats.created, stats.closed), (1, 2, 1));
    }

    #[test]
    fn idle_sessions_are_evicted_busy_ones_spared() {
        let mut r = SessionRegistry::new(8, Duration::from_millis(10));
        let (idle, _) = r.create(quick_spec()).unwrap();
        let (busy, busy_handle) = r.create(quick_spec()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // The busy session's lock is held (a worker is rendering).
        let guard = busy_handle.lock().unwrap();
        assert_eq!(r.evict_idle(), 1);
        drop(guard);
        assert!(r.get(idle).is_none());
        assert!(r.get(busy).is_some());
        assert_eq!(r.stats().evicted, 1);
        // Touched sessions are not idle.
        busy_handle.lock().unwrap().touch();
        assert_eq!(r.evict_idle(), 0);
    }

    #[test]
    fn queued_work_blocks_eviction_until_the_guard_drops() {
        let mut r = SessionRegistry::new(8, Duration::from_millis(5));
        let (id, handle) = r.create(quick_spec()).unwrap();
        // A job is admitted but no worker has popped it yet: the session
        // lock is free, only the in-flight guard marks the pending work.
        let guard = handle.lock().unwrap().begin_job();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(r.evict_idle(), 0, "evicted a session with queued work");
        assert!(r.get(id).is_some());
        // Overlapping jobs: the session stays protected until the last one
        // finishes.
        let second = handle.lock().unwrap().begin_job();
        drop(guard);
        assert_eq!(r.evict_idle(), 0);
        drop(second);
        assert_eq!(r.evict_idle(), 1);
        assert!(r.get(id).is_none());
    }

    #[test]
    fn degrade_matches_a_native_footprint_session_and_restores() {
        let mut degraded = Session::new(quick_spec());
        let f0_exact = degraded.render_frame(0, 16, |_, _, _| {}).unwrap();
        assert!(degraded.degrade(), "exact private session must degrade");
        assert!(degraded.is_degraded());
        assert!(!degraded.degrade(), "second degrade is a no-op");
        let f1 = degraded.render_frame(1, 16, |_, _, _| {}).unwrap();

        // A session that asked for footprint from the start.
        let mut native_spec = quick_spec();
        native_spec.config.sampling = SamplingMode::Footprint;
        let mut native = Session::new(native_spec);
        native.render_frame(0, 16, |_, _, _| {}).unwrap();
        let f1_native = native.render_frame(1, 16, |_, _, _| {}).unwrap();
        assert_eq!(
            f1.bytes, f1_native.bytes,
            "degraded mid-stream differs from a native footprint session"
        );
        // And the degraded session's cache key now matches the native one.
        assert_eq!(degraded.key_for(1), native.key_for(1));

        assert!(degraded.restore());
        assert!(!degraded.restore(), "second restore is a no-op");
        let f2 = degraded.render_frame(2, 16, |_, _, _| {}).unwrap();
        let mut exact = Session::new(quick_spec());
        let f0_check = exact.render_frame(0, 16, |_, _, _| {}).unwrap();
        exact.render_frame(1, 16, |_, _, _| {}).unwrap();
        let f2_exact = exact.render_frame(2, 16, |_, _, _| {}).unwrap();
        assert_eq!(f0_exact.bytes, f0_check.bytes);
        assert_eq!(
            f2.bytes, f2_exact.bytes,
            "restored session differs from an always-exact session"
        );
        // A natively-footprint session never counts as degraded.
        assert!(!native.degrade());
        assert!(!native.is_degraded());
    }

    #[test]
    fn pinned_sessions_refuse_degradation() {
        let mut spec = quick_spec();
        spec.pinned = true;
        let mut s = Session::new(spec);
        assert!(!s.degrade());
        assert!(!s.is_degraded());
    }

    #[test]
    fn quarantined_sessions_are_reaped_once_work_drains() {
        let mut r = SessionRegistry::new(8, Duration::from_secs(300));
        let (id, handle) = r.create(quick_spec()).unwrap();
        let guard = handle.lock().unwrap().begin_job();
        assert!(handle.lock().unwrap().quarantine(), "first quarantine");
        assert!(
            !handle.lock().unwrap().quarantine(),
            "repeat quarantine is not a transition"
        );
        // In-flight work still pins the session (a worker may hold its
        // frame job).
        assert_eq!(r.evict_idle(), 0);
        drop(guard);
        // Freshly touched, nowhere near the idle timeout — reaped anyway.
        handle.lock().unwrap().touch();
        assert_eq!(r.evict_idle(), 1);
        assert!(r.get(id).is_none());
    }

    #[test]
    fn session_ids_round_trip() {
        assert_eq!(format_session_id(17), "s-17");
        assert_eq!(parse_session_id("s-17"), Some(17));
        assert_eq!(parse_session_id("17"), None);
        assert_eq!(parse_session_id("s-x"), None);
    }
}
