//! The transport-free node core: every piece of service state — session
//! registry, broadcast channels, frame cache, admission queue, pressure
//! gauge, counters and telemetry — plus the synthesis workers that drain
//! the queue. Nothing in this module touches a socket.
//!
//! [`NodeCore`] is the seam the cluster tier is built on: the HTTP layer
//! ([`server`](crate::server)) is a codec/dispatch shell that parses
//! requests and serializes responses, and the [`router`](crate::router)
//! composes many `NodeCore`-backed worker processes behind one front tier.
//! Because the core is transport-free, tests can drive session CRUD, frame
//! fetches and quarantine directly against it and assert bit-identical
//! results to the HTTP path.
//!
//! ## Peer frame-cache lookup
//!
//! Frame-cache keys are stable content hashes of `(field, config, seed,
//! frame)`, so any node can serve any cached frame. A core configured with
//! [`ServiceOptions::peers`] consults its sibling nodes on a local cache
//! miss — one cheap `GET /cache/...` probe per peer — before paying for
//! synthesis, so a hot frame is rendered once cluster-wide and then fans
//! out of whichever cache holds it.

use crate::cache::{FrameCache, FrameKey};
use crate::channel::ChannelRegistry;
use crate::client::ClientPool;
use crate::metrics::{self, LatencySnapshot, NodeSnapshot, ServiceCounters};
use crate::pressure::{PressureConfig, PressureGauge, PressureState};
use crate::queue::{AdmissionConfig, AdmissionError, FrameQueue};
use crate::session::{
    format_session_id, InFlightGuard, RegistryError, RenderError, Session, SessionRegistry,
    SharedPools,
};
use crate::spec::{FieldSpec, SessionSpec};
use softpipe::sync::lock_recover;
use softpipe::{FrameArena, PipePool};
use spotnoise::json::Json;
use spotnoise::telemetry::{
    self, Histogram, TraceCtx, TraceSink, TraceStage, DEFAULT_TRACE_CAPACITY,
};
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Frame-cache budget in bytes (0 disables caching). Bytes, not
    /// frames: textures up to 2048² (16 MB/frame) are allowed, so an
    /// entry-counted cache could silently hold gigabytes.
    pub cache_bytes: usize,
    /// Admission-control parameters of the frame queue.
    pub admission: AdmissionConfig,
    /// Synthesis worker threads (0 = one per available core).
    pub workers: usize,
    /// Maximum live sessions.
    pub max_sessions: usize,
    /// Sessions idle beyond this are evicted (checked on `/stats` and on
    /// session creation).
    pub idle_timeout: Duration,
    /// Cap on synthesis steps a single frame request may trigger.
    pub max_advances_per_request: u64,
    /// How long a connection waits for its admitted job before giving up.
    /// Tune together with [`max_advances_per_request`](Self::max_advances_per_request)
    /// and the texture sizes you allow: a request near the advance cap on a
    /// large texture can legitimately render longer than this, in which
    /// case the client sees a 500 while the worker still finishes (and
    /// caches) the job.
    pub reply_timeout: Duration,
    /// Frames a shared channel pre-renders past each served request, so the
    /// subscribers behind the frontier-advancing one fan out of the cache.
    pub channel_lookahead: u64,
    /// Cap on frames a single `GET .../stream` request may push (requests
    /// asking for more are clamped).
    pub max_stream_frames: u64,
    /// Deadline applied to frame requests that carry no `X-Deadline-Ms`
    /// header (`None` = no implicit deadline). A request whose remaining
    /// budget is already below the queue's recent p99 wait is shed at
    /// admission with `503` + `Retry-After` instead of queueing to miss.
    pub default_deadline: Option<Duration>,
    /// Thresholds and cadence of the pressure gauge driving the
    /// graceful-degradation ladder.
    pub pressure: PressureConfig,
    /// The node's cluster identity, reported as the `X-Node-Id` response
    /// header and in the `/stats` `node` block. `None` lets
    /// [`serve`](crate::serve) fill in the bound address once it is known.
    pub node_id: Option<String>,
    /// Sibling nodes consulted on a local frame-cache miss before
    /// synthesizing (the peer frame-cache lookup). Empty disables probing.
    pub peers: Vec<SocketAddr>,
    /// Per-probe budget of a peer cache lookup (connect and read); a slow
    /// or dead peer costs at most this before synthesis proceeds locally.
    pub peer_timeout: Duration,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_bytes: 64 << 20,
            admission: AdmissionConfig::default(),
            workers: 0,
            max_sessions: 64,
            idle_timeout: Duration::from_secs(300),
            max_advances_per_request: 512,
            reply_timeout: Duration::from_secs(60),
            channel_lookahead: 2,
            max_stream_frames: 256,
            default_deadline: None,
            pressure: PressureConfig::default(),
            node_id: None,
            peers: Vec::new(),
            peer_timeout: Duration::from_millis(250),
        }
    }
}

/// Service-level failure modes, mapped onto HTTP statuses by the front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The server (or one session's fair share) is saturated; retry later.
    Busy(&'static str),
    /// Unknown session.
    NotFound,
    /// The request itself is invalid.
    BadRequest(String),
    /// The server is shutting down.
    ShuttingDown,
    /// An admitted job was dropped (worker died or timed out).
    Internal(&'static str),
    /// The session was quarantined after a panicked render; its pipeline
    /// state can no longer be trusted. Close it and create a fresh one.
    Quarantined,
    /// The request's deadline cannot be met: either it expired while the
    /// job queued, or the queue's recent p99 wait already exceeds the
    /// remaining budget (shed at admission).
    DeadlineExceeded,
}

/// A served frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Little-endian `f32` texels, row-major from the bottom row.
    pub bytes: Arc<Vec<u8>>,
    /// The frame index served. Equals the requested index except when a
    /// fallen-behind shared subscriber was skipped to the live frontier.
    pub frame: u64,
    /// Whether the frame came out of the cache.
    pub cached: bool,
    /// Whether the serve skipped a fallen-behind shared subscriber forward
    /// to the channel's live frontier.
    pub skipped: bool,
    /// Whether a saturated server served the channel's cached frontier
    /// frame instead of synthesizing the requested index.
    pub stale: bool,
    /// Whether the frame was rendered under pressure-degraded (footprint)
    /// sampling on a session that asked for exact.
    pub degraded: bool,
    /// Whether the frame came out of a *sibling node's* cache (the peer
    /// frame-cache lookup); implies `cached`.
    pub peer: bool,
}

pub(crate) struct FrameJob {
    frame: u64,
    /// When the job was submitted to the admission queue — the start of the
    /// queue-wait trace span a worker records on pickup.
    submitted: Instant,
    /// The session the frame is rendered on. Carried in the job — the
    /// worker never re-resolves the id through the registry, so an
    /// admitted request renders even if its session is closed or evicted
    /// in the instant between the requester's registry lookup and the
    /// in-flight guard taking effect.
    session: Arc<Mutex<Session>>,
    /// The absolute instant this request stops being worth serving; workers
    /// re-check it when the job comes off the queue.
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<FrameResult, ServiceError>>,
    /// Holds the session's in-flight count from admission until the worker
    /// has finished (the job is dropped after execution — or on shed —
    /// which releases the guard), so idle eviction cannot reap the session
    /// while this job waits in the queue.
    _guard: InFlightGuard,
}

/// Revalidation for a poisoned session lock. Render panics are caught
/// before they can unwind through the guard, so poison here means some
/// other holder died mid-update and the session's state cannot be trusted:
/// quarantine it rather than guess at which fields were half-written.
pub(crate) fn revalidate_session(session: &mut Session) {
    session.quarantine();
}

/// The service's end-to-end telemetry: lock-free latency histograms over
/// every hot path plus the frame-lifecycle trace sink. All histograms are
/// in microseconds. Exposed on `/metrics` (Prometheus text), `/trace`
/// (Chrome trace-event JSON) and folded into `/stats` as percentiles.
pub struct ServiceTelemetry {
    /// End-to-end [`NodeCore::fetch_frame`] latency, all outcomes (errors
    /// included — a shed request's latency is part of the client story).
    pub request_us: Arc<Histogram>,
    /// Admission-to-pop wait in the frame queue.
    pub queue_wait_us: Arc<Histogram>,
    /// Per-frame particle-advection stage.
    pub advect_us: Arc<Histogram>,
    /// Per-frame texture-synthesis stage.
    pub synthesize_us: Arc<Histogram>,
    /// Per-frame render stage.
    pub render_us: Arc<Histogram>,
    /// Pipe-pool checkout wait (lock + reset-or-spawn).
    pub checkout_us: Arc<Histogram>,
    /// The frame-lifecycle trace sink; mode comes from `SPOTNOISE_TRACE`
    /// (`off` by default).
    pub trace: TraceSink,
}

impl ServiceTelemetry {
    fn new() -> Self {
        ServiceTelemetry {
            request_us: Arc::new(Histogram::new()),
            queue_wait_us: Arc::new(Histogram::new()),
            advect_us: Arc::new(Histogram::new()),
            synthesize_us: Arc::new(Histogram::new()),
            render_us: Arc::new(Histogram::new()),
            checkout_us: Arc::new(Histogram::new()),
            trace: TraceSink::from_env(DEFAULT_TRACE_CAPACITY),
        }
    }
}

/// One sibling node the core probes on a cache miss.
struct Peer {
    addr: SocketAddr,
    pool: ClientPool,
}

/// The transport-free state and logic of one synthesis node.
///
/// Owns the session registry, broadcast channels, frame cache, admission
/// queue, pressure gauge, counters and telemetry; synthesis workers started
/// with [`NodeCore::start_workers`] drain the queue. The HTTP front end
/// ([`Service`](crate::Service)) is a thin codec/dispatch shell over this.
pub struct NodeCore {
    pub(crate) options: ServiceOptions,
    pub(crate) registry: Mutex<SessionRegistry>,
    /// Shared-field broadcast channels, keyed by `(field, config, seed)`.
    pub(crate) channels: Mutex<ChannelRegistry>,
    pub(crate) cache: Mutex<FrameCache>,
    pub(crate) queue: FrameQueue<FrameJob>,
    /// Service-wide frame-buffer arena and pipe-worker pool, shared by all
    /// sessions (both size-keyed, so mixed frame sizes never collide).
    pub(crate) pools: SharedPools,
    pub(crate) counters: ServiceCounters,
    pub(crate) telemetry: ServiceTelemetry,
    /// The load sensor behind the degradation ladder, re-evaluated (with
    /// its own throttle) on every frame request and `/healthz` probe.
    pub(crate) pressure: PressureGauge,
    /// Sibling nodes probed on a cache miss, with one keep-alive connection
    /// pool per peer.
    peers: Vec<Peer>,
    /// The node's cluster identity ([`ServiceOptions::node_id`], or the
    /// bound address once [`serve`](crate::serve) knows it).
    node_id: Mutex<String>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
}

impl NodeCore {
    /// Creates a node core (no transport attached): the API used by unit
    /// tests and in-process embedding; [`serve`](crate::serve) wraps it in
    /// the HTTP front end.
    pub fn new(options: ServiceOptions) -> Arc<NodeCore> {
        let service_telemetry = ServiceTelemetry::new();
        let arena = Arc::new(FrameArena::new());
        // One persistent-pipe pool for the whole service, sized by the
        // session cap: every admitted session can keep one warm pipe per
        // typical process group.
        let pipes = Arc::new(PipePool::with_capacity(
            Some(Arc::clone(&arena)),
            options.max_sessions.saturating_mul(2).max(8),
        ));
        // Bridge pool checkouts into the checkout histogram and the trace
        // ring (the raster crate cannot depend on telemetry, so the pool
        // exposes a plain observer hook instead).
        let checkout_us = Arc::clone(&service_telemetry.checkout_us);
        let trace = service_telemetry.trace.clone();
        pipes.set_observer(Some(Arc::new(move |reused, wait| {
            checkout_us.record_duration(wait);
            let start = Instant::now()
                .checked_sub(wait)
                .unwrap_or_else(Instant::now);
            trace.record_with(
                TraceStage::PipeCheckout,
                telemetry::ctx(),
                start,
                wait,
                reused as u64,
            );
        })));
        let pools = SharedPools {
            arena: Some(arena),
            pipes,
            trace: service_telemetry.trace.clone(),
        };
        let queue = FrameQueue::new(options.admission);
        queue.set_wait_histogram(Arc::clone(&service_telemetry.queue_wait_us));
        let mut cache = FrameCache::new(options.cache_bytes);
        cache.set_trace_sink(service_telemetry.trace.clone());
        let peers = options
            .peers
            .iter()
            .map(|&addr| Peer {
                addr,
                pool: ClientPool::new(addr)
                    .with_connect_timeout(options.peer_timeout)
                    .with_read_timeout(Some(options.peer_timeout)),
            })
            .collect();
        Arc::new(NodeCore {
            registry: Mutex::new(SessionRegistry::with_pools(
                options.max_sessions,
                options.idle_timeout,
                pools.clone(),
            )),
            channels: Mutex::new(ChannelRegistry::new(
                pools.clone(),
                options.channel_lookahead,
            )),
            cache: Mutex::new(cache),
            queue,
            pools,
            counters: ServiceCounters::default(),
            telemetry: service_telemetry,
            pressure: PressureGauge::new(options.pressure),
            peers,
            node_id: Mutex::new(options.node_id.clone().unwrap_or_default()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            options,
        })
    }

    /// The node's cluster identity (empty until configured or bound).
    pub fn node_id(&self) -> String {
        lock_recover(&self.node_id, |_| {}).clone()
    }

    /// Fills in the node identity if none was configured
    /// ([`serve`](crate::serve) passes the bound address).
    pub fn set_default_node_id(&self, id: &str) {
        let mut node_id = lock_recover(&self.node_id, |_| {});
        if node_id.is_empty() {
            *node_id = id.to_string();
        }
    }

    /// The service's latency histograms and trace sink.
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.telemetry
    }

    /// The service-wide pools every session's pipeline composes on.
    pub fn pools(&self) -> &SharedPools {
        &self.pools
    }

    /// The options the service was built with.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts `n` synthesis workers (0 = one per available core) draining
    /// the admission queue until [`NodeCore::begin_shutdown`] closes it.
    pub fn start_workers(self: &Arc<Self>, n: usize) -> Vec<JoinHandle<()>> {
        let workers = if n > 0 {
            n
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        };
        (0..workers)
            .map(|i| {
                let core = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("synth-worker-{i}"))
                    .spawn(move || core.worker_loop())
                    .expect("spawn worker")
            })
            .collect()
    }

    /// Initiates shutdown of the core: further submissions fail, workers
    /// drain what is queued and exit. The transport layer is responsible
    /// for waking its own accept loop.
    pub fn begin_shutdown(&self) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.queue.close();
        true
    }

    /// A session's shared handle, for in-process embedding and tests that
    /// need to reach past the public API (e.g. to quarantine a session the
    /// way a panicked render would).
    pub fn session_handle(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        lock_recover(&self.registry, |_| {}).get(id)
    }

    /// Evicts idle sessions and retires unwatched channels (the sweep
    /// `/stats` performs before reporting).
    pub fn sweep_idle(&self) {
        lock_recover(&self.registry, |_| {}).evict_idle();
        self.sweep_channels();
    }

    /// Creates a session and returns its id. A spec with `shared: true`
    /// subscribes the session to the broadcast channel for its
    /// `(field, config, seed)` — creating the channel if this is its first
    /// viewer — instead of giving it a private pipeline.
    pub fn create_session(&self, spec: SessionSpec) -> Result<u64, ServiceError> {
        if self.is_shutting_down() {
            return Err(ServiceError::ShuttingDown);
        }
        // Subscribe before touching the registry lock (never hold both).
        // Both registries keep every field individually consistent (maps of
        // finished values plus counters), so poison recovery needs no
        // repair beyond clearing the flag.
        let subscription = spec
            .shared
            .then(|| lock_recover(&self.channels, |_| {}).subscribe(&spec));
        let mut registry = lock_recover(&self.registry, |_| {});
        registry.evict_idle();
        let created = match subscription {
            Some(sub) => registry.create_shared(spec, sub),
            None => registry.create(spec),
        };
        drop(registry);
        // Eviction above (and a shed create: `create_shared` drops the
        // subscription on the cap error) may have unsubscribed channels —
        // retire the ones nobody watches any more.
        self.sweep_channels();
        match created {
            Ok((id, _)) => Ok(id),
            Err(RegistryError::TooManySessions) => Err(ServiceError::Busy("sessions")),
        }
    }

    /// Retires broadcast channels with no subscribers left (their counters
    /// fold into the `/stats` totals).
    pub(crate) fn sweep_channels(&self) {
        lock_recover(&self.channels, |_| {}).sweep();
    }

    /// Re-evaluates the pressure gauge against the queue (throttled inside
    /// the gauge) and applies the *elevated* rung: channel look-ahead is
    /// shut off while pressure is non-healthy and restored on recovery.
    /// The saturated rung (stale frontier serves, sampling degradation) is
    /// applied per-request by [`NodeCore::fetch_frame`].
    pub fn pressure_tick(&self) -> PressureState {
        let depth = self.queue.stats().depth;
        let state = self.pressure.evaluate(
            depth,
            self.options.admission.watermark,
            &self.telemetry.queue_wait_us,
        );
        let desired = if state == PressureState::Healthy {
            self.options.channel_lookahead
        } else {
            0
        };
        let channels = lock_recover(&self.channels, |_| {});
        if channels.lookahead() != desired {
            channels.set_lookahead(desired);
        }
        state
    }

    /// The current pressure state without re-evaluating the gauge.
    pub fn pressure_state(&self) -> PressureState {
        self.pressure.state()
    }

    /// Steers a session to a new field (restarting its animation clock).
    pub fn steer(&self, id: u64, field: FieldSpec) -> Result<(), ServiceError> {
        let session = lock_recover(&self.registry, |_| {})
            .get(id)
            .ok_or(ServiceError::NotFound)?;
        let mut s = lock_recover(&session, revalidate_session);
        if s.is_quarantined() {
            return Err(ServiceError::Quarantined);
        }
        s.steer(field);
        Ok(())
    }

    /// Closes a session (retiring its broadcast channel if it was the last
    /// subscriber).
    pub fn close_session(&self, id: u64) -> Result<(), ServiceError> {
        if lock_recover(&self.registry, |_| {}).close(id) {
            self.sweep_channels();
            Ok(())
        } else {
            Err(ServiceError::NotFound)
        }
    }

    /// Serves a `GET /cache/...` probe from a sibling node: an uncounted
    /// peek of the local frame cache by content-hash key. Never probes
    /// onward — peer lookup is one hop deep by construction, so two nodes
    /// missing the same frame cannot chase each other in a cycle.
    pub fn peer_peek(&self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        let bytes = lock_recover(&self.cache, FrameCache::revalidate).peek(key)?;
        self.counters.peer_serves.fetch_add(1, Ordering::Relaxed);
        Some(bytes)
    }

    /// Probes the sibling nodes for a frame this node's cache misses.
    /// First hit wins; transport failures are counted and skipped (a dead
    /// peer costs at most [`ServiceOptions::peer_timeout`]).
    fn peer_lookup(&self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        for peer in &self.peers {
            let mut client = match peer.pool.checkout() {
                Ok(client) => client,
                Err(_) => {
                    self.counters.peer_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            match client.fetch_cached(key) {
                Ok(Some(bytes)) => {
                    self.counters.peer_hits.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.trace.record_with(
                        TraceStage::Deliver,
                        TraceCtx {
                            actor: key.seed,
                            frame: key.frame,
                        },
                        Instant::now(),
                        Duration::ZERO,
                        2, // detail = 2: peer-cache delivery
                    );
                    return Some(Arc::new(bytes));
                }
                Ok(None) => {
                    self.counters.peer_misses.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.counters.peer_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            let _ = peer.addr; // identity kept for /stats
        }
        None
    }

    /// Fetches frame `frame` of session `id`: straight from the cache when
    /// possible, otherwise through the admission queue and a synthesis
    /// worker. Blocks until the frame is ready, the request is shed, or the
    /// reply timeout expires.
    pub fn fetch_frame(&self, id: u64, frame: u64) -> Result<FrameResult, ServiceError> {
        self.fetch_frame_deadline(id, frame, None)
    }

    /// [`NodeCore::fetch_frame`] with an explicit deadline budget in
    /// milliseconds (the `X-Deadline-Ms` header); `None` falls back to
    /// [`ServiceOptions::default_deadline`]. The deadline is enforced at
    /// admission — shed immediately when the queue's recent p99 wait
    /// already exceeds the remaining budget — and re-checked when a worker
    /// picks the job up.
    pub fn fetch_frame_deadline(
        &self,
        id: u64,
        frame: u64,
        deadline_ms: Option<u64>,
    ) -> Result<FrameResult, ServiceError> {
        let start = Instant::now();
        let outcome = self.fetch_frame_inner(id, frame, deadline_ms, start);
        let elapsed = start.elapsed();
        self.telemetry.request_us.record_duration(elapsed);
        if let Ok(result) = &outcome {
            if result.stale {
                self.counters.stale_serves.fetch_add(1, Ordering::Relaxed);
            }
            if result.degraded {
                self.counters
                    .degraded_serves
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        // detail = 1 marks a failed request.
        self.telemetry.trace.record_with(
            TraceStage::Request,
            TraceCtx { actor: id, frame },
            start,
            elapsed,
            outcome.is_err() as u64,
        );
        if let Ok(result) = &outcome {
            // detail = 1 marks a cache-served delivery.
            self.telemetry.trace.record_with(
                TraceStage::Deliver,
                TraceCtx {
                    actor: id,
                    frame: result.frame,
                },
                start,
                elapsed,
                result.cached as u64,
            );
        }
        outcome
    }

    fn fetch_frame_inner(
        &self,
        id: u64,
        frame: u64,
        deadline_ms: Option<u64>,
        start: Instant,
    ) -> Result<FrameResult, ServiceError> {
        if self.is_shutting_down() {
            return Err(ServiceError::ShuttingDown);
        }
        let pressure = self.pressure_tick();
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.options.default_deadline)
            .map(|budget| start + budget);
        let session = lock_recover(&self.registry, |_| {})
            .get(id)
            .ok_or(ServiceError::NotFound)?;
        let (key, guard, queue_id, channel, degraded) = {
            let mut s = lock_recover(&session, revalidate_session);
            if s.is_quarantined() {
                return Err(ServiceError::Quarantined);
            }
            s.touch();
            // The saturated rung of the ladder switches non-pinned exact
            // sessions to footprint sampling; recovery restores them. Both
            // are no-ops on sessions the rung doesn't apply to, and both
            // happen *before* the cache key is computed so degraded frames
            // cache under the footprint key they were rendered with.
            match pressure {
                PressureState::Saturated => {
                    s.degrade();
                }
                PressureState::Healthy => {
                    s.restore();
                }
                PressureState::Elevated => {}
            }
            // A shared session's synthesis jobs queue under its *channel's*
            // id: the channel is one fair peer of the private sessions, no
            // matter how many subscribers it feeds.
            let queue_id = s.channel().map_or(id, |c| c.queue_id());
            // Mark the prospective job in-flight *before* the cache check
            // and submission: from here until the worker finishes, idle
            // eviction must not reap the session.
            (
                s.key_for(frame),
                s.begin_job(),
                queue_id,
                s.channel().cloned(),
                s.is_degraded(),
            )
        };
        if let Some(bytes) = lock_recover(&self.cache, FrameCache::revalidate).lookup(key) {
            let mut s = lock_recover(&session, revalidate_session);
            s.note_served(frame);
            // A cached serve on a shared session is the broadcast fan-out
            // path: count the delivery on its channel.
            if let Some(channel) = s.channel() {
                channel.note_delivered();
            }
            return Ok(FrameResult {
                bytes,
                frame,
                cached: true,
                skipped: false,
                stale: false,
                degraded,
                peer: false,
            });
        }
        // The peer frame-cache lookup: frame keys are stable content
        // hashes, so a sibling that already rendered this frame can serve
        // it without this node synthesizing anything. The fetched bytes
        // are inserted locally so the next request is a plain local hit.
        if !self.peers.is_empty() {
            if let Some(bytes) = self.peer_lookup(key) {
                lock_recover(&self.cache, FrameCache::revalidate).insert_tagged(
                    key,
                    Arc::clone(&bytes),
                    false,
                );
                lock_recover(&session, revalidate_session).note_served(frame);
                return Ok(FrameResult {
                    bytes,
                    frame,
                    cached: true,
                    skipped: false,
                    stale: false,
                    degraded,
                    peer: true,
                });
            }
        }
        // Saturated shared subscribers take the channel's cached frontier
        // frame instead of queueing synthesis: stale, but instant and
        // fan-out-cheap — the first rung before any shed.
        if pressure == PressureState::Saturated {
            if let Some(channel) = &channel {
                if let Some((frontier, bytes)) = channel.latest_frame() {
                    channel.note_delivered();
                    lock_recover(&session, revalidate_session).note_served(frontier);
                    return Ok(FrameResult {
                        bytes,
                        frame: frontier,
                        cached: true,
                        skipped: frontier != frame,
                        stale: true,
                        degraded: false,
                        peer: false,
                    });
                }
            }
        }
        // Deadline admission: a job whose remaining budget is already below
        // the queue's recent p99 wait would almost surely time out in line —
        // shed it now so the client can retry elsewhere/later.
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || self.pressure.queue_wait_p99() > remaining {
                self.counters.deadline_shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::DeadlineExceeded);
            }
        }
        let (tx, rx) = mpsc::channel();
        match self.queue.submit(
            queue_id,
            FrameJob {
                frame,
                submitted: Instant::now(),
                session: Arc::clone(&session),
                deadline,
                reply: tx,
                _guard: guard,
            },
        ) {
            Ok(()) => {}
            Err(AdmissionError::Busy) => return Err(ServiceError::Busy("queue")),
            Err(AdmissionError::SessionBusy) => return Err(ServiceError::Busy("session")),
            Err(AdmissionError::Closed) => return Err(ServiceError::ShuttingDown),
        }
        let outcome = match rx.recv_timeout(self.options.reply_timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServiceError::Internal("reply timeout")),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::Internal("job dropped")),
        };
        if let Ok(result) = &outcome {
            // Note the frame actually served (a skipped shared serve lands
            // on the frontier, not the requested index), so `advance`
            // continues from what the client really saw.
            lock_recover(&session, revalidate_session).note_served(result.frame);
        }
        outcome
    }

    /// Like [`NodeCore::fetch_frame`], but retries `Busy` sheds (bounded by
    /// the reply timeout) instead of surfacing them — the streaming
    /// endpoint's loop cannot hand a 503 to a client mid-stream.
    pub(crate) fn fetch_frame_retrying(
        &self,
        id: u64,
        frame: u64,
    ) -> Result<FrameResult, ServiceError> {
        let deadline = Instant::now() + self.options.reply_timeout;
        loop {
            match self.fetch_frame(id, frame) {
                Err(ServiceError::Busy(_)) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                outcome => return outcome,
            }
        }
    }

    /// Renders and returns the session's next frame: the one after the most
    /// recently served frame (rendered or cached), so repeated advances
    /// always progress — even when a rewound index is still in the cache
    /// and serving it never touches the pipeline.
    pub fn advance(&self, id: u64) -> Result<FrameResult, ServiceError> {
        self.advance_deadline(id, None)
    }

    /// [`NodeCore::advance`] with an explicit deadline budget (the
    /// `X-Deadline-Ms` header), enforced like
    /// [`NodeCore::fetch_frame_deadline`].
    pub fn advance_deadline(
        &self,
        id: u64,
        deadline_ms: Option<u64>,
    ) -> Result<FrameResult, ServiceError> {
        let session = lock_recover(&self.registry, |_| {})
            .get(id)
            .ok_or(ServiceError::NotFound)?;
        let next = lock_recover(&session, revalidate_session).next_advance();
        self.fetch_frame_deadline(id, next, deadline_ms)
    }

    /// One synthesis worker: drains the queue until it closes. The loop is
    /// panic-contained twice over: `execute` catches render panics itself
    /// (quarantining the session), and a panic escaping anywhere else in
    /// the iteration — e.g. an injected fault in the queue — is caught here
    /// so the worker survives; the affected requester sees `Internal` when
    /// its reply sender drops.
    pub fn worker_loop(&self) {
        loop {
            let popped = match std::panic::catch_unwind(AssertUnwindSafe(|| self.queue.pop())) {
                Ok(popped) => popped,
                Err(_) => {
                    self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            let Some((queue_sid, job)) = popped else {
                break;
            };
            let outcome = self.execute(queue_sid, &job);
            // A hung-up client (timeout, disconnect) makes send fail; the
            // work is already done and cached, so that is not an error.
            let _ = job.reply.send(outcome);
            self.queue.complete();
        }
    }

    fn execute(&self, queue_sid: u64, job: &FrameJob) -> Result<FrameResult, ServiceError> {
        // Every span this job's synthesis emits carries the queue id (the
        // session id, or the channel id for shared sessions) as its actor.
        let ctx = TraceCtx {
            actor: queue_sid,
            frame: job.frame,
        };
        let _trace_ctx = telemetry::set_ctx(ctx);
        self.telemetry.trace.record_with(
            TraceStage::QueueWait,
            ctx,
            job.submitted,
            job.submitted.elapsed(),
            0,
        );
        // The deadline is re-checked now that the queue wait is behind us:
        // a job that expired in line is dropped before any synthesis.
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                self.counters.deadline_shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::DeadlineExceeded);
            }
        }
        // The job carries its session handle; no registry re-lookup, so an
        // admitted request can never turn into a spurious NotFound however
        // the registry changed while the job was queued.
        let mut s = lock_recover(&job.session, revalidate_session);
        if s.is_quarantined() {
            return Err(ServiceError::Quarantined);
        }
        // Re-check the cache: a racing request for the same frame may have
        // rendered it while this job queued.
        let key = s.key_for(job.frame);
        let degraded = s.is_degraded();
        if let Some(bytes) = lock_recover(&self.cache, FrameCache::revalidate).peek(key) {
            // For shared sessions this is the common fan-out case: the
            // channel (driven by a racing subscriber) rendered the frame
            // while this job queued. Count the delivery.
            if let Some(channel) = s.channel() {
                channel.note_delivered();
            }
            return Ok(FrameResult {
                bytes,
                frame: job.frame,
                cached: true,
                skipped: false,
                stale: false,
                degraded,
                peer: false,
            });
        }
        // Render under catch_unwind: the session guard lives *outside* the
        // closure, so a panicking render never unwinds through it (no
        // poison) and the session can be quarantined right here — this
        // request answers 500, every other session keeps serving.
        let rendered = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.render_frame(
                job.frame,
                self.options.max_advances_per_request,
                |frame_key, bytes, timings| {
                    // The stage histograms double as the frame counters:
                    // `frames.rendered` is the synthesize histogram's count.
                    self.telemetry.advect_us.record(timings.advect_us);
                    self.telemetry.synthesize_us.record(timings.synthesize_us);
                    self.telemetry.render_us.record(timings.render_us);
                    // Frames below the requested index were rendered on the way
                    // there: count them as look-ahead insertions so /stats shows
                    // how much future-serving work the request banked.
                    let lookahead = frame_key.frame != job.frame;
                    lock_recover(&self.cache, FrameCache::revalidate).insert_tagged(
                        frame_key,
                        Arc::clone(bytes),
                        lookahead,
                    );
                },
            )
        }));
        let rendered = match rendered {
            Ok(rendered) => rendered,
            Err(_) => {
                self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                if s.quarantine() {
                    self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                return Err(ServiceError::Internal(
                    "render panicked; session quarantined",
                ));
            }
        };
        match rendered {
            Ok(served) => Ok(FrameResult {
                bytes: served.bytes,
                frame: served.frame,
                cached: false,
                skipped: served.skipped,
                stale: false,
                degraded,
                peer: false,
            }),
            Err(RenderError::TooFarAhead { needed, max }) => Err(ServiceError::BadRequest(
                format!("frame needs {needed} synthesis steps, above the per-request cap of {max}"),
            )),
        }
    }

    /// Reads every reported metric, taking each subsystem's lock once.
    fn snapshot(&self) -> NodeSnapshot {
        let registry = lock_recover(&self.registry, |_| {});
        let reg = registry.stats();
        let sessions = registry
            .ids()
            .into_iter()
            .filter_map(|id| registry.get(id).map(|handle| (id, handle)))
            .collect();
        drop(registry);
        let cache = lock_recover(&self.cache, FrameCache::revalidate);
        let (cache_entries, cache_bytes, cache_capacity, cache_stats) = (
            cache.len(),
            cache.bytes(),
            cache.capacity_bytes(),
            cache.stats(),
        );
        drop(cache);
        let t = &self.telemetry;
        NodeSnapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            node_id: self.node_id(),
            peers: self.peers.len(),
            counters: self.counters.snapshot(),
            registry: reg,
            sessions,
            max_sessions: self.options.max_sessions,
            channels: lock_recover(&self.channels, |_| {}).totals(),
            cache_entries,
            cache_bytes,
            cache_capacity,
            cache: cache_stats,
            queue: self.queue.stats(),
            watermark: self.options.admission.watermark,
            per_session_cap: self.options.admission.per_session,
            pressure_state: self.pressure.state(),
            pressure: self.pressure.counters(),
            lock_recoveries: softpipe::sync::recoveries(),
            injected_panics: softpipe::fault::injected_panics(),
            injected_delays: softpipe::fault::injected_delays(),
            pipes: self.pools.pipes.stats(),
            trace_recorded: t.trace.recorded(),
            latency: LatencySnapshot {
                request: t.request_us.snapshot(),
                queue_wait: t.queue_wait_us.snapshot(),
                advect: t.advect_us.snapshot(),
                synthesize: t.synthesize_us.snapshot(),
                render: t.render_us.snapshot(),
                pipe_checkout: t.checkout_us.snapshot(),
            },
        }
    }

    /// The `/stats` document: every declared node metric with a `/stats`
    /// path, read from one snapshot, plus one row per live session.
    pub fn stats_json(&self) -> Json {
        let snap = self.snapshot();
        let per_session = snap
            .sessions
            .iter()
            .map(|(id, handle)| match handle.try_lock() {
                Ok(s) => Json::object([
                    ("session", Json::str(format_session_id(*id))),
                    ("shared", Json::Bool(s.is_shared())),
                    ("frames_rendered", Json::num(s.frames_rendered() as f64)),
                    ("head_frame", Json::num(s.head_frame() as f64)),
                    ("rewinds", Json::num(s.rewinds() as f64)),
                    ("steers", Json::num(s.steers() as f64)),
                    ("in_flight", Json::num(s.in_flight() as f64)),
                ]),
                // A session mid-render holds its lock; report it busy rather
                // than stalling /stats behind synthesis.
                Err(_) => Json::object([
                    ("session", Json::str(format_session_id(*id))),
                    ("busy", Json::Bool(true)),
                ]),
            });
        let mut doc = vec![(
            "schema".to_string(),
            Json::str("spotnoise_service_stats/v1"),
        )];
        doc.extend(metrics::stats_object(metrics::NODE, &snap));
        doc.push(("per_session".to_string(), Json::array(per_session)));
        Json::Object(doc)
    }

    /// The `/metrics` document: Prometheus text exposition of every
    /// declared node metric with a series name.
    pub fn metrics_text(&self) -> String {
        let mut out = String::with_capacity(8192);
        metrics::write_prometheus(&mut out, metrics::NODE, &self.snapshot());
        out
    }

    /// The `/trace` document: the newest `last` spans of the trace ring as
    /// Chrome trace-event JSON (load into `chrome://tracing` or Perfetto).
    /// The `tid` lane is the span's actor (session or channel queue id).
    pub fn trace_json(&self, last: usize) -> Json {
        let events = self.telemetry.trace.recent(last);
        Json::object([
            ("displayTimeUnit", Json::str("ms")),
            ("enabled", Json::Bool(self.telemetry.trace.is_enabled())),
            (
                "recorded",
                Json::num(self.telemetry.trace.recorded() as f64),
            ),
            (
                "traceEvents",
                Json::array(events.iter().map(|e| {
                    Json::object([
                        ("name", Json::str(e.stage.name())),
                        ("cat", Json::str("spotnoise")),
                        ("ph", Json::str("X")),
                        ("ts", Json::num(e.start_us as f64)),
                        ("dur", Json::num(e.dur_us as f64)),
                        ("pid", Json::num(1.0)),
                        ("tid", Json::num(e.actor as f64)),
                        (
                            "args",
                            Json::object([
                                ("frame", Json::num(e.frame as f64)),
                                ("detail", Json::num(e.detail as f64)),
                            ]),
                        ),
                    ])
                })),
            ),
        ])
    }
}
