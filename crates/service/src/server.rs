//! The HTTP front end of one synthesis node: a codec/dispatch shell over
//! the transport-free [`NodeCore`].
//!
//! Everything stateful — session registry, frame cache, admission queue,
//! broadcast channels, pressure gauge, synthesis workers — lives in
//! [`crate::node`]. This module only answers parsed calls: the connection
//! loop reads a request ([`crate::http`] does the wire work), parses it
//! once into an [`api::Call`] and dispatches it — a stream to the
//! incremental writer, every other call to [`Frontend::answer`] — then
//! serializes the result: statuses, `X-Frame-*`/`X-Node-Id` headers, frame
//! records for streams. The same connection loop is shared with the
//! cluster [`router`](crate::router) through the [`Frontend`] trait, so
//! both tiers speak identical HTTP with one implementation of keep-alive,
//! framing-error handling and panic containment.

use crate::api::{self, Call, SessionId, StreamCall};
use crate::http::{
    finish_chunked, read_request, write_frame_record, FrameRecord, Request, Response,
};
use crate::node::{revalidate_session, FrameResult, NodeCore, ServiceError, ServiceOptions};
use crate::pressure::PressureState;
use crate::session::format_session_id;
use crate::spec::{FieldSpec, SessionSpec};
use softpipe::sync::lock_recover;
use spotnoise::json::Json;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Deref;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The HTTP-facing synthesis server: one [`NodeCore`] plus the codec and
/// dispatch that map requests onto it. `Service` derefs to its core, so
/// in-process callers and tests use the state API directly
/// (`service.create_session(..)`, `service.fetch_frame(..)`, ...).
pub struct Service {
    core: Arc<NodeCore>,
    /// The bound address, filled in by [`serve`] (used by `/shutdown` to
    /// wake the accept loop).
    addr: Mutex<Option<SocketAddr>>,
}

impl Deref for Service {
    type Target = NodeCore;

    fn deref(&self) -> &NodeCore {
        &self.core
    }
}

impl Service {
    /// Creates a service with no front end attached (the API used by unit
    /// tests and in-process embedding; [`serve`] adds the TCP front end).
    pub fn new(options: ServiceOptions) -> Arc<Service> {
        Arc::new(Service {
            core: NodeCore::new(options),
            addr: Mutex::new(None),
        })
    }

    /// The transport-free core this front end dispatches onto.
    pub fn core(&self) -> &Arc<NodeCore> {
        &self.core
    }

    /// Initiates shutdown: closes the queue and pokes the accept loop.
    pub fn request_shutdown(&self) {
        if !self.core.begin_shutdown() {
            return;
        }
        // Wake the accept loop with a no-op connection.
        if let Some(addr) = *lock_recover(&self.addr, |_| {}) {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }

    pub(crate) fn error_response(err: &ServiceError) -> Response {
        match err {
            ServiceError::Busy(what) => {
                api::retry_later("busy", &format!("{what} at capacity, retry later"))
            }
            ServiceError::NotFound => Response::error(404, "not_found", "no such session"),
            ServiceError::BadRequest(detail) => Response::error(400, "bad_request", detail),
            ServiceError::ShuttingDown => {
                Response::error(503, "shutting_down", "server is shutting down")
            }
            ServiceError::Internal(detail) => Response::error(500, "internal", detail),
            ServiceError::Quarantined => Response::error(
                500,
                "quarantined",
                "session quarantined after a panicked render; close it and create a fresh one",
            ),
            ServiceError::DeadlineExceeded => api::retry_later(
                "deadline",
                "deadline cannot be met under the current queue wait",
            ),
        }
    }

    fn frame_response(result: &FrameResult) -> Response {
        let response = Response::shared(200, Arc::clone(&result.bytes));
        api::write_frame_headers(response, &record_of(result))
    }

    fn session_info_response(&self, status: u16, id: u64) -> Result<Response, ServiceError> {
        let session = self.session_handle(id).ok_or(ServiceError::NotFound)?;
        let s = lock_recover(&session, revalidate_session);
        let spec = s.spec();
        Ok(Response::json(
            status,
            Json::object([
                ("session", Json::str(format_session_id(id))),
                ("field", spec.field.to_json()),
                (
                    "config",
                    Json::object([
                        ("texture_size", Json::num(spec.config.texture_size as f64)),
                        ("spot_count", Json::num(spec.config.spot_count as f64)),
                        ("seed", Json::num(spec.config.seed as f64)),
                        ("use_tiling", Json::Bool(spec.config.use_tiling)),
                        (
                            "sampling",
                            Json::str(crate::spec::sampling_mode_name(spec.config.sampling)),
                        ),
                    ]),
                ),
                (
                    "machine",
                    Json::object([
                        ("processors", Json::num(spec.processors as f64)),
                        ("pipes", Json::num(spec.pipes as f64)),
                    ]),
                ),
                ("dt", Json::num(spec.dt)),
                ("shared", Json::Bool(s.is_shared())),
                ("pinned", Json::Bool(spec.pinned)),
                ("quarantined", Json::Bool(s.is_quarantined())),
                ("degraded", Json::Bool(s.is_degraded())),
                ("frame_bytes", Json::num(spec.frame_bytes() as f64)),
                ("head_frame", Json::num(s.head_frame() as f64)),
                ("frames_rendered", Json::num(s.frames_rendered() as f64)),
                ("rewinds", Json::num(s.rewinds() as f64)),
                ("steers", Json::num(s.steers() as f64)),
            ]),
        ))
    }

    /// Routes one parsed request to a response (see [`Frontend::route`]).
    pub fn route(&self, request: &Request) -> Response {
        Frontend::route(self, request)
    }

    fn healthz_response(&self) -> Response {
        // Tri-state health: `ok` and `elevated` answer 200 (the server is
        // serving, possibly without speculative work), `saturated` answers
        // 503 so load balancers steer away while the ladder degrades
        // instead of collapses.
        let state = self.pressure_tick();
        let shutting_down = self.is_shutting_down();
        let status = if shutting_down || state == PressureState::Saturated {
            503
        } else {
            200
        };
        Response::json(
            status,
            Json::object([
                (
                    "status",
                    Json::str(if shutting_down {
                        "shutting_down"
                    } else {
                        state.name()
                    }),
                ),
                ("pressure", Json::str(state.name())),
                ("shutting_down", Json::Bool(shutting_down)),
            ]),
        )
    }

    fn steer_response(&self, id: u64, body: &[u8]) -> Result<Response, ServiceError> {
        let field = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(Json::parse)
            .and_then(|value| {
                // Accept either a bare field object or {"field": ...}.
                let field = value.get("field").unwrap_or(&value).clone();
                FieldSpec::from_json(&field)
            })
            .map_err(ServiceError::BadRequest)?;
        self.steer(id, field)?;
        self.session_info_response(200, id)
    }

    /// The answer to a buffered call, or the error it ends in.
    fn answer_call(&self, call: Call, request: &Request) -> Result<Response, ServiceError> {
        Ok(match call {
            Call::Metrics => Response::text(200, "text/plain; version=0.0.4", self.metrics_text()),
            Call::Trace { last } => {
                let last = if last == 0 { usize::MAX } else { last };
                Response::json(200, self.trace_json(last))
            }
            Call::Healthz => self.healthz_response(),
            Call::Stats => {
                self.sweep_idle();
                Response::json(200, self.stats_json())
            }
            // The peer cache probe: sibling nodes ask for a frame by its
            // content-hash key. A hit answers the raw bytes, a miss 404 —
            // never synthesis, so probes stay cheap and cannot recurse.
            Call::CachePeek(key) => match self.peer_peek(key) {
                Some(bytes) => {
                    let record = FrameRecord {
                        frame: key.frame,
                        cached: true,
                        ..FrameRecord::default()
                    };
                    api::write_frame_headers(Response::shared(200, bytes), &record)
                }
                None => Response::error(404, "not_cached", "frame not in this node's cache"),
            },
            Call::Shutdown => {
                self.request_shutdown();
                Response::json(200, Json::object([("status", Json::str("shutting down"))]))
            }
            Call::Create => {
                let spec =
                    SessionSpec::from_body(&request.body).map_err(ServiceError::BadRequest)?;
                self.session_info_response(201, self.create_session(spec)?)?
            }
            Call::Get(id) => self.session_info_response(200, local_id(id)?)?,
            Call::Close(id) => {
                self.close_session(local_id(id)?)?;
                Response::empty(204)
            }
            Call::Steer(id) => self.steer_response(local_id(id)?, &request.body)?,
            Call::Advance(id) => {
                Self::frame_response(&self.advance_deadline(local_id(id)?, request.deadline_ms)?)
            }
            Call::Frame(id, frame) => {
                let id = local_id(id)?;
                Self::frame_response(&self.fetch_frame_deadline(id, frame, request.deadline_ms)?)
            }
            Call::Stream(_) => api::stream_unbuffered(),
        })
    }
}

/// The stream record (and frame header set) of one served frame.
fn record_of(result: &FrameResult) -> FrameRecord {
    FrameRecord {
        frame: result.frame,
        len: result.bytes.len() as u32,
        cached: result.cached,
        skipped: result.skipped,
        stale: result.stale,
        degraded: result.degraded,
        peer: result.peer,
    }
}

/// This node's own ids: a cluster-form id names a session on some node
/// behind a router, never one here.
fn local_id(session: SessionId) -> Result<u64, ServiceError> {
    match session {
        SessionId::Local(id) => Ok(id),
        SessionId::Cluster { .. } => Err(ServiceError::NotFound),
    }
}

/// What a transport front end must provide for the shared connection loop:
/// a buffered answer per call, a stream writer, shutdown state, request and
/// panic counting, and its identity tag. Implemented by the worker-facing
/// [`Service`] and the cluster [`Router`](crate::router::Router), so both
/// speak HTTP through one keep-alive/framing/containment implementation.
pub trait Frontend: Send + Sync + 'static {
    /// True once shutdown has been requested (new keep-alives are refused).
    fn is_shutting_down(&self) -> bool;

    /// Counts a panic contained by the connection loop's unwind barrier.
    fn note_panic(&self);

    /// Counts one request, whatever it turns out to be.
    fn note_request(&self);

    /// Stamps this front end's identity onto a response.
    fn tag_node(&self, response: Response) -> Response;

    /// Answers one parsed call with a buffered response. A stream call
    /// gets [`Frontend::stream`] from the connection loop instead.
    fn answer(&self, call: Call, request: &Request) -> Response;

    /// Serves one stream call, writing its response incrementally.
    fn stream(&self, out: &mut TcpStream, call: StreamCall, keep_alive: bool) -> io::Result<()>;

    /// Answers a parsed (or refused) call with a tagged, buffered response.
    fn respond(&self, parsed: Result<Call, Response>, request: &Request) -> Response {
        // Chaos hook for the routing layer itself; a panic fired here is
        // contained by the connection thread's unwind barrier.
        softpipe::fault::fire("route");
        self.tag_node(match parsed {
            Ok(call) => self.answer(call, request),
            Err(refused) => refused,
        })
    }

    /// Counts, parses and answers one request in process, the way the
    /// connection loop answers it (a stream call has no buffered answer).
    fn route(&self, request: &Request) -> Response {
        self.note_request();
        self.respond(Call::parse(request), request)
    }
}

impl Frontend for Service {
    fn is_shutting_down(&self) -> bool {
        self.core.is_shutting_down()
    }

    fn note_panic(&self) {
        self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    fn note_request(&self) {
        self.counters.http_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Stamps the node's cluster identity onto an outgoing response, so a
    /// client (or the router) can always tell which worker answered.
    fn tag_node(&self, response: Response) -> Response {
        api::tag_node(response, &self.node_id())
    }

    fn answer(&self, call: Call, request: &Request) -> Response {
        self.answer_call(call, request)
            .unwrap_or_else(|err| Self::error_response(&err))
    }

    /// Serves one `GET /sessions/<id>/stream?from=N&count=k` call: pushes
    /// up to `count` frames as one chunked response, each frame one chunk
    /// ([`FrameRecord`] header + body straight from the shared buffer).
    ///
    /// The first frame is fetched *before* the head is written, so early
    /// failures (unknown session, bad index) still map to real HTTP
    /// statuses. Mid-stream, `Busy` sheds are retried (bounded by the reply
    /// timeout) and other errors end the stream cleanly at the terminal
    /// chunk — the frames already pushed stand, and the connection stays
    /// framed for the next request. On a shared session that falls behind
    /// the broadcast frontier, the skip semantics show through here: the
    /// served record carries the frontier's index and the stream continues
    /// from there, so a slow subscriber loses frames, never stalls the
    /// channel.
    fn stream(&self, out: &mut TcpStream, call: StreamCall, keep_alive: bool) -> io::Result<()> {
        let count = call.count.clamp(1, self.options().max_stream_frames.max(1));
        let first = local_id(call.session)
            .and_then(|id| self.fetch_frame_retrying(id, call.from).map(|r| (id, r)));
        let (id, mut result) = match first {
            Ok(first) => first,
            Err(err) => {
                return self
                    .tag_node(Self::error_response(&err))
                    .write_to(out, keep_alive)
            }
        };
        self.counters
            .streams_started
            .fetch_add(1, Ordering::Relaxed);
        // A client that disconnects mid-stream surfaces as a write error
        // (broken pipe / connection reset) on any of the writes below. The
        // error is counted and propagated — never panicked on — and every
        // in-flight guard is already released by the time a fetch returns,
        // so an abandoned stream leaves the session reapable by idle
        // eviction like any other.
        let abort = |e: io::Error| {
            self.counters
                .streams_aborted
                .fetch_add(1, Ordering::Relaxed);
            e
        };
        let head = self.tag_node(api::stream_head(call.from, count));
        head.write_stream_head(out, keep_alive).map_err(abort)?;
        let mut sent = 0u64;
        loop {
            write_frame_record(out, &record_of(&result), &result.bytes).map_err(abort)?;
            self.counters
                .frames_streamed
                .fetch_add(1, Ordering::Relaxed);
            sent += 1;
            if sent >= count {
                break;
            }
            match self.fetch_frame_retrying(id, result.frame.saturating_add(1)) {
                Ok(next) => result = next,
                // The status line is long gone: end the stream at the
                // frames already delivered.
                Err(_) => break,
            }
        }
        finish_chunked(out).map_err(abort)
    }
}

/// How long shutdown waits for in-flight connection threads to finish
/// writing their responses before the process is allowed to exit. Without
/// this grace the `/shutdown` reply races process exit: the responder is a
/// detached thread, and joining only the workers and the accept loop lets
/// `main` return while the response bytes are still unsent (observed as
/// intermittent empty replies to `POST /shutdown`).
const CONNECTION_DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Live connection-thread handles, pruned as threads finish.
type ConnectionSet = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// Waits until every tracked connection thread has finished, up to the
/// drain grace (idle keep-alive connections block in `read` for up to their
/// 60 s timeout — those are abandoned at the deadline, which is safe: they
/// have no response in flight).
fn drain_connections(connections: &ConnectionSet) {
    let deadline = Instant::now() + CONNECTION_DRAIN_GRACE;
    loop {
        {
            let mut conns = lock_recover(connections, |_| {});
            conns.retain(|h| !h.is_finished());
            if conns.is_empty() {
                return;
            }
        }
        if Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A running front end (worker server or cluster router): the bound address
/// plus the handles needed to stop it.
pub struct FrontHandle<F: Frontend> {
    front: Arc<F>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    connections: ConnectionSet,
    /// Tears the front down when the handle is consumed or dropped.
    request_shutdown: fn(&F),
}

/// A running worker server.
pub type ServiceHandle = FrontHandle<Service>;

impl ServiceHandle {
    /// The shared service state (for in-process callers and tests).
    pub fn service(&self) -> &Arc<Service> {
        &self.front
    }
}

impl<F: Frontend> FrontHandle<F> {
    /// The shared front-end state behind this handle.
    pub(crate) fn front(&self) -> &Arc<F> {
        &self.front
    }

    /// The address the front end is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the front end has shut down (e.g. via `POST
    /// /shutdown`), then drains in-flight connection threads so their
    /// responses — the `/shutdown` acknowledgement included — are written
    /// before return.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        drain_connections(&self.connections);
        // `self` is dropped on return and Drop drains again; clearing here
        // makes that a no-op so an idle keep-alive connection (which waits
        // out the full grace) cannot double the shutdown latency.
        lock_recover(&self.connections, |_| {}).clear();
    }

    /// Initiates shutdown and waits for workers and the accept loop.
    pub fn shutdown(self) {
        (self.request_shutdown)(&self.front);
        self.join();
    }
}

impl<F: Frontend> Drop for FrontHandle<F> {
    fn drop(&mut self) {
        (self.request_shutdown)(&self.front);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        drain_connections(&self.connections);
    }
}

/// One connection's keep-alive loop, generic over the front end. Transport
/// errors (malformed heads, unframed bodies) are answered here; every
/// request is then counted, parsed once into a [`Call`] and dispatched — a
/// stream to [`Frontend::stream`], anything else (a refusal included) to
/// [`Frontend::respond`] — under an unwind barrier, so a panicking handler
/// costs one request (or one connection, for streams) and never the
/// process.
fn handle_connection<F: Frontend>(front: Arc<F>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // An idle keep-alive connection eventually times out so connection
    // threads cannot accumulate forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            // Only genuinely malformed input earns a 400. A read timeout or
            // a mid-request hang-up must close silently — writing a response
            // there would leave a stale 400 in the socket for the client to
            // misread as the answer to its *next* request.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = Response::error(400, "bad_request", "malformed request")
                    .write_to(&mut writer, false);
                break;
            }
            // A body-bearing request without Content-Length: the unframed
            // body would desync the stream, so answer 411 and close (the
            // close discards whatever body bytes follow).
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                let _ = Response::error(
                    411,
                    "length_required",
                    "request bodies must be framed with Content-Length",
                )
                .write_to(&mut writer, false);
                break;
            }
            Err(_) => break,
        };
        let keep_alive = request.keep_alive && !front.is_shutting_down();
        front.note_request();
        let parsed = Call::parse(&request);
        if let Ok(Call::Stream(call)) = parsed {
            // A stream's response is written incrementally as frames
            // arrive, not built up front. The unwind barrier: a panic
            // mid-stream cannot be turned into a clean 500 (the head may be
            // written), so the connection is dropped — but the thread, and
            // the server, survive.
            let streamed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                front.stream(&mut writer, call, keep_alive)
            }));
            match streamed {
                Ok(Ok(())) if keep_alive => continue,
                Ok(_) => break,
                Err(_) => {
                    front.note_panic();
                    break;
                }
            }
        }
        // The same barrier for buffered answers: a panicking handler
        // answers *this* request with a 500 and the connection (and every
        // other session) keeps going.
        let answered =
            std::panic::catch_unwind(AssertUnwindSafe(|| front.respond(parsed, &request)));
        let response = answered.unwrap_or_else(|_| {
            front.note_panic();
            Response::error(500, "internal", "request handler panicked")
        });
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

/// Spawns the accept loop over a bound listener and assembles the running
/// handle. `threads` carries any front-specific threads started before the
/// accept loop (the worker server's synthesis pool); they are joined on
/// shutdown alongside it.
pub(crate) fn serve_front<F: Frontend>(
    listener: TcpListener,
    front: Arc<F>,
    mut threads: Vec<JoinHandle<()>>,
    request_shutdown: fn(&F),
) -> std::io::Result<FrontHandle<F>> {
    let local = listener.local_addr()?;
    let connections: ConnectionSet = Arc::new(Mutex::new(Vec::new()));
    {
        let front = Arc::clone(&front);
        let connections = Arc::clone(&connections);
        threads.push(
            std::thread::Builder::new()
                .name("accept-loop".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if front.is_shutting_down() {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let front = Arc::clone(&front);
                        // Connection threads run detached — they exit when
                        // their client hangs up, errors, or idles out — but
                        // their handles are tracked (finished ones pruned)
                        // so shutdown can drain in-flight responses.
                        let handle = std::thread::Builder::new()
                            .name("connection".to_string())
                            .spawn(move || handle_connection(front, stream));
                        if let Ok(handle) = handle {
                            let mut conns = lock_recover(&connections, |_| {});
                            conns.retain(|h| !h.is_finished());
                            conns.push(handle);
                        }
                    }
                })
                .expect("spawn accept loop"),
        );
    }
    Ok(FrontHandle {
        front,
        addr: local,
        threads,
        connections,
        request_shutdown,
    })
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), spawns the
/// accept loop and the synthesis worker pool, and returns the running
/// server's handle.
pub fn serve(addr: impl ToSocketAddrs, options: ServiceOptions) -> std::io::Result<ServiceHandle> {
    // Arm the chaos plan, if any: `SPOTNOISE_FAULT=panic:raster:0.02,...`
    // makes every server in this process run under injected faults.
    softpipe::fault::install_from_env();
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let workers = options.workers;
    let service = Service::new(options);
    *lock_recover(&service.addr, |_| {}) = Some(local);
    // An unconfigured node identifies as its bound address — unique within
    // any cluster built from distinct processes.
    service.set_default_node_id(&local.to_string());
    let threads = service.core().start_workers(workers);
    serve_front(listener, service, threads, Service::request_shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotnoise::config::SynthesisConfig;

    fn tiny_options() -> ServiceOptions {
        ServiceOptions {
            workers: 1,
            cache_bytes: 16 * 32 * 32 * 4,
            ..ServiceOptions::default()
        }
    }

    fn tiny_spec() -> SessionSpec {
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

    /// Spin up a full in-process server for API-level tests.
    fn start() -> ServiceHandle {
        serve("127.0.0.1:0", tiny_options()).expect("bind loopback")
    }

    #[test]
    fn fetch_miss_then_hit_through_the_queue() {
        let handle = start();
        let service = handle.service();
        let id = service.create_session(tiny_spec()).unwrap();
        let miss = service.fetch_frame(id, 0).unwrap();
        assert!(!miss.cached);
        assert_eq!(miss.bytes.len(), 32 * 32 * 4);
        let hit = service.fetch_frame(id, 0).unwrap();
        assert!(hit.cached);
        assert_eq!(miss.bytes, hit.bytes);
        let stats = service.stats_json();
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
        handle.shutdown();
    }

    #[test]
    fn lookahead_frames_are_cached_and_counted() {
        let handle = start();
        let service = handle.service();
        let id = service.create_session(tiny_spec()).unwrap();
        // Requesting frame 2 renders frames 0 and 1 on the way: three
        // insertions, two of them look-ahead.
        let miss = service.fetch_frame(id, 2).unwrap();
        assert!(!miss.cached);
        let stats = service.stats_json();
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("insertions").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            cache.get("inserted_lookahead").and_then(Json::as_f64),
            Some(2.0)
        );
        // The look-ahead frames serve later requests straight from cache —
        // without adding further look-ahead counts.
        assert!(service.fetch_frame(id, 1).unwrap().cached);
        let stats = service.stats_json();
        let cache = stats.get("cache").unwrap();
        assert_eq!(
            cache.get("inserted_lookahead").and_then(Json::as_f64),
            Some(2.0)
        );
        handle.shutdown();
    }

    #[test]
    fn advance_walks_the_head_forward() {
        let handle = start();
        let service = handle.service();
        let id = service.create_session(tiny_spec()).unwrap();
        let a = service.advance(id).unwrap();
        let b = service.advance(id).unwrap();
        assert_eq!(a.frame, 0);
        assert_eq!(b.frame, 1);
        assert!(a.bytes != b.bytes);
        handle.shutdown();
    }

    #[test]
    fn advance_keeps_progressing_after_a_cached_rewind() {
        let handle = start();
        let service = handle.service();
        let id = service.create_session(tiny_spec()).unwrap();
        // Walk ahead, then rewind to a cached frame.
        service.fetch_frame(id, 2).unwrap();
        let rewound = service.fetch_frame(id, 0).unwrap();
        assert!(rewound.cached);
        // Advance must continue past the rewound frame — serving cached
        // frames 1 and 2, then rendering fresh frame 3 — never freezing on
        // one index.
        let frames: Vec<u64> = (0..3).map(|_| service.advance(id).unwrap().frame).collect();
        assert_eq!(frames, vec![1, 2, 3]);
        handle.shutdown();
    }

    #[test]
    fn zero_deadline_requests_are_shed_unless_cached() {
        let handle = start();
        let service = handle.service();
        let id = service.create_session(tiny_spec()).unwrap();
        // An uncached frame with no budget left sheds at admission...
        assert!(matches!(
            service.fetch_frame_deadline(id, 0, Some(0)),
            Err(ServiceError::DeadlineExceeded)
        ));
        // ...but once the frame is cached, even a spent deadline serves it
        // (the cache probe costs nothing).
        service.fetch_frame(id, 0).unwrap();
        assert!(service.fetch_frame_deadline(id, 0, Some(0)).unwrap().cached);
        let stats = service.stats_json();
        let pressure = stats.get("pressure").unwrap();
        assert_eq!(
            pressure.get("deadline_shed").and_then(Json::as_f64),
            Some(1.0)
        );
        handle.shutdown();
    }

    #[test]
    fn quarantined_sessions_refuse_requests_and_are_reaped() {
        let handle = start();
        let service = handle.service();
        let id = service.create_session(tiny_spec()).unwrap();
        let session = service.session_handle(id).unwrap();
        assert!(lock_recover(&session, revalidate_session).quarantine());
        assert!(
            matches!(service.fetch_frame(id, 0), Err(ServiceError::Quarantined)),
            "a quarantined session answers every frame request with the typed error"
        );
        assert!(matches!(
            service.steer(id, FieldSpec::Shear { rate: 1.0 }),
            Err(ServiceError::Quarantined)
        ));
        // The /stats sweep reaps it immediately — no idle timeout needed.
        service.sweep_idle();
        assert!(matches!(
            service.fetch_frame(id, 0),
            Err(ServiceError::NotFound)
        ));
        handle.shutdown();
    }

    #[test]
    fn unknown_sessions_and_bad_requests_are_typed_errors() {
        let handle = start();
        let service = handle.service();
        assert!(matches!(
            service.fetch_frame(999, 0),
            Err(ServiceError::NotFound)
        ));
        assert_eq!(service.close_session(999), Err(ServiceError::NotFound));
        let id = service.create_session(tiny_spec()).unwrap();
        match service.fetch_frame(id, 100_000) {
            Err(ServiceError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn routing_covers_crud_and_errors() {
        let handle = start();
        let service = handle.service();
        let req = |method: &str, path: &str, body: &[u8]| Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_vec(),
            keep_alive: true,
            deadline_ms: None,
        };
        let created = service.route(&req("POST", "/sessions", b""));
        assert_eq!(created.status, 201);
        let doc = Json::parse(std::str::from_utf8(&created.body).unwrap()).unwrap();
        let sid = doc
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(
            doc.get("frame_bytes").and_then(Json::as_f64),
            Some((128 * 128 * 4) as f64)
        );

        let frame = service.route(&req("GET", &format!("/sessions/{sid}/frame/0"), b""));
        assert_eq!(frame.status, 200);
        assert_eq!(frame.body.len(), 128 * 128 * 4);
        assert!(frame
            .headers
            .iter()
            .any(|(k, v)| k == "X-Frame-Cache" && v == "miss"));
        // Every served response carries the node's identity (the bound
        // address when no --node-id was configured).
        assert!(frame.headers.iter().any(|(k, _)| k == "X-Node-Id"));

        assert_eq!(service.route(&req("GET", "/healthz", b"")).status, 200);
        assert_eq!(service.route(&req("GET", "/stats", b"")).status, 200);
        assert_eq!(service.route(&req("GET", "/nope", b"")).status, 404);
        assert_eq!(service.route(&req("PUT", "/stats", b"")).status, 405);
        assert_eq!(
            service
                .route(&req("GET", "/sessions/s-99/frame/0", b""))
                .status,
            404
        );
        assert_eq!(
            service
                .route(&req("GET", &format!("/sessions/{sid}/frame/x"), b""))
                .status,
            400
        );
        let steered = service.route(&req(
            "POST",
            &format!("/sessions/{sid}/steer"),
            br#"{"kind": "shear", "rate": 2.0}"#,
        ));
        assert_eq!(steered.status, 200);
        assert_eq!(
            service
                .route(&req("DELETE", &format!("/sessions/{sid}"), b""))
                .status,
            204
        );
        assert_eq!(
            service
                .route(&req("DELETE", &format!("/sessions/{sid}"), b""))
                .status,
            404
        );
        handle.shutdown();
    }

    #[test]
    fn cache_probe_endpoint_peeks_without_counting() {
        let handle = start();
        let service = handle.service();
        let req = |path: &str| Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: Vec::new(),
            keep_alive: true,
            deadline_ms: None,
        };
        let id = service.create_session(tiny_spec()).unwrap();
        let rendered = service.fetch_frame(id, 0).unwrap();
        let session = service.session_handle(id).unwrap();
        let key = lock_recover(&session, revalidate_session).key_for(0);
        let path = format!(
            "/cache/{:x}/{:x}/{:x}/{:x}",
            key.field, key.config, key.seed, key.frame
        );
        let probe = service.route(&req(&path));
        assert_eq!(probe.status, 200);
        assert_eq!(&*probe.body, &*rendered.bytes);
        // A probe for a frame nobody rendered answers 404 — and neither
        // probe moved the hit/miss counters (peek is uncounted).
        let miss = service.route(&req(&format!(
            "/cache/{:x}/{:x}/{:x}/{:x}",
            key.field,
            key.config,
            key.seed,
            key.frame + 7
        )));
        assert_eq!(miss.status, 404);
        let stats = service.stats_json();
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(0.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
        let cluster = stats.get("cluster").unwrap();
        assert_eq!(cluster.get("peer_serves").and_then(Json::as_f64), Some(1.0));
        assert_eq!(service.route(&req("/cache/zz/0/0/0")).status, 400);
        handle.shutdown();
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: Vec::new(),
            keep_alive: true,
            deadline_ms: None,
        }
    }

    #[test]
    fn session_id_and_cache_key_aliases_name_nothing() {
        let handle = start();
        let service = handle.service();
        let id = service.create_session(tiny_spec()).unwrap();
        assert_eq!(id, 1);
        assert_eq!(service.route(&get("/sessions/s-1")).status, 200);
        // `s-01` and `s-+1` parse to 1 under `u64::from_str`; only the
        // formatter's own spelling names the session.
        for alias in ["s-01", "s-+1", "s-001", "n0.s-1"] {
            for path in [
                format!("/sessions/{alias}"),
                format!("/sessions/{alias}/frame/0"),
            ] {
                assert_eq!(service.route(&get(&path)).status, 404, "{path}");
            }
        }
        for alias in ["/cache/01/1/1/1", "/cache/A/1/1/1", "/cache/+1/1/1/1"] {
            assert_eq!(service.route(&get(alias)).status, 400, "{alias}");
        }
        handle.shutdown();
    }

    #[test]
    fn a_refused_stream_is_tagged_and_counted_once() {
        let options = ServiceOptions {
            node_id: Some("w7".to_string()),
            ..tiny_options()
        };
        let handle = serve("127.0.0.1:0", options).expect("bind loopback");
        let mut client = crate::client::ServiceClient::connect(handle.addr()).expect("connect");
        let reply = client
            .request("GET", "/sessions/s-1/stream?count=0", b"")
            .expect("reply");
        assert_eq!(reply.status, 400);
        assert_eq!(reply.header("x-node-id"), Some("w7"));
        let stats = handle.service().stats_json();
        let requests = stats.get("http").and_then(|h| h.get("requests"));
        assert_eq!(requests.and_then(Json::as_f64), Some(1.0));
        handle.shutdown();
    }
}
