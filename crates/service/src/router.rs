//! The cluster front tier: a stateless router sharding sessions across
//! worker nodes.
//!
//! The paper divides one spot-noise frame over the processors of a single
//! machine; this tier divides many *sessions* over worker processes, which
//! is how the service scales past one box. The router holds no session
//! state at all — placement is a pure function of the session spec (a
//! [`HashRing`] over the worker set), and the cluster session id it hands
//! out (`n<node>.s-<n>`, [`ClusterSessionId`]) embeds the owning node, so
//! every follow-up request routes by parsing its own id. Three design
//! points carry the tier:
//!
//! * **Shared-field co-location** — a shared session's ring key is its
//!   broadcast [`ChannelKey`], so every subscriber to one `(field, config,
//!   seed)` lands on the same worker and the channel fan-out (one
//!   synthesis, N deliveries) keeps working across the cluster. Private
//!   sessions hash a creation counter instead, spreading them evenly.
//! * **Degraded routing** — placement consults each worker's tri-state
//!   `/healthz` (briefly cached): a saturated or dead node is walked past
//!   on the ring, and the router sheds `503` only when *every* worker is
//!   down. Workers route *around* trouble before the cluster turns anyone
//!   away, mirroring the per-node pressure ladder.
//! * **Aggregated observability** — `/stats` serves a cluster view
//!   (per-node documents plus counters folded by
//!   [`aggregate_stats`] according to each
//!   field's declared kind, so sums are summed and peaks are maxed),
//!   `/metrics` re-exports every worker's series under a `node` label
//!   next to the router's own counters, and `/healthz` degrades through
//!   `ok`/`degraded`/`unavailable` as workers fall over.
//!
//! Frame responses and streams are relayed intact — `X-Frame-*`,
//! `X-Node-Id`, `Retry-After` and frame-record flags pass through
//! unchanged, so a frame fetched through the router is bit- and
//! metadata-identical to one fetched from the worker directly.

use crate::channel::ChannelKey;
use crate::client::{ClientError, ClientPool, HttpReply, ServiceClient};
use crate::cluster::{aggregate_stats, ClusterSessionId, HashRing};
use crate::http::{
    finish_chunked, write_frame_record, write_stream_head, FrameRecord, Request, Response,
};
use crate::metrics::{self, RouterCounters, RouterSnapshot};
use crate::server::{parse_stream_request, serve_front, FrontHandle, Frontend};
use crate::spec::SessionSpec;
use softpipe::sync::lock_recover;
use spotnoise::hash::StableHasher;
use spotnoise::json::Json;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`serve_router`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// The worker node addresses, in ring order. Index `i` here is node
    /// `i` in every cluster session id, so the list must be identical
    /// (same order) across router replicas.
    pub workers: Vec<SocketAddr>,
    /// The router's own identity for `X-Node-Id` tagging; defaults to
    /// `router@<bound address>`.
    pub node_id: Option<String>,
    /// TCP connect deadline for proxied requests.
    pub connect_timeout: Duration,
    /// Blocking-read deadline for proxied requests (covers synthesis).
    pub read_timeout: Duration,
    /// Connect + read deadline for `/healthz` probes — short, so a hung
    /// worker delays placement by milliseconds, not a synthesis timeout.
    pub health_timeout: Duration,
    /// How long one health probe answer stays fresh. Within the TTL every
    /// placement reuses the cached state; past it the next placement
    /// re-probes.
    pub health_ttl: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            workers: Vec::new(),
            node_id: None,
            connect_timeout: Duration::from_secs(1),
            read_timeout: crate::client::DEFAULT_READ_TIMEOUT,
            health_timeout: Duration::from_millis(250),
            health_ttl: Duration::from_millis(250),
        }
    }
}

/// What the router knows about one worker's health, from its tri-state
/// `/healthz` (plus `Down` for a worker it cannot reach).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Serving normally.
    Ok,
    /// Serving with speculative work disabled — still a placement target.
    Elevated,
    /// Shedding load (or shutting down): placement walks past it while any
    /// healthier node exists, but it still beats `Down`.
    Saturated,
    /// Unreachable.
    Down,
}

impl NodeState {
    fn name(self) -> &'static str {
        match self {
            NodeState::Ok => "ok",
            NodeState::Elevated => "elevated",
            NodeState::Saturated => "saturated",
            NodeState::Down => "down",
        }
    }
}

struct WorkerNode {
    addr: SocketAddr,
    pool: ClientPool,
}

#[derive(Clone, Copy)]
struct HealthEntry {
    state: NodeState,
    checked: Option<Instant>,
}

/// The cluster router: consistent-hash placement over worker nodes plus a
/// proxying front end for the full service API.
pub struct Router {
    options: RouterOptions,
    ring: HashRing,
    nodes: Vec<WorkerNode>,
    health: Vec<Mutex<HealthEntry>>,
    node_id: Mutex<String>,
    addr: Mutex<Option<SocketAddr>>,
    shutdown: AtomicBool,
    counters: RouterCounters,
    /// Salts private-session placement so unshared sessions spread over
    /// the ring instead of piling onto one arc.
    create_salt: AtomicU64,
    started: Instant,
}

impl Router {
    /// Builds a router over the workers in `options`. Errors when the
    /// worker list is empty — a router with nothing behind it can serve
    /// nothing.
    pub fn new(options: RouterOptions) -> io::Result<Arc<Router>> {
        if options.workers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one worker address",
            ));
        }
        let nodes: Vec<WorkerNode> = options
            .workers
            .iter()
            .map(|&addr| WorkerNode {
                addr,
                pool: ClientPool::new(addr)
                    .with_connect_timeout(options.connect_timeout)
                    .with_read_timeout(Some(options.read_timeout)),
            })
            .collect();
        let health = nodes
            .iter()
            .map(|_| {
                Mutex::new(HealthEntry {
                    state: NodeState::Ok,
                    checked: None,
                })
            })
            .collect();
        let node_id = options.node_id.clone().unwrap_or_default();
        Ok(Arc::new(Router {
            ring: HashRing::new(nodes.len()),
            nodes,
            health,
            node_id: Mutex::new(node_id),
            addr: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            counters: RouterCounters::default(),
            create_salt: AtomicU64::new(0),
            started: Instant::now(),
            options,
        }))
    }

    /// The router's cluster identity (`X-Node-Id` on router-origin
    /// responses).
    pub fn node_id(&self) -> String {
        lock_recover(&self.node_id, |_| {}).clone()
    }

    fn set_default_node_id(&self, id: &str) {
        let mut slot = lock_recover(&self.node_id, |_| {});
        if slot.is_empty() {
            *slot = id.to_string();
        }
    }

    /// The worker addresses the router was built over, in node-index
    /// order.
    pub fn workers(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    /// Initiates shutdown of the router (the workers keep running) and
    /// pokes the accept loop.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = *lock_recover(&self.addr, |_| {}) {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }

    /// Probes one worker's `/healthz` with the short health deadlines.
    fn probe_health(&self, idx: usize) -> NodeState {
        let addr = self.nodes[idx].addr;
        let mut client = match ServiceClient::connect_with_timeouts(
            addr,
            Some(self.options.health_timeout),
            Some(self.options.health_timeout),
        ) {
            Ok(client) => client,
            Err(_) => return NodeState::Down,
        };
        let Ok(reply) = client.request("GET", "/healthz", b"") else {
            return NodeState::Down;
        };
        let status = reply
            .json()
            .ok()
            .and_then(|doc| doc.get("status").and_then(Json::as_str).map(str::to_string));
        match status.as_deref() {
            Some("ok") => NodeState::Ok,
            Some("elevated") => NodeState::Elevated,
            Some("saturated") => NodeState::Saturated,
            // A shutting-down worker refuses new work; treat it as gone.
            Some("shutting_down") => NodeState::Down,
            _ => {
                if reply.status == 200 {
                    NodeState::Ok
                } else {
                    NodeState::Down
                }
            }
        }
    }

    /// The worker's health state, re-probing when the cached answer is
    /// older than the TTL.
    fn node_state(&self, idx: usize) -> NodeState {
        {
            let entry = lock_recover(&self.health[idx], |_| {});
            if let Some(checked) = entry.checked {
                if checked.elapsed() < self.options.health_ttl {
                    return entry.state;
                }
            }
        }
        // Probe outside the lock: a slow worker must not serialize every
        // placement behind one probe. Concurrent placements may each probe
        // once at the TTL edge; the last write wins and all agree soon.
        let state = self.probe_health(idx);
        let mut entry = lock_recover(&self.health[idx], |_| {});
        *entry = HealthEntry {
            state,
            checked: Some(Instant::now()),
        };
        state
    }

    /// Marks a worker down after a transport failure on the proxy path —
    /// the next placement walks past it without waiting for a probe.
    fn mark_down(&self, idx: usize) {
        self.counters.node_errors.fetch_add(1, Ordering::Relaxed);
        let mut entry = lock_recover(&self.health[idx], |_| {});
        *entry = HealthEntry {
            state: NodeState::Down,
            checked: Some(Instant::now()),
        };
    }

    /// The ring key a create request places by: shared sessions hash
    /// their broadcast channel key (co-locating every subscriber), private
    /// sessions hash a creation counter (spreading load).
    fn ring_key_for(&self, spec: &SessionSpec) -> u64 {
        let mut h = StableHasher::new();
        if spec.shared {
            let key = ChannelKey::of(spec);
            h.write_str("spotnoise-shared-placement");
            h.write_u64(key.field);
            h.write_u64(key.config);
            h.write_u64(key.seed);
        } else {
            h.write_str("spotnoise-private-placement");
            h.write_u64(self.create_salt.fetch_add(1, Ordering::Relaxed));
        }
        h.finish()
    }

    /// Places a key on the healthiest node in its ring walk: the first
    /// node that is up and not saturated; failing that, the first node
    /// that is at least up; failing *that*, a shed.
    fn place(&self, key: u64) -> Result<usize, Response> {
        let walk: Vec<usize> = self.ring.nodes_for(key).collect();
        let preferred = walk.first().copied();
        let states: Vec<NodeState> = walk.iter().map(|&idx| self.node_state(idx)).collect();
        let chosen = walk
            .iter()
            .zip(&states)
            .find(|(_, &s)| matches!(s, NodeState::Ok | NodeState::Elevated))
            .or_else(|| {
                walk.iter()
                    .zip(&states)
                    .find(|(_, &s)| s == NodeState::Saturated)
            })
            .map(|(&idx, _)| idx);
        match chosen {
            Some(idx) => {
                if preferred != Some(idx) {
                    self.counters.rerouted.fetch_add(1, Ordering::Relaxed);
                }
                Ok(idx)
            }
            None => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(
                    Response::error(503, "cluster_unavailable", "every worker node is down")
                        .with_header("Retry-After", "1"),
                )
            }
        }
    }

    /// Sends one proxied request to a worker, mapping transport failure to
    /// a `503` (and marking the node down).
    fn forward_reply(
        &self,
        idx: usize,
        method: &str,
        path: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
    ) -> Result<HttpReply, Response> {
        match self.nodes[idx]
            .pool
            .request_with_headers(method, path, extra_headers, body)
        {
            Ok(reply) => {
                self.counters.proxied.fetch_add(1, Ordering::Relaxed);
                Ok(reply)
            }
            Err(_) => {
                self.mark_down(idx);
                Err(Response::error(
                    503,
                    "node_unavailable",
                    &format!("worker node {idx} is unreachable"),
                )
                .with_header("Retry-After", "1"))
            }
        }
    }

    /// Re-encodes a worker reply as a router response: status and body
    /// verbatim, `X-*` and `Retry-After` headers forwarded intact, content
    /// type mapped back onto the codec's static set.
    fn reply_to_response(reply: HttpReply) -> Response {
        let content_type = match reply.header("content-type") {
            Some(value) if value.starts_with("application/json") => "application/json",
            Some(value) if value.starts_with("text/plain") => "text/plain; version=0.0.4",
            _ => "application/octet-stream",
        };
        let mut response = Response {
            status: reply.status,
            content_type,
            headers: Vec::new(),
            body: Arc::new(reply.body),
        };
        for (name, value) in &reply.headers {
            if name.starts_with("x-") || name == "retry-after" {
                response = response.with_header(name, value.clone());
            }
        }
        response
    }

    /// The extra headers a proxied request carries forward.
    fn forward_headers(request: &Request) -> Vec<(&'static str, String)> {
        match request.deadline_ms {
            Some(ms) => vec![("X-Deadline-Ms", ms.to_string())],
            None => Vec::new(),
        }
    }

    /// Handles `POST /sessions`: parse the spec, place it on the ring,
    /// create it on the chosen worker, and rewrite the returned session id
    /// into its cluster form.
    fn create_session(&self, request: &Request) -> Response {
        let spec = match SessionSpec::from_body(&request.body) {
            Ok(spec) => spec,
            Err(detail) => return Response::error(400, "bad_request", &detail),
        };
        let node = match self.place(self.ring_key_for(&spec)) {
            Ok(node) => node,
            Err(response) => return response,
        };
        let reply = match self.forward_reply(
            node,
            "POST",
            "/sessions",
            &Self::forward_headers(request),
            &request.body,
        ) {
            Ok(reply) => reply,
            Err(response) => return response,
        };
        if reply.status != 201 {
            return Self::reply_to_response(reply);
        }
        let Ok(Json::Object(mut entries)) = reply.json() else {
            return Response::error(502, "bad_upstream", "worker create reply is not JSON");
        };
        let mut rewritten = false;
        for (name, value) in entries.iter_mut() {
            if name == "session" {
                if let Json::Str(local) = value {
                    *value = Json::str(
                        ClusterSessionId {
                            node,
                            local: local.clone(),
                        }
                        .format(),
                    );
                    rewritten = true;
                }
            }
        }
        if !rewritten {
            return Response::error(502, "bad_upstream", "worker create reply has no session id");
        }
        self.counters
            .sessions_created
            .fetch_add(1, Ordering::Relaxed);
        let mut response = Response::json(201, Json::Object(entries));
        for (name, value) in &reply.headers {
            if name.starts_with("x-") {
                response = response.with_header(name, value.clone());
            }
        }
        response
    }

    /// Rewrites a cluster session path onto the owning worker and proxies
    /// it. `tail` is everything after the session id segment.
    fn forward_session(
        &self,
        request: &Request,
        cid: &str,
        tail: &[&str],
        query: &str,
    ) -> Response {
        let Some(id) = ClusterSessionId::parse(cid) else {
            return Response::error(
                404,
                "not_found",
                "not a cluster session id (expected n<node>.s-<n>)",
            );
        };
        if id.node >= self.nodes.len() {
            return Response::error(404, "not_found", "session id names an unknown node");
        }
        let mut path = format!("/sessions/{}", id.local);
        for segment in tail {
            path.push('/');
            path.push_str(segment);
        }
        if !query.is_empty() {
            path.push('?');
            path.push_str(query);
        }
        match self.forward_reply(
            id.node,
            &request.method,
            &path,
            &Self::forward_headers(request),
            &request.body,
        ) {
            Ok(reply) => Self::reply_to_response(reply),
            Err(response) => response,
        }
    }

    /// The aggregated cluster `/healthz`: `ok` when every worker is
    /// healthy, `degraded` (still 200) while any worker serves, and
    /// `unavailable` (503) when none does.
    fn healthz_response(&self) -> Response {
        let states: Vec<NodeState> = (0..self.nodes.len()).map(|i| self.node_state(i)).collect();
        let serving = states.iter().filter(|&&s| s != NodeState::Down).count();
        let clean = states.iter().filter(|&&s| s == NodeState::Ok).count();
        let shutting_down = self.is_shutting_down();
        let (status, label) = if shutting_down || serving == 0 {
            (
                503,
                if shutting_down {
                    "shutting_down"
                } else {
                    "unavailable"
                },
            )
        } else if clean == states.len() {
            (200, "ok")
        } else {
            (200, "degraded")
        };
        Response::json(
            status,
            Json::object([
                ("status", Json::str(label)),
                ("workers", Json::num(states.len() as f64)),
                ("serving", Json::num(serving as f64)),
                ("shutting_down", Json::Bool(shutting_down)),
                (
                    "nodes",
                    Json::array(self.nodes.iter().zip(&states).map(|(node, state)| {
                        Json::object([
                            ("addr", Json::str(node.addr.to_string())),
                            ("state", Json::str(state.name())),
                        ])
                    })),
                ),
            ]),
        )
    }

    /// Reads every declared router metric; `workers_up` is how many
    /// workers answered the request being served.
    fn snapshot(&self, workers_up: usize) -> RouterSnapshot {
        RouterSnapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            id: self.node_id(),
            workers: self.nodes.len(),
            workers_up,
            counters: self.counters.snapshot(),
        }
    }

    /// The cluster `/stats` document (schema `spotnoise_cluster_stats/v1`):
    /// router counters, the aggregated cluster view, and every reachable
    /// worker's own document.
    fn stats_response(&self) -> Response {
        let mut docs: Vec<Json> = Vec::new();
        let per_node: Vec<Json> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(idx, node)| {
                let reply = node.pool.request("GET", "/stats", b"").ok();
                let doc = reply.as_ref().and_then(|r| r.json().ok());
                let up = doc.is_some();
                let id = doc
                    .as_ref()
                    .and_then(|d| d.get("node"))
                    .and_then(|n| n.get("id"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let mut fields = vec![
                    ("node".to_string(), Json::num(idx as f64)),
                    ("addr".to_string(), Json::str(node.addr.to_string())),
                    ("up".to_string(), Json::Bool(up)),
                    ("id".to_string(), Json::str(id)),
                ];
                if let Some(doc) = doc {
                    docs.push(doc.clone());
                    fields.push(("stats".to_string(), doc));
                }
                Json::Object(fields)
            })
            .collect();
        let mut doc = vec![(
            "schema".to_string(),
            Json::str("spotnoise_cluster_stats/v1"),
        )];
        doc.extend(metrics::stats_object(
            metrics::ROUTER,
            &self.snapshot(docs.len()),
        ));
        doc.push(("cluster".to_string(), aggregate_stats(&docs)));
        doc.push(("per_node".to_string(), Json::array(per_node)));
        Response::json(200, Json::Object(doc))
    }

    /// The cluster `/metrics`: the router's own counters plus every
    /// reachable worker's exposition re-labeled with `node="<addr>"` so
    /// one scrape sees the whole cluster without series colliding.
    fn metrics_response(&self) -> Response {
        let texts: Vec<(String, String)> = self
            .nodes
            .iter()
            .filter_map(|node| {
                let reply = node.pool.request("GET", "/metrics", b"").ok()?;
                let text = String::from_utf8(reply.body).ok()?;
                Some((node.addr.to_string(), text))
            })
            .collect();
        let mut out = String::with_capacity(16384);
        metrics::write_prometheus(&mut out, metrics::ROUTER, &self.snapshot(texts.len()));
        for (i, (label, text)) in texts.iter().enumerate() {
            relabel_metrics(&mut out, text, label, i == 0);
        }
        Response::text(200, "text/plain; version=0.0.4", out)
    }

    fn route_untagged(&self, request: &Request) -> Response {
        self.counters.http_requests.fetch_add(1, Ordering::Relaxed);
        softpipe::fault::fire("route");
        let (path, query) = match request.path.split_once('?') {
            Some((path, query)) => (path, query),
            None => (request.path.as_str(), ""),
        };
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => self.healthz_response(),
            ("GET", ["stats"]) => self.stats_response(),
            ("GET", ["metrics"]) => self.metrics_response(),
            ("GET", ["trace"]) => Response::error(
                404,
                "not_found",
                "traces are per-node; query a worker's /trace directly",
            ),
            ("POST", ["shutdown"]) => {
                // Shuts the *router* down; the workers keep serving (and
                // another router replica can pick them up).
                self.request_shutdown();
                Response::json(200, Json::object([("status", Json::str("shutting down"))]))
            }
            ("POST", ["sessions"]) => self.create_session(request),
            (_, ["sessions", cid, tail @ ..]) => self.forward_session(request, cid, tail, query),
            (_, ["sessions"])
            | (_, ["stats"])
            | (_, ["healthz"])
            | (_, ["shutdown"])
            | (_, ["metrics"])
            | (_, ["trace"]) => {
                Response::error(405, "method_not_allowed", "wrong method for this path")
            }
            _ => Response::error(404, "not_found", "unknown path"),
        }
    }

    /// Tags a router-origin response with the router's identity. Proxied
    /// responses already carry the answering worker's `X-Node-Id`, which
    /// is the interesting one — it is left untouched.
    fn tag_node(&self, response: Response) -> Response {
        if response
            .headers
            .iter()
            .any(|(name, _)| name.eq_ignore_ascii_case("x-node-id"))
        {
            return response;
        }
        let id = self.node_id();
        if id.is_empty() {
            response
        } else {
            response.with_header("X-Node-Id", id)
        }
    }

    /// Relays one frame stream from the owning worker: head and every
    /// frame record pass through intact (flags included), re-framed onto
    /// this connection's chunked encoding.
    fn relay_stream(
        &self,
        out: &mut TcpStream,
        sid: &str,
        from: u64,
        count: u64,
        keep_alive: bool,
    ) -> io::Result<()> {
        let Some(id) = ClusterSessionId::parse(sid) else {
            return self
                .tag_node(Response::error(
                    404,
                    "not_found",
                    "not a cluster session id",
                ))
                .write_to(out, keep_alive);
        };
        if id.node >= self.nodes.len() {
            return self
                .tag_node(Response::error(
                    404,
                    "not_found",
                    "session id names an unknown node",
                ))
                .write_to(out, keep_alive);
        }
        let mut client = match self.nodes[id.node].pool.checkout() {
            Ok(client) => client,
            Err(_) => {
                self.mark_down(id.node);
                return Response::error(503, "node_unavailable", "worker node is unreachable")
                    .with_header("Retry-After", "1")
                    .write_to(out, keep_alive);
            }
        };
        let mut upstream = match client.stream_frames(&id.local, from, count) {
            Ok(stream) => stream,
            Err(err) => {
                let response = match err {
                    ClientError::NotFound => {
                        Response::error(404, "not_found", "no such session on its node")
                    }
                    ClientError::Busy { .. } => {
                        Response::error(503, "busy", "worker at capacity, retry later")
                            .with_header("Retry-After", "1")
                    }
                    ClientError::Http(status, body) => Response::error(status, "upstream", &body),
                    ClientError::TimedOut | ClientError::Io(_) => {
                        self.mark_down(id.node);
                        Response::error(503, "node_unavailable", "worker node is unreachable")
                            .with_header("Retry-After", "1")
                    }
                };
                return self.tag_node(response).write_to(out, keep_alive);
            }
        };
        self.counters
            .streams_relayed
            .fetch_add(1, Ordering::Relaxed);
        let mut headers: Vec<(String, String)> = Vec::new();
        for name in ["x-stream-from", "x-stream-count", "x-node-id"] {
            if let Some(value) = upstream.header(name) {
                headers.push((name.to_string(), value.to_string()));
            }
        }
        write_stream_head(out, 200, &headers, keep_alive)?;
        loop {
            match upstream.next_frame() {
                Ok(Some(frame)) => {
                    let record = FrameRecord {
                        frame: frame.frame,
                        len: frame.bytes.len() as u32,
                        cached: frame.cached,
                        skipped: frame.skipped,
                        stale: frame.stale,
                        degraded: frame.degraded,
                        peer: frame.peer,
                    };
                    write_frame_record(out, &record, &frame.bytes)?;
                    self.counters.frames_relayed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => break,
                // The relay's head is long written: end the downstream
                // stream cleanly at the frames already delivered. The
                // upstream connection is desynced and will be discarded
                // rather than reshelved.
                Err(_) => break,
            }
        }
        finish_chunked(out)
    }
}

impl Frontend for Router {
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn note_panic(&self) {
        self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    fn route(&self, request: &Request) -> Response {
        self.tag_node(self.route_untagged(request))
    }

    fn try_stream(
        &self,
        out: &mut TcpStream,
        request: &Request,
        keep_alive: bool,
    ) -> Option<io::Result<()>> {
        let raw = match parse_stream_request(request)? {
            Ok(raw) => raw,
            Err(response) => {
                self.counters.http_requests.fetch_add(1, Ordering::Relaxed);
                return Some(self.tag_node(response).write_to(out, keep_alive));
            }
        };
        self.counters.http_requests.fetch_add(1, Ordering::Relaxed);
        Some(self.relay_stream(out, &raw.sid, raw.from, raw.count, keep_alive))
    }
}

/// Appends one worker's Prometheus exposition to `out` with a
/// `node="<label>"` label spliced into every series, so two workers'
/// identical metric names stay distinct in one scrape. `# HELP`/`# TYPE`
/// lines are kept for the first worker only — they describe the name, not
/// the node.
fn relabel_metrics(out: &mut String, text: &str, label: &str, include_meta: bool) {
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if include_meta {
                out.push_str(line);
                out.push('\n');
            }
            continue;
        }
        match line.find('{') {
            Some(brace) => {
                out.push_str(&line[..brace]);
                out.push_str(&format!("{{node=\"{label}\","));
                out.push_str(&line[brace + 1..]);
            }
            None => match line.find(' ') {
                Some(space) => {
                    out.push_str(&line[..space]);
                    out.push_str(&format!("{{node=\"{label}\"}}"));
                    out.push_str(&line[space..]);
                }
                None => out.push_str(line),
            },
        }
        out.push('\n');
    }
}

/// A running cluster router.
pub type RouterHandle = FrontHandle<Router>;

impl RouterHandle {
    /// The shared router state (for in-process callers and tests).
    pub fn router(&self) -> &Arc<Router> {
        self.front()
    }
}

/// Binds `addr`, spawns the accept loop, and returns the running router's
/// handle. Fails fast when `options.workers` is empty; the workers
/// themselves may come up later — placement marks unreachable nodes down
/// and retries them as they appear.
pub fn serve_router(addr: impl ToSocketAddrs, options: RouterOptions) -> io::Result<RouterHandle> {
    softpipe::fault::install_from_env();
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let router = Router::new(options)?;
    *lock_recover(&router.addr, |_| {}) = Some(local);
    router.set_default_node_id(&format!("router@{local}"));
    serve_front(listener, router, Vec::new(), Router::request_shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_refuses_an_empty_worker_list() {
        assert!(Router::new(RouterOptions::default()).is_err());
    }

    #[test]
    fn relabel_splices_the_node_label() {
        let text = "# HELP m a metric\n# TYPE m counter\nm 3\nh{le=\"1\"} 2\n";
        let mut first = String::new();
        relabel_metrics(&mut first, text, "a:1", true);
        assert!(first.contains("# HELP m a metric"));
        assert!(first.contains("m{node=\"a:1\"} 3"));
        assert!(first.contains("h{node=\"a:1\",le=\"1\"} 2"));
        let mut second = String::new();
        relabel_metrics(&mut second, text, "b:2", false);
        assert!(!second.contains("# HELP"));
        assert!(second.contains("m{node=\"b:2\"} 3"));
    }

    #[test]
    fn shared_specs_place_deterministically_and_private_specs_spread() {
        let options = RouterOptions {
            workers: vec![
                "127.0.0.1:1".parse().unwrap(),
                "127.0.0.1:2".parse().unwrap(),
            ],
            ..RouterOptions::default()
        };
        let router = Router::new(options).unwrap();
        let shared = SessionSpec::from_body(br#"{"shared": true}"#).unwrap();
        let a = router.ring_key_for(&shared);
        let b = router.ring_key_for(&shared);
        assert_eq!(a, b, "identical shared specs must co-locate");
        let private = SessionSpec::from_body(b"{}").unwrap();
        let c = router.ring_key_for(&private);
        let d = router.ring_key_for(&private);
        assert_ne!(c, d, "private placements must be salted apart");
    }
}
