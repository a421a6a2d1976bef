//! A small blocking HTTP client for the service.
//!
//! Used by the loopback load bench (`bench_service`), the integration tests
//! and in-process tooling. One [`ServiceClient`] holds one keep-alive
//! connection, so repeated frame fetches measure server latency rather than
//! TCP handshakes. Blocking reads carry a configurable deadline
//! ([`ServiceClient::connect_with_read_timeout`]) surfaced as
//! [`ClientError::TimedOut`], so a stalled server can never wedge a client
//! forever. [`ServiceClient::stream_frames`] reads the chunked
//! frame-streaming endpoint; a stream abandoned before its terminal chunk
//! leaves undrained chunks in the connection, so the client marks itself
//! desynced and refuses further requests — reconnect to recover.
//!
//! [`ClientPool`] shelves idle keep-alive connections per target address —
//! the router's proxy path and the node core's peer cache probes check
//! connections out, and drop reshelves them unless the connection is
//! desynced or was dropped mid-request.

use crate::api::{self, Call, StreamCall};
use crate::cache::FrameKey;
use crate::http::{
    read_chunk, read_head, FrameRecord, Headers, FRAME_RECORD_HEADER, MAX_CHUNK_BYTES,
};
use softpipe::sync::lock_recover;
use spotnoise::json::Json;
use std::fmt::Display;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Response headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// The value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        api::header(&self.headers, name)
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(std::str::from_utf8(&self.body).map_err(|e| e.to_string())?)
    }
}

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// A blocking read hit the configured deadline before the server
    /// replied — distinct from [`ClientError::Io`] so callers can retry or
    /// reconnect instead of treating a slow server as a broken one.
    TimedOut,
    /// The server shed the request (`503`: busy, deadline shed, or
    /// shutting down), carrying the parsed `Retry-After` hint when the
    /// server sent one.
    Busy {
        /// How long the server asked the client to wait before retrying.
        retry_after: Option<Duration>,
    },
    /// The server does not know the session (`404`).
    NotFound,
    /// Any other non-success status.
    Http(u16, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::TimedOut => write!(f, "read deadline expired"),
            ClientError::Busy { .. } => write!(f, "server busy"),
            ClientError::NotFound => write!(f, "not found"),
            ClientError::Http(status, body) => write!(f, "http {status}: {body}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // `SO_RCVTIMEO` expiry surfaces as WouldBlock on Unix and TimedOut
        // on Windows; both mean "deadline", not "connection broken".
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::TimedOut,
            _ => ClientError::Io(e),
        }
    }
}

/// A fetched frame.
#[derive(Debug, Clone)]
pub struct FetchedFrame {
    /// Little-endian `f32` texels.
    pub bytes: Vec<u8>,
    /// The frame index the server rendered (from `X-Frame-Index`).
    pub frame: u64,
    /// Whether the frame was served from cache rather than synthesized —
    /// local or peer (`X-Frame-Cache` is `hit` or `peer`).
    pub cache_hit: bool,
    /// Whether a fallen-behind subscriber of a shared session was skipped
    /// forward to the channel's live frontier (`X-Frame-Skipped`).
    pub skipped: bool,
    /// Whether the serving node fetched the frame from a sibling node's
    /// cache instead of rendering it (`X-Frame-Cache: peer`).
    pub peer: bool,
    /// Whether a saturated server served the channel's cached frontier
    /// instead of the requested index (`X-Frame-Stale`).
    pub stale: bool,
    /// Whether the frame was rendered under pressure-degraded footprint
    /// sampling (`X-Frame-Degraded`).
    pub degraded: bool,
    /// The identity of the node that served the frame (`X-Node-Id`), when
    /// the server advertises one.
    pub node: Option<String>,
}

/// Backoff parameters for [`ServiceClient::fetch_frame_with_retry`]:
/// jittered exponential backoff on `Busy`/`TimedOut`, honouring the
/// server's `Retry-After` hint when it is longer than the computed backoff.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts, the first request included (minimum 1).
    pub attempts: u32,
    /// Backoff before the first retry; each later retry doubles it.
    pub base: Duration,
    /// Upper bound any single backoff is clamped to (before jitter).
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): exponential
    /// from `base`, clamped to `cap`, then scaled by a jitter factor in
    /// [0.5, 1.0) so a shed burst of clients does not retry in lockstep.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        // xorshift64*: cheap, seedable, good enough to spread retries.
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let unit = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + unit / 2.0)
    }
}

/// One keep-alive connection to a running service.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Set when a chunked stream was abandoned before its terminal chunk:
    /// undrained chunks are still in the connection, so any further request
    /// would read stream data as its response head. Reconnect to recover.
    desynced: bool,
    /// Set while a request is in flight and cleared once its reply has been
    /// fully read. A connection dropped dirty (an error mid-request left
    /// unread reply bytes in the stream) must not be reshelved into a
    /// [`ClientPool`].
    dirty: bool,
    /// The address and deadlines the connection was opened with, kept so
    /// [`ServiceClient::reconnect`] can rebuild it in place.
    addr: SocketAddr,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
}

/// The default blocking-read deadline ([`ServiceClient::connect`]).
pub(crate) const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(120);

impl ServiceClient {
    /// Connects to the server with the default read deadline.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with_read_timeout(addr, Some(DEFAULT_READ_TIMEOUT))
    }

    /// Connects with an explicit blocking-read deadline (`None` blocks
    /// forever). Expiry surfaces as [`ClientError::TimedOut`] from the
    /// typed helpers.
    pub fn connect_with_read_timeout(
        addr: SocketAddr,
        timeout: Option<Duration>,
    ) -> io::Result<Self> {
        Self::connect_with_timeouts(addr, None, timeout)
    }

    /// Connects with both a TCP connect deadline and a blocking-read
    /// deadline (`None` for either blocks forever). The connect deadline is
    /// what keeps a peer probe against a dead sibling node from hanging a
    /// frame request.
    pub(crate) fn connect_with_timeouts(
        addr: SocketAddr,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> io::Result<Self> {
        let stream = match connect_timeout {
            Some(deadline) => TcpStream::connect_timeout(&addr, deadline)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServiceClient {
            reader,
            writer: stream,
            desynced: false,
            dirty: false,
            addr,
            connect_timeout,
            read_timeout,
        })
    }

    /// Drops the connection and opens a fresh one to the same address with
    /// the same read deadline. This is the recovery path for
    /// [`ClientError::TimedOut`] (the late reply would desync the old
    /// keep-alive connection) and for a desynced client.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Self::connect_with_timeouts(self.addr, self.connect_timeout, self.read_timeout)?;
        Ok(())
    }

    fn check_synced(&self) -> io::Result<()> {
        if self.desynced {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection desynced by an abandoned frame stream; reconnect",
            ));
        }
        Ok(())
    }

    fn write_request_head(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: spotnoise\r\n");
        for (name, value) in extra_headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        let _ = write!(head, "Content-Length: {}\r\n\r\n", body.len());
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()
    }

    /// Reads a response's status line and headers (not its body), capped
    /// like a request head.
    fn read_reply_head(&mut self) -> io::Result<(u16, Headers)> {
        let Some((status_line, headers)) = read_head(&mut self.reader)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        };
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        Ok((status, headers))
    }

    /// Sends one request and reads the full (fixed-length) response. A
    /// reply whose head or announced body exceeds its cap fails with
    /// [`io::ErrorKind::InvalidData`] before the excess is buffered.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<HttpReply> {
        self.request_with_headers(method, path, &[], body)
    }

    /// Sends one call and maps a non-success status to its error.
    fn call(&mut self, call: Call<&str>, body: &[u8]) -> Result<HttpReply, ClientError> {
        Self::expect_success(self.request(call.method(), &call.path(), body)?)
    }

    /// [`ServiceClient::request`] with extra request headers (e.g.
    /// `X-Deadline-Ms`).
    pub(crate) fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<HttpReply> {
        self.check_synced()?;
        self.dirty = true;
        self.write_request_head(method, path, extra_headers, body)?;
        let (status, headers) = self.read_reply_head()?;
        self.read_reply_body(status, headers)
    }

    /// Reads the fixed-length body a reply head announces, refusing one
    /// over [`MAX_CHUNK_BYTES`] before buffering it.
    fn read_reply_body(&mut self, status: u16, headers: Headers) -> io::Result<HttpReply> {
        let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
        let content_length = match api::header(&headers, "content-length") {
            Some(value) => value.parse().map_err(|_| invalid("bad content-length"))?,
            None => 0,
        };
        if content_length > MAX_CHUNK_BYTES {
            return Err(invalid("reply body too large"));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        self.dirty = false;
        Ok(HttpReply {
            status,
            headers,
            body,
        })
    }

    fn expect_success(reply: HttpReply) -> Result<HttpReply, ClientError> {
        match reply.status {
            200 | 201 | 204 => Ok(reply),
            404 => Err(ClientError::NotFound),
            503 => Err(ClientError::Busy {
                retry_after: api::read_retry_after(&reply.headers),
            }),
            status => Err(ClientError::Http(
                status,
                String::from_utf8_lossy(&reply.body).into_owned(),
            )),
        }
    }

    /// Creates a session from a JSON spec body (empty for the default
    /// session) and returns its id.
    pub fn create_session(&mut self, spec_body: &str) -> Result<String, ClientError> {
        let reply = self.call(Call::Create, spec_body.as_bytes())?;
        let doc = reply
            .json()
            .map_err(|e| ClientError::Http(reply.status, e))?;
        doc.get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Http(reply.status, "no session id in reply".to_string()))
    }

    fn frame_from_reply(reply: HttpReply) -> Result<FetchedFrame, ClientError> {
        let record = api::read_frame_headers(&reply.headers, reply.body.len() as u32);
        Ok(FetchedFrame {
            node: reply.header(api::NODE_ID).map(str::to_string),
            bytes: reply.body,
            frame: record.frame,
            cache_hit: record.cached,
            skipped: record.skipped,
            peer: record.peer,
            stale: record.stale,
            degraded: record.degraded,
        })
    }

    /// Fetches frame `index` of a session.
    pub fn fetch_frame(&mut self, session: &str, index: u64) -> Result<FetchedFrame, ClientError> {
        Self::frame_from_reply(self.call(Call::Frame(session, index), b"")?)
    }

    /// Probes the server's frame cache for a content-hash key
    /// (`GET /cache/<field>/<config>/<seed>/<frame>`, all hex): `Some`
    /// bytes when cached, `None` when not. This is the peer-lookup path —
    /// the probe is an uncounted peek on the remote cache and never
    /// triggers synthesis, so sibling nodes can consult each other without
    /// recursion or cache-statistics distortion.
    pub(crate) fn fetch_cached(&mut self, key: FrameKey) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(Call::CachePeek(key), b"") {
            Ok(reply) => Ok(Some(reply.body)),
            Err(ClientError::NotFound) => Ok(None),
            Err(err) => Err(err),
        }
    }

    /// Fetches frame `index`, retrying `Busy` sheds and read timeouts under
    /// `policy`: jittered exponential backoff, never sleeping less than the
    /// server's `Retry-After` hint. A timeout additionally reconnects first
    /// — the late reply would desync the old keep-alive connection. Every
    /// other error (and exhaustion of the attempt budget) surfaces as-is.
    pub fn fetch_frame_with_retry(
        &mut self,
        session: &str,
        index: u64,
        policy: RetryPolicy,
    ) -> Result<FetchedFrame, ClientError> {
        let attempts = policy.attempts.max(1);
        let mut rng = index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(std::process::id() as u64)
            | 1;
        let mut attempt = 0;
        loop {
            let err = match self.fetch_frame(session, index) {
                Ok(frame) => return Ok(frame),
                Err(err) => err,
            };
            attempt += 1;
            if attempt >= attempts {
                return Err(err);
            }
            match err {
                ClientError::Busy { retry_after } => {
                    let backoff = policy.backoff(attempt - 1, &mut rng);
                    std::thread::sleep(backoff.max(retry_after.unwrap_or(Duration::ZERO)));
                }
                ClientError::TimedOut => {
                    self.reconnect()?;
                    std::thread::sleep(policy.backoff(attempt - 1, &mut rng));
                }
                other => return Err(other),
            }
        }
    }

    /// Renders and returns the session's next natural frame.
    pub fn advance(&mut self, session: &str) -> Result<FetchedFrame, ClientError> {
        Self::frame_from_reply(self.call(Call::Advance(session), b"")?)
    }

    /// Steers a session to a new field; `field_body` is the field JSON
    /// object (e.g. `{"kind": "shear", "rate": 2.0}`).
    pub fn steer(&mut self, session: &str, field_body: &str) -> Result<(), ClientError> {
        self.call(Call::Steer(session), field_body.as_bytes())?;
        Ok(())
    }

    /// Closes a session.
    pub fn close_session(&mut self, session: &str) -> Result<(), ClientError> {
        self.call(Call::Close(session), b"")?;
        Ok(())
    }

    /// Fetches and parses `/stats`.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let reply = self.call(Call::Stats, b"")?;
        reply.json().map_err(|e| ClientError::Http(200, e))
    }

    /// Fetches `/metrics` (Prometheus text exposition).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let reply = self.call(Call::Metrics, b"")?;
        String::from_utf8(reply.body)
            .map_err(|e| ClientError::Http(200, format!("metrics body not UTF-8: {e}")))
    }

    /// Fetches and parses `/trace?last=N` (Chrome trace-event JSON).
    pub fn trace(&mut self, last: usize) -> Result<Json, ClientError> {
        let reply = self.call(Call::Trace { last }, b"")?;
        reply.json().map_err(|e| ClientError::Http(200, e))
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Call::Shutdown, b"")?;
        Ok(())
    }

    /// Opens a frame stream: `GET /sessions/<id>/stream?from=N&count=k`.
    /// Frames arrive through [`FrameStream::next_frame`] as the server
    /// synthesizes them. Read the stream to its end (`Ok(None)`) — a
    /// [`FrameStream`] dropped early leaves undrained chunks in the
    /// connection, and the client marks itself desynced (every later
    /// request errors; reconnect to recover).
    pub fn stream_frames(
        &mut self,
        session: &str,
        from: u64,
        count: u64,
    ) -> Result<FrameStream<'_>, ClientError> {
        let call = Call::Stream(StreamCall {
            session,
            from,
            count,
        });
        match self.open_stream(&call)? {
            Ok(stream) => Ok(stream),
            Err(reply) => Err(match Self::expect_success(reply) {
                Err(err) => err,
                Ok(reply) => ClientError::Http(reply.status, "unexpected stream status".into()),
            }),
        }
    }

    /// Sends a stream call and reads its head (see
    /// [`ServiceClient::stream_frames`]): the open stream on a `200`, the
    /// drained fixed-length reply on any other status.
    pub(crate) fn open_stream<S: Display>(
        &mut self,
        call: &Call<S>,
    ) -> io::Result<Result<FrameStream<'_>, HttpReply>> {
        self.check_synced()?;
        self.dirty = true;
        self.write_request_head(call.method(), &call.path(), &[], b"")?;
        let (status, headers) = self.read_reply_head()?;
        if status != 200 {
            return self.read_reply_body(status, headers).map(Err);
        }
        let chunked = api::header(&headers, "transfer-encoding")
            .is_some_and(|value| value.eq_ignore_ascii_case("chunked"));
        if !chunked {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream response is not chunked",
            ));
        }
        Ok(Ok(FrameStream {
            client: self,
            head: headers,
            finished: false,
        }))
    }
}

/// One frame read off a [`FrameStream`].
#[derive(Debug, Clone)]
pub struct StreamedFrame {
    /// The frame index the record carries (the live frontier's index when
    /// `skipped` is set).
    pub frame: u64,
    /// Little-endian `f32` texels.
    pub bytes: Vec<u8>,
    /// Whether the server served the frame from its cache.
    pub cached: bool,
    /// Whether the server skipped this (fallen-behind) subscriber forward
    /// to the shared channel's live frontier.
    pub skipped: bool,
    /// Whether a saturated server served the channel's cached frontier.
    pub stale: bool,
    /// Whether the frame was rendered under degraded footprint sampling.
    pub degraded: bool,
    /// Whether the serving node fetched the frame from a sibling node's
    /// cache instead of rendering it.
    pub peer: bool,
}

/// A frame stream being read off a [`ServiceClient`] connection. Drain it
/// to `Ok(None)`; dropping it early desyncs the client.
pub struct FrameStream<'a> {
    client: &'a mut ServiceClient,
    /// The response head's headers, lower-cased names.
    pub(crate) head: Headers,
    finished: bool,
}

impl FrameStream<'_> {
    /// A response header from the stream head (name matched
    /// case-insensitively) — e.g. `X-Stream-From`, `X-Stream-Count`,
    /// `X-Node-Id`. The router's stream relay forwards these intact.
    pub fn header(&self, name: &str) -> Option<&str> {
        api::header(&self.head, name)
    }

    /// Reads the next frame record; `Ok(None)` is the terminal chunk — the
    /// stream is complete and the connection is reusable.
    pub fn next_frame(&mut self) -> Result<Option<StreamedFrame>, ClientError> {
        let Some((record, chunk)) = self.next_record()? else {
            return Ok(None);
        };
        Ok(Some(StreamedFrame {
            frame: record.frame,
            bytes: chunk[FRAME_RECORD_HEADER..].to_vec(),
            cached: record.cached,
            skipped: record.skipped,
            stale: record.stale,
            degraded: record.degraded,
            peer: record.peer,
        }))
    }

    /// Reads the next record as its checked header and its whole chunk
    /// (header and body, as sent); `Ok(None)` is the terminal chunk.
    pub(crate) fn next_record(&mut self) -> Result<Option<(FrameRecord, Vec<u8>)>, ClientError> {
        if self.finished {
            return Ok(None);
        }
        let Some(chunk) = read_chunk(&mut self.client.reader)? else {
            self.finished = true;
            self.client.dirty = false;
            return Ok(None);
        };
        let record = FrameRecord::decode_header(&chunk)?;
        if chunk.len() - FRAME_RECORD_HEADER != record.len as usize {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame record length disagrees with its chunk",
            )));
        }
        Ok(Some((record, chunk)))
    }
}

impl Drop for FrameStream<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.client.desynced = true;
        }
    }
}

/// Whether an I/O error means the keep-alive connection went stale while
/// shelved (the server closed it between requests) — the one failure a
/// pooled request retries once on a fresh connection, because the request
/// provably never reached the server.
fn is_stale_keepalive(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

/// A pool of keep-alive [`ServiceClient`] connections to one address.
///
/// The router holds one pool per worker node and the node core holds one
/// per peer, so proxied requests and peer cache probes reuse warm
/// connections instead of paying a TCP handshake per request. Checked-out
/// connections reshelve on drop unless they are desynced or were dropped
/// mid-request ([`ServiceClient`] dirty tracking); the pooled request
/// helpers retry once on a stale shelved connection, sharing the
/// reconnect-on-[`ClientError::TimedOut`] recovery logic with the direct
/// client.
pub(crate) struct ClientPool {
    addr: SocketAddr,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    idle: Mutex<Vec<ServiceClient>>,
}

/// How many idle connections a [`ClientPool`] shelves; excess connections
/// are dropped on check-in.
const POOL_MAX_IDLE: usize = 8;

impl ClientPool {
    /// Creates a pool for one target address with the default read deadline
    /// and up to `POOL_MAX_IDLE` (8) shelved idle connections.
    pub(crate) fn new(addr: SocketAddr) -> Self {
        ClientPool {
            addr,
            connect_timeout: None,
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Sets the TCP connect deadline for fresh connections.
    pub(crate) fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Sets the blocking-read deadline for fresh connections (`None`
    /// blocks forever).
    pub(crate) fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    fn idle_shelf(&self) -> MutexGuard<'_, Vec<ServiceClient>> {
        // The lock is never held across a request, so a panic while a
        // connection is checked *out* cannot poison the shelf. Should it be
        // poisoned anyway, the shelf is emptied: idle connections are only a
        // cache of fresh connects, so dropping them costs a reconnect each.
        lock_recover(&self.idle, Vec::clear)
    }

    fn connect_fresh(&self) -> io::Result<ServiceClient> {
        ServiceClient::connect_with_timeouts(self.addr, self.connect_timeout, self.read_timeout)
    }

    /// Checks a connection out of the pool: a shelved idle connection when
    /// one exists, a fresh connection otherwise. Dropping the returned
    /// [`PooledClient`] reshelves the connection if it is still clean.
    pub(crate) fn checkout(&self) -> io::Result<PooledClient<'_>> {
        if let Some(client) = self.idle_shelf().pop() {
            return Ok(PooledClient {
                client: Some(client),
                pool: self,
                reused: true,
            });
        }
        Ok(PooledClient {
            client: Some(self.connect_fresh()?),
            pool: self,
            reused: false,
        })
    }

    /// Sends one call through a pooled connection and reads the full
    /// response. A shelved connection the server closed while idle fails
    /// with a stale-keep-alive error before any reply byte arrives; that
    /// one case retries once on a guaranteed-fresh connection.
    pub(crate) fn send(
        &self,
        call: &Call,
        extra_headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<HttpReply> {
        let (method, path) = (call.method(), call.path());
        let mut client = self.checkout()?;
        let reused = client.reused;
        match client.request_with_headers(method, &path, extra_headers, body) {
            Ok(reply) => Ok(reply),
            Err(err) if reused && is_stale_keepalive(&err) => {
                drop(client);
                let mut fresh = PooledClient {
                    client: Some(self.connect_fresh()?),
                    pool: self,
                    reused: false,
                };
                fresh.request_with_headers(method, &path, extra_headers, body)
            }
            Err(err) => Err(err),
        }
    }
}

/// A [`ServiceClient`] checked out of a [`ClientPool`]. Dereferences to the
/// client; on drop the connection returns to the pool's idle shelf unless
/// it is desynced, mid-request dirty, or the shelf is full.
pub(crate) struct PooledClient<'a> {
    client: Option<ServiceClient>,
    pool: &'a ClientPool,
    reused: bool,
}

impl Deref for PooledClient<'_> {
    type Target = ServiceClient;
    fn deref(&self) -> &ServiceClient {
        self.client.as_ref().expect("pooled client present")
    }
}

impl DerefMut for PooledClient<'_> {
    fn deref_mut(&mut self) -> &mut ServiceClient {
        self.client.as_mut().expect("pooled client present")
    }
}

impl Drop for PooledClient<'_> {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            if client.desynced || client.dirty {
                return;
            }
            let mut shelf = self.pool.idle_shelf();
            if shelf.len() < POOL_MAX_IDLE {
                shelf.push(client);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    impl ClientPool {
        /// How many idle connections are currently shelved.
        fn idle(&self) -> usize {
            self.idle_shelf().len()
        }
    }

    /// Answers the first request on a fresh loopback listener with `reply`
    /// and closes; returns what `request()` made of it.
    fn request_against(reply: Vec<u8>) -> io::Result<HttpReply> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept()?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut line = String::new();
            while reader.read_line(&mut line)? > 2 {
                line.clear();
            }
            (&stream).write_all(&reply)
        });
        let result = ServiceClient::connect(addr)?.request("GET", "/stats", b"");
        // The peer may see a reset once the client gives up early.
        let _ = server.join().expect("server thread");
        result
    }

    #[test]
    fn oversized_replies_fail_as_invalid_data_before_buffering() {
        let huge_body = b"HTTP/1.1 200 OK\r\nContent-Length: 67108864\r\n\r\n".to_vec();
        let err = request_against(huge_body).expect_err("64 MiB body is over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        let mut endless_header = b"HTTP/1.1 200 OK\r\nX-Big: ".to_vec();
        endless_header.extend(vec![b'b'; 64 * 1024]);
        let err = request_against(endless_header).expect_err("64 KiB header line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn poisoned_idle_shelf_is_recovered_and_counted() {
        let pool = ClientPool::new("127.0.0.1:9".parse().unwrap());
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = pool.idle.lock().unwrap();
                    panic!("poison the shelf");
                })
                .join();
        });
        assert!(pool.idle.is_poisoned());

        let before = softpipe::sync::recoveries();
        assert_eq!(pool.idle(), 0);
        assert!(softpipe::sync::recoveries() > before);
        assert!(!pool.idle.is_poisoned(), "poison flag cleared");
    }
}
