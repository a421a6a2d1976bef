//! The service's wire vocabulary, declared once and shared by the worker
//! [`server`](crate::server), the cluster [`router`](crate::router) and
//! the [`client`](crate::client): every route and its query ([`Call`]),
//! both session-id forms ([`SessionId`]) and every API header name with
//! its typed writer and reader. Parsers accept only what the formatters
//! write (no sign, no leading zero, lowercase hex), so nothing has two
//! names.

use crate::cache::FrameKey;
use crate::http::{FrameRecord, Request, Response};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// `X-Deadline-Ms` (request): how many milliseconds an answer is still
/// worth producing.
pub const DEADLINE_MS: &str = "X-Deadline-Ms";
/// `X-Frame-Cache`: `miss`, `hit` or `peer` (from a sibling's cache).
pub const FRAME_CACHE: &str = "X-Frame-Cache";
/// `X-Frame-Index`: the index of the frame served.
pub const FRAME_INDEX: &str = "X-Frame-Index";
/// `X-Frame-Skipped: 1`: a fallen-behind subscriber skipped forward.
pub const FRAME_SKIPPED: &str = "X-Frame-Skipped";
/// `X-Frame-Stale: 1`: a saturated node re-served the cached frontier.
pub const FRAME_STALE: &str = "X-Frame-Stale";
/// `X-Frame-Degraded: 1`: rendered under degraded footprint sampling.
pub const FRAME_DEGRADED: &str = "X-Frame-Degraded";
/// `X-Stream-From`: the first index a stream was asked for.
pub const STREAM_FROM: &str = "X-Stream-From";
/// `X-Stream-Count`: how many frames a stream will carry at most.
pub const STREAM_COUNT: &str = "X-Stream-Count";
/// `X-Node-Id`: the identity of the node (or router) that answered.
pub const NODE_ID: &str = "X-Node-Id";
/// `Retry-After`: seconds a shed client should wait.
pub const RETRY_AFTER: &str = "Retry-After";

/// The response headers a router relays from a worker unchanged.
const RELAYED: [&str; 9] = [
    FRAME_CACHE,
    FRAME_INDEX,
    FRAME_SKIPPED,
    FRAME_STALE,
    FRAME_DEGRADED,
    STREAM_FROM,
    STREAM_COUNT,
    NODE_ID,
    RETRY_AFTER,
];

/// How many spans `GET /trace` returns when the query names no `last`.
const DEFAULT_TRACE_LAST: usize = 256;

/// A session id in one of its two wire forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionId {
    /// A worker's own id, `s-<n>`.
    Local(u64),
    /// A router-issued id, `n<node>.s-<n>`: the owning worker's index in
    /// the router's worker list and the session's id on that worker.
    Cluster {
        /// The owning worker's index.
        node: usize,
        /// The session's id on that worker.
        local: u64,
    },
}

impl SessionId {
    /// Parses either form, accepting only what [`SessionId`]'s `Display`
    /// writes: `s-017`, `s-+17` and `n00.s-1` name nothing.
    pub fn parse(text: &str) -> Option<SessionId> {
        let local = |text: &str| number(text.strip_prefix("s-")?, 10);
        match text.strip_prefix('n') {
            None => local(text).map(SessionId::Local),
            Some(rest) => {
                let (node, id) = rest.split_once('.')?;
                Some(SessionId::Cluster {
                    node: usize::try_from(number(node, 10)?).ok()?,
                    local: local(id)?,
                })
            }
        }
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionId::Local(id) => write!(f, "s-{id}"),
            SessionId::Cluster { node, local } => write!(f, "n{node}.s-{local}"),
        }
    }
}

/// Parses a number only in the form `{}` (radix 10) or `{:x}` (radix 16)
/// writes it: digits and lowercase hex letters, no sign, no leading zero
/// other than `0` itself.
fn number(text: &str, radix: u32) -> Option<u64> {
    let digits = text
        .bytes()
        .all(|b| b.is_ascii_digit() || (radix == 16 && b"abcdef".contains(&b)));
    (digits && (text == "0" || !text.starts_with('0')))
        .then(|| u64::from_str_radix(text, radix).ok())?
}

/// One API call: a route with its parameters parsed. `S` is the session
/// id's type — [`SessionId`] when parsed off the wire, any displayable id
/// (a client's `&str`) when encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call<S = SessionId> {
    /// `POST /sessions`: creates a session from the spec in the body (201).
    Create,
    /// `GET /sessions/<id>`: the session's info document.
    Get(S),
    /// `DELETE /sessions/<id>`: closes the session (204).
    Close(S),
    /// `POST /sessions/<id>/steer`: steers to the field in the body.
    Steer(S),
    /// `POST /sessions/<id>/advance`: renders the next natural frame.
    Advance(S),
    /// `GET /sessions/<id>/frame/<index>`: one frame's texels.
    Frame(S, u64),
    /// `GET /sessions/<id>/stream?from=N&count=k`: up to `count` frames
    /// from index `from` as one chunked response of frame records.
    Stream(StreamCall<S>),
    /// `GET /cache/<field>/<config>/<seed>/<frame>` (hex): a sibling
    /// node's uncounted peek at a cached frame (404 when not cached).
    CachePeek(FrameKey),
    /// `GET /stats`: the JSON stats document.
    Stats,
    /// `GET /metrics`: the Prometheus text exposition.
    Metrics,
    /// `GET /trace?last=N`: the newest `last` spans as Chrome trace JSON.
    Trace {
        /// How many spans (default 256); `0` asks for the whole ring.
        last: usize,
    },
    /// `GET /healthz`: the tri-state health probe.
    Healthz,
    /// `POST /shutdown`: shuts the front end down.
    Shutdown,
}

/// The parameters of a [`Call::Stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCall<S = SessionId> {
    /// The session streamed.
    pub session: S,
    /// The first frame index (default 0).
    pub from: u64,
    /// The most frames to send, at least 1 (default: the server's cap).
    pub count: u64,
}

impl<S: fmt::Display> Call<S> {
    /// The call's HTTP method.
    pub fn method(&self) -> &'static str {
        match self {
            Call::Create | Call::Steer(_) | Call::Advance(_) | Call::Shutdown => "POST",
            Call::Close(_) => "DELETE",
            _ => "GET",
        }
    }

    /// The call's request target: path and query.
    pub fn path(&self) -> String {
        match self {
            Call::Create => "/sessions".to_string(),
            Call::Get(id) | Call::Close(id) => format!("/sessions/{id}"),
            Call::Steer(id) => format!("/sessions/{id}/steer"),
            Call::Advance(id) => format!("/sessions/{id}/advance"),
            Call::Frame(id, index) => format!("/sessions/{id}/frame/{index}"),
            Call::Stream(s) => {
                format!(
                    "/sessions/{}/stream?from={}&count={}",
                    s.session, s.from, s.count
                )
            }
            Call::CachePeek(k) => {
                format!(
                    "/cache/{:x}/{:x}/{:x}/{:x}",
                    k.field, k.config, k.seed, k.frame
                )
            }
            Call::Stats => "/stats".to_string(),
            Call::Metrics => "/metrics".to_string(),
            Call::Trace { last } => format!("/trace?last={last}"),
            Call::Healthz => "/healthz".to_string(),
            Call::Shutdown => "/shutdown".to_string(),
        }
    }
}

impl Call {
    /// Parses a request into its call. A path no method routes is a 404, a
    /// path only other methods route a 405; then a bad session id is a 404
    /// and any other bad parameter a 400. Routes without a query ignore
    /// one. Allocates nothing unless it refuses the request.
    pub fn parse(request: &Request) -> Result<Call, Response> {
        let (path, query) = request.path.split_once('?').unwrap_or((&request.path, ""));
        // One slot more than the longest route, so a longer path is a 404.
        let mut seg = [""; 6];
        let n = seg
            .iter_mut()
            .zip(path.split('/').filter(|s| !s.is_empty()))
            .map(|(slot, s)| *slot = s)
            .count();
        let seg = &seg[..n];
        Call::route(&request.method, seg, query).unwrap_or_else(|| {
            let methods = ["GET", "POST", "DELETE"];
            Err(
                if methods.iter().any(|m| Call::route(m, seg, "").is_some()) {
                    Response::error(405, "method_not_allowed", "wrong method for this path")
                } else {
                    Response::error(404, "not_found", "unknown path")
                },
            )
        })
    }

    /// Every route, declared once: `None` when no route has this method
    /// and path shape.
    fn route(method: &str, seg: &[&str], query: &str) -> Option<Result<Call, Response>> {
        let session = |text: &str| {
            SessionId::parse(text)
                .ok_or_else(|| Response::error(404, "not_found", "not a session id"))
        };
        Some(match (method, seg) {
            ("POST", ["sessions"]) => Ok(Call::Create),
            ("GET", ["sessions", id]) => session(id).map(Call::Get),
            ("DELETE", ["sessions", id]) => session(id).map(Call::Close),
            ("POST", ["sessions", id, "steer"]) => session(id).map(Call::Steer),
            ("POST", ["sessions", id, "advance"]) => session(id).map(Call::Advance),
            ("GET", ["sessions", id, "frame", index]) => session(id).and_then(|id| {
                let index =
                    number(index, 10).ok_or_else(|| bad_request("frame index not a number"));
                Ok(Call::Frame(id, index?))
            }),
            ("GET", ["sessions", id, "stream"]) => session(id).and_then(|session| {
                let [from, count] = parse_query(query, "stream", ["from", "count"])?;
                match count.unwrap_or(u64::MAX) {
                    0 => Err(bad_request("stream count must be at least 1")),
                    count => Ok(Call::Stream(StreamCall {
                        session,
                        from: from.unwrap_or(0),
                        count,
                    })),
                }
            }),
            ("GET", ["cache", field, config, seed, frame]) => {
                match [field, config, seed, frame].map(|t| number(t, 16)) {
                    [Some(field), Some(config), Some(seed), Some(frame)] => {
                        let key = FrameKey {
                            field,
                            config,
                            seed,
                            frame,
                        };
                        Ok(Call::CachePeek(key))
                    }
                    _ => Err(bad_request("cache key not lowercase hex")),
                }
            }
            ("GET", ["stats"]) => Ok(Call::Stats),
            ("GET", ["metrics"]) => Ok(Call::Metrics),
            ("GET", ["trace"]) => parse_query(query, "trace", ["last"]).map(|[last]| Call::Trace {
                last: last.map_or(DEFAULT_TRACE_LAST, |n| {
                    usize::try_from(n).unwrap_or(usize::MAX)
                }),
            }),
            ("GET", ["healthz"]) => Ok(Call::Healthz),
            ("POST", ["shutdown"]) => Ok(Call::Shutdown),
            _ => return None,
        })
    }
}

fn bad_request(detail: &str) -> Response {
    Response::error(400, "bad_request", detail)
}

/// Reads a query's `key=value` pairs into one slot per known key; an
/// unknown key or a value that is not a canonical decimal is a 400.
fn parse_query<const N: usize>(
    query: &str,
    what: &str,
    keys: [&str; N],
) -> Result<[Option<u64>; N], Response> {
    let mut values = [None; N];
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        let Some(slot) = keys.iter().position(|k| *k == key) else {
            return Err(bad_request(&format!("unknown {what} query key {key:?}")));
        };
        let Some(n) = number(value, 10) else {
            return Err(bad_request(&format!(
                "{what} query {key}={value:?} not a number"
            )));
        };
        values[slot] = Some(n);
    }
    Ok(values)
}

/// A header's value in a parsed head (names matched case-insensitively).
pub(crate) fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// The headers of a worker's answer that a router passes on unchanged.
pub(crate) fn relayed(headers: &[(String, String)]) -> Vec<(String, String)> {
    let relayed = |name: &str| RELAYED.iter().any(|h| h.eq_ignore_ascii_case(name));
    headers
        .iter()
        .filter(|(name, _)| relayed(name))
        .cloned()
        .collect()
}

/// Reads `X-Deadline-Ms`. An unparseable value counts as absent: a
/// deadline is advisory, and refusing the request it rides on would
/// invert its purpose.
pub(crate) fn read_deadline(headers: &[(String, String)]) -> Option<u64> {
    header(headers, DEADLINE_MS)?.parse().ok()
}

/// Writes a frame's `X-Frame-*` headers; [`read_frame_headers`] reads them.
pub(crate) fn write_frame_headers(response: Response, record: &FrameRecord) -> Response {
    let cache = match (record.peer, record.cached) {
        (true, _) => "peer",
        (false, true) => "hit",
        (false, false) => "miss",
    };
    let mut response = response
        .with_header(FRAME_CACHE, cache)
        .with_header(FRAME_INDEX, record.frame.to_string());
    for (set, name) in [
        (record.skipped, FRAME_SKIPPED),
        (record.stale, FRAME_STALE),
        (record.degraded, FRAME_DEGRADED),
    ] {
        if set {
            response = response.with_header(name, "1");
        }
    }
    response
}

/// Reads the headers [`write_frame_headers`] writes, for a body of `len`
/// bytes.
pub(crate) fn read_frame_headers(headers: &[(String, String)], len: u32) -> FrameRecord {
    let cache = header(headers, FRAME_CACHE);
    let flag = |name| header(headers, name) == Some("1");
    FrameRecord {
        frame: header(headers, FRAME_INDEX)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        len,
        cached: matches!(cache, Some("hit" | "peer")),
        skipped: flag(FRAME_SKIPPED),
        stale: flag(FRAME_STALE),
        degraded: flag(FRAME_DEGRADED),
        peer: cache == Some("peer"),
    }
}

/// A stream's head: `200` and the range asked for.
pub(crate) fn stream_head(from: u64, count: u64) -> Response {
    Response::shared(200, Arc::default())
        .with_header(STREAM_FROM, from.to_string())
        .with_header(STREAM_COUNT, count.to_string())
}

/// Stamps `X-Node-Id` onto a response that carries none yet, so a relayed
/// worker answer keeps the worker's identity.
pub(crate) fn tag_node(response: Response, node_id: &str) -> Response {
    if node_id.is_empty() || header(&response.headers, NODE_ID).is_some() {
        response
    } else {
        response.with_header(NODE_ID, node_id)
    }
}

/// A `503` that asks the client to retry after a second.
pub(crate) fn retry_later(error: &str, detail: &str) -> Response {
    Response::error(503, error, detail).with_header(RETRY_AFTER, "1")
}

/// Reads `Retry-After` (whole seconds).
pub(crate) fn read_retry_after(headers: &[(String, String)]) -> Option<Duration> {
    Some(Duration::from_secs(
        header(headers, RETRY_AFTER)?.trim().parse().ok()?,
    ))
}

/// The buffered answer to a stream call: a stream is written onto its
/// connection as frames arrive, so it has no buffered form.
pub(crate) fn stream_unbuffered() -> Response {
    bad_request("a frame stream is served only on a connection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::io::{self, BufReader};

    fn request(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: Vec::new(),
            keep_alive: true,
            deadline_ms: None,
        }
    }

    /// A number of any magnitude, small ones as likely as huge ones.
    fn magnitude(rng: &mut ChaCha8Rng) -> u64 {
        rng.next_u64() >> rng.gen_range(0..64u32)
    }

    fn random_session(rng: &mut ChaCha8Rng) -> SessionId {
        match rng.gen_range(0..2u32) {
            0 => SessionId::Local(magnitude(rng)),
            _ => SessionId::Cluster {
                node: magnitude(rng) as usize,
                local: magnitude(rng),
            },
        }
    }

    /// A call of variant `variant % 13` with random parameters.
    fn random_call(rng: &mut ChaCha8Rng, variant: u32) -> Call {
        let session = random_session(rng);
        match variant % 13 {
            0 => Call::Create,
            1 => Call::Get(session),
            2 => Call::Close(session),
            3 => Call::Steer(session),
            4 => Call::Advance(session),
            5 => Call::Frame(session, magnitude(rng)),
            6 => Call::Stream(StreamCall {
                session,
                from: magnitude(rng),
                count: magnitude(rng).max(1),
            }),
            7 => Call::CachePeek(FrameKey {
                field: magnitude(rng),
                config: magnitude(rng),
                seed: magnitude(rng),
                frame: magnitude(rng),
            }),
            8 => Call::Stats,
            9 => Call::Metrics,
            10 => Call::Trace {
                last: magnitude(rng) as usize,
            },
            11 => Call::Healthz,
            _ => Call::Shutdown,
        }
    }

    #[test]
    fn every_call_round_trips_through_its_method_and_path() {
        let seed = 31;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..2600u32 {
            let call = random_call(&mut rng, case);
            let (method, path) = (call.method(), call.path());
            let parsed = Call::parse(&request(method, &path)).map_err(|r| r.status);
            assert_eq!(
                parsed,
                Ok(call),
                "seed {seed} case {case}: {method} {path} did not parse back"
            );
        }
    }

    #[test]
    fn defaults_fill_absent_queries() {
        let parse = |path: &str| Call::parse(&request("GET", path)).map_err(|r| r.status);
        assert_eq!(
            parse("/trace"),
            Ok(Call::Trace {
                last: DEFAULT_TRACE_LAST
            })
        );
        assert_eq!(
            parse("/sessions/s-3/stream?count=2"),
            Ok(Call::Stream(StreamCall {
                session: SessionId::Local(3),
                from: 0,
                count: 2
            }))
        );
        // Routes without a query ignore one, as they always have.
        assert_eq!(parse("/stats?verbose=1"), Ok(Call::Stats));
    }

    #[test]
    fn session_ids_accept_only_their_canonical_form() {
        for alias in [
            "s-017",
            "s-+17",
            "s-",
            "s-0x1",
            "S-1",
            " s-1",
            "s-1 ",
            "s-18446744073709551616",
            "n+0.s-1",
            "n00.s-1",
            "n0.garbage",
            "n0.s-01",
            "n0.",
            "n.s-1",
            "n0s-1",
            "17",
        ] {
            assert_eq!(SessionId::parse(alias), None, "{alias:?} must name nothing");
        }
        assert_eq!(SessionId::parse("s-0"), Some(SessionId::Local(0)));
        assert_eq!(
            SessionId::parse("n10.s-7"),
            Some(SessionId::Cluster { node: 10, local: 7 })
        );
        // Whatever parses formats back to the very same text.
        let seed = 32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let alphabet = b"sn.-+0123456789x";
        for case in 0..20_000 {
            let len = rng.gen_range(0..12usize);
            let text: String = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                .collect();
            if let Some(id) = SessionId::parse(&text) {
                assert_eq!(id.to_string(), text, "seed {seed} case {case}: {text:?}");
            }
            let id = random_session(&mut rng);
            assert_eq!(
                SessionId::parse(&id.to_string()),
                Some(id),
                "seed {seed} case {case}: {id}"
            );
        }
    }

    #[test]
    fn cache_keys_accept_only_lowercase_hex_without_leading_zeros() {
        let status = |path: &str| Call::parse(&request("GET", path)).map_err(|r| r.status);
        assert!(status("/cache/a/0/ff/10").is_ok());
        for alias in [
            "/cache/0a/0/0/0",
            "/cache/A/0/0/0",
            "/cache/+a/0/0/0",
            "/cache/a/0/0/",
        ] {
            let expected = if alias.ends_with('/') { 404 } else { 400 };
            assert_eq!(status(alias), Err(expected), "{alias}");
        }
    }

    /// One random edit of a request line: overwrite, insert, delete or
    /// duplicate a byte drawn from the characters the grammar cares about.
    fn mutate(rng: &mut ChaCha8Rng, line: &mut Vec<u8>) {
        const BYTES: &[u8] = b"/?&=-+.0129afAFnsx %\0\x7f\xff\t";
        let byte = BYTES[rng.gen_range(0..BYTES.len())];
        let at = rng.gen_range(0..=line.len());
        match rng.gen_range(0..4u32) {
            0 if at < line.len() => line[at] = byte,
            1 => line.insert(at, byte),
            2 if at < line.len() => {
                line.remove(at);
            }
            _ if at < line.len() => line.insert(at, line[at]),
            _ => line.push(byte),
        }
    }

    #[test]
    fn mutated_request_heads_never_panic_and_malformed_ones_get_a_4xx() {
        let seed = 33;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..20_000u32 {
            let call = random_call(&mut rng, case);
            let mut line = format!("{} {} HTTP/1.1", call.method(), call.path()).into_bytes();
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut rng, &mut line);
            }
            let mut head = line.clone();
            head.extend_from_slice(b"\r\nHost: x\r\n\r\n");
            let input = String::from_utf8_lossy(&head).into_owned();
            let context = format!("seed {seed} case {case}: {input:?}");
            // A head the codec refuses is answered 400 (InvalidData) or 411
            // (InvalidInput) by the connection loop.
            let request =
                match read_request(&mut BufReader::new(&head[..])) {
                    Ok(Some(request)) => request,
                    Ok(None) => panic!("{context}: a whole head read as end of stream"),
                    Err(e) => {
                        let kind = e.kind();
                        assert!(
                        matches!(kind, io::ErrorKind::InvalidData | io::ErrorKind::InvalidInput),
                        "{context}: refused with {kind:?}, which the server answers with no status"
                    );
                        continue;
                    }
                };
            match Call::parse(&request) {
                Err(refusal) => assert!(
                    (400..500).contains(&refusal.status),
                    "{context}: refused with {}",
                    refusal.status
                ),
                // An accepted head names its call canonically: its method,
                // its path segments and its re-encoding agree.
                Ok(call) => {
                    let target = call.path();
                    assert_eq!(request.method, call.method(), "{context}");
                    assert_eq!(segments(&request.path), segments(&target), "{context}");
                    let again = Call::parse(&request_with(&request, &target));
                    assert_eq!(again.map_err(|r| r.status), Ok(call), "{context}");
                }
            }
        }
    }

    /// A request target's path segments, without the query.
    fn segments(target: &str) -> Vec<&str> {
        let path = target.split('?').next().unwrap_or("");
        path.split('/').filter(|s| !s.is_empty()).collect()
    }

    fn request_with(request: &Request, path: &str) -> Request {
        Request {
            path: path.to_string(),
            ..request.clone()
        }
    }

    #[test]
    fn frame_headers_round_trip_through_their_writer_and_reader() {
        for bits in 0..24u32 {
            let (cache, skipped, stale, degraded) =
                (bits % 3, bits & 4 != 0, bits & 8 != 0, bits & 16 != 0);
            let record = FrameRecord {
                frame: u64::from(bits) * 1_000_003,
                len: 4096,
                cached: cache > 0,
                skipped,
                stale,
                degraded,
                peer: cache == 2,
            };
            let response = write_frame_headers(Response::empty(200), &record);
            // A client reads the head lower-cased.
            let head: Vec<(String, String)> = (response.headers.iter())
                .map(|(name, value)| (name.to_ascii_lowercase(), value.clone()))
                .collect();
            assert_eq!(read_frame_headers(&head, 4096), record, "{head:?}");
        }
    }
}
