//! A minimal HTTP/1.1 layer over `std::net`.
//!
//! The container this workspace builds in has no registry access, so there
//! is no hyper/axum to lean on; the service speaks just enough HTTP/1.1 for
//! its API: request-line + headers + `Content-Length` bodies in,
//! fixed-length responses with keep-alive out — plus chunked
//! `Transfer-Encoding` *responses* for the frame-streaming endpoint (one
//! chunk per [`FrameRecord`], terminal zero-length chunk, connection
//! reusable afterwards). Chunked *requests* stay rejected: they are a
//! request-smuggling vector for this parser. Request size is capped so a
//! misbehaving client cannot balloon memory; the service's own client reads
//! reply heads through the same capped reader and caps reply bodies too.

use spotnoise::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// Upper bound on a message head (start line + headers), in either
/// direction.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 256 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// The request target: path and query string, as sent
    /// ([`Call::parse`](crate::api::Call::parse) splits them).
    pub path: String,
    /// Raw body bytes (empty when absent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Per-request deadline budget from the
    /// [`X-Deadline-Ms`](crate::api::DEADLINE_MS) header; an unparseable
    /// value counts as absent.
    pub deadline_ms: Option<u64>,
}

/// Reads one `\n`-terminated line, refusing to buffer more than `cap`
/// bytes. A plain `read_line` would grow its buffer without bound on a
/// stream that never sends a newline — the cap turns that into an error
/// *while reading*, before the bytes accumulate, so the head-size limit
/// cannot be sidestepped by one enormous line.
fn read_line_capped(reader: &mut impl BufRead, cap: usize, line: &mut String) -> io::Result<usize> {
    let n = reader.by_ref().take(cap as u64 + 1).read_line(line)?;
    if n > cap || (n == cap && !line.ends_with('\n')) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "line over its size cap",
        ));
    }
    Ok(n)
}

/// A message head's header lines as `(lower-cased name, trimmed value)`.
pub(crate) type Headers = Vec<(String, String)>;

/// Reads one message head: the start line and every header line up to the
/// blank line, refusing to buffer more than [`MAX_HEAD_BYTES`] in total.
/// Header names come back lower-cased, values trimmed. `Ok(None)` is a
/// clean end-of-stream before the start line; an oversized head is
/// [`io::ErrorKind::InvalidData`]. Requests and replies share it, so
/// neither side reads an unbounded line from its peer.
pub(crate) fn read_head(reader: &mut impl BufRead) -> io::Result<Option<(String, Headers)>> {
    let mut start = String::new();
    if read_line_capped(reader, MAX_HEAD_BYTES, &mut start)? == 0 {
        return Ok(None);
    }
    let mut head_bytes = start.len();
    let mut headers = Vec::new();
    loop {
        let budget = MAX_HEAD_BYTES.saturating_sub(head_bytes);
        if budget == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "message head too large",
            ));
        }
        let mut line = String::new();
        if read_line_capped(reader, budget, &mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        head_bytes += line.len();
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(Some((start, headers)));
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
}

/// Reads one request from a buffered stream. `Ok(None)` is a clean
/// end-of-stream before a request line (the client hung up between
/// keep-alive requests).
///
/// # Keep-alive framing
///
/// A body-bearing request **must** announce its body with
/// `Content-Length`; this parser supports no other framing (chunked
/// encoding is rejected as unframeable for the same reason). A client that
/// sends a body without one would desync the stream — the body bytes would
/// be parsed as the next request's head. When body-method requests
/// (`POST`/`PUT`/`PATCH`) omit the header *and* more bytes are already
/// buffered behind the head (i.e. an unannounced body demonstrably
/// arrived), the parser fails with [`io::ErrorKind::InvalidInput`], which
/// the server maps to `411 Length Required` + connection close. A
/// body-method request with no header and nothing buffered is treated as
/// bodyless (a bare `POST /shutdown` is legal); if an unannounced body
/// trickles in later it can no longer be mistaken for a response to *this*
/// request — the next head parse fails with a 400 and the connection
/// closes, so the stream never serves desynced answers.
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> io::Result<Option<Request>> {
    let Some((line, headers)) = read_head(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_ascii_uppercase(), p.to_string(), v.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed request line {line:?}"),
            ))
        }
    };

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for (name, value) in &headers {
        match name.as_str() {
            "content-length" => {
                content_length = Some(value.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad content-length {value:?}"),
                    )
                })?);
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            "transfer-encoding" => chunked = true,
            _ => {}
        }
    }
    let body_method = matches!(method.as_str(), "POST" | "PUT" | "PATCH");
    if chunked || (content_length.is_none() && body_method && !reader.buffer().is_empty()) {
        // Either an explicitly unframeable body (any Transfer-Encoding —
        // rejected even alongside a Content-Length, which RFC 7230 treats
        // as a smuggling vector: honouring the length would leave the
        // chunk framing in the stream as a phantom next request), or bytes
        // already buffered behind a body-method head that announced no
        // length: parsing on would desync the stream. Note the deliberate
        // trade-off in the buffered-bytes heuristic: a client that
        // pipelines a *bodyless* POST with its next request in one segment
        // is also answered 411 — none of this API's clients pipeline
        // POSTs, and such a client can disambiguate by sending
        // `Content-Length: 0`.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "body without content-length",
        ));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
        deadline_ms: crate::api::read_deadline(&headers),
    }))
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub headers: Vec<(String, String)>,
    /// Body bytes, shared so a cached frame buffer is written straight from
    /// the cache's `Arc` instead of being deep-copied per response (frame
    /// bodies run to megabytes on the hot path).
    pub body: Arc<Vec<u8>>,
}

/// Canonical reason phrases for the codes this API uses.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: Json) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: Arc::new(value.to_string_pretty().into_bytes()),
        }
    }

    /// A plain-text response with an explicit content type (the `/metrics`
    /// endpoint uses the Prometheus text exposition type).
    pub fn text(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            content_type,
            headers: Vec::new(),
            body: Arc::new(body.into_bytes()),
        }
    }

    /// A raw binary response over an existing shared buffer (no copy).
    pub fn shared(status: u16, body: Arc<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body,
        }
    }

    /// An empty response (e.g. `204`).
    pub fn empty(status: u16) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: Arc::new(Vec::new()),
        }
    }

    /// A JSON error envelope `{"error": ..., "detail": ...}`.
    pub fn error(status: u16, error: &str, detail: &str) -> Self {
        Response::json(
            status,
            Json::object([("error", Json::str(error)), ("detail", Json::str(detail))]),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the response onto a stream.
    pub fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let head = self.head(
            format_args!("Content-Length: {}", self.body.len()),
            keep_alive,
        );
        out.write_all(head.as_bytes())?;
        out.write_all(&self.body)?;
        out.flush()
    }

    /// Writes only the head, announcing a chunked body: a sequence of
    /// [`write_chunk_parts`] / [`write_frame_record`] calls closed by
    /// [`finish_chunked`] follows. The connection stays framed, so
    /// `keep_alive` works exactly as for fixed-length responses.
    pub fn write_stream_head(&self, out: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let head = self.head(format_args!("Transfer-Encoding: chunked"), keep_alive);
        out.write_all(head.as_bytes())?;
        out.flush()
    }

    /// The head: status line, content type, the body's `framing` header,
    /// the connection header and the extra headers.
    fn head(&self, framing: std::fmt::Arguments<'_>, keep_alive: bool) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{framing}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        head
    }
}

/// Upper bound on a single response chunk or fixed-length reply body a
/// client will accept. The largest legitimate one is one frame record: a
/// 2048² `f32` texture (16 MiB) plus the record header.
pub(crate) const MAX_CHUNK_BYTES: usize = 32 << 20;

/// Writes one chunk whose data is the concatenation of `parts` — the
/// multi-part form exists so a frame record (tiny header + megabytes of
/// `Arc`-shared body) is written straight from its two slices with **no**
/// intermediate copy of the frame bytes.
pub fn write_chunk_parts(out: &mut impl Write, parts: &[&[u8]]) -> io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    write!(out, "{len:x}\r\n")?;
    for part in parts {
        out.write_all(part)?;
    }
    out.write_all(b"\r\n")?;
    out.flush()
}

/// Writes the terminal zero-length chunk that ends a chunked body (no
/// trailers), leaving the connection framed for the next request.
pub fn finish_chunked(out: &mut impl Write) -> io::Result<()> {
    out.write_all(b"0\r\n\r\n")?;
    out.flush()
}

/// Reads one chunk of a chunked response body. `Ok(None)` is the terminal
/// zero-length chunk — the body is complete and the connection is back in
/// sync for the next request.
pub fn read_chunk(reader: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let mut line = String::new();
    read_line_capped(reader, 128, &mut line)?;
    // Tolerate chunk extensions (`;`-separated) even though this server
    // never writes them.
    let size_text = line.trim_end().split(';').next().unwrap_or("").trim();
    let len = usize::from_str_radix(size_text, 16).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad chunk size {size_text:?}"),
        )
    })?;
    if len > MAX_CHUNK_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunk too large",
        ));
    }
    if len == 0 {
        // Terminal chunk: consume (empty) trailer lines up to the blank.
        loop {
            let mut trailer = String::new();
            if read_line_capped(reader, 1024, &mut trailer)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed in chunk trailers",
                ));
            }
            if trailer.trim_end().is_empty() {
                return Ok(None);
            }
        }
    }
    let mut data = vec![0u8; len];
    reader.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunk not CRLF-terminated",
        ));
    }
    Ok(Some(data))
}

/// Size of the fixed header that prefixes every streamed frame record.
pub const FRAME_RECORD_HEADER: usize = 16;

/// The in-stream framing of one streamed frame: a 16-byte header —
/// flags `u32` LE (bit 0 = served from cache, bit 1 = skipped to the live
/// frontier, bit 2 = stale frontier re-serve under saturation, bit 3 =
/// rendered with degraded sampling, bit 4 = fetched from a sibling node's
/// cache), frame index `u64` LE, body length `u32` LE — followed by the
/// frame body. Each record is exactly one HTTP chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameRecord {
    /// The frame index this record carries.
    pub frame: u64,
    /// Body length in bytes.
    pub len: u32,
    /// Whether the frame was served from the cache.
    pub cached: bool,
    /// Whether a fallen-behind subscriber was skipped to the live frontier
    /// (the carried index is the frontier's, not the requested one).
    pub skipped: bool,
    /// Whether a saturated server re-served the channel's cached frontier
    /// instead of synthesizing (the pressure ladder's stale-serve rung; the
    /// carried index is the frontier's).
    pub stale: bool,
    /// Whether the frame was rendered with pressure-degraded (footprint)
    /// sampling instead of the session's requested exact mode.
    pub degraded: bool,
    /// Whether the frame came out of a sibling node's cache (the peer
    /// frame-cache lookup); implies `cached`.
    pub peer: bool,
}

impl FrameRecord {
    /// Encodes the fixed header.
    pub fn encode_header(&self) -> [u8; FRAME_RECORD_HEADER] {
        let mut h = [0u8; FRAME_RECORD_HEADER];
        let mut flags = 0u32;
        if self.cached {
            flags |= 1;
        }
        if self.skipped {
            flags |= 2;
        }
        if self.stale {
            flags |= 4;
        }
        if self.degraded {
            flags |= 8;
        }
        if self.peer {
            flags |= 16;
        }
        h[0..4].copy_from_slice(&flags.to_le_bytes());
        h[4..12].copy_from_slice(&self.frame.to_le_bytes());
        h[12..16].copy_from_slice(&self.len.to_le_bytes());
        h
    }

    /// Decodes the fixed header from the front of a chunk.
    pub fn decode_header(bytes: &[u8]) -> io::Result<FrameRecord> {
        if bytes.len() < FRAME_RECORD_HEADER {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame record shorter than its header",
            ));
        }
        let flags = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        if flags & !0b1_1111 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown frame record flags {flags:#x}"),
            ));
        }
        Ok(FrameRecord {
            frame: u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes")),
            len: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
            cached: flags & 1 != 0,
            skipped: flags & 2 != 0,
            stale: flags & 4 != 0,
            degraded: flags & 8 != 0,
            peer: flags & 16 != 0,
        })
    }
}

/// Writes one frame record as one chunk: header + body, the body straight
/// from its shared buffer (zero copies on the delivery path).
pub fn write_frame_record(
    out: &mut impl Write,
    record: &FrameRecord,
    body: &[u8],
) -> io::Result<()> {
    debug_assert_eq!(record.len as usize, body.len());
    write_chunk_parts(out, &[&record.encode_header(), body])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Writes one chunk.
    fn write_chunk(out: &mut impl Write, data: &[u8]) -> io::Result<()> {
        write_chunk_parts(out, &[data])
    }

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let raw = b"GET /stats HTTP/1.0\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_error() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
        assert!(read_request(&mut BufReader::new(&b"nonsense\r\n\r\n"[..])).is_err());
        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert!(read_request(&mut BufReader::new(huge.as_bytes())).is_err());
    }

    #[test]
    fn oversized_head_lines_error_instead_of_buffering() {
        // A request line with no newline at all must fail at the cap, not
        // buffer indefinitely.
        let endless = vec![b'a'; 64 * 1024];
        assert!(read_request(&mut BufReader::new(&endless[..])).is_err());
        // Same for one enormous header line.
        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(vec![b'b'; 64 * 1024]);
        assert!(read_request(&mut BufReader::new(&raw[..])).is_err());
        // Many medium headers overflowing the total budget also error.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..64 {
            raw.extend(format!("X-{i}: {}\r\n", "c".repeat(512)).into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(read_request(&mut BufReader::new(&raw[..])).is_err());
    }

    #[test]
    fn unannounced_post_body_is_length_required_not_desync() {
        // The body bytes sit right behind the head with no Content-Length:
        // parsing must stop with InvalidInput (-> 411 + close), NOT succeed
        // and leave the body to be parsed as the next request head.
        let raw = b"POST /sessions HTTP/1.1\r\nHost: x\r\n\r\n{\"field\": {\"kind\": \"shear\"}}";
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // Same for PUT/PATCH.
        let raw = b"PUT /x HTTP/1.1\r\n\r\nbody";
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // A chunked body is unframeable for this parser regardless of
        // buffering, so it is refused up front.
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwxyz\r\n0\r\n\r\n";
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // Transfer-Encoding alongside Content-Length is the classic
        // request-smuggling shape: honouring the length would leave the
        // chunk framing in the stream as a phantom next request, so it is
        // refused too.
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n4\r\nwxyz\r\n0\r\n\r\n";
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bodyless_post_without_content_length_is_accepted() {
        // `curl -X POST /shutdown` sends no body and no Content-Length;
        // that must keep working.
        let raw = b"POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert!(req.body.is_empty());
        // GETs never carry bodies; trailing buffered bytes are a pipelined
        // next request, not a desynced body.
        let raw = b"GET /stats HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.path, "/stats");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
    }

    #[test]
    fn deadline_header_parses_and_bad_values_are_ignored() {
        let raw = b"GET /f HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.deadline_ms, Some(250));
        // Case-insensitive, like every other header.
        let raw = b"GET /f HTTP/1.1\r\nx-deadline-ms: 9\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.deadline_ms, Some(9));
        // Advisory header: garbage is dropped, the request still parses.
        let raw = b"GET /f HTTP/1.1\r\nX-Deadline-Ms: soon\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.deadline_ms, None);
        let raw = b"GET /f HTTP/1.1\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn response_serializes_with_length_and_headers() {
        let resp =
            Response::shared(200, Arc::new(vec![1, 2, 3])).with_header("X-Frame-Cache", "hit");
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("X-Frame-Cache: hit\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(out.ends_with(&[1, 2, 3]));
    }

    #[test]
    fn error_envelope_is_json() {
        let resp = Response::error(503, "busy", "queue at watermark");
        let parsed = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some("busy"));
    }

    #[test]
    fn chunks_round_trip_through_writer_and_reader() {
        let mut wire = Vec::new();
        write_chunk(&mut wire, b"hello").unwrap();
        write_chunk_parts(&mut wire, &[b"wor", b"ld"]).unwrap();
        write_chunk(&mut wire, &[0u8; 300]).unwrap();
        finish_chunked(&mut wire).unwrap();
        // The multi-part write frames as ONE chunk (the zero-copy record
        // shape), and sizes are hex.
        assert!(wire.starts_with(b"5\r\nhello\r\n5\r\nworld\r\n12c\r\n"));
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(read_chunk(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_chunk(&mut reader).unwrap().unwrap(), b"world");
        assert_eq!(read_chunk(&mut reader).unwrap().unwrap(), vec![0u8; 300]);
        assert!(read_chunk(&mut reader).unwrap().is_none(), "terminal chunk");
        // The stream is back in sync: nothing left to read.
        assert!(read_chunk(&mut reader).is_err());
    }

    #[test]
    fn terminal_chunk_is_exactly_zero_crlf_crlf() {
        let mut wire = Vec::new();
        finish_chunked(&mut wire).unwrap();
        assert_eq!(wire, b"0\r\n\r\n");
        let mut reader = BufReader::new(&wire[..]);
        assert!(read_chunk(&mut reader).unwrap().is_none());
    }

    #[test]
    fn malformed_chunks_are_errors() {
        // Bad size line.
        let mut r = BufReader::new(&b"zz\r\nab\r\n"[..]);
        assert!(read_chunk(&mut r).is_err());
        // Chunk data not CRLF-terminated desyncs — refused.
        let mut r = BufReader::new(&b"2\r\nabXX"[..]);
        assert!(read_chunk(&mut r).is_err());
        // Truncated mid-data.
        let mut r = BufReader::new(&b"a\r\nab"[..]);
        assert!(read_chunk(&mut r).is_err());
        // Absurd size is rejected before any allocation.
        let mut r = BufReader::new(&b"fffffffff\r\n"[..]);
        assert!(read_chunk(&mut r).is_err());
    }

    #[test]
    fn frame_records_round_trip_as_single_chunks() {
        let body = vec![7u8; 64];
        let record = FrameRecord {
            frame: 42,
            len: body.len() as u32,
            cached: true,
            skipped: false,
            stale: false,
            degraded: false,
            peer: false,
        };
        let mut wire = Vec::new();
        write_frame_record(&mut wire, &record, &body).unwrap();
        finish_chunked(&mut wire).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        let chunk = read_chunk(&mut reader).unwrap().unwrap();
        assert_eq!(chunk.len(), FRAME_RECORD_HEADER + body.len());
        let decoded = FrameRecord::decode_header(&chunk).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(&chunk[FRAME_RECORD_HEADER..], &body[..]);
        assert!(read_chunk(&mut reader).unwrap().is_none());
        // All flag bits survive; unknown bits are refused.
        let skipped = FrameRecord {
            frame: u64::MAX,
            len: 0,
            cached: false,
            skipped: true,
            stale: true,
            degraded: true,
            peer: true,
        };
        assert_eq!(
            FrameRecord::decode_header(&skipped.encode_header()).unwrap(),
            skipped
        );
        let mut bad = skipped.encode_header();
        bad[0] |= 0x80;
        assert!(FrameRecord::decode_header(&bad).is_err());
        assert!(FrameRecord::decode_header(&[0u8; 8]).is_err());
    }

    #[test]
    fn stream_head_declares_chunked_and_no_content_length() {
        let mut out = Vec::new();
        let head = Response::shared(200, Arc::default()).with_header("X-Stream-From", "3");
        head.write_stream_head(&mut out, true).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("X-Stream-From: 3\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
