//! A minimal, allocation-conscious HTTP/1.1 request parser and response
//! writer over any `BufRead`/`Write` — no async runtime, no external
//! dependencies.
//!
//! Scope is deliberately narrow: the decision API speaks small JSON bodies
//! with `Content-Length` framing over keep-alive connections.
//! `Transfer-Encoding` is rejected, uploads are capped, and every malformed
//! input maps to a typed [`ParseError`] that the server turns into a 4xx —
//! the parser itself never panics on any byte stream (property-tested in
//! `http_proptest`).

use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Hard caps the parser enforces before buffering anything oversized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Total header bytes accepted per request.
    pub max_header_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Largest accepted `Content-Length`.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_bytes: 16 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …) as sent.
    pub method: String,
    /// The request target, e.g. `/v1/decide`.
    pub target: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header fields in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// Clean EOF before any byte of a new request: the peer closed an idle
    /// keep-alive connection. Not an error; no response is owed.
    IdleEof,
    /// Read timeout before any byte of a new request: the connection is
    /// idle. The server uses this to poll its drain flag between requests.
    IdleTimeout,
    /// EOF or timeout after a request had started: the peer stalled or
    /// vanished mid-request → `408 Request Timeout`.
    Truncated,
    /// Request line exceeded [`Limits::max_request_line`] → `431`.
    RequestLineTooLong,
    /// Header block exceeded size or count limits → `431`.
    HeadersTooLarge,
    /// `Content-Length` exceeded [`Limits::max_body`] → `413`.
    BodyTooLarge,
    /// Anything structurally wrong with the request → `400`.
    Malformed(&'static str),
    /// A transport error other than timeout/EOF; connection is unusable.
    Io(io::Error),
}

impl ParseError {
    /// The status line to answer with, when a response is owed at all
    /// (`IdleEof`/`IdleTimeout`/`Io` close silently).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            ParseError::IdleEof | ParseError::IdleTimeout | ParseError::Io(_) => None,
            ParseError::Truncated => Some((408, "request timeout")),
            ParseError::RequestLineTooLong | ParseError::HeadersTooLarge => {
                Some((431, "request header fields too large"))
            }
            ParseError::BodyTooLarge => Some((413, "content too large")),
            ParseError::Malformed(why) => Some((400, why)),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one `\n`-terminated line of at most `cap` bytes (CR stripped).
/// `started` reports whether any byte of the current request had already
/// been consumed, which decides Idle vs Truncated on EOF/timeout.
fn read_line<R: BufRead>(
    r: &mut R,
    cap: usize,
    started: &mut bool,
    too_long: ParseError,
) -> Result<String, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if is_timeout(&e) => {
                return Err(if *started {
                    ParseError::Truncated
                } else {
                    ParseError::IdleTimeout
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        };
        if buf.is_empty() {
            return Err(if *started {
                ParseError::Truncated
            } else {
                ParseError::IdleEof
            });
        }
        *started = true;
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map_or(buf.len(), |i| i + 1);
        if line.len() + take > cap + 2 {
            // +2 tolerates the CRLF itself on an exactly-cap-sized line.
            return Err(too_long);
        }
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        if nl.is_some() {
            break;
        }
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ParseError::Malformed("non-UTF-8 in request head"))
}

/// Parses one request from `r`, enforcing `limits`. Total failure isolation:
/// any byte stream yields `Ok` or a typed error, never a panic.
pub fn read_request<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Request, ParseError> {
    let mut started = false;

    // Request line — tolerate one leading blank line (robust against
    // clients sending an extra CRLF after a pipelined body).
    let mut request_line = read_line(
        r,
        limits.max_request_line,
        &mut started,
        ParseError::RequestLineTooLong,
    )?;
    if request_line.is_empty() {
        request_line = read_line(
            r,
            limits.max_request_line,
            &mut started,
            ParseError::RequestLineTooLong,
        )?;
    }
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed("bad method token"));
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(ParseError::Malformed("target must be origin-form"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Malformed("unsupported HTTP version")),
    };

    // Headers.
    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line(
            r,
            limits.max_header_bytes,
            &mut started,
            ParseError::HeadersTooLarge,
        )?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > limits.max_header_bytes || headers.len() >= limits.max_headers {
            return Err(ParseError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        // No whitespace before the colon (RFC 9112 §5.1): a server that
        // took `Content-Length\t: 5` as another field would frame the body
        // differently from one that trims the name.
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(ParseError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    // Body framing: Content-Length only.
    let mut request = Request {
        method: method.to_owned(),
        target: target.to_owned(),
        http11,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::Malformed("transfer-encoding not supported"));
    }
    let content_length = declared_content_length(&request.headers)?;
    if content_length > limits.max_body {
        return Err(ParseError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(ParseError::Truncated),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => return Err(ParseError::Truncated),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    request.body = body;
    Ok(request)
}

/// The body length the `Content-Length` fields declare, `0` when there is
/// none. A value is digits only (RFC 9110 §8.6), and repeated fields must
/// all declare the same length (RFC 9112 §6.3): a sign, or a second length
/// that differs, would let this parser and a peer frame the body
/// differently and read the rest of it as the next request.
fn declared_content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    let mut declared = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        // `usize::from_str` alone would take a leading `+` too. Past this
        // check it refuses only an empty value and one too large to
        // address.
        if !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::Malformed("bad content-length"));
        }
        let length = value
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed("bad content-length"))?;
        if declared.is_some_and(|first| first != length) {
            return Err(ParseError::Malformed("conflicting content-length"));
        }
        declared = Some(length);
    }
    Ok(declared.unwrap_or(0))
}

/// A reply body written to the socket as it is produced, for a body too
/// large to hold whole (`/debug/traces` runs to megabytes). The body is
/// measured before the reply is sent and written once, so both methods
/// must describe the same bytes.
pub trait StreamedBody: fmt::Debug + Send + Sync {
    /// The exact number of bytes [`StreamedBody::write_after`] writes after
    /// `lead`: the reply's `Content-Length`.
    fn byte_len(&self) -> u64;

    /// Writes `lead` (the reply's head), then the body, to `out`; returns
    /// the number of body bytes written.
    fn write_after(&self, lead: &[u8], out: &mut dyn Write) -> io::Result<u64>;
}

/// One response to put on the wire.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The payload, when it is held in memory; empty for a streamed reply.
    pub body: Vec<u8>,
    /// When `true`, advertise and perform `Connection: close`.
    pub close: bool,
    /// Additional response headers (name, value), written after
    /// `Content-Length` — the `traceparent` echo rides here.
    pub headers: Vec<(&'static str, String)>,
    /// A body written as it is produced, sent in place of `body`.
    stream: Option<Arc<dyn StreamedBody>>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            close: false,
            headers: Vec::new(),
            stream: None,
        }
    }

    /// A JSON response whose body is streamed rather than held.
    pub fn streamed_json(status: u16, body: impl StreamedBody + 'static) -> Self {
        Response {
            stream: Some(Arc::new(body)),
            ..Response::json(status, Vec::new())
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            content_type: "text/plain; charset=utf-8",
            ..Response::json(status, body)
        }
    }

    /// Appends one extra response header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// A JSON error envelope: `{"error":"<why>"}`.
    pub fn error(status: u16, why: &str) -> Self {
        let quoted = serde_json::to_string(&why).unwrap_or_else(|_| "\"internal\"".to_owned());
        Response::json(status, format!("{{\"error\":{quoted}}}").into_bytes())
    }

    /// Marks the response as connection-closing (builder style).
    #[must_use]
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Writes the reply to `w` and flushes it.
    ///
    /// An in-memory reply is serialised, status line, headers and body,
    /// into one buffer and handed to `w` in a single `write_all`: an
    /// unbuffered `TcpStream` with Nagle off would otherwise send one
    /// segment per formatted piece. Sending the head and the body with one
    /// `write_vectored` instead would save the copy of the body, but a
    /// `Write` without its own `write_vectored` takes one slice per call,
    /// so a reply would become two `write` calls wherever a caller counts
    /// them (servebench's `http.write_calls`).
    ///
    /// A streamed reply declares its body's measured length, then writes
    /// the head and the body through the body's own buffer, which goes to
    /// `w` each time it fills, so the body is never held whole. A body
    /// that writes a different number of bytes than it declared is an
    /// error: the caller closes the connection rather than leave the peer
    /// to frame the next reply from the wrong byte.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let reason = status_index(self.status).and_then(|i| STATUSES.get(i));
        let declared = match &self.stream {
            Some(body) => body.byte_len(),
            None => self.body.len() as u64,
        };
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {declared}\r\n",
            self.status,
            reason.map_or("Unknown", |&(_, phrase)| phrase),
            self.content_type,
        )?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        if self.close {
            wire.extend_from_slice(b"Connection: close\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        match &self.stream {
            None => {
                wire.extend_from_slice(&self.body);
                w.write_all(&wire)?;
            }
            Some(body) => {
                let written = body.write_after(&wire, w)?;
                if written != declared {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("streamed body wrote {written} bytes, declared {declared}"),
                    ));
                }
            }
        }
        w.flush()
    }
}

/// Every status this server answers with and its reason phrase: the
/// status line reads the phrase here, and the server lays out its
/// per-status metric cells in this order.
pub(crate) const STATUSES: [(u16, &str); 10] = [
    (200, "OK"),
    (400, "Bad Request"),
    (404, "Not Found"),
    (405, "Method Not Allowed"),
    (408, "Request Timeout"),
    (413, "Content Too Large"),
    (429, "Too Many Requests"),
    (431, "Request Header Fields Too Large"),
    (500, "Internal Server Error"),
    (503, "Service Unavailable"),
];

/// The position of `status` in [`STATUSES`]; `None` for a status this
/// server never sends.
pub(crate) fn status_index(status: u16) -> Option<usize> {
    STATUSES.iter().position(|&(code, _)| code == status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_get_without_body() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/healthz");
        assert!(r.http11);
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
        assert!(r.wants_keep_alive());
    }

    #[test]
    fn parses_a_post_with_content_length_body() {
        let r = parse(b"POST /v1/decide HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut cur = Cursor::new(two.to_vec());
        let a = read_request(&mut cur, &Limits::default()).unwrap();
        let b = read_request(&mut cur, &Limits::default()).unwrap();
        assert_eq!((a.target.as_str(), b.target.as_str()), ("/a", "/b"));
        assert!(!b.wants_keep_alive());
        assert!(matches!(
            read_request(&mut cur, &Limits::default()),
            Err(ParseError::IdleEof)
        ));
    }

    #[test]
    fn malformed_inputs_map_to_400() {
        for bytes in [
            b"garbage\r\n\r\n".to_vec(),
            b"GET\r\n\r\n".to_vec(),
            b"get /x HTTP/1.1\r\n\r\n".to_vec(),
            b"GET x HTTP/1.1\r\n\r\n".to_vec(),
            b"GET /x HTTP/2.0\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.1\r\nbad header\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nhello".to_vec(),
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        ] {
            let err = parse(&bytes).unwrap_err();
            assert_eq!(err.status().map(|(s, _)| s), Some(400), "{err:?}");
        }
    }

    #[test]
    fn content_length_is_digits_only() {
        for value in ["+5", "-5", "5 5", "0x5", "5;", "\u{0665}"] {
            let bytes = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            let err = parse(bytes.as_bytes()).unwrap_err();
            assert!(
                matches!(err, ParseError::Malformed(_)),
                "{value:?}: {err:?}"
            );
        }
        let empty = parse(b"POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n").unwrap_err();
        assert!(matches!(empty, ParseError::Malformed(_)), "{empty:?}");
        let padded = parse(b"POST /x HTTP/1.1\r\nContent-Length:  5 \r\n\r\nhello").unwrap();
        assert_eq!(padded.body, b"hello");
    }

    #[test]
    fn repeated_content_lengths_must_agree() {
        // Framing by the first field would read `he` as the body and leave
        // `llo` on the connection as the start of the next request.
        let conflicting =
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello";
        let err = parse(conflicting).unwrap_err();
        assert_eq!(err.status().map(|(s, _)| s), Some(400), "{err:?}");
        let same = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse(same).unwrap().body, b"hello");
    }

    #[test]
    fn oversize_and_truncation_map_to_their_statuses() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(
            parse(long_line.as_bytes()).unwrap_err().status(),
            Some((431, "request header fields too large"))
        );
        let big_body = b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(
            parse(big_body).unwrap_err(),
            ParseError::BodyTooLarge
        ));
        let truncated = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            parse(truncated).unwrap_err(),
            ParseError::Truncated
        ));
        let mid_head = b"GET /x HT";
        assert!(matches!(
            parse(mid_head).unwrap_err(),
            ParseError::Truncated
        ));
    }

    #[test]
    fn each_status_line_reads_its_phrase_from_the_table() {
        let status_line = |status| {
            let mut out = Vec::new();
            Response::text(status, "").write_to(&mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            text.lines().next().unwrap().to_owned()
        };
        for (i, &(status, phrase)) in STATUSES.iter().enumerate() {
            assert_eq!(status_index(status), Some(i));
            assert_eq!(status_line(status), format!("HTTP/1.1 {status} {phrase}"));
        }
        assert_eq!(status_index(418), None);
        assert_eq!(status_line(418), "HTTP/1.1 418 Unknown");
    }

    #[test]
    fn response_writes_with_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "hi")
            .closing()
            .write_to(&mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn extra_headers_land_in_the_head_not_the_body() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("traceparent", "00-abc-def-01".to_owned())
            .write_to(&mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        let (head, body) = s.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("traceparent: 00-abc-def-01"), "{head}");
        assert_eq!(body, "{}");
    }

    /// A decision reply as the server sends it to a traced caller that
    /// asked to close, and its exact wire form.
    fn traced_closing_reply() -> Response {
        Response::json(200, &b"{\"decision\":\"allow\"}"[..])
            .with_header(
                "traceparent",
                "00-0af7651916cd43dd8448eb211c80319c-00000000000000ff-01".to_owned(),
            )
            .closing()
    }

    const TRACED_CLOSING_WIRE: &[u8] = b"HTTP/1.1 200 OK\r\n\
        Content-Type: application/json\r\n\
        Content-Length: 20\r\n\
        traceparent: 00-0af7651916cd43dd8448eb211c80319c-00000000000000ff-01\r\n\
        Connection: close\r\n\
        \r\n\
        {\"decision\":\"allow\"}";

    /// A `Write` that counts its `write` calls and takes at most
    /// `max_per_call` bytes from each, like a socket under pressure.
    struct CallCounter {
        calls: usize,
        max_per_call: usize,
        bytes: Vec<u8>,
    }

    impl CallCounter {
        fn new(max_per_call: usize) -> Self {
            CallCounter {
                calls: 0,
                max_per_call,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for CallCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.max_per_call);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_is_one_write_call() {
        let mut sink = CallCounter::new(usize::MAX);
        traced_closing_reply().write_to(&mut sink).unwrap();
        assert_eq!(sink.calls, 1);
    }

    #[test]
    fn reply_bytes_are_the_wire_form() {
        let mut sink = CallCounter::new(usize::MAX);
        traced_closing_reply().write_to(&mut sink).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&sink.bytes),
            String::from_utf8_lossy(TRACED_CLOSING_WIRE)
        );
    }

    #[test]
    fn short_writes_deliver_the_same_bytes() {
        let mut sink = CallCounter::new(7);
        traced_closing_reply().write_to(&mut sink).unwrap();
        assert_eq!(sink.bytes, TRACED_CLOSING_WIRE);
        assert_eq!(sink.calls, TRACED_CLOSING_WIRE.len().div_ceil(7));
    }

    /// A streamed body of `len` copies of `byte` that declares `declared`
    /// bytes.
    #[derive(Debug)]
    struct Repeated {
        byte: u8,
        len: usize,
        declared: u64,
    }

    impl StreamedBody for Repeated {
        fn byte_len(&self) -> u64 {
            self.declared
        }

        fn write_after(&self, lead: &[u8], out: &mut dyn Write) -> io::Result<u64> {
            out.write_all(&[lead, &vec![self.byte; self.len]].concat())?;
            Ok(self.len as u64)
        }
    }

    #[test]
    fn a_streamed_reply_declares_its_measured_length() {
        let body = Repeated {
            byte: b'x',
            len: 5,
            declared: 5,
        };
        let mut sink = CallCounter::new(usize::MAX);
        Response::streamed_json(200, body)
            .with_header("traceparent", "00-abc-def-01".to_owned())
            .closing()
            .write_to(&mut sink)
            .unwrap();
        assert_eq!(
            String::from_utf8_lossy(&sink.bytes),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\
             traceparent: 00-abc-def-01\r\nConnection: close\r\n\r\nxxxxx"
        );
        assert_eq!(sink.calls, 1, "the body's writer decides the calls");
    }

    #[test]
    fn a_streamed_body_that_miscounts_fails_the_exchange() {
        for len in [4, 6] {
            let body = Repeated {
                byte: b'x',
                len,
                declared: 5,
            };
            let err = Response::streamed_json(200, body)
                .write_to(&mut Vec::new())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len} bytes");
        }
    }
}
