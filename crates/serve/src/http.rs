//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! The daemon speaks exactly the subset its JSON API needs: `GET`/`POST`
//! with `Content-Length` bodies. Connections close after one exchange by
//! default; a peer that sends `Connection: keep-alive` explicitly opts
//! into request pipelining on one socket (the router's upstream pool
//! rides this), and the server echoes the choice so the peer always
//! knows how the response is delimited. What the parser is careful about
//! is the untrusted edge: the header block and body are size-capped,
//! reads carry the caller's socket timeout *and* a per-connection
//! total-request deadline (a slowloris peer trickling one byte per read
//! never times out any individual read, so the per-read timeout alone
//! cannot bound how long a worker is held), and every malformed input
//! maps to a structured error response instead of a panic or a hung
//! worker — except a peer that opens (or keeps open) a connection and
//! goes away without sending a byte, which maps to the status-0
//! [`CLOSED`] pseudo-error so the worker can drop the socket silently.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fo4depth_util::Json;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Body read granularity; each chunk re-checks the request deadline.
const BODY_CHUNK: usize = 8 * 1024;

/// Pseudo-status marking a connection the peer closed (or left idle past
/// its deadline) before sending any request bytes. Not an HTTP status:
/// nothing can be written to such a peer, so callers drop the connection
/// without a response or a metrics record.
pub const CLOSED: u16 = 0;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client per RFC).
    pub method: String,
    /// Absolute path, query string included if any.
    pub path: String,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the peer sent `Connection: keep-alive`, explicitly asking
    /// to reuse this connection for another request. Default is close —
    /// existing read-to-end clients stay correct.
    pub keep_alive: bool,
}

/// A framing failure, carrying the status code the peer should see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Machine-readable error code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
        }
    }
}

/// Clock for one request's total-read deadline. Each read first checks
/// the remaining budget (expiry is a 408 regardless of per-read
/// progress) and then narrows the socket's read timeout to it, so one
/// slow read cannot overshoot the budget either.
struct Deadline {
    at: Instant,
    /// The socket's configured per-read timeout, restored as the bound
    /// whenever more budget than that remains.
    io_timeout: Option<Duration>,
}

impl Deadline {
    fn starting_now(stream: &TcpStream, total: Duration) -> Self {
        Self {
            at: Instant::now() + total,
            io_timeout: stream.read_timeout().ok().flatten(),
        }
    }

    /// Errors once the budget is spent; otherwise caps the socket's read
    /// timeout at the remaining budget.
    fn check(&self, stream: &TcpStream) -> Result<(), HttpError> {
        let remaining = self.at.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(HttpError::new(
                408,
                "deadline_exceeded",
                "request did not complete within the per-request deadline",
            ));
        }
        let cap = match self.io_timeout {
            Some(io) => io.min(remaining),
            None => remaining,
        };
        // `set_read_timeout(Some(ZERO))` is an error by contract; `cap`
        // is nonzero here. A failed set is ignored: the deadline check
        // above still bounds the loop, one read later.
        let _ = stream.set_read_timeout(Some(cap));
        Ok(())
    }

    /// Attributes a failed read: a read that timed out *because the
    /// budget ran out* (the check above narrows the socket timeout to
    /// the remaining budget) is the deadline firing, not a slow link.
    fn read_error(&self, context: &str, e: &std::io::Error) -> HttpError {
        if self.at.saturating_duration_since(Instant::now()).is_zero() {
            return HttpError::new(
                408,
                "deadline_exceeded",
                "request did not complete within the per-request deadline",
            );
        }
        HttpError::new(408, "read_timeout", format!("{context}: {e}"))
    }
}

/// Reads one request from `stream`, honouring its configured per-read
/// timeout and the whole-request `deadline`, and rejecting bodies over
/// `max_body`.
///
/// # Errors
///
/// Returns an [`HttpError`] describing the malformed or oversized input;
/// I/O failures (including timeouts) surface as status-408 errors, a
/// spent deadline as 408 `deadline_exceeded`.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    deadline: Duration,
) -> Result<Request, HttpError> {
    let deadline = Deadline::starting_now(stream, deadline);
    let head = read_head(stream, &deadline)?;
    let head_text = std::str::from_utf8(&head)
        .map_err(|_| HttpError::new(400, "bad_request", "request head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::new(400, "bad_request", "empty request"))?;
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(400, "bad_request", "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, "http_version", "HTTP/1.x only"));
    }

    let mut content_length: Option<usize> = None;
    let mut keep_alive = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "bad_request", "malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            }
            "content-length" => {
                let n: usize = value.parse().map_err(|_| {
                    HttpError::new(400, "bad_request", "unparseable content-length")
                })?;
                content_length = Some(n);
            }
            "transfer-encoding" => {
                return Err(HttpError::new(
                    501,
                    "not_implemented",
                    "transfer-encoding is not supported; send content-length",
                ));
            }
            _ => {}
        }
    }

    let body = match (method, content_length) {
        ("POST", None) => {
            return Err(HttpError::new(
                411,
                "length_required",
                "POST requires content-length",
            ));
        }
        (_, None) | (_, Some(0)) => Vec::new(),
        (_, Some(n)) if n > max_body => {
            return Err(HttpError::new(
                413,
                "body_too_large",
                format!("request body {n} bytes exceeds the {max_body} byte limit"),
            ));
        }
        (_, Some(n)) => {
            let mut body = vec![0u8; n];
            let mut filled = 0usize;
            while filled < n {
                deadline.check(stream)?;
                let end = (filled + BODY_CHUNK).min(n);
                match stream.read(&mut body[filled..end]) {
                    Ok(0) => {
                        return Err(HttpError::new(
                            408,
                            "read_timeout",
                            "connection closed mid-body",
                        ));
                    }
                    Ok(got) => filled += got,
                    Err(e) => return Err(deadline.read_error("body read", &e)),
                }
            }
            body
        }
    };

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
    })
}

/// Reads up to the `\r\n\r\n` head terminator, capped at
/// [`MAX_HEAD_BYTES`]. Each step peeks at whatever the socket holds and
/// then consumes only the bytes up to and including the terminator, so a
/// body the peer sent behind the head stays queued in the socket for the
/// body read. One step costs one peek and one read however many head
/// bytes arrived together, and each step re-checks the deadline, so a
/// peer trickling the head a byte at a time still trips it.
fn read_head(stream: &mut TcpStream, deadline: &Deadline) -> Result<Vec<u8>, HttpError> {
    let mut head = Vec::with_capacity(MAX_HEAD_BYTES + 1);
    // Until the first byte arrives there is no request: a close, timeout,
    // or spent deadline on an empty head is the peer going away (or a
    // kept-alive connection idling out), reported as `CLOSED`, never as a
    // response-worthy error.
    let closed = || HttpError::new(CLOSED, "closed", "peer closed before sending a request");
    loop {
        if let Err(e) = deadline.check(stream) {
            return Err(if head.is_empty() { closed() } else { e });
        }
        let old = head.len();
        // Never look past one byte over the cap: a head that has not
        // ended by then is rejected whatever follows.
        head.resize(MAX_HEAD_BYTES + 1, 0);
        match stream.peek(&mut head[old..]) {
            Ok(0) => {
                if old == 0 {
                    return Err(closed());
                }
                return Err(HttpError::new(
                    400,
                    "bad_request",
                    "connection closed mid-head",
                ));
            }
            Ok(n) => {
                // The terminator may straddle the previous step's bytes.
                let from = old.saturating_sub(3);
                let end = head[from..old + n]
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map(|i| from + i + 4);
                let taken = end.unwrap_or(old + n);
                head.truncate(taken);
                // The peeked bytes are already queued, so this read
                // cannot block; it rewrites them in place.
                if let Err(e) = stream.read_exact(&mut head[old..]) {
                    return Err(deadline.read_error("head read", &e));
                }
                if end.is_some() {
                    head.truncate(taken - 4);
                    return Ok(head);
                }
                if head.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::new(
                        431,
                        "head_too_large",
                        format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                    ));
                }
            }
            Err(e) => {
                if old == 0 {
                    return Err(closed());
                }
                return Err(deadline.read_error("head read", &e));
            }
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Renders a response head: the status line, the fixed headers, the
/// caller's extra headers and the blank line. `content_length` of `None`
/// declares a chunked body instead.
fn response_head(
    status: u16,
    content_type: &str,
    content_length: Option<usize>,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    let framing = match content_length {
        Some(n) => format!("content-length: {n}"),
        None => "transfer-encoding: chunked".to_string(),
    };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n{framing}\r\nconnection: {}\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" }
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Writes one JSON response and flushes. The response says
/// `connection: keep-alive` when `keep_alive`, telling the peer the
/// socket stays open for another request after this content-length
/// delimited body. Errors are swallowed: the peer may have gone away,
/// and the connection's next read reports it.
///
/// Head and body leave in one write. Two writes on a kept-alive socket
/// would let Nagle's algorithm hold the body back until the peer's
/// delayed ACK for the head.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    let mut message = response_head(
        status,
        "application/json",
        Some(body.len()),
        extra_headers,
        keep_alive,
    );
    message.extend_from_slice(body);
    let _ = stream.write_all(&message);
    let _ = stream.flush();
}

/// Progressive response delivery over HTTP/1.1 chunked transfer encoding.
///
/// The streaming sweep endpoint produces its body incrementally — one
/// fragment per completed sweep point — so it cannot declare a
/// `Content-Length` up front. This writer sends the response head with
/// `transfer-encoding: chunked`, then frames each fragment as one chunk
/// (`<hex len>\r\n<data>\r\n`) and flushes it immediately, so the peer
/// sees every fragment the moment it exists. [`finish`](Self::finish)
/// sends the `0\r\n\r\n` terminator; a connection dropped before that is
/// unambiguously truncated to the peer (unlike a `Connection: close`
/// body, a chunked stream has an explicit end marker).
///
/// Every frame (the head, each chunk, the terminator) leaves in one write.
///
/// Write failures are sticky: after the first, every subsequent call is a
/// cheap no-op and [`failed`](Self::failed) reports it, so callers can
/// stop producing for a peer that went away.
pub struct ChunkedWriter<'a, W: Write = TcpStream> {
    stream: &'a mut W,
    chunks: u64,
    failed: bool,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the response head and returns the writer. The head carries
    /// `transfer-encoding: chunked` instead of `content-length`;
    /// everything else matches [`write_response`]. The `0\r\n\r\n`
    /// terminator delimits a chunked body exactly, so a kept-alive
    /// connection is reusable the moment [`finish`](Self::finish)
    /// succeeds.
    pub fn start(stream: &'a mut W, status: u16, content_type: &str, keep_alive: bool) -> Self {
        let head = response_head(status, content_type, None, &[], keep_alive);
        let failed = stream.write_all(&head).is_err() || stream.flush().is_err();
        Self {
            stream,
            chunks: 0,
            failed,
        }
    }

    /// Frames `data` as one chunk and flushes it. Empty fragments are
    /// skipped (a zero-length chunk would terminate the stream). Returns
    /// `false` once the peer is unwritable.
    pub fn chunk(&mut self, data: &[u8]) -> bool {
        if self.failed || data.is_empty() {
            return !self.failed;
        }
        let mut frame = format!("{:x}\r\n", data.len()).into_bytes();
        frame.extend_from_slice(data);
        frame.extend_from_slice(b"\r\n");
        self.failed = self.stream.write_all(&frame).is_err() || self.stream.flush().is_err();
        if !self.failed {
            self.chunks += 1;
        }
        !self.failed
    }

    /// Sends the stream terminator. Returns how many data chunks were
    /// delivered and whether the whole stream (terminator included)
    /// reached the peer — the precondition for reusing the connection.
    pub fn finish(mut self) -> (u64, bool) {
        if !self.failed {
            self.failed =
                self.stream.write_all(b"0\r\n\r\n").is_err() || self.stream.flush().is_err();
        }
        (self.chunks, !self.failed)
    }

    /// Whether a write has failed (the peer is gone; stop producing).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Data chunks delivered so far.
    #[must_use]
    pub fn chunks(&self) -> u64 {
        self.chunks
    }
}

/// Renders the daemon's uniform error body.
#[must_use]
pub fn error_body(code: &str, message: &str) -> String {
    Json::obj(vec![(
        "error",
        Json::obj(vec![
            ("code", Json::str(code)),
            ("message", Json::str(message)),
        ]),
    )])
    .render()
}

/// Writes an [`HttpError`] as a structured response.
pub fn write_error<W: Write>(stream: &mut W, err: &HttpError) {
    write_response(
        stream,
        err.status,
        &[],
        error_body(err.code, &err.message).as_bytes(),
        false,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `read_request` against raw client bytes over a real socket.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("send");
            s
        });
        let (mut server_side, _) = listener.accept().expect("accept");
        server_side
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let out = read_request(&mut server_side, max_body, Duration::from_secs(5));
        drop(client.join().expect("client"));
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /v1/report HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"",
            1024,
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/report");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n", 1024).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let err = parse(b"POST /v1/run HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 16).unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn rejects_post_without_length_and_chunked() {
        let err = parse(b"POST /v1/run HTTP/1.1\r\n\r\n", 1024).unwrap_err();
        assert_eq!(err.status, 411);
        let err = parse(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert_eq!(err.status, 501);
    }

    #[test]
    fn rejects_oversized_head_and_truncated_body() {
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        let err = parse(huge.as_bytes(), 1024).unwrap_err();
        assert_eq!(err.status, 431);

        // Declared 10 bytes, sent 2, then closed/stalled → timeout error.
        let err = parse(
            b"POST /v1/run HTTP/1.1\r\nContent-Length: 10\r\n\r\nab",
            1024,
        )
        .unwrap_err();
        assert_eq!(err.status, 408);
    }

    #[test]
    fn slowloris_head_trips_the_total_deadline_not_the_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // The peer trickles a valid-looking head one byte at a time, each
        // byte well inside the 500 ms per-read timeout — the classic
        // slowloris shape that per-read timeouts cannot catch.
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            for b in b"GET /metrics HTTP/1.1\r\nX-Slow: yes\r\n\r\n" {
                if s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(40));
            }
            s
        });
        let (mut server_side, _) = listener.accept().expect("accept");
        server_side
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let started = Instant::now();
        let err = read_request(&mut server_side, 1024, Duration::from_millis(250)).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err.status, 408);
        assert_eq!(err.code, "deadline_exceeded");
        assert!(
            elapsed < Duration::from_secs(2),
            "worker freed promptly, held {elapsed:?}"
        );
        drop(server_side);
        drop(client.join().expect("client"));
    }

    #[test]
    fn head_split_inside_its_terminator_leaves_the_body_in_the_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // The head ends mid-terminator in one segment; the next segment
        // carries the terminator's last byte, then the body, then a second
        // pipelined request.
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            s.write_all(b"POST /v1/run HTTP/1.1\r\nContent-Length: 4\r\n\r")
                .expect("send");
            std::thread::sleep(Duration::from_millis(50));
            s.write_all(b"\n{\"a\"GET /metrics HTTP/1.1\r\n\r\n")
                .expect("send");
            s
        });
        let (mut server_side, _) = listener.accept().expect("accept");
        server_side
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let first = read_request(&mut server_side, 1024, Duration::from_secs(5)).expect("first");
        assert_eq!(first.path, "/v1/run");
        assert_eq!(first.body, b"{\"a\"");
        let second = read_request(&mut server_side, 1024, Duration::from_secs(5)).expect("second");
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/metrics");
        drop(client.join().expect("client"));
    }

    /// A sink that takes every buffer whole and counts the calls, so each
    /// `write_all` on it is exactly one counted `write`.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_buffered_response_leaves_in_one_write() {
        let mut sink = CountingSink::default();
        write_response(&mut sink, 429, &[("retry-after", "1")], b"{}", true);
        assert_eq!(sink.writes, 1);
        assert_eq!(
            sink.bytes,
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
              content-length: 2\r\nconnection: keep-alive\r\nretry-after: 1\r\n\r\n{}"
        );
    }

    #[test]
    fn each_chunk_leaves_in_one_write() {
        let mut sink = CountingSink::default();
        let mut writer = ChunkedWriter::start(&mut sink, 200, "application/octet-stream", false);
        assert!(writer.chunk(b"hello"));
        assert!(writer.chunk(b""), "an empty fragment is skipped");
        assert!(writer.chunk(&[b'x'; 26]));
        assert_eq!(writer.finish(), (2, true));
        // Head, two chunks, terminator.
        assert_eq!(sink.writes, 4);
        let expected = [
            b"HTTP/1.1 200 OK\r\ncontent-type: application/octet-stream\r\n\
              transfer-encoding: chunked\r\nconnection: close\r\n\r\n"
                .as_slice(),
            b"5\r\nhello\r\n",
            b"1a\r\nxxxxxxxxxxxxxxxxxxxxxxxxxx\r\n",
            b"0\r\n\r\n",
        ]
        .concat();
        assert_eq!(sink.bytes, expected);
    }

    /// The body limit the never-panic property runs under.
    const MAX_BODY: usize = 64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary request heads never panic `read_request`: every input
        /// parses, is refused with a 4xx/5xx, or reads as `CLOSED`, and an
        /// accepted body never exceeds the limit. Heads run up to twice
        /// `MAX_HEAD_BYTES` as random lines joined by CRLFs, after a
        /// request line (valid, wrong version, or none) and a
        /// `content-length` (none, in range, huge, or malformed). In half
        /// the cases about one line in three is raw bytes; the rest are
        /// printable headers. One case in eight has no terminator, and one
        /// in eight may send less body than it declares; those wait out
        /// the helper's 500 ms read timeout.
        #[test]
        fn read_request_never_panics_on_arbitrary_heads(
            request_line in 0u8..6,
            content_length in 0u8..8,
            length in any::<u64>(),
            raw in any::<bool>(),
            lines in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(any::<u8>(), 0..2000)),
                0..9,
            ),
            shape in 0u8..8,
            body in proptest::collection::vec(any::<u8>(), 0..2 * MAX_BODY),
        ) {
            let mut head: Vec<Vec<u8>> = Vec::new();
            match request_line {
                0 | 1 => head.push(b"GET /metrics HTTP/1.1".to_vec()),
                2 | 3 => head.push(b"POST /v1/run HTTP/1.1".to_vec()),
                4 => head.push(b"GET / HTTP/2.0".to_vec()),
                _ => {}
            }
            let declared = match content_length {
                0..=2 => None,
                3..=5 => Some((length % (2 * MAX_BODY as u64)).to_string()),
                6 => Some(length.to_string()),
                _ => Some(match length % 3 {
                    0 => "-1".to_string(),
                    1 => format!("{length}0"),
                    _ => format!("0x{length:x}"),
                }),
            };
            if let Some(value) = declared {
                head.push(format!("content-length: {value}").into_bytes());
            }
            for (rank, bytes) in lines {
                head.push(if raw && rank == 0 {
                    bytes
                } else {
                    let mut line = b"x-pad: ".to_vec();
                    line.extend(bytes.iter().map(|b| b' ' + b % 95));
                    line
                });
            }
            let mut raw = head.join(&b"\r\n"[..]);
            if shape != 0 {
                raw.extend_from_slice(b"\r\n\r\n");
                raw.extend_from_slice(&body);
                if shape != 1 {
                    raw.resize(raw.len() + 2 * MAX_BODY - body.len(), b'z');
                }
            }
            match parse(&raw, MAX_BODY) {
                Ok(req) => prop_assert!(req.body.len() <= MAX_BODY),
                Err(e) => prop_assert!(
                    e.status == CLOSED || (400..600).contains(&e.status),
                    "status {} ({})",
                    e.status,
                    e.code
                ),
            }
        }
    }

    #[test]
    fn error_body_is_valid_json() {
        let body = error_body("queue_full", "try later");
        let doc = Json::parse(&body).expect("valid");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("queue_full")
        );
    }
}
