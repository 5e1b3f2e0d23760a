//! Minimal, allocation-conscious HTTP/1.1 framing: request parsing with
//! content-length bodies and keep-alive, response writing.
//!
//! This is deliberately not a general HTTP implementation — it is the
//! subset the protocol needs (no chunked bodies, no multipart, no TLS),
//! hardened where a public socket demands it: every limit (request-line
//! bytes, header count and size, body bytes) is enforced *before* the
//! bytes are buffered, and every malformed input becomes a typed
//! [`HttpError`] carrying the status to answer with, never a panic.

use std::io::{BufRead, Read, Write};

/// Upper bound on the request line, per header line, and on the header
/// block as a whole — standard proxy-grade limits.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of headers per request.
const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// The raw query string (after `?`, empty when absent).
    pub query: String,
    /// Whether the request line said `HTTP/1.0` (keep-alive defaults
    /// differ between 1.0 and 1.1).
    pub http10: bool,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-case) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open. HTTP/1.1
    /// defaults to keep-alive unless `Connection: close`; HTTP/1.0
    /// defaults to close unless the client explicitly opts in with
    /// `Connection: keep-alive` (a strict 1.0 client that ignores our
    /// connection header would otherwise wait on a socket we hold open).
    pub fn keep_alive(&self) -> bool {
        // The header value is a comma-separated token list ("close, te"),
        // and repeated Connection lines are equivalent to one joined list.
        let has = |token: &str| {
            self.headers
                .iter()
                .filter(|(k, _)| k == "connection")
                .flat_map(|(_, v)| v.split(','))
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        if self.http10 {
            has("keep-alive")
        } else {
            !has("close")
        }
    }
}

/// A protocol-level failure: the status to answer with and a message for
/// the error body.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable description (lands in the JSON error body).
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// A failed socket read: 408 only for timeouts (per-read or
/// whole-request deadline — the client being slow, even mid-body);
/// resets and other transport failures are the client's 400.
fn read_error(e: std::io::Error, context: &str) -> HttpError {
    let status = match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => 408,
        _ => 400,
    };
    HttpError::new(status, format!("{context}: {e}"))
}

/// Blocks until the next request's first byte is buffered, without
/// consuming it. `Ok(false)` means the client closed cleanly instead.
/// Callers start a request's clock *after* this returns, so a keep-alive
/// client's think time between requests never counts as request time.
pub fn await_request<R: BufRead>(r: &mut R) -> Result<bool, HttpError> {
    r.fill_buf()
        .map(|buf| !buf.is_empty())
        .map_err(|e| read_error(e, "read failed"))
}

/// Reads one line terminated by `\n`, capped at [`MAX_LINE_BYTES`].
/// Returns `None` on clean EOF before any byte.
fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let mut limited = r.take(MAX_LINE_BYTES as u64 + 1);
    let n = limited
        .read_until(b'\n', &mut buf)
        .map_err(|e| read_error(e, "read failed"))?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES {
        return Err(HttpError::new(431, "header line too long"));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::new(400, "request head is not UTF-8"))
}

/// Reads one request off the connection. `Ok(None)` means the client
/// closed cleanly between requests (the keep-alive loop ends).
pub fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> Result<Option<Request>, HttpError> {
    // Tolerate a few stray blank lines between requests (lenient parsers
    // accept them) — bounded, so a client streaming CRLFs cannot pin the
    // worker (or, recursively, its stack).
    let line;
    let mut strays = 0;
    loop {
        let Some(l) = read_line(r)? else {
            return Ok(None);
        };
        if !l.is_empty() {
            line = l;
            break;
        }
        strays += 1;
        if strays > 8 {
            return Err(HttpError::new(400, "too many blank lines between requests"));
        }
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(
            400,
            format!("malformed request line {line:?}"),
        ));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            505,
            format!("unsupported version {version}"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(r)? else {
            return Err(HttpError::new(400, "connection closed mid-headers"));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        http10: version == "HTTP/1.0",
        headers,
        body: Vec::new(),
    };

    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::new(
            501,
            "chunked transfer encoding not supported",
        ));
    }
    let len = match req.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("bad content-length {v:?}")))?,
    };
    if len > max_body {
        // Answered before a single body byte is buffered: an oversized
        // Content-Length cannot make the server allocate.
        return Err(HttpError::new(
            413,
            format!("body of {len} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| read_error(e, "body shorter than content-length"))?;
    Ok(Some(Request { body, ..req }))
}

/// The reason phrase for the statuses this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Writes one response with explicit content-length framing. A
/// `request_id` (sanitized or server-generated — never raw client input)
/// is echoed as `x-request-id` so clients can correlate answers with
/// traces and access-log lines; `allow` is a `405`'s method list.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    request_id: Option<&str>,
    allow: Option<&str>,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        status_text(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in [("x-request-id", request_id), ("allow", allow)] {
        if let Some(value) = value {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_post_with_body_and_strips_query() {
        let req =
            parse("POST /v1/engines/e/query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbodyEXTRA")
                .expect("ok")
                .expect("some");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/engines/e/query");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(!req.keep_alive());
        // The header is a token list, not a single value…
        let req = parse("GET / HTTP/1.1\r\nConnection: close, te\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(!req.keep_alive());
        // …and repeated Connection lines join into one list.
        let req = parse("GET / HTTP/1.1\r\nConnection: te\r\nConnection: close\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(!req.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close_unless_opted_in() {
        let req = parse("GET / HTTP/1.0\r\n\r\n").expect("ok").expect("some");
        assert!(req.http10);
        assert!(!req.keep_alive(), "1.0 must default to close");
        let req = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(req.keep_alive(), "1.0 may opt in explicitly");
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive, te\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(req.keep_alive(), "1.0 opt-in works inside a token list");
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert!(parse("").expect("ok").is_none());
    }

    #[test]
    fn malformed_inputs_map_to_statuses() {
        assert_eq!(parse("garbage\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/3\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(
            parse("GET / HTTP/1.1\r\nbad header line\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: nine\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n")
                .unwrap_err()
                .status,
            413
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            501
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\nshrt")
                .unwrap_err()
                .status,
            400
        );
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(parse(&long).unwrap_err().status, 431);
    }

    #[test]
    fn blank_line_floods_are_bounded_not_recursive() {
        // A few stray blank lines are tolerated…
        let req = parse("\r\n\r\nGET / HTTP/1.1\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert_eq!(req.method, "GET");
        // …but a CRLF flood is a 400, not unbounded work (or, in the old
        // recursive implementation, a stack overflow).
        let flood = "\r\n".repeat(100_000) + "GET / HTTP/1.1\r\n\r\n";
        assert_eq!(parse(&flood).unwrap_err().status, 400);
    }

    #[test]
    fn header_count_is_bounded() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            raw.push_str(&format!("x-h-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn responses_are_framed_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true, None, None).expect("write");
        let s = String::from_utf8(out).expect("utf8");
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("content-length: 2\r\n"), "{s}");
        assert!(s.contains("connection: keep-alive\r\n"), "{s}");
        assert!(!s.contains("x-request-id"), "{s}");
        assert!(s.ends_with("\r\n\r\n{}"), "{s}");
    }

    #[test]
    fn responses_echo_the_request_id() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "application/json",
            b"{}",
            false,
            Some("r-9"),
            Some("POST, GET"),
        )
        .expect("write");
        let s = String::from_utf8(out).expect("utf8");
        assert!(s.contains("x-request-id: r-9\r\n"), "{s}");
        assert!(s.contains("allow: POST, GET\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\n{}"), "{s}");
    }
}
