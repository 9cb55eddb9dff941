//! A deliberately minimal HTTP/1.1 codec — just enough for the serve
//! protocol: request line + headers + `Content-Length` body, keep-alive
//! connections, and typed errors for every malformed frame.
//!
//! Restrictions (all answered with a typed error, never a panic or a
//! hang):
//!
//! * header block capped at [`HttpLimits::max_head_bytes`];
//! * bodies capped at [`HttpLimits::max_body_bytes`] (→ 413);
//! * `Transfer-Encoding` is not supported (→ 400); bodies require an
//!   explicit `Content-Length`;
//! * request bodies for the text endpoints must be UTF-8 (checked by the
//!   caller via [`HttpRequest::utf8_body`]).

use std::io::{self, BufRead, Write};

/// Hard limits applied while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Longest accepted request line + header block, in bytes.
    pub max_head_bytes: usize,
    /// Largest accepted `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits { max_head_bytes: 16 * 1024, max_body_bytes: 1024 * 1024 }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path only; no scheme/host form support).
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or a 400-mapped error.
    pub fn utf8_body(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("request body is not valid UTF-8".into()))
    }
}

/// Why a request could not be read. [`HttpError::status`] gives the
/// response code the server answers with before closing the connection.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically broken request (bad request line, bad header, bad
    /// `Content-Length`, unsupported `Transfer-Encoding`, non-UTF-8 text
    /// body) → 400.
    Malformed(String),
    /// Head or body over the configured limit → 413.
    TooLarge(String),
    /// The peer closed (or the stream was cut) after a complete head but
    /// before `Content-Length` bytes of body arrived. The frame is dead
    /// but the *failure mode* is known-transient: a retrying client may
    /// safely reissue the request on a fresh connection.
    Truncated(String),
    /// The socket died mid-request (timeout, reset, truncated frame).
    /// Nothing can be answered; the connection just closes.
    Io(io::Error),
}

impl HttpError {
    /// The HTTP status this error maps to (`None`: connection is dead,
    /// nothing to send).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::TooLarge(_) => Some((413, "Payload Too Large")),
            HttpError::Truncated(_) | HttpError::Io(_) => None,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::Malformed(m) | HttpError::TooLarge(m) | HttpError::Truncated(m) => m.clone(),
            HttpError::Io(e) => e.to_string(),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line terminated by `\n` (tolerating `\r\n`), bounded by the
/// remaining head budget. Returns `None` on clean EOF at a line start.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    // `take` bounds the read so an endless unterminated line cannot blow
    // the budget by more than one byte; `read_until` runs off the
    // BufReader's internal buffer (memchr), not byte-at-a-time reads.
    let limit = *budget as u64 + 1;
    let n =
        io::Read::take(&mut *reader, limit).read_until(b'\n', &mut line).map_err(HttpError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        if n > *budget {
            return Err(HttpError::TooLarge("request head exceeds the limit".into()));
        }
        return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    if n > *budget {
        return Err(HttpError::TooLarge("request head exceeds the limit".into()));
    }
    *budget -= n;
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(HttpError::Malformed("request head is not valid UTF-8".into())),
    }
}

/// Reads one request off the connection. `Ok(None)` means the peer
/// closed cleanly between requests (normal keep-alive end).
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &HttpLimits,
) -> Result<Option<HttpRequest>, HttpError> {
    let mut budget = limits.max_head_bytes;
    // Tolerate blank lines before the request line (RFC 9112 §2.2).
    let request_line = loop {
        match read_line(reader, &mut budget)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => continue,
            Some(line) => break line,
        }
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(HttpError::Malformed(format!("bad request line {request_line:?}")));
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported protocol version {version:?}")));
    }
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            None => return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into())),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::Malformed("Transfer-Encoding is not supported".into()));
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {}-byte limit",
            limits.max_body_bytes
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| truncated_body(e, "request", content_length))?;
    let keep_alive = {
        let conn =
            headers.iter().find(|(n, _)| n == "connection").map(|(_, v)| v.to_ascii_lowercase());
        match conn.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => version == "HTTP/1.1",
        }
    };
    Ok(Some(HttpRequest { method, path, headers, body, keep_alive }))
}

/// Writes one `text/plain` response.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with_headers(writer, status, reason, body, keep_alive, &[])
}

/// [`write_response`] with extra headers (`Retry-After`, `X-Body-Crc`,
/// …) between the fixed trio and the body. Header names/values must
/// already be wire-safe; this does no escaping.
pub fn write_response_with_headers(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
    extra: &[(&str, String)],
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "\r\n{body}")?;
    writer.flush()
}

/// A parsed response (the load generator's client side).
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy conversions are protocol errors for the
    /// load generator, so this is strict).
    pub fn utf8_body(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("response body is not valid UTF-8".into()))
    }

    /// Whether the server will keep the connection open after this
    /// response (absent `Connection` header defaults to keep-alive).
    pub fn keep_alive(&self) -> bool {
        self.headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| !v.eq_ignore_ascii_case("close"))
            .unwrap_or(true)
    }
}

/// Writes one request with an `X-Api-Key` header (the load generator's
/// client side).
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    api_key: &str,
    body: &[u8],
) -> io::Result<()> {
    write_request_with_headers(writer, method, path, api_key, body, &[])
}

/// [`write_request`] with extra headers (`Idempotency-Key`,
/// `X-Body-Crc`, …). Header names/values must already be wire-safe.
pub fn write_request_with_headers(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    api_key: &str,
    body: &[u8],
    extra: &[(&str, String)],
) -> io::Result<()> {
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nX-Api-Key: {api_key}\r\nContent-Length: {}\r\n",
        body.len()
    )?;
    for (name, value) in extra {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

/// Reads one response off a client connection. `Ok(None)` on clean EOF.
pub fn read_response(
    reader: &mut impl BufRead,
    limits: &HttpLimits,
) -> Result<Option<HttpResponse>, HttpError> {
    let mut budget = limits.max_head_bytes;
    let status_line = match read_line(reader, &mut budget)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = status_line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| HttpError::Malformed(format!("bad status line {status_line:?}")))?,
        _ => return Err(HttpError::Malformed(format!("bad status line {status_line:?}"))),
    };
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            None => return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into())),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge("response body exceeds the limit".into()));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| truncated_body(e, "response", content_length))?;
    Ok(Some(HttpResponse { status, headers, body }))
}

/// Classifies a body-read failure: EOF after a complete head is a
/// [`HttpError::Truncated`] frame (retry-safe), anything else stays io.
fn truncated_body(e: io::Error, what: &str, expected: usize) -> HttpError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        HttpError::Truncated(format!("{what} body truncated before {expected} bytes arrived"))
    } else {
        HttpError::Io(e)
    }
}

/// The `X-Body-Crc` checksum carried on requests and responses.
pub use bagcq_obs::crc32;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        read_request(&mut BufReader::new(bytes), &HttpLimits::default())
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /v1/count HTTP/1.1\r\nX-Api-Key: k\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/count");
        assert_eq!(req.header("x-api-key"), Some("k"));
        assert_eq!(req.utf8_body().unwrap(), "hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn bare_lf_and_connection_close() {
        let req = parse(b"GET /metrics HTTP/1.1\nConnection: close\n\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
        assert!(parse(b"\r\n\r\n").unwrap().is_none(), "stray blank lines then EOF");
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        for bytes in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET /x HTTP/2\r\n\r\n".as_slice(),
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
            b"GET \xff\xfe HTTP/1.1\r\n\r\n".as_slice(),
        ] {
            let e = parse(bytes).unwrap_err();
            assert_eq!(e.status(), Some((400, "Bad Request")), "{e:?} for {bytes:?}");
        }
    }

    #[test]
    fn truncated_frames_are_io_errors() {
        for bytes in [
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".as_slice(),
            b"GET /x HTTP/1.1\r\nHeader: truncated".as_slice(),
        ] {
            let e = parse(bytes).unwrap_err();
            assert!(e.status().is_none(), "{e:?}");
        }
    }

    #[test]
    fn oversized_head_and_body_are_413() {
        let limits = HttpLimits { max_head_bytes: 64, max_body_bytes: 8 };
        let mut big = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        big.extend(std::iter::repeat(b'a').take(100));
        big.extend(b"\r\n\r\n");
        let e = read_request(&mut BufReader::new(big.as_slice()), &limits).unwrap_err();
        assert_eq!(e.status(), Some((413, "Payload Too Large")), "{e:?}");

        let e = read_request(
            &mut BufReader::new(
                b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789".as_slice(),
            ),
            &limits,
        )
        .unwrap_err();
        assert_eq!(e.status(), Some((413, "Payload Too Large")), "{e:?}");
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "OK", "ok: count\ncount: 4\n", true).unwrap();
        let resp = read_response(&mut BufReader::new(buf.as_slice()), &HttpLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.utf8_body().unwrap(), "ok: count\ncount: 4\n");
        assert_eq!(
            resp.headers.iter().find(|(n, _)| n == "connection").map(|(_, v)| v.as_str()),
            Some("keep-alive")
        );
    }

    #[test]
    fn client_request_parses_back() {
        let mut buf = Vec::new();
        write_request(&mut buf, "POST", "/v1/count", "k1", b"query:\n  ?- e(X, Y).\n").unwrap();
        let req = parse(&buf).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/count");
        assert_eq!(req.header("x-api-key"), Some("k1"));
        assert_eq!(req.utf8_body().unwrap(), "query:\n  ?- e(X, Y).\n");
    }

    #[test]
    fn truncated_response_body_is_typed() {
        // A complete head promising 10 body bytes, then EOF after 5: a
        // typed `Truncated` that names the cut, not a bare io error.
        let bytes = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort".as_slice();
        let e = read_response(&mut BufReader::new(bytes), &HttpLimits::default()).unwrap_err();
        assert!(matches!(e, HttpError::Truncated(_)), "{e:?}");
        assert!(e.status().is_none(), "nothing can be answered on a dead frame");
        assert!(e.detail().contains("truncated"), "{e:?}");
    }

    #[test]
    fn extra_headers_round_trip() {
        let mut buf = Vec::new();
        write_response_with_headers(
            &mut buf,
            429,
            "Too Many Requests",
            "error: shed\n",
            false,
            &[("Retry-After", "1".to_string()), ("X-Body-Crc", format!("{:08x}", 7))],
        )
        .unwrap();
        let resp = read_response(&mut BufReader::new(buf.as_slice()), &HttpLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("x-body-crc"), Some("00000007"));
        assert!(!resp.keep_alive());

        let mut buf = Vec::new();
        write_request_with_headers(
            &mut buf,
            "POST",
            "/v1/count",
            "k1",
            b"body",
            &[("Idempotency-Key", "req-0042".to_string())],
        )
        .unwrap();
        let req = parse(&buf).unwrap().unwrap();
        assert_eq!(req.header("idempotency-key"), Some("req-0042"));
        assert_eq!(req.header("x-api-key"), Some("k1"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn two_requests_on_one_connection() {
        let bytes = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(bytes.as_slice());
        let limits = HttpLimits::default();
        let a = read_request(&mut reader, &limits).unwrap().unwrap();
        let b = read_request(&mut reader, &limits).unwrap().unwrap();
        assert_eq!(a.path, "/healthz");
        assert_eq!(b.path, "/metrics");
        assert!(read_request(&mut reader, &limits).unwrap().is_none());
    }
}
