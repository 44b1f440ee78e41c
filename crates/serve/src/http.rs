//! A hand-rolled HTTP/1.1 subset on `std::net` — just enough protocol
//! for the inference API, with hard limits everywhere a network peer
//! could make us allocate.
//!
//! Supported: one request per connection (every response carries
//! `Connection: close`), request bodies sized by `Content-Length`.
//! Rejected with structured errors: header sections over
//! [`MAX_HEAD_BYTES`], bodies over the configured limit, chunked
//! transfer encoding, and any syntactically malformed framing.
//!
//! The framing core is *incremental*: [`parse_head`] inspects a growing
//! byte buffer and reports "need more bytes" (`Ok(None)`) until the
//! blank line arrives, which is what lets the event-driven reactor in
//! `crate::reactor` frame requests from non-blocking reads without a
//! thread parked per connection.

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the peer, not normalized here).
    pub method: String,
    /// The request target, e.g. `/predict`.
    pub target: String,
    /// Header name/value pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request head could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed framing; the message is safe to echo to the peer.
    BadRequest(String),
    /// `Content-Length` exceeded the configured body limit.
    PayloadTooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
}

/// A fully parsed request head: everything before the body, plus the
/// framing facts a caller needs to finish reading the message.
#[derive(Debug)]
pub struct FramedHead {
    /// The request with its headers parsed and an empty body.
    pub request: Request,
    /// Byte offset of the `\r\n\r\n` separator in the scanned buffer.
    pub head_end: usize,
    /// The declared `Content-Length` (0 when absent), already validated
    /// against the body limit.
    pub content_length: usize,
}

impl FramedHead {
    /// Total framed size of the message: head, separator, and body.
    pub fn total_len(&self) -> usize {
        self.head_end + 4 + self.content_length
    }
}

/// Incrementally parses a request head from `buf`.
///
/// Returns `Ok(None)` while the `\r\n\r\n` separator has not arrived yet
/// (and the buffer is still within [`MAX_HEAD_BYTES`]) — the caller
/// should read more bytes and try again with the grown buffer.
///
/// # Errors
///
/// [`HttpError::BadRequest`] for malformed framing (including a head
/// that exceeds [`MAX_HEAD_BYTES`] without terminating), and
/// [`HttpError::PayloadTooLarge`] when the declared `Content-Length`
/// exceeds `max_body`.
pub fn parse_head(buf: &[u8], max_body: usize) -> Result<Option<FramedHead>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest(format!(
                "header section exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::BadRequest(format!(
            "header section exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("headers are not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!("malformed header name: {name:?}")));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };

    // Every Transfer-Encoding header counts: a `chunked` behind an
    // `identity` must not leave the body framed by Content-Length.
    let coded = |(k, v): &(String, String)| {
        k.eq_ignore_ascii_case("transfer-encoding") && !v.eq_ignore_ascii_case("identity")
    };
    if request.headers.iter().any(coded) {
        return Err(HttpError::BadRequest("chunked transfer encoding is not supported".into()));
    }

    let content_length = content_length(&request.headers, max_body)?;

    Ok(Some(FramedHead { request, head_end, content_length }))
}

/// The body length the `Content-Length` headers declare (0 when there
/// are none). RFC 9112 §6.3: each value must be `1*DIGIT` (no sign, no
/// list) and repeated headers must agree, else the framing is invalid.
/// A well-formed length past `max_body` (or past `usize`) is too large.
fn content_length(headers: &[(String, String)], max_body: usize) -> Result<usize, HttpError> {
    let mut declared: Option<&str> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k.eq_ignore_ascii_case("content-length")) {
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::BadRequest(format!("invalid Content-Length {v:?}")));
        }
        // Compare values, not spellings: `05` and `5` agree.
        let digits = v.trim_start_matches('0');
        match declared {
            Some(first) if first != digits => {
                return Err(HttpError::BadRequest(
                    "conflicting Content-Length headers".to_string(),
                ))
            }
            _ => declared = Some(digits),
        }
    }
    match declared {
        None | Some("") => Ok(0),
        Some(digits) => match digits.parse::<usize>() {
            Ok(n) if n <= max_body => Ok(n),
            _ => Err(HttpError::PayloadTooLarge { limit: max_body }),
        },
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes one `Connection: close` JSON response to wire bytes.
pub fn build_response(status: u16, extra_headers: &[(&str, String)], body: &str) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `bytes` into a growing buffer `step` bytes at a time, the way
    /// the reactor's non-blocking reads do, until [`parse_head`] frames a
    /// head. Returns the framed request with its body, or `Ok(None)` when
    /// the bytes run out first (mid-head or mid-body).
    fn feed(bytes: &[u8], step: usize, max_body: usize) -> Result<Option<Request>, HttpError> {
        let mut buf = Vec::new();
        for chunk in bytes.chunks(step) {
            buf.extend_from_slice(chunk);
            if let Some(head) = parse_head(&buf, max_body)? {
                let total = head.total_len();
                if bytes.len() < total {
                    return Ok(None);
                }
                let body = bytes[head.head_end + 4..total].to_vec();
                return Ok(Some(Request { body, ..head.request }));
            }
        }
        Ok(None)
    }

    #[test]
    fn parses_a_post_with_body() {
        let bytes = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        for step in [1, 7, bytes.len()] {
            let req = feed(bytes, step, 1024).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.target, "/predict");
            assert_eq!(req.header("host"), Some("x"));
            assert_eq!(req.header("HOST"), Some("x"));
            assert_eq!(req.body, b"hello", "step={step}");
        }
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = feed(b"GET /metrics HTTP/1.1\r\n\r\n", 3, 1024).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn incremental_parse_waits_for_the_blank_line() {
        let full = b"POST /predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..full.len() {
            let r = parse_head(&full[..cut], 1024);
            let complete = cut >= full.len() - 5; // separator fully present
            match r {
                Ok(None) => assert!(!complete, "cut={cut} should have parsed"),
                Ok(Some(h)) => {
                    assert!(complete, "cut={cut} parsed too early");
                    assert_eq!(h.content_length, 5);
                    assert_eq!(h.total_len(), full.len());
                    assert_eq!(h.request.method, "POST");
                }
                Err(e) => panic!("cut={cut}: unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed_framing() {
        for bytes in [
            &b"NOT A REQUEST\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            for step in [1, bytes.len()] {
                match feed(bytes, step, 1024) {
                    Err(HttpError::BadRequest(_)) => {}
                    other => panic!("{bytes:?}: expected BadRequest, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn content_length_must_be_digits_and_agree() {
        for bad in ["+5", "-5", " 5 5", "5,5", "0x5", "5.0", "５"] {
            let bytes = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            match parse_head(bytes.as_bytes(), 1024) {
                Err(HttpError::BadRequest(msg)) => assert!(msg.contains("Content-Length"), "{msg}"),
                other => panic!("{bad:?}: expected BadRequest, got {other:?}"),
            }
        }
        // A second header that disagrees with the first is refused,
        // whichever of the two a reader would have picked.
        for (a, b) in [("5", "6"), ("6", "5"), ("5", "")] {
            let bytes = format!(
                "POST /x HTTP/1.1\r\nContent-Length: {a}\r\ncontent-length: {b}\r\n\r\nhello!"
            );
            match parse_head(bytes.as_bytes(), 1024) {
                Err(HttpError::BadRequest(msg)) => assert!(msg.contains("Content-Length"), "{msg}"),
                other => panic!("{a:?}/{b:?}: expected BadRequest, got {other:?}"),
            }
        }
        // Repeats that agree, leading zeros included, frame normally.
        let bytes = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 005\r\n\r\nhello";
        assert_eq!(feed(bytes, 1, 1024).unwrap().unwrap().body, b"hello");
        let bytes = b"POST /x HTTP/1.1\r\nContent-Length: 00\r\n\r\n";
        assert_eq!(parse_head(bytes, 1024).unwrap().unwrap().content_length, 0);
        // All digits but past any limit: too large, not malformed.
        let bytes = format!("POST /x HTTP/1.1\r\nContent-Length: {}0\r\n\r\n", usize::MAX);
        match parse_head(bytes.as_bytes(), 1024) {
            Err(HttpError::PayloadTooLarge { limit: 1024 }) => {}
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        match parse_head(b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\n", 10) {
            Err(HttpError::PayloadTooLarge { limit: 10 }) => {}
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_head() {
        let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
        bytes.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES)).as_bytes());
        match parse_head(&bytes, 1024) {
            Err(HttpError::BadRequest(msg)) => assert!(msg.contains("header section")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Fed incrementally, the unterminated head is cut off as soon as
        // the buffer reaches the limit, before the separator ever arrives.
        match feed(&bytes, 1024, 1024) {
            Err(HttpError::BadRequest(msg)) => assert!(msg.contains("header section")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn truncated_requests_wait_for_more_bytes() {
        // Mid-head: no separator yet, so the parse asks for more bytes.
        assert!(parse_head(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n", 1024)
            .unwrap()
            .is_none());
        // Mid-body: the head frames, but the declared length runs past the
        // bytes received, so the request is not complete.
        let bytes = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let head = parse_head(bytes, 1024).unwrap().unwrap();
        assert_eq!(head.total_len(), bytes.len() + 7);
        assert!(feed(bytes, 1, 1024).unwrap().is_none());
    }

    #[test]
    fn build_response_serializes_status_headers_and_body() {
        let bytes = build_response(200, &[("retry-after", "1".into())], "{\"x\":1}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
    }
}
