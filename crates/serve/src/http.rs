//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! The workspace cannot reach a crate registry, so the service speaks
//! just enough HTTP/1.1 itself: one request per connection
//! (`Connection: close`), `Content-Length` bodies only (no chunked
//! transfer), bounded head and body sizes, and strict parsing that
//! turns every malformed input into a typed error — never a panic.
//! Socket read/write timeouts are the caller's job (set on the
//! `TcpStream` before handing it here); a timeout surfaces as
//! [`ReadError::Io`] and the connection is dropped.

use std::io::{Read, Write};

/// Largest request head (request line + headers) accepted, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method, e.g. `"POST"`.
    pub method: String,
    /// The request target with any query string stripped, e.g.
    /// `"/v1/jobs"`.
    pub path: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The socket failed or timed out; there is nobody to answer.
    Io(std::io::Error),
    /// The bytes were not a well-formed request (answer 400).
    Malformed(&'static str),
    /// Head or declared body exceeded its cap (answer 431/413).
    TooLarge(&'static str),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads and parses one request from `stream`.
///
/// `max_body` caps the `Content-Length` the server is willing to
/// buffer. The head is capped at [`MAX_HEAD_BYTES`].
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, ReadError> {
    // Accumulate until the blank line ending the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge("request head"));
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                // Peer connected and said nothing: not an attack, just
                // a probe (health checks do this). Report cleanly.
                return Err(ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "empty connection",
                )));
            }
            return Err(ReadError::Malformed("truncated request head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ReadError::Malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ReadError::Malformed("chunked bodies not supported"));
    }
    // Every `content-length` header must agree (RFC 9112 §6.3): a
    // request whose framing two parsers could read differently is
    // rejected, not resolved by picking one.
    let mut content_length: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed("bad content-length"))?;
        if content_length.is_some_and(|prev| prev != n) {
            return Err(ReadError::Malformed("conflicting content-length headers"));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::TooLarge("request body"));
    }

    // The body: whatever followed the head in the buffer, topped up
    // from the stream.
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(ReadError::Malformed("body longer than content-length"));
    }
    let mut remaining = content_length - body.len();
    while remaining > 0 {
        let mut chunk = vec![0u8; remaining.min(64 * 1024)];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ReadError::Malformed("truncated request body"));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }

    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response ready to write.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers beyond the standard set.
    pub extra_headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.extra_headers.push((name.to_string(), value));
        self
    }
}

/// The reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serializes `response` onto `stream` with `Connection: close`.
pub fn write_response(stream: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut &bytes[..], 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /v1/jobs?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nwork")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs", "query string is stripped");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"work");
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        for bytes in [
            &b"\x00\xff\xfe\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 extra words\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort",
        ] {
            assert!(
                matches!(parse(bytes), Err(ReadError::Malformed(_))),
                "{:?} must be rejected as malformed",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        // The first header alone would frame this body exactly; the
        // second disagrees, so the request is ambiguous.
        let req = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 4\r\n\r\nwork!";
        assert!(matches!(
            parse(req),
            Err(ReadError::Malformed("conflicting content-length headers"))
        ));
    }

    #[test]
    fn identical_duplicate_content_lengths_are_accepted() {
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nwork")
            .unwrap();
        assert_eq!(req.body, b"work");
    }

    #[test]
    fn oversized_body_is_refused_up_front() {
        let req = b"POST / HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(parse(req), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn oversized_head_is_refused() {
        let mut req = b"GET / HTTP/1.1\r\n".to_vec();
        req.extend_from_slice(
            format!("x-pad: {}\r\n\r\n", "y".repeat(2 * MAX_HEAD_BYTES)).as_bytes(),
        );
        assert!(matches!(parse(&req), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        let resp = Response::json(429, "{\"error\":\"queue full\"}".into())
            .with_header("retry-after", "1".into());
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 22\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"queue full\"}"));
    }
}
