//! A blocking HTTP/1.1 client for the service's own dialect.
//!
//! One request per connection, `Connection: close`, `Content-Length`
//! bodies. This is what the load generator and the integration tests
//! drive the daemon with — deliberately the same minimal HTTP subset
//! the server speaks, and std-only like everything else here.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy — error bodies are for humans).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn bad_input(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Issues one request and reads the full response.
///
/// `timeout` applies to connect, read, and write independently.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    http_request_headers(addr, method, path, body, &[], timeout)
}

/// Like [`http_request`], with extra request headers — how a caller
/// identifies itself (`x-client-id`) for per-client fairness.
pub fn http_request_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    extra_headers: &[(&str, &str)],
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let sockaddr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| bad_input(format!("address {addr:?} resolves to nothing")))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;

    let body = body.unwrap_or(&[]);
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::with_capacity(1024);
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Convenience: POST with a JSON body.
pub fn post_json(
    addr: &str,
    path: &str,
    json: &str,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    http_request(addr, "POST", path, Some(json.as_bytes()), timeout)
}

/// Convenience: GET.
pub fn get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    http_request(addr, "GET", path, None, timeout)
}

fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad_input("response without head terminator".into()))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| bad_input("response head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad_input(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    // Connection: close — the body is simply the rest of the stream,
    // cross-checked against content-length when present.
    let body = raw[head_end + 4..].to_vec();
    if let Some((_, v)) = headers.iter().find(|(k, _)| k == "content-length") {
        if let Ok(expected) = v.parse::<usize>() {
            if body.len() != expected {
                return Err(bad_input(format!(
                    "body length {} != content-length {expected}",
                    body.len()
                )));
            }
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_wire_response() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 10\r\n\r\n{\"id\": 12}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 202);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.text(), "{\"id\": 12}");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(parse_response(raw).is_err());
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(parse_response(b"not http at all\r\n\r\n").is_err());
        assert!(parse_response(b"").is_err());
    }
}
