//! Blocking HTTP/1.1 client for the serving protocol.
//!
//! One implementation of request/response framing for everything that
//! talks to [`HttpServer`](crate::HttpServer) over a socket: the
//! `serve_load` load generator, the serving bench and the HTTP
//! integration tests.  A request is written in one go; the response is
//! read as a head up to the blank line plus exactly `Content-Length`
//! body bytes.  The connection opens lazily with `TCP_NODELAY`.  In
//! keep-alive mode it is reused for the next request; in close mode every
//! request connects fresh and sends `Connection: close`.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::JsonValue;

/// Read timeout of every client socket: the longest any caller waits for
/// one response (a forced online-trainer publish on a loaded host).
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One response: status, `Content-Type` and body.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header's value (empty when absent).
    pub content_type: String,
    /// The body.
    pub body: String,
}

/// A blocking client bound to one server address.
///
/// Errors are `io::Result`s.  A peer close before any byte of a response
/// (a close at a response boundary, e.g. a draining server) is
/// `ConnectionAborted`; a close part-way through one (a torn response) is
/// `UnexpectedEof`.  After any error the connection is dropped and the
/// next request reconnects.
pub struct HttpClient {
    addr: SocketAddr,
    keep_alive: bool,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl HttpClient {
    /// A client for `addr`; `keep_alive` chooses connection reuse over
    /// one `Connection: close` connection per request.
    pub fn new(addr: SocketAddr, keep_alive: bool) -> Self {
        HttpClient { addr, keep_alive, stream: None, buf: Vec::new() }
    }

    /// One request/response round trip.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        let mut stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(READ_TIMEOUT))?;
                stream
            }
        };
        // Formatted into the buffer first, so the request leaves in one
        // write (one segment under TCP_NODELAY) rather than one per piece.
        let connection = if self.keep_alive { "keep-alive" } else { "close" };
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
             Connection: {connection}\r\n\r\n{body}",
            body.len()
        )?;
        stream.write_all(&self.buf)?;
        let response = self.read_response(&mut stream)?;
        if self.keep_alive {
            self.stream = Some(stream);
        }
        Ok(response)
    }

    /// [`HttpClient::request`] with the body parsed as JSON; returns
    /// (status, body).  A body that is not JSON is `InvalidData`.
    pub fn json(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, JsonValue)> {
        let response = self.request(method, path, body)?;
        let value = JsonValue::parse(&response.body)
            .map_err(|e| invalid(format!("bad JSON body {:?}: {e}", response.body)))?;
        Ok((response.status, value))
    }

    fn read_response(&mut self, stream: &mut TcpStream) -> io::Result<HttpResponse> {
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill(stream, &mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("non-UTF-8 response head".into()))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("malformed status line: {head:?}")))?;
        let header = |name: &str| {
            head.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
            })
        };
        let content_length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid(format!("response without Content-Length: {head:?}")))?;
        let content_type = header("content-type").unwrap_or("").to_string();
        while self.buf.len() < head_end + content_length {
            self.fill(stream, &mut chunk)?;
        }
        let body = std::str::from_utf8(&self.buf[head_end..head_end + content_length])
            .map_err(|_| invalid("non-UTF-8 response body".into()))?;
        Ok(HttpResponse { status, content_type, body: body.to_string() })
    }

    /// Append the next read to the response buffer.  A reset counts as a
    /// close: either way the server will not finish this response.
    fn fill(&mut self, stream: &mut TcpStream, chunk: &mut [u8]) -> io::Result<()> {
        let n = match stream.read(chunk) {
            Err(e) if e.kind() == ErrorKind::ConnectionReset => 0,
            read => read?,
        };
        if n == 0 {
            return Err(if self.buf.is_empty() {
                io::Error::new(ErrorKind::ConnectionAborted, "connection closed before a response")
            } else {
                io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-response")
            });
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One keep-alive request against a one-connection server that reads
    /// the request head, writes `reply` and closes.
    fn exchange(reply: &[u8]) -> io::Result<HttpResponse> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut conn, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).unwrap() == 1 {
                    head.push(byte[0]);
                }
                conn.write_all(reply).unwrap();
            });
            HttpClient::new(addr, true).request("GET", "/", "")
        })
    }

    #[test]
    fn a_close_at_a_response_boundary_is_told_apart_from_a_torn_response() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"ok\":true}";
        let response = exchange(ok).unwrap();
        assert_eq!((response.status, response.content_type.as_str()), (200, "application/json"));
        assert_eq!(response.body, "{\"ok\":true}");
        assert_eq!(exchange(b"").unwrap_err().kind(), ErrorKind::ConnectionAborted);
        let torn = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\"";
        assert_eq!(exchange(torn).unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }
}
