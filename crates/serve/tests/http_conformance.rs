//! HTTP/1.1 protocol conformance tests against a live listener.
//!
//! `http_smoke.rs` proves the *API* works over well-formed, one-shot
//! connections; this suite attacks the *connection layer* rebuilt for
//! serving v2: pipelining, keep-alive semantics across HTTP versions and
//! `Connection` headers, requests trickled in byte-sized TCP writes,
//! oversized header/body rejection from the buffered prefix alone, the
//! always-present `Content-Length`, and the poller's idle timeout.
//!
//! A stub model stands in for the IRN — these tests exercise framing,
//! not scoring — so the whole suite boots servers in milliseconds.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use irs_core::InfluenceRecommender;
use irs_data::ItemId;
use irs_serve::{
    BatchPolicy, Engine, HttpServer, JsonValue, ModelSnapshot, ServerConfig, SnapshotRegistry,
};

const NUM_ITEMS: usize = 16;

/// Deterministic stand-in model: proposes items 1, 2, 3, … regardless of
/// the user, then the objective.
struct StubModel;

impl InfluenceRecommender for StubModel {
    fn name(&self) -> String {
        "stub".to_string()
    }

    fn next_item(
        &self,
        _user: usize,
        _history: &[ItemId],
        objective: ItemId,
        path: &[ItemId],
    ) -> Option<ItemId> {
        if path.len() + 1 < NUM_ITEMS {
            Some(path.len() + 1)
        } else {
            Some(objective)
        }
    }
}

struct TestServer {
    addr: SocketAddr,
    engine: Arc<Engine>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn boot(config: ServerConfig) -> TestServer {
        let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
            "conformance",
            Box::new(StubModel),
            NUM_ITEMS,
        )));
        let engine = Arc::new(Engine::start(
            registry,
            BatchPolicy { max_batch: 4, workers: 1, queue_capacity: 64 },
        ));
        let server = HttpServer::bind("127.0.0.1:0", engine.clone(), None, config).expect("bind");
        let addr = server.local_addr().unwrap();
        let thread = std::thread::spawn(move || server.run());
        TestServer { addr, engine, thread }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
    }

    fn stop(self) {
        let mut conn = self.connect();
        conn.write_all(
            b"POST /v1/admin/shutdown HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .expect("shutdown request");
        let (status, _, _) = read_response(&mut conn);
        assert_eq!(status, 200, "shutdown failed");
        self.thread.join().expect("server thread").expect("server run");
        self.engine.shutdown();
    }
}

/// Read exactly one response off a (possibly keep-alive, possibly
/// pipelined) socket: (status, raw head, body).  Asserts the mandatory
/// `Content-Length` is present and honoured — the framing every client
/// of this server depends on.  Bytes past the declared body (the next
/// pipelined response) stay in `carry` for the next call.
fn read_framed_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, Vec<u8>) {
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a full response head; got {carry:?}");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).expect("ASCII head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim())
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("response without Content-Length: {head:?}"));
    while carry.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = carry[head_end..head_end + content_length].to_vec();
    carry.drain(..head_end + content_length);
    (status, head, body)
}

/// One-shot wrapper for tests that read a single response per socket;
/// asserts nothing trails the declared body.
fn read_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut carry = Vec::new();
    let out = read_framed_response(stream, &mut carry);
    assert!(carry.is_empty(), "bytes past the declared body: {carry:?}");
    out
}

/// True if the peer has half/fully closed: a read returns 0 (or reset).
fn reads_eof(stream: &mut TcpStream) -> bool {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == ErrorKind::ConnectionReset => true,
        Err(e) => panic!("unexpected read error while probing for EOF: {e}"),
    }
}

#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    let server = TestServer::boot(ServerConfig::default());
    let mut conn = server.connect();
    // Three pipelined requests in a single TCP write; the middle one is
    // a 404 so ordering is observable in the statuses.
    conn.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
          GET /v1/bogus HTTP/1.1\r\nHost: x\r\n\r\n\
          GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    .expect("pipelined write");
    let mut carry = Vec::new();
    let (s1, _, b1) = read_framed_response(&mut conn, &mut carry);
    let (s2, _, _) = read_framed_response(&mut conn, &mut carry);
    let (s3, _, b3) = read_framed_response(&mut conn, &mut carry);
    assert_eq!((s1, s2, s3), (200, 404, 200), "pipelined responses out of order");
    assert!(JsonValue::parse(std::str::from_utf8(&b1).unwrap()).is_ok());
    assert!(JsonValue::parse(std::str::from_utf8(&b3).unwrap()).is_ok());
    assert!(carry.is_empty(), "bytes past the three declared bodies: {carry:?}");
    // The connection survived all three; a fourth request still works.
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (s4, _, _) = read_framed_response(&mut conn, &mut carry);
    assert_eq!(s4, 200);
    server.stop();
}

#[test]
fn requests_trickled_byte_by_byte_still_parse() {
    let server = TestServer::boot(ServerConfig::default());
    let mut conn = server.connect();
    let body = "{\"user\": 3, \"history\": [1, 2], \"objective\": 5}";
    let request = format!(
        "POST /v1/session HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // One byte per TCP segment, with pauses, so the server sees the
    // request in dozens of partial reads spanning parked/promoted turns.
    for byte in request.as_bytes() {
        conn.write_all(std::slice::from_ref(byte)).expect("trickle write");
        std::thread::sleep(Duration::from_micros(300));
    }
    let (status, _, body) = read_response(&mut conn);
    assert_eq!(status, 200, "trickled request failed: {:?}", String::from_utf8_lossy(&body));
    let parsed = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(parsed.get("session_id").and_then(JsonValue::as_usize).is_some());
    server.stop();
}

#[test]
fn oversized_header_block_draws_431_without_unbounded_reads() {
    let server = TestServer::boot(ServerConfig::default());
    let mut conn = server.connect();
    // 20 KiB of header junk — past the 16 KiB cap, never completing the
    // head.  The server must answer from the buffered prefix alone.
    conn.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Filler: {}\r\n", "y".repeat(1000));
    for _ in 0..20 {
        if conn.write_all(filler.as_bytes()).is_err() {
            // The server may already have rejected and closed; fine.
            break;
        }
    }
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 431, "oversized header block not rejected");
    assert!(reads_eof(&mut conn), "connection must close after 431");
    server.stop();
}

#[test]
fn oversized_declared_body_draws_413_before_the_body_is_sent() {
    let server = TestServer::boot(ServerConfig::default());
    let mut conn = server.connect();
    // Declare a 2 MB body but send none of it: the 413 must come from
    // the Content-Length header, not from reading 2 MB.
    conn.write_all(b"POST /v1/session HTTP/1.1\r\nHost: x\r\nContent-Length: 2000000\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 413, "oversized body declaration not rejected");
    assert!(reads_eof(&mut conn), "connection must close after 413");
    server.stop();
}

#[test]
fn connection_lifetime_follows_version_and_connection_header() {
    let server = TestServer::boot(ServerConfig::default());

    // HTTP/1.1 default: keep-alive — a second request on the same
    // socket answers.
    let mut conn = server.connect();
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200, "HTTP/1.1 connection closed without Connection: close");

    // HTTP/1.1 + `Connection: close`: EOF after the response.
    let mut conn = server.connect();
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(reads_eof(&mut conn), "Connection: close was not honoured");

    // HTTP/1.0 default: close.
    let mut conn = server.connect();
    conn.write_all(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(reads_eof(&mut conn), "HTTP/1.0 must default to close");

    // HTTP/1.0 + `Connection: keep-alive`: stays open.
    let mut conn = server.connect();
    conn.write_all(b"GET /healthz HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    conn.write_all(b"GET /healthz HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200, "HTTP/1.0 keep-alive was not honoured");

    // List-valued `Connection` header: `close` anywhere in it wins.
    let mut conn = server.connect();
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: foo, close\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(reads_eof(&mut conn), "list-valued Connection: close was not honoured");

    server.stop();
}

#[test]
fn every_status_path_carries_content_length() {
    let server = TestServer::boot(ServerConfig::default());
    // `read_response` itself asserts Content-Length presence and exact
    // framing; walk one request per interesting status code.
    let cases: &[(&str, u16)] = &[
        ("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 200),
        ("POST /v1/session HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json", 400),
        ("GET /v1/bogus HTTP/1.1\r\nHost: x\r\n\r\n", 404),
        ("DELETE /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 405),
        ("GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n", 505),
        ("POST /v1/session HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        ("completely: garbled\r\n\r\n", 400),
    ];
    for (request, expected) in cases {
        let mut conn = server.connect();
        conn.write_all(request.as_bytes()).unwrap();
        let (status, head, body) = read_response(&mut conn);
        assert_eq!(
            status,
            *expected,
            "request {request:?} drew {status} ({head:?} {:?})",
            String::from_utf8_lossy(&body)
        );
        assert!(!body.is_empty(), "error responses carry a JSON body");
    }
    server.stop();
}

#[test]
fn a_stalled_partial_request_is_idle_timed_out_not_spun() {
    let server = TestServer::boot(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let mut conn = server.connect();
    // Half a request, then silence.  The server must park the
    // connection with the poller (not bounce it through the worker pool
    // at full CPU) and enforce the idle timeout on it.
    conn.write_all(b"POST /v1/session HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"user\"").unwrap();
    let mut byte = [0u8; 1];
    match conn.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("unexpected bytes in reply to a partial request"),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected idle-timeout close of the stalled connection, got {e}"),
    }
    // A spinning connection would also keep the ready queue non-empty
    // and wedge the phase-1 shutdown drain; stop() proves it drains.
    server.stop();
}

#[test]
fn idle_keepalive_connections_are_closed_after_the_timeout() {
    let server = TestServer::boot(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let mut conn = server.connect();
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    // Park idle past the timeout: the poller must close us.
    let mut byte = [0u8; 1];
    match conn.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("unexpected bytes on an idle connection"),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected idle-timeout close, got {e}"),
    }
    server.stop();
}
