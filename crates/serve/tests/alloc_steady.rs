//! Allocation-counter guard for the serving v2 request path.
//!
//! The contract: after warm-up, a keep-alive `next` (or `healthz`)
//! request touches **no allocator at all** on its way through
//! connection fill → in-place parse → route → JSON arena → scheduler
//! round-trip → direct-written response → flush.  Every buffer involved
//! (connection I/O, worker workspace, scheduler slot, engine batch) is
//! reset, not reallocated, between requests.
//!
//! The guard is a counting `#[global_allocator]` wrapped around the
//! system allocator.  This file holds exactly one test so nothing else
//! allocates concurrently in this process, and the client loop inside
//! the measurement window is itself allocation-free (prebuilt request
//! bytes, fixed read buffer, bytewise compare) — so the asserted delta
//! covers client *and* server, i.e. the whole process.

// A `GlobalAlloc` impl is necessarily unsafe; this is the one place in
// the workspace that needs it, and it only delegates to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use irs_core::{InfluenceRecommender, NextQuery};
use irs_data::ItemId;
use irs_serve::{
    BatchPolicy, Engine, HttpServer, JsonValue, ModelSnapshot, ServerConfig, SnapshotRegistry,
};

// ------------------------------------------------ counting allocator

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

// ------------------------------------------------------- stub model

/// Allocation-free deterministic model: always proposes the objective,
/// pushing each batch's answers straight into the scheduler's reused
/// buffer — a fresh `Vec` per batch is exactly what this test exists to
/// catch.
struct EchoObjective;

impl InfluenceRecommender for EchoObjective {
    fn name(&self) -> String {
        "echo-objective".to_string()
    }

    fn next_item(
        &self,
        _user: usize,
        _history: &[ItemId],
        objective: ItemId,
        _path: &[ItemId],
    ) -> Option<ItemId> {
        Some(objective)
    }

    fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
        for q in queries {
            out.push(Some(q.objective));
        }
    }
}

// ------------------------------------------------------------- test

/// Send `req` and read exactly `expected.len()` response bytes into
/// `buf`, asserting they equal `expected`.  Touches no allocator.
fn roundtrip_exact(conn: &mut TcpStream, req: &[u8], expected: &[u8], buf: &mut [u8]) {
    conn.write_all(req).expect("write request");
    conn.read_exact(&mut buf[..expected.len()]).expect("read response");
    assert!(&buf[..expected.len()] == expected, "response changed between warm-up and measurement");
}

/// Send `req` once and return the full response bytes (allocates; used
/// outside measurement windows to learn the expected response).
fn roundtrip_learn(conn: &mut TcpStream, req: &[u8]) -> Vec<u8> {
    conn.write_all(req).expect("write request");
    let mut buf = vec![0u8; 4096];
    let mut len = 0usize;
    loop {
        let n = conn.read(&mut buf[len..]).expect("read response");
        assert!(n > 0, "connection closed");
        len += n;
        if let Some(pos) = buf[..len].windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..pos + 4]).unwrap();
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.trim().eq_ignore_ascii_case("content-length").then(|| v.trim())
                })
                .and_then(|v| v.parse().ok())
                .expect("Content-Length");
            let total = pos + 4 + content_length;
            while len < total {
                let n = conn.read(&mut buf[len..]).expect("read body");
                assert!(n > 0, "connection closed mid-body");
                len += n;
            }
            assert_eq!(len, total, "unexpected trailing bytes");
            buf.truncate(total);
            return buf;
        }
    }
}

#[test]
fn steady_state_keepalive_requests_touch_no_allocator() {
    const WARMUP: usize = 100;
    const WINDOW: usize = 200;

    let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
        "alloc",
        Box::new(EchoObjective),
        8,
    )));
    let engine = Arc::new(Engine::start(
        registry,
        BatchPolicy { max_batch: 4, workers: 1, queue_capacity: 64 },
    ));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        None,
        // A small fixed pool so the warm-up below visits every worker's
        // workspace enough times to size all its buffers.
        ServerConfig { http_workers: 2, ..Default::default() },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // One session; repeated `next` without feedback re-proposes the same
    // item, so its response bytes are identical every time.
    let body = r#"{"user": 1, "history": [2], "objective": 3}"#;
    let create = format!(
        "POST /v1/session HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes();
    let created = roundtrip_learn(&mut conn, &create);
    let created_text = String::from_utf8_lossy(&created);
    assert!(created_text.starts_with("HTTP/1.1 200"), "create failed: {created_text}");
    let body = &created_text[created_text.find("\r\n\r\n").unwrap() + 4..];
    let sid = JsonValue::parse(body)
        .unwrap()
        .get("session_id")
        .and_then(JsonValue::as_usize)
        .expect("session id");

    let next_req =
        format!("POST /v1/session/{sid}/next HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .into_bytes();
    let healthz_req = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();

    let next_expected = roundtrip_learn(&mut conn, &next_req);
    let healthz_expected = roundtrip_learn(&mut conn, &healthz_req);
    let mut buf = vec![0u8; 4096];

    // Warm-up: size every buffer on the path (both workers' workspaces,
    // connection buffers, scheduler queue/batch/answer buffers).  The
    // connection's requests mostly alternate between the two HTTP
    // workers, so next/healthz alternation alone would pin each route to
    // one worker; the back-to-back runs below mirror the measured windows
    // and make every worker serve both routes.
    for _ in 0..WARMUP {
        roundtrip_exact(&mut conn, &next_req, &next_expected, &mut buf);
        roundtrip_exact(&mut conn, &healthz_req, &healthz_expected, &mut buf);
    }
    for _ in 0..WARMUP {
        roundtrip_exact(&mut conn, &next_req, &next_expected, &mut buf);
    }
    for _ in 0..WARMUP {
        roundtrip_exact(&mut conn, &healthz_req, &healthz_expected, &mut buf);
    }

    // Measurement: the whole process must not allocate once per steady
    // request — the window allows zero allocations total.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..WINDOW {
        roundtrip_exact(&mut conn, &next_req, &next_expected, &mut buf);
    }
    let next_delta = ALLOCATIONS.load(Ordering::SeqCst) - before;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..WINDOW {
        roundtrip_exact(&mut conn, &healthz_req, &healthz_expected, &mut buf);
    }
    let healthz_delta = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(
        next_delta, 0,
        "steady-state keep-alive `next` path allocated {next_delta} times over {WINDOW} requests"
    );
    assert_eq!(
        healthz_delta, 0,
        "steady-state `healthz` path allocated {healthz_delta} times over {WINDOW} requests"
    );

    // Tear down (allocations are free again out here).
    let bye = roundtrip_learn(
        &mut conn,
        b"POST /v1/admin/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(String::from_utf8_lossy(&bye).starts_with("HTTP/1.1 200"));
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();
}
