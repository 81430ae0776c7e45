//! Allocation-counter guard for serving a real (non-IRN) recommender
//! family: `Vanilla<Pop>` — the popularity baseline behind the Vanilla
//! framework — served end to end through the keep-alive request path.
//!
//! `alloc_steady.rs` pins the transport/scheduler plumbing with a stub
//! model; this file pins the *model-side* contract for a trained family:
//! `Vanilla::next_items_into`'s single-query scratch path plus `Pop`'s
//! `score_into` must keep the steady-state request path off the
//! allocator entirely.  `Pop` has no incremental state, so this also
//! covers the cache-enabled server's no-cache branch (a session opted
//! into caching whose model answers `new_context_cache() == None` rides
//! the batched cold path with zero overhead).
//!
//! Same harness rules as `alloc_steady.rs`: one test per file (nothing
//! else may allocate in-process), prebuilt request bytes, fixed read
//! buffer, bytewise response compare.

// A `GlobalAlloc` impl is necessarily unsafe; it only delegates to
// `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use irs_baselines::Pop;
use irs_core::Vanilla;
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
fn steady_state_vanilla_pop_requests_touch_no_allocator() {
    const WARMUP: usize = 100;
    const WINDOW: usize = 200;

    // Popularity counts over a tiny catalogue; `Vanilla` proposes the
    // top unseen item, so repeated `next` without feedback is stable.
    let model = Vanilla::new(Pop::from_counts(&[3, 9, 4, 1, 7, 2, 8, 5]));
    let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
        "vanilla-pop",
        Box::new(model),
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
        ServerConfig { http_workers: 2, ..Default::default() },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

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
    let next_expected = roundtrip_learn(&mut conn, &next_req);
    // Item 1 is the most popular id outside history [2]; the proposal
    // must actually come from the popularity table, not a stub.
    assert!(
        String::from_utf8_lossy(&next_expected).contains("\"item\":1"),
        "Vanilla(Pop) must propose the top unseen item"
    );
    let mut buf = vec![0u8; 4096];

    for _ in 0..WARMUP {
        roundtrip_exact(&mut conn, &next_req, &next_expected, &mut buf);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..WINDOW {
        roundtrip_exact(&mut conn, &next_req, &next_expected, &mut buf);
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "steady-state Vanilla(Pop) `next` path allocated {delta} times over {WINDOW} requests"
    );

    let bye = roundtrip_learn(
        &mut conn,
        b"POST /v1/admin/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(String::from_utf8_lossy(&bye).starts_with("HTTP/1.1 200"));
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();
}
