//! Allocation-counter guard for the observability endpoints.
//!
//! Extends the PR 6 zero-allocation steady-state contract to the new
//! metrics surface: after warm-up, scraping `GET /metrics` and
//! `GET /v1/stats` on a keep-alive connection — interleaved with the
//! `next`/`healthz` traffic being observed — touches no allocator at
//! all.  Sampling copies values through atomics, text handles skip
//! unchanged writes, and both renderers format straight into the
//! worker's retained body buffer.
//!
//! Unlike `alloc_steady`, responses here *change between requests*
//! (counters advance, uptime ticks), so the client cannot byte-compare
//! against a learned response.  Instead it parses the response head
//! with a fixed-buffer, allocation-free scan for `Content-Length`.

// A `GlobalAlloc` impl is necessarily unsafe; it only delegates to
// `System`.
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

/// Allocation-free deterministic model: always proposes the objective.
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

// ---------------------------------------- allocation-free round trip

/// Send `req`, then read a full response into `buf` without touching
/// the allocator: scan for the end of head, extract `Content-Length`
/// with a bytewise digit scan, read exactly that much body.  Returns
/// the total response length.
fn roundtrip_dynamic(conn: &mut TcpStream, req: &[u8], buf: &mut [u8]) -> usize {
    conn.write_all(req).expect("write request");
    let mut len = 0usize;
    let head_end = loop {
        let n = conn.read(&mut buf[len..]).expect("read head");
        assert!(n > 0, "server closed before the response head completed");
        len += n;
        if let Some(pos) = buf[..len].windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
    };
    let content_length =
        content_length(&buf[..head_end]).expect("every response must carry Content-Length");
    let total = head_end + content_length;
    assert!(total <= buf.len(), "response larger than the fixed buffer");
    while len < total {
        let n = conn.read(&mut buf[len..total]).expect("read body");
        assert!(n > 0, "server closed mid-body");
        len += n;
    }
    assert_eq!(len, total, "unexpected trailing bytes");
    total
}

/// Find `Content-Length` in a response head without allocating.
fn content_length(head: &[u8]) -> Option<usize> {
    const NAME: &[u8] = b"content-length:";
    let mut start = 0usize;
    for (i, w) in head.windows(2).enumerate() {
        if w != b"\r\n" {
            continue;
        }
        let line = &head[start..i];
        start = i + 2;
        if line.len() > NAME.len() && line[..NAME.len()].eq_ignore_ascii_case(NAME) {
            let mut value = 0usize;
            let mut seen = false;
            for &b in &line[NAME.len()..] {
                match b {
                    b'0'..=b'9' => {
                        value = value * 10 + (b - b'0') as usize;
                        seen = true;
                    }
                    b' ' | b'\t' if !seen => {}
                    _ => return None,
                }
            }
            return seen.then_some(value);
        }
    }
    None
}

// ------------------------------------------------------------- test

#[test]
fn steady_state_metrics_scrapes_touch_no_allocator() {
    const WARMUP: usize = 100;
    const WINDOW: usize = 200;

    let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
        "alloc-metrics",
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
        ServerConfig { http_workers: 2, ..Default::default() },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Generous fixed buffer: the exposition of every family fits with
    // room to spare, and nothing here may reallocate mid-measurement.
    let mut buf = vec![0u8; 256 * 1024];

    // One live session so the scrape observes real per-arm traffic.
    let body = r#"{"user": 1, "history": [2], "objective": 3}"#;
    let create = format!(
        "POST /v1/session HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes();
    let total = roundtrip_dynamic(&mut conn, &create, &mut buf);
    let created = String::from_utf8_lossy(&buf[..total]);
    assert!(created.starts_with("HTTP/1.1 200"), "create failed: {created}");
    let payload = &created[created.find("\r\n\r\n").unwrap() + 4..];
    let sid = JsonValue::parse(payload)
        .unwrap()
        .get("session_id")
        .and_then(JsonValue::as_usize)
        .expect("session id");

    let next_req =
        format!("POST /v1/session/{sid}/next HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .into_bytes();
    let healthz_req = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
    let metrics_req = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
    let stats_req = b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();

    // Warm-up: size every buffer on the path — both workers' body
    // buffers must grow to exposition size, text annotations settle to
    // their final values, scheduler buffers fill in.  The keep-alive
    // connection's requests mostly alternate between the two HTTP
    // workers, so an even-length cycle would pin each route to one worker
    // and leave the other to size its buffers inside the window.  The
    // cycle runs both request orders plus one extra `healthz`: nine
    // requests, so every route reaches both workers.
    for _ in 0..WARMUP {
        roundtrip_dynamic(&mut conn, &next_req, &mut buf);
        roundtrip_dynamic(&mut conn, &healthz_req, &mut buf);
        roundtrip_dynamic(&mut conn, &metrics_req, &mut buf);
        roundtrip_dynamic(&mut conn, &stats_req, &mut buf);
        roundtrip_dynamic(&mut conn, &next_req, &mut buf);
        roundtrip_dynamic(&mut conn, &metrics_req, &mut buf);
        roundtrip_dynamic(&mut conn, &healthz_req, &mut buf);
        roundtrip_dynamic(&mut conn, &stats_req, &mut buf);
        roundtrip_dynamic(&mut conn, &healthz_req, &mut buf);
    }

    // Measurement: scrapes interleaved with the traffic they observe —
    // the whole process must not allocate once.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..WINDOW {
        roundtrip_dynamic(&mut conn, &next_req, &mut buf);
        roundtrip_dynamic(&mut conn, &metrics_req, &mut buf);
        roundtrip_dynamic(&mut conn, &healthz_req, &mut buf);
        roundtrip_dynamic(&mut conn, &stats_req, &mut buf);
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "steady-state next + /metrics + healthz + /v1/stats allocated {delta} times \
         over {WINDOW} rounds"
    );

    // Sanity: the scrape measured above really was the exposition.
    let total = roundtrip_dynamic(&mut conn, &metrics_req, &mut buf);
    let text = String::from_utf8_lossy(&buf[..total]);
    assert!(text.contains("# TYPE irs_requests counter"), "not an exposition: {text}");

    let bye_total = roundtrip_dynamic(
        &mut conn,
        b"POST /v1/admin/shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        &mut buf,
    );
    assert!(String::from_utf8_lossy(&buf[..bye_total]).starts_with("HTTP/1.1 200"));
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();
}
