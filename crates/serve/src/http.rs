//! HTTP/1.1 JSON frontend on `std::net::TcpListener`.
//!
//! Serving v2: keep-alive with pipelining over a bounded worker pool
//! (see [`crate::pool`] for the accept → poller → ready-queue → worker
//! topology).  Requests are parsed incrementally and in place from the
//! connection's input buffer ([`crate::conn`]), handled against a
//! per-worker reusable [`RequestWorkspace`], and answered by writing
//! JSON directly into the connection's output buffer — after warm-up the
//! steady-state request path performs no heap allocation.  The protocol:
//!
//! | Route                           | Body → Reply |
//! |---------------------------------|--------------|
//! | `GET /healthz`                  | → `{ok, snapshot, version}` |
//! | `GET /v1/stats`                 | → flat JSON rendered from the metrics registry |
//! | `GET /metrics`                  | → Prometheus text exposition from the same registry |
//! | `POST /v1/session`              | `{user, history, objective, max_len?, patience?}` → `{session_id}` |
//! | `GET /v1/session/{id}`          | → session state summary |
//! | `POST /v1/session/{id}/next`    | → `{item, done}` (blocks through the scheduler) |
//! | `POST /v1/session/{id}/feedback`| `{item, accepted}` → `{done, reached_objective, …}` |
//! | `DELETE /v1/session/{id}`       | → final outcome |
//! | `POST /v1/admin/swap`           | `{path}` → `{version, label}` (hot-swap, stable arm) |
//! | `POST /v1/admin/split`          | `{weights}` → `{weights}` (traffic split across arms) |
//! | `POST /v1/admin/promote`        | → `{version}` (canary becomes stable, 100% traffic) |
//! | `POST /v1/admin/rollback`       | → `{version}` (canary reset to stable, 100% stable) |
//! | `POST /v1/admin/publish`        | → `{version}` (force an online-trainer publish tick) |
//! | `POST /v1/admin/shutdown`       | → `{ok}` and the accept loop exits |
//!
//! Sessions are sticky-assigned to a traffic arm at creation by the
//! seeded weighted draw in [`crate::split`]; every request the session
//! makes scores against that arm's snapshot, and `/v1/stats` reports
//! per-arm request/acceptance/latency counters so a canary can be
//! compared against stable on live traffic before `promote` flips it to
//! 100%.
//!
//! Protocol behaviour: HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
//! close, and the `Connection` header overrides either way; every
//! response carries a `Content-Length`; oversized heads/bodies are
//! rejected with 431/413 from the buffered prefix alone; chunked
//! transfer encoding and HTTP versions other than 1.0/1.1 are rejected
//! (501/505); `Expect: 100-continue` is ignored (clients send the body
//! after their grace period).  Connections idle past
//! [`ServerConfig::idle_timeout`] are closed by the poller.
//!
//! Item ids in requests are door-checked against the snapshot's
//! catalogue (400 on out-of-range, instead of a panic deep in an
//! embedding lookup).  User ids are deliberately *not* bounded: the IRN
//! aliases unseen users into its trained table (`u % num_users`, the
//! same cold-start rule its scalar reference path applies everywhere),
//! so a brand-new user is served the impressionability profile of an
//! existing one rather than rejected.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use irs_core::InteractiveSession;
use irs_nn::EncodingLayout;
use irs_obs::FlatValue;

use crate::conn::{Conn, RequestSpans};
use crate::json::{write_json_num, write_json_str, JsonRef};
use crate::online::{FeedbackEvent, ForcePublishError, OnlineHandle};
use crate::pool;
use crate::scheduler::Engine;
use crate::session::SessionStore;
use crate::snapshot::{SnapshotLoader, CANARY_ARM, NUM_ARMS};
use crate::split::TrafficSplit;
use crate::workspace::{RequestWorkspace, CONTENT_TYPE_JSON};

/// `Content-Type` of the Prometheus text exposition format.
const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Frontend configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Default accepted-items budget for new sessions.
    pub max_len: usize,
    /// Default per-step rejection patience for new sessions.
    pub patience: usize,
    /// Session-store shard count.
    pub session_shards: usize,
    /// Cap on live sessions; `POST /v1/session` answers 429 at the cap
    /// (clients free slots with `DELETE /v1/session/{id}`).  The hard
    /// backstop behind TTL eviction.
    pub max_sessions: usize,
    /// Cap on concurrently open connections; excess connections are
    /// answered 503 inline on the accept thread.
    pub max_connections: usize,
    /// Idle time after which an abandoned session is evicted by the
    /// background sweeper (`None` disables sweeping; sessions then live
    /// until `DELETE` or shutdown).  `irs serve` exposes this as
    /// `--session-ttl-s`.
    pub session_ttl: Option<Duration>,
    /// HTTP worker threads serving parsed requests (0 = auto: twice the
    /// available cores, minimum 8).  `irs serve` exposes this as
    /// `--http-workers`.
    pub http_workers: usize,
    /// Keep-alive connections idle past this are closed by the poller.
    /// `irs serve` exposes this as `--idle-timeout-s`.
    pub idle_timeout: Duration,
    /// Byte budget (in MiB) for parked per-session context caches; 0
    /// disables context caching entirely (every request takes the
    /// batched cold path).  When the budget is exhausted the
    /// least-recently-seen session's cache is evicted first.  `irs
    /// serve` exposes this as `--context-cache-mb`.
    pub context_cache_mb: usize,
    /// The encoding layout the served models score with, reported in the
    /// startup log and `/v1/stats` (`None` when the frontend serves
    /// non-IRN models and the layout doesn't apply).
    pub layout: Option<EncodingLayout>,
    /// Seed for the sticky session→arm traffic-split hash; a fixed seed
    /// makes arm assignment reproducible across restarts.
    pub split_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_len: 20,
            patience: 3,
            session_shards: 16,
            max_sessions: 65_536,
            max_connections: 8_192,
            session_ttl: None,
            http_workers: 0,
            idle_timeout: Duration::from_secs(30),
            context_cache_mb: 64,
            layout: None,
            split_seed: 0x1e5_c0de,
        }
    }
}

pub(crate) struct ServerState {
    pub(crate) engine: Arc<Engine>,
    pub(crate) sessions: SessionStore,
    loader: Option<SnapshotLoader>,
    pub(crate) config: ServerConfig,
    shutdown: AtomicBool,
    started: Instant,
    /// Sessions aged out by the TTL sweeper since startup.
    evicted: std::sync::atomic::AtomicU64,
    /// Resolved HTTP worker-pool size (config value or the 2×cores
    /// default).
    http_workers: usize,
    /// Currently open client connections (incremented at accept,
    /// decremented when a [`Conn`] drops).
    open_conns: Arc<AtomicUsize>,
    /// Sticky session→arm assignment plus per-arm serving metrics.
    split: TrafficSplit,
    /// The online trainer, when `--online-train` attached one.  Handlers
    /// clone the `Arc` out of the read guard, so a slow forced publish
    /// never holds this lock (stats stay responsive).
    online: RwLock<Option<Arc<OnlineHandle>>>,
}

/// A bound (but not yet running) HTTP server.
pub struct HttpServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A handle for driving a running server from another thread (tests, the
/// load generator): the bound address plus a way to request shutdown.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit (same effect as `POST
    /// /v1/admin/shutdown`).
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        wake_listener(self.addr);
    }

    /// Sessions evicted by the TTL sweeper since startup.
    pub fn evicted_sessions(&self) -> u64 {
        self.state.evicted.load(Ordering::Relaxed)
    }

    /// Currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.state.sessions.len()
    }

    /// Currently open client connections.
    pub fn open_connections(&self) -> usize {
        self.state.open_conns.load(Ordering::Relaxed)
    }

    /// The resolved HTTP worker-pool size.
    pub fn http_workers(&self) -> usize {
        self.state.http_workers
    }

    /// Bytes of per-session context caches currently parked.
    pub fn cache_resident_bytes(&self) -> usize {
        self.state.sessions.cache_resident_bytes()
    }

    /// Context caches evicted to stay within the byte budget.
    pub fn cache_evictions(&self) -> u64 {
        self.state.sessions.cache_evictions()
    }
}

impl HttpServer {
    /// Bind the frontend.  `loader` enables `POST /v1/admin/swap`; without
    /// it the route answers 501.
    pub fn bind(
        addr: &str,
        engine: Arc<Engine>,
        loader: Option<SnapshotLoader>,
        config: ServerConfig,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let http_workers = if config.http_workers == 0 {
            // Workers park on the batching engine while their request is
            // in flight, so the pool needs headroom beyond the core
            // count — too few workers caps the engine's batch depth.
            (2 * std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)).max(8)
        } else {
            config.http_workers
        };
        // The traffic split records into the engine's metric registry:
        // the same per-arm counters the hot path bumps are the ones
        // /metrics and /v1/stats render.
        let split = TrafficSplit::with_metrics(config.split_seed, engine.metrics().arm_handles());
        let state = Arc::new(ServerState {
            engine,
            sessions: SessionStore::with_cache_budget(
                config.session_shards,
                config.context_cache_mb.saturating_mul(1024 * 1024),
            ),
            loader,
            split,
            config,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            evicted: std::sync::atomic::AtomicU64::new(0),
            http_workers,
            open_conns: Arc::new(AtomicUsize::new(0)),
            online: RwLock::new(None),
        });
        Ok(HttpServer { listener, state })
    }

    /// Attach a running online trainer: `POST
    /// /v1/session/{id}/feedback` starts logging replay events,
    /// `/v1/admin/publish` forces publish ticks, and `/v1/stats` gains
    /// the `online_*` counters.  The trainer is stopped when
    /// [`HttpServer::run`] returns.
    pub fn set_online(&self, handle: OnlineHandle) {
        *self.state.online.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(handle));
    }

    /// The bound address (use port 0 in `bind` for an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle usable from other threads while `run` blocks.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle { addr: self.listener.local_addr()?, state: self.state.clone() })
    }

    /// Serve until a shutdown request arrives, then return.  The engine
    /// is left running (the caller owns it and decides when to stop the
    /// scheduler).
    ///
    /// The accept loop admits connections up to
    /// [`ServerConfig::max_connections`] and hands them to the worker
    /// pool; shutdown drains in two phases (workers finish every
    /// accepted request, then the poller flushes and closes parked
    /// connections).
    ///
    /// When [`ServerConfig::session_ttl`] is set, a background sweeper
    /// ages out sessions idle past the TTL (checking every quarter-TTL,
    /// clamped to 10 ms – 60 s, napping in short slices so shutdown is
    /// never delayed by more than ~250 ms) so abandoned sessions stop
    /// counting against `max_sessions`; evictions are tallied in the
    /// stats.  Sessions with a request in flight are pinned and never
    /// swept mid-request.
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let sweeper = self.state.config.session_ttl.map(|ttl| {
            let state = self.state.clone();
            std::thread::spawn(move || {
                let interval = (ttl / 4).clamp(Duration::from_millis(10), Duration::from_secs(60));
                let nap_cap = Duration::from_millis(250);
                'sweeping: loop {
                    let mut slept = Duration::ZERO;
                    while slept < interval {
                        if state.shutdown.load(Ordering::SeqCst) {
                            break 'sweeping;
                        }
                        let nap = (interval - slept).min(nap_cap);
                        std::thread::sleep(nap);
                        slept += nap;
                    }
                    let evicted = state.sessions.sweep_older_than(ttl);
                    if evicted > 0 {
                        state.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
                    }
                }
            })
        });
        let shared = Arc::new(pool::Shared::new());
        let workers = pool::spawn_workers(&shared, &self.state, addr, self.state.http_workers);
        let poller = pool::spawn_poller(&shared, self.state.config.idle_timeout);
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            if self.state.open_conns.load(Ordering::Relaxed) >= self.state.config.max_connections {
                // Turned away inline (blocking write of a tiny response)
                // instead of admitting an unbounded connection set.
                let _ = write_busy(&mut stream);
                continue;
            }
            if let Ok(conn) = Conn::new(stream, self.state.open_conns.clone()) {
                shared.push_ready(conn);
            }
        }
        // Phase 1: workers drain the ready queue so every accepted
        // request — the shutdown 200 included — gets its response.
        shared.begin_drain();
        for handle in workers {
            let _ = handle.join();
        }
        // Phase 2: the poller flushes whatever is still staged on parked
        // connections, then closes them.
        shared.stop_poller();
        let _ = poller.join();
        if let Some(sweeper) = sweeper {
            let _ = sweeper.join();
        }
        // Stop the online trainer last: every route that could log a
        // feedback event or force a publish has already drained.  The
        // stop is a bounded join — a stalled trainer is detached, never
        // a shutdown hang.
        if let Some(online) =
            self.state.online.read().unwrap_or_else(PoisonError::into_inner).clone()
        {
            online.stop();
        }
        Ok(())
    }
}

/// Unblock a listener waiting in `accept` after the shutdown flag is set.
fn wake_listener(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

// ---------------------------------------------------------------------
// Response plumbing (direct-write, allocation-free)
// ---------------------------------------------------------------------

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// Append a response head.  Every response carries an explicit
/// `Content-Length` (keep-alive framing depends on it).
fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
) {
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\nConnection: {}\r\n\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
}

fn write_error_body(body: &mut Vec<u8>, message: &str) {
    body.extend_from_slice(b"{\"error\":");
    write_json_str(body, message);
    body.push(b'}');
}

/// Stage a complete error response on `out` (used for protocol errors
/// that close the connection).
pub(crate) fn write_error_response(
    out: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    status: u16,
    message: &str,
) {
    scratch.clear();
    write_error_body(scratch, message);
    write_head(out, status, CONTENT_TYPE_JSON, scratch.len(), false);
    out.extend_from_slice(scratch);
}

/// Inline 503 for the accept loop (the socket is still in blocking mode
/// here — `Conn::new` was never called).  The write is bounded by a
/// short timeout so a client that never reads cannot stall accepting.
fn write_busy(stream: &mut TcpStream) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;
    let body = b"{\"error\":\"server busy\"}";
    write!(
        stream,
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Protocol errors carrying the HTTP status to answer with.  Error paths
/// are cold, so they may allocate their message freely.
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError { status, message: message.into() }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }

    fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, message)
    }
}

/// Handle one parsed request: route it, run the handler (which writes
/// the response body into the workspace), and stage the full response on
/// `out`.  Infallible — every outcome becomes a staged response.
pub(crate) fn handle_parsed(
    state: &Arc<ServerState>,
    addr: SocketAddr,
    ws: &mut RequestWorkspace,
    buf: &[u8],
    spans: &RequestSpans,
    out: &mut Vec<u8>,
) {
    ws.body.clear();
    ws.content_type = CONTENT_TYPE_JSON;
    let status = match route(state, addr, ws, buf, spans) {
        Ok(status) => status,
        Err(e) => {
            ws.body.clear();
            ws.content_type = CONTENT_TYPE_JSON;
            write_error_body(&mut ws.body, &e.message);
            e.status
        }
    };
    write_head(out, status, ws.content_type, ws.body.len(), spans.keep_alive);
    out.extend_from_slice(&ws.body);
}

fn route(
    state: &Arc<ServerState>,
    addr: SocketAddr,
    ws: &mut RequestWorkspace,
    buf: &[u8],
    spans: &RequestSpans,
) -> Result<u16, HttpError> {
    let method = &buf[spans.method.0..spans.method.1];
    let target = std::str::from_utf8(&buf[spans.path.0..spans.path.1])
        .map_err(|_| HttpError::bad_request("request target is not UTF-8"))?;
    // Route on the path alone; query strings are accepted and ignored
    // (health probes commonly append `?...`).
    let path = target.split('?').next().unwrap_or("");
    let mut it = path.trim_matches('/').split('/');
    let seg = [it.next(), it.next(), it.next(), it.next()];
    if it.next().is_some() {
        return Err(HttpError::not_found(format!("no route for {target}")));
    }
    let body = &buf[spans.body.0..spans.body.1];
    match (method, seg) {
        (b"GET", [Some("healthz"), None, None, None]) => {
            let snap = state.engine.registry().current();
            let b = &mut ws.body;
            b.extend_from_slice(b"{\"ok\":true,\"snapshot\":");
            write_json_str(b, &snap.label);
            b.extend_from_slice(b",\"version\":");
            write_json_num(b, state.engine.registry().version() as f64);
            b.push(b'}');
            Ok(200)
        }
        (b"GET", [Some("v1"), Some("stats"), None, None]) => {
            stats_payload(state, &mut ws.body);
            Ok(200)
        }
        (b"GET", [Some("metrics"), None, None, None]) => {
            metrics_payload(state, &mut ws.body);
            ws.content_type = CONTENT_TYPE_PROMETHEUS;
            Ok(200)
        }
        (b"POST", [Some("v1"), Some("session"), None, None]) => create_session(state, ws, body),
        (b"GET", [Some("v1"), Some("session"), Some(id), None]) => {
            let id = parse_session_id(id)?;
            let b = &mut ws.body;
            state
                .sessions
                .with(id, |s| write_session_payload(b, id, s))
                .ok_or_else(|| HttpError::not_found(format!("unknown session {id}")))?;
            Ok(200)
        }
        (b"POST", [Some("v1"), Some("session"), Some(id), Some("next")]) => {
            next_item(state, ws, parse_session_id(id)?)
        }
        (b"POST", [Some("v1"), Some("session"), Some(id), Some("feedback")]) => {
            feedback(state, ws, parse_session_id(id)?, body)
        }
        (b"DELETE", [Some("v1"), Some("session"), Some(id), None]) => {
            let id = parse_session_id(id)?;
            let session = state
                .sessions
                .remove(id)
                .ok_or_else(|| HttpError::not_found(format!("unknown session {id}")))?;
            write_session_payload(&mut ws.body, id, &session);
            Ok(200)
        }
        (b"POST", [Some("v1"), Some("admin"), Some("swap"), None]) => {
            swap_snapshot(state, ws, body)
        }
        (b"POST", [Some("v1"), Some("admin"), Some("split"), None]) => set_split(state, ws, body),
        (b"POST", [Some("v1"), Some("admin"), Some("promote"), None]) => promote(state, ws),
        (b"POST", [Some("v1"), Some("admin"), Some("rollback"), None]) => rollback(state, ws),
        (b"POST", [Some("v1"), Some("admin"), Some("publish"), None]) => force_publish(state, ws),
        (b"POST", [Some("v1"), Some("admin"), Some("shutdown"), None]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop from a detached thread so the
            // response reaches the client first.
            std::thread::spawn(move || wake_listener(addr));
            ws.body.extend_from_slice(b"{\"ok\":true}");
            Ok(200)
        }
        // Known paths reached with the wrong verb are 405; everything
        // else (typo'd routes included) is 404.
        (_, [Some("healthz"), None, None, None])
        | (_, [Some("metrics"), None, None, None])
        | (_, [Some("v1"), Some("stats"), None, None])
        | (_, [Some("v1"), Some("session"), None, None])
        | (_, [Some("v1"), Some("session"), Some(_), None])
        | (_, [Some("v1"), Some("session"), Some(_), Some("next" | "feedback")])
        | (
            _,
            [Some("v1"), Some("admin"), Some("swap" | "split" | "promote" | "rollback" | "publish" | "shutdown"), None],
        ) => Err(HttpError::new(405, "method not allowed")),
        _ => Err(HttpError::not_found(format!("no route for {target}"))),
    }
}

fn parse_session_id(raw: &str) -> Result<u64, HttpError> {
    raw.parse().map_err(|_| HttpError::bad_request(format!("invalid session id '{raw}'")))
}

fn parse_body<'s>(
    slab: &'s mut crate::json::JsonSlab,
    body: &[u8],
) -> Result<JsonRef<'s>, HttpError> {
    slab.parse_body(body).map_err(|e| HttpError::bad_request(format!("invalid JSON: {e}")))
}

fn field_usize(body: &JsonRef<'_>, key: &str) -> Result<usize, HttpError> {
    body.get(key)
        .and_then(|v| v.as_usize())
        .ok_or_else(|| HttpError::bad_request(format!("missing or invalid '{key}'")))
}

fn write_id_array(b: &mut Vec<u8>, items: &[usize]) {
    b.push(b'[');
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            b.push(b',');
        }
        write_json_num(b, item as f64);
    }
    b.push(b']');
}

fn write_session_payload(b: &mut Vec<u8>, id: u64, session: &InteractiveSession) {
    b.extend_from_slice(b"{\"session_id\":");
    write_json_num(b, id as f64);
    b.extend_from_slice(b",\"user\":");
    write_json_num(b, session.user() as f64);
    b.extend_from_slice(b",\"objective\":");
    write_json_num(b, session.objective() as f64);
    b.extend_from_slice(b",\"accepted\":");
    write_id_array(b, session.accepted());
    b.extend_from_slice(b",\"rejected\":");
    write_id_array(b, session.rejected());
    b.extend_from_slice(b",\"proposals\":");
    write_json_num(b, session.proposals() as f64);
    b.extend_from_slice(b",\"reached_objective\":");
    b.extend_from_slice(if session.reached_objective() { b"true" } else { b"false" });
    b.extend_from_slice(b",\"done\":");
    b.extend_from_slice(if session.is_done() { b"true" } else { b"false" });
    b.push(b'}');
}

/// Copy every sampled (non-hot-path) value into its registry handle so
/// a scrape sees a coherent point-in-time view.  Called by both
/// exposition endpoints immediately before rendering.  Steady-state
/// allocation-free: gauges are atomic stores, text handles skip the
/// write when unchanged, and the snapshot reads are `Arc` clones.
fn sample_metrics(state: &Arc<ServerState>) {
    let m = state.engine.metrics();
    let stats = state.engine.stats();
    let policy = state.engine.policy();
    let snap = state.engine.registry().current();
    m.mean_batch.set(stats.mean_batch());
    m.cache_resident_bytes.set(state.sessions.cache_resident_bytes() as f64);
    m.cache_evictions.store(state.sessions.cache_evictions());
    m.sessions.set(state.sessions.len() as f64);
    m.evicted_sessions.store(state.evicted.load(Ordering::Relaxed));
    m.snapshot.set_if_changed(&snap.label);
    m.snapshot_version.set(state.engine.registry().version() as f64);
    m.snapshot_params.set(snap.num_scalars() as f64);
    m.max_batch.set(policy.max_batch as f64);
    m.workers.set(policy.workers as f64);
    m.http_workers.set(state.http_workers as f64);
    m.open_connections.set(state.open_conns.load(Ordering::Relaxed) as f64);
    m.layout.set_if_changed(layout_name(state.config.layout));
    m.context_cache_budget_mb.set(state.config.context_cache_mb as f64);
    let weights = state.split.weights();
    let census = state.sessions.arm_census();
    for arm in 0..NUM_ARMS {
        let obs = &m.arms[arm];
        let hot = state.split.metrics(arm);
        let (snap, version) = state.engine.registry().arm_versioned(arm);
        obs.weight.set(weights[arm]);
        obs.snapshot.set_if_changed(&snap.label);
        obs.version.set(version as f64);
        obs.sessions.set(census[arm] as f64);
        obs.acceptance_rate.set(hot.acceptance_rate());
        obs.p50_us.set(hot.latency_quantile_us(0.5));
        obs.p95_us.set(hot.latency_quantile_us(0.95));
        obs.window_requests.set(hot.window_requests() as f64);
        obs.window_accepted.set(hot.window_accepted() as f64);
        obs.window_rejected.set(hot.window_rejected() as f64);
        obs.window_acceptance_rate.set(hot.window_acceptance_rate());
        obs.window_mean_us.set(hot.window_mean_latency_us());
    }
    // Online-learning counters (zeroes when --online-train is off, so
    // dashboards scrape one stable schema).
    let online = state.online.read().unwrap_or_else(PoisonError::into_inner).clone();
    let stats = online.as_ref().map(|h| h.stats());
    m.online.enabled.set(online.is_some());
    m.online.events_logged.store(stats.map_or(0, |s| s.events_logged));
    m.online.events_dropped.store(stats.map_or(0, |s| s.events_dropped));
    m.online.replay_len.set(stats.map_or(0, |s| s.replay_len as u64) as f64);
    m.online.folds.store(stats.map_or(0, |s| s.folds));
    m.online.examples.store(stats.map_or(0, |s| s.examples));
    m.online.publishes.store(stats.map_or(0, |s| s.publishes));
    // Non-finite (no fold yet / trainer off) renders as JSON null and
    // Prometheus NaN.
    m.online.last_loss.set(stats.map_or(f64::NAN, |s| s.last_loss as f64));
    m.online.trainer_panics.store(stats.map_or(0, |s| s.trainer_panics));
    m.online.trainer_alive.set(stats.is_some_and(|s| s.trainer_alive));
    m.uptime_ms.set(state.started.elapsed().as_millis() as f64);
}

/// `/v1/stats`: the registry's flat view as one JSON object.  Key order
/// is registration order, which preserves the layout of the old
/// hand-written serialiser.
fn stats_payload(state: &Arc<ServerState>, b: &mut Vec<u8>) {
    sample_metrics(state);
    b.push(b'{');
    let mut first = true;
    state.engine.metrics().registry().visit_flat(|key, value| {
        if !first {
            b.push(b',');
        }
        first = false;
        write_json_str(b, key);
        b.push(b':');
        match value {
            FlatValue::Int(v) => write_json_num(b, v as f64),
            FlatValue::Num(v) if v.is_finite() => write_json_num(b, v),
            FlatValue::Num(_) => b.extend_from_slice(b"null"),
            FlatValue::Bool(v) => b.extend_from_slice(if v { b"true" } else { b"false" }),
            FlatValue::Text(s) => write_json_str(b, s),
        }
    });
    b.push(b'}');
}

/// `GET /metrics`: Prometheus text exposition of the same registry.
fn metrics_payload(state: &Arc<ServerState>, b: &mut Vec<u8>) {
    sample_metrics(state);
    state.engine.metrics().registry().render_prometheus(b);
}

/// The operator-facing name of an encoding layout (shared by the startup
/// log and `/v1/stats`, so the two can never disagree).
pub fn layout_name(layout: Option<EncodingLayout>) -> &'static str {
    match layout {
        Some(EncodingLayout::AppendOnly) => "append",
        Some(EncodingLayout::PrePadded) => "prepadded",
        None => "n/a",
    }
}

fn create_session(
    state: &Arc<ServerState>,
    ws: &mut RequestWorkspace,
    body: &[u8],
) -> Result<u16, HttpError> {
    // Best-effort cap (checked outside the shard locks): bounds the
    // memory abandoned sessions can pin.
    if state.sessions.len() >= state.config.max_sessions {
        return Err(HttpError::new(
            429,
            format!(
                "session limit {} reached; DELETE finished sessions",
                state.config.max_sessions
            ),
        ));
    }
    let parsed = parse_body(&mut ws.slab, body)?;
    let user = field_usize(&parsed, "user")?;
    let objective = field_usize(&parsed, "objective")?;
    let history = match parsed.get("history") {
        None => Vec::new(),
        Some(h) if h.is_arr() => {
            let mut ids = Vec::with_capacity(h.len().unwrap_or(0));
            for item in h.children() {
                ids.push(
                    item.as_usize().ok_or_else(|| HttpError::bad_request("invalid 'history'"))?,
                );
            }
            ids
        }
        Some(_) => return Err(HttpError::bad_request("invalid 'history'")),
    };
    let max_len = match parsed.get("max_len") {
        None => state.config.max_len,
        Some(v) => v.as_usize().ok_or_else(|| HttpError::bad_request("invalid 'max_len'"))?,
    };
    let patience = match parsed.get("patience") {
        None => state.config.patience,
        Some(v) => v.as_usize().ok_or_else(|| HttpError::bad_request("invalid 'patience'"))?,
    };

    // Reject out-of-catalogue ids up front when the snapshot knows its
    // catalogue (an in-range check at the door instead of a panic deep in
    // an embedding lookup).
    if let Some(n) = state.engine.registry().current().num_items {
        if objective >= n {
            return Err(HttpError::bad_request(format!(
                "objective {objective} outside catalogue of {n} items"
            )));
        }
        if let Some(&bad) = history.iter().find(|&&i| i >= n) {
            return Err(HttpError::bad_request(format!(
                "history item {bad} outside catalogue of {n} items"
            )));
        }
    }

    // Sticky traffic-split assignment: one seeded weighted draw on the
    // freshly allocated id decides which snapshot arm serves this
    // session for its whole life.
    let (id, arm) = state.sessions.insert_assigned(
        InteractiveSession::new(user, history, objective, max_len, patience),
        |id| state.split.assign(id),
    );
    let b = &mut ws.body;
    b.extend_from_slice(b"{\"session_id\":");
    write_json_num(b, id as f64);
    b.extend_from_slice(b",\"arm\":");
    write_json_num(b, arm as f64);
    b.extend_from_slice(b",\"max_len\":");
    write_json_num(b, max_len as f64);
    b.extend_from_slice(b",\"patience\":");
    write_json_num(b, patience as f64);
    b.push(b'}');
    Ok(200)
}

/// What the pinned-session read found.
enum NextState {
    AlreadyDone,
    Ask { user: usize, objective: usize, arm: usize },
}

fn next_item(
    state: &Arc<ServerState>,
    ws: &mut RequestWorkspace,
    id: u64,
) -> Result<u16, HttpError> {
    // Stage the query into the caller's buffers under the shard lock and
    // *pin* the session: the TTL sweeper must not evict it while the
    // scheduler round-trip is in flight (the round-trip can outlast a
    // short TTL, and losing the session mid-request would drop the
    // give-up record below).  The pin is taken under the same lock as
    // the read, so there is no evict window in between.
    let caller = &mut ws.caller;
    let (pin, staged) = state
        .sessions
        .pin_with(id, |s, arm| {
            if s.is_done() {
                NextState::AlreadyDone
            } else {
                let q = s.query();
                caller.history_mut().extend_from_slice(q.history);
                caller.path_mut().extend_from_slice(q.path);
                NextState::Ask { user: q.user, objective: q.objective, arm }
            }
        })
        .ok_or_else(|| HttpError::not_found(format!("unknown session {id}")))?;
    let b = &mut ws.body;
    match staged {
        NextState::AlreadyDone => {
            // Nothing was staged; release the pin and report the closed
            // session (clearing is defensive — the buffers are empty).
            caller.history_mut().clear();
            caller.path_mut().clear();
            drop(pin);
            b.extend_from_slice(b"{\"item\":null,\"done\":true}");
        }
        NextState::Ask { user, objective, arm } => {
            // Ride the session's context cache along with the request:
            // the worker extends (or rebuilds) it and hands it back, and
            // it is parked again below while the session is still pinned
            // (so the slot cannot have been swept mid-flight).
            if state.sessions.cache_enabled() {
                caller.stage_cache(state.sessions.take_cache(id));
            }
            caller.set_arm(arm);
            let round_trip = Instant::now();
            let answer = state.engine.next_item_with(caller, user, objective);
            state.split.metrics(arm).record_request(round_trip.elapsed());
            if let Some(cache) = caller.take_cache() {
                state.sessions.put_cache(id, cache);
            }
            let cached = usize::from(state.sessions.cache_enabled());
            let encode_started = Instant::now();
            match answer {
                Some(item) => {
                    b.extend_from_slice(b"{\"item\":");
                    write_json_num(b, item as f64);
                    b.extend_from_slice(b",\"done\":false}");
                }
                None => {
                    // Still pinned, so the session cannot have been
                    // evicted between the round-trip and this record.
                    state.sessions.with(id, |s| {
                        if !s.is_done() {
                            s.record_give_up();
                        }
                    });
                    b.extend_from_slice(b"{\"item\":null,\"done\":true}");
                }
            }
            state.engine.metrics().stages.encode[arm.min(NUM_ARMS - 1)][cached]
                .record(encode_started.elapsed());
            drop(pin);
        }
    }
    Ok(200)
}

fn feedback(
    state: &Arc<ServerState>,
    ws: &mut RequestWorkspace,
    id: u64,
    body: &[u8],
) -> Result<u16, HttpError> {
    let parsed = parse_body(&mut ws.slab, body)?;
    let item = field_usize(&parsed, "item")?;
    let accepted = parsed
        .get("accepted")
        .and_then(|v| v.as_bool())
        .ok_or_else(|| HttpError::bad_request("missing or invalid 'accepted'"))?;
    // Same door-check as session creation: a recorded item enters the
    // session's virtual path and reaches embedding lookups on the next
    // proposal, so out-of-catalogue ids are rejected here, not deep in a
    // forward pass.
    if let Some(n) = state.engine.registry().current().num_items {
        if item >= n {
            return Err(HttpError::bad_request(format!(
                "item {item} outside catalogue of {n} items"
            )));
        }
    }
    let online = state.online.read().unwrap_or_else(PoisonError::into_inner).clone();
    let b = &mut ws.body;
    state
        .sessions
        .with_arm(id, |s, arm| {
            if s.is_done() {
                return Err(HttpError::bad_request(format!("session {id} is already closed")));
            }
            // Log the replay event *before* recording: the event's
            // context is the user's state at proposal time, the item is
            // what the arm proposed, and `accepted` is the ground-truth
            // label the online trainer learns from.  (This allocates the
            // context vector — the feedback route is off the
            // allocation-free steady-state path, and only pays it when
            // online training is on.)
            if let Some(handle) = &online {
                handle.replay().push(FeedbackEvent {
                    user: s.user(),
                    context: s.context(),
                    item,
                    accepted,
                });
            }
            s.record(item, accepted);
            state.split.metrics(arm).record_feedback(accepted);
            write_session_payload(b, id, s);
            Ok(200)
        })
        .ok_or_else(|| HttpError::not_found(format!("unknown session {id}")))?
}

fn set_split(
    state: &Arc<ServerState>,
    ws: &mut RequestWorkspace,
    body: &[u8],
) -> Result<u16, HttpError> {
    let parsed = parse_body(&mut ws.slab, body)?;
    let weights_field = parsed
        .get("weights")
        .filter(|w| w.is_arr())
        .ok_or_else(|| HttpError::bad_request("missing or invalid 'weights'"))?;
    let mut weights = Vec::with_capacity(NUM_ARMS);
    for w in weights_field.children() {
        weights.push(w.as_f64().ok_or_else(|| HttpError::bad_request("invalid weight entry"))?);
    }
    let normalised = state.split.set_weights(&weights).map_err(HttpError::bad_request)?;
    write_weights_payload(&mut ws.body, &normalised);
    Ok(200)
}

fn write_weights_payload(b: &mut Vec<u8>, weights: &[f64; NUM_ARMS]) {
    b.extend_from_slice(b"{\"weights\":[");
    for (i, w) in weights.iter().enumerate() {
        if i > 0 {
            b.push(b',');
        }
        write_json_num(b, *w);
    }
    b.extend_from_slice(b"]}");
}

fn promote(state: &Arc<ServerState>, ws: &mut RequestWorkspace) -> Result<u16, HttpError> {
    // The canary won: stable takes its (snapshot, version) pair and all
    // traffic flows to the stable arm again.
    let version = state.engine.registry().promote(CANARY_ARM);
    let mut weights = [0.0; NUM_ARMS];
    weights[0] = 1.0;
    let _ = state.split.set_weights(&weights);
    let b = &mut ws.body;
    b.extend_from_slice(b"{\"version\":");
    write_json_num(b, version as f64);
    b.extend_from_slice(b",\"promoted\":true}");
    Ok(200)
}

fn rollback(state: &Arc<ServerState>, ws: &mut RequestWorkspace) -> Result<u16, HttpError> {
    // The canary lost: reset it to the stable snapshot and drain its
    // traffic share.
    let version = state.engine.registry().rollback();
    let mut weights = [0.0; NUM_ARMS];
    weights[0] = 1.0;
    let _ = state.split.set_weights(&weights);
    let b = &mut ws.body;
    b.extend_from_slice(b"{\"version\":");
    write_json_num(b, version as f64);
    b.extend_from_slice(b",\"rolled_back\":true}");
    Ok(200)
}

fn force_publish(state: &Arc<ServerState>, ws: &mut RequestWorkspace) -> Result<u16, HttpError> {
    // Clone the handle out of the guard first: a slow publish tick must
    // not hold the online lock (stats keep answering meanwhile).
    let Some(handle) = state.online.read().unwrap_or_else(PoisonError::into_inner).clone() else {
        return Err(HttpError::new(501, "online training not enabled on this server"));
    };
    match handle.force_publish(Duration::from_secs(30)) {
        Ok(version) => {
            let b = &mut ws.body;
            b.extend_from_slice(b"{\"version\":");
            write_json_num(b, version as f64);
            b.extend_from_slice(b",\"arm\":");
            write_json_num(b, CANARY_ARM as f64);
            b.push(b'}');
            Ok(200)
        }
        Err(ForcePublishError::Dead) => {
            Err(HttpError::new(503, "online trainer has died; serving static snapshots"))
        }
        Err(ForcePublishError::Timeout) => {
            Err(HttpError::new(503, "online trainer did not publish within the timeout"))
        }
    }
}

fn swap_snapshot(
    state: &Arc<ServerState>,
    ws: &mut RequestWorkspace,
    body: &[u8],
) -> Result<u16, HttpError> {
    let Some(loader) = &state.loader else {
        return Err(HttpError::new(501, "snapshot loading not configured on this server"));
    };
    let parsed = parse_body(&mut ws.slab, body)?;
    let path = parsed
        .get("path")
        .and_then(|v| v.as_str())
        .ok_or_else(|| HttpError::bad_request("missing or invalid 'path'"))?;
    let snapshot =
        loader(path).map_err(|e| HttpError::bad_request(format!("cannot load {path}: {e}")))?;
    let label = snapshot.label.clone();
    let version = state.engine.registry().swap(snapshot);
    let b = &mut ws.body;
    b.extend_from_slice(b"{\"version\":");
    write_json_num(b, version as f64);
    b.extend_from_slice(b",\"label\":");
    write_json_str(b, &label);
    b.push(b'}');
    Ok(200)
}
