//! Concurrency stress tests for the serving-v2 connection layer.
//!
//! Four pins, in rough order of subtlety:
//!
//! * interleaved keep-alive clients get *bitwise-identical* session
//!   outcomes to the scalar single-threaded reference driver — arrival
//!   timing, micro-batch composition and connection multiplexing must
//!   never leak into the recommendations;
//! * a thousand open connections cost a thousand parked sockets, not a
//!   thousand threads: the process thread count stays at the pool size
//!   (Linux-gated via `/proc/self/status`);
//! * graceful shutdown drains: clients hammering the server through a
//!   shutdown see complete responses or a clean close at a response
//!   boundary, never a torn response, and `run()` returns `Ok`;
//! * the TTL sweeper never evicts a session whose request is in flight
//!   (the pin taken with the query read keeps the give-up record safe
//!   even when scoring outlasts several sweep intervals).

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use irs_core::{
    run_interactive_session, InfluenceRecommender, Irn, IrnConfig, NeuralTrainConfig, UserModel,
};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::ItemId;
use irs_serve::{
    BatchPolicy, Engine, HttpClient, HttpServer, JsonValue, ModelSnapshot, ServerConfig,
    ServerHandle, SnapshotRegistry,
};

// ---------------------------------------------------------------- helpers

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    engine: Arc<Engine>,
    thread: JoinHandle<std::io::Result<()>>,
}

fn boot(
    model: Box<dyn InfluenceRecommender + Send + Sync>,
    num_items: usize,
    config: ServerConfig,
) -> TestServer {
    let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
        "stress", model, num_items,
    )));
    let engine = Arc::new(Engine::start(
        registry,
        BatchPolicy { max_batch: 8, workers: 2, queue_capacity: 256 },
    ));
    let server = HttpServer::bind("127.0.0.1:0", engine.clone(), None, config).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let thread = std::thread::spawn(move || server.run());
    TestServer { addr, handle, engine, thread }
}

// ------------------------------------------- bitwise vs scalar reference

struct World {
    /// Serialised trained weights (each test reloads its own copy so
    /// served and reference models never share a PIM cache).
    weights: Vec<u8>,
    config: IrnConfig,
    reference: Irn,
    num_items: usize,
    num_users: usize,
    cases: Vec<(usize, Vec<ItemId>, ItemId)>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = generate(&SynthConfig::tiny(0x57e5)).dataset;
        let split = split_dataset(&dataset, &SplitConfig::small());
        let config = IrnConfig {
            dim: 8,
            user_dim: 4,
            layers: 1,
            heads: 2,
            max_len: 10,
            train: NeuralTrainConfig { epochs: 1, ..Default::default() },
            ..Default::default()
        };
        let model =
            Irn::fit(&split.train, &[], dataset.num_items, dataset.num_users, &config, None);
        let mut weights = Vec::new();
        model.save(&mut weights).unwrap();
        let reference =
            Irn::load(&weights[..], dataset.num_items, dataset.num_users, &config).unwrap();
        let cases = split
            .test
            .iter()
            .take(6)
            .enumerate()
            .map(|(i, tc)| {
                let objective =
                    (tc.history.last().copied().unwrap_or(0) + 1 + i) % dataset.num_items;
                (tc.user, tc.history.clone(), objective)
            })
            .collect();
        World {
            weights,
            config,
            reference,
            num_items: dataset.num_items,
            num_users: dataset.num_users,
            cases,
        }
    })
}

/// Passive user for the scalar reference driver: accepts everything,
/// mirroring the HTTP clients below.
struct Agreeable;

impl UserModel for Agreeable {
    fn accepts(&mut self, _user: usize, _current: &[ItemId], _item: ItemId) -> bool {
        true
    }
}

#[test]
fn interleaved_keepalive_clients_match_the_scalar_reference_bitwise() {
    const MAX_LEN: usize = 5;
    const PATIENCE: usize = 2;
    const ROUNDS: usize = 3;
    let w = world();
    let served =
        Irn::load(&w.weights[..], w.num_items, w.num_users, &w.config).expect("reload weights");
    let server = boot(
        Box::new(served),
        w.num_items,
        ServerConfig { max_len: MAX_LEN, patience: PATIENCE, ..Default::default() },
    );

    // One keep-alive client thread per case, each driving ROUNDS full
    // sessions over its single connection, all interleaved.
    let served_paths: Vec<Vec<Vec<ItemId>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = w
            .cases
            .iter()
            .map(|(user, history, objective)| {
                let addr = server.addr;
                scope.spawn(move || {
                    let mut conn = HttpClient::new(addr, true);
                    let mut rounds = Vec::new();
                    for _ in 0..ROUNDS {
                        let hist: Vec<String> = history.iter().map(ToString::to_string).collect();
                        let body = format!(
                            "{{\"user\": {user}, \"history\": [{}], \"objective\": {objective}}}",
                            hist.join(",")
                        );
                        let (status, created) =
                            conn.json("POST", "/v1/session", &body).expect("create");
                        assert_eq!(status, 200, "create failed: {created}");
                        let sid = created
                            .get("session_id")
                            .and_then(JsonValue::as_usize)
                            .expect("session id");
                        loop {
                            let (status, next) = conn
                                .json("POST", &format!("/v1/session/{sid}/next"), "")
                                .expect("next");
                            assert_eq!(status, 200, "next failed: {next}");
                            if next.get("done").and_then(JsonValue::as_bool) == Some(true) {
                                break;
                            }
                            let item =
                                next.get("item").and_then(JsonValue::as_usize).expect("item");
                            let (status, fb) = conn
                                .json(
                                    "POST",
                                    &format!("/v1/session/{sid}/feedback"),
                                    &format!("{{\"item\": {item}, \"accepted\": true}}"),
                                )
                                .expect("feedback");
                            assert_eq!(status, 200, "feedback failed: {fb}");
                            if fb.get("done").and_then(JsonValue::as_bool) == Some(true) {
                                break;
                            }
                        }
                        let (status, outcome) =
                            conn.json("DELETE", &format!("/v1/session/{sid}"), "").expect("delete");
                        assert_eq!(status, 200, "delete failed: {outcome}");
                        let accepted = outcome
                            .get("accepted")
                            .and_then(JsonValue::as_usize_arr)
                            .expect("accepted array");
                        rounds.push(accepted);
                    }
                    rounds
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Scalar reference: same sessions, single-threaded, no HTTP, no
    // batching.  Item ids are integers, so equality is bitwise.
    for ((user, history, objective), rounds) in w.cases.iter().zip(&served_paths) {
        let scalar = run_interactive_session(
            &w.reference,
            &mut Agreeable,
            *user,
            history,
            *objective,
            MAX_LEN,
            PATIENCE,
        );
        for (round, accepted) in rounds.iter().enumerate() {
            assert_eq!(
                accepted, &scalar.accepted,
                "user {user} round {round}: served path diverged from the scalar reference"
            );
        }
    }

    let (status, _) = HttpClient::new(server.addr, true)
        .json("POST", "/v1/admin/shutdown", "")
        .expect("shutdown");
    assert_eq!(status, 200);
    server.thread.join().expect("server thread").expect("server run");
    server.engine.shutdown();
}

// ------------------------------------------------- bounded thread count

/// Cheap deterministic stub for the protocol-only stress tests.
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
        _path: &[ItemId],
    ) -> Option<ItemId> {
        Some(objective)
    }
}

#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn a_thousand_open_connections_do_not_mean_a_thousand_threads() {
    let server = boot(Box::new(StubModel), 8, ServerConfig::default());
    // Warm one request so every lazily spawned server thread exists.
    let mut first = HttpClient::new(server.addr, true);
    let (status, _) = first.json("GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    #[cfg(target_os = "linux")]
    let baseline = process_threads();

    // 1000 keep-alive connections, each held open after one answered
    // request; plus 1000 live sessions so the store is at scale too.
    let mut conns = Vec::with_capacity(1000);
    for i in 0..1000 {
        let mut conn = HttpClient::new(server.addr, true);
        let (status, _) = conn
            .json(
                "POST",
                "/v1/session",
                &format!("{{\"user\": {i}, \"history\": [], \"objective\": 1}}"),
            )
            .expect("create");
        assert_eq!(status, 200, "create #{i} failed");
        conns.push(conn);
    }
    assert!(
        server.handle.open_connections() >= 1000,
        "expected >=1000 open connections, saw {}",
        server.handle.open_connections()
    );
    assert_eq!(server.handle.live_sessions(), 1000);

    // The pool is the pool: no thread sprouted per connection.
    #[cfg(target_os = "linux")]
    {
        let now = process_threads();
        assert!(
            now <= baseline + 8,
            "thread count grew from {baseline} to {now} with 1000 open connections"
        );
        assert!(
            server.handle.http_workers() < 64,
            "worker pool unexpectedly large: {}",
            server.handle.http_workers()
        );
    }

    // The connections still work after the census.
    let (status, _) = conns[500].json("GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200, "parked connection went stale");

    drop(conns);
    let (status, _) = first.json("POST", "/v1/admin/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    server.thread.join().expect("server thread").expect("server run");
    server.engine.shutdown();
}

// --------------------------------------------------- graceful shutdown

#[test]
fn graceful_shutdown_never_tears_a_response() {
    let server = boot(Box::new(StubModel), 8, ServerConfig::default());
    let addr = server.addr;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                let mut conn = HttpClient::new(addr, true);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match conn.request("GET", "/healthz", "") {
                        Ok(response) => {
                            assert_eq!(response.status, 200);
                            served += 1;
                        }
                        // A clean close at a response boundary ends the
                        // client.
                        Err(e) if e.kind() == ErrorKind::ConnectionAborted => break,
                        // The request write raced the close: reconnect.
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
                            ) => {}
                        // A torn response (`UnexpectedEof`) or any other
                        // failure.
                        Err(e) => panic!("request failed: {e}"),
                    }
                }
                served
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    let (status, _) =
        HttpClient::new(addr, true).json("POST", "/v1/admin/shutdown", "").expect("shutdown");
    assert_eq!(status, 200, "shutdown request must itself be answered");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut total = 0usize;
    for c in clients {
        total += c.join().expect("client must exit cleanly (no torn responses)");
    }
    assert!(total > 0, "clients never got a response before shutdown");
    server.thread.join().expect("server thread").expect("run() must return Ok after drain");
    server.engine.shutdown();
}

// ------------------------------------------- TTL sweeper vs in-flight

/// A model whose scoring outlasts many TTL sweep intervals, and which
/// always gives up — forcing the handler's post-round-trip
/// `record_give_up` write, the exact access the session pin protects.
struct SlowGiveUp;

impl InfluenceRecommender for SlowGiveUp {
    fn name(&self) -> String {
        "slow-give-up".to_string()
    }

    fn next_item(
        &self,
        _user: usize,
        _history: &[ItemId],
        _objective: ItemId,
        _path: &[ItemId],
    ) -> Option<ItemId> {
        std::thread::sleep(Duration::from_millis(1000));
        None
    }
}

#[test]
fn ttl_sweeper_never_evicts_a_session_with_a_request_in_flight() {
    // TTL 250 ms, sweeps every ~62 ms, scoring takes 1000 ms: without
    // the request pin the session would be swept several times over
    // while its own request is in flight, and the give-up record would
    // hit a missing session.
    let server = boot(
        Box::new(SlowGiveUp),
        8,
        ServerConfig { session_ttl: Some(Duration::from_millis(250)), ..Default::default() },
    );
    let mut conn = HttpClient::new(server.addr, true);
    let (status, created) = conn
        .json("POST", "/v1/session", "{\"user\": 0, \"history\": [2], \"objective\": 1}")
        .expect("create");
    assert_eq!(status, 200, "create failed: {created}");
    let sid = created.get("session_id").and_then(JsonValue::as_usize).expect("session id");

    let (status, next) = conn.json("POST", &format!("/v1/session/{sid}/next"), "").expect("next");
    assert_eq!(status, 200, "in-flight request failed: {next}");
    assert_eq!(next.get("done").and_then(JsonValue::as_bool), Some(true));

    // The give-up landed in a session that was never evicted: it is
    // still readable (freshly touched by the record) and reports done.
    let (status, state) = conn.json("GET", &format!("/v1/session/{sid}"), "").expect("get");
    assert_eq!(status, 200, "session was evicted while its request was in flight");
    assert_eq!(state.get("done").and_then(JsonValue::as_bool), Some(true));

    // Left alone, the same session *is* swept — the pin protects
    // in-flight requests, it does not disable the TTL.
    std::thread::sleep(Duration::from_millis(1200));
    let (status, _) = conn.json("GET", &format!("/v1/session/{sid}"), "").expect("get");
    assert_eq!(status, 404, "abandoned session must still age out");

    let (status, _) = conn.json("POST", "/v1/admin/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    server.thread.join().expect("server thread").expect("server run");
    server.engine.shutdown();
}
