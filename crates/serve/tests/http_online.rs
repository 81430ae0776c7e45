//! End-to-end online-learning canary flow over HTTP: boot the full
//! serving stack with a background trainer attached, split traffic
//! 50/50, feed the trainer real feedback, force a canary publish,
//! verify both arms serve their own snapshot versions with per-arm
//! counters, then promote the canary and watch the loser drain.
//!
//! A second test injects a panicking learner and proves the serving
//! path is isolated from trainer death: every route keeps answering
//! and the failure is visible in `/v1/stats`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use irs_core::{Irn, IrnConfig, NeuralTrainConfig};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_serve::{
    BatchPolicy, Engine, FeedbackEvent, FoldOutcome, HttpClient, HttpServer, IrnArchitecture,
    IrnOnlineLearner, JsonValue, ModelSnapshot, OnlineConfig, OnlineHandle, OnlineLearner,
    ServerConfig, SnapshotLoader, SnapshotRegistry,
};

/// One `Connection: close` round trip; returns (status, parsed body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
    HttpClient::new(addr, false).json(method, path, body).expect("HTTP request")
}

fn stat(stats: &JsonValue, key: &str) -> usize {
    stats
        .get(key)
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("stats missing numeric key {key:?}: {stats}"))
}

#[test]
fn feedback_publish_weighted_routing_promote_end_to_end() {
    let dataset = generate(&SynthConfig::tiny(0x0a11ce)).dataset;
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
    let model = Irn::fit(&split.train, &[], dataset.num_items, dataset.num_users, &config, None);
    let dir = std::env::temp_dir().join("irs_serve_http_online");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("model.irsp");
    model.save(std::fs::File::create(&snap_path).unwrap()).unwrap();

    let arch = IrnArchitecture {
        num_items: dataset.num_items,
        num_users: dataset.num_users,
        config: config.clone(),
    };
    let initial = arch.load_snapshot(snap_path.to_str().unwrap()).unwrap();
    let registry = Arc::new(SnapshotRegistry::new(initial));
    let engine = Arc::new(Engine::start(
        registry.clone(),
        BatchPolicy { max_batch: 8, workers: 2, queue_capacity: 64 },
    ));
    let loader: SnapshotLoader = {
        let arch = arch.clone();
        Arc::new(move |path: &str| arch.load_snapshot(path))
    };
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        Some(loader),
        ServerConfig { max_len: 6, patience: 2, session_shards: 4, ..Default::default() },
    )
    .expect("bind");
    // Same wiring `irs serve --online-train` uses: the student boots
    // from the snapshot file on the trainer thread.  A long timed
    // period keeps publishes under this test's explicit control.
    let bytes = std::fs::read(&snap_path).unwrap();
    let (num_items, num_users) = (dataset.num_items, dataset.num_users);
    let student_cfg = config.clone();
    server.set_online(OnlineHandle::start(
        registry,
        OnlineConfig { publish_every: Duration::from_secs(3600), replay_cap: 1024 },
        move || {
            let student = Irn::load(&bytes[..], num_items, num_users, &student_cfg).unwrap();
            Box::new(IrnOnlineLearner::new(student)) as Box<dyn OnlineLearner>
        },
    ));
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // Before any split the stable arm owns all traffic.
    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("online_enabled").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(stat(&stats, "arm0_version"), 1);
    assert_eq!(stat(&stats, "arm1_version"), 1);

    // Open the canary: 50/50 weighted split.
    let (status, split_resp) =
        request(addr, "POST", "/v1/admin/split", "{\"weights\": [0.5, 0.5]}");
    assert_eq!(status, 200, "split failed: {split_resp}");

    // Create sessions until both arms are populated; sticky assignment
    // happens at creation time and is reported in the response.
    let mut sessions: Vec<(usize, usize, usize)> = Vec::new(); // (sid, arm, user)
    let mut arm_seen = [0usize; 2];
    for tc in split.test.iter().cycle().take(64) {
        let history: Vec<String> = tc.history.iter().map(|i| i.to_string()).collect();
        let objective = (tc.history.last().unwrap() + 1) % dataset.num_items;
        let body = format!(
            "{{\"user\": {}, \"history\": [{}], \"objective\": {objective}}}",
            tc.user,
            history.join(",")
        );
        let (status, created) = request(addr, "POST", "/v1/session", &body);
        assert_eq!(status, 200, "create failed: {created}");
        let sid = created.get("session_id").and_then(JsonValue::as_usize).expect("session id");
        let arm = created.get("arm").and_then(JsonValue::as_usize).expect("arm in response");
        assert!(arm < 2, "arm {arm} out of range");
        arm_seen[arm] += 1;
        sessions.push((sid, arm, tc.user));
        if arm_seen[0] >= 4 && arm_seen[1] >= 4 && sessions.len() >= 16 {
            break;
        }
    }
    assert!(
        arm_seen[0] >= 4 && arm_seen[1] >= 4,
        "64 sessions under a 50/50 split must land on both arms (got {arm_seen:?})"
    );

    // Drive one next → accept round per session: this exercises both
    // arms' scoring paths and logs feedback for the trainer.
    let mut fed = 0usize;
    for &(sid, _, _) in &sessions {
        let (status, next) = request(addr, "POST", &format!("/v1/session/{sid}/next"), "");
        assert_eq!(status, 200, "next failed: {next}");
        if next.get("done").and_then(JsonValue::as_bool) == Some(true) {
            continue;
        }
        let item = next.get("item").and_then(JsonValue::as_usize).expect("item");
        let (status, fb) = request(
            addr,
            "POST",
            &format!("/v1/session/{sid}/feedback"),
            &format!("{{\"item\": {item}, \"accepted\": true}}"),
        );
        assert_eq!(status, 200, "feedback failed: {fb}");
        fed += 1;
    }
    assert!(fed >= 8, "expected most sessions to complete a feedback round, got {fed}");

    // Force a canary publish: the trainer folds the replay buffer into
    // the student and lands a new snapshot on arm 1 only.
    let (status, published) = request(addr, "POST", "/v1/admin/publish", "");
    assert_eq!(status, 200, "publish failed: {published}");
    assert_eq!(published.get("version").and_then(JsonValue::as_usize), Some(2));
    assert_eq!(published.get("arm").and_then(JsonValue::as_usize), Some(1));

    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stat(&stats, "arm0_version"), 1, "stable arm must be untouched by a publish");
    assert_eq!(stat(&stats, "arm1_version"), 2);
    assert!(stat(&stats, "online_folds") >= 1);
    assert!(stat(&stats, "online_examples") >= 1, "accepted feedback must reach the trainer");
    assert_eq!(stat(&stats, "online_publishes"), 1);
    assert!(
        stats.get("arm1_snapshot").and_then(JsonValue::as_str).unwrap().starts_with("online-"),
        "canary snapshot label should mark its online origin: {stats}"
    );

    // Another scoring round now serves two different snapshot versions
    // side by side; per-arm request counters must both advance.
    for &(sid, _, _) in &sessions {
        let (status, _) = request(addr, "POST", &format!("/v1/session/{sid}/next"), "");
        assert_eq!(status, 200);
    }
    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(stat(&stats, "arm0_requests") >= 4, "stable arm saw no traffic: {stats}");
    assert!(stat(&stats, "arm1_requests") >= 4, "canary arm saw no traffic: {stats}");
    assert!(stat(&stats, "arm0_sessions") >= 4);
    assert!(stat(&stats, "arm1_sessions") >= 4);

    // Promote: the stable arm adopts the canary snapshot and weights
    // collapse to 100/0 — the loser drains.
    let (status, promoted) = request(addr, "POST", "/v1/admin/promote", "");
    assert_eq!(status, 200, "promote failed: {promoted}");
    assert_eq!(promoted.get("promoted").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(promoted.get("version").and_then(JsonValue::as_usize), Some(2));

    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stat(&stats, "arm0_version"), 2, "promotion must flip the stable arm");
    assert!(stats.get("arm0_weight").and_then(JsonValue::as_f64).unwrap() > 0.999);
    assert!(stats.get("arm1_weight").and_then(JsonValue::as_f64).unwrap() < 0.001);

    // Every new session lands on the winner.
    for _ in 0..8 {
        let (status, created) = request(
            addr,
            "POST",
            "/v1/session",
            "{\"user\": 0, \"history\": [0], \"objective\": 1}",
        );
        assert_eq!(status, 200);
        assert_eq!(created.get("arm").and_then(JsonValue::as_usize), Some(0));
    }

    // Rollback is the mirror image: canary returns to the stable pair.
    let (status, rolled) = request(addr, "POST", "/v1/admin/rollback", "");
    assert_eq!(status, 200, "rollback failed: {rolled}");
    assert_eq!(rolled.get("rolled_back").and_then(JsonValue::as_bool), Some(true));
    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stat(&stats, "arm1_version"), stat(&stats, "arm0_version"));

    let (status, _) = request(addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 200);
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();
}

/// A learner that dies on first contact with data.
struct PanickyLearner;

impl OnlineLearner for PanickyLearner {
    fn fold(&mut self, _events: &[FeedbackEvent]) -> FoldOutcome {
        panic!("injected trainer fault");
    }
    fn publish(&mut self) -> std::io::Result<ModelSnapshot> {
        unreachable!("fold panics first")
    }
}

#[test]
fn panicking_trainer_never_takes_down_serving() {
    let dataset = generate(&SynthConfig::tiny(0xdead)).dataset;
    let config = IrnConfig {
        dim: 8,
        user_dim: 4,
        layers: 1,
        heads: 2,
        max_len: 10,
        train: NeuralTrainConfig { epochs: 0, ..Default::default() },
        ..Default::default()
    };
    let model = Irn::fit(&[], &[], dataset.num_items, dataset.num_users, &config, None);
    let dir = std::env::temp_dir().join("irs_serve_http_online_panic");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("model.irsp");
    model.save(std::fs::File::create(&snap_path).unwrap()).unwrap();
    let arch =
        IrnArchitecture { num_items: dataset.num_items, num_users: dataset.num_users, config };
    let initial = arch.load_snapshot(snap_path.to_str().unwrap()).unwrap();
    let registry = Arc::new(SnapshotRegistry::new(initial));
    let engine = Arc::new(Engine::start(
        registry.clone(),
        BatchPolicy { max_batch: 4, workers: 1, queue_capacity: 16 },
    ));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        None,
        ServerConfig { max_len: 6, patience: 2, session_shards: 2, ..Default::default() },
    )
    .expect("bind");
    server.set_online(OnlineHandle::start(
        registry,
        OnlineConfig { publish_every: Duration::from_secs(3600), replay_cap: 64 },
        || Box::new(PanickyLearner) as Box<dyn OnlineLearner>,
    ));
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // Log feedback, then force a tick: the learner panics on fold.
    let (status, created) =
        request(addr, "POST", "/v1/session", "{\"user\": 0, \"history\": [0], \"objective\": 1}");
    assert_eq!(status, 200);
    let sid = created.get("session_id").and_then(JsonValue::as_usize).unwrap();
    let (status, next) = request(addr, "POST", &format!("/v1/session/{sid}/next"), "");
    assert_eq!(status, 200, "next failed: {next}");
    if let Some(item) = next.get("item").and_then(JsonValue::as_usize) {
        let (status, _) = request(
            addr,
            "POST",
            &format!("/v1/session/{sid}/feedback"),
            &format!("{{\"item\": {item}, \"accepted\": true}}"),
        );
        assert_eq!(status, 200);
    }
    let (status, body) = request(addr, "POST", "/v1/admin/publish", "");
    assert_eq!(status, 503, "publish against a dead trainer must be 503: {body}");

    // The trainer is dead; serving is not.  Every route still answers.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));
    let (status, created) =
        request(addr, "POST", "/v1/session", "{\"user\": 1, \"history\": [1], \"objective\": 2}");
    assert_eq!(status, 200);
    let sid2 = created.get("session_id").and_then(JsonValue::as_usize).unwrap();
    let (status, next) = request(addr, "POST", &format!("/v1/session/{sid2}/next"), "");
    assert_eq!(status, 200, "scoring after trainer death failed: {next}");
    if let Some(item) = next.get("item").and_then(JsonValue::as_usize) {
        let (status, _) = request(
            addr,
            "POST",
            &format!("/v1/session/{sid2}/feedback"),
            &format!("{{\"item\": {item}, \"accepted\": false}}"),
        );
        assert_eq!(status, 200, "feedback must keep logging after trainer death");
    }

    // The failure is visible, not silent: panics counted, alive=false,
    // and no snapshot ever reached the canary arm.
    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("online_enabled").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(stats.get("online_trainer_alive").and_then(JsonValue::as_bool), Some(false));
    assert!(stat(&stats, "online_trainer_panics") >= 1);
    assert_eq!(stat(&stats, "online_publishes"), 0);
    assert_eq!(stat(&stats, "arm1_version"), 1);

    // A second publish fails fast (no 30 s timeout wait) and serving
    // still answers afterwards.
    let t0 = std::time::Instant::now();
    let (status, _) = request(addr, "POST", "/v1/admin/publish", "");
    assert_eq!(status, 503);
    assert!(t0.elapsed() < Duration::from_secs(10), "dead-trainer publish must fail fast");
    let (status, _) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);

    let (status, _) = request(addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 200);
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();
}
