//! In-process HTTP smoke test: boot the full serving stack (engine +
//! registry + frontend) on an ephemeral port, drive a session through
//! create → next → feedback to completion, hot-swap the snapshot
//! mid-run, and shut down cleanly.  The CI workflow repeats this dance
//! against the release `irs serve` binary; this test keeps the protocol
//! pinned inside `cargo test`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use irs_core::{Irn, IrnConfig, NeuralTrainConfig};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_serve::{
    BatchPolicy, Engine, HttpClient, HttpServer, IrnArchitecture, JsonValue, ServerConfig,
    SnapshotLoader, SnapshotRegistry,
};

/// One `Connection: close` round trip; returns (status, parsed body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
    HttpClient::new(addr, false).json(method, path, body).expect("HTTP request")
}

#[test]
fn full_protocol_with_mid_run_hot_swap() {
    // Tiny world + model.
    let dataset = generate(&SynthConfig::tiny(0x77ee)).dataset;
    let split = split_dataset(&dataset, &SplitConfig::small());
    let train = NeuralTrainConfig { epochs: 1, ..Default::default() };
    let config = IrnConfig {
        dim: 8,
        user_dim: 4,
        layers: 1,
        heads: 2,
        max_len: 10,
        train,
        ..Default::default()
    };
    let model = Irn::fit(&split.train, &[], dataset.num_items, dataset.num_users, &config, None);

    // Save a snapshot file for the hot-swap round.
    let dir = std::env::temp_dir().join("irs_serve_http_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("retrained.irsp");
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
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // Health.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(health.get("version").and_then(JsonValue::as_usize), Some(1));

    // Create a session.
    let tc = &split.test[0];
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

    // Drive the session: next → accept, swapping the snapshot after the
    // first step.  The protocol must keep working across the swap.
    let mut accepted = 0usize;
    let mut done = false;
    let mut swapped = false;
    while !done {
        let (status, next) = request(addr, "POST", &format!("/v1/session/{sid}/next"), "");
        assert_eq!(status, 200, "next failed: {next}");
        if next.get("done").and_then(JsonValue::as_bool) == Some(true) {
            break;
        }
        let item = next.get("item").and_then(JsonValue::as_usize).expect("item");
        assert!(item < dataset.num_items, "item {item} outside catalogue");
        let (status, fb) = request(
            addr,
            "POST",
            &format!("/v1/session/{sid}/feedback"),
            &format!("{{\"item\": {item}, \"accepted\": true}}"),
        );
        assert_eq!(status, 200, "feedback failed: {fb}");
        accepted += 1;
        done = fb.get("done").and_then(JsonValue::as_bool).unwrap();
        if !swapped {
            // Mid-run hot-swap: version bumps, serving continues.
            let (status, swap) = request(
                addr,
                "POST",
                "/v1/admin/swap",
                &format!("{{\"path\": {}}}", JsonValue::from(snap_path.to_str().unwrap())),
            );
            assert_eq!(status, 200, "swap failed: {swap}");
            assert_eq!(swap.get("version").and_then(JsonValue::as_usize), Some(2));
            swapped = true;
        }
        assert!(accepted <= 6, "session exceeded its max_len budget");
    }
    assert!(accepted > 0, "session never accepted an item");
    assert!(swapped, "hot-swap round never ran");

    // Stats reflect the traffic and the swap.
    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(stats.get("requests").and_then(JsonValue::as_usize).unwrap() >= accepted);
    assert_eq!(stats.get("snapshot_version").and_then(JsonValue::as_usize), Some(2));
    assert_eq!(stats.get("sessions").and_then(JsonValue::as_usize), Some(1));

    // Error paths: unknown session, malformed JSON, bad swap path.
    let (status, _) = request(addr, "POST", "/v1/session/99999/next", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST", "/v1/session", "{not json");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/v1/admin/swap", "{\"path\": \"/no/such/file\"}");
    assert_eq!(status, 400);
    // Out-of-catalogue feedback is rejected at the door (it would
    // otherwise enter the virtual path and panic an embedding lookup on
    // the next proposal).
    let (status, _) = request(
        addr,
        "POST",
        &format!("/v1/session/{sid}/feedback"),
        &format!("{{\"item\": {}, \"accepted\": false}}", dataset.num_items + 3),
    );
    assert_eq!(status, 400);
    // Wrong verb on a known route is 405; a typo'd route is 404.
    let (status, _) = request(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "POST", "/v1/bogus", "");
    assert_eq!(status, 404);
    // Out-of-catalogue objective is rejected at the door.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/session",
        &format!("{{\"user\": 0, \"history\": [], \"objective\": {}}}", dataset.num_items + 7),
    );
    assert_eq!(status, 400);

    // Delete the session and shut down cleanly.
    let (status, outcome) = request(addr, "DELETE", &format!("/v1/session/{sid}"), "");
    assert_eq!(status, 200);
    assert_eq!(
        outcome.get("accepted").and_then(JsonValue::as_arr).map(<[JsonValue]>::len),
        Some(accepted)
    );
    let (status, bye) = request(addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(bye.get("ok").and_then(JsonValue::as_bool), Some(true));
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();
}

#[test]
fn idle_sessions_are_evicted_by_the_ttl_sweeper() {
    let dataset = generate(&SynthConfig::tiny(0x88ff)).dataset;
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
    let dir = std::env::temp_dir().join("irs_serve_ttl_test");
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
        registry,
        BatchPolicy { max_batch: 4, workers: 1, queue_capacity: 16 },
    ));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        None,
        ServerConfig {
            // Generous TTL: the assert below (live before idling) must
            // not flake when this thread is descheduled on a busy 1-core
            // runner between session creation and the check.
            session_ttl: Some(Duration::from_secs(1)),
            session_shards: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let (status, created) =
        request(addr, "POST", "/v1/session", "{\"user\": 0, \"history\": [0], \"objective\": 1}");
    assert_eq!(status, 200, "create failed: {created}");
    let sid = created.get("session_id").and_then(JsonValue::as_usize).expect("session id");
    assert_eq!(handle.live_sessions(), 1);

    // Abandon the session for several TTLs + sweeper intervals.
    std::thread::sleep(Duration::from_millis(3000));
    let (status, _) = request(addr, "GET", &format!("/v1/session/{sid}"), "");
    assert_eq!(status, 404, "abandoned session must be evicted");
    assert_eq!(handle.live_sessions(), 0);
    assert!(handle.evicted_sessions() >= 1);
    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(stats.get("evicted_sessions").and_then(JsonValue::as_usize).unwrap() >= 1);

    let (status, _) = request(addr, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 200);
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();
}
