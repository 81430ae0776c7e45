//! Binary-level integration tests for the real-data CLI path and the
//! serving subsystem: `irs train --ratings` on the checked-in fixtures,
//! then `irs serve` driven over real TCP — create a session, request
//! items, hot-swap the snapshot mid-run, and assert a clean exit.
//!
//! This is the same dance the CI server-smoke step performs with curl;
//! running it inside `cargo test` keeps the protocol pinned by tier-1.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use irs_serve::{HttpClient, JsonValue};

fn fixture(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", name].iter().collect();
    path.to_str().unwrap().to_string()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("irs_serve_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Train a tiny model on the MovieLens fixture; returns the IRSP path.
fn train_fixture_model() -> PathBuf {
    let model = scratch("fixture.irsp");
    let output = Command::new(env!("CARGO_BIN_EXE_irs"))
        .args([
            "train",
            "--ratings",
            &fixture("mini_ratings.dat"),
            "--movies",
            &fixture("mini_movies.dat"),
            "--epochs",
            "1",
            "--model-out",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("run irs train");
    assert!(output.status.success(), "train failed:\n{}", String::from_utf8_lossy(&output.stderr));
    let bytes = std::fs::read(&model).expect("model file written");
    assert_eq!(&bytes[..4], b"IRSP", "train must write an IRSP snapshot");
    model
}

/// One `Connection: close` round trip; returns (status, parsed body).
fn request(port: u16, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    HttpClient::new(addr, false).json(method, path, body).expect("request to irs serve")
}

#[test]
fn train_then_serve_with_hot_swap_over_tcp() {
    let model = train_fixture_model();

    // Port 0 = ephemeral; the server prints the bound address on stderr.
    let mut server = Command::new(env!("CARGO_BIN_EXE_irs"))
        .args([
            "serve",
            "--ratings",
            &fixture("mini_ratings.dat"),
            "--movies",
            &fixture("mini_movies.dat"),
            "--model",
            model.to_str().unwrap(),
            "--port",
            "0",
            "--max-batch",
            "8",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn irs serve");
    let stderr = server.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let port: u16 = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stderr");
        if let Some(at) = line.find("http://127.0.0.1:") {
            let rest = &line[at + "http://127.0.0.1:".len()..];
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            break digits.parse().expect("parse port");
        }
    };
    // Drain the rest of stderr in the background so the server never
    // blocks on a full pipe.
    let drain = std::thread::spawn(move || for _ in lines {});

    let (status, health) = request(port, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz: {health}");
    assert_eq!(health.get("version").and_then(JsonValue::as_usize), Some(1));

    // Session protocol: create → next → accept feedback.
    let (status, created) = request(
        port,
        "POST",
        "/v1/session",
        "{\"user\": 0, \"history\": [0, 1, 2], \"objective\": 7, \"max_len\": 3}",
    );
    assert_eq!(status, 200, "create: {created}");
    let sid = created.get("session_id").and_then(JsonValue::as_usize).expect("session id");

    let (status, next) = request(port, "POST", &format!("/v1/session/{sid}/next"), "");
    assert_eq!(status, 200, "next: {next}");
    let item = next.get("item").and_then(JsonValue::as_usize).expect("proposed item");
    let (status, fb) = request(
        port,
        "POST",
        &format!("/v1/session/{sid}/feedback"),
        &format!("{{\"item\": {item}, \"accepted\": true}}"),
    );
    assert_eq!(status, 200, "feedback: {fb}");

    // Mid-run hot-swap to the same file: version bumps, serving goes on.
    let (status, swap) = request(
        port,
        "POST",
        "/v1/admin/swap",
        &format!("{{\"path\": \"{}\"}}", model.to_str().unwrap()),
    );
    assert_eq!(status, 200, "swap: {swap}");
    assert_eq!(swap.get("version").and_then(JsonValue::as_usize), Some(2));
    let (status, next2) = request(port, "POST", &format!("/v1/session/{sid}/next"), "");
    assert_eq!(status, 200, "next after swap: {next2}");

    // A mismatched snapshot is rejected without killing the server.
    let bogus = scratch("bogus.irsp");
    std::fs::write(&bogus, b"IRSPnot-a-real-file").unwrap();
    let (status, _) = request(
        port,
        "POST",
        "/v1/admin/swap",
        &format!("{{\"path\": \"{}\"}}", bogus.to_str().unwrap()),
    );
    assert_eq!(status, 400);

    let (status, stats) = request(port, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(stats.get("requests").and_then(JsonValue::as_usize).unwrap() >= 2, "stats: {stats}");
    assert_eq!(stats.get("snapshot_version").and_then(JsonValue::as_usize), Some(2));

    // Clean shutdown: 200 on the route, exit code 0 from the process.
    let (status, _) = request(port, "POST", "/v1/admin/shutdown", "");
    assert_eq!(status, 200);
    let exit = server.wait().expect("wait for server");
    assert!(exit.success(), "server must exit cleanly, got {exit:?}");
    drain.join().unwrap();
}
