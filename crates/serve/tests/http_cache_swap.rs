//! HTTP-level context-cache tests: a session served through the full
//! stack (frontend → session store → scheduler → cached model path)
//! must hit its per-session cache on repeat steps — including a long
//! session past the model window, whose window start hops — and a
//! snapshot hot-swap mid-session must *invalidate* the cache: the next
//! answer comes from the new weights, never from rows encoded under the
//! old ones.  Expected answers are computed against the in-process
//! models' cold scalar path, which the cached path is bitwise-pinned to.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use irs_core::{EncodingLayout, InfluenceRecommender, Irn, IrnConfig, NeuralTrainConfig};
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

fn stat(stats: &JsonValue, key: &str) -> usize {
    stats.get(key).and_then(JsonValue::as_usize).unwrap_or_else(|| panic!("missing stat {key}"))
}

/// A small append-layout IRN configuration: a 9-item context window
/// (`max_len − 1`), so the window start hops by `H = 4`.
fn append_config() -> IrnConfig {
    IrnConfig {
        dim: 8,
        user_dim: 4,
        layers: 1,
        heads: 2,
        max_len: 10,
        layout: EncodingLayout::AppendOnly,
        train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        ..Default::default()
    }
}

/// A running frontend whose `/v1/admin/swap` loads snapshots of the
/// same architecture.
struct Served {
    addr: SocketAddr,
    engine: Arc<Engine>,
    thread: JoinHandle<std::io::Result<()>>,
}

fn serve(arch: &IrnArchitecture, snapshot: &std::path::Path) -> Served {
    let initial = arch.load_snapshot(snapshot.to_str().unwrap()).unwrap();
    let registry = Arc::new(SnapshotRegistry::new(initial));
    let engine = Arc::new(Engine::start(
        registry,
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
        ServerConfig { session_shards: 4, context_cache_mb: 8, ..Default::default() },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run());
    Served { addr, engine, thread }
}

impl Served {
    fn shutdown(self) {
        let (status, _) = request(self.addr, "POST", "/v1/admin/shutdown", "");
        assert_eq!(status, 200);
        self.thread.join().expect("server thread").expect("server run");
        self.engine.shutdown();
    }
}

#[test]
fn hot_swap_invalidates_session_caches() {
    let dataset = generate(&SynthConfig::tiny(0x5a1)).dataset;
    let split = split_dataset(&dataset, &SplitConfig::small());
    let n = dataset.num_items;
    let config = append_config();
    let model_a = Irn::fit(&split.train, &[], n, dataset.num_users, &config, None);
    // Same architecture, different training seed: genuinely different
    // weights behind the same loader.
    let config_b = IrnConfig {
        train: NeuralTrainConfig { epochs: 1, seed: 0x5eed, ..Default::default() },
        ..config.clone()
    };
    let model_b = Irn::fit(&split.train, &[], n, dataset.num_users, &config_b, None);

    let dir = std::env::temp_dir().join("irs_serve_cache_swap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("a.irsp");
    let path_b = dir.join("b.irsp");
    model_a.save(std::fs::File::create(&path_a).unwrap()).unwrap();
    model_b.save(std::fs::File::create(&path_b).unwrap()).unwrap();

    // Pick an objective whose first three proposals (two on A with a
    // growing path, the third on B) stay distinct from the objective, so
    // the session is still open when the post-swap step runs.
    let user = 1usize;
    let history = [0usize, 5];
    let (objective, i1, i2, i3) = (0..n)
        .filter(|obj| !history.contains(obj))
        .find_map(|obj| {
            let i1 = model_a.next_item(user, &history, obj, &[]).filter(|&i| i != obj)?;
            let i2 = model_a.next_item(user, &history, obj, &[i1]).filter(|&i| i != obj)?;
            let i3 = model_b.next_item(user, &history, obj, &[i1, i2]).filter(|&i| i != obj)?;
            Some((obj, i1, i2, i3))
        })
        .expect("no objective keeps the session open for three steps");

    let arch = IrnArchitecture { num_items: n, num_users: dataset.num_users, config };
    let served = serve(&arch, &path_a);
    let addr = served.addr;

    let body = format!(
        "{{\"user\": {user}, \"history\": [{}], \"objective\": {objective}}}",
        history.map(|i| i.to_string()).join(",")
    );
    let (status, created) = request(addr, "POST", "/v1/session", &body);
    assert_eq!(status, 200, "create failed: {created}");
    let sid = created.get("session_id").and_then(JsonValue::as_usize).expect("session id");
    let next_url = format!("/v1/session/{sid}/next");
    let feedback_url = format!("/v1/session/{sid}/feedback");

    // Step 1: a fresh cache is primed (miss) and parked.
    let (status, next) = request(addr, "POST", &next_url, "");
    assert_eq!(status, 200);
    assert_eq!(next.get("item").and_then(JsonValue::as_usize), Some(i1), "step 1 diverged from A");
    let (status, _) =
        request(addr, "POST", &feedback_url, &format!("{{\"item\": {i1}, \"accepted\": true}}"));
    assert_eq!(status, 200);

    // Step 2: the parked cache's prefix extends — a hit.
    let (status, next) = request(addr, "POST", &next_url, "");
    assert_eq!(status, 200);
    assert_eq!(next.get("item").and_then(JsonValue::as_usize), Some(i2), "step 2 diverged from A");
    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    assert!(stat(&stats, "cache_hits") >= 1, "step 2 must hit the parked cache: {stats}");
    assert!(stat(&stats, "cache_misses") >= 1, "step 1 must have primed cold: {stats}");
    assert!(stat(&stats, "cache_resident_bytes") > 0, "a cache must be parked: {stats}");
    assert_eq!(stat(&stats, "cache_invalidations"), 0, "no swap has happened yet: {stats}");
    let (status, _) =
        request(addr, "POST", &feedback_url, &format!("{{\"item\": {i2}, \"accepted\": true}}"));
    assert_eq!(status, 200);

    // Hot-swap to B mid-session.
    let (status, swap) = request(
        addr,
        "POST",
        "/v1/admin/swap",
        &format!("{{\"path\": {}}}", JsonValue::from(path_b.to_str().unwrap())),
    );
    assert_eq!(status, 200, "swap failed: {swap}");
    assert_eq!(swap.get("version").and_then(JsonValue::as_usize), Some(2));

    // Step 3: the parked cache's generation is stale — it must be
    // discarded and the answer must come from B's weights.
    let (status, next) = request(addr, "POST", &next_url, "");
    assert_eq!(status, 200);
    assert_eq!(
        next.get("item").and_then(JsonValue::as_usize),
        Some(i3),
        "post-swap step must answer from the new snapshot, not stale cached rows"
    );
    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    assert!(stat(&stats, "cache_invalidations") >= 1, "swap must invalidate the cache: {stats}");

    served.shutdown();
}

/// A session whose history already exceeds the 9-item window keeps its
/// cache hitting: the window start hops once per `H = 4` steps, so only
/// the priming step and the hops rebuild (a sliding window would miss on
/// every step).
#[test]
fn long_sessions_keep_hitting_between_window_hops() {
    let dataset = generate(&SynthConfig::tiny(0x5a2)).dataset;
    let split = split_dataset(&dataset, &SplitConfig::small());
    let n = dataset.num_items;
    let config = append_config();
    let hop = (config.max_len - 1) / 2;
    let steps = 2 * hop;
    let model = Irn::fit(&split.train, &[], n, dataset.num_users, &config, None);

    let dir = std::env::temp_dir().join("irs_serve_cache_hop_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.irsp");
    model.save(std::fs::File::create(&path).unwrap()).unwrap();

    // A history past the window, and an objective the model does not
    // propose within `steps` accepted steps, so the session stays open.
    let user = 1usize;
    let history: Vec<usize> = (0..config.max_len + 2).collect();
    let objective = (0..n)
        .filter(|obj| !history.contains(obj))
        .find(|&obj| {
            let mut path = Vec::new();
            (0..steps).all(|_| match model.next_item(user, &history, obj, &path) {
                Some(item) if item != obj => {
                    path.push(item);
                    true
                }
                _ => false,
            })
        })
        .expect("no objective keeps the session open long enough");

    let arch = IrnArchitecture { num_items: n, num_users: dataset.num_users, config };
    let served = serve(&arch, &path);
    let addr = served.addr;
    let history_json: Vec<String> = history.iter().map(usize::to_string).collect();
    let body = format!(
        "{{\"user\": {user}, \"history\": [{}], \"objective\": {objective}, \"max_len\": {steps}}}",
        history_json.join(",")
    );
    let (status, created) = request(addr, "POST", "/v1/session", &body);
    assert_eq!(status, 200, "create failed: {created}");
    let sid = created.get("session_id").and_then(JsonValue::as_usize).expect("session id");
    let next_url = format!("/v1/session/{sid}/next");
    let feedback_url = format!("/v1/session/{sid}/feedback");

    let (_, before) = request(addr, "GET", "/v1/stats", "");
    let mut path = Vec::new();
    for step in 0..steps {
        let (status, next) = request(addr, "POST", &next_url, "");
        assert_eq!(status, 200, "step {step}: {next}");
        let item = next.get("item").and_then(JsonValue::as_usize).expect("proposed item");
        assert_eq!(Some(item), model.next_item(user, &history, objective, &path), "step {step}");
        let (status, _) = request(
            addr,
            "POST",
            &feedback_url,
            &format!("{{\"item\": {item}, \"accepted\": true}}"),
        );
        assert_eq!(status, 200);
        path.push(item);
    }
    let (_, after) = request(addr, "GET", "/v1/stats", "");
    let hits = stat(&after, "cache_hits") - stat(&before, "cache_hits");
    let floor = steps - steps.div_ceil(hop) - 1;
    assert!(
        hits >= floor,
        "{hits} cache hits over {steps} long-session steps, expected >= {floor}"
    );

    served.shutdown();
}
