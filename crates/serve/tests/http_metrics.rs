//! HTTP-level pins for the observability endpoints.
//!
//! Two contracts:
//!
//! * **One vocabulary.**  `/v1/stats` and `GET /metrics` are generated
//!   from the same registry, so every flat stats key must appear in the
//!   exposition as `irs_<key>` (or `irs_<key>_info` for text
//!   annotations) — the drift the old hand-written serialiser allowed
//!   is now a test failure.
//! * **Valid exposition.**  `/metrics` is Prometheus text format 0.0.4:
//!   every family has exactly one `# HELP` and one `# TYPE` line,
//!   histogram series carry cumulative `_bucket` counts ending in a
//!   `+Inf` bucket that equals `_count`, and no family is emitted
//!   twice.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;

use irs_core::{InfluenceRecommender, NextQuery};
use irs_data::ItemId;
use irs_serve::{
    BatchPolicy, Engine, HttpClient, HttpResponse, HttpServer, JsonValue, ModelSnapshot,
    ServerConfig, SnapshotRegistry,
};

/// Deterministic model: always proposes the objective.
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

/// One `Connection: close` round trip.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> HttpResponse {
    HttpClient::new(addr, false).request(method, path, body).expect("HTTP request")
}

struct TestServer {
    addr: SocketAddr,
    engine: Arc<Engine>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn boot() -> Self {
        let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
            "metrics-test",
            Box::new(EchoObjective),
            16,
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
        let thread = std::thread::spawn(move || server.run());
        TestServer { addr, engine, thread: Some(thread) }
    }

    /// Drive a few full sessions so counters, windows, stage histograms
    /// and latency series all have observations.
    fn drive_traffic(&self) {
        for user in 0..4usize {
            let created = request(
                self.addr,
                "POST",
                "/v1/session",
                &format!("{{\"user\": {user}, \"history\": [1, 2], \"objective\": 5}}"),
            );
            assert_eq!(created.status, 200, "create failed: {}", created.body);
            let sid = JsonValue::parse(&created.body)
                .unwrap()
                .get("session_id")
                .and_then(JsonValue::as_usize)
                .expect("session id");
            let next = request(self.addr, "POST", &format!("/v1/session/{sid}/next"), "");
            assert_eq!(next.status, 200, "next failed: {}", next.body);
            let item = JsonValue::parse(&next.body)
                .unwrap()
                .get("item")
                .and_then(JsonValue::as_usize)
                .unwrap();
            let fb = request(
                self.addr,
                "POST",
                &format!("/v1/session/{sid}/feedback"),
                &format!("{{\"item\": {item}, \"accepted\": true}}"),
            );
            assert_eq!(fb.status, 200, "feedback failed: {}", fb.body);
        }
    }

    fn shutdown(mut self) {
        assert_eq!(request(self.addr, "POST", "/v1/admin/shutdown", "").status, 200);
        self.thread.take().unwrap().join().expect("server thread").expect("server run");
        self.engine.shutdown();
    }
}

/// Parse exposition text into family → (type, sample lines), asserting
/// line-level wellformedness along the way.
fn parse_exposition(text: &str) -> BTreeMap<String, (String, Vec<String>)> {
    let mut families: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    let mut helped: BTreeSet<String> = BTreeSet::new();
    for line in text.lines() {
        assert!(!line.is_empty(), "exposition must not contain blank lines");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP family name").to_string();
            assert!(helped.insert(name.clone()), "duplicate HELP for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE family name").to_string();
            let kind = parts.next().expect("TYPE kind").to_string();
            assert!(["counter", "gauge", "histogram"].contains(&kind.as_str()), "{line}");
            assert!(helped.contains(&name), "TYPE before HELP for {name}");
            let previous = families.insert(name.clone(), (kind, Vec::new()));
            assert!(previous.is_none(), "duplicate TYPE for {name}");
        } else {
            let metric = line.split([' ', '{']).next().expect("sample name");
            assert!(metric.starts_with("irs_"), "unprefixed sample {line:?}");
            let family = families
                .iter_mut()
                .rev()
                .find(|(name, _)| {
                    metric == name.as_str()
                        || ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|s| metric == format!("{name}{s}"))
                })
                .unwrap_or_else(|| panic!("sample {metric} has no TYPE header"));
            family.1 .1.push(line.to_string());
        }
    }
    families
}

#[test]
fn stats_and_metrics_share_one_vocabulary_and_the_exposition_is_wellformed() {
    let server = TestServer::boot();
    server.drive_traffic();

    let stats = request(server.addr, "GET", "/v1/stats", "");
    assert_eq!(stats.status, 200);
    let metrics = request(server.addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.content_type.to_ascii_lowercase().contains("text/plain; version=0.0.4"),
        "exposition content type missing: {:?}",
        metrics.content_type
    );

    // --- vocabulary: every flat stats key is a registry family.
    let stats = JsonValue::parse(&stats.body).expect("stats JSON");
    let JsonValue::Obj(entries) = &stats else { panic!("stats must be an object") };
    let families = parse_exposition(&metrics.body);
    assert!(entries.len() >= 40, "suspiciously few stats keys: {}", entries.len());
    for (key, _) in entries {
        assert!(
            families.contains_key(&format!("irs_{key}"))
                || families.contains_key(&format!("irs_{key}_info")),
            "stats key {key:?} has no matching /metrics family"
        );
    }

    // --- the subsystems the issue names are all covered.
    for key in [
        "irs_requests",
        "irs_cache_hits",
        "irs_sessions",
        "irs_evicted_sessions",
        "irs_online_folds",
        "irs_online_trainer_panics",
        "irs_arm0_requests",
        "irs_arm0_window_requests",
        "irs_arm1_window_acceptance_rate",
        "irs_arm0_latency_us",
        "irs_stage_latency_us",
    ] {
        assert!(families.contains_key(key), "family {key} missing from /metrics");
    }

    // --- traffic actually registered: lifetime and windowed counters
    // agree while everything is recent.
    let flat: BTreeMap<&str, &JsonValue> = entries.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let as_u64 = |k: &str| flat[k].as_f64().unwrap_or_else(|| panic!("{k} not numeric")) as u64;
    assert!(as_u64("requests") >= 4, "scheduler saw the traffic");
    let arm_requests = as_u64("arm0_requests") + as_u64("arm1_requests");
    let arm_window = as_u64("arm0_window_requests") + as_u64("arm1_window_requests");
    assert!(arm_requests >= 4, "per-arm lifetime counters counted the traffic");
    assert_eq!(arm_window, arm_requests, "fresh traffic must be fully inside the window");

    // --- histogram triples: cumulative buckets ending at +Inf == count.
    let mut histograms = 0;
    for (name, (kind, lines)) in &families {
        if kind != "histogram" {
            continue;
        }
        histograms += 1;
        // Group bucket lines by label set (one labeled family holds
        // several series).
        let mut by_series: BTreeMap<String, (Vec<u64>, Option<u64>)> = BTreeMap::new();
        for line in lines {
            let (metric_and_labels, value) = line.rsplit_once(' ').expect("sample value");
            let value: u64 = value.parse().unwrap_or_else(|_| panic!("non-integer {line}"));
            if let Some(rest) = metric_and_labels.strip_prefix(&format!("{name}_bucket{{")) {
                let labels = rest.rsplit_once("le=").expect("le label").0.to_string();
                let series = by_series.entry(labels).or_default();
                series.0.push(value);
                if rest.contains("le=\"+Inf\"") {
                    assert!(series.1.is_none(), "duplicate +Inf bucket in {name}");
                    series.1 = Some(value);
                }
            } else if let Some(rest) = metric_and_labels.strip_prefix(&format!("{name}_count")) {
                let labels = rest.trim_start_matches('{').trim_end_matches('}');
                // Bucket keys keep the trailing comma that preceded the
                // `le` label; rebuild the same shape here.
                let key = if labels.is_empty() { String::new() } else { format!("{labels},") };
                let series =
                    by_series.get(&key).unwrap_or_else(|| panic!("{name}_count without buckets"));
                assert_eq!(series.1, Some(value), "{name} +Inf bucket must equal _count");
            }
        }
        for (labels, (buckets, inf)) in by_series {
            assert!(inf.is_some(), "{name}{{{labels}}} has no +Inf bucket");
            assert!(
                buckets.windows(2).all(|w| w[0] <= w[1]),
                "{name}{{{labels}}} buckets are not cumulative"
            );
        }
    }
    assert!(histograms >= 3, "latency + stage histograms expected, saw {histograms}");

    // --- stage spans observed real requests end to end.
    let stage_count_total: u64 = families["irs_stage_latency_us"]
        .1
        .iter()
        .filter(|l| l.starts_with("irs_stage_latency_us_count"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert!(stage_count_total >= 4 * 4, "every stage records per request: {stage_count_total}");
    for stage in ["queue", "assemble", "forward", "encode"] {
        let observed: u64 = families["irs_stage_latency_us"]
            .1
            .iter()
            .filter(|l| {
                l.starts_with("irs_stage_latency_us_count")
                    && l.contains(&format!("stage=\"{stage}\""))
            })
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert!(observed >= 4, "stage {stage} never observed");
    }

    server.shutdown();
}
