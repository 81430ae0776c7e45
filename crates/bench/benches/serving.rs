//! Serving-subsystem throughput: concurrent interactive sessions driven
//! through the `irs_serve` micro-batching engine vs the batch-size-1
//! configuration (per-session scalar `next_item` calls).
//!
//! One iteration replays a fixed script of concurrent sessions (passive
//! user, every proposal accepted) to completion; the ratio of the two
//! medians is the serving speedup `serve_load --compare` demonstrates at
//! load-test scale.  CI runs this in smoke mode with
//! `CRITERION_JSON=BENCH_serving.json` so the serving-perf trajectory
//! accumulates as a build artifact next to the inference bench.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use irs_bench::harness::{DatasetKind, Harness, HarnessConfig};
use irs_core::{EncodingLayout, InteractiveSession, Irn, IrnConfig, NeuralTrainConfig};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::ItemId;
use irs_serve::{
    BatchPolicy, Engine, FeedbackEvent, HttpClient, HttpServer, IrnOnlineLearner, JsonValue,
    ModelSnapshot, OnlineConfig, OnlineHandle, OnlineLearner, ServerConfig, SnapshotRegistry,
};
use std::hint::black_box;

const SESSIONS: usize = 32;
const STEPS: usize = 3;

struct Script {
    user: usize,
    history: Vec<ItemId>,
    objective: ItemId,
}

/// Drive every script to completion; `engine` chooses scheduled vs
/// scalar scoring.  Returns total proposals (consumed by `black_box`).
fn replay(
    scripts: &[Script],
    registry: &Arc<SnapshotRegistry>,
    engine: Option<&Arc<Engine>>,
) -> usize {
    let snapshot = registry.current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let engine = engine.cloned();
                let snapshot = &snapshot;
                scope.spawn(move || {
                    let mut session = InteractiveSession::new(
                        script.user,
                        script.history.clone(),
                        script.objective,
                        STEPS,
                        2,
                    );
                    let mut proposals = 0usize;
                    while !session.is_done() {
                        let answer = match &engine {
                            Some(engine) => engine.propose(&session),
                            None => {
                                let q = session.query();
                                snapshot.model.next_item(q.user, q.history, q.objective, q.path)
                            }
                        };
                        proposals += 1;
                        match answer {
                            Some(item) => session.record(item, true),
                            None => session.record_give_up(),
                        }
                    }
                    proposals
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread")).sum()
    })
}

/// One request that must answer 200; returns the parsed body.
fn call(client: &mut HttpClient, method: &str, path: &str, body: &str) -> JsonValue {
    let (status, value) = client.json(method, path, body).expect("HTTP request");
    assert_eq!(status, 200, "request failed: {value}");
    value
}

/// Drive every script to completion over real sockets, one client
/// thread per script.  `keep_alive: false` reconnects for every request
/// (`Connection: close`) — the v1 thread-per-socket cost model;
/// `keep_alive: true` reuses one connection for the client's whole
/// traffic, exercising the v2 keep-alive pool's warm path.  Returns total
/// requests issued.
fn http_replay(addr: SocketAddr, scripts: &[Script], keep_alive: bool) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(move || {
                    let mut conn = HttpClient::new(addr, keep_alive);
                    let history: Vec<String> =
                        script.history.iter().map(ToString::to_string).collect();
                    let body = format!(
                        "{{\"user\": {}, \"history\": [{}], \"objective\": {}}}",
                        script.user,
                        history.join(","),
                        script.objective
                    );
                    let mut requests = 1usize;
                    let created = call(&mut conn, "POST", "/v1/session", &body);
                    let sid = created
                        .get("session_id")
                        .and_then(JsonValue::as_usize)
                        .expect("session id");
                    loop {
                        let next = call(&mut conn, "POST", &format!("/v1/session/{sid}/next"), "");
                        requests += 1;
                        if next.get("done").and_then(JsonValue::as_bool) == Some(true) {
                            break;
                        }
                        let item = next.get("item").and_then(JsonValue::as_usize).expect("item");
                        let fb = call(
                            &mut conn,
                            "POST",
                            &format!("/v1/session/{sid}/feedback"),
                            &format!("{{\"item\": {item}, \"accepted\": true}}"),
                        );
                        requests += 1;
                        if fb.get("done").and_then(JsonValue::as_bool) == Some(true) {
                            break;
                        }
                    }
                    call(&mut conn, "DELETE", &format!("/v1/session/{sid}"), "");
                    requests + 1
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    })
}

fn bench_serving(c: &mut Criterion) {
    let h = Harness::build(HarnessConfig::quick(DatasetKind::MovielensLike));
    // Timing is weight-independent; one epoch keeps setup short.
    let mut cfg = h.irn_config();
    cfg.train.epochs = 1;
    let irn = h.train_irn_with(&cfg);
    let (test, objectives) = h.test_slice();
    let scripts: Vec<Script> = (0..SESSIONS)
        .map(|s| {
            let tc = &test[s % test.len()];
            Script {
                user: tc.user,
                history: tc.history.clone(),
                objective: objectives[s % objectives.len()],
            }
        })
        .collect();
    let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
        "bench",
        Box::new(irn),
        h.dataset.num_items,
    )));

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.bench_function(format!("scalar_b1_{SESSIONS}sessions"), |b| {
        b.iter(|| black_box(replay(&scripts, &registry, None)))
    });
    // The engine persists across iterations (a server outlives requests);
    // each iteration replays the same concurrent session mix through it.
    let engine = Arc::new(Engine::start(
        registry.clone(),
        BatchPolicy { max_batch: 16, workers: 2, queue_capacity: 256 },
    ));
    group.bench_function(format!("microbatch_16_{SESSIONS}sessions"), |b| {
        b.iter(|| black_box(replay(&scripts, &registry, Some(&engine))))
    });

    // The same traffic over real sockets: close-per-request vs one
    // keep-alive connection per client, both through the v2 worker
    // pool.  The ratio is the connection-reuse win `serve_load
    // --keep-alive` demonstrates at load-test scale.
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        None,
        ServerConfig { max_len: STEPS, patience: 2, ..Default::default() },
    )
    .expect("bind HTTP frontend");
    let addr = server.local_addr().expect("local addr");
    let server_thread = std::thread::spawn(move || server.run());
    group.bench_function(format!("http_close_{SESSIONS}sessions"), |b| {
        b.iter(|| black_box(http_replay(addr, &scripts, false)))
    });
    group.bench_function(format!("http_keepalive_{SESSIONS}sessions"), |b| {
        b.iter(|| black_box(http_replay(addr, &scripts, true)))
    });
    group.finish();
    call(&mut HttpClient::new(addr, false), "POST", "/v1/admin/shutdown", "");
    server_thread.join().expect("server thread").expect("server run");
    engine.shutdown();

    let results = criterion::recorded_results();
    let median = |name: &str| -> Option<f64> {
        results.iter().find(|(n, _)| n.contains(name)).map(|(_, ns)| *ns)
    };
    if let (Some(scalar), Some(batched)) = (median("scalar_b1"), median("microbatch_16")) {
        let speedup = scalar / batched;
        println!(
            "serving speedup at {SESSIONS} concurrent sessions: {speedup:.2}x \
             (micro-batched over batch-size-1)"
        );
        if std::env::var("IRS_BENCH_ASSERT").as_deref() == Ok("1") {
            assert!(
                speedup >= 2.0,
                "micro-batched serving speedup {speedup:.2}x below the 2x acceptance threshold"
            );
        }
    }
    if let (Some(close), Some(keep)) = (median("http_close"), median("http_keepalive")) {
        println!(
            "keep-alive win at {SESSIONS} concurrent HTTP clients: {:.2}x \
             (connection reuse over close-per-request)",
            close / keep
        );
    }
}

/// Session lengths for the long-session latency sweep.
const LONG_SESSION_LENGTHS: [usize; 3] = [8, 64, 256];

/// Per-step serve latency as a session grows: the incremental
/// per-session cache vs the cold full re-encode, at context lengths 8,
/// 64 and 256.
///
/// `cached_step_T{len}` measures the steady-state *hit*: the parked
/// cache's stored prefix already covers the append window, so a step is
/// prefix validation plus the output projection — no re-encoding.  (The
/// append-a-token variant adds one `infer_append_row`; the hit is the
/// dominant shape because every repeated `next` without feedback replays
/// the same context.)  `cold_step_T{len}` is what the same step cost
/// before the cache existed: a full `O(len)`-token re-encode with
/// `O(len²)` attention.  The cached curve must stay ~flat in `len`
/// (that is the O(1)-step claim) while the cold curve grows
/// quadratically, which is the win the `--context-cache-mb` budget buys
/// at serve time.
fn bench_long_session(c: &mut Criterion) {
    // Timing is weight-independent; a tiny synthetic catalogue with one
    // training epoch keeps setup short.  `max_len` must cover the
    // longest context plus the objective slot, otherwise the hopping
    // append window cuts the longer contexts and the sweep times the
    // window instead of the session length.
    let dataset = generate(&SynthConfig::tiny(0x10f6)).dataset;
    let split = split_dataset(&dataset, &SplitConfig::small());
    let n = dataset.num_items;
    let max = LONG_SESSION_LENGTHS[LONG_SESSION_LENGTHS.len() - 1];
    let config = IrnConfig {
        dim: 16,
        user_dim: 4,
        layers: 1,
        heads: 2,
        max_len: max + 4,
        layout: EncodingLayout::AppendOnly,
        train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        ..Default::default()
    };
    let irn = Irn::fit(&split.train, &[], n, dataset.num_users, &config, None);
    let user = 3usize;
    let objective = 7usize;
    let session: Vec<ItemId> = (0..max).map(|i| (i * 7 + 1) % n).collect();

    let mut group = c.benchmark_group("long_session");
    group.sample_size(10);
    for &len in &LONG_SESSION_LENGTHS {
        let ctx = &session[..len];
        let mut cache = irn.new_append_cache();
        // Prime outside the timing loop, then pin that the measured
        // calls really take the hit path.
        irn.score_next_cached(user, ctx, objective, &mut cache);
        let (_, hit) = irn.score_next_cached(user, ctx, objective, &mut cache);
        assert!(hit, "primed cache must hit at T{len}");
        group.bench_function(format!("cached_step_T{len}"), |b| {
            b.iter(|| black_box(irn.score_next_cached(user, black_box(ctx), objective, &mut cache)))
        });
        group.bench_function(format!("cold_step_T{len}"), |b| {
            b.iter(|| black_box(irn.score_next(user, black_box(ctx), objective)))
        });
    }
    group.finish();

    let results = criterion::recorded_results();
    let median = |name: &str| -> Option<f64> {
        results.iter().find(|(n, _)| n.contains(name)).map(|(_, ns)| *ns)
    };
    for &len in &LONG_SESSION_LENGTHS {
        if let (Some(cached), Some(cold)) =
            (median(&format!("cached_step_T{len}")), median(&format!("cold_step_T{len}")))
        {
            println!(
                "long-session step at T{len}: cached {cached:.0} ns, cold {cold:.0} ns \
                 ({:.2}x cold over cached)",
                cold / cached
            );
        }
    }
    if let (Some(c8), Some(c256), Some(cold256)) =
        (median("cached_step_T8"), median("cached_step_T256"), median("cold_step_T256"))
    {
        let flatness = c256 / c8;
        let win = cold256 / c256;
        println!(
            "long-session cached-step flatness T256/T8: {flatness:.2}x; \
             cold-over-cached at T256: {win:.2}x"
        );
        if std::env::var("IRS_SERVE_ASSERT").as_deref() == Ok("1") {
            assert!(
                flatness <= 1.5,
                "cached step latency must stay ~flat in session length: \
                 T256/T8 {flatness:.2}x exceeds 1.5x"
            );
            assert!(
                win >= 2.0,
                "cold re-encode must cost at least 2x a cached step at T256: got {win:.2}x"
            );
        }
    }
}

/// Cost model of the online-learning loop: how much trainer work one
/// batch of feedback buys (`fold_64_events`), what a canary publish
/// costs end to end — serialize the student to IRSP, reload it as a
/// fresh serving snapshot (`publish_snapshot`) — and the full
/// replay → fold → publish round-trip through the trainer thread's
/// ticket protocol (`force_publish_e2e`).  All of it runs off the
/// request path (the trainer owns a cloned student), so these numbers
/// bound *publish cadence*, not serve latency.
fn bench_online_loop(c: &mut Criterion) {
    let dataset = generate(&SynthConfig::tiny(0x0011)).dataset;
    let split = split_dataset(&dataset, &SplitConfig::small());
    let n = dataset.num_items;
    let config = IrnConfig {
        dim: 16,
        user_dim: 4,
        layers: 1,
        heads: 2,
        max_len: 12,
        train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        ..Default::default()
    };
    let irn = Irn::fit(&split.train, &[], n, dataset.num_users, &config, None);
    // The trainer owns its own student copies (IRSP round-trip — the
    // same path `irs serve --online-train` boots the student through).
    let mut bytes = Vec::new();
    irn.save(&mut bytes).expect("serialize student");
    let reload = |bytes: &[u8]| Irn::load(bytes, n, dataset.num_users, &config).expect("reload");

    // A replay batch of accepted feedback shaped like live traffic:
    // short contexts, one accepted item each.
    let events: Vec<FeedbackEvent> = (0..64)
        .map(|i| {
            let tc = &split.test[i % split.test.len()];
            FeedbackEvent {
                user: tc.user,
                context: tc.history.clone(),
                item: (tc.history.last().copied().unwrap_or(0) + 1) % n,
                accepted: true,
            }
        })
        .collect();

    let mut group = c.benchmark_group("online_loop");
    group.sample_size(10);
    let mut learner = IrnOnlineLearner::new(reload(&bytes));
    group.bench_function("fold_64_events", |b| {
        b.iter(|| black_box(learner.fold(black_box(&events))))
    });
    group.bench_function("publish_snapshot", |b| {
        b.iter(|| black_box(learner.publish().expect("publish")))
    });

    // The full loop: push a replay batch, ring the trainer, wait for
    // the canary snapshot to land on arm 1.
    let student = reload(&bytes);
    let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
        "bench",
        Box::new(irn),
        n,
    )));
    let handle = OnlineHandle::start(
        registry,
        OnlineConfig { publish_every: Duration::from_secs(3600), replay_cap: 1024 },
        move || Box::new(IrnOnlineLearner::new(student)) as Box<dyn OnlineLearner>,
    );
    group.bench_function("force_publish_e2e", |b| {
        b.iter(|| {
            for e in &events {
                handle.replay().push(e.clone());
            }
            black_box(handle.force_publish(Duration::from_secs(60)).expect("force publish"))
        })
    });
    group.finish();
    handle.stop();

    let results = criterion::recorded_results();
    let median = |name: &str| -> Option<f64> {
        results.iter().find(|(n, _)| n.contains(name)).map(|(_, ns)| *ns)
    };
    if let (Some(fold), Some(publish), Some(e2e)) =
        (median("fold_64_events"), median("publish_snapshot"), median("force_publish_e2e"))
    {
        println!(
            "online loop: fold 64 events {:.0} µs, publish {:.0} µs, e2e round-trip {:.0} µs",
            fold / 1e3,
            publish / 1e3,
            e2e / 1e3
        );
    }
}

criterion_group!(benches, bench_serving, bench_long_session, bench_online_loop);
criterion_main!(benches);
