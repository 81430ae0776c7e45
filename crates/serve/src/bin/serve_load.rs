//! `serve_load` — synthetic traffic generator for the serving subsystem.
//!
//! Trains a tiny IRN on a synthetic dataset, stands up the micro-batching
//! [`Engine`] and replays concurrent interactive sessions against it,
//! reporting throughput and latency percentiles.  `--compare` runs the
//! same traffic against a batch-size-1 scheduler first and prints the
//! micro-batching speedup (the serving analogue of the inference bench's
//! batched-vs-scalar ratio); `IRS_SERVE_ASSERT=1` turns the ≥2x
//! acceptance threshold into a hard failure.
//!
//! `--keep-alive` instead boots the full HTTP frontend in-process and
//! drives the same session traffic over real sockets twice through
//! [`HttpClient`], the crate's one HTTP/1.1 client — once opening a fresh
//! connection per request (`Connection: close`), once reusing one
//! keep-alive connection per client — and reports the connection-reuse
//! win (throughput + p50/p95/p99).  With `IRS_SERVE_ASSERT=1` the ≥1.3x
//! keep-alive threshold is enforced.
//!
//! ```text
//! cargo run --release -p irs_serve --bin serve_load -- \
//!     [--sessions 32] [--rounds 3] [--steps 8] [--patience 3] \
//!     [--max-batch 16] [--workers 2] \
//!     [--http-workers 0] [--scale 0.02] [--epochs 1] \
//!     [--compare] [--keep-alive] [--verify] \
//!     [--log-level error|warn|info|debug|trace] [--log-format text|json]
//! ```

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use irs_core::{InteractiveSession, Irn, IrnConfig, NeuralTrainConfig};
use irs_data::split::{sample_objectives, split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::ItemId;
use irs_obs::log::{Format, Level};
use irs_obs::{log_error, log_info};
use irs_serve::{
    BatchPolicy, Engine, HttpClient, HttpServer, JsonValue, ModelSnapshot, ServerConfig,
    SnapshotRegistry,
};

struct Opts {
    sessions: usize,
    rounds: usize,
    steps: usize,
    patience: usize,
    max_batch: usize,
    workers: usize,
    scale: f32,
    epochs: usize,
    compare: bool,
    keep_alive: bool,
    http_workers: usize,
    verify: bool,
    log_level: Level,
    log_format: Format,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            sessions: 32,
            rounds: 3,
            steps: 8,
            patience: 3,
            max_batch: 16,
            workers: 2,
            scale: 0.02,
            epochs: 1,
            compare: false,
            keep_alive: false,
            http_workers: 0,
            verify: false,
            log_level: Level::Info,
            log_format: Format::Text,
        }
    }
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut i = 0;
    let take = |args: &[String], i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("missing value for {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" => {
                opts.sessions =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--sessions: {e}"))?
            }
            "--rounds" => {
                opts.rounds = take(&args, &mut i)?.parse().map_err(|e| format!("--rounds: {e}"))?
            }
            "--steps" => {
                opts.steps = take(&args, &mut i)?.parse().map_err(|e| format!("--steps: {e}"))?
            }
            "--patience" => {
                opts.patience =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--patience: {e}"))?
            }
            "--max-batch" => {
                opts.max_batch =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--max-batch: {e}"))?
            }
            "--workers" => {
                opts.workers =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--scale" => {
                opts.scale = take(&args, &mut i)?.parse().map_err(|e| format!("--scale: {e}"))?
            }
            "--epochs" => {
                opts.epochs = take(&args, &mut i)?.parse().map_err(|e| format!("--epochs: {e}"))?
            }
            "--compare" => opts.compare = true,
            "--keep-alive" => opts.keep_alive = true,
            "--http-workers" => {
                opts.http_workers =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--http-workers: {e}"))?
            }
            "--verify" => opts.verify = true,
            "--log-level" => {
                let v = take(&args, &mut i)?;
                opts.log_level =
                    Level::parse(&v).ok_or_else(|| format!("unknown log level '{v}'"))?;
            }
            "--log-format" => {
                let v = take(&args, &mut i)?;
                opts.log_format =
                    Format::parse(&v).ok_or_else(|| format!("unknown log format '{v}'"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(opts)
}

/// One replayable session script: who asks, from which history, for what
/// (one sampled objective per round so repeated sessions do not
/// degenerate into a single cached query).
#[derive(Clone)]
struct Script {
    user: usize,
    history: Vec<ItemId>,
    objectives: Vec<ItemId>,
}

/// Latency/throughput report of one load run.
struct LoadReport {
    requests: usize,
    wall: Duration,
    latencies_us: Vec<u64>,
    mean_batch: f64,
}

impl LoadReport {
    fn throughput(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
        self.latencies_us[rank]
    }

    fn print(&self, label: &str) {
        println!(
            "{label}: {} requests in {:.2?}  ({:.0} req/s, mean batch {:.2})",
            self.requests,
            self.wall,
            self.throughput(),
            self.mean_batch
        );
        println!(
            "{label}: latency p50 {} µs, p95 {} µs, p99 {} µs",
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99)
        );
    }
}

/// How a load run scores its requests.
enum Mode {
    /// The batch-size-1 configuration: every proposal is an individual
    /// scalar `next_item` call on the session's thread — the pre-serving
    /// hot path, no queue, no batching engine.
    Scalar,
    /// Requests travel through the micro-batching [`Engine`] under the
    /// given policy (`max_batch: 1` isolates the engine's batched infer
    /// path from the coalescing win).
    Engine(BatchPolicy),
}

/// Replay `opts.sessions` concurrent session threads (each running
/// `opts.rounds` sessions to completion with a passive user).
fn run_load(
    registry: &Arc<SnapshotRegistry>,
    mode: Mode,
    scripts: &[Script],
    opts: &Opts,
) -> LoadReport {
    let engine = match mode {
        Mode::Scalar => None,
        Mode::Engine(policy) => Some(Arc::new(Engine::start(registry.clone(), policy))),
    };
    let snapshot = registry.current();
    let started = Instant::now();
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut requests = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for script in scripts {
            let engine = engine.clone();
            let snapshot = &snapshot;
            handles.push(scope.spawn(move || {
                let mut lats = Vec::new();
                for round in 0..opts.rounds {
                    let objective = script.objectives[round % script.objectives.len()];
                    let mut session = InteractiveSession::new(
                        script.user,
                        script.history.clone(),
                        objective,
                        opts.steps,
                        opts.patience,
                    );
                    while !session.is_done() {
                        let t0 = Instant::now();
                        let answer = match &engine {
                            Some(engine) => engine.propose(&session),
                            None => {
                                let q = session.query();
                                snapshot.model.next_item(q.user, q.history, q.objective, q.path)
                            }
                        };
                        lats.push(t0.elapsed().as_micros() as u64);
                        match answer {
                            Some(item) => session.record(item, true),
                            None => session.record_give_up(),
                        }
                    }
                }
                lats
            }));
        }
        for h in handles {
            let lats = h.join().expect("session thread panicked");
            requests += lats.len();
            latencies_us.extend(lats);
        }
    });
    let wall = started.elapsed();
    let mean_batch = match &engine {
        Some(engine) => {
            let stats = engine.stats();
            engine.shutdown();
            stats.mean_batch()
        }
        None => 1.0,
    };
    latencies_us.sort_unstable();
    LoadReport { requests, wall, latencies_us, mean_batch }
}

/// Drive one scripted session over HTTP to completion:
/// create → (next → feedback-accept)* → delete.  Returns per-request
/// latencies (µs) appended to `lats`.
fn drive_http_session(
    client: &mut HttpClient,
    script: &Script,
    objective: ItemId,
    lats: &mut Vec<u64>,
) {
    let history: Vec<String> = script.history.iter().map(ToString::to_string).collect();
    let body = format!(
        "{{\"user\": {}, \"history\": [{}], \"objective\": {objective}}}",
        script.user,
        history.join(",")
    );
    let t0 = Instant::now();
    let (status, created) = client.json("POST", "/v1/session", &body).expect("create");
    lats.push(t0.elapsed().as_micros() as u64);
    assert_eq!(status, 200, "create failed: {created}");
    let sid = created.get("session_id").and_then(JsonValue::as_usize).expect("session id");
    loop {
        let t0 = Instant::now();
        let (status, next) =
            client.json("POST", &format!("/v1/session/{sid}/next"), "").expect("next");
        lats.push(t0.elapsed().as_micros() as u64);
        assert_eq!(status, 200, "next failed: {next}");
        if next.get("done").and_then(JsonValue::as_bool) == Some(true) {
            break;
        }
        let item = next.get("item").and_then(JsonValue::as_usize).expect("item");
        let t0 = Instant::now();
        let (status, fb) = client
            .json(
                "POST",
                &format!("/v1/session/{sid}/feedback"),
                &format!("{{\"item\": {item}, \"accepted\": true}}"),
            )
            .expect("feedback");
        lats.push(t0.elapsed().as_micros() as u64);
        assert_eq!(status, 200, "feedback failed: {fb}");
        if fb.get("done").and_then(JsonValue::as_bool) == Some(true) {
            break;
        }
    }
    let t0 = Instant::now();
    let (status, _) = client.json("DELETE", &format!("/v1/session/{sid}"), "").expect("delete");
    lats.push(t0.elapsed().as_micros() as u64);
    assert_eq!(status, 200, "delete failed");
}

/// Replay the session scripts over real sockets against the in-process
/// HTTP frontend, one client thread per script.  `keep_alive: false`
/// reconnects for every single request (`Connection: close`);
/// `keep_alive: true` reuses one connection per client for its whole
/// traffic.
fn run_http_load(
    addr: SocketAddr,
    scripts: &[Script],
    opts: &Opts,
    keep_alive: bool,
) -> LoadReport {
    let started = Instant::now();
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut requests = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for script in scripts {
            handles.push(scope.spawn(move || {
                let mut client = HttpClient::new(addr, keep_alive);
                let mut lats = Vec::new();
                for round in 0..opts.rounds {
                    let objective = script.objectives[round % script.objectives.len()];
                    drive_http_session(&mut client, script, objective, &mut lats);
                }
                lats
            }));
        }
        for h in handles {
            let lats = h.join().expect("http client thread panicked");
            requests += lats.len();
            latencies_us.extend(lats);
        }
    });
    let wall = started.elapsed();
    // The engine's mean batch over the whole server lifetime so far — a
    // cumulative figure shared by both runs, reported for context only.
    let (_, stats) = HttpClient::new(addr, false).json("GET", "/v1/stats", "").expect("stats");
    let mean_batch = stats.get("mean_batch").and_then(JsonValue::as_f64).unwrap_or(0.0);
    latencies_us.sort_unstable();
    LoadReport { requests, wall, latencies_us, mean_batch }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: serve_load [--sessions N] [--rounds R] [--steps S] [--patience P] \
                 [--max-batch B] [--workers W] [--http-workers N] \
                 [--scale S] [--epochs E] [--compare] [--keep-alive] [--verify] \
                 [--log-level L] [--log-format text|json]"
            );
            return ExitCode::from(2);
        }
    };
    irs_obs::log::set_level(opts.log_level);
    irs_obs::log::set_format(opts.log_format);
    // Same guard as `irs serve`: usage error, not an Engine::start panic.
    if opts.max_batch == 0 || opts.workers == 0 || opts.sessions == 0 {
        eprintln!("error: --max-batch, --workers and --sessions must be >= 1");
        return ExitCode::from(2);
    }

    // Tiny self-contained world: synthetic dataset, one-epoch IRN.
    log_info!("serve_load", "building synthetic dataset (scale {})...", opts.scale);
    let dataset = generate(&SynthConfig::movielens_like(opts.scale)).dataset;
    let split = split_dataset(&dataset, &SplitConfig::small());
    let objectives = sample_objectives(&dataset, &split.test, 5, 0x10ad);
    let train = NeuralTrainConfig { epochs: opts.epochs, ..Default::default() };
    let config = IrnConfig {
        dim: 16,
        user_dim: 8,
        layers: 2,
        heads: 2,
        max_len: 16,
        train,
        ..Default::default()
    };
    log_info!(
        "serve_load",
        "training IRN ({} items, {} users, {} train subsequences)...",
        dataset.num_items,
        dataset.num_users,
        split.train.len()
    );
    let model =
        Irn::fit(&split.train, &split.val, dataset.num_items, dataset.num_users, &config, None);

    // Session scripts cycle over the test users; each session thread
    // rotates through the sampled objectives round by round.
    let scripts: Vec<Script> = (0..opts.sessions)
        .map(|s| {
            let tc = &split.test[s % split.test.len()];
            let objs =
                (0..opts.rounds.max(1)).map(|r| objectives[(s + r) % objectives.len()]).collect();
            Script { user: tc.user, history: tc.history.clone(), objectives: objs }
        })
        .collect();

    let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
        "serve_load",
        Box::new(model),
        dataset.num_items,
    )));

    // Untimed warm-up: the model's persistent PIM cache (base mask +
    // per-user r_u) is populated on first use, and whichever timed run
    // goes first would otherwise be charged for it.
    {
        let snap = registry.current();
        for script in &scripts {
            let _ = snap.model.next_item(script.user, &script.history, script.objectives[0], &[]);
        }
    }

    let batched_policy =
        BatchPolicy { max_batch: opts.max_batch, workers: opts.workers, queue_capacity: 1024 };

    let mut speedup = None;
    let mut reuse_win = None;
    if opts.keep_alive {
        // Boot the full HTTP frontend in-process and compare
        // close-per-request traffic with keep-alive connection reuse.
        let engine = Arc::new(Engine::start(registry.clone(), batched_policy.clone()));
        let server = HttpServer::bind(
            "127.0.0.1:0",
            engine.clone(),
            None,
            ServerConfig {
                max_len: opts.steps,
                patience: opts.patience,
                http_workers: opts.http_workers,
                ..Default::default()
            },
        )
        .expect("bind HTTP frontend");
        let addr = server.local_addr().expect("local addr");
        let server_thread = std::thread::spawn(move || server.run());
        // Untimed warm-up of the HTTP path itself (worker workspaces,
        // connection buffers) so neither timed run pays first-use costs.
        {
            let mut client = HttpClient::new(addr, true);
            let mut lats = Vec::new();
            drive_http_session(&mut client, &scripts[0], scripts[0].objectives[0], &mut lats);
        }
        log_info!(
            "serve_load",
            "HTTP close-per-request run ({} clients, fresh connection each request)...",
            opts.sessions
        );
        let close = run_http_load(addr, &scripts, &opts, false);
        close.print("http-close");
        log_info!(
            "serve_load",
            "HTTP keep-alive run ({} clients, one reused connection each)...",
            opts.sessions
        );
        let keep = run_http_load(addr, &scripts, &opts, true);
        keep.print("http-keep ");
        let ratio = keep.throughput() / close.throughput().max(1e-9);
        println!("keep-alive win: {ratio:.2}x throughput over close-per-request");
        reuse_win = Some(ratio);
        let (status, _) =
            HttpClient::new(addr, false).json("POST", "/v1/admin/shutdown", "").expect("shutdown");
        assert_eq!(status, 200, "shutdown failed");
        server_thread.join().expect("server thread").expect("server run");
        engine.shutdown();
    } else if opts.compare {
        // Three configurations, most naive first:
        //   scalar   — batch-size-1: every proposal is an individual
        //              scalar next_item call (no engine, no batching);
        //   engine1  — the scheduler with max_batch 1 (isolates the
        //              engine's tape-free batched infer path);
        //   batched  — the full micro-batching scheduler.
        log_info!(
            "serve_load",
            "batch-size-1 baseline ({} sessions, scalar next_item per request)...",
            opts.sessions
        );
        let scalar = run_load(&registry, Mode::Scalar, &scripts, &opts);
        scalar.print("scalar  ");
        log_info!(
            "serve_load",
            "engine without coalescing (max_batch 1, {} workers)...",
            opts.workers
        );
        let engine1 = run_load(
            &registry,
            Mode::Engine(BatchPolicy { max_batch: 1, ..batched_policy.clone() }),
            &scripts,
            &opts,
        );
        engine1.print("engine1 ");
        log_info!("serve_load", "micro-batched run (max_batch {})...", opts.max_batch);
        let batched = run_load(&registry, Mode::Engine(batched_policy.clone()), &scripts, &opts);
        batched.print("batched ");
        let s = batched.throughput() / scalar.throughput().max(1e-9);
        println!(
            "speedup: {s:.2}x micro-batched over batch-size-1 ({:.2}x over the max_batch-1 engine)",
            batched.throughput() / engine1.throughput().max(1e-9)
        );
        speedup = Some(s);
    } else {
        let report = run_load(&registry, Mode::Engine(batched_policy.clone()), &scripts, &opts);
        report.print("serve   ");
    }

    if opts.verify {
        // Scheduler answers must equal direct scalar next_item calls.
        let engine = Engine::start(registry.clone(), batched_policy);
        let snap = registry.current();
        for script in scripts.iter().take(8) {
            let objective = script.objectives[0];
            let got = engine.next_item(script.user, script.history.clone(), objective, Vec::new());
            let want = snap.model.next_item(script.user, &script.history, objective, &[]);
            assert_eq!(got, want, "scheduler diverged from scalar for user {}", script.user);
        }
        engine.shutdown();
        println!("verify: scheduler answers match scalar next_item calls");
    }

    if std::env::var("IRS_SERVE_ASSERT").as_deref() == Ok("1") {
        if let Some(r) = reuse_win {
            if r < 1.3 {
                log_error!(
                    "serve_load",
                    "FAIL: keep-alive win {r:.2}x below the 1.3x acceptance threshold"
                );
                return ExitCode::FAILURE;
            }
            println!("ok: keep-alive win {r:.2}x ≥ 1.3x");
        } else {
            let Some(s) = speedup else {
                log_error!("serve_load", "IRS_SERVE_ASSERT requires --compare or --keep-alive");
                return ExitCode::FAILURE;
            };
            if s < 2.0 {
                log_error!(
                    "serve_load",
                    "FAIL: micro-batching speedup {s:.2}x below the 2x acceptance threshold"
                );
                return ExitCode::FAILURE;
            }
            println!("ok: micro-batching speedup {s:.2}x ≥ 2x");
        }
    }
    ExitCode::SUCCESS
}
