//! `serve_short` / `serve_long`: IRN persuasion sessions over HTTP.
//!
//! Set-up builds the harness, trains IRN for two epochs in the append-only
//! layout and starts the server in process the way `irs serve --layout
//! append` does: `Engine::start(BatchPolicy::default())` behind
//! `HttpServer::bind` with a 64 MiB context cache.  `serve_long` also
//! attaches the online trainer (publish every 2 s, replay cap 512) and
//! splits traffic 50/50 between the stable and canary arms.
//!
//! Load is a closed loop: two client threads, one keep-alive connection
//! each, run seeded sessions back to back — create, then `next` and an
//! accepted `feedback` until the session ends, then delete.
//! `serve_short` sessions start from the last 3 items of a test case's
//! history (they stay inside IRN's T = 20 window, so the incremental
//! context cache hits); `serve_long` sessions start from the whole history
//! (they outgrow the window, so every step is a cold forward).  Throughput
//! counts every HTTP request; the latency metrics describe `next`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use irs_core::{EncodingLayout, InteractiveSession, Irn};
use irs_data::split::sample_objectives;
use irs_data::ItemId;
use irs_serve::{
    BatchPolicy, Engine, HttpServer, IrnOnlineLearner, JsonValue, ModelSnapshot, OnlineConfig,
    OnlineHandle, OnlineLearner, ServerConfig, ServerHandle, SnapshotRegistry,
};
use rand::{Rng, SeedableRng};

use crate::stats::{median, Sample};
use crate::trace::Tracer;
use crate::{probes, Checks, Ctx, Phase, Run};

/// Client threads, each with one keep-alive connection.
const CLIENTS: usize = 2;
/// Items of history a `serve_short` session starts from.
const SHORT_HISTORY: usize = 3;
/// Objective replicas the session scripts draw from.
const REPLICAS: u64 = 4;
/// Untimed warm-up before the timed phase, seconds.
const WARMUP_S: f64 = 1.0;
/// Training epochs of the served IRN.
const EPOCHS: usize = 2;
/// A reply slower than this counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Arm-0 sessions replayed against the stable snapshot.
const EQUIVALENCE_SESSIONS: usize = 8;

/// A running in-process server; dropping it shuts everything down.
struct Server {
    registry: Arc<SnapshotRegistry>,
    engine: Arc<Engine>,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Serve a copy of `irn` loaded from its IRSP bytes, as `irs serve
    /// --model FILE` does.
    fn start(irn: &Irn, online: bool) -> Server {
        let (num_items, num_users, cfg) = (irn.num_items(), irn.num_users(), irn.config().clone());
        let mut bytes = Vec::new();
        irn.save(&mut bytes).expect("serialising to memory cannot fail");
        let served = Irn::load(&bytes[..], num_items, num_users, &cfg).expect("saved bytes load");
        let snapshot = ModelSnapshot::in_memory_with_catalogue("perf", Box::new(served), num_items);
        let registry = Arc::new(SnapshotRegistry::new(snapshot));
        let engine = Arc::new(Engine::start(registry.clone(), BatchPolicy::default()));
        let config = ServerConfig {
            layout: Some(EncodingLayout::AppendOnly),
            context_cache_mb: 64,
            max_len: 20,
            ..Default::default()
        };
        let server = HttpServer::bind("127.0.0.1:0", engine.clone(), None, config)
            .expect("bind a local ephemeral port");
        if online {
            let trainer_config =
                OnlineConfig { publish_every: Duration::from_secs(2), replay_cap: 512 };
            server.set_online(OnlineHandle::start(registry.clone(), trainer_config, move || {
                let student = Irn::load(&bytes[..], num_items, num_users, &cfg)
                    .expect("the served snapshot's bytes load");
                Box::new(IrnOnlineLearner::new(student)) as Box<dyn OnlineLearner>
            }));
        }
        let handle = server.handle().expect("bound listener has an address");
        let thread = Some(std::thread::spawn(move || server.run()));
        Server { registry, engine, handle, thread }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.request_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.engine.shutdown();
    }
}

/// A blocking HTTP/1.1 client on one keep-alive connection, reconnecting
/// after a failure.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, stream: None, buf: Vec::with_capacity(8192) }
    }

    /// One round trip; any transport error, non-200 status or reply
    /// slower than [`REPLY_TIMEOUT`] is an error.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<String, String> {
        let started = Instant::now();
        let result = self.round_trip(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        let (status, text) = result?;
        if started.elapsed() > REPLY_TIMEOUT {
            return Err(format!("{method} {path}: reply took {:?}", started.elapsed()));
        }
        if status != 200 {
            return Err(format!("{method} {path}: status {status}: {text}"));
        }
        Ok(text)
    }

    fn json(&mut self, method: &str, path: &str, body: &str) -> Result<JsonValue, String> {
        let text = self.request(method, path, body)?;
        JsonValue::parse(&text)
            .map_err(|e| format!("{method} {path}: malformed body {text:?}: {e}"))
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let io = |e: std::io::Error| format!("{method} {path}: {e}");
        let stream = match &mut self.stream {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(self.addr).map_err(io)?;
                s.set_nodelay(true).map_err(io)?;
                s.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
                self.stream.insert(s)
            }
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).map_err(io)?;
        stream.write_all(body.as_bytes()).map_err(io)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err(format!("{method} {path}: connection closed mid-head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: Option<u16> = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
        let length: Option<usize> = head.lines().find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        });
        let (Some(status), Some(length)) = (status, length) else {
            return Err(format!("{method} {path}: malformed head {head:?}"));
        };
        while self.buf.len() < head_end + length {
            let n = stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err(format!("{method} {path}: connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).into_owned();
        Ok((status, text))
    }
}

/// The inputs of every session a client may run.
struct Scripts {
    users: Vec<usize>,
    histories: Vec<Vec<ItemId>>,
    /// `objectives[r][i]`: replica `r`'s objective for test case `i`.
    objectives: Vec<Vec<ItemId>>,
}

impl Scripts {
    /// One seeded session: (user, history, objective).
    fn draw(&self, rng: &mut impl Rng) -> (usize, &[ItemId], ItemId) {
        let i = rng.random_range(0..self.users.len());
        let r = rng.random_range(0..self.objectives.len());
        (self.users[i], &self.histories[i], self.objectives[r][i])
    }
}

/// What one client observed.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    sessions: u64,
    /// Total microseconds and count per route: create, next, feedback,
    /// delete.
    routes: [(f64, u64); 4],
    checks: Checks,
}

const ROUTES: [&str; 4] = ["create", "next", "feedback", "delete"];
const ROUTE_SPANS: [&str; 4] =
    ["serve.client.create", "serve.client.next", "serve.client.feedback", "serve.client.delete"];

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sessions += other.sessions;
        for (sum, part) in self.routes.iter_mut().zip(other.routes) {
            sum.0 += part.0;
            sum.1 += part.1;
        }
        self.checks.merge(other.checks);
    }

    /// Time one request; a failure is counted and fails the reply check.
    fn call<T>(
        &mut self,
        tracer: &Tracer,
        start: Instant,
        route: usize,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        let t = Instant::now();
        let result = f();
        let end = Instant::now();
        let us = end.duration_since(t).as_secs_f64() * 1e6;
        let traced = tracer.record(ROUTE_SPANS[route], None, t, end, 1).is_some();
        self.attempted += 1;
        self.routes[route].0 += us;
        self.routes[route].1 += 1;
        self.samples.push(Sample {
            end: end.duration_since(start).as_secs_f64(),
            latency_ms: (route == 1).then_some(us * 1e-3),
            units: 1.0,
            traced,
        });
        self.checks.expect("serve.replies_ok", result.is_ok(), || {
            result.as_ref().err().cloned().unwrap_or_default()
        });
        if result.is_err() {
            self.failed += 1;
        }
        result.ok()
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("reply {v} lacks '{key}'"))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
    field(v, key)?.as_usize().ok_or_else(|| format!("reply {v} has a non-integer '{key}'"))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, String> {
    field(v, key)?.as_bool().ok_or_else(|| format!("reply {v} has a non-boolean '{key}'"))
}

/// Run one session to its end; returns its arm and accepted items.
fn session(
    client: &mut Client,
    log: &mut ClientLog,
    tracer: &Tracer,
    start: Instant,
    (user, history, objective): (usize, &[ItemId], ItemId),
    num_items: usize,
) -> Option<(usize, Vec<ItemId>)> {
    let ids: Vec<String> = history.iter().map(ToString::to_string).collect();
    let body =
        format!("{{\"user\":{user},\"history\":[{}],\"objective\":{objective}}}", ids.join(","));
    let created = log.call(tracer, start, 0, || {
        let v = client.json("POST", "/v1/session", &body)?;
        Ok((usize_field(&v, "session_id")?, usize_field(&v, "arm")?))
    })?;
    let (id, arm) = created;
    let mut path: Vec<ItemId> = Vec::new();
    loop {
        let next = log.call(tracer, start, 1, || {
            let v = client.json("POST", &format!("/v1/session/{id}/next"), "")?;
            let done = bool_field(&v, "done")?;
            let item = if done { None } else { Some(usize_field(&v, "item")?) };
            Ok(item)
        });
        let Some(Some(item)) = next else { break };
        let fresh = item < num_items && !history.contains(&item) && !path.contains(&item);
        log.checks.expect("serve.items_fresh", fresh, || {
            format!("session {id} proposed {item} after history {history:?} and path {path:?}")
        });
        path.push(item);
        let body = format!("{{\"item\":{item},\"accepted\":true}}");
        let fb = log.call(tracer, start, 2, || {
            let v = client.json("POST", &format!("/v1/session/{id}/feedback"), &body)?;
            bool_field(&v, "reached_objective")?;
            let accepted = field(&v, "accepted")?.as_usize_arr();
            let consistent = accepted.as_deref() == Some(&path[..]);
            consistent
                .then_some(bool_field(&v, "done")?)
                .ok_or_else(|| format!("session {id} reports accepted {accepted:?}, sent {path:?}"))
        });
        if fb != Some(false) {
            break;
        }
    }
    log.call(tracer, start, 3, || {
        let v = client.json("DELETE", &format!("/v1/session/{id}"), "")?;
        let echoed = usize_field(&v, "session_id")?;
        (echoed == id).then_some(()).ok_or_else(|| format!("deleted {echoed}, asked for {id}"))
    })?;
    log.sessions += 1;
    Some((arm, path))
}

/// Run `CLIENTS` closed-loop clients for `secs` seconds.  With `toggle`,
/// this thread alternates untraced and traced slices meanwhile.
fn load(
    ctx: &Ctx,
    target: (SocketAddr, &Scripts, usize),
    secs: f64,
    seed: u64,
    toggle: bool,
) -> (Phase, ClientLog) {
    let (addr, scripts, num_items) = target;
    let tracer = &ctx.tracer;
    let start = Instant::now();
    let mut mode_secs = [0.0; 2];
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (0x5e55 + c as u64));
                    let mut client = Client::new(addr);
                    let mut log = ClientLog::default();
                    while start.elapsed().as_secs_f64() < secs {
                        let script = scripts.draw(&mut rng);
                        session(&mut client, &mut log, tracer, start, script, num_items);
                    }
                    log
                })
            })
            .collect();
        let mut elapsed = 0.0;
        while toggle && elapsed < secs {
            let traced = ctx.traced_at(elapsed);
            tracer.set_on(traced);
            let slice = ctx.trace_slice();
            let slice_end = (((elapsed / slice).floor() + 1.0) * slice).min(secs);
            std::thread::sleep(Duration::from_secs_f64(slice_end - elapsed));
            let now = start.elapsed().as_secs_f64();
            mode_secs[usize::from(traced)] += now - elapsed;
            elapsed = now;
        }
        tracer.set_on(false);
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    // Time after the last slice (clients closing their sessions) runs
    // untraced.
    mode_secs[0] += start.elapsed().as_secs_f64() - mode_secs[1] - mode_secs[0];
    let mut all = ClientLog::default();
    for log in logs {
        all.absorb(log);
    }
    (Phase { secs, samples: std::mem::take(&mut all.samples), mode_secs }, all)
}

/// Counters scraped from `/v1/stats` and the `/metrics` stage histograms.
#[derive(Default)]
struct Scrape {
    stats: BTreeMap<String, f64>,
    /// (stage, cached) → (sum µs, count).
    stages: BTreeMap<(String, String), (f64, f64)>,
}

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let mut client = Client::new(addr);
        let stats = match client.json("GET", "/v1/stats", "")? {
            JsonValue::Obj(fields) => {
                fields.into_iter().filter_map(|(k, v)| Some((k, v.as_f64()?))).collect()
            }
            other => return Err(format!("/v1/stats is not an object: {other}")),
        };
        let text = client.request("GET", "/metrics", "")?;
        let mut stages: BTreeMap<(String, String), (f64, f64)> = BTreeMap::new();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("irs_stage_latency_us_") else { continue };
            let (kind, rest) = rest.split_once('{').unwrap_or(("", ""));
            let label = |key: &str| {
                let start = rest.find(&format!("{key}=\""))? + key.len() + 2;
                rest[start..].split('"').next().map(str::to_string)
            };
            let value = rest.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
            let (Some(stage), Some(cached), Some(value)) = (label("stage"), label("cached"), value)
            else {
                continue;
            };
            let slot = stages.entry((stage, cached)).or_default();
            match kind {
                "sum" => slot.0 += value,
                "count" => slot.1 += value,
                _ => {}
            }
        }
        Ok(Scrape { stats, stages })
    }

    fn stat(&self, key: &str) -> f64 {
        self.stats.get(key).copied().unwrap_or(0.0)
    }

    /// Summed (µs, count) of a stage, optionally one cache path only.
    fn stage(&self, stage: &str, cached: Option<&str>) -> (f64, f64) {
        self.stages
            .iter()
            .filter(|((s, c), _)| s == stage && cached.is_none_or(|want| c == want))
            .fold((0.0, 0.0), |acc, (_, (sum, n))| (acc.0 + sum, acc.1 + n))
    }
}

/// Per-layer metrics from the scrape deltas over the traced phase.
fn layers(run: &mut Run, before: &Scrape, after: &Scrape, log: &ClientLog) {
    let delta = |key: &str| after.stat(key) - before.stat(key);
    let stage_delta = |stage: &str, cached: Option<&str>| {
        let (a, b) = (after.stage(stage, cached), before.stage(stage, cached));
        (a.0 - b.0, a.1 - b.1)
    };
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    run.layer("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    run.layer("serve.cache_invalidations", delta("cache_invalidations"));
    run.layer("serve.mean_batch", delta("requests") / delta("batches").max(1.0));
    run.layer("serve.requests_per_session", log.attempted as f64 / log.sessions.max(1) as f64);
    for (name, key) in [
        ("online.folds", "online_folds"),
        ("online.examples", "online_examples"),
        ("online.publishes", "online_publishes"),
    ] {
        run.layer(name, delta(key));
    }
    // Stage means per `next` answered by the scheduler (every such request
    // records one encode span), as shares of the client's `next` mean.
    // The server labels a forward `hot` when the request took the
    // context-cache path (hit or rebuild) and `cold` when it rode a
    // batched forward.
    let (next_us, next_count) = log.routes[1];
    let client_next_us = next_us / next_count.max(1) as f64;
    let answered = stage_delta("encode", None).1.max(1.0);
    let mut explained = 0.0;
    for (name, stage) in [
        ("serve.stage.queue_share", "queue"),
        ("serve.stage.assemble_share", "assemble"),
        ("serve.stage.forward_share", "forward"),
        ("serve.stage.encode_share", "encode"),
    ] {
        let mean_us = stage_delta(stage, None).0 / answered;
        run.detail(format!("serve.stage.{stage}_us"), mean_us);
        run.layer(name, mean_us / client_next_us);
        explained += mean_us;
    }
    for path in ["hot", "cold"] {
        let (sum, n) = stage_delta("forward", Some(path));
        run.detail(format!("serve.stage.forward_{path}_us"), sum / n.max(1.0));
        run.detail(format!("serve.stage.forward_{path}_requests"), n);
    }
    run.layer("serve.http_share", 1.0 - explained / client_next_us);
    run.detail("serve.http_us", client_next_us - explained);
    for (route, (sum, n)) in ROUTES.iter().zip(log.routes) {
        run.detail(format!("serve.client.{route}_us"), sum / n.max(1) as f64);
    }
    run.detail("serve.cache_hits", hits);
    run.detail("serve.cache_misses", misses);
    run.checks.expect("serve.stages_reconcile", explained <= client_next_us, || {
        format!("stage means {explained:.1} µs exceed the client next mean {client_next_us:.1} µs")
    });
}

pub fn run(ctx: &Ctx, long: bool) -> Run {
    let mut run = Run::new(0.99, false);
    let (h, irn, server) = ctx.set_up(&mut run, |run, span| {
        let h = ctx.build_harness(run, span);
        let mut cfg = h.irn_config();
        cfg.train.epochs = EPOCHS;
        cfg.layout = EncodingLayout::AppendOnly;
        let irn = ctx.fit(run, "setup.fit.irn", span, || h.train_irn_with(&cfg));
        let t = Instant::now();
        let server = Server::start(&irn, long);
        ctx.tracer.record("setup.serve.start", span, t, Instant::now(), 0);
        (h, irn, server)
    });
    let num_items = h.dataset.num_items;
    let test = &h.split.test;
    let scripts = Scripts {
        users: test.iter().map(|tc| tc.user).collect(),
        histories: test
            .iter()
            .map(|tc| {
                let keep = if long { tc.history.len() } else { SHORT_HISTORY };
                tc.history[tc.history.len().saturating_sub(keep)..].to_vec()
            })
            .collect(),
        objectives: (0..REPLICAS)
            .map(|r| sample_objectives(&h.dataset, test, 5, ctx.seed ^ (0x0b1 + r)))
            .collect(),
    };
    let addr = server.addr();
    if long {
        let split = Client::new(addr).json("POST", "/v1/admin/split", "{\"weights\":[0.5,0.5]}");
        run.checks.expect("serve.split_set", split.is_ok(), || format!("{split:?}"));
    }

    // Every request the run makes, warm-up and equivalence sessions
    // included, counts towards `attempted` and the checks.
    let mut log = ClientLog::default();
    let target = (addr, &scripts, num_items);
    let warm = Instant::now();
    let (_, warm_log) = load(ctx, target, WARMUP_S, ctx.seed ^ 0xa11, false);
    run.walls.push(("warmup", warm.elapsed().as_secs_f64()));
    log.absorb(warm_log);
    let before = if ctx.trace { Scrape::take(addr) } else { Ok(Scrape::default()) };
    let (phase, phase_log) = load(ctx, target, ctx.seconds, ctx.seed, ctx.trace);
    if ctx.trace {
        match (before, Scrape::take(addr)) {
            (Ok(before), Ok(after)) => layers(&mut run, &before, &after, &phase_log),
            (b, a) => run
                .checks
                .expect("serve.scrape", false, || format!("{:?} / {:?}", b.err(), a.err())),
        }
    }
    run.detail("serve.sessions", phase_log.sessions as f64);
    run.phase = Some(phase);
    log.absorb(phase_log);

    // Served sequences on the stable arm must equal a replay of the same
    // sessions through the stable snapshot's scalar `next_item`.
    let t = Instant::now();
    let stable = server.registry.arm_versioned(0).0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed ^ 0xe9);
    let mut client = Client::new(addr);
    let mut replayed = 0;
    for _ in 0..EQUIVALENCE_SESSIONS * 8 {
        if replayed == EQUIVALENCE_SESSIONS {
            break;
        }
        let (user, history, objective) = scripts.draw(&mut rng);
        let Some((arm, served)) =
            session(&mut client, &mut log, &ctx.tracer, t, (user, history, objective), num_items)
        else {
            continue;
        };
        if arm != 0 {
            continue;
        }
        let cfg = ServerConfig::default();
        let mut reference =
            InteractiveSession::new(user, history.to_vec(), objective, cfg.max_len, cfg.patience);
        while !reference.is_done() {
            let q = reference.query();
            match stable.model.next_item(q.user, q.history, q.objective, q.path) {
                Some(item) => reference.record(item, true),
                None => reference.record_give_up(),
            }
        }
        log.checks.expect("serve.served_equals_replay", served == reference.accepted(), || {
            format!("user {user}: served {served:?}, replay {:?}", reference.accepted())
        });
        replayed += 1;
    }
    run.checks.expect("serve.equivalence_sessions", replayed == EQUIVALENCE_SESSIONS, || {
        format!("only {replayed} arm-0 sessions replayed")
    });
    run.walls.push(("equivalence", t.elapsed().as_secs_f64()));
    run.attempted = log.attempted;
    run.failed = log.failed;
    run.checks.merge(log.checks);

    // Stop serving before the probes so its threads are idle.
    drop(server);
    if ctx.trace {
        // The served IRN's fit wall per minibatch step in set-up.
        let steps = EPOCHS * h.split.train.len().div_ceil(irn.config().train.batch_size);
        let step_ms = median(&ctx.tracer.durations("setup.fit.irn")) * 1e3 / steps as f64;
        run.layer("train.step_ms", step_ms);
        probes::measure(ctx, &mut run, &h, &irn, step_ms);
    }
    run
}
