//! `irs` — command-line interface to influential-rs.
//!
//! ```text
//! irs stats     [--dataset lastfm|movielens] [--scale S] [--ratings FILE [--movies FILE]]
//! irs train     [--dataset ...] [--scale S] [--epochs N] --model-out FILE
//! irs generate  --model FILE [--dataset ...] [--scale S] [--users N] [--m M]
//! irs evaluate  --model FILE [--dataset ...] [--scale S] [--users N] [--m M]
//! irs serve     --model FILE [--port P] [--max-batch B] [--workers W]
//!               [--session-ttl-s S] [--http-workers N] [--idle-timeout-s S]
//!               [--context-cache-mb MB] [--online-train] [--publish-every-s S]
//!               [--replay-cap N] [--log-level L] [--log-format text|json]
//! irs demo      [--dataset ...]
//! ```
//!
//! The CLI runs on the synthetic datasets (deterministic given `--scale`)
//! or, with `--ratings FILE`, on real MovieLens/Lastfm dumps routed
//! through `irs_data::loaders` (`--dataset` selects the parse format;
//! `--movies` attaches MovieLens metadata).  Commands that load a model
//! (`generate`, `evaluate`, `serve`) must be given the same dataset flags
//! as the `train` run that produced it — item/user counts are part of the
//! architecture check.
//!
//! `serve` exposes the online serving subsystem (`irs_serve`): per-user
//! sessions, work-conserving micro-batching (a request never waits for
//! co-travellers; batches form from the queue backlog, up to
//! `--max-batch`), `POST /v1/admin/swap` hot-swaps of
//! retrained snapshots, and incremental per-session context caches
//! (budgeted by `--context-cache-mb`; hot-swaps invalidate them).
//! With `--online-train` it also runs a background trainer that folds
//! logged feedback into a student model and publishes canary snapshots
//! to arm 1; `POST /v1/admin/split` steers weighted traffic between the
//! stable and canary arms, and `promote`/`rollback` settle the winner.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use influential_rs::core::{generate_influence_path, EncodingLayout, Irn, IrnConfig};
use influential_rs::data::loaders::{load_dataset_from_files, RatingsFormat};
use influential_rs::data::preprocess::PreprocessConfig;
use influential_rs::data::stats::dataset_stats;
use influential_rs::data::Dataset;
use influential_rs::eval::{evaluate_paths, Evaluator, PathRecord};
use influential_rs::obs::log::{Format, Level};
use influential_rs::obs::{log_error, log_info};
use influential_rs::serve::{
    layout_name, BatchPolicy, Engine, HttpServer, IrnArchitecture, IrnOnlineLearner, OnlineConfig,
    OnlineHandle, OnlineLearner, ServerConfig, SnapshotLoader, SnapshotRegistry,
};
use irs_bench::harness::{DatasetKind, Harness, HarnessConfig};

/// Parsed command-line options.
struct Opts {
    command: String,
    dataset: DatasetKind,
    scale: Option<f32>,
    epochs: Option<usize>,
    users: usize,
    m: usize,
    model: Option<String>,
    model_out: Option<String>,
    ratings: Option<String>,
    movies: Option<String>,
    port: u16,
    max_batch: usize,
    workers: usize,
    patience: usize,
    /// Idle-session eviction TTL in seconds (0 disables the sweeper).
    session_ttl_s: u64,
    http_workers: usize,
    idle_timeout_s: u64,
    /// Byte budget (MiB) for per-session context caches (0 disables).
    context_cache_mb: usize,
    /// Inference-time sequence layout for the IRN scoring paths.
    /// `append` keeps encoded prefixes stable so serve steps can use the
    /// per-session context cache; `prepadded` is the paper's layout.
    layout: EncodingLayout,
    /// Run the background online trainer: fold logged feedback into a
    /// student model and publish canary snapshots to arm 1.
    online_train: bool,
    /// Seconds between timed canary publishes (only when dirty).
    publish_every_s: u64,
    /// Replay-buffer capacity in feedback events (oldest dropped first).
    replay_cap: usize,
    /// Minimum level for the structured logger (`error`..`trace`).
    log_level: Level,
    /// Log line format: human-readable text or one JSON object per line.
    log_format: Format,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: irs <stats|train|generate|evaluate|serve|demo> \
         [--dataset lastfm|movielens] [--scale S] [--epochs N] \
         [--users N] [--m M] [--model FILE] [--model-out FILE] \
         [--ratings FILE] [--movies FILE] \
         [--port P] [--max-batch B] [--workers W] [--patience P] \
         [--session-ttl-s S] [--http-workers N] [--idle-timeout-s S] \
         [--context-cache-mb MB] [--layout prepadded|append] \
         [--online-train] [--publish-every-s S] [--replay-cap N] \
         [--log-level error|warn|info|debug|trace] [--log-format text|json]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().cloned().ok_or("missing command")?;
    let mut opts = Opts {
        command,
        dataset: DatasetKind::MovielensLike,
        scale: None,
        epochs: None,
        users: 20,
        m: 20,
        model: None,
        model_out: None,
        ratings: None,
        movies: None,
        port: 7878,
        max_batch: 16,
        workers: 2,
        patience: 3,
        session_ttl_s: 900,
        http_workers: 0,
        idle_timeout_s: 30,
        context_cache_mb: 64,
        layout: EncodingLayout::PrePadded,
        online_train: false,
        publish_every_s: 60,
        replay_cap: 4096,
        log_level: Level::Info,
        log_format: Format::Text,
    };
    let mut i = 1;
    let take = |args: &[String], i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("missing value for {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => {
                opts.dataset = match take(&args, &mut i)?.as_str() {
                    "lastfm" => DatasetKind::LastfmLike,
                    "movielens" => DatasetKind::MovielensLike,
                    other => return Err(format!("unknown dataset '{other}'")),
                };
            }
            "--scale" => {
                opts.scale =
                    Some(take(&args, &mut i)?.parse().map_err(|e| format!("--scale: {e}"))?)
            }
            "--epochs" => {
                opts.epochs =
                    Some(take(&args, &mut i)?.parse().map_err(|e| format!("--epochs: {e}"))?)
            }
            "--users" => {
                opts.users = take(&args, &mut i)?.parse().map_err(|e| format!("--users: {e}"))?
            }
            "--m" => opts.m = take(&args, &mut i)?.parse().map_err(|e| format!("--m: {e}"))?,
            "--model" => opts.model = Some(take(&args, &mut i)?),
            "--model-out" => opts.model_out = Some(take(&args, &mut i)?),
            "--ratings" => opts.ratings = Some(take(&args, &mut i)?),
            "--movies" => opts.movies = Some(take(&args, &mut i)?),
            "--port" => {
                opts.port = take(&args, &mut i)?.parse().map_err(|e| format!("--port: {e}"))?
            }
            "--max-batch" => {
                opts.max_batch =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--max-batch: {e}"))?
            }
            "--workers" => {
                opts.workers =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--patience" => {
                opts.patience =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--patience: {e}"))?
            }
            "--session-ttl-s" => {
                opts.session_ttl_s =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--session-ttl-s: {e}"))?
            }
            "--http-workers" => {
                opts.http_workers =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--http-workers: {e}"))?
            }
            "--idle-timeout-s" => {
                opts.idle_timeout_s =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--idle-timeout-s: {e}"))?
            }
            "--context-cache-mb" => {
                opts.context_cache_mb =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--context-cache-mb: {e}"))?
            }
            "--layout" => {
                opts.layout = match take(&args, &mut i)?.as_str() {
                    "prepadded" | "pre" => EncodingLayout::PrePadded,
                    "append" | "append-only" => EncodingLayout::AppendOnly,
                    other => return Err(format!("unknown layout '{other}'")),
                };
            }
            "--online-train" => opts.online_train = true,
            "--publish-every-s" => {
                opts.publish_every_s =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--publish-every-s: {e}"))?
            }
            "--replay-cap" => {
                opts.replay_cap =
                    take(&args, &mut i)?.parse().map_err(|e| format!("--replay-cap: {e}"))?
            }
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

fn harness_config(opts: &Opts) -> HarnessConfig {
    let mut cfg = HarnessConfig::standard(opts.dataset);
    if let Some(s) = opts.scale {
        cfg.scale = s.clamp(0.005, 1.0);
    }
    if let Some(e) = opts.epochs {
        cfg.epochs = e;
    }
    cfg.test_users = opts.users;
    cfg.m = opts.m;
    cfg
}

/// Load the real dataset named by `--ratings` (format per `--dataset`),
/// or `None` when the synthetic pipeline should run.
fn load_real_dataset(opts: &Opts) -> Result<Option<Dataset>, String> {
    let Some(ratings) = &opts.ratings else {
        return Ok(None);
    };
    let format = match opts.dataset {
        DatasetKind::MovielensLike => RatingsFormat::MovielensDat,
        DatasetKind::LastfmLike => RatingsFormat::LastfmTsv,
    };
    let pre_cfg = PreprocessConfig { min_count: 5, dedup_consecutive: true };
    let loaded = load_dataset_from_files(
        format,
        std::path::Path::new(ratings),
        opts.movies.as_deref().map(std::path::Path::new),
        &pre_cfg,
    )
    .map_err(|e| format!("cannot load {ratings}: {e}"))?;
    if loaded.skipped > 0 {
        eprintln!("note: skipped {} malformed lines in {ratings}", loaded.skipped);
    }
    eprintln!(
        "loaded {}: {} users, {} items, {} interactions",
        ratings,
        loaded.records.num_users,
        loaded.records.num_items,
        loaded.records.num_interactions()
    );
    Ok(Some(loaded.records))
}

/// Build the harness, printing the error and mapping it to a failure
/// exit code (the shared front door of every harness-driven command).
fn build_harness(opts: &Opts) -> Result<Harness, ExitCode> {
    let cfg = harness_config(opts);
    let dataset = load_real_dataset(opts).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    Ok(match dataset {
        Some(dataset) => Harness::build_with_dataset(cfg, dataset),
        None => Harness::build(cfg),
    })
}

/// The dataset alone (no split / item2vec) — what `serve` needs to
/// reconstruct the snapshot architecture.
fn build_dataset(opts: &Opts) -> Result<(Dataset, HarnessConfig), String> {
    let cfg = harness_config(opts);
    let dataset = match load_real_dataset(opts)? {
        Some(d) => d,
        None => Harness::synth_dataset(&cfg),
    };
    Ok((dataset, cfg))
}

fn irn_config(h: &Harness) -> IrnConfig {
    h.irn_config()
}

fn cmd_stats(opts: &Opts) -> ExitCode {
    let h = match build_harness(opts) {
        Ok(h) => h,
        Err(code) => return code,
    };
    let s = dataset_stats(&h.dataset);
    println!(
        "{:<16} {:>7} {:>7} {:>12} {:>9} {:>11}",
        "dataset", "users", "items", "interactions", "density", "items/user"
    );
    println!("{s}");
    println!(
        "\nsplit: {} train / {} val subsequences, {} test users",
        h.split.train.len(),
        h.split.val.len(),
        h.split.test.len()
    );
    ExitCode::SUCCESS
}

fn cmd_train(opts: &Opts) -> ExitCode {
    let Some(out_path) = &opts.model_out else {
        eprintln!("train requires --model-out FILE");
        return ExitCode::from(2);
    };
    let h = match build_harness(opts) {
        Ok(h) => h,
        Err(code) => return code,
    };
    eprintln!("training IRN on {} ({} train subsequences)...", h.dataset.name, h.split.train.len());
    let irn = h.train_irn();
    let file = match std::fs::File::create(out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = irn.save(std::io::BufWriter::new(file)) {
        eprintln!("save failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("model written to {out_path}");
    println!("val loss: {:.4}", irn.dataset_loss(&h.split.val));
    ExitCode::SUCCESS
}

fn load_model(opts: &Opts, h: &Harness) -> Result<Irn, String> {
    let Some(path) = &opts.model else {
        return Err("this command requires --model FILE (create one with `irs train`)".into());
    };
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut config = irn_config(h);
    config.layout = opts.layout;
    Irn::load(std::io::BufReader::new(file), h.dataset.num_items, h.dataset.num_users, &config)
        .map_err(|e| format!("load failed: {e}"))
}

fn paths_for(h: &Harness, irn: &Irn, m: usize) -> Vec<PathRecord> {
    h.generate_paths(irn, m)
}

fn cmd_generate(opts: &Opts) -> ExitCode {
    let h = match build_harness(opts) {
        Ok(h) => h,
        Err(code) => return code,
    };
    let irn = match load_model(opts, &h) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (test, objectives) = h.test_slice();
    for (tc, &obj) in test.iter().zip(&objectives) {
        let path = generate_influence_path(&irn, tc.user, &tc.history, obj, opts.m);
        let reached = path.last() == Some(&obj);
        println!(
            "user {:>4}  objective {:<28} [{}] {}",
            tc.user,
            h.dataset.item_name(obj),
            h.dataset.genre_label(obj),
            if reached { "REACHED" } else { "" }
        );
        for &item in &path {
            println!("    -> {:<28} [{}]", h.dataset.item_name(item), h.dataset.genre_label(item));
        }
    }
    ExitCode::SUCCESS
}

fn cmd_evaluate(opts: &Opts) -> ExitCode {
    let h = match build_harness(opts) {
        Ok(h) => h,
        Err(code) => return code,
    };
    let irn = match load_model(opts, &h) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("training evaluator (Bert4Rec)...");
    let evaluator = Evaluator::new(h.train_bert4rec());
    let paths = paths_for(&h, &irn, opts.m);
    let metrics = evaluate_paths(&evaluator, &paths);
    println!("IRN on {} over {} users: {metrics}", h.dataset.name, paths.len());
    ExitCode::SUCCESS
}

fn cmd_serve(opts: &Opts) -> ExitCode {
    let Some(model_path) = &opts.model else {
        eprintln!("serve requires --model FILE (create one with `irs train`)");
        return ExitCode::from(2);
    };
    // Validate here so bad values exit 2 with a message like every other
    // flag error instead of tripping Engine::start's asserts.
    if opts.max_batch == 0 || opts.workers == 0 {
        eprintln!("serve requires --max-batch >= 1 and --workers >= 1");
        return ExitCode::from(2);
    }
    let (dataset, cfg) = match build_dataset(opts) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Layout is a scoring-path choice, not an architecture difference:
    // the same IRSP weights load under either, so any trained snapshot
    // can be served append-only (which is what enables caching).
    let mut irn_cfg = cfg.irn_config();
    irn_cfg.layout = opts.layout;
    // The online trainer (if enabled) boots its student from the same
    // IRSP file under the same config; clone before `arch` takes it.
    let student_cfg = irn_cfg.clone();
    let arch = IrnArchitecture {
        num_items: dataset.num_items,
        num_users: dataset.num_users,
        config: irn_cfg,
    };
    let initial = match arch.load_snapshot(model_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load snapshot {model_path}: {e}");
            eprintln!("(serve must be given the same --dataset/--scale flags as the train run)");
            return ExitCode::FAILURE;
        }
    };
    let label = initial.label.clone();
    let registry = Arc::new(SnapshotRegistry::new(initial));
    let engine = Arc::new(Engine::start(
        registry.clone(),
        BatchPolicy { max_batch: opts.max_batch, workers: opts.workers, queue_capacity: 1024 },
    ));
    let loader: SnapshotLoader = Arc::new(move |path: &str| arch.load_snapshot(path));
    let session_ttl = (opts.session_ttl_s > 0).then(|| Duration::from_secs(opts.session_ttl_s));
    let server = match HttpServer::bind(
        &format!("127.0.0.1:{}", opts.port),
        engine.clone(),
        Some(loader),
        ServerConfig {
            max_len: opts.m,
            patience: opts.patience,
            session_shards: 16,
            session_ttl,
            http_workers: opts.http_workers,
            idle_timeout: Duration::from_secs(opts.idle_timeout_s.max(1)),
            context_cache_mb: opts.context_cache_mb,
            layout: Some(opts.layout),
            ..Default::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind port {}: {e}", opts.port);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => log_info!(
            "serve",
            "serving {label} on http://{addr} ({} items, {} users; max_batch {}, {} workers)",
            dataset.num_items,
            dataset.num_users,
            opts.max_batch,
            opts.workers
        ),
        Err(e) => {
            log_error!("serve", "cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match session_ttl {
        Some(ttl) => log_info!("serve", "idle sessions evicted after {} s", ttl.as_secs()),
        None => log_info!("serve", "session TTL disabled (--session-ttl-s 0)"),
    }
    // Same vocabulary `/v1/stats` uses (`layout`, `context_cache_budget_mb`)
    // so logs and stats can be correlated line for line.
    log_info!(
        "serve",
        "encoding layout {}; context cache budget {} MiB",
        layout_name(Some(opts.layout)),
        opts.context_cache_mb
    );
    if opts.context_cache_mb == 0 {
        log_info!("serve", "context caching disabled (--context-cache-mb 0)");
    } else if opts.layout == EncodingLayout::PrePadded {
        log_info!(
            "serve",
            "note: the prepadded layout cannot cache — serve with --layout append \
             to enable incremental steps"
        );
    }
    if opts.online_train {
        let bytes = match std::fs::read(model_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot re-read {model_path} for the online trainer: {e}");
                engine.shutdown();
                return ExitCode::FAILURE;
            }
        };
        let (num_items, num_users) = (dataset.num_items, dataset.num_users);
        let online = OnlineHandle::start(
            registry,
            OnlineConfig {
                publish_every: Duration::from_secs(opts.publish_every_s.max(1)),
                replay_cap: opts.replay_cap.max(1),
            },
            move || {
                let student = Irn::load(&bytes[..], num_items, num_users, &student_cfg)
                    .expect("student model loads: the serving snapshot already did");
                Box::new(IrnOnlineLearner::new(student)) as Box<dyn OnlineLearner>
            },
        );
        server.set_online(online);
        log_info!(
            "serve",
            "online trainer on: publish every {} s when dirty, replay cap {} events \
             (canary lands on arm 1; POST /v1/admin/split to route traffic)",
            opts.publish_every_s.max(1),
            opts.replay_cap.max(1)
        );
    }
    log_info!("serve", "POST /v1/admin/shutdown to stop");
    let handle = match server.handle() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot create server handle: {e}");
            engine.shutdown();
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = server.run() {
        log_error!("serve", "server error: {e}");
        engine.shutdown();
        return ExitCode::FAILURE;
    }
    let stats = engine.stats();
    engine.shutdown();
    log_info!(
        "serve",
        "shutdown: {} requests in {} batches (mean batch {:.2}); {} idle sessions evicted, {} still live",
        stats.requests,
        stats.batches,
        stats.mean_batch(),
        handle.evicted_sessions(),
        handle.live_sessions()
    );
    log_info!(
        "serve",
        "context cache: {} hits, {} misses, {} invalidated on swap, {} evicted ({} bytes resident)",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_invalidations,
        handle.cache_evictions(),
        handle.cache_resident_bytes()
    );
    ExitCode::SUCCESS
}

fn cmd_demo(opts: &Opts) -> ExitCode {
    let mut opts = Opts { users: 10, ..parse_defaults(opts) };
    opts.scale = Some(opts.scale.unwrap_or(0.03));
    let h = match build_harness(&opts) {
        Ok(h) => h,
        Err(code) => return code,
    };
    eprintln!("training IRN + evaluator at demo scale...");
    let irn = h.train_irn();
    let evaluator = Evaluator::new(h.train_bert4rec());
    let paths = paths_for(&h, &irn, opts.m.min(10));
    let metrics = evaluate_paths(&evaluator, &paths);
    println!("{metrics}");
    if let Some(rec) = paths.iter().find(|p| p.success()) {
        println!("\nexample successful path (user {}):", rec.user);
        for &item in &rec.path {
            println!("  -> {:<28} [{}]", h.dataset.item_name(item), h.dataset.genre_label(item));
        }
    }
    ExitCode::SUCCESS
}

fn parse_defaults(opts: &Opts) -> Opts {
    Opts {
        command: opts.command.clone(),
        dataset: opts.dataset,
        scale: opts.scale,
        epochs: opts.epochs,
        users: opts.users,
        m: opts.m,
        model: opts.model.clone(),
        model_out: opts.model_out.clone(),
        ratings: opts.ratings.clone(),
        movies: opts.movies.clone(),
        port: opts.port,
        max_batch: opts.max_batch,
        workers: opts.workers,
        patience: opts.patience,
        session_ttl_s: opts.session_ttl_s,
        http_workers: opts.http_workers,
        idle_timeout_s: opts.idle_timeout_s,
        context_cache_mb: opts.context_cache_mb,
        layout: opts.layout,
        online_train: opts.online_train,
        publish_every_s: opts.publish_every_s,
        replay_cap: opts.replay_cap,
        log_level: opts.log_level,
        log_format: opts.log_format,
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    influential_rs::obs::log::set_level(opts.log_level);
    influential_rs::obs::log::set_format(opts.log_format);
    match opts.command.as_str() {
        "stats" => cmd_stats(&opts),
        "train" => cmd_train(&opts),
        "generate" => cmd_generate(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "serve" => cmd_serve(&opts),
        "demo" => cmd_demo(&opts),
        _ => usage(),
    }
}
