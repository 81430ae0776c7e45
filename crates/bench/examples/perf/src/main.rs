//! `perf` — the influential-rs benchmark.
//!
//! ```text
//! perf --workload <train|paths|serve_short|serve_long> [--seed N] [--seconds S]
//!      [--trace 0|1] [--out DIR] [--smoke]
//! perf --list
//! perf compare <PARENT_DIR> <CHANGE_DIR> [--benchmark BENCHMARK.json]
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up several times, runs
//! the workload for `--seconds`, checks the outputs, writes
//! `DIR/<workload>-<seed>.json` and prints one JSON result line last on
//! stdout: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics.  See `README.md` for the metric dictionary.

mod compare;
mod paths;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;
mod vocab;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use irs_bench::harness::{DatasetKind, Harness, HarnessConfig};
use irs_serve::JsonValue;

use stats::{median, percentile, windows, Sample};
use trace::{SpanId, Tracer};

/// Seed of the standard harness preset (`0x9e1`).
const DEFAULT_SEED: u64 = 2529;
/// Windows a timed phase is split into.
const WINDOWS: usize = 5;
/// Complete set-ups per run (`setup_s` is their median): at least
/// `MIN_SETUPS`, and more, up to `MAX_SETUPS`, while they have taken less
/// than `SETUP_BUDGET_S` — a sub-second set-up is noisy.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 10;
const SETUP_BUDGET_S: f64 = 1.5;
/// Alternating untraced and traced slices of a `--trace` timed phase.
const TRACE_SLICES: usize = 10;

/// Everything a workload needs to know about the run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Seconds of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny harness preset and a single set-up, for tests.
    pub smoke: bool,
    pub tracer: Tracer,
}

impl Ctx {
    /// The harness preset, seeded by `--seed`.
    pub fn harness_config(&self) -> HarnessConfig {
        let kind = DatasetKind::MovielensLike;
        let mut cfg =
            if self.smoke { HarnessConfig::tiny(kind) } else { HarnessConfig::standard(kind) };
        cfg.seed = self.seed;
        cfg
    }

    /// Build the harness, recording the build time.
    pub fn build_harness(&self, run: &mut Run, parent: Option<SpanId>) -> Harness {
        let t = Instant::now();
        let h = Harness::build(self.harness_config());
        run.build_s.push(t.elapsed().as_secs_f64());
        self.tracer.record("data.build", parent, t, Instant::now(), 0);
        h
    }

    /// Time one model fit of a set-up.
    pub fn fit<T>(
        &self,
        run: &mut Run,
        name: &'static str,
        parent: Option<SpanId>,
        fit: impl FnOnce() -> T,
    ) -> T {
        let t = Instant::now();
        let model = fit();
        *run.fit_s.last_mut().expect("fit inside a set-up") += t.elapsed().as_secs_f64();
        self.tracer.record(name, parent, t, Instant::now(), 0);
        model
    }

    /// Run a complete set-up several times (the median is `setup_s`) and
    /// keep the last one.  The previous set-up is dropped before the next
    /// starts, outside the timed interval.
    pub fn set_up<T>(
        &self,
        run: &mut Run,
        mut setup: impl FnMut(&mut Run, Option<SpanId>) -> T,
    ) -> T {
        let mut last = None;
        self.tracer.set_on(self.trace);
        let (min, max) = if self.smoke { (1, 1) } else { (MIN_SETUPS, MAX_SETUPS) };
        while run.setup_s.len() < min
            || (run.setup_s.len() < max && run.setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            drop(last.take());
            let t = Instant::now();
            let span = self.tracer.open("setup", None);
            run.fit_s.push(0.0);
            last = Some(setup(run, span));
            self.tracer.close(span, 0);
            run.setup_s.push(t.elapsed().as_secs_f64());
        }
        self.tracer.set_on(false);
        last.expect("at least one set-up")
    }

    /// Whether spans are recorded `elapsed` seconds into the timed phase.
    /// A `--trace` run alternates untraced and traced slices, so drift on
    /// the machine falls on both sides of `obs.trace_overhead` alike.
    pub fn traced_at(&self, elapsed: f64) -> bool {
        self.trace && (elapsed / self.trace_slice()) as u64 % 2 == 1
    }

    /// Length of one untraced or traced slice, seconds.
    pub fn trace_slice(&self) -> f64 {
        self.seconds / TRACE_SLICES as f64
    }
}

/// The timed phase: every completed operation.
pub struct Phase {
    pub secs: f64,
    pub samples: Vec<Sample>,
    /// Seconds spent untraced and traced.
    pub mode_secs: [f64; 2],
}

impl Phase {
    /// Work rate untraced over work rate traced, minus one.
    pub fn trace_overhead(&self) -> f64 {
        let mut units = [0.0; 2];
        for s in &self.samples {
            units[usize::from(s.traced)] += s.units;
        }
        (units[0] / self.mode_secs[0]) / (units[1] / self.mode_secs[1]) - 1.0
    }
}

/// Run operations back to back for `ctx.seconds`.  `op` returns the units
/// of work it completed; its wall time is the latency sample.
pub fn sequential(ctx: &Ctx, mut op: impl FnMut() -> f64) -> Phase {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut mode_secs = [0.0; 2];
    loop {
        let t = Instant::now();
        let elapsed = t.duration_since(start).as_secs_f64();
        if elapsed >= ctx.seconds {
            break;
        }
        let traced = ctx.traced_at(elapsed);
        ctx.tracer.set_on(traced);
        let units = op();
        let end = Instant::now();
        let secs = end.duration_since(t).as_secs_f64();
        mode_secs[usize::from(traced)] += secs;
        samples.push(Sample {
            end: end.duration_since(start).as_secs_f64(),
            latency_ms: Some(secs * 1e3),
            units,
            traced,
        });
    }
    ctx.tracer.set_on(false);
    Phase { secs: ctx.seconds, samples, mode_secs }
}

/// Named output checks.  A check that fails keeps its first message and
/// a count; a failed run prints its result with `"correct": false` and
/// exits non-zero.
#[derive(Default)]
pub struct Checks {
    results: BTreeMap<&'static str, (u64, u64, Option<String>)>,
}

impl Checks {
    pub fn expect(&mut self, name: &'static str, ok: bool, why: impl FnOnce() -> String) {
        let entry = self.results.entry(name).or_default();
        if ok {
            entry.0 += 1;
        } else {
            entry.1 += 1;
            if entry.2.is_none() {
                entry.2 = Some(why());
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        for (name, (ok, bad, why)) in other.results {
            let entry = self.results.entry(name).or_default();
            entry.0 += ok;
            entry.1 += bad;
            if entry.2.is_none() {
                entry.2 = why;
            }
        }
    }

    pub fn all_passed(&self) -> bool {
        self.results.values().all(|r| r.1 == 0)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.results
                .iter()
                .map(|(name, (ok, bad, why))| {
                    let mut fields = vec![
                        ("passed".into(), JsonValue::Num(*ok as f64)),
                        ("failed".into(), JsonValue::Num(*bad as f64)),
                    ];
                    if let Some(why) = why {
                        fields.push(("first_failure".into(), JsonValue::Str(why.clone())));
                    }
                    (name.to_string(), JsonValue::Obj(fields))
                })
                .collect(),
        )
    }
}

/// What a workload measured.
pub struct Run {
    /// Wall of each complete set-up, seconds.
    pub setup_s: Vec<f64>,
    /// `Harness::build` wall of each set-up.
    pub build_s: Vec<f64>,
    /// Model-fitting wall of each set-up.
    pub fit_s: Vec<f64>,
    /// The timed phase.
    pub phase: Option<Phase>,
    /// Percentile that `latency_tail_ms` reports.
    pub tail: f64,
    /// Pool latency samples across windows (sequential workloads with few
    /// operations per window) instead of taking the median of per-window
    /// percentiles (serving).
    pub pooled: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Per-layer values; names the workload does not set read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Further numbers for the result file.
    pub detail: Vec<(String, f64)>,
    /// Wall time of each untimed phase.
    pub walls: Vec<(&'static str, f64)>,
}

impl Run {
    pub fn new(tail: f64, pooled: bool) -> Self {
        Run {
            setup_s: Vec::new(),
            build_s: Vec::new(),
            fit_s: Vec::new(),
            phase: None,
            tail,
            pooled,
            attempted: 0,
            failed: 0,
            checks: Checks::default(),
            layers: BTreeMap::new(),
            detail: Vec::new(),
            walls: Vec::new(),
        }
    }

    /// Operations completed in the timed phase.
    pub fn operations(&self) -> usize {
        self.phase.as_ref().map_or(0, |p| p.samples.len())
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(vocab::PER_LAYER.iter().any(|m| m.name == name), "unknown metric {name}");
        self.layers.insert(name, value);
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.detail.push((name.into(), value));
    }
}

/// One reported value with the samples behind it.
struct Value {
    value: f64,
    samples: usize,
    min: f64,
    max: f64,
}

/// The end-to-end metrics of the timed phase.
fn end_to_end(run: &Run) -> BTreeMap<&'static str, Value> {
    let phase = run.phase.as_ref().expect("every run has a timed phase");
    let ws = windows(&phase.samples, phase.secs, WINDOWS);
    let summary = |vals: Vec<f64>, samples: usize| {
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Value { value: median(&vals), samples, min, max }
    };
    let ops: usize = ws.iter().map(|w| w.latencies_ms.len()).sum();
    let mut out = BTreeMap::new();
    out.insert("throughput", summary(ws.iter().map(stats::Window::rate).collect(), ws.len()));
    if run.pooled {
        let mut all: Vec<f64> = ws.iter().flat_map(|w| w.latencies_ms.iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        for (name, p) in [("latency_p50_ms", 0.5), ("latency_tail_ms", run.tail)] {
            let v = percentile(&all, p);
            out.insert(name, Value { value: v, samples: all.len(), min: v, max: v });
        }
    } else {
        for (name, p) in [("latency_p50_ms", 0.5), ("latency_tail_ms", run.tail)] {
            let per_window = ws.iter().map(|w| percentile(&w.latencies_ms, p)).collect();
            out.insert(name, summary(per_window, ops));
        }
    }
    out.insert("setup_s", summary(run.setup_s.clone(), run.setup_s.len()));
    out
}

/// Peak resident set size of this process (`VmHWM`), MiB.  Reported in
/// the result file only: glibc's per-thread arenas make it spread by
/// about 20% between runs.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `rustc -V` of the toolchain in use, or `"unknown"`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// (so nothing outside the checkout is read), or `"unknown"`.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(branch) => {
            read(&format!(".git/{branch}")).map(|s| s.trim().to_string()).or_else(|| {
                let packed = read(".git/packed-refs")?;
                let line = packed.lines().find(|l| l.ends_with(&format!(" {branch}")))?;
                Some(line.split(' ').next()?.to_string())
            })
        }
    };
    commit.filter(|c| !c.is_empty()).unwrap_or_else(|| "unknown".into())
}

fn num(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Num(v)
    } else {
        JsonValue::Null
    }
}

fn metric_json(value: f64, unit: &str) -> JsonValue {
    JsonValue::Obj(vec![("value".into(), num(value)), ("unit".into(), JsonValue::Str(unit.into()))])
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> &'static str {
    "usage: perf --workload <train|paths|serve_short|serve_long> [--seed N] [--seconds S] \
     [--trace 0|1] [--out DIR] [--smoke]\n       perf --list\n       \
     perf compare <PARENT_DIR> <CHANGE_DIR> [--benchmark BENCHMARK.json]"
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: vocab::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                opts.workload = vocab::WORKLOADS
                    .iter()
                    .find(|d| d.name == w.as_str())
                    .map(|d| d.name)
                    .ok_or_else(|| format!("unknown workload '{w}'"))?;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match it.next_if(|v| v.as_str() == "0" || v.as_str() == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// Run one workload; returns the result line and whether every check
/// passed.
fn run_workload(opts: &Opts) -> Result<(String, bool), String> {
    let started = Instant::now();
    let ctx = Ctx {
        workload: opts.workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        smoke: opts.smoke,
        tracer: Tracer::new(),
    };
    let mut run = match ctx.workload {
        "train" => train::run(&ctx),
        "paths" => paths::run(&ctx),
        "serve_short" => serve::run(&ctx, false),
        "serve_long" => serve::run(&ctx, true),
        other => unreachable!("workload {other} was validated"),
    };
    let e2e = end_to_end(&run);
    if ctx.trace {
        let overhead = run.phase.as_ref().map_or(f64::NAN, Phase::trace_overhead);
        run.layer("obs.trace_overhead", overhead);
    }
    run.layer("data.build_s", median(&run.build_s));
    run.layer("setup.fit_s", median(&run.fit_s));
    let correct = run.checks.all_passed();
    let layer = |name: &str| run.layers.get(name).copied().unwrap_or(0.0);

    let metrics = if ctx.trace {
        vocab::PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), metric_json(layer(m.name), m.unit)))
            .collect()
    } else {
        vocab::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), metric_json(e2e[m.name].value, m.unit)))
            .collect()
    };
    let line = obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(run.attempted.max(1) as f64)),
        ("failed", JsonValue::Num(run.failed as f64)),
        ("metrics", JsonValue::Obj(metrics)),
    ]);

    // The result file: every metric with its samples, the checks, details
    // and run metadata.
    let e2e_json = JsonValue::Obj(
        vocab::END_TO_END
            .iter()
            .map(|m| {
                let v = &e2e[m.name];
                let mut fields = vec![
                    ("value", num(v.value)),
                    ("unit", JsonValue::Str(m.unit.into())),
                    ("samples", JsonValue::Num(v.samples as f64)),
                    ("min", num(v.min)),
                    ("max", num(v.max)),
                ];
                if m.name == "latency_tail_ms" {
                    fields.push(("percentile", num(run.tail)));
                    fields.push((
                        "ten_beyond",
                        JsonValue::Bool(stats::supports(v.samples, run.tail)),
                    ));
                }
                (m.name.to_string(), obj(fields))
            })
            .collect(),
    );
    let layers_json = JsonValue::Obj(
        vocab::PER_LAYER.iter().map(|m| (m.name.to_string(), num(layer(m.name)))).collect(),
    );
    let detail_json =
        JsonValue::Obj(run.detail.iter().map(|(k, v)| (k.clone(), num(*v))).collect());
    let mut walls: Vec<(String, JsonValue)> =
        run.walls.iter().map(|(k, v)| (k.to_string(), num(*v))).collect();
    walls
        .push(("setup_each".into(), JsonValue::Arr(run.setup_s.iter().map(|&s| num(s)).collect())));
    if let Some(p) = &run.phase {
        walls.push(("timed".into(), num(p.samples.last().map_or(0.0, |s| s.end))));
    }
    walls.push(("total".into(), num(started.elapsed().as_secs_f64())));
    let meta = obj(vec![
        ("workload", JsonValue::Str(ctx.workload.into())),
        ("seed", JsonValue::Num(ctx.seed as f64)),
        ("seconds", num(ctx.seconds)),
        ("trace", JsonValue::Bool(ctx.trace)),
        ("smoke", JsonValue::Bool(ctx.smoke)),
        (
            "nproc",
            JsonValue::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("commit", JsonValue::Str(git_commit())),
        ("rustc", JsonValue::Str(rustc_version())),
        ("harness_scale", num(f64::from(ctx.harness_config().scale))),
        ("operations", JsonValue::Num(run.operations() as f64)),
        ("peak_rss_mb", num(peak_rss_mb())),
        ("wall_s", JsonValue::Obj(walls)),
    ]);
    let file = obj(vec![
        ("meta", meta),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(run.attempted as f64)),
        ("failed", JsonValue::Num(run.failed as f64)),
        ("end_to_end", e2e_json),
        ("per_layer", layers_json),
        ("checks", run.checks.to_json()),
        ("detail", detail_json),
    ]);
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;
    let suffix = if ctx.trace { "-traced" } else { "" };
    let path = opts.out.join(format!("{}-{}{suffix}.json", ctx.workload, ctx.seed));
    std::fs::write(&path, format!("{file}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    if ctx.trace {
        let path = opts.out.join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
        std::fs::write(&path, format!("{}\n", ctx.tracer.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // A human-readable summary on stderr; stdout carries only the result.
    eprintln!(
        "{} seed {} ({:.1} s total)",
        ctx.workload,
        ctx.seed,
        started.elapsed().as_secs_f64()
    );
    for m in vocab::END_TO_END {
        let v = &e2e[m.name];
        eprintln!(
            "  {:<16} {:>12.4} {:<4} ({} samples, min {:.4}, max {:.4})",
            m.name, v.value, m.unit, v.samples, v.min, v.max
        );
    }
    for (name, (_, bad, why)) in &run.checks.results {
        if *bad > 0 {
            eprintln!("  CHECK FAILED {name}: {} ({bad} failures)", why.as_deref().unwrap_or(""));
        }
    }
    Ok((line.to_string(), correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", vocab::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare") => compare::main(&args[1..]),
        _ => {
            let opts = match parse_opts(&args) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}\n{}", usage());
                    return ExitCode::from(2);
                }
            };
            match run_workload(&opts) {
                Ok((line, correct)) => {
                    println!("{line}");
                    if correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &JsonValue, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(JsonValue::as_arr)
            .expect("list")
            .iter()
            .map(|m| m.get("name").and_then(JsonValue::as_str).expect("name").to_string())
            .collect()
    }

    #[test]
    fn list_vocabulary_equals_benchmark_json() {
        let listed = JsonValue::parse(&vocab::benchmark_json()).expect("--list output parses");
        let file = benchmark_json();
        assert_eq!(listed, file, "regenerate BENCHMARK.json with `perf --list`");
        let workloads: Vec<&str> = vocab::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&file, "workloads"), workloads);
        let e2e: Vec<&str> = vocab::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&file, "end_to_end"), e2e);
        let layers: Vec<&str> = vocab::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&file, "per_layer"), layers);
    }

    #[test]
    fn vocabulary_obeys_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let all = vocab::END_TO_END.iter().chain(vocab::PER_LAYER);
        for m in all {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in vocab::WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name) && w.why.len() <= 200, "{}", w.name);
        }
        assert!(vocab::END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = vocab::END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        let largest = vocab::END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!((setup.unit, setup.better, setup.bound), ("s", "lower", Some(largest)));
        assert!(vocab::PER_LAYER.len() <= 128 && vocab::END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_carries_the_contract_keys() {
        let opts = parse_opts(&["--workload".into(), "train".into(), "--trace".into(), "1".into()])
            .expect("valid flags");
        assert!(opts.trace);
        assert_eq!((opts.workload, opts.seed), ("train", DEFAULT_SEED));
        assert!(parse_opts(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_opts(&["--seconds".into(), "1".into()]).is_err());
    }

    /// Every workload end to end on the tiny preset: all checks pass and
    /// the result line names every metric.
    #[test]
    fn smoke_runs_every_workload() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".bench_out")
            .join(format!("smoke-{}", std::process::id()));
        for w in vocab::WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: w.name,
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    out: out.clone(),
                };
                let (line, correct) = run_workload(&opts).expect("run completes");
                assert!(correct, "{} checks failed: {line}", w.name);
                let v = JsonValue::parse(&line).expect("result line is JSON");
                let metrics = v.get("metrics").expect("metrics");
                let wanted = if trace { vocab::PER_LAYER } else { vocab::END_TO_END };
                for m in wanted {
                    let value = metrics.get(m.name).and_then(|x| x.get("value"));
                    assert!(
                        value.and_then(JsonValue::as_f64).is_some(),
                        "{} lacks {}",
                        w.name,
                        m.name
                    );
                }
                assert!(v.get("attempted").and_then(JsonValue::as_f64).is_some_and(|a| a >= 1.0));
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
