//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness. Each benchmark warms up briefly, then runs a fixed
//! number of timed samples and reports the median time per iteration to
//! stdout. No statistical analysis, plots, or baselines — just honest
//! wall-clock medians, which is enough for the relative comparisons the
//! `EXPERIMENTS.md` performance notes make.
//!
//! Used with `harness = false` bench targets and the usual
//! `criterion_group!` / `criterion_main!` pair.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::Instant;

pub use std::hint::black_box;

const DEFAULT_SAMPLES: usize = 15;

/// Every `(label, median_ns)` measured so far in this process.
static RESULTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Results recorded so far — lets a bench target compare its own
/// measurements (e.g. assert a batched/scalar speed-up) without re-timing.
pub fn recorded_results() -> Vec<(String, f64)> {
    RESULTS.lock().expect("results poisoned").clone()
}

/// Write all recorded results as JSON to the path named by the
/// `CRITERION_JSON` environment variable (no-op when unset).  Called by
/// the `criterion_main!`-generated `main` after all groups finish, so CI
/// can upload a machine-readable artifact next to the stdout report.
pub fn write_json_if_requested() {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let results = RESULTS.lock().expect("results poisoned");
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, (label, ns)) in results.iter().enumerate() {
        let escaped: String =
            label.chars().map(|c| if c == '"' || c == '\\' { '_' } else { c }).collect();
        out.push_str(&format!(
            "    {{ \"name\": \"{escaped}\", \"median_ns\": {ns:.1} }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("criterion shim: failed to write {path}: {e}");
    }
}

/// Identifier for a parameterised benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    median_ns: f64,
}

impl Bencher {
    /// Time `routine`: a short warm-up, then `samples` timed runs; the
    /// median is what gets reported.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..2 {
            black_box(routine());
        }
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            times.push(start.elapsed().as_nanos() as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        self.median_ns = times[times.len() / 2];
    }
}

/// The sample count of a benchmark whose group asks for `default`: a
/// `CRITERION_SAMPLES` value that parses as a count replaces it (CI's
/// smoke mode sets 5 for trend data; a comparison may set more).
fn sample_count(env: Option<&str>, default: usize) -> usize {
    env.and_then(|v| v.parse::<usize>().ok()).map_or(default, |n| n.max(1))
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let samples = sample_count(std::env::var("CRITERION_SAMPLES").ok().as_deref(), samples);
    let mut b = Bencher { samples, median_ns: f64::NAN };
    f(&mut b);
    let ns = b.median_ns;
    RESULTS.lock().expect("results poisoned").push((label.to_string(), ns));
    let pretty = if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    };
    println!("bench: {label:<40} median {pretty}/iter ({samples} samples)");
}

/// Top-level harness: owns default settings, hands out groups.
pub struct Criterion {
    sample_count: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_count: DEFAULT_SAMPLES }
    }
}

impl Criterion {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(1);
        self
    }

    pub fn bench_function(
        &mut self,
        name: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&name.to_string(), self.sample_count, &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), sample_count: self.sample_count, _parent: self }
    }
}

/// A named collection of related benchmarks (shares a `sample_size`).
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_count: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(1);
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_count, &mut f);
        self
    }

    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_count, &mut |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `fn main` running the given groups (for `harness = false` targets),
/// then dump a JSON summary when `CRITERION_JSON` is set.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_if_requested();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_reports() {
        let mut c = Criterion::default();
        c.sample_size(3).bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn criterion_samples_sets_the_sample_count() {
        assert_eq!(sample_count(None, 15), 15);
        assert_eq!(sample_count(Some("5"), 15), 5);
        assert_eq!(sample_count(Some("60"), 15), 60);
        assert_eq!(sample_count(Some("0"), 10), 1);
        assert_eq!(sample_count(Some("many"), 10), 10);
    }

    #[test]
    fn group_api_works() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("f", |b| b.iter(|| black_box(2) * 2));
        g.bench_with_input(BenchmarkId::from_parameter(8), &8usize, |b, &n| b.iter(|| n * n));
        g.finish();
    }
}
