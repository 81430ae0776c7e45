//! CI perf-regression gate over the benchmark artifacts.
//!
//! Usage:
//!
//! ```text
//! cargo run -p irs_bench --bin bench_gate -- [--update] [--baseline PATH] \
//!     [--threshold PREFIX=RATIO]... [FRESH...]
//! ```
//!
//! Every positional argument is a fresh-results file (the artifacts the
//! CI bench steps write via `CRITERION_JSON`); they are merged before
//! the diff, so one checked-in baseline can cover several bench targets
//! (currently `inference`, `tensor_ops`, `serving` and `training`;
//! `path_generation` stays out until its CI medians prove stable — its
//! fresh entries would be reported as `NEW` without gating).  `FRESH` defaults
//! to `BENCH_inference.json`, the baseline to `tests/bench_baseline.json`.
//! The gate fails (exit 1) when any benchmark's fresh median regresses
//! more than its threshold against the baseline *after host-speed
//! normalisation*; `--update` instead rewrites the baseline from the
//! merged fresh files.
//!
//! `--threshold PREFIX=RATIO` (repeatable) widens the gate for every
//! benchmark whose name starts with `PREFIX` (longest matching prefix
//! wins; the default for unmatched names is [`THRESHOLD`]).  CI passes
//! `--threshold serving/=1.50`: the serving suite replays concurrent
//! sessions through the scheduler, and its 5-sample medians on shared
//! runners move far more than the single-threaded inference/tensor
//! medians, so it rides the gate with a 50% margin instead of 25%.
//!
//! ## Threshold choice
//!
//! Two noise sources dominate, and the gate is sized to both:
//!
//! * **Smoke-mode jitter.** CI runs the bench with `CRITERION_SAMPLES=5`;
//!   5-sample medians on shared runners move ±10–15% run to run, so any
//!   margin below ~20% would flake.
//! * **Host speed.** The baseline is recorded on whatever machine last
//!   ran `--update`, which is not the CI runner.  Absolute nanoseconds
//!   are therefore meaningless across the diff; the gate first divides
//!   every per-benchmark ratio by the suite-wide median ratio (the
//!   host-speed factor), leaving only *relative* movement — a benchmark
//!   that got slower than its peers.  The median, not the geometric
//!   mean: a change that speeds up a minority of entries would drag a
//!   mean down until the unchanged rest read as regressions, while the
//!   median moves only once half the entries do.
//!
//! A normalised regression above 25% is far outside observed jitter and
//! far below the signal of a real regression (losing a batched path is
//! 2–8x), so `1.25` catches the failures worth catching without flaking.

use std::process::ExitCode;

/// Maximum tolerated normalised fresh/baseline median ratio.
const THRESHOLD: f64 = 1.25;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let update = args.iter().any(|a| a == "--update");
    args.retain(|a| a != "--update");
    let base_path = match args.iter().position(|a| a == "--baseline") {
        Some(at) => {
            if at + 1 >= args.len() {
                eprintln!("bench_gate: --baseline requires a path");
                return ExitCode::FAILURE;
            }
            let path = args[at + 1].clone();
            args.drain(at..=at + 1);
            path
        }
        None => "tests/bench_baseline.json".to_string(),
    };
    let mut suite_thresholds: Vec<(String, f64)> = Vec::new();
    while let Some(at) = args.iter().position(|a| a == "--threshold") {
        if at + 1 >= args.len() {
            eprintln!("bench_gate: --threshold requires PREFIX=RATIO");
            return ExitCode::FAILURE;
        }
        let spec = args[at + 1].clone();
        args.drain(at..=at + 1);
        match parse_threshold_spec(&spec) {
            Some(pair) => suite_thresholds.push(pair),
            None => {
                eprintln!("bench_gate: bad --threshold spec '{spec}' (want PREFIX=RATIO > 1.0)");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.is_empty() {
        if update {
            // The baseline spans several bench targets; a defaulted
            // `--update` would silently shrink it to the inference
            // entries and the gate would stop covering the rest.
            eprintln!(
                "bench_gate: --update requires explicit fresh files so the merged \
                 baseline keeps covering every gated bench target, e.g.\n\
                 bench_gate: --update BENCH_inference.json BENCH_tensor_ops.json"
            );
            return ExitCode::FAILURE;
        }
        args.push("BENCH_inference.json".to_string());
    }

    // Merge all fresh files; duplicate names across files are a config
    // error (each bench target owns its label prefix).
    let mut fresh: Vec<(String, f64)> = Vec::new();
    for path in &args {
        let parsed = match parse_medians(path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_gate: cannot read fresh results {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if parsed.is_empty() {
            eprintln!("bench_gate: no benchmarks found in {path}");
            return ExitCode::FAILURE;
        }
        for (name, ns) in parsed {
            if fresh.iter().any(|(n, _)| *n == name) {
                eprintln!("bench_gate: benchmark '{name}' appears in more than one fresh file");
                return ExitCode::FAILURE;
            }
            fresh.push((name, ns));
        }
    }

    if update {
        return match write_medians(&base_path, &fresh) {
            Ok(()) => {
                println!(
                    "bench_gate: baseline {base_path} updated from {} ({} benchmarks)",
                    args.join(", "),
                    fresh.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_gate: failed to update {base_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let base_path = base_path.as_str();

    let baseline = match parse_medians(base_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_gate: cannot read baseline {base_path}: {e}");
            eprintln!("bench_gate: record one with `--update` after a bench run");
            return ExitCode::FAILURE;
        }
    };

    // Pair up benchmarks present in both files.
    let mut pairs: Vec<(&str, f64, f64)> = Vec::new();
    let mut missing: Vec<&str> = Vec::new();
    for (name, base_ns) in &baseline {
        match fresh.iter().find(|(n, _)| n == name) {
            Some((_, fresh_ns)) if fresh_ns.is_finite() && *base_ns > 0.0 => {
                pairs.push((name, *base_ns, *fresh_ns));
            }
            _ => missing.push(name),
        }
    }
    for (name, _) in &fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("bench_gate: NEW  {name} (not in baseline; run --update to track it)");
        }
    }
    if !missing.is_empty() {
        eprintln!("bench_gate: benchmarks missing from fresh results: {missing:?}");
        eprintln!("bench_gate: a renamed or dropped benchmark must be re-baselined (--update)");
        return ExitCode::FAILURE;
    }
    if pairs.is_empty() {
        eprintln!(
            "bench_gate: no comparable benchmarks between {} and {base_path}",
            args.join(", ")
        );
        return ExitCode::FAILURE;
    }

    // Host-speed factor: the median fresh/baseline ratio, computed over
    // the default-threshold pairs only — suites granted a widened
    // threshold are noisy by definition, and letting their swing into the
    // factor would eat the tighter suites' margins.  (If every pair has a
    // widened threshold, fall back to all of them.)
    let all_pairs: Vec<&(&str, f64, f64)> = pairs.iter().collect();
    let default_pairs: Vec<&(&str, f64, f64)> = pairs
        .iter()
        .filter(|(name, _, _)| threshold_for(name, &suite_thresholds) == THRESHOLD)
        .collect();
    let host_pairs: &[&(&str, f64, f64)] =
        if default_pairs.is_empty() { &all_pairs } else { &default_pairs };
    let host_ratios: Vec<f64> = host_pairs.iter().map(|(_, b, f)| f / b).collect();
    let host = host_factor(&host_ratios);
    println!(
        "bench_gate: host-speed factor {host:.3} (median ratio) over {} default-threshold benchmarks",
        host_pairs.len()
    );

    let mut failed = false;
    for (name, base_ns, fresh_ns) in &pairs {
        let threshold = threshold_for(name, &suite_thresholds);
        let norm = (fresh_ns / base_ns) / host;
        let verdict = if norm > threshold {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {verdict:<9} {name:<42} baseline {:>12.0} ns, fresh {:>12.0} ns, normalised ratio {norm:.2} (max {threshold:.2})",
            base_ns, fresh_ns
        );
    }
    if failed {
        eprintln!(
            "bench_gate: FAILED — at least one benchmark regressed past its threshold after host normalisation"
        );
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all benchmarks within their thresholds (default {THRESHOLD}x)");
        ExitCode::SUCCESS
    }
}

/// The host-speed factor of a set of fresh/baseline ratios: their
/// median, or the geometric mean of the two middle ones for an even
/// count.  `ratios` must be non-empty.
fn host_factor(ratios: &[f64]) -> f64 {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] * sorted[mid]).sqrt()
    }
}

/// Parse a `PREFIX=RATIO` suite-threshold spec.
fn parse_threshold_spec(spec: &str) -> Option<(String, f64)> {
    let (prefix, ratio) = spec.split_once('=')?;
    let ratio: f64 = ratio.trim().parse().ok()?;
    if prefix.is_empty() || !ratio.is_finite() || ratio <= 1.0 {
        return None;
    }
    Some((prefix.to_string(), ratio))
}

/// The threshold for `name`: the longest matching `--threshold` prefix
/// wins, falling back to the suite-wide default.
fn threshold_for(name: &str, suites: &[(String, f64)]) -> f64 {
    suites
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix.as_str()))
        .max_by_key(|(prefix, _)| prefix.len())
        .map_or(THRESHOLD, |(_, ratio)| *ratio)
}

/// Write medians in the criterion shim's artifact format (the merged
/// baseline `--update` produces).
fn write_medians(path: &str, medians: &[(String, f64)]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, (name, ns)) in medians.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"median_ns\": {ns:.1} }}{}\n",
            if i + 1 < medians.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Parse the criterion shim's JSON artifact: one
/// `{ "name": "...", "median_ns": ... }` object per line.  Hand-rolled
/// because the offline dependency set has no JSON crate — the format is
/// produced by `criterion::write_json_if_requested` and is line-regular
/// by construction.
fn parse_medians(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\":") else { continue };
        let rest = &line[name_at + "\"name\":".len()..];
        let Some(open) = rest.find('"') else { continue };
        let Some(close) = rest[open + 1..].find('"') else { continue };
        let name = &rest[open + 1..open + 1 + close];
        let Some(med_at) = line.find("\"median_ns\":") else { continue };
        let num = line[med_at + "\"median_ns\":".len()..]
            .trim_start()
            .trim_end_matches(['}', ',', ' '])
            .trim();
        let ns: f64 = num.parse().map_err(|e| format!("bad median for {name}: {num:?} ({e})"))?;
        out.push((name.to_string(), ns));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{
        host_factor, parse_medians, parse_threshold_spec, threshold_for, write_medians, THRESHOLD,
    };

    #[test]
    fn host_factor_is_the_median_ratio() {
        assert_eq!(host_factor(&[3.0, 1.0, 2.0]), 2.0);
        // An even count takes the geometric mean of the two middle ratios.
        assert_eq!(host_factor(&[4.0, 0.5, 1.0, 100.0]), 2.0);
        assert_eq!(host_factor(&[0.7]), 0.7);
    }

    #[test]
    fn a_faster_minority_does_not_flag_unchanged_entries() {
        // 18 default-threshold entries: 8 run twice as fast, 9 are
        // unchanged and one unchanged entry reads a raw ratio of 1.2.
        let mut ratios = vec![0.5; 8];
        ratios.extend([1.0; 9]);
        ratios.push(1.2);
        let host = host_factor(&ratios);
        assert_eq!(host, 1.0);
        assert!(1.2 / host <= THRESHOLD, "the median leaves the 1.2 entry unflagged");
        // A geometric mean would be dragged down to 0.742 by the faster
        // minority and flag the entry at 1.62.
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        assert!(1.2 / geomean > THRESHOLD);
        assert!((1.2 / geomean - 1.62).abs() < 0.005);
    }

    #[test]
    fn threshold_specs_parse_and_reject_garbage() {
        assert_eq!(parse_threshold_spec("serving/=1.5"), Some(("serving/".to_string(), 1.5)));
        assert_eq!(parse_threshold_spec("a=2"), Some(("a".to_string(), 2.0)));
        assert_eq!(parse_threshold_spec("=1.5"), None, "empty prefix");
        assert_eq!(parse_threshold_spec("a=0.9"), None, "a threshold below 1 always fails");
        assert_eq!(parse_threshold_spec("a=nope"), None);
        assert_eq!(parse_threshold_spec("noequals"), None);
    }

    #[test]
    fn longest_matching_prefix_wins() {
        let suites = vec![("serving/".to_string(), 1.5), ("serving/micro".to_string(), 2.0)];
        assert_eq!(threshold_for("serving/scalar_b1_32sessions", &suites), 1.5);
        assert_eq!(threshold_for("serving/microbatch_16_32sessions", &suites), 2.0);
        assert_eq!(threshold_for("irn/score_next_batch_16", &suites), THRESHOLD);
    }

    #[test]
    fn write_then_parse_round_trips() {
        let dir = std::env::temp_dir().join("bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merged.json");
        let medians = vec![
            ("irn/score_next_batch_16".to_string(), 504866.0),
            ("matmul/64".to_string(), 12345.5),
        ];
        write_medians(path.to_str().unwrap(), &medians).unwrap();
        let parsed = parse_medians(path.to_str().unwrap()).unwrap();
        assert_eq!(parsed, medians);
    }

    #[test]
    fn parses_shim_artifact_format() {
        let dir = std::env::temp_dir().join("bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.json");
        std::fs::write(
            &path,
            "{\n  \"benchmarks\": [\n    { \"name\": \"irn/a\", \"median_ns\": 120.5 },\n    { \"name\": \"irn/b\", \"median_ns\": 99 }\n  ]\n}\n",
        )
        .unwrap();
        let parsed = parse_medians(path.to_str().unwrap()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "irn/a");
        assert!((parsed[0].1 - 120.5).abs() < 1e-9);
        assert_eq!(parsed[1].0, "irn/b");
    }
}
