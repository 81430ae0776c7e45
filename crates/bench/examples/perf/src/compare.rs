//! `perf compare PARENT CHANGE`: judge a change against its parent from
//! two directories of untraced result files.
//!
//! Runs pair up by workload and seed (run the two sides alternately, one
//! seed per pair).  For every (end-to-end metric, workload):
//!
//! * **better** — with at least ten pairs, the change wins at least 9 of
//!   10 (ties count for neither) and the medians differ by more than the
//!   parent's inter-quartile range;
//! * **unresolved** — otherwise, when either side's spread (IQR over the
//!   median) is wider than the metric's bound, unless every change run
//!   beats every parent run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound;
//! * **same** — within the bound.
//!
//! Bounds and directions come from `BENCHMARK.json`.  Exits 1 when any
//! row is `worse`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use irs_serve::JsonValue;

use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Pairs needed before a gain may be claimed.
const MIN_PAIRS: usize = 10;

/// Judge paired samples (`parent[i]` ran alongside `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], higher_better: bool, bound: f64) -> Verdict {
    assert_eq!(parent.len(), change.len(), "runs must pair up");
    assert!(!parent.is_empty(), "no pairs to compare");
    let gain = |p: f64, c: f64| if higher_better { c - p } else { p - c };
    let wins = parent.iter().zip(change).filter(|(p, c)| gain(**p, **c) > 0.0).count();
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    if parent.len() >= MIN_PAIRS && wins * 10 >= parent.len() * 9 && gain(mp, mc) > q3 - q1 {
        Verdict::Better
    } else if (spread(parent) > bound || spread(change) > bound) && !all_better {
        Verdict::Unresolved
    } else if -gain(mp, mc) / mp.abs() > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// End-to-end metric name → (higher is better, bound).
fn load_bounds(path: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = json.get("end_to_end").and_then(JsonValue::as_arr).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str).ok_or("metric without a name")?;
            let better =
                m.get("better").and_then(JsonValue::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(JsonValue::as_f64).ok_or("metric without bound")?;
            Ok((name.to_string(), better == "higher", bound))
        })
        .collect()
}

/// workload → seed → metric → value, from every untraced result file.
type Results = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn load_results(dir: &Path) -> Result<Results, String> {
    let mut out = Results::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(json) = JsonValue::parse(&text) else { continue };
        let Some(meta) = json.get("meta") else { continue };
        if meta.get("trace").and_then(JsonValue::as_bool) != Some(false) {
            continue;
        }
        let workload = meta.get("workload").and_then(JsonValue::as_str).unwrap_or("?");
        let seed = meta.get("seed").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        let Some(JsonValue::Obj(metrics)) = json.get("end_to_end") else { continue };
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.entry(workload.to_string()).or_default().insert(seed, values);
    }
    Ok(out)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut bench = String::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => bench = p.clone(),
                None => return fail("--benchmark needs a path"),
            },
            dir => dirs.push(dir.to_string()),
        }
    }
    let [parent_dir, change_dir] = dirs.as_slice() else {
        return fail("usage: perf compare <PARENT_DIR> <CHANGE_DIR> [--benchmark BENCHMARK.json]");
    };
    let loaded = load_bounds(Path::new(&bench)).and_then(|b| {
        Ok((b, load_results(Path::new(parent_dir))?, load_results(Path::new(change_dir))?))
    });
    let (bounds, parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    println!(
        "| metric | workload | pairs | parent median | change median | delta | parent spread | \
         change wins | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for (name, higher, bound) in &bounds {
        for (workload, p_runs) in &parent {
            let Some(c_runs) = change.get(workload) else { continue };
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|(seed, p)| Some((*p.get(name)?, *c_runs.get(seed)?.get(name)?)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let (p, c): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let v = verdict(&p, &c, *higher, *bound);
            any_worse |= v == Verdict::Worse;
            let gain = |p: f64, c: f64| if *higher { c > p } else { c < p };
            let wins = p.iter().zip(&c).filter(|(p, c)| gain(**p, **c)).count();
            let (mp, mc) = (median(&p), median(&c));
            println!(
                "| {name} | {workload} | {} | {mp:.4} | {mc:.4} | {:+.2}% | {:.2}% | {wins}/{} | {v:?} |",
                p.len(),
                (mc / mp - 1.0) * 100.0,
                spread(&p) * 100.0,
                p.len(),
            );
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0))).collect()
    }

    #[test]
    fn identical_commits_are_the_same() {
        let p = around(100.0, 10);
        let mut c = p.clone();
        c.reverse();
        assert_eq!(verdict(&p, &c, true, 0.1), Verdict::Same);
    }

    #[test]
    fn a_clear_gain_wins_nine_of_ten_pairs() {
        let p = around(100.0, 10);
        let c: Vec<f64> = p.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&p, &c, true, 0.1), Verdict::Better);
        // Lower-is-better metrics gain by falling.
        let c: Vec<f64> = p.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&p, &c, false, 0.1), Verdict::Better);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        // Three pairs, every change run above every parent run: no claim.
        let p = vec![100.0, 101.0, 99.0];
        let c = vec![110.0, 111.0, 112.0];
        assert_eq!(verdict(&p, &c, true, 0.1), Verdict::Same);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let p = around(100.0, 10);
        let c: Vec<f64> = p.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&p, &c, true, 0.1), Verdict::Worse);
        let c: Vec<f64> = p.iter().map(|v| v * 0.95).collect();
        assert_eq!(verdict(&p, &c, true, 0.1), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_is_better() {
        let p = vec![60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0];
        let c: Vec<f64> = p.iter().rev().map(|v| v * 0.95).collect();
        assert_eq!(verdict(&p, &c, true, 0.1), Verdict::Unresolved);
        // Five wide pairs, every change run above every parent run: no
        // regression, and too few pairs to claim a gain.
        let c: Vec<f64> = p[..5].iter().map(|v| v + 100.0).collect();
        assert_eq!(verdict(&p[..5], &c, true, 0.1), Verdict::Same);
    }
}
