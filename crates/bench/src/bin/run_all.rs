//! Regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! cargo run --release -p irs_bench --bin run_all -- [--quick] [--out FILE] [EXPERIMENT...]
//! ```
//!
//! With no experiment names every table and figure runs, in paper order;
//! otherwise only the named ones: `table1` … `table7`, `fig6` … `fig9`,
//! `ablations`, `extended`.  An unknown name exits 2 and lists the valid
//! names.  `--quick` uses the seconds-scale preset; by default the
//! standard preset is used (scale with the `IRS_SCALE` environment
//! variable).  With `--out FILE` the report is also written to a file
//! (used to refresh `EXPERIMENTS.md`).

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use irs_bench::experiments::{
    ablations, extended, fig6, fig7, fig8, fig9, table1, table2, table3, table4, table5, table6,
    table7,
};

/// An experiment entry point: takes the standard-preset flag, returns the
/// rendered report section.
type ExperimentFn = fn(bool) -> String;

/// Every experiment: command-line name, report title, entry point.
const EXPERIMENTS: [(&str, &str, ExperimentFn); 13] = [
    ("table1", "Table I", table1::run),
    ("table2", "Table II", table2::run),
    ("table3", "Table III", table3::run),
    ("table4", "Table IV", table4::run),
    ("table5", "Table V", table5::run),
    ("table6", "Table VI", table6::run),
    ("table7", "Table VII", table7::run),
    ("fig6", "Figure 6", fig6::run),
    ("fig7", "Figure 7", fig7::run),
    ("fig8", "Figure 8", fig8::run),
    ("fig9", "Figure 9", fig9::run),
    ("ablations", "Ablations", ablations::run),
    ("extended", "Extended", extended::run),
];

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_file = None;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_file = args.next(),
            _ => names.push(arg),
        }
    }
    if let Some(bad) = names.iter().find(|n| !EXPERIMENTS.iter().any(|(name, ..)| name == n)) {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        eprintln!("error: unknown experiment '{bad}'; valid names: {}", valid.join(", "));
        return ExitCode::from(2);
    }

    let mut report = String::new();
    report.push_str(&format!(
        "# IRS reproduction report ({} preset)\n\n",
        if quick { "quick" } else { "standard" }
    ));
    let total = Instant::now();
    for (name, title, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        eprintln!("running {title} ...");
        let t = Instant::now();
        let section = run(!quick);
        report.push_str(&section);
        report.push_str(&format!("\n_{title} regenerated in {:.1?}_\n\n", t.elapsed()));
        eprintln!("  done in {:.1?}", t.elapsed());
    }
    report.push_str(&format!("\nTotal wall-clock: {:.1?}\n", total.elapsed()));

    println!("{report}");
    if let Some(path) = out_file {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(report.as_bytes()).expect("write report");
        eprintln!("report written to {path}");
    }
    ExitCode::SUCCESS
}
