//! # irs_bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section on
//! the synthetic stand-in datasets (see `DESIGN.md` for the substitution
//! rationale and `EXPERIMENTS.md` for recorded results).
//!
//! Each experiment lives in [`experiments`] as a pure function returning a
//! formatted report string; `src/bin/run_all.rs` regenerates the full set,
//! or the experiments named on its command line (`run_all -- table1`).
//!
//! Scale is controlled by [`harness::HarnessConfig`]: `quick()` finishes in
//! seconds (used by integration tests and the current `EXPERIMENTS.md`
//! report), `standard()` is the minutes-scale preset.  The `IRS_SCALE`
//! environment variable multiplies the dataset scale of the standard
//! preset.  Regenerate the report with
//! `cargo run --release -p irs_bench --bin run_all -- --quick --out EXPERIMENTS.md`.

pub mod experiments;
pub mod harness;

/// Render a Markdown-style table: header row + aligned data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render an ASCII bar chart (one row per labelled value).
pub fn render_bars(title: &str, points: &[(String, f64)], width: usize) -> String {
    let mut out = format!("{title}\n");
    let max = points.iter().map(|&(_, v)| v).fold(f64::MIN_POSITIVE, f64::max);
    let label_w = points.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, v) in points {
        let n = ((v / max) * width as f64).round().max(0.0) as usize;
        out.push_str(&format!("{label:>label_w$} | {} {v:.4}\n", "#".repeat(n)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["Method", "SR"],
            &[vec!["IRN".into(), "0.25".into()], vec!["Dijkstra".into(), "0.06".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Method"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn bars_scale_to_width() {
        let b = render_bars("t", &[("a".into(), 1.0), ("b".into(), 0.5)], 10);
        assert!(b.contains("##########"));
        assert!(b.contains("#####"));
    }
}
