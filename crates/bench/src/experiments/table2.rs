//! Table II — performance of the IRS evaluator candidates (HR@20, MRR).
//!
//! Trains GRU4Rec, Caser, SASRec and Bert4Rec on each dataset and ranks
//! them on the held-out next-item task.  The paper picks its winner,
//! Bert4Rec, as the evaluator.  Every other experiment here scores paths
//! with Bert4Rec ([`crate::harness::Harness::train_bert4rec`]) whichever
//! candidate wins this run, so the report names the HR@20 winner only as
//! such.

use irs_baselines::SequentialScorer;
use irs_eval::next_item_metrics;

use crate::render_table;

/// Regenerate Table II.  Returns the report; the HR@20 winner per
/// dataset and the evaluator the other tables use are stated below it.
pub fn run(standard: bool) -> String {
    run_at(super::Fidelity::from_standard(standard))
}

/// Regenerate Table II at an explicit fidelity.
pub fn run_at(fidelity: super::Fidelity) -> String {
    let harnesses = super::both_harnesses(fidelity);
    let mut headers: Vec<String> = vec!["Method".into()];
    for h in &harnesses {
        headers.push(format!("{} HR@20", h.config.kind.label()));
        headers.push("MRR".into());
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    // rows[model][dataset] = (hr, mrr)
    let model_names = ["GRU4Rec", "Caser", "SASRec", "Bert4Rec"];
    let mut cells: Vec<Vec<String>> = model_names.iter().map(|n| vec![n.to_string()]).collect();
    let mut winners = Vec::new();

    for h in &harnesses {
        let (test, _) = h.test_slice();
        let gru = h.train_gru4rec();
        let caser = h.train_caser();
        let sasrec = h.train_sasrec();
        let bert = h.train_bert4rec();
        let scorers: Vec<&dyn SequentialScorer> = vec![&gru, &caser, &sasrec, &bert];
        let mut best = (f64::MIN, "");
        for (row, scorer) in cells.iter_mut().zip(&scorers) {
            let m = next_item_metrics(scorer, &test, 20);
            row.push(format!("{:.4}", m.hr));
            row.push(format!("{:.4}", m.mrr));
            if m.hr > best.0 {
                best = (m.hr, scorer.name());
            }
        }
        winners.push(format!("{}: {}", h.config.kind.label(), best.1));
    }

    format!(
        "## Table II — IRS evaluator candidates (HR@20 / MRR)\n\n{}\nHR@20 winner — {}\n\n\
         Every other table scores paths with Bert4Rec, the paper's evaluator.\n",
        render_table(&header_refs, &cells),
        winners.join("; ")
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn tiny_run_reports_all_candidates() {
        let out = super::run_at(crate::experiments::Fidelity::Tiny);
        for name in ["GRU4Rec", "Caser", "SASRec", "Bert4Rec", "HR@20 winner"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(
            out.contains("scores paths with Bert4Rec, the paper's evaluator"),
            "the evaluator the other tables use must be named:\n{out}"
        );
        assert!(!out.contains("Selected evaluator"), "the winner is not the evaluator:\n{out}");
    }
}
