//! IRS path metrics (Eq. 11–14) and next-item metrics (Eq. 18).

use irs_baselines::SequentialScorer;
use irs_data::split::TestCase;
use irs_data::{ItemId, UserId};

use crate::evaluator::Evaluator;

/// One generated influence path with its inputs.
#[derive(Debug, Clone)]
pub struct PathRecord {
    /// The user the path was generated for.
    pub user: UserId,
    /// Viewing history `s_h`.
    pub history: Vec<ItemId>,
    /// The objective item `i_t`.
    pub objective: ItemId,
    /// The generated influence path `s_p` (may be empty).
    pub path: Vec<ItemId>,
}

impl PathRecord {
    /// Whether the path reached the objective.
    pub fn success(&self) -> bool {
        self.path.last() == Some(&self.objective)
    }
}

/// Aggregate IRS metrics over a batch of paths.
#[derive(Debug, Clone, PartialEq)]
pub struct IrsMetrics {
    /// Success rate `SR_M` ∈ [0, 1] (Eq. 11).
    pub sr: f64,
    /// Increase of interest `IoI_M` (Eq. 12).
    pub ioi: f64,
    /// Increment of rank `IoR_M` (Eq. 13).
    pub ior: f64,
    /// Mean log-perplexity of paths (Eq. 14, reported as `log(PPL)`;
    /// lower is smoother).
    pub log_ppl: f64,
    /// Number of paths evaluated.
    pub count: usize,
}

impl std::fmt::Display for IrsMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SR {:.4}  IoI {:+.4}  IoR {:+.1}  log(PPL) {:.3}",
            self.sr, self.ioi, self.ior, self.log_ppl
        )
    }
}

/// Evaluate influence paths with the evaluator (Eq. 11–14).
///
/// * `SR` counts paths whose last item is the objective.
/// * `IoI` is `log P(i_t | s_h ⊕ s_p) − log P(i_t | s_h)` averaged over all
///   paths (empty paths contribute 0).
/// * `IoR` is the (positively oriented) rank improvement of the objective.
/// * `log(PPL)` is `−(1/|s_p|) Σ_k log P(i_k | s_h ⊕ i_{<k})` averaged over
///   non-empty paths.
pub fn evaluate_paths<S: SequentialScorer + Sync>(
    evaluator: &Evaluator<S>,
    paths: &[PathRecord],
) -> IrsMetrics {
    assert!(!paths.is_empty(), "no paths to evaluate");

    // One evaluator row per distinct context.  A path of length n reads
    // the n + 1 contexts `history ⊕ path[..j]`, j = 0..=n: row j gives the
    // log-prob of `path[j]` (a log-PPL step, j < n), and rows 0 and n the
    // objective's log-prob and rank before and after the path (IoI, IoR)
    // — one row for an empty path.
    let mut q_users: Vec<UserId> = Vec::new();
    let mut q_ctxs: Vec<Vec<ItemId>> = Vec::new();
    let mut q_rows: Vec<RowQuery> = Vec::new();
    for rec in paths {
        let mut ctx = rec.history.clone();
        for j in 0..=rec.path.len() {
            let step = rec.path.get(j).copied();
            q_users.push(rec.user);
            q_ctxs.push(ctx.clone());
            q_rows.push(RowQuery {
                objective: rec.objective,
                needs_rank: j == 0 || step.is_none(),
                step,
            });
            ctx.extend(step);
        }
    }

    // One answer per row.  The rows fan out over cores in contiguous
    // ranges, and each worker answers its range in `score_batch` calls of
    // at most CHUNK rows; a row's scores do not depend on the rows batched
    // with it, so every metric's bits match the serial loop.  The chunk
    // bound caps each worker's transient activation memory at ~chunk ×
    // catalogue floats.  A Bert4Rec row costs ~65 µs on one core at the
    // standard MovieLens-like preset, so MIN_ROWS_PER_WORKER rows repay a
    // worker's start-up (tens of µs) many times over.
    const CHUNK: usize = 64;
    const MIN_ROWS_PER_WORKER: usize = 16;
    let answers: Vec<RowAnswer> = irs_tensor::fan_out(q_rows.len(), MIN_ROWS_PER_WORKER, |rows| {
        let mut answers = Vec::with_capacity(rows.len());
        for start in rows.clone().step_by(CHUNK) {
            let end = (start + CHUNK).min(rows.end);
            let refs: Vec<&[ItemId]> = q_ctxs[start..end].iter().map(Vec::as_slice).collect();
            for (scores, q) in
                evaluator.scores_batch(&q_users[start..end], &refs).iter().zip(&q_rows[start..end])
            {
                let lse = irs_tensor::log_sum_exp(scores);
                answers.push(RowAnswer {
                    objective_lp: (scores[q.objective] - lse) as f64,
                    objective_rank: if q.needs_rank {
                        irs_baselines::rank_of(scores, q.objective) as f64
                    } else {
                        f64::NAN
                    },
                    step_lp: q.step.map_or(f64::NAN, |item| (scores[item] - lse) as f64),
                });
            }
        }
        answers
    })
    .into_iter()
    .flatten()
    .collect();

    let mut sr = 0.0f64;
    let mut ioi = 0.0f64;
    let mut ior = 0.0f64;
    let mut log_ppl = 0.0f64;
    let mut ppl_count = 0usize;
    let mut rows = answers.as_slice();
    for rec in paths {
        if rec.success() {
            sr += 1.0;
        }
        let (own, rest) = rows.split_at(rec.path.len() + 1);
        rows = rest;
        let (before, after) = (&own[0], &own[rec.path.len()]);
        ioi += after.objective_lp - before.objective_lp;
        ior += before.objective_rank - after.objective_rank; // −(R_after − R_before)
        if !rec.path.is_empty() {
            let acc: f64 = own[..rec.path.len()].iter().map(|r| r.step_lp).sum();
            log_ppl += -acc / rec.path.len() as f64;
            ppl_count += 1;
        }
    }
    debug_assert!(rows.is_empty(), "query/answer bookkeeping out of sync");

    let n = paths.len() as f64;
    IrsMetrics {
        sr: sr / n,
        ioi: ioi / n,
        ior: ior / n,
        log_ppl: if ppl_count > 0 { log_ppl / ppl_count as f64 } else { f64::NAN },
        count: paths.len(),
    }
}

/// What `evaluate_paths` reads from one evaluator row.
struct RowQuery {
    objective: ItemId,
    /// Whether the objective's rank is read (a path's first or last row).
    needs_rank: bool,
    /// The path item this row's context precedes, if any.
    step: Option<ItemId>,
}

/// One evaluator row's answers to its [`RowQuery`] (`NaN` where not asked).
struct RowAnswer {
    objective_lp: f64,
    objective_rank: f64,
    step_lp: f64,
}

/// Next-item ranking metrics (Eq. 18, plus NDCG@K).
#[derive(Debug, Clone, PartialEq)]
pub struct NextItemMetrics {
    /// Hit ratio at the configured cut-off.
    pub hr: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Normalised discounted cumulative gain at the cut-off (single
    /// relevant item, so `1 / log₂(1 + rank)` when the item is in the
    /// top-K, else 0).
    pub ndcg: f64,
    /// The cut-off `K` used for `hr` and `ndcg`.
    pub k: usize,
}

impl std::fmt::Display for NextItemMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HR@{} {:.4}  MRR {:.4}  NDCG@{} {:.4}",
            self.k, self.hr, self.mrr, self.k, self.ndcg
        )
    }
}

/// Compute `HR@K` / `MRR` / `NDCG@K` of a scorer on held-out next-item
/// test cases.
pub fn next_item_metrics<S: SequentialScorer>(
    scorer: &S,
    test: &[TestCase],
    k: usize,
) -> NextItemMetrics {
    assert!(!test.is_empty(), "no test cases");
    let mut hr = 0.0f64;
    let mut mrr = 0.0f64;
    let mut ndcg = 0.0f64;
    for tc in test {
        let scores = scorer.score(tc.user, &tc.history);
        let rank = irs_baselines::rank_of(&scores, tc.next_item);
        if rank <= k {
            hr += 1.0;
            ndcg += 1.0 / (1.0 + rank as f64).log2();
        }
        mrr += 1.0 / rank as f64;
    }
    let n = test.len() as f64;
    NextItemMetrics { hr: hr / n, mrr: mrr / n, ndcg: ndcg / n, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Evaluator whose scores strongly prefer `seq.last() + 1`.
    struct ChainScorer {
        n: usize,
    }

    impl SequentialScorer for ChainScorer {
        fn num_items(&self) -> usize {
            self.n
        }
        fn score(&self, _u: UserId, h: &[ItemId]) -> Vec<f32> {
            let mut s = vec![0.0f32; self.n];
            if let Some(&last) = h.last() {
                if last + 1 < self.n {
                    s[last + 1] = 6.0;
                }
                if last + 2 < self.n {
                    s[last + 2] = 3.0;
                }
            }
            s
        }
        fn name(&self) -> &'static str {
            "chain"
        }
    }

    fn record(history: Vec<ItemId>, objective: ItemId, path: Vec<ItemId>) -> PathRecord {
        PathRecord { user: 0, history, objective, path }
    }

    #[test]
    fn sr_counts_successes() {
        let ev = Evaluator::new(ChainScorer { n: 10 });
        let paths = vec![record(vec![0], 3, vec![1, 2, 3]), record(vec![0], 5, vec![1, 2])];
        let m = evaluate_paths(&ev, &paths);
        assert!((m.sr - 0.5).abs() < 1e-9);
        assert_eq!(m.count, 2);
    }

    #[test]
    fn ioi_positive_when_path_leads_to_objective() {
        let ev = Evaluator::new(ChainScorer { n: 10 });
        // After path 1,2 the context ends at 2; objective 3 is the top
        // next item => its probability increased vs history [0].
        let paths = vec![record(vec![0], 3, vec![1, 2])];
        let m = evaluate_paths(&ev, &paths);
        assert!(m.ioi > 0.0, "IoI must be positive, got {}", m.ioi);
        assert!(m.ior > 0.0, "IoR must be positive, got {}", m.ior);
    }

    #[test]
    fn smooth_chain_path_has_lower_ppl_than_random_path() {
        let ev = Evaluator::new(ChainScorer { n: 10 });
        let smooth = evaluate_paths(&ev, &[record(vec![0], 9, vec![1, 2, 3])]);
        let rough = evaluate_paths(&ev, &[record(vec![0], 9, vec![7, 4, 9])]);
        assert!(
            smooth.log_ppl < rough.log_ppl,
            "chain-following path must be smoother: {} vs {}",
            smooth.log_ppl,
            rough.log_ppl
        );
    }

    #[test]
    fn empty_paths_leave_ppl_nan_and_zero_ioi() {
        let ev = Evaluator::new(ChainScorer { n: 10 });
        let m = evaluate_paths(&ev, &[record(vec![0], 5, vec![])]);
        assert_eq!(m.sr, 0.0);
        assert!(m.ioi.abs() < 1e-9);
        assert!(m.log_ppl.is_nan());
    }

    /// `ChainScorer` that counts the rows it scores.
    struct Counting {
        inner: ChainScorer,
        rows: AtomicUsize,
    }

    impl SequentialScorer for Counting {
        fn num_items(&self) -> usize {
            self.inner.n
        }
        fn score(&self, u: UserId, h: &[ItemId]) -> Vec<f32> {
            self.rows.fetch_add(1, Ordering::Relaxed);
            self.inner.score(u, h)
        }
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn each_context_is_scored_once_and_metrics_match_row_by_row() {
        let ev =
            Evaluator::new(Counting { inner: ChainScorer { n: 10 }, rows: AtomicUsize::new(0) });
        let paths = vec![
            record(vec![0], 3, vec![1, 2, 3]),
            record(vec![4, 2], 7, vec![]),
            record(vec![5], 9, vec![8, 6]),
        ];
        let m = evaluate_paths(&ev, &paths);
        // |path| + 1 rows per path.
        assert_eq!(ev.scorer().rows.load(Ordering::Relaxed), 4 + 1 + 3);

        // Eq. 12–14 row by row through the scalar accessors.
        let (mut ioi, mut ior, mut log_ppl, mut ppl_count) = (0.0f64, 0.0f64, 0.0f64, 0);
        for rec in &paths {
            let (h, obj) = (&rec.history, rec.objective);
            let full = [h.as_slice(), &rec.path].concat();
            ioi += ev.log_prob(0, &full, obj) as f64 - ev.log_prob(0, h, obj) as f64;
            ior += ev.rank(0, h, obj) as f64 - ev.rank(0, &full, obj) as f64;
            if !rec.path.is_empty() {
                let acc: f64 = (0..rec.path.len())
                    .map(|k| ev.log_prob(0, &full[..h.len() + k], rec.path[k]) as f64)
                    .sum();
                log_ppl += -acc / rec.path.len() as f64;
                ppl_count += 1;
            }
        }
        let n = paths.len() as f64;
        let expected = [1.0 / n, ioi / n, ior / n, log_ppl / ppl_count as f64];
        for (got, want) in [m.sr, m.ioi, m.ior, m.log_ppl].into_iter().zip(expected) {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
    }

    #[test]
    fn metrics_do_not_depend_on_the_worker_count() {
        let ev =
            Evaluator::new(Counting { inner: ChainScorer { n: 40 }, rows: AtomicUsize::new(0) });
        let paths: Vec<PathRecord> = (0..60)
            .map(|i| {
                let path = (1..=i % 6).map(|k| (i + 3 * k) % 40).collect();
                record(vec![i % 40], (7 * i) % 40, path)
            })
            .collect();
        // 210 rows: four 64-row chunks on one worker, 70 rows on each of three.
        let rows: usize = paths.iter().map(|p| p.path.len() + 1).sum();
        assert_eq!(rows, 210);
        let metrics_with = |workers| {
            irs_tensor::set_kernel_threads(Some(workers));
            let m = evaluate_paths(&ev, &paths);
            irs_tensor::set_kernel_threads(None);
            assert_eq!(ev.scorer().rows.swap(0, Ordering::Relaxed), rows);
            (m.count, [m.sr, m.ioi, m.ior, m.log_ppl].map(f64::to_bits))
        };
        assert_eq!(metrics_with(1), metrics_with(3));
    }

    #[test]
    fn next_item_metrics_on_chain() {
        let scorer = ChainScorer { n: 10 };
        let test = vec![
            TestCase { user: 0, history: vec![0, 1], next_item: 2 },
            TestCase { user: 0, history: vec![3], next_item: 5 },
        ];
        let m = next_item_metrics(&scorer, &test, 1);
        // First case: rank 1 hit; second: item 5 = last+2 → rank 2, miss at K=1.
        assert!((m.hr - 0.5).abs() < 1e-9);
        assert!((m.mrr - 0.75).abs() < 1e-9);
        // NDCG@1: only the rank-1 case counts, gain 1/log2(2) = 1.
        assert!((m.ndcg - 0.5).abs() < 1e-9);
        let m20 = next_item_metrics(&scorer, &test, 20);
        assert!((m20.hr - 1.0).abs() < 1e-9);
        assert!(m20.hr >= m.hr, "HR must be monotone in K");
        // NDCG@20: (1 + 1/log2(3)) / 2.
        let expected = (1.0 + 1.0 / 3f64.log2()) / 2.0;
        assert!((m20.ndcg - expected).abs() < 1e-9);
        assert!(m20.ndcg >= m.ndcg, "NDCG must be monotone in K");
    }

    #[test]
    fn ndcg_bounded_by_hr() {
        let scorer = ChainScorer { n: 10 };
        let test = vec![
            TestCase { user: 0, history: vec![0, 1], next_item: 2 },
            TestCase { user: 0, history: vec![3], next_item: 5 },
            TestCase { user: 0, history: vec![7], next_item: 0 },
        ];
        for k in [1, 5, 20] {
            let m = next_item_metrics(&scorer, &test, k);
            assert!(m.ndcg <= m.hr + 1e-12, "NDCG@{k} {} must be ≤ HR@{k} {}", m.ndcg, m.hr);
            assert!(m.ndcg >= 0.0);
        }
    }
}
