//! Vanilla baselines: the unadapted recommender repeatedly recommends its
//! top unseen item, ignoring the objective (§IV-D1, "Vanilla" rows of
//! Table III).

use std::sync::{Mutex, PoisonError};

use irs_data::{ItemId, UserId};

use crate::{rec_utils::top_k_unseen, CacheState, InfluenceRecommender, NextQuery};
use irs_baselines::SequentialScorer;

/// A plain recommender driven solely by the user's current interest.
pub struct Vanilla<S> {
    scorer: S,
    /// Reused context/score buffers for the single-query serve path, so
    /// steady-state requests against an allocation-free scorer (e.g.
    /// [`irs_baselines::Pop`] via `score_into`) allocate nothing.  Held
    /// only while assembling one answer; a trained scorer stays `Sync`.
    scratch: Mutex<VanillaScratch>,
}

#[derive(Default)]
struct VanillaScratch {
    context: Vec<ItemId>,
    scores: Vec<f32>,
}

/// Allocation-free top-1 of [`top_k_unseen`]: the first unseen index
/// attaining the maximum score (matching the stable sort's tie-break
/// toward lower item ids — strictly-greater replacement over an
/// ascending scan).
fn argmax_unseen(scores: &[f32], history: &[ItemId], path: &[ItemId]) -> Option<ItemId> {
    let mut best: Option<(ItemId, f32)> = None;
    for (i, &s) in scores.iter().enumerate() {
        if history.contains(&i) || path.contains(&i) {
            continue;
        }
        if best.is_none_or(|(_, b)| s > b) {
            best = Some((i, s));
        }
    }
    best.map(|(i, _)| i)
}

impl<S: SequentialScorer> Vanilla<S> {
    /// Wrap a scorer.
    pub fn new(scorer: S) -> Self {
        Vanilla { scorer, scratch: Mutex::new(VanillaScratch::default()) }
    }

    /// Access the backbone scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }
}

impl<S: SequentialScorer> InfluenceRecommender for Vanilla<S> {
    fn name(&self) -> String {
        format!("Vanilla({})", self.scorer.name())
    }

    fn next_item(
        &self,
        user: UserId,
        history: &[ItemId],
        _objective: ItemId,
        path: &[ItemId],
    ) -> Option<ItemId> {
        let mut context = history.to_vec();
        context.extend_from_slice(path);
        let scores = self.scorer.score(user, &context);
        top_k_unseen(&scores, 1, history, path).into_iter().next()
    }

    /// Single queries run through the reusable scratch buffers and the
    /// scorer's `score_into` (no allocation in steady state); larger
    /// batches share one `score_batch` call instead of a scalar forward
    /// per query.
    fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
        if let [q] = queries {
            let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
            let VanillaScratch { context, scores } = &mut *scratch;
            context.clear();
            context.extend_from_slice(q.history);
            context.extend_from_slice(q.path);
            self.scorer.score_into(q.user, context, scores);
            out.push(argmax_unseen(scores, q.history, q.path));
            return;
        }
        let (contexts, users) = crate::batched_query_parts(queries);
        let ctx_refs: Vec<&[ItemId]> = contexts.iter().map(Vec::as_slice).collect();
        let scores = self.scorer.score_batch(&users, &ctx_refs);
        out.extend(
            queries
                .iter()
                .zip(&scores)
                .map(|(q, s)| top_k_unseen(s, 1, q.history, q.path).into_iter().next()),
        );
    }

    fn new_context_cache(&self) -> Option<Box<dyn CacheState>> {
        self.scorer.new_incremental_state()
    }

    fn next_item_cached(
        &self,
        query: &NextQuery<'_>,
        cache: &mut dyn CacheState,
    ) -> (Option<ItemId>, bool) {
        let mut context = query.history.to_vec();
        context.extend_from_slice(query.path);
        let (scores, hit) = self.scorer.score_incremental(query.user, &context, cache);
        (argmax_unseen(&scores, query.history, query.path), hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_influence_path;
    use irs_baselines::Pop;

    #[test]
    fn recommends_most_popular_unseen_items_in_order() {
        let pop = Pop::from_counts(&[1, 2, 3, 4, 5]);
        let rec = Vanilla::new(pop);
        let p = generate_influence_path(&rec, 0, &[4], 0, 3);
        assert_eq!(p, vec![3, 2, 1]);
    }

    #[test]
    fn reaches_objective_only_by_accident() {
        let pop = Pop::from_counts(&[1, 2, 3, 4, 5]);
        let rec = Vanilla::new(pop);
        // Objective 3 happens to be the top unseen item.
        let p = generate_influence_path(&rec, 0, &[4], 3, 5);
        assert_eq!(p, vec![3]);
    }

    #[test]
    fn single_query_scratch_path_matches_next_item() {
        let pop = Pop::from_counts(&[4, 4, 9, 1, 4]);
        let rec = Vanilla::new(pop);
        for history in [vec![], vec![2], vec![2, 0], vec![0, 1, 2, 3, 4]] {
            let q = NextQuery { user: 0, history: &history, objective: 3, path: &[] };
            let mut out = Vec::new();
            rec.next_items_into(std::slice::from_ref(&q), &mut out);
            assert_eq!(out, vec![rec.next_item(0, &history, 3, &[])], "history {history:?}");
        }
    }

    #[test]
    fn argmax_unseen_ties_break_toward_lower_ids() {
        assert_eq!(argmax_unseen(&[1.0, 2.0, 2.0, 0.5], &[], &[]), Some(1));
        assert_eq!(argmax_unseen(&[1.0, 2.0, 2.0, 0.5], &[1], &[]), Some(2));
        assert_eq!(argmax_unseen(&[1.0], &[0], &[]), None);
    }
}
