//! Rec2Inf (§III-C): adapt any sequential recommender to the influential
//! task by greedily re-sorting its top-k candidates by distance to the
//! objective item.

use irs_data::{ItemId, UserId};
use irs_embed::ItemDistance;

use crate::{rec_utils::top_k_unseen, InfluenceRecommender, NextQuery};
use irs_baselines::SequentialScorer;

/// The Rec2Inf framework wrapping a backbone scorer and an item-distance
/// function.
pub struct Rec2Inf<S, D> {
    scorer: S,
    distance: D,
    k: usize,
}

impl<S: SequentialScorer, D: ItemDistance> Rec2Inf<S, D> {
    /// Wrap `scorer` with candidate-set size `k` (the paper uses `k = 50`;
    /// `k` doubles as the aggressiveness-degree knob in Fig. 7).
    pub fn new(scorer: S, distance: D, k: usize) -> Self {
        assert!(k >= 1, "candidate set must be non-empty");
        Rec2Inf { scorer, distance, k }
    }

    /// Candidate-set size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Change the candidate-set size (aggressiveness sweep).
    pub fn set_k(&mut self, k: usize) {
        assert!(k >= 1, "candidate set must be non-empty");
        self.k = k;
    }

    /// Access the backbone scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// Greedy Rec2Inf step given precomputed scores: re-sort the top-k
    /// unseen candidates by distance to the objective.
    fn pick(
        &self,
        scores: &[f32],
        history: &[ItemId],
        path: &[ItemId],
        objective: ItemId,
    ) -> Option<ItemId> {
        let candidates = top_k_unseen(scores, self.k, history, path);
        // Ties (e.g. items with identical genre vectors all at distance 0)
        // break in favour of the objective itself — "when k is set to the
        // total number of items, it may recommend the objective item
        // directly which has zero distance to itself" (§IV-D3).
        candidates.into_iter().min_by(|&a, &b| {
            let da = self.distance.distance(a, objective);
            let db = self.distance.distance(b, objective);
            da.partial_cmp(&db)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a != objective).cmp(&(b != objective)))
        })
    }
}

impl<S: SequentialScorer, D: ItemDistance> InfluenceRecommender for Rec2Inf<S, D> {
    fn name(&self) -> String {
        format!("Rec2Inf({})", self.scorer.name())
    }

    fn next_item(
        &self,
        user: UserId,
        history: &[ItemId],
        objective: ItemId,
        path: &[ItemId],
    ) -> Option<ItemId> {
        let mut context = history.to_vec();
        context.extend_from_slice(path);
        let scores = self.scorer.score(user, &context);
        self.pick(&scores, history, path, objective)
    }

    /// One `score_batch` call over all queries, then the greedy re-sort per
    /// query.
    fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
        let (contexts, users) = crate::batched_query_parts(queries);
        let ctx_refs: Vec<&[ItemId]> = contexts.iter().map(Vec::as_slice).collect();
        let scores = self.scorer.score_batch(&users, &ctx_refs);
        out.extend(
            queries.iter().zip(&scores).map(|(q, s)| self.pick(s, q.history, q.path, q.objective)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_influence_path;
    use irs_baselines::Pop;

    /// 1-D coordinate distance: |a − b|.
    struct LineDistance;

    impl ItemDistance for LineDistance {
        fn distance(&self, a: ItemId, b: ItemId) -> f32 {
            (a as f32 - b as f32).abs()
        }
    }

    #[test]
    fn k1_degenerates_to_vanilla_argmax() {
        // Counts make item 9 most popular, then 8, 7, ...
        let pop = Pop::from_counts(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let rec = Rec2Inf::new(pop, LineDistance, 1);
        // With k=1 the only candidate is the most popular unseen item,
        // regardless of the objective.
        let next = rec.next_item(0, &[0], 0, &[]).unwrap();
        assert_eq!(next, 9);
    }

    #[test]
    fn larger_k_moves_toward_objective() {
        let pop = Pop::from_counts(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let rec = Rec2Inf::new(pop, LineDistance, 5);
        // Candidates {9,8,7,6,5}; closest to objective 0 is 5.
        let next = rec.next_item(0, &[0], 0, &[]).unwrap();
        assert_eq!(next, 5);
    }

    #[test]
    fn reaches_objective_when_k_covers_it() {
        let pop = Pop::from_counts(&[10, 9, 8, 7, 6, 5, 4, 3, 2, 1]);
        let rec = Rec2Inf::new(pop, LineDistance, 10);
        let p = generate_influence_path(&rec, 0, &[9], 3, 20);
        assert_eq!(*p.last().unwrap(), 3, "objective inside top-k must be picked directly");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn never_repeats_history_or_path_items() {
        let pop = Pop::from_counts(&[5, 5, 5, 5, 5]);
        let rec = Rec2Inf::new(pop, LineDistance, 5);
        let p = generate_influence_path(&rec, 0, &[0, 1], 4, 10);
        let mut seen = vec![0, 1];
        for &i in &p {
            assert!(!seen.contains(&i), "item {i} repeated");
            seen.push(i);
        }
    }
}
