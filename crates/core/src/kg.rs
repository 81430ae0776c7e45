//! KG-enhanced Pf2Inf — the paper's future-work direction §V-(1) realised
//! on the [`irs_graph::TypedItemGraph`]: influence paths may traverse both
//! behavioural co-occurrence edges and content (shared-genre) edges, with
//! per-relation costs steering how willing the planner is to make a purely
//! semantic hop.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use irs_data::{Dataset, ItemId, UserId};
use irs_graph::{RelationCosts, TypedItemGraph};

use crate::InfluenceRecommender;

/// Memoised full paths keyed by `(source, objective)`; `None` records an
/// unreachable pair so it is not re-searched.
type PathCache = Mutex<HashMap<(ItemId, ItemId), Option<Vec<ItemId>>>>;

/// Pf2Inf over a multi-relational item graph.
pub struct KgPf2Inf {
    graph: TypedItemGraph,
    costs: RelationCosts,
    cache: PathCache,
}

impl KgPf2Inf {
    /// Build from a dataset with the given relation costs.
    pub fn from_dataset(dataset: &Dataset, costs: RelationCosts) -> Self {
        KgPf2Inf {
            graph: TypedItemGraph::from_dataset(dataset, 4),
            costs,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Wrap an existing typed graph.
    pub fn new(graph: TypedItemGraph, costs: RelationCosts) -> Self {
        KgPf2Inf { graph, costs, cache: Mutex::new(HashMap::new()) }
    }

    /// The underlying typed graph.
    pub fn graph(&self) -> &TypedItemGraph {
        &self.graph
    }

    fn full_path(&self, source: ItemId, objective: ItemId) -> Option<Vec<ItemId>> {
        if let Some(p) =
            self.cache.lock().unwrap_or_else(PoisonError::into_inner).get(&(source, objective))
        {
            return p.clone();
        }
        let path =
            self.graph.cheapest_path(source, objective, &self.costs).map(|p| p[1..].to_vec());
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((source, objective), path.clone());
        path
    }
}

impl InfluenceRecommender for KgPf2Inf {
    fn name(&self) -> String {
        "Pf2Inf(KG)".into()
    }

    fn next_item(
        &self,
        _user: UserId,
        history: &[ItemId],
        objective: ItemId,
        path: &[ItemId],
    ) -> Option<ItemId> {
        let source = *history.last()?;
        let full = self.full_path(source, objective)?;
        full.get(path.len()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_influence_path;

    /// Two behavioural islands bridged only by a shared genre.
    fn bridged_dataset() -> Dataset {
        Dataset {
            name: "bridge".into(),
            num_users: 2,
            num_items: 6,
            sequences: vec![vec![0, 1, 2], vec![3, 4, 5]],
            genres: vec![vec![1], vec![1], vec![0], vec![0], vec![2], vec![2]],
            genre_names: vec!["A".into(), "B".into(), "C".into()],
            item_names: vec![],
        }
    }

    #[test]
    fn kg_paths_cross_behavioural_islands() {
        let d = bridged_dataset();
        let rec = KgPf2Inf::from_dataset(&d, RelationCosts::default());
        let p = generate_influence_path(&rec, 0, &[0], 5, 10);
        assert_eq!(*p.last().unwrap(), 5, "KG path must reach the other island");
        // The plain co-occurrence Pf2Inf cannot.
        let plain = crate::Pf2Inf::new(
            irs_graph::ItemGraph::from_sequences(d.num_items, &d.sequences),
            crate::PathAlgorithm::Dijkstra,
        );
        assert!(generate_influence_path(&plain, 0, &[0], 5, 10).is_empty());
    }

    #[test]
    fn budget_and_empty_history_are_handled() {
        let d = bridged_dataset();
        let rec = KgPf2Inf::from_dataset(&d, RelationCosts::default());
        assert!(generate_influence_path(&rec, 0, &[], 5, 10).is_empty());
        let p = generate_influence_path(&rec, 0, &[0], 5, 2);
        assert_eq!(p.len(), 2);
    }
}
