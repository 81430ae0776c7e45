//! Pf2Inf (§III-B): influence paths as graph path-finding.
//!
//! The last item of the viewing history is taken as the user's recent
//! interest; a path to the objective is found on the item co-occurrence
//! graph with Dijkstra (shortest path) or along the minimum-spanning-tree
//! path (the paper's MST baseline).  The first `M` items along that path
//! (excluding the start vertex) form the influence path.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use irs_data::{ItemId, UserId};
use irs_graph::{dijkstra_path, ItemGraph, MstPaths};

use crate::InfluenceRecommender;

/// Which path-finding algorithm backs the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAlgorithm {
    /// Shortest path (Dijkstra).
    Dijkstra,
    /// Path along the minimum spanning tree.
    Mst,
}

/// Memoised full paths keyed by `(source, objective)`; `None` records an
/// unreachable pair so it is not re-searched.
type PathCache = Mutex<HashMap<(ItemId, ItemId), Option<Vec<ItemId>>>>;

/// The Pf2Inf framework.
pub struct Pf2Inf {
    graph: ItemGraph,
    mst: Option<MstPaths>,
    algorithm: PathAlgorithm,
    cache: PathCache,
}

impl Pf2Inf {
    /// Build from an item graph.
    pub fn new(graph: ItemGraph, algorithm: PathAlgorithm) -> Self {
        let mst = matches!(algorithm, PathAlgorithm::Mst).then(|| MstPaths::build(&graph));
        Pf2Inf { graph, mst, algorithm, cache: Mutex::new(HashMap::new()) }
    }

    /// The underlying item graph.
    pub fn graph(&self) -> &ItemGraph {
        &self.graph
    }

    fn full_path(&self, source: ItemId, objective: ItemId) -> Option<Vec<ItemId>> {
        if let Some(p) =
            self.cache.lock().unwrap_or_else(PoisonError::into_inner).get(&(source, objective))
        {
            return p.clone();
        }
        let path = match self.algorithm {
            PathAlgorithm::Dijkstra => dijkstra_path(&self.graph, source, objective),
            PathAlgorithm::Mst => {
                self.mst.as_ref().expect("MST built in constructor").tree_path(source, objective)
            }
        }
        // Drop the start vertex: the influence path starts after the
        // user's last history item.
        .map(|p| p[1..].to_vec());
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((source, objective), path.clone());
        path
    }
}

impl InfluenceRecommender for Pf2Inf {
    fn name(&self) -> String {
        match self.algorithm {
            PathAlgorithm::Dijkstra => "Pf2Inf(Dijkstra)".into(),
            PathAlgorithm::Mst => "Pf2Inf(MST)".into(),
        }
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

    fn graph() -> ItemGraph {
        // 0-1-2-3-4 line plus a 0-5-4 shortcut.
        ItemGraph::from_sequences(6, &[vec![0, 1, 2, 3, 4], vec![0, 5, 4]])
    }

    #[test]
    fn dijkstra_takes_shortcut() {
        let rec = Pf2Inf::new(graph(), PathAlgorithm::Dijkstra);
        let p = generate_influence_path(&rec, 0, &[3, 0], 4, 10);
        assert_eq!(p, vec![5, 4]);
    }

    #[test]
    fn path_excludes_source_item() {
        let rec = Pf2Inf::new(graph(), PathAlgorithm::Dijkstra);
        let p = generate_influence_path(&rec, 0, &[0], 4, 10);
        assert!(!p.contains(&0), "source (last history item) must not be repeated");
        assert_eq!(*p.last().unwrap(), 4);
    }

    #[test]
    fn unreachable_objective_yields_empty_path() {
        let g = ItemGraph::from_sequences(4, &[vec![0, 1], vec![2, 3]]);
        let rec = Pf2Inf::new(g, PathAlgorithm::Dijkstra);
        let p = generate_influence_path(&rec, 0, &[0], 3, 10);
        assert!(p.is_empty());
    }

    #[test]
    fn budget_truncates_long_paths() {
        let rec = Pf2Inf::new(graph(), PathAlgorithm::Dijkstra);
        let p = generate_influence_path(&rec, 0, &[0], 4, 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn mst_paths_follow_tree_edges() {
        let rec = Pf2Inf::new(graph(), PathAlgorithm::Mst);
        let p = generate_influence_path(&rec, 0, &[0], 4, 10);
        assert!(!p.is_empty());
        assert_eq!(*p.last().unwrap(), 4);
        // Consecutive items on the path must be graph edges.
        let mut prev = 0;
        for &i in &p {
            assert!(rec.graph().has_edge(prev, i));
            prev = i;
        }
    }

    #[test]
    fn empty_history_yields_no_path() {
        let rec = Pf2Inf::new(graph(), PathAlgorithm::Dijkstra);
        assert!(generate_influence_path(&rec, 0, &[], 4, 10).is_empty());
    }
}
