//! # irs_core — the Influential Recommender System
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`Irn`] — the **Influential Recommender Network** (§III-D): a
//!   Transformer decoder whose attention carries the **Personalized
//!   Impressionability Mask** (PIM).  Input sequences are pre-padded so the
//!   objective item sits at a fixed final position; every query position
//!   may additionally attend to that objective column with weight
//!   `w_t · r_u`, where `r_u = W_U · e(u)` is a learned per-user
//!   impressionability factor.
//! * The two adapted frameworks used as baselines: [`Pf2Inf`] (§III-B,
//!   path-finding over the item co-occurrence graph — Dijkstra or MST) and
//!   [`Rec2Inf`] (§III-C, greedy re-sort of any sequential recommender's
//!   top-k by distance to the objective), plus [`Vanilla`] (the unadapted
//!   recommender).
//! * [`generate_influence_path`] — Algorithm 1: recursively ask the
//!   recommender for the next path item until the objective is reached or
//!   the budget `M` is exhausted.
//!
//! ## The influence-path contract
//!
//! All frameworks implement [`InfluenceRecommender`].  Implementations
//! never recommend an item already present in `history ⊕ path` (a
//! recommender that repeats itself would loop; the paper's Algorithm 1
//! implicitly assumes fresh recommendations).
//!
//! ```
//! use irs_core::{generate_influence_path, InfluenceRecommender};
//!
//! /// A toy recommender that walks the item line toward the objective.
//! struct Walker;
//! impl InfluenceRecommender for Walker {
//!     fn name(&self) -> String { "walker".into() }
//!     fn next_item(&self, _u: usize, history: &[usize], objective: usize,
//!                  path: &[usize]) -> Option<usize> {
//!         let cur = path.last().or_else(|| history.last()).copied()?;
//!         Some(if cur < objective { cur + 1 } else { cur.saturating_sub(1) })
//!     }
//! }
//!
//! let path = generate_influence_path(&Walker, 0, &[2], 5, 10);
//! assert_eq!(path, vec![3, 4, 5]); // stops at the objective
//! ```

pub mod beam;
pub mod interactive;
mod irn;
pub mod kg;
pub mod objective;
pub mod online;
mod pf2inf;
mod rec2inf;
mod vanilla;

pub(crate) mod rec_utils {
    use irs_data::ItemId;

    /// Top-`k` scoring items that appear in neither `history` nor `path`.
    /// Returned in descending score order; ties break toward the lower
    /// item id (the sort is stable over the ascending candidate list), so
    /// the top-1 is exactly "first index attaining the maximum" — the
    /// contract the allocation-free argmax in [`crate::Vanilla`]'s
    /// `next_items_into` relies on.
    pub fn top_k_unseen(
        scores: &[f32],
        k: usize,
        history: &[ItemId],
        path: &[ItemId],
    ) -> Vec<ItemId> {
        let mut idx: Vec<ItemId> =
            (0..scores.len()).filter(|i| !history.contains(i) && !path.contains(i)).collect();
        idx.sort_by(|&a, &b| {
            scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn filters_and_orders() {
            let scores = vec![0.1, 0.9, 0.5, 0.7];
            let top = top_k_unseen(&scores, 2, &[1], &[]);
            assert_eq!(top, vec![3, 2]);
        }

        #[test]
        fn k_larger_than_catalogue_is_fine() {
            let scores = vec![0.1, 0.2];
            let top = top_k_unseen(&scores, 10, &[], &[0]);
            assert_eq!(top, vec![1]);
        }
    }
}

pub use beam::{beam_search_path, BeamConfig};
pub use interactive::run_interactive_sessions;
pub use interactive::{
    run_interactive_session, InteractiveSession, SessionOutcome, ThresholdUser, UserModel,
};
pub use irn::{Irn, IrnCacheState, IrnConfig, MaskType};
// Part of `IrnConfig`'s public surface; re-exported so downstream crates
// (e.g. the serving subsystem) can build configs without a direct
// `irs_baselines` dependency.
pub use irs_baselines::NeuralTrainConfig;
// The incremental-cache surface (same rationale: `EncodingLayout` is part
// of `IrnConfig`, `CacheState` of the recommender trait).
pub use irs_nn::{CacheState, EncodingLayout};
pub use kg::KgPf2Inf;
pub use objective::{ObjectiveSet, SetObjectiveRecommender};
pub use online::IncrementalTrainer;
pub use pf2inf::{PathAlgorithm, Pf2Inf};
pub use rec2inf::Rec2Inf;
pub use vanilla::Vanilla;

use irs_data::{ItemId, UserId};

/// The inputs of one `next_item` call, borrowed — the unit of work of the
/// batched path-extension API.
#[derive(Debug, Clone, Copy)]
pub struct NextQuery<'a> {
    /// The user the path is generated for.
    pub user: UserId,
    /// Original viewing history `s_h`.
    pub history: &'a [ItemId],
    /// Objective item `i_t`.
    pub objective: ItemId,
    /// Path generated so far.
    pub path: &'a [ItemId],
}

/// Assemble the per-query scoring inputs shared by every batched
/// `next_items_into` override: the `(history ⊕ path)` context and the
/// user id of each query.
pub(crate) fn batched_query_parts(queries: &[NextQuery<'_>]) -> (Vec<Vec<ItemId>>, Vec<UserId>) {
    let contexts = queries
        .iter()
        .map(|q| {
            let mut c = q.history.to_vec();
            c.extend_from_slice(q.path);
            c
        })
        .collect();
    let users = queries.iter().map(|q| q.user).collect();
    (contexts, users)
}

/// A recommender that can extend an influence path toward an objective.
pub trait InfluenceRecommender {
    /// Display name for experiment tables (e.g. `"Rec2Inf(Caser)"`).
    fn name(&self) -> String;

    /// Choose the next path item for `user`, given the original `history`,
    /// the `objective`, and the `path` generated so far.  `None` means the
    /// recommender cannot extend the path (e.g. disconnected graph).
    fn next_item(
        &self,
        user: UserId,
        history: &[ItemId],
        objective: ItemId,
        path: &[ItemId],
    ) -> Option<ItemId>;

    /// Extend many paths in one call, appending one answer per query to a
    /// caller-owned buffer so a serving loop or a path generator reuses
    /// one allocation across batches.  The provided implementation loops
    /// over [`InfluenceRecommender::next_item`]; model-backed frameworks
    /// override it ([`Irn`] via `score_next_batch`, [`Vanilla`]/[`Rec2Inf`]
    /// via their scorer's batch path).  Overrides must answer each query
    /// exactly as `next_item` would.
    fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
        for q in queries {
            out.push(self.next_item(q.user, q.history, q.objective, q.path));
        }
    }

    /// A fresh incremental per-session state for
    /// [`InfluenceRecommender::next_item_cached`], or `None` when this
    /// model has no incremental path (the default).  Models whose encoded
    /// prefix is append-only ([`Irn`] with
    /// [`EncodingLayout::AppendOnly`], the cached baseline families)
    /// return their concrete [`CacheState`].
    fn new_context_cache(&self) -> Option<Box<dyn CacheState>> {
        None
    }

    /// Answer one query using (and updating) a per-session incremental
    /// `cache` previously obtained from
    /// [`InfluenceRecommender::new_context_cache`].  Returns the answer
    /// plus whether the cache was *hit* — i.e. the stored prefix was
    /// extended instead of rebuilt.  The answer must be exactly what
    /// [`InfluenceRecommender::next_item`] would return (the incremental
    /// paths are bitwise-pinned to the cold re-encode by property tests).
    /// The default ignores the cache and answers cold.
    fn next_item_cached(
        &self,
        query: &NextQuery<'_>,
        cache: &mut dyn CacheState,
    ) -> (Option<ItemId>, bool) {
        let _ = cache;
        (self.next_item(query.user, query.history, query.objective, query.path), false)
    }
}

/// A per-session incremental model state tagged with the snapshot
/// generation it was built against.  The serving layer stores these in
/// its session store and hands them back to
/// [`InfluenceRecommender::next_item_cached`]; a hot-swap bumps the
/// registry generation, so stale caches are detected (and rebuilt)
/// rather than replayed against the wrong weights.
pub struct ContextCache {
    /// The model-specific incremental state.
    pub state: Box<dyn CacheState>,
    /// Snapshot generation [`ContextCache::state`] was built against.
    pub generation: u64,
}

impl ContextCache {
    /// Resident heap bytes of the underlying state (for cache budgeting).
    pub fn resident_bytes(&self) -> usize {
        self.state.resident_bytes()
    }
}

/// Algorithm 1: generate an influence path of at most `max_len` items,
/// stopping early when the objective is recommended.
pub fn generate_influence_path<R: InfluenceRecommender + ?Sized>(
    rec: &R,
    user: UserId,
    history: &[ItemId],
    objective: ItemId,
    max_len: usize,
) -> Vec<ItemId> {
    let mut path = Vec::new();
    while path.len() < max_len {
        match rec.next_item(user, history, objective, &path) {
            Some(item) => {
                path.push(item);
                if item == objective {
                    break;
                }
            }
            None => break,
        }
    }
    path
}

/// One path-generation request for the batched Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct PathRequest<'a> {
    /// The user the path is generated for.
    pub user: UserId,
    /// Original viewing history `s_h`.
    pub history: &'a [ItemId],
    /// Objective item `i_t`.
    pub objective: ItemId,
}

/// Batched Algorithm 1: advance every open path by one item per round via
/// [`InfluenceRecommender::next_items_into`], so a model-backed
/// recommender pays one batched forward per step instead of one forward
/// per user per step.
///
/// Produces exactly the paths `generate_influence_path` would produce
/// request-by-request (a path closes when its objective is recommended,
/// the recommender returns `None`, or the `max_len` budget is exhausted).
pub fn generate_influence_paths<R: InfluenceRecommender + ?Sized>(
    rec: &R,
    requests: &[PathRequest<'_>],
    max_len: usize,
) -> Vec<Vec<ItemId>> {
    let mut paths: Vec<Vec<ItemId>> = vec![Vec::new(); requests.len()];
    let mut open: Vec<usize> =
        if max_len == 0 { Vec::new() } else { (0..requests.len()).collect() };
    let mut answers = Vec::with_capacity(open.len());
    while !open.is_empty() {
        answers.clear();
        let queries: Vec<NextQuery<'_>> = open
            .iter()
            .map(|&i| NextQuery {
                user: requests[i].user,
                history: requests[i].history,
                objective: requests[i].objective,
                path: &paths[i],
            })
            .collect();
        rec.next_items_into(&queries, &mut answers);
        debug_assert_eq!(answers.len(), open.len(), "next_items_into must answer every query");
        let mut still_open = Vec::with_capacity(open.len());
        for (&i, &answer) in open.iter().zip(&answers) {
            if let Some(item) = answer {
                paths[i].push(item);
                if item != requests[i].objective && paths[i].len() < max_len {
                    still_open.push(i);
                }
            }
        }
        open = still_open;
    }
    paths
}

/// Argmax over `scores` with the ids yielded by `exclude` removed.
/// Returns `None` when everything is excluded.
pub(crate) fn masked_argmax(
    scores: &[f32],
    exclude: impl Iterator<Item = ItemId>,
) -> Option<ItemId> {
    let mut masked = scores.to_vec();
    for i in exclude {
        if i < masked.len() {
            masked[i] = f32::NEG_INFINITY;
        }
    }
    let (best, &val) = masked
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
    val.is_finite().then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted recommender that returns a fixed path.
    struct Scripted(Vec<ItemId>);

    impl InfluenceRecommender for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn next_item(
            &self,
            _user: UserId,
            _history: &[ItemId],
            _objective: ItemId,
            path: &[ItemId],
        ) -> Option<ItemId> {
            self.0.get(path.len()).copied()
        }
    }

    #[test]
    fn path_stops_at_objective() {
        let rec = Scripted(vec![5, 6, 7, 8]);
        let p = generate_influence_path(&rec, 0, &[1], 7, 10);
        assert_eq!(p, vec![5, 6, 7]);
    }

    #[test]
    fn path_respects_budget() {
        let rec = Scripted(vec![5, 6, 7, 8]);
        let p = generate_influence_path(&rec, 0, &[1], 99, 2);
        assert_eq!(p, vec![5, 6]);
    }

    #[test]
    fn path_stops_when_recommender_gives_up() {
        let rec = Scripted(vec![5]);
        let p = generate_influence_path(&rec, 0, &[1], 99, 10);
        assert_eq!(p, vec![5]);
    }

    #[test]
    fn batched_paths_match_scalar_paths() {
        let rec = Scripted(vec![5, 6, 7, 8]);
        let histories: Vec<Vec<ItemId>> = vec![vec![1], vec![2], vec![3]];
        let requests: Vec<PathRequest<'_>> = histories
            .iter()
            .enumerate()
            .map(|(u, h)| PathRequest { user: u, history: h, objective: 7 })
            .collect();
        let batched = generate_influence_paths(&rec, &requests, 10);
        for (req, path) in requests.iter().zip(&batched) {
            let scalar = generate_influence_path(&rec, req.user, req.history, req.objective, 10);
            assert_eq!(*path, scalar);
        }
    }

    #[test]
    fn batched_paths_handle_empty_request_set_and_zero_budget() {
        let rec = Scripted(vec![5]);
        assert!(generate_influence_paths(&rec, &[], 10).is_empty());
        let h = vec![1];
        let requests = [PathRequest { user: 0, history: &h, objective: 9 }];
        assert_eq!(generate_influence_paths(&rec, &requests, 0), vec![Vec::<ItemId>::new()]);
    }

    #[test]
    fn masked_argmax_skips_excluded() {
        let scores = vec![0.5, 0.9, 0.7];
        assert_eq!(masked_argmax(&scores, [1].into_iter()), Some(2));
        assert_eq!(masked_argmax(&scores, [0, 1, 2].into_iter()), None);
        assert_eq!(masked_argmax(&scores, std::iter::empty()), Some(1));
    }
}
