//! # irs_baselines — baseline sequential recommenders
//!
//! Rust re-implementations (on the shared [`irs_nn`] substrate) of every
//! baseline the paper evaluates (§IV-C) and every evaluator candidate
//! (§IV-B3):
//!
//! | Model      | Family                       | Paper role                          |
//! |------------|------------------------------|-------------------------------------|
//! | [`Pop`]    | popularity                   | Vanilla / Rec2Inf baseline          |
//! | [`BprMf`]  | matrix factorisation         | Vanilla / Rec2Inf baseline          |
//! | [`TransRec`]| translation embeddings      | Vanilla / Rec2Inf baseline          |
//! | [`Gru4Rec`]| RNN                          | baseline + evaluator candidate      |
//! | [`Caser`]  | CNN                          | baseline + evaluator candidate      |
//! | [`SasRec`] | causal self-attention        | baseline + evaluator candidate      |
//! | [`Bert4Rec`]| bidirectional self-attention| evaluator (best HR@20/MRR in paper) |
//!
//! Every model implements [`SequentialScorer`]: *given a user and an item
//! history, produce a score for every item as the next interaction*.  The
//! IRS frameworks in `irs_core` and the offline evaluator in `irs_eval`
//! are all generic over this trait.

mod batch;
mod bert4rec;
mod bpr;
mod caser;
mod gru4rec;
mod pop;
mod sasrec;
mod transrec;

pub use batch::{make_lm_batches, LmBatch};
pub use bert4rec::{Bert4Rec, Bert4RecConfig};
pub use bpr::{BprConfig, BprMf};
pub use caser::{Caser, CaserCacheState, CaserConfig};
pub use gru4rec::{Gru4Rec, Gru4RecConfig, GruCacheState};
pub use pop::Pop;
pub use sasrec::{SasRec, SasRecCacheState, SasRecConfig};
pub use transrec::{TransRec, TransRecConfig};

use irs_data::{ItemId, UserId};
use irs_nn::CacheState;

/// A model that scores every item as the candidate next interaction.
///
/// Scores are unnormalised (higher = more likely); callers softmax them
/// when probabilities are needed.  `history` contains real item ids only
/// (no padding); implementations truncate long histories themselves.
pub trait SequentialScorer {
    /// Number of scoreable items (the real catalogue, excluding PAD/MASK).
    fn num_items(&self) -> usize;

    /// Score every item given `user`'s `history`; returns `num_items()`
    /// scores.
    fn score(&self, user: UserId, history: &[ItemId]) -> Vec<f32>;

    /// Like [`SequentialScorer::score`], but writing into a caller-owned
    /// buffer (cleared first) so a serving loop can reuse one allocation
    /// across requests.  The provided implementation copies the scalar
    /// path's result; allocation-sensitive models ([`Pop`]) override it.
    fn score_into(&self, user: UserId, history: &[ItemId], out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.score(user, history));
    }

    /// Score a batch of `(user, history)` queries in one call.
    ///
    /// The provided implementation loops over [`SequentialScorer::score`];
    /// neural models override it with a real padded-batch forward pass so
    /// per-query graph overhead amortises across the batch.  Overrides must
    /// return exactly what the scalar path returns for every row (the
    /// workspace kernels make this bitwise, see `irs_tensor::matmul_into`);
    /// `batch_properties.rs` asserts the equivalence for every model.
    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        assert_eq!(users.len(), histories.len(), "score_batch users/histories length mismatch");
        users.iter().zip(histories).map(|(&u, h)| self.score(u, h)).collect()
    }

    /// A fresh per-session incremental state for
    /// [`SequentialScorer::score_incremental`], or `None` when this model
    /// has no incremental path (the default).  Models whose encoding is
    /// append-only over the history ([`SasRec`] in that layout,
    /// [`Gru4Rec`], [`Caser`]) return their concrete [`CacheState`].
    fn new_incremental_state(&self) -> Option<Box<dyn CacheState>> {
        None
    }

    /// Score using (and updating) a per-session incremental `state`
    /// previously obtained from
    /// [`SequentialScorer::new_incremental_state`].  Returns the scores
    /// plus whether the stored prefix was reused (`true`) instead of
    /// rebuilt.  The scores must be exactly what
    /// [`SequentialScorer::score`] returns — the incremental paths are
    /// bitwise-pinned to the cold re-encode by property tests.  The
    /// default ignores the state and scores cold.
    fn score_incremental(
        &self,
        user: UserId,
        history: &[ItemId],
        state: &mut dyn CacheState,
    ) -> (Vec<f32>, bool) {
        let _ = state;
        (self.score(user, history), false)
    }

    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;
}

impl<S: SequentialScorer + ?Sized> SequentialScorer for &S {
    fn num_items(&self) -> usize {
        (**self).num_items()
    }
    fn score(&self, user: UserId, history: &[ItemId]) -> Vec<f32> {
        (**self).score(user, history)
    }
    fn score_into(&self, user: UserId, history: &[ItemId], out: &mut Vec<f32>) {
        (**self).score_into(user, history, out)
    }
    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        (**self).score_batch(users, histories)
    }
    fn new_incremental_state(&self) -> Option<Box<dyn CacheState>> {
        (**self).new_incremental_state()
    }
    fn score_incremental(
        &self,
        user: UserId,
        history: &[ItemId],
        state: &mut dyn CacheState,
    ) -> (Vec<f32>, bool) {
        (**self).score_incremental(user, history, state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<S: SequentialScorer + ?Sized> SequentialScorer for Box<S> {
    fn num_items(&self) -> usize {
        (**self).num_items()
    }
    fn score(&self, user: UserId, history: &[ItemId]) -> Vec<f32> {
        (**self).score(user, history)
    }
    fn score_into(&self, user: UserId, history: &[ItemId], out: &mut Vec<f32>) {
        (**self).score_into(user, history, out)
    }
    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        (**self).score_batch(users, histories)
    }
    fn new_incremental_state(&self) -> Option<Box<dyn CacheState>> {
        (**self).new_incremental_state()
    }
    fn score_incremental(
        &self,
        user: UserId,
        history: &[ItemId],
        state: &mut dyn CacheState,
    ) -> (Vec<f32>, bool) {
        (**self).score_incremental(user, history, state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Shared training hyperparameters for the neural baselines.
#[derive(Debug, Clone)]
pub struct NeuralTrainConfig {
    /// Passes over the training subsequences.
    pub epochs: usize,
    /// Sequences per minibatch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient-clipping threshold (global L2 norm).
    pub clip: f32,
    /// RNG seed (batch shuffling, dropout, masking).
    pub seed: u64,
    /// Print a progress line per epoch when true.
    pub verbose: bool,
}

impl Default for NeuralTrainConfig {
    fn default() -> Self {
        NeuralTrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 1e-3,
            clip: 5.0,
            seed: 0xbead,
            verbose: false,
        }
    }
}

/// Start index of the hopping context window for a history of `len`
/// interactions under a model window budget of `max_len`.
///
/// Incremental session caches (the per-layer K/V rows of SASRec and of
/// IRN's append-only layout, GRU4Rec's carried hidden state) are prefix
/// caches: a hit requires the previous window to be a prefix of the
/// current one.  IRN calls this with its `max_len − 1`, keeping one slot
/// for the objective.  A window that slides by one every step
/// (`len - max_len`) changes its first token on *every* step past
/// `max_len`, so long sessions degrade to a full per-step rebuild.
/// Instead the window start advances in hops of `H = max(1, max_len/2)`:
///
/// ```text
/// start(len) = 0                              if len <= max_len
///            = ceil((len - max_len) / H) * H  otherwise
/// ```
///
/// Between hops the start is constant, so each new interaction is a cache
/// hit that encodes exactly one suffix token; once per `H` steps the
/// window hops forward and the bounded remainder (at most `max_len` rows,
/// reusing the state's existing buffers) is re-encoded.  The window length
/// stays within `(max_len - H, max_len]` — never longer than the position
/// table — and both the cold scorers and the cached paths call this same
/// policy, keeping them bitwise identical.
pub fn hopping_window_start(len: usize, max_len: usize) -> usize {
    let l = max_len.max(1);
    if len <= l {
        return 0;
    }
    let h = (l / 2).max(1);
    (len - l).div_ceil(h) * h
}

/// Rank (1-based) of `item` under the given scores: `1 + |{j : s_j > s_item}|`.
///
/// Shared by evaluation metrics (IoR, HR@K, MRR).
pub fn rank_of(scores: &[f32], item: ItemId) -> usize {
    let s = scores[item];
    1 + scores.iter().filter(|&&x| x > s).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hopping_window_never_exceeds_budget_and_hops_in_steps() {
        for max_len in [1usize, 2, 3, 6, 24] {
            let h = (max_len / 2).max(1);
            let mut prev_start = 0;
            for len in 1..6 * max_len {
                let start = hopping_window_start(len, max_len);
                assert!(len - start <= max_len, "window too long at len={len} L={max_len}");
                assert!(start <= len, "start past end at len={len}");
                assert!(start >= prev_start, "start must be monotone at len={len}");
                assert!(start.is_multiple_of(h), "start must sit on a hop boundary at len={len}");
                if len <= max_len {
                    assert_eq!(start, 0, "short sessions keep the full history");
                } else {
                    assert!(len - start > max_len - h, "window shorter than the hop floor");
                }
                prev_start = start;
            }
            // Between hops the start is constant — that is what converts
            // sliding-window misses into cache hits.  (With a degenerate
            // hop of 1, i.e. max_len <= 3, every long step hops: a
            // one-or-two token window has no reusable prefix to keep.)
            if h >= 2 {
                let stable = (1..6 * max_len)
                    .filter(|&n| {
                        n > 1
                            && hopping_window_start(n, max_len)
                                == hopping_window_start(n - 1, max_len)
                    })
                    .count();
                assert!(stable >= 6 * max_len / 2, "most steps must not hop (L={max_len})");
            }
        }
    }

    #[test]
    fn rank_of_is_one_based_and_handles_ties() {
        let scores = vec![0.1, 0.9, 0.5, 0.9];
        assert_eq!(rank_of(&scores, 1), 1); // tie broken optimistically
        assert_eq!(rank_of(&scores, 3), 1);
        assert_eq!(rank_of(&scores, 2), 3);
        assert_eq!(rank_of(&scores, 0), 4);
    }
}
