//! Property tests pinning the batching contract: for every
//! [`SequentialScorer`] implementation, `score_batch` must answer each
//! query exactly as per-item `score` does — including empty histories,
//! singleton batches, and batches mixing empty and non-empty rows.
//!
//! For SASRec, Bert4Rec, GRU4Rec and Caser this compares two genuinely
//! different engines: the scalar autograd-graph path (the reference) vs
//! the tape-free batched inference path (fused-gate recurrence for
//! GRU4Rec, value-level convolutional pass for Caser, single-query final
//! block for the transformers).  For GRU4Rec it additionally checks that
//! post-padding ragged rows leaves each row's recurrence untouched; for
//! the rest it pins the default loop and the shared batched forward.

use std::sync::OnceLock;

use irs_baselines::{
    Bert4Rec, Bert4RecConfig, BprConfig, BprMf, Caser, CaserConfig, Gru4Rec, Gru4RecConfig,
    NeuralTrainConfig, Pop, SasRec, SasRecConfig, SequentialScorer, TransRec, TransRecConfig,
};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::ItemId;
use proptest::prelude::*;

const NUM_ITEMS_BOUND: usize = 60; // SynthConfig::tiny catalogue size

struct Models {
    num_items: usize,
    scorers: Vec<Box<dyn SequentialScorer + Send + Sync>>,
}

fn models() -> &'static Models {
    static MODELS: OnceLock<Models> = OnceLock::new();
    MODELS.get_or_init(|| {
        let dataset = generate(&SynthConfig::tiny(0x6a7c)).dataset;
        let split = split_dataset(&dataset, &SplitConfig::small());
        let n = dataset.num_items;
        let train = NeuralTrainConfig { epochs: 1, ..Default::default() };
        let scorers: Vec<Box<dyn SequentialScorer + Send + Sync>> = vec![
            Box::new(Pop::fit(&dataset)),
            Box::new(BprMf::fit(&dataset, &BprConfig { dim: 8, epochs: 1, ..Default::default() })),
            Box::new(TransRec::fit(
                &dataset,
                &TransRecConfig { dim: 8, epochs: 1, ..Default::default() },
            )),
            Box::new(Gru4Rec::fit(
                &split.train,
                n,
                &Gru4RecConfig { dim: 8, hidden: 8, max_len: 8, train: train.clone() },
            )),
            Box::new(Caser::fit(
                &split.train,
                n,
                dataset.num_users,
                &CaserConfig {
                    dim: 8,
                    l_window: 4,
                    heights: vec![2, 3],
                    n_h: 4,
                    n_v: 2,
                    dropout: 0.0,
                    train: train.clone(),
                },
            )),
            Box::new(SasRec::fit(
                &split.train,
                n,
                &SasRecConfig {
                    dim: 8,
                    layers: 2,
                    heads: 2,
                    max_len: 8,
                    dropout: 0.0,
                    train: train.clone(),
                },
            )),
            Box::new(Bert4Rec::fit(
                &split.train,
                n,
                &Bert4RecConfig {
                    dim: 8,
                    layers: 2,
                    heads: 2,
                    max_len: 8,
                    dropout: 0.0,
                    mask_prob: 0.3,
                    train,
                },
            )),
        ];
        Models { num_items: n, scorers }
    })
}

/// Strategy: a batch of (user, history) queries with ragged lengths,
/// including empty histories.
fn batch() -> impl Strategy<Value = Vec<(usize, Vec<ItemId>)>> {
    proptest::collection::vec(
        (0usize..40, proptest::collection::vec(0usize..NUM_ITEMS_BOUND, 0..12)),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `score_batch` ≡ per-item `score` for every model, bitwise.
    #[test]
    fn score_batch_equals_per_item_score(queries in batch()) {
        let m = models();
        let clipped: Vec<(usize, Vec<ItemId>)> = queries
            .iter()
            .map(|(u, h)| (*u, h.iter().map(|&i| i % m.num_items).collect()))
            .collect();
        let users: Vec<usize> = clipped.iter().map(|(u, _)| *u).collect();
        let histories: Vec<&[ItemId]> = clipped.iter().map(|(_, h)| h.as_slice()).collect();
        for scorer in &m.scorers {
            let batched = scorer.score_batch(&users, &histories);
            prop_assert_eq!(batched.len(), users.len(), "{}: one row per query", scorer.name());
            for ((&u, &h), row) in users.iter().zip(&histories).zip(&batched) {
                let scalar = scorer.score(u, h);
                prop_assert_eq!(
                    row.len(),
                    scalar.len(),
                    "{}: score length mismatch", scorer.name()
                );
                for (idx, (a, b)) in row.iter().zip(&scalar).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-4 * b.abs().max(1.0) && a.to_bits() == b.to_bits(),
                        "{}: item {idx} batched {a} vs scalar {b} (history len {})",
                        scorer.name(),
                        h.len()
                    );
                }
            }
        }
    }

    /// Singleton batches are the degenerate case of the batch API.
    #[test]
    fn singleton_batch_equals_score(user in 0usize..40, history in proptest::collection::vec(0usize..NUM_ITEMS_BOUND, 0..12)) {
        let m = models();
        let history: Vec<ItemId> = history.iter().map(|&i| i % m.num_items).collect();
        for scorer in &m.scorers {
            let batched = scorer.score_batch(&[user], &[history.as_slice()]);
            prop_assert_eq!(
                &batched[0],
                &scorer.score(user, &history),
                "{}: singleton batch diverged", scorer.name()
            );
        }
    }
}

/// Empty-history rows in a mixed batch score exactly like scalar calls
/// (all-zero for models that special-case them).
#[test]
fn mixed_empty_and_nonempty_rows() {
    let m = models();
    let histories: Vec<Vec<ItemId>> = vec![vec![], vec![1, 2, 3], vec![], vec![5 % m.num_items]];
    let users = [0usize, 1, 2, 3];
    let refs: Vec<&[ItemId]> = histories.iter().map(Vec::as_slice).collect();
    for scorer in &m.scorers {
        let batched = scorer.score_batch(&users, &refs);
        for ((&u, h), row) in users.iter().zip(&refs).zip(&batched) {
            assert_eq!(*row, scorer.score(u, h), "{}: mixed batch diverged", scorer.name());
        }
    }
}
