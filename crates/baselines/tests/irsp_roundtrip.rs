//! IRSP round-trip pins for every scorer family: save → load →
//! `score_batch` must be *bitwise* equal to the original model.
//!
//! This is the contract the serving subsystem's snapshot hot-swap relies
//! on: a model written by `save` and re-loaded through the
//! architecture-checked `ParamStore::load_parameters` path must be
//! indistinguishable from the in-memory original, including through the
//! tape-free batched inference engines (GRU4Rec's fused-gate recurrence,
//! Caser's value-level conv pass, the transformers' single-query final
//! block).

use irs_baselines::{
    Bert4Rec, Bert4RecConfig, BprConfig, BprMf, Caser, CaserConfig, Gru4Rec, Gru4RecConfig,
    NeuralTrainConfig, Pop, SasRec, SasRecConfig, SequentialScorer, TransRec, TransRecConfig,
};
use irs_data::split::{split_dataset, DataSplit, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::{Dataset, ItemId};

fn world() -> (Dataset, DataSplit) {
    let dataset = generate(&SynthConfig::tiny(0x1259)).dataset;
    let split = split_dataset(&dataset, &SplitConfig::small());
    (dataset, split)
}

fn train_cfg() -> NeuralTrainConfig {
    NeuralTrainConfig { epochs: 1, ..Default::default() }
}

/// Queries covering the shapes that matter: empty history, short, long.
fn queries(num_items: usize) -> (Vec<usize>, Vec<Vec<ItemId>>) {
    let users = vec![0usize, 1, 2, 3];
    let histories = vec![
        vec![],
        vec![1 % num_items],
        vec![2 % num_items, 5 % num_items, 7 % num_items],
        (0..12).map(|i| (i * 3) % num_items).collect(),
    ];
    (users, histories)
}

/// Assert per-row bitwise equality between two `score_batch` answers.
fn assert_scores_bitwise_equal(name: &str, a: &[Vec<f32>], b: &[Vec<f32>]) {
    assert_eq!(a.len(), b.len(), "{name}: row count changed across round-trip");
    for (row, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{name}: row {row} length changed");
        for (col, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: score[{row}][{col}] diverged after round-trip: {x} vs {y}"
            );
        }
    }
}

fn round_trip<S: SequentialScorer>(original: &S, restored: &S) {
    let (users, histories) = queries(original.num_items());
    let refs: Vec<&[ItemId]> = histories.iter().map(Vec::as_slice).collect();
    let before = original.score_batch(&users, &refs);
    let after = restored.score_batch(&users, &refs);
    assert_scores_bitwise_equal(original.name(), &before, &after);
}

#[test]
fn pop_round_trips_bitwise() {
    let (dataset, _) = world();
    let model = Pop::fit(&dataset);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let restored = Pop::load(&bytes[..], dataset.num_items).unwrap();
    round_trip(&model, &restored);
    // Architecture check: a different catalogue size must be rejected.
    assert!(Pop::load(&bytes[..], dataset.num_items + 1).is_err());
}

#[test]
fn bpr_round_trips_bitwise() {
    let (dataset, _) = world();
    let cfg = BprConfig { dim: 8, epochs: 1, ..Default::default() };
    let model = BprMf::fit(&dataset, &cfg);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let restored = BprMf::load(&bytes[..], dataset.num_users, dataset.num_items, 8).unwrap();
    round_trip(&model, &restored);
    assert!(BprMf::load(&bytes[..], dataset.num_users, dataset.num_items, 9).is_err());
}

#[test]
fn transrec_round_trips_bitwise() {
    let (dataset, _) = world();
    let cfg = TransRecConfig { dim: 8, epochs: 1, ..Default::default() };
    let model = TransRec::fit(&dataset, &cfg);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let restored = TransRec::load(&bytes[..], dataset.num_users, dataset.num_items, 8).unwrap();
    round_trip(&model, &restored);
    assert!(TransRec::load(&bytes[..], dataset.num_users + 1, dataset.num_items, 8).is_err());
}

#[test]
fn gru4rec_round_trips_bitwise_through_infer_path() {
    let (dataset, split) = world();
    let cfg = Gru4RecConfig { dim: 8, hidden: 8, max_len: 8, train: train_cfg() };
    let model = Gru4Rec::fit(&split.train, dataset.num_items, &cfg);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let restored = Gru4Rec::load(&bytes[..], dataset.num_items, &cfg).unwrap();
    round_trip(&model, &restored);
    // Wrong architecture: different hidden width.
    let wrong = Gru4RecConfig { hidden: 12, ..cfg };
    assert!(Gru4Rec::load(&bytes[..], dataset.num_items, &wrong).is_err());
}

#[test]
fn caser_round_trips_bitwise_through_infer_path() {
    let (dataset, split) = world();
    let cfg = CaserConfig {
        dim: 8,
        l_window: 4,
        heights: vec![2, 3],
        n_h: 4,
        n_v: 2,
        dropout: 0.0,
        train: train_cfg(),
    };
    let model = Caser::fit(&split.train, dataset.num_items, dataset.num_users, &cfg);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let restored = Caser::load(&bytes[..], dataset.num_items, dataset.num_users, &cfg).unwrap();
    round_trip(&model, &restored);
    let wrong = CaserConfig { n_h: 6, ..cfg };
    assert!(Caser::load(&bytes[..], dataset.num_items, dataset.num_users, &wrong).is_err());
}

#[test]
fn sasrec_round_trips_bitwise() {
    let (dataset, split) = world();
    let cfg =
        SasRecConfig { dim: 8, layers: 2, heads: 2, max_len: 8, dropout: 0.0, train: train_cfg() };
    let model = SasRec::fit(&split.train, dataset.num_items, &cfg);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let restored = SasRec::load(&bytes[..], dataset.num_items, &cfg).unwrap();
    round_trip(&model, &restored);
    let wrong = SasRecConfig { layers: 1, ..cfg };
    assert!(SasRec::load(&bytes[..], dataset.num_items, &wrong).is_err());
}

#[test]
fn bert4rec_round_trips_bitwise() {
    let (dataset, split) = world();
    let cfg = Bert4RecConfig {
        dim: 8,
        layers: 2,
        heads: 2,
        max_len: 8,
        dropout: 0.0,
        mask_prob: 0.3,
        train: train_cfg(),
    };
    let model = Bert4Rec::fit(&split.train, dataset.num_items, &cfg);
    let mut bytes = Vec::new();
    model.save(&mut bytes).unwrap();
    let restored = Bert4Rec::load(&bytes[..], dataset.num_items, &cfg).unwrap();
    round_trip(&model, &restored);
    let wrong = Bert4RecConfig { dim: 16, ..cfg };
    assert!(Bert4Rec::load(&bytes[..], dataset.num_items, &wrong).is_err());
}
