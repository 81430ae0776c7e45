//! Training-step throughput per model family.
//!
//! Each benchmark runs one full training epoch — a fixed 8 minibatches of
//! 16 sequences — through `fit` on a deterministic synthetic workload, so
//! the reported median is 8× the per-family step time (model construction
//! is amortised into the measurement but is a small, fixed cost next to
//! the forward/backward/update work).  CI runs this in smoke mode with
//! `CRITERION_JSON=BENCH_training.json`; the artifact tracks the
//! training-engine perf trajectory across commits (graph reuse, backward
//! kernel routing).

use criterion::{criterion_group, criterion_main, Criterion};
use irs_baselines::{
    Bert4Rec, Bert4RecConfig, Caser, CaserConfig, Gru4Rec, Gru4RecConfig, NeuralTrainConfig,
    SasRec, SasRecConfig,
};
use irs_core::{Irn, IrnConfig};
use irs_data::split::SubSeq;
use std::hint::black_box;

const NUM_ITEMS: usize = 64;
const NUM_USERS: usize = 32;
const NUM_SEQS: usize = 128;
const SEQ_LEN: usize = 16;
const MAX_LEN: usize = 16;
const DIM: usize = 32;

/// Deterministic training corpus: interleaved item cycles with per-user
/// offsets — enough structure that the losses move, fixed so every run
/// (and every commit) trains on identical batches.
fn seqs() -> Vec<SubSeq> {
    (0..NUM_SEQS)
        .map(|s| SubSeq {
            user: s % NUM_USERS,
            items: (0..SEQ_LEN).map(|k| (s * 7 + k * (1 + s % 3)) % NUM_ITEMS).collect(),
        })
        .collect()
}

fn train_cfg() -> NeuralTrainConfig {
    NeuralTrainConfig {
        epochs: 1,
        batch_size: 16,
        lr: 1e-3,
        clip: 5.0,
        seed: 0x7ea1,
        verbose: false,
    }
}

fn bench_training(c: &mut Criterion) {
    let data = seqs();
    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    group.bench_function("sasrec_epoch", |b| {
        let cfg = SasRecConfig {
            dim: DIM,
            layers: 2,
            heads: 2,
            max_len: MAX_LEN,
            dropout: 0.1,
            train: train_cfg(),
        };
        b.iter(|| black_box(SasRec::fit(&data, NUM_ITEMS, &cfg)))
    });

    group.bench_function("sasrec_epoch_nodrop", |b| {
        let cfg = SasRecConfig {
            dim: DIM,
            layers: 2,
            heads: 2,
            max_len: MAX_LEN,
            dropout: 0.0,
            train: train_cfg(),
        };
        b.iter(|| black_box(SasRec::fit(&data, NUM_ITEMS, &cfg)))
    });

    group.bench_function("bert4rec_epoch", |b| {
        let cfg = Bert4RecConfig {
            dim: DIM,
            layers: 2,
            heads: 2,
            max_len: MAX_LEN,
            dropout: 0.1,
            mask_prob: 0.3,
            train: train_cfg(),
        };
        b.iter(|| black_box(Bert4Rec::fit(&data, NUM_ITEMS, &cfg)))
    });

    group.bench_function("gru4rec_epoch", |b| {
        let cfg = Gru4RecConfig { dim: DIM, hidden: DIM, max_len: MAX_LEN, train: train_cfg() };
        b.iter(|| black_box(Gru4Rec::fit(&data, NUM_ITEMS, &cfg)))
    });

    group.bench_function("caser_epoch", |b| {
        let cfg = CaserConfig {
            dim: DIM,
            l_window: 5,
            heights: vec![2, 3],
            n_h: 8,
            n_v: 4,
            dropout: 0.1,
            train: train_cfg(),
        };
        b.iter(|| black_box(Caser::fit(&data, NUM_ITEMS, NUM_USERS, &cfg)))
    });

    group.bench_function("irn_epoch", |b| {
        let cfg = IrnConfig {
            dim: DIM,
            user_dim: 8,
            layers: 2,
            heads: 2,
            max_len: MAX_LEN,
            dropout: 0.1,
            wt: 1.0,
            mask_type: irs_core::MaskType::ObjectivePersonalized,
            padding: irs_data::split::PaddingScheme::Pre,
            layout: irs_core::EncodingLayout::PrePadded,
            train: train_cfg(),
        };
        b.iter(|| black_box(Irn::fit(&data, &[], NUM_ITEMS, NUM_USERS, &cfg, None)))
    });

    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
