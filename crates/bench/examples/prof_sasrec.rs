//! Scratch profiling driver for the training engine (run under
//! `gprofng collect app`); mirrors the `training/sasrec_epoch` bench.
use irs_baselines::{NeuralTrainConfig, SasRec, SasRecConfig};
use irs_data::split::SubSeq;

fn main() {
    let data: Vec<SubSeq> = (0..128)
        .map(|s| SubSeq {
            user: s % 32,
            items: (0..16).map(|k| (s * 7 + k * (1 + s % 3)) % 64).collect(),
        })
        .collect();
    let cfg = SasRecConfig {
        dim: 32,
        layers: 2,
        heads: 2,
        max_len: 16,
        dropout: 0.1,
        train: NeuralTrainConfig {
            epochs: 60,
            batch_size: 16,
            lr: 1e-3,
            clip: 5.0,
            seed: 1,
            verbose: false,
        },
    };
    let m = SasRec::fit(&data, 64, &cfg);
    std::hint::black_box(m);
}
