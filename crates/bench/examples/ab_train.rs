//! Interleaved A/B probe for transformer training-step throughput.
//!
//! Prints one line per model family: the median *steady-state* per-epoch
//! wall-clock nanoseconds over `REPS` measurements on the same fixed
//! workload as the `training` bench (8 minibatches × batch 16, dim 32,
//! T 16).  Each measurement times a 1-epoch and a 5-epoch `fit` and
//! reports `(t_5 − t_1) / 4`: the difference cancels the model-init and
//! batch-building cost common to both engines *and* the first
//! (recording) epoch, leaving exactly the steady-state training step —
//! the thing the record-once/replay-per-minibatch tape optimises.  The
//! A/B driver builds this example in two worktrees (this tree and the
//! pre-PR-5 baseline, which carries an API-adapted copy), runs the
//! binaries alternately ≥12 times each, and takes the median of the
//! per-pair old/new ratios so host-speed drift cancels out of the
//! comparison.  Output format: `<family> <median_ns>`.

use irs_baselines::{Bert4Rec, Bert4RecConfig, NeuralTrainConfig, SasRec, SasRecConfig};
use irs_core::{Irn, IrnConfig};
use irs_data::split::SubSeq;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

fn seqs() -> Vec<SubSeq> {
    (0..128)
        .map(|s| SubSeq {
            user: s % 32,
            items: (0..16).map(|k| (s * 7 + k * (1 + s % 3)) % 64).collect(),
        })
        .collect()
}

fn train_cfg(epochs: usize) -> NeuralTrainConfig {
    NeuralTrainConfig { epochs, batch_size: 16, lr: 1e-3, clip: 5.0, seed: 0x7ea1, verbose: false }
}

/// Median of `REPS` steady-state per-epoch times for one `fit` entry
/// point: each rep times `fit(1 epoch)` and `fit(5 epochs)` and scores
/// `(t_5 − t_1) / 4`.
fn steady_state_ns(mut fit: impl FnMut(usize) -> u128) -> u128 {
    let mut times: Vec<u128> = (0..REPS)
        .map(|_| {
            let t1 = fit(1);
            let t5 = fit(5);
            t5.saturating_sub(t1) / 4
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let data = seqs();

    let sasrec = steady_state_ns(|epochs| {
        let cfg = SasRecConfig {
            dim: 32,
            layers: 2,
            heads: 2,
            max_len: 16,
            dropout: 0.1,
            train: train_cfg(epochs),
        };
        let t0 = Instant::now();
        black_box(SasRec::fit(&data, 64, &cfg));
        t0.elapsed().as_nanos()
    });
    println!("sasrec {sasrec}");

    let bert = steady_state_ns(|epochs| {
        let cfg = Bert4RecConfig {
            dim: 32,
            layers: 2,
            heads: 2,
            max_len: 16,
            dropout: 0.1,
            mask_prob: 0.3,
            train: train_cfg(epochs),
        };
        let t0 = Instant::now();
        black_box(Bert4Rec::fit(&data, 64, &cfg));
        t0.elapsed().as_nanos()
    });
    println!("bert4rec {bert}");

    let irn = steady_state_ns(|epochs| {
        let cfg = IrnConfig {
            dim: 32,
            user_dim: 8,
            layers: 2,
            heads: 2,
            max_len: 16,
            dropout: 0.1,
            wt: 1.0,
            mask_type: irs_core::MaskType::ObjectivePersonalized,
            padding: irs_data::split::PaddingScheme::Pre,
            layout: irs_core::EncodingLayout::PrePadded,
            train: train_cfg(epochs),
        };
        let t0 = Instant::now();
        black_box(Irn::fit(&data, &[], 64, 32, &cfg, None));
        t0.elapsed().as_nanos()
    });
    println!("irn {irn}");
}
