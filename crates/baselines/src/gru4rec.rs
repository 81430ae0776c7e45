//! GRU4Rec — RNN-based sequential recommendation (Hidasi et al.).

use irs_data::split::SubSeq;
use irs_data::{pad_token, ItemId, UserId};
use irs_nn::{Adam, Embedding, FwdCtx, Gru, Linear, Optimizer, ParamStore};
use irs_tensor::Graph;
use rand::SeedableRng;

use crate::batch::make_lm_batches;
use crate::{NeuralTrainConfig, SequentialScorer};

/// GRU4Rec hyperparameters.
#[derive(Debug, Clone)]
pub struct Gru4RecConfig {
    /// Item-embedding dimensionality.
    pub dim: usize,
    /// GRU hidden size.
    pub hidden: usize,
    /// Maximum unrolled sequence length.
    pub max_len: usize,
    /// Shared training options.
    pub train: NeuralTrainConfig,
}

impl Default for Gru4RecConfig {
    fn default() -> Self {
        Gru4RecConfig { dim: 32, hidden: 32, max_len: 24, train: NeuralTrainConfig::default() }
    }
}

/// A trained GRU4Rec model.
pub struct Gru4Rec {
    store: ParamStore,
    emb: Embedding,
    gru: Gru,
    out: Linear,
    num_items: usize,
    max_len: usize,
    epoch_losses: Vec<f32>,
}

impl Gru4Rec {
    /// Train on subsequences; the vocabulary is `num_items + 1` (PAD).
    pub fn fit(seqs: &[SubSeq], num_items: usize, config: &Gru4RecConfig) -> Self {
        let pad = pad_token(num_items);
        let vocab = num_items + 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "gru4rec.emb", vocab, config.dim, &mut rng);
        let gru = Gru::new(&mut store, "gru4rec.gru", config.dim, config.hidden, &mut rng);
        let out = Linear::new(&mut store, "gru4rec.out", config.hidden, vocab, true, &mut rng);
        let mut model = Gru4Rec {
            store,
            emb,
            gru,
            out,
            num_items,
            max_len: config.max_len,
            epoch_losses: Vec::new(),
        };

        let mut opt = Adam::new(config.train.lr);
        let mut step = 0u64;
        // One tape for the whole run, reset per minibatch (buffer reuse).
        let graph = Graph::new();
        for epoch in 0..config.train.epochs {
            let batches =
                make_lm_batches(seqs, config.max_len, pad, config.train.batch_size, &mut rng);
            let mut epoch_loss = 0.0;
            let mut n = 0usize;
            for batch in &batches {
                graph.reset();
                let ctx = FwdCtx::new(&graph, &model.store, true, step);
                step += 1;
                let x = model.emb.lookup_seq(&ctx, &batch.inputs);
                let h = model.gru.forward_seq(&ctx, x);
                let logits = model.out.forward3d(&ctx, h);
                let loss = logits.cross_entropy(&batch.targets, pad);
                epoch_loss += loss.item();
                n += 1;
                model.store.zero_grad();
                ctx.backprop(loss);
                drop(ctx);
                opt.step_clipped(&mut model.store, config.train.clip);
            }
            let mean_loss = epoch_loss / n.max(1) as f32;
            model.epoch_losses.push(mean_loss);
            if config.train.verbose {
                println!("GRU4Rec epoch {epoch}: loss {mean_loss:.4}");
            }
        }
        model
    }

    /// Mean training loss per epoch, recorded during [`Gru4Rec::fit`] —
    /// pinned by the trajectory determinism tests.
    pub fn training_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    /// Serialise the trained parameters (IRSP format).
    pub fn save<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        self.store.save_parameters(writer)
    }

    /// Reconstruct a model of the given architecture and load trained
    /// parameters into it (architecture-checked by name/shape).
    pub fn load<R: std::io::Read>(
        reader: R,
        num_items: usize,
        config: &Gru4RecConfig,
    ) -> std::io::Result<Self> {
        let mut arch_cfg = config.clone();
        arch_cfg.train.epochs = 0; // build architecture only
        let mut model = Gru4Rec::fit(&[], num_items, &arch_cfg);
        model.store.load_parameters(reader)?;
        Ok(model)
    }

    /// Average next-token cross-entropy on held-out subsequences.
    pub fn validation_loss(&self, seqs: &[SubSeq]) -> f32 {
        let pad = pad_token(self.num_items);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let batches = make_lm_batches(seqs, self.max_len, pad, 16, &mut rng);
        let mut total = 0.0;
        let mut n = 0usize;
        let graph = Graph::new();
        for batch in &batches {
            graph.reset();
            let ctx = FwdCtx::new(&graph, &self.store, false, 0);
            let x = self.emb.lookup_seq(&ctx, &batch.inputs);
            let h = self.gru.forward_seq(&ctx, x);
            let logits = self.out.forward3d(&ctx, h);
            total += logits.cross_entropy(&batch.targets, pad).item();
            n += 1;
        }
        total / n.max(1) as f32
    }
}

impl SequentialScorer for Gru4Rec {
    fn num_items(&self) -> usize {
        self.num_items
    }

    fn score(&self, _user: UserId, history: &[ItemId]) -> Vec<f32> {
        if history.is_empty() {
            return vec![0.0; self.num_items];
        }
        let start = crate::hopping_window_start(history.len(), self.max_len);
        let recent: Vec<ItemId> = history[start..].to_vec();
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &self.store, false, 0);
        let x = self.emb.lookup_seq(&ctx, &[recent]);
        let h = self.gru.forward_last(&ctx, x);
        let logits = self.out.forward2d(&ctx, h).value();
        logits.data()[..self.num_items].to_vec()
    }

    /// Batched tape-free forward through the `irs_nn` inference engine:
    /// ragged histories are *post*-padded to the longest row so the
    /// recurrence over real tokens is untouched (a GRU state at step `t`
    /// only depends on steps `≤ t`), then [`Gru::infer_last`] runs the
    /// fused-gate recurrence and reads each row's hidden state at its own
    /// last real position — bitwise identical to running the row alone
    /// through the scalar graph path ([`Gru4Rec::score`]).
    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        assert_eq!(users.len(), histories.len(), "score_batch users/histories length mismatch");
        let live: Vec<usize> = (0..histories.len()).filter(|&i| !histories[i].is_empty()).collect();
        let mut out = vec![vec![0.0; self.num_items]; histories.len()];
        if live.is_empty() {
            return out;
        }
        let pad = pad_token(self.num_items);
        let mut rows = Vec::with_capacity(live.len());
        let mut lens = Vec::with_capacity(live.len());
        for &i in &live {
            let h = histories[i];
            let start = crate::hopping_window_start(h.len(), self.max_len);
            rows.push(h[start..].to_vec());
            lens.push(h.len() - start);
        }
        let t_max = lens.iter().copied().max().expect("non-empty batch");
        for row in &mut rows {
            row.resize(t_max, pad);
        }
        let x = self.emb.infer_lookup_seq(&self.store, &rows);
        let last = self.gru.infer_last(&self.store, &x, &lens);
        let logits = self.out.infer(&self.store, &last);
        let vocab = self.num_items + 1;
        for (r, &i) in live.iter().enumerate() {
            out[i] = logits.data()[r * vocab..r * vocab + self.num_items].to_vec();
        }
        out
    }

    fn name(&self) -> &'static str {
        "GRU4Rec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank_of;

    /// Deterministic cycle data: item k is always followed by k+1 (mod n).
    fn cycle_seqs(n_items: usize, n_seqs: usize, len: usize) -> Vec<SubSeq> {
        (0..n_seqs)
            .map(|s| SubSeq { user: s, items: (0..len).map(|k| (s + k) % n_items).collect() })
            .collect()
    }

    #[test]
    fn learns_cycle_transitions() {
        let seqs = cycle_seqs(8, 24, 10);
        let cfg = Gru4RecConfig {
            dim: 16,
            hidden: 16,
            max_len: 10,
            train: NeuralTrainConfig { epochs: 12, lr: 5e-3, ..Default::default() },
        };
        let model = Gru4Rec::fit(&seqs, 8, &cfg);
        let mut hits = 0;
        for prev in 0..8usize {
            let s = model.score(0, &[(prev + 7) % 8, prev]);
            if rank_of(&s, (prev + 1) % 8) <= 2 {
                hits += 1;
            }
        }
        assert!(hits >= 6, "GRU4Rec learned only {hits}/8 transitions");
    }

    #[test]
    fn empty_history_scores_are_flat() {
        let seqs = cycle_seqs(5, 4, 6);
        let cfg = Gru4RecConfig {
            dim: 8,
            hidden: 8,
            max_len: 6,
            train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        };
        let model = Gru4Rec::fit(&seqs, 5, &cfg);
        assert_eq!(model.score(0, &[]), vec![0.0; 5]);
    }

    #[test]
    fn validation_loss_is_finite_and_positive() {
        let seqs = cycle_seqs(6, 8, 8);
        let cfg = Gru4RecConfig {
            dim: 8,
            hidden: 8,
            max_len: 8,
            train: NeuralTrainConfig { epochs: 2, ..Default::default() },
        };
        let model = Gru4Rec::fit(&seqs, 6, &cfg);
        let vl = model.validation_loss(&seqs);
        assert!(vl.is_finite() && vl > 0.0);
    }
}
