//! SASRec — self-attentive sequential recommendation (Kang & McAuley, 2018).

use irs_data::split::{pad_to, PaddingScheme, SubSeq};
use irs_data::{pad_token, ItemId, UserId};
use irs_nn::{
    broadcast_then_add, causal_mask, infer_stack, key_padding_mask, Adam, AttnBias, Embedding,
    FwdCtx, InferBias, Linear, Optimizer, ParamStore, PositionalEncoding, TransformerBlock,
};
use irs_tensor::Graph;
use rand::SeedableRng;

use crate::batch::make_lm_batches;
use crate::{NeuralTrainConfig, SequentialScorer};

/// SASRec hyperparameters.
#[derive(Debug, Clone)]
pub struct SasRecConfig {
    /// Model width.
    pub dim: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Shared training options.
    pub train: NeuralTrainConfig,
}

impl Default for SasRecConfig {
    fn default() -> Self {
        SasRecConfig {
            dim: 32,
            layers: 2,
            heads: 2,
            max_len: 24,
            dropout: 0.1,
            train: NeuralTrainConfig::default(),
        }
    }
}

/// A trained SASRec model.
pub struct SasRec {
    store: ParamStore,
    emb: Embedding,
    pos: PositionalEncoding,
    blocks: Vec<TransformerBlock>,
    out: Linear,
    num_items: usize,
    max_len: usize,
    epoch_losses: Vec<f32>,
}

impl SasRec {
    /// Train on subsequences with the causal LM objective.
    pub fn fit(seqs: &[SubSeq], num_items: usize, config: &SasRecConfig) -> Self {
        let pad = pad_token(num_items);
        let vocab = num_items + 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "sasrec.emb", vocab, config.dim, &mut rng);
        let pos =
            PositionalEncoding::new(&mut store, "sasrec", config.max_len, config.dim, &mut rng);
        let blocks: Vec<TransformerBlock> = (0..config.layers)
            .map(|l| {
                TransformerBlock::new(
                    &mut store,
                    &format!("sasrec.block{l}"),
                    config.dim,
                    config.heads,
                    config.dropout,
                    &mut rng,
                )
            })
            .collect();
        let out = Linear::new(&mut store, "sasrec.out", config.dim, vocab, true, &mut rng);
        let mut model = SasRec {
            store,
            emb,
            pos,
            blocks,
            out,
            num_items,
            max_len: config.max_len,
            epoch_losses: Vec::new(),
        };

        let mut opt = Adam::new(config.train.lr);
        let mut step = 0u64;
        // One tape for the whole run: every step re-records ops but
        // recycles the previous step's value/gradient buffers.
        let graph = Graph::new();
        for epoch in 0..config.train.epochs {
            let batches =
                make_lm_batches(seqs, config.max_len, pad, config.train.batch_size, &mut rng);
            let mut epoch_loss = 0.0;
            let mut n = 0usize;
            for batch in &batches {
                let loss_val =
                    model.train_step(&graph, batch, pad, step, &mut opt, config.train.clip);
                step += 1;
                epoch_loss += loss_val;
                n += 1;
            }
            let mean_loss = epoch_loss / n.max(1) as f32;
            model.epoch_losses.push(mean_loss);
            if config.train.verbose {
                println!("SASRec epoch {epoch}: loss {mean_loss:.4}");
            }
        }
        model
    }

    /// Mean training loss per epoch, recorded during [`SasRec::fit`] — the
    /// pinned-trajectory determinism tests assert these stay bitwise
    /// stable across refactors of the training engine.
    pub fn training_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    fn train_step(
        &mut self,
        g: &Graph,
        batch: &crate::batch::LmBatch,
        pad: ItemId,
        step: u64,
        opt: &mut Adam,
        clip: f32,
    ) -> f32 {
        let t = batch.seq_len();
        g.reset();
        let ctx = FwdCtx::new(g, &self.store, true, step);
        let mask = broadcast_then_add(&causal_mask(t), &key_padding_mask(t, &batch.pad_lens));
        let bias = AttnBias::Base(mask);
        let mut h = self.pos.add_to(&ctx, self.emb.lookup_seq(&ctx, &batch.inputs));
        for block in &self.blocks {
            h = block.forward(&ctx, h, &bias);
        }
        let logits = self.out.forward3d(&ctx, h);
        let loss = logits.cross_entropy(&batch.targets, pad);
        let loss_val = loss.item();
        self.store.zero_grad();
        ctx.backprop(loss);
        drop(ctx);
        opt.step_clipped(&mut self.store, clip);
        loss_val
    }

    /// Forward a single pre-padded sequence through the graph path in eval
    /// mode, returning logits at the last position.  This is the reference
    /// implementation `score_batch`'s tape-free engine is tested against.
    fn last_position_logits(&self, padded: &[ItemId], pad: ItemId) -> Vec<f32> {
        let t = padded.len();
        let pad_len = padded.iter().take_while(|&&x| x == pad).count();
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &self.store, false, 0);
        let mask = broadcast_then_add(&causal_mask(t), &key_padding_mask(t, &[pad_len]));
        let bias = AttnBias::Base(mask);
        let mut h = self.pos.add_to(&ctx, self.emb.lookup_seq(&ctx, &[padded.to_vec()]));
        for block in &self.blocks {
            h = block.forward(&ctx, h, &bias);
        }
        let logits = self.out.forward3d(&ctx, h).select_step(t - 1).value();
        logits.data()[..self.num_items].to_vec()
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
        config: &SasRecConfig,
    ) -> std::io::Result<Self> {
        let mut arch_cfg = config.clone();
        arch_cfg.train.epochs = 0; // build architecture only
        let mut model = SasRec::fit(&[], num_items, &arch_cfg);
        model.store.load_parameters(reader)?;
        Ok(model)
    }
}

impl SequentialScorer for SasRec {
    fn num_items(&self) -> usize {
        self.num_items
    }

    fn score(&self, _user: UserId, history: &[ItemId]) -> Vec<f32> {
        if history.is_empty() {
            return vec![0.0; self.num_items];
        }
        let pad = pad_token(self.num_items);
        let padded = pad_to(history, self.max_len, pad, PaddingScheme::Pre);
        self.last_position_logits(&padded, pad)
    }

    /// Batched tape-free forward: all queries share one padded `[B, T]`
    /// pass through the inference engine, with the final block evaluated
    /// at the last position only.  Per row this reproduces
    /// [`SasRec::score`] exactly.
    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        assert_eq!(users.len(), histories.len(), "score_batch users/histories length mismatch");
        let pad = pad_token(self.num_items);
        // Empty histories score zero (no signal); only real rows enter the
        // batched forward.
        let live: Vec<usize> = (0..histories.len()).filter(|&i| !histories[i].is_empty()).collect();
        let mut out = vec![vec![0.0; self.num_items]; histories.len()];
        if live.is_empty() {
            return out;
        }
        let t = self.max_len;
        let mut padded = Vec::with_capacity(live.len());
        let mut pad_lens = Vec::with_capacity(live.len());
        for &i in &live {
            let row = pad_to(histories[i], t, pad, PaddingScheme::Pre);
            pad_lens.push(row.iter().take_while(|&&x| x == pad).count());
            padded.push(row);
        }
        let bias = InferBias {
            base: broadcast_then_add(&causal_mask(t), &key_padding_mask(t, &pad_lens)),
            scaled_column: None,
        };
        let mut h = self.emb.infer_lookup_seq(&self.store, &padded);
        self.pos.infer_add_in_place(&self.store, &mut h);
        let last = infer_stack(&self.blocks, &self.store, h, &bias, t - 1);
        let logits = self.out.infer(&self.store, &last);
        let vocab = self.num_items + 1;
        for (&i, row) in live.iter().zip(logits.data().chunks(vocab)) {
            out[i] = row[..self.num_items].to_vec();
        }
        out
    }

    fn name(&self) -> &'static str {
        "SASRec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank_of;

    fn cycle_seqs(n_items: usize, n_seqs: usize, len: usize) -> Vec<SubSeq> {
        (0..n_seqs)
            .map(|s| SubSeq { user: s, items: (0..len).map(|k| (s + k) % n_items).collect() })
            .collect()
    }

    #[test]
    fn learns_cycle_transitions() {
        let seqs = cycle_seqs(8, 24, 10);
        let cfg = SasRecConfig {
            dim: 16,
            layers: 1,
            heads: 2,
            max_len: 10,
            dropout: 0.0,
            train: NeuralTrainConfig { epochs: 10, lr: 3e-3, ..Default::default() },
        };
        let model = SasRec::fit(&seqs, 8, &cfg);
        let mut hits = 0;
        for prev in 0..8usize {
            let s = model.score(0, &[(prev + 7) % 8, prev]);
            if rank_of(&s, (prev + 1) % 8) <= 2 {
                hits += 1;
            }
        }
        assert!(hits >= 6, "SASRec learned only {hits}/8 transitions");
    }

    #[test]
    fn score_length_and_empty_history() {
        let seqs = cycle_seqs(5, 4, 6);
        let cfg = SasRecConfig {
            dim: 8,
            layers: 1,
            heads: 1,
            max_len: 6,
            dropout: 0.0,
            train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        };
        let model = SasRec::fit(&seqs, 5, &cfg);
        assert_eq!(model.score(0, &[1, 2]).len(), 5);
        assert_eq!(model.score(0, &[]), vec![0.0; 5]);
    }
}
