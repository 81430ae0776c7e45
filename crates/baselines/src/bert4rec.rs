//! Bert4Rec — bidirectional self-attention with cloze training
//! (Sun et al., 2019).  The paper selects Bert4Rec as the IRS evaluator
//! because it achieves the best HR@20/MRR of all candidates (Table II).

use irs_data::split::{pad_to, PaddingScheme, SubSeq};
use irs_data::{pad_token, ItemId, UserId};
use irs_nn::{
    infer_stack, key_padding_mask, Adam, AttnBias, Embedding, FwdCtx, InferBias, Linear, Optimizer,
    ParamStore, PositionalEncoding, TransformerBlock,
};
use irs_tensor::Graph;
use rand::{Rng, SeedableRng};

use crate::{NeuralTrainConfig, SequentialScorer};

/// Bert4Rec hyperparameters.
#[derive(Debug, Clone)]
pub struct Bert4RecConfig {
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
    /// Cloze masking probability.
    pub mask_prob: f32,
    /// Shared training options.
    pub train: NeuralTrainConfig,
}

impl Default for Bert4RecConfig {
    fn default() -> Self {
        Bert4RecConfig {
            dim: 32,
            layers: 2,
            heads: 2,
            max_len: 24,
            dropout: 0.1,
            mask_prob: 0.3,
            train: NeuralTrainConfig::default(),
        }
    }
}

/// A trained Bert4Rec model.
///
/// Vocabulary layout: `0..num_items` are real items, `num_items` is PAD,
/// `num_items + 1` is the `[MASK]` token.
pub struct Bert4Rec {
    store: ParamStore,
    emb: Embedding,
    pos: PositionalEncoding,
    blocks: Vec<TransformerBlock>,
    out: Linear,
    num_items: usize,
    max_len: usize,
    epoch_losses: Vec<f32>,
}

impl Bert4Rec {
    /// The `[MASK]` token id.
    fn mask_token(&self) -> ItemId {
        self.num_items + 1
    }

    /// Train with the cloze objective.
    pub fn fit(seqs: &[SubSeq], num_items: usize, config: &Bert4RecConfig) -> Self {
        let pad = pad_token(num_items);
        let mask_tok = num_items + 1;
        let vocab = num_items + 2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "bert4rec.emb", vocab, config.dim, &mut rng);
        let pos =
            PositionalEncoding::new(&mut store, "bert4rec", config.max_len, config.dim, &mut rng);
        let blocks: Vec<TransformerBlock> = (0..config.layers)
            .map(|l| {
                TransformerBlock::new(
                    &mut store,
                    &format!("bert4rec.block{l}"),
                    config.dim,
                    config.heads,
                    config.dropout,
                    &mut rng,
                )
            })
            .collect();
        let out = Linear::new(&mut store, "bert4rec.out", config.dim, vocab, true, &mut rng);
        let mut model = Bert4Rec {
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
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        let mut step = 0u64;
        // One tape for the whole run, reset per minibatch (buffer reuse).
        let graph = Graph::new();
        for epoch in 0..config.train.epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut n = 0usize;
            for chunk in order.chunks(config.train.batch_size) {
                let (inputs, targets, pad_lens) =
                    model.make_cloze_batch(seqs, chunk, pad, mask_tok, config.mask_prob, &mut rng);
                let loss_val = model.train_step(
                    &graph,
                    &inputs,
                    &targets,
                    &pad_lens,
                    pad,
                    step,
                    &mut opt,
                    config.train.clip,
                );
                step += 1;
                epoch_loss += loss_val;
                n += 1;
            }
            let mean_loss = epoch_loss / n.max(1) as f32;
            model.epoch_losses.push(mean_loss);
            if config.train.verbose {
                println!("Bert4Rec epoch {epoch}: loss {mean_loss:.4}");
            }
        }
        model
    }

    /// Mean training loss per epoch, recorded during [`Bert4Rec::fit`] —
    /// pinned by the trajectory determinism tests.
    pub fn training_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    /// Build one cloze batch: randomly mask non-pad positions; in half the
    /// examples additionally mask the final position (aligning training
    /// with the append-`[MASK]`-and-predict evaluation).
    #[allow(clippy::type_complexity)]
    fn make_cloze_batch<R: Rng + ?Sized>(
        &self,
        seqs: &[SubSeq],
        chunk: &[usize],
        pad: ItemId,
        mask_tok: ItemId,
        mask_prob: f32,
        rng: &mut R,
    ) -> (Vec<Vec<ItemId>>, Vec<ItemId>, Vec<usize>) {
        let t = self.max_len;
        let mut inputs = Vec::with_capacity(chunk.len());
        let mut targets = Vec::with_capacity(chunk.len() * t);
        let mut pad_lens = Vec::with_capacity(chunk.len());
        for &si in chunk {
            let padded = pad_to(&seqs[si].items, t, pad, PaddingScheme::Pre);
            let pad_len = padded.iter().take_while(|&&x| x == pad).count();
            pad_lens.push(pad_len);
            let mut input = padded.clone();
            let mut tgt = vec![pad; t];
            let mut masked_any = false;
            for p in pad_len..t {
                let force_last = p == t - 1 && rng.random::<f32>() < 0.5;
                if rng.random::<f32>() < mask_prob || force_last {
                    tgt[p] = padded[p];
                    input[p] = mask_tok;
                    masked_any = true;
                }
            }
            if !masked_any {
                // Guarantee at least one training signal per sequence.
                let p = t - 1;
                tgt[p] = padded[p];
                input[p] = mask_tok;
            }
            targets.extend_from_slice(&tgt);
            inputs.push(input);
        }
        (inputs, targets, pad_lens)
    }

    #[allow(clippy::too_many_arguments)]
    fn train_step(
        &mut self,
        g: &Graph,
        inputs: &[Vec<ItemId>],
        targets: &[ItemId],
        pad_lens: &[usize],
        pad: ItemId,
        step: u64,
        opt: &mut Adam,
        clip: f32,
    ) -> f32 {
        let t = self.max_len;
        g.reset();
        let ctx = FwdCtx::new(g, &self.store, true, step);
        // Bidirectional attention with key-padding masking only.
        let bias = AttnBias::Base(key_padding_mask(t, pad_lens));
        let mut h = self.pos.add_to(&ctx, self.emb.lookup_seq(&ctx, inputs));
        for block in &self.blocks {
            h = block.forward(&ctx, h, &bias);
        }
        let logits = self.out.forward3d(&ctx, h);
        let loss = logits.cross_entropy(targets, pad);
        let loss_val = loss.item();
        self.store.zero_grad();
        ctx.backprop(loss);
        drop(ctx);
        opt.step_clipped(&mut self.store, clip);
        loss_val
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
        config: &Bert4RecConfig,
    ) -> std::io::Result<Self> {
        let mut arch_cfg = config.clone();
        arch_cfg.train.epochs = 0; // build architecture only
        let mut model = Bert4Rec::fit(&[], num_items, &arch_cfg);
        model.store.load_parameters(reader)?;
        Ok(model)
    }
}

impl SequentialScorer for Bert4Rec {
    fn num_items(&self) -> usize {
        self.num_items
    }

    /// Score by appending `[MASK]` and predicting it, as in the original
    /// Bert4Rec evaluation protocol.  This graph-path forward is the
    /// reference implementation `score_batch`'s tape-free engine is tested
    /// against.
    fn score(&self, _user: UserId, history: &[ItemId]) -> Vec<f32> {
        let pad = pad_token(self.num_items);
        let mut seq: Vec<ItemId> = history.to_vec();
        seq.push(self.mask_token());
        let padded = pad_to(&seq, self.max_len, pad, PaddingScheme::Pre);
        let t = padded.len();
        let pad_len = padded.iter().take_while(|&&x| x == pad).count();
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &self.store, false, 0);
        let bias = AttnBias::Base(key_padding_mask(t, &[pad_len]));
        let mut h = self.pos.add_to(&ctx, self.emb.lookup_seq(&ctx, &[padded]));
        for block in &self.blocks {
            h = block.forward(&ctx, h, &bias);
        }
        let logits = self.out.forward3d(&ctx, h).select_step(t - 1).value();
        logits.data()[..self.num_items].to_vec()
    }

    /// Batched `[MASK]`-prediction through the tape-free inference engine:
    /// all queries share one padded `[B, T]` pass, and the final block is
    /// evaluated at the mask position only.  Per row this reproduces
    /// [`Bert4Rec::score`] exactly.
    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        assert_eq!(users.len(), histories.len(), "score_batch users/histories length mismatch");
        if histories.is_empty() {
            return Vec::new();
        }
        let pad = pad_token(self.num_items);
        let t = self.max_len;
        let mut padded = Vec::with_capacity(histories.len());
        let mut pad_lens = Vec::with_capacity(histories.len());
        for h in histories {
            let mut seq: Vec<ItemId> = h.to_vec();
            seq.push(self.mask_token());
            let row = pad_to(&seq, t, pad, PaddingScheme::Pre);
            pad_lens.push(row.iter().take_while(|&&x| x == pad).count());
            padded.push(row);
        }
        let bias = InferBias { base: key_padding_mask(t, &pad_lens), scaled_column: None };
        let mut h = self.emb.infer_lookup_seq(&self.store, &padded);
        self.pos.infer_add_in_place(&self.store, &mut h);
        let last = infer_stack(&self.blocks, &self.store, h, &bias, t - 1);
        let logits = self.out.infer(&self.store, &last);
        let vocab = self.num_items + 2;
        logits.data().chunks(vocab).map(|row| row[..self.num_items].to_vec()).collect()
    }

    fn name(&self) -> &'static str {
        "Bert4Rec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank_of;

    /// Cycle walks with *varying lengths* so item identity does not
    /// correlate with absolute position (a fixed-length cycle corpus lets a
    /// positional model shortcut the cloze task without learning
    /// transitions).
    fn cycle_seqs(n_items: usize, n_seqs: usize, max_len: usize) -> Vec<SubSeq> {
        (0..n_seqs)
            .map(|s| {
                let len = max_len - (s % 5);
                SubSeq { user: s, items: (0..len).map(|k| (s + k) % n_items).collect() }
            })
            .collect()
    }

    #[test]
    fn learns_cycle_transitions() {
        let seqs = cycle_seqs(8, 40, 10);
        let cfg = Bert4RecConfig {
            dim: 16,
            layers: 1,
            heads: 2,
            max_len: 10,
            dropout: 0.0,
            mask_prob: 0.3,
            train: NeuralTrainConfig { epochs: 20, lr: 5e-3, ..Default::default() },
        };
        let model = Bert4Rec::fit(&seqs, 8, &cfg);
        let mut hits = 0;
        for prev in 0..8usize {
            // Use a history long enough to match the training length
            // distribution (position embeddings are length-sensitive).
            let history: Vec<ItemId> = (0..6).map(|k| (prev + 8 + k - 5) % 8).collect();
            let s = model.score(0, &history);
            if rank_of(&s, (prev + 1) % 8) <= 2 {
                hits += 1;
            }
        }
        assert!(hits >= 5, "Bert4Rec learned only {hits}/8 transitions");
    }

    #[test]
    fn scores_exclude_special_tokens() {
        let seqs = cycle_seqs(5, 4, 6);
        let cfg = Bert4RecConfig {
            dim: 8,
            layers: 1,
            heads: 1,
            max_len: 6,
            dropout: 0.0,
            mask_prob: 0.2,
            train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        };
        let model = Bert4Rec::fit(&seqs, 5, &cfg);
        assert_eq!(model.score(0, &[0, 1]).len(), 5);
    }
}
