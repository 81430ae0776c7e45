//! SASRec — self-attentive sequential recommendation (Kang & McAuley, 2018).

use irs_data::split::{pad_to, PaddingScheme, SubSeq};
use irs_data::{pad_token, ItemId, UserId};
use irs_nn::{
    broadcast_then_add, causal_mask, infer_stack, key_padding_mask, Adam, AttnBias, CacheState,
    Embedding, EncodingLayout, FwdCtx, InferBias, LayerKv, Linear, Optimizer, ParamStore,
    PositionalEncoding, TransformerBlock,
};
use irs_tensor::{Graph, Tensor};
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
    /// Inference-time sequence layout: pre-padded window (the default)
    /// or append-only absolute positions, which keeps encoded prefixes
    /// stable across serve steps and enables the per-session K/V cache
    /// ([`SequentialScorer::score_incremental`]).  Training always uses
    /// the padded batch layout.
    pub layout: EncodingLayout,
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
            layout: EncodingLayout::default(),
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
    dim: usize,
    layout: EncodingLayout,
    epoch_losses: Vec<f32>,
}

/// Per-session incremental state for [`SasRec`] in the append-only
/// layout: the encoded window tokens, one [`LayerKv`] per block, and the
/// final-block output row for the newest position.
#[derive(Debug, Clone)]
pub struct SasRecCacheState {
    tokens: Vec<ItemId>,
    layers: Vec<LayerKv>,
    last_out: Vec<f32>,
}

impl CacheState for SasRecCacheState {
    fn resident_bytes(&self) -> usize {
        let mut bytes = self.tokens.capacity() * std::mem::size_of::<ItemId>()
            + self.last_out.capacity() * std::mem::size_of::<f32>();
        for layer in &self.layers {
            bytes += layer.bytes();
        }
        bytes
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
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
            dim: config.dim,
            layout: config.layout,
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

    /// Tape-free forward of a windowed history in the append-only layout:
    /// tokens sit at absolute positions `0..c` with no padding and a plain
    /// causal mask.  At a full window this performs the same contraction as
    /// the pre-padded path (whose padded columns soften to exactly-zero
    /// attention weights the kernels skip), so the two layouts are
    /// bitwise-identical there — pinned by
    /// `append_layout_matches_pre_padded_at_full_window`.
    fn append_logits(&self, toks: &[ItemId]) -> Vec<f32> {
        let c = toks.len();
        let d = self.dim;
        let mut h = self.emb.infer_lookup(&self.store, toks);
        for (i, row) in h.data_mut().chunks_mut(d).enumerate() {
            self.pos.infer_add_row_in_place(&self.store, row, i);
        }
        h.reshape_in_place(&[1, c, d]);
        let bias = InferBias { base: causal_mask(c), scaled_column: None };
        let last = infer_stack(&self.blocks, &self.store, h, &bias, c - 1);
        let logits = self.out.infer(&self.store, &last);
        logits.data()[..self.num_items].to_vec()
    }

    /// Encode one appended token through every block, pushing its K/V rows
    /// into the per-session cache.
    fn cache_step(&self, cache: &mut SasRecCacheState, token: ItemId) {
        let e = self.emb.infer_lookup(&self.store, &[token]);
        let mut x = e.data().to_vec();
        self.pos.infer_add_row_in_place(&self.store, &mut x, cache.tokens.len());
        for (block, layer) in self.blocks.iter().zip(cache.layers.iter_mut()) {
            let r = block.infer_append_row(&self.store, &x, layer, 0.0, None, None);
            layer.push(&r.k, &r.v);
            x = r.out.data().to_vec();
        }
        cache.tokens.push(token);
        cache.last_out = x;
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
        if self.layout == EncodingLayout::AppendOnly {
            let start = crate::hopping_window_start(history.len(), self.max_len);
            return self.append_logits(&history[start..]);
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
        if self.layout == EncodingLayout::AppendOnly {
            // Rows have unequal lengths in the append layout (no padding to
            // equalise them), so the batch is a loop over the scalar path.
            return users.iter().zip(histories).map(|(&u, &h)| self.score(u, h)).collect();
        }
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

    fn new_incremental_state(&self) -> Option<Box<dyn CacheState>> {
        if self.layout != EncodingLayout::AppendOnly {
            return None;
        }
        Some(Box::new(SasRecCacheState {
            tokens: Vec::new(),
            layers: (0..self.blocks.len()).map(|_| LayerKv::new(self.dim)).collect(),
            last_out: Vec::new(),
        }))
    }

    /// Reuse the session's encoded prefix: a hit encodes only the new
    /// suffix tokens (one per-layer K/V append each); a prefix mismatch
    /// clears the state and replays the bounded window.  The window
    /// advances in hops ([`crate::hopping_window_start`]), so sessions
    /// that outgrow `max_len` keep hitting between hops instead of
    /// rebuilding every step.  Scores are bitwise-identical to
    /// [`SasRec::score`] in the append layout.
    fn score_incremental(
        &self,
        user: UserId,
        history: &[ItemId],
        state: &mut dyn CacheState,
    ) -> (Vec<f32>, bool) {
        if self.layout != EncodingLayout::AppendOnly {
            return (self.score(user, history), false);
        }
        let Some(cache) = state.as_any_mut().downcast_mut::<SasRecCacheState>() else {
            return (self.score(user, history), false);
        };
        if history.is_empty() {
            return (vec![0.0; self.num_items], false);
        }
        let start = crate::hopping_window_start(history.len(), self.max_len);
        let toks = &history[start..];
        let hit = !cache.tokens.is_empty()
            && toks.len() >= cache.tokens.len()
            && toks[..cache.tokens.len()] == cache.tokens[..];
        if !hit {
            cache.tokens.clear();
            for layer in &mut cache.layers {
                layer.clear();
            }
        }
        let encoded = cache.tokens.len();
        for &tok in &toks[encoded..] {
            self.cache_step(cache, tok);
        }
        let last = Tensor::from_vec(cache.last_out.clone(), &[1, self.dim]);
        let logits = self.out.infer(&self.store, &last);
        (logits.data()[..self.num_items].to_vec(), hit)
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
            layout: EncodingLayout::PrePadded,
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
            layout: EncodingLayout::PrePadded,
            train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        };
        let model = SasRec::fit(&seqs, 5, &cfg);
        assert_eq!(model.score(0, &[1, 2]).len(), 5);
        assert_eq!(model.score(0, &[]), vec![0.0; 5]);
    }

    #[test]
    fn append_layout_matches_pre_padded_at_full_window() {
        let seqs = cycle_seqs(8, 24, 10);
        let cfg = SasRecConfig {
            dim: 16,
            layers: 2,
            heads: 2,
            max_len: 6,
            dropout: 0.0,
            layout: EncodingLayout::PrePadded,
            train: NeuralTrainConfig { epochs: 2, lr: 3e-3, ..Default::default() },
        };
        let mut model = SasRec::fit(&seqs, 8, &cfg);
        assert!(model.new_incremental_state().is_none(), "no cache in the pre-padded layout");
        let history: Vec<ItemId> = vec![0, 1, 2, 3, 4, 5];
        let pre = model.score(0, &history);
        model.layout = EncodingLayout::AppendOnly;
        let append = model.score(0, &history);
        assert_eq!(pre, append, "full-window append layout must be bitwise-identical");
    }

    #[test]
    fn cached_scores_match_cold_append_bitwise() {
        let seqs = cycle_seqs(8, 24, 10);
        let cfg = SasRecConfig {
            dim: 16,
            layers: 2,
            heads: 2,
            max_len: 6,
            dropout: 0.0,
            layout: EncodingLayout::AppendOnly,
            train: NeuralTrainConfig { epochs: 2, lr: 3e-3, ..Default::default() },
        };
        let model = SasRec::fit(&seqs, 8, &cfg);
        let mut state = model.new_incremental_state().expect("append layout has a cache");
        let session = [0usize, 3, 1, 4, 2, 5, 7, 6, 1, 0, 4, 3, 6, 2];
        let mut long_session_hits = 0;
        for step in 1..=session.len() {
            let history = &session[..step];
            let (scores, hit) = model.score_incremental(0, history, state.as_mut());
            // Step 1 primes; afterwards the hopping window keeps the
            // cached prefix valid on every step that doesn't hop.
            let expect = step > 1
                && crate::hopping_window_start(step, cfg.max_len)
                    == crate::hopping_window_start(step - 1, cfg.max_len);
            assert_eq!(hit, expect, "step {step}");
            if hit && step > cfg.max_len {
                long_session_hits += 1;
            }
            assert_eq!(scores, model.score(0, history), "step {step}");
        }
        assert!(
            long_session_hits > 0,
            "sessions outgrowing max_len must keep cache hits between hops"
        );
        assert!(state.resident_bytes() > 0);
        let mutated = [5usize, 2, 0];
        let (scores, hit) = model.score_incremental(0, &mutated, state.as_mut());
        assert!(!hit, "changed prefix must rebuild");
        assert_eq!(scores, model.score(0, &mutated));
    }
}
