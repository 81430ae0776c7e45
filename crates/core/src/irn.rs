//! The Influential Recommender Network (IRN), §III-D.
//!
//! Architecture (Fig. 4): item embedding (optionally initialised from
//! item2vec) + learned positional encoding → a stack of `L` decoder layers
//! whose self-attention uses the **Personalized Impressionability Mask**
//! (PIM) → linear projection to item logits.
//!
//! ## PIM (Fig. 5)
//!
//! Input sequences are pre-padded so the objective item occupies the fixed
//! final position `T−1`.  On top of the causal (lower-triangular) mask:
//!
//! * **Type 1** (`MaskType::Causal`): nothing — the objective column is
//!   invisible like any other future position (`w_h = w_t = 0`).
//! * **Type 2** (`MaskType::ObjectiveUniform`): column `T−1` is revealed to
//!   every query with a uniform additive weight `w_t`.
//! * **Type 3** (`MaskType::ObjectivePersonalized`): the additive weight is
//!   `w_t · r_u` with `r_u = W_U · e(u)` learned per user — gradients flow
//!   into the user embedding through the attention mask.
//!
//! ## Training objective (Eq. 8–9)
//!
//! Minimise the conditional perplexity of real subsequences whose last item
//! is the objective: standard shifted cross-entropy over the pre-padded
//! sequence, ignoring PAD targets.

use irs_data::split::{pad_to, PaddingScheme, SubSeq};
use irs_data::{pad_token, ItemId, UserId};
use irs_embed::ItemEmbeddings;
use irs_nn::{
    append_only_objective_mask, broadcast_then_add, causal_mask, causal_mask_with_objective,
    key_padding_mask, Adam, AppendKey, AttnBias, CacheState, Embedding, EncodingLayout, FwdCtx,
    InferBias, LayerKv, Linear, Optimizer, ParamStore, PositionalEncoding, ReduceLrOnPlateau,
    TransformerBlock,
};
use irs_tensor::{Graph, Tensor, Var};
use parking_lot::Mutex;
use rand::SeedableRng;

use crate::{InfluenceRecommender, NextQuery};
use irs_baselines::NeuralTrainConfig;

/// PIM variants (Table V ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskType {
    /// Type 1: plain causal mask; the objective is invisible.
    Causal,
    /// Type 2: objective column with uniform weight `w_t`.
    ObjectiveUniform,
    /// Type 3: objective column with personalized weight `w_t · r_u`.
    ObjectivePersonalized,
}

/// IRN hyperparameters (paper Table VI).
#[derive(Debug, Clone)]
pub struct IrnConfig {
    /// Item-embedding / model width `d`.
    pub dim: usize,
    /// User-embedding width `d'`.
    pub user_dim: usize,
    /// Decoder layers `L`.
    pub layers: usize,
    /// Attention heads `h`.
    pub heads: usize,
    /// Total input length `T = l_max + 1` (subsequence + objective slot is
    /// already part of the subsequence; `max_len` is the padded length).
    pub max_len: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Objective mask weight `w_t`.
    pub wt: f32,
    /// Mask variant.
    pub mask_type: MaskType,
    /// Padding scheme (§III-D5 argues for pre-padding; post-padding is the
    /// ablation).
    pub padding: PaddingScheme,
    /// Inference-time sequence layout.  [`EncodingLayout::PrePadded`] is
    /// the paper's right-aligned window; [`EncodingLayout::AppendOnly`]
    /// places context items at absolute positions `0..c` with the
    /// objective as a fixed appended query slot, which keeps encoded
    /// prefixes stable across serve steps and enables the per-session
    /// K/V cache ([`Irn::score_next_cached`]).  Contexts longer than
    /// `max_len − 1` items are cut by a hopping window, not a sliding
    /// one, so the cache keeps hitting on long sessions.  Training always
    /// uses the pre-padded layout; this only routes the scoring paths.
    pub layout: EncodingLayout,
    /// Shared training options.
    pub train: NeuralTrainConfig,
}

impl Default for IrnConfig {
    fn default() -> Self {
        IrnConfig {
            dim: 32,
            user_dim: 8,
            layers: 2,
            heads: 2,
            max_len: 24,
            dropout: 0.1,
            wt: 1.0,
            mask_type: MaskType::ObjectivePersonalized,
            padding: PaddingScheme::Pre,
            layout: EncodingLayout::default(),
            train: NeuralTrainConfig::default(),
        }
    }
}

/// A trained IRN.
pub struct Irn {
    store: ParamStore,
    emb: Embedding,
    pos: PositionalEncoding,
    blocks: Vec<TransformerBlock>,
    user_emb: Embedding,
    wu: Linear,
    out: Linear,
    config: IrnConfig,
    num_items: usize,
    num_users: usize,
    pim_cache: Mutex<PimCache>,
    epoch_losses: Vec<f32>,
}

/// Inference-time cache for the PIM attention bias, reused across decoding
/// steps (`score_next_batch` is called once per path step; neither part
/// below depends on the step's context):
///
/// * the shared `[T, T]` causal-plus-objective base mask — constant for a
///   given `w_t`/mask-type, rebuilt only when [`Irn::set_wt`] changes the
///   baked-in weight (the `wt` field is the invalidation key);
/// * the learned impressionability `r_u` per user — a pure function of the
///   trained weights, so valid for the model's lifetime.
///
/// Guarded by a `Mutex` (held only while assembling bias inputs, not during
/// the forward pass) so trained models stay `Sync` for parallel path
/// generation.
#[derive(Default)]
struct PimCache {
    wt: f32,
    base: Option<Tensor>,
    ru: Vec<Option<f32>>,
}

impl Irn {
    /// Train IRN on subsequences (each subsequence's last item is its
    /// objective).  `pretrained` seeds the item-embedding table from
    /// item2vec vectors when the dimensions match (§III-D1); `val` drives
    /// the reduce-on-plateau scheduler when non-empty.
    pub fn fit(
        train: &[SubSeq],
        val: &[SubSeq],
        num_items: usize,
        num_users: usize,
        config: &IrnConfig,
        pretrained: Option<&ItemEmbeddings>,
    ) -> Self {
        assert!(config.max_len >= 3, "max_len must allow context + objective");
        let vocab = num_items + 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();

        let emb = match pretrained {
            Some(p) if p.dim() == config.dim && p.num_items() == num_items => {
                // item2vec rows for real items; small random row for PAD.
                let mut table = Tensor::randn(&[vocab, config.dim], 0.01, &mut rng);
                let d = config.dim;
                table.data_mut()[..num_items * d].copy_from_slice(p.as_flat());
                Embedding::from_pretrained(&mut store, "irn.emb", table)
            }
            _ => Embedding::new(&mut store, "irn.emb", vocab, config.dim, &mut rng),
        };
        let pos = PositionalEncoding::new(&mut store, "irn", config.max_len, config.dim, &mut rng);
        let blocks: Vec<TransformerBlock> = (0..config.layers)
            .map(|l| {
                TransformerBlock::new(
                    &mut store,
                    &format!("irn.block{l}"),
                    config.dim,
                    config.heads,
                    config.dropout,
                    &mut rng,
                )
            })
            .collect();
        let user_emb =
            Embedding::new(&mut store, "irn.user", num_users.max(1), config.user_dim, &mut rng);
        let wu = Linear::new(&mut store, "irn.wu", config.user_dim, 1, true, &mut rng);
        let out = Linear::new(&mut store, "irn.out", config.dim, vocab, true, &mut rng);

        let mut model = Irn {
            store,
            emb,
            pos,
            blocks,
            user_emb,
            wu,
            out,
            config: config.clone(),
            num_items,
            num_users: num_users.max(1),
            pim_cache: Mutex::new(PimCache::default()),
            epoch_losses: Vec::new(),
        };

        let mut opt = Adam::new(config.train.lr);
        let mut sched = ReduceLrOnPlateau::new(1);
        let mut step = 0u64;
        // One tape for the whole run: every step re-records ops but
        // recycles the previous step's value/gradient buffers.
        let graph = Graph::new();
        for epoch in 0..config.train.epochs {
            use rand::seq::SliceRandom;
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut n = 0usize;
            for chunk in order.chunks(config.train.batch_size) {
                let batch: Vec<&SubSeq> = chunk.iter().map(|&i| &train[i]).collect();
                let loss = model.train_step(&graph, &batch, step, &mut opt);
                step += 1;
                epoch_loss += loss;
                n += 1;
            }
            let train_loss = epoch_loss / n.max(1) as f32;
            model.epoch_losses.push(train_loss);
            let monitored = if val.is_empty() { train_loss } else { model.dataset_loss(val) };
            sched.observe(monitored, &mut opt);
            if config.train.verbose {
                println!(
                    "IRN epoch {epoch}: train {train_loss:.4}, monitored {monitored:.4}, lr {:.2e}",
                    opt.lr()
                );
            }
        }
        model
    }

    /// Inference-time objective weight (the aggressiveness knob of Fig. 7
    /// can be swept without retraining, though the experiments retrain).
    pub fn set_wt(&mut self, wt: f32) {
        self.config.wt = wt;
    }

    /// Current objective mask weight.
    pub fn wt(&self) -> f32 {
        self.config.wt
    }

    /// Model configuration.
    pub fn config(&self) -> &IrnConfig {
        &self.config
    }

    /// Mean training loss per epoch, recorded during [`Irn::fit`] — pinned
    /// by the trajectory determinism tests.
    pub fn training_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    /// Number of real items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of users the model was trained for (at least 1).
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Serialise the trained parameters (IRSP format, see
    /// `irs_nn::ParamStore::save_parameters`).
    pub fn save<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        self.store.save_parameters(writer)
    }

    /// Reconstruct a model of the given architecture and load trained
    /// parameters into it.  The config, item count and user count must
    /// match the saved model exactly (checked by name/shape).
    pub fn load<R: std::io::Read>(
        reader: R,
        num_items: usize,
        num_users: usize,
        config: &IrnConfig,
    ) -> std::io::Result<Self> {
        let mut arch_cfg = config.clone();
        arch_cfg.train.epochs = 0; // build architecture only
        let mut model = Irn::fit(&[], &[], num_items, num_users, &arch_cfg, None);
        model.config = config.clone();
        model.store.load_parameters(reader)?;
        Ok(model)
    }

    /// The learned personalized impressionability factor `r_u` (Fig. 8).
    pub fn ru(&self, user: UserId) -> f32 {
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &self.store, false, 0);
        let e = self.user_emb.lookup(&ctx, &[user % self.num_users]);
        self.wu.forward2d(&ctx, e).item()
    }

    /// `r_u` for every user.
    pub fn all_ru(&self) -> Vec<f32> {
        (0..self.num_users).map(|u| self.ru(u)).collect()
    }

    // ------------------------------------------------------------------
    // Forward passes
    // ------------------------------------------------------------------

    /// Assemble the PIM attention bias for a batch.
    fn build_bias<'g>(
        &self,
        ctx: &FwdCtx<'g, '_>,
        users: &[UserId],
        pad_lens: &[usize],
    ) -> AttnBias<'g> {
        let t = self.config.max_len;
        let keypad = key_padding_mask(t, pad_lens);
        match self.config.mask_type {
            MaskType::Causal => AttnBias::Base(broadcast_then_add(&causal_mask(t), &keypad)),
            MaskType::ObjectiveUniform => AttnBias::Base(broadcast_then_add(
                &causal_mask_with_objective(t, t - 1, self.config.wt),
                &keypad,
            )),
            MaskType::ObjectivePersonalized => {
                // Objective column visible (weight 0 in the base); the
                // learned part w_t·r_u is added differentiably.
                let base = broadcast_then_add(&causal_mask_with_objective(t, t - 1, 0.0), &keypad);
                let idx: Vec<UserId> = users.iter().map(|&u| u % self.num_users).collect();
                let e = self.user_emb.lookup(ctx, &idx);
                let ru = self.wu.forward2d(ctx, e).reshape(&[users.len()]);
                AttnBias::BaseWithScaledColumn {
                    base,
                    col: t - 1,
                    scale: ru,
                    weight: self.config.wt,
                }
            }
        }
    }

    /// Decoder forward: `[B][T]` tokens -> logits `[B, T, vocab]`.
    fn decode<'g>(
        &self,
        ctx: &FwdCtx<'g, '_>,
        users: &[UserId],
        inputs: &[Vec<ItemId>],
        pad_lens: &[usize],
    ) -> Var<'g> {
        let bias = self.build_bias(ctx, users, pad_lens);
        let mut h = self.pos.add_to(ctx, self.emb.lookup_seq(ctx, inputs));
        for block in &self.blocks {
            h = block.forward(ctx, h, &bias);
        }
        self.out.forward3d(ctx, h)
    }

    /// Pre-padded batch tensors for a set of subsequences.
    #[allow(clippy::type_complexity)]
    fn prepare_batch(
        &self,
        batch: &[&SubSeq],
    ) -> (Vec<UserId>, Vec<Vec<ItemId>>, Vec<ItemId>, Vec<usize>) {
        let pad = pad_token(self.num_items);
        let t = self.config.max_len;
        let mut users = Vec::with_capacity(batch.len());
        let mut inputs = Vec::with_capacity(batch.len());
        let mut targets = Vec::with_capacity(batch.len() * t);
        let mut pad_lens = Vec::with_capacity(batch.len());
        for s in batch {
            users.push(s.user);
            let padded = pad_to(&s.items, t, pad, self.config.padding);
            // Shifted targets: position p predicts token p+1; the final
            // position (the objective itself) has no successor.
            for p in 0..t {
                targets.push(if p + 1 < t { padded[p + 1] } else { pad });
            }
            pad_lens.push(padded.iter().take_while(|&&x| x == pad).count());
            inputs.push(padded);
        }
        (users, inputs, targets, pad_lens)
    }

    pub(crate) fn train_step(
        &mut self,
        g: &Graph,
        batch: &[&SubSeq],
        step: u64,
        opt: &mut Adam,
    ) -> f32 {
        let pad = pad_token(self.num_items);
        let (users, inputs, targets, pad_lens) = self.prepare_batch(batch);
        g.reset();
        let ctx = FwdCtx::new(g, &self.store, true, step);
        let logits = self.decode(&ctx, &users, &inputs, &pad_lens);
        let loss = logits.cross_entropy(&targets, pad);
        let loss_val = loss.item();
        self.store.zero_grad();
        ctx.backprop(loss);
        drop(ctx);
        opt.step_clipped(&mut self.store, self.config.train.clip);
        loss_val
    }

    /// Mean shifted cross-entropy over a dataset (validation loss; also the
    /// model perplexity of Eq. 8 in log form).
    pub fn dataset_loss(&self, seqs: &[SubSeq]) -> f32 {
        if seqs.is_empty() {
            return f32::NAN;
        }
        let pad = pad_token(self.num_items);
        let mut total = 0.0;
        let mut n = 0usize;
        let graph = Graph::new();
        for chunk in seqs.chunks(16) {
            let batch: Vec<&SubSeq> = chunk.iter().collect();
            let (users, inputs, targets, pad_lens) = self.prepare_batch(&batch);
            graph.reset();
            let ctx = FwdCtx::new(&graph, &self.store, false, 0);
            let logits = self.decode(&ctx, &users, &inputs, &pad_lens);
            total += logits.cross_entropy(&targets, pad).item();
            n += 1;
        }
        total / n as f32
    }

    /// Next-item logits given a context and the objective, routed on
    /// [`IrnConfig::layout`].  Pre-padded: the context is pre-padded to
    /// end at position `T−2` with the objective pinned at `T−1`; the
    /// returned scores are the logits at the last context position (PAD
    /// logit removed).  Append-only: context tokens at absolute
    /// positions `0..c` with the objective at the fixed appended query
    /// slot (the cold path [`Irn::score_next_cached`] is pinned to).
    pub fn score_next(&self, user: UserId, context: &[ItemId], objective: ItemId) -> Vec<f32> {
        if self.config.layout == EncodingLayout::AppendOnly {
            return self.score_next_append(user, context, objective);
        }
        let pad = pad_token(self.num_items);
        let t = self.config.max_len;
        // Keep the most recent T−1 tokens of context ⊕ objective.
        let mut seq: Vec<ItemId> = context.to_vec();
        seq.push(objective);
        let padded = pad_to(&seq, t, pad, self.config.padding);
        let pad_len = padded.iter().take_while(|&&x| x == pad).count();
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &self.store, false, 0);
        let logits = self.decode(&ctx, &[user], &[padded], &[pad_len]).select_step(t - 2).value();
        logits.data()[..self.num_items].to_vec()
    }

    /// Batched [`Irn::score_next`]: pads `N` contexts (each ⊕ its
    /// objective) into a single `[N, T]` forward pass under the PIM mask
    /// and returns next-item logits per row.
    ///
    /// Every row's computation is independent of its neighbours and the
    /// tensor kernels accumulate deterministically, so each returned row is
    /// bitwise identical to the scalar [`Irn::score_next`] — `score_next`
    /// stays the reference path, and a debug assertion spot-checks the
    /// first row against it on every batched call.
    pub fn score_next_batch(
        &self,
        users: &[UserId],
        contexts: &[&[ItemId]],
        objectives: &[ItemId],
    ) -> Vec<Vec<f32>> {
        assert_eq!(users.len(), contexts.len(), "score_next_batch users/contexts mismatch");
        assert_eq!(users.len(), objectives.len(), "score_next_batch users/objectives mismatch");
        if users.is_empty() {
            return Vec::new();
        }
        if self.config.layout == EncodingLayout::AppendOnly {
            // Append-only rows have per-query lengths, so there is no
            // shared `[N, T]` rectangle to batch; score each row through
            // the scalar append path (itself the bitwise reference).
            return users
                .iter()
                .zip(contexts.iter().zip(objectives))
                .map(|(&u, (ctx_items, &obj))| self.score_next_append(u, ctx_items, obj))
                .collect();
        }
        let pad = pad_token(self.num_items);
        let t = self.config.max_len;
        let mut inputs = Vec::with_capacity(users.len());
        let mut pad_lens = Vec::with_capacity(users.len());
        for (ctx_items, &obj) in contexts.iter().zip(objectives) {
            let mut seq: Vec<ItemId> = ctx_items.to_vec();
            seq.push(obj);
            let padded = pad_to(&seq, t, pad, self.config.padding);
            pad_lens.push(padded.iter().take_while(|&&x| x == pad).count());
            inputs.push(padded);
        }
        let bias = self.cached_infer_bias(users, &pad_lens);
        let mut h = self.emb.infer_lookup_seq(&self.store, &inputs);
        self.pos.infer_add_in_place(&self.store, &mut h);
        // Only position T−2 (the last context slot) feeds the output
        // projection, so the final block runs its query/FFN for that row
        // alone and earlier blocks run in full — the graph path computes
        // every position because training needs every logit.
        let d = self.config.dim;
        let last = match self.blocks.split_last() {
            Some((final_block, earlier)) => {
                for block in earlier {
                    h = block.infer(&self.store, &h, &bias);
                }
                final_block.infer_last_query(&self.store, &h, &bias, t - 2)
            }
            None => {
                let mut rows = Vec::with_capacity(users.len() * d);
                for bi in 0..users.len() {
                    let off = bi * t * d + (t - 2) * d;
                    rows.extend_from_slice(&h.data()[off..off + d]);
                }
                Tensor::from_vec(rows, &[users.len(), d])
            }
        };
        let logits = self.out.infer(&self.store, &last);
        let vocab = self.num_items + 1;
        let rows: Vec<Vec<f32>> =
            logits.data().chunks(vocab).map(|row| row[..self.num_items].to_vec()).collect();
        debug_assert!(
            {
                let reference = self.score_next(users[0], contexts[0], objectives[0]);
                rows[0].iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits())
            },
            "batched scores diverged from the scalar reference path"
        );
        rows
    }

    /// Inference-only PIM bias assembled from [`PimCache`]: the shared base
    /// mask and the per-user `r_u` scalars are fetched (or computed once)
    /// under the cache lock; the lock is released before the forward pass.
    ///
    /// Produces the same bias values as the differentiable
    /// [`Irn::build_bias`]: `r_u` is evaluated through the identical
    /// lookup + linear kernels, only detached from the tape.
    fn cached_infer_bias(&self, users: &[UserId], pad_lens: &[usize]) -> InferBias {
        let t = self.config.max_len;
        let keypad = key_padding_mask(t, pad_lens);
        let mut cache = self.pim_cache.lock();
        if cache.base.is_some() && cache.wt != self.config.wt {
            cache.base = None; // w_t is baked into the Type-2 base mask
        }
        if cache.base.is_none() {
            cache.wt = self.config.wt;
            cache.base = Some(match self.config.mask_type {
                MaskType::Causal => causal_mask(t),
                MaskType::ObjectiveUniform => causal_mask_with_objective(t, t - 1, self.config.wt),
                MaskType::ObjectivePersonalized => causal_mask_with_objective(t, t - 1, 0.0),
            });
        }
        let base = broadcast_then_add(cache.base.as_ref().expect("base mask built"), &keypad);
        let scaled_column = match self.config.mask_type {
            MaskType::Causal | MaskType::ObjectiveUniform => None,
            MaskType::ObjectivePersonalized => {
                if cache.ru.is_empty() {
                    cache.ru = vec![None; self.num_users];
                }
                let ru_vals: Vec<f32> = users
                    .iter()
                    .map(|&u| {
                        let idx = u % self.num_users;
                        *cache.ru[idx].get_or_insert_with(|| self.ru(idx))
                    })
                    .collect();
                Some((t - 1, ru_vals, self.config.wt))
            }
        };
        InferBias { base, scaled_column }
    }

    // ------------------------------------------------------------------
    // Append-only layout: cold path + per-session incremental cache
    // ------------------------------------------------------------------

    /// The append-only context window over a budget of `T − 1` context
    /// items (one slot stays reserved for the objective).  Up to `T − 1`
    /// items the whole context is kept; past that the start advances in
    /// hops of `H = (T − 1) / 2` ([`irs_baselines::hopping_window_start`],
    /// the policy SASRec and GRU4Rec share), so the window holds more than
    /// `T − 1 − H` and at most `T − 1` items, and the encoded prefix stays
    /// stable for `H` steps at a time.  An empty context is substituted with a
    /// single PAD token so there is always a last context row to read
    /// logits from — the one place this layout is not comparable to the
    /// pre-padded one, which reads a PAD row out of a fully padded window
    /// instead.
    fn append_window(&self, context: &[ItemId]) -> Vec<ItemId> {
        let start = irs_baselines::hopping_window_start(context.len(), self.config.max_len - 1);
        if context[start..].is_empty() {
            vec![pad_token(self.num_items)]
        } else {
            context[start..].to_vec()
        }
    }

    /// `r_u` through the [`PimCache`] memo — the same values as
    /// [`Irn::ru`], computed at most once per user for the model's
    /// lifetime.
    fn cached_ru(&self, user: UserId) -> f32 {
        let idx = user % self.num_users;
        let mut cache = self.pim_cache.lock();
        if cache.ru.is_empty() {
            cache.ru = vec![None; self.num_users];
        }
        *cache.ru[idx].get_or_insert_with(|| self.ru(idx))
    }

    /// PIM bias for an `n`-row append-only window (`n − 1` context rows
    /// plus the objective row at index `n − 1`).  Every row is a real
    /// token, so there is no key-padding term; the mask is the shared
    /// 2-D [`append_only_objective_mask`] with the per-type objective
    /// column weight.
    fn append_infer_bias(&self, user: UserId, n: usize) -> InferBias {
        let base = match self.config.mask_type {
            MaskType::Causal => append_only_objective_mask(n, -1e9),
            MaskType::ObjectiveUniform => append_only_objective_mask(n, self.config.wt),
            MaskType::ObjectivePersonalized => append_only_objective_mask(n, 0.0),
        };
        let scaled_column = match self.config.mask_type {
            MaskType::Causal | MaskType::ObjectiveUniform => None,
            MaskType::ObjectivePersonalized => {
                Some((n - 1, vec![self.cached_ru(user)], self.config.wt))
            }
        };
        InferBias { base, scaled_column }
    }

    /// Cold full re-encode in the append-only layout: context tokens at
    /// absolute positions `0..c`, the objective embedded at the fixed
    /// positional slot `max_len − 1`, logits read at the last context
    /// row.
    ///
    /// At `L = 1` with a full window this is bitwise identical to the
    /// pre-padded [`Irn::score_next`]: positions and every visible-key
    /// bias entry coincide, and the only differing mask rows belong to
    /// the objective query, whose output nothing reads at one layer.
    /// With shorter contexts the absolute positions differ from the
    /// right-aligned window, so the layout is a model configuration, not
    /// a transparent optimisation of the pre-padded scores.
    fn score_next_append(&self, user: UserId, context: &[ItemId], objective: ItemId) -> Vec<f32> {
        let mut rows = self.append_window(context);
        let c = rows.len();
        let n = c + 1;
        let d = self.config.dim;
        rows.push(objective);
        let mut h = self.emb.infer_lookup(&self.store, &rows);
        for (i, row) in h.data_mut().chunks_mut(d).enumerate() {
            let pos = if i == c { self.config.max_len - 1 } else { i };
            self.pos.infer_add_row_in_place(&self.store, row, pos);
        }
        h.reshape_in_place(&[1, n, d]);
        let bias = self.append_infer_bias(user, n);
        let last = match self.blocks.split_last() {
            Some((final_block, earlier)) => {
                for block in earlier {
                    h = block.infer(&self.store, &h, &bias);
                }
                final_block.infer_last_query(&self.store, &h, &bias, c - 1)
            }
            None => {
                let off = (c - 1) * d;
                Tensor::from_vec(h.data()[off..off + d].to_vec(), &[1, d])
            }
        };
        let logits = self.out.infer(&self.store, &last);
        logits.data()[..self.num_items].to_vec()
    }

    /// A fresh (unprimed) incremental per-session cache for this model.
    /// Requires [`EncodingLayout::AppendOnly`] to be useful; the trait
    /// route ([`InfluenceRecommender::new_context_cache`]) only hands
    /// these out in that layout.
    pub fn new_append_cache(&self) -> IrnCacheState {
        IrnCacheState {
            user: 0,
            objective: 0,
            wt: 0.0,
            ru_scaled: None,
            tokens: Vec::new(),
            layers: (0..self.config.layers)
                .map(|_| IrnLayerState {
                    ctx: LayerKv::new(self.config.dim),
                    obj_k: Vec::new(),
                    obj_v: Vec::new(),
                })
                .collect(),
            last_out: Vec::new(),
            primed: false,
        }
    }

    /// One embedded-and-positioned input row (`[D]`): the same embedding
    /// row copy and positional add the cold path applies per row.
    fn append_input_row(&self, token: ItemId, pos: usize) -> Vec<f32> {
        let e = self.emb.infer_lookup(&self.store, &[token]);
        let mut x = e.data().to_vec();
        self.pos.infer_add_row_in_place(&self.store, &mut x, pos);
        x
    }

    /// Rebuild `cache` for `(user, objective, w_t)`: drop the context
    /// rows and run the objective ladder.  The objective row attends
    /// only to itself under [`append_only_objective_mask`], so its
    /// per-layer key/value rows are independent of the context and are
    /// computed once here per session.
    fn cache_prime(&self, cache: &mut IrnCacheState, user: UserId, objective: ItemId) {
        cache.user = user;
        cache.objective = objective;
        cache.wt = self.config.wt;
        cache.ru_scaled = match self.config.mask_type {
            MaskType::Causal | MaskType::ObjectiveUniform => None,
            // Same multiply order as `add_bias_in_place`: w_t · r_u.
            MaskType::ObjectivePersonalized => Some(self.config.wt * self.cached_ru(user)),
        };
        cache.tokens.clear();
        cache.last_out.clear();
        let mut x = self.append_input_row(objective, self.config.max_len - 1);
        for (block, layer) in self.blocks.iter().zip(&mut cache.layers) {
            layer.ctx.clear();
            // Empty context: the objective row's only visible key is its
            // own, with the 0.0 self-bias the cold mask pins.
            let r = block.infer_append_row(&self.store, &x, &layer.ctx, 0.0, cache.ru_scaled, None);
            layer.obj_k = r.k;
            layer.obj_v = r.v;
            x = r.out.data().to_vec();
        }
        cache.primed = true;
    }

    /// Encode one more context token into `cache` (at position
    /// `cache.tokens.len()`), appending its K/V rows at every layer.
    fn cache_step_token(&self, cache: &mut IrnCacheState, token: ItemId) {
        let obj_base = match self.config.mask_type {
            MaskType::Causal => -1e9,
            MaskType::ObjectiveUniform => self.config.wt,
            MaskType::ObjectivePersonalized => 0.0,
        };
        let mut x = self.append_input_row(token, cache.tokens.len());
        for (block, layer) in self.blocks.iter().zip(&mut cache.layers) {
            let objective = AppendKey {
                k: &layer.obj_k,
                v: &layer.obj_v,
                base: obj_base,
                scaled: cache.ru_scaled,
            };
            let r = block.infer_append_row(&self.store, &x, &layer.ctx, 0.0, None, Some(objective));
            layer.ctx.push(&r.k, &r.v);
            x = r.out.data().to_vec();
        }
        cache.tokens.push(token);
        cache.last_out = x;
    }

    /// Next-item logits through a per-session incremental cache
    /// ([`EncodingLayout::AppendOnly`] only).  Returns the scores plus
    /// whether the cached prefix was reused (`true`) or rebuilt.
    ///
    /// A hit requires the cache to be primed for the same
    /// `(user, objective, w_t)` and the stored tokens to be a prefix of
    /// the current window; then only the new suffix is encoded —
    /// `O(context)` work per serve step instead of `O(context²)`.  Once
    /// a session outgrows `max_len − 1` items the window start hops
    /// forward once every `H = (max_len − 1) / 2` steps
    /// ([`irs_baselines::hopping_window_start`]); between hops the stored
    /// prefix keeps matching, and a hop rebuilds the shortened window
    /// once.
    ///
    /// Bitwise identical to the cold [`Irn::score_next`] in this layout:
    /// every float accumulates in the same order over the same visible
    /// keys (masked keys contribute an exact `0.0` in both paths) — see
    /// `irs_nn::MultiHeadAttention::infer_append_row` and the
    /// `incremental_cache` property tests.
    pub fn score_next_cached(
        &self,
        user: UserId,
        context: &[ItemId],
        objective: ItemId,
        cache: &mut IrnCacheState,
    ) -> (Vec<f32>, bool) {
        assert_eq!(
            self.config.layout,
            EncodingLayout::AppendOnly,
            "incremental scoring requires the append-only layout"
        );
        let toks = self.append_window(context);
        let hit = cache.primed
            && cache.user == user
            && cache.objective == objective
            && cache.wt.to_bits() == self.config.wt.to_bits()
            && toks.len() >= cache.tokens.len()
            && toks[..cache.tokens.len()] == cache.tokens[..];
        if !hit {
            self.cache_prime(cache, user, objective);
        }
        let start = cache.tokens.len();
        for &tok in &toks[start..] {
            self.cache_step_token(cache, tok);
        }
        let last = Tensor::from_vec(cache.last_out.clone(), &[1, self.config.dim]);
        let logits = self.out.infer(&self.store, &last);
        (logits.data()[..self.num_items].to_vec(), hit)
    }
}

/// Per-layer slice of [`IrnCacheState`]: the append-only context K/V
/// rows plus the objective slot's fixed key/value rows for that layer.
#[derive(Debug, Clone, Default)]
struct IrnLayerState {
    ctx: LayerKv,
    obj_k: Vec<f32>,
    obj_v: Vec<f32>,
}

/// Incremental per-session state of an [`EncodingLayout::AppendOnly`]
/// IRN: one encoded context prefix (per-layer K/V rows plus the
/// objective ladder) keyed by the `(user, objective, w_t)` it was built
/// under.  Obtained from [`Irn::new_append_cache`] (or type-erased via
/// [`InfluenceRecommender::new_context_cache`]) and advanced by
/// [`Irn::score_next_cached`].
pub struct IrnCacheState {
    user: UserId,
    objective: ItemId,
    wt: f32,
    ru_scaled: Option<f32>,
    tokens: Vec<ItemId>,
    layers: Vec<IrnLayerState>,
    last_out: Vec<f32>,
    primed: bool,
}

impl CacheState for IrnCacheState {
    fn resident_bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let mut total =
            self.tokens.capacity() * std::mem::size_of::<ItemId>() + self.last_out.capacity() * f;
        for layer in &self.layers {
            total += layer.ctx.bytes() + (layer.obj_k.capacity() + layer.obj_v.capacity()) * f;
        }
        total
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl InfluenceRecommender for Irn {
    fn name(&self) -> String {
        "IRN".into()
    }

    fn next_item(
        &self,
        user: UserId,
        history: &[ItemId],
        objective: ItemId,
        path: &[ItemId],
    ) -> Option<ItemId> {
        let mut context = history.to_vec();
        context.extend_from_slice(path);
        let scores = self.score_next(user, &context, objective);
        crate::masked_argmax(
            &scores,
            history.iter().chain(path.iter()).copied().filter(|&i| i != objective),
        )
    }

    /// All queries share one `[N, T]` forward through
    /// [`Irn::score_next_batch`] instead of `N` scalar passes.
    fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
        if queries.is_empty() {
            return;
        }
        let (contexts, users) = crate::batched_query_parts(queries);
        let ctx_refs: Vec<&[ItemId]> = contexts.iter().map(Vec::as_slice).collect();
        let objectives: Vec<ItemId> = queries.iter().map(|q| q.objective).collect();
        let scores = self.score_next_batch(&users, &ctx_refs, &objectives);
        out.extend(queries.iter().zip(&scores).map(|(q, s)| {
            crate::masked_argmax(
                s,
                q.history.iter().chain(q.path.iter()).copied().filter(|&i| i != q.objective),
            )
        }));
    }

    fn new_context_cache(&self) -> Option<Box<dyn CacheState>> {
        match self.config.layout {
            EncodingLayout::PrePadded => None,
            EncodingLayout::AppendOnly => Some(Box::new(self.new_append_cache())),
        }
    }

    fn next_item_cached(
        &self,
        query: &NextQuery<'_>,
        cache: &mut dyn CacheState,
    ) -> (Option<ItemId>, bool) {
        let Some(state) = cache.as_any_mut().downcast_mut::<IrnCacheState>() else {
            return (self.next_item(query.user, query.history, query.objective, query.path), false);
        };
        let mut context = query.history.to_vec();
        context.extend_from_slice(query.path);
        let (scores, hit) = self.score_next_cached(query.user, &context, query.objective, state);
        let answer = crate::masked_argmax(
            &scores,
            query
                .history
                .iter()
                .chain(query.path.iter())
                .copied()
                .filter(|&i| i != query.objective),
        );
        (answer, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Genre-block world: items 0..4 are genre A, 5..9 genre B, with
    /// bridge transitions 4↔5.  Objectives pull sessions toward their
    /// genre.
    fn block_seqs(n: usize) -> Vec<SubSeq> {
        let mut seqs = Vec::new();
        for s in 0..n {
            let (base, off) = if s % 2 == 0 { (0, s) } else { (5, s) };
            let items: Vec<ItemId> = (0..8).map(|k| base + (off + k) % 5).collect();
            seqs.push(SubSeq { user: s % 6, items });
        }
        // A few cross-genre bridge sequences ending in genre B.
        for s in 0..n / 2 {
            let items: Vec<ItemId> =
                vec![s % 5, (s + 1) % 5, 4, 5, 5 + (s + 1) % 5, 5 + (s + 2) % 5];
            seqs.push(SubSeq { user: s % 6, items });
        }
        seqs
    }

    fn quick_config() -> IrnConfig {
        IrnConfig {
            dim: 16,
            user_dim: 4,
            layers: 1,
            heads: 2,
            max_len: 10,
            dropout: 0.0,
            wt: 1.0,
            mask_type: MaskType::ObjectivePersonalized,
            padding: PaddingScheme::Pre,
            layout: EncodingLayout::PrePadded,
            train: NeuralTrainConfig { epochs: 6, lr: 3e-3, ..Default::default() },
        }
    }

    /// A fast-to-train append-only model for the cache tests.
    fn append_config() -> IrnConfig {
        IrnConfig {
            layout: EncodingLayout::AppendOnly,
            train: NeuralTrainConfig { epochs: 2, lr: 3e-3, ..Default::default() },
            ..quick_config()
        }
    }

    #[test]
    fn trains_and_loss_decreases() {
        let seqs = block_seqs(24);
        let cfg = quick_config();
        // Loss of an untrained (0-epoch) model vs trained model.
        let untrained = Irn::fit(
            &seqs,
            &[],
            10,
            6,
            &IrnConfig {
                train: NeuralTrainConfig { epochs: 0, ..cfg.train.clone() },
                ..cfg.clone()
            },
            None,
        );
        let trained = Irn::fit(&seqs, &[], 10, 6, &cfg, None);
        let lu = untrained.dataset_loss(&seqs);
        let lt = trained.dataset_loss(&seqs);
        assert!(lt < lu * 0.8, "training must reduce loss: {lu} -> {lt}");
    }

    #[test]
    fn score_next_has_item_length_and_is_finite() {
        let seqs = block_seqs(12);
        let model = Irn::fit(&seqs, &[], 10, 6, &quick_config(), None);
        let s = model.score_next(0, &[0, 1, 2], 7);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn next_item_never_repeats_context() {
        let seqs = block_seqs(12);
        let model = Irn::fit(&seqs, &[], 10, 6, &quick_config(), None);
        let path = crate::generate_influence_path(&model, 0, &[0, 1], 9, 6);
        let mut seen = vec![0, 1];
        for &i in &path {
            assert!(!seen.contains(&i) || i == 9, "item {i} repeated");
            seen.push(i);
        }
    }

    #[test]
    fn score_next_batch_matches_scalar_within_tolerance() {
        let seqs = block_seqs(24);
        let model = Irn::fit(&seqs, &[], 10, 6, &quick_config(), None);
        let contexts: Vec<Vec<ItemId>> =
            vec![vec![0, 1, 2], vec![5, 6], vec![], vec![3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3]];
        let users = [0usize, 3, 5, 1];
        let objectives = [7usize, 2, 9, 8];
        let ctx_refs: Vec<&[ItemId]> = contexts.iter().map(Vec::as_slice).collect();
        // Twice: the second call runs fully from the PIM cache.
        for round in 0..2 {
            let batched = model.score_next_batch(&users, &ctx_refs, &objectives);
            assert_eq!(batched.len(), 4);
            for ((&u, (ctx, &obj)), row) in
                users.iter().zip(contexts.iter().zip(&objectives)).zip(&batched)
            {
                let scalar = model.score_next(u, ctx, obj);
                assert_eq!(row.len(), scalar.len());
                for (a, b) in row.iter().zip(&scalar) {
                    assert!(
                        (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                        "round {round}: batched {a} vs scalar {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_items_matches_next_item() {
        let seqs = block_seqs(24);
        let model = Irn::fit(&seqs, &[], 10, 6, &quick_config(), None);
        let histories: Vec<Vec<ItemId>> = vec![vec![0, 1], vec![5, 6, 7], vec![2]];
        let paths: Vec<Vec<ItemId>> = vec![vec![2], vec![], vec![3, 4]];
        let queries: Vec<NextQuery<'_>> = histories
            .iter()
            .zip(&paths)
            .enumerate()
            .map(|(u, (h, p))| NextQuery { user: u, history: h, objective: 9, path: p })
            .collect();
        let mut batched = Vec::new();
        model.next_items_into(&queries, &mut batched);
        assert_eq!(batched.len(), queries.len());
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(*b, model.next_item(q.user, q.history, q.objective, q.path));
        }
    }

    #[test]
    fn set_wt_invalidates_the_cached_base_mask() {
        // Type-2 masks bake w_t into the cached base; changing w_t must
        // change batched scores just like it changes scalar scores.
        let seqs = block_seqs(12);
        let cfg = IrnConfig { mask_type: MaskType::ObjectiveUniform, ..quick_config() };
        let mut model = Irn::fit(&seqs, &[], 10, 6, &cfg, None);
        let ctx: Vec<ItemId> = vec![0, 1, 2];
        let before = model.score_next_batch(&[0], &[&ctx], &[8]);
        model.set_wt(3.0);
        let after = model.score_next_batch(&[0], &[&ctx], &[8]);
        let scalar_after = model.score_next(0, &ctx, 8);
        for (a, b) in after[0].iter().zip(&scalar_after) {
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0));
        }
        let diff: f32 = before[0].iter().zip(&after[0]).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "w_t change must reach the cached mask (diff {diff})");
    }

    #[test]
    fn ru_is_finite_and_user_specific() {
        let seqs = block_seqs(24);
        let model = Irn::fit(&seqs, &[], 10, 6, &quick_config(), None);
        let rus = model.all_ru();
        assert_eq!(rus.len(), 6);
        assert!(rus.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn objective_changes_the_recommendation_distribution() {
        // With the PIM, swapping the objective must change the scores
        // (Type 1 causal masking would not see it at all).
        let seqs = block_seqs(24);
        let model = Irn::fit(&seqs, &[], 10, 6, &quick_config(), None);
        let s_a = model.score_next(0, &[0, 1, 2], 8);
        let s_b = model.score_next(0, &[0, 1, 2], 3);
        let diff: f32 = s_a.iter().zip(&s_b).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "objective must influence the distribution (diff {diff})");
    }

    #[test]
    fn causal_mask_type_ignores_objective_content() {
        // Type 1: objective token is masked everywhere except its own
        // query row, and predictions are read at T−2, so two different
        // objectives must give identical scores.
        let seqs = block_seqs(12);
        let cfg = IrnConfig { mask_type: MaskType::Causal, ..quick_config() };
        let model = Irn::fit(&seqs, &[], 10, 6, &cfg, None);
        let s_a = model.score_next(0, &[0, 1, 2], 8);
        let s_b = model.score_next(0, &[0, 1, 2], 3);
        for (a, b) in s_a.iter().zip(&s_b) {
            assert!((a - b).abs() < 1e-5, "causal IRN must not see the objective");
        }
    }

    #[test]
    fn save_load_round_trips_scores() {
        let seqs = block_seqs(12);
        let cfg = quick_config();
        let model = Irn::fit(&seqs, &[], 10, 6, &cfg, None);
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        let restored = Irn::load(&bytes[..], 10, 6, &cfg).unwrap();
        assert_eq!(
            model.score_next(2, &[0, 1, 2], 7),
            restored.score_next(2, &[0, 1, 2], 7),
            "restored model must score identically"
        );
        assert_eq!(model.ru(3), restored.ru(3));
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let seqs = block_seqs(12);
        let cfg = quick_config();
        let model = Irn::fit(&seqs, &[], 10, 6, &cfg, None);
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        let wrong = IrnConfig { dim: 8, ..cfg };
        assert!(Irn::load(&bytes[..], 10, 6, &wrong).is_err());
    }

    #[test]
    fn append_layout_matches_pre_padded_at_full_window() {
        // L = 1 and a full window: context positions and every
        // visible-key bias entry coincide between the two layouts, so
        // the scores must be bitwise equal.
        let seqs = block_seqs(12);
        let mut model = Irn::fit(&seqs, &[], 10, 6, &quick_config(), None);
        assert!(model.new_context_cache().is_none(), "pre-padded layout has no cache");
        let ctx: Vec<ItemId> = (0..9).map(|i| i % 10).collect(); // T − 1 = 9 items
        let pre = model.score_next(1, &ctx, 7);
        model.config.layout = EncodingLayout::AppendOnly;
        assert!(model.new_context_cache().is_some(), "append-only layout has a cache");
        let app = model.score_next(1, &ctx, 7);
        for (a, b) in app.iter().zip(&pre) {
            assert_eq!(a.to_bits(), b.to_bits(), "append {a} vs pre-padded {b}");
        }
    }

    #[test]
    fn cached_scores_match_cold_append_bitwise() {
        let seqs = block_seqs(12);
        let model = Irn::fit(&seqs, &[], 10, 6, &append_config(), None);
        let mut cache = model.new_append_cache();
        let session: Vec<ItemId> = vec![0, 3, 1, 4, 2, 5, 9, 6];
        for step in 0..=session.len() {
            let ctx = &session[..step];
            let (scores, hit) = model.score_next_cached(2, ctx, 8, &mut cache);
            // Step 0 primes an empty cache; step 1 replaces the PAD
            // placeholder window; from step 2 on the prefix extends.
            assert_eq!(hit, step >= 2, "unexpected hit flag at step {step}");
            let cold = model.score_next(2, ctx, 8);
            for (a, b) in scores.iter().zip(&cold) {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}: cached {a} vs cold {b}");
            }
        }
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn cached_scores_match_cold_append_bitwise_on_long_sessions() {
        let seqs = block_seqs(12);
        let model = Irn::fit(&seqs, &[], 10, 6, &append_config(), None);
        let window = model.config.max_len - 1; // 9 items, hop H = 4
        let mut cache = model.new_append_cache();
        // Runs three hops and more past the window.  A hop shortens the
        // window, so the stored tokens can never be its prefix: hops miss.
        let session: Vec<ItemId> = (0..window + 14).map(|i| (i * 7) % 10).collect();
        let start = |len: usize| irs_baselines::hopping_window_start(len, window);
        assert!(start(session.len()) >= 3 * (window / 2), "session must hop at least 3 times");
        for step in 0..=session.len() {
            let ctx = &session[..step];
            let (scores, hit) = model.score_next_cached(2, ctx, 8, &mut cache);
            let reuses = step >= 2 && start(step) == start(step - 1);
            assert_eq!(hit, reuses, "unexpected hit flag at step {step}");
            let cold = model.score_next(2, ctx, 8);
            for (a, b) in scores.iter().zip(&cold) {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}: cached {a} vs cold {b}");
            }
        }
    }

    #[test]
    fn cache_rebuilds_on_prefix_or_objective_change() {
        let seqs = block_seqs(12);
        let model = Irn::fit(&seqs, &[], 10, 6, &append_config(), None);
        let mut cache = model.new_append_cache();
        let (_, hit) = model.score_next_cached(2, &[0, 1, 2], 8, &mut cache);
        assert!(!hit, "fresh cache cannot hit");
        let (_, hit) = model.score_next_cached(2, &[0, 1, 2], 8, &mut cache);
        assert!(hit, "identical re-query must hit");
        // A mutated mid-prefix, a different user and a different
        // objective must each rebuild — and still score exactly cold.
        for (user, ctx, obj) in
            [(2, vec![0, 7, 2], 8), (4, vec![0, 7, 2], 8), (4, vec![0, 7, 2], 9)]
        {
            let (scores, hit) = model.score_next_cached(user, &ctx, obj, &mut cache);
            assert!(!hit, "changed query must rebuild");
            let cold = model.score_next(user, &ctx, obj);
            for (a, b) in scores.iter().zip(&cold) {
                assert_eq!(a.to_bits(), b.to_bits(), "cached {a} vs cold {b}");
            }
        }
    }

    #[test]
    fn next_item_cached_matches_next_item() {
        let seqs = block_seqs(12);
        let model = Irn::fit(&seqs, &[], 10, 6, &append_config(), None);
        let window = model.config.max_len - 1;
        // A short history, and one past the 9-item window whose path
        // crosses a hop.
        let long: Vec<ItemId> = [0, 5, 1, 6].repeat(3);
        for history in [&[0, 5][..], &long[..]] {
            let mut cache = model.new_context_cache().expect("append layout has a cache");
            let mut path: Vec<ItemId> = Vec::new();
            for step in 0..5 {
                let q = NextQuery { user: 1, history, objective: 9, path: &path };
                let (answer, hit) = model.next_item_cached(&q, cache.as_mut());
                assert_eq!(answer, model.next_item(1, history, 9, &path), "step {step}");
                let len = history.len() + step;
                let reuses = step > 0
                    && irs_baselines::hopping_window_start(len, window)
                        == irs_baselines::hopping_window_start(len - 1, window);
                assert_eq!(hit, reuses, "unexpected hit flag at step {step}");
                match answer {
                    Some(item) => path.push(item),
                    None => break,
                }
            }
            assert!(cache.resident_bytes() > 0);
        }
    }

    #[test]
    fn pretrained_embeddings_are_loaded() {
        use irs_embed::{train_item2vec, Item2VecConfig};
        let seqs = block_seqs(12);
        let raw: Vec<Vec<ItemId>> = seqs.iter().map(|s| s.items.clone()).collect();
        let emb =
            train_item2vec(&raw, 10, &Item2VecConfig { dim: 16, epochs: 1, ..Default::default() });
        let cfg = IrnConfig {
            train: NeuralTrainConfig { epochs: 0, ..Default::default() },
            ..quick_config()
        };
        let model = Irn::fit(&seqs, &[], 10, 6, &cfg, Some(&emb));
        // With 0 training epochs the embedding table must equal item2vec.
        let s = model.store.value(model.emb.table_id());
        assert_eq!(&s.data()[..10 * 16], emb.as_flat());
    }
}
