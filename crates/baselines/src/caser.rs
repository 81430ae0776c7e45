//! Caser — convolutional sequence embedding (Tang & Wang, 2018).
//!
//! Horizontal convolutions (union-level patterns) are realised as
//! unfold-windows + matmul; the vertical convolution (point-level
//! patterns) as a matmul over the transposed embedding block.

use irs_data::split::{pad_to, PaddingScheme, SubSeq};
use irs_data::{pad_token, ItemId, UserId};
use irs_nn::{Activation, Adam, Embedding, FwdCtx, Linear, Optimizer, ParamStore};
use irs_tensor::{Graph, Tensor, Var};
use rand::{seq::SliceRandom, SeedableRng};

use crate::{NeuralTrainConfig, SequentialScorer};

/// Caser hyperparameters.
#[derive(Debug, Clone)]
pub struct CaserConfig {
    /// Item/user embedding dimensionality.
    pub dim: usize,
    /// Markov window `L` (number of previous items fed to the CNN).
    pub l_window: usize,
    /// Horizontal filter heights.
    pub heights: Vec<usize>,
    /// Filters per horizontal height.
    pub n_h: usize,
    /// Vertical filters.
    pub n_v: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Shared training options.
    pub train: NeuralTrainConfig,
}

impl Default for CaserConfig {
    fn default() -> Self {
        CaserConfig {
            dim: 32,
            l_window: 5,
            heights: vec![2, 3],
            n_h: 8,
            n_v: 4,
            dropout: 0.1,
            train: NeuralTrainConfig::default(),
        }
    }
}

/// A trained Caser model.
pub struct Caser {
    store: ParamStore,
    item_emb: Embedding,
    user_emb: Embedding,
    conv_h: Vec<Linear>,
    conv_v: Linear,
    fc: Linear,
    out: Linear,
    cfg_dim: usize,
    l_window: usize,
    heights: Vec<usize>,
    n_v: usize,
    dropout: f32,
    num_items: usize,
    num_users: usize,
    epoch_losses: Vec<f32>,
}

impl Caser {
    /// Train on sliding windows over the subsequences.
    pub fn fit(seqs: &[SubSeq], num_items: usize, num_users: usize, config: &CaserConfig) -> Self {
        for &h in &config.heights {
            assert!(h >= 1 && h <= config.l_window, "filter height {h} out of range");
        }
        let vocab = num_items + 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let item_emb = Embedding::new(&mut store, "caser.item", vocab, config.dim, &mut rng);
        let user_emb =
            Embedding::new(&mut store, "caser.user", num_users.max(1), config.dim, &mut rng);
        let conv_h: Vec<Linear> = config
            .heights
            .iter()
            .map(|&h| {
                Linear::new(
                    &mut store,
                    &format!("caser.h{h}"),
                    h * config.dim,
                    config.n_h,
                    true,
                    &mut rng,
                )
            })
            .collect();
        let conv_v =
            Linear::new(&mut store, "caser.v", config.l_window, config.n_v, false, &mut rng);
        let z_dim = config.n_h * config.heights.len() + config.n_v * config.dim;
        let fc = Linear::new(&mut store, "caser.fc", z_dim, config.dim, true, &mut rng);
        let out = Linear::new(&mut store, "caser.out", 2 * config.dim, vocab, true, &mut rng);

        let mut model = Caser {
            store,
            item_emb,
            user_emb,
            conv_h,
            conv_v,
            fc,
            out,
            cfg_dim: config.dim,
            l_window: config.l_window,
            heights: config.heights.clone(),
            n_v: config.n_v,
            dropout: config.dropout,
            num_items,
            num_users: num_users.max(1),
            epoch_losses: Vec::new(),
        };

        // Training windows: (user, L previous items, next item).
        let pad = pad_token(num_items);
        let mut windows: Vec<(UserId, Vec<ItemId>, ItemId)> = Vec::new();
        for s in seqs {
            for t in 1..s.items.len() {
                let lo = t.saturating_sub(config.l_window);
                let ctx_items = pad_to(&s.items[lo..t], config.l_window, pad, PaddingScheme::Pre);
                windows.push((s.user % model.num_users, ctx_items, s.items[t]));
            }
        }

        let mut opt = Adam::new(config.train.lr);
        let mut step = 0u64;
        // One tape for the whole run, reset per minibatch (buffer reuse).
        let graph = Graph::new();
        for epoch in 0..config.train.epochs {
            windows.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut n = 0usize;
            for chunk in windows.chunks(config.train.batch_size) {
                let users: Vec<UserId> = chunk.iter().map(|w| w.0).collect();
                let inputs: Vec<Vec<ItemId>> = chunk.iter().map(|w| w.1.clone()).collect();
                let targets: Vec<ItemId> = chunk.iter().map(|w| w.2).collect();
                graph.reset();
                let ctx = FwdCtx::new(&graph, &model.store, true, step);
                step += 1;
                let logits = model.forward(&ctx, &users, &inputs);
                let loss = logits.cross_entropy(&targets, pad);
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
                println!("Caser epoch {epoch}: loss {mean_loss:.4}");
            }
        }
        model
    }

    /// Mean training loss per epoch, recorded during [`Caser::fit`] —
    /// pinned by the trajectory determinism tests.
    pub fn training_losses(&self) -> &[f32] {
        &self.epoch_losses
    }

    /// Full forward pass: users + `[B][L]` item windows -> `[B, vocab]`.
    fn forward<'g>(
        &self,
        ctx: &FwdCtx<'g, '_>,
        users: &[UserId],
        windows: &[Vec<ItemId>],
    ) -> Var<'g> {
        let b = windows.len();
        let d = self.cfg_dim;
        let l = self.l_window;
        let e = self.item_emb.lookup_seq(ctx, windows); // [B, L, D]

        let mut features: Vec<Var<'g>> = Vec::new();
        // Horizontal convolutions: per height, windowed matmul + relu + max.
        for (conv, &h) in self.conv_h.iter().zip(&self.heights) {
            let unfolded = e.unfold_windows(h); // [B, L-h+1, h*D]
            let fmap = conv.forward3d(ctx, unfolded).relu(); // [B, L-h+1, n_h]
            features.push(fmap.max_axis1()); // [B, n_h]
        }
        // Vertical convolution: weights over the L axis per embedding dim.
        let et = e.transpose_last2().reshape(&[b * d, l]); // [B*D, L]
        let v = et.matmul(ctx.param(self.conv_v.weight_id())); // [B*D, n_v]
        features.push(v.reshape(&[b, d * self.n_v]));

        let z = Var::concat_last(&features);
        let z = ctx.dropout(z.relu(), self.dropout);
        let seq_repr = self.fc.forward2d(ctx, z); // [B, D]
        let u = self.user_emb.lookup(ctx, users); // [B, D]
        let full = Var::concat_last(&[seq_repr, u]); // [B, 2D]
        self.out.forward2d(ctx, full)
    }

    /// Tape-free mirror of [`Caser::forward`] (eval mode: dropout is the
    /// identity): the identical kernels in the identical order, evaluated
    /// on [`Tensor`] values with no graph nodes and an allocation-light
    /// layout — windows arrive as one flat `[B·L]` index slice, the
    /// per-height `relu → max` epilogue folds straight into the
    /// concatenated feature buffer, and the vertical convolution writes
    /// its feature block in place (same products, same `L`-ascending
    /// accumulation and skip-zero rule as the `et @ Wv` matmul).  Every
    /// stage applies the identical arithmetic in the identical order as
    /// [`Caser::forward`], so per row the result is bitwise equal to the
    /// graph path — `batch_properties.rs` pins it.
    fn infer_forward(&self, users: &[UserId], flat_windows: &[usize]) -> Tensor {
        let d = self.cfg_dim;
        let l = self.l_window;
        let b = flat_windows.len() / l;
        let mut e = self.item_emb.infer_lookup(&self.store, flat_windows); // [B*L, D]
        e.reshape_in_place(&[b, l, d]);

        let n_h_total: usize = self.conv_h.iter().map(Linear::out_dim).sum();
        let z_dim = n_h_total + d * self.n_v;
        let mut z = vec![0.0f32; b * z_dim];
        let mut off = 0;
        // Horizontal convolutions: per height, windowed matmul, then
        // relu+max fused into this height's column block of `z` (the
        // same comparison sequence as `relu` + `max_axis1`).
        for (conv, &h) in self.conv_h.iter().zip(&self.heights) {
            let unfolded = e.unfold_windows(h); // [B, L-h+1, h*D]
            let fmap = conv.infer(&self.store, &unfolded); // [B, L-h+1, n_h]
            let (w_cnt, nh) = (l - h + 1, conv.out_dim());
            for bi in 0..b {
                let zrow = &mut z[bi * z_dim + off..bi * z_dim + off + nh];
                zrow.fill(f32::NEG_INFINITY);
                for s in 0..w_cnt {
                    let frow =
                        &fmap.data()[bi * w_cnt * nh + s * nh..bi * w_cnt * nh + (s + 1) * nh];
                    for (zv, &f) in zrow.iter_mut().zip(frow) {
                        let val = f.max(0.0);
                        if val > *zv {
                            *zv = val;
                        }
                    }
                }
            }
            off += nh;
        }
        // Vertical convolution, in place: element `(di, c)` of row `bi`'s
        // feature block accumulates `Σ_l e[bi, l, di] · Wv[l, c]` with `l`
        // ascending — the identical dot product (and skip-zero-`a` rule)
        // the graph path's `[B·D, L] @ [L, n_v]` matmul performs.
        let wv = self.store.value(self.conv_v.weight_id());
        for bi in 0..b {
            let vblock = &mut z[bi * z_dim + off..(bi + 1) * z_dim];
            for di in 0..d {
                for li in 0..l {
                    let a = e.data()[bi * l * d + li * d + di];
                    if a == 0.0 {
                        continue;
                    }
                    let wrow = &wv.data()[li * self.n_v..(li + 1) * self.n_v];
                    for (o, &wc) in vblock[di * self.n_v..(di + 1) * self.n_v].iter_mut().zip(wrow)
                    {
                        *o += a * wc;
                    }
                }
            }
        }

        let mut z = Tensor::from_vec(z, &[b, z_dim]);
        Activation::Relu.apply_in_place(&mut z);
        let seq_repr = self.fc.infer(&self.store, &z); // [B, D]
        let u = self.user_emb.infer_lookup(&self.store, users); // [B, D]
        let full = Tensor::concat_last(&[&seq_repr, &u]); // [B, 2D]
        self.out.infer(&self.store, &full)
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
        num_users: usize,
        config: &CaserConfig,
    ) -> std::io::Result<Self> {
        let mut arch_cfg = config.clone();
        arch_cfg.train.epochs = 0; // build architecture only
        let mut model = Caser::fit(&[], num_items, num_users, &arch_cfg);
        model.store.load_parameters(reader)?;
        Ok(model)
    }
}

impl SequentialScorer for Caser {
    fn num_items(&self) -> usize {
        self.num_items
    }

    /// Scalar scoring through the autograd graph in eval mode — the
    /// reference implementation the tape-free [`Caser::score_batch`]
    /// engine is pinned against.
    fn score(&self, user: UserId, history: &[ItemId]) -> Vec<f32> {
        let pad = pad_token(self.num_items);
        let window = pad_to(history, self.l_window, pad, PaddingScheme::Pre);
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &self.store, false, 0);
        let logits = self.forward(&ctx, &[user % self.num_users], &[window]).value();
        logits.data()[..self.num_items].to_vec()
    }

    /// Batched tape-free forward: all queries share one convolutional pass
    /// through the value-level `infer_forward` engine, skipping the
    /// autograd graph entirely.  Per row this reproduces [`Caser::score`]
    /// bitwise.
    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        assert_eq!(users.len(), histories.len(), "score_batch users/histories length mismatch");
        if histories.is_empty() {
            return Vec::new();
        }
        let pad = pad_token(self.num_items);
        let lw = self.l_window;
        // Pre-padded windows as one flat [B·L] buffer (same layout
        // `pad_to(…, PaddingScheme::Pre)` produces row by row).
        let mut flat = vec![pad; histories.len() * lw];
        for (r, h) in histories.iter().enumerate() {
            let take = h.len().min(lw);
            flat[r * lw + lw - take..(r + 1) * lw].copy_from_slice(&h[h.len() - take..]);
        }
        let mapped: Vec<UserId> = users.iter().map(|&u| u % self.num_users).collect();
        let logits = self.infer_forward(&mapped, &flat);
        let vocab = logits.shape()[1];
        logits.data().chunks(vocab).map(|row| row[..self.num_items].to_vec()).collect()
    }

    fn name(&self) -> &'static str {
        "Caser"
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
        let cfg = CaserConfig {
            dim: 16,
            l_window: 4,
            heights: vec![2, 3],
            n_h: 8,
            n_v: 2,
            dropout: 0.0,
            train: NeuralTrainConfig { epochs: 8, lr: 3e-3, ..Default::default() },
        };
        let model = Caser::fit(&seqs, 8, 24, &cfg);
        let mut hits = 0;
        for prev in 0..8usize {
            let s = model.score(0, &[(prev + 6) % 8, (prev + 7) % 8, prev]);
            if rank_of(&s, (prev + 1) % 8) <= 2 {
                hits += 1;
            }
        }
        assert!(hits >= 6, "Caser learned only {hits}/8 transitions");
    }

    #[test]
    fn short_history_is_padded() {
        let seqs = cycle_seqs(5, 4, 6);
        let cfg = CaserConfig {
            dim: 8,
            l_window: 4,
            heights: vec![2],
            n_h: 4,
            n_v: 2,
            dropout: 0.0,
            train: NeuralTrainConfig { epochs: 1, ..Default::default() },
        };
        let model = Caser::fit(&seqs, 5, 4, &cfg);
        let s = model.score(0, &[1]);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|v| v.is_finite()));
    }
}
