//! A post-LN transformer block: self-attention and feed-forward sublayers
//! with residual connections, as used by SASRec, Bert4Rec and IRN.

use std::ops::Range;

use irs_tensor::{Tensor, Var};

use crate::attention::{AttnBias, MultiHeadAttention};
use crate::infer::{window_rows, InferBias};
use crate::linear::FeedForward;
use crate::norm::LayerNorm;
use crate::params::{FwdCtx, ParamStore};
use crate::Activation;

/// One decoder/encoder layer: `x = LN(x + Attn(x)); x = LN(x + FF(x))`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ff: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    dropout: f32,
}

impl TransformerBlock {
    /// Register a block of width `d` with `heads` attention heads and a
    /// feed-forward hidden size of `4·d`.
    pub fn new<R: rand::Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        d: usize,
        heads: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(store, &format!("{name}.attn"), d, heads, dropout, rng),
            ff: FeedForward::new(
                store,
                &format!("{name}.ff"),
                d,
                4 * d,
                Activation::Gelu,
                dropout,
                rng,
            ),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), d),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), d),
            dropout,
        }
    }

    /// Apply the block to `x: [B, T, D]` under the given attention bias.
    pub fn forward<'g>(&self, ctx: &FwdCtx<'g, '_>, x: Var<'g>, bias: &AttnBias<'g>) -> Var<'g> {
        let a = self.attn.forward(ctx, x, bias);
        let a = ctx.dropout(a, self.dropout);
        let x = self.ln1.forward(ctx, x.add(a));
        let f = self.ff.forward(ctx, x);
        let f = ctx.dropout(f, self.dropout);
        self.ln2.forward(ctx, x.add(f))
    }

    /// Tape-free eval-mode apply at the query rows `rows` (see
    /// [`MultiHeadAttention::infer`]), returning `[B, rows.len(), D]`: same
    /// sublayer order as [`TransformerBlock::forward`] with dropout as the
    /// identity; residual adds and layer norms mutate in place.
    pub fn infer(
        &self,
        store: &ParamStore,
        x: &Tensor,
        bias: &InferBias,
        rows: Range<usize>,
    ) -> Tensor {
        let mut h = self.attn.infer(store, x, bias, rows.clone());
        h.add_assign(&window_rows(x, rows));
        self.ln1.infer_in_place(store, &mut h);
        let f = self.ff.infer(store, &h);
        h.add_assign(&f);
        self.ln2.infer_in_place(store, &mut h);
        h
    }

    /// Incremental single-row block step against a per-session K/V cache
    /// (see [`MultiHeadAttention::infer_append_row`]): attention over the
    /// cached keys plus this row and the optional objective slot, then the
    /// residual/norm/feed-forward sublayers in the same order as
    /// [`TransformerBlock::infer`].  `out` is this row's block
    /// output `[1, D]`; `k`/`v` are its projection rows for the caller to
    /// append to the cache.
    pub fn infer_append_row(
        &self,
        store: &ParamStore,
        x_row: &[f32],
        cached: &crate::kvcache::LayerKv,
        own_base: f32,
        own_scaled: Option<f32>,
        objective: Option<crate::attention::AppendKey<'_>>,
    ) -> crate::attention::AppendRowOut {
        let mut r =
            self.attn.infer_append_row(store, x_row, cached, own_base, own_scaled, objective);
        // h = a + x (residual), matching `infer`'s add order.
        for (o, &xv) in r.out.data_mut().iter_mut().zip(x_row) {
            *o += xv;
        }
        self.ln1.infer_in_place(store, &mut r.out);
        let f = self.ff.infer(store, &r.out);
        r.out.add_assign(&f);
        self.ln2.infer_in_place(store, &mut r.out);
        r
    }
}

/// The tape-free stack at one query row: every block but the last runs
/// over the whole window, the last runs at row `q` only (the row the
/// next-item logits read), and with no blocks the result is row `q` of
/// `x`.  Returns `[B, D]`, bitwise equal to row `q` of the eval-mode graph
/// forward through the same blocks.
pub fn infer_stack(
    blocks: &[TransformerBlock],
    store: &ParamStore,
    mut x: Tensor,
    bias: &InferBias,
    q: usize,
) -> Tensor {
    let Some((last, earlier)) = blocks.split_last() else {
        return x.select_step(q);
    };
    let t = x.shape()[1];
    for block in earlier {
        x = block.infer(store, &x, bias, 0..t);
    }
    let mut h = last.infer(store, &x, bias, q..q + 1);
    let (b, d) = (h.shape()[0], h.shape()[2]);
    h.reshape_in_place(&[b, d]);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::causal_mask;
    use irs_tensor::Graph;
    use rand::SeedableRng;

    #[test]
    fn block_preserves_shape_and_trains() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "b", 8, 2, 0.0, &mut rng);
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, true, 0);
        let x = g.constant(Tensor::randn(&[2, 4, 8], 1.0, &mut rng));
        let y = block.forward(&ctx, x, &AttnBias::Base(causal_mask(4)));
        assert_eq!(y.shape(), vec![2, 4, 8]);
        let loss = y.mul(y).mean_all();
        store.zero_grad();
        ctx.backprop(loss);
        let any_grad = store.ids().any(|id| store.grad(id).sq_norm() > 0.0);
        assert!(any_grad);
    }
}
