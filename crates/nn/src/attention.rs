//! Multi-head self-attention with pluggable additive attention biases.
//!
//! The bias hook is the extension point used by IRN's **Personalized
//! Impressionability Mask (PIM)**: the paper (§III-D3/4) adds, on top of the
//! causal mask, an attention-weight column for the objective item whose
//! magnitude is `w_t · r_u` where `r_u` is a learned per-user scalar.  The
//! [`AttnBias::BaseWithScaledColumn`] variant implements exactly that and is
//! differentiable with respect to `r_u`.

use std::ops::Range;

use irs_tensor::{gemm, BatchLayout, Operand, Tensor, Var};

use crate::infer::{add_bias_in_place, window_rows, InferBias};
use crate::kvcache::LayerKv;
use crate::linear::Linear;
use crate::params::{FwdCtx, ParamStore};

/// Additive bias applied to raw attention scores `[B*H, T, T]`.
pub enum AttnBias<'g> {
    /// No bias (full bidirectional attention, e.g. Bert4Rec).
    None,
    /// A constant bias tensor of shape `[T, T]` (shared by every batch
    /// element and head) or `[B, T, T]` (per batch element, shared across
    /// heads).  Use `-1e9` entries to mask positions.
    Base(Tensor),
    /// Constant base plus a per-batch-element scaled column:
    /// `scores[b·H+h, q, col] += weight · scale[b]` for every head `h` and
    /// query `q`.  `scale` has shape `[B]` and receives gradients — this is
    /// the PIM objective column with learned impressionability.
    BaseWithScaledColumn {
        /// Constant part, `[T, T]` or `[B, T, T]`.
        base: Tensor,
        /// Key index of the objective item (usually `T−1` with pre-padding).
        col: usize,
        /// Per-batch-element learned scale `r_u`, shape `[B]`.
        scale: Var<'g>,
        /// The objective mask weight `w_t`.
        weight: f32,
    },
}

/// Add a constant `[T,T]` or `[B,T,T]` bias to `[B*H, T, T]` scores.
fn add_base<'g>(scores: Var<'g>, base: &Tensor, batch: usize, heads: usize) -> Var<'g> {
    let sshape = scores.shape();
    let (bh, t) = (sshape[0], sshape[1]);
    assert_eq!(bh, batch * heads, "scores leading dim mismatch");
    match base.ndim() {
        2 => {
            assert_eq!(base.shape(), &[t, t], "base mask must be [T,T]");
            scores.add_mask_bcast(base)
        }
        3 => {
            assert_eq!(base.shape(), &[batch, t, t], "base mask must be [B,T,T]");
            let g = scores.graph();
            let v = g.with_value(scores, |s| {
                let mut out = g.alloc_out(s.shape());
                let tt = t * t;
                for b in 0..batch {
                    let m = &base.data()[b * tt..(b + 1) * tt];
                    for h in 0..heads {
                        let off = (b * heads + h) * tt;
                        for ((o, &sv), &mm) in out.data_mut()[off..off + tt]
                            .iter_mut()
                            .zip(&s.data()[off..off + tt])
                            .zip(m)
                        {
                            *o = sv + mm;
                        }
                    }
                }
                out
            });
            g.custom_op(&[scores], v, |ctx| {
                ctx.accumulate_grad_out(0);
            })
        }
        n => panic!("base mask must be 2-D or 3-D, got {n}-D"),
    }
}

/// Add `weight * scale[b]` to column `col` of every row: the differentiable
/// PIM objective column.
fn add_scaled_column<'g>(
    scores: Var<'g>,
    col: usize,
    scale: Var<'g>,
    weight: f32,
    batch: usize,
    heads: usize,
) -> Var<'g> {
    let sshape = scores.shape();
    let (bh, t) = (sshape[0], sshape[1]);
    assert_eq!(bh, batch * heads, "scores leading dim mismatch");
    assert!(col < t, "column {col} out of range T={t}");
    assert_eq!(scale.shape(), vec![batch], "scale must be [B]");
    let g = scores.graph();
    let v = g.with_value(scores, |s| {
        g.with_value(scale, |ru| {
            let mut out = g.alloc_out(s.shape());
            out.data_mut().copy_from_slice(s.data());
            let tt = t * t;
            for b in 0..batch {
                let add = weight * ru.data()[b];
                for h in 0..heads {
                    let off = (b * heads + h) * tt;
                    for q in 0..t {
                        out.data_mut()[off + q * t + col] += add;
                    }
                }
            }
            out
        })
    });
    g.custom_op(&[scores, scale], v, move |ctx| {
        ctx.accumulate_grad_out(0);
        let go = ctx.grad_out();
        let tt = t * t;
        let dscale = ctx.grad_mut(1);
        for b in 0..batch {
            let mut acc = 0.0f32;
            for h in 0..heads {
                let off = (b * heads + h) * tt;
                for q in 0..t {
                    acc += go.data()[off + q * t + col];
                }
            }
            dscale.data_mut()[b] += weight * acc;
        }
    })
}

/// Multi-head scaled-dot-product self-attention.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d: usize,
    dropout: f32,
}

impl MultiHeadAttention {
    /// Register the four projection matrices.
    pub fn new<R: rand::Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        d: usize,
        heads: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(heads > 0 && d.is_multiple_of(heads), "d={d} must be divisible by heads={heads}");
        MultiHeadAttention {
            wq: Linear::new(store, &format!("{name}.wq"), d, d, true, rng),
            wk: Linear::new(store, &format!("{name}.wk"), d, d, true, rng),
            wv: Linear::new(store, &format!("{name}.wv"), d, d, true, rng),
            wo: Linear::new(store, &format!("{name}.wo"), d, d, true, rng),
            heads,
            d,
            dropout,
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Self-attention over `x: [B, T, D]` with the given bias.
    pub fn forward<'g>(&self, ctx: &FwdCtx<'g, '_>, x: Var<'g>, bias: &AttnBias<'g>) -> Var<'g> {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "attention expects 3-D input, got {shape:?}");
        let (b, _t, d) = (shape[0], shape[1], shape[2]);
        assert_eq!(d, self.d, "model dim mismatch");
        let dk = self.d / self.heads;

        // The NT score kernel and the fused context op read the dense
        // `[B, T, D]` projections' heads through head-split layouts and
        // write their gradients back through them — bitwise identical to
        // the split-copy → bmm → merge-copy chain, without the copies.
        let q = self.wq.forward3d(ctx, x);
        let k = self.wk.forward3d(ctx, x);
        let v = self.wv.forward3d(ctx, x);

        let mut scores = q.bmm_nt(k, self.heads).mul_scalar(1.0 / (dk as f32).sqrt());
        scores = match bias {
            AttnBias::None => scores,
            AttnBias::Base(base) => add_base(scores, base, b, self.heads),
            AttnBias::BaseWithScaledColumn { base, col, scale, weight } => {
                let with_base = add_base(scores, base, b, self.heads);
                add_scaled_column(with_base, *col, *scale, *weight, b, self.heads)
            }
        };
        let attn = scores.softmax_last();
        let attn = ctx.dropout(attn, self.dropout);
        let out = attn.attn_bmm_merge(v, self.heads);
        self.wo.forward3d(ctx, out)
    }

    /// Tape-free eval-mode self-attention over `x: [B, T, D]` at the query
    /// rows `rows` — the whole window `0..T`, or the one row the logits
    /// read — returning `[B, rows.len(), D]`.  Keys and values span the
    /// whole window.
    ///
    /// The products are [`MultiHeadAttention::forward`]'s: Q, K and V are
    /// read through head-split layouts into [`gemm`] and the context is
    /// written straight into merged-head rows, with dropout as the
    /// identity and the bias applied in place.  Each computed row is
    /// bitwise equal to the same row of the eval-mode forward: no row's
    /// arithmetic depends on the other query rows.
    pub fn infer(
        &self,
        store: &ParamStore,
        x: &Tensor,
        bias: &InferBias,
        rows: Range<usize>,
    ) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "attention expects 3-D input, got {shape:?}");
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        assert_eq!(d, self.d, "model dim mismatch");
        assert!(!rows.is_empty() && rows.end <= t, "query rows {rows:?} out of range T={t}");
        let (heads, m, q0) = (self.heads, rows.len(), rows.start);
        let dk = d / heads;

        let q = self.wq.infer(store, &window_rows(x, rows));
        let k = self.wk.infer(store, x);
        let v = self.wv.infer(store, x);
        let queries = BatchLayout::head_split(b, heads, m, dk);
        let keys = BatchLayout::head_split(b, heads, t, dk);

        let mut scores = Tensor::zeros(&[b * heads, m, t]);
        let (qs, ks) = (Operand::new(q.data(), queries), Operand::new(k.data(), keys).t());
        gemm(qs, ks, scores.data_mut(), &BatchLayout::dense(b * heads, m, t), m, dk, t);
        let c = 1.0 / (dk as f32).sqrt();
        scores.data_mut().iter_mut().for_each(|s| *s *= c);
        add_bias_in_place(&mut scores, bias, b, heads, q0);
        scores.softmax_last_in_place();

        // The context lands in merged-head rows, which `queries` addresses.
        let mut out = Tensor::zeros(&[b, m, d]);
        let attn = Operand::dense(scores.data(), b * heads, m, t);
        gemm(attn, Operand::new(v.data(), keys), out.data_mut(), &queries, m, t, dk);
        self.wo.infer(store, &out)
    }

    /// Incremental attention step against a per-session K/V cache: score
    /// query row `x_row` (`[D]`, batch of one) against the cached context
    /// keys (ascending), its own key, and an optional trailing objective
    /// key, returning the projected attention output plus this row's own
    /// `wk`/`wv` rows for the caller to append to the cache.
    ///
    /// This reproduces [`MultiHeadAttention::infer`] at one query row
    /// under an append-only mask ([`append_only_objective_mask`]) exactly:
    /// scores
    /// accumulate per head in the same key order with the same `p`-ascending
    /// dot products, the bias is applied base-entries-first then
    /// scaled-column (mirroring `add_bias_in_place`), masked keys are never
    /// visited — their softmax weight is exactly `0.0` (the `exp` of a
    /// `-1e9` bias underflows) and the contraction skips zero weights, so
    /// omitting them leaves every float untouched.
    pub fn infer_append_row(
        &self,
        store: &ParamStore,
        x_row: &[f32],
        cached: &LayerKv,
        own_base: f32,
        own_scaled: Option<f32>,
        objective: Option<AppendKey<'_>>,
    ) -> AppendRowOut {
        let d = self.d;
        assert_eq!(x_row.len(), d, "query row width mismatch");
        let n = cached.len();
        if n > 0 {
            assert_eq!(cached.dim(), d, "cache width mismatch");
        }
        let heads = self.heads;
        let dk = d / heads;
        let scale = 1.0 / (dk as f32).sqrt();

        let x_t = Tensor::from_vec(x_row.to_vec(), &[1, d]);
        let q = self.wq.infer(store, &x_t);
        let own_k = self.wk.infer(store, &x_t);
        let own_v = self.wv.infer(store, &x_t);

        // Key order: cached context ascending, own row, objective last —
        // the column order of the append-only layout.
        let total = n + 1 + usize::from(objective.is_some());
        let mut scores = Tensor::zeros(&[heads, total]);
        for h in 0..heads {
            let q_row = &q.data()[h * dk..(h + 1) * dk];
            let row = &mut scores.data_mut()[h * total..(h + 1) * total];
            for (j, o) in row[..n].iter_mut().enumerate() {
                let k_row = &cached.key_row(j)[h * dk..(h + 1) * dk];
                let mut acc = 0.0f32;
                for (p, &qv) in q_row.iter().enumerate() {
                    acc += qv * k_row[p];
                }
                *o = acc * scale;
            }
            let mut acc = 0.0f32;
            for (p, &qv) in q_row.iter().enumerate() {
                acc += qv * own_k.data()[h * dk + p];
            }
            row[n] = acc * scale;
            if let Some(obj) = &objective {
                let mut acc = 0.0f32;
                for (p, &qv) in q_row.iter().enumerate() {
                    acc += qv * obj.k[h * dk + p];
                }
                row[n + 1] = acc * scale;
            }
        }

        // Bias, mirroring `add_bias_in_place`: every base entry first
        // (visible context/self keys carry a base of 0.0 in the
        // append-only mask; in IEEE this is an exact no-op on the
        // positive scores the softmax sees), then the scaled objective
        // column as a separate add.
        let ctx_base = 0.0f32;
        for h in 0..heads {
            let row = &mut scores.data_mut()[h * total..(h + 1) * total];
            for o in row[..n].iter_mut() {
                *o += ctx_base;
            }
            row[n] += own_base;
            if let Some(obj) = &objective {
                row[n + 1] += obj.base;
            }
        }
        if let Some(s) = own_scaled {
            for h in 0..heads {
                scores.data_mut()[h * total + n] += s;
            }
        }
        if let Some(obj) = &objective {
            if let Some(s) = obj.scaled {
                for h in 0..heads {
                    scores.data_mut()[h * total + n + 1] += s;
                }
            }
        }
        scores.softmax_last_in_place();

        // attn · V with the same skip-zero contraction as the batched path.
        let mut out = vec![0.0f32; d];
        for h in 0..heads {
            let attn = &scores.data()[h * total..(h + 1) * total];
            let dst = &mut out[h * dk..(h + 1) * dk];
            for (j, &a) in attn[..n].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let v_row = &cached.value_row(j)[h * dk..(h + 1) * dk];
                for (o, &vv) in dst.iter_mut().zip(v_row) {
                    *o += a * vv;
                }
            }
            let a = attn[n];
            if a != 0.0 {
                for (o, &vv) in dst.iter_mut().zip(&own_v.data()[h * dk..(h + 1) * dk]) {
                    *o += a * vv;
                }
            }
            if let Some(obj) = &objective {
                let a = attn[n + 1];
                if a != 0.0 {
                    for (o, &vv) in dst.iter_mut().zip(&obj.v[h * dk..(h + 1) * dk]) {
                        *o += a * vv;
                    }
                }
            }
        }
        AppendRowOut {
            out: self.wo.infer(store, &Tensor::from_vec(out, &[1, d])),
            k: own_k.data().to_vec(),
            v: own_v.data().to_vec(),
        }
    }
}

/// The fixed objective key slot fed to
/// [`MultiHeadAttention::infer_append_row`]: its cached `wk`/`wv` rows
/// (un-split `[D]`) plus the attention-bias this query applies to the
/// objective column (`base` mirrors the mask entry, `scaled` the
/// personalized `w_t · r_u` column add).
pub struct AppendKey<'a> {
    /// Objective key row `[D]`.
    pub k: &'a [f32],
    /// Objective value row `[D]`.
    pub v: &'a [f32],
    /// Constant mask entry for the objective column (`w_t`, `0.0`, or
    /// `-1e9` when the objective is hidden).
    pub base: f32,
    /// Personalized column add `w_t · r_u`, applied after `base`.
    pub scaled: Option<f32>,
}

/// Result of one incremental attention (or block) step: the output row
/// and the query's own projection rows for the K/V cache.
pub struct AppendRowOut {
    /// Attention (or block) output, `[1, D]`.
    pub out: Tensor,
    /// This position's key row `[D]` (un-split).
    pub k: Vec<f32>,
    /// This position's value row `[D]` (un-split).
    pub v: Vec<f32>,
}

/// Build a causal (lower-triangular) `[t, t]` mask: `0` where key ≤ query,
/// `-1e9` where key > query.
pub fn causal_mask(t: usize) -> Tensor {
    Tensor::from_fn(&[t, t], |i| {
        let (q, k) = (i / t, i % t);
        if k <= q {
            0.0
        } else {
            -1e9
        }
    })
}

/// Causal mask that additionally reveals column `col` to every query (the
/// PIM "perceiving objective" mask, Fig. 5(b)), with `extra` added to that
/// column (the uniform objective weight `w_t`, mask Type 2).
pub fn causal_mask_with_objective(t: usize, col: usize, extra: f32) -> Tensor {
    let mut m = causal_mask(t);
    for q in 0..t {
        *m.at_mut(&[q, col]) = extra;
    }
    m
}

/// The append-only layout's mask: rows `0..t−1` are context positions
/// (causal among themselves, objective column `t−1` revealed with
/// `extra`, exactly as [`causal_mask_with_objective`]); row `t−1` is the
/// appended objective query slot and attends **only to itself** — its
/// context columns are re-masked with `-1e9`.
///
/// Self-only objective attention is what keeps deeper layers cacheable:
/// the objective row's output is a per-session constant instead of a
/// function of the growing context, so its K/V rows at every layer are
/// computed once.  (At one transformer layer the objective row never
/// feeds the logits and the two masks score identically; with more
/// layers this is a deliberate modeling change of the append-only
/// layout.)
pub fn append_only_objective_mask(t: usize, extra: f32) -> Tensor {
    assert!(t >= 1, "mask needs at least the objective row");
    let mut m = causal_mask_with_objective(t, t - 1, extra);
    for k in 0..t - 1 {
        *m.at_mut(&[t - 1, k]) = -1e9;
    }
    // The objective row's self entry is pinned to 0.0 rather than `extra`:
    // with `extra = -1e9` (objective hidden from context rows) an all
    // -1e9 row would soften into *uniform* attention over every key —
    // the opposite of self-only.  A finite self entry keeps the row's
    // softmax at exactly 1.0 on itself whatever `extra` is.
    *m.at_mut(&[t - 1, t - 1]) = 0.0;
    m
}

/// Per-batch key-padding mask `[B, T, T]`: for batch element `b`, keys
/// `0..pad_len[b]` are masked with `-1e9` (except on the diagonal, which
/// stays visible so fully-padded queries keep a finite softmax).
pub fn key_padding_mask(t: usize, pad_lens: &[usize]) -> Tensor {
    let b = pad_lens.len();
    let mut m = Tensor::zeros(&[b, t, t]);
    for (bi, &p) in pad_lens.iter().enumerate() {
        assert!(p <= t, "pad length {p} exceeds T={t}");
        for q in 0..t {
            for k in 0..p.min(t) {
                if k != q {
                    *m.at_mut(&[bi, q, k]) = -1e9;
                }
            }
        }
    }
    m
}

/// Expand a `[T,T]` mask to `[B,T,T]` and add a per-batch mask.
pub fn broadcast_then_add(shared: &Tensor, per_batch: &Tensor) -> Tensor {
    assert_eq!(shared.ndim(), 2);
    assert_eq!(per_batch.ndim(), 3);
    let t = shared.shape()[0];
    let b = per_batch.shape()[0];
    assert_eq!(per_batch.shape(), &[b, t, t]);
    let mut out = per_batch.clone();
    let tt = t * t;
    for bi in 0..b {
        for (o, &s) in out.data_mut()[bi * tt..(bi + 1) * tt].iter_mut().zip(shared.data()) {
            *o += s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_tensor::gradcheck::check_gradients;
    use irs_tensor::Graph;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(41)
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(3);
        assert_eq!(m.at(&[0, 0]), 0.0);
        assert_eq!(m.at(&[0, 1]), -1e9);
        assert_eq!(m.at(&[2, 1]), 0.0);
    }

    #[test]
    fn objective_mask_reveals_last_column() {
        let m = causal_mask_with_objective(4, 3, 0.5);
        for q in 0..4 {
            assert_eq!(m.at(&[q, 3]), 0.5, "objective column must be visible at row {q}");
        }
        assert_eq!(m.at(&[0, 1]), -1e9);
    }

    #[test]
    fn append_only_mask_isolates_objective_row() {
        let m = append_only_objective_mask(4, 0.5);
        // Context rows: causal among themselves, objective column revealed.
        assert_eq!(m.at(&[0, 1]), -1e9);
        assert_eq!(m.at(&[2, 1]), 0.0);
        for q in 0..3 {
            assert_eq!(m.at(&[q, 3]), 0.5, "objective column visible at row {q}");
        }
        // Objective row: self-only, with a finite self entry even when the
        // objective column bias would be -1e9.
        for k in 0..3 {
            assert_eq!(m.at(&[3, k]), -1e9, "objective row must not see context col {k}");
        }
        assert_eq!(m.at(&[3, 3]), 0.0);
        assert_eq!(append_only_objective_mask(4, -1e9).at(&[3, 3]), 0.0);
    }

    #[test]
    fn append_row_step_matches_single_query_infer() {
        // Replaying a sequence through `infer_append_row` must reproduce
        // each row of the batched infer under the append-only mask
        // bitwise, including the objective column handled as a trailing
        // `AppendKey`.
        use crate::kvcache::LayerKv;

        let mut r = rng();
        let mut store = ParamStore::new();
        let (d, heads, t) = (8, 2, 5);
        let mha = MultiHeadAttention::new(&mut store, "a", d, heads, 0.0, &mut r);
        let x = Tensor::randn(&[1, t, d], 1.0, &mut r);
        let (wt, ru) = (0.7f32, 0.3f32);

        // Cold reference: full infer with the append-only mask plus the
        // personalized scaled column.
        let bias = InferBias {
            base: append_only_objective_mask(t, 0.0),
            scaled_column: Some((t - 1, vec![ru], wt)),
        };
        let cold = mha.infer(&store, &x, &bias, 0..t);

        // Incremental: objective row first (self-only, its own bias is the
        // overwritten mask entry plus the scaled column), then each
        // context row against the growing cache.
        let obj_row = &x.data()[(t - 1) * d..t * d];
        let empty = LayerKv::new(d);
        let obj = mha.infer_append_row(&store, obj_row, &empty, 0.0, Some(wt * ru), None);
        let mut kv = LayerKv::new(d);
        for i in 0..t - 1 {
            let row = &x.data()[i * d..(i + 1) * d];
            let key = AppendKey { k: &obj.k, v: &obj.v, base: 0.0, scaled: Some(wt * ru) };
            let step = mha.infer_append_row(&store, row, &kv, 0.0, None, Some(key));
            for (p, (&want, &got)) in
                cold.data()[i * d..(i + 1) * d].iter().zip(step.out.data()).enumerate()
            {
                assert_eq!(want.to_bits(), got.to_bits(), "row {i} dim {p}: {want} vs {got}");
            }
            kv.push(&step.k, &step.v);
        }
        // The objective row itself also matches the cold pass.
        for (p, (&want, &got)) in
            cold.data()[(t - 1) * d..t * d].iter().zip(obj.out.data()).enumerate()
        {
            assert_eq!(want.to_bits(), got.to_bits(), "objective dim {p}: {want} vs {got}");
        }
    }

    #[test]
    fn key_padding_mask_masks_prefix_keys() {
        let m = key_padding_mask(4, &[2, 0]);
        assert_eq!(m.at(&[0, 3, 0]), -1e9);
        assert_eq!(m.at(&[0, 3, 1]), -1e9);
        assert_eq!(m.at(&[0, 3, 2]), 0.0);
        assert_eq!(m.at(&[0, 0, 0]), 0.0, "diagonal stays visible");
        assert_eq!(m.at(&[1, 3, 0]), 0.0, "unpadded batch element untouched");
    }

    #[test]
    fn attention_output_shape() {
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, 0.0, &mut rng());
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let x = g.constant(Tensor::randn(&[3, 5, 8], 1.0, &mut rng()));
        let y = mha.forward(&ctx, x, &AttnBias::None);
        assert_eq!(y.shape(), vec![3, 5, 8]);
    }

    #[test]
    fn causal_attention_first_position_ignores_rest() {
        // With a causal mask, position 0's output must be invariant to
        // changes in later positions.
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 4, 2, 0.0, &mut rng());
        let t = 4;
        let base = Tensor::randn(&[1, t, 4], 1.0, &mut rng());
        let run = |input: &Tensor| {
            let g = Graph::new();
            let ctx = FwdCtx::new(&g, &store, false, 0);
            let x = g.constant(input.clone());
            let y = mha.forward(&ctx, x, &AttnBias::Base(causal_mask(t)));
            y.value()
        };
        let y1 = run(&base);
        let mut perturbed = base.clone();
        for k in 0..4 {
            *perturbed.at_mut(&[0, 3, k]) += 1.0;
        }
        let y2 = run(&perturbed);
        for k in 0..4 {
            assert!((y1.at(&[0, 0, k]) - y2.at(&[0, 0, k])).abs() < 1e-6);
        }
        // ...but the last position must change.
        let moved = (0..4).any(|k| (y1.at(&[0, 3, k]) - y2.at(&[0, 3, k])).abs() > 1e-6);
        assert!(moved);
    }

    #[test]
    fn scaled_column_gradients_flow_into_scale() {
        // Directly exercise the PIM column op with gradcheck.
        let mut r = rng();
        let scores = Tensor::randn(&[4, 3, 3], 0.5, &mut r); // B=2, H=2
        let scale = Tensor::from_vec(vec![0.3, -0.2], &[2]);
        check_gradients(&[scores, scale], |_g, vars| {
            let out = super::add_scaled_column(vars[0], 2, vars[1], 0.7, 2, 2);
            let sm = out.softmax_last();
            sm.mul(sm).sum_all()
        });
    }

    #[test]
    fn per_batch_base_mask_applies_per_element() {
        let g = Graph::new();
        let scores = g.var(Tensor::zeros(&[4, 2, 2]), true); // B=2,H=2
        let mut base = Tensor::zeros(&[2, 2, 2]);
        *base.at_mut(&[1, 0, 1]) = -5.0;
        let out = super::add_base(scores, &base, 2, 2);
        let v = out.value();
        // Batch 0 heads untouched, batch 1 heads get the bias.
        assert_eq!(v.at(&[0, 0, 1]), 0.0);
        assert_eq!(v.at(&[2, 0, 1]), -5.0);
        assert_eq!(v.at(&[3, 0, 1]), -5.0);
    }

    #[test]
    fn attention_gradients_reach_all_projections() {
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 4, 2, 0.0, &mut rng());
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, true, 0);
        let x = g.constant(Tensor::randn(&[2, 3, 4], 1.0, &mut rng()));
        let y = mha.forward(&ctx, x, &AttnBias::Base(causal_mask(3)));
        let loss = y.mul(y).mean_all();
        store.zero_grad();
        ctx.backprop(loss);
        for id in store.ids() {
            let gn = store.grad(id).sq_norm();
            assert!(gn > 0.0, "parameter {} received no gradient", store.name(id));
        }
    }
}
