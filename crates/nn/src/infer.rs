//! Tape-free batched inference.
//!
//! The autograd path ([`crate::FwdCtx`]) clones every parameter tensor
//! into the graph and records an op per kernel — negligible against a
//! training step, but the dominant cost of small per-step inference
//! forwards.  The `infer` methods on [`crate::Linear`],
//! [`crate::LayerNorm`], [`crate::MultiHeadAttention`],
//! [`crate::FeedForward`], [`crate::TransformerBlock`],
//! [`crate::Embedding`] and [`crate::PositionalEncoding`] evaluate the
//! same kernels directly on [`Tensor`] values: parameters are read in
//! place from the [`crate::ParamStore`], elementwise stages mutate their
//! operand, and nothing is taped.  Attention and the transformer block
//! compute only the query rows they are asked for; [`crate::infer_stack`]
//! runs a model's blocks with the last one at the single row the logits
//! read.
//!
//! **Equivalence contract:** every `infer` method applies the identical
//! arithmetic in the identical order as its graph twin, so outputs are
//! bitwise equal to an eval-mode (`training = false`) forward on the rows
//! they compute.  The scalar graph path stays the reference;
//! `Irn::score_next_batch` debug-asserts one row against it on every
//! call, and the baseline property tests pin `score_batch ≡ score` per
//! model.

use std::borrow::Cow;
use std::ops::Range;

use irs_tensor::Tensor;

/// Additive attention bias for the inference path — the value-level
/// mirror of [`crate::AttnBias`].
pub struct InferBias {
    /// Constant part, `[T, T]` (shared) or `[B, T, T]` (per batch element).
    pub base: Tensor,
    /// PIM objective column: `(col, r_u per batch element, w_t)` adds
    /// `w_t · r_u[b]` to key column `col` of every query row.
    pub scaled_column: Option<(usize, Vec<f32>, f32)>,
}

/// Rows `rows` of every batch element of `x: [B, T, D]`, as
/// `[B, rows.len(), D]`: `x` itself for the whole window, a copy
/// otherwise.
pub(crate) fn window_rows(x: &Tensor, rows: Range<usize>) -> Cow<'_, Tensor> {
    let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    if rows == (0..t) {
        return Cow::Borrowed(x);
    }
    let mut out = Vec::with_capacity(b * rows.len() * d);
    for xb in x.data().chunks(t * d) {
        out.extend_from_slice(&xb[rows.start * d..rows.end * d]);
    }
    Cow::Owned(Tensor::from_vec(out, &[b, rows.len(), d]))
}

/// Add the bias to raw attention scores `[B*H, m, T]` in place, whose `m`
/// rows are the query positions `q0..q0 + m` — mirrors the `add_base` /
/// `add_scaled_column` graph ops on those rows.
pub(crate) fn add_bias_in_place(
    scores: &mut Tensor,
    bias: &InferBias,
    batch: usize,
    heads: usize,
    q0: usize,
) {
    let (m, t) = (scores.shape()[1], scores.shape()[2]);
    let (tt, mt) = (t * t, m * t);
    let rows = q0 * t..(q0 + m) * t;
    match bias.base.ndim() {
        2 => {
            assert_eq!(bias.base.shape(), &[t, t], "base mask must be [T,T]");
            let base = &bias.base.data()[rows];
            for slice in scores.data_mut().chunks_mut(mt) {
                for (o, &mm) in slice.iter_mut().zip(base) {
                    *o += mm;
                }
            }
        }
        3 => {
            assert_eq!(bias.base.shape(), &[batch, t, t], "base mask must be [B,T,T]");
            for (b, group) in scores.data_mut().chunks_mut(heads * mt).enumerate() {
                let base = &bias.base.data()[b * tt..(b + 1) * tt][rows.clone()];
                for slice in group.chunks_mut(mt) {
                    for (o, &mm) in slice.iter_mut().zip(base) {
                        *o += mm;
                    }
                }
            }
        }
        n => panic!("base mask must be 2-D or 3-D, got {n}-D"),
    }
    if let Some((col, scale, weight)) = &bias.scaled_column {
        assert!(*col < t, "column {col} out of range T={t}");
        assert_eq!(scale.len(), batch, "scale must have one entry per batch element");
        for (group, &ru) in scores.data_mut().chunks_mut(heads * mt).zip(scale) {
            let add = weight * ru;
            for row in group.chunks_mut(t) {
                row[*col] += add;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_column_adds_to_every_query_row() {
        let mut scores = Tensor::zeros(&[4, 2, 2]); // B=2, H=2
        let bias = InferBias {
            base: Tensor::zeros(&[2, 2]),
            scaled_column: Some((1, vec![0.5, -1.0], 2.0)),
        };
        add_bias_in_place(&mut scores, &bias, 2, 2, 0);
        assert_eq!(scores.at(&[0, 0, 1]), 1.0);
        assert_eq!(scores.at(&[1, 1, 1]), 1.0);
        assert_eq!(scores.at(&[2, 0, 1]), -2.0);
        assert_eq!(scores.at(&[0, 0, 0]), 0.0);
    }
}
