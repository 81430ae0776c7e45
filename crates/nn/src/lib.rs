//! # irs_nn — neural-network layers, losses and optimizers
//!
//! Built on the [`irs_tensor`] autograd engine, this crate provides the
//! building blocks shared by every model in the `influential-rs` workspace
//! (IRN, SASRec, Bert4Rec, GRU4Rec, Caser, …):
//!
//! * [`ParamStore`] / [`FwdCtx`] — named trainable parameters and the
//!   per-forward-pass binding of parameters into a [`irs_tensor::Graph`].
//! * Layers: [`Linear`], [`Embedding`], [`PositionalEncoding`],
//!   [`LayerNorm`], [`MultiHeadAttention`] (with pluggable additive
//!   attention biases — the hook used by IRN's Personalized
//!   Impressionability Mask), [`FeedForward`], [`TransformerBlock`],
//!   [`Gru`].
//! * Optimizers: [`Sgd`], [`Adam`], plus [`ReduceLrOnPlateau`] (the paper
//!   trains IRN with Adam and a halve-on-stagnation schedule) and global
//!   gradient-norm clipping.
//!
//! ## Example: one optimisation step
//!
//! ```
//! use irs_nn::{Adam, FwdCtx, Linear, Optimizer, ParamStore};
//! use irs_tensor::{Graph, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "probe", 4, 1, true, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! let g = Graph::new();
//! let ctx = FwdCtx::new(&g, &store, true, 0);
//! let x = g.constant(Tensor::ones(&[8, 4]));
//! let y = layer.forward2d(&ctx, x);
//! let loss = y.mul(y).mean_all();
//! ctx.backprop(loss);
//! drop(ctx);
//! opt.step(&mut store);
//! ```

mod attention;
mod embedding;
mod gru;
mod infer;
mod kvcache;
mod linear;
mod norm;
mod optim;
mod params;
mod serialize;
mod transformer;

pub use attention::{
    append_only_objective_mask, broadcast_then_add, causal_mask, causal_mask_with_objective,
    key_padding_mask, AppendKey, AppendRowOut, AttnBias, MultiHeadAttention,
};
pub use embedding::{Embedding, PositionalEncoding};
pub use gru::{Gru, GruCell};
pub use infer::InferBias;
pub use kvcache::{CacheState, EncodingLayout, LayerKv};
pub use linear::{FeedForward, Linear};
pub use norm::LayerNorm;
pub use optim::{clip_grad_norm, Adam, Optimizer, ReduceLrOnPlateau, Sgd};
pub use params::{FwdCtx, ParamId, ParamStore};
pub use serialize::{irsp_summary, IrspRecord};
pub use transformer::{infer_stack, TransformerBlock};

use irs_tensor::Var;

/// Activation functions selectable by feed-forward blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation to a graph variable.
    pub fn apply(self, x: Var<'_>) -> Var<'_> {
        match self {
            Activation::Relu => x.relu(),
            Activation::Gelu => x.gelu(),
            Activation::Tanh => x.tanh(),
        }
    }

    /// In-place value-level apply (inference path): the graph ops'
    /// elementwise functions, so both agree bit for bit.
    pub fn apply_in_place(self, x: &mut irs_tensor::Tensor) {
        let data = x.data_mut();
        match self {
            Activation::Relu => data.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Gelu => data.iter_mut().for_each(|v| *v = irs_tensor::gelu(*v).0),
            Activation::Tanh => data.iter_mut().for_each(|v| *v = irs_tensor::tanh(*v)),
        }
    }
}

/// Pairwise BPR loss `-log σ(pos − neg)` averaged over a batch.
///
/// `pos` and `neg` are score tensors of identical shape.  Used by the BPR
/// and TransRec baselines.  Computed via the numerically stable softplus
/// form `softplus(−z) = relu(−z) + ln(1 + exp(−|z|))` with `z = pos − neg`.
pub fn bpr_loss<'g>(pos: Var<'g>, neg: Var<'g>) -> Var<'g> {
    let z = pos.sub(neg);
    let nz = z.neg();
    let relu_part = nz.relu();
    let absz = z.relu().add(nz.relu());
    let exp_term = absz.neg().exp_op();
    let log_term = exp_term.add_scalar(1.0).ln_op();
    relu_part.add(log_term).mean_all()
}

/// Extension ops used by [`bpr_loss`] that are generally useful.
pub trait VarExt<'g> {
    /// Elementwise exponential.
    fn exp_op(self) -> Var<'g>;
    /// Elementwise natural logarithm.
    fn ln_op(self) -> Var<'g>;
}

impl<'g> VarExt<'g> for Var<'g> {
    fn exp_op(self) -> Var<'g> {
        let g = self.graph();
        let v = g.with_value(self, |t| t.map(f32::exp));
        g.custom_op(&[self], v, |ctx| {
            let y = ctx.out_value().clone();
            let delta = ctx.grad_out().mul(&y);
            ctx.accumulate(0, &delta);
        })
    }

    fn ln_op(self) -> Var<'g> {
        let g = self.graph();
        let v = g.with_value(self, |t| t.map(f32::ln));
        g.custom_op(&[self], v, |ctx| {
            let x = ctx.value(0).clone();
            let go = ctx.grad_out().clone();
            let delta = go.zip_map(&x, |g, x| g / x);
            ctx.accumulate(0, &delta);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_tensor::gradcheck::check_gradients;
    use irs_tensor::{Graph, Tensor};
    use rand::SeedableRng;

    #[test]
    fn bpr_loss_decreases_with_margin() {
        let g = Graph::new();
        let pos_hi = g.constant(Tensor::full(&[4], 3.0));
        let pos_lo = g.constant(Tensor::full(&[4], 0.1));
        let neg = g.constant(Tensor::zeros(&[4]));
        let l_hi = bpr_loss(pos_hi, neg).item();
        let l_lo = bpr_loss(pos_lo, neg).item();
        assert!(l_hi < l_lo, "larger margin must mean smaller loss: {l_hi} vs {l_lo}");
        assert!(l_hi > 0.0);
    }

    #[test]
    fn bpr_loss_matches_reference_formula() {
        let g = Graph::new();
        let pos = g.constant(Tensor::from_vec(vec![1.2, -0.3], &[2]));
        let neg = g.constant(Tensor::from_vec(vec![0.2, 0.4], &[2]));
        let loss = bpr_loss(pos, neg).item();
        let refv = [(1.2f32 - 0.2), (-0.3f32 - 0.4)]
            .iter()
            .map(|&z| -(1.0 / (1.0 + (-z).exp())).ln())
            .sum::<f32>()
            / 2.0;
        assert!((loss - refv).abs() < 1e-5, "{loss} vs {refv}");
    }

    #[test]
    fn bpr_loss_gradcheck() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pos = Tensor::randn(&[6], 1.0, &mut rng);
        let neg = Tensor::randn(&[6], 1.0, &mut rng);
        check_gradients(&[pos, neg], |_g, vars| bpr_loss(vars[0], vars[1]));
    }

    #[test]
    fn exp_ln_gradchecks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[5], 0.5, &mut rng);
        check_gradients(&[x], |_g, vars| vars[0].exp_op().sum_all());
        let y = Tensor::rand_uniform(&[5], 0.5, 2.0, &mut rng);
        check_gradients(&[y], |_g, vars| vars[0].ln_op().sum_all());
    }

    #[test]
    fn activation_apply_dispatches() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![-1.0, 1.0], &[2]));
        assert_eq!(Activation::Relu.apply(x).value().data(), &[0.0, 1.0]);
        let t = Activation::Tanh.apply(x).value();
        assert_eq!(t.data()[1].to_bits(), irs_tensor::tanh(1.0).to_bits());
    }

    #[test]
    fn apply_in_place_matches_graph_apply_bitwise() {
        let mut xs = vec![
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE,
            1.0,
            -1.0,
            22.0,
            -22.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        xs.extend(Tensor::rand_uniform(&[512], -30.0, 30.0, &mut rng).data());
        let x = Tensor::from_vec(xs.clone(), &[xs.len()]);
        for act in [Activation::Relu, Activation::Gelu, Activation::Tanh] {
            let g = Graph::new();
            let graph = act.apply(g.constant(x.clone())).value();
            let mut in_place = x.clone();
            act.apply_in_place(&mut in_place);
            for ((a, b), &v) in graph.data().iter().zip(in_place.data()).zip(&xs) {
                assert_eq!(a.to_bits(), b.to_bits(), "{act:?} at {v:e}: {a:e} vs {b:e}");
            }
        }
    }
}
