//! Property-based tests for layers and optimizers.

use irs_nn::{
    broadcast_then_add, causal_mask, causal_mask_with_objective, key_padding_mask, Adam, AttnBias,
    FwdCtx, Gru, InferBias, LayerNorm, Linear, MultiHeadAttention, Optimizer, ParamStore, Sgd,
    TransformerBlock,
};
use irs_tensor::{Graph, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linear layers are affine: f(αx) − f(0) = α(f(x) − f(0)).
    #[test]
    fn linear_is_affine(seed in 0u64..1000, alpha in -2.0f32..2.0) {
        let mut r = rng(seed);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, "l", 4, 3, true, &mut r);
        let x = Tensor::randn(&[2, 4], 1.0, &mut r);

        let f = |input: Tensor| -> Tensor {
            let g = Graph::new();
            let ctx = FwdCtx::new(&g, &store, false, 0);
            let v = g.constant(input);
            l.forward2d(&ctx, v).value()
        };
        let f0 = f(Tensor::zeros(&[2, 4]));
        let fx = f(x.clone());
        let fax = f(x.scale(alpha));
        for ((a, b), z) in fax.data().iter().zip(fx.data()).zip(f0.data()) {
            let lhs = a - z;
            let rhs = alpha * (b - z);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs().max(rhs.abs())));
        }
    }

    /// Causal attention: perturbing position j never changes outputs at
    /// positions < j.
    #[test]
    fn causal_attention_is_causal(seed in 0u64..1000, perturb_pos in 1usize..5) {
        let mut r = rng(seed);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, 0.0, &mut r);
        let t = 5;
        let base = Tensor::randn(&[1, t, 8], 1.0, &mut r);
        let run = |input: &Tensor| {
            let g = Graph::new();
            let ctx = FwdCtx::new(&g, &store, false, 0);
            let x = g.constant(input.clone());
            mha.forward(&ctx, x, &AttnBias::Base(causal_mask(t))).value()
        };
        let y1 = run(&base);
        let mut perturbed = base.clone();
        for k in 0..8 {
            *perturbed.at_mut(&[0, perturb_pos, k]) += 1.5;
        }
        let y2 = run(&perturbed);
        for p in 0..perturb_pos {
            for k in 0..8 {
                prop_assert!(
                    (y1.at(&[0, p, k]) - y2.at(&[0, p, k])).abs() < 1e-5,
                    "position {p} changed when perturbing {perturb_pos}"
                );
            }
        }
    }

    /// The objective-revealing mask breaks causality exactly at the
    /// objective column: perturbing the LAST position now changes earlier
    /// outputs.
    #[test]
    fn objective_mask_reveals_objective(seed in 0u64..200) {
        let mut r = rng(seed);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, 0.0, &mut r);
        let t = 5;
        let base = Tensor::randn(&[1, t, 8], 1.0, &mut r);
        let run = |input: &Tensor| {
            let g = Graph::new();
            let ctx = FwdCtx::new(&g, &store, false, 0);
            let x = g.constant(input.clone());
            mha.forward(&ctx, x, &AttnBias::Base(causal_mask_with_objective(t, t - 1, 1.0)))
                .value()
        };
        let y1 = run(&base);
        let mut perturbed = base.clone();
        for k in 0..8 {
            *perturbed.at_mut(&[0, t - 1, k]) += 2.0;
        }
        let y2 = run(&perturbed);
        let moved = (0..8).any(|k| (y1.at(&[0, 0, k]) - y2.at(&[0, 0, k])).abs() > 1e-6);
        prop_assert!(moved, "objective perturbation must reach position 0");
    }

    /// LayerNorm output row norms are bounded by ~sqrt(d) for unit gamma.
    #[test]
    fn layer_norm_output_is_bounded(seed in 0u64..1000, scale in 0.1f32..30.0) {
        let mut r = rng(seed);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 6);
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let x = g.constant(Tensor::randn(&[3, 6], scale, &mut r));
        let y = ln.forward(&ctx, x).value();
        for row in y.data().chunks(6) {
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            prop_assert!(norm < 6.0f32.sqrt() + 1e-3, "row norm {norm}");
        }
    }

    /// The fused tape-free GRU recurrence ([`Gru::infer_last`]) is bitwise
    /// equal to the autograd graph path at every row's own last timestep —
    /// the same contract `batch_properties.rs` pins end-to-end for
    /// GRU4Rec's `score_batch`.
    #[test]
    fn gru_infer_last_equals_graph_forward(
        seed in 0u64..500,
        lens in proptest::collection::vec(1usize..7, 1..5),
    ) {
        let mut r = rng(seed);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 4, 6, &mut r);
        let b = lens.len();
        let t_max = *lens.iter().max().unwrap();
        let x = Tensor::randn(&[b, t_max, 4], 1.0, &mut r);

        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let states = gru.forward_seq(&ctx, g.constant(x.clone())).value();
        let fast = gru.infer_last(&store, &x, &lens);
        for (row, &len) in lens.iter().enumerate() {
            for j in 0..6 {
                let want = states.at(&[row, len - 1, j]);
                let got = fast.at(&[row, j]);
                prop_assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "row {} dim {}: {} vs {}",
                    row,
                    j,
                    want,
                    got
                );
            }
        }
    }

    /// The tape-free transformer block ([`TransformerBlock::infer`]) is
    /// bitwise equal to the eval-mode graph forward, over every row and
    /// over the one-row window the next-item logits read — under a shared
    /// 2-D or a per-element 3-D base mask, with or without the PIM scaled
    /// column.
    #[test]
    fn transformer_infer_equals_graph_forward(
        seed in 0u64..500,
        b in 1usize..4,
        t in 1usize..7,
        heads_pick in 0usize..3,
        q_pick in 0usize..6,
        per_element in 0u8..2,
        scaled in 0u8..2,
    ) {
        let (d, heads, q) = (8, [1, 2, 4][heads_pick], q_pick % t);
        let mut r = rng(seed);
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "b", d, heads, 0.0, &mut r);
        let x = Tensor::randn(&[b, t, d], 1.0, &mut r);
        let base = if per_element == 1 {
            let pad_lens: Vec<usize> = (0..b).map(|i| (seed as usize + i) % t).collect();
            let shared = causal_mask_with_objective(t, t - 1, 0.0);
            broadcast_then_add(&shared, &key_padding_mask(t, &pad_lens))
        } else {
            causal_mask(t)
        };
        let ru = Tensor::randn(&[b], 1.0, &mut r);
        let (col, wt) = (t - 1, 0.7f32);

        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let graph_bias = if scaled == 1 {
            let scale = g.constant(ru.clone());
            AttnBias::BaseWithScaledColumn { base: base.clone(), col, scale, weight: wt }
        } else {
            AttnBias::Base(base.clone())
        };
        let want = block.forward(&ctx, g.constant(x.clone()), &graph_bias).value();
        let scaled_column = (scaled == 1).then(|| (col, ru.data().to_vec(), wt));
        let bias = InferBias { base, scaled_column };
        let full = block.infer(&store, &x, &bias, 0..t);
        let row = block.infer(&store, &x, &bias, q..q + 1);

        prop_assert_eq!(full.shape(), want.shape());
        for (i, (&got, &w)) in full.data().iter().zip(want.data()).enumerate() {
            prop_assert_eq!(got.to_bits(), w.to_bits(), "element {}: {} vs {}", i, got, w);
        }
        prop_assert_eq!(row.shape(), &[b, 1, d][..]);
        for bi in 0..b {
            for j in 0..d {
                let (got, w) = (row.at(&[bi, 0, j]), want.at(&[bi, q, j]));
                prop_assert_eq!(got.to_bits(), w.to_bits(), "row {} dim {}: {} vs {}", bi, j, got, w);
            }
        }
    }

    /// SGD and Adam both strictly decrease a convex quadratic within a few
    /// steps from any start.
    #[test]
    fn optimizers_descend_quadratics(x0 in -5.0f32..5.0, y0 in -5.0f32..5.0) {
        for opt_kind in 0..2 {
            let mut store = ParamStore::new();
            let id = store.add("w", Tensor::from_vec(vec![x0, y0], &[2]));
            let mut sgd;
            let mut adam;
            let opt: &mut dyn Optimizer = if opt_kind == 0 {
                sgd = Sgd::new(0.05);
                &mut sgd
            } else {
                adam = Adam::new(0.05);
                &mut adam
            };
            let start = store.value(id).sq_norm();
            for _ in 0..25 {
                store.zero_grad();
                let w = store.value(id).clone();
                store.accumulate_grad(id, &w); // ∇(½‖w‖²) = w
                opt.step(&mut store);
            }
            let end = store.value(id).sq_norm();
            prop_assert!(end <= start + 1e-6, "opt {opt_kind}: {start} -> {end}");
        }
    }
}
