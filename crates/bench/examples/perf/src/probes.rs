//! Per-layer probes for `--trace` runs.
//!
//! The `irs_nn` probes time each module of an IRN training step at the
//! workload's shapes (batch 16, T 20, d 32, 2 heads, FFN 4d, the item
//! vocabulary): each probe builds the module on its own `ParamStore`,
//! reuses one `Graph` with `reset()` as `Irn::fit` does, and times the
//! forward pass (ending in a sum) apart from `zero_grad` + backprop.  The
//! `irs_tensor` probes time the matmul and GELU kernels at the FFN and
//! head shapes; the `irs_core`/`irs_embed` probes time the workload's own
//! IRN batch scorer and item distance.

use std::hint::black_box;
use std::time::Instant;

use irs_bench::harness::Harness;
use irs_core::Irn;
use irs_data::split::sample_objectives;
use irs_data::ItemId;
use irs_embed::ItemDistance;
use irs_nn::{
    broadcast_then_add, causal_mask_with_objective, key_padding_mask, Activation, Adam, AttnBias,
    Embedding, FeedForward, FwdCtx, LayerNorm, Linear, MultiHeadAttention, Optimizer, ParamStore,
    PositionalEncoding, TransformerBlock,
};
use irs_tensor::{matmul_into, Graph, Tensor, Var};
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::{Ctx, Run};

/// Untimed repetitions before each probe.
const WARMUP: usize = 5;

/// Median forward and backward microseconds of `build` on a reused tape.
fn fwd_bwd(
    store: &ParamStore,
    reps: usize,
    build: impl for<'g, 's> Fn(&FwdCtx<'g, 's>) -> Var<'g>,
) -> (f64, f64) {
    let g = Graph::new();
    let (mut fwd, mut bwd) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for i in 0..WARMUP + reps {
        let t0 = Instant::now();
        g.reset();
        let ctx = FwdCtx::new(&g, store, true, i as u64);
        let loss = build(&ctx).sum_all();
        let t1 = Instant::now();
        store.zero_grad();
        ctx.backprop(loss);
        let t2 = Instant::now();
        if i >= WARMUP {
            fwd.push(t1.duration_since(t0).as_secs_f64() * 1e6);
            bwd.push(t2.duration_since(t1).as_secs_f64() * 1e6);
        }
    }
    (median(&fwd), median(&bwd))
}

/// Median microseconds of one call of `f`.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        f();
    }
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Run every probe and store the per-layer metrics.  `step_ms` is the
/// workload's measured training step, which the probes should explain.
pub fn measure(ctx: &Ctx, run: &mut Run, h: &Harness, irn: &Irn, step_ms: f64) {
    let started = Instant::now();
    let reps = if ctx.smoke { 10 } else { 60 };
    let cfg = irn.config();
    let (b, t, d) = (cfg.train.batch_size, cfg.max_len, cfg.dim);
    let vocab = h.dataset.num_items + 1;
    let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed ^ 0x9b0e);
    let x = Tensor::randn(&[b, t, d], 1.0, &mut rng);
    // Record a module's forward and backward times; returns their sum.
    let mut add = |[fwd, bwd]: [&'static str; 2], (f, bw): (f64, f64)| {
        run.layer(fwd, f);
        run.layer(bwd, bw);
        f + bw
    };

    let mut store = ParamStore::new();
    let emb = Embedding::new(&mut store, "probe.emb", vocab, d, &mut rng);
    let pos = PositionalEncoding::new(&mut store, "probe", t, d, &mut rng);
    let tokens: Vec<Vec<usize>> =
        (0..b).map(|_| (0..t).map(|_| rng.random_range(0..vocab)).collect()).collect();
    let embed = add(
        ["nn.embed.fwd_us", "nn.embed.bwd_us"],
        fwd_bwd(&store, reps, |c| pos.add_to(c, emb.lookup_seq(c, &tokens))),
    );

    let mut store = ParamStore::new();
    let attn =
        MultiHeadAttention::new(&mut store, "probe.attn", d, cfg.heads, cfg.dropout, &mut rng);
    let pad_lens: Vec<usize> = (0..b).map(|_| rng.random_range(0..t - 1)).collect();
    let base = broadcast_then_add(
        &causal_mask_with_objective(t, t - 1, 0.0),
        &key_padding_mask(t, &pad_lens),
    );
    let ru = Tensor::randn(&[b], 1.0, &mut rng);
    let attn_us = add(
        ["nn.attn.fwd_us", "nn.attn.bwd_us"],
        fwd_bwd(&store, reps, |c| {
            let bias = AttnBias::BaseWithScaledColumn {
                base: base.clone(),
                col: t - 1,
                scale: c.graph.var_from(&ru, true),
                weight: cfg.wt,
            };
            attn.forward(c, c.graph.var_from(&x, true), &bias)
        }),
    );

    let mut store = ParamStore::new();
    let ff =
        FeedForward::new(&mut store, "probe.ff", d, 4 * d, Activation::Gelu, cfg.dropout, &mut rng);
    let ffn_us = add(
        ["nn.ffn.fwd_us", "nn.ffn.bwd_us"],
        fwd_bwd(&store, reps, |c| ff.forward(c, c.graph.var_from(&x, true))),
    );

    let mut store = ParamStore::new();
    let ln = LayerNorm::new(&mut store, "probe.ln", d);
    let norm_us = add(
        ["nn.norm.fwd_us", "nn.norm.bwd_us"],
        fwd_bwd(&store, reps, |c| ln.forward(c, c.graph.var_from(&x, true))),
    );

    let mut store = ParamStore::new();
    let head = Linear::new(&mut store, "probe.head", d, vocab, true, &mut rng);
    let head_us = add(
        ["nn.head.fwd_us", "nn.head.bwd_us"],
        fwd_bwd(&store, reps, |c| head.forward3d(c, c.graph.var_from(&x, true))),
    );

    let logits = Tensor::randn(&[b, t, vocab], 1.0, &mut rng);
    let targets: Vec<usize> = (0..b * t).map(|_| rng.random_range(0..vocab)).collect();
    let store = ParamStore::new();
    let loss_us = add(
        ["nn.loss.fwd_us", "nn.loss.bwd_us"],
        fwd_bwd(&store, reps, |c| {
            c.graph.var_from(&logits, true).cross_entropy(&targets, vocab - 1)
        }),
    );

    // Adam over a store shaped like IRN's.
    let mut store = ParamStore::new();
    Embedding::new(&mut store, "irn.emb", vocab, d, &mut rng);
    PositionalEncoding::new(&mut store, "irn", t, d, &mut rng);
    for l in 0..cfg.layers {
        let name = format!("irn.block{l}");
        TransformerBlock::new(&mut store, &name, d, cfg.heads, cfg.dropout, &mut rng);
    }
    let users = h.dataset.num_users.max(1);
    Embedding::new(&mut store, "irn.user", users, cfg.user_dim, &mut rng);
    Linear::new(&mut store, "irn.wu", cfg.user_dim, 1, true, &mut rng);
    Linear::new(&mut store, "irn.out", d, vocab, true, &mut rng);
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        let grad = Tensor::randn(store.value(id).shape(), 0.01, &mut rng);
        store.accumulate_grad(id, &grad);
    }
    let mut adam = Adam::new(cfg.train.lr);
    let optim_us = time_us(reps, || {
        black_box(adam.step_clipped(&mut store, cfg.train.clip));
    });
    run.layer("nn.optim_us", optim_us);

    // The probes cover one step when every block's modules are counted.
    let per_block = attn_us + ffn_us + 2.0 * norm_us;
    let probed = embed + cfg.layers as f64 * per_block + head_us + loss_us + optim_us;
    run.layer("train.probe_coverage", probed / (step_ms * 1e3));

    // Kernels at the FFN and head shapes (2·m·k·n operations per call).
    let m = b * t;
    let (mut flops, mut secs) = (0.0, 0.0);
    for n in [4 * d, vocab] {
        let a = Tensor::randn(&[m, d], 1.0, &mut rng);
        let w = Tensor::randn(&[d, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        secs +=
            time_us(reps, || matmul_into(a.data(), w.data(), black_box(&mut out), m, d, n)) * 1e-6;
        flops += 2.0 * (m * d * n) as f64;
    }
    run.layer("tensor.matmul.gflops", flops / secs * 1e-9);
    let hidden = Tensor::randn(&[m, 4 * d], 1.0, &mut rng);
    let g = Graph::new();
    let gelu_us = time_us(reps, || {
        g.reset();
        black_box(g.var_from(&hidden, true).gelu());
    });
    let copy_us = time_us(reps, || {
        g.reset();
        black_box(g.var_from(&hidden, true));
    });
    run.layer("tensor.gelu_ns_per_elem", (gelu_us - copy_us).max(0.0) * 1e3 / (m * 4 * d) as f64);

    // The workload's own IRN on 64 test contexts, and its item distance.
    let test = &h.split.test;
    let objectives = sample_objectives(&h.dataset, test, 5, ctx.seed ^ 0x5c0);
    let rows: Vec<usize> = (0..64).map(|i| i % test.len()).collect();
    let users: Vec<usize> = rows.iter().map(|&i| test[i].user).collect();
    let contexts: Vec<&[ItemId]> = rows.iter().map(|&i| test[i].history.as_slice()).collect();
    let objs: Vec<ItemId> = rows.iter().map(|&i| objectives[i]).collect();
    let score_us = time_us(reps.min(20), || {
        black_box(irn.score_next_batch(&users, &contexts, &objs));
    });
    run.layer("core.irn.score_next_batch_us", score_us);
    let distance = h.distance();
    let n = h.dataset.num_items;
    let pairs: Vec<(ItemId, ItemId)> = (0..1000).map(|i| (i % n, (i * 7 + 3) % n)).collect();
    let dist_us = time_us(reps, || {
        black_box(pairs.iter().map(|&(a, c)| distance.distance(a, c)).sum::<f32>());
    });
    run.layer("embed.distance_ns", dist_us * 1e3 / pairs.len() as f64);
    run.walls.push(("probes", started.elapsed().as_secs_f64()));
}
