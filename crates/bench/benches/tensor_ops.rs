//! Micro-benchmarks for the tensor substrate: the kernels that dominate
//! IRN training time (matmul, batched matmul, softmax, full attention
//! forward/backward).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use irs_nn::{causal_mask, AttnBias, FwdCtx, MultiHeadAttention, ParamStore};
use irs_tensor::{matmul_into, Graph, Tensor};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

/// The dense kernel on the shapes the inference engine actually hits:
/// fused GRU gate matmuls ([T·B, D] @ [D, 3H]) and output projections
/// ([B, D] @ [D, vocab]), plus two wide shapes.
fn bench_matmul_kernel(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("matmul_kernel");
    for &(label, m, k, n) in &[
        ("gru_gates_384x32x96", 384usize, 32usize, 96usize),
        ("out_proj_16x32x512", 16, 32, 512),
        ("wide_64x256x512", 64, 256, 512),
        ("wide_128x512x512", 128, 512, 512),
    ] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        group.bench_function(format!("plain_{label}"), |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                matmul_into(a.data(), b.data(), &mut out, m, k, n);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

fn bench_bmm(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let a = Tensor::randn(&[16, 24, 32], 1.0, &mut rng);
    let b = Tensor::randn(&[16, 32, 24], 1.0, &mut rng);
    c.bench_function("bmm_16x24x32", |bch| bch.iter(|| black_box(a.bmm(&b))));
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let x = Tensor::randn(&[64, 512], 1.0, &mut rng);
    c.bench_function("softmax_64x512", |bch| bch.iter(|| black_box(x.softmax_last())));
}

fn bench_attention_fwd_bwd(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut store = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut store, "a", 32, 2, 0.0, &mut rng);
    let input = Tensor::randn(&[8, 20, 32], 1.0, &mut rng);
    let mask = causal_mask(20);
    c.bench_function("attention_fwd_bwd_8x20x32", |bch| {
        bch.iter(|| {
            let g = Graph::new();
            let ctx = FwdCtx::new(&g, &store, true, 0);
            let x = g.constant(input.clone());
            let y = mha.forward(&ctx, x, &AttnBias::Base(mask.clone()));
            let loss = y.mul(y).mean_all();
            store.zero_grad();
            ctx.backprop(loss);
            black_box(loss.item())
        });
    });
}

/// Layout changes read in place vs the copies they replace: a zero-copy
/// reshape next to the clone into a new shape, and the attention
/// products reading heads through head-split layouts next to the
/// split-copy paths.  The `attn_bwd_nt_*` pair isolates the
/// transpose-staging elimination: an attention-score NT matmul, forward
/// and backward, over head-split *copies* (dense operands → the kernel
/// stages a transpose into scratch) vs head-split *layouts* (the dense
/// `[B, T, D]` buffer read in place).
fn bench_view_ops(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut group = c.benchmark_group("view_ops");

    // Transpose: an O(mn) copy.
    let a = Tensor::randn(&[256, 256], 1.0, &mut rng);
    group.bench_function("transpose_copy_256x256", |bch| {
        bch.iter(|| black_box(a.transpose2d()));
    });

    // Reshape: zero-copy buffer share vs the old clone-into-new-shape.
    let x = Tensor::randn(&[8, 64, 32], 1.0, &mut rng);
    group.bench_function("reshape_view_8x64x32", |bch| {
        bch.iter(|| black_box(x.reshaped(&[512, 32])));
    });
    group.bench_function("reshape_copy_8x64x32", |bch| {
        bch.iter(|| black_box(Tensor::from_vec(x.data().to_vec(), &[512, 32])));
    });

    // Attention-score NT (fwd + bwd) with and without transpose staging.
    // Both paths produce bitwise-identical values and gradients (the
    // property suites pin this); only the layout plumbing differs.
    let (b, t, d, heads) = (8usize, 20usize, 32usize, 2usize);
    let input = Tensor::randn(&[b, t, d], 1.0, &mut rng);
    let run_nt = |layouts: bool| {
        let g = Graph::new();
        let v = g.var(input.clone(), true);
        let scores = if layouts {
            v.bmm_nt(v, heads)
        } else {
            v.split_heads(heads).bmm_nt(v.split_heads(heads), 1)
        };
        let loss = scores.sum_all();
        g.backward(loss);
        loss.item()
    };
    group.bench_function("attn_bwd_nt_staged_8x20x32h2", |bch| {
        bch.iter(|| black_box(run_nt(false)));
    });
    group.bench_function("attn_bwd_nt_direct_8x20x32h2", |bch| {
        bch.iter(|| black_box(run_nt(true)));
    });

    // Head merge after attention: the fused bmm+merge reading V through
    // the head-split layout vs the copying split-bmm-merge pipeline.
    let run_merge = |fused: bool| {
        let g = Graph::new();
        let xv = g.var(input.clone(), true);
        let attn = g.constant(Tensor::randn(
            &[b * heads, t, t],
            1.0,
            &mut rand::rngs::StdRng::seed_from_u64(7),
        ));
        let out = if fused {
            attn.attn_bmm_merge(xv, heads)
        } else {
            attn.bmm(xv.split_heads(heads)).merge_heads(heads)
        };
        let loss = out.sum_all();
        g.backward(loss);
        loss.item()
    };
    group.bench_function("head_merge_copy_8x20x32h2", |bch| {
        bch.iter(|| black_box(run_merge(false)));
    });
    group.bench_function("head_merge_fused_8x20x32h2", |bch| {
        bch.iter(|| black_box(run_merge(true)));
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_kernel,
    bench_bmm,
    bench_softmax,
    bench_attention_fwd_bwd,
    bench_view_ops
);
criterion_main!(benches);
