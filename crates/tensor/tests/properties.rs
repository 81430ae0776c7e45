//! Property-based tests for the tensor engine: algebraic identities of the
//! kernels and linearity/consistency of the autograd tape.

use irs_tensor::{gemm, BatchLayout, Graph, Operand, Tensor};
use proptest::prelude::*;

/// Strategy: a tensor with the given shape and small finite entries.
fn tensor(shape: &'static [usize]) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    proptest::collection::vec(-3.0f32..3.0, n).prop_map(move |data| Tensor::from_vec(data, shape))
}

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// A batched `[B·H, rows, cols]` matrix stored for `gemm`: dense, or
/// head-split — slice `b·H + h` is the `h`-th `cols`-wide column block of
/// a `[B, rows, H·cols + 1]` buffer.  The pad column holds NaN, so a stray
/// read shows in the bits.
struct Stored {
    data: Vec<f32>,
    layout: BatchLayout,
}

impl Stored {
    fn new(
        (outer, heads): (usize, usize),
        (rows, cols): (usize, usize),
        split: bool,
        val: impl Fn(usize) -> f32,
    ) -> Stored {
        let layout = if split {
            let w = heads * cols + 1;
            BatchLayout {
                outer,
                inner: heads,
                outer_stride: rows * w,
                inner_stride: cols,
                row_stride: w,
            }
        } else {
            BatchLayout::dense(outer * heads, rows, cols)
        };
        let len = layout.outer * layout.outer_stride;
        let mut st = Stored { data: vec![f32::NAN; len], layout };
        for s in 0..outer * heads {
            for r in 0..rows {
                for c in 0..cols {
                    let i = st.addr(s, r, c);
                    st.data[i] = val((s * rows + r) * cols + c);
                }
            }
        }
        st
    }

    fn addr(&self, s: usize, r: usize, c: usize) -> usize {
        let l = &self.layout;
        (s / l.inner) * l.outer_stride + (s % l.inner) * l.inner_stride + r * l.row_stride + c
    }

    fn at(&self, s: usize, r: usize, c: usize) -> f32 {
        self.data[self.addr(s, r, c)]
    }

    fn operand(&self, transposed: bool) -> Operand<'_> {
        let op = Operand::new(&self.data, self.layout);
        if transposed {
            op.t()
        } else {
            op
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Softmax is invariant under adding a constant to every logit.
    #[test]
    fn softmax_shift_invariance(x in tensor(&[4, 6]), c in -5.0f32..5.0) {
        let a = x.softmax_last();
        let b = x.map(|v| v + c).softmax_last();
        for (p, q) in a.data().iter().zip(b.data()) {
            prop_assert!(close(*p, *q, 1e-4), "{p} vs {q}");
        }
    }

    /// Softmax rows are probability distributions.
    #[test]
    fn softmax_rows_are_distributions(x in tensor(&[3, 8])) {
        let s = x.softmax_last();
        for row in s.data().chunks(8) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    /// Matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(
        a in tensor(&[3, 4]),
        b in tensor(&[4, 2]),
        c in tensor(&[4, 2]),
    ) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!(close(*x, *y, 1e-4), "{x} vs {y}");
        }
    }

    /// (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn matmul_transpose_identity(a in tensor(&[3, 4]), b in tensor(&[4, 5])) {
        let lhs = a.matmul(&b).transpose2d();
        let rhs = b.transpose2d().matmul(&a.transpose2d());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!(close(*x, *y, 1e-4));
        }
    }

    /// The tape is linear: grad of (αf + βg) = α·grad f + β·grad g.
    #[test]
    fn autograd_linearity(x in tensor(&[5]), alpha in -2.0f32..2.0, beta in -2.0f32..2.0) {
        // f = Σ x², g = Σ sin-ish via tanh composition
        let grad_of = |coeff_a: f32, coeff_b: f32| -> Tensor {
            let g = Graph::new();
            let v = g.var(x.clone(), true);
            let f = v.mul(v).sum_all().mul_scalar(coeff_a);
            let h = v.tanh().sum_all().mul_scalar(coeff_b);
            let loss = f.add(h);
            g.backward(loss);
            g.grad(v).unwrap()
        };
        let combined = grad_of(alpha, beta);
        let fa = grad_of(alpha, 0.0);
        let gb = grad_of(0.0, beta);
        for ((c, a), b) in combined.data().iter().zip(fa.data()).zip(gb.data()) {
            prop_assert!(close(*c, a + b, 1e-4), "{c} vs {}", a + b);
        }
    }

    /// Gather followed by scatter-add backward conserves gradient mass:
    /// the total gradient into the table equals the total upstream
    /// gradient.
    #[test]
    fn gather_conserves_gradient_mass(
        w in tensor(&[6, 3]),
        idx in proptest::collection::vec(0usize..6, 1..10),
    ) {
        let g = Graph::new();
        let table = g.var(w, true);
        let gathered = table.gather_rows(&idx);
        let loss = gathered.sum_all();
        g.backward(loss);
        let dw = g.grad(table).unwrap();
        let mass: f32 = dw.data().iter().sum();
        prop_assert!(close(mass, (idx.len() * 3) as f32, 1e-4));
    }

    /// Reshape/transpose round-trips preserve gradients exactly.
    #[test]
    fn shape_ops_round_trip_gradients(x in tensor(&[2, 3, 4])) {
        let g = Graph::new();
        let v = g.var(x.clone(), true);
        let y = v.transpose_last2().transpose_last2().reshape(&[6, 4]).reshape(&[2, 3, 4]);
        let loss = y.mul(y).sum_all();
        g.backward(loss);
        let dv = g.grad(v).unwrap();
        for (d, xv) in dv.data().iter().zip(x.data()) {
            prop_assert!(close(*d, 2.0 * xv, 1e-4));
        }
    }

    /// Cross-entropy is minimised (≥ 0, and ≤ uniform loss) and its
    /// gradient rows sum to ~0 (softmax minus one-hot property).
    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(
        logits in tensor(&[4, 5]),
        targets in proptest::collection::vec(0usize..5, 4),
    ) {
        let g = Graph::new();
        let v = g.var(logits, true);
        let loss = v.cross_entropy(&targets, usize::MAX);
        prop_assert!(loss.item() >= 0.0);
        g.backward(loss);
        let dv = g.grad(v).unwrap();
        for row in dv.data().chunks(5) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-4, "row gradient sum {s}");
        }
    }

    /// `gemm` is bitwise equal to a naive loop that reads `op(a)`/`op(b)`
    /// by index, across `S = B·H` slices, contractions crossing
    /// `K_BLOCK = 64`, every transpose pattern, dense and head-split
    /// operands, dense and merged-head outputs, zeros in the left operand
    /// and kernel thread counts.  The naive loop skips no zeros: with
    /// finite inputs and a `+0.0` start the skip rule moves no bit.
    #[test]
    fn gemm_bitwise_equals_naive_over_layouts(
        (outer, heads) in (1usize..4, 1usize..3),
        (m, k, n) in (1usize..70, 1usize..70, 1usize..70),
        (trans, a_split, b_split, merged) in (0usize..3, 0usize..2, 0usize..2, 0usize..2),
        seed in 0u32..1000,
    ) {
        let (ta, tb) = (trans == 1, trans == 2);
        let sin = |i: usize, salt: f32| ((i as f32 * 0.37 + seed as f32 * salt).sin()) * 2.0;
        let zero_every_fifth = |i: usize| (i + seed as usize).is_multiple_of(5);
        let a_val = |i: usize| if zero_every_fifth(i) { 0.0 } else { sin(i, 0.11) };
        let a_dims = if ta { (k, m) } else { (m, k) };
        let b_dims = if tb { (n, k) } else { (k, n) };
        let a = Stored::new((outer, heads), a_dims, a_split == 1, a_val);
        let b = Stored::new((outer, heads), b_dims, b_split == 1, |i| sin(i, 0.29));
        let slices = outer * heads;
        let lo = if merged == 1 {
            BatchLayout::head_split(outer, heads, m, n)
        } else {
            BatchLayout::dense(slices, m, n)
        };
        let mut want = vec![0.0f32; slices * m * n];
        for s in 0..slices {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        let a_ip = if ta { a.at(s, p, i) } else { a.at(s, i, p) };
                        let b_pj = if tb { b.at(s, j, p) } else { b.at(s, p, j) };
                        acc += a_ip * b_pj;
                    }
                    let o = (s / lo.inner) * lo.outer_stride + (s % lo.inner) * lo.inner_stride;
                    want[o + i * lo.row_stride + j] = acc;
                }
            }
        }
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        for threads in [None, Some(3)] {
            irs_tensor::set_kernel_threads(threads);
            let mut out = vec![0.0f32; slices * m * n];
            gemm(a.operand(ta), b.operand(tb), &mut out, &lo, m, k, n);
            irs_tensor::set_kernel_threads(None);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                &got, &want,
                "S={outer}x{heads} {m}x{k}x{n} trans={trans} splits={a_split}{b_split} \
                 merged={merged} threads={threads:?}"
            );
        }
    }

    /// Attention-shaped NT matmul reading heads through head-split
    /// *layouts* is bitwise equal to the same computation over head-split
    /// *copies* — values and input gradients — across random shapes.
    /// This is the invariant that lets `MultiHeadAttention` skip the
    /// copies without moving a bit.
    #[test]
    fn bmm_nt_view_path_bitwise_equals_copy_path(
        b in 1usize..3, t in 1usize..5, heads in 1usize..3, dk in 1usize..4,
        seed in 0u32..1000,
    ) {
        let d = heads * dk;
        let val = |i: usize| ((i as f32 * 0.19 + seed as f32 * 0.23).sin()) * 2.0;
        let x = Tensor::from_vec((0..b * t * d).map(val).collect(), &[b, t, d]);
        let run = |layouts: bool| -> (Vec<u32>, Vec<u32>) {
            let g = Graph::new();
            let v = g.var(x.clone(), true);
            let scores = if layouts {
                v.bmm_nt(v, heads)
            } else {
                v.split_heads(heads).bmm_nt(v.split_heads(heads), 1)
            };
            let loss = scores.mul(scores).sum_all();
            g.backward(loss);
            let value: Vec<u32> = scores.value().data().iter().map(|f| f.to_bits()).collect();
            let grad: Vec<u32> =
                g.grad(v).unwrap().data().iter().map(|f| f.to_bits()).collect();
            (value, grad)
        };
        let (val_split, grad_split) = run(true);
        let (val_copy, grad_copy) = run(false);
        prop_assert_eq!(val_split, val_copy);
        prop_assert_eq!(grad_split, grad_copy);
    }

    /// Layer-norm output is invariant to input shift and scale (with unit
    /// gamma, zero beta).
    #[test]
    fn layer_norm_shift_scale_invariance(
        x in tensor(&[2, 6]),
        shift in -3.0f32..3.0,
        scale in 0.5f32..3.0,
    ) {
        let run = |input: Tensor| {
            let g = Graph::new();
            let v = g.var(input, false);
            let gamma = g.constant(Tensor::ones(&[6]));
            let beta = g.constant(Tensor::zeros(&[6]));
            v.layer_norm(gamma, beta, 1e-6).value()
        };
        let base = run(x.clone());
        let transformed = run(x.map(|v| v * scale + shift));
        for (a, b) in base.data().iter().zip(transformed.data()) {
            prop_assert!(close(*a, *b, 2e-2), "{a} vs {b}");
        }
    }
}

proptest! {
    // Heavier end-to-end cases: a full (gather -> head-split attention ->
    // cross-entropy) training step per case, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A replayed step is bitwise equal to recording the same step on a
    /// fresh graph, across random shapes, *changed per-step payloads*
    /// (gather indices and cross-entropy targets differ between the
    /// recorded step and the replayed one), and forced kernel thread
    /// counts.  This is the record-once/replay-per-minibatch contract:
    /// the tape caches the op plan, never the data.
    #[test]
    fn tape_replay_bitwise_equals_fresh_rerecord(
        b in 1usize..3, t in 1usize..4, heads in 1usize..3, dk in 1usize..3,
        threads in 1usize..4,
        seed in 0u32..1000,
    ) {
        let d = heads * dk;
        let vocab = 8usize;
        let val = |i: usize| ((i as f32 * 0.29 + seed as f32 * 0.19).sin()) * 2.0;
        let table = Tensor::from_vec((0..vocab * d).map(val).collect(), &[vocab, d]);
        let pick = |step: usize, j: usize, m: usize| {
            (seed as usize).wrapping_mul(31).wrapping_add(step * 17 + j * 7) % m
        };
        let idx = |step: usize| -> Vec<usize> {
            (0..b * t).map(|j| pick(step, j, vocab)).collect()
        };
        let targets = |step: usize| -> Vec<usize> {
            (0..b * t).map(|j| pick(step + 100, j, d)).collect()
        };
        // One full training step: embed -> head-split attention -> CE loss.
        let step = |g: &Graph, indices: &[usize], tg: &[usize]| -> (u32, Vec<u32>) {
            let w = g.var(table.clone(), true);
            let x = w.gather_rows(indices).reshape(&[b, t, d]);
            let scores = x.bmm_nt(x, heads).mul_scalar(1.0 / (dk as f32).sqrt());
            let attn = scores.softmax_last();
            let out = attn.attn_bmm_merge(x, heads);
            let loss = out.reshape(&[b * t, d]).cross_entropy(tg, usize::MAX);
            g.backward(loss);
            let dw: Vec<u32> = g.grad(w).unwrap().data().iter().map(|f| f.to_bits()).collect();
            (loss.item().to_bits(), dw)
        };
        // Bits must be invariant under the kernel fan width — assert the
        // whole contract under a forced thread count.  (The setting is
        // process-global, but every test in this binary asserts results
        // that are thread-count invariant, so concurrent mutation is
        // benign.)
        irs_tensor::set_kernel_threads(Some(threads));
        // Graph A records step 0, resets, then *replays* step 1 with
        // different gather indices and CE targets.
        let ga = Graph::new();
        let _ = step(&ga, &idx(0), &targets(0));
        let nodes_recorded = ga.num_nodes();
        ga.reset();
        let (loss_replay, grad_replay) = step(&ga, &idx(1), &targets(1));
        prop_assert_eq!(ga.num_nodes(), nodes_recorded, "replay must not grow the tape");
        // Graph B records step 1 from scratch.
        let gb = Graph::new();
        let (loss_fresh, grad_fresh) = step(&gb, &idx(1), &targets(1));
        irs_tensor::set_kernel_threads(None);
        prop_assert_eq!(loss_replay, loss_fresh);
        prop_assert_eq!(grad_replay, grad_fresh);
    }
}
