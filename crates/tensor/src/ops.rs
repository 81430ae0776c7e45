//! Differentiable arithmetic, linear algebra and activation operations.
//!
//! Every op draws its output from the graph's recycled-buffer pool
//! ([`crate::Graph::alloc_out`]) so repeated steps over a reset graph run
//! allocation-free, and every backward closure works directly against the
//! upstream gradient and parent values (no defensive clones).  Every
//! product — forward, and the backward's products against transposed
//! operands — is one [`crate::gemm`] call over [`Operand`]s, which keeps
//! per-element accumulation order and the skip-zero rule, so values and
//! gradients are bitwise identical to transposing, materialising and
//! multiplying.

use crate::graph::Var;
use crate::tensor::{gemm, BatchLayout, Operand};

#[allow(clippy::should_implement_trait)] // add/sub/mul/neg mirror tensor-library convention
impl<'g> Var<'g> {
    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    /// Elementwise `self + other` (identical shapes).
    pub fn add(self, other: Var<'g>) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            other.graph.with_value(other, |b| {
                assert_eq!(a.shape(), b.shape(), "add shape mismatch");
                let mut out = self.graph.alloc_out(a.shape());
                for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
                    *o = x + y;
                }
                out
            })
        });
        self.graph.push_op(&[self, other], v, |ctx| {
            ctx.accumulate_grad_out(0);
            ctx.accumulate_grad_out(1);
        })
    }

    /// Elementwise `self - other` (identical shapes).
    pub fn sub(self, other: Var<'g>) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            other.graph.with_value(other, |b| {
                assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
                let mut out = self.graph.alloc_out(a.shape());
                for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
                    *o = x - y;
                }
                out
            })
        });
        self.graph.push_op(&[self, other], v, |ctx| {
            ctx.accumulate_grad_out(0);
            ctx.accumulate_grad_out_scaled(1, -1.0);
        })
    }

    /// Elementwise Hadamard product (identical shapes).
    pub fn mul(self, other: Var<'g>) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            other.graph.with_value(other, |b| {
                assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
                let mut out = self.graph.alloc_out(a.shape());
                for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
                    *o = x * y;
                }
                out
            })
        });
        self.graph.push_op(&[self, other], v, |ctx| {
            let go = ctx.grad_out();
            let b = ctx.value(1);
            let a = ctx.value(0);
            if ctx.parent_needs_grad(0) {
                let da = ctx.grad_mut(0);
                for ((o, &g), &y) in da.data_mut().iter_mut().zip(go.data()).zip(b.data()) {
                    *o += g * y;
                }
            }
            if ctx.parent_needs_grad(1) {
                let db = ctx.grad_mut(1);
                for ((o, &g), &x) in db.data_mut().iter_mut().zip(go.data()).zip(a.data()) {
                    *o += g * x;
                }
            }
        })
    }

    /// `self + c` for a scalar constant.
    pub fn add_scalar(self, c: f32) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(a.shape());
            for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
                *o = x + c;
            }
            out
        });
        self.graph.push_op(&[self], v, |ctx| {
            ctx.accumulate_grad_out(0);
        })
    }

    /// `self * c` for a scalar constant.
    pub fn mul_scalar(self, c: f32) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(a.shape());
            for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
                *o = x * c;
            }
            out
        });
        // `c` travels as a per-step scalar payload so a replayed record
        // picks up the current step's constant, not the recorded one.
        self.graph.push_op_scaled(&[self], v, c, |ctx| {
            let c = ctx.payload_scalar();
            ctx.accumulate_grad_out_scaled(0, c);
        })
    }

    /// Negation.
    pub fn neg(self) -> Var<'g> {
        self.mul_scalar(-1.0)
    }

    /// Multiply by a scalar-valued `Var` (shape `[1]`), broadcasting it over
    /// every element.  The gradient flows into both operands; used e.g. for
    /// learned temperature / impressionability factors.
    pub fn scale_by(self, s: Var<'g>) -> Var<'g> {
        let sv = s.item();
        let v = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(a.shape());
            for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
                *o = x * sv;
            }
            out
        });
        self.graph.push_op(&[self, s], v, |ctx| {
            let s_val = ctx.value(1).item();
            ctx.accumulate_grad_out_scaled(0, s_val);
            let ds: f32 =
                ctx.grad_out().data().iter().zip(ctx.value(0).data()).map(|(&g, &x)| g * x).sum();
            ctx.grad_mut(1).data_mut()[0] += ds;
        })
    }

    // ------------------------------------------------------------------
    // Broadcasting helpers
    // ------------------------------------------------------------------

    /// Add a 1-D bias of length `d` to a tensor whose last axis has length
    /// `d`, broadcasting over all leading axes.
    pub fn add_bias(self, bias: Var<'g>) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            bias.graph.with_value(bias, |b| {
                assert_eq!(b.ndim(), 1, "add_bias needs 1-D bias, got {:?}", b.shape());
                let d = b.shape()[0];
                assert_eq!(
                    *a.shape().last().expect("add_bias on 0-d tensor"),
                    d,
                    "bias length {d} does not match last axis of {:?}",
                    a.shape()
                );
                let mut out = self.graph.alloc_out(a.shape());
                for (row, src) in out.data_mut().chunks_mut(d).zip(a.data().chunks(d)) {
                    for ((o, &x), &bb) in row.iter_mut().zip(src).zip(b.data()) {
                        *o = x + bb;
                    }
                }
                out
            })
        });
        self.graph.push_op(&[self, bias], v, |ctx| {
            ctx.accumulate_grad_out(0);
            let go = ctx.grad_out();
            let d = ctx.value(1).shape()[0];
            let db = ctx.grad_mut(1);
            for row in go.data().chunks(d) {
                for (b, &g) in db.data_mut().iter_mut().zip(row) {
                    *b += g;
                }
            }
        })
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix multiply.
    pub fn matmul(self, other: Var<'g>) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            other.graph.with_value(other, |b| {
                assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
                assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
                let (m, k) = (a.shape()[0], a.shape()[1]);
                let (k2, n) = (b.shape()[0], b.shape()[1]);
                assert_eq!(k, k2, "matmul inner dims differ: {:?} vs {:?}", a.shape(), b.shape());
                let mut out = self.graph.alloc_zeroed(&[m, n]);
                let (lhs, rhs) =
                    (Operand::dense(a.data(), 1, m, k), Operand::dense(b.data(), 1, k, n));
                gemm(lhs, rhs, out.data_mut(), &BatchLayout::dense(1, m, n), m, k, n);
                out
            })
        });
        self.graph.push_op(&[self, other], v, |ctx| {
            // dA += g @ Bᵀ ; dB += Aᵀ @ g — bitwise equal to materialising
            // the transposes.
            let g = ctx.grad_out();
            let (m, n) = (g.shape()[0], g.shape()[1]);
            let go = Operand::dense(g.data(), 1, m, n);
            if ctx.parent_needs_grad(0) {
                let b = ctx.value(1);
                let k = b.shape()[0];
                let bt = Operand::dense(b.data(), 1, k, n).t();
                ctx.accumulate_with(0, |out| {
                    gemm(go, bt, out, &BatchLayout::dense(1, m, k), m, n, k)
                });
            }
            if ctx.parent_needs_grad(1) {
                let a = ctx.value(0);
                let k = a.shape()[1];
                let at = Operand::dense(a.data(), 1, m, k).t();
                ctx.accumulate_with(1, |out| {
                    gemm(at, go, out, &BatchLayout::dense(1, k, n), k, m, n)
                });
            }
        })
    }

    /// Batched 3-D matmul `[b,m,k] @ [b,k,n] -> [b,m,n]`.
    pub fn bmm(self, other: Var<'g>) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            other.graph.with_value(other, |b| {
                assert_eq!(a.ndim(), 3, "bmm lhs must be 3-D, got {:?}", a.shape());
                assert_eq!(b.ndim(), 3, "bmm rhs must be 3-D, got {:?}", b.shape());
                let (bt, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
                let (b2, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
                assert_eq!(bt, b2, "bmm batch dims differ");
                assert_eq!(k, k2, "bmm inner dims differ: {:?} vs {:?}", a.shape(), b.shape());
                let mut out = self.graph.alloc_zeroed(&[bt, m, n]);
                let (lhs, rhs) =
                    (Operand::dense(a.data(), bt, m, k), Operand::dense(b.data(), bt, k, n));
                gemm(lhs, rhs, out.data_mut(), &BatchLayout::dense(bt, m, n), m, k, n);
                out
            })
        });
        self.graph.push_op(&[self, other], v, |ctx| {
            let g = ctx.grad_out();
            let (bt, m, n) = (g.shape()[0], g.shape()[1], g.shape()[2]);
            let go = Operand::dense(g.data(), bt, m, n);
            if ctx.parent_needs_grad(0) {
                let b = ctx.value(1);
                let k = b.shape()[1];
                let btr = Operand::dense(b.data(), bt, k, n).t();
                let lo = BatchLayout::dense(bt, m, k);
                ctx.accumulate_with(0, |out| gemm(go, btr, out, &lo, m, n, k));
            }
            if ctx.parent_needs_grad(1) {
                let a = ctx.value(0);
                let k = a.shape()[2];
                let atr = Operand::dense(a.data(), bt, m, k).t();
                let lo = BatchLayout::dense(bt, k, n);
                ctx.accumulate_with(1, |out| gemm(atr, go, out, &lo, k, m, n));
            }
        })
    }

    /// Per-head attention scores `self · otherᵀ`: `[b,m,h·dk] ·
    /// [b,n,h·dk]ᵀ -> [b·h,m,n]`, where output slice `b'·h + j` is the
    /// product of head `j`'s `dk`-wide column blocks.  `heads = 1` is
    /// the plain batched `[b,m,d] · [b,n,d]ᵀ`.
    ///
    /// Both operands are read in place through
    /// [`BatchLayout::head_split`] — no split copy and no transpose node —
    /// and the backward writes each gradient back through the same
    /// layout: `dA += G · B` is a plain product and `dB += Gᵀ · A` reads
    /// `G` transposed in place.  Values and gradients are bitwise equal
    /// to splitting the heads by copy, transposing and multiplying: the
    /// layout relocates rows and never reorders an accumulation.
    pub fn bmm_nt(self, other: Var<'g>, heads: usize) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            other.graph.with_value(other, |b| {
                assert_eq!(a.ndim(), 3, "bmm_nt lhs must be 3-D, got {:?}", a.shape());
                assert_eq!(b.ndim(), 3, "bmm_nt rhs must be 3-D, got {:?}", b.shape());
                let (bt, m, d) = (a.shape()[0], a.shape()[1], a.shape()[2]);
                let (b2, n, d2) = (b.shape()[0], b.shape()[1], b.shape()[2]);
                assert_eq!(bt, b2, "bmm_nt batch dims differ");
                assert_eq!(d, d2, "bmm_nt inner dims differ: {:?} vs {:?}", a.shape(), b.shape());
                assert!(heads > 0 && d % heads == 0, "d={d} not divisible by heads={heads}");
                let dk = d / heads;
                let mut out = self.graph.alloc_zeroed(&[bt * heads, m, n]);
                let lhs = Operand::new(a.data(), BatchLayout::head_split(bt, heads, m, dk));
                let rhs = Operand::new(b.data(), BatchLayout::head_split(bt, heads, n, dk)).t();
                let lo = BatchLayout::dense(bt * heads, m, n);
                gemm(lhs, rhs, out.data_mut(), &lo, m, dk, n);
                out
            })
        });
        self.graph.push_op(&[self, other], v, move |ctx| {
            let g = ctx.grad_out();
            let (bh, m, n) = (g.shape()[0], g.shape()[1], g.shape()[2]);
            let (bt, dk) = (bh / heads, ctx.value(0).shape()[2] / heads);
            let go = Operand::dense(g.data(), bh, m, n);
            let (a_lo, b_lo) = (
                BatchLayout::head_split(bt, heads, m, dk),
                BatchLayout::head_split(bt, heads, n, dk),
            );
            if ctx.parent_needs_grad(0) {
                // dA += G @ B : [b·h,m,n] @ [b·h,n,dk] — contraction
                // ascending over n with the skip-zero rule on G, exactly
                // what the transpose-node chain produced.
                let rhs = Operand::new(ctx.value(1).data(), b_lo);
                ctx.accumulate_with(0, |out| gemm(go, rhs, out, &a_lo, m, n, dk));
            }
            if ctx.parent_needs_grad(1) {
                // dB += Gᵀ @ A : [b·h,n,m] @ [b·h,m,dk] — ascending over m,
                // the transpose-node chain's dBᵀ with its skip-zero rule
                // moved from A to G (bitwise equal for finite inputs, see
                // `gemm`).
                let rhs = Operand::new(ctx.value(0).data(), a_lo);
                ctx.accumulate_with(1, |out| gemm(go.t(), rhs, out, &b_lo, n, m, dk));
            }
        })
    }

    /// Fused `attn @ v` + head merge: `[b·h, m, k] @ [b, k, h·dk] ->
    /// [b, m, h·dk]`, reading `v`'s heads through
    /// [`BatchLayout::head_split`] and writing each head's product rows
    /// directly at their merged offsets — one tape node replacing
    /// `split_heads` + `bmm` + `merge_heads`.  Values and gradients are
    /// bitwise identical to that chain: the layouts only relocate rows,
    /// and the backward runs the same transposed products the `bmm`
    /// backward runs, reading the merged upstream gradient through the
    /// split layout instead of scattering it into a copy first.
    pub fn attn_bmm_merge(self, v: Var<'g>, heads: usize) -> Var<'g> {
        let val = self.graph.with_value(self, |a| {
            v.graph.with_value(v, |vv| {
                assert_eq!(a.ndim(), 3, "attn_bmm_merge lhs must be 3-D, got {:?}", a.shape());
                assert_eq!(vv.ndim(), 3, "attn_bmm_merge rhs must be 3-D, got {:?}", vv.shape());
                let (bh, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
                let (b, k2, d) = (vv.shape()[0], vv.shape()[1], vv.shape()[2]);
                assert_eq!(bh, b * heads, "attn_bmm_merge: {bh} slices for {b}x{heads} heads");
                assert_eq!(k, k2, "attn_bmm_merge inner dims differ");
                assert!(heads > 0 && d % heads == 0, "d={d} not divisible by heads={heads}");
                let dk = d / heads;
                let mut out = self.graph.alloc_zeroed(&[b, m, d]);
                let lhs = Operand::dense(a.data(), bh, m, k);
                let rhs = Operand::new(vv.data(), BatchLayout::head_split(b, heads, k, dk));
                let lo = BatchLayout::head_split(b, heads, m, dk);
                gemm(lhs, rhs, out.data_mut(), &lo, m, k, dk);
                out
            })
        });
        self.graph.push_op(&[self, v], val, move |ctx| {
            let g = ctx.grad_out(); // dense [b, m, h·dk]
            let a = ctx.value(0);
            let (bh, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
            let (b, dk) = (g.shape()[0], g.shape()[2] / heads);
            let v_lo = BatchLayout::head_split(b, heads, k, dk);
            // Read the merged upstream gradient through the split layout.
            let gs = Operand::new(g.data(), BatchLayout::head_split(b, heads, m, dk));
            if ctx.parent_needs_grad(0) {
                // dAttn += G_split @ Vᵀ
                let vt = Operand::new(ctx.value(1).data(), v_lo).t();
                let lo = BatchLayout::dense(bh, m, k);
                ctx.accumulate_with(0, |out| gemm(gs, vt, out, &lo, m, dk, k));
            }
            if ctx.parent_needs_grad(1) {
                // dV += Attnᵀ @ G_split, written through the split layout.
                let at = Operand::dense(a.data(), bh, m, k).t();
                ctx.accumulate_with(1, |out| gemm(at, gs, out, &v_lo, k, m, dk));
            }
        })
    }

    /// Fused affine transform over the last axis: flatten all leading axes
    /// to rows, multiply by `w: [k, n]` and (optionally) add a `[n]` bias —
    /// one tape node instead of the historical reshape → matmul → reshape
    /// (→ add_bias) chain, with identical values and gradients (the
    /// flattening is metadata-only for contiguous tensors, and the bias
    /// add happens after each output element's dot product completes,
    /// exactly as the separate `add_bias` node did).
    pub fn affine(self, w: Var<'g>, bias: Option<Var<'g>>) -> Var<'g> {
        let (out_shape, rows, k, n) = self.graph.with_value(self, |x| {
            w.graph.with_value(w, |wt| {
                assert_eq!(wt.ndim(), 2, "affine weight must be 2-D, got {:?}", wt.shape());
                let (k, n) = (wt.shape()[0], wt.shape()[1]);
                assert_eq!(
                    *x.shape().last().expect("affine on 0-d tensor"),
                    k,
                    "input last axis {:?} does not match weight rows {k}",
                    x.shape()
                );
                let rows = x.len() / k;
                let mut out_shape = x.shape().to_vec();
                *out_shape.last_mut().expect("non-empty shape") = n;
                (out_shape, rows, k, n)
            })
        });
        let v = self.graph.with_value(self, |x| {
            w.graph.with_value(w, |wt| {
                let mut out = self.graph.alloc_zeroed(&out_shape);
                let (lhs, rhs) =
                    (Operand::dense(x.data(), 1, rows, k), Operand::dense(wt.data(), 1, k, n));
                gemm(lhs, rhs, out.data_mut(), &BatchLayout::dense(1, rows, n), rows, k, n);
                if let Some(b) = bias {
                    b.graph.with_value(b, |bt| {
                        assert_eq!(bt.shape(), &[n], "affine bias must be [{n}]");
                        for row in out.data_mut().chunks_mut(n) {
                            for (o, &bb) in row.iter_mut().zip(bt.data()) {
                                *o += bb;
                            }
                        }
                    });
                }
                out
            })
        });
        let parents: Vec<Var<'g>> = match bias {
            Some(b) => vec![self, w, b],
            None => vec![self, w],
        };
        self.graph.push_op(&parents, v, move |ctx| {
            let g = ctx.grad_out();
            let go = Operand::dense(g.data(), 1, rows, n);
            if ctx.parent_needs_grad(0) {
                let wt = Operand::dense(ctx.value(1).data(), 1, k, n).t();
                let lo = BatchLayout::dense(1, rows, k);
                ctx.accumulate_with(0, |out| gemm(go, wt, out, &lo, rows, n, k));
            }
            if ctx.parent_needs_grad(1) {
                let xt = Operand::dense(ctx.value(0).data(), 1, rows, k).t();
                let lo = BatchLayout::dense(1, k, n);
                ctx.accumulate_with(1, |out| gemm(xt, go, out, &lo, k, rows, n));
            }
            if ctx.num_parents() == 3 && ctx.parent_needs_grad(2) {
                let db = ctx.grad_mut(2);
                for row in g.data().chunks(n) {
                    for (b, &gv) in db.data_mut().iter_mut().zip(row) {
                        *b += gv;
                    }
                }
            }
        })
    }

    /// Multiply a 3-D tensor by a shared 2-D matrix on the right:
    /// `[b,m,k] @ [k,n] -> [b,m,n]` — [`Var::affine`] without a bias.
    pub fn matmul_rhs2d(self, w: Var<'g>) -> Var<'g> {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "matmul_rhs2d lhs must be 3-D, got {shape:?}");
        self.affine(w, None)
    }

    /// Swap the last two axes of a 3-D tensor.
    pub fn transpose_last2(self) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            assert_eq!(a.ndim(), 3, "transpose_last2 needs 3-D, got {:?}", a.shape());
            let (b, m, n) = (a.shape()[0], a.shape()[1], a.shape()[2]);
            let mut out = self.graph.alloc_out(&[b, n, m]);
            transpose_last2_into(a.data(), out.data_mut(), b, m, n);
            out
        });
        self.graph.push_op(&[self], v, |ctx| {
            let go = ctx.grad_out();
            let (b, n, m) = (go.shape()[0], go.shape()[1], go.shape()[2]);
            let dx = ctx.grad_mut(0);
            // dx[., r, c] += go[., c, r]
            for bi in 0..b {
                let src = &go.data()[bi * m * n..(bi + 1) * m * n];
                let dst = &mut dx.data_mut()[bi * m * n..(bi + 1) * m * n];
                for c in 0..n {
                    for r in 0..m {
                        dst[r * n + c] += src[c * m + r];
                    }
                }
            }
        })
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of every element (scalar output).
    pub fn sum_all(self) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(&[1]);
            out.data_mut()[0] = a.sum();
            out
        });
        self.graph.push_op(&[self], v, |ctx| {
            let g = ctx.grad_out().item();
            let dx = ctx.grad_mut(0);
            for o in dx.data_mut() {
                *o += g;
            }
        })
    }

    /// Mean of every element (scalar output).
    pub fn mean_all(self) -> Var<'g> {
        let n = self.graph.with_value(self, |a| a.len());
        assert!(n > 0, "mean_all of empty tensor");
        self.sum_all().mul_scalar(1.0 / n as f32)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(a.shape());
            for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
                *o = x.max(0.0);
            }
            out
        });
        self.graph.push_op(&[self], v, |ctx| {
            let go = ctx.grad_out();
            let x = ctx.value(0);
            let dx = ctx.grad_mut(0);
            for ((o, &g), &xi) in dx.data_mut().iter_mut().zip(go.data()).zip(x.data()) {
                *o += if xi <= 0.0 { 0.0 } else { g };
            }
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(a.shape());
            for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
                *o = 1.0 / (1.0 + (-x).exp());
            }
            out
        });
        self.graph.push_op(&[self], v, |ctx| {
            let go = ctx.grad_out();
            let y = ctx.out_value();
            let dx = ctx.grad_mut(0);
            for ((o, &g), &yi) in dx.data_mut().iter_mut().zip(go.data()).zip(y.data()) {
                *o += g * (yi * (1.0 - yi));
            }
        })
    }

    /// Hyperbolic tangent ([`crate::tanh`]).
    pub fn tanh(self) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(a.shape());
            for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
                *o = crate::tanh(x);
            }
            out
        });
        self.graph.push_op(&[self], v, |ctx| {
            let go = ctx.grad_out();
            let y = ctx.out_value();
            let dx = ctx.grad_mut(0);
            for ((o, &g), &yi) in dx.data_mut().iter_mut().zip(go.data()).zip(y.data()) {
                *o += g * (1.0 - yi * yi);
            }
        })
    }

    /// Gaussian error linear unit in its tanh form ([`crate::gelu`]), as
    /// transformer implementations use it.
    ///
    /// The forward caches the inner `tanh` of every element and the
    /// backward reuses it instead of recomputing — same values, half the
    /// `tanh` work per step.  The repo's branch-free [`crate::tanh`] lets
    /// the forward loop run in SIMD lanes.
    pub fn gelu(self) -> Var<'g> {
        let (v, tcache) = self.graph.with_value(self, |a| {
            let mut out = self.graph.alloc_out(a.shape());
            let mut tc = self.graph.alloc_out(a.shape());
            for ((o, t), &x) in
                out.data_mut().iter_mut().zip(tc.data_mut().iter_mut()).zip(a.data())
            {
                (*o, *t) = crate::gelu(x);
            }
            (out, tc)
        });
        // The tanh cache rides the tape as a constant parent: its buffer
        // recycles through the pool on reset, and the backward reads it
        // like any other parent value (it receives no gradient).
        let tcache = self.graph.constant(tcache);
        self.graph.push_op(&[self, tcache], v, move |ctx| {
            let go = ctx.grad_out();
            let x = ctx.value(0);
            let tc = ctx.value(1);
            let dx = ctx.grad_mut(0);
            for (((o, &g), &xi), &t) in
                dx.data_mut().iter_mut().zip(go.data()).zip(x.data()).zip(tc.data())
            {
                *o += g * crate::activation::gelu_grad(xi, t);
            }
        })
    }
}

/// `out[., n, m] = src[., m, n]` — the transpose copy used by the
/// `transpose_last2` op (full overwrite, so a stale pooled buffer is fine).
fn transpose_last2_into(src: &[f32], out: &mut [f32], b: usize, m: usize, n: usize) {
    for bi in 0..b {
        let s = &src[bi * m * n..(bi + 1) * m * n];
        let d = &mut out[bi * m * n..(bi + 1) * m * n];
        for r in 0..m {
            for c in 0..n {
                d[c * m + r] = s[r * n + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check_gradients;
    use crate::graph::Graph;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn add_sub_mul_values() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let b = g.var(Tensor::from_vec(vec![3.0, 5.0], &[2]), true);
        assert_eq!(a.add(b).value().data(), &[4.0, 7.0]);
        assert_eq!(a.sub(b).value().data(), &[-2.0, -3.0]);
        assert_eq!(a.mul(b).value().data(), &[3.0, 10.0]);
    }

    #[test]
    fn grad_add() {
        let x = Tensor::randn(&[3, 2], 1.0, &mut rng());
        let y = Tensor::randn(&[3, 2], 1.0, &mut rng());
        check_gradients(&[x, y], |_g, vars| vars[0].add(vars[1]).mul(vars[1]).sum_all());
    }

    #[test]
    fn grad_mul_scalar_and_add_scalar() {
        let x = Tensor::randn(&[4], 1.0, &mut rng());
        check_gradients(&[x], |_g, vars| {
            vars[0].mul_scalar(2.5).add_scalar(-1.0).mul(vars[0]).sum_all()
        });
    }

    #[test]
    fn grad_matmul() {
        let a = Tensor::randn(&[3, 4], 1.0, &mut rng());
        let b = Tensor::randn(&[4, 2], 1.0, &mut rng());
        check_gradients(&[a, b], |_g, vars| vars[0].matmul(vars[1]).sum_all());
    }

    #[test]
    fn grad_bmm() {
        let a = Tensor::randn(&[2, 3, 4], 1.0, &mut rng());
        let b = Tensor::randn(&[2, 4, 2], 1.0, &mut rng());
        check_gradients(&[a, b], |_g, vars| {
            // Square to make the loss non-linear in both inputs.
            let c = vars[0].bmm(vars[1]);
            c.mul(c).sum_all()
        });
    }

    #[test]
    fn bmm_nt_matches_transpose_then_bmm_bitwise() {
        let mut r = rng();
        let a = Tensor::randn(&[2, 3, 4], 1.0, &mut r);
        let b = Tensor::randn(&[2, 5, 4], 1.0, &mut r);
        let run = |fused: bool| {
            let g = Graph::new();
            let av = g.var(a.clone(), true);
            let bv = g.var(b.clone(), true);
            let y = if fused { av.bmm_nt(bv, 1) } else { av.bmm(bv.transpose_last2()) };
            let loss = y.mul(y).sum_all();
            g.backward(loss);
            (y.value(), g.grad(av).unwrap(), g.grad(bv).unwrap())
        };
        let (yf, daf, dbf) = run(true);
        let (yr, dar, dbr) = run(false);
        assert_eq!(yf.shape(), &[2, 3, 5]);
        assert_eq!(yf.data(), yr.data());
        assert_eq!(daf.data(), dar.data());
        assert_eq!(dbf.data(), dbr.data());
    }

    #[test]
    fn grad_transpose_last2() {
        let a = Tensor::randn(&[2, 3, 4], 1.0, &mut rng());
        check_gradients(&[a], |_g, vars| {
            let t = vars[0].transpose_last2();
            t.mul(t).sum_all()
        });
    }

    #[test]
    fn grad_add_bias() {
        let x = Tensor::randn(&[2, 3, 4], 1.0, &mut rng());
        let b = Tensor::randn(&[4], 1.0, &mut rng());
        check_gradients(&[x, b], |_g, vars| {
            let y = vars[0].add_bias(vars[1]);
            y.mul(y).sum_all()
        });
    }

    #[test]
    fn grad_scale_by() {
        let x = Tensor::randn(&[5], 1.0, &mut rng());
        let s = Tensor::scalar(0.7);
        check_gradients(&[x, s], |_g, vars| {
            let y = vars[0].scale_by(vars[1]);
            y.mul(y).sum_all()
        });
    }

    #[test]
    fn grad_activations() {
        for act in ["relu", "sigmoid", "tanh", "gelu"] {
            let x = Tensor::randn(&[6], 1.0, &mut rng()).map(|v| v + 0.05); // keep away from relu kink
            check_gradients(&[x], |_g, vars| {
                let y = match act {
                    "relu" => vars[0].relu(),
                    "sigmoid" => vars[0].sigmoid(),
                    "tanh" => vars[0].tanh(),
                    _ => vars[0].gelu(),
                };
                y.mul(y).sum_all()
            });
        }
    }

    #[test]
    fn grad_matmul_rhs2d_matches_flat_matmul() {
        let g = Graph::new();
        let x = g.var(Tensor::randn(&[2, 3, 4], 1.0, &mut rng()), true);
        let w = g.var(Tensor::randn(&[4, 5], 1.0, &mut rng()), true);
        let y = x.matmul_rhs2d(w);
        assert_eq!(y.shape(), vec![2, 3, 5]);
        let flat = x.reshape(&[6, 4]).matmul(w);
        assert_eq!(y.value().data(), flat.value().data());
    }

    #[test]
    fn affine_matches_matmul_plus_bias_bitwise() {
        // Values and gradients of the fused op must equal the historical
        // reshape → matmul → add_bias chain exactly.
        let mut r = rng();
        let x = Tensor::randn(&[2, 3, 4], 1.0, &mut r);
        let w = Tensor::randn(&[4, 5], 1.0, &mut r);
        let b = Tensor::randn(&[5], 0.5, &mut r);

        let run = |fused: bool| {
            let g = Graph::new();
            let xv = g.var(x.clone(), true);
            let wv = g.var(w.clone(), true);
            let bv = g.var(b.clone(), true);
            let y = if fused {
                xv.affine(wv, Some(bv))
            } else {
                xv.reshape(&[6, 4]).matmul(wv).reshape(&[2, 3, 5]).add_bias(bv)
            };
            let loss = y.mul(y).sum_all();
            g.backward(loss);
            (y.value(), g.grad(xv).unwrap(), g.grad(wv).unwrap(), g.grad(bv).unwrap())
        };
        let (yf, dxf, dwf, dbf) = run(true);
        let (yr, dxr, dwr, dbr) = run(false);
        assert_eq!(yf.data(), yr.data());
        assert_eq!(dxf.data(), dxr.data());
        assert_eq!(dwf.data(), dwr.data());
        assert_eq!(dbf.data(), dbr.data());
    }

    #[test]
    fn affine_gradcheck() {
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng());
        let w = Tensor::randn(&[4, 2], 1.0, &mut rng());
        let b = Tensor::randn(&[2], 1.0, &mut rng());
        check_gradients(&[x, w, b], |_g, vars| {
            let y = vars[0].affine(vars[1], Some(vars[2]));
            y.mul(y).sum_all()
        });
    }

    #[test]
    fn sum_and_mean_grads() {
        let x = Tensor::randn(&[3, 3], 1.0, &mut rng());
        check_gradients(std::slice::from_ref(&x), |_g, vars| vars[0].mul(vars[0]).sum_all());
        check_gradients(&[x], |_g, vars| vars[0].mul(vars[0]).mean_all());
    }

    #[test]
    fn matmul_backward_survives_graph_reset() {
        // The same matmul forward/backward, re-run after reset, must draw
        // pooled buffers and still produce bitwise-identical gradients.
        let g = Graph::new();
        let run = |g: &Graph| {
            let a = g.var(Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.37).sin()), true);
            let b = g.var(Tensor::from_fn(&[4, 5], |i| (i as f32 * 0.11).cos()), true);
            let y = a.matmul(b);
            let loss = y.mul(y).sum_all();
            g.backward(loss);
            (g.grad(a).unwrap(), g.grad(b).unwrap())
        };
        let (da1, db1) = run(&g);
        g.reset();
        let (da2, db2) = run(&g);
        assert_eq!(da1.data(), da2.data());
        assert_eq!(db1.data(), db2.data());
    }

    #[test]
    fn bmm_nt_on_split_head_views_matches_copying_path_bitwise() {
        // Attention scores read through head-split layouts must equal the
        // split-copy path exactly, values and input gradients.
        let mut r = rng();
        let (b, t, d, h) = (2usize, 3usize, 8usize, 4usize);
        let q0 = Tensor::randn(&[b, t, d], 1.0, &mut r);
        let k0 = Tensor::randn(&[b, t, d], 1.0, &mut r);
        let run = |layouts: bool| {
            let g = Graph::new();
            let qv = g.var(q0.clone(), true);
            let kv = g.var(k0.clone(), true);
            let s = if layouts {
                qv.bmm_nt(kv, h)
            } else {
                qv.split_heads(h).bmm_nt(kv.split_heads(h), 1)
            };
            let loss = s.mul(s).sum_all();
            g.backward(loss);
            (s.value(), g.grad(qv).unwrap(), g.grad(kv).unwrap())
        };
        let (sv, dqv, dkv) = run(true);
        let (sc, dqc, dkc) = run(false);
        assert_eq!(sv.shape(), &[b * h, t, t]);
        assert_eq!(sv.data(), sc.data());
        assert_eq!(dqv.data(), dqc.data());
        assert_eq!(dkv.data(), dkc.data());
    }

    #[test]
    fn attn_bmm_merge_matches_bmm_then_merge_heads_bitwise() {
        // The fused context op (attn · V written straight into merged-head
        // layout) must equal split_heads → bmm → merge_heads exactly, with
        // V read through the head-split layout in the fused path.
        let mut r = rng();
        let (b, t, d, h) = (2usize, 4usize, 6usize, 3usize);
        let attn0 = Tensor::randn(&[b * h, t, t], 1.0, &mut r);
        let x0 = Tensor::randn(&[b, t, d], 1.0, &mut r);
        let run = |fused: bool| {
            let g = Graph::new();
            let av = g.var(attn0.clone(), true);
            let xv = g.var(x0.clone(), true);
            let y = if fused {
                av.attn_bmm_merge(xv, h)
            } else {
                av.bmm(xv.split_heads(h)).merge_heads(h)
            };
            let loss = y.mul(y).sum_all();
            g.backward(loss);
            (y.value(), g.grad(av).unwrap(), g.grad(xv).unwrap())
        };
        let (yf, daf, dxf) = run(true);
        let (yr, dar, dxr) = run(false);
        assert_eq!(yf.shape(), &[b, t, d]);
        assert_eq!(yf.data(), yr.data());
        assert_eq!(daf.data(), dar.data());
        assert_eq!(dxf.data(), dxr.data());
    }

    #[test]
    fn view_attention_replays_bitwise_after_reset() {
        // A full head-split attention core (NT scores → softmax → fused
        // context, every operand read through layouts) replayed after
        // reset must reuse the tape (no node growth) and reproduce
        // identical bits.
        let g = Graph::new();
        let run = |g: &Graph| {
            let (b, t, d, h) = (2usize, 3usize, 8usize, 2usize);
            let x = g.var(Tensor::from_fn(&[b, t, d], |i| (i as f32 * 0.23).sin()), true);
            let s = x.bmm_nt(x, h).mul_scalar(0.5).softmax_last();
            let y = s.attn_bmm_merge(x, h);
            let loss = y.mul(y).sum_all();
            g.backward(loss);
            (loss.item(), g.grad(x).unwrap())
        };
        let (l1, dx1) = run(&g);
        let nodes = g.num_nodes();
        g.reset();
        let (l2, dx2) = run(&g);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(dx1.data(), dx2.data());
        assert_eq!(g.num_nodes(), nodes, "replay must not grow the tape");
    }
}
