//! Differentiable shape-manipulation operations: reshape, gather, concat,
//! stacking, step selection, window unfolding and attention head splitting.
//!
//! Outputs draw from the graph's buffer pool; each op fully overwrites its
//! buffer (or requests it zeroed where it accumulates), and backward
//! closures scatter upstream gradients in place without cloning them.

use crate::graph::Var;

impl<'g> Var<'g> {
    /// Reshape (element count must be preserved).  The forward pass is
    /// zero-copy: the output tensor shares the parent's storage via
    /// [`crate::Tensor::reshaped`].  The node keeps its own gradient slot
    /// and op record, so graphs with several consumers of the parent
    /// preserve the established gradient accumulation order bit-for-bit.
    pub fn reshape(self, shape: &[usize]) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            let numel: usize = shape.iter().product();
            assert_eq!(
                numel,
                a.len(),
                "reshape from {:?} to {shape:?} changes element count",
                a.shape()
            );
            a.reshaped(shape)
        });
        self.graph.push_op(&[self], v, |ctx| {
            ctx.accumulate_grad_out_flat(0);
        })
    }

    /// Embedding lookup: treats `self` as a 2-D table `[rows, d]` and
    /// gathers `indices` into an `[indices.len(), d]` output.  The backward
    /// pass scatter-adds gradients into the gathered rows.
    pub fn gather_rows(self, indices: &[usize]) -> Var<'g> {
        let v = self.graph.with_value(self, |a| {
            assert_eq!(a.ndim(), 2, "gather_rows needs 2-D, got {:?}", a.shape());
            let (rows, d) = (a.shape()[0], a.shape()[1]);
            let mut out = self.graph.alloc_out(&[indices.len(), d]);
            for (n, &i) in indices.iter().enumerate() {
                assert!(i < rows, "gather_rows index {i} out of bounds ({rows} rows)");
                out.data_mut()[n * d..(n + 1) * d].copy_from_slice(&a.data()[i * d..(i + 1) * d]);
            }
            out
        });
        // The gathered rows change every minibatch, so they ride as an index
        // payload (refreshed in place on replay) instead of a closure capture.
        self.graph.push_op_indexed(&[self], v, indices, |ctx| {
            let d = ctx.value(0).shape()[1];
            let idx = ctx.payload_idx();
            let go = ctx.grad_out();
            let dw = ctx.grad_mut(0);
            for (n, &row) in idx.iter().enumerate() {
                let src = &go.data()[n * d..(n + 1) * d];
                let dst = &mut dw.data_mut()[row * d..(row + 1) * d];
                for (o, &g) in dst.iter_mut().zip(src) {
                    *o += g;
                }
            }
        })
    }

    /// Concatenate along the last axis.  All inputs must agree on the
    /// leading axes.
    pub fn concat_last(parts: &[Var<'g>]) -> Var<'g> {
        assert!(!parts.is_empty(), "concat_last of zero tensors");
        let graph = parts[0].graph;
        let shapes: Vec<Vec<usize>> = parts.iter().map(|p| p.shape()).collect();
        let lead = &shapes[0][..shapes[0].len() - 1];
        for s in &shapes {
            assert_eq!(&s[..s.len() - 1], lead, "concat_last leading axes differ: {shapes:?}");
        }
        let widths: Vec<usize> = shapes.iter().map(|s| *s.last().unwrap()).collect();
        let total_w: usize = widths.iter().sum();
        let rows: usize = lead.iter().product();
        let mut out_shape = lead.to_vec();
        out_shape.push(total_w);

        let mut out = graph.alloc_out(&out_shape);
        for r in 0..rows {
            let mut off = 0;
            for (p, &w) in parts.iter().zip(&widths) {
                p.graph.with_value(*p, |t| {
                    out.data_mut()[r * total_w + off..r * total_w + off + w]
                        .copy_from_slice(&t.data()[r * w..(r + 1) * w]);
                });
                off += w;
            }
        }
        let widths_c = widths.clone();
        graph.push_op(parts, out, move |ctx| {
            let go = ctx.grad_out();
            let total_w: usize = widths_c.iter().sum();
            let rows = go.len() / total_w;
            for r in 0..rows {
                let mut off = 0;
                for (i, &w) in widths_c.iter().enumerate() {
                    let src = &go.data()[r * total_w + off..r * total_w + off + w];
                    let dst = ctx.grad_mut(i);
                    for (o, &g) in dst.data_mut()[r * w..(r + 1) * w].iter_mut().zip(src) {
                        *o += g;
                    }
                    off += w;
                }
            }
        })
    }

    /// Stack `T` tensors of shape `[B, D]` into `[B, T, D]`.
    ///
    /// Used to assemble per-timestep RNN hidden states into a sequence
    /// tensor for batched output projection.
    pub fn stack_axis1(steps: &[Var<'g>]) -> Var<'g> {
        assert!(!steps.is_empty(), "stack_axis1 of zero tensors");
        let graph = steps[0].graph;
        let first = steps[0].shape();
        assert_eq!(first.len(), 2, "stack_axis1 expects 2-D inputs, got {first:?}");
        let (b, d) = (first[0], first[1]);
        for s in steps {
            assert_eq!(s.shape(), vec![b, d], "stack_axis1 inputs must share shape");
        }
        let t = steps.len();
        let mut out = graph.alloc_out(&[b, t, d]);
        for (k, s) in steps.iter().enumerate() {
            s.graph.with_value(*s, |v| {
                for bi in 0..b {
                    out.data_mut()[bi * t * d + k * d..bi * t * d + (k + 1) * d]
                        .copy_from_slice(&v.data()[bi * d..(bi + 1) * d]);
                }
            });
        }
        graph.push_op(steps, out, move |ctx| {
            let go = ctx.grad_out();
            for k in 0..t {
                let dst = ctx.grad_mut(k);
                for bi in 0..b {
                    let src = &go.data()[bi * t * d + k * d..bi * t * d + (k + 1) * d];
                    for (o, &g) in dst.data_mut()[bi * d..(bi + 1) * d].iter_mut().zip(src) {
                        *o += g;
                    }
                }
            }
        })
    }

    /// Select timestep `t` from a `[B, T, D]` tensor, producing `[B, D]`.
    pub fn select_step(self, t: usize) -> Var<'g> {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "select_step expects 3-D input, got {shape:?}");
        let (b, tt, d) = (shape[0], shape[1], shape[2]);
        assert!(t < tt, "select_step index {t} out of bounds for T={tt}");
        let v = self.graph.with_value(self, |x| {
            let mut out = self.graph.alloc_out(&[b, d]);
            for bi in 0..b {
                out.data_mut()[bi * d..(bi + 1) * d]
                    .copy_from_slice(&x.data()[bi * tt * d + t * d..bi * tt * d + (t + 1) * d]);
            }
            out
        });
        self.graph.push_op(&[self], v, move |ctx| {
            let go = ctx.grad_out();
            let dx = ctx.grad_mut(0);
            for bi in 0..b {
                let src = &go.data()[bi * d..(bi + 1) * d];
                let dst = &mut dx.data_mut()[bi * tt * d + t * d..bi * tt * d + (t + 1) * d];
                for (o, &g) in dst.iter_mut().zip(src) {
                    *o += g;
                }
            }
        })
    }

    /// Unfold sliding windows of width `w` along the time axis:
    /// `[B, T, D] -> [B, T-w+1, w*D]`.
    ///
    /// This is the im2col step used by Caser's horizontal convolutions: a
    /// convolution of height `w` becomes a matmul of the unfolded tensor
    /// with a `[w*D, filters]` weight matrix.
    pub fn unfold_windows(self, w: usize) -> Var<'g> {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "unfold_windows expects 3-D input, got {shape:?}");
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        assert!(w >= 1 && w <= t, "window width {w} out of range for T={t}");
        let windows = t - w + 1;
        let v = self.graph.with_value(self, |x| {
            let mut out = self.graph.alloc_out(&[b, windows, w * d]);
            for bi in 0..b {
                for s in 0..windows {
                    let dst_base = bi * windows * w * d + s * w * d;
                    let src_base = bi * t * d + s * d;
                    out.data_mut()[dst_base..dst_base + w * d]
                        .copy_from_slice(&x.data()[src_base..src_base + w * d]);
                }
            }
            out
        });
        self.graph.push_op(&[self], v, move |ctx| {
            let go = ctx.grad_out();
            let dx = ctx.grad_mut(0);
            for bi in 0..b {
                for s in 0..windows {
                    let src_base = bi * windows * w * d + s * w * d;
                    let dst_base = bi * t * d + s * d;
                    for k in 0..w * d {
                        dx.data_mut()[dst_base + k] += go.data()[src_base + k];
                    }
                }
            }
        })
    }

    /// Max over axis 1 of a `[B, N, F]` tensor -> `[B, F]`, with argmax
    /// routing in the backward pass (max-pooling).
    pub fn max_axis1(self) -> Var<'g> {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "max_axis1 expects 3-D input, got {shape:?}");
        let (b, n, f) = (shape[0], shape[1], shape[2]);
        assert!(n > 0, "max_axis1 over empty axis");
        let mut argmax = vec![0usize; b * f];
        let v = self.graph.with_value(self, |x| {
            let mut out = self.graph.alloc_out(&[b, f]);
            out.data_mut().fill(f32::NEG_INFINITY);
            for bi in 0..b {
                for ni in 0..n {
                    for fi in 0..f {
                        let val = x.data()[bi * n * f + ni * f + fi];
                        if val > out.data()[bi * f + fi] {
                            out.data_mut()[bi * f + fi] = val;
                            argmax[bi * f + fi] = ni;
                        }
                    }
                }
            }
            out
        });
        // Argmax routing is data-dependent, so it travels as an index payload
        // that replay refreshes each step.
        self.graph.push_op_indexed(&[self], v, &argmax, |ctx| {
            let shape = ctx.value(0).shape();
            let (b, n, f) = (shape[0], shape[1], shape[2]);
            let argmax = ctx.payload_idx();
            let go = ctx.grad_out();
            let dx = ctx.grad_mut(0);
            for bi in 0..b {
                for fi in 0..f {
                    let ni = argmax[bi * f + fi];
                    dx.data_mut()[bi * n * f + ni * f + fi] += go.data()[bi * f + fi];
                }
            }
        })
    }

    /// Mean over axis 1 of a `[B, N, F]` tensor -> `[B, F]`.
    pub fn mean_axis1(self) -> Var<'g> {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "mean_axis1 expects 3-D input, got {shape:?}");
        let (b, n, f) = (shape[0], shape[1], shape[2]);
        assert!(n > 0, "mean_axis1 over empty axis");
        let inv = 1.0 / n as f32;
        let v = self.graph.with_value(self, |x| {
            let mut out = self.graph.alloc_zeroed(&[b, f]);
            for bi in 0..b {
                for ni in 0..n {
                    for fi in 0..f {
                        out.data_mut()[bi * f + fi] += x.data()[bi * n * f + ni * f + fi] * inv;
                    }
                }
            }
            out
        });
        self.graph.push_op(&[self], v, move |ctx| {
            let go = ctx.grad_out();
            let dx = ctx.grad_mut(0);
            for bi in 0..b {
                for ni in 0..n {
                    for fi in 0..f {
                        dx.data_mut()[bi * n * f + ni * f + fi] += go.data()[bi * f + fi] * inv;
                    }
                }
            }
        })
    }

    /// Split the model dimension into attention heads by copy:
    /// `[B, T, D] -> [B*H, T, D/H]` with head-major batch layout.
    /// [`Var::bmm_nt`] and [`Var::attn_bmm_merge`] read the same heads in
    /// place through [`crate::BatchLayout::head_split`].
    pub fn split_heads(self, heads: usize) -> Var<'g> {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "split_heads expects 3-D input, got {shape:?}");
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        assert!(heads > 0 && d % heads == 0, "d={d} not divisible by heads={heads}");
        let dk = d / heads;
        let v = self.graph.with_value(self, |x| {
            let mut out = self.graph.alloc_out(&[b * heads, t, dk]);
            for bi in 0..b {
                for ti in 0..t {
                    for h in 0..heads {
                        let src = bi * t * d + ti * d + h * dk;
                        let dst = (bi * heads + h) * t * dk + ti * dk;
                        out.data_mut()[dst..dst + dk].copy_from_slice(&x.data()[src..src + dk]);
                    }
                }
            }
            out
        });
        self.graph.push_op(&[self], v, move |ctx| {
            let go = ctx.grad_out();
            let dx = ctx.grad_mut(0);
            for bi in 0..b {
                for ti in 0..t {
                    for h in 0..heads {
                        let dst = bi * t * d + ti * d + h * dk;
                        let src = (bi * heads + h) * t * dk + ti * dk;
                        for k in 0..dk {
                            dx.data_mut()[dst + k] += go.data()[src + k];
                        }
                    }
                }
            }
        })
    }

    /// Inverse of [`Var::split_heads`]: `[B*H, T, Dk] -> [B, T, H*Dk]`.
    pub fn merge_heads(self, heads: usize) -> Var<'g> {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "merge_heads expects 3-D input, got {shape:?}");
        let (bh, t, dk) = (shape[0], shape[1], shape[2]);
        assert!(heads > 0 && bh % heads == 0, "batch*heads={bh} not divisible by heads={heads}");
        let b = bh / heads;
        let d = heads * dk;
        let v = self.graph.with_value(self, |x| {
            let mut out = self.graph.alloc_out(&[b, t, d]);
            for bi in 0..b {
                for ti in 0..t {
                    for h in 0..heads {
                        let src = (bi * heads + h) * t * dk + ti * dk;
                        let dst = bi * t * d + ti * d + h * dk;
                        out.data_mut()[dst..dst + dk].copy_from_slice(&x.data()[src..src + dk]);
                    }
                }
            }
            out
        });
        self.graph.push_op(&[self], v, move |ctx| {
            let go = ctx.grad_out();
            let dx = ctx.grad_mut(0);
            for bi in 0..b {
                for ti in 0..t {
                    for h in 0..heads {
                        let dst = (bi * heads + h) * t * dk + ti * dk;
                        let src = bi * t * d + ti * d + h * dk;
                        for k in 0..dk {
                            dx.data_mut()[dst + k] += go.data()[src + k];
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check_gradients;
    use crate::graph::{Graph, Var};
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn reshape_grad_round_trips() {
        let x = Tensor::randn(&[2, 6], 1.0, &mut rng());
        check_gradients(&[x], |_g, vars| {
            let y = vars[0].reshape(&[3, 4]).reshape(&[12]);
            y.mul(y).sum_all()
        });
    }

    #[test]
    fn gather_rows_values_and_grad() {
        let g = Graph::new();
        let w = g.var(Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[4, 2]), true);
        let e = w.gather_rows(&[1, 1, 3]);
        assert_eq!(e.value().data(), &[2.0, 3.0, 2.0, 3.0, 6.0, 7.0]);
        let loss = e.sum_all();
        g.backward(loss);
        let dw = g.grad(w).unwrap();
        // Row 1 gathered twice => gradient 2, row 3 once => 1.
        assert_eq!(dw.data(), &[0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn gather_rows_gradcheck() {
        let w = Tensor::randn(&[5, 3], 1.0, &mut rng());
        check_gradients(&[w], |_g, vars| {
            let e = vars[0].gather_rows(&[0, 2, 2, 4]);
            e.mul(e).sum_all()
        });
    }

    #[test]
    fn concat_last_values() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]), true);
        let b = g.var(Tensor::from_vec(vec![5.0, 6.0], &[2, 1]), true);
        let c = Var::concat_last(&[a, b]);
        assert_eq!(c.shape(), vec![2, 3]);
        assert_eq!(c.value().data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn concat_last_gradcheck() {
        let a = Tensor::randn(&[2, 3], 1.0, &mut rng());
        let b = Tensor::randn(&[2, 2], 1.0, &mut rng());
        check_gradients(&[a, b], |_g, vars| {
            let c = Var::concat_last(&[vars[0], vars[1]]);
            c.mul(c).sum_all()
        });
    }

    #[test]
    fn stack_axis1_values_and_gradcheck() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]), true);
        let b = g.var(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]), true);
        let s = Var::stack_axis1(&[a, b]);
        assert_eq!(s.shape(), vec![2, 2, 2]);
        assert_eq!(s.value().data(), &[1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0]);

        let x = Tensor::randn(&[3, 4], 1.0, &mut rng());
        let y = Tensor::randn(&[3, 4], 1.0, &mut rng());
        check_gradients(&[x, y], |_g, vars| {
            let s = Var::stack_axis1(&[vars[0], vars[1], vars[0]]);
            s.mul(s).sum_all()
        });
    }

    #[test]
    fn select_step_inverts_stack() {
        let g = Graph::new();
        let x = g.var(Tensor::randn(&[2, 5, 3], 1.0, &mut rng()), true);
        let s2 = x.select_step(2);
        assert_eq!(s2.shape(), vec![2, 3]);
        let full = x.value();
        for bi in 0..2 {
            for k in 0..3 {
                assert_eq!(s2.value().at(&[bi, k]), full.at(&[bi, 2, k]));
            }
        }
    }

    #[test]
    fn select_step_gradcheck() {
        let x = Tensor::randn(&[2, 4, 3], 1.0, &mut rng());
        check_gradients(&[x], |_g, vars| {
            let s = vars[0].select_step(1);
            s.mul(s).sum_all()
        });
    }

    #[test]
    fn unfold_windows_shapes_and_values() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[1, 4, 3]), true);
        let u = x.unfold_windows(2);
        assert_eq!(u.shape(), vec![1, 3, 6]);
        // First window is rows 0..2 flattened.
        assert_eq!(&u.value().data()[..6], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn unfold_windows_gradcheck() {
        let x = Tensor::randn(&[2, 5, 2], 1.0, &mut rng());
        check_gradients(&[x], |_g, vars| {
            let u = vars[0].unfold_windows(3);
            u.mul(u).sum_all()
        });
    }

    #[test]
    fn max_axis1_values_and_grad_routing() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0, 0.0, 4.0], &[1, 3, 2]), true);
        let m = x.max_axis1();
        assert_eq!(m.value().data(), &[3.0, 5.0]);
        let loss = m.sum_all();
        g.backward(loss);
        let dx = g.grad(x).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_axis1_survives_stale_pooled_buffers() {
        // A reset graph hands max_axis1 a stale buffer; the op must
        // re-initialise it (NEG_INFINITY fill) before the max scan.
        let g = Graph::new();
        let run = |g: &Graph| {
            let x = g.var(Tensor::from_vec(vec![-3.0, -5.0, -4.0, -2.0], &[1, 2, 2]), true);
            x.max_axis1().value()
        };
        let first = run(&g);
        g.reset();
        let second = run(&g);
        assert_eq!(first.data(), &[-3.0, -2.0]);
        assert_eq!(first.data(), second.data());
    }

    #[test]
    fn mean_axis1_gradcheck() {
        let x = Tensor::randn(&[2, 4, 3], 1.0, &mut rng());
        check_gradients(&[x], |_g, vars| {
            let m = vars[0].mean_axis1();
            m.mul(m).sum_all()
        });
    }

    #[test]
    fn split_merge_heads_round_trip() {
        let g = Graph::new();
        let x = g.var(Tensor::randn(&[2, 3, 8], 1.0, &mut rng()), true);
        let split = x.split_heads(4);
        assert_eq!(split.shape(), vec![8, 3, 2]);
        let merged = split.merge_heads(4);
        assert_eq!(merged.value().data(), x.value().data());
    }

    #[test]
    fn split_heads_gradcheck() {
        let x = Tensor::randn(&[2, 3, 4], 1.0, &mut rng());
        check_gradients(&[x], |_g, vars| {
            let s = vars[0].split_heads(2);
            s.mul(s).sum_all()
        });
    }
}
