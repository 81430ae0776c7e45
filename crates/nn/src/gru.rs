//! Gated recurrent unit (GRU) cell and sequence wrapper — the backbone of
//! the GRU4Rec baseline.
//!
//! Besides the autograd path ([`GruCell::step`] / [`Gru::forward_seq`]),
//! the cell has a tape-free inference path: [`GruCell::infer_weights`]
//! packs the three input-side gate matrices into one fused `[D, 3H]`
//! matmul operand (and the two hidden-side matrices into `[H, 2H]`), and
//! [`Gru::infer_last`] runs the recurrence with reused scratch buffers —
//! one big fused matmul for every `x`-side gate of every timestep, two
//! small matmuls per step for the hidden side, zero tape nodes.  Outputs
//! are bitwise equal to the graph path (see the equivalence contract in
//! [`crate::infer`]).

use irs_tensor::{matmul_into, Tensor, Var};

use crate::linear::Linear;
use crate::params::{FwdCtx, ParamStore};

/// A single GRU cell.
///
/// Update equations (Cho et al., 2014):
/// ```text
/// z = σ(x·Wz + h·Uz + bz)
/// r = σ(x·Wr + h·Ur + br)
/// h̃ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
/// h' = (1 − z) ⊙ h + z ⊙ h̃
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: Linear,
    uz: Linear,
    wr: Linear,
    ur: Linear,
    wh: Linear,
    uh: Linear,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Register a cell mapping `input_dim` inputs to `hidden_dim` state.
    pub fn new<R: rand::Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        GruCell {
            wz: Linear::new(store, &format!("{name}.wz"), input_dim, hidden_dim, true, rng),
            uz: Linear::new(store, &format!("{name}.uz"), hidden_dim, hidden_dim, false, rng),
            wr: Linear::new(store, &format!("{name}.wr"), input_dim, hidden_dim, true, rng),
            ur: Linear::new(store, &format!("{name}.ur"), hidden_dim, hidden_dim, false, rng),
            wh: Linear::new(store, &format!("{name}.wh"), input_dim, hidden_dim, true, rng),
            uh: Linear::new(store, &format!("{name}.uh"), hidden_dim, hidden_dim, false, rng),
            input_dim,
            hidden_dim,
        }
    }

    /// Hidden-state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// One step: `x [B, input_dim]`, `h [B, hidden_dim]` -> new hidden.
    pub fn step<'g>(&self, ctx: &FwdCtx<'g, '_>, x: Var<'g>, h: Var<'g>) -> Var<'g> {
        let z = self.wz.forward2d(ctx, x).add(self.uz.forward2d(ctx, h)).sigmoid();
        let r = self.wr.forward2d(ctx, x).add(self.ur.forward2d(ctx, h)).sigmoid();
        let h_cand = self.wh.forward2d(ctx, x).add(self.uh.forward2d(ctx, r.mul(h))).tanh();
        // h' = (1-z)⊙h + z⊙h̃  =  h + z⊙(h̃ − h)
        h.add(z.mul(h_cand.sub(h)))
    }

    /// Pack the input-side gate weights `[Wz | Wr | Wh]` into one fused
    /// `[D, 3H]` matmul operand (with the matching `[3H]` bias row) and
    /// the hidden-side `[Uz | Ur]` into `[H, 2H]`.  Column-concatenation
    /// leaves every output element's dot product untouched, so the fused
    /// matmuls are bitwise equal to three (resp. two) separate ones.
    pub fn infer_weights(&self, store: &ParamStore) -> GruInferWeights {
        let (d, hd) = (self.input_dim, self.hidden_dim);
        let wz = store.value(self.wz.weight_id());
        let wr = store.value(self.wr.weight_id());
        let wh = store.value(self.wh.weight_id());
        let mut w_all = vec![0.0f32; d * 3 * hd];
        for p in 0..d {
            w_all[p * 3 * hd..p * 3 * hd + hd].copy_from_slice(&wz.data()[p * hd..(p + 1) * hd]);
            w_all[p * 3 * hd + hd..p * 3 * hd + 2 * hd]
                .copy_from_slice(&wr.data()[p * hd..(p + 1) * hd]);
            w_all[p * 3 * hd + 2 * hd..(p + 1) * 3 * hd]
                .copy_from_slice(&wh.data()[p * hd..(p + 1) * hd]);
        }
        let mut b_all = vec![0.0f32; 3 * hd];
        for (slot, lin) in [&self.wz, &self.wr, &self.wh].into_iter().enumerate() {
            let bias = store.value(lin.bias_id().expect("gate projections carry biases"));
            b_all[slot * hd..(slot + 1) * hd].copy_from_slice(bias.data());
        }
        let uz = store.value(self.uz.weight_id());
        let ur = store.value(self.ur.weight_id());
        let mut u_zr = vec![0.0f32; hd * 2 * hd];
        for p in 0..hd {
            u_zr[p * 2 * hd..p * 2 * hd + hd].copy_from_slice(&uz.data()[p * hd..(p + 1) * hd]);
            u_zr[p * 2 * hd + hd..(p + 1) * 2 * hd]
                .copy_from_slice(&ur.data()[p * hd..(p + 1) * hd]);
        }
        GruInferWeights {
            w_all: Tensor::from_vec(w_all, &[d, 3 * hd]),
            b_all,
            u_zr: Tensor::from_vec(u_zr, &[hd, 2 * hd]),
        }
    }

    /// Scratch buffers for [`GruCell::infer_step_in_place`], sized for a
    /// batch of `b` rows and reused across every timestep.
    pub fn infer_scratch(&self, b: usize) -> GruInferScratch {
        let hd = self.hidden_dim;
        GruInferScratch {
            gates_h: vec![0.0; b * 2 * hd],
            z: vec![0.0; b * hd],
            rh: vec![0.0; b * hd],
            uh_out: vec![0.0; b * hd],
        }
    }

    /// One tape-free step: consume this timestep's precomputed input-side
    /// gate pre-activations `gx_t` (`[B, 3H]`: columns `[z|r|h̃]`, biases
    /// already added) and update `h` (`[B, H]`) in place.
    ///
    /// Identical arithmetic in identical order as [`GruCell::step`]:
    /// `z = σ(gxᶻ + h·Uz)`, `r = σ(gxʳ + h·Ur)`,
    /// `h̃ = tanh(gxʰ + (r⊙h)·Uh)`, `h ← h + z⊙(h̃ − h)`.
    pub fn infer_step_in_place(
        &self,
        store: &ParamStore,
        iw: &GruInferWeights,
        gx_t: &[f32],
        h: &mut [f32],
        scratch: &mut GruInferScratch,
    ) {
        let hd = self.hidden_dim;
        let b = h.len() / hd;
        debug_assert_eq!(h.len(), b * hd);
        debug_assert_eq!(gx_t.len(), b * 3 * hd);
        scratch.gates_h.iter_mut().for_each(|v| *v = 0.0);
        matmul_into(h, iw.u_zr.data(), &mut scratch.gates_h, b, hd, 2 * hd);
        for bi in 0..b {
            let gx = &gx_t[bi * 3 * hd..bi * 3 * hd + 2 * hd];
            let gh = &scratch.gates_h[bi * 2 * hd..(bi + 1) * 2 * hd];
            let hrow = &h[bi * hd..(bi + 1) * hd];
            let zrow = &mut scratch.z[bi * hd..(bi + 1) * hd];
            let rhrow = &mut scratch.rh[bi * hd..(bi + 1) * hd];
            for j in 0..hd {
                zrow[j] = sigmoid(gx[j] + gh[j]);
                rhrow[j] = sigmoid(gx[hd + j] + gh[hd + j]) * hrow[j];
            }
        }
        scratch.uh_out.iter_mut().for_each(|v| *v = 0.0);
        let u_h = store.value(self.uh.weight_id());
        matmul_into(&scratch.rh, u_h.data(), &mut scratch.uh_out, b, hd, hd);
        // Zipped rows, so the loop runs `tanh` in SIMD lanes.
        let rows = h.chunks_exact_mut(hd).zip(gx_t.chunks_exact(3 * hd));
        for (bi, (hrow, gx)) in rows.enumerate() {
            let zrow = &scratch.z[bi * hd..(bi + 1) * hd];
            let urow = &scratch.uh_out[bi * hd..(bi + 1) * hd];
            for (((hv, &g), &u), &z) in hrow.iter_mut().zip(&gx[2 * hd..]).zip(urow).zip(zrow) {
                let h_cand = irs_tensor::tanh(g + u);
                *hv += z * (h_cand - *hv);
            }
        }
    }
}

/// Logistic sigmoid with the identical expression the graph op uses
/// (`Var::sigmoid`), so infer and graph paths agree bitwise.
#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Fused tape-free GRU gate weights — see [`GruCell::infer_weights`].
pub struct GruInferWeights {
    /// `[D, 3H]`: columns `[Wz | Wr | Wh]`.
    w_all: Tensor,
    /// `[3H]`: `[bz | br | bh]`.
    b_all: Vec<f32>,
    /// `[H, 2H]`: columns `[Uz | Ur]`.
    u_zr: Tensor,
}

/// Reusable per-batch scratch for the tape-free GRU recurrence — see
/// [`GruCell::infer_scratch`].
pub struct GruInferScratch {
    gates_h: Vec<f32>,
    z: Vec<f32>,
    rh: Vec<f32>,
    uh_out: Vec<f32>,
}

/// A GRU unrolled over a sequence.
#[derive(Debug, Clone)]
pub struct Gru {
    cell: GruCell,
}

impl Gru {
    /// Register a GRU layer.
    pub fn new<R: rand::Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        Gru { cell: GruCell::new(store, name, input_dim, hidden_dim, rng) }
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.cell.hidden_dim()
    }

    /// Run over `x: [B, T, D]` from a zero initial state, returning all
    /// hidden states `[B, T, H]`.
    pub fn forward_seq<'g>(&self, ctx: &FwdCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "gru expects 3-D input, got {shape:?}");
        let (b, t, _d) = (shape[0], shape[1], shape[2]);
        assert!(t > 0, "gru over empty sequence");
        let mut h = ctx.graph.constant(ctx.graph.alloc_zeroed(&[b, self.cell.hidden_dim()]));
        let mut steps = Vec::with_capacity(t);
        for ti in 0..t {
            let xt = x.select_step(ti);
            h = self.cell.step(ctx, xt, h);
            steps.push(h);
        }
        Var::stack_axis1(&steps)
    }

    /// Run over `x: [B, T, D]` and return only the final hidden state
    /// `[B, H]`.
    pub fn forward_last<'g>(&self, ctx: &FwdCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let shape = x.shape();
        let t = shape[1];
        self.forward_seq(ctx, x).select_step(t - 1)
    }

    /// Tape-free batched inference over `x: [B, T, D]`: returns each row's
    /// hidden state at its own last real timestep `lens[r] − 1`, `[B, H]`.
    ///
    /// The input-side gate pre-activations of *every* timestep are
    /// produced by one fused `[T·B, D] @ [D, 3H]` matmul up front (one
    /// kernel invocation and one weight pack instead of `3·T`); the
    /// recurrence then runs with two small matmuls per step into scratch
    /// buffers reused across steps.  Row `r`'s result is
    /// bitwise equal to `forward_seq` read at step `lens[r] − 1`, and — as
    /// a GRU state only depends on steps `≤ t` — to running row `r` alone
    /// truncated to `lens[r]` (the scalar graph path).
    pub fn infer_last(&self, store: &ParamStore, x: &Tensor, lens: &[usize]) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "gru expects 3-D input, got {shape:?}");
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        assert!(t > 0, "gru over empty sequence");
        assert_eq!(lens.len(), b, "one length per batch row");
        assert!(lens.iter().all(|&l| l >= 1 && l <= t), "lens must be in 1..=T");
        let hd = self.cell.hidden_dim();
        let iw = self.cell.infer_weights(store);

        // Step-major copy of the input ([T, B, D]) so each timestep's gate
        // block is one contiguous slice of the fused matmul output.
        let mut x_steps = vec![0.0f32; t * b * d];
        for bi in 0..b {
            for ti in 0..t {
                x_steps[(ti * b + bi) * d..(ti * b + bi) * d + d]
                    .copy_from_slice(&x.data()[(bi * t + ti) * d..(bi * t + ti) * d + d]);
            }
        }
        let mut gx = vec![0.0f32; t * b * 3 * hd];
        matmul_into(&x_steps, iw.w_all.data(), &mut gx, t * b, d, 3 * hd);
        for row in gx.chunks_mut(3 * hd) {
            for (o, &bb) in row.iter_mut().zip(&iw.b_all) {
                *o += bb;
            }
        }

        let mut h = vec![0.0f32; b * hd];
        let mut out = vec![0.0f32; b * hd];
        let mut scratch = self.cell.infer_scratch(b);
        for ti in 0..t {
            let gx_t = &gx[ti * b * 3 * hd..(ti + 1) * b * 3 * hd];
            self.cell.infer_step_in_place(store, &iw, gx_t, &mut h, &mut scratch);
            for (r, &len) in lens.iter().enumerate() {
                if len == ti + 1 {
                    out[r * hd..(r + 1) * hd].copy_from_slice(&h[r * hd..(r + 1) * hd]);
                }
            }
        }
        Tensor::from_vec(out, &[b, hd])
    }

    /// A fresh per-session streaming state (zero hidden vector, packed
    /// weights, reusable scratch) for [`Gru::stream_step`].
    pub fn stream_state(&self, store: &ParamStore) -> GruStreamState {
        GruStreamState {
            iw: self.cell.infer_weights(store),
            h: vec![0.0; self.cell.hidden_dim()],
            scratch: self.cell.infer_scratch(1),
            gx: vec![0.0; 3 * self.cell.hidden_dim()],
        }
    }

    /// Advance the carried hidden state by one timestep (`x_row: [D]`,
    /// batch of one).  Bitwise equal to the matching step of
    /// [`Gru::infer_last`]: the fused `[T·B, D] @ [D, 3H]` matmul there
    /// computes each row's gate pre-activations independently with the
    /// same `k`-ascending accumulation as this single-row matmul, the
    /// per-row bias add is the same loop, and the recurrence shares
    /// [`GruCell::infer_step_in_place`].
    pub fn stream_step(&self, store: &ParamStore, state: &mut GruStreamState, x_row: &[f32]) {
        let d = self.cell.input_dim();
        let hd = self.cell.hidden_dim();
        assert_eq!(x_row.len(), d, "input row width mismatch");
        state.gx.iter_mut().for_each(|v| *v = 0.0);
        matmul_into(x_row, state.iw.w_all.data(), &mut state.gx, 1, d, 3 * hd);
        for (o, &bb) in state.gx.iter_mut().zip(&state.iw.b_all) {
            *o += bb;
        }
        self.cell.infer_step_in_place(
            store,
            &state.iw,
            &state.gx,
            &mut state.h,
            &mut state.scratch,
        );
    }
}

/// Carried per-session GRU state for incremental serving: the hidden
/// vector plus everything needed to step it without touching the
/// allocator (packed gate weights, scratch, a one-row gate buffer).
pub struct GruStreamState {
    iw: GruInferWeights,
    h: Vec<f32>,
    scratch: GruInferScratch,
    gx: Vec<f32>,
}

impl GruStreamState {
    /// Reset the hidden state to zero (a fresh session) while keeping the
    /// packed weights and scratch.
    pub fn reset(&mut self) {
        self.h.iter_mut().for_each(|v| *v = 0.0);
    }

    /// The carried hidden state `[H]`.
    pub fn hidden(&self) -> &[f32] {
        &self.h
    }

    /// Heap bytes held by this state, packed weights included (each
    /// stream state owns its own copy of the fused gate weights).
    pub fn resident_bytes(&self) -> usize {
        (self.iw.w_all.data().len()
            + self.iw.b_all.len()
            + self.iw.u_zr.data().len()
            + self.h.len()
            + self.gx.len()
            + self.scratch.gates_h.len()
            + self.scratch.z.len()
            + self.scratch.rh.len()
            + self.scratch.uh_out.len())
            * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Optimizer};
    use irs_tensor::Graph;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(61)
    }

    #[test]
    fn gru_shapes() {
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 3, 5, &mut rng());
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let x = g.constant(Tensor::randn(&[2, 4, 3], 1.0, &mut rng()));
        assert_eq!(gru.forward_seq(&ctx, x).shape(), vec![2, 4, 5]);
        assert_eq!(gru.forward_last(&ctx, x).shape(), vec![2, 5]);
    }

    #[test]
    fn gru_state_stays_bounded() {
        // tanh/sigmoid gating keeps hidden values in (-1, 1).
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 2, 4, &mut rng());
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let x = g.constant(Tensor::randn(&[1, 32, 2], 5.0, &mut rng()));
        let h = gru.forward_last(&ctx, x).value();
        assert!(h.data().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn infer_last_is_bitwise_equal_to_graph_forward() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 3, 5, &mut r);
        let x = Tensor::randn(&[4, 6, 3], 1.0, &mut r);
        let lens = [6usize, 1, 3, 5];

        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let states = gru.forward_seq(&ctx, g.constant(x.clone())).value();
        let fast = gru.infer_last(&store, &x, &lens);
        for (r, &len) in lens.iter().enumerate() {
            for j in 0..5 {
                let want = states.at(&[r, len - 1, j]);
                let got = fast.at(&[r, j]);
                assert_eq!(want.to_bits(), got.to_bits(), "row {r} dim {j}: {want} vs {got}");
            }
        }
    }

    #[test]
    fn stream_step_is_bitwise_equal_to_infer_last() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 3, 5, &mut r);
        let x = Tensor::randn(&[1, 6, 3], 1.0, &mut r);
        let mut state = gru.stream_state(&store);
        for t in 1..=6usize {
            state.reset();
            for ti in 0..t {
                gru.stream_step(&store, &mut state, &x.data()[ti * 3..(ti + 1) * 3]);
            }
            let want = gru.infer_last(&store, &x, &[t]);
            for (j, (&w, &g)) in want.data().iter().zip(state.hidden()).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "t={t} dim {j}: {w} vs {g}");
            }
        }
        assert!(state.resident_bytes() > 0);
    }

    #[test]
    fn gru_learns_to_remember_first_input() {
        // Task: output the sign of the first timestep's first feature.
        // A GRU must carry information across time to solve it.
        let mut r = rng();
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 1, 8, &mut r);
        let head = Linear::new(&mut store, "head", 8, 1, true, &mut r);
        let mut opt = Adam::new(2e-2);

        let b = 16;
        let t = 6;
        let make_batch = |r: &mut rand::rngs::StdRng| {
            let mut xs = Tensor::randn(&[b, t, 1], 0.2, r);
            let mut ys = Vec::with_capacity(b);
            for bi in 0..b {
                let sign = if r.random::<bool>() { 1.0 } else { -1.0 };
                *xs.at_mut(&[bi, 0, 0]) = sign;
                ys.push(sign);
            }
            (xs, Tensor::from_vec(ys, &[b, 1]))
        };

        let mut last = f32::INFINITY;
        for step in 0..250 {
            let (xs, ys) = make_batch(&mut r);
            let g = Graph::new();
            let ctx = FwdCtx::new(&g, &store, true, step);
            let x = g.constant(xs);
            let y = g.constant(ys);
            let hidden = gru.forward_last(&ctx, x);
            let pred = head.forward2d(&ctx, hidden).tanh();
            let diff = pred.sub(y);
            let loss = diff.mul(diff).mean_all();
            last = loss.item();
            store.zero_grad();
            ctx.backprop(loss);
            drop(ctx);
            opt.step(&mut store);
        }
        assert!(last < 0.1, "GRU failed to learn long-range signal: {last}");
    }
}
