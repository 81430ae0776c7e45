//! Tape-based reverse-mode automatic differentiation with a
//! workspace-reusing arena.
//!
//! A [`Graph`] records every value produced during a forward pass together
//! with a backward closure per operation.  [`Var`] is a `Copy` handle
//! (graph reference + node id) used to compose operations; the actual op
//! implementations live in the sibling `ops`, `nnops` and `shapeops`
//! modules, all funnelling through [`Graph::push_op`].
//!
//! ## Buffer reuse across training steps
//!
//! Training runs the same step shape thousands of times, so instead of
//! dropping a graph per step the training loops call [`Graph::reset`]:
//! every node value and gradient buffer retires into a pool keyed by
//! element count, and the next step's ops draw their output buffers from
//! that pool via [`Graph::alloc_out`] / [`Graph::alloc_zeroed`] instead of
//! the allocator.  Reset invalidates all outstanding [`Var`] handles of
//! the previous step (using one panics on an out-of-bounds node id).
//! Buffer reuse never changes values: an op either fully overwrites its
//! pooled buffer or requests it zeroed, so results are bitwise identical
//! to a freshly allocated graph.
//!
//! ## Record-once / replay-per-minibatch
//!
//! Training steps run the *same program* every minibatch, so boxing a
//! fresh backward closure per op per step is pure overhead.  The tape is
//! therefore **replayable**: [`Graph::reset`] keeps the op records and
//! arms a replay cursor.  The next step's [`Graph::push_op`] calls are
//! matched against the recorded prefix — same output id, same parent
//! ids, same closure type (via `TypeId`), same operand shapes — and on a
//! hit the freshly-built closure is dropped *unboxed* while the recorded
//! one is reused; only data-dependent state (index lists, scalars)
//! travels through explicit per-record payloads updated in place.  Any
//! divergence truncates the stale suffix and falls back to recording, so
//! shape changes (the ragged final minibatch of an epoch) stay correct
//! at the cost of a one-step re-record.  Replay never changes values or
//! gradients: closures read everything through [`BackwardCtx`], whose
//! state is rebuilt from the current step's node values.
//!
//! Custom operations (e.g. the IRN Personalized Impressionability Mask in
//! `irs_nn`) can be defined outside this crate via [`Graph::custom_op`].

use std::any::TypeId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::tensor::{numel, Tensor};

/// Identifier of a node inside a [`Graph`].
pub type VarId = usize;

/// Retired storage buffers keyed by element count, ready for reuse by
/// the next step's nodes of identical shape (shapes repeat across
/// training steps; the ragged final minibatch of an epoch parks its odd
/// sizes here until the next ragged batch, bounding the pool at one
/// step's worth of buffers per distinct shape set).  Whole `Arc`s are
/// pooled so the reference-count block is recycled along with the float
/// storage — steady-state steps touch the allocator for neither.
#[derive(Default)]
struct Pool {
    by_len: HashMap<usize, Vec<Arc<Vec<f32>>>>,
}

impl Pool {
    fn put(&mut self, t: Tensor) {
        let arc = t.into_storage();
        // A buffer shared with a live clone (a reshape node shares its
        // parent's storage) retires when its *last* holder is drained —
        // reset drains nodes in id order, so a parent's storage is
        // skipped here and pooled once its final sharer retires.
        if Arc::strong_count(&arc) == 1 && arc.capacity() > 0 {
            self.by_len.entry(arc.len()).or_default().push(arc);
        }
    }

    /// A buffer of exactly `len` elements with unspecified (stale)
    /// contents, or `None` when nothing of that size has retired.
    fn take(&mut self, len: usize) -> Option<Arc<Vec<f32>>> {
        self.by_len.get_mut(&len).and_then(Vec::pop)
    }
}

/// Backward context handed to every backward closure.
///
/// Provides read access to parent values and the upstream gradient, and
/// lazily-initialised mutable access to parent gradients.  Accessors
/// return references tied to the backward pass (`'a`), so closures can
/// hold a parent value or the upstream gradient while mutating a
/// gradient slot — no defensive clones needed.
pub struct BackwardCtx<'a> {
    parent_ids: &'a [VarId],
    values: &'a [Tensor],
    needs_grad: &'a [bool],
    out_id: VarId,
    grad_out: &'a Tensor,
    /// Gradient slots for ids `0..out_id` (parents are always earlier).
    grads: &'a mut [Option<Tensor>],
    pool: &'a RefCell<Pool>,
    payload_idx: &'a [usize],
    payload_scalar: f32,
}

impl<'a> BackwardCtx<'a> {
    /// Value of the `i`-th parent.
    pub fn value(&self, i: usize) -> &'a Tensor {
        &self.values[self.parent_ids[i]]
    }

    /// The op's index payload (e.g. gather indices, CE targets), as
    /// updated for the **current** step by the replay machinery.
    /// Replay-safe closures read data-dependent indices from here, never
    /// from their captures.
    pub fn payload_idx(&self) -> &'a [usize] {
        self.payload_idx
    }

    /// The op's scalar payload (e.g. the `mul_scalar` constant), as
    /// updated for the current step by the replay machinery.
    pub fn payload_scalar(&self) -> f32 {
        self.payload_scalar
    }

    /// Value of the op output.
    pub fn out_value(&self) -> &'a Tensor {
        &self.values[self.out_id]
    }

    /// Gradient flowing into the op output.
    pub fn grad_out(&self) -> &'a Tensor {
        self.grad_out
    }

    /// Number of parents.
    pub fn num_parents(&self) -> usize {
        self.parent_ids.len()
    }

    /// Whether the `i`-th parent requires a gradient.  Backward closures
    /// may skip computing contributions for parents that do not — their
    /// slots are never read by earlier ops or by parameter collection.
    pub fn parent_needs_grad(&self, i: usize) -> bool {
        self.needs_grad[self.parent_ids[i]]
    }

    /// A zeroed gradient tensor for node `id`'s shape, drawn from the
    /// graph's buffer pool.
    fn zeroed_like(&self, id: VarId) -> Tensor {
        let shape = self.values[id].shape();
        zeroed_from_pool(self.pool, shape)
    }

    /// Mutable gradient slot of the `i`-th parent, zero-initialised on
    /// first access.
    pub fn grad_mut(&mut self, i: usize) -> &mut Tensor {
        let pid = self.parent_ids[i];
        if self.grads[pid].is_none() {
            self.grads[pid] = Some(self.zeroed_like(pid));
        }
        self.grads[pid].as_mut().expect("just initialised")
    }

    /// Accumulate `delta` into the `i`-th parent gradient.
    pub fn accumulate(&mut self, i: usize, delta: &Tensor) {
        self.grad_mut(i).add_assign(delta);
    }

    /// Accumulate the upstream gradient into the `i`-th parent gradient
    /// (the pass-through of `add`-like ops), without cloning it.
    pub fn accumulate_grad_out(&mut self, i: usize) {
        let go = self.grad_out;
        self.grad_mut(i).add_assign(go);
    }

    /// Accumulate `c ·` upstream gradient into the `i`-th parent gradient.
    pub fn accumulate_grad_out_scaled(&mut self, i: usize, c: f32) {
        let go = self.grad_out;
        self.grad_mut(i).axpy(c, go);
    }

    /// Accumulate the upstream gradient elementwise, ignoring shape (the
    /// backward of `reshape`: same elements, different metadata).
    pub fn accumulate_grad_out_flat(&mut self, i: usize) {
        let go = self.grad_out;
        self.grad_mut(i).add_assign_flat(go);
    }

    /// Accumulate a multi-add contribution computed by `f` into the
    /// `i`-th parent gradient, preserving the historical accumulation
    /// order exactly.
    ///
    /// `f` receives a **zeroed** buffer of the parent's shape and must
    /// `+=` its full contribution into it (the `matmul_into`-family
    /// contract).  When the slot is fresh the buffer *becomes* the
    /// gradient; when a previous op already deposited a gradient, the
    /// contribution is computed separately and added tensor-wide — the
    /// same `grad += delta` rounding the compute-then-accumulate path
    /// produced, so kernels that add many products per element stay
    /// bitwise identical to the old two-pass code.
    pub fn accumulate_with(&mut self, i: usize, f: impl FnOnce(&mut [f32])) {
        let pid = self.parent_ids[i];
        let mut fresh = self.zeroed_like(pid);
        f(fresh.data_mut());
        match &mut self.grads[pid] {
            Some(live) => {
                live.add_assign(&fresh);
                self.pool.borrow_mut().put(fresh);
            }
            slot @ None => *slot = Some(fresh),
        }
    }
}

type BackFn = Box<dyn Fn(&mut BackwardCtx<'_>)>;

/// One recorded operation.  `tag` + `sig` + ids make the record safely
/// reusable across [`Graph::reset`] cycles: a replayed step must present
/// the same closure type (same callsite), the same node wiring and the
/// same operand shapes, which covers every shape-derived capture inside
/// `back`.  Data-dependent state lives in the payloads, refreshed each
/// step.
struct OpRecord {
    out: VarId,
    parents: Vec<VarId>,
    /// `TypeId` of the (unboxed) backward closure — unique per callsite.
    tag: TypeId,
    /// Len-prefixed dims of the output then each parent at record time.
    sig: Vec<usize>,
    /// Per-step index payload (gather indices, CE targets, argmaxes…).
    payload_idx: Vec<usize>,
    /// Per-step scalar payload (e.g. `mul_scalar`'s constant).
    payload_scalar: f32,
    back: BackFn,
}

/// Append `shape`, len-prefixed, to a signature vector.
fn sig_push(sig: &mut Vec<usize>, shape: &[usize]) {
    sig.push(shape.len());
    sig.extend_from_slice(shape);
}

/// Consume one len-prefixed shape from the front of `s`; true iff it
/// equals `shape`.  Allocation-free — replay hits must not touch the
/// allocator.
fn sig_eat(s: &mut &[usize], shape: &[usize]) -> bool {
    let Some((&nd, rest)) = s.split_first() else { return false };
    if nd != shape.len() || rest.len() < nd {
        return false;
    }
    let (dims, tail) = rest.split_at(nd);
    if dims != shape {
        return false;
    }
    *s = tail;
    true
}

#[derive(Default)]
struct GraphInner {
    values: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
    needs_grad: Vec<bool>,
    ops: Vec<OpRecord>,
    /// Ops of `ops` validated (replayed or recorded) this step; the
    /// replay cursor.  Only `ops[..ops_live]` may run in backward.
    ops_live: usize,
    /// Whether `push_op` is currently matching against retained records.
    replaying: bool,
}

impl GraphInner {
    /// Whether `ops[ops_live]` matches the op about to be pushed.
    fn replay_matches<'p>(
        &self,
        out_id: VarId,
        tag: TypeId,
        parents: impl ExactSizeIterator<Item = &'p VarId>,
        out_shape: &[usize],
    ) -> bool {
        let Some(rec) = self.ops.get(self.ops_live) else { return false };
        if rec.out != out_id || rec.tag != tag || rec.parents.len() != parents.len() {
            return false;
        }
        let mut sig = rec.sig.as_slice();
        if !sig_eat(&mut sig, out_shape) {
            return false;
        }
        for (&have, &want) in rec.parents.iter().zip(parents) {
            if have != want || !sig_eat(&mut sig, self.values[have].shape()) {
                return false;
            }
        }
        sig.is_empty()
    }
}

/// A computation tape.
///
/// One graph serves either a single forward/backward pass (drop it to
/// release all intermediates) or — via [`Graph::reset`] — a whole
/// training run, recycling its node and gradient buffers across steps.
/// Interior mutability keeps the builder API ergonomic (`Var` is `Copy`
/// and methods take `self` by value).
#[derive(Default)]
pub struct Graph {
    inner: RefCell<GraphInner>,
    pool: RefCell<Pool>,
}

/// Pop a pooled buffer of the right size and zero it, or allocate fresh.
fn zeroed_from_pool(pool: &RefCell<Pool>, shape: &[usize]) -> Tensor {
    let n = numel(shape);
    match pool.borrow_mut().take(n) {
        Some(mut arc) => {
            Arc::get_mut(&mut arc)
                .expect("pooled buffers are uniquely owned")
                .iter_mut()
                .for_each(|x| *x = 0.0);
            Tensor::from_shared(arc, shape)
        }
        None => Tensor::zeros(shape),
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retire every node value and gradient into the buffer pool and
    /// clear the node tape, keeping all allocations for the next step —
    /// **including the op records**, which the next step replays instead
    /// of re-recording (see the module docs).
    ///
    /// All `Var` handles created before the reset are invalidated (using
    /// one panics).  Call between training steps of identical shape; the
    /// subsequent forward pass then runs allocation-free and box-free.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        let mut pool = self.pool.borrow_mut();
        for t in inner.values.drain(..) {
            pool.put(t);
        }
        for t in inner.grads.drain(..).flatten() {
            pool.put(t);
        }
        inner.needs_grad.clear();
        inner.ops_live = 0;
        inner.replaying = !inner.ops.is_empty();
    }

    /// An output buffer for an op producing `shape`: recycled from the
    /// pool when a retired buffer of the same element count exists
    /// (contents then **unspecified** — the op must overwrite every
    /// element), freshly zero-allocated otherwise.
    pub fn alloc_out(&self, shape: &[usize]) -> Tensor {
        match self.pool.borrow_mut().take(numel(shape)) {
            Some(data) => Tensor::from_shared(data, shape),
            None => Tensor::zeros(shape),
        }
    }

    /// Like [`Graph::alloc_out`] but guaranteed zero-filled — for ops that
    /// accumulate into their output (`out += …` kernels).
    pub fn alloc_zeroed(&self, shape: &[usize]) -> Tensor {
        zeroed_from_pool(&self.pool, shape)
    }

    /// Insert a leaf value.  `needs_grad` leaves receive gradients during
    /// [`Graph::backward`]; constants do not.
    pub fn var(&self, value: Tensor, needs_grad: bool) -> Var<'_> {
        let mut inner = self.inner.borrow_mut();
        let id = inner.values.len();
        inner.values.push(value);
        inner.grads.push(None);
        inner.needs_grad.push(needs_grad);
        Var { graph: self, id }
    }

    /// Insert a leaf copied from `value` into a pooled buffer — the
    /// allocation-free way to bind parameters each step.
    pub fn var_from(&self, value: &Tensor, needs_grad: bool) -> Var<'_> {
        let mut buf = self.alloc_out(value.shape());
        buf.data_mut().copy_from_slice(value.data());
        self.var(buf, needs_grad)
    }

    /// Insert a constant leaf (no gradient).
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.var(value, false)
    }

    /// Number of nodes on the tape.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().values.len()
    }

    /// Core op-registration primitive used by every operation.
    ///
    /// `back` receives a [`BackwardCtx`]; it must add this op's contribution
    /// to each parent gradient.  The op record is skipped entirely when no
    /// parent requires gradients.
    ///
    /// After a [`Graph::reset`], matching records are **replayed**: the
    /// freshly-built `back` is dropped without boxing and the retained
    /// record runs instead.  Closures whose captures are data-dependent
    /// (not derivable from operand shapes) must pass that data through
    /// [`Graph::push_op_indexed`] / [`Graph::push_op_scaled`] and read it
    /// back via [`BackwardCtx::payload_idx`] / `payload_scalar`.
    pub fn push_op(
        &self,
        parents: &[Var<'_>],
        value: Tensor,
        back: impl Fn(&mut BackwardCtx<'_>) + 'static,
    ) -> Var<'_> {
        self.push_op_impl(parents, value, None, 0.0, back)
    }

    /// [`Graph::push_op`] with a per-step index payload (gather indices,
    /// targets, argmaxes): on replay the payload is refreshed in place
    /// while the boxed closure is reused.
    pub fn push_op_indexed(
        &self,
        parents: &[Var<'_>],
        value: Tensor,
        payload_idx: &[usize],
        back: impl Fn(&mut BackwardCtx<'_>) + 'static,
    ) -> Var<'_> {
        self.push_op_impl(parents, value, Some(payload_idx), 0.0, back)
    }

    /// [`Graph::push_op`] with a per-step scalar payload.
    pub fn push_op_scaled(
        &self,
        parents: &[Var<'_>],
        value: Tensor,
        payload_scalar: f32,
        back: impl Fn(&mut BackwardCtx<'_>) + 'static,
    ) -> Var<'_> {
        self.push_op_impl(parents, value, None, payload_scalar, back)
    }

    fn push_op_impl<F>(
        &self,
        parents: &[Var<'_>],
        value: Tensor,
        payload_idx: Option<&[usize]>,
        payload_scalar: f32,
        back: F,
    ) -> Var<'_>
    where
        F: Fn(&mut BackwardCtx<'_>) + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        for p in parents {
            assert!(std::ptr::eq(p.graph, self), "Var from a different Graph");
            assert!(p.id < inner.values.len(), "unknown parent var id {}", p.id);
        }
        let needs = parents.iter().any(|p| inner.needs_grad[p.id]);
        let id = inner.values.len();
        if needs {
            let tag = TypeId::of::<F>();
            let mut hit = false;
            if inner.replaying {
                if inner.replay_matches(id, tag, parents.iter().map(|p| &p.id), value.shape()) {
                    let rec = &mut inner.ops[inner.ops_live];
                    rec.payload_scalar = payload_scalar;
                    rec.payload_idx.clear();
                    if let Some(idx) = payload_idx {
                        rec.payload_idx.extend_from_slice(idx);
                    }
                    inner.ops_live += 1;
                    hit = true;
                    // `back` drops here, unboxed — the whole point.
                } else {
                    // The program diverged from the recording (shape
                    // change, different branch): drop the stale suffix
                    // and record from here on.
                    inner.ops.truncate(inner.ops_live);
                    inner.replaying = false;
                }
            }
            if !hit {
                let mut sig = Vec::with_capacity((parents.len() + 1) * 4);
                sig_push(&mut sig, value.shape());
                for p in parents {
                    sig_push(&mut sig, inner.values[p.id].shape());
                }
                inner.ops.push(OpRecord {
                    out: id,
                    parents: parents.iter().map(|p| p.id).collect(),
                    tag,
                    sig,
                    payload_idx: payload_idx.map(<[usize]>::to_vec).unwrap_or_default(),
                    payload_scalar,
                    back: Box::new(back),
                });
                inner.ops_live += 1;
            }
        }
        inner.values.push(value);
        inner.grads.push(None);
        inner.needs_grad.push(needs);
        Var { graph: self, id }
    }

    /// Public alias of [`Graph::push_op`] for defining operations outside
    /// this crate (used by `irs_nn` for the PIM attention mask).
    pub fn custom_op(
        &self,
        parents: &[Var<'_>],
        value: Tensor,
        back: impl Fn(&mut BackwardCtx<'_>) + 'static,
    ) -> Var<'_> {
        self.push_op(parents, value, back)
    }

    /// Run reverse-mode differentiation from `loss` (must be scalar).
    ///
    /// Gradients of all `needs_grad` leaves reachable from `loss` are
    /// afterwards available via [`Graph::grad`].  Backward may be called
    /// once per graph (once per [`Graph::reset`] cycle).
    pub fn backward(&self, loss: Var<'_>) {
        assert!(std::ptr::eq(loss.graph, self), "loss Var from a different Graph");
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        assert_eq!(
            inner.values[loss.id].len(),
            1,
            "backward requires a scalar loss, got shape {:?}",
            inner.values[loss.id].shape()
        );
        let mut seed = zeroed_from_pool(&self.pool, &[1]);
        seed.data_mut()[0] = 1.0;
        inner.grads[loss.id] = Some(seed);
        // Only records validated this step may run.  When this step's
        // program was a strict prefix of the recording, the stale tail
        // references nodes that no longer exist — drop it (it re-records
        // if a longer program returns).
        let live = inner.ops_live;
        inner.ops.truncate(live);
        for op in inner.ops.iter().rev() {
            // Split so the output gradient can be read while parent slots
            // are written; parents always precede their output on the tape.
            let (before, after) = inner.grads.split_at_mut(op.out);
            let grad_out = match &after[0] {
                Some(g) => g,
                None => continue, // node does not influence the loss
            };
            let mut ctx = BackwardCtx {
                parent_ids: &op.parents,
                values: &inner.values,
                needs_grad: &inner.needs_grad,
                out_id: op.out,
                grad_out,
                grads: before,
                pool: &self.pool,
                payload_idx: &op.payload_idx,
                payload_scalar: op.payload_scalar,
            };
            (op.back)(&mut ctx);
        }
    }

    /// Gradient accumulated at `var` (None if it never received one).
    pub fn grad(&self, var: Var<'_>) -> Option<Tensor> {
        self.inner.borrow().grads[var.id].clone()
    }

    /// Run `f` with a borrow of the gradient at `var` (avoids a clone);
    /// `None` when no gradient was accumulated.
    pub fn with_grad<R>(&self, var: Var<'_>, f: impl FnOnce(&Tensor) -> R) -> Option<R> {
        self.inner.borrow().grads[var.id].as_ref().map(f)
    }

    /// Clone of the value stored at `var`.
    pub fn value(&self, var: Var<'_>) -> Tensor {
        self.inner.borrow().values[var.id].clone()
    }

    /// Run `f` with a borrow of the value at `var` (avoids a clone).
    pub fn with_value<R>(&self, var: Var<'_>, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.inner.borrow().values[var.id])
    }
}

/// Handle to a node in a [`Graph`].  Cheap to copy; all tensor operations
/// are methods on `Var` (see the `ops`, `nnops` and `shapeops` modules).
#[derive(Clone, Copy)]
pub struct Var<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) id: VarId,
}

impl<'g> Var<'g> {
    /// The owning graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Tape id of this node.
    pub fn id(&self) -> VarId {
        self.id
    }

    /// Clone of the node value.
    pub fn value(&self) -> Tensor {
        self.graph.value(*self)
    }

    /// Shape of the node value.
    pub fn shape(&self) -> Vec<usize> {
        self.graph.with_value(*self, |t| t.shape().to_vec())
    }

    /// Scalar value of a 1-element node.
    pub fn item(&self) -> f32 {
        self.graph.with_value(*self, |t| t.item())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_mul_and_sum() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]), true);
        let y = x.mul(x).sum_all();
        assert!((y.item() - 14.0).abs() < 1e-6);
        g.backward(y);
        let dx = g.grad(x).unwrap();
        assert_eq!(dx.data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let g = Graph::new();
        let x = g.var(Tensor::scalar(2.0), true);
        let c = g.constant(Tensor::scalar(3.0));
        let y = x.mul(c).sum_all();
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().item(), 3.0);
        // The op was recorded because x needs a gradient; c's slot is not
        // part of the contract, but x's gradient must be exact.
    }

    #[test]
    fn gradient_accumulates_across_multiple_uses() {
        let g = Graph::new();
        let x = g.var(Tensor::scalar(3.0), true);
        // y = x*x + x  => dy/dx = 2x + 1 = 7
        let y = x.mul(x).add(x).sum_all();
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().item(), 7.0);
    }

    #[test]
    fn unused_branches_do_not_contribute() {
        let g = Graph::new();
        let x = g.var(Tensor::scalar(3.0), true);
        let _dead = x.mul(x); // never reaches the loss
        let y = x.add_scalar(1.0).sum_all();
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().item(), 1.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar_loss() {
        let g = Graph::new();
        let x = g.var(Tensor::zeros(&[2]), true);
        let y = x.add_scalar(1.0);
        g.backward(y);
    }

    #[test]
    fn ops_on_pure_constants_are_not_recorded() {
        let g = Graph::new();
        let a = g.constant(Tensor::scalar(1.0));
        let b = g.constant(Tensor::scalar(2.0));
        let _ = a.add(b);
        assert_eq!(g.inner.borrow().ops.len(), 0);
    }

    #[test]
    fn custom_op_backward_is_invoked() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![2.0, 3.0], &[2]), true);
        // out = 5 * x, custom implementation.
        let val = g.value(x).scale(5.0);
        let y = g.custom_op(&[x], val, |ctx| {
            ctx.accumulate_grad_out_scaled(0, 5.0);
        });
        let loss = y.sum_all();
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[5.0, 5.0]);
    }

    #[test]
    fn reset_recycles_buffers_and_preserves_results() {
        // The same computation, once on a fresh graph and once on a graph
        // that has been through a reset cycle, must agree bitwise — and
        // the second pass must draw its buffers from the pool.
        let g = Graph::new();
        let run = |g: &Graph| {
            let x = g.var(Tensor::from_vec(vec![0.5, -1.5, 2.5, 3.5], &[2, 2]), true);
            let w = g.var(Tensor::from_vec(vec![1.0, 2.0, -0.5, 0.25], &[2, 2]), true);
            let y = x.matmul(w).relu().sum_all();
            g.backward(y);
            (y.item(), g.grad(x).unwrap(), g.grad(w).unwrap())
        };
        let (l1, dx1, dw1) = run(&g);
        let nodes = g.num_nodes();
        g.reset();
        assert_eq!(g.num_nodes(), 0);
        let (l2, dx2, dw2) = run(&g);
        assert_eq!(g.num_nodes(), nodes);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(dx1.data(), dx2.data());
        assert_eq!(dw1.data(), dw2.data());

        let fresh = Graph::new();
        let (l3, dx3, dw3) = run(&fresh);
        assert_eq!(l1.to_bits(), l3.to_bits());
        assert_eq!(dx1.data(), dx3.data());
        assert_eq!(dw1.data(), dw3.data());
    }

    #[test]
    fn alloc_out_reuses_retired_buffers() {
        let g = Graph::new();
        let _ = g.var(Tensor::full(&[4, 4], 7.0), false);
        g.reset();
        // The retired 16-element buffer must come back from the pool
        // (contents stale), and alloc_zeroed must scrub it.
        let t = g.alloc_out(&[2, 8]);
        assert_eq!(t.len(), 16);
        let _ = g.var(t, false);
        g.reset();
        let t2 = g.alloc_zeroed(&[16]);
        assert!(t2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn replay_reuses_recorded_closures_without_reboxing() {
        use std::cell::Cell;
        use std::rc::Rc;
        // The closure recorded on step 1 must be the one that runs on
        // step 2: each step passes a closure capturing its own counter,
        // and only the first step's counter may tick.
        let g = Graph::new();
        let calls_a = Rc::new(Cell::new(0));
        let calls_b = Rc::new(Cell::new(0));
        let step = |g: &Graph, calls: Rc<Cell<u32>>| {
            let x = g.var(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
            let y = g.push_op(&[x], g.value(x).scale(2.0), move |ctx| {
                calls.set(calls.get() + 1);
                ctx.accumulate_grad_out_scaled(0, 2.0);
            });
            g.backward(y.sum_all());
            g.grad(x).unwrap()
        };
        let d1 = step(&g, calls_a.clone());
        assert_eq!((calls_a.get(), calls_b.get()), (1, 0));
        let ops_after_record = g.inner.borrow().ops.len();
        g.reset();
        let d2 = step(&g, calls_b.clone());
        // Same callsite closure type, same wiring, same shapes: replayed.
        assert_eq!((calls_a.get(), calls_b.get()), (2, 0));
        assert_eq!(g.inner.borrow().ops.len(), ops_after_record);
        assert_eq!(d1.data(), d2.data());
    }

    #[test]
    fn replay_refreshes_index_and_scalar_payloads() {
        // Payload-carrying ops must read the *current* step's data on
        // replay, not their record-time captures.
        let g = Graph::new();
        let step = |g: &Graph, idx: &[usize], c: f32| {
            let x = g.var(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]), true);
            // out[j] = x[idx[j]]
            let picked = Tensor::from_fn(&[2], |j| g.with_value(x, |t| t.data()[idx[j]]));
            let y = g.push_op_indexed(&[x], picked, idx, |ctx| {
                let go = ctx.grad_out().data().to_vec();
                let idx = ctx.payload_idx().to_vec();
                let gx = ctx.grad_mut(0);
                for (j, &i) in idx.iter().enumerate() {
                    gx.data_mut()[i] += go[j];
                }
            });
            // Smuggle the scalar through a second payload op so both
            // payload kinds are exercised.
            let y = g.push_op_scaled(&[y], y.value().scale(c), c, |ctx| {
                let c = ctx.payload_scalar();
                ctx.accumulate_grad_out_scaled(0, c);
            });
            g.backward(y.sum_all());
            g.grad(x).unwrap()
        };
        let d1 = step(&g, &[0, 1], 2.0);
        assert_eq!(d1.data(), &[2.0, 2.0, 0.0]);
        g.reset();
        // Same shapes and callsites (replay hits), different payloads.
        let d2 = step(&g, &[2, 2], 3.0);
        assert_eq!(d2.data(), &[0.0, 0.0, 6.0]);
    }

    #[test]
    fn replay_falls_back_to_recording_on_shape_change() {
        let g = Graph::new();
        let step = |g: &Graph, n: usize| {
            let x = g.var(Tensor::full(&[n], 2.0), true);
            let y = x.mul(x).sum_all();
            g.backward(y);
            g.grad(x).unwrap()
        };
        let d2 = step(&g, 2);
        g.reset();
        let d3 = step(&g, 3); // shape diverges at the first op: re-record
        assert_eq!(d2.data(), &[4.0, 4.0]);
        assert_eq!(d3.data(), &[4.0, 4.0, 4.0]);
        g.reset();
        let d3b = step(&g, 3); // and the new recording replays
        assert_eq!(d3b.data(), d3.data());
    }

    #[test]
    fn replayed_steps_are_bitwise_identical_across_many_resets() {
        let g = Graph::new();
        let run = |g: &Graph| {
            let x = g.var(Tensor::from_vec(vec![0.5, -1.5, 2.5, 3.5], &[2, 2]), true);
            let w = g.var(Tensor::from_vec(vec![1.0, 2.0, -0.5, 0.25], &[2, 2]), true);
            let y = x.matmul(w).relu().mul_scalar(0.5).sum_all();
            g.backward(y);
            (y.item(), g.grad(x).unwrap(), g.grad(w).unwrap())
        };
        let (l1, dx1, dw1) = run(&g);
        for _ in 0..4 {
            g.reset();
            let (l, dx, dw) = run(&g);
            assert_eq!(l1.to_bits(), l.to_bits());
            assert_eq!(dx1.data(), dx.data());
            assert_eq!(dw1.data(), dw.data());
        }
    }

    #[test]
    fn accumulate_with_matches_two_pass_accumulation() {
        // Fresh slot: contribution becomes the gradient. Live slot: the
        // contribution is computed apart and added whole, like the old
        // compute-then-add path.
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let y = g.custom_op(&[x, x], g.value(x).scale(2.0), |ctx| {
            ctx.accumulate_with(0, |out| {
                for o in out.iter_mut() {
                    *o += 2.0;
                }
            });
            ctx.accumulate_with(1, |out| {
                for o in out.iter_mut() {
                    *o += 3.0;
                }
            });
        });
        g.backward(y.sum_all());
        assert_eq!(g.grad(x).unwrap().data(), &[5.0, 5.0]);
    }

    #[test]
    fn replayed_records_run_allocation_free_from_the_pool() {
        // Steady-state contract: once the recording step's working set
        // has retired into the pool, a replayed step — including
        // payload-carrying records (gather, mul_scalar) and head-split
        // kernels (the NT attention-score matmul) — must draw every
        // value and gradient buffer from the pool.  The set of storage
        // pointers cannot grow after step one.
        let g = Graph::new();
        let table = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let step = |g: &Graph, idx: &[usize], c: f32| {
            let x = g.var_from(&table, true);
            let e = x.gather_rows(idx).mul_scalar(c);
            let q = e.reshape(&[2, 2, 2]);
            let s = q.bmm_nt(q, 2);
            g.backward(s.sum_all());
            let inner = g.inner.borrow();
            let mut ptrs: Vec<usize> =
                inner.values.iter().map(|t| t.data().as_ptr() as usize).collect();
            ptrs.extend(inner.grads.iter().flatten().map(|t| t.data().as_ptr() as usize));
            ptrs
        };
        let first = step(&g, &[0, 2, 1, 1], 2.0);
        g.reset();
        // Different payloads, same plan: a replay hit end to end.
        let second = step(&g, &[2, 0, 0, 1], 3.0);
        for p in &second {
            assert!(
                first.contains(p),
                "replayed step allocated a fresh buffer instead of reusing the pool"
            );
        }
    }
}
