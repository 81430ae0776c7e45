//! Trainable-parameter storage and per-forward-pass graph binding.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use irs_tensor::{Graph, Tensor, Var};
use rand::SeedableRng;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Storage for named trainable parameters and their gradient accumulators.
///
/// Values are updated by optimizers (`&mut` access); gradients live behind a
/// `Mutex` so a [`FwdCtx`] can deposit them while the store is otherwise
/// shared immutably — which also makes trained models `Sync`, so influence
/// paths for different users can be generated on parallel threads.
#[derive(Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Mutex<Vec<Tensor>>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; the name is used for debugging and summaries.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = self.values.len();
        self.grads
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Tensor::zeros(value.shape()));
        self.values.push(value);
        self.names.push(name.into());
        ParamId(id)
    }

    /// Number of registered parameter tensors.
    pub fn num_tensors(&self) -> usize {
        self.values.len()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (optimizers, manual updates).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// The gradient accumulators, locked.
    fn grads(&self) -> MutexGuard<'_, Vec<Tensor>> {
        self.grads.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clone of the accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> Tensor {
        self.grads()[id.0].clone()
    }

    /// Add `delta` into a parameter's gradient accumulator.
    pub fn accumulate_grad(&self, id: ParamId, delta: &Tensor) {
        self.grads()[id.0].add_assign(delta);
    }

    /// Reset every gradient accumulator to zero.
    pub fn zero_grad(&self) {
        for g in self.grads().iter_mut() {
            g.zero_();
        }
    }

    /// Iterate over `(id, name)` pairs.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.values.len()).map(ParamId)
    }

    /// Run `f` over every `(value, grad)` pair mutably — optimizer hook.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        let grads = self.grads.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (i, v) in self.values.iter_mut().enumerate() {
            f(i, v, &grads[i]);
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.grads().iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scale every gradient by `c` (used by gradient clipping).
    pub fn scale_grads(&self, c: f32) {
        for g in self.grads().iter_mut() {
            for x in g.data_mut() {
                *x *= c;
            }
        }
    }
}

/// Forward-pass context: binds [`ParamStore`] parameters into a graph
/// (each parameter becomes one leaf `Var`, shared across uses), carries the
/// training flag and a dropout RNG, and collects parameter gradients after
/// `backward`.
pub struct FwdCtx<'g, 's> {
    /// The tape for this forward pass.
    pub graph: &'g Graph,
    /// The parameter store being bound.
    pub store: &'s ParamStore,
    /// Whether dropout & co. are active.
    pub training: bool,
    bound: RefCell<HashMap<ParamId, Var<'g>>>,
    rng: RefCell<rand::rngs::StdRng>,
}

impl<'g, 's> FwdCtx<'g, 's> {
    /// Create a context; `seed` drives dropout masks (vary it per step).
    pub fn new(graph: &'g Graph, store: &'s ParamStore, training: bool, seed: u64) -> Self {
        FwdCtx {
            graph,
            store,
            training,
            bound: RefCell::new(HashMap::new()),
            rng: RefCell::new(rand::rngs::StdRng::seed_from_u64(seed)),
        }
    }

    /// Bind a parameter into the graph (cached: repeated calls return the
    /// same `Var`, so gradient contributions accumulate correctly).  The
    /// binding copies the parameter into a pooled graph buffer, so a reset
    /// graph re-binds without allocating.
    pub fn param(&self, id: ParamId) -> Var<'g> {
        if let Some(v) = self.bound.borrow().get(&id) {
            return *v;
        }
        let v = self.graph.var_from(self.store.value(id), true);
        self.bound.borrow_mut().insert(id, v);
        v
    }

    /// Apply inverted dropout using the context RNG when training.
    pub fn dropout(&self, x: Var<'g>, p: f32) -> Var<'g> {
        x.dropout(p, self.training, &mut *self.rng.borrow_mut())
    }

    /// Run `graph.backward(loss)` and deposit parameter gradients into the
    /// store's accumulators (borrowed straight off the tape, no clones).
    pub fn backprop(&self, loss: Var<'g>) {
        self.graph.backward(loss);
        for (&id, &var) in self.bound.borrow().iter() {
            self.graph.with_grad(var, |g| self.store.accumulate_grad(id, g));
        }
    }
}

// ---------------------------------------------------------------------
// Initialisation helpers
// ---------------------------------------------------------------------

/// Xavier/Glorot uniform initialisation for a `[fan_in, fan_out]` matrix.
pub fn xavier_uniform<R: rand::Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(&[fan_in, fan_out], -limit, limit, rng)
}

/// Truncated-free normal initialisation with std `1/sqrt(dim)` — the usual
/// embedding-table init.
pub fn embedding_init<R: rand::Rng + ?Sized>(rows: usize, dim: usize, rng: &mut R) -> Tensor {
    Tensor::randn(&[rows, dim], 1.0 / (dim as f32).sqrt(), rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_registers_and_reports_sizes() {
        let mut store = ParamStore::new();
        let a = store.add("w", Tensor::zeros(&[3, 4]));
        let b = store.add("b", Tensor::zeros(&[4]));
        assert_eq!(store.num_tensors(), 2);
        assert_eq!(store.num_scalars(), 16);
        assert_eq!(store.name(a), "w");
        assert_eq!(store.value(b).shape(), &[4]);
    }

    #[test]
    fn ctx_binds_each_param_once() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::ones(&[2]));
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, false, 0);
        let v1 = ctx.param(id);
        let v2 = ctx.param(id);
        assert_eq!(v1.id(), v2.id(), "same param must bind to same var");
    }

    #[test]
    fn backprop_deposits_grads_and_accumulates_across_uses() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let g = Graph::new();
        let ctx = FwdCtx::new(&g, &store, true, 0);
        let w = ctx.param(id);
        // loss = Σ (w*w + w) => d/dw = 2w + 1 = [5, 7]
        let loss = w.mul(w).add(w).sum_all();
        ctx.backprop(loss);
        assert_eq!(store.grad(id).data(), &[5.0, 7.0]);
        // Second pass accumulates on top.
        let g2 = Graph::new();
        let ctx2 = FwdCtx::new(&g2, &store, true, 1);
        let w2 = ctx2.param(id);
        ctx2.backprop(w2.sum_all());
        assert_eq!(store.grad(id).data(), &[6.0, 8.0]);
        store.zero_grad();
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(&[2]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        store.scale_grads(0.5);
        assert_eq!(store.grad(id).data(), &[1.5, 2.0]);
    }

    #[test]
    fn xavier_respects_limits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = xavier_uniform(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= limit));
    }
}
