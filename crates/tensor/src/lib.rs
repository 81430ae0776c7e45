//! # irs_tensor — dense tensors and reverse-mode autograd
//!
//! This crate is the numerical substrate for the `influential-rs` workspace,
//! the Rust reproduction of *"Influential Recommender System"* (ICDE 2023).
//! The paper's models (IRN, SASRec, Bert4Rec, GRU4Rec, Caser, …) are small
//! transformer / RNN / CNN architectures; no deep-learning framework is
//! available in the sanctioned dependency set, so this crate implements the
//! required pieces from first principles:
//!
//! * [`Tensor`] — a contiguous, row-major `f32` tensor with the dense kernels
//!   the models need (elementwise arithmetic, 2-D and batched matmul,
//!   softmax, layer-norm statistics, gather/scatter, window unfolding, …).
//! * [`Graph`] / [`Var`] — a tape-based reverse-mode automatic
//!   differentiation engine.  A [`Graph`] owns every intermediate value of a
//!   forward pass; [`Var`] is a lightweight handle used to build the
//!   computation.  Calling [`Graph::backward`] replays the tape in reverse
//!   and accumulates gradients.
//! * [`gradcheck`] — a finite-difference gradient checker used throughout
//!   the test-suites to validate every backward implementation.
//!
//! ## Example
//!
//! ```
//! use irs_tensor::{Graph, Tensor};
//!
//! let g = Graph::new();
//! let x = g.var(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]), true);
//! let y = x.mul(x).sum_all(); // y = Σ x²
//! g.backward(y);
//! let dx = g.grad(x).unwrap();
//! assert_eq!(dx.data(), &[2.0, 4.0, 6.0]); // dy/dx = 2x
//! ```
//!
//! The engine is deliberately eager: every model in the workspace trains in
//! seconds on CPU at the scales used by the experiment harness.  Every
//! product — 2-D, batched, transposed, over strided views — is one
//! [`gemm`] call over [`Operand`]s (storage, [`BatchLayout`], transpose
//! flag); single dense products run the blocked [`matmul_into`].  Large
//! shapes fan out over `std::thread::scope` threads, but each output
//! element always accumulates in the same order — determinism (fixed
//! seeds => bitwise identical results, regardless of core count or
//! batching) is a design requirement for the paper-reproduction
//! experiments.

pub mod gradcheck;
mod graph;
mod nnops;
mod ops;
mod shapeops;
mod tensor;

pub use graph::{BackwardCtx, Graph, Var, VarId};
pub use tensor::{
    gemm, matmul_into, matmul_into_packed, matmul_into_plain, set_kernel_threads, BatchLayout,
    Operand, Tensor, TensorError, ViewMeta,
};

/// Numerically stable log-sum-exp over a slice.
///
/// Used by losses and by evaluation code that needs `log P` without building
/// a graph.  Returns `-inf` for an empty slice.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !m.is_finite() {
        return m;
    }
    let s: f32 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// Standard normal sample via the Box–Muller transform.
///
/// `rand_distr` is not part of the sanctioned offline dependency set, so the
/// handful of places that need Gaussian initialisation use this helper.
pub fn box_muller<R: rand::Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.random::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.random::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        return r * (2.0 * std::f32::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn log_sum_exp_matches_naive() {
        let xs = [0.5f32, -1.0, 2.0, 0.0];
        let naive = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-5);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let xs = [1000.0f32, 999.0, 998.0];
        let v = log_sum_exp(&xs);
        assert!(v.is_finite());
        assert!((v - (1000.0 + (1.0f32 + (-1.0f32).exp() + (-2.0f32).exp()).ln())).abs() < 1e-3);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn box_muller_has_roughly_standard_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| box_muller(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
