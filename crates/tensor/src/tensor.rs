//! The dense tensor type and its non-differentiable kernels.

use std::fmt;
use std::sync::Arc;

/// Error type for fallible tensor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Data length does not match the product of the shape dimensions.
    ShapeMismatch { expected: usize, got: usize },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape requires {expected} elements but data has {got}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major `f32` tensor over shared storage.
///
/// The storage is exactly the logical elements in row-major order.
/// Kernels that read a tensor in another layout — the attention products
/// read a `[B, T, H·dk]` buffer as `[B·H, T, dk]` heads — address it
/// through a [`BatchLayout`] instead of reshaping it.
///
/// Storage is reference-counted, so `clone` is cheap; [`Tensor::data_mut`]
/// is copy-on-write (`Arc::make_mut`), which preserves value semantics
/// exactly.
///
/// All kernels assert shape compatibility with descriptive messages; the
/// workspace treats shape errors as programming bugs (like `ndarray` and
/// most ML runtimes do) rather than recoverable conditions.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", &self.data[..])
        } else {
            write!(f, " [{} elements]", self.data.len())
        }
    }
}

/// Internal dense constructor (storage length must already match).
fn dense(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
    debug_assert_eq!(numel(&shape), data.len());
    Tensor { shape, data: Arc::new(data) }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        dense(shape.to_vec(), vec![0.0; numel(shape)])
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        dense(shape.to_vec(), vec![value; numel(shape)])
    }

    /// A scalar tensor (shape `[1]`).
    pub fn scalar(value: f32) -> Self {
        dense(vec![1], vec![value])
    }

    /// Build from a data vector; panics if the length does not match.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        Self::try_from_vec(data, shape).expect("Tensor::from_vec")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    pub fn try_from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected = numel(shape);
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch { expected, got: data.len() });
        }
        Ok(dense(shape.to_vec(), data))
    }

    /// Build over an already-shared storage buffer (the graph buffer pool
    /// recycles whole `Arc`s so steady-state steps allocate neither data
    /// nor reference-count blocks).  Panics if the length does not match.
    pub fn from_shared(data: Arc<Vec<f32>>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "shape {shape:?} requires {} elements but storage has {}",
            numel(shape),
            data.len()
        );
        Tensor { shape: shape.to_vec(), data }
    }

    /// Build by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = numel(shape);
        dense(shape.to_vec(), (0..n).map(&mut f).collect())
    }

    /// I.i.d. normal entries `N(0, std²)`.
    pub fn randn<R: rand::Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        Self::from_fn(shape, |_| crate::box_muller(rng) * std)
    }

    /// I.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform<R: rand::Rng + ?Sized>(
        shape: &[usize],
        lo: f32,
        hi: f32,
        rng: &mut R,
    ) -> Self {
        Self::from_fn(shape, |_| lo + (hi - lo) * rng.random::<f32>())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable flat data in row-major order.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data (copy-on-write when the storage is shared with
    /// clones).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        let v: &mut Vec<f32> = Arc::make_mut(&mut self.data);
        v
    }

    /// Consume into the shared storage buffer (the graph pool recycles
    /// these whole, keeping the reference-count block alive).
    pub fn into_storage(self) -> Arc<Vec<f32>> {
        self.data
    }

    /// The single value of a scalar tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "Tensor::item on non-scalar shape {:?}", self.shape);
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = self.flat_index(idx);
        &mut Arc::make_mut(&mut self.data)[i]
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            flat = flat * s + i;
        }
        flat
    }

    /// Reinterpret with a new shape of identical element count, sharing
    /// storage (zero-copy).
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            numel(shape),
            self.len(),
            "reshape from {:?} to {:?} changes element count",
            self.shape,
            shape
        );
        Tensor { shape: shape.to_vec(), data: Arc::clone(&self.data) }
    }

    /// In-place reshape (no data movement).
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        assert_eq!(
            numel(shape),
            self.data.len(),
            "reshape from {:?} to {:?} changes element count",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
    }

    // ------------------------------------------------------------------
    // Elementwise kernels
    // ------------------------------------------------------------------

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        dense(self.shape.clone(), self.data().iter().map(|&x| f(x)).collect())
    }

    /// Elementwise combine with another tensor of identical shape.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        dense(
            self.shape.clone(),
            self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect(),
        )
    }

    /// `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Hadamard product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self * c`.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// `self += other` in place.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// `self += other` elementwise, ignoring shape metadata (element
    /// counts must match) — the backward of reshape-like ops.
    pub fn add_assign_flat(&mut self, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "add_assign_flat length mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// `self += c * other` in place (axpy).
    pub fn axpy(&mut self, c: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += c * b;
        }
    }

    /// Fill with zeros in place.
    pub fn zero_(&mut self) {
        self.data_mut().iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all entries (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum()
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix multiply: `[m,k] @ [k,n] -> [m,n]`.
    ///
    /// Delegates to [`matmul_into`]: blocked `i-k-j` order (inner loop is an
    /// axpy over the output row which LLVM auto-vectorises), thread-parallel
    /// over row blocks for large shapes.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape);
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {:?} vs {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; m * n];
        matmul_into(self.data(), other.data(), &mut out, m, k, n);
        dense(vec![m, n], out)
    }

    /// Batched 3-D matmul: `[b,m,k] @ [b,k,n] -> [b,m,n]`.
    ///
    /// One [`gemm`] call over dense operands: independent batch slices fan
    /// out over threads when the total work is large enough to amortise
    /// the spawn cost (batched inference across many users), and a single
    /// slice runs the row-parallel [`matmul_into`].  Every slice keeps the
    /// serial kernels' accumulation order, so results are identical to the
    /// sequential per-slice loop.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-D, got {:?}", self.shape);
        assert_eq!(other.ndim(), 3, "bmm rhs must be 3-D, got {:?}", other.shape);
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm batch dims differ");
        assert_eq!(k, k2, "bmm inner dims differ: {:?} vs {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; b * m * n];
        let (lhs, rhs) =
            (Operand::dense(self.data(), b, m, k), Operand::dense(other.data(), b, k, n));
        gemm(lhs, rhs, &mut out, &BatchLayout::dense(b, m, n), m, k, n);
        dense(vec![b, m, n], out)
    }

    /// 2-D transpose.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2d needs 2-D, got {:?}", self.shape);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        let data = self.data();
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = data[i * n + j];
            }
        }
        dense(vec![n, m], out)
    }

    /// Swap the last two axes of a 3-D tensor: `[b,m,n] -> [b,n,m]`.
    pub fn transpose_last2(&self) -> Tensor {
        assert_eq!(self.ndim(), 3, "transpose_last2 needs 3-D, got {:?}", self.shape);
        let (b, m, n) = (self.shape[0], self.shape[1], self.shape[2]);
        let mut out = vec![0.0f32; b * m * n];
        let data = self.data();
        for i in 0..b {
            let src = &data[i * m * n..(i + 1) * m * n];
            let dst = &mut out[i * m * n..(i + 1) * m * n];
            for r in 0..m {
                for c in 0..n {
                    dst[c * m + r] = src[r * n + c];
                }
            }
        }
        dense(vec![b, n, m], out)
    }

    // ------------------------------------------------------------------
    // Softmax-family kernels (forward only; differentiable wrappers live
    // in the autograd ops modules)
    // ------------------------------------------------------------------

    /// Softmax along the last axis (numerically stable).
    pub fn softmax_last(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_last_in_place();
        out
    }

    /// In-place variant of [`Tensor::softmax_last`] — the inference path
    /// normalises attention rows without an intermediate allocation, using
    /// the identical per-row kernel.
    pub fn softmax_last_in_place(&mut self) {
        let d = *self.shape.last().expect("softmax on 0-d tensor");
        assert!(d > 0, "softmax over empty last axis");
        for row in self.data_mut().chunks_mut(d) {
            softmax_in_place(row);
        }
    }

    /// Log-softmax along the last axis (numerically stable).
    pub fn log_softmax_last(&self) -> Tensor {
        let d = *self.shape.last().expect("log_softmax on 0-d tensor");
        assert!(d > 0, "log_softmax over empty last axis");
        let mut out = self.data().to_vec();
        for row in out.chunks_mut(d) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            row.iter_mut().for_each(|x| *x -= lse);
        }
        dense(self.shape.clone(), out)
    }

    /// Select timestep `t` from a `[B, T, D]` tensor -> `[B, D]` (the
    /// value-level mirror of `Var::select_step`).
    pub fn select_step(&self, t: usize) -> Tensor {
        assert_eq!(self.ndim(), 3, "select_step needs 3-D, got {:?}", self.shape);
        let (b, tt, d) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(t < tt, "select_step index {t} out of bounds for T={tt}");
        let data = self.data();
        let mut out = Vec::with_capacity(b * d);
        for bi in 0..b {
            out.extend_from_slice(&data[bi * tt * d + t * d..bi * tt * d + (t + 1) * d]);
        }
        dense(vec![b, d], out)
    }

    /// Gather rows of a 2-D tensor: `self[indices, :]`.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows needs 2-D, got {:?}", self.shape);
        let (rows, d) = (self.shape[0], self.shape[1]);
        let data = self.data();
        let mut out = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            assert!(i < rows, "gather_rows index {i} out of bounds ({rows} rows)");
            out.extend_from_slice(&data[i * d..(i + 1) * d]);
        }
        dense(vec![indices.len(), d], out)
    }

    /// Unfold sliding windows of width `w` along the time axis:
    /// `[B, T, D] -> [B, T-w+1, w*D]` — the value-level mirror of
    /// `Var::unfold_windows` (Caser's im2col step).
    pub fn unfold_windows(&self, w: usize) -> Tensor {
        assert_eq!(self.ndim(), 3, "unfold_windows needs 3-D, got {:?}", self.shape);
        let (b, t, d) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(w >= 1 && w <= t, "window width {w} out of range for T={t}");
        let windows = t - w + 1;
        let data = self.data();
        let mut out = vec![0.0f32; b * windows * w * d];
        for bi in 0..b {
            for s in 0..windows {
                let dst = bi * windows * w * d + s * w * d;
                let src = bi * t * d + s * d;
                out[dst..dst + w * d].copy_from_slice(&data[src..src + w * d]);
            }
        }
        dense(vec![b, windows, w * d], out)
    }

    /// Concatenate along the last axis — the value-level mirror of
    /// `Var::concat_last`.  All inputs must agree on the leading axes.
    pub fn concat_last(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_last of zero tensors");
        let lead = &parts[0].shape[..parts[0].shape.len() - 1];
        for p in parts {
            assert_eq!(
                &p.shape[..p.shape.len() - 1],
                lead,
                "concat_last leading axes differ: {:?}",
                parts.iter().map(|p| &p.shape).collect::<Vec<_>>()
            );
        }
        let widths: Vec<usize> = parts.iter().map(|p| *p.shape.last().unwrap()).collect();
        let total_w: usize = widths.iter().sum();
        let rows: usize = lead.iter().product();
        let mut out_shape = lead.to_vec();
        out_shape.push(total_w);
        let mut data = vec![0.0f32; rows * total_w];
        for r in 0..rows {
            let mut off = 0;
            for (p, &w) in parts.iter().zip(&widths) {
                data[r * total_w + off..r * total_w + off + w]
                    .copy_from_slice(&p.data()[r * w..(r + 1) * w]);
                off += w;
            }
        }
        dense(out_shape, data)
    }
}

/// Softmax of one row, in place and numerically stable.
pub(crate) fn softmax_in_place(row: &mut [f32]) {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        row.iter_mut().for_each(|x| *x *= inv);
    } else {
        // All entries were -inf; fall back to uniform to avoid NaN.
        let u = 1.0 / row.len() as f32;
        row.iter_mut().for_each(|x| *x = u);
    }
}

/// Tile height over the contraction axis: one tile of `b` (`K_BLOCK × n`
/// floats) stays cache-resident while it is streamed against every row of
/// `a`.
const K_BLOCK: usize = 64;

/// Multiply-accumulates every kernel thread keeps at least: a kernel fans
/// out from `2 · PAR_MIN_WORK` = 2²⁰ MACs, since below that the
/// spawn/join overhead outweighs the parallel speed-up.
const PAR_MIN_WORK: usize = 1 << 19;

/// Largest transposed-`a` slice (elements) [`gemm`] reads in place: while
/// it stays L1-resident its strided column reads are free, and skipping
/// the transpose pass wins — the regime of the GRU cell's per-timestep
/// `[B, D]ᵀ @ [B, H]` gradients and of every attention head.  Above this
/// the strided reads start missing and the slice is staged instead.
const TN_DIRECT_MAX_A: usize = 64 * 1024;

/// Kernel worker-thread override: `usize::MAX` follows the
/// `IRS_KERNEL_THREADS` default, 0 is automatic (work- and core-based).
/// Every kernel is bitwise-deterministic at any thread count, so the
/// override only affects scheduling — determinism tests use it to
/// exercise the parallel code paths on any host.
static KERNEL_THREADS: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(usize::MAX);

/// Force every tensor kernel to fan out over exactly `n` threads, the
/// calling thread among them, and every [`fan_out`] over at most `n`
/// (kernels inside a `fan_out` stay serial).  `None` restores the
/// default: the `IRS_KERNEL_THREADS` environment variable when it is set,
/// automatic selection otherwise.  Results are bitwise identical either
/// way; this is a scheduling knob, not a numerics knob.
pub fn set_kernel_threads(n: Option<usize>) {
    KERNEL_THREADS.store(n.unwrap_or(usize::MAX), std::sync::atomic::Ordering::Relaxed);
}

fn kernel_threads_override() -> usize {
    static ENV_DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    match KERNEL_THREADS.load(std::sync::atomic::Ordering::Relaxed) {
        usize::MAX => *ENV_DEFAULT.get_or_init(|| {
            std::env::var("IRS_KERNEL_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
        }),
        n => n,
    }
}

thread_local! {
    /// Set while a thread computes a part of a multi-part fan-out, the
    /// calling thread's own part included: the fan holds the cores, so
    /// nothing started in a part fans out again.
    static FAN_OUT_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Flags this thread as a fan-out worker until dropped, then restores the
/// flag it found, also when the part unwinds.
struct WorkerFlag(bool);

impl WorkerFlag {
    fn set() -> WorkerFlag {
        WorkerFlag(FAN_OUT_WORKER.replace(true))
    }
}

impl Drop for WorkerFlag {
    fn drop(&mut self) {
        FAN_OUT_WORKER.set(self.0);
    }
}

/// The thread count the policy allows on this thread: 1 while it computes
/// a part of a fan-out, otherwise the override's count or, when there is
/// none, `automatic()`; never more than 16.
fn allowed_threads(automatic: impl FnOnce() -> usize) -> usize {
    if FAN_OUT_WORKER.get() {
        return 1;
    }
    match kernel_threads_override() {
        0 => automatic(),
        forced => forced,
    }
    .min(16)
}

/// The host's core count, read once: `available_parallelism` reads the
/// cgroup quota files on Linux, about 9 µs per call.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker-thread count for a kernel of `work` multiply-accumulates: when
/// not forced, 1 when the problem is small or the host is single-core,
/// otherwise capped so every thread keeps at least `PAR_MIN_WORK` MACs.
fn parallelism_for(work: usize) -> usize {
    allowed_threads(|| if work < 2 * PAR_MIN_WORK { 1 } else { cores().min(work / PAR_MIN_WORK) })
}

/// Run `f` over contiguous ranges that split `0..n`, the first on the
/// calling thread and each other on a scoped worker, and return the
/// results in range order.
///
/// The batch level of the thread policy: each range holds at least `min`
/// items (a single range holds all `n` when `n < 2·min`), and there are
/// at most as many ranges as cores, or as the kernel-thread override
/// forces (`set_kernel_threads`, `IRS_KERNEL_THREADS`).  While a range
/// runs, every kernel runs serially and a nested `fan_out` runs its one
/// range in place, so a fan-out that holds the cores never starts
/// threads beneath it.  A single range runs on the calling thread
/// unflagged, so its kernels keep their own fan-out.
pub fn fan_out<T: Send>(
    n: usize,
    min: usize,
    f: impl Fn(std::ops::Range<usize>) -> T + Sync,
) -> Vec<T> {
    run_ranges(split_ranges(n, min, allowed_threads(cores)), f)
}

/// `0..n` cut into `(n / min).clamp(1, workers)` contiguous ranges in
/// order, their lengths differing by at most one, so each holds at least
/// `min` items whenever `n ≥ min`.
fn split_ranges(n: usize, min: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let parts = (n / min.max(1)).clamp(1, workers);
    let (len, longer) = (n / parts, n % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let end = start + len + usize::from(i < longer);
            std::mem::replace(&mut start, end)..end
        })
        .collect()
}

/// Every fan-out in this crate, at either level: `f` on every part,
/// results in part order.  The calling thread computes the first part
/// and one scoped worker each of the others, all of them flagged as
/// fan-out workers while their part runs.  A single part runs on the
/// calling thread unflagged.  A worker's panic resumes on the calling
/// thread.
fn run_ranges<P: Send, T: Send>(parts: Vec<P>, f: impl Fn(P) -> T + Sync) -> Vec<T> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return Vec::new() };
    if parts.len() == 0 {
        return vec![f(first)];
    }
    let work = &|part| {
        let _worker = WorkerFlag::set();
        f(part)
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = parts.map(|part| scope.spawn(move || work(part))).collect();
        let mut results = Vec::with_capacity(workers.len() + 1);
        results.push(work(first));
        results.extend(
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))),
        );
        results
    })
}

/// Run `f(rows, out_rows)` over contiguous row chunks of `out`, a matrix
/// of `rows` equal rows: a kernel of `work` multiply-accumulates fans out
/// over `parallelism_for(work).min(rows)` parts of `rows.div_ceil(parts)`
/// rows each (the last may be shorter), and otherwise runs `f` once on
/// all rows, on the calling thread.
fn fan_rows(
    out: &mut [f32],
    rows: usize,
    work: usize,
    f: impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
) {
    let threads = parallelism_for(work).min(rows);
    if threads <= 1 {
        return f(0..rows, out);
    }
    let (rows_per, row_len) = (rows.div_ceil(threads), out.len() / rows);
    let parts = out
        .chunks_mut(rows_per * row_len)
        .enumerate()
        .map(|(i, chunk)| (i * rows_per..i * rows_per + chunk.len() / row_len, chunk))
        .collect();
    run_ranges(parts, |(range, chunk)| f(range, chunk));
}

/// `out += a @ b` where `a` is `m×k`, `b` is `k×n`, `out` is `m×n` — the
/// dense 2-D product, and what [`gemm`] runs for a single dense slice.
///
/// The `K_BLOCK`-tiled `i-k-j` loop (`matmul_block_l`), with row blocks
/// fanned out for large shapes: the calling thread computes the first
/// block and one scoped thread each of the others.  Every output element
/// accumulates its `k` products in increasing-`k` order regardless of
/// blocking or threading, so results are bitwise identical to the naive
/// `i-k-j` loop — batched forwards reproduce scalar forwards exactly.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    fan_rows(out, m, m * k * n, |rows, out| {
        matmul_block_l(a, rows.start * k, k, b, 0, n, out, 0, n, rows.len(), k, n);
    });
}

// ---------------------------------------------------------------------
// Strided batched products: one `gemm` over layouts and transposes
// ---------------------------------------------------------------------

/// Address map of a batched `[S, rows, rowlen]` operand whose rows are
/// contiguous `rowlen`-float runs: row `i` of slice `s` starts at
/// `(s/inner)·outer_stride + (s%inner)·inner_stride + i·row_stride`.
///
/// * dense `[S, m, k]`: `inner = 1`, `outer_stride = m·k`, `row_stride = k`
/// * head-split `[B, T, D]` read as `[B·H, T, D/H]`: `outer = B`,
///   `inner = H`, `outer_stride = T·D`, `inner_stride = D/H`,
///   `row_stride = D` — slice `s = b·H + h`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchLayout {
    /// Outer slice-group count (`B` for head-split layouts, `S` for dense).
    pub outer: usize,
    /// Slices per outer group (`H` for head-split layouts, 1 for dense).
    pub inner: usize,
    /// Stride between outer groups.
    pub outer_stride: usize,
    /// Stride between inner slices of one group.
    pub inner_stride: usize,
    /// Stride between consecutive rows of a slice.
    pub row_stride: usize,
}

impl BatchLayout {
    /// The layout of a dense `[s, rows, rowlen]` tensor.
    pub fn dense(s: usize, rows: usize, rowlen: usize) -> BatchLayout {
        BatchLayout {
            outer: s,
            inner: 1,
            outer_stride: rows * rowlen,
            inner_stride: 0,
            row_stride: rowlen,
        }
    }

    /// A dense `[b, rows, heads·dk]` buffer read as `[b·heads, rows, dk]`:
    /// slice `s = b'·heads + h` row `i` is the `h`-th `dk`-chunk of row
    /// `i` of batch element `b'`.  Reading through it splits heads, and
    /// writing through it merges them.
    pub fn head_split(b: usize, heads: usize, rows: usize, dk: usize) -> BatchLayout {
        BatchLayout {
            outer: b,
            inner: heads,
            outer_stride: rows * heads * dk,
            inner_stride: dk,
            row_stride: heads * dk,
        }
    }

    /// Total slice count.
    #[inline]
    pub fn slices(&self) -> usize {
        self.outer * self.inner
    }

    /// Storage offset of row 0 of slice `s`.
    #[inline]
    fn slice_base(&self, s: usize) -> usize {
        (s / self.inner) * self.outer_stride + (s % self.inner) * self.inner_stride
    }
}

/// One operand of [`gemm`]: `data` holds a batched matrix whose stored
/// rows `layout` locates, and the product reads each slice transposed
/// when `transposed` is set.  A transposed `[rows, cols]` operand is
/// stored as `[cols, rows]` slices.
#[derive(Clone, Copy, Debug)]
pub struct Operand<'a> {
    /// Storage holding every slice.
    pub data: &'a [f32],
    /// Where the stored rows of each slice live.
    pub layout: BatchLayout,
    /// Read each slice as the transpose of its stored matrix.
    pub transposed: bool,
}

impl<'a> Operand<'a> {
    /// The operand stored in `data` at `layout`, read as stored.
    pub fn new(data: &'a [f32], layout: BatchLayout) -> Operand<'a> {
        Operand { data, layout, transposed: false }
    }

    /// A dense `[s, rows, cols]` operand, read as stored.
    pub fn dense(data: &'a [f32], s: usize, rows: usize, cols: usize) -> Operand<'a> {
        Operand::new(data, BatchLayout::dense(s, rows, cols))
    }

    /// The same storage, read transposed.
    pub fn t(self) -> Operand<'a> {
        Operand { transposed: true, ..self }
    }
}

/// `out[s] += op(a[s]) · op(b[s])` for every slice `s` of `lo`, where
/// `op(a[s])` is `m×k`, `op(b[s])` is `k×n` and `out`'s slices are `m×n`
/// rows located by `lo`.
///
/// The strategy is picked from shapes and layouts alone:
///
/// * a transposed `b` is staged dense per slice in a thread-local scratch
///   buffer — reading it in place would stride the inner loop;
/// * a transposed `a` is read in place while a slice has at most 64 Ki
///   elements, and staged above that; a single slice read in place with
///   dense output rows splits them over threads as [`matmul_into`] does;
/// * a single slice whose operands are (or were staged) dense goes to the
///   row-parallel [`matmul_into`];
/// * batches fan out over slices, and every other slice runs the same
///   `K_BLOCK`-tiled loop serially, walking strided rows in place.
///
/// There is one dense loop and no shape crossover.  A packed-B,
/// register-tiled variant measured 4–6% faster only at `k·n ≥ 2¹⁷`; the
/// widest product any shipped configuration builds, the output head at
/// full MovieLens-like scale, has `k·n` = 32 × 3417 = 109,344.
///
/// Every output element accumulates its `k` products in ascending order,
/// skipping terms whose left element `op(a)[i, p]` is zero, so results
/// are bitwise identical at any layout, strategy and thread count.  The
/// skip reads the left operand only: `bmm_nt`'s `dB` runs as `gᵀ·a` and
/// skips on `g`, where the scatter it replaced skipped on `a`.  For
/// finite inputs and a `+0.0` output that moves no bit — a skipped `±0`
/// product leaves such a sum unchanged — but NaN/inf propagation can
/// differ (`0·inf` is NaN only when it is not skipped).
///
/// `m`, `k` or `n` equal to 0 returns at once.  Panics when both operands
/// are transposed (no caller needs it) or when the slice counts differ.
pub fn gemm(
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    lo: &BatchLayout,
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(!(a.transposed && b.transposed), "gemm: both operands transposed");
    let slices = lo.slices();
    assert_eq!(a.layout.slices(), slices, "gemm: lhs batch differs from the output's");
    assert_eq!(b.layout.slices(), slices, "gemm: rhs batch differs from the output's");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let whole = slices == 1;
    fan_slices(out, lo, m * k * n, |s, o, o0| {
        gemm_slice(&a, &b, s, o, o0, lo.row_stride, whole, m, k, n);
    });
}

/// Slice `s` of [`gemm`], written into `out` rows `o0 + i·ors`.  `whole`
/// marks a single-slice call, whose dense or in-place transposed product
/// may fan its rows out over threads.
#[allow(clippy::too_many_arguments)]
fn gemm_slice(
    a: &Operand,
    b: &Operand,
    s: usize,
    out: &mut [f32],
    o0: usize,
    ors: usize,
    whole: bool,
    m: usize,
    k: usize,
    n: usize,
) {
    with_staged(b, s, k, n, |b, b0, brs| {
        if a.transposed && m * k <= TN_DIRECT_MAX_A {
            let (a0, ars) = (a.layout.slice_base(s), a.layout.row_stride);
            if whole && ors == n {
                // Output row `i` reads column `i` of the stored `a`.
                return fan_rows(&mut out[o0..o0 + m * n], m, m * k * n, |rows, out| {
                    let (a0, m) = (a0 + rows.start, rows.len());
                    matmul_tn_l(a.data, a0, ars, b, b0, brs, out, 0, n, m, k, n);
                });
            }
            return matmul_tn_l(a.data, a0, ars, b, b0, brs, out, o0, ors, m, k, n);
        }
        with_staged(a, s, m, k, |a, a0, ars| {
            if whole && ars == k && brs == n && ors == n {
                let (a, b) = (&a[a0..a0 + m * k], &b[b0..b0 + k * n]);
                matmul_into(a, b, &mut out[o0..o0 + m * n], m, k, n);
            } else {
                matmul_block_l(a, a0, ars, b, b0, brs, out, o0, ors, m, k, n);
            }
        })
    });
}

thread_local! {
    /// Reusable per-thread transpose scratch: a training step runs
    /// hundreds of backward products against transposed operands at
    /// model-sized shapes, and a fresh alloc+memset per transpose
    /// measurably drags the small-shape families (GRU cells).
    static TRANSPOSE_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f(data, base, row_stride)` on slice `s` of `x` read as a `[rows,
/// cols]` matrix: rows in place for an operand read as stored, a dense
/// copy in the thread-local scratch for a transposed one.
fn with_staged<R>(
    x: &Operand,
    s: usize,
    rows: usize,
    cols: usize,
    f: impl FnOnce(&[f32], usize, usize) -> R,
) -> R {
    let (base, rs) = (x.layout.slice_base(s), x.layout.row_stride);
    if !x.transposed {
        return f(x.data, base, rs);
    }
    TRANSPOSE_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let len = rows * cols;
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        for c in 0..cols {
            for (r, &v) in x.data[base + c * rs..base + c * rs + rows].iter().enumerate() {
                buf[r * cols + c] = v;
            }
        }
        f(&buf[..len], 0, cols)
    })
}

/// Fan `run(s, out_chunk, o_base)` over the slices of `lo`, in parallel
/// over outer groups when the total multiply-accumulate count warrants it
/// and the groups tile `out` exactly (so the parts own disjoint
/// `chunks_mut(outer_stride)`, as [`fan_rows`] splits rows); serial
/// otherwise.  Slices are independent, so the fan never changes results.
fn fan_slices(
    out: &mut [f32],
    lo: &BatchLayout,
    work_per_slice: usize,
    run: impl Fn(usize, &mut [f32], usize) + Sync,
) {
    if lo.outer * lo.outer_stride != out.len() {
        for s in 0..lo.slices() {
            run(s, out, lo.slice_base(s));
        }
        return;
    }
    fan_rows(out, lo.outer, work_per_slice * lo.slices(), |groups, chunk| {
        for sl in 0..groups.len() * lo.inner {
            let base = (sl / lo.inner) * lo.outer_stride + (sl % lo.inner) * lo.inner_stride;
            run(groups.start * lo.inner + sl, chunk, base);
        }
    });
}

/// The plain serial loop: `out += a @ b` over rows located by
/// `(base, row_stride)` per operand, with `K_BLOCK`-tall tiles of `b`
/// reused across all rows of `a`.  Per output element the `k` loop runs
/// in increasing order (tiles are visited in order, rows within a tile in
/// order) with the skip-zero rule on `a[i, p]`.
#[allow(clippy::too_many_arguments)]
fn matmul_block_l(
    a: &[f32],
    a0: usize,
    ars: usize,
    b: &[f32],
    b0: usize,
    brs: usize,
    out: &mut [f32],
    o0: usize,
    ors: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut kb = 0;
    while kb < k {
        let kend = (kb + K_BLOCK).min(k);
        for i in 0..m {
            let a_row = &a[a0 + i * ars..a0 + i * ars + k];
            let out_row = &mut out[o0 + i * ors..o0 + i * ors + n];
            for p in kb..kend {
                let a_ip = a_row[p];
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[b0 + p * brs..b0 + p * brs + n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            }
        }
        kb = kend;
    }
}

/// The transposed-`a` serial loop: `out += aᵀ @ b` with `a` stored
/// `[k, m]` and read in place, `out[i, :] += a[p, i] · b[p, :]`.  Same
/// `K_BLOCK` tiling, ascending `p` per output element and skip-zero rule
/// as [`matmul_block_l`] — bitwise identical to staging `aᵀ` first.  A
/// runtime column stride folded into the plain loop instead slowed
/// attention-sized products by 10–30%.
#[allow(clippy::too_many_arguments)]
fn matmul_tn_l(
    a: &[f32],
    a0: usize,
    ars: usize,
    b: &[f32],
    b0: usize,
    brs: usize,
    out: &mut [f32],
    o0: usize,
    ors: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut kb = 0;
    while kb < k {
        let kend = (kb + K_BLOCK).min(k);
        for i in 0..m {
            let out_row = &mut out[o0 + i * ors..o0 + i * ors + n];
            for p in kb..kend {
                let a_pi = a[a0 + p * ars + i];
                if a_pi == 0.0 {
                    continue;
                }
                let b_row = &b[b0 + p * brs..b0 + p * brs + n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_pi * b_pj;
                }
            }
        }
        kb = kend;
    }
}

/// Product of a shape's dimensions.
pub(crate) fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.len(), 6);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.at(&[0, 0]), 1.0);
    }

    #[test]
    fn try_from_vec_rejects_bad_shapes() {
        let err = Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(err, TensorError::ShapeMismatch { expected: 6, got: 5 });
    }

    #[test]
    #[should_panic(expected = "matmul inner dims differ")]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let id = Tensor::from_fn(&[4, 4], |i| if i / 4 == i % 4 { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| (x as f32) * 0.5).collect(), &[2, 3, 2]);
        let c = a.bmm(&b);
        for i in 0..2 {
            let ai = Tensor::from_vec(a.data()[i * 6..(i + 1) * 6].to_vec(), &[2, 3]);
            let bi = Tensor::from_vec(b.data()[i * 6..(i + 1) * 6].to_vec(), &[3, 2]);
            let ci = ai.matmul(&bi);
            assert_eq!(&c.data()[i * 4..(i + 1) * 4], ci.data());
        }
    }

    #[test]
    fn transpose2d_round_trips() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let t = a.transpose2d();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose2d(), a);
    }

    #[test]
    fn transpose_last2_round_trips() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[2, 4, 3]);
        assert_eq!(t.at(&[1, 3, 2]), a.at(&[1, 2, 3]));
        assert_eq!(t.transpose_last2(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_last();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_handles_all_neg_inf_row() {
        let t = Tensor::from_vec(vec![f32::NEG_INFINITY; 4], &[1, 4]);
        let s = t.softmax_last();
        for &p in s.data() {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.3, -0.7, 1.9, 0.0, 5.0, -5.0], &[2, 3]);
        let a = t.log_softmax_last();
        let b = t.softmax_last().map(f32::ln);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn gather_rows_picks_expected_rows() {
        let t = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[4, 2]);
        let g = t.gather_rows(&[3, 0, 3]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[6.0, 7.0, 0.0, 1.0, 6.0, 7.0]);
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[16.0, 32.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = a.reshaped(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn stats_helpers() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.sq_norm(), 14.0);
    }

    /// Reference i-k-j matmul, no blocking or threading.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = a.data()[i * k + p];
                for j in 0..n {
                    out[i * n + j] += a_ip * b.data()[p * n + j];
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    #[test]
    fn blocked_matmul_is_bitwise_equal_to_naive_across_tile_boundaries() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Inner dims straddling the K_BLOCK=64 tile edge, plus odd sizes.
        for &(m, k, n) in &[(3, 63, 5), (4, 64, 7), (5, 65, 3), (2, 130, 9), (1, 1, 1)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            assert_eq!(a.matmul(&b).data(), naive_matmul(&a, &b).data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matmul_is_bitwise_equal_to_naive() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        // Large enough to cross PAR_MIN_WORK on multi-core hosts; on a
        // single-core host this still exercises the blocked serial path.
        let a = Tensor::randn(&[128, 96], 1.0, &mut rng);
        let b = Tensor::randn(&[96, 128], 1.0, &mut rng);
        assert_eq!(a.matmul(&b).data(), naive_matmul(&a, &b).data());
    }

    #[test]
    fn parallel_bmm_matches_sequential_per_batch_matmul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (b, m, k, n) = (24, 17, 32, 33);
        let x = Tensor::randn(&[b, m, k], 1.0, &mut rng);
        let y = Tensor::randn(&[b, k, n], 1.0, &mut rng);
        let z = x.bmm(&y);
        for i in 0..b {
            let xi = Tensor::from_vec(x.data()[i * m * k..(i + 1) * m * k].to_vec(), &[m, k]);
            let yi = Tensor::from_vec(y.data()[i * k * n..(i + 1) * k * n].to_vec(), &[k, n]);
            assert_eq!(&z.data()[i * m * n..(i + 1) * m * n], xi.matmul(&yi).data());
        }
    }

    #[test]
    fn matmul_skips_zero_a_against_inf_in_b() {
        // A zero in A skips its whole row of B, so an inf there never turns
        // into a NaN (`0·inf`) in the output.
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0, 0.0, 3.0], &[2, 3]);
        let mut b = Tensor::zeros(&[3, 20]);
        b.data_mut()[0] = f32::INFINITY; // row 0 of B, only ever hit by a=0.0
        let (m, k, n) = (2, 3, 20);
        let mut out = vec![0.0f32; m * n];
        matmul_into(a.data(), b.data(), &mut out, m, k, n);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    /// `out += op(a) · op(b)` for one dense 2-D slice.
    fn gemm_2d(a: Operand, b: Operand, out: &mut [f32], m: usize, k: usize, n: usize) {
        gemm(a, b, out, &BatchLayout::dense(1, m, n), m, k, n);
    }

    #[test]
    fn nt_kernel_is_bitwise_equal_to_transpose_then_matmul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        // Shapes straddling K_BLOCK, plus zeros in g to exercise the skip
        // rule.
        for &(m, n, k) in &[(1, 1, 1), (3, 7, 5), (4, 65, 9), (8, 130, 3), (5, 16, 21)] {
            let mut g = Tensor::randn(&[m, n], 1.0, &mut rng);
            for (i, v) in g.data_mut().iter_mut().enumerate() {
                if i % 5 == 0 {
                    *v = 0.0;
                }
            }
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let reference = g.matmul(&b.transpose2d());
            let mut out = vec![0.0f32; m * k];
            let bt = Operand::dense(b.data(), 1, k, n).t();
            gemm_2d(Operand::dense(g.data(), 1, m, n), bt, &mut out, m, n, k);
            assert_eq!(out, reference.data(), "nt {m}x{n}x{k}");
        }
    }

    #[test]
    fn tn_kernel_is_bitwise_equal_to_transpose_then_matmul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for &(m, k, n) in &[(1, 1, 1), (7, 3, 5), (65, 4, 9), (130, 8, 3), (16, 5, 21)] {
            let mut a = Tensor::randn(&[m, k], 1.0, &mut rng);
            for (i, v) in a.data_mut().iter_mut().enumerate() {
                if i % 4 == 0 {
                    *v = 0.0;
                }
            }
            let g = Tensor::randn(&[m, n], 1.0, &mut rng);
            let reference = a.transpose2d().matmul(&g);
            let mut out = vec![0.0f32; k * n];
            let at = Operand::dense(a.data(), 1, m, k).t();
            gemm_2d(at, Operand::dense(g.data(), 1, m, n), &mut out, k, m, n);
            assert_eq!(out, reference.data(), "tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn nt_tn_kernels_accumulate_into_nonzero_out() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let (m, n, k) = (5, 9, 6);
        let g = Tensor::randn(&[m, n], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let seed: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut out = seed.clone();
        let bt = Operand::dense(b.data(), 1, k, n).t();
        gemm_2d(Operand::dense(g.data(), 1, m, n), bt, &mut out, m, n, k);
        let mut expected = Tensor::from_vec(seed, &[m, k]);
        expected.add_assign(&g.matmul(&b.transpose2d()));
        // Accumulation starts from the existing out value per element, so
        // tolerances — not bitwise — are the right comparison for the
        // seeded case (the bitwise contract is for fresh zero slots).
        for (a, e) in out.iter().zip(expected.data()) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
    }

    #[test]
    fn batched_nt_tn_kernels_match_per_slice_2d_kernels() {
        // The slice fan (S > 1) and the single-slice path agree bit for bit.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let (bt, m, k, n) = (3, 4, 5, 7);
        let a = Tensor::randn(&[bt, m, k], 1.0, &mut rng);
        let g = Tensor::randn(&[bt, m, n], 1.0, &mut rng);
        let b = Tensor::randn(&[bt, k, n], 1.0, &mut rng);

        let mut da = vec![0.0f32; bt * m * k];
        let (gs, bts) =
            (Operand::dense(g.data(), bt, m, n), Operand::dense(b.data(), bt, k, n).t());
        gemm(gs, bts, &mut da, &BatchLayout::dense(bt, m, k), m, n, k);
        let mut db = vec![0.0f32; bt * k * n];
        let ats = Operand::dense(a.data(), bt, m, k).t();
        gemm(ats, gs, &mut db, &BatchLayout::dense(bt, k, n), k, m, n);

        for s in 0..bt {
            let (a_s, g_s) =
                (&a.data()[s * m * k..(s + 1) * m * k], &g.data()[s * m * n..(s + 1) * m * n]);
            let b_s = &b.data()[s * k * n..(s + 1) * k * n];
            let mut da_ref = vec![0.0f32; m * k];
            let bt_s = Operand::dense(b_s, 1, k, n).t();
            gemm_2d(Operand::dense(g_s, 1, m, n), bt_s, &mut da_ref, m, n, k);
            assert_eq!(&da[s * m * k..(s + 1) * m * k], &da_ref[..]);
            let mut db_ref = vec![0.0f32; k * n];
            let at_s = Operand::dense(a_s, 1, m, k).t();
            gemm_2d(at_s, Operand::dense(g_s, 1, m, n), &mut db_ref, k, m, n);
            assert_eq!(&db[s * k * n..(s + 1) * k * n], &db_ref[..]);
        }
    }

    #[test]
    fn forced_kernel_threads_do_not_change_results() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let a = Tensor::randn(&[33, 48], 1.0, &mut rng);
        let b = Tensor::randn(&[17, 48], 1.0, &mut rng);
        let g = Tensor::randn(&[33, 17], 1.0, &mut rng);
        // Three forced threads split the 47 output rows of cᵀ·g unevenly.
        let c = Tensor::randn(&[33, 47], 1.0, &mut rng);
        let run = || {
            let mut nt = vec![0.0f32; 33 * 17];
            let bt = Operand::dense(b.data(), 1, 17, 48).t();
            gemm_2d(Operand::dense(a.data(), 1, 33, 48), bt, &mut nt, 33, 48, 17);
            let tn: Vec<Vec<f32>> = [&a, &c]
                .iter()
                .map(|x| {
                    let m = x.shape()[1];
                    let mut tn = vec![0.0f32; m * 17];
                    let xt = Operand::dense(x.data(), 1, 33, m).t();
                    gemm_2d(xt, Operand::dense(g.data(), 1, 33, 17), &mut tn, m, 33, 17);
                    tn
                })
                .collect();
            (a.matmul(&b.transpose2d()), nt, tn)
        };
        let (serial_mm, serial_nt, serial_tn) = run();
        set_kernel_threads(Some(3));
        let (par_mm, par_nt, par_tn) = run();
        set_kernel_threads(None);
        assert_eq!(serial_mm.data(), par_mm.data());
        assert_eq!(serial_nt, par_nt);
        assert_eq!(serial_tn, par_tn);
    }

    #[test]
    fn zero_size_products_return_at_once_under_forced_threads() {
        set_kernel_threads(Some(2));
        let no_cols = Tensor::zeros(&[4, 3]).matmul(&Tensor::zeros(&[3, 0]));
        let no_inner = Tensor::ones(&[4, 0]).matmul(&Tensor::ones(&[0, 5]));
        let no_batch_cols = Tensor::zeros(&[2, 4, 3]).bmm(&Tensor::zeros(&[2, 3, 0]));
        matmul_into(&[1.0; 12], &[], &mut [], 4, 3, 0);
        let mut out = [0.0f32; 6];
        gemm(
            Operand::dense(&[], 2, 0, 4),
            Operand::dense(&[], 2, 4, 3),
            &mut [],
            &BatchLayout::dense(2, 0, 3),
            0,
            4,
            3,
        );
        gemm(
            Operand::dense(&[], 1, 2, 0),
            Operand::dense(&[], 1, 0, 3),
            &mut out,
            &BatchLayout::dense(1, 2, 3),
            2,
            0,
            3,
        );
        set_kernel_threads(None);
        assert_eq!(no_cols.shape(), &[4, 0]);
        assert_eq!(no_inner.data(), &[0.0; 20]);
        assert_eq!(no_batch_cols.shape(), &[2, 4, 0]);
        assert_eq!(out, [0.0; 6]);
    }

    #[test]
    fn fan_out_ranges_cover_the_batch_in_order() {
        for n in 0..100 {
            for min in 0..12 {
                for workers in 1..6 {
                    let ranges = split_ranges(n, min, workers);
                    assert_eq!(ranges.len(), (n / min.max(1)).clamp(1, workers));
                    assert_eq!(ranges[0].start, 0);
                    assert_eq!(ranges[ranges.len() - 1].end, n);
                    assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                    let lens = || ranges.iter().map(|r| r.len());
                    assert!(lens().max().unwrap() - lens().min().unwrap() <= 1);
                    if n >= min {
                        assert!(lens().all(|len| len >= min), "{ranges:?} of {n}, min {min}");
                    }
                    assert_eq!(run_ranges(ranges.clone(), |r| r), ranges);
                }
            }
        }
    }

    #[test]
    fn the_calling_thread_computes_the_first_part() {
        let caller = std::thread::current().id();
        let seen = run_ranges(vec![0..1, 1..2, 2..3, 3..4], |r| {
            (r.start, std::thread::current().id(), FAN_OUT_WORKER.get())
        });
        assert_eq!(seen.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(seen[0].1, caller);
        let others: std::collections::HashSet<_> = seen[1..].iter().map(|s| s.1).collect();
        assert_eq!(others.len(), 3);
        assert!(!others.contains(&caller));
        assert!(seen.iter().all(|s| s.2), "every part runs as a fan-out worker");
        assert!(!FAN_OUT_WORKER.get());
        // The flag is restored when the caller's own part panics, and a
        // worker's panic resumes on the caller.
        for panicking in 0..2 {
            let run = || run_ranges(vec![0..1, 1..2], |r| assert_ne!(r.start, panicking));
            assert!(std::panic::catch_unwind(run).is_err());
            assert!(!FAN_OUT_WORKER.get());
        }
    }

    #[test]
    fn kernels_on_fan_out_workers_run_serially_even_when_forced() {
        set_kernel_threads(Some(3));
        let seen = run_ranges(vec![0..1, 1..2, 2..3], |r| {
            (r.start, parallelism_for(usize::MAX), fan_out(64, 1, |inner| inner.len()))
        });
        set_kernel_threads(None);
        assert_eq!(seen, [(0, 1, vec![64]), (1, 1, vec![64]), (2, 1, vec![64])]);
        // A single range runs on the calling thread, which is no worker.
        let calling_thread = run_ranges(split_ranges(4, 4, 3), |_| FAN_OUT_WORKER.get());
        assert_eq!(calling_thread, [false]);
    }

    #[test]
    fn transposed_lhs_above_the_in_place_limit_is_staged() {
        // A 300×300 stored slice (90 000 elements) is past TN_DIRECT_MAX_A,
        // so both the single-slice and the batched call stage it.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let (s, m, k, n) = (2, 300, 300, 3);
        assert!(m * k > TN_DIRECT_MAX_A);
        let a = Tensor::randn(&[s, k, m], 1.0, &mut rng);
        let b = Tensor::randn(&[s, k, n], 1.0, &mut rng);
        let mut batched = vec![0.0f32; s * m * n];
        let (at, bs) = (Operand::dense(a.data(), s, k, m).t(), Operand::dense(b.data(), s, k, n));
        gemm(at, bs, &mut batched, &BatchLayout::dense(s, m, n), m, k, n);
        for i in 0..s {
            let a_i = Tensor::from_vec(a.data()[i * k * m..(i + 1) * k * m].to_vec(), &[k, m]);
            let b_i = Tensor::from_vec(b.data()[i * k * n..(i + 1) * k * n].to_vec(), &[k, n]);
            let want = naive_matmul(&a_i.transpose2d(), &b_i);
            let mut single = vec![0.0f32; m * n];
            gemm_2d(
                Operand::dense(a_i.data(), 1, k, m).t(),
                Operand::dense(b_i.data(), 1, k, n),
                &mut single,
                m,
                k,
                n,
            );
            assert_eq!(single, want.data());
            assert_eq!(&batched[i * m * n..(i + 1) * m * n], want.data());
        }
    }

    #[test]
    fn unfold_and_concat_value_helpers_match_graph_ops() {
        use crate::graph::Graph;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let x = Tensor::randn(&[2, 5, 3], 1.0, &mut rng);
        let g = Graph::new();
        let xv = g.constant(x.clone());
        assert_eq!(x.unfold_windows(2).data(), xv.unfold_windows(2).value().data());
        let y = Tensor::randn(&[2, 5, 4], 1.0, &mut rng);
        let yv = g.constant(y.clone());
        let cat = Tensor::concat_last(&[&x, &y]);
        let cat_v = crate::graph::Var::concat_last(&[xv, yv]);
        assert_eq!(cat.shape(), &[2, 5, 7]);
        assert_eq!(cat.data(), cat_v.value().data());
    }

    #[test]
    fn randn_seeded_is_deterministic() {
        use rand::SeedableRng;
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        let a = Tensor::randn(&[4, 4], 0.1, &mut r1);
        let b = Tensor::randn(&[4, 4], 0.1, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn reshape_shares_storage() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.reshaped(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data().as_ptr(), t.data().as_ptr());
    }

    #[test]
    fn data_mut_copy_on_write_leaves_clones_untouched() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[9.0, 2.0]);
    }

    // -- gemm over head-split layouts ---------------------------------

    fn layout_fixture() -> (Tensor, Tensor, usize, usize, usize, usize) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let (b, h, t, d) = (2, 4, 5, 24);
        let q = Tensor::randn(&[b, t, d], 1.0, &mut rng);
        let k = Tensor::randn(&[b, t, d], 1.0, &mut rng);
        (q, k, b, h, t, d / h)
    }

    /// The copying head split `[b, t, h·dk] -> [b·h, t, dk]` that
    /// `Var::split_heads` runs: the reference every head-split layout
    /// must address.
    fn split_copy(x: &Tensor, h: usize) -> Tensor {
        crate::graph::Graph::new().constant(x.clone()).split_heads(h).value()
    }

    #[test]
    fn bmm_nt_layout_matches_dense_on_materialized_views() {
        let (q, k, b, h, t, dk) = layout_fixture();
        let split = BatchLayout::head_split(b, h, t, dk);
        // Q · Kᵀ with both operands read through head-split layouts.
        let lhs = Operand::new(q.data(), split);
        let rhs = Operand::new(k.data(), split).t();
        let mut got = vec![0.0f32; b * h * t * t];
        gemm(lhs, rhs, &mut got, &BatchLayout::dense(b * h, t, t), t, dk, t);
        // Reference: dense bmm on copied splits and transpose.
        let want = split_copy(&q, h).bmm(&split_copy(&k, h).transpose_last2());
        assert_eq!(got, want.data());
    }

    #[test]
    fn bmm_layout_matches_dense_when_writing_into_merged_rows() {
        use rand::SeedableRng;
        let (q, _k, b, h, t, dk) = layout_fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let attn = Tensor::randn(&[b * h, t, t], 1.0, &mut rng);
        // Read V and write straight into merged [b, t, h*dk] row offsets
        // through the same head-split layout.
        let lo = BatchLayout::head_split(b, h, t, dk);
        let lhs = Operand::dense(attn.data(), b * h, t, t);
        let rhs = Operand::new(q.data(), lo);
        let mut got = vec![0.0f32; b * t * h * dk];
        gemm(lhs, rhs, &mut got, &lo, t, t, dk);
        // Reference: dense bmm then copying merge.
        let split_out = attn.bmm(&split_copy(&q, h));
        let mut want = vec![0.0f32; b * t * h * dk];
        for bi in 0..b {
            for hh in 0..h {
                for ti in 0..t {
                    for p in 0..dk {
                        want[bi * t * h * dk + ti * h * dk + hh * dk + p] =
                            split_out.data()[((bi * h + hh) * t + ti) * dk + p];
                    }
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn bmm_tn_layout_matches_dense_on_materialized_views() {
        use rand::SeedableRng;
        let (q, _k, b, h, t, dk) = layout_fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let attn = Tensor::randn(&[b * h, t, t], 1.0, &mut rng);
        // Attnᵀ · G, with G (a stand-in for the merged out-grad) read
        // through the head-split layout.
        let lhs = Operand::dense(attn.data(), b * h, t, t).t();
        let rhs = Operand::new(q.data(), BatchLayout::head_split(b, h, t, dk));
        let mut got = vec![0.0f32; b * h * t * dk];
        gemm(lhs, rhs, &mut got, &BatchLayout::dense(b * h, t, dk), t, t, dk);
        // Reference: dense bmm on the materialized transpose and split.
        let want = attn.transpose_last2().bmm(&split_copy(&q, h));
        assert_eq!(got, want.data());
    }

    #[test]
    fn bmm_nt_db_layout_matches_inline_scatter() {
        use rand::SeedableRng;
        let (q, _k, b, h, t, dk) = layout_fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let g = Tensor::randn(&[b * h, t, t], 1.0, &mut rng);
        let lo = BatchLayout::dense(b * h, t, dk);
        // dB += Gᵀ · A, with A read through the head-split layout.
        let gt = Operand::dense(g.data(), b * h, t, t).t();
        let a = Operand::new(q.data(), BatchLayout::head_split(b, h, t, dk));
        let mut got = vec![0.0f32; b * h * t * dk];
        gemm(gt, a, &mut got, &lo, t, t, dk);
        // Reference: the scatter the fused bmm_nt backward ran on dense
        // slices (ascending i, skip-zero on a).
        let a_dense = split_copy(&q, h);
        let mut want = vec![0.0f32; b * h * t * dk];
        for s in 0..b * h {
            let a_s = &a_dense.data()[s * t * dk..(s + 1) * t * dk];
            let g_s = &g.data()[s * t * t..(s + 1) * t * t];
            let o_s = &mut want[s * t * dk..(s + 1) * t * dk];
            for i in 0..t {
                for p in 0..dk {
                    let a_ip = a_s[i * dk + p];
                    if a_ip == 0.0 {
                        continue;
                    }
                    for j in 0..t {
                        o_s[j * dk + p] += a_ip * g_s[i * t + j];
                    }
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn layout_kernels_are_thread_count_invariant() {
        let (q, k, b, h, t, dk) = layout_fixture();
        let split = BatchLayout::head_split(b, h, t, dk);
        let lhs = Operand::new(q.data(), split);
        let rhs = Operand::new(k.data(), split).t();
        let lo = BatchLayout::dense(b * h, t, t);
        let run = || {
            let mut out = vec![0.0f32; b * h * t * t];
            gemm(lhs, rhs, &mut out, &lo, t, dk, t);
            out
        };
        let serial = run();
        set_kernel_threads(Some(3));
        let par = run();
        set_kernel_threads(None);
        assert_eq!(serial, par);
    }
}
