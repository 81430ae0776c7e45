//! The dense tensor type, its strided zero-copy views and its
//! non-differentiable kernels.

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

/// Maximum number of `(len, stride)` iteration dims a view carries.  Four
/// covers every layout the workspace produces (the head-split view factors
/// its fused `B*H` axis into two dims); the array is fixed-size so view
/// construction allocates nothing.
pub const VIEW_MAX_DIMS: usize = 4;

/// Strided-view metadata: the element at logical row-major position
/// `(i_0, …, i_{n-1})` of the *iteration space* lives at storage index
/// `offset + Σ i_k · stride_k`.
///
/// The iteration space is the logical shape with at most one axis
/// *factored*: `split_heads` views a `[B, T, D]` buffer as logical
/// `[B*H, T, D/H]`, whose leading axis is not expressible as one
/// `(len, stride)` pair — it factors into `(B, T·D)` × `(H, D/H)`.
/// Iterating the dims in order therefore always yields elements in the
/// logical row-major order of the view's shape.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ViewMeta {
    /// Storage index of the first logical element.
    pub offset: usize,
    /// Number of live entries in `dims`.
    pub ndims: u8,
    /// `(len, stride)` per iteration dim, outermost first.
    pub dims: [(usize, usize); VIEW_MAX_DIMS],
}

impl ViewMeta {
    fn iter_dims(&self) -> &[(usize, usize)] {
        &self.dims[..self.ndims as usize]
    }

    /// True when iterating the dims visits storage indices
    /// `offset, offset+1, …` without gaps (a pure reshape).
    pub fn is_contiguous(&self) -> bool {
        let mut expected = 1usize;
        for &(len, stride) in self.iter_dims().iter().rev() {
            if len > 1 && stride != expected {
                return false;
            }
            expected *= len;
        }
        true
    }
}

/// A row-major `f32` tensor over shared storage, optionally viewed through
/// strides.
///
/// Most tensors are *dense*: the storage is exactly the logical elements in
/// row-major order.  A tensor carrying a [`ViewMeta`] is a zero-copy
/// *view* — transpose / permute / head-split reinterpretations of another
/// tensor's buffer.  Dense accessors ([`Tensor::data`],
/// [`Tensor::data_mut`]) panic on views so layout-unaware code fails loudly
/// instead of misreading storage order; view consumers go through
/// [`Tensor::storage`] + [`Tensor::view_meta`] (stride-walking kernels) or
/// [`Tensor::contiguous`] (explicit materialisation).
///
/// Storage is reference-counted, so `clone` is cheap and views alias their
/// parent; [`Tensor::data_mut`] is copy-on-write (`Arc::make_mut`), which
/// preserves value semantics exactly.
///
/// All kernels assert shape compatibility with descriptive messages; the
/// workspace treats shape errors as programming bugs (like `ndarray` and
/// most ML runtimes do) rather than recoverable conditions.
#[derive(Clone)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
    view: Option<ViewMeta>,
}

impl PartialEq for Tensor {
    /// Logical equality: same shape and the same elements in logical
    /// row-major order (a view equals its materialised counterpart).
    fn eq(&self, other: &Tensor) -> bool {
        if self.shape != other.shape {
            return false;
        }
        match (&self.view, &other.view) {
            (None, None) => self.data == other.data,
            _ => self.iter_logical().eq(other.iter_logical()),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.view.is_some() {
            write!(f, " (view)")?;
        }
        let n = numel(&self.shape);
        if n <= 16 && self.view.is_none() {
            write!(f, " {:?}", &self.data[..])
        } else {
            write!(f, " [{n} elements]")
        }
    }
}

/// Internal dense constructor (storage length must already match).
fn dense(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
    debug_assert_eq!(numel(&shape), data.len());
    Tensor { shape, data: Arc::new(data), view: None }
}

/// Iterator over a tensor's elements in logical row-major order, walking
/// the view strides (odometer over the iteration dims).
struct LogicalIter<'a> {
    data: &'a [f32],
    dims: [(usize, usize); VIEW_MAX_DIMS],
    ndims: usize,
    idx: [usize; VIEW_MAX_DIMS],
    pos: usize,
    remaining: usize,
}

impl<'a> LogicalIter<'a> {
    fn new(t: &'a Tensor) -> Self {
        let (dims, ndims, offset) = match &t.view {
            Some(m) => (m.dims, m.ndims as usize, m.offset),
            None => {
                // Dense: one flat run.
                let mut dims = [(0usize, 0usize); VIEW_MAX_DIMS];
                dims[0] = (t.data.len(), 1);
                (dims, 1, 0)
            }
        };
        let remaining = numel(&t.shape);
        LogicalIter { data: &t.data, dims, ndims, idx: [0; VIEW_MAX_DIMS], pos: offset, remaining }
    }
}

impl Iterator for LogicalIter<'_> {
    type Item = f32;

    fn next(&mut self) -> Option<f32> {
        if self.remaining == 0 {
            return None;
        }
        let v = self.data[self.pos];
        self.remaining -= 1;
        // Odometer increment, innermost dim first.
        for d in (0..self.ndims).rev() {
            let (len, stride) = self.dims[d];
            self.idx[d] += 1;
            self.pos += stride;
            if self.idx[d] < len {
                break;
            }
            self.idx[d] = 0;
            self.pos -= len * stride;
        }
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
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
        Tensor { shape: shape.to_vec(), data, view: None }
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

    /// Total element count (logical — for a view this is the view's size,
    /// not the storage size).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.view {
            None => self.data.len(),
            Some(_) => numel(&self.shape),
        }
    }

    /// True if the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when this tensor is a strided view over another tensor's
    /// storage (logical order ≠ storage order, or a sub-range).
    #[inline]
    pub fn is_view(&self) -> bool {
        self.view.is_some()
    }

    /// The view metadata, when this tensor is a view.
    #[inline]
    pub fn view_meta(&self) -> Option<&ViewMeta> {
        self.view.as_ref()
    }

    /// The raw shared storage buffer (full buffer, storage order).  Pair
    /// with [`Tensor::view_meta`] in stride-walking kernels.
    #[inline]
    pub fn storage(&self) -> &[f32] {
        &self.data
    }

    /// Immutable flat data of a **dense** tensor.  Panics on views: code
    /// that is not stride-aware must materialise via
    /// [`Tensor::contiguous`] first instead of silently misreading
    /// storage order.
    #[inline]
    pub fn data(&self) -> &[f32] {
        assert!(self.view.is_none(), "Tensor::data on a strided view (shape {:?})", self.shape);
        &self.data
    }

    /// Mutable flat data of a **dense** tensor (copy-on-write when the
    /// storage is shared with views or clones).  Panics on views.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        assert!(self.view.is_none(), "Tensor::data_mut on a strided view (shape {:?})", self.shape);
        let v: &mut Vec<f32> = Arc::make_mut(&mut self.data);
        v
    }

    /// Consume into the flat data vector (logical order; copies only when
    /// the storage is shared or viewed).
    pub fn into_vec(self) -> Vec<f32> {
        match self.view {
            Some(_) => self.contiguous().into_vec(),
            None => Arc::try_unwrap(self.data).unwrap_or_else(|a| (*a).clone()),
        }
    }

    /// Consume into the shared storage buffer (the graph pool recycles
    /// these whole, keeping the reference-count block alive).
    pub fn into_storage(self) -> Arc<Vec<f32>> {
        self.data
    }

    /// Iterate the elements in logical row-major order (works for dense
    /// tensors and views alike).
    pub fn iter_logical(&self) -> impl Iterator<Item = f32> + '_ {
        LogicalIter::new(self)
    }

    /// A dense tensor with this tensor's logical contents.  For dense
    /// tensors this is a cheap storage-sharing clone; for views it gathers
    /// the strided elements into `out` order — the explicit fallback for
    /// layouts no kernel can walk.
    pub fn contiguous(&self) -> Tensor {
        match &self.view {
            None => self.clone(),
            Some(_) => {
                let data: Vec<f32> = self.iter_logical().collect();
                dense(self.shape.clone(), data)
            }
        }
    }

    /// Like [`Tensor::contiguous`], but gathering into a caller-provided
    /// dense buffer (the graph pool's allocation-free materialisation
    /// path).  `out` must have the view's logical element count.
    pub fn contiguous_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "contiguous_into length mismatch");
        match &self.view {
            None => out.copy_from_slice(&self.data),
            Some(_) => {
                for (o, v) in out.iter_mut().zip(self.iter_logical()) {
                    *o = v;
                }
            }
        }
    }

    /// The single value of a scalar tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "Tensor::item on non-scalar shape {:?}", self.shape);
        match &self.view {
            None => self.data[0],
            Some(m) => self.data[m.offset],
        }
    }

    /// Element at a multi-dimensional index (view-aware).
    pub fn at(&self, idx: &[usize]) -> f32 {
        let flat = self.flat_index(idx);
        match &self.view {
            None => self.data[flat],
            Some(m) => {
                // Decompose the logical flat index over the iteration dims
                // (they enumerate logical row-major order by construction).
                let mut rem = flat;
                let mut pos = m.offset;
                for d in (0..m.ndims as usize).rev() {
                    let (len, stride) = m.dims[d];
                    pos += (rem % len) * stride;
                    rem /= len;
                }
                self.data[pos]
            }
        }
    }

    /// Mutable element at a multi-dimensional index (dense tensors only).
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        assert!(self.view.is_none(), "Tensor::at_mut on a strided view");
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

    /// Reinterpret with a new shape of identical element count.  Dense
    /// tensors share storage (zero-copy); views materialise first.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            numel(shape),
            self.len(),
            "reshape from {:?} to {:?} changes element count",
            self.shape,
            shape
        );
        match &self.view {
            None => Tensor { shape: shape.to_vec(), data: Arc::clone(&self.data), view: None },
            Some(_) => {
                let mut t = self.contiguous();
                t.shape = shape.to_vec();
                t
            }
        }
    }

    /// In-place reshape (no data movement; dense tensors only).
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        assert!(self.view.is_none(), "reshape_in_place on a strided view");
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
    // Zero-copy strided views
    // ------------------------------------------------------------------

    /// Zero-copy 2-D transpose view: `[m, n] -> [n, m]` over the same
    /// storage.  No kernel walks this layout directly (the last axis is
    /// strided); consumers call [`Tensor::contiguous`].
    pub fn transpose2d_view(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2d_view needs 2-D, got {:?}", self.shape);
        assert!(self.view.is_none(), "transpose2d_view of a view: materialise first");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut dims = [(0usize, 0usize); VIEW_MAX_DIMS];
        dims[0] = (n, 1);
        dims[1] = (m, n);
        Tensor {
            shape: vec![n, m],
            data: Arc::clone(&self.data),
            view: Some(ViewMeta { offset: 0, ndims: 2, dims }),
        }
    }

    /// Zero-copy swap of the last two axes of a 3-D tensor:
    /// `[b, m, n] -> [b, n, m]` over the same storage.
    pub fn transpose_last2_view(&self) -> Tensor {
        assert_eq!(self.ndim(), 3, "transpose_last2_view needs 3-D, got {:?}", self.shape);
        assert!(self.view.is_none(), "transpose_last2_view of a view: materialise first");
        let (b, m, n) = (self.shape[0], self.shape[1], self.shape[2]);
        let mut dims = [(0usize, 0usize); VIEW_MAX_DIMS];
        dims[0] = (b, m * n);
        dims[1] = (n, 1);
        dims[2] = (m, n);
        Tensor {
            shape: vec![b, n, m],
            data: Arc::clone(&self.data),
            view: Some(ViewMeta { offset: 0, ndims: 3, dims }),
        }
    }

    /// Zero-copy axis permutation of a dense tensor (generalises the
    /// transpose views; up to `VIEW_MAX_DIMS` axes).
    pub fn permute_view(&self, perm: &[usize]) -> Tensor {
        assert!(self.view.is_none(), "permute_view of a view: materialise first");
        let nd = self.ndim();
        assert!(nd <= VIEW_MAX_DIMS, "permute_view supports up to {VIEW_MAX_DIMS} dims");
        assert_eq!(perm.len(), nd, "permutation rank mismatch");
        let mut seen = [false; VIEW_MAX_DIMS];
        for &p in perm {
            assert!(p < nd && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        // Row-major strides of the source shape.
        let mut src_strides = [0usize; VIEW_MAX_DIMS];
        let mut acc = 1;
        for d in (0..nd).rev() {
            src_strides[d] = acc;
            acc *= self.shape[d];
        }
        let mut dims = [(0usize, 0usize); VIEW_MAX_DIMS];
        let mut shape = Vec::with_capacity(nd);
        for (d, &p) in perm.iter().enumerate() {
            dims[d] = (self.shape[p], src_strides[p]);
            shape.push(self.shape[p]);
        }
        Tensor {
            shape,
            data: Arc::clone(&self.data),
            view: Some(ViewMeta { offset: 0, ndims: nd as u8, dims }),
        }
    }

    /// Zero-copy attention head split: view a dense `[B, T, D]` tensor as
    /// `[B*H, T, D/H]` with head-major batch layout — the same logical
    /// contents `Var::split_heads` materialises, without the copy.  The
    /// leading logical axis factors into `(B, T·D) × (H, D/H)` iteration
    /// dims; rows of the view stay contiguous (`D/H` floats), which is
    /// what lets the attention kernels walk it directly.
    pub fn split_heads_view(&self, heads: usize) -> Tensor {
        assert_eq!(self.ndim(), 3, "split_heads_view needs 3-D, got {:?}", self.shape);
        assert!(self.view.is_none(), "split_heads_view of a view: materialise first");
        let (b, t, d) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(heads > 0 && d % heads == 0, "d={d} not divisible by heads={heads}");
        let dk = d / heads;
        let mut dims = [(0usize, 0usize); VIEW_MAX_DIMS];
        dims[0] = (b, t * d);
        dims[1] = (heads, dk);
        dims[2] = (t, d);
        dims[3] = (dk, 1);
        Tensor {
            shape: vec![b * heads, t, dk],
            data: Arc::clone(&self.data),
            view: Some(ViewMeta { offset: 0, ndims: 4, dims }),
        }
    }

    /// The batched-row layout of this tensor when a stride-walking kernel
    /// can consume it: a 3-D `[S, rows, rowlen]` iteration space whose
    /// rows are contiguous runs.  `None` for layouts with a strided last
    /// axis (transpose views) — callers fall back to
    /// [`Tensor::contiguous`].
    pub fn batch_layout(&self) -> Option<BatchLayout> {
        if self.ndim() != 3 {
            return None;
        }
        let (s, rows, rowlen) = (self.shape[0], self.shape[1], self.shape[2]);
        match &self.view {
            None => Some(BatchLayout::dense(s, rows, rowlen)),
            Some(m) => {
                let d = m.iter_dims();
                match d {
                    // Head-split form: (B, os) (H, is) (rows, rs) (rowlen, 1).
                    [(b, os), (h, is), (r, rs), (w, 1)]
                        if *b * *h == s && *r == rows && *w == rowlen =>
                    {
                        Some(BatchLayout {
                            offset: m.offset,
                            outer: *b,
                            inner: *h,
                            outer_stride: *os,
                            inner_stride: *is,
                            row_stride: *rs,
                        })
                    }
                    // Plain strided 3-D form with contiguous rows.
                    [(b, os), (r, rs), (w, 1)] if *b == s && *r == rows && *w == rowlen => {
                        Some(BatchLayout {
                            offset: m.offset,
                            outer: *b,
                            inner: 1,
                            outer_stride: *os,
                            inner_stride: 0,
                            row_stride: *rs,
                        })
                    }
                    _ => None,
                }
            }
        }
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

/// Panel width of the packed-B kernel: 8 `f32`s — two baseline-SSE2
/// registers (rustc's default x86-64 target) or one AVX2 register, a
/// width LLVM reliably vectorises without spilling.
const NR: usize = 8;

/// Row-tile height of the packed-B kernel: accumulators for `MR × NR`
/// outputs live in registers across the whole `k` loop (`MR·NR/4 = 8`
/// SSE2 registers, leaving half the file for the B panel row and the
/// broadcast A element).
const MR: usize = 4;

/// Minimum B-operand element count (`k·n`) before the packed kernel wins:
/// once B outgrows the fast cache levels (2¹⁷ `f32`s = 512 KiB), the
/// plain kernel's repeated `K_BLOCK × n` tile streaming pays per row of A
/// while the packed panels stay L1-resident per `MR` rows.  Below this
/// the plain kernel runs at SIMD peak and the repack is pure overhead
/// (measured: `cargo bench -p irs_bench --bench tensor_ops`,
/// `matmul_kernel/*`).
const PACK_MIN_KN: usize = 1 << 17;

/// Minimum multiply-accumulate count before a matmul fans out over threads;
/// below this the spawn/join overhead outweighs the parallel speed-up.
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

/// Force every tensor kernel to fan out over exactly `n` worker threads.
/// `None` restores the default: the `IRS_KERNEL_THREADS` environment
/// variable when it is set, automatic selection otherwise.  Results are
/// bitwise identical either way; this is a scheduling knob, not a
/// numerics knob.
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

/// Worker-thread count for a kernel of `work` multiply-accumulates: 1 when
/// the problem is small or the host is single-core, otherwise capped so
/// every thread keeps at least `PAR_MIN_WORK` MACs.
fn parallelism_for(work: usize) -> usize {
    let forced = kernel_threads_override();
    if forced > 0 {
        return forced.min(16);
    }
    if work < 2 * PAR_MIN_WORK {
        return 1;
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    cores.min(work / PAR_MIN_WORK).min(16)
}

/// `out += a @ b` where `a` is `m×k`, `b` is `k×n`, `out` is `m×n` — the
/// dense 2-D product, and what [`gemm`] runs for a single dense slice.
///
/// Dispatch layer over two serial kernels, both thread-parallel over row
/// blocks for large shapes (`std::thread::scope`, no dependencies):
///
/// * [`matmul_into_plain`] — `K_BLOCK`-tiled `i-k-j` loop, no setup cost;
///   runs at SIMD peak while its B tiles stay cache-resident, so it is
///   chosen for every model-sized shape.
/// * [`matmul_into_packed`] — A and B repacked once per call (B into
///   contiguous `NR`-wide block-major panels, A row blocks transposed to
///   step-major), then an `MR × NR` register-tiled kernel streams the
///   panels; chosen when the B operand outgrows the fast caches and the
///   plain kernel turns memory-bound.
///
/// Every output element accumulates its `k` products in increasing-`k`
/// order regardless of kernel, blocking or threading, so results are
/// bitwise identical to the naive `i-k-j` loop — batched forwards
/// reproduce scalar forwards exactly even when dispatch picks different
/// kernels for the batched and scalar shapes.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if should_pack(m, k, n) {
        matmul_into_packed(a, b, out, m, k, n);
    } else {
        matmul_into_plain(a, b, out, m, k, n);
    }
}

/// True when the packed-B kernel's repack pass (`k·n` copies plus panel
/// zero-padding) is amortised: enough rows to reuse each panel, at least
/// one full panel of columns, and a B operand big enough that the plain
/// kernel's tile streaming falls out of cache.
fn should_pack(m: usize, k: usize, n: usize) -> bool {
    m >= 2 * MR && n >= NR && k * n >= PACK_MIN_KN
}

/// Plain blocked `out += a @ b`: `K_BLOCK`-tiled serial kernel, rows fanned
/// out over threads for large shapes.
pub fn matmul_into_plain(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(b.len(), k * n);
    fan_rows(a, out, m, k, n, |a, out, rows| {
        matmul_block_l(a, 0, k, b, 0, n, out, 0, n, rows, k, n)
    });
}

/// Packed-B `out += a @ b`: B is repacked once into block-major panels,
/// then every row block streams the packed buffer with the register-tiled
/// kernel.  Threads share the one packed copy.
pub fn matmul_into_packed(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(b.len(), k * n);
    let packed = pack_b(b, k, n);
    fan_rows(a, out, m, k, n, |a, out, rows| matmul_block_packed(a, &packed, out, rows, k, n));
}

/// Run `kernel(a_rows, out_rows, rows)` over the rows of an `m×k`·`k×n`
/// product, fanned out over row blocks when the work warrants threads.
/// Returns at once when `m`, `k` or `n` is 0.
fn fan_rows(
    a: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kernel: impl Fn(&[f32], &mut [f32], usize) + Sync,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let threads = parallelism_for(m * k * n).min(m);
    if threads <= 1 {
        return kernel(a, out, m);
    }
    let rows_per = m.div_ceil(threads);
    let kernel = &kernel;
    std::thread::scope(|scope| {
        for (chunk_idx, out_chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let row0 = chunk_idx * rows_per;
            let rows = out_chunk.len() / n;
            let a_chunk = &a[row0 * k..(row0 + rows) * k];
            scope.spawn(move || kernel(a_chunk, out_chunk, rows));
        }
    });
}

/// Repack `b` (`k×n`, row-major) into `NR`-wide block-major panels: panel
/// `pi` holds columns `pi·NR .. pi·NR+NR` contiguously per `k` row, so the
/// packed kernel's inner loop reads `NR` consecutive floats instead of
/// striding by `n`.  The ragged last panel is zero-padded — padding lanes
/// multiply into accumulators that are never written back.
fn pack_b(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; panels * k * NR];
    for pi in 0..panels {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let base = pi * k * NR;
        for p in 0..k {
            packed[base + p * NR..base + p * NR + w]
                .copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
    }
    packed
}

/// Register-tiled serial kernel over packed panels: for each `MR × NR`
/// output tile the accumulators stay in registers across the whole `k`
/// loop.  Per output element the `k` products are added in increasing
/// order with the same skip-zero-`a` rule as [`matmul_block_l`], so results
/// are bitwise identical to the plain kernel.
///
/// Full tiles and ragged remainder rows run through separate helpers with
/// compile-time loop bounds — a runtime row count would stop LLVM from
/// unrolling the row loop and keeping the accumulators in registers.
fn matmul_block_packed(a: &[f32], packed: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let panels = n.div_ceil(NR);
    // A row blocks transposed once to [k, MR] so each step's multipliers
    // are contiguous; reused across every panel.
    let full_tiles = m / MR;
    let mut at = vec![0.0f32; full_tiles * k * MR];
    for ti in 0..full_tiles {
        let block = &mut at[ti * k * MR..(ti + 1) * k * MR];
        for r in 0..MR {
            for (p, chunk) in block.chunks_exact_mut(MR).enumerate() {
                chunk[r] = a[(ti * MR + r) * k + p];
            }
        }
    }
    for pi in 0..panels {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let bp = &packed[pi * k * NR..(pi + 1) * k * NR];
        let mut i = 0;
        for ti in 0..full_tiles {
            let g = TileGeom { i, k, n, j0, w };
            packed_tile_full(&at[ti * k * MR..(ti + 1) * k * MR], bp, out, g);
            i += MR;
        }
        while i < m {
            packed_tile_row(a, bp, out, TileGeom { i, k, n, j0, w });
            i += 1;
        }
    }
}

/// Geometry of one packed-kernel tile: first output row `i`, operand
/// dims `k`/`n`, panel column origin `j0` and live panel width `w`.
#[derive(Clone, Copy)]
struct TileGeom {
    i: usize,
    k: usize,
    n: usize,
    j0: usize,
    w: usize,
}

/// One full `MR × NR` tile of the packed kernel (fixed loop bounds).
///
/// `at` is the row block's A transposed to `[k, MR]` (see
/// [`matmul_block_packed`]) so the `MR` multipliers of step `p` sit in one
/// cache line.  The common all-multipliers-nonzero case runs one branch
/// per `p` followed by straight-line `MR × NR` updates; the rare path
/// applies the per-element skip-zero rule exactly like [`matmul_block_l`].
#[inline]
fn packed_tile_full(at: &[f32], bp: &[f32], out: &mut [f32], g: TileGeom) {
    let TileGeom { i, k, n, j0, w } = g;
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row[..w].copy_from_slice(&out[(i + r) * n + j0..(i + r) * n + j0 + w]);
    }
    for p in 0..k {
        let brow: &[f32; NR] = bp[p * NR..(p + 1) * NR].try_into().expect("panel row");
        let arow: &[f32; MR] = at[p * MR..(p + 1) * MR].try_into().expect("a tile row");
        if arow.iter().all(|&v| v != 0.0) {
            for (acc_row, &a_ip) in acc.iter_mut().zip(arow) {
                for (o, &b_pj) in acc_row.iter_mut().zip(brow) {
                    *o += a_ip * b_pj;
                }
            }
        } else {
            for (acc_row, &a_ip) in acc.iter_mut().zip(arow) {
                if a_ip == 0.0 {
                    continue;
                }
                for (o, &b_pj) in acc_row.iter_mut().zip(brow) {
                    *o += a_ip * b_pj;
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + j0..(i + r) * n + j0 + w].copy_from_slice(&acc_row[..w]);
    }
}

/// One remainder row of the packed kernel (`m % MR` trailing rows).
#[inline]
fn packed_tile_row(a: &[f32], bp: &[f32], out: &mut [f32], g: TileGeom) {
    let TileGeom { i, k, n, j0, w } = g;
    let mut acc = [0.0f32; NR];
    acc[..w].copy_from_slice(&out[i * n + j0..i * n + j0 + w]);
    for p in 0..k {
        let a_ip = a[i * k + p];
        if a_ip == 0.0 {
            continue;
        }
        let brow: &[f32; NR] = bp[p * NR..(p + 1) * NR].try_into().expect("panel row");
        for (o, &b_pj) in acc.iter_mut().zip(brow) {
            *o += a_ip * b_pj;
        }
    }
    out[i * n + j0..i * n + j0 + w].copy_from_slice(&acc[..w]);
}

// ---------------------------------------------------------------------
// Strided batched products: one `gemm` over layouts and transposes
// ---------------------------------------------------------------------

/// Address map of a batched `[S, rows, rowlen]` operand whose rows are
/// contiguous `rowlen`-float runs: row `i` of slice `s` starts at
/// `offset + (s/inner)·outer_stride + (s%inner)·inner_stride + i·row_stride`.
///
/// * dense `[S, m, k]`: `inner = 1`, `outer_stride = m·k`, `row_stride = k`
/// * head-split view of `[B, T, D]` as `[B·H, T, D/H]`: `outer = B`,
///   `inner = H`, `outer_stride = T·D`, `inner_stride = D/H`,
///   `row_stride = D` — slice `s = b·H + h`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchLayout {
    /// Storage offset of slice 0, row 0.
    pub offset: usize,
    /// Outer slice-group count (`B` for head-split views, `S` for dense).
    pub outer: usize,
    /// Slices per outer group (`H` for head-split views, 1 for dense).
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
            offset: 0,
            outer: s,
            inner: 1,
            outer_stride: rows * rowlen,
            inner_stride: 0,
            row_stride: rowlen,
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
        self.offset + (s / self.inner) * self.outer_stride + (s % self.inner) * self.inner_stride
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
///   elements, and staged above that;
/// * a single slice whose operands are (or were staged) dense goes to the
///   row-parallel [`matmul_into`];
/// * batches fan out over slices; a dense slice past the packing
///   crossover runs the packed kernel, every other slice the plain loop.
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
/// marks a single-slice call, whose dense product may fan its rows out
/// over threads.
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
            matmul_tn_l(a.data, a0, ars, b, b0, brs, out, o0, ors, m, k, n);
            return;
        }
        with_staged(a, s, m, k, |a, a0, ars| {
            if ars != k || brs != n || ors != n {
                matmul_block_l(a, a0, ars, b, b0, brs, out, o0, ors, m, k, n);
                return;
            }
            let (a, b) = (&a[a0..a0 + m * k], &b[b0..b0 + k * n]);
            let out = &mut out[o0..o0 + m * n];
            if whole {
                matmul_into(a, b, out, m, k, n);
            } else if should_pack(m, k, n) {
                matmul_block_packed(a, &pack_b(b, k, n), out, m, k, n);
            } else {
                matmul_block_l(a, 0, k, b, 0, n, out, 0, n, m, k, n);
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
/// and the groups tile `out` exactly from offset 0 (so worker threads own
/// disjoint `chunks_mut(outer_stride)`); serial otherwise.  Slices are
/// independent, so the fan never changes results.
fn fan_slices(
    out: &mut [f32],
    lo: &BatchLayout,
    work_per_slice: usize,
    run: impl Fn(usize, &mut [f32], usize) + Sync,
) {
    let slices = lo.slices();
    let threads = parallelism_for(work_per_slice * slices).min(lo.outer);
    if threads > 1 && lo.offset == 0 && lo.outer * lo.outer_stride == out.len() {
        let groups_per = lo.outer.div_ceil(threads);
        let run = &run;
        std::thread::scope(|scope| {
            for (ci, chunk) in out.chunks_mut(groups_per * lo.outer_stride).enumerate() {
                let g0 = ci * groups_per;
                let groups = chunk.len() / lo.outer_stride;
                scope.spawn(move || {
                    for sl in 0..groups * lo.inner {
                        let s = g0 * lo.inner + sl;
                        let base =
                            (sl / lo.inner) * lo.outer_stride + (sl % lo.inner) * lo.inner_stride;
                        run(s, chunk, base);
                    }
                });
            }
        });
    } else {
        for s in 0..slices {
            let base = lo.slice_base(s);
            run(s, out, base);
        }
    }
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
    fn packed_matmul_is_bitwise_equal_to_plain_across_odd_shapes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        // Shapes straddling the NR=8 panel edge and MR=4 row tile, plus
        // ragged remainders in every dimension.
        for &(m, k, n) in &[
            (1, 7, 17),
            (3, 16, 15),
            (4, 33, 16),
            (5, 64, 31),
            (7, 65, 33),
            (9, 130, 47),
            (16, 8, 100),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let mut plain = vec![0.0f32; m * n];
            let mut packed = vec![0.0f32; m * n];
            matmul_into_plain(a.data(), b.data(), &mut plain, m, k, n);
            matmul_into_packed(a.data(), b.data(), &mut packed, m, k, n);
            assert_eq!(plain, packed, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_matmul_accumulates_into_nonzero_out() {
        // Both kernels share the `out += a @ b` contract.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, k, n) = (5, 9, 21);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let seed: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.25).collect();
        let mut plain = seed.clone();
        let mut packed = seed;
        matmul_into_plain(a.data(), b.data(), &mut plain, m, k, n);
        matmul_into_packed(a.data(), b.data(), &mut packed, m, k, n);
        assert_eq!(plain, packed);
    }

    #[test]
    fn packed_matmul_skips_zero_a_like_plain() {
        // The skip-zero rule must match or an inf/NaN in B would produce
        // NaN in one kernel and not the other.
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0, 0.0, 3.0], &[2, 3]);
        let mut b = Tensor::zeros(&[3, 20]);
        b.data_mut()[0] = f32::INFINITY; // row 0 of B, only ever hit by a=0.0
        let (m, k, n) = (2, 3, 20);
        let mut plain = vec![0.0f32; m * n];
        let mut packed = vec![0.0f32; m * n];
        matmul_into_plain(a.data(), b.data(), &mut plain, m, k, n);
        matmul_into_packed(a.data(), b.data(), &mut packed, m, k, n);
        assert_eq!(plain, packed);
        assert!(plain.iter().all(|v| v.is_finite()));
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
        let run = || {
            let mut nt = vec![0.0f32; 33 * 17];
            let bt = Operand::dense(b.data(), 1, 17, 48).t();
            gemm_2d(Operand::dense(a.data(), 1, 33, 48), bt, &mut nt, 33, 48, 17);
            let mut tn = vec![0.0f32; 48 * 17];
            let at = Operand::dense(a.data(), 1, 33, 48).t();
            gemm_2d(at, Operand::dense(g.data(), 1, 33, 17), &mut tn, 48, 33, 17);
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
        matmul_into_packed(&[1.0; 12], &[], &mut [], 4, 3, 0);
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
    fn packed_slices_inside_a_batch_match_the_plain_kernel() {
        // k·n = 2¹⁷ with m ≥ 2·MR and n ≥ NR: every slice of the batch is
        // past the packing crossover.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let (s, m, k, n) = (2, 9, 512, 256);
        assert!(should_pack(m, k, n));
        let a = Tensor::randn(&[s, m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[s, k, n], 1.0, &mut rng);
        let mut got = vec![0.0f32; s * m * n];
        let (lhs, rhs) = (Operand::dense(a.data(), s, m, k), Operand::dense(b.data(), s, k, n));
        gemm(lhs, rhs, &mut got, &BatchLayout::dense(s, m, n), m, k, n);
        for i in 0..s {
            let mut want = vec![0.0f32; m * n];
            let (a_i, b_i) =
                (&a.data()[i * m * k..(i + 1) * m * k], &b.data()[i * k * n..(i + 1) * k * n]);
            matmul_into_plain(a_i, b_i, &mut want, m, k, n);
            assert_eq!(&got[i * m * n..(i + 1) * m * n], &want[..]);
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

    // -- strided views ------------------------------------------------

    #[test]
    fn transpose_views_are_zero_copy_and_match_materialized() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = Tensor::randn(&[5, 7], 1.0, &mut rng);
        let v = a.transpose2d_view();
        assert!(v.is_view());
        assert_eq!(v.storage().as_ptr(), a.storage().as_ptr());
        assert_eq!(v.contiguous(), a.transpose2d());
        assert_eq!(v, a.transpose2d());
        let b = Tensor::randn(&[3, 4, 6], 1.0, &mut rng);
        let bv = b.transpose_last2_view();
        assert!(bv.is_view());
        assert_eq!(bv.contiguous(), b.transpose_last2());
    }

    #[test]
    fn permute_view_matches_index_shuffle() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let p = t.permute_view(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        for i in 0..4 {
            for j in 0..2 {
                for k in 0..3 {
                    assert_eq!(p.at(&[i, j, k]), t.at(&[j, k, i]));
                }
            }
        }
        let back = p.contiguous().permute_view(&[1, 2, 0]).contiguous();
        assert_eq!(back, t);
    }

    #[test]
    fn split_heads_view_matches_copying_split() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (b, t, d, h) = (2, 5, 8, 4);
        let x = Tensor::randn(&[b, t, d], 1.0, &mut rng);
        let v = x.split_heads_view(h);
        assert_eq!(v.shape(), &[b * h, t, d / h]);
        assert!(v.is_view());
        // Reference: the copying split used by the graph op.
        let dk = d / h;
        let mut want = vec![0.0f32; b * t * d];
        for bi in 0..b {
            for hh in 0..h {
                for ti in 0..t {
                    for p in 0..dk {
                        want[((bi * h + hh) * t + ti) * dk + p] =
                            x.data()[bi * t * d + ti * d + hh * dk + p];
                    }
                }
            }
        }
        assert_eq!(v.contiguous().data(), &want[..]);
    }

    #[test]
    fn view_into_vec_and_reshape_materialize() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let v = t.transpose2d_view();
        assert_eq!(v.clone().into_vec(), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let r = v.reshaped(&[3, 2]);
        assert!(!r.is_view());
        assert_eq!(r.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        // Dense reshape shares storage.
        let r2 = t.reshaped(&[3, 2]);
        assert_eq!(r2.storage().as_ptr(), t.storage().as_ptr());
    }

    #[test]
    #[should_panic(expected = "Tensor::data on a strided view")]
    fn data_on_view_panics() {
        let t = Tensor::zeros(&[2, 3]);
        let _ = t.transpose2d_view().data();
    }

    #[test]
    fn data_mut_copy_on_write_leaves_clones_untouched() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[9.0, 2.0]);
    }

    #[test]
    fn batch_layout_derivation_covers_the_kernel_feeding_forms() {
        let x = Tensor::zeros(&[2, 6, 8]);
        let dense = x.batch_layout().unwrap();
        assert_eq!(dense, BatchLayout::dense(2, 6, 8));
        let split = x.split_heads_view(4).batch_layout().unwrap();
        assert_eq!(
            split,
            BatchLayout {
                offset: 0,
                outer: 2,
                inner: 4,
                outer_stride: 48,
                inner_stride: 2,
                row_stride: 8
            }
        );
        // Transposed rows are not contiguous: no layout, contiguous() fallback.
        assert!(x.transpose_last2_view().batch_layout().is_none());
    }

    // -- gemm over strided layouts ----------------------------------

    fn layout_fixture() -> (Tensor, Tensor, usize, usize, usize, usize) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let (b, h, t, d) = (2, 4, 5, 24);
        let q = Tensor::randn(&[b, t, d], 1.0, &mut rng);
        let k = Tensor::randn(&[b, t, d], 1.0, &mut rng);
        (q, k, b, h, t, d / h)
    }

    #[test]
    fn bmm_nt_layout_matches_dense_on_materialized_views() {
        let (q, k, b, h, t, dk) = layout_fixture();
        let qs = q.split_heads_view(h);
        let ks = k.split_heads_view(h);
        // Q · Kᵀ with both operands read through head-split layouts.
        let lhs = Operand::new(q.storage(), qs.batch_layout().unwrap());
        let rhs = Operand::new(k.storage(), ks.batch_layout().unwrap()).t();
        let mut got = vec![0.0f32; b * h * t * t];
        gemm(lhs, rhs, &mut got, &BatchLayout::dense(b * h, t, t), t, dk, t);
        // Reference: dense bmm on materialized views and transpose.
        let want = qs.contiguous().bmm(&ks.contiguous().transpose_last2());
        assert_eq!(got, want.data());
    }

    #[test]
    fn bmm_layout_matches_dense_when_writing_into_merged_rows() {
        use rand::SeedableRng;
        let (q, _k, b, h, t, dk) = layout_fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let attn = Tensor::randn(&[b * h, t, t], 1.0, &mut rng);
        let vs = q.split_heads_view(h);
        // Write straight into merged [b, t, h*dk] row offsets.
        let lo = BatchLayout {
            offset: 0,
            outer: b,
            inner: h,
            outer_stride: t * h * dk,
            inner_stride: dk,
            row_stride: h * dk,
        };
        let lhs = Operand::dense(attn.data(), b * h, t, t);
        let rhs = Operand::new(q.storage(), vs.batch_layout().unwrap());
        let mut got = vec![0.0f32; b * t * h * dk];
        gemm(lhs, rhs, &mut got, &lo, t, t, dk);
        // Reference: dense bmm then copying merge.
        let split_out = attn.bmm(&vs.contiguous());
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
        // Attnᵀ · G, with G (a stand-in for the out-grad view) read
        // through the head-split layout.
        let gs = q.split_heads_view(h);
        let lhs = Operand::dense(attn.data(), b * h, t, t).t();
        let rhs = Operand::new(q.storage(), gs.batch_layout().unwrap());
        let mut got = vec![0.0f32; b * h * t * dk];
        gemm(lhs, rhs, &mut got, &BatchLayout::dense(b * h, t, dk), t, t, dk);
        // Reference: dense bmm on the materialized transpose and view.
        let want = attn.transpose_last2().bmm(&gs.contiguous());
        assert_eq!(got, want.data());
    }

    #[test]
    fn bmm_nt_db_layout_matches_inline_scatter() {
        use rand::SeedableRng;
        let (q, _k, b, h, t, dk) = layout_fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let g = Tensor::randn(&[b * h, t, t], 1.0, &mut rng);
        let qs = q.split_heads_view(h);
        let lo = BatchLayout::dense(b * h, t, dk);
        // dB += Gᵀ · A, with A read through the head-split layout.
        let gt = Operand::dense(g.data(), b * h, t, t).t();
        let a = Operand::new(q.storage(), qs.batch_layout().unwrap());
        let mut got = vec![0.0f32; b * h * t * dk];
        gemm(gt, a, &mut got, &lo, t, t, dk);
        // Reference: the scatter the fused bmm_nt backward ran on dense
        // slices (ascending i, skip-zero on a).
        let a_dense = qs.contiguous();
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
        let (qs, ks) = (q.split_heads_view(h), k.split_heads_view(h));
        let lhs = Operand::new(q.storage(), qs.batch_layout().unwrap());
        let rhs = Operand::new(k.storage(), ks.batch_layout().unwrap()).t();
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
