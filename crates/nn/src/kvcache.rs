//! Incremental per-session inference state: append-only K/V row storage
//! and the erased cache-state handle the serving layer stores per
//! session.
//!
//! IRN, the one model served per session, caches one [`LayerKv`] per
//! block: the `wk`/`wv` projection rows of every already-encoded context
//! position.  Rows are kept in the *un-split* `[n, D]` layout — exactly
//! the rows `Linear::infer` produces, head-interleaved — so appending a
//! position is a pair of `extend_from_slice` calls and head `h` of key
//! `j` is the slice `k[j·D + h·dk .. j·D + (h+1)·dk]`.  Per-head dot
//! products over these slices walk the same elements in the same order
//! as the split-heads `[B·H, T, dk]` layout of the batched infer path,
//! so attention scores computed against the cache are bitwise identical
//! to a cold re-encode (see the equivalence contract in
//! [`crate::infer`]).
//!
//! The concrete state (for IRN, the K/V rows plus its objective slot)
//! is the model's business; everything above the model only needs byte
//! accounting and downcasting, which is what [`CacheState`] exposes.

use std::any::Any;

/// Type-erased per-session incremental state.
///
/// Implemented by `irs_core`'s `IrnCacheState`, the only session cache:
/// IRN is the one model served per session.  The serving layer owns
/// these behind `Box<dyn CacheState>`: it budgets them by
/// [`CacheState::resident_bytes`] and hands them back to the owning
/// model, which downcasts via [`CacheState::as_any_mut`].
pub trait CacheState: Any + Send {
    /// Approximate heap residency of this state in bytes (used for the
    /// serve-side cache budget, so it should count every owned buffer).
    fn resident_bytes(&self) -> usize;

    /// Mutable upcast for downcasting to the concrete model state.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// How a model lays out the encoded sequence it scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingLayout {
    /// Historical layout: the window is right-aligned by pre-padding, so
    /// the objective always sits at column `max_len − 1` and every past
    /// position shifts each step (cache-defeating, but the layout the
    /// paper's figures use).
    #[default]
    PrePadded,
    /// Append-only layout: context items at absolute positions `0..t`
    /// (no pad rows), the objective as a single appended query slot at
    /// its fixed positional index.  Encoded prefixes are stable across
    /// steps, which is what makes per-session K/V caching possible.
    AppendOnly,
}

/// Per-layer append-only K/V rows (un-split `[n, D]` layout, see the
/// module docs).
#[derive(Debug, Clone, Default)]
pub struct LayerKv {
    k: Vec<f32>,
    v: Vec<f32>,
    d: usize,
}

impl LayerKv {
    /// An empty cache for model width `d`.
    pub fn new(d: usize) -> Self {
        LayerKv { k: Vec::new(), v: Vec::new(), d }
    }

    /// Model width `D` of each stored row.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.k.len().checked_div(self.d).unwrap_or(0)
    }

    /// Whether no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.k.is_empty()
    }

    /// Drop every cached position.
    pub fn clear(&mut self) {
        self.k.clear();
        self.v.clear();
    }

    /// Append one position's key and value rows (each `[D]`).
    pub fn push(&mut self, k_row: &[f32], v_row: &[f32]) {
        assert_eq!(k_row.len(), self.d, "key row width mismatch");
        assert_eq!(v_row.len(), self.d, "value row width mismatch");
        self.k.extend_from_slice(k_row);
        self.v.extend_from_slice(v_row);
    }

    /// Key row `[D]` of cached position `j`.
    pub fn key_row(&self, j: usize) -> &[f32] {
        &self.k[j * self.d..(j + 1) * self.d]
    }

    /// Value row `[D]` of cached position `j`.
    pub fn value_row(&self, j: usize) -> &[f32] {
        &self.v[j * self.d..(j + 1) * self.d]
    }

    /// Heap bytes held by this cache (capacity, not length — what the
    /// allocator actually charged us).
    pub fn bytes(&self) -> usize {
        (self.k.capacity() + self.v.capacity()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_kv_appends_and_truncates() {
        let mut kv = LayerKv::new(2);
        assert!(kv.is_empty());
        kv.push(&[1.0, 2.0], &[3.0, 4.0]);
        kv.push(&[5.0, 6.0], &[7.0, 8.0]);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.key_row(1), &[5.0, 6.0]);
        assert_eq!(kv.value_row(0), &[3.0, 4.0]);
        kv.clear();
        assert!(kv.is_empty());
        assert!(kv.bytes() > 0, "capacity is retained after clear");
    }

    #[test]
    fn encoding_layout_defaults_to_pre_padded() {
        assert_eq!(EncodingLayout::default(), EncodingLayout::PrePadded);
    }
}
