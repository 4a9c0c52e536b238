//! Per-request execution state for the shared-model inference path.
//!
//! The serving layer keeps one immutable copy of each loaded model (weights,
//! masks, and `SparseIndex` strips behind `Arc`s) and hands every in-flight
//! request its own [`ExecCtx`]: a recycled scratch arena plus an optional set
//! of per-layer [`WeightOverride`]s. Layers read weights through the context
//! (`ExecCtx::weights_for`), so a sensitivity probe can evaluate "this model
//! with layer 3's mask tightened" by installing one override — cloning a
//! single layer's weight buffer instead of the whole model.
//!
//! Scratch buffers are loaned with [`ExecCtx::take`] and returned with
//! [`ExecCtx::put`] (and their `_i16`/`_i8` activation and `_i64`/`_i32`
//! accumulator twins); a request that serves many samples re-uses the same
//! im2col buffer instead of re-allocating per call. Nothing here affects
//! numerics: `Layer::infer` computes the same output with a fresh or a
//! recycled context, bitwise equal to the training pass `Layer::forward`.

use crate::layer::Param;
use crate::sparse::{self, SparseIndex};
use crate::Tensor;
use std::sync::Arc;

/// Replacement weights for one prunable layer, used by sensitivity probes to
/// evaluate a candidate mask without cloning the rest of the model.
#[derive(Debug, Clone)]
pub struct WeightOverride {
    /// `layer_id` of the prunable layer whose weight param is replaced.
    pub layer_id: usize,
    /// The replacement weight values (same shape as the layer's weights).
    pub w: Tensor,
    /// Block-sparse index over the override's mask, consulted under the same
    /// dispatch policy ([`sparse::dispatched`]) as [`Param::gemm_sparse`].
    pub sparse: Option<Arc<SparseIndex>>,
}

impl WeightOverride {
    /// Builds an override whose weights are `base ⊙ mask`, with the
    /// block-sparse index built from `mask` by [`sparse::weight_index`], as
    /// [`Param::set_mask`] builds it — so probe evaluation is bitwise
    /// identical to cloning the model and installing the mask.
    pub fn masked(layer_id: usize, base: &Tensor, mask: &Tensor) -> Self {
        assert_eq!(base.dims(), mask.dims(), "override mask shape mismatch");
        let mut w = base.clone();
        w.mul_assign(mask);
        Self { layer_id, w, sparse: sparse::weight_index(mask) }
    }
}

/// Per-request execution context: scratch-buffer pool + weight overrides.
///
/// One context belongs to one request (or one worker thread); it is cheap to
/// create and holds no model state, so any number of contexts can execute
/// against the same shared model concurrently.
#[derive(Debug, Default)]
pub struct ExecCtx {
    free: Vec<Vec<f32>>,
    free_i16: Vec<Vec<i16>>,
    free_i8: Vec<Vec<i8>>,
    free_i64: Vec<Vec<i64>>,
    free_i32: Vec<Vec<i32>>,
    overrides: Vec<WeightOverride>,
}

/// Pops a recycled buffer from `pool` (or allocates one), cleared and
/// zero-filled to exactly `len` elements.
fn loan<T: Clone + Default>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    match pool.pop() {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, T::default());
            buf
        }
        None => vec![T::default(); len],
    }
}

impl ExecCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loans a zeroed scratch buffer of exactly `len` elements, recycling a
    /// previously [`put`](Self::put) buffer when one is available.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        loan(&mut self.free, len)
    }

    /// Returns a scratch buffer to the pool.
    pub fn put(&mut self, buf: Vec<f32>) {
        self.free.push(buf);
    }

    /// Loans a zeroed `i16` scratch buffer (quantized im2col / activations).
    pub fn take_i16(&mut self, len: usize) -> Vec<i16> {
        loan(&mut self.free_i16, len)
    }

    /// Returns an `i16` scratch buffer to the pool.
    pub fn put_i16(&mut self, buf: Vec<i16>) {
        self.free_i16.push(buf);
    }

    /// Loans a zeroed `i8` scratch buffer (int8 im2col / activations).
    pub fn take_i8(&mut self, len: usize) -> Vec<i8> {
        loan(&mut self.free_i8, len)
    }

    /// Returns an `i8` scratch buffer to the pool.
    pub fn put_i8(&mut self, buf: Vec<i8>) {
        self.free_i8.push(buf);
    }

    /// Loans a zeroed `i64` scratch buffer (Q15 conv accumulators).
    pub fn take_i64(&mut self, len: usize) -> Vec<i64> {
        loan(&mut self.free_i64, len)
    }

    /// Returns an `i64` scratch buffer to the pool.
    pub fn put_i64(&mut self, buf: Vec<i64>) {
        self.free_i64.push(buf);
    }

    /// Loans a zeroed `i32` scratch buffer (Q8 conv accumulators).
    pub fn take_i32(&mut self, len: usize) -> Vec<i32> {
        loan(&mut self.free_i32, len)
    }

    /// Returns an `i32` scratch buffer to the pool.
    pub fn put_i32(&mut self, buf: Vec<i32>) {
        self.free_i32.push(buf);
    }

    /// Installs a weight override; at most one per `layer_id` is consulted
    /// (the last installed wins).
    pub fn push_override(&mut self, ov: WeightOverride) {
        self.overrides.push(ov);
    }

    /// Removes all weight overrides.
    pub fn clear_overrides(&mut self) {
        self.overrides.clear();
    }

    /// Resolves the weight buffer and sparse-dispatch decision for a weight
    /// param: the override for `p.layer_id` when one is installed, the
    /// param's own value otherwise. Both go through the one dispatch policy
    /// ([`sparse::dispatched`]), so overridden and native weights route
    /// through the same kernels.
    pub fn weights_for<'a>(&'a self, p: &'a Param) -> (&'a [f32], Option<&'a SparseIndex>) {
        match self.overrides.iter().rev().find(|ov| ov.layer_id == p.layer_id) {
            Some(ov) => {
                assert_eq!(ov.w.dims(), p.value.dims(), "override shape mismatch for {}", p.name);
                (ov.w.data(), sparse::dispatched(ov.sparse.as_deref()))
            }
            None => (p.value.data(), p.gemm_sparse()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_buffers_recycle_and_rezero() {
        let mut ctx = ExecCtx::new();
        let mut buf = ctx.take(4);
        buf.iter_mut().for_each(|v| *v = 7.0);
        ctx.put(buf);
        let again = ctx.take(6);
        assert_eq!(again, vec![0.0; 6], "recycled scratch is re-zeroed and resized");
    }

    #[test]
    fn integer_scratch_pools_recycle_and_rezero() {
        let mut ctx = ExecCtx::new();
        let mut q15 = ctx.take_i16(3);
        q15.iter_mut().for_each(|v| *v = -5);
        ctx.put_i16(q15);
        assert_eq!(ctx.take_i16(5), vec![0i16; 5]);
        let mut q8 = ctx.take_i8(2);
        q8.iter_mut().for_each(|v| *v = 9);
        ctx.put_i8(q8);
        assert_eq!(ctx.take_i8(4), vec![0i8; 4]);
        let mut acc15 = ctx.take_i64(2);
        acc15.iter_mut().for_each(|v| *v = 1 << 40);
        ctx.put_i64(acc15);
        assert_eq!(ctx.take_i64(3), vec![0i64; 3]);
        let mut acc8 = ctx.take_i32(2);
        acc8.iter_mut().for_each(|v| *v = -7);
        ctx.put_i32(acc8);
        assert_eq!(ctx.take_i32(1), vec![0i32; 1]);
    }

    #[test]
    fn masked_override_matches_set_mask_semantics() {
        let base = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mask = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let ov = WeightOverride::masked(7, &base, &mask);
        assert_eq!(ov.w.data(), &[1.0, 0.0, 0.0, 4.0]);
        let mut p = Param::new(7, "conv7.w", base);
        p.set_mask(mask);
        assert_eq!(ov.w.data(), p.value.data());
        let idx = ov.sparse.as_ref().expect("mask builds an index");
        assert_eq!(idx.alive_fraction(), p.sparse_index().unwrap().alive_fraction());
    }

    #[test]
    fn weights_for_prefers_matching_override() {
        let p = Param::new(3, "fc3.w", Tensor::from_vec(&[1, 2], vec![5.0, 6.0]));
        let mut ctx = ExecCtx::new();
        assert_eq!(ctx.weights_for(&p).0, &[5.0, 6.0]);
        ctx.push_override(WeightOverride {
            layer_id: 3,
            w: Tensor::from_vec(&[1, 2], vec![9.0, 9.0]),
            sparse: None,
        });
        assert_eq!(ctx.weights_for(&p).0, &[9.0, 9.0]);
        ctx.clear_overrides();
        assert_eq!(ctx.weights_for(&p).0, &[5.0, 6.0]);
    }
}
