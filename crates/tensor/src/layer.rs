//! Trainable layers: convolution, fully-connected, pooling, activations.
//!
//! Layers follow a classic forward/backward protocol for training. Each
//! layer caches what it needs during `forward` and consumes it in
//! `backward`; inference runs through `infer`, which caches nothing and
//! reads weights and scratch through an [`ExecCtx`]. Prunable layers
//! (convolution and fully-connected) expose their weights as [`Param`]s
//! carrying an optional pruning mask; the optimizer re-applies the mask after
//! every step so that pruned weights stay at exactly zero through
//! fine-tuning.

use crate::exec::ExecCtx;
use crate::matmul::SparseOperand::{Lhs, Out, Rhs};
use crate::matmul::{matmul_a_bt, matmul_acc, matmul_at_b};
use crate::sparse::{self, SparseIndex};
use crate::{init, par, Tensor};
use crate::{pack, pool};
use iprune_obs::metrics::{self, Counter};
use std::sync::{Arc, OnceLock};

/// A trainable parameter: value, gradient accumulator, and optional pruning
/// mask (1.0 = keep, 0.0 = pruned).
#[derive(Debug)]
pub struct Param {
    /// Identifier of the prunable layer this parameter belongs to. Layers
    /// without a meaningful id use `usize::MAX`.
    pub layer_id: usize,
    /// Human-readable name such as `"conv3.w"`.
    pub name: String,
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Optional pruning mask, same shape as `value`.
    pub mask: Option<Tensor>,
    /// Block-sparse index over `mask`, rebuilt whenever the mask changes.
    /// `Arc` so that model clones (parallel evaluate, sensitivity probes)
    /// share one index. Private: the field must stay in sync with `mask`.
    sparse: Option<Arc<SparseIndex>>,
}

/// Counts weight-buffer clones (`*.w` params only): the serving layer's
/// zero-copy contract is "no weight clones per served request", and
/// `tests/serving_determinism.rs` asserts it against this counter.
fn weight_clone_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("tensor.weight_clones"))
}

/// Total weight-buffer clones since process start (monotonic).
pub fn weight_clone_count() -> u64 {
    weight_clone_counter().get()
}

impl Clone for Param {
    fn clone(&self) -> Self {
        if self.name.ends_with(".w") {
            weight_clone_counter().inc();
        }
        Self {
            layer_id: self.layer_id,
            name: self.name.clone(),
            value: self.value.clone(),
            grad: self.grad.clone(),
            mask: self.mask.clone(),
            sparse: self.sparse.clone(),
        }
    }
}

impl Param {
    /// Creates a parameter with a zeroed gradient and no mask.
    pub fn new(layer_id: usize, name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Self { layer_id, name: name.into(), value, grad, mask: None, sparse: None }
    }

    /// Installs (or replaces) the pruning mask, immediately zeroes the
    /// masked weights, and rebuilds the block-sparse index.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the parameter shape.
    pub fn set_mask(&mut self, mask: Tensor) {
        assert_eq!(mask.dims(), self.value.dims(), "mask shape mismatch for {}", self.name);
        self.value.mul_assign(&mask);
        self.sparse = sparse::weight_index(&mask);
        self.mask = Some(mask);
    }

    /// Re-applies the mask to both value and gradient (no-op when
    /// unmasked), building the block-sparse index if it is missing.
    pub fn apply_mask(&mut self) {
        if let Some(mask) = &self.mask {
            self.value.mul_assign(mask);
            self.grad.mul_assign(mask);
            if self.sparse.is_none() {
                self.sparse = sparse::weight_index(mask);
            }
        }
    }

    /// The mask-derived block-sparse index, if a mask is installed.
    pub fn sparse_index(&self) -> Option<&SparseIndex> {
        self.sparse.as_deref()
    }

    /// The block-sparse index *iff* the current dispatch policy
    /// ([`sparse::dispatched`]) routes this parameter's GEMMs through the
    /// sparse forms.
    pub fn gemm_sparse(&self) -> Option<&SparseIndex> {
        sparse::dispatched(self.sparse.as_deref())
    }

    /// Fraction of weights still unmasked (1.0 when no mask is installed).
    pub fn density(&self) -> f64 {
        match &self.mask {
            None => 1.0,
            Some(m) => {
                let kept: f64 = m.data().iter().map(|&x| x as f64).sum();
                kept / m.numel() as f64
            }
        }
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A differentiable network layer with two passes over the same weights.
///
/// * [`Layer::forward`] is the training pass: it caches what
///   [`Layer::backward`] consumes, so it takes `&mut self`.
/// * [`Layer::infer`] is the inference pass: it reads the layer through
///   `&self` and takes weights and scratch from a per-request [`ExecCtx`].
///
/// The two compute the same output bit for bit.
///
/// Layers are `Send + Sync` and cloneable through [`Layer::clone_box`] so
/// that whole models can be snapshotted and handed to [`crate::par`] workers
/// (e.g. independent sensitivity probes evaluating cloned models).
pub trait Layer: Send + Sync {
    /// Training pass: computes the layer output and caches what `backward`
    /// needs.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Propagates `grad` (w.r.t. the output) back to the input, accumulating
    /// parameter gradients along the way.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Shared-state inference: computes the same output as `forward`,
    /// bitwise, without mutating the layer, reading weights and scratch
    /// through the per-request [`ExecCtx`]. This is the path the serving
    /// front end and the evaluators use: one loaded model, many concurrent
    /// contexts, zero weight clones.
    fn infer(&self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor;

    /// Visits every trainable parameter. The default is parameter-free.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every trainable parameter by shared reference. The default is
    /// parameter-free. Prunable layers override this so `Arc`-shared models
    /// can be inspected (weights, masks, densities) without `&mut` access.
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    /// Clones the layer, caches and all, into a fresh box.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution over NCHW tensors, implemented by im2col + GEMM.
///
/// Weight layout is `[cout, cin, kh, kw]`; bias is `[cout]`. Forward and
/// backward parallelize across the batch: each sample's im2col/GEMM (and in
/// backward its private slice of the input gradient) is handled by one
/// [`crate::par`] worker, and per-sample weight-gradient partials are
/// reduced in sample order on the calling thread so results are
/// bit-identical to the serial loop at any thread count.
#[derive(Clone)]
pub struct Conv2d {
    layer_id: usize,
    cin: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    w: Param,
    b: Param,
    cached_input: Option<Tensor>,
    cached_cols: Vec<Vec<f32>>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights seeded by
    /// `layer_id` (so networks are reproducible end to end).
    pub fn new(
        layer_id: usize,
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Self::with_shape(layer_id, cin, cout, kernel, kernel, stride, pad, pad)
    }

    /// Creates a convolution with a rectangular kernel and independent
    /// height/width padding (e.g. a 3x1 temporal kernel for 1-D data).
    #[allow(clippy::too_many_arguments)]
    pub fn with_shape(
        layer_id: usize,
        cin: usize,
        cout: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
    ) -> Self {
        let w = init::kaiming_uniform(&[cout, cin, kh, kw], 0x5EED_0000 + layer_id as u64);
        let b = Tensor::zeros(&[cout]);
        Self {
            layer_id,
            cin,
            cout,
            kh,
            kw,
            stride,
            pad_h,
            pad_w,
            w: Param::new(layer_id, format!("conv{layer_id}.w"), w),
            b: Param::new(layer_id, format!("conv{layer_id}.b"), b),
            cached_input: None,
            cached_cols: Vec::new(),
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad_h - self.kh) / self.stride + 1,
            (w + 2 * self.pad_w - self.kw) / self.stride + 1,
        )
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// The packing geometry for an input of `(h, w)`.
    fn conv_shape(&self, h: usize, w: usize, ho: usize, wo: usize) -> pack::ConvShape {
        pack::ConvShape {
            cin: self.cin,
            kh: self.kh,
            kw: self.kw,
            stride: self.stride,
            pad_h: self.pad_h,
            pad_w: self.pad_w,
            in_h: h,
            in_w: w,
            out_h: ho,
            out_w: wo,
        }
    }

    /// im2col for one sample: writes a `[cin*kh*kw, ho*wo]` matrix through
    /// the dispatched packing kernel ([`pack::im2col_rows`] — bitwise equal
    /// to its scalar spec, i.e. to the original per-element loop, at every
    /// SIMD level).
    fn im2col(&self, x: &Tensor, n: usize, ho: usize, wo: usize, col: &mut [f32]) {
        let (h, w) = (x.dims()[2], x.dims()[3]);
        let s = self.conv_shape(h, w, ho, wo);
        let base = n * s.in_len();
        pack::im2col_rows(&x.data()[base..base + s.in_len()], &s, col);
    }

    /// Checks an NCHW input; returns its zeroed output and the per-sample
    /// output and im2col lengths.
    fn start(&self, x: &Tensor) -> (Tensor, usize, usize) {
        assert_eq!(x.dims().len(), 4, "Conv2d expects NCHW input");
        assert_eq!(x.dims()[1], self.cin, "Conv2d {} input channels", self.layer_id);
        let (ho, wo) = self.out_hw(x.dims()[2], x.dims()[3]);
        let out = Tensor::zeros(&[x.dims()[0], self.cout, ho, wo]);
        (out, self.cout * ho * wo, self.cin * self.kh * self.kw * ho * wo)
    }

    /// One sample's forward pass, shared by `forward` and `infer`: im2col
    /// of sample `s` into `col` (which it overwrites whole, so recycled
    /// scratch is bitwise equivalent to a fresh buffer), then
    /// `out += W·col` and the bias, into the sample's output slice.
    fn forward_sample(
        &self,
        x: &Tensor,
        s: usize,
        (w, w_sparse): (&[f32], Option<&SparseIndex>),
        col: &mut [f32],
        out: &mut [f32],
    ) {
        let (ho, wo) = self.out_hw(x.dims()[2], x.dims()[3]);
        let (k, hw_out) = (self.cin * self.kh * self.kw, ho * wo);
        self.im2col(x, s, ho, wo, col);
        matmul_acc(w, col, out, self.cout, k, hw_out, w_sparse.map(Lhs));
        for (m, &bias) in self.b.value.data().iter().enumerate() {
            for v in &mut out[m * hw_out..(m + 1) * hw_out] {
                *v += bias;
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (mut out, out_len, col_len) = self.start(x);
        // One par worker per sample: each owns its output slice and im2col
        // scratch, so there is no cross-sample reduction to order.
        let this = &*self;
        let w = (this.w.value.data(), this.w.gemm_sparse());
        self.cached_cols = par::par_chunks_map(out.data_mut(), out_len, |s, out_s| {
            let mut col = vec![0.0f32; col_len];
            this.forward_sample(x, s, w, &mut col, out_s);
            col
        });
        self.cached_input = Some(x.clone());
        out
    }

    fn infer(&self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let (mut out, out_len, col_len) = self.start(x);
        let n = x.dims()[0];
        let workers = par::workers_for(n);
        if !par::in_worker() && workers > 1 {
            // Batched call from the coordinating thread: one contiguous
            // group of samples per worker, each group re-using one im2col
            // scratch across its samples (the pass overwrites it whole).
            let w = ctx.weights_for(&self.w);
            let per = n.div_ceil(workers);
            par::par_blocks(out.data_mut(), per * out_len, |g, out_g| {
                let mut col = vec![0.0f32; col_len];
                for (j, out_s) in out_g.chunks_exact_mut(out_len).enumerate() {
                    self.forward_sample(x, g * per + j, w, &mut col, out_s);
                }
            });
        } else {
            // Serial (or nested-in-worker) call: re-use the context's im2col
            // scratch across samples.
            let mut col = ctx.take(col_len);
            let w = ctx.weights_for(&self.w);
            for s in 0..x.dims()[0] {
                let out_s = &mut out.data_mut()[s * out_len..(s + 1) * out_len];
                self.forward_sample(x, s, w, &mut col, out_s);
            }
            ctx.put(col);
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("Conv2d::backward before forward");
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (ho, wo) = self.out_hw(h, w);
        let k = self.cin * self.kh * self.kw;
        let hw_out = ho * wo;
        assert_eq!(grad.dims(), &[n, self.cout, ho, wo]);
        let mut gx = Tensor::zeros(x.dims());
        // One par worker per sample. Each computes its dW/db into private
        // zeroed partials (a dot accumulated from zero is bitwise the value
        // itself) and scatter-adds dX into its own gx slice; the partials
        // are then folded into the shared gradients in ascending sample
        // order, which replays the serial loop's add sequence exactly.
        let this = &*self;
        let w_sparse = self.w.gemm_sparse();
        let partials = par::par_chunks_map(gx.data_mut(), self.cin * h * w, |s, gx_s| {
            let g_slice = &grad.data()[s * this.cout * hw_out..(s + 1) * this.cout * hw_out];
            let col = &this.cached_cols[s];
            // dW_s = dY (M x HW) * col^T (HW x K); on the sparse path only
            // alive blocks accumulate — dead-block gradients would be
            // zeroed by the optimizer's mask application anyway
            let mut dw = vec![0.0f32; this.w.grad.numel()];
            matmul_a_bt(g_slice, col, &mut dw, this.cout, hw_out, k, w_sparse.map(Out));
            // db_s = row sums of dY
            let mut db = vec![0.0f32; this.cout];
            for (m, dbm) in db.iter_mut().enumerate() {
                *dbm = g_slice[m * hw_out..(m + 1) * hw_out].iter().sum();
            }
            // dcol = W^T (K x M) * dY (M x HW), scattered into this
            // sample's gx slice by the im2col adjoint
            let mut grad_col = vec![0.0f32; k * hw_out];
            let wt = this.w.value.data();
            matmul_at_b(wt, g_slice, &mut grad_col, k, this.cout, hw_out, w_sparse.map(Lhs));
            pack::col2im_f32(&grad_col, &this.conv_shape(h, w, ho, wo), gx_s);
            (dw, db)
        });
        for (dw, db) in &partials {
            for (g, &d) in self.w.grad.data_mut().iter_mut().zip(dw.iter()) {
                *g += d;
            }
            for (g, &d) in self.b.grad.data_mut().iter_mut().zip(db.iter()) {
                *g += d;
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer over `[N, din]` inputs. Weight layout `[dout, din]`.
#[derive(Clone)]
pub struct Linear {
    layer_id: usize,
    din: usize,
    dout: usize,
    w: Param,
    b: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform weights seeded by
    /// `layer_id`.
    pub fn new(din: usize, dout: usize, layer_id: usize) -> Self {
        let w = init::kaiming_uniform(&[dout, din], 0x5EED_1000 + layer_id as u64);
        let b = Tensor::zeros(&[dout]);
        Self {
            layer_id,
            din,
            dout,
            w: Param::new(layer_id, format!("fc{layer_id}.w"), w),
            b: Param::new(layer_id, format!("fc{layer_id}.b"), b),
            cached_input: None,
        }
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// `x · Wᵀ + bias` with the given weights, shared by `forward` and
    /// `infer`.
    fn apply(&self, x: &Tensor, w: &[f32], w_sparse: Option<&SparseIndex>) -> Tensor {
        assert_eq!(x.dims().len(), 2, "Linear expects [N, din]");
        assert_eq!(x.dims()[1], self.din, "Linear {} input dim", self.layer_id);
        let n = x.dims()[0];
        let mut out = Tensor::zeros(&[n, self.dout]);
        matmul_a_bt(x.data(), w, out.data_mut(), n, self.din, self.dout, w_sparse.map(Rhs));
        for s in 0..n {
            for (j, &bias) in self.b.value.data().iter().enumerate() {
                out.data_mut()[s * self.dout + j] += bias;
            }
        }
        out
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.apply(x, self.w.value.data(), self.w.gemm_sparse());
        self.cached_input = Some(x.clone());
        out
    }

    fn infer(&self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let (w, w_sparse) = ctx.weights_for(&self.w);
        self.apply(x, w, w_sparse)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("Linear::backward before forward");
        let n = x.dims()[0];
        assert_eq!(grad.dims(), &[n, self.dout]);
        // dW += dY^T (F x N) * X (N x D); on the sparse path only alive
        // blocks accumulate — dead-block gradients would be zeroed by the
        // optimizer's mask application anyway
        // `gemm_sparse()` would borrow all of `self.w`; the field borrow
        // leaves `self.w.grad` free for the gradient buffer
        let w_sparse = sparse::dispatched(self.w.sparse.as_deref());
        let dw = self.w.grad.data_mut();
        matmul_at_b(grad.data(), x.data(), dw, self.dout, n, self.din, w_sparse.map(Out));
        for s in 0..n {
            for j in 0..self.dout {
                self.b.grad.data_mut()[j] += grad.data()[s * self.dout + j];
            }
        }
        // dX = dY (N x F) * W (F x D)
        let mut gx = Tensor::zeros(&[n, self.din]);
        let w = self.w.value.data();
        matmul_acc(grad.data(), w, gx.data_mut(), n, self.dout, self.din, w_sparse.map(Rhs));
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

/// Non-overlapping max pooling with window = stride = `k` (height only when
/// the width is already 1, as in the 1-D HAR model).
#[derive(Clone)]
pub struct MaxPool2d {
    kh: usize,
    kw: usize,
    argmax: Vec<usize>,
    in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Square `k`×`k` pooling.
    pub fn new(k: usize) -> Self {
        Self { kh: k, kw: k, argmax: Vec::new(), in_dims: Vec::new() }
    }

    /// Rectangular pooling (e.g. `kh`=2, `kw`=1 for temporal data).
    pub fn with_window(kh: usize, kw: usize) -> Self {
        Self { kh, kw, argmax: Vec::new(), in_dims: Vec::new() }
    }

    /// Checks an NCHW input; returns its zeroed output, the number of
    /// channel planes, the input plane's `[h, w]` and the input and output
    /// plane lengths.
    fn start(&self, x: &Tensor) -> (Tensor, usize, [usize; 2], [usize; 2]) {
        assert_eq!(x.dims().len(), 4, "MaxPool2d expects NCHW input");
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (ho, wo) = (h / self.kh, w / self.kw);
        (Tensor::zeros(&[n, c, ho, wo]), n * c, [h, w], [h * w, ho * wo])
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (mut out, planes, [h, w], [plane, oplane]) = self.start(x);
        self.argmax = vec![0; out.numel()];
        self.in_dims = x.dims().to_vec();
        // one dispatched pool kernel per channel plane; the kernel records
        // plane-relative argmax offsets, rebased to tensor offsets here
        for p in 0..planes {
            let src = &x.data()[p * plane..(p + 1) * plane];
            let dst = &mut out.data_mut()[p * oplane..(p + 1) * oplane];
            let arg = &mut self.argmax[p * oplane..(p + 1) * oplane];
            pool::maxpool2d_f32_argmax(src, h, w, self.kh, self.kw, dst, arg);
            for a in arg.iter_mut() {
                *a += p * plane;
            }
        }
        out
    }

    fn infer(&self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let (mut out, planes, [h, w], [plane, oplane]) = self.start(x);
        for p in 0..planes {
            let src = &x.data()[p * plane..(p + 1) * plane];
            let dst = &mut out.data_mut()[p * oplane..(p + 1) * oplane];
            pool::maxpool2d_f32(src, h, w, self.kh, self.kw, dst);
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert!(!self.in_dims.is_empty(), "MaxPool2d::backward before forward");
        let mut gx = Tensor::zeros(&self.in_dims);
        pool::maxpool2d_backward_f32(&self.argmax, grad.data(), gx.data_mut());
        gx
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: `[N, C, H, W]` → `[N, C]`.
#[derive(Clone)]
pub struct GlobalAvgPool {
    in_dims: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        Self { in_dims: Vec::new() }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.in_dims = x.dims().to_vec();
        self.infer(x, &mut ExecCtx::new())
    }

    fn infer(&self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let mut out = Tensor::zeros(&[n, c]);
        let inv = 1.0 / (h * w) as f32;
        for s in 0..n {
            for ch in 0..c {
                let base = x.offset4(s, ch, 0, 0);
                let sum: f32 = x.data()[base..base + h * w].iter().sum();
                out.data_mut()[s * c + ch] = sum * inv;
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert!(!self.in_dims.is_empty(), "GlobalAvgPool::backward before forward");
        let (n, c, h, w) = (self.in_dims[0], self.in_dims[1], self.in_dims[2], self.in_dims[3]);
        let mut gx = Tensor::zeros(&self.in_dims);
        let inv = 1.0 / (h * w) as f32;
        for s in 0..n {
            for ch in 0..c {
                let g = grad.data()[s * c + ch] * inv;
                let base = s * c * h * w + ch * h * w;
                for v in &mut gx.data_mut()[base..base + h * w] {
                    *v = g;
                }
            }
        }
        gx
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Activations and reshape
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Clone)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates the activation.
    pub fn new() -> Self {
        Self { mask: Vec::new() }
    }

    /// `max(x, 0)` per element as a select, not a branch: activation signs
    /// are unpredictable, and the select compiles to a branchless vector
    /// blend. Negatives (subnormals included) become +0.0; -0.0 and NaN keep
    /// their bits, exactly as `if *v < 0.0 { *v = 0.0 }` leaves them.
    fn apply(x: &Tensor) -> Tensor {
        let mut out = x.clone();
        for v in out.data_mut() {
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
        out
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.mask = x.data().iter().map(|&v| v > 0.0).collect();
        Self::apply(x)
    }

    fn infer(&self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        Self::apply(x)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.numel(), self.mask.len(), "Relu::backward before forward");
        let mut gx = grad.clone();
        // a select, not a branch, for the reason given on `Relu::apply`
        for (v, &keep) in gx.data_mut().iter_mut().zip(self.mask.iter()) {
            *v = if keep { *v } else { 0.0 };
        }
        gx
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Reshapes `[N, ...]` to `[N, prod(...)]`.
#[derive(Clone)]
pub struct Flatten {
    in_dims: Vec<usize>,
}

impl Flatten {
    /// Creates the reshape layer.
    pub fn new() -> Self {
        Self { in_dims: Vec::new() }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.in_dims = x.dims().to_vec();
        self.infer(x, &mut ExecCtx::new())
    }

    fn infer(&self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.reshape(&self.in_dims)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

/// A chain of layers executed in order.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    fn infer(&self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.infer(&cur, ctx);
        }
        cur
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks `d loss / d input` for a layer with loss = sum(out).
    fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let out = layer.forward(x);
        let grad_out = Tensor::full(out.dims(), 1.0);
        let gx = layer.backward(&grad_out);
        let eps = 1e-2f32;
        for i in (0..x.numel()).step_by((x.numel() / 17).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let op = layer.infer(&xp, &mut ExecCtx::new());
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let om = layer.infer(&xm, &mut ExecCtx::new());
            let sp: f32 = op.data().iter().sum();
            let sm: f32 = om.data().iter().sum();
            let num = (sp - sm) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < tol,
                "grad mismatch at {}: numeric {} vs analytic {}",
                i,
                num,
                gx.data()[i]
            );
        }
    }

    fn ramp(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect())
    }

    #[test]
    fn conv_forward_known_values() {
        // 1x1x3x3 input, single 1-channel 3x3 filter of all ones, pad 1:
        // output at center = sum of all inputs.
        let mut conv = Conv2d::new(0, 1, 1, 3, 1, 1);
        conv.w.value = Tensor::full(&[1, 1, 3, 3], 1.0);
        conv.b.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.infer(&x, &mut ExecCtx::new());
        assert_eq!(y.dims(), &[1, 1, 3, 3]);
        assert_eq!(y.at4(0, 0, 1, 1), 45.0);
        // corner sees only the 2x2 neighborhood
        assert_eq!(y.at4(0, 0, 0, 0), 1.0 + 2.0 + 4.0 + 5.0);
    }

    #[test]
    fn conv_stride_changes_output_size() {
        let conv = Conv2d::new(1, 3, 8, 3, 2, 1);
        assert_eq!(conv.out_hw(32, 32), (16, 16));
    }

    #[test]
    fn conv_input_gradient_matches_numeric() {
        let mut conv = Conv2d::new(2, 2, 3, 3, 1, 1);
        let x = ramp(&[2, 2, 5, 5]);
        check_input_grad(&mut conv, &x, 2e-2);
    }

    #[test]
    fn conv_weight_gradient_matches_numeric() {
        let mut conv = Conv2d::new(3, 2, 2, 3, 1, 1);
        let x = ramp(&[1, 2, 4, 4]);
        let out = conv.forward(&x);
        let grad_out = Tensor::full(out.dims(), 1.0);
        conv.backward(&grad_out);
        let analytic = conv.w.grad.clone();
        let eps = 1e-2f32;
        for i in (0..conv.w.value.numel()).step_by(5) {
            let orig = conv.w.value.data()[i];
            conv.w.value.data_mut()[i] = orig + eps;
            let sp: f32 = conv.infer(&x, &mut ExecCtx::new()).data().iter().sum();
            conv.w.value.data_mut()[i] = orig - eps;
            let sm: f32 = conv.infer(&x, &mut ExecCtx::new()).data().iter().sum();
            conv.w.value.data_mut()[i] = orig;
            let num = (sp - sm) / (2.0 * eps);
            assert!((num - analytic.data()[i]).abs() < 2e-2, "dW mismatch at {i}");
        }
    }

    #[test]
    fn linear_input_gradient_matches_numeric() {
        let mut fc = Linear::new(6, 4, 0);
        let x = ramp(&[3, 6]);
        check_input_grad(&mut fc, &x, 1e-2);
    }

    #[test]
    fn linear_forward_bias() {
        let mut fc = Linear::new(2, 2, 1);
        fc.w.value = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        fc.b.value = Tensor::from_vec(&[2], vec![10.0, 20.0]);
        let y = fc.infer(&Tensor::from_vec(&[1, 2], vec![3.0, 4.0]), &mut ExecCtx::new());
        assert_eq!(y.data(), &[13.0, 24.0]);
    }

    #[test]
    fn maxpool_forward_and_backward_route() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[5.0]);
        let gx = pool.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![7.0]));
        assert_eq!(gx.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_rectangular_window() {
        let pool = MaxPool2d::with_window(2, 1);
        let x = Tensor::from_vec(&[1, 1, 4, 1], vec![1.0, 2.0, 4.0, 3.0]);
        let y = pool.infer(&x, &mut ExecCtx::new());
        assert_eq!(y.dims(), &[1, 1, 2, 1]);
        assert_eq!(y.data(), &[2.0, 4.0]);
    }

    #[test]
    fn global_avg_pool_values_and_grad() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(&[1, 2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]);
        let y = gap.forward(&x);
        assert_eq!(y.data(), &[2.0, 15.0]);
        let gx = gap.backward(&Tensor::from_vec(&[1, 2], vec![2.0, 4.0]));
        assert_eq!(gx.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn relu_zeroes_negatives_and_grads() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let gx = relu.backward(&Tensor::full(&[4], 1.0));
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0, 1.0]);

        // signed zeros, NaN and subnormals: forward keeps -0.0's and the
        // NaN's bits and maps every negative to +0.0; backward zeroes
        // exactly the positions whose input was not > 0
        let nan = f32::from_bits(0x7FC0_1234);
        let sub = -f32::from_bits(1);
        let x = Tensor::from_vec(&[6], vec![-0.0, nan, sub, 0.0, -2.5, 1.5]);
        let want = [(-0.0f32).to_bits(), nan.to_bits(), 0, 0, 0, 1.5f32.to_bits()];
        let y = relu.forward(&x);
        let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
        let y_infer = relu.infer(&x, &mut ExecCtx::new());
        let bits: Vec<u32> = y_infer.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
        let g = Tensor::from_vec(&[6], vec![3.0, -4.0, 5.0, 6.0, 7.0, -8.0]);
        let gx = relu.backward(&g);
        let bits: Vec<u32> = gx.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0, 0, 0, 0, 0, (-8.0f32).to_bits()]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut flat = Flatten::new();
        let x = ramp(&[2, 3, 2, 2]);
        let y = flat.forward(&x);
        assert_eq!(y.dims(), &[2, 12]);
        let gx = flat.backward(&y);
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn sequential_chains_and_visits_params() {
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 8, 0)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, 1)),
        ]);
        let y = net.forward(&ramp(&[2, 4]));
        assert_eq!(y.dims(), &[2, 2]);
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 4); // two weights + two biases
    }

    #[test]
    fn infer_is_bitwise_identical_to_forward() {
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(0, 2, 4, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::new(1, 4, 6, 3, 1, 1)),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(6, 3, 2)),
        ]);
        // Install a mask on the first conv so the sparse dispatch path is
        // exercised on both sides.
        net.visit_params(&mut |p| {
            if p.name == "conv0.w" {
                let mask = Tensor::from_vec(
                    p.value.dims(),
                    (0..p.value.numel()).map(|i| (i % 3 != 0) as u32 as f32).collect(),
                );
                p.set_mask(mask);
            }
        });
        let x = ramp(&[3, 2, 8, 8]);
        let want = net.forward(&x);
        let mut ctx = ExecCtx::new();
        let got = net.infer(&x, &mut ctx);
        assert_eq!(want.dims(), got.dims());
        assert_eq!(want.data(), got.data(), "infer must match forward bitwise");
        // A recycled context must not change the result.
        let again = net.infer(&x, &mut ctx);
        assert_eq!(want.data(), again.data());
    }

    #[test]
    fn weight_override_matches_cloned_masked_model() {
        let base = Linear::new(6, 4, 9);
        let mask = Tensor::from_vec(&[4, 6], (0..24).map(|i| (i % 2 == 0) as u32 as f32).collect());
        let mut masked = base.clone();
        masked.visit_params(&mut |p| {
            if p.name.ends_with(".w") {
                p.set_mask(mask.clone());
            }
        });
        let x = ramp(&[2, 6]);
        let want = masked.forward(&x);

        let mut ctx = ExecCtx::new();
        let ov = crate::exec::WeightOverride::masked(9, &base.weight().value, &mask);
        ctx.push_override(ov);
        let got = base.infer(&x, &mut ctx);
        assert_eq!(want.data(), got.data(), "override path must match the cloned-model path");
    }

    #[test]
    fn param_clone_bumps_weight_clone_counter() {
        let before = super::weight_clone_count();
        let p = Param::new(0, "conv0.w", Tensor::zeros(&[2, 2]));
        let _c = p.clone();
        let b = Param::new(0, "conv0.b", Tensor::zeros(&[2]));
        let _c2 = b.clone();
        assert_eq!(
            super::weight_clone_count() - before,
            1,
            "weight clones count, bias clones do not"
        );
    }

    #[test]
    fn param_mask_zeroes_weights_and_density() {
        let mut p = Param::new(0, "t.w", Tensor::full(&[4], 2.0));
        let mask = Tensor::from_vec(&[4], vec![1.0, 0.0, 1.0, 0.0]);
        p.set_mask(mask);
        assert_eq!(p.value.data(), &[2.0, 0.0, 2.0, 0.0]);
        assert!((p.density() - 0.5).abs() < 1e-9);
        p.grad = Tensor::full(&[4], 1.0);
        p.apply_mask();
        assert_eq!(p.grad.data(), &[1.0, 0.0, 1.0, 0.0]);
    }
}
