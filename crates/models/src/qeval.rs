//! Host-side quantized evaluation: device numerics at host speed.
//!
//! The device simulator (`iprune-hawaii`) evaluates quantized models one
//! accelerator job at a time — faithful, but far too slow for sweeping
//! accuracy over a model zoo. This module runs the *same* fixed-point
//! arithmetic through the host integer kernels ([`iprune_tensor::qgemm`]):
//! widened accumulation with the bias preloaded at accumulator scale,
//! arithmetic-shift requantization, and integer pooling — so its logits
//! are bit-equal to the device engine's, at the host's SIMD throughput.
//!
//! Convolutions run in the engine's layout: the input packed row-major as
//! `[k][out_hw]` ([`pack::im2col_rows`], the packing the engine's tiles
//! read too), the bias preloaded into accumulators loaned from the
//! [`ExecCtx`], the block kernel ([`qgemm::q15_block_acc`], the kernel the
//! engine's output tiles run on, or its i8 twin [`qgemm::q8_block_acc`])
//! called once per 4-row block row with that row's alive column strips as
//! its segments, and the requantize + ReLU epilogue written straight into
//! the destination rows. The strips come from each layer's
//! [`SparseIndex`], built at quantize time from the quantized weights'
//! nonzeros on the host's 4×16 grid, so all-zero blocks of a block-pruned
//! model are skipped. Skipping them is exact: Q15 sums are exact in i64
//! and Q8's wrapping i32 sums reassociate freely, so only products that
//! are zero go missing. Fully-connected layers have one output column;
//! they keep the dot-form GEMMs ([`qgemm::q15_gemm`], [`qgemm::q8_gemm`]).
//!
//! Two precisions share one quantizer ([`QModel::quantize`]) and one
//! forward, a backend of the graph walk in [`crate::graphref`]:
//!
//! * **Q15** ([`QuantizedModel`]): i16 activations/weights, i16×i16→i64
//!   accumulation — the format the paper's MSP430 deployment uses.
//!   `iprune-hawaii`'s `deploy` packs its layers for the device, so host
//!   and device share calibration by construction.
//! * **Q8** ([`Quantized8Model`]): i8 activations/weights, i8×i8→i32
//!   wrapping accumulation with the bias preloaded as i32 at accumulator
//!   scale (the standard int8 deployment convention). Half the memory
//!   traffic and twice the SIMD lanes of Q15, at a larger quantization
//!   error.
//!
//! Calibration takes per-buffer ranges from the float reference executor
//! ([`crate::graphref::run_graph`]) over a handful of samples, pins
//! shape-preserving ops to their input format, and sets each bias format
//! by the precision's bias rule ([`Precision::bias`]). That walk computes
//! eight output channels per lane block with the bits of the direct
//! one-output-at-a-time loop, so the calibrated formats do not depend on
//! how it is vectorised.
//!
//! Both engines accept an [`ExecCtx`] (`forward_q15_with` /
//! `forward_q8_with`) so hot paths — the serving loop, repeated
//! evaluation — recycle the activation, im2col and accumulator scratch
//! instead of reallocating per sample. The ctx-less entry points are thin
//! wrappers over a throwaway context and are bitwise identical.

use crate::arch::{GraphOp, ModelInfo, PrunableKind};
use crate::graphref::{run_graph, walk, Activation, LayerOp, Numerics};
use crate::model::Model;
use iprune_datasets::Dataset;
use iprune_tensor::exec::ExecCtx;
use iprune_tensor::metrics::argmax;
use iprune_tensor::pack::{self, ConvShape, PackElem};
use iprune_tensor::qgemm::{self, q15_gemm, q8_gemm, Segment};
use iprune_tensor::quant::{Q8Format, QFormat};
use iprune_tensor::sparse::SparseIndex;
use iprune_tensor::Tensor;
use std::fmt::Debug;

/// Default number of calibration samples (host engines and device deploy).
pub const DEFAULT_CALIBRATION: usize = 8;

/// One integer precision of the host engine: its element, bias,
/// accumulator and format types, its bias rule, and its kernels.
pub trait Precision: Sized {
    /// Activation and weight element.
    type Elem: Activation + PackElem + Debug + Default + PartialEq;
    /// Bias element.
    type Bias: Copy + Debug;
    /// Conv accumulator element.
    type Acc: Copy;
    /// Power-of-two fixed-point format.
    type Fmt: Copy + PartialEq + Debug;
    /// The block kernel a conv runs once per block row (see
    /// [`qgemm::q15_block_acc`] for the operand layout).
    const BLOCK_ACC: BlockAcc<Self>;
    /// The requantize + ReLU epilogue (see [`qgemm::q15_requantize_relu`]).
    const REQUANTIZE: Requantize<Self>;
    /// Loans an accumulator buffer of the given length from the context.
    const TAKE_ACC: fn(&mut ExecCtx, usize) -> Vec<Self::Acc>;
    /// Returns an accumulator buffer to the context.
    const PUT_ACC: fn(&mut ExecCtx, Vec<Self::Acc>);
    /// The largest format that holds `max_abs` without saturation.
    fn fmt(max_abs: f32) -> Self::Fmt;
    /// Fractional bits of `fmt`.
    fn frac(fmt: Self::Fmt) -> u8;
    /// Quantizes one value.
    fn quantize(fmt: Self::Fmt, v: f32) -> Self::Elem;
    /// Dequantizes one value.
    fn dequantize(fmt: Self::Fmt, q: Self::Elem) -> f32;
    /// Quantizes a layer's bias for an accumulator with `acc_frac`
    /// fractional bits; returns the values and their fractional bits.
    fn bias(b: &Tensor, acc_frac: u8) -> (Vec<Self::Bias>, u8);
    /// Output feature `i`'s bias at accumulator scale, for an input with
    /// `in_frac` fractional bits.
    fn preload(ql: &QLayer<Self>, i: usize, in_frac: u8) -> Self::Acc;
    /// `c = requantize(w · x + bias)` for the single input column `x`
    /// (the dot-form GEMM of a fully-connected layer), with `(in_frac,
    /// out_frac)` the input and output activation formats and an optional
    /// fused ReLU.
    fn fc(ql: &QLayer<Self>, x: &[Self::Elem], c: &mut [Self::Elem], fracs: (u8, u8), relu: bool);
}

/// An epilogue's signature: `(acc, out, in_frac, w_frac, out_frac, relu)`.
pub type Requantize<P> =
    fn(&[<P as Precision>::Acc], &mut [<P as Precision>::Elem], u8, u8, u8, bool);

/// A block kernel's signature: `(w, w_stride, segs, x, x_stride, acc,
/// rows, s_len)`.
pub type BlockAcc<P> = fn(
    &[<P as Precision>::Elem],
    usize,
    &[Segment],
    &[<P as Precision>::Elem],
    usize,
    &mut [<P as Precision>::Acc],
    usize,
    usize,
);

/// The 16-bit precision of the paper's device deployment.
#[derive(Debug, Clone)]
pub enum Q15 {}

/// The int8 deployment precision.
#[derive(Debug, Clone)]
pub enum Q8 {}

impl Precision for Q15 {
    type Elem = i16;
    type Bias = i16;
    type Acc = i64;
    type Fmt = QFormat;
    const BLOCK_ACC: BlockAcc<Self> = qgemm::q15_block_acc;
    const REQUANTIZE: Requantize<Self> = qgemm::q15_requantize_relu;
    const TAKE_ACC: fn(&mut ExecCtx, usize) -> Vec<i64> = ExecCtx::take_i64;
    const PUT_ACC: fn(&mut ExecCtx, Vec<i64>) = ExecCtx::put_i64;
    fn fmt(max_abs: f32) -> QFormat {
        QFormat::for_max_abs(max_abs)
    }
    fn frac(fmt: QFormat) -> u8 {
        fmt.frac_bits()
    }
    fn quantize(fmt: QFormat, v: f32) -> i16 {
        fmt.quantize(v)
    }
    fn dequantize(fmt: QFormat, q: i16) -> f32 {
        fmt.dequantize(q)
    }
    /// The bias takes its own natural format, capped at the depth of the
    /// accumulator it is added in.
    fn bias(b: &Tensor, acc_frac: u8) -> (Vec<i16>, u8) {
        let natural = QFormat::for_max_abs(b.max_abs().max(1e-6));
        let fmt = QFormat::new(natural.frac_bits().min(acc_frac).min(15));
        (b.data().iter().map(|&v| fmt.quantize(v)).collect(), fmt.frac_bits())
    }
    /// The bias shifted up from its own format to the accumulator's.
    fn preload(ql: &QLayer<Q15>, i: usize, in_frac: u8) -> i64 {
        (ql.bias[i] as i64) << (in_frac + ql.w_frac - ql.bias_frac)
    }
    fn fc(ql: &QLayer<Q15>, x: &[i16], c: &mut [i16], fracs: (u8, u8), relu: bool) {
        let (in_frac, out_frac) = fracs;
        let bias_shift = (in_frac + ql.w_frac - ql.bias_frac) as u32;
        q15_gemm(
            &ql.w, x, &ql.bias, bias_shift, c, ql.m, ql.k, 1, in_frac, ql.w_frac, out_frac, relu,
        );
    }
}

impl Precision for Q8 {
    type Elem = i8;
    type Bias = i32;
    type Acc = i32;
    type Fmt = Q8Format;
    const BLOCK_ACC: BlockAcc<Self> = qgemm::q8_block_acc;
    const REQUANTIZE: Requantize<Self> = qgemm::q8_requantize_relu;
    const TAKE_ACC: fn(&mut ExecCtx, usize) -> Vec<i32> = ExecCtx::take_i32;
    const PUT_ACC: fn(&mut ExecCtx, Vec<i32>) = ExecCtx::put_i32;
    fn fmt(max_abs: f32) -> Q8Format {
        Q8Format::for_max_abs(max_abs)
    }
    fn frac(fmt: Q8Format) -> u8 {
        fmt.frac_bits()
    }
    fn quantize(fmt: Q8Format, v: f32) -> i8 {
        fmt.quantize(v)
    }
    fn dequantize(fmt: Q8Format, q: i8) -> f32 {
        fmt.dequantize(q)
    }
    /// The bias is preloaded as i32 at accumulator scale, so the kernels
    /// add it without a shift.
    fn bias(b: &Tensor, acc_frac: u8) -> (Vec<i32>, u8) {
        let scale = (1i64 << acc_frac) as f64;
        let q = |v: f32| (v as f64 * scale).round().clamp(i32::MIN as f64, i32::MAX as f64) as i32;
        (b.data().iter().map(|&v| q(v)).collect(), acc_frac)
    }
    fn preload(ql: &QLayer<Q8>, i: usize, _in_frac: u8) -> i32 {
        ql.bias[i]
    }
    fn fc(ql: &QLayer<Q8>, x: &[i8], c: &mut [i8], fracs: (u8, u8), relu: bool) {
        let (in_frac, out_frac) = fracs;
        q8_gemm(&ql.w, x, &ql.bias, c, ql.m, ql.k, 1, in_frac, ql.w_frac, out_frac, relu);
    }
}

/// One quantized prunable layer: dense weights in GEMM row-major
/// (`[m][k]`), the alive blocks of those weights, and the bias at its own
/// scale.
#[derive(Debug, Clone)]
pub struct QLayer<P: Precision> {
    /// Weights, `m × k` row-major.
    pub w: Vec<P::Elem>,
    /// Fractional bits of the weights.
    pub w_frac: u8,
    /// The 4×16 blocks of `w` holding a nonzero weight; a conv runs the
    /// block kernel over these only.
    pub index: SparseIndex,
    /// One bias per output feature.
    pub bias: Vec<P::Bias>,
    /// Fractional bits of the biases.
    pub bias_frac: u8,
    /// GEMM rows (output features).
    pub m: usize,
    /// GEMM depth (inputs per output).
    pub k: usize,
}

/// A model quantized at precision `P` for host inference.
#[derive(Debug, Clone)]
pub struct QModel<P: Precision> {
    info: ModelInfo,
    layers: Vec<QLayer<P>>,
    buf_fmts: Vec<P::Fmt>,
}

/// A model quantized for host Q15 inference.
pub type QuantizedModel = QModel<Q15>;

/// A model quantized for host int8 inference.
pub type Quantized8Model = QModel<Q8>;

impl<P: Precision> QModel<P> {
    /// Quantizes `model`, calibrating activation formats on up to `n_calib`
    /// samples of `calib`: per-buffer float-reference ranges, widened by
    /// 10% headroom, with shape-preserving ops pinned to their input's
    /// format so the engines copy and compare values without
    /// requantization.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty or its sample shape differs from the
    /// model input.
    pub fn quantize(model: &mut Model, calib: &Dataset, n_calib: usize) -> Self {
        assert!(!calib.is_empty(), "calibration set must not be empty");
        let weights = model.extract_weights();
        let info = model.info.clone();
        let mut max_abs = vec![0.0f32; info.buffers.len()];
        for i in 0..n_calib.min(calib.len()) {
            for (m, buf) in max_abs.iter_mut().zip(run_graph(&info, &weights, &calib.sample(i))) {
                for v in buf {
                    *m = m.max(v.abs());
                }
            }
        }
        let mut buf_fmts: Vec<P::Fmt> = max_abs.iter().map(|&m| P::fmt(m * 1.1 + 1e-6)).collect();
        // the buffer each prunable layer reads
        let mut layer_src = vec![None; weights.len()];
        for op in &info.graph {
            match *op {
                GraphOp::MaxPool { src, dst, .. }
                | GraphOp::GlobalAvgPool { src, dst }
                | GraphOp::Flatten { src, dst } => buf_fmts[dst] = buf_fmts[src],
                GraphOp::Conv { layer_id, src, .. } | GraphOp::Fc { layer_id, src, .. } => {
                    layer_src[layer_id] = Some(src)
                }
            }
        }

        let layers = weights
            .iter()
            .map(|lw| {
                let src = layer_src[lw.layer_id].expect("every prunable layer runs in the graph");
                let w_fmt = P::fmt(lw.w.max_abs());
                let w_frac = P::frac(w_fmt);
                let (bias, bias_frac) = P::bias(&lw.b, P::frac(buf_fmts[src]) + w_frac);
                let k = info.prunables[lw.layer_id].k_len();
                let m = lw.w.numel() / k;
                let w: Vec<P::Elem> = lw.w.data().iter().map(|&v| P::quantize(w_fmt, v)).collect();
                let index = SparseIndex::from_mask(&w, m, k);
                QLayer { w, w_frac, index, bias, bias_frac, m, k }
            })
            .collect();
        QModel { info, layers, buf_fmts }
    }

    /// Fixed-point format of each activation buffer.
    pub fn buf_fmts(&self) -> &[P::Fmt] {
        &self.buf_fmts
    }

    /// The structural description the model was quantized from.
    pub fn info(&self) -> &ModelInfo {
        &self.info
    }

    /// Quantized layers, indexed by layer id.
    pub fn layers(&self) -> &[QLayer<P>] {
        &self.layers
    }

    /// Runs one `[c, h, w]` sample, loaning scratch from `ctx`; returns
    /// dequantized logits.
    fn forward(&self, input: &Tensor, ctx: &mut ExecCtx) -> Vec<f32> {
        let bufs = walk(&self.info, self, input, ctx);
        let fmt = *self.buf_fmts.last().expect("formats");
        let logits = bufs.last().expect("at least one buffer");
        let logits = logits.iter().map(|&q| P::dequantize(fmt, q)).collect();
        for buf in bufs {
            P::Elem::put(ctx, buf);
        }
        logits
    }

    /// Top-1 accuracy on `ds`.
    fn evaluate(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let mut ctx = ExecCtx::new();
        let correct = (0..ds.len())
            .filter(|&i| argmax(&self.forward(&ds.sample(i), &mut ctx)) == ds.labels()[i])
            .count();
        correct as f64 / ds.len() as f64
    }
}

impl<P: Precision> Numerics for QModel<P> {
    type Elem = P::Elem;

    fn load_input(&self, input: &[f32], dst: &mut [P::Elem]) {
        let fmt = self.buf_fmts[0];
        for (d, &v) in dst.iter_mut().zip(input) {
            *d = P::quantize(fmt, v);
        }
    }

    fn layer(&self, op: &LayerOp, src: &[P::Elem], dst: &mut [P::Elem], ctx: &mut ExecCtx) {
        let ql = &self.layers[op.layer_id];
        let fracs = (P::frac(self.buf_fmts[op.src]), P::frac(self.buf_fmts[op.dst]));
        let p = &self.info.prunables[op.layer_id];
        match p.kind {
            PrunableKind::Fc { .. } => {
                P::fc(ql, &src[..ql.k], &mut dst[..ql.m], fracs, op.relu);
            }
            PrunableKind::Conv { .. } => {
                let s = p.conv_shape().expect("conv geometry");
                let n = s.out_hw();
                // the destination rows are contiguous at the channel
                // offset, so the epilogue writes the buffer slice directly
                let out = &mut dst[op.dst_c_off * n..(op.dst_c_off + ql.m) * n];
                conv_rows(ql, &s, &src[..s.in_len()], out, fracs, op.relu, ctx);
            }
        }
    }
}

/// One convolution of layer `ql` in the row form, the way every host
/// Q15/Q8 conv runs: `out` (`m × out_hw`, row-major) = requantize(`w ·
/// im2col_rows(src)` + bias), clamped at zero when `relu` is set, with
/// `fracs` the `(in_frac, out_frac)` activation formats. The block kernel
/// runs once per block row of the layer's index, over that row's alive
/// strips, accumulating onto the bias preload; scratch is loaned from
/// `ctx`.
/// Bitwise equal to the patch-major dot form (`im2col_patches` +
/// `q15_gemm`/`q8_gemm`) at any SIMD level.
///
/// # Panics
///
/// Panics if `src` or `out` disagree with `s` and the layer's shape.
pub fn conv_rows<P: Precision>(
    ql: &QLayer<P>,
    s: &ConvShape,
    src: &[P::Elem],
    out: &mut [P::Elem],
    (in_frac, out_frac): (u8, u8),
    relu: bool,
    ctx: &mut ExecCtx,
) {
    let (k, n) = (ql.k, s.out_hw());
    let mut col = P::Elem::take(ctx, s.col_len());
    pack::im2col_rows(src, s, &mut col);
    let mut acc = (P::TAKE_ACC)(ctx, 0);
    for i in 0..ql.m {
        acc.extend(std::iter::repeat_n(P::preload(ql, i, in_frac), n));
    }
    let br = ql.index.block_height();
    let mut segs = Vec::new();
    for (rb, acc_rb) in acc.chunks_mut(br * n).enumerate() {
        let strips = ql.index.strips_of(rb).iter();
        segs.clear();
        segs.extend(strips.map(|&(c0, c1)| Segment { w: c0, x: c0, cols: c1 - c0 }));
        let w = &ql.w[rb * br * k..];
        (P::BLOCK_ACC)(w, k, &segs, &col, n, acc_rb, acc_rb.len() / n, n);
    }
    (P::REQUANTIZE)(&acc, out, in_frac, ql.w_frac, out_frac, relu);
    (P::PUT_ACC)(ctx, acc);
    P::Elem::put(ctx, col);
}

impl QModel<Q15> {
    /// Runs one `[c, h, w]` sample in device numerics; returns dequantized
    /// logits. Allocates a throwaway scratch context — prefer
    /// [`forward_q15_with`](Self::forward_q15_with) on hot paths.
    pub fn forward_q15(&self, input: &Tensor) -> Vec<f32> {
        self.forward(input, &mut ExecCtx::new())
    }

    /// Runs one sample, loaning activation, im2col and accumulator scratch
    /// from `ctx`.
    /// Bitwise identical to [`forward_q15`](Self::forward_q15) with any
    /// context, fresh or recycled.
    pub fn forward_q15_with(&self, input: &Tensor, ctx: &mut ExecCtx) -> Vec<f32> {
        self.forward(input, ctx)
    }

    /// Top-1 accuracy of the Q15 engine on `ds` (same argmax tie-breaking
    /// as the float evaluator).
    pub fn evaluate_q15(&self, ds: &Dataset) -> f64 {
        self.evaluate(ds)
    }
}

impl QModel<Q8> {
    /// Runs one `[c, h, w]` sample in int8 numerics; returns dequantized
    /// logits. Allocates a throwaway scratch context — prefer
    /// [`forward_q8_with`](Self::forward_q8_with) on hot paths.
    pub fn forward_q8(&self, input: &Tensor) -> Vec<f32> {
        self.forward(input, &mut ExecCtx::new())
    }

    /// Runs one sample, loaning activation, im2col and accumulator scratch
    /// from `ctx`.
    /// Bitwise identical to [`forward_q8`](Self::forward_q8) with any
    /// context, fresh or recycled.
    pub fn forward_q8_with(&self, input: &Tensor, ctx: &mut ExecCtx) -> Vec<f32> {
        self.forward(input, ctx)
    }

    /// Top-1 accuracy of the int8 engine on `ds` (same argmax tie-breaking
    /// as the float evaluator).
    pub fn evaluate_q8(&self, ds: &Dataset) -> f64 {
        self.evaluate(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::App;
    use iprune_tensor::pack::im2col_patches_scalar;
    use iprune_tensor::qgemm::{q15_gemm_scalar, q8_gemm_scalar};

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// The patch-major dot form, the spec the row form must equal: `(ql,
    /// patches, c, n, (in_frac, out_frac), relu)`.
    type DotSpec<P> = fn(
        &QLayer<P>,
        &[<P as Precision>::Elem],
        &mut [<P as Precision>::Elem],
        usize,
        (u8, u8),
        bool,
    );

    fn q15_dot_spec(
        ql: &QLayer<Q15>,
        col: &[i16],
        c: &mut [i16],
        n: usize,
        f: (u8, u8),
        relu: bool,
    ) {
        let shift = (f.0 + ql.w_frac - ql.bias_frac) as u32;
        q15_gemm_scalar(&ql.w, col, &ql.bias, shift, c, ql.m, ql.k, n, f.0, ql.w_frac, f.1, relu);
    }

    fn q8_dot_spec(ql: &QLayer<Q8>, col: &[i8], c: &mut [i8], n: usize, f: (u8, u8), relu: bool) {
        q8_gemm_scalar(&ql.w, col, &ql.bias, c, ql.m, ql.k, n, f.0, ql.w_frac, f.1, relu);
    }

    /// Runs every conv layer of `qm` on one input (drawn by `elem` from a
    /// random word) through [`conv_rows`] and through `spec` on the
    /// patch-major packing, and asserts the outputs are bit-identical.
    /// Returns `(layers, layers with no alive block)`, and the outputs of
    /// the latter must be their rows' bias alone.
    fn check_convs<P: Precision>(
        qm: &QModel<P>,
        elem: fn(u64) -> P::Elem,
        spec: DotSpec<P>,
        what: &str,
    ) -> (usize, usize) {
        let mut ctx = ExecCtx::new();
        let (mut layers, mut dead) = (0, 0);
        for op in &qm.info.graph {
            let GraphOp::Conv { layer_id, src, dst, relu, .. } = *op else { continue };
            let s = qm.info.prunables[layer_id].conv_shape().expect("conv geometry");
            let (ql, n) = (&qm.layers[layer_id], s.out_hw());
            let fracs = (P::frac(qm.buf_fmts[src]), P::frac(qm.buf_fmts[dst]));
            let mut next = xorshift(0xC0_0000 + layer_id as u64);
            let x: Vec<P::Elem> = (0..s.in_len()).map(|_| elem(next())).collect();

            let mut got = vec![elem(next()); ql.m * n];
            conv_rows(ql, &s, &x, &mut got, fracs, relu, &mut ctx);
            let mut col = vec![P::Elem::default(); s.col_len()];
            im2col_patches_scalar(&x, &s, &mut col);
            let mut want = vec![elem(next()); ql.m * n];
            spec(ql, &col, &mut want, n, fracs, relu);
            assert_eq!(got, want, "{what}: layer {layer_id}");

            layers += 1;
            if ql.index.alive_blocks() == 0 {
                dead += 1;
                for (i, row) in got.chunks_exact(n).enumerate() {
                    let mut bias_only = [P::Elem::default()];
                    let preload = [P::preload(ql, i, fracs.0)];
                    (P::REQUANTIZE)(&preload, &mut bias_only, fracs.0, ql.w_frac, fracs.1, relu);
                    assert!(
                        row.iter().all(|&v| v == bias_only[0]),
                        "{what}: layer {layer_id} row {i}"
                    );
                }
            }
        }
        (layers, dead)
    }

    /// Activations over the whole range, narrowed by a random 0–7 bits so
    /// that outputs land both inside the clamp and on it.
    fn act15(r: u64) -> i16 {
        ((r >> 16) as i16) >> (r & 7)
    }

    fn act8(r: u64) -> i8 {
        ((r >> 16) as i8) >> (r & 3)
    }

    /// The row form over alive strips equals the patch-major dot form bit
    /// for bit on every zoo conv layer, dense and block-pruned to 50 % and
    /// 20 % kept blocks, in both precisions.
    #[test]
    fn conv_rows_equals_patch_major_dot_form_on_pruned_zoo() {
        for app in App::all() {
            for keep_ppm in [1_000_000, 500_000, 200_000] {
                let mut model = app.build();
                let masks = model.block_magnitude_masks(keep_ppm);
                model.set_masks(&masks);
                let ds = app.dataset(2, 9);
                let q15 = QuantizedModel::quantize(&mut model, &ds, 2);
                let q8 = Quantized8Model::quantize(&mut model, &ds, 2);
                let what = format!("{} keep {keep_ppm} ppm", app.name());
                let (convs, _) = check_convs(&q15, act15, q15_dot_spec, &format!("q15 {what}"));
                check_convs(&q8, act8, q8_dot_spec, &format!("q8 {what}"));
                assert!(convs > 0, "{what}");
                let skipped =
                    q15.layers.iter().any(|l| l.index.alive_blocks() < l.index.total_blocks());
                assert_eq!(skipped, keep_ppm < 1_000_000, "{what}: pruned blocks are skipped");
            }
        }
    }

    /// A conv whose every block is pruned runs no block kernel and writes
    /// its bias alone, as the device engine does for fully pruned rows.
    #[test]
    fn fully_pruned_convs_produce_bias_only_outputs() {
        for app in App::all() {
            let mut model = app.build();
            let masks = model.block_magnitude_masks(0);
            model.set_masks(&masks);
            let ds = app.dataset(2, 13);
            let q15 = QuantizedModel::quantize(&mut model, &ds, 2);
            let q8 = Quantized8Model::quantize(&mut model, &ds, 2);
            let (convs, dead) = check_convs(&q15, act15, q15_dot_spec, app.name());
            assert_eq!((dead, convs > 0), (convs, true), "q15 {}", app.name());
            let (convs, dead) = check_convs(&q8, act8, q8_dot_spec, app.name());
            assert_eq!((dead, convs > 0), (convs, true), "q8 {}", app.name());
        }
    }

    /// Q15 logits track the float forward pass closely on every app.
    #[test]
    fn q15_logits_close_to_float() {
        for app in App::all() {
            let mut model = app.build();
            let ds = app.dataset(4, 41);
            let qm = QuantizedModel::quantize(&mut model, &ds, 4);
            for i in 0..3 {
                let x = ds.sample(i);
                let f = model.infer(&x, &mut ExecCtx::new());
                let q = qm.forward_q15(&x);
                for (a, b) in f.data().iter().zip(q.iter()) {
                    assert!((a - b).abs() < 0.05, "{} sample {i}: f32 {a} vs q15 {b}", app.name());
                }
            }
        }
    }

    /// Q8 logits track the float forward pass within int8 resolution on
    /// every app (coarser than Q15 — 7 fractional bits at best).
    #[test]
    fn q8_logits_close_to_float() {
        for app in App::all() {
            let mut model = app.build();
            let ds = app.dataset(4, 41);
            let qm = Quantized8Model::quantize(&mut model, &ds, 4);
            for i in 0..3 {
                let x = ds.sample(i);
                let f = model.infer(&x, &mut ExecCtx::new());
                let q = qm.forward_q8(&x);
                for (a, b) in f.data().iter().zip(q.iter()) {
                    assert!((a - b).abs() < 0.5, "{} sample {i}: f32 {a} vs q8 {b}", app.name());
                }
            }
        }
    }

    /// Shape-preserving ops keep their input format after calibration.
    #[test]
    fn pool_buffers_share_input_format() {
        let mut model = App::Cks.build();
        let ds = App::Cks.dataset(2, 3);
        let qm = QuantizedModel::quantize(&mut model, &ds, 2);
        for op in &qm.info.graph {
            if let GraphOp::MaxPool { src, dst, .. }
            | GraphOp::GlobalAvgPool { src, dst }
            | GraphOp::Flatten { src, dst } = op
            {
                assert_eq!(qm.buf_fmts[*src], qm.buf_fmts[*dst]);
            }
        }
    }

    /// The Q15 evaluator is deterministic and in [0, 1].
    #[test]
    fn evaluate_q15_is_deterministic() {
        let mut model = App::Har.build();
        let ds = App::Har.dataset(24, 5);
        let qm = QuantizedModel::quantize(&mut model, &ds, 8);
        let a = qm.evaluate_q15(&ds);
        let b = qm.evaluate_q15(&ds);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((0.0..=1.0).contains(&a));
    }

    /// The int8 evaluator is deterministic and in [0, 1].
    #[test]
    fn evaluate_q8_is_deterministic() {
        let mut model = App::Har.build();
        let ds = App::Har.dataset(24, 5);
        let qm = Quantized8Model::quantize(&mut model, &ds, 8);
        let a = qm.evaluate_q8(&ds);
        let b = qm.evaluate_q8(&ds);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((0.0..=1.0).contains(&a));
    }

    /// A recycled context reproduces the fresh-context logits bitwise, for
    /// both precisions — scratch reuse must not leak state across samples.
    #[test]
    fn recycled_ctx_is_bitwise_identical() {
        let mut model = App::Sqn.build();
        let ds = App::Sqn.dataset(4, 7);
        let q15 = QuantizedModel::quantize(&mut model, &ds, 4);
        let q8 = Quantized8Model::quantize(&mut model, &ds, 4);
        let mut ctx = ExecCtx::new();
        for i in 0..4 {
            let x = ds.sample(i);
            let a15 = q15.forward_q15_with(&x, &mut ctx);
            let b15 = q15.forward_q15(&x);
            assert!(a15.iter().zip(&b15).all(|(a, b)| a.to_bits() == b.to_bits()));
            let a8 = q8.forward_q8_with(&x, &mut ctx);
            let b8 = q8.forward_q8(&x);
            assert!(a8.iter().zip(&b8).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
