//! The model graph interpreter: one walk over a model's flat
//! [`crate::arch::GraphOp`] list, generic over the numerics that execute it.
//!
//! `walk` owns the activation buffers and the op dispatch. A
//! `Numerics` backend supplies the arithmetic of the prunable (Conv/Fc)
//! layers, and the activation element ([`Activation`]) supplies pooling.
//! There are three backends: the plain-f32 reference here ([`run_graph`])
//! and the Q15 and Q8 engines of [`crate::qeval`]. The f32 reference
//! calibrates quantization (per-buffer ranges) and is the semantic
//! reference the quantized engines are tested against; it must agree with
//! the trainable network's own forward pass. The device engine in
//! `iprune-hawaii` runs its shape ops through [`max_pool`],
//! [`global_avg_pool`] and [`flatten`], so host and device pool alike.

use crate::arch::{GraphOp, ModelInfo, PrunableKind};
use crate::LayerWeights;
use iprune_tensor::exec::ExecCtx;
use iprune_tensor::{pool, Tensor};

/// An activation element type: how its buffers are loaned and pooled.
pub trait Activation: Copy {
    /// Loans a zeroed buffer of `len` elements from `ctx`.
    fn take(ctx: &mut ExecCtx, len: usize) -> Vec<Self>;
    /// Returns a loaned buffer to `ctx`.
    fn put(ctx: &mut ExecCtx, buf: Vec<Self>);
    /// Max-pools one `[h, w]` plane with window = stride = `(kh, kw)`.
    fn max_pool(src: &[Self], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [Self]);
    /// The average of one plane.
    fn mean(plane: &[Self]) -> Self;
}

impl Activation for f32 {
    fn take(ctx: &mut ExecCtx, len: usize) -> Vec<f32> {
        ctx.take(len)
    }
    fn put(ctx: &mut ExecCtx, buf: Vec<f32>) {
        ctx.put(buf);
    }
    fn max_pool(src: &[f32], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [f32]) {
        pool::maxpool2d_f32(src, h, w, kh, kw, dst);
    }
    fn mean(plane: &[f32]) -> f32 {
        let inv = 1.0 / plane.len() as f32;
        let sum: f32 = plane.iter().sum();
        sum * inv
    }
}

impl Activation for i16 {
    fn take(ctx: &mut ExecCtx, len: usize) -> Vec<i16> {
        ctx.take_i16(len)
    }
    fn put(ctx: &mut ExecCtx, buf: Vec<i16>) {
        ctx.put_i16(buf);
    }
    fn max_pool(src: &[i16], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [i16]) {
        pool::maxpool2d_i16(src, h, w, kh, kw, dst);
    }
    fn mean(plane: &[i16]) -> i16 {
        pool::global_avg_int(plane)
    }
}

impl Activation for i8 {
    fn take(ctx: &mut ExecCtx, len: usize) -> Vec<i8> {
        ctx.take_i8(len)
    }
    fn put(ctx: &mut ExecCtx, buf: Vec<i8>) {
        ctx.put_i8(buf);
    }
    fn max_pool(src: &[i8], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [i8]) {
        pool::maxpool2d_i8(src, h, w, kh, kw, dst);
    }
    fn mean(plane: &[i8]) -> i8 {
        pool::global_avg_int(plane)
    }
}

/// The operands of one Conv or Fc op (`dst_c_off` is 0 for Fc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerOp {
    /// Prunable layer id.
    pub layer_id: usize,
    /// Input buffer.
    pub src: usize,
    /// Output buffer.
    pub dst: usize,
    /// First output channel written in `dst`.
    pub dst_c_off: usize,
    /// Fused ReLU on the outputs.
    pub relu: bool,
}

/// The arithmetic of one graph walk.
pub(crate) trait Numerics {
    /// The activation element type.
    type Elem: Activation;
    /// Converts the input sample into buffer 0.
    fn load_input(&self, input: &[f32], dst: &mut [Self::Elem]);
    /// Runs prunable layer `op` from `src` into `dst`, loaning any scratch
    /// from `ctx`.
    fn layer(&self, op: &LayerOp, src: &[Self::Elem], dst: &mut [Self::Elem], ctx: &mut ExecCtx);
}

/// Executes the graph for a single `[c, h, w]` input through numerics `n`,
/// loaning every buffer from `ctx`; returns all buffers, the logits last.
///
/// # Panics
///
/// Panics if the input size differs from the model's input buffer.
pub(crate) fn walk<N: Numerics>(
    info: &ModelInfo,
    n: &N,
    input: &Tensor,
    ctx: &mut ExecCtx,
) -> Vec<Vec<N::Elem>> {
    let mut bufs: Vec<Vec<N::Elem>> =
        info.buffers.iter().map(|b| N::Elem::take(ctx, b.numel())).collect();
    assert_eq!(input.numel(), bufs[0].len(), "input size vs model input buffer");
    n.load_input(input.data(), &mut bufs[0]);
    for op in &info.graph {
        match *op {
            GraphOp::Conv { layer_id, src, dst, dst_c_off, relu } => {
                let (s, d) = split_bufs(&mut bufs, src, dst);
                n.layer(&LayerOp { layer_id, src, dst, dst_c_off, relu }, s, d, ctx);
            }
            GraphOp::Fc { layer_id, src, dst, relu } => {
                let (s, d) = split_bufs(&mut bufs, src, dst);
                n.layer(&LayerOp { layer_id, src, dst, dst_c_off: 0, relu }, s, d, ctx);
            }
            GraphOp::MaxPool { src, dst, kh, kw } => max_pool(info, &mut bufs, src, dst, kh, kw),
            GraphOp::GlobalAvgPool { src, dst } => global_avg_pool(info, &mut bufs, src, dst),
            GraphOp::Flatten { src, dst } => flatten(&mut bufs, src, dst),
        }
    }
    bufs
}

/// Max-pools every channel plane of buffer `src` into `dst`.
pub fn max_pool<E: Activation>(
    info: &ModelInfo,
    bufs: &mut [Vec<E>],
    src: usize,
    dst: usize,
    kh: usize,
    kw: usize,
) {
    let (sd, dd) = (&info.buffers[src].dims, &info.buffers[dst].dims);
    let (c, ih, iw, oh, ow) = (sd[0], sd[1], sd[2], dd[1], dd[2]);
    let (s, d) = split_bufs(bufs, src, dst);
    for ch in 0..c {
        E::max_pool(
            &s[ch * ih * iw..(ch + 1) * ih * iw],
            ih,
            iw,
            kh,
            kw,
            &mut d[ch * oh * ow..(ch + 1) * oh * ow],
        );
    }
}

/// Averages every channel plane of buffer `src` into one element of `dst`.
pub fn global_avg_pool<E: Activation>(
    info: &ModelInfo,
    bufs: &mut [Vec<E>],
    src: usize,
    dst: usize,
) {
    let sd = &info.buffers[src].dims;
    let (c, hw) = (sd[0], sd[1] * sd[2]);
    let (s, d) = split_bufs(bufs, src, dst);
    for ch in 0..c {
        d[ch] = E::mean(&s[ch * hw..(ch + 1) * hw]);
    }
}

/// Copies buffer `src` into the same-sized buffer `dst`.
pub fn flatten<E: Copy>(bufs: &mut [Vec<E>], src: usize, dst: usize) {
    let (s, d) = split_bufs(bufs, src, dst);
    d.copy_from_slice(s);
}

/// Borrows two distinct buffers, `src` shared and `dst` mutable.
fn split_bufs<T>(bufs: &mut [Vec<T>], src: usize, dst: usize) -> (&[T], &mut [T]) {
    assert_ne!(src, dst, "graph ops must not read and write the same buffer");
    if src < dst {
        let (a, b) = bufs.split_at_mut(dst);
        (&a[src], &mut b[0])
    } else {
        let (a, b) = bufs.split_at_mut(src);
        (&b[0], &mut a[dst])
    }
}

/// The plain-f32 backend: direct loops, no packing.
struct F32<'a> {
    info: &'a ModelInfo,
    weights: &'a [LayerWeights],
}

impl Numerics for F32<'_> {
    type Elem = f32;

    fn load_input(&self, input: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(input);
    }

    fn layer(&self, op: &LayerOp, src_buf: &[f32], dst_buf: &mut [f32], _ctx: &mut ExecCtx) {
        let lw = &self.weights[op.layer_id];
        let (w, b) = (lw.w.data(), lw.b.data());
        let p = &self.info.prunables[op.layer_id];
        match p.kind {
            PrunableKind::Conv { cin, cout, kh, kw, stride, pad_h, pad_w, in_h, in_w } => {
                let (oh, ow) = p.out_hw();
                let dst_dims = &self.info.buffers[op.dst].dims;
                let (dst_h, dst_w) = (dst_dims[1], dst_dims[2]);
                for m in 0..cout {
                    for oy in 0..oh {
                        let (ky0, iy0, ny) =
                            inside_taps((oy * stride) as isize - pad_h as isize, kh, in_h);
                        for ox in 0..ow {
                            let (kx0, ix0, nx) =
                                inside_taps((ox * stride) as isize - pad_w as isize, kw, in_w);
                            let mut acc = b[m];
                            for c in 0..cin {
                                for dy in 0..ny {
                                    let wr = ((m * cin + c) * kh + ky0 + dy) * kw + kx0;
                                    let xr = (c * in_h + iy0 + dy) * in_w + ix0;
                                    let (ws, xs) = (&w[wr..wr + nx], &src_buf[xr..xr + nx]);
                                    for (wv, xv) in ws.iter().zip(xs) {
                                        acc += wv * xv;
                                    }
                                }
                            }
                            if op.relu && acc < 0.0 {
                                acc = 0.0;
                            }
                            dst_buf[((op.dst_c_off + m) * dst_h + oy) * dst_w + ox] = acc;
                        }
                    }
                }
            }
            PrunableKind::Fc { din, dout } => {
                for (o, out) in dst_buf.iter_mut().take(dout).enumerate() {
                    let mut acc = b[o];
                    let row = &w[o * din..(o + 1) * din];
                    for (wv, xv) in row.iter().zip(src_buf.iter()) {
                        acc += wv * xv;
                    }
                    if op.relu && acc < 0.0 {
                        acc = 0.0;
                    }
                    *out = acc;
                }
            }
        }
    }
}

/// The taps of one kernel axis of `k` taps that land inside an input of
/// `len`, for a window starting at input index `start` (negative over the
/// padding), as (first tap, its input index, count). Taps over the padding
/// add no term, so a sum over the inside taps keeps its order.
fn inside_taps(start: isize, k: usize, len: usize) -> (usize, usize, usize) {
    let lo = (-start).clamp(0, k as isize);
    let hi = (len as isize - start).clamp(lo, k as isize);
    if hi == lo {
        (0, 0, 0)
    } else {
        (lo as usize, (start + lo) as usize, (hi - lo) as usize)
    }
}

/// Executes the graph for a single `[c, h, w]` input in plain f32; returns
/// every buffer's contents (for calibration), the logits last.
///
/// # Panics
///
/// Panics if `weights` is not indexed by layer id or shapes disagree with
/// the graph.
pub fn run_graph(info: &ModelInfo, weights: &[LayerWeights], input: &Tensor) -> Vec<Vec<f32>> {
    assert_eq!(weights.len(), info.prunables.len(), "one LayerWeights per prunable layer");
    walk(info, &F32 { info, weights }, input, &mut ExecCtx::new())
}

/// Logits of a single-sample graph execution.
pub fn run_graph_logits(info: &ModelInfo, weights: &[LayerWeights], input: &Tensor) -> Vec<f32> {
    run_graph(info, weights, input).pop().expect("at least one buffer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::App;
    use iprune_tensor::layer::Layer;

    /// The float graph executor must agree with the trainable network.
    #[test]
    fn graph_matches_trainable_forward() {
        for app in App::all() {
            let mut model = app.build();
            let ds = app.dataset(3, 99);
            let weights = model.extract_weights();
            for i in 0..3 {
                let x = ds.sample(i);
                let net_logits = model.forward(&x);
                let graph_logits = run_graph_logits(&model.info, &weights, &x);
                for (a, b) in net_logits.data().iter().zip(graph_logits.iter()) {
                    assert!(
                        (a - b).abs() < 1e-3,
                        "{} sample {}: net {} vs graph {}",
                        app.name(),
                        i,
                        a,
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn inside_taps_clip_the_padding() {
        assert_eq!(inside_taps(-1, 3, 4), (1, 0, 2));
        assert_eq!(inside_taps(0, 3, 4), (0, 0, 3));
        assert_eq!(inside_taps(2, 3, 4), (0, 2, 2));
        // windows wholly over the padding add nothing
        assert_eq!(inside_taps(-3, 2, 4), (0, 0, 0));
        assert_eq!(inside_taps(4, 2, 4), (0, 0, 0));
    }

    #[test]
    fn buffers_have_expected_count() {
        let mut model = App::Har.build();
        let weights = model.extract_weights();
        let ds = App::Har.dataset(1, 0);
        let bufs = run_graph(&model.info, &weights, &ds.sample(0));
        assert_eq!(bufs.len(), model.info.buffers.len());
        assert_eq!(bufs.last().unwrap().len(), model.info.classes);
    }
}
