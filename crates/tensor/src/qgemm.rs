//! Q15 integer GEMM: the device's fixed-point arithmetic on the host.
//!
//! The simulated MSP430 accelerator (`iprune-hawaii`) computes every layer
//! as i16×i16 products accumulated wide, bias preloaded at accumulator
//! scale, then an arithmetic-shift requantization back to i16 (and a ReLU
//! clamp for hidden layers). This module exposes exactly that arithmetic as
//! a host GEMM so evaluation can run in device numerics (`models::qeval`)
//! and report f32-vs-Q15 accuracy deltas.
//!
//! Both operands are **k-contiguous** (dot form): `a` is `[m][k]` (weight
//! rows), `b` is `[n][k]` (activation columns, e.g. a transposed im2col
//! patch matrix), and `c[i][j] = requantize((bias[i] << bias_shift) +
//! a_row(i) · b_row(j))`. This one shape covers both convolution
//! (`m = c_out`, `n = output positions`) and fully-connected layers
//! (`n = 1`).
//!
//! # Exactness contract
//!
//! The scalar body ([`q15_gemm_scalar`]) widens every product to i64 before
//! accumulating — the executable spec, matching the device engine exactly.
//! The AVX2 body (`_mm256_madd_epi16`) is **bitwise equal to the spec**
//! whenever one operand contains no `i16::MIN`: pairwise i32 sums then
//! cannot wrap, and integer addition is associative. Weights quantized via
//! [`crate::quant::QFormat::for_max_abs`] (headroom 0.999) never produce
//! `i16::MIN`, so the precondition holds structurally on the evaluation
//! path; the dispatched entry debug-asserts it.
//!
//! # Block kernels: the row form
//!
//! The device engine's accelerator jobs run on [`q15_block_acc`], which
//! accumulates one BSR weight block into a strip of i64 accumulators. Its
//! scalar spec ([`q15_block_acc_scalar`]) is the engine's per-job loop; its
//! AVX2 body pairs two reduction columns per `_mm256_madd_epi16` and is
//! bitwise equal to the spec under the same precondition on the block.
//! The host Q15 convolutions (`models::qeval`) run on the same kernel: the
//! input packed row-major as `[k][out_hw]`, one call per alive column
//! strip of each 4-row block row of the layer's
//! [`crate::sparse::SparseIndex`], the bias preloaded into the
//! accumulators and [`q15_requantize_relu`] — the engine's tile
//! write-back — as the epilogue. The host Q8 convolutions run on its i8
//! twin [`q8_block_acc`] (sign-extend, `madd`, wrapping i32) and
//! [`q8_requantize_relu`]. Fully-connected layers, one output column
//! each, keep the dot form.
//!
//! The int8 deployment tier ([`q8_gemm`]) shares the dot-form operand
//! layout but accumulates i8×i8 products in a *wrapping* i32 with the bias
//! preloaded at accumulator scale; its SIMD bodies are bitwise-equal to
//! their scalar specs for **all** inputs (see [`q8_gemm`]).

use crate::quant::{requantize, requantize8};
use crate::simd::{self, q15_dot_i64, q8_dot_i32, SimdLevel};

/// Q15 GEMM dispatched on the process SIMD level.
///
/// `c[i][j] = requantize((bias[i] << bias_shift) + Σ_p a[i*k+p] * b[j*k+p],
/// in_frac, w_frac, out_frac)`, clamped at zero when `relu` is set.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(m, k, n)`. Debug
/// builds additionally assert the no-`i16::MIN` precondition on `a` (see
/// module docs).
#[allow(clippy::too_many_arguments)]
pub fn q15_gemm(
    a: &[i16],
    b: &[i16],
    bias: &[i16],
    bias_shift: u32,
    c: &mut [i16],
    m: usize,
    k: usize,
    n: usize,
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
) {
    debug_assert!(
        !a.contains(&i16::MIN),
        "q15_gemm lhs contains i16::MIN; SIMD madd exactness not guaranteed"
    );
    let use_avx2 = simd::simd_level() == SimdLevel::Avx2;
    q15_gemm_body(a, b, bias, bias_shift, c, m, k, n, in_frac, w_frac, out_frac, relu, use_avx2);
}

/// Scalar-spec Q15 GEMM: per-product i64 accumulation, identical to the
/// device engine for any input, regardless of the SIMD dispatch level.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn q15_gemm_scalar(
    a: &[i16],
    b: &[i16],
    bias: &[i16],
    bias_shift: u32,
    c: &mut [i16],
    m: usize,
    k: usize,
    n: usize,
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
) {
    q15_gemm_body(a, b, bias, bias_shift, c, m, k, n, in_frac, w_frac, out_frac, relu, false);
}

#[allow(clippy::too_many_arguments)]
fn q15_gemm_body(
    a: &[i16],
    b: &[i16],
    bias: &[i16],
    bias_shift: u32,
    c: &mut [i16],
    m: usize,
    k: usize,
    n: usize,
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
    use_avx2: bool,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(bias.len(), m, "bias length");
    assert_eq!(c.len(), m * n, "out length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let preload = (bias[i] as i64) << bias_shift;
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let acc = preload + q15_dot_dispatch(a_row, b_row, use_avx2);
            let mut v = requantize(acc, in_frac, w_frac, out_frac);
            if relu && v < 0 {
                v = 0;
            }
            c[i * n + j] = v;
        }
    }
}

/// Q15 block accumulate dispatched on the process SIMD level: the
/// arithmetic of one device-engine accelerator job,
///
/// `acc[r*s_len + s] += Σ_{c<cols} block[r*bc + c] * x[c*s_len + s]`
///
/// for `r < rows`, `s < s_len`, every product widened to i64. `block` is
/// one stored BSR weight block, row-major with row stride `bc`, of which
/// the first `cols <= bc` columns are used; `x` is the block's `cols` rows
/// of the im2col strip (`[cols][s_len]`); `acc` holds the tile's
/// accumulators (`[rows][s_len]`). The engine accumulates job by job
/// because its accumulators are preserved partial state between jobs.
///
/// Bitwise equal to [`q15_block_acc_scalar`] under [`q15_gemm`]'s
/// precondition: the block holds no `i16::MIN` (see module docs).
///
/// # Panics
///
/// Panics if `cols > bc` or the slice lengths are inconsistent with
/// `(rows, cols, s_len, bc)`. Debug builds additionally assert the
/// no-`i16::MIN` precondition on `block`.
pub fn q15_block_acc(
    block: &[i16],
    x: &[i16],
    acc: &mut [i64],
    rows: usize,
    cols: usize,
    s_len: usize,
    bc: usize,
) {
    debug_assert!(
        !block.contains(&i16::MIN),
        "q15_block_acc block contains i16::MIN; SIMD madd exactness not guaranteed"
    );
    let use_avx2 = simd::simd_level() == SimdLevel::Avx2;
    q15_block_acc_body(block, x, acc, rows, cols, s_len, bc, use_avx2);
}

/// Scalar-spec Q15 block accumulate: the device engine's per-job loop,
/// one i64 product per nonzero weight and position, identical at any SIMD
/// dispatch level.
///
/// # Panics
///
/// Panics if `cols > bc` or the slice lengths are inconsistent with
/// `(rows, cols, s_len, bc)`.
pub fn q15_block_acc_scalar(
    block: &[i16],
    x: &[i16],
    acc: &mut [i64],
    rows: usize,
    cols: usize,
    s_len: usize,
    bc: usize,
) {
    q15_block_acc_body(block, x, acc, rows, cols, s_len, bc, false);
}

#[allow(clippy::too_many_arguments)]
fn q15_block_acc_body(
    block: &[i16],
    x: &[i16],
    acc: &mut [i64],
    rows: usize,
    cols: usize,
    s_len: usize,
    bc: usize,
    use_avx2: bool,
) {
    assert!(cols <= bc, "block columns exceed the block width");
    assert!(rows == 0 || block.len() >= (rows - 1) * bc + cols, "block length");
    assert_eq!(x.len(), cols * s_len, "strip length");
    assert_eq!(acc.len(), rows * s_len, "accumulator length");
    #[cfg(target_arch = "x86_64")]
    {
        if use_avx2 {
            // SAFETY: the dispatch level only reports Avx2 on CPUs with
            // avx2; the slice geometry is asserted above.
            unsafe {
                simd::avx2::q15_block_acc(
                    block.as_ptr(),
                    x.as_ptr(),
                    acc.as_mut_ptr(),
                    rows,
                    cols,
                    s_len,
                    bc,
                );
            }
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    for r in 0..rows {
        let wrow = &block[r * bc..r * bc + cols];
        let acc_row = &mut acc[r * s_len..(r + 1) * s_len];
        for (c, &wv) in wrow.iter().enumerate() {
            if wv == 0 {
                continue;
            }
            let xrow = &x[c * s_len..(c + 1) * s_len];
            for (a, &xv) in acc_row.iter_mut().zip(xrow.iter()) {
                *a += (wv as i64) * (xv as i64);
            }
        }
    }
}

/// The Q15 epilogue: `out[s] = requantize(acc[s], in_frac, w_frac,
/// out_frac)`, clamped at zero when `relu` is set. The device engine's
/// tile write-back and the host conv path share it.
///
/// # Panics
///
/// Panics if `acc` and `out` differ in length.
pub fn q15_requantize_relu(
    acc: &[i64],
    out: &mut [i16],
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
) {
    assert_eq!(acc.len(), out.len(), "epilogue length");
    for (o, &a) in out.iter_mut().zip(acc) {
        let v = requantize(a, in_frac, w_frac, out_frac);
        *o = if relu && v < 0 { 0 } else { v };
    }
}

/// Q8 GEMM dispatched on the process SIMD level — the int8 deployment
/// tier. Same dot-form operand layout as [`q15_gemm`] (`a` is `[m][k]` i8
/// weight rows, `b` is `[n][k]` i8 activation columns), but the bias is
/// preloaded **directly at accumulator scale** as i32 (`in_frac + w_frac`
/// fractional bits — the standard int8 deployment layout, no separate bias
/// shift):
///
/// `c[i][j] = requantize8(bias[i] + Σ_p a[i*k+p] * b[j*k+p], in_frac,
/// w_frac, out_frac)`, clamped at zero when `relu` is set.
///
/// # Exactness contract
///
/// The scalar body ([`q8_gemm_scalar`]) accumulates i8×i8 products in a
/// **wrapping** i32 — the executable spec. The AVX2 body (sign-extend +
/// `_mm256_madd_epi16`, wrapping i32 lanes) is **bitwise equal to the spec
/// for all inputs**: pair sums are exact and wrapping addition
/// reassociates freely, so unlike Q15 there is no operand precondition.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn q8_gemm(
    a: &[i8],
    b: &[i8],
    bias: &[i32],
    c: &mut [i8],
    m: usize,
    k: usize,
    n: usize,
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
) {
    let use_avx2 = simd::simd_level() == SimdLevel::Avx2;
    q8_gemm_body(a, b, bias, c, m, k, n, in_frac, w_frac, out_frac, relu, use_avx2);
}

/// Scalar-spec Q8 GEMM: wrapping-i32 accumulation, identical at any SIMD
/// dispatch level.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn q8_gemm_scalar(
    a: &[i8],
    b: &[i8],
    bias: &[i32],
    c: &mut [i8],
    m: usize,
    k: usize,
    n: usize,
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
) {
    q8_gemm_body(a, b, bias, c, m, k, n, in_frac, w_frac, out_frac, relu, false);
}

#[allow(clippy::too_many_arguments)]
fn q8_gemm_body(
    a: &[i8],
    b: &[i8],
    bias: &[i32],
    c: &mut [i8],
    m: usize,
    k: usize,
    n: usize,
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
    use_avx2: bool,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(bias.len(), m, "bias length");
    assert_eq!(c.len(), m * n, "out length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let preload = bias[i];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let acc = preload.wrapping_add(q8_dot_dispatch(a_row, b_row, use_avx2));
            let mut v = requantize8(acc, in_frac, w_frac, out_frac);
            if relu && v < 0 {
                v = 0;
            }
            c[i * n + j] = v;
        }
    }
}

/// Q8 block accumulate dispatched on the process SIMD level: the i8 twin
/// of [`q15_block_acc`],
///
/// `acc[r*s_len + s] += Σ_{c<cols} block[r*bc + c] * x[c*s_len + s]`
///
/// for `r < rows`, `s < s_len`, every i8×i8 product added in a
/// **wrapping** i32 — [`q8_gemm`]'s accumulator. Same operand layout as
/// [`q15_block_acc`]. Bitwise equal to [`q8_block_acc_scalar`] for **all**
/// inputs: the AVX2 body sign-extends the i8 lanes, pairs two reduction
/// columns per `_mm256_madd_epi16` (exact pair sums) and adds in wrapping
/// i32 lanes, and wrapping addition reassociates freely.
///
/// # Panics
///
/// Panics if `cols > bc` or the slice lengths are inconsistent with
/// `(rows, cols, s_len, bc)`.
pub fn q8_block_acc(
    block: &[i8],
    x: &[i8],
    acc: &mut [i32],
    rows: usize,
    cols: usize,
    s_len: usize,
    bc: usize,
) {
    let use_avx2 = simd::simd_level() == SimdLevel::Avx2;
    q8_block_acc_body(block, x, acc, rows, cols, s_len, bc, use_avx2);
}

/// Scalar-spec Q8 block accumulate: one wrapping i32 product per nonzero
/// weight and position, identical at any SIMD dispatch level.
///
/// # Panics
///
/// Panics if `cols > bc` or the slice lengths are inconsistent with
/// `(rows, cols, s_len, bc)`.
pub fn q8_block_acc_scalar(
    block: &[i8],
    x: &[i8],
    acc: &mut [i32],
    rows: usize,
    cols: usize,
    s_len: usize,
    bc: usize,
) {
    q8_block_acc_body(block, x, acc, rows, cols, s_len, bc, false);
}

#[allow(clippy::too_many_arguments)]
fn q8_block_acc_body(
    block: &[i8],
    x: &[i8],
    acc: &mut [i32],
    rows: usize,
    cols: usize,
    s_len: usize,
    bc: usize,
    use_avx2: bool,
) {
    assert!(cols <= bc, "block columns exceed the block width");
    assert!(rows == 0 || block.len() >= (rows - 1) * bc + cols, "block length");
    assert_eq!(x.len(), cols * s_len, "strip length");
    assert_eq!(acc.len(), rows * s_len, "accumulator length");
    #[cfg(target_arch = "x86_64")]
    {
        if use_avx2 {
            // SAFETY: the dispatch level only reports Avx2 on CPUs with
            // avx2; the slice geometry is asserted above.
            unsafe {
                simd::avx2::q8_block_acc(
                    block.as_ptr(),
                    x.as_ptr(),
                    acc.as_mut_ptr(),
                    rows,
                    cols,
                    s_len,
                    bc,
                );
            }
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    for r in 0..rows {
        let wrow = &block[r * bc..r * bc + cols];
        let acc_row = &mut acc[r * s_len..(r + 1) * s_len];
        for (c, &wv) in wrow.iter().enumerate() {
            if wv == 0 {
                continue;
            }
            let xrow = &x[c * s_len..(c + 1) * s_len];
            for (a, &xv) in acc_row.iter_mut().zip(xrow.iter()) {
                *a = a.wrapping_add(wv as i32 * xv as i32);
            }
        }
    }
}

/// The Q8 epilogue: `out[s] = requantize8(acc[s], in_frac, w_frac,
/// out_frac)`, clamped at zero when `relu` is set.
///
/// # Panics
///
/// Panics if `acc` and `out` differ in length.
pub fn q8_requantize_relu(
    acc: &[i32],
    out: &mut [i8],
    in_frac: u8,
    w_frac: u8,
    out_frac: u8,
    relu: bool,
) {
    assert_eq!(acc.len(), out.len(), "epilogue length");
    for (o, &a) in out.iter_mut().zip(acc) {
        let v = requantize8(a, in_frac, w_frac, out_frac);
        *o = if relu && v < 0 { 0 } else { v };
    }
}

#[inline]
fn q8_dot_dispatch(a_row: &[i8], b_row: &[i8], use_avx2: bool) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        if use_avx2 {
            // SAFETY: the dispatch level only reports Avx2 on CPUs with
            // avx2; both rows hold `k` elements (asserted by the entry).
            return unsafe { simd::avx2::q8_dot(a_row.as_ptr(), b_row.as_ptr(), a_row.len()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    q8_dot_i32(a_row, b_row)
}

#[inline]
fn q15_dot_dispatch(a_row: &[i16], b_row: &[i16], use_avx2: bool) -> i64 {
    #[cfg(target_arch = "x86_64")]
    {
        if use_avx2 {
            // SAFETY: the dispatch level only reports Avx2 on CPUs with
            // avx2; both rows hold `k` elements (asserted by the entry).
            return unsafe { simd::avx2::q15_dot(a_row.as_ptr(), b_row.as_ptr(), a_row.len()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx2;
    q15_dot_i64(a_row, b_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QFormat;

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Weight-like operand: i16 values that exclude `i16::MIN`, as
    /// `QFormat::for_max_abs` quantization guarantees.
    fn weights(len: usize, next: &mut impl FnMut() -> u64) -> Vec<i16> {
        (0..len).map(|_| (next() as i16).max(-i16::MAX)).collect()
    }

    #[test]
    fn matches_hand_computed_requant() {
        // one 2x3 · 3x1: Q1.14 weights, Q0.15 inputs, Q0.15 out
        let a = [16384i16, -8192, 4096, 0, 16384, -16384]; // 1.0, -0.5, 0.25 / 0, 1.0, -1.0 in Q14
        let b = [16384i16, 8192, -32767]; // b may hold any i16
        let bias = [0i16, 100];
        let mut c = [0i16; 2];
        q15_gemm_scalar(&a, &b, &bias, 14, &mut c, 2, 3, 1, 15, 14, 15, false);
        let acc0 = 16384i64 * 16384 + (-8192i64) * 8192 + 4096i64 * (-32767);
        let acc1 = (100i64 << 14) + 16384i64 * 8192 + (-16384i64) * (-32767);
        assert_eq!(c[0], requantize(acc0, 15, 14, 15));
        assert_eq!(c[1], requantize(acc1, 15, 14, 15));
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let a = [-16384i16];
        let b = [16384i16];
        let mut c = [0i16; 1];
        q15_gemm_scalar(&a, &b, &[0], 0, &mut c, 1, 1, 1, 15, 14, 15, true);
        assert_eq!(c[0], 0);
        q15_gemm_scalar(&a, &b, &[0], 0, &mut c, 1, 1, 1, 15, 14, 15, false);
        assert!(c[0] < 0);
    }

    #[test]
    fn output_saturates_at_i16_bounds() {
        // huge positive accumulator saturates at i16::MAX
        let a = vec![32767i16; 64];
        let b = vec![32767i16; 64];
        let mut c = [0i16; 1];
        q15_gemm_scalar(&a, &b, &[0], 0, &mut c, 1, 64, 1, 15, 15, 15, false);
        assert_eq!(c[0], i16::MAX);
        let a = vec![-32767i16; 64];
        q15_gemm_scalar(&a, &b, &[0], 0, &mut c, 1, 64, 1, 15, 15, 15, false);
        assert_eq!(c[0], i16::MIN);
    }

    #[test]
    fn avx2_body_is_exactly_scalar_spec() {
        if !simd::avx2_supported() {
            return;
        }
        let mut next = xorshift(0xfeed_beef);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 17, 5), (8, 64, 9), (5, 130, 2)] {
            let a = weights(m * k, &mut next);
            let b: Vec<i16> = (0..n * k).map(|_| next() as i16).collect();
            let bias: Vec<i16> = (0..m).map(|_| next() as i16).collect();
            let mut c_ref = vec![0i16; m * n];
            let mut c_simd = vec![0i16; m * n];
            q15_gemm_body(&a, &b, &bias, 7, &mut c_ref, m, k, n, 13, 14, 12, true, false);
            q15_gemm_body(&a, &b, &bias, 7, &mut c_simd, m, k, n, 13, 14, 12, true, true);
            assert_eq!(c_ref, c_simd, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn block_acc_matches_naive_triple_loop() {
        let mut next = xorshift(0x0b10_cacc);
        for &(rows, cols, bc, s_len) in &[
            (1usize, 1usize, 1usize, 1usize),
            (8, 3, 4, 9),
            (16, 2, 2, 1),
            (5, 4, 5, 64),
            (3, 1, 3, 17),
        ] {
            let mut block = weights(rows * bc, &mut next);
            block[0] = 0;
            let x: Vec<i16> = (0..cols * s_len).map(|_| next() as i16).collect();
            let start: Vec<i64> = (0..rows * s_len).map(|_| (next() as i64) >> 20).collect();
            let mut expect = start.clone();
            for r in 0..rows {
                for s in 0..s_len {
                    for c in 0..cols {
                        expect[r * s_len + s] += block[r * bc + c] as i64 * x[c * s_len + s] as i64;
                    }
                }
            }
            let mut spec = start.clone();
            q15_block_acc_scalar(&block, &x, &mut spec, rows, cols, s_len, bc);
            assert_eq!(spec, expect, "spec {rows}x{cols} bc {bc} s_len {s_len}");
            let mut got = start.clone();
            q15_block_acc(&block, &x, &mut got, rows, cols, s_len, bc);
            assert_eq!(got, expect, "dispatched {rows}x{cols} bc {bc} s_len {s_len}");
            if simd::avx2_supported() {
                let mut simd = start;
                q15_block_acc_body(&block, &x, &mut simd, rows, cols, s_len, bc, true);
                assert_eq!(simd, expect, "avx2 {rows}x{cols} bc {bc} s_len {s_len}");
            }
        }
    }

    #[test]
    fn q8_block_acc_matches_naive_triple_loop() {
        let mut next = xorshift(0x0b10_c8a8);
        for &(rows, cols, bc, s_len) in
            &[(1usize, 1usize, 1usize, 1usize), (4, 16, 16, 33), (3, 5, 7, 16), (4, 3, 3, 9)]
        {
            // full i8 range, i8::MIN included, on both operands
            let mut block: Vec<i8> = (0..rows * bc).map(|_| next() as i8).collect();
            block[0] = i8::MIN;
            let x: Vec<i8> = (0..cols * s_len).map(|_| next() as i8).collect();
            let start: Vec<i32> = (0..rows * s_len).map(|_| next() as i32).collect();
            let mut expect = start.clone();
            for r in 0..rows {
                for s in 0..s_len {
                    for c in 0..cols {
                        let p = block[r * bc + c] as i32 * x[c * s_len + s] as i32;
                        expect[r * s_len + s] = expect[r * s_len + s].wrapping_add(p);
                    }
                }
            }
            let mut spec = start.clone();
            q8_block_acc_scalar(&block, &x, &mut spec, rows, cols, s_len, bc);
            assert_eq!(spec, expect, "spec {rows}x{cols} bc {bc} s_len {s_len}");
            if simd::avx2_supported() {
                let mut simd = start;
                q8_block_acc_body(&block, &x, &mut simd, rows, cols, s_len, bc, true);
                assert_eq!(simd, expect, "avx2 {rows}x{cols} bc {bc} s_len {s_len}");
            }
        }
    }

    #[test]
    fn epilogues_requantize_and_clamp_like_the_gemms() {
        let acc = [-(5i64 << 20), 3 << 20, i64::from(i32::MAX) << 8];
        let mut out = [0i16; 3];
        q15_requantize_relu(&acc, &mut out, 15, 14, 15, true);
        assert_eq!(out, [0, requantize(acc[1], 15, 14, 15), i16::MAX]);
        q15_requantize_relu(&acc, &mut out, 15, 14, 15, false);
        assert_eq!(out[0], requantize(acc[0], 15, 14, 15));
        let acc8 = [-(5i32 << 10), 3 << 10, i32::MAX];
        let mut out8 = [0i8; 3];
        q8_requantize_relu(&acc8, &mut out8, 7, 6, 7, true);
        assert_eq!(out8, [0, requantize8(acc8[1], 7, 6, 7), i8::MAX]);
        q8_requantize_relu(&acc8, &mut out8, 7, 6, 7, false);
        assert_eq!(out8[0], requantize8(acc8[0], 7, 6, 7));
    }

    #[test]
    fn q8_matches_hand_computed_requant() {
        // 2x3 · 3x1: Q1.6 weights, Q0.7 inputs, Q0.7 out; bias at Q13 acc scale
        let a = [64i8, -32, 16, 0, 64, -64]; // 1.0, -0.5, 0.25 / 0, 1.0, -1.0 in Q6
        let b = [64i8, 32, -127];
        let bias = [0i32, 1 << 12]; // 0.5 at Q13
        let mut c = [0i8; 2];
        q8_gemm_scalar(&a, &b, &bias, &mut c, 2, 3, 1, 7, 6, 7, false);
        let acc0 = 64i32 * 64 + (-32i32) * 32 + 16i32 * (-127);
        let acc1 = (1 << 12) + 64i32 * 32 + (-64i32) * (-127);
        assert_eq!(c[0], requantize8(acc0, 7, 6, 7));
        assert_eq!(c[1], requantize8(acc1, 7, 6, 7));
    }

    #[test]
    fn q8_relu_and_saturation() {
        let a = [-64i8];
        let b = [127i8];
        let mut c = [0i8; 1];
        q8_gemm_scalar(&a, &b, &[0], &mut c, 1, 1, 1, 7, 6, 7, true);
        assert_eq!(c[0], 0);
        q8_gemm_scalar(&a, &b, &[0], &mut c, 1, 1, 1, 7, 6, 7, false);
        assert!(c[0] < 0);
        // huge accumulator saturates at the i8 bounds
        let a = vec![127i8; 64];
        let b = vec![127i8; 64];
        let mut c = [0i8; 1];
        q8_gemm_scalar(&a, &b, &[0], &mut c, 1, 64, 1, 7, 7, 7, false);
        assert_eq!(c[0], i8::MAX);
        let a = vec![-127i8; 64];
        q8_gemm_scalar(&a, &b, &[0], &mut c, 1, 64, 1, 7, 7, 7, false);
        assert_eq!(c[0], i8::MIN);
    }

    #[test]
    fn q8_avx2_body_is_exactly_scalar_spec() {
        if !simd::avx2_supported() {
            return;
        }
        let mut next = xorshift(0xdead_cafe);
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 17, 5), (8, 64, 9), (5, 130, 2), (4, 577, 3)]
        {
            // full i8 range on both operands — no precondition for Q8
            let a: Vec<i8> = (0..m * k).map(|_| next() as i8).collect();
            let b: Vec<i8> = (0..n * k).map(|_| next() as i8).collect();
            let bias: Vec<i32> = (0..m).map(|_| (next() as i32) % (1 << 14)).collect();
            let mut c_ref = vec![0i8; m * n];
            let mut c_simd = vec![0i8; m * n];
            q8_gemm_body(&a, &b, &bias, &mut c_ref, m, k, n, 7, 6, 5, true, false);
            q8_gemm_body(&a, &b, &bias, &mut c_simd, m, k, n, 7, 6, 5, true, true);
            assert_eq!(c_ref, c_simd, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn quantized_weights_never_hit_i16_min() {
        // the structural precondition for madd exactness
        let fmt = QFormat::for_max_abs(3.7);
        for i in -2000..=2000 {
            let x = i as f32 * 3.7 / 2000.0;
            assert_ne!(fmt.quantize(x), i16::MIN, "x = {x}");
        }
    }
}
