//! im2col packing kernels (and the f32 col2im adjoint) behind the runtime
//! SIMD dispatch level.
//!
//! Convolution on this host is im2col + GEMM, in two layouts:
//!
//! * **row-major** (`[cin*kh*kw, ho*wo]`, any element type) — the layout
//!   every convolution runs in: the f32 path in [`crate::layer::Conv2d`],
//!   consumed by the axpy-family GEMMs, and the host Q15/Q8 convolutions
//!   of `models::qeval` and the device engine's output tiles
//!   (`hawaii::exec` packs each op's input once, and each tile reads its
//!   strip through the row stride), consumed by the block kernels
//!   ([`crate::qgemm::q15_block_acc`], [`crate::qgemm::q8_block_acc`]).
//!   [`col2im_f32`] scatter-adds a gradient in this layout back onto the
//!   input (Conv2d's backward pass);
//! * **patch-major** (`[ho*wo, cin*kh*kw]`, any element type) — one
//!   k-contiguous patch per output position, the transposed layout the
//!   dot-form Q15/Q8 GEMMs ([`crate::qgemm::q15_gemm`],
//!   [`crate::qgemm::q8_gemm`]) consume. No library path packs it any
//!   more: it stays for the repository benchmark's kernel probe, which
//!   times the dot-form GEMMs on it, and goes together with that probe.
//!
//! Packing is pure data movement, so unlike the f32 GEMMs there is no
//! rounding question: the optimized bodies are **bitwise equal to the
//! scalar specs for every input**, at every dispatch level. col2im does
//! add, but each input element receives its contributions in the spec's
//! `(c, ky, kx)` row order — one per row — so it is bitwise too. The specs
//! ([`im2col_rows_scalar`], [`col2im_f32_scalar`], [`im2col_patches_scalar`])
//! are the original per-element loops (bounds check per element; the
//! patch-major spec recovers `(c, ky, kx)` by div/mod) and remain the
//! executable reference. The dispatched bodies decompose each row into its
//! three runs — left padding, a contiguous (stride 1) or constant-offset
//! in-bounds run, right padding — eliminating the per-element branches and
//! divisions. At stride 1 with `out_w == in_w` (every "same"-width conv:
//! 3×3 pad 1, 1×1, HAR's 3×1) a row-major row is one *shifted copy of the
//! whole input plane*, so im2col makes one copy per `(c, ky, kx)` row and
//! then zeroes the padded rows and the columns that wrapped in from the
//! neighbouring input row; col2im adds such a row as one run when no
//! column wraps. One set of row-major bodies serves f32, i16 and i8; each
//! element type moves its in-bounds runs with [`PackElem::copy_run`] —
//! explicit 8-lane AVX2 loads/stores for f32, a slice copy for the
//! integer types.
//!
//! Keeping both layouts behind [`crate::simd::simd_level`] means the
//! end-to-end cost of packing is measurable as scalar-vs-AVX2 in the perf
//! bench, with byte-identical outputs across levels (asserted in CI).

use crate::simd::{self, SimdLevel};

/// Geometry of one convolution's packing problem (one sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub cin: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (shared by both axes).
    pub stride: usize,
    /// Zero padding above/below.
    pub pad_h: usize,
    /// Zero padding left/right.
    pub pad_w: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl ConvShape {
    /// GEMM reduction depth `cin * kh * kw`.
    pub fn k(&self) -> usize {
        self.cin * self.kh * self.kw
    }

    /// Number of output positions `out_h * out_w`.
    pub fn out_hw(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Elements in the packed matrix (either layout).
    pub fn col_len(&self) -> usize {
        self.k() * self.out_hw()
    }

    /// Elements in one input sample `cin * in_h * in_w`.
    pub fn in_len(&self) -> usize {
        self.cin * self.in_h * self.in_w
    }

    /// Whether each row-major row is a shifted copy of an input plane:
    /// at stride 1 with `out_w == in_w`, output position `oy*out_w + ox`
    /// of row `(c, ky, kx)` reads input position
    /// `oy*in_w + ox + (ky - pad_h)*in_w + (kx - pad_w)` of plane `c`.
    fn rows_shift_planes(&self) -> bool {
        self.stride == 1 && self.out_w == self.in_w
    }
}

/// Element types the packing kernels move. Packing never does arithmetic on
/// the values, so the only requirements are a zero for the padding region
/// and a run copy.
pub trait PackElem: Copy {
    /// The padding value.
    const ZERO: Self;

    /// Copies one contiguous in-bounds run of equal-length slices; the
    /// row-major bodies call it at [`SimdLevel::Avx2`].
    fn copy_run(src: &[Self], dst: &mut [Self]) {
        dst.copy_from_slice(src);
    }
}

impl PackElem for f32 {
    const ZERO: Self = 0.0;

    fn copy_run(src: &[f32], dst: &mut [f32]) {
        copy_run_f32_avx2(src, dst);
    }
}
impl PackElem for i16 {
    const ZERO: Self = 0;
}
impl PackElem for i8 {
    const ZERO: Self = 0;
}

fn assert_geometry<T>(img: &[T], s: &ConvShape, col: &[T]) {
    assert_eq!(img.len(), s.in_len(), "im2col src length");
    assert_eq!(col.len(), s.col_len(), "im2col col length");
    assert!(s.stride > 0, "im2col stride");
    assert_eq!(s.out_h, (s.in_h + 2 * s.pad_h - s.kh) / s.stride + 1, "im2col out_h");
    assert_eq!(s.out_w, (s.in_w + 2 * s.pad_w - s.kw) / s.stride + 1, "im2col out_w");
}

// ---------------------------------------------------------------------
// Row-major layout: col[(c*kh*kw + ky*kw + kx) * out_hw + oy*out_w + ox]
// ---------------------------------------------------------------------

/// Row-major im2col for one `[cin, in_h, in_w]` sample, dispatched on the
/// process SIMD level. Bitwise equal to [`im2col_rows_scalar`] for every
/// input and element type.
///
/// # Panics
///
/// Panics if slice lengths or the output size disagree with `s`.
pub fn im2col_rows<T: PackElem>(src: &[T], s: &ConvShape, col: &mut [T]) {
    assert_geometry(src, s, col);
    match simd::simd_level() {
        SimdLevel::Scalar => im2col_rows_scalar_body(src, s, col),
        SimdLevel::Avx2 if s.rows_shift_planes() => im2col_shifted_planes(src, s, col, T::copy_run),
        SimdLevel::Avx2 => im2col_rows_runs(src, s, col, T::copy_run),
    }
}

/// The row-major scalar spec: the original per-element loop with a bounds
/// check per element — identical to the dispatched entry, kept as the
/// executable reference.
///
/// # Panics
///
/// Panics if slice lengths or the output size disagree with `s`.
pub fn im2col_rows_scalar<T: PackElem>(src: &[T], s: &ConvShape, col: &mut [T]) {
    assert_geometry(src, s, col);
    im2col_rows_scalar_body(src, s, col);
}

fn im2col_rows_scalar_body<T: PackElem>(src: &[T], s: &ConvShape, col: &mut [T]) {
    let khw = s.kh * s.kw;
    let hw_out = s.out_hw();
    for c in 0..s.cin {
        for ky in 0..s.kh {
            for kx in 0..s.kw {
                let row = (c * khw + ky * s.kw + kx) * hw_out;
                for oy in 0..s.out_h {
                    let iy = (oy * s.stride + ky) as isize - s.pad_h as isize;
                    let base = row + oy * s.out_w;
                    if iy < 0 || iy >= s.in_h as isize {
                        col[base..base + s.out_w].fill(T::ZERO);
                        continue;
                    }
                    for ox in 0..s.out_w {
                        let ix = (ox * s.stride + kx) as isize - s.pad_w as isize;
                        col[base + ox] = if ix < 0 || ix >= s.in_w as isize {
                            T::ZERO
                        } else {
                            src[(c * s.in_h + iy as usize) * s.in_w + ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// The valid output-position range `[lo, hi)` along one axis: positions `o`
/// with `0 <= o*stride + koff - pad < extent`. Pure integer arithmetic —
/// this is the run decomposition that replaces the per-element checks in
/// this module's bodies.
#[inline]
pub fn valid_range(
    out: usize,
    stride: usize,
    koff: usize,
    pad: usize,
    extent: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(koff).div_ceil(stride).min(out);
    let hi =
        if extent + pad > koff { ((extent + pad - koff - 1) / stride + 1).min(out) } else { 0 };
    (lo, hi.max(lo))
}

/// Row-major fast body for every geometry that is not a
/// [`ConvShape::rows_shift_planes`] one: per `(c, ky, kx)` row, each output
/// row is left-pad zeros, one in-bounds run, right-pad zeros. At stride 1
/// the in-bounds run is a contiguous copy (performed by `copy_run`); larger
/// strides gather with a precomputed offset and no per-element branch.
fn im2col_rows_runs<T: PackElem>(
    src: &[T],
    s: &ConvShape,
    col: &mut [T],
    copy_run: fn(&[T], &mut [T]),
) {
    let khw = s.kh * s.kw;
    let hw_out = s.out_hw();
    for c in 0..s.cin {
        for ky in 0..s.kh {
            for kx in 0..s.kw {
                let row = (c * khw + ky * s.kw + kx) * hw_out;
                let (lo, hi) = valid_range(s.out_w, s.stride, kx, s.pad_w, s.in_w);
                for oy in 0..s.out_h {
                    let iy = (oy * s.stride + ky) as isize - s.pad_h as isize;
                    let base = row + oy * s.out_w;
                    let dst = &mut col[base..base + s.out_w];
                    // an empty run has no first input column: a kernel
                    // column can lie in the padding for every output
                    if iy < 0 || iy >= s.in_h as isize || lo == hi {
                        dst.fill(T::ZERO);
                        continue;
                    }
                    dst[..lo].fill(T::ZERO);
                    dst[hi..].fill(T::ZERO);
                    let src_row = (c * s.in_h + iy as usize) * s.in_w;
                    // first in-bounds input column: lo*stride + kx - pad_w >= 0
                    let ix0 = lo * s.stride + kx - s.pad_w;
                    if s.stride == 1 {
                        copy_run(&src[src_row + ix0..src_row + ix0 + (hi - lo)], &mut dst[lo..hi]);
                    } else {
                        for (d, ox) in dst[lo..hi].iter_mut().zip(lo..) {
                            *d = src[src_row + ix0 + (ox - lo) * s.stride];
                        }
                    }
                }
            }
        }
    }
}

/// Row-major body for [`ConvShape::rows_shift_planes`] geometries: each
/// `(c, ky, kx)` row is one `copy_run` of input plane `c`, shifted by
/// `(ky - pad_h)*in_w + (kx - pad_w)`, from its first to its last in-bounds
/// position; then the padded rows before and after, and the `|kx - pad_w|`
/// columns between consecutive output rows that the flat copy took from
/// the neighbouring input row, are zeroed.
fn im2col_shifted_planes<T: PackElem>(
    src: &[T],
    s: &ConvShape,
    col: &mut [T],
    copy_run: fn(&[T], &mut [T]),
) {
    let w = s.in_w;
    let plane = s.in_h * w;
    let mut rows = col.chunks_exact_mut(s.out_hw());
    for c in 0..s.cin {
        let src_plane = &src[c * plane..(c + 1) * plane];
        for ky in 0..s.kh {
            let (ylo, yhi) = valid_range(s.out_h, 1, ky, s.pad_h, s.in_h);
            for kx in 0..s.kw {
                let dst = rows.next().expect("one col row per (c, ky, kx)");
                let (xlo, xhi) = valid_range(w, 1, kx, s.pad_w, w);
                if ylo == yhi || xlo == xhi {
                    dst.fill(T::ZERO);
                    continue;
                }
                let first = ylo * w + xlo;
                let last = (yhi - 1) * w + xhi;
                let src_first = (ylo + ky - s.pad_h) * w + xlo + kx - s.pad_w;
                dst[..first].fill(T::ZERO);
                copy_run(&src_plane[src_first..src_first + (last - first)], &mut dst[first..last]);
                dst[last..].fill(T::ZERO);
                if xhi - xlo < w {
                    for oy in ylo..yhi - 1 {
                        dst[oy * w + xhi..(oy + 1) * w + xlo].fill(T::ZERO);
                    }
                }
            }
        }
    }
}

/// Contiguous-run copy with explicit 8-lane AVX2 vectors (scalar tail).
/// Falls back to `copy_from_slice` off x86-64 — the Avx2 level is
/// unreachable there, but the body must still compile.
fn copy_run_f32_avx2(src: &[f32], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: dispatch only selects this body when avx2 is present;
        // both slices have equal length (callers pass matched runs).
        unsafe { copy_f32_lanes(src, dst) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dst.copy_from_slice(src);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn copy_f32_lanes(src: &[f32], dst: &mut [f32]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let n8 = n & !7;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        _mm256_storeu_ps(dp.add(i), _mm256_loadu_ps(sp.add(i)));
        i += 8;
    }
    for j in n8..n {
        *dp.add(j) = *sp.add(j);
    }
}

/// Row-major f32 col2im for one sample: scatter-adds the `[cin*kh*kw,
/// out_h*out_w]` matrix `col` onto the `[cin, in_h, in_w]` slice `dst` —
/// the adjoint of [`im2col_rows`], used by the conv backward pass —
/// dispatched on the process SIMD level. Padding positions are dropped.
/// Bitwise equal to [`col2im_f32_scalar`] for every input, including a
/// nonzero starting `dst`.
///
/// # Panics
///
/// Panics if slice lengths or the output size disagree with `s`.
pub fn col2im_f32(col: &[f32], s: &ConvShape, dst: &mut [f32]) {
    assert_geometry(dst, s, col);
    match simd::simd_level() {
        SimdLevel::Scalar => col2im_f32_scalar_body(col, s, dst),
        SimdLevel::Avx2 => col2im_rows_runs(col, s, dst, add_run_f32_avx2),
    }
}

/// The col2im scalar spec: the original per-element scatter-add loop with a
/// bounds check per element, kept as the executable reference.
///
/// # Panics
///
/// Panics if slice lengths or the output size disagree with `s`.
pub fn col2im_f32_scalar(col: &[f32], s: &ConvShape, dst: &mut [f32]) {
    assert_geometry(dst, s, col);
    col2im_f32_scalar_body(col, s, dst);
}

fn col2im_f32_scalar_body(col: &[f32], s: &ConvShape, dst: &mut [f32]) {
    let khw = s.kh * s.kw;
    let hw_out = s.out_hw();
    for c in 0..s.cin {
        for ky in 0..s.kh {
            for kx in 0..s.kw {
                let row = (c * khw + ky * s.kw + kx) * hw_out;
                for oy in 0..s.out_h {
                    let iy = (oy * s.stride + ky) as isize - s.pad_h as isize;
                    if iy < 0 || iy >= s.in_h as isize {
                        continue;
                    }
                    for ox in 0..s.out_w {
                        let ix = (ox * s.stride + kx) as isize - s.pad_w as isize;
                        if ix < 0 || ix >= s.in_w as isize {
                            continue;
                        }
                        let off = (c * s.in_h + iy as usize) * s.in_w + ix as usize;
                        dst[off] += col[row + oy * s.out_w + ox];
                    }
                }
            }
        }
    }
}

/// col2im body shared by the fast path: the same row order as the spec
/// (each input element still receives its contributions in `(c, ky, kx)`
/// order, at most one per row), with each output row's in-bounds run added
/// by `add_run` at stride 1 or by a constant-offset scatter otherwise. For
/// [`ConvShape::rows_shift_planes`] geometries, a row whose runs span the
/// full width (no column wraps: `kx == pad_w`) is one run over all its
/// in-bounds output rows.
fn col2im_rows_runs(col: &[f32], s: &ConvShape, dst: &mut [f32], add_run: fn(&[f32], &mut [f32])) {
    let plane = s.in_h * s.in_w;
    let mut rows = col.chunks_exact(s.out_hw());
    for c in 0..s.cin {
        let dst_plane = &mut dst[c * plane..(c + 1) * plane];
        for ky in 0..s.kh {
            let (ylo, yhi) = valid_range(s.out_h, s.stride, ky, s.pad_h, s.in_h);
            for kx in 0..s.kw {
                let row = rows.next().expect("one col row per (c, ky, kx)");
                let (xlo, xhi) = valid_range(s.out_w, s.stride, kx, s.pad_w, s.in_w);
                if ylo == yhi || xlo == xhi {
                    continue;
                }
                // first in-bounds input row/column of this (ky, kx) row
                let iy0 = ylo * s.stride + ky - s.pad_h;
                let ix0 = xlo * s.stride + kx - s.pad_w;
                if s.rows_shift_planes() && xhi - xlo == s.in_w {
                    let n = (yhi - ylo) * s.in_w;
                    add_run(&row[ylo * s.out_w..][..n], &mut dst_plane[iy0 * s.in_w..][..n]);
                    continue;
                }
                for (i, oy) in (ylo..yhi).enumerate() {
                    let g = &row[oy * s.out_w + xlo..oy * s.out_w + xhi];
                    let d = &mut dst_plane[(iy0 + i * s.stride) * s.in_w + ix0..];
                    if s.stride == 1 {
                        add_run(g, &mut d[..g.len()]);
                    } else {
                        for (j, &v) in g.iter().enumerate() {
                            d[j * s.stride] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Contiguous-run accumulate `dst += src` with explicit 8-lane AVX2 adds
/// (scalar tail); each lane is the same IEEE add as the scalar `+=`.
/// Falls back to a scalar loop off x86-64.
fn add_run_f32_avx2(src: &[f32], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: dispatch only selects this body when avx2 is present;
        // both slices have equal length (callers pass matched runs).
        unsafe { add_f32_lanes(src, dst) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for (d, &v) in dst.iter_mut().zip(src) {
        *d += v;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_f32_lanes(src: &[f32], dst: &mut [f32]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let n8 = n & !7;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        _mm256_storeu_ps(
            dp.add(i),
            _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), _mm256_loadu_ps(sp.add(i))),
        );
        i += 8;
    }
    for j in n8..n {
        *dp.add(j) += *sp.add(j);
    }
}

// ---------------------------------------------------------------------
// Patch-major layout: col[(oy*out_w + ox) * k + c*kh*kw + ky*kw + kx]
// ---------------------------------------------------------------------

/// Patch-major (transposed) im2col for one `[cin, in_h, in_w]` sample,
/// dispatched on the process SIMD level: one k-contiguous patch per output
/// position, the layout the dot-form integer GEMMs consume (see the module
/// docs for who still packs it). Bitwise equal to [`im2col_patches_scalar`]
/// for every input.
///
/// # Panics
///
/// Panics if slice lengths or the output size disagree with `s`.
pub fn im2col_patches<T: PackElem>(src: &[T], s: &ConvShape, col: &mut [T]) {
    assert_geometry(src, s, col);
    match simd::simd_level() {
        SimdLevel::Scalar => im2col_patches_scalar_body(src, s, col),
        SimdLevel::Avx2 => im2col_patches_runs(src, s, col),
    }
}

/// The patch-major scalar spec: per-element `(c, ky, kx)` recovery by
/// div/mod with a bounds check per element, kept as the executable
/// reference.
///
/// # Panics
///
/// Panics if slice lengths or the output size disagree with `s`.
pub fn im2col_patches_scalar<T: PackElem>(src: &[T], s: &ConvShape, col: &mut [T]) {
    assert_geometry(src, s, col);
    im2col_patches_scalar_body(src, s, col);
}

fn im2col_patches_scalar_body<T: PackElem>(src: &[T], s: &ConvShape, col: &mut [T]) {
    let k = s.k();
    let khw = s.kh * s.kw;
    for (j, patch) in col.chunks_exact_mut(k).enumerate() {
        let (oy, ox) = (j / s.out_w, j % s.out_w);
        for (ki, out) in patch.iter_mut().enumerate() {
            let c = ki / khw;
            let (ky, kx) = ((ki % khw) / s.kw, ki % s.kw);
            let iy = (oy * s.stride + ky) as isize - s.pad_h as isize;
            let ix = (ox * s.stride + kx) as isize - s.pad_w as isize;
            *out = if iy >= 0 && iy < s.in_h as isize && ix >= 0 && ix < s.in_w as isize {
                src[(c * s.in_h + iy as usize) * s.in_w + ix as usize]
            } else {
                T::ZERO
            };
        }
    }
}

/// Patch-major fast body: for a fixed output position the `kx` axis is
/// contiguous in both the patch and the input row, so every `(c, ky)` row
/// of the patch is left-pad zeros + one `copy_from_slice` + right-pad
/// zeros; no divisions, no per-element checks. (The destination stride
/// between consecutive output positions is `k`, so there is no wide-vector
/// axis here — the win is the run decomposition, and it rides the same
/// dispatch level so the scalar spec stays the reference.)
fn im2col_patches_runs<T: PackElem>(src: &[T], s: &ConvShape, col: &mut [T]) {
    let k = s.k();
    let khw = s.kh * s.kw;
    let mut j = 0usize;
    for oy in 0..s.out_h {
        for ox in 0..s.out_w {
            let patch = &mut col[j * k..(j + 1) * k];
            j += 1;
            // valid kx range for this ox: 0 <= ox*stride + kx - pad_w < in_w
            let x0 = ox * s.stride;
            let kx_lo = s.pad_w.saturating_sub(x0).min(s.kw);
            let kx_hi = if s.in_w + s.pad_w > x0 { (s.in_w + s.pad_w - x0).min(s.kw) } else { 0 };
            let kx_hi = kx_hi.max(kx_lo);
            // exact when the run is non-empty; an empty run never reads
            let ix0 = (x0 + kx_lo).saturating_sub(s.pad_w);
            for c in 0..s.cin {
                for ky in 0..s.kh {
                    let iy = (oy * s.stride + ky) as isize - s.pad_h as isize;
                    let dst = &mut patch[c * khw + ky * s.kw..c * khw + (ky + 1) * s.kw];
                    if iy < 0 || iy >= s.in_h as isize {
                        dst.fill(T::ZERO);
                        continue;
                    }
                    dst[..kx_lo].fill(T::ZERO);
                    dst[kx_hi..].fill(T::ZERO);
                    if kx_hi > kx_lo {
                        let src_row = (c * s.in_h + iy as usize) * s.in_w;
                        dst[kx_lo..kx_hi]
                            .copy_from_slice(&src[src_row + ix0..src_row + ix0 + (kx_hi - kx_lo)]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(
        cin: usize,
        (kh, kw): (usize, usize),
        stride: usize,
        (pad_h, pad_w): (usize, usize),
        (in_h, in_w): (usize, usize),
    ) -> ConvShape {
        ConvShape {
            cin,
            kh,
            kw,
            stride,
            pad_h,
            pad_w,
            in_h,
            in_w,
            out_h: (in_h + 2 * pad_h - kh) / stride + 1,
            out_w: (in_w + 2 * pad_w - kw) / stride + 1,
        }
    }

    fn filled(n: usize) -> Vec<i16> {
        (0..n).map(|i| (i as i16).wrapping_mul(31).wrapping_add(7)).collect()
    }

    /// Geometry zoo covering stride >1, asymmetric pads, 1-D kernels,
    /// kernels wider than the input (fully padded rows), and same-width
    /// stride-1 shapes (shifted planes) with 1-wide planes, and kernel
    /// columns that lie in the padding for every output position.
    fn shapes() -> Vec<ConvShape> {
        vec![
            shape(1, (1, 1), 1, (0, 0), (1, 1)),
            shape(2, (3, 3), 1, (1, 1), (5, 7)),
            shape(3, (3, 1), 1, (1, 0), (9, 1)),
            shape(2, (2, 2), 2, (0, 0), (6, 6)),
            shape(1, (3, 3), 2, (1, 1), (7, 5)),
            shape(2, (5, 5), 1, (2, 2), (4, 3)),
            shape(1, (1, 3), 3, (0, 2), (2, 8)),
            shape(2, (3, 3), 1, (1, 1), (6, 1)),
            shape(2, (5, 3), 1, (0, 1), (7, 4)),
            shape(1, (3, 5), 1, (3, 2), (2, 1)),
            shape(1, (2, 6), 1, (0, 3), (3, 1)),
        ]
    }

    #[test]
    fn runs_body_matches_patch_spec_on_geometry_zoo() {
        for s in shapes() {
            let src = filled(s.in_len());
            let mut a = vec![0i16; s.col_len()];
            let mut b = vec![0i16; s.col_len()];
            im2col_patches_scalar_body(&src, &s, &mut a);
            im2col_patches_runs(&src, &s, &mut b);
            assert_eq!(a, b, "{s:?}");
        }
    }

    /// Both row-major fast bodies equal the spec for element type `T`;
    /// every destination starts at a different nonzero fill.
    fn check_rowmajor_bodies<T: PackElem + PartialEq + std::fmt::Debug>(
        s: &ConvShape,
        src: &[T],
        fills: [T; 3],
    ) {
        let mut a = vec![fills[0]; s.col_len()];
        let mut b = vec![fills[1]; s.col_len()];
        im2col_rows_scalar_body(src, s, &mut a);
        im2col_rows_runs(src, s, &mut b, |r, d| d.copy_from_slice(r));
        assert_eq!(a, b, "{s:?}");
        if s.rows_shift_planes() {
            let mut c = vec![fills[2]; s.col_len()];
            im2col_shifted_planes(src, s, &mut c, |r, d| d.copy_from_slice(r));
            assert_eq!(a, c, "{s:?}");
        }
    }

    #[test]
    fn runs_body_matches_rowmajor_spec_on_geometry_zoo() {
        for s in shapes() {
            let src = filled(s.in_len());
            let src_f32: Vec<f32> = src.iter().map(|&v| v as f32).collect();
            check_rowmajor_bodies(&s, &src_f32, [3.0, 1.0, 2.0]);
            check_rowmajor_bodies(&s, &src, [3, 1, 2]);
            let src_i8: Vec<i8> = src.iter().map(|&v| v as i8).collect();
            check_rowmajor_bodies(&s, &src_i8, [3, 1, 2]);
        }
    }

    #[test]
    fn col2im_runs_body_matches_spec_on_geometry_zoo() {
        let add = |r: &[f32], d: &mut [f32]| d.iter_mut().zip(r).for_each(|(d, &v)| *d += v);
        for s in shapes() {
            let col: Vec<f32> = filled(s.col_len()).iter().map(|&v| v as f32 / 7.0).collect();
            let start: Vec<f32> = filled(s.in_len()).iter().map(|&v| v as f32 / 3.0).collect();
            let (mut a, mut b) = (start.clone(), start);
            col2im_f32_scalar_body(&col, &s, &mut a);
            col2im_rows_runs(&col, &s, &mut b, add);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{s:?}");
        }
    }

    #[test]
    fn layouts_are_transposes_of_each_other() {
        let s = shape(2, (3, 3), 1, (1, 1), (5, 5));
        let src: Vec<f32> = (0..s.in_len()).map(|i| i as f32).collect();
        let mut rows = vec![0f32; s.col_len()];
        let mut patches = vec![0f32; s.col_len()];
        im2col_rows_scalar(&src, &s, &mut rows);
        im2col_patches_scalar(&src, &s, &mut patches);
        let (k, n) = (s.k(), s.out_hw());
        for ki in 0..k {
            for j in 0..n {
                assert_eq!(rows[ki * n + j], patches[j * k + ki]);
            }
        }
    }

    #[test]
    fn dispatched_entries_match_spec_at_current_level() {
        let s = shape(2, (3, 3), 1, (1, 1), (6, 6));
        let src = filled(s.in_len());
        let mut spec = vec![0i16; s.col_len()];
        let mut got = vec![0i16; s.col_len()];
        im2col_patches_scalar(&src, &s, &mut spec);
        im2col_patches(&src, &s, &mut got);
        assert_eq!(spec, got);

        let fsrc: Vec<f32> = src.iter().map(|&v| v as f32).collect();
        let mut fspec = vec![0f32; s.col_len()];
        let mut fgot = vec![0f32; s.col_len()];
        im2col_rows_scalar(&fsrc, &s, &mut fspec);
        im2col_rows(&fsrc, &s, &mut fgot);
        assert_eq!(fspec, fgot);

        let mut rspec = vec![0i16; s.col_len()];
        let mut rgot = vec![1i16; s.col_len()];
        im2col_rows_scalar(&src, &s, &mut rspec);
        im2col_rows(&src, &s, &mut rgot);
        assert_eq!(rspec, rgot);
    }

    #[test]
    fn valid_range_brackets_the_in_bounds_positions() {
        for out in 1..6 {
            for stride in 1..4 {
                for koff in 0..5 {
                    for pad in 0..3 {
                        for extent in 1..7 {
                            let (lo, hi) = valid_range(out, stride, koff, pad, extent);
                            for o in 0..out {
                                let ix = (o * stride + koff) as isize - pad as isize;
                                let inside = ix >= 0 && ix < extent as isize;
                                assert_eq!(
                                    inside,
                                    o >= lo && o < hi,
                                    "out={out} stride={stride} koff={koff} pad={pad} \
                                     extent={extent} o={o} -> [{lo},{hi})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
