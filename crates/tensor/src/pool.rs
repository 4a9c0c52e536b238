//! Non-overlapping max-pool kernels behind the runtime SIMD dispatch level.
//!
//! One call pools a single `[h, w]` channel plane with window = stride =
//! `(kh, kw)` (floor semantics: trailing rows/columns that do not fill a
//! window are ignored, matching [`crate::layer::MaxPool2d`]). The scalar
//! specs are the original per-window loops and remain the executable
//! reference:
//!
//! * f32 ([`maxpool2d_f32_scalar`]): strict-greater replacement scanning
//!   the window in `(ky, kx)` order from `-inf` — among equal maxima the
//!   lexicographically first element wins, which pins both the argmax and
//!   the result *bits* (`+0.0` vs `-0.0`).
//! * i16 / i8 ([`maxpool2d_i16_scalar`], [`maxpool2d_i8_scalar`]): plain
//!   integer window max, as the Q15/Q8 graph evaluators compute it.
//!
//! # Exactness contract
//!
//! The AVX2 bodies are **bitwise equal to the specs for every finite
//! input** (NaN excluded — the pipeline's finite-data contract, shared
//! with [`crate::simd`]). Plain `_mm256_max_ps` would break that: its
//! tie/zero semantics (`max(+0,-0) = -0`) differ from the spec's
//! first-wins rule. The f32 bodies instead replicate the spec's exact
//! selection with `_mm256_cmp_ps(v, acc, GT_OQ)` + `blendv`, folding each
//! window row *first* (left-wins-ties pair max) and then across rows
//! (first-row-wins) — the same lexicographic winner as the scalar scan.
//! Integer max is associative and commutative with no representative
//! ambiguity, so the integer bodies fold in any order via
//! `_mm256_max_epi16` / `_mm256_max_epi8`.
//!
//! Vectorized paths cover the window shapes the model zoo uses: `kw == 1`
//! (vertical pooling, 8/16/32 output lanes for f32/i16/i8) and `kw == 2`
//! (pair-deinterleave, 8/16/32 outputs per step). Output columns past the
//! last whole vector — all of them on planes narrower than one vector —
//! take a scalar tail inside the same body. A `[h, 1]` plane pooled `(kh, 1)` — the 1-D HAR
//! layout — is first re-expressed as a `[1, h]` plane pooled `(1, kh)`,
//! which is the identical element sequence per window and routes the 1-D
//! case onto the `kw == 2` vector path. Other widths fall back to the
//! scalar spec at either level.
//!
//! The train-mode forward ([`maxpool2d_f32_argmax`]) additionally records
//! the plane-relative offset of each window's winner; its vector path
//! (`kw == 1`) blends an i32 index register alongside the value register.
//! The backward pass ([`maxpool2d_backward_f32`]) is the adjoint scatter —
//! one gradient added at each recorded offset; windows are disjoint, so it
//! is memory-bound and stays scalar at both levels.

use crate::simd::{self, SimdLevel};

fn assert_pool<T>(src: &[T], h: usize, w: usize, kh: usize, kw: usize, dst_len: usize) {
    assert!(kh > 0 && kw > 0, "pool window");
    assert_eq!(src.len(), h * w, "pool src length");
    assert_eq!(dst_len, (h / kh) * (w / kw), "pool dst length");
}

/// Re-expresses a `[h, 1]` plane pooled `(kh, 1)` as `[1, h]` pooled
/// `(1, kh)`: the same contiguous element sequence per window, same
/// plane-relative offsets, but with a vectorizable output axis.
#[inline]
fn canonical(h: usize, w: usize, kh: usize, kw: usize) -> (usize, usize, usize, usize) {
    if w == 1 && kw == 1 {
        (1, h, 1, kh)
    } else {
        (h, w, kh, kw)
    }
}

// ---------------------------------------------------------------------
// f32 forward
// ---------------------------------------------------------------------

/// Max-pools one f32 plane, dispatched on the process SIMD level. Bitwise
/// equal to [`maxpool2d_f32_scalar`] for every finite input.
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_f32(src: &[f32], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [f32]) {
    assert_pool(src, h, w, kh, kw, dst.len());
    let (h, w, kh, kw) = canonical(h, w, kh, kw);
    #[cfg(target_arch = "x86_64")]
    if simd::simd_level() == SimdLevel::Avx2 && (kw == 1 || kw == 2) {
        // SAFETY: level only reports Avx2 on CPUs with avx2; geometry
        // asserted above.
        unsafe { avx2::maxpool_f32(src, h, w, kh, kw, dst) };
        return;
    }
    let _ = simd::simd_level();
    maxpool2d_f32_scalar_body(src, h, w, kh, kw, dst);
}

/// The f32 scalar spec: strict-greater window scan in `(ky, kx)` order.
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_f32_scalar(
    src: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dst: &mut [f32],
) {
    assert_pool(src, h, w, kh, kw, dst.len());
    maxpool2d_f32_scalar_body(src, h, w, kh, kw, dst);
}

fn maxpool2d_f32_scalar_body(
    src: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dst: &mut [f32],
) {
    let _ = h;
    let (ho, wo) = (dst.len() / (w / kw).max(1), w / kw);
    for oy in 0..ho {
        for ox in 0..wo {
            let mut best = f32::NEG_INFINITY;
            for ky in 0..kh {
                for kx in 0..kw {
                    let v = src[(oy * kh + ky) * w + ox * kw + kx];
                    if v > best {
                        best = v;
                    }
                }
            }
            dst[oy * wo + ox] = best;
        }
    }
}

/// Train-mode forward: max-pools one f32 plane and records each window
/// winner's plane-relative offset in `arg`. Dispatched; bitwise equal to
/// [`maxpool2d_f32_argmax_scalar`] (values *and* offsets) for finite input.
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_f32_argmax(
    src: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dst: &mut [f32],
    arg: &mut [usize],
) {
    assert_pool(src, h, w, kh, kw, dst.len());
    assert_eq!(arg.len(), dst.len(), "pool argmax length");
    let (h, w, kh, kw) = canonical(h, w, kh, kw);
    #[cfg(target_arch = "x86_64")]
    if simd::simd_level() == SimdLevel::Avx2 && kw == 1 {
        // SAFETY: level only reports Avx2 on CPUs with avx2; geometry
        // asserted above.
        unsafe { avx2::maxpool_f32_argmax_kw1(src, h, w, kh, dst, arg) };
        return;
    }
    let _ = simd::simd_level();
    maxpool2d_f32_argmax_scalar_body(src, h, w, kh, kw, dst, arg);
}

/// The train-mode scalar spec: strict-greater scan in `(ky, kx)` order,
/// first winner's offset recorded.
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_f32_argmax_scalar(
    src: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dst: &mut [f32],
    arg: &mut [usize],
) {
    assert_pool(src, h, w, kh, kw, dst.len());
    assert_eq!(arg.len(), dst.len(), "pool argmax length");
    maxpool2d_f32_argmax_scalar_body(src, h, w, kh, kw, dst, arg);
}

#[allow(clippy::too_many_arguments)]
fn maxpool2d_f32_argmax_scalar_body(
    src: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dst: &mut [f32],
    arg: &mut [usize],
) {
    let _ = h;
    let (ho, wo) = (dst.len() / (w / kw).max(1), w / kw);
    for oy in 0..ho {
        for ox in 0..wo {
            let mut best = f32::NEG_INFINITY;
            let mut best_off = 0usize;
            for ky in 0..kh {
                for kx in 0..kw {
                    let off = (oy * kh + ky) * w + ox * kw + kx;
                    let v = src[off];
                    if v > best {
                        best = v;
                        best_off = off;
                    }
                }
            }
            dst[oy * wo + ox] = best;
            arg[oy * wo + ox] = best_off;
        }
    }
}

/// The pooling adjoint: adds `grad[i]` at `gx[arg[i]]`. Offsets come from
/// [`maxpool2d_f32_argmax`]; windows are disjoint, so each target is hit at
/// most once per plane.
///
/// # Panics
///
/// Panics if `arg` and `grad` lengths differ or an offset is out of range.
pub fn maxpool2d_backward_f32(arg: &[usize], grad: &[f32], gx: &mut [f32]) {
    assert_eq!(arg.len(), grad.len(), "pool backward length");
    for (&src, &g) in arg.iter().zip(grad.iter()) {
        gx[src] += g;
    }
}

// ---------------------------------------------------------------------
// Integer forward
// ---------------------------------------------------------------------

/// Max-pools one i16 plane, dispatched on the process SIMD level. Bitwise
/// equal to [`maxpool2d_i16_scalar`] for every input (integer max has no
/// tie ambiguity).
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_i16(src: &[i16], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [i16]) {
    assert_pool(src, h, w, kh, kw, dst.len());
    let (h, w, kh, kw) = canonical(h, w, kh, kw);
    #[cfg(target_arch = "x86_64")]
    if simd::simd_level() == SimdLevel::Avx2 && (kw == 1 || kw == 2) {
        // SAFETY: level only reports Avx2 on CPUs with avx2; geometry
        // asserted above.
        unsafe { avx2::maxpool_int(src, h, w, kh, kw, dst) };
        return;
    }
    let _ = simd::simd_level();
    maxpool_int_scalar_body(src, h, w, kh, kw, dst);
}

/// The i16 scalar spec: integer window max from `i16::MIN`, exactly the
/// Q15 graph evaluator's loop.
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_i16_scalar(
    src: &[i16],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dst: &mut [i16],
) {
    assert_pool(src, h, w, kh, kw, dst.len());
    maxpool_int_scalar_body(src, h, w, kh, kw, dst);
}

/// Max-pools one i8 plane, dispatched on the process SIMD level. Bitwise
/// equal to [`maxpool2d_i8_scalar`] for every input (integer max has no
/// tie ambiguity).
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_i8(src: &[i8], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [i8]) {
    assert_pool(src, h, w, kh, kw, dst.len());
    let (h, w, kh, kw) = canonical(h, w, kh, kw);
    #[cfg(target_arch = "x86_64")]
    if simd::simd_level() == SimdLevel::Avx2 && (kw == 1 || kw == 2) {
        // SAFETY: level only reports Avx2 on CPUs with avx2; geometry
        // asserted above.
        unsafe { avx2::maxpool_int(src, h, w, kh, kw, dst) };
        return;
    }
    let _ = simd::simd_level();
    maxpool_int_scalar_body(src, h, w, kh, kw, dst);
}

/// The i8 scalar spec: integer window max from `i8::MIN`, exactly the Q8
/// graph evaluator's loop.
///
/// # Panics
///
/// Panics if slice lengths disagree with the pool geometry.
pub fn maxpool2d_i8_scalar(src: &[i8], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [i8]) {
    assert_pool(src, h, w, kh, kw, dst.len());
    maxpool_int_scalar_body(src, h, w, kh, kw, dst);
}

/// An integer pool element: window maxima start from `MIN`.
trait PoolInt: Copy + Ord {
    const MIN: Self;
}

impl PoolInt for i16 {
    const MIN: Self = i16::MIN;
}

impl PoolInt for i8 {
    const MIN: Self = i8::MIN;
}

/// The integer scalar spec body, shared by i16 and i8.
fn maxpool_int_scalar_body<T: PoolInt>(
    src: &[T],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    dst: &mut [T],
) {
    let _ = h;
    let (ho, wo) = (dst.len() / (w / kw).max(1), w / kw);
    for oy in 0..ho {
        for ox in 0..wo {
            let mut best = T::MIN;
            for ky in 0..kh {
                for kx in 0..kw {
                    best = best.max(src[(oy * kh + ky) * w + ox * kw + kx]);
                }
            }
            dst[oy * wo + ox] = best;
        }
    }
}

/// Integer global average of one plane: the i64 sum divided by the plane
/// length, rounded half away from zero. The rounded mean of values of one
/// integer type always lies within that type's range, so the narrowing
/// cannot fail. The host Q15/Q8 engines and the device engine all pool
/// through this function.
///
/// # Panics
///
/// Panics if `plane` is empty.
pub fn global_avg_int<T: Copy + Into<i64> + TryFrom<i64>>(plane: &[T]) -> T {
    let hw = plane.len() as i64;
    let sum: i64 = plane.iter().map(|&v| v.into()).sum();
    let rounded = if sum >= 0 { (sum + hw / 2) / hw } else { (sum - hw / 2) / hw };
    T::try_from(rounded).ok().expect("a plane mean fits its element type")
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 pooling bodies. Every `unsafe fn` requires `avx2` (checked by
    //! the dispatchers) and the asserted pool geometry.
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// `select(acc, v, v > acc)` — the spec's strict-greater replacement,
    /// lane-wise; first operand wins ties (including `+0.0` vs `-0.0`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold_gt(acc: __m256, v: __m256) -> __m256 {
        _mm256_blendv_ps(acc, v, _mm256_cmp_ps(v, acc, _CMP_GT_OQ))
    }

    /// Left-wins-ties max of the 8 adjacent pairs in 16 consecutive f32,
    /// in output order. `(ky, kx)`-order equivalence: within each pair the
    /// even (kx = 0) element wins ties.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pairmax_f32(p: *const f32) -> __m256 {
        let v0 = _mm256_loadu_ps(p);
        let v1 = _mm256_loadu_ps(p.add(8));
        let evens = _mm256_shuffle_ps(v0, v1, 0b10_00_10_00);
        let odds = _mm256_shuffle_ps(v0, v1, 0b11_01_11_01);
        let m = fold_gt(evens, odds);
        // shuffle leaves pairs as [0,1,4,5 | 2,3,6,7]; restore order
        _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(m), 0b11_01_10_00))
    }

    /// f32 forward for `kw == 1` / `kw == 2`: each window row is folded
    /// first (pair max for `kw == 2`), then rows fold top-down with
    /// first-wins-ties — the spec's lexicographic winner.
    ///
    /// # Safety
    ///
    /// Requires avx2 and `src`/`dst` matching the pool geometry.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn maxpool_f32(
        src: &[f32],
        _h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        dst: &mut [f32],
    ) {
        debug_assert!(kw == 1 || kw == 2);
        let wo = w / kw;
        let ho = dst.len() / wo.max(1);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let wo8 = wo & !7;
        for oy in 0..ho {
            let row0 = oy * kh * w;
            let mut ox = 0usize;
            while ox < wo8 {
                let mut acc = if kw == 2 {
                    pairmax_f32(sp.add(row0 + 2 * ox))
                } else {
                    _mm256_loadu_ps(sp.add(row0 + ox))
                };
                for ky in 1..kh {
                    let row = row0 + ky * w;
                    let v = if kw == 2 {
                        pairmax_f32(sp.add(row + 2 * ox))
                    } else {
                        _mm256_loadu_ps(sp.add(row + ox))
                    };
                    acc = fold_gt(acc, v);
                }
                _mm256_storeu_ps(dp.add(oy * wo + ox), acc);
                ox += 8;
            }
            for ox in wo8..wo {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let v = *sp.add(row0 + ky * w + ox * kw + kx);
                        if v > best {
                            best = v;
                        }
                    }
                }
                *dp.add(oy * wo + ox) = best;
            }
        }
    }

    /// Train-mode f32 forward for `kw == 1`: blends an i32 offset register
    /// alongside the value register, so values *and* argmax offsets match
    /// the spec bitwise.
    ///
    /// # Safety
    ///
    /// Requires avx2 and `src`/`dst`/`arg` matching the pool geometry;
    /// plane offsets must fit in i32 (asserted).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn maxpool_f32_argmax_kw1(
        src: &[f32],
        _h: usize,
        w: usize,
        kh: usize,
        dst: &mut [f32],
        arg: &mut [usize],
    ) {
        assert!(src.len() <= i32::MAX as usize, "plane offsets must fit i32");
        let wo = w;
        let ho = dst.len() / wo.max(1);
        let sp = src.as_ptr();
        let wo8 = wo & !7;
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut lanes = [0i32; 8];
        for oy in 0..ho {
            let row0 = oy * kh * w;
            let mut ox = 0usize;
            while ox < wo8 {
                let mut acc = _mm256_loadu_ps(sp.add(row0 + ox));
                let mut idx = _mm256_add_epi32(_mm256_set1_epi32((row0 + ox) as i32), iota);
                for ky in 1..kh {
                    let off = row0 + ky * w + ox;
                    let v = _mm256_loadu_ps(sp.add(off));
                    let m = _mm256_cmp_ps(v, acc, _CMP_GT_OQ);
                    acc = _mm256_blendv_ps(acc, v, m);
                    let cand = _mm256_add_epi32(_mm256_set1_epi32(off as i32), iota);
                    idx = _mm256_blendv_epi8(idx, cand, _mm256_castps_si256(m));
                }
                _mm256_storeu_ps(dst.as_mut_ptr().add(oy * wo + ox), acc);
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, idx);
                for (l, &v) in lanes.iter().enumerate() {
                    arg[oy * wo + ox + l] = v as usize;
                }
                ox += 8;
            }
            for ox in wo8..wo {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0usize;
                for ky in 0..kh {
                    let off = row0 + ky * w + ox;
                    let v = *sp.add(off);
                    if v > best {
                        best = v;
                        best_off = off;
                    }
                }
                dst[oy * wo + ox] = best;
                arg[oy * wo + ox] = best_off;
            }
        }
    }

    /// An integer element in 256-bit vectors: its lane count, lane-wise
    /// max, and the pair max of `2 * LANES` consecutive elements.
    pub(super) trait Lanes: super::PoolInt {
        const LANES: usize;

        /// Lane-wise max.
        ///
        /// # Safety
        ///
        /// Requires avx2.
        unsafe fn max_lanes(a: __m256i, b: __m256i) -> __m256i;

        /// Left-column pair max of the `LANES` adjacent pairs in `v0` then
        /// `v1`, in output order. Integer max — no tie ambiguity to
        /// preserve.
        ///
        /// # Safety
        ///
        /// Requires avx2.
        unsafe fn pairmax(v0: __m256i, v1: __m256i) -> __m256i;
    }

    impl Lanes for i16 {
        const LANES: usize = 16;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn max_lanes(a: __m256i, b: __m256i) -> __m256i {
            _mm256_max_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn pairmax(v0: __m256i, v1: __m256i) -> __m256i {
            // pair max lands in the low 16 bits of each i32 lane (the high
            // half compares against a zero-shifted-in value and is
            // discarded)
            let m0 = _mm256_max_epi16(v0, _mm256_srli_epi32(v0, 16));
            let m1 = _mm256_max_epi16(v1, _mm256_srli_epi32(v1, 16));
            // sign-extend the low halves and re-pack; values are genuine
            // i16 so the pack saturation never fires
            let e0 = _mm256_srai_epi32(_mm256_slli_epi32(m0, 16), 16);
            let e1 = _mm256_srai_epi32(_mm256_slli_epi32(m1, 16), 16);
            let packed = _mm256_packs_epi32(e0, e1);
            _mm256_permute4x64_epi64(packed, 0b11_01_10_00)
        }
    }

    impl Lanes for i8 {
        const LANES: usize = 32;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn max_lanes(a: __m256i, b: __m256i) -> __m256i {
            _mm256_max_epi8(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn pairmax(v0: __m256i, v1: __m256i) -> __m256i {
            // the i16 body one lane width down: pair max in the low byte
            // of each i16 lane, sign-extended and re-packed
            let m0 = _mm256_max_epi8(v0, _mm256_srli_epi16(v0, 8));
            let m1 = _mm256_max_epi8(v1, _mm256_srli_epi16(v1, 8));
            let e0 = _mm256_srai_epi16(_mm256_slli_epi16(m0, 8), 8);
            let e1 = _mm256_srai_epi16(_mm256_slli_epi16(m1, 8), 8);
            let packed = _mm256_packs_epi16(e0, e1);
            _mm256_permute4x64_epi64(packed, 0b11_01_10_00)
        }
    }

    /// Integer forward for `kw == 1` / `kw == 2`, i16 or i8: rows fold
    /// with the lane-wise max (order-free), pairs collapse once at the
    /// end for `kw == 2`; output columns past the last whole vector take
    /// the scalar tail.
    ///
    /// # Safety
    ///
    /// Requires avx2 and `src`/`dst` matching the pool geometry.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn maxpool_int<T: Lanes>(
        src: &[T],
        _h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        dst: &mut [T],
    ) {
        debug_assert!(kw == 1 || kw == 2);
        let wo = w / kw;
        let ho = dst.len() / wo.max(1);
        let sp = src.as_ptr();
        let load = |off: usize| _mm256_loadu_si256(sp.add(off) as *const __m256i);
        let lanes = T::LANES;
        let wov = wo - wo % lanes;
        for oy in 0..ho {
            let row0 = oy * kh * w;
            let mut ox = 0usize;
            while ox < wov {
                let (mut a0, mut a1) = if kw == 2 {
                    (load(row0 + 2 * ox), load(row0 + 2 * ox + lanes))
                } else {
                    (load(row0 + ox), _mm256_setzero_si256())
                };
                for ky in 1..kh {
                    let row = row0 + ky * w;
                    if kw == 2 {
                        a0 = T::max_lanes(a0, load(row + 2 * ox));
                        a1 = T::max_lanes(a1, load(row + 2 * ox + lanes));
                    } else {
                        a0 = T::max_lanes(a0, load(row + ox));
                    }
                }
                let out = if kw == 2 { T::pairmax(a0, a1) } else { a0 };
                _mm256_storeu_si256(dst.as_mut_ptr().add(oy * wo + ox) as *mut __m256i, out);
                ox += lanes;
            }
            for ox in wov..wo {
                let mut best = T::MIN;
                for ky in 0..kh {
                    for kx in 0..kw {
                        best = best.max(*sp.add(row0 + ky * w + ox * kw + kx));
                    }
                }
                dst[oy * wo + ox] = best;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_f32(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as i64 * 2_654_435_761 % 1000) - 500) as f32 / 64.0).collect()
    }

    #[test]
    fn scalar_spec_matches_hand_windows() {
        // 4x4 plane, 2x2 windows
        #[rustfmt::skip]
        let src = [
            1.0, 5.0, -2.0, 0.0,
            3.0, 4.0,  7.0, 1.0,
            0.0, 0.0,  9.0, 8.0,
            2.0, 1.0,  6.0, 6.5,
        ];
        let mut dst = [0f32; 4];
        maxpool2d_f32_scalar(&src, 4, 4, 2, 2, &mut dst);
        assert_eq!(dst, [5.0, 7.0, 2.0, 9.0]);
    }

    #[test]
    fn argmax_records_first_winner_and_backward_routes_there() {
        let src = [2.0f32, 2.0, 1.0, 0.0]; // tie: first element wins
        let mut dst = [0f32; 1];
        let mut arg = [0usize; 1];
        maxpool2d_f32_argmax_scalar(&src, 2, 2, 2, 2, &mut dst, &mut arg);
        assert_eq!((dst[0], arg[0]), (2.0, 0));
        let mut gx = [0f32; 4];
        maxpool2d_backward_f32(&arg, &[3.5], &mut gx);
        assert_eq!(gx, [3.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn signed_zero_ties_keep_the_first_bits() {
        let src = [-0.0f32, 0.0, -1.0, -2.0];
        let mut dst = [0f32; 1];
        maxpool2d_f32_scalar(&src, 2, 2, 2, 2, &mut dst);
        assert_eq!(dst[0].to_bits(), (-0.0f32).to_bits(), "first max wins ties bitwise");
        // dispatched entry agrees at the current level
        let mut dst2 = [0f32; 1];
        maxpool2d_f32(&src, 2, 2, 2, 2, &mut dst2);
        assert_eq!(dst[0].to_bits(), dst2[0].to_bits());
    }

    #[test]
    fn one_d_canonicalization_is_the_same_sequence() {
        let src = plane_f32(12);
        let mut a = vec![0f32; 6];
        let mut b = vec![0f32; 6];
        maxpool2d_f32_scalar(&src, 12, 1, 2, 1, &mut a);
        maxpool2d_f32(&src, 12, 1, 2, 1, &mut b);
        assert_eq!(a, b);
        let mut arg_a = vec![0usize; 6];
        let mut arg_b = vec![0usize; 6];
        maxpool2d_f32_argmax_scalar(&src, 12, 1, 2, 1, &mut a, &mut arg_a);
        maxpool2d_f32_argmax(&src, 12, 1, 2, 1, &mut b, &mut arg_b);
        assert_eq!((a, arg_a), (b, arg_b));
    }

    #[test]
    fn odd_tails_are_ignored() {
        // 5x5 with 2x2 windows: row 4 and column 4 never participate
        let mut src = vec![0f32; 25];
        src[24] = 100.0;
        src[0] = 1.0;
        let mut dst = vec![0f32; 4];
        maxpool2d_f32_scalar(&src, 5, 5, 2, 2, &mut dst);
        assert_eq!(dst, [1.0, 0.0, 0.0, 0.0]);
        let mut dst_i = vec![0i16; 4];
        let src_i: Vec<i16> = src.iter().map(|&v| v as i16).collect();
        maxpool2d_i16_scalar(&src_i, 5, 5, 2, 2, &mut dst_i);
        assert_eq!(dst_i, [1, 0, 0, 0]);
    }

    #[test]
    fn i16_and_i8_pools_agree_with_f32_on_integral_data() {
        let src_i: Vec<i16> = (0..64).map(|i| ((i * 37) % 200 - 100) as i16).collect();
        let src_f: Vec<f32> = src_i.iter().map(|&v| v as f32).collect();
        let src_b: Vec<i8> = src_i.iter().map(|&v| (v / 2) as i8).collect();
        for &(kh, kw) in &[(2usize, 2usize), (2, 1), (1, 2), (4, 2)] {
            let (ho, wo) = (8 / kh, 8 / kw);
            let mut di = vec![0i16; ho * wo];
            let mut df = vec![0f32; ho * wo];
            let mut db = vec![0i8; ho * wo];
            maxpool2d_i16(&src_i, 8, 8, kh, kw, &mut di);
            maxpool2d_f32(&src_f, 8, 8, kh, kw, &mut df);
            maxpool2d_i8(&src_b, 8, 8, kh, kw, &mut db);
            for j in 0..ho * wo {
                assert_eq!(di[j] as f32, df[j], "{kh}x{kw} at {j}");
                let mut expect = i8::MIN;
                for ky in 0..kh {
                    for kx in 0..kw {
                        expect = expect.max(src_b[((j / wo) * kh + ky) * 8 + (j % wo) * kw + kx]);
                    }
                }
                assert_eq!(db[j], expect, "{kh}x{kw} at {j}");
            }
        }
    }

    #[test]
    fn i8_vector_body_matches_scalar_spec_on_wide_planes() {
        // full i8 range; widths with whole 32-lane vectors, a tail, and a
        // 1-D plane that canonicalizes onto the pair path
        let src: Vec<i8> =
            (0..6 * 140).map(|i| (i as i64 * 2_654_435_761 % 256) as u8 as i8).collect();
        for &(h, w, kh, kw) in
            &[(4usize, 64usize, 2usize, 2usize), (6, 70, 3, 2), (5, 40, 2, 1), (130, 1, 2, 1)]
        {
            let (ho, wo) = (h / kh, w / kw);
            let mut spec = vec![0i8; ho * wo];
            maxpool2d_i8_scalar(&src[..h * w], h, w, kh, kw, &mut spec);
            let mut got = vec![0i8; ho * wo];
            maxpool2d_i8(&src[..h * w], h, w, kh, kw, &mut got);
            assert_eq!(got, spec, "{h}x{w} pooled {kh}x{kw}");
            #[cfg(target_arch = "x86_64")]
            if crate::simd::avx2_supported() {
                let (ch, cw, ckh, ckw) = canonical(h, w, kh, kw);
                let mut simd = vec![0i8; ho * wo];
                unsafe { avx2::maxpool_int(&src[..h * w], ch, cw, ckh, ckw, &mut simd) };
                assert_eq!(simd, spec, "avx2 {h}x{w} pooled {kh}x{kw}");
            }
        }
    }

    #[test]
    fn global_avg_rounds_half_away_from_zero_within_range() {
        assert_eq!(global_avg_int(&[1i16, 2]), 2);
        assert_eq!(global_avg_int(&[-1i16, -2]), -2);
        assert_eq!(global_avg_int(&[1i16, 1, 2]), 1);
        assert_eq!(global_avg_int(&[i16::MAX; 3]), i16::MAX);
        assert_eq!(global_avg_int(&[i16::MIN; 3]), i16::MIN);
        assert_eq!(global_avg_int(&[i8::MIN, i8::MIN, i8::MAX]), -43);
    }
}
