//! Runtime-dispatched AVX2/FMA kernel bodies for the hot GEMM loops.
//!
//! The scalar specs of the f32 GEMM primitives in [`crate::matmul`] remain
//! the executable specification — bit-identical to the original reference
//! loops, tested bitwise. This module adds explicit `core::arch` x86-64
//! SIMD bodies for those primitives behind a process-wide dispatch level
//! ([`simd_level`]): auto-detected via `is_x86_feature_detected!("avx2")` +
//! `"fma"`, overridable with `IPRUNE_SIMD=0` (force scalar) / `IPRUNE_SIMD=1`
//! (SIMD when available) or programmatically with [`set_simd_level`].
//!
//! # Numerical contract
//!
//! The SIMD f32 kernels are **ULP-bounded, not bitwise**, against the scalar
//! spec: fused multiply-adds round once per product instead of twice, and
//! the dot-product kernels accumulate in eight partial lanes. They are
//! **branchless** — the scalar per-element zero-skip is dropped (skipping a
//! `±0.0` product is arithmetically a no-op on finite data, so only timing
//! changes; structured sparsity is the job of the BSR kernels). Inputs must
//! be finite: `0 × inf` would produce NaN where the skipping scalar spec
//! produces none. The training pipeline only feeds finite data.
//!
//! # Per-element operation contract (dense ≡ sparse under SIMD)
//!
//! The rest of the workspace relies on the block-sparse GEMM forms being
//! bit-identical to the dense calls on masked weights. That invariant is
//! preserved *within* the SIMD level by fixing, per output element, the
//! exact operation schedule — shared by the dense call and every sparse
//! form:
//!
//! - **axpy family** (`acc`, `at_b`): with `n8 = n - n % 8`, element
//!   `(i, j)` with `j < n8` is an FMA chain over ascending reduction index
//!   `p`; elements with `j >= n8` use separate multiply-then-add. The chain
//!   may round-trip through memory between block rows — that does not
//!   change the arithmetic. The dense `acc` and `at_b` calls run the
//!   lhs-sparse and output-sparse bodies with one full strip per block row.
//! - **dot family** (`a_bt`): with `k8 = k - k % 8`, the reduction is eight
//!   FMA lanes over 8-aligned chunks of `p < k8` (lane = `p % 8`), reduced
//!   by the fixed `avx2::hsum8` tree, plus a scalar multiply-add tail over
//!   `p >= k8`; the element update is `c += hsum + tail`. One body walks
//!   the dense, rhs-sparse and output-sparse forms.
//!
//! A sparse form that skips a dead block elides only `±0.0` products —
//! bitwise no-ops on chains that never hold `-0.0` (guaranteed by the
//! finite-data / zero-initialized-buffer contract documented in
//! [`crate::matmul`]) — and, because the default host block width (16) is a
//! multiple of the 8-float lane width, alive strips preserve absolute lane
//! positions. Hence forced-SIMD dense and forced-SIMD sparse agree bit for
//! bit on pipeline data, at any thread count. (With non-default block
//! shapes whose width is not a multiple of 8 the sparse results are still
//! correct, merely not bit-equal to dense SIMD.)
//!
//! # Q15 integer GEMM
//!
//! [`q15_dot_i64`]'s SIMD counterpart in [`crate::qgemm`] uses
//! `_mm256_madd_epi16` (pairwise i16×i16→i32) widened to i64. Integer
//! addition is associative, so the SIMD variant is **exactly** equal to the
//! scalar spec provided one operand never holds `i16::MIN` (then no i32
//! pair can wrap); quantized weights produced by
//! [`crate::quant::QFormat::for_max_abs`] satisfy this by construction.
//! The device engine's block kernel ([`crate::qgemm::q15_block_acc`]) uses
//! the same pair sum over two reduction columns of one weight block, under
//! the same precondition on the block.
//!
//! # Q8 integer GEMM
//!
//! [`q8_dot_i32`]'s SIMD counterpart sign-extends i8 lanes to i16
//! (`_mm256_cvtepi8_epi16`) and accumulates `_mm256_madd_epi16` pair sums
//! in **wrapping** i32 lanes. Every pair sum is exact (≤ 2·2¹⁴) and
//! wrapping addition is associative and commutative mod 2³², so the SIMD
//! body equals the scalar spec for **all** inputs — the Q8 tier needs no
//! operand precondition at all. The Q8 block kernel
//! ([`crate::qgemm::q8_block_acc`]) pairs two reduction columns the same
//! way and inherits the same unconditional contract.

use std::sync::atomic::{AtomicU8, Ordering};

/// Effective kernel dispatch level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar register-blocked kernels (the executable spec).
    Scalar,
    /// AVX2 + FMA explicit-SIMD kernels.
    Avx2,
}

/// Process-wide dispatch level (0 = scalar, 1 = AVX2), seeded from
/// `IPRUNE_SIMD` and CPU detection on first use.
static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

/// Whether this CPU supports the AVX2+FMA kernel bodies.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn level_bits(l: SimdLevel) -> u8 {
    match l {
        SimdLevel::Scalar => 0,
        SimdLevel::Avx2 => 1,
    }
}

/// Parses an `IPRUNE_SIMD` value: `Ok(false)` forces scalar, `Ok(true)`
/// requests SIMD (the default when unset). Anything else is `Err` — the
/// caller warns once and keeps the default rather than silently degrading.
fn parse_simd_env(val: Option<&str>) -> Result<bool, ()> {
    match val {
        None | Some("1") => Ok(true),
        Some("0") => Ok(false),
        Some(_) => Err(()),
    }
}

/// The current dispatch level. First call seeds it: `IPRUNE_SIMD=0` forces
/// scalar; `IPRUNE_SIMD=1` or unset selects AVX2 when the CPU supports it
/// (there is no way to force SIMD onto a CPU that lacks it — `1` on such a
/// host degrades to scalar, which the bench records as the effective
/// level). An unrecognized value keeps the auto-detected default and warns
/// once on stderr instead of silently falling back to scalar.
pub fn simd_level() -> SimdLevel {
    let bits = LEVEL.load(Ordering::Relaxed);
    if bits == u8::MAX {
        let env = std::env::var("IPRUNE_SIMD").ok();
        let want = parse_simd_env(env.as_deref()).unwrap_or_else(|()| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: unrecognized IPRUNE_SIMD value {:?} (expected \"0\" or \"1\"); \
                     keeping the auto-detected kernel dispatch level",
                    env.as_deref().unwrap_or("")
                );
            });
            true
        });
        let initial = if want && avx2_supported() { SimdLevel::Avx2 } else { SimdLevel::Scalar };
        // racing first calls agree on the env-derived value
        LEVEL.store(level_bits(initial), Ordering::Relaxed);
        return initial;
    }
    if bits == 1 {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// Sets the process-wide dispatch level.
///
/// # Panics
///
/// Panics when asked for [`SimdLevel::Avx2`] on a CPU without AVX2+FMA —
/// callers probing both levels should gate on [`avx2_supported`].
pub fn set_simd_level(level: SimdLevel) {
    assert!(
        level != SimdLevel::Avx2 || avx2_supported(),
        "cannot force the AVX2 kernel path: CPU lacks avx2+fma"
    );
    LEVEL.store(level_bits(level), Ordering::Relaxed);
}

/// f32 lanes per vector operation at the current dispatch level.
pub fn lane_width() -> usize {
    match simd_level() {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 8,
    }
}

/// Stable label of the current dispatch level for bench/CI records.
pub fn dispatch_label() -> &'static str {
    match simd_level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 => "avx2",
    }
}

/// Scalar Q15 dot product in device arithmetic: every i16×i16 product is
/// widened to i64 before accumulation, matching the simulated accelerator's
/// accumulator exactly (and, per the module docs, the `madd`-based SIMD
/// variant whenever one operand avoids `i16::MIN`).
#[inline]
pub fn q15_dot_i64(a: &[i16], b: &[i16]) -> i64 {
    let mut acc = 0i64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += (x as i32 * y as i32) as i64;
    }
    acc
}

/// Scalar Q8 dot product: i8×i8 products in a **wrapping** i32
/// accumulator. Wrapping two's-complement addition is associative and
/// commutative mod 2³², so any reassociation — in particular the
/// lane-parallel SIMD body — is exactly equal for **all** inputs, with no
/// operand precondition (unlike the Q15 kernel). In practice the
/// accumulator never wraps on model data: `k` products of magnitude
/// ≤ 2¹⁴ stay far below 2³¹ for every layer in the zoo.
#[inline]
pub fn q8_dot_i32(a: &[i8], b: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc = acc.wrapping_add(x as i32 * y as i32);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    //! The AVX2/FMA kernel bodies. Every `unsafe fn` here requires
    //! `avx2`+`fma` (checked by the dispatchers before any call) and
    //! in-bounds slice geometry (asserted by the public kernel entries).
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// One reduction range list: ascending, disjoint `(p0, p1)` cell
    /// ranges. Dense calls pass a single `(0, k)`; sparse forms pass the
    /// coalesced alive strips of a block row.
    pub(crate) type Segs<'a> = &'a [(usize, usize)];

    /// Fixed 8-lane horizontal-sum tree:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum8(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s3 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01));
        _mm_cvtss_f32(s3)
    }

    // -----------------------------------------------------------------
    // axpy family: c[i][j] updated in ascending-p FMA chains (vector
    // region j < n8) / multiply-add chains (scalar tail j >= n8).
    // -----------------------------------------------------------------

    /// Updates `rows_g` (1..=4) output rows at columns `[j0, j1)`; the
    /// left-operand value for output row `r` and reduction index `p` is
    /// `a[a_base + r*a_rstride + p*a_pstride]`, and `c_row0` is the first
    /// updated row inside `c`. The reduction runs over `segs`.
    ///
    /// This is the shared body of `matmul_acc` (`a[m][k]`: rstride `k`,
    /// pstride 1, reduction strips of a sparse `a`) and `matmul_at_b`
    /// (`a[k][m]` traversed transposed: rstride 1, pstride `m`; block-row
    /// `p` ranges of a sparse `a`, or alive column strips of a sparse
    /// output). Columns `[j0, jv)` run in whole 8-lane vectors; the rest,
    /// the `j >= n8` tail and the sub-lane edge of a strip whose width is
    /// not a multiple of 8, take multiply-then-add chains.
    ///
    /// # Safety
    ///
    /// Requires avx2+fma; `a_base + r*a_rstride + p*a_pstride` must be in
    /// bounds for `r < rows_g` and every `p` in `segs`; `b` must hold
    /// `p*n + n` elements for every such `p`; `c` must hold
    /// `(c_row0 + rows_g) * n` elements; `j0 <= j1 <= n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn axpy_rows(
        a: &[f32],
        a_base: usize,
        a_rstride: usize,
        a_pstride: usize,
        rows_g: usize,
        b: &[f32],
        c: &mut [f32],
        c_row0: usize,
        n: usize,
        segs: Segs,
        (j0, j1): (usize, usize),
    ) {
        debug_assert!((1..=4).contains(&rows_g));
        let n8 = n & !7;
        // end of the whole 8-lane vectors from j0
        let jv = j0 + (j1.min(n8).saturating_sub(j0) & !7);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        if rows_g == 4 {
            // 4 x 16 register tile: eight FMA chains resident across the
            // whole reduction, two b loads + four broadcasts per p.
            let mut jp = j0;
            while jp + 16 <= jv {
                let mut acc = [_mm256_setzero_ps(); 8];
                for r in 0..4 {
                    acc[2 * r] = _mm256_loadu_ps(cp.add((c_row0 + r) * n + jp));
                    acc[2 * r + 1] = _mm256_loadu_ps(cp.add((c_row0 + r) * n + jp + 8));
                }
                for &(p0, p1) in segs {
                    for p in p0..p1 {
                        let b0 = _mm256_loadu_ps(bp.add(p * n + jp));
                        let b1 = _mm256_loadu_ps(bp.add(p * n + jp + 8));
                        for r in 0..4 {
                            let av =
                                _mm256_set1_ps(*ap.add(a_base + r * a_rstride + p * a_pstride));
                            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                        }
                    }
                }
                for r in 0..4 {
                    _mm256_storeu_ps(cp.add((c_row0 + r) * n + jp), acc[2 * r]);
                    _mm256_storeu_ps(cp.add((c_row0 + r) * n + jp + 8), acc[2 * r + 1]);
                }
                jp += 16;
            }
            if jp < jv {
                let mut acc = [_mm256_setzero_ps(); 4];
                for (r, accr) in acc.iter_mut().enumerate() {
                    *accr = _mm256_loadu_ps(cp.add((c_row0 + r) * n + jp));
                }
                for &(p0, p1) in segs {
                    for p in p0..p1 {
                        let b0 = _mm256_loadu_ps(bp.add(p * n + jp));
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av =
                                _mm256_set1_ps(*ap.add(a_base + r * a_rstride + p * a_pstride));
                            *accr = _mm256_fmadd_ps(av, b0, *accr);
                        }
                    }
                }
                for (r, &accr) in acc.iter().enumerate() {
                    _mm256_storeu_ps(cp.add((c_row0 + r) * n + jp), accr);
                }
            }
        } else {
            // edge rows: same chains, one row at a time
            for r in 0..rows_g {
                let mut jp = j0;
                while jp < jv {
                    let mut acc = _mm256_loadu_ps(cp.add((c_row0 + r) * n + jp));
                    for &(p0, p1) in segs {
                        for p in p0..p1 {
                            let av =
                                _mm256_set1_ps(*ap.add(a_base + r * a_rstride + p * a_pstride));
                            acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(p * n + jp)), acc);
                        }
                    }
                    _mm256_storeu_ps(cp.add((c_row0 + r) * n + jp), acc);
                    jp += 8;
                }
            }
        }
        // the remaining columns: separate multiply-then-add chains
        for r in 0..rows_g {
            for j in jv..j1 {
                let mut t = *cp.add((c_row0 + r) * n + j);
                for &(p0, p1) in segs {
                    for p in p0..p1 {
                        t += *ap.add(a_base + r * a_rstride + p * a_pstride) * *bp.add(p * n + j);
                    }
                }
                *cp.add((c_row0 + r) * n + j) = t;
            }
        }
    }

    /// axpy-family update of one output row by one left value `av`,
    /// restricted to columns `[j0, j1)`: vector FMA for whole lanes below
    /// `n8`, multiply-add for the sub-lane edge (only reachable for block
    /// widths that are not a multiple of 8) and the `j >= n8` tail,
    /// matching [`axpy_rows`]'s per-element schedule. The body of the
    /// rhs-sparse `matmul_acc`, whose index restricts each `b` row's
    /// columns.
    ///
    /// # Safety
    ///
    /// Requires avx2+fma; `b_row` must hold `c_row.len()` elements and
    /// `j0 <= j1 <= c_row.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn axpy_cols(
        av: f32,
        b_row: &[f32],
        c_row: &mut [f32],
        (j0, j1): (usize, usize),
    ) {
        let n8 = c_row.len() & !7;
        let vend = j1.min(n8);
        let (b_row, c_row) = (b_row.as_ptr(), c_row.as_mut_ptr());
        let avv = _mm256_set1_ps(av);
        let mut j = j0;
        while j + 8 <= vend {
            let cv = _mm256_loadu_ps(c_row.add(j));
            _mm256_storeu_ps(c_row.add(j), _mm256_fmadd_ps(avv, _mm256_loadu_ps(b_row.add(j)), cv));
            j += 8;
        }
        // sub-lane remainder inside the vector region (only reachable for
        // non-8-multiple block widths) and the true scalar tail
        while j < vend {
            *c_row.add(j) += av * *b_row.add(j);
            j += 1;
        }
        for j in j0.max(n8)..j1 {
            *c_row.add(j) += av * *b_row.add(j);
        }
    }

    // -----------------------------------------------------------------
    // dot family: c[i][j] += hsum8(lanes over 8-chunks of p) + scalar tail.
    // -----------------------------------------------------------------

    /// One dot-family element: reduction of `a_row · b_row` over `segs`
    /// with the fixed lane/tail schedule (`k8` = end of the vector
    /// region).
    ///
    /// # Safety
    ///
    /// Requires avx2+fma; both rows must hold `p1` elements for every
    /// segment.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_one(a_row: *const f32, b_row: *const f32, segs: Segs, k8: usize) -> f32 {
        let mut acc = _mm256_setzero_ps();
        let mut tail = 0.0f32;
        for &(p0, p1) in segs {
            let vend = p1.min(k8);
            let mut p = p0;
            while p + 8 <= vend {
                acc = _mm256_fmadd_ps(
                    _mm256_loadu_ps(a_row.add(p)),
                    _mm256_loadu_ps(b_row.add(p)),
                    acc,
                );
                p += 8;
            }
            while p < vend {
                tail += *a_row.add(p) * *b_row.add(p);
                p += 1;
            }
            for p in p0.max(k8)..p1 {
                tail += *a_row.add(p) * *b_row.add(p);
            }
        }
        hsum8(acc) + tail
    }

    /// Dot-family tile: `rows_g` (1..=4) a-rows × `cols_g` (1..=2) b-rows,
    /// each element following [`dot_one`]'s schedule; the 4×2 hot shape
    /// keeps eight lane accumulators resident.
    ///
    /// # Safety
    ///
    /// Requires avx2+fma; `a` must hold `(a_row0 + rows_g) * k` elements,
    /// `b` `(b_row0 + cols_g) * k`, and `c` must cover the updated tile.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn dot_tile(
        a: &[f32],
        a_row0: usize,
        rows_g: usize,
        b: &[f32],
        b_row0: usize,
        cols_g: usize,
        k: usize,
        segs: Segs,
        c: &mut [f32],
        c_row0: usize,
        c_col0: usize,
        n: usize,
    ) {
        debug_assert!((1..=4).contains(&rows_g) && (1..=2).contains(&cols_g));
        let k8 = k & !7;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        if rows_g == 4 && cols_g == 2 {
            let b0 = bp.add(b_row0 * k);
            let b1 = bp.add((b_row0 + 1) * k);
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut tail = [0.0f32; 8];
            for &(p0, p1) in segs {
                let vend = p1.min(k8);
                let mut p = p0;
                while p + 8 <= vend {
                    let vb0 = _mm256_loadu_ps(b0.add(p));
                    let vb1 = _mm256_loadu_ps(b1.add(p));
                    for r in 0..4 {
                        let va = _mm256_loadu_ps(ap.add((a_row0 + r) * k + p));
                        acc[2 * r] = _mm256_fmadd_ps(va, vb0, acc[2 * r]);
                        acc[2 * r + 1] = _mm256_fmadd_ps(va, vb1, acc[2 * r + 1]);
                    }
                    p += 8;
                }
                while p < vend {
                    for r in 0..4 {
                        let av = *ap.add((a_row0 + r) * k + p);
                        tail[2 * r] += av * *b0.add(p);
                        tail[2 * r + 1] += av * *b1.add(p);
                    }
                    p += 1;
                }
                for p in p0.max(k8)..p1 {
                    for r in 0..4 {
                        let av = *ap.add((a_row0 + r) * k + p);
                        tail[2 * r] += av * *b0.add(p);
                        tail[2 * r + 1] += av * *b1.add(p);
                    }
                }
            }
            for r in 0..4 {
                for cj in 0..2 {
                    *cp.add((c_row0 + r) * n + c_col0 + cj) +=
                        hsum8(acc[2 * r + cj]) + tail[2 * r + cj];
                }
            }
        } else {
            for r in 0..rows_g {
                for cj in 0..cols_g {
                    *cp.add((c_row0 + r) * n + c_col0 + cj) +=
                        dot_one(ap.add((a_row0 + r) * k), bp.add((b_row0 + cj) * k), segs, k8);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Q15 integer GEMM body.
    // -----------------------------------------------------------------

    /// Q15 dot product via `_mm256_madd_epi16`: 16 i16 lanes per step,
    /// pairwise i32 products widened to four i64 lanes, scalar tail for
    /// `k % 16`. Exactly equal to [`super::q15_dot_i64`] whenever one
    /// operand is free of `i16::MIN` (see module docs).
    ///
    /// # Safety
    ///
    /// Requires avx2; both slices must hold `k` elements.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn q15_dot(a: *const i16, b: *const i16, k: usize) -> i64 {
        let k16 = k & !15;
        let mut acc_lo = _mm256_setzero_si256();
        let mut acc_hi = _mm256_setzero_si256();
        let mut p = 0usize;
        while p + 16 <= k16 {
            let va = _mm256_loadu_si256(a.add(p) as *const __m256i);
            let vb = _mm256_loadu_si256(b.add(p) as *const __m256i);
            let prod = _mm256_madd_epi16(va, vb); // 8 x i32 pair sums
            acc_lo = _mm256_add_epi64(acc_lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod)));
            acc_hi =
                _mm256_add_epi64(acc_hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(prod, 1)));
            p += 16;
        }
        let sum = _mm256_add_epi64(acc_lo, acc_hi);
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, sum);
        let mut acc = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for q in k16..k {
            acc += (*a.add(q) as i32 * *b.add(q) as i32) as i64;
        }
        acc
    }

    /// Two weights `(w0, w1)` as the i32 lane pattern `_mm256_madd_epi16`
    /// pairs against interleaved `(x0[s], x1[s])` activations.
    #[inline]
    fn weight_pair(w0: i16, w1: i16) -> i32 {
        (w0 as u16 as u32 | (w1 as u16 as u32) << 16) as i32
    }

    /// Q15 block accumulate, one device-engine accelerator job:
    /// `acc[r*s_len + s] += Σ_{c<cols} block[r*bc + c] * x[c*s_len + s]`.
    /// Reduction columns go in pairs: the two weights broadcast as one i32
    /// lane pattern, the two `x` rows interleaved by `unpack{lo,hi}_epi16`,
    /// so one `_mm256_madd_epi16` yields `w0*x0[s] + w1*x1[s]` per position,
    /// which is exact in i32 when the block holds no `i16::MIN` (see module
    /// docs). Each pair sum is widened to i64 and added to sixteen
    /// register-resident accumulators per row; an odd last column pairs
    /// with a zero weight, and an all-zero pair is skipped. Positions past
    /// the last multiple of 16 take the scalar tail.
    /// Exactly equal to `qgemm::q15_block_acc_scalar` under that
    /// precondition: every product lands in the same i64 sum.
    ///
    /// # Safety
    ///
    /// Requires avx2; `block` must hold `(rows - 1) * bc + cols` elements,
    /// `x` `cols * s_len`, and `acc` `rows * s_len`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn q15_block_acc(
        block: *const i16,
        x: *const i16,
        acc: *mut i64,
        rows: usize,
        cols: usize,
        s_len: usize,
        bc: usize,
    ) {
        let s16 = s_len & !15;
        for r in 0..rows {
            let w = block.add(r * bc);
            let a = acc.add(r * s_len);
            // column pairs (c, c + 1); an odd last column pairs with itself
            // under a zero second weight
            let pair = |c: usize| {
                let c1 = if c + 1 < cols { c + 1 } else { c };
                let w1 = if c + 1 < cols { *w.add(c + 1) } else { 0 };
                (*w.add(c), w1, x.add(c * s_len), x.add(c1 * s_len))
            };
            for s in (0..s16).step_by(16) {
                let mut v = [
                    _mm256_loadu_si256(a.add(s) as *const __m256i),
                    _mm256_loadu_si256(a.add(s + 4) as *const __m256i),
                    _mm256_loadu_si256(a.add(s + 8) as *const __m256i),
                    _mm256_loadu_si256(a.add(s + 12) as *const __m256i),
                ];
                for c in (0..cols).step_by(2) {
                    let (w0, w1, x0, x1) = pair(c);
                    if w0 == 0 && w1 == 0 {
                        continue;
                    }
                    let wp = _mm256_set1_epi32(weight_pair(w0, w1));
                    let xa = _mm256_loadu_si256(x0.add(s) as *const __m256i);
                    let xb = _mm256_loadu_si256(x1.add(s) as *const __m256i);
                    // i32 sums: lo = s0..3 | s8..11, hi = s4..7 | s12..15
                    let lo = _mm256_madd_epi16(_mm256_unpacklo_epi16(xa, xb), wp);
                    let hi = _mm256_madd_epi16(_mm256_unpackhi_epi16(xa, xb), wp);
                    let (lo_a, lo_b) =
                        (_mm256_castsi256_si128(lo), _mm256_extracti128_si256(lo, 1));
                    let (hi_a, hi_b) =
                        (_mm256_castsi256_si128(hi), _mm256_extracti128_si256(hi, 1));
                    v[0] = _mm256_add_epi64(v[0], _mm256_cvtepi32_epi64(lo_a));
                    v[1] = _mm256_add_epi64(v[1], _mm256_cvtepi32_epi64(hi_a));
                    v[2] = _mm256_add_epi64(v[2], _mm256_cvtepi32_epi64(lo_b));
                    v[3] = _mm256_add_epi64(v[3], _mm256_cvtepi32_epi64(hi_b));
                }
                for (q, &vq) in v.iter().enumerate() {
                    _mm256_storeu_si256(a.add(s + 4 * q) as *mut __m256i, vq);
                }
            }
            for s in s16..s_len {
                let mut t = *a.add(s);
                for c in 0..cols {
                    t += *w.add(c) as i64 * *x.add(c * s_len + s) as i64;
                }
                *a.add(s) = t;
            }
        }
    }

    // -----------------------------------------------------------------
    // Q8 integer GEMM body.
    // -----------------------------------------------------------------
    /// Q8 block accumulate, the i8 twin of [`q15_block_acc`]:
    /// `acc[r*s_len + s] += Σ_{c<cols} block[r*bc + c] * x[c*s_len + s]` in
    /// wrapping i32. Reduction columns go in pairs: the two `x` rows'
    /// bytes are interleaved by `unpack{lo,hi}_epi8` and sign-extended to
    /// `(x0[s], x1[s])` i16 pairs for 8 positions each, so one
    /// `_mm256_madd_epi16` against the broadcast weight pair yields
    /// `w0*x0[s] + w1*x1[s]` per position, in position order — exact (at
    /// most 2·2¹⁴ in magnitude). The pair sums add into sixteen
    /// register-resident wrapping i32 accumulators per row; an odd last
    /// column pairs with a zero weight, an all-zero pair is skipped, and
    /// positions past the last multiple of 16 take the scalar tail.
    /// Exactly equal to `qgemm::q8_block_acc_scalar` for **all** inputs:
    /// wrapping addition reassociates freely.
    ///
    /// # Safety
    ///
    /// Requires avx2; `block` must hold `(rows - 1) * bc + cols` elements,
    /// `x` `cols * s_len`, and `acc` `rows * s_len`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn q8_block_acc(
        block: *const i8,
        x: *const i8,
        acc: *mut i32,
        rows: usize,
        cols: usize,
        s_len: usize,
        bc: usize,
    ) {
        let s16 = s_len & !15;
        for r in 0..rows {
            let w = block.add(r * bc);
            let a = acc.add(r * s_len);
            let pair = |c: usize| {
                let c1 = if c + 1 < cols { c + 1 } else { c };
                let w1 = if c + 1 < cols { *w.add(c + 1) } else { 0 };
                (*w.add(c), w1, x.add(c * s_len), x.add(c1 * s_len))
            };
            for s in (0..s16).step_by(16) {
                let mut v = [
                    _mm256_loadu_si256(a.add(s) as *const __m256i),
                    _mm256_loadu_si256(a.add(s + 8) as *const __m256i),
                ];
                for c in (0..cols).step_by(2) {
                    let (w0, w1, x0, x1) = pair(c);
                    if w0 == 0 && w1 == 0 {
                        continue;
                    }
                    let wp = _mm256_set1_epi32(weight_pair(w0 as i16, w1 as i16));
                    let xa = _mm_loadu_si128(x0.add(s) as *const __m128i);
                    let xb = _mm_loadu_si128(x1.add(s) as *const __m128i);
                    // (x0[s], x1[s]) pairs for s0..7 and s8..15
                    let lo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(xa, xb));
                    let hi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(xa, xb));
                    v[0] = _mm256_add_epi32(v[0], _mm256_madd_epi16(lo, wp));
                    v[1] = _mm256_add_epi32(v[1], _mm256_madd_epi16(hi, wp));
                }
                _mm256_storeu_si256(a.add(s) as *mut __m256i, v[0]);
                _mm256_storeu_si256(a.add(s + 8) as *mut __m256i, v[1]);
            }
            for s in s16..s_len {
                let mut t = *a.add(s);
                for c in 0..cols {
                    t = t.wrapping_add(*w.add(c) as i32 * *x.add(c * s_len + s) as i32);
                }
                *a.add(s) = t;
            }
        }
    }

    /// Q8 dot product: 32 i8 per load pair, sign-extended halves
    /// (`_mm256_cvtepi8_epi16`) multiplied pairwise into i32 by
    /// `_mm256_madd_epi16` (pair sums ≤ 2·2¹⁴ — never saturate), wrapping
    /// i32 lane accumulation, two independent accumulator sets unrolled
    /// over 64 i8 per iteration. Exactly equal to [`super::q8_dot_i32`]
    /// for **all** inputs: every madd is exact and wrapping i32 addition
    /// reassociates freely. (`_mm256_maddubs_epi16` is rejected for this
    /// kernel — its unsigned×signed pair sums saturate at i16 and would
    /// break the bitwise contract.)
    ///
    /// # Safety
    ///
    /// Requires avx2; both slices must hold `k` elements.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn q8_dot(a: *const i8, b: *const i8, k: usize) -> i32 {
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn madd32(a: *const i8, b: *const i8, acc: __m256i) -> __m256i {
            let va = _mm256_loadu_si256(a as *const __m256i);
            let vb = _mm256_loadu_si256(b as *const __m256i);
            let lo = _mm256_madd_epi16(
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va)),
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb)),
            );
            let hi = _mm256_madd_epi16(
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1)),
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1)),
            );
            _mm256_add_epi32(acc, _mm256_add_epi32(lo, hi))
        }
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut p = 0usize;
        while p + 64 <= k {
            acc0 = madd32(a.add(p), b.add(p), acc0);
            acc1 = madd32(a.add(p + 32), b.add(p + 32), acc1);
            p += 64;
        }
        if p + 32 <= k {
            acc0 = madd32(a.add(p), b.add(p), acc0);
            p += 32;
        }
        let sum = _mm256_add_epi32(acc0, acc1);
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, sum);
        let mut acc = 0i32;
        for &l in &lanes {
            acc = acc.wrapping_add(l);
        }
        for q in p..k {
            acc = acc.wrapping_add(*a.add(q) as i32 * *b.add(q) as i32);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_level_roundtrip() {
        let before = simd_level();
        set_simd_level(SimdLevel::Scalar);
        assert_eq!(simd_level(), SimdLevel::Scalar);
        assert_eq!(lane_width(), 1);
        assert_eq!(dispatch_label(), "scalar");
        if avx2_supported() {
            set_simd_level(SimdLevel::Avx2);
            assert_eq!(simd_level(), SimdLevel::Avx2);
            assert_eq!(lane_width(), 8);
            assert_eq!(dispatch_label(), "avx2");
        }
        set_simd_level(before);
    }

    #[test]
    fn q15_dot_scalar_matches_wide_products() {
        let a = [30000i16, -30000, 12345, -1, 7];
        let b = [30000i16, 30000, -12345, i16::MIN, 3];
        let expect: i64 = a.iter().zip(b.iter()).map(|(&x, &y)| x as i64 * y as i64).sum();
        assert_eq!(q15_dot_i64(&a, &b), expect);
    }

    #[test]
    fn simd_env_values_parse_or_reject() {
        assert_eq!(parse_simd_env(None), Ok(true));
        assert_eq!(parse_simd_env(Some("1")), Ok(true));
        assert_eq!(parse_simd_env(Some("0")), Ok(false));
        assert_eq!(parse_simd_env(Some("2")), Err(()));
        assert_eq!(parse_simd_env(Some("avx2")), Err(()));
        assert_eq!(parse_simd_env(Some("")), Err(()));
    }

    #[test]
    fn q8_dot_scalar_wraps_like_wide_reference() {
        let a = [127i8, -128, 100, -1, 7];
        let b = [127i8, -128, -100, i8::MIN, 3];
        let expect: i64 = a.iter().zip(b.iter()).map(|(&x, &y)| x as i64 * y as i64).sum();
        assert_eq!(q8_dot_i32(&a, &b) as i64, expect, "no wrap at this size");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn q8_dot_avx2_matches_scalar_spec_on_full_range() {
        if !avx2_supported() {
            return;
        }
        // full i8 range on BOTH sides — the Q8 contract has no i8::MIN
        // exclusion (wrapping i32 accumulation reassociates exactly)
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 127, 130, 513] {
            let a: Vec<i8> = (0..len).map(|_| next() as i8).collect();
            let b: Vec<i8> = (0..len).map(|_| next() as i8).collect();
            let expect = q8_dot_i32(&a, &b);
            let got = unsafe { avx2::q8_dot(a.as_ptr(), b.as_ptr(), len) };
            assert_eq!(got, expect, "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn q15_dot_avx2_matches_scalar_spec() {
        if !avx2_supported() {
            return;
        }
        // deterministic operands over the full safe range (one side
        // excludes i16::MIN, the precondition for madd exactness)
        let mut s = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for len in [0usize, 1, 7, 15, 16, 17, 31, 33, 64, 257] {
            let a: Vec<i16> = (0..len)
                .map(|_| ((next() as i32 % 32767).unsigned_abs() as i16).wrapping_sub(16383))
                .collect();
            let b: Vec<i16> = (0..len).map(|_| next() as i16).collect();
            let expect = q15_dot_i64(&a, &b);
            let got = unsafe { avx2::q15_dot(a.as_ptr(), b.as_ptr(), len) };
            assert_eq!(got, expect, "len {len}");
        }
    }
}
