//! Runtime SIMD dispatch: forced-scalar vs forced-AVX2 equivalence.
//!
//! The dense f32 kernels promise ULP-bounded agreement between the scalar
//! spec and the AVX2 bodies (FMA fuses roundings, so bitwise equality is
//! not expected); the block-sparse forms promise *bitwise* agreement with
//! the dense calls under AVX2 on mask-pruned operands (shared per-element
//! operation schedule); and the integer GEMMs and block kernels (the
//! device engine's Q15 block kernel and its Q8 twin, which the host convs
//! also run on) promise *bitwise* agreement between their scalar and
//! `madd`-based bodies. Each property is exercised
//! by forcing the process dispatch level both ways; on hosts without AVX2
//! every test degrades to a scalar self-check and the forced-AVX2 legs are
//! skipped.
//!
//! The dispatch level is process-global, so every test here serializes on
//! one lock and restores the entry level before returning.

use iprune_repro::tensor::matmul::SparseOperand::{self, Lhs, Out, Rhs};
use iprune_repro::tensor::matmul::{
    matmul_a_bt, matmul_a_bt_scalar, matmul_acc, matmul_acc_scalar, matmul_at_b, matmul_at_b_scalar,
};
use iprune_repro::tensor::pack::{
    im2col_patches, im2col_patches_scalar, im2col_rows, im2col_rows_scalar, ConvShape,
};
use iprune_repro::tensor::par;
use iprune_repro::tensor::pool::{
    maxpool2d_f32, maxpool2d_f32_argmax, maxpool2d_f32_argmax_scalar, maxpool2d_f32_scalar,
    maxpool2d_i16, maxpool2d_i16_scalar, maxpool2d_i8, maxpool2d_i8_scalar,
};
use iprune_repro::tensor::qgemm::{
    q15_block_acc, q15_block_acc_scalar, q15_gemm, q8_block_acc, q8_block_acc_scalar, q8_gemm,
};
use iprune_repro::tensor::simd::{avx2_supported, set_simd_level, simd_level, SimdLevel};
use iprune_repro::tensor::sparse::SparseIndex;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests (they flip process-global dispatch state) and
/// restores the entry dispatch level on drop.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

struct LevelGuard<'a> {
    _lock: MutexGuard<'a, ()>,
    entry: SimdLevel,
}

fn hold_level() -> LevelGuard<'static> {
    let lock = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    LevelGuard { _lock: lock, entry: simd_level() }
}

impl Drop for LevelGuard<'_> {
    fn drop(&mut self) {
        set_simd_level(self.entry);
    }
}

/// Deterministic operand with ~1/3 exact zeros and no negative zeros.
fn operand(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s.is_multiple_of(3) {
                0.0
            } else {
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            }
        })
        .collect()
}

/// Kills ~`sparsity` of the `br x bc` blocks of a `rows x cols` mask.
fn block_mask(
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    sparsity: f64,
    seed: u64,
) -> Vec<f32> {
    let mut mask = vec![1.0f32; rows * cols];
    for rb in 0..rows.div_ceil(br) {
        for cb in 0..cols.div_ceil(bc) {
            let h = (rb as u64 * 1_000_003 + cb as u64 * 7919)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed);
            if ((h >> 32) as f64 / (1u64 << 32) as f64) < sparsity {
                for r in rb * br..((rb + 1) * br).min(rows) {
                    for c in cb * bc..((cb + 1) * bc).min(cols) {
                        mask[r * cols + c] = 0.0;
                    }
                }
            }
        }
    }
    mask
}

fn apply_mask(w: &mut [f32], mask: &[f32]) {
    for (v, &m) in w.iter_mut().zip(mask.iter()) {
        *v *= m;
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether `(r, c)` lies in a 4x16 block of `mask` with any alive entry.
fn block_alive(mask: &[f32], cols: usize, r: usize, c: usize) -> bool {
    let rows = mask.len() / cols;
    let (r0, c0) = (r / 4 * 4, c / 16 * 16);
    (r0..(r0 + 4).min(rows))
        .any(|rr| (c0..(c0 + 16).min(cols)).any(|cc| mask[rr * cols + cc] != 0.0))
}

/// A GEMM entry: `(a, b, c, m, k, n, sparse)`.
type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, Option<SparseOperand>);

/// One weight role: name, kernel, call dims, `a`, `b`, initial `c` and the
/// sparse operand.
type Role<'a> = (&'a str, Gemm, [usize; 3], &'a [f32], &'a [f32], Vec<f32>, SparseOperand<'a>);

/// ULP distance between two finite f32 values (monotone bit mapping).
fn ulp_dist(a: f32, b: f32) -> u32 {
    fn key(x: f32) -> i64 {
        let b = x.to_bits() as i32;
        (if b < 0 { i32::MIN.wrapping_sub(b) } else { b }) as i64
    }
    key(a).abs_diff(key(b)).min(u32::MAX as u64) as u32
}

/// FMA fuses one rounding per multiply-add, so the SIMD result may drift a
/// few ULPs per reduction step; near-cancellation makes the relative (ULP)
/// view meaningless, so tiny absolute differences pass too.
fn assert_close(got: &[f32], want: &[f32], what: &str) {
    for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
        let ok = g == w || (g - w).abs() <= 1e-5 || ulp_dist(g, w) <= 128;
        assert!(ok, "{what}[{i}]: simd {g} vs scalar {w} ({} ulps)", ulp_dist(g, w));
    }
}

const SHAPES: &[(usize, usize, usize)] =
    &[(1, 1, 1), (3, 5, 2), (4, 16, 16), (7, 33, 9), (12, 40, 25), (17, 64, 31)];

/// Dense kernels: the dispatched AVX2 path agrees with the scalar spec
/// within ULP tolerance, and forcing `Scalar` reproduces the spec bitwise.
#[test]
fn dense_kernels_forced_simd_match_scalar_within_ulps() {
    let _g = hold_level();
    for (ti, &(m, k, n)) in SHAPES.iter().enumerate() {
        let seed = 0x00D1_5000 + ti as u64;
        let a = operand(m * k, seed);
        let b = operand(k * n, seed ^ 0xA1);
        let c0 = operand(m * n, seed ^ 0xB2);

        type Kernel = (&'static str, Gemm);
        let pairs: [(Kernel, Kernel); 3] = [
            (("acc", matmul_acc), ("acc", matmul_acc_scalar)),
            (("at_b", matmul_at_b), ("at_b", matmul_at_b_scalar)),
            (("a_bt", matmul_a_bt), ("a_bt", matmul_a_bt_scalar)),
        ];
        for ((name, dispatched), (_, scalar)) in pairs {
            let mut c_spec = c0.clone();
            scalar(&a, &b, &mut c_spec, m, k, n, None);

            set_simd_level(SimdLevel::Scalar);
            let mut c_forced = c0.clone();
            dispatched(&a, &b, &mut c_forced, m, k, n, None);
            assert_eq!(bits(&c_forced), bits(&c_spec), "{name} forced-scalar {m}x{k}x{n}");

            if avx2_supported() {
                set_simd_level(SimdLevel::Avx2);
                let mut c_simd = c0.clone();
                dispatched(&a, &b, &mut c_simd, m, k, n, None);
                assert_close(&c_simd, &c_spec, &format!("{name} {m}x{k}x{n}"));
            }
        }
    }
}

/// Sparse kernels: same forced-scalar bitwise / forced-AVX2 ULP contract,
/// across block geometries and sparsities.
#[test]
fn sparse_kernels_forced_simd_match_scalar_within_ulps() {
    let _g = hold_level();
    for (ti, &(m, k, n)) in SHAPES.iter().enumerate() {
        for (si, &sparsity) in [0.0f64, 0.4, 1.0].iter().enumerate() {
            let seed = 0x05BA_9000 + (ti * 16 + si) as u64;
            let (br, bc) = (4, 16);

            // lhs-sparse family: w[m x k] pruned
            let mask = block_mask(m, k, br, bc, sparsity, seed);
            let mut w = operand(m * k, seed);
            apply_mask(&mut w, &mask);
            let idx = SparseIndex::with_blocks(&mask, m, k, br, bc);
            let x = operand(k * n, seed ^ 0xA1);
            let g = operand(m * n, seed ^ 0xC3);
            let y = operand(n * k, seed ^ 0xE5);
            // out-sparse family: dW[m x n] pruned
            let omask = block_mask(m, n, br, bc, sparsity, seed ^ 0x77);
            let oidx = SparseIndex::with_blocks(&omask, m, n, br, bc);
            let g2 = operand(m * m, seed ^ 0x28);
            let gt = operand(k * m, seed ^ 0x31);
            let xt = operand(k * n, seed ^ 0x42);
            let gk = operand(m * k, seed ^ 0x64);
            let col = operand(n * k, seed ^ 0x75);
            let c0 = operand(m.max(k).max(n) * m.max(k).max(n), seed ^ 0xB2);

            let run = |out: &mut [Vec<f32>]| {
                matmul_acc(&w, &x, &mut out[0], m, k, n, Some(Lhs(&idx)));
                matmul_at_b(&w, &g, &mut out[1], k, m, n, Some(Lhs(&idx)));
                matmul_a_bt(&y, &w, &mut out[2], n, k, m, Some(Rhs(&idx)));
                matmul_acc(&g2, &w, &mut out[3], m, m, k, Some(Rhs(&idx)));
                matmul_at_b(&gt, &xt, &mut out[4], m, k, n, Some(Out(&oidx)));
                matmul_a_bt(&gk, &col, &mut out[5], m, k, n, Some(Out(&oidx)));
            };
            let sizes = [m * n, k * n, n * m, m * k, m * n, m * n];
            let fresh = || -> Vec<Vec<f32>> { sizes.iter().map(|&s| c0[..s].to_vec()).collect() };

            set_simd_level(SimdLevel::Scalar);
            let mut spec = fresh();
            run(&mut spec);
            if !avx2_supported() {
                continue;
            }
            set_simd_level(SimdLevel::Avx2);
            let mut simd = fresh();
            run(&mut simd);
            let names = ["acc_lhs", "at_b_lhs", "a_bt_rhs", "acc_rhs", "at_b_out", "a_bt_out"];
            for ((name, s), v) in names.iter().zip(spec.iter()).zip(simd.iter()) {
                assert_close(v, s, &format!("{name} {m}x{k}x{n} s={sparsity}"));
            }
        }
    }
}

/// Under SIMD dispatch the block-sparse forms stay *bitwise* equal to the
/// dense calls on mask-pruned operands, in all six roles of a weight matrix
/// — dense and sparse share one per-element operation schedule, so pruning
/// never perturbs training. The output-sparse forms match on the alive
/// entries and leave the dead ones untouched. At sparsity 0.0 (a full mask)
/// every role pins "full index ≡ no index".
#[test]
fn dense_simd_matches_sparse_simd_bitwise_on_masked_weights() {
    if !avx2_supported() {
        return;
    }
    let _g = hold_level();
    set_simd_level(SimdLevel::Avx2);
    for (ti, &(m, k, n)) in SHAPES.iter().enumerate() {
        for (si, &sparsity) in [0.0f64, 0.3, 0.7].iter().enumerate() {
            let seed = 0xB17_000 + (ti * 16 + si) as u64;
            let mask = block_mask(m, k, 4, 16, sparsity, seed);
            let mut w = operand(m * k, seed);
            apply_mask(&mut w, &mask);
            let idx = SparseIndex::with_blocks(&mask, m, k, 4, 16);
            let x = operand(k * n, seed ^ 0xA1);
            let g = operand(m * n, seed ^ 0xC3);
            let y = operand(n * k, seed ^ 0xE5);
            let gt = operand(n * m, seed ^ 0x28);
            // `w`, or its block grid as the output, in all six roles
            let cases: [Role; 6] = [
                ("acc", matmul_acc, [m, k, n], &w, &x, operand(m * n, seed ^ 0xB2), Lhs(&idx)),
                ("at_b", matmul_at_b, [k, m, n], &w, &g, operand(k * n, seed ^ 0xD4), Lhs(&idx)),
                ("a_bt", matmul_a_bt, [n, k, m], &y, &w, vec![0.0; n * m], Rhs(&idx)),
                ("acc_rhs", matmul_acc, [n, m, k], &gt, &w, operand(n * k, seed ^ 0xF6), Rhs(&idx)),
                (
                    "at_b_out",
                    matmul_at_b,
                    [m, n, k],
                    &gt,
                    &y,
                    operand(m * k, seed ^ 0x31),
                    Out(&idx),
                ),
                (
                    "a_bt_out",
                    matmul_a_bt,
                    [m, n, k],
                    &g,
                    &x,
                    operand(m * k, seed ^ 0x42),
                    Out(&idx),
                ),
            ];
            for (role, gemm, [mg, kg, ng], a, b, c0, sp) in cases {
                let mut c_dense = c0.clone();
                let mut c_sparse = c0.clone();
                gemm(a, b, &mut c_dense, mg, kg, ng, None);
                gemm(a, b, &mut c_sparse, mg, kg, ng, Some(sp));
                let what = format!("{role} {m}x{k}x{n} s={sparsity}");
                if let Out(_) = sp {
                    for (i, (&got, &init)) in c_sparse.iter().zip(&c0).enumerate() {
                        let alive = block_alive(&mask, k, i / k, i % k);
                        let want = if alive { c_dense[i] } else { init };
                        assert_eq!(got.to_bits(), want.to_bits(), "{what} entry {i} alive={alive}");
                    }
                } else {
                    assert_eq!(bits(&c_dense), bits(&c_sparse), "{what}");
                }
            }
        }
    }
}

/// The SIMD path produces identical bits at 1, 2, and 8 worker threads
/// (worker boundaries never split an element's FMA chain).
#[test]
fn simd_path_is_thread_count_invariant() {
    if !avx2_supported() {
        return;
    }
    let _g = hold_level();
    set_simd_level(SimdLevel::Avx2);
    let (m, k, n) = (33, 48, 40);
    let a = operand(m * k, 0x7412);
    let b = operand(k * n, 0x7413);
    let c0 = operand(m * n, 0x7414);

    par::set_host_cores(8);
    let run = |threads: usize| -> [Vec<u32>; 3] {
        par::set_threads(threads);
        let mut acc = c0.clone();
        matmul_acc(&a, &b, &mut acc, m, k, n, None);
        let mut atb = vec![0.25f32; k * n];
        matmul_at_b(&a, &b[..m * n], &mut atb, k, m, n, None);
        let mut abt = vec![0.0f32; m * k];
        matmul_a_bt(&a[..m * n], &b[..k * n], &mut abt, m, n, k, None);
        par::set_threads(0);
        [bits(&acc), bits(&atb), bits(&abt)]
    };
    let base = run(1);
    for threads in [2usize, 8] {
        let got = run(threads);
        for (name, (b1, bt)) in ["acc", "at_b", "a_bt"].iter().zip(base.iter().zip(got.iter())) {
            assert_eq!(b1, bt, "{name} at {threads} threads");
        }
    }
    par::set_host_cores(0);
}

/// Conv geometries for the packing tests: `(cin, kh, kw, stride, pad_h,
/// pad_w, in_h, in_w)`, covering stride > 1, asymmetric padding, 1-D
/// inputs, and kernels wider than the input-plus-padding overhang.
const CONV_SHAPES: &[[usize; 8]] = &[
    [1, 1, 1, 1, 0, 0, 1, 1],
    [3, 3, 3, 1, 1, 1, 8, 8],
    [4, 5, 5, 2, 2, 2, 13, 13],
    [2, 3, 1, 1, 1, 0, 9, 1],
    [8, 3, 3, 1, 0, 0, 13, 13],
    [1, 2, 7, 1, 0, 3, 5, 6],
    [5, 3, 3, 2, 1, 1, 7, 9],
];

fn conv_shape(t: &[usize; 8]) -> ConvShape {
    let &[cin, kh, kw, stride, pad_h, pad_w, in_h, in_w] = t;
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

/// im2col is pure data movement, so both layouts promise *bitwise*
/// equality across dispatch levels for every geometry and element type
/// (the row-major bodies serve f32, i16 and i8 alike).
#[test]
fn im2col_is_bitwise_exact_across_levels() {
    let _g = hold_level();
    for (ti, t) in CONV_SHAPES.iter().enumerate() {
        let s = conv_shape(t);
        let src = operand(s.in_len(), 0x1_2C01 + ti as u64);
        let src_i16: Vec<i16> = src.iter().map(|&v| (v * 32767.0) as i16).collect();
        let src_i8: Vec<i8> = src.iter().map(|&v| (v * 127.0) as i8).collect();

        let mut spec = vec![0.0f32; s.col_len()];
        im2col_rows_scalar(&src, &s, &mut spec);
        let mut spec_i16 = vec![0i16; s.col_len()];
        im2col_patches_scalar(&src_i16, &s, &mut spec_i16);
        let mut spec_i8 = vec![0i8; s.col_len()];
        im2col_patches_scalar(&src_i8, &s, &mut spec_i8);
        let mut rows_spec_i16 = vec![0i16; s.col_len()];
        im2col_rows_scalar(&src_i16, &s, &mut rows_spec_i16);
        let mut rows_spec_i8 = vec![0i8; s.col_len()];
        im2col_rows_scalar(&src_i8, &s, &mut rows_spec_i8);

        let levels: &[SimdLevel] = if avx2_supported() {
            &[SimdLevel::Scalar, SimdLevel::Avx2]
        } else {
            &[SimdLevel::Scalar]
        };
        for &lvl in levels {
            set_simd_level(lvl);
            let mut col = vec![0.5f32; s.col_len()];
            im2col_rows(&src, &s, &mut col);
            assert_eq!(bits(&col), bits(&spec), "f32 shape {ti} at {lvl:?}");
            let mut col16 = vec![7i16; s.col_len()];
            im2col_patches(&src_i16, &s, &mut col16);
            assert_eq!(col16, spec_i16, "i16 shape {ti} at {lvl:?}");
            let mut col8 = vec![7i8; s.col_len()];
            im2col_patches(&src_i8, &s, &mut col8);
            assert_eq!(col8, spec_i8, "i8 shape {ti} at {lvl:?}");
            let mut rows16 = vec![5i16; s.col_len()];
            im2col_rows(&src_i16, &s, &mut rows16);
            assert_eq!(rows16, rows_spec_i16, "i16 rows shape {ti} at {lvl:?}");
            let mut rows8 = vec![5i8; s.col_len()];
            im2col_rows(&src_i8, &s, &mut rows8);
            assert_eq!(rows8, rows_spec_i8, "i8 rows shape {ti} at {lvl:?}");
        }
    }
}

/// Max-pooling promises *bitwise* equality across dispatch levels for all
/// element types, including the argmax variant (first-wins tie-breaking)
/// and 1-D column inputs that canonicalize onto the row-pair path.
#[test]
fn maxpool_is_bitwise_exact_across_levels() {
    let _g = hold_level();
    // (h, w, kh, kw): vector kw∈{1,2} paths, scalar kw=3 fallback, 1-D;
    // the last four are wide enough for whole 32-lane i8 vectors plus a
    // tail
    let shapes: &[(usize, usize, usize, usize)] = &[
        (4, 8, 2, 2),
        (8, 16, 2, 2),
        (9, 7, 3, 1),
        (5, 10, 1, 2),
        (12, 1, 2, 1),
        (7, 9, 2, 3),
        (3, 33, 3, 2),
        (4, 64, 2, 2),
        (6, 70, 3, 2),
        (5, 40, 2, 1),
        (130, 1, 2, 1),
    ];
    for (ti, &(h, w, kh, kw)) in shapes.iter().enumerate() {
        let src = operand(h * w, 0x9001 + ti as u64);
        let src_i16: Vec<i16> = src.iter().map(|&v| (v * 32767.0) as i16).collect();
        let src_i8: Vec<i8> = src.iter().map(|&v| (v * 127.0) as i8).collect();
        let (ho, wo) = (h / kh, w / kw);

        let mut spec = vec![0.0f32; ho * wo];
        maxpool2d_f32_scalar(&src, h, w, kh, kw, &mut spec);
        let mut spec_arg = vec![0usize; ho * wo];
        let mut spec_arg_dst = vec![0.0f32; ho * wo];
        maxpool2d_f32_argmax_scalar(&src, h, w, kh, kw, &mut spec_arg_dst, &mut spec_arg);
        let mut spec_i16 = vec![0i16; ho * wo];
        maxpool2d_i16_scalar(&src_i16, h, w, kh, kw, &mut spec_i16);
        let mut spec_i8 = vec![0i8; ho * wo];
        maxpool2d_i8_scalar(&src_i8, h, w, kh, kw, &mut spec_i8);

        let levels: &[SimdLevel] = if avx2_supported() {
            &[SimdLevel::Scalar, SimdLevel::Avx2]
        } else {
            &[SimdLevel::Scalar]
        };
        for &lvl in levels {
            set_simd_level(lvl);
            let mut dst = vec![-1.0f32; ho * wo];
            maxpool2d_f32(&src, h, w, kh, kw, &mut dst);
            assert_eq!(bits(&dst), bits(&spec), "f32 shape {ti} at {lvl:?}");
            let mut arg = vec![usize::MAX; ho * wo];
            let mut arg_dst = vec![-1.0f32; ho * wo];
            maxpool2d_f32_argmax(&src, h, w, kh, kw, &mut arg_dst, &mut arg);
            assert_eq!(bits(&arg_dst), bits(&spec_arg_dst), "argmax dst {ti} at {lvl:?}");
            assert_eq!(arg, spec_arg, "argmax idx {ti} at {lvl:?}");
            let mut dst16 = vec![0i16; ho * wo];
            maxpool2d_i16(&src_i16, h, w, kh, kw, &mut dst16);
            assert_eq!(dst16, spec_i16, "i16 shape {ti} at {lvl:?}");
            let mut dst8 = vec![0i8; ho * wo];
            maxpool2d_i8(&src_i8, h, w, kh, kw, &mut dst8);
            assert_eq!(dst8, spec_i8, "i8 shape {ti} at {lvl:?}");
            // and against the i16 spec on the widened values
            let as16: Vec<i16> = dst8.iter().map(|&v| v as i16).collect();
            let src8_as16: Vec<i16> = src_i8.iter().map(|&v| v as i16).collect();
            let mut want8 = vec![0i16; ho * wo];
            maxpool2d_i16_scalar(&src8_as16, h, w, kh, kw, &mut want8);
            assert_eq!(as16, want8, "i8 shape {ti} at {lvl:?}");
        }
    }
}

/// The Q8 GEMM is *bitwise* exact across dispatch levels for arbitrary i8
/// operands — wrapping i32 accumulation reassociates freely, so unlike Q15
/// there is no operand precondition.
#[test]
fn q8_gemm_simd_is_bitwise_exact_vs_scalar() {
    let _g = hold_level();
    let mut s = 0x0800_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 17, 5), (8, 100, 9), (4, 577, 3)] {
        let a: Vec<i8> = (0..m * k).map(|_| next() as i8).collect();
        let b: Vec<i8> = (0..n * k).map(|_| next() as i8).collect();
        let bias: Vec<i32> = (0..m).map(|_| next() as i32 >> 16).collect();
        let mut c_scalar = vec![0i8; m * n];
        let mut c_simd = vec![0i8; m * n];
        set_simd_level(SimdLevel::Scalar);
        q8_gemm(&a, &b, &bias, &mut c_scalar, m, k, n, 5, 7, 6, true);
        if !avx2_supported() {
            continue;
        }
        set_simd_level(SimdLevel::Avx2);
        q8_gemm(&a, &b, &bias, &mut c_simd, m, k, n, 5, 7, 6, true);
        assert_eq!(c_scalar, c_simd, "{m}x{k}x{n}");
    }
}

/// The Q15 GEMM is *bitwise* exact across dispatch levels: integer madd
/// lanes sum the same products, so there is nothing to round.
#[test]
fn q15_gemm_simd_is_bitwise_exact_vs_scalar() {
    let _g = hold_level();
    let mut s = 0x9152_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 17, 5), (8, 100, 9)] {
        // weights never hold i16::MIN (the for_max_abs guarantee)
        let a: Vec<i16> = (0..m * k).map(|_| (next() as i16).max(-i16::MAX)).collect();
        let b: Vec<i16> = (0..n * k).map(|_| next() as i16).collect();
        let bias: Vec<i16> = (0..m).map(|_| next() as i16).collect();
        let mut c_scalar = vec![0i16; m * n];
        let mut c_simd = vec![0i16; m * n];
        set_simd_level(SimdLevel::Scalar);
        q15_gemm(&a, &b, &bias, 6, &mut c_scalar, m, k, n, 12, 14, 13, true);
        if !avx2_supported() {
            continue;
        }
        set_simd_level(SimdLevel::Avx2);
        q15_gemm(&a, &b, &bias, 6, &mut c_simd, m, k, n, 12, 14, 13, true);
        assert_eq!(c_scalar, c_simd, "{m}x{k}x{n}");
    }
}

#[test]
fn q15_block_acc_simd_is_bitwise_exact_vs_scalar() {
    let _g = hold_level();
    let mut s = 0xb10c_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for rows in 1..=16usize {
        for cols in 1..=4usize {
            // a wider stride leaves padding columns the kernel must skip
            let bc = cols + rows % 2;
            // 25 runs one 16-wide step and a scalar tail in the same row
            for s_len in [1usize, 7, 8, 9, 16, 25, 64] {
                // weights in [-i16::MAX, i16::MAX] (the for_max_abs
                // guarantee), ~1/4 zeros, and an all-zero column pair in
                // every other row
                let mut block: Vec<i16> = (0..rows * bc)
                    .map(|_| if next() % 4 == 0 { 0 } else { (next() as i16).max(-i16::MAX) })
                    .collect();
                for r in (0..rows).step_by(2) {
                    block[r * bc..r * bc + cols.min(2)].fill(0);
                }
                // activations over the full i16 range, extremes included
                let mut x: Vec<i16> = (0..cols * s_len).map(|_| next() as i16).collect();
                x[0] = i16::MIN;
                x[cols * s_len - 1] = i16::MAX;
                let start: Vec<i64> = (0..rows * s_len).map(|_| (next() as i64) >> 16).collect();
                let mut spec = start.clone();
                q15_block_acc_scalar(&block, &x, &mut spec, rows, cols, s_len, bc);
                for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                    if level == SimdLevel::Avx2 && !avx2_supported() {
                        continue;
                    }
                    set_simd_level(level);
                    let mut got = start.clone();
                    q15_block_acc(&block, &x, &mut got, rows, cols, s_len, bc);
                    assert_eq!(
                        got, spec,
                        "{level:?} rows {rows} cols {cols} bc {bc} s_len {s_len}"
                    );
                }
            }
        }
    }
    // the pair-sum bound itself: |w0·x0 + w1·x1| = 2·32767·32768 < 2^31
    for w in [i16::MAX, -i16::MAX] {
        let block = vec![w; 4 * 4];
        let x = vec![i16::MIN; 4 * 64];
        let mut spec = vec![0i64; 4 * 64];
        q15_block_acc_scalar(&block, &x, &mut spec, 4, 4, 64, 4);
        assert_eq!(spec[0], 4 * w as i64 * i16::MIN as i64);
        if avx2_supported() {
            set_simd_level(SimdLevel::Avx2);
            let mut got = vec![0i64; 4 * 64];
            q15_block_acc(&block, &x, &mut got, 4, 4, 64, 4);
            assert_eq!(got, spec, "extremes, w = {w}");
        }
    }
}

/// The Q8 block kernel is *bitwise* exact across dispatch levels for
/// arbitrary i8 operands, `i8::MIN` included, on the shapes the Q15 block
/// kernel's test walks: odd `cols`, `s_len % 16 != 0`, and `bc > cols`.
#[test]
fn q8_block_acc_simd_is_bitwise_exact_vs_scalar() {
    let _g = hold_level();
    let mut s = 0xb18c_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for rows in 1..=16usize {
        for cols in 1..=4usize {
            let bc = cols + rows % 2;
            for s_len in [1usize, 7, 8, 9, 16, 25, 64] {
                // full-range weights, ~1/4 zeros, an all-zero column pair in
                // every other row, and i8::MIN in the last used weight
                let mut block: Vec<i8> = (0..rows * bc)
                    .map(|_| if next() % 4 == 0 { 0 } else { next() as i8 })
                    .collect();
                for r in (0..rows).step_by(2) {
                    block[r * bc..r * bc + cols.min(2)].fill(0);
                }
                block[(rows - 1) * bc + cols - 1] = i8::MIN;
                let mut x: Vec<i8> = (0..cols * s_len).map(|_| next() as i8).collect();
                x[0] = i8::MIN;
                x[cols * s_len - 1] = i8::MAX;
                // accumulators near the i32 edges, so the wrap shows
                let start: Vec<i32> =
                    (0..rows * s_len)
                        .map(|i| {
                            if i % 3 == 0 {
                                i32::MAX - (next() % 64) as i32
                            } else {
                                next() as i32
                            }
                        })
                        .collect();
                let mut spec = start.clone();
                q8_block_acc_scalar(&block, &x, &mut spec, rows, cols, s_len, bc);
                for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                    if level == SimdLevel::Avx2 && !avx2_supported() {
                        continue;
                    }
                    set_simd_level(level);
                    let mut got = start.clone();
                    q8_block_acc(&block, &x, &mut got, rows, cols, s_len, bc);
                    assert_eq!(
                        got, spec,
                        "{level:?} rows {rows} cols {cols} bc {bc} s_len {s_len}"
                    );
                }
            }
        }
    }
    // the extreme pair sum: 2 * (-128) * (-128) = 2^15, exact in the madd
    let block = vec![i8::MIN; 4 * 4];
    let x = vec![i8::MIN; 4 * 32];
    let mut spec = vec![0i32; 4 * 32];
    q8_block_acc_scalar(&block, &x, &mut spec, 4, 4, 32, 4);
    assert_eq!(spec[0], 4 * 128 * 128);
    if avx2_supported() {
        set_simd_level(SimdLevel::Avx2);
        let mut got = vec![0i32; 4 * 32];
        q8_block_acc(&block, &x, &mut got, 4, 4, 32, 4);
        assert_eq!(got, spec, "extremes");
    }
}
