//! Host-performance benchmark: GEMM kernel throughput (tiled vs scalar
//! reference), SIMD-dispatched vs scalar-spec kernels, the Q15 and Q8
//! integer GEMMs (with deterministic output checksums — the SIMD bodies
//! are exact, so the hashes must agree across dispatch levels), im2col
//! packing and max-pooling throughput (bitwise data-movement checksums),
//! the host integer convs in the patch-major dot form and in the row
//! form over alive blocks (per zoo layer, one output checksum both forms
//! reproduce), end-to-end quantized inference at both dispatch levels,
//! f32-vs-Q15/Q8 evaluation accuracy per zoo app, block-sparse vs dense
//! kernels at 30/50/80 % block sparsity, and prune-pipeline wall-clock at
//! 1/2/4/8 requested threads.
//!
//! The JSON header records the detected CPU features and the effective
//! SIMD dispatch level (`IPRUNE_SIMD=0` forces scalar), so a recorded
//! number can always be traced to the code path that produced it.
//!
//! Prints a human-readable summary and writes the machine-readable
//! `BENCH_perf.json` at the workspace root. Every row records both the
//! *requested* thread count and the *effective* worker count
//! (`iprune_tensor::par` caps regions at the physical core count), so the
//! recorded numbers always say what parallelism actually ran.
//!
//! Requested counts that collapse to the same effective worker count are
//! measured once and share the row data: on a single-core host the
//! 2/4/8-thread configurations are the 1-thread configuration, and
//! re-measuring them would only record scheduler noise as a phantom
//! slowdown. `speedup_vs_1 >= 1.0` is asserted for 2 and 4 requested
//! threads — the regression guard for oversubscribed parallel regions.
//!
//! The `sparse_vs_dense` block times the sparse kernels against the dense
//! ones on the *same masked weights* (dense keeps its per-element zero
//! skip, so the comparison isolates the traversal win). The structural
//! rows (`sparse_cases`: block counts, skipped MACs) are deterministic —
//! CI compares them byte-for-byte across thread counts. `speedup_vs_dense
//! >= 1.0` is asserted for every row at ≥ 70 % sparsity.

use iprune_bench::cache::workspace_root;
use iprune_bench::run_app_pipelines;
use iprune_bench::scale::SMOKE;
use iprune_models::arch::GraphOp;
use iprune_models::qeval::{conv_rows, Quantized8Model, QuantizedModel};
use iprune_models::train::{evaluate, train_sgd, TrainConfig};
use iprune_models::zoo::App;
use iprune_tensor::exec::ExecCtx;
use iprune_tensor::matmul::SparseOperand::{self, Lhs, Rhs};
use iprune_tensor::matmul::{
    matmul_a_bt, matmul_a_bt_ref, matmul_a_bt_scalar, matmul_acc, matmul_acc_ref,
    matmul_acc_scalar, matmul_at_b, matmul_at_b_ref, matmul_at_b_scalar,
};
use iprune_tensor::pack::{self, ConvShape};
use iprune_tensor::par;
use iprune_tensor::pool;
use iprune_tensor::qgemm::{q15_gemm, q15_gemm_scalar, q8_gemm, q8_gemm_scalar};
use iprune_tensor::simd::{self, SimdLevel};
use iprune_tensor::sparse::{self, SparseIndex};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Whether the host offers FMA — detected independently of the combined
/// avx2+fma dispatch gate, for the bench header.
fn fma_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Median wall-clock seconds of `reps` timed calls.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn fill(seed: f32, len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i as f32 * 0.13 + seed).sin() * 2.0).round() / 3.0).collect()
}

struct KernelRow {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    workers: usize,
    ref_gflops: f64,
    tiled_gflops: f64,
}

/// A reference GEMM: `(a, b, c, m, k, n)`.
type GemmFn = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// A GEMM entry point: `(a, b, c, m, k, n, sparse)`.
type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, Option<SparseOperand>);

/// Benchmarks one kernel shape at one requested thread count. The
/// reference kernel is always serial; the tiled kernel fans rows out over
/// the effective workers.
#[allow(clippy::too_many_arguments)]
fn bench_kernel(
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    tiled: Gemm,
    reference: GemmFn,
    a_len: usize,
    b_len: usize,
) -> KernelRow {
    let a = fill(0.3, a_len);
    let b = fill(0.7, b_len);
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let reps = 7;

    par::set_threads(1);
    let t_ref = time_median(reps, || reference(&a, &b, &mut c, m, k, n));
    par::set_threads(threads);
    let workers = par::workers_for(m.max(n));
    let t_tiled = time_median(reps, || tiled(&a, &b, &mut c, m, k, n, None));
    par::set_threads(0);

    KernelRow {
        kernel,
        m,
        k,
        n,
        threads,
        workers,
        ref_gflops: flops / t_ref / 1e9,
        tiled_gflops: flops / t_tiled / 1e9,
    }
}

struct SimdRow {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    scalar_gflops: f64,
    simd_gflops: f64,
}

/// Times the scalar-spec kernels against the dispatched entries on the
/// conv-shaped hot loop (serial — the lane-level win is what's under
/// test, not the fan-out). When the process dispatch level is `scalar`
/// the two columns measure the same code path.
fn bench_simd_kernels() -> Vec<SimdRow> {
    let reps = 7;
    let mut rows = Vec::new();
    par::set_threads(1);
    type Pair = (&'static str, usize, usize, usize, Gemm, Gemm, usize, usize);
    let cases: [Pair; 3] = [
        ("matmul_acc", 64, 576, 169, matmul_acc, matmul_acc_scalar, 64 * 576, 576 * 169),
        ("matmul_at_b", 576, 64, 169, matmul_at_b, matmul_at_b_scalar, 64 * 576, 64 * 169),
        ("matmul_a_bt", 64, 169, 576, matmul_a_bt, matmul_a_bt_scalar, 64 * 169, 576 * 169),
    ];
    for (kernel, m, k, n, dispatched, scalar, a_len, b_len) in cases {
        let a = fill(0.3, a_len);
        let b = fill(0.7, b_len);
        let mut c = vec![0.0f32; m * n];
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let t_scalar = time_median(reps, || scalar(&a, &b, &mut c, m, k, n, None));
        let t_simd = time_median(reps, || dispatched(&a, &b, &mut c, m, k, n, None));
        rows.push(SimdRow {
            kernel,
            m,
            k,
            n,
            scalar_gflops: flops / t_scalar / 1e9,
            simd_gflops: flops / t_simd / 1e9,
        });
    }
    par::set_threads(0);
    rows
}

struct Q15Row {
    m: usize,
    k: usize,
    n: usize,
    scalar_gops: f64,
    simd_gops: f64,
    checksum: u64,
}

/// FNV-1a over raw bytes — the deterministic fingerprint CI compares
/// across dispatch levels (the integer SIMD bodies and the packing/pooling
/// kernels are exact, so the dispatched output must hash identically under
/// `IPRUNE_SIMD=0` and `=1`).
fn fnv64_bytes(data: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in data {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over an i16 payload (little-endian bytes).
fn fnv64(data: &[i16]) -> u64 {
    fnv64_bytes(data.iter().flat_map(|&v| (v as u16).to_le_bytes()))
}

/// FNV-1a over an f32 payload (bit patterns, little-endian bytes).
fn fnv64_f32(data: &[f32]) -> u64 {
    fnv64_bytes(data.iter().flat_map(|&v| v.to_bits().to_le_bytes()))
}

/// Times the Q15 integer GEMM, scalar spec vs dispatched, on the conv
/// shape and the FC shape (`n = 1`). Operands mimic deployment: weights
/// exclude `i16::MIN` (the `for_max_abs` guarantee).
fn bench_q15() -> Vec<Q15Row> {
    let reps = 7;
    let mut rows = Vec::new();
    par::set_threads(1);
    for &(m, k, n) in &[(64usize, 576usize, 169usize), (576, 1024, 1)] {
        let mut s = 0x915_u64 + (m * k * n) as u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let a: Vec<i16> = (0..m * k).map(|_| (next() as i16).max(-i16::MAX)).collect();
        let b: Vec<i16> = (0..n * k).map(|_| next() as i16).collect();
        let bias: Vec<i16> = (0..m).map(|_| next() as i16).collect();
        let mut c = vec![0i16; m * n];
        let ops = 2.0 * m as f64 * k as f64 * n as f64;
        let t_scalar = time_median(reps, || {
            q15_gemm_scalar(&a, &b, &bias, 7, &mut c, m, k, n, 13, 14, 12, true)
        });
        let t_simd =
            time_median(reps, || q15_gemm(&a, &b, &bias, 7, &mut c, m, k, n, 13, 14, 12, true));
        rows.push(Q15Row {
            m,
            k,
            n,
            scalar_gops: ops / t_scalar / 1e9,
            simd_gops: ops / t_simd / 1e9,
            checksum: fnv64(&c),
        });
    }
    par::set_threads(0);
    rows
}

struct Im2colRow {
    layout: &'static str,
    scalar_gbs: f64,
    simd_gbs: f64,
    checksum: u64,
}

/// Times im2col packing, scalar spec vs dispatched, in both layouts on the
/// SQN fire-module conv geometry (`cin 64, 3x3, pad 1, 13x13` → the
/// 64x576x169 GEMM): the row-major layout for f32 (the float convs) and
/// for i16 and i8 (the host Q15/Q8 convs), the patch-major one for i16.
/// Throughput is nominal GB/s over packed bytes written plus source bytes
/// read once; the checksum fingerprints the packed output (pure data
/// movement — bitwise across dispatch levels).
fn bench_im2col() -> Vec<Im2colRow> {
    let reps = 7;
    par::set_threads(1);
    let s = ConvShape {
        cin: 64,
        kh: 3,
        kw: 3,
        stride: 1,
        pad_h: 1,
        pad_w: 1,
        in_h: 13,
        in_w: 13,
        out_h: 13,
        out_w: 13,
    };
    let src = fill(0.4, s.in_len());
    let src_i16: Vec<i16> = src.iter().map(|&v| (v * 16384.0) as i16).collect();
    let src_i8: Vec<i8> = src.iter().map(|&v| (v * 96.0) as i8).collect();
    let mut rows = Vec::new();

    let mut col = vec![0.0f32; s.col_len()];
    let bytes = ((s.col_len() + s.in_len()) * 4) as f64;
    let t_scalar = time_median(reps, || pack::im2col_rows_scalar(&src, &s, &mut col));
    let t_simd = time_median(reps, || pack::im2col_rows(&src, &s, &mut col));
    rows.push(Im2colRow {
        layout: "rows_f32",
        scalar_gbs: bytes / t_scalar / 1e9,
        simd_gbs: bytes / t_simd / 1e9,
        checksum: fnv64_f32(&col),
    });

    let mut col16 = vec![0i16; s.col_len()];
    let bytes = ((s.col_len() + s.in_len()) * 2) as f64;
    let t_scalar = time_median(reps, || pack::im2col_rows_scalar(&src_i16, &s, &mut col16));
    let t_simd = time_median(reps, || pack::im2col_rows(&src_i16, &s, &mut col16));
    rows.push(Im2colRow {
        layout: "rows_i16",
        scalar_gbs: bytes / t_scalar / 1e9,
        simd_gbs: bytes / t_simd / 1e9,
        checksum: fnv64(&col16),
    });

    let mut col8 = vec![0i8; s.col_len()];
    let bytes8 = (s.col_len() + s.in_len()) as f64;
    let t_scalar = time_median(reps, || pack::im2col_rows_scalar(&src_i8, &s, &mut col8));
    let t_simd = time_median(reps, || pack::im2col_rows(&src_i8, &s, &mut col8));
    rows.push(Im2colRow {
        layout: "rows_i8",
        scalar_gbs: bytes8 / t_scalar / 1e9,
        simd_gbs: bytes8 / t_simd / 1e9,
        checksum: fnv64_bytes(col8.iter().map(|&v| v as u8)),
    });

    let t_scalar = time_median(reps, || pack::im2col_patches_scalar(&src_i16, &s, &mut col16));
    let t_simd = time_median(reps, || pack::im2col_patches(&src_i16, &s, &mut col16));
    rows.push(Im2colRow {
        layout: "patches_i16",
        scalar_gbs: bytes / t_scalar / 1e9,
        simd_gbs: bytes / t_simd / 1e9,
        checksum: fnv64(&col16),
    });
    par::set_threads(0);
    rows
}

struct PoolRow {
    variant: &'static str,
    scalar_gbs: f64,
    simd_gbs: f64,
    checksum: u64,
}

/// Times max-pooling, scalar spec vs dispatched, per channel plane over a
/// conv-stage activation (64 planes of 26x26, 2x2 windows): the f32
/// inference path, the f32 argmax (training) path, and the i8 and i16
/// quantized paths. Nominal GB/s over source-read plus
/// destination-written bytes.
fn bench_pool() -> Vec<PoolRow> {
    let reps = 7;
    par::set_threads(1);
    let (c, h, w, kh, kw) = (64usize, 26usize, 26usize, 2usize, 2usize);
    let (ho, wo) = (h / kh, w / kw);
    let src = fill(0.6, c * h * w);
    let src_i16: Vec<i16> = src.iter().map(|&v| (v * 16384.0) as i16).collect();
    let src_i8: Vec<i8> = src.iter().map(|&v| (v * 96.0) as i8).collect();
    let mut rows = Vec::new();

    let mut dst = vec![0.0f32; c * ho * wo];
    let bytes = ((c * h * w + c * ho * wo) * 4) as f64;
    let t_scalar = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_f32_scalar(
                &src[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    let t_simd = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_f32(
                &src[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    rows.push(PoolRow {
        variant: "f32",
        scalar_gbs: bytes / t_scalar / 1e9,
        simd_gbs: bytes / t_simd / 1e9,
        checksum: fnv64_f32(&dst),
    });

    let mut arg = vec![0usize; c * ho * wo];
    let t_scalar = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_f32_argmax_scalar(
                &src[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst[p * ho * wo..(p + 1) * ho * wo],
                &mut arg[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    let t_simd = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_f32_argmax(
                &src[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst[p * ho * wo..(p + 1) * ho * wo],
                &mut arg[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    let arg_sum: u64 = arg.iter().map(|&a| a as u64).sum();
    rows.push(PoolRow {
        variant: "f32_argmax",
        scalar_gbs: bytes / t_scalar / 1e9,
        simd_gbs: bytes / t_simd / 1e9,
        checksum: fnv64_f32(&dst) ^ arg_sum,
    });

    let mut dst8 = vec![0i8; c * ho * wo];
    let bytes8 = (c * h * w + c * ho * wo) as f64;
    let t_scalar = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_i8_scalar(
                &src_i8[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst8[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    let t_simd = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_i8(
                &src_i8[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst8[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    rows.push(PoolRow {
        variant: "i8",
        scalar_gbs: bytes8 / t_scalar / 1e9,
        simd_gbs: bytes8 / t_simd / 1e9,
        checksum: fnv64_bytes(dst8.iter().map(|&v| v as u8)),
    });

    let mut dst16 = vec![0i16; c * ho * wo];
    let bytes = ((c * h * w + c * ho * wo) * 2) as f64;
    let t_scalar = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_i16_scalar(
                &src_i16[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst16[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    let t_simd = time_median(reps, || {
        for p in 0..c {
            pool::maxpool2d_i16(
                &src_i16[p * h * w..(p + 1) * h * w],
                h,
                w,
                kh,
                kw,
                &mut dst16[p * ho * wo..(p + 1) * ho * wo],
            );
        }
    });
    rows.push(PoolRow {
        variant: "i16",
        scalar_gbs: bytes / t_scalar / 1e9,
        simd_gbs: bytes / t_simd / 1e9,
        checksum: fnv64(&dst16),
    });
    par::set_threads(0);
    rows
}

struct Q8Row {
    m: usize,
    k: usize,
    n: usize,
    scalar_gmacs: f64,
    simd_gmacs: f64,
    checksum: u64,
}

/// Times the Q8 integer GEMM, scalar spec vs dispatched, on the conv shape
/// and the FC shape (`n = 1`). Full-range i8 operands — the wrapping-i32
/// contract has no operand precondition.
fn bench_q8() -> Vec<Q8Row> {
    let reps = 7;
    let mut rows = Vec::new();
    par::set_threads(1);
    for &(m, k, n) in &[(64usize, 576usize, 169usize), (576, 1024, 1)] {
        let mut s = 0x80_u64 + (m * k * n) as u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let a: Vec<i8> = (0..m * k).map(|_| next() as i8).collect();
        let b: Vec<i8> = (0..n * k).map(|_| next() as i8).collect();
        let bias: Vec<i32> = (0..m).map(|_| next() as i32 >> 16).collect();
        let mut c = vec![0i8; m * n];
        let macs = m as f64 * k as f64 * n as f64;
        let t_scalar =
            time_median(reps, || q8_gemm_scalar(&a, &b, &bias, &mut c, m, k, n, 5, 7, 6, true));
        let t_simd = time_median(reps, || q8_gemm(&a, &b, &bias, &mut c, m, k, n, 5, 7, 6, true));
        rows.push(Q8Row {
            m,
            k,
            n,
            scalar_gmacs: macs / t_scalar / 1e9,
            simd_gmacs: macs / t_simd / 1e9,
            checksum: fnv64_bytes(c.iter().map(|&v| v as u8)),
        });
    }
    par::set_threads(0);
    rows
}

struct QConvRow {
    app: &'static str,
    layer: String,
    m: usize,
    k: usize,
    n: usize,
    alive_blocks: usize,
    total_blocks: usize,
    skipped_macs: usize,
    /// Median µs per call: Q15 patches + dot, Q15 rows, Q8 patches + dot,
    /// Q8 rows.
    us: [f64; 4],
    checksum: u64,
}

/// Times every zoo conv layer at 50 % 4x16 block pruning in the two conv
/// forms of the host integer engines: the patch-major dot form
/// (`im2col_patches` + `q15_gemm`/`q8_gemm` on the dense weights) and the
/// row form host inference runs (`qeval::conv_rows`: row-major im2col and
/// the block kernel over the alive strips). Each layer runs on its own
/// quantized weights and calibrated formats, on one deterministic input.
/// Both forms must produce the same Q15 and Q8 outputs (asserted); the
/// checksum hashes them, so CI's cross-level compare checks it at both
/// dispatch levels too. Serial, like the other kernel rows.
fn bench_qconv() -> Vec<QConvRow> {
    let reps = 21;
    par::set_threads(1);
    let mut rows = Vec::new();
    for app in App::all() {
        let mut model = app.build();
        let masks = model.block_magnitude_masks(500_000);
        model.set_masks(&masks);
        let calib = app.dataset(8, 302);
        let q15 = QuantizedModel::quantize(&mut model, &calib, 8);
        let q8 = Quantized8Model::quantize(&mut model, &calib, 8);
        let mut ctx = ExecCtx::new();
        for op in &q15.info().graph {
            let GraphOp::Conv { layer_id, src, dst, relu, .. } = *op else { continue };
            let p = &q15.info().prunables[layer_id];
            let s = p.conv_shape().expect("conv geometry");
            let (ql, ql8) = (&q15.layers()[layer_id], &q8.layers()[layer_id]);
            let (m, k, n) = (ql.m, ql.k, s.out_hw());
            let x = fill(0.5 + layer_id as f32, s.in_len());
            let x15: Vec<i16> = x.iter().map(|&v| (v * 16384.0) as i16).collect();
            let x8: Vec<i8> = x.iter().map(|&v| (v * 96.0) as i8).collect();
            let f15 = (q15.buf_fmts()[src].frac_bits(), q15.buf_fmts()[dst].frac_bits());
            let f8 = (q8.buf_fmts()[src].frac_bits(), q8.buf_fmts()[dst].frac_bits());
            let shift = (f15.0 + ql.w_frac - ql.bias_frac) as u32;

            let mut col15 = vec![0i16; s.col_len()];
            let (mut old15, mut new15) = (vec![0i16; m * n], vec![0i16; m * n]);
            let t_old15 = time_median(reps, || {
                pack::im2col_patches(&x15, &s, &mut col15);
                let (w, b) = (&ql.w, &ql.bias);
                q15_gemm(w, &col15, b, shift, &mut old15, m, k, n, f15.0, ql.w_frac, f15.1, relu);
            });
            let t_new15 =
                time_median(reps, || conv_rows(ql, &s, &x15, &mut new15, f15, relu, &mut ctx));
            assert_eq!(old15, new15, "{} {}: Q15 conv forms differ", app.name(), p.name);

            let mut col8 = vec![0i8; s.col_len()];
            let (mut old8, mut new8) = (vec![0i8; m * n], vec![0i8; m * n]);
            let t_old8 = time_median(reps, || {
                pack::im2col_patches(&x8, &s, &mut col8);
                let (w, b) = (&ql8.w, &ql8.bias);
                q8_gemm(w, &col8, b, &mut old8, m, k, n, f8.0, ql8.w_frac, f8.1, relu);
            });
            let t_new8 =
                time_median(reps, || conv_rows(ql8, &s, &x8, &mut new8, f8, relu, &mut ctx));
            assert_eq!(old8, new8, "{} {}: Q8 conv forms differ", app.name(), p.name);

            let bytes = new15.iter().flat_map(|&v| (v as u16).to_le_bytes());
            rows.push(QConvRow {
                app: app.name(),
                layer: p.name.clone(),
                m,
                k,
                n,
                alive_blocks: ql.index.alive_blocks(),
                total_blocks: ql.index.total_blocks(),
                skipped_macs: (m * k - ql.index.alive_cells()) * n,
                us: [t_old15, t_new15, t_old8, t_new8].map(|t| t * 1e6),
                checksum: fnv64_bytes(bytes.chain(new8.iter().map(|&v| v as u8))),
            });
        }
    }
    par::set_threads(0);
    rows
}

struct E2eRow {
    engine: &'static str,
    samples: usize,
    scalar_wall_ms: f64,
    simd_wall_ms: f64,
    checksum: u64,
}

/// End-to-end quantized inference (HAR, trained 1 epoch): all samples
/// through `forward_*_with` on one recycled context, timed at the forced
/// scalar level and at the dispatched level. On a scalar-only host (or
/// under `IPRUNE_SIMD=0`) the two columns measure the same code path. The
/// logits checksum is bitwise across levels — asserted here and compared
/// across CI legs.
fn bench_quant_e2e() -> Vec<E2eRow> {
    let reps = 5;
    let app = App::Har;
    let mut model = app.build();
    let train = app.dataset(96, 300);
    train_sgd(&mut model, &train, &TrainConfig { epochs: 1, ..Default::default() });
    let eval = app.dataset(64, 301);
    let q15 = QuantizedModel::quantize(&mut model, &eval, 8);
    let q8 = Quantized8Model::quantize(&mut model, &eval, 8);
    par::set_threads(1);

    let entry = simd::simd_level();
    let run = |engine: &'static str, fwd: &dyn Fn(&mut ExecCtx) -> Vec<f32>| -> E2eRow {
        let mut ctx = ExecCtx::new();
        let t_entry = time_median(reps, || {
            let _ = fwd(&mut ctx);
        });
        let sum_entry = fnv64_f32(&fwd(&mut ctx));
        let (scalar_wall, simd_wall) = if entry == SimdLevel::Avx2 {
            simd::set_simd_level(SimdLevel::Scalar);
            let t_scalar = time_median(reps, || {
                let _ = fwd(&mut ctx);
            });
            let sum_scalar = fnv64_f32(&fwd(&mut ctx));
            simd::set_simd_level(entry);
            assert_eq!(sum_scalar, sum_entry, "{engine} e2e logits differ across dispatch levels");
            (t_scalar, t_entry)
        } else {
            (t_entry, t_entry)
        };
        E2eRow {
            engine,
            samples: eval.len(),
            scalar_wall_ms: scalar_wall * 1e3,
            simd_wall_ms: simd_wall * 1e3,
            checksum: sum_entry,
        }
    };

    let rows = vec![
        run("q15", &|ctx| {
            let mut last = Vec::new();
            for i in 0..eval.len() {
                last = q15.forward_q15_with(&eval.sample(i), ctx);
            }
            last
        }),
        run("q8", &|ctx| {
            let mut last = Vec::new();
            for i in 0..eval.len() {
                last = q8.forward_q8_with(&eval.sample(i), ctx);
            }
            last
        }),
    ];
    par::set_threads(0);
    rows
}

struct QEvalRow {
    app: &'static str,
    acc_f32: f64,
    acc_q15: f64,
    acc_q8: f64,
}

/// Trains each zoo app briefly, then evaluates the same weights through
/// the float path and both host quantized engines — the f32→Q15 accuracy
/// delta of Section IV-A plus the int8 tier, at host speed.
fn bench_q15_eval() -> Vec<QEvalRow> {
    App::all()
        .iter()
        .map(|&app| {
            let mut model = app.build();
            let train = app.dataset(96, 300);
            let eval = app.dataset(128, 301);
            train_sgd(&mut model, &train, &TrainConfig { epochs: 1, ..Default::default() });
            let acc_f32 = evaluate(&model, &eval, 16);
            let qm = QuantizedModel::quantize(&mut model, &eval, 8);
            let acc_q15 = qm.evaluate_q15(&eval);
            let qm8 = Quantized8Model::quantize(&mut model, &eval, 8);
            let acc_q8 = qm8.evaluate_q8(&eval);
            QEvalRow { app: app.name(), acc_f32, acc_q15, acc_q8 }
        })
        .collect()
}

struct SparseRow {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    sparsity: f64,
    total_blocks: usize,
    alive_blocks: usize,
    alive_cells: usize,
    skipped_macs: u64,
    t_dense: f64,
    t_sparse: f64,
}

/// A block mask over a `rows x cols` weight matrix with exactly
/// `round(total_blocks * sparsity)` dead 4x16 blocks, chosen by a
/// deterministic hash shuffle (no RNG state, no thread dependence).
fn sparse_block_mask(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Vec<f32> {
    let (br, bc) = (sparse::BLOCK_ROWS, sparse::BLOCK_COLS);
    let (nbr, nbc) = (rows.div_ceil(br), cols.div_ceil(bc));
    let total = nbr * nbc;
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| {
        let mut x = (i as u64).wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    });
    let kill = ((total as f64) * sparsity).round() as usize;
    let mut mask = vec![1.0f32; rows * cols];
    for &blk in &order[..kill.min(total)] {
        let (rb, cb) = (blk / nbc, blk % nbc);
        for i in rb * br..((rb + 1) * br).min(rows) {
            for j in cb * bc..((cb + 1) * bc).min(cols) {
                mask[i * cols + j] = 0.0;
            }
        }
    }
    mask
}

/// Times the three hot-loop sparse GEMM forms against the dense calls of
/// the same operations on the standard bench shapes, with the weight
/// operand masked at each target block sparsity. Dense calls run on the
/// same masked weights (keeping their per-element zero skip), so the
/// measured speedup is purely the structural win of iterating alive blocks
/// only. Serial (1 thread): the sparse/dense ratio is what's under test,
/// not the fan-out, and serial timings are the most stable in CI. The row
/// labels keep the names the forms had as separate kernels
/// (`matmul_acc_sparse_lhs`, ...), since the rows are fingerprinted in
/// `BENCH_HISTORY.jsonl`.
fn bench_sparse(sparsities: &[f64]) -> Vec<SparseRow> {
    let reps = 7;
    let mut rows = Vec::new();
    par::set_threads(1);
    for &s in sparsities {
        let seed = (s * 1000.0) as u64;

        // Forward conv GEMM: weight is the lhs, index over (m, k).
        {
            let (m, k, n) = (64usize, 576, 169);
            let mask = sparse_block_mask(m, k, s, 0xACC + seed);
            let mut a = fill(0.3, m * k);
            for (w, mk) in a.iter_mut().zip(&mask) {
                *w *= *mk;
            }
            let b = fill(0.7, k * n);
            let idx = SparseIndex::from_mask(&mask, m, k);
            let mut c = vec![0.0f32; m * n];
            let t_dense = time_median(reps, || matmul_acc(&a, &b, &mut c, m, k, n, None));
            let t_sparse =
                time_median(reps, || matmul_acc(&a, &b, &mut c, m, k, n, Some(Lhs(&idx))));
            rows.push(SparseRow {
                kernel: "matmul_acc_sparse_lhs",
                m,
                k,
                n,
                sparsity: s,
                total_blocks: idx.total_blocks(),
                alive_blocks: idx.alive_blocks(),
                alive_cells: idx.alive_cells(),
                skipped_macs: ((m * k - idx.alive_cells()) * n) as u64,
                t_dense,
                t_sparse,
            });
        }

        // Backward conv dX GEMM: weight is the transposed lhs, stored
        // [k x m]; index over the storage layout.
        {
            let (m, k, n) = (576usize, 64, 169);
            let mask = sparse_block_mask(k, m, s, 0xA7B + seed);
            let mut a = fill(0.3, k * m);
            for (w, mk) in a.iter_mut().zip(&mask) {
                *w *= *mk;
            }
            let b = fill(0.7, k * n);
            let idx = SparseIndex::from_mask(&mask, k, m);
            let mut c = vec![0.0f32; m * n];
            let t_dense = time_median(reps, || matmul_at_b(&a, &b, &mut c, m, k, n, None));
            let t_sparse =
                time_median(reps, || matmul_at_b(&a, &b, &mut c, m, k, n, Some(Lhs(&idx))));
            rows.push(SparseRow {
                kernel: "matmul_at_b_sparse_lhs",
                m,
                k,
                n,
                sparsity: s,
                total_blocks: idx.total_blocks(),
                alive_blocks: idx.alive_blocks(),
                alive_cells: idx.alive_cells(),
                skipped_macs: ((k * m - idx.alive_cells()) * n) as u64,
                t_dense,
                t_sparse,
            });
        }

        // Linear forward GEMM: weight is the transposed rhs [n x k];
        // index over the storage layout.
        {
            let (m, k, n) = (64usize, 169, 576);
            let mask = sparse_block_mask(n, k, s, 0xAB7 + seed);
            let a = fill(0.3, m * k);
            let mut b = fill(0.7, n * k);
            for (w, mk) in b.iter_mut().zip(&mask) {
                *w *= *mk;
            }
            let idx = SparseIndex::from_mask(&mask, n, k);
            let mut c = vec![0.0f32; m * n];
            let t_dense = time_median(reps, || matmul_a_bt(&a, &b, &mut c, m, k, n, None));
            let t_sparse =
                time_median(reps, || matmul_a_bt(&a, &b, &mut c, m, k, n, Some(Rhs(&idx))));
            rows.push(SparseRow {
                kernel: "matmul_a_bt_sparse_rhs",
                m,
                k,
                n,
                sparsity: s,
                total_blocks: idx.total_blocks(),
                alive_blocks: idx.alive_blocks(),
                alive_cells: idx.alive_cells(),
                skipped_macs: ((n * k - idx.alive_cells()) * m) as u64,
                t_dense,
                t_sparse,
            });
        }
    }
    par::set_threads(0);
    rows
}

struct PipelineRow {
    threads: usize,
    workers: usize,
    wall_s: f64,
}

/// Times the HAR smoke-scale pipeline (train → ePrune/iPrune → deploy) at
/// one effective worker count, against a cold cache so every run does the
/// same work.
fn time_pipeline(workers: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!("iprune_perf_{}_{}", std::process::id(), workers));
    par::set_threads(workers);
    let t0 = Instant::now();
    let results = run_app_pipelines(App::Har, &SMOKE, false, &dir);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(results.variants.len(), 3);
    par::set_threads(0);
    let _ = std::fs::remove_dir_all(dir);
    wall_s
}

fn main() {
    let host_cores = par::host_cores();
    let dispatch = simd::dispatch_label();
    let lanes = simd::lane_width();
    println!("Host performance — kernels and pipeline (host cores: {host_cores})");
    println!(
        "cpu: avx2={} fma={} dispatch={dispatch} lanes={lanes}",
        simd::avx2_supported(),
        fma_supported(),
    );
    println!("==================================================================");

    // Conv-shaped (SQN fire-module GEMM) and square shapes.
    let mut kernels: Vec<KernelRow> = Vec::new();
    for &threads in &[1usize, host_cores.max(2)] {
        kernels.push(bench_kernel(
            "matmul_acc",
            64,
            576,
            169,
            threads,
            matmul_acc,
            matmul_acc_ref,
            64 * 576,
            576 * 169,
        ));
        kernels.push(bench_kernel(
            "matmul_at_b",
            576,
            64,
            169,
            threads,
            matmul_at_b,
            matmul_at_b_ref,
            64 * 576,
            64 * 169,
        ));
        kernels.push(bench_kernel(
            "matmul_a_bt",
            64,
            169,
            576,
            threads,
            matmul_a_bt,
            matmul_a_bt_ref,
            64 * 169,
            576 * 169,
        ));
        kernels.push(bench_kernel(
            "matmul_acc",
            192,
            192,
            192,
            threads,
            matmul_acc,
            matmul_acc_ref,
            192 * 192,
            192 * 192,
        ));
    }

    println!(
        "{:<12} {:>4}x{:<4}x{:<4} {:>7} {:>7} {:>12} {:>12} {:>8}",
        "kernel", "m", "k", "n", "threads", "workers", "ref GF/s", "tiled GF/s", "speedup"
    );
    for r in &kernels {
        println!(
            "{:<12} {:>4}x{:<4}x{:<4} {:>7} {:>7} {:>12.2} {:>12.2} {:>7.2}x",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.threads,
            r.workers,
            r.ref_gflops,
            r.tiled_gflops,
            r.tiled_gflops / r.ref_gflops
        );
    }

    // SIMD dispatch vs scalar spec on the hot conv shape.
    let simd_rows = bench_simd_kernels();
    println!();
    println!("SIMD-dispatched vs scalar-spec kernels (serial, dispatch={dispatch}):");
    println!(
        "{:<12} {:>4}x{:<4}x{:<4} {:>13} {:>11} {:>8}",
        "kernel", "m", "k", "n", "scalar GF/s", "simd GF/s", "speedup"
    );
    for r in &simd_rows {
        println!(
            "{:<12} {:>4}x{:<4}x{:<4} {:>13.2} {:>11.2} {:>7.2}x",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.scalar_gflops,
            r.simd_gflops,
            r.simd_gflops / r.scalar_gflops
        );
        if dispatch == "avx2" {
            // the 8-lane FMA bodies must clearly beat the register-blocked
            // scalar spec; 1.5x is the regression floor (typical is >2x)
            assert!(
                r.simd_gflops / r.scalar_gflops >= 1.5,
                "SIMD kernel too slow: {} {:.2} GF/s vs scalar {:.2} GF/s",
                r.kernel,
                r.simd_gflops,
                r.scalar_gflops
            );
        }
    }

    // Q15 integer GEMM, scalar spec vs dispatched madd.
    let q15_rows = bench_q15();
    println!();
    println!("Q15 integer GEMM (serial, dispatch={dispatch}):");
    for r in &q15_rows {
        println!(
            "  {:>4}x{:<4}x{:<4} scalar {:>6.2} Gops  simd {:>6.2} Gops  ({:.2}x)  checksum {:#018x}",
            r.m,
            r.k,
            r.n,
            r.scalar_gops,
            r.simd_gops,
            r.simd_gops / r.scalar_gops,
            r.checksum
        );
    }

    // Q8 integer GEMM, scalar spec vs dispatched sign-extend+madd.
    let q8_rows = bench_q8();
    println!();
    println!("Q8 integer GEMM (serial, dispatch={dispatch}):");
    for r in &q8_rows {
        println!(
            "  {:>4}x{:<4}x{:<4} scalar {:>6.2} GMAC/s  simd {:>6.2} GMAC/s  ({:.2}x)  checksum {:#018x}",
            r.m,
            r.k,
            r.n,
            r.scalar_gmacs,
            r.simd_gmacs,
            r.simd_gmacs / r.scalar_gmacs,
            r.checksum
        );
        if dispatch == "avx2" && r.n > 1 {
            // 32 i8 lanes per madd against a scalar i32 loop: the conv-shaped
            // row must clear 2x (the FC row is latency-bound at n = 1 and
            // keeps only the bitwise contract)
            assert!(
                r.simd_gmacs / r.scalar_gmacs >= 2.0,
                "Q8 SIMD GEMM below 2x on conv shape: {:.2} vs {:.2} GMAC/s",
                r.simd_gmacs,
                r.scalar_gmacs
            );
        }
    }

    // SIMD im2col packing, both layouts.
    let im2col_rows = bench_im2col();
    println!();
    println!("im2col packing (serial, dispatch={dispatch}):");
    for r in &im2col_rows {
        println!(
            "  {:<12} scalar {:>6.2} GB/s  simd {:>6.2} GB/s  ({:.2}x)  checksum {:#018x}",
            r.layout,
            r.scalar_gbs,
            r.simd_gbs,
            r.simd_gbs / r.scalar_gbs,
            r.checksum
        );
    }

    // Vectorized max-pooling: inference, argmax (training), and quantized.
    let pool_rows = bench_pool();
    println!();
    println!("max-pool 2x2 (serial, 64 planes of 26x26, dispatch={dispatch}):");
    for r in &pool_rows {
        println!(
            "  {:<12} scalar {:>6.2} GB/s  simd {:>6.2} GB/s  ({:.2}x)  checksum {:#018x}",
            r.variant,
            r.scalar_gbs,
            r.simd_gbs,
            r.simd_gbs / r.scalar_gbs,
            r.checksum
        );
    }

    // End-to-end quantized inference at both dispatch levels.
    let e2e_rows = bench_quant_e2e();
    println!();
    println!("end-to-end quantized inference (HAR, {} samples):", e2e_rows[0].samples);
    for r in &e2e_rows {
        let speedup = r.scalar_wall_ms / r.simd_wall_ms;
        println!(
            "  {:<4} scalar {:>7.2} ms  simd {:>7.2} ms  ({:.2}x)  logits checksum {:#018x}",
            r.engine, r.scalar_wall_ms, r.simd_wall_ms, speedup, r.checksum
        );
        if dispatch == "avx2" && r.engine == "q15" {
            // the tentpole target: SIMD im2col + pooling + madd GEMM must
            // compound to >= 1.3x on the whole Q15 inference graph
            assert!(speedup >= 1.3, "Q15 end-to-end SIMD speedup below 1.3x: {speedup:.2}x");
        }
        if dispatch == "avx2" {
            // q8 on HAR is bound by per-element requantization and the
            // small-k scalar tails, so its SIMD win is thin; the guard only
            // catches a real regression, not timer noise
            assert!(
                speedup >= 0.9,
                "{} end-to-end SIMD slower than scalar: {speedup:.2}x",
                r.engine
            );
        }
    }

    // Host integer convs: the patch-major dot form vs the row form.
    let qconv_rows = bench_qconv();
    println!();
    println!("host integer convs at 50% block pruning, us per call (serial, dispatch={dispatch}):");
    println!(
        "  {:<4} {:<20} {:>4}x{:<4}x{:<4} {:>9} {:>9} {:>9} {:>9}",
        "app", "layer", "m", "k", "n", "q15 dot", "q15 rows", "q8 dot", "q8 rows"
    );
    for r in &qconv_rows {
        println!(
            "  {:<4} {:<20} {:>4}x{:<4}x{:<4} {:>9.1} {:>9.1} {:>9.1} {:>9.1}  checksum {:#018x}",
            r.app, r.layer, r.m, r.k, r.n, r.us[0], r.us[1], r.us[2], r.us[3], r.checksum
        );
    }

    // f32 vs quantized accuracy per zoo app.
    let qeval_rows = bench_q15_eval();
    println!();
    println!("f32 vs host-quantized evaluation accuracy (trained 1 epoch):");
    for r in &qeval_rows {
        let delta = (r.acc_f32 - r.acc_q15).abs();
        let delta8 = (r.acc_f32 - r.acc_q8).abs();
        println!(
            "  {:<4} f32 {:>6.4}  q15 {:>6.4}  delta {:>6.4}  q8 {:>6.4}  delta {:>6.4}",
            r.app, r.acc_f32, r.acc_q15, delta, r.acc_q8, delta8
        );
        assert!(
            delta <= 0.01 + 1e-9,
            "Q15 accuracy delta above 1% on {}: f32 {:.4} vs q15 {:.4}",
            r.app,
            r.acc_f32,
            r.acc_q15
        );
        // int8 resolution is 256x coarser than Q15; 5% is the guard rail
        assert!(
            delta8 <= 0.05 + 1e-9,
            "Q8 accuracy delta above 5% on {}: f32 {:.4} vs q8 {:.4}",
            r.app,
            r.acc_f32,
            r.acc_q8
        );
    }

    // Block-sparse kernels vs dense on masked weights.
    let sparsities = [0.3f64, 0.5, 0.8];
    let sparse_rows = bench_sparse(&sparsities);
    println!();
    println!("Block-sparse vs dense kernels (serial, 4x16 blocks, masked weights):");
    println!(
        "{:<24} {:>4}x{:<4}x{:<4} {:>8} {:>11} {:>12} {:>13} {:>8}",
        "kernel", "m", "k", "n", "sparsity", "alive blks", "dense GF/s", "sparse GF/s", "speedup"
    );
    for r in &sparse_rows {
        let flops = 2.0 * r.m as f64 * r.k as f64 * r.n as f64;
        println!(
            "{:<24} {:>4}x{:<4}x{:<4} {:>8.2} {:>5}/{:<5} {:>12.2} {:>13.2} {:>7.2}x",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.sparsity,
            r.alive_blocks,
            r.total_blocks,
            flops / r.t_dense / 1e9,
            flops / r.t_sparse / 1e9,
            r.t_dense / r.t_sparse
        );
    }
    // Aggregate GEMM-path speedup per sparsity: total dense time over
    // total sparse time across the three hot-loop kernels.
    let gemm_path: Vec<(f64, f64)> = sparsities
        .iter()
        .map(|&s| {
            let (td, ts) = sparse_rows
                .iter()
                .filter(|r| r.sparsity == s)
                .fold((0.0, 0.0), |(td, ts), r| (td + r.t_dense, ts + r.t_sparse));
            (s, td / ts)
        })
        .collect();
    for &(s, speedup) in &gemm_path {
        println!("  GEMM-path speedup at {:>3.0}% block sparsity: {speedup:.2}x", s * 100.0);
    }
    for r in &sparse_rows {
        let speedup = r.t_dense / r.t_sparse;
        if r.sparsity >= 0.7 {
            assert!(
                speedup >= 1.0,
                "sparse kernel slower than dense at {:.0}% sparsity: {} speedup {:.4}",
                r.sparsity * 100.0,
                r.kernel,
                speedup
            );
        }
        // With the strip-coalesced SIMD bodies the traversal win must show
        // up from 50% block sparsity on (scalar hosts keep the softer
        // >= 70% guard above — per-element zero skips close most of the
        // gap there).
        if dispatch == "avx2" && r.sparsity >= 0.5 {
            assert!(
                speedup >= 1.1,
                "sparse kernel below 1.1x at {:.0}% sparsity under SIMD: {} speedup {:.4}",
                r.sparsity * 100.0,
                r.kernel,
                speedup
            );
        }
    }

    // One measurement per *effective* worker count; requested counts that
    // the core cap collapses together share it.
    println!();
    println!("HAR smoke pipeline wall-clock (cold cache per effective config):");
    let mut measured: HashMap<usize, f64> = HashMap::new();
    let pipeline: Vec<PipelineRow> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let workers = threads.min(host_cores).max(1);
            let wall_s = *measured.entry(workers).or_insert_with(|| time_pipeline(workers));
            PipelineRow { threads, workers, wall_s }
        })
        .collect();
    for r in &pipeline {
        println!(
            "  threads {:>2} (workers {:>2}): {:>7.2} s  ({:.2}x vs 1 thread)",
            r.threads,
            r.workers,
            r.wall_s,
            pipeline[0].wall_s / r.wall_s
        );
    }
    for r in &pipeline {
        let speedup = pipeline[0].wall_s / r.wall_s;
        if r.threads == 2 || r.threads == 4 {
            // On a capped (single-core) host the rows share the 1-thread
            // measurement, so this is exact; with real extra cores the
            // parallel pipeline must not lose to serial.
            assert!(
                speedup >= if r.workers == 1 { 1.0 } else { 0.9 },
                "parallel pipeline regression: threads {} (workers {}) speedup {:.4}",
                r.threads,
                r.workers,
                speedup
            );
        }
    }

    // machine-readable record
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    // single line, excluded from CI's cross-dispatch byte-compare (the
    // `simd_dispatch` token is on the grep -v list)
    let _ = writeln!(
        json,
        "  \"cpu\": {{\"avx2\": {}, \"fma\": {}, \"simd_dispatch\": \"{dispatch}\", \"lanes\": {lanes}}},",
        simd::avx2_supported(),
        fma_supported(),
    );
    json.push_str("  \"simd_kernels\": [\n");
    for (i, r) in simd_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"dispatch\": \"{dispatch}\", \
             \"lanes\": {lanes}, \"scalar_gflops\": {:.4}, \"simd_gflops\": {:.4}, \"speedup\": {:.4}}}",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.scalar_gflops,
            r.simd_gflops,
            r.simd_gflops / r.scalar_gflops
        );
        json.push_str(if i + 1 < simd_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"q15_gemm\": [\n");
    for (i, r) in q15_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"scalar_gops\": {:.4}, \
             \"simd_gops\": {:.4}, \"scalar_gmacs\": {:.4}, \"simd_gmacs\": {:.4}, \
             \"speedup\": {:.4}}}",
            r.m,
            r.k,
            r.n,
            r.scalar_gops,
            r.simd_gops,
            r.scalar_gops / 2.0,
            r.simd_gops / 2.0,
            r.simd_gops / r.scalar_gops
        );
        json.push_str(if i + 1 < q15_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"q8_gemm\": [\n");
    for (i, r) in q8_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"scalar_gmacs\": {:.4}, \
             \"simd_gmacs\": {:.4}, \"speedup\": {:.4}}}",
            r.m,
            r.k,
            r.n,
            r.scalar_gmacs,
            r.simd_gmacs,
            r.simd_gmacs / r.scalar_gmacs
        );
        json.push_str(if i + 1 < q8_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Structural: the dispatched Q8 output hashed — byte-identical across
    // thread counts AND dispatch levels (the SIMD body is exact).
    json.push_str("  \"q8_checksums\": [\n");
    for (i, r) in q8_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"out_checksum\": \"{:#018x}\"}}",
            r.m, r.k, r.n, r.checksum
        );
        json.push_str(if i + 1 < q8_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"simd_im2col\": [\n");
    for (i, r) in im2col_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layout\": \"{}\", \"scalar_gbs\": {:.4}, \"simd_gbs\": {:.4}, \
             \"speedup\": {:.4}}}",
            r.layout,
            r.scalar_gbs,
            r.simd_gbs,
            r.simd_gbs / r.scalar_gbs
        );
        json.push_str(if i + 1 < im2col_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Structural: packed output hashed — im2col is pure data movement, so
    // the bytes are identical at every dispatch level and thread count.
    json.push_str("  \"im2col_checksums\": [\n");
    for (i, r) in im2col_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layout\": \"{}\", \"out_checksum\": \"{:#018x}\"}}",
            r.layout, r.checksum
        );
        json.push_str(if i + 1 < im2col_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"pool\": [\n");
    for (i, r) in pool_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"variant\": \"{}\", \"scalar_gbs\": {:.4}, \"simd_gbs\": {:.4}, \
             \"speedup\": {:.4}}}",
            r.variant,
            r.scalar_gbs,
            r.simd_gbs,
            r.simd_gbs / r.scalar_gbs
        );
        json.push_str(if i + 1 < pool_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Structural: pooled output (and argmax sum) hashed — the vector max
    // replicates scalar first-wins tie-breaking bitwise.
    json.push_str("  \"pool_checksums\": [\n");
    for (i, r) in pool_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"variant\": \"{}\", \"out_checksum\": \"{:#018x}\"}}",
            r.variant, r.checksum
        );
        json.push_str(if i + 1 < pool_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"quant_e2e\": [\n");
    for (i, r) in e2e_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"engine\": \"{}\", \"samples\": {}, \"scalar_wall_ms\": {:.4}, \
             \"simd_wall_ms\": {:.4}, \"speedup\": {:.4}}}",
            r.engine,
            r.samples,
            r.scalar_wall_ms,
            r.simd_wall_ms,
            r.scalar_wall_ms / r.simd_wall_ms
        );
        json.push_str(if i + 1 < e2e_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Structural: end-to-end logits hashed — the whole quantized graph
    // (quantize, im2col, GEMM, pool, avg, dequantize) is bitwise across
    // dispatch levels.
    json.push_str("  \"quant_e2e_checksums\": [\n");
    for (i, r) in e2e_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"engine\": \"{}\", \"samples\": {}, \"logits_checksum\": \"{:#018x}\"}}",
            r.engine, r.samples, r.checksum
        );
        json.push_str(if i + 1 < e2e_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Structural: the dispatched Q15 output hashed — byte-identical across
    // thread counts AND dispatch levels (the SIMD body is exact).
    json.push_str("  \"q15_checksums\": [\n");
    for (i, r) in q15_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"out_checksum\": \"{:#018x}\"}}",
            r.m, r.k, r.n, r.checksum
        );
        json.push_str(if i + 1 < q15_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"qconv\": [\n");
    for (i, r) in qconv_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"app\": \"{}\", \"layer\": \"{}\", \"q15_patches_us\": {:.2}, \
             \"q15_rows_us\": {:.2}, \"q15_speedup\": {:.4}, \"q8_patches_us\": {:.2}, \
             \"q8_rows_us\": {:.2}, \"q8_speedup\": {:.4}}}",
            r.app,
            r.layer,
            r.us[0],
            r.us[1],
            r.us[0] / r.us[1],
            r.us[2],
            r.us[3],
            r.us[2] / r.us[3]
        );
        json.push_str(if i + 1 < qconv_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Structural: each conv's Q15 and Q8 outputs hashed — both conv forms
    // produce them (asserted above), at every dispatch level and thread
    // count — with the blocks and MACs the row form skips.
    json.push_str("  \"qconv_checksums\": [\n");
    for (i, r) in qconv_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"app\": \"{}\", \"layer\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"alive_blocks\": {}, \"total_blocks\": {}, \"skipped_macs\": {}, \
             \"out_checksum\": \"{:#018x}\"}}",
            r.app,
            r.layer,
            r.m,
            r.k,
            r.n,
            r.alive_blocks,
            r.total_blocks,
            r.skipped_macs,
            r.checksum
        );
        json.push_str(if i + 1 < qconv_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // acc_f32 rides the float kernels, whose ULPs legitimately differ
    // across dispatch levels — the token is on CI's grep -v list; acc_q15
    // shares the line.
    json.push_str("  \"q15_eval\": [\n");
    for (i, r) in qeval_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"app\": \"{}\", \"acc_f32\": {:.4}, \"acc_q15\": {:.4}, \"delta\": {:.4}, \
             \"acc_q8\": {:.4}, \"delta_q8\": {:.4}}}",
            r.app,
            r.acc_f32,
            r.acc_q15,
            (r.acc_f32 - r.acc_q15).abs(),
            r.acc_q8,
            (r.acc_f32 - r.acc_q8).abs()
        );
        json.push_str(if i + 1 < qeval_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"kernels\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"threads\": {}, \
             \"workers\": {}, \"ref_gflops\": {:.4}, \"tiled_gflops\": {:.4}, \"speedup\": {:.4}}}",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.threads,
            r.workers,
            r.ref_gflops,
            r.tiled_gflops,
            r.tiled_gflops / r.ref_gflops
        );
        json.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Structural rows: fully deterministic (no timing), compared
    // byte-for-byte across thread counts in CI.
    json.push_str("  \"sparse_cases\": [\n");
    for (i, r) in sparse_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"sparsity\": {:.2}, \
             \"total_blocks\": {}, \"alive_blocks\": {}, \"alive_cells\": {}, \
             \"skipped_macs\": {}}}",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.sparsity,
            r.total_blocks,
            r.alive_blocks,
            r.alive_cells,
            r.skipped_macs
        );
        json.push_str(if i + 1 < sparse_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"sparse_vs_dense\": [\n");
    for (i, r) in sparse_rows.iter().enumerate() {
        let flops = 2.0 * r.m as f64 * r.k as f64 * r.n as f64;
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"sparsity\": {:.2}, \
             \"dense_gflops\": {:.4}, \"sparse_gflops\": {:.4}, \"speedup_vs_dense\": {:.4}}}",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.sparsity,
            flops / r.t_dense / 1e9,
            flops / r.t_sparse / 1e9,
            r.t_dense / r.t_sparse
        );
        json.push_str(if i + 1 < sparse_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"sparse_gemm_path\": [\n");
    for (i, &(s, speedup)) in gemm_path.iter().enumerate() {
        let _ = write!(json, "    {{\"sparsity\": {:.2}, \"gemm_path_speedup\": {speedup:.4}}}", s);
        json.push_str(if i + 1 < gemm_path.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"pipeline_har_smoke\": [\n");
    for (i, r) in pipeline.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"threads\": {}, \"workers\": {}, \"wall_s\": {:.3}, \"speedup_vs_1\": {:.4}}}",
            r.threads,
            r.workers,
            r.wall_s,
            pipeline[0].wall_s / r.wall_s
        );
        json.push_str(if i + 1 < pipeline.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out = workspace_root().join("BENCH_perf.json");
    std::fs::write(&out, &json).expect("write BENCH_perf.json");
    iprune_obs::log_info!("perf", "wrote {}", out.display());

    // Host-metrics registry accumulated over the whole bench (GEMM calls,
    // parallel-region shapes); IPRUNE_LOG=debug to see it.
    for line in iprune_obs::metrics::render_snapshot().lines() {
        iprune_obs::log_debug!("metrics", "{line}");
    }
}
