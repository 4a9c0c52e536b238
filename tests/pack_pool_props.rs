//! Property tests for the packing ([`pack`]) and pooling ([`pool`]) kernels
//! and the int8 GEMM.
//!
//! Three contracts, sampled over arbitrary geometries:
//!
//! * im2col (both layouts) is pure data movement, so the dispatched kernel
//!   is *bitwise* equal to the scalar spec at the ambient dispatch level —
//!   including strides, asymmetric padding, and windows that only overlap
//!   the input through the padding. Its f32 adjoint, col2im, is bitwise
//!   equal to its spec too, accumulating onto a nonzero buffer: on every
//!   conv of the three zoo models and on random stride-1 same-width
//!   geometries (the shifted-plane bodies), 1-wide planes and kernels as
//!   wide as the padded input included. On the same geometries the
//!   row-major im2col of i16 and i8 data (the host Q15/Q8 conv layout)
//!   equals its scalar spec and the transpose of the patch-major spec.
//! * max-pooling agrees with a naive per-window reference for square and
//!   rectangular windows, ignores odd tails (rows/columns that don't fill
//!   a window), records first-wins argmax offsets, and routes gradients
//!   back through exactly those offsets; the i16 and i8 pools agree with
//!   the per-window integer max.
//! * the Q8 GEMM's dispatched body is bitwise equal to the wrapping-i32
//!   scalar spec on full-range i8 operands.

use iprune_repro::models::arch::PrunableKind;
use iprune_repro::models::zoo::App;
use iprune_repro::tensor::pack::{
    col2im_f32, col2im_f32_scalar, im2col_patches, im2col_patches_scalar, im2col_rows,
    im2col_rows_scalar, ConvShape, PackElem,
};
use iprune_repro::tensor::pool::{
    maxpool2d_backward_f32, maxpool2d_f32, maxpool2d_f32_argmax, maxpool2d_f32_scalar,
    maxpool2d_i16, maxpool2d_i8,
};
use iprune_repro::tensor::qgemm::{q8_gemm, q8_gemm_scalar};
use proptest::prelude::*;

/// Deterministic operand in (-0.5, 0.5) with ~1/4 exact zeros.
fn operand(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s & 3 == 0 {
                0.0
            } else {
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            }
        })
        .collect()
}

/// Naive im2col in the row-major `[k, out_hw]` layout (the f32 GEMM side).
fn naive_im2col_rows(src: &[f32], s: &ConvShape) -> Vec<f32> {
    let mut col = vec![0.0f32; s.col_len()];
    let n = s.out_hw();
    for c in 0..s.cin {
        for ky in 0..s.kh {
            for kx in 0..s.kw {
                let row = (c * s.kh + ky) * s.kw + kx;
                for oy in 0..s.out_h {
                    for ox in 0..s.out_w {
                        let iy = (oy * s.stride + ky) as isize - s.pad_h as isize;
                        let ix = (ox * s.stride + kx) as isize - s.pad_w as isize;
                        if iy >= 0 && iy < s.in_h as isize && ix >= 0 && ix < s.in_w as isize {
                            col[row * n + oy * s.out_w + ox] =
                                src[(c * s.in_h + iy as usize) * s.in_w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    col
}

/// Naive max-pool with first-wins argmax, the reference for both the
/// scalar spec and the vector paths.
fn naive_pool(src: &[f32], h: usize, w: usize, kh: usize, kw: usize) -> (Vec<f32>, Vec<usize>) {
    let (ho, wo) = (h / kh, w / kw);
    let mut dst = vec![0.0f32; ho * wo];
    let mut arg = vec![0usize; ho * wo];
    for oy in 0..ho {
        for ox in 0..wo {
            let mut best = f32::NEG_INFINITY;
            let mut best_off = 0;
            for ky in 0..kh {
                for kx in 0..kw {
                    let off = (oy * kh + ky) * w + ox * kw + kx;
                    if src[off] > best {
                        best = src[off];
                        best_off = off;
                    }
                }
            }
            dst[oy * wo + ox] = best;
            arg[oy * wo + ox] = best_off;
        }
    }
    (dst, arg)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The shape whose output size follows from the rest.
fn conv_shape(
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

/// Checks, bit for bit, that the dispatched im2col equals its scalar spec
/// and that the dispatched col2im equals its spec when both accumulate onto
/// the same nonzero input-gradient buffer; then that the row-major im2col
/// of the same input quantized to i16 and to i8 equals its spec and the
/// transpose of the patch-major spec. Every destination starts filled
/// with a different value, so an element a body forgets to write shows.
fn check_pack_and_unpack(s: &ConvShape, seed: u64) {
    let src = operand(s.in_len(), seed);
    let mut got = vec![0.125f32; s.col_len()];
    im2col_rows(&src, s, &mut got);
    let mut spec = vec![0.25f32; s.col_len()];
    im2col_rows_scalar(&src, s, &mut spec);
    assert_eq!(bits(&got), bits(&spec), "im2col {s:?}");
    let src_i16: Vec<i16> = src.iter().map(|&v| (v * 65535.0) as i16).collect();
    check_int_rows(s, &src_i16, [3, 5, 9]);
    let src_i8: Vec<i8> = src.iter().map(|&v| (v * 255.0) as i8).collect();
    check_int_rows(s, &src_i8, [3, 5, 9]);

    let grad_col = operand(s.col_len(), seed ^ 0xC0FFEE);
    let start: Vec<f32> = operand(s.in_len(), seed ^ 0xBEEF).iter().map(|v| v + 1.0).collect();
    let mut gx = start.clone();
    col2im_f32(&grad_col, s, &mut gx);
    let mut gx_spec = start;
    col2im_f32_scalar(&grad_col, s, &mut gx_spec);
    assert_eq!(bits(&gx), bits(&gx_spec), "col2im {s:?}");
}

/// The row-major im2col of integer data equals its scalar spec and the
/// transpose of the patch-major spec; `fills` start the three
/// destinations at distinct values.
fn check_int_rows<T: PackElem + PartialEq + std::fmt::Debug>(
    s: &ConvShape,
    src: &[T],
    fills: [T; 3],
) {
    let mut got = vec![fills[0]; s.col_len()];
    im2col_rows(src, s, &mut got);
    let mut spec = vec![fills[1]; s.col_len()];
    im2col_rows_scalar(src, s, &mut spec);
    assert_eq!(got, spec, "integer rows {s:?}");
    let mut patches = vec![fills[2]; s.col_len()];
    im2col_patches_scalar(src, s, &mut patches);
    let (k, n) = (s.k(), s.out_hw());
    for ki in 0..k {
        for j in 0..n {
            assert_eq!(got[ki * n + j], patches[j * k + ki], "transpose {s:?} at ({ki}, {j})");
        }
    }
}

/// Every conv geometry of the three zoo models. SQN's stride-2 first conv
/// takes the per-output-row run bodies; every other conv (HAR's 3×1, the
/// 3×3-pad-1 and 1×1 convs) is stride-1 same-width and takes the
/// shifted-plane bodies, so both are exercised.
#[test]
fn zoo_conv_geometries_pack_and_unpack_bitwise() {
    let mut shapes = Vec::new();
    for app in App::all() {
        for p in &app.build().info.prunables {
            if let PrunableKind::Conv { cin, kh, kw, stride, pad_h, pad_w, in_h, in_w, .. } = p.kind
            {
                shapes.push(conv_shape(cin, (kh, kw), stride, (pad_h, pad_w), (in_h, in_w)));
            }
        }
    }
    assert_eq!(shapes.len(), 11 + 3 + 2, "SQN, HAR and CKS convs");
    let same_width = shapes.iter().filter(|s| s.stride == 1 && s.out_w == s.in_w).count();
    assert_eq!(same_width, shapes.len() - 1, "only SQN's stride-2 conv1 is not same-width");
    for (i, s) in shapes.iter().enumerate() {
        check_pack_and_unpack(s, 0x5EED + i as u64);
    }
}

proptest! {
    // Random stride-1 same-width geometries (`kw = 2*pad_w + 1`), the
    // shifted-plane case: 1-wide planes, kernels as wide or tall as the
    // padded input, rows and columns entirely in the padding.
    #[test]
    fn same_width_stride1_pack_and_unpack_bitwise(
        cin in 1usize..4,
        kh in 1usize..6,
        pad_h in 0usize..4,
        pad_w in 0usize..3,
        extra_h in 0usize..7,
        in_w in 1usize..10,
        seed in 0u64..1 << 32,
    ) {
        let kw = 2 * pad_w + 1;
        let in_h = (kh.saturating_sub(2 * pad_h)).max(1) + extra_h;
        let s = conv_shape(cin, (kh, kw), 1, (pad_h, pad_w), (in_h, in_w));
        prop_assert_eq!(s.out_w, s.in_w);
        check_pack_and_unpack(&s, seed);
    }

    // col2im matches its spec bitwise over arbitrary conv geometry, strided
    // and asymmetric included (the per-output-row run bodies).
    #[test]
    fn col2im_matches_scalar_spec(
        cin in 1usize..4,
        kh in 1usize..6,
        kw in 1usize..6,
        stride in 1usize..4,
        pad_h in 0usize..3,
        pad_w in 0usize..3,
        extra_h in 0usize..8,
        extra_w in 0usize..8,
        seed in 0u64..1 << 32,
    ) {
        let in_h = (kh.saturating_sub(2 * pad_h)).max(1) + extra_h;
        let in_w = (kw.saturating_sub(2 * pad_w)).max(1) + extra_w;
        let s = conv_shape(cin, (kh, kw), stride, (pad_h, pad_w), (in_h, in_w));
        check_pack_and_unpack(&s, seed);
    }

    // Both im2col layouts match their naive references bitwise at the
    // ambient dispatch level, over arbitrary conv geometry.
    #[test]
    fn im2col_matches_naive_reference(
        cin in 1usize..4,
        kh in 1usize..5,
        kw in 1usize..5,
        stride in 1usize..3,
        pad_h in 0usize..3,
        pad_w in 0usize..3,
        extra_h in 0usize..8,
        extra_w in 0usize..8,
        seed in 0u64..1 << 32,
    ) {
        // guarantee at least one output position: in + 2*pad >= k
        let in_h = (kh.saturating_sub(2 * pad_h)).max(1) + extra_h;
        let in_w = (kw.saturating_sub(2 * pad_w)).max(1) + extra_w;
        let s = ConvShape {
            cin, kh, kw, stride, pad_h, pad_w, in_h, in_w,
            out_h: (in_h + 2 * pad_h - kh) / stride + 1,
            out_w: (in_w + 2 * pad_w - kw) / stride + 1,
        };
        let src = operand(s.in_len(), seed);
        let want = naive_im2col_rows(&src, &s);

        let mut rows = vec![0.125f32; s.col_len()];
        im2col_rows(&src, &s, &mut rows);
        prop_assert_eq!(bits(&rows), bits(&want));
        let mut rows_spec = vec![0.25f32; s.col_len()];
        im2col_rows_scalar(&src, &s, &mut rows_spec);
        prop_assert_eq!(bits(&rows_spec), bits(&want));

        // patch layout is the transpose of the row layout
        let src_i16: Vec<i16> = src.iter().map(|&v| (v * 32767.0) as i16).collect();
        let mut patches = vec![3i16; s.col_len()];
        im2col_patches(&src_i16, &s, &mut patches);
        let mut patches_spec = vec![9i16; s.col_len()];
        im2col_patches_scalar(&src_i16, &s, &mut patches_spec);
        prop_assert_eq!(&patches, &patches_spec);
        let (k, n) = (s.k(), s.out_hw());
        for ki in 0..k {
            for j in 0..n {
                let w16 = (want[ki * n + j] * 32767.0) as i16;
                prop_assert_eq!(patches[j * k + ki], w16);
            }
        }
    }

    // Pool forward/argmax/backward agree with the naive reference for
    // square and rectangular windows; odd tail rows/columns are ignored.
    #[test]
    fn pool_forward_backward_matches_naive(
        h in 1usize..17,
        w in 1usize..33,
        kh in 1usize..4,
        kw in 1usize..4,
        seed in 0u64..1 << 32,
    ) {
        let (kh, kw) = (kh.min(h), kw.min(w));
        let (ho, wo) = (h / kh, w / kw);
        let src = operand(h * w, seed);
        let (want, want_arg) = naive_pool(&src, h, w, kh, kw);

        let mut dst = vec![-2.0f32; ho * wo];
        maxpool2d_f32(&src, h, w, kh, kw, &mut dst);
        prop_assert_eq!(bits(&dst), bits(&want));
        let mut spec = vec![-3.0f32; ho * wo];
        maxpool2d_f32_scalar(&src, h, w, kh, kw, &mut spec);
        prop_assert_eq!(bits(&spec), bits(&want));

        let mut arg = vec![usize::MAX; ho * wo];
        let mut arg_dst = vec![0.0f32; ho * wo];
        maxpool2d_f32_argmax(&src, h, w, kh, kw, &mut arg_dst, &mut arg);
        prop_assert_eq!(bits(&arg_dst), bits(&want));
        prop_assert_eq!(&arg, &want_arg);
        for (o, &a) in arg.iter().enumerate() {
            prop_assert_eq!(src[a].to_bits(), want[o].to_bits());
        }

        // backward scatters each upstream gradient to its argmax source
        let grad = operand(ho * wo, seed ^ 0x5A5A);
        let mut gx = vec![0.0f32; h * w];
        maxpool2d_backward_f32(&arg, &grad, &mut gx);
        let mut want_gx = vec![0.0f32; h * w];
        for (o, &a) in want_arg.iter().enumerate() {
            want_gx[a] += grad[o];
        }
        prop_assert_eq!(bits(&gx), bits(&want_gx));

        // integer pooling agrees with f32 pooling on integral data
        let src_i16: Vec<i16> = src.iter().map(|&v| (v * 1000.0) as i16).collect();
        let mut dst16 = vec![0i16; ho * wo];
        maxpool2d_i16(&src_i16, h, w, kh, kw, &mut dst16);
        let src_i8: Vec<i8> = src.iter().map(|&v| (v * 255.0) as i8).collect();
        let mut dst8 = vec![0i8; ho * wo];
        maxpool2d_i8(&src_i8, h, w, kh, kw, &mut dst8);
        for (o, (&d, &d8)) in dst16.iter().zip(&dst8).enumerate() {
            let (mut best, mut best8) = (i16::MIN, i8::MIN);
            let (oy, ox) = (o / wo, o % wo);
            for ky in 0..kh {
                for kx in 0..kw {
                    best = best.max(src_i16[(oy * kh + ky) * w + ox * kw + kx]);
                    best8 = best8.max(src_i8[(oy * kh + ky) * w + ox * kw + kx]);
                }
            }
            prop_assert_eq!(d, best);
            prop_assert_eq!(d8, best8);
        }
    }

    // The dispatched Q8 GEMM equals the wrapping-i32 scalar spec bitwise
    // on full-range operands, with and without ReLU.
    #[test]
    fn q8_gemm_matches_scalar_spec(
        m in 1usize..6,
        k in 1usize..130,
        n in 1usize..6,
        in_frac in 0u8..8,
        w_frac in 0u8..8,
        out_frac in 0u8..8,
        relu in any::<bool>(),
        seed in 0u64..1 << 32,
    ) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let a: Vec<i8> = (0..m * k).map(|_| next() as i8).collect();
        let b: Vec<i8> = (0..n * k).map(|_| next() as i8).collect();
        let bias: Vec<i32> = (0..m).map(|_| next() as i32 >> 12).collect();
        let mut c = vec![0i8; m * n];
        let mut c_spec = vec![0i8; m * n];
        q8_gemm(&a, &b, &bias, &mut c, m, k, n, in_frac, w_frac, out_frac, relu);
        q8_gemm_scalar(&a, &b, &bias, &mut c_spec, m, k, n, in_frac, w_frac, out_frac, relu);
        prop_assert_eq!(&c, &c_spec);
        if relu {
            prop_assert!(c.iter().all(|&v| v >= 0));
        }
    }
}
