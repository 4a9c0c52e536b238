//! Property tests for the blocked GEMM kernels.
//!
//! The dispatched kernels ([`matmul_acc`], [`matmul_at_b`], [`matmul_a_bt`])
//! promise to agree with a naive triple loop numerically at any dispatch
//! level, and their scalar paths (`matmul_*_scalar`) to agree with the
//! scalar reference kernels *bitwise* at any thread count. These
//! properties sample arbitrary shapes — including the
//! degenerate ones (single rows, single columns, sizes that don't divide
//! the 4-row quad) — with sparse operands, since the zero-skip path is the
//! part most likely to diverge.

use iprune_repro::tensor::matmul::{
    matmul_a_bt, matmul_a_bt_ref, matmul_a_bt_scalar, matmul_acc, matmul_acc_ref,
    matmul_acc_scalar, matmul_at_b, matmul_at_b_ref, matmul_at_b_scalar,
};
use iprune_repro::tensor::par;
use proptest::prelude::*;

/// Naive `c += a[m][k] * b[k][n]`, j-innermost: the order-free ground truth.
fn naive_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                c[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
}

/// Naive `c += a[k][m]ᵀ * b[k][n]`.
fn naive_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                c[i * n + j] += a[p * m + i] * b[p * n + j];
            }
        }
    }
}

/// Naive `c += a[m][k] * b[n][k]ᵀ`.
fn naive_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                c[i * n + j] += a[i * k + p] * b[j * k + p];
            }
        }
    }
}

/// Fills a deterministic pseudo-random operand with ~1/3 exact zeros so the
/// kernels' zero-skip branch is exercised on every case.
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn acc_matches_naive_and_reference(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1 << 32) {
        let a = operand(m * k, seed);
        let b = operand(k * n, seed ^ 0xABCD);
        let mut c_naive = operand(m * n, seed ^ 0x55);
        let mut c_ref = c_naive.clone();
        let mut c_scalar = c_naive.clone();
        let mut c_tiled = c_naive.clone();
        naive_acc(&a, &b, &mut c_naive, m, k, n);
        matmul_acc_ref(&a, &b, &mut c_ref, m, k, n);
        matmul_acc_scalar(&a, &b, &mut c_scalar, m, k, n, None);
        matmul_acc(&a, &b, &mut c_tiled, m, k, n, None);
        prop_assert_eq!(bits(&c_scalar), bits(&c_ref), "acc bitwise vs reference at {}x{}x{}", m, k, n);
        for (t, g) in c_tiled.iter().zip(c_naive.iter()) {
            prop_assert!((t - g).abs() <= 1e-5, "acc vs naive at {}x{}x{}: {} vs {}", m, k, n, t, g);
        }
    }

    #[test]
    fn at_b_matches_naive_and_reference(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1 << 32) {
        let a = operand(k * m, seed);
        let b = operand(k * n, seed ^ 0xABCD);
        let mut c_naive = operand(m * n, seed ^ 0x55);
        let mut c_ref = c_naive.clone();
        let mut c_scalar = c_naive.clone();
        let mut c_tiled = c_naive.clone();
        naive_at_b(&a, &b, &mut c_naive, m, k, n);
        matmul_at_b_ref(&a, &b, &mut c_ref, m, k, n);
        matmul_at_b_scalar(&a, &b, &mut c_scalar, m, k, n, None);
        matmul_at_b(&a, &b, &mut c_tiled, m, k, n, None);
        prop_assert_eq!(bits(&c_scalar), bits(&c_ref), "at_b bitwise vs reference at {}x{}x{}", m, k, n);
        for (t, g) in c_tiled.iter().zip(c_naive.iter()) {
            prop_assert!((t - g).abs() <= 1e-5, "at_b vs naive at {}x{}x{}: {} vs {}", m, k, n, t, g);
        }
    }

    #[test]
    fn a_bt_matches_naive_and_reference(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1 << 32) {
        let a = operand(m * k, seed);
        let b = operand(n * k, seed ^ 0xABCD);
        let mut c_naive = operand(m * n, seed ^ 0x55);
        let mut c_ref = c_naive.clone();
        let mut c_scalar = c_naive.clone();
        let mut c_tiled = c_naive.clone();
        naive_a_bt(&a, &b, &mut c_naive, m, k, n);
        matmul_a_bt_ref(&a, &b, &mut c_ref, m, k, n);
        matmul_a_bt_scalar(&a, &b, &mut c_scalar, m, k, n, None);
        matmul_a_bt(&a, &b, &mut c_tiled, m, k, n, None);
        prop_assert_eq!(bits(&c_scalar), bits(&c_ref), "a_bt bitwise vs reference at {}x{}x{}", m, k, n);
        for (t, g) in c_tiled.iter().zip(c_naive.iter()) {
            prop_assert!((t - g).abs() <= 1e-5, "a_bt vs naive at {}x{}x{}: {} vs {}", m, k, n, t, g);
        }
    }

    #[test]
    fn kernels_are_thread_count_invariant(m in 1usize..48, k in 1usize..32, n in 1usize..32, seed in 0u64..1 << 32) {
        let a = operand(m * k, seed);
        let b = operand(k * n, seed ^ 0xABCD);
        let base = operand(m * n, seed ^ 0x55);
        let mut serial = base.clone();
        par::set_threads(1);
        matmul_acc(&a, &b, &mut serial, m, k, n, None);
        for threads in [2usize, 4] {
            let mut c = base.clone();
            par::set_threads(threads);
            matmul_acc(&a, &b, &mut c, m, k, n, None);
            par::set_threads(0);
            prop_assert_eq!(bits(&c), bits(&serial), "{} threads at {}x{}x{}", threads, m, k, n);
        }
        par::set_threads(0);
    }
}
