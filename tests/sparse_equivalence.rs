//! Block-sparse GEMM path: bitwise equivalence and dispatch.
//!
//! The block-sparse forms of the scalar GEMMs (`matmul_*_scalar` with a
//! `SparseOperand`) promise to be *bit-identical* to the scalar reference
//! kernels whenever the sparse operand came from a pruning mask (dead
//! blocks hold only `±0.0`), at any `IPRUNE_THREADS` setting. These tests sample random shapes and random
//! block masks — including the empty and full extremes — and compare every
//! output bit; a final end-to-end test fine-tunes and evaluates a pruned
//! model through the dense and sparse paths *as dispatched* (SIMD when the
//! host supports it) and demands bitwise-identical weights and accuracy —
//! dense calls and sparse forms share one per-element operation schedule,
//! so the guarantee survives dispatch.

use iprune_repro::models::train::{evaluate, train_sgd, TrainConfig};
use iprune_repro::models::zoo::App;
use iprune_repro::obs::metrics;
use iprune_repro::pruning::blocks::{build_states, mask_as_weight_shape};
use iprune_repro::pruning::Criterion;
use iprune_repro::tensor::layer::Param;
use iprune_repro::tensor::matmul::SparseOperand::{Lhs, Out, Rhs};
use iprune_repro::tensor::matmul::{
    matmul_a_bt, matmul_a_bt_ref, matmul_a_bt_scalar, matmul_acc, matmul_acc_ref,
    matmul_acc_scalar, matmul_at_b, matmul_at_b_ref, matmul_at_b_scalar,
};
use iprune_repro::tensor::par;
use iprune_repro::tensor::sparse::{
    dispatch_mode, set_dispatch_mode, DispatchMode, SparseIndex, SPARSE_DENSITY_THRESHOLD,
};
use iprune_repro::tensor::Tensor;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that flip the process-wide dispatch mode.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic operand with ~1/3 exact zeros (exercises the per-element
/// zero-skip inside alive blocks) and no negative zeros.
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

/// A block mask over `rows x cols` in `br x bc` blocks where each block
/// dies with probability `sparsity` (0.0 = full, 1.0 = empty).
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

/// Masks `w` in place the way `Param::set_mask` does (`*= mask`), so dead
/// entries end up `±0.0` with the sign of the original weight.
fn apply_mask(w: &mut [f32], mask: &[f32]) {
    for (v, &m) in w.iter_mut().zip(mask.iter()) {
        *v *= m;
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether `(r, c)` lies in an alive block of the mask's block grid.
fn alive_at(mask: &[f32], cols: usize, br: usize, bc: usize, r: usize, c: usize) -> bool {
    let (rb, cb) = (r / br, c / bc);
    let rows = mask.len() / cols;
    (rb * br..((rb + 1) * br).min(rows))
        .any(|rr| (cb * bc..((cb + 1) * bc).min(cols)).any(|cc| mask[rr * cols + cc] != 0.0))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Forward/input-gradient kernels (sparse operand is an input): every
    // output bit matches the scalar reference, for any shape, any block
    // geometry, and block sparsity from full (0.0) to empty (1.0).
    #[test]
    fn input_sparse_kernels_bitwise_match_reference(
        m in 1usize..28, k in 1usize..28, n in 1usize..28,
        br in 1usize..6, bc in 1usize..20,
        raw_sparsity in 0.0..1.3f64,
        seed in 0u64..1 << 32,
    ) {
        // pin the extremes often: below 0.15 -> full mask, above 1.0 -> empty
        let sparsity = if raw_sparsity < 0.15 { 0.0 } else { raw_sparsity.min(1.0) };
        // -- acc_lhs: sparse w[m x k] on the left ------------------------
        let mask = block_mask(m, k, br, bc, sparsity, seed);
        let mut w = operand(m * k, seed);
        apply_mask(&mut w, &mask);
        let idx = SparseIndex::with_blocks(&mask, m, k, br, bc);
        let x = operand(k * n, seed ^ 0xA1);
        let c0 = operand(m * n, seed ^ 0xB2);
        let mut c_ref = c0.clone();
        let mut c_sp = c0.clone();
        matmul_acc_ref(&w, &x, &mut c_ref, m, k, n);
        matmul_acc_scalar(&w, &x, &mut c_sp, m, k, n, Some(Lhs(&idx)));
        prop_assert_eq!(bits(&c_ref), bits(&c_sp), "acc_lhs {}x{}x{} s={}", m, k, n, sparsity);

        // -- at_b_lhs: the same sparse w stored [k_g x m_g], transposed --
        // gemm dims: m_g = k, k_g = m, n_g = n
        let g = operand(m * n, seed ^ 0xC3);
        let mut c_ref = operand(k * n, seed ^ 0xD4);
        let mut c_sp = c_ref.clone();
        matmul_at_b_ref(&w, &g, &mut c_ref, k, m, n);
        matmul_at_b_scalar(&w, &g, &mut c_sp, k, m, n, Some(Lhs(&idx)));
        prop_assert_eq!(bits(&c_ref), bits(&c_sp), "at_b_lhs {}x{}x{} s={}", m, k, n, sparsity);

        // -- a_bt_rhs: sparse w[m x k] as the transposed right operand ---
        // gemm dims: m_g = n, k_g = k, n_g = m
        let y = operand(n * k, seed ^ 0xE5);
        let mut c_ref = vec![0.0f32; n * m];
        let mut c_sp = c_ref.clone();
        matmul_a_bt_ref(&y, &w, &mut c_ref, n, k, m);
        matmul_a_bt_scalar(&y, &w, &mut c_sp, n, k, m, Some(Rhs(&idx)));
        prop_assert_eq!(bits(&c_ref), bits(&c_sp), "a_bt_rhs {}x{}x{} s={}", m, k, n, sparsity);

        // -- acc_rhs: sparse w[k x n] on the right -----------------------
        let mask = block_mask(k, n, br, bc, sparsity, seed ^ 0xF6);
        let mut w = operand(k * n, seed ^ 0x17);
        apply_mask(&mut w, &mask);
        let idx = SparseIndex::with_blocks(&mask, k, n, br, bc);
        let g = operand(m * k, seed ^ 0x28);
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_sp = c_ref.clone();
        matmul_acc_ref(&g, &w, &mut c_ref, m, k, n);
        matmul_acc_scalar(&g, &w, &mut c_sp, m, k, n, Some(Rhs(&idx)));
        prop_assert_eq!(bits(&c_ref), bits(&c_sp), "acc_rhs {}x{}x{} s={}", m, k, n, sparsity);
    }

    // Weight-gradient kernels (sparse operand is the *output*): alive
    // blocks match the reference bitwise, dead blocks stay untouched.
    #[test]
    fn output_sparse_kernels_bitwise_match_reference_on_alive_blocks(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        br in 1usize..6, bc in 1usize..20,
        raw_sparsity in 0.0..1.3f64,
        seed in 0u64..1 << 32,
    ) {
        let sparsity = if raw_sparsity < 0.15 { 0.0 } else { raw_sparsity.min(1.0) };
        let mask = block_mask(m, n, br, bc, sparsity, seed);
        let idx = SparseIndex::with_blocks(&mask, m, n, br, bc);

        // at_b_out: dW[m x n] += g[k x m]^T * x[k x n]
        let g = operand(k * m, seed ^ 0x31);
        let x = operand(k * n, seed ^ 0x42);
        let c0 = operand(m * n, seed ^ 0x53);
        let mut c_ref = c0.clone();
        let mut c_sp = c0.clone();
        matmul_at_b_ref(&g, &x, &mut c_ref, m, k, n);
        matmul_at_b_scalar(&g, &x, &mut c_sp, m, k, n, Some(Out(&idx)));
        for i in 0..m * n {
            if alive_at(&mask, n, br, bc, i / n, i % n) {
                prop_assert_eq!(c_ref[i].to_bits(), c_sp[i].to_bits(), "at_b_out alive {}", i);
            } else {
                prop_assert_eq!(c_sp[i].to_bits(), c0[i].to_bits(), "at_b_out dead {}", i);
            }
        }

        // a_bt_out: dW[m x n] += g[m x k] * col[n x k]^T
        let g = operand(m * k, seed ^ 0x64);
        let col = operand(n * k, seed ^ 0x75);
        let mut c_ref = c0.clone();
        let mut c_sp = c0.clone();
        matmul_a_bt_ref(&g, &col, &mut c_ref, m, k, n);
        matmul_a_bt_scalar(&g, &col, &mut c_sp, m, k, n, Some(Out(&idx)));
        for i in 0..m * n {
            if alive_at(&mask, n, br, bc, i / n, i % n) {
                prop_assert_eq!(c_ref[i].to_bits(), c_sp[i].to_bits(), "a_bt_out alive {}", i);
            } else {
                prop_assert_eq!(c_sp[i].to_bits(), c0[i].to_bits(), "a_bt_out dead {}", i);
            }
        }
    }

    // The sparse forms produce identical bits at IPRUNE_THREADS ∈
    // {1, 2, 8}. `par::set_threads` is the programmatic equivalent of the
    // env var (the override wins over the env); `set_host_cores` lifts the
    // physical-core cap so the fan-out actually happens on a 1-core CI
    // host.
    #[test]
    fn sparse_kernels_are_thread_count_invariant(
        m in 8usize..64, k in 8usize..48, n in 8usize..48,
        sparsity in 0.0..1.0f64,
        seed in 0u64..1 << 32,
    ) {
        let mask = block_mask(m, k, 4, 16, sparsity, seed);
        let mut w = operand(m * k, seed);
        apply_mask(&mut w, &mask);
        let idx = SparseIndex::from_mask(&mask, m, k);
        let x = operand(k * n, seed ^ 0xA1);
        let c0 = operand(m * n, seed ^ 0xB2);
        par::set_host_cores(8);
        par::set_threads(1);
        let mut acc1 = c0.clone();
        matmul_acc(&w, &x, &mut acc1, m, k, n, Some(Lhs(&idx)));
        let mut atb1 = vec![0.1f32; k * n];
        let g = operand(m * n, seed ^ 0xC3);
        matmul_at_b(&w, &g, &mut atb1, k, m, n, Some(Lhs(&idx)));
        let y = operand(n * k, seed ^ 0xE5);
        let mut abt1 = vec![0.0f32; n * m];
        matmul_a_bt(&y, &w, &mut abt1, n, k, m, Some(Rhs(&idx)));
        for threads in [2usize, 8] {
            par::set_threads(threads);
            let mut acc_t = c0.clone();
            matmul_acc(&w, &x, &mut acc_t, m, k, n, Some(Lhs(&idx)));
            let mut atb_t = vec![0.1f32; k * n];
            matmul_at_b(&w, &g, &mut atb_t, k, m, n, Some(Lhs(&idx)));
            let mut abt_t = vec![0.0f32; n * m];
            matmul_a_bt(&y, &w, &mut abt_t, n, k, m, Some(Rhs(&idx)));
            par::set_threads(0);
            prop_assert_eq!(bits(&acc1), bits(&acc_t), "acc_lhs at {} threads", threads);
            prop_assert_eq!(bits(&atb1), bits(&atb_t), "at_b_lhs at {} threads", threads);
            prop_assert_eq!(bits(&abt1), bits(&abt_t), "a_bt_rhs at {} threads", threads);
        }
        par::set_threads(0);
        par::set_host_cores(0);
    }
}

/// The automatic dispatch keeps dense kernels above the density threshold
/// and switches to sparse below it.
#[test]
fn dispatch_uses_dense_above_density_threshold() {
    let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(dispatch_mode(), DispatchMode::Auto, "tests must restore the mode");

    // 8x32 weight in 4x16 index blocks -> 4 blocks; 1 dead block = 25%
    // block sparsity (75% coverage, at the threshold -> dense), 2 dead =
    // 50% (below -> sparse)
    let dims = [8usize, 32];
    let dense_mask = block_mask(8, 32, 4, 16, 0.0, 1);
    let mut one_dead = dense_mask.clone();
    for r in 0..4 {
        for c in 0..16 {
            one_dead[r * 32 + c] = 0.0;
        }
    }
    let mut two_dead = one_dead.clone();
    for r in 4..8 {
        for c in 16..32 {
            two_dead[r * 32 + c] = 0.0;
        }
    }

    let mut p = Param::new(0, "t.w", Tensor::from_vec(&dims, operand(256, 9)));
    assert!(p.sparse_index().is_none(), "no mask, no index");
    assert!(p.gemm_sparse().is_none());

    p.set_mask(Tensor::from_vec(&dims, one_dead));
    let idx = p.sparse_index().expect("mask installs the index");
    assert_eq!(idx.alive_fraction(), 0.75);
    assert!(
        p.gemm_sparse().is_none(),
        "75% coverage is not below the {SPARSE_DENSITY_THRESHOLD} threshold -> dense"
    );

    p.set_mask(Tensor::from_vec(&dims, two_dead));
    assert_eq!(p.sparse_index().expect("index rebuilt").alive_fraction(), 0.5);
    assert!(p.gemm_sparse().is_some(), "50% coverage dispatches sparse");

    // force-modes override the threshold in both directions
    set_dispatch_mode(DispatchMode::ForceDense);
    assert!(p.gemm_sparse().is_none());
    set_dispatch_mode(DispatchMode::ForceSparse);
    assert!(p.gemm_sparse().is_some());
    set_dispatch_mode(DispatchMode::Auto);

    p.set_mask(Tensor::from_vec(&dims, dense_mask));
    assert!(p.gemm_sparse().is_none(), "unpruned mask stays dense");
}

/// Fine-tuning + evaluating a block-pruned model through the sparse path
/// produces bitwise-identical weights and accuracy to the dense path, and
/// the sparse kernels actually ran.
#[test]
fn pruned_train_and_evaluate_bitwise_match_dense_path() {
    let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Train a small HAR model, then block-prune ~60% of every layer on the
    // host 4x16 block grid so every prunable layer sits below the dispatch
    // threshold. (Accelerator-plan blocks are *not* aligned to the host
    // grid; scattered plan-block pruning can leave every host block alive,
    // which correctly keeps the dense path — here we want the sparse one.)
    let mut m = App::Har.build();
    let ds = App::Har.dataset(96, 11);
    train_sgd(&mut m, &ds, &TrainConfig { epochs: 1, ..Default::default() });
    let mut states =
        build_states(&mut m, Criterion::AccOutputs, &Default::default(), &Default::default());
    let mut masks = std::collections::HashMap::new();
    for state in states.iter_mut() {
        let (rows, cols) = (state.plan.m, state.plan.k);
        let grid = block_mask(rows, cols, 4, 16, 0.6, 0x5EED + state.layer_id as u64);
        state.mask.data_mut().copy_from_slice(&grid);
        masks.insert(state.layer_id, mask_as_weight_shape(state, &m));
    }
    m.set_masks(&masks);

    let ft = TrainConfig { epochs: 2, seed: 23, ..Default::default() };
    // (counter deltas, not absolutes: the property tests in this binary
    // also bump the sparse call counters concurrently)
    let calls_before = sparse_calls();

    set_dispatch_mode(DispatchMode::ForceDense);
    let mut dense = m.clone();
    let dense_loss = train_sgd(&mut dense, &ds, &ft);
    let dense_acc = evaluate(&mut dense, &ds, 16);

    set_dispatch_mode(DispatchMode::Auto);
    let mut sparse = m.clone();
    let sparse_loss = train_sgd(&mut sparse, &ds, &ft);
    let sparse_acc = evaluate(&mut sparse, &ds, 16);
    assert!(sparse_calls() > calls_before, "pruned model must dispatch sparse kernels");

    assert_eq!(dense_loss.to_bits(), sparse_loss.to_bits(), "training loss must match bitwise");
    assert_eq!(dense_acc.to_bits(), sparse_acc.to_bits(), "accuracy must match bitwise");
    let (a, b) = (dense.snapshot(), sparse.snapshot());
    assert_eq!(a.len(), b.len());
    for (ta, tb) in a.iter().zip(b.iter()) {
        let (ba, bb): (Vec<u32>, Vec<u32>) = (bits(ta.data()), bits(tb.data()));
        assert_eq!(ba, bb, "weights must match bitwise");
    }
}

/// Total calls recorded across all six sparse forms.
fn sparse_calls() -> u64 {
    ["acc_lhs", "acc_rhs", "at_b_lhs", "at_b_out", "a_bt_rhs", "a_bt_out"]
        .iter()
        .map(|k| metrics::counter(&format!("gemm.sparse.{k}_calls")).get())
        .sum()
}
