//! Host-side block-sparse (BSR) index over pruned weight matrices, and the
//! policy that decides when a layer's GEMMs use it.
//!
//! Block pruning (the paper's guideline 3) kills whole rectangles of a
//! weight matrix at once; at the paper's final densities (~20–35 %) most of
//! a dense GEMM's traversal would walk pruned values. This module keeps the
//! host's counterpart of the device-side `BsrMatrix` (`iprune-hawaii`): a
//! [`SparseIndex`] of alive blocks built from a parameter's pruning mask,
//! on the host's own 4×16 block grid. The GEMMs in [`crate::matmul`] take
//! it as an optional [`crate::matmul::SparseOperand`] and iterate only the
//! alive blocks; see that module for the six roles one index serves and
//! for the bit-identity contract.
//!
//! The index keeps the *coalesced* alive strips of each block row: runs
//! of adjacent alive blocks merged into one `(c0, c1)` cell range. The
//! kernels iterate strips, so at moderate sparsity (where most blocks
//! survive and neighbors are usually alive) the inner loops stream over
//! long contiguous ranges instead of re-entering the loop nest every 16
//! columns. Merging adjacent segments keeps the traversal order
//! identical, so bit-identity is unaffected.
//!
//! [`dispatched`] is the one dispatch decision (density threshold or a
//! forced [`DispatchMode`]) and [`weight_index`] the one index builder;
//! `Param` and the sensitivity probes' `WeightOverride` both use them.
//!
//! The same index also serves the host Q15/Q8 engines (`models::qeval`):
//! each quantized layer builds one from its quantized weights' nonzeros
//! at quantize time ([`SparseIndex::from_mask`] takes any element type),
//! and each conv runs the block kernels ([`crate::qgemm::q15_block_acc`],
//! [`crate::qgemm::q8_block_acc`]) once per alive strip of each block row
//! ([`SparseIndex::strips_of`]), so all-zero blocks cost nothing there
//! either. That path has no density threshold: an exact integer sum is
//! the same however many blocks it skips.

use crate::Tensor;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Host block height of a [`SparseIndex`]: matches the 4-row register
/// groups of the GEMM kernels, so worker row splits align with block rows.
pub const BLOCK_ROWS: usize = 4;

/// Host block width of a [`SparseIndex`]: wide enough that a dead block
/// skips a full cache line of traversal, narrow enough that the
/// accelerator-operation pruning blocks rarely leave a partially-dead host
/// block alive.
pub const BLOCK_COLS: usize = 16;

/// Alive-fraction threshold of the automatic dispatch: below this the
/// layers route GEMMs through the sparse forms, at or above it they stay
/// dense. 0.75 keeps the first pruning iterations (≥ 30 % block sparsity)
/// on the sparse path while barely-pruned models avoid the index-walk
/// overhead.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.75;

/// How layer GEMMs choose between the dense and sparse forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Density-threshold dispatch (the default): sparse below
    /// [`SPARSE_DENSITY_THRESHOLD`], dense otherwise.
    Auto,
    /// Always use the dense forms (differential testing / benchmarking).
    ForceDense,
    /// Always use the sparse forms when an index exists.
    ForceSparse,
}

/// Process-wide dispatch mode (0 = auto, 1 = dense, 2 = sparse).
static MODE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide GEMM dispatch mode.
pub fn set_dispatch_mode(mode: DispatchMode) {
    let bits = match mode {
        DispatchMode::Auto => 0,
        DispatchMode::ForceDense => 1,
        DispatchMode::ForceSparse => 2,
    };
    MODE.store(bits, Ordering::Relaxed);
}

/// The current GEMM dispatch mode.
pub fn dispatch_mode() -> DispatchMode {
    match MODE.load(Ordering::Relaxed) {
        1 => DispatchMode::ForceDense,
        2 => DispatchMode::ForceSparse,
        _ => DispatchMode::Auto,
    }
}

/// `idx` when the current [`DispatchMode`] routes the GEMMs over it
/// through the sparse forms: always under `ForceSparse`, never under
/// `ForceDense`, and under `Auto` when its alive-block coverage is below
/// [`SPARSE_DENSITY_THRESHOLD`].
pub fn dispatched(idx: Option<&SparseIndex>) -> Option<&SparseIndex> {
    let idx = idx?;
    match dispatch_mode() {
        DispatchMode::ForceDense => None,
        DispatchMode::ForceSparse => Some(idx),
        DispatchMode::Auto => idx.below_dispatch_threshold().then_some(idx),
    }
}

/// The index of a weight's pruning `mask`, over the weight viewed as a
/// `dims[0] × (numel / dims[0])` matrix — the shape every GEMM call site
/// uses. `None` for a weight without rows.
pub fn weight_index(mask: &Tensor) -> Option<Arc<SparseIndex>> {
    let rows = *mask.dims().first()?;
    if rows == 0 {
        return None;
    }
    Some(Arc::new(SparseIndex::from_mask(mask.data(), rows, mask.numel() / rows)))
}

/// A block-sparse index over a pruning mask: which [`BLOCK_ROWS`] ×
/// [`BLOCK_COLS`] blocks of the `rows × cols` weight matrix still contain
/// any alive weight, kept as the alive strips of each block row. It
/// stores no values — the kernels read the weights from the dense buffer,
/// which is what keeps them bit-identical to the dense reference.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseIndex {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    /// Number of alive blocks.
    alive_blocks: usize,
    /// Coalesced alive strips: runs of adjacent alive blocks merged into
    /// one `(c0, c1)` cell range (clamped to `cols`), ascending per block
    /// row. `strip_ptr[rb]..strip_ptr[rb+1]` indexes the strips of
    /// block-row `rb`.
    strips: Vec<(usize, usize)>,
    strip_ptr: Vec<u32>,
    /// Matrix cells covered by alive blocks (edge blocks clamped).
    alive_cells: usize,
}

impl SparseIndex {
    /// Builds the index from a flat row-major mask with the default host
    /// block shape. An entry equal to `T::default()` (`0.0`, either sign,
    /// for an f32 mask; `0` for quantized weights) is pruned; a block is
    /// alive when any entry in it is not.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != rows * cols`.
    pub fn from_mask<T: Copy + Default + PartialEq>(mask: &[T], rows: usize, cols: usize) -> Self {
        Self::with_blocks(mask, rows, cols, BLOCK_ROWS, BLOCK_COLS)
    }

    /// Builds the index with an explicit block shape (tests exercise
    /// non-default shapes; the layers always use [`Self::from_mask`]).
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != rows * cols` or a block dimension is zero.
    pub fn with_blocks<T: Copy + Default + PartialEq>(
        mask: &[T],
        rows: usize,
        cols: usize,
        br: usize,
        bc: usize,
    ) -> Self {
        assert!(br > 0 && bc > 0, "block dims must be positive");
        assert_eq!(mask.len(), rows * cols, "mask length");
        let rbs = rows.div_ceil(br);
        let cbs = cols.div_ceil(bc);
        let mut alive_blocks = 0usize;
        let mut strips: Vec<(usize, usize)> = Vec::new();
        let mut strip_ptr = Vec::with_capacity(rbs + 1);
        let mut alive_cells = 0usize;
        strip_ptr.push(0u32);
        for rb in 0..rbs {
            let r1 = ((rb + 1) * br).min(rows);
            let row_strip0 = strips.len();
            for cb in 0..cbs {
                let c0 = cb * bc;
                let c1 = (c0 + bc).min(cols);
                let alive = (rb * br..r1)
                    .any(|r| mask[r * cols + c0..r * cols + c1].iter().any(|&v| v != T::default()));
                if alive {
                    alive_blocks += 1;
                    alive_cells += (r1 - rb * br) * (c1 - c0);
                    let in_row = strips.len() > row_strip0;
                    match strips.last_mut() {
                        Some(last) if in_row && last.1 == c0 => last.1 = c1,
                        _ => strips.push((c0, c1)),
                    }
                }
            }
            strip_ptr.push(strips.len() as u32);
        }
        Self { rows, cols, br, bc, alive_blocks, strips, strip_ptr, alive_cells }
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block height.
    pub fn block_height(&self) -> usize {
        self.br
    }

    /// Block width.
    pub fn block_width(&self) -> usize {
        self.bc
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.br)
    }

    /// Number of blocks in the full grid.
    pub fn total_blocks(&self) -> usize {
        self.rows.div_ceil(self.br) * self.cols.div_ceil(self.bc)
    }

    /// Number of alive blocks.
    pub fn alive_blocks(&self) -> usize {
        self.alive_blocks
    }

    /// Matrix cells covered by alive blocks.
    pub fn alive_cells(&self) -> usize {
        self.alive_cells
    }

    /// Fraction of matrix cells covered by alive blocks (1.0 for an empty
    /// matrix, which no kernel traverses anyway).
    pub fn alive_fraction(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            1.0
        } else {
            self.alive_cells as f64 / total as f64
        }
    }

    /// Whether the automatic dispatch would pick the sparse GEMM forms.
    pub fn below_dispatch_threshold(&self) -> bool {
        self.alive_fraction() < SPARSE_DENSITY_THRESHOLD
    }

    /// Coalesced alive strips of block-row `rb` as `(col_start, col_end)`
    /// cell ranges, ascending and disjoint (adjacent alive blocks merged).
    pub fn strips_of(&self, rb: usize) -> &[(usize, usize)] {
        &self.strips[self.strip_ptr[rb] as usize..self.strip_ptr[rb + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::SparseOperand::{Lhs, Out, Rhs};
    use crate::matmul::{
        matmul_a_bt_ref, matmul_a_bt_scalar, matmul_acc_ref, matmul_acc_scalar, matmul_at_b_ref,
        matmul_at_b_scalar,
    };

    fn arb(len: usize, seed: f32) -> Vec<f32> {
        (0..len).map(|i| ((i as f32 * 0.37 + seed).sin() * 3.0).round() / 4.0).collect()
    }

    /// A block mask over an `m × k` grid: block `(rb, cb)` of shape
    /// `br × bc` is dead when its hash is below `sparsity`.
    fn block_mask(m: usize, k: usize, br: usize, bc: usize, sparsity: f64, seed: u64) -> Vec<f32> {
        let mut mask = vec![1.0f32; m * k];
        for rb in 0..m.div_ceil(br) {
            for cb in 0..k.div_ceil(bc) {
                let h = (rb as u64 * 1_000_003 + cb as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed);
                if ((h >> 32) as f64 / (1u64 << 32) as f64) < sparsity {
                    for r in rb * br..((rb + 1) * br).min(m) {
                        for c in cb * bc..((cb + 1) * bc).min(k) {
                            mask[r * k + c] = 0.0;
                        }
                    }
                }
            }
        }
        mask
    }

    fn apply(w: &mut [f32], mask: &[f32]) {
        for (v, &m) in w.iter_mut().zip(mask.iter()) {
            *v *= m;
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn index_counts_alive_blocks_and_cells() {
        // 6x10 grid, 4x16 blocks -> 2 block rows x 1 block col
        let mut mask = vec![0.0f32; 60];
        mask[5] = 1.0; // row 0 -> block row 0 alive
        let idx = SparseIndex::from_mask(&mask, 6, 10);
        assert_eq!(idx.total_blocks(), 2);
        assert_eq!(idx.alive_blocks(), 1);
        assert_eq!(idx.alive_cells(), 4 * 10);
        assert!(idx.below_dispatch_threshold());
        let full = SparseIndex::from_mask(&vec![1.0; 60], 6, 10);
        assert_eq!(full.alive_blocks(), 2);
        assert_eq!(full.alive_cells(), 60);
        assert!((full.alive_fraction() - 1.0).abs() < 1e-12);
        assert!(!full.below_dispatch_threshold());
        let empty = SparseIndex::from_mask(&vec![0.0; 60], 6, 10);
        assert_eq!(empty.alive_blocks(), 0);
        assert_eq!(empty.alive_fraction(), 0.0);
    }

    #[test]
    fn integer_nonzeros_build_the_same_index_as_their_mask() {
        // block (0, 0) of the 8x40 matrix is all zero, the rest alive
        let w: Vec<i8> =
            (0..8 * 40).map(|i| if i / 40 < 4 && i % 40 < 16 { 0 } else { 3 }).collect();
        let mask: Vec<f32> = w.iter().map(|&v| if v == 0 { 0.0 } else { 1.0 }).collect();
        let idx = SparseIndex::from_mask(&w, 8, 40);
        assert_eq!(idx, SparseIndex::from_mask(&mask, 8, 40));
        assert_eq!((idx.alive_blocks(), idx.total_blocks()), (5, 6));
        assert_eq!((idx.strips_of(0), idx.strips_of(1)), (&[(16, 40)][..], &[(0, 40)][..]));
        let dead = SparseIndex::from_mask(&[0i16; 12], 3, 4);
        assert_eq!((dead.alive_blocks(), dead.strips_of(0)), (0, &[][..]));
    }

    #[test]
    fn negative_zero_mask_entries_count_as_dead() {
        let mask = vec![-0.0f32, 0.0, 0.0, 0.0];
        let idx = SparseIndex::from_mask(&mask, 2, 2);
        assert_eq!(idx.alive_blocks(), 0);
    }

    #[test]
    fn sparse_kernels_bitwise_match_reference_across_shapes() {
        let shapes = [(1, 1, 1), (4, 16, 4), (8, 32, 12), (5, 7, 9), (13, 33, 17), (23, 40, 19)];
        for &(m, k, n) in &shapes {
            for sparsity in [0.0, 0.5, 1.0] {
                let mask = block_mask(m, k, BLOCK_ROWS, BLOCK_COLS, sparsity, 7);
                let mut w = arb(m * k, 0.11);
                // exercise the per-element skip inside alive blocks too
                for (i, v) in w.iter_mut().enumerate() {
                    if i % 5 == 0 {
                        *v = 0.0;
                    }
                }
                apply(&mut w, &mask);
                let idx = SparseIndex::from_mask(&mask, m, k);
                let x = arb(k * n, 0.77);
                let c0 = arb(m * n, 0.42);

                // acc_lhs: w[m x k] on the left
                let mut c_ref = c0.clone();
                matmul_acc_ref(&w, &x, &mut c_ref, m, k, n);
                let mut c_sp = c0.clone();
                matmul_acc_scalar(&w, &x, &mut c_sp, m, k, n, Some(Lhs(&idx)));
                assert_eq!(bits(&c_ref), bits(&c_sp), "acc_lhs {m}x{k}x{n} s={sparsity}");

                // at_b_lhs: w stored [m x k], traversed transposed -> output k x n...
                // here a = w as [k_gemm=m][m_gemm=k]
                let mut c_ref = arb(k * n, 0.33);
                let mut c_sp = c_ref.clone();
                let g = arb(m * n, 0.5);
                matmul_at_b_ref(&w, &g, &mut c_ref, k, m, n);
                matmul_at_b_scalar(&w, &g, &mut c_sp, k, m, n, Some(Lhs(&idx)));
                assert_eq!(bits(&c_ref), bits(&c_sp), "at_b_lhs {m}x{k}x{n} s={sparsity}");

                // a_bt_rhs: w [m x k] as the transposed right operand
                let y = arb(n * k, 0.9);
                let mut c_ref = vec![0.0f32; n * m];
                let mut c_sp = c_ref.clone();
                matmul_a_bt_ref(&y, &w, &mut c_ref, n, k, m);
                matmul_a_bt_scalar(&y, &w, &mut c_sp, n, k, m, Some(Rhs(&idx)));
                assert_eq!(bits(&c_ref), bits(&c_sp), "a_bt_rhs {m}x{k}x{n} s={sparsity}");
            }
        }
    }

    #[test]
    fn output_sparse_kernels_match_reference_on_alive_blocks() {
        let (m, k, n) = (11, 9, 37);
        let mask = block_mask(m, n, BLOCK_ROWS, BLOCK_COLS, 0.5, 3);
        let idx = SparseIndex::from_mask(&mask, m, n);
        let g = arb(k * m, 0.2); // [k][m] for at_b
        let x = arb(k * n, 0.6);
        let mut c_ref = vec![0.0f32; m * n];
        matmul_at_b_ref(&g, &x, &mut c_ref, m, k, n);
        let mut c_sp = vec![0.0f32; m * n];
        matmul_at_b_scalar(&g, &x, &mut c_sp, m, k, n, Some(Out(&idx)));
        for (i, (&r, &s)) in c_ref.iter().zip(c_sp.iter()).enumerate() {
            if mask_covering(&idx, i / n, i % n) {
                assert_eq!(r.to_bits(), s.to_bits(), "alive entry {i}");
            } else {
                assert_eq!(s, 0.0, "dead entry {i} must stay untouched");
            }
        }

        let a = arb(m * k, 0.4);
        let bt = arb(n * k, 0.8);
        let mut c_ref = vec![0.0f32; m * n];
        matmul_a_bt_ref(&a, &bt, &mut c_ref, m, k, n);
        let mut c_sp = vec![0.0f32; m * n];
        matmul_a_bt_scalar(&a, &bt, &mut c_sp, m, k, n, Some(Out(&idx)));
        for (i, (&r, &s)) in c_ref.iter().zip(c_sp.iter()).enumerate() {
            if mask_covering(&idx, i / n, i % n) {
                assert_eq!(r.to_bits(), s.to_bits(), "alive entry {i}");
            } else {
                assert_eq!(s, 0.0, "dead entry {i} must stay untouched");
            }
        }
    }

    /// Whether `(r, c)` lies in an alive block of `idx`.
    fn mask_covering(idx: &SparseIndex, r: usize, c: usize) -> bool {
        idx.strips_of(r / idx.br).iter().any(|&(c0, c1)| c >= c0 && c < c1)
    }

    #[test]
    fn acc_rhs_matches_reference_on_zeroed_output() {
        let (m, k, n) = (7, 12, 35);
        let mask = block_mask(k, n, BLOCK_ROWS, BLOCK_COLS, 0.6, 11);
        let mut w = arb(k * n, 0.15);
        apply(&mut w, &mask);
        let idx = SparseIndex::from_mask(&mask, k, n);
        let g = arb(m * k, 0.25);
        let mut c_ref = vec![0.0f32; m * n];
        matmul_acc_ref(&g, &w, &mut c_ref, m, k, n);
        let mut c_sp = vec![0.0f32; m * n];
        matmul_acc_scalar(&g, &w, &mut c_sp, m, k, n, Some(Rhs(&idx)));
        assert_eq!(bits(&c_ref), bits(&c_sp));
    }

    #[test]
    fn sparse_kernels_are_thread_count_invariant() {
        let (m, k, n) = (61, 48, 47); // > parallel threshold, ragged rows
        let mask = block_mask(m, k, BLOCK_ROWS, BLOCK_COLS, 0.7, 5);
        let mut w = arb(m * k, 0.21);
        apply(&mut w, &mask);
        let idx = SparseIndex::from_mask(&mask, m, k);
        let x = arb(k * n, 0.63);
        crate::par::set_threads(1);
        let mut c1 = vec![0.25f32; m * n];
        matmul_acc_scalar(&w, &x, &mut c1, m, k, n, Some(Lhs(&idx)));
        crate::par::set_threads(4);
        let mut c4 = vec![0.25f32; m * n];
        matmul_acc_scalar(&w, &x, &mut c4, m, k, n, Some(Lhs(&idx)));
        crate::par::set_threads(0);
        assert_eq!(bits(&c1), bits(&c4));
    }

    #[test]
    fn dispatch_mode_roundtrip() {
        let before = dispatch_mode();
        set_dispatch_mode(DispatchMode::ForceDense);
        assert_eq!(dispatch_mode(), DispatchMode::ForceDense);
        set_dispatch_mode(DispatchMode::ForceSparse);
        assert_eq!(dispatch_mode(), DispatchMode::ForceSparse);
        set_dispatch_mode(before);
    }

    #[test]
    #[should_panic(expected = "index shape")]
    fn shape_mismatch_panics() {
        let idx = SparseIndex::from_mask(&[1.0; 4], 2, 2);
        let mut c = vec![0.0; 9];
        matmul_acc_scalar(&[1.0; 9], &[1.0; 9], &mut c, 3, 3, 3, Some(Lhs(&idx)));
    }
}
