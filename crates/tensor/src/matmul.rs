//! f32 matrix multiply: one kernel per operation, dense or with one
//! block-sparse weight operand.
//!
//! The three operations are [`matmul_acc`] (`c += a·b`), [`matmul_at_b`]
//! (`c += aᵀ·b`, `a` read transposed) and [`matmul_a_bt`] (`c += a·bᵀ`,
//! `b` read transposed). Each takes an optional [`SparseOperand`]: the
//! [`SparseIndex`] of a block-pruned weight matrix and the operand it
//! describes. Block pruning (the paper's guideline 3) kills whole
//! rectangles of a weight matrix, so a pruned layer's GEMM walks only the
//! alive blocks, and a dense call is the case with no dead block: it runs
//! the same body with one full strip per block row. The prune–retrain loop
//! uses a weight matrix `W` in six roles, two per operation:
//!
//! | operation | `W` as | layer GEMM | body |
//! |---|---|---|---|
//! | `acc` | `Lhs` | conv forward | lhs body, also the dense call |
//! | `acc` | `Rhs` | linear input gradient | rhs body |
//! | `at_b` | `Lhs` (stored `[k][m]`) | conv input gradient | lhs body |
//! | `at_b` | `Out` | linear weight gradient | out body, also the dense call |
//! | `a_bt` | `Rhs` (stored `[n][k]`) | linear forward | one body for all |
//! | `a_bt` | `Out` | conv weight gradient | one body for all |
//!
//! Every body is written once for both dispatch levels
//! ([`crate::simd::simd_level`]). The levels differ only in the innermost
//! primitive: the AVX2/FMA `axpy_rows`, `axpy_cols` and `dot_tile` in
//! [`crate::simd`], or their scalar specs here. `matmul_*_scalar` runs the
//! scalar level whatever the process level is; `matmul_*_ref` are the
//! original loops, kept as the test oracle.
//!
//! # Bit-identity
//!
//! - **Scalar level ≡ reference.** Per output element, the scalar specs
//!   perform the reference's operations in its order: ascending `p`,
//!   skipping exact-zero left values in the axpy family (`acc`, `at_b`),
//!   and a dot from `+0.0` added to `c` once in `a_bt`. Dense calls and the
//!   two `Lhs` forms match the reference for any input: dead blocks hold
//!   only `±0.0` (masking leaves `±0.0`, and `v == 0.0` matches both
//!   signs), which the reference skips too. The other forms rely on one
//!   IEEE-754 fact: a chain of additions that starts at `+0.0` never
//!   produces `-0.0`, so adding a `±0.0` product never changes its bits.
//!   They match the reference when the inputs are finite (the reference
//!   turns `inf × 0` into NaN) and no accumulator under a dead block
//!   starts as `-0.0`. Both hold in the training pipeline, where
//!   activations are finite and gradient and output buffers start zeroed.
//!   An `Out` form computes the alive output entries and leaves the dead
//!   ones untouched; the optimizer masks weight gradients before use
//!   ([`crate::optim`]), so that is bit-identical end to end.
//! - **AVX2 level.** ULP-bounded against the spec, and dense ≡ sparse bit
//!   for bit on masked weights through the per-element schedule described
//!   in [`crate::simd`].
//! - **Thread-count invariant at either level.** Parallelism splits the
//!   output rows (`row_block`, whole multiples of the four-row block
//!   height); each element is produced by exactly one worker in the same
//!   op order regardless of the split, so any `IPRUNE_THREADS` gives
//!   identical bits.
//!
//! The scalar axpy spec processes up to four output rows per streamed `b`
//! row, with full-width updates that auto-vectorize, and the scalar dot
//! spec keeps a 4×4 tile of sixteen accumulators in registers. The index's
//! coalesced strips (adjacent alive blocks merged) keep the inner loops
//! long at moderate sparsity. The kernels operate on raw slices rather
//! than [`crate::Tensor`] so that the layers can multiply scratch buffers
//! (e.g. im2col matrices) without allocating tensor wrappers.

use crate::par;
use crate::simd::{self, SimdLevel};
use crate::sparse::SparseIndex;
use iprune_obs::metrics::{self, Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Output rows per register group, and the block height of a dense call.
const MR: usize = 4;
/// Columns per scalar dot tile.
const NR: usize = 4;

/// A block-pruned weight operand of a GEMM: the [`SparseIndex`] over the
/// matrix as stored, and which operand it is.
#[derive(Debug, Clone, Copy)]
pub enum SparseOperand<'a> {
    /// The left operand `a` (`acc`: `m × k`; `at_b`: stored `k × m`).
    Lhs(&'a SparseIndex),
    /// The right operand `b` (`acc`: `k × n`; `a_bt`: stored `n × k`).
    Rhs(&'a SparseIndex),
    /// The weight-shaped output `c` (`m × n`): only entries in alive
    /// blocks are computed, the others are left untouched.
    Out(&'a SparseIndex),
}

use SparseOperand::{Lhs, Out, Rhs};

/// Below this many multiply-adds a kernel stays on the calling thread; the
/// scoped spawn overhead dwarfs the work.
const PAR_FLOP_THRESHOLD: usize = 32 * 1024;

/// Picks the per-worker row-block size for an `m`-row output, rounded up to
/// whole register groups, or `m` (no split) for small problems.
fn row_block(m: usize, k: usize, n: usize) -> usize {
    if m == 0 {
        return 1;
    }
    if m * k * n < PAR_FLOP_THRESHOLD {
        return m;
    }
    let w = par::workers_for(m.div_ceil(MR));
    if w <= 1 {
        return m;
    }
    (m.div_ceil(w)).div_ceil(MR) * MR
}

/// One call counter in the host metrics registry, registered on first use.
struct Calls(&'static str, OnceLock<Arc<Counter>>);

impl Calls {
    const fn new(name: &'static str) -> Self {
        Self(name, OnceLock::new())
    }

    fn inc(&self) {
        self.1.get_or_init(|| metrics::counter(self.0)).inc();
    }
}

/// Counts a dense call and its multiply-adds (two relaxed atomic ops,
/// negligible next to the kernel). `false` when the output is empty.
fn record_dense(calls: &Calls, m: usize, k: usize, n: usize) -> bool {
    if m == 0 || n == 0 {
        return false;
    }
    static MACS: OnceLock<Arc<Histogram>> = OnceLock::new();
    calls.inc();
    MACS.get_or_init(|| metrics::histogram("gemm.macs")).record((m * k * n) as u64);
    true
}

/// Asserts that `idx` is over a `shape` matrix, then counts a sparse call:
/// its alive multiply-adds (`free` per alive cell) and the ones its dead
/// blocks skip. `false` when the output is empty.
fn record_sparse(
    calls: &Calls,
    idx: &SparseIndex,
    shape: (usize, usize),
    free: usize,
    [m, k, n]: [usize; 3],
) -> bool {
    assert_eq!((idx.rows(), idx.cols()), shape, "index shape");
    if m == 0 || n == 0 {
        return false;
    }
    static SKIPPED: OnceLock<Arc<Counter>> = OnceLock::new();
    static MACS: OnceLock<Arc<Histogram>> = OnceLock::new();
    let alive = idx.alive_cells() * free;
    calls.inc();
    SKIPPED
        .get_or_init(|| metrics::counter("gemm.sparse_skipped_macs"))
        .add((m * k * n - alive) as u64);
    MACS.get_or_init(|| metrics::histogram("gemm.sparse_macs")).record(alive as u64);
    true
}

/// `c[m][n] += a[m][k] * b[k][n]` over row-major slices, dispatched on the
/// process SIMD level, with `sparse` naming a block-pruned `a` (`Lhs`,
/// index `m × k`) or `b` (`Rhs`, index `k × n`).
///
/// The scalar path skips multiplications where the left operand is exactly
/// zero (the common case for pruned weight matrices and ReLU activations);
/// the AVX2 path is branchless — see [`crate::simd`] for the numerical
/// contract.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(m, k, n)`, the
/// index shape does not match its operand, or `sparse` is `Out`.
pub fn matmul_acc(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    acc(simd::simd_level(), a, b, c, m, k, n, sparse);
}

/// Scalar path of [`matmul_acc`] — the executable spec, bit-identical to
/// [`matmul_acc_ref`] at any thread count regardless of the SIMD dispatch
/// level (see the module docs for the sparse forms).
///
/// # Panics
///
/// Same contract as [`matmul_acc`].
pub fn matmul_acc_scalar(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    acc(SimdLevel::Scalar, a, b, c, m, k, n, sparse);
}

/// Checks and counts one [`matmul_acc`] call, then runs its body at
/// `level`.
#[allow(clippy::too_many_arguments)]
fn acc(
    level: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    static CALLS: [Calls; 3] = [
        Calls::new("gemm.acc_calls"),
        Calls::new("gemm.sparse.acc_lhs_calls"),
        Calls::new("gemm.sparse.acc_rhs_calls"),
    ];
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    match sparse {
        None => {
            if record_dense(&CALLS[0], m, k, n) {
                acc_lhs(level, None, a, b, c, m, k, n);
            }
        }
        Some(Lhs(idx)) => {
            if record_sparse(&CALLS[1], idx, (m, k), n, [m, k, n]) {
                acc_lhs(level, Some(idx), a, b, c, m, k, n);
            }
        }
        Some(Rhs(idx)) => {
            if record_sparse(&CALLS[2], idx, (k, n), m, [m, k, n]) {
                acc_rhs(level, idx, a, b, c, m, k, n);
            }
        }
        Some(Out(_)) => panic!("matmul_acc has no output-sparse form"),
    }
}

/// Body of [`matmul_acc`] with a dense or block-sparse `a`: each group of
/// output rows runs its reduction over the alive strips of its block row
/// of `a`, ascending `p`.
#[allow(clippy::too_many_arguments)]
fn acc_lhs(
    level: SimdLevel,
    idx: Option<&SparseIndex>,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let strips = Strips::new(idx, k);
    let rows_per = row_block(m, k, n);
    par::par_blocks(c, rows_per * n, |bi, c_block| {
        let i0 = bi * rows_per;
        row_groups(i0, i0 + c_block.len() / n, strips.height(), |i, g, rb| {
            let segs = strips.of(rb);
            if !segs.is_empty() {
                axpy_rows(level, a, i * k, k, 1, g, b, c_block, i - i0, n, segs, (0, n));
            }
        });
    });
}

/// Body of [`matmul_acc`] with a block-sparse `b`: per output row, in
/// ascending `p`, each nonzero `a` value updates only the alive column
/// strips of `b`'s row `p`.
#[allow(clippy::too_many_arguments)]
fn acc_rhs(
    level: SimdLevel,
    idx: &SparseIndex,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let rows_per = row_block(m, k, n);
    par::par_blocks(c, rows_per * n, |bi, c_block| {
        let i0 = bi * rows_per;
        for (ci, c_row) in c_block.chunks_exact_mut(n).enumerate() {
            for (p, &av) in a[(i0 + ci) * k..(i0 + ci + 1) * k].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for &cols in idx.strips_of(p / idx.block_height()) {
                    axpy_cols(level, av, &b[p * n..(p + 1) * n], c_row, cols);
                }
            }
        }
    });
}

/// `c[m][n] += a[k][m]ᵀ * b[k][n]`: multiplies the transpose of a row-major
/// `a` without materializing it, dispatched on the process SIMD level, with
/// `sparse` naming a block-pruned `a` (`Lhs`, index over `a` as stored,
/// `k × m`) or output (`Out`, index `m × n`). Zero entries of `a` are
/// skipped on the scalar path.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(m, k, n)`, the
/// index shape does not match its operand, or `sparse` is `Rhs`.
pub fn matmul_at_b(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    at_b(simd::simd_level(), a, b, c, m, k, n, sparse);
}

/// Scalar path of [`matmul_at_b`] — the executable spec, bit-identical to
/// [`matmul_at_b_ref`] at any thread count regardless of the SIMD dispatch
/// level (see the module docs for the sparse forms).
///
/// # Panics
///
/// Same contract as [`matmul_at_b`].
pub fn matmul_at_b_scalar(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    at_b(SimdLevel::Scalar, a, b, c, m, k, n, sparse);
}

/// Checks and counts one [`matmul_at_b`] call, then runs its body at
/// `level`.
#[allow(clippy::too_many_arguments)]
fn at_b(
    level: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    static CALLS: [Calls; 3] = [
        Calls::new("gemm.at_b_calls"),
        Calls::new("gemm.sparse.at_b_lhs_calls"),
        Calls::new("gemm.sparse.at_b_out_calls"),
    ];
    assert_eq!(a.len(), k * m, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    match sparse {
        None => {
            if record_dense(&CALLS[0], m, k, n) {
                at_b_out(level, None, a, b, c, m, k, n);
            }
        }
        Some(Lhs(idx)) => {
            if record_sparse(&CALLS[1], idx, (k, m), n, [m, k, n]) {
                at_b_lhs(level, idx, a, b, c, m, k, n);
            }
        }
        Some(Out(idx)) => {
            if record_sparse(&CALLS[2], idx, (m, n), k, [m, k, n]) {
                at_b_out(level, Some(idx), a, b, c, m, k, n);
            }
        }
        Some(Rhs(_)) => panic!("matmul_at_b has no rhs-sparse form"),
    }
}

/// Body of [`matmul_at_b`] with a block-sparse `a`: its block rows are
/// reduction ranges and its strips name output rows, so per block row the
/// worker's output rows inside each alive strip resume their chains over
/// that block row's `p` range, in ascending block-row order.
#[allow(clippy::too_many_arguments)]
fn at_b_lhs(
    level: SimdLevel,
    idx: &SparseIndex,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let br = idx.block_height();
    let rows_per = row_block(m, k, n);
    par::par_blocks(c, rows_per * n, |bi, c_block| {
        let i0 = bi * rows_per;
        let i1 = i0 + c_block.len() / n;
        for rb in 0..k.div_ceil(br) {
            let pseg = [(rb * br, ((rb + 1) * br).min(k))];
            for &(s0, s1) in idx.strips_of(rb) {
                let (mut i, hi) = (s0.max(i0), s1.min(i1));
                while i < hi {
                    let g = (hi - i).min(MR);
                    axpy_rows(level, a, i, 1, m, g, b, c_block, i - i0, n, &pseg, (0, n));
                    i += g;
                }
            }
        }
    });
}

/// Body of [`matmul_at_b`] with a dense or block-sparse output: each group
/// of output rows runs its full reduction (`a` read transposed) over the
/// alive column strips of its block row.
#[allow(clippy::too_many_arguments)]
fn at_b_out(
    level: SimdLevel,
    idx: Option<&SparseIndex>,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let strips = Strips::new(idx, n);
    let full = [(0, k)];
    let rows_per = row_block(m, k, n);
    par::par_blocks(c, rows_per * n, |bi, c_block| {
        let i0 = bi * rows_per;
        row_groups(i0, i0 + c_block.len() / n, strips.height(), |i, g, rb| {
            for &cols in strips.of(rb) {
                axpy_rows(level, a, i, 1, m, g, b, c_block, i - i0, n, &full, cols);
            }
        });
    });
}

/// `c[m][n] += a[m][k] * b[n][k]ᵀ`: multiplies by the transpose of a
/// row-major `b` without materializing it, dispatched on the process SIMD
/// level, with `sparse` naming a block-pruned `b` (`Rhs`, index over `b` as
/// stored, `n × k`) or output (`Out`, index `m × n`). Each output element
/// is a dot product of two rows, accumulated from zero and added to `c`
/// once.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(m, k, n)`, the
/// index shape does not match its operand, or `sparse` is `Lhs`.
pub fn matmul_a_bt(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    a_bt(simd::simd_level(), a, b, c, m, k, n, sparse);
}

/// Scalar path of [`matmul_a_bt`] — the executable spec, bit-identical to
/// [`matmul_a_bt_ref`] at any thread count regardless of the SIMD dispatch
/// level (see the module docs for the sparse forms).
///
/// # Panics
///
/// Same contract as [`matmul_a_bt`].
pub fn matmul_a_bt_scalar(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    a_bt(SimdLevel::Scalar, a, b, c, m, k, n, sparse);
}

/// Checks and counts one [`matmul_a_bt`] call, then runs its one body at
/// `level` for every operand form. Output rows go in groups
/// (never crossing a block row of a sparse output), and each group computes
/// column runs, each with the reduction strips it dots over: one full run
/// for a dense call; per block row of a sparse `b`, its rows over its alive
/// strips (a fully dead block row adds only `+0.0`, a no-op, so it is
/// skipped); the alive strips of a sparse output over the full reduction.
#[allow(clippy::too_many_arguments)]
fn a_bt(
    level: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    sparse: Option<SparseOperand>,
) {
    static CALLS: [Calls; 3] = [
        Calls::new("gemm.a_bt_calls"),
        Calls::new("gemm.sparse.a_bt_rhs_calls"),
        Calls::new("gemm.sparse.a_bt_out_calls"),
    ];
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    let (counted, br) = match sparse {
        None => (record_dense(&CALLS[0], m, k, n), MR),
        Some(Rhs(idx)) => (record_sparse(&CALLS[1], idx, (n, k), m, [m, k, n]), MR),
        Some(Out(idx)) => (record_sparse(&CALLS[2], idx, (m, n), k, [m, k, n]), idx.block_height()),
        Some(Lhs(_)) => panic!("matmul_a_bt has no lhs-sparse form"),
    };
    if !counted {
        return;
    }
    let full = [(0, k)];
    let rows_per = row_block(m, k, n);
    par::par_blocks(c, rows_per * n, |bi, c_block| {
        let i0 = bi * rows_per;
        row_groups(i0, i0 + c_block.len() / n, br, |i, g, rb| {
            let mut run =
                |cols, segs| dot_rows(level, a, i, g, b, cols, k, segs, c_block, i - i0, n);
            match sparse {
                Some(Rhs(idx)) => {
                    let bh = idx.block_height();
                    for jb in 0..n.div_ceil(bh) {
                        let segs = idx.strips_of(jb);
                        if !segs.is_empty() {
                            run((jb * bh, ((jb + 1) * bh).min(n)), segs);
                        }
                    }
                }
                Some(Out(idx)) => {
                    for &cols in idx.strips_of(rb) {
                        run(cols, &full);
                    }
                }
                _ => run((0, n), &full),
            }
        });
    });
}

/// Strips of the block rows of an optional index: with no index, every
/// [`MR`]-row block row is one full strip `(0, cols)`.
struct Strips<'a> {
    idx: Option<&'a SparseIndex>,
    full: [(usize, usize); 1],
}

impl<'a> Strips<'a> {
    fn new(idx: Option<&'a SparseIndex>, cols: usize) -> Self {
        Self { idx, full: [(0, cols)] }
    }

    fn height(&self) -> usize {
        self.idx.map_or(MR, SparseIndex::block_height)
    }

    /// Alive `(start, end)` column ranges of block row `rb`, ascending.
    fn of(&self, rb: usize) -> &[(usize, usize)] {
        self.idx.map_or(&self.full[..], |idx| idx.strips_of(rb))
    }
}

/// Calls `f(row, rows, rb)` for the output rows `i0..i1` in groups of at
/// most [`MR`] rows that never cross a block row of height `br`; `rb` is
/// the group's block row.
fn row_groups(i0: usize, i1: usize, br: usize, mut f: impl FnMut(usize, usize, usize)) {
    let mut i = i0;
    while i < i1 {
        let rb = i / br;
        let g = (((rb + 1) * br).min(i1) - i).min(MR);
        f(i, g, rb);
        i += g;
    }
}

// ---------------------------------------------------------------------------
// Level-dispatched primitives: the AVX2 bodies in `crate::simd`, or their
// scalar specs. The AVX2 bodies read through unchecked pointers, so each
// primitive asserts the bounds they rely on first (a few compares per call);
// the scalar specs index checked slices.
// ---------------------------------------------------------------------------

/// axpy-family update of `rows` (1..=4) output rows at columns `cols`: the
/// left value for output row `r` and reduction index `p` is
/// `a[a_base + r*a_rstride + p*a_pstride]`, the reduction runs over `segs`,
/// and `c_row0` is the first updated row of `c`. The scalar spec skips
/// exact-zero left values; the AVX2 body is branchless.
#[allow(clippy::too_many_arguments)]
fn axpy_rows(
    level: SimdLevel,
    a: &[f32],
    a_base: usize,
    a_rstride: usize,
    a_pstride: usize,
    rows: usize,
    b: &[f32],
    c: &mut [f32],
    c_row0: usize,
    n: usize,
    segs: &[(usize, usize)],
    cols: (usize, usize),
) {
    if level == SimdLevel::Avx2 {
        let p_end = segs.iter().map(|s| s.1).max().unwrap_or(0);
        assert!((1..=MR).contains(&rows) && cols.0 <= cols.1 && cols.1 <= n, "axpy_rows geometry");
        assert!(c.len() >= (c_row0 + rows) * n && b.len() >= p_end * n, "axpy_rows bounds");
        let a_last = (rows - 1) * a_rstride + p_end.saturating_sub(1) * a_pstride;
        assert!(p_end == 0 || a_base + a_last < a.len(), "axpy_rows lhs bounds");
        // SAFETY: avx2+fma hold at this level, and the asserts above bound
        // every row, reduction index and column the body touches.
        #[cfg(target_arch = "x86_64")]
        return unsafe {
            simd::avx2::axpy_rows(
                a, a_base, a_rstride, a_pstride, rows, b, c, c_row0, n, segs, cols,
            )
        };
    }
    let (j0, j1) = cols;
    for &(p0, p1) in segs {
        for p in p0..p1 {
            let b_run = &b[p * n + j0..p * n + j1];
            for r in 0..rows {
                let av = a[a_base + r * a_rstride + p * a_pstride];
                if av == 0.0 {
                    continue;
                }
                let c0 = (c_row0 + r) * n;
                for (c_v, &b_v) in c[c0 + j0..c0 + j1].iter_mut().zip(b_run) {
                    *c_v += av * b_v;
                }
            }
        }
    }
}

/// `c_row[j] += av * b_row[j]` for `j` in `cols`: one left value's update
/// of one output row.
fn axpy_cols(level: SimdLevel, av: f32, b_row: &[f32], c_row: &mut [f32], cols: (usize, usize)) {
    if level == SimdLevel::Avx2 {
        let in_bounds = cols.0 <= cols.1 && cols.1 <= c_row.len();
        assert!(in_bounds && c_row.len() <= b_row.len(), "axpy_cols bounds");
        // SAFETY: avx2+fma hold at this level, and the assert above bounds
        // every column the body touches in both rows.
        #[cfg(target_arch = "x86_64")]
        return unsafe { simd::avx2::axpy_cols(av, b_row, c_row, cols) };
    }
    for (c_v, &b_v) in c_row[cols.0..cols.1].iter_mut().zip(&b_row[cols.0..cols.1]) {
        *c_v += av * b_v;
    }
}

/// Dot-family update of `rows` (1..=4) output rows, `a` rows from
/// `a_row0` and `c` rows from `c_row0`, at columns `cols` (the same rows
/// of `b`): `c[r][j] += Σ_{p in segs} a[r][p] * b[j][p]`, each dot summed
/// from `+0.0` and added once.
#[allow(clippy::too_many_arguments)]
fn dot_rows(
    level: SimdLevel,
    a: &[f32],
    a_row0: usize,
    rows: usize,
    b: &[f32],
    cols: (usize, usize),
    k: usize,
    segs: &[(usize, usize)],
    c: &mut [f32],
    c_row0: usize,
    n: usize,
) {
    let (mut j, j1) = cols;
    if level == SimdLevel::Avx2 {
        let p_end = segs.iter().map(|s| s.1).max().unwrap_or(0);
        assert!((1..=MR).contains(&rows) && p_end <= k && j1 <= n, "dot_rows geometry");
        let in_bounds = a.len() >= (a_row0 + rows) * k && b.len() >= j1 * k;
        assert!(in_bounds && c.len() >= (c_row0 + rows) * n, "dot_rows bounds");
        #[cfg(target_arch = "x86_64")]
        {
            while j < j1 {
                let cg = (j1 - j).min(2);
                // SAFETY: avx2+fma hold at this level, and the asserts
                // above bound every row, reduction index and column the
                // tile touches.
                unsafe {
                    simd::avx2::dot_tile(a, a_row0, rows, b, j, cg, k, segs, c, c_row0, j, n)
                };
                j += cg;
            }
            return;
        }
    }
    while j < j1 {
        let cg = (j1 - j).min(NR);
        if rows == MR && cg == NR {
            // 4×4 register tile: sixteen independent accumulator chains
            let mut t = [[0.0f32; NR]; MR];
            for &(p0, p1) in segs {
                for p in p0..p1 {
                    let av: [f32; MR] = std::array::from_fn(|r| a[(a_row0 + r) * k + p]);
                    let bv: [f32; NR] = std::array::from_fn(|jj| b[(j + jj) * k + p]);
                    for (row, &x) in t.iter_mut().zip(&av) {
                        for (tv, &y) in row.iter_mut().zip(&bv) {
                            *tv += x * y;
                        }
                    }
                }
            }
            for (r, row) in t.iter().enumerate() {
                for (jj, &tv) in row.iter().enumerate() {
                    c[(c_row0 + r) * n + j + jj] += tv;
                }
            }
        } else {
            for r in 0..rows {
                for jj in j..j + cg {
                    let mut acc = 0.0f32;
                    for &(p0, p1) in segs {
                        for p in p0..p1 {
                            acc += a[(a_row0 + r) * k + p] * b[jj * k + p];
                        }
                    }
                    c[(c_row0 + r) * n + jj] += acc;
                }
            }
        }
        j += cg;
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the original (pre-tiling) loops, kept
// as the executable specification: the kernels above must match them bit
// for bit at the scalar level, and the perf bench reports the dispatched
// speedup against them.
// ---------------------------------------------------------------------------

/// Scalar reference for [`matmul_acc`]; same contract, `i-k-j` loop order.
pub fn matmul_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// Scalar reference for [`matmul_at_b`]; same contract, `k`-outer loop.
pub fn matmul_at_b_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            if a_pi == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_pi * b_v;
            }
        }
    }
}

/// Scalar reference for [`matmul_a_bt`]; same contract, dot-product loops.
pub fn matmul_a_bt_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            c[i * n + j] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn transpose(a: &[f32], r: usize, c: usize) -> Vec<f32> {
        let mut t = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                t[j * r + i] = a[i * c + j];
            }
        }
        t
    }

    fn arb(m: usize, n: usize, seed: f32) -> Vec<f32> {
        (0..m * n).map(|i| ((i as f32 * 0.37 + seed).sin() * 3.0).round() / 4.0).collect()
    }

    #[test]
    fn matmul_acc_matches_naive() {
        let (m, k, n) = (4, 5, 3);
        let a = arb(m, k, 0.1);
        let b = arb(k, n, 0.9);
        let mut c = vec![0.0; m * n];
        matmul_acc(&a, &b, &mut c, m, k, n, None);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_acc_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 0.0, 0.0, 2.0];
        let mut c = vec![1.0; 4];
        matmul_acc(&a, &b, &mut c, 2, 2, 2, None);
        assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn matmul_at_b_matches_naive() {
        let (m, k, n) = (3, 6, 4);
        let at = arb(k, m, 0.2); // stored as [k][m]
        let b = arb(k, n, 0.5);
        let mut c = vec![0.0; m * n];
        matmul_at_b(&at, &b, &mut c, m, k, n, None);
        let a = transpose(&at, k, m);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_a_bt_matches_naive() {
        let (m, k, n) = (2, 7, 5);
        let a = arb(m, k, 0.3);
        let bt = arb(n, k, 0.8); // stored as [n][k]
        let mut c = vec![0.0; m * n];
        matmul_a_bt(&a, &bt, &mut c, m, k, n, None);
        let b = transpose(&bt, n, k);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// The tiled kernels must reproduce the scalar reference kernels bit for
    /// bit across tile-aligned and ragged shapes, with and without zeros,
    /// for every thread count.
    #[test]
    fn tiled_kernels_bitwise_match_reference() {
        let shapes =
            [(1, 1, 1), (4, 4, 4), (8, 16, 12), (5, 7, 9), (13, 3, 17), (16, 32, 16), (33, 19, 29)];
        for &(m, k, n) in &shapes {
            let mut a = arb(m, k, 0.11);
            let b = arb(k, n, 0.77);
            // inject exact zeros to exercise the skip path
            for (i, v) in a.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            let at = transpose(&a, m, k); // [k][m]
            let bt = transpose(&b, k, n); // [n][k]
            let c0 = arb(m, n, 0.42);

            for threads in [1usize, 2, 4] {
                crate::par::set_threads(threads);

                let mut c_ref = c0.clone();
                matmul_acc_ref(&a, &b, &mut c_ref, m, k, n);
                let mut c_tiled = c0.clone();
                matmul_acc_scalar(&a, &b, &mut c_tiled, m, k, n, None);
                assert_eq!(bits(&c_ref), bits(&c_tiled), "acc {m}x{k}x{n} t={threads}");

                let mut c_ref = c0.clone();
                matmul_at_b_ref(&at, &b, &mut c_ref, m, k, n);
                let mut c_tiled = c0.clone();
                matmul_at_b_scalar(&at, &b, &mut c_tiled, m, k, n, None);
                assert_eq!(bits(&c_ref), bits(&c_tiled), "at_b {m}x{k}x{n} t={threads}");

                let mut c_ref = c0.clone();
                matmul_a_bt_ref(&a, &bt, &mut c_ref, m, k, n);
                let mut c_tiled = c0.clone();
                matmul_a_bt_scalar(&a, &bt, &mut c_tiled, m, k, n, None);
                assert_eq!(bits(&c_ref), bits(&c_tiled), "a_bt {m}x{k}x{n} t={threads}");
            }
            crate::par::set_threads(0);
        }
    }

    /// Above the parallel threshold the row-block split must not change a
    /// single bit.
    #[test]
    fn large_parallel_matmul_is_thread_count_invariant() {
        let (m, k, n) = (61, 33, 47); // > PAR_FLOP_THRESHOLD, ragged
        let a = arb(m, k, 0.21);
        let b = arb(k, n, 0.63);
        crate::par::set_threads(1);
        let mut c1 = vec![0.5f32; m * n];
        matmul_acc_scalar(&a, &b, &mut c1, m, k, n, None);
        crate::par::set_threads(4);
        let mut c4 = vec![0.5f32; m * n];
        matmul_acc_scalar(&a, &b, &mut c4, m, k, n, None);
        crate::par::set_threads(0);
        assert_eq!(bits(&c1), bits(&c4));
        let mut c_ref = vec![0.5f32; m * n];
        matmul_acc_ref(&a, &b, &mut c_ref, m, k, n);
        assert_eq!(bits(&c_ref), bits(&c1));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn matmul_acc_bad_dims_panics() {
        let mut c = vec![0.0; 4];
        matmul_acc(&[1.0], &[1.0; 4], &mut c, 2, 2, 2, None);
    }
}
