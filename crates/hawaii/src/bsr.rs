//! Block Compressed Sparse Row (BSR) weight storage.
//!
//! The paper integrates BSR into HAWAII to store pruned weight matrices
//! (Section III-D): three one-dimensional arrays — the nonzero weight
//! blocks, and two index arrays (block column indices and block-row
//! pointers) that jointly locate each nonzero block in the original matrix.
//! Inference progress is then jointly indicated by the current indices into
//! these arrays plus the preserved job counter.
//!
//! Block shape equals the accelerator-operation granularity chosen by the
//! tile planner: `br` output features × `bc` reduction elements. Each
//! stored block is also one [`Segment`] of the shared Q15 block kernel
//! (`qgemm::q15_block_acc`), so an output tile adds its whole block row in
//! one kernel call over [`BsrMatrix::row_segments`].

use iprune_tensor::qgemm::Segment;
use iprune_tensor::quant::QFormat;

/// A quantized weight matrix in BSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct BsrMatrix {
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    /// Block-row pointers: `row_ptr[rb]..row_ptr[rb+1]` indexes the nonzero
    /// blocks of block-row `rb` in `col_idx`/`blocks`.
    row_ptr: Vec<u32>,
    /// Block column index of each stored block.
    col_idx: Vec<u32>,
    /// Stored blocks, each `br*bc` values row-major (edge blocks are
    /// zero-padded).
    blocks: Vec<i16>,
    /// Each stored block as a kernel segment into `blocks` (row stride
    /// `bc`): its offset, its first reduction column, and its `cols`
    /// columns inside the matrix.
    segs: Vec<Segment>,
    format: QFormat,
}

impl BsrMatrix {
    /// Builds a BSR matrix from a dense row-major i16 matrix, dropping
    /// all-zero blocks.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != rows * cols` or a block dimension is zero.
    pub fn from_dense(
        dense: &[i16],
        rows: usize,
        cols: usize,
        br: usize,
        bc: usize,
        format: QFormat,
    ) -> Self {
        assert!(br > 0 && bc > 0, "block dims must be positive");
        assert_eq!(dense.len(), rows * cols, "dense matrix size");
        let rbs = rows.div_ceil(br);
        let cbs = cols.div_ceil(bc);
        let mut row_ptr = Vec::with_capacity(rbs + 1);
        let mut col_idx = Vec::new();
        let mut blocks = Vec::new();
        let mut segs = Vec::new();
        row_ptr.push(0u32);
        let mut buf = vec![0i16; br * bc];
        for rb in 0..rbs {
            for cb in 0..cbs {
                let mut nonzero = false;
                for (bi, slot) in buf.iter_mut().enumerate() {
                    let r = rb * br + bi / bc;
                    let c = cb * bc + bi % bc;
                    let v = if r < rows && c < cols { dense[r * cols + c] } else { 0 };
                    *slot = v;
                    nonzero |= v != 0;
                }
                if nonzero {
                    col_idx.push(cb as u32);
                    segs.push(Segment {
                        w: blocks.len(),
                        x: cb * bc,
                        cols: bc.min(cols - cb * bc),
                    });
                    blocks.extend_from_slice(&buf);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self { rows, cols, br, bc, row_ptr, col_idx, blocks, segs, format }
    }

    /// Reconstructs the dense row-major matrix.
    pub fn to_dense(&self) -> Vec<i16> {
        let mut dense = vec![0i16; self.rows * self.cols];
        for rb in 0..self.block_rows() {
            for slot in self.row_ptr[rb]..self.row_ptr[rb + 1] {
                let cb = self.col_idx[slot as usize] as usize;
                let block = self.block(slot as usize);
                for (bi, &v) in block.iter().enumerate() {
                    let r = rb * self.br + bi / self.bc;
                    let c = cb * self.bc + bi % self.bc;
                    if r < self.rows && c < self.cols {
                        dense[r * self.cols + c] = v;
                    }
                }
            }
        }
        dense
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block height (output features per block).
    pub fn block_height(&self) -> usize {
        self.br
    }

    /// Block width (reduction elements per block).
    pub fn block_width(&self) -> usize {
        self.bc
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.br)
    }

    /// Number of stored (nonzero) blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of stored blocks in block-row `rb`.
    pub fn row_nnz(&self, rb: usize) -> usize {
        (self.row_ptr[rb + 1] - self.row_ptr[rb]) as usize
    }

    /// Iterates `(slot, block_col)` pairs of block-row `rb`.
    pub fn row_blocks_iter(&self, rb: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.row_ptr[rb]..self.row_ptr[rb + 1])
            .map(move |s| (s as usize, self.col_idx[s as usize] as usize))
    }

    /// The `i`-th stored block of block-row `rb` as `(slot, block_col)`, or
    /// `None` past the row's end. O(1): the same pair as
    /// `row_blocks_iter(rb).nth(i)` without walking the row.
    pub fn row_block(&self, rb: usize, i: usize) -> Option<(usize, usize)> {
        let slot = self.row_ptr[rb] as usize + i;
        (slot < self.row_ptr[rb + 1] as usize).then(|| (slot, self.col_idx[slot] as usize))
    }

    /// The values of stored block `slot` (`br*bc`, row-major).
    pub fn block(&self, slot: usize) -> &[i16] {
        &self.blocks[slot * self.br * self.bc..(slot + 1) * self.br * self.bc]
    }

    /// Every stored block's values, slot after slot: the weights
    /// [`Self::row_segments`] point into, with row stride `bc`.
    pub fn blocks(&self) -> &[i16] {
        &self.blocks
    }

    /// The stored blocks of block-row `rb` as block-kernel segments, in
    /// slot order: offset into [`Self::blocks`], first reduction column,
    /// and the block's columns inside the matrix.
    pub fn row_segments(&self, rb: usize) -> &[Segment] {
        &self.segs[self.row_ptr[rb] as usize..self.row_ptr[rb + 1] as usize]
    }

    /// The fixed-point format of the stored values.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Number of nonzero weight values actually stored (excludes padding
    /// zeros inside kept blocks).
    pub fn nnz_values(&self) -> usize {
        self.blocks.iter().filter(|&&v| v != 0).count()
    }

    /// On-device storage footprint in bytes: 2 bytes per stored block value
    /// plus 2-byte entries for both index arrays.
    pub fn storage_bytes(&self) -> usize {
        self.blocks.len() * 2 + self.col_idx.len() * 2 + self.row_ptr.len() * 2
    }

    /// Bytes of a dense (non-BSR) representation of the same matrix.
    pub fn dense_bytes(&self) -> usize {
        self.rows * self.cols * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fmt() -> QFormat {
        QFormat::new(12)
    }

    #[test]
    fn dense_roundtrip_small() {
        let dense: Vec<i16> = vec![
            1, 2, 0, 0, //
            3, 4, 0, 0, //
            0, 0, 0, 5, //
            0, 0, 6, 7,
        ];
        let bsr = BsrMatrix::from_dense(&dense, 4, 4, 2, 2, fmt());
        assert_eq!(bsr.nnz_blocks(), 2);
        assert_eq!(bsr.to_dense(), dense);
    }

    #[test]
    fn zero_matrix_has_no_blocks() {
        let bsr = BsrMatrix::from_dense(&[0i16; 24], 4, 6, 2, 3, fmt());
        assert_eq!(bsr.nnz_blocks(), 0);
        assert_eq!(bsr.to_dense(), vec![0i16; 24]);
        assert_eq!(bsr.storage_bytes(), (bsr.block_rows() + 1) * 2);
    }

    #[test]
    fn ragged_edges_are_padded() {
        // 3x5 matrix with 2x2 blocks: edge blocks are partial
        let mut dense = vec![0i16; 15];
        dense[14] = 9; // row 2, col 4 — bottom-right corner
        let bsr = BsrMatrix::from_dense(&dense, 3, 5, 2, 2, fmt());
        assert_eq!(bsr.nnz_blocks(), 1);
        assert_eq!(bsr.to_dense(), dense);
    }

    #[test]
    fn sparse_storage_is_smaller_dense_storage_is_not() {
        let mut dense = vec![0i16; 64 * 64];
        for i in 0..16 {
            dense[i * 64 + i] = 1; // a few diagonal blocks
        }
        let bsr = BsrMatrix::from_dense(&dense, 64, 64, 4, 4, fmt());
        assert!(bsr.storage_bytes() < bsr.dense_bytes() / 4);
        let full: Vec<i16> = (0..64 * 64).map(|i| (i % 7 + 1) as i16).collect();
        let bsr_full = BsrMatrix::from_dense(&full, 64, 64, 4, 4, fmt());
        assert!(bsr_full.storage_bytes() > bsr_full.dense_bytes());
    }

    #[test]
    fn row_iteration_matches_row_ptr() {
        let dense: Vec<i16> = vec![
            1, 0, 0, 2, //
            0, 0, 0, 0, //
            0, 3, 0, 0, //
            0, 0, 0, 0,
        ];
        let bsr = BsrMatrix::from_dense(&dense, 4, 4, 2, 2, fmt());
        let row0: Vec<usize> = bsr.row_blocks_iter(0).map(|(_, cb)| cb).collect();
        assert_eq!(row0, vec![0, 1]);
        let row1: Vec<usize> = bsr.row_blocks_iter(1).map(|(_, cb)| cb).collect();
        assert_eq!(row1, vec![0]);
        assert_eq!(bsr.row_nnz(0), 2);
        assert_eq!(bsr.row_nnz(1), 1);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            rows in 1usize..12,
            cols in 1usize..12,
            br in 1usize..4,
            bc in 1usize..4,
            seed in 0u64..1000,
        ) {
            // sparse pseudo-random matrix
            let dense: Vec<i16> = (0..rows * cols)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
                    if h % 3 == 0 { ((h >> 8) % 200) as i16 - 100 } else { 0 }
                })
                .collect();
            let bsr = BsrMatrix::from_dense(&dense, rows, cols, br, bc, fmt());
            prop_assert_eq!(bsr.to_dense(), dense);
        }

        #[test]
        fn row_block_matches_row_iteration(
            rows in 1usize..12,
            cols in 1usize..12,
            br in 1usize..4,
            bc in 1usize..4,
            seed in 0u64..1000,
        ) {
            let dense: Vec<i16> = (0..rows * cols)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
                    if h % 3 == 0 { ((h >> 8) % 50) as i16 + 1 } else { 0 }
                })
                .collect();
            let bsr = BsrMatrix::from_dense(&dense, rows, cols, br, bc, fmt());
            for rb in 0..bsr.block_rows() {
                // every stored block, then one past the end
                for i in 0..=bsr.row_nnz(rb) {
                    prop_assert_eq!(bsr.row_block(rb, i), bsr.row_blocks_iter(rb).nth(i));
                }
                // the kernel segments name the same blocks, in slot order
                let segs = bsr.row_segments(rb);
                prop_assert_eq!(segs.len(), bsr.row_nnz(rb));
                for (g, (slot, cb)) in segs.iter().zip(bsr.row_blocks_iter(rb)) {
                    prop_assert_eq!(&bsr.blocks()[g.w..g.w + br * bc], bsr.block(slot));
                    prop_assert_eq!((g.x, g.cols), (cb * bc, bc.min(cols - cb * bc)));
                }
            }
        }

        #[test]
        fn nnz_blocks_bounded_by_grid(
            rows in 1usize..10,
            cols in 1usize..10,
        ) {
            let dense: Vec<i16> = (0..rows * cols).map(|i| (i % 5) as i16).collect();
            let bsr = BsrMatrix::from_dense(&dense, rows, cols, 2, 2, fmt());
            prop_assert!(bsr.nnz_blocks() <= rows.div_ceil(2) * cols.div_ceil(2));
        }
    }
}
