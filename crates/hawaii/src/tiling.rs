//! Tile-size and accelerator-operation selection.
//!
//! HAWAII⁺ picks, per layer, the shape of one accelerator operation — the
//! weight block (`br` output features × `bc` reduction elements) and the
//! spatial strip length over which that block is reused — to fully utilize
//! the 8 KB VM and maximize data reuse (one of the \[19\]-style optimizations
//! the paper folds into HAWAII⁺). The reduction chunk `bc` is what couples
//! pruning to intermittence: every chunk of every output element becomes one
//! preserved accelerator output, so `acc_outputs = out_elems · ⌈K/bc⌉`.

use iprune_models::arch::{PrunableInfo, PrunableKind};

/// VM budget available to one layer's working set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmBudget {
    /// Bytes of VM usable for tiles (total SRAM minus engine reserve).
    pub tile_bytes: usize,
}

impl Default for VmBudget {
    fn default() -> Self {
        // 8 KB SRAM minus ~2 KB of engine state (stack, footprint buffers,
        // DMA descriptors).
        Self { tile_bytes: 6 * 1024 }
    }
}

/// Shape of one accelerator operation and its reuse strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    /// Output features per weight block (accelerator vector width).
    pub br: usize,
    /// Reduction elements per weight block — the partial-accumulation
    /// chunk; every output element is preserved once per chunk.
    pub bc: usize,
    /// Spatial positions over which one weight block is reused before the
    /// next block is fetched.
    pub strip: usize,
}

impl TilePlan {
    /// VM bytes used by the working set: weight block + input strip +
    /// 32-bit accumulators.
    pub fn vm_bytes(&self) -> usize {
        self.br * self.bc * 2 + self.bc * self.strip * 2 + 4 * self.br * self.strip
    }
}

/// Selects the accelerator-operation shape for a prunable layer.
///
/// The reduction chunk follows the LEA operation type the engine would pick:
///
/// * 1×1 convolutions run channel-vector MACs: `bc = min(4, cin)`;
/// * temporal (k×1) convolutions stream 4-sample bursts: `bc = 4`;
/// * spatial k×k convolutions on maps wide enough for a row strip use one
///   kernel row: `bc = kw`; on narrow maps the strip degrades to paired
///   MACs: `bc = 2`;
/// * fully-connected layers use the paired Q15 MAC: `bc = 2`.
pub fn select_plan(p: &PrunableInfo, budget: &VmBudget) -> TilePlan {
    let (m, n_spatial) = (out_features(p), spatial(p));
    let bc = match &p.kind {
        PrunableKind::Conv { cin, kh, kw, in_w, .. } => {
            if *kh == 1 && *kw == 1 {
                4.min(*cin)
            } else if *kw == 1 {
                4
            } else if *in_w >= 16 {
                *kw
            } else {
                2
            }
        }
        PrunableKind::Fc { .. } => 2,
    };
    let br = match &p.kind {
        PrunableKind::Conv { .. } => 8.min(m),
        PrunableKind::Fc { .. } => 16.min(m),
    };
    // Strip: reuse the block across spatial positions while the 32-bit
    // accumulator region fits the budget.
    let acc_budget = budget.tile_bytes / 2; // half for accumulators
    let max_strip = (acc_budget / (4 * br)).max(1);
    let strip = n_spatial.min(64).min(max_strip);
    let plan = TilePlan { br, bc, strip };
    debug_assert!(plan.vm_bytes() <= budget.tile_bytes, "plan exceeds VM budget");
    plan
}

/// Output features (`cout` or `dout`) of a prunable layer.
pub fn out_features(p: &PrunableInfo) -> usize {
    match &p.kind {
        PrunableKind::Conv { cout, .. } => *cout,
        PrunableKind::Fc { dout, .. } => *dout,
    }
}

/// Spatial positions (`oh·ow` for conv, 1 for FC).
pub fn spatial(p: &PrunableInfo) -> usize {
    let (oh, ow) = p.out_hw();
    match &p.kind {
        PrunableKind::Conv { .. } => oh * ow,
        PrunableKind::Fc { .. } => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprune_models::zoo::App;

    #[test]
    fn all_paper_layers_fit_vm() {
        let budget = VmBudget::default();
        for app in App::all() {
            let m = app.build();
            for p in &m.info.prunables {
                let plan = select_plan(p, &budget);
                assert!(
                    plan.vm_bytes() <= budget.tile_bytes,
                    "{} layer {} plan {:?} uses {} bytes",
                    app.name(),
                    p.name,
                    plan,
                    plan.vm_bytes()
                );
                assert!(plan.bc >= 1 && plan.br >= 1 && plan.strip >= 1);
            }
        }
    }

    #[test]
    fn op_type_rules() {
        let sqn = App::Sqn.build();
        // conv1 is 3x3 on a 32-wide map: row-strip
        assert_eq!(select_plan(&sqn.info.prunables[0], &VmBudget::default()).bc, 3);
        // fire1.squeeze is 1x1 over 24 channels: channel-vector (4)
        assert_eq!(select_plan(&sqn.info.prunables[1], &VmBudget::default()).bc, 4);
        let har = App::Har.build();
        // temporal 3x1 kernels stream 4-sample bursts
        assert_eq!(select_plan(&har.info.prunables[0], &VmBudget::default()).bc, 4);
        // FC uses paired MACs
        assert_eq!(select_plan(&har.info.prunables[3], &VmBudget::default()).bc, 2);
        let cks = App::Cks.build();
        // 3x3 on a 13-wide spectrogram: narrow map, paired MACs
        assert_eq!(select_plan(&cks.info.prunables[0], &VmBudget::default()).bc, 2);
    }

    #[test]
    fn strip_shrinks_under_small_budget() {
        let sqn = App::Sqn.build();
        let small = VmBudget { tile_bytes: 512 };
        let plan = select_plan(&sqn.info.prunables[0], &small);
        assert!(plan.vm_bytes() <= 512);
        assert!(plan.strip < 16);
    }
}
