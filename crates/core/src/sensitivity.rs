//! Layer-wise sensitivity analysis.
//!
//! The sensitivity of a layer is how much model accuracy drops when a probe
//! fraction of its (remaining) weights — lowest-RMS blocks first — is
//! temporarily pruned (Section III-A/C). Each probe is evaluated on a small
//! validation subset and fully rolled back.

use crate::blocks::{mask_as_weight_shape, mask_out_block, LayerState};
use iprune_datasets::Dataset;
use iprune_models::train::{self, evaluate};
use iprune_models::Model;
use iprune_obs::metrics::{self, Counter};
use iprune_tensor::exec::WeightOverride;
use iprune_tensor::par;
use std::sync::{Arc, OnceLock};

/// Result of the per-layer sensitivity analysis.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Accuracy drop (baseline − probed accuracy) per layer, by layer id.
    pub drops: Vec<f64>,
    /// Accuracy of the unprobed model on the evaluation subset.
    pub baseline: f64,
}

impl Sensitivity {
    /// Layer ids ranked by *descending* sensitivity (rank 0 = most
    /// sensitive). Ties break toward the lower layer id.
    pub fn ranking(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.drops.len()).collect();
        ids.sort_by(|&a, &b| {
            self.drops[b].partial_cmp(&self.drops[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        ids
    }

    /// The rank (0-based, 0 = most sensitive) of each layer.
    pub fn rank_of(&self) -> Vec<usize> {
        let mut rank = vec![0usize; self.drops.len()];
        for (r, &id) in self.ranking().iter().enumerate() {
            rank[id] = r;
        }
        rank
    }
}

/// Measures per-layer sensitivity by probing `probe_ratio` of each layer's
/// alive weights on `eval` (a small validation subset).
///
/// Probes are independent and spread over [`iprune_tensor::par`] workers.
/// All probes share the caller's model through the shared-state inference
/// path: a probe builds a [`WeightOverride`] for its one layer (base
/// weights ⊙ probe mask, a single-layer clone) and evaluates through a
/// per-probe `ExecCtx` — no full-model clone per probe. The caller's model
/// is never mutated — weights and masks are untouched, which is the
/// exact-restoration guarantee the serial loop achieved by snapshot and
/// rollback. Each probe performs identical work regardless of the thread
/// count, so the drops are bit-identical to a serial run (and to the
/// pre-refactor clone-per-probe implementation).
///
/// Probe evaluation inherits the layers' block-sparse GEMM dispatch: each
/// override builds the probe mask's `SparseIndex` exactly as `set_masks`
/// would, so heavily probed layers are evaluated through the sparse GEMM
/// forms (bit-identical to dense, see `iprune_tensor::matmul`).
pub fn analyze(
    model: &Model,
    states: &[LayerState],
    eval: &Dataset,
    probe_ratio: f64,
    batch: usize,
) -> Sensitivity {
    let baseline = evaluate(model, eval, batch);

    static PROBES: OnceLock<Arc<Counter>> = OnceLock::new();
    let probes = PROBES.get_or_init(|| metrics::counter("sensitivity.probes"));
    let drops = par::par_map(states.len(), |li| {
        probes.inc();
        let state = &states[li];
        let sched = state.removal_schedule();
        let budget = ((state.alive_weights as f64) * probe_ratio).round() as usize;
        let n = sched.blocks_for_budget(budget);
        if n == 0 {
            return 0.0;
        }
        let mut probe = state.clone();
        for &bi in sched.order.iter().take(n) {
            mask_out_block(&mut probe, bi);
        }
        let probe_mask = mask_as_weight_shape(&probe, model);
        let (base_w, _) = model.layer_weight(state.layer_id).expect("prunable layer has weights");
        let ov = WeightOverride::masked(state.layer_id, &base_w, &probe_mask);
        baseline - train::evaluate_overridden(model, &[ov], eval, batch)
    });
    Sensitivity { drops, baseline }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::build_states;
    use crate::criterion::Criterion;
    use iprune_device::energy::EnergyModel;
    use iprune_device::timing::TimingModel;
    use iprune_models::train::{train_sgd, TrainConfig};
    use iprune_models::zoo::App;

    #[test]
    fn analysis_restores_model_exactly() {
        let mut m = App::Har.build();
        let ds = App::Har.dataset(60, 3);
        train_sgd(&mut m, &ds, &TrainConfig { epochs: 1, ..Default::default() });
        let before = m.snapshot();
        let states = build_states(
            &mut m,
            Criterion::AccOutputs,
            &TimingModel::default(),
            &EnergyModel::default(),
        );
        let sens = analyze(&m, &states, &ds.take(24), 0.3, 12);
        let after = m.snapshot();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            assert_eq!(a.data(), b.data(), "weights must be restored");
        }
        assert_eq!(sens.drops.len(), m.info.prunables.len());
        // any masks left installed must be all-ones (i.e. no pruning)
        for (id, mask) in m.masks() {
            assert_eq!(mask.count_zeros(), 0, "layer {id} still has pruned weights");
        }
    }

    #[test]
    fn ranking_orders_by_drop() {
        let s = Sensitivity { drops: vec![0.1, 0.5, -0.02, 0.3], baseline: 0.9 };
        assert_eq!(s.ranking(), vec![1, 3, 0, 2]);
        assert_eq!(s.rank_of(), vec![2, 0, 3, 1]);
    }

    #[test]
    fn probing_a_trained_layer_changes_accuracy_more_than_zero_probe() {
        let mut m = App::Har.build();
        let ds = App::Har.dataset(120, 4);
        train_sgd(&mut m, &ds, &TrainConfig { epochs: 2, ..Default::default() });
        let states = build_states(
            &mut m,
            Criterion::AccOutputs,
            &TimingModel::default(),
            &EnergyModel::default(),
        );
        let sens = analyze(&m, &states, &ds.take(36), 0.6, 12);
        // at a 60% probe at least one layer should visibly matter
        assert!(sens.drops.iter().any(|&d| d > 0.0), "drops: {:?}", sens.drops);
        assert!(sens.baseline > 0.2);
    }
}
