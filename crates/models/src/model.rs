//! The [`Model`] wrapper: a trainable network paired with its
//! [`ModelInfo`] structural description and weight import/export. Models
//! are put together only by [`crate::builder::NetBuilder`], which derives
//! both halves from one layer chain.

use crate::arch::ModelInfo;
use iprune_tensor::exec::ExecCtx;
use iprune_tensor::layer::{Layer, Param, Sequential};
use iprune_tensor::Tensor;
use std::collections::HashMap;

/// Weights of one prunable layer, as extracted for deployment.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// The prunable layer id.
    pub layer_id: usize,
    /// Weight tensor (`[cout, cin, kh, kw]` or `[dout, din]`), with pruning
    /// masks already applied (pruned weights are exactly zero).
    pub w: Tensor,
    /// Bias tensor.
    pub b: Tensor,
}

/// A trainable model plus its structural description.
///
/// The wrapper implements [`Layer`] by delegation so optimizers and losses
/// from `iprune-tensor` apply directly. Models are `Clone` so parallel
/// evaluation and sensitivity probes can hand each worker its own snapshot.
#[derive(Clone)]
pub struct Model {
    /// Structural description (graph, prunables, buffers).
    pub info: ModelInfo,
    net: Sequential,
}

impl Model {
    /// Pairs a network with its description (the builder's last step).
    ///
    /// # Panics
    ///
    /// Panics if the network's prunable parameters do not cover exactly the
    /// layer ids `0..info.prunables.len()` or a weight shape disagrees with
    /// the declared geometry.
    pub(crate) fn new(info: ModelInfo, net: Sequential) -> Self {
        info.validate();
        let mut model = Self { info, net };
        let weights = model.extract_weights();
        assert_eq!(
            weights.len(),
            model.info.prunables.len(),
            "network prunable layers vs description"
        );
        for lw in &weights {
            let expect = model.info.prunables[lw.layer_id].weights();
            assert_eq!(
                lw.w.numel(),
                expect,
                "layer {} weight count {} vs declared {}",
                lw.layer_id,
                lw.w.numel(),
                expect
            );
        }
        model
    }

    /// Shared-state inference ([`Layer::infer`]): no `&mut` access, so one
    /// `Arc`-shared model can serve any number of concurrent [`ExecCtx`]
    /// holders with zero weight clones.
    pub fn infer(&self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        Layer::infer(self, x, ctx)
    }

    /// Clone of one prunable layer's weight tensor and current mask, by
    /// layer id. Single-layer cost: this is what sensitivity probes pay per
    /// probe instead of a full-model clone.
    pub fn layer_weight(&self, layer_id: usize) -> Option<(Tensor, Option<Tensor>)> {
        let mut out = None;
        self.net.visit_params_ref(&mut |p: &Param| {
            if p.layer_id == layer_id && p.name.ends_with(".w") {
                out = Some((p.value.clone(), p.mask.clone()));
            }
        });
        out
    }

    /// Deterministic per-layer *block* magnitude masks: each prunable
    /// weight matrix (`rows = out`, `cols = k`) is tiled into the host
    /// kernels' [`BLOCK_ROWS`](iprune_tensor::sparse::BLOCK_ROWS) ×
    /// [`BLOCK_COLS`](iprune_tensor::sparse::BLOCK_COLS) blocks, the blocks
    /// with the largest L1 norm survive (ties broken by ascending block
    /// index), and whole blocks are zeroed. The masks are block-sparse, so
    /// the alive fraction tracks `keep_ppm` and sufficiently pruned layers
    /// route through the sparse kernels.
    pub fn block_magnitude_masks(&self, keep_ppm: u32) -> HashMap<usize, Tensor> {
        use iprune_tensor::sparse::{BLOCK_COLS, BLOCK_ROWS};
        let mut out = HashMap::new();
        self.net.visit_params_ref(&mut |p: &Param| {
            if p.layer_id == usize::MAX || !p.name.ends_with(".w") {
                return;
            }
            let rows = p.value.dims()[0];
            if rows == 0 {
                return;
            }
            let cols = p.value.numel() / rows;
            let data = p.value.data();
            let rbs = rows.div_ceil(BLOCK_ROWS);
            let cbs = cols.div_ceil(BLOCK_COLS);
            let mut norms = vec![0.0f64; rbs * cbs];
            for r in 0..rows {
                for c in 0..cols {
                    norms[(r / BLOCK_ROWS) * cbs + c / BLOCK_COLS] +=
                        data[r * cols + c].abs() as f64;
                }
            }
            let nblocks = rbs * cbs;
            let keep =
                ((nblocks as u64 * keep_ppm as u64).div_ceil(1_000_000) as usize).min(nblocks);
            let mut order: Vec<usize> = (0..nblocks).collect();
            order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]).then_with(|| a.cmp(&b)));
            let mut alive = vec![false; nblocks];
            for &b in &order[..keep] {
                alive[b] = true;
            }
            let mut mask = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    if alive[(r / BLOCK_ROWS) * cbs + c / BLOCK_COLS] {
                        mask[r * cols + c] = 1.0;
                    }
                }
            }
            out.insert(p.layer_id, Tensor::from_vec(p.value.dims(), mask));
        });
        out
    }

    /// Extracts per-layer weights and biases, sorted by layer id, with
    /// pruning masks applied.
    pub fn extract_weights(&mut self) -> Vec<LayerWeights> {
        let mut by_id: HashMap<usize, (Option<Tensor>, Option<Tensor>)> = HashMap::new();
        self.net.visit_params(&mut |p: &mut Param| {
            if p.layer_id == usize::MAX {
                return;
            }
            p.apply_mask();
            let entry = by_id.entry(p.layer_id).or_default();
            if p.name.ends_with(".w") {
                entry.0 = Some(p.value.clone());
            } else {
                entry.1 = Some(p.value.clone());
            }
        });
        let mut out: Vec<LayerWeights> = by_id
            .into_iter()
            .map(|(layer_id, (w, b))| LayerWeights {
                layer_id,
                w: w.expect("weight present"),
                b: b.expect("bias present"),
            })
            .collect();
        out.sort_by_key(|lw| lw.layer_id);
        out
    }

    /// Loads per-layer weights and biases (e.g. from a checkpoint produced
    /// by [`Self::extract_weights`]). Masks are rebuilt so that exactly the
    /// zero weights stay pruned.
    ///
    /// # Panics
    ///
    /// Panics if a layer id is missing or a shape disagrees.
    pub fn load_weights(&mut self, weights: &[LayerWeights]) {
        use std::collections::HashMap as Map;
        let by_id: Map<usize, &LayerWeights> = weights.iter().map(|lw| (lw.layer_id, lw)).collect();
        self.net.visit_params(&mut |p: &mut Param| {
            if p.layer_id == usize::MAX {
                return;
            }
            let lw = by_id.get(&p.layer_id).expect("layer weights present");
            if p.name.ends_with(".w") {
                assert_eq!(p.value.numel(), lw.w.numel(), "weight shape for {}", p.name);
                p.value = lw.w.reshape(p.value.dims());
                let mask = Tensor::from_vec(
                    p.value.dims(),
                    p.value.data().iter().map(|&v| if v == 0.0 { 0.0 } else { 1.0 }).collect(),
                );
                p.set_mask(mask);
            } else {
                assert_eq!(p.value.numel(), lw.b.numel(), "bias shape for {}", p.name);
                p.value = lw.b.reshape(p.value.dims());
            }
        });
    }

    /// Installs pruning masks keyed by layer id (missing ids keep their
    /// current mask).
    pub fn set_masks(&mut self, masks: &HashMap<usize, Tensor>) {
        self.net.visit_params(&mut |p: &mut Param| {
            if p.name.ends_with(".w") {
                if let Some(mask) = masks.get(&p.layer_id) {
                    p.set_mask(mask.clone());
                }
            }
        });
    }

    /// Current pruning masks per layer id (only layers that have one).
    pub fn masks(&self) -> HashMap<usize, Tensor> {
        let mut out = HashMap::new();
        self.net.visit_params_ref(&mut |p: &Param| {
            if p.name.ends_with(".w") {
                if let Some(m) = &p.mask {
                    out.insert(p.layer_id, m.clone());
                }
            }
        });
        out
    }

    /// Number of *kept* (non-pruned) weights across prunable layers.
    pub fn kept_weights(&self) -> usize {
        let mut kept = 0usize;
        self.net.visit_params_ref(&mut |p: &Param| {
            if p.layer_id != usize::MAX && p.name.ends_with(".w") {
                kept += (p.density() * p.value.numel() as f64).round() as usize;
            }
        });
        kept
    }

    /// Snapshot of all parameter values (for checkpoint/rollback in the
    /// iterative pruning loop).
    pub fn snapshot(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.net.visit_params_ref(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restores a snapshot taken with [`Self::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the parameter structure.
    pub fn restore(&mut self, snap: &[Tensor]) {
        let mut i = 0;
        self.net.visit_params(&mut |p| {
            p.value = snap[i].clone();
            i += 1;
        });
        assert_eq!(i, snap.len(), "snapshot length mismatch");
    }
}

impl Layer for Model {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.net.forward(x)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.net.backward(grad)
    }

    fn infer(&self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        self.net.infer(x, ctx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(f)
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.net.visit_params_ref(f)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::App;
    use iprune_tensor::exec::ExecCtx;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The training pass and shared-state inference agree bit for bit on
    /// every app (SQN's fire concat, HAR's temporal convs, CKS's FC head),
    /// dense and on the block-sparse path.
    #[test]
    fn model_infer_matches_forward_bitwise() {
        for app in App::all() {
            let mut m = app.build();
            let ds = app.dataset(6, 42);
            let (x, _) = ds.gather(&[0, 1, 2, 3, 4, 5]);
            for keep in [None, Some(500_000)] {
                if let Some(keep) = keep {
                    let masks = m.block_magnitude_masks(keep);
                    m.set_masks(&masks);
                }
                let want = m.forward(&x);
                let got = m.infer(&x, &mut ExecCtx::new());
                assert_eq!(bits(&want), bits(&got), "{} keep {keep:?}", app.name());
            }
        }
    }

    #[test]
    fn block_magnitude_masks_engage_sparse_dispatch() {
        let mut m = App::Har.build();
        let masks = m.block_magnitude_masks(300_000);
        assert_eq!(masks.len(), m.info.prunables.len());
        m.set_masks(&masks);
        let mut sparse_layers = 0;
        m.visit_params_ref(&mut |p| {
            if p.name.ends_with(".w") {
                let d = p.density();
                // small layers have few blocks, so the kept fraction
                // quantizes coarsely (HAR conv1 has 4 blocks: keep 2 = 0.5)
                assert!((0.2..0.55).contains(&d), "{}: block density {d}", p.name);
                if p.sparse_index().is_some_and(|i| i.below_dispatch_threshold()) {
                    sparse_layers += 1;
                }
            }
        });
        assert_eq!(
            sparse_layers,
            m.info.prunables.len(),
            "block masks at 30% density must route every layer through sparse dispatch"
        );
    }

    #[test]
    fn layer_weight_and_densities_read_shared_state() {
        let mut m = App::Har.build();
        let masks = m.block_magnitude_masks(500_000);
        m.set_masks(&masks);
        let shared = std::sync::Arc::new(m);
        let mut densities = Vec::new();
        shared.visit_params_ref(&mut |p| {
            if p.name.ends_with(".w") {
                densities.push((p.layer_id, p.density()));
            }
        });
        assert_eq!(densities.len(), shared.info.prunables.len());
        for (id, d) in densities {
            let (w, mask) = shared.layer_weight(id).expect("layer exists");
            assert_eq!(w.numel(), shared.info.prunables[id].weights());
            let mask = mask.expect("masked layer");
            let kept = mask.data().iter().filter(|&&v| v != 0.0).count();
            assert_eq!(d, kept as f64 / mask.numel() as f64, "layer {id}");
            assert!(d > 0.0 && d < 1.0, "layer {id}: density {d}");
        }
    }
}
