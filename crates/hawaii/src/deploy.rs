//! Model deployment: quantization, calibration, and BSR packing.
//!
//! Mirrors the paper's deployment flow (Section IV-A): model parameters are
//! quantized from 32-bit float to a 16-bit fixed-point representation and
//! packed, layer by layer, into the BSR format at the accelerator-operation
//! block granularity chosen by the tile planner. Quantization and
//! activation-format calibration are the host Q15 engine's own
//! ([`QuantizedModel::quantize`]), so the device and the host evaluator run
//! one model.

use crate::bsr::BsrMatrix;
use crate::plan::LayerPlan;
use iprune_datasets::Dataset;
use iprune_models::arch::ModelInfo;
use iprune_models::qeval::QuantizedModel;
use iprune_models::Model;
use iprune_tensor::quant::QFormat;

pub use iprune_models::qeval::DEFAULT_CALIBRATION;

/// One deployed (quantized, BSR-packed) prunable layer.
#[derive(Debug, Clone)]
pub struct DeployedLayer {
    /// Prunable layer id.
    pub layer_id: usize,
    /// Execution plan (tile shape, counts).
    pub plan: LayerPlan,
    /// Block-sparse quantized weights.
    pub bsr: BsrMatrix,
    /// Quantized biases (one per output feature).
    pub bias: Vec<i16>,
    /// Fixed-point format of the biases.
    pub bias_fmt: QFormat,
}

impl DeployedLayer {
    /// NVM bytes re-fetched during progress recovery for this layer:
    /// footprint and index arrays, the partial-accumulator scratch, the
    /// input sub-strip, and the interrupted weight block.
    pub fn recovery_bytes(&self) -> usize {
        let t = self.plan.tile;
        16 + 4 * t.br * t.strip + 2 * t.bc * t.strip + 2 * t.br * t.bc
    }
}

/// A model ready to execute on the device simulator.
#[derive(Debug, Clone)]
pub struct DeployedModel {
    /// Structural description (cloned from the trained model).
    pub info: ModelInfo,
    /// Deployed layers, indexed by layer id.
    pub layers: Vec<DeployedLayer>,
    /// Fixed-point format of each activation buffer.
    pub buf_fmts: Vec<QFormat>,
}

impl DeployedModel {
    /// Deployed model size in bytes with BSR storage (weights, both index
    /// arrays, and biases) — the "Model Size" column of Table III for
    /// pruned models.
    pub fn sparse_size_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.bsr.storage_bytes() + l.bias.len() * 2).sum()
    }

    /// Deployed model size with dense storage (the natural choice for the
    /// unpruned baseline).
    pub fn dense_size_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.bsr.dense_bytes() + l.bias.len() * 2).sum()
    }

    /// Size as reported in the paper's tables: dense when nothing was
    /// pruned, BSR otherwise (BSR only pays off with sufficient sparsity).
    pub fn reported_size_bytes(&self) -> usize {
        self.sparse_size_bytes().min(self.dense_size_bytes())
    }

    /// Total accelerator outputs per inference (the pruning criterion).
    pub fn total_acc_outputs(&self) -> usize {
        self.layers.iter().map(|l| l.plan.bsr_acc_outputs(&l.bsr)).sum()
    }

    /// Total MACs per inference (whole blocks, padded lanes included).
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(|l| l.plan.bsr_macs(&l.bsr)).sum()
    }
}

/// Deploys a trained model: quantizes it with the host Q15 quantizer
/// (activation formats calibrated on up to `n_calib` samples of `calib`)
/// and packs each layer into BSR at its planned block shape.
///
/// # Panics
///
/// Panics if `calib` is empty or its sample shape differs from the model
/// input.
pub fn deploy(model: &mut Model, calib: &Dataset, n_calib: usize) -> DeployedModel {
    let qm = QuantizedModel::quantize(model, calib, n_calib);
    let info = qm.info();
    let layers = qm
        .layers()
        .iter()
        .enumerate()
        .map(|(layer_id, ql)| {
            let plan = LayerPlan::for_layer(&info.prunables[layer_id]);
            let (br, bc) = (plan.tile.br, plan.tile.bc);
            let bsr = BsrMatrix::from_dense(&ql.w, plan.m, plan.k, br, bc, QFormat::new(ql.w_frac));
            let bias_fmt = QFormat::new(ql.bias_frac);
            DeployedLayer { layer_id, plan, bsr, bias: ql.bias.clone(), bias_fmt }
        })
        .collect();
    DeployedModel { info: info.clone(), layers, buf_fmts: qm.buf_fmts().to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprune_models::arch::GraphOp;
    use iprune_models::zoo::App;

    #[test]
    fn deploy_all_apps() {
        for app in App::all() {
            let mut model = app.build();
            let calib = app.dataset(4, 7);
            let dm = deploy(&mut model, &calib, 4);
            assert_eq!(dm.layers.len(), model.info.prunables.len());
            // Unpruned: dense size should be close to the Table II budget.
            let dense_kb = dm.dense_size_bytes() as f64 / 1024.0;
            let expect_kb = model.info.dense_size_bytes() as f64 / 1024.0;
            assert!((dense_kb - expect_kb).abs() < 0.5, "{}: {dense_kb} KB", app.name());
            // Unpruned acc outputs match the analytic dense count closely
            // (quantization may zero a few tiny blocks).
            let analytic = crate::plan::dense_model_acc_outputs(&model.info) as f64;
            let got = dm.total_acc_outputs() as f64;
            assert!(got <= analytic * 1.001 && got > 0.9 * analytic, "{}", app.name());
        }
    }

    #[test]
    fn pool_buffers_share_input_format() {
        let mut model = App::Cks.build();
        let calib = App::Cks.dataset(2, 3);
        let dm = deploy(&mut model, &calib, 2);
        for op in &dm.info.graph {
            if let GraphOp::MaxPool { src, dst, .. } = op {
                assert_eq!(dm.buf_fmts[*src], dm.buf_fmts[*dst]);
            }
        }
    }

    #[test]
    fn reported_size_prefers_smaller_encoding() {
        let mut model = App::Har.build();
        let calib = App::Har.dataset(2, 3);
        let dm = deploy(&mut model, &calib, 2);
        // unpruned: dense beats BSR (indexes are pure overhead)
        assert_eq!(dm.reported_size_bytes(), dm.dense_size_bytes().min(dm.sparse_size_bytes()));
        assert!(dm.sparse_size_bytes() > dm.dense_size_bytes());
    }
}
