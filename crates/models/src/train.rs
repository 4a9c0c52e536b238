//! Training and evaluation recipes.
//!
//! Used for the initial (server-side) training of each application model and
//! for the fine-tuning passes inside the iterative pruning loop.

use crate::model::Model;
use iprune_datasets::Dataset;
use iprune_tensor::exec::{ExecCtx, WeightOverride};
use iprune_tensor::layer::Layer;
use iprune_tensor::loss::softmax_cross_entropy;
use iprune_tensor::metrics::AccuracyMeter;
use iprune_tensor::optim::Sgd;
use iprune_tensor::par;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters of an SGD training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Multiplicative LR decay applied after each epoch.
    pub lr_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 3, batch: 32, lr: 0.05, momentum: 0.9, lr_decay: 0.7, seed: 17 }
    }
}

impl TrainConfig {
    /// A fine-tuning recipe (used between pruning iterations): enough
    /// epochs at a moderate rate to recover a recoverable pruning step.
    pub fn fine_tune() -> Self {
        Self { epochs: 3, lr: 0.05, ..Self::default() }
    }
}

/// Trains `model` on `ds` with SGD + momentum; returns the mean loss of the
/// final epoch.
///
/// The batch loop is inherently sequential (each step depends on the
/// previous weights), so parallelism happens *inside* each step: the layers
/// fan the per-sample im2col/GEMM work of every forward and backward pass
/// out over [`iprune_tensor::par`] workers, with fixed-order reductions that
/// keep the trained weights bit-identical at any thread count.
///
/// On a pruned model (masks installed) the layers route forward *and*
/// backward GEMMs through the block-sparse forms of `iprune_tensor::matmul`
/// once a layer's alive-block coverage drops below the dispatch threshold
/// (`iprune_tensor::sparse`) — bit-identical to the dense path, so fine-tuning
/// gets monotonically faster as pruning iterations shrink the model.
pub fn train_sgd(model: &mut Model, ds: &Dataset, cfg: &TrainConfig) -> f32 {
    let mut opt = Sgd::new(cfg.lr, cfg.momentum);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..ds.len()).collect();
    let mut last_epoch_loss = 0.0f32;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch) {
            let (x, y) = ds.gather(chunk);
            let logits = model.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(model);
            total += loss as f64;
            batches += 1;
        }
        last_epoch_loss = (total / batches.max(1) as f64) as f32;
        opt.set_lr(opt.lr() * cfg.lr_decay);
    }
    last_epoch_loss
}

/// Evaluates top-1 accuracy of `model` on `ds` (float reference inference).
/// Quantized accuracy comes from the host integer engines in
/// [`crate::qeval`] (`evaluate_q15` / `evaluate_q8`).
///
/// Batches are independent in inference mode, so contiguous runs of batches
/// are spread over [`iprune_tensor::par`] workers. All workers borrow the
/// *same* model through the shared-state inference path ([`ExecCtx`] holds
/// only scratch), so evaluation clones no weights — the same contract the
/// serving front end relies on. Per-worker meters hold integer counts, so
/// the merged accuracy is exactly the serial result at any thread count.
///
/// Pruned layers inherit the block-sparse GEMM dispatch (see
/// `iprune_tensor::sparse`) on this path too.
pub fn evaluate(model: &Model, ds: &Dataset, batch: usize) -> f64 {
    evaluate_overridden(model, &[], ds, batch)
}

/// Float evaluation of a shared model with per-layer [`WeightOverride`]s
/// installed in every worker's context: the sensitivity-probe path. With an
/// empty override list this *is* [`evaluate`]. Probing layer `i`'s
/// candidate mask costs one single-layer weight clone (inside the override)
/// instead of a full-model clone per probe.
pub fn evaluate_overridden(
    model: &Model,
    overrides: &[WeightOverride],
    ds: &Dataset,
    batch: usize,
) -> f64 {
    let make_ctx = || {
        let mut ctx = ExecCtx::new();
        for ov in overrides {
            ctx.push_override(ov.clone());
        }
        ctx
    };
    let batch = batch.max(1);
    let nb = ds.len().div_ceil(batch);
    let workers = par::workers_for(nb);
    if workers <= 1 {
        let mut ctx = make_ctx();
        let mut meter = AccuracyMeter::new();
        for (x, y) in ds.batches(batch) {
            let logits = model.infer(&x, &mut ctx);
            meter.update(&logits, &y);
        }
        return meter.value();
    }
    let per = nb.div_ceil(workers);
    let meters = par::par_map(workers, |wi| {
        let mut ctx = make_ctx();
        let mut meter = AccuracyMeter::new();
        for b in (wi * per)..((wi + 1) * per).min(nb) {
            let lo = b * batch;
            let hi = (lo + batch).min(ds.len());
            let idx: Vec<usize> = (lo..hi).collect();
            let (x, y) = ds.gather(&idx);
            let logits = model.infer(&x, &mut ctx);
            meter.update(&logits, &y);
        }
        meter
    });
    let mut meter = AccuracyMeter::new();
    for m in &meters {
        meter.merge(m);
    }
    meter.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::App;

    #[test]
    fn har_learns_above_chance_quickly() {
        let mut m = App::Har.build();
        let train = App::Har.dataset(180, 100);
        let test = App::Har.dataset(60, 101);
        let before = evaluate(&m, &test, 32);
        let cfg = TrainConfig { epochs: 4, lr: 0.08, ..Default::default() };
        train_sgd(&mut m, &train, &cfg);
        let after = evaluate(&m, &test, 32);
        assert!(after > before.max(1.0 / 6.0) + 0.2, "no learning: {before} -> {after}");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let m = App::Har.build();
        let ds = App::Har.dataset(30, 5);
        let a = evaluate(&m, &ds, 10);
        let b = evaluate(&m, &ds, 10);
        assert_eq!(a, b);
    }
}
