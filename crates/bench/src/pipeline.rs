//! The end-to-end experiment pipelines shared by Table III and Figure 5.
//!
//! For each app: train the model, run the iPrune and ePrune iterative
//! pruning pipelines, characterize all three variants (plus the deployed
//! quantized models), and checkpoint the weights for reuse in a cache
//! directory the caller names.

use crate::cache;
use crate::scale::Scale;
use iprune::pipeline::{prune, PruneConfig, PruneReport};
use iprune::report::{characterize, Characteristics};
use iprune::sa::SaConfig;
use iprune_datasets::Dataset;
use iprune_hawaii::DeployedModel;
use iprune_models::train::train_sgd;
use iprune_models::zoo::App;
use iprune_models::Model;
use iprune_obs::log_info;
use std::path::Path;

/// The three model variants of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The original trained model.
    Unpruned,
    /// Energy-aware pruning (comparison baseline).
    EPrune,
    /// Intermittent-aware pruning (the paper's framework).
    IPrune,
}

impl Variant {
    /// All variants in the paper's presentation order.
    pub fn all() -> [Variant; 3] {
        [Variant::Unpruned, Variant::EPrune, Variant::IPrune]
    }

    /// Row label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Unpruned => "Unpruned",
            Variant::EPrune => "ePrune",
            Variant::IPrune => "iPrune",
        }
    }
}

/// One variant's outcome.
pub struct VariantResult {
    /// Which variant.
    pub variant: Variant,
    /// Table III characteristics.
    pub ch: Characteristics,
    /// The deployed (quantized, BSR-packed) model.
    pub deployed: DeployedModel,
    /// The pruning report (None for the unpruned baseline).
    pub report: Option<PruneReport>,
}

/// All three variants of one app.
pub struct AppResults {
    /// The app.
    pub app: App,
    /// Per-variant outcomes, in [`Variant::all`] order.
    pub variants: Vec<VariantResult>,
    /// Validation set used for accuracy columns.
    pub val: Dataset,
}

fn prune_config(app: App, variant: Variant, scale: &Scale) -> PruneConfig {
    let base = match variant {
        Variant::EPrune => PruneConfig::eprune(),
        _ => PruneConfig::iprune(),
    };
    PruneConfig {
        max_iterations: scale.max_iters,
        sens_eval: scale.sens_eval,
        val_eval: scale.val_eval,
        sa: SaConfig { steps: scale.sa_steps, ..Default::default() },
        finetune: app.finetune_recipe(),
        ..base
    }
}

/// Trains the base model (or loads it from the cache in `cache_dir`).
pub fn trained_model(
    app: App,
    scale: &Scale,
    log: bool,
    cache_dir: &Path,
) -> (Model, Dataset, Dataset) {
    let train = app.dataset(scale.train_for(app), 1000 + app_seed(app));
    let val = app.dataset(scale.val_n, 2000 + app_seed(app));
    let mut model = app.build();
    if cache::load(cache_dir, &mut model, app.name(), "base", scale.name) {
        if log {
            log_info!(app.name(), "loaded cached base model");
        }
        return (model, train, val);
    }
    let mut recipe = app.train_recipe();
    recipe.epochs *= scale.epoch_mul;
    if log {
        log_info!(
            app.name(),
            "training base model: {} samples x {} epochs",
            train.len(),
            recipe.epochs
        );
    }
    train_sgd(&mut model, &train, &recipe);
    let _ = cache::save(cache_dir, &mut model, app.name(), "base", scale.name);
    (model, train, val)
}

fn app_seed(app: App) -> u64 {
    match app {
        App::Sqn => 1,
        App::Har => 2,
        App::Cks => 3,
    }
}

/// Runs (or reloads from `cache_dir`) the full pipeline for one app: base
/// training plus both pruning frameworks, characterizing every variant.
pub fn run_app_pipelines(app: App, scale: &Scale, log: bool, cache_dir: &Path) -> AppResults {
    let (mut base, train, val) = trained_model(app, scale, log, cache_dir);
    let mut variants = Vec::new();

    for variant in Variant::all() {
        let mut model = app.build();
        let report = match variant {
            Variant::Unpruned => {
                model.load_weights(&base.extract_weights());
                None
            }
            _ => {
                let vname = variant.label();
                if cache::load(cache_dir, &mut model, app.name(), vname, scale.name) {
                    if log {
                        log_info!(app.name(), "loaded cached {} model", vname);
                    }
                    None
                } else {
                    model.load_weights(&base.extract_weights());
                    let cfg = prune_config(app, variant, scale);
                    if log {
                        log_info!(app.name(), "running {} pipeline…", vname);
                    }
                    let report = prune(&mut model, &train, &val, &cfg);
                    if log {
                        for it in &report.iterations {
                            log_info!(
                                app.name(),
                                "  iter {}: gamma {:.3} acc {:.3} density {:.3}{}",
                                it.iteration,
                                it.gamma,
                                it.accuracy,
                                it.density,
                                if it.struck { " (struck)" } else { "" }
                            );
                        }
                        log_info!(
                            app.name(),
                            "  adopted {:?} (baseline {:.3})",
                            report.adopted_iteration,
                            report.baseline_accuracy
                        );
                    }
                    let _ = cache::save(cache_dir, &mut model, app.name(), vname, scale.name);
                    Some(report)
                }
            }
        };
        let (ch, deployed) = characterize(&mut model, &val, variant.label());
        if log {
            log_info!(app.name(), "{}", ch.row());
        }
        variants.push(VariantResult { variant, ch, deployed, report });
    }

    AppResults { app, variants, val }
}

/// Runs the pipelines of every app, spreading the independent per-app
/// pipelines over [`iprune_tensor::par`] workers. Results come back in
/// [`App::all`] order and each app's pipeline is identical to a standalone
/// [`run_app_pipelines`] call (apps share nothing but the cache directory,
/// and each app writes distinct checkpoint files).
pub fn run_all_apps(scale: &Scale, log: bool, cache_dir: &Path) -> Vec<AppResults> {
    let apps = App::all();
    iprune_tensor::par::par_map(apps.len(), |i| run_app_pipelines(apps[i], scale, log, cache_dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::SMOKE;

    #[test]
    fn smoke_pipeline_runs_har_end_to_end() {
        let dir = std::env::temp_dir().join(format!("iprune_pipe_test_{}", std::process::id()));
        let results = run_app_pipelines(App::Har, &SMOKE, false, &dir);
        assert_eq!(results.variants.len(), 3);
        let unpruned = &results.variants[0];
        let ipr = &results.variants[2];
        assert!(ipr.ch.acc_outputs <= unpruned.ch.acc_outputs);
        assert!(ipr.ch.size_bytes <= unpruned.ch.size_bytes);
        // the checkpoints land in the test's own directory
        for variant in ["base", "ePrune", "iPrune"] {
            assert!(crate::cache::checkpoint_path(&dir, "HAR", variant, SMOKE.name).is_file());
        }
        // cache hit on second run
        let again = run_app_pipelines(App::Har, &SMOKE, false, &dir);
        assert_eq!(again.variants[2].ch.acc_outputs, ipr.ch.acc_outputs);
        let _ = std::fs::remove_dir_all(dir);
    }
}
