//! Image recognition (SQN): sensitivity analysis and the three-step
//! strategy, step by step.
//!
//! Trains a shortened run of the SqueezeNet-style model, then walks through
//! one iPrune iteration manually — layer-wise criterion estimation,
//! sensitivity analysis, the guideline-1 overall ratio, the
//! simulated-annealing allocation, and the block-level selection — printing
//! what each step decided.
//!
//! ```sh
//! cargo run --release --example image_recognition
//! ```

use iprune_repro::device::energy::EnergyModel;
use iprune_repro::device::timing::TimingModel;
use iprune_repro::models::train::{evaluate, train_sgd, TrainConfig};
use iprune_repro::models::zoo::App;
use iprune_repro::pruning::blocks::build_states;
use iprune_repro::pruning::sa::SaConfig;
use iprune_repro::pruning::sensitivity::analyze;
use iprune_repro::pruning::strategy::{overall_ratio, prune_step};
use iprune_repro::pruning::Criterion;

fn main() {
    let app = App::Sqn;
    let train = app.dataset(800, 1);
    let val = app.dataset(200, 2);
    let mut model = app.build();
    println!("training {} (abridged: 5 epochs on {} samples)…", app.name(), train.len());
    train_sgd(&mut model, &train, &TrainConfig { epochs: 5, ..app.train_recipe() });
    println!("accuracy: {:.1}%", 100.0 * evaluate(&model, &val, 32));

    // Step 0: layer-wise criterion estimation
    let timing = TimingModel::default();
    let energy = EnergyModel::default();
    let mut states = build_states(&mut model, Criterion::AccOutputs, &timing, &energy);
    println!();
    println!("layer-wise criterion estimation (accelerator outputs):");
    for (s, p) in states.iter().zip(model.info.prunables.clone()) {
        println!(
            "  {:<18} {:>8} weights {:>9.0} acc outputs  (tile br={} bc={} strip={})",
            p.name,
            s.alive_weights,
            s.alive_cost,
            s.plan.tile.br,
            s.plan.tile.bc,
            s.plan.tile.strip
        );
    }

    // Step 0b: sensitivity analysis
    let sens = analyze(&model, &states, &val.take(48), 0.3, 32);
    println!();
    println!("sensitivity (accuracy drop at a 30% probe): ");
    for (p, d) in model.info.prunables.clone().iter().zip(&sens.drops) {
        println!("  {:<18} {:>6.1} pp", p.name, d * 100.0);
    }

    // Step 1: overall ratio by guideline 1
    let gamma = overall_ratio(&states, &sens, 0.4);
    println!();
    println!("guideline 1 → overall ratio Γ = {:.3} (Γ̂ = 0.4)", gamma);

    // Steps 2–3: SA allocation + block selection
    let (masks, gammas) = prune_step(&model, &mut states, &sens, gamma, &SaConfig::default());
    println!("simulated-annealing allocation γᵢ:");
    for (p, g) in model.info.prunables.clone().iter().zip(&gammas) {
        println!("  {:<18} γ = {:.3}", p.name, g);
    }
    model.set_masks(&masks);
    let remaining: f64 = build_states(&mut model, Criterion::AccOutputs, &timing, &energy)
        .iter()
        .map(|s| s.alive_cost)
        .sum();
    println!(
        "after one pruning step: {:.0} K acc outputs remain, accuracy before fine-tune {:.1}%",
        remaining / 1000.0,
        100.0 * evaluate(&model, &val, 32)
    );
    train_sgd(&mut model, &train, &app.finetune_recipe());
    println!("after fine-tune: accuracy {:.1}%", 100.0 * evaluate(&model, &val, 32));
}
