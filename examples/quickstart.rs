//! Quickstart: train a TinyML model, prune it with iPrune, deploy it to the
//! simulated MSP430, and run intermittent inference under harvested power.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use iprune_repro::device::{DeviceSim, PowerStrength};
use iprune_repro::hawaii::deploy::deploy;
use iprune_repro::hawaii::exec::{infer, ExecMode};
use iprune_repro::models::train::{evaluate, train_sgd};
use iprune_repro::models::zoo::App;
use iprune_repro::pruning::pipeline::{prune, PruneConfig};

fn main() {
    // 1. Train the human-activity-recognition model on the synthetic task.
    let app = App::Har;
    let train = app.dataset(400, 1);
    let val = app.dataset(150, 2);
    let mut model = app.build();
    train_sgd(&mut model, &train, &app.train_recipe());
    println!("trained {}: accuracy {:.1}%", app.name(), 100.0 * evaluate(&model, &val, 32));

    // 2. Prune it with iPrune (accelerator-output criterion, block
    //    granularity, iterative with epsilon = 1%).
    let cfg = PruneConfig { finetune: app.finetune_recipe(), ..PruneConfig::iprune() };
    let report = prune(&mut model, &train, &val, &cfg);
    println!(
        "pruned: kept {:.1}% of weights, accuracy {:.1}% (baseline {:.1}%)",
        100.0 * report.final_density,
        100.0 * report.final_accuracy,
        100.0 * report.baseline_accuracy
    );

    // 3. Deploy: quantize to 16-bit fixed point and pack into BSR.
    let dm = deploy(&mut model, &val, 8);
    println!(
        "deployed: {} KB on NVM, {} K MACs, {} K accelerator outputs per inference",
        dm.reported_size_bytes() / 1024,
        dm.total_macs() / 1000,
        dm.total_acc_outputs() / 1000
    );

    // 4. Run one end-to-end intermittent inference under weak solar power.
    let x = val.sample(0);
    let mut sim = DeviceSim::new(PowerStrength::Weak, 7);
    let out = infer(&dm, &x, &mut sim, ExecMode::Intermittent).expect("inference");
    println!(
        "intermittent inference under {}: {:.3} s across {} power cycles, predicted class {} (label {})",
        PowerStrength::Weak.label(),
        out.latency_s,
        out.power_cycles,
        out.argmax,
        val.labels()[0]
    );
}
