//! Cross-crate integration: the full train → prune → deploy → intermittent
//! inference path on the fast HAR workload.

use iprune_repro::device::{DeviceSim, PowerStrength};
use iprune_repro::hawaii::deploy::deploy;
use iprune_repro::hawaii::exec::{infer, ExecMode};
use iprune_repro::models::train::{evaluate, train_sgd};
use iprune_repro::models::zoo::App;
use iprune_repro::pruning::pipeline::{prune, PruneConfig};
use iprune_repro::pruning::sa::SaConfig;

fn quick_cfg(app: App) -> PruneConfig {
    PruneConfig {
        max_iterations: 4,
        sens_eval: 24,
        val_eval: 60,
        sa: SaConfig { steps: 200, ..Default::default() },
        finetune: app.finetune_recipe(),
        ..PruneConfig::iprune()
    }
}

#[test]
fn har_full_pipeline_prunes_and_speeds_up_intermittent_inference() {
    let app = App::Har;
    let train = app.dataset(300, 900);
    let val = app.dataset(120, 901);
    let mut model = app.build();
    train_sgd(&mut model, &train, &app.train_recipe());
    let base_acc = evaluate(&model, &val, 32);
    assert!(base_acc > 0.7, "base model failed to train: {base_acc}");

    // deploy the unpruned model
    let mut unpruned = app.build();
    unpruned.load_weights(&model.extract_weights());
    let dm_unpruned = deploy(&mut unpruned, &val, 4);

    // prune and deploy
    let report = prune(&mut model, &train, &val, &quick_cfg(app));
    let dm_pruned = deploy(&mut model, &val, 4);

    assert!(
        dm_pruned.total_acc_outputs() <= dm_unpruned.total_acc_outputs(),
        "pruning must not increase accelerator outputs"
    );

    // run both on the simulated device under strong harvested power
    let x = val.sample(0);
    let mut sim_u = DeviceSim::new(PowerStrength::Strong, 5);
    let out_u = infer(&dm_unpruned, &x, &mut sim_u, ExecMode::Intermittent).unwrap();
    let mut sim_p = DeviceSim::new(PowerStrength::Strong, 5);
    let out_p = infer(&dm_pruned, &x, &mut sim_p, ExecMode::Intermittent).unwrap();

    if report.adopted_iteration.is_some() {
        assert!(report.final_density < 1.0);
        assert!(
            out_p.latency_s < out_u.latency_s,
            "pruned model should be faster: {} vs {}",
            out_p.latency_s,
            out_u.latency_s
        );
        assert!(
            report.baseline_accuracy - report.final_accuracy <= 0.011,
            "accuracy loss beyond epsilon"
        );
    }
}

#[test]
fn quantized_deployment_preserves_float_accuracy() {
    let app = App::Har;
    let train = app.dataset(240, 910);
    let val = app.dataset(60, 911);
    let mut model = app.build();
    train_sgd(&mut model, &train, &app.train_recipe());
    let float_acc = evaluate(&model, &val, 32);
    let dm = deploy(&mut model, &val, 4);

    let mut correct = 0;
    for i in 0..val.len() {
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        let out = infer(&dm, &val.sample(i), &mut sim, ExecMode::Continuous).unwrap();
        if out.argmax == val.labels()[i] {
            correct += 1;
        }
    }
    let q_acc = correct as f64 / val.len() as f64;
    assert!(
        (q_acc - float_acc).abs() < 0.1,
        "16-bit deployment accuracy {q_acc} vs float {float_acc}"
    );
}
