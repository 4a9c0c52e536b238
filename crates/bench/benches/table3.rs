//! Table III — characteristics of the pruned models.
//!
//! Runs the full train → prune(ePrune / iPrune) → deploy pipelines for all
//! three apps and prints accuracy, deployed model size, MACs, and
//! accelerator outputs for Unpruned / ePrune / iPrune, next to the paper's
//! values. Heavy: respects `IPRUNE_SCALE` and caches checkpoints under
//! `target/iprune_cache/`.

use iprune::report::quantized_accuracy;
use iprune_bench::cache::cache_dir;
use iprune_bench::{run_all_apps, Scale, Variant};
use iprune_models::zoo::App;

fn paper(app: App, v: Variant) -> (f64, f64, f64, f64) {
    // (accuracy %, size KB, MACs K, acc outputs K)
    match (app, v) {
        (App::Sqn, Variant::Unpruned) => (76.3, 147.0, 4442.0, 1483.0),
        (App::Sqn, Variant::EPrune) => (75.5, 56.0, 1617.0, 561.0),
        (App::Sqn, Variant::IPrune) => (75.5, 55.0, 1560.0, 518.0),
        (App::Har, Variant::Unpruned) => (92.5, 28.0, 321.0, 77.0),
        (App::Har, Variant::EPrune) => (92.7, 14.0, 183.0, 56.0),
        (App::Har, Variant::IPrune) => (92.7, 9.0, 108.0, 44.0),
        (App::Cks, Variant::Unpruned) => (87.5, 131.0, 2811.0, 1582.0),
        (App::Cks, Variant::EPrune) => (87.6, 75.0, 1047.0, 987.0),
        (App::Cks, Variant::IPrune) => (87.7, 67.0, 1149.0, 509.0),
    }
}

fn main() {
    let scale = Scale::from_env();
    println!("Table III — Characteristics of the pruned models ({})", scale.describe_run());
    println!("==================================================================");
    println!(
        "{:<5} {:<9} {:>9} {:>8} {:>11} {:>10} {:>13}",
        "App", "Model", "Acc(f32)", "Acc(q15)", "Size", "MACs", "Acc.Outputs"
    );
    // the three app pipelines run concurrently; rows print in app order
    for results in run_all_apps(&scale, true, &cache_dir()) {
        let app = results.app;
        for vr in &results.variants {
            let qacc = quantized_accuracy(&vr.deployed, &results.val, scale.quant_eval);
            let (pa, ps, pm, po) = paper(app, vr.variant);
            println!(
                "{:<5} {:<9} {:>8.1}% {:>7.1}% {:>8.0} KB {:>8.0} K {:>11.0} K",
                app.name(),
                vr.variant.label(),
                vr.ch.accuracy * 100.0,
                qacc * 100.0,
                vr.ch.size_bytes as f64 / 1024.0,
                vr.ch.macs as f64 / 1000.0,
                vr.ch.acc_outputs as f64 / 1000.0,
            );
            println!(
                "{:<5} {:<9} {:>8.1}% {:>8} {:>8.0} KB {:>8.0} K {:>11.0} K   (paper)",
                "", "", pa, "-", ps, pm, po
            );
        }
        // shape checks the paper emphasizes
        let un = &results.variants[0].ch;
        let ep = &results.variants[1].ch;
        let ip = &results.variants[2].ch;
        println!(
            "  -> iPrune vs ePrune: size x{:.2}, acc outputs x{:.2} (paper: smaller is better for iPrune)",
            ip.size_bytes as f64 / ep.size_bytes as f64,
            ip.acc_outputs as f64 / ep.acc_outputs as f64,
        );
        println!(
            "  -> acc-output reduction vs unpruned: ePrune {:.0}%, iPrune {:.0}%",
            100.0 * (1.0 - ep.acc_outputs as f64 / un.acc_outputs as f64),
            100.0 * (1.0 - ip.acc_outputs as f64 / un.acc_outputs as f64),
        );
    }
}
