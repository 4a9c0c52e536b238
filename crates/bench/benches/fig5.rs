//! Figure 5 — intermittent inference latency of the pruned models under
//! different power supplies.
//!
//! For each app x {continuous, strong 8 mW, weak 4 mW, solar trace} x
//! {Unpruned, ePrune, iPrune}: the average end-to-end latency of one
//! inference on the simulated device (HAWAII+-style intermittent engine),
//! with the speedup annotations the paper prints above the bars
//! (iPrune vs ePrune and iPrune vs Unpruned). The solar-trace row extends
//! the paper's constant levels with power that varies mid-inference.
//!
//! Reuses `table3`'s cached checkpoints when present (run table3 first for
//! identical models); otherwise it runs the pipelines itself.

use iprune_bench::cache::cache_dir;
use iprune_bench::{run_all_apps, sweep_supplies, Scale};
use iprune_device::power::Supply;
use iprune_device::DeviceSim;
use iprune_hawaii::exec::{infer, ExecMode};
use iprune_hawaii::DeployedModel;

fn mean_latency(
    dm: &DeployedModel,
    x: &iprune_tensor::Tensor,
    supply: &Supply,
    reps: usize,
) -> (f64, f64) {
    let mut total = 0.0;
    let mut cycles = 0.0;
    for r in 0..reps {
        let seed = if supply.is_bench_supply() { 0 } else { 1 + r as u64 };
        let mut sim = DeviceSim::with_supply(supply.clone(), seed);
        let out = infer(dm, x, &mut sim, ExecMode::Intermittent).expect("intermittent inference");
        total += out.latency_s;
        cycles += out.power_cycles as f64;
    }
    (total / reps as f64, cycles / reps as f64)
}

fn main() {
    let scale = Scale::from_env();
    println!("Figure 5 — Intermittent inference latency (seconds; {})", scale.describe_run());
    println!("================================================================");
    // the three app pipelines run concurrently; rows print in app order
    for results in run_all_apps(&scale, true, &cache_dir()) {
        let app = results.app;
        let x = results.val.sample(0);
        println!();
        println!("{}", app.name());
        println!(
            "  {:<18} {:>10} {:>10} {:>10} {:>14} {:>14}",
            "power", "Unpruned", "ePrune", "iPrune", "iP vs eP", "iP vs Unpruned"
        );
        for point in sweep_supplies() {
            let lat: Vec<(f64, f64)> = results
                .variants
                .iter()
                .map(|vr| mean_latency(&vr.deployed, &x, &point.supply, scale.latency_reps))
                .collect();
            println!(
                "  {:<18} {:>9.3}s {:>9.3}s {:>9.3}s {:>13.2}x {:>13.2}x   (cycles {:.0}/{:.0}/{:.0})",
                point.label,
                lat[0].0,
                lat[1].0,
                lat[2].0,
                lat[1].0 / lat[2].0,
                lat[0].0 / lat[2].0,
                lat[0].1,
                lat[1].1,
                lat[2].1,
            );
        }
    }
    println!();
    println!("Paper shape: iPrune 1.1–2x faster than ePrune and 1.7–2.9x faster than");
    println!("Unpruned, with the gap widening for high-diversity models (CKS) and");
    println!("holding (or growing slightly) as power weakens.");
}
