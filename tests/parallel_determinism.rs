//! The host-side parallelism contract: thread count never changes results.
//!
//! Every parallel region in the workspace (per-sample conv GEMMs, batched
//! evaluation, per-layer sensitivity probes) reduces its partials in a
//! fixed order, so training, evaluation, and sensitivity analysis must be
//! *bitwise* identical whether they run on one worker or many. These tests
//! pin that contract on a seeded HAR model small enough to train in-test.

use iprune_repro::device::energy::EnergyModel;
use iprune_repro::device::timing::TimingModel;
use iprune_repro::models::train::{evaluate, train_sgd, TrainConfig};
use iprune_repro::models::zoo::App;
use iprune_repro::pruning::blocks::build_states;
use iprune_repro::pruning::sensitivity::analyze;
use iprune_repro::pruning::Criterion;
use iprune_repro::tensor::par;

/// Bit patterns of every weight tensor in the model, in layer order.
fn weight_bits(model: &iprune_repro::models::model::Model) -> Vec<u32> {
    model.snapshot().iter().flat_map(|t| t.data().iter().map(|x| x.to_bits())).collect()
}

#[test]
fn train_and_evaluate_are_thread_count_invariant() {
    let run = |threads: usize| {
        par::set_threads(threads);
        let mut m = App::Har.build();
        let ds = App::Har.dataset(48, 9);
        let loss = train_sgd(&mut m, &ds, &TrainConfig { epochs: 1, ..Default::default() });
        let acc = evaluate(&m, &ds, 16);
        let weights = weight_bits(&m);
        par::set_threads(0);
        (loss.to_bits(), acc.to_bits(), weights)
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        let parallel = run(threads);
        assert_eq!(parallel.0, serial.0, "final loss differs at {threads} threads");
        assert_eq!(parallel.1, serial.1, "accuracy differs at {threads} threads");
        assert_eq!(parallel.2, serial.2, "weights differ at {threads} threads");
    }
}

#[test]
fn sensitivity_analysis_is_thread_count_invariant() {
    let run = |threads: usize| {
        par::set_threads(threads);
        let mut m = App::Har.build();
        let ds = App::Har.dataset(60, 3);
        train_sgd(&mut m, &ds, &TrainConfig { epochs: 1, ..Default::default() });
        let states = build_states(
            &mut m,
            Criterion::AccOutputs,
            &TimingModel::default(),
            &EnergyModel::default(),
        );
        let sens = analyze(&m, &states, &ds.take(24), 0.3, 12);
        par::set_threads(0);
        (sens.baseline.to_bits(), sens.drops.iter().map(|d| d.to_bits()).collect::<Vec<u64>>())
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        let parallel = run(threads);
        assert_eq!(parallel.0, serial.0, "baseline differs at {threads} threads");
        assert_eq!(parallel.1, serial.1, "sensitivity drops differ at {threads} threads");
    }
}
