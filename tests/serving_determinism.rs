//! Serving determinism: the `iprune-serve` front end must be a pure
//! accelerator — the logits it returns are bitwise-identical to running
//! each sample through the model alone, every admission decision is
//! byte-identical at any thread count and any batch width, and serving a
//! request clones zero weight buffers (pinned by the
//! `tensor.weight_clones` counter the `Param` Clone impl maintains).

use iprune_repro::device::power::PowerStrength;
use iprune_repro::models::zoo::App;
use iprune_repro::obs::metrics;
use iprune_repro::serve::report::logits_checksum;
use iprune_repro::serve::{
    DeviceProfile, ExecMode, ModelRegistry, Outcome, RegistryConfig, Request, ServeConfig, Server,
    VariantKey,
};
use iprune_repro::tensor::layer::Layer;
use iprune_repro::tensor::par;
use std::sync::Arc;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn registry() -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::new(RegistryConfig::default()))
}

/// A small mixed workload with enough deadline pressure to exercise all
/// three admission outcomes.
fn workload(reg: &ModelRegistry, n: usize) -> Vec<Request> {
    let keys = [
        VariantKey::new(App::Har, DeviceProfile::Nominal, PowerStrength::Strong),
        VariantKey::new(App::Har, DeviceProfile::SmallCap, PowerStrength::Strong),
        VariantKey::new(App::Cks, DeviceProfile::Nominal, PowerStrength::Strong),
        VariantKey::new(App::Cks, DeviceProfile::Nominal, PowerStrength::Weak),
    ];
    let har = App::Har.dataset(16, 5);
    let cks = App::Cks.dataset(16, 6);
    (0..n)
        .map(|i| {
            let h = splitmix(0xD0_5E4F ^ i as u64);
            let key = keys[(h % keys.len() as u64) as usize];
            let ds = if key.app == App::Har { &har } else { &cks };
            let input = ds.sample((splitmix(h) % 16) as usize);
            let pct = 50 + splitmix(h ^ 0xB0D6E7) % 600;
            let budget = reg.get_or_load(key).plan.cost * pct / 100;
            Request { id: i as u64, key, input, budget }
        })
        .collect()
}

#[test]
fn served_logits_are_bitwise_identical_to_single_request_inference() {
    let reg = registry();
    for app in [App::Har, App::Cks] {
        let key = VariantKey::new(app, DeviceProfile::Nominal, PowerStrength::Strong);
        let ds = app.dataset(6, 11);
        let requests: Vec<Request> = (0..6)
            .map(|i| Request { id: i as u64, key, input: ds.sample(i), budget: u64::MAX })
            .collect();
        let server =
            Server::new(Arc::clone(&reg), ServeConfig { max_batch: 4, ..Default::default() });
        let out = server.run(&requests);

        // reference: an independently rebuilt model (deterministic seeds +
        // deterministic block masks) evaluated one sample at a time through
        // the training pass, `forward`
        let mut reference = app.build();
        let masks = reference.block_magnitude_masks(key.keep_ppm());
        reference.set_masks(&masks);
        for (i, c) in out.completions.iter().enumerate() {
            assert!(matches!(c.outcome, Outcome::Served { .. }), "{}: request {i}", app.name());
            let want = reference.forward(&ds.sample(i));
            assert_eq!(
                c.logits,
                want.data(),
                "{}: served logits differ from single-sample forward",
                app.name()
            );
        }
    }
}

#[test]
fn serving_clones_zero_weight_buffers_per_request() {
    use iprune_repro::tensor::layer::weight_clone_count;
    let reg = registry();
    let requests = workload(&reg, 32);
    let server = Server::new(Arc::clone(&reg), ServeConfig::default());

    let admitted_before = metrics::counter("serve.admitted").get();
    let before = weight_clone_count();
    let out = server.run(&requests);
    server.reset_history();
    let seq = server.run_mode(&requests, ExecMode::Sequential);
    let after = weight_clone_count();
    let admitted_after = metrics::counter("serve.admitted").get();

    assert!(out.stats.admitted > 0, "workload must admit requests");
    // >=: other tests in this binary may serve concurrently on the shared
    // global counters
    assert!(
        admitted_after - admitted_before >= out.stats.admitted + seq.stats.admitted,
        "admission counter tracks both runs"
    );
    assert_eq!(
        after - before,
        0,
        "serving must not clone any weight buffer, in either execution mode"
    );
}

#[test]
fn admission_and_logits_are_identical_at_any_thread_count() {
    let reg = registry();
    let requests = workload(&reg, 48);
    let mut reference: Option<(String, u64)> = None;
    for threads in [1usize, 2, 8] {
        par::set_threads(threads);
        let server = Server::new(Arc::clone(&reg), ServeConfig::default());
        let out = server.run(&requests);
        let stats = format!("{:?}", out.stats);
        let logits = logits_checksum(out.completions.iter().map(|c| c.logits.as_slice()));
        match &reference {
            None => reference = Some((stats, logits)),
            Some((s, l)) => {
                assert_eq!(&stats, s, "RunStats must be identical at {threads} threads");
                assert_eq!(logits, *l, "logit bits must be identical at {threads} threads");
            }
        }
    }
    par::set_threads(0);
}

#[test]
fn admission_and_logits_are_identical_across_batch_widths() {
    let reg = registry();
    let requests = workload(&reg, 48);
    let mut reference: Option<(u64, u64, u64, String, String, u64)> = None;
    for max_batch in [1usize, 4, 16] {
        let server = Server::new(Arc::clone(&reg), ServeConfig { max_batch, ..Default::default() });
        let out = server.run(&requests);
        let s = &out.stats;
        // batch_size/batches legitimately differ with the width; everything
        // the admission sweep decides must not
        let row = (
            s.admitted,
            s.rejected,
            s.degraded,
            format!("{:?}", s.queue_depth),
            format!("{:?}", s.service_cost),
            logits_checksum(out.completions.iter().map(|c| c.logits.as_slice())),
        );
        match &reference {
            None => reference = Some(row),
            Some(r) => assert_eq!(&row, r, "max_batch={max_batch} changed admission or logits"),
        }
    }
}

#[test]
fn serve_instruments_snapshot_in_pinned_alphabetical_order() {
    // make sure every serving instrument exists and carries data
    let reg = registry();
    let requests = workload(&reg, 16);
    Server::new(reg, ServeConfig::default()).run(&requests);

    let snap = metrics::snapshot();
    let serve_names: Vec<&str> =
        snap.iter().map(|(n, _)| n.as_str()).filter(|n| n.starts_with("serve.")).collect();
    let expected = [
        "serve.admitted",
        "serve.batch_size",
        "serve.degraded",
        "serve.queue_depth",
        "serve.registry.hits",
        "serve.registry.loads",
        "serve.rejected",
    ];
    assert_eq!(
        serve_names, expected,
        "serve.* instruments must snapshot completely, in sorted order"
    );
    // and the counter triple plus both histograms must be distinguishable
    // kinds, counters first under the (name, kind) tie order
    for (name, reading) in snap.iter().filter(|(n, _)| n.starts_with("serve.")) {
        let is_hist = matches!(reading, metrics::Reading::Histogram { .. });
        let expect_hist = name == "serve.batch_size" || name == "serve.queue_depth";
        assert_eq!(is_hist, expect_hist, "{name}: wrong instrument kind");
    }
}
