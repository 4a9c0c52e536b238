//! `serve`: a closed loop with one client that sends rounds of 64 seeded
//! requests to `Server::run` back to back, over the serving bench's 9-key
//! catalog, with the default f32 batched configuration.

use crate::report::{mix, quantile, repeat_setup, run_units, share, Counters, Fnv, Report, Tally};
use crate::trace::Tracer;
use crate::{Opts, SETUPS};
use iprune_repro::datasets::Dataset;
use iprune_repro::device::PowerStrength;
use iprune_repro::models::zoo::App;
use iprune_repro::serve::{
    DeviceProfile, ModelRegistry, Outcome, RegistryConfig, Request, ServeConfig, ServeOutcome,
    Server, VariantKey,
};
use iprune_repro::tensor::exec::ExecCtx;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Requests per round: the server's own admission round.
const ROUND: usize = 64;
/// Rounds per pass over the timed stream.
const ROUNDS: usize = 25;
/// Rounds of the stream replayed on a separate server before timing.
const WARM_ROUNDS: usize = 16;
/// Input samples drawn per app.
const POOL: usize = 64;
/// Every `LOGIT_CHECK_STRIDE`-th request of the first pass, if executed, is
/// re-run alone through `Model::infer` after timing.
const LOGIT_CHECK_STRIDE: usize = 5;

/// Every app at nominal strong and weak power, plus HAR across the other
/// hardware profiles.
fn catalog() -> Vec<VariantKey> {
    let mut keys = Vec::new();
    for app in App::all() {
        keys.push(VariantKey::new(app, DeviceProfile::Nominal, PowerStrength::Strong));
        keys.push(VariantKey::new(app, DeviceProfile::Nominal, PowerStrength::Weak));
    }
    for profile in [DeviceProfile::SmallCap, DeviceProfile::BigCap, DeviceProfile::SlowFram] {
        keys.push(VariantKey::new(App::Har, profile, PowerStrength::Strong));
    }
    keys
}

struct Setup {
    registry: Arc<ModelRegistry>,
    rounds: Vec<Vec<Request>>,
}

fn setup(seed: u64) -> Setup {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    let keys = catalog();
    for &key in &keys {
        let mut rung = Some(key);
        while let Some(k) = rung {
            registry.get_or_load(k);
            rung = k.degraded();
        }
    }
    let pools: Vec<Dataset> = App::all()
        .iter()
        .enumerate()
        .map(|(i, app)| app.dataset(POOL, mix(seed, 20 + i as u64)))
        .collect();
    let rounds: Vec<Vec<Request>> = (0..ROUNDS)
        .map(|r| {
            (0..ROUND)
                .map(|j| {
                    let id = (r * ROUND + j) as u64;
                    let h = mix(seed, 1000 + id);
                    let key = keys[(h % keys.len() as u64) as usize];
                    let app_idx =
                        App::all().iter().position(|a| *a == key.app).expect("catalog app");
                    let input = pools[app_idx].sample((mix(h, 1) % POOL as u64) as usize);
                    // budget: 1x to 16x the requested variant's plan cost. A
                    // round queues each variant's requests behind one another,
                    // so tight budgets degrade or get refused.
                    let pct = 100 + mix(h, 2) % 1500;
                    let budget = registry.get_or_load(key).plan.cost * pct / 100;
                    Request { id, key, input, budget }
                })
                .collect()
        })
        .collect();
    // warm the serving path on a separate server, so the timed server
    // starts with empty admission history
    let warm = Server::new(Arc::clone(&registry), ServeConfig::default());
    for round in rounds.iter().take(WARM_ROUNDS) {
        std::hint::black_box(warm.run(round));
    }
    Setup { registry, rounds }
}

/// What one pass over the stream measured.
#[derive(Default)]
struct Pass {
    traced: bool,
    round_s: Vec<f64>,
    sent: u64,
    admitted: u64,
    degraded: u64,
    rejected: u64,
    batches: u64,
    batch_sum: u128,
    batch_walls_ms: Vec<f64>,
}

fn digest(outs: &[ServeOutcome]) -> u64 {
    let mut h = Fnv::new();
    for c in outs.iter().flat_map(|o| &o.completions) {
        h.u64(c.id);
        match &c.outcome {
            Outcome::Served { key } => h.bytes(format!("S{key}").as_bytes()),
            Outcome::Degraded { from, to } => h.bytes(format!("D{from}>{to}").as_bytes()),
            Outcome::Rejected { estimate } => {
                h.bytes(b"R");
                h.u64(*estimate);
            }
        }
        h.f32s(&c.logits);
    }
    h.finish()
}

/// Runs the workload.
pub fn run(o: &Opts) -> Report {
    let mut report = Report::default();
    let (setup_s, s) = repeat_setup(SETUPS, || setup(o.seed));
    report.setup_s = setup_s;
    let tracer = Tracer::new();
    let cfg = ServeConfig::default();

    let mut counts = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let c_start = Counters::read();
    let (units, first_outs, sum) = run_units(
        o,
        &tracer,
        &mut report,
        "serve.passes_repeat",
        |i, traced| {
            // a fresh server per pass: admission starts from the same empty
            // history, so every pass admits identically
            let server = Server::new(Arc::clone(&s.registry), cfg.clone());
            let mut p = Pass { traced, ..Pass::default() };
            let mut outs = Vec::with_capacity(s.rounds.len());
            for (r, round) in s.rounds.iter().enumerate() {
                let t0 = Instant::now();
                let mut out = tracer.span("serve.run", || server.run(round));
                p.round_s.push(t0.elapsed().as_secs_f64());
                if o.corrupt && i == 0 && r == 0 {
                    if let Some(c) = out.completions.iter_mut().find(|c| c.pred.is_some()) {
                        c.outcome = Outcome::Rejected { estimate: 0 };
                    }
                }
                // admitted plus refused equals sent, outcome by outcome
                let (mut served, mut degraded, mut rejected) = (0u64, 0u64, 0u64);
                for c in &out.completions {
                    match c.outcome {
                        Outcome::Served { .. } => served += 1,
                        Outcome::Degraded { .. } => degraded += 1,
                        Outcome::Rejected { .. } => rejected += 1,
                    }
                }
                let st = &out.stats;
                counts.op(
                    out.completions.len() == round.len()
                        && served + degraded == st.admitted
                        && degraded == st.degraded
                        && rejected == st.rejected
                        && st.admitted + st.rejected == round.len() as u64,
                    || format!("pass {i} round {r}: {served}+{degraded}+{rejected} vs {st:?}"),
                );
                p.sent += round.len() as u64;
                p.admitted += st.admitted;
                p.degraded += st.degraded;
                p.rejected += st.rejected;
                p.batches += st.batches;
                p.batch_sum += st.batch_size.sum;
                let distinct: BTreeSet<u64> =
                    out.wall_ns.iter().copied().filter(|&w| w > 0).collect();
                p.batch_walls_ms.extend(distinct.iter().map(|&w| w as f64 * 1e-6));
                outs.push(out);
            }
            passes.push(p);
            outs
        },
        |outs| digest(outs),
    );
    let timed = Counters::read().since(&c_start);
    counts.finish(&mut report, "serve.admitted_plus_refused_equals_sent");
    let mut logits = Tally::default();
    for (r, (round, out)) in s.rounds.iter().zip(&first_outs).enumerate() {
        check_logits(&s, round, out, r, &mut logits);
    }
    logits.finish(&mut report, "serve.logits_equal_solo_infer");
    let mut shared = Tally::default();
    shared.op(timed.registry_loads == 0, || {
        format!("{} registry loads while timed", timed.registry_loads)
    });
    shared.op(timed.weight_clones == 0, || {
        format!("{} weight clones while timed", timed.weight_clones)
    });
    shared.finish(&mut report, "serve.no_loads_or_clones_while_timed");

    let round_s: Vec<f64> =
        passes.iter().filter(|p| !p.traced).flat_map(|p| p.round_s.iter().copied()).collect();
    let executed: u64 = passes.iter().filter(|p| !p.traced).map(|p| p.admitted).sum();
    let p0 = &passes[0];
    report.unit_s = units.untraced_s.clone();
    report.attempted = passes.iter().map(|p| p.sent).sum();
    report.detail("serve_rps", executed as f64 / round_s.iter().sum::<f64>(), "req/s");
    report.detail("serve_p50_ms", quantile(&round_s, 0.5) * 1e3, "ms");
    report.detail("serve_p99_ms", quantile(&round_s, 0.99) * 1e3, "ms");
    report.detail("serve_latency_samples", (round_s.len() * ROUND) as f64, "requests");
    report.detail("serve_rejected_share", share(p0.rejected, p0.sent), "fraction");
    report.detail("serve_degraded_share", share(p0.degraded, p0.sent), "fraction");
    report.checksum = sum;

    if o.trace {
        let p = passes.iter().find(|p| p.traced).expect("a traced pass");
        let c = &units.counters;
        report.layer("serve.admitted_share", share(p.admitted, p.sent), "fraction");
        report.layer("serve.degraded_share", share(p.degraded, p.sent), "fraction");
        report.layer("serve.batch_size_mean", p.batch_sum as f64 / p.batches as f64, "requests");
        report.layer("serve.batch_ms_p50", quantile(&p.batch_walls_ms, 0.5), "ms");
        report.layer("serve.batch_ms_p99", quantile(&p.batch_walls_ms, 0.99), "ms");
        let exec_s: f64 = p.batch_walls_ms.iter().sum::<f64>() * 1e-3;
        let round_total: f64 = p.round_s.iter().sum();
        report.layer("serve.exec_share", exec_s / (round_total * o.workers as f64), "fraction");
        report.layer("serve.round_ms_p99", quantile(&p.round_s, 0.99) * 1e3, "ms");
        report.layer("serve.registry_loads", c.registry_loads as f64, "count");
        report.layer("tensor.weight_clones", c.weight_clones as f64, "count");
        c.report_tensor(&mut report);
        report.layer("trace.overhead_share", units.overhead(), "fraction");
        crate::write_trace(o, &tracer.spans());
    }
    report
}

/// Re-runs a fixed subset of the round's executed requests alone through
/// `Model::infer` on the variant that served them; logits must match bit
/// for bit.
fn check_logits(s: &Setup, round: &[Request], out: &ServeOutcome, r: usize, t: &mut Tally) {
    let mut ctx = ExecCtx::new();
    for (j, c) in out.completions.iter().enumerate() {
        if !(r * ROUND + j).is_multiple_of(LOGIT_CHECK_STRIDE) {
            continue;
        }
        let key = match &c.outcome {
            Outcome::Served { key } => *key,
            Outcome::Degraded { to, .. } => *to,
            Outcome::Rejected { .. } => continue,
        };
        let solo = s.registry.get_or_load(key).model.infer(&round[j].input, &mut ctx);
        let same = solo.data().iter().map(|v| v.to_bits()).eq(c.logits.iter().map(|v| v.to_bits()));
        t.op(same, || format!("request {}: served {:?} vs solo {:?}", c.id, c.logits, solo.data()));
    }
}
