//! `fleet`: a deployment campaign over the default 5 harvest profiles × 4
//! device variants, replaying one recorded HAR inference and one recorded
//! CKS inference on every sampled device. No GEMM runs here: the workload
//! is bound by the device simulator.

use crate::report::{mix, repeat_setup, run_units, share, Fnv, Report, Tally};
use crate::trace::{total_s, Tracer};
use crate::{Opts, SETUPS};
use iprune_repro::faults::RunOutcome;
use iprune_repro::fleet::{
    record_workload, replay, CellAgg, FleetCampaign, PopulationSpec, Workload,
};
use iprune_repro::hawaii::deploy::{deploy, DeployedModel};
use iprune_repro::hawaii::exec::{infer, ExecMode};
use iprune_repro::models::zoo::App;
use iprune_repro::tensor::Tensor;
use std::time::Instant;

/// Devices per (workload × harvest × variant) cell: 40 cells.
const DEVICES_PER_CELL: u64 = 10;
const SHARD_SIZE: u64 = 10;
/// Devices per cell re-run through the full engine for the replay check.
const ENGINE_CHECK_DEVICES: u64 = 2;
/// Devices per cell timed one by one in the traced run's probe.
const PROBE_DEVICES: u64 = 25;

struct Recorded {
    dm: DeployedModel,
    x: Tensor,
    w: Workload,
}

fn setup(seed: u64) -> Vec<Recorded> {
    // the weights do not change the timing and energy trajectory, so
    // untrained networks stand in for trained ones
    [(App::Har, 1u64), (App::Cks, 2)]
        .into_iter()
        .map(|(app, tag)| {
            let mut model = app.build();
            let ds = app.dataset(4, mix(seed, tag));
            let dm = deploy(&mut model, &ds, 2);
            let x = ds.sample(0);
            let w = record_workload(&dm, &x);
            Recorded { dm, x, w }
        })
        .collect()
}

/// (cell index, workload index, harvest index, variant index) of every
/// cell, in the campaign's own cell order.
fn cells(pop: &PopulationSpec, n_workloads: usize) -> Vec<(usize, usize, usize, usize)> {
    let mut out = Vec::new();
    for w in 0..n_workloads {
        for h in 0..pop.harvests.len() {
            for v in 0..pop.variants.len() {
                out.push((out.len(), w, h, v));
            }
        }
    }
    out
}

fn fold_cell(pop: &PopulationSpec, w: &Workload, cell: usize, h: usize, v: usize) -> CellAgg {
    let mut agg = CellAgg::default();
    for d in 0..pop.devices_per_cell {
        let mut sim = pop.sample(cell as u64, h, v, d).build_sim();
        match replay(w, &mut sim) {
            Ok(out) => agg.record_completed(&out),
            Err(outcome) => agg.record_failed(&outcome),
        }
    }
    agg
}

/// Runs the workload.
pub fn run(o: &Opts) -> Report {
    let mut report = Report::default();
    let (setup_s, apps) = repeat_setup(SETUPS, || setup(o.seed));
    report.setup_s = setup_s;
    let workloads: Vec<Workload> = apps.iter().map(|a| a.w.clone()).collect();
    let campaign = FleetCampaign {
        population: PopulationSpec::default_fleet(DEVICES_PER_CELL, mix(o.seed, 10)),
        shard_size: SHARD_SIZE,
    };
    let pop = &campaign.population;
    let tracer = Tracer::new();

    let (units, mut rep, sum) = run_units(
        o,
        &tracer,
        &mut report,
        "fleet.units_repeat",
        |_, _| tracer.span("fleet.campaign", || campaign.run(&workloads)),
        |rep| {
            let mut h = Fnv::new();
            h.bytes(rep.structural_json().as_bytes());
            h.finish()
        },
    );
    report.unit_s = units.untraced_s.clone();

    let all_cells = cells(pop, workloads.len());
    // the cell that exercises failure accounting: HAR under RF bursts on
    // slow FRAM, where devices livelock
    let fold_idx = all_cells
        .iter()
        .position(|&(_, w, h, v)| {
            w == 0 && pop.harvests[h].label() == "rf bursts" && pop.variants[v].name == "slow-fram"
        })
        .expect("default fleet has an rf-bursts x slow-fram cell");
    if o.corrupt {
        let agg = &mut rep.cells[fold_idx].agg;
        agg.completed -= 1;
        agg.livelocked += 1;
    }

    // Every device lands in exactly one outcome, with one latency sample
    // per completed device.
    let mut outcomes = Tally::default();
    for row in &rep.cells {
        let a = &row.agg;
        let ok = a.devices == pop.devices_per_cell
            && a.completed + a.livelocked + a.nonterminated == a.devices
            && a.latency_ns.count == a.completed;
        outcomes.op(ok, || format!("{} / {} / {}: {a:?}", row.workload, row.harvest, row.variant));
    }
    outcomes.finish(&mut report, "fleet.one_outcome_per_device");

    // Replay equals the full engine on the same sampled device.
    let mut engine = Tally::default();
    for &(cell, w, h, v) in &all_cells {
        let app = &apps[w];
        for d in 0..ENGINE_CHECK_DEVICES {
            let device = pop.sample(cell as u64, h, v, d);
            let (mut rs, mut es) = (device.build_sim(), device.build_sim());
            let r = replay(&app.w, &mut rs);
            let e = infer(&app.dm, &app.x, &mut es, ExecMode::Intermittent);
            let ok = match (&r, &e) {
                (Ok(r), Ok(e)) => {
                    r.latency_s.to_bits() == e.latency_s.to_bits()
                        && r.stats == e.stats
                        && r.retries == e.retries
                        && r.power_cycles == e.power_cycles
                }
                (Err(r), Err(e)) => r.name() == RunOutcome::from_engine_error(e, None).name(),
                _ => false,
            };
            engine.op(ok, || format!("cell {cell} device {d}: replay {r:?} vs engine {e:?}"));
        }
    }
    engine.finish(&mut report, "fleet.replay_equals_engine");

    // One cell's campaign aggregate equals a sequential fold.
    let (cell, w, h, v) = all_cells[fold_idx];
    let folded = fold_cell(pop, &workloads[w], cell, h, v);
    let mut fold = Tally::default();
    fold.op(folded == rep.cells[fold_idx].agg, || {
        format!("cell {cell}: campaign {:?} vs fold {folded:?}", rep.cells[fold_idx].agg)
    });
    fold.finish(&mut report, "fleet.campaign_equals_fold");
    report.attempted = units.count() as u64 * rep.devices;

    let sum_of = |f: &dyn Fn(&CellAgg) -> u64| rep.cells.iter().map(|c| f(&c.agg)).sum::<u64>();
    let livelocks = sum_of(&|a| a.livelocked);
    let nonterm = sum_of(&|a| a.nonterminated);
    let work = crate::report::median(&report.unit_s);
    report.detail("fleet_devices_per_s", rep.devices as f64 / work, "devices/s");
    report.detail("fleet_failed_ppm", share(livelocks + nonterm, rep.devices) * 1e6, "ppm");
    report.detail("devices", rep.devices as f64, "count");
    report.detail("livelocks", livelocks as f64, "count");
    report.detail("nonterminations", nonterm as f64, "count");
    report.checksum = sum;

    if o.trace {
        let spans = tracer.spans();
        let campaign_s = total_s(&spans, "fleet.campaign") / units.traced_s.len() as f64;
        let per_cell = |f: &dyn Fn(&CellAgg, &Workload) -> u64| -> u64 {
            all_cells.iter().map(|&(c, w, _, _)| f(&rep.cells[c].agg, &workloads[w])).sum()
        };
        let sim_ns = rep.cells.iter().map(|c| c.agg.latency_ns.sum).sum::<u128>();
        let activities = per_cell(&|a, w| a.completed * w.activities.len() as u64);
        let jobs = per_cell(&|a, w| a.completed * w.jobs);
        let retries = rep.cells.iter().map(|c| c.agg.retries.sum).sum::<u128>() as u64;
        report.layer("fleet.campaign_s", campaign_s, "s");
        report.layer("device.sim_s_per_host_s", sim_ns as f64 * 1e-9 / campaign_s, "sim_s/s");
        report.layer("device.activities_per_s", activities as f64 / campaign_s, "1/s");
        report.layer("fleet.retry_share", share(retries, jobs + retries), "fraction");
        report.layer("fleet.livelocks", livelocks as f64, "count");
        report.layer("fleet.nonterminations", nonterm as f64, "count");
        units.counters.report_tensor(&mut report);
        report.layer("trace.overhead_share", units.overhead(), "fraction");
        device_probe(pop, &workloads, &all_cells, &mut report);
        crate::write_trace(o, &spans);
    }
    report
}

/// Times the campaign's per-device steps one device at a time over the
/// first `PROBE_DEVICES` devices of every cell: sampling plus simulator
/// construction, replay (split by app), and folding into an aggregate.
fn device_probe(
    pop: &PopulationSpec,
    workloads: &[Workload],
    all_cells: &[(usize, usize, usize, usize)],
    report: &mut Report,
) {
    let (mut sample_ns, mut agg_ns) = (0u128, 0u128);
    let mut replay_ns = [0u128; 2];
    let mut replays = [0u64; 2];
    let mut total = CellAgg::default();
    for &(cell, w, h, v) in all_cells {
        let mut agg = CellAgg::default();
        for d in 0..PROBE_DEVICES {
            let t0 = Instant::now();
            let mut sim = pop.sample(cell as u64, h, v, d).build_sim();
            let t1 = Instant::now();
            let out = replay(&workloads[w], &mut sim);
            let t2 = Instant::now();
            match &out {
                Ok(r) => agg.record_completed(r),
                Err(f) => agg.record_failed(f),
            }
            let t3 = Instant::now();
            sample_ns += (t1 - t0).as_nanos();
            replay_ns[w] += (t2 - t1).as_nanos();
            replays[w] += 1;
            agg_ns += (t3 - t2).as_nanos();
        }
        let t0 = Instant::now();
        total.merge(&agg);
        agg_ns += t0.elapsed().as_nanos();
    }
    std::hint::black_box(&total);
    let devices = (all_cells.len() as u64 * PROBE_DEVICES) as f64;
    report.layer("fleet.sample_us", sample_ns as f64 * 1e-3 / devices, "us");
    report.layer("fleet.replay_har_us", replay_ns[0] as f64 * 1e-3 / replays[0] as f64, "us");
    report.layer("fleet.replay_cks_us", replay_ns[1] as f64 * 1e-3 / replays[1] as f64, "us");
    report.layer("fleet.agg_us", agg_ns as f64 * 1e-3 / devices, "us");
}
