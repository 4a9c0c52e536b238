//! Workload record/replay: one traced inference, replayed fleet-wide.
//!
//! Simulating 100k+ devices through the full engine would re-run the same
//! functional compute (GEMMs, requantization) 100k times even though the
//! *numbers* are identical on every device — only the *timing/energy*
//! trajectory differs. So the fleet records the engine's device-activity
//! stream once per model (via the trace sink, under continuous power where
//! nothing fails) and replays just the activities against each sampled
//! simulator.
//!
//! Replay is exact, not approximate: [`replay`] runs each recorded job
//! through the engine's own commit/retry protocol
//! ([`iprune_hawaii::exec::commit_job`]: `read → job → recover` until the
//! job commits, under the engine's retry cap), and blocking
//! reads/writes/CPU work retry internally inside the simulator. The
//! `replay_matches_full_engine_*` tests pin bit-identical latency and
//! `SimStats` against [`infer`] under failing supplies.
//!
//! Recording inverts the trace exactly: a [`TraceEvent::NvmRead`]
//! immediately followed by its [`TraceEvent::JobCommit`] is the engine's
//! `commit_job` read+job pair and fuses into one [`Activity::Job`];
//! standalone reads/writes/CPU work map 1:1. Job CPU cycles are recovered
//! from the committed `cpu_s` through the recorder's [`TimingModel`]
//! (exact: the committed time is `cycles · cpu_cycle_s`).

use iprune_device::sim::{DeviceSim, JobCost};
use iprune_device::timing::TimingModel;
use iprune_device::trace::SimStats;
use iprune_device::PowerStrength;
use iprune_faults::RunOutcome;
use iprune_hawaii::deploy::DeployedModel;
use iprune_hawaii::exec::{commit_job, infer, EngineError, ExecMode};
use iprune_models::GraphOp;
use iprune_obs::{drain_shared, MemorySink, TraceEvent};
use iprune_tensor::Tensor;

/// One recorded device activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Activity {
    /// Blocking NVM read (tile inputs, bias words) — retried internally.
    Read {
        /// Transfer size in bytes.
        bytes: usize,
    },
    /// Blocking NVM write outside progress preservation.
    Write {
        /// Transfer size in bytes.
        bytes: usize,
    },
    /// Blocking CPU work (pooling, requantization index math).
    Cpu {
        /// CPU cycles.
        cycles: usize,
    },
    /// One committed accelerator job with its paired input fetch and
    /// recovery footprint — replayed through the engine's retry protocol.
    Job {
        /// Bytes fetched before each attempt (0 for write-back jobs).
        read_bytes: usize,
        /// The accelerator job cost.
        cost: JobCost,
        /// Bytes re-fetched by `recover` after a failed attempt.
        recovery_bytes: usize,
        /// Layer id owning the job (livelock reporting).
        layer: usize,
    },
}

/// A recorded inference workload: the model's full device-activity stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload label (model name).
    pub name: String,
    /// The activity stream, in engine order.
    pub activities: Vec<Activity>,
    /// Number of accelerator jobs in the stream.
    pub jobs: u64,
    /// Nominal (continuous-power) latency of the recording run.
    pub nominal_latency_s: f64,
}

/// What one device did with the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// End-to-end inference latency on this device (s).
    pub latency_s: f64,
    /// Natural power failures suffered.
    pub power_cycles: u64,
    /// Job re-executions (failed attempts) across the run.
    pub retries: u64,
    /// Time spent off, waiting for the capacitor to refill (s).
    pub charging_s: f64,
    /// Longest single off-time (s) — the worst stall, vs `charging_s`
    /// which sums them all.
    pub max_stall_s: f64,
    /// Full simulator statistics.
    pub stats: SimStats,
}

/// Records `dm`'s activity stream by tracing one intermittent-mode
/// inference under continuous power (where no failure can perturb the
/// stream).
///
/// # Panics
///
/// Panics if the engine fails under continuous bench power — that would be
/// a bug, not a fleet outcome.
pub fn record_workload(dm: &DeployedModel, input: &Tensor) -> Workload {
    let sink = MemorySink::shared();
    let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
    sim.set_trace_sink(sink.clone());
    let out = infer(dm, input, &mut sim, ExecMode::Intermittent)
        .expect("recording run under continuous power cannot fail");
    let events = drain_shared(&sink);
    let timing = sim.timing().clone();
    let activities = events_to_activities(dm, &events, &timing);
    let jobs = activities.iter().filter(|a| matches!(a, Activity::Job { .. })).count() as u64;
    assert_eq!(jobs, out.jobs, "every committed job must be recovered from the trace");
    Workload { name: dm.info.name.to_string(), activities, jobs, nominal_latency_s: out.latency_s }
}

/// Inverts a failure-free trace into the activity stream that produced it.
fn events_to_activities(
    dm: &DeployedModel,
    events: &[TraceEvent],
    timing: &TimingModel,
) -> Vec<Activity> {
    let mut acts = Vec::new();
    // recovery footprint of the layer currently executing (engine recovery
    // re-fetches per-layer state, see `DeployedLayer::recovery_bytes`)
    let mut recovery_bytes = 0usize;
    let mut layer = 0usize;
    // a pending NvmRead fuses with an immediately following JobCommit
    let mut pending_read: Option<usize> = None;
    for ev in events {
        match ev {
            TraceEvent::LayerStart { op, .. } => {
                if let Some(e) = pending_read.take() {
                    acts.push(Activity::Read { bytes: e });
                }
                match &dm.info.graph[*op as usize] {
                    GraphOp::Conv { layer_id, .. } | GraphOp::Fc { layer_id, .. } => {
                        layer = *layer_id;
                        recovery_bytes = dm.layers[*layer_id].recovery_bytes();
                    }
                    _ => {}
                }
            }
            TraceEvent::NvmRead { bytes, .. } => {
                if let Some(e) = pending_read.take() {
                    acts.push(Activity::Read { bytes: e });
                }
                pending_read = Some(*bytes as usize);
            }
            TraceEvent::JobCommit { cpu_s, write_bytes, macs, .. } => {
                let read_bytes = pending_read.take().unwrap_or(0);
                // exact inverse of `TimingModel::cpu_s`
                let cpu_cycles = (cpu_s / timing.cpu_cycle_s).round() as usize;
                acts.push(Activity::Job {
                    read_bytes,
                    cost: JobCost {
                        lea_macs: *macs as usize,
                        preserve_bytes: *write_bytes as usize,
                        cpu_cycles,
                    },
                    recovery_bytes,
                    layer,
                });
            }
            TraceEvent::NvmWrite { bytes, .. } => {
                if let Some(e) = pending_read.take() {
                    acts.push(Activity::Read { bytes: e });
                }
                acts.push(Activity::Write { bytes: *bytes as usize });
            }
            TraceEvent::CpuWork { cycles, .. } => {
                if let Some(e) = pending_read.take() {
                    acts.push(Activity::Read { bytes: e });
                }
                acts.push(Activity::Cpu { cycles: *cycles as usize });
            }
            _ => {}
        }
    }
    if let Some(e) = pending_read.take() {
        acts.push(Activity::Read { bytes: e });
    }
    acts
}

/// Replays a recorded workload on `sim`, committing each job through the
/// engine's [`commit_job`].
///
/// # Errors
///
/// Returns the structured [`RunOutcome`] of the failure: `Livelock` when a
/// job exceeds the retry cap, `Nontermination` when an activity can never
/// fit in one power cycle's energy budget.
pub fn replay(w: &Workload, sim: &mut DeviceSim) -> Result<ReplayOutcome, RunOutcome> {
    let t0 = sim.now();
    let mut retries = 0u64;
    for act in &w.activities {
        match *act {
            Activity::Read { bytes } => sim.run_read(bytes).map_err(EngineError::Sim),
            Activity::Write { bytes } => sim.run_write(bytes).map_err(EngineError::Sim),
            Activity::Cpu { cycles } => sim.run_cpu(cycles).map_err(EngineError::Sim),
            Activity::Job { read_bytes, cost, recovery_bytes, layer } => {
                commit_job(sim, read_bytes, cost, recovery_bytes, layer, &mut retries)
            }
        }
        .map_err(|e| RunOutcome::from_engine_error(&e, None))?;
    }
    let stats = sim.stats().clone();
    Ok(ReplayOutcome {
        latency_s: sim.now() - t0,
        power_cycles: stats.power_cycles,
        retries,
        charging_s: stats.charging_s,
        max_stall_s: sim.max_stall_s(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprune_device::power::{PowerTrace, Supply};
    use iprune_device::sim::DeviceSim;
    use iprune_hawaii::deploy::deploy;
    use iprune_models::zoo::App;

    fn har_workload() -> (DeployedModel, Tensor) {
        let mut model = App::Har.build();
        let ds = App::Har.dataset(4, 42);
        let dm = deploy(&mut model, &ds, 2);
        let x = ds.sample(0);
        (dm, x)
    }

    #[test]
    fn recording_inverts_the_trace() {
        let (dm, x) = har_workload();
        let w = record_workload(&dm, &x);
        assert_eq!(w.name, dm.info.name);
        assert!(w.jobs > 0, "no jobs recovered");
        assert!(w.nominal_latency_s > 0.0);
        // write-back jobs carry no read; chunk jobs do
        let with_read = w
            .activities
            .iter()
            .filter(|a| matches!(a, Activity::Job { read_bytes, .. } if *read_bytes > 0))
            .count();
        let without_read = w
            .activities
            .iter()
            .filter(|a| matches!(a, Activity::Job { read_bytes, .. } if *read_bytes == 0))
            .count();
        assert!(with_read > 0, "chunk jobs must fuse their input fetch");
        assert!(without_read > 0, "write-back jobs have no paired read");
        // every job knows a real recovery footprint
        assert!(w
            .activities
            .iter()
            .all(|a| !matches!(a, Activity::Job { recovery_bytes, .. } if *recovery_bytes == 0)));
    }

    /// The fleet's fidelity oracle: replay must be bit-identical to the
    /// full engine in time and statistics, including under supplies that
    /// fail mid-run.
    #[test]
    fn replay_matches_full_engine_bit_for_bit() {
        let (dm, x) = har_workload();
        let w = record_workload(&dm, &x);
        let supplies = [
            Supply::from(PowerStrength::Continuous),
            Supply::from(PowerStrength::Strong),
            Supply::from(PowerStrength::Weak),
            Supply::Trace(PowerTrace::solar(8.0e-3, 2.0, 64, 3)),
        ];
        for supply in supplies {
            for seed in [0u64, 9] {
                let mut engine_sim = DeviceSim::with_supply(supply.clone(), seed);
                let out = infer(&dm, &x, &mut engine_sim, ExecMode::Intermittent)
                    .expect("engine run failed");
                let mut replay_sim = DeviceSim::with_supply(supply.clone(), seed);
                let rep = replay(&w, &mut replay_sim).expect("replay failed");
                let tag = format!("supply {supply:?} seed {seed}");
                assert_eq!(rep.latency_s.to_bits(), out.latency_s.to_bits(), "{tag}: latency");
                assert_eq!(rep.stats, out.stats, "{tag}: SimStats");
                assert_eq!(rep.retries, out.retries, "{tag}: retries");
                assert_eq!(rep.power_cycles, out.power_cycles, "{tag}: power cycles");
                assert_eq!(
                    rep.max_stall_s.to_bits(),
                    engine_sim.max_stall_s().to_bits(),
                    "{tag}: worst stall"
                );
            }
        }
    }

    #[test]
    fn impossible_energy_budget_reports_nontermination() {
        let (dm, x) = har_workload();
        let w = record_workload(&dm, &x);
        // a 2 µF capacitor buffers ~2 µJ — far below any job window
        let mut spec = iprune_device::DeviceSpec::msp430fr5994();
        spec.capacitance_f = 2.0e-6;
        let mut sim = DeviceSim::with_models_and_supply(
            spec,
            TimingModel::default(),
            iprune_device::energy::EnergyModel::default(),
            Supply::from(PowerStrength::Weak),
            1,
        );
        match replay(&w, &mut sim) {
            Err(RunOutcome::Nontermination { .. }) => {}
            other => panic!("expected nontermination, got {other:?}"),
        }
    }
}
