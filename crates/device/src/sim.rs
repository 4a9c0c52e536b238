//! The activity-driven device co-simulation.
//!
//! An inference engine submits activities; the simulator advances a
//! two-resource pipelined timeline — the LEA computes job *j+1* while the
//! DMA writes job *j*'s outputs and footprint back to NVM (the overlap shown
//! in the paper's Figure 2(b)) — and integrates the capacitor's energy
//! balance over every committed interval. When the capacitor reaches the
//! cut-out threshold mid-activity, the simulator reports a power failure:
//! volatile state is lost, the capacitor recharges at the harvesting input
//! power, the device reboots, and the caller must perform progress recovery
//! before retrying the interrupted activity.
//!
//! Every job and blocking transfer reads the input power at least once. A
//! harvest trace's `power_at` costs an `f64::rem_euclid` and a division,
//! so the simulator memoises it: it keeps the last looked-up value with
//! the span of time on which [`Supply::power_at`] returns it
//! (`Supply::span_at`) and recomputes only when a lookup leaves that
//! span. The memo is a pure function of the supply, so it is exact across
//! [`DeviceSim::restore`], [`DeviceSim::fork`] and any rewind of time; only
//! assigning a new supply resets it. Debug builds check every memo hit
//! against `Supply::power_at`. The job path (`run_read`, `run_job`,
//! `recover` and their helpers) is `#[inline]`, so an engine's commit loop
//! compiles into one body.

use crate::energy::EnergyModel;
use crate::inject::{FailureDetail, FaultDecision, FaultHook, JobOutcome, JobView};
use crate::power::{Capacitor, PowerSpan, PowerStrength, Supply};
use crate::spec::DeviceSpec;
use crate::timing::TimingModel;
use crate::trace::SimStats;
use iprune_obs::{SharedSink, TraceEvent};
use std::error::Error;
use std::fmt;

/// Cost of one accelerator job: the unit of progress in HAWAII-style
/// intermittent inference. The job computes on the LEA and its outputs plus
/// a footprint are immediately written back to NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCost {
    /// MACs performed by the accelerator operation.
    pub lea_macs: usize,
    /// Bytes of progress preservation (accelerator outputs + footprint).
    pub preserve_bytes: usize,
    /// CPU cycles of orchestration around the job.
    pub cpu_cycles: usize,
}

/// Outcome of one job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commit {
    /// The job's outputs and footprint reached NVM.
    Committed,
    /// Power failed before the footprint write completed; the job's effects
    /// are lost. Call [`DeviceSim::recover`] and re-issue the job.
    PowerFailed,
}

/// Simulation error.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An activity needs more energy per attempt than one full capacitor
    /// charge provides — it would re-execute forever (the nontermination
    /// hazard of Section II-B).
    Nontermination {
        /// Description of the offending activity.
        activity: String,
        /// Energy the attempt needs (J).
        needed_j: f64,
        /// Usable energy per power cycle (J).
        budget_j: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Nontermination { activity, needed_j, budget_j } => write!(
                f,
                "activity `{activity}` needs {needed_j:.2e} J per attempt but one power cycle provides only {budget_j:.2e} J"
            ),
        }
    }
}

impl Error for SimError {}

/// The device simulator. See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct DeviceSim {
    spec: DeviceSpec,
    timing: TimingModel,
    energy: EnergyModel,
    supply: Supply,
    /// Memo of `supply`'s power: the last looked-up value and the span on
    /// which `supply.power_at` returns it.
    power: PowerSpan,
    cap: Capacitor,
    /// Commit frontier: wall-clock time up to which all effects are durable.
    now: f64,
    /// Time at which the LEA becomes free.
    lea_free: f64,
    /// Time at which the DMA/NVM channel becomes free.
    dma_free: f64,
    stats: SimStats,
    /// Adversarial fault injector consulted on every job attempt.
    hook: Option<Box<dyn FaultHook>>,
    /// Detail of the most recent power failure (natural or injected).
    last_failure: Option<FailureDetail>,
    /// Longest single off-time (recharge wait) suffered so far (s). The
    /// fleet's stall-accounting hook: `SimStats::charging_s` sums all
    /// stalls, this keeps the worst one, so telemetry can tell "many short
    /// brown-outs" apart from "one multi-second blackout".
    max_stall_s: f64,
    /// Structured trace sink; `None` means tracing is off and emission
    /// points cost a single branch.
    sink: Option<SharedSink>,
}

/// Snapshot of a simulator's dynamic state at a commit point: capacitor
/// charge, timeline frontiers, statistics, fault-hook state, the last
/// failure detail, and the worst stall seen so far.
///
/// The immutable models (spec/timing/energy) and the supply are *not*
/// captured — a checkpoint must be restored into (or forked from) a
/// simulator built with the same configuration. Neither is the memo of the
/// supply's power: its span is valid for the supply at any time, so a
/// restored or forked simulator keeps it, and a rewound lookup outside it
/// recomputes. The trace sink is not
/// captured either: forks install their own sinks, so checkpointing a
/// traced simulator never aliases its event stream.
///
/// Every future decision the simulator makes (natural failure points,
/// pipelining, energy balance) depends only on the fields captured here
/// plus the shared models, so a simulator forked at job *k* and run to
/// completion is bit-identical to one that reached *k* from scratch —
/// the equivalence the fault-campaign fast path relies on.
#[derive(Debug, Clone)]
pub struct SimCheckpoint {
    cap: Capacitor,
    now: f64,
    lea_free: f64,
    dma_free: f64,
    stats: SimStats,
    hook: Option<Box<dyn FaultHook>>,
    last_failure: Option<FailureDetail>,
    max_stall_s: f64,
}

/// Accounting class of a blocking DMA transfer: where its committed busy
/// time lands in [`SimStats`] and which trace event it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransferClass {
    /// Tile inputs, weights — `nvm_read_s`.
    Read,
    /// Non-preservation output writes — `nvm_write_s`.
    Write,
    /// Progress-recovery re-fetch — `recovery_s`.
    Recovery,
}

impl DeviceSim {
    /// Creates a simulator with default spec/timing/energy models.
    ///
    /// `seed` perturbs the initial capacitor charge (50–100 % of full) so
    /// that repeated runs don't all fail at identical phase; pass `0` for a
    /// fully-charged start.
    pub fn new(strength: PowerStrength, seed: u64) -> Self {
        Self::with_models(
            DeviceSpec::default(),
            TimingModel::default(),
            EnergyModel::default(),
            strength,
            seed,
        )
    }

    /// Creates a simulator driven by an arbitrary [`Supply`] (e.g. a solar
    /// trace) with default spec/timing/energy models.
    pub fn with_supply(supply: Supply, seed: u64) -> Self {
        let mut sim = Self::with_models(
            DeviceSpec::default(),
            TimingModel::default(),
            EnergyModel::default(),
            PowerStrength::Continuous,
            seed,
        );
        sim.set_supply(supply);
        sim
    }

    /// Creates a simulator with explicit models driven by an arbitrary
    /// [`Supply`] — the fleet constructor: per-device spec, timing, and
    /// harvest trace in one call.
    pub fn with_models_and_supply(
        spec: DeviceSpec,
        timing: TimingModel,
        energy: EnergyModel,
        supply: Supply,
        seed: u64,
    ) -> Self {
        let mut sim = Self::with_models(spec, timing, energy, PowerStrength::Continuous, seed);
        sim.set_supply(supply);
        sim
    }

    /// Creates a simulator with explicit models.
    pub fn with_models(
        spec: DeviceSpec,
        timing: TimingModel,
        energy: EnergyModel,
        strength: PowerStrength,
        seed: u64,
    ) -> Self {
        let mut cap = Capacitor::full(&spec);
        if seed != 0 {
            // xorshift-style hash to a fraction in [0, 0.5)
            let mut h = seed;
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            let frac = (h % 1000) as f64 / 2000.0;
            cap.apply(-cap.span_j() * frac);
        }
        let supply = Supply::from(strength);
        Self {
            spec,
            timing,
            energy,
            power: supply.span_at(0.0),
            supply,
            cap,
            now: 0.0,
            lea_free: 0.0,
            dma_free: 0.0,
            stats: SimStats::default(),
            hook: None,
            last_failure: None,
            max_stall_s: 0.0,
            sink: None,
        }
    }

    /// Elapsed wall-clock time at the commit frontier (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The device specification in use.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The configured power supply.
    pub fn supply(&self) -> &Supply {
        &self.supply
    }

    /// Replaces the supply and the memo of its power together.
    fn set_supply(&mut self, supply: Supply) {
        self.power = supply.span_at(self.now);
        self.supply = supply;
    }

    /// `supply.power_at(t)`, recomputed only when `t` leaves the memo's
    /// span.
    #[inline]
    fn power_at(&mut self, t: f64) -> f64 {
        if self.power.contains(t) {
            debug_assert_eq!(
                self.power.w.to_bits(),
                self.supply.power_at(t).to_bits(),
                "power memo {:?} disagrees with the supply at t = {t:e}",
                self.power
            );
        } else {
            self.power = self.supply.span_at(t);
        }
        self.power.w
    }

    /// Installs an adversarial fault injector. Every subsequent job attempt
    /// is offered to the hook, which may force a power failure at an
    /// arbitrary fraction of the attempt's window (see [`crate::inject`]).
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.hook = Some(hook);
    }

    /// Removes and returns the installed fault hook, if any.
    pub fn clear_fault_hook(&mut self) -> Option<Box<dyn FaultHook>> {
        self.hook.take()
    }

    /// Detail of the most recent power failure, natural or injected
    /// (`None` until the first failure).
    pub fn last_failure(&self) -> Option<&FailureDetail> {
        self.last_failure.as_ref()
    }

    /// Installs a structured trace sink. Every subsequent device activity
    /// emits [`TraceEvent`]s carrying the exact durations credited to
    /// [`SimStats`], timestamped in simulated seconds.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// Removes and returns the installed trace sink, if any.
    pub fn clear_trace_sink(&mut self) -> Option<SharedSink> {
        self.sink.take()
    }

    /// Whether a trace sink is installed.
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Energy currently stored in the capacitor (J). Exposed so campaign
    /// fast paths can compare forked and recorded simulators at a resync
    /// point without widening access to the whole capacitor model.
    pub fn cap_energy_j(&self) -> f64 {
        self.cap.energy_j()
    }

    /// Longest single off-time (capacitor recharge wait) suffered so far
    /// (s). Complements `SimStats::charging_s` (the *sum* of stalls) with
    /// the worst-case stall — the fleet-telemetry signal distinguishing
    /// many short brown-outs from one long blackout. Zero until the first
    /// power failure.
    pub fn max_stall_s(&self) -> f64 {
        self.max_stall_s
    }

    /// Captures the simulator's dynamic state. See [`SimCheckpoint`] for
    /// what is (and deliberately is not) included.
    pub fn checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint {
            cap: self.cap.clone(),
            now: self.now,
            lea_free: self.lea_free,
            dma_free: self.dma_free,
            stats: self.stats.clone(),
            hook: self.hook.clone(),
            last_failure: self.last_failure,
            max_stall_s: self.max_stall_s,
        }
    }

    /// Rewinds this simulator to a previously captured checkpoint. The
    /// models, supply, and trace sink are left untouched; only dynamic
    /// state is overwritten.
    pub fn restore(&mut self, ckpt: &SimCheckpoint) {
        self.cap = ckpt.cap.clone();
        self.now = ckpt.now;
        self.lea_free = ckpt.lea_free;
        self.dma_free = ckpt.dma_free;
        self.stats = ckpt.stats.clone();
        self.hook = ckpt.hook.clone();
        self.last_failure = ckpt.last_failure;
        self.max_stall_s = ckpt.max_stall_s;
    }

    /// Builds an independent simulator that shares this one's models and
    /// supply but resumes from `ckpt`. The fork starts without a trace
    /// sink; install one with [`Self::set_trace_sink`] if needed.
    pub fn fork(&self, ckpt: &SimCheckpoint) -> DeviceSim {
        DeviceSim {
            spec: self.spec.clone(),
            timing: self.timing.clone(),
            energy: self.energy.clone(),
            supply: self.supply.clone(),
            power: self.power,
            cap: ckpt.cap.clone(),
            now: ckpt.now,
            lea_free: ckpt.lea_free,
            dma_free: ckpt.dma_free,
            stats: ckpt.stats.clone(),
            hook: ckpt.hook.clone(),
            last_failure: ckpt.last_failure,
            max_stall_s: ckpt.max_stall_s,
            sink: None,
        }
    }

    /// Emits one event if tracing is on. The closure defers event
    /// construction so a sink-less simulator pays only this branch.
    #[inline]
    fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            let ev = make();
            sink.lock().expect("trace sink lock").emit(&ev);
        }
    }

    /// Emits an engine-level scope event (layer/tile markers) into the
    /// installed sink, if any. Engines timestamp scopes with [`Self::now`]
    /// so they interleave correctly with the simulator's own activity
    /// events; the closure is never called when tracing is off.
    #[inline]
    pub fn emit_scope(&self, make: impl FnOnce() -> TraceEvent) {
        self.emit(make);
    }

    /// Runs one accelerator job: LEA compute pipelined with the DMA
    /// write-back of its outputs and footprint.
    ///
    /// Returns [`Commit::PowerFailed`] if the capacitor cut out before the
    /// preservation write completed; the caller must then call
    /// [`Self::recover`] and re-issue the job.
    ///
    /// # Errors
    ///
    /// [`SimError::Nontermination`] if the job can never fit in one power
    /// cycle's energy budget.
    #[inline]
    pub fn run_job(&mut self, cost: JobCost) -> Result<Commit, SimError> {
        let lea_busy = self.timing.lea_s(cost.lea_macs);
        let cpu_busy = self.timing.cpu_s(cost.cpu_cycles);
        let t_lea = lea_busy + cpu_busy;
        let t_wr = self.timing.nvm_write_s(cost.preserve_bytes);

        // The LEA may start the next job while the DMA still writes the
        // previous one back — that is the Figure 2(b) pipeline. Only the
        // per-resource frontier gates the start, not the commit frontier.
        let lea_start = self.lea_free;
        let lea_end = lea_start + t_lea;
        let wr_start = self.dma_free.max(lea_end);
        let wr_end = wr_start + t_wr;
        let wall = wr_end - self.now;

        let e = self.energy.p_base_w * wall
            + self.energy.p_lea_w * t_lea
            + self.energy.p_nvm_write_w * t_wr;
        let p_in = self.power_at(self.now);
        let net = e - p_in * wall;
        if net >= self.cap.span_j() {
            return Err(SimError::Nontermination {
                activity: format!("job {cost:?}"),
                needed_j: net,
                budget_j: self.cap.span_j(),
            });
        }

        // Natural failure: the capacitor drains to empty somewhere inside
        // the window (linear-draw interpolation over the wall time).
        let natural = if net > 0.0 && self.cap.energy_j() <= net {
            Some((self.cap.energy_j() / net).clamp(0.0, 1.0))
        } else {
            None
        };
        // Adversarial failure: an installed hook may cut power at a chosen
        // fraction of the window.
        let view = JobView {
            index: self.stats.jobs_committed + self.stats.jobs_failed,
            committed: self.stats.jobs_committed,
            cost,
            window_s: wall,
            now_s: self.now,
        };
        self.emit(|| TraceEvent::JobStart {
            t: self.now,
            index: view.index,
            macs: cost.lea_macs as u64,
            preserve_bytes: cost.preserve_bytes as u64,
            window_s: wall,
        });
        let injected = match self.hook.as_mut().map(|h| h.on_job(&view)) {
            Some(FaultDecision::FailAt(f)) => Some(f.clamp(0.0, 1.0).min(1.0 - 1e-12)),
            _ => None,
        };
        // Whichever cut strikes first wins.
        let failure = match (natural, injected) {
            (Some(n), Some(i)) => Some((n.min(i), i < n)),
            (Some(n), None) => Some((n, false)),
            (None, Some(i)) => Some((i, true)),
            (None, None) => None,
        };

        if let Some((frac, is_injected)) = failure {
            let fail_time = self.now + frac * wall;
            // Fraction of the preservation write durable before the cut:
            // the DMA streams bytes in order, so everything written before
            // `fail_time` stays in NVM and everything after is lost.
            let preserve_frac =
                if t_wr > 0.0 { ((fail_time - wr_start) / t_wr).clamp(0.0, 1.0) } else { 0.0 };
            let wasted = fail_time - self.now;
            self.stats.wasted_s += wasted;
            self.stats.jobs_failed += 1;
            self.stats.power_cycles += 1;
            if is_injected {
                // An injected brown-out (the ambient source vanishing) drains
                // whatever charge remains; the device stays off until the
                // capacitor refills from empty, like a natural cut-out.
                self.stats.injected_failures += 1;
                let drain = self.cap.energy_j();
                self.cap.apply(-drain);
            } else {
                self.cap.apply(-net);
            }
            let off = self.recharge_duration(fail_time);
            self.cap.refill();
            let resume = fail_time + off + self.timing.reboot_s;
            self.stats.charging_s += off;
            self.max_stall_s = self.max_stall_s.max(off);
            self.stats.recovery_s += self.timing.reboot_s;
            self.now = resume;
            self.lea_free = resume;
            self.dma_free = resume;
            self.emit(|| TraceEvent::JobAbort {
                t: fail_time,
                index: view.index,
                injected: is_injected,
                preserve_frac,
            });
            self.emit(|| TraceEvent::PowerFail {
                t: fail_time,
                injected: is_injected,
                wasted_s: wasted,
            });
            self.emit(|| TraceEvent::Recharge { t: fail_time, dur: off });
            self.emit(|| TraceEvent::Reboot { t: fail_time + off, dur: self.timing.reboot_s });
            self.last_failure = Some(FailureDetail {
                time_s: fail_time,
                injected: is_injected,
                preserve_frac,
                job_index: view.index,
            });
            if let Some(h) = self.hook.as_mut() {
                let outcome = JobOutcome::Failed {
                    injected: is_injected,
                    fail_time_s: fail_time,
                    preserve_frac,
                };
                h.on_outcome(&view, &outcome);
            }
            return Ok(Commit::PowerFailed);
        }

        self.cap.apply(-net);
        self.now = wr_end;
        self.lea_free = lea_end;
        self.dma_free = wr_end;
        self.stats.lea_s += lea_busy;
        self.stats.cpu_s += cpu_busy;
        self.stats.nvm_write_s += t_wr;
        self.stats.nvm_write_bytes += cost.preserve_bytes as u64;
        self.stats.lea_macs += cost.lea_macs as u64;
        self.stats.jobs_committed += 1;
        self.emit(|| TraceEvent::JobCommit {
            t: wr_end,
            index: view.index,
            lea_start,
            lea_s: lea_busy,
            cpu_s: cpu_busy,
            write_start: wr_start,
            write_s: t_wr,
            write_bytes: cost.preserve_bytes as u64,
            macs: cost.lea_macs as u64,
        });
        if let Some(h) = self.hook.as_mut() {
            h.on_outcome(&view, &JobOutcome::Committed);
        }
        Ok(Commit::Committed)
    }

    /// Progress recovery after a reported power failure: re-reads
    /// `refetch_bytes` (footprints, indexes, and the interrupted tile's
    /// inputs) from NVM. Accounted as recovery time.
    ///
    /// # Errors
    ///
    /// [`SimError::Nontermination`] if the re-fetch itself cannot fit in one
    /// power cycle.
    #[inline]
    pub fn recover(&mut self, refetch_bytes: usize) -> Result<(), SimError> {
        self.run_blocking_transfer(refetch_bytes, TransferClass::Recovery, "recovery read")?;
        Ok(())
    }

    /// Blocking NVM read of `bytes` (tile inputs, weights, …). Power
    /// failures during the read are retried internally: a read has no
    /// volatile side effects beyond the buffer being filled, so the engine
    /// never observes them (their recharge and reboot time is accounted).
    ///
    /// # Errors
    ///
    /// [`SimError::Nontermination`] if the transfer cannot fit in one power
    /// cycle. Split transfers into smaller DMA commands instead.
    #[inline]
    pub fn run_read(&mut self, bytes: usize) -> Result<(), SimError> {
        self.run_blocking_transfer(bytes, TransferClass::Read, "nvm read")?;
        self.stats.nvm_read_bytes += bytes as u64;
        Ok(())
    }

    /// Blocking NVM write of `bytes` outside progress preservation (e.g. a
    /// continuous-power engine writing a completed output tile). Retried
    /// internally on power failure, like [`Self::run_read`].
    ///
    /// # Errors
    ///
    /// [`SimError::Nontermination`] if the transfer cannot fit in one power
    /// cycle.
    pub fn run_write(&mut self, bytes: usize) -> Result<(), SimError> {
        self.run_blocking_transfer(bytes, TransferClass::Write, "nvm write")?;
        self.stats.nvm_write_bytes += bytes as u64;
        Ok(())
    }

    /// Blocking CPU work of `cycles` cycles (requantization, index math).
    ///
    /// # Errors
    ///
    /// [`SimError::Nontermination`] if the work cannot fit in one power
    /// cycle.
    pub fn run_cpu(&mut self, cycles: usize) -> Result<(), SimError> {
        if cycles == 0 {
            return Ok(());
        }
        let t = self.timing.cpu_s(cycles);
        let e_rate = self.energy.p_base_w;
        self.advance_blocking(t, e_rate, "cpu work")?;
        self.stats.cpu_s += t;
        self.emit(|| TraceEvent::CpuWork { t: self.now - t, dur: t, cycles: cycles as u64 });
        Ok(())
    }

    /// Largest single DMA command in bytes; bigger requests are split into
    /// multiple commands (each paying the invocation overheads) so that no
    /// single atomic transfer can exceed one power cycle's energy budget.
    pub const MAX_DMA_BYTES: usize = 2048;

    /// Time the device stays off after a failure at `from_t`, integrating
    /// the supply until the capacitor's deficit is covered. For a trace
    /// supply the integration is piecewise over the trace samples (dark
    /// phases contribute nothing and simply pass).
    fn recharge_duration(&self, from_t: f64) -> f64 {
        let deficit = self.cap.deficit_j();
        match &self.supply {
            Supply::Constant(w) => deficit / w.max(1e-12),
            Supply::Trace(tr) => {
                assert!(tr.mean_w() > 0.0, "trace never delivers energy");
                let dt = tr.dt_s();
                let mut remaining = deficit;
                let mut t = from_t;
                // align the first partial step to the next sample boundary
                let first = dt - t.rem_euclid(dt);
                let p0 = tr.power_at(t);
                if p0 * first >= remaining {
                    return remaining / p0.max(1e-12);
                }
                remaining -= p0 * first;
                t += first;
                loop {
                    let p = tr.power_at(t);
                    if p * dt >= remaining {
                        return t - from_t + remaining / p.max(1e-12);
                    }
                    remaining -= p * dt;
                    t += dt;
                }
            }
        }
    }

    #[inline]
    fn run_blocking_transfer(
        &mut self,
        bytes: usize,
        class: TransferClass,
        what: &'static str,
    ) -> Result<f64, SimError> {
        if bytes == 0 {
            return Ok(0.0);
        }
        let is_write = class == TransferClass::Write;
        let extra = if is_write { self.energy.p_nvm_write_w } else { self.energy.p_nvm_read_w };
        let t_start = self.now.max(self.dma_free).max(self.lea_free);
        let mut total = 0.0;
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(Self::MAX_DMA_BYTES);
            let t = if is_write {
                self.timing.nvm_write_s(chunk)
            } else {
                self.timing.nvm_read_s(chunk)
            };
            self.advance_blocking(t, self.energy.p_base_w + extra, what)?;
            total += t;
            remaining -= chunk;
        }
        match class {
            TransferClass::Read => self.stats.nvm_read_s += total,
            TransferClass::Write => self.stats.nvm_write_s += total,
            TransferClass::Recovery => self.stats.recovery_s += total,
        }
        self.emit(|| match class {
            TransferClass::Read => {
                TraceEvent::NvmRead { t: t_start, dur: total, bytes: bytes as u64 }
            }
            TransferClass::Write => {
                TraceEvent::NvmWrite { t: t_start, dur: total, bytes: bytes as u64 }
            }
            TransferClass::Recovery => {
                TraceEvent::RecoveryRead { t: t_start, dur: total, bytes: bytes as u64 }
            }
        });
        Ok(total)
    }

    /// Advances all frontiers through a blocking activity of duration `t`
    /// drawing `p_draw` watts, retrying through power failures.
    #[inline]
    fn advance_blocking(
        &mut self,
        t: f64,
        p_draw: f64,
        what: &'static str,
    ) -> Result<(), SimError> {
        let start = self.now.max(self.dma_free).max(self.lea_free);
        // idle gap before the activity: the device only harvests
        let idle = start - self.now;
        if idle > 0.0 {
            let p_idle = self.power_at(self.now);
            self.cap.apply(p_idle * idle);
        }
        let net = (p_draw - self.power_at(start)) * t;
        if net >= self.cap.span_j() {
            return Err(SimError::Nontermination {
                activity: what.to_string(),
                needed_j: net,
                budget_j: self.cap.span_j(),
            });
        }
        let mut cursor = start;
        loop {
            let before = self.cap.energy_j();
            if !self.cap.apply(-net) {
                let end = cursor + t;
                self.now = end;
                self.lea_free = end;
                self.dma_free = end;
                return Ok(());
            }
            // failed mid-activity: lose it, recharge, reboot, retry
            let frac = if net > 0.0 { (before / net).clamp(0.0, 1.0) } else { 1.0 };
            let fail_time = cursor + frac * t;
            let wasted = fail_time - cursor;
            self.stats.wasted_s += wasted;
            self.stats.power_cycles += 1;
            let off = self.recharge_duration(fail_time);
            self.cap.refill();
            self.stats.charging_s += off;
            self.max_stall_s = self.max_stall_s.max(off);
            self.stats.recovery_s += self.timing.reboot_s;
            self.emit(|| TraceEvent::PowerFail { t: fail_time, injected: false, wasted_s: wasted });
            self.emit(|| TraceEvent::Recharge { t: fail_time, dur: off });
            self.emit(|| TraceEvent::Reboot { t: fail_time + off, dur: self.timing.reboot_s });
            cursor = fail_time + off + self.timing.reboot_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_power_never_fails() {
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        for _ in 0..1000 {
            let c =
                sim.run_job(JobCost { lea_macs: 100, preserve_bytes: 34, cpu_cycles: 10 }).unwrap();
            assert_eq!(c, Commit::Committed);
        }
        assert_eq!(sim.stats().power_cycles, 0);
        assert_eq!(sim.stats().jobs_committed, 1000);
    }

    #[test]
    fn harvested_power_eventually_fails() {
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        let mut failures = 0;
        let mut committed = 0;
        while committed < 20_000 {
            match sim.run_job(JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 }).unwrap()
            {
                Commit::Committed => committed += 1,
                Commit::PowerFailed => {
                    failures += 1;
                    sim.recover(128).unwrap();
                }
            }
        }
        assert!(failures > 0, "weak power should brown out");
        assert_eq!(sim.stats().power_cycles, failures);
        sim.stats().check_invariants().unwrap();
    }

    #[test]
    fn weak_power_is_slower_than_strong() {
        let run = |s: PowerStrength| {
            let mut sim = DeviceSim::new(s, 0);
            let mut committed = 0;
            while committed < 10_000 {
                match sim
                    .run_job(JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 })
                    .unwrap()
                {
                    Commit::Committed => committed += 1,
                    Commit::PowerFailed => sim.recover(128).unwrap(),
                }
            }
            sim.now()
        };
        let t_cont = run(PowerStrength::Continuous);
        let t_strong = run(PowerStrength::Strong);
        let t_weak = run(PowerStrength::Weak);
        assert!(t_strong > t_cont, "strong {t_strong} vs continuous {t_cont}");
        assert!(t_weak > 1.3 * t_strong, "weak {t_weak} vs strong {t_strong}");
    }

    #[test]
    fn pipelining_overlaps_compute_and_writes() {
        // With equal compute and write times, pipelined latency should be
        // well below the serial sum.
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        let cost = JobCost { lea_macs: 500, preserve_bytes: 30, cpu_cycles: 0 };
        let t_lea = sim.timing().lea_s(cost.lea_macs);
        let t_wr = sim.timing().nvm_write_s(cost.preserve_bytes);
        let n = 200;
        for _ in 0..n {
            sim.run_job(cost).unwrap();
        }
        let serial = (t_lea + t_wr) * n as f64;
        let ideal = t_lea.max(t_wr) * n as f64;
        assert!(sim.now() < serial * 0.75, "no overlap: {} vs serial {}", sim.now(), serial);
        assert!(sim.now() >= ideal * 0.99, "faster than the bottleneck resource");
    }

    #[test]
    fn oversized_activity_is_rejected_not_looped() {
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        // A multi-second LEA burst cannot fit in a 104 uJ budget.
        let err = sim
            .run_job(JobCost { lea_macs: 200_000_000, preserve_bytes: 2, cpu_cycles: 0 })
            .unwrap_err();
        match err {
            SimError::Nontermination { needed_j, budget_j, .. } => {
                assert!(needed_j > budget_j);
            }
        }
    }

    #[test]
    fn reads_account_time_and_bytes() {
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        sim.run_read(4096).unwrap();
        assert_eq!(sim.stats().nvm_read_bytes, 4096);
        // 4096 bytes split into two MAX_DMA_BYTES commands
        let expect = 2.0 * sim.timing().nvm_read_s(2048);
        assert!((sim.stats().nvm_read_s - expect).abs() < 1e-12);
        assert!((sim.now() - expect).abs() < 1e-12);
    }

    #[test]
    fn large_transfers_are_chunked_not_rejected() {
        // A 40 KB read must survive harvested power by splitting into
        // per-command transfers that each fit the energy budget.
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        sim.run_read(200 * 1024).unwrap();
        assert_eq!(sim.stats().nvm_read_bytes, 200 * 1024);
        assert!(sim.stats().power_cycles > 0, "a 200 KB read cannot fit one cycle");
    }

    #[test]
    fn recovery_counts_as_recovery_not_read() {
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        sim.recover(512).unwrap();
        assert_eq!(sim.stats().nvm_read_s, 0.0);
        assert!(sim.stats().recovery_s > 0.0);
    }

    #[test]
    fn seeded_start_charge_differs() {
        let a = DeviceSim::new(PowerStrength::Weak, 1);
        let b = DeviceSim::new(PowerStrength::Weak, 2);
        let full = DeviceSim::new(PowerStrength::Weak, 0);
        assert!(a.cap.energy_j() <= full.cap.energy_j());
        assert_ne!(a.cap.energy_j(), b.cap.energy_j());
    }

    #[test]
    fn solar_trace_supply_stalls_in_the_dark_and_progresses_in_the_light() {
        use crate::power::{PowerTrace, Supply};
        // 2-second "day": bright first half, dark second half.
        let trace = PowerTrace::solar(8.0e-3, 2.0, 64, 3);
        let mut sim = DeviceSim::with_supply(Supply::Trace(trace), 0);
        let mut committed = 0;
        while committed < 30_000 {
            match sim.run_job(JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 }).unwrap()
            {
                Commit::Committed => committed += 1,
                Commit::PowerFailed => sim.recover(64).unwrap(),
            }
        }
        // the same workload under constant strong power finishes faster
        let mut fast = DeviceSim::new(PowerStrength::Strong, 0);
        for _ in 0..30_000 {
            loop {
                match fast
                    .run_job(JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 })
                    .unwrap()
                {
                    Commit::Committed => break,
                    Commit::PowerFailed => fast.recover(64).unwrap(),
                }
            }
        }
        assert!(sim.stats().power_cycles > 0);
        assert!(sim.now() > fast.now(), "trace with dark phases must be slower");
        sim.stats().check_invariants().unwrap();
        fast.stats().check_invariants().unwrap();
    }

    /// Hook failing exactly one chosen attempt at a chosen window fraction.
    #[derive(Debug, Clone)]
    struct FailNth {
        attempt: u64,
        frac: f64,
        fired: bool,
    }

    impl crate::inject::FaultHook for FailNth {
        fn on_job(&mut self, view: &crate::inject::JobView) -> crate::inject::FaultDecision {
            if !self.fired && view.index == self.attempt {
                self.fired = true;
                crate::inject::FaultDecision::FailAt(self.frac)
            } else {
                crate::inject::FaultDecision::Pass
            }
        }
        fn box_clone(&self) -> Box<dyn crate::inject::FaultHook> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn injected_failure_strikes_under_bench_power() {
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        sim.set_fault_hook(Box::new(FailNth { attempt: 2, frac: 0.9, fired: false }));
        let cost = JobCost { lea_macs: 100, preserve_bytes: 34, cpu_cycles: 10 };
        let mut outcomes = Vec::new();
        for _ in 0..5 {
            outcomes.push(sim.run_job(cost).unwrap());
        }
        assert_eq!(
            outcomes,
            vec![
                Commit::Committed,
                Commit::Committed,
                Commit::PowerFailed,
                Commit::Committed,
                Commit::Committed,
            ]
        );
        assert_eq!(sim.stats().injected_failures, 1);
        assert_eq!(sim.stats().power_cycles, 1);
        assert_eq!(sim.stats().jobs_failed, 1);
        assert_eq!(sim.stats().jobs_committed, 4);
        let detail = sim.last_failure().expect("failure recorded");
        assert!(detail.injected);
        assert_eq!(detail.job_index, 2);
        // frac 0.9 of the window lands inside the preservation write for
        // this write-dominated cost: part of the footprint became durable.
        assert!(
            detail.preserve_frac > 0.0 && detail.preserve_frac < 1.0,
            "mid-footprint tear expected, got {}",
            detail.preserve_frac
        );
    }

    #[test]
    fn injection_during_compute_phase_preserves_nothing() {
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        sim.set_fault_hook(Box::new(FailNth { attempt: 0, frac: 0.0, fired: false }));
        let cost = JobCost { lea_macs: 5000, preserve_bytes: 8, cpu_cycles: 0 };
        assert_eq!(sim.run_job(cost).unwrap(), Commit::PowerFailed);
        assert_eq!(sim.last_failure().unwrap().preserve_frac, 0.0);
        // the interrupted window up to the cut is wasted, not committed
        assert_eq!(sim.stats().lea_macs, 0);
    }

    #[test]
    fn cleared_hook_stops_injecting() {
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        sim.set_fault_hook(Box::new(FailNth { attempt: 0, frac: 0.5, fired: false }));
        let cost = JobCost { lea_macs: 100, preserve_bytes: 34, cpu_cycles: 10 };
        assert_eq!(sim.run_job(cost).unwrap(), Commit::PowerFailed);
        assert!(sim.clear_fault_hook().is_some());
        for _ in 0..100 {
            assert_eq!(sim.run_job(cost).unwrap(), Commit::Committed);
        }
        assert_eq!(sim.stats().injected_failures, 1);
    }

    #[test]
    fn natural_failures_are_not_counted_as_injected() {
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        let cost = JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 };
        let mut committed = 0;
        while committed < 5_000 {
            match sim.run_job(cost).unwrap() {
                Commit::Committed => committed += 1,
                Commit::PowerFailed => sim.recover(128).unwrap(),
            }
        }
        assert!(sim.stats().power_cycles > 0);
        assert_eq!(sim.stats().injected_failures, 0);
        let detail = sim.last_failure().expect("natural failure recorded");
        assert!(!detail.injected);
    }

    #[test]
    fn recovery_refetch_that_exceeds_the_budget_is_nontermination() {
        // A recovery read whose single DMA chunk needs more energy than one
        // full capacitor charge can never complete: Section II-B's
        // nontermination hazard, surfaced as a direct error.
        let energy = EnergyModel { p_nvm_read_w: 1.0e3, ..EnergyModel::default() };
        let mut sim = DeviceSim::with_models(
            DeviceSpec::default(),
            TimingModel::default(),
            energy,
            PowerStrength::Weak,
            0,
        );
        let err = sim.recover(64).unwrap_err();
        match err {
            SimError::Nontermination { activity, needed_j, budget_j } => {
                assert!(activity.contains("recovery"), "activity: {activity}");
                assert!(needed_j > budget_j);
            }
        }
    }

    #[test]
    fn recover_accounts_reboots_as_recovery_time() {
        // A large recovery re-fetch under weak power browns out repeatedly;
        // every reboot plus the whole transfer must land in `recovery_s`,
        // with nothing leaking into the read column.
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        sim.recover(200 * 1024).unwrap();
        let stats = sim.stats();
        assert!(stats.power_cycles > 0, "a 200 KB re-fetch cannot fit one cycle");
        assert!(stats.nvm_read_s.abs() < 1e-15, "read time must move to recovery");
        let reboots = stats.power_cycles as f64 * sim.timing().reboot_s;
        assert!(
            stats.recovery_s > reboots,
            "recovery_s {} must exceed pure reboot time {}",
            stats.recovery_s,
            reboots
        );
    }

    #[test]
    fn zero_byte_ops_are_noops() {
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        sim.run_read(0).unwrap();
        sim.run_write(0).unwrap();
        sim.run_cpu(0).unwrap();
        assert_eq!(sim.now(), 0.0);
    }

    #[test]
    fn invariants_catch_corrupted_stats() {
        let mut s = SimStats::default();
        s.check_invariants().unwrap();
        s.charging_s = -1.0;
        assert!(s.check_invariants().unwrap_err().contains("charging_s"));
        s.charging_s = 0.0;
        s.injected_failures = 3;
        assert!(s.check_invariants().unwrap_err().contains("injected_failures"));
    }

    /// The weak constant level and two harvest traces: the supplies the
    /// checkpoint tests run under, so they cover the power memo's spans
    /// as well as its all-time constant span.
    fn checkpoint_supplies() -> [(&'static str, Supply); 3] {
        use crate::power::PowerTrace;
        [
            ("weak", Supply::from(PowerStrength::Weak)),
            ("solar", Supply::Trace(PowerTrace::solar(8.0e-3, 2.0, 64, 3))),
            ("rf bursts", Supply::Trace(PowerTrace::rf_bursts(20.0e-3, 1.0e-3, 1.0, 64, 4, 5))),
        ]
    }

    #[test]
    fn fork_resumes_bit_identically_to_the_original() {
        // Drive a harvested sim through a failure-rich workload, snapshot
        // mid-way, then run fork and original forward in lockstep: every
        // observable must stay bit-identical.
        let cost = JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 };
        for (label, supply) in checkpoint_supplies() {
            let mut sim = DeviceSim::with_supply(supply, 3);
            sim.set_fault_hook(Box::new(FailNth { attempt: 700, frac: 0.4, fired: false }));
            let mut committed = 0;
            while committed < 500 {
                match sim.run_job(cost).unwrap() {
                    Commit::Committed => committed += 1,
                    Commit::PowerFailed => sim.recover(128).unwrap(),
                }
            }
            let ckpt = sim.checkpoint();
            let mut fork = sim.fork(&ckpt);
            assert_eq!(fork.now(), sim.now());
            for _ in 0..2_000 {
                let a = sim.run_job(cost).unwrap();
                let b = fork.run_job(cost).unwrap();
                assert_eq!(a, b, "{label}");
                if a == Commit::PowerFailed {
                    sim.recover(128).unwrap();
                    fork.recover(128).unwrap();
                }
            }
            assert!(sim.stats().power_cycles > 1, "{label}: the supply must brown out");
            assert_eq!(sim.now().to_bits(), fork.now().to_bits(), "{label}");
            assert_eq!(sim.stats(), fork.stats(), "{label}");
            // the injected failure at attempt 700 fired identically in both
            assert_eq!(sim.stats().injected_failures, 1, "{label}");
        }
    }

    #[test]
    fn restore_rewinds_in_place() {
        let cost = JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 };
        let run = |sim: &mut DeviceSim, jobs: usize| {
            for _ in 0..jobs {
                if sim.run_job(cost).unwrap() == Commit::PowerFailed {
                    sim.recover(128).unwrap();
                }
            }
        };
        for (label, supply) in checkpoint_supplies() {
            let mut sim = DeviceSim::with_supply(supply, 0);
            run(&mut sim, 200);
            let ckpt = sim.checkpoint();
            let mark = (sim.now(), sim.stats().clone());
            run(&mut sim, 500);
            assert_ne!(sim.now(), mark.0, "{label}");
            let ahead = (sim.now(), sim.stats().clone());
            sim.restore(&ckpt);
            assert_eq!(sim.now().to_bits(), mark.0.to_bits(), "{label}");
            assert_eq!(sim.stats(), &mark.1, "{label}");
            // rewound time reads the supply again: the rerun repeats itself
            run(&mut sim, 500);
            assert_eq!(sim.now().to_bits(), ahead.0.to_bits(), "{label}");
            assert_eq!(sim.stats(), &ahead.1, "{label}");
        }
    }

    #[test]
    fn checkpoint_excludes_the_trace_sink() {
        use iprune_obs::{drain_shared, MemorySink};
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        let sink = MemorySink::shared();
        sim.set_trace_sink(sink.clone());
        let cost = JobCost { lea_macs: 100, preserve_bytes: 34, cpu_cycles: 10 };
        sim.run_job(cost).unwrap();
        let before = drain_shared(&sink).len();
        let mut fork = sim.fork(&sim.checkpoint());
        assert!(!fork.tracing(), "forks start without a sink");
        fork.run_job(cost).unwrap();
        assert_eq!(drain_shared(&sink).len(), 0, "fork must not feed the parent's sink");
        assert!(before > 0);
    }

    #[test]
    fn traced_run_reconciles_with_stats() {
        use iprune_obs::{drain_shared, Attribution, MemorySink, StatsTotals};
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        let sink = MemorySink::shared();
        sim.set_trace_sink(sink.clone());
        assert!(sim.tracing());
        let cost = JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 };
        let mut committed = 0;
        while committed < 2_000 {
            match sim.run_job(cost).unwrap() {
                Commit::Committed => committed += 1,
                Commit::PowerFailed => sim.recover(128).unwrap(),
            }
        }
        sim.run_read(4096).unwrap();
        sim.run_write(256).unwrap();
        sim.run_cpu(500).unwrap();
        sim.stats().check_invariants().unwrap();
        let events = drain_shared(&sink);
        assert!(sim.stats().power_cycles > 0, "weak power should brown out");
        let attr = Attribution::from_events(&events);
        let totals = StatsTotals::from(sim.stats());
        if let Err(e) = attr.reconcile(&totals) {
            panic!("trace does not reconcile with SimStats:\n{e:?}");
        }
    }

    #[test]
    fn untraced_and_traced_runs_are_identical() {
        use iprune_obs::MemorySink;
        let run = |traced: bool| {
            let mut sim = DeviceSim::new(PowerStrength::Weak, 7);
            if traced {
                sim.set_trace_sink(MemorySink::shared());
            }
            let cost = JobCost { lea_macs: 60, preserve_bytes: 34, cpu_cycles: 8 };
            let mut committed = 0;
            while committed < 1_000 {
                match sim.run_job(cost).unwrap() {
                    Commit::Committed => committed += 1,
                    Commit::PowerFailed => sim.recover(128).unwrap(),
                }
            }
            (sim.now(), sim.stats().clone())
        };
        let (t_plain, s_plain) = run(false);
        let (t_traced, s_traced) = run(true);
        assert_eq!(t_plain, t_traced);
        assert_eq!(s_plain, s_traced);
    }
}
