//! The concurrent serving front end: deterministic deadline admission over
//! integer plan costs + rolling per-variant cost histograms, degrade-ladder
//! fallback, and batched execution over the `iprune_tensor::par` worker
//! pool.
//!
//! Every scheduling decision is made from *integer* quantities — cached
//! [`DispatchPlan`](crate::registry::DispatchPlan) MAC costs and exact
//! [`LogHist`] p99 estimates — never from wall-clock measurements, so the
//! admitted/degraded/rejected outcome of a workload is byte-identical at any
//! thread count. Only the reported requests/s and latency quantiles (marked
//! nonstructural in the bench report) vary with parallelism.

use crate::registry::{LoadedVariant, ModelRegistry, VariantKey};
use iprune_obs::agg::{LogHist, StreamStat};
use iprune_obs::metrics::{self, Counter, Histogram};
use iprune_tensor::exec::ExecCtx;
use iprune_tensor::metrics::{argmax, argmax_rows};
use iprune_tensor::{par, Tensor};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the [`Completion`].
    pub id: u64,
    /// Which variant the caller wants.
    pub key: VariantKey,
    /// Input sample, dims `[1, ...sample_dims]`.
    pub input: Tensor,
    /// Deadline budget in plan-cost units (kept MACs). The request is
    /// admitted only if the estimated service + queue cost fits.
    pub budget: u64,
}

/// How an admitted-or-not request was resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Served on the requested variant.
    Served {
        /// The variant that served it.
        key: VariantKey,
    },
    /// Budget missed on the requested variant; served on a sparser one.
    Degraded {
        /// What the caller asked for.
        from: VariantKey,
        /// The cheaper variant that fit the budget.
        to: VariantKey,
    },
    /// No variant on the degrade ladder fit the budget.
    Rejected {
        /// The estimate (service + queue) for the requested variant.
        estimate: u64,
    },
}

/// Result for one request, in submission order.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Admission outcome.
    pub outcome: Outcome,
    /// Predicted class (None when rejected).
    pub pred: Option<usize>,
    /// Raw logits (empty when rejected). Bitwise-identical to running the
    /// same sample through `Model::infer` alone.
    pub logits: Vec<f32>,
}

/// Execution strategy for the admitted set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Group compatible requests into GEMM-friendly batches and fan the
    /// batches out over the worker pool.
    Batched,
    /// One request at a time on the calling thread (the baseline the bench
    /// compares against).
    Sequential,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch assembled from compatible requests.
    pub max_batch: usize,
    /// Scheduling quantum: the queue-cost backlog resets every this many
    /// requests (a "round" of arrivals).
    pub round_requests: usize,
    /// Walk the degrade ladder (weaker-power = sparser variant) before
    /// rejecting.
    pub degrade: bool,
    /// Serve through each variant's Q15 twin (device numerics), built on
    /// its first Q15 request, instead of the f32 path. That request's
    /// batch time includes the calibration; call
    /// [`LoadedVariant::qmodel`] beforehand to keep it out of timings.
    pub q15: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 16, round_requests: 64, degrade: true, q15: false }
    }
}

/// Aggregate statistics for one [`Server::run`] call. All integer-exact and
/// thread-count invariant.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Requests that executed (including degraded ones).
    pub admitted: u64,
    /// Requests that missed their budget on every ladder rung.
    pub rejected: u64,
    /// Admitted requests that ran on a sparser variant than requested.
    pub degraded: u64,
    /// Batches executed.
    pub batches: u64,
    /// Queue depth (admitted-unexecuted in the current round) at each
    /// submission.
    pub queue_depth: StreamStat,
    /// Executed batch sizes.
    pub batch_size: StreamStat,
    /// Observed integer service cost (plan cost + queue backlog at admit)
    /// per admitted request.
    pub service_cost: StreamStat,
}

impl RunStats {
    fn new() -> Self {
        Self {
            admitted: 0,
            rejected: 0,
            degraded: 0,
            batches: 0,
            queue_depth: StreamStat::new(),
            batch_size: StreamStat::new(),
            service_cost: StreamStat::new(),
        }
    }
}

/// Everything a run produced.
pub struct ServeOutcome {
    /// Per-request results, in submission order.
    pub completions: Vec<Completion>,
    /// Integer-exact run statistics.
    pub stats: RunStats,
    /// Measured wall nanoseconds attributed to each request (its batch's
    /// wall for batched mode; 0 for rejected). Nonstructural: varies run to
    /// run and with thread count.
    pub wall_ns: Vec<u64>,
}

struct Instruments {
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    degraded: Arc<Counter>,
    queue_depth: Arc<Histogram>,
    batch_size: Arc<Histogram>,
}

fn instruments() -> &'static Instruments {
    static I: OnceLock<Instruments> = OnceLock::new();
    I.get_or_init(|| Instruments {
        admitted: metrics::counter("serve.admitted"),
        rejected: metrics::counter("serve.rejected"),
        degraded: metrics::counter("serve.degraded"),
        queue_depth: metrics::histogram("serve.queue_depth"),
        batch_size: metrics::histogram("serve.batch_size"),
    })
}

/// The serving front end. Holds the shared registry and the rolling
/// per-variant cost histograms that feed the p99 admission estimate.
pub struct Server {
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
    hists: Mutex<HashMap<VariantKey, LogHist>>,
}

/// An admitted request after the admission sweep.
struct Admitted {
    req_idx: usize,
    variant: Arc<LoadedVariant>,
}

impl Server {
    /// Creates a server over a (possibly shared) registry.
    pub fn new(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> Self {
        Self { registry, cfg, hists: Mutex::new(HashMap::new()) }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Forgets the rolling cost histograms, returning admission to a
    /// cold-start state (used by the bench to make repeated runs of the
    /// same workload identical).
    pub fn reset_history(&self) {
        self.hists.lock().expect("hist lock").clear();
    }

    /// Runs a workload in [`ExecMode::Batched`] mode.
    pub fn run(&self, requests: &[Request]) -> ServeOutcome {
        self.run_mode(requests, ExecMode::Batched)
    }

    /// Runs a workload: sequential deterministic admission sweep, then
    /// execution in the requested mode.
    pub fn run_mode(&self, requests: &[Request], mode: ExecMode) -> ServeOutcome {
        let ins = instruments();
        let mut stats = RunStats::new();
        let mut completions: Vec<Completion> = requests
            .iter()
            .map(|r| Completion {
                id: r.id,
                outcome: Outcome::Rejected { estimate: 0 },
                pred: None,
                logits: Vec::new(),
            })
            .collect();
        let mut wall_ns = vec![0u64; requests.len()];

        let admitted = self.admit(requests, &mut completions, &mut stats, ins);

        match mode {
            ExecMode::Batched => {
                self.exec_batched(requests, &admitted, &mut completions, &mut stats, &mut wall_ns)
            }
            ExecMode::Sequential => self.exec_sequential(
                requests,
                &admitted,
                &mut completions,
                &mut stats,
                &mut wall_ns,
            ),
        }
        ServeOutcome { completions, stats, wall_ns }
    }

    /// Deadline admission: arrival order, rounds of `round_requests`,
    /// estimate = max(plan cost + backlog, rolling p99 of observed cost),
    /// degrade ladder on miss.
    ///
    /// The queue backlog is tracked *per variant* in plan-cost units:
    /// admitted requests are grouped by variant and the groups execute
    /// concurrently, so a request only queues behind its own variant's
    /// earlier work. That also makes the degrade ladder effective
    /// mid-round — the sparser rung has both a cheaper plan and its own
    /// (usually shorter) queue.
    fn admit(
        &self,
        requests: &[Request],
        completions: &mut [Completion],
        stats: &mut RunStats,
        ins: &Instruments,
    ) -> Vec<Admitted> {
        let mut hists = self.hists.lock().expect("hist lock");
        let mut admitted = Vec::with_capacity(requests.len());
        let round = self.cfg.round_requests.max(1);
        let mut backlog: HashMap<VariantKey, u64> = HashMap::new();
        let mut in_round = 0u64;
        for (i, req) in requests.iter().enumerate() {
            if i % round == 0 {
                backlog.clear();
                in_round = 0;
            }
            stats.queue_depth.record(in_round);
            ins.queue_depth.record(in_round);

            let mut chosen: Option<(VariantKey, Arc<LoadedVariant>, u64)> = None;
            let mut first_estimate = 0u64;
            let mut candidate = Some(req.key);
            while let Some(key) = candidate {
                let variant = self.registry.get_or_load(key);
                let p99 = hists
                    .get(&key)
                    .filter(|h| h.count() > 0)
                    .map(|h| h.quantile_ppm(990_000))
                    .unwrap_or(0);
                // The rolling p99 is over *observed* cost (service + queue),
                // so it already prices congestion: take the max with the
                // current queue rather than adding on top, else historical
                // queueing double-counts and admission ratchets shut.
                let queued = backlog.get(&key).copied().unwrap_or(0);
                let estimate = (variant.plan.cost + queued).max(p99);
                if key == req.key {
                    first_estimate = estimate;
                }
                if estimate <= req.budget {
                    chosen = Some((key, variant, estimate));
                    break;
                }
                candidate = if self.cfg.degrade { key.degraded() } else { None };
            }

            match chosen {
                Some((key, variant, _est)) => {
                    let queued = backlog.get(&key).copied().unwrap_or(0);
                    let observed = variant.plan.cost + queued;
                    hists.entry(key).or_default().record(observed);
                    stats.service_cost.record(observed);
                    *backlog.entry(key).or_insert(0) += variant.plan.cost;
                    in_round += 1;
                    stats.admitted += 1;
                    ins.admitted.inc();
                    let outcome = if key == req.key {
                        Outcome::Served { key }
                    } else {
                        stats.degraded += 1;
                        ins.degraded.inc();
                        Outcome::Degraded { from: req.key, to: key }
                    };
                    completions[i].outcome = outcome;
                    admitted.push(Admitted { req_idx: i, variant });
                }
                None => {
                    stats.rejected += 1;
                    ins.rejected.inc();
                    completions[i].outcome = Outcome::Rejected { estimate: first_estimate };
                }
            }
        }
        admitted
    }

    /// Groups the admitted set by final variant (deterministic key order),
    /// chunks into `max_batch` GEMM-friendly batches, and fans the batches
    /// out over the worker pool. Logit rows are scattered back to the
    /// per-request completions.
    fn exec_batched(
        &self,
        requests: &[Request],
        admitted: &[Admitted],
        completions: &mut [Completion],
        stats: &mut RunStats,
        wall_ns: &mut [u64],
    ) {
        let ins = instruments();
        let mut groups: BTreeMap<(String, &'static str, &'static str), Vec<usize>> =
            BTreeMap::new();
        for (ai, adm) in admitted.iter().enumerate() {
            groups.entry(adm.variant.key.sort_key()).or_default().push(ai);
        }
        let mut batches: Vec<(Arc<LoadedVariant>, Vec<usize>)> = Vec::new();
        for idxs in groups.values() {
            for chunk in idxs.chunks(self.cfg.max_batch.max(1)) {
                let variant = Arc::clone(&admitted[chunk[0]].variant);
                batches.push((variant, chunk.to_vec()));
            }
        }
        for (_, chunk) in &batches {
            stats.batch_size.record(chunk.len() as u64);
            ins.batch_size.record(chunk.len() as u64);
        }
        stats.batches = batches.len() as u64;

        // (request indices, flat logits, preds, batch wall ns)
        type BatchResult = (Vec<usize>, Vec<f32>, Vec<usize>, u64);
        let q15 = self.cfg.q15;
        let results: Vec<BatchResult> = par::par_map(batches.len(), |bi| {
            let t0 = Instant::now();
            let (variant, chunk) = &batches[bi];
            let (logits, preds) = run_batch(
                variant,
                chunk.iter().map(|&ai| &requests[admitted[ai].req_idx].input),
                q15,
            );
            (chunk.clone(), logits, preds, t0.elapsed().as_nanos() as u64)
        });

        for (chunk, logits, preds, wall) in results {
            let classes = if chunk.is_empty() { 0 } else { logits.len() / chunk.len() };
            for (j, &ai) in chunk.iter().enumerate() {
                let ri = admitted[ai].req_idx;
                completions[ri].logits = logits[j * classes..(j + 1) * classes].to_vec();
                completions[ri].pred = Some(preds[j]);
                wall_ns[ri] = wall;
            }
        }
    }

    /// Baseline: one request at a time, on the calling thread, one reused
    /// scratch context.
    fn exec_sequential(
        &self,
        requests: &[Request],
        admitted: &[Admitted],
        completions: &mut [Completion],
        stats: &mut RunStats,
        wall_ns: &mut [u64],
    ) {
        let ins = instruments();
        let mut ctx = ExecCtx::new();
        for adm in admitted {
            stats.batch_size.record(1);
            ins.batch_size.record(1);
            stats.batches += 1;
            let ri = adm.req_idx;
            let t0 = Instant::now();
            let (logits, pred) = if self.cfg.q15 {
                let l = adm.variant.qmodel().forward_q15_with(&requests[ri].input, &mut ctx);
                let pred = argmax(&l);
                (l, pred)
            } else {
                let out = adm.variant.model.infer(&requests[ri].input, &mut ctx);
                let pred = argmax_rows(&out)[0];
                (out.data().to_vec(), pred)
            };
            completions[ri].logits = logits;
            completions[ri].pred = Some(pred);
            wall_ns[ri] = t0.elapsed().as_nanos() as u64;
        }
    }
}

/// Executes one batch against a shared variant: gathers the inputs into a
/// `[n, ...]` tensor, runs the shared model through a fresh scratch context
/// (zero weight clones), and returns row-major logits plus argmax
/// predictions.
fn run_batch<'a>(
    variant: &LoadedVariant,
    inputs: impl Iterator<Item = &'a Tensor>,
    q15: bool,
) -> (Vec<f32>, Vec<usize>) {
    let inputs: Vec<&Tensor> = inputs.collect();
    assert!(!inputs.is_empty(), "empty batch");
    if q15 {
        let q = variant.qmodel();
        let mut ctx = ExecCtx::new();
        let mut logits = Vec::new();
        let mut preds = Vec::new();
        for x in &inputs {
            let l = q.forward_q15_with(x, &mut ctx);
            preds.push(argmax(&l));
            logits.extend_from_slice(&l);
        }
        (logits, preds)
    } else {
        let sample_dims = &inputs[0].dims()[1..];
        let numel: usize = sample_dims.iter().product();
        let mut dims = vec![inputs.len()];
        dims.extend_from_slice(sample_dims);
        let mut data = Vec::with_capacity(inputs.len() * numel);
        for x in &inputs {
            assert_eq!(&x.dims()[1..], sample_dims, "incompatible sample dims in batch");
            data.extend_from_slice(x.data());
        }
        let batch = Tensor::from_vec(&dims, data);
        let mut ctx = ExecCtx::new();
        let out = variant.model.infer(&batch, &mut ctx);
        let preds = argmax_rows(&out);
        (out.data().to_vec(), preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DeviceProfile;
    use iprune_device::power::PowerStrength;
    use iprune_models::App;

    fn requests(n: usize, key: VariantKey, budget: u64) -> Vec<Request> {
        let ds = key.app.dataset(n, 77);
        (0..n).map(|i| Request { id: i as u64, key, input: ds.sample(i), budget }).collect()
    }

    fn test_registry() -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::default())
    }

    #[test]
    fn generous_budget_admits_everything() {
        let reg = test_registry();
        let key = VariantKey::new(App::Har, DeviceProfile::Nominal, PowerStrength::Strong);
        let server = Server::new(reg, ServeConfig::default());
        let reqs = requests(10, key, u64::MAX);
        let out = server.run(&reqs);
        assert_eq!(out.stats.admitted, 10);
        assert_eq!(out.stats.rejected, 0);
        assert_eq!(out.stats.degraded, 0);
        for c in &out.completions {
            assert!(matches!(c.outcome, Outcome::Served { .. }));
            assert!(c.pred.is_some());
            assert!(!c.logits.is_empty());
        }
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let reg = test_registry();
        let key = VariantKey::new(App::Har, DeviceProfile::Nominal, PowerStrength::Strong);
        let server = Server::new(reg, ServeConfig::default());
        let reqs = requests(4, key, 0);
        let out = server.run(&reqs);
        assert_eq!(out.stats.rejected, 4);
        for c in &out.completions {
            assert!(matches!(c.outcome, Outcome::Rejected { estimate } if estimate > 0));
            assert!(c.logits.is_empty());
        }
    }

    #[test]
    fn tight_budget_degrades_to_sparser_variant() {
        let reg = test_registry();
        let key = VariantKey::new(App::Har, DeviceProfile::Nominal, PowerStrength::Strong);
        let strong_cost = reg.get_or_load(key).plan.cost;
        let weak_cost = reg.get_or_load(key.degraded().unwrap()).plan.cost;
        assert!(weak_cost < strong_cost);
        // Budget fits the weak variant but not the strong one.
        let budget = (weak_cost + strong_cost) / 2;
        let server = Server::new(test_registry(), ServeConfig::default());
        let reqs = requests(1, key, budget);
        let out = server.run(&reqs);
        assert_eq!(out.stats.degraded, 1);
        assert!(matches!(
            out.completions[0].outcome,
            Outcome::Degraded { to, .. } if to == key.degraded().unwrap()
        ));
    }

    #[test]
    fn batched_and_sequential_agree_bitwise() {
        let reg = test_registry();
        let key = VariantKey::new(App::Cks, DeviceProfile::SmallCap, PowerStrength::Weak);
        let server = Server::new(reg, ServeConfig { max_batch: 4, ..Default::default() });
        let reqs = requests(9, key, u64::MAX);
        let batched = server.run_mode(&reqs, ExecMode::Batched);
        server.reset_history();
        let sequential = server.run_mode(&reqs, ExecMode::Sequential);
        for (b, s) in batched.completions.iter().zip(&sequential.completions) {
            assert_eq!(b.outcome, s.outcome);
            assert_eq!(b.pred, s.pred);
            assert_eq!(b.logits, s.logits, "batched logits must be bitwise sequential logits");
        }
    }

    #[test]
    fn round_reset_bounds_backlog() {
        let reg = test_registry();
        let key = VariantKey::new(App::Har, DeviceProfile::Nominal, PowerStrength::Weak);
        let cost = reg.get_or_load(key).plan.cost;
        // A budget of 3·cost absorbs a small backlog but not a full round's:
        // the tail of each round is rejected, and the round boundary resets
        // the backlog so admission resumes. Weak power has no sparser rung
        // to degrade to, so the misses are hard rejects.
        let budget = 3 * cost;
        let server = Server::new(
            Arc::clone(&reg),
            ServeConfig { round_requests: 4, degrade: true, ..Default::default() },
        );
        let reqs = requests(8, key, budget);
        let out = server.run(&reqs);
        assert_eq!(out.stats.admitted + out.stats.rejected, 8);
        assert!(out.stats.rejected > 0, "budget pressure must bind");
        assert!(
            matches!(out.completions[3].outcome, Outcome::Rejected { .. }),
            "round-1 tail rejected under backlog"
        );
        assert!(
            matches!(out.completions[4].outcome, Outcome::Served { .. }),
            "round boundary resets the backlog"
        );
        assert!(out.stats.queue_depth.max < 4, "backlog never spans a round");
    }
}
