//! Inference serving for pruned iPrune models (`iprune-serve`).
//!
//! The paper's models are pruned *per deployment point*: the right variant
//! depends on the workload, the device's hardware profile, and how much
//! power it harvests. This crate serves all of those variants from one
//! process:
//!
//! 1. **Registry** ([`registry`]): a [`registry::ModelRegistry`] lazily
//!    loads one immutable [`registry::LoadedVariant`] per
//!    [`registry::VariantKey`] — `Arc`-shared weights + mask
//!    `SparseIndex` strips, a cached integer [`registry::DispatchPlan`],
//!    and Q15 calibration tables built on first Q15 use. Requests execute
//!    against the shared state through per-request
//!    [`iprune_tensor::exec::ExecCtx`] scratch: zero weight clones per
//!    request.
//! 2. **Front end** ([`server`]): a [`server::Server`] admits by deadline
//!    (estimate = cached plan cost ⊔ rolling [`iprune_obs::agg::LogHist`]
//!    p99, plus the round's queue backlog), walks the degrade ladder to a
//!    sparser variant when the budget misses, batches compatible requests
//!    into GEMM-friendly groups, and fans batches out over the
//!    `iprune_tensor::par` worker pool. All decisions are integer-exact and
//!    thread-count invariant; logits are bitwise-identical to running each
//!    sample alone.
//! 3. **Report** ([`report`]): the deterministic `BENCH_serving.json`
//!    renderer — structural rows (plans, admission outcomes, logit
//!    checksums) byte-identical at any thread count, wall-clock and
//!    requests/s on marked nonstructural lines.

pub mod registry;
pub mod report;
pub mod server;

pub use registry::{
    DeviceProfile, DispatchPlan, LoadedVariant, ModelRegistry, PlanRow, RegistryConfig, VariantKey,
};
pub use report::{AdmissionBlock, ServingReport, ThroughputRow, VariantRow};
pub use server::{
    Completion, ExecMode, Outcome, Request, RunStats, ServeConfig, ServeOutcome, Server,
};
