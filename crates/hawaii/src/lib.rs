//! HAWAII⁺-style intermittent inference engine.
//!
//! This crate reimplements, over the [`iprune_device`] simulator, the
//! deployment half of the paper: a tiled, job-granular inference engine in
//! the spirit of HAWAII (job counters as progress indicators, immediate
//! preservation of accelerator outputs) extended with the optimizations the
//! paper folds into HAWAII⁺ — BSR sparse weight storage, tile-size selection
//! to fill the 8 KB VM, and spatial data reuse — plus a conventional
//! continuous-power execution mode used for the motivation experiment
//! (Figure 2(a)) and as the functional reference.
//!
//! The engine *really computes* quantized inference: deployment quantizes a
//! trained model to 16-bit fixed point, execution runs block-sparse GEMMs
//! job by job against the device simulator, loses volatile state at every
//! power failure, and resumes from the preserved job counter — so
//! "intermittent output ≡ continuous output" is a testable invariant rather
//! than an assumption.

pub mod bsr;
pub mod deploy;
pub mod exec;
pub mod layout;
pub mod plan;
pub mod tiling;

pub use bsr::BsrMatrix;
pub use deploy::{deploy, DeployedLayer, DeployedModel};
pub use exec::{infer, Engine, EngineError, ExecMode, InferenceOutcome, Step};
pub use plan::LayerPlan;
pub use tiling::{TilePlan, VmBudget};
