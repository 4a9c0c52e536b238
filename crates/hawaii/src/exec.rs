//! Quantized inference execution against the device simulator.
//!
//! Three modes share one compute path:
//!
//! * [`ExecMode::Intermittent`] — HAWAII-style: every accelerator job's
//!   partial outputs are immediately preserved to NVM together with a
//!   footprint (job counter). A power failure loses the volatile
//!   accumulators; recovery reloads the last committed partials and re-runs
//!   only the interrupted job.
//! * [`ExecMode::TileAtomic`] — SONIC/TAILS-style task-atomic execution:
//!   only completed output tiles are preserved; a power failure re-executes
//!   the whole interrupted tile.
//! * [`ExecMode::Continuous`] — the conventional flow of Figure 2(a):
//!   accumulators stay in VM until an output tile completes, and only final
//!   outputs are written back. Correct only while power never fails.
//!
//! All modes perform the *same* 16-bit fixed-point arithmetic, so their
//! outputs are bit-identical — the crate's central tested invariant.
//!
//! The simulator is charged job by job: every non-zero weight block of an
//! output tile is one accelerator job with its own reads, commit, counters,
//! trace events and retries. The host-side arithmetic runs once per tile:
//! when the tile's write-back has committed, one call of the shared Q15
//! block kernel ([`q15_block_acc`], the host Q15 convs' kernel too) adds
//! every stored block of the tile's block row into the bias-preloaded
//! accumulators, over the op's input packed once by `pack::im2col_rows`,
//! and [`q15_requantize_relu`] writes the outputs. Integer sums are exact,
//! so this equals accumulating job by job; and since the accumulators are
//! a function of the activation buffers, the cursor and the tile's chunk
//! index, which [`Engine::state_fingerprint`] hashes, no accumulator needs
//! to live in the engine state between jobs.
//!
//! Execution is driven by a resumable [`Engine`]: a cloneable state machine
//! that advances one committed accelerator job per [`Engine::step`] call.
//! [`infer`] is the convenience driver that steps a fresh engine to
//! completion; fault campaigns instead clone the engine mid-flight (paired
//! with a [`iprune_device::sim::SimCheckpoint`]) to fork executions at job
//! boundaries without replaying the prefix.

use crate::deploy::{DeployedLayer, DeployedModel};
use iprune_device::sim::{Commit, DeviceSim, JobCost, SimError};
use iprune_device::trace::SimStats;
use iprune_models::arch::GraphOp;
use iprune_models::graphref::{flatten, global_avg_pool, max_pool, LayerOp};
use iprune_obs::TraceEvent;
use iprune_tensor::metrics::argmax;
use iprune_tensor::pack::im2col_rows;
use iprune_tensor::qgemm::{q15_block_acc, q15_requantize_relu};
use iprune_tensor::quant::QFormat;
use iprune_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// HAWAII-style: progress preservation after every accelerator job
    /// (finest-grained progress indicator, minimal re-execution).
    Intermittent,
    /// SONIC/TAILS-style task-atomic execution: accumulators stay in VM for
    /// a whole output tile; only completed tiles are preserved (with a
    /// loop-index footprint), and a power failure re-executes the entire
    /// interrupted tile. Fewer NVM writes, more re-executed work.
    TileAtomic,
    /// VM accumulation, output-tile write-back only (continuous power only).
    Continuous,
}

/// Result of one end-to-end inference.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Dequantized logits.
    pub logits: Vec<f32>,
    /// Predicted class.
    pub argmax: usize,
    /// End-to-end latency on the simulated device (seconds).
    pub latency_s: f64,
    /// Power cycles experienced.
    pub power_cycles: u64,
    /// Accelerator jobs committed.
    pub jobs: u64,
    /// Accelerator outputs preserved as partials (intermittent mode);
    /// matches the analytic pruning criterion.
    pub preserved_partials: u64,
    /// Job or tile attempts re-issued after a power failure (each one is
    /// re-executed work the progress-preservation granularity paid for).
    pub retries: u64,
    /// Full simulator statistics at completion.
    pub stats: SimStats,
}

/// Engine failure.
#[derive(Debug)]
pub enum EngineError {
    /// Underlying simulator error.
    Sim(SimError),
    /// A job kept failing without committing (energy budget too tight for
    /// forward progress).
    NoProgress {
        /// Layer id where progress stalled.
        layer: usize,
        /// Number of jobs the stalled atomic span re-executes per retry:
        /// 1 for a job-granular (HAWAII) commit, chunk-count + write-back
        /// for a tile-atomic tile.
        tile_jobs: u64,
    },
    /// Power failed while executing in continuous mode: all volatile
    /// progress is lost and the inference cannot be resumed.
    PowerLostInContinuousMode,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sim(e) => write!(f, "device simulation error: {e}"),
            EngineError::NoProgress { layer, tile_jobs } => {
                write!(f, "no forward progress in layer {layer} (atomic span of {tile_jobs} jobs)")
            }
            EngineError::PowerLostInContinuousMode => {
                write!(f, "power failed while executing in continuous mode")
            }
        }
    }
}

impl Error for EngineError {}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

/// Failed attempts after which one job (or task-atomic tile) is reported
/// as [`EngineError::NoProgress`].
const MAX_RETRIES_PER_JOB: u32 = 10_000;
/// Footprint (job counter) bytes preserved with every job.
const FOOTPRINT_BYTES: usize = 4;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    jobs: u64,
    partials: u64,
    retries: u64,
}

/// Result of one [`Engine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Exactly one accelerator job committed (progress became durable).
    Committed,
    /// The inference completed; call [`Engine::outcome`].
    Done,
}

/// Which phase of the current output tile the engine is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TilePhase {
    /// About to start the tile: emit the scope, load bias, fetch it.
    Enter,
    /// Accumulating non-zero weight chunks.
    Chunk,
    /// Requantize + store the tile's outputs.
    WriteBack,
}

/// Volatile state of the output tile in progress.
#[derive(Debug, Clone, PartialEq, Hash)]
struct TileCursor {
    phase: TilePhase,
    /// Index into the row block's non-zero chunk sequence.
    chunk_idx: usize,
    /// The tile's i64 accumulators (the bias preload plus every stored
    /// block of the block row), filled and consumed inside its write-back
    /// and empty between steps, so clones and fingerprints carry no
    /// accumulators. The allocation is kept from tile to tile.
    scratch: Vec<i64>,
    /// Tile re-execution count (task-atomic livelock guard).
    retries: u32,
}

impl TileCursor {
    fn enter() -> Self {
        TileCursor { phase: TilePhase::Enter, chunk_idx: 0, scratch: Vec::new(), retries: 0 }
    }

    /// Back to [`TilePhase::Enter`] with `retries`, keeping the accumulator
    /// allocation for the next tile.
    fn reenter(&mut self, retries: u32) {
        self.phase = TilePhase::Enter;
        self.chunk_idx = 0;
        self.scratch.clear();
        self.retries = retries;
    }
}

/// Progress through one GEMM-backed op (Conv or Fc).
#[derive(Debug, Clone, PartialEq, Hash)]
struct GemmCursor {
    op_idx: usize,
    op: LayerOp,
    bias_shift: u32,
    in_frac: u8,
    w_frac: u8,
    out_fmt: QFormat,
    /// The op's input packed once at the op's start, `[k][n_spatial]`
    /// (`pack::im2col_rows` for a conv, the input vector for an FC); a
    /// tile reads its strip through the row stride `n_spatial`.
    col: Vec<i16>,
    strip_start: usize,
    s_len: usize,
    rb: usize,
    tile: TileCursor,
}

/// Where the engine is in the graph.
#[derive(Debug, Clone, PartialEq, Hash)]
enum Cursor {
    /// About to run graph op `i` (pools and flattens complete without
    /// committing jobs and advance past in one sweep).
    Op(usize),
    /// Inside a GEMM-backed op.
    Gemm(Box<GemmCursor>),
    /// Inference complete.
    Done,
}

/// Outcome of one phase advance inside a GEMM op.
struct GemmAdvance {
    /// A job committed. Scope entry, a tile-atomic restart and a
    /// continuous write-back commit nothing; the engine keeps advancing.
    committed: bool,
    /// The op's last tile was written back.
    op_done: bool,
}

impl GemmAdvance {
    const NO_COMMIT: GemmAdvance = GemmAdvance { committed: false, op_done: false };
}

/// A resumable, cloneable inference execution.
///
/// The engine holds every piece of volatile *and* durable-progress state of
/// one inference — quantized activation buffers, tile accumulators, loop
/// indices, job counters — while the paired [`DeviceSim`] holds the timing
/// and energy state. Cloning the engine and checkpointing the simulator at
/// the same job boundary therefore captures the complete execution, which
/// is what the fault-campaign fast path forks from.
///
/// One [`Engine::step`] call advances until exactly one accelerator job
/// commits (retrying through power failures exactly like the monolithic
/// executor did) or the inference completes.
#[derive(Clone)]
pub struct Engine<'m> {
    dm: &'m DeployedModel,
    mode: ExecMode,
    bufs: Vec<Vec<i16>>,
    counters: Counters,
    cycles_at_start: u64,
    cursor: Cursor,
}

impl fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("mode", &self.mode)
            .field("cursor", &self.cursor)
            .field("jobs", &self.counters.jobs)
            .finish_non_exhaustive()
    }
}

impl<'m> Engine<'m> {
    /// Prepares an inference of `dm` on `input` (`[c,h,w]` or `[1,c,h,w]`)
    /// in `mode`. `sim` is only inspected for its current power-cycle
    /// count (the continuous-mode loss baseline); no device work happens
    /// until [`Self::step`].
    pub fn new(dm: &'m DeployedModel, input: &Tensor, sim: &DeviceSim, mode: ExecMode) -> Self {
        let mut bufs: Vec<Vec<i16>> =
            dm.info.buffers.iter().map(|b| vec![0i16; b.numel()]).collect();
        assert_eq!(input.numel(), bufs[0].len(), "input size vs model input buffer");
        let in_fmt = dm.buf_fmts[0];
        for (dst, &v) in bufs[0].iter_mut().zip(input.data()) {
            *dst = in_fmt.quantize(v);
        }
        Engine {
            dm,
            mode,
            bufs,
            counters: Counters { jobs: 0, partials: 0, retries: 0 },
            cycles_at_start: sim.stats().power_cycles,
            cursor: Cursor::Op(0),
        }
    }

    /// Whether the inference has completed.
    pub fn is_done(&self) -> bool {
        self.cursor == Cursor::Done
    }

    /// Accelerator jobs committed so far.
    pub fn jobs_committed(&self) -> u64 {
        self.counters.jobs
    }

    /// Job/tile attempts re-issued after power failures so far.
    pub fn retries(&self) -> u64 {
        self.counters.retries
    }

    /// Whether the engine sits at a tile boundary: between graph ops, at
    /// completion, or about to enter a fresh tile. After a [`Step::Committed`]
    /// this is true exactly when the commit was a tile write-back — the
    /// resynchronization points the campaign fast path splices at.
    pub fn at_tile_boundary(&self) -> bool {
        match &self.cursor {
            Cursor::Done | Cursor::Op(_) => true,
            Cursor::Gemm(gc) => gc.tile.phase == TilePhase::Enter,
        }
    }

    /// Whether two engines are in bit-identical execution state: same
    /// activation buffers and same position (including the tile's chunk
    /// index and the op's packed input). Job counters are deliberately *not*
    /// compared — a forked execution that re-executed a tile has more
    /// commits than the recording it resynchronized with.
    pub fn state_matches(&self, other: &Engine<'_>) -> bool {
        self.mode == other.mode && self.cursor == other.cursor && self.bufs == other.bufs
    }

    /// 64-bit digest of the execution state compared by
    /// [`Self::state_matches`] (activation buffers + cursor, not job
    /// counters). The fault-campaign fast path records one digest per
    /// committed job, so a forked execution can verify — in O(1) memory per
    /// commit — that post-failure recovery reconverged to the recorded
    /// failure-free state before splicing its suffix.
    pub fn state_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.bufs.hash(&mut h);
        self.cursor.hash(&mut h);
        h.finish()
    }

    /// Advances execution until one accelerator job commits or the
    /// inference completes. Power failures inside the step are retried
    /// (intermittent: re-issue the job; task-atomic: re-execute the tile)
    /// before the step returns, exactly like the monolithic executor.
    ///
    /// # Errors
    ///
    /// Propagates simulator nontermination, reports
    /// [`EngineError::PowerLostInContinuousMode`] when continuous mode
    /// browns out, and [`EngineError::NoProgress`] when a job cannot commit.
    pub fn step(&mut self, sim: &mut DeviceSim) -> Result<Step, EngineError> {
        let Engine { dm, mode, bufs, counters, cycles_at_start, cursor } = self;
        let dm: &DeployedModel = dm;
        let mode = *mode;
        let cycles_at_start = *cycles_at_start;
        loop {
            match cursor {
                Cursor::Done => return Ok(Step::Done),
                Cursor::Op(i) => {
                    let op_idx = *i;
                    // Continuous mode has no progress preservation at all:
                    // any power cycle so far (even one absorbed inside a
                    // blocking transfer) has wiped the volatile accumulators
                    // and the inference is lost.
                    if mode == ExecMode::Continuous && sim.stats().power_cycles > cycles_at_start {
                        return Err(EngineError::PowerLostInContinuousMode);
                    }
                    if op_idx >= dm.info.graph.len() {
                        *cursor = Cursor::Done;
                        return Ok(Step::Done);
                    }
                    let op = &dm.info.graph[op_idx];
                    sim.emit_scope(|| TraceEvent::LayerStart {
                        t: sim.now(),
                        op: op_idx as u32,
                        label: op_label(op),
                    });
                    let layer = match *op {
                        GraphOp::Conv { layer_id, src, dst, dst_c_off, relu } => {
                            Some(LayerOp { layer_id, src, dst, dst_c_off, relu })
                        }
                        GraphOp::Fc { layer_id, src, dst, relu } => {
                            Some(LayerOp { layer_id, src, dst, dst_c_off: 0, relu })
                        }
                        GraphOp::MaxPool { src, dst, kh, kw } => {
                            max_pool(&dm.info, bufs, src, dst, kh, kw);
                            sim.run_read(bufs[src].len() * 2)?;
                            sim.run_cpu(bufs[src].len() * 2)?;
                            sim.run_write(bufs[dst].len() * 2)?;
                            None
                        }
                        GraphOp::GlobalAvgPool { src, dst } => {
                            global_avg_pool(&dm.info, bufs, src, dst);
                            sim.run_read(bufs[src].len() * 2)?;
                            sim.run_cpu(bufs[src].len())?;
                            sim.run_write(bufs[dst].len() * 2)?;
                            None
                        }
                        GraphOp::Flatten { src, dst } => {
                            // address reinterpretation — no device work
                            flatten(bufs, src, dst);
                            None
                        }
                    };
                    match layer.and_then(|l| GemmCursor::begin(dm, op_idx, l, bufs)) {
                        Some(gc) => *cursor = Cursor::Gemm(Box::new(gc)),
                        None => {
                            sim.emit_scope(|| TraceEvent::LayerEnd {
                                t: sim.now(),
                                op: op_idx as u32,
                            });
                            *cursor = Cursor::Op(op_idx + 1);
                        }
                    }
                }
                Cursor::Gemm(gc) => {
                    let adv = gemm_phase(dm, mode, bufs, counters, gc, sim)?;
                    let op_idx = gc.op_idx;
                    if adv.op_done {
                        sim.emit_scope(|| TraceEvent::LayerEnd { t: sim.now(), op: op_idx as u32 });
                        *cursor = Cursor::Op(op_idx + 1);
                    }
                    if adv.committed {
                        return Ok(Step::Committed);
                    }
                }
            }
        }
    }

    /// Builds the final outcome. Panics unless the engine [`Self::is_done`].
    pub fn outcome(&self, sim: &DeviceSim) -> InferenceOutcome {
        assert!(self.is_done(), "outcome requested before the inference completed");
        let logits_buf = self.bufs.last().expect("at least one buffer");
        let fmt = *self.dm.buf_fmts.last().expect("formats");
        let logits: Vec<f32> = logits_buf.iter().map(|&q| fmt.dequantize(q)).collect();
        InferenceOutcome {
            argmax: argmax(&logits),
            logits,
            latency_s: sim.now(),
            power_cycles: sim.stats().power_cycles,
            jobs: self.counters.jobs,
            preserved_partials: self.counters.partials,
            retries: self.counters.retries,
            stats: sim.stats().clone(),
        }
    }
}

/// Runs one end-to-end inference of `dm` on `input` (`[c,h,w]` or
/// `[1,c,h,w]`) against `sim`.
///
/// Use a fresh simulator per inference if you want per-inference latency;
/// reusing one accumulates time and statistics across calls.
///
/// # Errors
///
/// Propagates simulator nontermination, reports
/// [`EngineError::PowerLostInContinuousMode`] when continuous mode browns
/// out, and [`EngineError::NoProgress`] when a job cannot commit.
pub fn infer(
    dm: &DeployedModel,
    input: &Tensor,
    sim: &mut DeviceSim,
    mode: ExecMode,
) -> Result<InferenceOutcome, EngineError> {
    let mut eng = Engine::new(dm, input, sim, mode);
    loop {
        if eng.step(sim)? == Step::Done {
            return Ok(eng.outcome(sim));
        }
    }
}

impl GemmCursor {
    /// Builds the cursor for a GEMM op with its input packed, or `None`
    /// when the op has no work (no spatial positions or a fully pruned-away
    /// weight matrix with no row blocks).
    fn begin(
        dm: &DeployedModel,
        op_idx: usize,
        op: LayerOp,
        bufs: &[Vec<i16>],
    ) -> Option<GemmCursor> {
        let dl = &dm.layers[op.layer_id];
        let plan = &dl.plan;
        if plan.n_spatial == 0 || plan.row_blocks() == 0 {
            return None;
        }
        let in_fmt = dm.buf_fmts[op.src];
        let out_fmt = dm.buf_fmts[op.dst];
        let (in_frac, w_frac) = (in_fmt.frac_bits(), dl.bsr.format().frac_bits());
        let bias_shift = (in_frac + w_frac - dl.bias_fmt.frac_bits()) as u32;
        let src = &bufs[op.src];
        let col = match dm.info.prunables[op.layer_id].conv_shape() {
            Some(s) => {
                let mut col = vec![0i16; s.col_len()];
                im2col_rows(&src[..s.in_len()], &s, &mut col);
                col
            }
            None => src[..plan.k].to_vec(),
        };
        Some(GemmCursor {
            op_idx,
            op,
            bias_shift,
            in_frac,
            w_frac,
            out_fmt,
            col,
            strip_start: 0,
            s_len: plan.tile.strip.min(plan.n_spatial),
            rb: 0,
            tile: TileCursor::enter(),
        })
    }
}

/// Advances one GEMM phase: tile entry, one weight chunk, or the write-back.
fn gemm_phase(
    dm: &DeployedModel,
    mode: ExecMode,
    bufs: &mut [Vec<i16>],
    counters: &mut Counters,
    gc: &mut GemmCursor,
    sim: &mut DeviceSim,
) -> Result<GemmAdvance, EngineError> {
    let dl = &dm.layers[gc.op.layer_id];
    let plan = &dl.plan;
    let (br, bc) = (plan.tile.br, plan.tile.bc);
    let rows = plan.rows_in_block(gc.rb);
    let s_len = gc.s_len;

    match gc.tile.phase {
        TilePhase::Enter => {
            let (rb, strip_start) = (gc.rb, gc.strip_start);
            sim.emit_scope(|| TraceEvent::TileStart {
                t: sim.now(),
                rb: rb as u32,
                strip: strip_start as u32,
            });
            sim.run_read(2 * rows)?; // bias fetch
            gc.tile.phase = TilePhase::Chunk;
            gc.tile.chunk_idx = 0;
            Ok(GemmAdvance::NO_COMMIT)
        }
        TilePhase::Chunk => {
            let Some((_, cb)) = dl.bsr.row_block(gc.rb, gc.tile.chunk_idx) else {
                gc.tile.phase = TilePhase::WriteBack;
                return Ok(GemmAdvance::NO_COMMIT);
            };
            let cols = bc.min(plan.k - cb * bc);
            let read_bytes = 2 * br * bc + 4 + 2 * cols * s_len;
            let macs = rows * bc * s_len;
            match mode {
                ExecMode::Intermittent => {
                    let cost = JobCost {
                        lea_macs: macs,
                        preserve_bytes: 4 * rows * s_len + FOOTPRINT_BYTES,
                        cpu_cycles: rows + 8,
                    };
                    let retries = &mut counters.retries;
                    commit_job(sim, read_bytes, cost, dl.recovery_bytes(), dl.layer_id, retries)?;
                    counters.partials += (rows * s_len) as u64;
                }
                ExecMode::TileAtomic | ExecMode::Continuous => {
                    sim.run_read(read_bytes)?;
                    let cost = JobCost { lea_macs: macs, preserve_bytes: 0, cpu_cycles: rows + 8 };
                    match sim.run_job(cost)? {
                        Commit::Committed => {}
                        Commit::PowerFailed if mode == ExecMode::Continuous => {
                            return Err(EngineError::PowerLostInContinuousMode);
                        }
                        Commit::PowerFailed => return restart_tile(dl, gc, counters, sim),
                    }
                }
            }
            counters.jobs += 1;
            // the job's arithmetic runs with its tile's, at the write-back
            gc.tile.chunk_idx += 1;
            Ok(GemmAdvance { committed: true, op_done: false })
        }
        TilePhase::WriteBack => {
            let out_bytes = 2 * rows * s_len;
            let cost = JobCost {
                lea_macs: 0,
                preserve_bytes: out_bytes + FOOTPRINT_BYTES,
                cpu_cycles: 2 * rows * s_len,
            };
            let committed = match mode {
                ExecMode::Intermittent => {
                    let retries = &mut counters.retries;
                    commit_job(sim, 0, cost, dl.recovery_bytes(), dl.layer_id, retries)?;
                    true
                }
                ExecMode::TileAtomic => match sim.run_job(cost)? {
                    Commit::Committed => true,
                    Commit::PowerFailed => return restart_tile(dl, gc, counters, sim),
                },
                ExecMode::Continuous => {
                    sim.run_cpu(2 * rows * s_len)?;
                    sim.run_write(out_bytes)?;
                    false
                }
            };
            counters.jobs += committed as u64;
            let (rb, strip_start) = (gc.rb, gc.strip_start);
            sim.emit_scope(|| TraceEvent::TileCommit {
                t: sim.now(),
                rb: rb as u32,
                strip: strip_start as u32,
            });
            // The tile's arithmetic runs once its write-back has committed:
            // a restart or an error returned above before any of it, and
            // integer sums are exact, so one kernel call over the block
            // row gives the bits the jobs would have accumulated one by one.
            tile_acc(
                dl,
                gc.bias_shift,
                &gc.col,
                gc.rb,
                gc.strip_start,
                s_len,
                &mut gc.tile.scratch,
            );
            // requantize + ReLU each output row into its contiguous run of
            // the destination: `[dst_c_off + row][strip_start..][..s_len]`
            let out_frac = gc.out_fmt.frac_bits();
            let dst = bufs[gc.op.dst].as_mut_slice();
            for (r, accs) in gc.tile.scratch.chunks_exact(s_len).enumerate() {
                let start = (gc.op.dst_c_off + gc.rb * br + r) * plan.n_spatial + gc.strip_start;
                let out = &mut dst[start..start + s_len];
                q15_requantize_relu(accs, out, gc.in_frac, gc.w_frac, out_frac, gc.op.relu);
            }
            // advance: next row block, else next strip, else op done
            gc.rb += 1;
            let op_done = if gc.rb < plan.row_blocks() {
                gc.tile.reenter(0);
                false
            } else {
                gc.strip_start += gc.s_len;
                if gc.strip_start >= plan.n_spatial {
                    true
                } else {
                    gc.s_len = plan.tile.strip.min(plan.n_spatial - gc.strip_start);
                    gc.rb = 0;
                    gc.tile.reenter(0);
                    false
                }
            };
            Ok(GemmAdvance { committed, op_done })
        }
    }
}

/// Task-atomic restart after a power failure: the volatile accumulators
/// are gone, so re-read the loop indices and redo the whole tile.
fn restart_tile(
    dl: &DeployedLayer,
    gc: &mut GemmCursor,
    counters: &mut Counters,
    sim: &mut DeviceSim,
) -> Result<GemmAdvance, EngineError> {
    sim.recover(16)?;
    counters.retries += 1;
    let retries = gc.tile.retries + 1;
    if retries > MAX_RETRIES_PER_JOB {
        let span = dl.bsr.row_nnz(gc.rb) as u64 + 1;
        return Err(EngineError::NoProgress { layer: dl.layer_id, tile_jobs: span });
    }
    gc.tile.reenter(retries);
    Ok(GemmAdvance::NO_COMMIT)
}

/// Human-readable label for one graph operation, used in layer scopes.
fn op_label(op: &GraphOp) -> String {
    match op {
        GraphOp::Conv { layer_id, .. } => format!("conv{layer_id}"),
        GraphOp::Fc { layer_id, .. } => format!("fc{layer_id}"),
        GraphOp::MaxPool { .. } => "maxpool".to_string(),
        GraphOp::GlobalAvgPool { .. } => "gap".to_string(),
        GraphOp::Flatten { .. } => "flatten".to_string(),
    }
}

/// One output tile's accumulators: the bias of block row `rb` preloaded at
/// accumulator scale (`<< bias_shift`), plus every stored block of the row
/// over positions `[strip_start, strip_start + s_len)` of the op's packed
/// input `col`, in one [`q15_block_acc`] call. `acc` ends as `[rows][s_len]`.
fn tile_acc(
    dl: &DeployedLayer,
    bias_shift: u32,
    col: &[i16],
    rb: usize,
    strip_start: usize,
    s_len: usize,
    acc: &mut Vec<i64>,
) {
    let plan = &dl.plan;
    let (br, rows) = (plan.tile.br, plan.rows_in_block(rb));
    acc.clear();
    for &b in &dl.bias[rb * br..rb * br + rows] {
        acc.extend(std::iter::repeat_n((b as i64) << bias_shift, s_len));
    }
    let (w, segs) = (dl.bsr.blocks(), dl.bsr.row_segments(rb));
    q15_block_acc(w, plan.tile.bc, segs, &col[strip_start..], plan.n_spatial, acc, rows, s_len);
}

/// Commits one job-granular accelerator job: issues its `read_bytes` input
/// fetch and the job, and after each power failure recovers
/// `recovery_bytes` of progress state, counts one in `retries`, and tries
/// again. The intermittent engine and the fleet's workload replay commit
/// every job here.
///
/// # Errors
///
/// [`EngineError::NoProgress`] for `layer` once one job has failed more
/// than `MAX_RETRIES_PER_JOB` times; simulator errors propagate.
#[inline]
pub fn commit_job(
    sim: &mut DeviceSim,
    read_bytes: usize,
    cost: JobCost,
    recovery_bytes: usize,
    layer: usize,
    retries: &mut u64,
) -> Result<(), EngineError> {
    let mut failed = 0u32;
    loop {
        sim.run_read(read_bytes)?;
        match sim.run_job(cost)? {
            Commit::Committed => return Ok(()),
            Commit::PowerFailed => {
                sim.recover(recovery_bytes)?;
                *retries += 1;
                failed += 1;
                if failed > MAX_RETRIES_PER_JOB {
                    // job-granular commit: the atomic span is a single job
                    return Err(EngineError::NoProgress { layer, tile_jobs: 1 });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::deploy;
    use iprune_device::PowerStrength;
    use iprune_models::graphref::run_graph_logits;
    use iprune_models::zoo::App;

    fn har_deployed() -> (DeployedModel, iprune_datasets::Dataset) {
        let mut model = App::Har.build();
        let ds = App::Har.dataset(12, 42);
        let dm = deploy(&mut model, &ds, 4);
        (dm, ds)
    }

    #[test]
    fn quantized_matches_float_reference() {
        let mut model = App::Har.build();
        let ds = App::Har.dataset(6, 42);
        let dm = deploy(&mut model, &ds, 4);
        let weights = model.extract_weights();
        for i in 0..6 {
            let x = ds.sample(i);
            let float_logits = run_graph_logits(&model.info, &weights, &x);
            let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
            let out = infer(&dm, &x, &mut sim, ExecMode::Continuous).unwrap();
            for (q, f) in out.logits.iter().zip(float_logits.iter()) {
                assert!((q - f).abs() < 0.05, "sample {i}: quantized {q} vs float {f}");
            }
        }
    }

    #[test]
    fn intermittent_equals_continuous_bitwise() {
        let (dm, ds) = har_deployed();
        for i in 0..4 {
            let x = ds.sample(i);
            let mut sim_c = DeviceSim::new(PowerStrength::Continuous, 0);
            let cont = infer(&dm, &x, &mut sim_c, ExecMode::Continuous).unwrap();
            for (strength, seed) in [
                (PowerStrength::Continuous, 0),
                (PowerStrength::Strong, 3),
                (PowerStrength::Weak, 7),
            ] {
                let mut sim_i = DeviceSim::new(strength, seed);
                let inter = infer(&dm, &x, &mut sim_i, ExecMode::Intermittent).unwrap();
                assert_eq!(inter.logits, cont.logits, "sample {i} under {strength:?}");
            }
        }
    }

    #[test]
    fn intermittent_preserves_analytic_acc_outputs() {
        let (dm, ds) = har_deployed();
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        let out = infer(&dm, &ds.sample(0), &mut sim, ExecMode::Intermittent).unwrap();
        assert_eq!(out.preserved_partials, dm.total_acc_outputs() as u64);
    }

    #[test]
    fn weak_power_causes_power_cycles_and_higher_latency() {
        let (dm, ds) = har_deployed();
        let x = ds.sample(0);
        let mut sim_c = DeviceSim::new(PowerStrength::Continuous, 0);
        let cont = infer(&dm, &x, &mut sim_c, ExecMode::Intermittent).unwrap();
        let mut sim_w = DeviceSim::new(PowerStrength::Weak, 1);
        let weak = infer(&dm, &x, &mut sim_w, ExecMode::Intermittent).unwrap();
        assert_eq!(cont.power_cycles, 0);
        assert!(weak.power_cycles > 0, "weak power should brown out");
        assert!(weak.latency_s > cont.latency_s);
        assert_eq!(weak.logits, cont.logits, "recovery must not corrupt outputs");
    }

    #[test]
    fn intermittent_writes_dominate_latency() {
        let (dm, ds) = har_deployed();
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        let out = infer(&dm, &ds.sample(0), &mut sim, ExecMode::Intermittent).unwrap();
        assert!(
            out.stats.write_share() > 0.4,
            "NVM writes should dominate intermittent inference, got {:.2}",
            out.stats.write_share()
        );
        let mut sim_c = DeviceSim::new(PowerStrength::Continuous, 0);
        let cont = infer(&dm, &ds.sample(0), &mut sim_c, ExecMode::Continuous).unwrap();
        assert!(
            cont.stats.write_share() < out.stats.write_share(),
            "continuous mode should write far less"
        );
        assert!(cont.latency_s < out.latency_s);
    }

    #[test]
    fn tile_atomic_matches_intermittent_outputs() {
        let (dm, ds) = har_deployed();
        let x = ds.sample(2);
        let mut sim_i = DeviceSim::new(PowerStrength::Continuous, 0);
        let reference = infer(&dm, &x, &mut sim_i, ExecMode::Intermittent).unwrap();
        for (strength, seed) in [(PowerStrength::Strong, 4), (PowerStrength::Weak, 9)] {
            let mut sim_t = DeviceSim::new(strength, seed);
            let out = infer(&dm, &x, &mut sim_t, ExecMode::TileAtomic).unwrap();
            assert_eq!(out.logits, reference.logits, "{strength:?}");
        }
    }

    #[test]
    fn tile_atomic_writes_less_but_wastes_more() {
        let (dm, ds) = har_deployed();
        let x = ds.sample(0);
        let mut sim_job = DeviceSim::new(PowerStrength::Weak, 6);
        let job = infer(&dm, &x, &mut sim_job, ExecMode::Intermittent).unwrap();
        let mut sim_tile = DeviceSim::new(PowerStrength::Weak, 6);
        let tile = infer(&dm, &x, &mut sim_tile, ExecMode::TileAtomic).unwrap();
        assert!(
            tile.stats.nvm_write_bytes < job.stats.nvm_write_bytes / 2,
            "tile-atomic should write far less: {} vs {}",
            tile.stats.nvm_write_bytes,
            job.stats.nvm_write_bytes
        );
        // the coarser progress indicator re-executes whole tiles: under
        // harvested power, more jobs run than a failure-free execution needs
        let mut sim_ref = DeviceSim::new(PowerStrength::Continuous, 0);
        let nominal = infer(&dm, &x, &mut sim_ref, ExecMode::TileAtomic).unwrap();
        assert!(
            tile.jobs >= nominal.jobs,
            "re-execution can only add jobs: {} vs nominal {}",
            tile.jobs,
            nominal.jobs
        );
        assert_eq!(tile.preserved_partials, 0);
    }

    #[test]
    fn fully_pruned_rows_still_produce_bias_outputs() {
        // Zero every weight of HAR's conv2: the engine must still write the
        // (bias-only) outputs of every row block, in all modes, identically.
        use iprune_tensor::layer::Layer;
        let mut model = App::Har.build();
        model.visit_params(&mut |p| {
            if p.name == "conv1.w" {
                p.value.fill_zero();
            }
        });
        let ds = App::Har.dataset(4, 42);
        let dm = deploy(&mut model, &ds, 2);
        // layer 1's BSR is empty
        assert_eq!(dm.layers[1].bsr.nnz_blocks(), 0);
        let x = ds.sample(0);
        let mut sim_c = DeviceSim::new(PowerStrength::Continuous, 0);
        let cont = infer(&dm, &x, &mut sim_c, ExecMode::Continuous).unwrap();
        let mut sim_i = DeviceSim::new(PowerStrength::Weak, 5);
        let inter = infer(&dm, &x, &mut sim_i, ExecMode::Intermittent).unwrap();
        assert_eq!(cont.logits, inter.logits);
        assert!(cont.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn traced_inference_has_layer_scopes_and_reconciles() {
        use iprune_obs::{drain_shared, Attribution, MemorySink, StatsTotals};
        let (dm, ds) = har_deployed();
        let mut sim = DeviceSim::new(PowerStrength::Weak, 3);
        let sink = MemorySink::shared();
        sim.set_trace_sink(sink.clone());
        let out = infer(&dm, &ds.sample(0), &mut sim, ExecMode::Intermittent).unwrap();
        out.stats.check_invariants().unwrap();
        let events = drain_shared(&sink);
        let starts = events.iter().filter(|e| matches!(e, TraceEvent::LayerStart { .. })).count();
        let ends = events.iter().filter(|e| matches!(e, TraceEvent::LayerEnd { .. })).count();
        assert_eq!(starts, dm.info.graph.len(), "one LayerStart per graph op");
        assert_eq!(ends, starts, "every layer scope closes");
        assert!(events.iter().any(|e| matches!(e, TraceEvent::TileCommit { .. })));
        assert!(out.power_cycles > 0, "weak power should brown out");
        let attr = Attribution::from_events(&events);
        if let Err(e) = attr.reconcile(&StatsTotals::from(&out.stats)) {
            panic!("trace does not reconcile with SimStats:\n{e:?}");
        }
        let labels: Vec<&str> = attr.rows().iter().map(|r| r.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("conv")), "labels: {labels:?}");
        assert!(labels.iter().any(|l| l.starts_with("fc")), "labels: {labels:?}");
    }

    #[test]
    fn tracing_does_not_change_inference_results() {
        use iprune_obs::MemorySink;
        let (dm, ds) = har_deployed();
        let x = ds.sample(1);
        let mut plain = DeviceSim::new(PowerStrength::Weak, 9);
        let a = infer(&dm, &x, &mut plain, ExecMode::Intermittent).unwrap();
        let mut traced = DeviceSim::new(PowerStrength::Weak, 9);
        traced.set_trace_sink(MemorySink::shared());
        let b = infer(&dm, &x, &mut traced, ExecMode::Intermittent).unwrap();
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.latency_s, b.latency_s);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn continuous_mode_under_harvested_power_fails() {
        let (dm, ds) = har_deployed();
        let mut sim = DeviceSim::new(PowerStrength::Weak, 0);
        let err = infer(&dm, &ds.sample(0), &mut sim, ExecMode::Continuous).unwrap_err();
        assert!(matches!(err, EngineError::PowerLostInContinuousMode), "{err}");
    }

    #[test]
    fn stepping_commits_exactly_one_job_per_step() {
        let (dm, ds) = har_deployed();
        let x = ds.sample(0);
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        let mut eng = Engine::new(&dm, &x, &sim, ExecMode::Intermittent);
        let mut steps = 0u64;
        loop {
            let before = eng.jobs_committed();
            match eng.step(&mut sim).unwrap() {
                Step::Committed => {
                    steps += 1;
                    assert_eq!(eng.jobs_committed(), before + 1, "one commit per step");
                }
                Step::Done => break,
            }
        }
        let out = eng.outcome(&sim);
        assert_eq!(steps, out.jobs);
        // the step-driven run matches the monolithic driver bit-for-bit
        let mut sim2 = DeviceSim::new(PowerStrength::Continuous, 0);
        let direct = infer(&dm, &x, &mut sim2, ExecMode::Intermittent).unwrap();
        assert_eq!(out.logits, direct.logits);
        assert_eq!(out.latency_s.to_bits(), direct.latency_s.to_bits());
        assert_eq!(out.stats, direct.stats);
    }

    #[test]
    fn cloned_engine_with_forked_sim_resumes_bit_identically() {
        let (dm, ds) = har_deployed();
        let x = ds.sample(1);
        let mut sim = DeviceSim::new(PowerStrength::Weak, 7);
        let mut eng = Engine::new(&dm, &x, &sim, ExecMode::Intermittent);
        // advance 100 commits, snapshot, then run both copies to completion
        for _ in 0..100 {
            assert_eq!(eng.step(&mut sim).unwrap(), Step::Committed);
        }
        let ckpt = sim.checkpoint();
        let mut fork_sim = sim.fork(&ckpt);
        let mut fork_eng = eng.clone();
        assert!(eng.state_matches(&fork_eng));
        while eng.step(&mut sim).unwrap() != Step::Done {}
        while fork_eng.step(&mut fork_sim).unwrap() != Step::Done {}
        let a = eng.outcome(&sim);
        let b = fork_eng.outcome(&fork_sim);
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!(a.stats, b.stats);
        assert!(eng.state_matches(&fork_eng));
    }

    /// Every tile's accumulators, computed once at its write-back over the
    /// whole block row, equal the former job-by-job sequence: the bias
    /// preload, then `q15_block_acc_scalar` over each stored block, in
    /// commit order, on the tile's strip gathered as `[k][s_len]`. Covers
    /// every zoo layer at its deploy plan, dense and block-pruned, so the
    /// short last strips and the fully-connected tiles are in.
    #[test]
    fn tile_accumulators_equal_the_job_by_job_sequence() {
        use iprune_tensor::qgemm::{q15_block_acc_scalar, Segment};
        let mut seed = 0x7113_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut tiles, mut pruned_blocks) = (0usize, 0usize);
        for app in App::all() {
            for keep_ppm in [1_000_000, 400_000] {
                let mut model = app.build();
                let masks = model.block_magnitude_masks(keep_ppm);
                model.set_masks(&masks);
                let dm = deploy(&mut model, &app.dataset(2, 11), 2);
                for dl in &dm.layers {
                    let (plan, bsr) = (&dl.plan, &dl.bsr);
                    let (n, bc) = (plan.n_spatial, plan.tile.bc);
                    pruned_blocks += plan.row_blocks() * plan.chunks() - bsr.nnz_blocks();
                    // activations over the full range, i16::MIN included
                    let col: Vec<i16> = (0..plan.k * n).map(|_| (next() >> 16) as i16).collect();
                    let mut tile = Vec::new();
                    for rb in 0..plan.row_blocks() {
                        let rows = plan.rows_in_block(rb);
                        let mut strip_start = 0;
                        while strip_start < n {
                            let s_len = plan.tile.strip.min(n - strip_start);
                            tile_acc(dl, 7, &col, rb, strip_start, s_len, &mut tile);
                            let strip: Vec<i16> = (0..plan.k)
                                .flat_map(|c| col[c * n + strip_start..][..s_len].iter().copied())
                                .collect();
                            let mut jobs: Vec<i64> = dl.bias[rb * plan.tile.br..][..rows]
                                .iter()
                                .flat_map(|&b| std::iter::repeat_n((b as i64) << 7, s_len))
                                .collect();
                            for (slot, cb) in bsr.row_blocks_iter(rb) {
                                let cols = bc.min(plan.k - cb * bc);
                                let x = &strip[cb * bc * s_len..(cb * bc + cols) * s_len];
                                let seg = [Segment { w: 0, x: 0, cols }];
                                let w = bsr.block(slot);
                                q15_block_acc_scalar(w, bc, &seg, x, s_len, &mut jobs, rows, s_len);
                            }
                            let what = format!(
                                "{} layer {} rb {rb} strip {strip_start}",
                                app.name(),
                                dl.layer_id
                            );
                            assert_eq!(tile, jobs, "{what} keep {keep_ppm} ppm");
                            strip_start += s_len;
                            tiles += 1;
                        }
                    }
                }
            }
        }
        assert!(tiles > 0 && pruned_blocks > 0, "{tiles} tiles, {pruned_blocks} pruned blocks");
    }

    #[test]
    fn tile_boundaries_are_visible_at_step_granularity() {
        let (dm, ds) = har_deployed();
        let x = ds.sample(0);
        let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
        let mut eng = Engine::new(&dm, &x, &sim, ExecMode::Intermittent);
        let mut boundaries = 0u64;
        while eng.step(&mut sim).unwrap() == Step::Committed {
            if eng.at_tile_boundary() {
                boundaries += 1;
            }
        }
        assert!(eng.at_tile_boundary(), "done is a boundary");
        assert!(boundaries > 0, "write-backs must surface as boundaries");
        assert!(
            boundaries < eng.jobs_committed(),
            "chunk commits must not be boundaries: {} vs {} jobs",
            boundaries,
            eng.jobs_committed()
        );
    }
}
