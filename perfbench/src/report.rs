//! What one workload run hands back to `main`: metrics, output checks and
//! a checksum of the deterministic outputs.

use iprune_repro::obs::metrics;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as printed (see `COVERAGE.md`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// One exact output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Operations the check covered.
    pub ops: u64,
    /// Operations whose output differed.
    pub failed: u64,
    /// The first difference found, for the log.
    pub note: String,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Median set-up time over the run's set-ups (seconds).
    pub setup_s: f64,
    /// Host seconds of each timed unit of untraced work.
    pub unit_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Named results of the workload (deterministic ones included).
    pub detail: Vec<Metric>,
    /// Per-layer metrics of the traced unit (empty without `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Exact output checks.
    pub checks: Vec<Check>,
    /// FNV-1a over the deterministic outputs.
    pub checksum: u64,
}

impl Report {
    /// Adds a named result.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric { name: name.to_string(), value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name: name.to_string(), value, unit });
    }

    /// Records a check over `ops` operations of which `failed` differed.
    pub fn check(&mut self, name: &str, ops: u64, failed: u64, note: String) {
        self.checks.push(Check { name: name.to_string(), ops, failed, note });
    }
}

/// Tallies one check: counts operations and keeps the first mismatch note.
#[derive(Default)]
pub struct Tally {
    ops: u64,
    failed: u64,
    note: String,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed and keeps
    /// `note()` if it is the first failure.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            if self.failed == 0 {
                self.note = note();
            }
            self.failed += 1;
        }
    }

    /// Moves the tally into `report` under `name`.
    pub fn finish(self, report: &mut Report, name: &str) {
        report.check(name, self.ops, self.failed, self.note);
    }
}

/// 64-bit FNV-1a, fed incrementally.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds float logits by their bits.
    pub fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent input seeds from the run seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z =
        (seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Runs `setup` `times` times and returns the median wall time in seconds
/// with the last result.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t0 = Instant::now();
        last = Some(setup());
        walls.push(t0.elapsed().as_secs_f64());
    }
    (median(&walls), last.expect("at least one set-up"))
}

/// The timed units of one run.
#[derive(Default)]
pub struct Units {
    /// Wall seconds of each untraced unit.
    pub untraced_s: Vec<f64>,
    /// Wall seconds of each traced unit.
    pub traced_s: Vec<f64>,
    /// Counter deltas over the last traced unit.
    pub counters: Counters,
}

impl Units {
    /// Units run, traced or not.
    pub fn count(&self) -> usize {
        self.untraced_s.len() + self.traced_s.len()
    }

    /// Tracing overhead: median traced unit time over the median untraced
    /// one, minus one.
    pub fn overhead(&self) -> f64 {
        median(&self.traced_s) / median(&self.untraced_s) - 1.0
    }
}

/// Runs timed units while the next one is expected to end within
/// `o.seconds`. A traced run alternates untraced and traced units, at
/// least one of each, and wraps each traced unit in a `<workload>.unit`
/// span, the parent of the spans inside it; `unit(i, traced)` does unit
/// `i`. Every unit's output
/// must hash (by `digest`, outside the timed part) like the first one's,
/// which is returned; the check is added to `report` as `repeat_check`.
pub fn run_units<T>(
    o: &crate::Opts,
    tracer: &crate::trace::Tracer,
    report: &mut Report,
    repeat_check: &str,
    mut unit: impl FnMut(usize, bool) -> T,
    digest: impl Fn(&mut T) -> u64,
) -> (Units, T, u64) {
    let start = Instant::now();
    let min_units = if o.trace { 2 } else { 1 };
    let mut units = Units::default();
    let mut first: Option<(T, u64)> = None;
    let mut repeat = Tally::default();
    loop {
        let i = units.count();
        let longest = units.untraced_s.iter().chain(&units.traced_s).copied().fold(0.0, f64::max);
        if i >= min_units && start.elapsed().as_secs_f64() + longest > o.seconds {
            break;
        }
        let traced = o.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_run(i as u32);
        let c0 = Counters::read();
        let t0 = Instant::now();
        let mut out = tracer.span(&format!("{}.unit", o.workload), || unit(i, traced));
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            units.traced_s.push(wall);
            units.counters = Counters::read().since(&c0);
        } else {
            units.untraced_s.push(wall);
        }
        tracer.set_enabled(false);
        let sum = digest(&mut out);
        match &first {
            None => first = Some((out, sum)),
            Some((_, want)) => {
                repeat.op(sum == *want, || format!("unit {i}: {sum:016x} != {want:016x}"))
            }
        }
    }
    repeat.finish(report, repeat_check);
    let (out, sum) = first.expect("at least one unit runs");
    (units, out, sum)
}

/// Process-wide metric readings the per-layer metrics are deltas of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Dense f32 GEMM multiply-adds (`gemm.macs` histogram sum).
    pub dense_macs: u64,
    /// Alive multiply-adds of block-sparse GEMMs (`gemm.sparse_macs`).
    pub sparse_macs: u64,
    /// Multiply-adds the sparse kernels skipped on dead blocks.
    pub skipped_macs: u64,
    /// Parallel regions that fanned out.
    pub par_parallel: u64,
    /// Parallel regions that ran serially.
    pub par_serial: u64,
    /// Sensitivity-probe evaluations.
    pub probes: u64,
    /// Serving-registry variant builds.
    pub registry_loads: u64,
    /// Weight buffers cloned by inference paths.
    pub weight_clones: u64,
}

impl Counters {
    /// Reads the registry now.
    pub fn read() -> Self {
        Counters {
            dense_macs: metrics::histogram("gemm.macs").sum(),
            sparse_macs: metrics::histogram("gemm.sparse_macs").sum(),
            skipped_macs: metrics::counter("gemm.sparse_skipped_macs").get(),
            par_parallel: metrics::counter("par.regions_parallel").get(),
            par_serial: metrics::counter("par.regions_serial").get(),
            probes: metrics::counter("sensitivity.probes").get(),
            registry_loads: metrics::counter("serve.registry.loads").get(),
            weight_clones: metrics::counter("tensor.weight_clones").get(),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            dense_macs: self.dense_macs - earlier.dense_macs,
            sparse_macs: self.sparse_macs - earlier.sparse_macs,
            skipped_macs: self.skipped_macs - earlier.skipped_macs,
            par_parallel: self.par_parallel - earlier.par_parallel,
            par_serial: self.par_serial - earlier.par_serial,
            probes: self.probes - earlier.probes,
            registry_loads: self.registry_loads - earlier.registry_loads,
            weight_clones: self.weight_clones - earlier.weight_clones,
        }
    }

    /// Adds the `tensor.*` counter metrics every workload reports.
    pub fn report_tensor(&self, report: &mut Report) {
        let computed = self.dense_macs + self.sparse_macs;
        report.layer("tensor.gemm_gmacs", computed as f64 * 1e-9, "GMAC");
        report.layer(
            "tensor.sparse_skip_share",
            share(self.skipped_macs, computed + self.skipped_macs),
            "fraction",
        );
        report.layer(
            "tensor.par_parallel_share",
            share(self.par_parallel, self.par_parallel + self.par_serial),
            "fraction",
        );
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
