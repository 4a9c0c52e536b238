//! The repository benchmark: four workloads through the library's public
//! API, with exact output checks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <prune-har|fleet|serve|quant-eval> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every line but the last is for people:
//! provenance, the workload's named results, one line per output check,
//! the checksum of the deterministic outputs, the timed units and, when
//! traced, the span table. The last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced (`--trace 0`),
//! the per-layer metrics traced (`--trace 1`). The exit code is 0 only when
//! every output check passed. `COVERAGE.md` maps each metric to its layer.
//!
//! `--workers <n>` (default 1, at most the available parallelism) pins the
//! worker pool; `--corrupt` flips one output per workload after it is
//! computed, so the matching check must fail.

mod fleet;
mod prune_har;
mod quant_eval;
mod report;
mod serve;
mod trace;

use iprune_repro::tensor::{par, simd};
use report::{median, Report};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Worker-pool size.
    pub workers: usize,
    /// Corrupt one output per workload (check self-test).
    pub corrupt: bool,
}

const WORKLOADS: [&str; 4] = ["prune-har", "fleet", "serve", "quant-eval"];

/// Every per-layer metric with its unit, in output order. A workload that
/// never enters a layer reports 0 for that layer's metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.pipeline_iprune_s", "s"),
    ("core.pipeline_eprune_s", "s"),
    ("core.iterations", "count"),
    ("core.struck_share", "fraction"),
    ("core.sensitivity_probes", "count"),
    ("core.iprune_vs_eprune", "x"),
    ("core.iprune_accuracy", "fraction"),
    ("core.sensitivity_s", "s"),
    ("core.sa_s", "s"),
    ("models.finetune_s", "s"),
    ("models.evaluate_s", "s"),
    ("tensor.gemm_gmacs", "GMAC"),
    ("tensor.sparse_skip_share", "fraction"),
    ("tensor.par_parallel_share", "fraction"),
    ("hawaii.deploy_s", "s"),
    ("hawaii.jobs", "count"),
    ("hawaii.retries", "count"),
    ("hawaii.preserved_partials", "count"),
    ("device.power_cycles", "count"),
    ("hawaii.iprune_weak_latency_s", "sim_s"),
    ("fleet.campaign_s", "s"),
    ("fleet.sample_us", "us"),
    ("fleet.replay_har_us", "us"),
    ("fleet.replay_cks_us", "us"),
    ("fleet.agg_us", "us"),
    ("device.sim_s_per_host_s", "sim_s/s"),
    ("device.activities_per_s", "1/s"),
    ("fleet.retry_share", "fraction"),
    ("fleet.livelocks", "count"),
    ("fleet.nonterminations", "count"),
    ("serve.admitted_share", "fraction"),
    ("serve.degraded_share", "fraction"),
    ("serve.batch_size_mean", "requests"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.batch_ms_p99", "ms"),
    ("serve.exec_share", "fraction"),
    ("serve.round_ms_p99", "ms"),
    ("serve.registry_loads", "count"),
    ("tensor.weight_clones", "count"),
    ("qeval.q15.sqn_us", "us"),
    ("qeval.q15.har_us", "us"),
    ("qeval.q15.cks_us", "us"),
    ("qeval.q8.sqn_us", "us"),
    ("qeval.q8.har_us", "us"),
    ("qeval.q8.cks_us", "us"),
    ("hawaii.infer.sqn_us", "us"),
    ("hawaii.infer.har_us", "us"),
    ("hawaii.infer.cks_us", "us"),
    ("qeval.q15.gemm_share", "fraction"),
    ("qeval.q15.im2col_share", "fraction"),
    ("qeval.q15.pool_share", "fraction"),
    ("qeval.q15.other_share", "fraction"),
    ("qeval.q8.gemm_share", "fraction"),
    ("qeval.q8.im2col_share", "fraction"),
    ("qeval.q8.pool_share", "fraction"),
    ("qeval.q8.other_share", "fraction"),
    ("tensor.q15_gemm_gmacs", "GMAC/s"),
    ("tensor.q8_gemm_gmacs", "GMAC/s"),
    ("hawaii.us_per_job", "us"),
    ("trace.overhead_share", "fraction"),
];

fn usage() -> String {
    format!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--workers <n>] [--corrupt]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: 1,
        corrupt: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--corrupt" {
            o.corrupt = true;
            i += 1;
            continue;
        }
        let val = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = val.parse().map_err(bad)?,
            "--seconds" => o.seconds = val.parse::<u32>().map_err(bad)? as f64,
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {val:?} for --trace")),
                }
            }
            "--workers" => o.workers = val.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    if o.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    let cores = available_parallelism();
    if o.workers == 0 || o.workers > cores {
        return Err(format!("--workers must be between 1 and {cores}"));
    }
    Ok(o)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision read from `.git`, or `unknown` outside a
/// git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev;
    }
    let packed = read(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the traced run's spans as Chrome trace JSON under `.bench_out/`
/// and prints the span table (count, total and self time per name).
pub fn write_trace(o: &Opts, spans: &[trace::Span]) {
    for (name, (n, total, own)) in trace::summarize(spans) {
        println!(
            "span {name:<28} n={n:<5} total_s={:.6} self_s={:.6}",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-s{}.json", o.workload, o.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_chrome_json(spans)))
    {
        Ok(()) => println!("trace {} ({} spans)", path.display(), spans.len()),
        Err(e) => println!("trace not written: {e}"),
    }
}

/// Appends one metric; a value that is not finite is written as 0 and
/// clears `finite`, which fails the run.
fn json_metric(out: &mut String, finite: &mut bool, name: &str, value: f64, unit: &str) {
    *finite &= value.is_finite();
    let value = if value.is_finite() { value } else { 0.0 };
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Each IPRUNE_* variable selects a different program (evaluation
    // numerics, kernel dispatch, sparse dispatch, thread and core counts,
    // checkpoint cache), so a run under any of them measures something else.
    let set: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("IPRUNE_")).collect();
    if !set.is_empty() {
        eprintln!("perfbench: unset {} first: they change what the program runs", set.join(", "));
        return ExitCode::from(2);
    }
    par::set_threads(o.workers);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} rev={} available_parallelism={} \
         workers={} simd={} thread_scaling=unmeasured",
        o.workload,
        o.seed,
        o.seconds,
        o.trace as u8,
        git_revision(),
        available_parallelism(),
        o.workers,
        simd::dispatch_label()
    );

    let r: Report = match o.workload.as_str() {
        "prune-har" => prune_har::run(&o),
        "fleet" => fleet::run(&o),
        "serve" => serve::run(&o),
        _ => quant_eval::run(&o),
    };

    for m in &r.detail {
        println!("result {:<28} {} {}", m.name, m.value, m.unit);
    }
    let mut failed = 0u64;
    for c in &r.checks {
        let status = if c.failed == 0 { "pass" } else { "FAIL" };
        let note: String = c.note.chars().take(300).collect();
        println!("check {:<40} {status} {}/{} {note}", c.name, c.failed, c.ops);
        failed += c.failed;
    }
    println!("checksum {:016x}", r.checksum);

    println!(
        "units n={} min_s={} median_s={} max_s={}",
        r.unit_s.len(),
        report::quantile(&r.unit_s, 0.0),
        median(&r.unit_s),
        report::quantile(&r.unit_s, 1.0)
    );

    let mut finite = true;
    let mut metrics = String::from("{");
    if o.trace {
        for m in &r.per_layer {
            assert!(
                PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "per-layer metric {} [{}] is not declared",
                m.name,
                m.unit
            );
        }
        for (name, unit) in PER_LAYER {
            let value = r.per_layer.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
            json_metric(&mut metrics, &mut finite, name, value, unit);
        }
    } else {
        json_metric(&mut metrics, &mut finite, "setup_s", r.setup_s, "s");
        json_metric(&mut metrics, &mut finite, "peak_rss_mb", peak_rss_mb(), "MB");
        json_metric(&mut metrics, &mut finite, "work_min_s", report::quantile(&r.unit_s, 0.0), "s");
    }
    metrics.push('}');
    let correct = failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        r.attempted
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
