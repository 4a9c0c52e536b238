//! Command-line front end for the iPrune reproduction.
//!
//! ```text
//! iprune-cli specs
//! iprune-cli characterize <SQN|HAR|CKS>
//! iprune-cli run <APP> [--power continuous|strong|weak] [--mode job|tile|continuous] [--train N] [--seed N]
//! iprune-cli prune <APP> [--method iprune|eprune|magnitude|oneshot] [--train N]
//! iprune-cli fleet <APP> [--devices N] [--shard-size N] [--seed N] [--json PATH]
//!            [--triage] [--top-k N] [--trace-dir DIR] [--triage-json PATH]
//! iprune-cli doctor [APP] [--devices N] [--seed N] [--top-k N] [--trace-dir DIR]
//! iprune-cli serve [APP] [--profile nominal|small-cap|big-cap|slow-fram]
//!            [--power continuous|strong|weak] [--requests N] [--seed N]
//!            [--max-batch N] [--q15] [--bench]
//! iprune-cli history record [--dir D] [--out FILE]
//! iprune-cli history gate [--dir D] [--history FILE] [--max-wall-growth PCT]
//! ```
//!
//! Every subcommand accepts `--threads N` to cap the host-side worker pool
//! (default: the machine's available parallelism). Results are
//! bit-identical at any thread count; the flag only trades wall-clock for
//! cores. The device simulator is always single-threaded.

use iprune_repro::device::{DeviceSim, PowerStrength};
use iprune_repro::fleet::{
    record_workload, run_triage, FleetCampaign, PopulationSpec, TriageConfig, TriageEntry,
};
use iprune_repro::hawaii::deploy::deploy;
use iprune_repro::hawaii::exec::{infer, ExecMode};
use iprune_repro::hawaii::plan::{dense_model_acc_outputs, diversity_label, diversity_ratio};
use iprune_repro::models::train::{evaluate, train_sgd};
use iprune_repro::models::zoo::App;
use iprune_repro::pruning::pipeline::{prune, PruneConfig};
use std::process::ExitCode;

fn parse_app(s: &str) -> Option<App> {
    match s.to_ascii_uppercase().as_str() {
        "SQN" => Some(App::Sqn),
        "HAR" => Some(App::Har),
        "CKS" => Some(App::Cks),
        _ => None,
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Fingerprints every `BENCH_*.json` in `dir`, in file-name order.
fn bench_entries(
    dir: &std::path::Path,
) -> Result<Vec<iprune_repro::obs::history::HistoryEntry>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|ent| ent.ok())
        .filter_map(|ent| ent.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    let mut entries = Vec::with_capacity(names.len());
    for n in &names {
        let text =
            std::fs::read_to_string(dir.join(n)).map_err(|e| format!("cannot read {n}: {e}"))?;
        let bench = n.trim_start_matches("BENCH_").trim_end_matches(".json").to_ascii_lowercase();
        entries.push(iprune_repro::obs::history::HistoryEntry::of(&bench, &text));
    }
    Ok(entries)
}

/// `serve`: load pruned variants into the registry and replay a seeded
/// request stream through the batched admission front end.
///
/// With an APP, serves one (app, profile, power) variant; with `--bench`
/// (and no APP) it replays a mixed workload over the full serving catalog
/// and cross-checks batched against sequential execution bit for bit —
/// the CI smoke entry point.
fn run_serve(args: &[String]) -> ExitCode {
    use iprune_repro::serve::{
        DeviceProfile, ExecMode as ServeMode, ModelRegistry, Request, ServeConfig, Server,
        VariantKey,
    };
    use std::sync::Arc;

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    let bench = has_flag(args, "--bench");
    let app = match args.get(1).filter(|s| !s.starts_with("--")) {
        Some(s) => match parse_app(s) {
            Some(app) => Some(app),
            None => return usage(),
        },
        None => None,
    };
    if app.is_none() && !bench {
        return usage();
    }
    let profile = match flag_value(args, "--profile").as_deref() {
        None | Some("nominal") => DeviceProfile::Nominal,
        Some("small-cap") => DeviceProfile::SmallCap,
        Some("big-cap") => DeviceProfile::BigCap,
        Some("slow-fram") => DeviceProfile::SlowFram,
        Some(other) => {
            eprintln!("unknown profile `{other}`");
            return usage();
        }
    };
    let power = match flag_value(args, "--power").as_deref() {
        None | Some("strong") => PowerStrength::Strong,
        Some("continuous") => PowerStrength::Continuous,
        Some("weak") => PowerStrength::Weak,
        Some(other) => {
            eprintln!("unknown power `{other}`");
            return usage();
        }
    };
    let n: usize = flag_value(args, "--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if bench { 64 } else { 32 });
    let seed: u64 = flag_value(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0x5E4F);
    let max_batch: usize =
        flag_value(args, "--max-batch").and_then(|v| v.parse().ok()).unwrap_or(16);
    if n == 0 || max_batch == 0 {
        eprintln!("--requests and --max-batch must be positive");
        return usage();
    }
    let q15 = has_flag(args, "--q15");

    let registry = Arc::new(ModelRegistry::default());
    let keys: Vec<VariantKey> = match app {
        Some(app) => vec![VariantKey::new(app, profile, power)],
        None => {
            let mut keys = Vec::new();
            for app in App::all() {
                keys.push(VariantKey::new(app, DeviceProfile::Nominal, PowerStrength::Strong));
                keys.push(VariantKey::new(app, DeviceProfile::Nominal, PowerStrength::Weak));
            }
            keys.push(VariantKey::new(App::Har, DeviceProfile::SmallCap, PowerStrength::Strong));
            keys
        }
    };
    // warm every degrade rung (and its Q15 twin when serving Q15) so
    // timings measure serving, not lazy builds
    for &key in &keys {
        let mut rung = Some(key);
        while let Some(k) = rung {
            let v = registry.get_or_load(k);
            if q15 {
                v.qmodel();
            }
            rung = k.degraded();
        }
    }
    for v in registry.loaded() {
        println!(
            "variant {:<28} keep {:>7} ppm  cost {:>8}/{:>8} MACs  sparse {}/{}",
            v.key.to_string(),
            v.key.keep_ppm(),
            v.plan.cost,
            v.plan.dense_macs,
            v.plan.sparse_layers(),
            v.plan.rows.len()
        );
    }

    let mut pools: std::collections::HashMap<&'static str, iprune_repro::datasets::Dataset> =
        Default::default();
    for &k in &keys {
        pools
            .entry(k.app.name())
            .or_insert_with(|| k.app.dataset(64, seed ^ k.app.name().len() as u64));
    }
    let requests: Vec<Request> = (0..n)
        .map(|i| {
            let h = splitmix(seed ^ i as u64);
            let key = keys[(h % keys.len() as u64) as usize];
            let input = pools[key.app.name()].sample((splitmix(h) % 64) as usize);
            // 50%..650% of the variant's plan cost: tight deadlines reject
            // or degrade, generous ones absorb a round's queue backlog
            let pct = 50 + splitmix(h ^ 0xB0D6E7) % 600;
            let budget = registry.get_or_load(key).plan.cost * pct / 100;
            Request { id: i as u64, key, input, budget }
        })
        .collect();

    let server =
        Server::new(Arc::clone(&registry), ServeConfig { max_batch, q15, ..Default::default() });
    let t0 = std::time::Instant::now();
    let out = server.run(&requests);
    let wall = t0.elapsed();
    let s = &out.stats;
    println!(
        "served {} requests in {:.1} ms ({:.0} req/s): {} admitted / {} degraded / {} rejected over {} batches",
        n,
        wall.as_secs_f64() * 1e3,
        n as f64 / wall.as_secs_f64(),
        s.admitted,
        s.degraded,
        s.rejected,
        s.batches
    );
    println!("  mean batch {}  peak queue {}", s.batch_size.mean(), s.queue_depth.max);

    if bench {
        use iprune_repro::serve::report::logits_checksum;
        server.reset_history();
        let t1 = std::time::Instant::now();
        let seq = server.run_mode(&requests, ServeMode::Sequential);
        let seq_wall = t1.elapsed();
        println!(
            "sequential replay: {:.1} ms ({:.0} req/s)",
            seq_wall.as_secs_f64() * 1e3,
            n as f64 / seq_wall.as_secs_f64()
        );
        let batched = logits_checksum(out.completions.iter().map(|c| c.logits.as_slice()));
        let sequential = logits_checksum(seq.completions.iter().map(|c| c.logits.as_slice()));
        if batched != sequential
            || (s.admitted, s.degraded, s.rejected)
                != (seq.stats.admitted, seq.stats.degraded, seq.stats.rejected)
        {
            eprintln!("serve --bench: batched and sequential execution diverged");
            return ExitCode::FAILURE;
        }
        println!("batched == sequential: logits {batched:016x}, admission identical");
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!("  iprune-cli specs");
    eprintln!("  iprune-cli characterize <SQN|HAR|CKS>");
    eprintln!("  iprune-cli run <APP> [--power continuous|strong|weak] [--mode job|tile|continuous] [--train N] [--seed N]");
    eprintln!("  iprune-cli prune <APP> [--method iprune|eprune|magnitude|oneshot] [--train N]");
    eprintln!("  iprune-cli fleet <APP> [--devices N] [--shard-size N] [--seed N] [--json PATH]");
    eprintln!("             [--triage] [--top-k N] [--trace-dir DIR] [--triage-json PATH]");
    eprintln!("  iprune-cli doctor [APP] [--devices N] [--seed N] [--top-k N] [--trace-dir DIR]");
    eprintln!("  iprune-cli serve [APP] [--profile nominal|small-cap|big-cap|slow-fram]");
    eprintln!("             [--power continuous|strong|weak] [--requests N] [--seed N]");
    eprintln!("             [--max-batch N] [--q15] [--bench]");
    eprintln!("  iprune-cli history record [--dir D] [--out FILE]");
    eprintln!("  iprune-cli history gate [--dir D] [--history FILE] [--max-wall-growth PCT]");
    eprintln!("options:");
    eprintln!("  --threads N   host-side worker threads (default: available parallelism)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flag_value(&args, "--threads").map(|v| v.parse::<usize>()) {
        None => {}
        Some(Ok(n)) if n > 0 => iprune_repro::tensor::par::set_threads(n),
        Some(_) => {
            eprintln!("--threads expects a positive integer");
            return usage();
        }
    }
    match args.first().map(|s| s.as_str()) {
        Some("specs") => {
            let spec = iprune_repro::device::DeviceSpec::msp430fr5994();
            println!("{:#?}", spec);
            println!("energy per power cycle: {:.1} uJ", spec.energy_span_j() * 1e6);
            ExitCode::SUCCESS
        }
        Some("characterize") => {
            let Some(app) = args.get(1).and_then(|s| parse_app(s)) else {
                return usage();
            };
            let model = app.build();
            let info = &model.info;
            let (convs, pools, fcs) = info.layer_tally();
            println!("{}: CONV x{convs}, POOL x{pools}, FC x{fcs}", app.name());
            println!("  dense size    {:.1} KB", info.dense_size_bytes() as f64 / 1024.0);
            println!("  MACs          {} K", info.total_macs() / 1000);
            println!("  acc outputs   {} K", dense_model_acc_outputs(info) / 1000);
            println!(
                "  diversity     {} (ratio {:.1})",
                diversity_label(diversity_ratio(info)),
                diversity_ratio(info)
            );
            for p in &info.prunables {
                println!("    {:<20} {:>8} weights {:>10} MACs", p.name, p.weights(), p.macs());
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(app) = args.get(1).and_then(|s| parse_app(s)) else {
                return usage();
            };
            let power = match flag_value(&args, "--power").as_deref() {
                None | Some("strong") => PowerStrength::Strong,
                Some("continuous") => PowerStrength::Continuous,
                Some("weak") => PowerStrength::Weak,
                Some(other) => {
                    eprintln!("unknown power `{other}`");
                    return usage();
                }
            };
            let mode = match flag_value(&args, "--mode").as_deref() {
                None | Some("job") => ExecMode::Intermittent,
                Some("tile") => ExecMode::TileAtomic,
                Some("continuous") => ExecMode::Continuous,
                Some(other) => {
                    eprintln!("unknown mode `{other}`");
                    return usage();
                }
            };
            let train_n: usize =
                flag_value(&args, "--train").and_then(|v| v.parse().ok()).unwrap_or(0);
            let seed: u64 = flag_value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(1);

            let mut model = app.build();
            let calib = app.dataset(8.max(train_n), 100);
            if train_n > 0 {
                eprintln!("training on {train_n} samples…");
                train_sgd(&mut model, &calib.take(train_n), &app.train_recipe());
            }
            let dm = deploy(&mut model, &calib, 8);
            let mut sim = DeviceSim::new(power, seed);
            match infer(&dm, &calib.sample(0), &mut sim, mode) {
                Ok(out) => {
                    println!("predicted class     {}", out.argmax);
                    println!("latency             {:.3} s", out.latency_s);
                    println!("power cycles        {}", out.power_cycles);
                    println!("jobs committed      {}", out.jobs);
                    println!("preserved partials  {}", out.preserved_partials);
                    println!("NVM written         {} KB", out.stats.nvm_write_bytes / 1024);
                    println!("NVM read            {} KB", out.stats.nvm_read_bytes / 1024);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("inference failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("fleet") => {
            let Some(app) = args.get(1).and_then(|s| parse_app(s)) else {
                return usage();
            };
            let devices: u64 =
                flag_value(&args, "--devices").and_then(|v| v.parse().ok()).unwrap_or(200);
            let shard_size: u64 =
                flag_value(&args, "--shard-size").and_then(|v| v.parse().ok()).unwrap_or(100);
            let seed: u64 = flag_value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(7);
            if devices == 0 || shard_size == 0 {
                eprintln!("--devices and --shard-size must be positive");
                return usage();
            }

            let mut model = app.build();
            let calib = app.dataset(8, 100);
            let dm = deploy(&mut model, &calib, 8);
            let x = calib.sample(0);
            let workload = record_workload(&dm, &x);
            eprintln!(
                "recorded {}: {} activities, {} jobs, nominal {:.3} ms",
                workload.name,
                workload.activities.len(),
                workload.jobs,
                workload.nominal_latency_s * 1e3
            );
            let campaign = FleetCampaign {
                population: PopulationSpec::default_fleet(devices, seed),
                shard_size: shard_size.min(devices),
            };
            let report = campaign.run(std::slice::from_ref(&workload));
            print!("{}", report.summary());
            if let Some(path) = flag_value(&args, "--json") {
                if let Err(e) = std::fs::write(&path, report.to_json()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            if has_flag(&args, "--triage") {
                let cfg = TriageConfig {
                    top_k: flag_value(&args, "--top-k").and_then(|v| v.parse().ok()).unwrap_or(8),
                    trace_dir: flag_value(&args, "--trace-dir").map(Into::into),
                    ..Default::default()
                };
                let entries = [TriageEntry { workload: &workload, dm: &dm, input: &x }];
                let triage = run_triage(&campaign, &entries, &report, &cfg);
                println!();
                print!("{}", triage.summary());
                if let Some(path) = flag_value(&args, "--triage-json") {
                    if let Err(e) = std::fs::write(&path, triage.to_json()) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {path}");
                }
            }
            ExitCode::SUCCESS
        }
        Some("doctor") => {
            let app = match args.get(1).filter(|s| !s.starts_with("--")) {
                Some(s) => match parse_app(s) {
                    Some(app) => app,
                    None => return usage(),
                },
                None => App::Har,
            };
            let devices: u64 =
                flag_value(&args, "--devices").and_then(|v| v.parse().ok()).unwrap_or(200);
            let seed: u64 = flag_value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(7);
            if devices == 0 {
                eprintln!("--devices must be positive");
                return usage();
            }
            let mut model = app.build();
            let calib = app.dataset(8, 100);
            let dm = deploy(&mut model, &calib, 8);
            let x = calib.sample(0);
            let workload = record_workload(&dm, &x);
            let campaign = FleetCampaign {
                population: PopulationSpec::default_fleet(devices, seed),
                shard_size: 100.min(devices),
            };
            eprintln!("doctor: replaying {} across {} devices/cell…", workload.name, devices);
            let fleet = campaign.run(std::slice::from_ref(&workload));
            let cfg = TriageConfig {
                top_k: flag_value(&args, "--top-k").and_then(|v| v.parse().ok()).unwrap_or(5),
                trace_dir: flag_value(&args, "--trace-dir").map(Into::into),
                ..Default::default()
            };
            let entries = [TriageEntry { workload: &workload, dm: &dm, input: &x }];
            let triage = run_triage(&campaign, &entries, &fleet, &cfg);
            print!("{}", triage.summary());
            if let Some(dir) = &cfg.trace_dir {
                eprintln!("traces under {}", dir.display());
            }
            ExitCode::SUCCESS
        }
        Some("serve") => run_serve(&args),
        Some("history") => {
            let dir = std::path::PathBuf::from(flag_value(&args, "--dir").unwrap_or(".".into()));
            let current = match bench_entries(&dir) {
                Ok(entries) if !entries.is_empty() => entries,
                Ok(_) => {
                    eprintln!("no BENCH_*.json under {}", dir.display());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            match args.get(1).map(|s| s.as_str()) {
                Some("record") => {
                    let rendered = iprune_repro::obs::history::render_history(&current);
                    print!("{rendered}");
                    let out = flag_value(&args, "--out")
                        .map(Into::into)
                        .unwrap_or_else(|| dir.join("BENCH_HISTORY.jsonl"));
                    if let Err(e) = std::fs::write(&out, rendered) {
                        eprintln!("cannot write {}: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {}", out.display());
                    ExitCode::SUCCESS
                }
                Some("gate") => {
                    let path = flag_value(&args, "--history")
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| dir.join("BENCH_HISTORY.jsonl"));
                    let text = match std::fs::read_to_string(&path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("cannot read {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                    };
                    let history = match iprune_repro::obs::history::parse_history(&text) {
                        Ok(h) => h,
                        Err(e) => {
                            eprintln!("malformed {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                    };
                    let max_growth =
                        flag_value(&args, "--max-wall-growth").and_then(|v| v.parse().ok());
                    match iprune_repro::obs::history::gate(&history, &current, max_growth) {
                        Ok(()) => {
                            println!("history gate: {} benches clean", current.len());
                            ExitCode::SUCCESS
                        }
                        Err(violations) => {
                            for v in &violations {
                                eprintln!("history gate: {v}");
                            }
                            ExitCode::FAILURE
                        }
                    }
                }
                _ => usage(),
            }
        }
        Some("prune") => {
            let Some(app) = args.get(1).and_then(|s| parse_app(s)) else {
                return usage();
            };
            let cfg = match flag_value(&args, "--method").as_deref() {
                None | Some("iprune") => PruneConfig::iprune(),
                Some("eprune") => PruneConfig::eprune(),
                Some("magnitude") => PruneConfig::magnitude(),
                Some("oneshot") => PruneConfig::one_shot(0.5),
                Some(other) => {
                    eprintln!("unknown method `{other}`");
                    return usage();
                }
            };
            let train_n: usize =
                flag_value(&args, "--train").and_then(|v| v.parse().ok()).unwrap_or(400);
            let train = app.dataset(train_n, 100);
            let val = app.dataset((train_n / 3).max(60), 200);
            let mut model = app.build();
            eprintln!("training {} on {} samples…", app.name(), train.len());
            train_sgd(&mut model, &train, &app.train_recipe());
            let cfg = PruneConfig { finetune: app.finetune_recipe(), ..cfg };
            let report = prune(&mut model, &train, &val, &cfg);
            println!("baseline accuracy  {:.1}%", report.baseline_accuracy * 100.0);
            for it in &report.iterations {
                println!(
                    "  iter {}: gamma {:.3}, accuracy {:.1}%, density {:.1}%{}",
                    it.iteration,
                    it.gamma,
                    it.accuracy * 100.0,
                    it.density * 100.0,
                    if it.struck { "  (struck)" } else { "" }
                );
            }
            println!("adopted iteration  {:?}", report.adopted_iteration);
            println!("final accuracy     {:.1}%", report.final_accuracy * 100.0);
            println!("final density      {:.1}%", report.final_density * 100.0);
            println!("final val accuracy {:.1}%", evaluate(&model, &val, 32) * 100.0);
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
