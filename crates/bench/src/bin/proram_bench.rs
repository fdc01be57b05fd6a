//! `proram-bench`: regenerate the PrORAM paper's tables and figures.
//!
//! ```text
//! proram-bench <experiment|all> [--scale quick|standard] [--ops N]
//!              [--fp-scale F] [--seed N] [--jobs N] [--svg DIR]
//! ```
//!
//! `--jobs N` runs independent simulations on N worker threads. Output
//! is byte-identical to a serial run: every simulation is seeded from
//! its own config (never from run order) and rows are assembled in the
//! order the experiment defines, so parallelism changes wall-clock time
//! only.
//!
//! With `--svg DIR`, every regenerated table is also rendered as a
//! grouped bar chart into `DIR/<experiment>_<n>.svg`.
//!
//! Experiments: `table1`, `fig5`, `fig6a`, `fig6b`, `fig7`, `fig8`,
//! `fig9`, `fig10`, `fig11`, `fig12`, `fig13`, `fig14`, `fig15`,
//! `ablation`, `fault_sweep`, `serialization`.
//!
//! `proram-bench trace <benchmark>` dumps a benchmark's memory trace to
//! stdout in the portable text format of `proram_workloads::tracefile`.
//!
//! `proram-bench hotpath [--ms N] [--out PATH]` runs the widened-cipher
//! microbench (panics if the widened keystream is not >= 1.1x the scalar
//! reference), measures the raw ORAM-access kernels against the recorded
//! pre-optimization baseline and emits the `BENCH_hotpath.json` report
//! (stdout unless `--out`).
//!
//! `proram-bench pipeline [--scale quick|standard] [--jobs N]
//! [--out PATH]` sweeps the staged access pipeline's bank scheduler and
//! the sharded-controller ablation, asserts the bank-overlap win holds,
//! and emits the `BENCH_pipeline.json` report (stdout unless `--out`).
//!
//! `proram-bench crash [--out PATH]` runs the exhaustive kill-point
//! sweep of the crash-consistent commit protocol: every kill point x
//! crossing cell must fire exactly once, recover auditor-clean, and land
//! on the crash-free state digest — the command panics on any violation,
//! making it a CI smoke gate. Emits the `BENCH_crash.json` report with
//! per-cell recovery work and modeled recovery-latency statistics
//! (written to `BENCH_crash.json` unless `--out` overrides the path).
//!
//! `proram-bench treetop [--ms N] [--out PATH]` sweeps the functional
//! treetop cache (`treetop_levels` in {0, 1, 2, 4, 6}) crossed with the
//! flat and subtree-packed store layouts on the encrypted hot-path
//! kernel, and emits the `BENCH_treetop.json` report (written to
//! `BENCH_treetop.json` unless `--out` overrides the path). The sweep
//! panics if `treetop_levels = 4` is not at least 1.15x the uncached
//! baseline in accesses/sec, so it doubles as a CI smoke gate.
//!
//! `proram-bench fault` runs the fault-injection sweep (alias of the
//! `fault_sweep` experiment): every fault class x rate cell must detect
//! 100% of observable injected corruptions, and a zero-rate injector
//! must be observationally identical to a fault-free run — the command
//! exits nonzero (panics) if either robustness contract is violated.
//!
//! `proram-bench obs [--ms N] [--trace PATH] [--out PATH]` runs three
//! instrumented workloads with a shared ring sink, dumps the event
//! trace as JSONL to `--trace` (default `target/obs_trace.jsonl`),
//! prints the per-stage and per-shard attribution tables, measures the
//! hot-path overhead of the enabled sinks, and emits the
//! `BENCH_obs.json` report (stdout unless `--out`). The command panics
//! if the trace violates the bounded-retention or JSONL-schema
//! contracts, so it doubles as a CI smoke gate.

use proram_bench::exp::{self, RunCtx};
use proram_bench::{crash, hotpath, jobs, obs, pipeline, treetop};
use proram_stats::{BarChart, Table};
use proram_workloads::{suite, tracefile, Scale, Suite};
use std::path::PathBuf;
use std::process::ExitCode;

fn emit(name: &str, tables: &[Table], svg_dir: Option<&PathBuf>) {
    for (i, table) in tables.iter().enumerate() {
        println!("{table}");
        let Some(dir) = svg_dir else { continue };
        let Some(chart) = BarChart::from_table(table) else {
            continue;
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}_{i}.svg"));
        match std::fs::write(&path, chart.to_svg()) {
            Ok(()) => eprintln!("[wrote {}]", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: proram-bench <experiment|all|list> [--scale quick|standard] [--ops N] [--fp-scale F] [--seed N] [--jobs N] [--svg DIR]"
    );
    eprintln!("       proram-bench trace <benchmark> [--ops N] [--fp-scale F] [--seed N]");
    eprintln!("       proram-bench hotpath [--ms N] [--out PATH]");
    eprintln!("       proram-bench pipeline [--scale quick|standard] [--jobs N] [--out PATH]");
    eprintln!("       proram-bench crash [--out PATH]");
    eprintln!("       proram-bench treetop [--ms N] [--out PATH]");
    eprintln!("       proram-bench fault [--scale quick|standard] [--jobs N]");
    eprintln!("       proram-bench obs [--ms N] [--trace PATH] [--out PATH]");
    eprintln!("experiments:");
    for (name, _) in exp::EXPERIMENTS {
        eprintln!("  {name}");
    }
    ExitCode::FAILURE
}

fn dump_trace(bench: &str, mut scale: Scale) -> ExitCode {
    // Trace dumps are verbatim: no measurement warmup prefix.
    scale.warmup_ops = 0;
    let spec = [Suite::Splash2, Suite::Spec06, Suite::Dbms]
        .into_iter()
        .flat_map(suite::specs)
        .find(|s| s.name == bench);
    let Some(spec) = spec else {
        eprintln!("unknown benchmark '{bench}'");
        return ExitCode::FAILURE;
    };
    let mut workload = suite::build(spec, scale);
    let mut stdout = std::io::stdout().lock();
    match tracefile::dump(workload.as_mut(), &mut stdout) {
        Ok(n) => {
            eprintln!("[dumped {n} ops of {bench}]");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace dump failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_or_print(json: &str, out: Option<&PathBuf>) -> ExitCode {
    match out {
        Some(path) => match std::fs::write(path, json) {
            Ok(()) => {
                eprintln!("[wrote {}]", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{json}");
            ExitCode::SUCCESS
        }
    }
}

fn run_hotpath(ms: u64, out: Option<&PathBuf>) -> ExitCode {
    eprintln!("[measuring hot-path kernels, {ms} ms each...]");
    // measure() panics if the widened cipher loses its win over the
    // scalar reference.
    let reports = hotpath::measure(ms);
    for r in &reports {
        eprintln!(
            "[{}: {:.1} acc/s ({:.2}x over baseline {:.1}), {} allocations avoided]",
            r.name,
            r.after.units_per_sec(),
            r.speedup(),
            r.before_accesses_per_sec,
            r.after.allocations_avoided
        );
    }
    write_or_print(&hotpath::to_json(&reports, ms), out)
}

fn run_pipeline(scale: Scale, njobs: usize, out: Option<&PathBuf>) -> ExitCode {
    eprintln!("[sweeping pipeline banks and controller shards...]");
    let report = pipeline::measure(scale, njobs);
    eprintln!(
        "[bank overlap: {:.2}x per path, {:.2}x end to end; {} shard points]",
        report.fetch_overlap_gain(),
        report.system_overlap_gain(),
        report.shards.len()
    );
    let json = pipeline::to_json(&report);
    match out {
        Some(path) => match std::fs::write(path, &json) {
            Ok(()) => {
                eprintln!("[wrote {}]", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{json}");
            ExitCode::SUCCESS
        }
    }
}

fn run_obs(ms: u64, trace_path: &PathBuf, out: Option<&PathBuf>) -> ExitCode {
    eprintln!("[running instrumented workloads and the sink-overhead microbench...]");
    // measure() panics if the trace breaks the bounded-retention or
    // JSONL-schema contracts — the CI smoke gate.
    let report = obs::measure(ms);
    if let Some(dir) = trace_path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(trace_path, obs::to_jsonl(&report.events)) {
        eprintln!("cannot write {}: {e}", trace_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[wrote {} ({} events, {} dropped by the ring)]",
        trace_path.display(),
        report.events.len(),
        report.dropped
    );
    println!("{}", obs::kind_table(&report.events));
    println!("{}", obs::stage_table(&report.profile));
    println!("{}", obs::shard_table(&report.shards));
    eprintln!(
        "[sink overhead vs detached: noop {:.2}%, ring {:.2}%]",
        report.noop_overhead() * 100.0,
        report.ring_overhead() * 100.0
    );
    let json = obs::to_json(&report, ms);
    match out {
        Some(path) => match std::fs::write(path, &json) {
            Ok(()) => {
                eprintln!("[wrote {}]", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{json}");
            ExitCode::SUCCESS
        }
    }
}

fn run_crash(out: Option<&PathBuf>) -> ExitCode {
    eprintln!(
        "[sweeping {} kill points x {} crossings with recovery...]",
        proram_oram::KillPoint::ALL.len(),
        crash::CROSSINGS.len()
    );
    // measure() panics if any cell fails to fire, recover auditor-clean,
    // or land on the crash-free digest — the CI smoke gate.
    let report = crash::measure();
    let (min, mean, max) = report.latency_stats();
    eprintln!(
        "[{} cells recovered: {} rollbacks, {} replays, {} clean; recovery cycles min {min} / mean {mean:.0} / max {max}]",
        report.cells.len(),
        report.rollbacks(),
        report.replays(),
        report.clean_recoveries()
    );
    write_or_print(&crash::to_json(&report), out)
}

fn run_treetop(ms: u64, out: Option<&PathBuf>) -> ExitCode {
    eprintln!(
        "[sweeping treetop_levels over {:?} x {{flat, subtree_packed}}, {ms} ms each...]",
        treetop::SWEEP
    );
    // measure() panics if the treetop_levels=4 win drops below the
    // floor — the CI smoke gate.
    let points = treetop::measure(ms);
    for p in &points {
        eprintln!(
            "[treetop={} layout={}: {:.1} acc/s, {} B/access, {} B saved]",
            p.treetop_levels,
            p.layout,
            p.throughput.units_per_sec(),
            p.bytes_per_access,
            p.bytes_saved
        );
    }
    write_or_print(&treetop::to_json(&points, ms), out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first().cloned() else {
        return usage();
    };

    let mut scale = Scale::standard();
    let mut svg_dir: Option<PathBuf> = None;
    let mut trace_bench: Option<String> = None;
    let mut njobs: usize = 1;
    let mut hotpath_ms: Option<u64> = None;
    let mut hotpath_out: Option<PathBuf> = None;
    let mut obs_trace = PathBuf::from("target/obs_trace.jsonl");
    let mut i = 1;
    if which == "trace" {
        match args.get(i) {
            Some(b) => trace_bench = Some(b.clone()),
            None => return usage(),
        }
        i += 1;
    }
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("quick") => scale = Scale::quick(),
                    Some("standard") => scale = Scale::standard(),
                    other => {
                        eprintln!("unknown scale {other:?}");
                        return usage();
                    }
                }
            }
            "--ops" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => scale.ops = n,
                    None => return usage(),
                }
            }
            "--fp-scale" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(f) => scale.footprint_scale = f,
                    None => return usage(),
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(s) => scale.seed = s,
                    None => return usage(),
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => njobs = n,
                    _ => return usage(),
                }
            }
            "--ms" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => hotpath_ms = Some(n),
                    _ => return usage(),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => hotpath_out = Some(PathBuf::from(path)),
                    None => return usage(),
                }
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(path) => obs_trace = PathBuf::from(path),
                    None => return usage(),
                }
            }
            "--svg" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => svg_dir = Some(PathBuf::from(dir)),
                    None => return usage(),
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
        i += 1;
    }

    if let Some(bench) = trace_bench {
        return dump_trace(&bench, scale);
    }
    match which.as_str() {
        "list" => {
            for (name, _) in exp::EXPERIMENTS {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        "hotpath" => run_hotpath(hotpath_ms.unwrap_or(3_000), hotpath_out.as_ref()),
        // Observability smoke: measure() asserts the trace contracts.
        "obs" => run_obs(hotpath_ms.unwrap_or(500), &obs_trace, hotpath_out.as_ref()),
        // Regression smoke: measure() panics if the bank-overlap win or
        // shard scaling regresses.
        "pipeline" => run_pipeline(scale, njobs, hotpath_out.as_ref()),
        // Crash-consistency smoke: measure() asserts every kill point
        // recovers to the crash-free state. Defaults to the repo-root
        // artifact name like every other BENCH_*.json producer.
        "crash" => {
            let default = PathBuf::from("BENCH_crash.json");
            run_crash(Some(hotpath_out.as_ref().unwrap_or(&default)))
        }
        // Treetop-cache sweep; measure() asserts the speedup floor.
        "treetop" => {
            let default = PathBuf::from("BENCH_treetop.json");
            run_treetop(
                hotpath_ms.unwrap_or(1_000),
                Some(hotpath_out.as_ref().unwrap_or(&default)),
            )
        }
        // Robustness smoke: the sweep asserts zero undetected corruptions
        // and zero-rate silence internally.
        "fault" => {
            emit(
                "fault_sweep",
                &exp::fault_sweep::run(RunCtx::with_jobs(scale, njobs)),
                svg_dir.as_ref(),
            );
            ExitCode::SUCCESS
        }
        "all" => {
            // Fan out across experiments rather than within them: the
            // registry's work items are coarse and independent, and each
            // experiment's tables come back in registry order, so stdout
            // matches a serial run byte for byte.
            let runs: Vec<_> = exp::EXPERIMENTS.to_vec();
            let results = jobs::parallel_map(njobs, runs, |(name, runner)| {
                eprintln!("[running {name}...]");
                (name, runner(RunCtx::serial(scale)))
            });
            for (name, tables) in results {
                emit(name, &tables, svg_dir.as_ref());
            }
            ExitCode::SUCCESS
        }
        name => match exp::by_name(name) {
            Some(runner) => {
                emit(
                    name,
                    &runner(RunCtx::with_jobs(scale, njobs)),
                    svg_dir.as_ref(),
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment '{name}'");
                usage()
            }
        },
    }
}
