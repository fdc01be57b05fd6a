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
//! grouped bar chart into `DIR/<experiment>_<n>.svg`. A chart that
//! cannot be written is reported on stderr and makes the run exit 1,
//! after every table has printed.
//!
//! Experiments: `table1`, `fig5`, `fig6a`, `fig6b`, `fig7`, `fig8`,
//! `fig9`, `fig10`, `fig11`, `fig12`, `fig13`, `fig14`, `fig15`,
//! `ablation`, `fault_sweep`, `serialization`.
//!
//! `proram-bench trace <benchmark>` dumps a benchmark's memory trace to
//! stdout in the portable text format of `proram_workloads::tracefile`.
//!
//! `proram-bench obs [--trace PATH]` runs two instrumented workloads (a
//! two-core simulation and a directly driven sharded controller), each
//! with its own ring sink, dumps the event trace as JSONL to `--trace`
//! (default `target/obs_trace.jsonl`) and prints the per-kind, per-stage
//! and per-shard attribution tables; the stage table is the cycle split
//! of the accesses those runs retired. The command panics if the trace
//! violates the bounded-retention, JSONL-schema or attribution
//! contracts, so it doubles as a CI smoke gate.
//!
//! A flag that does not apply to the chosen subcommand is an error
//! (usage, exit 1), never silently ignored. Everything printed here is
//! on the simulated clock; host time is measured by `perf/` only.

use proram_bench::exp::{self, RunCtx};
use proram_bench::obs;
use proram_par::WorkerPool;
use proram_stats::{BarChart, Table};
use proram_workloads::{suite, tracefile, Scale, Suite};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Prints every table and, with `svg_dir`, renders each chartable one
/// into `DIR/<name>_<i>.svg`. Returns `false` if any chart was not
/// written; each failure is reported on stderr and never stops the
/// remaining tables from printing.
fn emit(name: &str, tables: &[Table], svg_dir: Option<&Path>) -> bool {
    let mut written = true;
    for (i, table) in tables.iter().enumerate() {
        println!("{table}");
        let Some(dir) = svg_dir else { continue };
        let Some(chart) = BarChart::from_table(table) else {
            continue;
        };
        let path = dir.join(format!("{name}_{i}.svg"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chart.to_svg())) {
            Ok(()) => eprintln!("[wrote {}]", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                written = false;
            }
        }
    }
    written
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: proram-bench <experiment|all> [--scale quick|standard] [--ops N] [--fp-scale F] [--seed N] [--jobs N] [--svg DIR]"
    );
    eprintln!("       proram-bench list");
    eprintln!(
        "       proram-bench trace <benchmark> [--scale quick|standard] [--ops N] [--fp-scale F] [--seed N]"
    );
    eprintln!("       proram-bench obs [--trace PATH]");
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
        return usage();
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

fn run_obs(trace_path: &Path) -> ExitCode {
    eprintln!("[running instrumented workloads...]");
    // measure() panics if the trace breaks the bounded-retention,
    // JSONL-schema or attribution contracts — the CI smoke gate.
    let report = obs::measure();
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
    println!("{}", obs::stage_table(&report.events));
    println!("{}", obs::shard_table(&report.shards));
    ExitCode::SUCCESS
}

/// Parses `value` into `slot`; `false` (slot untouched) if it does not
/// parse.
fn set<T: std::str::FromStr>(slot: &mut T, value: &str) -> bool {
    value.parse().map(|v| *slot = v).is_ok()
}

/// The flags that shape a workload; `trace` and every experiment take
/// them.
const SCALE_FLAGS: [&str; 4] = ["--scale", "--ops", "--fp-scale", "--seed"];
/// Everything an experiment (or `all`) takes.
const EXPERIMENT_FLAGS: [&str; 6] = [
    "--scale",
    "--ops",
    "--fp-scale",
    "--seed",
    "--jobs",
    "--svg",
];

/// What the first argument selected, resolved before any flag is read.
enum Command<'a> {
    List,
    Obs,
    Trace(&'a str),
    All,
    Experiment(&'a str, exp::ExperimentFn),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first().map(String::as_str) else {
        return usage();
    };
    let mut rest = args[1..].iter();
    let command = match which {
        "list" => Command::List,
        "obs" => Command::Obs,
        "trace" => match rest.next() {
            Some(bench) => Command::Trace(bench),
            None => return usage(),
        },
        "all" => Command::All,
        name => match exp::by_name(name) {
            Some(runner) => Command::Experiment(name, runner),
            None => {
                eprintln!("unknown experiment '{name}'");
                return usage();
            }
        },
    };
    let allowed: &[&str] = match command {
        Command::List => &[],
        Command::Obs => &["--trace"],
        Command::Trace(_) => &SCALE_FLAGS,
        Command::All | Command::Experiment(..) => &EXPERIMENT_FLAGS,
    };

    let mut scale = Scale::standard();
    let mut svg_dir: Option<PathBuf> = None;
    let mut njobs: usize = 1;
    let mut obs_trace = PathBuf::from("target/obs_trace.jsonl");
    // Every flag takes exactly one value.
    while let Some(flag) = rest.next() {
        if !allowed.contains(&flag.as_str()) {
            eprintln!("'{flag}' is not a flag of 'proram-bench {which}'");
            return usage();
        }
        let Some(value) = rest.next() else {
            eprintln!("{flag} needs a value");
            return usage();
        };
        let ok = match flag.as_str() {
            "--scale" => match value.as_str() {
                "quick" => {
                    scale = Scale::quick();
                    true
                }
                "standard" => {
                    scale = Scale::standard();
                    true
                }
                _ => false,
            },
            "--ops" => set(&mut scale.ops, value),
            "--fp-scale" => set(&mut scale.footprint_scale, value),
            "--seed" => set(&mut scale.seed, value),
            "--jobs" => set(&mut njobs, value) && njobs >= 1,
            "--trace" => set(&mut obs_trace, value),
            "--svg" => {
                svg_dir = Some(PathBuf::from(value));
                true
            }
            _ => unreachable!("the allowed lists name only known flags"),
        };
        if !ok {
            eprintln!("bad value '{value}' for {flag}");
            return usage();
        }
    }

    match command {
        Command::List => {
            for (name, _) in exp::EXPERIMENTS {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        Command::Trace(bench) => dump_trace(bench, scale),
        // Observability smoke: measure() asserts the trace contracts.
        Command::Obs => run_obs(&obs_trace),
        Command::All => {
            // Fan out across experiments rather than within them: the
            // registry's work items are coarse and independent, and each
            // experiment's tables come back in registry order, so stdout
            // matches a serial run byte for byte.
            let runs: Vec<_> = exp::EXPERIMENTS.to_vec();
            let results = WorkerPool::new(njobs).run(runs, |(name, runner)| {
                eprintln!("[running {name}...]");
                (name, runner(RunCtx::serial(scale)))
            });
            let mut written = true;
            for (name, tables) in results {
                written &= emit(name, &tables, svg_dir.as_deref());
            }
            svg_exit(written)
        }
        Command::Experiment(name, runner) => svg_exit(emit(
            name,
            &runner(RunCtx::with_jobs(scale, njobs)),
            svg_dir.as_deref(),
        )),
    }
}

/// Exit status of an experiment run: every table has printed either
/// way, and a chart that was not written fails the run.
fn svg_exit(written: bool) -> ExitCode {
    if written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
