//! `perf`: the repository's two-clock benchmark.
//!
//! * `perf run [--seed N] [--out FILE] [--quick]` — every
//!   workload, every metric by name with its unit, output checks, the
//!   per-layer split and the bypass predictions; one command.
//! * `perf compare <a.json> <b.json>` — applies each metric's direction
//!   and bound per workload; non-zero exit on a regression.
//! * `perf --workload W --seed N --seconds S --trace 0|1` — one workload
//!   for the benchmark driver (`BENCHMARK.json`); the last line of
//!   standard output is the result object.
//!
//! Closed loop, one client, one thread, one fresh child process per
//! repetition. See `README.md` for the method.

mod compare;
mod est;
mod json;
mod kernels;
mod report;
mod span;
mod workloads;

use json::Json;
use kernels::KernelSizes;
use report::{Summary, DYN_SPEEDUP_REFERENCE, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{
    Rep, Sizes, CTRL_DURABLE, CTRL_ENCRYPTED, SIM_CACHE_BOUND, SIM_ORAM_BOUND, WORKLOADS,
};

const USAGE: &str = "\
usage:
  perf run [--seed N] [--out FILE] [--quick]
  perf compare <a.json> <b.json>
  perf manifest
  perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
workloads: sim_oram_bound sim_cache_bound ctrl_encrypted ctrl_durable";

/// Repetitions of `perf run`; `--quick` makes one.
const RUN_REPS: usize = 24;
/// A driver run repeats until `--seconds` have passed, but never fewer
/// times than this (the segment-minimum needs company) nor more.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 48;
/// Traced passes per workload, alternating with untraced repetitions.
const TRACED_PASSES: usize = 16;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    quick: bool,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
            quick: false,
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some("quick") => out.quick = true,
                Some(key) => {
                    let value = args.next().ok_or(format!("--{key} needs a value"))?;
                    out.flags.insert(key.to_owned(), value);
                }
                None => out.positional.push(a),
            }
        }
        Ok(out)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read '{v}'")),
            None => default.ok_or(format!("--{key} is required")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("compare") => cmd_compare(&args),
        Some("manifest") => cmd_manifest(&args),
        Some("rep") => cmd_rep(&args),
        None if args.flags.contains_key("workload") => cmd_driver(&args),
        _ => return usage_error("no command"),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(why: &str) -> ExitCode {
    eprintln!("perf: {why}\n{USAGE}");
    ExitCode::from(2)
}

fn known_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload '{name}'; expected one of {WORKLOADS:?}"
        ))
    }
}

/// Where a traced pass writes its spans (git-ignored, inside `perf/`).
fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{workload}.jsonl"))
}

// ------------------------------------------------------------ repetitions

/// Internal: one repetition in this process; the result is the `REP` line.
fn cmd_rep(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "trace"])?;
    let workload: String = args.num("workload", None)?;
    known_workload(&workload)?;
    let seed = args.num("seed", None)?;
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let trace = args.flags.get("trace").map(PathBuf::from);
    let rep = workloads::run_rep(&workload, seed, &sizes, trace.as_deref());
    println!("REP {}", rep.to_json().compact());
    Ok(ExitCode::SUCCESS)
}

/// Runs one repetition in a fresh child process and waits for it.
fn spawn_rep(workload: &str, seed: u64, quick: bool, trace: Option<&Path>) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", "--workload", workload, "--seed", &seed.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    if let Some(path) = trace {
        cmd.arg("--trace").arg(path);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: repetition failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("REP "))
        .ok_or(format!("{workload}: repetition printed no result"))?;
    Rep::from_json(&Json::parse(line)?)
}

// ---------------------------------------------------------------- driver

/// `--workload W --seed N --seconds S --trace 0|1`: the contract of
/// `BENCHMARK.json`. Prints the result object as the last line.
fn cmd_driver(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let workload: String = args.num("workload", None)?;
    known_workload(&workload)?;
    let seed: u64 = args.num("seed", Some(42))?;
    let seconds: f64 = args.num("seconds", Some(RUN_SECONDS as f64))?;
    let trace: u8 = args.num("trace", Some(0))?;
    let started = Instant::now();
    let cross = workloads::cross_check(seed);
    if let Err(e) = &cross {
        eprintln!("perf: cross-check failed: {e}");
    }

    let (attempted, failed, metrics) = if trace == 0 {
        let budget = Duration::from_secs_f64(seconds.max(0.0));
        let mut reps = Vec::new();
        loop {
            let t = Instant::now();
            reps.push(spawn_rep(&workload, seed, args.quick, None)?);
            let enough = started.elapsed() + t.elapsed() > budget;
            if reps.len() >= MAX_REPS || (reps.len() >= MIN_REPS && enough) {
                break;
            }
        }
        let s = report::summarize(&workload, &reps);
        let in_manifest = END_TO_END.iter().filter(|d| d.driver_bound.is_some());
        let metrics = in_manifest.map(|d| {
            let v = s.value(d.name).expect("manifest metrics exist everywhere");
            (d.name.to_owned(), v, d.unit)
        });
        (s.attempted, s.failed, report::driver_metrics(metrics))
    } else {
        let path = trace_path(&workload);
        // Alternate so a noise phase does not land on one kind of pass.
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..if args.quick { 1 } else { TRACED_PASSES } {
            untraced.push(spawn_rep(&workload, seed, args.quick, None)?);
            traced.push(spawn_rep(&workload, seed, args.quick, Some(&path))?);
        }
        let ksizes = if args.quick {
            KernelSizes::QUICK
        } else {
            KernelSizes::FULL
        };
        let kernels = kernels::run_all(seed, &ksizes);
        let (layers, problems) = report::layer_metrics(&workload, &untraced, &traced, &kernels);
        for p in problems {
            eprintln!("perf: {workload}: layer split invalid: {p}");
        }
        let all = untraced.iter().chain(&traced);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name.to_owned(), layers[name], unit));
        (
            all.clone().map(|r| r.attempted).sum(),
            all.map(|r| r.failed).sum(),
            report::driver_metrics(metrics),
        )
    };
    let result = Json::obj()
        .with("correct", failed == 0 && cross.is_ok())
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", result.compact());
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------- run

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

fn check(checks: &mut Vec<Check>, name: &str, ok: bool, detail: String) {
    checks.push(Check {
        name: name.to_owned(),
        ok,
        detail,
    });
}

fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if a >= 10_000.0 {
        format!("{v:.1}")
    } else if a >= 10.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    args.only(&["seed", "out"])?;
    let seed: u64 = args.num("seed", Some(42))?;
    let quick = args.quick;
    let reps_n = if quick { 1 } else { RUN_REPS };
    let (sizes, ksizes) = if quick {
        (Sizes::QUICK, KernelSizes::QUICK)
    } else {
        (Sizes::FULL, KernelSizes::FULL)
    };
    let host = report::host_json();
    eprintln!(
        "perf: seed {seed}, R = {reps_n}{}",
        if quick { ", quick sizes" } else { "" }
    );

    let mut checks = Vec::new();
    let cross = workloads::cross_check(seed);
    check(
        &mut checks,
        "own step loop reproduces runner::run_spec exactly",
        cross.is_ok(),
        cross
            .err()
            .unwrap_or_else(|| "cycles, paths, bytes, demand fetches equal".into()),
    );

    // Round-robin across workloads so a noise phase of several seconds
    // does not land on one of them; the traced passes ride along with
    // the first repetitions so both kinds see the same phases.
    let traced_passes = if quick { 1 } else { TRACED_PASSES };
    let mut reps: BTreeMap<&str, Vec<Rep>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, Vec<Rep>> = BTreeMap::new();
    for r in 0..reps_n {
        for w in WORKLOADS {
            eprintln!("perf: repetition {}/{reps_n} of {w}", r + 1);
            reps.entry(w)
                .or_default()
                .push(spawn_rep(w, seed, quick, None)?);
            if r < traced_passes {
                let rep = spawn_rep(w, seed, quick, Some(&trace_path(w)))?;
                traced.entry(w).or_default().push(rep);
            }
        }
    }
    eprintln!("perf: layer kernels");
    let kernels = kernels::run_all(seed, &ksizes);

    let mut doc_workloads = Json::obj();
    let mut summaries: BTreeMap<&str, Summary> = BTreeMap::new();
    let mut layers_of: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();
    for w in WORKLOADS {
        let s = report::summarize(w, &reps[w]);
        let (layers, problems) = report::layer_metrics(w, &reps[w], &traced[w], &kernels);
        print_workload(&s, &layers, &problems);
        doc_workloads.set(w, workload_json(&s, &layers, &problems));
        summaries.insert(w, s);
        layers_of.insert(w, layers);
    }
    print_reference(&summaries[SIM_ORAM_BOUND]);
    predictions(&mut checks, &summaries, &layers_of);

    println!("\n== checks ==");
    for c in &checks {
        println!(
            "  [{}] {} — {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!("\nhost: {}", host.compact());

    if let Some(out) = args.flags.get("out") {
        let doc = Json::obj()
            .with("benchmark", "proram-perf")
            .with("host", host)
            .with("seed", seed)
            .with("reps", reps_n)
            .with("quick", quick)
            .with("sizes", sizes.to_json())
            .with("workloads", doc_workloads)
            .with(
                "checks",
                Json::Arr(
                    checks
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .with("name", c.name.as_str())
                                .with("ok", c.ok)
                                .with("detail", c.detail.as_str())
                        })
                        .collect(),
                ),
            );
        std::fs::write(out, doc.pretty()).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("perf: wrote {out}");
    }
    // Wrong outputs fail the command; a missed prediction is a finding,
    // printed above, not an error of the run.
    let wrong = summaries.values().any(|s| s.failed > 0) || !checks[0].ok;
    Ok(if wrong {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn print_workload(s: &Summary, layers: &BTreeMap<String, f64>, problems: &[String]) {
    println!(
        "\n== {} — R = {}, {} timed ops per repetition, {} attempted, {} failed, sim_digest {:016x} ==",
        s.workload, s.reps, s.timed_ops, s.attempted, s.failed, s.sim_digest
    );
    println!(
        "  {:<20} {:<10} {:>16} {:<10} {:<7} {:>6}  raw per repetition [IQR/median]",
        "end-to-end", "clock", "value", "unit", "better", "bound"
    );
    for m in &s.e2e {
        let value = m.value.map_or("n/a".to_owned(), fmt_num);
        let raw = if m.raw.is_empty() {
            String::new()
        } else {
            format!(
                "{} [{:.2}%]",
                m.raw
                    .iter()
                    .map(|&v| fmt_num(v))
                    .collect::<Vec<_>>()
                    .join(" "),
                100.0 * m.raw_spread()
            )
        };
        println!(
            "  {:<20} {:<10} {:>16} {:<10} {:<7} {:>5.0}%  {raw}",
            m.def.name,
            m.def.clock,
            value,
            m.def.unit,
            m.def.better.as_str(),
            100.0 * m.def.bound
        );
    }
    let samples = s.sim.get("p99_samples").copied().unwrap_or(0.0);
    if s.sim.contains_key("sim_cycles_p99") {
        println!(
            "  p99 of {samples} samples, {} beyond it",
            s.sim.get("p99_samples_beyond").copied().unwrap_or(0.0)
        );
    } else {
        println!(
            "  no p99: {samples} per-op samples, fewer than {}",
            workloads::P99_MIN_SAMPLES
        );
    }
    println!("  per-layer (0 = layer not exercised or not observable on this workload):");
    for (name, unit, _) in PER_LAYER {
        println!("    {name:<36} {:>16} {unit}", fmt_num(layers[name]));
    }
    for p in problems {
        println!("  LAYER SPLIT INVALID: {p}");
    }
}

fn workload_json(s: &Summary, layers: &BTreeMap<String, f64>, problems: &[String]) -> Json {
    let e2e = Json::Obj(
        s.e2e
            .iter()
            .map(|m| {
                let v = Json::obj()
                    .with("value", m.value.map_or(Json::Null, Json::Num))
                    .with("unit", m.def.unit)
                    .with("clock", m.def.clock)
                    .with("better", m.def.better.as_str())
                    .with("bound", m.def.bound)
                    .with("raw", m.raw.clone())
                    .with("raw_spread", m.raw_spread());
                (m.def.name.to_owned(), v)
            })
            .collect(),
    );
    let per_layer = Json::Obj(
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = Json::obj().with("value", layers[name]).with("unit", unit);
                (name.to_owned(), v)
            })
            .collect(),
    );
    let sim = Json::Obj(
        s.sim
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v)))
            .collect(),
    );
    Json::obj()
        .with("reps", s.reps)
        .with("timed_ops", s.timed_ops)
        .with("attempted", s.attempted)
        .with("failed", s.failed)
        .with("sim_digest", format!("{:016x}", s.sim_digest))
        .with("end_to_end", e2e)
        .with("simulated", sim)
        .with("per_layer", per_layer)
        .with("split_problems", problems.to_vec())
}

/// The simulated speed-up next to what the repository can hold it
/// against; traces without a paper figure are labelled, not scored.
fn print_reference(s: &Summary) {
    println!("\n== dyn_speedup against references (cycles(oram) / cycles(dyn)) ==");
    println!(
        "  {:<10} {:>10} {:>22} {:>24}",
        "trace", "this run", "paper (error)", "repo standard scale"
    );
    for (trace, paper, repo) in DYN_SPEEDUP_REFERENCE {
        let ours = s.sim.get(&format!("dyn_speedup.{trace}")).copied();
        let ours_s = ours.map_or("n/a".to_owned(), |v| format!("{v:.4}"));
        let paper_s = match (paper, ours) {
            (Some(p), Some(o)) => format!("{p:.3} ({:+.1}%)", 100.0 * (o - p) / p),
            _ => "unvalidated".to_owned(),
        };
        println!("  {trace:<10} {ours_s:>10} {paper_s:>22} {repo:>24.3}");
    }
    println!(
        "  paper: the only per-benchmark figure the repository holds (YCSB +23.6%, EXPERIMENTS.md);\n  \
         repo: results/experiments_standard.txt, 150k ops after 50k warm-up, seed 42 — a longer\n  \
         trace than this benchmark's, so the columns are not expected to be equal."
    );
}

/// The bypass predictions and accounting limits the issue states,
/// evaluated on this run's numbers.
fn predictions(
    checks: &mut Vec<Check>,
    s: &BTreeMap<&str, Summary>,
    layers: &BTreeMap<&str, BTreeMap<String, f64>>,
) {
    let failed: u64 = s.values().map(|w| w.failed).sum();
    check(
        checks,
        "fail_share = 0 on all four workloads",
        failed == 0,
        format!("{failed} failed ops"),
    );
    let speedup = s[SIM_ORAM_BOUND].value("dyn_speedup").unwrap_or(0.0);
    check(
        checks,
        "dyn_speedup > 1",
        speedup > 1.0,
        format!("geomean {speedup:.4}"),
    );

    let c = &layers[SIM_CACHE_BOUND];
    let (step, dram) = (c["sim.step_ns"], c["sim.step_dram_ns"]);
    check(
        checks,
        "sim_cache_bound bypasses the ORAM: step_dram within 10% of step",
        step > 0.0 && ((step - dram) / step).abs() <= 0.10,
        format!(
            "sim.step_ns {step:.2}, sim.step_dram_ns {dram:.2}, {:.4} memory requests per 1000 ops",
            c["cache.mem_requests_per_kop"]
        ),
    );

    let e = &layers[CTRL_ENCRYPTED];
    let enc_ops = s[CTRL_ENCRYPTED].value("ops_per_s").unwrap_or(0.0);
    let dur_ops = s[CTRL_DURABLE].value("ops_per_s").unwrap_or(0.0);
    // Both from the differential kernel, whose batches are interleaved.
    let per_access = e["ctrl.encrypted_access_ns"];
    let image = e["storage.encrypted_minus_opaque_ns"];
    check(
        checks,
        "ctrl_encrypted: the encrypted image is >= 70% of an access",
        image >= 0.70 * per_access,
        format!("storage.encrypted_minus_opaque_ns {image:.0} of {per_access:.0} ns per access"),
    );
    let ops_bound = END_TO_END
        .iter()
        .find(|d| d.name == "ops_per_s")
        .expect("in the catalogue")
        .bound;
    let journal = e["journal.durable_minus_encrypted_ns"];
    check(
        checks,
        "ctrl_durable is slower than ctrl_encrypted by more than both bounds together",
        dur_ops < enc_ops * (1.0 - 2.0 * ops_bound) && journal > 0.0,
        format!(
            "{dur_ops:.0} vs {enc_ops:.0} acc/s, journal.durable_minus_encrypted_ns {journal:.0}"
        ),
    );

    for w in WORKLOADS {
        let l = &layers[w];
        let limit = if w.starts_with("sim_") { 0.05 } else { 0.15 };
        check(
            checks,
            &format!("{w}: spans account for the traced wall time, driver residual <= 5%"),
            l["perf.driver_share"] <= 0.05,
            format!(
                "perf.driver_ns {:.1} per op = {:.2}% of the traced wall time",
                l["perf.driver_ns"],
                100.0 * l["perf.driver_share"]
            ),
        );
        check(
            checks,
            &format!("{w}: trace.overhead_share <= {:.0}%", 100.0 * limit),
            l["trace.overhead_share"] <= limit,
            format!("{:.2}%", 100.0 * l["trace.overhead_share"]),
        );
    }
}

// --------------------------------------------------------------- compare

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    args.only(&[])?;
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare takes exactly two report files".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if compare::print(&comparison) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_manifest(args: &Args) -> Result<ExitCode, String> {
    args.only(&[])?;
    print!("{}", report::manifest_json().pretty());
    Ok(ExitCode::SUCCESS)
}
