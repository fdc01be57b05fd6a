//! The four workloads, one repetition at a time.
//!
//! A repetition is a pure function of `(workload, seed, sizes)`: it
//! builds the system, warms it (both counted as set-up), runs a fixed
//! number of ops cut into fixed segments, checks every output and returns
//! a [`Rep`]. The seed reaches the *workload generators only* (the trace
//! `Scale::seed`, the controller address stream); the ORAM's own RNG seed
//! is fixed configuration, as it is for a deployed controller.
//!
//! Why these four, and which layer each one loads, is recorded next to
//! each name in `BENCHMARK.json` and in `README.md`.

use crate::est::Fnv;
use crate::json::Json;
use crate::span::{self, SelfByOp, SharedTracer, Spanned, Tracer};
use proram_core::{SchemeConfig, SuperBlockOram};
use proram_mem::{BackendStats, BlockAddr, MemRequest, MemoryBackend, NoProbe};
use proram_oram::{CrashConfig, KillPoint, OramConfig, OramStats, PathOram};
use proram_sim::{MemoryKind, RunMetrics, System, SystemConfig};
use proram_stats::summary::geometric_mean;
use proram_stats::{Histogram, Rng64, SplitMix64, Xoshiro256};
use proram_workloads::{suite, BenchSpec, Scale, Suite};
use std::collections::BTreeMap;
use std::time::Instant;

pub const SIM_ORAM_BOUND: &str = "sim_oram_bound";
pub const SIM_CACHE_BOUND: &str = "sim_cache_bound";
pub const CTRL_ENCRYPTED: &str = "ctrl_encrypted";
pub const CTRL_DURABLE: &str = "ctrl_durable";

/// Every workload, in report order.
pub const WORKLOADS: [&str; 4] = [
    SIM_ORAM_BOUND,
    SIM_CACHE_BOUND,
    CTRL_ENCRYPTED,
    CTRL_DURABLE,
];

/// Two high-locality traces, one DBMS and one no-locality trace, so
/// `dyn_speedup` covers both "wins with locality" and "never loses".
pub const ORAM_BOUND_TRACES: [&str; 4] = ["radix", "ocean_nc", "YCSB", "mcf"];
/// LLC-resident traces: the ORAM idles and the cache model + engine loop
/// do all the work.
pub const CACHE_BOUND_TRACES: [&str; 4] = ["water_ns", "water_s", "h264", "hmmer"];

/// Data blocks of the controller workloads (and of every layer kernel).
pub const CTRL_BLOCKS: u64 = 1 << 16;
/// The ORAM's own RNG seed: fixed configuration, never the `--seed`.
pub const ORAM_SEED: u64 = 1;
/// ORAM size floor of the simulated system, as the paper figures use.
const SIM_ORAM_FLOOR: u64 = 1 << 14;
/// Op counts: frozen for the full benchmark, tiny for `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub sim_oram_ops: u64,
    pub sim_oram_warmup: u64,
    pub sim_oram_segment: u64,
    pub sim_cache_ops: u64,
    pub sim_cache_warmup: u64,
    pub sim_cache_segment: u64,
    pub ctrl_encrypted_ops: u64,
    pub ctrl_durable_ops: u64,
    pub ctrl_warmup: u64,
    pub ctrl_segment: u64,
}

impl Sizes {
    /// Tuned once on the 2-core reference host so one repetition of any
    /// workload takes 0.5-0.9 s and a segment 2-4 ms, then frozen:
    /// changing any of these changes every number in the report. Short
    /// repetitions and fine segments are deliberate. The host runs at
    /// full speed only in bursts of milliseconds, with a duty cycle that
    /// drifts over minutes, and the segment-minimum converges with the
    /// number of repetitions that saw each segment, not with the amount
    /// of work timed (40 repetitions analysed offline: R = 5 repeats
    /// within 15%, R = 24 within 2%).
    pub const FULL: Sizes = Sizes {
        sim_oram_ops: 30_000,
        sim_oram_warmup: 10_000,
        sim_oram_segment: 1_024,
        sim_cache_ops: 2_000_000,
        sim_cache_warmup: 200_000,
        sim_cache_segment: 32_768,
        ctrl_encrypted_ops: 10_000,
        ctrl_durable_ops: 5_000,
        ctrl_warmup: 1_000,
        ctrl_segment: 64,
    };

    /// Exercises every code path in a few seconds; numbers are not
    /// comparable with the full sizes.
    pub const QUICK: Sizes = Sizes {
        sim_oram_ops: 6_000,
        sim_oram_warmup: 2_000,
        sim_oram_segment: 2_048,
        sim_cache_ops: 300_000,
        sim_cache_warmup: 100_000,
        sim_cache_segment: 65_536,
        ctrl_encrypted_ops: 1_200,
        ctrl_durable_ops: 600,
        ctrl_warmup: 200,
        ctrl_segment: 256,
    };

    pub fn to_json(self) -> Json {
        Json::obj()
            .with("sim_oram_ops", self.sim_oram_ops)
            .with("sim_oram_warmup", self.sim_oram_warmup)
            .with("sim_oram_segment", self.sim_oram_segment)
            .with("sim_cache_ops", self.sim_cache_ops)
            .with("sim_cache_warmup", self.sim_cache_warmup)
            .with("sim_cache_segment", self.sim_cache_segment)
            .with("ctrl_encrypted_ops", self.ctrl_encrypted_ops)
            .with("ctrl_durable_ops", self.ctrl_durable_ops)
            .with("ctrl_warmup", self.ctrl_warmup)
            .with("ctrl_segment", self.ctrl_segment)
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Host nanoseconds of each fixed phase of set-up: construct + image
    /// init, then the untimed warm-up ops in chunks.
    pub setup_ns: Vec<u64>,
    /// Host nanoseconds of each fixed segment of the timed region.
    pub segments_ns: Vec<u64>,
    /// Workload ops in the timed region (trace ops / block accesses).
    pub timed_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` of this process when the repetition ended.
    pub peak_rss_mb: f64,
    /// Simulated-clock results: exactly reproducible for a seed.
    pub sim: BTreeMap<String, f64>,
    /// Per-layer counts and ratios: exactly reproducible for a seed.
    pub counts: BTreeMap<String, f64>,
    /// Hash of every simulated counter of the repetition.
    pub digest: u64,
    /// Self time of every span name, cut into chunks of identical work
    /// (traced passes only); `report::layer_metrics` denoises it across
    /// passes and turns it into the host-clock per-layer metrics.
    pub spans: BTreeMap<String, SelfByOp>,
    /// Why the layer split must not be reported, if it must not.
    pub split_invalid: Option<String>,
}

fn map_json(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, &v)| (k.clone(), Json::Num(v))).collect())
}

fn json_map(v: Option<&Json>) -> Result<BTreeMap<String, f64>, String> {
    v.and_then(Json::as_obj)
        .ok_or("missing map")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("non-numeric map value")?)))
        .collect()
}

impl Rep {
    pub fn total_ns(&self) -> u64 {
        self.segments_ns.iter().sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("setup_ns", self.setup_ns.clone())
            .with("segments_ns", self.segments_ns.clone())
            .with("timed_ops", self.timed_ops)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("peak_rss_mb", self.peak_rss_mb)
            .with("sim", map_json(&self.sim))
            .with("counts", map_json(&self.counts))
            .with("digest", format!("{:016x}", self.digest))
            .with(
                "spans",
                Json::Obj(
                    self.spans
                        .iter()
                        .map(|(name, t)| {
                            let v = Json::obj()
                                .with("calls", t.calls)
                                .with("self_ns", t.self_ns.clone());
                            (name.clone(), v)
                        })
                        .collect(),
                ),
            )
            .with(
                "split_invalid",
                self.split_invalid.clone().map_or(Json::Null, Json::Str),
            )
    }

    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Rep, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("rep: missing number '{k}'"))
        };
        let ns_list = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_arr)
                .ok_or(format!("rep: missing list '{k}'"))?
                .iter()
                .map(|s| {
                    s.as_f64()
                        .map(|n| n as u64)
                        .ok_or(format!("rep: bad '{k}'"))
                })
                .collect::<Result<Vec<u64>, String>>()
        };
        let spans = v
            .get("spans")
            .and_then(Json::as_obj)
            .ok_or("rep: missing 'spans'")?
            .iter()
            .map(|(name, t)| {
                let calls = t
                    .get("calls")
                    .and_then(Json::as_f64)
                    .ok_or("rep: bad span calls")?;
                let t = SelfByOp {
                    calls: calls as u64,
                    self_ns: ns_list(t, "self_ns")?,
                };
                Ok((name.clone(), t))
            })
            .collect::<Result<_, String>>()?;
        Ok(Rep {
            setup_ns: ns_list(v, "setup_ns")?,
            segments_ns: ns_list(v, "segments_ns")?,
            timed_ops: num("timed_ops")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            peak_rss_mb: num("peak_rss_mb")?,
            sim: json_map(v.get("sim"))?,
            counts: json_map(v.get("counts"))?,
            digest: v
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("rep: bad digest")?,
            spans,
            split_invalid: v
                .get("split_invalid")
                .and_then(Json::as_str)
                .map(str::to_owned),
        })
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition of `workload`. With a `trace_out` path the pass is
/// traced: spans are recorded in memory, turned into per-layer metrics
/// and written to that file when the pass ends.
///
/// # Panics
///
/// Panics on an unknown workload name, and when an output check that
/// gates reporting fails (final invariants / audit, stage-cycle
/// consistency, the bypass assertion of `sim_cache_bound`).
pub fn run_rep(
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    trace_out: Option<&std::path::Path>,
) -> Rep {
    let tracer = trace_out.map(|_| Tracer::shared());
    let mut rep = match workload {
        SIM_ORAM_BOUND => sim_rep(true, seed, sizes, tracer.as_ref()),
        SIM_CACHE_BOUND => sim_rep(false, seed, sizes, tracer.as_ref()),
        CTRL_ENCRYPTED => ctrl_rep(false, seed, sizes, tracer.as_ref()),
        CTRL_DURABLE => ctrl_rep(true, seed, sizes, tracer.as_ref()),
        other => panic!("unknown workload '{other}' (expected one of {WORKLOADS:?})"),
    };
    rep.peak_rss_mb = peak_rss_mb();
    if let (Some(path), Some(tracer)) = (trace_out, tracer) {
        span::write_jsonl(tracer.borrow().spans(), path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
    rep
}

// ---------------------------------------------------------------- sim_*

/// Looks a benchmark up by the name the paper's figures use.
pub fn spec(name: &str) -> BenchSpec {
    [Suite::Splash2, Suite::Spec06, Suite::Dbms]
        .into_iter()
        .flat_map(suite::specs)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no benchmark named '{name}'"))
}

/// The simulated system of the paper figures: Table 1 defaults, opaque
/// controller, ORAM sized per trace above a 2^14 floor.
pub fn system_config(memory: MemoryKind) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(memory);
    cfg.oram.num_data_blocks = SIM_ORAM_FLOOR;
    cfg
}

pub fn scale(ops: u64, warmup_ops: u64, seed: u64) -> Scale {
    Scale {
        ops,
        warmup_ops,
        footprint_scale: 0.25,
        seed,
    }
}

/// One trace under one memory system, stepped by the benchmark's own
/// loop.
pub struct TraceRun {
    pub trace: &'static str,
    pub label: String,
    pub ops: u64,
    /// Build, then warm-up.
    pub setup_ns: [u64; 2],
    pub segments_ns: Vec<u64>,
    /// Δ`System::now()` over the measured region.
    pub cycles: u64,
    /// Δ`memory().stats()` over the measured region.
    pub backend: BackendStats,
    /// `System::finish()`: whole run, warm-up included.
    pub metrics: RunMetrics,
    pub hist: Histogram,
}

/// Builds, warms and steps one trace: the benchmark's equivalent of
/// `runner::run_spec`, with its own clock reads around it.
///
/// A traced pass records one root span per trace run and one child per
/// timing segment around the fused generate-and-step loop, each under an
/// op identifier of its own. A per-op span would dwarf an 80 ns op, and
/// splitting the loop into a generator half and a simulator half costs
/// 12% by itself (measured), so the generator gets a pass of its own
/// instead ([`generator_pass`]).
fn run_trace(
    trace: &'static str,
    memory: MemoryKind,
    scale: Scale,
    segment: u64,
    tracer: Option<&SharedTracer>,
) -> TraceRun {
    let cfg = system_config(memory);
    let label = cfg.memory.label();
    let (run_span, step_span) = match label.as_str() {
        "oram" => ("perf.run", "sim.step.oram"),
        "dyn" => ("perf.run", "sim.step.dyn"),
        "dram" => ("perf.run_dram", "sim.step.dram"),
        other => panic!("no span names for memory system '{other}'"),
    };
    let enter = |name| {
        if let Some(t) = tracer {
            let mut t = t.borrow_mut();
            t.next_op();
            t.enter(name);
        }
    };
    let exit = || {
        if let Some(t) = tracer {
            t.borrow_mut().exit();
        }
    };
    let t0 = Instant::now();
    let mut workload = suite::build(spec(trace), scale);
    let mut sys = System::build(&cfg, workload.footprint_bytes());
    let built = t0.elapsed().as_nanos() as u64;
    for _ in 0..scale.warmup_ops {
        sys.step(workload.next_op().expect("trace shorter than its warm-up"));
    }
    let setup_ns = [built, t0.elapsed().as_nanos() as u64 - built];

    let cycles0 = sys.now();
    let backend0 = sys.memory().stats();
    let mut hist = Histogram::new();
    let mut prev = cycles0;
    let mut segments_ns = Vec::new();
    enter(run_span);
    let mut left = scale.ops;
    while left > 0 {
        let n = left.min(segment);
        enter(step_span);
        let t = Instant::now();
        for _ in 0..n {
            let op = workload.next_op().expect("trace shorter than its scale");
            sys.step(op);
            let now = sys.now();
            hist.record(now - prev);
            prev = now;
        }
        segments_ns.push(t.elapsed().as_nanos() as u64);
        exit();
        left -= n;
    }
    exit();
    let cycles = sys.now() - cycles0;
    let backend = sys.memory().stats().since(backend0);
    let metrics = sys.finish();
    assert!(
        metrics.stage_cycles_consistent(),
        "{trace}: per-stage cycles do not sum to the backend's busy cycles"
    );
    assert_eq!(metrics.trace_ops, scale.total_ops(), "{trace}: ops lost");
    TraceRun {
        trace,
        label,
        ops: scale.ops,
        setup_ns,
        segments_ns,
        cycles,
        backend,
        metrics,
        hist,
    }
}

impl TraceRun {
    fn digest_into(&self, h: &mut Fnv) {
        h.str(self.trace);
        h.str(&self.label);
        let b = &self.backend;
        let m = &self.metrics;
        for v in [
            self.ops,
            self.cycles,
            b.demand_accesses,
            b.prefetch_requests,
            b.physical_accesses,
            b.dummy_accesses,
            b.posmap_accesses,
            b.bytes_moved,
            b.prefetch_hits,
            b.prefetch_misses,
            b.busy_cycles,
            b.data_path_cycles,
            b.posmap_path_cycles,
            b.dummy_path_cycles,
            b.treetop_hits,
            b.treetop_bytes_saved,
            m.cycles,
            m.trace_ops,
            m.demand_fetches,
            m.writebacks,
            m.unused_prefetch_evictions,
            m.caches.l1.hits,
            m.caches.l1.misses,
            m.caches.l2.hits,
            m.caches.l2.misses,
            m.caches.l2.evictions,
            m.caches.l2.dirty_evictions,
        ] {
            h.u64(v);
        }
        for (v, n) in self.hist.iter() {
            h.u64(v);
            h.u64(n);
        }
    }
}

/// Fewest per-op samples a p99 is reported from: about 1 000 then lie
/// beyond it, so it is a percentile and not the maximum.
pub const P99_MIN_SAMPLES: u64 = 100_000;

/// `sim_cycles_p99` of the per-op cycle histogram (nearest rank), with
/// the sample count and how many samples lie beyond it. A repetition
/// that times fewer than [`P99_MIN_SAMPLES`] ops has no p99 (`n/a`): on
/// the `ctrl_*` workloads (10 000 / 5 000 accesses of 1 to 3 paths each,
/// nearly all of them 3) it would be the maximum, the same for every
/// seed, and could not show a tail regression.
fn tail_into(sim: &mut BTreeMap<String, f64>, hist: &Histogram) {
    let p99 = hist.quantile(0.99).unwrap_or(0);
    let beyond: u64 = hist.iter().filter(|&(v, _)| v > p99).map(|(_, n)| n).sum();
    if hist.total() >= P99_MIN_SAMPLES {
        sim.insert("sim_cycles_p99".into(), p99 as f64);
    }
    sim.insert("p99_samples".into(), hist.total() as f64);
    sim.insert("p99_samples_beyond".into(), beyond as f64);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sim_rep(oram_bound: bool, seed: u64, sizes: &Sizes, tracer: Option<&SharedTracer>) -> Rep {
    let (traces, ops, warmup, segment) = if oram_bound {
        (
            ORAM_BOUND_TRACES,
            sizes.sim_oram_ops,
            sizes.sim_oram_warmup,
            sizes.sim_oram_segment,
        )
    } else {
        (
            CACHE_BOUND_TRACES,
            sizes.sim_cache_ops,
            sizes.sim_cache_warmup,
            sizes.sim_cache_segment,
        )
    };
    let scale = scale(ops, warmup, seed);
    // `oram` then `dyn` on every trace of the ORAM-bound workload; `dyn`
    // alone where the ORAM idles.
    let mut runs: Vec<TraceRun> = Vec::new();
    for trace in traces {
        let schemes: &[SchemeConfig] = if oram_bound {
            &[SchemeConfig::baseline(), SchemeConfig::dynamic(2)]
        } else {
            &[SchemeConfig::dynamic(2)]
        };
        for scheme in schemes {
            let memory = MemoryKind::Oram(scheme.clone());
            runs.push(run_trace(trace, memory, scale, segment, tracer));
        }
    }

    let mut rep = Rep::default();
    let mut digest = Fnv::default();
    let mut hist = Histogram::new();
    let dyn_runs: Vec<&TraceRun> = runs.iter().filter(|r| r.label == "dyn").collect();
    for r in &runs {
        rep.setup_ns.extend(r.setup_ns);
        rep.segments_ns.extend(&r.segments_ns);
        rep.timed_ops += r.ops;
        // An op fails when the backend degraded it after an unrecovered
        // fault; nothing injects faults here, so any is a bug.
        rep.failed += r.metrics.backend.faults.unrecovered;
        r.digest_into(&mut digest);
    }
    rep.attempted = rep.timed_ops;
    rep.digest = digest.0;

    // Simulated clock. For the ORAM-bound workload the headline numbers
    // are the `dyn` runs' (the design the paper proposes); the `oram`
    // runs are the base of `dyn_speedup`.
    let dyn_ops: u64 = dyn_runs.iter().map(|r| r.ops).sum();
    let dyn_cycles: u64 = dyn_runs.iter().map(|r| r.cycles).sum();
    let dyn_bytes: u64 = dyn_runs.iter().map(|r| r.backend.bytes_moved).sum();
    for r in &dyn_runs {
        hist.merge(&r.hist);
    }
    rep.sim
        .insert("sim_cycles_per_op".into(), ratio(dyn_cycles, dyn_ops));
    rep.sim
        .insert("dram_bytes_per_op".into(), ratio(dyn_bytes, dyn_ops));
    tail_into(&mut rep.sim, &hist);
    if oram_bound {
        let mut speedups = Vec::new();
        for pair in runs.chunks(2) {
            let speedup = pair[0].cycles as f64 / pair[1].cycles as f64;
            rep.sim
                .insert(format!("dyn_speedup.{}", pair[0].trace), speedup);
            speedups.push(speedup);
        }
        rep.sim
            .insert("dyn_speedup".into(), geometric_mean(&speedups));
    }

    // Per-layer counts (simulated, so exact).
    let sum = |f: &dyn Fn(&TraceRun) -> u64| dyn_runs.iter().map(|r| f(r)).sum::<u64>();
    let mem_requests = sum(&|r| r.backend.demand_accesses);
    // Reads + write-backs reaching memory bound the demand fetches from
    // above, so this also proves the bypass claim.
    let mem_requests_per_kop = 1000.0 * ratio(mem_requests, dyn_ops);
    if !oram_bound {
        assert!(
            mem_requests_per_kop < 1.0,
            "sim_cache_bound is meant to bypass the ORAM, but {mem_requests_per_kop:.3} \
             memory requests per 1000 ops reached it; swap in an LLC-resident trace"
        );
    }
    let c = &mut rep.counts;
    c.insert("cache.mem_requests_per_kop".into(), mem_requests_per_kop);
    // Cache counters are only visible through `finish()`, which covers
    // the whole run: these three include the warm-up ops.
    let l1_hits = sum(&|r| r.metrics.caches.l1.hits);
    let l1_all = l1_hits + sum(&|r| r.metrics.caches.l1.misses);
    c.insert("cache.l1_hit_rate".into(), ratio(l1_hits, l1_all));
    c.insert(
        "cache.llc_miss_rate".into(),
        ratio(sum(&|r| r.metrics.caches.l2.misses), l1_all),
    );
    c.insert(
        "cache.writebacks_per_kop".into(),
        1000.0
            * ratio(
                sum(&|r| r.metrics.writebacks),
                sum(&|r| r.metrics.trace_ops),
            ),
    );
    let pf_hits = sum(&|r| r.backend.prefetch_hits);
    c.insert(
        "core.prefetch_hit_rate".into(),
        ratio(pf_hits, pf_hits + sum(&|r| r.backend.prefetch_misses)),
    );
    c.insert(
        "oram.paths_per_op".into(),
        ratio(sum(&|r| r.backend.physical_accesses), dyn_ops),
    );
    c.insert(
        "oram.posmap_paths_per_op".into(),
        ratio(sum(&|r| r.backend.posmap_accesses), dyn_ops),
    );
    c.insert(
        "oram.bg_evictions_per_kop".into(),
        1000.0 * ratio(sum(&|r| r.backend.dummy_accesses), dyn_ops),
    );
    c.insert(
        "oram.treetop_hits_per_op".into(),
        ratio(sum(&|r| r.backend.treetop_hits), dyn_ops),
    );

    // What `report::layer_metrics` divides the span times by.
    for label in ["oram", "dyn"] {
        let of_label = runs.iter().filter(|r| r.label == label);
        let ops: u64 = of_label.clone().map(|r| r.ops).sum();
        let paths: u64 = of_label.map(|r| r.backend.physical_accesses).sum();
        rep.counts.insert(format!("perf.ops.{label}"), ops as f64);
        rep.counts
            .insert(format!("perf.paths.{label}"), paths as f64);
    }

    if let Some(tracer) = tracer {
        // Per trace one DRAM pass (generator + cache + engine share of a
        // step) and one generator-only pass, after the main pass.
        for trace in traces {
            run_trace(trace, MemoryKind::Dram, scale, segment, Some(tracer));
            generator_pass(trace, scale, segment, tracer);
        }
        record_spans(&mut rep, tracer);
    }
    rep
}

/// Moves the tracer's spans into `rep` as self time per name and op.
fn record_spans(rep: &mut Rep, tracer: &SharedTracer) {
    match span::self_by_op(tracer.borrow().spans()) {
        Ok(by_name) => {
            rep.spans = by_name
                .into_iter()
                .map(|(name, t)| (name.to_owned(), t))
                .collect();
        }
        Err(e) => rep.split_invalid = Some(e),
    }
}

/// The trace generator alone, spanned per segment: `next_op` over the
/// measured region of one trace, nothing consuming the ops.
fn generator_pass(trace: &'static str, scale: Scale, segment: u64, tracer: &SharedTracer) {
    let mut workload = suite::build(spec(trace), scale);
    for _ in 0..scale.warmup_ops {
        std::hint::black_box(workload.next_op());
    }
    let enter = |name| {
        let mut t = tracer.borrow_mut();
        t.next_op();
        t.enter(name);
    };
    enter("perf.run_generator");
    let mut left = scale.ops;
    while left > 0 {
        let n = left.min(segment);
        enter("workloads.next_op");
        for _ in 0..n {
            std::hint::black_box(workload.next_op().expect("trace shorter than its scale"));
        }
        tracer.borrow_mut().exit();
        left -= n;
    }
    tracer.borrow_mut().exit();
}

/// Small-scale proof that the benchmark's own step loop is the same
/// experiment as `runner::run_spec`: cycles, physical accesses and bytes
/// of the measured region with a warm-up, and demand fetches without
/// one (the only window `System::finish` reports them for), must all be
/// exactly equal.
///
/// # Errors
///
/// Names the first counter that differs.
pub fn cross_check(seed: u64) -> Result<(), String> {
    let memory = MemoryKind::Oram(SchemeConfig::dynamic(2));
    for warmup in [1_500, 0] {
        let scale = scale(6_000, warmup, seed);
        let theirs =
            proram_sim::runner::run_spec(spec("radix"), scale, &system_config(memory.clone()));
        let ours = run_trace("radix", memory.clone(), scale, 4_096, None);
        let mut pairs = vec![
            ("cycles", ours.cycles, theirs.cycles),
            (
                "physical_accesses",
                ours.backend.physical_accesses,
                theirs.backend.physical_accesses,
            ),
            (
                "bytes_moved",
                ours.backend.bytes_moved,
                theirs.backend.bytes_moved,
            ),
        ];
        if warmup == 0 {
            pairs.push((
                "demand_fetches",
                ours.metrics.demand_fetches,
                theirs.demand_fetches,
            ));
        }
        for (name, a, b) in pairs {
            if a != b {
                return Err(format!(
                    "own step loop {name} = {a}, runner::run_spec = {b} (warm-up {warmup})"
                ));
            }
        }
    }
    Ok(())
}

/// FNV hash of the first `n` ops of a trace: the unit tests' evidence
/// that the seed, and only the seed, selects the inputs.
#[cfg(test)]
fn trace_hash(trace: &str, seed: u64, n: u64) -> u64 {
    let mut w = suite::build(spec(trace), scale(n, 0, seed));
    let mut h = Fnv::default();
    while let Some(op) = w.next_op() {
        h.u64(op.addr);
        h.u64(u64::from(op.comp_cycles) << 1 | u64::from(op.write));
    }
    h.0
}

// --------------------------------------------------------------- ctrl_*

/// The controller configuration of `ctrl_encrypted` (and, with
/// `durable`, `ctrl_durable`): 2^16 blocks, posmap fanout 8, real
/// payloads in an encrypted image. `verify_image` is on so the read
/// half's decrypt + MAC is paid — the number a controller that owns only
/// the image would see. `payloads = false` is the opaque twin used as
/// the base of `storage.encrypted_minus_opaque_ns`.
pub fn ctrl_config(durable: bool, payloads: bool) -> OramConfig {
    let mut b = OramConfig::builder()
        .num_data_blocks(CTRL_BLOCKS)
        .entries_per_posmap_block(8)
        .store_payloads(payloads)
        .verify_image(payloads)
        .trace_capacity(0);
    if durable {
        // Undo journal + checkpoints A/B armed; the kill never fires.
        b = b.crash(CrashConfig::at(KillPoint::MidFlip, u64::MAX));
    }
    b.build().expect("controller configuration is valid")
}

/// Fills `out` with the payload of `addr` at `version`; version 0 is the
/// never-written block, which reads back as zeros.
pub fn fill_payload(addr: u64, version: u32, out: &mut [u8]) {
    if version == 0 {
        out.fill(0);
        return;
    }
    let mut rng = SplitMix64::new(addr << 32 | u64::from(version));
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
}

/// The controller address stream: uniform-random data blocks, strictly
/// alternating write / read, with the shadow versions needed to check
/// every read.
pub struct Stream {
    rng: Xoshiro256,
    versions: Vec<u32>,
    issued: u64,
    hash: Fnv,
    buf: Vec<u8>,
    expect: Vec<u8>,
}

impl Stream {
    pub fn new(seed: u64, block_bytes: usize) -> Self {
        Stream {
            rng: Xoshiro256::seed_from(seed),
            versions: vec![0; CTRL_BLOCKS as usize],
            issued: 0,
            hash: Fnv::default(),
            buf: vec![0; block_bytes],
            expect: vec![0; block_bytes],
        }
    }

    /// The next `(address, is_write)`.
    pub fn next_access(&mut self) -> (u64, bool) {
        let addr = self.rng.next_below(CTRL_BLOCKS);
        let write = self.issued.is_multiple_of(2);
        self.issued += 1;
        self.hash.u64(addr << 1 | u64::from(write));
        (addr, write)
    }

    /// Hash of every access issued so far.
    pub fn hash(&self) -> u64 {
        self.hash.0
    }

    /// Issues the next access with a real payload and checks what comes
    /// back. Returns `true` if the op failed: a typed `OramError`, or a
    /// read whose bytes differ from the last write to that address.
    pub fn drive(&mut self, oram: &mut PathOram) -> bool {
        let (addr, write) = self.next_access();
        self.issue(oram, addr, write)
    }

    fn issue(&mut self, oram: &mut PathOram, addr: u64, write: bool) -> bool {
        let slot = addr as usize;
        if write {
            let version = self.versions[slot] + 1;
            fill_payload(addr, version, &mut self.buf);
            match oram.try_write_block(BlockAddr(addr), &self.buf) {
                Ok(()) => {
                    self.versions[slot] = version;
                    false
                }
                Err(_) => true,
            }
        } else {
            fill_payload(addr, self.versions[slot], &mut self.expect);
            !matches!(oram.try_read_block(BlockAddr(addr)), Ok(Some(bytes)) if bytes == self.expect)
        }
    }
}

/// Counter snapshot of a controller at the start of the timed region.
#[derive(Clone, Copy)]
struct CtrlBase {
    stats: OramStats,
    plb: (u64, u64),
}

impl CtrlBase {
    fn of(oram: &PathOram) -> Self {
        CtrlBase {
            stats: oram.oram_stats(),
            plb: oram.plb_stats(),
        }
    }
}

/// Simulated-clock results, counts and digest shared by the untraced and
/// the traced controller pass.
fn ctrl_results(rep: &mut Rep, oram: &PathOram, base: CtrlBase, hist: &Histogram, stream: &Stream) {
    let ops = rep.timed_ops;
    let s = oram.oram_stats();
    let paths = s.total_path_accesses() - base.stats.total_path_accesses();
    rep.sim.insert(
        "sim_cycles_per_op".into(),
        ratio(paths * oram.path_cycles(), ops),
    );
    rep.sim.insert(
        "dram_bytes_per_op".into(),
        ratio(s.bytes_moved - base.stats.bytes_moved, ops),
    );
    tail_into(&mut rep.sim, hist);

    let posmap = s.posmap_path_accesses - base.stats.posmap_path_accesses;
    let evictions = s.background_evictions - base.stats.background_evictions;
    let (plb_hits, plb_misses) = oram.plb_stats();
    let (plb_hits, plb_misses) = (plb_hits - base.plb.0, plb_misses - base.plb.1);
    let c = &mut rep.counts;
    c.insert("oram.paths_per_op".into(), ratio(paths, ops));
    c.insert("oram.posmap_paths_per_op".into(), ratio(posmap, ops));
    c.insert(
        "oram.plb_hit_rate".into(),
        ratio(plb_hits, plb_hits + plb_misses),
    );
    c.insert(
        "oram.bg_evictions_per_kop".into(),
        1000.0 * ratio(evictions, ops),
    );
    c.insert("oram.stash_peak".into(), oram.stash().peak() as f64);
    c.insert(
        "oram.treetop_hits_per_op".into(),
        ratio(s.treetop_hits - base.stats.treetop_hits, ops),
    );

    let mut h = Fnv::default();
    for v in [
        ops,
        s.logical_accesses,
        s.data_path_accesses,
        s.posmap_path_accesses,
        s.background_evictions,
        s.bytes_moved,
        s.treetop_hits,
        plb_hits,
        plb_misses,
        oram.stash().peak() as u64,
        oram.state_digest(),
        stream.hash(),
    ] {
        h.u64(v);
    }
    for (v, n) in hist.iter() {
        h.u64(v);
        h.u64(n);
    }
    rep.digest = h.0;
}

fn ctrl_rep(durable: bool, seed: u64, sizes: &Sizes, tracer: Option<&SharedTracer>) -> Rep {
    let ops = if durable {
        sizes.ctrl_durable_ops
    } else {
        sizes.ctrl_encrypted_ops
    };
    match tracer {
        None => ctrl_untraced(durable, seed, ops, sizes),
        Some(t) => ctrl_traced(durable, seed, ops, sizes, t),
    }
}

/// `PathOram` driven directly as a library, payloads checked on every
/// read.
fn ctrl_untraced(durable: bool, seed: u64, ops: u64, sizes: &Sizes) -> Rep {
    let cfg = ctrl_config(durable, true);
    let mut stream = Stream::new(seed, cfg.timing.block_bytes as usize);
    let mut rep = Rep::default();

    let t0 = Instant::now();
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    rep.setup_ns.push(t0.elapsed().as_nanos() as u64);
    let mut warmup_failed = 0;
    let mut left = sizes.ctrl_warmup;
    while left > 0 {
        let n = left.min(sizes.ctrl_segment);
        let t = Instant::now();
        for _ in 0..n {
            warmup_failed += u64::from(stream.drive(&mut oram));
        }
        rep.setup_ns.push(t.elapsed().as_nanos() as u64);
        left -= n;
    }

    let base = CtrlBase::of(&oram);
    let path_cycles = oram.path_cycles();
    let mut hist = Histogram::new();
    let mut prev_paths = base.stats.total_path_accesses();
    let mut left = ops;
    while left > 0 {
        let n = left.min(sizes.ctrl_segment);
        let t = Instant::now();
        for _ in 0..n {
            rep.failed += u64::from(stream.drive(&mut oram));
            let paths = oram.oram_stats().total_path_accesses();
            hist.record((paths - prev_paths) * path_cycles);
            prev_paths = paths;
        }
        rep.segments_ns.push(t.elapsed().as_nanos() as u64);
        left -= n;
    }
    rep.timed_ops = ops;
    rep.attempted = ops + sizes.ctrl_warmup;
    rep.failed += warmup_failed;
    // A failed final check fails the whole run: both panic.
    oram.check_invariants();
    oram.audit_full();
    ctrl_results(&mut rep, &oram, base, &hist, &stream);
    rep
}

/// The same address stream through
/// `SuperBlockOram::from_backend(Spanned(PathOram), baseline())`, one
/// `core.access` span per access with the `oram.*` primitives as its
/// children.
fn ctrl_traced(durable: bool, seed: u64, ops: u64, sizes: &Sizes, tracer: &SharedTracer) -> Rep {
    let cfg = ctrl_config(durable, true);
    let mut stream = Stream::new(seed, cfg.timing.block_bytes as usize);
    let mut rep = Rep::default();
    tracer.borrow_mut().set_enabled(false);

    let t0 = Instant::now();
    let backend = Spanned::new(PathOram::new(cfg, ORAM_SEED), tracer.clone());
    let mut core = SuperBlockOram::from_backend(backend, SchemeConfig::baseline());
    let mut now = 0;
    let mut access = |core: &mut SuperBlockOram<Spanned<PathOram>>, stream: &mut Stream| {
        let (addr, write) = stream.next_access();
        let req = if write {
            MemRequest::write(BlockAddr(addr))
        } else {
            MemRequest::read(BlockAddr(addr))
        };
        tracer.borrow_mut().enter("core.access");
        let outcome = core.access(now, req, &NoProbe);
        tracer.borrow_mut().exit();
        now = outcome.complete_at;
    };
    for _ in 0..sizes.ctrl_warmup {
        access(&mut core, &mut stream);
    }
    rep.setup_ns.push(t0.elapsed().as_nanos() as u64);

    let base = CtrlBase::of(core.oram().inner());
    let faults0 = core.stats().faults.unrecovered;
    let path_cycles = core.oram().inner().path_cycles();
    let mut hist = Histogram::new();
    let mut prev_paths = base.stats.total_path_accesses();
    tracer.borrow_mut().set_enabled(true);
    let mut done = 0;
    while done < ops {
        let n = (ops - done).min(sizes.ctrl_segment);
        tracer.borrow_mut().set_op(done / sizes.ctrl_segment);
        tracer.borrow_mut().enter("perf.segment");
        for _ in 0..n {
            access(&mut core, &mut stream);
            let paths = core.oram().inner().oram_stats().total_path_accesses();
            hist.record((paths - prev_paths) * path_cycles);
            prev_paths = paths;
        }
        tracer.borrow_mut().exit();
        done += n;
    }
    rep.timed_ops = ops;
    rep.attempted = ops;
    rep.failed = core.stats().faults.unrecovered - faults0;
    let oram = core.oram().inner();
    oram.check_invariants();
    oram.audit_full();
    ctrl_results(&mut rep, oram, base, &hist, &stream);

    rep.segments_ns = tracer
        .borrow()
        .spans()
        .iter()
        .filter(|s| s.name == "perf.segment")
        .map(|s| s.duration_ns())
        .collect();
    record_spans(&mut rep, tracer);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for trace in ["radix", "YCSB", "water_ns"] {
            assert_eq!(trace_hash(trace, 7, 2_000), trace_hash(trace, 7, 2_000));
            assert_ne!(trace_hash(trace, 7, 2_000), trace_hash(trace, 8, 2_000));
        }
        let stream_hash = |seed| {
            let mut s = Stream::new(seed, 128);
            for _ in 0..2_000 {
                s.next_access();
            }
            s.hash()
        };
        assert_eq!(stream_hash(7), stream_hash(7));
        assert_ne!(stream_hash(7), stream_hash(8));
    }

    #[test]
    fn stream_alternates_write_then_read_within_the_tree() {
        let mut s = Stream::new(1, 128);
        for i in 0..100 {
            let (addr, write) = s.next_access();
            assert!(addr < CTRL_BLOCKS);
            assert_eq!(write, i % 2 == 0);
        }
    }

    #[test]
    fn payload_depends_on_address_and_version() {
        let mut a = [0u8; 128];
        let mut b = [0u8; 128];
        fill_payload(5, 0, &mut a);
        assert!(a.iter().all(|&x| x == 0));
        fill_payload(5, 1, &mut a);
        fill_payload(5, 2, &mut b);
        assert_ne!(a, b);
        fill_payload(6, 1, &mut b);
        assert_ne!(a, b);
        fill_payload(5, 1, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn a_wrong_read_back_counts_as_a_failed_op() {
        let mut oram = PathOram::new(ctrl_config(false, true), ORAM_SEED);
        let mut s = Stream::new(3, 128);
        assert!(
            !s.issue(&mut oram, 9, false),
            "an unwritten block reads as zeros"
        );
        assert!(!s.issue(&mut oram, 9, true));
        assert!(!s.issue(&mut oram, 9, false), "reads back what was written");
        // Forge the shadow copy: the controller now returns "wrong" bytes.
        s.versions[9] += 1;
        assert!(s.issue(&mut oram, 9, false));
    }

    #[test]
    fn rep_survives_the_child_to_parent_hop_exactly() {
        let rep = run_rep(CTRL_ENCRYPTED, 5, &Sizes::QUICK, None);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.segments_ns.len(), 5);
        let back = Rep::from_json(&Json::parse(&rep.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back, rep);

        let trace = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test_trace.jsonl");
        let traced = run_rep(CTRL_ENCRYPTED, 5, &Sizes::QUICK, Some(&trace));
        assert_eq!(traced.split_invalid, None);
        assert_eq!(traced.spans["perf.segment"].self_ns.len(), 5);
        assert_eq!(
            traced.spans["core.access"].calls,
            Sizes::QUICK.ctrl_encrypted_ops
        );
        let back = Rep::from_json(&Json::parse(&traced.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back, traced);
        let lines = std::fs::read_to_string(&trace).unwrap();
        assert!(lines.lines().all(|l| Json::parse(l).is_ok()));
    }

    #[test]
    fn own_step_loop_reproduces_run_spec() {
        cross_check(42).expect("identical experiment");
    }

    #[test]
    fn simulated_results_repeat_exactly_and_follow_the_seed() {
        let a = run_rep(SIM_ORAM_BOUND, 11, &Sizes::QUICK, None);
        let b = run_rep(SIM_ORAM_BOUND, 11, &Sizes::QUICK, None);
        let c = run_rep(SIM_ORAM_BOUND, 12, &Sizes::QUICK, None);
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.failed, 0);
        assert!(a.sim.contains_key("dyn_speedup.YCSB"));
    }
}
