//! The metric catalogue, the host record, and the reduction of
//! repetitions to named metrics.

use crate::est;
use crate::json::Json;
use crate::workloads::{Rep, CTRL_DURABLE, CTRL_ENCRYPTED, SIM_CACHE_BOUND, SIM_ORAM_BOUND};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What `BENCHMARK.json` asks the driver to pass as `--seconds`.
pub const RUN_SECONDS: u64 = 24;

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    /// `host` or `simulated`.
    pub clock: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may worsen between two
    /// `perf run` reports of one seed before `perf compare` calls it a
    /// regression: the issue's bounds.
    pub bound: f64,
    /// Absolute slack in the metric's unit (the larger of the two
    /// applies): 20 ms of set-up is noise whatever the base.
    pub abs_slack: f64,
    /// The bound `BENCHMARK.json` carries, for metrics that can be in
    /// its `end_to_end` list (defined, and never 0, on every workload).
    /// The driver compares single runs of *different* seeds, so these
    /// are wider than `bound`; see [`END_TO_END`].
    pub driver_bound: Option<f64>,
}

/// The eight end-to-end metrics, per workload.
///
/// `bound` is the issue's: it holds between two `perf run` reports of one
/// seed (R = 24, round-robin), where simulated metrics repeat exactly and
/// any difference at all is real. `driver_bound` is wider and **departs
/// from the issue's acceptance criteria**: the driver compares single
/// 24-second runs over ten different seeds, a bound must be three times
/// the widest inter-quartile spread seen there, and the contract caps it
/// at 25% (README, "Two sets of bounds"). Different seeds are different
/// traces, so even the exact `sim_cycles_per_op` moves by up to 1.4%
/// between them.
///
/// Four of the eight cannot be in the manifest, whose metrics must
/// exist, never be 0 and not read the same on every run, on every
/// workload: `fail_share` is 0 by design (the driver reads it from
/// `failed` / `attempted`); `dyn_speedup` exists on `sim_oram_bound`
/// only; `dram_bytes_per_op` is 0 where the ORAM idles; and
/// `sim_cycles_p99` does not exist on `ctrl_*`. `perf run` prints and
/// `perf compare` bounds all eight; the driver gets the last three as
/// per-layer metrics (`core.dyn_speedup`, `oram.dram_bytes_per_op`,
/// `sim.cycles_p99`).
pub const END_TO_END: [MetricDef; 8] = [
    MetricDef {
        name: "setup_s",
        clock: "host",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        abs_slack: 0.02,
        driver_bound: Some(0.25),
    },
    MetricDef {
        name: "ops_per_s",
        clock: "host",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.08,
        abs_slack: 0.0,
        driver_bound: Some(0.25),
    },
    MetricDef {
        name: "peak_rss_mb",
        clock: "host",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        abs_slack: 0.0,
        driver_bound: Some(0.10),
    },
    MetricDef {
        name: "fail_share",
        clock: "-",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        abs_slack: 0.0,
        driver_bound: None,
    },
    MetricDef {
        name: "sim_cycles_per_op",
        clock: "simulated",
        unit: "cycles/op",
        better: Better::Lower,
        bound: 0.01,
        abs_slack: 0.0,
        driver_bound: Some(0.05),
    },
    MetricDef {
        name: "sim_cycles_p99",
        clock: "simulated",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.01,
        abs_slack: 0.0,
        driver_bound: None,
    },
    MetricDef {
        name: "dram_bytes_per_op",
        clock: "simulated",
        unit: "B/op",
        better: Better::Lower,
        bound: 0.01,
        abs_slack: 0.0,
        driver_bound: None,
    },
    MetricDef {
        name: "dyn_speedup",
        clock: "simulated",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        abs_slack: 0.0,
        driver_bound: None,
    },
];

/// One per-layer metric: `<module>.<metric>`, unit, direction.
pub type LayerDef = (&'static str, &'static str, Better);

/// Every per-layer metric a traced run reports. A metric whose layer a
/// workload does not exercise, or that cannot be observed from outside
/// on that workload, reads 0 there (README, "Per-layer metrics").
pub const PER_LAYER: [LayerDef; 54] = [
    ("workloads.next_op_ns", "ns", Better::Lower),
    ("sim.step_ns", "ns", Better::Lower),
    ("sim.step_dram_ns", "ns", Better::Lower),
    ("sim.cycles_p99", "cycles", Better::Lower),
    ("cache.l1_hit_rate", "ratio", Better::Higher),
    ("cache.llc_miss_rate", "ratio", Better::Lower),
    ("cache.writebacks_per_kop", "1/kop", Better::Lower),
    ("cache.mem_requests_per_kop", "1/kop", Better::Lower),
    ("core.backend_ns_per_path.oram", "ns", Better::Lower),
    ("core.backend_ns_per_path.dyn", "ns", Better::Lower),
    ("core.access_self_ns", "ns", Better::Lower),
    ("core.access_self_ns.baseline", "ns", Better::Lower),
    ("core.merges_per_kop", "1/kop", Better::Higher),
    ("core.breaks_per_kop", "1/kop", Better::Lower),
    ("core.prefetch_hit_rate", "ratio", Better::Higher),
    ("core.dyn_speedup", "ratio", Better::Higher),
    ("oram.resolve_posmap_ns", "ns", Better::Lower),
    ("oram.resolve_posmap_calls_per_op", "1/op", Better::Lower),
    ("oram.read_path_ns", "ns", Better::Lower),
    ("oram.read_path_calls_per_op", "1/op", Better::Lower),
    ("oram.write_path_ns", "ns", Better::Lower),
    ("oram.write_path_calls_per_op", "1/op", Better::Lower),
    ("oram.background_evict_ns", "ns", Better::Lower),
    ("oram.background_evict_calls_per_op", "1/op", Better::Lower),
    ("oram.txn_ns", "ns", Better::Lower),
    ("oram.txn_calls_per_op", "1/op", Better::Lower),
    ("oram.paths_per_op", "1/op", Better::Lower),
    ("oram.posmap_paths_per_op", "1/op", Better::Lower),
    ("oram.plb_hit_rate", "ratio", Better::Higher),
    ("oram.bg_evictions_per_kop", "1/kop", Better::Lower),
    ("oram.stash_peak", "count", Better::Lower),
    ("oram.treetop_hits_per_op", "1/op", Better::Higher),
    ("oram.dram_bytes_per_op", "B/op", Better::Lower),
    ("eviction.read_path_ns", "ns", Better::Lower),
    ("eviction.write_path_ns", "ns", Better::Lower),
    ("storage.write_path_ns", "ns", Better::Lower),
    ("storage.read_path_ns", "ns", Better::Lower),
    ("storage.verify_path_ns", "ns", Better::Lower),
    ("crypto.cipher_gbps", "GB/s", Better::Higher),
    ("crypto.mac_gbps", "GB/s", Better::Higher),
    ("ctrl.opaque_access_ns", "ns", Better::Lower),
    ("ctrl.encrypted_access_ns", "ns", Better::Lower),
    ("storage.encrypted_minus_opaque_ns", "ns", Better::Lower),
    ("journal.durable_minus_encrypted_ns", "ns", Better::Lower),
    ("crash.recover_ms", "ms", Better::Lower),
    ("crash.recover_cycles", "cycles", Better::Lower),
    ("par.pool_dispatch_ns", "ns", Better::Lower),
    ("par.shard_batch_speedup_2t", "ratio", Better::Higher),
    ("obs.ring_overhead_share", "ratio", Better::Lower),
    ("obs.events_per_op", "1/op", Better::Lower),
    ("obs.ring_dropped", "count", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("perf.driver_ns", "ns", Better::Lower),
    ("perf.driver_share", "ratio", Better::Lower),
];

/// Why each workload exists (one line each; also `BENCHMARK.json`).
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        SIM_ORAM_BOUND,
        "radix, ocean_nc, YCSB, mcf under oram then dyn: LLC misses dominate, so core + oram do the work and crypto none; the paper's use case and the base of dyn_speedup",
    ),
    (
        SIM_CACHE_BOUND,
        "water_ns, water_s, h264, hmmer under dyn: LLC-resident, the ORAM idles; trace generators, cache model and engine loop do all the work, so ORAM-side changes must not move it",
    ),
    (
        CTRL_ENCRYPTED,
        "PathOram as a library, 2^16 blocks, encrypted image with verify_image, uniform addresses (PLB misses): storage + crypto do ~90% of the work; payload checked on every read",
    ),
    (
        CTRL_DURABLE,
        "ctrl_encrypted plus the undo journal and A/B checkpoints armed but never fired: the steady-state cost of the commit protocol, so crypto and journaling gains cannot hide each other",
    ),
];

/// The only per-benchmark figure of the paper the repository holds, and
/// the repository's own `results/experiments_standard.txt` rows (Figure
/// 8, `dyn` over `oram`, standard scale: 150k ops after 50k warm-up,
/// seed 42). Traces without a paper figure are unvalidated: no error is
/// invented for them.
pub const DYN_SPEEDUP_REFERENCE: [(&str, Option<f64>, f64); 4] = [
    ("radix", None, 1.389),
    ("ocean_nc", None, 1.120),
    ("YCSB", Some(1.236), 1.113),
    ("mcf", None, 0.996),
];

/// Who measured, on what.
pub fn host_json() -> Json {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("cpu", cpu)
        .with("rustc", cmd("rustc", &["-V"]))
        .with("git_commit", cmd("git", &["rev-parse", "HEAD"]))
}

/// One end-to-end metric of one workload.
#[derive(Debug, Clone)]
pub struct E2e {
    pub def: MetricDef,
    /// `None` where the metric does not exist on this workload.
    pub value: Option<f64>,
    /// One value per repetition, before any denoising (host clock only).
    pub raw: Vec<f64>,
}

impl E2e {
    /// Inter-quartile spread of the raw per-repetition values as a share
    /// of their median: the noise floor next to the denoised value.
    pub fn raw_spread(&self) -> f64 {
        est::spread(&self.raw)
    }
}

/// The untraced repetitions of one workload, reduced.
#[derive(Debug, Clone)]
pub struct Summary {
    pub workload: String,
    pub reps: usize,
    pub timed_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<E2e>,
    pub sim: BTreeMap<String, f64>,
    pub sim_digest: u64,
}

impl Summary {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.def.name == name)?.value
    }
}

/// Reduces the repetitions of one workload to its end-to-end metrics.
///
/// # Panics
///
/// Panics if `reps` is empty, or if two repetitions disagree on any
/// simulated-clock value, count or digest: the workloads are
/// deterministic for a seed, so a difference is a bug in the program or
/// the benchmark, never noise.
pub fn summarize(workload: &str, reps: &[Rep]) -> Summary {
    let first = reps.first().expect("at least one repetition");
    for r in reps {
        assert_eq!(
            r.sim, first.sim,
            "{workload}: simulated metrics differ between repetitions"
        );
        assert_eq!(
            r.counts, first.counts,
            "{workload}: counts differ between repetitions"
        );
        assert_eq!(
            r.digest, first.digest,
            "{workload}: sim_digest differs between repetitions"
        );
        assert_eq!(r.timed_ops, first.timed_ops, "{workload}: op counts differ");
    }
    let denoised_s = denoised(reps) / 1e9;
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let e2e = END_TO_END
        .iter()
        .map(|&def| {
            let (value, raw) = match def.name {
                // Set-up is cut into fixed phases too (construct, warm-up
                // chunks) and denoised the same way as the timed region.
                "setup_s" => {
                    let phases: Vec<&[u64]> = reps.iter().map(|r| r.setup_ns.as_slice()).collect();
                    (
                        Some(est::denoised_ns(&phases) as f64 / 1e9),
                        per_rep(&|r| r.setup_s()),
                    )
                }
                "ops_per_s" => (
                    Some(first.timed_ops as f64 / denoised_s),
                    per_rep(&|r| r.timed_ops as f64 / (r.total_ns() as f64 / 1e9)),
                ),
                "peak_rss_mb" => {
                    let raw = per_rep(&|r| r.peak_rss_mb);
                    (Some(raw.iter().copied().fold(0.0, f64::max)), raw)
                }
                "fail_share" => (Some(failed as f64 / attempted.max(1) as f64), Vec::new()),
                sim => (first.sim.get(sim).copied(), Vec::new()),
            };
            E2e { def, value, raw }
        })
        .collect();
    Summary {
        workload: workload.to_owned(),
        reps: reps.len(),
        timed_ops: first.timed_ops,
        attempted,
        failed,
        e2e,
        sim: first.sim.clone(),
        sim_digest: first.digest,
    }
}

/// `num / den`, 0 when there is nothing to divide by.
fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn denoised(reps: &[Rep]) -> f64 {
    let segments: Vec<&[u64]> = reps.iter().map(|r| r.segments_ns.as_slice()).collect();
    est::denoised_ns(&segments) as f64
}

/// The per-layer metrics of one workload: the traced passes' spans and
/// counts, the workload-independent kernels, and the tracing overhead.
/// Every catalogue name gets a value; see [`PER_LAYER`] for what 0 means.
///
/// A traced pass is deterministic, so chunk `k` of a span name's self
/// time is identical work in every pass and gets the same
/// segment-minimum across passes as the timed region. The overhead
/// compares the traced passes with as many untraced ones, the first of
/// `untraced`: the callers alternate the two kinds, so these ran next to
/// the traced passes in time.
///
/// The second result lists why parts of the split are not reported
/// (empty when everything is).
pub fn layer_metrics(
    workload: &str,
    untraced: &[Rep],
    traced: &[Rep],
    kernels: &BTreeMap<String, f64>,
) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut problems = Vec::new();
    let base = untraced.first().expect("an untraced repetition");
    let first = traced.first().expect("a traced pass");
    let sim = workload.starts_with("sim_");
    if let Some(why) = traced.iter().find_map(|r| r.split_invalid.as_ref()) {
        problems.push(format!("span nesting broken: {why}"));
    }
    let same_tree = |r: &Rep| {
        r.spans.len() == first.spans.len()
            && r.spans.iter().zip(&first.spans).all(|((an, a), (bn, b))| {
                an == bn && a.calls == b.calls && a.self_ns.len() == b.self_ns.len()
            })
    };
    if !traced.iter().all(same_tree) {
        problems.push("traced passes recorded different span trees".into());
    }
    if sim {
        // The traced pass must be the same simulation, to the cycle.
        if traced
            .iter()
            .any(|r| r.sim != base.sim || r.digest != base.digest)
        {
            problems.push("traced pass simulated different cycles than the untraced run".into());
        }
    } else {
        // The traced controller pass goes through the super-block layer
        // (no payload bytes), so it may differ slightly; beyond 1% it is
        // a different workload and its split is not reported.
        let a = base.counts.get("oram.paths_per_op").copied().unwrap_or(0.0);
        let b = first
            .counts
            .get("oram.paths_per_op")
            .copied()
            .unwrap_or(0.0);
        if a == 0.0 || ((b - a) / a).abs() > 0.01 {
            problems.push(format!(
                "traced oram.paths_per_op {b:.4} is not within 1% of the untraced {a:.4}"
            ));
        }
    }

    let mut found: BTreeMap<String, f64> = kernels.clone();
    found.extend(base.counts.clone());
    if problems.is_empty() {
        let self_ns = |name: &str| {
            let passes: Vec<&[u64]> = traced
                .iter()
                .filter_map(|r| r.spans.get(name).map(|t| t.self_ns.as_slice()))
                .collect();
            if passes.is_empty() {
                0.0
            } else {
                est::denoised_ns(&passes) as f64
            }
        };
        let count = |name: &str| base.counts.get(name).copied().unwrap_or(0.0);
        let ops = base.timed_ops as f64;
        let (driver, wall) = if sim {
            // The DRAM and the generator pass run each trace once, as the
            // `dyn` runs do.
            let once = count("perf.ops.dyn");
            let next_op = per(self_ns("workloads.next_op"), once);
            let fused = per(self_ns("sim.step.oram") + self_ns("sim.step.dyn"), ops);
            let fused_dram = per(self_ns("sim.step.dram"), once);
            found.insert("workloads.next_op_ns".into(), next_op);
            found.insert("sim.step_ns".into(), (fused - next_op).max(0.0));
            found.insert("sim.step_dram_ns".into(), (fused_dram - next_op).max(0.0));
            // Host time the memory backend adds to a step, per physical
            // path it performed: what the scheme's runs took beyond the
            // same ops against DRAM.
            for label in ["oram", "dyn"] {
                let backend = self_ns(&format!("sim.step.{label}"))
                    - fused_dram * count(&format!("perf.ops.{label}"));
                found.insert(
                    format!("core.backend_ns_per_path.{label}"),
                    per(backend.max(0.0), count(&format!("perf.paths.{label}"))),
                );
            }
            let driver = self_ns("perf.run");
            (driver, driver + fused * ops)
        } else {
            for prim in [
                "resolve_posmap",
                "read_path",
                "write_path",
                "background_evict",
                "txn",
            ] {
                let name = format!("oram.{prim}");
                let calls = first.spans.get(&name).map_or(0, |t| t.calls);
                found.insert(format!("{name}_ns"), per(self_ns(&name), ops));
                found.insert(format!("{name}_calls_per_op"), per(calls as f64, ops));
            }
            found.insert(
                "core.access_self_ns.baseline".into(),
                per(self_ns("core.access"), ops),
            );
            let wall = first.spans.keys().map(|name| self_ns(name)).sum();
            (self_ns("perf.segment"), wall)
        };
        found.insert("perf.driver_ns".into(), per(driver, ops));
        found.insert("perf.driver_share".into(), per(driver, wall));
        let near = &untraced[..traced.len().min(untraced.len())];
        found.insert(
            "trace.overhead_share".into(),
            1.0 - denoised(near) / denoised(traced),
        );
    }
    // The end-to-end metrics the manifest cannot carry, for the driver.
    for (e2e, layer) in [
        ("dyn_speedup", "core.dyn_speedup"),
        ("dram_bytes_per_op", "oram.dram_bytes_per_op"),
        ("sim_cycles_p99", "sim.cycles_p99"),
    ] {
        if let Some(&v) = base.sim.get(e2e) {
            found.insert(layer.into(), v);
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, ..)| (name.to_owned(), found.get(name).copied().unwrap_or(0.0)))
        .collect();
    (metrics, problems)
}

/// `{"value": v, "unit": u}` per metric, the shape the driver reads.
pub fn driver_metrics(values: impl Iterator<Item = (String, f64, &'static str)>) -> Json {
    Json::Obj(
        values
            .map(|(name, value, unit)| (name, Json::obj().with("value", value).with("unit", unit)))
            .collect(),
    )
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// drift (a unit test compares the committed file with this).
pub fn manifest_json() -> Json {
    let command: Vec<&str> = vec![
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    Json::obj()
        .with("command", command)
        .with("paths", vec!["perf"])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOAD_WHY
                    .iter()
                    .map(|&(name, why)| Json::obj().with("name", name).with("why", why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter_map(|d| {
                        let entry = Json::obj()
                            .with("name", d.name)
                            .with("unit", d.unit)
                            .with("better", d.better.as_str())
                            .with("bound", d.driver_bound?);
                        Some(entry)
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj()
                            .with("name", name)
                            .with("unit", unit)
                            .with("better", better.as_str())
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            assert!(d.bound <= d.driver_bound.unwrap_or(0.25));
            assert!(d.driver_bound.is_none_or(|b| b <= 0.25));
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (name, why) in WORKLOAD_WHY {
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        assert_eq!(
            END_TO_END
                .iter()
                .filter(|d| d.driver_bound.is_some() && d.name == "setup_s" && d.unit == "s")
                .count(),
            1
        );
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert_eq!(committed, manifest_json());
        assert!(text.len() <= 64 * 1024);
    }

    fn rep(setup: &[u64], segs: &[u64], rss: f64) -> Rep {
        Rep {
            setup_ns: setup.to_vec(),
            segments_ns: segs.to_vec(),
            timed_ops: 1_000,
            attempted: 1_000,
            failed: 0,
            peak_rss_mb: rss,
            sim: [("sim_cycles_per_op".to_owned(), 12.5)].into(),
            ..Rep::default()
        }
    }

    #[test]
    fn summary_uses_segment_minima_for_both_regions_and_peak_rss() {
        let reps = [
            rep(&[300_000_000, 10_000_000], &[500_000, 900_000], 10.0),
            rep(&[100_000_000, 30_000_000], &[700_000, 500_000], 12.0),
            rep(&[200_000_000, 20_000_000], &[600_000, 600_000], 11.0),
        ];
        let s = summarize("ctrl_encrypted", &reps);
        assert_eq!(s.value("setup_s"), Some(0.11));
        // 1000 ops over 0.5 ms + 0.5 ms.
        assert_eq!(s.value("ops_per_s"), Some(1_000_000.0));
        assert_eq!(s.value("peak_rss_mb"), Some(12.0));
        assert_eq!(s.value("fail_share"), Some(0.0));
        assert_eq!(s.value("sim_cycles_per_op"), Some(12.5));
        assert_eq!(s.value("dyn_speedup"), None);
        let ops = s.e2e.iter().find(|m| m.def.name == "ops_per_s").unwrap();
        assert_eq!(ops.raw.len(), 3);
        assert!(ops.raw.iter().all(|&r| r < 1_000_000.0));
        assert!(ops.raw_spread() > 0.0);
    }

    #[test]
    #[should_panic(expected = "simulated metrics differ")]
    fn diverging_simulated_results_are_a_bug_not_noise() {
        let mut b = rep(&[1], &[1], 1.0);
        b.sim.insert("sim_cycles_per_op".into(), 12.6);
        summarize("w", &[rep(&[1], &[1], 1.0), b]);
    }

    #[test]
    fn layer_metrics_cover_the_catalogue_and_gate_a_diverging_traced_pass() {
        use crate::span::SelfByOp;
        let mut base = rep(&[1], &[1_000_000], 1.0);
        base.counts.insert("oram.paths_per_op".into(), 3.0);
        let spans = |read_path: [u64; 2], segment: [u64; 2]| -> BTreeMap<String, SelfByOp> {
            let of = |calls, self_ns: [u64; 2]| SelfByOp {
                calls,
                self_ns: self_ns.to_vec(),
            };
            [
                ("oram.read_path".to_owned(), of(3_000, read_path)),
                ("perf.segment".to_owned(), of(2, segment)),
            ]
            .into()
        };
        // Two traced passes, each noisy in another chunk.
        let mut slow_first = base.clone();
        slow_first.spans = spans([900_000, 300_000], [10_000, 10_000]);
        slow_first.segments_ns = vec![1_400_000];
        let mut slow_second = base.clone();
        slow_second.spans = spans([400_000, 500_000], [30_000, 10_000]);
        slow_second.segments_ns = vec![1_250_000];
        let kernels: BTreeMap<String, f64> = [("crypto.mac_gbps".to_owned(), 0.5)].into();
        let untraced = [base.clone(), base.clone(), rep(&[1], &[1], 1.0)];
        let traced = [slow_first, slow_second.clone()];
        let (m, problems) = layer_metrics(CTRL_ENCRYPTED, &untraced, &traced, &kernels);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(m.len(), PER_LAYER.len());
        // (400 + 300) us over 1000 ops: the minimum of each chunk.
        assert_eq!(m["oram.read_path_ns"], 700.0);
        assert_eq!(m["oram.read_path_calls_per_op"], 3.0);
        assert_eq!(m["perf.driver_ns"], 20.0);
        assert!((m["perf.driver_share"] - 20.0 / 720.0).abs() < 1e-12);
        assert_eq!(m["crypto.mac_gbps"], 0.5);
        assert_eq!(m["oram.paths_per_op"], 3.0);
        // Against the two untraced repetitions that ran beside them.
        assert!((m["trace.overhead_share"] - 0.2).abs() < 1e-12);
        assert_eq!(m["sim.step_ns"], 0.0);

        let mut other_tree = slow_second.clone();
        other_tree.spans.get_mut("oram.read_path").unwrap().calls += 1;
        let (m, problems) = layer_metrics(
            CTRL_ENCRYPTED,
            &untraced,
            &[slow_second.clone(), other_tree],
            &kernels,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(m["oram.read_path_ns"], 0.0);

        slow_second.counts.insert("oram.paths_per_op".into(), 3.2);
        let (m, problems) = layer_metrics(CTRL_ENCRYPTED, &untraced, &[slow_second], &kernels);
        assert_eq!(problems.len(), 1);
        assert_eq!(
            m["oram.read_path_ns"], 0.0,
            "an invalid split is not reported"
        );
        assert_eq!(
            m["crypto.mac_gbps"], 0.5,
            "kernels do not depend on the pass"
        );
    }

    #[test]
    fn sim_layer_metrics_subtract_the_generator_and_the_dram_pass() {
        use crate::span::SelfByOp;
        let mut base = rep(&[1], &[1], 1.0);
        base.timed_ops = 2_000;
        for (name, v) in [
            ("perf.ops.oram", 1_000.0),
            ("perf.ops.dyn", 1_000.0),
            ("perf.paths.oram", 100.0),
            ("perf.paths.dyn", 50.0),
        ] {
            base.counts.insert(name.into(), v);
        }
        let mut traced = base.clone();
        for (name, ns) in [
            ("perf.run", 1_000),
            ("sim.step.oram", 250_000),
            ("sim.step.dyn", 150_000),
            ("sim.step.dram", 50_000),
            ("workloads.next_op", 20_000),
        ] {
            traced.spans.insert(
                name.into(),
                SelfByOp {
                    calls: 1,
                    self_ns: vec![ns],
                },
            );
        }
        let (m, problems) = layer_metrics(SIM_ORAM_BOUND, &[base], &[traced], &BTreeMap::new());
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(m["workloads.next_op_ns"], 20.0);
        assert_eq!(m["sim.step_ns"], 180.0);
        assert_eq!(m["sim.step_dram_ns"], 30.0);
        assert_eq!(m["core.backend_ns_per_path.oram"], 2_000.0);
        assert_eq!(m["core.backend_ns_per_path.dyn"], 2_000.0);
        assert_eq!(m["perf.driver_ns"], 0.5);
        assert!((m["perf.driver_share"] - 1_000.0 / 401_000.0).abs() < 1e-12);
    }
}
