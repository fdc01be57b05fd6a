//! The named benchmark registry used by the experiment harness.

use crate::dbms::{Tpcc, Ycsb};
use crate::pipeline::Pipelined;
use crate::trace::Workload;
use crate::{spec06, splash2};

/// Which benchmark family a spec belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Splash2-like kernels (Figure 8a).
    Splash2,
    /// SPEC06-like profiles (Figure 8b).
    Spec06,
    /// DBMS workloads (Figure 8c).
    Dbms,
}

impl Suite {
    /// Human-readable suite name.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Splash2 => "Splash2",
            Suite::Spec06 => "SPEC06",
            Suite::Dbms => "DBMS",
        }
    }
}

/// One benchmark of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Name as it appears in the paper's figures.
    pub name: &'static str,
    /// Family.
    pub suite: Suite,
    /// `true` if the paper classifies it as memory intensive.
    pub memory_intensive: bool,
}

/// Experiment scaling knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Measured trace length in memory operations (after warmup).
    pub ops: u64,
    /// Leading trace operations executed before measurement starts, so
    /// results reflect steady state rather than cold caches — the paper's
    /// long benchmark runs make warmup negligible; at simulation scale it
    /// must be excluded explicitly.
    pub warmup_ops: u64,
    /// Multiplier on each benchmark's working set.
    pub footprint_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Fast scale for CI and smoke tests.
    pub fn quick() -> Self {
        Scale {
            ops: 20_000,
            warmup_ops: 8_000,
            footprint_scale: 0.125,
            seed: 42,
        }
    }

    /// Default experiment scale (minutes for the full figure set).
    pub fn standard() -> Self {
        Scale {
            ops: 150_000,
            warmup_ops: 50_000,
            footprint_scale: 0.25,
            seed: 42,
        }
    }

    /// Total trace operations generated (warmup + measured).
    pub fn total_ops(&self) -> u64 {
        self.ops + self.warmup_ops
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::standard()
    }
}

/// All benchmarks of a suite, in the paper's figure order.
pub fn specs(suite: Suite) -> Vec<BenchSpec> {
    match suite {
        Suite::Splash2 => splash2::NAMES
            .iter()
            .map(|&name| BenchSpec {
                name,
                suite,
                memory_intensive: splash2::MEMORY_INTENSIVE.contains(&name),
            })
            .collect(),
        Suite::Spec06 => spec06::NAMES
            .iter()
            .map(|&name| BenchSpec {
                name,
                suite,
                memory_intensive: spec06::MEMORY_INTENSIVE.contains(&name),
            })
            .collect(),
        Suite::Dbms => vec![
            BenchSpec {
                name: "YCSB",
                suite,
                memory_intensive: true,
            },
            BenchSpec {
                name: "TPCC",
                suite,
                memory_intensive: false,
            },
        ],
    }
}

/// The benchmark named `name`, searched across all three suites (names
/// are unique across them); `None` if no suite registers it.
pub fn spec(name: &str) -> Option<BenchSpec> {
    [Suite::Splash2, Suite::Spec06, Suite::Dbms]
        .into_iter()
        .flat_map(specs)
        .find(|s| s.name == name)
}

/// Builds the named benchmark at the given scale, its generator running
/// a chunk ahead on its own thread (the `pipeline` module): the op stream
/// is the generator's, op for op, and the thread is joined when the
/// workload is dropped.
///
/// # Panics
///
/// Panics on an unknown benchmark name.
pub fn build(spec: BenchSpec, scale: Scale) -> Box<dyn Workload> {
    Box::new(Pipelined::new(generator(spec, scale)))
}

/// The named benchmark's generator, run inline by whoever calls it.
pub(crate) fn generator(spec: BenchSpec, scale: Scale) -> Box<dyn Workload + Send> {
    let ops = scale.total_ops();
    match spec.suite {
        Suite::Splash2 => Box::new(splash2::build(
            spec.name,
            scale.footprint_scale,
            ops,
            scale.seed,
        )),
        Suite::Spec06 => Box::new(spec06::build(
            spec.name,
            scale.footprint_scale,
            ops,
            scale.seed,
        )),
        Suite::Dbms => match spec.name {
            "YCSB" => {
                let records = ((100_000.0 * scale.footprint_scale) as u64).max(1_000);
                Box::new(Ycsb::new(records, 0.5, ops, scale.seed))
            }
            "TPCC" => {
                let warehouses = ((2.0 * scale.footprint_scale).round() as u64).max(1);
                Box::new(Tpcc::new(warehouses, ops, scale.seed))
            }
            other => panic!("unknown DBMS benchmark '{other}'"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_counts_match_paper_figures() {
        assert_eq!(specs(Suite::Splash2).len(), 14);
        assert_eq!(specs(Suite::Spec06).len(), 10);
        assert_eq!(specs(Suite::Dbms).len(), 2);
    }

    #[test]
    fn every_spec_builds_and_produces_its_trace() {
        let scale = Scale {
            ops: 200,
            warmup_ops: 0,
            footprint_scale: 0.03,
            seed: 1,
        };
        for suite in [Suite::Splash2, Suite::Spec06, Suite::Dbms] {
            for spec in specs(suite) {
                let w = build(spec, scale);
                let n = w.count();
                assert_eq!(n, 200, "{} trace length", spec.name);
            }
        }
    }

    #[test]
    fn names_are_unique_across_the_suites() {
        let all: Vec<BenchSpec> = [Suite::Splash2, Suite::Spec06, Suite::Dbms]
            .into_iter()
            .flat_map(specs)
            .collect();
        let names: std::collections::HashSet<&str> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len(), "a name is registered twice");
        for s in &all {
            assert_eq!(spec(s.name), Some(*s));
        }
        assert_eq!(spec("no_such_benchmark"), None);
    }

    #[test]
    fn memory_intensive_classification() {
        let splash = specs(Suite::Splash2);
        assert_eq!(splash.iter().filter(|s| s.memory_intensive).count(), 6);
        assert!(!spec("water_ns").unwrap().memory_intensive);
        assert!(spec("ocean_c").unwrap().memory_intensive);
    }

    #[test]
    fn suite_names() {
        assert_eq!(Suite::Splash2.name(), "Splash2");
        assert_eq!(Suite::Dbms.name(), "DBMS");
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().ops < Scale::standard().ops);
    }
}
