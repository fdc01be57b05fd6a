//! One module per paper table/figure.

pub mod ablation;
pub mod fault_sweep;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod gap;
pub mod serialization;
pub mod sweep;
pub mod table1;

use proram_stats::Table;
use proram_workloads::Scale;

/// How an experiment should run: the workload scale plus the worker
/// budget for its independent simulation runs.
///
/// Every simulated run is a pure function of `(spec, scale, config)`,
/// so `jobs` only changes wall-clock time — the produced tables are
/// byte-identical for any job count.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// Workload scaling knobs, forwarded to every run.
    pub scale: Scale,
    /// Maximum worker threads for an experiment's independent runs.
    pub jobs: usize,
}

impl RunCtx {
    /// A context running everything on the caller's thread.
    pub fn serial(scale: Scale) -> Self {
        RunCtx { scale, jobs: 1 }
    }

    /// A context with an explicit worker budget.
    pub fn with_jobs(scale: Scale, jobs: usize) -> Self {
        RunCtx {
            scale,
            jobs: jobs.max(1),
        }
    }
}

/// An experiment entry point: run context in, regenerated tables out.
pub type ExperimentFn = fn(RunCtx) -> Vec<Table>;

/// Every experiment, addressable by CLI name.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table1", table1::run),
    ("fig5", fig5::run),
    ("fig6a", |c| vec![fig6::run_6a(c)]),
    ("fig6b", |c| vec![fig6::run_6b(c)]),
    ("fig7", |c| vec![fig7::run(c)]),
    ("fig8", fig8::run_all),
    ("fig9", fig9::run),
    ("fig10", |c| vec![fig10::run(c)]),
    ("fig11", |c| vec![fig11::run(c)]),
    ("fig12", |c| vec![fig12::run(c)]),
    ("fig13", |c| vec![fig13::run(c)]),
    ("fig14", |c| vec![fig14::run(c)]),
    ("fig15", fig15::run),
    ("gap", gap::run),
    ("ablation", ablation::run),
    ("fault_sweep", fault_sweep::run),
    ("serialization", serialization::run),
];

/// Looks up an experiment by name.
pub fn by_name(name: &str) -> Option<ExperimentFn> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_figures() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        for expected in [
            "table1", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from registry"
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("fig7").is_some());
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn ctx_clamps_jobs() {
        assert_eq!(RunCtx::with_jobs(Scale::quick(), 0).jobs, 1);
        assert_eq!(RunCtx::serial(Scale::quick()).jobs, 1);
    }
}
