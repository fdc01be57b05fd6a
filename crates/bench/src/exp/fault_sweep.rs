//! Fault sweep: what the ORAM's fault machinery detects, what it survives
//! and when it stops, across fault class x injection rate.
//!
//! Each cell runs a seeded read stream against a [`PathOram`] whose
//! backing store injects one fault class at one rate. The image is the
//! only copy of a bucket, so a corrupted, torn or rolled-back bucket
//! cannot be repaired: the first read that meets one fail-stops the
//! controller with the typed error, and the cell reports how many
//! accesses were served until then. Transient read failures leave the
//! medium intact and are retried. The experiment asserts the robustness
//! contract directly: **zero undetected corruptions** in every cell (the
//! injector's ground-truth `undetected` counter stays zero), a fail-stop
//! that is typed and latched, and a zero-rate injector that is
//! observationally identical to running with no injector at all.

use crate::exp::RunCtx;
use proram_mem::{AccessKind, BlockAddr, FaultStats};
use proram_oram::{FaultClass, FaultConfig, OramConfig, OramError, PathOram};
use proram_par::WorkerPool;
use proram_stats::{table, Rng64, Table, Xoshiro256};

/// Data blocks in the swept tree: small enough that every cell runs in
/// milliseconds, large enough that paths overlap and rollbacks replay
/// genuinely stale buckets.
const NUM_BLOCKS: u64 = 256;
/// Injector seed; the access stream uses its own.
const INJECT_SEED: u64 = 0xFA17;

/// Write-fault rates swept per class (`transient` uses them per read
/// attempt instead of per write).
const RATES: [f64; 3] = [0.002, 0.01, 0.05];

struct CellOutcome {
    stats: FaultStats,
    /// Accesses served before the run ended: all of them, or those ahead
    /// of the fail-stop.
    served: u64,
    /// The typed error the controller fail-stopped on, if it did.
    stopped: Option<OramError>,
    /// Latency of the served accesses.
    total_latency: u64,
}

fn run_cell(fault: Option<FaultConfig>, ops: u64) -> CellOutcome {
    let cfg = OramConfig {
        fault,
        ..OramConfig::small_for_tests(NUM_BLOCKS)
    };
    let mut oram = PathOram::new(cfg, 42);
    let mut rng = Xoshiro256::seed_from(7);
    let mut next = || BlockAddr(rng.next_below(NUM_BLOCKS));
    let (mut served, mut stopped, mut total_latency) = (0, None, 0);
    for _ in 0..ops {
        match oram.try_access_block(next(), AccessKind::Read) {
            Ok(report) => {
                served += 1;
                total_latency += report.latency;
            }
            Err(err) => {
                // Fail-stop: the error is latched, not a one-off.
                assert_eq!(
                    oram.try_access_block(next(), AccessKind::Read),
                    Err(err),
                    "the access after a fail-stop must return the same error"
                );
                stopped = Some(err);
                break;
            }
        }
    }
    CellOutcome {
        stats: oram.fault_stats(),
        served,
        stopped,
        total_latency,
    }
}

/// `mean_latency` is the fault-free latency per access; `latency_x` is
/// the cell's relative to it, for the cells that served the whole stream
/// (a prefix of a few cold accesses says nothing about overhead).
fn row_cells(class_name: &str, rate: f64, cell: &CellOutcome, mean_latency: f64) -> Vec<String> {
    let s = cell.stats;
    let stopped_by = match cell.stopped {
        None => "-",
        Some(OramError::Integrity { .. }) => "integrity",
        Some(OramError::Rollback { .. }) => "rollback",
        Some(OramError::Transient { .. }) => "transient",
        Some(other) => panic!("{class_name} at rate {rate} ended with {other}"),
    };
    vec![
        class_name.to_owned(),
        format!("{rate}"),
        s.total_injected().to_string(),
        s.masked_by_overwrite.to_string(),
        s.total_detected().to_string(),
        s.undetected.to_string(),
        cell.served.to_string(),
        stopped_by.to_owned(),
        s.recovered.to_string(),
        s.transient_retries.to_string(),
        match cell.stopped {
            None => table::f3(cell.total_latency as f64 / cell.served as f64 / mean_latency),
            Some(_) => "-".to_owned(),
        },
    ]
}

/// Runs the sweep and builds the detection / fail-stop / overhead table.
///
/// # Panics
///
/// Panics if any injected corruption survives undetected (a false
/// negative), if a run ends in anything but a typed, latched fault of
/// the medium, or if the zero-rate injector perturbs the fault-free run
/// — so CI's quick-scale golden run, which runs this sweep, checks them.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    // Enough accesses that even the lowest rate injects faults, scaled
    // down for --scale quick.
    let ops = (ctx.scale.ops / 10).clamp(2_000, 6_000);
    let baseline = run_cell(None, ops);
    assert_eq!(baseline.served, ops, "baseline did not execute");
    let mean_latency = baseline.total_latency as f64 / ops as f64;

    // Zero-rate identity: a structurally present but silent injector must
    // not change anything observable.
    let silent = run_cell(Some(FaultConfig::silent(INJECT_SEED)), ops);
    assert_eq!(
        silent.total_latency, baseline.total_latency,
        "zero-rate injector changed the access timeline"
    );
    assert_eq!(
        silent.stats, baseline.stats,
        "zero-rate injector changed fault counters"
    );

    let grid: Vec<(FaultClass, f64)> = FaultClass::ALL
        .into_iter()
        .flat_map(|class| RATES.into_iter().map(move |rate| (class, rate)))
        .collect();
    let outcomes = WorkerPool::new(ctx.jobs).run(grid, |(class, rate)| {
        let cell = run_cell(Some(FaultConfig::single(class, rate, INJECT_SEED)), ops);
        (class, rate, cell)
    });

    let mut t = Table::new(&[
        "class",
        "rate",
        "injected",
        "masked",
        "detected",
        "undetected",
        "served",
        "stopped_by",
        "recovered",
        "retries",
        "latency_x",
    ])
    .with_title(format!(
        "Fault sweep: detection / fail-stop / overhead ({ops} reads, {NUM_BLOCKS} blocks)"
    ));
    t.row(&row_cells("none", 0.0, &baseline, mean_latency));
    for (class, rate, cell) in &outcomes {
        assert_eq!(
            cell.stats.undetected,
            0,
            "false negative: {} at rate {rate} survived an authenticated read",
            class.name()
        );
        assert!(
            cell.stats.total_injected() > 0,
            "{} at rate {rate} injected nothing; sweep too short",
            class.name()
        );
        assert_eq!(
            cell.stopped.is_none(),
            cell.served == ops,
            "{} at rate {rate}: only a fail-stop ends a run early",
            class.name()
        );
        t.row(&row_cells(class.name(), *rate, cell, mean_latency));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_workloads::Scale;

    #[test]
    fn sweep_detects_everything_and_is_silent_at_rate_zero() {
        // run() itself asserts zero false negatives and the zero-rate
        // identity; this exercises both on the quick scale.
        let tables = run(RunCtx::serial(Scale::quick()));
        assert_eq!(tables.len(), 1);
        // One baseline row plus every class x rate cell.
        assert_eq!(tables[0].len(), 1 + FaultClass::ALL.len() * RATES.len());
    }

    #[test]
    fn corruption_cells_fail_stop_typed() {
        let ops = 2_000;
        let cell = run_cell(
            Some(FaultConfig::single(FaultClass::BitFlip, 0.05, INJECT_SEED)),
            ops,
        );
        assert!(cell.stats.injected_bit_flips > 0);
        assert_eq!(cell.stats.undetected, 0);
        assert_eq!(cell.stats.detected_integrity, 1, "the first one met stops");
        assert_eq!(cell.stats.recovered, 0, "there is nothing to repair from");
        assert!(matches!(cell.stopped, Some(OramError::Integrity { .. })));
        assert!(cell.served < ops);
    }
}
