//! The crash-consistency sweep behind `proram-bench crash`.
//!
//! Exhaustively fires every [`KillPoint`] of the commit protocol
//! (DESIGN.md section 15) over several crossing indices on a small tree,
//! recovers after each injected crash, audits block conservation, and
//! compares the post-recovery state digest against the crash-free run.
//! Any violation — a kill that never fired, a recovery that left the
//! state diverged, an auditor failure — **panics**, so the command
//! doubles as a CI smoke gate. The per-cell recovery work and modeled
//! recovery latency are reported as `BENCH_crash.json`.

use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{
    CrashConfig, KillPoint, OramConfig, OramError, PathOram, RecoveryMode, RecoveryReport,
};
use proram_stats::{Rng64, Xoshiro256};

/// Data blocks in the sweep tree — small enough that the full sweep runs
/// in well under a second, deep enough that every kill point is reachable.
pub const NUM_BLOCKS: u64 = 128;
/// Accesses per sweep cell.
pub const ACCESSES: usize = 48;
/// Crossing indices swept per kill point (the Nth time the point is
/// reached fires the kill).
pub const CROSSINGS: [u64; 3] = [1, 2, 3];
const ORAM_SEED: u64 = 11;
const WORKLOAD_SEED: u64 = 5;

/// One sweep cell: one kill point fired at one crossing, then recovered.
#[derive(Debug, Clone)]
pub struct CrashCell {
    /// Kill point name.
    pub point: String,
    /// Crossing index the kill fired on.
    pub crossing: u64,
    /// What recovery found and did.
    pub recovery: RecoveryReport,
}

/// The full sweep: every kill point x every crossing, all recovered to
/// the crash-free digest.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// One cell per (kill point, crossing) pair, sweep order.
    pub cells: Vec<CrashCell>,
    /// State digest of the crash-free run every cell recovered to.
    pub baseline_digest: u64,
}

impl CrashReport {
    /// Cells whose recovery rolled the journal back.
    pub fn rollbacks(&self) -> usize {
        self.count(RecoveryMode::RolledBack)
    }

    /// Cells whose recovery replayed a committed transaction forward.
    pub fn replays(&self) -> usize {
        self.count(RecoveryMode::Replayed)
    }

    /// Cells that crashed before the first journaled write (nothing to
    /// undo).
    pub fn clean_recoveries(&self) -> usize {
        self.count(RecoveryMode::Clean)
    }

    fn count(&self, mode: RecoveryMode) -> usize {
        self.cells
            .iter()
            .filter(|c| c.recovery.mode == mode)
            .count()
    }

    /// `(min, mean, max)` modeled recovery latency in cycles across every
    /// cell (clean recoveries cost zero and are included).
    pub fn latency_stats(&self) -> (u64, f64, u64) {
        let cycles: Vec<u64> = self.cells.iter().map(|c| c.recovery.cycles).collect();
        let min = cycles.iter().copied().min().unwrap_or(0);
        let max = cycles.iter().copied().max().unwrap_or(0);
        let mean = if cycles.is_empty() {
            0.0
        } else {
            cycles.iter().sum::<u64>() as f64 / cycles.len() as f64
        };
        (min, mean, max)
    }
}

fn config(crash: Option<CrashConfig>) -> OramConfig {
    OramConfig {
        trace_capacity: 0,
        crash,
        ..OramConfig::small_for_tests(NUM_BLOCKS)
    }
}

/// The fixed sweep workload, drawn from a stream independent of the
/// controller's RNG.
fn addresses() -> Vec<BlockAddr> {
    let mut rng = Xoshiro256::seed_from(WORKLOAD_SEED);
    (0..ACCESSES)
        .map(|_| BlockAddr(rng.next_below(NUM_BLOCKS)))
        .collect()
}

fn crash_free_digest() -> u64 {
    let mut oram = PathOram::new(config(None), ORAM_SEED);
    for &addr in &addresses() {
        oram.try_access_block(addr, AccessKind::Read)
            .expect("crash-free run cannot fail");
    }
    oram.audit_full();
    oram.state_digest()
}

/// Runs one sweep cell: the workload with `point` armed at `crossing`,
/// recovery and (after a rollback) one retry at the crash site.
///
/// # Panics
///
/// Panics if the kill never fires, recovery leaves the auditor unhappy,
/// or the final digest diverges from `baseline`.
fn run_cell(point: KillPoint, crossing: u64, baseline: u64) -> CrashCell {
    let mut oram = PathOram::new(config(Some(CrashConfig::at(point, crossing))), ORAM_SEED);
    let mut recovery = None;
    for &addr in &addresses() {
        match oram.try_access_block(addr, AccessKind::Read) {
            Ok(_) => {}
            Err(OramError::Crashed { .. }) => {
                let rec = oram.recover();
                oram.audit_full();
                if rec.mode != RecoveryMode::Replayed {
                    oram.try_access_block(addr, AccessKind::Read)
                        .expect("retry after rollback must succeed");
                }
                recovery = Some(rec);
            }
            Err(e) => panic!("{point} crossing {crossing}: unexpected error {e}"),
        }
    }
    let stats = oram.crash_stats();
    assert_eq!(
        stats.crashes_injected, 1,
        "{point} crossing {crossing}: kill never fired"
    );
    oram.audit_full();
    assert_eq!(
        oram.state_digest(),
        baseline,
        "{point} crossing {crossing}: post-recovery state diverged"
    );
    CrashCell {
        point: point.to_string(),
        crossing,
        recovery: recovery.expect("a fired kill always surfaces"),
    }
}

/// Runs the exhaustive sweep.
///
/// # Panics
///
/// Panics on the first cell that violates the crash-consistency
/// contract: a kill that never fires, an auditor failure after
/// recovery, or a post-recovery digest diverging from the baseline.
pub fn measure() -> CrashReport {
    let baseline_digest = crash_free_digest();
    let mut cells = Vec::new();
    for point in KillPoint::ALL {
        for crossing in CROSSINGS {
            cells.push(run_cell(point, crossing, baseline_digest));
        }
    }
    CrashReport {
        cells,
        baseline_digest,
    }
}

fn mode_str(mode: RecoveryMode) -> &'static str {
    match mode {
        RecoveryMode::Clean => "clean",
        RecoveryMode::RolledBack => "rolled_back",
        RecoveryMode::Replayed => "replayed",
    }
}

/// Renders the report as the `BENCH_crash.json` document.
pub fn to_json(report: &CrashReport) -> String {
    let (min, mean, max) = report.latency_stats();
    let mut out = String::from("{\n");
    out.push_str(
        "  \"benchmark\": \"crash-consistent commit protocol, exhaustive kill-point sweep\",\n",
    );
    out.push_str("  \"harness\": \"proram-bench crash\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"num_data_blocks\": {NUM_BLOCKS}, \"accesses_per_cell\": {ACCESSES}, \"crossings\": {:?}, \"oram_seed\": {ORAM_SEED}, \"workload_seed\": {WORKLOAD_SEED}}},\n",
        CROSSINGS
    ));
    out.push_str(&format!(
        "  \"summary\": {{\"cells\": {}, \"rollbacks\": {}, \"replays\": {}, \"clean_recoveries\": {}, \"all_digests_match_baseline\": true, \"baseline_digest\": \"{:#018x}\"}},\n",
        report.cells.len(),
        report.rollbacks(),
        report.replays(),
        report.clean_recoveries(),
        report.baseline_digest
    ));
    out.push_str(&format!(
        "  \"recovery_cycles\": {{\"min\": {min}, \"mean\": {mean:.1}, \"max\": {max}}},\n"
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"point\": \"{}\", \"crossing\": {}, \"mode\": \"{}\", \"journal_entries\": {}, \"buckets_restored\": {}, \"buckets_reverified\": {}, \"recovery_cycles\": {}}}{}\n",
            c.point,
            c.crossing,
            mode_str(c.recovery.mode),
            c.recovery.journal_entries,
            c.recovery.buckets_restored,
            c.recovery.buckets_reverified,
            c.recovery.cycles,
            if i + 1 == report.cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_point_and_recovers_everywhere() {
        let report = measure();
        assert_eq!(report.cells.len(), KillPoint::ALL.len() * CROSSINGS.len());
        // Every recovery class is exercised somewhere in the sweep.
        assert!(report.rollbacks() > 0, "no rollback cell");
        assert!(report.replays() > 0, "no replay cell");
        let (_, mean, max) = report.latency_stats();
        assert!(max > 0, "recovery never cost cycles");
        assert!(mean <= max as f64);
    }

    #[test]
    fn json_is_shaped_like_a_report() {
        let report = CrashReport {
            cells: vec![CrashCell {
                point: "write_back".into(),
                crossing: 2,
                recovery: RecoveryReport {
                    mode: RecoveryMode::RolledBack,
                    journal_entries: 9,
                    buckets_restored: 9,
                    buckets_reverified: 14,
                    cycles: 1234,
                },
            }],
            baseline_digest: 0xdead_beef,
        };
        let json = to_json(&report);
        assert!(json.contains("\"harness\": \"proram-bench crash\""));
        assert!(json.contains("\"rollbacks\": 1"));
        assert!(json.contains("\"recovery_cycles\": 1234"));
        assert!(json.contains("\"mode\": \"rolled_back\""));
        assert!(json.ends_with("}\n"));
    }
}
