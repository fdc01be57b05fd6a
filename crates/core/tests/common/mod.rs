//! One cell of the crash × scheme matrix (`tests/crash_matrix.rs`; the
//! workspace root's `tests/contracts.rs` pins one cell for tier-1).
//!
//! The driver plays the part of the cache hierarchy: a small FIFO LLC
//! that reports hits and departures to the scheme layer and turns some
//! departures into write-backs, under a stream that sweeps sequentially
//! (so the dynamic scheme merges), re-reads a few blocks behind the sweep
//! (prefetch hits) and jumps away every seventh op (prefetches that leave
//! unused — misses, break-counter decrements).

use proram_core::{SchemeConfig, SuperBlockOram};
use proram_mem::{BackendStats, BlockAddr, CacheProbe, MemRequest, MemoryBackend};
use proram_obs::{Obs, ObsEvent};
use proram_oram::{CrashConfig, CrashStats, OramConfig};
use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hash, Hasher};

const BLOCKS: u64 = 256;
const OPS: u64 = 900;
/// The sweep wraps here, many times in a run and well past the LLC, so a
/// load often finds a prefetch bit an earlier pass left set — the bit a
/// killed attempt consumes and its retry must find again (with these
/// constants the `stat` and `dyn` x `write_back` x 200 cells kill such a
/// load: restoring the counters alone leaves their digests different).
const REGION: u64 = 32;
const LLC_LINES: usize = 6;

#[derive(Debug, Default)]
struct FifoLlc(VecDeque<BlockAddr>);

impl CacheProbe for FifoLlc {
    fn contains(&self, block: BlockAddr) -> bool {
        self.0.contains(&block)
    }
}

/// What a cell ends with. `scheme` is the six counters of `stats()` the
/// scheme layer owns (`demand_accesses`, `prefetch_requests`,
/// `prefetch_hits`, `prefetch_misses`, `merges`, `breaks`; every other
/// field zero), `merged_blocks` its partition gauge, and `merge_events` /
/// `break_events` the `super_block_merge` / `super_block_break` events
/// the run's trace holds. `retry_merged` says a rolled-back access's
/// retry merged: the trace has a `recover_replay { replay: false }`
/// followed by a `super_block_merge` before the next `access_retired` —
/// the retry replays the killed attempt's randomness against the same
/// LLC, so the killed attempt had merged too. `retry_broke` is the same
/// for a `super_block_break`, and `break_paths` holds, per break event,
/// the number of paths read before it: the breaking access committed
/// after its last path's write-back, so a `write_back` kill at that
/// crossing lands on the breaking access. `reads` / `writes` are the
/// requests the driver issued, whose sum `demand_accesses` must equal
/// whatever crashed in between. `ledger` is the scheme's prefetch ledger,
/// the one home of the prefetch and hit bits, at the end of the run;
/// `ledger_trace` hashes it after every demand read and the write-backs
/// its fills caused, because the ledger heals: a block's bits go when it
/// is next loaded, so a divergence can be gone by the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    pub scheme: BackendStats,
    pub merged_blocks: u64,
    pub merge_events: u64,
    pub break_events: u64,
    pub retry_merged: bool,
    pub retry_broke: bool,
    pub break_paths: Vec<u64>,
    pub ledger: Vec<(BlockAddr, bool)>,
    pub ledger_trace: u64,
    pub state_digest: u64,
    pub crash: CrashStats,
    pub unrecovered: u64,
    pub reads: u64,
    pub writes: u64,
}

fn stream(i: u64) -> u64 {
    let sweep = (i / 2) % REGION;
    match i % 7 {
        4 => (i * 37 + 11) % BLOCKS,
        1 | 3 => (sweep + REGION - 3) % REGION,
        _ => sweep,
    }
}

/// Runs the stream under `scheme` with `crash` armed, recovering in place
/// (the scheme layer's own `access` does), and audits the final state.
pub fn run_cell(scheme: SchemeConfig, crash: CrashConfig) -> CellOutcome {
    let cfg = OramConfig {
        crash: Some(crash),
        ..OramConfig::small_for_tests(BLOCKS)
    };
    let mut oram = SuperBlockOram::new(cfg, scheme, 99);
    let obs = Obs::ring(1 << 16);
    oram.attach_obs(obs.clone());
    let mut llc = FifoLlc::default();
    let (mut now, mut reads, mut writes) = (0, 0, 0);
    let mut ledger_trace = DefaultHasher::new();
    for i in 0..OPS {
        let block = BlockAddr(stream(i));
        if llc.contains(block) {
            oram.note_llc_hit(block);
            continue;
        }
        let out = oram.access(now, MemRequest::read(block), &llc);
        now = out.complete_at;
        reads += 1;
        for fill in &out.fills {
            llc.0.push_back(fill.block);
            while llc.0.len() > LLC_LINES {
                let victim = llc.0.pop_front().expect("non-empty");
                oram.note_llc_eviction(victim);
                if victim.0 % 4 == 0 {
                    now = oram
                        .access(now, MemRequest::write(victim), &llc)
                        .complete_at;
                    writes += 1;
                }
            }
        }
        oram.prefetch_ledger().hash(&mut ledger_trace);
    }
    oram.oram().audit_full();
    assert_eq!(obs.dropped(), 0, "the event counts need the whole trace");
    let events = obs.events();
    let count = |kind| events.iter().filter(|e| e.kind() == kind).count() as u64;
    let mut retrying = false;
    let (mut retry_merged, mut retry_broke) = (false, false);
    let (mut paths, mut break_paths) = (0, Vec::new());
    for e in &events {
        match e {
            ObsEvent::RecoverReplay { replay: false, .. } => retrying = true,
            ObsEvent::SuperBlockMerge { .. } => retry_merged |= retrying,
            ObsEvent::SuperBlockBreak { .. } => {
                retry_broke |= retrying;
                break_paths.push(paths);
            }
            ObsEvent::PathAccess { .. } => paths += 1,
            ObsEvent::AccessRetired { .. } => retrying = false,
            _ => {}
        }
    }
    let stats = oram.stats();
    CellOutcome {
        scheme: BackendStats {
            demand_accesses: stats.demand_accesses,
            prefetch_requests: stats.prefetch_requests,
            prefetch_hits: stats.prefetch_hits,
            prefetch_misses: stats.prefetch_misses,
            merges: stats.merges,
            breaks: stats.breaks,
            ..BackendStats::default()
        },
        merged_blocks: oram.merged_blocks(),
        merge_events: count("super_block_merge"),
        break_events: count("super_block_break"),
        retry_merged,
        retry_broke,
        break_paths,
        ledger: oram.prefetch_ledger(),
        ledger_trace: ledger_trace.finish(),
        state_digest: oram.oram().state_digest(),
        crash: oram.oram().crash_stats(),
        unrecovered: stats.faults.unrecovered,
        reads,
        writes,
    }
}
