//! The trace / stage-table viewer behind `proram-bench obs`.
//!
//! Two instrumented runs, each on its own ring-buffered [`Obs`]
//! handle, so the resulting trace exercises every layer the obs layer
//! hooks into:
//!
//! 1. a two-core sharded-ORAM simulation: tile issue/retire events (the
//!    demand round trips) and — because every ORAM access retires
//!    through `AccessReport::retire` — one `access_retired` event per
//!    access with its cycle split,
//! 2. a directly driven [`ShardedOram`] for the per-shard attribution
//!    table.
//!
//! The collected events are emitted as one-line-per-event JSONL, and the
//! stage table is a fold of them ([`stage_table`]), exact because
//! [`check`] asserts the rings dropped nothing. [`check`] panics when the
//! trace violates the bounded-retention, JSONL-schema or attribution
//! contracts, so running the subcommand
//! doubles as a CI smoke gate. What the enabled sinks cost in host time
//! is measured by `perf/` (`obs.ring_overhead_share`,
//! `obs.events_per_op`, `obs.ring_dropped`), not here.

use proram_mem::{BlockAddr, MemRequest, MemoryBackend};
use proram_obs::{Obs, ObsEvent};
use proram_sim::{runner, MemoryKind, ShardedOram, SystemConfig};
use proram_stats::{Rng64, Table, Xoshiro256};
use proram_workloads::synthetic::LocalityMix;
use proram_workloads::Workload;

use proram_core::SchemeConfig;

/// Ring capacity of each instrumented run's sink: large enough that
/// neither run drops an event (the multi-core run emits ~20k), so the
/// kind table counts every access the runs retired.
pub const RING_CAPACITY: usize = 1 << 15;

/// Upper bound on the emitted trace: one ring per instrumented run.
pub const MAX_TRACE_EVENTS: usize = 2 * RING_CAPACITY;

/// Per-core trace ops in the multi-core run.
const SIM_OPS: u64 = 4_000;
/// Requests driven directly through the sharded controller.
const SHARD_REQUESTS: u64 = 4_000;
/// Shards in the direct sharded-controller run.
const SHARDS: usize = 4;

/// One shard's attribution row.
#[derive(Debug, Clone, Copy)]
pub struct ShardRow {
    /// Shard index.
    pub shard: usize,
    /// Logical demand reads routed to this shard.
    pub demand_reads: u64,
    /// Super-block merges performed by this shard.
    pub merges: u64,
    /// Super-block breaks performed by this shard.
    pub breaks: u64,
    /// Prefetched blocks this shard delivered.
    pub prefetches: u64,
    /// All-time stash peak of this shard's ORAM.
    pub stash_peak: usize,
}

/// Everything `proram-bench obs` collects.
#[derive(Debug)]
pub struct ObsReport {
    /// The retained event trace (oldest-first, ring-bounded).
    pub events: Vec<ObsEvent>,
    /// Events the ring evicted once full.
    pub dropped: u64,
    /// `access_retired` events the simulated (multi-core) run retained.
    pub sim_retired: usize,
    /// Per-shard attribution from the direct sharded run.
    pub shards: Vec<ShardRow>,
}

/// Run 1: a two-core system over a two-shard dynamic-scheme ORAM —
/// tile issue/retire events and the cycle split of every access the
/// shards retire.
fn run_multicore(obs: &Obs) {
    let cfg = SystemConfig::quick_test(MemoryKind::OramShards(SchemeConfig::dynamic(2), 2));
    let (mut sys, mut workloads) = runner::build_multicore(&cfg, 2, |id| {
        Box::new(LocalityMix::with_stride(
            1 << 18,
            0.8,
            SIM_OPS,
            31 + id as u64,
            64,
        ))
    });
    sys.attach_obs(obs.clone());
    let mut refs: Vec<&mut dyn Workload> = workloads.iter_mut().map(|w| w.as_mut() as _).collect();
    sys.run(&mut refs, 0);
}

/// A FIFO set standing in for the LLC: the super-block scheme only
/// merges when a block's pair neighbor is cache-resident and only
/// counts prefetch hits that the cache reports, so driving the sharded
/// controller bare (with [`NoProbe`]) would leave both machines idle.
#[derive(Default)]
struct FifoLlc {
    resident: std::cell::RefCell<std::collections::VecDeque<u64>>,
}

impl FifoLlc {
    const CAPACITY: usize = 512;

    /// Records a delivered block, evicting FIFO order past capacity;
    /// returns any evicted block.
    fn insert(&self, block: BlockAddr) -> Option<BlockAddr> {
        let mut r = self.resident.borrow_mut();
        if r.contains(&block.0) {
            return None;
        }
        r.push_back(block.0);
        if r.len() > Self::CAPACITY {
            return r.pop_front().map(BlockAddr);
        }
        None
    }
}

impl proram_mem::CacheProbe for FifoLlc {
    fn contains(&self, block: BlockAddr) -> bool {
        self.resident.borrow().contains(&block.0)
    }
}

/// Run 2: drive a sharded controller directly and read back per-shard
/// attribution through [`ShardedOram::shard`].
fn run_sharded(obs: &Obs) -> Vec<ShardRow> {
    let cfg = SystemConfig::quick_test(MemoryKind::OramShards(SchemeConfig::dynamic(2), SHARDS));
    let mut sharded = ShardedOram::from_system(&cfg, &SchemeConfig::dynamic(2), SHARDS, 1 << 20);
    sharded.attach_obs(obs.clone());
    let llc = FifoLlc::default();
    let mut rng = Xoshiro256::seed_from(41);
    let mut now = 0;
    for i in 0..SHARD_REQUESTS {
        // Phases of sequential pairs (drives merging) alternating with
        // random probes (evicts prefetches unused, driving breaking).
        let sequential = (i / 500) % 2 == 0;
        let addr = BlockAddr(if sequential {
            i / 2
        } else {
            rng.next_below(1 << 12)
        });
        if proram_mem::CacheProbe::contains(&llc, addr) {
            // LLC hit: the scheme learns about it (hit bits drive the
            // break counters) and memory is not accessed.
            sharded.note_llc_hit(addr);
            continue;
        }
        let outcome = sharded.access(now, MemRequest::read(addr), &llc);
        now = outcome.complete_at;
        for fill in outcome.fills {
            if let Some(evicted) = llc.insert(fill.block) {
                sharded.note_llc_eviction(evicted);
            }
        }
    }
    (0..sharded.num_shards())
        .map(|i| {
            let shard = sharded.shard(i);
            let stats = shard.scheme_stats();
            ShardRow {
                shard: i,
                demand_reads: stats.demand_reads,
                merges: stats.merges,
                breaks: stats.breaks,
                prefetches: stats.prefetches_issued,
                stash_peak: shard.oram().stash().peak(),
            }
        })
        .collect()
}

/// Runs the two instrumented workloads, each with its own ring so an
/// event-heavy run cannot starve the other out of the trace, and
/// [`check`]s the result. Events are concatenated in run order.
pub fn measure() -> ObsReport {
    let (sim, direct) = (Obs::ring(RING_CAPACITY), Obs::ring(RING_CAPACITY));
    run_multicore(&sim);
    let shards = run_sharded(&direct);
    let mut events = sim.events();
    let sim_retired = count_kind(&events, "access_retired");
    events.extend(direct.events());
    let report = ObsReport {
        events,
        dropped: sim.dropped() + direct.dropped(),
        sim_retired,
        shards,
    };
    check(&report);
    report
}

fn count_kind(events: &[ObsEvent], kind: &str) -> usize {
    events.iter().filter(|e| e.kind() == kind).count()
}

/// The smoke-gate contracts: bounded retention, nothing dropped, JSONL
/// shape, and every stage attributed.
///
/// # Panics
///
/// Panics if the ring retained more events than its capacity or dropped
/// any (the stage table folds the trace, so it is exact only when whole),
/// if the trace is empty, if any event renders to something other than a
/// single-line flat JSON object, if an event kind falls outside the
/// published taxonomy, if a lane of the stage table has no entries, or if
/// the simulated run retired no access.
pub fn check(report: &ObsReport) {
    assert!(
        report.events.len() <= MAX_TRACE_EVENTS,
        "trace retained {} events, bound {MAX_TRACE_EVENTS}",
        report.events.len()
    );
    assert_eq!(report.dropped, 0, "the rings dropped events");
    assert!(
        !report.events.is_empty(),
        "instrumented runs emitted no events"
    );
    for e in &report.events {
        assert!(
            ObsEvent::KINDS.contains(&e.kind()),
            "unknown event kind {:?}",
            e.kind()
        );
        let line = e.to_json();
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}') && !line.contains('\n'),
            "event does not render as one-line JSON: {line}"
        );
        assert_eq!(
            line.matches('{').count(),
            1,
            "event JSON must be flat: {line}"
        );
    }
    for (stage, entries, _) in stage_lanes(&report.events) {
        assert!(entries > 0, "stage lane {stage} has no entries");
    }
    assert!(
        report.sim_retired > 0,
        "the simulated run retired no access into the trace"
    );
    assert!(report.shards.iter().any(|s| s.demand_reads > 0));
}

/// Renders the retained trace as JSON Lines (one event per line).
pub fn to_jsonl(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// `(stage, entries, cycles)` folded from a trace: the four lanes of
/// every `access_retired` event, then `demand`, each core's
/// `tile_issue` → `tile_retire` round trip.
fn stage_lanes(events: &[ObsEvent]) -> [(&'static str, u64, u64); 5] {
    let mut lanes = [
        ("resolve_posmap", 0, 0),
        ("path_fetch", 0, 0),
        ("evict", 0, 0),
        ("backoff", 0, 0),
        ("demand", 0, 0),
    ];
    let mut issued_at = std::collections::HashMap::new();
    for e in events {
        match *e {
            ObsEvent::AccessRetired {
                posmap,
                fetch,
                evict,
                backoff,
                ..
            } => {
                for (lane, cycles) in lanes.iter_mut().zip([posmap, fetch, evict, backoff]) {
                    lane.1 += 1;
                    lane.2 += cycles;
                }
            }
            ObsEvent::TileIssue { core, at, .. } => {
                issued_at.insert(core, at);
            }
            ObsEvent::TileRetire { core, at, .. } => {
                if let Some(start) = issued_at.remove(&core) {
                    lanes[4].1 += 1;
                    lanes[4].2 += at - start;
                }
            }
            _ => {}
        }
    }
    lanes
}

/// The per-stage cycle-attribution table, folded from the trace.
pub fn stage_table(events: &[ObsEvent]) -> Table {
    let mut t = Table::new(&["stage", "entries", "cycles", "avg cycles"])
        .with_title("per-stage attribution (retired accesses + demand round trips)");
    for (stage, entries, cycles) in stage_lanes(events) {
        let avg = if entries == 0 {
            0.0
        } else {
            cycles as f64 / entries as f64
        };
        t.row(&[
            stage.to_string(),
            entries.to_string(),
            cycles.to_string(),
            format!("{avg:.1}"),
        ]);
    }
    t
}

/// The per-shard attribution table from the direct sharded run.
pub fn shard_table(rows: &[ShardRow]) -> Table {
    let mut t = Table::new(&[
        "shard",
        "demand reads",
        "merges",
        "breaks",
        "prefetches",
        "stash peak",
    ])
    .with_title("per-shard attribution (4-shard dynamic scheme)");
    for r in rows {
        t.row(&[
            r.shard.to_string(),
            r.demand_reads.to_string(),
            r.merges.to_string(),
            r.breaks.to_string(),
            r.prefetches.to_string(),
            r.stash_peak.to_string(),
        ]);
    }
    t
}

/// The event-count-by-kind table.
pub fn kind_table(events: &[ObsEvent]) -> Table {
    let mut t = Table::new(&["event kind", "count"]).with_title("retained trace by event kind");
    for kind in ObsEvent::KINDS {
        let n = count_kind(events, kind);
        if n > 0 {
            t.row(&[kind.to_string(), n.to_string()]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collected_trace_passes_the_smoke_contracts() {
        // measure() already ran check() on the report.
        let report = measure();
        // The two runs cover tile, scheme and controller layers.
        let kinds: std::collections::BTreeSet<_> = report.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains("access_retired"));
        assert!(kinds.contains("tile_issue"));
        assert!(kinds.contains("prefetch_window"));
        assert!(kinds.contains("stash_watermark"));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let report = measure();
        let jsonl = to_jsonl(&report.events);
        assert_eq!(jsonl.lines().count(), report.events.len());
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"type\":\""));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn tables_render() {
        let report = measure();
        assert!(stage_table(&report.events)
            .to_string()
            .contains("resolve_posmap"));
        assert!(shard_table(&report.shards)
            .to_string()
            .contains("demand reads"));
        assert!(!kind_table(&report.events).is_empty());
    }
}
