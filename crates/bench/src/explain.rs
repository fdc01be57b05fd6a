//! The one-run viewer behind `proram-bench explain <benchmark>`.
//!
//! [`measure`] runs one registry benchmark the way Figure 8's `dyn` row
//! runs it: the same configuration (`common::oram_config` under the
//! dynamic scheme), the same workload (`suite::build`) and the same
//! simulator (`System::build`). It steps the scale's warm-up prefix
//! first and only then attaches one ring, and [`System::run`] takes its
//! baselines at its own start, so the trace and [`RunMetrics`] cover
//! exactly the same post-warm-up ops.
//!
//! [`page`] renders four tables from that one run: the retained trace by
//! event kind, the per-stage cycle split folded from the trace, the
//! run's ledger read only from [`RunMetrics`], and the timeline of the
//! scheme's statistics windows (one `prefetch_window` event per
//! [`WINDOW_REQUESTS`] ORAM requests: the rates, Equation 1's first
//! thresholds and the partition as each window closed). [`measure`]
//! panics when the trace breaks its contracts or disagrees with the
//! ledger, so running the subcommand doubles as a CI smoke gate. Host
//! time is not on the page: `perf/` measures it, and the page ends with
//! the command that does.

use crate::common;
use proram_core::controller::WINDOW_REQUESTS;
use proram_core::SchemeConfig;
use proram_obs::{Obs, ObsEvent};
use proram_sim::{RunMetrics, System};
use proram_stats::{table, Table};
use proram_workloads::{suite, BenchSpec, Scale};

/// Ring capacity: above the longest quick-scale trace of any registry
/// benchmark (mcf, ~83k events: ~47k plus one `path_access` per each of
/// its ~35k physical accesses), so the stage table folds the whole trace.
const RING_CAPACITY: usize = 1 << 17;

/// The command that measures host time, which this page does not.
const PERF_COMMAND: &str = "cargo run --release --manifest-path perf/Cargo.toml -- run --quick";

/// One explained run: its trace and its ledger.
#[derive(Debug)]
pub struct Report {
    /// The retained event trace, oldest first.
    pub events: Vec<ObsEvent>,
    /// Events the ring evicted once full (`check` asserts 0).
    pub dropped: u64,
    /// The run's ledger, warm-up excluded.
    pub metrics: RunMetrics,
}

/// Runs `spec` at `scale` under `dyn` with a ring attached after the
/// warm-up prefix, and checks the trace against its contracts and the
/// ledger.
///
/// # Panics
///
/// Panics if the trace breaks its contracts (bounded retention, nothing
/// dropped, flat one-line JSON of a published kind) or disagrees with the
/// ledger.
pub fn measure(spec: BenchSpec, scale: Scale) -> Report {
    let config = common::oram_config(SchemeConfig::dynamic(2));
    let mut workload = suite::build(spec, scale);
    let mut system = System::build(&config, workload.footprint_bytes());
    common::warm_up(&mut system, workload.as_mut(), scale.warmup_ops);
    let obs = Obs::ring(RING_CAPACITY);
    system.attach_obs(obs.clone());
    let metrics = system.run(&mut [workload.as_mut()], 0);
    let report = Report {
        events: obs.events(),
        dropped: obs.dropped(),
        metrics,
    };
    check(&report);
    report
}

fn count_kind(events: &[ObsEvent], kind: &str) -> u64 {
    events.iter().filter(|e| e.kind() == kind).count() as u64
}

/// The smoke-gate contracts: bounded retention, nothing dropped (the
/// stage table folds the trace, so it is exact only when whole), one-line
/// flat JSON of a published kind, and the trace equal to the ledger: the
/// summed `access_retired` lanes to the backend's path and backoff
/// cycles, one `access_retired` per demand access, one `path_access` per
/// physical access (the adversary's view is the ledger's paths), one
/// `tile_retire` per demand fetch, one `super_block_merge` /
/// `super_block_break` per merge / break, and one `prefetch_window` per
/// [`WINDOW_REQUESTS`] demand accesses (the first window of the trace
/// opened during the warm-up).
fn check(report: &Report) {
    let events = &report.events;
    assert!(
        events.len() <= RING_CAPACITY,
        "trace retained {} events, bound {RING_CAPACITY}",
        events.len()
    );
    assert_eq!(report.dropped, 0, "the ring dropped events");
    assert!(!events.is_empty(), "the run emitted no events");
    for e in events {
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
    let lanes = stage_lanes(events);
    let m = &report.metrics;
    let b = &m.backend;
    assert_eq!(
        [0, 1, 2, 3].map(|i| lanes[i].2),
        [
            b.posmap_path_cycles,
            b.data_path_cycles,
            b.dummy_path_cycles,
            b.faults.backoff_cycles,
        ],
        "access_retired lanes against the ledger: posmap / fetch / evict / backoff"
    );
    assert_eq!(
        count_kind(events, "access_retired"),
        b.demand_accesses,
        "one access_retired per demand access"
    );
    assert_eq!(
        count_kind(events, "path_access"),
        b.physical_accesses,
        "one path_access per physical access"
    );
    assert_eq!(
        count_kind(events, "tile_retire"),
        m.demand_fetches,
        "one tile_retire per demand fetch"
    );
    assert_eq!(
        [
            count_kind(events, "super_block_merge"),
            count_kind(events, "super_block_break")
        ],
        [b.merges, b.breaks],
        "one super_block_merge / super_block_break per merge / break"
    );
    let windows = count_kind(events, "prefetch_window");
    let requests = b.demand_accesses;
    assert!(
        windows == requests / WINDOW_REQUESTS || windows == requests.div_ceil(WINDOW_REQUESTS),
        "{windows} prefetch_window events for {requests} demand accesses"
    );
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
fn stage_table(events: &[ObsEvent]) -> Table {
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

/// The event-count-by-kind table.
fn kind_table(events: &[ObsEvent]) -> Table {
    let mut t = Table::new(&["event kind", "count"]).with_title("retained trace by event kind");
    for kind in ObsEvent::KINDS {
        let n = count_kind(events, kind);
        if n > 0 {
            t.row(&[kind.to_string(), n.to_string()]);
        }
    }
    t
}

/// The run's ledger, read only from [`RunMetrics`]. Every denominator is
/// non-zero once `check` has passed (an `access_retired` event is a
/// demand access, and a demand access costs at least one path); only the
/// prefetch miss rate can be undefined, printed as `-`.
fn ledger_table(m: &RunMetrics) -> Table {
    let b = &m.backend;
    let ratio = |num: u64, den: u64| table::f3(num as f64 / den as f64);
    let busy = |cycles| ratio(cycles, b.busy_cycles);
    let miss_rate = m.prefetch_miss_rate().map_or("-".to_owned(), table::f3);
    let unused = m.unused_prefetch_evictions.to_string();
    let mut t = Table::new(&["quantity", "value"]).with_title(format!(
        "ledger of the run ({} under {}, warm-up excluded)",
        m.benchmark, m.label
    ));
    for (quantity, value) in [
        ("trace ops", m.trace_ops.to_string()),
        ("cycles", m.cycles.to_string()),
        ("CPI", ratio(m.cycles, m.trace_ops)),
        ("L1 miss rate", table::f3(m.caches.l1.miss_rate())),
        ("LLC miss rate", table::f3(m.caches.l2.miss_rate())),
        ("demand fetches", m.demand_fetches.to_string()),
        ("write-backs", m.writebacks.to_string()),
        ("physical accesses", b.physical_accesses.to_string()),
        ("data share of busy cycles", busy(b.data_path_cycles)),
        ("posmap share of busy cycles", busy(b.posmap_path_cycles)),
        ("dummy share of busy cycles", busy(b.dummy_path_cycles)),
        ("path price (cycles)", m.path_price().to_string()),
        (
            "posmap paths per demand access",
            table::f3(m.posmap_per_demand()),
        ),
        ("prefetch requests", b.prefetch_requests.to_string()),
        ("prefetch hits", b.prefetch_hits.to_string()),
        ("prefetch misses", b.prefetch_misses.to_string()),
        ("prefetch miss rate", miss_rate),
        ("unused-prefetch evictions", unused),
        ("merges", b.merges.to_string()),
        ("breaks", b.breaks.to_string()),
        ("treetop hits", b.treetop_hits.to_string()),
    ] {
        t.row(&[quantity.to_owned(), value]);
    }
    t
}

/// One row per `prefetch_window` event: the window's rates, Equation 1's
/// merge threshold for two single blocks and break threshold for a
/// size-2 super block (`off` when the policy is), the cumulative merges
/// and breaks with their change since the previous window (`-` on the
/// first, whose predecessor closed before the trace), and the blocks
/// that sat in a super block when the window closed.
fn window_table(events: &[ObsEvent]) -> Table {
    let mut t = Table::new(&[
        "window",
        "hit rate",
        "evict rate",
        "access rate",
        "merge thr",
        "break thr",
        "merges",
        "+merges",
        "breaks",
        "+breaks",
        "merged blocks",
    ])
    .with_title(format!(
        "statistics windows (one per {WINDOW_REQUESTS} ORAM requests, counts since construction)"
    ));
    let ppm = |v: u32| table::f3(f64::from(v) / 1e6);
    let threshold = |t: Option<u32>| t.map_or("off".to_owned(), |t| t.to_string());
    let mut previous: Option<(u64, u64)> = None;
    for e in events {
        let ObsEvent::PrefetchWindow {
            window,
            hit_rate_ppm,
            eviction_rate_ppm,
            access_rate_ppm,
            merge_threshold,
            break_threshold,
            merges,
            breaks,
            merged_blocks,
        } = *e
        else {
            continue;
        };
        let delta = |now: u64, before: Option<u64>| {
            before.map_or("-".to_owned(), |b| (now - b).to_string())
        };
        t.row(&[
            window.to_string(),
            ppm(hit_rate_ppm),
            ppm(eviction_rate_ppm),
            ppm(access_rate_ppm),
            threshold(merge_threshold),
            threshold(break_threshold),
            merges.to_string(),
            delta(merges, previous.map(|p| p.0)),
            breaks.to_string(),
            delta(breaks, previous.map(|p| p.1)),
            merged_blocks.to_string(),
        ]);
        previous = Some((merges, breaks));
    }
    t
}

/// The page: the kind table, the stage table, the ledger table and the
/// window timeline, then the `perf` command that measures host time.
pub fn page(report: &Report) -> String {
    format!(
        "{}\n{}\n{}\n{}\nhost time is measured by perf/, not here: {PERF_COMMAND}\n",
        kind_table(&report.events),
        stage_table(&report.events),
        ledger_table(&report.metrics),
        window_table(&report.events),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_sim::runner;

    /// `explain` is Figure 8's `dyn` run: its ledger equals the runner's
    /// on the same spec, scale and configuration, and its page shows
    /// both.
    #[test]
    fn the_explained_run_is_the_runners_run() {
        let spec = suite::spec("YCSB").expect("registered");
        let scale = Scale {
            ops: 3_000,
            warmup_ops: 1_000,
            footprint_scale: 0.03,
            seed: 4,
        };
        let report = measure(spec, scale);
        let ran = runner::run_spec(spec, scale, &common::oram_config(SchemeConfig::dynamic(2)));
        assert_eq!(report.metrics, ran);
        assert_eq!(ran.trace_ops, scale.ops);
        let jsonl = to_jsonl(&report.events);
        assert_eq!(jsonl.lines().count(), report.events.len());
        let page = page(&report);
        for needle in [
            "super_block_merge",
            "resolve_posmap",
            "merges",
            "statistics windows",
            "(YCSB under dyn",
            PERF_COMMAND,
        ] {
            assert!(page.contains(needle), "{needle} missing from\n{page}");
        }
    }
}
