//! The typed event taxonomy.
//!
//! Every observable state transition of the stack is one [`ObsEvent`]
//! variant: logical accesses retiring with their cycle split, the path
//! each physical access reads and writes back, stash high-water marks,
//! super-block merge/break decisions, statistics-window publications,
//! detected faults, tile issue/retire and the commit protocol's crash,
//! commit and recovery steps. Events are
//! `Copy` and carry only integers, flags and optional thresholds, so
//! recording one into a sink is a bounds check and a memcpy — cheap
//! enough for per-access use.

use std::fmt;

/// The class of a detected fault, mirroring the ORAM error taxonomy
/// without depending on the ORAM crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// MAC mismatch: the stored image was modified.
    Integrity,
    /// Authentic but stale bucket replayed (version counter regressed).
    Rollback,
    /// Transient read failure that exhausted its retry budget.
    Transient,
}

impl FaultKind {
    /// Stable snake_case name used in JSONL traces.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Integrity => "integrity",
            FaultKind::Rollback => "rollback",
            FaultKind::Transient => "transient",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One enumerable point where a simulated process death can strike an
/// ORAM access. Defined here, below the ORAM crate, so the
/// [`ObsEvent::CrashInject`] event and the controller's crash injector
/// (`proram_oram::CrashConfig`) name the same type.
///
/// The first five variants are crossed at the entry of the controller's
/// path primitives (posmap walk, path read, write-back, drain), so every
/// path an access performs — data, position-map or eviction — crosses
/// them, under any driver of those primitives; the last two are crossed
/// inside the storage commit protocol, where a real crash is most
/// damaging: while undo entries are being journaled and during the
/// MAC-bound epoch flip. All seven count down on the one arm the store
/// owns, and a fired kill of any of them leaves the store dead until
/// recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillPoint {
    /// Entering the position-map walk.
    ResolvePosmap,
    /// Entering a path fetch, before the path's image is read,
    /// authenticated and decrypted.
    PathFetch,
    /// Entering the stash update.
    StashUpdate,
    /// Entering the path write-back.
    WriteBack,
    /// Entering the post-access background drain.
    Evict,
    /// While appending an undo entry to the commit journal: the entry is
    /// durable, the home bucket write it guards never happens.
    MidJournal,
    /// During the epoch flip: the epoch header has advanced but the
    /// journal has not yet been discarded, so recovery must *replay*
    /// (keep the committed image) instead of rolling back.
    MidFlip,
}

impl KillPoint {
    /// Every kill point, in pipeline-then-commit order.
    pub const ALL: [KillPoint; 7] = [
        KillPoint::ResolvePosmap,
        KillPoint::PathFetch,
        KillPoint::StashUpdate,
        KillPoint::WriteBack,
        KillPoint::Evict,
        KillPoint::MidJournal,
        KillPoint::MidFlip,
    ];

    /// Stable snake_case name used in reports and JSONL traces.
    pub fn name(self) -> &'static str {
        match self {
            KillPoint::ResolvePosmap => "resolve_posmap",
            KillPoint::PathFetch => "path_fetch",
            KillPoint::StashUpdate => "stash_update",
            KillPoint::WriteBack => "write_back",
            KillPoint::Evict => "evict",
            KillPoint::MidJournal => "mid_journal",
            KillPoint::MidFlip => "mid_flip",
        }
    }
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observable state transition of the PrORAM stack.
///
/// All payloads are plain integers (rates are scaled to parts-per-million),
/// a threshold that may be disabled is an `Option` (JSON `null`), so
/// events stay `Copy + Eq` and serialize to one JSONL line with no string
/// escaping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A logical access retired with its per-stage cycle attribution.
    AccessRetired {
        /// Logical block address.
        addr: u64,
        /// `true` for writes (identical on the wire; kept for attribution).
        write: bool,
        /// Total latency in cycles (sum of the stage fields).
        latency: u64,
        /// Cycles fetching position-map paths.
        posmap: u64,
        /// Cycles fetching the data path.
        fetch: u64,
        /// Cycles on background-eviction paths.
        evict: u64,
        /// Transient-retry backoff cycles.
        backoff: u64,
    },
    /// A physical access read and wrote back the path to `leaf`: what an
    /// adversary on the memory bus sees of the ORAM. The sequence of
    /// these leaves is the adversary's whole view (paper Section 4.6).
    PathAccess {
        /// The path's leaf label.
        leaf: u64,
        /// `true` for a dummy access (background eviction or periodic
        /// filler). The wire shows no difference; the flag is ground
        /// truth for tests, which must treat both kinds as one
        /// observable.
        dummy: bool,
    },
    /// The stash reached a new occupancy high-water mark.
    StashWatermark {
        /// The new peak, which is the stash's occupancy when it is set.
        peak: u64,
    },
    /// The dynamic scheme merged two super blocks (paper Algorithm 1).
    SuperBlockMerge {
        /// Base address of the merged (larger) super block.
        base: u64,
        /// Size of the merged super block in blocks.
        size: u32,
        /// Merge counter value that crossed the threshold.
        counter: u32,
        /// Threshold it crossed.
        threshold: u32,
    },
    /// The dynamic scheme broke a super block (paper Algorithm 2).
    SuperBlockBreak {
        /// Base address of the super block that was halved.
        base: u64,
        /// Its size before the break, in blocks.
        size: u32,
        /// Break counter value that fell below the threshold.
        counter: u32,
        /// Threshold it fell below.
        threshold: u32,
    },
    /// The scheme's statistics window closed (every 1000 ORAM requests,
    /// paper Section 4.4.2) and published the rates Equation 1 reads
    /// until the next one closes.
    PrefetchWindow {
        /// Ordinal of the window, 1 for the first.
        window: u64,
        /// Window's prefetch hit rate in parts-per-million.
        hit_rate_ppm: u32,
        /// Window's background-eviction rate in parts-per-million.
        eviction_rate_ppm: u32,
        /// Window's ORAM access rate (busy share of time) in
        /// parts-per-million.
        access_rate_ppm: u32,
        /// Equation 1's merge threshold for a pair of single blocks under
        /// the published rates; `None` (JSON `null`) when merging is off.
        merge_threshold: Option<u32>,
        /// Equation 1's break threshold for a size-2 super block; `None`
        /// (JSON `null`) when breaking is off.
        break_threshold: Option<u32>,
        /// Merges since the controller was built.
        merges: u64,
        /// Breaks since the controller was built.
        breaks: u64,
        /// Data blocks that sit in a super block of two or more when the
        /// window closes.
        merged_blocks: u64,
    },
    /// A storage fault was detected.
    FaultDetected {
        /// What was detected.
        kind: FaultKind,
        /// Bucket concerned.
        bucket: u64,
    },
    /// A simulated core issued a demand fetch to the memory backend.
    TileIssue {
        /// Core that missed.
        core: u32,
        /// Block address of the miss.
        addr: u64,
        /// Cycle the request was issued.
        at: u64,
    },
    /// A demand fetch completed and its fills were installed.
    TileRetire {
        /// Core that waited on it.
        core: u32,
        /// Block address of the miss.
        addr: u64,
        /// Cycle the request completed.
        at: u64,
    },
    /// A deterministic crash injection fired: the access unwinds as if
    /// the process died at this point.
    CrashInject {
        /// Where the simulated death struck.
        point: KillPoint,
        /// Which crossing of the point fired (1-based).
        crossing: u64,
    },
    /// An access transaction committed: the epoch header flipped and the
    /// undo journal was discarded.
    JournalCommit {
        /// Undo entries the journal held at commit.
        entries: u64,
        /// The epoch the flip advanced to.
        epoch: u64,
    },
    /// Crash recovery ran: the journal was replayed (post-flip crash) or
    /// rolled back (pre-flip crash) and the checkpoint restored.
    RecoverReplay {
        /// `true` for replay (epoch had flipped), `false` for rollback.
        replay: bool,
        /// Store buckets restored from undo entries.
        restored: u64,
        /// Tree buckets re-read and re-verified from the store image.
        reverified: u64,
    },
}

impl ObsEvent {
    /// Stable snake_case discriminant name (the JSONL `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::AccessRetired { .. } => "access_retired",
            ObsEvent::PathAccess { .. } => "path_access",
            ObsEvent::StashWatermark { .. } => "stash_watermark",
            ObsEvent::SuperBlockMerge { .. } => "super_block_merge",
            ObsEvent::SuperBlockBreak { .. } => "super_block_break",
            ObsEvent::PrefetchWindow { .. } => "prefetch_window",
            ObsEvent::FaultDetected { .. } => "fault_detected",
            ObsEvent::TileIssue { .. } => "tile_issue",
            ObsEvent::TileRetire { .. } => "tile_retire",
            ObsEvent::CrashInject { .. } => "crash_inject",
            ObsEvent::JournalCommit { .. } => "journal_commit",
            ObsEvent::RecoverReplay { .. } => "recover_replay",
        }
    }

    /// Every discriminant name, for schema checks of JSONL traces.
    pub const KINDS: [&'static str; 12] = [
        "access_retired",
        "path_access",
        "stash_watermark",
        "super_block_merge",
        "super_block_break",
        "prefetch_window",
        "fault_detected",
        "tile_issue",
        "tile_retire",
        "crash_inject",
        "journal_commit",
        "recover_replay",
    ];

    /// The leaf of a `path_access` event, whatever its kind: the one
    /// thing the bus shows of it. `None` for every other event.
    pub fn path_leaf(&self) -> Option<u64> {
        match *self {
            ObsEvent::PathAccess { leaf, .. } => Some(leaf),
            _ => None,
        }
    }

    /// Serializes the event as one JSONL line (no trailing newline).
    ///
    /// Every value is a JSON number, boolean, `null` or fixed identifier
    /// string, so the output needs no escaping and parses as one flat
    /// object with a `type` discriminant.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"type\":\"{}\"", self.kind());
        match *self {
            ObsEvent::AccessRetired {
                addr,
                write,
                latency,
                posmap,
                fetch,
                evict,
                backoff,
            } => {
                push_num(&mut s, "addr", addr);
                s.push_str(&format!(",\"write\":{write}"));
                push_num(&mut s, "latency", latency);
                push_num(&mut s, "posmap", posmap);
                push_num(&mut s, "fetch", fetch);
                push_num(&mut s, "evict", evict);
                push_num(&mut s, "backoff", backoff);
            }
            ObsEvent::PathAccess { leaf, dummy } => {
                push_num(&mut s, "leaf", leaf);
                s.push_str(&format!(",\"dummy\":{dummy}"));
            }
            ObsEvent::StashWatermark { peak } => push_num(&mut s, "peak", peak),
            ObsEvent::SuperBlockMerge {
                base,
                size,
                counter,
                threshold,
            }
            | ObsEvent::SuperBlockBreak {
                base,
                size,
                counter,
                threshold,
            } => {
                push_num(&mut s, "base", base);
                push_num(&mut s, "size", u64::from(size));
                push_num(&mut s, "counter", u64::from(counter));
                push_num(&mut s, "threshold", u64::from(threshold));
            }
            ObsEvent::PrefetchWindow {
                window,
                hit_rate_ppm,
                eviction_rate_ppm,
                access_rate_ppm,
                merge_threshold,
                break_threshold,
                merges,
                breaks,
                merged_blocks,
            } => {
                push_num(&mut s, "window", window);
                push_num(&mut s, "hit_rate_ppm", u64::from(hit_rate_ppm));
                push_num(&mut s, "eviction_rate_ppm", u64::from(eviction_rate_ppm));
                push_num(&mut s, "access_rate_ppm", u64::from(access_rate_ppm));
                push_opt(&mut s, "merge_threshold", merge_threshold);
                push_opt(&mut s, "break_threshold", break_threshold);
                push_num(&mut s, "merges", merges);
                push_num(&mut s, "breaks", breaks);
                push_num(&mut s, "merged_blocks", merged_blocks);
            }
            ObsEvent::FaultDetected { kind, bucket } => {
                s.push_str(&format!(",\"kind\":\"{}\"", kind.name()));
                push_num(&mut s, "bucket", bucket);
            }
            ObsEvent::TileIssue { core, addr, at } | ObsEvent::TileRetire { core, addr, at } => {
                push_num(&mut s, "core", u64::from(core));
                push_num(&mut s, "addr", addr);
                push_num(&mut s, "at", at);
            }
            ObsEvent::CrashInject { point, crossing } => {
                s.push_str(&format!(",\"point\":\"{}\"", point.name()));
                push_num(&mut s, "crossing", crossing);
            }
            ObsEvent::JournalCommit { entries, epoch } => {
                push_num(&mut s, "entries", entries);
                push_num(&mut s, "epoch", epoch);
            }
            ObsEvent::RecoverReplay {
                replay,
                restored,
                reverified,
            } => {
                s.push_str(&format!(",\"replay\":{replay}"));
                push_num(&mut s, "restored", restored);
                push_num(&mut s, "reverified", reverified);
            }
        }
        s.push('}');
        s
    }
}

fn push_num(s: &mut String, key: &str, value: u64) {
    s.push_str(&format!(",\"{key}\":{value}"));
}

fn push_opt(s: &mut String, key: &str, value: Option<u32>) {
    match value {
        Some(v) => push_num(s, key, u64::from(v)),
        None => s.push_str(&format!(",\"{key}\":null")),
    }
}

/// Converts a rate in `[0, 1]` to parts-per-million, saturating.
pub fn rate_to_ppm(rate: f64) -> u32 {
    if rate.is_finite() && rate > 0.0 {
        (rate * 1_000_000.0).min(1_000_000.0) as u32
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kill_points_have_unique_names() {
        let mut names: Vec<&str> = KillPoint::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KillPoint::ALL.len());
    }

    #[test]
    fn jsonl_lines_are_flat_objects_with_known_types() {
        let events = [
            ObsEvent::AccessRetired {
                addr: 5,
                write: true,
                latency: 10,
                posmap: 4,
                fetch: 3,
                evict: 2,
                backoff: 1,
            },
            ObsEvent::PathAccess {
                leaf: 3,
                dummy: true,
            },
            ObsEvent::StashWatermark { peak: 12 },
            ObsEvent::SuperBlockMerge {
                base: 16,
                size: 4,
                counter: 3,
                threshold: 2,
            },
            ObsEvent::SuperBlockBreak {
                base: 16,
                size: 4,
                counter: 0,
                threshold: 1,
            },
            ObsEvent::PrefetchWindow {
                window: 2,
                hit_rate_ppm: 500_000,
                eviction_rate_ppm: 0,
                access_rate_ppm: 250_000,
                merge_threshold: Some(1),
                break_threshold: None,
                merges: 7,
                breaks: 1,
                merged_blocks: 12,
            },
            ObsEvent::FaultDetected {
                kind: FaultKind::Rollback,
                bucket: 9,
            },
            ObsEvent::TileIssue {
                core: 0,
                addr: 77,
                at: 1000,
            },
            ObsEvent::TileRetire {
                core: 0,
                addr: 77,
                at: 2000,
            },
            ObsEvent::CrashInject {
                point: KillPoint::MidFlip,
                crossing: 1,
            },
            ObsEvent::JournalCommit {
                entries: 24,
                epoch: 7,
            },
            ObsEvent::RecoverReplay {
                replay: false,
                restored: 12,
                reverified: 30,
            },
        ];
        assert_eq!(ObsEvent::KINDS.len(), 12);
        assert_eq!(events.len(), ObsEvent::KINDS.len());
        for e in &events {
            let line = e.to_json();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(
                line.starts_with(&format!("{{\"type\":\"{}\"", e.kind())),
                "{line}"
            );
            assert!(ObsEvent::KINDS.contains(&e.kind()));
            assert_eq!(e.path_leaf().is_some(), e.kind() == "path_access");
            assert_eq!(line.matches('{').count(), 1, "flat object: {line}");
            assert_eq!(line.matches('}').count(), 1, "flat object: {line}");
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn retired_latency_fields_serialize() {
        let e = ObsEvent::AccessRetired {
            addr: 1,
            write: false,
            latency: 65,
            posmap: 10,
            fetch: 20,
            evict: 30,
            backoff: 5,
        };
        let j = e.to_json();
        for part in [
            "\"write\":false",
            "\"latency\":65",
            "\"posmap\":10",
            "\"fetch\":20",
            "\"evict\":30",
            "\"backoff\":5",
        ] {
            assert!(j.contains(part), "{j}");
        }
    }

    #[test]
    fn a_disabled_threshold_renders_as_null() {
        let window = |merge_threshold, break_threshold| ObsEvent::PrefetchWindow {
            window: 1,
            hit_rate_ppm: 1_000_000,
            eviction_rate_ppm: 0,
            access_rate_ppm: 0,
            merge_threshold,
            break_threshold,
            merges: 0,
            breaks: 0,
            merged_blocks: 0,
        };
        let on = window(Some(0), Some(0)).to_json();
        assert!(
            on.contains("\"merge_threshold\":0,\"break_threshold\":0,"),
            "{on}"
        );
        let off = window(None, None).to_json();
        assert!(
            off.contains("\"merge_threshold\":null,\"break_threshold\":null,"),
            "{off}"
        );
    }

    #[test]
    fn ppm_conversion_saturates_and_handles_nan() {
        assert_eq!(rate_to_ppm(0.5), 500_000);
        assert_eq!(rate_to_ppm(2.0), 1_000_000);
        assert_eq!(rate_to_ppm(-1.0), 0);
        assert_eq!(rate_to_ppm(f64::NAN), 0);
    }
}
