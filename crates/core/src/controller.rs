//! The PrORAM controller: Path ORAM with (dynamic) super blocks.
//!
//! Implements the access flow of paper Section 4: one path access loads an
//! entire super block; Algorithm 1 merges neighbors that exhibit spatial
//! locality; Algorithm 2 breaks super blocks whose prefetches stop
//! hitting. With `max_sbsize = 1` the controller degenerates to the
//! baseline ORAM, and with `static_init_size = n`, merging and breaking
//! disabled, it is exactly the static super block scheme of Section 3.3 —
//! so a single implementation produces every configuration in the
//! evaluation.
//!
//! ## Modeling notes (see DESIGN.md §7)
//!
//! * The per-block *hit* and *prefetch* bits are physically "stored with
//!   each data block in the ORAM and the LLC" / "in the Pos-Map blocks"
//!   (Section 4.5.1); their maintenance is explicitly off the critical
//!   path. We track them in one controller-side ledger (block → hit bit,
//!   present while the prefetch bit is set) plus the pos-map entry bits,
//!   with identical semantics and zero timing cost.
//! * Dirty LLC write-backs access the super block and remap it as a unit
//!   (preserving co-location) but perform no merge/break processing and
//!   return no prefetches — the paper does not specify write-back
//!   behaviour; this choice avoids cache re-pollution.

use crate::policy::{BreakPolicy, SchemeConfig};
use crate::superblock::SuperBlock;
use crate::threshold::{CounterWidth, Thresholds};
use crate::window::WindowStats;
use proram_mem::{
    AccessKind, AccessOutcome, BackendStats, BlockAddr, CacheProbe, Cycle, FaultStats, Fill,
    MemRequest, MemoryBackend,
};
use proram_obs::{rate_to_ppm, Obs, ObsEvent};
use proram_oram::{
    AccessReport, Leaf, OramBackend, OramConfig, OramError, PathKind, PathOram, RecoveryMode,
};
use proram_stats::FxHashMap;

/// Counters specific to the super-block machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Logical demand requests served.
    pub demand_reads: u64,
    /// Write-back requests served.
    pub writebacks: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// Break operations performed.
    pub breaks: u64,
    /// Blocks delivered to the LLC as super-block prefetches.
    pub prefetches_issued: u64,
    /// Prefetched blocks that were used before leaving the LLC.
    pub prefetch_hits: u64,
    /// Prefetched blocks evicted or re-fetched without being used.
    pub prefetch_misses: u64,
}

/// Path ORAM with the super-block schemes of the paper.
///
/// # Examples
///
/// ```
/// use proram_core::{SchemeConfig, SuperBlockOram};
/// use proram_oram::OramConfig;
/// use proram_mem::{BlockAddr, MemRequest, MemoryBackend, NoProbe};
///
/// let mut oram =
///     SuperBlockOram::new(OramConfig::small_for_tests(256), SchemeConfig::static_scheme(2), 7);
/// let o = oram.access(0, MemRequest::read(BlockAddr(4)), &NoProbe);
/// // A static super block of size 2 delivers the neighbor too.
/// assert_eq!(o.fills.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SuperBlockOram<O: OramBackend = PathOram> {
    oram: O,
    scheme: SchemeConfig,
    window: WindowStats,
    /// The prefetch ledger: a key is a block delivered as a prefetch whose
    /// fate is not yet decided (the prefetch bit), its value whether it
    /// has been used since (the hit bit).
    prefetched: FxHashMap<u64, bool>,
    stats: SchemeStats,
    /// Faults that surfaced to the scheme layer unrecovered (the backend
    /// already counts its own detections/recoveries).
    scheme_faults: FaultStats,
    busy_until: Cycle,
    last_complete: Cycle,
    label: String,
    /// Observability handle shared with the backend (disabled by default).
    obs: Obs,
}

impl SuperBlockOram<PathOram> {
    /// Builds a Path ORAM and attaches the super-block scheme.
    ///
    /// The scheme's `static_init_size` overrides the ORAM's
    /// `init_group_size` so the static scheme's groups are formed during
    /// initialization.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid, or `max_sbsize` exceeds
    /// the posmap fanout (the paper: "the maximum super block size is
    /// limited by the maximum number of position maps stored in a Pos-Map
    /// block").
    pub fn new(mut oram_config: OramConfig, scheme: SchemeConfig, seed: u64) -> Self {
        assert!(
            scheme.max_sbsize * scheme.stride <= oram_config.entries_per_posmap_block,
            "super block span {} (max_sbsize {} x stride {}) exceeds posmap fanout {}",
            scheme.max_sbsize * scheme.stride,
            scheme.max_sbsize,
            scheme.stride,
            oram_config.entries_per_posmap_block
        );
        oram_config.init_group_size = scheme.static_init_size;
        SuperBlockOram::from_backend(PathOram::new(oram_config, seed), scheme)
    }
}

impl<O: OramBackend> SuperBlockOram<O> {
    /// Attaches the super-block scheme to any tree ORAM implementing
    /// [`OramBackend`] — the paper's Section 6.1 generality claim: "all
    /// ORAM schemes should be able to take advantage of super blocks as
    /// long as they have support for background eviction."
    ///
    /// Static initialization grouping (`static_init_size`) must already
    /// have been applied by the backend's constructor.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is invalid or its span exceeds the backend's
    /// posmap fanout.
    pub fn from_backend(backend: O, scheme: SchemeConfig) -> Self {
        scheme.validate();
        assert!(
            scheme.max_sbsize * scheme.stride <= backend.space().entries_per_block(),
            "super block span exceeds the backend's posmap fanout"
        );
        let label = if backend.backend_name() == "path" {
            scheme.label().to_owned()
        } else {
            format!("{}_{}", scheme.label(), backend.backend_name())
        };
        SuperBlockOram {
            window: WindowStats::new(scheme.window),
            oram: backend,
            scheme,
            prefetched: FxHashMap::default(),
            stats: SchemeStats::default(),
            scheme_faults: FaultStats::default(),
            busy_until: 0,
            last_complete: 0,
            label,
            obs: Obs::disabled(),
        }
    }

    /// The scheme configuration.
    pub fn scheme(&self) -> &SchemeConfig {
        &self.scheme
    }

    /// Scheme-level statistics.
    pub fn scheme_stats(&self) -> SchemeStats {
        self.stats
    }

    /// The underlying ORAM (trace, stash, invariants).
    pub fn oram(&self) -> &O {
        &self.oram
    }

    /// Mutable access to the underlying ORAM (tests and examples).
    pub fn oram_mut(&mut self) -> &mut O {
        &mut self.oram
    }

    /// The super block `addr` currently belongs to, inferred — as the
    /// hardware does — from leaf-label equality in the (resolved) posmap
    /// block. Performs posmap accesses if the covering posmap block is
    /// not on-chip; returns the group and the posmap accesses spent.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered faults from the posmap path reads.
    pub fn current_super_block(&mut self, addr: BlockAddr) -> Result<(SuperBlock, u64), OramError> {
        let pm = self.oram.resolve_posmap(addr)?;
        Ok((self.detect(addr), pm))
    }

    fn detect(&self, addr: BlockAddr) -> SuperBlock {
        let data_blocks = self.oram.space().num_data_blocks();
        let stride = self.scheme.stride;
        let mut size = self.scheme.max_sbsize;
        while size > 1 {
            let sb = SuperBlock::containing_strided(addr, size, stride);
            if sb.fits_within(data_blocks) && self.colocated(sb) {
                return sb;
            }
            size /= 2;
        }
        // The trivial group still carries the scheme stride so its
        // neighbor (the merge candidate) is the strided one.
        SuperBlock::containing_strided(addr, 1, stride)
    }

    /// `true` if every member of `sb` is mapped to one common leaf ("if
    /// the corresponding blocks in it are mapped to the same leaf label,
    /// the ORAM controller then treats these blocks as a super block").
    fn colocated(&self, sb: SuperBlock) -> bool {
        let leaf = self.oram.entry(sb.base()).leaf;
        sb.members().all(|m| self.oram.entry(m).leaf == leaf)
    }

    // ------------------------------------------------------------------
    // Demand read: the full Section 4 flow
    // ------------------------------------------------------------------

    fn demand_read(
        &mut self,
        addr: BlockAddr,
        llc: &dyn CacheProbe,
    ) -> Result<(AccessReport, Vec<Fill>), OramError> {
        self.stats.demand_reads += 1;
        let backoff_before = self.oram.fault_stats().backoff_cycles;
        let posmap_accesses = self.oram.resolve_posmap(addr)?;
        let sb = self.detect(addr);
        let old_leaf = self.oram.entry(addr).leaf;

        // Step 1 (Section 4): access the path and pull the whole super
        // block on-chip.
        self.oram.read_path_into_stash(old_leaf, PathKind::Data)?;
        let found: Vec<BlockAddr> = sb
            .members()
            .filter(|&m| self.oram.stash_contains(m))
            .collect();
        assert!(
            found.contains(&addr),
            "invariant broken: requested block {addr} absent from path {old_leaf} and stash"
        );

        // Step 3 (Algorithm 2): reconstruct and update the break counter
        // from the prefetch/hit bits of members coming from ORAM.
        let mut break_counter = i32::from(self.oram.entry(sb.base()).brk);
        for &m in &found {
            if llc.contains(m) {
                continue; // still in the LLC: not "coming from ORAM"
            }
            if let Some(hit) = self.prefetched.remove(&m.0) {
                break_counter += if hit { 1 } else { -1 };
            }
            self.oram.entry_mut(m).prefetch = false;
        }

        let rates = self.window.rates();
        let break_threshold = Thresholds::new(&self.scheme, rates).break_threshold(sb.size());
        let mut fills = Vec::new();

        let broke = sb.size() >= 2
            && matches!(self.scheme.brk, BreakPolicy::Static | BreakPolicy::Adaptive)
            && break_counter < break_threshold.expect("break policy enabled");

        if broke {
            // Break B into B1 (with the requested block, returned to the
            // LLC) and B2 (written back): remap the halves to independent
            // fresh leaves.
            self.stats.breaks += 1;
            self.obs.emit(|| ObsEvent::SuperBlockBreak {
                base: sb.base().0,
                size: sb.size() as u32,
                counter: break_counter.max(0) as u32,
                threshold: break_threshold.unwrap_or(0).max(0) as u32,
            });
            let b1 = sb.half_containing(addr);
            let b2 = if b1.base() == sb.halves().0.base() {
                sb.halves().1
            } else {
                sb.halves().0
            };
            let l1 = self.oram.random_leaf();
            let l2 = self.oram.random_leaf();
            for m in b1.members() {
                self.oram.entry_mut(m).leaf = l1;
                if let Some(b) = self.oram.stash_block_mut(m) {
                    b.leaf = l1;
                }
            }
            for m in b2.members() {
                self.oram.entry_mut(m).leaf = l2;
                if let Some(b) = self.oram.stash_block_mut(m) {
                    b.leaf = l2;
                }
            }
            // Counters are reconstructed per-size; reset the broken super
            // block's break counter and the merge counter of the (B1, B2)
            // pair so re-merging needs fresh evidence.
            self.oram.entry_mut(sb.base()).brk = 0;
            self.oram.entry_mut(sb.base()).merge = 0;
            fills.extend(self.deliver(addr, b1, &found, llc));
        } else {
            if sb.size() >= 2 {
                let cap = CounterWidth::break_cap(sb.size());
                self.oram.entry_mut(sb.base()).brk = break_counter.clamp(0, cap) as i16;
            }
            // Remap the whole super block to one fresh leaf.
            let new_leaf = self.oram.random_leaf();
            for &m in &found {
                self.oram.entry_mut(m).leaf = new_leaf;
                if let Some(b) = self.oram.stash_block_mut(m) {
                    b.leaf = new_leaf;
                }
            }
            fills.extend(self.deliver(addr, sb, &found, llc));
            // Step 2 (Algorithm 1): merge bookkeeping.
            self.try_merge(sb, llc, rates);
        }

        if self.obs.is_enabled() {
            let issued = fills.iter().filter(|f| f.prefetched).count() as u32;
            self.obs.emit(|| ObsEvent::PrefetchWindow {
                base: sb.base().0,
                issued,
                hit_rate_ppm: rate_to_ppm(rates.prefetch_hit_rate),
                eviction_rate_ppm: rate_to_ppm(rates.eviction_rate),
            });
        }

        let report = self.finish(
            addr,
            AccessKind::Read,
            old_leaf,
            posmap_accesses,
            backoff_before,
        )?;
        Ok((report, fills))
    }

    /// The closing steps every access shares with
    /// [`PathOram::try_access_block`]: write the fetched path back, drain
    /// the stash, retire.
    fn finish(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        old_leaf: Leaf,
        posmap_accesses: u64,
        backoff_before: u64,
    ) -> Result<AccessReport, OramError> {
        self.oram.write_path_from_stash(old_leaf)?;
        let background_evictions = self.oram.drain_background()?;
        Ok(AccessReport::retire(
            &self.obs,
            addr,
            kind,
            posmap_accesses,
            background_evictions,
            self.oram.path_cycles(),
            self.oram.fault_stats().backoff_cycles - backoff_before,
        ))
    }

    /// Returns the requested block plus prefetch fills for the other
    /// members of `group` that are not already LLC-resident, setting their
    /// prefetch bits ("each block in B2 will have the prefetch bit set and
    /// hit bit reset").
    fn deliver(
        &mut self,
        requested: BlockAddr,
        group: SuperBlock,
        found: &[BlockAddr],
        llc: &dyn CacheProbe,
    ) -> Vec<Fill> {
        let mut fills = vec![Fill::demand(requested)];
        for &m in found {
            if m == requested || !group.contains(m) || llc.contains(m) {
                continue;
            }
            self.oram.entry_mut(m).prefetch = true;
            self.prefetched.insert(m.0, false);
            self.stats.prefetches_issued += 1;
            fills.push(Fill::prefetch(m));
        }
        fills
    }

    /// Algorithm 1: update the merge counter of `(B, B')` and merge when
    /// it crosses the threshold.
    fn try_merge(
        &mut self,
        sb: SuperBlock,
        llc: &dyn CacheProbe,
        rates: crate::window::WindowRates,
    ) {
        let Some(threshold) = Thresholds::new(&self.scheme, rates).merge_threshold(sb.size())
        else {
            return; // merging disabled
        };
        if 2 * sb.size() > self.scheme.max_sbsize {
            return;
        }
        let neighbor = sb.neighbor();
        if !neighbor.fits_within(self.oram.space().num_data_blocks()) {
            return;
        }
        let pair_base = sb.parent().base();
        let mut counter = i32::from(self.oram.entry(pair_base).merge);
        let neighbor_resident = neighbor.members().all(|m| llc.contains(m));
        if neighbor_resident {
            counter += 1;
        } else {
            counter -= 1;
        }
        let cap = CounterWidth::merge_cap(sb.size());
        counter = counter.clamp(0, cap);

        // Merging additionally requires the neighbor to be a co-located
        // super block of the same size, so "the position map of B'" is
        // well defined.
        if neighbor_resident && counter >= threshold && self.colocated(neighbor) {
            self.stats.merges += 1;
            self.obs.emit(|| ObsEvent::SuperBlockMerge {
                base: pair_base.0,
                size: (2 * sb.size()) as u32,
                counter: counter.max(0) as u32,
                threshold: threshold.max(0) as u32,
            });
            let target = self.oram.entry(neighbor.base()).leaf;
            for m in sb.members() {
                self.oram.entry_mut(m).leaf = target;
                if let Some(b) = self.oram.stash_block_mut(m) {
                    b.leaf = target;
                }
            }
            // The pair's merge bits are reused at the next size; the new
            // super block starts with a fresh break counter of 2 * (2n).
            self.oram.entry_mut(pair_base).merge = 0;
            self.oram.entry_mut(pair_base).brk =
                CounterWidth::break_init(2 * sb.size()).min(i32::from(i16::MAX)) as i16;
        } else {
            self.oram.entry_mut(pair_base).merge = counter as i16;
        }
    }

    // ------------------------------------------------------------------
    // Write-back
    // ------------------------------------------------------------------

    fn writeback(&mut self, addr: BlockAddr) -> Result<(AccessReport, Vec<Fill>), OramError> {
        self.stats.writebacks += 1;
        let backoff_before = self.oram.fault_stats().backoff_cycles;
        let posmap_accesses = self.oram.resolve_posmap(addr)?;
        let sb = self.detect(addr);
        let old_leaf = self.oram.entry(addr).leaf;
        self.oram.read_path_into_stash(old_leaf, PathKind::Data)?;
        let found: Vec<BlockAddr> = sb
            .members()
            .filter(|&m| self.oram.stash_contains(m))
            .collect();
        let new_leaf = self.oram.random_leaf();
        for &m in &found {
            self.oram.entry_mut(m).leaf = new_leaf;
            if let Some(b) = self.oram.stash_block_mut(m) {
                b.leaf = new_leaf;
            }
        }
        let report = self.finish(
            addr,
            AccessKind::Write,
            old_leaf,
            posmap_accesses,
            backoff_before,
        )?;
        Ok((report, Vec::new()))
    }

    fn schedule(&mut self, now: Cycle, latency: u64) -> Cycle {
        let start = now.max(self.busy_until);
        let complete = start + latency;
        self.busy_until = complete;
        complete
    }

    /// What a request gets when the normal path did not serve it (a
    /// replayed crash, an unrecovered fault): its demand fill, and a
    /// report charging `latency` as one lump. Never retired into the obs
    /// sink.
    fn served_outside_the_path(
        req: MemRequest,
        latency: u64,
        tree_accesses: u64,
    ) -> (AccessReport, Vec<Fill>) {
        let fills = match req.kind {
            AccessKind::Read => vec![Fill::demand(req.block)],
            AccessKind::Write => Vec::new(),
        };
        let report = AccessReport {
            latency,
            tree_accesses,
            posmap_accesses: 0,
            background_evictions: 0,
        };
        (report, fills)
    }

    /// One transactional attempt at serving `req`: the whole composite
    /// access — demand read or write-back, including every super-block
    /// prefetch path and eviction it triggers — runs inside one backend
    /// commit transaction (DESIGN.md section 15), so a crash anywhere
    /// inside it rolls back to the access boundary.
    fn attempt_txn(
        &mut self,
        req: MemRequest,
        llc: &dyn CacheProbe,
    ) -> Result<(AccessReport, Vec<Fill>), OramError> {
        self.oram.txn_begin();
        let out = match req.kind {
            AccessKind::Read => self.demand_read(req.block, llc),
            AccessKind::Write => self.writeback(req.block),
        }?;
        self.oram.txn_commit()?;
        Ok(out)
    }
}

impl<O: OramBackend> MemoryBackend for SuperBlockOram<O> {
    fn access(&mut self, now: Cycle, req: MemRequest, llc: &dyn CacheProbe) -> AccessOutcome {
        // The ledger and the counters are edited before the access
        // commits, so they are part of what a rollback must undo; saved
        // only when the backend can roll back at all.
        let saved = self
            .oram
            .txn_armed()
            .then(|| (self.prefetched.clone(), self.stats));
        let mut attempt = self.attempt_txn(req, llc);
        // A crashed access recovers in place: the backend rolls its
        // journal back (or replays it forward past the epoch flip), and a
        // rolled-back request is retried once from the pre-attempt scheme
        // state — the checkpointed RNG replays identical randomness. A
        // replayed transaction already committed, so it keeps its edits
        // and the fill is delivered without re-executing (a retry would
        // double-apply the remap); only the recovery work is charged.
        // Backends without a commit protocol return `None` and fall
        // through to the degraded-fault path below.
        if let Err(OramError::Crashed { .. }) = attempt {
            if let Some(rec) = self.oram.recover_crash() {
                self.scheme_faults.recovered += 1;
                attempt = if rec.mode == RecoveryMode::Replayed {
                    Ok(Self::served_outside_the_path(req, rec.cycles.max(1), 0))
                } else {
                    if let Some((prefetched, stats)) = saved {
                        self.prefetched = prefetched;
                        self.stats = stats;
                    }
                    self.attempt_txn(req, llc).map(|(mut r, f)| {
                        r.latency += rec.cycles;
                        (r, f)
                    })
                };
            }
        }
        // An unrecovered fault degrades the access instead of aborting the
        // simulation: the requested block is still delivered (reads), the
        // access is charged one path latency, and the fault is reported in
        // the run's fault counters.
        let (report, fills) = attempt.unwrap_or_else(|_err| {
            self.scheme_faults.unrecovered += 1;
            Self::served_outside_the_path(req, self.oram.path_cycles(), 1)
        });
        let complete_at = self.schedule(now, report.latency);
        let elapsed = complete_at.saturating_sub(self.last_complete).max(1);
        self.window
            .record_request(report.background_evictions, elapsed, report.latency);
        self.last_complete = complete_at;
        AccessOutcome { complete_at, fills }
    }

    fn dummy_access(&mut self, now: Cycle) -> Cycle {
        if self.oram.background_evict().is_err() {
            self.scheme_faults.unrecovered += 1;
        }
        self.schedule(now, self.oram.path_cycles())
    }

    fn free_at(&self) -> Cycle {
        self.busy_until
    }

    fn note_llc_hit(&mut self, block: BlockAddr) {
        if let Some(hit) = self.prefetched.get_mut(&block.0) {
            if !std::mem::replace(hit, true) {
                self.stats.prefetch_hits += 1;
                self.window.record_prefetch(true);
            }
        }
    }

    fn note_llc_eviction(&mut self, block: BlockAddr) {
        // A prefetched block leaving the LLC unused is a prefetch miss.
        // Its bits persist so Algorithm 2 still sees them at the block's
        // next load; double counting is impossible because an evicted
        // block can only be evicted again after a re-delivery, which
        // resets its bits.
        if self.prefetched.get(&block.0) == Some(&false) {
            self.stats.prefetch_misses += 1;
            self.window.record_prefetch(false);
        }
    }

    fn stats(&self) -> BackendStats {
        let o = self.oram.oram_stats();
        BackendStats {
            demand_accesses: self.stats.demand_reads + self.stats.writebacks,
            prefetch_requests: self.stats.prefetches_issued,
            physical_accesses: o.total_path_accesses(),
            dummy_accesses: o.background_evictions,
            posmap_accesses: o.posmap_path_accesses,
            bytes_moved: o.bytes_moved,
            prefetch_hits: self.stats.prefetch_hits,
            prefetch_misses: self.stats.prefetch_misses,
            busy_cycles: o.total_path_accesses() * self.oram.path_cycles(),
            data_path_cycles: o.data_path_accesses * self.oram.path_cycles(),
            posmap_path_cycles: o.posmap_path_accesses * self.oram.path_cycles(),
            dummy_path_cycles: o.background_evictions * self.oram.path_cycles(),
            treetop_hits: o.treetop_hits,
            treetop_bytes_saved: o.treetop_bytes_saved,
            faults: self.oram.fault_stats() + self.scheme_faults,
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    /// Attaches the handle to the scheme layer *and* the underlying ORAM
    /// backend, so one sink interleaves super-block decisions and access
    /// retirements with the backend's own events.
    fn attach_obs(&mut self, obs: Obs) {
        self.oram.attach_obs(obs.clone());
        self.obs = obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_mem::NoProbe;
    use proram_stats::{Rng64, Xoshiro256};
    use std::collections::HashSet;

    /// LLC stub for driving the merge scheme: whatever is in the set is
    /// "resident".
    #[derive(Debug, Default)]
    struct SetProbe(HashSet<u64>);

    impl SetProbe {
        fn insert_fills(&mut self, fills: &[Fill]) {
            for f in fills {
                self.0.insert(f.block.0);
            }
        }
    }

    impl CacheProbe for SetProbe {
        fn contains(&self, block: BlockAddr) -> bool {
            self.0.contains(&block.0)
        }
    }

    fn small(scheme: SchemeConfig) -> SuperBlockOram {
        SuperBlockOram::new(OramConfig::small_for_tests(256), scheme, 99)
    }

    #[test]
    fn baseline_delivers_only_the_requested_block() {
        let mut oram = small(SchemeConfig::baseline());
        let o = oram.access(0, MemRequest::read(BlockAddr(5)), &NoProbe);
        assert_eq!(o.fills, vec![Fill::demand(BlockAddr(5))]);
        assert_eq!(oram.scheme_stats().prefetches_issued, 0);
    }

    #[test]
    fn static_scheme_prefetches_whole_group() {
        let mut oram = small(SchemeConfig::static_scheme(4));
        let o = oram.access(0, MemRequest::read(BlockAddr(5)), &NoProbe);
        let blocks: HashSet<u64> = o.fills.iter().map(|f| f.block.0).collect();
        assert_eq!(blocks, HashSet::from([4, 5, 6, 7]));
        let demands: Vec<&Fill> = o.fills.iter().filter(|f| !f.prefetched).collect();
        assert_eq!(demands.len(), 1);
        assert_eq!(demands[0].block, BlockAddr(5));
        assert_eq!(oram.scheme_stats().prefetches_issued, 3);
    }

    #[test]
    fn static_groups_stay_colocated_across_accesses() {
        let mut oram = small(SchemeConfig::static_scheme(2));
        let mut rng = Xoshiro256::seed_from(4);
        for _ in 0..100 {
            let a = BlockAddr(rng.next_below(256));
            oram.access(0, MemRequest::read(a), &NoProbe);
        }
        for base in (0..256u64).step_by(2) {
            oram.oram_mut().resolve_posmap(BlockAddr(base)).unwrap();
            let l0 = oram.oram().entry(BlockAddr(base)).leaf;
            let l1 = oram.oram().entry(BlockAddr(base + 1)).leaf;
            assert_eq!(l0, l1, "static group {base} split");
        }
        oram.oram().check_invariants();
    }

    #[test]
    fn dynamic_starts_unmerged() {
        let mut oram = small(SchemeConfig::dynamic(2));
        let o = oram.access(0, MemRequest::read(BlockAddr(8)), &NoProbe);
        assert_eq!(o.fills.len(), 1, "no super blocks exist yet");
    }

    #[test]
    fn dynamic_merges_under_spatial_locality() {
        let mut oram = small(SchemeConfig::dynamic(2));
        let mut llc = SetProbe::default();
        // Repeatedly access a neighbor pair so Algorithm 1 sees locality:
        // when block 10 is loaded and block 11 is resident (and vice
        // versa) the merge counter climbs to the threshold.
        for round in 0..20 {
            for a in [10u64, 11] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        assert!(
            oram.scheme_stats().merges >= 1,
            "no merge after sustained locality"
        );
        // The pair must now be co-located.
        oram.oram_mut().resolve_posmap(BlockAddr(10)).unwrap();
        assert_eq!(
            oram.oram().entry(BlockAddr(10)).leaf,
            oram.oram().entry(BlockAddr(11)).leaf
        );
        // And a subsequent miss of one delivers both.
        let o = oram.access(1_000_000, MemRequest::read(BlockAddr(10)), &NoProbe);
        assert_eq!(o.fills.len(), 2);
        oram.oram().check_invariants();
    }

    #[test]
    fn no_merge_without_locality() {
        let mut oram = small(SchemeConfig::dynamic(2));
        // Random accesses with an empty LLC never raise merge counters.
        let mut rng = Xoshiro256::seed_from(8);
        for _ in 0..200 {
            let a = BlockAddr(rng.next_below(256));
            oram.access(0, MemRequest::read(a), &NoProbe);
        }
        assert_eq!(oram.scheme_stats().merges, 0);
        // A handful of prefetches can still occur: with the tiny test
        // tree (128 leaves) two neighbors occasionally collide on a leaf
        // and are detected as a super block — exactly what the paper's
        // leaf-equality rule would do in hardware. No *merge* may happen.
        assert!(oram.scheme_stats().prefetches_issued < 10);
    }

    #[test]
    fn break_splits_a_super_block_when_prefetches_miss() {
        let mut oram = small(SchemeConfig::dynamic(2));
        let mut llc = SetProbe::default();
        // Merge blocks 20/21 first.
        for round in 0..20 {
            for a in [20u64, 21] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        assert!(oram.scheme_stats().merges >= 1);
        // Now access only block 20 with the prefetched 21 always evicted
        // unused: each reload sees prefetch && !hit and decrements the
        // break counter until the block splits.
        let mut broke = false;
        for i in 0..40 {
            llc.0.clear();
            let o = oram.access(1000 + i, MemRequest::read(BlockAddr(20)), &llc);
            // Simulate the LLC evicting the prefetched neighbor unused.
            for f in &o.fills {
                if f.prefetched {
                    oram.note_llc_eviction(f.block);
                }
            }
            if oram.scheme_stats().breaks > 0 {
                broke = true;
                break;
            }
        }
        assert!(broke, "super block never broke despite useless prefetches");
        oram.oram().check_invariants();
    }

    #[test]
    fn no_break_when_breaking_disabled() {
        let mut oram = small(SchemeConfig::adaptive_merge_no_break(2));
        let mut llc = SetProbe::default();
        for round in 0..20 {
            for a in [20u64, 21] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        assert!(oram.scheme_stats().merges >= 1);
        for i in 0..40 {
            llc.0.clear();
            let o = oram.access(1000 + i, MemRequest::read(BlockAddr(20)), &llc);
            for f in &o.fills {
                if f.prefetched {
                    oram.note_llc_eviction(f.block);
                }
            }
        }
        assert_eq!(oram.scheme_stats().breaks, 0);
    }

    #[test]
    fn prefetch_hit_statistics() {
        let mut oram = small(SchemeConfig::static_scheme(2));
        let o = oram.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        let prefetched: Vec<BlockAddr> = o
            .fills
            .iter()
            .filter(|f| f.prefetched)
            .map(|f| f.block)
            .collect();
        assert_eq!(prefetched, vec![BlockAddr(1)]);
        oram.note_llc_hit(BlockAddr(1));
        assert_eq!(oram.scheme_stats().prefetch_hits, 1);
        // Hitting again does not double count.
        oram.note_llc_hit(BlockAddr(1));
        assert_eq!(oram.scheme_stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_miss_statistics_on_eviction() {
        let mut oram = small(SchemeConfig::static_scheme(2));
        let o = oram.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        let pf = o.fills.iter().find(|f| f.prefetched).unwrap().block;
        oram.note_llc_eviction(pf);
        assert_eq!(oram.scheme_stats().prefetch_misses, 1);
        assert_eq!(oram.scheme_stats().prefetch_hits, 0);
    }

    #[test]
    fn writeback_preserves_colocation_and_returns_nothing() {
        let mut oram = small(SchemeConfig::static_scheme(4));
        let o = oram.access(0, MemRequest::write(BlockAddr(9)), &NoProbe);
        assert!(o.fills.is_empty());
        oram.oram_mut().resolve_posmap(BlockAddr(8)).unwrap();
        let leaf = oram.oram().entry(BlockAddr(8)).leaf;
        for m in 9..12u64 {
            assert_eq!(oram.oram().entry(BlockAddr(m)).leaf, leaf);
        }
        oram.oram().check_invariants();
    }

    #[test]
    fn random_workload_maintains_invariants() {
        let mut oram = small(SchemeConfig::dynamic(4));
        let mut llc = SetProbe::default();
        let mut rng = Xoshiro256::seed_from(21);
        for i in 0..400 {
            // Mixture of sequential (locality) and random accesses plus
            // occasional writebacks.
            let a = if rng.next_bool(0.6) {
                BlockAddr(i % 64)
            } else {
                BlockAddr(rng.next_below(256))
            };
            let req = if rng.next_bool(0.2) {
                MemRequest::write(a)
            } else {
                MemRequest::read(a)
            };
            let o = oram.access(i, req, &llc);
            llc.insert_fills(&o.fills);
            if llc.0.len() > 32 {
                // Crude eviction pressure.
                let victim = *llc.0.iter().next().unwrap();
                llc.0.remove(&victim);
                oram.note_llc_eviction(BlockAddr(victim));
            }
        }
        oram.oram().check_invariants();
    }

    #[test]
    fn labels_flow_through() {
        assert_eq!(small(SchemeConfig::baseline()).label(), "oram");
        assert_eq!(small(SchemeConfig::static_scheme(2)).label(), "stat");
        assert_eq!(small(SchemeConfig::dynamic(2)).label(), "dyn");
    }

    #[test]
    fn backend_stats_track_oram_activity() {
        let mut oram = small(SchemeConfig::dynamic(2));
        for i in 0..10 {
            oram.access(0, MemRequest::read(BlockAddr(i)), &NoProbe);
        }
        let s = MemoryBackend::stats(&oram);
        assert_eq!(s.demand_accesses, 10);
        assert!(s.physical_accesses >= 10);
    }

    #[test]
    fn accesses_serialize_on_the_oram_resource() {
        let mut oram = small(SchemeConfig::dynamic(2));
        let a = oram.access(0, MemRequest::read(BlockAddr(1)), &NoProbe);
        let b = oram.access(0, MemRequest::read(BlockAddr(2)), &NoProbe);
        assert!(b.complete_at > a.complete_at);
    }

    #[test]
    fn dummy_access_runs_background_eviction() {
        let mut oram = small(SchemeConfig::dynamic(2));
        let before = oram.oram().oram_stats().background_evictions;
        oram.dummy_access(0);
        assert_eq!(oram.oram().oram_stats().background_evictions, before + 1);
    }

    #[test]
    fn current_super_block_reports_size() {
        let mut oram = small(SchemeConfig::static_scheme(4));
        let (sb, _) = oram.current_super_block(BlockAddr(6)).unwrap();
        assert_eq!(sb.size(), 4);
        assert_eq!(sb.base(), BlockAddr(4));
        let mut oram2 = small(SchemeConfig::dynamic(4));
        let (sb2, _) = oram2.current_super_block(BlockAddr(6)).unwrap();
        assert_eq!(sb2.size(), 1);
    }

    #[test]
    fn strided_scheme_merges_strided_neighbors() {
        // Section 6.2 extension: with stride 4, blocks {a, a+4} merge when
        // they show joint locality.
        let scheme = SchemeConfig::dynamic(2).with_super_block_stride(4);
        let mut oram = small(scheme);
        let mut llc = SetProbe::default();
        for round in 0..20 {
            for a in [40u64, 44] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        assert!(oram.scheme_stats().merges >= 1, "strided pair never merged");
        oram.oram_mut().resolve_posmap(BlockAddr(40)).unwrap();
        assert_eq!(
            oram.oram().entry(BlockAddr(40)).leaf,
            oram.oram().entry(BlockAddr(44)).leaf,
            "strided pair not co-located"
        );
        // A fresh miss on one member delivers the strided partner.
        let o = oram.access(1_000_000, MemRequest::read(BlockAddr(40)), &NoProbe);
        let blocks: HashSet<u64> = o.fills.iter().map(|f| f.block.0).collect();
        assert_eq!(blocks, HashSet::from([40, 44]));
        oram.oram().check_invariants();
    }

    #[test]
    fn strided_scheme_ignores_contiguous_neighbors() {
        let scheme = SchemeConfig::dynamic(2).with_super_block_stride(4);
        let mut oram = small(scheme);
        let mut llc = SetProbe::default();
        // Contiguous pair traffic: the stride-4 scheme must not merge it.
        for round in 0..20 {
            for a in [40u64, 41] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        assert_eq!(oram.scheme_stats().merges, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds posmap fanout")]
    fn oversized_max_sbsize_rejected() {
        // small_for_tests uses 8 entries per posmap block.
        SuperBlockOram::new(
            OramConfig::small_for_tests(256),
            SchemeConfig::dynamic(16),
            1,
        );
    }

    #[test]
    fn super_blocks_generalize_to_the_shi_tree_oram() {
        // The paper's Section 6.1 claim end to end: the same dynamic
        // super-block controller, running on a different tree ORAM.
        use proram_oram::{ShiOram, ShiOramConfig};
        let backend = ShiOram::new(
            ShiOramConfig {
                num_data_blocks: 256,
                ..Default::default()
            },
            42,
        );
        let mut oram = SuperBlockOram::from_backend(backend, SchemeConfig::dynamic(2));
        assert_eq!(oram.label(), "dyn_shi");
        let mut llc = SetProbe::default();
        for round in 0..20 {
            for a in [10u64, 11] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        assert!(
            oram.scheme_stats().merges >= 1,
            "no merge on the Shi backend"
        );
        // A fresh miss delivers both members through one access.
        let o = oram.access(1_000_000, MemRequest::read(BlockAddr(10)), &NoProbe);
        assert_eq!(o.fills.len(), 2);
        oram.oram().check_invariants();
    }

    #[test]
    fn static_scheme_works_on_the_shi_backend_via_init_grouping() {
        use proram_oram::{ShiOram, ShiOramConfig};
        let backend = ShiOram::new(
            ShiOramConfig {
                num_data_blocks: 256,
                init_group_size: 2,
                ..Default::default()
            },
            43,
        );
        let mut oram = SuperBlockOram::from_backend(backend, SchemeConfig::static_scheme(2));
        let o = oram.access(0, MemRequest::read(BlockAddr(8)), &NoProbe);
        assert_eq!(o.fills.len(), 2, "static pair must deliver both members");
        oram.oram().check_invariants();
    }

    #[test]
    fn obs_sink_sees_merge_break_and_window_decisions() {
        let mut oram = small(SchemeConfig::dynamic(2));
        oram.attach_obs(Obs::ring(1 << 16));
        let mut llc = SetProbe::default();
        for round in 0..20 {
            for a in [20u64, 21] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        for i in 0..40 {
            llc.0.clear();
            let o = oram.access(1000 + i, MemRequest::read(BlockAddr(20)), &llc);
            for f in &o.fills {
                if f.prefetched {
                    oram.note_llc_eviction(f.block);
                }
            }
            if oram.scheme_stats().breaks > 0 {
                break;
            }
        }
        let events = oram.obs.events();
        let merges = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::SuperBlockMerge { .. }))
            .count() as u64;
        let breaks = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::SuperBlockBreak { .. }))
            .count() as u64;
        let windows = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::PrefetchWindow { .. }))
            .count() as u64;
        assert_eq!(merges, oram.scheme_stats().merges);
        assert_eq!(breaks, oram.scheme_stats().breaks);
        assert_eq!(windows, oram.scheme_stats().demand_reads);
        // Every access retires into the same sink, and the backend's own
        // events (stash watermarks) interleave with them.
        let retired = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::AccessRetired { .. }))
            .count() as u64;
        assert_eq!(retired, oram.scheme_stats().demand_reads);
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::StashWatermark { .. })));
    }

    /// Drives `n` chained uniform reads over a 128-block baseline
    /// controller, checking every fill; returns the final completion
    /// cycle.
    fn drive_baseline(oram: &mut SuperBlockOram, n: usize) -> Cycle {
        let mut rng = Xoshiro256::seed_from(3);
        let mut now = 0;
        for _ in 0..n {
            let addr = BlockAddr(rng.next_below(128));
            let out = oram.access(now, MemRequest::read(addr), &NoProbe);
            assert_eq!(out.fills, vec![Fill::demand(addr)], "fill must be served");
            now = out.complete_at;
        }
        now
    }

    fn baseline_128(edit: impl FnOnce(&mut OramConfig)) -> SuperBlockOram {
        let mut cfg = OramConfig::small_for_tests(128);
        edit(&mut cfg);
        SuperBlockOram::new(cfg, SchemeConfig::baseline(), 7)
    }

    #[test]
    fn stage_kill_points_fire_and_recover_under_the_scheme_driver() {
        use proram_oram::{CrashConfig, KillPoint};
        let mut oram = baseline_128(|c| c.crash = Some(CrashConfig::at(KillPoint::WriteBack, 2)));
        drive_baseline(&mut oram, 40);
        let crash = oram.oram().crash_stats();
        assert_eq!(crash.crashes_injected, 1, "the armed kill never fired");
        assert_eq!(crash.rollbacks, 1);
        // The crash was recovered and retried, not absorbed as a degraded
        // access.
        assert_eq!(oram.stats().faults.unrecovered, 0);
        oram.oram().audit_full();
    }

    /// The commit's checkpoint delta is built from dirty logs; merge and
    /// break counters, prefetch bits and group remaps write position-map
    /// entries and stashed blocks the baseline access never touches. Over
    /// 5 000 accesses of a stream that merges and breaks, the sealed
    /// records decode to the live controller state after every commit —
    /// also across dummy accesses, which move volatile state outside any
    /// transaction.
    #[test]
    fn sealed_checkpoints_track_the_live_state_under_the_dynamic_scheme() {
        use proram_oram::{CrashConfig, KillPoint};
        let cfg = OramConfig {
            crash: Some(CrashConfig::at(KillPoint::MidFlip, u64::MAX)),
            ..OramConfig::small_for_tests(256)
        };
        let mut oram = SuperBlockOram::new(cfg, SchemeConfig::dynamic(2), 99);
        let mut llc = SetProbe::default();
        let mut resident = std::collections::VecDeque::new();
        let mut rng = Xoshiro256::seed_from(5);
        let mut now = 0;
        for i in 0..5_000u64 {
            // Phases of pairwise locality (merges) alternate with uniform
            // phases that waste the prefetches (breaks).
            let addr = if (i / 500) % 2 == 0 {
                (rng.next_below(16) * 2 + i % 2) % 256
            } else {
                rng.next_below(256)
            };
            let req = if i % 5 == 4 {
                MemRequest::write(BlockAddr(addr))
            } else {
                MemRequest::read(BlockAddr(addr))
            };
            let out = oram.access(now, req, &llc);
            now = out.complete_at;
            oram.oram().audit_checkpoints();
            llc.insert_fills(&out.fills);
            resident.extend(out.fills.iter().map(|f| f.block));
            while resident.len() > 24 {
                let victim = resident.pop_front().expect("non-empty");
                if llc.0.remove(&victim.0) {
                    oram.note_llc_eviction(victim);
                }
            }
            if i % 97 == 96 {
                now = oram.dummy_access(now);
            }
        }
        let scheme = oram.scheme_stats();
        assert!(scheme.merges > 0 && scheme.breaks > 0, "{scheme:?}");
        let crash = oram.oram().crash_stats();
        assert_eq!(crash.early_full_seals, 0, "{crash:?}");
        // One Full at construction, one per 64-record chain, one after
        // each dummy access; everything else is a delta.
        assert!(crash.delta_seals > 4_800, "{crash:?}");
        assert!(crash.full_seals > 5_000 / 97, "{crash:?}");
        assert_eq!(oram.stats().faults.unrecovered, 0);
        oram.oram().audit_full();
    }

    #[test]
    fn transient_backoff_is_charged_under_the_scheme_driver() {
        use proram_oram::{FaultClass, FaultConfig};
        let mut oram = baseline_128(|c| {
            c.fault = Some(FaultConfig {
                retry_backoff_cycles: 100,
                ..FaultConfig::single(FaultClass::Transient, 0.2, 7)
            });
        });
        let done = drive_baseline(&mut oram, 50);
        let s = oram.stats();
        assert!(s.faults.backoff_cycles > 0, "no backoff charged");
        assert_eq!(
            done,
            s.physical_accesses * oram.oram().path_cycles() + s.faults.backoff_cycles,
            "completion time must include retry backoff"
        );
    }

    #[test]
    fn unrecovered_faults_degrade_instead_of_panicking() {
        // A detected corruption fail-stops the backend; the scheme layer
        // absorbs that access and every later one into the unrecovered
        // counter, and the fills are still served.
        let mut oram = baseline_128(|_| {});
        oram.oram_mut()
            .storage_mut()
            .expect("payloads on")
            .corrupt_byte(0, 30, 0x01);
        drive_baseline(&mut oram, 3);
        assert_eq!(oram.stats().faults.unrecovered, 3);
    }

    #[test]
    fn merged_blocks_deliver_even_when_half_in_llc() {
        let mut oram = small(SchemeConfig::static_scheme(2));
        let mut llc = SetProbe::default();
        let o = oram.access(0, MemRequest::read(BlockAddr(2)), &llc);
        llc.insert_fills(&o.fills);
        // Re-access with the neighbor resident: only the demand fill.
        llc.0.remove(&2);
        let o2 = oram.access(100, MemRequest::read(BlockAddr(2)), &llc);
        assert_eq!(
            o2.fills.len(),
            1,
            "resident neighbor must not be re-delivered"
        );
    }
}
