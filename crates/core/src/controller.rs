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
//! ## Modeling notes (see DESIGN.md §9)
//!
//! * The per-block *hit* and *prefetch* bits are physically "stored with
//!   each data block in the ORAM and the LLC" / "in the Pos-Map blocks"
//!   (Section 4.5.1); their maintenance is explicitly off the critical
//!   path. They live in one controller-side ledger and nowhere else
//!   (block → hit bit, present while the prefetch bit is set; see
//!   [`SuperBlockOram::prefetch_ledger`]): neither the encrypted image nor
//!   the checkpoint journal carries them. Their bytes are priced in
//!   [`proram_oram::OramTiming::meta_bytes`]; their maintenance costs no
//!   cycles.
//! * The bits, the scheme's six counters, its merged-block gauge and its
//!   merge / break events are one value that commits or rolls back with
//!   the access, beside the backend's commit transaction: a crash that
//!   rolls the backend back rolls them back too, and the retry starts
//!   from where the killed attempt did.
//! * Dirty LLC write-backs access the super block and remap it as a unit
//!   (preserving co-location) but perform no merge/break processing and
//!   return no prefetches — the paper does not specify write-back
//!   behaviour; this choice avoids cache re-pollution.

use crate::ledger::SchemeLedger;
use crate::policy::{BreakPolicy, SchemeConfig};
use crate::superblock::SuperBlock;
use crate::threshold::{CounterWidth, Thresholds};
use crate::window::WindowStats;
use proram_mem::{
    AccessKind, AccessOutcome, BackendStats, BlockAddr, CacheProbe, Cycle, FaultStats, Fill, Fills,
    MemRequest, MemoryBackend,
};
use proram_obs::{rate_to_ppm, Obs, ObsEvent};
use proram_oram::{
    AccessReport, Leaf, OramBackend, OramConfig, OramError, PathKind, PathOram, RecoveryMode,
};

/// Length in ORAM requests of the window behind Equation 1's rates: "These
/// numbers are collected within a time window and updated periodically
/// (every 1000 ORAM requests in this paper)."
pub const WINDOW_REQUESTS: u64 = 1000;

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
    /// The prefetch and hit bits, the counters this layer owns (the rest
    /// of [`MemoryBackend::stats`] comes from the backend), the
    /// merged-block gauge and the open access's merge / break events.
    ledger: SchemeLedger,
    /// Faults that surfaced to the scheme layer unrecovered (the backend
    /// already counts its own detections/recoveries).
    scheme_faults: FaultStats,
    /// The buffer [`Opened::found`] borrows for one access and hands
    /// back, so an access allocates no list of its own.
    found: Vec<BlockAddr>,
    busy_until: Cycle,
    last_complete: Cycle,
    label: String,
    /// Observability handle shared with the backend (disabled by default).
    obs: Obs,
}

/// What [`SuperBlockOram::open`] read for one access and
/// [`SuperBlockOram::close`] needs back.
struct Opened {
    addr: BlockAddr,
    /// The super block `addr` belongs to.
    sb: SuperBlock,
    /// Its members the path read brought into the stash (the scheme's
    /// reused buffer, handed back by [`SuperBlockOram::close`]).
    found: Vec<BlockAddr>,
    /// The leaf the access read, and writes back.
    old_leaf: Leaf,
    /// The max-size group the access can remap, and its merged blocks
    /// before it did.
    top: SuperBlock,
    merged_before: u64,
    posmap_accesses: u64,
    backoff_before: u64,
}

/// What [`SuperBlockOram::close`] leaves for [`AccessReport::retire`],
/// which runs once the access has committed.
struct Closed {
    addr: BlockAddr,
    kind: AccessKind,
    posmap_accesses: u64,
    background_evictions: u64,
    backoff: u64,
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
        let mut oram = SuperBlockOram {
            window: WindowStats::new(WINDOW_REQUESTS),
            oram: backend,
            scheme,
            ledger: SchemeLedger::default(),
            scheme_faults: FaultStats::default(),
            found: Vec::new(),
            busy_until: 0,
            last_complete: 0,
            label,
            obs: Obs::disabled(),
        };
        oram.ledger.merged_blocks = oram.scan_merged_blocks();
        oram
    }

    /// The scheme configuration.
    pub fn scheme(&self) -> &SchemeConfig {
        &self.scheme
    }

    /// Data blocks that sit in a super block of two or more — the
    /// partition's merged share, kept by one scan at construction (so a
    /// static initial partition counts) and a recount of the one
    /// max-size group every access remaps. A remap that happens to give
    /// two neighbours one leaf makes a super block under the paper's
    /// leaf-equality rule, so it counts too. Exact when the backend
    /// reports [`OramBackend::data_leaves`]; otherwise it starts at zero.
    pub fn merged_blocks(&self) -> u64 {
        self.ledger.merged_blocks
    }

    /// The prefetch ledger, the one home of the paper's prefetch and hit
    /// bits: every block whose prefetch bit is set, with its hit bit,
    /// sorted by block.
    pub fn prefetch_ledger(&self) -> Vec<(BlockAddr, bool)> {
        let mut ledger: Vec<(BlockAddr, bool)> = self
            .ledger
            .bits()
            .map(|(block, hit)| (BlockAddr(block), hit))
            .collect();
        ledger.sort_unstable();
        ledger
    }

    /// The underlying ORAM (trace, stash, invariants).
    pub fn oram(&self) -> &O {
        &self.oram
    }

    /// The super block `addr` currently belongs to, inferred — as the
    /// hardware does — from leaf-label equality in the resolved posmap
    /// block.
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

    /// The max-size group holding `addr`: every block an access to `addr`
    /// remaps, and every block whose `detect` result those remaps can
    /// change.
    fn top_group(&self, addr: BlockAddr) -> SuperBlock {
        SuperBlock::containing_strided(addr, self.scheme.max_sbsize, self.scheme.stride)
    }

    /// Blocks of `group` that `detect` places in a super block of two or
    /// more, read from `leaf`: all of them when the group fits and is
    /// co-located, otherwise those of its halves.
    fn merged_within(
        group: SuperBlock,
        data_blocks: u64,
        leaf: &impl Fn(BlockAddr) -> Leaf,
    ) -> u64 {
        if group.size() < 2 {
            return 0;
        }
        let first = leaf(group.base());
        if group.fits_within(data_blocks) && group.members().all(|m| leaf(m) == first) {
            return group.size();
        }
        let (lo, hi) = group.halves();
        Self::merged_within(lo, data_blocks, leaf) + Self::merged_within(hi, data_blocks, leaf)
    }

    /// [`Self::merged_within`] over the resolved position map.
    fn merged_in(&self, group: SuperBlock) -> u64 {
        let data_blocks = self.oram.space().num_data_blocks();
        Self::merged_within(group, data_blocks, &|m| self.oram.entry(m).leaf)
    }

    /// The construction scan behind [`SuperBlockOram::merged_blocks`]:
    /// each max-size group once, read from the backend's leaves.
    fn scan_merged_blocks(&self) -> u64 {
        if self.scheme.max_sbsize < 2 {
            return 0;
        }
        let Some(leaves) = self.oram.data_leaves() else {
            return 0;
        };
        let data_blocks = self.oram.space().num_data_blocks();
        let leaf = |m: BlockAddr| leaves[m.0 as usize];
        (0..data_blocks)
            .map(BlockAddr)
            .filter(|&a| self.top_group(a).base() == a)
            .map(|a| Self::merged_within(self.top_group(a), data_blocks, &leaf))
            .sum()
    }

    /// Moves the gauge by what the access's remaps did to `top`, which
    /// held `before` merged blocks. Saturates only for a backend without
    /// a construction scan, whose gauge can lag.
    fn recount(&mut self, top: SuperBlock, before: u64) {
        let after = self.merged_in(top);
        let gauge = &mut self.ledger.merged_blocks;
        *gauge = (*gauge + after).saturating_sub(before);
    }

    /// The opening every access shares: count it, resolve `addr`'s
    /// position map, find its super block, read the path and pull the
    /// super block's members on-chip.
    fn open(&mut self, addr: BlockAddr) -> Result<Opened, OramError> {
        self.ledger.stats.demand_accesses += 1;
        let backoff_before = self.oram.fault_stats().backoff_cycles;
        let posmap_accesses = self.oram.resolve_posmap(addr)?;
        let sb = self.detect(addr);
        let top = self.top_group(addr);
        let merged_before = self.merged_in(top);
        let old_leaf = self.oram.entry(addr).leaf;
        self.oram.read_path_into_stash(old_leaf, PathKind::Data)?;
        let mut found = std::mem::take(&mut self.found);
        found.clear();
        found.extend(sb.members().filter(|&m| self.oram.stash_contains(m)));
        Ok(Opened {
            addr,
            sb,
            found,
            old_leaf,
            top,
            merged_before,
            posmap_accesses,
            backoff_before,
        })
    }

    // ------------------------------------------------------------------
    // Demand read: the full Section 4 flow
    // ------------------------------------------------------------------

    fn demand_read(
        &mut self,
        addr: BlockAddr,
        llc: &dyn CacheProbe,
    ) -> Result<(Closed, Fills), OramError> {
        // Step 1 (Section 4): access the path and pull the whole super
        // block on-chip.
        let opened = self.open(addr)?;
        let sb = opened.sb;
        let found = &opened.found;
        assert!(
            found.contains(&addr),
            "invariant broken: requested block {addr} absent from path {} and stash",
            opened.old_leaf
        );

        // Step 3 (Algorithm 2): reconstruct and update the break counter
        // from the prefetch/hit bits of members coming from ORAM.
        let mut break_counter = i32::from(self.oram.entry(sb.base()).brk);
        for &m in found {
            if llc.contains(m) {
                continue; // still in the LLC: not "coming from ORAM"
            }
            if let Some(hit) = self.ledger.take(m.0) {
                break_counter += if hit { 1 } else { -1 };
            }
        }

        let rates = self.window.rates();
        let break_threshold = Thresholds::new(&self.scheme, rates).break_threshold(sb.size());
        let mut fills = Fills::new();

        let broke = sb.size() >= 2
            && matches!(self.scheme.brk, BreakPolicy::Static | BreakPolicy::Adaptive)
            && break_counter < break_threshold.expect("break policy enabled");

        if broke {
            // Break B into B1 (with the requested block, returned to the
            // LLC) and B2 (written back): remap the halves to independent
            // fresh leaves.
            self.ledger.stats.breaks += 1;
            self.ledger.emit(&self.obs, || ObsEvent::SuperBlockBreak {
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
            self.remap(b1.members(), l1);
            self.remap(b2.members(), l2);
            // Counters are reconstructed per-size; reset the broken super
            // block's break counter and the merge counter of the (B1, B2)
            // pair so re-merging needs fresh evidence.
            self.oram.entry_mut(sb.base()).brk = 0;
            self.oram.entry_mut(sb.base()).merge = 0;
            self.deliver(addr, b1, found, llc, &mut fills);
        } else {
            if sb.size() >= 2 {
                let cap = CounterWidth::break_cap(sb.size());
                self.oram.entry_mut(sb.base()).brk = break_counter.clamp(0, cap) as i16;
            }
            // Remap the whole super block to one fresh leaf.
            let new_leaf = self.oram.random_leaf();
            self.remap(found.iter().copied(), new_leaf);
            self.deliver(addr, sb, found, llc, &mut fills);
            // Step 2 (Algorithm 1): merge bookkeeping.
            self.try_merge(sb, llc, rates);
        }

        Ok((self.close(opened, AccessKind::Read)?, fills))
    }

    /// The closing every access shares: move the partition gauge by what
    /// the access remapped and hand the `found` buffer back, then the
    /// steps it shares with [`PathOram::try_access_block`]: write the
    /// fetched path back and drain the stash.
    fn close(&mut self, opened: Opened, kind: AccessKind) -> Result<Closed, OramError> {
        self.recount(opened.top, opened.merged_before);
        self.found = opened.found;
        self.oram.write_path_from_stash(opened.old_leaf)?;
        let background_evictions = self.oram.drain_background()?;
        Ok(Closed {
            addr: opened.addr,
            kind,
            posmap_accesses: opened.posmap_accesses,
            background_evictions,
            backoff: self.oram.fault_stats().backoff_cycles - opened.backoff_before,
        })
    }

    /// Points each member's pos-map entry, and its stashed copy if there
    /// is one, at `leaf`.
    fn remap(&mut self, members: impl IntoIterator<Item = BlockAddr>, leaf: Leaf) {
        for m in members {
            self.oram.entry_mut(m).leaf = leaf;
            if let Some(b) = self.oram.stash_block_mut(m) {
                b.leaf = leaf;
            }
        }
    }

    /// Appends the requested block plus prefetch fills for the other
    /// members of `group` that are not already LLC-resident, setting their
    /// prefetch bits ("each block in B2 will have the prefetch bit set and
    /// hit bit reset").
    fn deliver(
        &mut self,
        requested: BlockAddr,
        group: SuperBlock,
        found: &[BlockAddr],
        llc: &dyn CacheProbe,
        fills: &mut Fills,
    ) {
        fills.push(Fill::demand(requested));
        for &m in found {
            if m == requested || !group.contains(m) || llc.contains(m) {
                continue;
            }
            self.ledger.set(m.0);
            self.ledger.stats.prefetch_requests += 1;
            fills.push(Fill::prefetch(m));
        }
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
            self.ledger.stats.merges += 1;
            self.ledger.emit(&self.obs, || ObsEvent::SuperBlockMerge {
                base: pair_base.0,
                size: (2 * sb.size()) as u32,
                counter: counter.max(0) as u32,
                threshold: threshold.max(0) as u32,
            });
            let target = self.oram.entry(neighbor.base()).leaf;
            self.remap(sb.members(), target);
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

    fn writeback(&mut self, addr: BlockAddr) -> Result<(Closed, Fills), OramError> {
        let opened = self.open(addr)?;
        let new_leaf = self.oram.random_leaf();
        self.remap(opened.found.iter().copied(), new_leaf);
        Ok((self.close(opened, AccessKind::Write)?, Fills::new()))
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
    ) -> (AccessReport, Fills) {
        let mut fills = Fills::new();
        if req.kind == AccessKind::Read {
            fills.push(Fill::demand(req.block));
        }
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
    /// commit transaction (DESIGN.md section 15), and its scheme-layer
    /// edits in one ledger attempt beside it, so a crash anywhere inside
    /// it can roll both back to the access boundary. The ledger commits
    /// after the backend, releasing the access's merge / break events,
    /// and only then does the access retire: a trace holds committed
    /// decisions only, and an access's come before its `access_retired`.
    /// An attempt that fails returns with the ledger attempt still open,
    /// for [`MemoryBackend::access`] to commit or roll back.
    fn attempt_txn(
        &mut self,
        req: MemRequest,
        llc: &dyn CacheProbe,
    ) -> Result<(AccessReport, Fills), OramError> {
        self.ledger.begin();
        self.oram.txn_begin();
        let (closed, fills) = match req.kind {
            AccessKind::Read => self.demand_read(req.block, llc),
            AccessKind::Write => self.writeback(req.block),
        }?;
        self.oram.txn_commit()?;
        self.ledger.commit(&self.obs);
        let report = AccessReport::retire(
            &self.obs,
            closed.addr,
            closed.kind,
            closed.posmap_accesses,
            closed.background_evictions,
            self.oram.path_cycles(),
            closed.backoff,
        );
        Ok((report, fills))
    }

    /// What closing window `window` published: its rates, Equation 1's
    /// thresholds for the first merge (two single blocks) and the first
    /// break (a size-2 super block) under them, and the partition so far.
    fn window_event(&self, window: u64) -> ObsEvent {
        let rates = self.window.rates();
        let thresholds = Thresholds::new(&self.scheme, rates);
        let non_negative = |t: i32| t.max(0) as u32;
        ObsEvent::PrefetchWindow {
            window,
            hit_rate_ppm: rate_to_ppm(rates.prefetch_hit_rate),
            eviction_rate_ppm: rate_to_ppm(rates.eviction_rate),
            access_rate_ppm: rate_to_ppm(rates.access_rate),
            merge_threshold: thresholds.merge_threshold(1).map(non_negative),
            break_threshold: thresholds.break_threshold(2).map(non_negative),
            merges: self.ledger.stats.merges,
            breaks: self.ledger.stats.breaks,
            merged_blocks: self.ledger.merged_blocks,
        }
    }
}

impl<O: OramBackend> MemoryBackend for SuperBlockOram<O> {
    fn access(&mut self, now: Cycle, req: MemRequest, llc: &dyn CacheProbe) -> AccessOutcome {
        let mut attempt = self.attempt_txn(req, llc);
        // A crashed access recovers in place: the backend rolls its
        // journal back (or replays it forward past the epoch flip), and a
        // rolled-back request is retried once from the pre-attempt state,
        // the scheme ledger's included — the checkpointed RNG replays
        // identical randomness. A replayed transaction already committed,
        // so its ledger attempt commits too and the fill is delivered
        // without re-executing (a retry would double-apply the remap);
        // only the recovery work is charged. Backends without a commit
        // protocol return `None` and fall through to the degraded-fault
        // path below.
        if let Err(OramError::Crashed { .. }) = attempt {
            if let Some(rec) = self.oram.recover_crash() {
                self.scheme_faults.recovered += 1;
                attempt = if rec.mode == RecoveryMode::Replayed {
                    self.ledger.commit(&self.obs);
                    Ok(Self::served_outside_the_path(req, rec.cycles.max(1), 0))
                } else {
                    self.ledger.roll_back();
                    self.attempt_txn(req, llc).map(|(mut r, f)| {
                        r.latency += rec.cycles;
                        (r, f)
                    })
                };
            }
        }
        // An unrecovered fault degrades the access instead of aborting the
        // simulation: the scheme layer keeps what the attempt did, the
        // requested block is still delivered (reads), the access is
        // charged one path latency, and the fault is reported in the
        // run's fault counters.
        let (report, fills) = attempt.unwrap_or_else(|_err| {
            self.scheme_faults.unrecovered += 1;
            self.ledger.commit(&self.obs);
            Self::served_outside_the_path(req, self.oram.path_cycles(), 1)
        });
        let complete_at = self.schedule(now, report.latency);
        let elapsed = complete_at.saturating_sub(self.last_complete).max(1);
        if let Some(window) =
            self.window
                .record_request(report.background_evictions, elapsed, report.latency)
        {
            self.obs.emit(|| self.window_event(window));
        }
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
        if self.ledger.mark_hit(block.0) {
            self.ledger.stats.prefetch_hits += 1;
            self.window.record_prefetch(true);
        }
    }

    fn note_llc_eviction(&mut self, block: BlockAddr) {
        // A prefetched block leaving the LLC unused is a prefetch miss.
        // Its bits persist so Algorithm 2 still sees them at the block's
        // next load; double counting is impossible because an evicted
        // block can only be evicted again after a re-delivery, which
        // resets its bits.
        if self.ledger.get(block.0) == Some(false) {
            self.ledger.stats.prefetch_misses += 1;
            self.window.record_prefetch(false);
        }
    }

    fn merged_fraction(&self) -> f64 {
        self.ledger.merged_blocks as f64 / self.oram.space().num_data_blocks() as f64
    }

    fn stats(&self) -> BackendStats {
        let o = self.oram.oram_stats();
        BackendStats {
            physical_accesses: o.total_path_accesses(),
            dummy_accesses: o.background_evictions,
            posmap_accesses: o.posmap_path_accesses,
            bytes_moved: o.bytes_moved,
            busy_cycles: o.total_path_accesses() * self.oram.path_cycles(),
            data_path_cycles: o.data_path_accesses * self.oram.path_cycles(),
            posmap_path_cycles: o.posmap_path_accesses * self.oram.path_cycles(),
            dummy_path_cycles: o.background_evictions * self.oram.path_cycles(),
            treetop_hits: o.treetop_hits,
            treetop_bytes_saved: o.treetop_bytes_saved,
            faults: self.oram.fault_stats() + self.scheme_faults,
            ..self.ledger.stats
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
    use proram_mem::{Dram, NoProbe, Periodic};
    use proram_oram::{OramTiming, ShiOram};
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

    /// The Section 6.1 backend's shape at 256 blocks: Z = 4, a flat
    /// on-chip position map, unscaled timing.
    fn shi_config(init_group_size: u64) -> OramConfig {
        OramConfig {
            num_data_blocks: 256,
            z: 4,
            on_tree_hierarchies: 0,
            timing: OramTiming::default(),
            init_group_size,
            ..OramConfig::default()
        }
    }

    #[test]
    fn baseline_delivers_only_the_requested_block() {
        let mut oram = small(SchemeConfig::baseline());
        let o = oram.access(0, MemRequest::read(BlockAddr(5)), &NoProbe);
        assert_eq!(*o.fills, [Fill::demand(BlockAddr(5))]);
        assert_eq!(oram.stats().prefetch_requests, 0);
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
        assert_eq!(oram.stats().prefetch_requests, 3);
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
            oram.oram.resolve_posmap(BlockAddr(base)).unwrap();
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
            oram.stats().merges >= 1,
            "no merge after sustained locality"
        );
        // The pair must now be co-located.
        oram.oram.resolve_posmap(BlockAddr(10)).unwrap();
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
        assert_eq!(oram.stats().merges, 0);
        // A handful of prefetches can still occur: with the tiny test
        // tree (128 leaves) two neighbors occasionally collide on a leaf
        // and are detected as a super block — exactly what the paper's
        // leaf-equality rule would do in hardware. No *merge* may happen.
        assert!(oram.stats().prefetch_requests < 10);
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
        assert!(oram.stats().merges >= 1);
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
            if oram.stats().breaks > 0 {
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
        assert!(oram.stats().merges >= 1);
        for i in 0..40 {
            llc.0.clear();
            let o = oram.access(1000 + i, MemRequest::read(BlockAddr(20)), &llc);
            for f in &o.fills {
                if f.prefetched {
                    oram.note_llc_eviction(f.block);
                }
            }
        }
        assert_eq!(oram.stats().breaks, 0);
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
        assert_eq!(oram.stats().prefetch_hits, 1);
        // Hitting again does not double count.
        oram.note_llc_hit(BlockAddr(1));
        assert_eq!(oram.stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_miss_statistics_on_eviction() {
        let mut oram = small(SchemeConfig::static_scheme(2));
        let o = oram.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        let pf = o.fills.iter().find(|f| f.prefetched).unwrap().block;
        oram.note_llc_eviction(pf);
        assert_eq!(oram.stats().prefetch_misses, 1);
        assert_eq!(oram.stats().prefetch_hits, 0);
    }

    #[test]
    fn writeback_preserves_colocation_and_returns_nothing() {
        let mut oram = small(SchemeConfig::static_scheme(4));
        let o = oram.access(0, MemRequest::write(BlockAddr(9)), &NoProbe);
        assert!(o.fills.is_empty());
        oram.oram.resolve_posmap(BlockAddr(8)).unwrap();
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
    fn detect_reports_the_super_block_size() {
        let mut oram = small(SchemeConfig::static_scheme(4));
        oram.oram.resolve_posmap(BlockAddr(6)).unwrap();
        let sb = oram.detect(BlockAddr(6));
        assert_eq!(sb.size(), 4);
        assert_eq!(sb.base(), BlockAddr(4));
        let mut oram2 = small(SchemeConfig::dynamic(4));
        oram2.oram.resolve_posmap(BlockAddr(6)).unwrap();
        assert_eq!(oram2.detect(BlockAddr(6)).size(), 1);
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
        assert!(oram.stats().merges >= 1, "strided pair never merged");
        oram.oram.resolve_posmap(BlockAddr(40)).unwrap();
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
        assert_eq!(oram.stats().merges, 0);
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
        let backend = ShiOram::new(shi_config(1), 42);
        let mut oram = SuperBlockOram::from_backend(backend, SchemeConfig::dynamic(2));
        assert_eq!(oram.label(), "dyn_shi");
        let mut llc = SetProbe::default();
        for round in 0..20 {
            for a in [10u64, 11] {
                let o = oram.access(round, MemRequest::read(BlockAddr(a)), &llc);
                llc.insert_fills(&o.fills);
            }
        }
        assert!(oram.stats().merges >= 1, "no merge on the Shi backend");
        // A fresh miss delivers both members through one access.
        let o = oram.access(1_000_000, MemRequest::read(BlockAddr(10)), &NoProbe);
        assert_eq!(o.fills.len(), 2);
        oram.oram().inner().audit_full();
    }

    #[test]
    fn static_scheme_works_on_the_shi_backend_via_init_grouping() {
        let backend = ShiOram::new(shi_config(2), 43);
        let mut oram = SuperBlockOram::from_backend(backend, SchemeConfig::static_scheme(2));
        let o = oram.access(0, MemRequest::read(BlockAddr(8)), &NoProbe);
        assert_eq!(o.fills.len(), 2, "static pair must deliver both members");
        oram.oram().inner().audit_full();
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
            if oram.stats().breaks > 0 {
                break;
            }
        }
        // Past the first statistics window.
        for i in 0..WINDOW_REQUESTS {
            oram.access(2000 + i, MemRequest::read(BlockAddr(i % 256)), &NoProbe);
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
        assert_eq!(merges, oram.stats().merges);
        assert_eq!(breaks, oram.stats().breaks);
        assert_eq!(windows, oram.stats().demand_accesses / WINDOW_REQUESTS);
        assert_eq!(windows, 1);
        // Every access retires into the same sink, and the backend's own
        // events (stash watermarks) interleave with them.
        let retired = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::AccessRetired { .. }))
            .count() as u64;
        assert_eq!(retired, oram.stats().demand_accesses);
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::StashWatermark { .. })));
    }

    /// Brute force for the merged-block gauge: resolve every data block
    /// on a copy of the controller and ask `detect`.
    fn scan_merged<O: OramBackend + Clone>(oram: &SuperBlockOram<O>) -> u64 {
        let mut probe = oram.clone();
        let data_blocks = probe.oram.space().num_data_blocks();
        (0..data_blocks)
            .filter(|&a| {
                probe.oram.resolve_posmap(BlockAddr(a)).unwrap();
                probe.detect(BlockAddr(a)).size() >= 2
            })
            .count() as u64
    }

    /// Drives `ops` requests behind a 24-line FIFO LLC: phases of `phase`
    /// requests alternate between pairwise locality (merges) and uniform
    /// addresses that waste the prefetches (breaks), and every fifth
    /// request is a write-back. `after` runs after each access with its
    /// index and completion cycle, and returns the cycle to go on from.
    fn drive_phases<O: OramBackend>(
        oram: &mut SuperBlockOram<O>,
        ops: u64,
        phase: u64,
        mut after: impl FnMut(&mut SuperBlockOram<O>, u64, Cycle) -> Cycle,
    ) {
        let mut llc = SetProbe::default();
        let mut resident = std::collections::VecDeque::new();
        let mut rng = Xoshiro256::seed_from(5);
        let mut now = 0;
        for i in 0..ops {
            let addr = if (i / phase).is_multiple_of(2) {
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
            llc.insert_fills(&out.fills);
            resident.extend(out.fills.iter().map(|f| f.block));
            while resident.len() > 24 {
                let victim = resident.pop_front().expect("non-empty");
                if llc.0.remove(&victim.0) {
                    oram.note_llc_eviction(victim);
                }
            }
            now = after(oram, i, out.complete_at);
        }
    }

    /// Runs 2 500 requests of [`drive_phases`] and checks each
    /// statistics-window event against the ledger, and the gauge against
    /// a brute-force scan when one fires and at the end; the merged share
    /// is the gauge over the data blocks, through the periodic wrapper
    /// too. Returns the final stats.
    fn windows_report_the_ledger<O: OramBackend + Clone>(
        mut oram: SuperBlockOram<O>,
    ) -> BackendStats {
        assert_eq!(oram.merged_blocks(), scan_merged(&oram), "at construction");
        let obs = Obs::ring(1 << 16);
        oram.attach_obs(obs.clone());
        let mut windows = 0;
        drive_phases(&mut oram, 2_500, 250, |oram, _, now| {
            if let Some(&ObsEvent::PrefetchWindow {
                window,
                merges,
                breaks,
                merged_blocks,
                ..
            }) = obs.events().last()
            {
                windows += 1;
                assert_eq!(window, windows);
                let s = oram.stats();
                assert_eq!((merges, breaks), (s.merges, s.breaks), "window {window}");
                assert_eq!(merged_blocks, oram.merged_blocks(), "window {window}");
                assert_eq!(merged_blocks, scan_merged(oram), "window {window}");
                let share = merged_blocks as f64 / oram.oram.space().num_data_blocks() as f64;
                assert_eq!(oram.merged_fraction(), share, "window {window}");
                let periodic = Periodic::new(oram.clone(), &[100]);
                assert_eq!(periodic.merged_fraction(), share, "window {window}");
            }
            now
        });
        assert_eq!(windows, 2, "2 500 requests close two 1 000-request windows");
        assert_eq!(oram.merged_blocks(), scan_merged(&oram), "at the end");
        oram.stats()
    }

    #[test]
    fn one_window_event_per_window_carries_the_ledger_and_the_partition() {
        let s = windows_report_the_ledger(small(SchemeConfig::dynamic(2)));
        assert!(s.merges > 0 && s.breaks > 0, "{s:?}");
        let s = windows_report_the_ledger(small(SchemeConfig::dynamic(4)));
        assert!(s.merges > 0 && s.breaks > 0, "{s:?}");
        let stat = small(SchemeConfig::static_scheme(2));
        assert_eq!(stat.merged_blocks(), 256, "the static partition counts");
        windows_report_the_ledger(stat);
        let shi = ShiOram::new(shi_config(1), 42);
        let s =
            windows_report_the_ledger(SuperBlockOram::from_backend(shi, SchemeConfig::dynamic(2)));
        assert!(s.merges > 0, "{s:?}");
        let dram = Dram::new(proram_mem::DramConfig::default());
        assert_eq!(dram.merged_fraction(), 0.0, "no super blocks");
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
            assert_eq!(*out.fills, [Fill::demand(addr)], "fill must be served");
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
        drive_phases(&mut oram, 5_000, 500, |oram, i, now| {
            oram.oram().audit_checkpoints();
            if i % 97 == 96 {
                oram.dummy_access(now)
            } else {
                now
            }
        });
        let s = oram.stats();
        assert!(s.merges > 0 && s.breaks > 0, "{s:?}");
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
        oram.oram
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
