//! Isolated layer kernels and end-to-end differentials.
//!
//! Everything here runs on the geometry of `ctrl_encrypted` (2^16 blocks,
//! fanout 8, Z = 3, 128-byte blocks) and does not depend on which
//! workload is being reported: a kernel calls one layer's public
//! functions in a loop; a differential subtracts two end-to-end
//! configurations. Host times are the *fastest batch* of a fixed number
//! of equal batches — shared-machine noise only adds time — so they are
//! as steady as the denoised spans of the traced passes and slightly
//! optimistic by construction.

use crate::span::{self, Spanned, Tracer};
use crate::workloads::{ctrl_config, Stream, CTRL_BLOCKS, ORAM_SEED};
use proram_core::{SchemeConfig, SuperBlockOram};
use proram_mem::{AccessKind, BlockAddr, CacheProbe, MemRequest, MemoryBackend};
use proram_obs::{Obs, ObsEvent};
use proram_oram::{
    eviction, Block, Bucket, CrashConfig, EncryptedStore, KillPoint, Leaf, Mac, OramConfig,
    OramError, OramTree, PathOram, PathScratch, Stash, StreamCipher,
};
use proram_par::WorkerPool;
use proram_sim::{MemoryKind, ShardedOram, System};
use proram_stats::{Rng64, Xoshiro256};
use proram_workloads::suite;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// How much work the kernels do.
#[derive(Debug, Clone, Copy)]
pub struct KernelSizes {
    /// Batches per kernel (the fastest one is reported).
    pub batches: usize,
    /// Path round trips per batch of the eviction / storage kernels.
    pub paths: usize,
    /// Buffers per batch of the crypto kernels.
    pub crypto_iters: usize,
    /// Accesses per batch of the controller differentials.
    pub ctrl_accesses: u64,
    /// Accesses of the `core.access` pass under `dynamic(2)`.
    pub core_accesses: u64,
    /// Pool dispatches per batch.
    pub pool_dispatches: usize,
    /// Requests per shard batch, and batches per timing.
    pub shard_batch: usize,
    pub shard_batches: usize,
    /// Crossing of the `MidJournal` kill in the recovery kernel.
    pub crash_crossing: u64,
    /// Trace ops of the `radix`/`dyn` obs slice (after `warmup`).
    pub obs_ops: u64,
    pub obs_warmup: u64,
}

impl KernelSizes {
    pub const FULL: KernelSizes = KernelSizes {
        batches: 7,
        paths: 400,
        crypto_iters: 4_000,
        ctrl_accesses: 1_024,
        core_accesses: 12_000,
        pool_dispatches: 2_000,
        shard_batch: 64,
        shard_batches: 8,
        crash_crossing: 1_000,
        obs_ops: 30_000,
        obs_warmup: 10_000,
    };

    pub const QUICK: KernelSizes = KernelSizes {
        batches: 2,
        paths: 50,
        crypto_iters: 200,
        ctrl_accesses: 128,
        core_accesses: 600,
        pool_dispatches: 100,
        shard_batch: 16,
        shard_batches: 2,
        crash_crossing: 40,
        obs_ops: 3_000,
        obs_warmup: 1_000,
    };
}

/// Runs every kernel and differential; returns `metric name -> value`.
///
/// # Panics
///
/// Panics if the recovery kernel's kill never fires or recovery does not
/// end `audit_full`-clean.
pub fn run_all(seed: u64, k: &KernelSizes) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    eviction_kernel(seed, k, &mut out);
    storage_kernel(seed, k, &mut out);
    crypto_kernel(k, &mut out);
    ctrl_differentials(seed, k, &mut out);
    core_access_pass(seed, k, &mut out);
    crash_recovery(seed, k, &mut out);
    par_kernels(seed, k, &mut out);
    obs_differential(seed, k, &mut out);
    out
}

/// Fastest batch: `f` runs one batch and returns its nanoseconds.
fn min_batch(batches: usize, mut f: impl FnMut() -> u64) -> u64 {
    (0..batches).map(|_| f()).min().expect("at least one batch")
}

/// A tree of the controller's geometry with every block placed as deep
/// as possible on its own random path, as `PathOram::new` does.
fn populated_tree(cfg: &OramConfig, rng: &mut Xoshiro256, with_data: bool) -> OramTree {
    let mut tree = OramTree::new(cfg.tree_levels(), cfg.z);
    let leaves = u64::from(tree.num_leaves());
    let payload = vec![0xA5u8; cfg.timing.block_bytes as usize].into_boxed_slice();
    for addr in 0..cfg.address_space().total_tree_blocks() {
        let leaf = Leaf(rng.next_below(leaves) as u32);
        let block = if with_data {
            Block::with_data(BlockAddr(addr), leaf, payload.clone())
        } else {
            Block::opaque(BlockAddr(addr), leaf)
        };
        let slot = tree
            .path_indices(leaf)
            .rev()
            .find(|&idx| !tree.bucket(idx).is_full());
        if let Some(idx) = slot {
            tree.bucket_mut(idx).push(block);
        }
    }
    tree
}

/// `eviction::read_path` / `write_path_with`: path -> stash and the
/// greedy write-back, on plaintext buckets only.
fn eviction_kernel(seed: u64, k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    let cfg = ctrl_config(false, false);
    let mut rng = Xoshiro256::seed_from(seed ^ 0xE71C);
    let mut tree = populated_tree(&cfg, &mut rng, false);
    let leaves = u64::from(tree.num_leaves());
    let mut stash = Stash::new(cfg.stash_limit);
    let mut scratch = PathScratch::new();
    let (mut best_read, mut best_write) = (u64::MAX, u64::MAX);
    for _ in 0..k.batches {
        let (mut read_ns, mut write_ns) = (0, 0);
        for _ in 0..k.paths {
            let leaf = Leaf(rng.next_below(leaves) as u32);
            let t0 = Instant::now();
            eviction::read_path(&mut tree, &mut stash, leaf);
            let t1 = Instant::now();
            black_box(eviction::write_path_with(
                &mut tree,
                &mut stash,
                leaf,
                &mut scratch,
            ));
            let t2 = Instant::now();
            read_ns += (t1 - t0).as_nanos() as u64;
            write_ns += (t2 - t1).as_nanos() as u64;
        }
        best_read = best_read.min(read_ns);
        best_write = best_write.min(write_ns);
    }
    out.insert(
        "eviction.read_path_ns".into(),
        best_read as f64 / k.paths as f64,
    );
    out.insert(
        "eviction.write_path_ns".into(),
        best_write as f64 / k.paths as f64,
    );
}

/// `EncryptedStore` over one path's buckets: serialize + encrypt + MAC
/// (`write_buckets`), authenticate + decrypt + decode
/// (`bucket_addrs_into`), authenticate only (`verify_bucket`).
fn storage_kernel(seed: u64, k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    let cfg = ctrl_config(false, true);
    let mut rng = Xoshiro256::seed_from(seed ^ 0x5704);
    let tree = populated_tree(&cfg, &mut rng, true);
    let leaves = u64::from(tree.num_leaves());
    let mut store = EncryptedStore::new(
        tree.num_buckets(),
        cfg.z,
        cfg.timing.block_bytes as usize,
        0x00C0_FFEE,
    );
    let mut plain = Vec::new();
    let mut addrs = Vec::new();
    let (mut best_write, mut best_read, mut best_verify) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..k.batches {
        let (mut write_ns, mut read_ns, mut verify_ns) = (0, 0, 0);
        for _ in 0..k.paths {
            let leaf = Leaf(rng.next_below(leaves) as u32);
            let path: Vec<(usize, &Bucket)> = tree
                .path_indices(leaf)
                .map(|idx| (idx, tree.bucket(idx)))
                .collect();
            let t0 = Instant::now();
            store.write_buckets(&path);
            let t1 = Instant::now();
            for &(idx, _) in &path {
                addrs.clear();
                store
                    .bucket_addrs_into(idx, &mut plain, &mut addrs)
                    .expect("image just written authenticates");
                black_box(&addrs);
            }
            let t2 = Instant::now();
            for &(idx, _) in &path {
                store.verify_bucket(idx).expect("image authenticates");
            }
            let t3 = Instant::now();
            write_ns += (t1 - t0).as_nanos() as u64;
            read_ns += (t2 - t1).as_nanos() as u64;
            verify_ns += (t3 - t2).as_nanos() as u64;
        }
        best_write = best_write.min(write_ns);
        best_read = best_read.min(read_ns);
        best_verify = best_verify.min(verify_ns);
    }
    let per_path = |ns: u64| ns as f64 / k.paths as f64;
    out.insert("storage.write_path_ns".into(), per_path(best_write));
    out.insert("storage.read_path_ns".into(), per_path(best_read));
    out.insert("storage.verify_path_ns".into(), per_path(best_verify));
}

/// `StreamCipher::apply` and `Mac::tag_parts` on bucket-sized buffers.
/// Bytes per nanosecond is GB/s.
fn crypto_kernel(k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    let cfg = ctrl_config(false, true);
    let store = EncryptedStore::new(1, cfg.z, cfg.timing.block_bytes as usize, 1);
    let mut buf = vec![0x3Cu8; store.bucket_bytes()];
    let bytes = (buf.len() * k.crypto_iters) as f64;
    let cipher = StreamCipher::new(0x1234_5678);
    let cipher_ns = min_batch(k.batches, || {
        let t = Instant::now();
        for nonce in 0..k.crypto_iters as u64 {
            cipher.apply(black_box(nonce), &mut buf);
        }
        black_box(&buf);
        t.elapsed().as_nanos() as u64
    });
    let mac = Mac::new(0x8765_4321);
    let mac_ns = min_batch(k.batches, || {
        let t = Instant::now();
        let mut acc = 0;
        for i in 0..k.crypto_iters as u64 {
            acc ^= mac.tag_parts(&[black_box(i), 7], &[&buf]);
        }
        black_box(acc);
        t.elapsed().as_nanos() as u64
    });
    out.insert("crypto.cipher_gbps".into(), bytes / cipher_ns as f64);
    out.insert("crypto.mac_gbps".into(), bytes / mac_ns as f64);
}

/// Nanoseconds per access of three controllers on one address stream:
/// opaque (no image, so no payload bytes either), encrypted exactly as
/// `ctrl_encrypted` drives it (payload written / read back and checked)
/// and durable exactly as `ctrl_durable` does. The batches of the three
/// are interleaved so a noise phase does not land on one of them.
fn ctrl_differentials(seed: u64, k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    let mut orams: Vec<(PathOram, Stream)> = [(false, false), (false, true), (true, true)]
        .into_iter()
        .map(|(durable, payloads)| {
            let oram = PathOram::new(ctrl_config(durable, payloads), ORAM_SEED);
            (oram, Stream::new(seed, 128))
        })
        .collect();
    let mut best = [u64::MAX; 3];
    // One untimed batch first: warms the PLB and the stash.
    for batch in 0..=k.batches {
        for (i, (oram, stream)) in orams.iter_mut().enumerate() {
            let t = Instant::now();
            for _ in 0..k.ctrl_accesses {
                if i == 0 {
                    let (addr, write) = stream.next_access();
                    let kind = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    oram.try_access_block(BlockAddr(addr), kind)
                        .expect("no faults injected");
                } else {
                    assert!(!stream.drive(oram), "differential kernel: an access failed");
                }
            }
            let ns = t.elapsed().as_nanos() as u64;
            if batch > 0 {
                best[i] = best[i].min(ns);
            }
        }
    }
    let [opaque, encrypted, durable] = best.map(|ns| ns as f64 / k.ctrl_accesses as f64);
    out.insert("ctrl.opaque_access_ns".into(), opaque);
    out.insert("ctrl.encrypted_access_ns".into(), encrypted);
    out.insert(
        "storage.encrypted_minus_opaque_ns".into(),
        encrypted - opaque,
    );
    out.insert(
        "journal.durable_minus_encrypted_ns".into(),
        durable - encrypted,
    );
}

/// A FIFO stand-in for the LLC: remembers the last `capacity` filled
/// blocks so the dynamic scheme sees prefetch hits and evictions.
struct FifoLlc {
    order: VecDeque<u64>,
    resident: HashSet<u64>,
    capacity: usize,
}

impl CacheProbe for FifoLlc {
    fn contains(&self, block: BlockAddr) -> bool {
        self.resident.contains(&block.0)
    }
}

/// `MemoryBackend::access` self time of the super-block layer under
/// `dynamic(2)`: the `core.access` span minus its `oram.*` children, on
/// `ctrl_encrypted`'s stream behind a FIFO LLC of the paper's size.
fn core_access_pass(seed: u64, k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    let tracer = Tracer::shared();
    let backend = Spanned::new(
        PathOram::new(ctrl_config(false, true), ORAM_SEED),
        tracer.clone(),
    );
    let mut core = SuperBlockOram::from_backend(backend, SchemeConfig::dynamic(2));
    // 512 KB of 128-byte lines.
    let mut llc = FifoLlc {
        order: VecDeque::new(),
        resident: HashSet::new(),
        capacity: 4096,
    };
    let mut stream = Stream::new(seed, 128);
    let mut now = 0;
    let mut accesses = 0u64;
    for _ in 0..k.core_accesses {
        let (addr, write) = stream.next_access();
        let block = BlockAddr(addr);
        if llc.contains(block) {
            core.note_llc_hit(block);
            continue;
        }
        let req = if write {
            MemRequest::write(block)
        } else {
            MemRequest::read(block)
        };
        tracer.borrow_mut().enter("core.access");
        let outcome = core.access(now, req, &llc);
        tracer.borrow_mut().exit();
        now = outcome.complete_at;
        accesses += 1;
        for fill in outcome.fills {
            if llc.resident.insert(fill.block.0) {
                llc.order.push_back(fill.block.0);
            }
            if llc.order.len() > llc.capacity {
                let victim = llc.order.pop_front().expect("non-empty");
                llc.resident.remove(&victim);
                core.note_llc_eviction(BlockAddr(victim));
            }
        }
    }
    let tracer = tracer.borrow();
    let self_ns: u64 = span::self_by_op(tracer.spans()).expect("spans of a single thread nest")
        ["core.access"]
        .self_ns
        .iter()
        .sum();
    out.insert(
        "core.access_self_ns".into(),
        self_ns as f64 / accesses.max(1) as f64,
    );
}

/// One `MidJournal` kill on the durable geometry, then the span around
/// `PathOram::recover()`.
fn crash_recovery(seed: u64, k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    let cfg = ctrl_config(false, true)
        .to_builder()
        .crash(CrashConfig::at(KillPoint::MidJournal, k.crash_crossing))
        .build()
        .expect("crash configuration is valid");
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    let mut stream = Stream::new(seed, 128);
    // The kill is armed on journal writes; every access makes several, so
    // it fires long before this bound.
    for _ in 0..k.crash_crossing + 1_000 {
        let (addr, write) = stream.next_access();
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        match oram.try_access_block(BlockAddr(addr), kind) {
            Ok(_) => {}
            Err(OramError::Crashed { .. }) => {
                let t = Instant::now();
                let report = oram.recover();
                let ns = t.elapsed().as_nanos() as u64;
                oram.audit_full();
                out.insert("crash.recover_ms".into(), ns as f64 / 1e6);
                out.insert("crash.recover_cycles".into(), report.cycles as f64);
                return;
            }
            Err(e) => panic!("recovery kernel: unexpected {e}"),
        }
    }
    panic!("recovery kernel: the MidJournal kill never fired");
}

/// Fork/join cost of the worker pool at 2 threads over one path's worth
/// of no-op items, and the wall-clock speed-up of a 4-shard batch at 2
/// threads over the serial path. Never more threads than the host has
/// cores: with fewer than 2 both read 0 (not measured), as two threads
/// taking turns on one core say nothing about either.
fn par_kernels(seed: u64, k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
        return;
    }
    let cfg = ctrl_config(false, true);
    let path_items = cfg.tree_levels() as usize;
    let pool = WorkerPool::new(2);
    let dispatch_ns = min_batch(k.batches, || {
        let t = Instant::now();
        for _ in 0..k.pool_dispatches {
            black_box(pool.run(vec![0u8; path_items], |x| x));
        }
        t.elapsed().as_nanos() as u64
    });
    drop(pool);
    out.insert(
        "par.pool_dispatch_ns".into(),
        dispatch_ns as f64 / k.pool_dispatches as f64,
    );

    let time_batches = |threads: usize| {
        let mut sharded =
            ShardedOram::new(&cfg, &SchemeConfig::baseline(), 4, CTRL_BLOCKS, ORAM_SEED);
        sharded.set_worker_threads(threads);
        let mut stream = Stream::new(seed, 128);
        let mut next_batch = || -> Vec<MemRequest> {
            (0..k.shard_batch)
                .map(|_| MemRequest::read(BlockAddr(stream.next_access().0)))
                .collect()
        };
        black_box(sharded.access_batch(0, &next_batch()));
        min_batch(k.batches, || {
            let t = Instant::now();
            for _ in 0..k.shard_batches {
                black_box(sharded.access_batch(0, &next_batch()));
            }
            t.elapsed().as_nanos() as u64
        })
    };
    let serial = time_batches(1);
    let parallel = time_batches(2);
    out.insert(
        "par.shard_batch_speedup_2t".into(),
        serial as f64 / parallel as f64,
    );
}

/// The `radix`/`dyn` slice of `sim_oram_bound` with a `RingSink`
/// attached against the same slice detached; the ring also yields the
/// scheme's merge / break decisions, which no stat struct reachable
/// through `System` carries.
fn obs_differential(seed: u64, k: &KernelSizes, out: &mut BTreeMap<String, f64>) {
    let scale = crate::workloads::scale(k.obs_ops, k.obs_warmup, seed);
    let cfg = crate::workloads::system_config(MemoryKind::Oram(SchemeConfig::dynamic(2)));
    let run = |obs: Option<&Obs>| {
        let mut workload = suite::build(crate::workloads::spec("radix"), scale);
        let mut sys = System::build(&cfg, workload.footprint_bytes());
        if let Some(obs) = obs {
            sys.attach_obs(obs.clone());
        }
        for _ in 0..scale.warmup_ops {
            sys.step(workload.next_op().expect("trace covers its warm-up"));
        }
        let t = Instant::now();
        while let Some(op) = workload.next_op() {
            sys.step(op);
        }
        let ns = t.elapsed().as_nanos() as u64;
        black_box(sys.finish());
        ns
    };
    let (mut detached, mut attached) = (u64::MAX, u64::MAX);
    let mut last_ring = Obs::disabled();
    for _ in 0..k.batches {
        detached = detached.min(run(None));
        // ~12 events per ORAM access; sized so nothing is dropped.
        last_ring = Obs::ring(1 << 20);
        attached = attached.min(run(Some(&last_ring)));
    }
    let events = last_ring.events();
    let count = |f: fn(&ObsEvent) -> bool| events.iter().filter(|e| f(e)).count() as f64;
    let kop = (scale.total_ops()) as f64 / 1000.0;
    out.insert(
        "obs.ring_overhead_share".into(),
        1.0 - detached as f64 / attached as f64,
    );
    out.insert(
        "obs.events_per_op".into(),
        (events.len() as u64 + last_ring.dropped()) as f64 / scale.total_ops() as f64,
    );
    // Exact only while the ring dropped nothing (it keeps the oldest).
    out.insert(
        "core.merges_per_kop".into(),
        count(|e| matches!(e, ObsEvent::SuperBlockMerge { .. })) / kop,
    );
    out.insert(
        "core.breaks_per_kop".into(),
        count(|e| matches!(e, ObsEvent::SuperBlockBreak { .. })) / kop,
    );
    out.insert("obs.ring_dropped".into(), last_ring.dropped() as f64);
}
