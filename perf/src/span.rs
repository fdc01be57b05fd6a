//! Spans recorded by the benchmark's own code around calls into a layer.
//!
//! Nothing here touches the program under test: [`Tracer`] is an
//! in-memory `Vec` the benchmark pushes to, and [`Spanned`] is a wrapper
//! *defined here* that implements the public [`OramBackend`] trait by
//! delegation, so handing it to `SuperBlockOram::from_backend` yields a
//! real parent/child tree `core.access -> oram.*` with no code inside
//! the crates.

use proram_mem::{BlockAddr, FaultStats};
use proram_obs::Obs;
use proram_oram::{
    AddressSpace, Block, Leaf, OramBackend, OramError, OramStats, PathKind, PosEntry,
    RecoveryReport,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The workload op (or segment / run) this span belongs to; spans of
    /// one op share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
    op: u64,
}

/// A tracer shared between the driver loop and a [`Spanned`] backend.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
            op: 0,
        }
    }
}

impl Tracer {
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer::default()))
    }

    /// Turns recording on or off (warm-up runs through the same wrapper
    /// with recording off).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans");
        self.enabled = on;
    }

    /// Sets the op identifier stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Moves on to the next op identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
///
/// # Errors
///
/// Returns a description of the first span that breaks nesting: a child
/// reaching outside its parent, two siblings overlapping, or an end
/// before a start. With nesting intact, `self + sum(children)` equals the
/// parent's duration to the nanosecond by construction, and every self
/// time is non-negative.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut child_ns = vec![0u64; spans.len()];
    // Spans are pushed in start order, so siblings appear in time order.
    let mut last_child_end = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let Some(parent) = spans.get(p).filter(|_| p < i) else {
            return Err(format!("span {i} ({}) names parent {p}", s.name));
        };
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) reaches outside its parent {p} ({})",
                s.name, parent.name
            ));
        }
        if s.start_ns < last_child_end[p] {
            return Err(format!("span {i} ({}) overlaps a sibling", s.name));
        }
        last_child_end[p] = s.end_ns;
        child_ns[p] += s.duration_ns();
    }
    Ok(spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns() - c)
        .collect())
}

/// Calls of one span name and its self time cut by `op`: entry `k` is
/// the self time of the name's spans under the `k`-th op that has any.
///
/// A traced pass is deterministic, so entry `k` covers identical work in
/// every pass and the segment-minimum estimator applies to each layer's
/// self time exactly as it does to the timed region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelfByOp {
    pub calls: u64,
    pub self_ns: Vec<u64>,
}

/// [`SelfByOp`] of every span name. Ops must not decrease along `spans`
/// (they are stamped by one counter), which keeps each list in op order.
///
/// # Errors
///
/// Propagates [`self_times`]' nesting errors.
pub fn self_by_op(spans: &[Span]) -> Result<BTreeMap<&'static str, SelfByOp>, String> {
    let selfs = self_times(spans)?;
    let mut by_name: BTreeMap<&'static str, (SelfByOp, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let (t, last_op) = by_name.entry(s.name).or_default();
        if t.calls == 0 || *last_op != s.op {
            t.self_ns.push(0);
            *last_op = s.op;
        }
        t.calls += 1;
        *t.self_ns.last_mut().expect("just pushed") += self_ns;
    }
    Ok(by_name
        .into_iter()
        .map(|(name, (t, _))| (name, t))
        .collect())
}

/// Writes one JSON object per span; a span's id is its line number
/// (from 0), which is what `parent` refers to.
///
/// # Errors
///
/// Returns any I/O error, including the flush's.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}

/// An [`OramBackend`] that records a span around each primitive the
/// super-block layer calls and otherwise delegates to `inner`.
///
/// Every trait method is forwarded — including the ones with default
/// bodies, or the commit protocol (`txn_*`, `recover_crash`), the
/// pipelined fetch cost and the fault counters of the wrapped backend
/// would silently switch off.
#[derive(Debug)]
pub struct Spanned<O> {
    inner: O,
    tracer: SharedTracer,
}

impl<O: OramBackend> Spanned<O> {
    pub fn new(inner: O, tracer: SharedTracer) -> Self {
        Spanned { inner, tracer }
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }

    #[inline]
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut O) -> R) -> R {
        self.tracer.borrow_mut().enter(name);
        let r = f(&mut self.inner);
        self.tracer.borrow_mut().exit();
        r
    }
}

impl<O: OramBackend> OramBackend for Spanned<O> {
    fn space(&self) -> &AddressSpace {
        self.inner.space()
    }
    fn resolve_posmap(&mut self, child: BlockAddr) -> Result<u64, OramError> {
        self.span("oram.resolve_posmap", |o| o.resolve_posmap(child))
    }
    fn entry(&self, child: BlockAddr) -> &PosEntry {
        self.inner.entry(child)
    }
    fn entry_mut(&mut self, child: BlockAddr) -> &mut PosEntry {
        self.inner.entry_mut(child)
    }
    fn read_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) -> Result<(), OramError> {
        self.span("oram.read_path", |o| o.read_path_into_stash(leaf, kind))
    }
    fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError> {
        self.span("oram.write_path", |o| o.write_path_from_stash(leaf))
    }
    fn txn_begin(&mut self) {
        self.span("oram.txn", |o| o.txn_begin());
    }
    fn txn_commit(&mut self) -> Result<(), OramError> {
        self.span("oram.txn", |o| o.txn_commit())
    }
    fn recover_crash(&mut self) -> Option<RecoveryReport> {
        self.span("oram.txn", |o| o.recover_crash())
    }
    fn stash_contains(&self, addr: BlockAddr) -> bool {
        self.inner.stash_contains(addr)
    }
    fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.inner.stash_block_mut(addr)
    }
    fn random_leaf(&mut self) -> Leaf {
        self.inner.random_leaf()
    }
    fn background_evict(&mut self) -> Result<(), OramError> {
        self.span("oram.background_evict", |o| o.background_evict())
    }
    fn drain_background(&mut self) -> Result<u64, OramError> {
        self.span("oram.background_evict", |o| o.drain_background())
    }
    fn path_cycles(&self) -> u64 {
        self.inner.path_cycles()
    }
    fn fetch_cycles(&self) -> u64 {
        self.inner.fetch_cycles()
    }
    fn oram_stats(&self) -> OramStats {
        self.inner.oram_stats()
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_close() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a.x", 12, 20, 1),
            span("b", 40, 90, 0),
            span("root", 100, 130, NO_PARENT),
        ];
        let selfs = self_times(&spans).expect("well nested");
        assert_eq!(selfs, vec![20, 22, 8, 50, 30]);
        // For every parent, self + children == duration.
        assert_eq!(selfs[0] + 30 + 50, 100);
        assert_eq!(selfs[1] + 8, 30);
        // The self times of all spans sum to the wall time of the roots.
        assert_eq!(selfs.iter().sum::<u64>(), 100 + 30);
    }

    #[test]
    fn self_time_is_cut_by_op_per_name() {
        let mut spans = vec![
            span("seg", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a", 50, 60, 0),
            span("seg", 100, 150, NO_PARENT),
            span("b", 100, 120, 3),
            span("seg", 150, 170, NO_PARENT),
            span("a", 155, 160, 5),
        ];
        for (s, op) in spans.iter_mut().zip([0, 0, 0, 1, 1, 2, 2]) {
            s.op = op;
        }
        let by = self_by_op(&spans).expect("well nested");
        assert_eq!(
            by["seg"],
            SelfByOp {
                calls: 3,
                self_ns: vec![60, 30, 15]
            }
        );
        // A name gets an entry only under the ops that have it.
        assert_eq!(
            by["a"],
            SelfByOp {
                calls: 3,
                self_ns: vec![40, 5]
            }
        );
        assert_eq!(
            by["b"],
            SelfByOp {
                calls: 1,
                self_ns: vec![20]
            }
        );
        let wall: u64 = by.values().flat_map(|t| &t.self_ns).sum();
        assert_eq!(wall, 170, "self times of all names sum to the wall time");
    }

    #[test]
    fn broken_nesting_is_reported_not_absorbed() {
        let outside = vec![span("p", 10, 20, NO_PARENT), span("c", 15, 25, 0)];
        assert!(self_times(&outside).unwrap_err().contains("outside"));
        let overlap = vec![
            span("p", 0, 50, NO_PARENT),
            span("c1", 0, 30, 0),
            span("c2", 20, 40, 0),
        ];
        assert!(self_times(&overlap).unwrap_err().contains("overlaps"));
        let forward = vec![span("c", 0, 1, 1), span("p", 0, 2, NO_PARENT)];
        assert!(self_times(&forward).unwrap_err().contains("parent"));
    }

    #[test]
    fn tracer_builds_a_nested_tree_and_respects_the_switch() {
        let mut t = Tracer::default();
        t.set_enabled(false);
        t.enter("ignored");
        t.exit();
        t.set_enabled(true);
        t.set_op(7);
        t.enter("outer");
        t.enter("inner");
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].op, 7);
        let selfs = self_times(spans).expect("tracer output nests");
        assert_eq!(selfs[0] + spans[1].duration_ns(), spans[0].duration_ns());
    }
}
