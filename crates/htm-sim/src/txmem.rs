//! Word-addressed transactional memory with undo-log rollback and a
//! **line-ownership directory** for O(1) conflict detection.
//!
//! All shared interpreter state (and, deliberately, the threads' private
//! stack areas — they occupy real cache lines and therefore real HTM
//! footprint) lives in one `Vec<W>`. Every access goes through
//! [`TxMemory::read`]/[`TxMemory::write`], which:
//!
//! 1. abort the caller first if a remote conflict already doomed it;
//! 2. record the touched cache line in the active transaction's read or
//!    write set and check the footprint budgets;
//! 3. doom every *other* active transaction whose set conflicts with the
//!    access (requester wins, the policy of both zEC12 and Haswell where
//!    the incoming coherence request kills the local transaction).
//!
//! Step 3 is where this module differs from the original implementation
//! (retained verbatim as the `ReferenceTxMemory` of `tests/refimpl/` and
//! held equivalent by the differential property test): instead of per-thread
//! hash sets scanned across all threads on every access, conflicts are
//! resolved through a flat per-line directory — for each cache line a
//! reader bitmask and a speculative-writer id, exactly the metadata a real
//! coherence directory keeps. One indexed load answers "who conflicts?";
//! doomed victims are read straight out of the bitmask in ascending thread
//! order, preserving the reference scan's victim ordering. The directory
//! invariant mirrors MESI: a line has either any number of transactional
//! readers and no writer, or exactly one writer (which may also be a
//! reader) — the requester-wins dooming enforces it on every access.
//!
//! Per-transaction state is a pair of line *lists* (each line appended
//! exactly once, when its directory bit first flips) whose lengths are the
//! footprint counters, plus the undo log. All per-thread buffers are
//! retained across transactions, so a steady-state begin → access* →
//! commit cycle performs **zero heap allocations**.
//!
//! A doomed transaction is rolled back *immediately* (its undo log is
//! replayed in reverse, its directory bits cleared) so the requester always
//! observes committed data, mirroring how real HTM buffers speculative
//! stores; the victim thread learns of the abort at its next access or at
//! an explicit [`TxMemory::poll_doomed`].
//!
//! The entry points are split where the state of the memory splits the
//! work: while it is **quiescent** ([`TxMemory::quiescent`] — no
//! transaction active, no doom undelivered) an access owes its counter
//! and nothing else, and that much is the `#[inline]` head of
//! [`TxMemory::read_with`]/[`TxMemory::write`]; steps 1–3 are the
//! out-of-line tail behind it. Between the two sits the **line-lease**
//! batched path ([`TxMemory::try_lease`] / [`TxMemory::lease_read`] /
//! [`TxMemory::lease_write`]): see [`crate::lease`] and `DESIGN.md` §13.
//!
//! Building a memory costs a fill of every word, tearing it down a walk of
//! every word. A caller that builds many memories in sequence can avoid
//! both: a page-granular **dirty bitmap** records where a non-`init` word
//! may live, [`TxMemory::take_image`] resets exactly those pages and hands
//! out the two large buffers as a [`MemoryImage`], and
//! [`TxMemory::recycled`] builds the next memory on top of it. Where the
//! image is parked between the two calls is the caller's business; this
//! module holds no global state.

use machine_sim::ThreadId;

use crate::abort::{AbortReason, ExplicitCode, SpuriousCause};
use crate::inject::{Fault, FaultInjector, FaultPlan};
use crate::lease::LineLease;
use crate::predictor::OverflowPredictor;
use crate::stats::HtmStats;
use crate::trace::{RingBufferSink, TraceEvent};

/// Footprint budgets for one transaction, in whole cache lines.
///
/// The TLE runtime computes these from the machine profile and halves them
/// when the thread's SMT sibling is busy (paper §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    pub read_lines: usize,
    pub write_lines: usize,
}

impl Budgets {
    /// Halve both budgets (SMT sibling active), keeping at least one line.
    pub fn halved(self) -> Budgets {
        Budgets {
            read_lines: (self.read_lines / 2).max(1),
            write_lines: (self.write_lines / 2).max(1),
        }
    }
}

/// The directory's reader bitmask is a `u32`; the widest simulated machine
/// (zEC12) has 12 hardware threads, so 32 leaves ample headroom.
pub const MAX_THREADS: usize = 32;

/// Sentinel in [`LineState::writer`]: no speculative writer.
const NO_WRITER: u8 = u8::MAX;

/// Panic with addr/line context on an out-of-bounds access. Kept out of
/// line so the bounds check in the hot path compiles to a compare and a
/// cold jump. The reference implementation fails with the same message.
#[cold]
#[inline(never)]
fn out_of_bounds(op: &str, addr: usize, line: usize, size: usize) -> ! {
    panic!("TxMemory {op} out of bounds: addr {addr} (line {line}) >= memory size {size}");
}

/// Lines of a memory of `size` words. A line number is a `u32` in a
/// [`LineLease`] and in an [`AbortReason`], so a larger memory is refused.
fn line_count(size: usize, line_words: usize) -> usize {
    let lines = size.div_ceil(line_words);
    assert!(lines < u32::MAX as usize, "{lines} cache lines: a line number must fit a u32");
    lines
}

/// Ownership record for one cache line: which transactions currently hold
/// it in their read set (bit per thread) and which single transaction, if
/// any, holds it in its write set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    readers: u32,
    writer: u8,
}

const EMPTY_LINE: LineState = LineState { readers: 0, writer: NO_WRITER };

/// Granularity of the dirty bitmap: 512-word pages, a multiple of every
/// line size, so a cache line never straddles two pages.
const PAGE_SHIFT: u32 = 9;
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;

/// The word and directory buffers of a torn-down [`TxMemory`]. Every word
/// equals the `init` passed to [`TxMemory::take_image`] and no line has an
/// owner — the one place that establishes it; [`TxMemory::recycled`]
/// relies on it.
#[derive(Debug)]
pub struct MemoryImage<W> {
    words: Vec<W>,
    dir: Vec<LineState>,
}

impl<W> Default for MemoryImage<W> {
    fn default() -> Self {
        MemoryImage { words: Vec::new(), dir: Vec::new() }
    }
}

/// Per-thread transaction slot. The buffers are retained (cleared, not
/// dropped) when a transaction ends, so repeated transactions on a thread
/// reuse their capacity and steady-state `begin` allocates nothing.
#[derive(Debug)]
struct TxSlot<W> {
    active: bool,
    budgets: Budgets,
    /// Lines in the read set, in first-touch order; no duplicates (a line
    /// is appended exactly when its directory reader bit flips on).
    read_lines: Vec<usize>,
    /// Lines in the write set, in first-touch order; no duplicates.
    write_lines: Vec<usize>,
    /// Undo log in write order: (address, the word it held before the
    /// record's write). A word may appear twice — the full path logs every
    /// write, a leased write whatever its mask does not cover — and
    /// rollback replays backward, so the earliest record restores last.
    undo: Vec<(usize, W)>,
}

impl<W> TxSlot<W> {
    fn new() -> Self {
        TxSlot {
            active: false,
            budgets: Budgets { read_lines: 0, write_lines: 0 },
            read_lines: Vec::new(),
            write_lines: Vec::new(),
            undo: Vec::new(),
        }
    }
}

/// Word-addressed shared memory with best-effort transactions.
#[derive(Debug)]
pub struct TxMemory<W: Clone> {
    words: Vec<W>,
    line_words: usize,
    /// `log2(line_words)` — `line_of` is a shift.
    line_shift: u32,
    /// One ownership record per cache line, indexed by line number.
    dir: Vec<LineState>,
    /// One bit per [`PAGE_WORDS`]-word page: set before any word of the
    /// page can differ from the memory's `init`. Only paths that already
    /// do bookkeeping set it — [`Self::poke`], [`Self::materialize`], the
    /// word-path [`Self::write`] and write-lease grants (every leased
    /// write lands on a granted line; rollback rewrites only addresses
    /// written before) — so `lease_read`/`lease_write` never see it.
    dirty: Vec<u64>,
    txs: Vec<TxSlot<W>>,
    doomed: Vec<Option<AbortReason>>,
    predictors: Vec<OverflowPredictor>,
    /// Number of `active` transaction slots; lets the common
    /// no-transactions case skip all conflict machinery.
    active_txs: usize,
    /// Number of `Some` entries in `doomed`. A doomed thread has no active
    /// transaction but must still receive its abort on the next access, so
    /// the fast path requires this to be zero too.
    pending_dooms: usize,
    stats: HtmStats,
    /// Structured event trace; `None` (the default) means tracing is off
    /// and event sites cost only this discriminant test.
    trace: Option<RingBufferSink>,
    /// Seeded fault injector; `None` (the default) injects nothing. Draws
    /// are consumed only at transactional accesses, so a differential pair
    /// given injectors from the same plan stays in lockstep.
    injector: Option<FaultInjector>,
    /// Simulated cycle stamped onto trace events; advanced by the caller.
    now: u64,
    /// Lease epoch slots: one per thread (index `t`, stamps leases granted
    /// inside `t`'s transactions) plus a final shared *plain* slot (index
    /// `txs.len()`, stamps leases granted outside any transaction). A
    /// [`LineLease`] is dead once its slot's value moved past its stamp.
    /// All slots start at 1 so [`LineLease::INVALID`] (epoch 0) never
    /// validates. Bumped by [`Self::bump_slot`] / [`Self::bump_all_slots`].
    epochs: Vec<u64>,
    /// Leased reads not yet folded into `stats.reads`.
    pending_reads: u64,
    /// Leased writes not yet folded into `stats.writes`.
    pending_writes: u64,
    /// Undo records of every transaction that has ended ([`Self::undo_pushes`]).
    undo_pushes: u64,
    /// Directory entries consulted ([`Self::dir_probes`]).
    dir_probes: u64,
}

impl<W: Clone> TxMemory<W> {
    /// Create a memory of `size` words, all initialized to `init`, with
    /// cache lines of `line_words` words, supporting up to `max_threads`
    /// hardware threads.
    pub fn new(size: usize, line_words: usize, max_threads: usize, init: W) -> Self {
        Self::on_image(MemoryImage::default(), size, line_words, max_threads, init)
    }

    /// [`Self::new`] on top of the buffers of a torn-down memory: the
    /// result is indistinguishable from a fresh one, but an `image` large
    /// enough is cut to `size` instead of allocated and filled. One that
    /// is too small is freed *before* the new buffer is allocated, so the
    /// two never coexist. `init` must be the value the image was reset to.
    pub fn recycled(
        image: Option<MemoryImage<W>>,
        size: usize,
        line_words: usize,
        max_threads: usize,
        init: W,
    ) -> Self
    where
        W: PartialEq,
    {
        let image = image.filter(|i| i.words.capacity() >= size).unwrap_or_default();
        debug_assert!(image.words.iter().all(|w| *w == init), "spare image holds a non-init word");
        debug_assert!(image.dir.iter().all(|l| *l == EMPTY_LINE), "spare image owns a line");
        Self::on_image(image, size, line_words, max_threads, init)
    }

    fn on_image(
        image: MemoryImage<W>,
        size: usize,
        line_words: usize,
        max_threads: usize,
        init: W,
    ) -> Self {
        assert!(
            line_words.is_power_of_two() && line_words <= PAGE_WORDS,
            "line size must be 2^k words, at most a dirty page"
        );
        assert!(
            max_threads <= MAX_THREADS,
            "ownership directory tracks at most {MAX_THREADS} threads"
        );
        let MemoryImage { mut words, mut dir } = image;
        words.truncate(size);
        words.resize(size, init);
        let lines = line_count(size, line_words);
        if dir.capacity() < lines || dir.capacity() > 2 * lines {
            // Exactly sized, the old one freed first: a sweep that
            // alternates line sizes must not carry its largest directory
            // through every run. One that only grew with its heap stays.
            dir = Vec::new();
            dir.reserve_exact(lines);
        }
        dir.truncate(lines); // every entry is empty (`take_image`): a longer tail is filled
        dir.resize(lines, EMPTY_LINE);
        TxMemory {
            words,
            line_words,
            line_shift: line_words.trailing_zeros(),
            dir,
            dirty: vec![0; size.div_ceil(PAGE_WORDS).div_ceil(64)],
            txs: (0..max_threads).map(|_| TxSlot::new()).collect(),
            doomed: vec![None; max_threads],
            predictors: (0..max_threads).map(|_| OverflowPredictor::disabled()).collect(),
            active_txs: 0,
            pending_dooms: 0,
            stats: HtmStats::default(),
            trace: None,
            injector: None,
            now: 0,
            epochs: vec![1; max_threads + 1],
            pending_reads: 0,
            pending_writes: 0,
            undo_pushes: 0,
            dir_probes: 0,
        }
    }

    /// Tear the memory down to its buffers: a transaction still open (a
    /// run that stopped on an error) gives up its lines, every dirty page
    /// is reset to `init` (the value the memory was built with), then the
    /// word and directory buffers are handed out for [`Self::recycled`].
    /// Costs the pages and lines touched, not the memory's size. The
    /// memory is left empty (size 0); call this from the owner's `Drop`.
    pub fn take_image(&mut self, init: W) -> MemoryImage<W> {
        for t in 0..self.txs.len() {
            if self.txs[t].active {
                self.release_tx(t);
            }
        }
        let mut words = std::mem::take(&mut self.words);
        for (i, mut bits) in std::mem::take(&mut self.dirty).into_iter().enumerate() {
            while bits != 0 {
                let start = (i * 64 + bits.trailing_zeros() as usize) << PAGE_SHIFT;
                bits &= bits - 1;
                let end = (start + PAGE_WORDS).min(words.len());
                words[start..end].fill(init.clone());
            }
        }
        MemoryImage { words, dir: std::mem::take(&mut self.dir) }
    }

    #[inline]
    fn mark_dirty(&mut self, addr: usize) {
        let page = addr >> PAGE_SHIFT;
        self.dirty[page >> 6] |= 1 << (page & 63);
    }

    /// Install a fault-injection plan (or remove it with a no-op plan).
    /// Both memories of a differential pair must be given the same plan.
    /// Invalidates all outstanding leases: the leased path never consults
    /// the injector, so no lease may outlive a plan change (and none is
    /// granted while a plan is installed).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.bump_all_slots();
        self.injector = if plan.is_noop() { None } else { Some(FaultInjector::new(plan)) };
    }

    /// Faults injected so far (zero without a plan).
    pub fn faults_injected(&self) -> u64 {
        self.injector.as_ref().map_or(0, FaultInjector::injected)
    }

    /// Trace into a ring of the newest `capacity` events: every
    /// subsequent begin/commit/abort records a [`TraceEvent`].
    pub fn set_trace(&mut self, capacity: usize) {
        self.trace = Some(RingBufferSink::new(capacity));
    }

    /// The trace ring, when [`Self::set_trace`] installed one.
    pub fn trace(&self) -> Option<&RingBufferSink> {
        self.trace.as_ref()
    }

    /// Set the simulated cycle stamped onto trace events. The executor
    /// calls this as it charges cycle costs; with tracing off it is
    /// a single store.
    #[inline]
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(event);
        }
    }

    /// Install an overflow predictor for thread `t` (Intel profile).
    pub fn set_predictor(&mut self, t: ThreadId, p: OverflowPredictor) {
        self.predictors[t] = p;
    }

    /// Total words.
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Words per cache line.
    pub fn line_words(&self) -> usize {
        self.line_words
    }

    /// Grow the memory by `extra` words initialized to `init` (heap
    /// growth). Only legal while no transaction is active — in the full
    /// system growth happens under the GIL after every transaction was
    /// doomed by the GIL-word write.
    pub fn grow(&mut self, extra: usize, init: W) {
        assert!(self.active_txs == 0, "memory growth with active transactions");
        self.bump_all_slots(); // a global event: no lease outlives it
        let new = self.words.len() + extra;
        // `resize` alone would double the capacity — of a buffer that is
        // most of the process's memory.
        self.words.reserve_exact(extra);
        self.words.resize(new, init);
        let lines = line_count(new, self.line_words);
        self.dir.reserve_exact(lines - self.dir.len());
        self.dir.resize(lines, EMPTY_LINE);
        self.dirty.resize(new.div_ceil(PAGE_WORDS).div_ceil(64), 0);
    }

    /// Immutable view of the aggregate statistics.
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// Undo records written by the transactions that have ended, committed
    /// or rolled back: the log's length summed where it is cleared, so no
    /// access counts it. Host work — a leased write whose word is already
    /// logged writes none — and so not part of [`HtmStats`].
    pub fn undo_pushes(&self) -> u64 {
        self.undo_pushes
    }

    /// Directory entries consulted by full-path accesses and by
    /// in-transaction [`Self::try_lease`] grants (host work).
    pub fn dir_probes(&self) -> u64 {
        self.dir_probes
    }

    /// Cache line of an address.
    #[inline]
    pub fn line_of(&self, addr: usize) -> usize {
        addr >> self.line_shift
    }

    /// True when thread `t` has an active transaction.
    pub fn in_tx(&self, t: ThreadId) -> bool {
        self.txs[t].active
    }

    /// Number of currently active transactions.
    pub fn active_tx_count(&self) -> usize {
        self.active_txs
    }

    /// True while no transaction is active (nothing to doom, no footprint
    /// to grow, no fault to draw) and no doom waits for its victim. A
    /// counted access then owes only its counter — tier 0, the inlined head
    /// of [`Self::read_with`]/[`Self::write`] — and callers consult no lease.
    #[inline]
    pub fn quiescent(&self) -> bool {
        self.active_txs == 0 && self.pending_dooms == 0
    }

    /// (read lines, write lines) of `t`'s active transaction.
    pub fn footprint(&self, t: ThreadId) -> (usize, usize) {
        let tx = &self.txs[t];
        if tx.active {
            (tx.read_lines.len(), tx.write_lines.len())
        } else {
            (0, 0)
        }
    }

    /// Begin a transaction for thread `t` with the given budgets
    /// (`TBEGIN`/`XBEGIN`). Fails immediately when the learning predictor
    /// kills it ([`AbortReason::EagerPredicted`]).
    pub fn begin(&mut self, t: ThreadId, budgets: Budgets) -> Result<(), AbortReason> {
        assert!(!self.txs[t].active, "nested transaction on thread {t}");
        // `t`'s own pre-transaction leases die with the mode change, and
        // every plain lease anywhere dies because a transaction now exists.
        // Remote in-transaction leases stay valid: this begin takes no line
        // ownership away from them.
        self.bump_slot(t);
        self.bump_slot(self.txs.len());
        let _ = self.take_doom(t);
        if self.predictors[t].should_abort_eagerly() {
            let reason = AbortReason::EagerPredicted;
            self.stats.begins += 1;
            self.stats.record_abort(reason);
            let cycle = self.now;
            self.emit(TraceEvent::Abort { thread: t, cycle, reason, line: None });
            return Err(reason);
        }
        self.stats.begins += 1;
        let tx = &mut self.txs[t];
        debug_assert!(
            tx.read_lines.is_empty() && tx.write_lines.is_empty() && tx.undo.is_empty(),
            "transaction buffers not cleared at release"
        );
        tx.active = true;
        tx.budgets = budgets;
        self.active_txs += 1;
        let cycle = self.now;
        self.emit(TraceEvent::Begin { thread: t, cycle });
        Ok(())
    }

    /// Commit thread `t`'s transaction (`TEND`/`XEND`). Fails if a remote
    /// conflict doomed it first (the transaction is already rolled back).
    pub fn commit(&mut self, t: ThreadId) -> Result<(), AbortReason> {
        // Only `t`'s leases die: releasing `t`'s line marks cannot affect
        // what another thread's settled footprint already covers.
        self.bump_slot(t);
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        assert!(self.txs[t].active, "commit without transaction");
        let read_lines = self.txs[t].read_lines.len();
        let write_lines = self.txs[t].write_lines.len();
        self.release_tx(t);
        self.stats.commits += 1;
        self.predictors[t].on_commit();
        let cycle = self.now;
        self.emit(TraceEvent::Commit { thread: t, cycle, read_lines, write_lines });
        Ok(())
    }

    /// Explicit software abort of `t`'s own transaction
    /// (`TABORT`/`XABORT code`). Rolls back and reports the reason.
    pub fn tabort(&mut self, t: ThreadId, code: ExplicitCode) -> AbortReason {
        let reason = AbortReason::Explicit(code);
        self.abort_self(t, reason, None);
        reason
    }

    /// Abort `t`'s transaction because it attempted an operation that is
    /// illegal inside transactions (system call, blocking I/O, GC).
    pub fn abort_restricted(&mut self, t: ThreadId) -> AbortReason {
        let reason = AbortReason::Restricted;
        self.abort_self(t, reason, None);
        reason
    }

    /// Abort `t`'s transaction for an environmental cause the transaction
    /// did not earn — the interrupt-timer model and the fault injector use
    /// this. Transient: the TLE runtime retries it like a conflict.
    pub fn abort_spurious(&mut self, t: ThreadId, cause: SpuriousCause) -> AbortReason {
        let reason = AbortReason::Spurious { cause };
        self.abort_self(t, reason, None);
        reason
    }

    /// Dooms not yet delivered: a doom raises it, its victim's poll lowers it.
    #[inline]
    pub fn pending_dooms(&self) -> usize {
        self.pending_dooms
    }

    /// True when a doom waits for `t` ([`Self::poll_doomed`] would take it).
    pub fn is_doomed(&self, t: ThreadId) -> bool {
        self.doomed[t].is_some()
    }

    /// Check whether a remote conflict doomed `t`'s transaction. The
    /// transaction memory effects are already rolled back; this consumes
    /// the pending abort reason.
    pub fn poll_doomed(&mut self, t: ThreadId) -> Option<AbortReason> {
        self.take_doom(t)
    }

    /// Transactional or plain read of one word by thread `t`.
    ///
    /// Outside a transaction the read is immediate but still dooms remote
    /// transactions that speculatively *wrote* the line (a real coherence
    /// read request would abort them).
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when `addr` is out of bounds — a
    /// decoded operand pointing outside memory is a VM bug, and the panic
    /// message carries the address and cache line rather than surfacing as
    /// a bare slice index failure.
    #[inline]
    pub fn read(&mut self, t: ThreadId, addr: usize) -> Result<W, AbortReason> {
        self.read_with(t, addr, W::clone)
    }

    /// [`Self::read`] that applies `f` to the word in place instead of
    /// cloning it out — the full accounting path, one counted access.
    /// Inlined, this is tier 0 — the bounds check, the counter and the word
    /// of a quiescent memory — and a call to [`Self::read_tail`] otherwise.
    ///
    /// # Panics
    ///
    /// As [`Self::read`]: out-of-bounds `addr` panics with context.
    #[inline]
    pub fn read_with<R>(
        &mut self,
        t: ThreadId,
        addr: usize,
        f: impl FnOnce(&W) -> R,
    ) -> Result<R, AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("read", addr, addr >> self.line_shift, self.words.len());
        }
        self.stats.reads += 1;
        if !self.quiescent() {
            self.read_tail(t, addr, true)?;
        }
        Ok(f(&self.words[addr]))
    }

    /// What a counted read owes when the memory is not quiescent: abort
    /// delivery, the fault draw, requester-wins dooming and — unless the
    /// read is the lock monitor's (`join` false) — the read set.
    #[cold]
    #[inline(never)]
    fn read_tail(&mut self, t: ThreadId, addr: usize, join: bool) -> Result<(), AbortReason> {
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        let line = addr >> self.line_shift;
        // Requester wins: kill a remote writer of this line.
        self.dir_probes += 1;
        let st = self.dir[line];
        if st.writer != NO_WRITER && st.writer as usize != t {
            let in_tx = self.txs[t].active;
            self.doom(st.writer as usize, AbortReason::conflict(true, t, line), line);
            if !in_tx {
                self.stats.nontx_dooms += 1;
            }
        }
        if join && self.txs[t].active {
            let bit = 1u32 << t;
            if self.dir[line].readers & bit == 0 {
                self.dir[line].readers |= bit;
                self.txs[t].read_lines.push(line);
                if self.txs[t].read_lines.len() > self.txs[t].budgets.read_lines {
                    let reason = AbortReason::ReadOverflow;
                    self.abort_self(t, reason, Some(line));
                    self.predictors[t].on_overflow();
                    return Err(reason);
                }
            }
        }
        Ok(())
    }

    /// Transactional or plain write of one word by thread `t`. Like
    /// [`Self::read_with`], tier 0 inline and [`Self::write_tail`] behind it.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) when `addr` is out of bounds, with
    /// addr/line context — see [`Self::read`].
    #[inline]
    pub fn write(&mut self, t: ThreadId, addr: usize, value: W) -> Result<(), AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("write", addr, addr >> self.line_shift, self.words.len());
        }
        self.stats.writes += 1;
        self.mark_dirty(addr);
        if !self.quiescent() {
            self.write_tail(t, addr)?;
        }
        self.words[addr] = value;
        Ok(())
    }

    /// The write-side tail: abort delivery, the fault draw, dooming of the
    /// line's remote readers and writer, the footprint and the undo record.
    #[cold]
    #[inline(never)]
    fn write_tail(&mut self, t: ThreadId, addr: usize) -> Result<(), AbortReason> {
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        let line = addr >> self.line_shift;
        // Kill remote readers *and* the remote writer of this line, in
        // ascending thread order like the reference scan.
        self.dir_probes += 1;
        let st = self.dir[line];
        let own = 1u32 << t;
        let mut victims = st.readers;
        if st.writer != NO_WRITER {
            victims |= 1u32 << st.writer;
        }
        victims &= !own;
        if victims != 0 {
            let in_tx = self.txs[t].active;
            while victims != 0 {
                let v = victims.trailing_zeros() as usize;
                victims &= victims - 1;
                self.doom(v, AbortReason::conflict(st.writer as usize == v, t, line), line);
            }
            if !in_tx {
                self.stats.nontx_dooms += 1;
            }
        }
        if self.txs[t].active {
            self.txs[t].undo.push((addr, self.words[addr].clone()));
            if self.dir[line].writer as usize != t {
                self.dir[line].writer = t as u8;
                self.txs[t].write_lines.push(line);
                if self.txs[t].write_lines.len() > self.txs[t].budgets.write_lines {
                    let reason = AbortReason::WriteOverflow;
                    self.abort_self(t, reason, Some(line));
                    self.predictors[t].on_overflow();
                    return Err(reason);
                }
            }
        }
        Ok(())
    }

    /// Arm thread `t`'s hardware lock monitor on the line containing
    /// `addr` — the begin-time half of the `LazyGuarded` commit guard
    /// (DESIGN.md §15). Behaves exactly like [`Self::read`] — one counted
    /// access, doom/fault checks, requester-wins doom of a remote
    /// speculative writer, the current word returned — **except** the line
    /// is *not* inserted into `t`'s read set: the monitor is a dedicated
    /// register, so it consumes no read-set capacity. The acquisition-side
    /// half is [`Self::doom_all_active`].
    ///
    /// # Panics
    ///
    /// As [`Self::read`]: out-of-bounds `addr` panics with context.
    pub fn arm_lock_monitor(&mut self, t: ThreadId, addr: usize) -> Result<W, AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("arm_lock_monitor", addr, addr >> self.line_shift, self.words.len());
        }
        self.stats.reads += 1;
        if !self.quiescent() {
            self.read_tail(t, addr, false)?;
        }
        Ok(self.words[addr].clone())
    }

    /// The acquisition-side half of the `LazyGuarded` commit guard: a
    /// non-transactional lock acquirer `t` announcing its write to the
    /// monitored `addr` dooms **every** other active transaction, in
    /// ascending thread order — exactly the victim set, reasons, and
    /// timing an eagerly-subscribed population would lose to the
    /// acquirer's lock-word write (under eager subscription every active
    /// transaction holds that line in its read set).
    pub fn doom_all_active(&mut self, t: ThreadId, addr: usize) {
        if self.active_txs == 0 {
            return;
        }
        let line = addr >> self.line_shift;
        let in_tx = self.txs[t].active;
        let mut doomed_any = false;
        for victim in 0..self.txs.len() {
            if victim != t && self.txs[victim].active {
                self.doom(victim, AbortReason::conflict(false, t, line), line);
                doomed_any = true;
            }
        }
        if doomed_any && !in_tx {
            self.stats.nontx_dooms += 1;
        }
    }

    /// Read bypassing all transaction machinery — *debug/verification
    /// only* (used by tests and by the GC root scanner, which runs with
    /// every transaction already doomed by the GIL-word write).
    pub fn peek(&self, addr: usize) -> &W {
        &self.words[addr]
    }

    /// Write bypassing transaction machinery — initialization only.
    pub fn poke(&mut self, addr: usize, value: W) {
        debug_assert!(self.active_txs == 0, "poke with active transactions");
        self.mark_dirty(addr);
        self.words[addr] = value;
    }

    /// Store the value a word *logically already holds*: the owner defines
    /// part of the initial image by rule and writes it down on demand,
    /// before anything reads it. Not an access — no thread, no counter, no
    /// conflict, no undo record — and legal with transactions active: no
    /// one can have observed the word, and a rollback of a later write
    /// restores exactly this value.
    pub fn materialize(&mut self, addr: usize, value: W) {
        self.mark_dirty(addr);
        self.words[addr] = value;
    }

    // ---- line leases (batched accounting fast path) ---------------------

    /// True when `lease` is still current: its stamp matches its epoch
    /// slot. Events bump exactly the slots whose leases they can
    /// invalidate — the owner's slot at its own begin/commit/abort and
    /// when it is doomed, the shared plain slot at any begin, every slot
    /// at fault-plan installs and memory growth.
    #[inline]
    pub fn lease_valid(&self, lease: &LineLease) -> bool {
        lease.epoch == self.epochs[lease.slot as usize]
    }

    /// Try to take a lease on the line containing `addr` for thread `t`,
    /// in write mode (`write = true`) or read mode. Returns
    /// [`LineLease::INVALID`] when the batched path cannot soundly serve
    /// accesses that the full path would account for:
    ///
    /// - a fault plan is installed (every access must draw from the PRNG);
    /// - in a transaction, a write lease requires `t` to already be the
    ///   line's speculative writer, and a read lease requires `t`'s reader
    ///   bit — i.e. a full-path access of the same mode must have settled
    ///   the footprint/budget accounting for this line first;
    /// - outside a transaction, no transaction may be active anywhere
    ///   (a leased access performs no dooming) and `t` must have no
    ///   undelivered doom (a leased access delivers no pending abort).
    ///
    /// Every call counts one `lease_misses` — by construction the caller
    /// just performed (or is about to perform) a full-path access that a
    /// valid lease would have absorbed.
    pub fn try_lease(&mut self, t: ThreadId, addr: usize, write: bool) -> LineLease {
        self.stats.lease_misses += 1;
        if self.injector.is_some() || addr >= self.words.len() {
            return LineLease::INVALID;
        }
        let line = addr >> self.line_shift;
        let grantable = if self.txs[t].active {
            self.dir_probes += 1;
            let st = self.dir[line];
            if write {
                st.writer as usize == t
            } else {
                // Reader bit set ⇒ line is in our read set; requester-wins
                // guarantees no remote writer can coexist with it.
                st.readers & (1u32 << t) != 0
            }
        } else {
            // Plain leases: no transaction may be active anywhere (a leased
            // access dooms nothing) and `t` itself must have no undelivered
            // doom (a leased access would skip its own abort delivery).
            // Other threads' pending dooms don't matter — they are
            // delivered at those threads' own next full-path access, and a
            // doom can only target an active transaction, which `t` does
            // not have, so none can arrive while the lease is held. This
            // keeps leases alive for a GIL-fallback holder while its
            // victims have not yet polled their dooms.
            self.active_txs == 0 && self.doomed[t].is_none()
        };
        if !grantable {
            return LineLease::INVALID;
        }
        if write {
            self.mark_dirty(addr);
        }
        let slot = if self.txs[t].active { t } else { self.txs.len() };
        LineLease {
            epoch: self.epochs[slot],
            line: line as u32,
            slot: slot as u8,
            owner: t as u8,
            write,
        }
    }

    /// Read a word through a valid read lease — no accounting beyond a
    /// batched counter. The caller must have checked [`Self::lease_valid`]
    /// and [`LineLease::covers`]; both are debug-asserted. Panics like
    /// [`Self::read`] on an `addr` past the (possibly cut-short) last line.
    #[inline]
    pub fn lease_read(&mut self, lease: &LineLease, addr: usize) -> W {
        self.lease_read_with(lease, addr, W::clone)
    }

    /// [`Self::lease_read`] applying `f` in place instead of cloning.
    #[inline]
    pub fn lease_read_with<R>(
        &mut self,
        lease: &LineLease,
        addr: usize,
        f: impl FnOnce(&W) -> R,
    ) -> R {
        debug_assert!(self.lease_valid(lease), "read through a stale lease");
        debug_assert!(!lease.write && lease.covers(self.line_of(addr)), "wrong lease for a read");
        f(self.tier1_read(addr))
    }

    /// The body of every tier-1 read: count it, hand back the word. The
    /// caller has proven a valid read lease on `addr`'s line.
    #[inline(always)]
    pub fn tier1_read(&mut self, addr: usize) -> &W {
        self.pending_reads += 1;
        let size = self.words.len();
        self.words
            .get(addr)
            .unwrap_or_else(|| out_of_bounds("read", addr, addr >> self.line_shift, size))
    }

    /// [`Self::lease_write_logged`] with an empty mask: every write inside
    /// a transaction logs.
    #[inline]
    pub fn lease_write(&mut self, lease: &LineLease, addr: usize, value: W) {
        self.lease_write_logged(lease, &mut 0, addr, value)
    }

    /// Write a word through a valid write lease, skipping the doom/fault/
    /// conflict/footprint bookkeeping; in a transaction, undo-log the old
    /// word unless its bit in `logged` (the holder's mask, kept beside the
    /// lease from [`Self::logged_on_grant`] on, set only here) is set — a
    /// clear bit costs a duplicate record. Duties and panic: [`Self::lease_read`].
    #[inline]
    pub fn lease_write_logged(&mut self, lease: &LineLease, logged: &mut u64, addr: usize, w: W) {
        debug_assert!(self.lease_valid(lease), "write through a stale lease");
        debug_assert!(lease.write && lease.covers(self.line_of(addr)), "wrong lease for a write");
        // slot == owner exactly for in-transaction leases (the plain slot
        // is one past the last thread index).
        let tx = (lease.slot == lease.owner).then_some(lease.owner as usize);
        self.tier1_write(tx, logged, addr, w);
    }

    /// The body of every tier-1 write: count it; in transaction `tx`,
    /// undo-log the old word unless its bit in `logged` is set (then set
    /// it); store, handing back the word replaced. The caller has proven a
    /// valid write lease on `addr`'s line and passes the mask kept beside it.
    #[inline(always)]
    pub fn tier1_write(&mut self, tx: Option<ThreadId>, logged: &mut u64, addr: usize, w: W) -> W {
        if addr >= self.words.len() {
            out_of_bounds("write", addr, addr >> self.line_shift, self.words.len());
        }
        self.pending_writes += 1;
        let bit = self.logged_bit(addr);
        if let Some(t) = tx.filter(|_| *logged & bit == 0) {
            *logged |= bit;
            self.txs[t].undo.push((addr, self.words[addr].clone()));
        }
        std::mem::replace(&mut self.words[addr], w)
    }

    /// The mask a write lease starts with: `addr`'s bit when the owner's
    /// newest undo record is `addr`'s (the granting write logged it), else 0.
    pub fn logged_on_grant(&self, lease: &LineLease, addr: usize) -> u64 {
        let in_tx = lease.write && lease.slot == lease.owner;
        let t = lease.owner as usize;
        let logged = in_tx && self.txs[t].undo.last().is_some_and(|r| r.0 == addr);
        u64::from(logged) * self.logged_bit(addr)
    }

    /// `addr`'s bit in a logged-words mask — its index in an aligned
    /// 64-word block, unique within a line — or none on a line wider than
    /// 64 words, which then logs every write.
    #[inline]
    fn logged_bit(&self, addr: usize) -> u64 {
        u64::from(self.line_shift <= 6) << (addr & 63)
    }

    /// Fold the batched leased-access counters into [`HtmStats`]. Called
    /// internally at every epoch bump; the executor also calls it at yield
    /// points and before reporting so `stats()` is exact there.
    pub fn flush_lease_stats(&mut self) {
        if self.pending_reads != 0 || self.pending_writes != 0 {
            self.stats.lease_hits += self.pending_reads + self.pending_writes;
            self.stats.reads += self.pending_reads;
            self.stats.writes += self.pending_writes;
            self.pending_reads = 0;
            self.pending_writes = 0;
        }
    }

    /// Take back the counts of leased accesses whose effects the caller
    /// has undone (or that a rollback already undid): they never happened.
    pub fn uncount_leased(&mut self, reads: u64, writes: u64) {
        self.flush_lease_stats();
        self.stats.reads -= reads;
        self.stats.writes -= writes;
        self.stats.lease_hits -= reads + writes;
    }

    // ---- internals ------------------------------------------------------

    /// Invalidate every lease stamped against `slot` (one counter
    /// increment) and settle the batched stats while they are still
    /// attributable.
    #[inline]
    fn bump_slot(&mut self, slot: usize) {
        self.epochs[slot] += 1;
        self.stats.epoch_bumps += 1;
        self.flush_lease_stats();
    }

    /// Invalidate every outstanding lease, whatever its slot — for events
    /// that change global ground rules (fault-plan installs, growth).
    fn bump_all_slots(&mut self) {
        for e in &mut self.epochs {
            *e += 1;
        }
        self.stats.epoch_bumps += self.epochs.len() as u64;
        self.flush_lease_stats();
    }

    /// Consult the fault injector for one transactional access by `t`.
    /// Draws happen only while `t` has a live transaction (one draw per
    /// access, before the directory probe), so two memories driven with the
    /// same operation sequence consume identical randomness. Returns the
    /// abort reason when the fault killed the transaction.
    fn inject_fault(&mut self, t: ThreadId) -> Option<AbortReason> {
        // Ordered so the no-plan common case is a single null test.
        self.injector.as_ref()?;
        if !self.txs[t].active {
            return None;
        }
        match self.injector.as_mut()?.decide()? {
            Fault::Spurious(cause) => {
                let reason = AbortReason::Spurious { cause };
                self.abort_self(t, reason, None);
                Some(reason)
            }
            Fault::ForceRestricted => {
                let reason = AbortReason::Restricted;
                self.abort_self(t, reason, None);
                Some(reason)
            }
            Fault::ShrinkBudgets => {
                // The interrupt handler's cache footprint evicted half the
                // speculative capacity; an already-larger footprint bursts
                // immediately (read set checked first, like the reference).
                let tx = &mut self.txs[t];
                tx.budgets = tx.budgets.halved();
                let reason = if tx.read_lines.len() > tx.budgets.read_lines {
                    AbortReason::ReadOverflow
                } else if tx.write_lines.len() > tx.budgets.write_lines {
                    AbortReason::WriteOverflow
                } else {
                    return None;
                };
                self.abort_self(t, reason, None);
                self.predictors[t].on_overflow();
                Some(reason)
            }
        }
    }

    #[inline]
    fn take_doom(&mut self, t: ThreadId) -> Option<AbortReason> {
        // The counter is one hot word; with no doom pending anywhere the
        // per-access check costs a load instead of an `Option::take`
        // load + store on the (much colder) doomed array.
        if self.pending_dooms == 0 {
            return None;
        }
        let reason = self.doomed[t].take();
        if reason.is_some() {
            self.pending_dooms -= 1;
        }
        reason
    }

    /// Doom `victim`'s active transaction on behalf of an access to
    /// `line`: roll it back eagerly and park the abort reason for the
    /// victim's next access or poll.
    fn doom(&mut self, victim: ThreadId, reason: AbortReason, line: usize) {
        // Only the victim's leases die: its ownership marks are about to
        // be released and its memory rolled back, but no other thread's
        // settled footprint changes.
        self.bump_slot(victim);
        self.rollback(victim);
        debug_assert!(self.doomed[victim].is_none(), "victim already doomed");
        self.doomed[victim] = Some(reason);
        self.pending_dooms += 1;
        self.stats.record_abort(reason);
        let cycle = self.now;
        self.emit(TraceEvent::Abort { thread: victim, cycle, reason, line: Some(line) });
    }

    /// Roll back and discard `t`'s transaction, recording `reason`.
    /// `line` is the faulting cache line where the abort has one
    /// (footprint overflows pass the line that burst the budget).
    fn abort_self(&mut self, t: ThreadId, reason: AbortReason, line: Option<usize>) {
        self.bump_slot(t);
        self.rollback(t);
        let _ = self.take_doom(t);
        self.stats.record_abort(reason);
        let cycle = self.now;
        self.emit(TraceEvent::Abort { thread: t, cycle, reason, line });
    }

    /// Replay `t`'s undo log in reverse and drop the transaction. The
    /// earliest record for an address replays last, so duplicates restore
    /// correctly.
    fn rollback(&mut self, t: ThreadId) {
        if !self.txs[t].active {
            return;
        }
        for (addr, word) in self.txs[t].undo.iter().rev() {
            self.words[*addr] = word.clone();
        }
        self.release_tx(t);
    }

    /// Deactivate `t`'s transaction: clear its directory ownership and
    /// reset its buffers *keeping their capacity* for the next begin.
    fn release_tx(&mut self, t: ThreadId) {
        debug_assert!(self.txs[t].active, "release without transaction");
        self.txs[t].active = false;
        let keep = !(1u32 << t);
        let mut read_lines = std::mem::take(&mut self.txs[t].read_lines);
        for &line in &read_lines {
            self.dir[line].readers &= keep;
        }
        read_lines.clear();
        self.txs[t].read_lines = read_lines;
        let mut write_lines = std::mem::take(&mut self.txs[t].write_lines);
        for &line in &write_lines {
            debug_assert_eq!(self.dir[line].writer as usize, t, "foreign writer in write set");
            self.dir[line].writer = NO_WRITER;
        }
        write_lines.clear();
        self.txs[t].write_lines = write_lines;
        self.undo_pushes += self.txs[t].undo.len() as u64;
        self.txs[t].undo.clear();
        self.active_txs -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::abort_codes;

    fn mem() -> TxMemory<u64> {
        // 1024 words, 8-word (64-byte) lines, 4 threads.
        TxMemory::new(1024, 8, 4, 0)
    }

    fn big_budgets() -> Budgets {
        Budgets { read_lines: 1 << 20, write_lines: 1 << 20 }
    }

    #[test]
    fn plain_read_write_roundtrip() {
        let mut m = mem();
        m.write(0, 17, 99).unwrap();
        assert_eq!(m.read(0, 17).unwrap(), 99);
        assert_eq!(m.read(1, 17).unwrap(), 99);
    }

    #[test]
    fn commit_makes_writes_durable() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 5, 1).unwrap();
        m.write(0, 6, 2).unwrap();
        m.commit(0).unwrap();
        assert_eq!(m.read(1, 5).unwrap(), 1);
        assert_eq!(m.read(1, 6).unwrap(), 2);
        assert_eq!(m.stats().commits, 1);
    }

    #[test]
    fn tabort_rolls_back() {
        let mut m = mem();
        m.write(0, 5, 42).unwrap();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 5, 1).unwrap();
        m.write(0, 5, 2).unwrap();
        let r = m.tabort(0, abort_codes::GIL_LOCKED);
        assert_eq!(r, AbortReason::Explicit(abort_codes::GIL_LOCKED));
        assert!(!m.in_tx(0));
        assert_eq!(m.read(1, 5).unwrap(), 42, "original value restored");
    }

    /// FORTH-style constrained budgets (the `MachineProfile::constrained`
    /// geometry): exactly `read_lines` distinct lines must fit, one more
    /// must burst with `ReadOverflow`.
    #[test]
    fn read_capacity_exact_fit_and_one_over() {
        let budgets = Budgets { read_lines: 8, write_lines: 4 };
        let mut m = mem();
        m.begin(0, budgets).unwrap();
        for line in 0..8 {
            m.read(0, line * 8).unwrap();
        }
        assert_eq!(m.footprint(0), (8, 0), "exactly at the bound: no abort");
        assert_eq!(m.read(0, 8 * 8), Err(AbortReason::ReadOverflow), "one over bursts");
        assert!(!m.in_tx(0), "overflow aborts the transaction");
        assert_eq!(m.stats().overflow_read, 1);
    }

    /// Same at the (smaller) write-set bound: `write_lines` distinct lines
    /// fit, the next one aborts with `WriteOverflow`.
    #[test]
    fn write_capacity_exact_fit_and_one_over() {
        let budgets = Budgets { read_lines: 8, write_lines: 4 };
        let mut m = mem();
        m.begin(0, budgets).unwrap();
        for line in 0..4 {
            m.write(0, line * 8, 1).unwrap();
        }
        assert_eq!(m.footprint(0), (0, 4), "exactly at the bound: no abort");
        assert_eq!(m.write(0, 4 * 8, 1), Err(AbortReason::WriteOverflow), "one over bursts");
        assert!(!m.in_tx(0), "overflow aborts the transaction");
        assert_eq!(m.stats().overflow_write, 1);
        // The speculative writes rolled back with the abort.
        for line in 0..5 {
            assert_eq!(m.read(1, line * 8).unwrap(), 0);
        }
    }

    /// The LazyGuarded lock monitor reads the word with full accounting
    /// but occupies no read-set capacity — a transaction already at its
    /// read bound can still arm it.
    #[test]
    fn lock_monitor_consumes_no_read_capacity() {
        let mut m = mem();
        m.write(0, 800, 1).unwrap(); // "GIL" word, line 100
        m.begin(0, Budgets { read_lines: 1, write_lines: 1 }).unwrap();
        m.read(0, 0).unwrap(); // read set now full
        let reads_before = m.stats().reads;
        assert_eq!(m.arm_lock_monitor(0, 800).unwrap(), 1, "monitor returns the word");
        assert_eq!(m.footprint(0), (1, 0), "no read-set growth");
        assert_eq!(m.stats().reads, reads_before + 1, "still one counted access");
        m.commit(0).unwrap();
    }

    /// Arming the monitor is still a coherence read: it dooms a remote
    /// speculative writer of the monitored line (requester wins).
    #[test]
    fn lock_monitor_dooms_remote_speculative_writer() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 800, 7).unwrap();
        m.begin(1, big_budgets()).unwrap();
        assert_eq!(m.arm_lock_monitor(1, 800).unwrap(), 0, "committed value, not speculative");
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictWrite { with: 1, .. })));
        m.commit(1).unwrap();
    }

    /// The acquisition half of the guard: a non-transactional acquirer
    /// dooms every active transaction, ascending thread order, with the
    /// same `ConflictRead` an eager subscription population would see.
    #[test]
    fn doom_all_active_kills_every_transaction_in_order() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        m.write(0, 5, 9).unwrap();
        let nontx_before = m.stats().nontx_dooms;
        m.doom_all_active(2, 800);
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictRead { with: 2, line: 100 })));
        assert!(matches!(m.poll_doomed(1), Some(AbortReason::ConflictRead { with: 2, line: 100 })));
        assert_eq!(m.active_tx_count(), 0);
        assert_eq!(m.read(2, 5).unwrap(), 0, "speculative write rolled back");
        assert_eq!(m.stats().nontx_dooms, nontx_before + 1, "one doomer access, one count");
        // Idempotent on an empty population.
        m.doom_all_active(2, 800);
        assert_eq!(m.stats().nontx_dooms, nontx_before + 1);
    }

    #[test]
    fn write_write_conflict_dooms_victim() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        m.write(0, 100, 7).unwrap();
        // Thread 1 writes the same line: requester (1) wins, 0 is doomed.
        m.write(1, 101, 8).unwrap();
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictWrite { with: 1, .. })));
        assert!(!m.in_tx(0), "victim rolled back eagerly");
        // Thread 0's speculative write is gone; thread 1's is visible to 1.
        assert_eq!(m.read(1, 100).unwrap(), 0);
        assert_eq!(m.read(1, 101).unwrap(), 8);
        m.commit(1).unwrap();
    }

    #[test]
    fn read_write_conflict_dooms_reader_on_remote_write() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 200).unwrap();
        m.begin(1, big_budgets()).unwrap();
        m.write(1, 200, 5).unwrap(); // write hits 0's read set
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictRead { with: 1, .. })));
        m.commit(1).unwrap();
        assert_eq!(m.read(2, 200).unwrap(), 5);
    }

    #[test]
    fn read_read_sharing_is_fine() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        let _ = m.read(0, 300).unwrap();
        let _ = m.read(1, 300).unwrap();
        m.commit(0).unwrap();
        m.commit(1).unwrap();
        assert_eq!(m.stats().total_aborts(), 0);
    }

    #[test]
    fn nontx_write_dooms_transactions_gil_subscription() {
        // This is exactly how the GIL fallback stays safe: every
        // transaction reads the GIL word at begin; the GIL holder's
        // non-transactional write dooms them all.
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.begin(1, big_budgets()).unwrap();
        let gil_addr = 0;
        let _ = m.read(0, gil_addr).unwrap();
        let _ = m.read(1, gil_addr).unwrap();
        m.write(2, gil_addr, 1).unwrap(); // thread 2 acquires the "GIL"
        assert!(m.poll_doomed(0).is_some());
        assert!(m.poll_doomed(1).is_some());
        assert_eq!(m.stats().nontx_dooms, 1);
    }

    #[test]
    fn write_overflow_is_persistent_and_rolls_back() {
        let mut m = mem();
        m.write(0, 0, 111).unwrap();
        m.begin(0, Budgets { read_lines: 100, write_lines: 2 }).unwrap();
        m.write(0, 0, 1).unwrap(); // line 0
        m.write(0, 8, 2).unwrap(); // line 1
        let err = m.write(0, 16, 3).unwrap_err(); // line 2 > budget
        assert_eq!(err, AbortReason::WriteOverflow);
        assert!(err.is_persistent());
        assert!(!m.in_tx(0));
        assert_eq!(*m.peek(0), 111, "undo restored first line");
        assert_eq!(*m.peek(8), 0);
        assert_eq!(*m.peek(16), 0, "overflowing write never applied");
    }

    #[test]
    fn read_overflow_aborts() {
        let mut m = mem();
        m.begin(0, Budgets { read_lines: 2, write_lines: 100 }).unwrap();
        let _ = m.read(0, 0).unwrap();
        let _ = m.read(0, 8).unwrap();
        let err = m.read(0, 16).unwrap_err();
        assert_eq!(err, AbortReason::ReadOverflow);
    }

    #[test]
    fn same_line_accesses_do_not_grow_footprint() {
        let mut m = mem();
        m.begin(0, Budgets { read_lines: 1, write_lines: 1 }).unwrap();
        for i in 0..8 {
            let _ = m.read(0, i).unwrap();
            m.write(0, i, i as u64).unwrap();
        }
        assert_eq!(m.footprint(0), (1, 1));
        m.commit(0).unwrap();
    }

    #[test]
    fn doomed_transaction_errors_on_next_access() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 50, 1).unwrap();
        m.write(1, 50, 2).unwrap(); // dooms 0
        let err = m.read(0, 60).unwrap_err();
        assert!(err.is_conflict());
        // After consuming the abort, thread 0 operates plainly again.
        assert_eq!(m.read(0, 50).unwrap(), 2);
    }

    #[test]
    fn commit_of_doomed_transaction_fails() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 50, 1).unwrap();
        m.write(1, 50, 2).unwrap();
        assert!(m.commit(0).is_err());
        assert_eq!(m.stats().commits, 0);
    }

    #[test]
    fn undo_restores_multi_write_history_in_order() {
        let mut m = mem();
        m.write(0, 9, 10).unwrap();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 9, 11).unwrap();
        m.write(0, 9, 12).unwrap();
        m.write(0, 9, 13).unwrap();
        m.tabort(0, 1);
        assert_eq!(*m.peek(9), 10);
    }

    #[test]
    fn grow_extends_memory() {
        let mut m = mem();
        let old = m.size();
        m.grow(512, 0);
        assert_eq!(m.size(), old + 512);
        m.write(0, old + 511, 5).unwrap();
        assert_eq!(m.read(0, old + 511).unwrap(), 5);
        assert_eq!(m.words.capacity(), old + 512, "growth reserves exactly, never doubles");
    }

    #[test]
    fn budgets_halve_with_floor() {
        let b = Budgets { read_lines: 9, write_lines: 1 };
        let h = b.halved();
        assert_eq!(h.read_lines, 4);
        assert_eq!(h.write_lines, 1);
    }

    #[test]
    fn eager_predictor_aborts_at_begin() {
        let mut m = mem();
        let mut p = OverflowPredictor::intel(10, 1);
        for _ in 0..100 {
            p.on_overflow();
        }
        m.set_predictor(0, p);
        // With confidence saturated the very first begin must be killed.
        let err = m.begin(0, big_budgets()).unwrap_err();
        assert_eq!(err, AbortReason::EagerPredicted);
        assert!(!m.in_tx(0));
        assert_eq!(m.stats().eager_predicted, 1);
    }

    #[test]
    fn trace_records_lifecycle_in_order() {
        let mut m = mem();
        m.set_trace(64);

        m.set_now(10);
        m.begin(0, big_budgets()).unwrap();
        m.set_now(20);
        m.write(0, 5, 1).unwrap();
        m.commit(0).unwrap();

        m.set_now(30);
        m.begin(1, big_budgets()).unwrap();
        m.write(1, 5, 2).unwrap();
        m.set_now(40);
        m.write(2, 5, 3).unwrap(); // non-tx write dooms thread 1

        let events: Vec<TraceEvent> = m.trace().unwrap().events().copied().collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], TraceEvent::Begin { thread: 0, cycle: 10 });
        assert_eq!(
            events[1],
            TraceEvent::Commit { thread: 0, cycle: 20, read_lines: 0, write_lines: 1 }
        );
        assert_eq!(events[2], TraceEvent::Begin { thread: 1, cycle: 30 });
        let TraceEvent::Abort { thread, cycle, reason, line } = events[3] else {
            panic!("expected abort, got {:?}", events[3]);
        };
        assert_eq!((thread, cycle), (1, 40));
        assert_eq!(reason, AbortReason::ConflictWrite { with: 2, line: 0 });
        assert_eq!(line, Some(0));
        assert_eq!(reason.faulting_line(), Some(0));
    }

    #[test]
    fn trace_overflow_carries_bursting_line() {
        let mut m = mem();
        m.set_trace(8);
        m.begin(0, Budgets { read_lines: 100, write_lines: 1 }).unwrap();
        m.write(0, 0, 1).unwrap();
        let err = m.write(0, 8, 2).unwrap_err(); // line 1 bursts the budget
        assert_eq!(err, AbortReason::WriteOverflow);
        let Some(TraceEvent::Abort { reason, line, .. }) =
            m.trace().unwrap().events().last().copied()
        else {
            panic!("expected trailing abort event");
        };
        assert_eq!(reason, AbortReason::WriteOverflow);
        assert_eq!(line, Some(1));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let m = mem();
        assert!(m.trace().is_none());
    }

    #[test]
    fn restricted_abort() {
        let mut m = mem();
        m.write(0, 3, 30).unwrap();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 3, 31).unwrap();
        let r = m.abort_restricted(0);
        assert_eq!(r, AbortReason::Restricted);
        assert!(r.is_persistent());
        assert_eq!(*m.peek(3), 30);
    }

    #[test]
    fn pending_doom_survives_quiescent_memory() {
        // After thread 1's non-transactional write dooms thread 0 there are
        // zero active transactions, but thread 0's abort is still pending —
        // the fast path must not swallow it.
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 50, 1).unwrap();
        m.write(1, 50, 2).unwrap(); // dooms 0; no active transactions left
        assert_eq!(m.active_tx_count(), 0);
        let err = m.read(0, 60).unwrap_err();
        assert!(err.is_conflict());
        assert_eq!(m.stats().nontx_dooms, 1);
    }

    /// Tier 0 is open only while nobody has an abort to collect: a doom
    /// closes it until the *victim* takes delivery, whoever else polls.
    #[test]
    fn quiescent_is_false_from_a_doom_until_the_victim_polls_it() {
        let mut m = mem();
        assert!(m.quiescent());
        m.begin(0, big_budgets()).unwrap();
        assert!(!m.quiescent(), "an active transaction");
        m.write(0, 50, 1).unwrap();
        m.write(1, 50, 2).unwrap(); // dooms 0: nothing active, one doom parked
        assert_eq!(m.active_tx_count(), 0);
        assert!(!m.quiescent(), "a parked doom");
        assert_eq!(m.poll_doomed(1), None);
        assert_eq!(m.read(1, 60), Ok(0));
        assert!(!m.quiescent(), "bystanders' polls and accesses deliver nothing");
        assert!(m.poll_doomed(0).is_some());
        assert!(m.quiescent(), "delivered");
        let before = m.stats().clone();
        m.write(0, 50, 3).unwrap();
        assert_eq!(m.read(0, 50), Ok(3));
        let after = m.stats();
        assert_eq!((after.reads, after.writes), (before.reads + 1, before.writes + 1));
        assert_eq!(
            (after.lease_hits, after.lease_misses),
            (before.lease_hits, before.lease_misses)
        );
    }

    #[test]
    fn plain_accesses_take_fast_path_with_full_stats() {
        // With no transactions anywhere, reads and writes are plain stores
        // but the access counters still advance and no abort machinery
        // fires.
        let mut m = mem();
        for i in 0..10 {
            m.write(0, i, i as u64).unwrap();
        }
        for i in 0..10 {
            assert_eq!(m.read(1, i).unwrap(), i as u64);
        }
        let s = m.stats();
        assert_eq!((s.reads, s.writes), (10, 10));
        assert_eq!(s.begins, 0);
        assert_eq!(s.total_aborts(), 0);
        assert_eq!(s.nontx_dooms, 0);
    }

    #[test]
    fn commit_trace_counts_come_from_footprint_counters() {
        // Read lines 0,1,2; write lines 1,4 (line 1 in both sets). The
        // Commit event must carry the line-list lengths, deduplicated.
        let mut m = mem();
        m.set_trace(8);
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 0).unwrap();
        let _ = m.read(0, 8).unwrap();
        let _ = m.read(0, 16).unwrap();
        m.write(0, 9, 1).unwrap(); // line 1, already read
        m.write(0, 33, 2).unwrap(); // line 4
        m.write(0, 10, 3).unwrap(); // line 1 again: no growth
        assert_eq!(m.footprint(0), (3, 2));
        m.commit(0).unwrap();
        assert_eq!(
            m.trace().unwrap().events().last(),
            Some(&TraceEvent::Commit { thread: 0, cycle: 0, read_lines: 3, write_lines: 2 })
        );
    }

    #[test]
    fn doomed_victim_records_its_line_again_after_re_begin() {
        // Thread 0 reads line 6 twice, gets doomed by thread 1, then starts
        // a fresh transaction: the rollback released the line, so the new
        // transaction records it again.
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 48).unwrap();
        let _ = m.read(0, 49).unwrap(); // line 6 again: no growth
        m.begin(1, big_budgets()).unwrap();
        m.write(1, 48, 9).unwrap(); // dooms 0
        assert!(m.poll_doomed(0).is_some());
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 48).unwrap();
        assert_eq!(m.footprint(0), (1, 0), "line re-recorded after re-begin");
        // That read hit thread 1's speculative write of line 6, so
        // requester-wins must have doomed 1 in turn.
        assert!(matches!(m.poll_doomed(1), Some(AbortReason::ConflictWrite { with: 0, .. })));
    }

    #[test]
    fn buffers_are_retained_across_transactions() {
        // Steady-state transactions reuse their line-list and undo-log
        // capacity; this just exercises many begin/access/commit cycles to
        // shake out release bookkeeping (directory bits must all clear).
        let mut m = mem();
        for round in 0..50u64 {
            m.begin(0, big_budgets()).unwrap();
            for i in 0..32 {
                let _ = m.read(0, i * 8).unwrap();
                m.write(0, i * 8, round).unwrap();
            }
            assert_eq!(m.footprint(0), (32, 32));
            m.commit(0).unwrap();
        }
        assert_eq!(m.stats().commits, 50);
        // After the last commit another thread can write every line freely.
        for i in 0..32 {
            m.write(1, i * 8, 0).unwrap();
        }
        assert_eq!(m.stats().total_aborts(), 0);
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the access must panic");
        payload.downcast_ref::<String>().expect("a formatted panic").clone()
    }

    /// 1020 words on 8-word lines: line 127 is cut short after word 1019.
    /// Thread 0 holds both leases on it; `busy` keeps a transaction open on
    /// thread 1 so thread 0's full-path accesses go through the tail.
    fn cut_short(busy: bool) -> (TxMemory<u64>, LineLease, LineLease) {
        let mut m: TxMemory<u64> = TxMemory::new(1020, 8, 2, 0);
        let leases = (m.try_lease(0, 1016, false), m.try_lease(0, 1016, true));
        if busy {
            m.begin(1, big_budgets()).unwrap();
        }
        assert_eq!(m.quiescent(), !busy);
        (m, leases.0, leases.1)
    }

    #[test]
    fn read_out_of_bounds_panics_with_context() {
        let far = "read out of bounds: addr 99999 (line 12499) >= memory size 1020";
        let cut = "read out of bounds: addr 1021 (line 127) >= memory size 1020";
        for busy in [false, true] {
            let (mut m, ..) = cut_short(busy);
            assert!(panic_message(|| _ = m.read(0, 99_999)).contains(far), "busy={busy}");
            let (mut m, ..) = cut_short(busy);
            assert!(panic_message(|| _ = m.read(0, 1021)).contains(cut), "busy={busy}");
        }
        let (mut m, rl, _) = cut_short(false);
        assert_eq!(m.lease_read(&rl, 1019), 0, "the line's last real word is served");
        assert!(panic_message(|| _ = m.lease_read(&rl, 1021)).contains(cut));
    }

    #[test]
    fn write_out_of_bounds_panics_with_context() {
        let far = "write out of bounds: addr 4096 (line 512) >= memory size 1020";
        let cut = "write out of bounds: addr 1020 (line 127) >= memory size 1020";
        for busy in [false, true] {
            let (mut m, ..) = cut_short(busy);
            assert!(panic_message(|| _ = m.write(0, 4096, 1)).contains(far), "busy={busy}");
            let (mut m, ..) = cut_short(busy);
            assert!(panic_message(|| _ = m.write(0, 1020, 1)).contains(cut), "busy={busy}");
        }
        let (mut m, _, wl) = cut_short(false);
        m.lease_write(&wl, 1019, 7);
        assert!(panic_message(|| m.lease_write(&wl, 1020, 7)).contains(cut));
        assert_eq!(*m.peek(1019), 7);
    }

    #[test]
    fn read_with_probes_in_place_and_counts_once() {
        let mut m = mem();
        m.write(0, 7, 41).unwrap();
        let reads_before = m.stats().reads;
        let doubled = m.read_with(1, 7, |w| w * 2).unwrap();
        assert_eq!(doubled, 82);
        assert_eq!(m.stats().reads, reads_before + 1);
    }

    #[test]
    fn plain_lease_round_trip_matches_full_path_stats() {
        let mut m = mem();
        let rl = m.try_lease(0, 10, false);
        let wl = m.try_lease(0, 10, true);
        assert!(m.lease_valid(&rl) && m.lease_valid(&wl));
        assert_eq!((rl.line, wl.line), (1, 1), "a lease names the line of the address");
        m.lease_write(&wl, 10, 5);
        assert_eq!(m.lease_read(&rl, 10), 5);
        // Batched counters are invisible until flushed...
        assert_eq!((m.stats().reads, m.stats().writes), (0, 0));
        m.flush_lease_stats();
        // ...then exactly match what the per-word path would have counted.
        let s = m.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!(s.lease_hits, 2);
        assert_eq!(s.lease_misses, 2, "each try_lease counts one miss");
    }

    #[test]
    fn plain_lease_denied_while_any_transaction_is_active() {
        let mut m = mem();
        m.begin(1, big_budgets()).unwrap();
        let rl = m.try_lease(0, 10, false);
        let wl = m.try_lease(0, 10, true);
        assert!(!m.lease_valid(&rl));
        assert!(!m.lease_valid(&wl));
        m.commit(1).unwrap();
        let rl = m.try_lease(0, 10, false);
        assert!(m.lease_valid(&rl));
    }

    #[test]
    fn in_tx_lease_requires_prior_same_mode_footprint() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        // Nothing touched yet: both modes denied.
        let rl = m.try_lease(0, 10, false);
        let wl = m.try_lease(0, 10, true);
        assert!(!m.lease_valid(&rl));
        assert!(!m.lease_valid(&wl));
        // A full-path read settles the read footprint only.
        let _ = m.read(0, 10).unwrap();
        let rl = m.try_lease(0, 10, false);
        let wl = m.try_lease(0, 10, true);
        assert!(m.lease_valid(&rl));
        assert!(!m.lease_valid(&wl), "read set does not cover writes");
        // A full-path write settles the write footprint.
        m.write(0, 10, 1).unwrap();
        let wl = m.try_lease(0, 10, true);
        assert!(m.lease_valid(&wl));
        m.commit(0).unwrap();
    }

    #[test]
    fn any_begin_invalidates_plain_leases() {
        let mut m = mem();
        let lease = m.try_lease(0, 10, false);
        assert!(m.lease_valid(&lease));
        m.begin(1, big_budgets()).unwrap();
        assert!(!m.lease_valid(&lease), "any begin bumps the plain slot");
        m.commit(1).unwrap();
        assert!(!m.lease_valid(&lease));
        assert!(m.stats().epoch_bumps >= 2);
    }

    #[test]
    fn remote_tx_boundaries_keep_in_tx_leases_valid() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 10).unwrap();
        m.write(0, 10, 1).unwrap();
        let rl = m.try_lease(0, 10, false);
        let wl = m.try_lease(0, 10, true);
        assert!(m.lease_valid(&rl) && m.lease_valid(&wl));
        // A remote transaction beginning and committing on an unrelated
        // line cannot take ownership away from thread 0 without dooming
        // it first, so thread 0's leases survive both boundaries.
        m.begin(1, big_budgets()).unwrap();
        assert!(m.lease_valid(&rl) && m.lease_valid(&wl));
        m.write(1, 500, 9).unwrap();
        m.commit(1).unwrap();
        assert!(m.lease_valid(&rl) && m.lease_valid(&wl));
        // Thread 0's own commit kills them.
        m.commit(0).unwrap();
        assert!(!m.lease_valid(&rl) && !m.lease_valid(&wl));
    }

    #[test]
    fn doom_invalidates_only_the_victims_leases() {
        let mut m = mem();
        m.begin(0, big_budgets()).unwrap();
        let _ = m.read(0, 10).unwrap();
        let rl0 = m.try_lease(0, 10, false);
        m.begin(1, big_budgets()).unwrap();
        let _ = m.read(1, 500).unwrap();
        let rl1 = m.try_lease(1, 500, false);
        assert!(m.lease_valid(&rl0) && m.lease_valid(&rl1));
        // Thread 1 writes thread 0's line: requester wins, thread 0 is
        // doomed and its lease dies; thread 1's own lease survives.
        m.write(1, 10, 5).unwrap();
        assert!(!m.lease_valid(&rl0), "doomed victim's slot is bumped");
        assert!(m.lease_valid(&rl1), "the requester's leases survive");
        assert!(m.poll_doomed(0).is_some());
        m.commit(1).unwrap();
    }

    #[test]
    fn leased_writes_roll_back_like_full_path_writes() {
        let mut m = mem();
        for i in 8..16 {
            m.write(0, i, 100 + i as u64).unwrap();
        }
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 10, 1).unwrap(); // full path claims the line
        let wl = m.try_lease(0, 10, true);
        assert!(m.lease_valid(&wl));
        m.lease_write(&wl, 8, 7);
        m.lease_write(&wl, 15, 7);
        m.tabort(0, 1);
        for i in 8..16 {
            assert_eq!(*m.peek(i), 100 + i as u64, "word {i} restored after abort");
        }
    }

    #[test]
    fn a_regranted_lease_starts_a_fresh_mask_and_the_oldest_record_wins() {
        let mut m = mem();
        m.poke(8, 70);
        m.poke(9, 71);
        m.begin(0, big_budgets()).unwrap();
        m.write(0, 8, 1).unwrap();
        let wl1 = m.try_lease(0, 8, true);
        let mut logged = m.logged_on_grant(&wl1, 8);
        assert_eq!(logged, 1 << 8, "the granting write logged its word");
        m.lease_write_logged(&wl1, &mut logged, 9, 2);
        // A no-op fault-plan install bumps every slot, killing wl1
        // without disturbing thread 0's transaction.
        m.set_fault_plan(FaultPlan::spurious(7, 0.0));
        assert!(!m.lease_valid(&wl1));
        let wl2 = m.try_lease(0, 8, true); // still the writer: re-granted
        assert!(m.lease_valid(&wl2));
        // Word 8's record is not the newest, so the grant claims nothing:
        // word 9 is logged a second time, then once only.
        let mut logged = m.logged_on_grant(&wl2, 8);
        assert_eq!(logged, 0);
        m.lease_write_logged(&wl2, &mut logged, 9, 3);
        m.lease_write_logged(&wl2, &mut logged, 9, 4);
        assert_eq!(m.txs[0].undo.len(), 3);
        m.tabort(0, 1);
        assert_eq!(*m.peek(8), 70);
        assert_eq!(*m.peek(9), 71, "oldest undo record wins on rollback");
        assert_eq!(m.undo_pushes(), 3);
    }

    /// A one-way lease cache kept the way `Vm::write_word` keeps its ways:
    /// a hit writes through the lease and its mask; a miss takes the full
    /// path, then a fresh lease and the mask its grant starts with.
    fn write_through(m: &mut TxMemory<u64>, way: &mut (LineLease, u64), addr: usize, v: u64) {
        let (lease, logged) = way;
        if m.lease_valid(lease) && lease.covers(m.line_of(addr)) {
            m.lease_write_logged(lease, logged, addr, v);
        } else {
            m.write(0, addr, v).unwrap();
            *lease = m.try_lease(0, addr, true);
            *logged = m.logged_on_grant(lease, addr);
        }
    }

    #[test]
    fn writes_to_one_word_through_one_lease_log_once() {
        let mut m = mem();
        m.poke(9, 70);
        m.begin(0, big_budgets()).unwrap();
        let mut way = (LineLease::INVALID, 0);
        for v in 0..10 {
            write_through(&mut m, &mut way, 9, v);
        }
        assert_eq!(m.txs[0].undo.len(), 1, "the full-path write's record, no other");
        for v in 0..10 {
            write_through(&mut m, &mut way, 10, v);
        }
        assert_eq!(m.txs[0].undo.len(), 2);
        m.tabort(0, 1);
        assert_eq!((*m.peek(9), *m.peek(10)), (70, 0));
        assert_eq!(m.undo_pushes(), 2);
    }

    /// Lines 1 and 9 are 64 words apart: word `8k + i` of each has the
    /// same mask bit, so a bit carried over from one line to the other
    /// would skip a record the other needs.
    #[test]
    fn a_way_regranted_to_another_line_and_back_logs_both() {
        let mut m = mem();
        for a in (8..16).chain(72..80) {
            m.poke(a, 100 + a as u64);
        }
        m.begin(0, big_budgets()).unwrap();
        let mut way = (LineLease::INVALID, 0);
        write_through(&mut m, &mut way, 9, 1); // miss: full path, grant
        write_through(&mut m, &mut way, 10, 1); // leased, logged
        write_through(&mut m, &mut way, 74, 1); // miss: line 9 takes the way
        assert_eq!(way.1, 1 << 10, "the grant's own word only");
        write_through(&mut m, &mut way, 73, 1); // leased: bit 9 is line 1's
        write_through(&mut m, &mut way, 10, 2); // miss: back to line 1
        write_through(&mut m, &mut way, 9, 2); // leased, logged again
        write_through(&mut m, &mut way, 9, 3);
        let logged: Vec<usize> = m.txs[0].undo.iter().map(|r| r.0).collect();
        assert_eq!(logged, [9, 10, 74, 73, 10, 9]);
        m.tabort(0, 1);
        for a in (8..16).chain(72..80) {
            assert_eq!(*m.peek(a), 100 + a as u64, "word {a} restored");
        }
    }

    #[test]
    fn a_doom_or_a_self_abort_mid_transaction_leaves_no_stale_mask() {
        let mut m = mem();
        m.poke(9, 70);
        m.poke(10, 71);
        let mut way = (LineLease::INVALID, 0);
        m.begin(0, big_budgets()).unwrap();
        write_through(&mut m, &mut way, 9, 1);
        write_through(&mut m, &mut way, 10, 1);
        m.write(1, 12, 5).unwrap(); // a plain write dooms thread 0
        assert_eq!((*m.peek(9), *m.peek(10)), (70, 71), "rolled back at the doom");
        assert!(m.poll_doomed(0).is_some());
        m.begin(0, big_budgets()).unwrap();
        write_through(&mut m, &mut way, 10, 2); // the dead lease misses
        write_through(&mut m, &mut way, 9, 2); // word 9 logs anew
        assert_eq!(m.txs[0].undo.len(), 2);
        m.abort_spurious(0, SpuriousCause::TimerInterrupt);
        assert_eq!((*m.peek(9), *m.peek(10), *m.peek(12)), (70, 71, 5));
        m.begin(0, big_budgets()).unwrap();
        write_through(&mut m, &mut way, 9, 3);
        write_through(&mut m, &mut way, 10, 3);
        assert_eq!(m.txs[0].undo.len(), 2, "after a self-abort too");
        m.tabort(0, 1);
        assert_eq!((*m.peek(9), *m.peek(10)), (70, 71));
    }

    /// Every word of line 1 written three times through one way: one
    /// record a word while a line fits the mask, one a write once it does
    /// not, and the pre-transaction image back after the abort either way.
    #[test]
    fn rollback_restores_the_image_at_every_line_width() {
        for line_words in [8, 32, 128] {
            let mut m: TxMemory<u64> = TxMemory::new(1024, line_words, 2, 0);
            for a in 0..1024 {
                m.poke(a, a as u64);
            }
            m.begin(0, big_budgets()).unwrap();
            let mut way = (LineLease::INVALID, 0);
            for round in 0..3 {
                for i in 0..line_words {
                    let a = line_words + (i * 5) % line_words;
                    write_through(&mut m, &mut way, a, 5000 + round);
                }
            }
            let records = if line_words <= 64 { line_words } else { 3 * line_words };
            assert_eq!(m.txs[0].undo.len(), records, "{line_words}-word lines");
            m.tabort(0, 1);
            for a in 0..1024 {
                assert_eq!(*m.peek(a), a as u64, "word {a} at {line_words}-word lines");
            }
        }
    }

    #[test]
    fn dir_probes_count_every_full_path_access_and_grant() {
        let mut m = mem();
        m.read(0, 5).unwrap();
        m.try_lease(0, 5, false);
        assert_eq!(m.dir_probes(), 0, "a quiescent memory consults no directory");
        m.begin(0, big_budgets()).unwrap();
        m.read(0, 5).unwrap();
        m.read(0, 6).unwrap(); // the same line probes again
        m.write(0, 6, 1).unwrap();
        m.write(0, 7, 1).unwrap();
        m.try_lease(0, 7, true);
        assert_eq!(m.dir_probes(), 5);
        m.commit(0).unwrap();
    }

    #[test]
    fn fault_plan_denies_and_invalidates_leases() {
        let mut m = mem();
        let lease = m.try_lease(0, 10, false);
        assert!(m.lease_valid(&lease));
        m.set_fault_plan(FaultPlan::spurious(7, 1.0));
        assert!(!m.lease_valid(&lease), "plan install bumps the epoch");
        let denied = m.try_lease(0, 10, false);
        assert!(!m.lease_valid(&denied), "no leases under injection");
    }

    #[test]
    fn leased_stats_flush_automatically_at_epoch_bumps() {
        let mut m = mem();
        let rl = m.try_lease(0, 10, false);
        let _ = m.lease_read(&rl, 10);
        let _ = m.lease_read(&rl, 11);
        m.begin(1, big_budgets()).unwrap(); // bump flushes the batch
        assert_eq!(m.stats().reads, 2);
        assert_eq!(m.stats().lease_hits, 2);
        m.commit(1).unwrap();
    }

    #[test]
    fn out_of_bounds_lease_request_is_denied() {
        let mut m = mem();
        let lease = m.try_lease(0, 99_999, false);
        assert!(!m.lease_valid(&lease));
    }

    /// Words written through every path that can leave a non-`init` value
    /// behind, in pages the test never names to the bitmap itself.
    fn dirtied() -> TxMemory<u64> {
        let mut m: TxMemory<u64> = TxMemory::new(4096, 8, 3, 0);
        m.poke(3, 1);
        m.materialize(600, 2);
        m.write(0, 1100, 3).unwrap();
        let plain = m.try_lease(0, 1700, true);
        m.lease_write(&plain, 1701, 4);
        m.grow(1000, 0);
        m.write(0, 5000, 5).unwrap();
        // Torn down mid-transaction: speculative words in place, directory
        // entries owned, an undo log pending.
        m.begin(1, big_budgets()).unwrap();
        m.write(1, 2600, 6).unwrap();
        let tx = m.try_lease(1, 2600, true);
        m.lease_write(&tx, 2601, 7);
        let _ = m.read(1, 3300).unwrap();
        // Beside it a victim that has not polled its doom yet.
        m.begin(2, big_budgets()).unwrap();
        let _ = m.read(2, 4000).unwrap();
        m.write(2, 3900, 8).unwrap();
        m.write(1, 3900, 9).unwrap();
        assert_eq!(m.active_tx_count(), 1, "thread 2 doomed, thread 1 still open");
        m
    }

    /// An open transaction reading and writing lines near both ends.
    fn open_tx_on(m: &mut TxMemory<u64>) {
        let end = m.size() - 1;
        m.begin(1, big_budgets()).unwrap();
        for addr in [0, 40, end - 40, end] {
            let _ = m.read(1, addr).unwrap();
        }
        m.write(1, 20, 1).unwrap();
        m.write(1, end - 20, 2).unwrap();
    }

    fn assert_same_as_fresh(m: &TxMemory<u64>, size: usize, line_words: usize, threads: usize) {
        let fresh: TxMemory<u64> = TxMemory::new(size, line_words, threads, 0);
        assert_eq!(m.words, fresh.words);
        assert_eq!(m.dir, fresh.dir);
        assert_eq!(m.dirty, fresh.dirty);
        assert_eq!((m.size(), m.line_words(), m.active_tx_count()), (size, line_words, 0));
        assert_eq!(m.stats(), fresh.stats());
    }

    #[test]
    fn take_image_resets_every_write_path() {
        let mut m = dirtied();
        let image = m.take_image(0);
        assert_eq!(m.size(), 0, "the memory is left empty");
        assert_eq!(image.words.len(), 5096);
        assert!(image.words.iter().all(|w| *w == 0), "every word back to init");
    }

    #[test]
    fn recycled_memory_equals_a_fresh_one_at_any_geometry() {
        // Smaller, with longer lines and more threads; then larger within
        // the image's capacity (5096 words), back on short lines.
        for (size, line_words, threads) in [(3000, 32, 4), (5096, 8, 1)] {
            let image = dirtied().take_image(0);
            let m = TxMemory::recycled(Some(image), size, line_words, threads, 0);
            assert_same_as_fresh(&m, size, line_words, threads);
        }
        assert_same_as_fresh(&TxMemory::recycled(None, 777, 8, 2, 0), 777, 8, 2);
    }

    #[test]
    fn too_small_an_image_is_replaced_not_regrown() {
        let image = dirtied().take_image(0);
        let m = TxMemory::recycled(Some(image), 9000, 8, 2, 0);
        assert_same_as_fresh(&m, 9000, 8, 2);
        assert_eq!(m.words.capacity(), 9000, "a fresh exact buffer, not a regrown spare");
    }

    #[test]
    fn a_directory_shrinks_in_place_and_grows_a_tail() {
        // 8-word lines, then 32 over the same words (a new, exact
        // directory: 160 lines), then 8 over fewer words: the 125 lines fit
        // the 160 kept, and 160 lines again only extend the tail.
        let mut m = dirtied();
        for (size, line_words, lines) in [(5096, 32, 160), (1000, 8, 125), (1280, 8, 160)] {
            let image = m.take_image(0);
            m = TxMemory::recycled(Some(image), size, line_words, 2, 0);
            assert_same_as_fresh(&m, size, line_words, 2);
            assert_eq!((m.dir.len(), m.dir.capacity()), (lines, 160));
            open_tx_on(&mut m);
        }
    }

    #[test]
    fn a_recycled_memory_recycles_again() {
        let image = dirtied().take_image(0);
        let mut m = TxMemory::recycled(Some(image), 4000, 8, 2, 0);
        m.write(0, 3999, 9).unwrap();
        m.grow(500, 0);
        assert_eq!(m.words.capacity(), 5096, "growth inside the spare's capacity keeps the buffer");
        m.poke(4400, 9);
        let again = TxMemory::recycled(Some(m.take_image(0)), 4500, 8, 2, 0);
        assert_same_as_fresh(&again, 4500, 8, 2);
    }
}
