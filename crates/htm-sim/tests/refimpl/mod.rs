//! The retained **reference implementation** of the transactional memory:
//! the original set-based `TxMemory` with O(threads) conflict scans.
//!
//! [`htm_sim::TxMemory`] now detects conflicts through a per-line ownership
//! directory (see its module docs). This module keeps the pre-directory
//! implementation verbatim — per-transaction `HashSet` read/write sets and
//! a `doom_conflicting` that scans every other thread on every access — as
//! the executable specification. It is **not** used by the simulator; its
//! job is to sit on the other side of the differential property test
//! (`differential_txmem.rs`, which declares it), which drives both implementations with
//! identical access sequences and requires identical results, abort
//! reasons, statistics, and trace events.
//!
//! Keep behavioural changes out of this file: if the semantics of the
//! memory ever need to change, change [`htm_sim::txmem`] first, mirror the
//! change here in a separate commit, and let the differential test arbitrate.

use std::collections::HashSet;

use machine_sim::ThreadId;

use htm_sim::{
    AbortReason, Budgets, ExplicitCode, Fault, FaultInjector, FaultPlan, HtmStats,
    OverflowPredictor, RingBufferSink, SpuriousCause, TraceEvent,
};

/// `TxMemory`'s out-of-bounds panic, word for word.
fn out_of_bounds(op: &str, addr: usize, line: usize, size: usize) -> ! {
    panic!("TxMemory {op} out of bounds: addr {addr} (line {line}) >= memory size {size}");
}

#[derive(Debug)]
struct Tx {
    read_lines: HashSet<usize>,
    write_lines: HashSet<usize>,
    /// (address, undo-arena slot) pairs, in write order.
    undo: Vec<(usize, usize)>,
    budgets: Budgets,
}

/// Word-addressed shared memory with best-effort transactions — reference
/// (set-based) conflict detection. Same public surface as
/// [`htm_sim::TxMemory`].
#[derive(Debug)]
pub struct ReferenceTxMemory<W: Clone> {
    words: Vec<W>,
    line_words: usize,
    txs: Vec<Option<Tx>>,
    /// Undo payloads, one arena per thread (index-linked from `Tx::undo`).
    undo_words: Vec<Vec<W>>,
    doomed: Vec<Option<AbortReason>>,
    predictors: Vec<OverflowPredictor>,
    stats: HtmStats,
    trace: Option<RingBufferSink>,
    /// Seeded fault injector, mirroring [`htm_sim::TxMemory`]'s: draws are
    /// consumed only at transactional accesses so both sides of the
    /// differential pair see the same fault stream.
    injector: Option<FaultInjector>,
    now: u64,
}

impl<W: Clone> ReferenceTxMemory<W> {
    /// Create a memory of `size` words, all initialized to `init`, with
    /// cache lines of `line_words` words, supporting up to `max_threads`
    /// hardware threads.
    pub fn new(size: usize, line_words: usize, max_threads: usize, init: W) -> Self {
        assert!(line_words.is_power_of_two(), "line size must be 2^k words");
        ReferenceTxMemory {
            words: vec![init; size],
            line_words,
            txs: (0..max_threads).map(|_| None).collect(),
            undo_words: (0..max_threads).map(|_| Vec::new()).collect(),
            doomed: vec![None; max_threads],
            predictors: (0..max_threads).map(|_| OverflowPredictor::disabled()).collect(),
            stats: HtmStats::default(),
            trace: None,
            injector: None,
            now: 0,
        }
    }

    /// Install a fault-injection plan (or remove it with a no-op plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.bump_all_slots();
        self.injector = if plan.is_noop() { None } else { Some(FaultInjector::new(plan)) };
    }

    /// Faults injected so far (zero without a plan).
    pub fn faults_injected(&self) -> u64 {
        self.injector.as_ref().map_or(0, FaultInjector::injected)
    }

    /// Trace into a ring of the newest `capacity` events.
    pub fn set_trace(&mut self, capacity: usize) {
        self.trace = Some(RingBufferSink::new(capacity));
    }

    /// The trace ring, when [`Self::set_trace`] installed one.
    pub fn trace(&self) -> Option<&RingBufferSink> {
        self.trace.as_ref()
    }

    /// Set the simulated cycle stamped onto trace events.
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

    /// Immutable view of the aggregate statistics.
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// Cache line of an address.
    #[inline]
    pub fn line_of(&self, addr: usize) -> usize {
        addr / self.line_words
    }

    /// True when thread `t` has an active transaction.
    pub fn in_tx(&self, t: ThreadId) -> bool {
        self.txs[t].is_some()
    }

    /// Number of currently active transactions.
    pub fn active_tx_count(&self) -> usize {
        self.txs.iter().filter(|t| t.is_some()).count()
    }

    /// (read lines, write lines) of `t`'s active transaction.
    pub fn footprint(&self, t: ThreadId) -> (usize, usize) {
        self.txs[t].as_ref().map_or((0, 0), |tx| (tx.read_lines.len(), tx.write_lines.len()))
    }

    /// Begin a transaction for thread `t` with the given budgets.
    pub fn begin(&mut self, t: ThreadId, budgets: Budgets) -> Result<(), AbortReason> {
        assert!(self.txs[t].is_none(), "nested transaction on thread {t}");
        // A begin kills `t`'s own stale leases and every plain lease
        // (granted on the promise that no transaction was active).
        self.bump_slot(t);
        self.bump_slot(self.txs.len());
        self.doomed[t] = None;
        if self.predictors[t].should_abort_eagerly() {
            let reason = AbortReason::EagerPredicted;
            self.stats.begins += 1;
            self.stats.record_abort(reason);
            let cycle = self.now;
            self.emit(TraceEvent::Abort { thread: t, cycle, reason, line: None });
            return Err(reason);
        }
        self.stats.begins += 1;
        self.undo_words[t].clear();
        self.txs[t] = Some(Tx {
            read_lines: HashSet::new(),
            write_lines: HashSet::new(),
            undo: Vec::new(),
            budgets,
        });
        let cycle = self.now;
        self.emit(TraceEvent::Begin { thread: t, cycle });
        Ok(())
    }

    /// Commit thread `t`'s transaction.
    pub fn commit(&mut self, t: ThreadId) -> Result<(), AbortReason> {
        // Only `t`'s own in-transaction leases die with its transaction.
        self.bump_slot(t);
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        let tx = self.txs[t].take().expect("commit without transaction");
        self.stats.commits += 1;
        self.predictors[t].on_commit();
        let cycle = self.now;
        self.emit(TraceEvent::Commit {
            thread: t,
            cycle,
            read_lines: tx.read_lines.len(),
            write_lines: tx.write_lines.len(),
        });
        Ok(())
    }

    /// Explicit software abort of `t`'s own transaction.
    pub fn tabort(&mut self, t: ThreadId, code: ExplicitCode) -> AbortReason {
        let reason = AbortReason::Explicit(code);
        self.abort_self(t, reason, None);
        reason
    }

    /// Abort `t`'s transaction because of a restricted operation.
    pub fn abort_restricted(&mut self, t: ThreadId) -> AbortReason {
        let reason = AbortReason::Restricted;
        self.abort_self(t, reason, None);
        reason
    }

    /// Abort `t`'s transaction for an environmental cause (interrupt, TLB,
    /// page fault).
    pub fn abort_spurious(&mut self, t: ThreadId, cause: SpuriousCause) -> AbortReason {
        let reason = AbortReason::Spurious { cause };
        self.abort_self(t, reason, None);
        reason
    }

    /// Check whether a remote conflict doomed `t`'s transaction.
    pub fn poll_doomed(&mut self, t: ThreadId) -> Option<AbortReason> {
        self.take_doom(t)
    }

    /// Transactional or plain read of one word by thread `t`.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) on an out-of-bounds `addr`, with the
    /// same addr/line message as [`htm_sim::TxMemory::read`].
    pub fn read(&mut self, t: ThreadId, addr: usize) -> Result<W, AbortReason> {
        self.read_with(t, addr, W::clone)
    }

    /// Mirror of [`htm_sim::TxMemory::read_with`]: the full accounting path
    /// applying `f` in place, one counted access.
    pub fn read_with<R>(
        &mut self,
        t: ThreadId,
        addr: usize,
        f: impl FnOnce(&W) -> R,
    ) -> Result<R, AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("read", addr, addr / self.line_words, self.words.len());
        }
        self.stats.reads += 1;
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        let line = self.line_of(addr);
        // Requester wins: kill remote writers of this line.
        self.doom_conflicting(t, line, false);
        if let Some(tx) = self.txs[t].as_mut() {
            tx.read_lines.insert(line);
            if tx.read_lines.len() > tx.budgets.read_lines {
                let reason = AbortReason::ReadOverflow;
                self.abort_self(t, reason, Some(line));
                self.predictors[t].on_overflow();
                return Err(reason);
            }
        }
        Ok(f(&self.words[addr]))
    }

    /// Transactional or plain write of one word by thread `t`.
    ///
    /// # Panics
    ///
    /// Panics (also in release builds) on an out-of-bounds `addr`, with the
    /// same addr/line message as [`htm_sim::TxMemory::write`].
    pub fn write(&mut self, t: ThreadId, addr: usize, value: W) -> Result<(), AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("write", addr, addr / self.line_words, self.words.len());
        }
        self.stats.writes += 1;
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        let line = self.line_of(addr);
        // Kill remote readers *and* writers of this line.
        self.doom_conflicting(t, line, true);
        if let Some(tx) = self.txs[t].as_mut() {
            let slot = self.undo_words[t].len();
            self.undo_words[t].push(self.words[addr].clone());
            tx.undo.push((addr, slot));
            tx.write_lines.insert(line);
            if tx.write_lines.len() > tx.budgets.write_lines {
                let reason = AbortReason::WriteOverflow;
                self.abort_self(t, reason, Some(line));
                self.predictors[t].on_overflow();
                return Err(reason);
            }
        }
        self.words[addr] = value;
        Ok(())
    }

    /// Mirror of [`htm_sim::TxMemory::arm_lock_monitor`]: the read path
    /// minus the read-set insert (the monitor register consumes no
    /// capacity). Note no fast path — the reference has none anywhere.
    pub fn arm_lock_monitor(&mut self, t: ThreadId, addr: usize) -> Result<W, AbortReason> {
        if addr >= self.words.len() {
            out_of_bounds("arm_lock_monitor", addr, addr / self.line_words, self.words.len());
        }
        self.stats.reads += 1;
        if let Some(reason) = self.take_doom(t) {
            return Err(reason);
        }
        if let Some(reason) = self.inject_fault(t) {
            return Err(reason);
        }
        let line = self.line_of(addr);
        // Requester wins: kill remote writers of this line (but record
        // nothing in our own sets).
        self.doom_conflicting(t, line, false);
        Ok(self.words[addr].clone())
    }

    /// Mirror of [`htm_sim::TxMemory::doom_all_active`]: doom every other
    /// active transaction in ascending thread order with the acquirer's
    /// `ConflictRead`, counting one non-transactional doom.
    pub fn doom_all_active(&mut self, t: ThreadId, addr: usize) {
        let line = self.line_of(addr);
        let in_tx = self.txs[t].is_some();
        let mut doomed_any = false;
        for victim in 0..self.txs.len() {
            if victim == t || self.txs[victim].is_none() {
                continue;
            }
            let reason = AbortReason::conflict(false, t, line);
            self.bump_slot(victim); // one bump per doomed victim, like `doom`
            self.rollback(victim);
            self.doomed[victim] = Some(reason);
            self.stats.record_abort(reason);
            let cycle = self.now;
            self.emit(TraceEvent::Abort { thread: victim, cycle, reason, line: Some(line) });
            doomed_any = true;
        }
        if doomed_any && !in_tx {
            self.stats.nontx_dooms += 1;
        }
    }

    /// Read bypassing all transaction machinery.
    pub fn peek(&self, addr: usize) -> &W {
        &self.words[addr]
    }

    // ---- internals ------------------------------------------------------

    /// Count the lease-epoch bump the directory impl makes at the same
    /// event for the same slot, so `epoch_bumps` compares strictly in the
    /// differential test. The reference grants no lease and keeps no epoch.
    #[inline]
    fn bump_slot(&mut self, _slot: usize) {
        self.stats.epoch_bumps += 1;
    }

    /// The bump-every-slot events (fault-plan installation, growth): one
    /// slot per thread plus the plain slot.
    fn bump_all_slots(&mut self) {
        self.stats.epoch_bumps += self.txs.len() as u64 + 1;
    }

    /// Consult the fault injector for one transactional access by `t` —
    /// the mirror of `TxMemory::inject_fault` (same gating, same draw
    /// discipline, same abort semantics).
    fn inject_fault(&mut self, t: ThreadId) -> Option<AbortReason> {
        self.txs[t].as_ref()?;
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
                let tx = self.txs[t].as_mut().expect("checked above");
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

    fn take_doom(&mut self, t: ThreadId) -> Option<AbortReason> {
        self.doomed[t].take()
    }

    /// Doom every active transaction other than `t` that conflicts with an
    /// access to `line` — the O(threads) scan the directory replaced.
    fn doom_conflicting(&mut self, t: ThreadId, line: usize, is_write: bool) {
        let in_tx = self.txs[t].is_some();
        let mut doomed_any = false;
        for victim in 0..self.txs.len() {
            if victim == t {
                continue;
            }
            let Some(tx) = self.txs[victim].as_ref() else {
                continue;
            };
            let reason = if tx.write_lines.contains(&line) {
                Some(AbortReason::conflict(true, t, line))
            } else if is_write && tx.read_lines.contains(&line) {
                Some(AbortReason::conflict(false, t, line))
            } else {
                None
            };
            if let Some(reason) = reason {
                self.bump_slot(victim); // one bump per doomed victim, like `doom`
                self.rollback(victim);
                self.doomed[victim] = Some(reason);
                self.stats.record_abort(reason);
                let cycle = self.now;
                self.emit(TraceEvent::Abort { thread: victim, cycle, reason, line: Some(line) });
                doomed_any = true;
            }
        }
        if doomed_any && !in_tx {
            self.stats.nontx_dooms += 1;
        }
    }

    /// Roll back and discard `t`'s transaction, recording `reason`.
    fn abort_self(&mut self, t: ThreadId, reason: AbortReason, line: Option<usize>) {
        self.bump_slot(t);
        self.rollback(t);
        self.doomed[t] = None;
        self.stats.record_abort(reason);
        let cycle = self.now;
        self.emit(TraceEvent::Abort { thread: t, cycle, reason, line });
    }

    /// Replay `t`'s undo log in reverse and drop the transaction.
    fn rollback(&mut self, t: ThreadId) {
        if let Some(tx) = self.txs[t].take() {
            for &(addr, slot) in tx.undo.iter().rev() {
                self.words[addr] = self.undo_words[t][slot].clone();
            }
            self.undo_words[t].clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> ReferenceTxMemory<u64> {
        // Same geometry as the directory impl's unit tests: 1024 words,
        // 8-word lines, 4 threads.
        ReferenceTxMemory::new(1024, 8, 4, 0)
    }

    /// Mirror of the directory impl's constrained-budget bound tests
    /// (`MachineProfile::constrained` geometry: 8 read / 4 write lines).
    #[test]
    fn read_capacity_exact_fit_and_one_over() {
        let mut m = mem();
        m.begin(0, Budgets { read_lines: 8, write_lines: 4 }).unwrap();
        for line in 0..8 {
            m.read(0, line * 8).unwrap();
        }
        assert_eq!(m.footprint(0), (8, 0), "exactly at the bound: no abort");
        assert_eq!(m.read(0, 8 * 8), Err(AbortReason::ReadOverflow), "one over bursts");
        assert!(!m.in_tx(0));
        assert_eq!(m.stats().overflow_read, 1);
    }

    #[test]
    fn write_capacity_exact_fit_and_one_over() {
        let mut m = mem();
        m.begin(0, Budgets { read_lines: 8, write_lines: 4 }).unwrap();
        for line in 0..4 {
            m.write(0, line * 8, 1).unwrap();
        }
        assert_eq!(m.footprint(0), (0, 4), "exactly at the bound: no abort");
        assert_eq!(m.write(0, 4 * 8, 1), Err(AbortReason::WriteOverflow), "one over bursts");
        assert!(!m.in_tx(0));
        assert_eq!(m.stats().overflow_write, 1);
        for line in 0..5 {
            assert_eq!(m.read(1, line * 8).unwrap(), 0, "speculative writes rolled back");
        }
    }

    #[test]
    fn lock_monitor_consumes_no_read_capacity() {
        let mut m = mem();
        m.write(0, 800, 1).unwrap();
        m.begin(0, Budgets { read_lines: 1, write_lines: 1 }).unwrap();
        m.read(0, 0).unwrap();
        assert_eq!(m.arm_lock_monitor(0, 800).unwrap(), 1);
        assert_eq!(m.footprint(0), (1, 0), "no read-set growth");
        m.commit(0).unwrap();
    }

    #[test]
    fn doom_all_active_kills_every_transaction_in_order() {
        let mut m = mem();
        m.begin(0, Budgets { read_lines: 8, write_lines: 4 }).unwrap();
        m.begin(1, Budgets { read_lines: 8, write_lines: 4 }).unwrap();
        m.write(0, 5, 9).unwrap();
        m.doom_all_active(2, 800);
        assert!(matches!(m.poll_doomed(0), Some(AbortReason::ConflictRead { with: 2, line: 100 })));
        assert!(matches!(m.poll_doomed(1), Some(AbortReason::ConflictRead { with: 2, line: 100 })));
        assert_eq!(m.active_tx_count(), 0);
        assert_eq!(m.read(2, 5).unwrap(), 0, "speculative write rolled back");
        assert_eq!(m.stats().nontx_dooms, 1);
    }
}
