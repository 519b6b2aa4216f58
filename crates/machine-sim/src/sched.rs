//! Deterministic discrete-event thread scheduler.
//!
//! Each virtual thread carries its own cycle clock. The executor repeatedly
//! asks [`Scheduler::next`] for the runnable thread with the *smallest*
//! clock, executes one unit of work for it (a burst of bytecodes within
//! [`Scheduler::run_ahead`], one runtime operation, …), and charges the
//! cost via [`Scheduler::advance`]. Because the least-advanced thread
//! always runs next, concurrent threads interleave exactly as they would
//! on real silicon with the given cost model — but fully
//! deterministically (ties break by thread id).
//!
//! Hardware topology matters in two ways:
//!
//! * **SMT capacity sharing** — a thread whose SMT sibling slot is occupied
//!   has half the HTM footprint budget (paper §5.4: "a pair of threads on
//!   the same core share the same caches, thus halving the maximum read-
//!   and write-set sizes"). [`Scheduler::smt_sibling_busy`] exposes this to
//!   the HTM layer.
//! * **Oversubscription** — when more threads are runnable than hardware
//!   threads exist, slots rotate on a quantum with a context-switch charge,
//!   like an OS scheduler.

use crate::explore::{DecisionKind, ExploreCtl};
use crate::Cycles;

/// Identifier of a virtual thread (dense, starting at 0).
pub type ThreadId = usize;

/// Lifecycle state of a virtual thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Ready to execute as soon as it has the smallest clock.
    Runnable,
    /// Asleep until a known simulated time (blocking I/O with a latency).
    Sleeping { until: Cycles },
    /// Waiting for an external wake-up (GIL queue, `Thread#join`, `Mutex`,
    /// barrier). Cannot run until [`Scheduler::unpark`].
    Parked,
    /// Terminated; never runs again.
    Finished,
}

/// Scheduling quantum used only under oversubscription (more runnable
/// threads than hardware threads): a slot holder is preempted after this
/// many cycles if someone is waiting for a slot.
const OVERSUB_QUANTUM: Cycles = 50_000;

#[derive(Debug, Clone)]
struct ThreadSched {
    clock: Cycles,
    state: ThreadState,
    /// Hardware-thread slot currently held, if any.
    slot: Option<usize>,
    /// Cycles consumed on the current slot since acquiring it (for quantum
    /// preemption under oversubscription).
    slot_usage: Cycles,
    /// Total busy cycles charged to this thread (for utilization stats).
    busy: Cycles,
}

/// Sentinel in the ready array: the thread cannot run without an external
/// wake (parked or finished). Simulated clocks never reach this value.
const NEVER_READY: Cycles = Cycles::MAX;

/// Deterministic discrete-event scheduler over a fixed core/SMT topology.
#[derive(Debug, Clone)]
pub struct Scheduler {
    threads: Vec<ThreadSched>,
    cores: usize,
    smt_per_core: usize,
    /// `slots[s] = Some(tid)` when hardware-thread slot `s` is held.
    /// Slot `s` maps to core `s % cores`, SMT lane `s / cores`, so threads
    /// fill distinct cores before doubling up on SMT lanes.
    slots: Vec<Option<ThreadId>>,
    /// Cost of a context switch, charged on quantum preemption.
    context_switch: Cycles,
    /// Cycles charged for context switches, on every thread's `busy`.
    switch_cycles: Cycles,
    /// Cached per-thread ready time: `clock` when runnable,
    /// `max(clock, until)` when sleeping, [`NEVER_READY`] otherwise.
    /// Maintained at every state/clock transition so [`Scheduler::next`]
    /// is a branch-free min-scan instead of a per-thread state match.
    ready: Vec<Cycles>,
    /// Threads not yet finished (O(1) `other_live_threads`).
    unfinished: usize,
    /// `Runnable` threads holding no hardware slot — the threads a quantum
    /// hand-over can serve: zero means no hand-over and no waiter walk.
    slotless: usize,
    /// `Parked` threads (O(1) [`Scheduler::live_count`]).
    parked: usize,
    /// Thread the last full pick in [`Scheduler::next`] returned.
    last_pick: ThreadId,
    /// Smallest `(ready, tid)` among the threads other than `last_pick`
    /// when learnt, [`NO_HORIZON`] when unknown. Those only rise while it
    /// stands (what could lower one drops it), so while `last_pick` is
    /// below it `next` returns `last_pick` without scanning.
    horizon: (Cycles, ThreadId),
    /// Picks made by scanning and picks the horizon answered (host work).
    picks: (u64, u64),
    /// Schedule-exploration controller; `None` (the default) leaves every
    /// decision-point hook a no-op and the schedule byte-identical to the
    /// pre-exploration scheduler.
    explore: Option<ExploreCtl>,
    /// Thread pinned by a forced preemption: [`Scheduler::next`] keeps
    /// selecting it while it stays runnable, until it reaches its own
    /// next decision point (or parks/sleeps/finishes).
    pinned: Option<ThreadId>,
}

/// No `(ready, tid)` sorts below this, so the run-ahead test in
/// [`Scheduler::next`] always falls through to the full pick.
const NO_HORIZON: (Cycles, ThreadId) = (0, 0);

/// Alternate runnable threads offered per preemption decision (plus
/// choice 0 = natural schedule). Caps decision arity at 4 so the branch
/// factor stays bounded on wide machines.
const MAX_ALTERNATES: usize = 3;

impl Scheduler {
    /// Create a scheduler for `cores` cores with `smt_per_core` hardware
    /// threads each. `context_switch` is the preemption cost under
    /// oversubscription.
    pub fn new(cores: usize, smt_per_core: usize, context_switch: Cycles) -> Self {
        assert!(cores > 0 && smt_per_core > 0);
        Scheduler {
            threads: Vec::new(),
            cores,
            smt_per_core,
            slots: vec![None; cores * smt_per_core],
            context_switch,
            switch_cycles: 0,
            ready: Vec::new(),
            unfinished: 0,
            slotless: 0,
            parked: 0,
            last_pick: ThreadId::MAX,
            horizon: NO_HORIZON,
            picks: (0, 0),
            explore: None,
            pinned: None,
        }
    }

    /// Register a new virtual thread, runnable, with its clock starting at
    /// `start` (usually the spawner's current clock).
    pub fn spawn(&mut self, start: Cycles) -> ThreadId {
        let tid = self.threads.len();
        self.threads.push(ThreadSched {
            clock: start,
            state: ThreadState::Runnable,
            slot: None,
            slot_usage: 0,
            busy: 0,
        });
        self.ready.push(start);
        self.unfinished += 1;
        self.slotless += 1;
        self.horizon = NO_HORIZON;
        tid
    }

    /// Current clock of thread `t`.
    pub fn clock(&self, t: ThreadId) -> Cycles {
        self.threads[t].clock
    }

    /// Total busy cycles charged to `t` so far.
    pub fn busy(&self, t: ThreadId) -> Cycles {
        self.threads[t].busy
    }

    /// Cycles of all threads' `busy` that context switches, not `advance`, put there.
    pub fn switch_cycles(&self) -> Cycles {
        self.switch_cycles
    }

    /// Current state of thread `t`.
    pub fn state(&self, t: ThreadId) -> ThreadState {
        self.threads[t].state
    }

    /// Number of registered threads (any state).
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// True when no threads are registered.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Charge `cycles` of execution to thread `t`.
    pub fn advance(&mut self, t: ThreadId, cycles: Cycles) {
        let th = &mut self.threads[t];
        th.clock += cycles;
        th.busy += cycles;
        th.slot_usage += cycles;
        self.refresh_ready(t);
    }

    /// Take back the cycles last charged to `t`, down to clock `to` (work
    /// the caller undid), and drop the horizon the lower clock may undercut.
    pub fn rewind(&mut self, t: ThreadId, to: Cycles) {
        let th = &mut self.threads[t];
        let back = th.clock - to;
        th.clock = to;
        th.busy -= back;
        th.slot_usage -= back;
        self.refresh_ready(t);
        self.horizon = NO_HORIZON;
    }

    /// True when a slot may change hands at a pick: a runnable thread waits
    /// for one (a holder past its quantum hands its own over), or more
    /// threads are runnable or asleep than there are slots (a sleeper due
    /// at its pick may find none free and preempt a holder).
    pub fn oversubscribed(&self) -> bool {
        self.slotless > 0 || self.live_count() > self.slots.len()
    }

    /// Recompute the cached ready time of `t` after a clock change. A
    /// sleeping thread whose clock is advanced past its wake deadline
    /// becomes ready at the (later) clock, not the deadline.
    fn refresh_ready(&mut self, t: ThreadId) {
        let th = &self.threads[t];
        self.ready[t] = match th.state {
            ThreadState::Runnable => th.clock,
            ThreadState::Sleeping { until } => th.clock.max(until),
            ThreadState::Parked | ThreadState::Finished => NEVER_READY,
        };
    }

    /// Put `t` to sleep until simulated time `until` (blocking I/O).
    /// Releases its hardware slot.
    pub fn sleep_until(&mut self, t: ThreadId, until: Cycles) {
        let until = until.max(self.threads[t].clock);
        self.stop(t, ThreadState::Sleeping { until }, until);
    }

    /// Park `t` until an explicit [`Scheduler::unpark`]. Releases its slot.
    pub fn park(&mut self, t: ThreadId) {
        self.stop(t, ThreadState::Parked, NEVER_READY);
    }

    /// Take `t` off the processor into the non-runnable `state`, ready
    /// again at `ready`. Drops the horizon: `t` may be the remembered
    /// thread, or a sleeper now due earlier than it.
    fn stop(&mut self, t: ThreadId, state: ThreadState, ready: Cycles) {
        self.unpin(t);
        self.release_slot(t);
        if self.threads[t].state == ThreadState::Runnable {
            self.slotless -= 1;
        }
        self.parked += usize::from(state == ThreadState::Parked);
        self.parked -= usize::from(self.threads[t].state == ThreadState::Parked);
        self.horizon = NO_HORIZON;
        self.threads[t].state = state;
        self.ready[t] = ready;
    }

    /// Wake a parked or sleeping thread; it becomes runnable no earlier
    /// than `at`.
    pub fn unpark(&mut self, t: ThreadId, at: Cycles) {
        let th = &mut self.threads[t];
        match th.state {
            ThreadState::Parked | ThreadState::Sleeping { .. } => {
                self.parked -= usize::from(th.state == ThreadState::Parked);
                th.clock = th.clock.max(at);
                th.state = ThreadState::Runnable;
                self.ready[t] = th.clock;
                self.slotless += 1;
                self.horizon = NO_HORIZON;
            }
            ThreadState::Runnable => {
                // Spurious wake-up: harmless.
            }
            ThreadState::Finished => panic!("unpark of finished thread {t}"),
        }
    }

    /// Mark `t` terminated and release its slot.
    pub fn finish(&mut self, t: ThreadId) {
        if self.threads[t].state != ThreadState::Finished {
            self.unfinished -= 1;
        }
        self.stop(t, ThreadState::Finished, NEVER_READY);
    }

    /// True when every registered thread has finished.
    pub fn all_finished(&self) -> bool {
        debug_assert_eq!(
            self.unfinished,
            self.threads.iter().filter(|t| t.state != ThreadState::Finished).count(),
            "unfinished counter out of sync"
        );
        self.unfinished == 0
    }

    /// Number of threads currently runnable or sleeping (i.e. that will run
    /// again without an external wake).
    pub fn live_count(&self) -> usize {
        debug_assert_eq!(
            self.parked,
            self.threads.iter().filter(|t| t.state == ThreadState::Parked).count()
        );
        self.unfinished - self.parked
    }

    /// Threads other than `t` that are not finished (the paper's "other
    /// live thread" test deciding whether concurrency is worthwhile at all,
    /// Fig. 1 line 2 / Fig. 2 line 9).
    pub fn other_live_threads(&self, t: ThreadId) -> usize {
        let n = self.unfinished - usize::from(self.threads[t].state != ThreadState::Finished);
        debug_assert_eq!(
            n,
            self.threads
                .iter()
                .enumerate()
                .filter(|&(i, th)| i != t && th.state != ThreadState::Finished)
                .count(),
            "unfinished counter out of sync"
        );
        n
    }

    /// True when the SMT sibling lane of `t`'s hardware slot is held by
    /// another thread — halves HTM capacity budgets on the Xeon profile.
    pub fn smt_sibling_busy(&self, t: ThreadId) -> bool {
        if self.smt_per_core < 2 {
            return false;
        }
        let Some(slot) = self.threads[t].slot else {
            return false;
        };
        let core = slot % self.cores;
        (0..self.smt_per_core).any(|lane| {
            let s = lane * self.cores + core;
            s != slot && self.slots[s].is_some()
        })
    }

    /// Select the next thread to execute: the runnable (or due-to-wake
    /// sleeping) thread with the smallest clock that can hold a hardware
    /// slot. Returns `None` when no thread can make progress without an
    /// external wake (deadlock or completion).
    #[allow(clippy::should_implement_trait)] // scheduler step, not an Iterator
    pub fn next(&mut self) -> Option<ThreadId> {
        debug_assert_eq!(self.slotless, self.slotless_recount(), "slotless counter out of sync");
        // Exploration pin: a forced preemption keeps its target running
        // (quantum handover suspended — the pin *is* the quantum) until
        // the target reaches its own next decision point or stops being
        // runnable.
        if let Some(p) = self.pinned {
            if self.threads[p].state == ThreadState::Runnable {
                self.acquire_slot(p);
                self.picks.0 += 1;
                return Some(p);
            }
            self.pinned = None;
        }
        // Run-ahead: the remembered thread is still first and no hand-over
        // is due, so the full pick below would return it unchanged (it is
        // runnable and holds its slot: what takes either drops the horizon).
        let last = self.last_pick;
        if self.horizon != NO_HORIZON
            && (self.ready[last], last) < self.horizon
            && (self.threads[last].slot_usage < OVERSUB_QUANTUM || self.slotless == 0)
        {
            debug_assert_eq!(Some((self.ready[last], last)), self.min_ready_recount());
            debug_assert!(self.threads[last].slot.is_some());
            self.picks.1 += 1;
            return Some(last);
        }
        // Pass 1: find the best candidate by (ready_time, tid) — a plain
        // min-scan over the cached ready array (strict `<` keeps the
        // smallest tid on ties, matching the per-state scan it replaced).
        let mut ready = NEVER_READY;
        let mut tid = 0;
        for (i, &r) in self.ready.iter().enumerate() {
            if r < ready {
                ready = r;
                tid = i;
            }
        }
        if ready == NEVER_READY {
            return None;
        }
        debug_assert_eq!(
            Some((ready, tid)),
            self.min_ready_recount(),
            "ready cache out of sync with thread states"
        );
        // Wake if sleeping.
        let th = &mut self.threads[tid];
        if th.state != ThreadState::Runnable {
            th.clock = ready;
            th.state = ThreadState::Runnable;
            self.slotless += 1;
        }
        // Ensure it holds a hardware slot.
        self.acquire_slot(tid);
        // Quantum accounting: if others are waiting for slots and this
        // thread exhausted its quantum, hand the slot over instead.
        if self.threads[tid].slot_usage >= OVERSUB_QUANTUM && self.slotless > 0 {
            let w = self
                .threads
                .iter()
                .position(|th| th.state == ThreadState::Runnable && th.slot.is_none())
                .expect("slotless > 0");
            self.switch_slot(tid, w);
            // Re-select: the waiter may now be the best candidate, and
            // `tid` no longer holds a slot to run ahead on.
            self.horizon = NO_HORIZON;
            return self.next();
        }
        // Learn the horizon lazily, by a second scan only for a thread
        // picked twice running: lock-step threads are almost never first
        // twice, and a runner-up tracked in pass 1 would tax their every pick.
        self.horizon = NO_HORIZON;
        if tid == self.last_pick {
            let mut best = (NEVER_READY, ThreadId::MAX);
            for (i, &r) in self.ready.iter().enumerate() {
                if r < best.0 && i != tid {
                    best = (r, i);
                }
            }
            self.horizon = best;
        }
        self.last_pick = tid;
        self.picks.0 += 1;
        Some(tid)
    }

    /// Cycles `t`, the thread [`Scheduler::next`] just returned, may
    /// consume and still be its next pick: the room below the horizon (a
    /// tie goes to the smaller tid), and below the quantum while a slot
    /// waiter exists. Zero when unknown: no horizon learnt (a pin drops
    /// it), `t` not the remembered thread, or `t` at or past the horizon
    /// already — a charge since the pick may have carried it there.
    pub fn run_ahead(&self, t: ThreadId) -> Cycles {
        let (now, (until, other)) = (self.threads[t].clock, self.horizon);
        if t != self.last_pick || (now, t) >= (until, other) {
            return 0;
        }
        let quantum = OVERSUB_QUANTUM.saturating_sub(self.threads[t].slot_usage);
        let room = (until - now).saturating_add(Cycles::from(t < other));
        room.min(if self.slotless == 0 { Cycles::MAX } else { quantum })
    }

    /// `(full picks, run-ahead picks)` made so far.
    pub fn pick_counts(&self) -> (u64, u64) {
        self.picks
    }

    /// What `slotless` caches (debug cross-check).
    fn slotless_recount(&self) -> usize {
        self.threads.iter().filter(|t| t.state == ThreadState::Runnable && t.slot.is_none()).count()
    }

    /// The pick [`Scheduler::next`] must make, spelt per state from the
    /// thread table (debug cross-check of the ready cache and the horizon).
    fn min_ready_recount(&self) -> Option<(Cycles, ThreadId)> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(i, th)| match th.state {
                ThreadState::Runnable => Some((th.clock, i)),
                ThreadState::Sleeping { until } => Some((th.clock.max(until), i)),
                _ => None,
            })
            .min()
    }

    /// Give `t` a hardware slot if it lacks one. Inlined: every full pick
    /// of a lock-step thread finds its slot already held.
    #[inline(always)]
    fn acquire_slot(&mut self, t: ThreadId) {
        if self.threads[t].slot.is_none() {
            self.grant_slot(t);
        }
    }

    /// A free slot when available, otherwise preempt the holder that has
    /// used the most quantum (deterministic: max usage, then min tid) and
    /// charge `t` the context switch on top of the victim's clock.
    #[inline(never)]
    fn grant_slot(&mut self, t: ThreadId) {
        if let Some(free) = self.slots.iter().position(|s| s.is_none()) {
            self.slots[free] = Some(t);
            self.threads[t].slot = Some(free);
            self.threads[t].slot_usage = 0;
            self.slotless -= 1;
        } else {
            let victim = self
                .slots
                .iter()
                .filter_map(|s| *s)
                .max_by_key(|&v| (self.threads[v].slot_usage, usize::MAX - v))
                .expect("all slots held");
            self.switch_slot(victim, t);
        }
    }

    /// Hand `from`'s slot to `to`, charging `to` the context switch on top
    /// of `from`'s clock: the OS switches at `from`'s quantum expiry.
    fn switch_slot(&mut self, from: ThreadId, to: ThreadId) {
        let switch_at = self.threads[from].clock;
        let slot = self.threads[from].slot.take().expect("holder slot");
        self.threads[from].slot_usage = 0;
        self.slots[slot] = Some(to);
        let th = &mut self.threads[to];
        (th.slot, th.slot_usage) = (Some(slot), 0);
        th.clock = th.clock.max(switch_at) + self.context_switch;
        th.busy += self.context_switch;
        self.switch_cycles += self.context_switch;
        self.ready[to] = th.clock;
    }

    fn release_slot(&mut self, t: ThreadId) {
        if let Some(s) = self.threads[t].slot.take() {
            self.slots[s] = None;
            self.threads[t].slot_usage = 0;
            self.slotless += 1;
        }
    }

    fn unpin(&mut self, t: ThreadId) {
        if self.pinned == Some(t) {
            self.pinned = None;
        }
    }

    // ---- schedule-space exploration hooks --------------------------------
    //
    // All hooks are no-ops (consuming no decisions) until a controller is
    // installed, so the unexplored scheduler is byte-identical to before.

    /// Install an exploration controller for the coming run.
    pub fn set_explore(&mut self, ctl: ExploreCtl) {
        self.explore = Some(ctl);
        self.pinned = None;
        self.horizon = NO_HORIZON;
    }

    /// The installed controller, if any (trail/stats inspection).
    pub fn explore(&self) -> Option<&ExploreCtl> {
        self.explore.as_ref()
    }

    /// True when a controller is installed (cheap gate for callers that
    /// would otherwise do work just to reach a no-op hook).
    pub fn explore_active(&self) -> bool {
        self.explore.is_some()
    }

    /// Preemption decision at one of `t`'s yield points. Choice 0 (and
    /// no controller, and no alternate runnable thread — those consume
    /// no decision) continues `t` naturally; choice k pins the k-th
    /// alternate (other runnable threads by `(clock, tid)`, at most
    /// [`MAX_ALTERNATES`]) and returns it — the caller must then return
    /// to the scheduler *without* running `t`, and `t` re-decides at the
    /// same point when next selected (each consult consumes one path
    /// byte, so a finite path always drains back to choice 0).
    pub fn explore_preempt(&mut self, t: ThreadId) -> Option<ThreadId> {
        self.unpin(t); // t reached its own next decision point
        self.explore.as_ref()?;
        // The MAX_ALTERNATES smallest `(clock, tid)`, in order: each
        // candidate bubbles through the array.
        let mut cands = [(NEVER_READY, ThreadId::MAX); MAX_ALTERNATES];
        let mut n = 0;
        for (i, th) in self.threads.iter().enumerate() {
            if i == t || th.state != ThreadState::Runnable {
                continue;
            }
            n += 1;
            let mut c = (th.clock, i);
            for kept in &mut cands {
                if c < *kept {
                    std::mem::swap(&mut c, kept);
                }
            }
        }
        if n == 0 {
            return None;
        }
        let arity = (1 + n.min(MAX_ALTERNATES)) as u8;
        let ctl = self.explore.as_mut().expect("checked above");
        let choice = ctl.decide(DecisionKind::Sched, arity);
        if choice == 0 {
            return None;
        }
        let pin = cands[choice as usize - 1].1;
        self.pinned = Some(pin);
        self.horizon = NO_HORIZON;
        Some(pin)
    }

    /// Interrupt-delivery decision at a yield point with an open
    /// transaction: true = kill it. Consumes a decision only when the
    /// controller has its interrupt windows enabled.
    pub fn explore_interrupt_kill(&mut self) -> bool {
        match self.explore.as_mut() {
            Some(ctl) if ctl.interrupts => ctl.decide(DecisionKind::Interrupt, 2) == 1,
            _ => false,
        }
    }

    /// Interrupt-delivery decision in the commit window: true = kill the
    /// transaction right before `TEND`.
    pub fn explore_commit_kill(&mut self) -> bool {
        match self.explore.as_mut() {
            Some(ctl) if ctl.interrupts => ctl.decide(DecisionKind::Commit, 2) == 1,
            _ => false,
        }
    }

    /// Wake-order decision over `n` waiters: the returned rotation is 0
    /// (exact legacy publish — also whenever no controller is installed
    /// or there is nothing to reorder) or 1..min(n,4).
    pub fn explore_wake_order(&mut self, n: usize) -> u8 {
        match self.explore.as_mut() {
            Some(ctl) if n >= 2 => ctl.decide(DecisionKind::Wake, n.min(4) as u8),
            _ => 0,
        }
    }

    /// Tail of the decision trail for failure dumps, if exploring.
    pub fn explore_trail(&self) -> Option<String> {
        self.explore.as_ref().map(|c| c.trail_tail(32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(cores: usize, smt: usize) -> Scheduler {
        Scheduler::new(cores, smt, 1_000)
    }

    #[test]
    fn min_clock_thread_runs_first() {
        let mut s = sched(4, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(a)); // tie → smaller tid
        s.advance(a, 100);
        assert_eq!(s.next(), Some(b));
        s.advance(b, 50);
        assert_eq!(s.next(), Some(b)); // b still behind a
        s.advance(b, 100);
        assert_eq!(s.next(), Some(a));
    }

    #[test]
    fn sleeping_thread_wakes_at_deadline() {
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(a));
        s.sleep_until(a, 10_000);
        assert_eq!(s.next(), Some(b));
        s.advance(b, 20_000);
        // a wakes at 10_000 < b's 20_000.
        assert_eq!(s.next(), Some(a));
        assert_eq!(s.clock(a), 10_000);
    }

    #[test]
    fn parked_thread_needs_explicit_unpark() {
        let mut s = sched(1, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        s.park(a);
        assert_eq!(s.next(), Some(b));
        s.advance(b, 5);
        assert_eq!(s.next(), Some(b)); // a still parked
        s.unpark(a, 100);
        // b (clock 10) still precedes a (woken at 100).
        assert_eq!(s.next(), Some(b));
        s.advance(b, 200);
        assert_eq!(s.next(), Some(a));
        // On this 1-core machine a also pays for taking over b's slot, so
        // it resumes no earlier than its unpark time.
        assert!(s.clock(a) >= 100);
    }

    #[test]
    fn finished_threads_never_run() {
        let mut s = sched(1, 1);
        let a = s.spawn(0);
        s.finish(a);
        assert!(s.all_finished());
        assert_eq!(s.next(), None);
    }

    #[test]
    fn smt_siblings_fill_cores_first() {
        let mut s = sched(4, 2);
        let tids: Vec<_> = (0..8).map(|_| s.spawn(0)).collect();
        // Run each once so they claim slots in order.
        for _ in 0..8 {
            let t = s.next().unwrap();
            s.advance(t, 1);
        }
        // First four threads landed on distinct cores: no sibling busy
        // among them if only they existed. With all eight active, every
        // thread has a busy sibling.
        for &t in &tids {
            assert!(s.smt_sibling_busy(t), "thread {t} should share a core");
        }
    }

    #[test]
    fn four_threads_on_xeon_have_no_smt_sharing() {
        let mut s = sched(4, 2);
        let tids: Vec<_> = (0..4).map(|_| s.spawn(0)).collect();
        for _ in 0..4 {
            let t = s.next().unwrap();
            s.advance(t, 1);
        }
        for &t in &tids {
            assert!(!s.smt_sibling_busy(t), "thread {t} should be alone on its core");
        }
    }

    #[test]
    fn oversubscription_rotates_slots() {
        let mut s = sched(1, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        // a runs a long quantum, then b must eventually get the core.
        assert_eq!(s.next(), Some(a));
        s.advance(a, OVERSUB_QUANTUM + 1);
        let t = s.next().unwrap();
        assert_eq!(t, b, "b must be scheduled after a's quantum expires");
        // b paid a context switch and cannot start before a's clock.
        assert!(s.clock(b) >= OVERSUB_QUANTUM);
    }

    #[test]
    fn other_live_threads_counts_unfinished_peers() {
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        let c = s.spawn(0);
        assert_eq!(s.other_live_threads(a), 2);
        s.park(b);
        assert_eq!(s.other_live_threads(a), 2); // parked is still live
        s.finish(c);
        assert_eq!(s.other_live_threads(a), 1);
        s.finish(b);
        assert_eq!(s.other_live_threads(a), 0);
    }

    #[test]
    fn quantum_handover_charges_context_switch_to_the_waiter() {
        let mut s = sched(1, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(a));
        s.advance(a, OVERSUB_QUANTUM);
        // a's quantum is exactly exhausted; the handover happens inside
        // next(), which must re-select and return b with the switch cost
        // charged as busy time and its clock held back to the switch point.
        assert_eq!(s.next(), Some(b));
        assert_eq!(s.clock(b), OVERSUB_QUANTUM + 1_000);
        assert_eq!(s.busy(b), 1_000);
        assert_eq!(s.switch_cycles(), 1_000);
        assert!(s.threads[a].slot.is_none(), "a must have handed its slot over");
        assert_eq!(s.threads[a].slot_usage, 0, "usage resets on handover");
    }

    #[test]
    fn preemption_victim_is_the_max_usage_holder() {
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        let c = s.spawn(0);
        assert_eq!(s.next(), Some(a));
        s.advance(a, 300);
        assert_eq!(s.next(), Some(b));
        s.advance(b, 100);
        // c has no slot and none is free: the holder with the most quantum
        // used (a, 300 > 100) is preempted, and c pays the context switch
        // on top of the victim's clock (the OS switches at expiry).
        assert_eq!(s.next(), Some(c));
        assert!(s.threads[a].slot.is_none(), "max-usage holder a is the victim");
        assert!(s.threads[b].slot.is_some(), "lighter holder b keeps its slot");
        assert_eq!(s.clock(c), 300 + 1_000);
        assert_eq!(s.busy(c), 1_000);
        assert_eq!(s.switch_cycles(), 1_000);
    }

    #[test]
    fn preemption_tie_on_usage_breaks_to_min_tid_not_min_clock() {
        let mut s = sched(2, 1);
        // a starts later, so at equal slot usage it holds the larger clock
        // and the tie-break is observable: it must go by tid, not clock.
        let a = s.spawn(200);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(b));
        s.advance(b, 200);
        assert_eq!(s.next(), Some(a));
        s.advance(a, 200);
        let c = s.spawn(0);
        assert_eq!(s.next(), Some(c));
        assert!(s.threads[a].slot.is_none(), "usage tie must evict the smaller tid");
        assert!(s.threads[b].slot.is_some());
        assert_eq!(s.clock(c), 400 + 1_000, "waiter resumes after the victim's clock");
    }

    #[test]
    fn equal_ready_time_tie_breaks_to_min_tid_even_when_sleeping() {
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(100);
        assert_eq!(s.next(), Some(a));
        s.sleep_until(a, 100);
        // Both become ready at exactly 100; the sleeping thread still wins
        // the tie because its tid is smaller.
        assert_eq!(s.next(), Some(a));
        assert_eq!((s.clock(a), s.clock(b)), (100, 100));
    }

    #[test]
    fn smt_budget_halving_ends_when_the_sibling_parks_or_sleeps() {
        let mut s = sched(1, 2);
        let a = s.spawn(0);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(a));
        s.advance(a, 1);
        assert_eq!(s.next(), Some(b));
        s.advance(b, 1);
        assert!(s.smt_sibling_busy(a), "both lanes of the core are held");
        // Parking releases the lane: a gets its full capacity back.
        s.park(b);
        assert!(!s.smt_sibling_busy(a));
        s.advance(a, 100);
        s.unpark(b, 10);
        // b (ready at 10) now precedes a (clock 101) and retakes a lane.
        assert_eq!(s.next(), Some(b));
        assert!(s.smt_sibling_busy(a), "rejoining sibling halves the budget again");
        // Blocking I/O releases the lane just like parking.
        s.sleep_until(b, 1_000_000);
        assert!(!s.smt_sibling_busy(a));
    }

    #[test]
    fn smt_sibling_on_another_core_does_not_halve_budgets() {
        let mut s = sched(2, 2);
        let a = s.spawn(0);
        let b = s.spawn(0);
        let c = s.spawn(0);
        for _ in 0..3 {
            let t = s.next().unwrap();
            s.advance(t, 1);
        }
        // Slots fill cores first: a → core 0, b → core 1, c → core 0's
        // second lane. Only the core-0 pair shares capacity.
        assert!(s.smt_sibling_busy(a));
        assert!(!s.smt_sibling_busy(b), "b is alone on core 1");
        assert!(s.smt_sibling_busy(c));
    }

    #[test]
    fn no_smt_lanes_means_no_halving_even_oversubscribed() {
        let mut s = sched(1, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(a));
        s.advance(a, 1);
        // b is waiting for the only slot, but it is a whole-core wait, not
        // SMT sharing: capacity budgets stay full.
        assert!(!s.smt_sibling_busy(a));
        assert!(!s.smt_sibling_busy(b), "slotless thread has no sibling");
    }

    #[test]
    fn pinned_thread_runs_until_its_own_decision_point() {
        use crate::explore::SchedPath;
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(10);
        s.set_explore(ExploreCtl::new(SchedPath::new(vec![1]), false));
        assert_eq!(s.next(), Some(a));
        // Decision point on a: byte 1 pins b, the only alternate.
        assert_eq!(s.explore_preempt(a), Some(b));
        assert_eq!(s.next(), Some(b));
        s.advance(b, 5);
        assert_eq!(s.next(), Some(b), "pin holds while b stays runnable");
        // b reaches its own decision point: pin clears; the path is
        // exhausted, so the decision is natural (choice 0).
        assert_eq!(s.explore_preempt(b), None);
        assert_eq!(s.next(), Some(a), "min-clock scheduling resumes");
        assert_eq!(s.explore().unwrap().decisions(), 2);
        assert_eq!(s.explore().unwrap().preemptions(), 1);
    }

    #[test]
    fn empty_path_consults_but_never_deviates() {
        use crate::explore::SchedPath;
        let run = |explore: bool| {
            let mut s = sched(2, 1);
            let a = s.spawn(0);
            let _b = s.spawn(3);
            if explore {
                s.set_explore(ExploreCtl::new(SchedPath::empty(), false));
            }
            let mut order = Vec::new();
            for i in 0..40 {
                let t = s.next().unwrap();
                if explore {
                    assert_eq!(s.explore_preempt(t), None);
                    assert!(!s.explore_interrupt_kill(), "interrupts off consume nothing");
                }
                order.push(t);
                s.advance(t, 7 + (i % 5) as Cycles);
            }
            let _ = a;
            order
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn preempt_without_alternates_consumes_no_decision() {
        use crate::explore::SchedPath;
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        s.set_explore(ExploreCtl::new(SchedPath::new(vec![1, 1]), false));
        s.park(b);
        assert_eq!(s.next(), Some(a));
        assert_eq!(s.explore_preempt(a), None, "no runnable alternate");
        assert_eq!(s.explore().unwrap().decisions(), 0);
        // Parking the pinned thread clears the pin.
        s.unpark(b, 0);
        assert_eq!(s.explore_preempt(a), Some(b));
        s.park(b);
        assert_eq!(s.next(), Some(a), "pin on a parked thread dissolves");
    }

    /// `next` must return `t` `n` times running, `t` advancing by `cost`
    /// after each; from the second pick on the horizon must be live.
    fn streak(s: &mut Scheduler, t: ThreadId, n: usize, cost: Cycles) {
        for i in 0..n {
            assert_eq!(s.next(), Some(t), "pick {i} of the streak");
            assert!(i == 0 || s.horizon != NO_HORIZON, "horizon learnt by pick {i}");
            s.advance(t, cost);
        }
    }

    #[test]
    fn unpark_at_an_earlier_time_ends_the_streak() {
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        s.park(b);
        streak(&mut s, a, 5, 100);
        s.unpark(b, 120);
        assert_eq!(s.horizon, NO_HORIZON);
        assert_eq!(s.next(), Some(b), "b (ready at 120) precedes a (clock 500)");
        assert_eq!(s.clock(b), 120);
    }

    #[test]
    fn spawn_mid_streak_loses_the_tie_then_runs_as_soon_as_it_is_behind() {
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        streak(&mut s, a, 3, 100);
        let c = s.spawn(s.clock(a));
        assert_eq!(s.next(), Some(a), "tie at 300 goes to the spawner (smaller tid)");
        s.advance(a, 1);
        assert_eq!(s.next(), Some(c));
        assert_eq!(s.clock(c), 300);
    }

    #[test]
    fn sleeper_due_inside_a_streak_wakes_exactly_at_its_deadline() {
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(a));
        s.advance(a, 10);
        assert_eq!(s.next(), Some(b));
        s.sleep_until(b, 1_000);
        streak(&mut s, a, 11, 90); // 10 → 1000
        assert_eq!(s.horizon, (1_000, b));
        assert_eq!(s.next(), Some(a), "tie at the deadline goes to the smaller tid");
        s.advance(a, 1);
        assert_eq!(s.next(), Some(b));
        assert_eq!((s.clock(b), s.busy(b), s.state(b)), (1_000, 0, ThreadState::Runnable));
    }

    #[test]
    fn tie_at_the_horizon_goes_to_the_smaller_tid_from_both_sides() {
        let mut s = sched(3, 1);
        let a = s.spawn(1_000);
        let b = s.spawn(0);
        let c = s.spawn(1_000);
        streak(&mut s, b, 2, 500);
        // b reaches the horizon set by a smaller tid: a wins the tie.
        assert_eq!(s.horizon, (1_000, a));
        assert_eq!(s.next(), Some(a));
        s.advance(a, 10);
        // b's horizon is now c, a larger tid: b wins the tie, running ahead.
        streak(&mut s, b, 3, 0);
        assert_eq!(s.horizon, (1_000, c));
        s.advance(b, 1);
        assert_eq!(s.next(), Some(c));
    }

    #[test]
    fn quantum_expiry_mid_streak_hands_over_at_the_same_pick() {
        let mut s = sched(1, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        s.park(b);
        assert_eq!(s.next(), Some(a));
        // A runnable slot waiter that is not due yet: a keeps running ahead
        // of it until the quantum is spent, not a pick longer.
        s.unpark(b, 1_000_000);
        assert_eq!(s.slotless, 1);
        streak(&mut s, a, 5, 10_000);
        assert_eq!(s.clock(a), OVERSUB_QUANTUM);
        // Hand-over to b at its wake time plus the switch; a, still first,
        // is re-selected and takes the only slot straight back (b's clock
        // is the switch point), paying a switch of its own.
        assert_eq!(s.next(), Some(a));
        assert_eq!((s.clock(b), s.busy(b)), (1_001_000, 1_000));
        assert_eq!((s.clock(a), s.busy(a)), (1_002_000, OVERSUB_QUANTUM + 1_000));
        assert_eq!(s.threads[a].slot_usage, 0);
        assert!(s.threads[b].slot.is_none());
        assert_eq!(s.next(), Some(b));
    }

    #[test]
    fn pin_installed_mid_streak_overrides_the_horizon() {
        use crate::explore::SchedPath;
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        let b = s.spawn(1_000);
        s.set_explore(ExploreCtl::new(SchedPath::new(vec![0, 0, 1]), false));
        for _ in 0..2 {
            assert_eq!(s.next(), Some(a));
            assert_eq!(s.explore_preempt(a), None);
            s.advance(a, 10);
        }
        assert_eq!(s.next(), Some(a));
        assert_eq!(s.horizon, (1_000, b), "choice 0 leaves the horizon standing");
        assert_eq!(s.explore_preempt(a), Some(b));
        assert_eq!(s.next(), Some(b), "the pin beats a (clock 20) being first");
        s.advance(b, 5);
        assert_eq!(s.next(), Some(b));
        assert_eq!(s.explore_preempt(b), None);
        assert_eq!(s.next(), Some(a), "min-clock scheduling resumes");
    }

    #[test]
    fn run_ahead_is_zero_until_a_horizon_is_learnt_and_for_any_other_thread() {
        let mut s = sched(3, 1);
        let a = s.spawn(1_000);
        let b = s.spawn(0);
        assert_eq!(s.next(), Some(b));
        assert_eq!(s.run_ahead(b), 0, "a first pick learns no horizon");
        s.advance(b, 10);
        assert_eq!(s.next(), Some(b));
        assert_eq!(s.run_ahead(b), 990);
        assert_eq!(s.run_ahead(a), 0, "a is not the thread next() returned");
        s.park(a);
        assert_eq!(s.run_ahead(b), 0, "a state change drops the horizon");
    }

    #[test]
    fn run_ahead_counts_the_tie_from_both_tids_and_saturates_past_the_horizon() {
        let mut s = sched(3, 1);
        let a = s.spawn(1_000);
        let b = s.spawn(0);
        let c = s.spawn(2_000);
        streak(&mut s, b, 2, 400);
        assert_eq!(s.next(), Some(b));
        // a, the smaller tid, wins a tie at 1000: b may use 200 cycles, not 201.
        assert_eq!((s.horizon, s.run_ahead(b)), ((1_000, a), 200));
        s.advance(b, 200);
        assert_eq!(s.run_ahead(b), 0, "at the horizon behind a smaller tid");
        s.advance(b, 50);
        assert_eq!(s.run_ahead(b), 0, "a charge past the horizon must not wrap");
        assert_eq!(s.next(), Some(a));
        s.advance(a, 100);
        s.finish(a);
        streak(&mut s, b, 2, 0);
        // c, the larger tid, loses a tie at 2000: b may use 950 + 1 cycles.
        assert_eq!((s.horizon, s.run_ahead(b)), ((2_000, c), 951));
        s.advance(b, 950);
        assert_eq!(s.run_ahead(b), 1);
        assert_eq!(s.next(), Some(b));
        s.advance(b, 1);
        assert_eq!(s.run_ahead(b), 0);
        assert_eq!(s.next(), Some(c));
    }

    #[test]
    fn run_ahead_of_a_lone_runner_is_boundless_and_of_a_pinned_run_zero() {
        use crate::explore::SchedPath;
        let mut s = sched(2, 1);
        let a = s.spawn(0);
        streak(&mut s, a, 2, 10);
        assert_eq!(s.horizon.0, NEVER_READY);
        assert_eq!(s.run_ahead(a), Cycles::MAX - 20 + 1);
        let b = s.spawn(1_000);
        s.set_explore(ExploreCtl::new(SchedPath::new(vec![0, 0, 1]), false));
        for _ in 0..2 {
            assert_eq!(s.next(), Some(a));
            assert_eq!(s.explore_preempt(a), None);
        }
        assert_eq!(s.run_ahead(a), 981, "the tie at 1000 goes to a");
        assert_eq!(s.explore_preempt(a), Some(b));
        assert_eq!(s.run_ahead(a), 0, "a pin drops the horizon");
        assert_eq!(s.next(), Some(b));
        assert_eq!(s.next(), Some(b));
        assert_eq!(s.run_ahead(b), 0, "a pinned pick learns none");
    }

    #[test]
    fn run_ahead_stops_at_the_quantum_only_while_a_slot_waiter_exists() {
        let mut s = sched(1, 1);
        let a = s.spawn(0);
        let b = s.spawn(0);
        s.park(b);
        streak(&mut s, a, 2, 10_000);
        assert_eq!(s.run_ahead(a), Cycles::MAX - 20_000 + 1, "nobody to hand the slot to");
        s.unpark(b, 1_000_000);
        streak(&mut s, a, 2, 10_000);
        assert_eq!(s.run_ahead(a), OVERSUB_QUANTUM - 40_000);
        s.advance(a, 10_000);
        assert_eq!(s.run_ahead(a), 0, "quantum spent: the next pick hands over");
        assert_eq!(s.pick_counts(), (3, 1), "one pick of the second streak ran ahead");
    }

    #[test]
    fn slotless_matches_the_recount_after_every_call() {
        let mut s = sched(1, 1);
        let check = |s: &Scheduler, want: usize| {
            assert_eq!((s.slotless, s.slotless_recount()), (want, want));
        };
        let a = s.spawn(0);
        let b = s.spawn(0);
        let c = s.spawn(0);
        check(&s, 3);
        assert_eq!(s.next(), Some(a)); // a takes the free slot
        check(&s, 2);
        s.park(b); // slotless waiter leaves
        check(&s, 1);
        s.advance(a, 10);
        assert_eq!(s.next(), Some(c)); // c preempts a: net zero
        check(&s, 1);
        s.sleep_until(c, 5_000); // holder leaves, slot freed
        check(&s, 1);
        s.unpark(b, 0);
        s.unpark(b, 0); // spurious second wake counts nothing
        check(&s, 2);
        assert_eq!(s.next(), Some(b));
        check(&s, 1);
        s.finish(a); // slotless waiter finishes
        check(&s, 0);
        s.finish(a);
        check(&s, 0);
        s.advance(b, 10_000);
        assert_eq!(s.next(), Some(c)); // sleeper wakes slotless, preempts b
        check(&s, 1);
        s.park(c);
        assert_eq!(s.next(), Some(b)); // b retakes the freed slot
        check(&s, 0);
        s.finish(b);
        s.finish(c);
        check(&s, 0);
        assert!(s.all_finished());
    }

    #[test]
    fn determinism_same_sequence() {
        let run = || {
            let mut s = sched(2, 1);
            let _a = s.spawn(0);
            let _b = s.spawn(3);
            let _c = s.spawn(1);
            let mut order = Vec::new();
            for i in 0..50 {
                let t = s.next().unwrap();
                order.push(t);
                s.advance(t, 7 + (i % 5) as Cycles);
            }
            order
        };
        assert_eq!(run(), run());
    }
}
