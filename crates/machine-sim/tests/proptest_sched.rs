//! Property tests for the discrete-event scheduler.

use machine_sim::{Cycles, Scheduler, ThreadId, ThreadState};
use proptest::prelude::*;

/// `sched::OVERSUB_QUANTUM` (private there).
const QUANTUM: Cycles = 50_000;

#[derive(Debug, Clone, PartialEq)]
struct ModelThread {
    clock: Cycles,
    state: ThreadState,
    slot: Option<usize>,
    slot_usage: Cycles,
    busy: Cycles,
}

/// The scheduler with nothing cached and nothing remembered: every pick
/// recomputes `(ready, tid)` per state over the whole table and walks it
/// for a slot waiter. [`Scheduler`] must be indistinguishable from it.
#[derive(Clone)]
struct Model {
    threads: Vec<ModelThread>,
    cores: usize,
    smt: usize,
    slots: Vec<Option<ThreadId>>,
    context_switch: Cycles,
}

impl Model {
    fn new(cores: usize, smt: usize, context_switch: Cycles) -> Self {
        Model { threads: Vec::new(), cores, smt, slots: vec![None; cores * smt], context_switch }
    }

    fn spawn(&mut self, start: Cycles) {
        let state = ThreadState::Runnable;
        self.threads.push(ModelThread { clock: start, state, slot: None, slot_usage: 0, busy: 0 });
    }

    fn advance(&mut self, t: ThreadId, cycles: Cycles) {
        let th = &mut self.threads[t];
        th.clock += cycles;
        th.busy += cycles;
        th.slot_usage += cycles;
    }

    fn rewind(&mut self, t: ThreadId, to: Cycles) {
        let th = &mut self.threads[t];
        let back = th.clock - to;
        th.clock = to;
        th.busy -= back;
        th.slot_usage -= back;
    }

    /// A slot waiter exists, or more sleepers than free slots.
    fn oversubscribed(&self) -> bool {
        let waiter =
            self.threads.iter().any(|th| th.state == ThreadState::Runnable && th.slot.is_none());
        let sleepers = self
            .threads
            .iter()
            .filter(|th| matches!(th.state, ThreadState::Sleeping { .. }))
            .count();
        waiter || sleepers > self.slots.iter().filter(|s| s.is_none()).count()
    }

    fn stop(&mut self, t: ThreadId, state: ThreadState) {
        if let Some(s) = self.threads[t].slot.take() {
            self.slots[s] = None;
            self.threads[t].slot_usage = 0;
        }
        self.threads[t].state = state;
    }

    fn sleep_until(&mut self, t: ThreadId, until: Cycles) {
        let until = until.max(self.threads[t].clock);
        self.stop(t, ThreadState::Sleeping { until });
    }

    fn unpark(&mut self, t: ThreadId, at: Cycles) {
        let th = &mut self.threads[t];
        if matches!(th.state, ThreadState::Parked | ThreadState::Sleeping { .. }) {
            th.clock = th.clock.max(at);
            th.state = ThreadState::Runnable;
        }
    }

    fn smt_sibling_busy(&self, t: ThreadId) -> bool {
        let Some(slot) = self.threads[t].slot else { return false };
        let core = slot % self.cores;
        (0..self.smt).any(|lane| {
            let s = lane * self.cores + core;
            s != slot && self.slots[s].is_some()
        })
    }

    fn next(&mut self) -> Option<ThreadId> {
        let (ready, tid) = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, th)| match th.state {
                ThreadState::Runnable => Some((th.clock, i)),
                ThreadState::Sleeping { until } => Some((th.clock.max(until), i)),
                _ => None,
            })
            .min()?;
        self.threads[tid].clock = ready;
        self.threads[tid].state = ThreadState::Runnable;
        self.acquire_slot(tid);
        if self.threads[tid].slot_usage >= QUANTUM {
            let waiter = self
                .threads
                .iter()
                .enumerate()
                .find(|&(i, th)| th.state == ThreadState::Runnable && th.slot.is_none() && i != tid)
                .map(|(i, _)| i);
            if let Some(w) = waiter {
                let slot = self.threads[tid].slot.take().expect("holder slot");
                self.threads[tid].slot_usage = 0;
                let switch_at = self.threads[tid].clock;
                self.slots[slot] = Some(w);
                let wt = &mut self.threads[w];
                wt.slot = Some(slot);
                wt.slot_usage = 0;
                wt.clock = wt.clock.max(switch_at) + self.context_switch;
                wt.busy += self.context_switch;
                return self.next();
            }
        }
        Some(tid)
    }

    /// Would `t`, had it consumed `cycles` more, be picked again with
    /// nothing else changing (no wake, no slot hand-over)?
    fn still_next_after(&self, t: ThreadId, cycles: Cycles) -> bool {
        let mut m = self.clone();
        m.advance(t, cycles);
        let before = m.threads.clone();
        m.next() == Some(t) && m.threads == before
    }

    fn acquire_slot(&mut self, t: ThreadId) {
        if self.threads[t].slot.is_some() {
            return;
        }
        if let Some(free) = self.slots.iter().position(|s| s.is_none()) {
            self.slots[free] = Some(t);
            self.threads[t].slot = Some(free);
            self.threads[t].slot_usage = 0;
        } else {
            let victim = self
                .slots
                .iter()
                .filter_map(|s| *s)
                .max_by_key(|&v| (self.threads[v].slot_usage, usize::MAX - v))
                .expect("all slots held");
            let switch_at = self.threads[victim].clock;
            let slot = self.threads[victim].slot.take().expect("victim slot");
            self.threads[victim].slot_usage = 0;
            self.slots[slot] = Some(t);
            let th = &mut self.threads[t];
            th.slot = Some(slot);
            th.slot_usage = 0;
            th.clock = th.clock.max(switch_at) + self.context_switch;
            th.busy += self.context_switch;
        }
    }
}

/// One step of a differential script; thread operands are taken modulo
/// the number of threads spawned so far.
#[derive(Debug, Clone)]
enum Step {
    /// `next`, then `advance` the returned thread.
    Run(Cycles),
    /// Take back this much (modulo what it was charged) of the last `Run`'s
    /// advance, if nothing happened since.
    Rewind(Cycles),
    Advance(usize, Cycles),
    SleepFor(usize, Cycles),
    Park(usize),
    /// `unpark` this much before (0), exactly at (1) or this much after
    /// (2) the last pick's clock.
    Unpark(usize, u8, Cycles),
    Finish(usize),
    /// `spawn` at the last pick's clock, up to [`MAX_THREADS`].
    Spawn,
}

const MAX_THREADS: usize = 6;

fn steps() -> impl Strategy<Value = Step> {
    let t = 0..MAX_THREADS;
    // Run arms outnumber the rest so streaks form between the mutations;
    // their costs sit on both sides of the quantum.
    prop_oneof![
        (1u64..40).prop_map(Step::Run),
        (1u64..40).prop_map(Step::Run),
        (0u64..4_000).prop_map(Step::Run),
        (0u64..4_000).prop_map(Step::Run),
        (QUANTUM / 3..QUANTUM / 2).prop_map(Step::Run),
        (QUANTUM - 2..QUANTUM + 3).prop_map(Step::Run),
        (0u64..4_000).prop_map(Step::Rewind),
        (t.clone(), 0u64..3_000).prop_map(|(t, c)| Step::Advance(t, c)),
        (t.clone(), 0u64..6_000).prop_map(|(t, c)| Step::SleepFor(t, c)),
        t.clone().prop_map(Step::Park),
        (t.clone(), 0u8..3, 0u64..3_000).prop_map(|(t, k, c)| Step::Unpark(t, k, c)),
        t.prop_map(Step::Finish),
        proptest::strategy::Just(Step::Spawn),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Advance(usize, u64),
    SleepFor(usize, u64),
    Park(usize),
    Unpark(usize, u64),
    Finish(usize),
}

fn ops(nthreads: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nthreads, 1u64..10_000).prop_map(|(t, c)| Op::Advance(t, c)),
        (0..nthreads, 1u64..50_000).prop_map(|(t, c)| Op::SleepFor(t, c)),
        (0..nthreads).prop_map(Op::Park),
        (0..nthreads, 0u64..100_000).prop_map(|(t, a)| Op::Unpark(t, a)),
        (0..nthreads).prop_map(Op::Finish),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Core liveness invariants under arbitrary state churn: `next()` only
    /// returns non-finished threads, leaves them runnable, and clocks never
    /// move backwards. (That the returned thread is the one with the
    /// minimum ready time is `scheduler_matches_naive_model` below.)
    #[test]
    fn scheduler_invariants(
        cores in 1usize..5,
        smt in 1usize..3,
        script in proptest::collection::vec(ops(4), 1..120),
    ) {
        let mut s = Scheduler::new(cores, smt, 500);
        for _ in 0..4 {
            s.spawn(0);
        }
        let mut last_clock = [0u64; 4];
        for op in script {
            match op {
                Op::Advance(t, c) => {
                    if s.state(t) != ThreadState::Finished {
                        s.advance(t, c);
                    }
                }
                Op::SleepFor(t, c) => {
                    if matches!(s.state(t), ThreadState::Runnable) {
                        let until = s.clock(t) + c;
                        s.sleep_until(t, until);
                    }
                }
                Op::Park(t) => {
                    if matches!(s.state(t), ThreadState::Runnable) {
                        s.park(t);
                    }
                }
                Op::Unpark(t, a) => {
                    if matches!(s.state(t), ThreadState::Parked | ThreadState::Sleeping { .. }) {
                        s.unpark(t, a);
                    }
                }
                Op::Finish(t) => {
                    if s.state(t) != ThreadState::Finished {
                        s.finish(t);
                    }
                }
            }
            for (t, last) in last_clock.iter_mut().enumerate() {
                prop_assert!(s.clock(t) >= *last, "clock of t{t} went backwards");
                *last = s.clock(t);
            }
            if let Some(t) = s.next() {
                prop_assert_ne!(s.state(t), ThreadState::Finished);
                // After `next` the chosen thread is runnable.
                prop_assert_eq!(s.state(t), ThreadState::Runnable);
            } else {
                // No runnable/sleeping thread may remain.
                for t in 0..4 {
                    prop_assert!(matches!(
                        s.state(t),
                        ThreadState::Parked | ThreadState::Finished
                    ));
                }
            }
        }
    }

    /// Busy time is conserved: the sum of advances equals the sum of busy
    /// counters (modulo context-switch surcharges, which only occur under
    /// oversubscription — excluded here by using enough cores).
    #[test]
    fn busy_time_conserved(
        advances in proptest::collection::vec((0usize..3, 1u64..1_000), 1..80),
    ) {
        let mut s = Scheduler::new(4, 1, 500);
        for _ in 0..3 {
            s.spawn(0);
        }
        // Claim slots first (3 threads on 4 cores: never oversubscribed).
        for _ in 0..3 {
            let t = s.next().unwrap();
            s.advance(t, 0);
        }
        let mut expect = [0u64; 3];
        for (t, c) in advances {
            s.advance(t, c);
            expect[t] += c;
        }
        for (t, &e) in expect.iter().enumerate() {
            prop_assert_eq!(s.busy(t), e);
            prop_assert_eq!(s.clock(t), e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Model-based differential: `Scheduler` (ready cache, slot-waiter
    /// count, run-ahead horizon) against [`Model`] in lock-step, `rewind`
    /// (taking back part of the last advance, as an executor does with
    /// steps run ahead) and `oversubscribed` included.
    /// Most topologies here are oversubscribed. Must hold in `--release`
    /// too, where the scheduler's own `debug_assert`s are compiled out.
    ///
    /// After every pick, `run_ahead` is held to the model as well: the
    /// picked thread stays the model's pick after consuming anything
    /// below the room it was promised, and not after consuming all of it
    /// (a boundless room: nobody else can run without an external wake).
    /// The second half holds while the horizon is exact: a clock raised
    /// behind the scheduler's back (`stale`) leaves it a lower bound until
    /// something drops it.
    #[test]
    fn scheduler_matches_naive_model(
        cores in 1usize..5,
        smt in 1usize..3,
        script in proptest::collection::vec(steps(), 1..200),
    ) {
        let mut s = Scheduler::new(cores, smt, 500);
        let mut m = Model::new(cores, smt, 500);
        for start in [0, 0, 7] {
            s.spawn(start);
            m.spawn(start);
        }
        let mut last = 0;
        let mut stale = false;
        // The thread and cost of the last `Run`, while nothing followed it.
        let mut undoable = None;
        for (n, step) in script.into_iter().enumerate() {
            let len = m.threads.len();
            let now = m.threads[last].clock;
            let ran = std::mem::take(&mut undoable);
            match step {
                Step::Rewind(c) => {
                    if let Some((t, cost)) = ran {
                        let to = s.clock(t) - c % (cost + 1);
                        s.rewind(t, to);
                        m.rewind(t, to);
                        stale = false;
                    }
                }
                Step::Run(cost) => {
                    let pick = s.next();
                    prop_assert_eq!(pick, m.next(), "pick at step {}", n);
                    if let Some(t) = pick {
                        stale &= t == last;
                        let room = s.run_ahead(t);
                        if room > Cycles::MAX / 2 {
                            let others = m.threads.iter().enumerate().filter(|&(i, th)| {
                                i != t && matches!(th.state, ThreadState::Runnable | ThreadState::Sleeping { .. })
                            });
                            prop_assert_eq!(others.count(), 0, "boundless room at step {}", n);
                        } else if room > 0 {
                            for c in [0, cost % room, room - 1] {
                                prop_assert!(m.still_next_after(t, c), "{} of room {} at step {}", c, room, n);
                            }
                            prop_assert!(stale || !m.still_next_after(t, room), "all of room {} at step {}", room, n);
                        }
                        s.advance(t, cost);
                        m.advance(t, cost);
                        last = t;
                        undoable = Some((t, cost));
                    }
                }
                Step::Advance(t, c) => {
                    s.advance(t % len, c);
                    m.advance(t % len, c);
                    stale = true;
                }
                Step::SleepFor(t, c) => {
                    let (t, until) = (t % len, m.threads[t % len].clock + c);
                    if matches!(m.threads[t].state, ThreadState::Runnable | ThreadState::Sleeping { .. }) {
                        s.sleep_until(t, until);
                        m.sleep_until(t, until);
                        stale = false;
                    }
                }
                Step::Park(t) => {
                    if m.threads[t % len].state != ThreadState::Finished {
                        s.park(t % len);
                        m.stop(t % len, ThreadState::Parked);
                        stale = false;
                    }
                }
                Step::Unpark(t, when, c) => {
                    if m.threads[t % len].state != ThreadState::Finished {
                        let at = [now.saturating_sub(c), now, now + c][when as usize];
                        s.unpark(t % len, at);
                        m.unpark(t % len, at);
                    }
                }
                Step::Finish(t) => {
                    s.finish(t % len);
                    m.stop(t % len, ThreadState::Finished);
                    stale = false;
                }
                Step::Spawn => {
                    if len < MAX_THREADS {
                        s.spawn(now);
                        m.spawn(now);
                        stale = false;
                    }
                }
            }
            for (t, th) in m.threads.iter().enumerate() {
                let got = (s.clock(t), s.busy(t), s.state(t), s.smt_sibling_busy(t));
                let want = (th.clock, th.busy, th.state, m.smt_sibling_busy(t));
                prop_assert_eq!(got, want, "t{} after step {}", t, n);
            }
            prop_assert_eq!(s.oversubscribed(), m.oversubscribed(), "oversubscribed after step {}", n);
        }
    }
}
