//! The deterministic executor: drives the Ruby VM over the discrete-event
//! scheduler a *burst* at a time — the picked thread runs bytecodes up to
//! its event horizon, the first moment anything here has a decision to
//! make (`Executor::burst_budget`, DESIGN.md §4 "Scheduling") —
//! implementing the paper's Figures 1–3 as a per-thread state machine.
//!
//! State per thread (HTM modes): exactly one of
//! * *in transaction* — registers snapshotted at begin; aborts roll the
//!   memory back via the undo log and the registers via the snapshot;
//! * *holding the GIL* — the fallback (or single-thread) path;
//! * *neither* — about to run `transaction_begin` at its current pc;
//! * *parked* — on the GIL queue, a mutex/barrier/join, or sleeping on
//!   simulated I/O.
//!
//! Every cycle goes on a clock through [`Executor::charge`], booked to one
//! of the paper's Fig. 8 categories. Whatever a step does outside simulated
//! memory — its work cycles included — is an [`Escrow`]: published at once
//! outside a transaction, held by the transaction inside one and published
//! at commit or discarded on abort (DESIGN.md §4, "Commit escrow and
//! host-side state").

use std::collections::HashMap;

use htm_sim::abort::abort_codes;
use htm_sim::{AbortReason, Budgets, OverflowPredictor, SpuriousCause};
use machine_sim::{Cycles, InterruptTimer, MachineProfile, Scheduler, ThreadId};
use ruby_vm::interp::LeasedStep;
use ruby_vm::vm::WakeKey;
use ruby_vm::{BlockOn, StepOk, Stop, Vm, VmAbort, VmConfig, Word};

use crate::config::{ExecConfig, LengthPolicy, RuntimeMode, YieldPolicy};
use crate::gil::GilState;
use crate::locks::FineGrainedModel;
use crate::report::{Category, ConflictSite, CycleBreakdown, RunReport};
use crate::tle::{LengthTables, SubscriptionPolicy};

/// Fatal run failure.
#[derive(Debug)]
pub enum RunError {
    Boot(String),
    Vm(String),
    Deadlock(String),
    /// The configured simulated-cycle budget ran out. Carries the same
    /// thread-state dump as [`RunError::Deadlock`] — a cycle-limit hit is
    /// usually an application-level livelock, and the dump shows where
    /// every thread was spinning.
    CycleLimit {
        limit: u64,
        dump: String,
    },
    /// Forward-progress invariant violation: the scheduler kept running
    /// threads, but no instruction committed for `steps` consecutive
    /// scheduling steps — a livelock the retry machinery failed to break.
    NoProgress {
        steps: u64,
        dump: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Boot(m) => write!(f, "boot error: {m}"),
            RunError::Vm(m) => write!(f, "vm error: {m}"),
            RunError::Deadlock(m) => write!(f, "deadlock: {m}"),
            RunError::CycleLimit { limit, dump } => {
                write!(f, "cycle limit {limit} exceeded\n{dump}")
            }
            RunError::NoProgress { steps, dump } => {
                write!(f, "no committed instruction in {steps} scheduler steps (livelock)\n{dump}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// What a run of steps did outside simulated memory, where the undo log
/// cannot reach it. One step's worth is collected by
/// [`Executor::settle`]; an open transaction accumulates its steps' and
/// the whole value is then published at commit or discarded on abort, so
/// the slice stays all-or-nothing on the host side too.
#[derive(Debug, Clone, Default)]
struct Escrow {
    /// Work cycles, on the clock and bound for `tx_success` or `aborted`.
    work: Cycles,
    /// Instructions retired.
    insns: u64,
    /// Method-table version bumps (redefinitions): the table words become
    /// visible to other threads at commit, and so does the version that
    /// kills their inline caches.
    method_bumps: u32,
    /// `srv_mark` lifecycle events; they take the clock of their
    /// publication, and an aborted slice leaves no phantom latency events.
    marks: Vec<(u8, i64)>,
    /// Wake keys (a transactional `Mutex#unlock`'s owner-word write is
    /// invisible until commit, so its wake must be too). A phantom wake
    /// from an uncommitted unlock revives the whole waiter herd against a
    /// still-locked mutex, and each woken thread's GIL fallback then dooms
    /// the unlocking transaction before it can commit: a self-sustaining
    /// livelock at high thread counts.
    wakes: Vec<WakeKey>,
}

/// Active-transaction bookkeeping.
#[derive(Debug, Clone)]
struct TxInfo {
    /// Global pc of the yield point the transaction started at.
    start_pc: u32,
    snapshot: ruby_vm::vm::RegSnapshot,
    escrow: Escrow,
}

/// The livelock watchdog (`ExecConfig::watchdog`): the Fig. 1 budgets bound
/// an *attempt sequence*, but a thread whose every transaction dies still
/// pays `tbegin + abort_penalty` per attempt. A thread that aborts this many
/// times with no commit in between, across sequences, escalates …
const WATCHDOG_ESCALATION: u32 = 12;
/// … to this many GIL tenures without speculating, doubled by each further
/// escalation up to the cap and reset by a commit: a 100 % abort rate
/// converges on plain GIL throughput.
const WATCHDOG_COOLDOWN_BASE: u32 = 8;
const WATCHDOG_COOLDOWN_MAX: u32 = 512;

/// Per-thread TLE controller state (paper Fig. 1's local variables).
#[derive(Debug, Clone)]
struct TleThread {
    tx: Option<TxInfo>,
    /// The last transaction's escrow, emptied: capacity for the next one.
    spare: Escrow,
    transient_retries: u32,
    gil_retries: u32,
    first_retry: bool,
    /// Pending begin at this global pc (after an abort or a yield).
    resume_pc: Option<u32>,
    /// Committed to acquiring the GIL (paper Fig. 1 `gil_acquire()` blocks
    /// until ownership): survives parking, so a woken thread completes the
    /// acquisition instead of attempting another transaction.
    want_gil: bool,
    /// The context (transaction or GIL) was just established at the
    /// current pc: the instruction there must execute before the next
    /// yield-point decision, matching Fig. 1's retry loop, which re-enters
    /// the critical section without re-running `transaction_yield`.
    fresh: bool,
    /// The next `transaction_begin` is a *retry* of the same attempt
    /// sequence (Fig. 1's `goto transaction_retry`): keep the retry
    /// counters and do not re-run `set_transaction_length`.
    retrying: bool,
    /// Aborted transactions since this thread's last commit, *across*
    /// attempt sequences (the Fig. 1 budgets reset per sequence; this
    /// counter does not). Feeds the livelock watchdog.
    consecutive_aborts: u32,
    /// Remaining forced-GIL tenures before speculation is retried
    /// (watchdog escalation in effect while > 0).
    cooldown: u32,
    /// Cooldown length for the *next* escalation — doubled on each
    /// escalation, reset to [`WATCHDOG_COOLDOWN_BASE`] by a commit.
    backoff: u32,
    /// Steps run past the lock-step horizon ([`Executor::look_ahead`]).
    ahead: Vec<LeasedStep>,
}

/// Steps one window of [`Executor::look_ahead`] may run.
const LOOKAHEAD_STEPS: usize = 128;

/// A step's work (for [`Executor::charge`]), booked when its transaction ends, if any.
const WORK: Option<Category> = None;

impl TleThread {
    fn new() -> Self {
        TleThread {
            tx: None,
            spare: Escrow::default(),
            transient_retries: 0,
            gil_retries: 0,
            first_retry: true,
            resume_pc: None,
            want_gil: false,
            fresh: false,
            retrying: false,
            consecutive_aborts: 0,
            cooldown: 0,
            backoff: WATCHDOG_COOLDOWN_BASE,
            ahead: Vec::new(),
        }
    }

    fn reset_retries(&mut self, c: &crate::config::TleConstants) {
        self.transient_retries = c.transient_retry_max;
        self.gil_retries = c.gil_retry_max;
        self.first_retry = true;
    }
}

/// What a thread parked on (beyond the GIL queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum ParkKey {
    Mutex(usize),
    Barrier(usize),
    Join(ThreadId),
}

/// The executor.
pub struct Executor {
    pub vm: Vm,
    pub sched: Scheduler,
    pub profile: MachineProfile,
    pub cfg: ExecConfig,
    gil: GilState,
    tle: Vec<TleThread>,
    /// Full (non-SMT-halved) footprint budgets, fixed by the machine
    /// profile — computed once at boot so the per-begin path avoids the
    /// byte→line divisions.
    base_budgets: Budgets,
    tables: LengthTables,
    fine: FineGrainedModel,
    /// Parked threads by key.
    parked: HashMap<ParkKey, Vec<ThreadId>>,
    /// Committed/wasted instruction counts.
    committed_insns: u64,
    wasted_insns: u64,
    /// Every cycle [`Executor::charge`] put on a clock, by Fig. 8 category.
    breakdown: CycleBreakdown,
    /// Work outside a transaction: `gil_held`, or `tx_success` with no GIL.
    work: Category,
    conflict_sites: HashMap<ConflictSite, u64>,
    /// Allocation count at the previous step (per-step delta source).
    last_allocs: u64,
    /// §5.6 timer-interrupt model (disabled unless the config arms it).
    interrupts: InterruptTimer,
    /// Watchdog escalations performed (report statistic).
    watchdog_escalations: u64,
    /// Task-latency accounting fed by committed `srv_mark` events.
    latency: crate::latency::LatencyRecorder,
    /// Scheduler steps since `committed_insns` last advanced, each step
    /// run ahead ([`Executor::look_ahead`]) counted from when it ran.
    stalled_steps: u64,
    /// Bursts run (a host-work counter).
    bursts: u64,
    /// Pre-decoded flag bit identifying yield points under the effective
    /// yield policy (`decode::YP_ORIG` or `decode::YP_EXT`): the per-step
    /// yield test is one flags load and a mask instead of an instruction
    /// fetch plus a kind classification.
    yp_bit: u8,
    /// No trace ring, exploration controller or `FineGrained` charge
    /// observes steps one by one (see `burst_budget`).
    burst_ok: bool,
    /// `(clock, tid)` of the lock-step round being played: of the last
    /// pick, or of the last step of its burst once that ran several.
    round: (Cycles, ThreadId),
    /// Steps in all [`TleThread::ahead`] logs; steps run ahead and rewinds
    /// (host work).
    pending: u64,
    lookahead_steps: u64,
    rewinds: u64,
}

impl Executor {
    /// Boot a VM for `source` and prepare a run.
    pub fn new(
        source: &str,
        vm_config: VmConfig,
        profile: MachineProfile,
        cfg: ExecConfig,
    ) -> Result<Executor, RunError> {
        let mut vm =
            Vm::boot(source, vm_config, &profile).map_err(|e| RunError::Boot(e.to_string()))?;
        // Install the Intel learning predictor per hardware thread.
        if profile.htm.learning_predictor {
            for t in 0..vm.config.max_threads {
                vm.mem.set_predictor(
                    t,
                    OverflowPredictor::intel(profile.htm.predictor_memory, cfg.seed ^ t as u64),
                );
            }
        }
        let mut sched =
            Scheduler::new(profile.cores, profile.smt_per_core, profile.cost.context_switch);
        if let Some(ctl) = cfg.explore.clone() {
            sched.set_explore(ctl);
        }
        let t0 = sched.spawn(0);
        debug_assert_eq!(t0, 0);
        let total_pcs = vm.program.total_insns();
        let length_policy = match cfg.mode {
            RuntimeMode::Htm { length } => length,
            _ => LengthPolicy::Fixed(1),
        };
        let tables = LengthTables::new(total_pcs, length_policy, cfg.tle);
        let base_budgets = Budgets {
            read_lines: profile.cache.read_set_lines(),
            write_lines: profile.cache.write_set_lines(),
        };
        let first_timer = profile.cost.timer_interval;
        if cfg.trace_capacity > 0 {
            vm.mem.set_trace(cfg.trace_capacity);
        }
        if let Some(plan) = cfg.fault_plan {
            vm.mem.set_fault_plan(plan);
        }
        let interrupts = InterruptTimer::new(cfg.interrupt_interval);
        let yp_bit = match cfg.effective_yield_policy() {
            YieldPolicy::Original => ruby_vm::decode::YP_ORIG,
            YieldPolicy::Extended => ruby_vm::decode::YP_EXT,
        };
        let free = matches!(cfg.mode, RuntimeMode::FineGrained | RuntimeMode::Ideal);
        let burst_ok = cfg.trace_capacity == 0
            && cfg.explore.is_none()
            && cfg.mode != RuntimeMode::FineGrained;
        Ok(Executor {
            vm,
            sched,
            profile,
            cfg,
            gil: GilState::new(first_timer),
            tle: vec![TleThread::new()],
            base_budgets,
            tables,
            fine: FineGrainedModel::default(),
            parked: HashMap::new(),
            committed_insns: 0,
            wasted_insns: 0,
            breakdown: CycleBreakdown::default(),
            work: if free { Category::TxSuccess } else { Category::GilHeld },
            conflict_sites: HashMap::new(),
            last_allocs: 0,
            interrupts,
            watchdog_escalations: 0,
            latency: crate::latency::LatencyRecorder::new(),
            stalled_steps: 0,
            bursts: 0,
            yp_bit,
            burst_ok,
            round: (0, 0),
            pending: 0,
            lookahead_steps: 0,
            rewinds: 0,
        })
    }

    /// The host's own work, none of it in the report: scheduler picks that
    /// scanned, picks that ran ahead, bursts, the bytecodes they retired,
    /// steps run ahead of the lock-step horizon and rewinds of them.
    pub fn host_counters(&self) -> [u64; 6] {
        let (full, ahead) = self.sched.pick_counts();
        let bytecodes = self.committed_insns + self.wasted_insns;
        [full, ahead, self.bursts, bytecodes, self.lookahead_steps, self.rewinds]
    }

    /// Run the program to completion and report.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        let r = self.run_rounds();
        // What ran ahead of the round the run stopped in never ran.
        self.rewind_all(self.round);
        r.map(|()| self.report())
    }

    fn run_rounds(&mut self) -> Result<(), RunError> {
        loop {
            self.sync_ahead();
            let Some(t) = self.sched.next() else {
                if self.sched.all_finished() {
                    break;
                }
                return Err(RunError::Deadlock(self.deadlock_dump()));
            };
            // Lock-step order now puts all of `t`'s steps run ahead in the
            // past, where no event can reach them.
            self.round = (self.sched.clock(t), t);
            self.pending -= self.tle[t].ahead.len() as u64;
            self.tle[t].ahead.clear();
            if self.cfg.max_cycles != 0 && self.sched.clock(t) > self.cfg.max_cycles {
                return Err(RunError::CycleLimit {
                    limit: self.cfg.max_cycles,
                    dump: self.deadlock_dump(),
                });
            }
            if self.vm.threads[t].finished {
                self.sched.finish(t);
                continue;
            }
            // Stamp trace events with this thread's simulated clock.
            if self.cfg.trace_capacity > 0 {
                self.vm.mem.set_now(self.sched.clock(t));
            }
            // GIL-mode timer thread: wake up every interval and flag the
            // running (GIL-holding) thread (paper §3.2).
            if self.cfg.mode == RuntimeMode::Gil {
                let now = self.sched.clock(t);
                while now >= self.gil.next_timer {
                    self.gil.next_timer += self.profile.cost.timer_interval;
                    if let Some(h) = self.gil.holder {
                        let flag = self.vm.layout.thread_struct(h) + ruby_vm::layout::ts::INTERRUPT;
                        self.vm
                            .wr_untimed(h, flag, Word::Int(1))
                            .map_err(|r| self.plain_access_failed("timer flag write", r))?;
                    }
                }
            }
            // §5.6 interrupt model: a timer interrupt on `t`'s hardware
            // thread kills its in-flight transaction before it runs.
            if self.interrupts.is_enabled()
                && self.interrupts.due(t, self.sched.clock(t))
                && self.tle.get(t).is_some_and(|x| x.tx.is_some())
            {
                let reason = self.interrupt_kill(t);
                self.on_tx_abort(t, reason)?;
                continue;
            }
            // Forward-progress invariant: the retry/watchdog machinery
            // must keep instructions committing; a long stall is livelock.
            // A round is a stalled step, and so is every further step of a
            // burst in a transaction and every step run ahead; a
            // publication restarts the count.
            self.stalled_steps += 1;
            match self.cfg.mode {
                RuntimeMode::Gil => self.step_gil(t)?,
                RuntimeMode::Htm { .. } => self.step_htm(t)?,
                RuntimeMode::FineGrained | RuntimeMode::Ideal => self.step_free(t)?,
            }
            let bound = self.cfg.progress_bound_steps;
            if bound != 0 && self.stalled_steps + 1 >= bound {
                // Lock-step order from here, so the count is exact where
                // the bound may fall: what ran ahead runs again in it.
                self.rewind_all(self.round);
            }
            if bound != 0 && self.stalled_steps >= bound {
                return Err(RunError::NoProgress {
                    steps: self.stalled_steps,
                    dump: self.deadlock_dump(),
                });
            }
        }
        // Leased accesses batch their stats deltas; fold them in so the
        // report sees the same totals the per-word path would have.
        self.vm.mem.flush_lease_stats();
        Ok(())
    }

    /// Diagnostic snapshot for deadlock errors.
    fn deadlock_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("no runnable thread; {} live\n", self.sched.live_count());
        for t in 0..self.sched.len() {
            let c = &self.vm.threads[t];
            let _ = writeln!(
                out,
                "  t{t}: sched={:?} fin={} gil={} tx={} want_gil={} resume={:?} at {}:{}",
                self.sched.state(t),
                c.finished,
                self.gil.held_by(t),
                self.tle.get(t).is_some_and(|x| x.tx.is_some()),
                self.tle.get(t).is_some_and(|x| x.want_gil),
                self.tle.get(t).and_then(|x| x.resume_pc),
                self.vm.program.iseq(c.iseq).name,
                c.pc,
            );
        }
        // Sorted: the map's order differs from run to run. Keys whose
        // waiters were all woken keep an emptied list.
        let mut parked_keys: Vec<_> =
            self.parked.iter().filter(|(_, w)| !w.is_empty()).map(|(k, _)| k).collect();
        parked_keys.sort();
        let _ = writeln!(
            out,
            "  gil holder={:?} waiters={:?} parked_keys={parked_keys:?}",
            self.gil.holder, self.gil.waiters,
        );
        // Under exploration, append the trailing scheduler decision trail
        // so a stuck explored run is diagnosable without a rerun.
        if let Some(trail) = self.sched.explore_trail() {
            let _ = writeln!(out, "  sched decisions (tail): {trail}");
        }
        out
    }

    /// The abort behind the `Err` a step just returned. A fatal stop ends
    /// the run with its message; so does an `Err` whose raiser parked no
    /// stop at all — a VM bug, reported with the thread dump.
    fn take_tx_stop(&mut self) -> Result<AbortReason, RunError> {
        match self.vm.take_stop() {
            Some(Stop::Tx(reason)) => Ok(reason),
            Some(Stop::Fatal(e)) => Err(RunError::Vm(e.to_string())),
            None => Err(RunError::Vm(format!(
                "a step failed and parked no stop\n{}",
                self.deadlock_dump()
            ))),
        }
    }

    /// A plain runtime access outside any transaction aborted — only a
    /// broken memory invariant does that. A run error with the thread
    /// dump, not a torn-down process.
    fn plain_access_failed(&self, what: &str, reason: AbortReason) -> RunError {
        RunError::Vm(format!(
            "{what} aborted outside any transaction: {reason:?}\n{}",
            self.deadlock_dump()
        ))
    }

    /// A timer interrupt lands on `t`'s open transaction: the abort it
    /// takes. A remote doom may already have rolled the transaction back;
    /// that doom is then the reason.
    fn interrupt_kill(&mut self, t: ThreadId) -> AbortReason {
        match self.vm.mem.poll_doomed(t) {
            Some(r) => r,
            None => self.vm.mem.abort_spurious(t, SpuriousCause::TimerInterrupt),
        }
    }

    fn report(&self) -> RunReport {
        let elapsed = (0..self.sched.len()).map(|t| self.sched.clock(t)).max().unwrap_or(0);
        // The scheduler's own charges are its context switches.
        let mut breakdown = self.breakdown.clone();
        breakdown[Category::Other] += self.sched.switch_cycles();
        debug_assert_eq!(
            breakdown.total(),
            (0..self.sched.len()).map(|t| self.sched.busy(t)).sum::<Cycles>(),
            "every cycle on a clock is booked once"
        );
        let (trace_recorded, trace_dropped) = self
            .vm
            .mem
            .trace()
            .map_or((0, 0), |sink| (sink.len() as u64 + sink.dropped(), sink.dropped()));
        RunReport {
            mode_label: self.cfg.mode.label(),
            subscription: self.cfg.subscription,
            machine: self.profile.name,
            threads_used: self.sched.len(),
            elapsed_cycles: elapsed,
            committed_insns: self.committed_insns,
            wasted_insns: self.wasted_insns,
            breakdown,
            htm: self.vm.mem.stats().clone(),
            gil_acquisitions: self.gil.acquisitions,
            conflict_sites: self.conflict_sites.clone(),
            share_length_one: self.tables.share_of_length_one(),
            length_adjustments: self.tables.total_adjustments,
            yield_point_profiles: self.tables.profiles(),
            trace_events_recorded: trace_recorded,
            trace_events_dropped: trace_dropped,
            watchdog_escalations: self.watchdog_escalations,
            allocations: self.vm.allocations,
            gc_runs: self.vm.gc_runs,
            stdout: self.vm.stdout_text(),
            task_latency: self.latency.summary(),
        }
    }

    // ---- common helpers ------------------------------------------------------

    /// Current instruction's global pc for thread `t`.
    fn global_pc(&self, t: ThreadId) -> u32 {
        let c = &self.vm.threads[t];
        self.vm.program.global_pc(c.iseq, c.pc)
    }

    /// Is the instruction `t` is about to execute a yield point under the
    /// effective policy? One load from the decoded stream's flag lane.
    #[inline]
    fn at_yield_point(&self, t: ThreadId) -> bool {
        self.vm.insn_flags(t) & self.yp_bit != 0
    }

    /// The one way onto the clock: put `cycles` on `t`'s clock and book
    /// them to `cat`. [`WORK`] is a step's work: inside a transaction its
    /// escrow holds it until commit books it to `tx_success` or an abort to
    /// `aborted`; outside one it is booked at once (`Executor::work`).
    #[inline(always)]
    fn charge(&mut self, t: ThreadId, cat: impl Into<Option<Category>>, cycles: Cycles) {
        self.sched.advance(t, cycles);
        match (cat.into(), &mut self.tle[t].tx) {
            (None, Some(tx)) => tx.escrow.work += cycles,
            (cat, _) => self.breakdown[cat.unwrap_or(self.work)] += cycles,
        }
    }

    /// HTM footprint budgets for `t` right now (SMT halving, §5.4).
    fn budgets(&self, t: ThreadId) -> Budgets {
        if self.sched.smt_sibling_busy(t) {
            self.base_budgets.halved()
        } else {
            self.base_budgets
        }
    }

    /// Run `t` for one burst of VM steps, charge its cycles and settle its
    /// host-side effects — once for the burst. A step retires one
    /// bytecode; the charge is per retired bytecode (`dispatch ×
    /// step_insns` plus the accumulated memory/native costs), so a burst
    /// lands on the simulated clock exactly where its separate steps would
    /// have. `charge` is what the round spent before the burst and has not
    /// yet put on the clock (Fig. 2's counter test); it rides on the
    /// burst's one `charge`.
    #[inline(always)]
    fn raw_step(&mut self, t: ThreadId, charge: Cycles) -> Result<StepOk, VmAbort> {
        // What the round did so far may have moved another thread's clock,
        // which the budget reads.
        self.sync_ahead();
        let alone = self.sched.other_live_threads(t) == 0;
        self.vm.tx_method_bumps = self.tle[t].tx.as_ref().map_or(0, |tx| tx.escrow.method_bumps);
        self.vm.reset_step_counters();
        let yield_bit = if alone { 0 } else { self.yp_bit };
        let start = self.sched.clock(t) + charge;
        let r = self.vm.burst(t, self.burst_budget(t, charge), yield_bit);
        if self.vm.last_step_start != 0 {
            // Each step after a burst's first is a round of its own.
            self.round = (start + self.vm.last_step_start, t);
        }
        self.charge(t, WORK, self.vm.step_cost() + charge);
        self.settle(t);
        r
    }

    /// Cycles the burst about to run on `t` may cost: none past the point
    /// where another thread would be picked ([`Scheduler::run_ahead`]) or
    /// an event of the run loop's prologue falls due — GIL timer tick,
    /// cycle limit, §5.6 interrupt — and too few to overshoot the progress
    /// bound or the VM's `u32` counters (a step costs a cycle at least),
    /// counting the steps other threads ran ahead as if all came first.
    /// Zero — one step — where steps are observed one by one
    /// (`burst_ok`), and under `fresh`: left set by a restart at this
    /// very yield point, it exempts the *next* call's instruction
    /// (DESIGN.md §4, "Fig. 2's countdown, and its one known deviation").
    /// The clock is read as if the pending `charge` were on it already.
    #[inline(always)]
    fn burst_budget(&self, t: ThreadId, charge: Cycles) -> Cycles {
        let room = self.sched.run_ahead(t).saturating_sub(charge);
        if room == 0 || !self.burst_ok || self.tle[t].fresh {
            return 0;
        }
        // The first value past a limit for which 0 means none.
        let past = |limit: u64| limit.wrapping_sub(1).saturating_add(2);
        let tick = if self.cfg.mode == RuntimeMode::Gil { self.gil.next_timer } else { u64::MAX };
        let due = tick.min(past(self.cfg.max_cycles)).min(self.interrupts.deadline(t));
        // With steps run ahead interleaved, stay strictly below the bound:
        // a burst must not be where lock-step order reaches it.
        let ahead = u64::from(self.pending != 0);
        let steps = past(self.cfg.progress_bound_steps).saturating_sub(self.stalled_steps + ahead);
        room.min(due.saturating_sub(self.sched.clock(t) + charge)).min(steps).min(1 << 20)
    }

    /// Collect what the burst that just ran emitted, leaving the VM's
    /// per-step outputs empty: into the open transaction's escrow — where
    /// the effects of a step that aborted land too, and are discarded with
    /// it — or, outside any transaction, straight to publication.
    #[inline(always)]
    fn settle(&mut self, t: ThreadId) {
        let vm = &mut self.vm;
        let insns = u64::from(vm.step_insns);
        self.bursts += 1;
        if let Some(tx) = self.tle[t].tx.as_mut() {
            let e = &mut tx.escrow;
            e.insns += insns;
            e.method_bumps =
                e.method_bumps.wrapping_add(std::mem::take(&mut vm.pending_method_bumps));
            if !(vm.pending_marks.is_empty() && vm.pending_wakes.is_empty()) {
                e.marks.append(&mut vm.pending_marks);
                e.wakes.append(&mut vm.pending_wakes);
            }
            // The round counted the burst's first step.
            self.stalled_steps += insns - 1;
        } else {
            vm.publish_method_bumps();
            self.publish_work(insns);
            if !(self.vm.pending_marks.is_empty() && self.vm.pending_wakes.is_empty()) {
                let mut marks = std::mem::take(&mut self.vm.pending_marks);
                let mut wakes = std::mem::take(&mut self.vm.pending_wakes);
                self.publish_events(t, &mut marks, &mut wakes);
                (self.vm.pending_marks, self.vm.pending_wakes) = (marks, wakes);
            }
        }
    }

    /// Make retired instructions real: they are forward progress.
    fn publish_work(&mut self, insns: u64) {
        self.committed_insns += insns;
        // The steps run ahead past this round still come after it; the
        // ones before it, where no event reaches, go.
        if self.pending != 0 {
            for (v, x) in self.tle.iter_mut().enumerate() {
                x.ahead.drain(..x.ahead.partition_point(|s| (s.clock, v) < self.round));
            }
            self.pending = self.tle.iter().map(|x| x.ahead.len() as u64).sum();
        }
        self.stalled_steps = self.pending;
    }

    /// Make marks and wakes real at `t`'s current clock, emptying both
    /// lists (the caller keeps their capacity). Out of line: few steps
    /// emit either.
    #[cold]
    fn publish_events(
        &mut self,
        t: ThreadId,
        marks: &mut Vec<(u8, i64)>,
        wakes: &mut Vec<WakeKey>,
    ) {
        let now = self.sched.clock(t);
        for (kind, id) in marks.drain(..) {
            self.latency.on_mark(kind, id, now);
        }
        if !wakes.is_empty() {
            self.publish_wakes(t, wakes);
        }
    }

    /// Drop an aborted transaction's escrow: its work was wasted, and its
    /// marks, wakes and version bumps never happened.
    fn discard(&mut self, t: ThreadId, e: Escrow) {
        self.breakdown[Category::Aborted] += e.work;
        self.wasted_insns += e.insns;
        self.recycle(t, e);
    }

    /// Keep a finished transaction's vectors, emptied, for `t`'s next one.
    fn recycle(&mut self, t: ThreadId, mut e: Escrow) {
        e.marks.clear();
        e.wakes.clear();
        self.tle[t].spare = Escrow { marks: e.marks, wakes: e.wakes, ..Escrow::default() };
    }

    /// Attribute a conflict to the VM region of its line, by the line→owner
    /// map the VM registered at layout time (and extends on heap growth, so
    /// grown slot ranges and malloc arenas resolve to their owners).
    fn record_conflict(&mut self, reason: AbortReason) {
        if let Some(line) = reason.faulting_line() {
            let site = self.vm.attribution.owner_of_line(line);
            *self.conflict_sites.entry(site).or_insert(0) += 1;
        }
    }

    /// Handle the rare outcomes common to all modes (the callers dispatch
    /// `Normal` themselves, without a call).
    fn handle_outcome(&mut self, t: ThreadId, ok: StepOk) -> Result<(), RunError> {
        match ok {
            StepOk::Normal => Ok(()),
            StepOk::Finished => self.on_thread_finished(t),
            StepOk::Spawned { tid } => {
                let s = self.sched.spawn(self.sched.clock(t));
                debug_assert_eq!(s, tid, "scheduler/vm thread ids must stay in lockstep");
                self.tle.push(TleThread::new());
                Ok(())
            }
            StepOk::Block(on) => {
                self.park_on(t, on);
                Ok(())
            }
        }
    }

    /// Publish thread completion: thread-object state, scheduler, joiners.
    fn on_thread_finished(&mut self, t: ThreadId) -> Result<(), RunError> {
        let (obj, result) = {
            let c = &self.vm.threads[t];
            (c.thread_obj, c.result)
        };
        if obj != 0 {
            // Non-transactional state publication; dooms stale readers.
            for (addr, word, what) in [
                (obj + 2, Word::Int(1), "finished thread's state write"),
                (obj + 3, result, "finished thread's result write"),
            ] {
                self.vm.mem.write(t, addr, word).map_err(|r| self.plain_access_failed(what, r))?;
            }
        }
        self.sched.finish(t);
        let now = self.sched.clock(t);
        if let Some(waiters) = self.parked.remove(&ParkKey::Join(t)) {
            for w in waiters {
                self.sched.unpark(w, now);
            }
        }
        Ok(())
    }

    fn park_on(&mut self, t: ThreadId, on: BlockOn) {
        let now = self.sched.clock(t);
        match on {
            BlockOn::Io(units) => {
                self.sched.sleep_until(t, now + u64::from(units) * self.profile.cost.io_latency);
            }
            BlockOn::Mutex(addr) => {
                self.parked.entry(ParkKey::Mutex(addr)).or_default().push(t);
                self.sched.park(t);
            }
            BlockOn::Barrier(addr) => {
                self.parked.entry(ParkKey::Barrier(addr)).or_default().push(t);
                self.sched.park(t);
            }
            BlockOn::Join(target) => {
                if self.vm.threads[target].finished {
                    // Raced with completion: retry immediately.
                    return;
                }
                self.parked.entry(ParkKey::Join(target)).or_default().push(t);
                self.sched.park(t);
            }
        }
    }

    /// Unpark every thread waiting on the given keys, at `t`'s clock.
    ///
    /// Under exploration, a wake-order decision may rotate the waiter
    /// list and stagger the unpark times by one cycle each, so the
    /// rotation actually changes the downstream ready-time tie-breaks;
    /// choice 0 (and no controller) is the exact legacy publish.
    fn publish_wakes(&mut self, t: ThreadId, wakes: &mut Vec<WakeKey>) {
        let now = self.sched.clock(t);
        for key in wakes.drain(..) {
            let pk = match key {
                WakeKey::Mutex(a) => ParkKey::Mutex(a),
                WakeKey::Barrier(a) => ParkKey::Barrier(a),
            };
            // The emptied list stays in the map for the key's next waiter.
            if let Some(waiters) = self.parked.get_mut(&pk).filter(|w| !w.is_empty()) {
                let rot = self.sched.explore_wake_order(waiters.len()) as usize;
                if rot == 0 {
                    for w in waiters.drain(..) {
                        self.sched.unpark(w, now);
                    }
                } else {
                    let n = waiters.len().max(1);
                    waiters.rotate_left(rot % n);
                    for (i, w) in waiters.drain(..).enumerate() {
                        self.sched.unpark(w, now + i as Cycles);
                    }
                }
            }
        }
    }

    /// Release the GIL held by `t` and wake its waiter queue.
    fn gil_release(&mut self, t: ThreadId) -> Result<(), RunError> {
        let wake_at = self.sched.clock(t) + self.profile.cost.gil_wait_wakeup;
        self.charge(t, Category::GilHeld, self.profile.cost.gil_release);
        self.gil
            .release(&mut self.vm, t)
            .map(|woken| woken.for_each(|w| self.sched.unpark(w, wake_at)))
            .map_err(|r| self.plain_access_failed("GIL word write", r))
    }

    /// Take the GIL for `t` if it is free, else park `t` on its queue.
    /// Returns true when taken.
    fn gil_take_or_park(&mut self, t: ThreadId) -> Result<bool, RunError> {
        if self.gil.is_held() {
            self.gil.push_waiter(t);
            self.sched.park(t);
            return Ok(false);
        }
        self.charge(t, Category::GilWait, self.profile.cost.gil_acquire);
        self.gil
            .acquire(&mut self.vm, t, self.cfg.tls_running_thread)
            .map_err(|r| self.plain_access_failed("GIL word write", r))?;
        Ok(true)
    }

    // ---- GIL mode ---------------------------------------------------------------

    fn step_gil(&mut self, t: ThreadId) -> Result<(), RunError> {
        // Must hold the GIL to run.
        if !self.gil.held_by(t) && !self.gil_take_or_park(t)? {
            return Ok(());
        }
        // Yield points: yield only when the timer flagged us and another
        // live thread exists (paper §3.2).
        if self.at_yield_point(t) && self.sched.other_live_threads(t) > 0 {
            // Schedule-exploration decision point: a forced preemption
            // hands control to the pinned thread without running t.
            if self.sched.explore_active() && self.sched.explore_preempt(t).is_some() {
                return Ok(());
            }
            let flag_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::INTERRUPT;
            let flag = self
                .vm
                .rd_untimed(t, flag_addr)
                .map_err(|r| self.plain_access_failed("interrupt flag read", r))?;
            self.charge(t, Category::GilHeld, 2 * self.profile.cost.mem_ref);
            if flag == Word::Int(1) {
                self.vm
                    .wr_untimed(t, flag_addr, Word::Int(0))
                    .map_err(|r| self.plain_access_failed("interrupt flag clear", r))?;
                self.gil_release(t)?;
                self.charge(t, Category::GilWait, self.profile.cost.sched_yield);
                // Re-acquire on the next scheduling round (others, woken
                // with earlier clocks, get the lock first).
                return Ok(());
            }
        }
        match self.raw_step(t, 0) {
            Ok(StepOk::Normal) => Ok(()),
            Ok(ok) => {
                if matches!(ok, StepOk::Block(_) | StepOk::Finished) {
                    // Blocking region / exit: release the GIL first.
                    self.gil_release(t)?;
                }
                self.handle_outcome(t, ok)
            }
            Err(VmAbort) => {
                let r = self.take_tx_stop()?;
                Err(RunError::Vm(format!("transaction abort in GIL mode: {r:?}")))
            }
        }
    }

    // ---- free modes (FineGrained / Ideal) ------------------------------------------

    fn step_free(&mut self, t: ThreadId) -> Result<(), RunError> {
        let r = self.raw_step(t, 0);
        // JRuby-like allocation serialization.
        if self.cfg.mode == RuntimeMode::FineGrained {
            let allocs = self.vm.allocations;
            let delta = allocs - self.last_allocs;
            self.last_allocs = allocs;
            if delta > 0 {
                let extra = self.fine.on_allocations(self.sched.clock(t), delta);
                self.charge(t, Category::Other, extra);
            }
        }
        match r {
            Ok(StepOk::Normal) => Ok(()),
            Ok(ok) => self.handle_outcome(t, ok),
            Err(VmAbort) => {
                let r = self.take_tx_stop()?;
                Err(RunError::Vm(format!("transaction abort without transactions: {r:?}")))
            }
        }
    }

    // ---- HTM (TLE) mode --------------------------------------------------------------

    fn step_htm(&mut self, t: ThreadId) -> Result<(), RunError> {
        // 1. Ensure an execution context: transaction or GIL.
        if self.tle[t].tx.is_none() && !self.gil.held_by(t) {
            if self.tle[t].want_gil {
                // A forcible acquisition is in progress (Fig. 1 line 27 /
                // persistent-abort fallback): finish it before anything
                // else.
                if !self.gil_acquire_or_park(t)? {
                    return Ok(());
                }
            } else if !self.transaction_begin(t)? {
                return Ok(()); // parked waiting for the GIL
            }
        }
        // 2. transaction_yield (paper Fig. 2): at yield points, decrement
        //    the counter; on zero, end + begin. Skipped when the context
        //    was just (re-)established at this pc — the instruction here
        //    belongs to the new transaction/GIL tenure.
        let fresh = std::mem::take(&mut self.tle[t].fresh);
        let mut pending = 0;
        if !fresh && self.at_yield_point(t) && self.sched.other_live_threads(t) > 0 {
            // Schedule-exploration decision point (no-op unless a
            // controller is installed — see `machine_sim::explore`).
            if self.sched.explore_active() {
                if self.sched.explore_preempt(t).is_some() {
                    // Forced preemption: t executes nothing this step and
                    // re-decides at this same yield point when the pinned
                    // thread reaches its own next decision point.
                    return Ok(());
                }
                if self.tle[t].tx.is_some() && self.sched.explore_interrupt_kill() {
                    // Explored interrupt slot: kill the open transaction
                    // exactly like the §5.6 timer model would.
                    let reason = self.interrupt_kill(t);
                    return self.on_tx_abort(t, reason);
                }
            }
            let counter_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::YIELD_COUNTER;
            let c = match self.vm.rd_untimed(t, counter_addr) {
                Ok(Word::Int(c)) => c,
                Ok(_) => 0,
                Err(reason) => {
                    // The counter read itself hit a doomed transaction
                    // (false sharing on unpadded thread structs!).
                    self.charge(t, Category::Aborted, self.profile.cost.mem_ref);
                    return self.on_tx_abort(t, reason);
                }
            };
            // A countdown's charge rides on the burst's one `charge`; a
            // restart or a failed write pays it before acting.
            let charge = 2 * self.profile.cost.mem_ref;
            let write =
                if c > 1 { self.vm.wr_untimed(t, counter_addr, Word::Int(c - 1)) } else { Ok(()) };
            if c > 1 && write.is_ok() {
                pending = charge;
            } else {
                self.charge(t, WORK, charge);
                if let Err(reason) = write {
                    return self.on_tx_abort(t, reason);
                }
                // End here; begin at this pc.
                if !self.transaction_end_and_restart(t)? {
                    return Ok(()); // aborted at commit or parked
                }
            }
        }
        // 3. Execute the instruction, then what may run past the horizon.
        match self.raw_step(t, pending) {
            Ok(StepOk::Normal) => {
                self.look_ahead(t);
                Ok(())
            }
            Ok(ok) => {
                if matches!(ok, StepOk::Block(_) | StepOk::Finished) {
                    // Commit any open transaction before leaving/parking.
                    if self.tle[t].tx.is_some() {
                        match self.commit_tx(t) {
                            Ok(()) => {}
                            Err(reason) => return self.on_tx_abort(t, reason),
                        }
                    }
                    if self.gil.held_by(t) {
                        self.gil_release(t)?;
                    }
                }
                self.handle_outcome(t, ok)
            }
            Err(VmAbort) => {
                let reason = self.take_tx_stop()?;
                self.on_tx_abort(t, reason)
            }
        }
    }

    /// Commit `t`'s transaction and publish its escrow. On `Err` the
    /// memory is already rolled back and the transaction stays installed:
    /// the caller's `on_tx_abort` runs the normal rollback/retry path.
    fn commit_tx(&mut self, t: ThreadId) -> Result<(), AbortReason> {
        // Explored interrupt slot in the commit window: kill the
        // transaction right before TEND.
        if self.sched.explore_commit_kill() {
            return Err(self.interrupt_kill(t));
        }
        self.charge(t, Category::TxBeginEnd, self.profile.cost.tend);
        self.vm.mem.commit(t)?;
        let mut e = self.tle[t].tx.take().expect("commit without tx").escrow;
        self.breakdown[Category::TxSuccess] += e.work;
        self.publish_work(e.insns);
        self.vm.method_version = self.vm.method_version.wrapping_add(e.method_bumps);
        self.publish_events(t, &mut e.marks, &mut e.wakes);
        self.recycle(t, e);
        // A commit is forward progress: stand the watchdog down.
        self.tle[t].consecutive_aborts = 0;
        self.tle[t].backoff = WATCHDOG_COOLDOWN_BASE;
        Ok(())
    }

    /// Paper Fig. 2 lines 11–13: end the current context and begin a new
    /// transaction at the current pc. Returns false if the thread parked
    /// or aborted (caller returns to the scheduler).
    fn transaction_end_and_restart(&mut self, t: ThreadId) -> Result<bool, RunError> {
        if self.gil.held_by(t) {
            // GIL path of transaction_end (Fig. 2 line 2).
            self.gil_release(t)?;
        } else if self.tle[t].tx.is_some() {
            if let Err(reason) = self.commit_tx(t) {
                self.on_tx_abort(t, reason)?;
                return Ok(false);
            }
        }
        self.transaction_begin(t)
    }

    /// Paper Fig. 1. Returns false when the thread parked (GIL busy).
    fn transaction_begin(&mut self, t: ThreadId) -> Result<bool, RunError> {
        // Line 2: single-thread fast path — just take the GIL.
        if self.sched.other_live_threads(t) == 0 {
            return self.gil_acquire_or_park(t);
        }
        // Watchdog cooldown: speculation has been failing persistently on
        // this thread — go straight to the GIL for the remaining tenures
        // instead of paying tbegin + abort_penalty per doomed attempt.
        if self.tle[t].cooldown > 0 {
            self.tle[t].cooldown -= 1;
            self.tle[t].retrying = false;
            return self.gil_acquire_or_park(t);
        }
        let pc = self.tle[t].resume_pc.take().unwrap_or_else(|| self.global_pc(t));
        // Fig. 1 lines 5 and 9-11: a *fresh* begin consults the length
        // table (counting the transaction for the site's profiling window)
        // and re-arms the retry budgets; a retry re-enters below both.
        let retry = std::mem::take(&mut self.tle[t].retrying);
        let len = if retry {
            self.tables.peek_length(pc)
        } else {
            self.tle[t].reset_retries(&self.cfg.tle);
            self.tables.set_transaction_length(pc)
        };
        let counter_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::YIELD_COUNTER;
        // Lines 6-8: wait for a held GIL before even trying (optimization).
        if self.gil.is_held() {
            self.charge(t, Category::GilWait, self.profile.cost.spin_bound);
            self.gil.push_waiter(t);
            self.tle[t].resume_pc = Some(pc);
            // Keep the sequence identity across the park: a retry that
            // waits here must not have its budgets re-armed on wake.
            self.tle[t].retrying = retry;
            self.sched.park(t);
            return Ok(false);
        }
        // TBEGIN + surrounding bookkeeping.
        self.tables.record_attempt(pc);
        self.charge(t, Category::TxBeginEnd, self.profile.cost.tbegin);
        let snapshot = self.vm.snapshot(t);
        if let Err(reason) = self.vm.mem.begin(t, self.budgets(t)) {
            // Predictor kill (EagerPredicted): take the abort path.
            self.charge(t, Category::Aborted, self.profile.cost.abort_penalty);
            return self.begin_aborted(t, pc, reason);
        }
        // Subscribe to the GIL (DESIGN.md §15). `Eager` is Fig. 1 lines
        // 14-15: read the lock word inside the transaction so it joins the
        // read set; TABORT if held (cannot happen here — we checked above
        // and nothing ran in between in discrete-event time — but keep the
        // faithful sequence). `LazyGuarded` arms the hardware lock monitor
        // instead: same access cost and abort branches, but the line
        // occupies no read-set capacity (the acquisition side dooms us via
        // `doom_all_active`). `Lazy` skips the subscription entirely —
        // that is the whole (unsafe) performance win: the commit-time
        // check reduces to the value sampled before TBEGIN (the hoisted
        // subscription load of arXiv 1407.6968), which lines 6-8 already
        // proved free, so nothing guards the transaction's window.
        // (A fresh transaction cannot be *doomed* yet, but fault injection
        // may spuriously abort it on this very first read.)
        if self.cfg.subscription != SubscriptionPolicy::Lazy {
            let gil_probe = if self.cfg.subscription == SubscriptionPolicy::Eager {
                self.vm.mem.read(t, self.vm.layout.gil)
            } else {
                self.vm.mem.arm_lock_monitor(t, self.vm.layout.gil)
            };
            let gil_word = match gil_probe {
                Ok(w) => w,
                Err(reason) => {
                    self.charge(t, Category::Aborted, self.profile.cost.abort_penalty);
                    return self.begin_aborted(t, pc, reason);
                }
            };
            self.charge(t, Category::TxBeginEnd, self.profile.cost.mem_ref);
            if gil_word == Word::Int(1) {
                let reason = self.vm.mem.tabort(t, abort_codes::GIL_LOCKED);
                return self.begin_aborted(t, pc, reason);
            }
        }
        // §4.4 #1 ablation: write the running-thread global inside the
        // transaction — every thread, every transaction, same line.
        if !self.cfg.tls_running_thread {
            if let Err(reason) =
                self.vm.mem.write(t, self.vm.layout.running_thread, Word::Int(t as i64))
            {
                return self.begin_aborted(t, pc, reason);
            }
            self.charge(t, Category::TxBeginEnd, self.profile.cost.mem_ref);
        }
        // Install the yield-point counter (Fig. 3's yield_point_counter).
        // Leased install: seeds the write lease on the thread-struct line
        // that the per-yield-point decrements then hit for the rest of the
        // transaction.
        if let Err(reason) = self.vm.wr_untimed(t, counter_addr, Word::Int(i64::from(len))) {
            return self.begin_aborted(t, pc, reason);
        }
        let escrow = std::mem::take(&mut self.tle[t].spare);
        self.tle[t].tx = Some(TxInfo { start_pc: pc, snapshot, escrow });
        self.tle[t].fresh = true;
        Ok(true)
    }

    /// `transaction_begin` at `pc` died before its transaction was
    /// installed: run the Fig. 1 abort path from `pc` and report whether it
    /// left `t` a context (it may have taken the GIL).
    fn begin_aborted(
        &mut self,
        t: ThreadId,
        pc: u32,
        reason: AbortReason,
    ) -> Result<bool, RunError> {
        self.tle[t].resume_pc = Some(pc);
        self.abort_path(t, pc, reason)?;
        Ok(self.tle[t].tx.is_some() || self.gil.held_by(t))
    }

    /// A transaction abort surfaced (the memory is already rolled back):
    /// restore the registers, discard the escrow — every step, the
    /// aborting one included, has settled into it — and run the Fig. 1
    /// abort path.
    fn on_tx_abort(&mut self, t: ThreadId, reason: AbortReason) -> Result<(), RunError> {
        let Some(info) = self.tle[t].tx.take() else {
            return Err(RunError::Vm(format!("abort {reason:?} outside any transaction")));
        };
        self.vm.restore(t, info.snapshot);
        self.discard(t, info.escrow);
        self.charge(t, Category::Aborted, self.profile.cost.abort_penalty);
        self.tle[t].resume_pc = Some(info.start_pc);
        self.abort_path(t, info.start_pc, reason)
    }

    /// Paper Fig. 1 lines 16-37. May retry (arming `resume_pc`), park on
    /// the GIL, or acquire the GIL.
    fn abort_path(&mut self, t: ThreadId, pc: u32, reason: AbortReason) -> Result<(), RunError> {
        self.record_conflict(reason);
        self.tables.record_abort(pc, reason);
        // Livelock watchdog: aborts accumulate across attempt sequences;
        // past the threshold the thread stops speculating for a cooldown
        // of GIL tenures (doubling per consecutive escalation).
        if self.cfg.watchdog {
            self.tle[t].consecutive_aborts += 1;
            if self.tle[t].consecutive_aborts >= WATCHDOG_ESCALATION {
                self.watchdog_escalations += 1;
                self.tle[t].consecutive_aborts = 0;
                let backoff = self.tle[t].backoff;
                self.tle[t].cooldown = backoff;
                self.tle[t].backoff = (backoff * 2).min(WATCHDOG_COOLDOWN_MAX);
                return self.gil_acquire_or_park(t).map(drop);
            }
        }
        // Lines 17-20: first abort of this transaction adjusts the length.
        if self.tle[t].first_retry {
            self.tle[t].first_retry = false;
            self.tables.adjust_transaction_length(pc);
        }
        // Lines 21-27: conflict at the GIL.
        let gil_locked = matches!(reason, AbortReason::Explicit(c) if c == abort_codes::GIL_LOCKED)
            || (reason.is_conflict() && self.gil.is_held());
        if gil_locked {
            self.tle[t].gil_retries = self.tle[t].gil_retries.saturating_sub(1);
            if self.tle[t].gil_retries > 0 {
                self.tle[t].retrying = true;
                // spin_and_gil_acquire: wait for release, then retry.
                if self.gil.is_held() {
                    self.charge(t, Category::GilWait, self.profile.cost.spin_bound);
                    self.gil.push_waiter(t);
                    self.sched.park(t);
                }
                return Ok(());
            }
            // Line 27: forcibly acquire.
            return self.gil_acquire_or_park(t).map(drop);
        }
        // Lines 28-29: persistent → GIL.
        if reason.is_persistent() {
            return self.gil_acquire_or_park(t).map(drop);
        }
        // Lines 31-35: transient retry.
        self.tle[t].transient_retries = self.tle[t].transient_retries.saturating_sub(1);
        if self.tle[t].transient_retries == 0 {
            self.gil_acquire_or_park(t)?;
        } else {
            self.tle[t].retrying = true;
        }
        // Otherwise: resume_pc is armed; the next scheduling of `t`
        // re-runs transaction_begin at the same yield point.
        Ok(())
    }

    /// `gil_acquire()` with parking. Returns true when the GIL was taken.
    fn gil_acquire_or_park(&mut self, t: ThreadId) -> Result<bool, RunError> {
        self.tle[t].want_gil = !self.gil_take_or_park(t)?;
        if self.tle[t].want_gil {
            return Ok(false);
        }
        if self.cfg.subscription == SubscriptionPolicy::LazyGuarded {
            // The lock monitor fires on the store to the lock word: every
            // in-flight transaction armed on the GIL line is doomed here,
            // exactly where Eager's read-set subscription would have caught
            // the same store (DESIGN.md §15).
            self.vm.mem.doom_all_active(t, self.vm.layout.gil);
        }
        self.tle[t].reset_retries(&self.cfg.tle);
        // Fig. 3 note: the transaction length is consumed even under the
        // GIL — install the counter so the GIL is released at the same
        // yield point a transaction would have ended at.
        let pc = self.tle[t].resume_pc.take().unwrap_or_else(|| self.global_pc(t));
        let len = self.tables.set_transaction_length(pc);
        let counter_addr = self.vm.layout.thread_struct(t) + ruby_vm::layout::ts::YIELD_COUNTER;
        self.vm
            .mem
            .write(t, counter_addr, Word::Int(i64::from(len)))
            .map_err(|r| self.plain_access_failed("yield counter install under the GIL", r))?;
        self.tle[t].fresh = true;
        Ok(true)
    }

    // ---- leased lookahead (DESIGN.md §4, "Leased lookahead") ---------------------------

    /// Run `t` — back from its round in a live transaction — past its turn
    /// while [`Vm::run_leased`] will, until a step would start at the cycle
    /// limit or `t`'s interrupt, or the window is full. Logs each step;
    /// charges the window at once. Not where steps are observed one by one
    /// (`burst_ok`), nor under `Lazy` subscription, where a GIL holder does
    /// not doom every transaction; a fault plan grants no lease.
    fn look_ahead(&mut self, t: ThreadId) {
        let bound = self.cfg.progress_bound_steps;
        if !self.burst_ok
            || self.cfg.subscription == SubscriptionPolicy::Lazy
            || self.vm.insn_flags(t) & ruby_vm::decode::LOCAL == 0
            || self.tle[t].fresh
            || self.tle[t].tx.is_none()
            || self.sched.other_live_threads(t) == 0
            || self.sched.oversubscribed()
            || (bound != 0 && self.stalled_steps + LOOKAHEAD_STEPS as u64 >= bound)
        {
            return;
        }
        let past = |limit: u64| limit.wrapping_sub(1).saturating_add(2);
        let due = past(self.cfg.max_cycles).min(self.interrupts.deadline(t));
        let (start, log) = (self.sched.clock(t), &mut self.tle[t].ahead);
        let (mut clock, first) = (start, log.len());
        self.vm.run_leased(t, self.yp_bit, (due, first + LOOKAHEAD_STEPS), &mut clock, log);
        let n = (log.len() - first) as u64;
        self.charge(t, WORK, clock - start);
        self.tle[t].tx.as_mut().expect("checked above").escrow.insns += n;
        // Counted ahead of lock-step order: the run loop takes them back
        // before the count can reach the progress bound.
        (self.pending, self.stalled_steps) = (self.pending + n, self.stalled_steps + n);
        self.lookahead_steps += n;
    }

    /// Put back, as of the current round, every thread ahead whose past has
    /// changed: one doomed, all while a slot may change hands at one of
    /// their picks, one left the last live thread.
    #[inline(always)]
    fn sync_ahead(&mut self) {
        if self.pending != 0 {
            self.sync_ahead_slow();
        }
    }

    fn sync_ahead_slow(&mut self) {
        // Windows open only while no slot can change hands at a pick; once
        // one can (`oversubscribed`), every thread ahead goes back.
        let (dooms, all) = (self.vm.mem.pending_dooms() != 0, self.sched.oversubscribed());
        // Only a thread that finished this round can have left another alone.
        if dooms || all || self.sched.other_live_threads(self.round.1) <= 1 {
            for v in 0..self.tle.len() {
                let alone = self.sched.other_live_threads(v) == 0;
                if all || alone || dooms && self.vm.mem.is_doomed(v) {
                    self.rewind(v, self.round);
                }
            }
        }
    }

    fn rewind_all(&mut self, to: (Cycles, ThreadId)) {
        (0..self.tle.len()).for_each(|v| self.rewind(v, to));
    }

    /// Take back `v`'s steps run ahead that lock-step order puts after
    /// `to`: its clock, escrowed work and bytecodes, counted accesses, `pc`
    /// and `sp` go back to where the first of them started, and — unless a
    /// doom already rolled it back — the memory it wrote: each word a step
    /// replaced, and Fig. 2's counter, its value plus the countdowns taken
    /// back.
    fn rewind(&mut self, v: ThreadId, to: (Cycles, ThreadId)) {
        let log = &mut self.tle[v].ahead;
        let keep = log.partition_point(|s| (s.clock, v) < to);
        let Some(&first) = log.get(keep) else { return };
        let (steps, mut reads, mut writes, mut countdowns) = ((log.len() - keep) as u64, 0, 0, 0);
        let counter = self.vm.layout.thread_struct(v) + ruby_vm::layout::ts::YIELD_COUNTER;
        let doomed = self.vm.mem.is_doomed(v);
        for s in log.drain(keep..).rev() {
            let (r, wrote, countdown) = self.vm.leased_effects(v, &s, self.yp_bit);
            (reads, writes) = (reads + r, writes + u64::from(wrote.is_some()));
            countdowns += u64::from(countdown);
            if let Some(addr) = wrote.filter(|_| !doomed) {
                self.vm.mem.materialize(addr, s.old);
            }
        }
        if countdowns != 0 && !doomed {
            let now = self.vm.mem.peek(counter).as_int().expect("a countdown leaves an Int");
            self.vm.mem.materialize(counter, Word::Int(now + countdowns as i64));
        }
        let ctx = &mut self.vm.threads[v];
        (ctx.pc, ctx.sp) = (first.pc as usize, first.sp as usize);
        self.vm.mem.uncount_leased(reads, writes + countdowns);
        let back = self.sched.clock(v) - first.clock;
        self.sched.rewind(v, first.clock);
        if let Some(tx) = self.tle[v].tx.as_mut() {
            (tx.escrow.work, tx.escrow.insns) = (tx.escrow.work - back, tx.escrow.insns - steps);
        }
        (self.pending, self.stalled_steps) = (self.pending - steps, self.stalled_steps - steps);
        self.rewinds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::trace::TraceEvent;

    impl Executor {
        /// Snapshot of the retained trace events (empty when tracing is off).
        fn trace_events(&self) -> Vec<TraceEvent> {
            self.vm.mem.trace().map_or_else(Vec::new, |t| t.events().copied().collect())
        }
    }

    fn run_mode(src: &str, mode: RuntimeMode, profile: MachineProfile) -> RunReport {
        let cfg = ExecConfig::new(mode, &profile);
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        ex.run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one mapping behind every plain runtime access (timer flag,
    /// interrupt flag, a finished thread's state and result words, the
    /// yield counter of a GIL tenure): what was attempted, the abort, the
    /// thread dump. `tests/run_errors.rs` forces the sites that can be
    /// reached from outside; the result word shares its line with the
    /// state word, so it can only fail through this mapping.
    #[test]
    fn a_failed_plain_access_maps_to_a_vm_error_with_the_dump() {
        let profile = MachineProfile::generic(2);
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        let ex = Executor::new("nil", VmConfig::default(), profile, cfg).unwrap();
        let e = ex.plain_access_failed("finished thread's result write", AbortReason::Restricted);
        let RunError::Vm(msg) = e else { panic!("{e:?}") };
        let head = "finished thread's result write aborted outside any transaction: Restricted\n";
        assert!(msg.starts_with(head), "{msg}");
        assert_eq!(&msg[head.len()..], ex.deadlock_dump());
    }

    const COUNT_SRC: &str = "x = 0\ni = 1\nwhile i <= 500\n  x += i\n  i += 1\nend\nputs(x)";

    #[test]
    fn gil_mode_runs_single_thread() {
        let r = run_mode(COUNT_SRC, RuntimeMode::Gil, MachineProfile::generic(4));
        assert_eq!(r.stdout, "125250");
        assert!(r.committed_insns > 500);
        assert!(r.elapsed_cycles > 0);
        assert_eq!(r.htm.begins, 0, "no transactions in GIL mode");
    }

    #[test]
    fn htm_mode_single_thread_uses_gil_fast_path() {
        let r = run_mode(
            COUNT_SRC,
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "125250");
        // Fig. 1 line 2: with no other live thread, no transactions begin.
        assert_eq!(r.htm.begins, 0);
        assert!(r.gil_acquisitions >= 1);
    }

    #[test]
    fn all_modes_agree_on_output() {
        let src = r#"
results = Array.new(3, 0)
threads = []
3.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 200
      s += j * (tid + 1)
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results)
"#;
        let expected = "20100\n40200\n60300";
        for mode in [
            RuntimeMode::Gil,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(256) },
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
            RuntimeMode::FineGrained,
            RuntimeMode::Ideal,
        ] {
            let r = run_mode(src, mode, MachineProfile::generic(4));
            assert_eq!(r.stdout, expected, "mode {}", mode.label());
        }
    }

    #[test]
    fn htm_multithreaded_actually_uses_transactions() {
        let src = r#"
results = Array.new(2, 0)
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 300
      s += j
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results[0] + results[1])
"#;
        let r = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "90300");
        assert!(r.htm.begins > 10, "worker threads must run transactionally");
        assert!(r.htm.commits > 10);
        assert!(r.breakdown[Category::TxSuccess] > 0);
    }

    /// One thread repeatedly falls back on the GIL (`print` is restricted)
    /// while the other mutates a shared global transactionally, so GIL
    /// tenures overlap open transaction windows.
    const GIL_OVERLAP_SRC: &str = r#"
$sum = 0
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 40
      $sum = $sum + 1
      if tid == 0
        print("")
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts($sum)
"#;

    fn run_subscription(sub: SubscriptionPolicy) -> RunReport {
        run_subscription_on(sub, MachineProfile::generic(4))
    }

    fn run_subscription_on(sub: SubscriptionPolicy, profile: MachineProfile) -> RunReport {
        let mut cfg =
            ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Fixed(4) }, &profile);
        cfg.subscription = sub;
        let mut ex = Executor::new(GIL_OVERLAP_SRC, VmConfig::default(), profile, cfg).unwrap();
        ex.run().unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn lazy_guarded_dooms_transactions_overlapping_a_gil_acquisition() {
        let r = run_subscription(SubscriptionPolicy::LazyGuarded);
        // `print("")` leaves one open (empty) line ahead of the final puts.
        assert_eq!(r.stdout, "\n80");
        assert!(r.htm.begins > 0, "the non-printing thread must run transactionally");
        assert!(r.gil_acquisitions > 0, "the printing thread must take the GIL");
        assert!(
            r.htm.conflicts_read > 0,
            "a GIL acquisition overlapping an armed transaction must doom it \
             through the lock monitor (got stats {:?})",
            r.htm
        );
    }

    #[test]
    fn lazy_guarded_matches_eager_exactly_on_gil_overlap() {
        // The commit guard is modelled to be *observably identical* to the
        // eager read-set subscription: same victims, same abort reasons,
        // same cycle costs — the only difference is read-set capacity, so
        // run on a budget this footprint never exhausts (on overflow-prone
        // budgets the dying transaction gets exactly one extra access out
        // of the slot Eager spends on the subscription).
        let mut profile = MachineProfile::generic(4);
        profile.cache.read_set_bytes = 1 << 20;
        let eager = run_subscription_on(SubscriptionPolicy::Eager, profile.clone());
        let lg = run_subscription_on(SubscriptionPolicy::LazyGuarded, profile);
        assert_eq!(eager.stdout, lg.stdout);
        assert_eq!(eager.htm.overflow_read, 0, "parity workload must not overflow");
        assert_eq!(eager.htm, lg.htm, "hardware event stream must be identical");
        assert_eq!(eager.elapsed_cycles, lg.elapsed_cycles);
        assert_eq!(eager.gil_acquisitions, lg.gil_acquisitions);
    }

    #[test]
    fn lazy_skips_the_subscription_read() {
        // Lazy performs no in-transaction GIL access at all: strictly
        // fewer counted reads than Eager on the same program. (Whether its
        // output is *correct* depends on the schedule — the explore suite
        // pins a counterexample; the default round-robin here is not it.)
        let eager = run_subscription(SubscriptionPolicy::Eager);
        let lazy = run_subscription(SubscriptionPolicy::Lazy);
        assert!(lazy.htm.begins > 0);
        assert!(
            lazy.htm.reads < eager.htm.reads,
            "lazy must skip the per-transaction GIL-word read ({} vs {})",
            lazy.htm.reads,
            eager.htm.reads
        );
    }

    #[test]
    fn htm_scales_versus_gil_on_parallel_work() {
        // The core claim, in miniature: with 4 independent compute
        // threads, HTM elision beats the GIL.
        let src = r#"
results = Array.new(4, 0)
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 400
      s += j
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results)
"#;
        let gil = run_mode(src, RuntimeMode::Gil, MachineProfile::generic(4));
        let htm = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(gil.stdout, htm.stdout);
        let speedup = gil.elapsed_cycles as f64 / htm.elapsed_cycles as f64;
        assert!(
            speedup > 1.5,
            "HTM-16 must beat the GIL on embarrassingly parallel work; got {speedup:.2}×"
        );
    }

    #[test]
    fn mutex_workload_is_serializable_under_htm() {
        let src = r#"
m = Mutex.new()
count = 0
threads = []
3.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 30
      m.synchronize do
        count += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count)
"#;
        for mode in [
            RuntimeMode::Gil,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
        ] {
            let r = run_mode(src, mode, MachineProfile::generic(4));
            assert_eq!(r.stdout, "90", "mode {}", mode.label());
        }
    }

    #[test]
    fn dynamic_adjustment_reacts_to_aborts() {
        // Two threads hammering the same array line: conflicts force the
        // dynamic policy to shorten lengths somewhere.
        let src = r#"
shared = Array.new(4, 0)
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 1500
      shared[tid] = shared[tid] + 1
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(shared[0] + shared[1])
"#;
        let r = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "3000");
        assert!(r.length_adjustments > 0, "conflict-heavy run must shrink some lengths");
        assert!(r.htm.total_aborts() > 0);
    }

    #[test]
    fn conflicts_are_attributed_to_regions() {
        let src = r#"
shared = Array.new(2, 0)
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 800
      shared[tid] = shared[tid] + 1
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(shared[0] + shared[1])
"#;
        let r = run_mode(
            src,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(r.stdout, "1600");
        let total: u64 = r.conflict_sites.values().sum();
        assert!(total > 0, "conflicting run must attribute conflicts");
    }

    #[test]
    fn io_workload_overlaps_under_gil() {
        // GIL released during I/O: two I/O-bound threads overlap.
        let src = r#"
threads = []
2.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 5
      io_wait(1)
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts("done")
"#;
        let r = run_mode(src, RuntimeMode::Gil, MachineProfile::generic(4));
        assert_eq!(r.stdout, "done");
        // 10 sequential I/Os would cost 10×io_latency; overlap must beat
        // ~8×.
        let seq = 10 * MachineProfile::generic(4).cost.io_latency;
        assert!(
            r.elapsed_cycles < seq * 9 / 10,
            "I/O must overlap: {} vs sequential {}",
            r.elapsed_cycles,
            seq
        );
        // Each thread slept through its five I/Os one after another.
        assert!(r.elapsed_cycles >= seq / 2, "I/O must block: {}", r.elapsed_cycles);
    }

    #[test]
    fn trace_captures_transaction_lifecycle_with_ordered_cycles() {
        let src = r#"
counters = Array.new(4, 0)
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    j = 1
    while j <= 150
      counters[tid] = counters[tid] + j
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(counters)
"#;
        let profile = MachineProfile::generic(4);
        let mut cfg =
            ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Fixed(16) }, &profile);
        cfg.trace_capacity = 1 << 16;
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        let r = ex.run().unwrap();
        let events = ex.trace_events();
        assert!(!events.is_empty(), "HTM run with tracing must emit events");
        assert_eq!(r.trace_events_recorded, events.len() as u64 + r.trace_events_dropped);
        // Per thread: cycle stamps never go backwards, every Commit/Abort
        // follows an open Begin, and no Begin nests inside another.
        let mut last_cycle: HashMap<usize, u64> = HashMap::new();
        let mut open: HashMap<usize, bool> = HashMap::new();
        let (mut commits, mut aborts) = (0u64, 0u64);
        for e in &events {
            let t = e.thread();
            let prev = last_cycle.insert(t, e.cycle());
            assert!(prev.unwrap_or(0) <= e.cycle(), "cycle went backwards on thread {t}");
            let was_open = open.entry(t).or_insert(false);
            match e {
                htm_sim::TraceEvent::Begin { .. } => {
                    assert!(!*was_open, "nested Begin on thread {t}");
                    *was_open = true;
                }
                htm_sim::TraceEvent::Commit { read_lines, .. } => {
                    assert!(*was_open, "Commit without Begin on thread {t}");
                    assert!(*read_lines > 0, "committed tx must have a read set");
                    *was_open = false;
                    commits += 1;
                }
                htm_sim::TraceEvent::Abort { .. } => {
                    // Eager-predicted aborts fail at TBEGIN, before any
                    // Begin event — an abort may arrive with no open tx.
                    *was_open = false;
                    aborts += 1;
                }
            }
        }
        assert!(commits > 0, "expected committed transactions in the trace");
        // The trace totals must be consistent with the HTM statistics
        // (ring large enough that nothing was dropped here).
        assert_eq!(r.trace_events_dropped, 0);
        assert_eq!(commits, r.htm.commits);
        // Dooms of non-transactional threads emit no Abort event (there is
        // no transaction to abort), so the trace matches total_aborts
        // exactly.
        assert_eq!(aborts, r.htm.total_aborts());
    }

    /// `fresh` outlives the call that sets it when a yield-point restart
    /// sets it (DESIGN.md §4, "Fig. 2's countdown, and its one known
    /// deviation"): the *next* `step_htm` call consumes it, and
    /// if the instruction standing there is a yield point too — here the
    /// loop head after the back-edge — its Fig. 2 decrement is skipped and
    /// the transaction spans one yield point more than its length. Pinned,
    /// not endorsed: changing it moves simulated cycles (ROADMAP aim 3).
    #[test]
    fn a_restart_at_a_yield_point_exempts_the_yield_point_right_after_it() {
        let src = "t = Thread.new() do\n  i = 0\n  while i < 6\n    i += 1\n  end\nend\nt.join()";
        let profile = MachineProfile::generic(4);
        let cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Fixed(2) }, &profile);
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        let counter = |ex: &Executor| {
            let addr = ex.vm.layout.thread_struct(1) + ruby_vm::layout::ts::YIELD_COUNTER;
            ex.vm.mem.peek(addr).as_int().unwrap()
        };
        // `YIELD_COUNTER` of the worker, before>after, around every round
        // that found it standing at a yield point.
        let mut trace = Vec::new();
        while let Some(t) = ex.sched.next() {
            if ex.vm.threads[t].finished {
                ex.sched.finish(t);
            } else if t == 1 && ex.at_yield_point(t) {
                let before = counter(&ex);
                ex.step_htm(t).unwrap();
                trace.push(format!("{before}>{}", counter(&ex)));
            } else {
                ex.step_htm(t).unwrap();
            }
        }
        // Length 2: decrement, restart, decrement, restart at the back-edge
        // — and the loop head right after it goes by uncounted (2>2), so
        // that transaction ends at its third yield point.
        assert_eq!(trace[..8].join(" "), "2>1 1>2 2>1 1>2 2>2 2>1 1>2 2>1");
    }

    /// A rewind keeps the steps run ahead that lock-step order puts before
    /// the aggressor's step, in `(clock, tid)` order: on a tie in clock the
    /// smaller thread id came first.
    #[test]
    fn a_rewind_boundary_that_ties_on_clock_is_decided_by_tid() {
        let mut ex = window_executor();
        drive_to_window(&mut ex, 1 << 20);
        let log = ex.tle[1].ahead.clone();
        // An aggressor with a larger id starting where thread 1's second
        // step starts came after that step.
        ex.rewind(1, (log[1].clock, 2));
        assert_eq!((ex.tle[1].ahead.len(), ex.sched.clock(1)), (2, log[2].clock));
        // One with a smaller id at the same clock came before it.
        ex.rewind(1, (log[1].clock, 0));
        assert_eq!((ex.tle[1].ahead.len(), ex.sched.clock(1)), (1, log[1].clock));
        assert_eq!(ex.pending, ex.tle.iter().map(|x| x.ahead.len() as u64).sum::<u64>());
    }

    /// Two workers summing in a loop, for the compressed-rewind check.
    const WINDOW_SRC: &str = r#"
def w()
  x = 0
  i = 0
  while i < 300
    x += i
    i += 1
  end
  x
end
a = Thread.new() do
  w()
end
b = Thread.new() do
  w()
end
a.join()
b.join()
"#;

    /// Run lock-step rounds as `run_rounds` does, `calls` picks, or until
    /// thread 1 has just run a window of at least 24 steps with two
    /// countdowns in it; the picks made.
    fn drive_to_window(ex: &mut Executor, calls: usize) -> usize {
        for call in 1..=calls {
            ex.sync_ahead();
            let t = ex.sched.next().unwrap();
            ex.round = (ex.sched.clock(t), t);
            ex.pending -= ex.tle[t].ahead.len() as u64;
            ex.tle[t].ahead.clear();
            ex.step_htm(t).unwrap();
            let log = &ex.tle[t].ahead;
            let countdown = |s: &LeasedStep| ex.vm.leased_effects(t, s, ex.yp_bit).2;
            if t == 1 && log.len() >= 24 && log.iter().filter(|s| countdown(s)).count() >= 2 {
                return call;
            }
        }
        calls
    }

    fn window_executor() -> Executor {
        let profile = MachineProfile::generic(4);
        let cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Fixed(64) }, &profile);
        Executor::new(WINDOW_SRC, VmConfig::default(), profile, cfg).unwrap()
    }

    /// Thread 1's stack words, Fig. 2's counter, `pc` and `sp`, clock and
    /// escrow, and the counted `reads`, `writes` and `lease_hits`.
    type WindowState = (Vec<Word>, Word, (usize, usize), u64, (u64, u64), [u64; 3]);

    /// What a window leaves behind on thread 1.
    fn window_state(ex: &mut Executor) -> WindowState {
        ex.vm.mem.flush_lease_stats();
        let c = &ex.vm.threads[1];
        let words = (c.stack_base..c.stack_end).map(|a| *ex.vm.mem.peek(a)).collect();
        let counter = ex.vm.layout.thread_struct(1) + ruby_vm::layout::ts::YIELD_COUNTER;
        let escrow = ex.tle[1].tx.as_ref().map(|tx| (tx.escrow.work, tx.escrow.insns)).unwrap();
        let h = ex.vm.mem.stats();
        let counted = [h.reads, h.writes, h.lease_hits];
        (words, *ex.vm.mem.peek(counter), (c.pc, c.sp), ex.sched.clock(1), escrow, counted)
    }

    /// A log entry holds the clock, `pc`, `sp` and the word a step replaced;
    /// `rewind` recomputes the rest from the instruction at `pc`. Cut at
    /// any step k of a window that writes and counts down, it leaves what
    /// the same window stopped before step k leaves.
    #[test]
    fn a_rewound_window_matches_one_stopped_at_the_cut() {
        let mut full = window_executor();
        let calls = drive_to_window(&mut full, 1 << 20);
        let log = full.tle[1].ahead.clone();
        assert!(log.len() >= 24, "no window of 24 steps in {calls} picks");
        assert!(log.iter().any(|s| full.vm.leased_effects(1, s, full.yp_bit).1.is_some()));
        for (k, cut) in log.iter().enumerate() {
            let mut rewound = window_executor();
            assert_eq!(drive_to_window(&mut rewound, calls), calls);
            rewound.rewind(1, (cut.clock, 1));
            assert_eq!(rewound.tle[1].ahead.len(), k);
            // The cycle limit ends the same window where step k would start.
            let mut stopped = window_executor();
            drive_to_window(&mut stopped, calls - 1);
            stopped.cfg.max_cycles = cut.clock - 1;
            drive_to_window(&mut stopped, 1);
            assert_eq!(stopped.tle[1].ahead.len(), k);
            assert_eq!(window_state(&mut rewound), window_state(&mut stopped), "cut at step {k}");
        }
    }

    #[test]
    fn tracing_off_keeps_report_counters_zero() {
        let r = run_mode(
            COUNT_SRC,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            MachineProfile::generic(4),
        );
        assert_eq!(r.trace_events_recorded, 0);
        assert_eq!(r.trace_events_dropped, 0);
    }
}

#[cfg(test)]
mod livelock_regressions {
    //! Regression tests for two livelocks found during bring-up:
    //! 1. a thread that committed to `gil_acquire()` lost that intent when
    //!    parked (the requester-wins conflict dance with a mutex owner
    //!    then ping-ponged forever) — fixed by `TleThread::want_gil`;
    //! 2. with length-1 transactions, a persistent abort's GIL fallback
    //!    re-ran the yield-point decision at the same pc, releasing the
    //!    GIL before executing the restricted instruction — fixed by
    //!    `TleThread::fresh`.

    use super::*;

    fn run_capped(src: &str, mode: RuntimeMode) -> RunReport {
        let profile = MachineProfile::generic(4);
        let mut cfg = ExecConfig::new(mode, &profile);
        cfg.max_cycles = 500_000_000;
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        ex.run().unwrap_or_else(|e| panic!("{} livelocked: {e}", mode.label()))
    }

    #[test]
    fn mutex_contention_does_not_livelock() {
        let src = r#"
m = Mutex.new()
count = 0
threads = []
3.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 30
      m.synchronize do
        count += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count)
"#;
        for mode in [
            RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            RuntimeMode::Htm { length: LengthPolicy::Fixed(256) },
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
        ] {
            let r = run_capped(src, mode);
            assert_eq!(r.stdout, "90", "{}", mode.label());
        }
    }

    #[test]
    fn htm1_mutex_handoff_does_not_livelock() {
        // Minimal trigger found by the cross-stack proptest: under HTM-1
        // the unlocker's one-instruction commit window races the woken
        // waiter's lock-read, which dooms it (requester wins). Progress
        // relies on the retry budgets surviving the lines-6-8 GIL park —
        // losing the `retrying` flag there re-armed the budgets forever.
        let src = r#"
m = Mutex.new()
count = Array.new(1, 0)
threads = []
3.times do |t|
  threads << Thread.new(t) do |tid|
    j = 0
    while j < 3
      m.synchronize do
        count[0] = count[0] + 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count[0])
"#;
        let r = run_capped(src, RuntimeMode::Htm { length: LengthPolicy::Fixed(1) });
        assert_eq!(r.stdout, "9");
    }

    #[test]
    fn htm1_thread_spawn_does_not_livelock() {
        // Thread.new is a restricted op: under HTM-1 every spawn goes
        // through the persistent-abort → GIL path at a yield point.
        let src = r#"
results = Array.new(3, 0)
threads = []
3.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 200
      s += j * (tid + 1)
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results)
"#;
        let r = run_capped(src, RuntimeMode::Htm { length: LengthPolicy::Fixed(1) });
        assert_eq!(r.stdout, "20100\n40200\n60300");
    }
}
