//! The bytecode interpreter: frames, dispatch, specialized operators and
//! inline caches. [`Vm::burst`] runs one thread step after step until its
//! driver has something to decide; [`Vm::step`] is the burst of one.
//!
//! Call frames live in each thread's stack region of simulated memory:
//!
//! ```text
//! fp+0  prev_fp   (Int; 0 for the root frame)
//! fp+1  ret_pc    (Int)
//! fp+2  ret_iseq  (Int; -1 for the root frame)
//! fp+3  ret_sp    (Int; caller sp to restore before pushing the result)
//! fp+4  self
//! fp+5  block     (Int; Proc slot addr, 0 = none)
//! fp+6  ep        (Int; defining frame of a block, 0 otherwise)
//! fp+7  flags
//! fp+8… locals, then the operand stack
//! ```
//!
//! Because the whole frame is ordinary simulated memory, a transaction
//! abort rolls the stack back via the undo log and the TLE runtime only
//! restores four registers ([`crate::vm::RegSnapshot`]). Stack *writes*
//! count toward HTM write sets — the effect that makes CRuby's original
//! coarse yield points overflow (paper §4.2).

use std::ops::Range;
use std::sync::Arc;

use machine_sim::ThreadId;

use crate::bytecode::IseqId;
use crate::decode::{frame_local, DecodedInsn, Op, NO_SYM};
use crate::object::MethodEntry;
use crate::symbols::SymId;
use crate::value::{ruby_shl, Addr, ObjKind, Word};
use crate::vm::{BlockOn, StepOk, ThreadCtx, Vm, VmAbort};

/// A popped operand, already classified: `Ok` when it was an immediate
/// integer (the arithmetic fast lane), `Err` carrying the original word
/// otherwise.
type IntOrWord = Result<i64, Word>;

pub const F_PREV_FP: usize = 0;
pub const F_RET_PC: usize = 1;
pub const F_RET_ISEQ: usize = 2;
pub const F_RET_SP: usize = 3;
pub const F_SELF: usize = 4;
pub const F_BLOCK: usize = 5;
pub const F_EP: usize = 6;
pub const F_FLAGS: usize = 7;
pub const FRAME_WORDS: usize = 8;

pub const FLAG_DISCARD: i64 = 1;
pub const FLAG_BLOCK: i64 = 2;
/// The frame's own iseq id is packed into the flags word above this shift
/// so environment promotion can recover a frame's local count.
pub const FLAG_ISEQ_SHIFT: u32 = 3;

/// One step [`Vm::run_leased`] ran: the clock, `pc` and `sp` it started at
/// and the word its write replaced. The rest of what takes it back follows
/// from the instruction at `pc` ([`Vm::leased_effects`]).
#[derive(Debug, Clone, Copy)]
pub struct LeasedStep {
    pub clock: u64,
    pub pc: u32,
    pub sp: u32,
    pub old: Word,
}

const _: () = assert!(std::mem::size_of::<LeasedStep>() == 32);

/// What a builtin asks the interpreter to do.
pub enum BResult {
    /// Pop receiver+args, push this value, advance.
    Value(Word),
    /// Park the thread; retry this instruction on wake.
    Block(BlockOn),
    /// Pop receiver+args, push `obj` (what `new` returns), then enter
    /// `iseq` (its `initialize`) on `obj` with the builtin's own arguments,
    /// in a frame whose return value is discarded.
    Initialize { iseq: IseqId, obj: Word, block: Addr },
    /// Pop receiver+args, push the Thread object, advance, and tell the
    /// executor a new thread exists.
    Spawned { tid: ThreadId, thread_obj: Word },
}

impl Vm {
    // ---- stack primitives -------------------------------------------------

    #[inline(always)]
    pub fn push(&mut self, t: ThreadId, w: Word) -> Result<(), VmAbort> {
        let sp = self.threads[t].sp;
        if sp >= self.threads[t].stack_end {
            return Err(self.fatal("stack overflow"));
        }
        self.wr(t, sp, w)?;
        self.threads[t].sp = sp + 1;
        Ok(())
    }

    #[inline(always)]
    pub fn pop(&mut self, t: ThreadId) -> Result<Word, VmAbort> {
        let sp = self.threads[t].sp;
        if sp == self.threads[t].stack_base {
            return Err(self.fatal("stack underflow"));
        }
        let w = self.rd(t, sp - 1)?;
        self.threads[t].sp = sp - 1;
        Ok(w)
    }

    /// Read the word `n` below the top without popping.
    #[inline]
    pub fn peek_n(&mut self, t: ThreadId, n: usize) -> Result<Word, VmAbort> {
        let sp = self.threads[t].sp;
        self.rd(t, sp - 1 - n)
    }

    #[inline]
    fn advance(&mut self, t: ThreadId) {
        self.threads[t].pc += 1;
    }

    fn frame_self(&mut self, t: ThreadId) -> Result<Word, VmAbort> {
        let fp = self.threads[t].fp;
        self.rd(t, fp + F_SELF)
    }

    /// Frame base `depth` block hops up the static (ep) chain.
    fn ep_at(&mut self, t: ThreadId, depth: u8) -> Result<Addr, VmAbort> {
        let mut f = self.threads[t].fp;
        for _ in 0..depth {
            let ep = self.rd(t, f + F_EP)?.as_int().unwrap_or(0);
            if ep == 0 {
                return Err(self.fatal("broken static chain"));
            }
            f = ep as Addr;
        }
        Ok(f)
    }

    /// Set up the root frame of a thread (main or spawned).
    pub fn push_root_frame(
        &mut self,
        ctx: &mut ThreadCtx,
        iseq: IseqId,
        self_w: Word,
        block: Addr,
        ep: Addr,
    ) {
        let t = ctx.tid;
        let fp = ctx.stack_base;
        let is_block = self.program.iseq(iseq).is_block;
        let nlocals = self.program.iseq(iseq).nlocals;
        let words: [(usize, Word); 8] = [
            (F_PREV_FP, Word::Int(0)),
            (F_RET_PC, Word::Int(0)),
            (F_RET_ISEQ, Word::Int(-1)),
            (F_RET_SP, Word::Int(fp as i64)),
            (F_SELF, self_w),
            (
                F_BLOCK,
                // A heap reference: stored as Obj so the GC's stack scan
                // keeps the Proc alive while any frame can still yield to
                // it.
                if block == 0 { Word::Nil } else { Word::Obj(block) },
            ),
            (F_EP, Word::Int(ep as i64)),
            (
                F_FLAGS,
                Word::Int(
                    (if is_block { FLAG_BLOCK } else { 0 })
                        | (i64::from(iseq.0) << FLAG_ISEQ_SHIFT),
                ),
            ),
        ];
        for (off, w) in words {
            self.mem.write(t, fp + off, w).expect("root frame write");
        }
        for i in 0..nlocals {
            self.mem.write(t, fp + FRAME_WORDS + i, Word::Nil).expect("root frame local");
        }
        ctx.fp = fp;
        ctx.sp = fp + FRAME_WORDS + nlocals;
        ctx.pc = 0;
        ctx.iseq = iseq;
        ctx.base = self.program.base(iseq);
    }

    /// Push a frame whose arguments are the top `argc` stack words of the
    /// caller (normal method dispatch).
    #[allow(clippy::too_many_arguments)]
    fn push_frame(
        &mut self,
        t: ThreadId,
        iseq: IseqId,
        self_w: Word,
        block: Addr,
        ep: Addr,
        ret_sp: Addr,
        flags: i64,
        args: FrameArgs<'_>,
    ) -> Result<(), VmAbort> {
        let (nparams, nlocals, max_stack) = {
            let i = self.program.iseq(iseq);
            (i.nparams, i.nlocals, self.program.max_stack(iseq))
        };
        let ctx = &self.threads[t];
        let new_fp = ctx.sp;
        let old_pc = ctx.pc;
        let old_iseq = ctx.iseq;
        let old_fp = ctx.fp;
        if new_fp + FRAME_WORDS + nlocals + max_stack >= ctx.stack_end {
            return Err(self.fatal("stack too deep"));
        }
        self.wr(t, new_fp + F_PREV_FP, Word::Int(old_fp as i64))?;
        self.wr(t, new_fp + F_RET_PC, Word::Int(old_pc as i64 + 1))?;
        self.wr(t, new_fp + F_RET_ISEQ, Word::Int(i64::from(old_iseq.0)))?;
        self.wr(t, new_fp + F_RET_SP, Word::Int(ret_sp as i64))?;
        self.wr(t, new_fp + F_SELF, self_w)?;
        self.wr(t, new_fp + F_BLOCK, if block == 0 { Word::Nil } else { Word::Obj(block) })?;
        self.wr(t, new_fp + F_EP, Word::Int(ep as i64))?;
        self.wr(t, new_fp + F_FLAGS, Word::Int(flags | (i64::from(iseq.0) << FLAG_ISEQ_SHIFT)))?;
        // Parameters then remaining locals.
        match args {
            FrameArgs::Stack { base, argc } => {
                for i in 0..nparams.min(argc) {
                    let w = self.rd(t, base + i)?;
                    self.wr(t, new_fp + FRAME_WORDS + i, w)?;
                }
                for i in argc.min(nparams)..nparams {
                    self.wr(t, new_fp + FRAME_WORDS + i, Word::Nil)?;
                }
            }
            FrameArgs::Words(words) => {
                let argc = words.len();
                for (i, &w) in words.iter().take(nparams).enumerate() {
                    self.wr(t, new_fp + FRAME_WORDS + i, w)?;
                }
                for i in argc.min(nparams)..nparams {
                    self.wr(t, new_fp + FRAME_WORDS + i, Word::Nil)?;
                }
            }
        }
        for i in nparams..nlocals {
            self.wr(t, new_fp + FRAME_WORDS + i, Word::Nil)?;
        }
        let base = self.program.base(iseq);
        let ctx = &mut self.threads[t];
        ctx.fp = new_fp;
        ctx.sp = new_fp + FRAME_WORDS + nlocals;
        ctx.pc = 0;
        ctx.iseq = iseq;
        ctx.base = base;
        Ok(())
    }

    fn do_leave(&mut self, t: ThreadId) -> Result<StepOk, VmAbort> {
        let value = self.pop(t)?;
        let fp = self.threads[t].fp;
        let prev_fp = self.rd(t, fp + F_PREV_FP)?.as_int().unwrap_or(0);
        if prev_fp == 0 {
            let ctx = &mut self.threads[t];
            ctx.finished = true;
            ctx.result = value;
            return Ok(StepOk::Finished);
        }
        let ret_pc = self.rd(t, fp + F_RET_PC)?.as_int().unwrap_or(0) as usize;
        let ret_iseq = self.rd(t, fp + F_RET_ISEQ)?.as_int().unwrap_or(0);
        let ret_sp = self.rd(t, fp + F_RET_SP)?.as_int().unwrap_or(0) as Addr;
        let flags = self.rd(t, fp + F_FLAGS)?.as_int().unwrap_or(0);
        let base = self.program.base(IseqId(ret_iseq as u32));
        let ctx = &mut self.threads[t];
        ctx.fp = prev_fp as Addr;
        ctx.sp = ret_sp;
        ctx.pc = ret_pc;
        ctx.iseq = IseqId(ret_iseq as u32);
        ctx.base = base;
        if flags & FLAG_DISCARD == 0 {
            self.push(t, value)?;
        }
        Ok(StepOk::Normal)
    }

    // ---- the dispatcher ------------------------------------------------------

    /// Execute exactly one bytecode for thread `t`: a burst without a
    /// budget.
    pub fn step(&mut self, t: ThreadId) -> Result<StepOk, VmAbort> {
        self.burst(t, 0, 0)
    }

    /// Run `t` step after step, `step_insns`, `step_mem_refs` and
    /// `step_native_cost` accumulating since [`Vm::reset_step_counters`],
    /// until a step's outcome is not [`StepOk::Normal`] (or it aborts),
    /// [`Vm::step_cost`] reaches `budget` cycles (0: one step, unpriced),
    /// `t` stands at an instruction flagged `yield_bit`, where the executor
    /// has a decision to make, a step emits a mark or a wake, which take
    /// the clock of their publication, or a step dooms another thread's
    /// transaction, whose driver may have to move that thread's clock.
    /// `step_insns` reports the steps run, one bytecode each, and
    /// [`Vm::last_step_start`] the cost the last of them started at.
    /// Nobody else runs in between: one doom poll serves the burst.
    pub fn burst(&mut self, t: ThreadId, budget: u64, yield_bit: u8) -> Result<StepOk, VmAbort> {
        debug_assert!(self.stop.is_none(), "the last stop was never taken: {:?}", self.stop);
        self.last_step_start = 0;
        if let Some(reason) = self.mem.poll_doomed(t) {
            return Err(self.tx_stop(reason));
        }
        if self.threads[t].finished {
            return Ok(StepOk::Finished);
        }
        let dooms = self.mem.pending_dooms();
        loop {
            let c = &self.threads[t];
            let d = self.code[c.base as usize + c.pc];
            match self.exec_decoded(t, &d) {
                Ok(StepOk::Normal) => {}
                other => return other,
            }
            let spent = self.step_cost();
            if budget == 0
                || spent >= budget
                || self.insn_flags(t) & yield_bit != 0
                || !(self.pending_marks.is_empty() && self.pending_wakes.is_empty())
                || self.mem.pending_dooms() != dooms
            {
                return Ok(StepOk::Normal);
            }
            self.last_step_start = spent;
            self.step_insns += 1;
            self.temp_roots.clear();
        }
    }

    /// Take `a`'s line into `frame`, a run of lines on which `t` holds valid
    /// read and write leases, if it is one such and next to `frame` (or
    /// `frame` is empty, `start > end`). It stays one while only
    /// [`Vm::run_leased`] steps run: they grant and revoke no lease.
    #[cold]
    #[inline(never)]
    fn widen(&self, t: ThreadId, frame: &mut Range<Addr>, a: Addr) -> bool {
        let (lw, empty) = (self.mem.line_words(), frame.start > frame.end);
        let line = self.mem.line_of(a) * lw;
        let ok =
            (empty || line + lw == frame.start || line == frame.end) && self.leased(t, a, false);
        if ok {
            *frame = frame.start.min(line)..frame.end.max(line + lw);
        }
        ok
    }

    /// Run `t`, in a live transaction, step after step while its next
    /// bytecode is frame-local ([`frame_local`]) and touches
    /// only lines of one run on which it holds valid read and write leases
    /// ([`Vm::widen`]): tier-1 steps, which change no directory entry and
    /// doom nobody, and move no frame. Once proven, a step is one arm for
    /// its op over bare tier-1 accesses, `pc` and `sp` in registers. At an
    /// instruction flagged `yield_bit`, Fig. 2's countdown runs with the
    /// step — an untimed read and write of the counter, `2 · mem_ref` — if
    /// it would not restart and the counter is leased, which the window's
    /// first countdown tests for all of them. Stops when `log` holds
    /// `until.1` steps or `clock`, advanced by each step's cost, reaches
    /// `until.0`. Logs each step.
    pub fn run_leased(
        &mut self,
        t: ThreadId,
        yield_bit: u8,
        until: (u64, usize),
        clock: &mut u64,
        log: &mut Vec<LeasedStep>,
    ) {
        let counter = self.layout.thread_struct(t) + crate::layout::ts::YIELD_COUNTER;
        let c = &self.threads[t];
        let (base, fp, floor, ceil) = (c.base as usize, c.fp, c.stack_base, c.stack_end);
        let (mut pc, mut sp, mut count) = (c.pc, c.sp, None);
        let (mut frame, unit) = (Range { start: Addr::MAX, end: 0 }, self.step_unit);
        while log.len() < until.1 && *clock < until.0 {
            let d = self.code[base + pc];
            let countdown = d.flags & yield_bit != 0;
            // The window's first countdown tests the counter's leases for all.
            let leased =
                || self.mem.peek(counter).as_int().filter(|_| self.leased(t, counter, true));
            if countdown && *count.get_or_insert_with(|| leased().unwrap_or(0)) <= 1 {
                break;
            }
            // Does the step's footprint lie on the stack and the leased run?
            let mut prove = |vm: &Vm, depth: usize, local: Option<Addr>, write: Option<Addr>| {
                debug_assert_eq!(frame_local(&d, fp, sp), Some((depth, local, write)));
                let mut inside = |a: Addr| frame.contains(&a) || vm.widen(t, &mut frame, a);
                sp >= floor + depth
                    && (write != Some(sp) || sp < ceil)
                    && (depth == 0 || (inside(sp - depth) && inside(sp - 1)))
                    && local.is_none_or(&mut inside)
                    && write.is_none_or(&mut inside)
            };
            let (a, loc) = (d.a as usize, fp + d.a as usize);
            // One arm per op, once its footprint is proven: the word it
            // writes, where `pc` and `sp` go, its counted reads.
            let step = match d.op {
                Op::Jump => prove(self, 0, None, None).then_some((None, a, sp, 0)),
                Op::PutNil | Op::PutTrue | Op::PutFalse | Op::PutInt => {
                    prove(self, 0, None, Some(sp))
                        .then(|| (Some((sp, literal(&d))), pc + 1, sp + 1, 0))
                }
                Op::PutSelf => prove(self, 0, Some(fp + F_SELF), Some(sp))
                    .then(|| (Some((sp, self.get_leased(t, fp + F_SELF))), pc + 1, sp + 1, 1)),
                Op::GetLocal0 => prove(self, 0, Some(loc), Some(sp))
                    .then(|| (Some((sp, self.get_leased(t, loc))), pc + 1, sp + 1, 1)),
                Op::Dup => prove(self, 1, None, Some(sp))
                    .then(|| (Some((sp, self.get_leased(t, sp - 1))), pc + 1, sp + 1, 1)),
                Op::SetLocal0 => prove(self, 1, Some(loc), Some(loc))
                    .then(|| (Some((loc, self.get_leased(t, sp - 1))), pc + 1, sp - 1, 1)),
                Op::Pop | Op::BranchIf | Op::BranchUnless => {
                    prove(self, 1, None, None).then(|| {
                        let truthy = self.get_leased(t, sp - 1).truthy();
                        let taken = d.op != Op::Pop && truthy == (d.op == Op::BranchIf);
                        (None, if taken { a } else { pc + 1 }, sp - 1, 1)
                    })
                }
                op @ (Op::OptPlus | Op::OptMinus | Op::OptMult | Op::OptEq | Op::OptNeq)
                | op @ (Op::OptLt | Op::OptLe | Op::OptGt | Op::OptGe) => {
                    let ints = |vm: &Vm| (1..=2).all(|i| vm.mem.peek(sp - i).as_int().is_some());
                    (prove(self, 2, None, Some(sp - 2)) && ints(self)).then(|| {
                        let (b, a) = (self.get_leased(t, sp - 1), self.get_leased(t, sp - 2));
                        let w = int_binop(op, a.as_int().unwrap_or(0), b.as_int().unwrap_or(0));
                        (w.map(|w| (sp - 2, w)), pc + 1, sp - 1, 2)
                    })
                }
                _ => None,
            };
            let Some((write, next, top, reads)) = step else { break };
            let start = *clock;
            if let Some(n) = count.as_mut().filter(|_| countdown) {
                self.mem.tier1_read(counter);
                *n -= 1;
                self.put_leased(t, counter, Word::Int(*n), true);
                *clock += 2 * unit[1];
            }
            let old = write.map_or(Word::Uninit, |(a, w)| self.put_leased(t, a, w, false));
            log.push(LeasedStep { clock: start, pc: pc as u32, sp: sp as u32, old });
            *clock += unit[0] + unit[1] * (reads + u64::from(write.is_some()));
            (pc, sp) = (next, top);
        }
        let c = &mut self.threads[t];
        (c.pc, c.sp) = (pc, sp);
    }

    /// What the step `s` of `t` logged by [`Vm::run_leased`] did besides
    /// moving `pc` and `sp`: its counted reads, the word it wrote, and
    /// whether Fig. 2's countdown (one read and one write of the counter)
    /// ran with it — from the instruction at its `pc` on `t`'s frame, which
    /// no window step moves.
    pub fn leased_effects(
        &self,
        t: ThreadId,
        s: &LeasedStep,
        bit: u8,
    ) -> (u64, Option<Addr>, bool) {
        let c = &self.threads[t];
        let d = &self.code[c.base as usize + s.pc as usize];
        let footprint = frame_local(d, c.fp, s.sp as usize);
        let (depth, local, write) = footprint.expect("a logged step is frame-local");
        let countdown = d.flags & bit != 0;
        let reads = depth + usize::from(local.is_some() && local != write) + usize::from(countdown);
        (reads as u64, write, countdown)
    }

    /// Execute one pre-decoded instruction.
    #[inline(always)]
    fn exec_decoded(&mut self, t: ThreadId, d: &DecodedInsn) -> Result<StepOk, VmAbort> {
        match d.op {
            Op::PutNil | Op::PutTrue | Op::PutFalse | Op::PutInt => {
                self.push(t, literal(d))?;
                self.advance(t);
            }
            Op::PutSelf => {
                let s = self.frame_self(t)?;
                self.push(t, s)?;
                self.advance(t);
            }
            Op::PutPooled => {
                let w = self.pooled_objs[d.a as usize];
                self.push(t, w)?;
                self.advance(t);
            }
            Op::PutString => {
                let text = Arc::clone(&self.program.strings[d.a as usize]);
                let w = self.make_string(t, text)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::PutSym => {
                self.push(t, Word::sym(SymId(d.a_lo())))?;
                self.advance(t);
            }
            Op::Pop => {
                self.pop(t)?;
                self.advance(t);
            }
            Op::Dup => {
                let w = self.peek_n(t, 0)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::GetLocal0 => {
                let fp = self.threads[t].fp;
                let w = self.rd(t, fp + d.a as usize)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::SetLocal0 => {
                let v = self.pop(t)?;
                let fp = self.threads[t].fp;
                self.wr(t, fp + d.a as usize, v)?;
                self.advance(t);
            }
            Op::GetLocalUp => {
                let f = self.ep_at(t, d.b as u8)?;
                let w = self.rd(t, f + FRAME_WORDS + d.a as usize)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::SetLocalUp => {
                let v = self.pop(t)?;
                let f = self.ep_at(t, d.b as u8)?;
                self.wr(t, f + FRAME_WORDS + d.a as usize, v)?;
                self.advance(t);
            }
            Op::GetIvar => {
                let w = self.ivar_get_cached(t, SymId(d.a_lo()), d.c)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::SetIvar => {
                let v = self.pop(t)?;
                self.ivar_set_cached(t, SymId(d.a_lo()), d.c, v)?;
                self.advance(t);
            }
            Op::GetGlobal => {
                let addr = self.gvar_addr(SymId(d.a_lo()))?;
                let w = match self.rd(t, addr)? {
                    Word::Uninit => Word::Nil,
                    w => w,
                };
                self.push(t, w)?;
                self.advance(t);
            }
            Op::SetGlobal => {
                let v = self.pop(t)?;
                let addr = self.gvar_addr(SymId(d.a_lo()))?;
                self.wr(t, addr, v)?;
                self.advance(t);
            }
            Op::GetConst => {
                let name = SymId(d.a_lo());
                let addr = self.const_lookup(name).ok_or_else(|| {
                    self.fatal(format!("uninitialized constant {}", self.symbols.name(name)))
                })?;
                let w = self.rd(t, addr)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::SetConst => {
                let v = self.pop(t)?;
                let addr = self.const_define_addr(SymId(d.a_lo()))?;
                self.wr(t, addr, v)?;
                self.advance(t);
            }
            Op::NewArray => {
                let n = d.b as usize;
                let mut elems = vec![Word::Nil; n];
                for i in (0..n).rev() {
                    elems[i] = self.pop(t)?;
                }
                let w = self.make_array(t, &elems)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::NewRange => {
                let hi = self.pop(t)?;
                let lo = self.pop(t)?;
                let w = self.make_range(t, lo, hi, d.b != 0)?;
                self.push(t, w)?;
                self.advance(t);
            }
            Op::Send => {
                let block = match d.a_hi() {
                    0 => None,
                    b => Some(IseqId(b - 1)),
                };
                return self.do_send(t, SymId(d.a_lo()), d.b as usize, block, d.c);
            }
            Op::InvokeBlock => {
                return self.do_invoke_block(t, d.b as usize);
            }
            Op::OptPlus | Op::OptMinus | Op::OptMult | Op::OptDiv | Op::OptMod => {
                return self.op_binary(t, d)
            }
            Op::OptEq | Op::OptNeq | Op::OptLt | Op::OptLe | Op::OptGt | Op::OptGe => {
                return self.op_binary(t, d)
            }
            Op::OptAref => return self.op_aref(t, d),
            Op::OptAset => return self.op_aset(t, d),
            Op::OptShl => return self.op_shl(t, d),
            Op::OptNot => {
                let w = self.pop(t)?;
                self.push(t, if w.truthy() { Word::False } else { Word::True })?;
                self.advance(t);
            }
            Op::Jump => {
                self.threads[t].pc = d.a as usize;
            }
            Op::BranchIf => {
                let c = self.pop(t)?;
                if c.truthy() {
                    self.threads[t].pc = d.a as usize;
                } else {
                    self.advance(t);
                }
            }
            Op::BranchUnless => {
                let c = self.pop(t)?;
                if !c.truthy() {
                    self.threads[t].pc = d.a as usize;
                } else {
                    self.advance(t);
                }
            }
            Op::Leave => return self.do_leave(t),
            Op::DefineMethod => {
                let self_w = self.frame_self(t)?;
                let cls = match self_w {
                    Word::Obj(s) if self.kind_of(t, s)? == ObjKind::Class => s,
                    _ => self.classes.object,
                };
                self.define_method(
                    t,
                    cls,
                    SymId(d.a_lo()),
                    MethodEntry::Iseq(IseqId(d.a_hi())),
                    d.b != 0,
                )?;
                self.advance(t);
            }
            Op::DefineClass => {
                let superclass = match d.c {
                    0 => None,
                    s => Some(SymId(s - 1)),
                };
                return self.do_define_class(t, SymId(d.a_lo()), superclass, IseqId(d.a_hi()));
            }
        }
        Ok(StepOk::Normal)
    }

    // ---- sends -----------------------------------------------------------------

    fn do_send(
        &mut self,
        t: ThreadId,
        name: SymId,
        argc: usize,
        block: Option<IseqId>,
        ic: u32,
    ) -> Result<StepOk, VmAbort> {
        let sp = self.threads[t].sp;
        let recv_pos = sp - argc - 1;
        let recv = self.rd(t, recv_pos)?;
        // Receiver-class word for the cache guard; class objects guard on
        // their own identity so Thread.new and Mutex.new never alias.
        let recv_is_class = matches!(&recv, Word::Obj(s) if self.kind_of(t, *s)? == ObjKind::Class);
        let cls = if recv_is_class { recv.as_obj().unwrap() } else { self.class_of(t, &recv)? };
        // Inline-cache probe (two words, like CRuby's call caches). The
        // guard packs the global method-table version above the class
        // word, so every cached entry anywhere dies the moment a method
        // redefinition bumps the version — megamorphic or redefined sites
        // just fall back to the table walk until refilled.
        let ver = self.effective_method_version();
        let expected = (i64::from(ver) << 32) | cls as i64;
        let ic_addr = self.ic_addr(t, ic);
        let guard = self.rd(t, ic_addr)?;
        let entry = if guard == Word::Int(expected) {
            let e = self.rd(t, ic_addr + 1)?;
            Some(MethodEntry::decode(e.as_int().unwrap_or(0)))
        } else {
            None
        };
        let entry = match entry {
            Some(e) => e,
            None => {
                // Slow path: method-table walk.
                let found = if recv_is_class {
                    match self.lookup_static(t, cls, name)? {
                        Some(e) => Some(e),
                        None => {
                            let meta = self.class_of(t, &recv)?;
                            self.lookup_method(t, meta, name)?
                        }
                    }
                } else {
                    self.lookup_method(t, cls, name)?
                };
                let Some(e) = found else {
                    let symbols = Arc::clone(&self.symbols);
                    return Err(self.undefined_method(t, symbols.name(name), &recv));
                };
                // Fill policy (paper §4.4 #4a): the improved cache fills
                // only the first time; the original rewrites on every
                // miss. A guard from a stale method-table version is dead
                // — refilling over it is always allowed. The fill is a
                // plain transactional store, so an aborted slice rolls it
                // back via the undo log (escrowed like marks and wakes).
                let reusable = matches!(guard, Word::Int(g) if (g >> 32) as u32 == ver);
                if !self.config.method_ic_fill_once || !reusable {
                    self.wr(t, ic_addr, Word::Int(expected))?;
                    self.wr(t, ic_addr + 1, Word::Int(e.encode()))?;
                }
                e
            }
        };
        // Materialize the block (allocates a Proc — CRuby passes blocks on
        // the control-frame stack without allocation; the cost difference
        // is one slot per block-taking call, negligible for the workloads).
        let block_addr = match block {
            Some(bi) => {
                let self_w = self.frame_self(t)?;
                let fp = self.threads[t].fp;
                let p = self.make_proc(t, bi, fp, self_w)?;
                // Pin until a frame's F_BLOCK word (or the builtin) roots
                // it — allocations inside the callee setup can GC.
                self.temp_roots.push(p);
                p.as_obj().unwrap()
            }
            None => 0,
        };
        match entry {
            MethodEntry::Iseq(iseq) => {
                self.push_frame(
                    t,
                    iseq,
                    recv,
                    block_addr,
                    0,
                    recv_pos,
                    0,
                    FrameArgs::Stack { base: recv_pos + 1, argc },
                )?;
                Ok(StepOk::Normal)
            }
            MethodEntry::Builtin(id) => {
                // The arguments, read off the operand stack into a host
                // stack array; more than eight spill to the heap.
                let mut few = [Word::Nil; 8];
                let mut many = vec![Word::Nil; if argc > few.len() { argc } else { 0 }];
                let args = if many.is_empty() { &mut few[..argc] } else { &mut many[..] };
                for (i, a) in args.iter_mut().enumerate() {
                    *a = self.rd(t, recv_pos + 1 + i)?;
                }
                let r = crate::builtins::call(self, t, id, recv, args, block_addr)?;
                self.apply_bresult(t, r, args)
            }
        }
    }

    /// Apply a builtin's outcome (stack manipulation + control).
    fn apply_bresult(&mut self, t: ThreadId, r: BResult, args: &[Word]) -> Result<StepOk, VmAbort> {
        let argc = args.len();
        match r {
            BResult::Value(w) => {
                for _ in 0..argc + 1 {
                    self.pop(t)?;
                }
                self.push(t, w)?;
                self.advance(t);
                Ok(StepOk::Normal)
            }
            BResult::Block(on) => {
                if let BlockOn::Io(_) = on {
                    // I/O completes while the thread sleeps: consume the
                    // call now and resume at the *next* instruction.
                    for _ in 0..argc + 1 {
                        self.pop(t)?;
                    }
                    self.push(t, Word::Nil)?;
                    self.advance(t);
                }
                Ok(StepOk::Block(on))
            }
            BResult::Initialize { iseq, obj, block } => {
                for _ in 0..argc + 1 {
                    self.pop(t)?;
                }
                self.push(t, obj)?;
                let ret_sp = self.threads[t].sp;
                let args = FrameArgs::Words(args);
                self.push_frame(t, iseq, obj, block, 0, ret_sp, FLAG_DISCARD, args)?;
                Ok(StepOk::Normal)
            }
            BResult::Spawned { tid, thread_obj } => {
                for _ in 0..argc + 1 {
                    self.pop(t)?;
                }
                self.push(t, thread_obj)?;
                self.advance(t);
                Ok(StepOk::Spawned { tid })
            }
        }
    }

    fn do_invoke_block(&mut self, t: ThreadId, argc: usize) -> Result<StepOk, VmAbort> {
        // Find the method frame up the static chain (yield inside nested
        // blocks refers to the enclosing method's block).
        let mut f = self.threads[t].fp;
        loop {
            let flags = self.rd(t, f + F_FLAGS)?.as_int().unwrap_or(0);
            if flags & FLAG_BLOCK == 0 {
                break;
            }
            let ep = self.rd(t, f + F_EP)?.as_int().unwrap_or(0);
            if ep == 0 {
                break;
            }
            f = ep as Addr;
        }
        let proc_addr = self.rd(t, f + F_BLOCK)?.as_obj().unwrap_or(0);
        if proc_addr == 0 {
            return Err(self.fatal("no block given (yield)"));
        }
        let iseq = IseqId(self.rd(t, proc_addr + 1)?.as_int().unwrap_or(0) as u32);
        let captured_fp = self.rd(t, proc_addr + 2)?.as_int().unwrap_or(0) as Addr;
        let self_w = self.rd(t, proc_addr + 3)?;
        let sp = self.threads[t].sp;
        let args_base = sp - argc;
        let ret_sp = args_base;
        self.push_frame(
            t,
            iseq,
            self_w,
            0,
            captured_fp,
            ret_sp,
            FLAG_BLOCK,
            FrameArgs::Stack { base: args_base, argc },
        )?;
        Ok(StepOk::Normal)
    }

    /// Promote a block-frame chain to heap-allocated environments
    /// (CRuby's env objects). Called when a block escapes its dynamic
    /// extent — i.e. when it is handed to `Thread.new` — because the
    /// spawner keeps running and will reuse the stack words the chain
    /// lives in. Copies every *block* frame (header + locals) into the
    /// malloc area, relinking `ep`s; stops at the first non-block frame,
    /// which by the workload discipline outlives the spawned thread
    /// (spawn and join happen in the same method).
    ///
    /// Note the semantics this buys exactly match what the paper's
    /// workloads need: outer *method/main* locals stay shared (reduction
    /// variables, result arrays), while enclosing block locals (loop
    /// counters) are snapshotted per spawn.
    pub fn promote_env(&mut self, t: ThreadId, fp: Addr) -> Result<Addr, VmAbort> {
        let flags = self.rd(t, fp + F_FLAGS)?.as_int().unwrap_or(0);
        if flags & FLAG_BLOCK == 0 {
            return Ok(fp);
        }
        let iseq = IseqId((flags >> FLAG_ISEQ_SHIFT) as u32);
        let nlocals = self.program.iseq(iseq).nlocals;
        let total = FRAME_WORDS + nlocals;
        let parent = self.rd(t, fp + F_EP)?.as_int().unwrap_or(0) as Addr;
        let new_parent = if parent != 0 { self.promote_env(t, parent)? } else { 0 };
        let (region, _cap) = self.malloc(t, total)?;
        for i in 0..total {
            let w = self.rd(t, fp + i)?;
            self.wr(t, region + i, w)?;
        }
        self.wr(t, region + F_EP, Word::Int(new_parent as i64))?;
        // Promoted envs are GC roots for as long as the VM runs (they are
        // few: one chain per spawned thread).
        self.promoted_envs.push((region, total));
        Ok(region)
    }

    fn do_define_class(
        &mut self,
        t: ThreadId,
        name: SymId,
        superclass: Option<SymId>,
        body: IseqId,
    ) -> Result<StepOk, VmAbort> {
        let existing = match self.const_lookup(name) {
            Some(addr) => match self.rd(t, addr)? {
                Word::Obj(s) if self.kind_of(t, s)? == ObjKind::Class => Some(s),
                _ => None,
            },
            None => None,
        };
        let cls = match existing {
            Some(c) => c,
            None => {
                let sup = match superclass {
                    Some(s) => {
                        let addr = self.const_lookup(s).ok_or_else(|| {
                            self.fatal(format!(
                                "uninitialized constant {} (superclass)",
                                self.symbols.name(s)
                            ))
                        })?;
                        self.rd(t, addr)?
                            .as_obj()
                            .ok_or_else(|| self.fatal("superclass is not a class"))?
                    }
                    None => self.classes.object,
                };
                let slot = self.alloc_slot(t)?;
                self.set_header(t, slot, ObjKind::Class)?;
                self.wr(t, slot + 1, Word::Obj(sup))?;
                self.wr(t, slot + 2, Word::Int(0))?;
                self.wr(t, slot + 3, Word::Int(0))?;
                self.wr(t, slot + 4, Word::Int(0))?;
                self.wr(t, slot + 5, Word::Int(0))?;
                self.wr(t, slot + 6, Word::sym(name))?;
                self.wr(t, slot + 7, Word::Int(0))?;
                let caddr = self.const_define_addr(name)?;
                self.wr(t, caddr, Word::Obj(slot))?;
                slot
            }
        };
        let ret_sp = self.threads[t].sp;
        self.push_frame(t, body, Word::Obj(cls), 0, 0, ret_sp, 0, FrameArgs::Words(&[]))?;
        Ok(StepOk::Normal)
    }

    // ---- inline-cached ivars ------------------------------------------------

    fn ivar_self_slot(&mut self, t: ThreadId) -> Result<Addr, VmAbort> {
        let s = self.frame_self(t)?;
        s.as_obj().ok_or_else(|| self.fatal("instance variable access on immediate"))
    }

    /// The guard word this site would match (paper §4.4 #4b): class
    /// identity originally, ivar-table identity in the improved scheme.
    fn ivar_guard(&mut self, t: ThreadId, cls: Addr) -> Result<Option<i64>, VmAbort> {
        if self.config.ivar_ic_table_guard {
            let ivtbl = self.rd(t, cls + 4)?.as_int().unwrap_or(0);
            Ok(if ivtbl == 0 { None } else { Some(ivtbl) })
        } else {
            Ok(Some(cls as i64))
        }
    }

    fn ivar_get_cached(&mut self, t: ThreadId, name: SymId, ic: u32) -> Result<Word, VmAbort> {
        let slot = self.ivar_self_slot(t)?;
        if self.kind_of(t, slot)? != ObjKind::Object {
            return Err(self.fatal("ivars are only supported on plain objects"));
        }
        let cls =
            self.rd(t, slot + 1)?.as_obj().ok_or_else(|| self.fatal("object without class"))?;
        let ic_addr = self.ic_addr(t, ic);
        let guard = self.rd(t, ic_addr)?;
        if let Some(expected) = self.ivar_guard(t, cls)? {
            if guard == Word::Int(expected) {
                let idx = self.rd(t, ic_addr + 1)?.as_int().unwrap_or(0) as usize;
                return self.obj_ivar_get(t, slot, idx);
            }
        }
        match self.ivar_index(t, cls, name, false)? {
            Some(idx) => {
                if let Some(expected) = self.ivar_guard(t, cls)? {
                    self.wr(t, ic_addr, Word::Int(expected))?;
                    self.wr(t, ic_addr + 1, Word::Int(idx as i64))?;
                }
                self.obj_ivar_get(t, slot, idx)
            }
            None => Ok(Word::Nil),
        }
    }

    fn ivar_set_cached(
        &mut self,
        t: ThreadId,
        name: SymId,
        ic: u32,
        v: Word,
    ) -> Result<(), VmAbort> {
        let slot = self.ivar_self_slot(t)?;
        if self.kind_of(t, slot)? != ObjKind::Object {
            return Err(self.fatal("ivars are only supported on plain objects"));
        }
        let cls =
            self.rd(t, slot + 1)?.as_obj().ok_or_else(|| self.fatal("object without class"))?;
        let ic_addr = self.ic_addr(t, ic);
        let guard = self.rd(t, ic_addr)?;
        if let Some(expected) = self.ivar_guard(t, cls)? {
            if guard == Word::Int(expected) {
                let idx = self.rd(t, ic_addr + 1)?.as_int().unwrap_or(0) as usize;
                return self.obj_ivar_set(t, slot, idx, v);
            }
        }
        let idx = self.ivar_index(t, cls, name, true)?.expect("create=true always yields an index");
        if let Some(expected) = self.ivar_guard(t, cls)? {
            self.wr(t, ic_addr, Word::Int(expected))?;
            self.wr(t, ic_addr + 1, Word::Int(idx as i64))?;
        }
        self.obj_ivar_set(t, slot, idx, v)
    }

    // ---- specialized operators -------------------------------------------------

    /// The generic send operator `d` falls back to, its receiver and
    /// `argc` arguments pushed. A selector nothing interned before decoding
    /// ([`NO_SYM`]) names no method, so that send fails as `do_send` would.
    fn op_send(&mut self, t: ThreadId, d: &DecodedInsn, argc: usize) -> Result<StepOk, VmAbort> {
        if d.a_lo() == NO_SYM {
            let recv = self.peek_n(t, argc)?;
            return Err(self.undefined_method(t, d.op.selector().unwrap_or_default(), &recv));
        }
        self.do_send(t, SymId(d.a_lo()), argc, None, d.c)
    }

    /// Pop the two operands of a binary operator, classifying each as an
    /// immediate integer in a single counted access apiece. Read order —
    /// rhs at `sp-1` first, then lhs at `sp-2` — matches the two `pop`
    /// calls this replaces, so memory traces are unchanged.
    #[inline]
    fn pop_binop_operands(&mut self, t: ThreadId) -> Result<(IntOrWord, IntOrWord), VmAbort> {
        let sp = self.threads[t].sp;
        if sp < self.threads[t].stack_base + 2 {
            return Err(self.fatal("stack underflow"));
        }
        let rhs = self.rd_int(t, sp - 1)?;
        let lhs = self.rd_int(t, sp - 2)?;
        self.threads[t].sp = sp - 2;
        Ok((lhs, rhs))
    }

    /// An arithmetic or comparison operator: the `(Int, Int)` lane
    /// ([`int_binop`]), then floats, `String`/`Array` `+`, `String`
    /// ordering and `==`, then the generic send.
    fn op_binary(&mut self, t: ThreadId, d: &DecodedInsn) -> Result<StepOk, VmAbort> {
        let op = d.op;
        let (lhs, rhs) = match self.pop_binop_operands(t)? {
            (Ok(a), Ok(b)) => {
                let w = int_binop(op, a, b).ok_or_else(|| self.fatal("divided by 0"))?;
                self.push(t, w)?;
                self.advance(t);
                return Ok(StepOk::Normal);
            }
            (lhs, rhs) => (lhs.map_or_else(|w| w, Word::Int), rhs.map_or_else(|w| w, Word::Int)),
        };
        let cmp = !matches!(op, Op::OptPlus | Op::OptMinus | Op::OptMult | Op::OptDiv | Op::OptMod);
        let result = match op {
            Op::OptEq | Op::OptNeq => {
                Some(truth(self.words_eq(t, &lhs, &rhs)? == (op == Op::OptEq)))
            }
            _ => match (self.as_number(t, &lhs)?, self.as_number(t, &rhs)?) {
                (Some(a), Some(b)) if cmp => a.partial_cmp(&b).map(|o| truth(ord_holds(op, o))),
                // Float path (heap-allocates the result, CRuby 1.9 style).
                (Some(a), Some(b)) => Some(self.make_float(t, float_op(op, a, b))?),
                _ => self.objects_binop(t, op, &lhs, &rhs)?,
            },
        };
        match result {
            Some(w) => {
                self.push(t, w)?;
                self.advance(t);
                Ok(StepOk::Normal)
            }
            // Generic dispatch to a user-defined operator.
            None => {
                self.push(t, lhs)?;
                self.push(t, rhs)?;
                self.op_send(t, d, 1)
            }
        }
    }

    /// [`Vm::op_binary`] on two heap objects: `String` ordering, `String +
    /// String`, `Array + Array`; `None` for anything else. Reads each kind
    /// only as far as the answer needs.
    fn objects_binop(
        &mut self,
        t: ThreadId,
        op: Op,
        lhs: &Word,
        rhs: &Word,
    ) -> Result<Option<Word>, VmAbort> {
        let (&Word::Obj(a), &Word::Obj(b)) = (lhs, rhs) else { return Ok(None) };
        if !matches!(op, Op::OptPlus | Op::OptLt | Op::OptLe | Op::OptGt | Op::OptGe) {
            return Ok(None);
        }
        if self.kind_of(t, a)? == ObjKind::String && self.kind_of(t, b)? == ObjKind::String {
            let sa = self.string_content(t, a)?;
            let sb = self.string_content(t, b)?;
            if op != Op::OptPlus {
                return Ok(Some(truth(ord_holds(op, sa.cmp(&sb)))));
            }
            let joined = self.build_text(|_, out| {
                out.push_str(&sa);
                out.push_str(&sb);
                Ok(())
            })?;
            self.step_native_cost += (joined.len() / 8) as u64;
            return self.make_string(t, joined).map(Some);
        }
        if op == Op::OptPlus
            && self.kind_of(t, a)? == ObjKind::Array
            && self.kind_of(t, b)? == ObjKind::Array
        {
            let mut elems = Vec::new();
            for i in 0..self.array_len(t, a)? {
                elems.push(self.array_get(t, a, i as i64)?);
            }
            for i in 0..self.array_len(t, b)? {
                elems.push(self.array_get(t, b, i as i64)?);
            }
            return self.make_array(t, &elems).map(Some);
        }
        Ok(None)
    }

    fn op_aref(&mut self, t: ThreadId, d: &DecodedInsn) -> Result<StepOk, VmAbort> {
        let idx = self.pop(t)?;
        let recv = self.pop(t)?;
        if let Word::Obj(slot) = recv {
            match self.kind_of(t, slot)? {
                ObjKind::Array => {
                    if let Word::Int(i) = idx {
                        let w = self.array_get(t, slot, i)?;
                        self.push(t, w)?;
                        self.advance(t);
                        return Ok(StepOk::Normal);
                    }
                }
                ObjKind::Hash => {
                    let w = self.hash_get(t, slot, &idx)?;
                    self.push(t, w)?;
                    self.advance(t);
                    return Ok(StepOk::Normal);
                }
                ObjKind::String => {
                    if let Word::Int(i) = idx {
                        let s = self.string_content(t, slot)?;
                        let len = s.len() as i64;
                        let i = if i < 0 { len + i } else { i };
                        let w = if i < 0 || i >= len {
                            Word::Nil
                        } else {
                            let ch = &s[i as usize..i as usize + 1];
                            self.make_string(t, ch.into())?
                        };
                        self.push(t, w)?;
                        self.advance(t);
                        return Ok(StepOk::Normal);
                    }
                }
                ObjKind::MatchData => {
                    if let Word::Int(i) = idx {
                        let groups = self.rd(t, slot + 1)?;
                        if let Word::Obj(g) = groups {
                            let w = self.array_get(t, g, i)?;
                            self.push(t, w)?;
                            self.advance(t);
                            return Ok(StepOk::Normal);
                        }
                    }
                }
                _ => {}
            }
        }
        // Generic `[]`.
        self.push(t, recv)?;
        self.push(t, idx)?;
        self.op_send(t, d, 1)
    }

    fn op_aset(&mut self, t: ThreadId, d: &DecodedInsn) -> Result<StepOk, VmAbort> {
        let value = self.pop(t)?;
        let idx = self.pop(t)?;
        let recv = self.pop(t)?;
        if let Word::Obj(slot) = recv {
            match self.kind_of(t, slot)? {
                ObjKind::Array => {
                    if let Word::Int(i) = idx {
                        self.array_set(t, slot, i, value)?;
                        self.push(t, value)?;
                        self.advance(t);
                        return Ok(StepOk::Normal);
                    }
                }
                ObjKind::Hash => {
                    self.hash_set(t, slot, idx, value)?;
                    self.push(t, value)?;
                    self.advance(t);
                    return Ok(StepOk::Normal);
                }
                _ => {}
            }
        }
        self.push(t, recv)?;
        self.push(t, idx)?;
        self.push(t, value)?;
        self.op_send(t, d, 2)
    }

    fn op_shl(&mut self, t: ThreadId, d: &DecodedInsn) -> Result<StepOk, VmAbort> {
        let rhs = self.pop(t)?;
        let lhs = self.pop(t)?;
        match &lhs {
            Word::Int(a) => {
                let b =
                    rhs.as_int().ok_or_else(|| self.fatal("shift amount must be an Integer"))?;
                self.push(t, Word::Int(ruby_shl(*a, b)))?;
                self.advance(t);
                Ok(StepOk::Normal)
            }
            Word::Obj(slot) => match self.kind_of(t, *slot)? {
                ObjKind::Array => {
                    self.array_push(t, *slot, rhs)?;
                    self.push(t, lhs)?;
                    self.advance(t);
                    Ok(StepOk::Normal)
                }
                ObjKind::String => {
                    let sa = self.string_content(t, *slot)?;
                    let joined = self.build_text(|vm, out| {
                        out.push_str(&sa);
                        vm.display_into(t, &rhs, out)
                    })?;
                    self.step_native_cost += (joined.len() / 8) as u64;
                    self.string_replace(t, *slot, joined)?;
                    self.push(t, lhs)?;
                    self.advance(t);
                    Ok(StepOk::Normal)
                }
                _ => {
                    self.push(t, lhs)?;
                    self.push(t, rhs)?;
                    self.op_send(t, d, 1)
                }
            },
            _ => Err(self.fatal("unsupported << receiver")),
        }
    }
}

enum FrameArgs<'a> {
    /// Copy `argc` words starting at stack address `base`.
    Stack { base: Addr, argc: usize },
    /// Words already read off the stack (a builtin's arguments).
    Words(&'a [Word]),
}

/// The word a literal instruction (`PutNil`, `PutTrue`, `PutFalse`,
/// `PutInt`) pushes.
fn literal(d: &DecodedInsn) -> Word {
    match d.op {
        Op::PutNil => Word::Nil,
        Op::PutTrue => Word::True,
        Op::PutFalse => Word::False,
        _ => Word::Int(d.a as i64),
    }
}

/// The `(Int, Int)` lane of an arithmetic or comparison operator, which
/// [`Vm::op_binary`] and the window kernel ([`Vm::run_leased`]) share:
/// `None` for a division by zero.
#[inline(always)]
fn int_binop(op: Op, a: i64, b: i64) -> Option<Word> {
    Some(Word::Int(match op {
        Op::OptPlus => a.wrapping_add(b),
        Op::OptMinus => a.wrapping_sub(b),
        Op::OptMult => a.wrapping_mul(b),
        Op::OptDiv | Op::OptMod if b == 0 => return None,
        Op::OptDiv => crate::value::ruby_div(a, b),
        Op::OptMod => crate::value::ruby_mod(a, b),
        cmp => return Some(truth(ord_holds(cmp, a.cmp(&b)))),
    }))
}

/// An arithmetic operator on two floats.
fn float_op(op: Op, a: f64, b: f64) -> f64 {
    match op {
        Op::OptPlus => a + b,
        Op::OptMinus => a - b,
        Op::OptMult => a * b,
        Op::OptDiv => a / b,
        _ => a.rem_euclid(b),
    }
}

/// Whether comparison `op` holds of two operands ordered `o`.
fn ord_holds(op: Op, o: std::cmp::Ordering) -> bool {
    match op {
        Op::OptEq => o.is_eq(),
        Op::OptNeq => o.is_ne(),
        Op::OptLt => o.is_lt(),
        Op::OptLe => o.is_le(),
        Op::OptGt => o.is_gt(),
        _ => o.is_ge(),
    }
}

fn truth(b: bool) -> Word {
    if b {
        Word::True
    } else {
        Word::False
    }
}
