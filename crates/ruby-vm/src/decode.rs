//! Pre-decoded threaded bytecode.
//!
//! [`crate::program::Program::finalize`] lowers every [`Insn`] into one
//! fixed-width (16-byte) [`DecodedInsn`] in a single flat array indexed by
//! global pc (`iseq_base[iseq] + pc`). The lowering is a pure
//! representation change — the decoded stream is 1:1 with the original
//! code and one decoded instruction is one step, so cycle charges,
//! simulated memory traffic and yield-point placement are exactly those
//! of the bytecode (asserted by the yield-point proptest and the pinned
//! counters). What it buys the *host*:
//!
//! * dispatch is a dense `u8` opcode match over a `Copy` struct — no
//!   per-step `Insn` clone, no nested `Vec` indexing;
//! * operands are pre-unpacked: depth-0 locals carry their frame offset,
//!   branch targets are absolute, `Send` has name/argc/block/ic in fixed
//!   lanes, the `opt_*` operators carry their pre-resolved fallback
//!   selector;
//! * both yield-point policies are precomputed as flag bits, so the
//!   executor's per-step yield classification is a single load instead of
//!   an `Insn` fetch + `kind()` match; a third bit marks the frame-local
//!   instructions a thread may run ahead of the lock-step horizon
//!   ([`LOCAL`], `Vm::run_leased`).

use crate::bytecode::{ISeq, Insn};
use crate::interp::{FRAME_WORDS, F_SELF};
use crate::symbols::SymbolTable;

/// Flag bit: original-policy yield point (backward branch / leave).
pub const YP_ORIG: u8 = 1 << 0;
/// Flag bit: extended-policy yield point (§4.2 fine-grained set).
pub const YP_EXT: u8 = 1 << 1;
/// Flag bit: frame-local ([`frame_local`]), so it can run on leases alone.
pub const LOCAL: u8 = 1 << 2;

/// Sentinel in the selector lane of an `opt_*` instruction whose generic
/// fallback selector was not interned at decode time: no method bears the
/// name, so the fallback send raises "undefined method" (`Vm::op_send`).
pub const NO_SYM: u32 = u32::MAX;

/// Dense opcode of the decoded stream (one per [`Insn`] variant, with
/// depth-0 local accesses split out as their own hot opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    PutNil,
    PutTrue,
    PutFalse,
    PutSelf,
    /// `a` = the i64 literal (bit-cast).
    PutInt,
    /// `a` = literal-pool index.
    PutPooled,
    /// `a` = string-pool index.
    PutString,
    /// `a` = raw `SymId`.
    PutSym,
    Pop,
    Dup,
    /// Depth-0 local read: `a` = frame offset (`FRAME_WORDS + idx`).
    GetLocal0,
    /// Depth-0 local write: `a` = frame offset.
    SetLocal0,
    /// Outer-scope local read: `a` = idx, `b` = depth.
    GetLocalUp,
    /// Outer-scope local write: `a` = idx, `b` = depth.
    SetLocalUp,
    /// `a` = name, `c` = ic site.
    GetIvar,
    SetIvar,
    /// `a` = name.
    GetGlobal,
    SetGlobal,
    GetConst,
    SetConst,
    /// `b` = element count.
    NewArray,
    /// `b` = 1 when exclusive.
    NewRange,
    /// `a` = name | (block_iseq+1) << 32, `b` = argc, `c` = ic site.
    Send,
    /// `b` = argc.
    InvokeBlock,
    /// Arithmetic/compare operators: `a` = pre-resolved fallback selector
    /// (or [`NO_SYM`]), `c` = ic site.
    OptPlus,
    OptMinus,
    OptMult,
    OptDiv,
    OptMod,
    OptEq,
    OptNeq,
    OptLt,
    OptLe,
    OptGt,
    OptGe,
    OptAref,
    OptAset,
    OptShl,
    OptNot,
    /// `a` = absolute target pc (iseq-relative index).
    Jump,
    BranchIf,
    BranchUnless,
    Leave,
    /// `a` = name | iseq << 32, `b` = 1 when `on_self`.
    DefineMethod,
    /// `a` = name | body << 32, `c` = superclass sym + 1 (0 = none).
    DefineClass,
}

/// One pre-decoded instruction: 16 bytes, `Copy`, operands in fixed lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInsn {
    pub op: Op,
    pub flags: u8,
    pub b: u16,
    pub c: u32,
    pub a: u64,
}

impl DecodedInsn {
    /// The low selector lane (`SymId` raw / pool index / frame offset).
    #[inline]
    pub fn a_lo(&self) -> u32 {
        self.a as u32
    }

    /// The high lane of packed two-operand instructions.
    #[inline]
    pub fn a_hi(&self) -> u32 {
        (self.a >> 32) as u32
    }
}

/// Lower one instruction (yield flags + operands).
fn lower(insn: &Insn, pc: usize, symbols: &SymbolTable) -> DecodedInsn {
    let sym_or = |s: &str| symbols.lookup(s).map_or(NO_SYM, |id| id.0);
    let mut d = DecodedInsn { op: Op::PutNil, flags: 0, b: 0, c: 0, a: 0 };
    let kind = insn.kind();
    if kind.is_original_yield_point() {
        d.flags |= YP_ORIG;
    }
    if kind.is_extended_yield_point() {
        d.flags |= YP_EXT;
    }
    match *insn {
        Insn::PutNil => d.op = Op::PutNil,
        Insn::PutTrue => d.op = Op::PutTrue,
        Insn::PutFalse => d.op = Op::PutFalse,
        Insn::PutSelf => d.op = Op::PutSelf,
        Insn::PutInt(i) => {
            d.op = Op::PutInt;
            d.a = i as u64;
        }
        Insn::PutPooled(i) => {
            d.op = Op::PutPooled;
            d.a = u64::from(i);
        }
        Insn::PutString(i) => {
            d.op = Op::PutString;
            d.a = u64::from(i);
        }
        Insn::PutSym(s) => {
            d.op = Op::PutSym;
            d.a = u64::from(s.0);
        }
        Insn::Pop => d.op = Op::Pop,
        Insn::Dup => d.op = Op::Dup,
        Insn::GetLocal { idx, depth } => {
            if depth == 0 {
                d.op = Op::GetLocal0;
                d.a = (FRAME_WORDS + idx as usize) as u64;
            } else {
                d.op = Op::GetLocalUp;
                d.a = u64::from(idx);
                d.b = u16::from(depth);
            }
        }
        Insn::SetLocal { idx, depth } => {
            if depth == 0 {
                d.op = Op::SetLocal0;
                d.a = (FRAME_WORDS + idx as usize) as u64;
            } else {
                d.op = Op::SetLocalUp;
                d.a = u64::from(idx);
                d.b = u16::from(depth);
            }
        }
        Insn::GetIvar { name, ic } => {
            d.op = Op::GetIvar;
            d.a = u64::from(name.0);
            d.c = ic;
        }
        Insn::SetIvar { name, ic } => {
            d.op = Op::SetIvar;
            d.a = u64::from(name.0);
            d.c = ic;
        }
        Insn::GetGlobal { name } => {
            d.op = Op::GetGlobal;
            d.a = u64::from(name.0);
        }
        Insn::SetGlobal { name } => {
            d.op = Op::SetGlobal;
            d.a = u64::from(name.0);
        }
        Insn::GetConst { name } => {
            d.op = Op::GetConst;
            d.a = u64::from(name.0);
        }
        Insn::SetConst { name } => {
            d.op = Op::SetConst;
            d.a = u64::from(name.0);
        }
        Insn::NewArray { n } => {
            d.op = Op::NewArray;
            d.b = n;
        }
        Insn::NewRange { excl } => {
            d.op = Op::NewRange;
            d.b = u16::from(excl);
        }
        Insn::Send { name, argc, block, ic } => {
            d.op = Op::Send;
            d.a = u64::from(name.0) | u64::from(block.map_or(0, |b| b.0 + 1)) << 32;
            d.b = u16::from(argc);
            d.c = ic;
        }
        Insn::InvokeBlock { argc } => {
            d.op = Op::InvokeBlock;
            d.b = u16::from(argc);
        }
        Insn::OptPlus { ic } => (d.op, d.a, d.c) = (Op::OptPlus, u64::from(sym_or("+")), ic),
        Insn::OptMinus { ic } => (d.op, d.a, d.c) = (Op::OptMinus, u64::from(sym_or("-")), ic),
        Insn::OptMult { ic } => (d.op, d.a, d.c) = (Op::OptMult, u64::from(sym_or("*")), ic),
        Insn::OptDiv { ic } => (d.op, d.a, d.c) = (Op::OptDiv, u64::from(sym_or("/")), ic),
        Insn::OptMod { ic } => (d.op, d.a, d.c) = (Op::OptMod, u64::from(sym_or("%")), ic),
        Insn::OptEq { ic } => (d.op, d.a, d.c) = (Op::OptEq, u64::from(sym_or("==")), ic),
        Insn::OptNeq { ic } => (d.op, d.a, d.c) = (Op::OptNeq, u64::from(sym_or("!=")), ic),
        Insn::OptLt { ic } => (d.op, d.a, d.c) = (Op::OptLt, u64::from(sym_or("<")), ic),
        Insn::OptLe { ic } => (d.op, d.a, d.c) = (Op::OptLe, u64::from(sym_or("<=")), ic),
        Insn::OptGt { ic } => (d.op, d.a, d.c) = (Op::OptGt, u64::from(sym_or(">")), ic),
        Insn::OptGe { ic } => (d.op, d.a, d.c) = (Op::OptGe, u64::from(sym_or(">=")), ic),
        Insn::OptAref { ic } => (d.op, d.a, d.c) = (Op::OptAref, u64::from(sym_or("[]")), ic),
        Insn::OptAset { ic } => (d.op, d.a, d.c) = (Op::OptAset, u64::from(sym_or("[]=")), ic),
        Insn::OptShl { ic } => (d.op, d.a, d.c) = (Op::OptShl, u64::from(sym_or("<<")), ic),
        Insn::OptNot => d.op = Op::OptNot,
        Insn::Jump(off) => {
            d.op = Op::Jump;
            d.a = (pc as i64 + i64::from(off)) as u64;
        }
        Insn::BranchIf(off) => {
            d.op = Op::BranchIf;
            d.a = (pc as i64 + i64::from(off)) as u64;
        }
        Insn::BranchUnless(off) => {
            d.op = Op::BranchUnless;
            d.a = (pc as i64 + i64::from(off)) as u64;
        }
        Insn::Leave => d.op = Op::Leave,
        Insn::DefineMethod { name, iseq, on_self } => {
            d.op = Op::DefineMethod;
            d.a = u64::from(name.0) | u64::from(iseq.0) << 32;
            d.b = u16::from(on_self);
        }
        Insn::DefineClass { name, superclass, body } => {
            d.op = Op::DefineClass;
            d.a = u64::from(name.0) | u64::from(body.0) << 32;
            d.c = superclass.map_or(0, |s| s.0 + 1);
        }
    }
    if frame_local(&d, 0, 0).is_some() {
        d.flags |= LOCAL;
    }
    d
}

/// Words a frame-local instruction touches: how many it reads off the stack
/// top, the frame word it reads or writes, the word it writes.
pub type Footprint = (usize, Option<usize>, Option<usize>);

/// The [`Footprint`] of a frame-local instruction ([`LOCAL`]) with its frame
/// at `fp` and its stack top at `sp`, `None` for every other op (the
/// operators are frame-local only on their two-`Int` fast path).
pub fn frame_local(d: &DecodedInsn, fp: usize, sp: usize) -> Option<Footprint> {
    let (local, over) = (fp.wrapping_add(d.a as usize), sp.wrapping_sub(2));
    Some(match d.op {
        Op::Jump => (0, None, None),
        Op::PutNil | Op::PutTrue | Op::PutFalse | Op::PutInt => (0, None, Some(sp)),
        Op::PutSelf => (0, Some(fp + F_SELF), Some(sp)),
        Op::GetLocal0 => (0, Some(local), Some(sp)),
        Op::Dup => (1, None, Some(sp)),
        Op::Pop | Op::BranchIf | Op::BranchUnless => (1, None, None),
        Op::SetLocal0 => (1, Some(local), Some(local)),
        Op::OptPlus | Op::OptMinus | Op::OptMult => (2, None, Some(over)),
        Op::OptEq | Op::OptNeq | Op::OptLt | Op::OptLe | Op::OptGt | Op::OptGe => {
            (2, None, Some(over))
        }
        _ => return None,
    })
}

/// Append one iseq's decoded instructions to the flat stream, 1:1 with
/// `Program::global_pc` indexing.
pub fn decode_into(iseq: &ISeq, symbols: &SymbolTable, out: &mut Vec<DecodedInsn>) {
    out.extend(iseq.code.iter().enumerate().map(|(pc, insn)| lower(insn, pc, symbols)));
}
