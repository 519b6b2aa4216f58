//! The instruction format: the one the compiler emits and the
//! interpreter runs.
//!
//! [`crate::compile`] emits every instruction as one fixed-width (16-byte)
//! [`DecodedInsn`] into a single flat array indexed by global pc
//! (`Program::base + pc`); one instruction is one step. Opcode names mirror
//! CRuby 1.9's, because the paper's extra yield points are defined on
//! bytecode *types* (§4.2). What the format buys the host:
//!
//! * dispatch is a dense `u8` opcode match over a `Copy` struct;
//! * operands sit in fixed lanes: depth-0 locals carry their frame offset,
//!   branch targets are absolute, `Send` has name/argc/block/ic, the
//!   `opt_*` operators carry their fallback selector (resolved by
//!   [`crate::program::Program::finalize`]);
//! * both yield-point policies are flag bits, set at emission, so the
//!   executor's per-step yield classification is a single load; a third
//!   bit marks the frame-local instructions a thread may run ahead of the
//!   lock-step horizon ([`LOCAL`], `Vm::run_leased`).

use crate::interp::F_SELF;

/// Flag bit: original-policy yield point (backward branch / leave).
pub const YP_ORIG: u8 = 1 << 0;
/// Flag bit: extended-policy yield point (§4.2 fine-grained set).
pub const YP_EXT: u8 = 1 << 1;
/// Flag bit: frame-local ([`frame_local`]), so it can run on leases alone.
pub const LOCAL: u8 = 1 << 2;

/// Sentinel in the selector lane of an `opt_*` instruction whose generic
/// fallback selector was not interned when the program was finalized: no
/// method bears the name, so the fallback send raises "undefined method"
/// (`Vm::op_send`).
pub const NO_SYM: u32 = u32::MAX;

/// Dense opcode (CRuby's instruction set, with depth-0 local accesses
/// split out as their own hot opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    PutNil,
    PutTrue,
    PutFalse,
    PutSelf,
    /// `a` = the i64 literal (bit-cast).
    PutInt,
    /// `a` = literal-pool index: a shared frozen literal (a float).
    PutPooled,
    /// `a` = string-pool index: a fresh String per execution, as CRuby's
    /// `putstring` allocates.
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

/// One instruction: 16 bytes, `Copy`, operands in fixed lanes.
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

impl Op {
    /// The method an `opt_*` operator sends when its fast path does not
    /// apply.
    pub fn selector(self) -> Option<&'static str> {
        Some(match self {
            Op::OptPlus => "+",
            Op::OptMinus => "-",
            Op::OptMult => "*",
            Op::OptDiv => "/",
            Op::OptMod => "%",
            Op::OptEq => "==",
            Op::OptNeq => "!=",
            Op::OptLt => "<",
            Op::OptLe => "<=",
            Op::OptGt => ">",
            Op::OptGe => ">=",
            Op::OptAref => "[]",
            Op::OptAset => "[]=",
            Op::OptShl => "<<",
            _ => return None,
        })
    }
}

impl DecodedInsn {
    /// An instruction with the flags its op implies: `leave` is an
    /// original yield point, and the paper's extended set (§4.2) adds
    /// `getlocal`, `getinstancevariable`, `send`, `opt_plus`, `opt_minus`,
    /// `opt_mult` and `opt_aref` (`getclassvariable` is outside the
    /// subset). A branch's flags wait for its target (`Emit::patch`).
    pub fn new(op: Op, a: u64, b: u16, c: u32) -> Self {
        let flags = match op {
            Op::Leave => YP_ORIG | YP_EXT,
            Op::GetLocal0 | Op::GetLocalUp | Op::GetIvar | Op::Send => YP_EXT,
            Op::OptPlus | Op::OptMinus | Op::OptMult | Op::OptAref => YP_EXT,
            _ => 0,
        };
        let d = DecodedInsn { op, flags, b, c, a };
        DecodedInsn { flags: flags | if frame_local(&d, 0, 0).is_some() { LOCAL } else { 0 }, ..d }
    }

    /// Net operand-stack effect (conservative for calls: receiver and
    /// arguments become one result).
    fn stack_effect(&self) -> i64 {
        use Op::*;
        let n = i64::from(self.b);
        match self.op {
            Jump | Leave | DefineMethod | OptNot => 0,
            PutNil | PutTrue | PutFalse | PutSelf | PutInt | PutPooled | PutString | PutSym => 1,
            Dup | GetLocal0 | GetLocalUp | GetIvar | GetGlobal | GetConst | DefineClass => 1,
            Pop | SetLocal0 | SetLocalUp | SetIvar | SetGlobal | SetConst | NewRange => -1,
            BranchIf | BranchUnless => -1,
            NewArray | InvokeBlock => 1 - n,
            Send => -n,
            OptPlus | OptMinus | OptMult | OptDiv | OptMod | OptEq | OptNeq | OptLt | OptLe
            | OptGt | OptGe | OptAref | OptShl => -1,
            OptAset => -2,
        }
    }
}

/// Worst-case operand-stack depth of one iseq's code — a conservative
/// static bound used to size frames, over the stack effects in code order.
pub fn max_stack(code: &[DecodedInsn]) -> usize {
    let (mut depth, mut max) = (0i64, 8i64); // headroom for call glue
    for d in code {
        depth = (depth + d.stack_effect()).max(0);
        max = max.max(depth);
    }
    max as usize + 8
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
