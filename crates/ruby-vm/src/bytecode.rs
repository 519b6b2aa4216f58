//! YARV-like stack bytecode.
//!
//! Instruction names deliberately mirror CRuby 1.9's — the paper's extra
//! yield points are defined on bytecode *types* (`getlocal`,
//! `getinstancevariable`, `getclassvariable`, `send`, `opt_plus`,
//! `opt_minus`, `opt_mult`, `opt_aref`), so the runtime classifies
//! instructions the same way (see [`Insn::kind`] and
//! [`InsnKind::is_extended_yield_point`]). Class variables are outside the
//! subset, so `getclassvariable` has no instruction here.

use crate::symbols::SymId;

/// Index of an instruction sequence in the program's iseq table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IseqId(pub u32);

/// Inline-cache site index (into the VM's IC area in simulated memory).
pub type IcSite = u32;

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    // --- push/pop -------------------------------------------------------
    PutNil,
    PutTrue,
    PutFalse,
    PutSelf,
    PutInt(i64),
    /// Push a shared frozen literal object from the constant-object pool
    /// (CRuby float literals are shared objects — no allocation).
    PutPooled(u32),
    /// Push a *fresh copy* of a pooled string literal (CRuby's
    /// `putstring` / `rb_str_resurrect` allocates on every execution).
    PutString(u32),
    PutSym(SymId),
    Pop,
    Dup,
    // --- variables ------------------------------------------------------
    /// Local read; `depth` block hops up the static chain.
    GetLocal {
        idx: u16,
        depth: u8,
    },
    SetLocal {
        idx: u16,
        depth: u8,
    },
    GetIvar {
        name: SymId,
        ic: IcSite,
    },
    SetIvar {
        name: SymId,
        ic: IcSite,
    },
    GetGlobal {
        name: SymId,
    },
    SetGlobal {
        name: SymId,
    },
    GetConst {
        name: SymId,
    },
    SetConst {
        name: SymId,
    },
    // --- aggregates -----------------------------------------------------
    NewArray {
        n: u16,
    },
    NewRange {
        excl: bool,
    },
    // --- calls ----------------------------------------------------------
    /// Method dispatch: `recv arg1 … argN` on the stack.
    Send {
        name: SymId,
        argc: u8,
        block: Option<IseqId>,
        ic: IcSite,
    },
    /// `yield` — invoke the current frame's block.
    InvokeBlock {
        argc: u8,
    },
    // --- specialized operators (CRuby's opt_* family) ---------------------
    OptPlus {
        ic: IcSite,
    },
    OptMinus {
        ic: IcSite,
    },
    OptMult {
        ic: IcSite,
    },
    OptDiv {
        ic: IcSite,
    },
    OptMod {
        ic: IcSite,
    },
    OptEq {
        ic: IcSite,
    },
    OptNeq {
        ic: IcSite,
    },
    OptLt {
        ic: IcSite,
    },
    OptLe {
        ic: IcSite,
    },
    OptGt {
        ic: IcSite,
    },
    OptGe {
        ic: IcSite,
    },
    OptAref {
        ic: IcSite,
    },
    OptAset {
        ic: IcSite,
    },
    /// `<<` — Integer shift, Array push or String append.
    OptShl {
        ic: IcSite,
    },
    OptNot,
    // --- control flow ----------------------------------------------------
    Jump(i32),
    BranchIf(i32),
    BranchUnless(i32),
    /// Return from the current frame with the stack top as value.
    Leave,
    // --- definitions ------------------------------------------------------
    DefineMethod {
        name: SymId,
        iseq: IseqId,
        on_self: bool,
    },
    DefineClass {
        name: SymId,
        superclass: Option<SymId>,
        body: IseqId,
    },
}

/// Coarse instruction classification used by the yield-point policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsnKind {
    GetLocal,
    GetIvar,
    Send,
    OptPlus,
    OptMinus,
    OptMult,
    OptAref,
    /// Backward jumps: CRuby's original yield points sit on loop
    /// back-edges.
    BranchBack,
    /// Method/block exit — the other original yield-point class.
    Leave,
    Other,
}

impl Insn {
    /// Classify for yield-point policy decisions. `pc` is needed to decide
    /// whether a branch jumps backwards.
    pub fn kind(&self) -> InsnKind {
        match self {
            Insn::GetLocal { .. } => InsnKind::GetLocal,
            Insn::GetIvar { .. } => InsnKind::GetIvar,
            Insn::Send { .. } => InsnKind::Send,
            Insn::OptPlus { .. } => InsnKind::OptPlus,
            Insn::OptMinus { .. } => InsnKind::OptMinus,
            Insn::OptMult { .. } => InsnKind::OptMult,
            Insn::OptAref { .. } => InsnKind::OptAref,
            Insn::Leave => InsnKind::Leave,
            Insn::Jump(off) | Insn::BranchIf(off) | Insn::BranchUnless(off) if *off < 0 => {
                InsnKind::BranchBack
            }
            _ => InsnKind::Other,
        }
    }
}

impl InsnKind {
    /// CRuby's original yield points: loop back-edges and method/block
    /// exits (paper §3.2).
    pub fn is_original_yield_point(self) -> bool {
        matches!(self, InsnKind::BranchBack | InsnKind::Leave)
    }

    /// The paper's extended yield-point set (§4.2): the original points
    /// plus `getlocal`, `getinstancevariable`, `send`, `opt_plus`,
    /// `opt_minus`, `opt_mult`, `opt_aref` (and `getclassvariable`, which
    /// the subset does not compile).
    pub fn is_extended_yield_point(self) -> bool {
        self.is_original_yield_point()
            || matches!(
                self,
                InsnKind::GetLocal
                    | InsnKind::GetIvar
                    | InsnKind::Send
                    | InsnKind::OptPlus
                    | InsnKind::OptMinus
                    | InsnKind::OptMult
                    | InsnKind::OptAref
            )
    }
}

/// A compiled instruction sequence (method, block, class body or
/// top-level).
#[derive(Debug, Clone)]
pub struct ISeq {
    pub id: IseqId,
    /// Human-readable name for diagnostics ("Object#workload", "block in
    /// each", "<main>").
    pub name: String,
    /// Number of declared parameters (leading locals).
    pub nparams: usize,
    /// Total local slots including parameters.
    pub nlocals: usize,
    pub code: Vec<Insn>,
    /// True for block iseqs (locals resolve up the static chain).
    pub is_block: bool,
}

impl ISeq {
    /// Worst-case operand-stack depth — conservative static bound used to
    /// size frames. A simple abstract interpretation over stack effects.
    pub fn max_stack(&self) -> usize {
        let mut depth: i64 = 0;
        let mut max: i64 = 8; // headroom for call glue
        for insn in &self.code {
            depth += stack_effect(insn);
            if depth < 0 {
                depth = 0;
            }
            if depth > max {
                max = depth;
            }
        }
        (max as usize) + 8
    }
}

/// Net stack effect of one instruction (conservative for calls).
fn stack_effect(i: &Insn) -> i64 {
    use Insn::*;
    match i {
        Jump(_) | Leave | DefineMethod { .. } => 0,
        PutNil | PutTrue | PutFalse | PutSelf | PutInt(_) | PutPooled(_) | PutString(_)
        | PutSym(_) => 1,
        Pop => -1,
        Dup => 1,
        GetLocal { .. } | GetIvar { .. } | GetGlobal { .. } | GetConst { .. } => 1,
        SetLocal { .. } | SetIvar { .. } | SetGlobal { .. } | SetConst { .. } => -1,
        NewArray { n } => 1 - i64::from(*n),
        NewRange { .. } => -1,
        Send { argc, .. } => -i64::from(*argc), // recv+args → result
        InvokeBlock { argc } => 1 - i64::from(*argc),
        OptPlus { .. }
        | OptMinus { .. }
        | OptMult { .. }
        | OptDiv { .. }
        | OptMod { .. }
        | OptEq { .. }
        | OptNeq { .. }
        | OptLt { .. }
        | OptLe { .. }
        | OptGt { .. }
        | OptGe { .. }
        | OptAref { .. }
        | OptShl { .. } => -1,
        OptAset { .. } => -2,
        OptNot => 0,
        BranchIf(_) | BranchUnless(_) => -1,
        DefineClass { .. } => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_yield_points_match_paper_list() {
        // Extended set includes the original points…
        assert!(InsnKind::BranchBack.is_extended_yield_point());
        assert!(InsnKind::Leave.is_extended_yield_point());
        // …plus the bytecode types of §4.2 (`getclassvariable` has none).
        for k in [
            InsnKind::GetLocal,
            InsnKind::GetIvar,
            InsnKind::Send,
            InsnKind::OptPlus,
            InsnKind::OptMinus,
            InsnKind::OptMult,
            InsnKind::OptAref,
        ] {
            assert!(k.is_extended_yield_point(), "{k:?}");
            assert!(!k.is_original_yield_point(), "{k:?}");
        }
        assert!(!InsnKind::Other.is_extended_yield_point());
    }

    #[test]
    fn backward_branches_classify_as_back_edges() {
        assert_eq!(Insn::Jump(-3).kind(), InsnKind::BranchBack);
        assert_eq!(Insn::BranchUnless(-10).kind(), InsnKind::BranchBack);
        assert_eq!(Insn::Jump(3).kind(), InsnKind::Other);
        assert_eq!(Insn::BranchIf(2).kind(), InsnKind::Other);
    }

    #[test]
    fn max_stack_bounds_pushes() {
        let iseq = ISeq {
            id: IseqId(0),
            name: "t".into(),
            nparams: 0,
            nlocals: 0,
            code: vec![
                Insn::PutInt(1),
                Insn::PutInt(2),
                Insn::PutInt(3),
                Insn::NewArray { n: 3 },
                Insn::Leave,
            ],
            is_block: false,
        };
        assert!(iseq.max_stack() >= 3);
    }
}
