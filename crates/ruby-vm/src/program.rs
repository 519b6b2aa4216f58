//! A compiled program: instruction sequences, symbols, literal pools and
//! the global yield-point ("pc") numbering used by the TLE runtime's
//! per-yield-point tables.

use std::sync::Arc;

use crate::bytecode::{ISeq, Insn, IseqId};
use crate::decode::DecodedInsn;
use crate::symbols::{SymId, SymbolTable};

/// A literal destined for the constant-object pool (shared, frozen).
#[derive(Debug, Clone, PartialEq)]
pub enum PoolLiteral {
    Float(f64),
}

/// Everything the compiler produces; immutable at run time (CRuby iseqs
/// are shared read-only across threads too — code fetch is not modelled as
/// memory traffic).
#[derive(Debug, Default, Clone)]
pub struct Program {
    pub iseqs: Vec<ISeq>,
    pub symbols: SymbolTable,
    /// Shared frozen literal objects (float literals).
    pub pooled: Vec<PoolLiteral>,
    /// String literals: a new String object on every `PutString`, over
    /// this one text (`Arc`: the prelude is compiled once per process).
    pub strings: Vec<Arc<str>>,
    /// Total inline-cache sites allocated by the compiler.
    pub ic_count: u32,
    /// Prefix offsets of each iseq into the global pc numbering.
    iseq_base: Vec<u32>,
    /// Total instruction count across all iseqs.
    total_insns: u32,
    /// Per-iseq operand-stack bounds (computed by [`Program::finalize`]).
    max_stacks: Vec<usize>,
    /// Flat pre-decoded stream, indexed by global pc (see
    /// [`crate::decode`]; rebuilt by [`Program::finalize`]).
    decoded: Vec<DecodedInsn>,
}

impl Program {
    /// Recompute the global pc numbering after all iseqs are in place and
    /// lower every instruction into the flat decoded stream.
    pub fn finalize(&mut self) {
        self.iseq_base.clear();
        let mut base = 0u32;
        for iseq in &self.iseqs {
            self.iseq_base.push(base);
            base += iseq.code.len() as u32;
        }
        self.total_insns = base;
        self.max_stacks = self.iseqs.iter().map(|i| i.max_stack()).collect();
        self.decoded = crate::decode::decode(&self.iseqs, &self.symbols);
    }

    /// Global-pc base of an iseq in the decoded stream.
    #[inline]
    pub fn base(&self, iseq: IseqId) -> u32 {
        self.iseq_base[iseq.0 as usize]
    }

    /// Fetch a pre-decoded instruction by global pc.
    #[inline]
    pub fn decoded_at(&self, gpc: usize) -> DecodedInsn {
        self.decoded[gpc]
    }

    /// Flag byte of the decoded instruction at a global pc (the
    /// executor's one-load yield-point query).
    #[inline]
    pub fn decoded_flags(&self, gpc: usize) -> u8 {
        self.decoded[gpc].flags
    }

    /// The whole decoded stream (tests, differential checks).
    pub fn decoded(&self) -> &[DecodedInsn] {
        &self.decoded
    }

    /// Operand-stack bound of an iseq (frame sizing).
    #[inline]
    pub fn max_stack(&self, id: IseqId) -> usize {
        self.max_stacks
            .get(id.0 as usize)
            .copied()
            .unwrap_or_else(|| self.iseqs[id.0 as usize].max_stack())
    }

    /// Dense global id of the instruction at (`iseq`, `pc`) — the paper's
    /// per-yield-point table key.
    pub fn global_pc(&self, iseq: IseqId, pc: usize) -> u32 {
        self.iseq_base[iseq.0 as usize] + pc as u32
    }

    /// Total instructions across all iseqs (size of per-pc tables).
    pub fn total_insns(&self) -> u32 {
        self.total_insns
    }

    /// Fetch an instruction.
    #[inline]
    pub fn insn(&self, iseq: IseqId, pc: usize) -> &Insn {
        &self.iseqs[iseq.0 as usize].code[pc]
    }

    /// Fetch an iseq.
    #[inline]
    pub fn iseq(&self, id: IseqId) -> &ISeq {
        &self.iseqs[id.0 as usize]
    }

    /// Register an iseq, returning its id.
    pub fn push_iseq(&mut self, mut iseq: ISeq) -> IseqId {
        let id = IseqId(self.iseqs.len() as u32);
        iseq.id = id;
        self.iseqs.push(iseq);
        id
    }

    /// Intern a symbol.
    pub fn intern(&mut self, name: &str) -> SymId {
        self.symbols.intern(name)
    }

    /// Allocate a fresh inline-cache site.
    pub fn new_ic_site(&mut self) -> u32 {
        let s = self.ic_count;
        self.ic_count += 1;
        s
    }

    /// Add a pooled (shared) literal, deduplicating floats.
    pub fn pool_float(&mut self, f: f64) -> u32 {
        let same = |PoolLiteral::Float(g): &PoolLiteral| g.to_bits() == f.to_bits();
        if let Some(i) = self.pooled.iter().position(same) {
            return i as u32;
        }
        self.pooled.push(PoolLiteral::Float(f));
        (self.pooled.len() - 1) as u32
    }

    /// Add a string literal, one text per distinct literal.
    pub fn pool_string(&mut self, s: &str) -> u32 {
        let at = self.strings.iter().position(|existing| &**existing == s);
        at.unwrap_or_else(|| {
            self.strings.push(s.into());
            self.strings.len() - 1
        }) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_iseq(n: usize) -> ISeq {
        ISeq {
            id: IseqId(0),
            name: "t".into(),
            nparams: 0,
            nlocals: 0,
            code: vec![Insn::Nop; n],
            is_block: false,
        }
    }

    #[test]
    fn global_pc_numbering() {
        let mut p = Program::default();
        let a = p.push_iseq(mk_iseq(3));
        let b = p.push_iseq(mk_iseq(5));
        p.finalize();
        assert_eq!(p.global_pc(a, 0), 0);
        assert_eq!(p.global_pc(a, 2), 2);
        assert_eq!(p.global_pc(b, 0), 3);
        assert_eq!(p.global_pc(b, 4), 7);
        assert_eq!(p.total_insns(), 8);
    }

    #[test]
    fn float_pool_dedups() {
        let mut p = Program::default();
        let a = p.pool_float(1.5);
        let b = p.pool_float(2.5);
        let c = p.pool_float(1.5);
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(p.pooled.len(), 2);
    }

    #[test]
    fn ic_sites_are_dense() {
        let mut p = Program::default();
        assert_eq!(p.new_ic_site(), 0);
        assert_eq!(p.new_ic_site(), 1);
        assert_eq!(p.ic_count, 2);
    }
}
