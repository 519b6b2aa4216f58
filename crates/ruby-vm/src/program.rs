//! A compiled program: instruction sequences, symbols, literal pools and
//! the global yield-point ("pc") numbering used by the TLE runtime's
//! per-yield-point tables — and the memo that compiles each source text
//! once per process ([`Program::compiled`]).

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::bytecode::{ISeq, IseqId};
use crate::compile::{compile_source, CompileError};
use crate::decode::{DecodedInsn, NO_SYM};
use crate::symbols::{SymId, SymbolTable};

/// A literal destined for the constant-object pool (shared, frozen).
#[derive(Debug, Clone, PartialEq)]
pub enum PoolLiteral {
    Float(f64),
}

/// Everything the compiler produces; immutable at run time (CRuby iseqs
/// are shared read-only across threads too — code fetch is not modelled as
/// memory traffic): every VM booted from one text holds the same one.
#[derive(Debug, Default, Clone)]
pub struct Program {
    /// Shared by count with the program this one was compiled on top of.
    pub iseqs: Vec<Arc<ISeq>>,
    /// The compiler's names, frozen once the program is finalized.
    pub symbols: Arc<SymbolTable>,
    /// `symbols` and the names boot interns, filled by the first VM booted
    /// from the program and then shared, unchanged, by every VM of it
    /// ([`crate::vm::Vm::symbols`]).
    pub boot_symbols: OnceLock<Arc<SymbolTable>>,
    /// Shared frozen literal objects (float literals).
    pub pooled: Vec<PoolLiteral>,
    /// String literals: a new String object per `PutString`, one text.
    pub strings: Vec<Arc<str>>,
    /// Total inline-cache sites allocated by the compiler.
    pub ic_count: u32,
    /// Global pc of each iseq's first instruction (a flat table: the
    /// interpreter reads it on every call and return).
    iseq_base: Vec<u32>,
    /// Instructions whose selectors [`Program::finalize`] has resolved.
    finalized: u32,
    /// The instruction stream indexed by global pc (see [`crate::decode`]),
    /// in two runs: `shared` with every clone of the program that froze it
    /// ([`Program::share_decoded`]: the prelude's), then `decoded`,
    /// extended by [`Program::push_iseq`].
    shared: Arc<[DecodedInsn]>,
    decoded: Vec<DecodedInsn>,
}

/// Source texts the memo keeps compiled: sized by the reuse distance of
/// the committed figure rows (EXPERIMENTS.md "Host cost" has the table).
pub const MEMO_CAPACITY: usize = 16;

/// (source, its program, its top-level iseq), least recently used first.
type Compiled = (Box<str>, Arc<Program>, IseqId);

static MEMO: Mutex<Vec<Compiled>> = Mutex::new(Vec::new());

impl Program {
    /// `source` compiled on top of the prelude and finalized, with the
    /// prelude's top-level iseq and its own. A pure function of the whole
    /// text, so computed once: later calls get the same `Arc` until
    /// [`MEMO_CAPACITY`] other texts have pushed it out. An error is
    /// returned, never kept.
    pub fn compiled(source: &str) -> Result<(Arc<Program>, IseqId, IseqId), CompileError> {
        let &(ref prelude, prelude_iseq) = crate::prelude::compiled()?;
        let find = |memo: &mut Vec<Compiled>| {
            let at = memo.iter().position(|(text, ..)| **text == *source)?;
            memo[at..].rotate_left(1);
            memo.last().map(|(_, program, main)| (Arc::clone(program), prelude_iseq, *main))
        };
        // Nothing that can panic runs under the lock, the compiler least
        // of all; were it poisoned all the same, the entries are whole.
        let lock = || MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = find(&mut lock()) {
            return Ok(hit);
        }
        let symbols = Arc::new(SymbolTable::over(Arc::clone(&prelude.symbols)));
        let mut program = Program { symbols, boot_symbols: OnceLock::new(), ..prelude.clone() };
        let main = compile_source(source, &mut program)?;
        program.finalize();
        let mut memo = lock();
        // A thread that compiled the same text meanwhile got there first:
        // its entry stays the only one.
        Ok(find(&mut memo).unwrap_or_else(|| {
            if memo.len() == MEMO_CAPACITY {
                memo.remove(0);
            }
            let program = Arc::new(program);
            memo.push((source.into(), Arc::clone(&program), main));
            (program, prelude_iseq, main)
        }))
    }

    /// Resolve the fallback selector of every `opt_*` instruction emitted
    /// since the last call against the names interned by now, so an
    /// operator method defined further down the text still binds.
    pub fn finalize(&mut self) {
        let from = (self.finalized as usize) - self.shared.len();
        for d in &mut self.decoded[from..] {
            if let Some(name) = d.op.selector() {
                d.a = u64::from(self.symbols.lookup(name).map_or(NO_SYM, |id| id.0));
            }
        }
        self.finalized = self.total_insns();
        // Exactly: a memo entry lives as long as the process.
        self.decoded.shrink_to_fit();
    }

    /// Global-pc base of an iseq in the decoded stream.
    #[inline]
    pub fn base(&self, iseq: IseqId) -> u32 {
        self.iseq_base[iseq.0 as usize]
    }

    /// The whole decoded stream in global-pc order (a VM fetches from a
    /// flat copy of it: [`crate::vm::Vm::code`]).
    pub fn decoded(&self) -> impl Iterator<Item = DecodedInsn> + '_ {
        self.shared.iter().chain(&self.decoded).copied()
    }

    /// Put the stream decoded so far behind a count: a clone shares it and
    /// decodes only what is compiled on top.
    pub fn share_decoded(&mut self) {
        self.shared = self.decoded().collect();
        self.decoded = Vec::new();
    }

    /// A pre-decoded instruction by global pc (tests, differential checks).
    pub fn decoded_at(&self, gpc: usize) -> DecodedInsn {
        match gpc.checked_sub(self.shared.len()) {
            Some(own) => self.decoded[own],
            None => self.shared[gpc],
        }
    }

    /// Operand-stack bound of an iseq (frame sizing).
    #[inline]
    pub fn max_stack(&self, id: IseqId) -> usize {
        self.iseq(id).max_stack
    }

    /// Dense global id of the instruction at (`iseq`, `pc`) — the paper's
    /// per-yield-point table key.
    pub fn global_pc(&self, iseq: IseqId, pc: usize) -> u32 {
        self.base(iseq) + pc as u32
    }

    /// Total instructions across all iseqs (size of per-pc tables).
    pub fn total_insns(&self) -> u32 {
        (self.shared.len() + self.decoded.len()) as u32
    }

    /// Fetch an iseq.
    #[inline]
    pub fn iseq(&self, id: IseqId) -> &ISeq {
        &self.iseqs[id.0 as usize]
    }

    /// Register an iseq and append its code to the stream, returning its
    /// id.
    pub fn push_iseq(
        &mut self,
        name: String,
        nparams: usize,
        nlocals: usize,
        is_block: bool,
        code: &[DecodedInsn],
    ) -> IseqId {
        let max_stack = crate::decode::max_stack(code);
        self.iseqs.push(Arc::new(ISeq { name, nparams, nlocals, is_block, max_stack }));
        self.iseq_base.push(self.total_insns());
        self.decoded.extend_from_slice(code);
        IseqId(self.iseqs.len() as u32 - 1)
    }

    /// Intern a symbol.
    pub fn intern(&mut self, name: &str) -> SymId {
        Arc::make_mut(&mut self.symbols).intern(name)
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
    use crate::decode::Op;

    fn push_nils(p: &mut Program, n: usize) -> IseqId {
        p.push_iseq("t".into(), 0, 0, false, &vec![DecodedInsn::new(Op::PutNil, 0, 0, 0); n])
    }

    #[test]
    fn global_pc_numbering() {
        let mut p = Program::default();
        let a = push_nils(&mut p, 3);
        let b = push_nils(&mut p, 5);
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
