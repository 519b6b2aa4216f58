//! Object layouts, constructors, class bootstrap and lookup machinery.
//!
//! Slot payloads (word offsets from the slot base; word 0 is the header):
//!
//! | kind     | 1                | 2               | 3              | 4            |
//! |----------|------------------|-----------------|----------------|--------------|
//! | Float    | `F64` payload    |                 |                |              |
//! | String   | `Str` content    | `Int` byte len  | `Int` shadow   | `Int` cap    |
//! | Array    | `Int` len        | `Int` cap       | `Int` buf      |              |
//! | Hash     | `Int` pairs      | `Int` cap pairs | `Int` buf      |              |
//! | Object   | `Obj` class      | `Int` ivar buf  | `Int` nivars   | `Int` cap    |
//! | Class    | super            | `Int` mtbl      | `Int` smtbl    | `Int` ivtbl  |
//! |          | (5: `Int` 0, once the cvar table; 6: `Sym` name)                   |
//! | Range    | lo               | hi              | `Int` excl     |              |
//! | Thread   | `Int` tid        | `Int` state     | result         |              |
//! | Mutex    | owner            |                 |                |              |
//! | Barrier  | `Int` n          | `Int` arrived   | `Int` gen      |              |
//! | Regexp   | `Str` pattern    |                 |                |              |
//! | MatchData| `Obj` groups     |                 |                |              |
//! | Proc     | `Int` iseq       | `Int` captured fp | self         | `Int` tid    |
//! | Table    | `Obj` rows array | `Int` ncols     |                |              |
//!
//! Assoc buffers (method tables, ivar-index tables) are
//! malloc regions: `[len, cap, (key, value) × cap]`. Method-table values
//! encode user iseqs as non-negative ints and builtins as `-(id + 1)`.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

use machine_sim::ThreadId;

use crate::compile::CompileError;
use crate::layout::{CONST_CAP, GVAR_CAP};
use crate::symbols::SymId;
use crate::value::{Addr, ObjHeader, ObjKind, StrId, Word};
use crate::vm::{Vm, VmAbort};

/// Method-table entry: user iseq or builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodEntry {
    Iseq(crate::bytecode::IseqId),
    Builtin(u32),
}

impl MethodEntry {
    /// A tombstone: the row of a builtin whose function was deleted
    /// (`builtins::install`). Lookup that reaches it ends there with
    /// nothing found; a `def` over it replaces it.
    pub const ABSENT: MethodEntry = MethodEntry::Builtin(u32::MAX);

    pub fn encode(self) -> i64 {
        match self {
            MethodEntry::Iseq(id) => i64::from(id.0),
            MethodEntry::Builtin(b) => -i64::from(b) - 1,
        }
    }

    pub fn decode(v: i64) -> MethodEntry {
        if v >= 0 {
            MethodEntry::Iseq(crate::bytecode::IseqId(v as u32))
        } else {
            MethodEntry::Builtin((-v - 1) as u32)
        }
    }
}

impl Vm {
    // ---- constructors ------------------------------------------------------

    /// Write a slot header. Objects are *born live* (`marked: true`): a
    /// lazy-sweep cycle may still be in progress (some cursor has not
    /// passed this slot yet), and an unmarked fresh object ahead of a
    /// cursor would be reclaimed while alive. The next sweep pass clears
    /// the mark; the one after that can collect it if it is garbage —
    /// the standard one-cycle delay of incremental sweeping.
    pub fn set_header(&mut self, t: ThreadId, slot: Addr, kind: ObjKind) -> Result<(), VmAbort> {
        self.wr(t, slot, Word::hdr(kind, true))
    }

    /// Heap-allocate a Float (CRuby 1.9 semantics: every float result is a
    /// new object — the paper's allocation-pressure source).
    pub fn make_float(&mut self, t: ThreadId, f: f64) -> Result<Word, VmAbort> {
        let slot = self.alloc_slot(t)?;
        self.set_header(t, slot, ObjKind::Float)?;
        self.wr(t, slot + 1, Word::float(f))?;
        Ok(Word::Obj(slot))
    }

    /// A string-table id for `text`; a table with none left is a fatal
    /// error.
    pub(crate) fn alloc_text(&mut self, text: Arc<str>) -> Result<StrId, VmAbort> {
        self.strings.alloc(text).ok_or_else(|| self.fatal("string table overflow"))
    }

    /// Allocate a String over `text` (new, or shared with a literal).
    /// Content lives host-side; a shadow buffer of ⌈len/8⌉ words is
    /// written so the bytes occupy simulated cache lines.
    pub fn make_string(&mut self, t: ThreadId, text: Arc<str>) -> Result<Word, VmAbort> {
        let slot = self.alloc_slot(t)?;
        let len = text.len();
        let shadow_words = len.div_ceil(8).max(1);
        let (buf, cap) = self.malloc(t, shadow_words)?;
        for i in 0..shadow_words {
            self.wr(t, buf + i, Word::Int(0))?;
        }
        self.set_header(t, slot, ObjKind::String)?;
        let id = self.alloc_text(text)?;
        self.wr(t, slot + 1, Word::Str(id))?;
        self.wr(t, slot + 2, Word::Int(len as i64))?;
        self.wr(t, slot + 3, Word::Int(buf as i64))?;
        self.wr(t, slot + 4, Word::Int(cap as i64))?;
        Ok(Word::Obj(slot))
    }

    /// Replace a String's content in place (`<<`): new table
    /// entry, new length, shadow grown if needed and rewritten.
    pub fn string_replace(&mut self, t: ThreadId, slot: Addr, s: Arc<str>) -> Result<(), VmAbort> {
        let len = s.len();
        let need = len.div_ceil(8).max(1);
        let buf = self.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
        let cap = self.rd(t, slot + 4)?.as_int().unwrap_or(0) as usize;
        let (buf, cap) = if need > cap {
            let (nb, nc) = self.malloc(t, need)?;
            if buf != 0 {
                self.mfree(t, buf, cap)?;
            }
            self.wr(t, slot + 3, Word::Int(nb as i64))?;
            self.wr(t, slot + 4, Word::Int(nc as i64))?;
            (nb, nc)
        } else {
            (buf, cap)
        };
        let _ = cap;
        for i in 0..need {
            self.wr(t, buf + i, Word::Int(0))?;
        }
        // With no transaction open no undo record exists, so the replaced
        // id is named by this word alone (`peek`: not a simulated access).
        if let (0, Word::Str(old)) = (self.mem.active_tx_count(), *self.mem.peek(slot + 1)) {
            self.strings.release(old);
        }
        let id = self.alloc_text(s)?;
        self.wr(t, slot + 1, Word::Str(id))?;
        self.wr(t, slot + 2, Word::Int(len as i64))?;
        Ok(())
    }

    /// Text of the `Str` payload word `w`. A word that is no `Str`, or
    /// names a released id, is a corrupt image: fatal, not a panic.
    pub(crate) fn str_text(&mut self, w: Word) -> Result<Arc<str>, VmAbort> {
        let text = w.as_str_id().and_then(|id| self.strings.get(id)).cloned();
        text.ok_or_else(|| self.fatal("corrupt string payload"))
    }

    /// Read a String's content (touching its shadow buffer for footprint).
    pub fn string_content(&mut self, t: ThreadId, slot: Addr) -> Result<Arc<str>, VmAbort> {
        let w = self.rd(t, slot + 1)?;
        let len = self.rd(t, slot + 2)?.as_int().unwrap_or(0) as usize;
        let buf = self.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
        if buf != 0 {
            for i in 0..len.div_ceil(8).max(1) {
                let _ = self.rd(t, buf + i)?;
            }
        }
        self.str_text(w)
    }

    /// Allocate an Array with the given elements.
    pub fn make_array(&mut self, t: ThreadId, elems: &[Word]) -> Result<Word, VmAbort> {
        // Pin the elements: they may live only in a Rust Vec (popped off
        // the operand stack) and the slot allocation below can run a GC.
        self.temp_roots.extend_from_slice(elems);
        let slot = self.alloc_slot(t)?;
        let cap = elems.len().max(4);
        let (buf, cap) = self.malloc(t, cap)?;
        for (i, w) in elems.iter().enumerate() {
            self.wr(t, buf + i, *w)?;
        }
        self.set_header(t, slot, ObjKind::Array)?;
        self.wr(t, slot + 1, Word::Int(elems.len() as i64))?;
        self.wr(t, slot + 2, Word::Int(cap as i64))?;
        self.wr(t, slot + 3, Word::Int(buf as i64))?;
        Ok(Word::Obj(slot))
    }

    pub fn array_len(&mut self, t: ThreadId, slot: Addr) -> Result<usize, VmAbort> {
        Ok(self.rd(t, slot + 1)?.as_int().unwrap_or(0) as usize)
    }

    pub fn array_get(&mut self, t: ThreadId, slot: Addr, idx: i64) -> Result<Word, VmAbort> {
        let len = self.array_len(t, slot)? as i64;
        let idx = if idx < 0 { len + idx } else { idx };
        if idx < 0 || idx >= len {
            return Ok(Word::Nil);
        }
        let buf = self.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
        self.rd(t, buf + idx as usize)
    }

    pub fn array_set(&mut self, t: ThreadId, slot: Addr, idx: i64, v: Word) -> Result<(), VmAbort> {
        let len = self.rd(t, slot + 1)?.as_int().unwrap_or(0);
        let idx = if idx < 0 { len + idx } else { idx };
        if idx < 0 {
            return Err(self.fatal("negative array index out of range"));
        }
        let idx = idx as usize;
        let cap = self.rd(t, slot + 2)?.as_int().unwrap_or(0) as usize;
        let mut buf = self.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
        if idx >= cap {
            // Grow: new buffer, copy, free old (all real memory traffic).
            let (nb, nc) = self.malloc(t, (idx + 1).max(cap * 2))?;
            for i in 0..len as usize {
                let w = self.rd(t, buf + i)?;
                self.wr(t, nb + i, w)?;
            }
            self.mfree(t, buf, cap)?;
            self.wr(t, slot + 2, Word::Int(nc as i64))?;
            self.wr(t, slot + 3, Word::Int(nb as i64))?;
            buf = nb;
        }
        if idx as i64 >= len {
            for i in len as usize..idx {
                self.wr(t, buf + i, Word::Nil)?;
            }
            self.wr(t, slot + 1, Word::Int(idx as i64 + 1))?;
        }
        self.wr(t, buf + idx, v)
    }

    pub fn array_push(&mut self, t: ThreadId, slot: Addr, v: Word) -> Result<(), VmAbort> {
        let len = self.array_len(t, slot)? as i64;
        self.array_set(t, slot, len, v)
    }

    /// Allocate an empty Hash with room for four pairs.
    pub fn make_hash(&mut self, t: ThreadId) -> Result<Word, VmAbort> {
        let slot = self.alloc_slot(t)?;
        let (buf, capw) = self.malloc(t, 2 * 4)?;
        let cap = capw / 2;
        self.set_header(t, slot, ObjKind::Hash)?;
        self.wr(t, slot + 1, Word::Int(0))?;
        self.wr(t, slot + 2, Word::Int(cap as i64))?;
        self.wr(t, slot + 3, Word::Int(buf as i64))?;
        Ok(Word::Obj(slot))
    }

    /// Linear-scan hash lookup (CRuby's st_table is a hash; linear scan
    /// over a handful of entries reads a comparable number of lines for
    /// the small hashes the workloads build).
    pub fn hash_get(&mut self, t: ThreadId, slot: Addr, key: &Word) -> Result<Word, VmAbort> {
        let n = self.rd(t, slot + 1)?.as_int().unwrap_or(0) as usize;
        let buf = self.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
        for i in 0..n {
            let k = self.rd(t, buf + 2 * i)?;
            if self.words_eq(t, &k, key)? {
                return self.rd(t, buf + 2 * i + 1);
            }
        }
        Ok(Word::Nil)
    }

    pub fn hash_set(&mut self, t: ThreadId, slot: Addr, key: Word, v: Word) -> Result<(), VmAbort> {
        let n = self.rd(t, slot + 1)?.as_int().unwrap_or(0) as usize;
        let cap = self.rd(t, slot + 2)?.as_int().unwrap_or(0) as usize;
        let mut buf = self.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
        for i in 0..n {
            let k = self.rd(t, buf + 2 * i)?;
            if self.words_eq(t, &k, &key)? {
                return self.wr(t, buf + 2 * i + 1, v);
            }
        }
        if n == cap {
            let (nb, ncw) = self.malloc(t, 4 * cap.max(2))?;
            for i in 0..2 * n {
                let w = self.rd(t, buf + i)?;
                self.wr(t, nb + i, w)?;
            }
            self.mfree(t, buf, 2 * cap)?;
            self.wr(t, slot + 2, Word::Int((ncw / 2) as i64))?;
            self.wr(t, slot + 3, Word::Int(nb as i64))?;
            buf = nb;
        }
        self.wr(t, buf + 2 * n, key)?;
        self.wr(t, buf + 2 * n + 1, v)?;
        self.wr(t, slot + 1, Word::Int(n as i64 + 1))
    }

    pub fn make_range(
        &mut self,
        t: ThreadId,
        lo: Word,
        hi: Word,
        excl: bool,
    ) -> Result<Word, VmAbort> {
        let slot = self.alloc_slot(t)?;
        self.set_header(t, slot, ObjKind::Range)?;
        self.wr(t, slot + 1, lo)?;
        self.wr(t, slot + 2, hi)?;
        self.wr(t, slot + 3, Word::Int(i64::from(excl)))?;
        Ok(Word::Obj(slot))
    }

    /// Allocate a plain instance of `cls`.
    pub fn make_object(&mut self, t: ThreadId, cls: Addr) -> Result<Word, VmAbort> {
        let slot = self.alloc_slot(t)?;
        self.set_header(t, slot, ObjKind::Object)?;
        self.wr(t, slot + 1, Word::Obj(cls))?;
        self.wr(t, slot + 2, Word::Int(0))?;
        self.wr(t, slot + 3, Word::Int(0))?;
        self.wr(t, slot + 4, Word::Int(0))?;
        Ok(Word::Obj(slot))
    }

    /// Allocate a Proc capturing (`iseq`, defining frame, self, thread).
    pub fn make_proc(
        &mut self,
        t: ThreadId,
        iseq: crate::bytecode::IseqId,
        captured_fp: Addr,
        self_w: Word,
    ) -> Result<Word, VmAbort> {
        let slot = self.alloc_slot(t)?;
        self.set_header(t, slot, ObjKind::Proc)?;
        self.wr(t, slot + 1, Word::Int(i64::from(iseq.0)))?;
        self.wr(t, slot + 2, Word::Int(captured_fp as i64))?;
        self.wr(t, slot + 3, self_w)?;
        self.wr(t, slot + 4, Word::Int(t as i64))?;
        Ok(Word::Obj(slot))
    }

    // ---- assoc buffers -----------------------------------------------------

    /// Create an assoc buffer with capacity `cap` pairs; returns its
    /// address.
    pub fn assoc_new(&mut self, t: ThreadId, cap: usize) -> Result<Addr, VmAbort> {
        let (buf, _w) = self.malloc(t, 2 + 2 * cap)?;
        self.wr(t, buf, Word::Int(0))?;
        self.wr(t, buf + 1, Word::Int(cap as i64))?;
        Ok(buf)
    }

    /// Look up `key`, returning (pair index, value).
    pub fn assoc_get(
        &mut self,
        t: ThreadId,
        buf: Addr,
        key: SymId,
    ) -> Result<Option<(usize, Word)>, VmAbort> {
        if buf == 0 {
            return Ok(None);
        }
        let n = self.rd(t, buf)?.as_int().unwrap_or(0) as usize;
        for i in 0..n {
            let k = self.rd(t, buf + 2 + 2 * i)?;
            if k == Word::sym(key) {
                let v = self.rd(t, buf + 2 + 2 * i + 1)?;
                return Ok(Some((i, v)));
            }
        }
        Ok(None)
    }

    /// Insert or update `key` in the assoc buffer held by the word at
    /// `holder` (the holder is rewritten when the buffer grows). Creates
    /// the buffer on first use.
    pub fn assoc_set(
        &mut self,
        t: ThreadId,
        holder: Addr,
        key: SymId,
        value: Word,
    ) -> Result<(), VmAbort> {
        let mut buf = self.rd(t, holder)?.as_int().unwrap_or(0) as Addr;
        if buf == 0 {
            buf = self.assoc_new(t, 4)?;
            self.wr(t, holder, Word::Int(buf as i64))?;
        }
        if let Some((i, _)) = self.assoc_get(t, buf, key)? {
            return self.wr(t, buf + 2 + 2 * i + 1, value);
        }
        let n = self.rd(t, buf)?.as_int().unwrap_or(0) as usize;
        let cap = self.rd(t, buf + 1)?.as_int().unwrap_or(0) as usize;
        if n == cap {
            let nbuf = self.assoc_new(t, cap * 2)?;
            for i in 0..2 * n {
                let w = self.rd(t, buf + 2 + i)?;
                self.wr(t, nbuf + 2 + i, w)?;
            }
            self.wr(t, nbuf, Word::Int(n as i64))?;
            self.mfree(t, buf, 2 + 2 * cap)?;
            self.wr(t, holder, Word::Int(nbuf as i64))?;
            buf = nbuf;
        }
        self.wr(t, buf + 2 + 2 * n, Word::sym(key))?;
        self.wr(t, buf + 2 + 2 * n + 1, value)?;
        self.wr(t, buf, Word::Int(n as i64 + 1))
    }

    // ---- classes -----------------------------------------------------------

    /// Object kind of a heap reference (reads the header: one memory ref,
    /// like reading `RBASIC(obj)->flags`).
    pub fn kind_of(&mut self, t: ThreadId, slot: Addr) -> Result<ObjKind, VmAbort> {
        match self.rd(t, slot)?.as_header() {
            Some(h) => self.header_kind(h, slot),
            None => Err(self.fatal(format!("not an object at {slot}"))),
        }
    }

    /// The kind the header of `slot` names; a byte that names none is a
    /// fatal error, not an index out of range.
    pub(crate) fn header_kind(&mut self, h: ObjHeader, slot: Addr) -> Result<ObjKind, VmAbort> {
        h.kind().ok_or_else(|| self.fatal(format!("corrupt object header at {slot}: {h:?}")))
    }

    /// Class (heap address) of any value.
    pub fn class_of(&mut self, t: ThreadId, w: &Word) -> Result<Addr, VmAbort> {
        Ok(match w {
            Word::Nil => self.classes.nil_cls,
            Word::True => self.classes.true_cls,
            Word::False => self.classes.false_cls,
            Word::Int(_) => self.classes.integer,
            Word::Sym(_) => self.classes.symbol,
            Word::Obj(slot) => match self.kind_of(t, *slot)? {
                ObjKind::Float => self.classes.float_cls,
                ObjKind::String => self.classes.string,
                ObjKind::Array => self.classes.array,
                ObjKind::Hash => self.classes.hash,
                ObjKind::Range => self.classes.range,
                ObjKind::Thread => self.classes.thread_cls,
                ObjKind::Mutex => self.classes.mutex_cls,
                ObjKind::Barrier => self.classes.barrier_cls,
                ObjKind::Regexp => self.classes.regexp,
                ObjKind::MatchData => self.classes.matchdata,
                ObjKind::Proc => self.classes.proc_cls,
                ObjKind::Table => self.classes.store,
                ObjKind::Class => self.classes.class_cls,
                ObjKind::Object => {
                    let c = self.rd(t, *slot + 1)?;
                    c.as_obj().ok_or_else(|| self.fatal("object without class"))?
                }
                ObjKind::Free => return Err(self.fatal("use of freed object")),
            },
            _ => return Err(self.fatal(format!("not a value: {w:?}"))),
        })
    }

    /// Instance-method lookup along the superclass chain. Reads method
    /// tables from simulated memory (the footprint CRuby's `st_lookup`
    /// would generate).
    pub fn lookup_method(
        &mut self,
        t: ThreadId,
        cls: Addr,
        name: SymId,
    ) -> Result<Option<MethodEntry>, VmAbort> {
        self.lookup_along(t, cls, name, 2)
    }

    /// Static (class-level) method lookup along the superclass chain.
    pub fn lookup_static(
        &mut self,
        t: ThreadId,
        cls: Addr,
        name: SymId,
    ) -> Result<Option<MethodEntry>, VmAbort> {
        self.lookup_along(t, cls, name, 3)
    }

    /// The first entry for `name` in the table at `holder_off` (instance
    /// = 2, static = 3) of `cls` or a superclass. A tombstone
    /// ([`MethodEntry::ABSENT`]) found first means the name is undefined.
    fn lookup_along(
        &mut self,
        t: ThreadId,
        cls: Addr,
        name: SymId,
        holder_off: usize,
    ) -> Result<Option<MethodEntry>, VmAbort> {
        let mut c = cls;
        loop {
            let tbl = self.rd(t, c + holder_off)?.as_int().unwrap_or(0) as Addr;
            if let Some((_, v)) = self.assoc_get(t, tbl, name)? {
                let e = v.as_int().ok_or_else(|| self.fatal("corrupt method entry"))?;
                let e = MethodEntry::decode(e);
                return Ok((e != MethodEntry::ABSENT).then_some(e));
            }
            match self.rd(t, c + 1)? {
                Word::Obj(s) => c = s,
                _ => return Ok(None),
            }
        }
    }

    /// Host-side (uncounted) probe: does `cls`'s *own* table at
    /// `holder_off` (instance = 2, static = 3) already define `name`?
    /// `define_method` uses it to decide whether a definition *replaces*
    /// an existing method — the case that must invalidate versioned
    /// inline caches. It peeks rather than reads because a real VM gets
    /// this for free from `st_insert`'s return value; modelling it as
    /// extra memory traffic would be charging for loads CRuby does not
    /// do. Deliberately not a superclass-chain walk: a *shadowing*
    /// definition (subclass overrides an inherited method after call
    /// sites cached the inherited entry) does not bump, matching the
    /// fill-once staleness the undecoded cache always had (DESIGN.md
    /// §12).
    fn method_defined_here(&self, cls: Addr, holder_off: usize, name: SymId) -> bool {
        let buf = match self.mem.peek(cls + holder_off) {
            Word::Int(b) => *b as Addr,
            _ => 0,
        };
        if buf == 0 {
            return false;
        }
        let n = match self.mem.peek(buf) {
            Word::Int(n) => *n as usize,
            _ => 0,
        };
        (0..n).any(|i| *self.mem.peek(buf + 2 + 2 * i) == Word::sym(name))
    }

    /// Define a method on `cls` (instance table, or static when
    /// `on_self`). Replacing an existing definition bumps the global
    /// method-table version — a step output
    /// ([`crate::vm::Vm::pending_method_bumps`]) the executor escrows until
    /// the enclosing transaction commits (the table words themselves roll
    /// back via the undo log, so an aborted definition leaves neither the
    /// entry nor the bump behind).
    pub fn define_method(
        &mut self,
        t: ThreadId,
        cls: Addr,
        name: SymId,
        entry: MethodEntry,
        on_self: bool,
    ) -> Result<(), VmAbort> {
        let holder_off = if on_self { 3 } else { 2 };
        if self.method_defined_here(cls, holder_off, name) {
            self.pending_method_bumps = self.pending_method_bumps.wrapping_add(1);
        }
        self.assoc_set(t, cls + holder_off, name, Word::Int(entry.encode()))
    }

    /// Resolve (creating on `create`) the ivar index of `name` for `cls`.
    pub fn ivar_index(
        &mut self,
        t: ThreadId,
        cls: Addr,
        name: SymId,
        create: bool,
    ) -> Result<Option<usize>, VmAbort> {
        let ivtbl = self.rd(t, cls + 4)?.as_int().unwrap_or(0) as Addr;
        if let Some((_, v)) = self.assoc_get(t, ivtbl, name)? {
            return Ok(v.as_int().map(|i| i as usize));
        }
        if !create {
            return Ok(None);
        }
        let n = if ivtbl == 0 { 0 } else { self.rd(t, ivtbl)?.as_int().unwrap_or(0) as usize };
        self.assoc_set(t, cls + 4, name, Word::Int(n as i64))?;
        Ok(Some(n))
    }

    /// Read ivar by index from an Object instance.
    pub fn obj_ivar_get(&mut self, t: ThreadId, obj: Addr, idx: usize) -> Result<Word, VmAbort> {
        let n = self.rd(t, obj + 3)?.as_int().unwrap_or(0) as usize;
        if idx >= n {
            return Ok(Word::Nil);
        }
        let buf = self.rd(t, obj + 2)?.as_int().unwrap_or(0) as Addr;
        self.rd(t, buf + idx)
    }

    /// Write ivar by index, growing the buffer as needed.
    pub fn obj_ivar_set(
        &mut self,
        t: ThreadId,
        obj: Addr,
        idx: usize,
        v: Word,
    ) -> Result<(), VmAbort> {
        let n = self.rd(t, obj + 3)?.as_int().unwrap_or(0) as usize;
        let cap = self.rd(t, obj + 4)?.as_int().unwrap_or(0) as usize;
        let mut buf = self.rd(t, obj + 2)?.as_int().unwrap_or(0) as Addr;
        if idx >= cap {
            let (nb, nc) = self.malloc(t, (idx + 1).max(cap * 2).max(4))?;
            for i in 0..n {
                let w = self.rd(t, buf + i)?;
                self.wr(t, nb + i, w)?;
            }
            if buf != 0 {
                self.mfree(t, buf, cap)?;
            }
            self.wr(t, obj + 2, Word::Int(nb as i64))?;
            self.wr(t, obj + 4, Word::Int(nc as i64))?;
            buf = nb;
        }
        if idx >= n {
            for i in n..idx {
                self.wr(t, buf + i, Word::Nil)?;
            }
            self.wr(t, obj + 3, Word::Int(idx as i64 + 1))?;
        }
        self.wr(t, buf + idx, v)
    }

    // ---- equality / display -------------------------------------------------

    /// Ruby `==` (value equality for strings/floats, identity otherwise).
    pub fn words_eq(&mut self, t: ThreadId, a: &Word, b: &Word) -> Result<bool, VmAbort> {
        if let Some(r) = a.immediate_eq(b) {
            return Ok(r);
        }
        match (a, b) {
            (Word::Obj(x), Word::Obj(y)) => {
                if x == y {
                    return Ok(true);
                }
                let kx = self.kind_of(t, *x)?;
                let ky = self.kind_of(t, *y)?;
                match (kx, ky) {
                    (ObjKind::Float, ObjKind::Float) => {
                        let fx = self.rd(t, *x + 1)?.as_f64().unwrap_or(f64::NAN);
                        let fy = self.rd(t, *y + 1)?.as_f64().unwrap_or(f64::NAN);
                        Ok(fx == fy)
                    }
                    (ObjKind::String, ObjKind::String) => {
                        let sx = self.string_content(t, *x)?;
                        let sy = self.string_content(t, *y)?;
                        Ok(sx == sy)
                    }
                    _ => Ok(false),
                }
            }
            (Word::Obj(x), Word::Int(i)) | (Word::Int(i), Word::Obj(x)) => {
                if self.kind_of(t, *x)? == ObjKind::Float {
                    let f = self.rd(t, *x + 1)?.as_f64().unwrap_or(f64::NAN);
                    Ok(f == *i as f64)
                } else {
                    Ok(false)
                }
            }
            _ => Ok(false),
        }
    }

    /// Numeric view of a value (Int or Float object).
    pub fn as_number(&mut self, t: ThreadId, w: &Word) -> Result<Option<f64>, VmAbort> {
        Ok(match w {
            Word::Int(i) => Some(*i as f64),
            Word::Obj(s) if self.kind_of(t, *s)? == ObjKind::Float => {
                Some(self.rd(t, *s + 1)?.as_f64().unwrap_or(f64::NAN))
            }
            _ => None,
        })
    }

    /// `to_s` used by `puts` and string concatenation.
    pub fn display(&mut self, t: ThreadId, w: &Word) -> Result<String, VmAbort> {
        let mut out = String::new();
        self.display_into(t, w, &mut out).map(|()| out)
    }

    /// [`Self::display`], appended to `out` (`write!` to a `String` cannot fail).
    pub fn display_into(&mut self, t: ThreadId, w: &Word, out: &mut String) -> Result<(), VmAbort> {
        match w {
            Word::Nil => {}
            Word::True => out.push_str("true"),
            Word::False => out.push_str("false"),
            Word::Int(i) => _ = write!(out, "{i}"),
            Word::Sym(s) => out.push_str(self.symbols.name(s.id())),
            Word::Obj(slot) => match self.kind_of(t, *slot)? {
                ObjKind::Float => {
                    let f = self.rd(t, *slot + 1)?.as_f64().unwrap_or(f64::NAN);
                    out.push_str(&format_ruby_float(f));
                }
                ObjKind::String => out.push_str(&self.string_content(t, *slot)?),
                ObjKind::Array => {
                    out.push('[');
                    for i in 0..self.array_len(t, *slot)? {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let e = self.array_get(t, *slot, i as i64)?;
                        self.inspect_into(t, &e, out)?;
                    }
                    out.push(']');
                }
                ObjKind::Range => {
                    let lo = self.rd(t, *slot + 1)?;
                    let hi = self.rd(t, *slot + 2)?;
                    let excl = self.rd(t, *slot + 3)?.as_int().unwrap_or(0) != 0;
                    self.display_into(t, &lo, out)?;
                    out.push_str(if excl { "..." } else { ".." });
                    self.display_into(t, &hi, out)?;
                }
                ObjKind::Class => match self.rd(t, *slot + 6)? {
                    Word::Sym(s) => out.push_str(self.symbols.name(s.id())),
                    _ => out.push_str("#<Class>"),
                },
                k => _ = write!(out, "#<{k:?}:{slot}>"),
            },
            other => _ = write!(out, "{other:?}"),
        }
        Ok(())
    }

    /// The error a send ends in when no method bears `name`: the receiver
    /// as `inspect` shows it, so `nil` reads "nil".
    pub(crate) fn undefined_method(&mut self, t: ThreadId, name: &str, recv: &Word) -> VmAbort {
        let mut msg = format!("undefined method `{name}' for ");
        match self.inspect_into(t, recv, &mut msg) {
            Ok(()) => self.fatal(msg),
            Err(abort) => abort,
        }
    }

    /// `inspect`, appended to `out` (strings quoted, nil printed).
    fn inspect_into(&mut self, t: ThreadId, w: &Word, out: &mut String) -> Result<(), VmAbort> {
        match w {
            Word::Nil => out.push_str("nil"),
            Word::Sym(s) => _ = write!(out, ":{}", self.symbols.name(s.id())),
            Word::Obj(slot) if self.kind_of(t, *slot)? == ObjKind::String => {
                _ = write!(out, "{:?}", self.string_content(t, *slot)?)
            }
            other => self.display_into(t, other, out)?,
        }
        Ok(())
    }

    // ---- globals / constants -------------------------------------------------

    /// The slot of global `name`, taking the table's next one at its first
    /// mention; a fatal error once all [`GVAR_CAP`] are taken.
    pub fn gvar_addr(&mut self, name: SymId) -> Result<Addr, VmAbort> {
        let idx = table_slot(&mut self.gvar_map, name, GVAR_CAP)
            .ok_or_else(|| self.fatal(format!("too many global variables (limit {GVAR_CAP})")))?;
        Ok(self.layout.gvar(idx))
    }

    pub fn const_lookup(&self, name: SymId) -> Option<Addr> {
        self.const_map.get(&name).map(|&i| self.layout.cnst(i))
    }

    /// As [`Self::gvar_addr`], for the constant table and [`CONST_CAP`].
    pub fn const_define_addr(&mut self, name: SymId) -> Result<Addr, VmAbort> {
        let idx = table_slot(&mut self.const_map, name, CONST_CAP)
            .ok_or_else(|| self.fatal(format!("too many constants (limit {CONST_CAP})")))?;
        Ok(self.layout.cnst(idx))
    }

    // ---- bootstrap -------------------------------------------------------------

    /// Create the core class hierarchy and install builtins. Boot-time
    /// only (uses `poke`, no transactions active).
    pub fn bootstrap_classes(&mut self) -> Result<(), CompileError> {
        let object = self.boot_class("Object", 0)?;
        self.classes.object = object;
        self.classes.class_cls = self.boot_class("Class", object)?;
        self.classes.integer = self.boot_class("Integer", object)?;
        self.classes.float_cls = self.boot_class("Float", object)?;
        self.classes.string = self.boot_class("String", object)?;
        self.classes.array = self.boot_class("Array", object)?;
        self.classes.hash = self.boot_class("Hash", object)?;
        self.classes.range = self.boot_class("Range", object)?;
        self.classes.symbol = self.boot_class("Symbol", object)?;
        self.classes.nil_cls = self.boot_class("NilClass", object)?;
        self.classes.true_cls = self.boot_class("TrueClass", object)?;
        self.classes.false_cls = self.boot_class("FalseClass", object)?;
        self.classes.thread_cls = self.boot_class("Thread", object)?;
        self.classes.mutex_cls = self.boot_class("Mutex", object)?;
        self.classes.barrier_cls = self.boot_class("Barrier", object)?;
        self.classes.regexp = self.boot_class("Regexp", object)?;
        self.classes.matchdata = self.boot_class("MatchData", object)?;
        self.classes.proc_cls = self.boot_class("Proc", object)?;
        self.classes.math = self.boot_class("Math", object)?;
        self.classes.store = self.boot_class("Store", object)?;
        // Numeric alias used by some sources.
        let fixnum_sym = self.boot_sym("Fixnum");
        let addr = self.const_define_addr(fixnum_sym).expect(CORE_CLASSES_FIT);
        self.mem.poke(addr, Word::Obj(self.classes.integer));
        // The top-level main object.
        let main = self.alloc_slot_boot("the main object")?;
        self.mem.poke(main, Word::hdr(ObjKind::Object, false));
        self.mem.poke(main + 1, Word::Obj(object));
        self.mem.poke(main + 2, Word::Int(0));
        self.mem.poke(main + 3, Word::Int(0));
        self.mem.poke(main + 4, Word::Int(0));
        self.classes.main_obj = main;
        crate::builtins::install(self);
        Ok(())
    }

    fn boot_class(&mut self, name: &str, superclass: Addr) -> Result<Addr, CompileError> {
        let slot = self.alloc_slot_boot("the core classes")?;
        let name_sym = self.boot_sym(name);
        self.mem.poke(slot, Word::hdr(ObjKind::Class, false));
        self.mem.poke(slot + 1, if superclass == 0 { Word::Nil } else { Word::Obj(superclass) });
        self.mem.poke(slot + 2, Word::Int(0));
        self.mem.poke(slot + 3, Word::Int(0));
        self.mem.poke(slot + 4, Word::Int(0));
        self.mem.poke(slot + 5, Word::Int(0));
        self.mem.poke(slot + 6, Word::sym(name_sym));
        self.mem.poke(slot + 7, Word::Int(0));
        let caddr = self.const_define_addr(name_sym).expect(CORE_CLASSES_FIT);
        self.mem.poke(caddr, Word::Obj(slot));
        Ok(slot)
    }

    /// Boot-time method installation (used by `builtins::install`).
    pub fn boot_define(&mut self, cls: Addr, name: &str, entry: MethodEntry, on_self: bool) {
        let sym = self.boot_sym(name);
        self.define_method(0, cls, sym, entry, on_self).expect("boot method definition failed");
    }

    /// Boot's names: found in the table every VM of the program shares, or
    /// added by the first VM booted from it, to its own copy — the table
    /// it then leaves in [`crate::Program::boot_symbols`] for the rest.
    fn boot_sym(&mut self, name: &str) -> SymId {
        match self.symbols.lookup(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.symbols).intern(name),
        }
    }
}

/// Boot defines some twenty constants, far under [`CONST_CAP`].
const CORE_CLASSES_FIT: &str = "the constant table holds the core classes";

/// The index `name` holds in `map`; a new name takes the next index while
/// fewer than `cap` are taken.
fn table_slot(map: &mut HashMap<SymId, usize>, name: SymId, cap: usize) -> Option<usize> {
    let next = map.len();
    if next < cap {
        Some(*map.entry(name).or_insert(next))
    } else {
        map.get(&name).copied()
    }
}

/// Ruby-style float formatting (always shows a decimal point).
pub fn format_ruby_float(f: f64) -> String {
    if f.is_nan() {
        return "NaN".into();
    }
    if f.is_infinite() {
        return if f > 0.0 { "Infinity".into() } else { "-Infinity".into() };
    }
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        let s = format!("{f}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Stop, VmConfig, VmError};
    use machine_sim::MachineProfile;

    fn vm() -> Vm {
        Vm::boot("nil", VmConfig::default(), &MachineProfile::generic(2)).unwrap()
    }

    #[test]
    fn float_objects_roundtrip() {
        let mut vm = vm();
        let w = vm.make_float(0, 2.5).unwrap();
        let slot = w.as_obj().unwrap();
        assert_eq!(vm.kind_of(0, slot).unwrap(), ObjKind::Float);
        assert_eq!(vm.as_number(0, &w).unwrap(), Some(2.5));
    }

    #[test]
    fn string_replace_grows_shadow() {
        let mut vm = vm();
        let w = vm.make_string(0, "ab".into()).unwrap();
        let slot = w.as_obj().unwrap();
        let long = "x".repeat(200);
        vm.string_replace(0, slot, long.as_str().into()).unwrap();
        assert_eq!(&*vm.string_content(0, slot).unwrap(), long.as_str());
        let cap = vm.mem.peek(slot + 4).as_int().unwrap() as usize;
        assert!(cap >= 25, "shadow must cover 200 bytes, got {cap} words");
    }

    /// The replaced id goes at once only when no undo record can exist;
    /// inside a transaction it stays, and the rollback finds its text.
    #[test]
    fn string_replace_releases_the_old_id_only_outside_transactions() {
        let mut vm = vm();
        let slot = vm.make_string(0, "a".into()).unwrap().as_obj().unwrap();
        let live = vm.strings.live_ids().count();
        for _ in 0..100 {
            vm.string_replace(0, slot, "b".into()).unwrap();
        }
        assert_eq!(vm.strings.live_ids().count(), live);
        let budgets = htm_sim::Budgets { read_lines: 1 << 20, write_lines: 1 << 20 };
        vm.mem.begin(0, budgets).unwrap();
        vm.string_replace(0, slot, "c".into()).unwrap();
        assert_eq!(vm.strings.live_ids().count(), live + 1);
        vm.mem.tabort(0, 1);
        assert_eq!(&*vm.string_content(0, slot).unwrap(), "b");
        // The aborted transaction's id waits for the next collection.
        vm.pooled_objs.push(Word::Obj(slot));
        vm.gc(0).unwrap();
        assert!(vm.strings.live_ids().count() <= live);
        assert_eq!(&*vm.string_content(0, slot).unwrap(), "b");
    }

    #[test]
    fn a_released_id_is_a_fatal_error() {
        let mut vm = vm();
        let slot = vm.make_string(0, "a".into()).unwrap().as_obj().unwrap();
        let id = vm.mem.peek(slot + 1).as_str_id().unwrap();
        vm.strings.release(id);
        assert_eq!(vm.string_content(0, slot), Err(VmAbort));
        let fatal = Stop::Fatal(VmError { msg: "corrupt string payload".into() });
        assert_eq!(vm.take_stop(), Some(fatal));
    }

    #[test]
    fn array_growth_preserves_elements() {
        let mut vm = vm();
        let w = vm.make_array(0, &[Word::Int(0), Word::Int(1)]).unwrap();
        let slot = w.as_obj().unwrap();
        for i in 2..50 {
            vm.array_push(0, slot, Word::Int(i)).unwrap();
        }
        assert_eq!(vm.array_len(0, slot).unwrap(), 50);
        for i in 0..50 {
            assert_eq!(vm.array_get(0, slot, i).unwrap(), Word::Int(i));
        }
        // Negative indexing.
        assert_eq!(vm.array_get(0, slot, -1).unwrap(), Word::Int(49));
        // Out of bounds reads nil.
        assert_eq!(vm.array_get(0, slot, 99).unwrap(), Word::Nil);
    }

    #[test]
    fn sparse_array_set_fills_nils() {
        let mut vm = vm();
        let w = vm.make_array(0, &[]).unwrap();
        let slot = w.as_obj().unwrap();
        vm.array_set(0, slot, 5, Word::Int(7)).unwrap();
        assert_eq!(vm.array_len(0, slot).unwrap(), 6);
        assert_eq!(vm.array_get(0, slot, 2).unwrap(), Word::Nil);
        assert_eq!(vm.array_get(0, slot, 5).unwrap(), Word::Int(7));
    }

    #[test]
    fn hash_set_get_update() {
        let mut vm = vm();
        let w = vm.make_hash(0).unwrap();
        let slot = w.as_obj().unwrap();
        vm.hash_set(0, slot, Word::Int(1), Word::Int(10)).unwrap();
        vm.hash_set(0, slot, Word::Int(2), Word::Int(20)).unwrap();
        vm.hash_set(0, slot, Word::Int(1), Word::Int(11)).unwrap();
        assert_eq!(vm.hash_get(0, slot, &Word::Int(1)).unwrap(), Word::Int(11));
        assert_eq!(vm.hash_get(0, slot, &Word::Int(2)).unwrap(), Word::Int(20));
        assert_eq!(vm.hash_get(0, slot, &Word::Int(3)).unwrap(), Word::Nil);
        // Growth past initial capacity.
        for i in 3..40 {
            vm.hash_set(0, slot, Word::Int(i), Word::Int(10 * i)).unwrap();
        }
        assert_eq!(vm.hash_get(0, slot, &Word::Int(39)).unwrap(), Word::Int(390));
    }

    #[test]
    fn string_keys_compare_by_content() {
        let mut vm = vm();
        let h = vm.make_hash(0).unwrap();
        let hs = h.as_obj().unwrap();
        let k1 = vm.make_string(0, "key".into()).unwrap();
        let k2 = vm.make_string(0, "key".into()).unwrap();
        vm.hash_set(0, hs, k1, Word::Int(5)).unwrap();
        assert_eq!(vm.hash_get(0, hs, &k2).unwrap(), Word::Int(5));
    }

    #[test]
    fn method_definition_and_lookup_chain() {
        let mut vm = vm();
        let obj_cls = vm.classes.object;
        let sub = vm.boot_class("Sub", obj_cls).unwrap();
        let sym = vm.boot_sym("zzz_test_method");
        vm.define_method(0, obj_cls, sym, MethodEntry::Builtin(1234), false).unwrap();
        // Inherited through the chain:
        let got = vm.lookup_method(0, sub, sym).unwrap();
        assert_eq!(got, Some(MethodEntry::Builtin(1234)));
        // Overriding in the subclass shadows:
        vm.define_method(0, sub, sym, MethodEntry::Builtin(7), false).unwrap();
        assert_eq!(vm.lookup_method(0, sub, sym).unwrap(), Some(MethodEntry::Builtin(7)));
        assert_eq!(vm.lookup_method(0, obj_cls, sym).unwrap(), Some(MethodEntry::Builtin(1234)));
    }

    #[test]
    fn method_entry_encoding_roundtrip() {
        for e in [
            MethodEntry::Iseq(crate::bytecode::IseqId(0)),
            MethodEntry::Iseq(crate::bytecode::IseqId(123)),
            MethodEntry::Builtin(0),
            MethodEntry::Builtin(999),
        ] {
            assert_eq!(MethodEntry::decode(e.encode()), e);
        }
    }

    #[test]
    fn ivar_index_allocation_is_per_class() {
        let mut vm = vm();
        let cls = vm.boot_class("IvarTest", vm.classes.object).unwrap();
        let a = vm.boot_sym("a");
        let b = vm.boot_sym("b");
        assert_eq!(vm.ivar_index(0, cls, a, true).unwrap(), Some(0));
        assert_eq!(vm.ivar_index(0, cls, b, true).unwrap(), Some(1));
        assert_eq!(vm.ivar_index(0, cls, a, true).unwrap(), Some(0));
        assert_eq!(vm.ivar_index(0, cls, vm.symbols.lookup("a").unwrap(), false).unwrap(), Some(0));
    }

    #[test]
    fn object_ivars_grow() {
        let mut vm = vm();
        let cls = vm.classes.object;
        let o = vm.make_object(0, cls).unwrap();
        let slot = o.as_obj().unwrap();
        for i in 0..10 {
            vm.obj_ivar_set(0, slot, i, Word::Int(i as i64)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(vm.obj_ivar_get(0, slot, i).unwrap(), Word::Int(i as i64));
        }
        assert_eq!(vm.obj_ivar_get(0, slot, 99).unwrap(), Word::Nil);
    }

    #[test]
    fn display_formats() {
        let mut vm = vm();
        assert_eq!(vm.display(0, &Word::Int(42)).unwrap(), "42");
        assert_eq!(vm.display(0, &Word::Nil).unwrap(), "");
        let f = vm.make_float(0, 3.0).unwrap();
        assert_eq!(vm.display(0, &f).unwrap(), "3.0");
        let s = vm.make_string(0, "hey".into()).unwrap();
        assert_eq!(vm.display(0, &s).unwrap(), "hey");
        // An array shows its elements inspected: strings quoted, nil spelt.
        let arr = vm.make_array(0, &[Word::Int(1), s, Word::Nil]).unwrap();
        assert_eq!(vm.display(0, &arr).unwrap(), "[1, \"hey\", nil]");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_ruby_float(3.0), "3.0");
        assert_eq!(format_ruby_float(2.5), "2.5");
        assert_eq!(format_ruby_float(-1.0), "-1.0");
    }

    #[test]
    fn words_eq_semantics() {
        let mut vm = vm();
        let f1 = vm.make_float(0, 1.5).unwrap();
        let f2 = vm.make_float(0, 1.5).unwrap();
        assert!(vm.words_eq(0, &f1, &f2).unwrap());
        let s1 = vm.make_string(0, "x".into()).unwrap();
        let s2 = vm.make_string(0, "x".into()).unwrap();
        assert!(vm.words_eq(0, &s1, &s2).unwrap());
        assert!(!vm.words_eq(0, &s1, &f1).unwrap());
        let i3 = Word::Int(3);
        let f3 = vm.make_float(0, 3.0).unwrap();
        assert!(vm.words_eq(0, &i3, &f3).unwrap(), "3 == 3.0 in Ruby");
    }
}
