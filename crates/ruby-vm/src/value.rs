//! Word values stored in the simulated memory.
//!
//! A `Word` plays two roles, as in a real interpreter's address space:
//!
//! * **Ruby values** visible to programs: `Nil`, `True`, `False`,
//!   immediate `Int`s (CRuby Fixnums), `Sym`bols, and `Obj` references to
//!   heap slots. CRuby 1.9 has no immediate floats — `Float`s are heap
//!   objects, which is why numeric code allocates furiously and why the
//!   paper found most read-set conflicts at the object allocator.
//! * **Payload words** inside objects: slot headers, raw `F64` float
//!   payloads, `Str` string content, and free-list links, all of which
//!   occupy simulated cache lines like any other data.
//!
//! A `Word` is 16 bytes and `Copy`, like the machine word it stands for:
//! a String's host-side text is not in the word but behind a [`StrId`]
//! into the VM's [`StrTable`], the way CRuby's bytes sit behind a pointer.
//! `make_string`, `string_replace` and `Regexp.new` allocate an id and
//! write it to payload word 1 of their object, the only word that ever
//! holds it. The text behind an id is a shared pointer — every evaluation
//! of a literal names the compiler's one copy (`Program::strings`) — so a
//! bytecode allocates on the host only when it creates text that did not
//! exist: once, the `Arc`. An id may be released only when no word of
//! the image and no undo record can name it, so there is one reclaimer:
//! the end of
//! `Vm::gc`'s mark walks payload word 1 of every slot and frees each id
//! none of them holds — an id lives as long as the word, not as long as
//! the object is reachable. The walk uses `TxMemory::peek` — not a
//! simulated access, so the table moves no simulated cycle — and is
//! skipped while a transaction is open (lazy subscription lets one
//! outlive a GIL acquisition): a speculative `<<` leaves the replaced id
//! in an undo log only, and the rollback brings it back. Likewise
//! `string_replace` releases the id it replaces at once only while no
//! transaction is open anywhere. Ids of aborted transactions wait for the
//! next collection.

use std::sync::Arc;

use crate::symbols::SymId;
use crate::vm::VmAbort;

/// Simulated-memory address (word index).
pub type Addr = usize;

/// Heap-object kinds (the `T_*` flags of CRuby's `RVALUE` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// Slot on the free list; payload word 1 is the next-free link.
    Free,
    Float,
    String,
    Array,
    Hash,
    /// Plain object: class ref + ivar buffer.
    Object,
    Class,
    Range,
    Thread,
    Mutex,
    Barrier,
    Regexp,
    MatchData,
    /// Block turned into a first-class value (captures defining frame).
    Proc,
    /// A table of the mini relational store backing the Rails model.
    Table,
}

/// Slot header word: kind + GC mark bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjHeader {
    pub kind: ObjKind,
    pub marked: bool,
}

/// Index of a string's text in the VM's [`StrTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrId(u32);

/// Host-side text of every `Str` word (module docs: who owns an entry).
/// Ids are handed out in program order, lowest free id first after a
/// collection, so two runs of one program name their strings alike.
#[derive(Debug, Default)]
pub struct StrTable {
    entries: Vec<Option<Arc<str>>>,
    free: Vec<u32>,
}

impl StrTable {
    /// A new id for `text`. Running out of ids is a fatal error (the
    /// executor's `RunError::Vm`), not a panic.
    pub fn alloc(&mut self, text: Arc<str>) -> Result<StrId, VmAbort> {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = Self::fresh_id(self.entries.len())?;
                self.entries.push(None);
                id
            }
        };
        self.entries[id as usize] = Some(text);
        Ok(StrId(id))
    }

    /// The id after `in_use` others.
    fn fresh_id(in_use: usize) -> Result<u32, VmAbort> {
        u32::try_from(in_use).map_err(|_| VmAbort::fatal("string table overflow"))
    }

    /// `None` for an id that was released: a dangling `Str` word.
    pub fn get(&self, id: StrId) -> Option<&Arc<str>> {
        self.entries.get(id.0 as usize)?.as_ref()
    }

    pub fn release(&mut self, id: StrId) {
        if self.entries[id.0 as usize].take().is_some() {
            self.free.push(id.0);
        }
    }

    /// Release every id not among `named`.
    pub(crate) fn retain(&mut self, named: impl Iterator<Item = StrId>) {
        let mut keep = vec![false; self.entries.len()];
        named.for_each(|id| keep[id.0 as usize] = true);
        self.free.clear();
        for id in (0..self.entries.len()).rev() {
            if !keep[id] {
                self.entries[id] = None;
            }
            if self.entries[id].is_none() {
                self.free.push(id as u32);
            }
        }
    }

    /// Ids ever in use at once (live and free).
    pub fn id_count(&self) -> usize {
        self.entries.len()
    }

    pub fn live_ids(&self) -> impl Iterator<Item = StrId> + '_ {
        (0..self.entries.len()).filter(|&i| self.entries[i].is_some()).map(|i| StrId(i as u32))
    }
}

/// One word of simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Word {
    /// Untouched memory.
    #[default]
    Uninit,
    Nil,
    True,
    False,
    /// Immediate integer (Fixnum).
    Int(i64),
    /// Interned symbol.
    Sym(SymId),
    /// Reference to a heap slot (its base address).
    Obj(Addr),
    /// Raw float payload (inside a `Float` object only).
    F64(f64),
    /// String content payload (inside a `String` or `Regexp` object
    /// only): the text is `Vm::strings[id]`. The bytes additionally have a
    /// shadow buffer in simulated memory for footprint accounting (see
    /// crate docs).
    Str(StrId),
    /// Slot header.
    Hdr(ObjHeader),
}

impl Word {
    /// Ruby truthiness: everything except `nil` and `false`.
    pub fn truthy(&self) -> bool {
        !matches!(self, Word::Nil | Word::False)
    }

    /// True when the word is a program-visible Ruby value.
    pub fn is_value(&self) -> bool {
        matches!(
            self,
            Word::Nil | Word::True | Word::False | Word::Int(_) | Word::Sym(_) | Word::Obj(_)
        )
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Word::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<Addr> {
        match self {
            Word::Obj(a) => Some(*a),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Word::F64(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str_id(&self) -> Option<StrId> {
        match self {
            Word::Str(id) => Some(*id),
            _ => None,
        }
    }

    pub fn as_header(&self) -> Option<ObjHeader> {
        match self {
            Word::Hdr(h) => Some(*h),
            _ => None,
        }
    }

    /// Ruby `==` on immediates; object equality is decided by the VM.
    pub fn immediate_eq(&self, other: &Word) -> Option<bool> {
        match (self, other) {
            (Word::Nil, Word::Nil) => Some(true),
            (Word::True, Word::True) => Some(true),
            (Word::False, Word::False) => Some(true),
            (Word::Int(a), Word::Int(b)) => Some(a == b),
            (Word::Sym(a), Word::Sym(b)) => Some(a == b),
            (Word::Nil | Word::True | Word::False | Word::Int(_) | Word::Sym(_), _)
                if other.is_value() && !matches!(other, Word::Obj(_)) =>
            {
                Some(false)
            }
            _ => None,
        }
    }
}

/// Ruby floor division (sign of the divisor, like `Integer#/`).
pub fn ruby_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ruby modulo (result takes the divisor's sign, like `Integer#%`).
pub fn ruby_mod(a: i64, b: i64) -> i64 {
    let m = a % b;
    if m != 0 && ((m < 0) != (b < 0)) {
        m + b
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = assert!(std::mem::size_of::<Word>() == 16);

    #[test]
    fn string_table_reuses_released_ids_lowest_first() {
        let mut t = StrTable::default();
        let alloc = |t: &mut StrTable, s: &str| t.alloc(s.into()).unwrap();
        let ids: Vec<StrId> = ["a", "b", "c", "d"].map(|s| alloc(&mut t, s)).to_vec();
        assert_eq!(ids, [StrId(0), StrId(1), StrId(2), StrId(3)]);
        t.retain([ids[3], ids[1]].into_iter());
        assert_eq!(t.live_ids().collect::<Vec<_>>(), [ids[1], ids[3]]);
        assert_eq!(t.get(ids[0]), None, "a released id answers nothing");
        assert_eq!(&**t.get(ids[3]).unwrap(), "d");
        assert_eq!(alloc(&mut t, "e"), ids[0]);
        t.release(ids[1]);
        t.release(ids[1]); // a second release frees nothing twice
        assert_eq!(alloc(&mut t, "f"), ids[1]);
        assert_eq!(alloc(&mut t, "g"), ids[2]);
        assert_eq!(alloc(&mut t, "h"), StrId(4));
        assert_eq!(t.id_count(), 5);
    }

    /// The id space is a `u32`: the table that has handed all of it out
    /// answers with a fatal error (the executor's `RunError::Vm`).
    #[test]
    fn a_full_string_table_is_a_fatal_error_not_a_panic() {
        assert_eq!(StrTable::fresh_id(u32::MAX as usize), Ok(u32::MAX));
        let full = u32::MAX as usize + 1;
        assert_eq!(StrTable::fresh_id(full), Err(VmAbort::fatal("string table overflow")));
    }

    #[test]
    fn truthiness() {
        assert!(!Word::Nil.truthy());
        assert!(!Word::False.truthy());
        assert!(Word::True.truthy());
        assert!(Word::Int(0).truthy(), "0 is truthy in Ruby");
        assert!(Word::Obj(1).truthy());
    }

    #[test]
    fn ruby_division_matches_ruby() {
        // Samples checked against CRuby semantics.
        assert_eq!(ruby_div(7, 2), 3);
        assert_eq!(ruby_div(-7, 2), -4);
        assert_eq!(ruby_div(7, -2), -4);
        assert_eq!(ruby_div(-7, -2), 3);
        assert_eq!(ruby_mod(7, 2), 1);
        assert_eq!(ruby_mod(-7, 2), 1);
        assert_eq!(ruby_mod(7, -2), -1);
        assert_eq!(ruby_mod(-7, -2), -1);
        assert_eq!(ruby_mod(6, 3), 0);
        assert_eq!(ruby_mod(-6, 3), 0);
    }

    #[test]
    fn immediate_equality() {
        assert_eq!(Word::Int(3).immediate_eq(&Word::Int(3)), Some(true));
        assert_eq!(Word::Int(3).immediate_eq(&Word::Int(4)), Some(false));
        assert_eq!(Word::Nil.immediate_eq(&Word::Nil), Some(true));
        assert_eq!(Word::Int(3).immediate_eq(&Word::Nil), Some(false));
        // Object comparisons are not decided at the immediate level.
        assert_eq!(Word::Obj(8).immediate_eq(&Word::Obj(8)), None);
    }

    #[test]
    fn value_classification() {
        assert!(Word::Int(1).is_value());
        assert!(Word::Obj(64).is_value());
        assert!(!Word::F64(1.0).is_value());
        assert!(!Word::Hdr(ObjHeader { kind: ObjKind::Free, marked: false }).is_value());
        assert!(!Word::Uninit.is_value());
    }
}
