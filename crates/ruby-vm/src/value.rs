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
//! A `Word` is a tag and one 8-byte integer, passed and returned in two
//! registers the way CRuby's `VALUE` travels in one (the layout rule is on
//! [`Word`]): a float is held as its bits, a header as `kind | marked << 8`,
//! and a String's host-side text is not in the word but behind a [`StrId`]
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

/// Simulated-memory address (word index).
pub type Addr = usize;

/// Heap-object kinds (the `T_*` flags of CRuby's `RVALUE` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
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

impl ObjKind {
    /// Every kind, in discriminant order.
    pub const ALL: [ObjKind; 15] = [
        ObjKind::Free,
        ObjKind::Float,
        ObjKind::String,
        ObjKind::Array,
        ObjKind::Hash,
        ObjKind::Object,
        ObjKind::Class,
        ObjKind::Range,
        ObjKind::Thread,
        ObjKind::Mutex,
        ObjKind::Barrier,
        ObjKind::Regexp,
        ObjKind::MatchData,
        ObjKind::Proc,
        ObjKind::Table,
    ];
}

/// Slot header word: kind + GC mark bit, packed `kind | marked << 8`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ObjHeader(u64);

impl ObjHeader {
    const MARK: u64 = 1 << 8;

    pub fn new(kind: ObjKind, marked: bool) -> ObjHeader {
        ObjHeader(kind as u64 | if marked { Self::MARK } else { 0 })
    }

    /// A header from the raw payload of its word — what a stray store
    /// leaves behind; nothing in the VM builds one this way.
    pub fn from_bits(bits: u64) -> ObjHeader {
        ObjHeader(bits)
    }

    /// `None` when the kind byte names no [`ObjKind`]: a corrupt header,
    /// which its reader turns into a fatal error.
    #[inline]
    pub fn kind(self) -> Option<ObjKind> {
        ObjKind::ALL.get((self.0 & 0xff) as usize).copied()
    }

    #[inline]
    pub fn marked(self) -> bool {
        self.0 & Self::MARK != 0
    }

    /// The same header with the mark bit set or cleared.
    #[inline]
    pub fn with_mark(self, marked: bool) -> ObjHeader {
        ObjHeader(if marked { self.0 | Self::MARK } else { self.0 & !Self::MARK })
    }
}

impl std::fmt::Debug for ObjHeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("ObjHeader");
        match self.kind() {
            Some(kind) => s.field("kind", &kind),
            None => s.field("kind", &(self.0 & 0xff)),
        };
        s.field("marked", &self.marked()).finish()
    }
}

/// Index of a string's text in the VM's [`StrTable`]: a `u32`, held in the
/// eight bytes a [`Word`] payload takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrId(u64);

/// A [`SymId`] in the eight bytes a [`Word`] payload takes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SymBits(u64);

impl SymBits {
    #[inline]
    pub fn id(self) -> SymId {
        SymId(self.0 as u32)
    }
}

impl std::fmt::Debug for SymBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.id(), f)
    }
}

/// The bits of an `f64`. Equality is bitwise — `-0.0 != 0.0`, a NaN equals
/// itself — which is what comparing memory images wants; Ruby's `==`
/// compares the numbers (`Vm::as_number`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FloatBits(u64);

impl std::fmt::Debug for FloatBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&f64::from_bits(self.0), f)
    }
}

/// Host-side text of every `Str` word (module docs: who owns an entry).
/// Ids are handed out in program order, lowest free id first after a
/// collection, so two runs of one program name their strings alike.
#[derive(Debug, Default)]
pub struct StrTable {
    entries: Vec<Option<Arc<str>>>,
    free: Vec<u32>,
}

impl StrTable {
    /// A new id for `text`; `None` when the table has handed all of them
    /// out, which `Vm::make_string` makes a fatal error (the executor's
    /// `RunError::Vm`), not a panic.
    pub fn alloc(&mut self, text: Arc<str>) -> Option<StrId> {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = Self::fresh_id(self.entries.len())?;
                self.entries.push(None);
                id
            }
        };
        self.entries[id as usize] = Some(text);
        Some(StrId(u64::from(id)))
    }

    /// The id after `in_use` others.
    fn fresh_id(in_use: usize) -> Option<u32> {
        u32::try_from(in_use).ok()
    }

    /// `None` for an id that was released: a dangling `Str` word.
    pub fn get(&self, id: StrId) -> Option<&Arc<str>> {
        self.entries.get(id.0 as usize)?.as_ref()
    }

    pub fn release(&mut self, id: StrId) {
        if self.entries[id.0 as usize].take().is_some() {
            self.free.push(id.0 as u32);
        }
    }

    /// Release every id not among `named`, which is read only until every
    /// live id has turned up in it.
    pub(crate) fn retain(&mut self, mut named: impl Iterator<Item = StrId>) {
        let mut keep = vec![false; self.entries.len()];
        let mut unseen = self.entries.iter().flatten().count();
        while unseen > 0 {
            let Some(id) = named.next() else { break };
            let id = id.0 as usize;
            unseen -= usize::from(!keep[id] && self.entries[id].is_some());
            keep[id] = true;
        }
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
        (0..self.entries.len()).filter(|&i| self.entries[i].is_some()).map(|i| StrId(i as u64))
    }
}

/// One word of simulated memory.
///
/// Layout rule: every variant that carries a payload carries exactly one
/// 8-byte *integer* scalar, so rustc lays the enum out as the pair (tag,
/// `u64`) and passes and returns it in two registers. A float payload or
/// one narrower than eight bytes — an `f64`, a bare `u32` id, a two-field
/// struct — makes it an aggregate that travels by pointer again; the
/// assertions below the type catch the size, `objdump` the rest
/// (EXPERIMENTS.md "Host cost").
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
    /// Interned symbol ([`Word::sym`], [`SymBits::id`]).
    Sym(SymBits),
    /// Reference to a heap slot (its base address).
    Obj(Addr),
    /// Raw float payload (inside a `Float` object only): [`Word::float`],
    /// [`Word::as_f64`]. `PartialEq` compares the bits.
    F64(FloatBits),
    /// String content payload (inside a `String` or `Regexp` object
    /// only): the text is `Vm::strings[id]`. The bytes additionally have a
    /// shadow buffer in simulated memory for footprint accounting (see
    /// crate docs).
    Str(StrId),
    /// Slot header.
    Hdr(ObjHeader),
}

const _: () = assert!(std::mem::size_of::<Word>() == 16);
const _: () = assert!(std::mem::size_of::<Result<Word, crate::vm::VmAbort>>() == 16);

impl Word {
    #[inline]
    pub fn sym(id: SymId) -> Word {
        Word::Sym(SymBits(u64::from(id.0)))
    }

    #[inline]
    pub fn float(f: f64) -> Word {
        Word::F64(FloatBits(f.to_bits()))
    }

    #[inline]
    pub fn hdr(kind: ObjKind, marked: bool) -> Word {
        Word::Hdr(ObjHeader::new(kind, marked))
    }

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
            Word::F64(f) => Some(f64::from_bits(f.0)),
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

/// Ruby floor division (sign of the divisor, like `Integer#/`). Wraps like
/// the VM's other integer operators: `i64::MIN / -1` is `i64::MIN`.
pub fn ruby_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a.wrapping_rem(b) != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ruby modulo (result takes the divisor's sign, like `Integer#%`).
pub fn ruby_mod(a: i64, b: i64) -> i64 {
    let m = a.wrapping_rem(b);
    if m != 0 && ((m < 0) != (b < 0)) {
        m + b
    } else {
        m
    }
}

/// Ruby `Integer#<<`: a negative count shifts right by its magnitude. A
/// count of 64 or more leaves 0; below that the result wraps like the
/// VM's other integer operators (there is no Bignum).
pub fn ruby_shl(a: i64, b: i64) -> i64 {
    if b < 0 {
        a >> b.unsigned_abs().min(63)
    } else if b < 64 {
        a << b
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// answers `None` (`Vm::make_string`'s fatal error, the executor's
    /// `RunError::Vm`).
    #[test]
    fn a_full_string_table_has_no_fresh_id() {
        assert_eq!(StrTable::fresh_id(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(StrTable::fresh_id(u32::MAX as usize + 1), None);
    }

    /// Every header the VM can build reads back as built, and flipping
    /// the mark moves nothing else.
    #[test]
    fn headers_round_trip_over_every_kind_and_mark() {
        for (i, kind) in ObjKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "`ALL` is in discriminant order");
            for marked in [false, true] {
                let h = ObjHeader::new(kind, marked);
                assert_eq!((h.kind(), h.marked()), (Some(kind), marked));
                assert_eq!(Word::hdr(kind, marked).as_header(), Some(h));
                assert_eq!(h.with_mark(!marked), ObjHeader::new(kind, !marked));
                assert_eq!(h.with_mark(marked), h);
                assert_eq!(
                    format!("{h:?}"),
                    format!("ObjHeader {{ kind: {kind:?}, marked: {marked} }}")
                );
            }
        }
    }

    proptest::proptest! {
        /// Whatever a stray store leaves in a header word, reading it is
        /// total: a kind byte past the last `ObjKind` answers `None`.
        #[test]
        fn any_header_bits_decode_without_panicking(bits in proptest::prelude::any::<u64>()) {
            let h = ObjHeader::from_bits(bits);
            assert_eq!(h.kind().map(|k| k as u64), Some(bits & 0xff).filter(|&byte| byte < 15));
            assert_eq!(h.marked(), bits & 0x100 != 0);
            let _ = format!("{h:?}");
        }

        /// Ids survive the widening to the payload's eight bytes.
        #[test]
        fn ids_round_trip(id in proptest::prelude::any::<u32>()) {
            for id in [id, 0, u32::MAX] {
                let Word::Sym(bits) = Word::sym(SymId(id)) else { panic!("not a Sym") };
                assert_eq!(bits.id(), SymId(id));
                assert_eq!(format!("{:?}", Word::sym(SymId(id))), format!("Sym(SymId({id}))"));
                let str_id = StrId(u64::from(id));
                assert_eq!(Word::Str(str_id).as_str_id(), Some(str_id));
            }
        }

        /// A float is stored as its bits: every pattern — NaNs with their
        /// payloads, both zeros — comes back exactly, and two words are
        /// equal iff the bits are.
        #[test]
        fn float_bits_round_trip(bits in proptest::prelude::any::<u64>()) {
            let specials = [f64::NAN, -f64::NAN, -0.0, 0.0, f64::INFINITY, f64::MIN_POSITIVE / 2.0];
            for bits in specials.map(f64::to_bits).into_iter().chain([bits, bits | 0x7ff8 << 48]) {
                let w = Word::float(f64::from_bits(bits));
                assert_eq!(w.as_f64().map(f64::to_bits), Some(bits));
                assert_eq!(w, Word::float(f64::from_bits(bits)));
                assert_eq!(format!("{w:?}"), format!("F64({:?})", f64::from_bits(bits)));
            }
            assert_ne!(Word::float(-0.0), Word::float(0.0), "`PartialEq` is on the bits");
            assert_eq!(Word::float(f64::NAN), Word::float(f64::NAN));
        }
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

    /// The one quotient an `i64` cannot hold wraps instead of trapping.
    #[test]
    fn division_by_minus_one_wraps_at_the_minimum() {
        assert_eq!(ruby_div(i64::MIN, -1), i64::MIN);
        assert_eq!(ruby_mod(i64::MIN, -1), 0);
        assert_eq!(ruby_div(i64::MIN, 1), i64::MIN);
        assert_eq!(ruby_mod(i64::MIN, 1), 0);
        assert_eq!(ruby_div(i64::MAX, -1), -i64::MAX);
        assert_eq!(ruby_div(i64::MIN, i64::MAX), -2);
        assert_eq!(ruby_mod(i64::MIN, i64::MAX), i64::MAX - 1);
    }

    /// A shift takes its whole count: a negative one turns the shift
    /// around, one of 64 or more shifts every bit out.
    #[test]
    fn shifts_take_the_whole_count() {
        assert_eq!(ruby_shl(1, 64), 0);
        assert_eq!(ruby_shl(1, 65), 0);
        assert_eq!(ruby_shl(1, -1), 0);
        assert_eq!(ruby_shl(1, i64::MIN), 0);
        assert_eq!(ruby_shl(-1, i64::MIN), -1);
        assert_eq!(ruby_shl(1, i64::MAX), 0);
        assert_eq!(ruby_shl(3, 2), 12);
        assert_eq!(ruby_shl(1, 63), i64::MIN, "below 64 a shift wraps");
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
        assert!(!Word::float(1.0).is_value());
        assert!(!Word::hdr(ObjKind::Free, false).is_value());
        assert!(!Word::Uninit.is_value());
    }
}
