//! Symbol interning.
//!
//! Symbols are interned at compile and boot time only, never while a
//! program runs; the table itself is host-side metadata, like CRuby's
//! symbol table before 2.2 made symbols GC-able.

use std::collections::HashMap;
use std::sync::Arc;

/// Interned symbol id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

/// Bidirectional symbol table, optionally a layer over a frozen one: a
/// program's over the prelude's. A layer continues its base's dense
/// numbering, so ids come out as if both were one table filled in the same
/// order.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    base: Option<Arc<SymbolTable>>,
    /// `base.len()`: the id of `names[0]`.
    first: usize,
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, SymId>,
}

impl SymbolTable {
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// An empty layer over `base`, which it shares and never writes.
    pub fn over(base: Arc<SymbolTable>) -> Self {
        SymbolTable { first: base.len(), base: Some(base), ..SymbolTable::default() }
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> SymId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let id = SymId(self.len() as u32);
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    /// Look up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<SymId> {
        self.ids.get(name).copied().or_else(|| self.base.as_ref()?.lookup(name))
    }

    /// Name of a symbol id.
    pub fn name(&self, id: SymId) -> &str {
        match (id.0 as usize).checked_sub(self.first) {
            Some(own) => &self.names[own],
            None => self.base.as_ref().expect("an id below `first` is the base's").name(id),
        }
    }

    /// Number of interned symbols, the base's included.
    pub fn len(&self) -> usize {
        self.first + self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("each");
        let b = t.intern("map");
        let a2 = t.intern("each");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "each");
        assert_eq!(t.name(b), "map");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_layer_continues_its_base_and_leaves_it_alone() {
        let mut base = SymbolTable::new();
        let each = base.intern("each");
        let base = Arc::new(base);
        let mut layer = SymbolTable::over(Arc::clone(&base));
        assert_eq!(layer.intern("each"), each, "found below, not numbered again");
        let own = layer.intern("zip");
        assert_eq!((own, layer.len(), base.len()), (SymId(1), 2, 1));
        assert_eq!((layer.name(each), layer.name(own)), ("each", "zip"));
        assert_eq!(base.lookup("zip"), None);
        // A second layer over the same base numbers from the same place.
        assert_eq!(SymbolTable::over(base).intern("map"), own);
    }

    #[test]
    fn lookup_without_interning() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("x"), None);
        let id = t.intern("x");
        assert_eq!(t.lookup("x"), Some(id));
    }
}
