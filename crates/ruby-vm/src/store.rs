//! A tiny in-VM relational store — the SQLite3 stand-in for the Rails
//! model.
//!
//! The paper's Rails application "fetch[es] a list of books from a
//! database" through SQLite3. What matters for the reproduction is not SQL
//! but the *memory behaviour* of query execution inside a request: a table
//! scan reads every row (large read sets), result materialization
//! allocates row arrays and strings, and the whole thing happens in a
//! C-extension-like builtin with no yield points — a footprint-overflow
//! source exactly like the regex engine.
//!
//! Tables are heap objects (`ObjKind::Table`) whose rows live in an
//! ordinary VM array-of-arrays, so scans generate real simulated-memory
//! traffic and the GC sees everything.

use machine_sim::ThreadId;

use crate::interp::BResult;
use crate::value::{ObjKind, Word};
use crate::vm::{Vm, VmAbort};

impl Vm {
    /// `Store.create(ncols)` — make an empty table.
    pub fn store_create(&mut self, t: ThreadId, ncols: i64) -> Result<Word, VmAbort> {
        let rows = self.make_array(t, &[])?;
        let slot = self.alloc_slot(t)?;
        self.set_header(t, slot, ObjKind::Table)?;
        self.wr(t, slot + 1, rows)?;
        self.wr(t, slot + 2, Word::Int(ncols))?;
        Ok(Word::Obj(slot))
    }

    fn table_rows(&mut self, t: ThreadId, table: Word) -> Result<usize, VmAbort> {
        let slot = table
            .as_obj()
            .filter(|&s| matches!(self.kind_of(t, s), Ok(ObjKind::Table)))
            .ok_or_else(|| self.fatal("receiver is not a Store table"))?;
        self.rd(t, slot + 1)?.as_obj().ok_or_else(|| self.fatal("corrupt table"))
    }

    /// `table.insert(row_array)` — append a row.
    pub fn store_insert(&mut self, t: ThreadId, table: Word, row: Word) -> Result<Word, VmAbort> {
        let rows = self.table_rows(t, table)?;
        if row.as_obj().is_none() {
            return Err(self.fatal("insert expects an Array row"));
        }
        self.array_push(t, rows, row)?;
        self.step_native_cost += 20;
        Ok(table)
    }

    /// `table.scan_eq(col, value)` — full scan, returns matching rows.
    /// Reads every row (the read-set pressure of a real query) and
    /// materializes a fresh result array.
    pub fn store_scan_eq(
        &mut self,
        t: ThreadId,
        table: Word,
        col: i64,
        value: Word,
    ) -> Result<Word, VmAbort> {
        let rows = self.table_rows(t, table)?;
        let n = self.array_len(t, rows)?;
        let mut hits = Vec::new();
        for i in 0..n {
            let row = self.array_get(t, rows, i as i64)?;
            if let Word::Obj(r) = row {
                let cell = self.array_get(t, r, col)?;
                if self.words_eq(t, &cell, &value)? {
                    hits.push(Word::Obj(r));
                }
            }
        }
        self.step_native_cost += 10 * n as u64 + 20;
        self.make_array(t, &hits)
    }

    /// `table.all` — every row, freshly materialized result array.
    pub fn store_all(&mut self, t: ThreadId, table: Word) -> Result<Word, VmAbort> {
        let rows = self.table_rows(t, table)?;
        let n = self.array_len(t, rows)?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.array_get(t, rows, i as i64)?);
        }
        self.step_native_cost += 5 * n as u64 + 10;
        self.make_array(t, &out)
    }
}

// Builtin wrappers (registered by `builtins::install`).

pub fn bi_store_create(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _block: usize,
) -> Result<BResult, VmAbort> {
    let ncols = args
        .first()
        .and_then(|w| w.as_int())
        .ok_or_else(|| vm.fatal("Store.create(ncols) expects an Integer"))?;
    Ok(BResult::Value(vm.store_create(t, ncols)?))
}

pub fn bi_store_insert(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _block: usize,
) -> Result<BResult, VmAbort> {
    let row = args.first().cloned().ok_or_else(|| vm.fatal("insert(row) expects a row"))?;
    Ok(BResult::Value(vm.store_insert(t, recv, row)?))
}

pub fn bi_store_scan_eq(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _block: usize,
) -> Result<BResult, VmAbort> {
    let col = args
        .first()
        .and_then(|w| w.as_int())
        .ok_or_else(|| vm.fatal("scan_eq(col, value) expects an Integer column"))?;
    let value =
        args.get(1).cloned().ok_or_else(|| vm.fatal("scan_eq(col, value) expects a value"))?;
    Ok(BResult::Value(vm.store_scan_eq(t, recv, col, value)?))
}

pub fn bi_store_all(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _args: &[Word],
    _block: usize,
) -> Result<BResult, VmAbort> {
    Ok(BResult::Value(vm.store_all(t, recv)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmConfig;
    use machine_sim::MachineProfile;

    fn vm() -> Vm {
        Vm::boot("nil", VmConfig::default(), &MachineProfile::generic(2)).unwrap()
    }

    #[test]
    fn create_insert_scan() {
        let mut vm = vm();
        let table = vm.store_create(0, 3).unwrap();
        for (id, title, year) in [(1, "Dune", 1965), (2, "Neuromancer", 1984), (3, "Dune II", 1984)]
        {
            let t_w = vm.make_string(0, title.into()).unwrap();
            let row = vm.make_array(0, &[Word::Int(id), t_w, Word::Int(year)]).unwrap();
            vm.store_insert(0, table, row).unwrap();
        }
        let hits = vm.store_scan_eq(0, table, 2, Word::Int(1984)).unwrap();
        let slot = hits.as_obj().unwrap();
        assert_eq!(vm.array_len(0, slot).unwrap(), 2);
        let all = vm.store_all(0, table).unwrap();
        assert_eq!(vm.array_len(0, all.as_obj().unwrap()).unwrap(), 3);
    }

    #[test]
    fn scan_miss_returns_empty() {
        let mut vm = vm();
        let table = vm.store_create(0, 1).unwrap();
        let hits = vm.store_scan_eq(0, table, 0, Word::Int(42)).unwrap();
        assert_eq!(vm.array_len(0, hits.as_obj().unwrap()).unwrap(), 0);
    }

    #[test]
    fn scan_cost_scales_with_rows() {
        let mut vm = vm();
        let table = vm.store_create(0, 1).unwrap();
        for i in 0..50 {
            let row = vm.make_array(0, &[Word::Int(i)]).unwrap();
            vm.store_insert(0, table, row).unwrap();
        }
        vm.step_native_cost = 0;
        vm.store_scan_eq(0, table, 0, Word::Int(7)).unwrap();
        assert!(vm.step_native_cost >= 500, "scan must charge per-row cost");
    }
}
