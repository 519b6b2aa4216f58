//! Extensions implementing the paper's §5.6 "further optimization
//! opportunities" and the §7 future-work discussion, so they can be
//! measured rather than speculated about:
//!
//! * **Thread-local lazy sweeping** (§5.6: "When a thread-local free list
//!   becomes empty, the lazy sweeping should be done on a thread-local
//!   basis") — the slot heap is partitioned by thread id; each thread
//!   sweeps only its partition with a private cursor, so sweep writes
//!   never collide across threads. Enabled by
//!   [`crate::VmConfig::tl_lazy_sweep`].
//!
//! * **HTM-friendly (thread-local) inline caches** (§5.6: "HTM-friendly
//!   inline caches, such as thread-local caches, are required") — each
//!   thread gets its own copy of the inline-cache area, eliminating
//!   IC-fill conflicts and IC false sharing at the cost of per-thread
//!   warm-up misses. Enabled by
//!   [`crate::VmConfig::thread_local_ics`].
//!
//! * **Reference-counting writes** (§7: "the original Python
//!   implementation (CPython) uses reference counting GC, which will
//!   cause many conflicts") — every store of an object reference also
//!   writes the referent's reference-count word (INCREF) and the
//!   overwritten referent's (DECREF), as CPython's `Py_INCREF/DECREF`
//!   would. The counts are *not* used for reclamation (the tracing GC
//!   stays authoritative); the point is the memory traffic: shared
//!   objects' count words enter every transaction's write set. Enabled by
//!   [`crate::VmConfig::refcount_writes`]; the `extensions` bench shows
//!   HTM speedups collapsing under it, supporting the paper's argument
//!   that PyPy-style tracing GC suits GIL elision better than CPython's
//!   refcounting.
//!
//! The mechanisms live here; the flags default off so the baseline
//! reproduction is untouched.

use htm_sim::AbortReason;
use machine_sim::ThreadId;

use crate::layout::ts;
use crate::value::{Addr, ObjKind, Word};
use crate::vm::{Vm, VmAbort};

/// Offset of the reference-count word inside a slot (the last payload
/// word; unused by every object kind's layout).
pub const RC_OFFSET: usize = 7;

impl Vm {
    /// Partition `[lo, hi)` of the slot index space owned by thread `t`
    /// for thread-local sweeping.
    pub fn sweep_partition(&self, t: ThreadId) -> (usize, usize) {
        // Frozen at the last mark phase — see `Vm::gc_sweep_total`.
        let total = self.gc_sweep_total;
        let n = self.config.max_threads;
        (total * t / n, total * (t + 1) / n)
    }

    /// Thread-local lazy sweep: scan up to `budget` slots of `t`'s own
    /// partition, freeing garbage onto `t`'s local list (safe: partitions
    /// are disjoint, so no other thread sweeps these slots). Returns a
    /// slot for immediate reuse if one was freed.
    pub(crate) fn tl_lazy_sweep(
        &mut self,
        t: ThreadId,
        budget: usize,
    ) -> Result<Option<Addr>, VmAbort> {
        let cursor_addr = self.layout.thread_struct(t) + ts::TL_SWEEP_CURSOR;
        let (lo, hi) = self.sweep_partition(t);
        let Word::Int(mut cursor) = self.rd(t, cursor_addr)? else {
            return Err(self.fatal("corrupt thread-local sweep cursor"));
        };
        if (cursor as usize) < lo {
            cursor = lo as i64;
        }
        let mut swept = 0usize;
        let mut found: Option<Addr> = None;
        while (cursor as usize) < hi && swept < budget {
            let slot = self.slot_addr(cursor as usize);
            let hdr = self.rd(t, slot)?;
            match hdr.as_header() {
                Some(h) if h.kind() == Some(ObjKind::Free) => {}
                Some(h) if h.marked() => {
                    self.wr(t, slot, Word::Hdr(h.with_mark(false)))?;
                }
                Some(h) => {
                    let kind = self.header_kind(h, slot)?;
                    #[cfg(debug_assertions)]
                    self.debug_assert_unreferenced(slot, kind);
                    self.free_object_buffers(t, slot, kind)?;
                    self.wr(t, slot, Word::hdr(ObjKind::Free, false))?;
                    if found.is_none() {
                        found = Some(slot);
                        self.wr(t, slot + 1, Word::Int(0))?;
                    } else {
                        // Freed slots stay with the owning thread: the
                        // whole point of the extension is that these
                        // writes touch thread-private lines only.
                        let head_addr = self.layout.thread_struct(t) + ts::TL_FREE_HEAD;
                        let old = self.rd(t, head_addr)?;
                        self.wr(t, slot + 1, old)?;
                        self.wr(t, head_addr, Word::Int(slot as i64))?;
                    }
                }
                None => {
                    self.wr(t, slot, Word::hdr(ObjKind::Free, false))?;
                    if found.is_none() {
                        found = Some(slot);
                        self.wr(t, slot + 1, Word::Int(0))?;
                    } else {
                        let head_addr = self.layout.thread_struct(t) + ts::TL_FREE_HEAD;
                        let old = self.rd(t, head_addr)?;
                        self.wr(t, slot + 1, old)?;
                        self.wr(t, head_addr, Word::Int(slot as i64))?;
                    }
                }
            }
            cursor += 1;
            swept += 1;
        }
        self.wr(t, cursor_addr, Word::Int(cursor))?;
        Ok(found)
    }

    /// Reset every thread's private sweep cursor to the start of its
    /// partition (called at the end of a mark phase).
    pub(crate) fn reset_tl_sweep_cursors(&mut self, t: ThreadId) -> Result<(), VmAbort> {
        for u in 0..self.config.max_threads {
            let (lo, _) = self.sweep_partition(u);
            let addr = self.layout.thread_struct(u) + ts::TL_SWEEP_CURSOR;
            self.wr(t, addr, Word::Int(lo as i64))?;
        }
        Ok(())
    }

    /// Debug aid: panic when a slot about to be swept is still referenced
    /// from any live thread stack or promoted environment.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_assert_unreferenced(&self, slot: Addr, kind: ObjKind) {
        for c in &self.threads {
            if c.finished {
                continue;
            }
            for a in c.stack_base..c.sp {
                if *self.mem.peek(a) == Word::Obj(slot) {
                    panic!(
                        "tl-sweep freeing live {kind:?} slot {slot}: referenced from t{} stack at {a} (fp={} sp={} pc={}:{})",
                        c.tid, c.fp, c.sp, self.program.iseq(c.iseq).name, c.pc
                    );
                }
            }
        }
        for &(region, total) in &self.promoted_envs {
            for i in 0..total {
                if *self.mem.peek(region + i) == Word::Obj(slot) {
                    panic!("tl-sweep freeing live {kind:?} slot {slot}: referenced from promoted env {region}+{i}");
                }
            }
        }
    }

    /// CPython-style reference-count maintenance for a store of `new`
    /// over `old`: INCREF the new referent, DECREF the old one. Count
    /// words live in the referents' slots, so shared objects' lines enter
    /// the writer's transaction write set — the conflict source the
    /// paper's §7 predicts for CPython.
    pub(crate) fn refcount_store(
        &mut self,
        t: ThreadId,
        old: &Word,
        new: &Word,
    ) -> Result<(), AbortReason> {
        if let Word::Obj(a) = new {
            let rc_addr = *a + RC_OFFSET;
            let rc = self.read_word::<true, _>(t, rc_addr, Word::as_int)?.unwrap_or(0);
            self.write_word::<true>(t, rc_addr, Word::Int(rc + 1))?;
        }
        if let Word::Obj(a) = old {
            let rc_addr = *a + RC_OFFSET;
            let rc = self.read_word::<true, _>(t, rc_addr, Word::as_int)?.unwrap_or(1);
            self.write_word::<true>(t, rc_addr, Word::Int(rc - 1))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmConfig;
    use machine_sim::MachineProfile;

    fn vm_with(f: impl FnOnce(&mut VmConfig)) -> Vm {
        let mut cfg = VmConfig::default();
        f(&mut cfg);
        Vm::boot("nil", cfg, &MachineProfile::generic(4)).unwrap()
    }

    #[test]
    fn sweep_partitions_are_disjoint_and_cover() {
        let vm = vm_with(|c| {
            c.tl_lazy_sweep = true;
            c.max_threads = 4;
        });
        let total = vm.total_slots();
        let mut covered = 0;
        let mut prev_hi = 0;
        for t in 0..4 {
            let (lo, hi) = vm.sweep_partition(t);
            assert_eq!(lo, prev_hi, "partitions must tile");
            assert!(hi >= lo);
            covered += hi - lo;
            prev_hi = hi;
        }
        assert_eq!(covered, total);
    }

    #[test]
    fn tl_sweep_reclaims_own_partition_garbage() {
        let mut vm = vm_with(|c| {
            c.tl_lazy_sweep = true;
            c.max_threads = 2;
        });
        // A mark phase points thread 1's cursor at its partition.
        vm.gc(1).unwrap();
        // Plant garbage inside it: a live header that nothing marked.
        let (lo, hi) = vm.sweep_partition(1);
        assert!(hi > lo + 4);
        let slot = vm.slot_addr(lo + 2);
        vm.mem.poke(slot, Word::hdr(ObjKind::Float, false));
        vm.mem.poke(slot + 1, Word::float(1.0));
        let found = vm.tl_lazy_sweep(1, hi - lo).unwrap();
        assert_eq!(found, Some(slot), "garbage in own partition reclaimed");
    }

    #[test]
    fn refcount_store_writes_count_words() {
        let mut vm = vm_with(|c| c.refcount_writes = true);
        let a = vm.make_float(0, 1.0).unwrap();
        let b = vm.make_float(0, 2.0).unwrap();
        let (sa, sb) = (a.as_obj().unwrap(), b.as_obj().unwrap());
        vm.refcount_store(0, &Word::Nil, &a).unwrap();
        assert_eq!(*vm.mem.peek(sa + RC_OFFSET), Word::Int(1));
        vm.refcount_store(0, &a, &b).unwrap();
        assert_eq!(*vm.mem.peek(sa + RC_OFFSET), Word::Int(0), "DECREF old");
        assert_eq!(*vm.mem.peek(sb + RC_OFFSET), Word::Int(1), "INCREF new");
        // Immediates are ignored.
        vm.refcount_store(0, &Word::Int(5), &Word::True).unwrap();
    }

    #[test]
    fn thread_local_ics_give_each_thread_its_own_slots() {
        let vm = vm_with(|c| {
            c.thread_local_ics = true;
            c.max_threads = 3;
        });
        let a = vm.ic_addr(0, 7);
        let b = vm.ic_addr(1, 7);
        let c_ = vm.ic_addr(2, 7);
        assert_ne!(a, b);
        assert_ne!(b, c_);
        // Same spacing within each thread's area.
        assert_eq!(vm.ic_addr(1, 8) - vm.ic_addr(1, 7), 2);
        // Without the flag all threads share the site.
        let vm2 = vm_with(|_| {});
        assert_eq!(vm2.ic_addr(0, 7), vm2.ic_addr(2, 7));
    }
}
