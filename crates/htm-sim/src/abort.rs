//! Abort reasons and their transient/persistent classification.
//!
//! On zEC12 the condition code after `TBEGIN`, and on Haswell the `EAX`
//! register after `XBEGIN`, report whether an abort is worth retrying
//! (paper §2.1). The TLE runtime's retry policy (paper Fig. 1) branches on
//! exactly this classification plus the "GIL was held" special case.

/// Software abort code passed to `TABORT`/`XABORT`.
pub type ExplicitCode = u32;

/// Why a transaction aborted. Eight bytes — a thread fits a `u8`
/// ([`crate::txmem::MAX_THREADS`]), a line number a `u32` (the memory
/// refuses to be built larger) — so `Result<(), AbortReason>`, what every
/// access answers with, travels in one register like the condition code
/// it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Another thread's (possibly non-transactional) access collided with
    /// a line in this transaction's read set. `line` is the conflicting
    /// cache line (lets the analysis attribute conflicts to VM structures,
    /// as the paper does in §5.6).
    ConflictRead { with: u8, line: u32 },
    /// Another thread's access collided with a line in this transaction's
    /// write set.
    ConflictWrite { with: u8, line: u32 },
    /// Distinct read lines exceeded the read-set budget.
    ReadOverflow,
    /// Distinct written lines exceeded the write-set budget.
    WriteOverflow,
    /// Software abort (`TABORT`/`XABORT`) with a code. The TLE runtime uses
    /// [`abort_codes::GIL_LOCKED`] when it reads `GIL.acquired == true`
    /// inside a transaction.
    Explicit(ExplicitCode),
    /// The machine's learning predictor killed the transaction before it
    /// ran, based on overflow history (Intel behaviour, paper Fig. 6a).
    /// Reported like a capacity abort: retrying does not help.
    EagerPredicted,
    /// The operation attempted is not allowed in a transaction (system
    /// call, blocking I/O, GC). Always persistent.
    Restricted,
    /// Environment-induced abort the transaction did nothing to cause:
    /// timer interrupt, TLB miss handled in the kernel, or a page fault
    /// (paper §2.1, §5.6 — a large share of real zEC12/Haswell aborts).
    /// Transient: retrying the same transaction can succeed.
    Spurious { cause: SpuriousCause },
}

/// What the environment did to kill a transaction spuriously (paper §5.6
/// attributes these in its abort breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpuriousCause {
    /// OS scheduling-timer interrupt on the hardware thread.
    TimerInterrupt,
    /// TLB miss serviced by the kernel (zEC12's millicode path).
    Tlb,
    /// Page fault — the transaction cannot survive the trap.
    PageFault,
}

impl SpuriousCause {
    pub fn label(self) -> &'static str {
        match self {
            SpuriousCause::TimerInterrupt => "timer-interrupt",
            SpuriousCause::Tlb => "tlb",
            SpuriousCause::PageFault => "page-fault",
        }
    }
}

const _: () = assert!(std::mem::size_of::<AbortReason>() == 8);
const _: () = assert!(std::mem::size_of::<Result<(), AbortReason>>() <= 8);

/// Well-known `TABORT` codes used by the TLE runtime.
pub mod abort_codes {
    use super::ExplicitCode;

    /// Aborted because the GIL was observed held inside the transaction
    /// (paper Fig. 1 line 15).
    pub const GIL_LOCKED: ExplicitCode = 0xff;
}

impl AbortReason {
    /// Thread `with`'s access to `line` killing a transaction that holds
    /// the line in its write set (`written`) or only in its read set.
    #[inline]
    pub fn conflict(written: bool, with: usize, line: usize) -> AbortReason {
        debug_assert!(with <= u8::MAX as usize && line <= u32::MAX as usize);
        let (with, line) = (with as u8, line as u32);
        if written {
            AbortReason::ConflictWrite { with, line }
        } else {
            AbortReason::ConflictRead { with, line }
        }
    }

    /// Number of statistic kinds (one per variant).
    pub const NUM_KINDS: usize = 8;

    /// Canonical per-kind labels in canonical order. Statistics tables,
    /// per-site abort breakdowns and report JSON all index their arrays by
    /// [`AbortReason::kind_index`], so a new variant only needs this table
    /// and `kind_index` extended — everything downstream follows.
    pub const ALL_LABELS: [&'static str; Self::NUM_KINDS] = [
        "conflict-read",
        "conflict-write",
        "overflow-read",
        "overflow-write",
        "explicit",
        "eager-predicted",
        "restricted",
        "spurious",
    ];

    /// Index of this reason's kind in [`AbortReason::ALL_LABELS`]. The
    /// match is exhaustive on purpose: adding a variant without deciding
    /// its statistics slot must not compile.
    pub fn kind_index(self) -> usize {
        match self {
            AbortReason::ConflictRead { .. } => 0,
            AbortReason::ConflictWrite { .. } => 1,
            AbortReason::ReadOverflow => 2,
            AbortReason::WriteOverflow => 3,
            AbortReason::Explicit(_) => 4,
            AbortReason::EagerPredicted => 5,
            AbortReason::Restricted => 6,
            AbortReason::Spurious { .. } => 7,
        }
    }

    /// True when retrying the same transaction cannot succeed and the
    /// thread should fall back to the GIL immediately (paper Fig. 1 lines
    /// 28-29): capacity overflows, restricted operations and predictor
    /// kills. Conflicts and software aborts are transient.
    pub fn is_persistent(self) -> bool {
        matches!(
            self,
            AbortReason::ReadOverflow
                | AbortReason::WriteOverflow
                | AbortReason::EagerPredicted
                | AbortReason::Restricted
        )
    }

    /// True for either conflict variant.
    pub fn is_conflict(self) -> bool {
        matches!(self, AbortReason::ConflictRead { .. } | AbortReason::ConflictWrite { .. })
    }

    /// Cache line the abort itself identifies (conflicts carry the
    /// colliding line). Overflow aborts know their line only at the access
    /// site, so the trace layer supplies it out of band.
    pub fn faulting_line(self) -> Option<usize> {
        match self {
            AbortReason::ConflictRead { line, .. } | AbortReason::ConflictWrite { line, .. } => {
                Some(line as usize)
            }
            _ => None,
        }
    }

    /// Short label used in statistics tables.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::ConflictRead { .. } => "conflict-read",
            AbortReason::ConflictWrite { .. } => "conflict-write",
            AbortReason::ReadOverflow => "overflow-read",
            AbortReason::WriteOverflow => "overflow-write",
            AbortReason::Explicit(_) => "explicit",
            AbortReason::EagerPredicted => "eager-predicted",
            AbortReason::Restricted => "restricted",
            AbortReason::Spurious { .. } => "spurious",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AbortReason {
        /// True for either capacity-overflow variant (excluding predictor
        /// kills, which are reported separately in statistics).
        fn is_overflow(self) -> bool {
            matches!(self, AbortReason::ReadOverflow | AbortReason::WriteOverflow)
        }
    }

    #[test]
    fn persistence_classification_matches_paper() {
        // Overflows and restricted ops force the GIL fallback…
        assert!(AbortReason::ReadOverflow.is_persistent());
        assert!(AbortReason::WriteOverflow.is_persistent());
        assert!(AbortReason::Restricted.is_persistent());
        assert!(AbortReason::EagerPredicted.is_persistent());
        // …while conflicts, TABORTs and environment-induced aborts are
        // retried (a timer tick or TLB miss says nothing about the next
        // attempt).
        assert!(!AbortReason::ConflictRead { with: 1, line: 0 }.is_persistent());
        assert!(!AbortReason::ConflictWrite { with: 1, line: 0 }.is_persistent());
        assert!(!AbortReason::Explicit(abort_codes::GIL_LOCKED).is_persistent());
        assert!(!AbortReason::Spurious { cause: SpuriousCause::TimerInterrupt }.is_persistent());
        assert!(!AbortReason::Spurious { cause: SpuriousCause::PageFault }.is_persistent());
    }

    #[test]
    fn conflict_and_overflow_predicates() {
        assert!(AbortReason::ConflictRead { with: 0, line: 0 }.is_conflict());
        assert!(!AbortReason::ReadOverflow.is_conflict());
        assert!(AbortReason::WriteOverflow.is_overflow());
        assert!(!AbortReason::EagerPredicted.is_overflow());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = AbortReason::ALL_LABELS;
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn kind_index_agrees_with_canonical_labels() {
        let reasons = [
            AbortReason::ConflictRead { with: 0, line: 0 },
            AbortReason::ConflictWrite { with: 0, line: 0 },
            AbortReason::ReadOverflow,
            AbortReason::WriteOverflow,
            AbortReason::Explicit(1),
            AbortReason::EagerPredicted,
            AbortReason::Restricted,
            AbortReason::Spurious { cause: SpuriousCause::Tlb },
        ];
        assert_eq!(reasons.len(), AbortReason::NUM_KINDS);
        for r in reasons {
            assert_eq!(AbortReason::ALL_LABELS[r.kind_index()], r.label());
        }
    }
}
