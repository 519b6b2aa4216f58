//! Aggregate HTM event counters.
//!
//! The TLE runtime keeps its own per-yield-point statistics (those drive
//! the dynamic length adjustment); this struct counts raw hardware events
//! for the abort-ratio and abort-reason breakdowns of the paper's Figures 7
//! and 8 and §5.6.

use crate::abort::AbortReason;

/// Counters of simulated HTM events for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HtmStats {
    /// Word reads through [`crate::TxMemory::read`], transactional and
    /// plain alike (the denominator of the self-benchmark's words/sec).
    pub reads: u64,
    /// Word writes through [`crate::TxMemory::write`], transactional and
    /// plain alike.
    pub writes: u64,
    /// Transactions started (`TBEGIN` that returned 0).
    pub begins: u64,
    /// Transactions committed (`TEND` succeeded).
    pub commits: u64,
    /// Aborts by cause.
    pub conflicts_read: u64,
    pub conflicts_write: u64,
    pub overflow_read: u64,
    pub overflow_write: u64,
    pub explicit: u64,
    pub eager_predicted: u64,
    pub restricted: u64,
    /// Environment-induced aborts (timer interrupt, TLB, page fault)
    /// produced by the fault injector.
    pub spurious: u64,
    /// Non-transactional accesses that doomed at least one transaction
    /// (e.g. GIL-holder writes).
    pub nontx_dooms: u64,
    /// Word accesses served through a still-valid line lease (the batched
    /// direct path). Folded in at flush time, so `reads`/`writes` above
    /// remain the full per-word access counts either way.
    pub lease_hits: u64,
    /// [`crate::TxMemory::try_lease`] calls — each one follows a
    /// full-path access that a valid lease would have absorbed, whether or
    /// not the lease was granted.
    pub lease_misses: u64,
    /// Global lease-epoch bumps (tx begin/commit/abort, dooms, fault-plan
    /// installs, growth); each invalidates every outstanding lease.
    pub epoch_bumps: u64,
}

impl HtmStats {
    /// Record one abort of the given reason.
    pub fn record_abort(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::ConflictRead { .. } => self.conflicts_read += 1,
            AbortReason::ConflictWrite { .. } => self.conflicts_write += 1,
            AbortReason::ReadOverflow => self.overflow_read += 1,
            AbortReason::WriteOverflow => self.overflow_write += 1,
            AbortReason::Explicit(_) => self.explicit += 1,
            AbortReason::EagerPredicted => self.eager_predicted += 1,
            AbortReason::Restricted => self.restricted += 1,
            AbortReason::Spurious { .. } => self.spurious += 1,
        }
    }

    /// Per-kind abort counts in the canonical [`AbortReason::ALL_LABELS`]
    /// order; tables and report JSON iterate this instead of naming the
    /// fields so a new variant cannot desync them.
    pub fn abort_breakdown(&self) -> [(&'static str, u64); AbortReason::NUM_KINDS] {
        let counts = [
            self.conflicts_read,
            self.conflicts_write,
            self.overflow_read,
            self.overflow_write,
            self.explicit,
            self.eager_predicted,
            self.restricted,
            self.spurious,
        ];
        let mut out = [("", 0u64); AbortReason::NUM_KINDS];
        for (i, (&label, &count)) in AbortReason::ALL_LABELS.iter().zip(counts.iter()).enumerate() {
            out[i] = (label, count);
        }
        out
    }

    /// Total aborts of every cause.
    pub fn total_aborts(&self) -> u64 {
        self.abort_breakdown().iter().map(|&(_, c)| c).sum()
    }

    /// Abort ratio in percent: aborts / begins (the paper's Fig. 7/8
    /// metric). Zero when nothing began.
    pub fn abort_ratio_pct(&self) -> f64 {
        if self.begins == 0 {
            0.0
        } else {
            100.0 * self.total_aborts() as f64 / self.begins as f64
        }
    }

    /// Share of aborts that were read-set conflicts, in percent (paper
    /// §5.6: ">80 % for all of the Ruby NPB with 12 threads").
    pub fn read_conflict_share_pct(&self) -> f64 {
        let total = self.total_aborts();
        if total == 0 {
            0.0
        } else {
            100.0 * self.conflicts_read as f64 / total as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &HtmStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.begins += other.begins;
        self.commits += other.commits;
        self.conflicts_read += other.conflicts_read;
        self.conflicts_write += other.conflicts_write;
        self.overflow_read += other.overflow_read;
        self.overflow_write += other.overflow_write;
        self.explicit += other.explicit;
        self.eager_predicted += other.eager_predicted;
        self.restricted += other.restricted;
        self.spurious += other.spurious;
        self.nontx_dooms += other.nontx_dooms;
        self.lease_hits += other.lease_hits;
        self.lease_misses += other.lease_misses;
        self.epoch_bumps += other.epoch_bumps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HtmStats {
        /// Total word accesses (reads + writes) through the simulated memory.
        fn total_accesses(&self) -> u64 {
            self.reads + self.writes
        }
    }

    #[test]
    fn abort_ratio_math() {
        let mut s = HtmStats { begins: 200, ..HtmStats::default() };
        s.record_abort(AbortReason::ConflictRead { with: 1, line: 0 });
        s.record_abort(AbortReason::WriteOverflow);
        assert_eq!(s.total_aborts(), 2);
        assert!((s.abort_ratio_pct() - 1.0).abs() < 1e-9);
        assert!((s.read_conflict_share_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let s = HtmStats::default();
        assert_eq!(s.abort_ratio_pct(), 0.0);
        assert_eq!(s.read_conflict_share_pct(), 0.0);
    }

    #[test]
    fn breakdown_covers_every_kind_in_canonical_order() {
        let mut s = HtmStats::default();
        s.record_abort(AbortReason::Spurious { cause: crate::abort::SpuriousCause::Tlb });
        s.record_abort(AbortReason::ConflictWrite { with: 2, line: 9 });
        let bd = s.abort_breakdown();
        assert_eq!(bd.len(), AbortReason::NUM_KINDS);
        for (i, &(label, _)) in bd.iter().enumerate() {
            assert_eq!(label, AbortReason::ALL_LABELS[i]);
        }
        assert_eq!(bd.iter().find(|&&(l, _)| l == "spurious").unwrap().1, 1);
        assert_eq!(s.total_aborts(), 2);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = HtmStats { begins: 5, commits: 3, reads: 10, ..HtmStats::default() };
        a.record_abort(AbortReason::Restricted);
        let mut b = HtmStats {
            begins: 7,
            nontx_dooms: 2,
            reads: 4,
            writes: 6,
            lease_hits: 3,
            lease_misses: 5,
            epoch_bumps: 9,
            ..HtmStats::default()
        };
        b.record_abort(AbortReason::EagerPredicted);
        a.merge(&b);
        assert_eq!(a.begins, 12);
        assert_eq!(a.commits, 3);
        assert_eq!(a.total_aborts(), 2);
        assert_eq!(a.nontx_dooms, 2);
        assert_eq!(a.reads, 14);
        assert_eq!(a.writes, 6);
        assert_eq!(a.total_accesses(), 20);
        assert_eq!((a.lease_hits, a.lease_misses, a.epoch_bumps), (3, 5, 9));
    }
}
