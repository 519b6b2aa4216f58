//! Epoch-validated **line leases**: amortized access rights to one cache
//! line — the middle of the three tiers a word access can take
//! (`DESIGN.md` §13).
//!
//! While the memory is quiescent ([`crate::TxMemory::quiescent`]) the full
//! path [`crate::TxMemory::read`]/[`crate::TxMemory::write`] is only a
//! counter and the word, and no lease is worth taking (tier 0). Otherwise
//! every call pays the same fixed bookkeeping — doom check,
//! fault-injection poll, requester-wins conflict resolution, directory
//! update, footprint/budget accounting (tier 2) — even though the
//! directory already tracks ownership at cache-line granularity. A
//! [`LineLease`] is a token proving that this bookkeeping has been settled
//! for one `(thread, line, mode)` triple and cannot change until some
//! invalidating event occurs. While the token is current, words on the
//! line are accessed through a direct slice path
//! ([`crate::TxMemory::lease_read`] / [`crate::TxMemory::lease_write`])
//! that skips all of it, batching the stats deltas locally (tier 1).
//!
//! Validity is a single comparison: the token is stamped with an **epoch
//! slot** counter at grant time — the owning thread's slot for a lease
//! granted inside a transaction, a shared *plain* slot for one granted
//! outside any transaction — and the memory bumps exactly the slots whose
//! leases an event can invalidate. A transaction boundary on thread `t`
//! bumps `t`'s slot (its own leases die with its transaction) and, for
//! `begin`, the plain slot (plain leases assume no transaction is active
//! anywhere); a doom bumps the victim's slot; fault-plan installation and
//! memory growth bump every slot. Remote begins/commits do *not* touch
//! another thread's in-transaction leases: their soundness rests on the
//! per-line directory ownership the remote transaction cannot take away
//! without dooming the owner first. Checking validity costs one indexed
//! load; no per-line generation table is needed. A token is 16 bytes and
//! names the line, not a word range: the bounds of the memory are checked
//! where the word is touched, on every tier.

/// Access token for one cache line, granted by
/// [`crate::TxMemory::try_lease`] and validated against the memory's epoch
/// slots on every use ([`crate::TxMemory::lease_valid`]).
///
/// A lease is *mode-specific*: a read lease only covers reads and a write
/// lease only covers writes, because the two modes charge different
/// footprint sets on the full path and the leased path must account
/// identically. Holders keep one of each per hot line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineLease {
    /// Epoch stamp; the lease is valid while this equals the memory's
    /// current value for `slot`. 0 never matches (slots start at 1).
    pub epoch: u64,
    /// The leased cache line ([`crate::TxMemory::line_of`] of its words).
    pub line: u32,
    /// Epoch slot the stamp compares against: the owner's thread index
    /// for an in-transaction lease, the memory's plain slot otherwise.
    pub slot: u8,
    /// Thread the lease was granted to.
    pub owner: u8,
    /// Write lease (covers `lease_write`) vs read lease (`lease_read`).
    pub write: bool,
}

impl LineLease {
    /// The never-valid lease: epoch 0 predates every memory, and no memory
    /// has a line `u32::MAX`.
    pub const INVALID: LineLease =
        LineLease { epoch: 0, line: u32::MAX, slot: 0, owner: 0, write: false };

    /// True when `line` — the cache-line number of the word about to be
    /// accessed — is the leased line.
    #[inline]
    pub fn covers(&self, line: usize) -> bool {
        self.line as usize == line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lease_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<LineLease>(), 16);
    }

    #[test]
    fn invalid_lease_covers_nothing() {
        assert!(!LineLease::INVALID.covers(0));
        assert_eq!(LineLease::INVALID.epoch, 0);
    }

    #[test]
    fn covers_is_the_one_line() {
        let l = LineLease { epoch: 3, line: 2, slot: 1, owner: 1, write: false };
        assert!(!l.covers(1));
        assert!(l.covers(2));
        assert!(!l.covers(3));
        assert!(!l.covers(2 + (1 << 32)), "a line number is compared whole, not truncated");
    }
}
