//! Dynamic per-yield-point transaction-length tables (paper Fig. 3).
//!
//! Transactions "start" at the yield point where the previous one ended;
//! the tables are keyed by that yield point's global pc. The length of a
//! transaction is the number of yield points it passes through plus one
//! (§4.3). The two figure-3 operations are:
//!
//! * `set_transaction_length` — consulted at every `transaction_begin`;
//!   initializes unseen sites to `INITIAL_TRANSACTION_LENGTH` and counts
//!   the site's transactions up to `PROFILING_PERIOD`;
//! * `adjust_transaction_length` — called on a transaction's *first* abort
//!   (Fig. 1 lines 17–20); when the site accumulates more than
//!   `ADJUSTMENT_THRESHOLD` aborts within a profiling window, its length
//!   is attenuated by `ATTENUATION_RATE` and the window restarts.

use htm_sim::AbortReason;

use crate::config::{LengthPolicy, TleConstants};

/// When a transaction subscribes to the GIL word (Fig. 1 line 10 reads it
/// inside the transaction, *eagerly*, right after `TBEGIN`).
///
/// Dice, Harris, Kogan & Lev ("Pitfalls of lazy subscription", arXiv
/// 1407.6968) observe that deferring the subscription to just before
/// commit removes the GIL line from the read set for the transaction's
/// whole lifetime — a real capacity and conflict win — but is **unsafe**
/// on commodity HTM: the transaction runs unsubscribed, so it can read
/// state a lock holder is mutating mid-critical-section and still commit
/// (the compiler/CPU may even hoist the late lock load to where its value
/// predates the holder). The three policies model that design space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SubscriptionPolicy {
    /// Paper Fig. 1: read the GIL word immediately after `TBEGIN`, adding
    /// it to the read set so any later acquisition dooms the transaction.
    /// The default, and the only policy the paper ships.
    #[default]
    Eager,
    /// Subscribe only at `TEND` — modeled as the hoisted-load pitfall: the
    /// checked value is the one sampled at begin (always "free", because
    /// Fig. 1 lines 6–8 spin before `TBEGIN`), so the commit-time check is
    /// vacuous and the transaction commits regardless of the lock. A
    /// transaction can therefore overlap a GIL holder's critical section
    /// and still commit — observably unsafe; the schedule explorer pins a
    /// minimized interleaving where this loses a GIL holder's update.
    Lazy,
    /// Lazy subscription with a hardware commit guard (the fix sketched in
    /// arXiv 1407.6968 §5): a lock-monitor register armed at `TBEGIN`
    /// watches the GIL word without occupying read-set capacity, and any
    /// acquisition during the transaction's window dooms it — same safety
    /// and same abort pattern as `Eager`, minus the read-set line.
    LazyGuarded,
}

impl SubscriptionPolicy {
    /// Display label used in reports and bench CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            SubscriptionPolicy::Eager => "eager",
            SubscriptionPolicy::Lazy => "lazy",
            SubscriptionPolicy::LazyGuarded => "lazy-guarded",
        }
    }
}

/// Observability profile of one yield point: transaction attempts, aborts
/// broken down by reason, and the site's current transaction length.
/// Collected alongside the Fig. 3 adjustment state and exported in
/// [`crate::report::RunReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteProfile {
    /// Global pc of the yield point.
    pub pc: u32,
    /// `TBEGIN`s issued for transactions starting here (fresh + retries).
    pub attempts: u64,
    /// Aborts by kind, indexed by [`AbortReason::kind_index`] (canonical
    /// [`AbortReason::ALL_LABELS`] order). Sized by the enum itself, so a
    /// new variant grows the profile automatically.
    pub aborts: [u64; AbortReason::NUM_KINDS],
    /// Current transaction length at the site (the fixed constant under a
    /// fixed policy).
    pub length: u32,
}

impl SiteProfile {
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// `(label, count)` pairs for the abort breakdown, in the canonical
    /// [`AbortReason::ALL_LABELS`] order.
    pub fn abort_breakdown(&self) -> [(&'static str, u64); AbortReason::NUM_KINDS] {
        let mut out = [("", 0u64); AbortReason::NUM_KINDS];
        for (i, &label) in AbortReason::ALL_LABELS.iter().enumerate() {
            out[i] = (label, self.aborts[i]);
        }
        out
    }
}

/// Per-yield-point adjustment state (dense over global pcs).
#[derive(Debug, Clone)]
pub struct LengthTables {
    consts: TleConstants,
    policy: LengthPolicy,
    /// `transaction_length[pc]`; 0 = not yet initialized.
    length: Vec<u32>,
    /// `transaction_counter[pc]` (transactions begun in this window).
    tx_counter: Vec<u32>,
    /// `abort_counter[pc]` (first-aborts in this window).
    abort_counter: Vec<u32>,
    /// Lifetime statistics (not part of the algorithm; for reports).
    pub total_adjustments: u64,
    /// Lifetime `TBEGIN` attempts per site (observability, not Fig. 3).
    attempts: Vec<u64>,
    /// Lifetime aborts per site by reason kind (observability).
    abort_kinds: Vec<[u64; AbortReason::NUM_KINDS]>,
}

impl LengthTables {
    pub fn new(total_pcs: u32, policy: LengthPolicy, consts: TleConstants) -> Self {
        LengthTables {
            consts,
            policy,
            length: vec![0; total_pcs as usize],
            tx_counter: vec![0; total_pcs as usize],
            abort_counter: vec![0; total_pcs as usize],
            total_adjustments: 0,
            attempts: vec![0; total_pcs as usize],
            abort_kinds: vec![[0; AbortReason::NUM_KINDS]; total_pcs as usize],
        }
    }

    /// Count one `TBEGIN` for a transaction starting at `pc` (fresh or
    /// retried — both issue a hardware begin).
    pub fn record_attempt(&mut self, pc: u32) {
        self.attempts[pc as usize] += 1;
    }

    /// Count one abort of a transaction that started at `pc`.
    pub fn record_abort(&mut self, pc: u32, reason: AbortReason) {
        self.abort_kinds[pc as usize][reason.kind_index()] += 1;
    }

    /// Profiles of every site that attempted at least one transaction,
    /// in pc order.
    pub fn profiles(&self) -> Vec<SiteProfile> {
        self.attempts
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a > 0)
            .map(|(pc, &attempts)| SiteProfile {
                pc: pc as u32,
                attempts,
                aborts: self.abort_kinds[pc],
                length: match self.policy {
                    LengthPolicy::Fixed(n) => n.max(1),
                    LengthPolicy::Dynamic => self.length[pc],
                },
            })
            .collect()
    }

    /// Paper Fig. 3, `set_transaction_length`: the yield-point budget the
    /// transaction starting at `pc` gets (assigned to the thread's
    /// `yield_point_counter`).
    pub fn set_transaction_length(&mut self, pc: u32) -> u32 {
        match self.policy {
            LengthPolicy::Fixed(n) => n.max(1),
            LengthPolicy::Dynamic => {
                let i = pc as usize;
                if self.length[i] == 0 {
                    self.length[i] = self.consts.initial_transaction_length;
                }
                if self.tx_counter[i] < self.consts.profiling_period {
                    self.tx_counter[i] += 1;
                }
                self.length[i]
            }
        }
    }

    /// Paper Fig. 3, `adjust_transaction_length`: called on the first
    /// abort of a transaction that started at `pc`.
    pub fn adjust_transaction_length(&mut self, pc: u32) {
        if self.policy != LengthPolicy::Dynamic {
            return;
        }
        let i = pc as usize;
        // Freeze once the profiling window completed without a shrink:
        // §4.3's "to avoid the overhead of monitoring the abort ratio
        // after the program reaches a steady state". (Fig. 3's literal
        // `<=` guard combined with the capped counter would keep the
        // window open forever and slowly decay every site to length 1;
        // the text's steady-state freeze is clearly the intent.)
        if self.length[i] <= 1 || self.tx_counter[i] >= self.consts.profiling_period {
            return;
        }
        let num_aborts = self.abort_counter[i];
        if num_aborts <= self.consts.adjustment_threshold {
            self.abort_counter[i] = num_aborts + 1;
        } else {
            let shortened =
                (f64::from(self.length[i]) * self.consts.attenuation_rate).floor() as u32;
            self.length[i] = shortened.max(1);
            self.tx_counter[i] = 0;
            self.abort_counter[i] = 0;
            self.total_adjustments += 1;
        }
    }

    /// Length for a *retry* of a transaction from `pc`: no window
    /// counting (Fig. 1's `goto transaction_retry` re-enters after line
    /// 5).
    pub fn peek_length(&mut self, pc: u32) -> u32 {
        match self.policy {
            LengthPolicy::Fixed(n) => n.max(1),
            LengthPolicy::Dynamic => {
                let l = self.length[pc as usize];
                if l == 0 {
                    self.consts.initial_transaction_length
                } else {
                    l
                }
            }
        }
    }

    /// Share (0–1) of active sites whose final length is exactly 1
    /// (paper §5.5: "40 % of the frequently executed yield points had the
    /// transaction length of 1" on 12-thread zEC12).
    pub fn share_of_length_one(&self) -> f64 {
        let mut active = 0usize;
        let mut ones = 0usize;
        for &l in &self.length {
            if l != 0 {
                active += 1;
                if l == 1 {
                    ones += 1;
                }
            }
        }
        if active == 0 {
            0.0
        } else {
            ones as f64 / active as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_sim::MachineProfile;

    impl SiteProfile {
        /// Count for one abort reason's kind.
        fn aborts_of(&self, reason: AbortReason) -> u64 {
            self.aborts[reason.kind_index()]
        }
    }

    impl LengthTables {
        /// Current length of a site (0 = never begun there).
        fn length_at(&self, pc: u32) -> u32 {
            self.length[pc as usize]
        }
    }

    fn consts() -> TleConstants {
        TleConstants::for_profile(&MachineProfile::zec12())
    }

    #[test]
    fn fixed_policy_is_constant() {
        let mut t = LengthTables::new(10, LengthPolicy::Fixed(16), consts());
        assert_eq!(t.set_transaction_length(3), 16);
        for _ in 0..100 {
            t.adjust_transaction_length(3);
        }
        assert_eq!(t.set_transaction_length(3), 16);
    }

    #[test]
    fn dynamic_initializes_to_255() {
        let mut t = LengthTables::new(10, LengthPolicy::Dynamic, consts());
        assert_eq!(t.set_transaction_length(7), 255);
        assert_eq!(t.length_at(7), 255);
        assert_eq!(t.length_at(6), 0, "other sites untouched");
    }

    #[test]
    fn shortening_requires_threshold_exceeded() {
        let mut t = LengthTables::new(4, LengthPolicy::Dynamic, consts());
        t.set_transaction_length(0);
        // threshold = 3 on zEC12: the first 4 calls only count (0→1→2→3,
        // then 3 > 3 is false on the 4th? — num_aborts <= threshold grows
        // the counter; the shrink happens on the call that *sees* the
        // counter above the threshold).
        for _ in 0..4 {
            t.adjust_transaction_length(0);
            assert_eq!(t.length_at(0), 255);
        }
        t.adjust_transaction_length(0);
        assert_eq!(t.length_at(0), (255.0_f64 * 0.75).floor() as u32);
    }

    #[test]
    fn geometric_shrink_reaches_one_and_stops() {
        let mut t = LengthTables::new(1, LengthPolicy::Dynamic, consts());
        t.set_transaction_length(0);
        let mut lengths = vec![t.length_at(0)];
        for _ in 0..400 {
            t.adjust_transaction_length(0);
            let l = t.length_at(0);
            if *lengths.last().unwrap() != l {
                lengths.push(l);
            }
        }
        assert_eq!(*lengths.last().unwrap(), 1, "must bottom out at 1");
        // Monotone non-increasing with ratio 0.75.
        for w in lengths.windows(2) {
            assert!(w[1] < w[0]);
            assert_eq!(w[1], ((f64::from(w[0]) * 0.75).floor() as u32).max(1));
        }
    }

    #[test]
    fn steady_state_freezes_adjustment() {
        // After PROFILING_PERIOD transactions with few aborts, the length
        // must stop changing (Fig. 3 line 14 guard).
        let mut t = LengthTables::new(1, LengthPolicy::Dynamic, consts());
        for _ in 0..=300 {
            t.set_transaction_length(0);
        }
        let before = t.length_at(0);
        for _ in 0..100 {
            t.adjust_transaction_length(0);
        }
        assert_eq!(t.length_at(0), before, "profiling period over: frozen");
    }

    #[test]
    fn window_resets_after_shrink() {
        let mut t = LengthTables::new(1, LengthPolicy::Dynamic, consts());
        t.set_transaction_length(0);
        for _ in 0..5 {
            t.adjust_transaction_length(0);
        }
        assert_eq!(t.length_at(0), 191);
        // Window reset: the next shrink again needs threshold+2 calls.
        for _ in 0..4 {
            t.adjust_transaction_length(0);
            assert_eq!(t.length_at(0), 191);
        }
        t.adjust_transaction_length(0);
        assert_eq!(t.length_at(0), 143);
        assert_eq!(t.total_adjustments, 2);
    }

    #[test]
    fn profiles_track_attempts_and_abort_kinds() {
        let mut t = LengthTables::new(8, LengthPolicy::Dynamic, consts());
        t.set_transaction_length(2);
        t.record_attempt(2);
        t.record_attempt(2);
        t.record_abort(2, AbortReason::ConflictRead { with: 1, line: 9 });
        t.record_abort(2, AbortReason::ConflictRead { with: 0, line: 3 });
        t.record_abort(2, AbortReason::WriteOverflow);
        t.record_attempt(5);
        let profiles = t.profiles();
        assert_eq!(profiles.len(), 2, "only sites with attempts appear");
        let p2 = &profiles[0];
        assert_eq!(p2.pc, 2);
        assert_eq!(p2.attempts, 2);
        assert_eq!(p2.aborts_of(AbortReason::ConflictRead { with: 0, line: 0 }), 2);
        assert_eq!(p2.aborts_of(AbortReason::WriteOverflow), 1);
        assert_eq!(p2.total_aborts(), 3);
        assert_eq!(p2.length, 255);
        let p5 = &profiles[1];
        assert_eq!((p5.pc, p5.attempts, p5.total_aborts()), (5, 1, 0));
        assert_eq!(p5.length, 0, "site 5 never ran set_transaction_length");
    }

    #[test]
    fn profile_breakdown_follows_the_canonical_reason_table() {
        let mut t = LengthTables::new(2, LengthPolicy::Dynamic, consts());
        t.record_attempt(0);
        let spurious = AbortReason::Spurious { cause: htm_sim::SpuriousCause::TimerInterrupt };
        t.record_abort(0, spurious);
        t.record_abort(0, AbortReason::Restricted);
        let p = t.profiles()[0];
        assert_eq!(p.total_aborts(), 2);
        assert_eq!(p.aborts_of(spurious), 1);
        let bd = p.abort_breakdown();
        assert_eq!(bd.len(), AbortReason::NUM_KINDS);
        for (i, &(label, _)) in bd.iter().enumerate() {
            assert_eq!(label, AbortReason::ALL_LABELS[i]);
        }
        assert_eq!(bd[spurious.kind_index()], ("spurious", 1));
    }

    #[test]
    fn profiles_report_fixed_length_under_fixed_policy() {
        let mut t = LengthTables::new(4, LengthPolicy::Fixed(16), consts());
        t.record_attempt(1);
        let p = t.profiles();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].length, 16);
    }

    #[test]
    fn share_of_length_one() {
        let mut t = LengthTables::new(4, LengthPolicy::Dynamic, consts());
        t.set_transaction_length(0);
        t.set_transaction_length(1);
        // Shrink site 0 to 1 by hammering it.
        for _ in 0..2_000 {
            t.adjust_transaction_length(0);
        }
        assert_eq!(t.length_at(0), 1);
        assert!((t.share_of_length_one() - 0.5).abs() < 1e-9);
    }
}
