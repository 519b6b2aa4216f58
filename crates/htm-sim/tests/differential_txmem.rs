//! Differential property test: the ownership-directory [`TxMemory`] must
//! be observationally identical to the retained set-based
//! [`ReferenceTxMemory`].
//!
//! Both implementations are driven with the same randomized operation
//! sequence — begins (with randomized budgets), reads, writes, commits,
//! explicit and restricted aborts, polls, and simulated-cycle advances —
//! over randomized geometries (line size, thread count). After *every*
//! operation the test requires:
//!
//! * identical `Result` values, including the exact [`AbortReason`];
//! * identical footprints, `in_tx` flags, and active-transaction counts;
//! * identical aggregate statistics ([`htm_sim::HtmStats`] is `PartialEq`);
//!
//! and at the end of the sequence:
//!
//! * identical trace-event streams (same events, same order, same victim
//!   ordering on multi-victim dooms);
//! * byte-identical final memory images.
//!
//! This is the equivalence proof the rewrite leans on: any divergence in
//! conflict attribution, victim choice, overflow ordering, statistics, or
//! rollback behaviour shows up here as a minimal counterexample.
//!
//! The last two tests, `tiers_match_the_full_path` and its script aimed at
//! the logged-words mask, hold the three access tiers (DESIGN.md §13) to
//! the same standard: a memory that picks its tier the way `Vm::rd`/`Vm::wr`
//! do against one that never leaves the full path, and both against the
//! reference.

mod refimpl;

use htm_sim::{Budgets, FaultPlan, LineLease, RingBufferSink, TraceEvent, TxMemory};
use proptest::prelude::*;
use refimpl::ReferenceTxMemory;

const MEM_WORDS: usize = 256;

/// The events a memory's trace ring retains, oldest first.
fn events(ring: Option<&RingBufferSink>) -> Vec<TraceEvent> {
    ring.expect("the test installed a trace").events().copied().collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Begin with (read_budget, write_budget); tiny budgets exercise the
    /// overflow paths, huge ones the conflict paths.
    Begin(usize, usize, usize),
    Read(usize, usize),
    Write(usize, usize, u64),
    Commit(usize),
    Tabort(usize),
    Restricted(usize),
    Poll(usize),
    Tick(u64),
    /// `arm_lock_monitor(t, addr)` — the LazyGuarded begin-time guard:
    /// read accounting without read-set growth.
    Arm(usize, usize),
    /// `doom_all_active(t, addr)` — the LazyGuarded acquisition-time
    /// guard: every other active transaction dies.
    DoomAll(usize, usize),
}

/// Operations for the lease differential test: the base interleaving plus
/// lease acquisition, accesses through a held lease (direct path on the
/// directory impl, the per-word path on the reference), and the
/// epoch-invalidating events — spurious interrupt kills and fault-plan
/// toggles — the lease protocol must survive.
#[derive(Debug, Clone)]
enum LOp {
    Begin(usize, usize, usize),
    Read(usize, usize),
    Write(usize, usize, u64),
    Commit(usize),
    Tabort(usize),
    Poll(usize),
    /// `try_lease(t, addr, write)`; the token is held in the thread's
    /// lease slot (replacing any previous one).
    Acquire(usize, usize, bool),
    /// Access through the thread's held lease: direct path while the
    /// directory lease is valid, full per-word path once it went stale.
    Access(usize, usize, u64),
    /// Timer-interrupt kill (`abort_spurious`), an epoch bump.
    Spurious(usize),
    /// Install (`true`) or remove a fault plan; leases are denied while a
    /// plan is live and every toggle bumps the epoch.
    SetPlan(bool),
}

fn lease_op_strategy(threads: usize) -> impl Strategy<Value = LOp> {
    let unbound = |b: usize| if b == 6 { 1 << 20 } else { b };
    prop_oneof![
        (0..threads, 1usize..7, 1usize..7).prop_map(move |(t, r, w)| LOp::Begin(
            t,
            unbound(r),
            unbound(w)
        )),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| LOp::Read(t, a)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, a, v)| LOp::Write(t, a, v)),
        (0..threads).prop_map(LOp::Commit),
        (0..threads).prop_map(LOp::Tabort),
        (0..threads).prop_map(LOp::Poll),
        (0..threads, 0..MEM_WORDS, any::<bool>()).prop_map(|(t, a, w)| LOp::Acquire(t, a, w)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, o, v)| LOp::Access(t, o, v)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, o, v)| LOp::Access(t, o, v)),
        (0..threads).prop_map(LOp::Spurious),
        any::<bool>().prop_map(LOp::SetPlan),
    ]
}

fn op_strategy(threads: usize) -> impl Strategy<Value = Op> {
    // Budget draw: 1..=5 lines, or effectively unlimited when the draw
    // lands on the top value — tiny budgets exercise overflow, huge ones
    // let conflicts develop.
    let unbound = |b: usize| if b == 6 { 1 << 20 } else { b };
    prop_oneof![
        (0..threads, 1usize..7, 1usize..7).prop_map(move |(t, r, w)| Op::Begin(
            t,
            unbound(r),
            unbound(w)
        )),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Read(t, a)),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Read(t, a)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..threads, 0..MEM_WORDS, any::<u64>()).prop_map(|(t, a, v)| Op::Write(t, a, v)),
        (0..threads).prop_map(Op::Commit),
        (0..threads).prop_map(Op::Tabort),
        (0..threads).prop_map(Op::Restricted),
        (0..threads).prop_map(Op::Poll),
        (1u64..100).prop_map(Op::Tick),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::Arm(t, a)),
        (0..threads, 0..MEM_WORDS).prop_map(|(t, a)| Op::DoomAll(t, a)),
    ]
}

/// Operations of the tier-equivalence test. Addresses are (page, offset)
/// pairs folded into a few hot lines of each dirty-bitmap page, so that
/// conflicts develop *and* some page of a script is written on tier 0 only.
#[derive(Debug, Clone)]
enum TOp {
    Begin(usize, usize, usize),
    Read(usize, usize),
    Write(usize, usize, u64),
    Commit(usize),
    Tabort(usize),
    Poll(usize),
    DoomAll(usize, usize),
    SetPlan(bool),
}

const TIER_PAGES: usize = 4;
const TIER_WORDS: usize = TIER_PAGES * 512;
const TIER_LINE_WORDS: usize = 4;
const TIER_WAYS: usize = 4;

fn tier_addr(raw: usize) -> usize {
    (raw % TIER_PAGES) * 512 + (raw / TIER_PAGES) % 32
}

fn tier_op_strategy() -> impl Strategy<Value = TOp> {
    let unbound = |b: usize| if b == 6 { 1 << 20 } else { b };
    let addr = || (0usize..TIER_PAGES * 32).prop_map(tier_addr);
    prop_oneof![
        (0..5usize, 1usize..7, 1usize..7).prop_map(move |(t, r, w)| TOp::Begin(
            t,
            unbound(r),
            unbound(w)
        )),
        (0..5usize, addr()).prop_map(|(t, a)| TOp::Read(t, a)),
        (0..5usize, addr()).prop_map(|(t, a)| TOp::Read(t, a)),
        (0..5usize, addr()).prop_map(|(t, a)| TOp::Read(t, a)),
        (0..5usize, addr(), any::<u64>()).prop_map(|(t, a, v)| TOp::Write(t, a, v)),
        (0..5usize, addr(), any::<u64>()).prop_map(|(t, a, v)| TOp::Write(t, a, v)),
        (0..5usize, addr(), any::<u64>()).prop_map(|(t, a, v)| TOp::Write(t, a, v)),
        (0..5usize).prop_map(TOp::Commit),
        (0..5usize).prop_map(TOp::Commit),
        (0..5usize).prop_map(TOp::Tabort),
        (0..5usize).prop_map(TOp::Poll),
        (0..5usize).prop_map(TOp::Poll),
        (0..5usize, addr()).prop_map(|(t, a)| TOp::DoomAll(t, a)),
        any::<bool>().prop_map(TOp::SetPlan),
    ]
}

/// Thread 0's transactions on the first line of every page (pages are 512
/// words: the same way of a `Tiered` cache and the same mask bits), thread
/// 1's plain writes dooming them. No fault plan: leases are always granted.
fn colliding_op_strategy() -> impl Strategy<Value = TOp> {
    let addr = || (0..TIER_PAGES * TIER_LINE_WORDS).prop_map(tier_addr);
    let write = move |t: usize| (addr(), any::<u64>()).prop_map(move |(a, v)| TOp::Write(t, a, v));
    prop_oneof![
        any::<bool>().prop_map(|_| TOp::Begin(0, 1 << 20, 1 << 20)),
        write(0),
        write(0),
        write(0),
        write(0),
        addr().prop_map(|a| TOp::Read(0, a)),
        any::<bool>().prop_map(|_| TOp::Commit(0)),
        any::<bool>().prop_map(|_| TOp::Tabort(0)),
        any::<bool>().prop_map(|_| TOp::Poll(0)),
        write(1),
    ]
}

/// The hot words of a tier script, where its rollbacks land.
fn tier_hot_words() -> impl Iterator<Item = usize> {
    (0..TIER_PAGES * 32).map(tier_addr)
}

/// One way of a tier cache: the read lease, the write lease and the write
/// lease's logged-words mask, as `Vm`'s `LeasePair` keeps them.
type Way = (LineLease, LineLease, u64);

/// A `TxMemory` behind the tier choice of `Vm::rd`/`Vm::wr`: quiescent →
/// the full path's head and no lease; a valid covering lease → the leased
/// path (a write through the way's mask); else the full access, then
/// `try_lease` into a small per-thread cache, the mask reset to what the
/// grant starts with. Neighbouring lines share a way (as all lines share
/// the VM's runtime pair), so `covers` is what tells a hit from a stale
/// neighbour.
struct Tiered {
    mem: TxMemory<u64>,
    cache: Vec<[Way; TIER_WAYS]>,
}

impl Tiered {
    /// Two neighbouring lines to a way.
    fn way(line: usize) -> usize {
        (line >> 1) % TIER_WAYS
    }

    fn read(&mut self, t: usize, a: usize) -> Result<u64, htm_sim::AbortReason> {
        if self.mem.quiescent() {
            return self.mem.read(t, a);
        }
        let line = self.mem.line_of(a);
        let lease = self.cache[t][Self::way(line)].0;
        if self.mem.lease_valid(&lease) && lease.covers(line) {
            return Ok(self.mem.lease_read(&lease, a));
        }
        let v = self.mem.read(t, a)?;
        self.cache[t][Self::way(line)].0 = self.mem.try_lease(t, a, false);
        Ok(v)
    }

    fn write(&mut self, t: usize, a: usize, v: u64) -> Result<(), htm_sim::AbortReason> {
        if self.mem.quiescent() {
            return self.mem.write(t, a, v);
        }
        let line = self.mem.line_of(a);
        let (_, lease, logged) = &mut self.cache[t][Self::way(line)];
        if self.mem.lease_valid(lease) && lease.covers(line) {
            self.mem.lease_write_logged(lease, logged, a, v);
            return Ok(());
        }
        self.mem.write(t, a, v)?;
        *lease = self.mem.try_lease(t, a, true);
        *logged = self.mem.logged_on_grant(lease, a);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn directory_matches_reference(
        threads in 2usize..6,
        line_words_log2 in 0u32..4,
        ops in proptest::collection::vec((0..5usize, 0..MEM_WORDS, any::<u64>(), 1u64..50), 1..160),
    ) {
        let line_words = 1usize << line_words_log2;
        let mut dut: TxMemory<u64> = TxMemory::new(MEM_WORDS, line_words, threads, 0);
        let mut reference: ReferenceTxMemory<u64> =
            ReferenceTxMemory::new(MEM_WORDS, line_words, threads, 0);
        dut.set_trace(4096);
        reference.set_trace(4096);

        let mut now = 0u64;
        for (i, &(kind, addr, value, tick)) in ops.iter().enumerate() {
            // Derive a concrete op from the tuple so a shrunk failure stays
            // readable; `kind` picks the op class, the rest parameterize it.
            let t = addr % threads;
            match kind {
                0 => {
                    if !dut.in_tx(t) {
                        let budgets = if value % 4 == 0 {
                            Budgets { read_lines: 1 + (value as usize >> 2) % 5,
                                      write_lines: 1 + (value as usize >> 4) % 5 }
                        } else {
                            Budgets { read_lines: 1 << 20, write_lines: 1 << 20 }
                        };
                        prop_assert_eq!(dut.begin(t, budgets), reference.begin(t, budgets),
                            "begin diverged at op {}", i);
                    }
                }
                1 => prop_assert_eq!(dut.read(t, addr), reference.read(t, addr),
                        "read diverged at op {}", i),
                2 => prop_assert_eq!(dut.write(t, addr, value), reference.write(t, addr, value),
                        "write diverged at op {}", i),
                3 => {
                    if dut.in_tx(t) {
                        prop_assert_eq!(dut.commit(t), reference.commit(t),
                            "commit diverged at op {}", i);
                    } else if value % 3 == 0 {
                        prop_assert_eq!(dut.tabort(t, 1), reference.tabort(t, 1),
                            "tabort diverged at op {}", i);
                    } else {
                        prop_assert_eq!(dut.abort_restricted(t), reference.abort_restricted(t),
                            "restricted diverged at op {}", i);
                    }
                }
                _ => {
                    prop_assert_eq!(dut.poll_doomed(t), reference.poll_doomed(t),
                        "poll diverged at op {}", i);
                    now += tick;
                    dut.set_now(now);
                    reference.set_now(now);
                }
            }
            for u in 0..threads {
                prop_assert_eq!(dut.in_tx(u), reference.in_tx(u), "in_tx({}) at op {}", u, i);
                prop_assert_eq!(dut.footprint(u), reference.footprint(u),
                    "footprint({}) at op {}", u, i);
            }
            prop_assert_eq!(dut.active_tx_count(), reference.active_tx_count(),
                "active count at op {}", i);
            prop_assert_eq!(dut.stats(), reference.stats(), "stats at op {}", i);
        }

        prop_assert_eq!(events(dut.trace()), events(reference.trace()), "trace streams diverged");
        for a in 0..MEM_WORDS {
            prop_assert_eq!(dut.peek(a), reference.peek(a), "memory image at {}", a);
        }
    }

    /// The reference uses the same interleaving as the ops above but with
    /// structured `Op` values, biasing toward conflicting accesses in a
    /// narrow address window so multi-victim dooms and requester-wins
    /// ordering actually occur.
    #[test]
    fn directory_matches_reference_hot_lines(
        threads in 2usize..6,
        ops in proptest::collection::vec(op_strategy(5), 1..200),
    ) {
        let line_words = 4usize;
        let mut dut: TxMemory<u64> = TxMemory::new(MEM_WORDS, line_words, threads, 0);
        let mut reference: ReferenceTxMemory<u64> =
            ReferenceTxMemory::new(MEM_WORDS, line_words, threads, 0);
        dut.set_trace(8192);
        reference.set_trace(8192);

        let mut now = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Begin(t, r, w) => {
                    let t = t % threads;
                    if !dut.in_tx(t) {
                        let b = Budgets { read_lines: r, write_lines: w };
                        prop_assert_eq!(dut.begin(t, b), reference.begin(t, b),
                            "begin diverged at op {}", i);
                    }
                }
                Op::Read(t, a) => {
                    let (t, a) = (t % threads, a % 32); // hot window: 8 lines
                    prop_assert_eq!(dut.read(t, a), reference.read(t, a),
                        "read diverged at op {}", i);
                }
                Op::Write(t, a, v) => {
                    let (t, a) = (t % threads, a % 32);
                    prop_assert_eq!(dut.write(t, a, v), reference.write(t, a, v),
                        "write diverged at op {}", i);
                }
                Op::Commit(t) => {
                    let t = t % threads;
                    if dut.in_tx(t) {
                        prop_assert_eq!(dut.commit(t), reference.commit(t),
                            "commit diverged at op {}", i);
                    }
                }
                Op::Tabort(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.tabort(t, 7), reference.tabort(t, 7),
                        "tabort diverged at op {}", i);
                }
                Op::Restricted(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.abort_restricted(t), reference.abort_restricted(t),
                        "restricted diverged at op {}", i);
                }
                Op::Poll(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.poll_doomed(t), reference.poll_doomed(t),
                        "poll diverged at op {}", i);
                }
                Op::Tick(d) => {
                    now += d;
                    dut.set_now(now);
                    reference.set_now(now);
                }
                Op::Arm(t, a) => {
                    let (t, a) = (t % threads, a % 32);
                    prop_assert_eq!(
                        dut.arm_lock_monitor(t, a), reference.arm_lock_monitor(t, a),
                        "arm diverged at op {}", i);
                }
                Op::DoomAll(t, a) => {
                    let (t, a) = (t % threads, a % 32);
                    dut.doom_all_active(t, a);
                    reference.doom_all_active(t, a);
                }
            }
            prop_assert_eq!(dut.stats(), reference.stats(), "stats at op {}", i);
        }

        prop_assert_eq!(events(dut.trace()), events(reference.trace()), "trace streams diverged");
        for a in 0..MEM_WORDS {
            prop_assert_eq!(dut.peek(a), reference.peek(a), "memory image at {}", a);
        }
    }

    /// The same hot-line interleaving with the fault injector enabled on
    /// **both** implementations: spurious aborts, mid-transaction budget
    /// shrinks and forced restricted ops must fire at the same accesses,
    /// attribute the same reasons, and leave identical memory images.
    #[test]
    fn directory_matches_reference_with_fault_injection(
        threads in 2usize..6,
        seed in any::<u64>(),
        spurious_pct in 0u32..31,
        shrink_pct in 0u32..16,
        restricted_pct in 0u32..11,
        ops in proptest::collection::vec(op_strategy(5), 1..200),
    ) {
        let plan = FaultPlan {
            seed,
            spurious_rate: f64::from(spurious_pct) / 100.0,
            shrink_rate: f64::from(shrink_pct) / 100.0,
            restricted_rate: f64::from(restricted_pct) / 100.0,
        };
        let line_words = 4usize;
        let mut dut: TxMemory<u64> = TxMemory::new(MEM_WORDS, line_words, threads, 0);
        let mut reference: ReferenceTxMemory<u64> =
            ReferenceTxMemory::new(MEM_WORDS, line_words, threads, 0);
        dut.set_fault_plan(plan);
        reference.set_fault_plan(plan);
        dut.set_trace(8192);
        reference.set_trace(8192);

        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Begin(t, r, w) => {
                    let t = t % threads;
                    if !dut.in_tx(t) {
                        let b = Budgets { read_lines: r, write_lines: w };
                        prop_assert_eq!(dut.begin(t, b), reference.begin(t, b),
                            "begin diverged at op {}", i);
                    }
                }
                Op::Read(t, a) => {
                    let (t, a) = (t % threads, a % 32);
                    prop_assert_eq!(dut.read(t, a), reference.read(t, a),
                        "read diverged at op {}", i);
                }
                Op::Write(t, a, v) => {
                    let (t, a) = (t % threads, a % 32);
                    prop_assert_eq!(dut.write(t, a, v), reference.write(t, a, v),
                        "write diverged at op {}", i);
                }
                Op::Commit(t) => {
                    let t = t % threads;
                    if dut.in_tx(t) {
                        prop_assert_eq!(dut.commit(t), reference.commit(t),
                            "commit diverged at op {}", i);
                    }
                }
                Op::Tabort(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.tabort(t, 7), reference.tabort(t, 7),
                        "tabort diverged at op {}", i);
                }
                Op::Restricted(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.abort_restricted(t), reference.abort_restricted(t),
                        "restricted diverged at op {}", i);
                }
                Op::Poll(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.poll_doomed(t), reference.poll_doomed(t),
                        "poll diverged at op {}", i);
                }
                Op::Tick(d) => {
                    dut.set_now(d);
                    reference.set_now(d);
                }
                Op::Arm(t, a) => {
                    let (t, a) = (t % threads, a % 32);
                    prop_assert_eq!(
                        dut.arm_lock_monitor(t, a), reference.arm_lock_monitor(t, a),
                        "arm diverged at op {}", i);
                }
                Op::DoomAll(t, a) => {
                    let (t, a) = (t % threads, a % 32);
                    dut.doom_all_active(t, a);
                    reference.doom_all_active(t, a);
                }
            }
            for u in 0..threads {
                prop_assert_eq!(dut.in_tx(u), reference.in_tx(u), "in_tx({}) at op {}", u, i);
                prop_assert_eq!(dut.footprint(u), reference.footprint(u),
                    "footprint({}) at op {}", u, i);
            }
            prop_assert_eq!(dut.stats(), reference.stats(), "stats at op {}", i);
            prop_assert_eq!(dut.faults_injected(), reference.faults_injected(),
                "injection streams diverged at op {}", i);
        }

        prop_assert_eq!(events(dut.trace()), events(reference.trace()), "trace streams diverged");
        for a in 0..MEM_WORDS {
            prop_assert_eq!(dut.peek(a), reference.peek(a), "memory image at {}", a);
        }
    }

    /// Lease differential: the directory impl serving accesses through
    /// epoch-validated line leases (batched direct path, writes through a
    /// logged-words mask started at the grant) must be observationally
    /// identical to the reference serving the *same* accesses through its
    /// per-word path — across interleaved transactions, dooms, mid-lease
    /// aborts, interrupt kills, and fault-plan toggles. Compared per op:
    /// results, abort reasons, `in_tx`/footprints, fault-draw counts, the
    /// full stats struct with only the lease counters masked (the reference
    /// has no leases) and the image of the words the ops touch; compared at
    /// the end: trace streams and the byte-exact memory image.
    #[test]
    fn leases_match_the_reference(
        threads in 2usize..6,
        seed in any::<u64>(),
        ops in proptest::collection::vec(lease_op_strategy(5), 1..250),
    ) {
        let line_words = 4usize;
        let mut dut: TxMemory<u64> = TxMemory::new(MEM_WORDS, line_words, threads, 0);
        let mut reference: ReferenceTxMemory<u64> =
            ReferenceTxMemory::new(MEM_WORDS, line_words, threads, 0);
        dut.set_trace(8192);
        reference.set_trace(8192);

        // The lease each thread holds on the directory impl, and the mask
        // its writes go through.
        let mut held: Vec<Option<(LineLease, u64)>> = vec![None; threads];
        for (i, op) in ops.iter().enumerate() {
            match *op {
                LOp::Begin(t, r, w) => {
                    let t = t % threads;
                    if !dut.in_tx(t) {
                        let b = Budgets { read_lines: r, write_lines: w };
                        prop_assert_eq!(dut.begin(t, b), reference.begin(t, b),
                            "begin diverged at op {}", i);
                    }
                }
                LOp::Read(t, a) => {
                    let (t, a) = (t % threads, a % 32);
                    prop_assert_eq!(dut.read(t, a), reference.read(t, a),
                        "read diverged at op {}", i);
                }
                LOp::Write(t, a, v) => {
                    let (t, a) = (t % threads, a % 32);
                    prop_assert_eq!(dut.write(t, a, v), reference.write(t, a, v),
                        "write diverged at op {}", i);
                }
                LOp::Commit(t) => {
                    let t = t % threads;
                    if dut.in_tx(t) {
                        prop_assert_eq!(dut.commit(t), reference.commit(t),
                            "commit diverged at op {}", i);
                    }
                }
                LOp::Tabort(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.tabort(t, 7), reference.tabort(t, 7),
                        "tabort diverged at op {}", i);
                }
                LOp::Poll(t) => {
                    let t = t % threads;
                    prop_assert_eq!(dut.poll_doomed(t), reference.poll_doomed(t),
                        "poll diverged at op {}", i);
                }
                LOp::Acquire(t, a, write) => {
                    let (t, a) = (t % threads, a % 32);
                    let lease = dut.try_lease(t, a, write);
                    held[t] = Some((lease, dut.logged_on_grant(&lease, a)));
                }
                LOp::Access(t, off, v) => {
                    let t = t % threads;
                    let Some((d, logged)) = &mut held[t] else { continue };
                    let d = *d;
                    if dut.lease_valid(&d) {
                        let a = d.line as usize * line_words + off % line_words;
                        // While the lease is valid no doom, fault or overflow
                        // can hit the reference's full-path access either.
                        if d.write {
                            dut.lease_write_logged(&d, logged, a, v);
                            prop_assert_eq!(reference.write(t, a, v), Ok(()),
                                "leased write diverged at op {}", i);
                        } else {
                            prop_assert_eq!(Ok(dut.lease_read(&d, a)), reference.read(t, a),
                                "leased read diverged at op {}", i);
                        }
                    } else {
                        // Stale token: the interpreter falls back to the
                        // full per-word path on both sides.
                        let a = if d == LineLease::INVALID {
                            off % 32
                        } else {
                            d.line as usize * line_words + off % line_words
                        };
                        if d.write {
                            prop_assert_eq!(dut.write(t, a, v), reference.write(t, a, v),
                                "post-lease write diverged at op {}", i);
                        } else {
                            prop_assert_eq!(dut.read(t, a), reference.read(t, a),
                                "post-lease read diverged at op {}", i);
                        }
                    }
                }
                LOp::Spurious(t) => {
                    let t = t % threads;
                    prop_assert_eq!(
                        dut.abort_spurious(t, htm_sim::SpuriousCause::TimerInterrupt),
                        reference.abort_spurious(t, htm_sim::SpuriousCause::TimerInterrupt),
                        "spurious kill diverged at op {}", i);
                }
                LOp::SetPlan(on) => {
                    let plan = if on {
                        FaultPlan {
                            seed,
                            spurious_rate: 0.10,
                            shrink_rate: 0.05,
                            restricted_rate: 0.05,
                        }
                    } else {
                        FaultPlan::none()
                    };
                    dut.set_fault_plan(plan);
                    reference.set_fault_plan(plan);
                }
            }
            for u in 0..threads {
                prop_assert_eq!(dut.in_tx(u), reference.in_tx(u), "in_tx({}) at op {}", u, i);
                prop_assert_eq!(dut.footprint(u), reference.footprint(u),
                    "footprint({}) at op {}", u, i);
            }
            // Settle the directory impl's batched counters, then compare
            // every stats field except the lease counters (the reference
            // has no leases).
            dut.flush_lease_stats();
            let mut ds = dut.stats().clone();
            ds.lease_hits = 0;
            ds.lease_misses = 0;
            prop_assert_eq!(&ds, reference.stats(), "stats at op {}", i);
            prop_assert_eq!(dut.faults_injected(), reference.faults_injected(),
                "injection streams diverged at op {}", i);
            for a in 0..32 {
                prop_assert_eq!(dut.peek(a), reference.peek(a), "memory image at {} op {}", a, i);
            }
        }

        prop_assert_eq!(events(dut.trace()), events(reference.trace()), "trace streams diverged");
        for a in 0..MEM_WORDS {
            prop_assert_eq!(dut.peek(a), reference.peek(a), "memory image at {}", a);
        }
    }

    #[test]
    fn tiers_match_the_full_path(
        threads in 2usize..6,
        seed in any::<u64>(),
        ops in proptest::collection::vec(tier_op_strategy(), 1..250),
    ) {
        check_tiers(threads, seed, &ops);
    }

    /// The same check on scripts aimed at the logged-words mask: thread 0's
    /// transactions write the first line of every page — one way of the
    /// cache, the same mask bits — while thread 1's plain writes doom them.
    #[test]
    fn tiers_match_the_full_path_on_colliding_lines(
        ops in proptest::collection::vec(colliding_op_strategy(), 1..120),
    ) {
        check_tiers(2, 0, &ops);
    }
}

/// Tier equivalence: one script drives a tiered `TxMemory`, a
/// `TxMemory` that only ever takes the full path, and the reference.
/// After every op: equal results and abort reasons, `in_tx`/footprints,
/// statistics (the tiered side's lease counters masked — nothing else
/// may tell the tiers apart), injector draw counts and the image of
/// the hot words, so each rollback is checked where it lands; at the
/// end: equal images, and both torn-down images all-`init` (every
/// write, whichever tier served it, reached the dirty bitmap).
fn check_tiers(threads: usize, seed: u64, ops: &[TOp]) {
    let new = || TxMemory::<u64>::new(TIER_WORDS, TIER_LINE_WORDS, threads, 0);
    let invalid = [(LineLease::INVALID, LineLease::INVALID, 0); TIER_WAYS];
    let mut dut = Tiered { mem: new(), cache: vec![invalid; threads] };
    let mut full = new();
    let mut reference: ReferenceTxMemory<u64> =
        ReferenceTxMemory::new(TIER_WORDS, TIER_LINE_WORDS, threads, 0);

    for (i, op) in ops.iter().enumerate() {
        match *op {
            TOp::Begin(t, r, w) => {
                let t = t % threads;
                if !full.in_tx(t) {
                    let b = Budgets { read_lines: r, write_lines: w };
                    let want = reference.begin(t, b);
                    prop_assert_eq!(dut.mem.begin(t, b), want, "tiered begin at op {}", i);
                    prop_assert_eq!(full.begin(t, b), want, "begin at op {}", i);
                }
            }
            TOp::Read(t, a) => {
                let t = t % threads;
                let want = reference.read(t, a);
                prop_assert_eq!(dut.read(t, a), want, "tiered read at op {}", i);
                prop_assert_eq!(full.read(t, a), want, "read at op {}", i);
            }
            TOp::Write(t, a, v) => {
                let t = t % threads;
                let want = reference.write(t, a, v);
                prop_assert_eq!(dut.write(t, a, v), want, "tiered write at op {}", i);
                prop_assert_eq!(full.write(t, a, v), want, "write at op {}", i);
            }
            TOp::Commit(t) => {
                let t = t % threads;
                if full.in_tx(t) {
                    let want = reference.commit(t);
                    prop_assert_eq!(dut.mem.commit(t), want, "tiered commit at op {}", i);
                    prop_assert_eq!(full.commit(t), want, "commit at op {}", i);
                }
            }
            TOp::Tabort(t) => {
                let t = t % threads;
                let want = reference.tabort(t, 7);
                prop_assert_eq!(dut.mem.tabort(t, 7), want, "tiered tabort at op {}", i);
                prop_assert_eq!(full.tabort(t, 7), want, "tabort at op {}", i);
            }
            TOp::Poll(t) => {
                let t = t % threads;
                let want = reference.poll_doomed(t);
                prop_assert_eq!(dut.mem.poll_doomed(t), want, "tiered poll at op {}", i);
                prop_assert_eq!(full.poll_doomed(t), want, "poll at op {}", i);
            }
            TOp::DoomAll(t, a) => {
                let t = t % threads;
                dut.mem.doom_all_active(t, a);
                full.doom_all_active(t, a);
                reference.doom_all_active(t, a);
            }
            TOp::SetPlan(on) => {
                let plan = if on {
                    FaultPlan {
                        seed,
                        spurious_rate: 0.10,
                        shrink_rate: 0.05,
                        restricted_rate: 0.05,
                    }
                } else {
                    FaultPlan::none()
                };
                dut.mem.set_fault_plan(plan);
                full.set_fault_plan(plan);
                reference.set_fault_plan(plan);
            }
        }
        prop_assert_eq!(dut.mem.quiescent(), full.quiescent(), "quiescent at op {}", i);
        for u in 0..threads {
            prop_assert_eq!(dut.mem.in_tx(u), reference.in_tx(u), "in_tx({}) at op {}", u, i);
            prop_assert_eq!(full.in_tx(u), reference.in_tx(u), "in_tx({}) at op {}", u, i);
            prop_assert_eq!(
                dut.mem.footprint(u),
                reference.footprint(u),
                "tiered footprint({}) at op {}",
                u,
                i
            );
            prop_assert_eq!(
                full.footprint(u),
                reference.footprint(u),
                "footprint({}) at op {}",
                u,
                i
            );
        }
        dut.mem.flush_lease_stats();
        let mut ds = dut.mem.stats().clone();
        ds.lease_hits = 0;
        ds.lease_misses = 0;
        prop_assert_eq!(&ds, reference.stats(), "tiered stats at op {}", i);
        prop_assert_eq!(full.stats(), reference.stats(), "stats at op {}", i);
        prop_assert_eq!(
            dut.mem.faults_injected(),
            reference.faults_injected(),
            "tiered injection stream at op {}",
            i
        );
        prop_assert_eq!(
            full.faults_injected(),
            reference.faults_injected(),
            "injection stream at op {}",
            i
        );
        // Every rollback (a doom, a self-abort, an overflow) has
        // replayed its log by now: the image must already agree.
        for a in tier_hot_words() {
            prop_assert_eq!(dut.mem.peek(a), reference.peek(a), "tiered image at {} op {}", a, i);
            prop_assert_eq!(full.peek(a), reference.peek(a), "image at {} op {}", a, i);
        }
    }

    for a in 0..TIER_WORDS {
        prop_assert_eq!(dut.mem.peek(a), reference.peek(a), "tiered image at {}", a);
        prop_assert_eq!(full.peek(a), reference.peek(a), "image at {}", a);
    }
    for mut m in [dut.mem, full] {
        let image = m.take_image(0);
        let again = TxMemory::recycled(Some(image), TIER_WORDS, TIER_LINE_WORDS, threads, 0);
        for a in 0..TIER_WORDS {
            prop_assert_eq!(*again.peek(a), 0, "word {} survived take_image", a);
        }
    }
}
