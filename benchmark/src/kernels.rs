//! Layer kernels: small fixed loops over one layer's public functions,
//! each reported per unit of simulated work (word, pick, attempt, point)
//! so layers compare across workloads. Inputs are seeded constants; the
//! only thing that varies between runs is host time.

use htm_gil_core::{LengthPolicy, LengthTables, TleConstants};
use htm_gil_stats::hist::LatencyHistogram;
use htm_sim::{AbortReason, Budgets, TxMemory};
use machine_sim::{MachineProfile, Scheduler};

use crate::clock::{process_cpu_ns, thread_cpu_ns};
use crate::run::Metric;

/// Timed repetitions per kernel (after one untimed warm-up call).
const REPS: usize = 9;
/// Lines each `TxMemory` kernel touches per repetition.
const LINES: usize = 256;
/// Simulated threads in the `TxMemory` kernels: 0 measures, 1..=12 crowd.
const THREADS: usize = 13;

/// xorshift64: the kernels' seeded cost/value streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `REPS` samples of the CPU nanoseconds one call of `f` reports, per unit.
/// `f` returns the nanoseconds it measured itself, so a kernel can leave
/// its own preparation untimed.
fn sample(units: u64, mut f: impl FnMut() -> u64) -> Vec<f64> {
    f();
    (0..REPS).map(|_| f() as f64 / units as f64).collect()
}

/// `sample` for kernels that are timed whole.
fn sample_whole(units: u64, mut f: impl FnMut()) -> Vec<f64> {
    sample(units, || {
        let t0 = thread_cpu_ns();
        f();
        thread_cpu_ns() - t0
    })
}

fn roomy() -> Budgets {
    Budgets { read_lines: 1 << 20, write_lines: 1 << 20 }
}

fn memory(line_words: usize) -> TxMemory<u64> {
    TxMemory::new((THREADS + 1) * LINES * line_words, line_words, THREADS, 0)
}

/// Read then write every word of thread 0's lines through the full
/// per-word path.
fn word_pass(m: &mut TxMemory<u64>, words: usize) -> Result<(), AbortReason> {
    for a in 0..words {
        let v = m.read(0, a)?;
        m.write(0, a, v.wrapping_add(1))?;
    }
    Ok(())
}

/// The same accesses through line leases, the way `Vm::rd`/`Vm::wr` use
/// them: the first access to a line in each mode goes the full path and
/// takes a lease, the rest check the lease and go direct.
fn lease_pass(m: &mut TxMemory<u64>, line_words: usize) -> Result<(), AbortReason> {
    for line in 0..LINES {
        let base = line * line_words;
        let v = m.read(0, base)?;
        m.write(0, base, v.wrapping_add(1))?;
        let rd = m.try_lease(0, base, false);
        let wr = m.try_lease(0, base, true);
        for a in base + 1..base + line_words {
            assert!(m.lease_valid(&rd) && m.lease_valid(&wr), "kernel lease went stale");
            let v = m.lease_read(&rd, a);
            m.lease_write(&wr, a, v.wrapping_add(1));
        }
    }
    Ok(())
}

/// One committed transaction of thread 0 around `body`.
fn in_tx(m: &mut TxMemory<u64>, body: impl FnOnce(&mut TxMemory<u64>)) {
    m.begin(0, roomy()).expect("begin");
    body(m);
    m.commit(0).expect("commit");
}

fn htm_sim(line_words: usize, out: &mut Vec<Metric>) {
    let words = LINES * line_words;
    let accesses = 2 * words as u64;
    let per_word = |name, samples| Metric::new(name, "ns/word", samples);

    let mut m = memory(line_words);
    out.push(per_word(
        "htm-sim.plain_ns_per_word",
        sample_whole(accesses, || word_pass(&mut m, words).expect("plain access")),
    ));
    out.push(per_word(
        "htm-sim.plain_lease_ns_per_word",
        sample_whole(accesses, || lease_pass(&mut m, line_words).expect("plain access")),
    ));
    out.push(per_word(
        "htm-sim.tx_ns_per_word",
        sample_whole(accesses, || in_tx(&mut m, |m| word_pass(m, words).expect("uncontended tx"))),
    ));
    out.push(per_word(
        "htm-sim.tx_lease_ns_per_word",
        sample_whole(accesses, || {
            in_tx(&mut m, |m| lease_pass(m, line_words).expect("uncontended tx"))
        }),
    ));
    out.push(Metric::new(
        "htm-sim.begin_commit_ns",
        "ns",
        sample_whole(1_000, || (0..1_000).for_each(|_| in_tx(&mut m, |_| {}))),
    ));
    // Only the abort is timed: the undo log replays one entry per word.
    out.push(per_word(
        "htm-sim.rollback_ns_per_word",
        sample(words as u64, || {
            m.begin(0, roomy()).expect("begin");
            (0..words).for_each(|a| m.write(0, a, 7).expect("uncontended tx"));
            let t0 = thread_cpu_ns();
            m.tabort(0, 1);
            thread_cpu_ns() - t0
        }),
    ));
    // Thread 1 opens a transaction on a line, thread 0's plain write dooms
    // it (requester wins), thread 1 observes the abort.
    out.push(Metric::new(
        "htm-sim.conflict_doom_ns",
        "ns",
        sample_whole(1_000, || {
            for i in 0..1_000 {
                let a = (i % LINES) * line_words;
                m.begin(1, roomy()).expect("begin");
                m.write(1, a, 1).expect("first writer");
                m.write(0, a, 2).expect("plain write");
                assert!(m.poll_doomed(1).is_some(), "the plain write must doom the transaction");
            }
        }),
    ));
    // Twelve other transactions stay open on disjoint lines while thread 0
    // runs its own: what the ownership directory costs when it is crowded.
    for t in 1..THREADS {
        m.begin(t, roomy()).expect("begin");
        for line in 0..LINES {
            m.write(t, (t * LINES + line) * line_words, 1).expect("disjoint lines");
        }
    }
    out.push(per_word(
        "htm-sim.crowded_tx_ns_per_word",
        sample_whole(accesses, || in_tx(&mut m, |m| word_pass(m, words).expect("disjoint lines"))),
    ));
}

/// `Scheduler::next` + `advance` with seeded step costs, and a
/// park/unpark pair on the picked thread.
fn machine_sim(out: &mut Vec<Metric>) {
    const PICKS: u64 = 100_000;
    let z = MachineProfile::zec12();
    let x = MachineProfile::xeon_e3_1275_v3();
    let scheduler = |p: &MachineProfile| {
        let mut s = Scheduler::new(p.cores, p.smt_per_core, p.cost.context_switch);
        for _ in 0..12 {
            s.spawn(0);
        }
        s
    };
    for (name, profile) in
        [("machine-sim.sched_pick_ns", &z), ("machine-sim.sched_pick_oversub_ns", &x)]
    {
        let mut s = scheduler(profile);
        let mut rng = Rng(0x5eed);
        out.push(Metric::new(
            name,
            "ns",
            sample_whole(PICKS, || {
                for _ in 0..PICKS {
                    let t = s.next().expect("a runnable thread");
                    s.advance(t, 20 + rng.next() % 64);
                }
            }),
        ));
    }
    let mut s = scheduler(&z);
    let mut rng = Rng(0x5eed);
    out.push(Metric::new(
        "machine-sim.park_unpark_ns",
        "ns",
        sample_whole(PICKS, || {
            for _ in 0..PICKS {
                let t = s.next().expect("a runnable thread");
                s.park(t);
                s.unpark(t, s.clock(t) + 20 + rng.next() % 64);
            }
        }),
    ));
}

/// The Fig. 3 tables' attempt/abort/adjust loop over 256 yield points,
/// one abort in eight attempts.
fn tle_tables(out: &mut Vec<Metric>) {
    const ATTEMPTS: u64 = 100_000;
    let consts = TleConstants::for_profile(&MachineProfile::zec12());
    let abort = AbortReason::Explicit(1);
    out.push(Metric::new(
        "core.tle_table_ns",
        "ns",
        sample_whole(ATTEMPTS, || {
            let mut tables = LengthTables::new(256, LengthPolicy::Dynamic, consts);
            let mut rng = Rng(0x5eed);
            for _ in 0..ATTEMPTS {
                let r = rng.next();
                let pc = (r % 256) as u32;
                std::hint::black_box(tables.set_transaction_length(pc));
                tables.record_attempt(pc);
                if (r >> 8).is_multiple_of(8) {
                    tables.record_abort(pc, abort);
                    tables.adjust_transaction_length(pc);
                }
            }
            std::hint::black_box(tables.total_adjustments);
        }),
    ));
}

/// The sweep pool over 1 000 no-op points: inline at one job, two worker
/// threads at two (process CPU time there: the workers do the work).
fn harness(out: &mut Vec<Metric>) {
    const POINTS: u64 = 1_000;
    let points: Vec<u64> = (0..POINTS).collect();
    for (name, jobs) in [("bench.pool_ns_per_point", 1), ("bench.pool_j2_ns_per_point", 2)] {
        out.push(Metric::new(
            name,
            "ns/point",
            sample(POINTS, || {
                let t0 = process_cpu_ns();
                let r = bench::pool::try_map_ordered(
                    jobs,
                    &points,
                    |p| p.to_string(),
                    |_, p| std::hint::black_box(*p),
                    |_, _| {},
                );
                let ns = process_cpu_ns() - t0;
                assert_eq!(r.expect("no point panics").len(), points.len());
                ns
            }),
        ));
    }
    const RECORDS: u64 = 100_000;
    out.push(Metric::new(
        "stats.hist_record_ns",
        "ns",
        sample_whole(RECORDS, || {
            let mut h = LatencyHistogram::new();
            let mut rng = Rng(0x5eed);
            (0..RECORDS).for_each(|_| h.record(rng.next() >> 40));
            std::hint::black_box(h.count());
        }),
    ));
}

/// Every kernel metric; `line_words` sizes the `TxMemory` kernels' lines.
pub fn all(line_words: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    htm_sim(line_words, &mut out);
    machine_sim(&mut out);
    tle_tables(&mut out);
    harness(&mut out);
    out
}
