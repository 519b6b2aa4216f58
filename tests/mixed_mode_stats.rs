//! Regression guard for the non-transactional fast path in `TxMemory`.
//!
//! When no transaction is active and no doom is pending, reads and writes
//! skip all conflict machinery. A GIL/HTM mixed run — HTM-dynamic with its
//! GIL fallback — constantly crosses that boundary: GIL holders access
//! memory plainly, transactions come and go, and non-transactional writes
//! to the GIL word doom subscribed transactions. These tests pin that the
//! fast path changes no observable statistic: dooms from non-transactional
//! accesses are still delivered and counted, access totals still advance,
//! and the whole report is bit-for-bit reproducible.
//!
//! The last test does the same for the scheduler's shortcuts (slot-waiter
//! count, run-ahead horizon) on oversubscribed machines, the states no
//! benchmark workload reaches.

use htm_gil_core::{ExecConfig, Executor, LengthPolicy, RunReport, RuntimeMode};
use machine_sim::MachineProfile;
use ruby_vm::VmConfig;

fn run_cg(mode: RuntimeMode) -> RunReport {
    let profile = MachineProfile::zec12();
    let cfg = ExecConfig::new(mode, &profile);
    let w = workloads::npb::cg(4, 1);
    let vm = VmConfig { max_threads: 6, ..VmConfig::default() };
    let mut ex = Executor::new(&w.source, vm, profile, cfg).expect("boot");
    ex.run().expect("run")
}

#[test]
fn mixed_gil_htm_run_exercises_both_paths_with_stable_stats() {
    let r = run_cg(RuntimeMode::Htm { length: LengthPolicy::Dynamic });
    // The run mixes transactional and plain execution...
    assert!(r.htm.commits > 0, "no transactions committed");
    assert!(r.gil_acquisitions > 0, "no GIL fallback occurred");
    // ...and non-transactional accesses (GIL word writes by fallback
    // holders) doomed live transactions, which the fast path must not
    // swallow.
    assert!(r.htm.nontx_dooms > 0, "no non-transactional dooms observed");
    assert!(r.htm.reads > 0 && r.htm.writes > 0, "access counters must advance");
    // An identical rerun must produce identical statistics: the fast path
    // is a shortcut, not a behaviour change.
    let r2 = run_cg(RuntimeMode::Htm { length: LengthPolicy::Dynamic });
    assert_eq!(r.htm, r2.htm, "HTM statistics must be reproducible");
    assert_eq!(r.elapsed_cycles, r2.elapsed_cycles);
    assert_eq!(r.stdout, r2.stdout);
}

#[test]
fn pure_gil_run_never_dooms() {
    // Under the plain GIL every access takes the fast path (no
    // transactions ever begin); the conflict counters must stay zero while
    // the access counters still advance.
    let r = run_cg(RuntimeMode::Gil);
    assert_eq!(r.htm.begins, 0);
    assert_eq!(r.htm.total_aborts(), 0);
    assert_eq!(r.htm.nontx_dooms, 0);
    assert!(r.htm.reads > 0 && r.htm.writes > 0);
}

/// `io_wait` sleepers and a contended `Mutex`: the park/sleep/wake edges.
const IO_SRC: &str = r#"
threads = []
6.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    x = 0
    while j < 12
      io_wait(1 + tid % 3)
      k = 0
      while k < 40 * (tid + 1)
        x += k
        k += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts("done")
"#;

const MUTEX_SRC: &str = r#"
m = Mutex.new()
count = 0
threads = []
6.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 60
      m.synchronize do
        count += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count)
"#;

/// Oversubscribed runs (more threads than hardware threads, so quantum
/// hand-overs and slot preemptions happen while run-ahead streaks are
/// live) must report the same JSON with and without an empty-path
/// exploration controller. The controller changes no decision
/// (`tests/explore_replay_proptest.rs`), but its `explore_preempt` traffic
/// at every yield point drives the pin/horizon interaction the plain run
/// never touches. `elapsed_cycles` is pinned to what the full-scan
/// scheduler produced, so a change that moves both sides alike still fails.
#[test]
fn oversubscribed_runs_match_with_and_without_an_empty_path_controller() {
    let zec12 = MachineProfile::zec12;
    let xeon = MachineProfile::xeon_e3_1275_v3;
    let generic4 = || MachineProfile::generic(4);
    let while14 = workloads::micro::while_bench(14, 600).source;
    let while10 = workloads::micro::while_bench(10, 600).source;
    let iter14 = workloads::micro::iterator_bench(14, 300).source;
    let iter10 = workloads::micro::iterator_bench(10, 300).source;
    type Point<'a> = (&'a str, &'a str, fn() -> MachineProfile, usize, [u64; 3]);
    let points: [Point; 6] = [
        ("while", &while14, zec12, 14, [2_359_748, 1_821_567, 3_419_322]),
        ("while", &while10, xeon, 10, [1_469_272, 1_903_983, 2_480_898]),
        ("iterator", &iter14, zec12, 14, [1_622_830, 1_530_744, 2_488_135]),
        ("iterator", &iter10, xeon, 10, [1_027_924, 1_516_223, 1_675_325]),
        ("io", IO_SRC, generic4, 6, [3_209_298, 5_732_581, 6_377_651]),
        ("mutex", MUTEX_SRC, generic4, 6, [238_333, 689_224, 424_956]),
    ];
    let modes = [
        RuntimeMode::Gil,
        RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
        RuntimeMode::Htm { length: LengthPolicy::Dynamic },
    ];
    for (name, source, profile, threads, pinned) in points {
        for (mode, want_cycles) in modes.into_iter().zip(pinned) {
            let run = |path: Option<machine_sim::SchedPath>| {
                let profile = profile();
                let mut cfg = ExecConfig::new(mode, &profile);
                cfg.explore_path = path;
                let vm = VmConfig { max_threads: threads + 2, ..VmConfig::default() };
                let mut ex = Executor::new(source, vm, profile, cfg).expect("boot");
                ex.run().unwrap_or_else(|e| panic!("{name} {}: {e}", mode.label()))
            };
            let bare = run(None);
            let ctl = run(Some(machine_sim::SchedPath::empty()));
            let at = format!("{name} x{threads} on {} under {}", bare.machine, mode.label());
            assert_eq!(bare.to_json().to_compact(), ctl.to_json().to_compact(), "{at}");
            assert_eq!(bare.elapsed_cycles, want_cycles, "{at}");
        }
    }
}
