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
//! The later tests do the same for the executor's bursts and for its
//! leased lookahead (threads in a transaction running frame-local
//! bytecodes past the lock-step horizon, rewound where an event lands in
//! their past). An empty-path exploration controller, like a trace sink,
//! holds the executor to one bytecode per scheduler round, with no
//! lookahead, while changing no decision, so a run under either *is* the
//! single-step reference for the same run without: everything the two
//! leave behind must be equal. (The same comparison on oversubscribed
//! machines, whose cycles are pinned, lives with the other pinned cycles
//! in `tests/sim_counters.rs`.)

#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod recipe;

use htm_gil_core::{
    heap_digest, ExecConfig, Executor, LengthPolicy, RunReport, RuntimeMode, SubscriptionPolicy,
};
use htm_sim::FaultPlan;
use machine_sim::{ExploreCtl, MachineProfile, SchedPath};
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

/// Everything a run leaves behind: the report (less its two trace
/// counters) or the error (less the controller's decision trail), every
/// thread's clock, the heap.
fn outcome(source: &str, vm: VmConfig, profile: MachineProfile, cfg: ExecConfig) -> [String; 3] {
    let mut ex = Executor::new(source, vm, profile, cfg).expect("boot");
    let text = match ex.run() {
        Ok(mut r) => {
            (r.trace_events_recorded, r.trace_events_dropped) = (0, 0);
            r.to_json().to_compact()
        }
        Err(e) => {
            let text = e.to_string();
            text.lines()
                .filter(|l| !l.contains("sched decisions (tail)"))
                .collect::<Vec<_>>()
                .join("\n")
        }
    };
    let clocks: Vec<u64> = (0..ex.sched.len()).map(|t| ex.sched.clock(t)).collect();
    [text, format!("{clocks:?}"), heap_digest(&ex.vm)]
}

/// `cfg` as given (bursting) against the same run held to single steps,
/// once by an empty-path controller and once by a trace sink.
fn assert_bursts_match_single_steps(
    at: &str,
    input: &recipe::Input,
    cfg: &ExecConfig,
) -> [String; 3] {
    assert_bursts_match_single_steps_on(at, input, input.vm_config(1), cfg)
}

fn assert_bursts_match_single_steps_on(
    at: &str,
    input: &recipe::Input,
    vm: VmConfig,
    cfg: &ExecConfig,
) -> [String; 3] {
    let run = |cfg: ExecConfig| outcome(&input.source, vm.clone(), input.profile.clone(), cfg);
    let burst = run(cfg.clone());
    let empty_path = ExploreCtl::new(SchedPath::empty(), false);
    let ctl = run(ExecConfig { explore: Some(empty_path), ..cfg.clone() });
    let traced = run(ExecConfig { trace_capacity: 64, ..cfg.clone() });
    assert_eq!(burst, ctl, "{at}: bursts vs an empty-path controller");
    assert_eq!(burst, traced, "{at}: bursts vs a trace sink");
    burst
}

/// The inputs of the six benchmark workloads at their `tiny` sizes (the
/// CG program once; all eight of the Fig. 4 grid's).
fn benchmark_inputs() -> Vec<recipe::Input> {
    let mut inputs: Vec<recipe::Input> = Vec::new();
    for name in recipe::NAMES {
        for input in recipe::build(name, true).expect("a benchmark workload").inputs {
            if inputs.iter().all(|i| i.label != input.label) {
                inputs.push(input);
            }
        }
    }
    inputs
}

const MODES: [RuntimeMode; 4] = [
    RuntimeMode::Gil,
    RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
    RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
    RuntimeMode::Htm { length: LengthPolicy::Dynamic },
];

#[test]
fn bursts_match_single_steps_on_the_benchmark_programs() {
    for input in benchmark_inputs() {
        for mode in MODES {
            for fault_plan in [None, Some(FaultPlan::spurious(0xB0257, 0.25))] {
                let cfg = ExecConfig { fault_plan, ..input.exec_config(mode, 1) };
                let at = format!("{} under {} with {fault_plan:?}", input.label, mode.label());
                let [text, ..] = assert_bursts_match_single_steps(&at, &input, &cfg);
                assert!(text.starts_with('{'), "{at}: {text}");
            }
        }
    }
}

/// The run loop's own events bound a burst: the cycle limit must cut the
/// run off at the same bytecode, a §5.6 interrupt kill the same
/// transaction, and a livelock be called after the same number of steps.
#[test]
fn bursts_stop_at_the_cycle_limit_the_interrupt_and_the_progress_bound() {
    let cg = &recipe::build("cg_htm", true).expect("a benchmark workload").inputs[0];
    for mode in MODES {
        let at = format!("{} under {}", cg.label, mode.label());
        let cut = ExecConfig { max_cycles: 700_001, ..cg.exec_config(mode, 1) };
        let [text, ..] = assert_bursts_match_single_steps(&format!("{at}, cut off"), cg, &cut);
        assert!(text.starts_with("cycle limit 700001 exceeded"), "{at}: {text}");
        let irq = ExecConfig { interrupt_interval: 3_001, ..cg.exec_config(mode, 1) };
        let [text, ..] = assert_bursts_match_single_steps(&format!("{at}, interrupted"), cg, &irq);
        assert!(text.starts_with('{'), "{at}: {text}");
    }
    // One worker whose transactions are too long to survive a 1 % fault
    // rate, retried without end: once the main thread waits in `join`,
    // nothing commits. Under the original yield points a burst is one
    // loop iteration; neighbouring bounds fall in the middle of one.
    let stuck = recipe::Input {
        label: "a livelock".into(),
        source:
            "t = Thread.new() do\n  i = 0\n  while i < 100000\n    i += 1\n  end\nend\nt.join()"
                .into(),
        threads: 1,
        profile: MachineProfile::zec12(),
        expected_stdout: None,
    };
    let mut cfg = stuck.exec_config(RuntimeMode::Htm { length: LengthPolicy::Fixed(256) }, 1);
    cfg.yield_policy = Some(htm_gil_core::YieldPolicy::Original);
    cfg.fault_plan = Some(FaultPlan::spurious(7, 0.01));
    cfg.tle.transient_retry_max = u32::MAX;
    for bound in 1_000..1_008 {
        cfg.progress_bound_steps = bound;
        let [text, ..] = assert_bursts_match_single_steps(&stuck.label, &stuck, &cfg);
        let head = format!("no committed instruction in {bound} scheduler steps");
        assert!(text.starts_with(&head), "{text}");
    }
}

/// `Executor::host_counters` of one run: `[4]` steps run ahead, `[5]`
/// rewinds of them.
fn host_counters(input: &recipe::Input, vm: VmConfig, cfg: ExecConfig) -> [u64; 6] {
    let mut ex = Executor::new(&input.source, vm, input.profile.clone(), cfg).expect("boot");
    let _ = ex.run();
    ex.host_counters()
}

fn program(label: &str, source: &str, threads: usize, profile: MachineProfile) -> recipe::Input {
    let source = source.to_string();
    recipe::Input { label: label.into(), source, threads, profile, expected_stdout: None }
}

/// Worker 0 writes a global every pass that every worker read at the top
/// of its pass and then spins on locals: each write dooms the readers,
/// most of them while they run ahead.
const GLOBAL_WRITER_SRC: &str = r#"
$flag = 0
threads = []
4.times do |w|
  threads << Thread.new(w) do |id|
    total = 0
    k = 0
    while k < 30
      seen = $flag
      j = 0
      while j < 40
        total += j
        j += 1
      end
      if id == 0
        $flag = k
      end
      total += seen
      k += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts($flag)
"#;

/// Worker 0 prints — restricted, so a persistent abort and a forcible GIL
/// acquisition — between passes that every worker spends on locals.
const GIL_TAKER_SRC: &str = r#"
threads = []
4.times do |w|
  threads << Thread.new(w) do |id|
    total = 0
    k = 0
    while k < 12
      j = 0
      while j < 60
        total += j
        j += 1
      end
      if id == 0
        print("")
      end
      k += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts("done")
"#;

/// The main thread does not join, and takes no GIL on its way out (a
/// `puts` would, dooming the worker first): it finishes inside a
/// transaction while the worker, the last live thread from then on, spins
/// on locals.
const LAST_ONE_SRC: &str = r#"
t = Thread.new() do
  s = 0
  i = 0
  while i < 3000
    s += i
    i += 1
  end
  $worker = s
end
x = 0
i = 0
while i < 400
  x += i
  i += 1
end
$main = x
"#;

const EAGER_AND_GUARDED: [SubscriptionPolicy; 2] =
    [SubscriptionPolicy::Eager, SubscriptionPolicy::LazyGuarded];

const HTM_MODES: [RuntimeMode; 2] = [
    RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
    RuntimeMode::Htm { length: LengthPolicy::Dynamic },
];

/// Each program cuts lookahead windows the way its name says — a doom, a
/// GIL acquisition, the last other live thread finishing — and each run
/// with them must leave what the single-step run leaves, on zEC12 (256-byte
/// lines) and on the Xeon (64-byte lines, SMT-halved budgets).
#[test]
fn lookahead_rewinds_match_single_steps() {
    let programs = [
        ("a global writer dooming readers ahead", GLOBAL_WRITER_SRC, 4),
        ("a GIL acquisition while others are ahead", GIL_TAKER_SRC, 4),
        ("the second-to-last thread finishing", LAST_ONE_SRC, 1),
    ];
    for profile in [MachineProfile::zec12(), MachineProfile::xeon_e3_1275_v3()] {
        for (label, source, threads) in programs {
            let input = program(label, source, threads, profile.clone());
            let (mut ahead, mut rewinds) = (0, 0);
            for mode in HTM_MODES {
                for subscription in EAGER_AND_GUARDED {
                    let cfg = ExecConfig { subscription, ..input.exec_config(mode, 1) };
                    let at = format!(
                        "{label} on {} under {} {subscription:?}",
                        profile.name,
                        mode.label()
                    );
                    let [text, ..] = assert_bursts_match_single_steps(&at, &input, &cfg);
                    assert!(text.starts_with('{'), "{at}: {text}");
                    let host = host_counters(&input, input.vm_config(1), cfg);
                    (ahead, rewinds) = (ahead + host[4], rewinds + host[5]);
                }
            }
            assert!(
                ahead > 0 && rewinds > 0,
                "{label} on {}: ahead {ahead}, rewinds {rewinds}",
                profile.name
            );
        }
    }
}

/// The original CRuby's packed thread structs put every thread's Fig. 2
/// counter on shared lines: a countdown run ahead is a write to a line
/// other threads write through the full path.
#[test]
fn lookahead_on_shared_countdown_lines_matches_single_steps() {
    let w = workloads::micro::while_bench(4, 300);
    for profile in [MachineProfile::zec12(), MachineProfile::xeon_e3_1275_v3()] {
        let input = program("While on packed thread structs", &w.source, w.threads, profile);
        let vm = input.vm_config(1).original_cruby();
        for mode in HTM_MODES {
            let cfg = input.exec_config(mode, 1);
            let at = format!("{} on {} under {}", input.label, input.profile.name, mode.label());
            let [text, ..] = assert_bursts_match_single_steps_on(&at, &input, vm.clone(), &cfg);
            assert!(text.starts_with('{'), "{at}: {text}");
            assert!(host_counters(&input, vm.clone(), cfg)[4] > 0, "{at}: nothing ran ahead");
        }
    }
}

/// A transaction too long for the progress bound, with no fault plan, so
/// its steps run ahead: the bound must still be called after the very
/// step the single-step run calls it after, every clock where it stood.
#[test]
fn lookahead_stops_at_the_progress_bound_where_single_steps_do() {
    let source =
        "t = Thread.new() do\n  i = 0\n  while i < 100000\n    i += 1\n  end\nend\nt.join()";
    let input = program("one long transaction", source, 1, MachineProfile::zec12());
    let mut cfg = input.exec_config(RuntimeMode::Htm { length: LengthPolicy::Fixed(256) }, 1);
    cfg.yield_policy = Some(htm_gil_core::YieldPolicy::Original);
    for bound in (1_000..1_008).chain([1_130, 1_500]) {
        cfg.progress_bound_steps = bound;
        let [text, ..] = assert_bursts_match_single_steps(&input.label, &input, &cfg);
        let head = format!("no committed instruction in {bound} scheduler steps");
        assert!(text.starts_with(&head), "{text}");
        assert!(host_counters(&input, input.vm_config(1), cfg.clone())[4] > 0, "nothing ran ahead");
    }
}
