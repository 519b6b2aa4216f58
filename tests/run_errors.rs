//! A plain access the executor makes on its own behalf — publishing a
//! finished thread's state, installing the yield counter of a GIL tenure —
//! cannot abort while the memory invariants hold. When they do not, the
//! run ends in a `RunError::Vm` carrying the thread dump, not in an unwind
//! (ROADMAP "total robustness").
//!
//! The invariant is broken from outside: `Executor::vm` is public, so a
//! test can open a transaction the executor knows nothing about and give
//! it a write budget that bursts at exactly the access under test — or
//! overwrite an object header, or swap a builtin for one that fails
//! without saying why.

use htm_gil::core::RunError;
use htm_gil::htm::Budgets;
use htm_gil::vm::{ObjHeader, VmAbort, Word};
use htm_gil::{ExecConfig, Executor, LengthPolicy, MachineProfile, RuntimeMode, VmConfig};

/// Boot `source`, run it until thread `t` exists (a cycle limit stops a
/// run between two scheduler steps, and `run` picks up where it stopped),
/// open a phantom transaction on `t` with room for `write_lines` lines,
/// and run on.
fn run_with_phantom_tx(
    source: &str,
    mode: RuntimeMode,
    t: usize,
    write_lines: usize,
) -> Result<htm_gil::RunReport, RunError> {
    let profile = MachineProfile::generic(4);
    let cfg = ExecConfig::new(mode, &profile);
    let mut ex = Executor::new(source, VmConfig::default(), profile, cfg).expect("boot");
    while ex.vm.threads.len() <= t {
        ex.cfg.max_cycles += 20;
        let stopped = ex.run();
        assert!(matches!(stopped, Err(RunError::CycleLimit { .. })), "{stopped:?}");
    }
    ex.cfg.max_cycles = 10_000_000; // hang guard
    ex.vm.mem.begin(t, Budgets { read_lines: 1 << 20, write_lines }).expect("phantom begin");
    ex.run()
}

fn vm_error(outcome: Result<htm_gil::RunReport, RunError>) -> Option<String> {
    match outcome {
        Err(RunError::Vm(msg)) => Some(msg),
        _ => None,
    }
}

/// Under `Ideal` (no GIL traffic) a spawned thread that computes on its
/// stack writes one line; the executor publishes its completion on a
/// second. A budget of none bursts inside a bytecode, a budget of one at
/// the completion write — and both come back as errors.
#[test]
fn a_finishing_thread_whose_state_write_aborts_is_a_run_error() {
    let source = "t = Thread.new { 1 + 1 }\nt.join\nputs(3)";
    let in_step =
        vm_error(run_with_phantom_tx(source, RuntimeMode::Ideal, 1, 0)).expect("vm error");
    assert!(in_step.contains("transaction abort without transactions"), "{in_step}");
    let at_finish =
        vm_error(run_with_phantom_tx(source, RuntimeMode::Ideal, 1, 1)).expect("vm error");
    assert!(
        at_finish.contains("finished thread's state write aborted outside any transaction"),
        "{at_finish}"
    );
    assert!(at_finish.contains("WriteOverflow"), "{at_finish}");
    assert!(at_finish.contains("\n  t1: "), "the dump names every thread: {at_finish}");
}

/// A single-threaded HTM run takes the GIL at once (Fig. 1 line 2): the
/// lock word fills a one-line budget, the counter install bursts it.
#[test]
fn a_gil_tenure_whose_counter_install_aborts_is_a_run_error() {
    let mode = RuntimeMode::Htm { length: LengthPolicy::Dynamic };
    let msg = vm_error(run_with_phantom_tx("puts(1)", mode, 0, 1)).expect("a vm error");
    assert!(msg.contains("yield counter install under the GIL aborted"), "{msg}");
    assert!(msg.contains("WriteOverflow"), "{msg}");
    assert!(msg.contains("\n  t0: "), "the dump names every thread: {msg}");
}

/// The GIL word is written like any other plain word: with no room for
/// its line the acquisition bursts the phantom budget, under the GIL
/// runtime and under HTM's single-thread fast path alike.
#[test]
fn a_gil_acquisition_whose_lock_word_write_aborts_is_a_run_error() {
    for mode in [RuntimeMode::Gil, RuntimeMode::Htm { length: LengthPolicy::Dynamic }] {
        let msg = vm_error(run_with_phantom_tx("puts(1)", mode, 0, 0)).expect("a vm error");
        assert!(msg.contains("GIL word write aborted outside any transaction"), "{msg}");
        assert!(msg.contains("WriteOverflow"), "{msg}");
        assert!(msg.contains("\n  t0: "), "the dump names every thread: {msg}");
    }
}

/// The dump's `gil=` column is the GIL's own record of its holder, under
/// every runtime that takes it: a GIL-mode run stopped between two steps
/// shows the thread the last line names as holder with `gil=true`.
#[test]
fn a_gil_mode_dump_marks_the_holder() {
    let profile = MachineProfile::generic(2);
    let mut cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
    cfg.max_cycles = 2_000;
    let source = "x = 0\nwhile x < 100000\n  x += 1\nend";
    let mut ex = Executor::new(source, VmConfig::default(), profile, cfg).expect("boot");
    let Err(RunError::CycleLimit { dump, .. }) = ex.run() else { panic!("no cycle limit") };
    assert!(dump.contains("gil holder=Some(0)"), "{dump}");
    let t0 = dump.lines().find(|l| l.starts_with("  t0: ")).expect("t0's line");
    assert!(t0.contains(" gil=true "), "{dump}");
}

/// `n` assignments `{prefix}0 = 0` … and a `puts` of how many ran.
fn assignments(prefix: &str, n: usize) -> String {
    let lines: String = (0..n).map(|i| format!("{prefix}{i} = {i}\n")).collect();
    format!("{lines}puts({n})")
}

/// The global and constant tables are fixed-size lines of the layout. A
/// program that fills the globals table runs; one name more, or more
/// constants than the table has slots, is a fatal error naming the limit —
/// any program the parser accepts ends in `Ok` or a `RunError`.
#[test]
fn a_program_that_overfills_a_name_table_is_a_run_error() {
    let run = |source: &str| run_broken(source, |_| {});
    let cap = htm_gil::vm::layout::GVAR_CAP;
    assert_eq!(run(&assignments("$g", cap)).expect("a full table runs").stdout, cap.to_string());
    let msg = vm_error(run(&assignments("$g", cap + 1))).expect("a vm error");
    assert!(msg.contains(&format!("too many global variables (limit {cap})")), "{msg}");
    let cap = htm_gil::vm::layout::CONST_CAP;
    let msg = vm_error(run(&assignments("K", cap + 1))).expect("a vm error");
    assert!(msg.contains(&format!("too many constants (limit {cap})")), "{msg}");
}

/// A size the program computes reaches the host only once the simulated
/// `malloc` would serve it: past the largest size class, a `String#*`
/// count or an array length is the error `malloc` gives, raised before a
/// host buffer of that size is built. Without that order the first three
/// rows abort the process allocating one, and the fourth builds 8 MB of
/// text before it fails.
#[test]
fn a_program_sized_allocation_past_malloc_is_a_run_error() {
    let run = |source: &str| run_broken(source, |_| {});
    for (source, words) in [
        ("s = \"ab\" * 100000000000\nputs(s.size)", 25_000_000_000u64),
        ("a = Array.new(100000000000, 0)\nputs(a.size)", 100_000_000_000),
        ("a = Array.build(100000000000) { |i| i }\nputs(a.size)", 100_000_000_000),
        ("s = \"ab\" * 4000000\nputs(s.size)", 1_000_000),
    ] {
        let msg = vm_error(run(source)).unwrap_or_else(|| panic!("{source}: no vm error"));
        let want = format!("allocation of {words} words too large");
        assert!(msg.contains(&want), "{source}: {msg}");
    }
    let empty = "n = 0 - 3\nputs((\"ab\" * 0).size)\nputs((\"ab\" * n).size)";
    assert_eq!(run(empty).expect("runs").stdout, "0\n0");
}

/// Boot `source` under the GIL, break the image from outside, run.
fn run_broken(
    source: &str,
    break_it: impl FnOnce(&mut Executor),
) -> Result<htm_gil::RunReport, RunError> {
    let profile = MachineProfile::generic(2);
    let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
    let mut ex = Executor::new(source, VmConfig::default(), profile, cfg).expect("boot");
    ex.cfg.max_cycles = 10_000_000; // hang guard
    break_it(&mut ex);
    ex.run()
}

/// A header whose kind byte names no `ObjKind` — a stray store over the
/// receiver of the program's first send — is reported by the lookup that
/// reads it, not indexed with.
#[test]
fn a_header_that_names_no_kind_is_a_run_error() {
    let mut main = 0;
    let msg = vm_error(run_broken("puts(1)", |ex| {
        main = ex.vm.classes.main_obj;
        ex.vm.mem.poke(main, Word::Hdr(ObjHeader::from_bits(0x1ff)));
    }))
    .expect("a vm error");
    let want = format!("corrupt object header at {main}: ObjHeader {{ kind: 255, marked: true }}");
    assert!(msg.contains(&want), "{msg}");
}

/// A step that fails without parking why (here a builtin swapped for one
/// that just returns the zero-sized `Err`) leaves the executor nothing to
/// take: it says so, with the dump, instead of unwrapping.
#[test]
fn a_failed_step_that_parked_no_stop_is_a_run_error() {
    let msg = vm_error(run_broken("puts(1)", |ex| {
        ex.vm.builtins[0] = |_, _, _, _, _| Err(VmAbort); // `puts`
    }))
    .expect("a vm error");
    assert!(msg.contains("a step failed and parked no stop"), "{msg}");
    assert!(msg.contains("\n  t0: "), "the dump names every thread: {msg}");
}

/// A source that does not compile is an error the caller gets back, the
/// same one every time: the compile memo keeps programs, not failures, and
/// a failure leaves it as it was — the text compiles once it is fixed,
/// and a text compiled before still boots to the program it shared.
#[test]
fn a_source_that_does_not_compile_is_the_same_boot_error_twice() {
    let profile = MachineProfile::generic(2);
    let boot = |source: &str| {
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        Executor::new(source, VmConfig::default(), profile.clone(), cfg)
    };
    let good = "x = 41 + 1\nputs(x)\n";
    let before = boot(good).expect("boot");
    let bad = "x = 41 +\nputs(x\n";
    let message = |outcome: Result<Executor, RunError>| match outcome {
        Err(RunError::Boot(m)) => m,
        Err(other) => panic!("expected a boot error, got {other}"),
        Ok(_) => panic!("{bad:?} must not compile"),
    };
    let first = message(boot(bad));
    assert!(first.contains("parse error at line"), "the error says where: {first}");
    assert_eq!(message(boot(bad)), first, "told again, not remembered");
    let mut after = boot(good).expect("a failed compile poisons nothing");
    assert!(std::sync::Arc::ptr_eq(&before.vm.program, &after.vm.program));
    assert_eq!(after.run().expect("run").stdout, "42");
}
