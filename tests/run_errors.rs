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
/// `malloc` would serve it: past the largest size class, an array length
/// is the error `malloc` gives, raised before a host buffer of that size
/// is built. Without that order the first two rows abort the process
/// allocating one, and the third builds a 16 MB element list before it
/// fails.
#[test]
fn a_program_sized_allocation_past_malloc_is_a_run_error() {
    let run = |source: &str| run_broken(source, |_| {});
    for (source, words) in [
        ("a = Array.new(100000000000, 0)\nputs(a.length)", 100_000_000_000u64),
        ("a = Array.build(100000000000) { |i| i }\nputs(a.length)", 100_000_000_000),
        ("a = Array.new(1000000, 0)\nputs(a.length)", 1_000_000),
    ] {
        let msg = vm_error(run(source)).unwrap_or_else(|| panic!("{source}: no vm error"));
        let want = format!("allocation of {words} words too large");
        assert!(msg.contains(&want), "{source}: {msg}");
    }
    let empty = "n = 0 - 3\nputs(Array.new(0, 1).length)\nputs(Array.new(n, 1).length)";
    assert_eq!(run(empty).expect("runs").stdout, "0\n0");
}

/// `i64::MIN`, −1, 0, 1, `i64::MAX`, built as expressions: no literal
/// spells the minimum.
const EDGE_VALUES: &str =
    "v = [-9223372036854775807 - 1, 0 - 1, 1 - 1, 0 + 1, 9223372036854775806 + 1]";

/// Every integer operator the compiler emits, over every pair of edge
/// values, one program an operator:
/// each ends `Ok` — or, dividing by zero, in the VM's error — under the
/// GIL and under HTM-1 alike, and never takes the process down. An
/// integer wraps on overflow, the one quotient an `i64` cannot hold
/// included.
#[test]
fn every_integer_operator_over_edge_values_ends_ok_or_in_a_vm_error() {
    let binary = ["+", "-", "*", "/", "%", "<<", "==", "!=", "<", "<=", ">", ">="];
    let programs = binary.map(|op| {
        let divides = matches!(op, "/" | "%");
        // A zero divisor prints `-`; the program then ends dividing by it.
        let (guard, tail) = if divides {
            ("b == 0", format!("puts(v[0] {op} v[2])\n"))
        } else {
            ("false", "".into())
        };
        let body = format!(
            "i = 0\nwhile i < 5\n  j = 0\n  while j < 5\n    a = v[i]\n    b = v[j]\n    \
             if {guard}\n      puts(\"-\")\n    else\n      puts(a {op} b)\n    end\n    \
             j += 1\n  end\n  i += 1\nend\n{tail}"
        );
        (op, format!("{EDGE_VALUES}\n{body}"), divides)
    });
    let mut results = std::collections::HashMap::new();
    for (op, source, divides) in programs {
        let mut stdouts = Vec::new();
        for mode in [RuntimeMode::Gil, RuntimeMode::Htm { length: LengthPolicy::Fixed(1) }] {
            let profile = MachineProfile::generic(2);
            let cfg = ExecConfig::new(mode, &profile);
            let mut ex = Executor::new(&source, VmConfig::default(), profile, cfg).expect("boot");
            ex.cfg.max_cycles = 10_000_000; // hang guard
            match ex.run() {
                Ok(r) if !divides => stdouts.push(r.stdout),
                Err(RunError::Vm(msg)) if divides && msg.contains("divided by 0") => {
                    stdouts.push(ex.vm.stdout_text());
                }
                other => panic!("{op} under {}: {other:?}", mode.label()),
            }
        }
        assert_eq!(stdouts[0], stdouts[1], "{op}: the GIL and HTM-1 print the same");
        let lines: Vec<String> = stdouts[0].lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 25, "{op}");
        results.insert(op, lines);
    }
    // Row `i`, column `j` of a binary sweep is `v[i] op v[j]`.
    let (min, minus_one) = (0, 1);
    assert_eq!(results["/"][5 * min + minus_one], i64::MIN.to_string());
    assert_eq!(results["%"][5 * min + minus_one], "0");
    assert_eq!(results["+"][5 * 4 + 3], i64::MIN.to_string(), "MAX + 1 wraps");
    // A shift takes its whole count: a negative one turns it around, one
    // of 64 or more shifts every bit out.
    let (one, max) = (3, 4);
    assert_eq!(results["<<"][5 * one + minus_one], "0", "1 << -1");
    assert_eq!(results["<<"][5 * one + min], "0", "1 << MIN");
    assert_eq!(results["<<"][5 * one + max], "0", "1 << MAX");
    assert_eq!(results["<<"][5 * minus_one + min], "-1", "-1 << MIN");
}

/// Each form the front end no longer compiles — syntax no figure,
/// workload or example builds, nesting past the parser's bound — is
/// refused with its line, never read as something else; and so is each
/// deleted regexp feature, at run time. Nesting at the bound compiles and
/// runs on a test thread's stack, in a debug build too.
#[test]
fn a_form_outside_the_subset_is_an_error_with_its_line() {
    let profile = MachineProfile::generic(2);
    let boot = |source: &str| {
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        Executor::new(source, VmConfig::default(), profile.clone(), cfg)
    };
    let long_array = format!("[{}]", "0, ".repeat(65_536));
    let long_call = format!("puts({})", "0, ".repeat(65_536));
    let [parens, blocks, chain] = nested(1);
    for form in [
        "a ? 1 : 2",
        ":s",
        "{1 => 2}",
        "@@x = 1",
        "x ||= 1",
        "break",
        "2 ** 3",
        "1 <=> 2",
        "1 >> 1",
        "1 & 1",
        "~1",
        "-x",
        "a[0] += 1",
        "a.each { |y| return y }",
        &long_array,
        &long_call,
        &parens,
        &blocks,
        &chain,
    ] {
        match boot(&format!("a = [1]\nx = 1\n{form}\n")) {
            Err(RunError::Boot(m)) => assert!(m.contains("at line 3"), "{form:.40}: {m}"),
            Err(other) => panic!("{form:.40}: expected a boot error, got {other}"),
            Ok(_) => panic!("{form:.40} must not compile"),
        }
    }
    let [parens, blocks, chain] = nested(0);
    for (form, want) in [(parens, "1"), (blocks, "2"), (chain, "21")] {
        let mut ex = boot(&format!("a = [1]\nx = 1\n{form}\nputs(x) if x > 1\n"))
            .unwrap_or_else(|e| panic!("{form:.40}: {e}"));
        assert_eq!(ex.run().expect("runs").stdout, want, "{form:.40}");
    }
    for pattern in ["a|b", "[^a]", "\\\\d"] {
        let mut ex = boot(&format!("r = Regexp.new(\"{pattern}\")\nputs(r.match(\"a\").nil?)"))
            .expect("boot");
        let msg = vm_error(ex.run()).unwrap_or_else(|| panic!("/{pattern}/ must not compile"));
        assert!(msg.contains("regex error"), "/{pattern}/: {msg}");
    }
}

/// Forms nested `MAX_DEPTH` levels deep on line 3, plus `over` levels:
/// parentheses, `1.times do` blocks (two levels each: the call's link and
/// its body) and a `+` chain.
fn nested(over: usize) -> [String; 3] {
    let levels = htm_gil::lang::parser::MAX_DEPTH - 2 + over; // statement and argument
    let (open, close) = ("(".repeat(levels), ")".repeat(levels));
    let blocks = levels.div_ceil(2);
    [
        format!("puts({open}1{close})"),
        format!("{}x += 1{}", "1.times do ".repeat(blocks), " end".repeat(blocks)),
        format!("puts({})", vec!["1"; levels + 1].join(" + ")),
    ]
}

/// A call's argument count has no narrower limit than an array's: a
/// 256-parameter method gets its first and its last argument.
#[test]
fn a_call_with_256_arguments_passes_every_one() {
    let profile = MachineProfile::generic(2);
    for n in [255, 256] {
        let params: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        let args: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let source = format!(
            "def g({})\n  p{} + p0\nend\nputs(g({}))",
            params.join(", "),
            n - 1,
            args.join(", ")
        );
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        let mut ex =
            Executor::new(&source, VmConfig::default(), profile.clone(), cfg).expect("boot");
        assert_eq!(ex.run().expect("runs").stdout, (n - 1).to_string());
    }
}

/// A method named `?` takes a brace block like any other method.
#[test]
fn a_predicate_call_takes_a_brace_block() {
    let profile = MachineProfile::generic(2);
    let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
    let src = "puts([1, 2].any? { |x| x > 1 })\nputs([1, 2].all? { |x| x > 1 })";
    let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).expect("boot");
    assert_eq!(ex.run().expect("runs").stdout, "true\nfalse");
}

/// A send no method answers names its receiver as `inspect` shows it, so
/// `nil` reads "nil" — also where the operator's selector was never
/// interned (`nil[0]`), under the GIL and HTM alike.
#[test]
fn an_undefined_method_names_its_receiver() {
    for mode in [RuntimeMode::Gil, RuntimeMode::Htm { length: LengthPolicy::Dynamic }] {
        for (source, want) in [
            ("x = nil\nx.foo", "undefined method `foo' for nil"),
            ("x = nil\nputs(x[0])", "undefined method `[]' for nil"),
            ("puts(\"ab\".zz)", "undefined method `zz' for \"ab\""),
        ] {
            let profile = MachineProfile::generic(2);
            let cfg = ExecConfig::new(mode, &profile);
            let mut ex = Executor::new(source, VmConfig::default(), profile, cfg).expect("boot");
            ex.cfg.max_cycles = 10_000_000; // hang guard
            let msg = vm_error(ex.run()).unwrap_or_else(|| panic!("{source}: a vm error"));
            assert!(msg.contains(want), "{source} under {}: {msg}", mode.label());
        }
    }
}

/// NaN and the infinities have no integer part: `round` ends the run in
/// Ruby's `FloatDomainError` under the GIL and HTM-1 alike, and a finite
/// float converts as it always did.
#[test]
fn a_float_with_no_integer_part_is_a_float_domain_error() {
    for mode in [RuntimeMode::Gil, RuntimeMode::Htm { length: LengthPolicy::Fixed(1) }] {
        let run = |source: &str| {
            let profile = MachineProfile::generic(2);
            let cfg = ExecConfig::new(mode, &profile);
            let mut ex = Executor::new(source, VmConfig::default(), profile, cfg).expect("boot");
            ex.cfg.max_cycles = 10_000_000; // hang guard
            ex.run()
        };
        for (expr, want) in [
            ("(0.0 / 0.0).round", "FloatDomainError: NaN"),
            ("(1.0 / 0).round", "FloatDomainError: Infinity"),
            ("(-1.0 / 0).round", "FloatDomainError: -Infinity"),
        ] {
            let what = format!("{expr} under {}", mode.label());
            let msg = vm_error(run(&format!("puts({expr})"))).unwrap_or_else(|| panic!("{what}"));
            assert!(msg.contains(want), "{what}: {msg}");
        }
        let finite = run("puts(2.5.round)\nputs(-2.5.round)\nputs(1e18.round)").expect("runs");
        assert_eq!(finite.stdout, "3\n-3\n1000000000000000000", "under {}", mode.label());
    }
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
