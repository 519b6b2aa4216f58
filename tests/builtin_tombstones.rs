//! A builtin that nothing but its own tests called has lost its function
//! but kept its method-table row, as a tombstone (`MethodEntry::ABSENT`).
//! Boot's method tables are simulated memory, so the row stays where the
//! simulated clock expects it; lookup stops at it, so to a program the
//! name is as undefined as a name never defined, and as free to define.

use htm_gil::core::RunError;
use htm_gil::{ExecConfig, Executor, LengthPolicy, MachineProfile, RuntimeMode, VmConfig};

const MODES: [RuntimeMode; 2] =
    [RuntimeMode::Gil, RuntimeMode::Htm { length: LengthPolicy::Dynamic }];

fn run(source: &str, mode: RuntimeMode) -> (Result<htm_gil::RunReport, RunError>, Executor) {
    let profile = MachineProfile::generic(2);
    let cfg = ExecConfig::new(mode, &profile);
    let mut ex = Executor::new(source, VmConfig::default(), profile, cfg).expect("boot");
    ex.cfg.max_cycles = 10_000_000; // hang guard
    (ex.run(), ex)
}

/// A call to a deleted name — a static method, an instance method, a
/// Kernel function — ends in the very error a call to a name never
/// defined ends in, under the GIL and HTM alike — also where a
/// superclass still defines the name: a deleted method does not hand its
/// calls to another one.
#[test]
fn a_deleted_builtin_is_as_undefined_as_a_name_never_defined() {
    for mode in MODES {
        for (source, name, receiver) in [
            ("puts(Math.sqrt(2))", "sqrt", "Math"),
            ("a = [1]\na.push(2)", "push", "[1]"),
            ("puts(rand(10))", "rand", "#<Object:"),
            // `String#to_s` is a tombstone over the live `Object#to_s`.
            ("puts(\"ab\".to_s)", "to_s", "\"ab\""),
        ] {
            let error = |source: &str| match run(source, mode).0 {
                Err(e @ RunError::Vm(_)) => e.to_string(),
                other => panic!("{source} under {}: {other:?}", mode.label()),
            };
            let gone = error(source);
            let want = format!("vm error: vm error: undefined method `{name}' for {receiver}");
            assert!(gone.starts_with(&want), "{gone}");
            let never = error(&source.replace(name, "zz_never_defined"));
            assert_eq!(gone.replace(name, "zz_never_defined"), never, "{}", mode.label());
        }
    }
}

/// `def rand` over the tombstone defines and calls like any method, and
/// — the row being there — replaces a method: the method-table version
/// moves by one more than for a name never defined, as it did when the
/// row held a live builtin.
#[test]
fn a_def_over_a_tombstone_defines_and_replaces() {
    let source = |name: &str| format!("def {name}(n)\n  n * 2\nend\nputs({name}(21))");
    for mode in MODES {
        let (over, over_ex) = run(&source("rand"), mode);
        let (fresh, fresh_ex) = run(&source("zz_never_defined"), mode);
        assert_eq!(over.expect("def rand runs").stdout, "42", "{}", mode.label());
        assert_eq!(fresh.expect("a fresh def runs").stdout, "42", "{}", mode.label());
        let versions = (over_ex.vm.method_version, fresh_ex.vm.method_version);
        assert_eq!(versions, (1, 0), "{}", mode.label());
    }
}

/// Boot registers one function for each builtin a workload, a figure or
/// an example calls — 33 — for `Class#new`, the one way to make an
/// instance of a user class, and for the two the prelude is written on:
/// `Hash#keys` (`Hash#each`, `Hash#each_key`) and `String#dup`
/// (`String#+`). Every other name is a tombstone.
#[test]
fn boot_installs_one_function_per_live_builtin() {
    let (_, ex) = run("nil", RuntimeMode::Gil);
    assert_eq!(ex.vm.builtins.len(), 36);
}
