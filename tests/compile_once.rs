//! A program is compiled once per process (`ruby_vm::Program::compiled`):
//! every VM booted from one source text shares one read-only `Program`.
//! These tests hold the three things that sharing could break. **Cold ≡
//! warm**: the boot that compiled a text and a boot that found it compiled
//! leave the same report, the same heap and the same counters — every
//! per-point key of `tests/golden/sim_counters.json` — on the six benchmark
//! workloads, under `figures`' worker pool at 1 and 4 jobs. **Shared but not
//! leaking**: boot's names are interned once per program, with the ids a
//! private table gives, and what one VM interns at run time stays in it.
//! **Bounded**: the memo holds `MEMO_CAPACITY` texts and recompiles one it
//! let go of.
//!
//! The memo is process-wide and so is what these tests assert about it:
//! they take turns (`serial`), and every text carries a comment naming
//! the test that boots it, so none finds another's entry.

#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod recipe;

#[path = "common/point_counters.rs"]
mod point_counters;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use htm_gil::core::heap_digest;
use htm_gil::vm::program::MEMO_CAPACITY;
use htm_gil::vm::{Program, Vm};
use htm_gil::{ExecConfig, Executor, MachineProfile, RuntimeMode, VmConfig};

const SEED: u64 = 1;

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one boot-and-run leaves behind that anyone can observe.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: String,
    heap: String,
    counters: Vec<(&'static str, u64)>,
}

fn run(mut ex: Executor, what: &str) -> (Outcome, Executor) {
    let report = ex.run().unwrap_or_else(|e| panic!("{what}: {e}"));
    let counters = point_counters::point_counters(&ex, &report);
    (Outcome { report: report.to_json().to_compact(), heap: heap_digest(&ex.vm), counters }, ex)
}

/// Each workload's points twice through a pool of `jobs`, every input's
/// text marked as this pass pair's own: in the first pass the first point
/// of an input compiles it, in the second every point finds it compiled.
fn cold_and_warm_agree(size: &str, tiny: bool, jobs: usize) {
    let _turn = serial();
    for name in recipe::NAMES {
        let w = recipe::build(name, tiny).expect("a benchmark workload");
        let pass = || {
            bench::runner::sweep(
                jobs,
                name,
                &w.points,
                |p| w.inputs[p.input].label.clone(),
                |p| {
                    let input = &w.inputs[p.input];
                    let source = format!("{}\n# {name} {size} at {jobs} jobs\n", input.source);
                    let ex = Executor::new(
                        &source,
                        input.vm_config(SEED),
                        input.profile.clone(),
                        input.exec_config(p.mode, SEED),
                    )
                    .unwrap_or_else(|e| panic!("{}: {e}", input.label));
                    let (outcome, ex) = run(ex, &input.label);
                    (outcome, Arc::clone(&ex.vm.program))
                },
            )
        };
        let (cold, warm) = (pass(), pass());
        let mut compiled: Vec<&Arc<Program>> = Vec::new();
        for (i, ((cold, program), (warm, again))) in cold.iter().zip(&warm).enumerate() {
            let label = &w.inputs[w.points[i].input].label;
            assert!(Arc::ptr_eq(program, again), "{name} #{i} ({label}): the second pass hit");
            assert_eq!(cold, warm, "{name} #{i} ({label}) at {jobs} jobs");
            if !compiled.iter().any(|seen| Arc::ptr_eq(seen, program)) {
                compiled.push(program);
            }
        }
        let mut texts: Vec<&str> = w.inputs.iter().map(|i| &*i.source).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(compiled.len(), texts.len(), "{name}: one program per text, on any machine");
    }
}

#[test]
fn tiny_workloads_run_alike_compiled_or_found() {
    cold_and_warm_agree("tiny", true, 1);
    cold_and_warm_agree("tiny", true, 4);
}

#[test]
#[ignore = "full benchmark sizes: run in --release (CI `benchmark` job)"]
fn full_workloads_run_alike_compiled_or_found() {
    cold_and_warm_agree("full", false, 1);
    cold_and_warm_agree("full", false, 4);
}

fn boot(source: &str) -> Executor {
    let profile = MachineProfile::generic(2);
    let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
    Executor::new(source, VmConfig::default(), profile, cfg).expect("boot")
}

/// The key is the whole text: the same text is the same `Program`, a text
/// of the same length another.
#[test]
fn one_text_is_one_program_and_an_equally_long_text_another() {
    let _turn = serial();
    let (six, seven) = ("puts(6) # one_text\n", "puts(7) # one_text\n");
    assert_eq!(six.len(), seven.len());
    let (a, b, c) = (boot(six), boot(six), boot(seven));
    assert!(Arc::ptr_eq(&a.vm.program, &b.vm.program), "one text, one program");
    assert!(!Arc::ptr_eq(&a.vm.program, &c.vm.program), "another text, another program");
    let stdout = |ex| run(ex, "run").1.vm.stdout_text();
    assert_eq!([stdout(a), stdout(b), stdout(c)], ["6", "6", "7"]);
}

/// Boot's names are frozen by the first VM of a program and shared by
/// every later one: the boot that fills the table and a boot that finds it
/// hold the same table, nothing is interned while they run, and boot adds
/// the same names in the same order under any config and on either machine.
#[test]
fn boot_names_are_frozen_by_the_first_vm_and_shared() {
    let _turn = serial();
    let configs = [
        ("default", VmConfig::default()),
        ("original_cruby", VmConfig::default().original_cruby()),
        ("thread_local_ics", VmConfig { thread_local_ics: true, ..VmConfig::default() }),
    ];
    let mut boot_names: Option<Vec<String>> = None;
    for profile in [MachineProfile::zec12(), MachineProfile::xeon_e3_1275_v3()] {
        for (label, config) in &configs {
            let what = format!("{label} on {}", profile.name);
            let source = format!("puts(1) # a_symbol, {what}\n");
            let boot = || {
                let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
                Executor::new(&source, config.clone(), profile.clone(), cfg).expect("boot")
            };
            let (outcome, first) = run(boot(), &what);
            let second = boot();
            let program = Arc::clone(&second.vm.program);
            assert!(Arc::ptr_eq(&first.vm.program, &program), "{what}: one program");
            let frozen = program.boot_symbols.get().expect("the first boot froze boot's names");
            assert!(Arc::ptr_eq(&first.vm.symbols, frozen), "{what}: the first VM's table");
            assert!(Arc::ptr_eq(&second.vm.symbols, frozen), "{what}: shared by the next VM");
            let names: Vec<String> = (program.symbols.len()..frozen.len())
                .map(|i| frozen.name(htm_gil::vm::SymId(i as u32)).to_string())
                .collect();
            assert!(!names.is_empty(), "{what}: boot's names are not the program's");
            assert_eq!(&names, boot_names.get_or_insert_with(|| names.clone()), "{what}");
            let (again, second) = run(second, &what);
            assert_eq!(again, outcome, "{what}: and the second run is the first");
            assert!(
                Arc::ptr_eq(&second.vm.symbols, frozen),
                "{what}: nothing interned at run time"
            );
        }
    }
}

/// The memo is bounded, least recently used out first: after
/// `MEMO_CAPACITY` other texts the first is compiled again — into a
/// program that runs like the one let go of.
#[test]
fn a_text_pushed_out_of_the_memo_is_compiled_again() {
    let _turn = serial();
    let source = "x = 20 + 22\nputs(x) # pushed_out\n";
    let (outcome, kept) = run(boot(source), "before");
    let boot_others = |n: usize, round: &str| {
        for i in 0..n {
            let other = format!("puts({i}) # pushed_out, {round} round\n");
            Vm::boot(&other, VmConfig::default(), &MachineProfile::generic(2)).expect("boot");
        }
    };
    boot_others(MEMO_CAPACITY - 1, "first");
    assert!(Arc::ptr_eq(&boot(source).vm.program, &kept.vm.program), "held within the bound");
    boot_others(MEMO_CAPACITY, "second");
    let again = boot(source);
    assert!(!Arc::ptr_eq(&again.vm.program, &kept.vm.program), "evicted and recompiled");
    assert_eq!(Arc::strong_count(&kept.vm.program), 1, "the memo let go of it");
    assert_eq!(run(again, "after").0, outcome);
}
