//! The string table's lifetime rule (`ruby_vm::value`).
//!
//! A `Word` is a 16-byte `Copy` value; a String's text sits in the VM's
//! `StrTable` behind the `StrId` in payload word 1. An id may be released
//! only when no word of the image and no undo record can name it, and the
//! collector is the one place that decides: these tests check that it
//! frees everything dead, nothing live, and nothing at all while a
//! transaction is open.

mod common;

use std::collections::BTreeSet;

use common::{body_strategy, render};
use htm_gil::core::heap_digest;
use htm_gil::htm::Budgets;
use htm_gil::vm::{ObjKind, Stop, StrId, Vm, VmAbort, Word};
use htm_gil::{
    ExecConfig, Executor, FaultPlan, LengthPolicy, MachineProfile, RuntimeMode, SubscriptionPolicy,
    VmConfig,
};
use proptest::prelude::*;

#[test]
fn word_is_copy() {
    fn is_copy<T: Copy>() {}
    is_copy::<Word>();
}

/// Ids named by payload word 1 of the heap's slots (`peek` walk): the
/// String and Regexp objects, swept or not.
fn heap_ids(vm: &Vm) -> BTreeSet<StrId> {
    (0..vm.total_slots()).filter_map(|i| vm.mem.peek(vm.slot_addr(i) + 1).as_str_id()).collect()
}

/// After a collection with no transaction open, the live table entries
/// are exactly the ids the heap names; and once the dead objects have
/// been swept and collected again, exactly the reachable Strings'.
fn assert_table_is_the_heaps(vm: &mut Vm, what: &str) {
    assert_eq!(vm.mem.active_tx_count(), 0, "{what}: a finished run leaves no transaction");
    for round in 0..3 {
        vm.gc(0).expect("gc");
        let live: BTreeSet<StrId> = vm.strings.live_ids().collect();
        assert_eq!(live, heap_ids(vm), "{what}, round {round}: live table entries vs heap");
        vm.lazy_sweep(0, usize::MAX).expect("sweep");
    }
    // Two sweeps freed every unreachable object (the first clears the mark
    // of what was born marked): what is left is a String or a Regexp.
    for i in 0..vm.total_slots() {
        let slot = vm.slot_addr(i);
        if vm.mem.peek(slot + 1).as_str_id().is_some() {
            let kind = vm.mem.peek(slot).as_header().and_then(|h| h.kind()).expect("header");
            assert!(
                matches!(kind, ObjKind::String | ObjKind::Regexp),
                "{what}: {kind:?} names an id"
            );
        }
    }
}

struct Outcome {
    stdout: String,
    heap: String,
    method_version: u32,
    ex: Executor,
}

fn run(src: &str, vm_config: &VmConfig, cfg: ExecConfig) -> Outcome {
    let profile = MachineProfile::generic(4);
    let label = cfg.mode.label();
    let mut ex = Executor::new(src, vm_config.clone(), profile, cfg).expect("boot");
    let report = ex.run().unwrap_or_else(|e| panic!("{label}: {e}\n{src}"));
    Outcome {
        stdout: report.stdout,
        heap: heap_digest(&ex.vm),
        method_version: ex.vm.method_version,
        ex,
    }
}

fn cfg(mode: RuntimeMode) -> ExecConfig {
    let mut cfg = ExecConfig::new(mode, &MachineProfile::generic(4));
    cfg.max_cycles = 3_000_000_000; // hang guard
    cfg
}

fn htm(length: LengthPolicy) -> RuntimeMode {
    RuntimeMode::Htm { length }
}

/// Run `src` under `subject` and under the GIL; the subject must be
/// observably the GIL run, and both tables must be their heaps'.
fn assert_gil_equivalent(src: &str, vm_config: &VmConfig, subject: ExecConfig, what: &str) {
    let mut gil = run(src, vm_config, cfg(RuntimeMode::Gil));
    let mut sub = run(src, vm_config, subject);
    assert_eq!(sub.stdout, gil.stdout, "{what}: stdout");
    assert_eq!(sub.heap, gil.heap, "{what}: heap digest");
    assert_eq!(sub.method_version, gil.method_version, "{what}: method_version");
    assert_table_is_the_heaps(&mut gil.ex.vm, "GIL");
    assert_table_is_the_heaps(&mut sub.ex.vm, what);
}

/// Workers that replace, concatenate and compile strings in every
/// transaction, keep some and drop the rest.
const WORKERS_SRC: &str = r#"
$out = Array.new(4, "")
$kept = Array.new(4, 0)
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    s = "w" + tid.to_s
    mine = []
    hits = 0
    j = 0
    while j < 150
      s << "x"
      u = s + "-" + j.to_s
      r = Regexp.new("x+-" + j.to_s)
      if r.match(u)
        hits += 1
      end
      if j % 50 == 0
        mine << r
        mine << u.downcase
      end
      j += 1
    end
    $out[tid] = s.length.to_s + ":" + hits.to_s
    $kept[tid] = mine
  end
end
threads.each do |t|
  t.join()
end
puts($out)
"#;

/// A heap small enough that the workers collect several times mid-run.
fn small_heap() -> VmConfig {
    VmConfig { heap_slots: 1_500, max_threads: 6, ..VmConfig::default() }
}

#[test]
fn transactional_string_work_under_fault_injection_is_the_gil_run() {
    for length in [
        LengthPolicy::Fixed(1),
        LengthPolicy::Fixed(16),
        LengthPolicy::Fixed(256),
        LengthPolicy::Dynamic,
    ] {
        let mut subject = cfg(htm(length));
        subject.fault_plan = Some(FaultPlan::spurious(0x57A8, 0.25));
        let what = subject.mode.label();
        assert_gil_equivalent(WORKERS_SRC, &small_heap(), subject, &what);
    }
}

/// Under lazy subscription a transaction survives another thread's GIL
/// acquisition, so the collections of this run start with transactions
/// open that hold replaced strings in their undo logs only.
#[test]
fn lazy_subscription_collections_keep_what_open_transactions_replaced() {
    for length in [LengthPolicy::Fixed(16), LengthPolicy::Dynamic] {
        let mut subject = cfg(htm(length));
        subject.subscription = SubscriptionPolicy::Lazy;
        let out = run(WORKERS_SRC, &small_heap(), subject.clone());
        assert!(out.ex.vm.gc_runs >= 2, "collections ran: {}", out.ex.vm.gc_runs);
        assert_gil_equivalent(WORKERS_SRC, &small_heap(), subject, "lazy");
    }
}

fn boot(src: &str) -> Vm {
    Vm::boot(src, VmConfig::default(), &MachineProfile::generic(2)).expect("boot")
}

/// The rule itself, step by step: a collection that ends with a
/// transaction still open frees nothing, and the id the transaction
/// replaced is there when it rolls back.
#[test]
fn a_collection_with_a_transaction_open_frees_nothing() {
    let mut vm = boot("nil");
    vm.gc(0).unwrap();
    // Strings nothing roots: the mark reads none of their lines, so a
    // transaction that wrote one of them survives the collection. The
    // middle one shares its cache line with other garbage only.
    let garbage: Vec<usize> =
        (0..16).map(|_| vm.make_string(0, "old".into()).unwrap().as_obj().unwrap()).collect();
    let slot = garbage[8];
    let before = vm.strings.live_ids().count();

    vm.mem.begin(1, Budgets { read_lines: 1 << 20, write_lines: 1 << 20 }).unwrap();
    vm.string_replace(1, slot, "speculative".into()).unwrap();
    vm.gc(0).unwrap();
    assert!(vm.mem.in_tx(1), "the collection never touched the transaction's lines");
    assert_eq!(vm.strings.live_ids().count(), before + 1, "nothing released");
    vm.mem.tabort(1, 1);
    assert_eq!(&*vm.string_content(0, slot).unwrap(), "old");

    // No transaction open: the aborted transaction's id goes, the
    // strings' own only once the sweep has freed the objects.
    vm.gc(0).unwrap();
    assert_eq!(vm.strings.live_ids().count(), before);
    vm.lazy_sweep(0, usize::MAX).unwrap();
    vm.gc(0).unwrap();
    vm.lazy_sweep(0, usize::MAX).unwrap();
    vm.gc(0).unwrap();
    assert_eq!(vm.strings.live_ids().count(), before - 16);
}

/// The collector's walk over the heap stops once it has seen every live id
/// named, and not a slot sooner: the one id that only the heap's last slot
/// names — reached after another id was sighted twice, which counts once —
/// is still there afterwards.
#[test]
fn the_last_named_id_sitting_in_the_last_slot_is_kept() {
    let mut vm = boot("nil");
    vm.gc(0).unwrap();
    let mut string = |text: &str| vm.make_string(0, text.into()).unwrap().as_obj().unwrap();
    let (twice, again) = (string("seen twice"), string("renamed"));
    let seen_twice = *vm.mem.peek(twice + 1);
    vm.strings.release(vm.mem.peek(again + 1).as_str_id().unwrap());
    vm.mem.poke(again + 1, seen_twice);
    let last_id = vm.strings.alloc("last".into()).unwrap();
    let last = vm.slot_addr(vm.total_slots() - 1);
    assert!(last > again, "the walk meets the pair first");
    vm.mem.poke(last, Word::hdr(ObjKind::String, false));
    vm.mem.poke(last + 1, Word::Str(last_id));
    let before: BTreeSet<StrId> = vm.strings.live_ids().collect();
    assert_eq!(before, heap_ids(&vm), "every live id is named: the walk may stop early");

    vm.gc(0).unwrap();
    assert_eq!(vm.strings.get(last_id).map(|text| &**text), Some("last"));
    assert_eq!(vm.strings.live_ids().collect::<BTreeSet<_>>(), before, "nothing released");
    // Unnamed, it goes like any other: the early stop is not a skip.
    vm.mem.poke(last + 1, Word::Int(0));
    vm.gc(0).unwrap();
    assert!(vm.strings.get(last_id).is_none());
    assert_eq!(vm.strings.live_ids().count(), before.len() - 1);
}

#[test]
fn a_long_append_loop_keeps_the_table_bounded() {
    let src = "s = \"\"\ni = 0\nwhile i < 20000\n  s << \"x\"\n  i += 1\nend\nputs(s.length)\n";
    // Every round makes two entries, the literal's and the replacement's:
    // the replaced one goes at once, the literal's at the first collection
    // after its object was swept.
    let vm_config = VmConfig { heap_slots: 2_000, ..VmConfig::default() };
    let out = run(src, &vm_config, cfg(RuntimeMode::Gil));
    assert_eq!(out.stdout, "20000");
    assert!(out.ex.vm.gc_runs >= 5, "collections ran: {}", out.ex.vm.gc_runs);
    let ids = out.ex.vm.strings.id_count();
    assert!(ids < 8_192, "40 000 entries must not pile up: {ids} ids");
}

/// A `Str` word that outlived its id is a corrupt image: the VM reports
/// it (the executor turns that into `RunError::Vm`), the digest says so,
/// and neither panics nor answers with some other string's text.
#[test]
fn a_dangling_id_is_a_fatal_error_not_a_panic() {
    let src = "$s = \"dangling\"\nputs($s)\n";
    let mut out = run(src, &VmConfig::default(), cfg(RuntimeMode::Gil));
    assert!(out.heap.contains("\"dangling\""), "{}", out.heap);
    let vm = &mut out.ex.vm;
    let (_, &idx) = vm
        .gvar_map
        .iter()
        .find(|(sym, _)| vm.program.symbols.name(**sym) == "s")
        .expect("$s is a global");
    let slot = vm.mem.peek(vm.layout.gvar(idx)).as_obj().expect("$s holds a String");
    let id = vm.mem.peek(slot + 1).as_str_id().expect("payload word");
    vm.strings.release(id);
    assert_eq!(vm.string_content(0, slot), Err(VmAbort));
    match vm.take_stop() {
        Some(Stop::Fatal(e)) => assert!(e.msg.contains("corrupt string payload"), "{e}"),
        other => panic!("expected a fatal error, got {other:?}"),
    }
    assert!(heap_digest(vm).contains("<freed string>"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random programs, string-building bodies among them: after a run in
    /// any mode the table holds exactly what the heap's objects name.
    #[test]
    fn after_a_collection_the_table_is_the_heaps(
        threads in 1usize..4,
        body in body_strategy(),
        dynamic in any::<bool>(),
    ) {
        let (src, expected) = render(threads, &body);
        let vm_config = VmConfig { heap_slots: 1_200, max_threads: threads + 2, ..VmConfig::default() };
        let mode = if dynamic { htm(LengthPolicy::Dynamic) } else { RuntimeMode::Gil };
        let mut out = run(&src, &vm_config, cfg(mode));
        prop_assert_eq!(&out.stdout, &expected, "{:?} x{}", body, threads);
        assert_table_is_the_heaps(&mut out.ex.vm, &format!("{body:?} x{threads}"));
    }
}
