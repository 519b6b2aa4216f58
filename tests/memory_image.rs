//! A VM booted on a recycled memory image is a VM booted on a fresh one.
//!
//! `Vm::boot` builds its memory on the buffers the last VM torn down on
//! the same thread left behind (DESIGN.md "Memory image lifecycle"). The
//! property: whatever program A did to those buffers — strings, garbage
//! collection, heap and malloc-arena growth, fault injection, dying in
//! the middle of a transaction — program B run after it on the same
//! thread is indistinguishable from B run on a brand-new thread, whose
//! spare is empty: same report, same heap digest, same memory word for
//! word.

mod common;

use common::{body_strategy, render};
use htm_gil::bench_workloads::{micro, webrick};
use htm_gil::core::heap_digest;
use htm_gil::vm::Word;
use htm_gil::{
    ExecConfig, Executor, FaultPlan, LengthPolicy, MachineProfile, RuntimeMode, VmConfig,
};
use proptest::prelude::*;

#[derive(Clone)]
struct Job {
    source: String,
    vm_config: VmConfig,
    profile: MachineProfile,
    cfg: ExecConfig,
}

impl Job {
    fn new(source: &str, profile: MachineProfile, max_threads: usize, mode: RuntimeMode) -> Job {
        let mut cfg = ExecConfig::new(mode, &profile);
        cfg.max_cycles = 3_000_000_000; // hang guard
        let vm_config = VmConfig { max_threads, ..VmConfig::default() };
        Job { source: source.to_string(), vm_config, profile, cfg }
    }

    fn run(&self) -> (Executor, Result<htm_gil::RunReport, htm_gil::core::RunError>) {
        let mut ex = Executor::new(
            &self.source,
            self.vm_config.clone(),
            self.profile.clone(),
            self.cfg.clone(),
        )
        .expect("boot");
        let outcome = ex.run();
        (ex, outcome)
    }
}

const HTM_DYNAMIC: RuntimeMode = RuntimeMode::Htm { length: LengthPolicy::Dynamic };

/// Everything observable about a finished run, in a form that can leave
/// the thread it ran on (the VM's string table holds `Rc`s).
struct Observed {
    /// The full report, or the error with its dump.
    outcome: String,
    heap: String,
    words: usize,
    /// Every word that is not `Uninit`: address and value.
    image: Vec<(usize, String)>,
}

fn observe(job: &Job) -> Observed {
    let (ex, outcome) = job.run();
    let mem = &ex.vm.mem;
    Observed {
        outcome: match outcome {
            Ok(report) => report.to_json().to_compact(),
            Err(e) => e.to_string(),
        },
        heap: heap_digest(&ex.vm),
        words: mem.size(),
        image: (0..mem.size())
            .filter(|&a| *mem.peek(a) != Word::Uninit)
            .map(|a| (a, format!("{:?}", mem.peek(a))))
            .collect(),
    }
}

/// Runs `jobs` in order on one brand-new thread and observes the last.
fn last_of(jobs: &[&Job]) -> Observed {
    std::thread::scope(|s| {
        s.spawn(|| {
            let (last, before) = jobs.split_last().expect("at least one job");
            for job in before {
                drop(job.run());
            }
            observe(last)
        })
        .join()
        .expect("the run thread panicked")
    })
}

fn assert_recycled_is_fresh(a: &Job, b: &Job, what: &str) {
    let recycled = last_of(&[a, b]);
    let fresh = last_of(&[b]);
    assert_eq!(recycled.outcome, fresh.outcome, "{what}: report");
    assert_eq!(recycled.heap, fresh.heap, "{what}: heap digest");
    assert_eq!(recycled.words, fresh.words, "{what}: memory size");
    assert!(recycled.image == fresh.image, "{what}: memory image differs");
}

/// Strings kept alive until the slot heap and the malloc arena both have
/// to grow, garbage beside them so that collections and lazy sweeps run.
const CHURN_SRC: &str = r#"
$keep = []
m = Mutex.new()
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 400
      s = "item-" + j.to_s + "-" + tid.to_s
      junk = [j, j + 1, s]
      if j % 2 == 0
        m.synchronize do
          $keep << s
        end
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts($keep.length)
"#;

/// Program A, the heavy one: small heap and arena (so both grow), every
/// kind of injected fault, on zEC12's 32-word lines.
fn churn_under_faults() -> Job {
    let mut job = Job::new(CHURN_SRC, MachineProfile::zec12(), 8, HTM_DYNAMIC);
    job.vm_config.heap_slots = 1_200;
    job.vm_config.malloc_words = 6_000;
    job.cfg.fault_plan = Some(FaultPlan {
        seed: 11,
        spurious_rate: 0.02,
        shrink_rate: 0.01,
        restricted_rate: 0.005,
    });
    job
}

/// Program A, the one that dies: the cycle budget runs out while the
/// threads are inside transactions, on the Xeon's 8-word lines.
fn killed_mid_transaction() -> Job {
    let w = micro::while_bench(4, 5_000);
    let mode = RuntimeMode::Htm { length: LengthPolicy::Fixed(64) };
    let mut job = Job::new(&w.source, MachineProfile::xeon_e3_1275_v3(), 6, mode);
    job.cfg.max_cycles = 200_000;
    job
}

/// The dirtying programs do what the property needs them to have done.
#[test]
fn dirtying_programs_cover_what_they_claim() {
    let (ex, outcome) = churn_under_faults().run();
    assert_eq!(outcome.expect("the churn program finishes").stdout, "800");
    let vm = &ex.vm;
    assert!(vm.gc_runs >= 1, "collections ran");
    assert!(vm.slot_ranges.len() > 1, "the slot heap grew");
    assert!(vm.heap_grows as usize > vm.slot_ranges.len() - 1, "the malloc arena grew");
    assert!(vm.mem.faults_injected() > 0, "faults were injected");
    assert!(
        (0..vm.mem.size()).any(|a| matches!(vm.mem.peek(a), Word::Str(_))),
        "string payloads live in memory"
    );

    let (ex, outcome) = killed_mid_transaction().run();
    assert!(matches!(outcome, Err(htm_gil::core::RunError::CycleLimit { .. })), "{outcome:?}");
    assert!(ex.vm.mem.active_tx_count() > 0, "torn down with transactions open");
}

#[test]
fn recycled_image_is_observably_fresh() {
    let zec12 = MachineProfile::zec12;
    let xeon = MachineProfile::xeon_e3_1275_v3;
    let while4 = micro::while_bench(4, 60);
    let web = webrick::webrick(3, 12);
    // Against A's 8 (6) threads and 32- (8-) word lines: fewer threads and
    // more, the same line size and the other one, transactions and none.
    let followers = [
        ("while 6t xeon", Job::new(&while4.source, xeon(), 6, HTM_DYNAMIC)),
        ("while 16t zec12", Job::new(&while4.source, zec12(), 16, HTM_DYNAMIC)),
        ("webrick 5t xeon", Job::new(&web.source, xeon(), 5, HTM_DYNAMIC)),
        ("webrick 12t zec12 gil", Job::new(&web.source, zec12(), 12, RuntimeMode::Gil)),
    ];
    for (a_name, a) in [("churn", churn_under_faults()), ("killed", killed_mid_transaction())] {
        for (b_name, b) in &followers {
            assert_recycled_is_fresh(&a, b, &format!("{b_name} after {a_name}"));
        }
    }
    // A follower that itself grows the heap, on a buffer that already did.
    let a = churn_under_faults();
    assert_recycled_is_fresh(&a, &a, "churn after churn");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random pairs from the cross-stack generators: A under injected
    /// faults on one machine, B on the other.
    #[test]
    fn random_pairs_recycle_cleanly(
        threads_a in 1usize..4,
        body_a in body_strategy(),
        threads_b in 1usize..4,
        body_b in body_strategy(),
        a_on_zec12 in any::<bool>(),
    ) {
        let (zec12, xeon) = (MachineProfile::zec12(), MachineProfile::xeon_e3_1275_v3());
        let (pa, pb) = if a_on_zec12 { (zec12, xeon) } else { (xeon, zec12) };
        let mut a = Job::new(&render(threads_a, &body_a).0, pa, threads_a + 2, HTM_DYNAMIC);
        a.cfg.fault_plan = Some(FaultPlan::spurious(5, 0.05));
        let b = Job::new(&render(threads_b, &body_b).0, pb, threads_b + 2, HTM_DYNAMIC);
        assert_recycled_is_fresh(&a, &b, &format!("{body_b:?} after {body_a:?}"));
    }
}
