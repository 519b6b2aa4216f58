//! Chaos suite: fixed-seed fault injection must never break termination,
//! correctness (vs the GIL oracle) or graceful throughput degradation.
//!
//! These are the run-level forward-progress guarantees of the robustness
//! subsystem:
//!
//! 1. every workload terminates under any injection plan (the Fig. 1
//!    retry machinery plus the livelock watchdog always reach the GIL);
//! 2. stdout and the final global-heap digest are byte-identical to a
//!    pristine GIL run of the same program;
//! 3. throughput converges toward the GIL baseline as the injection rate
//!    approaches 100 % — it never collapses below a fixed fraction of it
//!    (the watchdog's escalation overhead).
//!
//! All seeds are fixed: failures reproduce exactly.

use htm_gil::core::{check_against_gil, oracle};
use htm_gil::{
    ExecConfig, Executor, FaultPlan, LengthPolicy, MachineProfile, RuntimeMode, VmConfig,
};

const SEED: u64 = 0xC4A0_5011;

fn profile() -> MachineProfile {
    MachineProfile::generic(4)
}

fn chaos_cfg(rate: f64, shrink: f64, restricted: f64, interrupt: u64) -> ExecConfig {
    let p = profile();
    let mut cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, &p);
    cfg.fault_plan = Some(FaultPlan {
        seed: SEED,
        spurious_rate: rate,
        shrink_rate: shrink,
        restricted_rate: restricted,
    });
    cfg.interrupt_interval = interrupt;
    cfg.watchdog = true;
    cfg
}

/// A multi-threaded program with global state, exercising both oracle
/// dimensions (stdout and the heap digest).
const GLOBALS_SRC: &str = r#"
$table = Array.new(4, 0)
$tally = 0
m = Mutex.new()
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    acc = 0
    j = 1
    while j <= 120
      acc += j * (tid + 1)
      j += 1
    end
    $table[tid] = acc
    m.synchronize do
      $tally += acc
    end
  end
end
threads.each do |t|
  t.join()
end
puts($tally)
"#;

#[test]
fn injected_runs_terminate_and_match_the_gil_oracle() {
    // Sweep of spurious rates, including the pathological 100 %.
    for rate in [0.0, 0.1, 0.5, 1.0] {
        let v = check_against_gil(
            GLOBALS_SRC,
            VmConfig::default(),
            profile(),
            chaos_cfg(rate, 0.0, 0.0, 0),
        )
        .unwrap_or_else(|e| panic!("rate {rate}: run failed: {e}"));
        assert!(v.matches(), "rate {rate}: {}", v.mismatch.unwrap());
        assert_eq!(v.subject.stdout, "72600");
        if rate > 0.0 {
            assert!(v.subject.htm.spurious > 0, "rate {rate}: injection must fire");
        }
    }
}

#[test]
fn mixed_fault_plan_with_interrupts_matches_the_oracle() {
    // Spurious + budget-shrink + forced-restricted faults, plus the §5.6
    // timer-interrupt model at an aggressive interval — the worst case.
    let v = check_against_gil(
        GLOBALS_SRC,
        VmConfig::default(),
        profile(),
        chaos_cfg(0.3, 0.1, 0.05, 20_000),
    )
    .expect("mixed-plan run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    assert!(v.subject.htm.spurious > 0, "spurious faults (or interrupts) must fire");
}

#[test]
fn watchdog_escalates_under_total_injection() {
    // At a 100 % spurious rate no transaction can ever commit: the
    // watchdog must escalate and the run must still finish correctly.
    let v =
        check_against_gil(GLOBALS_SRC, VmConfig::default(), profile(), chaos_cfg(1.0, 0.0, 0.0, 0))
            .expect("total-injection run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    assert!(
        v.subject.watchdog_escalations > 0,
        "100 % injection must trip the watchdog (got {} escalations)",
        v.subject.watchdog_escalations
    );
    assert_eq!(v.subject.htm.commits, 0, "no transaction survives 100 % injection");
}

#[test]
fn throughput_degrades_gracefully_toward_the_gil_baseline() {
    // The headline forward-progress property: under total injection the
    // watchdog parks speculation, so the run costs at most a bounded
    // multiple of the GIL baseline — it does not livelock or collapse.
    let v =
        check_against_gil(GLOBALS_SRC, VmConfig::default(), profile(), chaos_cfg(1.0, 0.0, 0.0, 0))
            .expect("total-injection run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    let ratio = v.subject.elapsed_cycles as f64 / v.oracle.elapsed_cycles.max(1) as f64;
    assert!(
        ratio < 2.5,
        "100 % injection must converge to ~GIL cost, got {ratio:.2}× the GIL cycles"
    );
    // And injection-free HTM must still beat the GIL on this workload —
    // the watchdog must not tax the healthy path.
    let clean =
        check_against_gil(GLOBALS_SRC, VmConfig::default(), profile(), chaos_cfg(0.0, 0.0, 0.0, 0))
            .expect("clean run failed");
    assert!(clean.matches());
    assert!(
        (clean.subject.elapsed_cycles as f64) < 1.05 * clean.oracle.elapsed_cycles as f64,
        "clean HTM-dynamic must not be slower than the GIL: {} vs {}",
        clean.subject.elapsed_cycles,
        clean.oracle.elapsed_cycles
    );
}

#[test]
fn fault_free_digest_is_identical_across_all_modes() {
    // The heap-digest oracle itself must be schedule-independent: every
    // runtime mode ends in the same canonical global state.
    let p = profile();
    let mut digests = Vec::new();
    for mode in [
        RuntimeMode::Gil,
        RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
        RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
        RuntimeMode::Htm { length: LengthPolicy::Dynamic },
        RuntimeMode::FineGrained,
        RuntimeMode::Ideal,
    ] {
        let cfg = ExecConfig::new(mode, &p);
        let mut ex = Executor::new(GLOBALS_SRC, VmConfig::default(), p.clone(), cfg).unwrap();
        let r = ex.run().unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
        assert_eq!(r.stdout, "72600", "mode {}", mode.label());
        digests.push((mode.label(), oracle::heap_digest(&ex.vm)));
    }
    let (ref first_label, ref first) = digests[0];
    for (label, d) in &digests[1..] {
        assert_eq!(d, first, "heap digest of {label} differs from {first_label}");
    }
}

#[test]
fn interrupt_model_kills_transactions_but_preserves_output() {
    // Interrupts alone (no random injection): deterministic spurious
    // aborts attributed to the timer.
    let v = check_against_gil(
        GLOBALS_SRC,
        VmConfig::default(),
        profile(),
        chaos_cfg(0.0, 0.0, 0.0, 15_000),
    )
    .expect("interrupt run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    assert!(
        v.subject.htm.spurious > 0,
        "a 15k-cycle interrupt interval must kill some in-flight transactions"
    );
}

#[test]
fn constrained_profile_chaos_point_converges_and_matches_the_oracle() {
    // FORTH-style constrained machine (8 read / 4 write lines,
    // DESIGN.md §15): real capacity aborts dominate, stacked with random
    // injection. The retry ladder plus watchdog must still converge and
    // the oracle must still hold — graceful degradation on hardware
    // whose transactions barely fit anything.
    let p = MachineProfile::constrained();
    // Injection-free first: the tiny geometry alone must produce *real*
    // capacity aborts while the retry ladder still lands every iteration
    // (no fault plan involved — these overflows come from the read set).
    let clean_cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, &p);
    let clean = check_against_gil(GLOBALS_SRC, VmConfig::default(), p.clone(), clean_cfg)
        .expect("constrained clean run failed");
    assert!(clean.matches(), "{}", clean.mismatch.unwrap());
    assert_eq!(clean.subject.stdout, "72600");
    assert!(
        clean.subject.htm.overflow_read + clean.subject.htm.overflow_write > 0,
        "the constrained geometry must produce real capacity aborts"
    );
    assert!(clean.subject.htm.commits > 0, "some transactions must still fit the tiny sets");
    // Now stack random injection on top: nothing commits (every retry is
    // killed before the tiny sets even fill), the watchdog escalates and
    // parks speculation, and the run still finishes on the oracle.
    let mut chaos = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, &p);
    chaos.fault_plan =
        Some(FaultPlan { seed: SEED, spurious_rate: 0.1, shrink_rate: 0.0, restricted_rate: 0.0 });
    chaos.watchdog = true;
    let v = check_against_gil(GLOBALS_SRC, VmConfig::default(), p, chaos)
        .expect("constrained chaos run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    assert_eq!(v.subject.stdout, "72600");
    assert!(v.subject.htm.spurious > 0, "injection must fire");
    assert!(
        v.subject.watchdog_escalations > 0,
        "injection on the constrained profile must trip the watchdog"
    );
}

#[test]
fn lazy_guarded_chaos_point_matches_the_oracle() {
    // The commit-guard policy under the mixed fault plan: the lock
    // monitor's acquire-time dooms stack with injected aborts and timer
    // interrupts, and the oracle must not notice any of it.
    let mut cfg = chaos_cfg(0.3, 0.1, 0.05, 20_000);
    cfg.subscription = htm_gil::SubscriptionPolicy::LazyGuarded;
    let v = check_against_gil(GLOBALS_SRC, VmConfig::default(), profile(), cfg)
        .expect("lazy-guarded chaos run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    assert!(v.subject.htm.spurious > 0, "injection must fire");
}

#[test]
fn taskserver_chaos_point_matches_the_gil_oracle() {
    // The fixed-seed taskserver chaos point: fault injection *and* timer
    // interrupts at once, against the full queue machinery (bounded ring,
    // backpressure parking, graceful drain) and the mark escrow that
    // feeds the latency pipeline. Shedding stays off so stdout and the
    // final heap digest have a GIL oracle; the latency counters must
    // balance even while transactions are killed from two directions —
    // an aborted slice may leak neither a phantom mark nor a phantom
    // wake.
    let w = workloads::taskserver::taskserver(3, 2, 4, 24, false);
    let vm = VmConfig { max_threads: w.threads + 2, ..VmConfig::default() };
    let v = check_against_gil(&w.source, vm, profile(), chaos_cfg(0.25, 0.05, 0.0, 50_000))
        .expect("taskserver chaos run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    assert_eq!(v.subject.stdout, workloads::taskserver::expected_stdout(24));
    assert!(v.subject.htm.spurious > 0, "injection must fire on the chaos point");
    let tl = v.subject.task_latency.as_ref().expect("subject latency section");
    assert_eq!((tl.enqueued, tl.completed, tl.shed), (24, 24, 0), "latency counters must balance");
    let otl = v.oracle.task_latency.as_ref().expect("oracle latency section");
    assert_eq!((otl.enqueued, otl.completed, otl.shed), (24, 24, 0));
}
