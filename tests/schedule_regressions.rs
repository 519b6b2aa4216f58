//! Pinned schedule-space counterexamples and hand-written stress paths
//! (DESIGN.md §14).
//!
//! Three layers:
//!
//! 1. **Dynamic find**: bounded DFS over the lazy-subscription pair
//!    workload must rediscover the published hazard (`Lazy` subscription,
//!    arXiv 1407.6968) within a CI smoke budget and shrink it to a short
//!    path — proof the whole explore→oracle→shrink pipeline works end to
//!    end, not just on the day it was written.
//! 2. **Pinned counterexamples**: minimized paths, committed as hex seeds.
//!    The lazy one must keep violating under `Lazy` and stay clean under
//!    `Eager` and `LazyGuarded`; the torn-pair one (found when the read
//!    path was made to skip a remote writer's doom — EXPERIMENTS.md,
//!    "Mutations the net was shown to catch") must stay clean.
//! 3. **Hand-written stress paths**: flip-heavy paths aimed at the PR 6
//!    escrowed-wake machinery and the PR 8 lease-epoch/doom windows,
//!    replayed under GIL, HTM-16 and HTM-dynamic; the oracle must hold,
//!    the windows must actually be exercised (spurious aborts and epoch
//!    bumps observed), and the leased access path must leave the report
//!    the per-word path leaves.

use bench::explore::{
    clean_targets, dfs, lazy_sub_clean_targets, lazy_sub_demo_target, SearchParams,
};
use htm_gil::core::explore::{check_path, gil_expected, run_path, ExploreTarget};
use htm_gil::SchedPath;

/// Two interrupt-delivery deviations (trail `S0 I1 … S0 I1`) that kill the
/// torn-pair reader's transactions at exactly the yield points that force
/// its pair-load into the non-speculative GIL-fallback window, where a
/// read that skipped the writer's doom would commit a torn `$x != $y`.
const PINNED_TORN_PAIR_HEX: &str = "0001000000000001";

/// The shrinker's minimized counterexample for the lazy-subscription
/// demo (DESIGN.md §15) — the first *real* (non-injected) unsafety the
/// explorer caught. A single scheduling deviation (`S1` at decision 18)
/// delays the writer so that one of its HTM-1 constant-store toggle
/// transactions survives into the watcher's GIL-fallback tenure and
/// commits between the watcher's two non-transactional global loads.
/// Under `Lazy` the transaction never subscribed to the GIL word, so
/// the commit goes through and the watcher observes the torn pair
/// `$x != $y` — impossible under any GIL schedule. `Eager` kills the
/// same transaction at the subscription read; `LazyGuarded` dooms it
/// from the lock monitor at GIL-acquire time.
const PINNED_LAZY_SUB_HEX: &str = "00000000000000000000000000000000000001";

fn smoke_params() -> SearchParams {
    SearchParams {
        budget: 120,
        max_preempt: 2,
        horizon: 24,
        stop_first: true,
        ..SearchParams::default()
    }
}

/// The hand-written stress paths plus both pinned paths.
fn stress_paths() -> [SchedPath; 6] {
    [
        SchedPath::new(vec![1; 24]),
        SchedPath::new(vec![2; 16]),
        SchedPath::new(vec![1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0]),
        SchedPath::new(vec![0, 0, 0, 1, 1, 1, 0, 0, 0, 2, 2, 2]),
        SchedPath::from_hex(PINNED_TORN_PAIR_HEX).unwrap(),
        SchedPath::from_hex(PINNED_LAZY_SUB_HEX).unwrap(),
    ]
}

fn clean_target(id: &str) -> ExploreTarget {
    clean_targets(true).into_iter().find(|t| t.id == id).expect("corpus target")
}

#[test]
fn pinned_torn_pair_path_is_clean() {
    let target = clean_target("torn-pair/clean/htm16");
    let path = SchedPath::from_hex(PINNED_TORN_PAIR_HEX).unwrap();
    let expected = gil_expected(&target);
    assert_eq!(expected.stdout, "0");
    let (run, mismatch) = check_path(&target, &expected, &path);
    assert!(mismatch.is_none(), "torn pair under the pinned schedule: {}", mismatch.unwrap());
    assert!(run.ctl.preemptions() >= 2, "the pinned path's deviations were not consumed");
}

/// Dynamic find: a smoke-budget bounded DFS must rediscover the
/// lazy-subscription unsafety — no test-only flag involved, just
/// `SubscriptionPolicy::Lazy` on a production code path.
#[test]
fn bounded_dfs_finds_the_lazy_subscription_violation_within_smoke_budget() {
    let target = lazy_sub_demo_target(true);
    let out = dfs(&target, &smoke_params(), 2);
    assert!(out.stats.violations > 0, "DFS lost the lazy-subscription unsafety");
    let v = &out.violations[0];
    assert!(
        v.minimized.len() <= 24,
        "shrinker regressed: minimized to {} branches (> 24): {}",
        v.minimized.len(),
        v.minimized.to_hex()
    );
    let expected = gil_expected(&target);
    let (_, mismatch) = check_path(&target, &expected, &v.minimized);
    assert!(mismatch.is_some(), "minimized path no longer reproduces");
}

#[test]
fn pinned_lazy_counterexample_still_violates_under_lazy_subscription() {
    let target = lazy_sub_demo_target(true);
    let path = SchedPath::from_hex(PINNED_LAZY_SUB_HEX).unwrap();
    let expected = gil_expected(&target);
    assert_eq!(expected.stdout, "\n0", "the GIL oracle must never see a torn pair");
    let (run, mismatch) = check_path(&target, &expected, &path);
    let m = mismatch.expect("pinned counterexample stopped reproducing the lazy unsafety");
    assert!(m.contains("stdout diverged"), "unexpected violation shape: {m}");
    assert!(run.ctl.preemptions() >= 1, "the pinned path's deviation was not consumed");
}

/// The same schedule is harmless under both safe policies: `Eager`
/// subscribes inside the transaction window, `LazyGuarded` dooms the
/// transaction from the GIL-acquire lock monitor. A violation here
/// means one of the safe policies regressed into the lazy hole.
#[test]
fn pinned_lazy_counterexample_is_clean_under_eager_and_lazy_guarded() {
    let path = SchedPath::from_hex(PINNED_LAZY_SUB_HEX).unwrap();
    for target in lazy_sub_clean_targets(true) {
        let expected = gil_expected(&target);
        assert_eq!(expected.stdout, "\n0");
        let (_, mismatch) = check_path(&target, &expected, &path);
        assert!(
            mismatch.is_none(),
            "{} regressed under the pinned lazy schedule: {}",
            target.id,
            mismatch.unwrap()
        );
    }
}

/// Flip-heavy hand-written paths across the whole clean corpus (every
/// mode: GIL, HTM-16, HTM-dynamic, plus the wake-herd): the oracle must
/// hold on all of them. The interrupt flips (`I`/`C` decisions) land in
/// the PR 6 escrowed-wake windows (transactions killed while holding
/// VM-level mutexes, forcing the escrow/abort paths) and the PR 8
/// lease-epoch windows (every kill bumps the lease epoch mid-lease).
#[test]
fn hand_written_stress_paths_hold_across_modes() {
    let paths = stress_paths();
    for target in clean_targets(true) {
        let expected = gil_expected(&target);
        for path in &paths {
            let (run, mismatch) = check_path(&target, &expected, path);
            assert!(
                mismatch.is_none(),
                "{} under {}: {}",
                target.id,
                path.to_hex(),
                mismatch.unwrap()
            );
            assert!(run.error.is_none(), "{}: {:?}", target.id, run.error);
        }
    }
}

/// Leased ≡ per-word under explored schedules: every clean target, under
/// every stress path, leaves the same report on the line-lease access path
/// and with `VmConfig::force_word_access`, but for the two counters that
/// describe the access path itself.
#[test]
fn stress_paths_leave_the_same_report_leased_and_per_word() {
    let mut targets = clean_targets(true);
    targets.extend(lazy_sub_clean_targets(true));
    for target in targets {
        let mut per_word = target.clone();
        per_word.vm.force_word_access = true;
        for path in &stress_paths() {
            let [leased, word] = [&target, &per_word].map(|t| {
                let run = run_path(t, path);
                let mut report = run.report.unwrap_or_else(|| panic!("{}: {:?}", t.id, run.error));
                (report.htm.lease_hits, report.htm.lease_misses) = (0, 0);
                report.to_json().to_compact()
            });
            assert_eq!(leased, word, "{} under {}: leased vs per-word", target.id, path.to_hex());
        }
    }
}

/// The interrupt-kill windows are actually exercised by the flip paths:
/// under HTM the `I`/`C` kills surface as spurious (timer-interrupt)
/// aborts, and every kill bumps the lease epoch.
#[test]
fn stress_paths_exercise_the_interrupt_and_lease_windows() {
    let target = clean_target("mutex-counter/htm16");
    // Alternating bytes: each `S0` (stay on the natural schedule) lets
    // the following interrupt decision consume the `1` and kill the
    // open transaction.
    let run = run_path(&target, &SchedPath::new([0, 1].repeat(16)));
    let report = run.report.expect("clean run");
    assert!(
        report.htm.spurious > 0,
        "no interrupt kill landed: the I/C decision windows were not exercised"
    );
    assert!(report.htm.epoch_bumps > 0, "lease-epoch window not exercised");
    assert!(run.ctl.preemptions() > 0, "no deviation was consumed");
}

/// Satellite: a failed explored run's diagnostic dump ends with the
/// trailing scheduler decision trail, so a stuck schedule is diagnosable
/// from the error text alone.
#[test]
fn explored_run_failure_dump_names_the_decision_trail() {
    let mut target = clean_target("mutex-counter/htm16");
    // Absurdly small cycle cap: the run fails mid-flight with the
    // deadlock-style dump attached.
    target.cfg.max_cycles = 5_000;
    let run = run_path(&target, &SchedPath::new(vec![1, 1, 1]));
    let err = run.error.expect("cycle cap must trip");
    assert!(err.contains("sched decisions (tail):"), "dump lost the decision trail:\n{err}");
}
