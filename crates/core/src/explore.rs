//! Oracle-checked schedule replay: run one explored interleaving and
//! judge it against the pristine-GIL expectation.
//!
//! The encoding and the decision-point hooks live in
//! `machine_sim::explore`; this module is the correctness side. For a
//! *target* (a workload source + runtime mode + machine), the expected
//! observable behaviour is computed **once** from a pristine GIL run
//! (no controller, no injection — the PR 4 oracle): the complete stdout
//! plus the address-free heap digest. Every explored path then replays
//! under the target's real mode with a controller installed, and any of
//!
//! * a run failure (deadlock, livelock, cycle-limit),
//! * diverging stdout, or
//! * a diverging heap digest
//!
//! is a serializability violation. A built-in shrinker minimizes a
//! violating path — truncate, zero bytes right-to-left, lower byte
//! values — while the violation keeps reproducing, yielding the pinned
//! counterexamples committed to `tests/schedule_regressions.rs`.

use machine_sim::{ExploreCtl, MachineProfile, SchedPath};
use ruby_vm::VmConfig;

use crate::config::ExecConfig;
use crate::exec::Executor;
use crate::oracle::{gil_oracle, Expected};
use crate::report::RunReport;

/// One explorable configuration: a workload under a mode on a machine.
#[derive(Debug, Clone)]
pub struct ExploreTarget {
    /// Stable identifier used in stats and repro artifacts.
    pub id: String,
    /// Fully instantiated Ruby source.
    pub source: String,
    /// The run every path is replayed under, less the controller
    /// [`run_path`] installs: mode, subscription policy (the GIL oracle
    /// ignores it — the expectation is policy-independent by construction)
    /// and the cycle cap that turns a schedule that livelocks where the
    /// natural one does not into a reported violation, not a hung search.
    pub cfg: ExecConfig,
    pub vm: VmConfig,
    pub profile: MachineProfile,
    /// Enable the interrupt-delivery decisions (yield-point and
    /// commit-window transaction kills).
    pub interrupts: bool,
}

/// Compute the target's expectation: one pristine GIL run of the same
/// source (no controller, no injection). Panics on boot/run failure — a
/// target whose oracle run fails is a harness bug, not a
/// schedule-dependent finding.
pub fn gil_expected(target: &ExploreTarget) -> Expected {
    let (vm, profile) = (target.vm.clone(), target.profile.clone());
    gil_oracle(&target.source, vm, profile, target.cfg.max_cycles)
        .unwrap_or_else(|e| panic!("{}: oracle GIL run failed: {e}", target.id))
        .1
}

/// Everything one explored execution produced.
#[derive(Debug)]
pub struct PathRun {
    /// The run report; `None` when the run failed (see `error`).
    pub report: Option<RunReport>,
    /// Run failure text (deadlock/livelock/cycle-limit), if any.
    pub error: Option<String>,
    /// Stdout and heap digest at the run's end, failed or not.
    pub left: Expected,
    /// The controller after the run: the decision trail it recorded.
    pub ctl: ExploreCtl,
}

/// Replay `path` on the target and collect the outcome. Panics only on
/// boot failure (workload/harness bug); run failures are captured.
pub fn run_path(target: &ExploreTarget, path: &SchedPath) -> PathRun {
    let explore = Some(ExploreCtl::new(path.clone(), target.interrupts));
    let cfg = ExecConfig { explore, ..target.cfg.clone() };
    let mut ex = Executor::new(&target.source, target.vm.clone(), target.profile.clone(), cfg)
        .unwrap_or_else(|e| panic!("{}: boot failed: {e}", target.id));
    let (report, error) = match ex.run() {
        Ok(r) => (Some(r), None),
        Err(e) => (None, Some(e.to_string())),
    };
    let ctl = ex.sched.explore().expect("explore controller installed by config").clone();
    PathRun { report, error, left: Expected::of(&ex), ctl }
}

/// The violation verdict for one explored execution: `None` when the
/// run is observationally equivalent to the GIL oracle, else a
/// human-readable description of the divergence.
pub fn mismatch_of(expected: &Expected, run: &PathRun) -> Option<String> {
    match &run.report {
        Some(report) => expected.mismatch(&report.mode_label, &run.left),
        None => Some(format!(
            "run failed under this schedule: {}",
            run.error.as_deref().unwrap_or_default()
        )),
    }
}

/// Replay and judge in one step.
pub fn check_path(
    target: &ExploreTarget,
    expected: &Expected,
    path: &SchedPath,
) -> (PathRun, Option<String>) {
    let run = run_path(target, path);
    let mismatch = mismatch_of(expected, &run);
    (run, mismatch)
}

/// Outcome of shrinking one violating path.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The minimized path (still violating, trailing zeros trimmed).
    pub path: SchedPath,
    /// Replays spent shrinking.
    pub executions: u64,
}

/// Greedy deterministic shrinker: repeatedly try (a) truncating to a
/// prefix (binary, then linear off the tail), (b) zeroing non-zero
/// bytes right-to-left, (c) lowering byte values to 1 — keeping every
/// candidate that still violates — until a fixpoint or `max_runs`
/// replays. The input path must violate (callers check first).
pub fn shrink(
    target: &ExploreTarget,
    expected: &Expected,
    path: &SchedPath,
    max_runs: u64,
) -> ShrinkResult {
    let mut runs = 0u64;
    let mut current = path.trimmed();
    let still_violates = |candidate: &SchedPath, runs: &mut u64| -> bool {
        *runs += 1;
        let (_, mismatch) = check_path(target, expected, candidate);
        mismatch.is_some()
    };
    loop {
        let before = current.clone();
        // (a) Truncation: halve while the prefix still violates, then
        // peel single bytes off the tail.
        while runs < max_runs && !current.is_empty() {
            let half = SchedPath::new(current.as_bytes()[..current.len() / 2].to_vec()).trimmed();
            if half.len() < current.len() && still_violates(&half, &mut runs) {
                current = half;
            } else {
                break;
            }
        }
        while runs < max_runs && !current.is_empty() {
            let shorter =
                SchedPath::new(current.as_bytes()[..current.len() - 1].to_vec()).trimmed();
            if still_violates(&shorter, &mut runs) {
                current = shorter;
            } else {
                break;
            }
        }
        // (b) Zero non-zero bytes right-to-left (fewer forced
        // deviations = simpler counterexample).
        for i in (0..current.len()).rev() {
            if runs >= max_runs {
                break;
            }
            if current.as_bytes()[i] == 0 {
                continue;
            }
            let mut bytes = current.as_bytes().to_vec();
            bytes[i] = 0;
            let candidate = SchedPath::new(bytes).trimmed();
            if still_violates(&candidate, &mut runs) {
                current = candidate;
            }
        }
        // (c) Lower remaining bytes to the smallest deviation.
        for i in 0..current.len() {
            if runs >= max_runs {
                break;
            }
            if current.as_bytes()[i] <= 1 {
                continue;
            }
            let mut bytes = current.as_bytes().to_vec();
            bytes[i] = 1;
            let candidate = SchedPath::new(bytes);
            if still_violates(&candidate, &mut runs) {
                current = candidate;
            }
        }
        if current == before || runs >= max_runs {
            break;
        }
    }
    ShrinkResult { path: current.trimmed(), executions: runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LengthPolicy, RuntimeMode};

    fn tiny_target(mode: RuntimeMode) -> ExploreTarget {
        let profile = MachineProfile::generic(4);
        ExploreTarget {
            id: "tiny-counter".into(),
            source: r#"
$sum = 0
m = Mutex.new()
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < 5
      m.synchronize do
        $sum += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts($sum)
"#
            .into(),
            cfg: ExecConfig { max_cycles: 500_000_000, ..ExecConfig::new(mode, &profile) },
            vm: VmConfig { max_threads: 4, ..VmConfig::default() },
            profile,
            interrupts: true,
        }
    }

    #[test]
    fn empty_path_matches_the_oracle_in_every_mode() {
        for mode in [
            RuntimeMode::Gil,
            RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
            RuntimeMode::Htm { length: LengthPolicy::Dynamic },
        ] {
            let t = tiny_target(mode);
            let expected = gil_expected(&t);
            assert_eq!(expected.stdout, "10");
            let (run, mismatch) = check_path(&t, &expected, &SchedPath::empty());
            assert!(mismatch.is_none(), "{}: {}", t.cfg.mode.label(), mismatch.unwrap());
            assert!(run.error.is_none());
        }
    }

    #[test]
    fn forced_preemptions_still_match_the_oracle() {
        let t = tiny_target(RuntimeMode::Htm { length: LengthPolicy::Fixed(16) });
        let expected = gil_expected(&t);
        let (run, mismatch) = check_path(&t, &expected, &SchedPath::new(vec![1; 16]));
        assert!(mismatch.is_none(), "{}", mismatch.unwrap());
        assert!(run.ctl.preemptions() > 0, "flips must actually deviate the schedule");
        assert_eq!(run.ctl.taken().len(), run.ctl.arities().len());
        assert_eq!(run.ctl.decisions(), run.ctl.taken().len());
    }

    #[test]
    fn same_path_replays_byte_identically() {
        let t = tiny_target(RuntimeMode::Htm { length: LengthPolicy::Dynamic });
        let path = SchedPath::new(vec![0, 2, 1, 0, 3, 1]);
        let a = run_path(&t, &path);
        let b = run_path(&t, &path);
        assert_eq!(a.left.stdout, b.left.stdout);
        assert_eq!(a.left.heap, b.left.heap);
        assert_eq!(a.ctl.taken(), b.ctl.taken());
        let (ar, br) = (a.report.unwrap(), b.report.unwrap());
        assert_eq!(ar.to_json().to_compact(), br.to_json().to_compact());
    }
}
