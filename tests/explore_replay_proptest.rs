//! Property tests for schedule-replay determinism (DESIGN.md §14).
//!
//! The exploration machinery is only sound if a `SchedPath` is a
//! *complete* name for an execution: replaying the same path must be
//! byte-identical (report JSON and heap digest), the empty path must be
//! indistinguishable from running with no controller at all, and two
//! paths sharing a prefix must agree on every decision taken before the
//! first differing byte.

use htm_gil::core::explore::{run_path, ExploreTarget};
use htm_gil::core::{ExecConfig, LengthPolicy, RuntimeMode};
use htm_gil::{Executor, MachineProfile, SchedPath, VmConfig};
use proptest::collection::vec;
use proptest::prelude::*;

fn target(mode: RuntimeMode, iters: usize) -> ExploreTarget {
    let profile = MachineProfile::generic(4);
    ExploreTarget {
        id: "prop-counter".into(),
        source: format!(
            r#"
$sum = 0
m = Mutex.new()
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    while j < {iters}
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
        ),
        cfg: ExecConfig { max_cycles: 500_000_000, ..ExecConfig::new(mode, &profile) },
        vm: VmConfig { max_threads: 4, ..VmConfig::default() },
        profile,
        interrupts: true,
    }
}

fn mode_of(pick: u8) -> RuntimeMode {
    match pick % 3 {
        0 => RuntimeMode::Gil,
        1 => RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
        _ => RuntimeMode::Htm { length: LengthPolicy::Dynamic },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same path, same target → byte-identical run report JSON, stdout,
    /// heap digest and decision trail.
    #[test]
    fn replay_is_byte_identical(
        bytes in vec(0u8..4, 0..20),
        pick in 0u8..3,
        iters in 2usize..5,
    ) {
        let t = target(mode_of(pick), iters);
        let path = SchedPath::new(bytes);
        let a = run_path(&t, &path);
        let b = run_path(&t, &path);
        prop_assert_eq!(&a.left.stdout, &b.left.stdout);
        prop_assert_eq!(&a.left.heap, &b.left.heap);
        prop_assert_eq!(a.ctl.taken(), b.ctl.taken());
        prop_assert_eq!(a.ctl.arities(), b.ctl.arities());
        prop_assert_eq!(a.error.is_some(), b.error.is_some());
        if let (Some(ra), Some(rb)) = (&a.report, &b.report) {
            prop_assert_eq!(ra.to_json().to_compact(), rb.to_json().to_compact());
        }
    }

    /// An installed *empty* path is observationally identical to running
    /// with no controller at all: choice 0 everywhere IS the natural
    /// schedule.
    #[test]
    fn empty_path_equals_no_controller(
        pick in 0u8..3,
        iters in 2usize..5,
    ) {
        let t = target(mode_of(pick), iters);
        let with_ctl = run_path(&t, &SchedPath::empty());
        prop_assert!(with_ctl.error.is_none());
        // The same execution with no controller installed.
        let mut ex =
            Executor::new(&t.source, t.vm.clone(), t.profile.clone(), t.cfg.clone()).unwrap();
        let bare = ex.run().unwrap();
        let ctl_report = with_ctl.report.unwrap();
        prop_assert_eq!(ctl_report.to_json().to_compact(), bare.to_json().to_compact());
    }

    /// Two paths sharing a prefix take identical decisions up to the
    /// first differing byte: divergence starts exactly at the edit.
    #[test]
    fn divergence_starts_at_the_first_differing_byte(
        prefix in vec(0u8..4, 0..10),
        a_suffix in vec(0u8..4, 1..6),
        b_suffix in vec(0u8..4, 1..6),
        pick in 0u8..3,
    ) {
        let t = target(mode_of(pick), 3);
        let mut a_bytes = prefix.clone();
        a_bytes.extend(&a_suffix);
        let mut b_bytes = prefix.clone();
        b_bytes.extend(&b_suffix);
        // First index where the submitted bytes differ (None = one path
        // extends the other with suffix bytes, still a valid prefix
        // relation for the indices both define).
        let edit = a_bytes
            .iter()
            .zip(&b_bytes)
            .position(|(x, y)| x != y)
            .unwrap_or(a_bytes.len().min(b_bytes.len()));
        let ra = run_path(&t, &SchedPath::new(a_bytes));
        let rb = run_path(&t, &SchedPath::new(b_bytes));
        // Every decision before the edit consumed identical bytes on an
        // identical schedule, so the taken trails agree up to it. (At
        // and past the edit they *may* still agree — e.g. differing
        // bytes that clamp to the same choice.)
        let upto = edit.min(ra.ctl.decisions()).min(rb.ctl.decisions());
        prop_assert_eq!(
            &ra.ctl.taken()[..upto],
            &rb.ctl.taken()[..upto],
            "trails diverged before the first differing byte (index {})",
            edit
        );
        prop_assert_eq!(&ra.ctl.arities()[..upto], &rb.ctl.arities()[..upto]);
    }
}
